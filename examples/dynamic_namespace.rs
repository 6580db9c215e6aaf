//! Dynamic namespaces through the facade: a pruned-backend `BstSystem`
//! over sparse occupancy (§5.2), a store of mutable communities that
//! churn via `insert_keys`/`remove_keys`, generation-stamped query
//! handles that survive the churn, and a whole-system snapshot.
//!
//! Everything below is public facade API — no raw tree, sampler, or memo
//! plumbing.
//!
//! Run with: `cargo run --release --example dynamic_namespace`

use bloomsampletree::BstSystem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let namespace = 1u64 << 24; // 16.7M ids
    let mut rng = StdRng::seed_from_u64(1);

    // The service's user base occupies a few regions of the huge id
    // namespace: a launch cohort plus several growth regions.
    let mut occupied: Vec<u64> = (0..2_000u64).map(|i| 1_000_000 + i * 3).collect();
    for _ in 1..=5 {
        let region = rng.gen_range(0..16u64) * (namespace / 16);
        for _ in 0..1_500 {
            occupied.push(region + rng.gen_range(0..namespace / 16));
        }
    }

    // One builder call: the system plans the filters for the full
    // namespace but materialises its tree only over occupied ids.
    let system = BstSystem::builder(namespace)
        .expected_set_size(500)
        .accuracy(0.85)
        .seed(5)
        .pruned(occupied.iter().copied())
        .build();
    let tree = system.tree();
    let complete_nodes = (1u64 << (tree.depth() + 1)) - 1;
    println!(
        "pruned backend: {} users in {} nodes, {:.2} MB \
         (complete tree would hold {} nodes, {:.1} MB; pruned uses {:.1}%)",
        tree.occupied_count(),
        tree.node_count(),
        tree.memory_bytes() as f64 / 1e6,
        complete_nodes,
        complete_nodes as f64 * (tree.plan().m as f64 / 8.0) / 1e6,
        100.0 * tree.node_count() as f64 / complete_nodes as f64
    );

    // A community with churn lives in the system's store as its member
    // keys, so members can join AND leave. It is addressed by a stable
    // id from now on.
    let occupied = {
        let mut o = occupied;
        o.sort_unstable();
        o.dedup();
        o
    };
    let members: Vec<u64> = occupied.iter().copied().step_by(11).collect();
    let community = system
        .create(members.iter().copied())
        .expect("create community");
    println!("\ncommunity {community}: {} members", members.len());

    // Open a handle before the churn; it stays valid throughout.
    let query = system.query_id(community).expect("open handle");
    let mut warmup_rng = StdRng::seed_from_u64(7);
    query.sample(&mut warmup_rng).expect("warm-up sample");
    println!(
        "handle opened at generation {} ({} node evals cached after one draw)",
        query.generation(),
        query.cached_evals()
    );

    // Half the members leave; a few new ones join.
    let (leavers, stayers) = members.split_at(members.len() / 2);
    system
        .remove_keys(community, leavers.iter().copied())
        .expect("remove leavers");
    let joiners: Vec<u64> = occupied.iter().copied().step_by(501).collect();
    system
        .insert_keys(community, joiners.iter().copied())
        .expect("insert joiners");
    println!(
        "{} left, {} joined -> store generation {}, open handle stale: {}",
        leavers.len(),
        joiners.len(),
        system.filters().generation(community).expect("generation"),
        query.is_stale().expect("staleness")
    );

    // The stale handle transparently re-projects and re-descends cold on
    // its next operation — never a stale answer.
    let mut hits = 0;
    let mut ghost_hits = 0;
    for _ in 0..50 {
        if let Ok(u) = query.sample(&mut warmup_rng) {
            if stayers.binary_search(&u).is_ok() || joiners.binary_search(&u).is_ok() {
                hits += 1;
            } else if leavers.binary_search(&u).is_ok() {
                ghost_hits += 1;
            }
        }
    }
    println!(
        "50 post-churn samples: {hits} current members, {ghost_hits} ghost leavers \
         (handle now at generation {})",
        query.generation()
    );

    let rebuilt = query.reconstruct().expect("reconstruct");
    let still_there = stayers
        .iter()
        .filter(|x| rebuilt.binary_search(x).is_ok())
        .count();
    let ghosts = leavers
        .iter()
        .filter(|x| rebuilt.binary_search(x).is_ok())
        .count();
    println!(
        "reconstruction after churn: {} ids ({} of {} stayers, {} ghost leavers)",
        rebuilt.len(),
        still_there,
        stayers.len(),
        ghosts
    );

    // The namespace itself evolves (§5.2): new user ids sign up and old
    // ones are purged, straight through the facade — the pruned tree
    // grows/shrinks in place and every open handle re-descends cold via
    // the tree-generation stamp.
    let signup = occupied.last().unwrap() / 2 + 1;
    let was_occupied = system.contains_occupied(signup);
    let gen_after_signup = system.insert_occupied(signup).expect("signup");
    system
        .insert_keys(community, [signup])
        .expect("new user joins the community");
    let visible = query
        .reconstruct()
        .expect("reconstruct")
        .binary_search(&signup)
        .is_ok();
    println!(
        "\nsignup of id {signup} (previously occupied: {was_occupied}): tree generation {} \
         -> visible through the open handle: {visible}",
        gen_after_signup,
    );
    let purged = occupied[0];
    system.remove_occupied(purged).expect("purge");
    println!(
        "purged id {purged}: occupancy {} -> {}, tree generation {}",
        occupied.len(),
        system.occupied_count(),
        system.tree_generation(),
    );

    // Accounts get deleted too: whole stored sets drop from the store,
    // and their ids are retired (open handles fail typed, not silently).
    let doomed = system
        .create(occupied.iter().copied().take(100))
        .expect("create");
    let doomed_handle = system.query_id(doomed).expect("open");
    system.drop_set(doomed).expect("drop");
    println!(
        "\ndropped set {doomed}: re-query -> {}",
        doomed_handle
            .reconstruct()
            .expect_err("dropped sets fail typed")
    );

    // Nightly ops: snapshot the whole system — plan, pruned tree, store
    // (member keys + generations) — and restore it elsewhere.
    let final_rec = query.reconstruct().expect("reconstruct before snapshot");
    let snapshot = system.to_bytes();
    let restored = BstSystem::from_bytes(&snapshot).expect("restore snapshot");
    let restored_rec = restored
        .query_id(community)
        .expect("same id after restore")
        .reconstruct()
        .expect("reconstruct on restored system");
    println!(
        "\nsnapshot: {:.2} MB; restored system answers identically: {} \
         (community still at generation {})",
        snapshot.len() as f64 / 1e6,
        restored_rec == final_rec,
        restored
            .filters()
            .generation(community)
            .expect("generation"),
    );
    assert_eq!(restored_rec, final_rec);
}
