//! Quickstart: store a set in a Bloom filter, then sample from it and
//! reconstruct it through a query handle on a BloomSampleTree — including
//! an ASCII rendering of the paper's Figure 1 tree, an empirical sampling
//! histogram, and the handle's amortization at work.
//!
//! Run with: `cargo run --release --example quickstart`

use bloomsampletree::{BstConfig, BstSystem};
use bst_stats::chi2_uniform_test;
use bst_stats::histogram::Histogram;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // ------------------------------------------------------------------
    // 1. Build the system: one BloomSampleTree for a namespace of 100k
    //    ids, sized for 90% sampling accuracy on ~1000-element sets. The
    //    system is an Arc handle — clone it freely across threads.
    // ------------------------------------------------------------------
    let system = BstSystem::builder(100_000)
        .accuracy(0.9)
        .expected_set_size(1000)
        .seed(42)
        .build();
    let plan = system.tree().plan();
    println!("BloomSampleTree over [0, {})", plan.namespace);
    println!(
        "  m = {} bits, k = {}, depth = {}, leaf capacity = {}, {} nodes, {:.2} MB",
        plan.m,
        plan.k,
        plan.depth,
        plan.leaf_capacity,
        system.tree().node_count(),
        system.tree().memory_bytes() as f64 / 1e6
    );

    // ------------------------------------------------------------------
    // 2. Store a set. Only the filter survives; the set is forgotten.
    // ------------------------------------------------------------------
    let secret_set: Vec<u64> = (0..1000u64).map(|i| i * 97 + 13).collect();
    let filter = system.store(secret_set.iter().copied());
    println!(
        "\nStored {} elements in a {}-bit filter ({} bits set, fill {:.1}%)",
        secret_set.len(),
        filter.m(),
        filter.count_ones(),
        filter.fill_ratio() * 100.0
    );
    println!(
        "  estimated cardinality from the filter alone: {:.1}",
        filter.estimate_cardinality()
    );

    // ------------------------------------------------------------------
    // 3. Open a query handle and sample from the filter. The handle
    //    captures the filter once; descent state accumulates across
    //    calls, so repeated samples get cheaper.
    // ------------------------------------------------------------------
    let query = system.query(&filter);
    let mut rng = StdRng::seed_from_u64(7);
    print!("\nTen samples drawn without the original set:");
    for _ in 0..10 {
        let s = query.sample(&mut rng).expect("sample");
        print!(" {s}");
    }
    println!();
    let cold = query.take_stats();
    for _ in 0..990 {
        query.sample(&mut rng).expect("sample");
    }
    let warming = query.take_stats();
    for _ in 0..1000 {
        query.sample(&mut rng).expect("sample");
    }
    let warm = query.take_stats();
    println!(
        "  amortization: {} ops for the first 10 samples, {} for the next 990, {} for the 1000 after that",
        cold.total_ops(),
        warming.total_ops(),
        warm.total_ops()
    );

    // ------------------------------------------------------------------
    // 4. Check sample quality: histogram + chi-squared over 130 draws per
    //    element (the paper's Table 5 protocol, corrected sampler).
    // ------------------------------------------------------------------
    let subset: Vec<u64> = secret_set.iter().copied().take(50).collect();
    // A different config on the *same* shared tree: drop to the
    // sampler layer with a persistent memo (no second tree build).
    let view = system.tree().read();
    let sampler = bloomsampletree::BstSampler::with_config(&view, BstConfig::corrected());
    let small = system.store(subset.iter().copied());
    let mut memo = bloomsampletree::QueryMemo::new();
    let mut stats = bloomsampletree::OpStats::new();
    let mut counts = vec![0u64; subset.len()];
    for _ in 0..130 * subset.len() {
        if let Ok(s) = sampler.try_sample_memo(&small, &mut memo, &mut rng, &mut stats) {
            if let Ok(i) = subset.binary_search(&s) {
                counts[i] += 1;
            }
        }
    }
    let mut hist = Histogram::new(0.0, 100_000.0, 10);
    for (i, &c) in counts.iter().enumerate() {
        for _ in 0..c {
            hist.record(subset[i] as f64);
        }
    }
    println!("\nEmpirical distribution of 6500 samples over 50 elements:");
    print!("{}", hist.render(40));
    let chi = chi2_uniform_test(&counts);
    println!(
        "chi-squared: q = {:.1} (dof {}), p = {:.3} -> {}",
        chi.statistic,
        chi.dof,
        chi.p_value,
        if chi.is_uniform_at(0.08) {
            "uniformity NOT rejected (paper's criterion)"
        } else {
            "uniformity rejected"
        }
    );

    // ------------------------------------------------------------------
    // 5. Reconstruct the full set from the filter, through the same
    //    handle that sampled it (the cached leaf matches are reused).
    // ------------------------------------------------------------------
    let rebuilt = query.reconstruct().expect("reconstruct");
    let true_hits = rebuilt
        .iter()
        .filter(|x| secret_set.binary_search(x).is_ok())
        .count();
    println!(
        "\nReconstruction: {} elements returned, {} of {} true elements recovered, {} false positives",
        rebuilt.len(),
        true_hits,
        secret_set.len(),
        rebuilt.len() - true_hits
    );

    // ------------------------------------------------------------------
    // 6. Figure 1: a miniature BloomSampleTree, drawn.
    // ------------------------------------------------------------------
    println!("\nFigure 1 miniature: BloomSampleTree over [0, 16), m = 10 bits, k = 2");
    let mini = BstSystem::builder(16)
        .expected_set_size(2)
        .depth(2)
        .hash_count(2)
        .seed(1)
        .build();
    use bloomsampletree::SampleTree;
    let tree = mini.tree().read();
    for level in 0..=mini.tree().depth() {
        let start = (1usize << level) - 1;
        let mut line = String::new();
        for i in start..start + (1 << level) {
            let r = tree.range(i as u32);
            line.push_str(&format!("[{:>2}..{:>2}) ", r.start, r.end));
        }
        let pad = " ".repeat((mini.tree().depth() - level) as usize * 5);
        println!("  {pad}{line}");
    }
    let s = mini.store([4u64, 6]);
    println!("  query filter for {{4, 6}}: {} bits set", s.count_ones());
    println!(
        "  reconstructed: {:?}",
        mini.query(&s).reconstruct().expect("reconstruct")
    );
}
