//! End-to-end coverage of the mutable filter database: generation-stamped
//! handles re-descend cold after `insert_keys`/`remove_keys`, warm results
//! equal a fresh handle's for the same RNG state on the mutable path, both
//! tree backends serve the identical surface, and a whole-system snapshot
//! restores to a system whose samples and reconstructions match.

use bloomsampletree::{BstConfig, BstError, BstSystem, FilterId, PersistError};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dense_system() -> BstSystem {
    BstSystem::builder(50_000)
        .expected_set_size(400)
        .seed(1234)
        .build()
}

fn pruned_system() -> BstSystem {
    BstSystem::builder(50_000)
        .expected_set_size(400)
        .seed(1234)
        .pruned((0..50_000u64).step_by(4))
        .build()
}

/// Both backends, so every store/handle guarantee is pinned on each.
fn systems() -> [BstSystem; 2] {
    [dense_system(), pruned_system()]
}

#[test]
fn mutate_then_query_invalidates_the_memo() {
    for sys in systems() {
        let id = sys
            .create((0..400u64).map(|i| (i * 112) % 50_000))
            .expect("create");
        let q = sys.query_id(id).expect("open");
        let mut rng = StdRng::seed_from_u64(1);

        // Warm the handle: descent state accumulates.
        q.sample(&mut rng).expect("sample");
        q.reconstruct().expect("reconstruct");
        let warm_evals = q.cached_evals();
        let warm_leaves = q.cached_leaves();
        assert!(warm_evals > 0 && warm_leaves > 0);
        let warm_ops = q.take_stats().total_ops();
        assert!(warm_ops > 0);

        // A fully-warm repeat does no filter work at all.
        q.reconstruct().expect("warm reconstruct");
        assert_eq!(q.take_stats().total_ops(), 0);

        // Mutation bumps the generation and strands the handle's stamp.
        assert_eq!(q.is_stale(), Ok(false));
        sys.insert_keys(id, [49_996u64]).expect("insert");
        assert_eq!(q.is_stale(), Ok(true));

        // The next operation provably re-descends: the memo was discarded
        // (cache counters reset to this op's coverage) and filter work is
        // paid again — never a stale answer.
        let rec = q.reconstruct().expect("post-mutation reconstruct");
        assert!(rec.binary_search(&49_996).is_ok(), "new key visible");
        assert!(
            q.take_stats().total_ops() > 0,
            "stale handle must pay cold-descent filter ops again"
        );
        assert_eq!(q.generation(), 1);
        assert_eq!(q.is_stale(), Ok(false));

        // Removal invalidates again, and the key disappears from answers.
        sys.remove_keys(id, [49_996u64]).expect("remove");
        let rec = q.reconstruct().expect("post-removal reconstruct");
        assert!(rec.binary_search(&49_996).is_err(), "removed key gone");
        assert_eq!(q.generation(), 2);
    }
}

#[test]
fn warm_handle_equals_fresh_cold_handle_across_mutations() {
    // The warm-equals-cold e2e guarantee, extended to the mutable path:
    // after every mutation, a long-lived handle must return exactly what
    // a freshly opened handle returns for the same RNG state.
    for cfg in [
        BstConfig::default(),
        BstConfig::corrected(),
        BstConfig::paper(),
    ] {
        for sys in [
            BstSystem::builder(50_000)
                .expected_set_size(400)
                .seed(77)
                .config(cfg)
                .build(),
            BstSystem::builder(50_000)
                .expected_set_size(400)
                .seed(77)
                .config(cfg)
                .pruned((0..50_000u64).step_by(3))
                .build(),
        ] {
            let id = sys
                .create((0..399u64).map(|i| (i * 125) % 50_000))
                .expect("create");
            let reused = sys.query_id(id).expect("open");
            let mut rng_warm = StdRng::seed_from_u64(9);
            let mut rng_cold = StdRng::seed_from_u64(9);
            for round in 0..8 {
                // Mutate between rounds: joins and leaves.
                sys.insert_keys(id, [(round * 31 + 7) % 50_000])
                    .expect("insert");
                if round % 2 == 0 {
                    sys.remove_keys(id, [(round * 125) % 50_000])
                        .expect("remove");
                }
                for draw in 0..10 {
                    let warm = reused.sample(&mut rng_warm);
                    let cold = sys.query_id(id).expect("open").sample(&mut rng_cold);
                    assert_eq!(warm, cold, "round {round} draw {draw}");
                }
                assert_eq!(
                    reused.reconstruct(),
                    sys.query_id(id).expect("open").reconstruct(),
                    "round {round}"
                );
            }
        }
    }
}

#[test]
fn dropped_sets_fail_typed_everywhere() {
    for sys in systems() {
        let id = sys.create(0..100u64).expect("create");
        let q = sys.query_id(id).expect("open");
        let mut rng = StdRng::seed_from_u64(2);
        q.sample(&mut rng).expect("sample while live");
        sys.drop_set(id).expect("drop");
        assert_eq!(q.sample(&mut rng), Err(BstError::UnknownFilterId(id)));
        assert_eq!(q.reconstruct(), Err(BstError::UnknownFilterId(id)));
        assert_eq!(
            q.sample_many(3, &mut rng),
            Err(BstError::UnknownFilterId(id))
        );
        assert_eq!(sys.query_id(id).err(), Some(BstError::UnknownFilterId(id)));
        assert_eq!(
            sys.insert_keys(id, [1u64]),
            Err(BstError::UnknownFilterId(id))
        );
        // Ids are never reused: creating again yields a fresh id.
        let id2 = sys.create(0..10u64).expect("create");
        assert_ne!(id, id2);
    }
}

#[test]
fn handles_share_mutations_across_threads() {
    let sys = dense_system();
    let id = sys
        .create((0..300u64).map(|i| i * 166 % 50_000))
        .expect("create");
    let writer = {
        let sys = sys.clone();
        std::thread::spawn(move || {
            for i in 0..50u64 {
                sys.insert_keys(id, [(40_000 + i) % 50_000])
                    .expect("insert");
            }
        })
    };
    let readers: Vec<_> = (0..4)
        .map(|t| {
            let sys = sys.clone();
            std::thread::spawn(move || {
                let q = sys.query_id(id).expect("open");
                let mut rng = StdRng::seed_from_u64(300 + t);
                for _ in 0..50 {
                    // Every sample must come from *some* generation's
                    // positives; the filter snapshot pins which one.
                    let snap = q.filter();
                    if let Ok(s) = q.sample(&mut rng) {
                        // The handle may have refreshed between snapshot
                        // and sample; accept either filter's verdict.
                        assert!(snap.contains(s) || q.filter().contains(s));
                    }
                }
            })
        })
        .collect();
    writer.join().expect("writer");
    for r in readers {
        r.join().expect("reader");
    }
    assert_eq!(sys.filters().generation(id), Ok(50));
}

#[test]
fn whole_system_snapshot_roundtrips_end_to_end() {
    for (label, sys) in [("dense", dense_system()), ("pruned", pruned_system())] {
        let a = sys
            .create((0..350u64).map(|i| i * 142 % 50_000))
            .expect("create");
        let b = sys
            .create((0..80u64).map(|i| i * 619 % 50_000))
            .expect("create");
        sys.insert_keys(a, [11u64, 12, 13]).expect("insert");
        sys.remove_keys(b, [0u64]).expect("remove");

        let bytes = sys.to_bytes();
        let restored = BstSystem::from_bytes(&bytes).expect("restore");

        // Same ids, same generations, same filter projections.
        assert_eq!(restored.filters().ids(), sys.filters().ids(), "{label}");
        for id in sys.filters().ids() {
            assert_eq!(
                restored.filters().generation(id),
                sys.filters().generation(id),
                "{label} {id}"
            );
            assert_eq!(
                restored.get(id).expect("get").bits(),
                sys.get(id).expect("get").bits(),
                "{label} {id}"
            );
        }

        // Same samples for the same RNG state; same reconstructions.
        for id in [a, b] {
            let q_orig = sys.query_id(id).expect("open");
            let q_rest = restored.query_id(id).expect("open");
            let mut r1 = StdRng::seed_from_u64(17);
            let mut r2 = StdRng::seed_from_u64(17);
            for _ in 0..25 {
                assert_eq!(q_orig.sample(&mut r1), q_rest.sample(&mut r2), "{label}");
            }
            assert_eq!(q_orig.reconstruct(), q_rest.reconstruct(), "{label}");
        }

        // The restored store stays mutable and stamps keep advancing.
        restored.insert_keys(a, [77u64]).expect("insert");
        assert_eq!(
            restored.filters().generation(a).expect("gen"),
            sys.filters().generation(a).expect("gen") + 1,
            "{label}"
        );
    }
}

#[test]
fn snapshot_rejects_corruption_with_one_error_type() {
    let sys = dense_system();
    sys.create(0..50u64).expect("create");
    let bytes = sys.to_bytes();
    // All decode failures surface as BstError::Persist — one taxonomy.
    let failures = [
        BstSystem::from_bytes(&[]).unwrap_err(),
        BstSystem::from_bytes(&bytes[..20]).unwrap_err(),
        {
            let mut v = bytes.clone();
            v[0] = b'Z';
            BstSystem::from_bytes(&v).unwrap_err()
        },
        {
            let mut v = bytes.clone();
            v[4] = 99; // version byte
            BstSystem::from_bytes(&v).unwrap_err()
        },
    ];
    for e in failures {
        assert!(
            matches!(e, BstError::Persist(_)),
            "expected Persist variant, got {e:?}"
        );
    }
    assert_eq!(
        BstSystem::from_bytes(&bytes[..20]).err(),
        Some(BstError::Persist(PersistError::Truncated))
    );
}

#[test]
fn filter_id_raw_roundtrip_for_wire_use() {
    let sys = dense_system();
    let id = sys.create(0..10u64).expect("create");
    // Service layers ship ids as integers; the raw value round-trips.
    let wire = id.raw();
    let back = FilterId::from_raw(wire);
    assert_eq!(back, id);
    assert!(sys.get(back).is_ok());
}
