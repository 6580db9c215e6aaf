//! End-to-end reconstruction: the three methods must agree on the positive
//! set, and the accuracy model must predict the false-positive volume.

use bloomsampletree::core::baselines::{dictionary, hashinvert};
use bloomsampletree::{BstConfig, BstReconstructor, BstSystem, HashKind, OpStats};
use bst_workloads::querysets::{clustered_set, uniform_set};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NAMESPACE: u64 = 100_000;

#[test]
fn three_methods_agree_exactly() {
    let system = BstSystem::builder(NAMESPACE)
        .hash_kind(HashKind::Simple)
        .accuracy(0.9)
        .expected_set_size(1000)
        .seed(20)
        .build();
    let mut rng = StdRng::seed_from_u64(21);
    for keys in [
        uniform_set(&mut rng, NAMESPACE, 800),
        clustered_set(&mut rng, NAMESPACE, 800, 10.0),
    ] {
        let q = system.store(keys.iter().copied());
        let mut s = OpStats::new();
        let bst = BstReconstructor::new(&system.tree().read()).reconstruct(&q, &mut s);
        let hi = hashinvert::hi_reconstruct(&q, &mut s);
        let da = dictionary::da_reconstruct(&q, NAMESPACE, &mut s);
        assert_eq!(bst, da, "sound BST != DictionaryAttack");
        assert_eq!(hi, da, "HashInvert != DictionaryAttack");
    }
}

#[test]
fn false_positive_volume_matches_model() {
    let system = BstSystem::builder(NAMESPACE)
        .accuracy(0.8)
        .expected_set_size(1000)
        .seed(22)
        .build();
    let mut rng = StdRng::seed_from_u64(23);
    let keys = uniform_set(&mut rng, NAMESPACE, 1000);
    let q = system.store(keys.iter().copied());
    let rec = system.query(&q).reconstruct().expect("reconstruct");
    let fp = rec.len() - keys.len();
    // acc = n / (n + fp) should be near the 0.8 target:
    let measured_acc = keys.len() as f64 / rec.len() as f64;
    assert!(
        (measured_acc - 0.8).abs() < 0.08,
        "measured accuracy {measured_acc}, {fp} false positives"
    );
}

#[test]
fn paper_pruning_trades_recall_for_work() {
    let system = BstSystem::builder(NAMESPACE)
        .accuracy(0.9)
        .expected_set_size(1000)
        .seed(24)
        .build();
    let mut rng = StdRng::seed_from_u64(25);
    let keys = uniform_set(&mut rng, NAMESPACE, 1000);
    let q = system.store(keys.iter().copied());

    let mut sound_stats = OpStats::new();
    let sound = BstReconstructor::new(&system.tree().read()).reconstruct(&q, &mut sound_stats);
    let mut paper_stats = OpStats::new();
    let paper = BstReconstructor::with_config(&system.tree().read(), BstConfig::paper())
        .reconstruct(&q, &mut paper_stats);

    // Sound mode recovers everything.
    for k in &keys {
        assert!(sound.binary_search(k).is_ok());
    }
    // Paper mode does no more membership work, and what it returns is a
    // subset of the sound answer.
    assert!(paper_stats.memberships <= sound_stats.memberships);
    for x in &paper {
        assert!(sound.binary_search(x).is_ok());
    }
}

#[test]
fn reconstruction_of_dense_filters_uses_unset_mode() {
    // A deliberately small filter forces density > 1/2 so HashInvert's
    // complement trick engages; the result must still equal the scan.
    let system = BstSystem::builder(20_000)
        .hash_kind(HashKind::Simple)
        .accuracy(0.5)
        .expected_set_size(4000)
        .seed(26)
        .build();
    let mut rng = StdRng::seed_from_u64(27);
    let keys = uniform_set(&mut rng, 20_000, 4000);
    let q = system.store(keys.iter().copied());
    assert!(q.fill_ratio() > 0.5, "fill {:.2}", q.fill_ratio());
    let mut stats = OpStats::new();
    let hi = hashinvert::hi_reconstruct(&q, &mut stats);
    assert_eq!(stats.memberships, 0, "dense mode needs no memberships");
    let da = dictionary::da_reconstruct(&q, 20_000, &mut stats);
    assert_eq!(hi, da);
}

#[test]
fn empty_and_singleton_sets() {
    use bloomsampletree::BstError;
    let system = BstSystem::builder(10_000).seed(28).build();
    let empty = system.store(std::iter::empty());
    assert_eq!(
        system.query(&empty).reconstruct(),
        Err(BstError::EmptyFilter)
    );
    let single = system.store([4321u64]);
    let rec = system.query(&single).reconstruct().expect("reconstruct");
    assert!(rec.binary_search(&4321).is_ok());
}
