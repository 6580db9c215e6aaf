//! Golden captures for the configurations whose estimators read the
//! `t₂` input (the query's popcount): `BstConfig::paper()`, alone and
//! under rejection correction (`Correction::RejectionAuto`), and
//! `BstConfig::corrected()`. The default configuration is pinned by
//! `e2e_layout`.
//!
//! For each configuration, two filter sizings and both backends (pruned
//! and complete tree) the suite pins a windowed reconstruction run
//! first on the cold handle, the live weight, a fixed-seed draw
//! sequence, a fixed-seed `sample_many` draw, the reconstruction length
//! and prefix, and the membership / node / backtrack counts of that
//! exact call sequence. The `paper()` and `corrected()` values were
//! captured before the sampling and reconstruction walks stopped
//! carrying a Bloom filter per node, the `paper()` + `RejectionAuto`
//! values before the carried-intersection option was deleted; any change
//! to the walks must leave every one of them bit-identical. Two fields
//! were re-captured since. The pruned captures' membership count moved
//! when cold full-range walks began filling every leaf from the
//! first-probe index (the windowed walk run first covers no whole leaf,
//! so the live weight after it runs the index pass, which tests other
//! candidates than the per-leaf table scans did). The pruned
//! `corrected()` captures' node count moved (NOISY 88 → 74, LAYOUT
//! 280 → 266) when sound full-range counts and reconstructions stopped
//! walking: they read the leaves' lists, so the live weight and the
//! reconstruction visit no node, and the two depth-2 walks' 7 nodes
//! each are gone. The pruned `corrected()` captures' draws, `sample_many`
//! draws and node counts moved (NOISY 74 → 4, LAYOUT 266 → 4) when sound
//! sampling on pruned trees became exact: a draw is one uniform index
//! into the leaves' lists, so rejection correction no longer applies
//! there, no descent visits a node, and only the windowed walk's 4 nodes
//! remain. The `paper()` walks and every complete-tree capture are
//! unchanged.

use bloomsampletree::core::sampler::Correction;
use bloomsampletree::{BstConfig, BstSystem, HashKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What one configuration is pinned to.
#[derive(Debug, PartialEq)]
struct Capture {
    /// Length of a windowed reconstruction run first, on the cold handle.
    window_len: usize,
    live_weight: u64,
    draws: Vec<u64>,
    many: Vec<u64>,
    recon_len: usize,
    recon_prefix: Vec<u64>,
    /// `(memberships, nodes_visited, backtracks)` of the whole sequence.
    ops: (u64, u64, u64),
}

/// Filter sizing of one capture.
#[derive(Clone, Copy)]
struct Scenario {
    accuracy: f64,
    expected: u64,
}

/// A small `m` (accuracy 0.2 at 300 expected elements against 586
/// stored): chance bits swamp the signal, so every estimator input —
/// `t₂` included — moves the draws. Upper node filters saturate, so the
/// corrected sampler routes through its frontier cache here.
const NOISY: Scenario = Scenario {
    accuracy: 0.2,
    expected: 300,
};

/// The `e2e_layout` golden sizing: unsaturated node filters, so the
/// corrected sampler's proposal walk evaluates children itself.
const LAYOUT: Scenario = Scenario {
    accuracy: 0.9,
    expected: 600,
};

/// Depth of the pruned trees the captures were taken on: the namespace
/// rule at the paper's cost ratio (leaves of at most 1,328 ids). Pruned
/// builds derive their depth from the occupancy, so the captures pin it.
const CAPTURE_DEPTH: u32 = 2;

/// The `e2e_layout` golden scenario at `scenario`'s sizing: namespace
/// 4096, two thirds occupied (pruned backend, depth [`CAPTURE_DEPTH`]) or
/// the complete tree, every seventh id stored, tree seed 99.
fn capture(scenario: Scenario, cfg: BstConfig, pruned: bool) -> Capture {
    let namespace = 4096u64;
    let builder = BstSystem::builder(namespace)
        .expected_set_size(scenario.expected)
        .accuracy(scenario.accuracy)
        .seed(99)
        .config(cfg)
        .hash_kind(HashKind::Murmur3);
    let sys = if pruned {
        builder
            .depth(CAPTURE_DEPTH)
            .pruned((0..namespace).filter(|x| x % 3 != 0))
            .build()
    } else {
        builder.build()
    };
    let f = sys.store((0..namespace).filter(|x| x % 7 == 0));
    let q = sys.query(&f);
    // The windowed walk memoizes liveness above the window only, so the
    // full walks after it start from a partly warm memo.
    let window_len = q.reconstruct_range(1000..1400).unwrap().len();
    let live_weight = q.live_weight().unwrap();
    let mut rng = StdRng::seed_from_u64(4242);
    let draws = (0..16).map(|_| q.sample(&mut rng).unwrap()).collect();
    let mut rng = StdRng::seed_from_u64(77);
    let many = q.sample_many(16, &mut rng).unwrap();
    let recon = q.reconstruct().unwrap();
    let stats = q.stats();
    Capture {
        window_len,
        live_weight,
        draws,
        many,
        recon_len: recon.len(),
        recon_prefix: recon[..8].to_vec(),
        ops: (stats.memberships, stats.nodes_visited, stats.backtracks),
    }
}

/// `BstConfig::paper()`: threshold liveness and Papapetrou ratios with
/// `t₂` = the query's popcount, for both walks.
#[test]
fn paper_outputs_match_capture() {
    let cfg = BstConfig::paper();
    assert_eq!(
        capture(NOISY, cfg, true),
        Capture {
            window_len: 191,
            live_weight: 1080,
            draws: vec![
                1178, 3271, 1345, 3841, 1412, 3658, 3199, 1562, 4003, 3353, 1366, 1840, 1874, 3178,
                1483, 1111
            ],
            many: vec![
                1841, 1327, 1936, 1400, 1229, 1924, 1316, 1666, 1516, 3779, 3379, 3395, 3887, 3521,
                3670, 3932
            ],
            recon_len: 1080,
            recon_prefix: vec![1024, 1027, 1031, 1036, 1037, 1042, 1043, 1045],
            ops: (2754, 66, 0),
        }
    );
    assert_eq!(
        capture(NOISY, cfg, false),
        Capture {
            window_len: 306,
            live_weight: 3230,
            draws: vec![
                736, 311, 3426, 1594, 2136, 4003, 3261, 1838, 1980, 465, 489, 1282, 1350, 2355,
                3557, 3716
            ],
            many: vec![
                657, 1513, 1724, 1334, 1353, 1831, 1481, 2331, 3902, 3301, 3560, 3148, 3971, 3857,
                3687, 3927
            ],
            recon_len: 3230,
            recon_prefix: vec![0, 1, 2, 3, 4, 5, 6, 7],
            ops: (4496, 73, 0),
        }
    );
    assert_eq!(
        capture(LAYOUT, cfg, true),
        Capture {
            window_len: 45,
            live_weight: 440,
            draws: vec![
                707, 301, 3416, 1582, 2156, 3997, 2254, 812, 1967, 448, 476, 245, 1337, 2387, 2569,
                3724
            ],
            many: vec![
                482, 700, 301, 322, 1813, 1459, 1603, 1855, 2875, 2303, 2569, 2128, 2933, 3850,
                3689, 3907
            ],
            recon_len: 440,
            recon_prefix: vec![7, 14, 28, 35, 49, 56, 70, 77],
            ops: (2357, 73, 0),
        }
    );
    assert_eq!(
        capture(LAYOUT, cfg, false),
        Capture {
            window_len: 66,
            live_weight: 656,
            draws: vec![
                713, 308, 3423, 1575, 2149, 3997, 2233, 807, 1967, 448, 476, 252, 1337, 2373, 2555,
                3717
            ],
            many: vec![
                482, 700, 301, 322, 1813, 1464, 1596, 1855, 2875, 2282, 2555, 2128, 2940, 3843,
                3689, 3906
            ],
            recon_len: 656,
            recon_prefix: vec![0, 7, 14, 21, 28, 35, 42, 49],
            ops: (4496, 73, 0),
        }
    );
}

/// `BstConfig::corrected()`: the rejection-corrected proposal walk with
/// the default estimators; reconstruction carries the intersection.
#[test]
fn corrected_outputs_match_capture() {
    let cfg = BstConfig::corrected();
    assert_eq!(
        capture(NOISY, cfg, true),
        Capture {
            window_len: 203,
            live_weight: 2149,
            draws: vec![
                1463, 617, 2882, 770, 211, 1211, 2756, 3080, 1402, 1516, 4037, 2309, 3346, 481,
                368, 2138
            ],
            many: vec![
                1511, 2849, 3673, 890, 128, 2020, 3698, 1054, 2912, 3698, 3785, 530, 233, 661,
                3575, 1246
            ],
            recon_len: 2149,
            recon_prefix: vec![1, 2, 4, 5, 7, 10, 13, 14],
            ops: (2770, 4, 0),
        }
    );
    assert_eq!(
        capture(NOISY, cfg, false),
        Capture {
            window_len: 306,
            live_weight: 3230,
            draws: vec![
                736, 701, 1008, 2136, 3892, 368, 1980, 413, 306, 893, 1593, 3116, 2452, 1764, 1966,
                2416
            ],
            many: vec![
                657, 498, 719, 306, 1353, 1831, 1481, 2331, 2871, 3301, 3560, 3148, 3971, 3857,
                3687, 3927
            ],
            recon_len: 3230,
            recon_prefix: vec![0, 1, 2, 3, 4, 5, 6, 7],
            ops: (4496, 76, 0),
        }
    );
    assert_eq!(
        capture(LAYOUT, cfg, true),
        Capture {
            window_len: 45,
            live_weight: 440,
            draws: vec![
                1456, 622, 2870, 763, 224, 1225, 2737, 3038, 1403, 1498, 4025, 2333, 3311, 476,
                385, 2149
            ],
            many: vec![
                1498, 2828, 3647, 910, 133, 2009, 3682, 1066, 2891, 3682, 3773, 518, 238, 644,
                3563, 1267
            ],
            recon_len: 440,
            recon_prefix: vec![7, 14, 28, 35, 49, 56, 70, 77],
            ops: (2357, 4, 0),
        }
    );
    assert_eq!(
        capture(LAYOUT, cfg, false),
        Capture {
            window_len: 66,
            live_weight: 656,
            draws: vec![
                713, 1967, 406, 3115, 2474, 1750, 1949, 2443, 1736, 2940, 2765, 1232, 665, 3087,
                2030, 2187
            ],
            many: vec![
                482, 700, 301, 322, 1813, 1464, 1596, 1855, 2875, 2282, 2555, 2128, 2940, 3843,
                3689, 3906
            ],
            recon_len: 656,
            recon_prefix: vec![0, 7, 14, 21, 28, 35, 42, 49],
            ops: (4496, 139, 0),
        }
    );
}

/// `BstConfig::paper()` under rejection correction: the proposal walk
/// with threshold liveness and Papapetrou ratios, `t₂` = the query's
/// popcount.
#[test]
fn paper_corrected_outputs_match_capture() {
    let mut cfg = BstConfig::paper();
    cfg.correction = Correction::RejectionAuto;
    assert_eq!(
        capture(NOISY, cfg, true),
        Capture {
            window_len: 191,
            live_weight: 1080,
            draws: vec![
                739, 1006, 2132, 3899, 1978, 412, 301, 896, 3116, 2450, 1772, 1964, 2410, 724,
                1759, 2930
            ],
            many: vec![
                1841, 1327, 1936, 1400, 1229, 1924, 1316, 1666, 1516, 3779, 3379, 3395, 3887, 3521,
                3670, 3932
            ],
            recon_len: 1080,
            recon_prefix: vec![1024, 1027, 1031, 1036, 1037, 1042, 1043, 1045],
            ops: (2754, 81, 0),
        }
    );
    assert_eq!(
        capture(NOISY, cfg, false),
        Capture {
            window_len: 306,
            live_weight: 3230,
            draws: vec![
                736, 701, 1008, 2136, 3892, 368, 1980, 413, 306, 893, 1593, 3116, 2452, 1764, 1966,
                2416
            ],
            many: vec![
                657, 1513, 1724, 1334, 1353, 1831, 1481, 2331, 3902, 3301, 3560, 3148, 3971, 3857,
                3687, 3927
            ],
            recon_len: 3230,
            recon_prefix: vec![0, 1, 2, 3, 4, 5, 6, 7],
            ops: (4496, 76, 0),
        }
    );
    assert_eq!(
        capture(LAYOUT, cfg, true),
        Capture {
            window_len: 45,
            live_weight: 440,
            draws: vec![
                1967, 1421, 2485, 1757, 1736, 2765, 1246, 665, 2198, 364, 1211, 329, 2219, 1484,
                658, 3094
            ],
            many: vec![
                482, 700, 301, 322, 1813, 1459, 1603, 1855, 2875, 2303, 2569, 2128, 2933, 3850,
                3689, 3907
            ],
            recon_len: 440,
            recon_prefix: vec![7, 14, 28, 35, 49, 56, 70, 77],
            ops: (2357, 280, 0),
        }
    );
    assert_eq!(
        capture(LAYOUT, cfg, false),
        Capture {
            window_len: 66,
            live_weight: 656,
            draws: vec![
                713, 1967, 406, 3115, 2474, 1750, 1949, 2443, 1736, 2940, 2765, 1232, 665, 3087,
                2030, 2187
            ],
            many: vec![
                482, 700, 301, 322, 1813, 1464, 1596, 1855, 2875, 2282, 2555, 2128, 2940, 3843,
                3689, 3906
            ],
            recon_len: 656,
            recon_prefix: vec![0, 7, 14, 21, 28, 35, 42, 49],
            ops: (4496, 139, 0),
        }
    );
}
