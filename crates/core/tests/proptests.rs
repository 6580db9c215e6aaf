//! Property-based tests for the BloomSampleTree core: soundness of
//! sampling and reconstruction under arbitrary sets, agreement between
//! methods, pruned-tree/full-tree equivalence, the stored sets'
//! multiset semantics and codec, and the decoders, which accept only
//! what their encoders write.

use std::collections::BTreeMap;
use std::sync::Arc;

use bst_bloom::filter::BloomFilter;
use bst_bloom::hash::HashKind;
use bst_bloom::params::{leaf_size, TreePlan};
use bst_core::baselines::{dictionary, hashinvert};
use bst_core::error::BstError;
use bst_core::metrics::OpStats;
use bst_core::persistence::{get_config, put_config, PersistError};
use bst_core::pruned::PrunedBloomSampleTree;
use bst_core::reconstruct::BstReconstructor;
use bst_core::sampler::{BstConfig, BstSampler, Correction, Liveness, RatioEstimator};
use bst_core::system::BstSystem;
use bst_core::tree::{BloomSampleTree, SampleTree};
use bst_core::wal::{self, WalRecord};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn plan(namespace: u64, m: usize, depth: u32, kind: HashKind) -> TreePlan {
    TreePlan {
        namespace,
        m,
        k: 3,
        kind,
        seed: 99,
        depth,
        leaf_capacity: leaf_size(namespace, depth),
        target_accuracy: 0.9,
    }
}

/// A store body (the tail of a system snapshot) holding `sets` as
/// `(id, key count, keys)`, written as given.
fn store_body(next_id: u64, sets: &[(u64, u64, &[u64])]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&next_id.to_le_bytes());
    out.extend_from_slice(&(sets.len() as u32).to_le_bytes());
    for &(id, count, keys) in sets {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
        for &x in keys {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
    out
}

/// Decodes `bytes` as a config; whatever the decoder accepts must
/// re-encode to exactly the bytes it consumed.
fn assert_config_reencodes(bytes: &[u8]) {
    let mut input = bytes;
    if let Ok(cfg) = get_config(&mut input) {
        let consumed = bytes.len() - input.len();
        let mut again = bytes::BytesMut::new();
        put_config(&mut again, &cfg);
        assert_eq!(&again[..], &bytes[..consumed], "{cfg:?}");
    }
}

/// A decoder paired with its encoder: the re-encoding of whatever the
/// decoder accepts.
type Reencode = fn(&[u8]) -> Option<Vec<u8>>;

/// Every decoder of this crate with its encoder: the three snapshot
/// layouts, the WAL payload and the checkpoint header.
const DECODERS: [(&str, Reencode); 5] = [
    ("BSTC", |b| {
        BloomSampleTree::from_bytes(b).ok().map(|t| t.to_bytes())
    }),
    ("BSTP", |b| {
        PrunedBloomSampleTree::from_bytes(b)
            .ok()
            .map(|t| t.to_bytes())
    }),
    ("BSTS", |b| {
        BstSystem::from_bytes(b).ok().map(|s| s.to_bytes())
    }),
    ("WAL payload", |b| {
        let record = wal::decode_payload(b)?;
        let mut buf = bytes::BytesMut::new();
        wal::encode_payload(&mut buf, &record).expect("encode");
        Some(buf.to_vec())
    }),
    ("checkpoint", |b| {
        let (covered, snapshot) = wal::decode_checkpoint(b).ok()?;
        Some([&wal::checkpoint_header(covered)[..], snapshot].concat())
    }),
];

/// Feeds `input` to every decoder: none panics, and whatever one accepts
/// re-encodes to exactly `input`.
fn assert_decoders_canonical(input: &[u8]) {
    for (what, reencode) in DECODERS {
        if let Some(again) = reencode(input) {
            assert_eq!(again, input, "{what} accepted bytes it does not write");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A stored set is the multiset of its keys. Through random insert,
    /// remove and absent-remove batches, `get` equals `from_keys` over a
    /// `BTreeMap` model's live keys and every non-empty batch bumps the
    /// generation; a snapshot decodes and re-encodes to the same bytes;
    /// and hostile store bodies are refused typed, never with a panic.
    #[test]
    fn stored_sets_track_a_multiset_model(
        kind in prop_oneof![Just(HashKind::Murmur3), Just(HashKind::DeltaBlocked)],
        initial in prop::collection::vec(0u64..512, 0..60),
        ops in prop::collection::vec((0u8..3, prop::collection::vec(0u64..512, 0..12)), 1..24),
        poke in any::<u64>(),
    ) {
        let namespace = 4096u64;
        let sys = BstSystem::builder(namespace)
            .expected_set_size(100)
            .hash_kind(kind)
            .seed(5)
            .build();
        let hasher = Arc::clone(sys.tree().hasher());
        let projected = |model: &BTreeMap<u64, u32>| {
            BloomFilter::from_keys(Arc::clone(&hasher), model.keys().copied()).bits().clone()
        };
        let mut model = BTreeMap::<u64, u32>::new();
        for &x in &initial {
            *model.entry(x).or_default() += 1;
        }
        let id = sys.create(initial.iter().copied()).expect("create");
        let untouched = sys.create(initial.iter().rev().copied()).expect("create");
        let mut generation = 0u64;
        for (op, batch) in ops {
            let live: Vec<u64> = model.keys().copied().collect();
            let batch: Vec<u64> = match op {
                0 => batch,
                // Removes of held keys (repeats included) or, with
                // nothing held, of anything.
                1 if !live.is_empty() => batch.iter().map(|&i| live[i as usize % live.len()]).collect(),
                // Keys at or above 512 are never inserted.
                _ => batch.iter().map(|&x| 512 + x * 7).collect(),
            };
            let got = if op == 0 {
                for &x in &batch {
                    *model.entry(x).or_default() += 1;
                }
                sys.insert_keys(id, batch.iter().copied())
            } else {
                for &x in &batch {
                    if let Some(copies) = model.get_mut(&x) {
                        *copies -= 1;
                        if *copies == 0 {
                            model.remove(&x);
                        }
                    }
                }
                sys.remove_keys(id, batch.iter().copied())
            };
            generation += u64::from(!batch.is_empty());
            prop_assert_eq!(got, Ok(generation));
            prop_assert_eq!(sys.get(id).expect("get").bits(), &projected(&model));
        }

        let bytes = sys.to_bytes();
        let back = BstSystem::from_bytes(&bytes).expect("decode");
        prop_assert_eq!(back.to_bytes(), bytes.clone());
        prop_assert_eq!(back.get(id).expect("get").bits(), &projected(&model));
        prop_assert_eq!(back.filters().generation(id), Ok(generation));
        prop_assert_eq!(
            back.get(untouched).expect("get").bits(),
            sys.get(untouched).expect("get").bits()
        );

        // The store is the snapshot's tail, and its length is exact.
        let store_len = sys.filters().encoded_len_hint();
        let prefix = &bytes[..bytes.len() - store_len];
        let decode = |body: Vec<u8>| BstSystem::from_bytes(&[prefix, &body[..]].concat()).err();
        let mut keys: Vec<u64> = model.keys().copied().collect();
        let n = keys.len() as u64;
        prop_assert_eq!(decode(store_body(1, &[(0, n, &keys)])), None);
        if keys.len() >= 2 {
            keys.reverse();
            prop_assert_eq!(
                decode(store_body(1, &[(0, n, &keys)])),
                Some(BstError::Persist(PersistError::Corrupt("stored keys descend")))
            );
            keys.reverse();
        }
        keys.push(namespace + poke % 4);
        prop_assert_eq!(
            decode(store_body(1, &[(0, n + 1, &keys)])),
            Some(BstError::Persist(PersistError::Corrupt("stored key outside the namespace")))
        );
        keys.pop();
        for count in [n + 1 + poke % 1000, u64::MAX - poke % 8] {
            prop_assert_eq!(
                decode(store_body(1, &[(0, count, &keys)])),
                Some(BstError::Persist(PersistError::Truncated))
            );
        }
        // Ids ascend strictly, as `put_bytes` writes them.
        let unsorted = Some(BstError::Persist(PersistError::Corrupt(
            "stored ids not strictly ascending",
        )));
        for (next_id, first, second) in [(1, 0, 0), (2, 1, 0)] {
            prop_assert_eq!(
                decode(store_body(next_id, &[(first, n, &keys), (second, n, &keys)])),
                unsorted.clone()
            );
        }
        // Any one byte of the store changed: decoded or refused, no panic.
        let mut body = bytes[bytes.len() - store_len..].to_vec();
        let at = (poke % store_len as u64) as usize;
        body[at] ^= (poke >> 32) as u8 | 1;
        let _ = decode(body);
    }

    /// Every sample is a positive of the query filter, across tree shapes.
    #[test]
    fn samples_are_positives(
        keys in prop::collection::hash_set(0u64..4096, 1..200),
        depth in 1u32..7,
        seed in any::<u64>(),
    ) {
        let tree = BloomSampleTree::build(&plan(4096, 1 << 15, depth, HashKind::Murmur3));
        let mut sorted: Vec<u64> = keys.iter().copied().collect();
        sorted.sort_unstable();
        let q = tree.query_filter(sorted.iter().copied());
        let sampler = BstSampler::new(&tree);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stats = OpStats::new();
        for _ in 0..20 {
            if let Some(s) = sampler.sample(&q, &mut rng, &mut stats) {
                prop_assert!(q.contains(s), "sample {} is not a positive", s);
                prop_assert!(s < 4096, "sample outside namespace");
            }
        }
    }

    /// Sound reconstruction returns exactly the positive set (equal to the
    /// Dictionary Attack scan), for every hash family.
    #[test]
    fn reconstruction_equals_full_scan(
        keys in prop::collection::hash_set(0u64..2048, 1..150),
        kind in prop_oneof![Just(HashKind::Simple), Just(HashKind::Murmur3)],
    ) {
        let tree = BloomSampleTree::build(&plan(2048, 1 << 14, 4, kind));
        let mut sorted: Vec<u64> = keys.iter().copied().collect();
        sorted.sort_unstable();
        let q = tree.query_filter(sorted.iter().copied());
        let mut s1 = OpStats::new();
        let rec = BstReconstructor::new(&tree).reconstruct(&q, &mut s1);
        let mut s2 = OpStats::new();
        let scan = dictionary::da_reconstruct(&q, 2048, &mut s2);
        prop_assert_eq!(rec, scan);
    }

    /// HashInvert reconstruction agrees with the Dictionary Attack in both
    /// density modes.
    #[test]
    fn hashinvert_equals_full_scan(
        keys in prop::collection::hash_set(0u64..8192, 1..300),
        m in 512usize..8192,
    ) {
        let hasher = std::sync::Arc::new(bst_bloom::hash::BloomHasher::new(
            HashKind::Simple, 3, m, 8192, 3,
        ));
        let q = bst_bloom::filter::BloomFilter::from_keys(hasher, keys.iter().copied());
        let mut s1 = OpStats::new();
        let hi = hashinvert::hi_reconstruct(&q, &mut s1);
        let mut s2 = OpStats::new();
        let da = dictionary::da_reconstruct(&q, 8192, &mut s2);
        prop_assert_eq!(hi, da);
    }

    /// The pruned tree over the full namespace's occupied set answers
    /// queries identically to the complete tree restricted to occupied ids.
    #[test]
    fn pruned_matches_full_on_occupied(
        occupied in prop::collection::btree_set(0u64..4096, 10..300),
        member_stride in 1usize..5,
    ) {
        let p = plan(4096, 1 << 15, 5, HashKind::Murmur3);
        let occ: Vec<u64> = occupied.iter().copied().collect();
        let pruned = PrunedBloomSampleTree::build(&p, &occ);
        let full = BloomSampleTree::build(&p);
        let members: Vec<u64> = occ.iter().copied().step_by(member_stride).collect();
        let q = pruned.query_filter(members.iter().copied());
        let mut s1 = OpStats::new();
        let rec_pruned = BstReconstructor::new(&pruned).reconstruct(&q, &mut s1);
        let mut s2 = OpStats::new();
        let rec_full: Vec<u64> = BstReconstructor::new(&full)
            .reconstruct(&q, &mut s2)
            .into_iter()
            .filter(|x| occ.binary_search(x).is_ok())
            .collect();
        prop_assert_eq!(rec_pruned, rec_full);
    }

    /// Dynamic insertion in any order produces the same tree behaviour as a
    /// batch build.
    #[test]
    fn dynamic_equals_batch(
        ids in prop::collection::hash_set(0u64..65_536, 1..150),
    ) {
        let p = plan(65_536, 4096, 6, HashKind::Murmur3);
        let mut sorted: Vec<u64> = ids.iter().copied().collect();
        sorted.sort_unstable();
        let batch = PrunedBloomSampleTree::build(&p, &sorted);
        let mut dynamic = PrunedBloomSampleTree::empty(&p);
        for &id in &ids {
            prop_assert!(dynamic.insert(id));
        }
        prop_assert_eq!(dynamic.occupied_ids(), batch.occupied_ids());
        prop_assert_eq!(dynamic.occupied_count(), batch.occupied_count());
        let q = batch.query_filter(sorted.iter().copied().take(40));
        let mut s1 = OpStats::new();
        let mut s2 = OpStats::new();
        prop_assert_eq!(
            BstReconstructor::new(&batch).reconstruct(&q, &mut s1),
            BstReconstructor::new(&dynamic).reconstruct(&q, &mut s2)
        );
    }

    /// Under arbitrary interleaved `insert`/`remove` sequences, the
    /// occupied count equals a recount from the leaves after every
    /// mutation, every internal filter stays the OR of its children's,
    /// the first-probe index equals one rebuilt from the leaf tables,
    /// and the leaves hold exactly the surviving ids.
    #[test]
    fn maintained_weights_equal_recount(
        initial in prop::collection::btree_set(0u64..4096, 0..120),
        ops in prop::collection::vec((any::<bool>(), 0u64..4096), 1..150),
    ) {
        let p = plan(4096, 2048, 5, HashKind::Murmur3);
        let occ: Vec<u64> = initial.iter().copied().collect();
        let mut tree = PrunedBloomSampleTree::build(&p, &occ);
        prop_assert!(tree.verify_laminar(), "build broke laminarity");
        prop_assert!(tree.verify_index(), "build index drifted");
        let mut live = initial.clone();
        let mut mutations = 0u64;
        for (insert, id) in ops {
            let expected = if insert { live.insert(id) } else { live.remove(&id) };
            let changed = if insert { tree.insert(id) } else { tree.remove(id) };
            prop_assert_eq!(changed, expected);
            mutations += u64::from(changed);
            prop_assert_eq!(tree.occupied_count(), tree.occupied_ids().len() as u64);
            prop_assert!(tree.verify_laminar(), "mutation broke laminarity");
            prop_assert!(tree.verify_index(), "index drifted after mutation");
        }
        prop_assert_eq!(tree.occupied_count(), live.len() as u64);
        prop_assert_eq!(tree.occupied_ids(), live.into_iter().collect::<Vec<u64>>());
        // Every successful mutation bumped the journal version once.
        prop_assert_eq!(tree.version(), mutations);
        let back = PrunedBloomSampleTree::from_bytes(&tree.to_bytes()).expect("decode");
        prop_assert!(back.verify_index(), "decoded index drifted");
    }

    /// The leaf probe tables and the collision census stay exactly what
    /// hashing the occupied ids gives, the first-probe index what
    /// rebuilding it from the tables gives, and every internal filter
    /// stays the OR of its children's, through arbitrary mutation schedules
    /// and a snapshot round trip; windowed reconstructions
    /// (which scan sub-slices of the tables) equal the full
    /// reconstruction cut to the window.
    #[test]
    fn probe_tables_and_census_track_churn_and_snapshots(
        kind in prop_oneof![
            Just(HashKind::Simple),
            Just(HashKind::Murmur3),
            Just(HashKind::DeltaBlocked),
        ],
        initial in prop::collection::btree_set(0u64..4096, 0..200),
        ops in prop::collection::vec((any::<bool>(), 0u64..4096), 1..120),
        members in prop::collection::vec(0u64..4096, 1..80),
        windows in prop::collection::vec((0u64..4200, 0u64..600), 1..6),
    ) {
        // m = 512 makes within-key probe collisions (census members)
        // common for the classic families.
        let p = plan(4096, 512, 5, kind);
        let occ: Vec<u64> = initial.iter().copied().collect();
        let mut tree = PrunedBloomSampleTree::build(&p, &occ);
        let census = |t: &PrunedBloomSampleTree| -> Vec<u64> {
            t.occupied_ids()
                .into_iter()
                .filter(|&x| !t.hasher().probes_distinct_bits(x))
                .collect()
        };
        prop_assert!(tree.verify_probe_tables(), "build tables drifted");
        prop_assert!(tree.verify_laminar(), "build broke laminarity");
        prop_assert!(tree.verify_index(), "build index drifted");
        prop_assert_eq!(tree.colliding_ids(), census(&tree).as_slice());
        for (insert, id) in ops {
            if insert { tree.insert(id); } else { tree.remove(id); }
            prop_assert!(tree.verify_probe_tables(), "tables drifted after mutation");
            prop_assert!(tree.verify_laminar(), "mutation broke laminarity");
            prop_assert!(tree.verify_index(), "index drifted after mutation");
            prop_assert_eq!(tree.colliding_ids(), census(&tree).as_slice());
        }
        let bytes = tree.to_bytes();
        let back = PrunedBloomSampleTree::from_bytes(&bytes).expect("decode");
        prop_assert!(back.verify_probe_tables(), "decoded tables drifted");
        prop_assert!(back.verify_laminar(), "decoded tree is not laminar");
        prop_assert!(back.verify_index(), "decoded index drifted");
        prop_assert_eq!(back.colliding_ids(), census(&tree).as_slice());
        prop_assert_eq!(back.to_bytes(), bytes);
        let q = tree.query_filter(members.iter().copied());
        for t in [&tree, &back] {
            let r = BstReconstructor::new(t);
            let full = r.reconstruct(&q, &mut OpStats::new());
            for &(start, len) in &windows {
                let window = start..start + len;
                let cut: Vec<u64> = full.iter().copied().filter(|x| window.contains(x)).collect();
                prop_assert_eq!(r.reconstruct_range(&q, window, &mut OpStats::new()), cut);
            }
        }
    }

    /// A pruned snapshot is the plan, the version and the ids, and decode
    /// builds over the ids. After churn that creates and empties leaves
    /// (so the mutated arena holds tombstones and a different node order),
    /// the decoded tree keeps every invariant, the ids, census and
    /// version, has the memory of a fresh build, encodes like one but for
    /// the version, and answers seeded draws and reconstructions exactly
    /// like the mutated tree.
    #[test]
    fn decoded_tree_is_the_build_over_its_ids(
        kind in prop_oneof![
            Just(HashKind::Simple),
            Just(HashKind::Murmur3),
            Just(HashKind::DeltaBlocked),
        ],
        initial in prop::collection::btree_set(0u64..4096, 0..200),
        ops in prop::collection::vec((any::<bool>(), 0u64..32, 0u64..6), 1..150),
        emptied in 0u64..32,
        members in prop::collection::vec(0u64..4096, 1..60),
        seed in any::<u64>(),
    ) {
        // 32 leaves of 128 ids. The ops touch six ids per leaf, so leaves
        // appear and vanish; then one whole leaf is emptied. m = 512 makes
        // census members common for the classic families.
        let p = plan(4096, 512, 5, kind);
        let occ: Vec<u64> = initial.iter().copied().collect();
        let mut tree = PrunedBloomSampleTree::build(&p, &occ);
        for (insert, leaf, slot) in ops {
            let id = leaf * 128 + slot * 21;
            if insert { tree.insert(id); } else { tree.remove(id); }
        }
        for id in emptied * 128..(emptied + 1) * 128 {
            tree.remove(id);
        }
        let bytes = tree.to_bytes();
        let back = PrunedBloomSampleTree::from_bytes(&bytes).expect("decode");
        prop_assert!(back.verify_laminar(), "decoded tree is not laminar");
        prop_assert!(back.verify_probe_tables(), "decoded tables drifted");
        prop_assert!(back.verify_index(), "decoded index drifted");
        let ids = tree.occupied_ids();
        prop_assert_eq!(back.occupied_ids(), ids.clone());
        prop_assert_eq!(back.colliding_ids(), tree.colliding_ids());
        prop_assert_eq!(back.version(), tree.version());
        let built = PrunedBloomSampleTree::build(&p, &ids);
        prop_assert_eq!(back.memory_bytes(), built.memory_bytes());
        let fresh = built.to_bytes();
        // Bytes 52..60 hold the version; a fresh build's is 0.
        prop_assert_eq!((&bytes[..52], &bytes[60..]), (&fresh[..52], &fresh[60..]));
        prop_assert_eq!(back.to_bytes(), bytes);
        let q = tree.query_filter(members.iter().copied());
        prop_assert_eq!(
            BstReconstructor::new(&back).reconstruct(&q, &mut OpStats::new()),
            BstReconstructor::new(&tree).reconstruct(&q, &mut OpStats::new())
        );
        let draws = |t: &PrunedBloomSampleTree| -> Vec<Option<u64>> {
            let sampler = BstSampler::new(t);
            let mut rng = StdRng::seed_from_u64(seed);
            (0..40).map(|_| sampler.sample(&q, &mut rng, &mut OpStats::new())).collect()
        };
        prop_assert_eq!(draws(&back), draws(&tree));
    }

    /// Through occupancy that crosses `m` both ways — so the bucket
    /// width moves between one bit and wider — the first-probe index
    /// stays equal to a rebuild from the leaf tables, and its pass gives
    /// every reachable leaf exactly its table scan's matches.
    #[test]
    fn first_probe_index_tracks_width_changes(
        kind in prop_oneof![
            Just(HashKind::Simple),
            Just(HashKind::Murmur3),
            Just(HashKind::DeltaBlocked),
        ],
        initial in prop::collection::btree_set(0u64..1024, 0..160),
        ops in prop::collection::vec((0u8..3, 0u64..1024), 1..120),
        members in prop::collection::vec(0u64..1024, 1..40),
    ) {
        // m = 128 against up to ~280 ids: the width changes often.
        let p = plan(1024, 128, 4, kind);
        let occ: Vec<u64> = initial.iter().copied().collect();
        let mut tree = PrunedBloomSampleTree::build(&p, &occ);
        prop_assert!(tree.verify_index(), "build index drifted");
        let q = tree.query_filter(members.iter().copied());
        for (op, id) in ops {
            // Two inserts to one removal, so occupancy climbs past m.
            if op < 2 { tree.insert(id); } else { tree.remove(id); }
            prop_assert!(tree.verify_index(), "index drifted after mutation");
        }
        let back = PrunedBloomSampleTree::from_bytes(&tree.to_bytes()).expect("decode");
        prop_assert!(back.verify_index(), "decoded index drifted");
        for t in [&tree, &back] {
            let pass = t.index_pass(&q).expect("a pruned tree answers the pass");
            let mut tested = 0u64;
            let mut leaves = 0usize;
            for (leaf, matches) in &pass.leaves {
                let mut scanned = Vec::new();
                tested += t.scan_leaf(*leaf, &q, &t.range(*leaf), |x| scanned.push(x));
                prop_assert_eq!(matches, &scanned);
                leaves += 1;
            }
            prop_assert!(pass.tested <= tested, "the pass tests no more than the scans");
            let all: Vec<u64> = pass.leaves.iter().flat_map(|(_, m)| m.iter().copied()).collect();
            let positives: Vec<u64> = t.occupied_ids().into_iter().filter(|&x| q.contains(x)).collect();
            prop_assert_eq!(all, positives);
            prop_assert_eq!(leaves == 0, t.root().is_none());
        }
    }

    /// A warm `Query` handle repaired through the mutation journal
    /// answers exactly like a cold handle — live weight, reconstruction
    /// and seeded draws — under the default and the paper configs.
    /// Mutations land in bursts of 1–6 between reads, and an echoed
    /// mutation undoes itself within its burst, so leaf-list patches
    /// compose. The small-`m` arm makes collision-census members common.
    #[test]
    fn repaired_live_weight_equals_cold(
        small_m in any::<bool>(),
        kind in prop_oneof![
            Just(HashKind::Simple),
            Just(HashKind::Murmur3),
            Just(HashKind::DeltaBlocked),
        ],
        initial in prop::collection::btree_set(0u64..2048, 1..100),
        member_stride in 1usize..4,
        depth in 0u32..6,
        bursts in prop::collection::vec(
            prop::collection::vec((any::<bool>(), 0u64..2048, any::<bool>()), 1..7),
            1..10,
        ),
        seed in any::<u64>(),
    ) {
        use bst_core::system::{BstConfig, BstSystem};
        for cfg in [BstConfig::default(), BstConfig::paper()] {
            let builder = BstSystem::builder(2048)
                .seed(17)
                .hash_kind(kind)
                .config(cfg)
                .depth(depth);
            // The small-m arm (m = 214) also occupies every 4th id, so
            // about ten occupied ids probe fewer than k distinct bits.
            let (builder, step, dense) = if small_m {
                (builder.expected_set_size(40).accuracy(0.2), member_stride * 53, 4)
            } else {
                (builder.expected_set_size(64), member_stride * 7, 2048)
            };
            let occupied = initial.iter().copied().chain((0..2048).step_by(dense));
            let sys = builder.pruned(occupied).build();
            let members: Vec<u64> = (0..2048u64).step_by(step).collect();
            let filter = sys.store(members.iter().copied());
            let warm = sys.query(&filter);
            // Prime the memo so every mutation exercises the repair path.
            let _ = warm.live_weight();
            for (round, burst) in bursts.iter().enumerate() {
                for &(insert, id, echo) in burst {
                    for op in if echo { vec![insert, !insert] } else { vec![insert] } {
                        if op {
                            sys.insert_occupied(id).unwrap();
                        } else {
                            sys.remove_occupied(id).unwrap();
                        }
                    }
                }
                let cold = sys.query(&filter);
                prop_assert_eq!(warm.live_weight(), cold.live_weight());
                prop_assert_eq!(warm.reconstruct(), cold.reconstruct());
                let draws = seed ^ round as u64;
                let mut rng_warm = StdRng::seed_from_u64(draws);
                let mut rng_cold = StdRng::seed_from_u64(draws);
                for _ in 0..4 {
                    prop_assert_eq!(warm.sample(&mut rng_warm), cold.sample(&mut rng_cold));
                }
                prop_assert_eq!(sys.occupied_count(), sys.occupied_ids().len() as u64);
            }
        }
    }

    /// The one-pass multi-sampler returns only positives and at most r.
    #[test]
    fn sample_many_sound(
        keys in prop::collection::hash_set(0u64..4096, 1..100),
        r in 0usize..64,
        seed in any::<u64>(),
    ) {
        let tree = BloomSampleTree::build(&plan(4096, 1 << 15, 5, HashKind::Murmur3));
        let q = tree.query_filter(keys.iter().copied());
        let sampler = BstSampler::new(&tree);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stats = OpStats::new();
        let out = sampler.sample_many(&q, r, &mut rng, &mut stats);
        prop_assert!(out.len() <= r);
        for s in out {
            prop_assert!(q.contains(s));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The config codec never panics, and accepts only canonical
    /// encodings: on arbitrary bytes, and on a valid encoding with one
    /// byte overwritten, whatever `get_config` accepts re-encodes to the
    /// bytes it consumed.
    #[test]
    fn config_codec_accepts_only_what_it_reencodes(
        noise in prop::collection::vec(0u16..256, 0..28),
        tags in (0u8..2, 0u8..3, 0u8..3),
        values in (0.0f64..16.0, 1.0f64..64.0),
        edit in (0usize..64, 0u16..256),
    ) {
        let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
        assert_config_reencodes(&noise);

        let (liveness, ratio, correction) = tags;
        let (tau, gamma) = values;
        let cfg = BstConfig {
            liveness: [Liveness::BitOverlap, Liveness::EstimateThreshold(tau)][liveness as usize],
            ratio: [
                RatioEstimator::MeanCorrectedBits,
                RatioEstimator::AndCardinality,
                RatioEstimator::Papapetrou,
            ][ratio as usize],
            correction: [
                Correction::None,
                Correction::Rejection { gamma },
                Correction::RejectionAuto,
            ][correction as usize],
        };
        let mut valid = bytes::BytesMut::new();
        put_config(&mut valid, &cfg);
        let mut input: &[u8] = &valid;
        prop_assert_eq!(get_config(&mut input), Ok(cfg));
        prop_assert!(input.is_empty());
        let mut edited = valid.to_vec();
        let (at, byte) = edit;
        edited[at % valid.len()] = byte as u8;
        assert_config_reencodes(&edited);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The snapshot and log decoders accept only what their encoders
    /// write. Each gets arbitrary bytes (bare, and behind each snapshot
    /// magic and the current version), small valid encodings, those with
    /// one byte overwritten (anywhere, in the header and plan, and in the
    /// body after the plan: the ids, the store, the record), and those
    /// with one byte appended: no decoder panics, and an accepted input
    /// re-encodes to exactly its bytes.
    #[test]
    fn decoders_accept_only_what_they_write(
        noise in prop::collection::vec(0u16..256, 0..120),
        shape in (32u64..2048, 128usize..2048, 0u32..12, any::<bool>()),
        dense in any::<bool>(),
        ids in prop::collection::vec(0u64..2048, 0..40),
        record in (0u8..6, any::<u64>(), prop::collection::vec(any::<u64>(), 0..6)),
        edit in (any::<usize>(), 0usize..68, any::<usize>(), 0u16..256),
        appended in 0u16..256,
    ) {
        let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
        assert_decoders_canonical(&noise);
        for magic in [b"BSTC", b"BSTP", b"BSTS"] {
            let mut framed = magic.to_vec();
            framed.push(bst_core::persistence::VERSION);
            framed.extend_from_slice(&noise);
            assert_decoders_canonical(&framed);
        }

        let (namespace, m, depth, blocked) = shape;
        let kind = if blocked { HashKind::DeltaBlocked } else { HashKind::Murmur3 };
        let depth = depth.min(bst_bloom::params::depth_for(namespace, 1));
        let tree_plan = plan(namespace, m, depth, kind);
        let mut ids: Vec<u64> = ids.into_iter().map(|x| x % namespace).collect();
        ids.sort_unstable();
        ids.dedup();
        // Two sets, 0 and 1, below a `next_id` of 256: an edit of set 0's
        // id can put the ids out of order.
        let system = {
            let builder = BstSystem::builder(namespace).expected_set_size(20);
            let sys = if dense {
                builder.build()
            } else {
                builder.pruned(ids.iter().copied()).build()
            };
            sys.create([]).expect("create");
            sys.create(ids.iter().copied()).expect("create");
            for _ in 2..256 {
                sys.drop_set(sys.create([]).expect("create")).expect("drop");
            }
            sys
        };
        let store_len = system.filters().encoded_len_hint();
        let (op, id, keys) = record;
        let record = match op {
            0 => WalRecord::Create { id, keys },
            1 => WalRecord::InsertKeys { id, keys },
            2 => WalRecord::RemoveKeys { id, keys },
            3 => WalRecord::DropSet { id },
            4 => WalRecord::OccInsert { id },
            _ => WalRecord::OccRemove { id },
        };
        let mut payload = bytes::BytesMut::new();
        wal::encode_payload(&mut payload, &record).expect("encode");
        let checkpoint = [&wal::checkpoint_header(id)[..], &noise[..]].concat();

        let (anywhere, in_header, in_tail, byte) = edit;
        for (valid, tail) in [
            (BloomSampleTree::build(&tree_plan).to_bytes(), 52),
            (PrunedBloomSampleTree::build(&tree_plan, &ids).to_bytes(), 8 * ids.len() + 16),
            (system.to_bytes(), store_len),
            (payload.to_vec(), payload.len()),
            (checkpoint, noise.len() + 8),
        ] {
            assert_decoders_canonical(&valid);
            let tail_at = valid.len() - tail + in_tail % tail;
            for at in [anywhere % valid.len(), in_header % valid.len(), tail_at] {
                let mut edited = valid.clone();
                edited[at] = byte as u8;
                assert_decoders_canonical(&edited);
            }
            let mut longer = valid.clone();
            longer.push(appended as u8);
            assert_decoders_canonical(&longer);
        }
    }
}
