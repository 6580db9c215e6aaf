//! Property-based tests for the Bloom filter substrate.

use std::sync::Arc;

use bst_bloom::bitvec::BitVec;
use bst_bloom::filter::BloomFilter;
use bst_bloom::hash::{BloomHasher, HashKind};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = HashKind> {
    prop_oneof![
        Just(HashKind::Simple),
        Just(HashKind::Murmur3),
        Just(HashKind::Md5),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- BitVec ----------------

    #[test]
    fn bitvec_set_get_roundtrip(len in 1usize..500, bits in prop::collection::vec(0usize..500, 0..64)) {
        let mut bv = BitVec::new(len);
        let mut reference = std::collections::HashSet::new();
        for &b in &bits {
            let b = b % len;
            bv.set(b);
            reference.insert(b);
        }
        prop_assert_eq!(bv.count_ones(), reference.len());
        for i in 0..len {
            prop_assert_eq!(bv.get(i), reference.contains(&i));
        }
    }

    #[test]
    fn bitvec_iter_ones_matches_get(len in 1usize..300, seed in any::<u64>()) {
        let mut bv = BitVec::new(len);
        let mut state = seed;
        for i in 0..len {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if state & 3 == 0 {
                bv.set(i);
            }
        }
        let from_iter: Vec<usize> = bv.iter_ones().collect();
        let from_get: Vec<usize> = (0..len).filter(|&i| bv.get(i)).collect();
        prop_assert_eq!(from_iter, from_get);
    }

    #[test]
    fn bitvec_zeros_complement_ones(len in 1usize..300, seed in any::<u64>()) {
        let mut bv = BitVec::new(len);
        let mut state = seed;
        for i in 0..len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state & 1 == 0 {
                bv.set(i);
            }
        }
        let ones: Vec<usize> = bv.iter_ones().collect();
        let zeros: Vec<usize> = bv.iter_zeros().collect();
        prop_assert_eq!(ones.len() + zeros.len(), len);
        let mut merged: Vec<usize> = ones.into_iter().chain(zeros).collect();
        merged.sort_unstable();
        prop_assert_eq!(merged, (0..len).collect::<Vec<_>>());
    }

    #[test]
    fn bitvec_select_is_inverse_of_rank(len in 1usize..300, seed in any::<u64>()) {
        let mut bv = BitVec::new(len);
        let mut state = seed | 1;
        for i in 0..len {
            state = state.wrapping_mul(0x9E3779B97F4A7C15);
            if state >> 62 == 0 {
                bv.set(i);
            }
        }
        for (rank, pos) in bv.iter_ones().enumerate() {
            prop_assert_eq!(bv.select_one(rank), Some(pos));
        }
        prop_assert_eq!(bv.select_one(bv.count_ones()), None);
    }

    #[test]
    fn bitvec_demorgan(len in 1usize..256, a_seed in any::<u64>(), b_seed in any::<u64>()) {
        let fill = |seed: u64| {
            let mut bv = BitVec::new(len);
            let mut s = seed | 1;
            for i in 0..len {
                s = s.wrapping_mul(0x2545F4914F6CDD1D);
                if s & 1 == 1 {
                    bv.set(i);
                }
            }
            bv
        };
        let a = fill(a_seed);
        let b = fill(b_seed);
        // !(a | b) == !a & !b
        let mut lhs = a.clone();
        lhs.union_with(&b);
        lhs.negate();
        let mut na = a.clone();
        na.negate();
        let mut nb = b.clone();
        nb.negate();
        let mut rhs = na;
        rhs.intersect_with(&nb);
        prop_assert_eq!(lhs, rhs);
    }

    // ---------------- BloomFilter ----------------

    #[test]
    fn filter_never_false_negative(
        kind in arb_kind(),
        keys in prop::collection::hash_set(0u64..100_000, 1..200),
        m in 512usize..8192,
    ) {
        let mut f = BloomFilter::with_params(kind, 3, m, 100_000, 42);
        for &k in &keys {
            f.insert(k);
        }
        for &k in &keys {
            prop_assert!(f.contains(k), "false negative for {} under {:?}", k, kind);
        }
    }

    #[test]
    fn filter_union_is_bitwise_or(
        kind in arb_kind(),
        a_keys in prop::collection::vec(0u64..50_000, 0..100),
        b_keys in prop::collection::vec(0u64..50_000, 0..100),
    ) {
        let hasher = Arc::new(BloomHasher::new(kind, 3, 4096, 50_000, 7));
        let a = BloomFilter::from_keys(hasher.clone(), a_keys.iter().copied());
        let b = BloomFilter::from_keys(hasher.clone(), b_keys.iter().copied());
        let union = BloomFilter::union(&a, &b);
        let direct = BloomFilter::from_keys(
            hasher,
            a_keys.iter().copied().chain(b_keys.iter().copied()),
        );
        prop_assert_eq!(union.bits(), direct.bits());
    }

    #[test]
    fn filter_intersection_supersets_common_keys(
        common in prop::collection::hash_set(0u64..50_000, 1..50),
        only_a in prop::collection::vec(0u64..50_000, 0..50),
        only_b in prop::collection::vec(0u64..50_000, 0..50),
    ) {
        let hasher = Arc::new(BloomHasher::new(HashKind::Murmur3, 3, 8192, 50_000, 9));
        let a = BloomFilter::from_keys(hasher.clone(), common.iter().copied().chain(only_a.iter().copied()));
        let b = BloomFilter::from_keys(hasher, common.iter().copied().chain(only_b.iter().copied()));
        let i = BloomFilter::intersection(&a, &b);
        for &k in &common {
            prop_assert!(i.contains(k), "intersection lost common key {}", k);
        }
    }

    #[test]
    fn filter_and_count_symmetric(
        a_keys in prop::collection::vec(0u64..10_000, 0..100),
        b_keys in prop::collection::vec(0u64..10_000, 0..100),
    ) {
        let hasher = Arc::new(BloomHasher::new(HashKind::Murmur3, 3, 2048, 10_000, 3));
        let a = BloomFilter::from_keys(hasher.clone(), a_keys.into_iter());
        let b = BloomFilter::from_keys(hasher, b_keys.into_iter());
        prop_assert_eq!(a.and_count(&b), b.and_count(&a));
        prop_assert!(a.and_count(&b) <= a.count_ones().min(b.count_ones()));
    }

    #[test]
    fn codec_roundtrip(
        kind in arb_kind(),
        keys in prop::collection::vec(0u64..20_000, 0..100),
        m in 256usize..4096,
    ) {
        let mut f = BloomFilter::with_params(kind, 3, m, 20_000, 11);
        for &k in &keys {
            f.insert(k);
        }
        let bytes = bst_bloom::codec::encode(&f);
        let back = bst_bloom::codec::decode(&bytes).unwrap();
        prop_assert_eq!(back.bits(), f.bits());
        prop_assert!(back.compatible_with(&f));
    }

    // ---------------- Blocked layout ----------------

    #[test]
    fn blocked_filter_never_false_negative(
        keys in prop::collection::hash_set(0u64..100_000, 1..200),
        k in 1usize..9,
        m in 512usize..8192,
        seed in any::<u64>(),
    ) {
        let mut f = BloomFilter::with_params(HashKind::DeltaBlocked, k, m, 100_000, seed);
        for &key in &keys {
            f.insert(key);
        }
        for &key in &keys {
            prop_assert!(f.contains(key), "blocked false negative for {key} (k={k}, m={m})");
        }
    }

    #[test]
    fn word_kernels_match_per_bit_reference(
        len in 1usize..500,
        a_seed in any::<u64>(),
        b_seed in any::<u64>(),
    ) {
        // Random lengths deliberately include non-word-aligned tails;
        // the word-level kernels must agree with a bit-at-a-time walk.
        let fill = |seed: u64| {
            let mut bv = BitVec::new(len);
            let mut s = seed | 1;
            for i in 0..len {
                s = s.wrapping_mul(0x2545F4914F6CDD1D);
                if s & 1 == 1 {
                    bv.set(i);
                }
            }
            bv
        };
        let a = fill(a_seed);
        let b = fill(b_seed);
        let and_ref = (0..len).filter(|&i| a.get(i) && b.get(i)).count();
        let or_ref = (0..len).filter(|&i| a.get(i) || b.get(i)).count();
        prop_assert_eq!(a.and_count(&b), and_ref);
        prop_assert_eq!(a.or_count(&b), or_ref);
        let mut inter = a.clone();
        inter.intersect_with(&b);
        for i in 0..len {
            prop_assert_eq!(inter.get(i), a.get(i) && b.get(i));
        }
        prop_assert_eq!(inter.count_ones(), and_ref);
    }

    #[test]
    fn and_count_reaches_agrees_with_and_count(
        len in 1usize..5000,
        a_seed in any::<u64>(),
        b_seed in any::<u64>(),
        sparsity in 1u32..12,
    ) {
        // Sparse fills so the threshold is often met late or never,
        // across many 16-word blocks and unaligned tails.
        let fill = |seed: u64| {
            let mut bv = BitVec::new(len);
            let mut s = seed | 1;
            for i in 0..len {
                s = s.wrapping_mul(0x2545F4914F6CDD1D);
                if (s >> 40) & ((1 << sparsity) - 1) == 0 {
                    bv.set(i);
                }
            }
            bv
        };
        let a = fill(a_seed);
        let b = fill(b_seed);
        let count = a.and_count(&b);
        for threshold in [0, 1, 3, count.saturating_sub(1), count, count + 1] {
            prop_assert_eq!(a.and_count_reaches(&b, threshold), count >= threshold);
        }
    }

    // ---------------- Probe-table kernel ----------------

    /// The table kernel answers exactly like hashing the ids, for every
    /// hash family: same matches, same order, same probed count.
    #[test]
    fn table_kernel_equals_hashing_kernel(
        kind in prop_oneof![
            Just(HashKind::Simple),
            Just(HashKind::Murmur3),
            Just(HashKind::Md5),
            Just(HashKind::DeltaBlocked),
        ],
        k in 1usize..8,
        m in 512usize..8192,
        keys in prop::collection::vec(0u64..50_000, 0..150),
        ids in prop::collection::vec(0u64..50_000, 0..300),
        seed in any::<u64>(),
    ) {
        let hasher = Arc::new(BloomHasher::new(kind, k, m, 50_000, seed));
        let f = BloomFilter::from_keys(Arc::clone(&hasher), keys.iter().copied());
        // Probe the stored keys too, so matches are not all false positives.
        let ids: Vec<u64> = ids.iter().chain(&keys).copied().collect();
        let mut table = Vec::new();
        for &x in &ids {
            prop_assert!(hasher.push_probe_row(x, &mut table));
        }
        prop_assert_eq!(table.len(), ids.len() * k);
        let (mut hashed, mut tabled) = (Vec::new(), Vec::new());
        let p_hashed = f.for_each_member(ids.iter().copied(), |x| hashed.push(x));
        let p_tabled = f.for_each_member_in_table(&hasher, &ids, &table, |x| tabled.push(x));
        prop_assert_eq!(&tabled, &hashed);
        prop_assert_eq!(p_tabled, p_hashed);
        // Inserting the stored keys' rows rebuilds the filter bit for bit.
        let mut rebuilt = BloomFilter::new(Arc::clone(&hasher));
        rebuilt.insert_probes(&table[(ids.len() - keys.len()) * k..]);
        prop_assert_eq!(rebuilt.bits(), f.bits());
    }

    /// An equal hasher behind another `Arc` (a decoded query filter's)
    /// still takes the table path; an unequal one falls back to hashing.
    #[test]
    fn table_kernel_path_follows_hasher_equality(
        kind in prop_oneof![
            Just(HashKind::Simple),
            Just(HashKind::Murmur3),
            Just(HashKind::Md5),
            Just(HashKind::DeltaBlocked),
        ],
        seed in any::<u64>(),
    ) {
        let hasher = Arc::new(BloomHasher::new(kind, 3, 4096, 50_000, seed));
        let f = BloomFilter::from_keys(Arc::clone(&hasher), [7u64]);
        let ids: Vec<u64> = (1000..1400).collect();
        let non_member = ids.iter().copied().find(|&x| !f.contains(x));
        prop_assume!(non_member.is_some());
        let non_member = non_member.unwrap_or_default();
        // A doctored table: every row is the stored key's row, so only
        // the table path can report every id as a member.
        let mut row = Vec::new();
        prop_assert!(hasher.push_probe_row(7, &mut row));
        let table: Vec<u32> = row.iter().copied().cycle().take(ids.len() * 3).collect();
        let equal = BloomHasher::clone(&hasher);
        let mut seen = Vec::new();
        let probed = f.for_each_member_in_table(&equal, &ids, &table, |x| seen.push(x));
        prop_assert_eq!(probed, ids.len() as u64);
        prop_assert_eq!(&seen, &ids, "equal hasher must take the table path");
        let other = BloomHasher::new(kind, 3, 4096, 50_000, seed ^ 1);
        let mut fallback = Vec::new();
        f.for_each_member_in_table(&other, &ids, &table, |x| fallback.push(x));
        prop_assert!(!fallback.contains(&non_member), "unequal hasher must hash the ids");
        let mut hashed = Vec::new();
        f.for_each_member(ids.iter().copied(), |x| hashed.push(x));
        prop_assert_eq!(fallback, hashed);
    }

    #[test]
    fn blocked_codec_roundtrip(
        keys in prop::collection::vec(0u64..20_000, 0..100),
        m in 512usize..4096,
        seed in any::<u64>(),
    ) {
        let mut f = BloomFilter::with_params(HashKind::DeltaBlocked, 3, m, 20_000, seed);
        for &k in &keys {
            f.insert(k);
        }
        let bytes = bst_bloom::codec::encode(&f);
        let back = bst_bloom::codec::decode(&bytes).unwrap();
        prop_assert_eq!(back.bits(), f.bits());
        prop_assert!(back.compatible_with(&f));
        prop_assert_eq!(back.hasher().kind(), HashKind::DeltaBlocked);
    }

    #[test]
    fn codec_accepts_only_what_it_writes(
        kind in prop_oneof![arb_kind(), Just(HashKind::DeltaBlocked)],
        keys in prop::collection::vec(0u64..20_000, 0..60),
        m in 512usize..3000,
        seed in any::<u64>(),
        header_pos in 0usize..48,
        any_pos in any::<usize>(),
        edit in 0u64..256,
        appended in 0u64..256,
    ) {
        let mut f = BloomFilter::with_params(kind, 3, m, 20_000, seed);
        for &k in &keys {
            f.insert(k);
        }
        let valid = bst_bloom::codec::encode(&f).to_vec();
        let edited = |pos: usize| {
            let mut v = valid.clone();
            v[pos % valid.len()] = edit as u8;
            v
        };
        let mut longer = valid.clone();
        longer.push(appended as u8);
        prop_assert!(bst_bloom::codec::decode(&valid).is_ok());
        prop_assert!(bst_bloom::codec::decode(&longer).is_err());
        // Every accepted input, edited or not, re-encodes to itself.
        for x in [valid.clone(), edited(header_pos), edited(any_pos), longer] {
            if let Ok(g) = bst_bloom::codec::decode(&x) {
                prop_assert_eq!(bst_bloom::codec::encode(&g).to_vec(), x);
            }
        }
    }

    #[test]
    fn blocked_codec_rejects_mangled_bytes(
        keys in prop::collection::vec(0u64..20_000, 0..50),
        cut in 0usize..4096,
        garbage_byte in 1u64..256,
        garbage_pos in 0usize..4096,
    ) {
        let mut f = BloomFilter::with_params(HashKind::DeltaBlocked, 3, 2048, 20_000, 17);
        for &k in &keys {
            f.insert(k);
        }
        let bytes = bst_bloom::codec::encode(&f).to_vec();

        // Any strict prefix must fail with a typed error, never panic.
        let cut = cut % bytes.len();
        prop_assert!(bst_bloom::codec::decode(&bytes[..cut]).is_err());

        // An oversized word-count claim (header offset 32..40) must be
        // BadLength — and must be rejected *before* any allocation of
        // the claimed size (the L002 bounded-decode contract).
        let mut oversized = bytes.clone();
        oversized[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
        prop_assert_eq!(
            bst_bloom::codec::decode(&oversized).unwrap_err(),
            bst_bloom::codec::CodecError::BadLength
        );

        // A flipped byte either still decodes (payload damage) or fails
        // with a typed error; decoding must never panic or misreport m/k.
        let pos = garbage_pos % bytes.len();
        let mut mangled = bytes.clone();
        mangled[pos] ^= garbage_byte as u8;
        if let Ok(g) = bst_bloom::codec::decode(&mangled) {
            prop_assert_eq!(g.m(), f.m());
        }
    }

    #[test]
    fn affine_inversion_sound_and_complete(
        bit in 0usize..997,
        seed in any::<u64>(),
    ) {
        let hasher = BloomHasher::new(HashKind::Simple, 2, 997, 30_000, seed);
        for i in 0..2 {
            let preimages: Vec<u64> = hasher.invert(i, bit).unwrap().collect();
            // Sound: every preimage hashes to the bit.
            for &x in &preimages {
                prop_assert_eq!(hasher.position(x, i), bit);
                prop_assert!(x < 30_000);
            }
            // Complete (spot-check a stride of the namespace).
            for x in (0..30_000u64).step_by(577) {
                if hasher.position(x, i) == bit {
                    prop_assert!(preimages.contains(&x), "missing preimage {}", x);
                }
            }
        }
    }

    #[test]
    fn estimators_stay_finite(
        m in 64usize..100_000,
        k in 1usize..8,
        t1 in 0usize..100_000,
        t2 in 0usize..100_000,
    ) {
        let t1 = t1 % (m + 1);
        let t2 = t2 % (m + 1);
        let t_and = t1.min(t2) / 2;
        let est = bst_bloom::estimate::intersection_estimate(m, k, t1, t2, t_and);
        prop_assert!(est.is_finite());
        prop_assert!(est >= 0.0);
        let card = bst_bloom::estimate::cardinality_from_ones(m, k, t1);
        prop_assert!(card.is_finite());
        prop_assert!(card >= 0.0);
    }
}
