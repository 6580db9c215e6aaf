//! Criterion benches for the hash families (Figure 7): raw hash cost,
//! membership cost per family, and affine inversion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bst_bloom::filter::BloomFilter;
use bst_bloom::hash::{md5::md5_u64, murmur3::murmur3_u64, BloomHasher, HashKind};
use std::sync::Arc;

fn bench_hashes(c: &mut Criterion) {
    let mut group = c.benchmark_group("raw-hash");
    group.bench_function("murmur3_u64", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(1);
            murmur3_u64(x, 7)
        })
    });
    group.bench_function("md5_u64", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(1);
            md5_u64(x, 7)
        })
    });
    group.finish();

    let mut group = c.benchmark_group("membership");
    for kind in HashKind::ALL {
        let hasher = Arc::new(BloomHasher::new(kind, 3, 60_000, 1 << 20, 1));
        let mut f = BloomFilter::new(Arc::clone(&hasher));
        for x in 0..1000u64 {
            f.insert(x * 7);
        }
        group.bench_with_input(BenchmarkId::new("contains", kind.name()), &f, |b, f| {
            let mut x = 0u64;
            b.iter(|| {
                x = x.wrapping_add(13);
                f.contains(x % (1 << 20))
            })
        });
    }
    group.finish();

    // Bulk-membership loop at a cache-exceeding filter size: the blocked
    // layout touches one 64-byte line per key (one or two masked word
    // loads), the classic layouts k scattered cache lines. The kernel
    // (`for_each_member`) hoists hasher dispatch out of the loop.
    // Memory-resident contains loop: the filter (2^32 bits = 512 MiB)
    // is far larger than the last-level cache, so every probe is a
    // memory access — the regime the blocked layout targets. k = 7 (the
    // high-accuracy end of the planner's range): a classic member test
    // must touch 7 scattered cache lines, a blocked one exactly 1.
    let mut group = c.benchmark_group("contains-loop");
    group.sample_size(20);
    for kind in [HashKind::Murmur3, HashKind::DeltaBlocked] {
        let hasher = Arc::new(BloomHasher::new(kind, 7, 1 << 32, 1 << 30, 1));
        let mut f = BloomFilter::new(Arc::clone(&hasher));
        let members: Vec<u64> = (0..8_000_000u64)
            .map(|x| x.wrapping_mul(0x9E37_79B9) % (1 << 30))
            .collect();
        for &x in &members {
            f.insert(x);
        }
        // Miss-heavy batch: classic short-circuits on the first unset
        // bit (fill ≈ 1.3%), so both layouts pay ~one line per key.
        let misses: Vec<u64> = (0..1_024u64)
            .map(|i| i.wrapping_mul(0x2545_F491) % (1 << 30))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("batch1024-misses", kind.name()),
            &f,
            |b, f| {
                b.iter(|| {
                    let mut found = 0u64;
                    f.for_each_member(misses.iter().copied(), |_| found += 1);
                    found
                })
            },
        );
        // Member-heavy batch: every key probes all k bits — 7 scattered
        // lines for the classic layout, one line for blocked.
        let hits: Vec<u64> = members.iter().copied().step_by(6011).take(1_024).collect();
        group.bench_with_input(
            BenchmarkId::new("batch1024-members", kind.name()),
            &f,
            |b, f| {
                b.iter(|| {
                    let mut found = 0u64;
                    f.for_each_member(hits.iter().copied(), |_| found += 1);
                    found
                })
            },
        );
    }
    group.finish();

    // Leaf scan: the brute-force phase of cold weighing over one pruned
    // leaf's occupied ids, hashing each id (`for_each_member`) against
    // reading its stored probe row (`for_each_member_in_table`). The
    // plan matches the service benchmark's shards (m = 61,865, k = 3);
    // the query is a fresh 200-key filter behind its own `Arc`, as a
    // decoded wire filter is, so the table path pays its equality check.
    let mut group = c.benchmark_group("leaf-scan");
    for kind in [HashKind::Murmur3, HashKind::DeltaBlocked] {
        let hasher = Arc::new(BloomHasher::new(kind, 3, 61_865, 1 << 18, 1));
        let leaf: Vec<u64> = (0..256u64).map(|i| 40_000 + i * 4).collect();
        let mut table = Vec::new();
        for &x in &leaf {
            assert!(hasher.push_probe_row(x, &mut table), "m fits u32");
        }
        let query = BloomFilter::from_keys(
            Arc::new(BloomHasher::clone(&hasher)),
            (0..200u64).map(|i| i.wrapping_mul(0x9E37_79B9) % (1 << 18)),
        );
        group.bench_with_input(
            BenchmarkId::new("hashing-256", kind.name()),
            &query,
            |b, q| {
                b.iter(|| {
                    let mut found = 0u64;
                    q.for_each_member(leaf.iter().copied(), |_| found += 1);
                    found
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("table-256", kind.name()),
            &query,
            |b, q| {
                b.iter(|| {
                    let mut found = 0u64;
                    q.for_each_member_in_table(&hasher, &leaf, &table, |_| found += 1);
                    found
                })
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("inversion");
    let hasher = BloomHasher::new(HashKind::Simple, 3, 60_000, 1 << 20, 1);
    group.bench_function("affine-invert-one-bit", |b| {
        let mut bit = 0usize;
        b.iter(|| {
            bit = (bit + 1) % 60_000;
            hasher.invert(0, bit).expect("invertible").count()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_hashes
}
criterion_main!(benches);
