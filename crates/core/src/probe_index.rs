//! The first-probe index of a pruned tree's occupied ids, and its pass.
//!
//! A leaf's probe table answers "which of *these* ids does the query
//! hold?" by testing every id. A full-range walk asks that of every
//! materialised leaf, and at the service engine the leaves barely prune,
//! so a cold walk tested every occupied id. The index inverts the tables
//! on the first probe instead, the access pattern of the paper's
//! HashInvert (§4) for any hash family: an id whose first probe is unset
//! in the query cannot be a member, so one pass over the query's set
//! bits visits only the ids whose first probe the query sets — about
//! `fill × occupied` candidates instead of all occupied ids — and tests
//! each on its remaining probes.
//!
//! Layout: a CSR over **buckets** of bit positions. Bucket `b` covers the
//! positions `[b << shift, (b + 1) << shift)` and lists the occupied ids
//! whose first probe lands in it, ascending, each with its stored probes.
//! Buckets are one bit wide (`shift = 0`) whenever the occupied ids
//! outnumber `m`; otherwise the width is the narrowest power of two that
//! keeps the bucket count at most the id count ([`shift_for`]), so the
//! offsets never outnumber the ids. A one-bit bucket proves its
//! entries' first probe set, so it stores only the other `k − 1` probes;
//! a wider bucket stores all `k`. The offsets are `u32`, so an index
//! holds fewer than 2³² ids.
//!
//! The entries are two parallel arrays laid out for the pass: the
//! stored probes, which the pass reads for every tested entry, and the
//! ids, which it reads only for a hit (under 8% of the tested entries in
//! the service engine's 1,000-key reconstructions). The probes are `u16` when the plan's `m ≤ 2^16` and
//! `u32` otherwise, so at the service engine (m = 61,865, k = 3) a tested
//! entry is a 4-byte read.
//!
//! ## One pass, one filter or a chunk of them
//!
//! The pass ([`FirstProbeIndex::pass`]) is one kernel, generic over its
//! query side ([`PassQuery`]). A single filter's bits are the one-filter
//! case. A [`QueryChunk`] of up to 16 filters of the plan is the other,
//! stored bit-sliced after Bloofi (Crainiceanu & Lemire): one `u16` slice
//! per bit position, bit `f` set when filter `f` sets it, plus the
//! chunk's union. The pass walks the union's set positions once. A
//! bucket's mask, the filters that visit it, is the OR of its positions'
//! slices; an entry's mask, the filters that hold it, is the bucket's
//! mask ANDed with its stored probes' slices. Each hit goes to every
//! filter in its mask, and each bucket's size to the tested count of
//! every filter in the bucket's mask, so every filter's hits (in order)
//! and tested count equal those of its own pass. A chunk of one filter
//! builds no table and runs the one-filter case. The walk, not the
//! tested entries, is what a chunk shares: 16 sparse filters' own passes
//! test about as many entries, but sweep the index 16 times.
//!
//! The content is a pure function of the occupied ids, so an index kept
//! in step by [`FirstProbeIndex::insert`]/[`FirstProbeIndex::remove`]
//! equals one rebuilt from the leaf tables ([`FirstProbeIndex::build`]),
//! field for field.

use std::ops::{BitAnd, BitOr};
use std::sync::Arc;

use bst_bloom::bitvec::BitVec;
use bst_bloom::filter::BloomFilter;
use bst_bloom::hash::BloomHasher;

/// The bucket shift for `m` bit positions and `occupied` ids: 0 when the
/// ids outnumber `m` (or equal it), else the smallest shift whose bucket
/// count `⌈m / 2^shift⌉` is at most `max(occupied, 1)`.
pub(crate) fn shift_for(m: usize, occupied: usize) -> u32 {
    let limit = occupied.max(1) as u64;
    let m = m as u64;
    let mut shift = 0u32;
    while m.div_ceil(1u64 << shift) > limit {
        shift += 1;
    }
    shift
}

/// A stored probe: a bit position below the indexed `m`.
trait Probe: Copy {
    /// Stores position `q`, which must fit the width.
    fn from_position(q: u32) -> Self;
    /// The stored position.
    fn position(self) -> usize;
}

impl Probe for u16 {
    fn from_position(q: u32) -> Self {
        assert!(q <= u32::from(u16::MAX), "narrow probes need m ≤ 2^16");
        q as u16
    }

    fn position(self) -> usize {
        usize::from(self)
    }
}

impl Probe for u32 {
    fn from_position(q: u32) -> Self {
        q
    }

    fn position(self) -> usize {
        self as usize
    }
}

/// Every entry's stored probes, in entry order: `u16`s when every
/// position of the plan fits (`m ≤ 2^16`), `u32`s otherwise.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Probes {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

impl Default for Probes {
    fn default() -> Self {
        Probes::Narrow(Vec::new())
    }
}

/// Inserts `row` into `probes` before position `at`.
fn splice_in<P: Probe>(probes: &mut Vec<P>, at: usize, row: &[u32]) {
    probes.splice(at..at, row.iter().map(|&q| P::from_position(q)));
}

impl Probes {
    /// `probes`, all below `m`, as narrow as `m` allows.
    fn new(m: usize, probes: Vec<u32>) -> Self {
        if m <= 1 << 16 {
            Probes::Narrow(probes.into_iter().map(u16::from_position).collect())
        } else {
            Probes::Wide(probes)
        }
    }

    /// Inserts `row` before position `at`.
    fn insert(&mut self, at: usize, row: &[u32]) {
        match self {
            Probes::Narrow(p) => splice_in(p, at, row),
            Probes::Wide(p) => splice_in(p, at, row),
        }
    }

    /// Drops the probes at `range`.
    fn remove(&mut self, range: std::ops::Range<usize>) {
        match self {
            Probes::Narrow(p) => {
                p.drain(range);
            }
            Probes::Wide(p) => {
                p.drain(range);
            }
        }
    }

    /// Bytes of the stored probes.
    fn heap_bytes(&self) -> usize {
        match self {
            Probes::Narrow(p) => std::mem::size_of_val(p.as_slice()),
            Probes::Wide(p) => std::mem::size_of_val(p.as_slice()),
        }
    }
}

/// A set of filters of a pass's query side, one bit per filter.
pub(crate) trait Mask:
    Copy + PartialEq + BitAnd<Output = Self> + BitOr<Output = Self>
{
    /// No filter.
    const NONE: Self;
}

impl Mask for bool {
    const NONE: Self = false;
}

impl Mask for u16 {
    const NONE: Self = 0;
}

/// Calls `f` with every filter in a chunk's `mask`, ascending.
fn for_each_filter(mask: u16, mut f: impl FnMut(usize)) {
    let mut rest = mask;
    while rest != 0 {
        f(rest.trailing_zeros() as usize);
        rest &= rest - 1;
    }
}

/// The query side of the index pass: the filters whose set bits it walks
/// (see the module docs).
pub(crate) trait PassQuery {
    /// One bit per filter.
    type Mask: Mask;
    /// The positions any filter sets, ascending, each with the filters
    /// that set it.
    fn ones(&self) -> impl Iterator<Item = (usize, Self::Mask)> + '_;
    /// The filters that set position `p`.
    fn at(&self, p: usize) -> Self::Mask;
    /// The filters that set a position in `p..end` (clipped to `m`),
    /// given `set`, those that set `p`.
    fn gather(&self, p: usize, set: Self::Mask, end: usize) -> Self::Mask;
}

/// One filter's bits: the one-filter case.
impl PassQuery for BitVec {
    type Mask = bool;

    fn ones(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        self.iter_ones().map(|p| (p, true))
    }

    fn at(&self, p: usize) -> bool {
        self.get(p)
    }

    fn gather(&self, _: usize, set: bool, _: usize) -> bool {
        set
    }
}

/// Up to 16 filters, bit-sliced: `slices[p]` has bit `f` set when filter
/// `f` sets position `p`; `union` is every filter's bits ORed.
#[derive(Debug)]
pub(crate) struct SliceTable {
    filters: usize,
    slices: Vec<u16>,
    union: BitVec,
}

impl SliceTable {
    /// Number of filters.
    fn filters(&self) -> usize {
        self.filters
    }

    fn new(filters: &[&BloomFilter]) -> Self {
        let m = filters[0].m();
        let mut table = SliceTable {
            filters: filters.len(),
            slices: vec![0; m],
            union: BitVec::new(m),
        };
        for (f, filter) in filters.iter().enumerate() {
            for p in filter.bits().iter_ones() {
                table.slices[p] |= 1 << f;
            }
            table.union.union_with(filter.bits());
        }
        table
    }
}

impl PassQuery for SliceTable {
    type Mask = u16;

    fn ones(&self) -> impl Iterator<Item = (usize, u16)> + '_ {
        self.union.iter_ones().map(|p| (p, self.slices[p]))
    }

    fn at(&self, p: usize) -> u16 {
        self.slices[p]
    }

    fn gather(&self, p: usize, set: u16, end: usize) -> u16 {
        let rest = &self.slices[p + 1..end.min(self.slices.len())];
        rest.iter().fold(set, |m, &s| m | s)
    }
}

/// Up to [`QueryChunk::WIDTH`] query filters of one plan, weighed by one
/// index pass per tree ([`crate::tree::SampleTree::index_passes`]). More
/// than one filter are stored bit-sliced (see the module docs); the table
/// depends on the filters alone, so every tree of the plan — every shard
/// of a sharded engine — reads the same chunk.
#[derive(Debug)]
pub struct QueryChunk<'a> {
    filters: Vec<&'a BloomFilter>,
    /// `None` for a chunk of one filter, whose pass reads its bits.
    table: Option<SliceTable>,
}

impl<'a> QueryChunk<'a> {
    /// The most filters a chunk holds.
    pub const WIDTH: usize = 16;

    /// A chunk of `filters`: 1 to [`Self::WIDTH`] of them, sharing `m` and
    /// hash family.
    pub fn new(filters: &[&'a BloomFilter]) -> Self {
        assert!(
            (1..=Self::WIDTH).contains(&filters.len()),
            "a chunk holds 1 to 16 filters"
        );
        assert!(
            filters.iter().all(|f| f.compatible_with(filters[0])),
            "a chunk's filters share m and hash family"
        );
        QueryChunk {
            filters: filters.to_vec(),
            table: (filters.len() > 1).then(|| SliceTable::new(filters)),
        }
    }

    /// The filters, in chunk order.
    pub(crate) fn filters(&self) -> &[&'a BloomFilter] {
        &self.filters
    }

    /// The filters' shared hash family.
    pub(crate) fn hasher(&self) -> &Arc<BloomHasher> {
        self.filters[0].hasher()
    }

    /// The bit-sliced table, or `None` for a chunk of one filter.
    pub(crate) fn table(&self) -> Option<&SliceTable> {
        self.table.as_ref()
    }
}

/// The first-probe index (see the module docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct FirstProbeIndex {
    /// Probes per id of the tree's hash family.
    k: usize,
    /// Bucket `b` covers the bit positions `[b << shift, (b + 1) << shift)`.
    shift: u32,
    /// CSR offsets, one more than there are buckets: bucket `b`'s
    /// entries are `offsets[b]..offsets[b + 1]`.
    offsets: Vec<u32>,
    /// Entry `e`'s stored probes are `probes[e × s..(e + 1) × s]`, with
    /// `s` = [`Self::stored`]: the row without its first probe for
    /// one-bit buckets, the whole row otherwise.
    probes: Probes,
    /// Entry `e`'s id, ascending within a bucket.
    ids: Vec<u64>,
}

impl FirstProbeIndex {
    /// Builds the index over `leaves`, each a leaf's sorted ids and their
    /// probe table (`k` positions per id, all below `m`), in ascending
    /// id order across leaves.
    pub(crate) fn build(m: usize, k: usize, leaves: &[(&[u64], &[u32])]) -> Self {
        let occupied: usize = leaves.iter().map(|(ids, _)| ids.len()).sum();
        assert!(
            u32::try_from(occupied).is_ok_and(|n| n < u32::MAX),
            "the first-probe index holds fewer than 2^32 ids"
        );
        let shift = shift_for(m, occupied);
        let buckets = (m as u64).div_ceil(1u64 << shift) as usize;
        let mut index = FirstProbeIndex {
            k,
            shift,
            offsets: vec![0; buckets + 1],
            probes: Probes::default(),
            ids: vec![0; occupied],
        };
        let (skip, stored) = (index.skip(), index.stored());
        let mut probes = vec![0; occupied * stored];
        let rows = || {
            leaves
                .iter()
                .flat_map(|(ids, probes)| ids.iter().zip(probes.chunks_exact(k)))
        };
        // Counting sort on the bucket: count, prefix-sum, scatter. Ids
        // arrive ascending, so each bucket's entries stay ascending.
        for (_, row) in rows() {
            let b = index.bucket(row);
            index.offsets[b + 1] += 1;
        }
        for b in 0..buckets {
            index.offsets[b + 1] += index.offsets[b];
        }
        let mut next: Vec<u32> = index.offsets[..buckets].to_vec();
        for (&id, row) in rows() {
            let b = index.bucket(row);
            let at = next[b] as usize;
            next[b] += 1;
            index.ids[at] = id;
            probes[at * stored..(at + 1) * stored].copy_from_slice(&row[skip..]);
        }
        index.probes = Probes::new(m, probes);
        index
    }

    /// The bucket shift (see [`shift_for`]).
    pub(crate) fn shift(&self) -> u32 {
        self.shift
    }

    /// Leading probes a bucket proves set: the first when buckets are
    /// one bit wide, none otherwise.
    fn skip(&self) -> usize {
        usize::from(self.shift == 0)
    }

    /// Probes stored per entry.
    fn stored(&self) -> usize {
        self.k - self.skip()
    }

    /// The bucket of a probe row's first probe.
    fn bucket(&self, row: &[u32]) -> usize {
        // The shift reaches 32 for m > 2^31 and one id: shift the
        // position as a usize.
        row[0] as usize >> self.shift
    }

    /// Where `id` sits, or would sit, in its bucket: `Ok` at an entry
    /// holding it, `Err` at the insertion point.
    fn locate(&self, id: u64, row: &[u32]) -> (usize, Result<usize, usize>) {
        let b = self.bucket(row);
        let (lo, hi) = (self.offsets[b] as usize, self.offsets[b + 1] as usize);
        let found = self.ids[lo..hi].binary_search(&id);
        (b, found.map(|i| lo + i).map_err(|i| lo + i))
    }

    /// Adds a newly occupied id with its probe row; the caller keeps the
    /// bucket shift valid ([`shift_for`]) and rebuilds when it moves.
    pub(crate) fn insert(&mut self, id: u64, row: &[u32]) {
        let (b, found) = self.locate(id, row);
        debug_assert!(found.is_err(), "id {id} already indexed");
        let Err(at) = found else { return };
        self.ids.insert(at, id);
        self.probes.insert(at * self.stored(), &row[self.skip()..]);
        for offset in &mut self.offsets[b + 1..] {
            *offset += 1;
        }
    }

    /// Drops an id that is no longer occupied (the inverse of
    /// [`Self::insert`]).
    pub(crate) fn remove(&mut self, id: u64, row: &[u32]) {
        let (b, found) = self.locate(id, row);
        debug_assert!(found.is_ok(), "id {id} not indexed");
        let Ok(at) = found else { return };
        let stored = self.stored();
        self.ids.remove(at);
        self.probes.remove(at * stored..(at + 1) * stored);
        for offset in &mut self.offsets[b + 1..] {
            *offset -= 1;
        }
    }

    /// The index pass (see the module docs) for one filter's bits: its
    /// hits, bucket by bucket, and its count of tested entries. `bits`
    /// must span the indexed `m` positions.
    pub(crate) fn pass(&self, bits: &BitVec) -> (Vec<u64>, u64) {
        let mut hits = Vec::new();
        let mut tested = 0;
        let bucket = |_, size| tested += size;
        let hit = |_, id| hits.push(id);
        match &self.probes {
            Probes::Narrow(probes) => self.scan(probes, bits, bucket, hit),
            Probes::Wide(probes) => self.scan(probes, bits, bucket, hit),
        }
        (hits, tested)
    }

    /// [`Self::pass`] for every filter of a chunk's table at once: each
    /// filter's hits and tested count, in chunk order, equal to those of
    /// its own pass.
    pub(crate) fn chunk_pass(&self, table: &SliceTable) -> (Vec<Vec<u64>>, Vec<u64>) {
        let mut hits = vec![Vec::new(); table.filters()];
        let mut tested = vec![0; table.filters()];
        let bucket = |seen, size| for_each_filter(seen, |f| tested[f] += size);
        let hit = |holds, id| for_each_filter(holds, |f| hits[f].push(id));
        match &self.probes {
            Probes::Narrow(probes) => self.scan(probes, table, bucket, hit),
            Probes::Wide(probes) => self.scan(probes, table, bucket, hit),
        }
        (hits, tested)
    }

    /// The pass over the probes at their width, for any query side: calls
    /// `bucket` with each visited bucket's mask and size, and `hit` with
    /// each hit's mask and id. A tested entry reads only its stored
    /// probes; its id is read on a hit.
    fn scan<P: Probe, Q: PassQuery>(
        &self,
        probes: &[P],
        query: &Q,
        mut bucket: impl FnMut(Q::Mask, u64),
        mut hit: impl FnMut(Q::Mask, u64),
    ) {
        let stored = self.stored();
        let mut last = usize::MAX;
        for (p, set) in query.ones() {
            let b = p >> self.shift;
            if b == last {
                continue; // a wide bucket holding several set positions
            }
            last = b;
            let (lo, hi) = (self.offsets[b] as usize, self.offsets[b + 1] as usize);
            // The filters that visit the bucket: those that set one of
            // its positions.
            let seen = match self.shift {
                0 => set,
                _ => query.gather(p, set, (b + 1) << self.shift),
            };
            bucket(seen, (hi - lo) as u64);
            'entries: for at in lo..hi {
                let mut holds = seen;
                for q in &probes[at * stored..(at + 1) * stored] {
                    holds = holds & query.at(q.position());
                    if holds == Q::Mask::NONE {
                        continue 'entries;
                    }
                }
                hit(holds, self.ids[at]);
            }
        }
    }

    /// Heap bytes: `4` per offset plus, per id, `8` and its stored
    /// probes at `2` bytes each when `m ≤ 2^16`, `4` otherwise.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.offsets.as_slice())
            + std::mem::size_of_val(self.ids.as_slice())
            + self.probes.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bst_bloom::hash::HashKind;

    #[test]
    fn shift_keeps_offsets_within_the_ids() {
        assert_eq!(shift_for(61_865, 65_536), 0, "ids outnumber m");
        assert_eq!(shift_for(61_865, 61_865), 0);
        assert_eq!(shift_for(61_865, 61_864), 1);
        assert_eq!(shift_for(32_768, 650), 6, "512 buckets for 650 ids");
        assert_eq!(shift_for(512, 0), 9, "an empty index keeps one bucket");
        for (m, n) in [(1usize, 0usize), (100, 7), (4096, 4095), (1 << 20, 3)] {
            let s = shift_for(m, n);
            assert!((m as u64).div_ceil(1 << s) <= n.max(1) as u64);
            if s > 0 {
                assert!((m as u64).div_ceil(1 << (s - 1)) > n.max(1) as u64);
            }
        }
    }

    #[test]
    fn one_id_over_more_than_2_pow_31_bits_is_one_bucket() {
        // The shift is 32 here, past the width of a u32 position.
        let row = [u32::MAX, 5];
        let index = FirstProbeIndex::build(1 << 32, 2, &[(&[7][..], &row[..])]);
        assert_eq!(index.shift(), 32);
        assert_eq!(index.offsets, [0, 1]);
        assert_eq!(index.ids, [7]);
    }

    #[test]
    fn insert_and_remove_equal_a_rebuild() {
        // Rows over m = 16 with k = 2; ids 1..=6 in one "leaf".
        let rows: [(u64, [u32; 2]); 6] = [
            (1, [3, 9]),
            (2, [3, 3]),
            (3, [0, 15]),
            (4, [15, 1]),
            (5, [3, 7]),
            (6, [8, 8]),
        ];
        let table = |ids: &[u64]| -> Vec<u32> {
            ids.iter().flat_map(|id| rows[*id as usize - 1].1).collect()
        };
        let all: Vec<u64> = (1..=6).collect();
        let full = FirstProbeIndex::build(16, 2, &[(&all, &table(&all))]);
        assert_eq!(full.shift(), 2, "6 ids over 16 bits: 4 buckets of 4");
        let fewer: Vec<u64> = vec![1, 3, 4, 6];
        let mut kept = full.clone();
        kept.remove(5, &rows[4].1);
        kept.remove(2, &rows[1].1);
        let rebuilt = FirstProbeIndex::build(16, 2, &[(&fewer, &table(&fewer))]);
        // Same shift at 4 ids (4 buckets), so the kept index must match.
        assert_eq!(kept, rebuilt);
        kept.insert(2, &rows[1].1);
        kept.insert(5, &rows[4].1);
        assert_eq!(kept, full);
        assert_eq!(full.heap_bytes(), 5 * 4 + 6 * 8 + 6 * 2 * 2);
    }

    #[test]
    fn pass_equals_the_table_test() {
        let m = 64;
        let rows: Vec<(u64, [u32; 3])> = (0..100u64)
            .map(|x| {
                let p = |s: u64| ((x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> s) % m) as u32;
                (x, [p(7), p(23), p(41)])
            })
            .collect();
        let ids: Vec<u64> = rows.iter().map(|(x, _)| *x).collect();
        let table: Vec<u32> = rows.iter().flat_map(|(_, r)| *r).collect();
        let index = FirstProbeIndex::build(m as usize, 3, &[(&ids, &table)]);
        assert_eq!(index.shift(), 0, "100 ids outnumber 64 bits");
        let mut bits = BitVec::new(m as usize);
        for p in [1usize, 5, 9, 17, 30, 31, 44, 60, 63] {
            bits.set(p);
        }
        let expect: Vec<u64> = rows
            .iter()
            .filter(|(_, r)| r.iter().all(|&p| bits.get(p as usize)))
            .map(|(x, _)| *x)
            .collect();
        let (mut got, tested) = index.pass(&bits);
        got.sort_unstable();
        assert_eq!(got, expect);
        let first_set = rows.iter().filter(|(_, r)| bits.get(r[0] as usize));
        assert_eq!(tested, first_set.count() as u64);
    }

    /// The SplitMix64 finaliser.
    fn mix(v: u64) -> u64 {
        let v = (v ^ v >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let v = (v ^ v >> 27).wrapping_mul(0x94D0_49BB_1331_11EB);
        v ^ v >> 31
    }

    /// `n` ids (every third number) with pseudo-random rows of `k`
    /// probes over `m` bits; every 61st id has its first probe at
    /// `m − 1`, and every 67th its last.
    fn spread_rows(m: usize, k: usize, n: u64) -> Vec<(u64, Vec<u32>)> {
        (0..n)
            .map(|x| {
                let mut row: Vec<u32> = (0..k as u64)
                    .map(|j| (mix(x << 3 | j) % m as u64) as u32)
                    .collect();
                if x.is_multiple_of(61) {
                    row[0] = m as u32 - 1;
                }
                if x.is_multiple_of(67) {
                    row[k - 1] = m as u32 - 1;
                }
                (3 * x, row)
            })
            .collect()
    }

    /// Sixteen filters over `m` bits, filter `f` setting about
    /// `(f mod 4 + 1) / 8` of the positions, the last position included.
    fn sixteen_filters(m: usize, k: usize) -> Vec<BloomFilter> {
        let hasher = Arc::new(BloomHasher::new(HashKind::Murmur3, k, m, 1 << 20, 5));
        (0..16u64)
            .map(|f| {
                let mut bits = BitVec::new(m);
                bits.set(m - 1);
                for p in 0..m as u64 {
                    if mix(p ^ f << 40) >> 61 <= f % 4 {
                        bits.set(p as usize);
                    }
                }
                BloomFilter::from_parts(bits, Arc::clone(&hasher))
            })
            .collect()
    }

    /// A chunk's pass over `index` equals each filter's own pass: the
    /// same hits in the same order and the same tested count, at chunk
    /// sizes 1, 2 and 16. Returns the hits found.
    fn check_chunks(index: &FirstProbeIndex, filters: &[BloomFilter]) -> usize {
        let own: Vec<(Vec<u64>, u64)> = filters.iter().map(|f| index.pass(f.bits())).collect();
        for size in [1, 2, 16] {
            let members: Vec<&BloomFilter> = filters[..size].iter().collect();
            let chunk = QueryChunk::new(&members);
            assert_eq!(
                chunk.table().is_some(),
                size > 1,
                "one filter builds no table"
            );
            let (hits, tested) = match chunk.table() {
                Some(table) => index.chunk_pass(table),
                None => {
                    let (hits, tested) = index.pass(members[0].bits());
                    (vec![hits], vec![tested])
                }
            };
            assert_eq!((hits.len(), tested.len()), (size, size));
            for (f, (hits, tested)) in hits.into_iter().zip(tested).enumerate() {
                assert_eq!((hits, tested), own[f], "chunk of {size}, filter {f}");
            }
        }
        own.iter().map(|(hits, _)| hits.len()).sum()
    }

    /// The chunk pass at `m` bits, `k` probes and `n` ids, on a built
    /// index and on one kept in step through removals and re-inserts.
    fn check_chunk_pass(m: usize, k: usize, n: u64, shifted: bool) {
        let rows = spread_rows(m, k, n);
        let ids: Vec<u64> = rows.iter().map(|(x, _)| *x).collect();
        let table: Vec<u32> = rows.iter().flat_map(|(_, r)| r.iter().copied()).collect();
        let mut index = FirstProbeIndex::build(m, k, &[(&ids, &table)]);
        assert_eq!(index.shift() > 0, shifted, "m = {m}, n = {n}");
        let filters = sixteen_filters(m, k);
        assert!(
            check_chunks(&index, &filters) > 100,
            "m = {m}, k = {k}, n = {n}"
        );
        let churned = rows.iter().filter(|(x, _)| x % 7 == 0);
        for (x, row) in churned.clone() {
            index.remove(*x, row);
        }
        assert!(check_chunks(&index, &filters) > 100);
        for (x, row) in churned.step_by(2) {
            index.insert(*x, row);
        }
        assert!(check_chunks(&index, &filters) > 100);
    }

    #[test]
    fn chunk_pass_equals_the_per_filter_passes() {
        for k in [1, 3] {
            // Narrow probes; one-bit buckets, then wider ones.
            check_chunk_pass(1 << 16, k, 80_000, false);
            check_chunk_pass(1 << 16, k, 3_000, true);
            // Wide probes.
            check_chunk_pass((1 << 16) + 1, k, 80_000, false);
            check_chunk_pass((1 << 16) + 1, k, 3_000, true);
        }
    }

    #[test]
    fn sliced_masks_name_their_filters() {
        let mut seen = Vec::new();
        for_each_filter(0b1000_0000_0010_0101, |f| seen.push(f));
        assert_eq!(seen, [0, 2, 5, 15]);
        for_each_filter(0, |_| panic!("an empty mask names no filter"));
        let filters = sixteen_filters(4096, 3);
        let members: Vec<&BloomFilter> = filters.iter().collect();
        let chunk = QueryChunk::new(&members);
        let table = chunk.table().expect("sixteen filters are sliced");
        for p in [0, 1, 777, 4095] {
            let want = filters
                .iter()
                .enumerate()
                .filter(|(_, f)| f.bits().get(p))
                .fold(0u16, |m, (i, _)| m | 1 << i);
            assert_eq!(table.at(p), want, "position {p}");
        }
        let union: Vec<usize> = table.ones().map(|(p, _)| p).collect();
        let mut want = BitVec::new(4096);
        for f in &filters {
            want.union_with(f.bits());
        }
        assert_eq!(union, want.iter_ones().collect::<Vec<_>>());
        assert!(table.ones().all(|(p, set)| set == table.at(p) && set != 0));
        assert_eq!(
            table.gather(0, 0, 4096),
            u16::MAX,
            "every filter sets a bit"
        );
        let last = table.at(4095);
        assert_eq!(
            table.gather(4090, 0, 5000),
            table.gather(4090, 0, 4095) | last,
            "clipped at m"
        );
    }

    /// At `m` bits, `k` probes and `n` ids: the probes take the width
    /// `narrow` names, the pass equals the table test, and removing and
    /// re-inserting every 101st id equals a rebuild.
    fn check_width(m: usize, k: usize, n: u64, narrow: bool) {
        let rows = spread_rows(m, k, n);
        let build = |keep: &dyn Fn(u64) -> bool| {
            let kept: Vec<&(u64, Vec<u32>)> = rows.iter().filter(|(x, _)| keep(*x)).collect();
            let ids: Vec<u64> = kept.iter().map(|(x, _)| *x).collect();
            let table: Vec<u32> = kept.iter().flat_map(|(_, r)| r.iter().copied()).collect();
            FirstProbeIndex::build(m, k, &[(&ids, &table)])
        };
        let full = build(&|_| true);
        assert_eq!(matches!(full.probes, Probes::Narrow(_)), narrow, "m = {m}");
        for sparsity in [2u64, 4] {
            let mut bits = BitVec::new(m);
            bits.set(m - 1);
            for p in 0..m as u64 {
                if mix(!p) >> 60 < 16 / sparsity {
                    bits.set(p as usize);
                }
            }
            let expect: Vec<u64> = rows
                .iter()
                .filter(|(_, r)| r.iter().all(|&p| bits.get(p as usize)))
                .map(|(x, _)| *x)
                .collect();
            assert!(
                expect.len() > 10,
                "m = {m}, k = {k}, n = {n}: {} hits",
                expect.len()
            );
            let (mut got, tested) = full.pass(&bits);
            got.sort_unstable();
            assert_eq!(got, expect, "m = {m}, k = {k}, n = {n}");
            let shift = full.shift();
            let live: std::collections::HashSet<usize> =
                bits.iter_ones().map(|p| p >> shift).collect();
            let first_live = rows
                .iter()
                .filter(|(_, r)| live.contains(&((r[0] >> shift) as usize)));
            assert_eq!(tested, first_live.count() as u64);
        }
        let gone = |x: u64| x.is_multiple_of(303);
        let mut kept = full.clone();
        for (x, row) in rows.iter().filter(|(x, _)| gone(*x)) {
            kept.remove(*x, row);
        }
        let rebuilt = build(&|x| !gone(x));
        assert_eq!(rebuilt.shift(), full.shift(), "the removals keep the width");
        assert_eq!(kept, rebuilt);
        for (x, row) in rows.iter().rev().filter(|(x, _)| gone(*x)) {
            kept.insert(*x, row);
        }
        assert_eq!(kept, full);
    }

    #[test]
    fn narrow_probes_reach_the_last_position() {
        // One-bit buckets (more ids than bits) and wider ones; k = 1 at
        // one-bit buckets stores no probe at all.
        for k in [1, 3] {
            check_width(1 << 16, k, 80_000, true);
        }
        check_width(1 << 16, 3, 3_000, true);
    }

    #[test]
    fn wide_probes_past_two_to_the_sixteen() {
        check_width((1 << 16) + 1, 3, 80_000, false);
        check_width((1 << 16) + 1, 3, 3_000, false);
    }
}
