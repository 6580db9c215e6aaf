//! The first-probe index of a pruned tree's occupied ids.
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
//! whose first probe lands in it, ascending, each with its probe row.
//! Buckets are one bit wide (`shift = 0`) whenever the occupied ids
//! outnumber `m`; otherwise the width is the narrowest power of two that
//! keeps the bucket count at most the id count ([`shift_for`]), so the
//! offsets never outnumber the ids. A one-bit bucket proves its
//! entries' first probe set, so it stores only the other `k − 1` probes;
//! a wider bucket stores all `k`. The offsets are `u32`, so an index
//! holds fewer than 2³² ids.
//!
//! The content is a pure function of the occupied ids, so an index kept
//! in step by [`FirstProbeIndex::insert`]/[`FirstProbeIndex::remove`]
//! equals one rebuilt from the leaf tables ([`FirstProbeIndex::build`]),
//! field for field.

use bst_bloom::bitvec::BitVec;

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
    /// The entries, [`Self::width`] `u32`s each and ascending by id
    /// within a bucket: the id (low word, high word), then its probes —
    /// the row without its first probe for one-bit buckets, the whole
    /// row otherwise. An entry is one contiguous read (16 bytes at
    /// `k = 3`) rather than one read per array.
    entries: Vec<u32>,
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
            entries: Vec::new(),
        };
        let width = index.width();
        index.entries = vec![0; occupied * width];
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
            index.write_entry(at, id, row);
        }
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

    /// `u32`s per entry: two for the id, then the stored probes.
    fn width(&self) -> usize {
        2 + self.k - self.skip()
    }

    /// The bucket of a probe row's first probe.
    fn bucket(&self, row: &[u32]) -> usize {
        (row[0] >> self.shift) as usize
    }

    /// The id of entry `at`.
    fn id(&self, at: usize) -> u64 {
        let e = at * self.width();
        u64::from(self.entries[e]) | u64::from(self.entries[e + 1]) << 32
    }

    /// Fills entry `at` (already allocated) with `id` and its row.
    fn write_entry(&mut self, at: usize, id: u64, row: &[u32]) {
        let (skip, width) = (self.skip(), self.width());
        let entry = &mut self.entries[at * width..(at + 1) * width];
        entry[0] = id as u32;
        entry[1] = (id >> 32) as u32;
        entry[2..].copy_from_slice(&row[skip..]);
    }

    /// Where `id` sits, or would sit, in its bucket: `Ok` at an entry
    /// holding it, `Err` at the insertion point.
    fn locate(&self, id: u64, row: &[u32]) -> (usize, Result<usize, usize>) {
        let b = self.bucket(row);
        let (mut lo, mut hi) = (self.offsets[b] as usize, self.offsets[b + 1] as usize);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.id(mid) < id {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let at = lo;
        let found = at < self.offsets[b + 1] as usize && self.id(at) == id;
        (b, if found { Ok(at) } else { Err(at) })
    }

    /// Adds a newly occupied id with its probe row; the caller keeps the
    /// bucket shift valid ([`shift_for`]) and rebuilds when it moves.
    pub(crate) fn insert(&mut self, id: u64, row: &[u32]) {
        let (b, found) = self.locate(id, row);
        debug_assert!(found.is_err(), "id {id} already indexed");
        let Err(at) = found else { return };
        let width = self.width();
        let gap = std::iter::repeat_n(0, width);
        self.entries.splice(at * width..at * width, gap);
        self.write_entry(at, id, row);
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
        let width = self.width();
        self.entries.drain(at * width..(at + 1) * width);
        for offset in &mut self.offsets[b + 1..] {
            *offset -= 1;
        }
    }

    /// The index pass: visits the buckets of `bits`' set positions once
    /// each and calls `hit` for every entry whose probes are all set in
    /// `bits`, bucket by bucket. Returns the number of entries tested.
    /// `bits` must span the indexed `m` positions.
    pub(crate) fn for_each_member(&self, bits: &BitVec, mut hit: impl FnMut(u64)) -> u64 {
        let width = self.width();
        let mut tested = 0u64;
        let mut last = usize::MAX;
        for p in bits.iter_ones() {
            let b = p >> self.shift;
            if b == last {
                continue; // a wide bucket holding several set positions
            }
            last = b;
            let (lo, hi) = (self.offsets[b] as usize, self.offsets[b + 1] as usize);
            tested += (hi - lo) as u64;
            for entry in self.entries[lo * width..hi * width].chunks_exact(width) {
                if entry[2..].iter().all(|&q| bits.get(q as usize)) {
                    hit(u64::from(entry[0]) | u64::from(entry[1]) << 32);
                }
            }
        }
        tested
    }

    /// Heap bytes: `4` per offset plus `8 + 4 × stored probes` per id.
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.offsets.len() + self.entries.len()) * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(full.heap_bytes(), 5 * 4 + 6 * 8 + 6 * 2 * 4);
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
        let mut got = Vec::new();
        let tested = index.for_each_member(&bits, |x| got.push(x));
        got.sort_unstable();
        assert_eq!(got, expect);
        let first_set = rows.iter().filter(|(_, r)| bits.get(r[0] as usize));
        assert_eq!(tested, first_set.count() as u64);
    }
}
