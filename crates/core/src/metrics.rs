//! Operation accounting.
//!
//! The paper's headline evaluation metric (§7.1) is "the number of
//! intersections and set membership operations" — Figures 3, 4 and 8–10 are
//! entirely in these units. Every sampling/reconstruction entry point takes
//! an [`OpStats`] and increments it as it works.

use std::ops::AddAssign;

/// Counters for the operations the paper reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Bloom filter intersections (one per child-filter `AND`+estimate).
    pub intersections: u64,
    /// Set-membership queries fired at a Bloom filter: the candidates a
    /// leaf phase tests. A table scan tests every candidate of its leaf
    /// (the whole range of a complete tree's leaf, the occupied ids of a
    /// pruned one); a pruned tree's index pass tests only the occupied
    /// ids whose first probe the query sets, across all its leaves.
    pub memberships: u64,
    /// Tree nodes visited.
    pub nodes_visited: u64,
    /// Failed descents that forced trying the sibling (false-positive
    /// paths, Figure 2).
    pub backtracks: u64,
}

impl OpStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Total of the paper's two headline counters.
    pub fn total_ops(&self) -> u64 {
        self.intersections + self.memberships
    }
}

impl AddAssign for OpStats {
    fn add_assign(&mut self, rhs: OpStats) {
        self.intersections += rhs.intersections;
        self.memberships += rhs.memberships;
        self.nodes_visited += rhs.nodes_visited;
        self.backtracks += rhs.backtracks;
    }
}

impl std::fmt::Display for OpStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "intersections={} memberships={} nodes={} backtracks={}",
            self.intersections, self.memberships, self.nodes_visited, self.backtracks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates() {
        let mut a = OpStats {
            intersections: 1,
            memberships: 2,
            nodes_visited: 3,
            backtracks: 0,
        };
        let b = OpStats {
            intersections: 10,
            memberships: 20,
            nodes_visited: 30,
            backtracks: 1,
        };
        a += b;
        assert_eq!(a.intersections, 11);
        assert_eq!(a.memberships, 22);
        assert_eq!(a.nodes_visited, 33);
        assert_eq!(a.backtracks, 1);
        assert_eq!(a.total_ops(), 33);
    }

    #[test]
    fn reset_zeroes() {
        let mut s = OpStats {
            intersections: 5,
            ..Default::default()
        };
        s.reset();
        assert_eq!(s, OpStats::new());
    }

    #[test]
    fn display_is_readable() {
        let s = OpStats {
            intersections: 1,
            memberships: 2,
            nodes_visited: 3,
            backtracks: 4,
        };
        assert_eq!(
            s.to_string(),
            "intersections=1 memberships=2 nodes=3 backtracks=4"
        );
    }
}
