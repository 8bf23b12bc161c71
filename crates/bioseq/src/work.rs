//! Abstract work accounting.
//!
//! Compute kernels report how much work they did in hardware-independent
//! units (dynamic-programming cells, nominal k-mer pair ops, …). The virtual
//! cluster's deterministic cost model (see the `vcluster` crate) converts a
//! [`Work`] into virtual seconds, which is how the reproduction obtains
//! scheduling-noise-free per-processor timings on a single-core host.

use std::ops::{Add, AddAssign};

/// Counters for the work performed by a computation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Work {
    /// Dynamic-programming matrix cells **actually filled** (pairwise or
    /// profile DP). Banded kernels report only the in-band cells they
    /// touched — including every retry of an adaptive run — so this is
    /// the number the cost model converts into virtual time.
    pub dp_cells: u64,
    /// The cells an unbanded `O(n·m)` fill of the same DP instances would
    /// have touched. `dp_cells == dp_cells_full` for full fills;
    /// `dp_cells < dp_cells_full` measures what banding saved. Not a cost
    /// (excluded from [`total_units`](Self::total_units)); reports print
    /// the banded/full pair side by side.
    pub dp_cells_full: u64,
    /// K-mer work, nominal: `|a| + |b|` sparse profile entries per
    /// ordered pair scored, whichever kernel scored it (the dense table
    /// of [`crate::kmer::Scatter`] or the merge, which may stop early),
    /// and even when a symmetric pair is computed once for both orders.
    /// The anchor scan charges one per k-mer window scanned.
    pub kmer_ops: u64,
    /// Comparison operations in sorting.
    pub sort_ops: u64,
    /// Guide-tree construction steps (distance matrix merges etc.).
    pub tree_ops: u64,
    /// Alignment-column operations (profile builds, gap insertion, glue).
    pub col_ops: u64,
    /// Bytes of sequence data touched in bulk passes (I/O-ish work).
    pub seq_bytes: u64,
}

impl Work {
    /// The zero work value.
    pub const ZERO: Work = Work {
        dp_cells: 0,
        dp_cells_full: 0,
        kmer_ops: 0,
        sort_ops: 0,
        tree_ops: 0,
        col_ops: 0,
        seq_bytes: 0,
    };

    /// Whether all counters are zero.
    pub fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }

    /// Grand total of all counters (unit-weighted; used by tests and quick
    /// reports, not the cost model). `dp_cells_full` is a reference
    /// figure, not performed work, so it is excluded.
    pub fn total_units(&self) -> u64 {
        self.dp_cells
            + self.kmer_ops
            + self.sort_ops
            + self.tree_ops
            + self.col_ops
            + self.seq_bytes
    }

    /// Convenience constructor for pure full-matrix DP work (the filled
    /// and full-equivalent counts coincide).
    pub fn dp(cells: u64) -> Work {
        Work { dp_cells: cells, dp_cells_full: cells, ..Self::ZERO }
    }

    /// DP work from a banded fill: `cells` actually filled out of a
    /// `full` full-matrix equivalent.
    pub fn dp_banded(cells: u64, full: u64) -> Work {
        Work { dp_cells: cells, dp_cells_full: full, ..Self::ZERO }
    }

    /// Convenience constructor for pure k-mer work.
    pub fn kmer(ops: u64) -> Work {
        Work { kmer_ops: ops, ..Self::ZERO }
    }

    /// Convenience constructor for sorting work.
    pub fn sort(ops: u64) -> Work {
        Work { sort_ops: ops, ..Self::ZERO }
    }
}

impl Add for Work {
    type Output = Work;
    fn add(self, rhs: Work) -> Work {
        Work {
            dp_cells: self.dp_cells + rhs.dp_cells,
            dp_cells_full: self.dp_cells_full + rhs.dp_cells_full,
            kmer_ops: self.kmer_ops + rhs.kmer_ops,
            sort_ops: self.sort_ops + rhs.sort_ops,
            tree_ops: self.tree_ops + rhs.tree_ops,
            col_ops: self.col_ops + rhs.col_ops,
            seq_bytes: self.seq_bytes + rhs.seq_bytes,
        }
    }
}

impl AddAssign for Work {
    fn add_assign(&mut self, rhs: Work) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for Work {
    fn sum<I: Iterator<Item = Work>>(iter: I) -> Work {
        iter.fold(Work::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_zero() {
        assert!(Work::ZERO.is_zero());
        assert!(!Work::dp(1).is_zero());
    }

    #[test]
    fn add_accumulates() {
        let w = Work::dp(10) + Work::kmer(5) + Work::dp(2);
        assert_eq!(w.dp_cells, 12);
        assert_eq!(w.kmer_ops, 5);
        assert_eq!(w.total_units(), 17);
    }

    #[test]
    fn sum_over_iterator() {
        let w: Work = (0..4).map(Work::dp).sum();
        assert_eq!(w.dp_cells, 6);
    }

    #[test]
    fn banded_dp_tracks_both_counts() {
        let w = Work::dp_banded(100, 900) + Work::dp(50);
        assert_eq!(w.dp_cells, 150);
        assert_eq!(w.dp_cells_full, 950);
        // The full-matrix equivalent is a reference figure, not work.
        assert_eq!(w.total_units(), 150);
    }

    #[test]
    fn add_assign_matches_add() {
        let mut w = Work::dp(3);
        w += Work::sort(7);
        assert_eq!(w, Work::dp(3) + Work::sort(7));
    }
}
