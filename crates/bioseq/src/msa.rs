//! Gapped multiple sequence alignments and sum-of-pairs scoring.

use crate::alphabet::{code_to_char, GAP_CODE};
use crate::matrix::{GapPenalties, SubstMatrix};
use crate::sequence::Sequence;

/// A multiple sequence alignment: a rectangular matrix of residue/gap codes.
///
/// Invariants (enforced by constructors, checked by [`Msa::validate`]):
/// * all rows have the same number of columns;
/// * no row is entirely gaps;
/// * there is at least one row.
#[derive(Clone, PartialEq, Eq)]
pub struct Msa {
    ids: Vec<String>,
    rows: Vec<Vec<u8>>,
}

impl std::fmt::Debug for Msa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Msa({} rows x {} cols)", self.num_rows(), self.num_cols())
    }
}

impl Msa {
    /// Build from parallel id/row vectors.
    ///
    /// # Panics
    /// Panics if the invariants above are violated.
    pub fn from_rows(ids: Vec<String>, rows: Vec<Vec<u8>>) -> Self {
        assert_eq!(ids.len(), rows.len(), "ids and rows must be parallel");
        assert!(!rows.is_empty(), "alignment must have at least one row");
        let width = rows[0].len();
        assert!(width > 0, "alignment must have at least one column");
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), width, "row {i} has wrong width");
            assert!(row.iter().any(|&c| c != GAP_CODE), "row {i} is entirely gaps");
        }
        Msa { ids, rows }
    }

    /// A single ungapped sequence viewed as a 1-row alignment.
    pub fn from_sequence(seq: &Sequence) -> Self {
        Msa { ids: vec![seq.id.clone()], rows: vec![seq.codes().to_vec()] }
    }

    /// Row identifiers.
    #[inline]
    pub fn ids(&self) -> &[String] {
        &self.ids
    }

    /// Raw rows.
    #[inline]
    pub fn rows(&self) -> &[Vec<u8>] {
        &self.rows
    }

    /// A single row.
    #[inline]
    pub fn row(&self, i: usize) -> &[u8] {
        &self.rows[i]
    }

    /// Number of sequences.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of alignment columns.
    #[inline]
    pub fn num_cols(&self) -> usize {
        self.rows[0].len()
    }

    /// Recover the ungapped sequence of row `i`.
    pub fn ungapped(&self, i: usize) -> Sequence {
        let codes: Vec<u8> = self.rows[i].iter().copied().filter(|&c| c != GAP_CODE).collect();
        Sequence::from_codes(self.ids[i].clone(), codes)
    }

    /// Recover all ungapped sequences in row order.
    pub fn ungapped_all(&self) -> Vec<Sequence> {
        (0..self.num_rows()).map(|i| self.ungapped(i)).collect()
    }

    /// Check the structural invariants; returns a description of the first
    /// violation, if any.
    pub fn validate(&self) -> Result<(), String> {
        if self.rows.is_empty() {
            return Err("no rows".into());
        }
        let width = self.rows[0].len();
        if width == 0 {
            return Err("zero columns".into());
        }
        for (i, row) in self.rows.iter().enumerate() {
            if row.len() != width {
                return Err(format!("row {i}: width {} != {width}", row.len()));
            }
            if row.iter().all(|&c| c == GAP_CODE) {
                return Err(format!("row {i} is all gaps"));
            }
            if let Some(&bad) = row.iter().find(|&&c| c > GAP_CODE) {
                return Err(format!("row {i} contains invalid code {bad}"));
            }
        }
        Ok(())
    }

    /// Remove columns that are gaps in *every* row (can appear after gluing
    /// sub-alignments).
    pub fn drop_all_gap_columns(&mut self) {
        let ncols = self.num_cols();
        // Row by row: each row ORs its residue flags into the mask.
        let mut keep = vec![false; ncols];
        for row in &self.rows {
            for (k, &c) in keep.iter_mut().zip(row) {
                *k |= c != GAP_CODE;
            }
        }
        if keep.iter().all(|&k| k) {
            return;
        }
        for row in self.rows.iter_mut() {
            let mut w = 0;
            for c in 0..ncols {
                if keep[c] {
                    row[w] = row[c];
                    w += 1;
                }
            }
            row.truncate(w);
        }
    }

    /// Append the rows of `other` (which must have the same width).
    ///
    /// # Panics
    /// Panics if widths differ.
    pub fn stack(&mut self, other: Msa) {
        assert_eq!(self.num_cols(), other.num_cols(), "stacked alignments must have equal widths");
        self.ids.extend(other.ids);
        self.rows.extend(other.rows);
    }

    /// Sum-of-pairs score under a substitution matrix with affine gap
    /// penalties. Terminal gaps are penalised like internal ones (the
    /// simplest convention; quality comparisons all use the same scorer so
    /// the convention cancels out). Pairs where both positions are gaps
    /// contribute nothing.
    pub fn sp_score(&self, matrix: &SubstMatrix, gaps: GapPenalties) -> i64 {
        let n = self.num_rows();
        let mut total = 0i64;
        for i in 0..n {
            for j in (i + 1)..n {
                total += pairwise_row_score(&self.rows[i], &self.rows[j], matrix, gaps);
            }
        }
        total
    }

    /// Average pairwise fractional identity over aligned (non-gap) pairs.
    pub fn average_identity(&self) -> f64 {
        let n = self.num_rows();
        if n < 2 {
            return 1.0;
        }
        let mut total = 0.0;
        let mut pairs = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                total += row_identity(&self.rows[i], &self.rows[j]);
                pairs += 1;
            }
        }
        total / pairs as f64
    }

    /// Pretty-print a window of the alignment (for snapshots like the
    /// paper's Fig. 7).
    pub fn snapshot(&self, max_rows: usize, max_cols: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let rows = self.num_rows().min(max_rows);
        let cols = self.num_cols().min(max_cols);
        let id_w = self.ids.iter().take(rows).map(|s| s.len()).max().unwrap_or(4).min(16);
        for i in 0..rows {
            let id: String = self.ids[i].chars().take(id_w).collect();
            let seq: String = self.rows[i][..cols].iter().map(|&c| code_to_char(c)).collect();
            let _ = writeln!(out, "{id:<id_w$} {seq}");
        }
        if self.num_rows() > rows {
            let _ = writeln!(out, "… ({} more rows)", self.num_rows() - rows);
        }
        out
    }
}

/// Score one aligned row pair with affine gaps. Shared by [`Msa::sp_score`]
/// and the refinement objective in the `align` crate.
pub fn pairwise_row_score(a: &[u8], b: &[u8], matrix: &SubstMatrix, gaps: GapPenalties) -> i64 {
    debug_assert_eq!(a.len(), b.len());
    let mut score = 0i64;
    // Track gap state for affine penalties in each direction.
    let mut in_gap_a = false; // gap in `a` against residue in `b`
    let mut in_gap_b = false;
    for (&x, &y) in a.iter().zip(b) {
        let xg = x == GAP_CODE;
        let yg = y == GAP_CODE;
        match (xg, yg) {
            (true, true) => {
                // Both gaps: no contribution; does not break gap runs
                // (columns induced by other sequences).
            }
            (true, false) => {
                score -= if in_gap_a { gaps.extend } else { gaps.open } as i64;
                in_gap_a = true;
                in_gap_b = false;
            }
            (false, true) => {
                score -= if in_gap_b { gaps.extend } else { gaps.open } as i64;
                in_gap_b = true;
                in_gap_a = false;
            }
            (false, false) => {
                score += matrix.score(x, y) as i64;
                in_gap_a = false;
                in_gap_b = false;
            }
        }
    }
    score
}

/// Fractional identity between two aligned rows, counted over columns where
/// both have residues.
pub fn row_identity(a: &[u8], b: &[u8]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut same = 0usize;
    let mut aligned = 0usize;
    for (&x, &y) in a.iter().zip(b) {
        if x != GAP_CODE && y != GAP_CODE {
            aligned += 1;
            if x == y {
                same += 1;
            }
        }
    }
    if aligned == 0 {
        0.0
    } else {
        same as f64 / aligned as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fasta;
    use proptest::prelude::*;

    fn msa(text: &str) -> Msa {
        fasta::parse_alignment(text).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let m = msa(">a\nMK-VL\n>b\nMKI-L\n");
        assert_eq!(m.num_rows(), 2);
        assert_eq!(m.num_cols(), 5);
        assert_eq!(m.ungapped(0).to_letters(), "MKVL");
        assert_eq!(m.ungapped(1).to_letters(), "MKIL");
    }

    #[test]
    fn validate_accepts_good() {
        assert!(msa(">a\nMK-VL\n>b\nMKI-L\n").validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "entirely gaps")]
    fn all_gap_row_panics() {
        Msa::from_rows(vec!["a".into(), "b".into()], vec![vec![0, 1], vec![GAP_CODE, GAP_CODE]]);
    }

    #[test]
    fn drop_all_gap_columns_works() {
        let mut m = Msa::from_rows(
            vec!["a".into(), "b".into()],
            vec![vec![0, GAP_CODE, 1], vec![2, GAP_CODE, GAP_CODE]],
        );
        m.drop_all_gap_columns();
        assert_eq!(m.num_cols(), 2);
        assert_eq!(m.row(0), &[0, 1]);
        assert_eq!(m.row(1), &[2, GAP_CODE]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The row-major keep mask drops exactly the columns the
        /// column-major definition ("no row has a residue here") drops.
        #[test]
        fn drop_all_gap_columns_matches_column_major(
            ncols in 1usize..24,
            raw in prop::collection::vec(prop::collection::vec(0u8..40, 24..25), 1..6),
        ) {
            // About 1 in 2 cells is a gap, so all-gap columns are common.
            let cells: Vec<Vec<u8>> = raw
                .iter()
                .map(|r| r[..ncols].iter().map(|&v| if v < 20 { v } else { GAP_CODE }).collect())
                .collect();
            let keep: Vec<bool> =
                (0..ncols).map(|c| cells.iter().any(|r| r[c] != GAP_CODE)).collect();
            let want: Vec<Vec<u8>> = cells
                .iter()
                .map(|r| (0..ncols).filter(|&c| keep[c]).map(|c| r[c]).collect())
                .collect();
            let mut m = Msa { ids: (0..cells.len()).map(|i| i.to_string()).collect(), rows: cells };
            m.drop_all_gap_columns();
            prop_assert_eq!(m.rows, want);
        }
    }

    #[test]
    fn sp_score_identity_alignment() {
        let m = msa(">a\nAAA\n>b\nAAA\n");
        let matrix = SubstMatrix::blosum62();
        // Three columns of A/A pairs: 3 * 4 = 12
        assert_eq!(m.sp_score(&matrix, GapPenalties::default()), 12);
    }

    #[test]
    fn sp_score_affine_gap_run() {
        let m = msa(">a\nAAAA\n>b\nA--A\n");
        let matrix = SubstMatrix::blosum62();
        let g = GapPenalties { open: 10, extend: 2 };
        // A/A + open + extend + A/A = 4 - 10 - 2 + 4
        assert_eq!(m.sp_score(&matrix, g), 4 - 10 - 2 + 4);
    }

    #[test]
    fn sp_score_double_gap_free() {
        let a = msa(">a\nA-A\n>b\nA-A\n");
        let matrix = SubstMatrix::blosum62();
        assert_eq!(a.sp_score(&matrix, GapPenalties::default()), 8);
    }

    #[test]
    fn sp_score_three_rows_pairs() {
        let m = msa(">a\nA\n>b\nA\n>c\nA\n");
        let matrix = SubstMatrix::blosum62();
        // Three pairs of A/A = 3 * 4
        assert_eq!(m.sp_score(&matrix, GapPenalties::default()), 12);
    }

    #[test]
    fn identity_measures() {
        let m = msa(">a\nMKVL\n>b\nMKIL\n");
        assert!((m.average_identity() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn stack_widths_must_match() {
        let mut a = msa(">a\nMKVL\n");
        let b = msa(">b\nMKIL\n");
        a.stack(b);
        assert_eq!(a.num_rows(), 2);
    }

    #[test]
    fn snapshot_contains_ids() {
        let m = msa(">alpha\nMKVL\n>beta\nMKIL\n");
        let s = m.snapshot(10, 10);
        assert!(s.contains("alpha"));
        assert!(s.contains("MKVL"));
    }

    #[test]
    fn ungapped_roundtrip_through_from_sequence() {
        let s = Sequence::from_str("x", "MKVLAW").unwrap();
        let m = Msa::from_sequence(&s);
        assert_eq!(m.ungapped(0), s);
    }
}
