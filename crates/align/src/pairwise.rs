//! Pairwise sequence alignment: Needleman–Wunsch/Gotoh global alignment
//! with affine gaps, full or banded.
//!
//! Each operation has one form, which names its [`DpOptions`] and the
//! caller's [`DpArena`] and runs the shared [`crate::dp`] kernel — this
//! module owns no DP recurrence of its own.

use crate::dp::{self, ColOp, DpArena, DpOptions, SubstScorer};
use bioseq::alphabet::GAP_CODE;
use bioseq::{GapPenalties, Sequence, SubstMatrix, Work};

/// The outcome of a pairwise alignment.
#[derive(Debug, Clone, PartialEq)]
pub struct PairAlignment {
    /// Gapped row for the first sequence.
    pub row_a: Vec<u8>,
    /// Gapped row for the second sequence.
    pub row_b: Vec<u8>,
    /// Alignment score in matrix units.
    pub score: i64,
    /// Work performed (DP cells filled).
    pub work: Work,
}

impl PairAlignment {
    /// Fractional identity over aligned residue pairs.
    pub fn identity(&self) -> f64 {
        bioseq::msa::row_identity(&self.row_a, &self.row_b)
    }
}

/// Expand a kernel merge script into gapped code rows.
fn rows_from_ops(ac: &[u8], bc: &[u8], ops: &[ColOp]) -> (Vec<u8>, Vec<u8>) {
    let mut row_a = Vec::with_capacity(ops.len());
    let mut row_b = Vec::with_capacity(ops.len());
    let (mut i, mut j) = (0usize, 0usize);
    for op in ops {
        match op {
            ColOp::Both => {
                row_a.push(ac[i]);
                row_b.push(bc[j]);
                i += 1;
                j += 1;
            }
            ColOp::FromA => {
                row_a.push(ac[i]);
                row_b.push(GAP_CODE);
                i += 1;
            }
            ColOp::FromB => {
                row_a.push(GAP_CODE);
                row_b.push(bc[j]);
                j += 1;
            }
        }
    }
    debug_assert_eq!(i, ac.len());
    debug_assert_eq!(j, bc.len());
    (row_a, row_b)
}

/// Gotoh global alignment with affine gap penalties under explicit
/// [`DpOptions`] (a bare [`BandPolicy`](dp::BandPolicy) converts: that
/// band, auto kernel),
/// reusing the caller's [`DpArena`] scratch so repeated alignments
/// allocate nothing.
///
/// Terminal gaps are charged like internal ones, matching
/// [`bioseq::Msa::sp_score`]'s convention so that a pairwise alignment's
/// score equals its SP score. [`BandPolicy::Full`](dp::BandPolicy::Full)
/// is the exact full DP. Under [`BandPolicy::Auto`](dp::BandPolicy::Auto)
/// the band is widened until the score is
/// stable and the optimum clears the band edges, so the score matches the
/// full DP (see [`crate::dp::gotoh_global_with`] for the acceptance rule).
/// The kernel choice never changes the alignment.
pub fn global_align_with(
    a: &Sequence,
    b: &Sequence,
    matrix: &SubstMatrix,
    gaps: GapPenalties,
    dp: impl Into<DpOptions>,
    arena: &mut DpArena,
) -> PairAlignment {
    let dp = dp.into();
    let (ac, bc) = (a.codes(), b.codes());
    let scorer = SubstScorer::new(ac, bc, matrix, gaps);
    let out = dp::gotoh_global_with(&scorer, dp.band, dp.kernel, arena);
    let (row_a, row_b) = rows_from_ops(ac, bc, &out.ops);
    // Integer matrix + integer gaps keep every intermediate exact in f64
    // (and in f32 lanes whenever Auto selects the striped kernel).
    PairAlignment { row_a, row_b, score: out.score as i64, work: out.work() }
}

/// Percent identity after a global alignment under explicit
/// [`DpOptions`] — the CLUSTALW initial distance (`1 − identity`) —
/// reusing the caller's [`DpArena`].
pub fn alignment_distance_with(
    a: &Sequence,
    b: &Sequence,
    matrix: &SubstMatrix,
    gaps: GapPenalties,
    dp: impl Into<DpOptions>,
    arena: &mut DpArena,
    work: &mut Work,
) -> f64 {
    let aln = global_align_with(a, b, matrix, gaps, dp, arena);
    *work += aln.work;
    1.0 - aln.identity()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::BandPolicy;

    fn seq(id: &str, t: &str) -> Sequence {
        Sequence::from_str(id, t).unwrap()
    }

    fn setup() -> (SubstMatrix, GapPenalties) {
        (SubstMatrix::blosum62(), GapPenalties::default())
    }

    /// The exact full-DP alignment under a fresh arena.
    fn global_align(a: &Sequence, b: &Sequence, m: &SubstMatrix, g: GapPenalties) -> PairAlignment {
        global_align_with(a, b, m, g, BandPolicy::Full, &mut DpArena::new())
    }

    /// The auto band under a fresh arena.
    fn auto_band(a: &Sequence, b: &Sequence, m: &SubstMatrix, g: GapPenalties) -> PairAlignment {
        global_align_with(a, b, m, g, BandPolicy::Auto, &mut DpArena::new())
    }

    #[test]
    fn identical_sequences_align_without_gaps() {
        let (m, g) = setup();
        let a = seq("a", "MKVLAWGKVL");
        let aln = global_align(&a, &a, &m, g);
        assert_eq!(aln.row_a, aln.row_b);
        assert!(!aln.row_a.contains(&GAP_CODE));
        let expected: i64 = a.codes().iter().map(|&c| m.score(c, c) as i64).sum();
        assert_eq!(aln.score, expected);
        assert_eq!(aln.identity(), 1.0);
    }

    #[test]
    fn rows_reconstruct_inputs() {
        let (m, g) = setup();
        let a = seq("a", "MKVLAW");
        let b = seq("b", "MKAW");
        let aln = global_align(&a, &b, &m, g);
        let ung_a: Vec<u8> = aln.row_a.iter().copied().filter(|&c| c != GAP_CODE).collect();
        let ung_b: Vec<u8> = aln.row_b.iter().copied().filter(|&c| c != GAP_CODE).collect();
        assert_eq!(ung_a, a.codes());
        assert_eq!(ung_b, b.codes());
        assert_eq!(aln.row_a.len(), aln.row_b.len());
    }

    #[test]
    fn score_matches_sp_rescoring() {
        // The DP score must agree with re-scoring the emitted alignment.
        let (m, g) = setup();
        let cases = [
            ("MKVLAWGKVL", "MKILAWKVL"),
            ("AAAA", "WWWW"),
            ("MKVL", "M"),
            ("ACDEFGHIKLMNPQRSTVWY", "ACDEFGHIKLMNPQRSTVWY"),
            ("WLKMMKAW", "WKAW"),
        ];
        for (ta, tb) in cases {
            let a = seq("a", ta);
            let b = seq("b", tb);
            let aln = global_align(&a, &b, &m, g);
            let rescored = bioseq::msa::pairwise_row_score(&aln.row_a, &aln.row_b, &m, g);
            assert_eq!(aln.score, rescored, "case {ta} vs {tb}");
        }
    }

    #[test]
    fn symmetric_scores() {
        let (m, g) = setup();
        let a = seq("a", "MKVLAWGKVLMM");
        let b = seq("b", "MKILWGKIL");
        let s1 = global_align(&a, &b, &m, g).score;
        let s2 = global_align(&b, &a, &m, g).score;
        assert_eq!(s1, s2);
    }

    #[test]
    fn gap_is_preferred_when_cheaper() {
        let (m, _) = setup();
        // Cheap gaps: alignment should drop the unmatched region.
        let g = GapPenalties { open: 1, extend: 1 };
        let a = seq("a", "MKVLWWWWAW");
        let b = seq("b", "MKVLAW");
        let aln = global_align(&a, &b, &m, g);
        assert!(aln.row_b.contains(&GAP_CODE));
        assert!(aln.identity() > 0.9);
    }

    #[test]
    fn affine_prefers_one_long_gap() {
        let m = SubstMatrix::blosum62();
        let g = GapPenalties { open: 10, extend: 1 };
        let a = seq("a", "MKVVVVKW");
        let b = seq("b", "MKKW");
        let aln = global_align(&a, &b, &m, g);
        // Count gap runs in row_b; affine should produce exactly one.
        let mut runs = 0;
        let mut in_run = false;
        for &c in &aln.row_b {
            if c == GAP_CODE && !in_run {
                runs += 1;
                in_run = true;
            } else if c != GAP_CODE {
                in_run = false;
            }
        }
        assert_eq!(runs, 1, "rows: {:?} / {:?}", aln.row_a, aln.row_b);
    }

    #[test]
    fn single_residue_edge_cases() {
        let (m, g) = setup();
        let a = seq("a", "M");
        let b = seq("b", "M");
        let aln = global_align(&a, &b, &m, g);
        assert_eq!(aln.score, m.score(12, 12) as i64);
        let c = seq("c", "W");
        let aln2 = global_align(&a, &c, &m, g);
        assert_eq!(aln2.row_a.len(), aln2.row_b.len());
    }

    #[test]
    fn work_counts_cells() {
        let (m, g) = setup();
        let a = seq("a", "MKVL");
        let b = seq("b", "MKV");
        let aln = global_align(&a, &b, &m, g);
        assert_eq!(aln.work.dp_cells, 4 * 3 * 3);
        assert_eq!(aln.work.dp_cells_full, 4 * 3 * 3, "full DP fills everything");
    }

    #[test]
    fn auto_band_matches_full_scores() {
        let (m, g) = setup();
        let cases = [
            ("MKVLAWGKVL", "MKILAWKVL"),
            ("AAAA", "WWWW"),
            ("MKVL", "M"),
            ("WLKMMKAW", "WKAW"),
            ("MKVLAWWWWWWGKVL", "GKVLMKVLAW"),
        ];
        let mut arena = DpArena::new();
        for (ta, tb) in cases {
            let a = seq("a", ta);
            let b = seq("b", tb);
            let full = global_align(&a, &b, &m, g);
            let auto = global_align_with(&a, &b, &m, g, BandPolicy::Auto, &mut arena);
            assert_eq!(auto.score, full.score, "{ta} vs {tb}");
            assert_eq!(auto.row_a, full.row_a, "{ta} vs {tb}");
            assert_eq!(auto.row_b, full.row_b, "{ta} vs {tb}");
        }
    }

    #[test]
    fn auto_band_saves_cells_on_long_related_pairs() {
        let (m, g) = setup();
        let long = "MKVLAWGKVL".repeat(60);
        let mut other = long.clone();
        other.replace_range(40..44, "WWWW");
        let a = seq("a", &long);
        let b = seq("b", &other);
        let full = global_align(&a, &b, &m, g);
        let auto = global_align_with(&a, &b, &m, g, BandPolicy::Auto, &mut DpArena::new());
        assert_eq!(auto.score, full.score);
        assert!(
            auto.work.dp_cells < full.work.dp_cells / 2,
            "banded {} vs full {}",
            auto.work.dp_cells,
            full.work.dp_cells
        );
        assert_eq!(auto.work.dp_cells_full, full.work.dp_cells);
    }

    #[test]
    fn banded_with_wide_band_matches_full_dp() {
        // Short pairs fit inside Auto's minimum band: it is the full width.
        let (m, g) = setup();
        let cases = [
            ("MKVLAWGKVL", "MKILAWKVL"),
            ("ACDEFGHIKLMNPQRSTVWY", "ACDEFGHIKLMNPQRSTVWY"),
            ("WLKMMKAW", "WKAW"),
            ("MKVL", "M"),
        ];
        for (ta, tb) in cases {
            let a = seq("a", ta);
            let b = seq("b", tb);
            let full = global_align(&a, &b, &m, g);
            let banded = auto_band(&a, &b, &m, g);
            assert_eq!(banded.work, full.work, "{ta} vs {tb}: a full-width band");
            assert_eq!(banded.score, full.score, "{ta} vs {tb}");
            let rescored = bioseq::msa::pairwise_row_score(&banded.row_a, &banded.row_b, &m, g);
            assert_eq!(banded.score, rescored, "{ta} vs {tb} rescoring");
        }
    }

    #[test]
    fn banded_saves_cells() {
        let (m, g) = setup();
        let long = "MKVLAWGKVL".repeat(50);
        let a = seq("a", &long);
        let b = seq("b", &long);
        let full = global_align(&a, &b, &m, g);
        let banded = auto_band(&a, &b, &m, g);
        assert!(banded.work.dp_cells < full.work.dp_cells / 3);
        // Identical sequences stay on the main diagonal: score preserved.
        assert_eq!(banded.score, full.score);
    }

    #[test]
    fn banded_rows_reconstruct_inputs() {
        let (m, g) = setup();
        let long = "MKVLAWGKVLMMKK".repeat(30);
        let mut other = long.clone();
        other.replace_range(100..104, "");
        other.insert_str(300, "WW");
        let (a, b) = (seq("a", &long), seq("b", &other));
        let aln = auto_band(&a, &b, &m, g);
        assert!(aln.work.dp_cells < aln.work.dp_cells_full, "the auto band stays banded");
        let ung_a: Vec<u8> = aln.row_a.iter().copied().filter(|&c| c != GAP_CODE).collect();
        let ung_b: Vec<u8> = aln.row_b.iter().copied().filter(|&c| c != GAP_CODE).collect();
        assert_eq!(ung_a, a.codes());
        assert_eq!(ung_b, b.codes());
    }

    #[test]
    fn alignment_distance_zero_for_identical() {
        let (m, g) = setup();
        let a = seq("a", "MKVLAW");
        let mut w = Work::ZERO;
        let d =
            alignment_distance_with(&a, &a, &m, g, BandPolicy::Full, &mut DpArena::new(), &mut w);
        assert_eq!(d, 0.0);
        assert!(w.dp_cells > 0);
    }
}
