//! Profile–profile alignment: the engine of progressive MSA and of the
//! paper's ancestor-constrained fine-tuning.
//!
//! An affine-gap DP over *columns* (not residues) maximising the summed PSP
//! score. Gap penalties are scaled by the residue weight of the column
//! being consumed and the total weight of the profile receiving the gap, so
//! the objective stays in (weighted) sum-of-pairs units end to end.

use crate::dp::{self, ColOp, DpArena, DpOptions, PspScorer};
use crate::profile::Profile;
use bioseq::alphabet::GAP_CODE;
use bioseq::{GapPenalties, Msa, SubstMatrix, Work};

/// Result of a profile–profile alignment.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileAlignment {
    /// Column merge script (length = merged alignment width).
    pub ops: Vec<ColOp>,
    /// DP objective value (weighted SP units).
    pub score: f64,
    /// Work performed.
    pub work: Work,
}

/// Align two profiles with affine gap penalties under explicit
/// [`DpOptions`] (a bare [`BandPolicy`](crate::dp::BandPolicy) converts:
/// that band, auto kernel — which picks the
/// striped fill whenever the PSP arithmetic is provably f32-exact, i.e.
/// uniform integral weights), reusing the caller's [`DpArena`] so the
/// progressive/refinement loops allocate no DP scratch in steady state.
pub fn align_profiles_with(
    pa: &Profile,
    pb: &Profile,
    matrix: &SubstMatrix,
    gaps: GapPenalties,
    dp: impl Into<DpOptions>,
    arena: &mut DpArena,
) -> ProfileAlignment {
    assert!(!pa.is_empty() && !pb.is_empty(), "profiles must be non-empty");
    let dp = dp.into();
    let mut work = Work::ZERO;
    let scorer = PspScorer::new(pa, pb, matrix, gaps, &mut work);
    let out = dp::gotoh_global_with(&scorer, dp.band, dp.kernel, arena);
    work += out.work();
    ProfileAlignment { ops: out.ops, score: out.score, work }
}

/// Apply a column merge script to two alignments, producing the merged
/// alignment (rows of `a` first).
///
/// # Panics
/// Panics if the script does not consume exactly the columns of `a` and
/// `b`.
pub fn merge_msas(a: &Msa, b: &Msa, ops: &[ColOp], work: &mut Work) -> Msa {
    let out_cols = ops.len();
    let ra = a.num_rows();
    let rb = b.num_rows();
    let mut rows: Vec<Vec<u8>> = (0..ra + rb).map(|_| Vec::with_capacity(out_cols)).collect();
    let (mut ia, mut ib) = (0usize, 0usize);
    for &op in ops {
        match op {
            ColOp::Both => {
                for (r, row) in rows.iter_mut().enumerate().take(ra) {
                    row.push(a.row(r)[ia]);
                }
                for (r, row) in rows.iter_mut().enumerate().skip(ra) {
                    row.push(b.row(r - ra)[ib]);
                }
                ia += 1;
                ib += 1;
            }
            ColOp::FromA => {
                for (r, row) in rows.iter_mut().enumerate().take(ra) {
                    row.push(a.row(r)[ia]);
                }
                for row in rows.iter_mut().skip(ra) {
                    row.push(GAP_CODE);
                }
                ia += 1;
            }
            ColOp::FromB => {
                for row in rows.iter_mut().take(ra) {
                    row.push(GAP_CODE);
                }
                for (r, row) in rows.iter_mut().enumerate().skip(ra) {
                    row.push(b.row(r - ra)[ib]);
                }
                ib += 1;
            }
        }
    }
    assert_eq!(ia, a.num_cols(), "script must consume all of a");
    assert_eq!(ib, b.num_cols(), "script must consume all of b");
    work.col_ops += (out_cols * (ra + rb)) as u64;
    let mut ids = a.ids().to_vec();
    ids.extend_from_slice(b.ids());
    Msa::from_rows(ids, rows)
}

/// Profile-align two alignments with uniform weights under explicit
/// [`DpOptions`] and merge them, reusing the caller's [`DpArena`].
pub fn align_and_merge_with(
    a: &Msa,
    b: &Msa,
    matrix: &SubstMatrix,
    gaps: GapPenalties,
    dp: impl Into<DpOptions>,
    arena: &mut DpArena,
    work: &mut Work,
) -> Msa {
    let pa = Profile::from_msa(a, work);
    let pb = Profile::from_msa(b, work);
    let aln = align_profiles_with(&pa, &pb, matrix, gaps, dp, arena);
    *work += aln.work;
    merge_msas(a, b, &aln.ops, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::BandPolicy;
    use bioseq::fasta;
    use bioseq::Sequence;

    fn msa(text: &str) -> Msa {
        fasta::parse_alignment(text).unwrap()
    }

    fn setup() -> (SubstMatrix, GapPenalties) {
        (SubstMatrix::blosum62(), GapPenalties::default())
    }

    /// The exact full-DP profile alignment under a fresh arena.
    fn align_profiles(
        pa: &Profile,
        pb: &Profile,
        mat: &SubstMatrix,
        g: GapPenalties,
    ) -> ProfileAlignment {
        align_profiles_with(pa, pb, mat, g, BandPolicy::Full, &mut DpArena::new())
    }

    /// Full-DP [`align_and_merge_with`] under a fresh arena.
    fn align_and_merge(a: &Msa, b: &Msa, mat: &SubstMatrix, g: GapPenalties, w: &mut Work) -> Msa {
        align_and_merge_with(a, b, mat, g, BandPolicy::Full, &mut DpArena::new(), w)
    }

    #[test]
    fn identical_profiles_align_diagonally() {
        let (mat, g) = setup();
        let a = msa(">a\nMKVLAW\n");
        let mut w = Work::ZERO;
        let pa = Profile::from_msa(&a, &mut w);
        let aln = align_profiles(&pa, &pa, &mat, g);
        assert!(aln.ops.iter().all(|&op| op == ColOp::Both));
        assert_eq!(aln.ops.len(), 6);
    }

    #[test]
    fn merge_preserves_ungapped_rows() {
        let (mat, g) = setup();
        let a = msa(">a\nMKVLAW\n>b\nMKV-AW\n");
        let b = msa(">c\nMKAW\n");
        let mut w = Work::ZERO;
        let merged = align_and_merge(&a, &b, &mat, g, &mut w);
        assert_eq!(merged.num_rows(), 3);
        merged.validate().unwrap();
        assert_eq!(merged.ungapped(0).to_letters(), "MKVLAW");
        assert_eq!(merged.ungapped(1).to_letters(), "MKVAW");
        assert_eq!(merged.ungapped(2).to_letters(), "MKAW");
        assert!(w.dp_cells > 0);
    }

    #[test]
    fn merged_ids_in_order() {
        let (mat, g) = setup();
        let a = msa(">x\nMKVL\n");
        let b = msa(">y\nMKIL\n>z\nMKIL\n");
        let mut w = Work::ZERO;
        let merged = align_and_merge(&a, &b, &mat, g, &mut w);
        assert_eq!(merged.ids(), &["x".to_string(), "y".to_string(), "z".to_string()]);
    }

    #[test]
    fn dp_score_matches_rescoring_pairwise_case() {
        // For single-sequence profiles the profile DP must agree with a
        // rescoring of the produced alignment (PSP == pair score, weights 1).
        let (mat, g) = setup();
        let texts = [("MKVLAWGKVL", "MKILWGKIL"), ("AAAAW", "WAAA"), ("MW", "M")];
        for (ta, tb) in texts {
            let a = Msa::from_sequence(&Sequence::from_str("a", ta).unwrap());
            let b = Msa::from_sequence(&Sequence::from_str("b", tb).unwrap());
            let mut w = Work::ZERO;
            let merged = align_and_merge(&a, &b, &mat, g, &mut w);
            let pa = Profile::from_msa(&a, &mut w);
            let pb = Profile::from_msa(&b, &mut w);
            let aln = align_profiles(&pa, &pb, &mat, g);
            let rescored = bioseq::msa::pairwise_row_score(merged.row(0), merged.row(1), &mat, g);
            assert!(
                (aln.score - rescored as f64).abs() < 1e-6,
                "{ta} vs {tb}: dp={} rescored={rescored}",
                aln.score
            );
        }
    }

    #[test]
    fn profile_alignment_matches_pairwise_alignment_score() {
        // Single-sequence profile alignment is exactly pairwise Gotoh.
        let (mat, g) = setup();
        let a = Sequence::from_str("a", "MKVLAWGKVLPP").unwrap();
        let b = Sequence::from_str("b", "MKILWGKILGG").unwrap();
        let full = BandPolicy::Full;
        let pairwise =
            crate::pairwise::global_align_with(&a, &b, &mat, g, full, &mut DpArena::new());
        let mut w = Work::ZERO;
        let pa = Profile::from_msa(&Msa::from_sequence(&a), &mut w);
        let pb = Profile::from_msa(&Msa::from_sequence(&b), &mut w);
        let profile = align_profiles(&pa, &pb, &mat, g);
        assert!(
            (profile.score - pairwise.score as f64).abs() < 1e-6,
            "profile {} vs pairwise {}",
            profile.score,
            pairwise.score
        );
    }

    #[test]
    fn gap_columns_inserted_where_cheaper() {
        let (mat, g) = setup();
        let a = msa(">a\nMKVVVVKW\n");
        let b = msa(">b\nMKKW\n");
        let mut w = Work::ZERO;
        let merged = align_and_merge(&a, &b, &mat, g, &mut w);
        // The short sequence must receive gap columns.
        assert!(merged.row(1).contains(&GAP_CODE));
        assert_eq!(merged.num_cols(), 8);
    }

    #[test]
    #[should_panic(expected = "consume all")]
    fn bad_script_panics() {
        let a = msa(">a\nMK\n");
        let b = msa(">b\nMK\n");
        let mut w = Work::ZERO;
        merge_msas(&a, &b, &[ColOp::Both], &mut w);
    }

    #[test]
    fn banded_profile_alignment_matches_full() {
        let (mat, g) = setup();
        let a = msa(">a\nMKVLAWGKVLMMPQRS\n>b\nMKILAWKILMMPQ-RS\n");
        let b = msa(">c\nMKVLWGKVLMMPQS\n");
        let mut w = Work::ZERO;
        let pa = Profile::from_msa(&a, &mut w);
        let pb = Profile::from_msa(&b, &mut w);
        let full = align_profiles(&pa, &pb, &mat, g);
        let mut arena = DpArena::new();
        let auto = align_profiles_with(&pa, &pb, &mat, g, BandPolicy::Auto, &mut arena);
        assert_eq!(auto.ops, full.ops);
        assert!((auto.score - full.score).abs() < 1e-12);
    }

    #[test]
    fn weighted_profiles_shift_alignment() {
        // Weighting the gappy row heavily should change gap placement
        // economics but never break structure.
        let (mat, g) = setup();
        let a = msa(">a\nMKVLAW\n>b\nMK--AW\n");
        let b = msa(">c\nMKVLAW\n");
        let mut w = Work::ZERO;
        let pa = Profile::from_msa_weighted(&a, &[1.0, 10.0], &mut w);
        let pb = Profile::from_msa(&b, &mut w);
        let aln = align_profiles(&pa, &pb, &mat, g);
        let merged = merge_msas(&a, &b, &aln.ops, &mut w);
        merged.validate().unwrap();
        assert_eq!(merged.ungapped(2).to_letters(), "MKVLAW");
    }
}
