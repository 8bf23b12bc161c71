//! Tree-bipartition iterative refinement (MUSCLE stage 3).
//!
//! For every edge of the guide tree, the alignment's rows are split into
//! the two leaf sets induced by removing that edge, each side is collapsed
//! to a profile (dropping columns that became all-gap), the two profiles
//! are re-aligned, and the result is kept iff the *cross-partition*
//! sum-of-pairs score improved. Within-partition scores are unchanged by
//! construction, so scoring only cross pairs is an exact delta computation
//! at a quarter of the cost.

use crate::dp::{DpArena, DpOptions};
use crate::papro::align_and_merge_with;
use bioseq::msa::pairwise_row_score;
use bioseq::{GapPenalties, Msa, SubstMatrix, Work};
use phylo::Tree;
use std::collections::HashMap;

/// Result of a refinement run.
#[derive(Debug, Clone)]
pub struct RefineOutcome {
    /// The refined alignment (row order may differ from the input; ids are
    /// preserved).
    pub msa: Msa,
    /// Full passes over the bipartition list that were executed.
    pub passes: usize,
    /// Number of accepted realignments.
    pub improvements: usize,
    /// Work performed.
    pub work: Work,
}

/// Refine `msa` along the bipartitions of `tree` for at most `max_passes`
/// passes (stopping early once a pass yields no improvement), under
/// explicit [`DpOptions`] and reusing the caller's [`DpArena`] across every
/// bipartition realignment. Tree leaf `i` corresponds to the row whose id
/// equals `seq_ids[i]`.
///
/// # Panics
/// Panics if any `seq_ids[i]` has no matching row.
#[allow(clippy::too_many_arguments)]
pub fn refine_with(
    msa: &Msa,
    tree: &Tree,
    seq_ids: &[String],
    matrix: &SubstMatrix,
    gaps: GapPenalties,
    max_passes: usize,
    dp: DpOptions,
    arena: &mut DpArena,
) -> RefineOutcome {
    let mut work = Work::ZERO;
    let mut current = msa.clone();
    let mut passes = 0;
    let mut improvements = 0;
    if max_passes == 0 || msa.num_rows() < 3 {
        return RefineOutcome { msa: current, passes, improvements, work };
    }
    let bipartitions = tree.bipartitions();
    for _ in 0..max_passes {
        passes += 1;
        let mut improved_this_pass = false;
        for (inside, outside) in &bipartitions {
            if inside.is_empty() || outside.is_empty() {
                continue;
            }
            let row_of: HashMap<&str, usize> =
                current.ids().iter().enumerate().map(|(r, id)| (id.as_str(), r)).collect();
            let rows_in: Vec<usize> = inside.iter().map(|&l| row_of[seq_ids[l].as_str()]).collect();
            let rows_out: Vec<usize> =
                outside.iter().map(|&l| row_of[seq_ids[l].as_str()]).collect();
            let before = cross_score(&current, &rows_in, &rows_out, matrix, gaps, &mut work);
            let sub_in = extract_rows(&current, &rows_in, &mut work);
            let sub_out = extract_rows(&current, &rows_out, &mut work);
            let merged =
                align_and_merge_with(&sub_in, &sub_out, matrix, gaps, dp, arena, &mut work);
            let merged_in: Vec<usize> = (0..rows_in.len()).collect();
            let merged_out: Vec<usize> = (rows_in.len()..merged.num_rows()).collect();
            let after = cross_score(&merged, &merged_in, &merged_out, matrix, gaps, &mut work);
            if after > before {
                current = merged;
                improvements += 1;
                improved_this_pass = true;
            }
        }
        if !improved_this_pass {
            break;
        }
    }
    RefineOutcome { msa: current, passes, improvements, work }
}

/// Sum of pairwise scores across the partition (pairs with one row on each
/// side).
fn cross_score(
    msa: &Msa,
    rows_a: &[usize],
    rows_b: &[usize],
    matrix: &SubstMatrix,
    gaps: GapPenalties,
    work: &mut Work,
) -> i64 {
    let mut total = 0i64;
    for &i in rows_a {
        for &j in rows_b {
            total += pairwise_row_score(msa.row(i), msa.row(j), matrix, gaps);
        }
    }
    work.col_ops += (rows_a.len() * rows_b.len() * msa.num_cols()) as u64;
    total
}

/// Extract a subset of rows as a standalone alignment, dropping columns
/// that became all-gap.
fn extract_rows(msa: &Msa, rows: &[usize], work: &mut Work) -> Msa {
    let ids = rows.iter().map(|&r| msa.ids()[r].clone()).collect();
    let data = rows.iter().map(|&r| msa.row(r).to_vec()).collect();
    let mut sub = Msa::from_rows(ids, data);
    sub.drop_all_gap_columns();
    work.col_ops += (rows.len() * msa.num_cols()) as u64;
    sub
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::kmer_distance_matrix;
    use crate::dp::BandPolicy;
    use crate::progressive::{progressive_align_with, ProgressiveConfig};
    use bioseq::{CompressedAlphabet, Sequence};
    use phylo::upgma;

    fn build(texts: &[&str]) -> (Vec<Sequence>, Tree, Msa) {
        let seqs: Vec<Sequence> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| Sequence::from_str(format!("s{i}"), t).unwrap())
            .collect();
        let mut w = Work::ZERO;
        let d = kmer_distance_matrix(&seqs, 2, CompressedAlphabet::Identity, &mut w);
        let tree = upgma(&d);
        let cfg = ProgressiveConfig::default();
        let msa = progressive_align_with(&seqs, &tree, &cfg, &mut DpArena::new(), &mut w);
        (seqs, tree, msa)
    }

    /// Full-DP [`refine_with`] under a fresh arena.
    fn refine(
        msa: &Msa,
        tree: &Tree,
        ids: &[String],
        matrix: &SubstMatrix,
        gaps: GapPenalties,
        passes: usize,
    ) -> RefineOutcome {
        let full = BandPolicy::Full.into();
        refine_with(msa, tree, ids, matrix, gaps, passes, full, &mut DpArena::new())
    }

    fn ids(seqs: &[Sequence]) -> Vec<String> {
        seqs.iter().map(|s| s.id.clone()).collect()
    }

    #[test]
    fn never_decreases_sp_score() {
        let (seqs, tree, msa) =
            build(&["MKVLAWGKVLMM", "MKILAWKILM", "MKVLWGKVLM", "MKILAWGKILWW", "MKVAWGKVL"]);
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties::default();
        let before = msa.sp_score(&matrix, gaps);
        let out = refine(&msa, &tree, &ids(&seqs), &matrix, gaps, 4);
        out.msa.validate().unwrap();
        let after = out.msa.sp_score(&matrix, gaps);
        assert!(after >= before, "before {before} after {after}");
    }

    #[test]
    fn preserves_sequences() {
        let (seqs, tree, msa) = build(&["MKVLAWGKVL", "MKILAWKIL", "MKVLWGKVL", "WWPPGGCCWW"]);
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties::default();
        let out = refine(&msa, &tree, &ids(&seqs), &matrix, gaps, 3);
        // Same sequence content regardless of row permutation.
        let mut got: Vec<(String, String)> = (0..out.msa.num_rows())
            .map(|r| (out.msa.ids()[r].clone(), out.msa.ungapped(r).to_letters()))
            .collect();
        got.sort();
        let mut want: Vec<(String, String)> =
            seqs.iter().map(|s| (s.id.clone(), s.to_letters())).collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn zero_passes_is_identity() {
        let (seqs, tree, msa) = build(&["MKVLAW", "MKILAW", "MKVLCW"]);
        let out =
            refine(&msa, &tree, &ids(&seqs), &SubstMatrix::blosum62(), GapPenalties::default(), 0);
        assert_eq!(out.msa, msa);
        assert_eq!(out.passes, 0);
        assert_eq!(out.improvements, 0);
    }

    #[test]
    fn small_inputs_skip_gracefully() {
        let (seqs, tree, msa) = build(&["MKVLAW", "MKILAW"]);
        let out =
            refine(&msa, &tree, &ids(&seqs), &SubstMatrix::blosum62(), GapPenalties::default(), 5);
        assert_eq!(out.msa, msa);
    }

    #[test]
    fn converges_and_stops_early() {
        let (seqs, tree, msa) = build(&["MKVLAW", "MKVLAW", "MKVLAW", "MKVLAW"]);
        // Identical sequences: nothing can improve, so exactly one pass.
        let out =
            refine(&msa, &tree, &ids(&seqs), &SubstMatrix::blosum62(), GapPenalties::default(), 10);
        assert_eq!(out.passes, 1);
        assert_eq!(out.improvements, 0);
    }

    #[test]
    fn work_is_counted() {
        let (seqs, tree, msa) = build(&["MKVLAWGKVL", "MKILAWKIL", "MKVLWGKVL"]);
        let out =
            refine(&msa, &tree, &ids(&seqs), &SubstMatrix::blosum62(), GapPenalties::default(), 2);
        assert!(out.work.col_ops > 0);
        assert!(out.work.dp_cells > 0);
    }
}
