//! MuscleLite — a faithful skeleton of MUSCLE 3.x (Edgar 2004).
//!
//! Stage 1 (draft): k-mer distances over a compressed alphabet → UPGMA
//! guide tree → progressive alignment.
//! Stage 2 (improved, standard mode): Kimura-corrected identity distances
//! from the draft alignment → new tree → progressive re-alignment.
//! Stage 3 (refinement, standard mode): tree-bipartition iterative
//! refinement.
//!
//! Complexities match the original: stage 1 is `O(N²·L + N·L²)` (the
//! `N²` distance term is what makes Sample-Align-D's bucketing pay off),
//! stage 3 adds `O(N²·L)` per bipartition pass.

use crate::distance::{kimura_from_msa, kmer_distance_matrix};
use crate::dp::{DpArena, DpOptions};
use crate::engine::MsaEngine;
use crate::progressive::{progressive_align_with, ProgressiveConfig, WeightScheme};
use crate::refine::refine_with;
use bioseq::{CompressedAlphabet, GapPenalties, Msa, Sequence, SubstMatrix, Work};
use phylo::upgma;

/// k-mer length for stage-1 distances (MUSCLE default 6).
const KMER_K: usize = 6;
/// MUSCLE's `kmer6_6` distance counts k-mers over the Dayhoff-6 groups.
const ALPHABET: CompressedAlphabet = CompressedAlphabet::Dayhoff6;
/// Stage-3 refinement passes of the standard mode.
const REFINE_PASSES: usize = 2;

/// The MUSCLE-like engine. It scores with BLOSUM62 and the default gap
/// penalties; [`fast`](Self::fast) and [`standard`](Self::standard) pick
/// which stages run.
#[derive(Debug, Clone)]
pub struct MuscleLite {
    /// Run stage 2 and stage 3 and weight sequences by Henikoff's
    /// position-based scheme (the standard mode).
    standard: bool,
    /// Band policy and kernel of every DP instance the engine runs.
    dp: DpOptions,
}

impl MuscleLite {
    /// `MUSCLE -maxiters 1`-style fast mode: stage 1 only.
    pub fn fast() -> Self {
        MuscleLite { standard: false, dp: DpOptions::default() }
    }

    /// Standard mode: stages 1 + 2 + two refinement passes.
    pub fn standard() -> Self {
        MuscleLite { standard: true, ..Self::fast() }
    }

    /// Select the DP options (a bare band policy converts).
    pub fn with_dp(mut self, dp: impl Into<DpOptions>) -> Self {
        self.dp = dp.into();
        self
    }
}

impl Default for MuscleLite {
    fn default() -> Self {
        Self::fast()
    }
}

impl MsaEngine for MuscleLite {
    fn name(&self) -> String {
        let base = if self.standard { "muscle-lite(r1,p2)" } else { "muscle-lite-fast" };
        base.to_string() + &self.dp.name_suffix()
    }

    fn align_with_work_in(&self, seqs: &[Sequence], arena: &mut DpArena) -> (Msa, Work) {
        assert!(!seqs.is_empty(), "cannot align an empty set");
        let mut work = Work::ZERO;
        if seqs.len() == 1 {
            return (Msa::from_sequence(&seqs[0]), work);
        }
        // One DP arena serves every stage of the run (and, when the caller
        // hands one in, every run of a batch worker).
        // Stage 1: draft.
        let d1 = kmer_distance_matrix(seqs, KMER_K, ALPHABET, &mut work);
        work.tree_ops += (seqs.len() * seqs.len()) as u64;
        let tree1 = upgma(&d1);
        let weights = if self.standard { WeightScheme::Henikoff } else { WeightScheme::Uniform };
        let cfg = ProgressiveConfig { weights, dp: self.dp };
        let msa = progressive_align_with(seqs, &tree1, &cfg, arena, &mut work);
        if !self.standard || seqs.len() <= 2 {
            return (msa, work);
        }
        // Stage 2: improved tree from the draft alignment.
        let d2 = kimura_from_msa(&msa, &mut work);
        work.tree_ops += (seqs.len() * seqs.len()) as u64;
        let tree = upgma(&d2);
        let msa = progressive_align_with(seqs, &tree, &cfg, arena, &mut work);
        // Stage 3: refinement.
        let ids: Vec<String> = seqs.iter().map(|s| s.id.clone()).collect();
        let (matrix, gaps) = (SubstMatrix::blosum62(), GapPenalties::default());
        let out = refine_with(&msa, &tree, &ids, &matrix, gaps, REFINE_PASSES, self.dp, arena);
        work += out.work;
        (out.msa, work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{BandPolicy, DpKernel};

    fn seqs(texts: &[&str]) -> Vec<Sequence> {
        texts
            .iter()
            .enumerate()
            .map(|(i, t)| Sequence::from_str(format!("s{i}"), t).unwrap())
            .collect()
    }

    #[test]
    fn fast_mode_aligns_family() {
        let ss = seqs(&[
            "MKVLAWGKVLSSDD",
            "MKVLAWGKVLSSD",
            "MKILAWGKILSSDD",
            "MKVLWGKVLSSDD",
            "MKVLAWGKVSSDD",
        ]);
        let (msa, work) = MuscleLite::fast().align_with_work(&ss);
        msa.validate().unwrap();
        assert_eq!(msa.num_rows(), 5);
        assert!(msa.average_identity() > 0.8);
        assert!(work.kmer_ops > 0 && work.dp_cells > 0);
    }

    #[test]
    fn standard_mode_not_worse_than_fast() {
        let ss = seqs(&[
            "MKVLAWGKVLMMPQRS",
            "MKILAWKILMMPQR",
            "MKVLWGKVLMMPQS",
            "MKILAWGKILWWPQRS",
            "MKVAWGKVLMPQRS",
            "MKVLAWGVLMMPRS",
        ]);
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties::default();
        let (fast, _) = MuscleLite::fast().align_with_work(&ss);
        let (std_, _) = MuscleLite::standard().align_with_work(&ss);
        assert!(
            std_.sp_score(&matrix, gaps) >= fast.sp_score(&matrix, gaps),
            "standard should not lose to fast on SP"
        );
    }

    #[test]
    fn rows_in_input_order_with_original_sequences() {
        let texts = ["MKVLAWGKVL", "PPWPPGGPPW", "MKILAWGKIL"];
        let ss = seqs(&texts);
        let (msa, _) = MuscleLite::standard().align_with_work(&ss);
        for (i, t) in texts.iter().enumerate() {
            assert_eq!(msa.ids()[i], format!("s{i}"));
            assert_eq!(msa.ungapped(i).to_letters(), *t);
        }
    }

    #[test]
    fn handles_one_and_two_sequences() {
        let one = seqs(&["MKVL"]);
        let (m1, _) = MuscleLite::fast().align_with_work(&one);
        assert_eq!(m1.num_rows(), 1);
        let two = seqs(&["MKVLAW", "MKAW"]);
        let (m2, _) = MuscleLite::standard().align_with_work(&two);
        assert_eq!(m2.num_rows(), 2);
        m2.validate().unwrap();
    }

    #[test]
    fn deterministic() {
        let ss = seqs(&["MKVLAWGKVL", "MKILAWKIL", "MKVLWGKVL", "MKILAWGKIL"]);
        let (a, wa) = MuscleLite::standard().align_with_work(&ss);
        let (b, wb) = MuscleLite::standard().align_with_work(&ss);
        assert_eq!(a, b);
        assert_eq!(wa, wb);
    }

    #[test]
    fn name_reflects_configuration() {
        assert_eq!(MuscleLite::fast().name(), "muscle-lite-fast");
        assert_eq!(MuscleLite::standard().name(), "muscle-lite(r1,p2)");
        // Non-default band policies show up in the name.
        assert_eq!(MuscleLite::fast().with_dp(BandPolicy::Full).name(), "muscle-lite-fast+full");
        assert_eq!(
            MuscleLite::standard().with_dp(BandPolicy::Full).name(),
            "muscle-lite(r1,p2)+full"
        );
        // Non-default kernels show up too, after the band suffix.
        let scalar = DpOptions { kernel: DpKernel::Scalar, ..DpOptions::default() };
        assert_eq!(MuscleLite::fast().with_dp(scalar).name(), "muscle-lite-fast+scalar");
        let full_scalar = DpOptions { band: BandPolicy::Full, kernel: DpKernel::Scalar };
        assert_eq!(MuscleLite::fast().with_dp(full_scalar).name(), "muscle-lite-fast+full+scalar");
    }

    #[test]
    fn full_band_engine_matches_default_on_small_families() {
        // Families under the minimum auto band are full fills either way.
        let ss = seqs(&["MKVLAWGKVL", "MKILAWKIL", "MKVLWGKVL", "MKILAWGKIL"]);
        let (auto, wa) = MuscleLite::standard().align_with_work(&ss);
        let (full, wf) = MuscleLite::standard().with_dp(BandPolicy::Full).align_with_work(&ss);
        assert_eq!(auto, full);
        assert_eq!(wa.dp_cells, wf.dp_cells);
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn empty_input_panics() {
        let _ = MuscleLite::fast().align_with_work(&[]);
    }
}
