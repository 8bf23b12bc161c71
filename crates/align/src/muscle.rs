//! MuscleLite — a faithful skeleton of MUSCLE 3.x (Edgar 2004).
//!
//! Stage 1 (draft): k-mer distances over a compressed alphabet → UPGMA
//! guide tree → progressive alignment.
//! Stage 2 (improved, optional): Kimura-corrected identity distances from
//! the draft alignment → new tree → progressive re-alignment.
//! Stage 3 (refinement, optional): tree-bipartition iterative refinement.
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

/// Configuration of the MUSCLE-like engine.
#[derive(Debug, Clone)]
pub struct MuscleLite {
    /// k-mer length for stage-1 distances (MUSCLE default 6).
    pub kmer_k: usize,
    /// Compressed alphabet for k-mer counting (MUSCLE's `kmer6_6` uses the
    /// Dayhoff-6 groups).
    pub alphabet: CompressedAlphabet,
    /// Substitution matrix for profile alignment.
    pub matrix: SubstMatrix,
    /// Affine gap penalties.
    pub gaps: GapPenalties,
    /// Run stage 2 (tree re-estimation from Kimura distances).
    pub reestimate: bool,
    /// Maximum stage-3 refinement passes (0 disables refinement).
    pub refine_passes: usize,
    /// Use Henikoff position-based weights during progressive merging.
    pub henikoff: bool,
    /// Band policy and kernel of every DP instance the engine runs.
    pub dp: DpOptions,
}

impl MuscleLite {
    /// `MUSCLE -maxiters 1`-style fast mode: stage 1 only.
    pub fn fast() -> Self {
        MuscleLite {
            kmer_k: 6,
            alphabet: CompressedAlphabet::Dayhoff6,
            matrix: SubstMatrix::blosum62(),
            gaps: GapPenalties::default(),
            reestimate: false,
            refine_passes: 0,
            henikoff: false,
            dp: DpOptions::default(),
        }
    }

    /// Standard mode: stages 1 + 2 + two refinement passes.
    pub fn standard() -> Self {
        MuscleLite { reestimate: true, refine_passes: 2, henikoff: true, ..Self::fast() }
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

impl MuscleLite {
    fn progressive_cfg(&self) -> ProgressiveConfig {
        ProgressiveConfig {
            matrix: self.matrix.clone(),
            gaps: self.gaps,
            weights: if self.henikoff { WeightScheme::Henikoff } else { WeightScheme::Uniform },
            dp: self.dp,
        }
    }
}

impl MsaEngine for MuscleLite {
    fn name(&self) -> String {
        let base = match (self.reestimate, self.refine_passes) {
            (false, 0) => "muscle-lite-fast".to_string(),
            _ => format!("muscle-lite(r{},p{})", u8::from(self.reestimate), self.refine_passes),
        };
        base + &self.dp.name_suffix()
    }

    fn align_with_work(&self, seqs: &[Sequence]) -> (Msa, Work) {
        self.align_with_work_in(seqs, &mut DpArena::new())
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
        let d1 = kmer_distance_matrix(seqs, self.kmer_k, self.alphabet, &mut work);
        work.tree_ops += (seqs.len() * seqs.len()) as u64;
        let tree1 = upgma(&d1);
        let cfg = self.progressive_cfg();
        let mut msa = progressive_align_with(seqs, &tree1, &cfg, arena, &mut work);
        let mut tree = tree1;
        // Stage 2: improved tree from the draft alignment.
        if self.reestimate && seqs.len() > 2 {
            let d2 = kimura_from_msa(&msa, &mut work);
            work.tree_ops += (seqs.len() * seqs.len()) as u64;
            let tree2 = upgma(&d2);
            msa = progressive_align_with(seqs, &tree2, &cfg, arena, &mut work);
            tree = tree2;
        }
        // Stage 3: refinement.
        if self.refine_passes > 0 && seqs.len() > 2 {
            let ids: Vec<String> = seqs.iter().map(|s| s.id.clone()).collect();
            let out = refine_with(
                &msa,
                &tree,
                &ids,
                &self.matrix,
                self.gaps,
                self.refine_passes,
                self.dp,
                arena,
            );
            work += out.work;
            msa = out.msa;
        }
        (msa, work)
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
            MuscleLite::standard().with_dp(BandPolicy::Fixed(16)).name(),
            "muscle-lite(r1,p2)+band16"
        );
        // Non-default kernels show up too, after the band suffix.
        let scalar = DpOptions { kernel: DpKernel::Scalar, ..DpOptions::default() };
        assert_eq!(MuscleLite::fast().with_dp(scalar).name(), "muscle-lite-fast+scalar");
        let full_striped = DpOptions { band: BandPolicy::Full, kernel: DpKernel::Striped };
        assert_eq!(
            MuscleLite::fast().with_dp(full_striped).name(),
            "muscle-lite-fast+full+striped"
        );
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
