//! The [`MsaEngine`] abstraction: "any sequential multiple alignment
//! system", exactly the role MUSCLE plays inside each Sample-Align-D
//! processor.

use crate::clustal::ClustalLite;
use crate::dp::{DpArena, DpOptions};
use crate::muscle::MuscleLite;
use bioseq::{Msa, Sequence, Work};

/// A sequential multiple sequence alignment system.
///
/// Implementations must be deterministic: the virtual cluster's timing
/// model assumes a rerun performs identical work.
pub trait MsaEngine: Send + Sync {
    /// Engine name for reports (e.g. `"muscle-lite-fast"`).
    fn name(&self) -> String;

    /// Align the sequences using caller-provided DP scratch and report
    /// the work performed, so consecutive runs (e.g. the jobs of a batch
    /// worker) reuse one [`DpArena`]'s buffers instead of re-allocating per
    /// run. The arena is pure scratch: results and work do not depend on
    /// what it held before.
    ///
    /// The returned alignment contains exactly the input sequences (same
    /// ids, same residues once ungapped), rows in input order.
    fn align_with_work_in(&self, seqs: &[Sequence], arena: &mut DpArena) -> (Msa, Work);

    /// [`align_with_work_in`](Self::align_with_work_in) under a fresh arena.
    fn align_with_work(&self, seqs: &[Sequence]) -> (Msa, Work) {
        self.align_with_work_in(seqs, &mut DpArena::new())
    }
}

/// Engine selector used by configuration surfaces (CLI, benches, the
/// distributed system's config messages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineChoice {
    /// MUSCLE-like, stage 1 only (fast draft).
    #[default]
    MuscleFast,
    /// MUSCLE-like with tree re-estimation and refinement.
    MuscleStandard,
    /// CLUSTALW-like.
    Clustal,
}

impl EngineChoice {
    /// Instantiate the engine with explicit [`DpOptions`].
    pub fn build_with(self, dp: DpOptions) -> Box<dyn MsaEngine> {
        match self {
            EngineChoice::MuscleFast => Box::new(MuscleLite::fast().with_dp(dp)),
            EngineChoice::MuscleStandard => Box::new(MuscleLite::standard().with_dp(dp)),
            EngineChoice::Clustal => Box::new(ClustalLite::default().with_dp(dp)),
        }
    }

    /// Stable label for tables.
    pub fn label(self) -> &'static str {
        match self {
            EngineChoice::MuscleFast => "muscle-fast",
            EngineChoice::MuscleStandard => "muscle",
            EngineChoice::Clustal => "clustalw",
        }
    }

    /// Parse a [`label`](Self::label) back into a choice — the selector
    /// configuration surfaces (CLI flags, config files) go through.
    pub fn from_label(label: &str) -> Option<EngineChoice> {
        EngineChoice::ALL.into_iter().find(|c| c.label() == label)
    }

    /// All selectable engines (for sweeps).
    pub const ALL: [EngineChoice; 3] =
        [EngineChoice::MuscleFast, EngineChoice::MuscleStandard, EngineChoice::Clustal];
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seqs(texts: &[&str]) -> Vec<Sequence> {
        texts
            .iter()
            .enumerate()
            .map(|(i, t)| Sequence::from_str(format!("s{i}"), t).unwrap())
            .collect()
    }

    #[test]
    fn every_engine_satisfies_the_contract() {
        let ss = seqs(&["MKVLAWGKVL", "MKILAWKIL", "MKVLWGKVL", "MKILAWGKIL"]);
        for choice in EngineChoice::ALL {
            let engine = choice.build_with(DpOptions::default());
            let (msa, work) = engine.align_with_work(&ss);
            msa.validate().unwrap();
            assert_eq!(msa.num_rows(), ss.len(), "{}", engine.name());
            for (i, s) in ss.iter().enumerate() {
                assert_eq!(msa.ids()[i], s.id, "{}", engine.name());
                assert_eq!(msa.ungapped(i).to_letters(), s.to_letters(), "{}", engine.name());
            }
            assert!(!work.is_zero(), "{} reported no work", engine.name());
        }
    }

    #[test]
    fn arena_reuse_is_pure_scratch() {
        // Running several families back to back through one arena must
        // yield exactly the fresh-arena results — the batch runner's
        // per-worker reuse depends on it.
        let families = [
            seqs(&["MKVLAWGKVL", "MKILAWKIL", "MKVLWGKVL", "MKILAWGKIL"]),
            seqs(&["PPWPPGGPPW", "PPWPPGGPW", "PPWPGGPPW"]),
            seqs(&["MKVLAWGKVLSSDD", "MKVLAWGKVLSSD"]),
        ];
        for choice in EngineChoice::ALL {
            let engine = choice.build_with(DpOptions::default());
            let mut arena = crate::dp::DpArena::new();
            for family in &families {
                let fresh = engine.align_with_work(family);
                let reused = engine.align_with_work_in(family, &mut arena);
                assert_eq!(fresh, reused, "{}", engine.name());
            }
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<&str> =
            EngineChoice::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), EngineChoice::ALL.len());
    }

    #[test]
    fn labels_roundtrip_through_from_label() {
        for choice in EngineChoice::ALL {
            assert_eq!(EngineChoice::from_label(choice.label()), Some(choice));
        }
        assert_eq!(EngineChoice::from_label("t-coffee"), None);
    }
}
