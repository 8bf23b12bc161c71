//! The sequential baseline: the configured engine run on the whole set
//! (what "MUSCLE on a single cluster node" is to the paper's Fig. 6).

use crate::config::SadConfig;
use crate::error::SadError;
use crate::pipeline::{Phase, PipelineCtx};
use crate::report::{BackendExtras, RunReport};
use crate::spmd::Outcome;
use align::DpArena;
use bioseq::{Msa, Sequence};
use std::time::Instant;

/// The whole-set engine run: a one-phase pipeline through the shared
/// recorder. Input validation happens in [`crate::Aligner::run`].
///
/// `arena` is the engine's DP scratch: single runs pass a fresh one, the
/// batch runner threads each worker's long-lived arena through so
/// consecutive jobs reuse its buffers (results are identical either way).
pub(crate) fn sequential_pipeline(
    seqs: &[Sequence],
    cfg: &SadConfig,
    ctx: &PipelineCtx,
    arena: &mut DpArena,
) -> Result<RunReport, SadError> {
    debug_assert!(!seqs.is_empty(), "Aligner::run rejects empty input");
    let msa = ctx.phase(Phase::LocalAlign, || {
        let t0 = Instant::now();
        let (msa, work) = cfg.engine.build_with(cfg.dp()).align_with_work_in(seqs, arena);
        ctx.bucket_aligned(0, msa.num_rows(), t0.elapsed().as_secs_f64());
        (msa, work)
    })?;
    let outcome = Outcome { msa: Some(msa), bucket_sizes: vec![seqs.len()], depth: 0 };
    Ok(outcome.into_report(1, cfg, ctx, BackendExtras::Sequential))
}

/// Virtual seconds the sequential baseline would take on the given cost
/// model (the denominator of every speedup in the paper).
///
/// Accepts anything the engine accepts (including a single sequence) —
/// this is the raw baseline, not the validated [`crate::Aligner`] surface.
pub fn sequential_seconds(
    seqs: &[Sequence],
    cfg: &SadConfig,
    cost: &vcluster::CostModel,
) -> (Msa, f64) {
    let ctx = PipelineCtx::new("sequential", 1, None, None, None);
    let report = sequential_pipeline(seqs, cfg, &ctx, &mut DpArena::new())
        .expect("no cancellation source attached to the baseline run");
    let secs = cost.work_seconds(&report.work);
    (report.msa, secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aligner, Phase};
    use rosegen::{Family, FamilyConfig};

    fn family(n: usize, len: usize, seed: u64) -> Vec<Sequence> {
        Family::generate(&FamilyConfig { n_seqs: n, avg_len: len, seed, ..Default::default() }).seqs
    }

    #[test]
    fn baseline_aligns_and_costs_time() {
        let seqs = family(10, 50, 1);
        let cfg = SadConfig::default();
        let (msa, secs) = sequential_seconds(&seqs, &cfg, &vcluster::CostModel::beowulf_2008());
        msa.validate().unwrap();
        assert_eq!(msa.num_rows(), 10);
        assert!(secs > 0.0);
    }

    #[test]
    fn matches_engine_directly() {
        let seqs = family(6, 40, 2);
        let cfg = SadConfig::default();
        let report = Aligner::new(cfg.clone()).run(&seqs).unwrap();
        assert_eq!(report.msa, cfg.engine.build_with(cfg.dp()).align_with_work(&seqs).0);
        assert_eq!(report.bucket_sizes, vec![6]);
        assert_eq!(report.ranks, 1);
        assert_eq!(report.work, report.phases.iter().map(|p| p.work).sum());
    }

    #[test]
    fn baseline_accepts_a_single_sequence() {
        // The raw baseline bypasses Aligner's 2-sequence floor: a single
        // sequence yields its trivial one-row alignment, as it always has.
        let seqs = family(1, 40, 4);
        let (msa, secs) =
            sequential_seconds(&seqs, &SadConfig::default(), &vcluster::CostModel::beowulf_2008());
        assert_eq!(msa.num_rows(), 1);
        assert!(secs >= 0.0);
    }

    #[test]
    fn one_typed_phase_with_wall_time() {
        let seqs = family(6, 40, 3);
        let report = Aligner::new(SadConfig::default()).run(&seqs).unwrap();
        assert_eq!(report.phase_sequence(), vec![Phase::LocalAlign]);
        let stat = report.phase(Phase::LocalAlign).unwrap();
        assert!(stat.seconds.is_some(), "sequential phases carry wall-clock time");
        assert_eq!(stat.virtual_seconds, None, "no virtual clock off-cluster");
    }
}
