//! The message-passing substrate: one [`Comm`] per rank of a virtual
//! cluster.
//!
//! Every rank thread of a [`VirtualCluster`] runs the one pipeline body
//! ([`sample_align_d`]) through a [`ClusterRank`], which owns that rank:
//! collectives are real messages priced by the cost model, charged work
//! advances the rank's virtual clock, and each phase is bracketed on the
//! shared [`PipelineCtx`], which stamps the phase's real wall-clock
//! footprint (first rank in → last rank out) and its virtual seconds (the
//! largest advance of any rank's clock inside the phase).
//!
//! Cancellation is cooperative *and collective*: an SPMD program cannot
//! have one rank bail while its peers block on a collective, so at every
//! phase boundary the root polls the [`crate::CancelToken`]/deadline and
//! broadcasts the verdict — all ranks stop at the same boundary, keeping
//! the virtual clocks deterministic.

use crate::config::SadConfig;
use crate::error::SadError;
use crate::pipeline::{Phase, PipelineCtx};
use crate::report::{BackendExtras, RunReport};
use crate::spmd::{sample_align_d, Comm, Outcome};
use bioseq::{Sequence, Work};
use std::ops::Range;
use vcluster::{Node, VirtualCluster, WireSize};

/// Run the pipeline body on every rank of `cluster` and assemble the
/// ranks' outcomes into one report. The recorder stamped every phase with
/// its wall-clock and virtual seconds; the rank traces ride along as
/// [`BackendExtras::Distributed`].
pub(crate) fn distributed_pipeline(
    cluster: &VirtualCluster,
    seqs: &[Sequence],
    cfg: &SadConfig,
    ctx: &PipelineCtx,
) -> Result<RunReport, SadError> {
    debug_assert_eq!(
        seqs.iter().map(|s| s.id.as_str()).collect::<std::collections::HashSet<_>>().len(),
        seqs.len(),
        "sequence ids must be unique"
    );
    let run = cluster.run(|node| sample_align_d(&mut ClusterRank::new(node, ctx), ctx, seqs, cfg));
    let mut whole = Outcome::default();
    for outcome in run.results {
        match outcome {
            Ok(rank) => {
                whole.msa = whole.msa.or(rank.msa);
                whole.bucket_sizes.extend(rank.bucket_sizes);
                whole.depth = whole.depth.max(rank.depth);
            }
            Err(cancelled) => {
                // Every rank stopped at the same boundary, so no phase is
                // still open; drop whatever completed before the cut.
                let _ = ctx.drain();
                return Err(cancelled);
            }
        }
    }
    let extras = BackendExtras::Distributed { makespan: run.makespan, traces: run.traces };
    Ok(whole.into_report(cluster.p(), cfg, ctx, extras))
}

/// One rank of the virtual cluster as a [`Comm`]: it owns exactly that
/// rank, so every per-rank `Vec` holds one entry.
pub(crate) struct ClusterRank<'a> {
    node: &'a Node,
    ctx: &'a PipelineCtx,
    /// Work charged since the open phase started.
    work: Work,
}

impl<'a> ClusterRank<'a> {
    pub(crate) fn new(node: &'a Node, ctx: &'a PipelineCtx) -> Self {
        ClusterRank { node, ctx, work: Work::ZERO }
    }
}

/// The single entry of a one-rank executor's per-rank `Vec`.
fn only<T>(mut per_rank: Vec<T>) -> T {
    assert_eq!(per_rank.len(), 1, "a cluster rank owns exactly one rank");
    per_rank.remove(0)
}

impl Comm for ClusterRank<'_> {
    fn size(&self) -> usize {
        self.node.size()
    }

    fn owned(&self) -> Range<usize> {
        self.node.rank()..self.node.rank() + 1
    }

    fn phase<R>(&mut self, phase: Phase, f: impl FnOnce(&mut Self) -> R) -> Result<R, SadError> {
        // The collective boundary: a 1-byte deterministic-cost broadcast
        // of the root's verdict, so virtual clocks stay reproducible.
        let verdict = (self.node.rank() == 0).then(|| self.ctx.cancel_requested());
        if self.node.broadcast(0, verdict) {
            return Err(SadError::Cancelled { phase });
        }
        self.ctx.rank_enter(phase);
        let entered = self.node.clock();
        let out = f(self);
        let advance = self.node.clock() - entered;
        self.ctx.rank_exit(phase, std::mem::replace(&mut self.work, Work::ZERO), advance);
        Ok(out)
    }

    fn charge(&mut self, work: Work) {
        self.node.compute(work);
        self.work += work;
    }

    fn each<S: Send, T: Send>(
        &mut self,
        per_rank: Vec<S>,
        f: impl Fn(usize, S) -> (T, Work) + Sync,
    ) -> Vec<T> {
        let (out, work) = f(self.node.rank(), only(per_rank));
        self.charge(work);
        vec![out]
    }

    fn gather<M: WireSize + Send + 'static>(&mut self, mine: Vec<M>) -> Option<Vec<M>> {
        self.node.gather(0, only(mine))
    }

    fn broadcast<M: WireSize + Clone + Send + 'static>(&mut self, value: Option<M>) -> M {
        self.node.broadcast(0, value)
    }

    fn all_to_allv<M: WireSize + Send + 'static>(
        &mut self,
        blocks: Vec<Vec<Vec<M>>>,
    ) -> Vec<Vec<Vec<M>>> {
        vec![self.node.all_to_allv(only(blocks))]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aligner, Backend, CancelToken, Event};
    use bioseq::Msa;
    use rosegen::{Family, FamilyConfig};
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};
    use vcluster::CostModel;

    fn family(n: usize, len: usize, seed: u64) -> Vec<Sequence> {
        Family::generate(&FamilyConfig {
            n_seqs: n,
            avg_len: len,
            relatedness: 700.0,
            seed,
            ..Default::default()
        })
        .seqs
    }

    fn run(p: usize, seqs: &[Sequence], cfg: &SadConfig) -> RunReport {
        let cluster = VirtualCluster::new(p, CostModel::beowulf_2008());
        Aligner::new(cfg.clone()).backend(Backend::Distributed(cluster)).run(seqs).unwrap()
    }

    fn check_complete(result: &Msa, input: &[Sequence]) {
        result.validate().unwrap();
        assert_eq!(result.num_rows(), input.len());
        let by_id: HashMap<&str, &Sequence> = input.iter().map(|s| (s.id.as_str(), s)).collect();
        for r in 0..result.num_rows() {
            let id = &result.ids()[r];
            let want = by_id.get(id.as_str()).unwrap_or_else(|| panic!("alien row {id}"));
            assert_eq!(&result.ungapped(r), *want, "row {id} corrupted");
        }
    }

    #[test]
    fn end_to_end_small() {
        let seqs = family(24, 60, 1);
        let report = run(4, &seqs, &SadConfig::default());
        check_complete(&report.msa, &seqs);
        assert_eq!(report.bucket_sizes.iter().sum::<usize>(), 24);
        assert!(report.makespan().unwrap() > 0.0);
    }

    #[test]
    fn deterministic() {
        let seqs = family(16, 50, 2);
        let a = run(4, &seqs, &SadConfig::default());
        let b = run(4, &seqs, &SadConfig::default());
        assert_eq!(a.msa, b.msa);
        assert_eq!(a.makespan(), b.makespan());
        assert_eq!(a.bucket_sizes, b.bucket_sizes);
        assert_eq!(a.work, b.work);
    }

    #[test]
    fn p1_is_one_engine_run_over_everything() {
        // With one rank the pipeline degenerates to "sort by rank, then run
        // the engine once" — same sequences, one bucket, no glue artifacts.
        let seqs = family(10, 50, 3);
        let report = run(1, &seqs, &SadConfig::default());
        check_complete(&report.msa, &seqs);
        assert_eq!(report.bucket_sizes, vec![10]);
    }

    #[test]
    fn more_ranks_than_sequences() {
        let seqs = family(3, 40, 4);
        let report = run(8, &seqs, &SadConfig::default());
        check_complete(&report.msa, &seqs);
    }

    #[test]
    fn fine_tune_beats_block_diagonal() {
        let seqs = family(20, 60, 6);
        let cfg_on = SadConfig::default();
        let cfg_off = SadConfig::default().with_fine_tune(false);
        let on = run(4, &seqs, &cfg_on);
        let off = run(4, &seqs, &cfg_off);
        check_complete(&on.msa, &seqs);
        check_complete(&off.msa, &seqs);
        let (m, g) = (&bioseq::SubstMatrix::blosum62(), bioseq::GapPenalties::default());
        assert!(
            on.msa.sp_score(m, g) > off.msa.sp_score(m, g),
            "ancestor fine-tuning must improve the glued SP score"
        );
    }

    #[test]
    fn scaling_reduces_makespan() {
        // Large enough that the w² distance term dominates.
        let seqs = family(96, 60, 7);
        let t1 = run(1, &seqs, &SadConfig::default()).makespan().unwrap();
        let t4 = run(4, &seqs, &SadConfig::default()).makespan().unwrap();
        assert!(t4 < t1, "4 ranks ({t4:.4}s) should beat 1 rank ({t1:.4}s)");
    }

    #[test]
    fn phases_present_in_report() {
        let seqs = family(12, 40, 8);
        let report = run(2, &seqs, &SadConfig::default());
        assert_eq!(
            report.phase_sequence(),
            vec![
                Phase::LocalKmerRank,
                Phase::LocalSort,
                Phase::SampleExchange,
                Phase::GlobalizedRank,
                Phase::Redistribute,
                Phase::LocalAlign,
                Phase::LocalAncestor,
                Phase::GlobalAncestor,
                Phase::FineTune,
                Phase::Glue,
            ]
        );
        let table = report.phase_table();
        // SubPartition (max_bucket) and Trim are opt-in, and AnchorScan
        // and BlockAlign are never recorded; every other phase must show
        // up in a default run's table.
        for phase in Phase::ALL.into_iter().filter(|&p| {
            !matches!(p, Phase::SubPartition | Phase::AnchorScan | Phase::BlockAlign | Phase::Trim)
        }) {
            assert!(table.contains(phase.name()), "missing phase {phase}:\n{table}");
        }
        // Compute-bearing phases carry their work in the unified report.
        let of = |phase: Phase| report.phase(phase).map(|p| p.work).unwrap_or(Work::ZERO);
        assert!(of(Phase::LocalKmerRank).kmer_ops > 0);
        assert!(of(Phase::LocalAlign).dp_cells > 0);
        assert_eq!(report.work, report.phases.iter().map(|p| p.work).sum::<Work>());
        // Every phase carries real wall time AND the virtual max across
        // ranks (the distributed backend models both clocks).
        for p in &report.phases {
            assert!(p.seconds.is_some(), "{} lost its wall clock", p.name());
            assert!(p.virtual_seconds.is_some(), "{} lost its virtual clock", p.name());
        }
    }

    #[test]
    fn phase_virtual_seconds_reconcile_with_rank_traces() {
        let seqs = family(60, 60, 8);
        for cfg in [SadConfig::default(), SadConfig::default().with_max_bucket(Some(8))] {
            let report = run(3, &seqs, &cfg);
            let makespan = report.makespan().unwrap();
            let mut phases_sum = 0.0;
            for p in &report.phases {
                let v = p.virtual_seconds.unwrap_or_else(|| panic!("{} is untimed", p.name()));
                assert!((0.0..=makespan).contains(&v), "{}: {v} outside [0, {makespan}]", p.name());
                phases_sum += v;
            }
            // Every charge happens inside a phase, so no rank computes for
            // longer than the per-phase maxima add up to.
            for t in report.traces().unwrap() {
                assert!(
                    t.compute_s <= phases_sum * (1.0 + 1e-9),
                    "rank {}: compute {} > phase sum {phases_sum}",
                    t.rank,
                    t.compute_s
                );
            }
        }
    }

    #[test]
    fn load_imbalance_reported() {
        let seqs = family(64, 50, 9);
        let report = run(4, &seqs, &SadConfig::default());
        let imb = report.load_imbalance();
        assert!(imb >= 1.0);
        // Regular sampling bound: max ≤ 2·N/p ⇒ imbalance ≤ 2 (+ slack for
        // duplicate ranks in small samples).
        assert!(imb <= 3.0, "imbalance {imb} suspiciously high");
    }

    /// Run a capped 60-sequence family on 3 ranks, recording every event;
    /// `on_event` may cancel the run's token.
    fn capped_run(
        on_event: impl Fn(&Event, &CancelToken) + Send + Sync + 'static,
    ) -> (Result<RunReport, SadError>, Vec<Event>) {
        let events: Arc<Mutex<Vec<Event>>> = Default::default();
        let sink = Arc::clone(&events);
        let token = CancelToken::new();
        let trigger = token.clone();
        let result = Aligner::new(SadConfig::default().with_max_bucket(Some(8)))
            .backend(Backend::Distributed(VirtualCluster::new(3, CostModel::beowulf_2008())))
            .cancel_token(token)
            .observer(Arc::new(move |e: &Event| {
                sink.lock().unwrap().push(e.clone());
                on_event(e, &trigger);
            }))
            .run(&family(60, 60, 8));
        let events = events.lock().unwrap().clone();
        (result, events)
    }

    #[test]
    fn capped_run_splits_buckets_on_the_cluster() {
        let (report, events) = capped_run(|_, _| {});
        let report = report.unwrap();
        assert!(report.bucket_sizes.iter().all(|&b| b <= 8), "{:?}", report.bucket_sizes);
        assert_eq!(report.bucket_sizes.iter().sum::<usize>(), 60);
        let deepest = events
            .iter()
            .filter_map(|e| match e {
                Event::BucketSplit { bucket, depth, size, .. } => {
                    assert!(*bucket < 3 && *size > 8);
                    Some(*depth)
                }
                _ => None,
            })
            .max();
        assert_eq!(deepest, Some(report.decomposition_depth), "splits are announced");
        assert!(report.phase(Phase::SubPartition).unwrap().virtual_seconds.is_some());
    }

    #[test]
    fn cancelled_capped_run_stops_every_rank_at_one_boundary() {
        // Cancel the moment the first split is announced: ranks are then
        // anywhere inside or just past step 7, and the broadcast verdict
        // must still cut all of them at the same later boundary.
        let (result, events) = capped_run(|e, token| {
            if matches!(e, Event::BucketSplit { .. }) {
                token.cancel();
            }
        });
        let Err(SadError::Cancelled { phase }) = result else {
            panic!("expected a cancelled run, got {result:?}");
        };
        assert!(phase > Phase::SubPartition, "cut at {phase}");
        let of = |want: fn(&Event) -> Option<Phase>| -> Vec<Phase> {
            events.iter().filter_map(want).collect()
        };
        let started = of(|e| match e {
            Event::PhaseStarted { phase } => Some(*phase),
            _ => None,
        });
        let finished = of(|e| match e {
            Event::PhaseFinished { phase, .. } => Some(*phase),
            _ => None,
        });
        // No rank entered the cut phase, and every rank left each phase
        // any rank entered (a straggler would leave it unfinished).
        assert!(!started.contains(&phase));
        assert_eq!(started, finished);
    }

    #[test]
    fn clustal_engine_works_too() {
        let seqs = family(12, 40, 10);
        let cfg = SadConfig::default().with_engine(align::EngineChoice::Clustal);
        let report = run(3, &seqs, &cfg);
        check_complete(&report.msa, &seqs);
    }
}
