//! The [`Aligner`] builder — one entry point, three backends.
//!
//! The paper's pitch is one pipeline on many substrates: the same
//! sample-sort decomposition runs sequentially, on shared memory, or on a
//! message-passing cluster. The builder makes that literal:
//!
//! ```
//! use sad_core::{Aligner, Backend, SadConfig};
//! use vcluster::{CostModel, VirtualCluster};
//! # let seqs = rosegen::Family::generate(&rosegen::FamilyConfig {
//! #     n_seqs: 8, avg_len: 40, relatedness: 600.0, ..Default::default()
//! # }).seqs;
//!
//! let cluster = VirtualCluster::new(4, CostModel::beowulf_2008());
//! let report = Aligner::new(SadConfig::default())
//!     .backend(Backend::Distributed(cluster))
//!     .run(&seqs)
//!     .expect("valid input");
//! assert_eq!(report.msa.num_rows(), seqs.len());
//! assert!(report.makespan().unwrap() > 0.0);
//! ```
//!
//! Swapping `Backend::Distributed(..)` for `Backend::Rayon { threads: 4 }`
//! or `Backend::Sequential` changes the substrate, not the caller: every
//! backend returns the same [`RunReport`].
//!
//! Runs are observable and stoppable. Register an [`Observer`] to receive
//! typed [`Event`](crate::Event)s, hand in a [`CancelToken`] or a
//! wall-clock [`deadline`](Aligner::deadline) to stop a run at its next
//! phase boundary:
//!
//! ```
//! use sad_core::{Aligner, CancelToken, Phase, SadConfig, SadError};
//! # let seqs = rosegen::Family::generate(&rosegen::FamilyConfig {
//! #     n_seqs: 8, avg_len: 40, relatedness: 600.0, ..Default::default()
//! # }).seqs;
//! let token = CancelToken::new();
//! token.cancel(); // e.g. from another thread, mid-run
//! let err = Aligner::new(SadConfig::default())
//!     .cancel_token(token)
//!     .run(&seqs)
//!     .unwrap_err();
//! assert_eq!(err, SadError::Cancelled { phase: Phase::LocalAlign });
//! ```

use crate::batch::{BatchJob, BatchReport};
use crate::config::SadConfig;
use crate::error::SadError;
use crate::pipeline::{CancelToken, Observer, PipelineCtx};
use crate::report::RunReport;
use align::DpArena;
use bioseq::Sequence;
use std::sync::Arc;
use std::time::Duration;
use vcluster::VirtualCluster;

/// The execution substrate for one run.
#[derive(Debug, Clone, Default)]
pub enum Backend {
    /// The configured engine run directly on the whole set (the paper's
    /// speedup baseline).
    #[default]
    Sequential,
    /// The Sample-Align-D pipeline with every rank in shared memory.
    Rayon {
        /// Logical ranks (the `p` of the decomposition): the input is
        /// bucketed exactly as on a `p`-rank cluster. OS threads in
        /// flight are `min(threads, available cores)`.
        threads: usize,
    },
    /// The same pipeline, one thread per rank of a virtual cluster.
    Distributed(VirtualCluster),
}

impl Backend {
    /// Stable name for tables and logs.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Sequential => "sequential",
            Backend::Rayon { .. } => "rayon",
            Backend::Distributed(_) => "distributed",
        }
    }

    /// Decomposition width: 1 for sequential, the logical rank count for
    /// rayon (0 is invalid and refused by [`Aligner::run`]), the cluster's
    /// `p` for distributed.
    pub fn width(&self) -> usize {
        match self {
            Backend::Sequential => 1,
            Backend::Rayon { threads } => *threads,
            Backend::Distributed(cluster) => cluster.p(),
        }
    }
}

/// Builder for a Sample-Align-D run: configuration, backend choice, and
/// the run-control surface (observer, cancellation, deadline).
#[derive(Clone, Default)]
pub struct Aligner {
    cfg: SadConfig,
    backend: Backend,
    observer: Option<Arc<dyn Observer>>,
    cancel: Option<CancelToken>,
    deadline: Option<Duration>,
}

impl std::fmt::Debug for Aligner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aligner")
            .field("cfg", &self.cfg)
            .field("backend", &self.backend)
            .field("observer", &self.observer.is_some())
            .field("cancel", &self.cancel.is_some())
            .field("deadline", &self.deadline)
            .finish()
    }
}

impl Aligner {
    /// Start building a run with the given configuration. The default
    /// backend is [`Backend::Sequential`].
    pub fn new(cfg: SadConfig) -> Self {
        Aligner { cfg, ..Aligner::default() }
    }

    /// Select the execution backend.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Register an observer receiving [`crate::Event`]s for every run this
    /// aligner starts: `RunStarted`, `PhaseStarted`/`PhaseFinished` with
    /// real wall-clock seconds, `BucketAligned`, `RunFinished`. Events are
    /// delivered synchronously; observers should be cheap.
    pub fn observer(mut self, observer: Arc<dyn Observer>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attach a cancellation token. Keep a clone; calling
    /// [`CancelToken::cancel`] on it — from another thread, from an
    /// observer — stops the run at its next phase boundary with
    /// [`SadError::Cancelled`].
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Give the run a wall-clock budget, measured from the moment
    /// [`Aligner::run`] starts. When it is exhausted the run stops at the
    /// next phase boundary with [`SadError::Cancelled`] — the pipeline is
    /// cooperative, so a long-running phase finishes before the check.
    ///
    /// In a batch the budget is batch-wide: it is measured from the start
    /// of [`Aligner::run_batch`], and each job runs under whatever share
    /// remains (jobs starting after exhaustion cancel at their first
    /// phase boundary).
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// The configuration this aligner will run with.
    pub fn config(&self) -> &SadConfig {
        &self.cfg
    }

    /// Validate configuration and input with
    /// [`SadConfig::validate_for`], then run the pipeline on the selected
    /// backend.
    pub fn run(&self, seqs: &[Sequence]) -> Result<RunReport, SadError> {
        self.run_inner(seqs, self.cancel.clone(), self.deadline, &mut DpArena::new())
    }

    /// Run many independent families through this aligner's backend with
    /// the default worker count (the host's available parallelism, capped
    /// by the batch size). See [`Aligner::run_batch_with`].
    pub fn run_batch(&self, jobs: &[BatchJob]) -> BatchReport {
        crate::batch::run_batch(self, jobs, None)
    }

    /// Run many independent families through this aligner's backend,
    /// scheduling across `workers` concurrent workers (clamped to
    /// `1..=jobs.len()`).
    ///
    /// One scheduler serves every backend: workers pull the next job from
    /// a shared queue the moment they go idle, and every job runs on this
    /// aligner's backend (a [`Backend::Distributed`] run builds fresh
    /// virtual-cluster nodes, so concurrent jobs never share clocks).
    /// Each worker owns one [`DpArena`] of DP scratch, reused across its
    /// jobs on the `Sequential` per-job backend (the decomposed backends
    /// keep scratch on their own internal worker threads).
    ///
    /// Failures never abort the batch: each [`BatchJob`] yields its own
    /// `Result<RunReport, SadError>` inside the returned [`BatchReport`].
    /// The aligner's [`CancelToken`] acts batch-wide (every remaining job
    /// stops at its next phase boundary), a job's own
    /// [`BatchJob::with_cancel`] token stops just that job, and a
    /// registered [`Observer`] additionally receives
    /// [`Event::JobStarted`](crate::Event::JobStarted)/
    /// [`Event::JobFinished`](crate::Event::JobFinished) pairs — from
    /// concurrent workers, so events of different jobs interleave.
    pub fn run_batch_with(&self, jobs: &[BatchJob], workers: usize) -> BatchReport {
        crate::batch::run_batch(self, jobs, Some(workers))
    }

    /// The shared single-run path: `run` uses the builder's own token,
    /// deadline and a fresh arena; the batch runner substitutes per-job
    /// fused tokens, per-worker arenas and each job's *remaining* share of
    /// the batch-wide budget.
    pub(crate) fn run_inner(
        &self,
        seqs: &[Sequence],
        cancel: Option<CancelToken>,
        budget: Option<Duration>,
        scratch: &mut DpArena,
    ) -> Result<RunReport, SadError> {
        let backend = &self.backend;
        self.cfg.validate_for(seqs)?;
        let width = backend.width();
        if width == 0 {
            return Err(SadError::ZeroParallelism);
        }
        let ctx = PipelineCtx::new(backend.name(), width, self.observer.clone(), cancel, budget);
        ctx.run_started(seqs.len());
        let mut result = match backend {
            Backend::Sequential => {
                crate::sequential::sequential_pipeline(seqs, &self.cfg, &ctx, scratch)
            }
            Backend::Rayon { threads } => {
                crate::rayon_impl::shared_memory_pipeline(seqs, *threads, &self.cfg, &ctx)
            }
            Backend::Distributed(cluster) => {
                crate::distributed::distributed_pipeline(cluster, seqs, &self.cfg, &ctx)
            }
        };
        // The trim stage runs on the finished root alignment, so it is a
        // shared post-pass: one implementation, every backend (the
        // distributed protocol needs no collective — the root already
        // holds the glued MSA). The recorder was drained by the pipeline,
        // so a second drain yields exactly the trim phase's stat.
        if let Some(trim_cfg) = &self.cfg.trim {
            result = result.and_then(|mut report| {
                Self::trim_pass(&mut report, trim_cfg, &ctx)?;
                Ok(report)
            });
        }
        ctx.run_finished(matches!(result, Err(SadError::Cancelled { .. })));
        result
    }

    /// Apply the [`Phase::Trim`](crate::Phase::Trim) post-pass to a
    /// finished report: run the optimizer as a recorded phase, emit one
    /// [`Event::SequenceExcluded`](crate::Event::SequenceExcluded) per
    /// dropped row, and fold the phase's stat and work into the report.
    fn trim_pass(
        report: &mut RunReport,
        trim_cfg: &align::TrimConfig,
        ctx: &PipelineCtx,
    ) -> Result<(), SadError> {
        let outcome = ctx.phase(crate::Phase::Trim, || {
            let out = align::trim_msa(&report.msa, trim_cfg);
            for d in &out.dropped {
                ctx.sequence_excluded(d.id.clone(), d.area_gain);
            }
            let work = out.work;
            (out, work)
        })?;
        let (mut stats, extra) = ctx.drain();
        report.phases.append(&mut stats);
        report.work += extra;
        report.trim = Some(crate::report::TrimReport::from(&outcome));
        report.msa = outcome.msa;
        Ok(())
    }

    /// The selected backend (the batch runner names its first phase).
    pub(crate) fn backend_ref(&self) -> &Backend {
        &self.backend
    }

    /// The batch-wide cancellation token, if any.
    pub(crate) fn cancel_ref(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The registered observer, if any (the batch runner emits its
    /// `JobStarted`/`JobFinished` events through it).
    pub(crate) fn observer_ref(&self) -> Option<&Arc<dyn Observer>> {
        self.observer.as_ref()
    }

    /// The wall-clock budget, if any (the batch runner measures it from
    /// the start of the whole batch).
    pub(crate) fn deadline_budget(&self) -> Option<Duration> {
        self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Event, Phase};
    use rosegen::{Family, FamilyConfig};
    use std::sync::Mutex;
    use vcluster::CostModel;

    fn family(n: usize, seed: u64) -> Vec<Sequence> {
        Family::generate(&FamilyConfig {
            n_seqs: n,
            avg_len: 50,
            relatedness: 700.0,
            seed,
            ..Default::default()
        })
        .seqs
    }

    #[test]
    fn all_backends_return_the_same_report_shape() {
        let seqs = family(16, 1);
        let cfg = SadConfig::default();
        let cluster = VirtualCluster::new(4, CostModel::beowulf_2008());
        let seq = Aligner::new(cfg.clone()).run(&seqs).unwrap();
        let ray =
            Aligner::new(cfg.clone()).backend(Backend::Rayon { threads: 4 }).run(&seqs).unwrap();
        let dist = Aligner::new(cfg).backend(Backend::Distributed(cluster)).run(&seqs).unwrap();
        for report in [&seq, &ray, &dist] {
            assert_eq!(report.msa.num_rows(), 16);
            assert_eq!(report.bucket_sizes.iter().sum::<usize>(), 16);
            assert!(!report.work.is_zero());
            assert!(!report.phases.is_empty());
            // Every phase of a completed run carries real wall time.
            assert!(report.phases.iter().all(|p| p.seconds.is_some()), "{}", report.backend_name());
        }
        // Decomposed backends are step-identical; sequential differs in
        // columns but carries the same rows (checked in tests/).
        assert_eq!(ray.msa, dist.msa);
        assert_eq!(seq.ranks, 1);
        assert_eq!(ray.ranks, 4);
        assert_eq!(dist.ranks, 4);
        assert!(dist.makespan().is_some() && ray.makespan().is_none());
        // Only the distributed backend carries per-phase virtual maxima.
        assert!(dist.phases.iter().all(|p| p.virtual_seconds.is_some()));
        assert!(ray.phases.iter().all(|p| p.virtual_seconds.is_none()));
    }

    #[test]
    fn too_few_sequences_is_a_typed_error_not_a_panic() {
        let one = family(1, 2);
        for backend in [
            Backend::Sequential,
            Backend::Rayon { threads: 4 },
            Backend::Distributed(VirtualCluster::new(4, CostModel::beowulf_2008())),
        ] {
            let aligner = Aligner::new(SadConfig::default()).backend(backend);
            assert_eq!(aligner.run(&[]), Err(SadError::TooFewSequences { found: 0 }));
            assert_eq!(aligner.run(&one), Err(SadError::TooFewSequences { found: 1 }));
        }
    }

    #[test]
    fn invalid_config_is_rejected_before_running() {
        let seqs = family(8, 3);
        let zero_k = Aligner::new(SadConfig::default().with_kmer_k(0)).run(&seqs);
        assert_eq!(zero_k, Err(SadError::ZeroKmerLen));
        let zero_samples =
            Aligner::new(SadConfig::default().with_samples_per_rank(Some(0))).run(&seqs);
        assert_eq!(zero_samples, Err(SadError::ZeroSampleCount));
    }

    #[test]
    fn zero_threads_rejected() {
        let seqs = family(4, 6);
        let err =
            Aligner::new(SadConfig::default()).backend(Backend::Rayon { threads: 0 }).run(&seqs);
        assert_eq!(err, Err(SadError::ZeroParallelism));
    }

    /// Rayon and distributed runs of the same input must agree on
    /// everything but clocks: bytes, buckets, depth, phases, work.
    fn assert_decomposed_parity(seqs: &[Sequence], p: usize, cfg: &SadConfig) {
        let what = format!("n={} p={p} cap={:?}", seqs.len(), cfg.max_bucket);
        let cluster = VirtualCluster::new(p, CostModel::beowulf_2008());
        let ray =
            Aligner::new(cfg.clone()).backend(Backend::Rayon { threads: p }).run(seqs).unwrap();
        let dist =
            Aligner::new(cfg.clone()).backend(Backend::Distributed(cluster)).run(seqs).unwrap();
        assert_eq!(
            bioseq::fasta::write_alignment(&ray.msa),
            bioseq::fasta::write_alignment(&dist.msa),
            "{what}"
        );
        assert_eq!(ray.bucket_sizes, dist.bucket_sizes, "{what}");
        assert_eq!(ray.decomposition_depth, dist.decomposition_depth, "{what}");
        assert_eq!(ray.phase_sequence(), dist.phase_sequence(), "{what}");
        for (r, d) in ray.phases.iter().zip(&dist.phases) {
            assert_eq!(r.work, d.work, "{what}: {}", r.name());
        }
    }

    #[test]
    fn decomposed_backends_agree_on_tiny_and_capped_inputs() {
        // N <= p: the regime where the old shared-memory partition took a
        // shortcut the cluster's PSRS did not.
        for n in [2, 3, 5] {
            for p in [4, 8] {
                assert_decomposed_parity(&family(n, 20 + n as u64), p, &SadConfig::default());
            }
        }
        // Capped runs: sub-partitioning is rank-local, so every backend
        // with buckets honours the cap the same way.
        let capped = SadConfig::default().with_max_bucket(Some(8));
        for p in [2, 3] {
            assert_decomposed_parity(&family(60, 9), p, &capped);
        }
        let seqs = family(12, 9);
        let cfg = SadConfig::default().with_max_bucket(Some(4));
        let cluster = VirtualCluster::new(2, CostModel::beowulf_2008());
        let dist = Aligner::new(cfg.clone()).backend(Backend::Distributed(cluster)).run(&seqs);
        assert!(dist.unwrap().bucket_sizes.iter().all(|&b| b <= 4));
        // Sequential has no buckets and ignores the cap.
        assert_eq!(Aligner::new(cfg).run(&seqs).unwrap().bucket_sizes, vec![12]);
    }

    #[test]
    fn trim_stage_runs_on_every_backend() {
        let seqs = family(12, 11);
        let cfg = SadConfig::default().with_trim(align::TrimConfig::default());
        let cluster = VirtualCluster::new(2, CostModel::beowulf_2008());
        for backend in
            [Backend::Sequential, Backend::Rayon { threads: 2 }, Backend::Distributed(cluster)]
        {
            let report = Aligner::new(cfg.clone()).backend(backend).run(&seqs).unwrap();
            let trim = report.trim.expect("trim census present");
            assert!(trim.area_after >= trim.area_before, "area must never decrease");
            assert_eq!(report.msa.num_rows(), 12 - trim.rows_dropped);
            let stat = report.phase(Phase::Trim).expect("trim phase recorded");
            assert!(stat.seconds.is_some());
            // The report invariant survives the post-pass.
            assert_eq!(report.work, report.phases.iter().map(|p| p.work).sum());
            assert_eq!(report.phases.last().unwrap().phase, Phase::Trim);
        }
        // Untrimmed runs carry no census and no phase.
        let plain = Aligner::new(SadConfig::default()).run(&seqs).unwrap();
        assert_eq!(plain.trim, None);
        assert_eq!(plain.phase(Phase::Trim), None);
    }

    #[test]
    fn trim_events_name_the_dropped_rows() {
        let seqs = family(12, 12);
        let events: Arc<Mutex<Vec<Event>>> = Arc::default();
        let sink = Arc::clone(&events);
        let report = Aligner::new(SadConfig::default().with_trim(align::TrimConfig::default()))
            .observer(Arc::new(move |e: &Event| sink.lock().unwrap().push(e.clone())))
            .run(&seqs)
            .unwrap();
        let evs = events.lock().unwrap();
        let excluded: Vec<&Event> =
            evs.iter().filter(|e| matches!(e, Event::SequenceExcluded { .. })).collect();
        assert_eq!(excluded.len(), report.trim.unwrap().rows_dropped);
        // Exclusions arrive inside the Trim phase bracket.
        if !excluded.is_empty() {
            let started = evs
                .iter()
                .position(|e| matches!(e, Event::PhaseStarted { phase: Phase::Trim }))
                .expect("trim started");
            let finished = evs
                .iter()
                .position(|e| matches!(e, Event::PhaseFinished { phase: Phase::Trim, .. }))
                .expect("trim finished");
            let first = evs
                .iter()
                .position(|e| matches!(e, Event::SequenceExcluded { .. }))
                .expect("non-empty");
            assert!(started < first && first < finished);
        }
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(Backend::Sequential.name(), "sequential");
        assert_eq!(Backend::Rayon { threads: 2 }.name(), "rayon");
        let c = VirtualCluster::new(1, CostModel::beowulf_2008());
        assert_eq!(Backend::Distributed(c).name(), "distributed");
    }

    #[test]
    fn backend_width_is_the_decomposition_width() {
        assert_eq!(Backend::Sequential.width(), 1);
        assert_eq!(Backend::Rayon { threads: 3 }.width(), 3);
        let c = VirtualCluster::new(5, CostModel::beowulf_2008());
        assert_eq!(Backend::Distributed(c).width(), 5);
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_phase() {
        let seqs = family(8, 7);
        let token = CancelToken::new();
        token.cancel();
        let err =
            Aligner::new(SadConfig::default()).cancel_token(token.clone()).run(&seqs).unwrap_err();
        assert_eq!(err, SadError::Cancelled { phase: Phase::LocalAlign });
        // Validation failures still win over cancellation checks.
        let err = Aligner::new(SadConfig::default()).cancel_token(token).run(&seqs[..1]);
        assert_eq!(err, Err(SadError::TooFewSequences { found: 1 }));
    }

    #[test]
    fn zero_deadline_cancels_and_reports_run_finished() {
        let seqs = family(8, 8);
        let events: Arc<Mutex<Vec<Event>>> = Arc::default();
        let sink = Arc::clone(&events);
        let err = Aligner::new(SadConfig::default())
            .backend(Backend::Rayon { threads: 2 })
            .deadline(Duration::ZERO)
            .observer(Arc::new(move |e: &Event| sink.lock().unwrap().push(e.clone())))
            .run(&seqs)
            .unwrap_err();
        assert_eq!(err, SadError::Cancelled { phase: Phase::LocalKmerRank });
        let evs = events.lock().unwrap();
        assert!(matches!(evs.first(), Some(Event::RunStarted { backend: "rayon", .. })));
        assert!(matches!(evs.last(), Some(Event::RunFinished { cancelled: true, .. })));
    }

    #[test]
    fn debug_shows_control_surface_without_dumping_it() {
        let aligner = Aligner::new(SadConfig::default())
            .cancel_token(CancelToken::new())
            .deadline(Duration::from_secs(5));
        let dbg = format!("{aligner:?}");
        assert!(dbg.contains("cancel: true"), "{dbg}");
        assert!(dbg.contains("observer: false"), "{dbg}");
    }
}
