//! The batch subsystem: many families per process.
//!
//! The paper positions Sample-Align-D as a *high-throughput* system —
//! Pyro-Align runs the same sampling pipeline over huge batches of read
//! sets, and the domain decomposition amortizes best when the machine
//! stays saturated across workloads. [`crate::Aligner::run_batch`] is that
//! many-jobs-per-process path:
//!
//! * an ordered set of named [`BatchJob`]s goes in;
//! * the workspace's one self-scheduling worker pool ([`bioseq::pool`])
//!   runs them on every backend — workers steal the next job the moment
//!   they go idle, and a
//!   [`Distributed`](crate::Backend::Distributed) job builds fresh
//!   virtual-cluster nodes per run, so its virtual clocks stay
//!   deterministic whichever worker runs it;
//! * each worker owns one [`DpArena`] of DP scratch, reused across all
//!   its jobs on the `Sequential` per-job backend (whose engine runs on
//!   the worker thread itself; the decomposed backends run their engines
//!   on internal worker threads with their own scratch);
//! * a [`BatchReport`] comes back: one `Result<RunReport, SadError>` per
//!   job (failures are isolated — a bad job never aborts its batch) plus
//!   aggregate throughput.
//!
//! ```
//! use sad_core::{Aligner, BatchJob, SadConfig};
//! # let fam = |seed| rosegen::Family::generate(&rosegen::FamilyConfig {
//! #     n_seqs: 6, avg_len: 40, relatedness: 600.0, seed, ..Default::default()
//! # }).seqs;
//! let jobs = vec![BatchJob::new("fam-a", fam(1)), BatchJob::new("fam-b", fam(2))];
//! let batch = Aligner::new(SadConfig::default()).run_batch(&jobs);
//! assert_eq!(batch.succeeded(), 2);
//! for job in &batch.jobs {
//!     let report = job.outcome.as_ref().expect("generated families align");
//!     assert_eq!(report.msa.num_rows(), 6);
//! }
//! println!("{}", batch.summary_table());
//! ```

use crate::aligner::{Aligner, Backend};
use crate::error::SadError;
use crate::pipeline::{CancelToken, Event};
use crate::report::RunReport;
use align::DpArena;
use bioseq::{pool, Sequence, Work};
use std::time::Instant;

/// One named unit of batch work: a family to align.
#[derive(Debug, Clone, Default)]
pub struct BatchJob {
    /// Caller-chosen id, echoed in events, reports and tables (the CLI
    /// uses the input file stem).
    pub id: String,
    /// The family to align.
    pub seqs: Vec<Sequence>,
    /// Optional per-job cancellation: cancelling this token stops *this*
    /// job at its next phase boundary without touching the rest of the
    /// batch. Fused at run time with the aligner's batch-wide token.
    pub cancel: Option<CancelToken>,
}

impl BatchJob {
    /// A job with the given id and input family.
    pub fn new(id: impl Into<String>, seqs: Vec<Sequence>) -> Self {
        BatchJob { id: id.into(), seqs, cancel: None }
    }

    /// Attach a per-job cancellation token (keep a clone to trigger it).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// One job's slice of a [`BatchReport`].
///
/// Marked `#[non_exhaustive]`: produced by the batch runner, read freely.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct JobReport {
    /// The job's id, as submitted.
    pub id: String,
    /// Input size of the job.
    pub n_seqs: usize,
    /// Real wall-clock seconds the job took on its worker.
    pub seconds: f64,
    /// The run's outcome — per-job failures land here instead of
    /// aborting the batch.
    pub outcome: Result<RunReport, SadError>,
}

/// The outcome of one [`crate::Aligner::run_batch`]: per-job reports in
/// submission order plus batch-wide aggregates.
///
/// Marked `#[non_exhaustive]`: construct via the aligner, read freely.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct BatchReport {
    /// Per-job outcomes, in submission order (whatever order workers
    /// finished them in).
    pub jobs: Vec<JobReport>,
    /// Real wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
    /// Workers the batch was scheduled over.
    pub workers: usize,
    /// Aggregate work over the jobs that succeeded. Summed componentwise
    /// (`Work`'s `Add`), so the banded/full DP counters stay in step —
    /// the audit invariant [`crate::audit::dp_accounting_ok`] is asserted
    /// on this aggregate.
    pub work: Work,
}

impl BatchReport {
    /// How many jobs produced an alignment.
    pub fn succeeded(&self) -> usize {
        self.jobs.iter().filter(|j| j.outcome.is_ok()).count()
    }

    /// How many jobs failed (typed per-job errors).
    pub fn failed(&self) -> usize {
        self.jobs.len() - self.succeeded()
    }

    /// The report of the job with the given id, if it was in the batch.
    pub fn job(&self, id: &str) -> Option<&JobReport> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// Batch throughput: jobs completed (successfully or not) per real
    /// wall-clock second.
    pub fn jobs_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.jobs.len() as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// The per-job summary every batch surface prints: id, input size,
    /// alignment rows, work units, banded/full DP cells, per-job wall
    /// seconds and status, closed by an aggregate row with throughput.
    pub fn summary_table(&self) -> String {
        use crate::report::dp_pair;
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>6} {:>6} {:>14} {:>21} {:>12}  status",
            "job", "seqs", "rows", "work units", "dp cells (band/full)", "wall (s)"
        );
        let mut rows_total = 0usize;
        for job in &self.jobs {
            match &job.outcome {
                Ok(report) => {
                    rows_total += report.msa.num_rows();
                    let _ = writeln!(
                        out,
                        "{:<24} {:>6} {:>6} {:>14} {:>21} {:>12.4}  ok",
                        job.id,
                        job.n_seqs,
                        report.msa.num_rows(),
                        report.work.total_units(),
                        dp_pair(&report.work),
                        job.seconds,
                    );
                }
                Err(err) => {
                    let _ = writeln!(
                        out,
                        "{:<24} {:>6} {:>6} {:>14} {:>21} {:>12}  error: {}",
                        job.id, job.n_seqs, "-", "-", "-", "-", err,
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "{:<24} {:>6} {:>6} {:>14} {:>21} {:>12.4}  {} ok, {} failed, {:.2} jobs/s",
            "total",
            self.jobs.iter().map(|j| j.n_seqs).sum::<usize>(),
            rows_total,
            self.work.total_units(),
            dp_pair(&self.work),
            self.wall_seconds,
            self.succeeded(),
            self.failed(),
            self.jobs_per_second(),
        );
        out
    }
}

/// One worker's execution of one job: emit the `JobStarted`/`JobFinished`
/// pair around the shared single-run path, fusing the batch-wide token
/// with the job's own so either can stop it. The aligner's deadline is
/// batch-wide (`deadline_at` is stamped once when the batch starts), so
/// each job runs under whatever share of the budget remains.
fn run_job(
    aligner: &Aligner,
    index: usize,
    job: &BatchJob,
    deadline_at: Option<Instant>,
    arena: &mut DpArena,
) -> JobReport {
    let cancel = match (aligner.cancel_ref(), &job.cancel) {
        (None, None) => None,
        (Some(batch), None) => Some(batch.clone()),
        (None, Some(own)) => Some(own.clone()),
        (Some(batch), Some(own)) => Some(CancelToken::fused([batch, own])),
    };
    // An exhausted budget leaves Duration::ZERO: the job still starts,
    // reports and finishes, but cancels at its first phase boundary.
    let budget = deadline_at.map(|d| d.saturating_duration_since(Instant::now()));
    if let Some(obs) = aligner.observer_ref() {
        obs.on_event(&Event::JobStarted { job: index, id: job.id.clone(), n_seqs: job.seqs.len() });
    }
    let t0 = Instant::now();
    // A job whose token is already poisoned must release its worker slot
    // immediately: skip pipeline setup entirely (no `RunStarted`/
    // `RunFinished`, no cluster spin-up) and report the same error the
    // first phase boundary would have produced.
    let outcome = if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
        Err(SadError::Cancelled { phase: first_phase(aligner) })
    } else {
        aligner.run_inner(&job.seqs, cancel, budget, arena)
    };
    let seconds = t0.elapsed().as_secs_f64();
    if let Some(obs) = aligner.observer_ref() {
        obs.on_event(&Event::JobFinished {
            job: index,
            id: job.id.clone(),
            seconds,
            ok: outcome.is_ok(),
        });
    }
    JobReport { id: job.id.clone(), n_seqs: job.seqs.len(), seconds, outcome }
}

/// The phase an aligner's pipeline would check first — what
/// [`SadError::Cancelled`] reports when a run is cancelled before any
/// work happens. Vertical mode opens with its anchor scan on every
/// backend; otherwise the sequential pipeline has no k-mer ranking
/// stage, so its first boundary is the local alignment itself.
fn first_phase(aligner: &Aligner) -> crate::pipeline::Phase {
    use crate::pipeline::Phase;
    if aligner.config().vertical.is_some() {
        return Phase::AnchorScan;
    }
    match aligner.backend_ref() {
        Backend::Sequential => Phase::LocalAlign,
        Backend::Rayon { .. } | Backend::Distributed(_) => Phase::LocalKmerRank,
    }
}

/// The batch runner behind [`crate::Aligner::run_batch`] /
/// [`crate::Aligner::run_batch_with`].
pub(crate) fn run_batch(
    aligner: &Aligner,
    jobs: &[BatchJob],
    workers: Option<usize>,
) -> BatchReport {
    let t0 = Instant::now();
    let deadline_at = aligner.deadline_budget().map(|d| t0 + d);
    let workers = workers.unwrap_or_else(pool::cores).clamp(1, jobs.len().max(1));

    // One scheduler for every backend: idle workers steal the next
    // unclaimed job, so a long job never strands its worker's queue. A
    // distributed backend is a plain `{p, cost}` value and every run
    // builds fresh nodes, so concurrent jobs can share it and each still
    // sees its own virtual cluster with deterministic clocks.
    let jobs_out = pool::map(jobs.len(), workers, DpArena::new, |i, arena| {
        run_job(aligner, i, &jobs[i], deadline_at, arena)
    });
    // Aggregate with Work::add so banded/full DP counters move in step;
    // the audit invariant catches any future double-counting regression.
    let work: Work = jobs_out.iter().filter_map(|j| j.outcome.as_ref().ok()).map(|r| r.work).sum();
    assert!(
        crate::audit::dp_accounting_ok(&work),
        "batch aggregate double-counts DP cells: {} filled vs {} full-equivalent",
        work.dp_cells,
        work.dp_cells_full
    );
    BatchReport { jobs: jobs_out, wall_seconds: t0.elapsed().as_secs_f64(), workers, work }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SadConfig;
    use crate::pipeline::Phase;
    use rosegen::{Family, FamilyConfig};
    use std::sync::{Arc, Mutex};
    use vcluster::{CostModel, VirtualCluster};

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

    fn jobs(n_jobs: usize) -> Vec<BatchJob> {
        (0..n_jobs).map(|i| BatchJob::new(format!("fam-{i}"), family(6 + i, i as u64))).collect()
    }

    #[test]
    fn batch_preserves_submission_order_and_parity() {
        let jobs = jobs(4);
        let aligner = Aligner::new(SadConfig::default());
        let batch = aligner.run_batch_with(&jobs, 3);
        assert_eq!(batch.jobs.len(), 4);
        assert_eq!(batch.succeeded(), 4);
        assert_eq!(batch.failed(), 0);
        assert_eq!(batch.workers, 3);
        for (job, submitted) in batch.jobs.iter().zip(&jobs) {
            assert_eq!(job.id, submitted.id, "report order is submission order");
            assert_eq!(job.n_seqs, submitted.seqs.len());
            let single = aligner.run(&submitted.seqs).unwrap();
            let batched = job.outcome.as_ref().unwrap();
            assert_eq!(batched.msa, single.msa, "{}", job.id);
            assert_eq!(batched.work, single.work, "{}", job.id);
        }
        assert_eq!(
            batch.work,
            batch.jobs.iter().map(|j| j.outcome.as_ref().unwrap().work).sum::<Work>(),
            "aggregate equals the componentwise per-job sum"
        );
        assert!(batch.wall_seconds > 0.0);
        assert!(batch.jobs_per_second() > 0.0);
    }

    #[test]
    fn worker_count_is_clamped() {
        let jobs = jobs(2);
        let aligner = Aligner::new(SadConfig::default());
        assert_eq!(aligner.run_batch_with(&jobs, 0).workers, 1, "zero clamps to one");
        assert_eq!(aligner.run_batch_with(&jobs, 64).workers, 2, "capped by batch size");
        let empty = aligner.run_batch(&[]);
        assert_eq!(empty.jobs.len(), 0);
        assert_eq!(empty.succeeded(), 0);
        assert_eq!(empty.jobs_per_second(), 0.0);
    }

    #[test]
    fn failures_are_isolated_per_job() {
        let mut all = jobs(2);
        all.insert(1, BatchJob::new("solo", family(1, 9)));
        let batch = Aligner::new(SadConfig::default()).run_batch_with(&all, 2);
        assert_eq!(batch.succeeded(), 2);
        assert_eq!(batch.failed(), 1);
        assert_eq!(batch.job("solo").unwrap().outcome, Err(SadError::TooFewSequences { found: 1 }));
        assert!(batch.job("fam-0").unwrap().outcome.is_ok());
        assert!(batch.job("fam-1").unwrap().outcome.is_ok());
        assert!(batch.job("missing").is_none());
    }

    #[test]
    fn per_job_cancel_poisons_only_its_job() {
        let poison = CancelToken::new();
        poison.cancel();
        let all = vec![
            BatchJob::new("ok-a", family(6, 1)),
            BatchJob::new("poisoned", family(6, 2)).with_cancel(poison),
            BatchJob::new("ok-b", family(6, 3)),
        ];
        let batch = Aligner::new(SadConfig::default()).run_batch_with(&all, 2);
        assert_eq!(batch.succeeded(), 2);
        assert_eq!(
            batch.job("poisoned").unwrap().outcome,
            Err(SadError::Cancelled { phase: Phase::LocalAlign })
        );
    }

    #[test]
    fn poisoned_job_releases_its_slot_without_entering_the_pipeline() {
        // A pre-cancelled job must be reported `JobStarted`/`JobFinished`
        // but never reach pipeline setup: no `RunStarted` may be emitted
        // for it, and its wall-clock must be negligible — that's what
        // "releases the worker slot immediately" means.
        let poison = CancelToken::new();
        poison.cancel();
        let events = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let all = vec![
            BatchJob::new("poisoned", family(6, 2)).with_cancel(poison.clone()),
            BatchJob::new("ok", family(6, 1)),
        ];
        let vertical = SadConfig::default().with_vertical(crate::VerticalConfig::default());
        for backend in [
            Backend::Sequential,
            Backend::Rayon { threads: 2 },
            Backend::Distributed(VirtualCluster::new(2, CostModel::beowulf_2008())),
        ] {
            for cfg in [SadConfig::default(), vertical.clone()] {
                let what = format!("{} vertical={}", backend.name(), cfg.vertical.is_some());
                events.lock().unwrap().clear();
                let recorder = Arc::new({
                    let sink = Arc::clone(&sink);
                    move |e: &Event| sink.lock().unwrap().push(e.clone())
                });
                let aligner = Aligner::new(cfg).backend(backend.clone());
                // The batch reports the phase a single run stops at.
                let single = aligner.clone().cancel_token(poison.clone()).run(&all[0].seqs);
                let batch = aligner.observer(recorder).run_batch_with(&all, 1);
                assert_eq!(batch.job("poisoned").unwrap().outcome, single, "{what}");
                assert_eq!(batch.succeeded(), 1, "{what}");
                let log = events.lock().unwrap();
                // Workers run jobs in order: the poisoned job's started/
                // finished pair comes first, and the only RunStarted in the
                // stream belongs to the healthy job.
                let runs = log.iter().filter(|e| matches!(e, Event::RunStarted { .. })).count();
                assert_eq!(runs, 1, "{what}: poisoned job must not enter the pipeline");
                let poisoned_finish = log
                    .iter()
                    .find_map(|e| match e {
                        Event::JobFinished { id, ok, .. } if id == "poisoned" => Some(*ok),
                        _ => None,
                    })
                    .expect("poisoned job reports JobFinished");
                assert!(!poisoned_finish, "{what}");
            }
        }
    }

    #[test]
    fn batch_wide_cancel_stops_every_job() {
        let token = CancelToken::new();
        token.cancel();
        let batch =
            Aligner::new(SadConfig::default()).cancel_token(token).run_batch_with(&jobs(3), 2);
        assert_eq!(batch.succeeded(), 0);
        for job in &batch.jobs {
            assert!(
                matches!(job.outcome, Err(SadError::Cancelled { .. })),
                "{}: {:?}",
                job.id,
                job.outcome
            );
        }
    }

    #[test]
    fn deadline_is_batch_wide_not_per_job() {
        use std::time::Duration;
        // A zero budget is exhausted before the first job starts: every
        // job must cancel at its first phase boundary — the budget spans
        // the batch, it does not restart per job.
        let batch =
            Aligner::new(SadConfig::default()).deadline(Duration::ZERO).run_batch_with(&jobs(3), 2);
        assert_eq!(batch.succeeded(), 0);
        for job in &batch.jobs {
            assert!(
                matches!(job.outcome, Err(SadError::Cancelled { .. })),
                "{}: {:?}",
                job.id,
                job.outcome
            );
        }
        // A generous budget lets the whole batch through.
        let ok = Aligner::new(SadConfig::default())
            .deadline(Duration::from_secs(3600))
            .run_batch_with(&jobs(2), 1);
        assert_eq!(ok.failed(), 0);
    }

    #[test]
    fn distributed_batch_equals_single_runs_including_makespan() {
        let jobs = jobs(5);
        let cluster = VirtualCluster::new(2, CostModel::beowulf_2008());
        let aligner = Aligner::new(SadConfig::default()).backend(Backend::Distributed(cluster));
        let batch = aligner.run_batch_with(&jobs, 2);
        assert_eq!(batch.succeeded(), 5);
        for (job, submitted) in batch.jobs.iter().zip(&jobs) {
            let single = aligner.run(&submitted.seqs).unwrap();
            let report = job.outcome.as_ref().unwrap();
            assert_eq!(report.msa, single.msa, "{}", job.id);
            assert_eq!(report.makespan(), single.makespan(), "{}", job.id);
        }
    }

    #[test]
    fn summary_table_lists_jobs_and_totals() {
        let mut all = jobs(2);
        all.push(BatchJob::new("solo", family(1, 8)));
        let batch = Aligner::new(SadConfig::default()).run_batch(&all);
        let table = batch.summary_table();
        assert!(table.contains("job"), "{table}");
        assert!(table.contains("fam-0"), "{table}");
        assert!(table.contains("fam-1"), "{table}");
        assert!(table.contains("error: need at least 2 sequences to align, got 1"), "{table}");
        assert!(table.contains("total"), "{table}");
        assert!(table.contains("2 ok, 1 failed"), "{table}");
        assert!(table.contains("jobs/s"), "{table}");
        assert!(table.contains("dp cells (band/full)"), "{table}");
    }

    #[test]
    fn invalid_config_fails_every_job_without_running() {
        let batch = Aligner::new(SadConfig::default().with_kmer_k(0)).run_batch(&jobs(2));
        assert_eq!(batch.failed(), 2);
        for job in &batch.jobs {
            assert_eq!(job.outcome, Err(SadError::ZeroKmerLen), "{}", job.id);
        }
    }

    #[test]
    fn observer_sees_paired_job_events() {
        let events: Arc<Mutex<Vec<Event>>> = Arc::default();
        let sink = Arc::clone(&events);
        let jobs = jobs(3);
        let batch = Aligner::new(SadConfig::default())
            .observer(Arc::new(move |e: &Event| sink.lock().unwrap().push(e.clone())))
            .run_batch_with(&jobs, 2);
        assert_eq!(batch.succeeded(), 3);
        let events = events.lock().unwrap();
        for (i, job) in jobs.iter().enumerate() {
            let started =
                events.iter().position(|e| matches!(e, Event::JobStarted { job, .. } if *job == i));
            let finished = events
                .iter()
                .position(|e| matches!(e, Event::JobFinished { job, ok: true, .. } if *job == i));
            let (s, f) = (started.expect("JobStarted"), finished.expect("JobFinished"));
            assert!(s < f, "job {i} finished before it started");
            assert!(
                matches!(&events[s], Event::JobStarted { id, n_seqs, .. }
                    if *id == job.id && *n_seqs == job.seqs.len()),
                "job {i} metadata"
            );
        }
    }
}
