//! The first-class pipeline layer shared by every backend.
//!
//! The paper tells its speedup story phase by phase — sampling, ranking,
//! redistribution, bucket alignment, ancestor merge — so the run API makes
//! those phases first-class values instead of magic strings:
//!
//! * [`Phase`] — typed ids for the Section 2 pipeline steps;
//! * [`PipelineCtx`] — the one phase recorder every backend threads
//!   through its run: it times each phase in real wall-clock seconds,
//!   accumulates the per-phase [`Work`], emits [`Event`]s to an optional
//!   [`Observer`], and checks a shareable [`CancelToken`] (plus an
//!   optional deadline) at phase boundaries;
//! * [`Observer`] — the callback trait a caller registers via
//!   [`crate::Aligner::observer`] to watch a run live;
//! * [`CancelToken`] — a cloneable flag that stops a run at the next
//!   phase boundary with [`SadError::Cancelled`].
//!
//! The recorder has two entry styles. Runs driven from one coordinating
//! thread (sequential, shared memory) wrap each phase in
//! `PipelineCtx::phase`. The
//! message-passing backend is SPMD — every rank walks the same phase
//! sequence on its own thread — so each rank brackets its phases with
//! `PipelineCtx::rank_enter`/`rank_exit`: the phase starts when the first
//! rank enters and finishes when the last rank leaves, which is exactly
//! the phase's wall-clock footprint. Each exiting rank also reports how
//! far its virtual clock advanced inside the phase, and the phase keeps
//! the maximum over ranks as its `virtual_seconds`.

use crate::error::SadError;
use crate::report::PhaseStat;
use bioseq::Work;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A typed id for one step of the Sample-Align-D pipeline.
///
/// Variants are numbered after the algorithm listing in Section 2 of the
/// paper (step 4 is folded into its preceding collective, and the step-7
/// slot hosts the hierarchical sub-partition pass of the large-N read
/// mode), so [`Phase::step`] and [`Phase::name`] line up with the cost
/// analysis of Section 3. The discriminant order is pipeline order.
/// [`Phase::AnchorScan`] and [`Phase::BlockAlign`] are never recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Phase {
    /// Never recorded. Retired with vertical decomposition; kept in
    /// [`Phase::ALL`] because `benchmark/src/metrics.rs` names it; ROADMAP
    /// item 5's companion deletes it.
    AnchorScan,
    /// Step 1: each rank computes local k-mer ranks for its block.
    LocalKmerRank,
    /// Step 2: each rank sorts its block by local rank.
    LocalSort,
    /// Steps 3–4: regular sampling and the sample all-gather.
    SampleExchange,
    /// Step 5: re-rank every sequence against the pooled global sample.
    GlobalizedRank,
    /// Step 6: PSRS redistribution so similar sequences co-locate.
    Redistribute,
    /// Step 7: hierarchical sub-partitioning — buckets exceeding
    /// [`crate::SadConfig::max_bucket`] are recursively re-sampled and
    /// re-partitioned until every leaf bucket fits the cap. Only recorded
    /// when a cap is configured (the Pyro-Align large-N read mode).
    SubPartition,
    /// Never recorded. Retired with vertical decomposition; kept in
    /// [`Phase::ALL`] because `benchmark/src/metrics.rs` names it; ROADMAP
    /// item 5's companion deletes it.
    BlockAlign,
    /// Step 8: the sequential MSA engine on each bucket.
    LocalAlign,
    /// Step 9: consensus ("local ancestor") extraction per bucket.
    LocalAncestor,
    /// Step 10: ancestor alignment into the global ancestor at the root.
    GlobalAncestor,
    /// Step 11: anchor every bucket to the global ancestor.
    FineTune,
    /// Step 12: glue the anchored buckets into one global alignment.
    Glue,
    /// Step 13: MaxAlign-style alignment-area trim of the finished root
    /// alignment — greedy sequence exclusion maximising `retained rows ×
    /// gap-free columns`. Only recorded when [`crate::SadConfig::trim`]
    /// is configured; runs at the root on every backend.
    Trim,
}

impl Phase {
    /// Every phase in pipeline order.
    pub const ALL: [Phase; 14] = [
        Phase::AnchorScan,
        Phase::LocalKmerRank,
        Phase::LocalSort,
        Phase::SampleExchange,
        Phase::GlobalizedRank,
        Phase::Redistribute,
        Phase::SubPartition,
        Phase::BlockAlign,
        Phase::LocalAlign,
        Phase::LocalAncestor,
        Phase::GlobalAncestor,
        Phase::FineTune,
        Phase::Glue,
        Phase::Trim,
    ];

    /// The stable label used in tables, events and logs (the pre-0.3
    /// magic strings, e.g. `"8-local-align"`).
    pub fn name(self) -> &'static str {
        match self {
            Phase::AnchorScan => "0-anchor-scan",
            Phase::LocalKmerRank => "1-local-kmer-rank",
            Phase::LocalSort => "2-local-sort",
            Phase::SampleExchange => "3-sample-exchange",
            Phase::GlobalizedRank => "5-globalized-rank",
            Phase::Redistribute => "6-redistribute",
            Phase::SubPartition => "7-sub-partition",
            Phase::BlockAlign => "8-block-align",
            Phase::LocalAlign => "8-local-align",
            Phase::LocalAncestor => "9-local-ancestor",
            Phase::GlobalAncestor => "10-global-ancestor",
            Phase::FineTune => "11-fine-tune",
            Phase::Glue => "12-glue",
            Phase::Trim => "13-trim",
        }
    }

    /// The paper's Section 2 step number this phase implements.
    pub fn step(self) -> u8 {
        match self {
            Phase::AnchorScan => 0,
            Phase::LocalKmerRank => 1,
            Phase::LocalSort => 2,
            Phase::SampleExchange => 3,
            Phase::GlobalizedRank => 5,
            Phase::Redistribute => 6,
            Phase::SubPartition => 7,
            Phase::BlockAlign => 8,
            Phase::LocalAlign => 8,
            Phase::LocalAncestor => 9,
            Phase::GlobalAncestor => 10,
            Phase::FineTune => 11,
            Phase::Glue => 12,
            Phase::Trim => 13,
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One notification about a running pipeline, delivered to an
/// [`Observer`].
///
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard arm so
/// future events are not breaking changes.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Event {
    /// The run passed validation and is about to execute.
    RunStarted {
        /// Stable backend name (`"sequential"`, `"rayon"`,
        /// `"distributed"`).
        backend: &'static str,
        /// Input size.
        n_seqs: usize,
        /// Decomposition width (ranks/threads; 1 for sequential).
        ranks: usize,
    },
    /// A phase began (on the decomposed backends: the first rank entered
    /// it).
    PhaseStarted {
        /// Which phase.
        phase: Phase,
    },
    /// A phase completed (on the decomposed backends: the last rank left
    /// it).
    PhaseFinished {
        /// Which phase.
        phase: Phase,
        /// Work performed in the phase, summed over ranks/threads.
        work: Work,
        /// Real wall-clock duration of the phase in seconds.
        seconds: f64,
    },
    /// One over-cap bucket was recursively re-partitioned (inside
    /// [`Phase::SubPartition`], hierarchical mode only). Splits of one
    /// first-pass bucket arrive in increasing `depth` order.
    BucketSplit {
        /// First-pass (post-redistribution) bucket the split belongs to.
        bucket: usize,
        /// Recursion depth of this split (1 = first re-partition).
        depth: usize,
        /// Sequences in the bucket before the split.
        size: usize,
        /// Sub-buckets the split produced.
        parts: usize,
    },
    /// One bucket finished its local alignment (inside
    /// [`Phase::LocalAlign`]). Decomposed backends emit these from worker
    /// threads, so arrival order between buckets is not deterministic.
    BucketAligned {
        /// Bucket/rank index (leaves of a sub-partitioned bucket report
        /// the first-pass bucket they came from).
        bucket: usize,
        /// Rows in the bucket's alignment.
        rows: usize,
        /// Real wall-clock seconds the bucket's engine run took.
        seconds: f64,
    },
    /// One row was excluded by the alignment-area trim (inside
    /// [`Phase::Trim`], trim mode only). Rows arrive in drop order.
    SequenceExcluded {
        /// Identifier of the dropped sequence.
        id: String,
        /// Marginal area change from this drop. Negative values can
        /// appear inside a synergy move (the move as a whole gains).
        area_gain: i64,
    },
    /// The run ended, successfully or via cancellation.
    RunFinished {
        /// Real wall-clock seconds since `RunStarted`.
        seconds: f64,
        /// `true` when the run stopped with [`SadError::Cancelled`].
        cancelled: bool,
    },
    /// One batch job is about to run (see [`crate::Aligner::run_batch`]).
    /// The job's own `RunStarted`…`RunFinished` stream nests inside its
    /// `JobStarted`/`JobFinished` pair; jobs on different workers
    /// interleave freely.
    JobStarted {
        /// Position of the job in the submitted batch.
        job: usize,
        /// The job's caller-chosen id.
        id: String,
        /// Input size of the job.
        n_seqs: usize,
    },
    /// One batch job completed — successfully or with a per-job error
    /// (batch jobs never abort their batch).
    JobFinished {
        /// Position of the job in the submitted batch.
        job: usize,
        /// The job's caller-chosen id.
        id: String,
        /// Real wall-clock seconds the job took.
        seconds: f64,
        /// Whether the job produced an alignment (`false` covers both
        /// invalid jobs and cancelled ones).
        ok: bool,
    },
}

/// A callback watching one pipeline run.
///
/// Registered via [`crate::Aligner::observer`]. Implementations must be
/// `Send + Sync` (decomposed backends deliver events from worker threads)
/// and should return quickly — events are delivered synchronously on the
/// pipeline's threads, serialised so they arrive in record order, so a
/// blocking observer (e.g. one writing to a full pipe) stalls rank
/// threads at their phase boundaries. Recorded phase `seconds` stay
/// honest regardless: timestamps are taken before the serialisation
/// point. An observer may call [`CancelToken::cancel`] to stop the run at
/// the next phase boundary; it must not re-enter the aligner.
pub trait Observer: Send + Sync {
    /// Receive one event. Events for a single run arrive in pipeline
    /// order except `BucketAligned`, which may interleave freely inside
    /// its phase.
    fn on_event(&self, event: &Event);
}

/// Every closure observer is an [`Observer`], so ad-hoc observation needs
/// no named type: `Aligner::new(cfg).observer(Arc::new(|e: &Event| ...))`.
impl<F: Fn(&Event) + Send + Sync> Observer for F {
    fn on_event(&self, event: &Event) {
        self(event)
    }
}

/// A cloneable cancellation flag shared between a run and its controller.
///
/// Hand one token to [`crate::Aligner::cancel_token`] and keep a clone;
/// calling [`CancelToken::cancel`] from any thread stops the run at its
/// next phase boundary with [`SadError::Cancelled`]. Cancellation is
/// cooperative and sticky — a cancelled token stays cancelled.
///
/// Tokens compose: [`CancelToken::fused`] builds a token that *observes*
/// several source tokens at once, which is how a batch run combines its
/// batch-wide token with each job's own (see
/// [`crate::Aligner::run_batch`]).
#[derive(Debug, Clone)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// Flags of fused source tokens this token also observes. Cancelling
    /// this token never propagates upstream.
    upstream: Arc<[Arc<AtomicBool>]>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken { flag: Arc::default(), upstream: Arc::from(Vec::new()) }
    }
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that reads as cancelled when *any* of `sources` is (or it
    /// is cancelled itself). Observation is one-way: cancelling the fused
    /// token leaves every source untouched. The batch runner fuses the
    /// batch-wide token with each job's own so either can stop a job.
    pub fn fused<'a>(sources: impl IntoIterator<Item = &'a CancelToken>) -> CancelToken {
        let mut upstream = Vec::new();
        for source in sources {
            upstream.push(Arc::clone(&source.flag));
            upstream.extend(source.upstream.iter().cloned());
        }
        CancelToken { flag: Arc::default(), upstream: Arc::from(upstream) }
    }

    /// Request cancellation. Idempotent and thread-safe.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested — on this token or on any
    /// token it was [`fused`](CancelToken::fused) over.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst) || self.upstream.iter().any(|f| f.load(Ordering::SeqCst))
    }
}

/// A phase currently being executed by the SPMD backend.
struct OpenPhase {
    started: Instant,
    work: Work,
    /// The largest virtual-clock advance any exited rank reported.
    virtual_max: f64,
    entered: usize,
    exited: usize,
}

/// Recorder state behind the mutex: finished phases plus the SPMD
/// backend's in-flight ones. Events are emitted while this lock is held so
/// observers see them in record order.
#[derive(Default)]
struct Recorder {
    stats: Vec<PhaseStat>,
    open: Vec<(Phase, OpenPhase)>,
}

/// The shared phase recorder threaded through every backend's pipeline.
///
/// One `PipelineCtx` lives for one [`crate::Aligner::run`]: it owns the
/// run's observer, cancellation token and deadline, stamps every phase
/// with real wall-clock seconds, and yields the final [`PhaseStat`] list
/// for the [`crate::RunReport`].
pub struct PipelineCtx {
    backend: &'static str,
    ranks: usize,
    observer: Option<Arc<dyn Observer>>,
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    started: Instant,
    inner: Mutex<Recorder>,
}

impl std::fmt::Debug for PipelineCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineCtx")
            .field("backend", &self.backend)
            .field("ranks", &self.ranks)
            .field("observer", &self.observer.is_some())
            .field("cancel", &self.cancel.is_some())
            .field("deadline", &self.deadline)
            .finish()
    }
}

impl PipelineCtx {
    /// A recorder for one run. `budget` is the optional wall-clock
    /// deadline measured from now (see [`crate::Aligner::deadline`]).
    pub(crate) fn new(
        backend: &'static str,
        ranks: usize,
        observer: Option<Arc<dyn Observer>>,
        cancel: Option<CancelToken>,
        budget: Option<Duration>,
    ) -> Self {
        let started = Instant::now();
        PipelineCtx {
            backend,
            ranks,
            observer,
            cancel,
            deadline: budget.map(|d| started + d),
            started,
            inner: Mutex::new(Recorder::default()),
        }
    }

    fn emit(&self, event: Event) {
        if let Some(obs) = &self.observer {
            obs.on_event(&event);
        }
    }

    /// Emit [`Event::RunStarted`]. Called once by the aligner after
    /// validation.
    pub(crate) fn run_started(&self, n_seqs: usize) {
        self.emit(Event::RunStarted { backend: self.backend, n_seqs, ranks: self.ranks });
    }

    /// Emit [`Event::RunFinished`]. Called once by the aligner when the
    /// pipeline returns.
    pub(crate) fn run_finished(&self, cancelled: bool) {
        self.emit(Event::RunFinished { seconds: self.started.elapsed().as_secs_f64(), cancelled });
    }

    /// Whether the run should stop: the token was cancelled or the
    /// deadline has passed. The SPMD backend's root rank polls this and
    /// broadcasts the verdict so every rank stops at the same boundary.
    pub(crate) fn cancel_requested(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The phase-boundary check: `Err(SadError::Cancelled)` naming the
    /// phase that was about to start if the run should stop.
    pub(crate) fn check(&self, phase: Phase) -> Result<(), SadError> {
        if self.cancel_requested() {
            Err(SadError::Cancelled { phase })
        } else {
            Ok(())
        }
    }

    /// Run `f` as one pipeline phase on the coordinating thread: check
    /// cancellation, emit [`Event::PhaseStarted`], time the closure, record
    /// the [`PhaseStat`] (with the `Work` the closure reports), emit
    /// [`Event::PhaseFinished`].
    pub(crate) fn phase<R>(
        &self,
        phase: Phase,
        f: impl FnOnce() -> (R, Work),
    ) -> Result<R, SadError> {
        self.check(phase)?;
        self.emit(Event::PhaseStarted { phase });
        let t0 = Instant::now();
        let (result, work) = f();
        let seconds = t0.elapsed().as_secs_f64();
        let mut inner = self.inner.lock().expect("pipeline recorder poisoned");
        inner.stats.push(PhaseStat { phase, work, seconds: Some(seconds), virtual_seconds: None });
        drop(inner);
        self.emit(Event::PhaseFinished { phase, work, seconds });
        Ok(result)
    }

    /// SPMD entry: one rank enters `phase`. The first rank to enter stamps
    /// the phase's wall-clock start and emits [`Event::PhaseStarted`].
    pub(crate) fn rank_enter(&self, phase: Phase) {
        // Stamped before taking the lock, so waiting behind another rank's
        // bookkeeping (or its observer callback) never counts as phase time.
        let now = Instant::now();
        let mut inner = self.inner.lock().expect("pipeline recorder poisoned");
        if let Some((_, open)) = inner.open.iter_mut().find(|(p, _)| *p == phase) {
            open.entered += 1;
            return;
        }
        let open =
            OpenPhase { started: now, work: Work::ZERO, virtual_max: 0.0, entered: 1, exited: 0 };
        inner.open.push((phase, open));
        // Emitted under the lock so observers see phases in entry order.
        self.emit(Event::PhaseStarted { phase });
    }

    /// SPMD exit: one rank leaves `phase`, contributing its share of the
    /// phase's work and its virtual-clock advance inside the phase. The
    /// last rank to leave closes the phase: its wall-clock footprint is
    /// first-enter → last-exit, its work the sum over ranks, its virtual
    /// seconds the maximum over ranks.
    pub(crate) fn rank_exit(&self, phase: Phase, work: Work, virtual_seconds: f64) {
        let now = Instant::now();
        let mut inner = self.inner.lock().expect("pipeline recorder poisoned");
        let idx = inner
            .open
            .iter()
            .position(|(p, _)| *p == phase)
            .unwrap_or_else(|| panic!("rank_exit({phase}) without rank_enter"));
        let open = &mut inner.open[idx].1;
        open.work += work;
        open.virtual_max = open.virtual_max.max(virtual_seconds);
        open.exited += 1;
        if open.exited < self.ranks {
            return;
        }
        debug_assert_eq!(open.entered, self.ranks, "{phase}: exits outran enters");
        let seconds = now.duration_since(open.started).as_secs_f64();
        let (work, virtual_seconds) = (open.work, Some(open.virtual_max));
        inner.open.remove(idx);
        inner.stats.push(PhaseStat { phase, work, seconds: Some(seconds), virtual_seconds });
        self.emit(Event::PhaseFinished { phase, work, seconds });
    }

    /// Emit [`Event::BucketAligned`]. Safe to call from worker threads
    /// inside [`Phase::LocalAlign`].
    pub(crate) fn bucket_aligned(&self, bucket: usize, rows: usize, seconds: f64) {
        self.emit(Event::BucketAligned { bucket, rows, seconds });
    }

    /// Emit [`Event::BucketSplit`] (inside [`Phase::SubPartition`]).
    pub(crate) fn bucket_split(&self, bucket: usize, depth: usize, size: usize, parts: usize) {
        self.emit(Event::BucketSplit { bucket, depth, size, parts });
    }

    /// Emit [`Event::SequenceExcluded`] (inside [`Phase::Trim`]).
    pub(crate) fn sequence_excluded(&self, id: String, area_gain: i64) {
        self.emit(Event::SequenceExcluded { id, area_gain });
    }

    /// Close the recorder: the finished phases in pipeline order plus
    /// their summed work (the report invariant `work == Σ phase work`).
    ///
    /// # Panics
    /// Panics if an SPMD phase is still open — every `rank_enter` needs a
    /// matching `rank_exit` on every rank.
    pub(crate) fn drain(&self) -> (Vec<PhaseStat>, Work) {
        let mut inner = self.inner.lock().expect("pipeline recorder poisoned");
        assert!(inner.open.is_empty(), "pipeline drained with phases still open");
        let stats = std::mem::take(&mut inner.stats);
        let work = stats.iter().map(|s| s.work).sum();
        (stats, work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(events: &Arc<Mutex<Vec<Event>>>) -> Vec<Event> {
        events.lock().unwrap().clone()
    }

    fn recording_ctx(ranks: usize) -> (PipelineCtx, Arc<Mutex<Vec<Event>>>) {
        let events: Arc<Mutex<Vec<Event>>> = Arc::default();
        let sink = Arc::clone(&events);
        let obs = move |e: &Event| sink.lock().unwrap().push(e.clone());
        (PipelineCtx::new("test", ranks, Some(Arc::new(obs)), None, None), events)
    }

    #[test]
    fn phase_names_and_steps_roundtrip() {
        for phase in Phase::ALL {
            assert!(phase.name().starts_with(&phase.step().to_string()));
            assert_eq!(format!("{phase}"), phase.name());
        }
        // ALL is in pipeline order.
        let mut sorted = Phase::ALL;
        sorted.sort();
        assert_eq!(sorted, Phase::ALL);
    }

    #[test]
    fn scoped_phase_records_work_and_wall_seconds() {
        let (ctx, events) = recording_ctx(1);
        let out = ctx.phase(Phase::LocalAlign, || (7usize, Work::dp(10))).unwrap();
        assert_eq!(out, 7);
        let (stats, total) = ctx.drain();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].phase, Phase::LocalAlign);
        assert_eq!(total, Work::dp(10));
        assert!(stats[0].seconds.unwrap() >= 0.0);
        assert_eq!(stats[0].virtual_seconds, None, "no virtual clock off-cluster");
        let evs = collect(&events);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0], Event::PhaseStarted { phase: Phase::LocalAlign });
        assert!(matches!(evs[1], Event::PhaseFinished { phase: Phase::LocalAlign, .. }));
    }

    #[test]
    fn rank_mode_opens_on_first_enter_and_closes_on_last_exit() {
        let (ctx, events) = recording_ctx(3);
        ctx.rank_enter(Phase::LocalSort);
        ctx.rank_enter(Phase::LocalSort);
        ctx.rank_exit(Phase::LocalSort, Work::sort(5), 0.5);
        assert!(collect(&events).len() == 1, "still open after 1 of 3 exits");
        ctx.rank_enter(Phase::LocalSort);
        ctx.rank_exit(Phase::LocalSort, Work::sort(5), 2.0);
        ctx.rank_exit(Phase::LocalSort, Work::sort(5), 1.0);
        let (stats, total) = ctx.drain();
        assert_eq!(stats.len(), 1);
        assert_eq!(total, Work::sort(15), "work sums over ranks");
        let evs = collect(&events);
        assert!(matches!(evs.last(), Some(Event::PhaseFinished { work, .. }) if *work == total));
    }

    #[test]
    fn rank_phases_keep_max_virtual_seconds_over_ranks() {
        let (ctx, _) = recording_ctx(2);
        for (a, b) in [(1.0, 1.0), (3.0, 0.5)] {
            ctx.rank_enter(Phase::LocalSort);
            ctx.rank_exit(Phase::LocalSort, Work::ZERO, a);
            ctx.rank_enter(Phase::LocalAlign);
            ctx.rank_exit(Phase::LocalAlign, Work::ZERO, b);
        }
        let (stats, _) = ctx.drain();
        let got: Vec<_> = stats.iter().map(|s| (s.phase, s.virtual_seconds)).collect();
        assert_eq!(got, vec![(Phase::LocalSort, Some(3.0)), (Phase::LocalAlign, Some(1.0))]);
    }

    #[test]
    #[should_panic(expected = "still open")]
    fn drain_rejects_open_phases() {
        let (ctx, _) = recording_ctx(2);
        ctx.rank_enter(Phase::Glue);
        let _ = ctx.drain();
    }

    #[test]
    fn cancel_token_stops_the_next_phase() {
        let token = CancelToken::new();
        let ctx = PipelineCtx::new("test", 1, None, Some(token.clone()), None);
        assert_eq!(ctx.phase(Phase::LocalKmerRank, || ((), Work::ZERO)), Ok(()));
        token.cancel();
        assert!(token.is_cancelled());
        let res = ctx.phase(Phase::LocalSort, || ((), Work::ZERO));
        assert_eq!(res, Err(SadError::Cancelled { phase: Phase::LocalSort }));
        // The cancelled phase was never recorded.
        assert_eq!(ctx.drain().0.len(), 1);
    }

    #[test]
    fn fused_tokens_observe_every_source_one_way() {
        let batch = CancelToken::new();
        let job = CancelToken::new();
        let fused = CancelToken::fused([&batch, &job]);
        assert!(!fused.is_cancelled());
        batch.cancel();
        assert!(fused.is_cancelled(), "fused token sees the batch-wide source");
        let fused2 = CancelToken::fused([&CancelToken::new(), &job]);
        job.cancel();
        assert!(fused2.is_cancelled(), "fused token sees the per-job source");
        // One-way: cancelling a fused token leaves its sources untouched.
        let source = CancelToken::new();
        let derived = CancelToken::fused([&source]);
        derived.cancel();
        assert!(derived.is_cancelled() && !source.is_cancelled());
        // Fusing is transitive through already-fused tokens.
        let chained = CancelToken::fused([&fused]);
        assert!(chained.is_cancelled(), "batch flag visible through two fuse layers");
    }

    #[test]
    fn deadline_is_a_cancellation_source() {
        let ctx = PipelineCtx::new("test", 1, None, None, Some(Duration::ZERO));
        assert!(ctx.cancel_requested());
        assert_eq!(
            ctx.check(Phase::LocalAlign),
            Err(SadError::Cancelled { phase: Phase::LocalAlign })
        );
        let lax = PipelineCtx::new("test", 1, None, None, Some(Duration::from_secs(3600)));
        assert!(!lax.cancel_requested());
    }

    #[test]
    fn run_events_carry_metadata() {
        let (ctx, events) = recording_ctx(4);
        ctx.run_started(99);
        ctx.bucket_aligned(2, 25, 0.5);
        ctx.run_finished(true);
        let evs = collect(&events);
        assert_eq!(evs[0], Event::RunStarted { backend: "test", n_seqs: 99, ranks: 4 });
        assert_eq!(evs[1], Event::BucketAligned { bucket: 2, rows: 25, seconds: 0.5 });
        assert!(matches!(evs[2], Event::RunFinished { cancelled: true, .. }));
    }
}
