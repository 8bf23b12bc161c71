//! # sad-core — Sample-Align-D
//!
//! The paper's contribution: a SampleSort-inspired distributed multiple
//! sequence alignment system. The pipeline on `p` processors:
//!
//! 1. block-distribute the `N` sequences (`w = N/p` each);
//! 2. compute each sequence's **k-mer rank** locally and sort by it;
//! 3. pick `k` regular samples per processor and all-gather them —
//!    the `k·p` samples represent the whole set;
//! 4. re-rank every sequence against the global sample (*globalized
//!    rank*);
//! 5. redistribute with PSRS bucketing so similar sequences co-locate;
//! 6. align each bucket independently with any sequential MSA engine
//!    (MUSCLE in the paper, [`align::MuscleLite`] here);
//! 7. extract each bucket's **local ancestor** (consensus), align the
//!    ancestors at the root into a **global ancestor**, broadcast it;
//! 8. profile-align every bucket against the global ancestor (the
//!    constrained fine-tuning of Fig. 2) and **glue** the anchored buckets
//!    into one global alignment at the root.
//!
//! The decomposition is the paper's: it splits the *sequence set* into
//! buckets, never a sequence lengthwise, and every run of every backend
//! aligns whole sequences.
//!
//! One body, two substrates. Those steps are written exactly once, as a
//! program over the four collectives the paper's listing uses (all-gather
//! of samples, all-to-all redistribution, gather of local ancestors,
//! broadcast of the global ancestor); a small communication trait with
//! two implementations decides where the ranks live. Build an
//! [`Aligner`] and pick a [`Backend`] —
//!
//! * [`Backend::Distributed`] — every rank thread of a [`vcluster`]
//!   virtual Beowulf runs the body; collectives are real messages under a
//!   deterministic virtual clock;
//! * [`Backend::Rayon`] — one executor owns all `p` ranks in shared
//!   memory; collectives are moves and per-rank work runs on a worker
//!   pool. Same buckets, phases, work and bytes as the cluster, by
//!   construction;
//! * [`Backend::Sequential`] — the engine run directly on the whole set
//!   (the speedup baseline; deliberately not `p = 1` of the body, which
//!   would put an O(N²) ranking phase in front of the baseline).
//!
//! Every backend returns the same [`RunReport`]; failures are typed
//! [`SadError`]s instead of panics. All three backends record their run
//! through the one [`pipeline`] layer: typed [`Phase`] ids with real
//! wall-clock seconds per phase, live [`Event`]s to a registered
//! [`Observer`], and cooperative cancellation via [`CancelToken`] or a
//! deadline ([`SadError::Cancelled`] names the phase the run stopped at).
//!
//! Many families per process: [`Aligner::run_batch`] schedules an ordered
//! set of named [`BatchJob`]s across a backend-aware worker pool and
//! returns a [`BatchReport`] — per-job `Result`s (failures are isolated),
//! aggregate throughput, and `JobStarted`/`JobFinished` events on the
//! same observer surface.
//!
//! The pre-0.2 entry points (`run_distributed`, `run_rayon`,
//! `run_sequential`) — deprecated shims since 0.2 — are gone; see the
//! README migration table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aligner;
pub mod ancestor;
pub mod audit;
pub mod batch;
pub mod config;
mod distributed;
pub mod error;
pub mod messages;
pub mod pipeline;
pub mod rank;
mod rayon_impl;
pub mod report;
pub mod sequential;
mod spmd;

pub use align::{BandPolicy, TrimConfig};
pub use aligner::{Aligner, Backend};
pub use batch::{BatchJob, BatchReport, JobReport};
pub use config::{SadConfig, VerticalConfig};
pub use error::SadError;
pub use pipeline::{CancelToken, Event, Observer, Phase};
pub use rank::{rank_experiment, RankExperiment};
pub use report::{BackendExtras, PhaseStat, RunReport, TrimReport, VerticalReport};
