//! `sad-serve`: a journaled, resumable alignment daemon.
//!
//! The batch runner of PR 5 dies with its process; this crate puts a
//! long-lived service in front of the same pipeline. Jobs arrive over TCP
//! as line-delimited JSON, wait in a bounded priority queue with
//! per-client round-robin fairness, and run on a pool of workers that
//! stream [`sad_core::Observer`] progress events back to the submitting
//! client.
//!
//! Durability follows the resume-from-partial-work pattern of BiG-SCAPE's
//! `do_multiple_align`: every job writes `Accepted` → `Started` →
//! `Finished{digest}` lines to an append-only JSONL journal, and a
//! restarted server re-queues whatever is still owed while skipping jobs
//! whose output file on disk still hashes to the journaled digest. One
//! server runs one configuration, so a result cache keyed by input digest
//! answers duplicate submissions without touching a worker; on restart it
//! is warmed only from jobs journaled under the same config fingerprint,
//! and a draining server refuses cached submissions like any other.
//!
//! Module map:
//!
//! - [`json`] — hand-rolled JSON value/parser/writer (the dependency
//!   set has no serializer).
//! - [`digest`] — FNV-1a content digests and config fingerprints.
//! - [`protocol`] — wire grammar: requests, event lines, line framing.
//! - [`journal`] — the write-ahead journal and its torn-tail-tolerant
//!   replay.
//! - [`queue`] — bounded, fair job queue.
//! - [`cache`] — the result cache, keyed by input digest.
//! - [`server`] — accept loop, connection readers, worker pool, recovery.
//! - [`client`] — blocking protocol client (`sad submit` and tests).
//! - [`harness`] — in-process test fixture with fault injection.
//! - [`signal`] — SIGTERM/SIGINT observation for the CLI loop.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod digest;
pub mod harness;
pub mod journal;
pub mod json;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod signal;

pub use cache::{CachedResult, ResultCache};
pub use client::{Client, ClientError, Submitted};
pub use harness::ServeHarness;
pub use journal::{Journal, JournalEntry, JournalError};
pub use json::Json;
pub use protocol::Request;
pub use server::{
    JobHold, RecoveryReport, ServeConfig, ServeError, Server, ServerHandle, ServerStats,
};
