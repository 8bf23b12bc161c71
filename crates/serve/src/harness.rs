//! In-process test fixture for the daemon: ephemeral ports, scripted
//! clients, kill-and-restart, and fault injection against the journal and
//! the output directory.
//!
//! Shipped as a normal (non-`cfg(test)`) module so the workspace-level
//! integration suite and the golden-transcript test drive the same
//! fixture:
//!
//! ```no_run
//! use sad_serve::harness::ServeHarness;
//!
//! let mut h = ServeHarness::new("doc").workers(1).paused(true).start();
//! let mut client = h.client();
//! // … submit, kill, restart, assert on h.journal_entries() …
//! h.shutdown();
//! ```

use crate::client::Client;
use crate::journal::JournalEntry;
use crate::server::{RecoveryReport, ServeConfig, Server, ServerHandle, ServerStats};
use sad_core::Backend;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Builder + running-state wrapper around one server with stable journal
/// and output paths, so kill → restart resumes against the same disk
/// state (and fault injection can corrupt it in between).
pub struct ServeHarness {
    dir: PathBuf,
    cfg: ServeConfig,
    handle: Option<ServerHandle>,
}

impl ServeHarness {
    /// A fresh harness rooted in a unique temp directory. `tag` keeps
    /// concurrent tests' directories apart.
    pub fn new(tag: &str) -> ServeHarness {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("sad-serve-harness-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create harness dir");
        let cfg = ServeConfig::new(dir.join("journal.jsonl"), dir.join("out"));
        ServeHarness { dir, cfg, handle: None }
    }

    /// Worker threads (default 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Queue bound (default 32).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.cfg.queue_capacity = capacity;
        self
    }

    /// Execution backend (default sequential).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.cfg.backend = backend;
        self
    }

    /// Start with the worker gate closed; release with
    /// [`ServeHarness::release_workers`].
    pub fn paused(mut self, paused: bool) -> Self {
        self.cfg.paused = paused;
        self
    }

    /// Pipeline configuration for every job.
    pub fn sad_config(mut self, sad: sad_core::SadConfig) -> Self {
        self.cfg.sad = sad;
        self
    }

    /// Result-cache byte budget (default 64 MiB). Small budgets let tests
    /// watch LRU eviction and bounded journal re-warm.
    pub fn cache_budget_bytes(mut self, bytes: usize) -> Self {
        self.cfg.cache_budget_bytes = bytes;
        self
    }

    /// Install a mid-job breakpoint (see [`crate::server::JobHold`]).
    /// Keep a clone to `engage`/`release` it from the test.
    pub fn hold(mut self, hold: crate::server::JobHold) -> Self {
        self.cfg.hold = Some(hold);
        self
    }

    /// Start the server (consumes the builder stage; callable again after
    /// [`ServeHarness::kill`] / [`ServeHarness::shutdown`] to restart
    /// against the same journal and output directory).
    pub fn start(mut self) -> ServeHarness {
        self.restart();
        self
    }

    /// (Re)start the server on the existing journal/output state. The
    /// port is ephemeral, so the address changes across restarts —
    /// re-fetch clients after calling this.
    pub fn restart(&mut self) {
        assert!(self.handle.is_none(), "server already running; kill or shutdown first");
        let handle = Server::start(self.cfg.clone()).expect("start server");
        self.handle = Some(handle);
    }

    /// The running server's handle.
    pub fn server(&self) -> &ServerHandle {
        self.handle.as_ref().expect("server not running")
    }

    /// Connect a scripted client to the running server.
    pub fn client(&self) -> Client {
        Client::connect_with_retry(self.server().addr(), Duration::from_secs(5))
            .expect("connect client")
    }

    /// Open the worker pause gate.
    pub fn release_workers(&self) {
        self.server().release_workers();
    }

    /// Abrupt stop (crash simulation): queued jobs dropped, interrupted
    /// jobs left un-journaled. Returns final counters.
    pub fn kill(&mut self) -> ServerStats {
        self.handle.take().expect("server not running").kill()
    }

    /// Graceful drain-and-stop. Returns final counters.
    pub fn shutdown(&mut self) -> ServerStats {
        self.handle.take().expect("server not running").shutdown()
    }

    /// Whether the server is currently running.
    pub fn is_running(&self) -> bool {
        self.handle.is_some()
    }

    /// What recovery decided at the most recent (re)start.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.server().recovery
    }

    /// The harness's journal path.
    pub fn journal_path(&self) -> PathBuf {
        self.cfg.journal.clone()
    }

    /// The harness's output directory.
    pub fn out_dir(&self) -> PathBuf {
        self.cfg.out_dir.clone()
    }

    /// A copy of the harness's server config (for starting a server
    /// manually against the same disk state, e.g. to assert start-up
    /// failures that [`ServeHarness::restart`] would panic on).
    pub fn config(&self) -> ServeConfig {
        self.cfg.clone()
    }

    /// Where `job`'s output file lands.
    pub fn output_path(&self, job: &str) -> PathBuf {
        crate::server::output_path(&self.cfg.out_dir, job)
    }

    /// Decode every well-formed journal line (tolerating a torn tail,
    /// exactly like server recovery).
    pub fn journal_entries(&self) -> Vec<JournalEntry> {
        crate::journal::replay(&self.cfg.journal).expect("replay journal").entries
    }

    // ── Fault injection ────────────────────────────────────────────────
    // All of these require the server to be stopped: they model damage
    // that happens while the process is down (or as it dies).

    /// Chop `bytes` off the end of the journal — models a crash mid-way
    /// through an appended line (torn write).
    pub fn truncate_journal(&self, bytes: u64) {
        self.assert_stopped("truncate_journal");
        let len = std::fs::metadata(&self.cfg.journal).expect("journal exists").len();
        let file =
            std::fs::OpenOptions::new().write(true).open(&self.cfg.journal).expect("open journal");
        file.set_len(len.saturating_sub(bytes)).expect("truncate journal");
    }

    /// Append a half-written line with no terminating newline (the other
    /// torn-write shape).
    pub fn append_torn_line(&self) {
        self.assert_stopped("append_torn_line");
        use std::io::Write;
        let mut file =
            std::fs::OpenOptions::new().append(true).open(&self.cfg.journal).expect("open journal");
        file.write_all(b"{\"entry\":\"finished\",\"job\":\"to").expect("append torn line");
    }

    /// Overwrite journal line `index` (0-based) with garbage of the same
    /// length — interior corruption, which replay must refuse.
    pub fn corrupt_journal_line(&self, index: usize) {
        self.assert_stopped("corrupt_journal_line");
        let text = std::fs::read_to_string(&self.cfg.journal).expect("read journal");
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        assert!(index < lines.len(), "journal has only {} lines", lines.len());
        lines[index] = "x".repeat(lines[index].len());
        let mut rebuilt = lines.join("\n");
        rebuilt.push('\n');
        std::fs::write(&self.cfg.journal, rebuilt).expect("write journal");
    }

    /// Delete `job`'s output file — recovery must re-run the job.
    pub fn remove_output(&self, job: &str) {
        self.assert_stopped("remove_output");
        std::fs::remove_file(self.output_path(job)).expect("remove output");
    }

    /// Flip bytes in `job`'s output file so it no longer matches the
    /// journaled digest — recovery must refuse it and re-run the job.
    pub fn corrupt_output(&self, job: &str) {
        self.assert_stopped("corrupt_output");
        let path = self.output_path(job);
        let mut text = std::fs::read_to_string(&path).expect("read output");
        text.push_str(">intruder\nXXXX\n");
        std::fs::write(&path, text).expect("write output");
    }

    fn assert_stopped(&self, what: &str) {
        assert!(!self.is_running(), "{what} requires a stopped server");
    }

    /// The harness's root temp directory (for ad-hoc inspection).
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for ServeHarness {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.kill();
        }
        std::fs::remove_dir_all(&self.dir).ok();
    }
}
