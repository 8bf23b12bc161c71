//! The daemon: accept loop, connection readers, worker pool, recovery.
//!
//! Lifecycle of a job:
//!
//! 1. A connection reader parses a `submit`, validates the FASTA, and —
//!    under the queue lock — journals `Accepted` and acknowledges the
//!    client *before* the job becomes visible to workers.
//! 2. A worker pops it (priority + per-client round-robin), journals
//!    `Started`, and runs it on the server's backend, forwarding
//!    `PhaseFinished` observer events to the submitting client.
//! 3. On success the worker writes `<out>/<job>.aligned.fa`, journals
//!    `Finished{digest}`, feeds the result cache, and streams the aligned
//!    FASTA back. On failure (including cancellation) it journals
//!    `Finished{ok:false}` — unless the server was [`ServerHandle::kill`]ed,
//!    which deliberately skips the terminal journal write to simulate a
//!    crash, leaving the journal owing the job.
//!
//! Each fact lives in one place: one live-job table (cancel token and
//! submitter's sink per queued or running job, removed once when the job
//! ends), one [`ServerStats`] behind a mutex, the kill token for "killed",
//! and [`JobQueue::is_closed`] for "draining", which refuses cached
//! submissions as well as uncached ones.
//!
//! On [`Server::start`], the journal is replayed: finished jobs whose
//! output file still matches the journaled digest are skipped (and, when
//! they were accepted under this server's config fingerprint, warm the
//! cache); everything else still owed is re-queued.

use crate::cache::{CachedResult, ResultCache};
use crate::digest;
use crate::journal::{Journal, JournalEntry, JournalError};
use crate::protocol::{event, parse_request, LineEvent, LineReader, Request};
use crate::queue::{JobQueue, PushError, PushResult, QueuedJob};
use sad_core::{Aligner, Backend, CancelToken, Event, SadConfig, SadError};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deterministic mid-job breakpoint for tests: while engaged, every job
/// blocks right after journaling `Started` (and streaming its `started`
/// event) until [`JobHold::release`]. This lets a test pin a worker
/// *inside* a job — then kill the server or cancel the job — without any
/// timing race, no matter how fast the alignment itself is. A kill wakes
/// held workers immediately. Disengaged holds are free to pass through.
#[derive(Clone, Default)]
pub struct JobHold {
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl JobHold {
    /// A disengaged hold (jobs pass straight through).
    pub fn new() -> JobHold {
        JobHold::default()
    }

    /// Block every subsequent job right after its `started` event.
    pub fn engage(&self) {
        *self.gate.0.lock().unwrap() = true;
    }

    /// Let held (and future) jobs proceed.
    pub fn release(&self) {
        *self.gate.0.lock().unwrap() = false;
        self.gate.1.notify_all();
    }

    /// Park until released or `abort` turns true (polled, so a kill that
    /// never notifies still gets through).
    fn wait(&self, abort: impl Fn() -> bool) {
        let (lock, cv) = &*self.gate;
        let mut engaged = lock.lock().unwrap();
        while *engaged && !abort() {
            engaged = cv.wait_timeout(engaged, Duration::from_millis(20)).unwrap().0;
        }
    }
}

impl std::fmt::Debug for JobHold {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHold").field("engaged", &*self.gate.0.lock().unwrap()).finish()
    }
}

/// Everything a server needs to start.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Interface to bind.
    pub host: String,
    /// Port to bind; `0` asks the OS for an ephemeral port (tests).
    pub port: u16,
    /// Path of the write-ahead journal (created if missing).
    pub journal: PathBuf,
    /// Directory for `<job>.aligned.fa` outputs (created if missing).
    pub out_dir: PathBuf,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Bound on pending (queued, not yet started) jobs.
    pub queue_capacity: usize,
    /// Execution substrate for every job (a distributed backend's cluster
    /// is a plain `{p, cost}` value; every run builds fresh nodes).
    pub backend: Backend,
    /// Pipeline configuration for every job.
    pub sad: SadConfig,
    /// Byte budget of the in-memory result cache (`--cache-mb` on the
    /// CLI); least-recently-used results are evicted past it.
    pub cache_budget_bytes: usize,
    /// Start with workers paused (tests stage queues deterministically,
    /// then call [`ServerHandle::release_workers`]).
    pub paused: bool,
    /// Log lifecycle lines to stderr.
    pub log: bool,
    /// Optional mid-job breakpoint (tests only; `None` in production).
    pub hold: Option<JobHold>,
}

impl ServeConfig {
    /// A localhost config with the given journal path and output
    /// directory; everything else defaulted (1 worker, queue of 32,
    /// sequential backend, ephemeral port).
    pub fn new(journal: impl Into<PathBuf>, out_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            host: "127.0.0.1".into(),
            port: 0,
            journal: journal.into(),
            out_dir: out_dir.into(),
            workers: 1,
            queue_capacity: 32,
            backend: Backend::Sequential,
            sad: SadConfig::default(),
            cache_budget_bytes: crate::cache::DEFAULT_BUDGET_BYTES,
            paused: false,
            log: false,
            hold: None,
        }
    }
}

/// Why a server failed to start or operate.
#[derive(Debug)]
pub enum ServeError {
    /// Socket or filesystem failure.
    Io(std::io::Error),
    /// The journal could not be replayed or appended.
    Journal(JournalError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve I/O error: {e}"),
            ServeError::Journal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<JournalError> for ServeError {
    fn from(e: JournalError) -> Self {
        ServeError::Journal(e)
    }
}

/// What journal replay decided for each journaled job.
#[derive(Debug, Default, Clone)]
pub struct RecoveryReport {
    /// Jobs re-queued because they were accepted but never finished.
    pub requeued: Vec<String>,
    /// Finished jobs whose output file verified against the journaled
    /// digest — skipped; those accepted under this server's config
    /// fingerprint warm the cache.
    pub skipped: Vec<String>,
    /// Finished jobs whose output file was missing or failed digest
    /// verification — re-queued to run again.
    pub reran: Vec<String>,
    /// Whether the journal's final line was torn and dropped.
    pub dropped_torn_tail: bool,
}

/// A snapshot of server counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Jobs admitted (including cache hits and recovery re-queues).
    pub accepted: usize,
    /// Jobs finished with an alignment (including cache hits).
    pub completed: usize,
    /// Submissions answered from the result cache with no worker.
    pub cache_hits: usize,
    /// Jobs that ended cancelled.
    pub cancelled: usize,
    /// Jobs that ended in a non-cancellation error.
    pub failed: usize,
    /// DP cells actually computed by workers since start — the "zero new
    /// work" assertion for cached resubmission reads this.
    pub dp_cells: u64,
}

/// One connected client's outgoing line stream, shared between the
/// connection's reader thread (acks) and whatever worker runs its jobs
/// (progress + results). Write failures are swallowed: a client that
/// disconnected mid-stream must not crash the job, which still completes
/// and journals normally.
#[derive(Clone)]
pub struct EventSink(Arc<Mutex<Option<TcpStream>>>);

impl EventSink {
    /// How long one event write may block before the peer is treated as
    /// gone. Bounds the time a worker (or the connection's reader thread,
    /// which shares the sink mutex) can be wedged by a client that
    /// submitted a job and then stopped reading.
    pub const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

    fn new(stream: TcpStream) -> EventSink {
        stream.set_write_timeout(Some(EventSink::WRITE_TIMEOUT)).ok();
        EventSink(Arc::new(Mutex::new(Some(stream))))
    }

    /// A sink that discards everything (recovered jobs have no client).
    pub fn null() -> EventSink {
        EventSink(Arc::new(Mutex::new(None)))
    }

    /// Send one event line (newline appended). Errors are ignored. A
    /// write that times out ([`EventSink::WRITE_TIMEOUT`]) is treated the
    /// same as a disconnect: the stream is dropped so no later send — and
    /// no worker — ever blocks on this peer again.
    pub fn send(&self, line: &str) {
        let mut guard = self.0.lock().unwrap();
        if let Some(stream) = guard.as_mut() {
            let mut bytes = line.as_bytes().to_vec();
            bytes.push(b'\n');
            if stream.write_all(&bytes).and_then(|()| stream.flush()).is_err() {
                // Peer gone (or not draining): stop trying for the rest
                // of the connection.
                *guard = None;
            }
        }
    }
}

/// A queued or running job's control surface.
#[derive(Clone)]
struct LiveJob {
    /// Fired by a `CANCEL`; fused with the server's kill token.
    cancel: CancelToken,
    /// The submitting client's stream ([`EventSink::null`] for recovered
    /// jobs, which have no client).
    sink: EventSink,
}

impl LiveJob {
    fn new(sink: EventSink) -> LiveJob {
        LiveJob { cancel: CancelToken::new(), sink }
    }
}

struct Shared {
    cfg: ServeConfig,
    /// The one configuration this server runs, as journaled in `Accepted`.
    fingerprint: String,
    queue: JobQueue,
    journal: Mutex<Journal>,
    cache: ResultCache,
    /// Every queued or running job by id: registered at admission (or
    /// recovery) before workers can see it, removed once when it ends.
    live: Mutex<HashMap<String, LiveJob>>,
    /// All job ids ever seen (journal + live), for collision handling.
    ids: Mutex<std::collections::HashSet<String>>,
    next_client: AtomicU64,
    next_job: AtomicU64,
    /// Fused into every job's cancel token; [`ServerHandle::kill`] fires
    /// it, and workers stop journaling and exit once it has fired.
    kill_token: CancelToken,
    /// Worker pause gate (`paused`, release via notify).
    gate: Mutex<bool>,
    gate_cv: Condvar,
    /// Jobs currently executing on a worker.
    active: AtomicUsize,
    stats: Mutex<ServerStats>,
}

/// Why a submission is refused once the queue is closed.
const SHUTTING_DOWN: &str = "server shutting down";

/// Longest accepted client-proposed job id.
pub const MAX_JOB_ID_LEN: usize = 100;

/// Whether a client-proposed job id is safe to embed in an output path.
/// Ids become `<out_dir>/<id>.aligned.fa` via `Path::join`, so anything
/// resembling a path — separators, `..`, absolute paths (which `join`
/// substitutes wholesale) — must never get this far. Allowed: ASCII
/// alphanumerics plus `.`, `_`, `-`; no leading `.`; at most
/// [`MAX_JOB_ID_LEN`] bytes.
pub fn valid_job_id(id: &str) -> bool {
    id.len() <= MAX_JOB_ID_LEN && path_safe_id(id)
}

/// The safety half of [`valid_job_id`] (no length bound — server-side
/// collision suffixes may push a maximal id a few bytes past it).
fn path_safe_id(id: &str) -> bool {
    !id.is_empty()
        && !id.starts_with('.')
        && id.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

impl Shared {
    fn output_path(&self, job: &str) -> PathBuf {
        debug_assert!(path_safe_id(job), "unvalidated job id reached output_path: {job:?}");
        output_path(&self.cfg.out_dir, job)
    }

    fn log(&self, line: &str) {
        if self.cfg.log {
            eprintln!("[sad-serve] {line}");
        }
    }

    fn journal_append(&self, entry: &JournalEntry) -> Result<(), JournalError> {
        self.journal.lock().unwrap().append(entry)
    }

    /// Reserve a server-unique job id, unique-ifying collisions with a
    /// `-2`, `-3`… suffix ([`sad_core::batch::unique_id`]).
    fn reserve_id(&self, requested: Option<&str>) -> String {
        let base = match requested {
            Some(id) if !id.trim().is_empty() => id.trim().to_string(),
            _ => format!("job-{}", self.next_job.fetch_add(1, Ordering::Relaxed) + 1),
        };
        let mut ids = self.ids.lock().expect("a thread panicked while holding the id set");
        sad_core::batch::unique_id(&mut ids, &base)
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] or [`ServerHandle::kill`].
pub struct Server;

impl Server {
    /// Replay the journal, bind the socket, start workers and the accept
    /// loop.
    pub fn start(cfg: ServeConfig) -> Result<ServerHandle, ServeError> {
        std::fs::create_dir_all(&cfg.out_dir)?;
        let replay = crate::journal::replay(&cfg.journal)?;
        let fingerprint = digest::config_fingerprint(&cfg.sad, &cfg.backend);
        let workers = cfg.workers.max(1);
        let paused = cfg.paused;
        let shared = Arc::new(Shared {
            queue: JobQueue::new(cfg.queue_capacity.max(1)),
            journal: Mutex::new(Journal::open(&cfg.journal)?),
            cache: ResultCache::with_budget_bytes(cfg.cache_budget_bytes),
            live: Mutex::new(HashMap::new()),
            ids: Mutex::new(std::collections::HashSet::new()),
            next_client: AtomicU64::new(0),
            next_job: AtomicU64::new(0),
            kill_token: CancelToken::new(),
            gate: Mutex::new(paused),
            gate_cv: Condvar::new(),
            active: AtomicUsize::new(0),
            stats: Mutex::new(ServerStats::default()),
            fingerprint,
            cfg,
        });

        let recovery = recover(&shared, replay);
        shared.log(&format!(
            "recovery: {} requeued, {} skipped, {} reran",
            recovery.requeued.len(),
            recovery.skipped.len(),
            recovery.reran.len()
        ));

        let listener = TcpListener::bind((shared.cfg.host.as_str(), shared.cfg.port))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        shared.log(&format!("listening on {addr} ({})", shared.cfg.backend.name()));

        let worker_handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sad-serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sad-serve-accept".into())
                .spawn(move || accept_loop(&shared, &listener))
                .expect("spawn accept loop")
        };

        Ok(ServerHandle { shared, addr, accept: Some(accept), workers: worker_handles, recovery })
    }
}

/// Control handle for a started server.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// What journal replay decided at start.
    pub recovery: RecoveryReport,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Open the worker pause gate (no-op if not paused).
    pub fn release_workers(&self) {
        *self.shared.gate.lock().unwrap() = false;
        self.shared.gate_cv.notify_all();
    }

    /// Current counters.
    pub fn stats(&self) -> ServerStats {
        *self.shared.stats.lock().unwrap()
    }

    /// Number of journal-replay cache entries plus live results.
    pub fn cache_len(&self) -> usize {
        self.shared.cache.len()
    }

    /// Whether a graceful shutdown has been requested (by a client
    /// `SHUTDOWN` or by [`ServerHandle::shutdown`]).
    pub fn is_draining(&self) -> bool {
        self.shared.queue.is_closed()
    }

    /// Block until the queue is empty and no job is executing, or the
    /// timeout passes. Returns whether idle was reached.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.shared.queue.is_empty() && self.shared.active.load(Ordering::SeqCst) == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Graceful stop: stop accepting, let workers drain the queue, join
    /// everything. Running and queued jobs complete and journal normally.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop(false);
        self.stats()
    }

    /// Abrupt stop simulating a crash: fire the kill token, drop queued
    /// jobs, and make workers exit *without* journaling terminal entries
    /// for jobs the kill interrupted — the journal is left owing them,
    /// exactly as a SIGKILL would.
    pub fn kill(mut self) -> ServerStats {
        self.stop(true);
        self.stats()
    }

    fn stop(&mut self, kill: bool) {
        if kill {
            self.shared.kill_token.cancel();
            self.shared.queue.clear();
        }
        self.shared.queue.close();
        // Wake paused workers so they can observe the stop and exit.
        self.release_workers();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.log(if kill { "killed" } else { "drained and stopped" });
    }
}

/// Fold the replayed journal into queue + cache state.
fn recover(shared: &Arc<Shared>, replay: crate::journal::Replay) -> RecoveryReport {
    struct JobTrail {
        accepted: Option<JournalEntry>,
        finished: Option<(bool, Option<String>)>,
    }
    let mut order: Vec<String> = Vec::new();
    let mut trails: HashMap<String, JobTrail> = HashMap::new();
    for entry in &replay.entries {
        let job = entry.job().to_string();
        let trail = trails.entry(job.clone()).or_insert_with(|| {
            order.push(job.clone());
            JobTrail { accepted: None, finished: None }
        });
        match entry {
            JournalEntry::Accepted { .. } => trail.accepted = Some(entry.clone()),
            JournalEntry::Started { .. } => {}
            JournalEntry::Finished { ok, digest, .. } => {
                trail.finished = Some((*ok, digest.clone()));
            }
        }
    }
    let mut report =
        RecoveryReport { dropped_torn_tail: replay.dropped_torn_tail, ..Default::default() };
    for id in order {
        let trail = &trails[&id];
        shared.ids.lock().unwrap().insert(id.clone());
        let Some(JournalEntry::Accepted { priority, input, fingerprint, fasta, .. }) =
            trail.accepted.clone()
        else {
            continue;
        };
        let requeue = |report_bucket: &mut Vec<String>| {
            let job = QueuedJob {
                id: id.clone(),
                client: None,
                priority,
                input: input.clone(),
                fasta: fasta.clone(),
            };
            // Workers start after recovery, so registering after the push
            // still precedes any pop; a cancel finds the job from now on.
            if shared.queue.push_recovered(job).is_ok() {
                shared.live.lock().unwrap().insert(id.clone(), LiveJob::new(EventSink::null()));
                shared.stats.lock().unwrap().accepted += 1;
                report_bucket.push(id.clone());
            }
        };
        match &trail.finished {
            None => requeue(&mut report.requeued),
            Some((true, Some(digest))) => {
                let path = shared.output_path(&id);
                match std::fs::read_to_string(&path) {
                    Ok(text) if digest::payload(&text) == *digest => {
                        // Only this configuration's results can ever be
                        // hit; another's would just take cache budget.
                        if fingerprint == shared.fingerprint {
                            let rows = text.lines().filter(|l| l.starts_with('>')).count();
                            shared.cache.insert(
                                &input,
                                CachedResult { digest: digest.clone(), rows, fasta: text },
                            );
                        }
                        report.skipped.push(id.clone());
                    }
                    // Missing or corrupt output: the journaled claim fails
                    // verification, so the work is still owed.
                    _ => requeue(&mut report.reran),
                }
            }
            // `ok` with no digest never happens in well-formed journals;
            // treat it like a failed verification.
            Some((true, None)) => requeue(&mut report.reran),
            // Terminal failure (including explicit cancels): not re-run.
            Some((false, _)) => {}
        }
    }
    report
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        if shared.queue.is_closed() {
            return;
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                // Events are small single lines; without NODELAY they sit
                // in Nagle's buffer and clients see them tens of ms late.
                stream.set_nodelay(true).ok();
                let client = shared.next_client.fetch_add(1, Ordering::Relaxed) + 1;
                shared.log(&format!("client {client} connected from {peer}"));
                let shared = Arc::clone(shared);
                // Detached: the thread exits on EOF, read error, or kill.
                let _ = std::thread::Builder::new()
                    .name(format!("sad-serve-conn-{client}"))
                    .spawn(move || connection_loop(&shared, stream, client));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn connection_loop(shared: &Arc<Shared>, stream: TcpStream, client: u64) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let sink = EventSink::new(stream);
    sink.send(&event::hello());
    let mut reader = LineReader::new(reader_stream);
    loop {
        match reader.next_line() {
            Ok(LineEvent::Line(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                match parse_request(&line) {
                    Ok(Request::Submit { id, priority, fasta }) => {
                        handle_submit(shared, client, &sink, id.as_deref(), priority, &fasta);
                    }
                    Ok(Request::Cancel { job }) => handle_cancel(shared, &sink, &job),
                    Ok(Request::Shutdown) => {
                        shared.log(&format!("client {client} requested shutdown"));
                        // Close first: `bye` confirms the drain has begun.
                        shared.queue.close();
                        sink.send(&event::bye());
                        return;
                    }
                    Err(reason) => sink.send(&event::error(None, &reason)),
                }
            }
            Ok(LineEvent::TimedOut) => {
                if shared.kill_token.is_cancelled() {
                    return;
                }
            }
            Ok(LineEvent::Eof) | Err(_) => {
                shared.log(&format!("client {client} disconnected"));
                return;
            }
        }
    }
}

fn handle_submit(
    shared: &Arc<Shared>,
    client: u64,
    sink: &EventSink,
    requested: Option<&str>,
    priority: i64,
    fasta: &str,
) {
    let label = requested.unwrap_or("<unnamed>");
    // Validate before spending a job id or queue slot. The id check is
    // load-bearing: ids are interpolated into output paths, so a
    // traversal-shaped id ("../x", "/abs/path") must be refused here —
    // over TCP there is no auth between a submit and a filesystem write.
    if let Some(req) = requested {
        let req = req.trim();
        if !req.is_empty() && !valid_job_id(req) {
            sink.send(&event::rejected(
                label,
                &format!(
                    "invalid job id: use ASCII [A-Za-z0-9._-], no leading '.', \
                     at most {MAX_JOB_ID_LEN} bytes"
                ),
            ));
            return;
        }
    }
    let seqs = match bioseq::fasta::parse(fasta) {
        Ok(seqs) => seqs,
        Err(e) => {
            sink.send(&event::rejected(label, &format!("invalid FASTA: {e}")));
            return;
        }
    };
    if let Err(e) = shared.cfg.sad.validate_for(&seqs) {
        sink.send(&event::rejected(label, &e.to_string()));
        return;
    }
    let id = shared.reserve_id(requested);
    let input = digest::payload(fasta);
    let entry = JournalEntry::Accepted {
        job: id.clone(),
        client: Some(client),
        priority,
        input: input.clone(),
        fingerprint: shared.fingerprint.clone(),
        fasta: fasta.to_string(),
    };

    // Cache hit: answer at accept time — no queue slot, no worker, no DP —
    // unless the server is draining, which refuses it like any other.
    if let Some(hit) = shared.cache.get(&input) {
        if shared.queue.is_closed() {
            sink.send(&event::rejected(label, SHUTTING_DOWN));
            return;
        }
        let journaled = {
            let mut journal = shared.journal.lock().unwrap();
            journal.append(&entry).and_then(|()| {
                std::fs::write(shared.output_path(&id), &hit.fasta).map_err(JournalError::Io)?;
                journal.append(&JournalEntry::Finished {
                    job: id.clone(),
                    ok: true,
                    digest: Some(hit.digest.clone()),
                    error: None,
                })
            })
        };
        if let Err(e) = journaled {
            sink.send(&event::rejected(label, &format!("journal write failed: {e}")));
            return;
        }
        {
            let mut stats = shared.stats.lock().unwrap();
            stats.accepted += 1;
            stats.cache_hits += 1;
            stats.completed += 1;
        }
        sink.send(&event::accepted(label, &id));
        sink.send(&event::result(&id, true, &hit.digest, hit.rows, 0.0, &hit.fasta));
        shared.log(&format!("job {id}: served from cache"));
        return;
    }

    let job = QueuedJob {
        id: id.clone(),
        client: Some(client),
        priority,
        input,
        fasta: fasta.to_string(),
    };
    // Registered before visibility so a worker that pops the job
    // immediately finds its token and sink.
    shared.live.lock().unwrap().insert(id.clone(), LiveJob::new(sink.clone()));
    let pushed = shared.queue.push(job, || {
        shared.journal_append(&entry)?;
        // Acknowledge inside the admission critical section: the client
        // is guaranteed to see `accepted` before any event a worker
        // emits for this job.
        sink.send(&event::accepted(label, &id));
        Ok::<(), JournalError>(())
    });
    match pushed {
        Ok(()) => shared.stats.lock().unwrap().accepted += 1,
        Err(refusal) => {
            shared.live.lock().unwrap().remove(&id);
            let reason = match refusal {
                PushResult::Refused(PushError::Full) => "queue full".to_string(),
                PushResult::Refused(PushError::Closed) => SHUTTING_DOWN.to_string(),
                PushResult::Action(e) => format!("journal write failed: {e}"),
            };
            sink.send(&event::rejected(label, &reason));
        }
    }
}

fn handle_cancel(shared: &Arc<Shared>, sink: &EventSink, job: &str) {
    // Still pending: remove it from the queue — the slot frees
    // immediately, no worker ever sees the job.
    if let Some(_cancelled) = shared.queue.cancel(job) {
        let submitter = shared.live.lock().unwrap().remove(job);
        let terminal = JournalEntry::Finished {
            job: job.to_string(),
            ok: false,
            digest: None,
            error: Some("cancelled before start".into()),
        };
        if !shared.kill_token.is_cancelled() {
            let _ = shared.journal_append(&terminal);
        }
        shared.stats.lock().unwrap().cancelled += 1;
        let line = event::cancelled(job, "cancelled before start");
        sink.send(&line);
        if let Some(submitter) = submitter {
            submitter.sink.send(&line);
        }
        return;
    }
    // Running: fire its token; the worker observes it at the next phase
    // boundary and emits the terminal `cancelled` event.
    let running = shared.live.lock().unwrap().get(job).map(|live| live.cancel.clone());
    if let Some(token) = running {
        token.cancel();
        sink.send(&event::cancel_requested(job));
        return;
    }
    sink.send(&event::error(Some(job), "unknown or already finished job"));
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        // Pause gate (tests stage the queue, then release).
        {
            let mut paused = shared.gate.lock().unwrap();
            while *paused {
                if shared.kill_token.is_cancelled() {
                    return;
                }
                // A drain request releases the gate: graceful shutdown
                // still finishes what's queued.
                if shared.queue.is_closed() {
                    break;
                }
                let (guard, _) =
                    shared.gate_cv.wait_timeout(paused, Duration::from_millis(50)).unwrap();
                paused = guard;
            }
        }
        if shared.kill_token.is_cancelled() {
            return;
        }
        let Some(job) = shared.queue.pop(Duration::from_millis(50)) else {
            if shared.kill_token.is_cancelled()
                || (shared.queue.is_closed() && shared.queue.is_empty())
            {
                return;
            }
            continue;
        };
        shared.active.fetch_add(1, Ordering::SeqCst);
        let live = shared.live.lock().unwrap().get(&job.id).cloned();
        let live = live.expect("a job is in the live table from admission until it ends");
        let terminal = run_one(shared, &job, &live);
        // The job's one removal: from here on a cancel answers "unknown
        // or already finished".
        shared.live.lock().unwrap().remove(&job.id);
        if let Some(line) = terminal {
            live.sink.send(&line);
        }
        shared.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Run one popped job to its end: journal, write, cache and count it, and
/// return the terminal event line for its submitter — `None` when a kill
/// interrupted it (no terminal entry, as a crash would leave) or its
/// `Started` entry could not be journaled.
fn run_one(shared: &Arc<Shared>, job: &QueuedJob, live: &LiveJob) -> Option<String> {
    if shared.kill_token.is_cancelled() {
        return None;
    }
    let sink = &live.sink;
    if shared.journal_append(&JournalEntry::Started { job: job.id.clone() }).is_err() {
        shared.log(&format!("job {}: journal write failed, dropping", job.id));
        return None;
    }
    sink.send(&event::started(&job.id));
    shared.log(&format!("job {}: started", job.id));
    if let Some(hold) = &shared.cfg.hold {
        hold.wait(|| shared.kill_token.is_cancelled());
        if shared.kill_token.is_cancelled() {
            return None;
        }
    }

    let seqs = match bioseq::fasta::parse(&job.fasta) {
        Ok(seqs) => seqs,
        Err(e) => return Some(finish_err(shared, job, &format!("invalid FASTA: {e}"), false)),
    };
    let forward_sink = sink.clone();
    let forward_id = job.id.clone();
    let observer = Arc::new(move |e: &Event| {
        if let Event::PhaseFinished { phase, seconds, .. } = e {
            forward_sink.send(&event::phase(&forward_id, phase.name(), *seconds));
        }
    });
    let started_at = Instant::now();
    let outcome = Aligner::new(shared.cfg.sad.clone())
        .backend(shared.cfg.backend.clone())
        .cancel_token(CancelToken::fused([&shared.kill_token, &live.cancel]))
        .observer(observer)
        .run(&seqs);
    // Crash simulation: a killed job leaves no output and no terminal
    // journal entry.
    if shared.kill_token.is_cancelled() {
        return None;
    }
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            let cancelled = matches!(e, SadError::Cancelled { .. });
            return Some(finish_err(shared, job, &e.to_string(), cancelled));
        }
    };
    let text = bioseq::fasta::write_alignment(&report.msa);
    let out_digest = digest::payload(&text);
    if let Err(e) = std::fs::write(shared.output_path(&job.id), &text) {
        return Some(finish_err(shared, job, &format!("output write failed: {e}"), false));
    }
    let rows = report.msa.num_rows();
    shared
        .cache
        .insert(&job.input, CachedResult { digest: out_digest.clone(), rows, fasta: text.clone() });
    let _ = shared.journal_append(&JournalEntry::Finished {
        job: job.id.clone(),
        ok: true,
        digest: Some(out_digest.clone()),
        error: None,
    });
    {
        let mut stats = shared.stats.lock().unwrap();
        stats.completed += 1;
        stats.dp_cells += report.work.dp_cells;
    }
    let seconds = started_at.elapsed().as_secs_f64();
    shared.log(&format!("job {}: finished in {seconds:.3}s", job.id));
    Some(event::result(&job.id, false, &out_digest, rows, seconds, &text))
}

/// Journal and count a job that ended without an alignment; returns its
/// terminal event line.
fn finish_err(shared: &Arc<Shared>, job: &QueuedJob, msg: &str, cancelled: bool) -> String {
    let _ = shared.journal_append(&JournalEntry::Finished {
        job: job.id.clone(),
        ok: false,
        digest: None,
        error: Some(msg.to_string()),
    });
    shared.log(&format!("job {}: {msg}", job.id));
    if cancelled {
        shared.stats.lock().unwrap().cancelled += 1;
        event::cancelled(&job.id, msg)
    } else {
        shared.stats.lock().unwrap().failed += 1;
        event::error(Some(&job.id), msg)
    }
}

/// Where a job's output lands: the server writes it there, and tests and
/// the CLI look for it there.
pub fn output_path(out_dir: &Path, job: &str) -> PathBuf {
    out_dir.join(format!("{job}.aligned.fa"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_id_validation_refuses_path_shapes() {
        for ok in ["fam_a", "c0-j1", "Fam.2", "x", &"a".repeat(MAX_JOB_ID_LEN)] {
            assert!(valid_job_id(ok), "{ok:?} should be accepted");
        }
        for bad in [
            "",
            "../../etc/cron.d/evil",
            "/etc/passwd",
            "..",
            ".",
            ".hidden",
            "a/b",
            "a\\b",
            "fam a",
            "fam\n",
            "fam\u{e9}",
            &"a".repeat(MAX_JOB_ID_LEN + 1),
        ] {
            assert!(!valid_job_id(bad), "{bad:?} should be refused");
        }
        // Collision suffixes on a maximal id stay path-safe.
        assert!(path_safe_id(&format!("{}-2", "a".repeat(MAX_JOB_ID_LEN))));
    }
}
