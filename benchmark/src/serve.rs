//! The `serve_mix` workload: a spawned `sad serve`, closed-loop client
//! connections driving it through `sad_serve::Client`, and the checks on
//! what came back.

use crate::e2e::Env;
use crate::inputs::{ServeJob, ServeMix, Truth};
use crate::proc::{Exit, Proc};
use crate::verify::{body, check_alignment};
use sad_serve::{Client, Json, Submitted};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Longest any single wait on the daemon may take.
const PATIENCE: Duration = Duration::from_secs(60);

/// A running `sad serve` child on an OS-assigned port.
pub struct Daemon {
    proc: Proc,
    pub addr: SocketAddr,
    pub start_s: f64,
}

impl Daemon {
    /// Spawn `sad serve` journaling to `dir/journal.jsonl` and writing
    /// results under `dir/out`; returns once it listens.
    pub fn start(env: &Env, dir: &Path, workers: usize) -> Result<Daemon, String> {
        let log = std::fs::File::create(dir.join("serve.log")).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let mut proc = Proc::spawn(
            Command::new(&env.sad)
                .args(["serve", "--port", "0", "--workers", &workers.to_string()])
                .arg("--journal")
                .arg(journal_path(dir))
                .arg("--out")
                .arg(dir.join("out"))
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(log),
        )
        .map_err(|e| format!("cannot spawn sad serve: {e}"))?;
        let stdout = proc.child().stdout.take().expect("stdout was piped");
        let mut first = String::new();
        BufReader::new(stdout).read_line(&mut first).map_err(|e| e.to_string())?;
        // "sad-serve listening on 127.0.0.1:PORT (2 workers, journal ...)"
        let addr = first
            .strip_prefix("sad-serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("sad serve did not announce its address: {first:?}"))?;
        Ok(Daemon { proc, addr, start_s: started.elapsed().as_secs_f64() })
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect_with_retry(self.addr, PATIENCE).map_err(|e| format!("cannot connect: {e}"))
    }

    /// Ask the daemon to drain and exit, and reap it. Its peak RSS is read
    /// before the request, while it still holds everything the session
    /// made it hold.
    pub fn stop(mut self) -> Result<Exit, String> {
        self.proc.sample_peak_rss();
        self.connect()?.shutdown().map_err(|e| format!("cannot send SHUTDOWN: {e}"))?;
        self.proc.wait().map_err(|e| format!("cannot reap sad serve: {e}"))
    }
}

pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join("journal.jsonl")
}

/// What the client saw of one submission.
pub struct JobOutcome {
    /// `(connection, position)` in the mix.
    pub at: (usize, usize),
    pub latency_ms: f64,
    /// accepted -> started, started -> result; absent for cache hits,
    /// which never reach a worker.
    pub queue_wait_ms: Option<f64>,
    pub started_to_result_ms: Option<f64>,
    /// The terminal event, or why there is none.
    pub terminal: Result<Json, String>,
}

pub struct Session {
    pub wall_s: f64,
    pub outcomes: Vec<JobOutcome>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn kind(event: &Json) -> Option<&str> {
    event.get("event").and_then(Json::as_str)
}

fn submit_and_wait(
    client: &mut Client,
    job: &ServeJob,
    fasta: &str,
    at: (usize, usize),
) -> JobOutcome {
    let sent = Instant::now();
    let mut outcome = JobOutcome {
        at,
        latency_ms: 0.0,
        queue_wait_ms: None,
        started_to_result_ms: None,
        terminal: Err(String::new()),
    };
    let id = match client.submit(Some(&job.id), job.priority, fasta) {
        Ok(Submitted::Accepted { job }) => job,
        Ok(Submitted::Rejected { reason }) => {
            outcome.terminal = Err(format!("rejected: {reason}"));
            return outcome;
        }
        Err(e) => {
            outcome.terminal = Err(format!("submit failed: {e}"));
            return outcome;
        }
    };
    let accepted = Instant::now();
    let mut started = None;
    outcome.terminal = loop {
        let event = match client.next_event(PATIENCE) {
            Ok(event) => event,
            Err(e) => break Err(format!("no terminal event: {e}")),
        };
        if event.get("job").and_then(Json::as_str) != Some(id.as_str()) {
            continue;
        }
        match kind(&event) {
            Some("started") => started = Some(Instant::now()),
            Some("result" | "cancelled" | "error") => break Ok(event),
            _ => {}
        }
    };
    let done = Instant::now();
    outcome.latency_ms = ms(done - sent);
    if let Some(started) = started {
        outcome.queue_wait_ms = Some(ms(started - accepted));
        outcome.started_to_result_ms = Some(ms(done - started));
    }
    outcome
}

/// Run the whole mix: every connection submits its jobs one after another,
/// each waiting for its answer first. Wall time is first submit to last
/// answer.
pub fn run_session(daemon: &Daemon, mix: &ServeMix) -> Result<Session, String> {
    let mut clients = Vec::new();
    for _ in &mix.clients {
        clients.push(daemon.connect()?);
    }
    let started = Instant::now();
    let per_client: Vec<Vec<JobOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&mix.clients)
            .enumerate()
            .map(|(c, (mut client, plan))| {
                scope.spawn(move || {
                    plan.iter()
                        .enumerate()
                        .map(|(i, job)| {
                            submit_and_wait(&mut client, job, &mix.inputs[job.input].fasta, (c, i))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect()
    });
    Ok(Session {
        wall_s: started.elapsed().as_secs_f64(),
        outcomes: per_client.into_iter().flatten().collect(),
    })
}

/// One small job through the daemon, so its code and the sockets are warm.
pub fn warm_up(daemon: &Daemon, mix: &ServeMix) -> Result<(), String> {
    let job = &mix.clients[0][0];
    let outcome =
        submit_and_wait(&mut daemon.connect()?, job, &mix.inputs[job.input].fasta, (0, 0));
    match outcome.terminal {
        Ok(event) if kind(&event) == Some("result") => Ok(()),
        Ok(event) => Err(format!("warm-up job ended with {}", event.encode())),
        Err(e) => Err(format!("warm-up job: {e}")),
    }
}

pub struct Checked {
    pub failures: Vec<String>,
    /// Q of each submission's answer (only when asked for).
    pub qualities: Vec<f64>,
}

/// Check every answer of a session: it is a `result`; a repeat is answered
/// from the cache and nothing else is; the digest matches both the FASTA
/// in the event and the file the daemon wrote; the alignment is a faithful
/// alignment of what was submitted.
pub fn check_session(session: &Session, mix: &ServeMix, dir: &Path, score: bool) -> Checked {
    let mut checked = Checked { failures: Vec::new(), qualities: Vec::new() };
    // Q per distinct input: repeats return the same bytes.
    let mut q_of_input: Vec<Option<f64>> = vec![None; mix.inputs.len()];
    for outcome in &session.outcomes {
        let job = &mix.clients[outcome.at.0][outcome.at.1];
        let input = &mix.inputs[job.input];
        let verdict = (|| -> Result<Option<f64>, String> {
            let event = outcome.terminal.as_ref().map_err(String::clone)?;
            if kind(event) != Some("result") {
                return Err(format!("ended with {}", event.encode()));
            }
            let cached = event.get("cached").and_then(Json::as_bool);
            if cached != Some(job.duplicate) {
                return Err(format!("cached is {cached:?} but repeat is {}", job.duplicate));
            }
            let fasta = event.get("fasta").and_then(Json::as_str).ok_or("result without fasta")?;
            let digest =
                event.get("digest").and_then(Json::as_str).ok_or("result without digest")?;
            if sad_serve::digest::payload(fasta) != digest {
                return Err("digest does not match the FASTA in the event".into());
            }
            let name = event.get("job").and_then(Json::as_str).ok_or("result without job id")?;
            let path = sad_serve::server::output_path(&dir.join("out"), name);
            let on_disk = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            if sad_serve::digest::payload(&on_disk) != digest {
                return Err(format!("digest does not match {}", path.display()));
            }
            let msa = check_alignment(&body(fasta), &input.seqs)?;
            if !score {
                return Ok(None);
            }
            if q_of_input[job.input].is_none() {
                let Truth::Family(reference) = &input.truth else {
                    unreachable!("serve inputs are families")
                };
                q_of_input[job.input] = bioseq::compare::q_score_msa(&msa, reference);
            }
            q_of_input[job.input].map(Some).ok_or_else(|| "nothing to score".to_string())
        })();
        match verdict {
            Ok(Some(q)) => checked.qualities.push(q),
            Ok(None) => {}
            Err(e) => checked.failures.push(format!("serve job {}: {e}", job.id)),
        }
    }
    checked
}
