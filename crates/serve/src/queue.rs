//! The bounded job queue: priority first, then per-client round-robin.
//!
//! Workers self-schedule off a shared queue, as in the PR-5 batch runner,
//! but the serve queue adds three things the batch runner never needed:
//!
//! 1. **Admission control** — the queue is bounded; a full queue rejects
//!    the submission instead of letting one client buffer unbounded work.
//! 2. **Fairness** — among jobs of equal priority, the client that was
//!    served longest ago goes first, so a client that dumps fifty jobs
//!    cannot starve a client that submits one.
//! 3. **Atomic admission** — [`JobQueue::push`] runs a caller-supplied
//!    durability action (journal the `Accepted` entry, acknowledge the
//!    client) *before* the job becomes visible to workers, under the queue
//!    lock, so no worker can start a job whose acceptance was never
//!    journaled.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// A job waiting for a worker.
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// Server-unique job id.
    pub id: String,
    /// Submitting client connection (None for recovery re-queues).
    pub client: Option<u64>,
    /// Scheduling priority; higher runs first.
    pub priority: i64,
    /// Digest of `fasta`.
    pub input: String,
    /// Raw FASTA input.
    pub fasta: String,
}

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity.
    Full,
    /// The queue has been closed for new work (drain or kill).
    Closed,
}

struct Inner {
    pending: Vec<QueuedJob>,
    /// Tick at which each client was last served; absent = never served,
    /// which sorts first.
    served: HashMap<u64, u64>,
    tick: u64,
    capacity: usize,
    closed: bool,
}

/// The shared queue. All methods are safe to call from any thread.
pub struct JobQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
}

impl JobQueue {
    /// A queue admitting at most `capacity` pending jobs.
    pub fn new(capacity: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(Inner {
                pending: Vec::new(),
                served: HashMap::new(),
                tick: 0,
                capacity,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Admit a job. `before_visible` runs under the queue lock after the
    /// capacity check passes and before any worker can see the job; if it
    /// fails, the job is not admitted.
    pub fn push<E>(
        &self,
        job: QueuedJob,
        before_visible: impl FnOnce() -> Result<(), E>,
    ) -> Result<(), PushResult<E>> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(PushResult::Refused(PushError::Closed));
        }
        if inner.pending.len() >= inner.capacity {
            return Err(PushResult::Refused(PushError::Full));
        }
        before_visible().map_err(PushResult::Action)?;
        inner.pending.push(job);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Re-admit a job during recovery: bypasses the capacity bound (the
    /// journal already owes this work) but still respects `closed`.
    pub fn push_recovered(&self, job: QueuedJob) -> Result<(), PushError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(PushError::Closed);
        }
        inner.pending.push(job);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Take the next job, blocking up to `timeout`. Returns `None` on
    /// timeout or when the queue is closed and drained.
    pub fn pop(&self, timeout: Duration) -> Option<QueuedJob> {
        let mut inner = self.inner.lock().unwrap();
        let mut timed_out = false;
        loop {
            if let Some(at) = Self::choose(&inner) {
                let job = inner.pending.remove(at);
                if let Some(c) = job.client {
                    let tick = inner.tick;
                    inner.served.insert(c, tick);
                    inner.tick += 1;
                }
                return Some(job);
            }
            if inner.closed || timed_out {
                return None;
            }
            let (guard, wait) = self.ready.wait_timeout(inner, timeout).unwrap();
            inner = guard;
            timed_out = wait.timed_out();
        }
    }

    /// The scheduling rule: highest priority wins; within a priority the
    /// client served longest ago wins (never-served sorts first, then by
    /// client id for determinism); within a client, FIFO.
    fn choose(inner: &Inner) -> Option<usize> {
        let top = inner.pending.iter().map(|j| j.priority).max()?;
        let mut best: Option<(u64, u64, usize)> = None;
        for (at, job) in inner.pending.iter().enumerate() {
            if job.priority != top {
                continue;
            }
            // Key: (last-served tick, client id) — both 0 for anonymous
            // recovery jobs, which therefore go before any served client.
            let client = job.client.unwrap_or(0);
            let served = job.client.and_then(|c| inner.served.get(&c)).map_or(0, |t| t + 1);
            let key = (served, client);
            match best {
                Some((s, c, _)) if (s, c) <= key => {}
                _ => best = Some((key.0, key.1, at)),
            }
        }
        best.map(|(_, _, at)| at)
    }

    /// Remove a still-pending job by id: the immediate-release path for a
    /// `CANCEL` that lands before a worker picks the job up.
    pub fn cancel(&self, id: &str) -> Option<QueuedJob> {
        let mut inner = self.inner.lock().unwrap();
        let at = inner.pending.iter().position(|j| j.id == id)?;
        Some(inner.pending.remove(at))
    }

    /// Number of pending jobs.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().pending.len()
    }

    /// Whether the queue has no pending jobs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stop admitting work; blocked `pop`s return once drained.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_all();
    }

    /// Whether [`JobQueue::close`] has run: the server is draining (or
    /// was killed) and admits no new work.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }

    /// Drop all pending jobs (abrupt kill).
    pub fn clear(&self) -> usize {
        let mut inner = self.inner.lock().unwrap();
        let n = inner.pending.len();
        inner.pending.clear();
        n
    }
}

/// Outcome of a failed [`JobQueue::push`].
#[derive(Debug)]
pub enum PushResult<E> {
    /// The queue refused the job (full or closed).
    Refused(PushError),
    /// The `before_visible` durability action failed.
    Action(E),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: &str, client: u64, priority: i64) -> QueuedJob {
        QueuedJob {
            id: id.into(),
            client: Some(client),
            priority,
            input: String::new(),
            fasta: String::new(),
        }
    }

    fn ok_push(q: &JobQueue, j: QueuedJob) {
        q.push::<()>(j, || Ok(())).map_err(|_| "push failed").unwrap();
    }

    fn drain(q: &JobQueue) -> Vec<String> {
        let mut ids = Vec::new();
        while let Some(j) = q.pop(Duration::from_millis(1)) {
            ids.push(j.id);
        }
        ids
    }

    #[test]
    fn priority_beats_arrival_order() {
        let q = JobQueue::new(16);
        ok_push(&q, job("low", 1, 0));
        ok_push(&q, job("high", 1, 5));
        ok_push(&q, job("mid", 1, 2));
        assert_eq!(drain(&q), ["high", "mid", "low"]);
    }

    #[test]
    fn equal_priority_round_robins_across_clients() {
        let q = JobQueue::new(16);
        // Client 1 dumps three jobs, then client 2 submits one.
        for id in ["a1", "a2", "a3"] {
            ok_push(&q, job(id, 1, 0));
        }
        ok_push(&q, job("b1", 2, 0));
        // a1 goes first (nobody served yet, lower client id), but b1 must
        // come before a2: client 2 has been served less recently.
        assert_eq!(drain(&q), ["a1", "b1", "a2", "a3"]);
    }

    #[test]
    fn within_a_client_order_is_fifo() {
        let q = JobQueue::new(16);
        for id in ["first", "second", "third"] {
            ok_push(&q, job(id, 7, 0));
        }
        assert_eq!(drain(&q), ["first", "second", "third"]);
    }

    #[test]
    fn bounded_push_rejects_when_full() {
        let q = JobQueue::new(2);
        ok_push(&q, job("a", 1, 0));
        ok_push(&q, job("b", 1, 0));
        match q.push::<()>(job("c", 1, 0), || Ok(())) {
            Err(PushResult::Refused(PushError::Full)) => {}
            other => panic!("expected Full, got {other:?}"),
        }
        // Recovery pushes bypass the bound.
        q.push_recovered(job("r", 1, 0)).unwrap();
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn failed_admission_action_keeps_job_invisible() {
        let q = JobQueue::new(4);
        let res = q.push(job("a", 1, 0), || Err("journal write failed"));
        assert!(matches!(res, Err(PushResult::Action("journal write failed"))));
        assert!(q.is_empty());
    }

    #[test]
    fn closed_queue_refuses_and_drains() {
        let q = JobQueue::new(4);
        ok_push(&q, job("a", 1, 0));
        assert!(!q.is_closed());
        q.close();
        assert!(q.is_closed());
        assert!(matches!(
            q.push::<()>(job("b", 1, 0), || Ok(())),
            Err(PushResult::Refused(PushError::Closed))
        ));
        assert!(matches!(q.push_recovered(job("c", 1, 0)), Err(PushError::Closed)));
        assert_eq!(drain(&q), ["a"]);
        assert!(q.pop(Duration::from_millis(1)).is_none());
    }

    #[test]
    fn cancel_releases_pending_slot_immediately() {
        let q = JobQueue::new(2);
        ok_push(&q, job("a", 1, 0));
        ok_push(&q, job("b", 1, 0));
        let gone = q.cancel("a").expect("a is pending");
        assert_eq!(gone.id, "a");
        assert!(q.cancel("a").is_none(), "cancel is idempotent on the queue");
        // The slot is free again right away.
        ok_push(&q, job("c", 1, 0));
        assert_eq!(drain(&q), ["b", "c"]);
    }

    #[test]
    fn clear_drops_everything() {
        let q = JobQueue::new(4);
        ok_push(&q, job("a", 1, 0));
        ok_push(&q, job("b", 2, 0));
        assert_eq!(q.clear(), 2);
        assert!(q.is_empty());
    }
}
