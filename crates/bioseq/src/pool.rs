//! The one worker pool every parallel loop in the workspace runs on.
//!
//! [`map`] runs `n` indexed tasks on up to `workers` scoped threads that
//! self-schedule: an idle worker claims the next unclaimed index, so one
//! long task never strands a queue behind it. Each worker builds one
//! long-lived state with `init()` (DP scratch, a k-mer scatter table, or
//! `()`) and hands it to every task it runs. Results come back in index
//! order, so output never depends on which worker ran what.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The host's available parallelism (1 when it cannot be queried).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Run tasks `0..n` as `run(i, &mut state)` on up to `workers`
/// self-scheduling threads, each owning one `init()` state, and return
/// the results in index order.
///
/// One worker (or `workers == 0`) runs every task inline on the caller's
/// thread with a single state. A task's panic reaches the caller with its
/// own payload once the other workers have stopped.
///
/// ```
/// let squares = bioseq::pool::map(5, 2, || (), |i, _| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn map<S, T>(
    n: usize,
    workers: usize,
    init: impl Fn() -> S + Sync,
    run: impl Fn(usize, &mut S) -> T + Sync,
) -> Vec<T>
where
    T: Send,
{
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        let mut state = init();
        return (0..n).map(|i| run(i, &mut state)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let worker = || {
            let mut state = init();
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return done;
                }
                done.push((i, run(i, &mut state)));
            }
        };
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => done.into_iter().for_each(|(i, t)| out[i] = Some(t)),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out.into_iter().map(|t| t.expect("every task ran")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn results_come_back_in_index_order() {
        for n in [0, 1, 7, 100] {
            for workers in [1, 2, 8] {
                let got = map(n, workers, || (), |i, _| 3 * i + 1);
                assert_eq!(got, (0..n).map(|i| 3 * i + 1).collect::<Vec<_>>(), "n={n} w={workers}");
            }
        }
    }

    #[test]
    fn each_worker_builds_one_state() {
        for n in [0, 1, 7, 100] {
            for workers in [1, 2, 8] {
                let inits = AtomicUsize::new(0);
                let init = || inits.fetch_add(1, Ordering::Relaxed);
                // Each task reports which state it ran with.
                let states = map(n, workers, init, |_, s: &mut usize| *s);
                let built = inits.into_inner();
                assert!(built <= workers.min(n).max(1), "n={n} w={workers}: {built} inits");
                assert!(states.iter().all(|&s| s < built));
            }
        }
    }

    #[test]
    fn one_worker_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        map(10, 1, || (), |_, _| seen.lock().unwrap().push(std::thread::current().id()));
        assert_eq!(seen.into_inner().unwrap(), vec![caller; 10]);
    }

    #[test]
    #[should_panic(expected = "task 5 failed")]
    fn a_task_panic_keeps_its_own_message() {
        map(
            8,
            4,
            || (),
            |i, _| {
                if i == 5 {
                    panic!("task {i} failed");
                }
            },
        );
    }
}
