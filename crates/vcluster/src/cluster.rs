//! The cluster runner: spawns one thread per rank and collects results and
//! traces.

use crate::cost::CostModel;
use crate::node::{Envelope, Node};
use crate::trace::RankTrace;
use std::sync::mpsc::{channel, Receiver, Sender};

/// A virtual cluster of `p` ranks sharing a [`CostModel`].
#[derive(Debug, Clone)]
pub struct VirtualCluster {
    p: usize,
    cost: CostModel,
}

/// The outcome of a cluster run.
#[derive(Debug)]
pub struct ClusterRun<R> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank execution traces, indexed by rank.
    pub traces: Vec<RankTrace>,
    /// Virtual wall-clock of the run: the maximum final clock over ranks.
    pub makespan: f64,
}

impl VirtualCluster {
    /// Create a cluster of `p ≥ 1` ranks.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize, cost: CostModel) -> Self {
        assert!(p >= 1, "cluster needs at least one rank");
        VirtualCluster { p, cost }
    }

    /// Number of ranks.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Run the SPMD program `f` on every rank and wait for completion.
    ///
    /// Each rank executes on its own OS thread with real (FIFO, typed)
    /// channels to every other rank; clocks are virtual (see crate docs).
    /// Panics in any rank propagate (the run aborts with that panic).
    pub fn run<R, F>(&self, f: F) -> ClusterRun<R>
    where
        R: Send,
        F: Fn(&Node) -> R + Send + Sync,
    {
        let p = self.p;
        // channel matrix: senders[src][dst] pairs with receivers[dst][src].
        let mut senders: Vec<Vec<Sender<Envelope>>> =
            (0..p).map(|_| Vec::with_capacity(p)).collect();
        let mut receivers: Vec<Vec<Option<Receiver<Envelope>>>> =
            (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
        for (src, sender_row) in senders.iter_mut().enumerate() {
            for (dst, _) in (0..p).enumerate() {
                let (tx, rx) = channel();
                sender_row.push(tx);
                receivers[dst][src] = Some(rx);
            }
            let _ = src;
        }

        let mut outcomes: Vec<Option<(R, RankTrace)>> = (0..p).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            for (rank, (sender_row, receiver_row)) in senders.into_iter().zip(receivers).enumerate()
            {
                let cost = self.cost;
                let fref = &f;
                let receiver_row: Vec<_> =
                    receiver_row.into_iter().map(|r| r.expect("wired")).collect();
                handles.push(scope.spawn(move || {
                    let node = Node::new(rank, p, cost, sender_row, receiver_row);
                    let result = fref(&node);
                    (result, node.finish())
                }));
            }
            for (rank, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok(pair) => outcomes[rank] = Some(pair),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });

        let mut results = Vec::with_capacity(p);
        let mut traces = Vec::with_capacity(p);
        for o in outcomes {
            let (r, t) = o.expect("every rank completed");
            results.push(r);
            traces.push(t);
        }
        let makespan = traces.iter().map(|t| t.final_clock).fold(0.0, f64::max);
        ClusterRun { results, traces, makespan }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::Work;

    #[test]
    fn single_rank_runs() {
        let c = VirtualCluster::new(1, CostModel::beowulf_2008());
        let run = c.run(|node| {
            node.compute(Work::dp(1_000_000));
            node.rank()
        });
        assert_eq!(run.results, vec![0]);
        assert!((run.makespan - 0.1).abs() < 1e-9); // 1e6 cells at 1e-7 s
    }

    #[test]
    fn ping_pong_advances_clocks() {
        let c = VirtualCluster::new(2, CostModel::beowulf_2008());
        let run = c.run(|node| {
            if node.rank() == 0 {
                node.send(1, 7, vec![0u8; 1000]);
                let _: Vec<u8> = node.recv(1, 8);
            } else {
                let v: Vec<u8> = node.recv(0, 7);
                node.send(0, 8, v);
            }
            node.clock()
        });
        let m = CostModel::beowulf_2008();
        // Round trip: 2 sends (overhead + 1008 bytes each) + 2 latencies +
        // 2 recv overheads.
        let expected = 2.0 * m.send_seconds(1008) + 2.0 * m.latency + 2.0 * m.recv_overhead;
        assert!((run.results[0] - expected).abs() < 1e-9, "got {} want {expected}", run.results[0]);
        assert!(run.makespan >= run.results[1]);
    }

    #[test]
    fn determinism_across_runs() {
        let c = VirtualCluster::new(5, CostModel::beowulf_2008());
        let go = || {
            c.run(|node| {
                node.compute(Work::dp((node.rank() as u64 + 1) * 1000));
                let all = node.broadcast(0, node.gather(0, node.rank() as u64));
                let spread = node.all_to_allv(vec![vec![node.rank() as u32]; node.size()]);
                (all, spread, node.clock())
            })
        };
        let a = go();
        let b = go();
        assert_eq!(a.results, b.results);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.traces, b.traces);
    }

    #[test]
    fn clocks_never_negative_and_monotone() {
        let c = VirtualCluster::new(3, CostModel::modern());
        let run = c.run(|node| {
            let t0 = node.clock();
            node.broadcast(0, node.gather(0, 0u8));
            let t1 = node.clock();
            node.compute(Work::kmer(500));
            let t2 = node.clock();
            assert!(t0 <= t1 && t1 <= t2);
            t2
        });
        assert!(run.results.iter().all(|&t| t >= 0.0));
    }

    #[test]
    fn byte_accounting() {
        let c = VirtualCluster::new(2, CostModel::beowulf_2008());
        let run = c.run(|node| {
            if node.rank() == 0 {
                node.send(1, 1, vec![0u8; 100]);
            } else {
                let _: Vec<u8> = node.recv(0, 1);
            }
        });
        assert_eq!(run.traces[0].bytes_sent, 108);
        assert_eq!(run.traces[0].msgs_sent, 1);
        assert_eq!(run.traces[1].msgs_received, 1);
        assert_eq!(run.traces.iter().map(|t| t.bytes_sent).sum::<u64>(), 108);
    }

    #[test]
    #[should_panic(expected = "tag mismatch")]
    fn tag_mismatch_panics() {
        let c = VirtualCluster::new(2, CostModel::beowulf_2008());
        c.run(|node| {
            if node.rank() == 0 {
                node.send(1, 1, 42u32);
            } else {
                let _: u32 = node.recv(0, 2);
            }
        });
    }

    #[test]
    fn free_network_makes_comm_free() {
        let c = VirtualCluster::new(4, CostModel::free_network());
        let run = c.run(|node| {
            node.broadcast(0, node.gather(0, vec![0u8; 10_000]));
            node.clock()
        });
        for t in run.results {
            assert_eq!(t, 0.0);
        }
    }

    #[test]
    fn compute_seconds_attributed() {
        let c = VirtualCluster::new(3, CostModel::beowulf_2008());
        let run = c.run(|node| node.compute(Work::sort(1000 * (node.rank() as u64 + 1))));
        let one = CostModel::beowulf_2008().work_seconds(&Work::sort(1000));
        for t in &run.traces {
            assert!((t.compute_s - one * (t.rank + 1) as f64).abs() < 1e-15);
            assert_eq!(t.comm_s, 0.0);
        }
        let total: f64 = run.traces.iter().map(|t| t.compute_s).sum();
        assert!((total - 6.0 * one).abs() < 1e-12);
    }
}
