//! MPI-flavoured collectives built from point-to-point messages.
//!
//! All collectives are SPMD: every rank must call the same collective in
//! the same order. Tags are derived from a per-rank collective sequence
//! number, so interleaving bugs surface as tag-mismatch panics instead of
//! silent data corruption.
//!
//! Algorithm choices mirror the assumptions in the paper's cost analysis:
//! `broadcast` uses a binomial tree (`O(log p)` rounds, the paper's
//! `O(p log p)` term for broadcasting `p` pivots), while `gather` is
//! linear at the root (the paper charges `O(p²·L)` for collecting
//! `p(p−1)` samples of length `L`). `all_to_allv` uses the
//! classic `p−1`-round pairwise exchange, giving the `O(N/p · L)`
//! redistribution cost derived in Section 3. An all-gather is a `gather`
//! followed by a `broadcast` of the gathered vector.

use crate::node::Node;
use crate::wire::WireSize;

/// Operation ids folded into collective tags (for diagnosable mismatches).
#[derive(Debug, Clone, Copy)]
#[repr(u64)]
enum Op {
    Broadcast = 1,
    Gather = 2,
    AllToAllV = 4,
}

const COLL_BIT: u64 = 1 << 63;

impl Node {
    fn coll_tag(&self, op: Op) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        COLL_BIT | (seq << 8) | op as u64
    }

    /// Binomial-tree broadcast from `root`. The root passes `Some(value)`,
    /// all other ranks pass `None`; every rank returns the value.
    ///
    /// # Panics
    /// Panics if the root passes `None` or a non-root passes `Some`.
    pub fn broadcast<M: WireSize + Clone + Send + 'static>(
        &self,
        root: usize,
        value: Option<M>,
    ) -> M {
        let tag = self.coll_tag(Op::Broadcast);
        let p = self.size();
        let vrank = (self.rank() + p - root) % p;
        if vrank == 0 {
            assert!(value.is_some(), "broadcast root must supply the value");
        } else {
            assert!(value.is_none(), "non-root rank {} supplied a value", self.rank());
        }
        let mut held = value;
        let mut mask = 1usize;
        while mask < p {
            if vrank < mask {
                let partner = vrank + mask;
                if partner < p {
                    let dst = (partner + root) % p;
                    self.send(dst, tag, held.clone().expect("holder has value"));
                }
            } else if vrank < 2 * mask {
                let src = (vrank - mask + root) % p;
                held = Some(self.recv::<M>(src, tag));
            }
            mask <<= 1;
        }
        held.expect("broadcast completed without a value")
    }

    /// Linear gather to `root` in rank order. Returns `Some(values)` at the
    /// root (index = source rank), `None` elsewhere.
    pub fn gather<M: WireSize + Send + 'static>(&self, root: usize, value: M) -> Option<Vec<M>> {
        let tag = self.coll_tag(Op::Gather);
        if self.rank() == root {
            let mut out: Vec<Option<M>> = (0..self.size()).map(|_| None).collect();
            out[root] = Some(value);
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    *slot = Some(self.recv::<M>(src, tag));
                }
            }
            Some(out.into_iter().map(|v| v.expect("gathered")).collect())
        } else {
            self.send(root, tag, value);
            None
        }
    }

    /// Personalised all-to-all with variable block sizes: `blocks[d]` is
    /// sent to rank `d`; the result's entry `s` is the block received from
    /// rank `s`. Uses the `p−1`-round pairwise exchange schedule.
    pub fn all_to_allv<M: WireSize + Send + 'static>(
        &self,
        mut blocks: Vec<Vec<M>>,
    ) -> Vec<Vec<M>> {
        assert_eq!(blocks.len(), self.size(), "need one block per destination");
        let tag = self.coll_tag(Op::AllToAllV);
        let p = self.size();
        let r = self.rank();
        let mut out: Vec<Vec<M>> = (0..p).map(|_| Vec::new()).collect();
        out[r] = std::mem::take(&mut blocks[r]);
        for round in 1..p {
            let dst = (r + round) % p;
            let src = (r + p - round) % p;
            self.send(dst, tag, std::mem::take(&mut blocks[dst]));
            out[src] = self.recv::<Vec<M>>(src, tag);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::VirtualCluster;
    use crate::cost::CostModel;

    fn cluster(p: usize) -> VirtualCluster {
        VirtualCluster::new(p, CostModel::beowulf_2008())
    }

    #[test]
    fn broadcast_delivers_to_all() {
        for p in [1, 2, 3, 4, 7, 8] {
            let run = cluster(p).run(move |node| {
                let v = if node.rank() == 2 % p { Some(vec![1u32, 2, 3]) } else { None };
                node.broadcast(2 % p, v)
            });
            for r in run.results {
                assert_eq!(r, vec![1, 2, 3]);
            }
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let run = cluster(5).run(|node| node.gather(3, node.rank() as u64));
        for (rank, res) in run.results.into_iter().enumerate() {
            if rank == 3 {
                assert_eq!(res, Some(vec![0, 1, 2, 3, 4]));
            } else {
                assert_eq!(res, None);
            }
        }
    }

    #[test]
    fn all_to_allv_conserves_and_routes() {
        let p = 5;
        let run = cluster(p).run(move |node| {
            // Rank r sends the block [r*10 + d] to rank d.
            let blocks: Vec<Vec<u32>> =
                (0..p).map(|d| vec![(node.rank() * 10 + d) as u32; node.rank() + 1]).collect();
            node.all_to_allv(blocks)
        });
        for (d, received) in run.results.into_iter().enumerate() {
            for (s, block) in received.into_iter().enumerate() {
                assert_eq!(block.len(), s + 1, "dst {d} src {s}");
                assert!(block.iter().all(|&v| v == (s * 10 + d) as u32));
            }
        }
    }

    #[test]
    fn broadcast_cost_grows_logarithmically() {
        // With fixed message size, makespan of a broadcast should grow
        // roughly with log2(p), not p.
        let time_for = |p: usize| {
            cluster(p)
                .run(|node| {
                    let v = (node.rank() == 0).then(|| vec![0u8; 1000]);
                    node.broadcast(0, v);
                })
                .makespan
        };
        let t4 = time_for(4);
        let t16 = time_for(16);
        // log2(16)/log2(4) = 2; allow generous slack but far below 4x.
        assert!(t16 < t4 * 3.0, "t4={t4} t16={t16}");
    }

    #[test]
    fn sequential_collectives_do_not_cross_talk() {
        let run = cluster(3).run(|node| {
            let a = node.broadcast(0, node.gather(0, node.rank() as u32));
            let b = node.broadcast(0, node.gather(0, (node.rank() * 7) as u32));
            (a, b)
        });
        for (a, b) in run.results {
            assert_eq!(a, vec![0, 1, 2]);
            assert_eq!(b, vec![0, 7, 14]);
        }
    }
}
