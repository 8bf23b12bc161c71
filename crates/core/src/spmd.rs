//! The twelve steps of Sample-Align-D, written once.
//!
//! The paper's Section 2 listing is an SPMD program over four collectives:
//! an all-gather of samples, an all-to-all redistribution, a gather of
//! local ancestors to the root and a broadcast of the global ancestor.
//! [`sample_align_d`] is that program, generic over [`Comm`] — the small
//! communication trait whose two implementations are the substrates:
//!
//! * [`crate::distributed::ClusterRank`] owns **one** rank of a
//!   [`vcluster::VirtualCluster`]; every rank thread runs the body, and
//!   collectives are real messages under the virtual clock;
//! * [`crate::rayon_impl::SharedMemory`] owns **all** `p` ranks; the body
//!   runs once, collectives are moves inside one address space, and the
//!   per-rank compute of each step runs as tasks on the worker pool.
//!
//! The body is written over "the ranks this executor owns": every per-rank
//! value is a `Vec` with one entry per owned rank (length 1 on a cluster
//! rank, `p` in shared memory). Phase bracketing, [`Work`] charging and
//! the cancellation boundary live behind the trait, so each step states
//! only what the paper states.

use crate::ancestor::{
    anchor_to_ancestor, anchor_to_ancestor_seeded, glue_anchored, glue_block_diagonal,
};
use crate::config::SadConfig;
use crate::error::SadError;
use crate::messages::{AnchoredBlockMsg, MsaBlockMsg, RankedSeq, SeqBatch};
use crate::pipeline::{Phase, PipelineCtx};
use crate::report::{BackendExtras, RunReport};
use align::anchor::AnchorSpec;
use align::consensus::consensus_sequence;
use align::DpArena;
use bioseq::kmer::{self, KmerProfile, RankTransform};
use bioseq::{GapPenalties, Msa, Sequence, SubstMatrix, Work};
use std::ops::Range;
use std::time::Instant;
use vcluster::WireSize;

/// What the pipeline body needs from its substrate: the ranks it speaks
/// for, one bracket per phase, per-rank compute, and the collectives
/// (rooted at rank 0, like every collective in the paper's listing).
///
/// Per-rank arguments and results are `Vec`s indexed by position in
/// [`Comm::owned`].
pub(crate) trait Comm {
    /// Ranks in the decomposition (`p`).
    fn size(&self) -> usize;

    /// The ranks this executor runs, in rank order.
    fn owned(&self) -> Range<usize>;

    /// Run `f` as one pipeline phase: agree on cancellation with every
    /// other executor (`Err(SadError::Cancelled)` names `phase` on all of
    /// them or none), open the phase on the recorder and the substrate's
    /// clock, and close it with the work charged meanwhile.
    fn phase<R>(&mut self, phase: Phase, f: impl FnOnce(&mut Self) -> R) -> Result<R, SadError>;

    /// Account work an owned rank did inside the open phase.
    fn charge(&mut self, work: Work);

    /// Run one step of per-rank compute: `f(rank, input)` for every owned
    /// rank, charging the work each call reports.
    fn each<S: Send, T: Send>(
        &mut self,
        per_rank: Vec<S>,
        f: impl Fn(usize, S) -> (T, Work) + Sync,
    ) -> Vec<T>;

    /// Gather one value per rank at the root: `Some` (indexed by source
    /// rank) on the executor that owns rank 0.
    fn gather<M: WireSize + Send + 'static>(&mut self, mine: Vec<M>) -> Option<Vec<M>>;

    /// Broadcast the root's value; the owner of rank 0 passes `Some`.
    fn broadcast<M: WireSize + Clone + Send + 'static>(&mut self, value: Option<M>) -> M;

    /// Personalised all-to-all: `blocks[i][d]` travels from the `i`-th
    /// owned rank to rank `d`; the result's `[i][s]` is what the `i`-th
    /// owned rank received from rank `s`.
    fn all_to_allv<M: WireSize + Send + 'static>(
        &mut self,
        blocks: Vec<Vec<Vec<M>>>,
    ) -> Vec<Vec<Vec<M>>>;

    /// Every rank's value on every executor, indexed by source rank.
    fn all_gather<M: WireSize + Clone + Send + 'static>(&mut self, mine: Vec<M>) -> Vec<M> {
        let gathered = self.gather(mine);
        self.broadcast(gathered)
    }
}

/// What one executor hands back: its owned ranks' share of the report.
#[derive(Default)]
pub(crate) struct Outcome {
    /// The assembled alignment, on the executor that owns the root.
    pub msa: Option<Msa>,
    /// Leaf bucket sizes of the owned ranks, in rank order.
    pub bucket_sizes: Vec<usize>,
    /// Deepest sub-partition split among the owned ranks.
    pub depth: usize,
}

impl Outcome {
    /// Assemble the run report once every executor's outcome is folded
    /// into `self` and the recorder is drained.
    pub fn into_report(
        self,
        p: usize,
        cfg: &SadConfig,
        ctx: &PipelineCtx,
        extras: BackendExtras,
    ) -> RunReport {
        let (phases, work) = ctx.drain();
        RunReport {
            msa: self.msa.expect("the root assembled the alignment"),
            work,
            phases,
            bucket_sizes: self.bucket_sizes,
            ranks: p,
            samples_per_rank: cfg.samples_for(p),
            decomposition_depth: self.depth,
            kernel: cfg.dp_kernel.label(),
            vertical: None,
            trim: None,
            extras,
        }
    }
}

/// Rank `rank`'s share of `n` inputs under the block distribution
/// (`w = ⌈n/p⌉` each; trailing ranks may be empty).
pub(crate) fn block_range(n: usize, p: usize, rank: usize) -> Range<usize> {
    let chunk = n.div_ceil(p);
    (rank * chunk).min(n)..((rank + 1) * chunk).min(n)
}

/// K-mer profiles of `seqs`.
///
/// # Panics
/// Panics if a sequence is shorter than `cfg.kmer_k`;
/// [`SadConfig::validate_for`] rejects such input.
pub(crate) fn profiles_of(seqs: &[Sequence], cfg: &SadConfig) -> Vec<KmerProfile> {
    seqs.iter()
        .map(|s| {
            KmerProfile::build(s, cfg.kmer_k, cfg.alphabet)
                .expect("validate_for rejects sequences shorter than kmer_k")
        })
        .collect()
}

/// Step 1: the k-mer rank of every sequence of a block against the block.
pub(crate) fn local_ranks(block: &[Sequence], cfg: &SadConfig) -> (Vec<f64>, Work) {
    let mut work = Work::ZERO;
    work.seq_bytes += block.iter().map(|s| s.len() as u64).sum::<u64>();
    let ranks =
        kmer::centralized_ranks(&profiles_of(block, cfg), RankTransform::PaperLog, &mut work);
    (ranks, work)
}

/// Step 2: the order that sorts a block by rank (stable, so ties keep
/// input order on every substrate).
pub(crate) fn sorted_order(ranks: &[f64]) -> (Vec<usize>, Work) {
    let mut order: Vec<usize> = (0..ranks.len()).collect();
    order.sort_by(|&a, &b| ranks[a].total_cmp(&ranks[b]));
    (order, psrs::sort_work(ranks.len()))
}

/// Steps 1–12 on the ranks `c` owns. `seqs` plays the pre-staged input
/// files (the paper stages shards on each node's disk before timing
/// starts, so reading a rank's block is free). Input validation happens
/// in [`crate::Aligner::run`].
pub(crate) fn sample_align_d<C: Comm>(
    c: &mut C,
    ctx: &PipelineCtx,
    seqs: &[Sequence],
    cfg: &SadConfig,
) -> Result<Outcome, SadError> {
    debug_assert!(!seqs.is_empty(), "Aligner::run rejects empty input");
    let p = c.size();
    let blocks: Vec<&[Sequence]> =
        c.owned().map(|rank| &seqs[block_range(seqs.len(), p, rank)]).collect();

    // Step 1: rank every sequence against its own block.
    let ranks = c.phase(Phase::LocalKmerRank, |c| {
        c.each(blocks.clone(), |_, block| local_ranks(block, cfg))
    })?;

    // Step 2: sort each block by local rank. The sorted order also decides
    // how globalized-rank ties break during redistribution.
    let sorted: Vec<Vec<Sequence>> = c.phase(Phase::LocalSort, |c| {
        c.each(blocks.into_iter().zip(ranks).collect(), |_, (block, ranks)| {
            let (order, work) = sorted_order(&ranks);
            (order.into_iter().map(|i| block[i].clone()).collect(), work)
        })
    })?;

    // Steps 3–4: k regular samples per rank, all-gathered.
    let k = cfg.samples_for(p);
    let samples: Vec<Sequence> = c.phase(Phase::SampleExchange, |c| {
        let mine = sorted
            .iter()
            .map(|local| {
                SeqBatch(
                    psrs::regular_positions(local.len(), k).map(|i| local[i].clone()).collect(),
                )
            })
            .collect();
        c.all_gather(mine).into_iter().flat_map(|batch| batch.0).collect()
    })?;

    // Step 5: re-rank every sequence against the pooled sample. Profiles
    // are rebuilt per block rather than carried from step 1, so only the
    // blocks in flight hold any.
    let ranked: Vec<Vec<RankedSeq>> = c.phase(Phase::GlobalizedRank, |c| {
        let sample_profiles = profiles_of(&samples, cfg);
        c.each(sorted, |_, local| {
            let mut work = Work::ZERO;
            let globalized = kmer::globalized_ranks(
                &profiles_of(&local, cfg),
                &sample_profiles,
                RankTransform::PaperLog,
                &mut work,
            );
            let items =
                local.into_iter().zip(globalized).map(|(seq, rank)| RankedSeq { seq, rank });
            (items.collect(), work)
        })
    })?;

    // Step 6: PSRS on the globalized rank; rank i ends up with bucket i.
    let buckets = c.phase(Phase::Redistribute, |c| redistribute(c, ranked))?;

    // Step 7 (hierarchical mode only): each rank splits its own bucket
    // until every leaf fits the cap, so no engine run ever centralises an
    // oversized bucket. Leaves stay in rank order.
    let (leaves, depth) = match cfg.max_bucket {
        Some(cap) => c.phase(Phase::SubPartition, |c| {
            let split = c.each(buckets, |_, bucket| {
                let mut splitter = BucketSplitter::new(cap);
                splitter.split(bucket, 1);
                let work = splitter.work;
                (splitter, work)
            });
            // Announced after the fact so splits arrive bucket-major.
            let mut deepest = 0;
            let mut leaves = Vec::with_capacity(split.len());
            for (rank, splitter) in c.owned().zip(split) {
                for (depth, size, parts) in splitter.splits {
                    ctx.bucket_split(rank, depth, size, parts);
                    deepest = deepest.max(depth);
                }
                leaves.push(splitter.leaves);
            }
            (leaves, deepest)
        })?,
        None => (buckets.into_iter().map(|bucket| vec![bucket]).collect(), 0),
    };
    let bucket_sizes: Vec<usize> = leaves.iter().flatten().map(Vec::len).collect();
    let outcome = |msa| Outcome { msa, bucket_sizes, depth };

    // Step 8: the sequential engine on every non-empty leaf.
    let mut local_msas: Vec<Vec<Msa>> = c.phase(Phase::LocalAlign, |c| {
        c.each(leaves, |rank, leaves| {
            let engine = cfg.engine.build_with(cfg.dp());
            let mut work = Work::ZERO;
            let msas = leaves
                .into_iter()
                .filter(|leaf| !leaf.is_empty())
                .map(|leaf| {
                    let t0 = Instant::now();
                    let bucket: Vec<Sequence> = leaf.into_iter().map(|r| r.seq).collect();
                    let (msa, w) = engine.align_with_work(&bucket);
                    work += w;
                    ctx.bucket_aligned(rank, msa.num_rows(), t0.elapsed().as_secs_f64());
                    msa
                })
                .collect();
            (msas, work)
        })
    })?;

    // One rank with one leaf: its alignment IS the global alignment.
    if p == 1 && local_msas[0].len() == 1 {
        return Ok(outcome(local_msas.pop().and_then(|mut msas| msas.pop())));
    }
    if !cfg.fine_tune {
        let msa = c.phase(Phase::Glue, |c| {
            let mine =
                local_msas.into_iter().map(|m| m.into_iter().map(MsaBlockMsg).collect()).collect();
            c.gather::<Vec<MsaBlockMsg>>(mine).map(|blocks| {
                let mut present: Vec<Msa> = blocks.into_iter().flatten().map(|b| b.0).collect();
                if present.len() == 1 {
                    return present.remove(0);
                }
                let mut work = Work::ZERO;
                let glued = glue_block_diagonal(&present, &mut work);
                c.charge(work);
                glued
            })
        })?;
        return Ok(outcome(msa));
    }

    // Step 9: one local ancestor (consensus) per leaf alignment.
    let ancestors = c.phase(Phase::LocalAncestor, |c| {
        c.each(local_msas.iter().collect(), |rank, msas: &Vec<Msa>| {
            let mut work = Work::ZERO;
            let ancestors = msas
                .iter()
                .enumerate()
                .map(|(leaf, msa)| {
                    consensus_sequence(msa, format!("local-anc-{rank}.{leaf}"), &mut work)
                })
                .collect();
            (SeqBatch(ancestors), work)
        })
    })?;

    // Step 10: the root aligns the local ancestors into the global
    // ancestor and broadcasts it.
    let ga: Sequence = c.phase(Phase::GlobalAncestor, |c| {
        let global = c.gather(ancestors).map(|batches| {
            let ancestors: Vec<Sequence> = batches.into_iter().flat_map(|b| b.0).collect();
            assert!(!ancestors.is_empty(), "at least one bucket is non-empty");
            if ancestors.len() == 1 {
                return SeqBatch(ancestors);
            }
            let engine = cfg.engine.build_with(cfg.dp());
            let (anc_msa, work) = engine.align_with_work(&ancestors);
            c.charge(work);
            let mut work = Work::ZERO;
            let global = consensus_sequence(&anc_msa, "global-ancestor", &mut work);
            c.charge(work);
            SeqBatch(vec![global])
        });
        c.broadcast(global).0.remove(0)
    })?;

    // Step 11: anchor every leaf alignment to the global ancestor. Capped
    // (read) runs stack gappy fragments, where the whole-width profile DP
    // wastes most of its bill on conserved stretches — seed it with the
    // anchor scan so shared consensus k-mers are pinned and only the gaps
    // in between are aligned.
    let seeded = cfg.max_bucket.is_some();
    let anchored = c.phase(Phase::FineTune, |c| {
        c.each(local_msas, |_, msas| {
            let mut work = Work::ZERO;
            // One DP arena per rank task, shared by all of its leaves.
            let mut arena = DpArena::new();
            let (m, g, dp) = (&SubstMatrix::blosum62(), GapPenalties::default(), cfg.dp());
            let blocks: Vec<AnchoredBlockMsg> = msas
                .iter()
                .map(|msa| {
                    if seeded {
                        let spec = AnchorSpec::default();
                        anchor_to_ancestor_seeded(msa, &ga, &spec, m, g, dp, &mut arena, &mut work)
                    } else {
                        anchor_to_ancestor(msa, &ga, m, g, dp, &mut arena, &mut work)
                    }
                })
                .collect();
            (blocks, work)
        })
    })?;

    // Step 12: the root glues the anchored blocks in rank order.
    let msa = c.phase(Phase::Glue, |c| {
        c.gather(anchored).map(|blocks| {
            let present: Vec<AnchoredBlockMsg> = blocks.into_iter().flatten().collect();
            let mut work = Work::ZERO;
            let glued = glue_anchored(ga.len(), &present, &mut work);
            c.charge(work);
            glued
        })
    })?;
    Ok(outcome(msa))
}

/// Step 6, the PSRS protocol: sort locally, gather `p − 1` regular sample
/// keys per rank at the root, broadcast the `p − 1` pivots it selects,
/// exchange all-to-all, merge. The stages are [`psrs::sampling`]'s; this
/// adds only the collectives between them. Only the sample *keys* travel
/// to the root.
fn redistribute<C: Comm>(c: &mut C, ranked: Vec<Vec<RankedSeq>>) -> Vec<Vec<RankedSeq>> {
    let p = c.size();
    let key = |r: &RankedSeq| r.rank;
    let sort = |mut items: Vec<RankedSeq>| {
        items.sort_by(|a, b| a.rank.total_cmp(&b.rank));
        let work = psrs::sort_work(items.len());
        (items, work)
    };
    let sorted = c.each(ranked, |_, items| sort(items));
    let samples = sorted.iter().map(|items| psrs::sample_keys(items, p - 1, key)).collect();
    let pivots = c.gather(samples).map(|rows| {
        let (pivots, work) = psrs::pivots_of(rows, p);
        c.charge(work);
        pivots
    });
    let pivots = c.broadcast(pivots);
    let outgoing =
        sorted.into_iter().map(|items| psrs::split_at_pivots(items, &pivots, key)).collect();
    let incoming = c.all_to_allv(outgoing);
    c.each(incoming, |_, runs| sort(runs.into_iter().flatten().collect()))
}

/// One rank's recursive bucket decomposition for [`Phase::SubPartition`]:
/// the finished leaves, the splits made on the way and the partition work.
struct BucketSplitter {
    cap: usize,
    /// Finished leaves, in rank order.
    leaves: Vec<Vec<RankedSeq>>,
    /// `(depth, size, parts)` of every split, in the order made.
    splits: Vec<(usize, usize, usize)>,
    work: Work,
}

impl BucketSplitter {
    fn new(cap: usize) -> Self {
        BucketSplitter { cap, leaves: Vec::new(), splits: Vec::new(), work: Work::ZERO }
    }

    /// Recursively split `bucket` until every leaf holds at most `cap`
    /// sequences, appending the leaves (in rank order).
    ///
    /// Each over-cap bucket is re-partitioned by regular sampling over its
    /// own members — the hierarchical decomposition of the Pyro-Align
    /// follow-up. Identical rank keys can defeat sampling (every member
    /// lands in one sub-bucket); that no-progress case falls back to
    /// chunking the (already sorted) bucket into contiguous runs of at
    /// most `cap`, which always terminates.
    fn split(&mut self, bucket: Vec<RankedSeq>, depth: usize) {
        if bucket.len() <= self.cap {
            self.leaves.push(bucket);
            return;
        }
        let size = bucket.len();
        let parts = size.div_ceil(self.cap);
        self.splits.push((depth, size, parts));
        let (subs, work) = psrs::shared::sample_partition_by_with_work(bucket, parts, |r| r.rank);
        self.work += work;
        if subs.iter().map(Vec::len).max().unwrap_or(0) == size {
            // No progress: all keys collapsed onto one pivot side. The
            // bucket comes back sorted, so contiguous chunks of ≤ cap
            // preserve rank order exactly.
            let mut whole = subs.into_iter().flatten().peekable();
            while whole.peek().is_some() {
                self.leaves.push(whole.by_ref().take(size.div_ceil(parts)).collect());
            }
            return;
        }
        for sub in subs {
            if !sub.is_empty() {
                self.split(sub, depth + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::ClusterRank;
    use crate::rayon_impl::SharedMemory;
    use vcluster::{CostModel, VirtualCluster};

    /// One item per key, named by its input position.
    fn keyed(keys: impl IntoIterator<Item = f64>) -> Vec<RankedSeq> {
        keys.into_iter()
            .enumerate()
            .map(|(i, rank)| RankedSeq {
                seq: Sequence::from_codes(format!("s{i}"), vec![1, 2, 3]),
                rank,
            })
            .collect()
    }

    fn ranked(n: usize) -> Vec<RankedSeq> {
        keyed((0..n).map(|i| ((i * 7919) % 13) as f64))
    }

    /// Deterministic pseudo-random keys (LCG), distinct per index.
    fn synth_keys(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64) / ((1u64 << 53) as f64) + i as f64 * 1e-15
            })
            .collect()
    }

    /// `all` under the block distribution over `p` ranks.
    fn blocks_of(all: &[RankedSeq], p: usize) -> Vec<Vec<RankedSeq>> {
        (0..p).map(|rank| all[block_range(all.len(), p, rank)].to_vec()).collect()
    }

    fn ids(buckets: &[Vec<RankedSeq>]) -> Vec<Vec<String>> {
        buckets.iter().map(|b| b.iter().map(|r| r.seq.id.clone()).collect()).collect()
    }

    fn keys(buckets: &[Vec<RankedSeq>]) -> Vec<Vec<f64>> {
        buckets.iter().map(|b| b.iter().map(|r| r.rank).collect()).collect()
    }

    /// The stable global sort by rank.
    fn stable_sort(mut items: Vec<RankedSeq>) -> Vec<RankedSeq> {
        items.sort_by(|a, b| a.rank.total_cmp(&b.rank));
        items
    }

    /// Step 6 with one block per rank, on a cluster and in shared memory:
    /// asserts the two substrates bucket identically and returns the
    /// buckets, in rank order.
    fn redistribute_on_both(blocks: Vec<Vec<RankedSeq>>) -> Vec<Vec<RankedSeq>> {
        let p = blocks.len();
        let cluster = VirtualCluster::new(p, CostModel::beowulf_2008());
        let ctx = PipelineCtx::new("test", p, None, None, None);
        let on_cluster = cluster.run(|node| {
            let mut c = ClusterRank::new(node, &ctx);
            redistribute(&mut c, vec![blocks[node.rank()].clone()]).remove(0)
        });
        let in_memory = redistribute(&mut SharedMemory::new(p, &ctx), blocks);
        assert_eq!(ids(&on_cluster.results), ids(&in_memory), "the substrates disagree");
        in_memory
    }

    /// Sequential PSRS over the same blocks: the pivots of every sorted
    /// block's regular samples, cut into the stable global sort.
    fn reference_psrs(blocks: &[Vec<RankedSeq>]) -> Vec<Vec<RankedSeq>> {
        let p = blocks.len();
        let key = |r: &RankedSeq| r.rank;
        let samples = blocks
            .iter()
            .map(|block| psrs::sample_keys(&stable_sort(block.clone()), p - 1, key))
            .collect();
        let (pivots, _) = psrs::pivots_of(samples, p);
        psrs::split_at_pivots(stable_sort(blocks.concat()), &pivots, key)
    }

    #[test]
    fn block_ranges_tile_the_input() {
        for (n, p) in [(10, 3), (3, 8), (16, 4), (1, 1)] {
            let covered: Vec<usize> = (0..p).flat_map(|r| block_range(n, p, r)).collect();
            assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n} p={p}");
        }
    }

    #[test]
    fn redistribution_matches_the_reference_psrs_on_both_substrates() {
        // N > p, and the N <= p inputs where some ranks start empty.
        for (n, p) in [(40, 4), (3, 4), (5, 8), (2, 4), (7, 1)] {
            let blocks = blocks_of(&ranked(n), p);
            let want = ids(&reference_psrs(&blocks));
            assert_eq!(ids(&redistribute_on_both(blocks)), want, "n={n} p={p}");
        }
    }

    #[test]
    fn global_order_reconstructed() {
        for (p, n) in [(2, 50), (4, 1000), (8, 1024), (3, 17)] {
            let all = keyed(synth_keys(n, 42));
            let buckets = redistribute_on_both(blocks_of(&all, p));
            assert_eq!(ids(&[buckets.concat()]), ids(&[stable_sort(all)]), "p={p} n={n}");
        }
    }

    #[test]
    fn buckets_are_locally_sorted_and_disjoint() {
        let buckets = keys(&redistribute_on_both(blocks_of(&keyed(synth_keys(400, 7)), 4)));
        for b in &buckets {
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
        }
        for w in buckets.windows(2) {
            if let (Some(&last), Some(&first)) = (w[0].last(), w[1].first()) {
                assert!(last <= first);
            }
        }
    }

    #[test]
    fn load_bound_respected_on_uniform_keys() {
        let (p, n) = (8, 4096); // n > p³, as the theorem requires
        let buckets = redistribute_on_both(blocks_of(&keyed(synth_keys(n, 3)), p));
        let bound = psrs::max_partition_bound(n, p);
        for (i, b) in buckets.iter().enumerate() {
            assert!(b.len() <= bound, "bucket {i} holds {} > bound {bound}", b.len());
        }
    }

    #[test]
    fn single_rank_degenerates_to_sort() {
        let all = keyed(synth_keys(100, 9));
        let buckets = redistribute_on_both(blocks_of(&all, 1));
        assert_eq!(ids(&buckets), ids(&[stable_sort(all)]));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        // 2 items across 4 ranks: most ranks start empty.
        let items = keyed([5.0, 1.0]);
        let blocks = vec![vec![items[0].clone()], vec![], vec![items[1].clone()], vec![]];
        assert_eq!(keys(&[redistribute_on_both(blocks).concat()]), vec![vec![1.0, 5.0]]);
    }

    #[test]
    fn duplicate_keys_survive() {
        let all = keyed([1.0; 30]);
        let buckets = redistribute_on_both(blocks_of(&all, 3));
        assert_eq!(ids(&[buckets.concat()]), ids(&[all]));
    }

    #[test]
    fn deterministic_across_runs() {
        let blocks = blocks_of(&keyed(synth_keys(512, 11)), 4);
        assert_eq!(ids(&redistribute_on_both(blocks.clone())), ids(&redistribute_on_both(blocks)));
    }

    #[test]
    fn sort_work_reported_per_rank() {
        // Every rank is charged its local sort and its merge; the root also
        // the sort of the pooled sample keys it picks the pivots from.
        let p = 4;
        let blocks: Vec<Vec<RankedSeq>> = (0..p)
            .map(|rank| keyed((0..50).map(|i| ((i * 37 + rank * 13) % 400) as f64)))
            .collect();
        let held: Vec<usize> = blocks.iter().map(Vec::len).collect();
        let cost = CostModel::beowulf_2008();
        let cluster = VirtualCluster::new(p, cost);
        let ctx = PipelineCtx::new("test", p, None, None, None);
        let run = cluster.run(|node| {
            let mut c = ClusterRank::new(node, &ctx);
            redistribute(&mut c, vec![blocks[node.rank()].clone()]).remove(0).len()
        });
        let pooled = psrs::sort_work(p * (p - 1));
        let sorts = |rank: usize| psrs::sort_work(held[rank]) + psrs::sort_work(run.results[rank]);
        for (rank, trace) in run.traces.iter().enumerate() {
            let want = if rank == 0 { sorts(rank) + pooled } else { sorts(rank) };
            let want = cost.work_seconds(&want);
            assert!((trace.compute_s - want).abs() <= 1e-9 * want, "rank {rank} charged");
        }
        assert!(run.traces[0].compute_s > run.traces[1].compute_s);

        let ctx = PipelineCtx::new("test", p, None, None, None);
        let mut shared = SharedMemory::new(p, &ctx);
        let buckets = shared.phase(Phase::Redistribute, |c| redistribute(c, blocks)).unwrap();
        assert_eq!(buckets.iter().map(Vec::len).collect::<Vec<_>>(), run.results);
        let (_, work) = ctx.drain();
        assert_eq!(work, (0..p).map(sorts).sum::<Work>() + pooled);
    }

    #[test]
    fn splitter_caps_leaves_and_keeps_rank_order() {
        let mut bucket = ranked(50);
        bucket.sort_by(|a, b| a.rank.total_cmp(&b.rank));
        let mut splitter = BucketSplitter::new(6);
        splitter.split(bucket, 1);
        assert!(splitter.leaves.iter().all(|l| l.len() <= 6));
        let flat: Vec<f64> = splitter.leaves.iter().flatten().map(|r| r.rank).collect();
        assert_eq!(flat.len(), 50);
        assert!(flat.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(splitter.splits[0], (1, 50, 9));
    }
}
