//! The shared-memory substrate: one [`Comm`] that owns every rank.
//!
//! [`SharedMemory`] runs the one pipeline body ([`sample_align_d`]) on a
//! single coordinating thread — the backend a downstream user on one big
//! multicore machine would pick. All `p` logical ranks live in one
//! address space, so collectives are moves, and each step's per-rank
//! compute runs on the workspace's self-scheduling worker pool
//! ([`bioseq::pool`]). Bucketing, phases and work are the cluster's by
//! construction; only scheduling differs.

use crate::config::SadConfig;
use crate::error::SadError;
use crate::pipeline::{Phase, PipelineCtx};
use crate::report::{BackendExtras, RunReport};
use crate::spmd::{sample_align_d, Comm};
use bioseq::{pool, Sequence, Work};
use std::ops::Range;
use std::sync::Mutex;
use vcluster::WireSize;

/// Run the pipeline body over `p` logical ranks in shared memory.
pub(crate) fn shared_memory_pipeline(
    seqs: &[Sequence],
    p: usize,
    cfg: &SadConfig,
    ctx: &PipelineCtx,
) -> Result<RunReport, SadError> {
    debug_assert!(p >= 1, "Aligner::run rejects zero threads");
    let outcome = sample_align_d(&mut SharedMemory::new(p, ctx), ctx, seqs, cfg)?;
    Ok(outcome.into_report(p, cfg, ctx, BackendExtras::Rayon))
}

/// All `p` ranks of a run as one [`Comm`].
pub(crate) struct SharedMemory<'a> {
    p: usize,
    /// Rank tasks in flight at once: peak memory grows with the ranks
    /// whose state is live, so never more than the host has cores for.
    workers: usize,
    ctx: &'a PipelineCtx,
    /// Work charged since the open phase started.
    work: Work,
}

impl<'a> SharedMemory<'a> {
    pub(crate) fn new(p: usize, ctx: &'a PipelineCtx) -> Self {
        SharedMemory { p, workers: p.min(pool::cores()), ctx, work: Work::ZERO }
    }
}

impl Comm for SharedMemory<'_> {
    fn size(&self) -> usize {
        self.p
    }

    fn owned(&self) -> Range<usize> {
        0..self.p
    }

    fn phase<R>(&mut self, phase: Phase, f: impl FnOnce(&mut Self) -> R) -> Result<R, SadError> {
        let ctx = self.ctx;
        ctx.phase(phase, || {
            let out = f(self);
            (out, std::mem::replace(&mut self.work, Work::ZERO))
        })
    }

    fn charge(&mut self, work: Work) {
        self.work += work;
    }

    fn each<S: Send, T: Send>(
        &mut self,
        per_rank: Vec<S>,
        f: impl Fn(usize, S) -> (T, Work) + Sync,
    ) -> Vec<T> {
        let inputs: Vec<Mutex<Option<S>>> =
            per_rank.into_iter().map(|s| Mutex::new(Some(s))).collect();
        let rank_task = |rank: usize| {
            let input = inputs[rank].lock().expect("rank input poisoned").take();
            f(rank, input.expect("every rank task runs once"))
        };
        // One pool task per contiguous run of `⌈p / workers⌉` ranks, one
        // run per worker. Handing out single ranks in index order measured
        // 18 % slower on `8-local-align` with four uneven buckets over two
        // cores (the benchmark's `long_whole`).
        let run = inputs.len().div_ceil(self.workers);
        let done = pool::map(
            inputs.len().div_ceil(run),
            self.workers,
            || (),
            |task, _| {
                (task * run..inputs.len().min((task + 1) * run)).map(rank_task).collect::<Vec<_>>()
            },
        );
        done.into_iter()
            .flatten()
            .map(|(out, work)| {
                self.work += work;
                out
            })
            .collect()
    }

    fn gather<M: WireSize + Send + 'static>(&mut self, mine: Vec<M>) -> Option<Vec<M>> {
        Some(mine)
    }

    fn broadcast<M: WireSize + Clone + Send + 'static>(&mut self, value: Option<M>) -> M {
        value.expect("the executor that owns every rank owns the root")
    }

    fn all_to_allv<M: WireSize + Send + 'static>(
        &mut self,
        blocks: Vec<Vec<Vec<M>>>,
    ) -> Vec<Vec<Vec<M>>> {
        let mut received: Vec<Vec<Vec<M>>> =
            (0..self.p).map(|_| Vec::with_capacity(self.p)).collect();
        for from_src in blocks {
            for (dst, block) in from_src.into_iter().enumerate() {
                received[dst].push(block);
            }
        }
        received
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aligner, Backend};
    use bioseq::Msa;
    use rosegen::{Family, FamilyConfig};
    use std::collections::HashMap;
    use vcluster::{CostModel, VirtualCluster};

    fn family(n: usize, seed: u64) -> Vec<Sequence> {
        Family::generate(&FamilyConfig {
            n_seqs: n,
            avg_len: 60,
            relatedness: 700.0,
            seed,
            ..Default::default()
        })
        .seqs
    }

    fn run(seqs: &[Sequence], p: usize, cfg: &SadConfig) -> RunReport {
        Aligner::new(cfg.clone()).backend(Backend::Rayon { threads: p }).run(seqs).unwrap()
    }

    fn check_complete(result: &Msa, input: &[Sequence]) {
        result.validate().unwrap();
        assert_eq!(result.num_rows(), input.len());
        let by_id: HashMap<&str, &Sequence> = input.iter().map(|s| (s.id.as_str(), s)).collect();
        for r in 0..result.num_rows() {
            let want = by_id[result.ids()[r].as_str()];
            assert_eq!(&result.ungapped(r), want);
        }
    }

    #[test]
    fn end_to_end() {
        let seqs = family(24, 1);
        let report = run(&seqs, 4, &SadConfig::default());
        check_complete(&report.msa, &seqs);
        assert_eq!(report.bucket_sizes.iter().sum::<usize>(), 24);
        assert!(!report.work.is_zero());
    }

    #[test]
    fn deterministic_despite_parallelism() {
        let seqs = family(20, 2);
        let a = run(&seqs, 4, &SadConfig::default());
        let b = run(&seqs, 4, &SadConfig::default());
        assert_eq!(a.msa, b.msa);
        assert_eq!(a.work, b.work);
        assert_eq!(a.phase_sequence(), b.phase_sequence());
        for (pa, pb) in a.phases.iter().zip(&b.phases) {
            assert_eq!(pa.work, pb.work, "{}", pa.name());
        }
    }

    #[test]
    fn p1_is_single_bucket() {
        let seqs = family(8, 3);
        let report = run(&seqs, 1, &SadConfig::default());
        check_complete(&report.msa, &seqs);
        assert_eq!(report.bucket_sizes, vec![8]);
    }

    #[test]
    fn agrees_with_distributed_on_bucketing() {
        // Same sampling rules ⇒ same bucket sizes as the message-passing
        // backend.
        let seqs = family(32, 4);
        let cfg = SadConfig::default();
        let ray = run(&seqs, 4, &cfg);
        let cluster = VirtualCluster::new(4, CostModel::beowulf_2008());
        let dist = Aligner::new(cfg).backend(Backend::Distributed(cluster)).run(&seqs).unwrap();
        assert_eq!(ray.bucket_sizes, dist.bucket_sizes);
        // And the same final alignment (pipelines are step-identical).
        assert_eq!(ray.msa, dist.msa);
        // Step-identical down to the typed phase sequence.
        assert_eq!(ray.phase_sequence(), dist.phase_sequence());
    }

    #[test]
    fn fine_tune_off_is_block_diagonal() {
        let seqs = family(16, 5);
        let cfg = SadConfig::default().with_fine_tune(false);
        let report = run(&seqs, 4, &cfg);
        check_complete(&report.msa, &seqs);
        assert!(report.phase_sequence().ends_with(&[Phase::LocalAlign, Phase::Glue]));
        assert!(!report.phase_sequence().contains(&Phase::FineTune));
    }

    #[test]
    fn work_is_attributed_to_phases() {
        let seqs = family(20, 6);
        let report = run(&seqs, 4, &SadConfig::default());
        assert_eq!(report.work, report.phases.iter().map(|p| p.work).sum::<Work>());
        let of = |phase: Phase| report.phase(phase).map(|p| p.work).unwrap_or(Work::ZERO);
        assert!(of(Phase::LocalKmerRank).kmer_ops > 0);
        assert!(of(Phase::LocalSort).sort_ops > 0);
        assert!(of(Phase::Redistribute).sort_ops > 0);
        assert!(of(Phase::LocalAlign).dp_cells > 0);
        // Shared-memory runs carry real wall time but no virtual clock.
        assert!(report.phases.iter().all(|p| p.seconds.is_some()));
        assert!(report.phases.iter().all(|p| p.virtual_seconds.is_none()));
    }

    #[test]
    fn small_inputs_align() {
        let seqs3 = family(3, 7);
        let report = run(&seqs3, 8, &SadConfig::default());
        check_complete(&report.msa, &seqs3);
    }

    #[test]
    fn max_bucket_caps_every_leaf() {
        let seqs = family(60, 8);
        let cfg = SadConfig::default().with_max_bucket(Some(8));
        let report = run(&seqs, 2, &cfg);
        check_complete(&report.msa, &seqs);
        assert!(report.bucket_sizes.iter().all(|&b| b <= 8), "{:?}", report.bucket_sizes);
        assert_eq!(report.bucket_sizes.iter().sum::<usize>(), 60);
        assert!(report.decomposition_depth >= 1, "60 seqs over 2 buckets must split");
        assert!(report.phase_sequence().contains(&Phase::SubPartition));
        // The sub-partition phase slots between redistribution and the
        // engine runs.
        let seq = report.phase_sequence();
        let at = |p| seq.iter().position(|&x| x == p).unwrap();
        assert!(at(Phase::Redistribute) < at(Phase::SubPartition));
        assert!(at(Phase::SubPartition) < at(Phase::LocalAlign));
    }

    #[test]
    fn uncapped_runs_have_no_sub_partition_phase() {
        let seqs = family(24, 9);
        let report = run(&seqs, 4, &SadConfig::default());
        assert!(!report.phase_sequence().contains(&Phase::SubPartition));
        assert_eq!(report.decomposition_depth, 0);
    }

    #[test]
    fn loose_cap_matches_flat_partition() {
        // A cap nothing exceeds records the phase but splits nothing: the
        // buckets — and the alignment — match the uncapped run.
        let seqs = family(24, 10);
        let flat = run(&seqs, 4, &SadConfig::default());
        let capped = run(&seqs, 4, &SadConfig::default().with_max_bucket(Some(1000)));
        assert_eq!(capped.bucket_sizes, flat.bucket_sizes);
        assert_eq!(capped.msa, flat.msa);
        assert_eq!(capped.decomposition_depth, 0);
        assert!(capped.phase_sequence().contains(&Phase::SubPartition));
    }

    #[test]
    fn capped_p1_decomposes_instead_of_centralising() {
        let seqs = family(40, 11);
        let cfg = SadConfig::default().with_max_bucket(Some(10));
        let report = run(&seqs, 1, &cfg);
        check_complete(&report.msa, &seqs);
        assert!(report.bucket_sizes.len() >= 4, "{:?}", report.bucket_sizes);
        assert!(report.bucket_sizes.iter().all(|&b| b <= 10));
    }

    #[test]
    fn capped_runs_are_deterministic() {
        let seqs = family(48, 12);
        let cfg = SadConfig::default().with_max_bucket(Some(6));
        let a = run(&seqs, 3, &cfg);
        let b = run(&seqs, 3, &cfg);
        assert_eq!(a.msa, b.msa);
        assert_eq!(a.bucket_sizes, b.bucket_sizes);
        assert_eq!(a.decomposition_depth, b.decomposition_depth);
    }

    #[test]
    fn identical_rank_keys_still_terminate() {
        // Identical sequences share one rank key; sampling cannot split
        // them, so the chunking fallback must cap the leaves.
        let seqs: Vec<Sequence> = (0..30)
            .map(|i| Sequence::from_codes(format!("dup{i}"), vec![1, 2, 3, 4, 5, 6, 7, 8]))
            .collect();
        let cfg = SadConfig::default().with_kmer_k(2).with_max_bucket(Some(4));
        let report = run(&seqs, 2, &cfg);
        check_complete(&report.msa, &seqs);
        assert!(report.bucket_sizes.iter().all(|&b| b <= 4), "{:?}", report.bucket_sizes);
        assert_eq!(report.bucket_sizes.iter().sum::<usize>(), 30);
    }
}
