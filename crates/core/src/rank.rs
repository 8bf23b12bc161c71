//! Centralized vs globalized k-mer rank computation — the analysis behind
//! the paper's Fig. 1, Fig. 3 and Table 1.

use crate::config::SadConfig;
use crate::spmd::{block_range, local_ranks, profiles_of, sorted_order};
use bioseq::kmer::{self, KmerProfile, RankTransform};
use bioseq::{Sequence, Work};

/// The two rank vectors for one sequence set.
#[derive(Debug, Clone)]
pub struct RankExperiment {
    /// Rank of every sequence against the *entire* set (what a single
    /// machine would compute).
    pub centralized: Vec<f64>,
    /// Rank of every sequence against the `k·p` pooled sample (what the
    /// distributed system computes).
    pub globalized: Vec<f64>,
    /// The pooled sample's indices into the input.
    pub sample_indices: Vec<usize>,
    /// Work performed.
    pub work: Work,
}

/// Compute globalized ranks with the pipeline's own steps 1–4 (blocks of
/// `N/p`, local rank, local sort, regular sampling, pooled sample),
/// alongside the centralized reference ranks.
///
/// # Panics
/// Panics if `p` is zero, `seqs` is empty, or a sequence is shorter than
/// `cfg.kmer_k`.
pub fn rank_experiment(seqs: &[Sequence], p: usize, cfg: &SadConfig) -> RankExperiment {
    assert!(p >= 1 && !seqs.is_empty());
    let mut work = Work::ZERO;
    let profs = profiles_of(seqs, cfg);

    // Centralized: every sequence against all N.
    let centralized = kmer::centralized_ranks(&profs, RankTransform::PaperLog, &mut work);

    // Globalized: each block contributes k regular samples of its
    // locally sorted order.
    let k = cfg.samples_for(p);
    let mut sample_indices: Vec<usize> = Vec::with_capacity(k * p);
    for rank in 0..p {
        let block = block_range(seqs.len(), p, rank);
        let (ranks, rank_work) = local_ranks(&seqs[block.clone()], cfg);
        let (order, sort_work) = sorted_order(&ranks);
        work += rank_work + sort_work;
        sample_indices
            .extend(psrs::regular_positions(order.len(), k).map(|at| block.start + order[at]));
    }
    let sample_profiles: Vec<KmerProfile> =
        sample_indices.iter().map(|&i| profs[i].clone()).collect();
    let globalized =
        kmer::globalized_ranks(&profs, &sample_profiles, RankTransform::PaperLog, &mut work);

    RankExperiment { centralized, globalized, sample_indices, work }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rosegen::{Family, FamilyConfig};

    fn family(n: usize, seed: u64) -> Vec<Sequence> {
        Family::generate(&FamilyConfig {
            n_seqs: n,
            avg_len: 80,
            relatedness: 800.0,
            seed,
            ..Default::default()
        })
        .seqs
    }

    #[test]
    fn shapes_and_bounds() {
        let seqs = family(60, 1);
        let cfg = SadConfig::default();
        let exp = rank_experiment(&seqs, 4, &cfg);
        assert_eq!(exp.centralized.len(), 60);
        assert_eq!(exp.globalized.len(), 60);
        // 3 samples per block × 4 blocks.
        assert_eq!(exp.sample_indices.len(), 12);
        // PaperLog rank of D∈[0,1] lies in [ln 0.1, ln 1.1].
        for &r in exp.centralized.iter().chain(&exp.globalized) {
            assert!((0.1f64.ln()..=1.1f64.ln() + 1e-12).contains(&r), "rank {r}");
        }
        assert!(exp.work.kmer_ops > 0);
    }

    #[test]
    fn p1_sample_is_regular_subset() {
        let seqs = family(30, 2);
        let cfg = SadConfig { samples_per_rank: Some(5), ..Default::default() };
        let exp = rank_experiment(&seqs, 1, &cfg);
        assert_eq!(exp.sample_indices.len(), 5);
        // All indices valid and distinct.
        let set: std::collections::HashSet<usize> = exp.sample_indices.iter().copied().collect();
        assert_eq!(set.len(), 5);
    }

    #[test]
    fn globalized_correlates_with_centralized() {
        // The sample-based rank must preserve the *ordering* information
        // the pipeline buckets by: Spearman-ish correlation well above 0.
        let seqs = family(80, 3);
        let cfg = SadConfig::default();
        let exp = rank_experiment(&seqs, 4, &cfg);
        let rank_of = |v: &[f64]| {
            let mut order: Vec<usize> = (0..v.len()).collect();
            order.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
            let mut pos = vec![0usize; v.len()];
            for (r, &i) in order.iter().enumerate() {
                pos[i] = r;
            }
            pos
        };
        let rc = rank_of(&exp.centralized);
        let rg = rank_of(&exp.globalized);
        let n = rc.len() as f64;
        let d2: f64 = rc.iter().zip(&rg).map(|(&a, &b)| (a as f64 - b as f64).powi(2)).sum();
        let spearman = 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
        assert!(spearman > 0.5, "spearman = {spearman}");
    }

    #[test]
    fn deterministic() {
        let seqs = family(40, 4);
        let cfg = SadConfig::default();
        let a = rank_experiment(&seqs, 4, &cfg);
        let b = rank_experiment(&seqs, 4, &cfg);
        assert_eq!(a.centralized, b.centralized);
        assert_eq!(a.globalized, b.globalized);
        assert_eq!(a.sample_indices, b.sample_indices);
    }

    #[test]
    fn full_sample_recovers_centralized() {
        // With the sample = the whole block structure at p=1 and k = n,
        // globalized equals centralized.
        let seqs = family(20, 5);
        let cfg = SadConfig { samples_per_rank: Some(20), ..Default::default() };
        let exp = rank_experiment(&seqs, 1, &cfg);
        // k is clamped to n; sample covers most of the set, so ranks come
        // close to centralized (not exactly equal — sampling positions
        // differ). Check high agreement.
        for (c, g) in exp.centralized.iter().zip(&exp.globalized) {
            assert!((c - g).abs() < 0.15, "c={c} g={g}");
        }
    }
}
