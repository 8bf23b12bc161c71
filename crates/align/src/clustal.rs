//! ClustalLite — the CLUSTALW shape (Thompson, Higgins & Gibson 1994):
//! pairwise distances → neighbor-joining guide tree → tree-derived sequence
//! weights → weighted progressive alignment.

use crate::distance::{alignment_distance_matrix_with, kmer_distance_matrix};
use crate::dp::{DpArena, DpOptions};
use crate::engine::MsaEngine;
use crate::progressive::{progressive_align_with, ProgressiveConfig, WeightScheme};
use bioseq::{CompressedAlphabet, GapPenalties, Msa, Sequence, SubstMatrix, Work};
use phylo::{neighbor_joining, Tree};

/// Use accurate `O(n²L²)` pairwise-alignment distances when the input has
/// at most this many sequences; fall back to k-mer distances above it
/// (CLUSTALW's own fast/accurate switch).
const FULL_PAIRWISE_THRESHOLD: usize = 60;
/// k-mer length for the fast distance fallback.
const KMER_K: usize = 3;
/// Compressed alphabet for the fast distance fallback.
const ALPHABET: CompressedAlphabet = CompressedAlphabet::Identity;

/// The CLUSTALW-like engine. It scores with BLOSUM62 (CLUSTALW uses a
/// matrix series; we fix one) and the default gap penalties.
#[derive(Debug, Clone, Default)]
pub struct ClustalLite {
    /// Band policy and kernel of every DP instance (pairwise distances
    /// and progressive merging).
    dp: DpOptions,
}

impl ClustalLite {
    /// Select the DP options (a bare band policy converts).
    pub fn with_dp(mut self, dp: impl Into<DpOptions>) -> Self {
        self.dp = dp.into();
        self
    }
}

/// CLUSTALW guide-tree weights: each leaf's weight is the sum over the
/// edges on its root path of `branch_length / #leaves sharing that edge`.
/// Normalised to mean 1; degenerate all-zero trees get uniform weights.
pub fn clustal_tree_weights(tree: &Tree) -> Vec<f64> {
    let n = tree.n_leaves();
    if n == 1 {
        return vec![1.0];
    }
    // leaves_below[node]
    let mut below = vec![0usize; tree.n_nodes()];
    for id in tree.postorder() {
        below[id] = match tree.node(id).children {
            None => 1,
            Some((a, b)) => below[a] + below[b],
        };
    }
    let mut weights = vec![0.0f64; n];
    for (leaf, weight) in weights.iter_mut().enumerate() {
        let mut id = tree.leaf_node(leaf).expect("leaf exists");
        loop {
            let node = tree.node(id);
            match node.parent {
                Some(p) => {
                    *weight += node.branch_len / below[id] as f64;
                    id = p;
                }
                None => break,
            }
        }
    }
    // Identical sequences can make entire root paths zero-length; floor
    // the weights so profiles stay well-defined.
    let mean = weights.iter().sum::<f64>() / n as f64;
    if mean > 1e-12 {
        weights.iter_mut().for_each(|w| *w = (*w / mean).max(1e-3));
    } else {
        weights.iter_mut().for_each(|w| *w = 1.0);
    }
    weights
}

impl MsaEngine for ClustalLite {
    fn name(&self) -> String {
        format!("clustal-lite{}", self.dp.name_suffix())
    }

    fn align_with_work_in(&self, seqs: &[Sequence], arena: &mut DpArena) -> (Msa, Work) {
        assert!(!seqs.is_empty(), "cannot align an empty set");
        let mut work = Work::ZERO;
        if seqs.len() == 1 {
            return (Msa::from_sequence(&seqs[0]), work);
        }
        let dist = if seqs.len() <= FULL_PAIRWISE_THRESHOLD {
            let (matrix, gaps) = (SubstMatrix::blosum62(), GapPenalties::default());
            alignment_distance_matrix_with(seqs, &matrix, gaps, self.dp, &mut work)
        } else {
            kmer_distance_matrix(seqs, KMER_K, ALPHABET, &mut work)
        };
        work.tree_ops += (seqs.len() as u64).pow(3).min(1 << 40);
        let tree = neighbor_joining(&dist);
        let weights = clustal_tree_weights(&tree);
        let cfg = ProgressiveConfig { weights: WeightScheme::Fixed(weights), dp: self.dp };
        let msa = progressive_align_with(seqs, &tree, &cfg, arena, &mut work);
        (msa, work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::DistMatrix;

    fn seqs(texts: &[&str]) -> Vec<Sequence> {
        texts
            .iter()
            .enumerate()
            .map(|(i, t)| Sequence::from_str(format!("s{i}"), t).unwrap())
            .collect()
    }

    #[test]
    fn aligns_small_family_with_accurate_distances() {
        let ss = seqs(&["MKVLAWGKVLSS", "MKVLAWGKVLS", "MKILAWGKILSS", "MKVLWGKVLSS"]);
        let (msa, work) = ClustalLite::default().align_with_work(&ss);
        msa.validate().unwrap();
        assert_eq!(msa.num_rows(), 4);
        assert!(msa.average_identity() > 0.8);
        // Accurate path: pairwise DP dominates.
        assert!(work.dp_cells > 0);
    }

    #[test]
    fn falls_back_to_kmer_distances_for_large_sets() {
        let texts: Vec<String> =
            (0..65).map(|i| format!("MKVLAWGKVL{}", ["SS", "SD", "DD", "SE"][i % 4])).collect();
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let engine = ClustalLite::default();
        // At the threshold the accurate path runs; one more sequence
        // crosses it.
        let (_, work) = engine.align_with_work(&seqs(&refs[..FULL_PAIRWISE_THRESHOLD]));
        assert_eq!(work.kmer_ops, 0, "accurate path at the threshold");
        let (msa, work) = engine.align_with_work(&seqs(&refs));
        msa.validate().unwrap();
        assert!(work.kmer_ops > 0, "kmer path must be used");
    }

    #[test]
    fn tree_weights_balanced_tree_uniform() {
        // Perfectly balanced ultrametric tree → equal weights.
        let m = DistMatrix::from_fn(4, |i, j| if (i < 2) == (j < 2) { 1.0 } else { 4.0 });
        let tree = phylo::upgma(&m);
        let w = clustal_tree_weights(&tree);
        for v in &w {
            assert!((v - 1.0).abs() < 1e-9, "weights {w:?}");
        }
    }

    #[test]
    fn tree_weights_downweight_duplicates() {
        // Two near-identical leaves (0,1) and two distant singletons.
        let m = DistMatrix::from_fn(4, |i, j| match (i.max(j), i.min(j)) {
            (1, 0) => 0.01,
            (2, _) => 3.0,
            (3, 2) => 4.0,
            (3, _) => 4.0,
            _ => unreachable!(),
        });
        let tree = phylo::upgma(&m);
        let w = clustal_tree_weights(&tree);
        // The duplicated pair shares most of its root path: each weighs
        // less than the singletons.
        assert!(w[0] < w[2], "weights {w:?}");
        assert!(w[1] < w[3], "weights {w:?}");
    }

    #[test]
    fn tree_weights_single_leaf() {
        assert_eq!(clustal_tree_weights(&Tree::singleton()), vec![1.0]);
    }

    #[test]
    fn preserves_sequences_and_order() {
        let texts = ["MKVLAWGKVL", "WWPPGGCCWW", "MKILAWGKIL"];
        let ss = seqs(&texts);
        let (msa, _) = ClustalLite::default().align_with_work(&ss);
        for (i, t) in texts.iter().enumerate() {
            assert_eq!(msa.ungapped(i).to_letters(), *t);
        }
    }

    #[test]
    fn deterministic() {
        let ss = seqs(&["MKVLAWGKVL", "MKILAWKIL", "MKVLWGKVL"]);
        let (a, _) = ClustalLite::default().align_with_work(&ss);
        let (b, _) = ClustalLite::default().align_with_work(&ss);
        assert_eq!(a, b);
    }
}
