//! UPGMA agglomerative clustering.
//!
//! Uses the nearest-neighbour-array technique: each active cluster caches
//! its current nearest neighbour, so a merge only rescans rows whose cached
//! neighbour was invalidated. Expected `O(n²)` on distance matrices arising
//! from metric-ish data (worst case `O(n³)`, never observed on sequence
//! distances).

use crate::distmat::DistMatrix;
use crate::tree::{NodeId, Tree};

/// UPGMA clustering of a distance matrix into a rooted ultrametric tree:
/// merged rows are averaged weighted by cluster size. Leaf `i` of the
/// result corresponds to index `i` of the matrix.
pub fn upgma(dist: &DistMatrix) -> Tree {
    let n = dist.len();
    if n == 1 {
        return Tree::singleton();
    }
    // Working copy of the matrix, full square for O(1) row updates.
    let mut d = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            d[i * n + j] = dist.get(i, j);
        }
    }
    let mut active: Vec<bool> = vec![true; n];
    let mut size: Vec<f64> = vec![1.0; n];
    // Tree node id that currently represents matrix row i.
    let mut rep: Vec<NodeId> = (0..n).collect();
    let mut height: Vec<f64> = vec![0.0; n];
    // Nearest active neighbour of each active row.
    let mut nn: Vec<usize> = vec![usize::MAX; n];
    let find_nn = |d: &[f64], active: &[bool], i: usize| -> usize {
        let mut best = usize::MAX;
        let mut best_d = f64::INFINITY;
        for j in 0..n {
            if j != i && active[j] {
                let v = d[i * n + j];
                if v < best_d {
                    best_d = v;
                    best = j;
                }
            }
        }
        best
    };
    for (i, slot) in nn.iter_mut().enumerate() {
        *slot = find_nn(&d, &active, i);
    }

    let mut merges: Vec<(NodeId, NodeId, f64)> = Vec::with_capacity(n - 1);
    for round in 0..(n - 1) {
        // Pick the globally closest pair via the nn cache.
        let mut bi = usize::MAX;
        let mut best = f64::INFINITY;
        for i in 0..n {
            if active[i] && nn[i] != usize::MAX {
                let v = d[i * n + nn[i]];
                if v < best {
                    best = v;
                    bi = i;
                }
            }
        }
        let i = bi;
        let j = nn[bi];
        debug_assert!(active[i] && active[j] && i != j);
        let new_height = (best / 2.0).max(height[i]).max(height[j]);
        merges.push((rep[i], rep[j], new_height));
        // Merge j into i.
        let (si, sj) = (size[i], size[j]);
        for k in 0..n {
            if k != i && k != j && active[k] {
                let dik = d[i * n + k];
                let djk = d[j * n + k];
                let merged = (si * dik + sj * djk) / (si + sj);
                d[i * n + k] = merged;
                d[k * n + i] = merged;
            }
        }
        active[j] = false;
        size[i] = si + sj;
        height[i] = new_height;
        // The merge created tree node `n + round`.
        rep[i] = n + round;
        if merges.len() == n - 1 {
            break;
        }
        // Refresh invalidated nearest-neighbour entries.
        nn[i] = find_nn(&d, &active, i);
        for k in 0..n {
            if active[k] && k != i && (nn[k] == i || nn[k] == j) {
                nn[k] = find_nn(&d, &active, k);
            }
        }
    }
    let tree = Tree::from_merges(n, &merges);
    debug_assert!(tree.validate().is_ok());
    tree
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_leaves() {
        let mut m = DistMatrix::zeros(2);
        m.set(0, 1, 4.0);
        let t = upgma(&m);
        t.validate().unwrap();
        assert_eq!(t.n_leaves(), 2);
        // Ultrametric: both leaves at distance 2 from root.
        assert_eq!(t.node(0).branch_len, 2.0);
        assert_eq!(t.node(1).branch_len, 2.0);
    }

    #[test]
    fn textbook_example() {
        // Classic UPGMA worked example with a clean hierarchy:
        // d(0,1)=2, everything with 2 = 6, everything with 3 = 10.
        let m = DistMatrix::from_fn(4, |i, j| match (i, j) {
            (1, 0) => 2.0,
            (2, 0) | (2, 1) => 6.0,
            (3, _) => 10.0,
            _ => unreachable!(),
        });
        let t = upgma(&m);
        t.validate().unwrap();
        // First merge must be (0,1) at height 1.
        let post = t.postorder();
        let first_internal =
            post.iter().copied().find(|&id| t.node(id).children.is_some()).unwrap();
        let mut leaves = t.leaves_under(first_internal);
        leaves.sort_unstable();
        assert_eq!(leaves, vec![0, 1]);
        assert!((t.node(first_internal).height - 1.0).abs() < 1e-12);
        // Root joins leaf 3 at height 5.
        assert!((t.node(t.root()).height - 5.0).abs() < 1e-12);
    }

    #[test]
    fn upgma_recovers_ultrametric_distances() {
        // Build an ultrametric matrix from a known tree, cluster it, and
        // check path lengths between leaves reproduce the matrix.
        let m = DistMatrix::from_fn(5, |i, j| {
            // Two clades {0,1,2} (pairwise 2.0) and {3,4} (pairwise 1.0),
            // across clades 8.0.
            let clade = |x: usize| usize::from(x >= 3);
            if clade(i) == clade(j) {
                if clade(i) == 0 {
                    2.0
                } else {
                    1.0
                }
            } else {
                8.0
            }
        });
        let t = upgma(&m);
        t.validate().unwrap();
        for i in 0..5 {
            for j in 0..i {
                let li = t.leaf_node(i).unwrap();
                let lj = t.leaf_node(j).unwrap();
                assert!((t.path_length(li, lj) - m.get(i, j)).abs() < 1e-9, "pair {i},{j}");
            }
        }
    }

    #[test]
    fn singleton_matrix() {
        let t = upgma(&DistMatrix::zeros(1));
        assert_eq!(t.n_leaves(), 1);
    }

    #[test]
    fn handles_ties_deterministically() {
        let m = DistMatrix::from_fn(4, |_, _| 1.0);
        let a = upgma(&m);
        let b = upgma(&m);
        assert_eq!(a, b);
        a.validate().unwrap();
    }

    #[test]
    fn heights_monotone_nondecreasing() {
        // Heights along any root path must not decrease (guaranteed by the
        // max() clamp even for non-ultrametric inputs).
        let m = DistMatrix::from_fn(6, |i, j| ((i * 7 + j * 3) % 11) as f64 + 0.5);
        let t = upgma(&m);
        for id in 0..t.n_nodes() {
            if let Some(p) = t.node(id).parent {
                assert!(t.node(p).height >= t.node(id).height - 1e-12);
            }
        }
    }
}
