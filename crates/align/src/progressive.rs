//! Progressive alignment along a guide tree.
//!
//! Leaves start as single-row alignments; every internal tree node
//! profile-aligns its children's alignments. Sequence weighting is
//! pluggable (uniform, Henikoff position-based, or fixed per-sequence
//! weights such as CLUSTALW's tree weights).

use crate::dp::{DpArena, DpOptions};
use crate::papro::{align_profiles_with, merge_msas};
use crate::profile::{henikoff_weights, Profile};
use bioseq::{GapPenalties, Msa, Sequence, SubstMatrix, Work};
use phylo::Tree;

/// How sequences are weighted when building profiles during progressive
/// merging.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum WeightScheme {
    /// All sequences weigh 1.
    #[default]
    Uniform,
    /// Henikoff position-based weights recomputed per sub-alignment.
    Henikoff,
    /// Fixed per-input-sequence weights (index-aligned with the input
    /// slice), e.g. CLUSTALW tree weights.
    Fixed(Vec<f64>),
}

/// Configuration for a progressive alignment pass. Every profile–profile
/// DP scores with BLOSUM62 and the default gap penalties.
#[derive(Debug, Clone, Default)]
pub struct ProgressiveConfig {
    /// Sequence weighting scheme.
    pub weights: WeightScheme,
    /// Band policy and kernel of every profile–profile DP along the tree
    /// (default: auto band, auto kernel — see [`DpOptions`]).
    pub dp: DpOptions,
}

/// Progressively align `seqs` guided by `tree` (leaf `i` of the tree is
/// `seqs[i]`) under `cfg`'s [`DpOptions`]. Returns the alignment with rows
/// restored to input order.
///
/// The caller's [`DpArena`] serves every merge: engines thread one arena
/// through every stage so the whole run allocates DP scratch only while
/// the arena grows to its high-water mark.
///
/// # Panics
/// Panics if the tree's leaf count differs from `seqs.len()`, or if a
/// `Fixed` weight vector has the wrong arity.
pub fn progressive_align_with(
    seqs: &[Sequence],
    tree: &Tree,
    cfg: &ProgressiveConfig,
    arena: &mut DpArena,
    work: &mut Work,
) -> Msa {
    assert_eq!(tree.n_leaves(), seqs.len(), "tree must cover the input");
    if let WeightScheme::Fixed(w) = &cfg.weights {
        assert_eq!(w.len(), seqs.len(), "one fixed weight per sequence");
    }
    if seqs.len() == 1 {
        return Msa::from_sequence(&seqs[0]);
    }
    let (matrix, gaps) = (SubstMatrix::blosum62(), GapPenalties::default());
    // Per tree node: the sub-alignment plus the input indices of its rows
    // (row r of the Msa is seqs[rows[r]]).
    let mut state: Vec<Option<(Msa, Vec<usize>)>> = vec![None; tree.n_nodes()];
    for id in tree.postorder() {
        let node = tree.node(id);
        match node.children {
            None => {
                let leaf = node.leaf.expect("leaf");
                state[id] = Some((Msa::from_sequence(&seqs[leaf]), vec![leaf]));
            }
            Some((a, b)) => {
                let (msa_a, rows_a) = state[a].take().expect("child aligned");
                let (msa_b, rows_b) = state[b].take().expect("child aligned");
                let wa = row_weights(&msa_a, &rows_a, cfg, work);
                let wb = row_weights(&msa_b, &rows_b, cfg, work);
                let pa = Profile::from_msa_weighted(&msa_a, &wa, work);
                let pb = Profile::from_msa_weighted(&msa_b, &wb, work);
                let aln = align_profiles_with(&pa, &pb, &matrix, gaps, cfg.dp, arena);
                *work += aln.work;
                let merged = merge_msas(&msa_a, &msa_b, &aln.ops, work);
                let mut rows = rows_a;
                rows.extend(rows_b);
                state[id] = Some((merged, rows));
            }
        }
    }
    let (msa, rows) = state[tree.root()].take().expect("root aligned");
    restore_input_order(msa, &rows)
}

fn row_weights(msa: &Msa, rows: &[usize], cfg: &ProgressiveConfig, work: &mut Work) -> Vec<f64> {
    match &cfg.weights {
        WeightScheme::Uniform => vec![1.0; msa.num_rows()],
        WeightScheme::Henikoff => henikoff_weights(msa, work),
        WeightScheme::Fixed(w) => rows.iter().map(|&i| w[i]).collect(),
    }
}

/// Reorder an alignment's rows so that row `r` corresponds to input index
/// `r` (given the current row → input-index map).
fn restore_input_order(msa: Msa, rows: &[usize]) -> Msa {
    let n = msa.num_rows();
    debug_assert_eq!(rows.len(), n);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&r| rows[r]);
    let ids = order.iter().map(|&r| msa.ids()[r].clone()).collect();
    let out_rows = order.iter().map(|&r| msa.row(r).to_vec()).collect();
    Msa::from_rows(ids, out_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::kmer_distance_matrix;
    use bioseq::CompressedAlphabet;
    use phylo::upgma;

    fn seqs(texts: &[&str]) -> Vec<Sequence> {
        texts
            .iter()
            .enumerate()
            .map(|(i, t)| Sequence::from_str(format!("s{i}"), t).unwrap())
            .collect()
    }

    /// [`progressive_align_with`] under a fresh arena.
    fn progressive_align(
        seqs: &[Sequence],
        tree: &Tree,
        cfg: &ProgressiveConfig,
        w: &mut Work,
    ) -> Msa {
        progressive_align_with(seqs, tree, cfg, &mut DpArena::new(), w)
    }

    fn align(texts: &[&str], cfg: &ProgressiveConfig) -> Msa {
        let ss = seqs(texts);
        let mut w = Work::ZERO;
        let d = kmer_distance_matrix(&ss, 2, CompressedAlphabet::Identity, &mut w);
        let tree = upgma(&d);
        progressive_align(&ss, &tree, cfg, &mut w)
    }

    #[test]
    fn aligns_identical_sequences_trivially() {
        let m = align(&["MKVLAW", "MKVLAW", "MKVLAW"], &ProgressiveConfig::default());
        assert_eq!(m.num_cols(), 6);
        m.validate().unwrap();
        assert!((m.average_identity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn preserves_every_input_sequence() {
        let texts = ["MKVLAWGKVL", "MKILAWKIL", "MKVLWGKVL", "MKILAWGKIL"];
        let m = align(&texts, &ProgressiveConfig::default());
        m.validate().unwrap();
        assert_eq!(m.num_rows(), 4);
        for (i, t) in texts.iter().enumerate() {
            assert_eq!(m.ungapped(i).to_letters(), *t, "row {i}");
            assert_eq!(m.ids()[i], format!("s{i}"));
        }
    }

    #[test]
    fn rows_restored_to_input_order() {
        // Input order deliberately anti-correlated with similarity
        // clusters: 0 and 2 similar, 1 and 3 similar.
        let texts = ["MKVLAWGKVL", "PPPPGGPPWW", "MKVLAWGKIL", "PPPPGGPPWV"];
        let m = align(&texts, &ProgressiveConfig::default());
        for (i, _) in texts.iter().enumerate() {
            assert_eq!(m.ids()[i], format!("s{i}"));
        }
    }

    #[test]
    fn related_sequences_align_with_high_identity() {
        let texts = ["MKVLAWGKVLSS", "MKVLAWGKVLS", "MKVLAWGKVL", "MKVLAWGKV"];
        let m = align(&texts, &ProgressiveConfig::default());
        assert!(m.average_identity() > 0.9, "identity {}", m.average_identity());
    }

    #[test]
    fn single_and_pair_edge_cases() {
        let one = align(&["MKVL"], &ProgressiveConfig::default());
        assert_eq!(one.num_rows(), 1);
        let two = align(&["MKVLAW", "MKAW"], &ProgressiveConfig::default());
        assert_eq!(two.num_rows(), 2);
        two.validate().unwrap();
    }

    #[test]
    fn henikoff_scheme_produces_valid_alignment() {
        let cfg = ProgressiveConfig { weights: WeightScheme::Henikoff, ..Default::default() };
        let m = align(&["MKVLAWGKVL", "MKILAWKIL", "MKVLWGKVL", "WWPPGGCCWW"], &cfg);
        m.validate().unwrap();
        assert_eq!(m.num_rows(), 4);
    }

    #[test]
    fn fixed_weights_validated_and_used() {
        let texts = ["MKVLAW", "MKILAW", "MKVLCW"];
        let ss = seqs(&texts);
        let mut w = Work::ZERO;
        let d = kmer_distance_matrix(&ss, 2, CompressedAlphabet::Identity, &mut w);
        let tree = upgma(&d);
        let cfg = ProgressiveConfig {
            weights: WeightScheme::Fixed(vec![1.0, 2.0, 0.5]),
            ..Default::default()
        };
        let m = progressive_align(&ss, &tree, &cfg, &mut w);
        m.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "one fixed weight per sequence")]
    fn fixed_weight_arity_checked() {
        let ss = seqs(&["MKVL", "MKIL"]);
        let mut w = Work::ZERO;
        let d = kmer_distance_matrix(&ss, 2, CompressedAlphabet::Identity, &mut w);
        let tree = upgma(&d);
        let cfg =
            ProgressiveConfig { weights: WeightScheme::Fixed(vec![1.0]), ..Default::default() };
        progressive_align(&ss, &tree, &cfg, &mut w);
    }

    #[test]
    fn work_accumulates() {
        let ss = seqs(&["MKVLAW", "MKILAW", "MKVLCW"]);
        let mut w = Work::ZERO;
        let d = kmer_distance_matrix(&ss, 2, CompressedAlphabet::Identity, &mut w);
        let tree = upgma(&d);
        progressive_align(&ss, &tree, &ProgressiveConfig::default(), &mut w);
        assert!(w.dp_cells > 0);
        assert!(w.col_ops > 0);
    }
}
