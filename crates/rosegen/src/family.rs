//! Family generation: evolve a root sequence down a random phylogeny while
//! tracking the true alignment through a global column registry.
//!
//! Every alignment column that ever exists gets a stable id. Substitutions
//! rewrite a column's residue in one lineage; deletions drop `(column,
//! residue)` entries from one lineage; insertions mint fresh column ids and
//! splice them into the global column order. The true multiple alignment
//! of the leaves falls out by scattering each leaf's `(column, residue)`
//! pairs into the final column order.

use crate::mutation::MutationModel;
use crate::rng::{geometric, normal, poisson};
use crate::treegen::random_ultrametric_tree;
use bioseq::alphabet::GAP_CODE;
use bioseq::{Msa, Sequence};
use phylo::Tree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Parameters of a synthetic family (rose-style).
#[derive(Debug, Clone)]
pub struct FamilyConfig {
    /// Number of leaf sequences.
    pub n_seqs: usize,
    /// Mean root sequence length.
    pub avg_len: usize,
    /// Standard deviation of the root length.
    pub len_sd: f64,
    /// Divergence knob — despite the name, **larger values mean more
    /// divergent families**, not more related ones.
    ///
    /// The knob keeps rose's convention: the expected pairwise
    /// substitutions per site are `≈ relatedness / 500`, so `100.0`
    /// yields a tight family, `800.0` reproduces the paper's "not very
    /// close" setting, and `1500.0` barely-alignable sequences.
    pub relatedness: f64,
    /// Expected indel events per site per unit branch length.
    pub indel_rate: f64,
    /// Geometric length parameter for indels (mean length `1/p`).
    pub indel_ext_p: f64,
    /// RNG seed (families are fully deterministic given their config).
    pub seed: u64,
    /// Identifier prefix: sequences are named `<prefix><index>`.
    pub id_prefix: String,
}

impl Default for FamilyConfig {
    fn default() -> Self {
        FamilyConfig {
            n_seqs: 20,
            avg_len: 300,
            len_sd: 15.0,
            relatedness: 800.0,
            indel_rate: 0.02,
            indel_ext_p: 0.45,
            seed: 0,
            id_prefix: "seq".to_string(),
        }
    }
}

/// A generated family: the unaligned leaf sequences, their true reference
/// alignment, and the phylogeny that produced them.
#[derive(Debug, Clone)]
pub struct Family {
    /// Leaf sequences, index-aligned with the tree's leaves and the
    /// reference alignment's rows.
    pub seqs: Vec<Sequence>,
    /// The true alignment implied by the generative process.
    pub reference: Msa,
    /// The generating phylogeny.
    pub tree: Tree,
}

/// Minimum residues a lineage may shrink to (deletions that would go below
/// this are skipped so sequences never vanish), and the smallest
/// [`FamilyConfig::avg_len`] [`Family::generate`] accepts.
pub const MIN_LEN: usize = 8;

impl Family {
    /// Generate a family.
    ///
    /// # Panics
    /// Panics if `n_seqs == 0` or `avg_len < MIN_LEN`.
    pub fn generate(cfg: &FamilyConfig) -> Family {
        assert!(cfg.n_seqs >= 1, "need at least one sequence");
        assert!(cfg.avg_len >= MIN_LEN, "avg_len too small");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let model = MutationModel::blosum62();
        // `relatedness` scales divergence (larger = further apart); see
        // the field's rustdoc for the rose convention it preserves.
        let subs_per_site = cfg.relatedness / 500.0;
        let tree = random_ultrametric_tree(&mut rng, cfg.n_seqs, subs_per_site / 2.0);

        // Root sequence.
        let root_len =
            normal(&mut rng, cfg.avg_len as f64, cfg.len_sd).round().max(MIN_LEN as f64) as usize;
        let mut next_col: u64 = 0;
        let mut order: Vec<u64> = Vec::with_capacity(root_len * 2);
        let mut root_seq: Vec<(u64, u8)> = Vec::with_capacity(root_len);
        for _ in 0..root_len {
            let id = next_col;
            next_col += 1;
            order.push(id);
            root_seq.push((id, model.sample_background(&mut rng)));
        }

        // Pre-order traversal (parents before children).
        let mut node_seqs: Vec<Option<Vec<(u64, u8)>>> = vec![None; tree.n_nodes()];
        node_seqs[tree.root()] = Some(root_seq);
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            if let Some((a, b)) = tree.node(id).children {
                for child in [a, b] {
                    let evolved = evolve_edge(
                        node_seqs[id].as_ref().expect("parent evolved"),
                        tree.node(child).branch_len,
                        cfg,
                        &model,
                        &mut rng,
                        &mut next_col,
                        &mut order,
                    );
                    node_seqs[child] = Some(evolved);
                    stack.push(child);
                }
            }
        }

        // Collect leaves.
        let width = |i: usize| format!("{:01$}", i, cfg.n_seqs.to_string().len().max(4));
        let mut seqs = Vec::with_capacity(cfg.n_seqs);
        let mut leaf_entries: Vec<&Vec<(u64, u8)>> = Vec::with_capacity(cfg.n_seqs);
        for leaf in 0..cfg.n_seqs {
            let node = tree.leaf_node(leaf).expect("leaf exists");
            let entries = node_seqs[node].as_ref().expect("leaf evolved");
            let codes: Vec<u8> = entries.iter().map(|&(_, r)| r).collect();
            seqs.push(Sequence::from_codes(format!("{}{}", cfg.id_prefix, width(leaf)), codes));
            leaf_entries.push(entries);
        }

        // Assemble the true alignment.
        let col_pos: HashMap<u64, usize> = order.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        let total_cols = order.len();
        let mut rows: Vec<Vec<u8>> = Vec::with_capacity(cfg.n_seqs);
        for entries in leaf_entries {
            let mut row = vec![GAP_CODE; total_cols];
            for &(col, res) in entries {
                row[col_pos[&col]] = res;
            }
            rows.push(row);
        }
        let ids: Vec<String> = seqs.iter().map(|s| s.id.clone()).collect();
        let mut reference = Msa::from_rows(ids, rows);
        reference.drop_all_gap_columns();
        debug_assert!(reference.validate().is_ok());
        Family { seqs, reference, tree }
    }
}

/// Evolve a parent sequence across one edge: substitutions, then indels.
fn evolve_edge(
    parent: &[(u64, u8)],
    t: f64,
    cfg: &FamilyConfig,
    model: &MutationModel,
    rng: &mut StdRng,
    next_col: &mut u64,
    order: &mut Vec<u64>,
) -> Vec<(u64, u8)> {
    let mut seq: Vec<(u64, u8)> = parent.to_vec();
    // Substitutions, site-independent.
    for entry in seq.iter_mut() {
        entry.1 = model.evolve_site(rng, entry.1, t);
    }
    // Indel events: Poisson in (rate × branch × length); each event is an
    // insertion or deletion with equal probability.
    let events = poisson(rng, cfg.indel_rate * t * seq.len() as f64);
    for _ in 0..events {
        let len = geometric(rng, cfg.indel_ext_p);
        if rng.gen_bool(0.5) {
            // Deletion.
            if seq.len() <= MIN_LEN {
                continue;
            }
            let len = len.min(seq.len() - MIN_LEN);
            if len == 0 {
                continue;
            }
            let start = rng.gen_range(0..=seq.len() - len);
            seq.drain(start..start + len);
        } else {
            // Insertion of `len` fresh columns after position `pos`.
            let pos = rng.gen_range(0..=seq.len());
            // Global order anchor: before the column at `pos`, or at the
            // very end of the registry when appending.
            let global_at = if pos < seq.len() {
                order.iter().position(|&c| c == seq[pos].0).expect("live column is registered")
            } else {
                order.len()
            };
            let fresh: Vec<(u64, u8)> = (0..len)
                .map(|_| {
                    let id = *next_col;
                    *next_col += 1;
                    (id, model.sample_background(rng))
                })
                .collect();
            order.splice(global_at..global_at, fresh.iter().map(|&(c, _)| c));
            seq.splice(pos..pos, fresh);
        }
    }
    seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize, relatedness: f64, seed: u64) -> FamilyConfig {
        FamilyConfig {
            n_seqs: n,
            avg_len: 80,
            len_sd: 5.0,
            relatedness,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn reference_rows_ungap_to_sequences() {
        let fam = Family::generate(&cfg(12, 800.0, 1));
        assert_eq!(fam.seqs.len(), 12);
        fam.reference.validate().unwrap();
        for (i, s) in fam.seqs.iter().enumerate() {
            assert_eq!(fam.reference.ungapped(i), *s, "leaf {i}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Family::generate(&cfg(8, 600.0, 42));
        let b = Family::generate(&cfg(8, 600.0, 42));
        assert_eq!(a.seqs, b.seqs);
        assert_eq!(a.reference, b.reference);
        let c = Family::generate(&cfg(8, 600.0, 43));
        assert_ne!(a.seqs, c.seqs);
    }

    #[test]
    fn identity_decreases_with_relatedness() {
        let close = Family::generate(&cfg(10, 100.0, 7));
        let far = Family::generate(&cfg(10, 1500.0, 7));
        let id_close = close.reference.average_identity();
        let id_far = far.reference.average_identity();
        assert!(id_close > id_far + 0.1, "close {id_close} vs far {id_far}");
        assert!(id_close > 0.7, "close families should be similar: {id_close}");
    }

    #[test]
    fn lengths_cluster_around_avg() {
        let fam = Family::generate(&FamilyConfig {
            n_seqs: 30,
            avg_len: 300,
            len_sd: 10.0,
            relatedness: 400.0,
            seed: 3,
            ..Default::default()
        });
        let mean = fam.seqs.iter().map(|s| s.len() as f64).sum::<f64>() / fam.seqs.len() as f64;
        assert!((mean - 300.0).abs() < 60.0, "mean length {mean}");
        assert!(fam.seqs.iter().all(|s| s.len() >= MIN_LEN));
    }

    #[test]
    fn single_sequence_family() {
        let fam = Family::generate(&cfg(1, 800.0, 5));
        assert_eq!(fam.seqs.len(), 1);
        assert_eq!(fam.reference.num_rows(), 1);
        assert_eq!(fam.reference.ungapped(0), fam.seqs[0]);
    }

    #[test]
    fn ids_use_prefix() {
        let fam = Family::generate(&FamilyConfig {
            n_seqs: 3,
            id_prefix: "fam7_".into(),
            avg_len: 50,
            ..Default::default()
        });
        assert!(fam.seqs[0].id.starts_with("fam7_"));
        // Unique ids.
        let set: std::collections::HashSet<&str> = fam.seqs.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn indels_create_gaps_in_reference() {
        let fam = Family::generate(&FamilyConfig {
            n_seqs: 12,
            avg_len: 120,
            relatedness: 900.0,
            indel_rate: 0.05,
            seed: 11,
            ..Default::default()
        });
        let has_gap = fam.reference.rows().iter().any(|r| r.contains(&GAP_CODE));
        assert!(has_gap, "a divergent family should contain gaps");
    }

    #[test]
    fn zero_relatedness_gives_identical_sequences() {
        let fam = Family::generate(&cfg(6, 0.0, 13));
        for s in &fam.seqs[1..] {
            assert_eq!(s.codes(), fam.seqs[0].codes());
        }
        assert!((fam.reference.average_identity() - 1.0).abs() < 1e-12);
    }
}
