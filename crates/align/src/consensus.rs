//! Consensus ("ancestor") extraction from an alignment.
//!
//! The paper's local ancestor is the root profile of each processor's local
//! alignment, collapsed to a single representative sequence: per column the
//! majority residue, with gap-majority columns dropped. The global ancestor
//! is obtained the same way from the alignment of local ancestors.

use crate::profile::{Profile, ProfileColumn};
use bioseq::{Msa, Sequence, Work};

/// Extract the consensus sequence of an alignment.
///
/// Columns where the summed gap weight strictly exceeds the summed residue
/// weight are skipped; among residues the highest-weight one wins (ties
/// break to the lowest residue code for determinism). If every column is
/// gap-dominated, the gap rule is ignored so the result is never empty.
pub fn consensus_sequence(msa: &Msa, id: impl Into<String>, work: &mut Work) -> Sequence {
    let profile = Profile::from_msa(msa, work);
    let pick = |col: ProfileColumn| -> Option<u8> {
        col.residues
            .iter()
            .copied()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(b.0.cmp(&a.0)))
            .map(|(code, _)| code)
    };
    let mut codes: Vec<u8> = Vec::with_capacity(profile.len());
    for col in profile.columns() {
        if col.gap_weight > col.residue_weight() {
            continue;
        }
        if let Some(code) = pick(col) {
            codes.push(code);
        }
    }
    if codes.is_empty() {
        // Degenerate: every column gap-dominated. Fall back to per-column
        // majority residues wherever any residue exists.
        for col in profile.columns() {
            if let Some(code) = pick(col) {
                codes.push(code);
            }
        }
    }
    work.col_ops += profile.len() as u64;
    Sequence::from_codes(id, codes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::fasta;

    fn msa(text: &str) -> Msa {
        fasta::parse_alignment(text).unwrap()
    }

    #[test]
    fn unanimous_columns() {
        let m = msa(">a\nMKVL\n>b\nMKVL\n>c\nMKVL\n");
        let mut w = Work::ZERO;
        let c = consensus_sequence(&m, "anc", &mut w);
        assert_eq!(c.to_letters(), "MKVL");
        assert_eq!(c.id, "anc");
    }

    #[test]
    fn majority_wins() {
        let m = msa(">a\nMKVL\n>b\nMKVL\n>c\nMKIL\n");
        let mut w = Work::ZERO;
        let c = consensus_sequence(&m, "anc", &mut w);
        assert_eq!(c.to_letters(), "MKVL");
    }

    #[test]
    fn gap_majority_columns_dropped() {
        let m = msa(">a\nMK-VL\n>b\nMK-VL\n>c\nMKIVL\n");
        let mut w = Work::ZERO;
        let c = consensus_sequence(&m, "anc", &mut w);
        // Column 2 is 2 gaps vs 1 residue: dropped.
        assert_eq!(c.to_letters(), "MKVL");
    }

    #[test]
    fn gap_tie_keeps_column() {
        let m = msa(">a\nM-VL\n>b\nMKVL\n");
        let mut w = Work::ZERO;
        let c = consensus_sequence(&m, "anc", &mut w);
        // Column 1: one gap vs one K — tie, kept.
        assert_eq!(c.to_letters(), "MKVL");
    }

    #[test]
    fn never_empty() {
        // Pathological alignment where every column is gap-dominated.
        let m = Msa::from_rows(
            vec!["a".into(), "b".into(), "c".into()],
            vec![
                vec![0, bioseq::GAP_CODE, bioseq::GAP_CODE],
                vec![bioseq::GAP_CODE, 1, bioseq::GAP_CODE],
                vec![bioseq::GAP_CODE, bioseq::GAP_CODE, 2],
            ],
        );
        let mut w = Work::ZERO;
        let c = consensus_sequence(&m, "anc", &mut w);
        assert!(!c.is_empty());
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn deterministic_tiebreak() {
        let m = msa(">a\nA\n>b\nW\n");
        let mut w = Work::ZERO;
        let c1 = consensus_sequence(&m, "x", &mut w);
        let c2 = consensus_sequence(&m, "x", &mut w);
        assert_eq!(c1, c2);
        // Lowest code wins the tie: A (code 0) beats W.
        assert_eq!(c1.to_letters(), "A");
    }
}
