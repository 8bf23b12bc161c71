//! Typed messages exchanged between ranks, with wire-size accounting for
//! the virtual network.

use bioseq::{Msa, Sequence};
use vcluster::WireSize;

/// A sequence travelling with its globalized k-mer rank (redistribution
/// payload).
#[derive(Debug, Clone, PartialEq)]
pub struct RankedSeq {
    /// The sequence.
    pub seq: Sequence,
    /// Its globalized rank (the PSRS key).
    pub rank: f64,
}

impl WireSize for RankedSeq {
    fn wire_bytes(&self) -> usize {
        self.seq.wire_bytes() + 8
    }
}

/// A batch of sequences (sample exchange, local ancestors of a rank's
/// leaves, the broadcast global ancestor).
#[derive(Debug, Clone, PartialEq)]
pub struct SeqBatch(pub Vec<Sequence>);

impl WireSize for SeqBatch {
    fn wire_bytes(&self) -> usize {
        8 + self.0.iter().map(Sequence::wire_bytes).sum::<usize>()
    }
}

/// An anchored alignment block shipped to the root for gluing: the rows of
/// one bucket in "global ancestor + inserts" coordinates, plus the
/// per-column kind marker. The run of insert columns before each anchor
/// (and after the last) is the bucket's share of that insert slot, which
/// glue pads to the longest run any bucket has there.
#[derive(Debug, Clone, PartialEq)]
pub struct AnchoredBlockMsg {
    /// Row ids.
    pub ids: Vec<String>,
    /// Gapped rows (all the same width).
    pub rows: Vec<Vec<u8>>,
    /// For every column: `true` if it corresponds to a global-ancestor
    /// column, `false` for an insert column.
    pub is_anchor: Vec<bool>,
}

impl WireSize for AnchoredBlockMsg {
    fn wire_bytes(&self) -> usize {
        let ids: usize = self.ids.iter().map(|s| 8 + s.len()).sum();
        let rows: usize = self.rows.iter().map(|r| 8 + r.len()).sum();
        8 + ids + rows + self.is_anchor.len()
    }
}

/// A plain alignment block (no-fine-tune glue path).
#[derive(Debug, Clone, PartialEq)]
pub struct MsaBlockMsg(pub Msa);

impl WireSize for MsaBlockMsg {
    fn wire_bytes(&self) -> usize {
        let ids: usize = self.0.ids().iter().map(|s| 8 + s.len()).sum();
        ids + self.0.num_rows() * self.0.num_cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(t: &str) -> Sequence {
        Sequence::from_str("id", t).unwrap()
    }

    #[test]
    fn ranked_seq_bytes() {
        let r = RankedSeq { seq: seq("MKVL"), rank: 0.5 };
        // 4 residues + 2 id chars + 8 overhead + 8 rank
        assert_eq!(r.wire_bytes(), 4 + 2 + 8 + 8);
    }

    #[test]
    fn batch_bytes_scale_with_members() {
        let b1 = SeqBatch(vec![seq("MKVL")]);
        let b2 = SeqBatch(vec![seq("MKVL"), seq("MKVL")]);
        assert!(b2.wire_bytes() > b1.wire_bytes());
        assert_eq!(b2.wire_bytes() - b1.wire_bytes(), seq("MKVL").wire_bytes());
    }

    #[test]
    fn anchored_block_counts_everything() {
        let m = AnchoredBlockMsg {
            ids: vec!["a".into()],
            rows: vec![vec![0, 1, 2]],
            is_anchor: vec![true, false, true],
        };
        assert_eq!(m.wire_bytes(), 8 + (8 + 1) + (8 + 3) + 3);
    }

    #[test]
    fn msa_block_bytes() {
        let m = bioseq::fasta::parse_alignment(">a\nMK\n>b\nMK\n").unwrap();
        assert_eq!(MsaBlockMsg(m).wire_bytes(), (8 + 1) * 2 + 4);
    }
}
