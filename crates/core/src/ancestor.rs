//! Ancestor-constrained fine-tuning and gluing (steps 7–8 of the
//! pipeline; the paper's Fig. 2).
//!
//! Every bucket's alignment is profile-aligned against the global ancestor
//! sequence, putting all buckets into a shared coordinate system: the
//! ancestor's columns are the anchors, and whatever a bucket inserts
//! relative to the ancestor becomes a bucket-private column. The glue step
//! interleaves the anchored blocks, padding other buckets with gaps across
//! private columns — PSI-BLAST-style master–slave stacking, which is what
//! lets the paper "just join" the tweaked sub-alignments.

use crate::messages::AnchoredBlockMsg;
use align::anchor::{anchored_profile_ops, AnchorSpec};
use align::dp::ColOp;
use align::papro::align_profiles_with;
use align::{DpArena, DpOptions, Profile};
use bioseq::alphabet::GAP_CODE;
use bioseq::{GapPenalties, Msa, Sequence, SubstMatrix, Work};

/// Anchor one bucket's alignment to the global ancestor.
///
/// Returns the bucket's rows rewritten into "ancestor + private inserts"
/// coordinates: the result has exactly `ancestor.len()` anchor columns (in
/// order) plus the bucket's insert columns. The profile DP runs under
/// `dp` (see [`DpOptions`]) in the caller's `arena`.
pub fn anchor_to_ancestor(
    local: &Msa,
    ancestor: &Sequence,
    matrix: &SubstMatrix,
    gaps: GapPenalties,
    dp: DpOptions,
    arena: &mut DpArena,
    work: &mut Work,
) -> AnchoredBlockMsg {
    let p_local = Profile::from_msa(local, work);
    let anc_msa = Msa::from_sequence(ancestor);
    let p_anc = Profile::from_msa(&anc_msa, work);
    let aln = align_profiles_with(&p_local, &p_anc, matrix, gaps, dp, arena);
    *work += aln.work;
    apply_anchor_ops(local, ancestor, &aln.ops, work)
}

/// Like [`anchor_to_ancestor`], but seeds the profile DP with conserved
/// consensus anchors ([`anchored_profile_ops`]): k-mers shared (and
/// unique) between the bucket's consensus and the ancestor are pinned as
/// matched columns, and only the stretches in between run the affine DP.
/// With zero detected anchors the script degrades to exactly the
/// whole-width DP of [`anchor_to_ancestor`].
#[allow(clippy::too_many_arguments)]
pub fn anchor_to_ancestor_seeded(
    local: &Msa,
    ancestor: &Sequence,
    spec: &AnchorSpec,
    matrix: &SubstMatrix,
    gaps: GapPenalties,
    dp: DpOptions,
    arena: &mut DpArena,
    work: &mut Work,
) -> AnchoredBlockMsg {
    let anc_msa = Msa::from_sequence(ancestor);
    let ops = anchored_profile_ops(local, &anc_msa, spec, matrix, gaps, dp, arena, work);
    apply_anchor_ops(local, ancestor, &ops, work)
}

/// Rewrite `local`'s rows along a merge script against the ancestor:
/// `Both`/`FromA` columns carry the bucket's residues (anchored/private),
/// `FromB` columns are ancestor-only and get gaps.
fn apply_anchor_ops(
    local: &Msa,
    ancestor: &Sequence,
    ops: &[ColOp],
    work: &mut Work,
) -> AnchoredBlockMsg {
    let mut rows: Vec<Vec<u8>> =
        (0..local.num_rows()).map(|_| Vec::with_capacity(ops.len())).collect();
    let mut is_anchor = Vec::with_capacity(ops.len());
    let mut col = 0usize;
    for op in ops {
        match op {
            // Local column aligned to an ancestor column.
            ColOp::Both => {
                for (r, row) in rows.iter_mut().enumerate() {
                    row.push(local.row(r)[col]);
                }
                col += 1;
                is_anchor.push(true);
            }
            // Bucket-private insert relative to the ancestor.
            ColOp::FromA => {
                for (r, row) in rows.iter_mut().enumerate() {
                    row.push(local.row(r)[col]);
                }
                col += 1;
                is_anchor.push(false);
            }
            // Ancestor column the bucket has no residues for.
            ColOp::FromB => {
                for row in rows.iter_mut() {
                    row.push(GAP_CODE);
                }
                is_anchor.push(true);
            }
        }
    }
    debug_assert_eq!(col, local.num_cols());
    debug_assert_eq!(
        is_anchor.iter().filter(|&&a| a).count(),
        ancestor.len(),
        "every ancestor column must appear exactly once"
    );
    work.col_ops += (ops.len() * local.num_rows()) as u64;
    AnchoredBlockMsg { ids: local.ids().to_vec(), rows, is_anchor }
}

/// Glue anchored blocks into one alignment: anchor columns are shared
/// across blocks, private insert columns get gaps in every other block.
///
/// # Panics
/// Panics if blocks disagree on the number of anchor columns.
pub fn glue_anchored(ancestor_len: usize, blocks: &[AnchoredBlockMsg], work: &mut Work) -> Msa {
    assert!(!blocks.is_empty(), "nothing to glue");
    for (i, b) in blocks.iter().enumerate() {
        assert_eq!(
            b.is_anchor.iter().filter(|&&a| a).count(),
            ancestor_len,
            "block {i} has the wrong anchor count"
        );
    }
    let total_rows: usize = blocks.iter().map(|b| b.rows.len()).sum();
    // Per block: positions split into runs between anchors.
    // cursor[b] walks the block's columns.
    let mut cursors = vec![0usize; blocks.len()];
    let mut ids = Vec::with_capacity(total_rows);
    for b in blocks {
        ids.extend(b.ids.iter().cloned());
    }
    let mut rows: Vec<Vec<u8>> = (0..total_rows).map(|_| Vec::new()).collect();
    let row_offset: Vec<usize> = blocks
        .iter()
        .scan(0usize, |acc, b| {
            let at = *acc;
            *acc += b.rows.len();
            Some(at)
        })
        .collect();

    // Emit: for each anchor index g, first every block's private columns
    // pending before its next anchor, then the shared anchor column. After
    // the last anchor, flush trailing private columns.
    let emit_private = |rows: &mut Vec<Vec<u8>>, cursors: &mut Vec<usize>| {
        for (bi, block) in blocks.iter().enumerate() {
            while cursors[bi] < block.is_anchor.len() && !block.is_anchor[cursors[bi]] {
                for (r, row) in rows.iter_mut().enumerate() {
                    let in_block = r >= row_offset[bi] && r < row_offset[bi] + block.rows.len();
                    row.push(if in_block {
                        block.rows[r - row_offset[bi]][cursors[bi]]
                    } else {
                        GAP_CODE
                    });
                }
                cursors[bi] += 1;
            }
        }
    };
    for _g in 0..ancestor_len {
        emit_private(&mut rows, &mut cursors);
        // Shared anchor column.
        for (bi, block) in blocks.iter().enumerate() {
            debug_assert!(block.is_anchor[cursors[bi]]);
            for r in 0..block.rows.len() {
                rows[row_offset[bi] + r].push(block.rows[r][cursors[bi]]);
            }
            cursors[bi] += 1;
        }
    }
    emit_private(&mut rows, &mut cursors);
    for (bi, block) in blocks.iter().enumerate() {
        debug_assert_eq!(cursors[bi], block.is_anchor.len(), "block {bi} fully consumed");
    }
    let width: usize = rows[0].len();
    work.col_ops += (width * total_rows) as u64;
    let mut msa = Msa::from_rows(ids, rows);
    // Anchor columns where every bucket was gapped can be all-gap.
    msa.drop_all_gap_columns();
    msa
}

/// The no-fine-tune glue: stack buckets block-diagonally (each bucket's
/// columns are private). This is what "just concatenating" without the
/// ancestor constraint yields — the ablation baseline.
pub fn glue_block_diagonal(blocks: &[Msa], work: &mut Work) -> Msa {
    assert!(!blocks.is_empty(), "nothing to glue");
    let total_cols: usize = blocks.iter().map(Msa::num_cols).sum();
    let total_rows: usize = blocks.iter().map(Msa::num_rows).sum();
    let mut ids = Vec::with_capacity(total_rows);
    let mut rows: Vec<Vec<u8>> = Vec::with_capacity(total_rows);
    let mut col_offset = 0usize;
    for block in blocks {
        for r in 0..block.num_rows() {
            ids.push(block.ids()[r].clone());
            let mut row = vec![GAP_CODE; total_cols];
            row[col_offset..col_offset + block.num_cols()].copy_from_slice(block.row(r));
            rows.push(row);
        }
        col_offset += block.num_cols();
    }
    work.col_ops += (total_cols * total_rows) as u64;
    Msa::from_rows(ids, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::fasta;

    fn msa(text: &str) -> Msa {
        fasta::parse_alignment(text).unwrap()
    }

    fn setup() -> (SubstMatrix, GapPenalties) {
        (SubstMatrix::blosum62(), GapPenalties::default())
    }

    /// [`anchor_to_ancestor`] under [`setup`]'s scoring, the default DP
    /// options and a throwaway arena.
    fn anchor(local: &Msa, anc: &Sequence, work: &mut Work) -> AnchoredBlockMsg {
        let (mat, gaps) = setup();
        anchor_to_ancestor(local, anc, &mat, gaps, DpOptions::default(), &mut DpArena::new(), work)
    }

    #[test]
    fn anchoring_preserves_rows_and_anchor_count() {
        let local = msa(">a\nMKVLAW\n>b\nMKV-AW\n");
        let anc = Sequence::from_str("GA", "MKVAW").unwrap();
        let mut w = Work::ZERO;
        let block = anchor(&local, &anc, &mut w);
        assert_eq!(block.ids, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(block.is_anchor.iter().filter(|&&a| a).count(), 5);
        // Rows ungap to the originals.
        for (r, want) in [(0usize, "MKVLAW"), (1, "MKVAW")] {
            let got: String = block.rows[r]
                .iter()
                .filter(|&&c| c != GAP_CODE)
                .map(|&c| bioseq::alphabet::code_to_char(c))
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn glue_two_identical_buckets_aligns_rows() {
        let bucket = msa(">a\nMKVLAW\n>b\nMKVLAW\n");
        let bucket2 = msa(">c\nMKVLAW\n>d\nMKVLAW\n");
        let anc = Sequence::from_str("GA", "MKVLAW").unwrap();
        let mut w = Work::ZERO;
        let b1 = anchor(&bucket, &anc, &mut w);
        let b2 = anchor(&bucket2, &anc, &mut w);
        let glued = glue_anchored(anc.len(), &[b1, b2], &mut w);
        glued.validate().unwrap();
        assert_eq!(glued.num_rows(), 4);
        assert_eq!(glued.num_cols(), 6);
        // Perfect cross-bucket identity.
        assert!((glued.average_identity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn glue_handles_private_inserts() {
        // Bucket 1 has an insertion (WWW) the ancestor lacks.
        let bucket1 = msa(">a\nMKVWWWLAW\n");
        let bucket2 = msa(">b\nMKVLAW\n");
        let anc = Sequence::from_str("GA", "MKVLAW").unwrap();
        let mut w = Work::ZERO;
        let b1 = anchor(&bucket1, &anc, &mut w);
        let b2 = anchor(&bucket2, &anc, &mut w);
        let glued = glue_anchored(anc.len(), &[b1, b2], &mut w);
        glued.validate().unwrap();
        assert_eq!(glued.ungapped(0).to_letters(), "MKVWWWLAW");
        assert_eq!(glued.ungapped(1).to_letters(), "MKVLAW");
        // The shared residues align: M with M in column 0.
        assert_eq!(glued.row(0)[0], glued.row(1)[0]);
    }

    #[test]
    fn block_diagonal_glue_shape() {
        let b1 = msa(">a\nMKV\n>b\nMKV\n");
        let b2 = msa(">c\nAWAW\n");
        let mut w = Work::ZERO;
        let glued = glue_block_diagonal(&[b1, b2], &mut w);
        glued.validate().unwrap();
        assert_eq!(glued.num_rows(), 3);
        assert_eq!(glued.num_cols(), 7);
        // Row c has gaps in the first 3 columns.
        assert!(glued.row(2)[..3].iter().all(|&c| c == GAP_CODE));
    }

    #[test]
    fn anchored_glue_beats_block_diagonal_on_sp() {
        let (mat, gaps) = setup();
        let bucket1 = msa(">a\nMKVLAW\n>b\nMKVLAW\n");
        let bucket2 = msa(">c\nMKVLAW\n>d\nMKVLAW\n");
        let anc = Sequence::from_str("GA", "MKVLAW").unwrap();
        let mut w = Work::ZERO;
        let anchored = glue_anchored(
            anc.len(),
            &[anchor(&bucket1, &anc, &mut w), anchor(&bucket2, &anc, &mut w)],
            &mut w,
        );
        let diagonal = glue_block_diagonal(&[bucket1, bucket2], &mut w);
        assert!(
            anchored.sp_score(&mat, gaps) > diagonal.sp_score(&mat, gaps),
            "ancestor fine-tuning must beat naive concatenation"
        );
    }

    #[test]
    fn seeded_anchoring_without_anchors_matches_unseeded() {
        // A spec too long to ever match degrades the seeded script to the
        // one whole-width profile DP — byte-identical blocks.
        let (mat, gaps) = setup();
        let local = msa(">a\nMKVLAWMKVLAW\n>b\nMKV-AWMKVLAW\n");
        let anc = Sequence::from_str("GA", "MKVAWMKVLAW").unwrap();
        let mut w1 = Work::ZERO;
        let plain = anchor(&local, &anc, &mut w1);
        let mut w2 = Work::ZERO;
        let seeded = anchor_to_ancestor_seeded(
            &local,
            &anc,
            &AnchorSpec { k: 64, ..Default::default() },
            &mat,
            gaps,
            DpOptions::default(),
            &mut DpArena::new(),
            &mut w2,
        );
        assert_eq!(plain, seeded);
    }

    #[test]
    fn seeded_anchoring_preserves_rows_and_anchor_count() {
        let (mat, gaps) = setup();
        // A long shared core so the consensus scan actually anchors.
        let core = "MKVLAWHEQRNDCGIFPSTYMKWHQRLAVE";
        let local = msa(&format!(">a\n{core}\n>b\n{core}\n"));
        let anc = Sequence::from_str("GA", core).unwrap();
        let mut w = Work::ZERO;
        let spec = AnchorSpec { k: 6, min_spacing: 8, min_confidence: 0.2 };
        let block = anchor_to_ancestor_seeded(
            &local,
            &anc,
            &spec,
            &mat,
            gaps,
            DpOptions::default(),
            &mut DpArena::new(),
            &mut w,
        );
        assert_eq!(block.ids, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(block.is_anchor.iter().filter(|&&a| a).count(), anc.len());
        for r in 0..2 {
            let got: String = block.rows[r]
                .iter()
                .filter(|&&c| c != GAP_CODE)
                .map(|&c| bioseq::alphabet::code_to_char(c))
                .collect();
            assert_eq!(got, core, "row {r} must ungap to its input");
        }
    }

    #[test]
    fn single_block_glue_is_identityish() {
        let bucket = msa(">a\nMKVLAW\n>b\nMKV-AW\n");
        let anc = Sequence::from_str("GA", "MKVLAW").unwrap();
        let mut w = Work::ZERO;
        let block = anchor(&bucket, &anc, &mut w);
        let glued = glue_anchored(anc.len(), &[block], &mut w);
        assert_eq!(glued.num_rows(), 2);
        for r in 0..2 {
            assert_eq!(glued.ungapped(r), bucket.ungapped(r));
        }
    }
}
