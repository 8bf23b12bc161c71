//! Ancestor-constrained fine-tuning and gluing (steps 7–8 of the
//! pipeline; the paper's Fig. 2).
//!
//! Every bucket's alignment is profile-aligned against the global ancestor
//! sequence, putting all buckets into a shared coordinate system: the
//! ancestor's columns are the anchors, and whatever a bucket inserts
//! relative to the ancestor falls into the insert slot before the next
//! anchor (or after the last one). The glue step interleaves the anchored
//! blocks: anchor columns are shared, and every slot is shared too, as
//! wide as the longest insert run any bucket has there, each run
//! left-justified and padded with gaps. That is what lets the paper "just
//! join" the tweaked sub-alignments, and it keeps the width at the
//! ancestor plus one slot's worth of inserts per ancestor column however
//! many buckets there are.

use crate::messages::AnchoredBlockMsg;
use align::anchor::{anchored_profile_ops, AnchorSpec};
use align::dp::ColOp;
use align::papro::align_profiles_with;
use align::{DpArena, DpOptions, Profile};
use bioseq::alphabet::GAP_CODE;
use bioseq::{GapPenalties, Msa, Sequence, SubstMatrix, Work};

/// Anchor one bucket's alignment to the global ancestor.
///
/// Returns the bucket's rows rewritten into "ancestor + inserts"
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
/// `Both`/`FromA` columns carry the bucket's residues (anchor/insert),
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
            // Insert relative to the ancestor.
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

/// Glue anchored blocks into one alignment. Anchor columns are shared
/// across blocks, and so are the insert slots between them: slot `g`
/// (before ancestor column `g`, or after the last one for
/// `g == ancestor_len`) is as wide as the longest run of insert columns
/// any block has there. Each block's run is copied left-justified into the
/// slot and padded with gaps, so within a block columns keep their order
/// and one-to-one mapping; only blocks that insert at the same slot meet
/// in its columns. The width before all-gap columns are dropped is
/// `ancestor_len + Σ_g max_b ins(b, g)`. Residue pairs within a block and
/// pairs across blocks at anchor columns are exactly the blocks' own; a
/// shared slot only adds cross-block pairs, so a reference pair score (Q)
/// cannot fall for sharing.
///
/// # Panics
/// Panics if blocks disagree on the number of anchor columns.
pub fn glue_anchored(ancestor_len: usize, blocks: &[AnchoredBlockMsg], work: &mut Work) -> Msa {
    assert!(!blocks.is_empty(), "nothing to glue");
    // Pass 1: every block's anchor positions, and every slot's width.
    let mut slots = vec![0usize; ancestor_len + 1];
    let anchors: Vec<Vec<usize>> = blocks
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let at: Vec<usize> = (0..b.is_anchor.len()).filter(|&c| b.is_anchor[c]).collect();
            assert_eq!(at.len(), ancestor_len, "block {i} has the wrong anchor count");
            let mut start = 0;
            for (slot, &c) in slots.iter_mut().zip(&at) {
                *slot = (*slot).max(c - start);
                start = c + 1;
            }
            slots[ancestor_len] = slots[ancestor_len].max(b.is_anchor.len() - start);
            at
        })
        .collect();
    let width = ancestor_len + slots.iter().sum::<usize>();

    // Pass 2: one copy plan per block, run on each of its rows.
    let total_rows: usize = blocks.iter().map(|b| b.rows.len()).sum();
    let mut ids = Vec::with_capacity(total_rows);
    let mut rows = Vec::with_capacity(total_rows);
    for (block, at) in blocks.iter().zip(&anchors) {
        let plan = copy_plan(at, block.is_anchor.len(), &slots);
        for (id, src) in block.ids.iter().zip(&block.rows) {
            let mut row = Vec::with_capacity(width);
            for &(from, to, gaps) in &plan {
                row.extend_from_slice(&src[from..to]);
                row.resize(row.len() + gaps, GAP_CODE);
            }
            debug_assert_eq!(row.len(), width);
            ids.push(id.clone());
            rows.push(row);
        }
    }
    work.col_ops += (width * total_rows) as u64;
    let mut msa = Msa::from_rows(ids, rows);
    // Anchor columns where every bucket was gapped can be all-gap.
    msa.drop_all_gap_columns();
    msa
}

/// A block's row layout in the glued alignment, as `(from, to, gaps)`
/// steps: copy source columns `from..to`, then append `gaps` gap cells.
/// `anchors` are the block's anchor columns out of `ncols`; each insert run
/// is padded to its slot width. Adjacent copies merge, so a block without
/// inserts against slots that are all empty is a single step.
fn copy_plan(anchors: &[usize], ncols: usize, slots: &[usize]) -> Vec<(usize, usize, usize)> {
    let mut plan: Vec<(usize, usize, usize)> = Vec::new();
    let mut push = |from: usize, to: usize, gaps: usize| match plan.last_mut() {
        Some(last) if last.1 == from && last.2 == 0 => {
            last.1 = to;
            last.2 = gaps;
        }
        _ => plan.push((from, to, gaps)),
    };
    let mut start = 0;
    for (&c, &slot) in anchors.iter().zip(slots) {
        push(start, c, slot - (c - start));
        push(c, c + 1, 0);
        start = c + 1;
    }
    push(start, ncols, slots[anchors.len()] - (ncols - start));
    plan
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
    use bioseq::compare::aligned_pairs;
    use bioseq::fasta;
    use proptest::prelude::*;

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

    /// A hand-built anchored block: `mask` marks anchor (`A`) and insert
    /// (`i`) columns of the gapped `rows`.
    fn block(rows: &str, mask: &str) -> AnchoredBlockMsg {
        let m = msa(rows);
        AnchoredBlockMsg {
            ids: m.ids().to_vec(),
            rows: (0..m.num_rows()).map(|r| m.row(r).to_vec()).collect(),
            is_anchor: mask.chars().map(|c| c == 'A').collect(),
        }
    }

    #[test]
    fn glue_shares_insert_slots() {
        // Both buckets insert before ancestor column 3 (3 and 2 residues):
        // one shared slot as wide as the longer run, runs left-justified.
        let b1 = block(">a\nMKVWWWLAW\n", "AAAiiiAAA");
        let b2 = block(">b\nMKVGGLAW\n>c\nMKV--LAW\n", "AAAiiAAA");
        let mut w = Work::ZERO;
        let glued = glue_anchored(6, &[b1, b2], &mut w);
        glued.validate().unwrap();
        assert_eq!(glued.num_cols(), 6 + 3);
        let letters = |r: usize| -> String {
            glued.row(r).iter().map(|&c| bioseq::alphabet::code_to_char(c)).collect()
        };
        assert_eq!(letters(0), "MKVWWWLAW");
        assert_eq!(letters(1), "MKVGG-LAW");
        assert_eq!(letters(2), "MKV---LAW");
        assert_eq!(w.col_ops, 9 * 3);
    }

    /// An anchored block over an ancestor of `anc_len` columns, drawn from
    /// the byte stream `raw`: a row count, an insert-run length for every
    /// slot, then the cells (about 2 in 5 gaps).
    fn random_block(anc_len: usize, raw: &[u8]) -> AnchoredBlockMsg {
        let mut raw = raw.iter().cycle().copied();
        let mut next = || raw.next().unwrap() as usize;
        let nrows = 1 + next() % 3;
        let ins: Vec<usize> = (0..=anc_len).map(|_| next() % 4).collect();
        let mut is_anchor = Vec::new();
        for (g, &n) in ins.iter().enumerate() {
            is_anchor.extend(std::iter::repeat_n(false, n));
            if g < anc_len {
                is_anchor.push(true);
            }
        }
        let rows: Vec<Vec<u8>> = (0..nrows)
            .map(|_| {
                let mut row: Vec<u8> = (0..is_anchor.len())
                    .map(|_| match next() {
                        v if v % 5 < 2 => GAP_CODE,
                        v => (v % 20) as u8,
                    })
                    .collect();
                if row.iter().all(|&c| c == GAP_CODE) {
                    row[0] = 0; // rows keep at least one residue
                }
                row
            })
            .collect();
        let ids = (0..nrows).map(|r| format!("r{r}")).collect();
        AnchoredBlockMsg { ids, rows, is_anchor }
    }

    /// Insert-run lengths of a block, one per slot.
    fn insert_runs(b: &AnchoredBlockMsg) -> Vec<usize> {
        let mut runs = vec![0];
        for &a in &b.is_anchor {
            if a {
                runs.push(0);
            } else {
                *runs.last_mut().unwrap() += 1;
            }
        }
        runs
    }

    /// For each anchor column of `b`, the index of row `r`'s residue
    /// there (`None` for a gap).
    fn anchor_residues(b: &AnchoredBlockMsg, r: usize) -> Vec<Option<u32>> {
        let mut next = 0u32;
        let mut out = Vec::new();
        for (&cell, &is_anchor) in b.rows[r].iter().zip(&b.is_anchor) {
            let residue = (cell != GAP_CODE).then_some(next);
            next += u32::from(residue.is_some());
            if is_anchor {
                out.push(residue);
            }
        }
        out
    }

    fn ungap(row: &[u8]) -> Vec<u8> {
        row.iter().copied().filter(|&c| c != GAP_CODE).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn glue_keeps_block_pairs_and_adds_cross_block_pairs(
            anc_len in 1usize..7,
            raw in prop::collection::vec(prop::collection::vec(0u8..255, 64..65), 1..4),
        ) {
            let blocks: Vec<AnchoredBlockMsg> =
                raw.iter().map(|r| random_block(anc_len, r)).collect();
            let mut w = Work::ZERO;
            let glued = glue_anchored(anc_len, &blocks, &mut w);
            glued.validate().unwrap();
            let total_rows: usize = blocks.iter().map(|b| b.rows.len()).sum();
            prop_assert_eq!(glued.num_rows(), total_rows);

            // Pre-drop width: the ancestor plus each slot's longest run.
            let runs: Vec<Vec<usize>> = blocks.iter().map(insert_runs).collect();
            let slots: usize =
                (0..=anc_len).map(|g| runs.iter().map(|r| r[g]).max().unwrap()).sum();
            prop_assert_eq!(w.col_ops, ((anc_len + slots) * total_rows) as u64);
            prop_assert!(glued.num_cols() <= anc_len + slots);

            // (block, row in block, row in the glued alignment)
            let mut at = Vec::new();
            for (bi, b) in blocks.iter().enumerate() {
                for r in 0..b.rows.len() {
                    at.push((bi, r, at.len()));
                }
            }
            for &(bi, r, x) in &at {
                prop_assert_eq!(glued.ungapped(x).codes().to_vec(), ungap(&blocks[bi].rows[r]));
            }
            for &(bi, r, x) in &at {
                for &(bj, s, y) in &at {
                    let got = aligned_pairs(glued.row(x), glued.row(y));
                    let (a, b) = (&blocks[bi], &blocks[bj]);
                    if bi == bj {
                        prop_assert_eq!(got, aligned_pairs(&a.rows[r], &a.rows[s]));
                        continue;
                    }
                    // Residues sharing an anchor column stay paired.
                    let anchored = anchor_residues(a, r).into_iter().zip(anchor_residues(b, s));
                    for pair in anchored {
                        if let (Some(p), Some(q)) = pair {
                            prop_assert!(got.contains(&(p, q)), "anchor pair {:?} lost", (p, q));
                        }
                    }
                }
            }
        }
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
