//! Conserved-anchor detection by colinear k-mer chaining.
//!
//! The vertical (length-wise) decomposition of `sad_core::decomp` needs
//! columns that are *certainly* homologous across every sequence before any
//! alignment exists: positions where all rows share an exact k-mer that is
//! unique within each row. Chaining those occurrences colinearly — strictly
//! increasing in every row, with a minimum spacing — yields cut points at
//! which the sequence set can be sliced into independently alignable blocks.
//!
//! The same scan seeds profile–profile merges: [`anchored_profile_ops`]
//! pins conserved consensus columns of two alignments as [`ColOp::Both`]
//! runs and runs the affine-gap DP only on the stretches in between.

use crate::dp::{ColOp, DpArena, DpOptions};
use crate::papro::align_profiles_with;
use crate::profile::Profile;
use bioseq::alphabet::GAP_CODE;
use bioseq::{GapPenalties, Msa, SubstMatrix, Work};
use std::collections::HashMap;

/// Parameters of the anchor scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnchorSpec {
    /// Exact-match k-mer length; anchors span exactly `k` residues.
    pub k: usize,
    /// Minimum distance (in residues, per sequence) between the start of
    /// one chained anchor and the start of the next. Clamped up to `k` so
    /// anchors never overlap.
    pub min_spacing: usize,
    /// Minimum positional-agreement confidence in `[0, 1]`; candidates
    /// whose relative positions disagree more than `1 - min_confidence`
    /// across sequences are rejected.
    pub min_confidence: f64,
}

impl Default for AnchorSpec {
    fn default() -> Self {
        AnchorSpec { k: 8, min_spacing: 32, min_confidence: 0.5 }
    }
}

/// One conserved anchor: the k-mer's start position in every row, plus a
/// confidence score.
#[derive(Debug, Clone, PartialEq)]
pub struct Anchor {
    /// Start position of the shared k-mer in each input row (same order as
    /// the rows passed to [`scan_anchors`]).
    pub positions: Vec<usize>,
    /// `1 - (max - min)` spread of the anchor's relative position across
    /// rows; `1.0` means the k-mer sits at the same fractional offset in
    /// every sequence.
    pub confidence: f64,
}

/// Find conserved anchors across `rows` (raw residue codes, no gaps).
///
/// An anchor is a k-mer that occurs **exactly once in every row**, never at
/// position 0 (so the block before it is non-empty), with relative-position
/// spread within `spec.min_confidence`. Candidates are chained greedily and
/// colinearly: each kept anchor starts at least `max(k, min_spacing)`
/// residues after the previous one *in every row*, so anchors never overlap
/// and cut points are strictly increasing everywhere.
///
/// Returns anchors ordered by position in `rows[0]`; `positions` has one
/// entry per input row. Scanning cost is charged to `work.kmer_ops`.
pub fn scan_anchors(rows: &[&[u8]], spec: &AnchorSpec, work: &mut Work) -> Vec<Anchor> {
    let k = spec.k.max(1);
    if rows.is_empty() || rows.iter().any(|r| r.len() < k + 1) {
        return Vec::new();
    }
    // Occurrence maps for rows 1.. : k-mer -> (count, first position).
    let mut maps: Vec<HashMap<&[u8], (u32, usize)>> = Vec::with_capacity(rows.len() - 1);
    for row in &rows[1..] {
        let mut map: HashMap<&[u8], (u32, usize)> = HashMap::new();
        for start in 0..=row.len() - k {
            let entry = map.entry(&row[start..start + k]).or_insert((0, start));
            entry.0 += 1;
        }
        work.kmer_ops += (row.len() - k + 1) as u64;
        maps.push(map);
    }
    // Multiplicity of every k-mer in row 0.
    let row0 = rows[0];
    let mut counts0: HashMap<&[u8], u32> = HashMap::new();
    for start in 0..=row0.len() - k {
        *counts0.entry(&row0[start..start + k]).or_insert(0) += 1;
    }
    work.kmer_ops += (row0.len() - k + 1) as u64;

    // Candidates in row-0 order, then a greedy colinear chain.
    let spacing = spec.min_spacing.max(k);
    let mut anchors: Vec<Anchor> = Vec::new();
    'candidates: for start in 1..=row0.len() - k {
        let word = &row0[start..start + k];
        if counts0[word] != 1 {
            continue;
        }
        let mut positions = Vec::with_capacity(rows.len());
        positions.push(start);
        for map in &maps {
            match map.get(word) {
                Some(&(1, pos)) if pos >= 1 => positions.push(pos),
                _ => continue 'candidates,
            }
        }
        // Colinearity + spacing against the previously kept anchor.
        if let Some(last) = anchors.last() {
            let ok =
                positions.iter().zip(&last.positions).all(|(&pos, &prev)| pos >= prev + spacing);
            if !ok {
                continue;
            }
        }
        // Positional agreement across rows, on a 0..1 relative scale.
        let rel: Vec<f64> = positions
            .iter()
            .zip(rows)
            .map(|(&pos, row)| pos as f64 / (row.len() - k) as f64)
            .collect();
        let spread = rel.iter().cloned().fold(f64::MIN, f64::max)
            - rel.iter().cloned().fold(f64::MAX, f64::min);
        let confidence = (1.0 - spread).clamp(0.0, 1.0);
        if confidence < spec.min_confidence {
            continue;
        }
        anchors.push(Anchor { positions, confidence });
    }
    anchors
}

/// Per-column majority consensus of an alignment: the most frequent
/// non-gap code in each column (smallest code on ties), [`GAP_CODE`] for
/// all-gap columns. Cost is charged to `work.col_ops`.
pub fn column_consensus(msa: &Msa, work: &mut Work) -> Vec<u8> {
    let cols = msa.num_cols();
    let mut out = Vec::with_capacity(cols);
    let mut counts = [0u32; 22];
    for c in 0..cols {
        counts.fill(0);
        for row in msa.rows() {
            let code = row[c];
            if code != GAP_CODE {
                counts[code as usize] += 1;
            }
        }
        let (best, n) =
            counts.iter().enumerate().max_by_key(|&(i, &n)| (n, usize::MAX - i)).expect("counts");
        out.push(if *n == 0 { GAP_CODE } else { best as u8 });
    }
    work.col_ops += (cols * msa.num_rows()) as u64;
    out
}

/// Column slice `lo..hi` of an alignment, keeping only rows with at least
/// one residue in the window (gappy fragment stacks routinely have rows
/// that are entirely gaps inside a segment, which a well-formed [`Msa`]
/// cannot carry — and an absent fragment shouldn't weight the segment's
/// profile anyway). At least one row always survives because no parent
/// column is all-gap.
fn slice_columns(msa: &Msa, lo: usize, hi: usize) -> Msa {
    let mut ids = Vec::new();
    let mut rows = Vec::new();
    for (id, row) in msa.ids().iter().zip(msa.rows()) {
        if row[lo..hi].iter().any(|&c| c != GAP_CODE) {
            ids.push(id.clone());
            rows.push(row[lo..hi].to_vec());
        }
    }
    Msa::from_rows(ids, rows)
}

/// Anchor-seeded profile merge script for two alignments.
///
/// Scans the column consensus of `a` against the column consensus of `b`
/// for conserved anchors, pins each anchor's `k` columns as
/// [`ColOp::Both`], and aligns the inter-anchor stretches independently
/// with the usual affine-gap profile DP. With zero anchors this reduces
/// exactly to one whole-width profile alignment.
///
/// The returned script consumes every column of `a` and of `b` exactly
/// once, so it can be fed straight to [`crate::papro::merge_msas`].
#[allow(clippy::too_many_arguments)]
pub fn anchored_profile_ops(
    a: &Msa,
    b: &Msa,
    spec: &AnchorSpec,
    matrix: &SubstMatrix,
    gaps: GapPenalties,
    dp: DpOptions,
    arena: &mut DpArena,
    work: &mut Work,
) -> Vec<ColOp> {
    let ca = column_consensus(a, work);
    let cb = column_consensus(b, work);
    let anchors = scan_anchors(&[&ca, &cb], spec, work);
    let k = spec.k.max(1);

    let mut ops: Vec<ColOp> = Vec::with_capacity(ca.len().max(cb.len()));
    let mut segment = |ops: &mut Vec<ColOp>,
                       a_lo: usize,
                       a_hi: usize,
                       b_lo: usize,
                       b_hi: usize,
                       work: &mut Work| {
        match (a_hi > a_lo, b_hi > b_lo) {
            (false, false) => {}
            (true, false) => ops.extend(std::iter::repeat_n(ColOp::FromA, a_hi - a_lo)),
            (false, true) => ops.extend(std::iter::repeat_n(ColOp::FromB, b_hi - b_lo)),
            (true, true) => {
                let pa = Profile::from_msa(&slice_columns(a, a_lo, a_hi), work);
                let pb = Profile::from_msa(&slice_columns(b, b_lo, b_hi), work);
                let aln = align_profiles_with(&pa, &pb, matrix, gaps, dp, arena);
                *work += aln.work;
                ops.extend(aln.ops);
            }
        }
    };

    let (mut ia, mut ib) = (0usize, 0usize);
    for anchor in &anchors {
        let (pa, pb) = (anchor.positions[0], anchor.positions[1]);
        segment(&mut ops, ia, pa, ib, pb, work);
        ops.extend(std::iter::repeat_n(ColOp::Both, k));
        ia = pa + k;
        ib = pb + k;
    }
    segment(&mut ops, ia, a.num_cols(), ib, b.num_cols(), work);
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::papro::merge_msas;

    fn seq(codes: &[u8]) -> Vec<u8> {
        codes.to_vec()
    }

    #[test]
    fn identical_rows_yield_spaced_colinear_anchors() {
        // 0..20 repeated gives unique k-mers everywhere except the period.
        let row: Vec<u8> = (0..200u32).map(|i| ((i * 7 + i / 20) % 20) as u8).collect();
        let rows: Vec<&[u8]> = vec![&row, &row, &row];
        let spec = AnchorSpec { k: 6, min_spacing: 20, min_confidence: 0.5 };
        let mut work = Work::ZERO;
        let anchors = scan_anchors(&rows, &spec, &mut work);
        assert!(!anchors.is_empty(), "identical rows must anchor");
        assert!(work.kmer_ops > 0);
        let mut prev: Option<&Anchor> = None;
        for a in &anchors {
            assert_eq!(a.positions.len(), 3);
            assert!(a.positions.iter().all(|&p| a.positions[0] == p));
            assert!(a.positions[0] >= 1);
            assert!((0.0..=1.0).contains(&a.confidence));
            assert!(a.confidence >= spec.min_confidence);
            if let Some(p) = prev {
                assert!(a.positions[0] >= p.positions[0] + spec.min_spacing.max(spec.k));
            }
            prev = Some(a);
        }
    }

    #[test]
    fn disjoint_alphabets_yield_no_anchors() {
        let a: Vec<u8> = (0..80).map(|i| (i % 5) as u8).collect();
        let b: Vec<u8> = (0..80).map(|i| (5 + i % 5) as u8).collect();
        let mut work = Work::ZERO;
        let anchors = scan_anchors(&[&a, &b], &AnchorSpec::default(), &mut work);
        assert!(anchors.is_empty());
    }

    #[test]
    fn short_rows_degrade_to_no_anchors() {
        let a = seq(&[1, 2, 3]);
        let mut work = Work::ZERO;
        let anchors =
            scan_anchors(&[&a, &a], &AnchorSpec { k: 8, ..Default::default() }, &mut work);
        assert!(anchors.is_empty());
    }

    #[test]
    fn consensus_picks_majority_and_marks_all_gap() {
        let msa = Msa::from_rows(
            vec!["a".into(), "b".into(), "c".into()],
            vec![vec![1, GAP_CODE, 4], vec![1, GAP_CODE, 5], vec![2, GAP_CODE, 5]],
        );
        let mut work = Work::ZERO;
        assert_eq!(column_consensus(&msa, &mut work), vec![1, GAP_CODE, 5]);
        assert!(work.col_ops > 0);
    }

    #[test]
    fn anchored_ops_consume_both_alignments_exactly() {
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties::default();
        let core: Vec<u8> = (0..120u32).map(|i| ((i * 11 + i / 13) % 20) as u8).collect();
        let mut r1 = seq(&[3, 3, 3]);
        r1.extend_from_slice(&core);
        let mut r2 = core.clone();
        r2.extend_from_slice(&[4, 4]);
        let a = Msa::from_rows(vec!["a".into()], vec![r1]);
        let b = Msa::from_rows(vec!["b".into()], vec![r2]);
        let spec = AnchorSpec { k: 6, min_spacing: 16, min_confidence: 0.2 };
        let mut work = Work::ZERO;
        let ops = anchored_profile_ops(
            &a,
            &b,
            &spec,
            &matrix,
            gaps,
            crate::dp::BandPolicy::Full.into(),
            &mut DpArena::new(),
            &mut work,
        );
        assert!(ops.iter().filter(|&&op| op == ColOp::Both).count() >= spec.k);
        // merge_msas panics unless the script consumes a and b exactly.
        let merged = merge_msas(&a, &b, &ops, &mut work);
        assert_eq!(merged.num_rows(), 2);
    }
}
