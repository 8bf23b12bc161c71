//! Weighted alignment profiles (sparse PSSM columns) and the
//! profile–profile substitution score (PSP).
//!
//! A profile summarises an alignment column-by-column: each column holds the
//! summed sequence weights of every residue occurring there plus the weight
//! of gaps. The PSP score between two columns is the expected (weighted)
//! sum-of-pairs substitution score
//! `Σ_a Σ_b w_A(a) · w_B(b) · S(a, b)`, which is what MUSCLE's
//! profile-alignment DP optimises.
//!
//! Every progressive merge, refinement step, consensus, anchor check and
//! glue window builds profiles, and half of them summarise a single row, so
//! the build is laid out for speed: one row-major pass over the alignment
//! accumulates into a dense `columns × (CODE_COUNT + 1)` scratch (the gap
//! code is the last slot) while marking each column's present codes in a
//! bitmask, and a second pass emits every column's residues in code order
//! from its set bits into one flat array. Each `(column, code)` sum still
//! receives its weights in row order, exactly as a column-by-column scan
//! would add them, so the weights are bit-identical to that scan's.

use bioseq::alphabet::{CODE_COUNT, GAP_CODE};
use bioseq::{Msa, SubstMatrix, Work};

/// Scratch slots per column: every residue code, then the gap code.
const SLOTS: usize = CODE_COUNT + 1;

/// Bits of a column's present-code mask that name residues (not the gap).
const RESIDUE_BITS: u32 = (1 << CODE_COUNT) - 1;

// The gap code is the slot after the last residue code.
const _: () = assert!(GAP_CODE as usize == CODE_COUNT);

/// One profile column, borrowed from its [`Profile`]: sparse residue
/// weights plus gap weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileColumn<'a> {
    /// `(residue code, summed weight)` sorted by code; no gap entries.
    pub residues: &'a [(u8, f64)],
    /// Summed weight of sequences with a gap in this column.
    pub gap_weight: f64,
}

impl ProfileColumn<'_> {
    /// Total residue (non-gap) weight.
    #[inline]
    pub fn residue_weight(&self) -> f64 {
        self.residues.iter().map(|&(_, w)| w).sum()
    }

    /// Whether every residue weight and the gap weight is an exact
    /// integer. Uniform (unweighted) profiles qualify; Henikoff and
    /// tree-derived weights generally do not. This is one leg of the
    /// striped DP kernel's f32-exactness audit
    /// ([`crate::dp::ColumnScorer::f32_compatible`]): integral weights
    /// times an integer substitution matrix keep every PSP term an exact
    /// integer.
    pub fn weights_integral(&self) -> bool {
        self.residues.iter().all(|&(_, w)| w.fract() == 0.0) && self.gap_weight.fract() == 0.0
    }

    /// Dense expected-score vector against a substitution matrix:
    /// `E[a] = Σ_b w(b) · S(a, b)`.
    pub fn expected_scores(&self, matrix: &SubstMatrix) -> [f64; CODE_COUNT] {
        let mut e = [0.0; CODE_COUNT];
        for &(b, w) in self.residues {
            let row = matrix.row(b);
            for (a, slot) in e.iter_mut().enumerate() {
                *slot += w * row[a] as f64;
            }
        }
        e
    }
}

/// A weighted profile over an alignment, stored flat: the residues of
/// every column in one array (each column's run sorted by code), per-column
/// offsets into it, and one gap weight per column. [`Profile::col`] hands
/// out a borrowed [`ProfileColumn`] view.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// `(residue code, summed weight)` of every column, concatenated.
    residues: Vec<(u8, f64)>,
    /// Column `i`'s residues are `residues[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    /// Summed weight of the sequences with a gap, per column.
    gap_weights: Vec<f64>,
    /// Sum of all sequence weights.
    pub total_weight: f64,
    /// Number of sequences summarised.
    pub n_seqs: usize,
}

impl Profile {
    /// Build a profile with explicit per-sequence weights, in one
    /// row-major pass over the alignment (see the module doc for why the
    /// weights are those of a column-by-column scan, bit for bit).
    ///
    /// # Panics
    /// Panics if `weights.len() != msa.num_rows()` or any weight is
    /// non-positive.
    pub fn from_msa_weighted(msa: &Msa, weights: &[f64], work: &mut Work) -> Profile {
        assert_eq!(weights.len(), msa.num_rows(), "one weight per row");
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        let ncols = msa.num_cols();
        let mut sums = vec![0.0f64; ncols * SLOTS];
        let mut present = vec![0u32; ncols];
        for (row, &w) in msa.rows().iter().zip(weights) {
            for ((cell, mask), &code) in sums.chunks_exact_mut(SLOTS).zip(&mut present).zip(row) {
                cell[code as usize] += w;
                *mask |= 1 << code;
            }
        }
        // Weights are positive, so the set bits are exactly the codes
        // whose summed weight is positive.
        let mut residues = Vec::new();
        let mut offsets = Vec::with_capacity(ncols + 1);
        let mut gap_weights = Vec::with_capacity(ncols);
        offsets.push(0);
        for (cell, &mask) in sums.chunks_exact(SLOTS).zip(&present) {
            let mut bits = mask & RESIDUE_BITS;
            while bits != 0 {
                let code = bits.trailing_zeros() as usize;
                residues.push((code as u8, cell[code]));
                bits &= bits - 1;
            }
            offsets.push(residues.len());
            gap_weights.push(cell[GAP_CODE as usize]);
        }
        work.col_ops += (ncols * msa.num_rows()) as u64;
        Profile {
            residues,
            offsets,
            gap_weights,
            total_weight: weights.iter().sum(),
            n_seqs: msa.num_rows(),
        }
    }

    /// Build with uniform unit weights.
    pub fn from_msa(msa: &Msa, work: &mut Work) -> Profile {
        let w = vec![1.0; msa.num_rows()];
        Self::from_msa_weighted(msa, &w, work)
    }

    /// Number of columns.
    #[inline]
    pub fn len(&self) -> usize {
        self.gap_weights.len()
    }

    /// Whether the profile has no columns (never true for valid MSAs).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gap_weights.is_empty()
    }

    /// Column `i`.
    #[inline]
    pub fn col(&self, i: usize) -> ProfileColumn<'_> {
        ProfileColumn {
            residues: &self.residues[self.offsets[i]..self.offsets[i + 1]],
            gap_weight: self.gap_weights[i],
        }
    }

    /// Every column, in order.
    pub fn columns(&self) -> impl ExactSizeIterator<Item = ProfileColumn<'_>> + '_ {
        (0..self.len()).map(|i| self.col(i))
    }

    /// PSP score between column `i` of `self` and column `j` of `other`.
    pub fn psp(&self, i: usize, other: &Profile, j: usize, matrix: &SubstMatrix) -> f64 {
        let cb = other.col(j);
        let mut s = 0.0;
        for &(a, wa) in self.col(i).residues {
            let row = matrix.row(a);
            for &(b, wb) in cb.residues {
                s += wa * wb * row[b as usize] as f64;
            }
        }
        s
    }
}

/// Henikoff & Henikoff (1994) position-based sequence weights, normalised
/// to mean 1. Columns that are all gaps (impossible for valid [`Msa`]s) or
/// single-residue contribute like any other.
///
/// Two row-major passes: the first counts every `(column, code)`, the
/// second adds each row's terms `1 / (distinct · count)` over the columns
/// in order — the order a column-by-column scan adds them in, so the
/// weights are bit-identical to that scan's. Gap cells add `+0.0`, which
/// leaves a non-negative sum's bits alone.
pub fn henikoff_weights(msa: &Msa, work: &mut Work) -> Vec<f64> {
    let n = msa.num_rows();
    if n == 1 {
        return vec![1.0];
    }
    let ncols = msa.num_cols();
    let mut counts = vec![0u32; ncols * SLOTS];
    for row in msa.rows() {
        for (cell, &code) in counts.chunks_exact_mut(SLOTS).zip(row) {
            cell[code as usize] += 1;
        }
    }
    let mut terms = vec![0.0f64; ncols * SLOTS];
    for (term, cell) in terms.chunks_exact_mut(SLOTS).zip(counts.chunks_exact(SLOTS)) {
        let distinct = cell[..CODE_COUNT].iter().filter(|&&k| k > 0).count();
        for (t, &k) in term[..CODE_COUNT].iter_mut().zip(cell) {
            if k > 0 {
                *t = 1.0 / (distinct as f64 * k as f64);
            }
        }
    }
    let mut weights: Vec<f64> = msa
        .rows()
        .iter()
        .map(|row| {
            let mut w = 0.0f64;
            for (term, &code) in terms.chunks_exact(SLOTS).zip(row) {
                w += term[code as usize];
            }
            w
        })
        .collect();
    work.col_ops += (ncols * n) as u64;
    // Normalise to mean 1; guard against degenerate all-zero weights.
    let mean = weights.iter().sum::<f64>() / n as f64;
    if mean > 0.0 {
        for w in weights.iter_mut() {
            *w /= mean;
        }
    } else {
        weights.iter_mut().for_each(|w| *w = 1.0);
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::alphabet::char_to_code;
    use bioseq::fasta;

    fn msa(text: &str) -> Msa {
        fasta::parse_alignment(text).unwrap()
    }

    fn c(ch: char) -> u8 {
        char_to_code(ch).unwrap()
    }

    #[test]
    fn profile_counts_residues_and_gaps() {
        let m = msa(">a\nMK-V\n>b\nMKIV\n>c\nM-IV\n");
        let mut w = Work::ZERO;
        let p = Profile::from_msa(&m, &mut w);
        assert_eq!(p.len(), 4);
        assert_eq!(p.n_seqs, 3);
        assert_eq!(p.total_weight, 3.0);
        // Column 0: three Ms.
        assert_eq!(p.col(0).residues, [(c('M'), 3.0)]);
        assert_eq!(p.col(0).gap_weight, 0.0);
        // Column 1: two Ks, one gap.
        assert_eq!(p.col(1).residues, [(c('K'), 2.0)]);
        assert_eq!(p.col(1).gap_weight, 1.0);
        assert!(w.col_ops > 0);
    }

    #[test]
    fn weights_integral_tracks_the_f32_exactness_leg() {
        let m = msa(">a\nMK-V\n>b\nMKIV\n>c\nM-IV\n");
        let mut w = Work::ZERO;
        // Uniform weights are exact integers in every column, including
        // the gapped ones.
        let uniform = Profile::from_msa(&m, &mut w);
        assert!(uniform.columns().all(|c| c.weights_integral()));
        // Doubling stays integral; any fractional weight breaks the
        // guarantee — residue or gap side alike.
        let doubled = Profile::from_msa_weighted(&m, &[2.0, 2.0, 2.0], &mut w);
        assert!(doubled.columns().all(|c| c.weights_integral()));
        let skewed = Profile::from_msa_weighted(&m, &[1.5, 1.0, 1.0], &mut w);
        assert!(!skewed.col(0).weights_integral(), "fractional residue weight");
        assert!(!skewed.col(2).weights_integral(), "fractional gap weight");
    }

    #[test]
    fn psp_matches_manual_sum() {
        let ma = msa(">a\nM\n>b\nK\n");
        let mb = msa(">c\nM\n");
        let mut w = Work::ZERO;
        let pa = Profile::from_msa(&ma, &mut w);
        let pb = Profile::from_msa(&mb, &mut w);
        let matrix = SubstMatrix::blosum62();
        let expect = (matrix.score(c('M'), c('M')) + matrix.score(c('K'), c('M'))) as f64;
        assert!((pa.psp(0, &pb, 0, &matrix) - expect).abs() < 1e-12);
    }

    #[test]
    fn psp_scales_with_weights() {
        let ma = msa(">a\nM\n");
        let mb = msa(">b\nM\n");
        let mut w = Work::ZERO;
        let pa = Profile::from_msa_weighted(&ma, &[2.0], &mut w);
        let pb = Profile::from_msa_weighted(&mb, &[3.0], &mut w);
        let matrix = SubstMatrix::blosum62();
        let expect = 6.0 * matrix.score(c('M'), c('M')) as f64;
        assert!((pa.psp(0, &pb, 0, &matrix) - expect).abs() < 1e-12);
    }

    #[test]
    fn expected_scores_agree_with_psp() {
        let ma = msa(">a\nMKV\n>b\nMKI\n");
        let mb = msa(">c\nMRV\n>d\nMKL\n");
        let mut w = Work::ZERO;
        let pa = Profile::from_msa(&ma, &mut w);
        let pb = Profile::from_msa(&mb, &mut w);
        let matrix = SubstMatrix::blosum62();
        for i in 0..3 {
            let e = pb.col(i).expected_scores(&matrix);
            let via_dense: f64 = pa.col(i).residues.iter().map(|&(a, wa)| wa * e[a as usize]).sum();
            let direct = pa.psp(i, &pb, i, &matrix);
            assert!((via_dense - direct).abs() < 1e-9, "col {i}");
        }
    }

    #[test]
    fn henikoff_weights_uniform_for_identical_rows() {
        let m = msa(">a\nMKVL\n>b\nMKVL\n>c\nMKVL\n");
        let mut w = Work::ZERO;
        let hw = henikoff_weights(&m, &mut w);
        for v in &hw {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn henikoff_upweights_the_outlier() {
        // Two near-identical rows plus one divergent row: the divergent row
        // must get the largest weight.
        let m = msa(">a\nMKVLMKVL\n>b\nMKVLMKVL\n>c\nWWPPGGCC\n");
        let mut w = Work::ZERO;
        let hw = henikoff_weights(&m, &mut w);
        assert!(hw[2] > hw[0]);
        assert!((hw[0] - hw[1]).abs() < 1e-12);
        // Mean normalised to 1.
        let mean = hw.iter().sum::<f64>() / 3.0;
        assert!((mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_row_weight_is_one() {
        let m = msa(">a\nMKVL\n");
        let mut w = Work::ZERO;
        assert_eq!(henikoff_weights(&m, &mut w), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "one weight per row")]
    fn weight_arity_checked() {
        let m = msa(">a\nMK\n>b\nMK\n");
        let mut w = Work::ZERO;
        Profile::from_msa_weighted(&m, &[1.0], &mut w);
    }
}
