//! Substitution matrices, gap penalties and background frequencies.
//!
//! Matrices are stored over the 21 sequence codes (20 amino acids + `X`) in
//! the canonical `ARNDCQEGHILKMFPSTWYV` order. Scores involving `X` are 0
//! (the BLAST convention of "no information").

use crate::alphabet::CODE_COUNT;

/// A symmetric residue substitution matrix in integer half-bit style units.
#[derive(Clone, PartialEq, Eq)]
pub struct SubstMatrix {
    /// Human-readable name, e.g. `"BLOSUM62"`.
    pub name: &'static str,
    scores: [[i32; CODE_COUNT]; CODE_COUNT],
}

impl std::fmt::Debug for SubstMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SubstMatrix({})", self.name)
    }
}

/// Raw BLOSUM62 scores over the 20 canonical residues (Henikoff & Henikoff
/// 1992), `ARNDCQEGHILKMFPSTWYV` order.
#[rustfmt::skip]
const BLOSUM62_RAW: [[i32; 20]; 20] = [
    [ 4,-1,-2,-2, 0,-1,-1, 0,-2,-1,-1,-1,-1,-2,-1, 1, 0,-3,-2, 0],
    [-1, 5, 0,-2,-3, 1, 0,-2, 0,-3,-2, 2,-1,-3,-2,-1,-1,-3,-2,-3],
    [-2, 0, 6, 1,-3, 0, 0, 0, 1,-3,-3, 0,-2,-3,-2, 1, 0,-4,-2,-3],
    [-2,-2, 1, 6,-3, 0, 2,-1,-1,-3,-4,-1,-3,-3,-1, 0,-1,-4,-3,-3],
    [ 0,-3,-3,-3, 9,-3,-4,-3,-3,-1,-1,-3,-1,-2,-3,-1,-1,-2,-2,-1],
    [-1, 1, 0, 0,-3, 5, 2,-2, 0,-3,-2, 1, 0,-3,-1, 0,-1,-2,-1,-2],
    [-1, 0, 0, 2,-4, 2, 5,-2, 0,-3,-3, 1,-2,-3,-1, 0,-1,-3,-2,-2],
    [ 0,-2, 0,-1,-3,-2,-2, 6,-2,-4,-4,-2,-3,-3,-2, 0,-2,-2,-3,-3],
    [-2, 0, 1,-1,-3, 0, 0,-2, 8,-3,-3,-1,-2,-1,-2,-1,-2,-2, 2,-3],
    [-1,-3,-3,-3,-1,-3,-3,-4,-3, 4, 2,-3, 1, 0,-3,-2,-1,-3,-1, 3],
    [-1,-2,-3,-4,-1,-2,-3,-4,-3, 2, 4,-2, 2, 0,-3,-2,-1,-2,-1, 1],
    [-1, 2, 0,-1,-3, 1, 1,-2,-1,-3,-2, 5,-1,-3,-1, 0,-1,-3,-2,-2],
    [-1,-1,-2,-3,-1, 0,-2,-3,-2, 1, 2,-1, 5, 0,-2,-1,-1,-1,-1, 1],
    [-2,-3,-3,-3,-2,-3,-3,-3,-1, 0, 0,-3, 0, 6,-4,-2,-2, 1, 3,-1],
    [-1,-2,-2,-1,-3,-1,-1,-2,-2,-3,-3,-1,-2,-4, 7,-1,-1,-4,-3,-2],
    [ 1,-1, 1, 0,-1, 0, 0, 0,-1,-2,-2, 0,-1,-2,-1, 4, 1,-3,-2,-2],
    [ 0,-1, 0,-1,-1,-1,-1,-2,-2,-1,-1,-1,-1,-2,-1, 1, 5,-2,-2, 0],
    [-3,-3,-4,-4,-2,-2,-3,-2,-2,-3,-2,-3,-1, 1,-4,-3,-2,11, 2,-3],
    [-2,-2,-2,-3,-2,-1,-2,-3, 2,-1,-1,-2,-1, 3,-3,-2,-2, 2, 7,-1],
    [ 0,-3,-3,-3,-1,-2,-2,-3,-3, 3, 1,-2, 1,-1,-2,-2, 0,-3,-1, 4],
];

/// Raw PAM250 scores (Dayhoff et al. 1978), `ARNDCQEGHILKMFPSTWYV` order.
#[rustfmt::skip]
const PAM250_RAW: [[i32; 20]; 20] = [
    [ 2,-2, 0, 0,-2, 0, 0, 1,-1,-1,-2,-1,-1,-3, 1, 1, 1,-6,-3, 0],
    [-2, 6, 0,-1,-4, 1,-1,-3, 2,-2,-3, 3, 0,-4, 0, 0,-1, 2,-4,-2],
    [ 0, 0, 2, 2,-4, 1, 1, 0, 2,-2,-3, 1,-2,-3, 0, 1, 0,-4,-2,-2],
    [ 0,-1, 2, 4,-5, 2, 3, 1, 1,-2,-4, 0,-3,-6,-1, 0, 0,-7,-4,-2],
    [-2,-4,-4,-5,12,-5,-5,-3,-3,-2,-6,-5,-5,-4,-3, 0,-2,-8, 0,-2],
    [ 0, 1, 1, 2,-5, 4, 2,-1, 3,-2,-2, 1,-1,-5, 0,-1,-1,-5,-4,-2],
    [ 0,-1, 1, 3,-5, 2, 4, 0, 1,-2,-3, 0,-2,-5,-1, 0, 0,-7,-4,-2],
    [ 1,-3, 0, 1,-3,-1, 0, 5,-2,-3,-4,-2,-3,-5, 0, 1, 0,-7,-5,-1],
    [-1, 2, 2, 1,-3, 3, 1,-2, 6,-2,-2, 0,-2,-2, 0,-1,-1,-3, 0,-2],
    [-1,-2,-2,-2,-2,-2,-2,-3,-2, 5, 2,-2, 2, 1,-2,-1, 0,-5,-1, 4],
    [-2,-3,-3,-4,-6,-2,-3,-4,-2, 2, 6,-3, 4, 2,-3,-3,-2,-2,-1, 2],
    [-1, 3, 1, 0,-5, 1, 0,-2, 0,-2,-3, 5, 0,-5,-1, 0, 0,-3,-4,-2],
    [-1, 0,-2,-3,-5,-1,-2,-3,-2, 2, 4, 0, 6, 0,-2,-2,-1,-4,-2, 2],
    [-3,-4,-3,-6,-4,-5,-5,-5,-2, 1, 2,-5, 0, 9,-5,-3,-3, 0, 7,-1],
    [ 1, 0, 0,-1,-3, 0,-1, 0, 0,-2,-3,-1,-2,-5, 6, 1, 0,-6,-5,-1],
    [ 1, 0, 1, 0, 0,-1, 0, 1,-1,-1,-3, 0,-2,-3, 1, 2, 1,-2,-3,-1],
    [ 1,-1, 0, 0,-2,-1, 0, 0,-1, 0,-2, 0,-1,-3, 0, 1, 3,-5,-3, 0],
    [-6, 2,-4,-7,-8,-5,-7,-7,-3,-5,-2,-3,-4, 0,-6,-2,-5,17, 0,-6],
    [-3,-4,-2,-4, 0,-4,-4,-5, 0,-1,-1,-4,-2, 7,-5,-3,-3, 0,10,-2],
    [ 0,-2,-2,-2,-2,-2,-2,-1,-2, 4, 2,-2, 2,-1,-1,-1, 0,-6,-2, 4],
];

impl SubstMatrix {
    fn from_raw(name: &'static str, raw: &[[i32; 20]; 20]) -> Self {
        let mut scores = [[0i32; CODE_COUNT]; CODE_COUNT];
        for (i, row) in raw.iter().enumerate() {
            for (j, &s) in row.iter().enumerate() {
                scores[i][j] = s;
            }
        }
        // X rows/cols stay 0.
        SubstMatrix { name, scores }
    }

    /// The BLOSUM62 matrix (default for protein alignment).
    pub fn blosum62() -> Self {
        Self::from_raw("BLOSUM62", &BLOSUM62_RAW)
    }

    /// The PAM250 matrix.
    pub fn pam250() -> Self {
        Self::from_raw("PAM250", &PAM250_RAW)
    }

    /// Score of substituting residue code `a` for `b`.
    #[inline]
    pub fn score(&self, a: u8, b: u8) -> i32 {
        self.scores[a as usize][b as usize]
    }

    /// Row of scores for residue `a` against all codes.
    #[inline]
    pub fn row(&self, a: u8) -> &[i32; CODE_COUNT] {
        &self.scores[a as usize]
    }

    /// Verify symmetry (used by tests and on construction of custom
    /// matrices).
    pub fn is_symmetric(&self) -> bool {
        for i in 0..CODE_COUNT {
            for j in 0..i {
                if self.scores[i][j] != self.scores[j][i] {
                    return false;
                }
            }
        }
        true
    }

    /// Build a joint substitution probability model from the log-odds
    /// scores: `q(a,b) ∝ p(a)·p(b)·exp(s(a,b)·λ)`, normalised so that
    /// `Σ q = 1`. Used by the rose-like generator to mutate residues in a
    /// matrix-consistent way. `lambda` is the inverse scale of the matrix
    /// (≈ `ln(2)/2` for half-bit matrices such as BLOSUM62).
    pub fn joint_probabilities(&self, lambda: f64) -> [[f64; 20]; 20] {
        let bg = BACKGROUND_FREQS;
        let mut q = [[0f64; 20]; 20];
        let mut total = 0.0;
        for a in 0..20 {
            for b in 0..20 {
                let v = bg[a] * bg[b] * (self.scores[a][b] as f64 * lambda).exp();
                q[a][b] = v;
                total += v;
            }
        }
        for row in q.iter_mut() {
            for v in row.iter_mut() {
                *v /= total;
            }
        }
        q
    }
}

/// Background amino-acid frequencies (Robinson & Robinson 1991 style),
/// `ARNDCQEGHILKMFPSTWYV` order. Sums to 1 after normalisation.
pub const BACKGROUND_FREQS: [f64; 20] = [
    0.0780, 0.0512, 0.0448, 0.0536, 0.0192, 0.0426, 0.0629, 0.0738, 0.0219, 0.0514, 0.0901, 0.0574,
    0.0224, 0.0385, 0.0520, 0.0712, 0.0584, 0.0132, 0.0321, 0.0653,
];

/// Affine gap penalties, expressed as non-negative costs in the same units
/// as the substitution matrix. A gap of length `g` costs `open + extend·(g-1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapPenalties {
    /// Cost of opening a gap (first gap position).
    pub open: i32,
    /// Cost of each subsequent gap position.
    pub extend: i32,
}

impl GapPenalties {
    /// Sensible defaults for BLOSUM62 in half-bit units.
    pub const fn blosum62_default() -> Self {
        GapPenalties { open: 11, extend: 1 }
    }

    /// Cost of a gap of the given length.
    #[inline]
    pub fn cost(&self, len: usize) -> i64 {
        if len == 0 {
            0
        } else {
            self.open as i64 + self.extend as i64 * (len as i64 - 1)
        }
    }
}

impl Default for GapPenalties {
    fn default() -> Self {
        Self::blosum62_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{char_to_code, X_CODE};

    fn c(ch: char) -> u8 {
        char_to_code(ch).unwrap()
    }

    #[test]
    fn blosum62_spot_checks() {
        let m = SubstMatrix::blosum62();
        assert_eq!(m.score(c('W'), c('W')), 11);
        assert_eq!(m.score(c('A'), c('A')), 4);
        assert_eq!(m.score(c('C'), c('C')), 9);
        assert_eq!(m.score(c('A'), c('W')), -3);
        assert_eq!(m.score(c('I'), c('V')), 3);
        assert_eq!(m.score(c('D'), c('E')), 2);
    }

    #[test]
    fn pam250_spot_checks() {
        let m = SubstMatrix::pam250();
        assert_eq!(m.score(c('W'), c('W')), 17);
        assert_eq!(m.score(c('C'), c('C')), 12);
        assert_eq!(m.score(c('F'), c('Y')), 7);
        assert_eq!(m.score(c('W'), c('C')), -8);
    }

    #[test]
    fn matrices_symmetric() {
        assert!(SubstMatrix::blosum62().is_symmetric());
        assert!(SubstMatrix::pam250().is_symmetric());
    }

    #[test]
    fn diagonal_dominates_row() {
        // For both matrices, the self-score is the maximum of each row over
        // the 20 canonical residues (a property alignment heuristics rely
        // on).
        for m in [SubstMatrix::blosum62(), SubstMatrix::pam250()] {
            for a in 0..20u8 {
                let diag = m.score(a, a);
                for b in 0..20u8 {
                    assert!(m.score(a, b) <= diag, "{}: row {a} col {b}", m.name);
                }
            }
        }
    }

    #[test]
    fn x_scores_zero() {
        let m = SubstMatrix::blosum62();
        for a in 0..=X_CODE {
            assert_eq!(m.score(a, X_CODE), 0);
            assert_eq!(m.score(X_CODE, a), 0);
        }
    }

    #[test]
    fn background_normalises() {
        let sum: f64 = BACKGROUND_FREQS.iter().sum();
        assert!((sum - 1.0).abs() < 0.01, "sum={sum}");
    }

    #[test]
    fn joint_probabilities_are_a_distribution() {
        let q = SubstMatrix::blosum62().joint_probabilities(std::f64::consts::LN_2 / 2.0);
        let total: f64 = q.iter().flatten().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Identical-residue mass should exceed the independent baseline.
        let diag: f64 = (0..20).map(|a| q[a][a]).sum();
        let indep: f64 = BACKGROUND_FREQS.iter().map(|p| p * p).sum();
        assert!(diag > indep, "diag={diag} indep={indep}");
    }

    #[test]
    fn gap_cost_affine() {
        let g = GapPenalties { open: 10, extend: 2 };
        assert_eq!(g.cost(0), 0);
        assert_eq!(g.cost(1), 10);
        assert_eq!(g.cost(2), 12);
        assert_eq!(g.cost(5), 18);
    }
}
