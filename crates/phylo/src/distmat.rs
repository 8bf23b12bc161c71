//! Compact symmetric distance matrices.

/// A symmetric `n × n` distance matrix storing only the strict lower
/// triangle (`d(i,i) = 0` implicitly).
#[derive(Debug, Clone, PartialEq)]
pub struct DistMatrix {
    n: usize,
    /// Lower-triangle entries: row i (i>0) holds `d(i,0..i)` at offset
    /// `i(i-1)/2`.
    tri: Vec<f64>,
}

impl DistMatrix {
    /// A zero matrix of side `n`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn zeros(n: usize) -> Self {
        assert!(n > 0, "matrix must have at least one element");
        DistMatrix { n, tri: vec![0.0; n * (n - 1) / 2] }
    }

    /// Build from a function of index pairs (called once per unordered
    /// pair, `i > j`).
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(n);
        for i in 1..n {
            for j in 0..i {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i != j && i < self.n && j < self.n);
        let (hi, lo) = if i > j { (i, j) } else { (j, i) };
        hi * (hi - 1) / 2 + lo
    }

    /// Matrix side length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false (matrices have at least one element).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Distance between `i` and `j` (zero on the diagonal).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if i == j {
            0.0
        } else {
            self.tri[self.idx(i, j)]
        }
    }

    /// Set the distance between distinct indices `i` and `j`.
    ///
    /// # Panics
    /// Panics if `i == j`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i != j, "diagonal is fixed at zero");
        let at = self.idx(i, j);
        self.tri[at] = v;
    }

    /// Mean of all off-diagonal entries.
    pub fn mean(&self) -> f64 {
        if self.tri.is_empty() {
            0.0
        } else {
            self.tri.iter().sum::<f64>() / self.tri.len() as f64
        }
    }

    /// Maximum off-diagonal entry (0 for 1×1 matrices).
    pub fn max(&self) -> f64 {
        self.tri.iter().copied().fold(0.0, f64::max)
    }

    /// Number of stored (off-diagonal) entries.
    pub fn num_pairs(&self) -> usize {
        self.tri.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_access() {
        let mut m = DistMatrix::zeros(4);
        m.set(2, 1, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.get(2, 1), 5.0);
        assert_eq!(m.get(3, 3), 0.0);
    }

    #[test]
    fn from_fn_fills_all_pairs() {
        let m = DistMatrix::from_fn(3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.get(1, 0), 10.0);
        assert_eq!(m.get(2, 0), 20.0);
        assert_eq!(m.get(2, 1), 21.0);
        assert_eq!(m.num_pairs(), 3);
    }

    #[test]
    fn mean_and_max() {
        let m = DistMatrix::from_fn(3, |i, j| (i + j) as f64);
        // entries: d(1,0)=1, d(2,0)=2, d(2,1)=3
        assert!((m.mean() - 2.0).abs() < 1e-12);
        assert_eq!(m.max(), 3.0);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn setting_diagonal_panics() {
        DistMatrix::zeros(2).set(1, 1, 3.0);
    }

    #[test]
    fn single_element() {
        let m = DistMatrix::zeros(1);
        assert_eq!(m.len(), 1);
        assert_eq!(m.num_pairs(), 0);
        assert_eq!(m.mean(), 0.0);
    }
}
