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

    /// Every row's stored entries as disjoint slices: slice `i` holds
    /// `d(i, 0..i)` (row 0 is empty), so rows can be filled in parallel.
    pub fn rows_mut(&mut self) -> Vec<&mut [f64]> {
        let mut rest = self.tri.as_mut_slice();
        (0..self.n)
            .map(|i| {
                let (row, tail) = std::mem::take(&mut rest).split_at_mut(i);
                rest = tail;
                row
            })
            .collect()
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
    }

    #[test]
    fn rows_mut_are_the_rows_get_reads() {
        let mut m = DistMatrix::zeros(4);
        let rows = m.rows_mut();
        assert_eq!(rows.iter().map(|r| r.len()).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        for (i, row) in rows.into_iter().enumerate() {
            for (j, d) in row.iter_mut().enumerate() {
                *d = (i * 10 + j) as f64;
            }
        }
        assert_eq!(m, DistMatrix::from_fn(4, |i, j| (i * 10 + j) as f64));
        assert!(DistMatrix::zeros(1).rows_mut()[0].is_empty());
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
        assert_eq!(m.mean(), 0.0);
    }
}
