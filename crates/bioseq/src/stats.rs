//! Tiny statistics helpers for the evaluation harness (Table 1, Fig. 1,
//! Fig. 3 of the paper).

/// Five-number-ish summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population variance.
    pub variance: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

impl Summary {
    /// Summarise a sample. Returns `None` for empty input.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let n = values.len();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        let mean = sum / n as f64;
        let variance = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        Some(Summary { n, min, max, mean, variance, stddev: variance.sqrt() })
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} min={:.5} max={:.5} mean={:.5} var={:.5} sd={:.5}",
            self.n, self.min, self.max, self.mean, self.variance, self.stddev
        )
    }
}

/// Mean squared difference of `a` relative to `b` (the paper's "variance
/// w.r.t. centralized") together with its square root.
///
/// Returns `None` when the slices differ in length or are empty.
pub fn variance_wrt(a: &[f64], b: &[f64]) -> Option<(f64, f64)> {
    if a.len() != b.len() || a.is_empty() {
        return None;
    }
    let var = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64;
    Some((var, var.sqrt()))
}

/// A fixed-width histogram over `[lo, hi)` with `bins` buckets; values
/// outside the range are clamped into the terminal buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive lower bound of the first bin.
    pub lo: f64,
    /// Exclusive upper bound of the last bin.
    pub hi: f64,
    /// Per-bin counts.
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Build a histogram of `values`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn build(values: &[f64], lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(bins > 0, "need at least one bin");
        assert!(hi > lo, "hi must exceed lo");
        let mut counts = vec![0u64; bins];
        let width = (hi - lo) / bins as f64;
        for &v in values {
            let idx = (((v - lo) / width).floor() as i64).clamp(0, bins as i64 - 1) as usize;
            counts[idx] += 1;
        }
        Histogram { lo, hi, counts }
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.n, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean, 2.5);
        assert!((s.variance - 1.25).abs() < 1e-12);
        assert!((s.stddev - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_empty() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_constant() {
        let s = Summary::of(&[7.0; 10]).unwrap();
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.min, s.max);
    }

    #[test]
    fn variance_wrt_basics() {
        let (v, sd) = variance_wrt(&[1.0, 2.0], &[0.0, 0.0]).unwrap();
        assert!((v - 2.5).abs() < 1e-12);
        assert!((sd - 2.5f64.sqrt()).abs() < 1e-12);
        assert!(variance_wrt(&[1.0], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn histogram_counts_and_clamping() {
        let h = Histogram::build(&[0.1, 0.1, 0.9, -5.0, 5.0], 0.0, 1.0, 2);
        assert_eq!(h.counts, vec![3, 2]); // -5 clamps low, 5 clamps high
        assert_eq!(h.total(), 5);
    }
}
