//! Regular sampling and pivot selection (shared by the distributed and
//! shared-memory sorters).

use bioseq::Work;

/// The `n log₂ n` comparison work of one sort pass, zero below two items.
/// Every sorter in the workspace (distributed PSRS, the shared-memory
/// partitioner, the pipeline backends) charges this one formula so the
/// unified per-phase reports stay comparable across substrates.
pub fn sort_work(n: usize) -> Work {
    if n > 1 {
        Work::sort((n as f64 * (n as f64).log2()).ceil() as u64)
    } else {
        Work::ZERO
    }
}

/// Positions of `k` evenly spaced interior samples in a sorted run of `n`
/// items (regular sampling): `(i+1)·n/(k+1)` for `i < k`. Yields fewer than
/// `k` positions when the run is shorter than `k`, none when it is empty.
/// The one copy of the formula: key sampling below and the pipeline's
/// sequence sampling (step 3) both draw from it.
pub fn regular_positions(n: usize, k: usize) -> impl Iterator<Item = usize> {
    let k = k.min(n);
    (0..k).map(move |i| (((i + 1) * n) / (k + 1)).min(n - 1))
}

/// Choose `k` evenly spaced sample keys from a **sorted** slice (regular
/// sampling). Returns fewer than `k` samples when the slice is shorter
/// than `k`.
pub fn regular_samples(sorted_keys: &[f64], k: usize) -> Vec<f64> {
    regular_positions(sorted_keys.len(), k).map(|i| sorted_keys[i]).collect()
}

/// Select `p − 1` pivots from the gathered sample (unsorted input; sorted
/// internally). Matches the paper's rule of taking every `p`-th element of
/// the sorted sample offset by `p/2` when the sample has the canonical
/// `p(p−1)` size, and degrades gracefully for other sizes.
pub fn select_pivots(mut samples: Vec<f64>, p: usize) -> Vec<f64> {
    assert!(p >= 1, "need at least one partition");
    if p == 1 || samples.is_empty() {
        return Vec::new();
    }
    samples.sort_by(f64::total_cmp);
    let m = samples.len();
    (1..p)
        .map(|i| {
            // Position i·m/p shifted half a stride back: the paper's
            // Y_{p/2 + (i−1)p} for m = p(p−1).
            let idx = (i * m) / p;
            let idx = idx.saturating_sub(m / (2 * p)).min(m - 1);
            samples[idx]
        })
        .collect()
}

/// Partition items into `pivots.len() + 1` buckets by key: bucket `i`
/// receives keys in `(pivots[i−1], pivots[i]]`-ish ranges (keys ≤
/// `pivots[0]` go to bucket 0, keys > last pivot to the last bucket).
/// `pivots` must be sorted.
pub fn bucket_of(key: f64, pivots: &[f64]) -> usize {
    // Binary search for the first pivot >= key.
    let mut lo = 0usize;
    let mut hi = pivots.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        if key <= pivots[mid] {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Shi & Schaeffer's load bound: with regular sampling over `n` items and
/// `p` partitions (all keys distinct), no partition exceeds `2·n/p` items.
/// Returns that bound (callers assert their observed maximum against it,
/// with slack for duplicate keys).
pub fn max_partition_bound(n: usize, p: usize) -> usize {
    if p == 0 {
        return n;
    }
    2 * n.div_ceil(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_samples_even_spacing() {
        let keys: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s = regular_samples(&keys, 3);
        assert_eq!(s, vec![25.0, 50.0, 75.0]);
    }

    #[test]
    fn regular_samples_short_input() {
        let keys = [1.0, 2.0];
        assert_eq!(regular_samples(&keys, 5).len(), 2);
        assert!(regular_samples(&[], 3).is_empty());
        assert!(regular_samples(&keys, 0).is_empty());
    }

    #[test]
    fn pivots_split_uniform_range_evenly() {
        let samples: Vec<f64> = (0..120).map(|i| i as f64).collect();
        let pivots = select_pivots(samples, 4);
        assert_eq!(pivots.len(), 3);
        // Roughly at 1/4, 2/4, 3/4 of the range.
        assert!((pivots[0] - 30.0).abs() <= 16.0, "{pivots:?}");
        assert!((pivots[1] - 60.0).abs() <= 16.0, "{pivots:?}");
        assert!((pivots[2] - 90.0).abs() <= 16.0, "{pivots:?}");
        // Sorted.
        assert!(pivots.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn pivots_trivial_cases() {
        assert!(select_pivots(vec![1.0, 2.0], 1).is_empty());
        assert!(select_pivots(vec![], 4).is_empty());
        let one = select_pivots(vec![5.0], 3);
        assert_eq!(one.len(), 2);
        assert!(one.iter().all(|&v| v == 5.0));
    }

    #[test]
    fn bucket_of_boundaries() {
        let pivots = [10.0, 20.0, 30.0];
        assert_eq!(bucket_of(5.0, &pivots), 0);
        assert_eq!(bucket_of(10.0, &pivots), 0); // <= pivot goes left
        assert_eq!(bucket_of(10.5, &pivots), 1);
        assert_eq!(bucket_of(20.0, &pivots), 1);
        assert_eq!(bucket_of(30.0, &pivots), 2);
        assert_eq!(bucket_of(31.0, &pivots), 3);
        assert_eq!(bucket_of(7.0, &[]), 0);
    }

    #[test]
    fn bucket_of_is_monotone() {
        let pivots = [1.0, 2.0, 3.0, 4.0];
        let mut prev = 0;
        for i in 0..60 {
            let k = i as f64 * 0.1;
            let b = bucket_of(k, &pivots);
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn bound_is_twice_share() {
        assert_eq!(max_partition_bound(1000, 4), 500);
        assert_eq!(max_partition_bound(10, 3), 8);
        assert_eq!(max_partition_bound(5, 0), 5);
    }
}
