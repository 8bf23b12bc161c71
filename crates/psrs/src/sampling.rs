//! The three stages of one PSRS round, written once: regular-sample each
//! sorted run ([`sample_keys`]), pick the pivots at the root
//! ([`pivots_of`]), and cut every run at them ([`split_at_pivots`]).
//! Step 6's redistribution over `Comm` and step 7's shared-memory
//! partitioner both run exactly these.

use bioseq::Work;

/// The `n log₂ n` comparison work of one sort pass, zero below two items.
/// Every sorter in the workspace (the pipeline's step 6 on both
/// substrates, the shared-memory partitioner, the local sorts) charges
/// this one formula so the per-phase reports stay comparable.
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
/// The one copy of the formula: [`sample_keys`] and the pipeline's
/// sequence sampling (step 3) both draw from it.
pub fn regular_positions(n: usize, k: usize) -> impl Iterator<Item = usize> {
    let k = k.min(n);
    (0..k).map(move |i| (((i + 1) * n) / (k + 1)).min(n - 1))
}

/// The keys of `k` regular samples of one run **sorted** by `key`. Returns
/// fewer than `k` keys when the run is shorter than `k`. Only these keys
/// travel to the root (the paper: "send only their ranks to a root
/// processor").
pub fn sample_keys<T>(sorted: &[T], k: usize, key: impl Fn(&T) -> f64) -> Vec<f64> {
    regular_positions(sorted.len(), k).map(|i| key(&sorted[i])).collect()
}

/// The root's stage: pool every run's [`sample_keys`], sort them and pick
/// `p − 1` pivots ([`select_pivots`]). Also returns the [`Work`] of that
/// sort, which the root alone is charged.
pub fn pivots_of(samples: Vec<Vec<f64>>, p: usize) -> (Vec<f64>, Work) {
    let pooled: Vec<f64> = samples.into_iter().flatten().collect();
    let work = sort_work(pooled.len());
    (select_pivots(pooled, p), work)
}

/// Cut `run` into `pivots.len() + 1` runs by [`bucket_of`], keeping the
/// input order inside each. A run sorted by `key` comes back as sorted,
/// contiguous pieces.
pub fn split_at_pivots<T>(run: Vec<T>, pivots: &[f64], key: impl Fn(&T) -> f64) -> Vec<Vec<T>> {
    let mut parts: Vec<Vec<T>> = (0..=pivots.len()).map(|_| Vec::new()).collect();
    for item in run {
        parts[bucket_of(key(&item), pivots)].push(item);
    }
    parts
}

/// Select `p − 1` pivots from the gathered sample (unsorted input; sorted
/// internally): pivot `i` is the sorted sample at `i·m/p − ⌊m/(2p)⌋`,
/// clamped into range, for a sample of `m` keys.
///
/// This is **not** the paper's `Y_{p/2 + (i−1)p}`: for the canonical
/// `m = p(p−1)` it takes index `i(p−1) − ⌊(p−1)/2⌋`, about one sample row
/// (≈ `p` positions) low, so the last bucket expects close to `2N/p`
/// (ROADMAP item 2 carries the fix).
pub fn select_pivots(mut samples: Vec<f64>, p: usize) -> Vec<f64> {
    assert!(p >= 1, "need at least one partition");
    if p == 1 || samples.is_empty() {
        return Vec::new();
    }
    samples.sort_by(f64::total_cmp);
    let m = samples.len();
    (1..p)
        .map(|i| {
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
    fn sample_keys_even_spacing() {
        let keys: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(sample_keys(&keys, 3, |&x| x), vec![25.0, 50.0, 75.0]);
        let items: Vec<(u32, f64)> = (0..100).map(|i| (i, 2.0 * i as f64)).collect();
        assert_eq!(sample_keys(&items, 3, |it| it.1), vec![50.0, 100.0, 150.0]);
    }

    #[test]
    fn sample_keys_short_input() {
        let keys = [1.0, 2.0];
        assert_eq!(sample_keys(&keys, 5, |&x| x).len(), 2);
        assert!(sample_keys(&[], 3, |&x: &f64| x).is_empty());
        assert!(sample_keys(&keys, 0, |&x| x).is_empty());
    }

    #[test]
    fn pivots_of_pools_the_runs_and_charges_one_sort() {
        let runs = vec![
            vec![30.0, 60.0, 90.0],
            vec![],
            vec![0.0, 119.0],
            (0..115).map(f64::from).collect(),
        ];
        let pooled: Vec<f64> = runs.concat();
        let (pivots, work) = pivots_of(runs, 4);
        assert_eq!(pivots, select_pivots(pooled, 4));
        assert_eq!(work, sort_work(120));
        assert_eq!(pivots_of(vec![vec![], vec![]], 3), (Vec::new(), Work::ZERO));
    }

    #[test]
    fn split_at_pivots_cuts_like_bucket_of() {
        let pivots = [10.0, 20.0];
        let run = vec![25.0, 5.0, 10.0, 20.0, 15.0, 31.0, 1.0];
        let parts = split_at_pivots(run, &pivots, |&x| x);
        assert_eq!(parts, vec![vec![5.0, 10.0, 1.0], vec![20.0, 15.0], vec![25.0, 31.0]]);
        assert_eq!(split_at_pivots(vec![3.0, 1.0], &[], |&x| x), vec![vec![3.0, 1.0]]);
        assert_eq!(split_at_pivots(Vec::<f64>::new(), &pivots, |&x| x).len(), 3);
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
