//! Shared-memory SampleSort: one PSRS round over chunks of a single
//! in-memory input, each chunk and bucket sorted in turn on the calling
//! thread. Sample-Align-D's rank-local sub-partition step (step 7) uses
//! it, and step 7 already runs inside a rank task on the worker pool.

use crate::sampling::{pivots_of, sample_keys, sort_work, split_at_pivots};
use bioseq::Work;

/// Partition `items` into `parts` buckets by `key` using regular sampling,
/// with each bucket sorted. Concatenating the buckets yields the globally
/// sorted order, and bucket sizes obey the PSRS balance bound for
/// distinct, well-spread keys.
pub fn sample_partition_by<T, F>(items: Vec<T>, parts: usize, key: F) -> Vec<Vec<T>>
where
    F: Fn(&T) -> f64,
{
    sample_partition_by_with_work(items, parts, key).0
}

/// [`sample_partition_by`], also reporting the sorting [`Work`] performed
/// (charged with step 6's formulas, so sub-partition work reads the same
/// way as redistribution work).
pub fn sample_partition_by_with_work<T, F>(
    items: Vec<T>,
    parts: usize,
    key: F,
) -> (Vec<Vec<T>>, Work)
where
    F: Fn(&T) -> f64,
{
    assert!(parts >= 1, "need at least one partition");
    let mut work = Work::ZERO;
    if parts == 1 || items.len() <= parts {
        let mut all = items;
        all.sort_by(|a, b| key(a).total_cmp(&key(b)));
        work += sort_work(all.len());
        let mut out: Vec<Vec<T>> = (0..parts).map(|_| Vec::new()).collect();
        // Spread tiny inputs round-robin so no bucket invariant breaks.
        if parts == 1 {
            out[0] = all;
        } else {
            let n = all.len();
            let chunk = n.div_ceil(parts).max(1);
            for (i, item) in all.into_iter().enumerate() {
                out[(i / chunk).min(parts - 1)].push(item);
            }
        }
        return (out, work);
    }
    // Emulate p local sorts: chunk the data, sort each chunk, then run
    // the PSRS stages over the sorted chunks.
    let n = items.len();
    let chunk_size = n.div_ceil(parts);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(parts);
    let mut iter = items.into_iter();
    for _ in 0..parts {
        let chunk: Vec<T> = iter.by_ref().take(chunk_size).collect();
        chunks.push(chunk);
    }
    for c in &mut chunks {
        c.sort_by(|a, b| key(a).total_cmp(&key(b)));
    }
    work += chunks.iter().map(|c| sort_work(c.len())).sum::<Work>();
    let samples = chunks.iter().map(|c| sample_keys(c, parts - 1, &key)).collect();
    let (pivots, pivot_work) = pivots_of(samples, parts);
    work += pivot_work;
    let mut buckets: Vec<Vec<T>> = (0..parts).map(|_| Vec::new()).collect();
    for chunk in chunks {
        for (bucket, run) in buckets.iter_mut().zip(split_at_pivots(chunk, &pivots, &key)) {
            bucket.extend(run);
        }
    }
    for b in &mut buckets {
        b.sort_by(|x, y| key(x).total_cmp(&key(y)));
    }
    work += buckets.iter().map(|b| sort_work(b.len())).sum::<Work>();
    (buckets, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The concatenated buckets: a full sort by sample partitioning.
    fn sample_sort<T>(items: Vec<T>, parts: usize, key: impl Fn(&T) -> f64) -> Vec<T> {
        sample_partition_by(items, parts, key).into_iter().flatten().collect()
    }

    #[test]
    fn sorts_like_std() {
        let items: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000) as f64).collect();
        let mut expect = items.clone();
        expect.sort_by(f64::total_cmp);
        assert_eq!(sample_sort(items, 8, |&x| x), expect);
    }

    #[test]
    fn partition_boundaries_ordered() {
        let items: Vec<f64> = (0..500).map(|i| ((i * 31) % 97) as f64).collect();
        let parts = sample_partition_by(items, 4, |&x| x);
        assert_eq!(parts.len(), 4);
        for w in parts.windows(2) {
            if let (Some(&a), Some(&b)) = (w[0].last(), w[1].first()) {
                assert!(a <= b);
            }
        }
    }

    #[test]
    fn tiny_inputs() {
        assert_eq!(sample_sort(Vec::<f64>::new(), 4, |&x| x), Vec::<f64>::new());
        assert_eq!(sample_sort(vec![3.0, 1.0], 4, |&x| x), vec![1.0, 3.0]);
        assert_eq!(sample_sort(vec![2.0], 1, |&x| x), vec![2.0]);
    }

    #[test]
    fn work_reported_for_both_paths() {
        let items: Vec<f64> = (0..200).map(|i| ((i * 31) % 97) as f64).collect();
        let (buckets, work) = sample_partition_by_with_work(items, 4, |&x| x);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 200);
        assert!(work.sort_ops > 0, "main path must report sort work");
        let (_, tiny) = sample_partition_by_with_work(vec![3.0, 1.0], 4, |&x| x);
        assert!(tiny.sort_ops > 0, "degenerate path must report sort work");
        let (_, empty) = sample_partition_by_with_work(Vec::<f64>::new(), 4, |&x| x);
        assert!(empty.is_zero());
    }

    #[test]
    fn keyed_structs() {
        #[derive(Debug, PartialEq)]
        struct Item(u32, f64);
        let items: Vec<Item> = (0..100).map(|i| Item(i, ((i * 13) % 50) as f64)).collect();
        let sorted = sample_sort(items, 3, |it| it.1);
        assert!(sorted.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(sorted.len(), 100);
    }

    proptest! {
        #[test]
        fn prop_matches_std_sort(mut keys in prop::collection::vec(-1e6f64..1e6, 0..400),
                                 parts in 1usize..9) {
            let sorted = sample_sort(keys.clone(), parts, |&x| x);
            keys.sort_by(f64::total_cmp);
            prop_assert_eq!(sorted, keys);
        }

        #[test]
        fn prop_partitions_preserve_multiset(keys in prop::collection::vec(0u32..1000, 0..300),
                                             parts in 1usize..7) {
            let items: Vec<f64> = keys.iter().map(|&k| k as f64).collect();
            let buckets = sample_partition_by(items, parts, |&x| x);
            prop_assert_eq!(buckets.len(), parts);
            let mut flat: Vec<f64> = buckets.into_iter().flatten().collect();
            flat.sort_by(f64::total_cmp);
            let mut expect: Vec<f64> = keys.iter().map(|&k| k as f64).collect();
            expect.sort_by(f64::total_cmp);
            prop_assert_eq!(flat, expect);
        }
    }
}
