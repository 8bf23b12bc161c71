//! The result cache: input digest → aligned FASTA.
//!
//! The pipeline is deterministic, so two submissions with the same input
//! bytes under the same configuration are guaranteed the same output
//! bytes. One server runs exactly one configuration, so the input digest
//! alone is the key: a duplicate submission is answered at accept time
//! from memory — no queue slot, no worker, no DP cells. The cache is
//! rebuilt on restart from journal `Finished{digest}` entries whose
//! output files still verify and whose jobs were accepted under the
//! running server's configuration, so a warm restart keeps its hits and a
//! restart under another configuration re-runs resubmissions.
//!
//! Memory is bounded: every entry is charged its key and FASTA bytes
//! against a configurable budget ([`ResultCache::with_budget_bytes`],
//! `--cache-mb` on the CLI), and inserting past the budget evicts the
//! least-recently-used entries first. A long-lived daemon fed thousands
//! of distinct families therefore plateaus instead of growing without
//! bound, and a journal replay larger than the budget re-warms only the
//! most recently finished jobs.

use std::collections::HashMap;
use std::sync::Mutex;

/// A cached alignment result.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// Digest of the aligned FASTA text.
    pub digest: String,
    /// Number of aligned rows.
    pub rows: usize,
    /// The aligned FASTA text itself.
    pub fasta: String,
}

impl CachedResult {
    /// Bytes this result is charged against the cache budget (its owned
    /// strings; the fixed struct overhead is charged per entry).
    fn cost(&self) -> usize {
        self.digest.len() + self.fasta.len()
    }
}

/// One cached entry plus its recency stamp.
#[derive(Debug)]
struct Entry {
    result: CachedResult,
    /// Bytes charged for this entry (input key + result).
    cost: usize,
    /// Monotonic access clock: smallest = least recently used.
    last_used: u64,
}

#[derive(Debug)]
struct Inner {
    map: HashMap<String, Entry>,
    budget: usize,
    used: usize,
    clock: u64,
}

/// Per-entry fixed charge covering key/entry bookkeeping, so that even
/// many tiny results cannot grow the map without bound.
const ENTRY_OVERHEAD: usize = 128;

/// Thread-safe, byte-budgeted LRU result cache.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<Inner>,
}

/// Default budget when none is configured: 64 MiB, matching the CLI's
/// `--cache-mb` default.
pub const DEFAULT_BUDGET_BYTES: usize = 64 * 1024 * 1024;

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache::with_budget_bytes(DEFAULT_BUDGET_BYTES)
    }
}

impl ResultCache {
    /// An empty cache with the default budget.
    pub fn new() -> ResultCache {
        ResultCache::default()
    }

    /// An empty cache holding at most `budget` bytes of results
    /// (FASTA text + keys + fixed per-entry overhead).
    pub fn with_budget_bytes(budget: usize) -> ResultCache {
        ResultCache { inner: Mutex::new(Inner { map: HashMap::new(), budget, used: 0, clock: 0 }) }
    }

    /// Look up a result by input digest; a hit refreshes the entry's
    /// recency.
    pub fn get(&self, input: &str) -> Option<CachedResult> {
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let clock = inner.clock;
        let entry = inner.map.get_mut(input)?;
        entry.last_used = clock;
        Some(entry.result.clone())
    }

    /// Record a completed result, evicting least-recently-used entries if
    /// the budget is exceeded. A result larger than the whole budget is
    /// not cached at all (evicting everything for one giant entry would
    /// only thrash).
    pub fn insert(&self, input: &str, result: CachedResult) {
        let cost = input.len() + result.cost() + ENTRY_OVERHEAD;
        let mut inner = self.inner.lock().unwrap();
        if cost > inner.budget {
            return;
        }
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(old) =
            inner.map.insert(input.to_string(), Entry { result, cost, last_used: clock })
        {
            inner.used -= old.cost;
        }
        inner.used += cost;
        // Evict oldest-first until we fit. A linear scan per eviction is
        // fine at the entry counts a budgeted cache can hold.
        while inner.used > inner.budget {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("used > budget implies a non-empty map");
            let evicted = inner.map.remove(&victim).expect("victim key just observed");
            inner.used -= evicted.cost;
        }
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently charged against the budget.
    pub fn used_bytes(&self) -> usize {
        self.inner.lock().unwrap().used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(tag: &str, bytes: usize) -> CachedResult {
        CachedResult { digest: tag.into(), rows: 2, fasta: "x".repeat(bytes) }
    }

    /// Budget that fits exactly `n` of the test entries below (3-byte
    /// input key, 1-byte digest, `body` FASTA bytes).
    fn budget_for(n: usize, body: usize) -> usize {
        n * (3 + 1 + body + ENTRY_OVERHEAD)
    }

    #[test]
    fn hit_requires_the_same_input() {
        let cache = ResultCache::new();
        let result =
            CachedResult { digest: "d".into(), rows: 2, fasta: ">a\nMK-L\n>b\nMKIL\n".into() };
        cache.insert("in1", result.clone());
        assert_eq!(cache.get("in1").unwrap().fasta, result.fasta);
        assert!(cache.get("in2").is_none(), "other input: miss");
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn newer_insert_wins() {
        let cache = ResultCache::new();
        cache.insert("in", CachedResult { digest: "old".into(), rows: 1, fasta: "old".into() });
        cache.insert("in", CachedResult { digest: "new".into(), rows: 1, fasta: "new".into() });
        assert_eq!(cache.get("in").unwrap().digest, "new");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_is_least_recently_used_first() {
        let cache = ResultCache::with_budget_bytes(budget_for(2, 100));
        cache.insert("in1", result("a", 100));
        cache.insert("in2", result("b", 100));
        // Touch in1 so in2 becomes the LRU entry.
        assert!(cache.get("in1").is_some());
        cache.insert("in3", result("c", 100));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("in1").is_some(), "recently used entry survives");
        assert!(cache.get("in2").is_none(), "LRU entry was evicted");
        assert!(cache.get("in3").is_some(), "new entry is present");
    }

    #[test]
    fn insert_order_is_recency_when_nothing_is_read() {
        let cache = ResultCache::with_budget_bytes(budget_for(3, 50));
        for (i, tag) in ["a", "b", "c", "d", "e"].iter().enumerate() {
            cache.insert(&format!("in{i}"), result(tag, 50));
        }
        assert_eq!(cache.len(), 3);
        for (i, present) in [false, false, true, true, true].iter().enumerate() {
            assert_eq!(cache.get(&format!("in{i}")).is_some(), *present, "in{i}");
        }
    }

    #[test]
    fn replacing_an_entry_never_double_charges() {
        let cache = ResultCache::with_budget_bytes(budget_for(1, 100));
        for _ in 0..10 {
            cache.insert("in1", result("a", 100));
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.used_bytes(), budget_for(1, 100));
    }

    #[test]
    fn oversized_results_are_not_cached() {
        let cache = ResultCache::with_budget_bytes(256);
        cache.insert("in1", result("small", 16));
        cache.insert("in2", result("huge", 10_000));
        assert!(cache.get("in2").is_none(), "over-budget entry skipped");
        assert!(cache.get("in1").is_some(), "existing entries untouched");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn used_bytes_tracks_contents_and_stays_within_budget() {
        let budget = budget_for(2, 64);
        let cache = ResultCache::with_budget_bytes(budget);
        assert_eq!(cache.used_bytes(), 0);
        for i in 0..8 {
            cache.insert(&format!("in{i}"), result("d", 64));
            assert!(cache.used_bytes() <= budget);
        }
        assert_eq!(cache.len(), 2);
    }
}
