//! # psrs — Parallel Sorting by Regular Sampling (SampleSort)
//!
//! Sample-Align-D redistributes sequences between processors exactly the
//! way SampleSort/PSRS redistributes keys: sort locally, pick `p − 1`
//! evenly spaced (regular) samples per processor, gather the `p(p−1)`
//! sample keys at the root, pick `p − 1` pivots from the sorted sample,
//! broadcast them, and exchange buckets all-to-all. Shi & Schaeffer (1992)
//! prove that with regular sampling no processor ends up with more than
//! `2N/p` items as long as `N > p³` — the paper leans on this bound for
//! load balancing, and [`max_partition_bound`] restates it.
//!
//! Two implementations share the sampling/pivot code:
//! * [`cluster::psrs`] — the distributed protocol over a raw
//!   [`vcluster::Node`]: the reference Sample-Align-D's own step 6 (the
//!   same protocol over its communication trait) is tested against;
//! * [`shared::sample_sort_by`] — a rayon shared-memory partitioner, which
//!   Sample-Align-D uses to split one rank's over-cap bucket locally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod sampling;
pub mod shared;

pub use cluster::{psrs, PsrsOutcome};
pub use sampling::{
    bucket_of, max_partition_bound, regular_positions, regular_samples, select_pivots, sort_work,
};
