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
//! This crate holds the stages of that round once, in [`sampling`]:
//! [`sample_keys`], [`pivots_of`] and [`split_at_pivots`]. Two callers run
//! them:
//! * step 6 of the pipeline (`sad_core`'s redistribution), which adds only
//!   the collectives between the stages, on every substrate;
//! * [`shared::sample_partition_by`] — a single-threaded in-memory
//!   partitioner, which step 7 uses to split one rank's over-cap bucket
//!   locally (step 7 already runs inside a rank task).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sampling;
pub mod shared;

pub use sampling::{
    bucket_of, max_partition_bound, pivots_of, regular_positions, sample_keys, select_pivots,
    sort_work, split_at_pivots,
};
