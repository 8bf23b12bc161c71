//! # vcluster — a virtual message-passing cluster with deterministic time
//!
//! The paper evaluates Sample-Align-D on a 16-node Beowulf cluster over
//! MPI. This crate substitutes that hardware with a *virtual cluster*:
//!
//! * every rank runs as a real OS thread executing real code over real
//!   message passing (`std::sync::mpsc` channels), so algorithms are
//!   exercised end-to-end exactly as they would be over MPI;
//! * **time, however, is virtual**: each rank owns a local clock that
//!   advances deterministically — compute kernels report [`bioseq::Work`]
//!   units which a calibratable [`CostModel`] converts to seconds, and
//!   message envelopes carry departure timestamps so arrival times follow a
//!   LogGP-style postal model (`arrival = departure + latency`, with the
//!   per-byte serialisation charged to the sender).
//!
//! The result: per-rank clocks, scaling curves and speedups that are
//! bit-for-bit reproducible on any host, while the *code paths*
//! (redistribution, collectives, gather/broadcast trees) remain the real
//! distributed ones.
//!
//! ## Collectives
//!
//! [`Node`] offers the three MPI-flavoured collectives the paper's program
//! uses, built from point-to-point sends: binomial-tree `broadcast`,
//! linear `gather` (matching the `O(p²·L)` sample-collection cost the
//! paper's analysis assumes) and pairwise-exchange `all_to_allv`. An
//! all-gather is a `gather` followed by a `broadcast`.
//!
//! ## Example
//!
//! ```
//! use vcluster::{CostModel, VirtualCluster};
//!
//! let cluster = VirtualCluster::new(4, CostModel::beowulf_2008());
//! let run = cluster.run(|node| {
//!     let msg = node.rank() * 10;
//!     let gathered = node.gather(0, msg);
//!     let all = node.broadcast(0, gathered);
//!     all.into_iter().sum::<usize>()
//! });
//! assert_eq!(run.results, vec![60, 60, 60, 60]);
//! assert!(run.makespan > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod collective;
pub mod cost;
pub mod node;
pub mod trace;
pub mod wire;

pub use cluster::{ClusterRun, VirtualCluster};
pub use cost::CostModel;
pub use node::Node;
pub use trace::RankTrace;
pub use wire::WireSize;
