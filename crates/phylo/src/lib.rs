//! # phylo — distance-matrix phylogenetic trees
//!
//! Guide trees drive progressive alignment (MUSCLE, CLUSTALW) and the
//! rose-like sequence generator. This crate implements:
//!
//! * [`tree`] — an arena-allocated rooted binary tree with branch lengths,
//!   post-order traversal, leaf sets and edge bipartitions;
//! * [`distmat`] — a compact symmetric distance matrix;
//! * [`mod@upgma`] — UPGMA agglomerative clustering in `O(n²)` expected
//!   time using nearest-neighbour arrays;
//! * [`nj`] — canonical neighbor joining (`O(n³)`), used by the
//!   CLUSTALW-like engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distmat;
pub mod nj;
pub mod tree;
pub mod upgma;

pub use distmat::DistMatrix;
pub use nj::neighbor_joining;
pub use tree::{NodeId, Tree};
pub use upgma::upgma;
