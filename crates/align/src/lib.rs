//! # align — pairwise, profile and progressive multiple sequence alignment
//!
//! This crate reimplements, from the published descriptions, the sequential
//! MSA machinery that Sample-Align-D runs inside every processor:
//!
//! * [`dp`] — **the** Gotoh kernel: one banded, arena-backed affine-gap
//!   DP, generic over a column scorer, shared by every alignment path in
//!   the crate (see [`dp::DpOptions`] and [`dp::DpArena`]);
//! * [`pairwise`] — global alignment with affine gaps (Gotoh), full or
//!   banded, with full tracebacks;
//! * [`profile`] — weighted profile columns (sparse PSSMs) and the
//!   profile–profile substitution score (PSP);
//! * [`papro`] — profile–profile alignment: affine-gap DP over columns that
//!   merges two sub-alignments into one;
//! * [`distance`] — k-mer and Kimura-corrected %-identity distance
//!   matrices;
//! * [`progressive`] — progressive alignment along a guide tree;
//! * [`refine`] — MUSCLE-style tree-bipartition iterative refinement;
//! * [`consensus`] — consensus/“ancestor” extraction from an alignment
//!   (the local/global ancestors of the paper);
//! * [`trim`] — MaxAlign-style alignment-area optimization: bit-packed
//!   gap masks, greedy sequence exclusion with synergy lookahead and an
//!   optional bounded branch-and-bound refinement;
//! * [`anchor`] — conserved-anchor detection by colinear k-mer chaining,
//!   which seeds anchor-pinned profile merges;
//! * [`engine`] — the [`MsaEngine`] trait plus two full
//!   systems: [`muscle::MuscleLite`] (k-mer distance → UPGMA → progressive →
//!   optional re-estimation and refinement; a faithful skeleton of MUSCLE
//!   3.x) and [`clustal::ClustalLite`] (identity distance → neighbor
//!   joining → weighted progressive; the CLUSTALW shape).
//!
//! Every DP-running operation has one public form,
//! `*_with(…, DpOptions, &mut DpArena)`: the caller names the band, the
//! kernel and the scratch, and [`MsaEngine`] has one required method,
//! [`MsaEngine::align_with_work_in`]. Every kernel reports
//! [`bioseq::Work`] so the virtual cluster can convert compute into
//! deterministic virtual time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anchor;
pub mod clustal;
pub mod consensus;
pub mod distance;
pub mod dp;
pub mod engine;
pub mod muscle;
pub mod pairwise;
pub mod papro;
pub mod profile;
pub mod progressive;
pub mod refine;
pub mod trim;

pub use anchor::{Anchor, AnchorSpec};
pub use clustal::ClustalLite;
pub use dp::{BandPolicy, DpArena, DpKernel, DpOptions};
pub use engine::{EngineChoice, MsaEngine};
pub use muscle::MuscleLite;
pub use profile::Profile;
pub use trim::{trim_msa, TrimConfig, TrimOutcome};
