//! # bioseq — protein sequence substrate for Sample-Align-D
//!
//! This crate provides everything the alignment stack needs to talk about
//! protein sequences without depending on any external bioinformatics
//! tooling:
//!
//! * [`alphabet`] — the 20-letter amino-acid alphabet plus the Dayhoff-6
//!   *compressed* alphabet of Edgar (2004) used for fast k-mer counting;
//! * [`sequence`] — owned, validated sequences and FASTA-style identifiers;
//! * [`fasta`] — FASTA parsing and serialisation;
//! * [`matrix`] — substitution matrices (BLOSUM62, PAM250), gap penalties and
//!   background residue frequencies;
//! * [`kmer`] — k-mer profiles, the fractional-common-k-mer similarity, the
//!   average distance `D_i` and the **k-mer rank** `R_i = log(0.1 + D_i)`
//!   that Sample-Align-D buckets sequences by;
//! * [`msa`] — gapped alignments, column access, sum-of-pairs scoring;
//! * [`compare`] — the PREFAB `Q` score and the total-column `TC` score;
//! * [`pool`] — the one self-scheduling worker pool every parallel loop
//!   runs on, and the host's core count;
//! * [`stats`] — tiny statistics helpers used by the evaluation harness;
//! * [`work`] — abstract work accounting consumed by the virtual cluster's
//!   deterministic cost model.
//!
//! Everything here is deterministic and allocation-conscious: k-mer profiles
//! are sorted sparse vectors so pairwise similarity is a linear merge, and
//! alignments store residues as `u8` codes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alphabet;
pub mod compare;
pub mod fasta;
pub mod kmer;
pub mod matrix;
pub mod msa;
pub mod pool;
pub mod sequence;
pub mod stats;
pub mod work;

pub use alphabet::{CompressedAlphabet, AA_COUNT, GAP_CODE, X_CODE};
pub use kmer::{KmerProfile, RankTransform};
pub use matrix::{GapPenalties, SubstMatrix};
pub use msa::Msa;
pub use sequence::Sequence;
pub use work::Work;
