//! # sample-align-d — facade crate
//!
//! A from-scratch Rust reproduction of **"Sample-Align-D: A High
//! Performance Multiple Sequence Alignment System using Phylogenetic
//! Sampling and Domain Decomposition"** (Saeed & Khokhar, IPPS 2008),
//! including every substrate the paper depends on: the sequence/k-mer
//! machinery, MUSCLE-like and CLUSTALW-like sequential MSA engines,
//! phylogenetic tree builders, a virtual message-passing cluster with a
//! deterministic time model, PSRS/SampleSort redistribution, a rose-like
//! family generator and a PREFAB-like quality benchmark.
//!
//! ## Quickstart
//!
//! One entry point, three backends: build an [`Aligner`](prelude::Aligner),
//! pick a [`Backend`](prelude::Backend), get a
//! [`RunReport`](prelude::RunReport) whatever substrate ran.
//!
//! ```
//! use sample_align_d::prelude::*;
//!
//! // A synthetic family with a known true alignment.
//! let family = Family::generate(&FamilyConfig {
//!     n_seqs: 16,
//!     avg_len: 60,
//!     relatedness: 600.0,
//!     ..Default::default()
//! });
//!
//! // Align it with Sample-Align-D on a virtual 4-node Beowulf cluster.
//! let cluster = VirtualCluster::new(4, CostModel::beowulf_2008());
//! let report = Aligner::new(SadConfig::default())
//!     .backend(Backend::Distributed(cluster))
//!     .run(&family.seqs)
//!     .expect("valid input");
//!
//! assert_eq!(report.msa.num_rows(), 16);
//! println!("aligned in {:.3} virtual seconds", report.makespan().unwrap());
//! println!("{}", report.phase_table());
//!
//! // The same pipeline on shared memory — same report type, no cluster.
//! let shared = Aligner::new(SadConfig::default())
//!     .backend(Backend::Rayon { threads: 4 })
//!     .run(&family.seqs)
//!     .expect("valid input");
//! assert_eq!(shared.msa, report.msa);
//!
//! // Degenerate input is a typed error, not a panic.
//! let err = Aligner::new(SadConfig::default()).run(&family.seqs[..1]);
//! assert_eq!(err.unwrap_err(), SadError::TooFewSequences { found: 1 });
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench` for the
//! harness regenerating every table and figure of the paper.

pub use align;
pub use bioseq;
pub use phylo;
pub use psrs;
pub use qbench;
pub use rosegen;
pub use sad_core;
pub use sad_serve;
pub use vcluster;

/// The most common imports for working with the system.
pub mod prelude {
    pub use align::{
        trim_msa, BandPolicy, ClustalLite, DpArena, DpOptions, EngineChoice, MsaEngine, MuscleLite,
        TrimOutcome,
    };
    pub use bioseq::{fasta, CompressedAlphabet, GapPenalties, Msa, Sequence, SubstMatrix};
    pub use qbench::mean_read_pair_q;
    pub use rosegen::{Family, FamilyConfig, GenomeConfig, GenomeSample, ReadSet, ReadSimConfig};
    pub use sad_core::{
        Aligner, Backend, BackendExtras, BatchJob, BatchReport, CancelToken, Event, JobReport,
        Observer, Phase, PhaseStat, RunReport, SadConfig, SadError, TrimConfig, TrimReport,
        VerticalConfig, VerticalPlan, VerticalReport,
    };
    pub use vcluster::{CostModel, VirtualCluster};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_wires_everything_together() {
        let family = Family::generate(&FamilyConfig {
            n_seqs: 8,
            avg_len: 40,
            relatedness: 500.0,
            ..Default::default()
        });
        let cluster = VirtualCluster::new(2, CostModel::beowulf_2008());
        let report = Aligner::new(SadConfig::default())
            .backend(Backend::Distributed(cluster))
            .run(&family.seqs)
            .unwrap();
        assert_eq!(report.msa.num_rows(), 8);
    }
}
