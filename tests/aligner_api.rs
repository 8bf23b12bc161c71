//! The unified `Aligner` API contract: typed errors instead of panics,
//! `SadConfig::validate()` coverage, and cross-backend parity of the
//! single `RunReport` shape.

use sample_align_d::prelude::*;
use std::collections::BTreeSet;

fn family(n: usize, seed: u64) -> Vec<Sequence> {
    Family::generate(&FamilyConfig {
        n_seqs: n,
        avg_len: 60,
        relatedness: 650.0,
        seed,
        ..Default::default()
    })
    .seqs
}

fn all_backends(p: usize) -> Vec<Backend> {
    vec![
        Backend::Sequential,
        Backend::Rayon { threads: p },
        Backend::Distributed(VirtualCluster::new(p, CostModel::beowulf_2008())),
    ]
}

/// The observable row content of an alignment: (id, ungapped residues).
fn row_set(msa: &bioseq::Msa) -> BTreeSet<(String, String)> {
    (0..msa.num_rows()).map(|r| (msa.ids()[r].clone(), msa.ungapped(r).to_letters())).collect()
}

#[test]
fn validate_rejects_zero_kmer() {
    assert_eq!(SadConfig::default().with_kmer_k(0).validate(), Err(SadError::ZeroKmerLen));
    assert_eq!(SadConfig::default().validate(), Ok(()));
}

#[test]
fn validate_rejects_zero_samples_per_rank() {
    assert_eq!(
        SadConfig::default().with_samples_per_rank(Some(0)).validate(),
        Err(SadError::ZeroSampleCount)
    );
    assert_eq!(SadConfig::default().with_samples_per_rank(Some(1)).validate(), Ok(()));
}

#[test]
fn validate_for_rejects_kmer_not_shorter_than_shortest_sequence() {
    let mut seqs = family(4, 1);
    seqs.push(Sequence::from_codes("stub", vec![0, 1, 2, 3])); // length 4 < k = 6
    let err = SadConfig::default().validate_for(&seqs).unwrap_err();
    assert_eq!(err, SadError::KmerExceedsShortest { k: 6, shortest: 4 });
    // Shrinking k below the shortest sequence clears the check.
    assert_eq!(SadConfig::default().with_kmer_k(3).validate_for(&seqs), Ok(()));
}

#[test]
fn degenerate_input_is_a_typed_error_on_every_backend() {
    let one = family(1, 2);
    for backend in all_backends(4) {
        let aligner = Aligner::new(SadConfig::default()).backend(backend);
        assert_eq!(aligner.run(&[]), Err(SadError::TooFewSequences { found: 0 }));
        assert_eq!(aligner.run(&one), Err(SadError::TooFewSequences { found: 1 }));
    }
}

#[test]
fn invalid_configs_are_rejected_on_every_backend() {
    let seqs = family(8, 3);
    for backend in all_backends(2) {
        let zero_k =
            Aligner::new(SadConfig::default().with_kmer_k(0)).backend(backend.clone()).run(&seqs);
        assert_eq!(zero_k, Err(SadError::ZeroKmerLen), "{}", backend.name());
        let zero_s = Aligner::new(SadConfig::default().with_samples_per_rank(Some(0)))
            .backend(backend)
            .run(&seqs);
        assert_eq!(zero_s, Err(SadError::ZeroSampleCount));
    }
}

#[test]
fn run_rejects_sequences_shorter_than_k_on_every_backend() {
    // A 4-residue sequence has no 6-mer profile. The decomposed backends
    // used to compare a k = 1 stand-in against the 6-mer profiles.
    let mut seqs = family(12, 4);
    seqs.push(Sequence::from_str("short", "MKVL").unwrap());
    for backend in all_backends(2) {
        let name = backend.name();
        let err = Aligner::new(SadConfig::default()).backend(backend.clone()).run(&seqs);
        assert_eq!(err, Err(SadError::KmerExceedsShortest { k: 6, shortest: 4 }), "{name}");
        let report =
            Aligner::new(SadConfig::default().with_kmer_k(3)).backend(backend).run(&seqs).unwrap();
        assert_eq!(row_set(&report.msa).len(), seqs.len(), "{name}");
    }
}

#[test]
fn all_three_backends_yield_identical_row_sets() {
    // The satellite parity check: one input, three substrates, one row
    // set — through the new API only.
    let seqs = family(24, 5);
    let cfg = SadConfig::default();
    let reports: Vec<RunReport> = all_backends(4)
        .into_iter()
        .map(|b| Aligner::new(cfg.clone()).backend(b).run(&seqs).unwrap())
        .collect();
    let want = row_set(&reports[0].msa);
    assert_eq!(want.len(), seqs.len());
    for report in &reports {
        assert_eq!(row_set(&report.msa), want, "{} row set diverged", report.backend_name());
        assert_eq!(report.bucket_sizes.iter().sum::<usize>(), seqs.len());
        assert!(!report.work.is_zero());
        assert!(report.phase_table().contains("8-local-align"));
        assert!(report.phase_sequence().contains(&Phase::LocalAlign));
        // Every phase of every backend carries real wall-clock seconds.
        assert!(
            report.phases.iter().all(|p| p.seconds.is_some()),
            "{} lost wall-clock timing",
            report.backend_name()
        );
    }
    // The decomposed backends agree column-for-column, and only the
    // distributed one carries a virtual clock.
    assert_eq!(reports[1].msa, reports[2].msa);
    assert!(reports[2].makespan().is_some());
    assert!(reports[0].makespan().is_none() && reports[1].makespan().is_none());
}

#[test]
fn errors_display_cleanly_through_the_facade() {
    let err = Aligner::new(SadConfig::default()).run(&family(1, 6)).unwrap_err();
    assert_eq!(format!("{err}"), "need at least 2 sequences to align, got 1");
    let source: &dyn std::error::Error = &err;
    assert!(source.source().is_none());
}
