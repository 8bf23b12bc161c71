//! Cross-crate integration: the full Sample-Align-D pipeline from
//! generated sequences to a validated global alignment, through the
//! unified [`Aligner`] API.

use sample_align_d::prelude::*;
use std::collections::HashMap;

fn family(n: usize, len: usize, relatedness: f64, seed: u64) -> Family {
    Family::generate(&FamilyConfig {
        n_seqs: n,
        avg_len: len,
        relatedness,
        seed,
        ..Default::default()
    })
}

fn on_cluster(p: usize, seqs: &[Sequence], cfg: &SadConfig) -> RunReport {
    let cluster = VirtualCluster::new(p, CostModel::beowulf_2008());
    Aligner::new(cfg.clone()).backend(Backend::Distributed(cluster)).run(seqs).unwrap()
}

fn check_complete(result: &bioseq::Msa, input: &[Sequence]) {
    result.validate().unwrap();
    assert_eq!(result.num_rows(), input.len());
    let by_id: HashMap<&str, &Sequence> = input.iter().map(|s| (s.id.as_str(), s)).collect();
    for r in 0..result.num_rows() {
        let id = &result.ids()[r];
        let want = by_id[id.as_str()];
        assert_eq!(&result.ungapped(r), want, "row {id}");
    }
}

#[test]
fn distributed_pipeline_is_complete_and_deterministic() {
    let fam = family(40, 70, 700.0, 1);
    let cfg = SadConfig::default();
    let a = on_cluster(4, &fam.seqs, &cfg);
    let b = on_cluster(4, &fam.seqs, &cfg);
    check_complete(&a.msa, &fam.seqs);
    assert_eq!(a.msa, b.msa);
    assert_eq!(a.makespan(), b.makespan());
}

#[test]
fn rayon_and_distributed_backends_agree() {
    let fam = family(32, 60, 600.0, 2);
    let cfg = SadConfig::default();
    let dist = on_cluster(4, &fam.seqs, &cfg);
    let ray = Aligner::new(cfg).backend(Backend::Rayon { threads: 4 }).run(&fam.seqs).unwrap();
    assert_eq!(dist.msa, ray.msa, "step-identical pipelines must agree");
    assert_eq!(dist.bucket_sizes, ray.bucket_sizes);
}

#[test]
fn quality_tracks_the_sequential_engine() {
    // On a homologous family, decomposing over 4 ranks should stay within
    // a reasonable band of the engine run on everything at once.
    let fam = family(32, 80, 500.0, 3);
    let cfg = SadConfig::default();
    let sad = on_cluster(4, &fam.seqs, &cfg);
    let seq = Aligner::new(cfg).backend(Backend::Sequential).run(&fam.seqs).unwrap();
    let q_sad = bioseq::compare::q_score_msa(&sad.msa, &fam.reference).unwrap();
    let q_seq = bioseq::compare::q_score_msa(&seq.msa, &fam.reference).unwrap();
    assert!(q_sad > q_seq - 0.25, "SAD Q {q_sad:.3} too far below sequential Q {q_seq:.3}");
    assert!(q_sad > 0.3, "SAD Q {q_sad:.3} unreasonably low");
}

#[test]
fn every_engine_choice_runs_distributed() {
    let fam = family(18, 50, 600.0, 4);
    for engine in EngineChoice::ALL {
        let cfg = SadConfig::default().with_engine(engine);
        let report = on_cluster(3, &fam.seqs, &cfg);
        check_complete(&report.msa, &fam.seqs);
    }
}

#[test]
fn genome_mixture_aligns() {
    let genome = GenomeSample::generate(&GenomeConfig {
        n_seqs: 48,
        n_families: 6,
        avg_len: 90,
        seed: 5,
        ..Default::default()
    });
    let report = on_cluster(4, &genome.seqs, &SadConfig::default());
    check_complete(&report.msa, &genome.seqs);
    // Similar sequences should co-locate: for most families, members end
    // up in few buckets. Weak check: bucket sizes sum and are bounded.
    assert_eq!(report.bucket_sizes.iter().sum::<usize>(), 48);
}

#[test]
fn output_roundtrips_through_fasta() {
    let fam = family(12, 40, 500.0, 6);
    let report = on_cluster(2, &fam.seqs, &SadConfig::default());
    let text = fasta::write_alignment(&report.msa);
    let parsed = fasta::parse_alignment(&text).unwrap();
    assert_eq!(parsed.rows(), report.msa.rows());
    assert_eq!(parsed.ids(), report.msa.ids());
}

#[test]
fn free_network_ablation_only_speeds_things_up() {
    let fam = family(24, 50, 600.0, 7);
    let cfg = SadConfig::default();
    let real = Aligner::new(cfg.clone())
        .backend(Backend::Distributed(VirtualCluster::new(4, CostModel::beowulf_2008())))
        .run(&fam.seqs)
        .unwrap();
    let free = Aligner::new(cfg)
        .backend(Backend::Distributed(VirtualCluster::new(4, CostModel::free_network())))
        .run(&fam.seqs)
        .unwrap();
    assert_eq!(real.msa, free.msa, "cost model must not affect results");
    assert!(free.makespan().unwrap() < real.makespan().unwrap());
}

/// The anchored read-bucket merge (seeding the fine-tune profile DP with
/// the decomp anchor scan) must not regress read-recovery quality at the
/// recorded cap-128 operating point. Capped runs always seed the merge
/// now; when the seeding could still be switched off, this setup measured
/// a mean pair Q of 0.517440 with it off and 0.517440 with it on, so the
/// gate keeps the old bound: no more than 0.02 below the unseeded figure.
#[test]
fn anchored_merge_does_not_regress_read_quality_at_cap_128() {
    const Q_UNSEEDED: f64 = 0.517440;
    let sources = Family::generate(&FamilyConfig {
        n_seqs: 4,
        avg_len: 300,
        relatedness: 800.0,
        seed: 7,
        ..Default::default()
    });
    let set = ReadSet::from_family(
        &sources,
        &ReadSimConfig { total_reads: Some(300), seed: 7, ..Default::default() },
    );
    let cfg = SadConfig::default().with_max_bucket(Some(128));
    let report = Aligner::new(cfg)
        .backend(Backend::Rayon { threads: 4 })
        .run(&set.reads)
        .expect("valid read set");
    let q = mean_read_pair_q(&set, &report.msa, 200).expect("overlapping read pairs exist");
    assert!(
        q >= Q_UNSEEDED - 0.02,
        "anchored merge regressed mean pair Q: {q:.4} vs {Q_UNSEEDED:.4} unseeded"
    );
}
