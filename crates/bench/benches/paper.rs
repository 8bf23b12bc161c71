//! The paper's evidence, once: every check of Tables 1–2, Figs. 1 and 3–6,
//! the two ablations of the paper's mechanisms and the Section 3
//! complexity audit, each computed by one experiment and recorded as one
//! [`Claim`] in `BENCH_paper.json`.
//!
//! Every value is a virtual makespan, a Q/TC/SP score, a rank or a count,
//! so the committed `entries` repeat byte for byte on any host; only the
//! `BenchFile` stamp moves. The run exits nonzero, naming the claim, when
//! a claim the committed file records as `Reproduced` no longer reproduces
//! (the rule is [`sad_bench::regressions`]), and then leaves the committed
//! file as it was.
//!
//! `cargo bench -p sad-bench --bench paper`; `SAD_PAPER_SCALE=1` runs the
//! paper's sizes (the Fig. 6 sequential baseline alone then needs about an
//! hour).

use align::{ClustalLite, EngineChoice, MuscleLite};
use bioseq::stats::{variance_wrt, Histogram, Summary};
use qbench::{evaluate_engine, evaluate_with, Benchmark, BenchmarkConfig};
use sad_bench::{
    bench_path, genome_workload, paper_scale, regressions, rose_workload, sad_on_cluster, scaled,
    steal_ticks, BenchFile, Claim, Verdict, PAPER_PROCS,
};
use sad_core::audit::{phase_exponent, sweep_n};
use sad_core::sequential::sequential_seconds;
use sad_core::{rank_experiment, Phase, SadConfig};
use sad_serve::Json;
use vcluster::CostModel;

/// `x` rounded to `decimals` places: the file records what a reader
/// compares, not the last bits of a float.
fn num(x: f64, decimals: i32) -> Json {
    let scale = 10f64.powi(decimals);
    Json::Num((x * scale).round() / scale)
}

fn nums(xs: impl IntoIterator<Item = f64>, decimals: i32) -> Json {
    Json::Arr(xs.into_iter().map(|x| num(x, decimals)).collect())
}

fn counts(xs: impl IntoIterator<Item = usize>) -> Json {
    Json::Arr(xs.into_iter().map(|x| Json::Num(x as f64)).collect())
}

/// A speedup at p = 16 is super-linear above 16; above `partial` it is
/// near-linear, which is what the scaled sizes can reach.
fn superlinear_at_16(speedup: f64, partial: f64) -> Verdict {
    if speedup > 16.0 {
        Verdict::Reproduced
    } else if speedup > partial {
        Verdict::Partial
    } else {
        Verdict::NotReproduced
    }
}

/// Fig. 1: centralized vs globalized k-mer ranks of 500 sequences.
fn fig1() -> Vec<Claim> {
    let exp = rank_experiment(&rose_workload(500, 0xF161), 8, &SadConfig::default());
    let central = Summary::of(&exp.centralized).expect("500 ranks");
    let global = Summary::of(&exp.globalized).expect("500 ranks");
    vec![Claim {
        id: "fig1.globalized_mean_above_centralized",
        paper: "Fig. 1 (N=500): both rank distributions share shape and range, the globalized \
                average above the centralized one",
        ours: Json::obj([
            ("n", Json::Num(500.0)),
            ("p", Json::Num(8.0)),
            ("mean_centralized", num(central.mean, 5)),
            ("mean_globalized", num(global.mean, 5)),
        ]),
        verdict: Verdict::of(global.mean > central.mean),
    }]
}

/// Fig. 3 and Table 1 read the same experiment: the ranks of the scaling
/// input, N = 5000 at p = 16.
fn rank_statistics() -> Vec<Claim> {
    let n = scaled(5000);
    let exp = rank_experiment(&rose_workload(n, 0x7AB1E1), 16, &SadConfig::default());
    let central = Summary::of(&exp.centralized).expect("n ranks");
    let global = Summary::of(&exp.globalized).expect("n ranks");
    let (variance, stddev) =
        variance_wrt(&exp.globalized, &exp.centralized).expect("one rank per sequence each");

    // Even spread: no bin of a 24-bin histogram holds half the mass.
    let hist = Histogram::build(&exp.globalized, global.min, global.max + 1e-9, 24);
    let max_share = *hist.counts.iter().max().expect("24 bins") as f64 / hist.total() as f64;

    // `RankTransform::PaperLog` is ln(0.1 + D) as printed, which is
    // negative on D in [0, 1]; the paper's ranks lie in [0, 1.46], so the
    // claim records both sets of values and checks only their relations.
    let stats = Json::obj([
        ("n", Json::Num(n as f64)),
        ("max_central", num(central.max, 5)),
        ("min_central", num(central.min, 5)),
        ("avg_central", num(central.mean, 6)),
        ("max_globalized", num(global.max, 5)),
        ("min_globalized", num(global.min, 5)),
        ("avg_globalized", num(global.mean, 6)),
        ("variance_wrt_central", num(variance, 5)),
        ("stddev_wrt_central", num(stddev, 6)),
    ]);
    vec![
        Claim {
            id: "fig3.ranks_spread_evenly",
            paper: "Fig. 3: the experiment input's ranks are in general evenly distributed, so \
                    redistribution balances load",
            ours: Json::obj([
                ("n", Json::Num(n as f64)),
                ("bins", Json::Num(24.0)),
                ("max_bin_share", num(max_share, 4)),
            ]),
            verdict: Verdict::of(max_share < 0.5),
        },
        Claim {
            id: "table1.globalized_mean_above_centralized",
            paper: "Table 1 (N=5000): (max,min) central (1.44827, 0.0), avg central 0.722962; \
                    (max,min) globalized (1.46207, 0.0), avg globalized 1.11302; variance \
                    w.r.t. central 0.33190, stddev 0.576377",
            ours: stats,
            verdict: Verdict::of(global.mean > central.mean),
        },
        Claim {
            id: "table1.ranges_overlap",
            paper: "Table 1: the two rank ranges nearly coincide (max 1.44827 vs 1.46207)",
            ours: Json::obj([
                ("max_central", num(central.max, 5)),
                ("max_globalized", num(global.max, 5)),
                ("stddev_central", num(central.stddev, 5)),
            ]),
            verdict: Verdict::of((global.max - central.max).abs() < 4.0 * central.stddev.max(1e-9)),
        },
    ]
}

/// Figs. 4 and 5 read one makespan matrix: N = 5000/10000/20000 rose
/// sequences, each on every processor count of the plots.
fn scaling() -> Vec<Claim> {
    let sizes: Vec<usize> = [5000, 10000, 20000].into_iter().map(scaled).collect();
    let cfg = SadConfig::default();
    let makespans: Vec<Vec<f64>> = sizes
        .iter()
        .zip(0u64..)
        .map(|(&n, i)| {
            let seqs = rose_workload(n, 0xF165 + i);
            PAPER_PROCS
                .iter()
                .map(|&p| sad_on_cluster(p, &seqs, &cfg).makespan().expect("distributed"))
                .collect()
        })
        .collect();
    let speedup_16: Vec<f64> = makespans.iter().map(|t| t[0] / t[PAPER_PROCS.len() - 1]).collect();
    let largest = *speedup_16.last().expect("three sizes");
    let rows = sizes.iter().zip(&makespans).map(|(&n, t)| {
        Json::obj([("n", Json::Num(n as f64)), ("makespan_s", nums(t.iter().copied(), 3))])
    });
    vec![
        Claim {
            id: "fig4.time_falls_sharply",
            paper: "Fig. 4: execution time falls sharply with p for N = 5000, 10000, 20000 \
                    (checked as t(16) < t(1)/4 for every N)",
            ours: Json::obj([("procs", counts(PAPER_PROCS)), ("rows", Json::Arr(rows.collect()))]),
            verdict: Verdict::of(speedup_16.iter().all(|&s| s > 4.0)),
        },
        Claim {
            id: "fig5.superlinear_at_largest_n",
            paper: "Fig. 5: super-linear speedup, strongest (up to ~45) for the largest input",
            ours: Json::obj([
                ("n", Json::Num(*sizes.last().expect("three sizes") as f64)),
                ("p", Json::Num(16.0)),
                ("speedup", num(largest, 2)),
            ]),
            verdict: superlinear_at_16(largest, 12.0),
        },
        Claim {
            id: "fig5.larger_inputs_scale_better",
            paper: "Fig. 5: the larger the input, the higher the speedup",
            ours: Json::obj([
                ("n", counts(sizes)),
                ("speedup_p16", nums(speedup_16.iter().copied(), 2)),
            ]),
            verdict: Verdict::of(largest >= speedup_16[0]),
        },
    ]
}

/// Fig. 6: a genome sample on the cluster against sequential MUSCLE (with
/// refinement) on one node; both sides run the refinement-enabled engine.
/// The refinement term grows ~N³, so the scaled N=400 lands in the tens
/// and only the paper's N=2000 reaches its hundred-fold regime.
fn genome() -> Vec<Claim> {
    let n = if paper_scale() { 2000 } else { 400 };
    let seqs = genome_workload(n, 0xF166);
    let cfg = SadConfig::default().with_engine(EngineChoice::MuscleStandard);
    let (_, sequential) = sequential_seconds(&seqs, &cfg, &CostModel::beowulf_2008());
    let runs: Vec<_> = PAPER_PROCS.iter().map(|&p| sad_on_cluster(p, &seqs, &cfg)).collect();
    let makespans: Vec<f64> = runs.iter().map(|r| r.makespan().expect("distributed")).collect();
    let speedup = sequential / makespans[PAPER_PROCS.len() - 1];
    vec![Claim {
        id: "fig6.superlinear_vs_sequential",
        paper: "Fig. 6: 2000 genome sequences take 9.82 min on 16 nodes against ~23 h for \
                sequential MUSCLE, a super-linear 142x",
        ours: Json::obj([
            ("n", Json::Num(n as f64)),
            ("sequential_s", num(sequential, 2)),
            ("procs", counts(PAPER_PROCS)),
            ("makespan_s", nums(makespans, 2)),
            ("load_imbalance", nums(runs.iter().map(|r| r.load_imbalance()), 2)),
            ("speedup_p16", num(speedup, 2)),
        ]),
        verdict: superlinear_at_16(speedup, 8.0),
    }]
}

/// Table 2: Q and TC on a PREFAB-like generated benchmark, with
/// Sample-Align-D on a 4-processor cluster as in the paper.
fn quality() -> Vec<Claim> {
    let cases = if paper_scale() { 48 } else { 12 };
    let benchmark = Benchmark::generate(&BenchmarkConfig {
        n_cases: cases,
        seqs_per_case: 24,
        avg_len: 120,
        // PREFAB's hard cases sit well below 50% identity; this range puts
        // the generated references in the Q regime of the paper's Table 2.
        relatedness: (1100.0, 3000.0),
        seed: 0x7AB1E2,
    });
    let cfg = SadConfig::default();
    let sad = evaluate_with("sample-align-d(p=4)", &benchmark, |seqs| {
        let run = sad_on_cluster(4, seqs, &cfg);
        (run.msa, run.work)
    });
    let muscle = evaluate_engine(&MuscleLite::standard(), &benchmark);
    let muscle_fast = evaluate_engine(&MuscleLite::fast(), &benchmark);
    let clustal = evaluate_engine(&ClustalLite::default(), &benchmark);
    let scores = |pick: fn(&qbench::EngineReport) -> f64| {
        Json::obj([
            ("sample_align_d_p4", num(pick(&sad), 3)),
            ("muscle", num(pick(&muscle), 3)),
            ("muscle_fast", num(pick(&muscle_fast), 3)),
            ("clustal", num(pick(&clustal), 3)),
        ])
    };
    let ours = Json::obj([
        ("cases", Json::Num(cases as f64)),
        ("q", scores(|r| r.mean_q)),
        ("tc", scores(|r| r.mean_tc)),
    ]);
    let (sad, muscle, clustal) = (sad.mean_q, muscle.mean_q, clustal.mean_q);
    vec![
        Claim {
            id: "table2.muscle_at_least_clustalw",
            paper: "Table 2: MUSCLE (Q 0.645) scores at least CLUSTALW (0.563)",
            ours: ours.clone(),
            verdict: Verdict::of(muscle >= clustal - 0.02),
        },
        Claim {
            id: "table2.sad_in_clustalw_class",
            paper: "Table 2: Sample-Align-D (Q 0.544) is in CLUSTALW's (0.563) quality class",
            ours: ours.clone(),
            verdict: Verdict::of((sad - clustal).abs() < 0.12 || sad > clustal),
        },
        Claim {
            id: "table2.decomposition_costs_quality",
            paper: "Table 2: decomposition costs Sample-Align-D (0.544) some quality against \
                    MUSCLE (0.645)",
            ours,
            verdict: Verdict::of(sad <= muscle + 0.02),
        },
    ]
}

/// Ablation of the sample size `k` per rank; the paper fixes `k = p − 1`
/// following PSRS.
fn sampling() -> Vec<Claim> {
    let (n, p) = (scaled(4000), 8);
    let seqs = rose_workload(n, 0xAB1A1);
    let ks = [1, 3, p - 1, 2 * p, 4 * p];
    let runs: Vec<_> = ks
        .iter()
        .map(|&k| sad_on_cluster(p, &seqs, &SadConfig::default().with_samples_per_rank(Some(k))))
        .collect();
    let max_bucket: Vec<usize> =
        runs.iter().map(|r| *r.bucket_sizes.iter().max().expect("p buckets")).collect();
    let bound = psrs::max_partition_bound(n, p);
    vec![Claim {
        id: "ablation.sampling_k_p_minus_1_within_2n_over_p",
        paper: "Section 2: PSRS regular sampling with k = p-1 samples per rank keeps every \
                bucket within 2N/p",
        ours: Json::obj([
            ("n", Json::Num(n as f64)),
            ("p", Json::Num(p as f64)),
            ("bound_2n_over_p", Json::Num(bound as f64)),
            ("k", counts(ks)),
            ("max_bucket", counts(max_bucket.iter().copied())),
            ("load_imbalance", nums(runs.iter().map(|r| r.load_imbalance()), 3)),
            ("makespan_s", nums(runs.iter().map(|r| r.makespan().expect("distributed")), 3)),
        ]),
        verdict: Verdict::of(max_bucket[2] <= bound),
    }]
}

/// Ablation of the ancestor fine-tuning (the paper's Fig. 2 mechanism):
/// without the global ancestor, buckets can only be stacked
/// block-diagonally and share no columns.
fn fine_tune() -> Vec<Claim> {
    let n = scaled(2400);
    let fam = rosegen::Family::generate(&rosegen::FamilyConfig {
        n_seqs: n,
        avg_len: 120,
        relatedness: 600.0,
        seed: 0xAB1AF,
        ..Default::default()
    });
    let matrix = bioseq::SubstMatrix::blosum62();
    let mut rows = Vec::new();
    let mut holds = true;
    for p in [4usize, 8] {
        let [(sp_on, q_on), (sp_off, q_off)] = [true, false].map(|on| {
            let run = sad_on_cluster(p, &fam.seqs, &SadConfig::default().with_fine_tune(on));
            let q = bioseq::compare::q_score_msa(&run.msa, &fam.reference).unwrap_or(0.0);
            (run.msa.sp_score(&matrix, bioseq::GapPenalties::default()), q)
        });
        holds &= sp_on > sp_off && q_on >= q_off;
        rows.push(Json::obj([
            ("p", Json::Num(p as f64)),
            ("sp_on", Json::Num(sp_on as f64)),
            ("sp_off", Json::Num(sp_off as f64)),
            ("q_on", num(q_on, 3)),
            ("q_off", num(q_off, 3)),
        ]));
    }
    vec![Claim {
        id: "ablation.fine_tune_improves_sp_and_q",
        paper: "Fig. 2: tuning each bucket against the global ancestor is what aligns buckets \
                to each other",
        ours: Json::obj([("n", Json::Num(n as f64)), ("rows", Json::Arr(rows))]),
        verdict: Verdict::of(holds),
    }]
}

/// Section 3 audit: per-phase scaling exponents in N at fixed p, over
/// prefixes of one family so only the size varies.
fn complexity() -> Vec<Claim> {
    let sizes: Vec<usize> =
        if paper_scale() { vec![500, 1000, 2000, 4000] } else { vec![128, 256, 512] };
    let p = 4;
    let full = rose_workload(*sizes.last().expect("sizes"), 0xC057);
    let points = sweep_n(&sizes, p, &SadConfig::default(), CostModel::beowulf_2008(), |n| {
        full[..n].to_vec()
    });
    let claim = |id, paper, phase, holds: fn(f64) -> bool| {
        let e = phase_exponent(&points, phase).unwrap_or(f64::NAN);
        Claim {
            id,
            paper,
            ours: Json::obj([
                ("sizes", counts(sizes.iter().copied())),
                ("p", Json::Num(p as f64)),
                ("phase", Json::str(phase.name())),
                ("exponent", num(e, 2)),
            ]),
            verdict: Verdict::of(holds(e)),
        }
    };
    vec![
        claim(
            "audit.rank_phase_quadratic",
            "Section 3: the local k-mer rank costs O(w^2 L), exponent 2 in N",
            Phase::LocalKmerRank,
            |e| (1.5..=2.5).contains(&e),
        ),
        claim(
            "audit.align_phase_superlinear",
            "Section 3: the local alignment costs O(w^4 + w L^2), super-linear in N",
            Phase::LocalAlign,
            |e| e > 1.1,
        ),
        claim(
            "audit.sample_exchange_flat",
            "Section 3: the sample exchange costs O(p^2 L), independent of N",
            Phase::SampleExchange,
            |e| e.abs() < 0.5,
        ),
    ]
}

fn main() {
    let steal_at_start = steal_ticks();
    let path = bench_path("paper");
    let committed = match std::fs::read_to_string(&path) {
        Ok(text) => Some(Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => panic!("read {}: {e}", path.display()),
    };
    let claims = [
        fig1(),
        rank_statistics(),
        scaling(),
        genome(),
        quality(),
        sampling(),
        fine_tune(),
        complexity(),
    ]
    .concat();
    let width = claims.iter().map(|c| c.id.len()).max().unwrap_or(0);
    for c in &claims {
        println!("{:<width$}  {:<13}  {}", c.id, c.verdict.name(), c.ours.encode());
    }

    let broken = committed.map_or_else(Vec::new, |doc| regressions(&doc, &claims));
    if !broken.is_empty() {
        for why in &broken {
            eprintln!("paper regression: {why}");
        }
        eprintln!("{} left unchanged", path.display());
        std::process::exit(1);
    }
    let written =
        BenchFile::new("paper", steal_at_start, claims.iter().map(Claim::json).collect()).write();
    println!("wrote {}", written.display());
}
