//! # sad-bench — the evaluation harness
//!
//! One bench target per table/figure of the paper (see `benches/`), plus
//! ablations and micro-kernel benchmarks. This library holds the shared
//! plumbing: workload construction, paper-vs-scaled sizing, and table
//! printing.
//!
//! Every figure bench runs its experiment **once** (outside criterion's
//! measurement loop — the figures are deterministic virtual-time results,
//! not wall-clock samples), prints the series the paper reports, and then
//! registers a small criterion measurement over a representative kernel so
//! `cargo bench` retains real benchmarking semantics.
//!
//! Sizing: by default workloads are scaled down ~10× so the whole suite
//! finishes on a small CI box. Set `SAD_PAPER_SCALE=1` to run the paper's
//! exact sizes (N up to 20 000).
//!
//! The benches that commit a baseline (`dp_kernel`, `trim_quality`) write
//! it through [`BenchFile`], never by formatting JSON by hand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bioseq::Sequence;
use rosegen::{Family, FamilyConfig, GenomeConfig, GenomeSample};
use sad_core::{Aligner, Backend, RunReport, SadConfig};
use sad_serve::Json;
use std::path::{Path, PathBuf};
use std::time::Instant;
use vcluster::{CostModel, VirtualCluster};

/// Run Sample-Align-D on a `p`-rank virtual Beowulf cluster — the
/// configuration every figure/table bench measures.
///
/// Bench workloads are generated and therefore always valid, so the
/// typed-error path is unreachable here and the helper unwraps.
pub fn sad_on_cluster(p: usize, seqs: &[Sequence], cfg: &SadConfig) -> RunReport {
    let cluster = VirtualCluster::new(p, CostModel::beowulf_2008());
    Aligner::new(cfg.clone())
        .backend(Backend::Distributed(cluster))
        .run(seqs)
        .expect("bench workloads are valid inputs")
}

/// The virtual makespan of [`sad_on_cluster`] — the series the paper's
/// timing figures plot.
pub fn sad_makespan(p: usize, seqs: &[Sequence], cfg: &SadConfig) -> f64 {
    sad_on_cluster(p, seqs, cfg).makespan().expect("distributed runs have a makespan")
}

/// Whether the paper's full-size workloads were requested.
pub fn paper_scale() -> bool {
    std::env::var("SAD_PAPER_SCALE").map(|v| v == "1").unwrap_or(false)
}

/// Scale a paper workload size: identity under `SAD_PAPER_SCALE=1`,
/// otherwise `n / 10` (minimum 64).
pub fn scaled(paper_n: usize) -> usize {
    if paper_scale() {
        paper_n
    } else {
        (paper_n / 10).max(64)
    }
}

/// The processor counts of the paper's scaling plots.
pub const PAPER_PROCS: [usize; 5] = [1, 4, 8, 12, 16];

/// The rose-style workload of the scaling experiments: average length 300,
/// relatedness 800 ("not very close"), evenly spread k-mer ranks.
pub fn rose_workload(n: usize, seed: u64) -> Vec<Sequence> {
    Family::generate(&FamilyConfig {
        n_seqs: n,
        avg_len: 300,
        len_sd: 20.0,
        relatedness: 800.0,
        seed,
        id_prefix: "rose".into(),
        ..Default::default()
    })
    .seqs
}

/// The Fig. 6 workload: a diverse genome-like sample, average length 316.
pub fn genome_workload(n: usize, seed: u64) -> Vec<Sequence> {
    GenomeSample::generate(&GenomeConfig {
        n_seqs: n,
        n_families: (n / 50).max(4),
        avg_len: 316,
        seed,
        ..Default::default()
    })
    .seqs
}

/// Print a labelled experiment header so bench output reads like the
/// paper's evaluation section.
pub fn banner(experiment: &str, what: &str) {
    println!("\n================================================================");
    println!("{experiment}: {what}");
    println!("(scaled workload; set SAD_PAPER_SCALE=1 for the paper's sizes)");
    println!("================================================================");
}

/// Print rows as an aligned table *and* as CSV (for EXPERIMENTS.md).
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, String::len))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let fmt_row = |cells: Vec<&str>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(headers.to_vec()));
    for row in rows {
        println!("{}", fmt_row(row.iter().map(String::as_str).collect()));
    }
    println!("-- csv --");
    println!("{}", headers.join(","));
    for row in rows {
        println!("{}", row.join(","));
    }
}

/// The median of `xs` (the upper median for an even count).
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median wall time, in seconds, of `runs` calls to `f`.
pub fn median_seconds(runs: usize, mut f: impl FnMut()) -> f64 {
    median(
        (0..runs)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// A committed bench baseline, `BENCH_<name>.json` at the workspace root:
/// one [`Json`] document stamped with the provenance a number needs to be
/// read on another machine — `bench`, `commit`, `host_cores`,
/// `paper_scale` — around the bench's `entries`.
pub struct BenchFile {
    name: &'static str,
    entries: Vec<Json>,
}

impl BenchFile {
    /// A file named `BENCH_<name>.json` holding `entries`.
    pub fn new(name: &'static str, entries: Vec<Json>) -> BenchFile {
        BenchFile { name, entries }
    }

    /// The stamped document, encoded (one line plus a trailing newline).
    pub fn encode(&self) -> String {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let doc = Json::obj([
            ("bench", Json::str(self.name)),
            ("commit", Json::str(commit())),
            ("host_cores", Json::num(cores as u32)),
            ("paper_scale", Json::Bool(paper_scale())),
            ("entries", Json::Arr(self.entries.clone())),
        ]);
        doc.encode() + "\n"
    }

    /// Write the document to the workspace root and return its path.
    pub fn write(&self) -> PathBuf {
        let path = workspace_root().join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.encode())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        path
    }
}

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// `git rev-parse --short HEAD` of the workspace, or `"unknown"`.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(workspace_root())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_file_parses_back_with_every_stamp() {
        let entry =
            Json::obj([("case", Json::str("global_600")), ("seconds_median", Json::Num(0.5))]);
        let doc = Json::parse(&BenchFile::new("unit", vec![entry.clone()]).encode())
            .expect("BenchFile output is valid JSON");
        for key in ["bench", "commit", "host_cores", "paper_scale", "entries"] {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("unit"));
        assert!(doc.get("host_cores").and_then(Json::as_u64).is_some_and(|n| n >= 1));
        assert_eq!(doc.get("paper_scale").and_then(Json::as_bool), Some(paper_scale()));
        assert_eq!(doc.get("entries"), Some(&Json::Arr(vec![entry])));
    }

    #[test]
    fn median_picks_the_middle() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 3.0, "upper median for an even count");
    }

    #[test]
    fn scaling_rules() {
        if !paper_scale() {
            assert_eq!(scaled(5000), 500);
            assert_eq!(scaled(200), 64);
        }
    }

    #[test]
    fn workloads_have_requested_sizes() {
        assert_eq!(rose_workload(70, 1).len(), 70);
        assert_eq!(genome_workload(80, 1).len(), 80);
    }

    #[test]
    fn cluster_helper_reports_makespan() {
        let seqs = rose_workload(64, 3);
        let cfg = SadConfig::default();
        let report = sad_on_cluster(2, &seqs, &cfg);
        assert_eq!(report.msa.num_rows(), 64);
        assert!(sad_makespan(2, &seqs, &cfg) > 0.0);
    }

    #[test]
    fn genome_mean_length_echoes_acetivorans() {
        let seqs = genome_workload(300, 2);
        let mean: f64 = seqs.iter().map(|s| s.len() as f64).sum::<f64>() / seqs.len() as f64;
        assert!((mean - 316.0).abs() < 90.0, "mean {mean}");
    }
}
