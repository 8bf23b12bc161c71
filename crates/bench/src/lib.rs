//! # sad-bench — the evaluation harness
//!
//! Four bench targets (see `benches/`):
//!
//! * `paper` recomputes every check of the paper's tables and figures
//!   once, as one [`Claim`] each, and commits them as `BENCH_paper.json`;
//!   it fails when a committed `Reproduced` claim stops reproducing
//!   ([`regressions`]);
//! * `dp_kernel` and `trim_quality` commit the kernel and trim baselines;
//! * `observer_overhead` asserts the observer layer costs nothing.
//!
//! This library holds the shared plumbing: workload construction,
//! paper-vs-scaled sizing, the claim type and its regression rule, and the
//! stamped [`BenchFile`] writer.
//!
//! Sizing: by default workloads are scaled down ~10× so the whole suite
//! finishes on a small CI box. Set `SAD_PAPER_SCALE=1` to run the paper's
//! exact sizes (N up to 20 000).
//!
//! Every committed baseline is written through [`BenchFile`], never by
//! formatting JSON by hand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bioseq::Sequence;
use rosegen::{Family, FamilyConfig, GenomeConfig, GenomeSample};
use sad_core::{Aligner, Backend, RunReport, SadConfig};
use sad_serve::Json;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;
use vcluster::{CostModel, VirtualCluster};

/// Run Sample-Align-D on a `p`-rank virtual Beowulf cluster — the
/// configuration the `paper` bench measures.
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

/// How one paper check came out on this tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The paper's claim holds.
    Reproduced,
    /// The claim's direction holds, but not its size at this scale.
    Partial,
    /// The claim does not hold.
    NotReproduced,
}

impl Verdict {
    /// The spelling `BENCH_paper.json` records.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Reproduced => "Reproduced",
            Verdict::Partial => "Partial",
            Verdict::NotReproduced => "NotReproduced",
        }
    }

    /// The verdict a recorded spelling names, if it is one of the three.
    fn parse(spelling: &str) -> Option<Verdict> {
        [Verdict::Reproduced, Verdict::Partial, Verdict::NotReproduced]
            .into_iter()
            .find(|v| v.name() == spelling)
    }

    /// `Reproduced` when the check holds, `NotReproduced` otherwise.
    pub fn of(holds: bool) -> Verdict {
        if holds {
            Verdict::Reproduced
        } else {
            Verdict::NotReproduced
        }
    }
}

/// One check of the paper: what the paper states, what this tree
/// computes, and whether they agree. Every `ours` value is virtual time, a
/// score, a rank or a count, so it repeats exactly on any host.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Stable id, `<figure|table|ablation|audit>.<check>`; the regression
    /// rule matches committed and fresh claims on it.
    pub id: &'static str,
    /// The paper's statement, with its numbers.
    pub paper: &'static str,
    /// The values this tree computes for the check.
    pub ours: Json,
    /// Whether the paper's statement holds on those values.
    pub verdict: Verdict,
}

impl Claim {
    /// The claim as one `entries` element of `BENCH_paper.json`.
    pub fn json(&self) -> Json {
        Json::obj([
            ("id", Json::str(self.id)),
            ("paper", Json::str(self.paper)),
            ("ours", self.ours.clone()),
            ("verdict", Json::str(self.verdict.name())),
        ])
    }
}

/// The `(id, verdict)` of every claim a committed document records, or
/// why the document cannot gate: a claim without an id, a verdict that is
/// not one of the three spellings, or an id recorded twice.
fn recorded_verdicts(doc: &Json) -> Result<Vec<(&str, Verdict)>, String> {
    let Some(Json::Arr(entries)) = doc.get("entries") else {
        return Err("the committed file has no entries array".into());
    };
    let mut seen = HashSet::new();
    entries
        .iter()
        .map(|entry| {
            let id = entry.get("id").and_then(Json::as_str).ok_or("a committed claim has no id")?;
            let spelling = entry.get("verdict").and_then(Json::as_str).unwrap_or_default();
            let verdict = Verdict::parse(spelling)
                .ok_or_else(|| format!("claim {id}: unknown verdict {spelling:?}"))?;
            if !seen.insert(id) {
                return Err(format!("claim {id} is committed twice"));
            }
            Ok((id, verdict))
        })
        .collect()
}

/// The regression rule of the `paper` bench: one message per committed
/// claim that `fresh` breaks. A claim committed as `Reproduced` must still
/// be `Reproduced`, and every committed id must still be computed; new ids
/// and moves between `Partial` and `NotReproduced` are allowed. A
/// committed file from the other `SAD_PAPER_SCALE` measures other sizes,
/// so it is skipped (with a note on stderr) rather than compared.
pub fn regressions(committed: &Json, fresh: &[Claim]) -> Vec<String> {
    match committed.get("paper_scale").and_then(Json::as_bool) {
        None => return vec!["the committed file has no paper_scale stamp".into()],
        Some(scale) if scale != paper_scale() => {
            eprintln!(
                "not comparing against the committed file: it ran with paper_scale={scale}, \
                 this run with paper_scale={}",
                paper_scale()
            );
            return Vec::new();
        }
        Some(_) => {}
    }
    let recorded = match recorded_verdicts(committed) {
        Ok(recorded) => recorded,
        Err(why) => return vec![why],
    };
    recorded
        .into_iter()
        .filter_map(|(id, was)| match fresh.iter().find(|c| c.id == id) {
            None => Some(format!("claim {id} is committed but no longer computed")),
            Some(c) if was == Verdict::Reproduced && c.verdict != Verdict::Reproduced => {
                Some(format!("claim {id} was Reproduced and is now {}", c.verdict.name()))
            }
            Some(_) => None,
        })
        .collect()
}

/// `BENCH_<name>.json` at the workspace root, where [`BenchFile::write`]
/// puts it.
pub fn bench_path(name: &str) -> PathBuf {
    workspace_root().join(format!("BENCH_{name}.json"))
}

/// A committed bench baseline, `BENCH_<name>.json` at the workspace root:
/// one [`Json`] document stamped with the provenance a number needs to be
/// read on another machine — `bench`, `commit` (`-dirty` for a modified
/// tree), `rustc` (the `rustc -V` line), `host_cores`, `paper_scale`,
/// `steal_ticks` (host steal accrued during the run, `null` where it
/// cannot be read) — around the bench's `entries`.
pub struct BenchFile {
    name: &'static str,
    steal_at_start: Option<u64>,
    entries: Vec<Json>,
}

impl BenchFile {
    /// A file named `BENCH_<name>.json` holding `entries`, from a run that
    /// began when the host's [`steal_ticks`] read `steal_at_start` (take
    /// that reading at the top of the bench's `main`).
    pub fn new(name: &'static str, steal_at_start: Option<u64>, entries: Vec<Json>) -> BenchFile {
        BenchFile { name, steal_at_start, entries }
    }

    /// The stamped document, encoded (one line plus a trailing newline).
    pub fn encode(&self) -> String {
        let steal = match (self.steal_at_start, steal_ticks()) {
            (Some(start), Some(now)) => Json::Num(now.saturating_sub(start) as f64),
            _ => Json::Null,
        };
        let doc = Json::obj([
            ("bench", Json::str(self.name)),
            ("commit", Json::str(commit())),
            ("rustc", Json::str(rustc())),
            ("host_cores", Json::num(bioseq::pool::cores() as u32)),
            ("paper_scale", Json::Bool(paper_scale())),
            ("steal_ticks", steal),
            ("entries", Json::Arr(self.entries.clone())),
        ]);
        doc.encode() + "\n"
    }

    /// Write the document to the workspace root and return its path.
    pub fn write(&self) -> PathBuf {
        let path = bench_path(self.name);
        std::fs::write(&path, self.encode())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        path
    }
}

/// The host's steal ticks so far: time (in `USER_HZ` ticks) the
/// hypervisor ran someone else while this machine's CPUs wanted to run,
/// summed over CPUs — the `steal` column of `/proc/stat`'s `cpu` line.
/// `None` where the file is missing or unreadable. Steal inflates wall
/// time without any change in the program, so a run stamps how much of
/// it accrued.
pub fn steal_ticks() -> Option<u64> {
    steal_of(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// The steal column (the eighth count) of the aggregate `cpu` line of a
/// `/proc/stat` text.
fn steal_of(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.split_whitespace().next() == Some("cpu"))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// The stdout of `program args…` run in the workspace root, or `None` when
/// it cannot start or fails.
fn stdout_of(program: &str, args: &[&str]) -> Option<String> {
    std::process::Command::new(program)
        .args(args)
        .current_dir(workspace_root())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
}

/// The `rustc -V` line of the toolchain on `PATH`, or `"unknown"`.
fn rustc() -> String {
    stdout_of("rustc", &["-V"]).map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
}

/// `git rev-parse --short HEAD` of the workspace plus `-dirty` when the
/// tree differs from it ([`dirty`]), or `"unknown"` outside a checkout.
fn commit() -> String {
    let git = |args: &[&str]| stdout_of("git", args);
    let Some(head) = git(&["rev-parse", "--short", "HEAD"]) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(status) if !dirty(&status) => head.to_string(),
        _ => format!("{head}-dirty"),
    }
}

/// Whether `git status --porcelain` output shows a tracked change outside
/// the `BENCH_*.json` baselines at the workspace root, which the benches
/// rewrite themselves: a number measured in such a tree is not `HEAD`'s.
fn dirty(porcelain: &str) -> bool {
    let baseline =
        |path: &str| path.starts_with("BENCH_") && path.ends_with(".json") && !path.contains('/');
    porcelain.lines().any(|line| !line.get(3..).unwrap_or("").split(" -> ").all(baseline))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_file_parses_back_with_every_stamp() {
        let entry =
            Json::obj([("case", Json::str("global_600")), ("seconds_median", Json::Num(0.5))]);
        let doc = Json::parse(&BenchFile::new("unit", steal_ticks(), vec![entry.clone()]).encode())
            .expect("BenchFile output is valid JSON");
        for key in
            ["bench", "commit", "rustc", "host_cores", "paper_scale", "steal_ticks", "entries"]
        {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
        // Steal is a tick count where the host exposes it, null elsewhere.
        let steal = doc.get("steal_ticks").unwrap();
        match steal_ticks() {
            Some(_) => assert!(steal.as_u64().is_some(), "steal_ticks {steal:?}"),
            None => assert_eq!(steal, &Json::Null),
        }
        let unread = Json::parse(&BenchFile::new("unit", None, Vec::new()).encode()).unwrap();
        assert_eq!(unread.get("steal_ticks"), Some(&Json::Null), "no start reading, no count");
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("unit"));
        assert!(doc.get("host_cores").and_then(Json::as_u64).is_some_and(|n| n >= 1));
        assert_eq!(doc.get("paper_scale").and_then(Json::as_bool), Some(paper_scale()));
        assert_eq!(doc.get("entries"), Some(&Json::Arr(vec![entry])));
    }

    #[test]
    fn steal_is_the_eighth_count_of_the_cpu_line() {
        let stat = "cpu  2089204 0 99654 3480535 6386 0 5831 50547 0 0\n\
                    cpu0 971605 0 53135 1808621 3719 0 2506 27562 0 0\n";
        assert_eq!(steal_of(stat), Some(50547));
        assert_eq!(steal_of("cpu0 1 2 3 4 5 6 7 8 9 10\n"), None, "aggregate line only");
        assert_eq!(steal_of("cpu  1 2 3 4\n"), None, "kernels before steal accounting");
        assert_eq!(steal_of(""), None);
    }

    #[test]
    fn dirty_ignores_only_the_bench_baselines() {
        assert!(!dirty(""));
        assert!(!dirty(" M BENCH_paper.json\nM  BENCH_dp_kernel.json\n"));
        assert!(dirty(" M BENCH_paper.json\n M crates/psrs/src/lib.rs\n"));
        assert!(dirty("D  vendor/rand/src/lib.rs\n"));
        assert!(dirty(" M benchmark/BENCH_x.json\n"));
        assert!(dirty(" M BENCH_paper.json.orig\n"));
        assert!(dirty("R  BENCH_a.json -> src/a.json\n"));
        assert!(!dirty("R  BENCH_a.json -> BENCH_b.json\n"));
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
        assert!(report.makespan().is_some_and(|t| t > 0.0));
    }

    fn claim(id: &'static str, verdict: Verdict) -> Claim {
        Claim { id, paper: "", ours: Json::Null, verdict }
    }

    /// A committed document at `scale` holding `(id, verdict spelling)`s.
    fn committed(scale: bool, claims: &[(&str, &str)]) -> Json {
        let entries = claims
            .iter()
            .map(|&(id, verdict)| {
                Json::obj([("id", Json::str(id)), ("verdict", Json::str(verdict))])
            })
            .collect();
        Json::obj([("paper_scale", Json::Bool(scale)), ("entries", Json::Arr(entries))])
    }

    #[test]
    fn regressions_flag_lost_reproductions_and_lost_ids_only() {
        use Verdict::{NotReproduced, Partial, Reproduced};
        let doc = committed(
            paper_scale(),
            &[("a", "Reproduced"), ("b", "Reproduced"), ("c", "Partial"), ("d", "NotReproduced")],
        );
        let all_hold = [claim("a", Reproduced), claim("b", Reproduced), claim("c", Partial)];
        assert_eq!(
            regressions(&doc, &[&all_hold[..], &[claim("d", Reproduced)]].concat()),
            Vec::<String>::new(),
            "a claim may improve"
        );
        assert_eq!(
            regressions(
                &doc,
                &[&all_hold[..], &[claim("d", Partial), claim("new", NotReproduced)]].concat()
            ),
            Vec::<String>::new(),
            "a new id and a non-Reproduced claim moving are allowed"
        );
        for fallen in [Partial, NotReproduced] {
            let fresh = [
                claim("a", Reproduced),
                claim("b", fallen),
                claim("c", NotReproduced),
                claim("d", NotReproduced),
            ];
            assert_eq!(
                regressions(&doc, &fresh),
                vec![format!("claim b was Reproduced and is now {}", fallen.name())]
            );
        }
        assert_eq!(
            regressions(
                &doc,
                &[claim("a", Reproduced), claim("b", Reproduced), claim("c", Partial)]
            ),
            vec!["claim d is committed but no longer computed".to_string()]
        );
    }

    #[test]
    fn regressions_accept_a_file_from_before_the_steal_stamp() {
        // `committed` builds documents without `steal_ticks`, as every
        // file written before the stamp existed is.
        let doc = committed(paper_scale(), &[("a", "Reproduced")]);
        assert_eq!(doc.get("steal_ticks"), None);
        assert!(regressions(&doc, &[claim("a", Verdict::Reproduced)]).is_empty());
    }

    #[test]
    fn regressions_skip_a_file_from_the_other_scale() {
        let doc = committed(!paper_scale(), &[("a", "Reproduced")]);
        assert!(regressions(&doc, &[claim("a", Verdict::NotReproduced)]).is_empty());
        assert!(regressions(&doc, &[]).is_empty());
    }

    #[test]
    fn regressions_reject_a_file_that_cannot_gate() {
        let fresh = [claim("a", Verdict::Reproduced)];
        let misspelt = committed(paper_scale(), &[("a", "reproduced")]);
        assert_eq!(regressions(&misspelt, &fresh), vec!["claim a: unknown verdict \"reproduced\""]);
        let twice = committed(paper_scale(), &[("a", "Partial"), ("a", "Partial")]);
        assert_eq!(regressions(&twice, &fresh), vec!["claim a is committed twice"]);
        let unstamped = Json::obj([("entries", Json::Arr(Vec::new()))]);
        assert_eq!(
            regressions(&unstamped, &fresh),
            vec!["the committed file has no paper_scale stamp"]
        );
    }

    #[test]
    fn committed_paper_file_can_gate() {
        let path = bench_path("paper");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("paper"));
        assert!(doc.get("paper_scale").and_then(Json::as_bool).is_some());
        // Unique ids, each with one of the three verdict spellings.
        let recorded = recorded_verdicts(&doc).unwrap_or_else(|e| panic!("{e}"));
        assert!(!recorded.is_empty());
    }

    #[test]
    fn genome_mean_length_echoes_acetivorans() {
        let seqs = genome_workload(300, 2);
        let mean: f64 = seqs.iter().map(|s| s.len() as f64).sum::<f64>() / seqs.len() as f64;
        assert!((mean - 316.0).abs() < 90.0, "mean {mean}");
    }
}
