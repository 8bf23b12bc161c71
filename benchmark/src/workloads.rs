//! The seven workloads: what goes in, which `sad` command runs, and why.

use crate::inputs::FamilyShape;
use sad_core::{Backend, SadConfig, VerticalConfig};
use vcluster::{CostModel, VirtualCluster};

/// One way of running the pipeline, as `sad` flags and as the in-process
/// configuration the traced run uses. The traced run checks that both
/// give the same bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pipeline {
    Rayon {
        threads: usize,
    },
    Distributed {
        p: usize,
    },
    Sequential,
    RayonVertical {
        threads: usize,
    },
    /// `sad reads` with its hierarchical bucket cap.
    Reads {
        max_bucket: usize,
    },
}

/// `--p` default of `sad reads`, which it widens to `reads / cap`.
const READS_DEFAULT_P: usize = 4;

impl Pipeline {
    /// The `sad` command line for `input`, writing the alignment to
    /// stdout (`align`) or to `out` (`reads`).
    pub fn command(&self, input: &str, out: &str) -> Vec<String> {
        let width = |n: usize| n.to_string();
        let words: Vec<&str> = match self {
            Pipeline::Rayon { .. } => vec!["align", input, "--backend", "rayon", "--threads"],
            Pipeline::Distributed { .. } => vec!["align", input, "--backend", "distributed", "--p"],
            Pipeline::Sequential => vec!["align", input, "--backend", "sequential"],
            Pipeline::RayonVertical { .. } => {
                vec!["align", input, "--vertical", "--backend", "rayon", "--threads"]
            }
            Pipeline::Reads { .. } => vec!["reads", input, "--out", out, "--max-bucket"],
        };
        let last = match *self {
            Pipeline::Rayon { threads } | Pipeline::RayonVertical { threads } => {
                Some(width(threads))
            }
            Pipeline::Distributed { p } => Some(width(p)),
            Pipeline::Reads { max_bucket } => Some(width(max_bucket)),
            Pipeline::Sequential => None,
        };
        words.into_iter().map(String::from).chain(last).collect()
    }

    /// Whether the alignment lands in the `--out` file instead of stdout.
    pub fn writes_out_file(&self) -> bool {
        matches!(self, Pipeline::Reads { .. })
    }

    /// What `sad` builds from [`Pipeline::command`] for `n` sequences.
    pub fn build(&self, n: usize) -> (SadConfig, Backend) {
        let cfg = SadConfig::default();
        match *self {
            Pipeline::Rayon { threads } => (cfg, Backend::Rayon { threads }),
            Pipeline::Distributed { p } => {
                (cfg, Backend::Distributed(VirtualCluster::new(p, CostModel::beowulf_2008())))
            }
            Pipeline::Sequential => (cfg, Backend::Sequential),
            Pipeline::RayonVertical { threads } => {
                (cfg.with_vertical(VerticalConfig::default()), Backend::Rayon { threads })
            }
            Pipeline::Reads { max_bucket } => (
                cfg.with_max_bucket(Some(max_bucket)),
                Backend::Rayon { threads: READS_DEFAULT_P.max(n.div_ceil(max_bucket)) },
            ),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// One family in a FASTA file, aligned by one `sad align`.
    Align { family: FamilyShape, pipeline: Pipeline },
    /// Simulated reads in a FASTA file, aligned by one `sad reads`.
    Reads { sources: FamilyShape, reads: usize, pipeline: Pipeline },
    /// A session of jobs against a spawned `sad serve`.
    Serve { small: FamilyShape, large: FamilyShape, jobs: usize, clients: usize, workers: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

// Sizes are the issue's shapes scaled until one run of every workload,
// with three set-ups, fits the driver's budget of about twenty seconds a
// run (158 runs in 57 minutes): 800 sequences instead of 2000, 128 long
// sequences instead of 256, 4000 reads instead of 8000, 80 jobs a
// session instead of 240. README.md has the table.
const FAMILY: FamilyShape = FamilyShape {
    n: 800,
    len: 300,
    len_sd: 20.0,
    relatedness: 800.0,
    candidates: 32,
    nominal_cols: 343.0,
    nominal_identity: 0.63,
};
const LONG: FamilyShape = FamilyShape {
    n: 128,
    len: 5000,
    len_sd: 0.0,
    relatedness: 120.0,
    candidates: 12,
    nominal_cols: 5085.0,
    nominal_identity: 0.915,
};
const READ_SOURCES: FamilyShape = FamilyShape {
    n: 4,
    len: 400,
    len_sd: 15.0,
    relatedness: 800.0,
    candidates: 64,
    nominal_cols: 419.0,
    nominal_identity: 0.5,
};
// One candidate, so no selection: a session pools dozens of families,
// which averages their spread away.
const SERVE_SMALL: FamilyShape = FamilyShape {
    n: 64,
    len: 150,
    len_sd: 15.0,
    relatedness: 700.0,
    candidates: 1,
    nominal_cols: 161.0,
    nominal_identity: 0.66,
};
const SERVE_LARGE: FamilyShape =
    FamilyShape { n: 200, len: 250, nominal_cols: 275.0, ..SERVE_SMALL };

/// The workloads in report order; `quick` divides every count by ten.
pub fn all(quick: bool) -> Vec<Workload> {
    let fam = |s: FamilyShape| if quick { s.tenth() } else { s };
    let count = |n: usize| if quick { n / 10 } else { n };
    vec![
        Workload {
            name: "family_rayon",
            why: "The paper's headline shape on the shared-memory backend: ranking (phases 1 and 5) and bucket alignment each do a large share, so rank, psrs, engine and kernel work all move it.",
            kind: Kind::Align { family: fam(FAMILY), pipeline: Pipeline::Rayon { threads: 16 } },
        },
        Workload {
            name: "family_distributed",
            why: "Same file over vcluster message passing: the only workload where collectives, wire sizes and the cost model do work.",
            kind: Kind::Align { family: fam(FAMILY), pipeline: Pipeline::Distributed { p: 16 } },
        },
        Workload {
            name: "family_sequential",
            why: "Same file on the plain single-engine baseline the speedup is quoted against; bypasses rank/psrs/ancestor/glue, so a ranking change must show no change here.",
            kind: Kind::Align { family: fam(FAMILY), pipeline: Pipeline::Sequential },
        },
        Workload {
            name: "long_whole",
            why: "Few long sequences: time is the banded DP kernel in 8-local-align; ranking does little.",
            kind: Kind::Align { family: fam(LONG), pipeline: Pipeline::Rayon { threads: 4 } },
        },
        Workload {
            name: "long_vertical",
            why: "Same file with --vertical: anchor scan, block jobs and seam glue use the DP layer differently, so a kernel gain that costs the vertical path shows as a pair.",
            kind: Kind::Align { family: fam(LONG), pipeline: Pipeline::RayonVertical { threads: 4 } },
        },
        Workload {
            name: "reads_large",
            why: "The Pyro-Align regime of many short rows and capped buckets: rank phases, glue and FASTA output dominate, DP does not.",
            kind: Kind::Reads { sources: READ_SOURCES, reads: count(4000), pipeline: Pipeline::Reads { max_bucket: 512 } },
        },
        Workload {
            name: "serve_mix",
            why: "Jobs against a spawned sad serve: the only workload where queue, journal fsync, cache, JSON and sockets do work; repeats exercise the cache-hit path beside the compute path.",
            kind: Kind::Serve { small: SERVE_SMALL, large: SERVE_LARGE, jobs: count(80).max(10), clients: 2, workers: 2 },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_and_in_process_configuration_agree_with_the_cli_parser() {
        // `sad`'s own parser must accept every command line, and what it
        // parses must be what `build` assumes.
        for p in [
            Pipeline::Rayon { threads: 16 },
            Pipeline::Distributed { p: 16 },
            Pipeline::Sequential,
            Pipeline::RayonVertical { threads: 4 },
            Pipeline::Reads { max_bucket: 512 },
        ] {
            let words = p.command("in.fa", "out.fa");
            let parsed = sad_cli::args::parse(words.iter().map(String::as_str))
                .unwrap_or_else(|e| panic!("{words:?}: {e}"));
            let (cfg, backend) = p.build(4000);
            match parsed.command {
                sad_cli::Command::Align(a) => {
                    assert_eq!(a.vertical, cfg.vertical.is_some());
                    assert_eq!(a.engine, cfg.engine);
                    assert_eq!(a.band, cfg.band_policy);
                    assert_eq!(a.kernel, cfg.dp_kernel);
                    let width = match backend {
                        Backend::Sequential => 1,
                        Backend::Rayon { threads } => threads,
                        Backend::Distributed(c) => c.p(),
                    };
                    assert_eq!(a.parallelism(), width);
                }
                sad_cli::Command::Reads(r) => {
                    assert_eq!(r.max_bucket, cfg.max_bucket);
                    assert_eq!(r.parallelism(), READS_DEFAULT_P);
                    assert!(matches!(backend, Backend::Rayon { threads: 8 }));
                }
                other => panic!("unexpected command {other:?}"),
            }
        }
    }

    #[test]
    fn names_are_unique_and_quick_is_a_tenth() {
        let full = all(false);
        let names: std::collections::HashSet<_> = full.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 7);
        match (full[0].kind, all(true)[0].kind) {
            (Kind::Align { family: f, .. }, Kind::Align { family: q, .. }) => {
                assert_eq!(q.n, f.n / 10)
            }
            _ => panic!("family_rayon is an align workload"),
        }
    }
}
