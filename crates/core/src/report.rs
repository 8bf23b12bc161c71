//! The unified run report shared by all three backends.
//!
//! Every backend records its run through the same
//! [`crate::pipeline::PipelineCtx`], so [`RunReport`] carries what *every*
//! backend can produce — the alignment, total and per-phase work, real
//! wall-clock seconds per phase, the bucket/sample audit — and keeps
//! backend-specific extras (virtual makespan, per-rank traces) behind
//! [`BackendExtras`].

use crate::decomp::VerticalReport;
use crate::pipeline::Phase;
use bioseq::{Msa, Work};
use vcluster::RankTrace;

/// One pipeline phase's contribution to a run.
///
/// Marked `#[non_exhaustive]`: produced by the pipeline recorder, read
/// freely; future fields are not breaking changes.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct PhaseStat {
    /// Which pipeline phase (typed; [`Phase::name`] gives the stable
    /// label, e.g. `"8-local-align"`).
    pub phase: Phase,
    /// Work performed in the phase, summed over ranks/threads.
    pub work: Work,
    /// Real wall-clock seconds the phase took (first rank in → last rank
    /// out on the decomposed backends). Populated for every phase of a
    /// completed run.
    pub seconds: Option<f64>,
    /// *Virtual* seconds under the cluster's cost model: the maximum over
    /// ranks of how far the rank's clock advanced inside the phase. `None`
    /// off-cluster (only the distributed backend models virtual time) and
    /// for the root-side [`Phase::Trim`] post-pass.
    pub virtual_seconds: Option<f64>,
}

impl PhaseStat {
    /// The phase's stable label (shorthand for `self.phase.name()`).
    pub fn name(&self) -> &'static str {
        self.phase.name()
    }
}

/// Census of the alignment-area trim stage ([`Phase::Trim`]): what the
/// MaxAlign-style optimizer dropped and what it bought. The invariant
/// `area_after >= area_before` always holds — dropping nothing is always
/// a candidate move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct TrimReport {
    /// Rows excluded from the alignment.
    pub rows_dropped: usize,
    /// Gap-free columns gained by the exclusions.
    pub cols_gained: usize,
    /// `rows × gap-free columns` before the trim.
    pub area_before: u64,
    /// `rows × gap-free columns` after the trim (never smaller).
    pub area_after: u64,
}

impl TrimReport {
    /// Net area gained by the trim.
    pub fn area_gain(&self) -> u64 {
        self.area_after - self.area_before
    }
}

impl From<&align::TrimOutcome> for TrimReport {
    fn from(outcome: &align::TrimOutcome) -> TrimReport {
        TrimReport {
            rows_dropped: outcome.rows_dropped(),
            cols_gained: outcome.cols_gained(),
            area_before: outcome.area_before,
            area_after: outcome.area_after,
        }
    }
}

/// The census line every surface prints:
/// `trim: dropped R rows, gained C gap-free columns, area A -> B`.
impl std::fmt::Display for TrimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trim: dropped {} rows, gained {} gap-free columns, area {} -> {}",
            self.rows_dropped, self.cols_gained, self.area_before, self.area_after
        )
    }
}

/// A table cell for DP cells as `filled/full-equivalent`, or `-` when the
/// work did no DP.
pub(crate) fn dp_pair(w: &Work) -> String {
    if w.dp_cells_full == 0 {
        "-".to_string()
    } else {
        format!("{}/{}", w.dp_cells, w.dp_cells_full)
    }
}

/// What only one backend can report.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BackendExtras {
    /// The engine ran directly on the whole set; nothing extra.
    Sequential,
    /// Shared-memory run on the worker pool ([`RunReport::ranks`] holds
    /// the bucket count).
    Rayon,
    /// Message-passing run on the virtual cluster.
    Distributed {
        /// Virtual wall-clock of the run (seconds).
        makespan: f64,
        /// Per-rank execution traces (clocks, compute/comm split, bytes).
        traces: Vec<RankTrace>,
    },
}

/// The outcome of one [`crate::Aligner::run`], whatever the backend.
///
/// Marked `#[non_exhaustive]`: construct via the aligner, read fields
/// freely; future fields are not breaking changes.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct RunReport {
    /// The assembled global alignment.
    pub msa: Msa,
    /// Total work performed across all phases and ranks.
    pub work: Work,
    /// Per-phase breakdown in pipeline order.
    pub phases: Vec<PhaseStat>,
    /// Post-redistribution bucket sizes, indexed by rank/bucket.
    /// The sequential backend reports one bucket holding everything.
    pub bucket_sizes: Vec<usize>,
    /// Ranks/buckets the pipeline decomposed over (1 for sequential).
    pub ranks: usize,
    /// Effective regular samples contributed per rank (`k` in the paper).
    pub samples_per_rank: usize,
    /// Maximum recursion depth of hierarchical sub-partitioning
    /// ([`Phase::SubPartition`]): 0 when every first-pass bucket already
    /// fit [`crate::SadConfig::max_bucket`] — or when no cap was set.
    pub decomposition_depth: usize,
    /// DP kernel selection the run was configured with
    /// ([`align::DpKernel::label`]: `"scalar"` or `"auto"`). The kernel
    /// never changes results or work accounting: `"auto"` runs the
    /// striped fill only where its decisions are provably the scalar
    /// fill's. This label records the choice, not the fills that ran.
    pub kernel: &'static str,
    /// Vertical (length-wise) decomposition census — anchors found, block
    /// widths, seam windows refined. `None` when the run aligned whole
    /// sequences ([`crate::SadConfig::vertical`] unset).
    pub vertical: Option<VerticalReport>,
    /// Alignment-area trim census — rows dropped, columns gained, area
    /// before/after. `None` when the run did not trim
    /// ([`crate::SadConfig::trim`] unset).
    pub trim: Option<TrimReport>,
    /// Backend-specific extras.
    pub extras: BackendExtras,
}

impl RunReport {
    /// Stable name of the backend that produced this report.
    pub fn backend_name(&self) -> &'static str {
        match self.extras {
            BackendExtras::Sequential => "sequential",
            BackendExtras::Rayon => "rayon",
            BackendExtras::Distributed { .. } => "distributed",
        }
    }

    /// Virtual wall-clock seconds (distributed backend only).
    pub fn makespan(&self) -> Option<f64> {
        match &self.extras {
            BackendExtras::Distributed { makespan, .. } => Some(*makespan),
            _ => None,
        }
    }

    /// Per-rank execution traces (distributed backend only).
    pub fn traces(&self) -> Option<&[RankTrace]> {
        match &self.extras {
            BackendExtras::Distributed { traces, .. } => Some(traces),
            _ => None,
        }
    }

    /// The recorded stat for one phase, if the run executed it.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.phase == phase)
    }

    /// The typed phase sequence of the run, in execution order.
    pub fn phase_sequence(&self) -> Vec<Phase> {
        self.phases.iter().map(|p| p.phase).collect()
    }

    /// Load imbalance: largest bucket relative to the perfect share.
    pub fn load_imbalance(&self) -> f64 {
        let n: usize = self.bucket_sizes.iter().sum();
        let max = self.bucket_sizes.iter().copied().max().unwrap_or(0);
        if n == 0 {
            return 1.0;
        }
        max as f64 / (n as f64 / self.bucket_sizes.len() as f64)
    }

    /// The unified per-phase table every backend can print: phase name,
    /// work units, DP cells as `filled/full-equivalent` (what the banded
    /// kernel actually touched vs what an unbanded fill would have), real
    /// wall-clock seconds, and (when the backend models time) the maximum
    /// virtual seconds across ranks.
    pub fn phase_table(&self) -> String {
        use std::fmt::Write;
        let secs =
            |s: Option<f64>| s.map_or_else(|| format!("{:>12}", "-"), |s| format!("{s:>12.4}"));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>14} {:>21} {:>12} {:>12}",
            "phase", "work units", "dp cells (band/full)", "wall (s)", "virt max (s)"
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "{:<28} {:>14} {:>21} {} {}",
                p.name(),
                p.work.total_units(),
                dp_pair(&p.work),
                secs(p.seconds),
                secs(p.virtual_seconds)
            );
        }
        let _ = writeln!(
            out,
            "{:<28} {:>14} {:>21}",
            "total",
            self.work.total_units(),
            dp_pair(&self.work)
        );
        let _ = writeln!(out, "dp kernel: {}", self.kernel);
        if let Some(v) = &self.vertical {
            let _ = writeln!(
                out,
                "decomposition: {} blocks x mean len {:.1}, {} seam windows refined",
                v.blocks(),
                v.mean_block_cols(),
                v.seam_windows
            );
        }
        if let Some(t) = &self.trim {
            let _ = writeln!(out, "{t}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        let msa = Msa::from_rows(vec!["a".into(), "b".into()], vec![vec![0, 1, 2], vec![0, 1, 3]]);
        RunReport {
            msa,
            work: Work::dp(10) + Work::kmer(5),
            phases: vec![
                PhaseStat {
                    phase: Phase::LocalKmerRank,
                    work: Work::kmer(5),
                    seconds: Some(0.125),
                    virtual_seconds: None,
                },
                PhaseStat {
                    phase: Phase::LocalAlign,
                    work: Work::dp(10),
                    seconds: Some(0.25),
                    virtual_seconds: Some(1.5),
                },
            ],
            bucket_sizes: vec![2, 0],
            ranks: 2,
            samples_per_rank: 1,
            decomposition_depth: 0,
            kernel: "auto",
            vertical: None,
            trim: None,
            extras: BackendExtras::Rayon,
        }
    }

    #[test]
    fn phase_table_lists_every_phase_and_total() {
        let table = report().phase_table();
        assert!(table.contains("1-local-kmer-rank"));
        assert!(table.contains("8-local-align"));
        assert!(table.contains("total"));
        assert!(table.contains("0.2500"));
        assert!(table.contains("1.5000"), "virtual column renders:\n{table}");
        assert!(table.contains('-'), "phases without a virtual clock render a dash");
        // The DP column prints filled/full-equivalent cells.
        assert!(table.contains("dp cells (band/full)"));
        assert!(table.contains("wall (s)"));
        assert!(table.contains("10/10"), "Work::dp sets both counters:\n{table}");
        assert!(table.contains("dp kernel: auto"), "kernel label renders:\n{table}");
        assert!(!table.contains("decomposition:"), "no vertical line without a vertical run");
        assert!(!table.contains("trim:"), "no trim line without a trim run");
    }

    #[test]
    fn phase_table_prints_trim_census() {
        let mut r = report();
        r.trim =
            Some(TrimReport { rows_dropped: 2, cols_gained: 14, area_before: 96, area_after: 180 });
        let table = r.phase_table();
        assert!(
            table.contains("trim: dropped 2 rows, gained 14 gap-free columns, area 96 -> 180"),
            "{table}"
        );
        assert_eq!(r.trim.unwrap().area_gain(), 84);
    }

    #[test]
    fn phase_table_prints_decomposition_census() {
        let mut r = report();
        r.vertical =
            Some(VerticalReport { anchors: 3, block_cols: vec![100, 150, 110], seam_windows: 2 });
        let table = r.phase_table();
        assert!(table.contains("decomposition: 3 blocks x mean len 120.0"), "{table}");
        assert!(table.contains("2 seam windows refined"), "{table}");
    }

    #[test]
    fn phase_table_shows_banded_savings() {
        let mut r = report();
        r.phases[1].work = Work::dp_banded(4, 10);
        r.work = r.phases.iter().map(|p| p.work).sum();
        let table = r.phase_table();
        assert!(table.contains("4/10"), "{table}");
    }

    #[test]
    fn accessors_match_extras() {
        let r = report();
        assert_eq!(r.backend_name(), "rayon");
        assert_eq!(r.makespan(), None);
        assert!(r.traces().is_none());
    }

    #[test]
    fn typed_phase_lookup() {
        let r = report();
        assert_eq!(r.phase_sequence(), vec![Phase::LocalKmerRank, Phase::LocalAlign]);
        assert_eq!(r.phase(Phase::LocalAlign).unwrap().seconds, Some(0.25));
        assert_eq!(r.phase(Phase::Glue), None);
        assert_eq!(r.phases[0].name(), "1-local-kmer-rank");
    }

    #[test]
    fn load_imbalance_of_skewed_buckets() {
        let r = report();
        // 2 sequences in 2 buckets, all in one: max / (n/p) = 2 / 1 = 2.
        assert!((r.load_imbalance() - 2.0).abs() < 1e-12);
    }
}
