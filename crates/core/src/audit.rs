//! Complexity audit — an executable version of the paper's Section 3 cost
//! table.
//!
//! Section 3 derives per-step computation costs (`w²L` for the local rank,
//! `w log w` for the local sort, `w⁴ + wL²` for the local alignment, …)
//! and a total communication cost of `O(p²L + p log p + (N/p)L + L log p)`.
//! This module measures the actual per-phase virtual times of a run and
//! fits empirical scaling exponents across a sweep of `(N, p)` so the
//! analysis can be checked rather than trusted.

use crate::aligner::{Aligner, Backend};
use crate::config::SadConfig;
use crate::pipeline::Phase;
use bioseq::{Sequence, Work};
use vcluster::{CostModel, VirtualCluster};

/// The DP accounting invariant every aggregated [`Work`] must satisfy:
/// `dp_cells` counts only cells the banded kernel actually filled, so it
/// can exceed the full-matrix equivalent `dp_cells_full` only by the
/// bounded geometric series of adaptive band retries (factor ≤ 3). A
/// violation means cells were double-counted somewhere — e.g. a batch
/// aggregate accumulating the filled count without its matching
/// full-matrix equivalent (the two must be summed in step, as
/// `Work::add` does).
///
/// Checked by the audit sweep on every run and by
/// [`crate::Aligner::run_batch`] on the batch aggregate.
pub fn dp_accounting_ok(work: &Work) -> bool {
    work.dp_cells <= 3 * work.dp_cells_full
}

/// Per-phase maxima for one `(N, p)` configuration.
#[derive(Debug, Clone)]
pub struct AuditPoint {
    /// Input size.
    pub n: usize,
    /// Ranks.
    pub p: usize,
    /// `(phase, max virtual seconds across ranks)` in pipeline order.
    pub phases: Vec<(Phase, f64)>,
    /// Total makespan.
    pub makespan: f64,
    /// Total bytes on the wire.
    pub bytes: u64,
}

/// Run the pipeline over a sweep of input sizes at fixed `p`, recording
/// per-phase timings.
pub fn sweep_n(
    sizes: &[usize],
    p: usize,
    cfg: &SadConfig,
    cost: CostModel,
    mut workload: impl FnMut(usize) -> Vec<Sequence>,
) -> Vec<AuditPoint> {
    sizes
        .iter()
        .map(|&n| {
            let seqs = workload(n);
            let cluster = VirtualCluster::new(p, cost);
            let run = Aligner::new(cfg.clone())
                .backend(Backend::Distributed(cluster))
                .run(&seqs)
                .expect("audit sweeps use valid inputs");
            assert!(
                dp_accounting_ok(&run.work),
                "dp_cells {} exceeds the adaptive-banding bound (full equivalent {})",
                run.work.dp_cells,
                run.work.dp_cells_full
            );
            let traces = run.traces().expect("distributed runs carry traces");
            AuditPoint {
                n,
                p,
                phases: run
                    .phases
                    .iter()
                    .map(|s| (s.phase, s.virtual_seconds.expect("distributed phases are timed")))
                    .collect(),
                makespan: run.makespan().expect("distributed runs have a makespan"),
                bytes: traces.iter().map(|t| t.bytes_sent).sum(),
            }
        })
        .collect()
}

/// Least-squares slope of `log(y)` against `log(x)` — the empirical
/// scaling exponent `y ∝ x^slope`. Returns `None` with fewer than two
/// usable (positive) points.
pub fn fit_exponent(points: &[(f64, f64)]) -> Option<f64> {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return None;
    }
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|&(x, _)| x).sum();
    let sy: f64 = logs.iter().map(|&(_, y)| y).sum();
    let sxx: f64 = logs.iter().map(|&(x, _)| x * x).sum();
    let sxy: f64 = logs.iter().map(|&(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

/// Empirical exponent of one phase's time in the input size `N` across a
/// sweep (e.g. `≈ 2` for the `w²L` rank phase at fixed `p`).
pub fn phase_exponent(points: &[AuditPoint], phase: Phase) -> Option<f64> {
    let series: Vec<(f64, f64)> = points
        .iter()
        .filter_map(|pt| {
            pt.phases.iter().find(|&&(p, _)| p == phase).map(|&(_, t)| (pt.n as f64, t))
        })
        .collect();
    fit_exponent(&series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rosegen::{Family, FamilyConfig};

    /// Prefixes of one fixed family, so sweeping N changes only the input
    /// *size*, never its statistics.
    fn workload(n: usize) -> Vec<Sequence> {
        let fam = Family::generate(&FamilyConfig {
            n_seqs: 128,
            avg_len: 60,
            relatedness: 300.0,
            seed: 1,
            ..Default::default()
        });
        fam.seqs[..n].to_vec()
    }

    #[test]
    fn dp_accounting_flags_double_counting() {
        // A clean banded fill and a clean full fill both pass, as does a
        // clean sum of the two (Work::add sums both counters in step).
        assert!(dp_accounting_ok(&Work::dp_banded(100, 900)));
        assert!(dp_accounting_ok(&Work::dp(500)));
        assert!(dp_accounting_ok(&Work::ZERO));
        assert!(dp_accounting_ok(&(Work::dp_banded(100, 900) + Work::dp(500))));
        // An aggregate that accumulates `dp_cells` without its matching
        // `dp_cells_full` (e.g. a batch loop adding one side per job, or
        // adding a job's filled cells repeatedly) drifts past the bound.
        let mut skewed = Work::dp(900);
        for _ in 0..4 {
            skewed.dp_cells += 900; // job re-counted on the filled side only
        }
        assert!(!dp_accounting_ok(&skewed));
        // Filled cells with no full-matrix equivalent at all is always a
        // bookkeeping bug.
        assert!(!dp_accounting_ok(&Work { dp_cells: 1, ..Work::ZERO }));
    }

    #[test]
    fn exponent_fit_exact_powers() {
        let quad: Vec<(f64, f64)> = (1..6).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((fit_exponent(&quad).unwrap() - 2.0).abs() < 1e-9);
        let lin: Vec<(f64, f64)> = (1..6).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((fit_exponent(&lin).unwrap() - 1.0).abs() < 1e-9);
        assert!(fit_exponent(&[(1.0, 1.0)]).is_none());
        assert!(fit_exponent(&[(1.0, 0.0), (2.0, 0.0)]).is_none());
    }

    #[test]
    fn rank_phase_scales_quadratically() {
        // Step 1 is w²L with w = N/p: at fixed p its exponent in N is ≈ 2.
        let points =
            sweep_n(&[32, 64, 128], 2, &SadConfig::default(), CostModel::beowulf_2008(), workload);
        let e = phase_exponent(&points, Phase::LocalKmerRank).unwrap();
        assert!((1.5..=2.5).contains(&e), "rank exponent {e}");
    }

    #[test]
    fn align_phase_superlinear() {
        // Step 8 contains the engine's w² distance term plus the wL²
        // progressive term: exponent in N must exceed 1.
        let points =
            sweep_n(&[32, 64, 128], 2, &SadConfig::default(), CostModel::beowulf_2008(), workload);
        let e = phase_exponent(&points, Phase::LocalAlign).unwrap();
        assert!(e > 0.8, "align exponent {e}");
    }

    #[test]
    fn communication_bytes_grow_roughly_linearly() {
        // Section 3: redistribution dominates the wire, O((N/p)·L) per
        // rank ⇒ total bytes ~ N·L.
        let points =
            sweep_n(&[32, 64, 128], 4, &SadConfig::default(), CostModel::beowulf_2008(), workload);
        let series: Vec<(f64, f64)> =
            points.iter().map(|pt| (pt.n as f64, pt.bytes as f64)).collect();
        let e = fit_exponent(&series).unwrap();
        assert!((0.6..=1.5).contains(&e), "bytes exponent {e}");
    }

    #[test]
    fn banded_kernel_fills_fewer_cells_than_full_on_long_sequences() {
        // The paper's workloads are homologous families; on L=300
        // sequences the adaptive band stays far below the full matrix.
        let fam = Family::generate(&FamilyConfig {
            n_seqs: 8,
            avg_len: 300,
            relatedness: 700.0,
            seed: 2,
            ..Default::default()
        });
        let cluster = VirtualCluster::new(2, CostModel::beowulf_2008());
        let run = Aligner::new(SadConfig::default())
            .backend(Backend::Distributed(cluster))
            .run(&fam.seqs)
            .unwrap();
        assert!(
            run.work.dp_cells < run.work.dp_cells_full,
            "banded {} vs full {}",
            run.work.dp_cells,
            run.work.dp_cells_full
        );
    }

    #[test]
    fn kernel_choice_never_changes_results_or_accounting() {
        // The striped kernel is an implementation detail: the scalar
        // kernel and the auto kernel (striped on every uniform-weight
        // PSP and BLOSUM pair instance) must produce, across a whole run,
        // the same alignment and, crucially, the same
        // dp_cells/dp_cells_full accounting — the virtual cluster's cost
        // model charges cells, not wall-clock, so any divergence would
        // skew every reported speedup. Every engine: muscle and clustalw
        // mix scorers that pass the f32 audit with weighted ones that
        // fail it and so build no lane tables.
        use align::{DpKernel, EngineChoice};
        let fam = Family::generate(&FamilyConfig {
            n_seqs: 16,
            avg_len: 80,
            relatedness: 400.0,
            seed: 3,
            ..Default::default()
        });
        for engine in EngineChoice::ALL {
            let run = |kernel: DpKernel| {
                let cluster = VirtualCluster::new(2, CostModel::beowulf_2008());
                Aligner::new(SadConfig::default().with_engine(engine).with_dp_kernel(kernel))
                    .backend(Backend::Distributed(cluster))
                    .run(&fam.seqs)
                    .unwrap()
            };
            let scalar = run(DpKernel::Scalar);
            let auto = run(DpKernel::Auto);
            let what = engine.label();
            assert_eq!(scalar.msa, auto.msa, "{what}");
            assert_eq!(scalar.work.dp_cells, auto.work.dp_cells, "{what}");
            assert_eq!(scalar.work.dp_cells_full, auto.work.dp_cells_full, "{what}");
            assert_eq!(scalar.work, auto.work, "{what}");
            // Only the report label records the kernel choice.
            assert_eq!(scalar.kernel, "scalar", "{what}");
            assert_eq!(auto.kernel, "auto", "{what}");
        }
    }

    #[test]
    fn audit_points_carry_all_phases() {
        let points = sweep_n(&[24], 2, &SadConfig::default(), CostModel::beowulf_2008(), workload);
        let phases: Vec<Phase> = points[0].phases.iter().map(|&(p, _)| p).collect();
        let expected: Vec<Phase> = Phase::ALL
            .into_iter()
            .filter(|&p| {
                !matches!(
                    p,
                    Phase::SubPartition | Phase::AnchorScan | Phase::BlockAlign | Phase::Trim
                )
            })
            .collect();
        assert_eq!(phases, expected, "a default p=2 run executes every non-opt-in phase");
    }
}
