//! The evaluation harness: run any alignment system over a benchmark and
//! report PREFAB-style mean `Q` (plus `TC` against the full reference).

use crate::refset::Benchmark;
use align::MsaEngine;
use bioseq::compare::{q_score_pair, tc_score};
use bioseq::{Msa, Sequence, Work};

/// Aggregate quality report for one system over one benchmark.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// System name.
    pub name: String,
    /// Mean Q over scorable cases (the paper's Table 2 number).
    pub mean_q: f64,
    /// Mean total-column score against the full references.
    pub mean_tc: f64,
    /// Per-case Q scores (`None` = unscorable reference, discarded like
    /// the paper's footnote describes).
    pub per_case_q: Vec<Option<f64>>,
    /// Total work performed across cases (0 when the system does not
    /// report work).
    pub total_work: Work,
}

/// Evaluate an arbitrary alignment function (used for Sample-Align-D,
/// whose distributed pipeline is not an [`MsaEngine`]).
pub fn evaluate_with(
    name: impl Into<String>,
    benchmark: &Benchmark,
    mut align: impl FnMut(&[Sequence]) -> (Msa, Work),
) -> EngineReport {
    let mut per_case_q = Vec::with_capacity(benchmark.cases.len());
    let mut tc_sum = 0.0;
    let mut tc_n = 0usize;
    let mut total_work = Work::ZERO;
    for case in &benchmark.cases {
        let (msa, work) = align(&case.seqs);
        total_work += work;
        debug_assert!(msa.validate().is_ok(), "invalid alignment for {}", case.id);
        // Locate the seed rows in the produced alignment.
        let find = |id: &str| msa.ids().iter().position(|x| x == id);
        let q = match (find(&case.seed_ids.0), find(&case.seed_ids.1)) {
            (Some(a), Some(b)) => q_score_pair(
                msa.row(a),
                msa.row(b),
                case.reference_pair.row(0),
                case.reference_pair.row(1),
            ),
            _ => None,
        };
        per_case_q.push(q);
        if let Some(tc) = tc_score(&msa, &case.full_reference) {
            tc_sum += tc;
            tc_n += 1;
        }
    }
    let qs: Vec<f64> = per_case_q.iter().flatten().copied().collect();
    EngineReport {
        name: name.into(),
        mean_q: if qs.is_empty() { 0.0 } else { qs.iter().sum::<f64>() / qs.len() as f64 },
        mean_tc: if tc_n == 0 { 0.0 } else { tc_sum / tc_n as f64 },
        per_case_q,
        total_work,
    }
}

/// Evaluate an [`MsaEngine`] over a benchmark.
pub fn evaluate_engine(engine: &dyn MsaEngine, benchmark: &Benchmark) -> EngineReport {
    evaluate_with(engine.name(), benchmark, |seqs| engine.align_with_work(seqs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refset::BenchmarkConfig;
    use align::{ClustalLite, MuscleLite};

    fn small_benchmark() -> Benchmark {
        Benchmark::generate(&BenchmarkConfig {
            n_cases: 4,
            seqs_per_case: 8,
            avg_len: 60,
            relatedness: (200.0, 700.0),
            seed: 9,
        })
    }

    #[test]
    fn perfect_aligner_scores_one() {
        let b = small_benchmark();
        // "Align" by returning the true reference.
        let mut case_iter = b.cases.iter();
        let report = evaluate_with("oracle", &b, |_seqs| {
            let case = case_iter.next().unwrap();
            (case.full_reference.clone(), Work::ZERO)
        });
        assert!((report.mean_q - 1.0).abs() < 1e-12, "Q = {}", report.mean_q);
        assert!((report.mean_tc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn real_engines_score_reasonably() {
        let b = small_benchmark();
        let muscle = evaluate_engine(&MuscleLite::standard(), &b);
        assert!(
            muscle.mean_q > 0.4,
            "muscle-lite Q={} too low on an easy benchmark",
            muscle.mean_q
        );
        assert!(muscle.mean_q <= 1.0);
        assert!(!muscle.total_work.is_zero());
        let clustal = evaluate_engine(&ClustalLite::default(), &b);
        assert!(clustal.mean_q > 0.3, "clustal-lite Q={}", clustal.mean_q);
    }

    #[test]
    fn q_in_unit_interval_for_any_valid_alignment() {
        let b = small_benchmark();
        // A deliberately bad aligner: concatenates sequences diagonally
        // (each sequence in its own column band).
        let report = evaluate_with("diagonal", &b, |seqs| {
            let total: usize = seqs.iter().map(|s| s.len()).sum();
            let mut rows = Vec::new();
            let mut offset = 0usize;
            for s in seqs {
                let mut row = vec![bioseq::GAP_CODE; total];
                for (i, &c) in s.codes().iter().enumerate() {
                    row[offset + i] = c;
                }
                offset += s.len();
                rows.push(row);
            }
            (Msa::from_rows(seqs.iter().map(|s| s.id.clone()).collect(), rows), Work::ZERO)
        });
        assert!((0.0..=1.0).contains(&report.mean_q));
        // The diagonal aligner aligns nothing: Q must be 0.
        assert_eq!(report.mean_q, 0.0);
    }

    #[test]
    fn better_engine_not_worse_than_draft() {
        let b = small_benchmark();
        let fast = evaluate_engine(&MuscleLite::fast(), &b);
        let std_ = evaluate_engine(&MuscleLite::standard(), &b);
        assert!(
            std_.mean_q >= fast.mean_q - 0.08,
            "standard {} should be in the vicinity of fast {} or better",
            std_.mean_q,
            fast.mean_q
        );
    }
}
