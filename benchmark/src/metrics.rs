//! The metric names, units and bounds the benchmark reports. The root
//! `BENCHMARK.json` is printed from these tables (`--print-spec`).

use sad_core::Phase;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Deterministic for a given build and seed: `--check-repeat` demands
    /// equality instead of the bound.
    pub exact: bool,
}

/// Reported by every workload with tracing off.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25, exact: false },
    EndToEnd { name: "wall_s", unit: "s", higher_is_better: false, bound: 0.25, exact: false },
    EndToEnd { name: "seqs_per_s", unit: "1/s", higher_is_better: true, bound: 0.25, exact: false },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.25,
        exact: false,
    },
    EndToEnd { name: "q_score", unit: "Q", higher_is_better: true, bound: 0.25, exact: true },
];

pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// A count or a modelled time that must repeat exactly.
    pub exact: bool,
}

fn layer(name: &str, unit: &'static str, higher_is_better: bool, exact: bool) -> Layer {
    Layer { name: name.to_string(), unit, higher_is_better, exact }
}

/// Name of the per-layer metric holding `phase`'s wall seconds.
pub fn phase_metric(phase: Phase) -> String {
    format!("core.phase.{}.s", phase.name())
}

/// Reported by every workload's traced run; a layer the workload does not
/// exercise reads 0.
pub fn per_layer() -> Vec<Layer> {
    let mut out: Vec<Layer> =
        Phase::ALL.iter().map(|&p| layer(&phase_metric(p), "s", false, false)).collect();
    let rest: [(&str, &'static str, bool, bool); 53] = [
        ("core.run_s", "s", false, false),
        ("core.phases_sum_s", "s", false, false),
        ("core.unattributed_s", "s", false, false),
        ("core.work_units", "count", false, true),
        ("core.dp_cells", "count", false, true),
        ("core.dp_cells_full", "count", false, true),
        ("core.buckets", "count", false, true),
        ("core.max_bucket", "count", false, true),
        ("core.load_imbalance", "ratio", false, true),
        ("core.glue.cells_per_s", "1/s", true, false),
        ("core.vertical.blocks", "count", true, true),
        ("core.vertical.seam_windows", "count", false, true),
        ("bioseq.fasta_parse.mb_per_s", "MB/s", true, false),
        ("bioseq.fasta_write.mb_per_s", "MB/s", true, false),
        ("bioseq.kmer_profile.seqs_per_s", "1/s", true, false),
        ("bioseq.kmer_rank.pairs_per_s", "1/s", true, false),
        ("psrs.partition.items_per_s", "1/s", true, false),
        ("psrs.partition.imbalance", "ratio", false, true),
        ("align.kmer_distmat.pairs_per_s", "1/s", true, false),
        ("align.engine.bucket_s", "s", false, false),
        ("align.engine.seqs_per_s", "1/s", true, false),
        ("align.dp.pairwise.cells_per_s", "1/s", true, false),
        ("align.dp.profile.cells_per_s", "1/s", true, false),
        ("align.dp.band_ratio", "ratio", false, true),
        ("align.anchor_scan.residues_per_s", "1/s", true, false),
        ("align.trim.cells_per_s", "1/s", true, false),
        ("phylo.upgma.pairs_per_s", "1/s", true, false),
        ("phylo.upgma.s", "s", false, false),
        ("vcluster.messages", "count", false, true),
        ("vcluster.bytes", "count", false, true),
        ("vcluster.comm_virtual_s", "s", false, true),
        ("vcluster.compute_virtual_s", "s", false, true),
        ("vcluster.virtual_makespan_s", "s", false, true),
        ("vcluster.wall_over_rayon", "ratio", false, false),
        ("serve.latency_ms.p50", "ms", false, false),
        ("serve.latency_ms.p90", "ms", false, false),
        ("serve.queue_wait_ms.p50", "ms", false, false),
        ("serve.run_ms.p50", "ms", false, false),
        ("serve.finish_ms.p50", "ms", false, false),
        ("serve.cache_hit_ratio", "ratio", true, true),
        ("serve.cache_hit_latency_ms.p50", "ms", false, false),
        ("serve.journal.append_us", "us", false, false),
        ("serve.journal.replay_entries_per_s", "1/s", true, false),
        ("serve.journal.bytes", "count", false, true),
        ("serve.restart_s", "s", false, false),
        ("serve.json.parse_mb_per_s", "MB/s", true, false),
        ("serve.json.encode_mb_per_s", "MB/s", true, false),
        ("serve.completed", "count", true, true),
        ("serve.rejected", "count", false, true),
        ("cli.overhead_s", "s", false, false),
        ("cli.out_bytes", "count", false, true),
        ("qbench.pair_q.s", "s", false, false),
        ("trace.overhead_frac", "ratio", false, false),
    ];
    out.extend(rest.into_iter().map(|(n, u, h, e)| layer(n, u, h, e)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_reasons_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name.to_string())
            .chain(per_layer().into_iter().map(|l| l.name));
        for name in names {
            assert!(
                name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(seen.insert(name.clone()), "{name} is listed twice");
        }
        assert!(END_TO_END.len() <= 16 && per_layer().len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        for w in crate::workloads::all(false) {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
    }
}
