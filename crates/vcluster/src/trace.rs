//! Per-rank execution traces: clocks, byte counts and named phases.

/// One named phase on one rank: `[start, end)` in virtual seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRecord {
    /// Phase label (e.g. `"step7-local-align"`).
    pub name: String,
    /// Virtual clock at phase entry.
    pub start: f64,
    /// Virtual clock at phase exit.
    pub end: f64,
}

impl PhaseRecord {
    /// Phase duration.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Everything a rank recorded during a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankTrace {
    /// The rank this trace belongs to.
    pub rank: usize,
    /// Virtual seconds spent in modelled computation.
    pub compute_s: f64,
    /// Virtual seconds spent in communication (send/recv overheads plus
    /// waiting for message arrival).
    pub comm_s: f64,
    /// Total payload bytes sent.
    pub bytes_sent: u64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Messages received.
    pub msgs_received: u64,
    /// Named phases in entry order.
    pub phases: Vec<PhaseRecord>,
    /// Final virtual clock.
    pub final_clock: f64,
}

/// Aggregate per-phase timing across ranks: for each phase name (in first
/// appearance order) the maximum and mean duration over the ranks that
/// recorded it. The maximum is the quantity scaling plots report (the
/// phase's contribution to the critical path, assuming phase-aligned
/// ranks).
pub fn phase_summary(traces: &[RankTrace]) -> Vec<(String, f64, f64)> {
    let mut order: Vec<String> = Vec::new();
    let mut acc: std::collections::HashMap<String, Vec<f64>> = std::collections::HashMap::new();
    for t in traces {
        for p in &t.phases {
            if !acc.contains_key(&p.name) {
                order.push(p.name.clone());
            }
            acc.entry(p.name.clone()).or_default().push(p.duration());
        }
    }
    order
        .into_iter()
        .map(|name| {
            let ds = &acc[&name];
            let max = ds.iter().copied().fold(0.0, f64::max);
            let mean = ds.iter().sum::<f64>() / ds.len() as f64;
            (name, max, mean)
        })
        .collect()
}

/// Render a phase table like the evaluation section prints.
pub fn phase_table(traces: &[RankTrace]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{:<28} {:>12} {:>12}", "phase", "max (s)", "mean (s)");
    for (name, max, mean) in phase_summary(traces) {
        let _ = writeln!(out, "{name:<28} {max:>12.4} {mean:>12.4}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(rank: usize, phases: &[(&str, f64, f64)]) -> RankTrace {
        RankTrace {
            rank,
            phases: phases
                .iter()
                .map(|&(name, start, end)| PhaseRecord { name: name.into(), start, end })
                .collect(),
            ..Default::default()
        }
    }

    #[test]
    fn duration() {
        let p = PhaseRecord { name: "x".into(), start: 1.0, end: 3.5 };
        assert!((p.duration() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn summary_takes_max_and_mean() {
        let traces = vec![
            trace(0, &[("a", 0.0, 1.0), ("b", 1.0, 2.0)]),
            trace(1, &[("a", 0.0, 3.0), ("b", 3.0, 3.5)]),
        ];
        let s = phase_summary(&traces);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].0, "a");
        assert!((s[0].1 - 3.0).abs() < 1e-12);
        assert!((s[0].2 - 2.0).abs() < 1e-12);
        assert!((s[1].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table_renders_all_phases() {
        let traces = vec![trace(0, &[("alpha", 0.0, 1.0)])];
        let t = phase_table(&traces);
        assert!(t.contains("alpha"));
        assert!(t.contains("max"));
    }

    #[test]
    fn order_is_first_appearance() {
        let traces = vec![
            trace(0, &[("z", 0.0, 1.0), ("a", 1.0, 2.0)]),
            trace(1, &[("a", 0.0, 1.0), ("z", 1.0, 2.0)]),
        ];
        let s = phase_summary(&traces);
        assert_eq!(s[0].0, "z");
        assert_eq!(s[1].0, "a");
    }
}
