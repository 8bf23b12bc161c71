//! The deterministic cost model converting abstract work and message sizes
//! into virtual seconds.

use bioseq::Work;

/// Conversion rates from work units and wire bytes to virtual seconds.
///
/// Presets model the paper's 2008 Beowulf node (550 MHz Pentium III,
/// gigabit Ethernet) and a modern core, but every coefficient is public so
/// experiments can recalibrate or ablate (e.g. zero communication cost).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// One-way message latency in seconds (per message, any size).
    pub latency: f64,
    /// Seconds per payload byte on the wire (1 / bandwidth).
    pub per_byte: f64,
    /// CPU seconds consumed by posting a send.
    pub send_overhead: f64,
    /// CPU seconds consumed by completing a receive.
    pub recv_overhead: f64,
    /// Seconds per dynamic-programming cell.
    pub dp_cell: f64,
    /// Seconds per nominal k-mer op (`Work::kmer_ops`: `|a| + |b|`
    /// profile entries per ordered pair scored).
    pub kmer_op: f64,
    /// Seconds per sorting comparison.
    pub sort_op: f64,
    /// Seconds per guide-tree construction step.
    pub tree_op: f64,
    /// Seconds per alignment-column operation.
    pub col_op: f64,
    /// Seconds per bulk sequence byte touched.
    pub seq_byte: f64,
}

impl CostModel {
    /// The paper's testbed: 550 MHz Pentium III nodes (≈ 10 M affine DP
    /// cells/s, ≈ 30 M light ops/s) on gigabit Ethernet (125 MB/s, ≈ 100 µs
    /// latency under Linux 2.4).
    pub fn beowulf_2008() -> Self {
        CostModel {
            latency: 1.0e-4,
            per_byte: 8.0e-9,
            send_overhead: 2.0e-5,
            recv_overhead: 2.0e-5,
            dp_cell: 1.0e-7,
            kmer_op: 3.0e-8,
            sort_op: 4.0e-8,
            tree_op: 4.0e-8,
            col_op: 3.0e-8,
            seq_byte: 2.0e-9,
        }
    }

    /// A modern core with a modern interconnect — used to show the
    /// algorithm's scaling is not an artefact of 2008 constants.
    pub fn modern() -> Self {
        CostModel {
            latency: 2.0e-6,
            per_byte: 1.0e-10,
            send_overhead: 5.0e-7,
            recv_overhead: 5.0e-7,
            dp_cell: 2.0e-9,
            kmer_op: 8.0e-10,
            sort_op: 1.0e-9,
            tree_op: 1.0e-9,
            col_op: 8.0e-10,
            seq_byte: 6.0e-11,
        }
    }

    /// Beowulf compute rates with a free network (communication ablation).
    pub fn free_network() -> Self {
        CostModel {
            latency: 0.0,
            per_byte: 0.0,
            send_overhead: 0.0,
            recv_overhead: 0.0,
            ..Self::beowulf_2008()
        }
    }

    /// Virtual seconds for a unit of [`Work`].
    pub fn work_seconds(&self, w: &Work) -> f64 {
        w.dp_cells as f64 * self.dp_cell
            + w.kmer_ops as f64 * self.kmer_op
            + w.sort_ops as f64 * self.sort_op
            + w.tree_ops as f64 * self.tree_op
            + w.col_ops as f64 * self.col_op
            + w.seq_bytes as f64 * self.seq_byte
    }

    /// Wire time for a message payload of `bytes` charged to the sender
    /// (serialisation onto the NIC).
    pub fn send_seconds(&self, bytes: usize) -> f64 {
        self.send_overhead + bytes as f64 * self.per_byte
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::beowulf_2008()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_seconds_linear() {
        let m = CostModel::beowulf_2008();
        let w = Work::dp(10);
        assert!((m.work_seconds(&w) - 10.0 * m.dp_cell).abs() < 1e-18);
        let w2 = w + Work::kmer(5);
        assert!((m.work_seconds(&w2) - (10.0 * m.dp_cell + 5.0 * m.kmer_op)).abs() < 1e-18);
    }

    #[test]
    fn zero_work_costs_nothing() {
        assert_eq!(CostModel::modern().work_seconds(&Work::ZERO), 0.0);
    }

    #[test]
    fn free_network_only_zeroes_comm() {
        let m = CostModel::free_network();
        assert_eq!(m.latency, 0.0);
        assert_eq!(m.per_byte, 0.0);
        assert!(m.dp_cell > 0.0);
        assert_eq!(m.send_seconds(1 << 20), 0.0);
    }

    #[test]
    fn beowulf_slower_than_modern() {
        let b = CostModel::beowulf_2008();
        let m = CostModel::modern();
        let w = Work::dp(1_000_000);
        assert!(b.work_seconds(&w) > m.work_seconds(&w));
    }

    #[test]
    fn send_seconds_scale_with_bytes() {
        let m = CostModel::beowulf_2008();
        assert!(m.send_seconds(2000) > m.send_seconds(1000));
        // A 1 MB message at 125 MB/s takes ~8 ms.
        let t = m.send_seconds(1_000_000);
        assert!((t - (m.send_overhead + 8.0e-3)).abs() < 1e-6, "t={t}");
    }
}
