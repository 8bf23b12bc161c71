//! Per-rank execution traces: clocks, time split and message counts.

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
    /// Final virtual clock.
    pub final_clock: f64,
}
