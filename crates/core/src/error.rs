//! Typed errors for the Sample-Align-D public API.
//!
//! Before the [`crate::Aligner`] redesign, bad input produced ad-hoc
//! behaviour: empty sets panicked (`assert!(!seqs.is_empty())` in the
//! bucketing code), zero-sized configs asserted or were silently
//! clamped, and a single sequence took a degenerate path. Every
//! condition a caller can trip is now a uniform [`SadError`] variant.

/// Everything that can go wrong before the pipeline starts.
///
/// Returned by [`crate::Aligner::run`] and [`crate::SadConfig::validate`].
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard arm so
/// future validations are not breaking changes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SadError {
    /// Fewer than two input sequences (0 or 1). A multiple alignment
    /// needs at least a pair: empty input used to panic deep in the
    /// bucketing code, and a single sequence used to yield a trivial
    /// one-row "alignment"; both are rejected uniformly now.
    TooFewSequences {
        /// How many sequences were supplied.
        found: usize,
    },
    /// `SadConfig::kmer_k` is zero — a 0-mer profile is undefined.
    ZeroKmerLen,
    /// `SadConfig::samples_per_rank` is `Some(0)` — regular sampling
    /// needs at least one sample per rank.
    ZeroSampleCount,
    /// `SadConfig::kmer_k` is not shorter than the shortest input
    /// sequence, so that sequence has no k-mer profile comparable with
    /// the others'.
    KmerExceedsShortest {
        /// The configured k-mer length.
        k: usize,
        /// Length of the shortest input sequence.
        shortest: usize,
    },
    /// The rayon backend was configured with zero threads/buckets.
    ZeroParallelism,
    /// `SadConfig::max_bucket` is `Some(0)` — a bucket must hold at least
    /// one sequence, so a zero cap can never be satisfied.
    ZeroMaxBucket,
    /// A [`crate::VerticalConfig`] field is out of range — e.g. a zero
    /// `min_anchor_len` (a 0-mer anchor is undefined) or a zero
    /// `max_block_len` (a block must hold at least one column).
    InvalidVertical {
        /// The offending field, by name.
        what: &'static str,
    },
    /// The run was stopped at a phase boundary — the
    /// [`crate::CancelToken`] supplied via [`crate::Aligner::cancel_token`]
    /// was cancelled, or the [`crate::Aligner::deadline`] budget ran out.
    Cancelled {
        /// The phase that was about to start when cancellation was
        /// observed.
        phase: crate::pipeline::Phase,
    },
}

impl std::fmt::Display for SadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SadError::TooFewSequences { found } => {
                write!(f, "need at least 2 sequences to align, got {found}")
            }
            SadError::ZeroKmerLen => write!(f, "kmer_k must be at least 1"),
            SadError::ZeroSampleCount => {
                write!(f, "samples_per_rank must be at least 1 when set explicitly")
            }
            SadError::KmerExceedsShortest { k, shortest } => {
                write!(f, "kmer_k = {k} is not shorter than the shortest sequence ({shortest})")
            }
            SadError::ZeroParallelism => write!(f, "rayon backend needs at least one thread"),
            SadError::ZeroMaxBucket => {
                write!(f, "max_bucket must be at least 1 when set explicitly")
            }
            SadError::InvalidVertical { what } => {
                write!(f, "vertical: {what} must be at least 1")
            }
            SadError::Cancelled { phase } => {
                write!(f, "run cancelled before phase {phase}")
            }
        }
    }
}

impl std::error::Error for SadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        let cases: Vec<(SadError, &str)> = vec![
            (SadError::TooFewSequences { found: 1 }, "got 1"),
            (SadError::ZeroKmerLen, "kmer_k"),
            (SadError::ZeroSampleCount, "samples_per_rank"),
            (SadError::KmerExceedsShortest { k: 6, shortest: 4 }, "shortest"),
            (SadError::ZeroParallelism, "thread"),
            (SadError::ZeroMaxBucket, "max_bucket"),
            (SadError::InvalidVertical { what: "min_anchor_len" }, "min_anchor_len"),
            (
                SadError::Cancelled { phase: crate::pipeline::Phase::LocalAlign },
                "cancelled before phase 8-local-align",
            ),
        ];
        for (err, needle) in cases {
            assert!(format!("{err}").contains(needle), "{err:?}");
        }
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&SadError::ZeroKmerLen);
    }
}
