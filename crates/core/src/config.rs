//! Sample-Align-D configuration.

use crate::decomp::VerticalConfig;
use crate::error::SadError;
use align::{BandPolicy, DpKernel, DpOptions, EngineChoice, TrimConfig};
use bioseq::{CompressedAlphabet, Sequence};

/// The largest pooled sample the default per-rank count allows: the
/// paper's `p = 16` processors with `k = p − 1` samples each pool 240.
pub const POOLED_SAMPLE_CAP: usize = 240;

/// The settings of the Sample-Align-D pipeline.
///
/// The scoring is fixed: k-mers are counted over the Dayhoff(6) compressed
/// alphabet ([`alphabet`](Self::alphabet), which has no setter), the k-mer
/// rank is `ln(0.1 + D)` as printed ([`bioseq::RankTransform::PaperLog`]),
/// and ancestor alignment and fine-tuning score with BLOSUM62 and the
/// default gap penalties.
///
/// Marked `#[non_exhaustive]`: construct with [`SadConfig::default`] and
/// customise through the `with_*` builder setters, so new knobs are not
/// breaking changes. Fields stay public for reading.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SadConfig {
    /// k-mer length for rank computation (paper/MUSCLE default 6).
    pub kmer_k: usize,
    /// Compressed alphabet for k-mer counting: always
    /// [`CompressedAlphabet::Dayhoff6`].
    pub alphabet: CompressedAlphabet,
    /// Samples contributed per processor (`k` in the paper; when `None`,
    /// `p − 1` up to a pooled sample of [`POOLED_SAMPLE_CAP`], see
    /// [`samples_for`](Self::samples_for)).
    pub samples_per_rank: Option<usize>,
    /// The sequential MSA engine run inside each processor.
    pub engine: EngineChoice,
    /// Run the ancestor-constrained fine-tuning + glue (step 8). Disabling
    /// it leaves the buckets block-diagonal — the ablation showing why the
    /// global ancestor matters.
    pub fine_tune: bool,
    /// Band policy for every DP kernel instance in the pipeline: the
    /// per-bucket engines, the ancestor alignment and the fine-tuning.
    /// The default, [`BandPolicy::Auto`], fills only a diagonal band and
    /// widens it until the score is stable under doubling and the optimum
    /// clears the band edges; [`BandPolicy::Full`] fills the whole matrix.
    /// Both aim at the full DP's optimum.
    pub band_policy: BandPolicy,
    /// DP kernel variant for every alignment in the pipeline. The
    /// default, [`DpKernel::Auto`], runs the striped f32 kernel whenever
    /// the scorer certifies bit-exact f32 arithmetic and the scalar f64
    /// kernel otherwise; `Scalar` always runs the scalar kernel. The
    /// choice never changes an alignment or its work counts.
    pub dp_kernel: DpKernel,
    /// Hierarchical bucketing cap (the Pyro-Align large-N read mode):
    /// when set, every rank recursively re-samples and re-partitions its
    /// own post-redistribution bucket ([`crate::Phase::SubPartition`])
    /// until each leaf fits, so no single engine run ever centralises an
    /// oversized bucket. Capped runs always seed the fine-tune profile
    /// merge with the conserved-anchor scan (pinning agreeing consensus
    /// columns and aligning only the stretches in between). `None` (the
    /// default) keeps the flat paper pipeline. Honoured identically by
    /// the rayon and distributed backends; the sequential backend has no
    /// buckets and ignores it.
    pub max_bucket: Option<usize>,
    /// Vertical (length-wise) domain decomposition: when set, the root
    /// scans for conserved anchors ([`crate::Phase::AnchorScan`]), every
    /// sequence is sliced at the chained anchors into consistent blocks,
    /// the blocks are dealt over the ranks and aligned independently
    /// ([`crate::Phase::BlockAlign`]), and the root glues the block
    /// alignments with seam-window refinement ([`crate::Phase::Glue`]).
    /// `None` (the default) aligns whole sequences. Runs on every
    /// backend, with the same output bytes on each.
    pub vertical: Option<VerticalConfig>,
    /// MaxAlign-style alignment-area trim ([`crate::Phase::Trim`]): when
    /// set, the finished root alignment is post-processed by
    /// [`align::trim::trim_msa`] — rows are greedily excluded (with
    /// synergy lookahead, and optional branch-and-bound refinement) to
    /// maximise `retained rows × gap-free columns`; the reported area
    /// never decreases. Runs on every backend: the stage operates on the
    /// root MSA after glue, so the distributed backend needs no
    /// collective. `None` (the default) leaves the alignment untouched.
    pub trim: Option<TrimConfig>,
}

impl Default for SadConfig {
    fn default() -> Self {
        SadConfig {
            kmer_k: 6,
            alphabet: CompressedAlphabet::Dayhoff6,
            samples_per_rank: None,
            engine: EngineChoice::MuscleFast,
            fine_tune: true,
            band_policy: BandPolicy::default(),
            dp_kernel: DpKernel::default(),
            max_bucket: None,
            vertical: None,
            trim: None,
        }
    }
}

impl SadConfig {
    /// Set the k-mer length for rank computation.
    pub fn with_kmer_k(mut self, k: usize) -> Self {
        self.kmer_k = k;
        self
    }

    /// Set an explicit per-rank sample count (`None` restores the
    /// paper's `p − 1` default).
    pub fn with_samples_per_rank(mut self, samples: Option<usize>) -> Self {
        self.samples_per_rank = samples;
        self
    }

    /// Select the sequential MSA engine run inside each processor.
    pub fn with_engine(mut self, engine: EngineChoice) -> Self {
        self.engine = engine;
        self
    }

    /// Enable or disable the ancestor-constrained fine-tuning + glue.
    pub fn with_fine_tune(mut self, fine_tune: bool) -> Self {
        self.fine_tune = fine_tune;
        self
    }

    /// Set the DP kernel band policy for the whole pipeline.
    pub fn with_band_policy(mut self, band_policy: BandPolicy) -> Self {
        self.band_policy = band_policy;
        self
    }

    /// Select the DP kernel variant for the whole pipeline.
    pub fn with_dp_kernel(mut self, kernel: DpKernel) -> Self {
        self.dp_kernel = kernel;
        self
    }

    /// Cap bucket sizes via hierarchical sub-partitioning (`None`
    /// restores the flat paper pipeline).
    pub fn with_max_bucket(mut self, cap: Option<usize>) -> Self {
        self.max_bucket = cap;
        self
    }

    /// Enable vertical (length-wise) domain decomposition with the given
    /// knobs.
    pub fn with_vertical(mut self, vertical: VerticalConfig) -> Self {
        self.vertical = Some(vertical);
        self
    }

    /// Post-process the finished alignment with the MaxAlign-style
    /// area trim.
    pub fn with_trim(mut self, trim: TrimConfig) -> Self {
        self.trim = Some(trim);
        self
    }

    /// The one [`DpOptions`] value every DP-running step of the pipeline
    /// is handed: [`band_policy`](Self::band_policy) and
    /// [`dp_kernel`](Self::dp_kernel) together.
    pub fn dp(&self) -> DpOptions {
        DpOptions { band: self.band_policy, kernel: self.dp_kernel }
    }

    /// Effective sample count per rank for a cluster of `p`. An explicit
    /// `samples_per_rank` wins. Otherwise it is the paper's `p − 1` while
    /// the pooled sample `p(p − 1)` fits in [`POOLED_SAMPLE_CAP`], and
    /// `⌈POOLED_SAMPLE_CAP / p⌉` beyond that, so step 5 scores every
    /// sequence against at most `POOLED_SAMPLE_CAP + p` samples however
    /// many buckets a read cap asks for.
    pub fn samples_for(&self, p: usize) -> usize {
        self.samples_per_rank
            .unwrap_or_else(|| {
                let k = p.saturating_sub(1);
                if p * k <= POOLED_SAMPLE_CAP {
                    k
                } else {
                    POOLED_SAMPLE_CAP.div_ceil(p)
                }
            })
            .max(1)
    }

    /// Check the configuration's internal consistency: `kmer_k` must be
    /// positive and an explicit `samples_per_rank` must be positive.
    /// [`validate_for`](Self::validate_for) includes these checks.
    pub fn validate(&self) -> Result<(), SadError> {
        if self.kmer_k == 0 {
            return Err(SadError::ZeroKmerLen);
        }
        if self.samples_per_rank == Some(0) {
            return Err(SadError::ZeroSampleCount);
        }
        if self.max_bucket == Some(0) {
            return Err(SadError::ZeroMaxBucket);
        }
        if let Some(vertical) = &self.vertical {
            vertical.validate()?;
        }
        Ok(())
    }

    /// [`validate`](Self::validate) plus input-dependent checks: at least
    /// two sequences, and `kmer_k` shorter than the shortest sequence, so
    /// every sequence has a k-mer profile of the one configured `k`.
    /// [`crate::Aligner::run`] calls it before the pipeline starts, so a
    /// caller only needs it to reject input without running it.
    pub fn validate_for(&self, seqs: &[Sequence]) -> Result<(), SadError> {
        self.validate()?;
        if seqs.len() < 2 {
            return Err(SadError::TooFewSequences { found: seqs.len() });
        }
        let shortest = seqs.iter().map(Sequence::len).min().expect("non-empty");
        if self.kmer_k >= shortest {
            return Err(SadError::KmerExceedsShortest { k: self.kmer_k, shortest });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_samples_follow_paper() {
        let cfg = SadConfig::default();
        assert_eq!(cfg.samples_for(16), 15);
        assert_eq!(cfg.samples_for(1), 1); // never zero samples
    }

    #[test]
    fn default_pooled_sample_is_bounded() {
        let cfg = SadConfig::default();
        // The paper's regime (Figs. 4/5, p <= 16) keeps k = p - 1.
        for p in 2..=16 {
            assert_eq!(cfg.samples_for(p), p - 1, "p = {p}");
        }
        // Beyond it the pool reaches the cap and overshoots by under p.
        for p in 17..=1024 {
            let k = cfg.samples_for(p);
            assert!(k >= 1 && p * k <= POOLED_SAMPLE_CAP + p, "p = {p}, k = {k}");
            assert!(p * k >= POOLED_SAMPLE_CAP, "p = {p}, k = {k}");
        }
    }

    #[test]
    fn explicit_sample_count_wins() {
        let cfg = SadConfig::default().with_samples_per_rank(Some(5));
        assert_eq!(cfg.samples_for(16), 5);
    }

    #[test]
    fn builder_setters_cover_every_knob() {
        let cfg = SadConfig::default()
            .with_kmer_k(4)
            .with_samples_per_rank(Some(3))
            .with_engine(EngineChoice::Clustal)
            .with_fine_tune(false)
            .with_band_policy(BandPolicy::Full)
            .with_dp_kernel(DpKernel::Scalar)
            .with_max_bucket(Some(256))
            .with_vertical(VerticalConfig { seam_window: 8, ..Default::default() })
            .with_trim(TrimConfig { max_dropped: Some(2), branch_bound: true });
        assert_eq!(cfg.kmer_k, 4);
        assert_eq!(cfg.samples_per_rank, Some(3));
        assert_eq!(cfg.engine, EngineChoice::Clustal);
        assert!(!cfg.fine_tune);
        assert_eq!(cfg.band_policy, BandPolicy::Full);
        assert_eq!(cfg.dp_kernel, DpKernel::Scalar);
        assert_eq!(cfg.max_bucket, Some(256));
        assert_eq!(cfg.vertical.as_ref().map(|v| v.seam_window), Some(8));
        assert_eq!(cfg.trim, Some(TrimConfig { max_dropped: Some(2), branch_bound: true }));
    }

    #[test]
    fn validate_rejects_degenerate_vertical() {
        let zero_anchor = VerticalConfig { min_anchor_len: 0, ..Default::default() };
        assert_eq!(
            SadConfig::default().with_vertical(zero_anchor).validate(),
            Err(SadError::InvalidVertical { what: "min_anchor_len" })
        );
        let zero_block = VerticalConfig { max_block_len: 0, ..Default::default() };
        assert_eq!(
            SadConfig::default().with_vertical(zero_block).validate(),
            Err(SadError::InvalidVertical { what: "max_block_len" })
        );
        let ok = VerticalConfig::default();
        assert_eq!(SadConfig::default().with_vertical(ok).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_max_bucket() {
        assert_eq!(
            SadConfig::default().with_max_bucket(Some(0)).validate(),
            Err(SadError::ZeroMaxBucket)
        );
        assert_eq!(SadConfig::default().with_max_bucket(Some(1)).validate(), Ok(()));
        assert_eq!(SadConfig::default().with_max_bucket(None).validate(), Ok(()));
    }

    #[test]
    fn validate_accepts_the_default() {
        assert_eq!(SadConfig::default().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_kmer() {
        assert_eq!(SadConfig::default().with_kmer_k(0).validate(), Err(SadError::ZeroKmerLen));
    }

    #[test]
    fn validate_rejects_zero_sample_count() {
        assert_eq!(
            SadConfig::default().with_samples_per_rank(Some(0)).validate(),
            Err(SadError::ZeroSampleCount)
        );
    }

    #[test]
    fn validate_for_rejects_overlong_kmer() {
        let seqs =
            vec![Sequence::from_codes("a", vec![0, 1, 2]), Sequence::from_codes("b", vec![3; 10])];
        let err = SadConfig::default().validate_for(&seqs).unwrap_err();
        assert_eq!(err, SadError::KmerExceedsShortest { k: 6, shortest: 3 });
        assert_eq!(SadConfig::default().with_kmer_k(2).validate_for(&seqs), Ok(()));
    }

    #[test]
    fn validate_for_rejects_degenerate_inputs() {
        let one = vec![Sequence::from_codes("a", vec![0; 20])];
        assert_eq!(
            SadConfig::default().validate_for(&[]),
            Err(SadError::TooFewSequences { found: 0 })
        );
        assert_eq!(
            SadConfig::default().validate_for(&one),
            Err(SadError::TooFewSequences { found: 1 })
        );
    }
}
