//! Vertical (length-wise) domain decomposition.
//!
//! Sample-Align-D decomposes the *sequence set*; this module decomposes
//! along *sequence length*, the strategy of the sibling domain-decomposition
//! paper: find columns that are certainly homologous before any alignment
//! exists (conserved k-mer anchors, chained colinearly across every
//! sequence), slice every sequence at the chained anchors into consistent
//! vertical blocks, align each block independently, then concatenate the
//! block alignments and polish a ±W-column window around each seam.
//!
//! The payoff is the DP bill: a whole-length progressive alignment fills
//! `O(L²)` cells per profile merge, while `B` anchored blocks fill
//! `O(B·(L/B)²) = O(L²/B)` — and the blocks are embarrassingly parallel,
//! so they ride the same self-scheduling worker pool as batch jobs.
//!
//! Wire-up: [`crate::SadConfig::with_vertical`] turns the mode on;
//! [`crate::Aligner::run`] then routes through `vertical_pipeline`,
//! which records [`crate::Phase::AnchorScan`] /
//! [`crate::Phase::BlockAlign`] / [`crate::Phase::Glue`] and degrades
//! gracefully to the ordinary whole-length pipeline when no reliable
//! anchors exist.

use crate::aligner::Backend;
use crate::config::SadConfig;
use crate::error::SadError;
use crate::pipeline::{Phase, PipelineCtx};
use crate::report::RunReport;
use align::anchor::{scan_anchors, Anchor, AnchorSpec};
use align::refine::leave_one_out_with;
use align::DpArena;
use bioseq::alphabet::GAP_CODE;
use bioseq::{Msa, Sequence, Work};
use serde::Serialize;
use std::time::Instant;

/// Knobs of the vertical decomposition, set via
/// [`crate::SadConfig::with_vertical`].
///
/// Construct with struct-update syntax over the default:
/// `VerticalConfig { max_block_len: 256, ..Default::default() }`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct VerticalConfig {
    /// Anchor k-mer length: an anchor is an exact `min_anchor_len`-mer
    /// occurring exactly once in every sequence.
    pub min_anchor_len: usize,
    /// Minimum residue distance between consecutive chained anchors (in
    /// every sequence; clamped up to `min_anchor_len` so anchors never
    /// overlap).
    pub min_anchor_spacing: usize,
    /// Target block-length cap: the anchor chain is thinned to the fewest
    /// cut points that keep every block at most this long wherever an
    /// anchor makes that possible (a block with no anchor inside cannot
    /// be split and may exceed the cap).
    pub max_block_len: usize,
    /// Half-width of the seam-polish window: after concatenation, the
    /// `±seam_window` columns around each block boundary are re-refined.
    /// `0` skips seam refinement.
    pub seam_window: usize,
    /// Leave-one-out passes over each seam window.
    pub seam_passes: usize,
    /// Minimum positional-agreement confidence for an anchor, in
    /// `[0, 1]` (see [`align::anchor::AnchorSpec::min_confidence`]).
    pub min_confidence: f64,
}

impl Default for VerticalConfig {
    fn default() -> Self {
        VerticalConfig {
            min_anchor_len: 8,
            min_anchor_spacing: 32,
            max_block_len: 512,
            seam_window: 16,
            seam_passes: 1,
            min_confidence: 0.5,
        }
    }
}

impl VerticalConfig {
    /// The [`AnchorSpec`] these knobs translate to.
    pub(crate) fn anchor_spec(&self) -> AnchorSpec {
        AnchorSpec {
            k: self.min_anchor_len,
            min_spacing: self.min_anchor_spacing,
            min_confidence: self.min_confidence,
        }
    }

    /// Check the knobs' internal consistency (called from
    /// [`crate::SadConfig::validate`]).
    pub fn validate(&self) -> Result<(), SadError> {
        if self.min_anchor_len == 0 {
            return Err(SadError::InvalidVertical { what: "min_anchor_len" });
        }
        if self.max_block_len == 0 {
            return Err(SadError::InvalidVertical { what: "max_block_len" });
        }
        Ok(())
    }
}

/// Census of one vertical run, recorded in [`RunReport::vertical`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct VerticalReport {
    /// Chained anchors the cut survived thinning with (0 when the run
    /// degraded to a single whole-length block).
    pub anchors: usize,
    /// Aligned column count of each block, in length order. One entry —
    /// the final alignment width — when the run degraded to one block.
    pub block_cols: Vec<usize>,
    /// Seam windows that were actually refined during glue.
    pub seam_windows: usize,
}

impl VerticalReport {
    /// Number of vertical blocks the run aligned.
    pub fn blocks(&self) -> usize {
        self.block_cols.len()
    }

    /// Mean aligned block width in columns.
    pub fn mean_block_cols(&self) -> f64 {
        if self.block_cols.is_empty() {
            return 0.0;
        }
        self.block_cols.iter().sum::<usize>() as f64 / self.block_cols.len() as f64
    }
}

/// The anchor chain plus the consistent block cut it induces.
#[derive(Debug, Clone)]
pub struct VerticalPlan {
    /// Chained, thinned anchors (positions per input sequence), in
    /// position order.
    pub anchors: Vec<Anchor>,
    /// The blocks: `blocks[b]` holds one [`Sequence`] slice per input, in
    /// input order with ids preserved. Concatenating `blocks[..][i]`
    /// reproduces input `i` byte-for-byte. Always at least one block.
    pub blocks: Vec<Vec<Sequence>>,
}

/// Scan for anchors and cut every sequence at the chained, thinned anchor
/// positions. Cut points are anchor *start* positions, so each anchor's
/// k-mer opens its block; with no reliable anchors the plan is one
/// whole-length block. Scanning cost lands in `work.kmer_ops`.
pub fn plan_blocks(seqs: &[Sequence], vcfg: &VerticalConfig, work: &mut Work) -> VerticalPlan {
    let rows: Vec<&[u8]> = seqs.iter().map(Sequence::codes).collect();
    let chained = scan_anchors(&rows, &vcfg.anchor_spec(), work);
    let anchors = thin_anchors(chained, &rows, vcfg);

    let mut blocks = Vec::with_capacity(anchors.len() + 1);
    let mut starts = vec![0usize; seqs.len()];
    for anchor in &anchors {
        blocks.push(cut(seqs, &starts, &anchor.positions));
        starts.clone_from(&anchor.positions);
    }
    let ends: Vec<usize> = rows.iter().map(|r| r.len()).collect();
    blocks.push(cut(seqs, &starts, &ends));
    VerticalPlan { anchors, blocks }
}

/// One block: every sequence sliced `starts[i]..ends[i]`.
fn cut(seqs: &[Sequence], starts: &[usize], ends: &[usize]) -> Vec<Sequence> {
    seqs.iter()
        .zip(starts.iter().zip(ends))
        .map(|(s, (&lo, &hi))| Sequence::from_codes(s.id.clone(), s.codes()[lo..hi].to_vec()))
        .collect()
}

/// Thin the anchor chain to the fewest cut points that keep every block
/// within `max_block_len` wherever possible: an anchor is kept only when
/// skipping it would stretch the running block past the cap in some
/// sequence (measured to the next potential cut).
fn thin_anchors(anchors: Vec<Anchor>, rows: &[&[u8]], vcfg: &VerticalConfig) -> Vec<Anchor> {
    let seq_ends: Vec<usize> = rows.iter().map(|r| r.len()).collect();
    let mut kept: Vec<Anchor> = Vec::new();
    let mut starts = vec![0usize; rows.len()];
    for (j, anchor) in anchors.iter().enumerate() {
        let next_cut: &[usize] =
            if j + 1 < anchors.len() { &anchors[j + 1].positions } else { &seq_ends };
        let overflow = starts.iter().zip(next_cut).any(|(&lo, &hi)| hi - lo > vcfg.max_block_len);
        if overflow {
            starts.clone_from(&anchor.positions);
            kept.push(anchor.clone());
        }
    }
    kept
}

/// The vertical pipeline: anchor scan → parallel block alignment → glue
/// with seam refinement. Entered from [`crate::Aligner::run`] when
/// [`crate::SadConfig::vertical`] is set on a non-distributed backend;
/// `width` is the worker count (1 for sequential, `threads` for rayon).
pub(crate) fn vertical_pipeline(
    seqs: &[Sequence],
    cfg: &SadConfig,
    vcfg: &VerticalConfig,
    backend: &Backend,
    width: usize,
    ctx: &PipelineCtx,
    scratch: &mut DpArena,
) -> Result<RunReport, SadError> {
    let plan = ctx.phase(Phase::AnchorScan, || {
        let mut work = Work::ZERO;
        let plan = plan_blocks(seqs, vcfg, &mut work);
        for (i, anchor) in plan.anchors.iter().enumerate() {
            ctx.anchor_found(i, anchor.positions[0], anchor.confidence);
        }
        (plan, work)
    })?;

    if plan.blocks.len() < 2 {
        // Graceful degradation: no reliable anchors, so run the ordinary
        // whole-length pipeline — byte-identical output — and record the
        // attempted decomposition in the report.
        let mut report = match backend {
            Backend::Sequential => crate::sequential::sequential_pipeline(seqs, cfg, ctx, scratch)?,
            Backend::Rayon { threads } => {
                crate::rayon_impl::shared_memory_pipeline(seqs, *threads, cfg, ctx)?
            }
            Backend::Distributed(_) => {
                unreachable!("Aligner::run rejects vertical mode on the distributed backend")
            }
        };
        report.vertical = Some(VerticalReport {
            anchors: 0,
            block_cols: vec![report.msa.num_cols()],
            seam_windows: 0,
        });
        return Ok(report);
    }

    // Block alignment: every block is an independent job on the same
    // self-scheduling pool the batch runner uses, each worker owning its
    // own DpArena, each block running the full configured engine.
    let blocks = &plan.blocks;
    let aligned: Vec<(Msa, Work)> = ctx.phase(Phase::BlockAlign, || {
        let results: Vec<(Msa, Work)> = crate::batch::pool_map(blocks.len(), width, |b, arena| {
            let t0 = Instant::now();
            let engine = cfg.engine.build_with(cfg.dp());
            let (msa, work) = engine.align_with_work_in(&blocks[b], arena);
            ctx.block_aligned(b, msa.num_rows(), msa.num_cols(), t0.elapsed().as_secs_f64());
            (msa, work)
        });
        let work = results.iter().map(|(_, w)| *w).sum();
        (results, work)
    })?;

    let block_cols: Vec<usize> = aligned.iter().map(|(m, _)| m.num_cols()).collect();
    let (msa, seam_windows) = ctx.phase(Phase::Glue, || {
        let mut work = Work::ZERO;
        let mut glued = concat_blocks(seqs, &aligned, &mut work);
        let seams = refine_seams(&mut glued, &block_cols, cfg, vcfg, scratch, &mut work);
        ((glued, seams), work)
    })?;

    let (phases, work) = ctx.drain();
    let extras = match backend {
        Backend::Sequential => crate::report::BackendExtras::Sequential,
        Backend::Rayon { threads } => crate::report::BackendExtras::Rayon { threads: *threads },
        Backend::Distributed(_) => unreachable!("vertical mode rejected on distributed"),
    };
    Ok(RunReport {
        msa,
        work,
        phases,
        bucket_sizes: vec![seqs.len()],
        ranks: width,
        samples_per_rank: cfg.samples_for(width),
        decomposition_depth: 0,
        kernel: cfg.dp_kernel.label(),
        vertical: Some(VerticalReport { anchors: plan.anchors.len(), block_cols, seam_windows }),
        trim: None,
        extras,
    })
}

/// Concatenate the block alignments row-wise. Every engine returns rows
/// in input order with input ids, so block `b`'s row `i` continues input
/// sequence `i`.
fn concat_blocks(seqs: &[Sequence], aligned: &[(Msa, Work)], work: &mut Work) -> Msa {
    let n = seqs.len();
    let total: usize = aligned.iter().map(|(m, _)| m.num_cols()).sum();
    let mut rows: Vec<Vec<u8>> = (0..n).map(|_| Vec::with_capacity(total)).collect();
    for (msa, _) in aligned {
        debug_assert_eq!(msa.num_rows(), n, "engine must keep every input row");
        for (r, row) in rows.iter_mut().enumerate() {
            debug_assert_eq!(msa.ids()[r], seqs[r].id, "engine must keep input row order");
            row.extend_from_slice(msa.row(r));
        }
    }
    work.col_ops += (total * n) as u64;
    Msa::from_rows(seqs.iter().map(|s| s.id.clone()).collect(), rows)
}

/// Polish a ±`seam_window` column window around each block boundary with
/// leave-one-out refinement, splicing the refined window back in place.
/// Returns how many windows were refined. Rows that are all-gap inside a
/// window sit out its refinement (a one-sided profile has nothing to
/// align) and are re-padded to the refined width.
fn refine_seams(
    glued: &mut Msa,
    block_cols: &[usize],
    cfg: &SadConfig,
    vcfg: &VerticalConfig,
    arena: &mut DpArena,
    work: &mut Work,
) -> usize {
    let w = vcfg.seam_window;
    if w == 0 || vcfg.seam_passes == 0 || block_cols.len() < 2 {
        return 0;
    }
    let mut refined = 0usize;
    // Seam positions from the original block widths, shifted as earlier
    // windows change width.
    let mut seam = 0isize;
    let mut delta = 0isize;
    for &cols in &block_cols[..block_cols.len() - 1] {
        seam += cols as isize;
        let s = (seam + delta).clamp(0, glued.num_cols() as isize) as usize;
        let lo = s.saturating_sub(w);
        let hi = (s + w).min(glued.num_cols());
        if hi - lo < 2 {
            continue;
        }
        if let Some(window) = refine_window(glued, lo, hi, cfg, vcfg, arena, work) {
            let new_w = window.first().map_or(0, Vec::len);
            delta += new_w as isize - (hi - lo) as isize;
            splice_window(glued, lo, hi, window, work);
            refined += 1;
        }
    }
    refined
}

/// Refine one `lo..hi` column window. Returns the refined window rows in
/// the alignment's row order (all the same length), or `None` when fewer
/// than two rows have residues in the window.
fn refine_window(
    glued: &Msa,
    lo: usize,
    hi: usize,
    cfg: &SadConfig,
    vcfg: &VerticalConfig,
    arena: &mut DpArena,
    work: &mut Work,
) -> Option<Vec<Vec<u8>>> {
    let n = glued.num_rows();
    let mut resident: Vec<usize> = Vec::with_capacity(n);
    for r in 0..n {
        if glued.row(r)[lo..hi].iter().any(|&c| c != GAP_CODE) {
            resident.push(r);
        }
    }
    if resident.len() < 2 {
        return None;
    }
    let sub = Msa::from_rows(
        resident.iter().map(|&r| glued.ids()[r].clone()).collect(),
        resident.iter().map(|&r| glued.row(r)[lo..hi].to_vec()).collect(),
    );
    let outcome =
        leave_one_out_with(&sub, &cfg.matrix, cfg.gaps, vcfg.seam_passes, cfg.dp(), arena);
    *work += outcome.work;
    // leave_one_out may permute rows (ids are preserved); restore the
    // window's row order by consuming refined rows id-by-id.
    let new_w = outcome.msa.num_cols();
    let mut taken = vec![false; outcome.msa.num_rows()];
    let mut rows: Vec<Vec<u8>> = Vec::with_capacity(n);
    for r in 0..n {
        if resident.contains(&r) {
            let j = (0..outcome.msa.num_rows())
                .find(|&j| !taken[j] && outcome.msa.ids()[j] == glued.ids()[r])
                .expect("refinement preserves ids");
            taken[j] = true;
            rows.push(outcome.msa.row(j).to_vec());
        } else {
            rows.push(vec![GAP_CODE; new_w]);
        }
    }
    Some(rows)
}

/// Replace columns `lo..hi` of every row with the (possibly differently
/// sized) refined window rows.
fn splice_window(glued: &mut Msa, lo: usize, hi: usize, window: Vec<Vec<u8>>, work: &mut Work) {
    let ids = glued.ids().to_vec();
    let rows: Vec<Vec<u8>> = window
        .into_iter()
        .enumerate()
        .map(|(r, mid)| {
            let old = glued.row(r);
            let mut row = Vec::with_capacity(old.len() - (hi - lo) + mid.len());
            row.extend_from_slice(&old[..lo]);
            row.extend_from_slice(&mid);
            row.extend_from_slice(&old[hi..]);
            row
        })
        .collect();
    work.col_ops += rows.iter().map(Vec::len).sum::<usize>() as u64;
    *glued = Msa::from_rows(ids, rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aligner, Backend, Event, SadConfig};
    use rosegen::{Family, FamilyConfig};
    use std::sync::{Arc, Mutex};

    /// A family long and related enough to anchor reliably (low rose
    /// relatedness = few substitutions per site).
    fn anchored_family(n: usize, len: usize, seed: u64) -> Vec<Sequence> {
        Family::generate(&FamilyConfig {
            n_seqs: n,
            avg_len: len,
            relatedness: 120.0,
            indel_rate: 0.01,
            seed,
            ..Default::default()
        })
        .seqs
    }

    fn vcfg_small() -> VerticalConfig {
        VerticalConfig {
            min_anchor_len: 6,
            min_anchor_spacing: 24,
            max_block_len: 150,
            seam_window: 8,
            ..Default::default()
        }
    }

    #[test]
    fn plan_is_lossless_and_consistent() {
        let seqs = anchored_family(6, 400, 11);
        let mut work = Work::ZERO;
        let plan = plan_blocks(&seqs, &vcfg_small(), &mut work);
        assert!(!plan.blocks.is_empty());
        assert!(work.kmer_ops > 0);
        for (i, seq) in seqs.iter().enumerate() {
            let mut glued: Vec<u8> = Vec::new();
            for block in &plan.blocks {
                assert_eq!(block[i].id, seq.id);
                glued.extend_from_slice(block[i].codes());
            }
            assert_eq!(glued, seq.codes(), "block cut must reproduce input {i}");
        }
        for block in &plan.blocks {
            assert!(block.iter().all(|s| !s.is_empty()), "blocks are never empty");
        }
    }

    #[test]
    fn thinning_respects_max_block_len_when_anchors_allow() {
        let seqs = anchored_family(4, 600, 12);
        let mut work = Work::ZERO;
        let tight = VerticalConfig { max_block_len: 120, ..vcfg_small() };
        let plan = plan_blocks(&seqs, &tight, &mut work);
        let loose = VerticalConfig { max_block_len: 10_000, ..vcfg_small() };
        let lazy = plan_blocks(&seqs, &loose, &mut work);
        assert!(plan.blocks.len() > lazy.blocks.len(), "tighter cap keeps more anchors");
        assert_eq!(lazy.blocks.len(), 1, "a huge cap needs no cuts at all");
    }

    #[test]
    fn vertical_run_matches_rows_and_reports_census() {
        let seqs = anchored_family(6, 400, 13);
        let cfg = SadConfig::default().with_vertical(vcfg_small());
        let events: Arc<Mutex<Vec<Event>>> = Arc::default();
        let sink = Arc::clone(&events);
        let report = Aligner::new(cfg)
            .observer(Arc::new(move |e: &Event| sink.lock().unwrap().push(e.clone())))
            .run(&seqs)
            .unwrap();
        report.msa.validate().unwrap();
        assert_eq!(report.msa.num_rows(), 6);
        assert_eq!(report.msa.ids()[0], seqs[0].id);
        // Rows ungap back to the inputs.
        for (i, seq) in seqs.iter().enumerate() {
            assert_eq!(report.msa.ungapped(i).codes(), seq.codes(), "row {i}");
        }
        let v = report.vertical.as_ref().expect("vertical census recorded");
        assert!(v.blocks() >= 2, "length-400 family with a 150 cap must split");
        assert_eq!(v.anchors + 1, v.blocks());
        assert!(report.phase(Phase::AnchorScan).is_some());
        assert!(report.phase(Phase::BlockAlign).is_some());
        assert!(report.phase(Phase::Glue).is_some());
        let evs = events.lock().unwrap();
        let anchors_seen = evs.iter().filter(|e| matches!(e, Event::AnchorFound { .. })).count();
        let blocks_seen = evs.iter().filter(|e| matches!(e, Event::BlockAligned { .. })).count();
        assert_eq!(anchors_seen, v.anchors);
        assert_eq!(blocks_seen, v.blocks());
        let table = report.phase_table();
        assert!(table.contains("decomposition:"), "{table}");
        assert!(table.contains("0-anchor-scan"), "{table}");
        assert!(table.contains("8-block-align"), "{table}");
    }

    #[test]
    fn sequential_and_rayon_vertical_are_byte_identical() {
        let seqs = anchored_family(8, 500, 14);
        let cfg = SadConfig::default().with_vertical(vcfg_small());
        let seq = Aligner::new(cfg.clone()).run(&seqs).unwrap();
        let ray = Aligner::new(cfg).backend(Backend::Rayon { threads: 4 }).run(&seqs).unwrap();
        assert_eq!(seq.msa, ray.msa, "vertical output is backend-independent");
        assert_eq!(seq.work, ray.work);
        assert_eq!(seq.vertical, ray.vertical);
        assert_eq!(ray.ranks, 4);
    }

    #[test]
    fn unanchorable_input_degrades_to_whole_length_parity() {
        // Deeply diverged sequences (high rose relatedness = many
        // substitutions per site): no shared unique k-mers, no anchors.
        let seqs = Family::generate(&FamilyConfig {
            n_seqs: 6,
            avg_len: 80,
            relatedness: 1500.0,
            seed: 15,
            ..Default::default()
        })
        .seqs;
        let plain = Aligner::new(SadConfig::default()).run(&seqs).unwrap();
        let vertical = Aligner::new(
            SadConfig::default()
                .with_vertical(VerticalConfig { min_anchor_len: 24, ..Default::default() }),
        )
        .run(&seqs)
        .unwrap();
        assert_eq!(vertical.msa, plain.msa, "zero anchors must mean byte parity");
        let v = vertical.vertical.as_ref().unwrap();
        assert_eq!((v.anchors, v.blocks()), (0, 1));
        assert!(vertical.phase(Phase::AnchorScan).is_some(), "scan is still recorded");
    }

    #[test]
    fn vertical_rejected_on_distributed() {
        use vcluster::{CostModel, VirtualCluster};
        let seqs = anchored_family(4, 100, 16);
        let cfg = SadConfig::default().with_vertical(VerticalConfig::default());
        let err = Aligner::new(cfg)
            .backend(Backend::Distributed(VirtualCluster::new(2, CostModel::beowulf_2008())))
            .run(&seqs);
        assert_eq!(err, Err(SadError::VerticalUnsupported { backend: "distributed" }));
    }

    #[test]
    fn glued_output_has_no_all_gap_columns() {
        let seqs = anchored_family(6, 450, 17);
        let cfg = SadConfig::default().with_vertical(vcfg_small());
        let report = Aligner::new(cfg).run(&seqs).unwrap();
        let msa = &report.msa;
        for c in 0..msa.num_cols() {
            assert!(
                (0..msa.num_rows()).any(|r| msa.row(r)[c] != GAP_CODE),
                "all-gap column {c} survived glue"
            );
        }
    }
}
