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
//! so they are dealt over the ranks.
//!
//! Wire-up: [`crate::SadConfig::with_vertical`] turns the mode on, on
//! every backend. The pipeline body then runs [`Phase::AnchorScan`] /
//! [`Phase::BlockAlign`] / [`Phase::Glue`] over the same communication
//! trait as the twelve steps, and degrades gracefully to the ordinary
//! whole-length pipeline when no reliable anchors exist.

use crate::config::SadConfig;
use crate::error::SadError;
use crate::messages::MsaBlockMsg;
use crate::pipeline::{Phase, PipelineCtx};
use crate::spmd::{Comm, Outcome};
use align::anchor::{scan_anchors, Anchor, AnchorSpec};
use align::refine::leave_one_out_with;
use align::DpArena;
use bioseq::alphabet::GAP_CODE;
use bioseq::{GapPenalties, Msa, Sequence, SubstMatrix, Work};
use std::ops::Range;
use std::time::Instant;

/// Knobs of the vertical decomposition, set via
/// [`crate::SadConfig::with_vertical`].
///
/// Construct with struct-update syntax over the default:
/// `VerticalConfig { max_block_len: 256, ..Default::default() }`.
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// Census of one vertical run, recorded in [`RunReport::vertical`](crate::RunReport::vertical).
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
    let anchors = chain_anchors(seqs, vcfg, work);
    let cuts: Vec<Vec<usize>> = anchors.iter().map(|a| a.positions.clone()).collect();
    let blocks = (0..=cuts.len()).map(|b| cut(seqs, &cuts, b)).collect();
    VerticalPlan { anchors, blocks }
}

/// The anchor chain of `seqs`, thinned to the block-length cap.
fn chain_anchors(seqs: &[Sequence], vcfg: &VerticalConfig, work: &mut Work) -> Vec<Anchor> {
    let rows: Vec<&[u8]> = seqs.iter().map(Sequence::codes).collect();
    let chained = scan_anchors(&rows, &vcfg.anchor_spec(), work);
    thin_anchors(chained, &rows, vcfg)
}

/// Block `b` of the cut at `cuts` (one start position per sequence for
/// each anchor): every sequence sliced from cut `b − 1` (its start, for
/// the first block) to cut `b` (its end, for the last).
fn cut(seqs: &[Sequence], cuts: &[Vec<usize>], b: usize) -> Vec<Sequence> {
    seqs.iter()
        .enumerate()
        .map(|(i, s)| {
            let lo = b.checked_sub(1).map_or(0, |prev| cuts[prev][i]);
            let hi = cuts.get(b).map_or(s.len(), |next| next[i]);
            Sequence::from_codes(s.id.clone(), s.codes()[lo..hi].to_vec())
        })
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

/// Vertical mode as steps of the one pipeline body, run first on every
/// backend when [`SadConfig::vertical`] is set:
///
/// * step 0 — the root scans and thins the anchor chain and broadcasts
///   the cut positions;
/// * step 8 — the blocks are dealt over the ranks in contiguous runs of
///   about equal residue count; each rank cuts its own blocks from the
///   staged input and runs the engine on each;
/// * step 12 — the root gathers the block alignments in rank order,
///   which is block order, concatenates them and polishes the seams.
///
/// `None` when vertical mode is off or the scan found no cut: the caller
/// then runs the whole-length pipeline, byte-identical to vertical mode
/// off.
pub(crate) fn vertical<C: Comm>(
    c: &mut C,
    ctx: &PipelineCtx,
    seqs: &[Sequence],
    cfg: &SadConfig,
) -> Result<Option<Outcome>, SadError> {
    let Some(vcfg) = &cfg.vertical else {
        return Ok(None);
    };
    let cuts: Vec<Vec<usize>> = c.phase(Phase::AnchorScan, |c| {
        let root_cuts = c.is_root().then(|| {
            let mut work = Work::ZERO;
            let anchors = chain_anchors(seqs, vcfg, &mut work);
            c.charge(work);
            let cuts = anchors.into_iter().enumerate().map(|(i, anchor)| {
                ctx.anchor_found(i, anchor.positions[0], anchor.confidence);
                anchor.positions
            });
            cuts.collect()
        });
        c.broadcast(root_cuts)
    })?;
    if cuts.is_empty() {
        return Ok(None);
    }

    let p = c.size();
    let aligned = c.phase(Phase::BlockAlign, |c| {
        let dealt = c.owned().map(|rank| dealt_blocks(seqs, &cuts, p, rank)).collect();
        c.each(dealt, |_, mine: Range<usize>| {
            let engine = cfg.engine.build_with(cfg.dp());
            let mut arena = DpArena::new();
            let mut work = Work::ZERO;
            let msas: Vec<MsaBlockMsg> = mine
                .map(|b| {
                    let t0 = Instant::now();
                    let (msa, w) = engine.align_with_work_in(&cut(seqs, &cuts, b), &mut arena);
                    let seconds = t0.elapsed().as_secs_f64();
                    work += w;
                    ctx.block_aligned(b, msa.num_rows(), msa.num_cols(), seconds);
                    MsaBlockMsg(msa)
                })
                .collect();
            (msas, work)
        })
    })?;

    let glued = c.phase(Phase::Glue, |c| {
        c.gather(aligned).map(|per_rank| {
            let msas: Vec<Msa> = per_rank.into_iter().flatten().map(|block| block.0).collect();
            let block_cols: Vec<usize> = msas.iter().map(Msa::num_cols).collect();
            let mut work = Work::ZERO;
            let mut msa = concat_blocks(seqs, &msas, &mut work);
            let seam_windows =
                refine_seams(&mut msa, &block_cols, cfg, vcfg, &mut DpArena::new(), &mut work);
            c.charge(work);
            (msa, VerticalReport { anchors: cuts.len(), block_cols, seam_windows })
        })
    })?;
    // Every block holds every sequence: one bucket, reported by the root.
    let bucket_sizes = glued.iter().map(|_| seqs.len()).collect();
    let (msa, vertical) = glued.unzip();
    Ok(Some(Outcome { msa, bucket_sizes, depth: 0, vertical }))
}

/// The blocks rank `rank` aligns: blocks are dealt in contiguous runs by
/// residue count, each to the rank whose equal share of all residues
/// holds the block's middle residue.
fn dealt_blocks(seqs: &[Sequence], cuts: &[Vec<usize>], p: usize, rank: usize) -> Range<usize> {
    let total: usize = seqs.iter().map(Sequence::len).sum();
    // Residues before each cut, bracketed by the start and the end.
    let bounds: Vec<usize> = std::iter::once(0)
        .chain(cuts.iter().map(|cut| cut.iter().sum()))
        .chain(std::iter::once(total))
        .collect();
    let owner = |b: usize| ((bounds[b] + bounds[b + 1]) * p / (2 * total)).min(p - 1);
    let blocks = cuts.len() + 1;
    let first = (0..blocks).filter(|&b| owner(b) < rank).count();
    first..(0..blocks).filter(|&b| owner(b) <= rank).count()
}

/// Concatenate the block alignments row-wise. Every engine returns rows
/// in input order with input ids, so block `b`'s row `i` continues input
/// sequence `i`.
fn concat_blocks(seqs: &[Sequence], aligned: &[Msa], work: &mut Work) -> Msa {
    let n = seqs.len();
    let total: usize = aligned.iter().map(Msa::num_cols).sum();
    let mut rows: Vec<Vec<u8>> = (0..n).map(|_| Vec::with_capacity(total)).collect();
    for msa in aligned {
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
    let (matrix, gaps) = (SubstMatrix::blosum62(), GapPenalties::default());
    let outcome = leave_one_out_with(&sub, &matrix, gaps, vcfg.seam_passes, cfg.dp(), arena);
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
    use crate::{Aligner, Backend, CancelToken, Event, SadConfig};
    use rosegen::{Family, FamilyConfig};
    use std::sync::{Arc, Mutex};
    use vcluster::{CostModel, VirtualCluster};

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
    fn blocks_are_dealt_in_order_by_residue_count() {
        let seqs = vec![Sequence::from_codes("a", vec![1; 100]); 2];
        let deal = |cuts: &[Vec<usize>], p| -> Vec<Range<usize>> {
            (0..p).map(|rank| dealt_blocks(&seqs, cuts, p, rank)).collect()
        };
        // Contiguous runs that tile the blocks in rank order.
        let even: Vec<Vec<usize>> = (1..8).map(|k| vec![k * 12; 2]).collect();
        let runs = deal(&even, 3);
        assert_eq!(
            runs.iter().flat_map(Range::clone).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
        assert!(runs.iter().all(|r| (2..=3).contains(&r.len())), "{runs:?}");
        // Two equal blocks over four ranks go to ranks 1 and 3, one in
        // each half of the rank range (a per-block-count deal gives them
        // to ranks 0 and 1); the other ranks stay idle.
        assert_eq!(deal(&[vec![50, 50]], 4), vec![0..0, 0..1, 1..1, 1..2]);
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

    fn cluster(p: usize) -> Backend {
        Backend::Distributed(VirtualCluster::new(p, CostModel::beowulf_2008()))
    }

    #[test]
    fn vertical_is_byte_identical_on_every_backend() {
        let seqs = anchored_family(8, 500, 14);
        let cfg = SadConfig::default().with_vertical(vcfg_small());
        let seq = Aligner::new(cfg.clone()).run(&seqs).unwrap();
        assert!(seq.vertical.as_ref().unwrap().blocks() >= 3, "enough blocks to deal");
        // More ranks than blocks leaves trailing ranks idle.
        for backend in [Backend::Rayon { threads: 4 }, cluster(3), cluster(16)] {
            let name = backend.name();
            let run = Aligner::new(cfg.clone()).backend(backend).run(&seqs).unwrap();
            assert_eq!(seq.msa, run.msa, "{name}: vertical output is backend-independent");
            assert_eq!(seq.work, run.work, "{name}");
            assert_eq!(seq.vertical, run.vertical, "{name}");
            assert_eq!(seq.bucket_sizes, run.bucket_sizes, "{name}");
            assert_eq!(seq.phase_sequence(), run.phase_sequence(), "{name}");
            for (s, r) in seq.phases.iter().zip(&run.phases) {
                assert_eq!(s.work, r.work, "{name}: {}", s.name());
            }
            let distributed = run.makespan().is_some();
            assert!(run.phases.iter().all(|p| p.virtual_seconds.is_some() == distributed));
        }
    }

    #[test]
    fn cancelled_distributed_vertical_run_stops_every_rank_at_one_boundary() {
        // Cancel on the first aligned block: here the root is dealt
        // block 0 and aligns it before it polls the glue boundary, so
        // every rank must stop there, with every phase any rank entered
        // left by all of them.
        let events: Arc<Mutex<Vec<Event>>> = Arc::default();
        let sink = Arc::clone(&events);
        let token = CancelToken::new();
        let trigger = token.clone();
        let result = Aligner::new(SadConfig::default().with_vertical(vcfg_small()))
            .backend(cluster(3))
            .cancel_token(token)
            .observer(Arc::new(move |e: &Event| {
                sink.lock().unwrap().push(e.clone());
                if matches!(e, Event::BlockAligned { .. }) {
                    trigger.cancel();
                }
            }))
            .run(&anchored_family(6, 500, 18));
        assert_eq!(result, Err(SadError::Cancelled { phase: Phase::Glue }));
        let evs = events.lock().unwrap();
        let started: Vec<Phase> = evs
            .iter()
            .filter_map(|e| match e {
                Event::PhaseStarted { phase } => Some(*phase),
                _ => None,
            })
            .collect();
        let finished: Vec<Phase> = evs
            .iter()
            .filter_map(|e| match e {
                Event::PhaseFinished { phase, .. } => Some(*phase),
                _ => None,
            })
            .collect();
        assert_eq!(started, vec![Phase::AnchorScan, Phase::BlockAlign]);
        assert_eq!(started, finished);
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
