//! The one global Gotoh dynamic-programming kernel under every alignment path.
//!
//! Sample-Align-D's speed rests on each processor running its sequential
//! aligner over small domains, which makes the affine-gap DP the hot path
//! of the whole system. This module is the single home of that recurrence:
//!
//! * **One kernel, many scorers.** [`gotoh_global_with`] is generic over a
//!   [`ColumnScorer`], so residue-vs-residue alignment (via
//!   [`SubstScorer`]) and profile-vs-profile alignment (via [`PspScorer`],
//!   the PSP objective of MUSCLE) share one implementation instead of the
//!   four near-identical matrix fills the crate used to carry.
//! * **Packed traceback + rolling rows.** Scores live in two rolling rows
//!   (three layers each); the traceback stores all three layer choices in
//!   a single byte per cell, in one store both kernels write. A full Gotoh
//!   instance used to keep six `O(n·m)` arrays of 8-byte scores — roughly
//!   48 bytes per cell; the kernel keeps 1 byte per *in-band* cell plus
//!   `O(m)` score storage.
//! * **Reusable scratch.** All storage lives in a [`DpArena`] that callers
//!   thread through progressive alignment and refinement, so steady-state
//!   alignment performs no per-call heap allocation once the arena has
//!   grown to the workload's high-water mark. It holds rolling rows and
//!   the traceback bytes with each row's offset (the band geometry is
//!   computed per row), and nothing carries from one fill to the next.
//! * **Banded mode with adaptive doubling.** Under [`BandPolicy::Auto`]
//!   the DP is restricted to a diagonal band sized by the length
//!   difference, and the band is doubled until the traced optimum clears
//!   the band edges **and** doubling no longer changes the score (edge
//!   clearance alone is not evidence of optimality — see
//!   [`gotoh_global_with`]). The doubled band is filled first: when its
//!   path stays inside the narrower band, that proves the narrower score,
//!   which is then never filled. The fallback of the doubling is the full
//!   fill, so results converge to the full-DP optimum while
//!   [`bioseq::Work::dp_cells`] records only the cells actually filled.
//!
//! * **Two interchangeable kernels.** The classic scalar `f64` fill and a
//!   striped `f32` fill that scores each in-band row once per fill
//!   through the batched [`ColumnScorer`] API, splits the recurrence into
//!   two vectorizable passes plus one serial suffix scan, and writes the
//!   same one-byte-per-cell traceback as the scalar fill. The scalar
//!   kernel is the property-test oracle. The striped fill runs only under
//!   [`DpKernel::Auto`], and only when the scorer reports
//!   [`ColumnScorer::f32_compatible`] (integral scores whose running sums
//!   stay below 2²⁴), where every striped decision is provably the
//!   scalar one; so no kernel choice changes an alignment. Scorers build
//!   their `f32` lane tables only when they pass that audit, so a scorer
//!   that will run scalar costs no striped setup.
//!
//! Scalar scores are `f64` throughout. For integer substitution matrices
//! and gap penalties every intermediate value is an exact small integer,
//! so both kernels reproduce the historical `i64` pairwise scores
//! bit-for-bit.

use crate::profile::Profile;
use bioseq::alphabet::CODE_COUNT;
use bioseq::{GapPenalties, SubstMatrix, Work};

/// The "unreachable" score. Ordinary arithmetic keeps it absorbing
/// (`NEG_INF + x == NEG_INF`), which is exactly what the recurrence needs.
pub const NEG_INF: f64 = f64::NEG_INFINITY;

/// Pick the best of the three layer scores, preferring M over X over Y on
/// ties (the tie-break every aligner in this crate has always used).
/// Returns `(best value, layer index)` with 0 = M, 1 = X, 2 = Y.
#[inline]
pub fn best3(m: f64, x: f64, y: f64) -> (f64, u8) {
    if m >= x && m >= y {
        (m, 0)
    } else if x >= y {
        (x, 1)
    } else {
        (y, 2)
    }
}

/// One traceback step of an alignment: which side(s) a merged column
/// consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColOp {
    /// Consume one column from each side (aligned columns).
    Both,
    /// Consume a column from the first side; gap column in the second.
    FromA,
    /// Consume a column from the second side; gap column in the first.
    FromB,
}

/// How the kernel restricts the DP to a diagonal band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BandPolicy {
    /// Fill the whole matrix. Exact, `O(n·m)` cells.
    Full,
    /// Start from a band sized by the sequence length difference (at
    /// least [`AUTO_MIN_BAND`]), and double it until the traced optimum
    /// clears the band edges and doubling leaves the score unchanged
    /// (falling back to the full fill). Each rung fills the doubled band
    /// first and fills the narrower one only when the doubled fill's path
    /// leaves it (see [`gotoh_global_with`]). Matches the full-DP optimum on
    /// every input we can construct — including shifted and transposed
    /// blocks — while filling only near-diagonal cells on homologous
    /// ones; the acceptance test is a (strong) heuristic, not a proof.
    #[default]
    Auto,
}

impl BandPolicy {
    /// Stable label for engine names, CLI round-trips and reports:
    /// `"full"` or `"auto"`.
    pub fn label(&self) -> &'static str {
        match self {
            BandPolicy::Full => "full",
            BandPolicy::Auto => "auto",
        }
    }

    /// Parse a [`label`](Self::label) back into a policy. Returns `None`
    /// for unknown text.
    pub fn parse(text: &str) -> Option<BandPolicy> {
        match text {
            "full" => Some(BandPolicy::Full),
            "auto" => Some(BandPolicy::Auto),
            _ => None,
        }
    }
}

/// Minimum initial half-width for [`BandPolicy::Auto`]. Instances whose
/// shorter side fits inside this band degenerate to a full fill, so tiny
/// alignments pay no banding overhead (and lose no optimality).
pub const AUTO_MIN_BAND: usize = 32;

/// Which matrix-fill implementation [`gotoh_global_with`] runs.
///
/// Both choices give the same alignment, score and cell count on every
/// input: `Auto` runs the striped `f32` fill only where the scorer is
/// [`ColumnScorer::f32_compatible`], where its decisions are the scalar
/// fill's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DpKernel {
    /// The one-cell-at-a-time `f64` fill: the property-test oracle.
    Scalar,
    /// Per-instance choice: the data-parallel `f32` row fill whenever the
    /// scorer guarantees f32-exact decisions, scalar otherwise.
    #[default]
    Auto,
}

impl DpKernel {
    /// Stable label for engine names, CLI round-trips and reports:
    /// `"scalar"` or `"auto"`.
    pub fn label(&self) -> &'static str {
        match self {
            DpKernel::Scalar => "scalar",
            DpKernel::Auto => "auto",
        }
    }

    /// Parse a [`label`](Self::label) back into a kernel choice. Returns
    /// `None` for unknown text.
    pub fn parse(text: &str) -> Option<DpKernel> {
        match text {
            "scalar" => Some(DpKernel::Scalar),
            "auto" => Some(DpKernel::Auto),
            _ => None,
        }
    }
}

/// The DP options of one alignment: how the matrix is banded and which
/// fill runs. Every DP-running operation in this crate and in `sad_core`
/// has one form, `*_with`, which takes this one value (or a bare
/// [`BandPolicy`], which converts) next to a `&mut` [`DpArena`].
///
/// [`DpOptions::default`] is **auto band, auto kernel**: what the engines
/// and the pipeline run unless told otherwise. Every value aims at the
/// full DP's optimum: the kernel never changes an alignment, and the auto
/// band only decides how many cells it takes to find it. The
/// unconditionally exact full DP is `DpOptions::from(BandPolicy::Full)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DpOptions {
    /// Band restriction of the matrix fill.
    pub band: BandPolicy,
    /// Matrix-fill implementation.
    pub kernel: DpKernel,
}

impl DpOptions {
    /// Engine-name suffix: empty for the defaults (which keep the
    /// historical names), otherwise `+<band>` and/or `+<kernel>` so
    /// reports show the exact DP configuration used.
    pub fn name_suffix(&self) -> String {
        let mut suffix = String::new();
        if self.band != BandPolicy::default() {
            suffix.push('+');
            suffix.push_str(self.band.label());
        }
        if self.kernel != DpKernel::default() {
            suffix.push('+');
            suffix.push_str(self.kernel.label());
        }
        suffix
    }
}

/// A bare band policy is that band under the auto kernel.
impl From<BandPolicy> for DpOptions {
    fn from(band: BandPolicy) -> Self {
        DpOptions { band, kernel: DpKernel::default() }
    }
}

/// Largest magnitude below which every integer is exactly representable
/// in `f32` (2²⁴): the boundary of the striped kernel's exactness proof.
const F32_EXACT_LIMIT: f64 = 16_777_216.0;

/// Build the [`SubstScorer`] per-residue lane table only for instances of
/// at least this many cells; below it gathering each row from the matrix
/// is cheap enough and the table would cost more than it saves.
const LANE_TABLE_MIN_CELLS: usize = 256;

/// The column-level scoring interface the kernel is generic over.
///
/// `i` indexes columns of the first side (`0..len_a()`), `j` of the second
/// (`0..len_b()`). Gap costs are *positive* charges: `gap_open_a(i)` is
/// the cost of the first gap symbol inserted into side B while consuming
/// column `i` of side A (the X layer), `gap_extend_a(i)` the cost of each
/// further one; `*_b` mirrors this for gaps in side A (the Y layer). Each
/// gap cost exists once, as `f64`; lane tables for the batched row fill
/// exist only for f32-exact scorers.
pub trait ColumnScorer {
    /// Number of columns on the first side.
    fn len_a(&self) -> usize;
    /// Number of columns on the second side.
    fn len_b(&self) -> usize;
    /// Substitution / PSP score for aligning column `i` of A with column
    /// `j` of B.
    fn substitution(&self, i: usize, j: usize) -> f64;
    /// Cost of opening a gap run in B that consumes A's column `i`.
    fn gap_open_a(&self, i: usize) -> f64;
    /// Cost of extending a gap run in B across A's column `i`.
    fn gap_extend_a(&self, i: usize) -> f64;
    /// Cost of opening a gap run in A that consumes B's column `j`.
    fn gap_open_b(&self, j: usize) -> f64;
    /// Cost of extending a gap run in A across B's column `j`.
    fn gap_extend_b(&self, j: usize) -> f64;

    /// Batched scoring: write `substitution(i, j0 + k)` for `k` in
    /// `0..out.len()` as `f32` lanes (the striped kernel's hot path).
    /// Callable only when [`f32_compatible`](Self::f32_compatible) holds:
    /// the lane tables it reads are built only for such scorers.
    fn fill_substitution_row(&self, i: usize, j0: usize, out: &mut [f32]);
    /// Whether every decision the striped `f32` kernel would take on this
    /// instance is exact: all scores and gap costs are integers, and the
    /// worst-case running sum stays below 2²⁴ (f32's exact-integer
    /// range). When true, [`DpKernel::Auto`] selects the striped kernel
    /// with byte-identical traceback guaranteed; otherwise it stays on the
    /// scalar oracle. No kernel choice runs the striped fill without it.
    fn f32_compatible(&self) -> bool;
}

/// Residue-vs-residue scorer: a substitution matrix plus uniform affine
/// gap penalties. Terminal gaps are charged like internal ones, matching
/// [`bioseq::Msa::sp_score`]'s convention.
#[derive(Debug)]
pub struct SubstScorer<'a> {
    a: &'a [u8],
    b: &'a [u8],
    matrix: &'a SubstMatrix,
    open: f64,
    extend: f64,
    /// Per-residue score lanes: `lanes[c·m + j] = S(c, b[j])` for every
    /// code `c` present in `a`, so a striped row fill is one table copy.
    /// Left empty when the instance fails the f32 audit (it never runs
    /// striped), and for tiny instances where building it costs more than
    /// the fill saves (the row fill then gathers from the matrix row).
    lanes: Vec<f32>,
    f32_ok: bool,
}

impl<'a> SubstScorer<'a> {
    /// Build a scorer over two code slices.
    pub fn new(a: &'a [u8], b: &'a [u8], matrix: &'a SubstMatrix, gaps: GapPenalties) -> Self {
        let (open, extend) = (gaps.open as f64, gaps.extend as f64);
        let m = b.len();
        // Integer matrix, integer gaps: the striped kernel is exact as
        // long as no running sum can leave f32's exact-integer range.
        let max_step = (0..CODE_COUNT)
            .flat_map(|c| matrix.row(c as u8).iter())
            .fold(open.abs().max(extend.abs()), |acc, &v| acc.max((v as f64).abs()));
        let f32_ok = (a.len() + m + 2) as f64 * max_step < F32_EXACT_LIMIT;
        let lanes = if f32_ok && a.len() * m >= LANE_TABLE_MIN_CELLS {
            let mut present = [false; CODE_COUNT];
            for &c in a {
                present[c as usize] = true;
            }
            let mut lanes = vec![0.0f32; CODE_COUNT * m];
            for (c, lane) in lanes.chunks_mut(m).enumerate() {
                if !present[c] {
                    continue;
                }
                let row = matrix.row(c as u8);
                for (slot, &code) in lane.iter_mut().zip(b) {
                    *slot = row[code as usize] as f32;
                }
            }
            lanes
        } else {
            Vec::new()
        };
        SubstScorer { a, b, matrix, open, extend, lanes, f32_ok }
    }
}

impl ColumnScorer for SubstScorer<'_> {
    #[inline]
    fn len_a(&self) -> usize {
        self.a.len()
    }
    #[inline]
    fn len_b(&self) -> usize {
        self.b.len()
    }
    #[inline]
    fn substitution(&self, i: usize, j: usize) -> f64 {
        self.matrix.row(self.a[i])[self.b[j] as usize] as f64
    }
    #[inline]
    fn gap_open_a(&self, _i: usize) -> f64 {
        self.open
    }
    #[inline]
    fn gap_extend_a(&self, _i: usize) -> f64 {
        self.extend
    }
    #[inline]
    fn gap_open_b(&self, _j: usize) -> f64 {
        self.open
    }
    #[inline]
    fn gap_extend_b(&self, _j: usize) -> f64 {
        self.extend
    }
    fn fill_substitution_row(&self, i: usize, j0: usize, out: &mut [f32]) {
        if self.lanes.is_empty() {
            let row = self.matrix.row(self.a[i]);
            for (slot, &code) in out.iter_mut().zip(&self.b[j0..]) {
                *slot = row[code as usize] as f32;
            }
        } else {
            let lane = &self.lanes[self.a[i] as usize * self.b.len() + j0..];
            out.copy_from_slice(&lane[..out.len()]);
        }
    }
    fn f32_compatible(&self) -> bool {
        self.f32_ok
    }
}

/// Profile-vs-profile scorer: the weighted PSP objective. Gap penalties
/// are scaled by the residue weight of the consumed column times the total
/// weight of the profile receiving the gap, keeping the objective in
/// weighted sum-of-pairs units end to end (exactly the arithmetic the old
/// `papro` matrix fill used).
#[derive(Debug)]
pub struct PspScorer<'a> {
    pa: &'a Profile,
    /// Dense expected-score vectors for B's columns: `psp(i, j)` becomes a
    /// sparse dot of A's column `i` against `eb[j]`.
    eb: Vec<[f64; CODE_COUNT]>,
    /// Lane-major `f32` transpose of `eb` (`et[c·m + j] = eb[j][c]`): the
    /// striped row fill accumulates `w·et` over A's sparse residues with
    /// unit-stride multiply-adds. `Some` exactly when the scorer passes
    /// the f32 audit ([`ColumnScorer::f32_compatible`]).
    et: Option<Vec<f32>>,
    open_a: Vec<f64>,
    extend_a: Vec<f64>,
    open_b: Vec<f64>,
    extend_b: Vec<f64>,
}

impl<'a> PspScorer<'a> {
    /// Precompute the per-column gap costs and dense expected-score
    /// vectors in one pass over A's columns and one over B's, auditing
    /// f32-exactness on the way. The `O(m·|Σ|)` setup cost is charged to
    /// `work.col_ops`. The `f32` lane table is written during B's pass only
    /// when A's weights are integral (otherwise the audit fails whatever B
    /// holds), and dropped when the final verdict fails.
    ///
    /// The audit for the striped kernel: integral weights make every PSP
    /// term an integer, and the magnitude bound keeps the worst-case
    /// running sum inside f32's exact-integer range. Both must hold before
    /// Auto may leave the f64 oracle. Integrality is an `all` and the
    /// bounds are maxima of absolute values, so the verdict does not
    /// depend on the order the passes visit the values in.
    pub fn new(
        pa: &'a Profile,
        pb: &Profile,
        matrix: &SubstMatrix,
        gaps: GapPenalties,
        work: &mut Work,
    ) -> Self {
        let (open, extend) = (gaps.open as f64, gaps.extend as f64);
        let (n, m) = (pa.len(), pb.len());
        work.col_ops += (m * CODE_COUNT) as u64;
        let (mut integral, mut gaps_integral) = (true, true);
        let (mut e_max, mut g_max, mut wa_max) = (0.0f64, 0.0f64, 0.0f64);
        // Gap costs of a column whose residue weight times the other
        // profile's total weight is `rate`, folded into the audit.
        let mut costs = |rate: f64| {
            let (o, x) = (open * rate, extend * rate);
            gaps_integral &= o.fract() == 0.0 && x.fract() == 0.0;
            g_max = g_max.max(o.abs()).max(x.abs());
            (o, x)
        };

        let (mut open_a, mut extend_a) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for col in pa.columns() {
            let weight = col.residue_weight();
            integral &= col.weights_integral();
            wa_max = wa_max.max(weight);
            let (o, x) = costs(weight * pb.total_weight);
            open_a.push(o);
            extend_a.push(x);
        }

        let mut eb = Vec::with_capacity(m);
        let mut et = integral.then(|| vec![0.0f32; CODE_COUNT * m]);
        let (mut open_b, mut extend_b) = (Vec::with_capacity(m), Vec::with_capacity(m));
        for (j, col) in pb.columns().enumerate() {
            let e = col.expected_scores(matrix);
            for (c, &v) in e.iter().enumerate() {
                if let Some(et) = &mut et {
                    et[c * m + j] = v as f32;
                }
                integral &= v.fract() == 0.0;
                e_max = e_max.max(v.abs());
            }
            eb.push(e);
            let (o, x) = costs(col.residue_weight() * pa.total_weight);
            open_b.push(o);
            extend_b.push(x);
        }

        let step = (wa_max * e_max).max(g_max);
        let f32_ok = integral && gaps_integral && (n + m + 2) as f64 * step < F32_EXACT_LIMIT;
        let et = et.filter(|_| f32_ok);
        PspScorer { pa, eb, et, open_a, extend_a, open_b, extend_b }
    }
}

impl ColumnScorer for PspScorer<'_> {
    #[inline]
    fn len_a(&self) -> usize {
        self.pa.len()
    }
    #[inline]
    fn len_b(&self) -> usize {
        self.eb.len()
    }
    #[inline]
    fn substitution(&self, i: usize, j: usize) -> f64 {
        let e = &self.eb[j];
        let mut psp = 0.0;
        for &(a, wgt) in self.pa.col(i).residues {
            psp += wgt * e[a as usize];
        }
        psp
    }
    #[inline]
    fn gap_open_a(&self, i: usize) -> f64 {
        self.open_a[i]
    }
    #[inline]
    fn gap_extend_a(&self, i: usize) -> f64 {
        self.extend_a[i]
    }
    #[inline]
    fn gap_open_b(&self, j: usize) -> f64 {
        self.open_b[j]
    }
    #[inline]
    fn gap_extend_b(&self, j: usize) -> f64 {
        self.extend_b[j]
    }
    fn fill_substitution_row(&self, i: usize, j0: usize, out: &mut [f32]) {
        let et = self.et.as_deref().expect("the striped row fill needs an f32-exact scorer");
        out.fill(0.0);
        let m = self.eb.len();
        for &(a, wgt) in self.pa.col(i).residues {
            let w = wgt as f32;
            let lane = &et[a as usize * m + j0..][..out.len()];
            for (slot, &e) in out.iter_mut().zip(lane) {
                *slot += w * e;
            }
        }
    }
    fn f32_compatible(&self) -> bool {
        self.et.is_some()
    }
}

// Packed traceback layout: one byte per in-band cell.
// bits 0–1: M's diagonal predecessor layer (0 = M, 1 = X, 2 = Y);
// bit 2: X extended (vs opened); bit 3: X opened from Y (vs M);
// bit 4: Y extended (vs opened); bit 5: Y opened from X (vs M).
const TB_M_MASK: u8 = 0b0000_0011;
const TB_X_EXT: u8 = 0b0000_0100;
const TB_X_FROM_Y: u8 = 0b0000_1000;
const TB_Y_EXT: u8 = 0b0001_0000;
const TB_Y_FROM_X: u8 = 0b0010_0000;

/// Reusable scratch for the kernel: two rolling score rows per layer, the
/// packed traceback (one byte per in-band cell) with each row's offset,
/// and the striped kernel's `O(m)` row scratch. Which columns a row holds
/// is not stored: a `Band` computes it. Every fill overwrites what it
/// reads, so nothing is kept per fill. One arena serves any number of
/// consecutive alignments; buffers grow to the largest instance seen and
/// are then reused without further allocation.
#[derive(Debug, Default)]
pub struct DpArena {
    // Rolling score rows (previous / current), one pair per layer.
    mp: Vec<f64>,
    xp: Vec<f64>,
    yp: Vec<f64>,
    mc: Vec<f64>,
    xc: Vec<f64>,
    yc: Vec<f64>,
    /// Packed traceback bytes, one per in-band cell, rows concatenated;
    /// written by both kernels.
    tb: Vec<u8>,
    /// Per-row offset in `tb` of the row's first stored byte, column
    /// `Band::jlo`.
    row_off: Vec<usize>,
    // Rolling `f32` score rows for the striped kernel.
    mp32: Vec<f32>,
    xp32: Vec<f32>,
    yp32: Vec<f32>,
    mc32: Vec<f32>,
    xc32: Vec<f32>,
    yc32: Vec<f32>,
    // Striped per-row scratch: scored substitution row, Y open
    // candidates + their origin bit.
    srow: Vec<f32>,
    oy: Vec<f32>,
    yfrom: Vec<u8>,
    // Per-column B gap costs, narrowed to `f32` once per fill.
    gob32: Vec<f32>,
    geb32: Vec<f32>,
}

impl DpArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn tb_at(&self, band: &Band, i: usize, j: usize) -> u8 {
        self.tb[self.row_off[i] + j - band.jlo(i)]
    }
}

/// The band geometry of one fill over an `n × m` matrix: row `i` allows
/// the columns `lo(i)..=hi(i)` within `hw` of its `centre(i)`, the
/// rescaled diagonal `j = ⌊i·m/n⌋`, and stores traceback bytes for
/// `jlo(i)..=hi(i)`, `jlo(i) = max(1, lo(i))` (column 0 is the boundary).
/// `hw ≥ m` covers every column: a full fill. Both fills, the traceback
/// walk and [`DpArena::tb_at`] read this one value.
#[derive(Debug, Clone, Copy)]
struct Band {
    n: usize,
    m: usize,
    hw: usize,
}

impl Band {
    /// A plain division (an empty A has only row 0, whose centre is 0),
    /// which the compiler shares between the calls one row makes.
    #[inline]
    fn centre(&self, i: usize) -> usize {
        i * self.m / self.n.max(1)
    }
    #[inline]
    fn lo(&self, i: usize) -> usize {
        self.centre(i).saturating_sub(self.hw)
    }
    #[inline]
    fn hi(&self, i: usize) -> usize {
        (self.centre(i) + self.hw).min(self.m)
    }
    #[inline]
    fn jlo(&self, i: usize) -> usize {
        self.lo(i).max(1)
    }

    /// Row `i`'s prologue, shared by both fills: record where its
    /// traceback bytes start, grow `tb` to hold them, and reset the
    /// current score rows to `unreachable` across every cell rows `i` and
    /// `i + 1` can read, so values from two rows ago never leak through.
    /// Returns the row's offset in `tb`. Always inlined, so the fill and
    /// the prologue share one division per row centre.
    #[inline(always)]
    fn begin_row<T: Copy>(
        &self,
        i: usize,
        row_off: &mut [usize],
        tb: &mut Vec<u8>,
        current: [&mut Vec<T>; 3],
        unreachable: T,
    ) -> usize {
        let (lo, hi) = (self.lo(i), self.hi(i));
        let off = tb.len();
        row_off[i] = off;
        tb.resize(off + hi + 1 - self.jlo(i), 0);
        let next_hi = if i < self.n { self.hi(i + 1) } else { hi };
        for row in current {
            row[lo.saturating_sub(1)..=hi.max(next_hi)].fill(unreachable);
        }
        off
    }
}

/// The outcome of one kernel run.
#[derive(Debug, Clone, PartialEq)]
pub struct DpResult {
    /// Column merge script (length = aligned width).
    pub ops: Vec<ColOp>,
    /// The DP objective value.
    pub score: f64,
    /// Matrix cells actually filled, summed over every fill
    /// [`BandPolicy::Auto`] ran (single-layer count; one "cell" fills all
    /// three layers).
    pub cells: u64,
    /// Cells a full `n·m` fill would have touched (single-layer count).
    pub full_cells: u64,
    /// Final band half-width, or `None` when the whole matrix was filled.
    pub band: Option<usize>,
}

impl DpResult {
    /// The [`Work`] this run performed: three layers per filled cell,
    /// with the full-matrix equivalent recorded alongside.
    pub fn work(&self) -> Work {
        Work::dp_banded(3 * self.cells, 3 * self.full_cells)
    }
}

struct FillOutcome {
    cells: u64,
    /// End-cell layer scores (M, X, Y) at `(n, m)`.
    end: (f64, f64, f64),
}

/// The scalar global Gotoh fill of `s` (an `n × m` instance) within
/// `band`: the exact oracle of [`fill_striped`]. Returns the per-layer
/// end values; traceback state stays in the arena.
fn fill<S: ColumnScorer>(s: &S, band: Band, arena: &mut DpArena) -> FillOutcome {
    let (n, m) = (band.n, band.m);
    let w = m + 1;

    // (Re)initialise the arena for this instance.
    for v in
        [&mut arena.mp, &mut arena.xp, &mut arena.yp, &mut arena.mc, &mut arena.xc, &mut arena.yc]
    {
        v.clear();
        v.resize(w, NEG_INF);
    }
    arena.row_off.clear();
    arena.row_off.resize(n + 1, 0);
    arena.tb.clear();

    // Row 0: M origin and the Y run along the top edge.
    arena.mp[0] = 0.0;
    let mut by = 0.0;
    for j in 1..=band.hi(0) {
        by -= if j == 1 { s.gap_open_b(0) } else { s.gap_extend_b(j - 1) };
        arena.yp[j] = by;
    }

    // Column-0 boundary (the X run down the left edge), maintained while
    // the band still contains column 0.
    let mut bx = 0.0;

    let mut cells = 0u64;
    for i in 1..=n {
        let (jstart, rhi) = (band.jlo(i), band.hi(i));
        let current = [&mut arena.mc, &mut arena.xc, &mut arena.yc];
        let off = band.begin_row(i, &mut arena.row_off, &mut arena.tb, current, NEG_INF);

        // Cell (i, 0): the left-edge boundary.
        if band.lo(i) == 0 {
            bx -= if i == 1 { s.gap_open_a(0) } else { s.gap_extend_a(i - 1) };
            arena.xc[0] = bx;
        }

        let row_tb = &mut arena.tb[off..];
        for j in jstart..=rhi {
            cells += 1;
            let sub = s.substitution(i - 1, j - 1);
            // M: consume both columns.
            let (bprev, from) = best3(arena.mp[j - 1], arena.xp[j - 1], arena.yp[j - 1]);
            let mval = bprev + sub;
            // X: consume from A (gap in B). Open from M/Y above or extend.
            let (um, ux, uy) = (arena.mp[j], arena.xp[j], arena.yp[j]);
            let open_x = um.max(uy) - s.gap_open_a(i - 1);
            let ext_x = ux - s.gap_extend_a(i - 1);
            let (xval, xbits) = if ext_x >= open_x {
                (ext_x, TB_X_EXT)
            } else {
                (open_x, if um >= uy { 0 } else { TB_X_FROM_Y })
            };
            // Y: consume from B (gap in A). Open from M/X on the left or
            // extend.
            let (lm, lx, ly) = (arena.mc[j - 1], arena.xc[j - 1], arena.yc[j - 1]);
            let open_y = lm.max(lx) - s.gap_open_b(j - 1);
            let ext_y = ly - s.gap_extend_b(j - 1);
            let (yval, ybits) = if ext_y >= open_y {
                (ext_y, TB_Y_EXT)
            } else {
                (open_y, if lm >= lx { 0 } else { TB_Y_FROM_X })
            };
            row_tb[j - jstart] = from | xbits | ybits;
            arena.mc[j] = mval;
            arena.xc[j] = xval;
            arena.yc[j] = yval;
        }
        std::mem::swap(&mut arena.mp, &mut arena.mc);
        std::mem::swap(&mut arena.xp, &mut arena.xc);
        std::mem::swap(&mut arena.yp, &mut arena.yc);
    }
    // After the final swap the last filled row sits in the "previous"
    // buffers (row 0 included, when n == 0).
    FillOutcome { cells, end: (arena.mp[m], arena.xp[m], arena.yp[m]) }
}

/// The striped fill: the scalar recurrence split into two vectorizable
/// row passes plus one serial suffix scan, over `f32` lanes. Band
/// geometry, tie-breaking, cell accounting and the traceback store (one
/// byte per in-band cell in `DpArena::tb`) match [`fill`] exactly.
///
/// Pass 1 computes M (diagonal predecessor) and X (vertical) for the
/// whole row — both read only the previous row, so the loop carries no
/// dependency and autovectorizes; it assigns the M and X traceback bits.
/// Pass 2 computes each cell's best gap-*open* candidate for Y from the
/// now-final M/X row. Pass 3 is the lazy-F-style serial scan resolving
/// Y's row-carried extension chain — the only serial work left per row —
/// and ORs in the Y bits.
///
/// Each in-band row is scored once per fill, straight into `DpArena::srow`
/// by [`ColumnScorer::fill_substitution_row`]; nothing outlives the fill.
/// `s` must be [`ColumnScorer::f32_compatible`].
fn fill_striped<S: ColumnScorer>(s: &S, band: Band, arena: &mut DpArena) -> FillOutcome {
    let (n, m) = (band.n, band.m);
    let w = m + 1;

    for v in [
        &mut arena.mp32,
        &mut arena.xp32,
        &mut arena.yp32,
        &mut arena.mc32,
        &mut arena.xc32,
        &mut arena.yc32,
    ] {
        v.clear();
        v.resize(w, f32::NEG_INFINITY);
    }
    arena.row_off.clear();
    arena.row_off.resize(n + 1, 0);
    arena.tb.clear();

    // Per-column B gap costs, narrowed once for the whole fill.
    arena.gob32.clear();
    arena.gob32.extend((0..m).map(|j| s.gap_open_b(j) as f32));
    arena.geb32.clear();
    arena.geb32.extend((0..m).map(|j| s.gap_extend_b(j) as f32));
    // Per-row scratch, sized once: a row of `width ≤ m` cells writes
    // every slot of `[..width]` before it reads one.
    for v in [&mut arena.srow, &mut arena.oy] {
        v.clear();
        v.resize(m, 0.0);
    }
    arena.yfrom.clear();
    arena.yfrom.resize(m, 0);

    // Row 0: M origin and the Y run along the top edge.
    arena.mp32[0] = 0.0;
    let mut by = 0.0f32;
    for j in 1..=band.hi(0) {
        by -= if j == 1 { arena.gob32[0] } else { arena.geb32[j - 1] };
        arena.yp32[j] = by;
    }

    let mut bx = 0.0f32;
    let mut cells = 0u64;
    for i in 1..=n {
        let (jstart, rhi) = (band.jlo(i), band.hi(i));
        let width = rhi + 1 - jstart;
        cells += width as u64;
        let current = [&mut arena.mc32, &mut arena.xc32, &mut arena.yc32];
        let off = band.begin_row(i, &mut arena.row_off, &mut arena.tb, current, f32::NEG_INFINITY);

        // Cell (i, 0): the left-edge boundary.
        if band.lo(i) == 0 {
            bx -= if i == 1 { s.gap_open_a(0) as f32 } else { s.gap_extend_a(i - 1) as f32 };
            arena.xc32[0] = bx;
        }

        // Score the substitution row: columns jstart..=rhi pair A's
        // column i-1 with B's columns jstart-1..rhi-1.
        s.fill_substitution_row(i - 1, jstart - 1, &mut arena.srow[..width]);

        let goa = s.gap_open_a(i - 1) as f32;
        let gea = s.gap_extend_a(i - 1) as f32;

        // Pass 1: M and X, no carried dependency.
        {
            let mp = &arena.mp32[jstart - 1..=rhi];
            let xp = &arena.xp32[jstart - 1..=rhi];
            let yp = &arena.yp32[jstart - 1..=rhi];
            let mc = &mut arena.mc32[jstart..=rhi];
            let xc = &mut arena.xc32[jstart..=rhi];
            let srow = &arena.srow[..width];
            let tb = &mut arena.tb[off..off + width];
            for k in 0..width {
                // M from the best diagonal predecessor, ties M ≥ X ≥ Y
                // (strict `>` replacements keep the earlier layer).
                let (dm, dx, dy) = (mp[k], xp[k], yp[k]);
                let mut bv = dm;
                let mut bf = 0u8;
                if dx > bv {
                    bv = dx;
                    bf = 1;
                }
                if dy > bv {
                    bv = dy;
                    bf = 2;
                }
                mc[k] = bv + srow[k];
                // X: open from M/Y above or extend the run.
                let (um, ux, uy) = (mp[k + 1], xp[k + 1], yp[k + 1]);
                let open_x = um.max(uy) - goa;
                let ext_x = ux - gea;
                let ext = ext_x >= open_x;
                xc[k] = if ext { ext_x } else { open_x };
                let xbits = if ext {
                    TB_X_EXT
                } else if um >= uy {
                    0
                } else {
                    TB_X_FROM_Y
                };
                tb[k] = bf | xbits;
            }
        }

        // Pass 2: Y's open candidates from the final M/X row.
        {
            let mc = &arena.mc32[jstart - 1..rhi];
            let xc = &arena.xc32[jstart - 1..rhi];
            let gob = &arena.gob32[jstart - 1..rhi];
            let oy = &mut arena.oy[..width];
            let yfrom = &mut arena.yfrom[..width];
            for k in 0..width {
                let (lm, lx) = (mc[k], xc[k]);
                oy[k] = lm.max(lx) - gob[k];
                yfrom[k] = if lm >= lx { 0 } else { TB_Y_FROM_X };
            }
        }

        // Pass 3: the serial extension scan (lazy-F equivalent).
        {
            let geb = &arena.geb32[jstart - 1..rhi];
            let oy = &arena.oy[..width];
            let yfrom = &arena.yfrom[..width];
            let tb = &mut arena.tb[off..off + width];
            let yc = &mut arena.yc32;
            let mut yprev = yc[jstart - 1];
            for k in 0..width {
                let ext = yprev - geb[k];
                let open = oy[k];
                let (v, bits) = if ext >= open { (ext, TB_Y_EXT) } else { (open, yfrom[k]) };
                yc[jstart + k] = v;
                yprev = v;
                tb[k] |= bits;
            }
        }

        std::mem::swap(&mut arena.mp32, &mut arena.mc32);
        std::mem::swap(&mut arena.xp32, &mut arena.xc32);
        std::mem::swap(&mut arena.yp32, &mut arena.yc32);
    }
    // After the final swap the last filled row sits in the "previous"
    // buffers (row 0 included, when n == 0).
    FillOutcome { cells, end: (arena.mp32[m] as f64, arena.xp32[m] as f64, arena.yp32[m] as f64) }
}

/// Walk of the packed traceback from `(n, m, layer)` back to the origin:
/// the recovered ops, whether the path touched a (clipped) band edge, and
/// how far from the band's centre line it strays.
struct Traceback {
    ops_rev: Vec<ColOp>,
    touched_edge: bool,
    /// The largest `|j − i·m/n|` (the fills' integer centre line) over
    /// every cell the walk visits, boundary cells included: the path lies
    /// inside the band of every half-width at least this large.
    max_dev: usize,
}

impl Traceback {
    fn walk(arena: &DpArena, band: Band, mut layer: u8) -> Self {
        let m = band.m;
        let (mut i, mut j) = (band.n, m);
        let mut ops_rev = Vec::with_capacity(i + j);
        let mut touched = false;
        let mut max_dev = 0;
        while i > 0 || j > 0 {
            max_dev = max_dev.max(j.abs_diff(band.centre(i)));
            if i == 0 {
                ops_rev.push(ColOp::FromB);
                j -= 1;
                continue;
            }
            if j == 0 {
                ops_rev.push(ColOp::FromA);
                i -= 1;
                continue;
            }
            // A path running within one cell of a clipped band edge may be
            // constrained by it; the adaptive controller widens and
            // retries in that case.
            let (rlo, rhi) = (band.lo(i), band.hi(i));
            if (rlo > 0 && j <= rlo + 1) || (rhi < m && j + 1 >= rhi) {
                touched = true;
            }
            let byte = arena.tb_at(&band, i, j);
            match layer {
                0 => {
                    ops_rev.push(ColOp::Both);
                    layer = byte & TB_M_MASK;
                    i -= 1;
                    j -= 1;
                }
                1 => {
                    ops_rev.push(ColOp::FromA);
                    let extended = byte & TB_X_EXT != 0;
                    i -= 1;
                    if !extended {
                        layer = if byte & TB_X_FROM_Y != 0 { 2 } else { 0 };
                    }
                }
                _ => {
                    ops_rev.push(ColOp::FromB);
                    let extended = byte & TB_Y_EXT != 0;
                    j -= 1;
                    if !extended {
                        layer = if byte & TB_Y_FROM_X != 0 { 1 } else { 0 };
                    }
                }
            }
        }
        ops_rev.reverse();
        Traceback { ops_rev, touched_edge: touched, max_dev }
    }
}

/// Global (Needleman–Wunsch/Gotoh) alignment under the given band policy
/// and kernel choice.
///
/// Terminal gaps are charged like internal ones. Under
/// [`BandPolicy::Auto`] the controller walks a ladder of half-widths
/// `hw0, 2·hw0, …` (ending in a full fill) and returns the fill at rung
/// `2·hw` once it is *confirmed*: its traced optimum clears the band
/// edges **and** the narrower rung `hw` scores the same (an interior path
/// can still be band-suboptimal — e.g. transposed blocks — so clearance
/// alone is not trusted). It fills the doubled band first and fills the
/// narrower one only when the doubled fill's own path cannot prove that
/// score: when the path stays within `hw` of the centre line, every state
/// on it lies in the narrower band too, and since `max` is exact and a
/// rounded `a + c` is monotone in `a` (in `f32` and `f64` alike) the
/// narrower fill reaches that path's value and can exceed it nowhere. Such
/// a path also clears the doubled band's edges by `hw − 1` cells. So the
/// result is the ladder's, byte for byte, at a third fewer cells on the
/// common instance. [`DpResult::cells`] sums every fill the controller
/// ran (at most the ladder's own geometric series).
///
/// `Scalar` forces the scalar fill; `Auto` runs striped exactly when the
/// scorer guarantees f32-exact decisions
/// ([`ColumnScorer::f32_compatible`]), so results never depend on the
/// kernel. Banding behaves identically under either kernel. This is the
/// one function that takes the two halves of a [`DpOptions`] apart.
pub fn gotoh_global_with<S: ColumnScorer>(
    s: &S,
    policy: BandPolicy,
    kernel: DpKernel,
    arena: &mut DpArena,
) -> DpResult {
    let n = s.len_a();
    let m = s.len_b();
    let striped = match kernel {
        DpKernel::Scalar => false,
        DpKernel::Auto => s.f32_compatible(),
    };
    let full_cells = (n as u64) * (m as u64);
    // hw ≥ m covers every column of every row: a full fill.
    let full_hw = m;
    let feasible = n.abs_diff(m) + 1;
    let run = |hw: usize, arena: &mut DpArena| -> (FillOutcome, Traceback, f64) {
        let band = Band { n, m, hw };
        let out = if striped { fill_striped(s, band, arena) } else { fill(s, band, arena) };
        let (score, layer) = best3(out.end.0, out.end.1, out.end.2);
        let tb = Traceback::walk(arena, band, layer);
        (out, tb, score)
    };
    match policy {
        BandPolicy::Full => {
            let (out, tb, score) = run(full_hw, arena);
            DpResult { ops: tb.ops_rev, score, cells: out.cells, full_cells, band: None }
        }
        BandPolicy::Auto => {
            // The next rung of the ladder (full stays full); a doubled
            // band about as wide as the matrix costs a full fill anyway —
            // make it the exact full run.
            let double = |hw: usize| {
                let hw = (hw * 2).min(full_hw);
                if 2 * hw + 1 >= full_hw {
                    full_hw
                } else {
                    hw
                }
            };
            let mut narrow = feasible.max(AUTO_MIN_BAND).min(full_hw.max(1));
            // The cheapest banded outcome costs one (4·hw + 1)-wide fill,
            // but instances within (6·hw + 2) of the full width still go
            // straight to the (unconditionally exact) full fill: moving
            // this threshold would change which instances run banded, and
            // so their output bytes.
            if 6 * narrow + 2 >= full_hw {
                narrow = full_hw;
            }
            let mut narrow_score = None;
            let mut total = 0u64;
            loop {
                let hw = double(narrow);
                let (out, tb, score) = run(hw, arena);
                total += out.cells;
                let clipped = hw < full_hw;
                // A clipped fill is accepted only when its traced optimum
                // clears the band edges AND the narrower rung scores the
                // same. A path within the narrower band proves both (see
                // above); otherwise fill that rung, once, and compare.
                let confirmed = clipped
                    && score > NEG_INF
                    && (tb.max_dev <= narrow || {
                        let prev = narrow_score.unwrap_or_else(|| {
                            let (out, _, prev) = run(narrow, arena);
                            total += out.cells;
                            prev
                        });
                        !tb.touched_edge && prev == score
                    });
                if !clipped || confirmed {
                    let band = clipped.then_some(hw);
                    return DpResult { ops: tb.ops_rev, score, cells: total, full_cells, band };
                }
                narrow_score = Some(score);
                narrow = hw;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scorer<'a>(
        a: &'a [u8],
        b: &'a [u8],
        matrix: &'a SubstMatrix,
        gaps: GapPenalties,
    ) -> SubstScorer<'a> {
        SubstScorer::new(a, b, matrix, gaps)
    }

    #[test]
    fn best3_prefers_m_then_x_then_y() {
        assert_eq!(best3(1.0, 1.0, 1.0), (1.0, 0));
        assert_eq!(best3(0.0, 1.0, 1.0), (1.0, 1));
        assert_eq!(best3(0.0, 0.0, 1.0), (1.0, 2));
    }

    #[test]
    fn kernel_labels_roundtrip() {
        for k in [DpKernel::Scalar, DpKernel::Auto] {
            assert_eq!(DpKernel::parse(k.label()), Some(k));
        }
        assert_eq!(DpKernel::parse("striped"), None);
        assert_eq!(DpKernel::parse("simd"), None);
        assert_eq!(DpKernel::parse(""), None);
        assert_eq!(DpKernel::default(), DpKernel::Auto);
    }

    #[test]
    fn striped_matches_scalar_on_every_policy() {
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties::default();
        // An indel-riddled pair so every traceback bit class is exercised.
        let a: Vec<u8> = (0..90).map(|i| ((i * 7) % 20) as u8).collect();
        let mut b = a.clone();
        b.drain(30..40);
        b.insert(50, 3);
        let s = scorer(&a, &b, &matrix, gaps);
        assert!(s.f32_compatible(), "integer BLOSUM scoring is f32-exact at this size");
        let mut arena = DpArena::new();
        for policy in [BandPolicy::Full, BandPolicy::Auto] {
            let scalar = gotoh_global_with(&s, policy, DpKernel::Scalar, &mut arena);
            let striped = gotoh_global_with(&s, policy, DpKernel::Auto, &mut arena);
            assert_eq!(scalar, striped, "{policy:?}");
        }
    }

    #[test]
    fn striped_handles_empty_sides() {
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties { open: 3, extend: 1 };
        let a = [12u8, 9, 17];
        let empty: [u8; 0] = [];
        let (down, across) = (scorer(&a, &empty, &matrix, gaps), scorer(&empty, &a, &matrix, gaps));
        assert!(down.f32_compatible() && across.f32_compatible(), "Auto runs the striped fill");
        let mut arena = DpArena::new();
        for policy in [BandPolicy::Full, BandPolicy::Auto] {
            let out = gotoh_global_with(&down, policy, DpKernel::Auto, &mut arena);
            assert_eq!(out.ops, vec![ColOp::FromA; 3], "{policy:?}");
            assert_eq!(out.score, -(3.0 + 2.0), "{policy:?}");
            let out = gotoh_global_with(&across, policy, DpKernel::Auto, &mut arena);
            assert_eq!(out.ops, vec![ColOp::FromB; 3], "{policy:?}");
        }
    }

    /// The half-widths to fill `n × m` at: full, a narrow 8 (at least the
    /// length difference, so a path exists), and every rung of `Auto`'s
    /// doubling ladder, stepped as [`gotoh_global_with`] steps it.
    fn fill_widths(n: usize, m: usize) -> Vec<usize> {
        let feasible = n.abs_diff(m) + 1;
        let mut widths = vec![m, 8.max(feasible)];
        let mut hw = feasible.max(AUTO_MIN_BAND).min(m.max(1));
        if 6 * hw + 2 >= m {
            hw = m;
        }
        loop {
            widths.push(hw);
            if hw >= m {
                return widths;
            }
            hw = (hw * 2).min(m);
            if 2 * hw + 1 >= m {
                hw = m;
            }
        }
    }

    /// Run both fills at every width of [`fill_widths`] and require the
    /// same traceback store: every row's offset and every byte, so a
    /// dropped bit fails even where the walked path never reads it.
    fn assert_same_traceback<S: ColumnScorer>(s: &S, what: &str) {
        let (mut scalar, mut striped) = (DpArena::new(), DpArena::new());
        let (n, m) = (s.len_a(), s.len_b());
        for hw in fill_widths(n, m) {
            let want = fill(s, Band { n, m, hw }, &mut scalar);
            let got = fill_striped(s, Band { n, m, hw }, &mut striped);
            assert_eq!(want.cells, got.cells, "{what} at hw {hw}");
            assert_eq!(scalar.row_off, striped.row_off, "{what} row_off at hw {hw}");
            assert_eq!(scalar.tb.len() as u64, want.cells, "{what} at hw {hw}");
            assert_eq!(striped.tb.len() as u64, got.cells, "{what} at hw {hw}");
            let diff = scalar.tb.iter().zip(&striped.tb).position(|(a, b)| a != b);
            assert_eq!(diff, None, "{what}: first differing tb byte at hw {hw}");
        }
    }

    /// One of the two fills, [`fill`] or [`fill_striped`].
    type Fill<S> = fn(&S, Band, &mut DpArena) -> FillOutcome;

    /// [`BandPolicy::Auto`] as a plain ladder of `run_fill`: fill every
    /// rung of [`fill_widths`] in turn and accept a clipped fill whose path
    /// clears the band edges and whose score equals the previous rung's.
    /// The controller must return exactly this from no more cells.
    fn ladder<S: ColumnScorer>(s: &S, run_fill: Fill<S>) -> DpResult {
        let (n, m) = (s.len_a(), s.len_b());
        let mut arena = DpArena::new();
        let (mut cells, mut prev) = (0, None);
        for hw in fill_widths(n, m).split_off(2) {
            let band = Band { n, m, hw };
            let out = run_fill(s, band, &mut arena);
            cells += out.cells;
            let (score, layer) = best3(out.end.0, out.end.1, out.end.2);
            let tb = Traceback::walk(&arena, band, layer);
            let clipped = hw < m;
            if !clipped || (!tb.touched_edge && score > NEG_INF && prev == Some(score)) {
                let band = clipped.then_some(hw);
                return DpResult {
                    ops: tb.ops_rev,
                    score,
                    cells,
                    full_cells: (n * m) as u64,
                    band,
                };
            }
            prev = Some(score);
        }
        unreachable!("the ladder ends in a full fill")
    }

    /// Under both kernels, `Auto` returns the [`ladder`]'s ops, score and
    /// band from no more cells. `s` must be f32-exact, so that the auto
    /// kernel runs the striped fill. Returns the `(Auto, ladder)` cell
    /// counts.
    fn assert_auto_is_the_ladder<S: ColumnScorer>(s: &S, what: &str) -> (u64, u64) {
        assert!(s.f32_compatible(), "{what}: the auto kernel runs the striped fill");
        let mut cells = (0, 0);
        let fills: [(DpKernel, Fill<S>); 2] =
            [(DpKernel::Scalar, fill::<S>), (DpKernel::Auto, fill_striped::<S>)];
        for (kernel, run_fill) in fills {
            let want = ladder(s, run_fill);
            let got = gotoh_global_with(s, BandPolicy::Auto, kernel, &mut DpArena::new());
            assert_eq!(got.ops, want.ops, "{what} {kernel:?}");
            assert_eq!(got.score.to_bits(), want.score.to_bits(), "{what} {kernel:?}");
            assert_eq!(got.band, want.band, "{what} {kernel:?}");
            assert_eq!(got.full_cells, want.full_cells, "{what} {kernel:?}");
            assert!(got.cells <= want.cells, "{what} {kernel:?}: {} > {}", got.cells, want.cells);
            cells = (got.cells, want.cells);
        }
        cells
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(6))]

        /// Rose pairs, and uniform-weight profiles of two rose
        /// sub-families, at L ≈ 300 and 700: the controller is the ladder.
        #[test]
        fn auto_is_the_ladder_on_rose_families(seed in 0u64..1000, relatedness in 100f64..900.0) {
            use bioseq::Msa;
            use rosegen::{Family, FamilyConfig};
            let matrix = SubstMatrix::blosum62();
            let gaps = GapPenalties::default();
            for avg_len in [300, 700] {
                let cfg = FamilyConfig { n_seqs: 4, avg_len, relatedness, seed, ..Default::default() };
                let fam = Family::generate(&cfg);
                let s = scorer(fam.seqs[0].codes(), fam.seqs[1].codes(), &matrix, gaps);
                assert_auto_is_the_ladder(&s, "pair");
                let mut work = Work::ZERO;
                let mut profile = |rows: std::ops::Range<usize>| {
                    let ids = fam.reference.ids()[rows.clone()].to_vec();
                    let mut msa = Msa::from_rows(ids, fam.reference.rows()[rows].to_vec());
                    msa.drop_all_gap_columns();
                    Profile::from_msa(&msa, &mut work)
                };
                let (pa, pb) = (profile(0..2), profile(2..4));
                let s = PspScorer::new(&pa, &pb, &matrix, gaps, &mut work);
                proptest::prop_assert!(s.f32_compatible(), "uniform weights keep PSP f32-exact");
                assert_auto_is_the_ladder(&s, "profile");
            }
        }

        /// Rose pairs, and uniform-weight profiles of two rose
        /// sub-families, at every width of [`fill_widths`], the narrow
        /// band of 8 included: both fills write the same traceback store.
        #[test]
        fn striped_and_scalar_write_the_same_traceback_on_rose_families(
            seed in 0u64..1000,
            relatedness in 100f64..900.0,
            avg_len in 60usize..400,
        ) {
            use bioseq::Msa;
            use rosegen::{Family, FamilyConfig};
            let matrix = SubstMatrix::blosum62();
            let gaps = GapPenalties::default();
            let cfg = FamilyConfig { n_seqs: 5, avg_len, relatedness, seed, ..Default::default() };
            let fam = Family::generate(&cfg);
            let s = scorer(fam.seqs[0].codes(), fam.seqs[1].codes(), &matrix, gaps);
            proptest::prop_assert!(s.f32_compatible(), "integer BLOSUM scoring is f32-exact");
            assert_same_traceback(&s, "pair");
            let mut work = Work::ZERO;
            let mut profile = |rows: std::ops::Range<usize>| {
                let ids = fam.reference.ids()[rows.clone()].to_vec();
                let mut msa = Msa::from_rows(ids, fam.reference.rows()[rows].to_vec());
                msa.drop_all_gap_columns();
                Profile::from_msa(&msa, &mut work)
            };
            let (pa, pb) = (profile(0..2), profile(2..5));
            let s = PspScorer::new(&pa, &pb, &matrix, gaps, &mut work);
            proptest::prop_assert!(s.f32_compatible(), "uniform weights keep PSP f32-exact");
            assert_same_traceback(&s, "profile");
        }

        /// Unrelated random pairs, where paths stray from the centre line
        /// and the ladder climbs past its first rungs.
        #[test]
        fn auto_is_the_ladder_on_unrelated_pairs(
            a in proptest::collection::vec(0u8..20, 200..500),
            b in proptest::collection::vec(0u8..20, 200..500),
            open in 1i32..12,
            extend in 1i32..4,
        ) {
            let matrix = SubstMatrix::blosum62();
            assert_auto_is_the_ladder(&scorer(&a, &b, &matrix, GapPenalties { open, extend }), "random");
        }
    }

    #[test]
    fn auto_is_the_ladder_on_a_shifted_pair() {
        // One side is the other behind a 60-residue prefix: the optimum
        // runs up to 60 diagonals off the centre line. At 200 residues
        // Auto fills the full matrix; at 500 it runs banded and the
        // doubled fill's path proves the narrower rung's score.
        use rosegen::{Family, FamilyConfig};
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties { open: 4, extend: 1 };
        for avg_len in [200, 500] {
            let cfg = FamilyConfig {
                n_seqs: 1,
                avg_len,
                relatedness: 900.0,
                seed: 17,
                ..Default::default()
            };
            let core = Family::generate(&cfg).seqs.remove(0);
            let mut shifted = vec![bioseq::alphabet::char_to_code('P').unwrap(); 60];
            shifted.extend_from_slice(core.codes());
            let s = scorer(core.codes(), &shifted, &matrix, gaps);
            let (auto, ladder) = assert_auto_is_the_ladder(&s, "shift");
            if avg_len == 500 {
                assert!(auto < ladder, "the narrower fill is skipped: {auto} vs {ladder}");
            }
        }
    }

    #[test]
    fn max_dev_is_the_walks_widest_step_off_the_centre_line() {
        // A hand-built full-band store for n = 2, m = 4 (centre line
        // j = 2i): the band's prologue lays out both rows over columns
        // 1..=4.
        let band = Band { n: 2, m: 4, hw: 4 };
        let mut arena = DpArena::new();
        arena.row_off = vec![0; 3];
        let (mut mc, mut xc, mut yc) = (vec![0.0; 5], vec![0.0; 5], vec![0.0; 5]);
        for i in 1..=2 {
            let current = [&mut mc, &mut xc, &mut yc];
            band.begin_row(i, &mut arena.row_off, &mut arena.tb, current, NEG_INF);
        }
        assert_eq!(arena.row_off, [0, 0, 4]);
        assert_eq!(arena.tb.len(), 8);
        // Row 1 (columns 1..=4), then row 2: (2,4) and (2,3) extend Y,
        // (2,2) opens Y from M, (1,3) takes M from M.
        arena.tb[6..].fill(TB_Y_EXT);
        // Y from (2,4): (2,3), (2,2), M at (2,1) → (1,0) → origin. The
        // widest step is the interior cell (2,1), 3 off the line.
        let tb = Traceback::walk(&arena, band, 2);
        use ColOp::*;
        assert_eq!(tb.ops_rev, [FromA, Both, FromB, FromB, FromB]);
        assert_eq!(tb.max_dev, 3);
        // M from (2,4): (1,3) → (0,2) → (0,1) → origin. The widest step
        // is the boundary cell (0,2).
        let tb = Traceback::walk(&arena, band, 0);
        assert_eq!(tb.ops_rev, [FromB, FromB, Both, Both]);
        assert_eq!(tb.max_dev, 2);
        assert!(!tb.touched_edge, "a full band has no clipped edge");
    }

    #[test]
    fn striped_and_scalar_write_the_same_traceback() {
        use bioseq::{Msa, GAP_CODE};
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties::default();

        // Indel-riddled pair, long enough that Auto starts banded.
        let a: Vec<u8> = (0..400).map(|i| ((i * 7) % 20) as u8).collect();
        let mut b = a.clone();
        b.drain(30..40);
        b.insert(50, 3);
        b.drain(200..204);
        b.splice(300..300, [5, 5, 9]);
        let s = scorer(&a, &b, &matrix, gaps);
        assert!(s.f32_compatible());
        assert_same_traceback(&s, "pairwise");

        // Uniform-weight profiles; A carries an all-gap column.
        let row = |len: usize, step: usize, shift: usize| -> Vec<u8> {
            (0..len).map(|i| ((i * step + shift) % 20) as u8).collect()
        };
        let mut rows_a = vec![row(260, 7, 0), row(260, 7, 1), row(260, 11, 3)];
        for r in &mut rows_a {
            r[120] = GAP_CODE;
        }
        rows_a[1][40] = GAP_CODE;
        let msa_a = Msa::from_rows(vec!["x".into(), "y".into(), "z".into()], rows_a);
        let msa_b =
            Msa::from_rows(vec!["u".into(), "v".into()], vec![row(230, 7, 0), row(230, 13, 2)]);
        let mut work = Work::ZERO;
        let pa = Profile::from_msa(&msa_a, &mut work);
        let pb = Profile::from_msa(&msa_b, &mut work);
        assert!(pa.col(120).residues.is_empty(), "column 120 is all gaps");
        let s = PspScorer::new(&pa, &pb, &matrix, gaps, &mut work);
        assert!(s.f32_compatible(), "uniform weights keep PSP f32-exact");
        assert_same_traceback(&s, "profile");

        // Both empty-side cases.
        let short = [12u8, 9, 17];
        assert_same_traceback(&scorer(&short, &[], &matrix, gaps), "empty B");
        assert_same_traceback(&scorer(&[], &short, &matrix, gaps), "empty A");
    }

    #[test]
    fn only_f32_exact_scorers_hold_lane_tables() {
        use crate::profile::henikoff_weights;
        use bioseq::{Msa, GAP_CODE};
        let rows = vec![vec![0, 1, 2, 3, 4], vec![0, 1, GAP_CODE, 3, 5], vec![6, 1, 2, 7, 4]];
        let msa = Msa::from_rows(vec!["a".into(), "b".into(), "c".into()], rows);
        let matrix = SubstMatrix::blosum62();
        let mut work = Work::ZERO;
        let henikoff = henikoff_weights(&msa, &mut work);
        for (weights, exact) in [(vec![1.0; 3], true), (henikoff, false)] {
            let p = Profile::from_msa_weighted(&msa, &weights, &mut work);
            let s = PspScorer::new(&p, &p, &matrix, GapPenalties::default(), &mut work);
            assert_eq!(s.f32_compatible(), exact, "{weights:?}");
            let want = exact.then_some(CODE_COUNT * p.len());
            assert_eq!(s.et.as_ref().map(Vec::len), want, "{weights:?}");
        }
        // A pair large enough for a lane table, whose gap cost leaves
        // f32's exact range: scalar only, so no table.
        let a: Vec<u8> = (0..40).map(|i| (i % 20) as u8).collect();
        let s = scorer(&a, &a, &matrix, GapPenalties { open: 1 << 22, extend: 1 });
        assert!(!s.f32_compatible());
        assert!(s.lanes.is_empty());
        assert_eq!(scorer(&a, &a, &matrix, GapPenalties::default()).lanes.len(), CODE_COUNT * 40);
    }

    #[test]
    fn band_policy_labels_roundtrip() {
        for p in [BandPolicy::Full, BandPolicy::Auto] {
            assert_eq!(BandPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(BandPolicy::parse("64"), None);
        assert_eq!(BandPolicy::parse("band64"), None);
        assert_eq!(BandPolicy::parse("0"), None);
        assert_eq!(BandPolicy::parse("wavefront"), None);
    }

    #[test]
    fn identical_inputs_score_the_diagonal() {
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties::default();
        let codes = [12u8, 9, 17, 10, 0, 19];
        let s = scorer(&codes, &codes, &matrix, gaps);
        let mut arena = DpArena::new();
        for policy in [BandPolicy::Full, BandPolicy::Auto] {
            let out = gotoh_global_with(&s, policy, DpKernel::Auto, &mut arena);
            assert!(out.ops.iter().all(|&op| op == ColOp::Both), "{policy:?}");
            let want: f64 = codes.iter().map(|&c| matrix.score(c, c) as f64).sum();
            assert_eq!(out.score, want, "{policy:?}");
        }
    }

    #[test]
    fn full_and_auto_agree_on_shifted_inputs() {
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties::default();
        // A shifted repeat: the optimum needs an off-diagonal excursion.
        let a: Vec<u8> = (0..50).map(|i| (i % 17) as u8).collect();
        let mut b = vec![19u8; 12];
        b.extend_from_slice(&a[..40]);
        let s = scorer(&a, &b, &matrix, gaps);
        let mut arena = DpArena::new();
        let full = gotoh_global_with(&s, BandPolicy::Full, DpKernel::Auto, &mut arena);
        let auto = gotoh_global_with(&s, BandPolicy::Auto, DpKernel::Auto, &mut arena);
        assert_eq!(full.score, auto.score);
        assert_eq!(full.full_cells, auto.full_cells);
    }

    #[test]
    fn arena_reuse_is_equivalent_to_fresh() {
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties::default();
        let a: Vec<u8> = (0..60).map(|i| (i % 13) as u8).collect();
        let b: Vec<u8> = (0..45).map(|i| ((i * 7) % 20) as u8).collect();
        let s = scorer(&a, &b, &matrix, gaps);
        let mut shared = DpArena::new();
        // Dirty the arena with a larger unrelated instance first.
        let big: Vec<u8> = (0..120).map(|i| (i % 11) as u8).collect();
        let dirty = scorer(&big, &big, &matrix, gaps);
        let _ = gotoh_global_with(&dirty, BandPolicy::Auto, DpKernel::Auto, &mut shared);
        let reused = gotoh_global_with(&s, BandPolicy::Auto, DpKernel::Auto, &mut shared);
        let fresh = gotoh_global_with(&s, BandPolicy::Auto, DpKernel::Auto, &mut DpArena::new());
        assert_eq!(reused, fresh);
    }

    #[test]
    fn empty_sides_degrade_to_pure_gap_runs() {
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties { open: 3, extend: 1 };
        let a = [12u8, 9, 17];
        let empty: [u8; 0] = [];
        let s = scorer(&a, &empty, &matrix, gaps);
        let out = gotoh_global_with(&s, BandPolicy::Auto, DpKernel::Auto, &mut DpArena::new());
        assert_eq!(out.ops, vec![ColOp::FromA; 3]);
        assert_eq!(out.score, -(3.0 + 2.0));
        let s = scorer(&empty, &a, &matrix, gaps);
        let out = gotoh_global_with(&s, BandPolicy::Full, DpKernel::Auto, &mut DpArena::new());
        assert_eq!(out.ops, vec![ColOp::FromB; 3]);
    }

    #[test]
    fn work_reports_banded_and_full_cells() {
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties::default();
        let a: Vec<u8> = (0..300).map(|i| (i % 20) as u8).collect();
        let s = scorer(&a, &a, &matrix, gaps);
        let out = gotoh_global_with(&s, BandPolicy::Auto, DpKernel::Auto, &mut DpArena::new());
        let w = out.work();
        assert_eq!(w.dp_cells, 3 * out.cells);
        assert_eq!(w.dp_cells_full, 3 * 300 * 300);
        assert!(
            w.dp_cells < w.dp_cells_full,
            "auto band (incl. any fallback fill) must save cells at L=300"
        );
    }

    #[test]
    fn auto_band_refuses_interior_but_suboptimal_paths() {
        // Regression: two distinct blocks, transposed. The near-diagonal
        // banded path sits clear of the band edges yet scores far below
        // the off-band optimum, so acceptance must also demand score
        // stability under doubling. Blocks of 60 make a full fill; at 150
        // Auto runs banded, the doubled fill's path leaves the narrower
        // band, and the narrower fill must still run: the controller
        // fills exactly the ladder's cells.
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties::default();
        for block in [60, 150] {
            let s1: Vec<u8> = (0..block).map(|i| ((i * 7) % 20) as u8).collect();
            let s2: Vec<u8> = (0..block).map(|i| ((i * 11 + 3) % 20) as u8).collect();
            let a = [s1.as_slice(), &s2].concat();
            let b = [s2.as_slice(), &s1].concat();
            let s = scorer(&a, &b, &matrix, gaps);
            let mut arena = DpArena::new();
            let full = gotoh_global_with(&s, BandPolicy::Full, DpKernel::Auto, &mut arena);
            let auto = gotoh_global_with(&s, BandPolicy::Auto, DpKernel::Auto, &mut arena);
            assert_eq!(auto.score, full.score, "transposed blocks must not fool the band");
            let (auto, ladder) = assert_auto_is_the_ladder(&s, "blocks");
            assert_eq!(auto, ladder, "block {block}");
        }
    }
}
