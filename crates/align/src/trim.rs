//! MaxAlign-style alignment-area optimization.
//!
//! The *area* of an alignment is `retained rows × gap-free columns`: the
//! amount of unambiguously aligned signal a downstream consumer (a
//! phylogeny program, a profile HMM, a column-wise statistic) actually
//! gets to use. Gappy alignments — and Sample-Align-D's glue seams and
//! fragment-read merges inject gap columns by construction — can often
//! trade a few pathological rows for many recovered columns, increasing
//! the area. This module finds such trades:
//!
//! * [`gap_masks`] packs each row's gap positions into `u64` words so a
//!   candidate exclusion is scored with a handful of `AND` + `count_ones`
//!   sweeps instead of a column scan;
//! * [`trim_msa`] runs a greedy exclusion loop with pairwise/triple
//!   *synergy lookahead* (dropping two rows together can unlock columns
//!   neither unlocks alone), optionally refined by a bounded
//!   branch-and-bound pass ([`TrimConfig::branch_bound`]);
//! * the result ([`TrimOutcome`]) never has a smaller area than its input:
//!   dropping nothing is always a candidate, and only strictly improving
//!   moves are taken.
//!
//! Retained rows are byte-identical to their input rows except that
//! columns gapped in *every* retained row are removed, so the output is
//! always a valid [`Msa`].

use bioseq::{Msa, Work, GAP_CODE};

/// Knobs for the trim stage.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TrimConfig {
    /// Upper bound on the number of rows the optimizer may drop.
    /// `None` allows up to `rows - 1` (at least one row is always kept).
    pub max_dropped: Option<usize>,
    /// After the greedy pass, run a bounded branch-and-bound refinement
    /// seeded with the greedy solution (never returns a smaller area).
    pub branch_bound: bool,
}

/// One excluded row, in the order the optimizer dropped it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DroppedRow {
    /// Row index in the *input* alignment.
    pub index: usize,
    /// Sequence identifier of the dropped row.
    pub id: String,
    /// Marginal area change from this single drop. Negative values can
    /// appear inside a synergy move (the pair or triple as a whole gains).
    pub area_gain: i64,
}

/// The result of [`trim_msa`].
#[derive(Debug, Clone)]
pub struct TrimOutcome {
    /// The trimmed alignment: retained rows in input order, with columns
    /// that became all-gap removed.
    pub msa: Msa,
    /// Excluded rows in drop order.
    pub dropped: Vec<DroppedRow>,
    /// `rows × gap-free columns` of the input.
    pub area_before: u64,
    /// `rows × gap-free columns` of the output (never less than
    /// [`area_before`](Self::area_before)).
    pub area_after: u64,
    /// Gap-free columns of the input.
    pub free_cols_before: usize,
    /// Gap-free columns of the output.
    pub free_cols_after: usize,
    /// Mask/popcount work performed, for the cost model.
    pub work: Work,
}

impl TrimOutcome {
    /// Number of rows excluded.
    pub fn rows_dropped(&self) -> usize {
        self.dropped.len()
    }

    /// Gap-free columns gained by the exclusions.
    pub fn cols_gained(&self) -> usize {
        self.free_cols_after - self.free_cols_before
    }
}

/// `(rows × gap-free columns, gap-free columns)` of an alignment.
pub fn alignment_area(msa: &Msa) -> (u64, usize) {
    let free = (0..msa.num_cols()).filter(|&c| msa.rows().iter().all(|r| r[c] != GAP_CODE)).count();
    (msa.num_rows() as u64 * free as u64, free)
}

/// Bit-pack each row's gap positions: bit `c` of word `c / 64` is set iff
/// the row has a gap in column `c`. Returns the masks and the word count.
pub fn gap_masks(msa: &Msa) -> (Vec<Vec<u64>>, usize) {
    let cols = msa.num_cols();
    let words = cols.div_ceil(64);
    let masks = msa
        .rows()
        .iter()
        .map(|row| {
            let mut mask = vec![0u64; words];
            for (c, &code) in row.iter().enumerate() {
                if code == GAP_CODE {
                    mask[c / 64] |= 1u64 << (c % 64);
                }
            }
            mask
        })
        .collect();
    (masks, words)
}

/// Popcount of `a & b`.
fn pop2(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(&x, &y)| (x & y).count_ones()).sum()
}

/// Popcount of `a & (b | c)`.
fn pop_or2(a: &[u64], b: &[u64], c: &[u64]) -> u32 {
    a.iter().zip(b.iter().zip(c)).map(|(&x, (&y, &z))| (x & (y | z)).count_ones()).sum()
}

/// Popcount of `a & b & c`.
fn pop3(a: &[u64], b: &[u64], c: &[u64]) -> u32 {
    a.iter().zip(b.iter().zip(c)).map(|(&x, (&y, &z))| (x & y & z).count_ones()).sum()
}

/// Per-column gap counts over the rows still retained.
struct GapCounts {
    counts: Vec<u32>,
}

impl GapCounts {
    fn new(msa: &Msa) -> Self {
        let cols = msa.num_cols();
        let mut counts = vec![0u32; cols];
        for row in msa.rows() {
            for (c, &code) in row.iter().enumerate() {
                if code == GAP_CODE {
                    counts[c] += 1;
                }
            }
        }
        GapCounts { counts }
    }

    /// Remove one row's gaps (the row was just dropped).
    fn drop_row(&mut self, mask: &[u64]) {
        for (w, &word) in mask.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let c = w * 64 + bits.trailing_zeros() as usize;
                self.counts[c] -= 1;
                bits &= bits - 1;
            }
        }
    }

    fn free_cols(&self) -> usize {
        self.counts.iter().filter(|&&n| n == 0).count()
    }

    /// Bit masks of the columns whose retained gap count is exactly 1, 2
    /// and 3 — the columns a 1-, 2- or 3-row drop can possibly free.
    fn exact_masks(&self, words: usize) -> [Vec<u64>; 3] {
        let mut exact = [vec![0u64; words], vec![0u64; words], vec![0u64; words]];
        for (c, &n) in self.counts.iter().enumerate() {
            if (1..=3).contains(&n) {
                exact[n as usize - 1][c / 64] |= 1u64 << (c % 64);
            }
        }
        exact
    }
}

/// Candidate pool caps: synergy lookahead scans all pairs while the
/// retained set is small, and falls back to the most gap-blocked rows on
/// large inputs so the loop stays near-quadratic.
const PAIR_POOL: usize = 256;
const TRIPLE_POOL: usize = 12;

/// The best move found by one lookahead sweep.
struct Move {
    rows: Vec<usize>,
    gain: i64,
}

/// Trim an alignment: greedily exclude rows (with pair/triple synergy
/// lookahead, and optional branch-and-bound refinement) to maximize
/// `retained rows × gap-free columns`. The reported area never decreases
/// relative to the input.
pub fn trim_msa(msa: &Msa, cfg: &TrimConfig) -> TrimOutcome {
    let n = msa.num_rows();
    let (masks, words) = gap_masks(msa);
    let budget = cfg.max_dropped.unwrap_or(n.saturating_sub(1)).min(n.saturating_sub(1));
    let mut work = Work::ZERO;
    work.seq_bytes += (n * msa.num_cols()) as u64;

    let mut drop_order = greedy(msa, &masks, words, budget, &mut work);

    if cfg.branch_bound {
        let refined = branch_bound(msa, &masks, budget, &drop_order, &mut work);
        if drop_set_area(msa, &masks, &refined) > drop_set_area(msa, &masks, &drop_order) {
            drop_order = refined;
        }
    }

    assemble(msa, &masks, drop_order, work)
}

/// Area after dropping exactly the rows in `dropped` (any order).
fn drop_set_area(msa: &Msa, masks: &[Vec<u64>], dropped: &[usize]) -> u64 {
    let mut counts = GapCounts::new(msa);
    for &i in dropped {
        counts.drop_row(&masks[i]);
    }
    (msa.num_rows() - dropped.len()) as u64 * counts.free_cols() as u64
}

/// The greedy exclusion loop. Returns the drop order.
fn greedy(
    msa: &Msa,
    masks: &[Vec<u64>],
    words: usize,
    budget: usize,
    work: &mut Work,
) -> Vec<usize> {
    let n = msa.num_rows();
    let mut retained: Vec<usize> = (0..n).collect();
    let mut counts = GapCounts::new(msa);
    let mut drop_order: Vec<usize> = Vec::new();

    while drop_order.len() < budget && retained.len() > 1 {
        let r = retained.len() as i64;
        let free = counts.free_cols() as i64;
        let area = r * free;
        let exact = counts.exact_masks(words);
        let left = budget - drop_order.len();

        let mut best: Option<Move> = None;
        let mut consider = |rows: Vec<usize>, gain: i64| {
            let better = match &best {
                None => gain > 0,
                // Strict improvement only; prefer dropping fewer rows for
                // the same gain, then the earliest indices (determinism).
                Some(b) => {
                    gain > b.gain
                        || (gain == b.gain && (rows.len(), &rows) < (b.rows.len(), &b.rows))
                }
            };
            if better {
                best = Some(Move { rows, gain });
            }
        };

        // Singles: a drop frees exactly the columns where this row holds
        // the only retained gap.
        let mut single_gain: Vec<(usize, u32)> = Vec::with_capacity(retained.len());
        for &i in &retained {
            let freed = pop2(&exact[0], &masks[i]);
            work.col_ops += words as u64;
            single_gain.push((i, freed));
            consider(vec![i], (r - 1) * (free + i64::from(freed)) - area);
        }

        // Pairs: columns where the pair holds the only one or two gaps.
        if left >= 2 && retained.len() > 2 {
            let pool = pair_pool(&retained, &single_gain, masks, &exact, PAIR_POOL, work);
            for (pi, &i) in pool.iter().enumerate() {
                for &j in &pool[pi + 1..] {
                    let freed = pop_or2(&exact[0], &masks[i], &masks[j])
                        + pop3(&exact[1], &masks[i], &masks[j]);
                    work.col_ops += 3 * words as u64;
                    consider(two_sorted(i, j), (r - 2) * (free + i64::from(freed)) - area);
                }
            }
        }

        // Triples, over the most promising handful of rows.
        if left >= 3 && retained.len() > 3 {
            let pool = pair_pool(&retained, &single_gain, masks, &exact, TRIPLE_POOL, work);
            for (pi, &i) in pool.iter().enumerate() {
                for (pj, &j) in pool[pi + 1..].iter().enumerate() {
                    for &k in &pool[pi + 1 + pj + 1..] {
                        let freed = triple_freed(&exact, masks, i, j, k);
                        work.col_ops += 7 * words as u64;
                        consider(three_sorted(i, j, k), (r - 3) * (free + i64::from(freed)) - area);
                    }
                }
            }
        }

        let Some(mv) = best else { break };
        if mv.gain <= 0 {
            break;
        }
        for &i in &mv.rows {
            counts.drop_row(&masks[i]);
            retained.retain(|&x| x != i);
            drop_order.push(i);
        }
    }
    drop_order
}

/// The candidate pool for synergy lookahead: everything while small,
/// otherwise the `cap` rows blocking the most nearly-free columns.
fn pair_pool(
    retained: &[usize],
    single_gain: &[(usize, u32)],
    masks: &[Vec<u64>],
    exact: &[Vec<u64>; 3],
    cap: usize,
    work: &mut Work,
) -> Vec<usize> {
    if retained.len() <= cap {
        return retained.to_vec();
    }
    // Score by gaps held in columns with ≤ 3 retained gaps — the columns
    // any small synergy move could free.
    let mut scored: Vec<(u32, usize)> = single_gain
        .iter()
        .map(|&(i, s1)| {
            work.col_ops += 2 * exact[1].len() as u64;
            (s1 + pop2(&exact[1], &masks[i]) + pop2(&exact[2], &masks[i]), i)
        })
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut pool: Vec<usize> = scored.into_iter().take(cap).map(|(_, i)| i).collect();
    pool.sort_unstable();
    pool
}

/// Columns freed by dropping `{i, j, k}` together: exactly-1 columns where
/// any of them holds the gap, exactly-2 columns where two of them hold
/// both, and exactly-3 columns where they hold all three.
fn triple_freed(exact: &[Vec<u64>; 3], masks: &[Vec<u64>], i: usize, j: usize, k: usize) -> u32 {
    let (gi, gj, gk) = (&masks[i], &masks[j], &masks[k]);
    let mut freed = 0u32;
    for w in 0..gi.len() {
        let (a, b, c) = (gi[w], gj[w], gk[w]);
        let any = a | b | c;
        let two = (a & b) | (a & c) | (b & c);
        let all = a & b & c;
        freed += (exact[0][w] & any).count_ones()
            + (exact[1][w] & two).count_ones()
            + (exact[2][w] & all).count_ones();
    }
    freed
}

fn two_sorted(i: usize, j: usize) -> Vec<usize> {
    let mut v = vec![i, j];
    v.sort_unstable();
    v
}

fn three_sorted(i: usize, j: usize, k: usize) -> Vec<usize> {
    let mut v = vec![i, j, k];
    v.sort_unstable();
    v
}

/// Bounded branch-and-bound over drop subsets, seeded with (and never
/// worse than) the greedy solution. Rows are considered in descending
/// gap-count order; the optimistic bound assumes `e` further drops free
/// every unblocked column with ≤ `e` remaining gaps.
fn branch_bound(
    msa: &Msa,
    masks: &[Vec<u64>],
    budget: usize,
    seed: &[usize],
    work: &mut Work,
) -> Vec<usize> {
    const NODE_BUDGET: u64 = 100_000;
    let n = msa.num_rows();
    let mut order: Vec<usize> = (0..n).collect();
    let gaps_of = |i: usize| masks[i].iter().map(|w| w.count_ones()).sum::<u32>();
    order.sort_by(|&a, &b| gaps_of(b).cmp(&gaps_of(a)).then(a.cmp(&b)));

    struct Search<'a> {
        msa: &'a Msa,
        masks: &'a [Vec<u64>],
        order: &'a [usize],
        budget: usize,
        counts: GapCounts,
        /// Columns gapped in a row already committed as kept.
        blocked: Vec<bool>,
        dropped: Vec<usize>,
        best_area: u64,
        best_set: Vec<usize>,
        nodes: u64,
        work_cols: u64,
    }

    impl Search<'_> {
        fn area_now(&self) -> u64 {
            (self.msa.num_rows() - self.dropped.len()) as u64 * self.counts.free_cols() as u64
        }

        /// Optimistic area bound from this node.
        fn bound(&mut self) -> u64 {
            let r = self.msa.num_rows() - self.dropped.len();
            let left = (self.budget - self.dropped.len()).min(r.saturating_sub(1));
            // hist[g] = unblocked columns with exactly g remaining gaps.
            let mut hist = vec![0u64; left + 1];
            for (c, &g) in self.counts.counts.iter().enumerate() {
                let g = g as usize;
                if g <= left && !self.blocked[c] {
                    hist[g] += 1;
                }
            }
            self.work_cols += self.counts.counts.len() as u64;
            let mut best = 0u64;
            let mut freeable = hist[0];
            for (e, &h) in hist.iter().enumerate() {
                if e > 0 {
                    freeable += h;
                }
                best = best.max((r - e) as u64 * freeable);
            }
            best
        }

        fn recurse(&mut self, pos: usize) {
            self.nodes += 1;
            let area = self.area_now();
            if area > self.best_area {
                self.best_area = area;
                self.best_set = self.dropped.clone();
            }
            if self.nodes >= NODE_BUDGET || pos == self.order.len() {
                return;
            }
            if self.bound() <= self.best_area {
                return;
            }
            let i = self.order[pos];
            // Drop branch first: improvements tighten the bound early.
            let r = self.msa.num_rows() - self.dropped.len();
            if self.dropped.len() < self.budget && r > 1 {
                self.counts.drop_row(&self.masks[i]);
                self.dropped.push(i);
                self.recurse(pos + 1);
                self.dropped.pop();
                // Restore the counts.
                for (w, &word) in self.masks[i].iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let c = w * 64 + bits.trailing_zeros() as usize;
                        self.counts.counts[c] += 1;
                        bits &= bits - 1;
                    }
                }
            }
            // Keep branch: columns this row gaps can never free up.
            let newly: Vec<usize> =
                gap_columns(&self.masks[i]).into_iter().filter(|&c| !self.blocked[c]).collect();
            for &c in &newly {
                self.blocked[c] = true;
            }
            self.recurse(pos + 1);
            for &c in &newly {
                self.blocked[c] = false;
            }
        }
    }

    let mut search = Search {
        msa,
        masks,
        order: &order,
        budget,
        counts: GapCounts::new(msa),
        blocked: vec![false; msa.num_cols()],
        dropped: Vec::new(),
        best_area: drop_set_area(msa, masks, seed),
        best_set: seed.to_vec(),
        nodes: 0,
        work_cols: 0,
    };
    search.recurse(0);
    work.col_ops += search.work_cols;
    let mut best = search.best_set;
    best.sort_unstable();
    best
}

/// Column indices set in a gap mask.
fn gap_columns(mask: &[u64]) -> Vec<usize> {
    let mut cols = Vec::new();
    for (w, &word) in mask.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            cols.push(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
    cols
}

/// Build the final outcome from a drop order: marginal per-row gains, the
/// retained sub-alignment with all-gap columns removed, and the area
/// bookkeeping.
fn assemble(msa: &Msa, masks: &[Vec<u64>], drop_order: Vec<usize>, work: Work) -> TrimOutcome {
    let n = msa.num_rows();
    let mut counts = GapCounts::new(msa);
    let free_before = counts.free_cols();
    let area_before = n as u64 * free_before as u64;

    let mut dropped = Vec::with_capacity(drop_order.len());
    let mut area = area_before as i64;
    for (step, &i) in drop_order.iter().enumerate() {
        counts.drop_row(&masks[i]);
        let now = (n - step - 1) as i64 * counts.free_cols() as i64;
        dropped.push(DroppedRow { index: i, id: msa.ids()[i].clone(), area_gain: now - area });
        area = now;
    }
    let free_after = counts.free_cols();
    let area_after = (n - drop_order.len()) as u64 * free_after as u64;
    debug_assert!(area_after >= area_before, "trim must never lose area");

    let keep: Vec<usize> = (0..n).filter(|i| !drop_order.contains(i)).collect();
    let ids: Vec<String> = keep.iter().map(|&i| msa.ids()[i].clone()).collect();
    let rows: Vec<Vec<u8>> = keep.iter().map(|&i| msa.row(i).to_vec()).collect();
    let mut out = Msa::from_rows(ids, rows);
    out.drop_all_gap_columns();

    TrimOutcome {
        msa: out,
        dropped,
        area_before,
        area_after,
        free_cols_before: free_before,
        free_cols_after: free_after,
        work,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::fasta;

    fn msa(text: &str) -> Msa {
        fasta::parse_alignment(text).unwrap()
    }

    #[test]
    fn area_of_gapless_alignment() {
        let m = msa(">a\nMKVL\n>b\nMKIL\n");
        let (area, free) = alignment_area(&m);
        assert_eq!((area, free), (8, 4));
    }

    #[test]
    fn gap_masks_mark_gaps() {
        let m = msa(">a\nM-VL\n>b\n-KIL\n");
        let (masks, words) = gap_masks(&m);
        assert_eq!(words, 1);
        assert_eq!(masks[0][0], 0b0010);
        assert_eq!(masks[1][0], 0b0001);
    }

    #[test]
    fn gapless_input_is_untouched() {
        let m = msa(">a\nMKVL\n>b\nMKIL\n>c\nMKVL\n");
        let out = trim_msa(&m, &TrimConfig::default());
        assert_eq!(out.msa, m);
        assert!(out.dropped.is_empty());
        assert_eq!(out.area_before, out.area_after);
    }

    #[test]
    fn one_gappy_row_is_dropped() {
        // Dropping `c` takes the area from 4*2=8 to 3*6=18.
        let m = msa(">a\nMKVLAW\n>b\nMKILAW\n>d\nMKVLAW\n>c\n--VL--\n");
        let out = trim_msa(&m, &TrimConfig::default());
        assert_eq!(out.rows_dropped(), 1);
        assert_eq!(out.dropped[0].id, "c");
        assert_eq!(out.area_before, 8);
        assert_eq!(out.area_after, 18);
        assert_eq!(out.cols_gained(), 4);
        assert!(out.msa.validate().is_ok());
    }

    #[test]
    fn max_dropped_caps_the_exclusions() {
        let m = msa(">a\nMKVLAW\n>b\nMKILAW\n>d\nMKVLAW\n>c\n--VL--\n>e\nMK--AW\n");
        let unlimited = trim_msa(&m, &TrimConfig::default());
        assert!(unlimited.rows_dropped() >= 2);
        let capped = trim_msa(&m, &TrimConfig { max_dropped: Some(1), ..Default::default() });
        assert_eq!(capped.rows_dropped(), 1);
        assert!(capped.area_after >= capped.area_before);
    }

    #[test]
    fn pair_synergy_is_found() {
        // `c` and `d` gap the same four columns, so every one of those
        // columns carries two retained gaps: no single drop frees
        // anything (gain 3×2−8 < 0), but dropping the pair frees all
        // four. Area: 4 rows × 2 free = 8 → 2 rows × 6 free = 12.
        let m = msa(">a\nMKVLAW\n>b\nMKILAW\n>c\n--VL--\n>d\n--KL--\n");
        let single_best = trim_msa(&m, &TrimConfig { max_dropped: Some(1), ..Default::default() });
        assert_eq!(single_best.rows_dropped(), 0, "no single drop should pay off");
        let out = trim_msa(&m, &TrimConfig::default());
        assert_eq!(out.rows_dropped(), 2);
        assert_eq!(out.area_after, 12);
        let ids: Vec<&str> = out.dropped.iter().map(|d| d.id.as_str()).collect();
        assert_eq!(ids, ["c", "d"]);
    }

    #[test]
    fn marginal_gains_sum_to_total() {
        let m = msa(">a\nMKVLAW\n>b\nMKILAW\n>c\n--VL--\n>d\n--KL--\n");
        let out = trim_msa(&m, &TrimConfig::default());
        let total: i64 = out.dropped.iter().map(|d| d.area_gain).sum();
        assert_eq!(total, out.area_after as i64 - out.area_before as i64);
    }

    #[test]
    fn branch_bound_never_loses_to_greedy() {
        let m = msa(">a\nMK-LAW-K\n>b\nMKILAW-K\n>c\n--VLAWQK\n>d\nMKVL--QK\n>e\nM-VLAWQ-\n");
        let greedy = trim_msa(&m, &TrimConfig::default());
        let bb = trim_msa(&m, &TrimConfig { branch_bound: true, ..Default::default() });
        assert!(bb.area_after >= greedy.area_after);
        assert!(bb.msa.validate().is_ok());
    }

    #[test]
    fn retained_rows_are_subsequences() {
        let m = msa(">a\nMK-LAW\n>b\nMKILAW\n>c\n--VL--\n");
        let out = trim_msa(&m, &TrimConfig::default());
        for (k, id) in out.msa.ids().iter().enumerate() {
            let i = m.ids().iter().position(|x| x == id).unwrap();
            let orig: Vec<u8> = m.row(i).iter().copied().filter(|&c| c != GAP_CODE).collect();
            let kept: Vec<u8> = out.msa.row(k).iter().copied().filter(|&c| c != GAP_CODE).collect();
            assert_eq!(orig, kept, "row {id} lost residues");
        }
    }

    #[test]
    fn single_row_alignment_keeps_its_residues() {
        // A lone row's gap column is all-gap by definition, so the output
        // normalizes it away; the area (4 residue columns) is unchanged.
        let m = msa(">a\nMK-VL\n");
        let out = trim_msa(&m, &TrimConfig { branch_bound: true, ..Default::default() });
        assert!(out.dropped.is_empty());
        assert_eq!(out.msa, msa(">a\nMKVL\n"));
        assert_eq!(out.area_before, 4);
        assert_eq!(out.area_after, 4);
    }
}
