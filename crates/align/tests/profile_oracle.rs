//! The flat, row-major profile build and the one-pass PSP scorer set-up
//! against column-major oracles: test-local copies of the straightforward
//! column-by-column `Profile::from_msa_weighted` and `henikoff_weights`,
//! and of the multi-pass `PspScorer::new` arithmetic and f32 audit.
//!
//! Every weight, score and gap cost must match **bit for bit** (`to_bits`),
//! and the f32 verdict exactly, on random gappy alignments (all-gap
//! columns included) under uniform, integral (2.0) and fractional
//! (Henikoff) row weights.

use align::dp::{ColumnScorer, PspScorer};
use align::profile::{henikoff_weights, Profile};
use bioseq::alphabet::{CODE_COUNT, GAP_CODE};
use bioseq::{GapPenalties, Msa, SubstMatrix, Work};
use proptest::prelude::*;

/// One oracle column: `(code, weight)` sorted by code, and the gap weight.
type Column = (Vec<(u8, f64)>, f64);

/// Column-major profile columns: scan each column over the rows, then keep
/// the codes whose summed weight is positive.
fn oracle_columns(msa: &Msa, weights: &[f64]) -> Vec<Column> {
    (0..msa.num_cols())
        .map(|c| {
            let mut dense = [0.0f64; CODE_COUNT];
            let mut gap = 0.0;
            for (r, row) in msa.rows().iter().enumerate() {
                if row[c] == GAP_CODE {
                    gap += weights[r];
                } else {
                    dense[row[c] as usize] += weights[r];
                }
            }
            let residues = dense
                .iter()
                .enumerate()
                .filter(|&(_, &w)| w > 0.0)
                .map(|(code, &w)| (code as u8, w))
                .collect();
            (residues, gap)
        })
        .collect()
}

/// Column-major Henikoff weights, normalised to mean 1.
fn oracle_henikoff(msa: &Msa) -> Vec<f64> {
    let n = msa.num_rows();
    if n == 1 {
        return vec![1.0];
    }
    let mut weights = vec![0.0f64; n];
    for c in 0..msa.num_cols() {
        let mut counts = [0usize; CODE_COUNT];
        let mut distinct = 0usize;
        for row in msa.rows() {
            if row[c] != GAP_CODE {
                distinct += usize::from(counts[row[c] as usize] == 0);
                counts[row[c] as usize] += 1;
            }
        }
        for (r, row) in msa.rows().iter().enumerate() {
            if row[c] != GAP_CODE {
                weights[r] += 1.0 / (distinct as f64 * counts[row[c] as usize] as f64);
            }
        }
    }
    let mean = weights.iter().sum::<f64>() / n as f64;
    if mean > 0.0 {
        weights.iter_mut().for_each(|w| *w /= mean);
    } else {
        weights.iter_mut().for_each(|w| *w = 1.0);
    }
    weights
}

fn residue_weight(col: &Column) -> f64 {
    col.0.iter().map(|&(_, w)| w).sum()
}

/// The PSP scorer's tables and audit, computed pass by pass.
struct OracleScorer {
    a: Vec<Column>,
    eb: Vec<[f64; CODE_COUNT]>,
    open_a: Vec<f64>,
    extend_a: Vec<f64>,
    open_b: Vec<f64>,
    extend_b: Vec<f64>,
    f32_ok: bool,
}

fn oracle_scorer(
    a: Vec<Column>,
    wa_tot: f64,
    b: &[Column],
    wb_tot: f64,
    matrix: &SubstMatrix,
    gaps: GapPenalties,
) -> OracleScorer {
    let eb: Vec<[f64; CODE_COUNT]> = b
        .iter()
        .map(|col| {
            let mut e = [0.0; CODE_COUNT];
            for &(code, w) in &col.0 {
                let row = matrix.row(code);
                for (x, slot) in e.iter_mut().enumerate() {
                    *slot += w * row[x] as f64;
                }
            }
            e
        })
        .collect();
    let (open, extend) = (gaps.open as f64, gaps.extend as f64);
    let rate_a: Vec<f64> = a.iter().map(|c| residue_weight(c) * wb_tot).collect();
    let rate_b: Vec<f64> = b.iter().map(|c| residue_weight(c) * wa_tot).collect();
    let open_a: Vec<f64> = rate_a.iter().map(|r| open * r).collect();
    let extend_a: Vec<f64> = rate_a.iter().map(|r| extend * r).collect();
    let open_b: Vec<f64> = rate_b.iter().map(|r| open * r).collect();
    let extend_b: Vec<f64> = rate_b.iter().map(|r| extend * r).collect();
    let gap_costs = || open_a.iter().chain(&extend_a).chain(&open_b).chain(&extend_b);
    let integral =
        a.iter().all(|(res, gap)| res.iter().all(|&(_, w)| w.fract() == 0.0) && gap.fract() == 0.0)
            && eb.iter().flatten().all(|v| v.fract() == 0.0)
            && gap_costs().all(|v| v.fract() == 0.0);
    let wa_max = a.iter().map(residue_weight).fold(0.0f64, f64::max);
    let e_max = eb.iter().flatten().fold(0.0f64, |acc, &v| acc.max(v.abs()));
    let g_max = gap_costs().fold(0.0f64, |acc, &v| acc.max(v.abs()));
    let step = (wa_max * e_max).max(g_max);
    let f32_ok = integral && (a.len() + b.len() + 2) as f64 * step < 16_777_216.0;
    OracleScorer { a, eb, open_a, extend_a, open_b, extend_b, f32_ok }
}

impl OracleScorer {
    fn substitution(&self, i: usize, j: usize) -> f64 {
        let mut psp = 0.0;
        for &(code, w) in &self.a[i].0 {
            psp += w * self.eb[j][code as usize];
        }
        psp
    }

    /// The striped row: `f32` multiply-adds over A's residues.
    fn substitution_row(&self, i: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; self.eb.len()];
        for &(code, w) in &self.a[i].0 {
            for (slot, e) in out.iter_mut().zip(&self.eb) {
                *slot += w as f32 * e[code as usize] as f32;
            }
        }
        out
    }
}

/// Bit patterns, so `-0.0 != 0.0` and NaNs compare by payload.
fn bits(xs: impl IntoIterator<Item = f64>) -> Vec<u64> {
    xs.into_iter().map(f64::to_bits).collect()
}

fn bits32(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The three weightings every check runs under.
fn weightings(msa: &Msa) -> [(&'static str, Vec<f64>); 3] {
    let n = msa.num_rows();
    let henikoff = henikoff_weights(msa, &mut Work::default());
    assert_eq!(bits(henikoff.iter().copied()), bits(oracle_henikoff(msa)), "henikoff weights");
    [("uniform", vec![1.0; n]), ("integral", vec![2.0; n]), ("henikoff", henikoff)]
}

fn assert_profile_matches(msa: &Msa, weights: &[f64], label: &str) -> Profile {
    let profile = Profile::from_msa_weighted(msa, weights, &mut Work::default());
    let oracle = oracle_columns(msa, weights);
    assert_eq!(profile.len(), oracle.len(), "{label}: width");
    for (i, (res, gap)) in oracle.iter().enumerate() {
        let col = profile.col(i);
        let codes = |r: &[(u8, f64)]| r.iter().map(|&(c, w)| (c, w.to_bits())).collect::<Vec<_>>();
        assert_eq!(codes(col.residues), codes(res), "{label}: column {i} residues");
        assert_eq!(col.gap_weight.to_bits(), gap.to_bits(), "{label}: column {i} gap weight");
    }
    let total: f64 = weights.iter().sum();
    assert_eq!(profile.total_weight.to_bits(), total.to_bits(), "{label}: total weight");
    profile
}

/// A random alignment of 1–12 rows and 1–60 columns drawn from raw words:
/// a gap rate of 5 %, 40 % or 85 %, and about one column in eight blanked
/// to all gaps (unless a row needs it for its one residue).
fn gappy_msa() -> impl Strategy<Value = Msa> {
    const MAX_ROWS: usize = 12;
    const MAX_COLS: usize = 60;
    let words = 3 + MAX_COLS + MAX_ROWS * MAX_COLS;
    prop::collection::vec(0u32..u32::MAX, words..words + 1).prop_map(|raw| {
        let rows = 1 + raw[0] as usize % MAX_ROWS;
        let cols = 1 + raw[1] as usize % MAX_COLS;
        let gap_percent = [5, 40, 85][raw[2] as usize % 3];
        let (blank, cells) = raw[3..].split_at(MAX_COLS);
        let grid: Vec<Vec<u8>> = (0..rows)
            .map(|r| {
                let mut row: Vec<u8> = (0..cols)
                    .map(|c| {
                        let word = cells[r * MAX_COLS + c];
                        if blank[c] % 8 == 0 || word % 100 < gap_percent {
                            GAP_CODE
                        } else {
                            (word / 100 % CODE_COUNT as u32) as u8
                        }
                    })
                    .collect();
                // An alignment row holds at least one residue.
                if row.iter().all(|&code| code == GAP_CODE) {
                    row[r % cols] = (r % CODE_COUNT) as u8;
                }
                row
            })
            .collect();
        Msa::from_rows((0..rows).map(|r| format!("r{r}")).collect(), grid)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn flat_profile_matches_the_column_major_oracle(msa in gappy_msa()) {
        for (label, weights) in weightings(&msa) {
            assert_profile_matches(&msa, &weights, label);
        }
    }

    #[test]
    fn one_pass_scorer_matches_the_multi_pass_oracle(
        msa_a in gappy_msa(),
        msa_b in gappy_msa(),
    ) {
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties::default();
        for ((label, wa), (_, wb)) in weightings(&msa_a).into_iter().zip(weightings(&msa_b)) {
            let pa = assert_profile_matches(&msa_a, &wa, label);
            let pb = assert_profile_matches(&msa_b, &wb, label);
            let scorer = PspScorer::new(&pa, &pb, &matrix, gaps, &mut Work::default());
            let oracle = oracle_scorer(
                oracle_columns(&msa_a, &wa),
                pa.total_weight,
                &oracle_columns(&msa_b, &wb),
                pb.total_weight,
                &matrix,
                gaps,
            );
            let (n, m) = (pa.len(), pb.len());
            prop_assert_eq!((scorer.len_a(), scorer.len_b()), (n, m));
            for i in 0..n {
                prop_assert_eq!(
                    bits((0..m).map(|j| scorer.substitution(i, j))),
                    bits((0..m).map(|j| oracle.substitution(i, j))),
                    "{}: substitution row {}", label, i
                );
                // The f32 row reads a lane table only f32-exact scorers hold.
                if scorer.f32_compatible() {
                    let mut row = vec![0.0f32; m];
                    scorer.fill_substitution_row(i, 0, &mut row);
                    prop_assert_eq!(bits32(&row), bits32(&oracle.substitution_row(i)), "{}: f32 row {}", label, i);
                }
            }
            prop_assert_eq!(bits((0..n).map(|i| scorer.gap_open_a(i))), bits(oracle.open_a.clone()), "{}: open_a", label);
            prop_assert_eq!(bits((0..n).map(|i| scorer.gap_extend_a(i))), bits(oracle.extend_a.clone()), "{}: extend_a", label);
            prop_assert_eq!(bits((0..m).map(|j| scorer.gap_open_b(j))), bits(oracle.open_b.clone()), "{}: open_b", label);
            prop_assert_eq!(bits((0..m).map(|j| scorer.gap_extend_b(j))), bits(oracle.extend_b.clone()), "{}: extend_b", label);
            prop_assert_eq!(scorer.f32_compatible(), oracle.f32_ok, "{}: f32 audit", label);
        }
    }
}

#[test]
fn uniform_and_integral_weights_pass_the_audit_and_henikoff_does_not() {
    // The verdicts the random checks compare are not all one value: on a
    // small family the uniform and doubled profiles are f32-exact and
    // Henikoff's fractional weights are not.
    let rows: Vec<Vec<u8>> =
        vec![vec![0, 1, 2, 3, 4], vec![0, 1, GAP_CODE, 3, 5], vec![6, 1, 2, 7, 4]];
    let msa = Msa::from_rows(vec!["a".into(), "b".into(), "c".into()], rows);
    let matrix = SubstMatrix::blosum62();
    let verdicts: Vec<bool> = weightings(&msa)
        .iter()
        .map(|(_, w)| {
            let p = Profile::from_msa_weighted(&msa, w, &mut Work::default());
            PspScorer::new(&p, &p, &matrix, GapPenalties::default(), &mut Work::default())
                .f32_compatible()
        })
        .collect();
    assert_eq!(verdicts, [true, true, false]);
}
