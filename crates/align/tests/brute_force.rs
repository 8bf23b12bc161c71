//! Ground-truth verification: the Gotoh DP must return the *optimal*
//! affine-gap global alignment score. For tiny sequences we can enumerate
//! every possible alignment exhaustively and compare.

use align::pairwise::{global_align_with, PairAlignment};
use align::{BandPolicy, DpArena};
use bioseq::alphabet::GAP_CODE;
use bioseq::msa::pairwise_row_score;
use bioseq::{GapPenalties, Sequence, SubstMatrix};
use proptest::prelude::*;

/// Enumerate all global alignments of `a[i..]` vs `b[j..]` and return the
/// best affine-gap score. `last` encodes the previous column type
/// (0 = substitution/none, 1 = gap in b, 2 = gap in a) for affine
/// continuation.
fn brute_best(
    a: &[u8],
    b: &[u8],
    i: usize,
    j: usize,
    last: u8,
    matrix: &SubstMatrix,
    gaps: GapPenalties,
) -> i64 {
    if i == a.len() && j == b.len() {
        return 0;
    }
    let mut best = i64::MIN;
    if i < a.len() && j < b.len() {
        let s = matrix.score(a[i], b[j]) as i64 + brute_best(a, b, i + 1, j + 1, 0, matrix, gaps);
        best = best.max(s);
    }
    if i < a.len() {
        let cost = if last == 1 { gaps.extend } else { gaps.open } as i64;
        let s = -cost + brute_best(a, b, i + 1, j, 1, matrix, gaps);
        best = best.max(s);
    }
    if j < b.len() {
        let cost = if last == 2 { gaps.extend } else { gaps.open } as i64;
        let s = -cost + brute_best(a, b, i, j + 1, 2, matrix, gaps);
        best = best.max(s);
    }
    best
}

fn seq_of(codes: &[u8]) -> Sequence {
    Sequence::from_codes("t", codes.to_vec())
}

/// `band` under the auto kernel and a fresh arena.
fn align(a: &[u8], b: &[u8], m: &SubstMatrix, g: GapPenalties, band: BandPolicy) -> PairAlignment {
    global_align_with(&seq_of(a), &seq_of(b), m, g, band, &mut DpArena::new())
}

#[test]
fn gotoh_matches_brute_force_on_fixed_cases() {
    let matrix = SubstMatrix::blosum62();
    let cases: [(&[u8], &[u8]); 6] = [
        (&[0, 1, 2], &[0, 1, 2]),
        (&[0, 1, 2, 3], &[0, 3]),
        (&[4, 4, 4], &[17, 17]),
        (&[12, 11, 19, 10], &[12, 11, 10]),
        (&[0], &[0, 1, 2, 3, 4]),
        (&[7, 8, 9, 10, 11], &[11, 10, 9, 8, 7]),
    ];
    for gaps in [
        GapPenalties::default(),
        GapPenalties { open: 5, extend: 1 },
        GapPenalties { open: 2, extend: 2 },
    ] {
        for (ca, cb) in cases {
            let want = brute_best(ca, cb, 0, 0, 0, &matrix, gaps);
            let got = align(ca, cb, &matrix, gaps, BandPolicy::Full);
            assert_eq!(got.score, want, "codes {ca:?} vs {cb:?} gaps {gaps:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The DP score equals the exhaustive optimum for arbitrary tiny
    /// sequences and gap penalties.
    #[test]
    fn gotoh_is_optimal(
        a in prop::collection::vec(0u8..20, 1..6),
        b in prop::collection::vec(0u8..20, 1..6),
        open in 1i32..12,
        extend in 1i32..4,
    ) {
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties { open, extend };
        let want = brute_best(&a, &b, 0, 0, 0, &matrix, gaps);
        let got = align(&a, &b, &matrix, gaps, BandPolicy::Full);
        prop_assert_eq!(got.score, want);
        // And the emitted alignment really has that score.
        let rescored = pairwise_row_score(&got.row_a, &got.row_b, &matrix, gaps);
        prop_assert_eq!(rescored, want);
    }

    /// The auto band, which on pairs this short is the full width, must
    /// agree with the unbanded optimum.
    #[test]
    fn banded_with_full_band_is_optimal(
        a in prop::collection::vec(0u8..20, 1..6),
        b in prop::collection::vec(0u8..20, 1..6),
    ) {
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties::default();
        let full = align(&a, &b, &matrix, gaps, BandPolicy::Full);
        let banded = align(&a, &b, &matrix, gaps, BandPolicy::Auto);
        prop_assert_eq!(banded.score, full.score);
    }

    /// Alignment rows always reconstruct the inputs, whatever the inputs.
    #[test]
    fn rows_always_reconstruct(
        a in prop::collection::vec(0u8..20, 1..12),
        b in prop::collection::vec(0u8..20, 1..12),
    ) {
        let matrix = SubstMatrix::pam250();
        let gaps = GapPenalties { open: 7, extend: 2 };
        let aln = align(&a, &b, &matrix, gaps, BandPolicy::Full);
        let ung_a: Vec<u8> = aln.row_a.iter().copied().filter(|&c| c != GAP_CODE).collect();
        let ung_b: Vec<u8> = aln.row_b.iter().copied().filter(|&c| c != GAP_CODE).collect();
        prop_assert_eq!(ung_a, a);
        prop_assert_eq!(ung_b, b);
        prop_assert_eq!(aln.row_a.len(), aln.row_b.len());
    }
}
