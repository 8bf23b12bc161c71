//! Kernel-level guarantees of `align::dp` on realistic inputs:
//!
//! * `BandPolicy::Full` through the kernel reproduces the full-DP rows and
//!   scores byte-for-byte, whatever arena is used;
//! * adaptive banding (`BandPolicy::Auto`) converges to the full-DP
//!   optimum on rose-generated homologous families *and* on divergent
//!   pairs where the optimum needs off-diagonal excursions;
//! * the striped f32 kernel is a pure implementation swap: on f32-exact
//!   scorers, where `DpKernel::Auto` runs it, identical traceback ops
//!   (hence identical rows) to the scalar f64 oracle on every input
//!   family, under every band policy;
//! * the arena is pure scratch for every `*_with` form: a dirty, reused
//!   arena gives exactly the fresh-arena result.

use align::dp::{BandPolicy, ColumnScorer, DpArena, DpKernel, DpOptions, PspScorer, SubstScorer};
use align::pairwise::{global_align_with, PairAlignment};
use align::papro::{align_profiles_with, ProfileAlignment};
use align::Profile;
use bioseq::{GapPenalties, Msa, Sequence, SubstMatrix, Work, GAP_CODE};
use proptest::prelude::*;
use rosegen::{Family, FamilyConfig};

fn family(n: usize, avg_len: usize, relatedness: f64, seed: u64) -> Vec<Sequence> {
    Family::generate(&FamilyConfig { n_seqs: n, avg_len, relatedness, seed, ..Default::default() })
        .seqs
}

/// The exact full-DP pairwise alignment under a fresh arena.
fn full_align(a: &Sequence, b: &Sequence, m: &SubstMatrix, g: GapPenalties) -> PairAlignment {
    global_align_with(a, b, m, g, BandPolicy::Full, &mut DpArena::new())
}

/// The exact full-DP profile alignment under a fresh arena.
fn full_profiles(pa: &Profile, pb: &Profile, m: &SubstMatrix, g: GapPenalties) -> ProfileAlignment {
    align_profiles_with(pa, pb, m, g, BandPolicy::Full, &mut DpArena::new())
}

/// Every band shape the kernel supports: unrestricted, and adaptive
/// (band-doubling with refills).
const ALL_BANDS: [BandPolicy; 2] = [BandPolicy::Full, BandPolicy::Auto];

/// `band` under the scalar oracle and under the auto kernel, which runs
/// the striped fill on f32-exact scorers.
fn scalar_and_auto(band: BandPolicy) -> (DpOptions, DpOptions) {
    (DpOptions { band, kernel: DpKernel::Scalar }, DpOptions { band, kernel: DpKernel::Auto })
}

/// Uniform-weight profiles are f32-exact, so the auto kernel runs the
/// striped fill on them.
fn assert_psp_f32_exact(pa: &Profile, pb: &Profile, matrix: &SubstMatrix, gaps: GapPenalties) {
    let s = PspScorer::new(pa, pb, matrix, gaps, &mut Work::default());
    assert!(s.f32_compatible(), "uniform weights keep PSP f32-exact");
}

/// Assert the striped kernel reproduces the scalar oracle's traceback
/// byte-for-byte on one pair, under every band policy.
fn assert_pair_kernel_identity(
    a: &Sequence,
    b: &Sequence,
    matrix: &SubstMatrix,
    gaps: GapPenalties,
) {
    let s = SubstScorer::new(a.codes(), b.codes(), matrix, gaps);
    assert!(s.f32_compatible(), "integer scoring is f32-exact: auto runs the striped fill");
    let mut arena = DpArena::new();
    for band in ALL_BANDS {
        let (scalar, striped) = scalar_and_auto(band);
        let scalar = global_align_with(a, b, matrix, gaps, scalar, &mut arena);
        let striped = global_align_with(a, b, matrix, gaps, striped, &mut arena);
        assert_eq!(scalar.row_a, striped.row_a, "{band:?}");
        assert_eq!(scalar.row_b, striped.row_b, "{band:?}");
        assert_eq!(scalar.score, striped.score, "{band:?}");
        assert_eq!(scalar.work, striped.work, "{band:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random rose families, a reused arena reproduces the full-DP rows
    /// byte-for-byte.
    #[test]
    fn full_band_reproduces_full_dp_rows(seed in 0u64..500, relatedness in 200f64..900.0) {
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties::default();
        let seqs = family(4, 90, relatedness, seed);
        let mut arena = DpArena::new();
        for pair in seqs.chunks(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let full = full_align(a, b, &matrix, gaps);
            // Leave the reversed pair's fill in the arena first.
            global_align_with(b, a, &matrix, gaps, BandPolicy::Full, &mut arena);
            let reused = global_align_with(a, b, &matrix, gaps, BandPolicy::Full, &mut arena);
            prop_assert_eq!(&reused.row_a, &full.row_a);
            prop_assert_eq!(&reused.row_b, &full.row_b);
        }
    }

    /// Adaptive banding matches the full-DP score on homologous families
    /// while filling no more cells than the full fill.
    #[test]
    fn auto_band_is_exact_and_cheaper_on_families(seed in 0u64..500) {
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties::default();
        let seqs = family(2, 450, 700.0, seed);
        let (a, b) = (&seqs[0], &seqs[1]);
        let full = full_align(a, b, &matrix, gaps);
        let auto = global_align_with(a, b, &matrix, gaps, BandPolicy::Auto, &mut DpArena::new());
        prop_assert_eq!(auto.score, full.score);
        prop_assert!(auto.work.dp_cells <= full.work.dp_cells, "banding must not cost extra here");
        prop_assert_eq!(auto.work.dp_cells_full, full.work.dp_cells);
    }

    /// Adaptive banding converges to the full optimum even on divergent
    /// pairs: unrelated sequences of different lengths, where the initial
    /// band is often too narrow and must be widened.
    #[test]
    fn auto_band_is_exact_on_divergent_pairs(
        a in prop::collection::vec(0u8..20, 40..160),
        b in prop::collection::vec(0u8..20, 40..160),
        open in 1i32..12,
        extend in 1i32..4,
    ) {
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties { open, extend };
        let sa = Sequence::from_codes("a", a);
        let sb = Sequence::from_codes("b", b);
        let full = full_align(&sa, &sb, &matrix, gaps);
        let auto = global_align_with(&sa, &sb, &matrix, gaps, BandPolicy::Auto, &mut DpArena::new());
        prop_assert_eq!(auto.score, full.score);
    }

    /// The profile kernel under adaptive banding matches the full-DP
    /// objective on profiles built from rose sub-families.
    #[test]
    fn auto_band_is_exact_for_profile_alignment(seed in 0u64..300) {
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties::default();
        let seqs = family(6, 150, 600.0, seed);
        let engine = align::MuscleLite::fast();
        use align::MsaEngine;
        let msa_a = engine.align_with_work(&seqs[..3]).0;
        let msa_b = engine.align_with_work(&seqs[3..]).0;
        let mut w = Work::ZERO;
        let pa = Profile::from_msa(&msa_a, &mut w);
        let pb = Profile::from_msa(&msa_b, &mut w);
        let full = full_profiles(&pa, &pb, &matrix, gaps);
        let auto =
            align_profiles_with(&pa, &pb, &matrix, gaps, BandPolicy::Auto, &mut DpArena::new());
        prop_assert!(
            (auto.score - full.score).abs() <= 1e-9 * full.score.abs().max(1.0),
            "auto {} vs full {}",
            auto.score,
            full.score
        );
    }

    /// Striped == scalar traceback identity on rose families, under both
    /// band policies.
    #[test]
    fn striped_matches_scalar_on_families(seed in 0u64..400, relatedness in 200f64..900.0) {
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties::default();
        let seqs = family(4, 110, relatedness, seed);
        for pair in seqs.chunks(2) {
            assert_pair_kernel_identity(&pair[0], &pair[1], &matrix, gaps);
        }
    }

    /// Striped == scalar on unrelated random pairs of unequal length —
    /// the inputs most likely to exercise band refills and tie-breaks.
    #[test]
    fn striped_matches_scalar_on_divergent_pairs(
        a in prop::collection::vec(0u8..20, 1..160),
        b in prop::collection::vec(0u8..20, 1..160),
        open in 1i32..12,
        extend in 1i32..4,
    ) {
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties { open, extend };
        let sa = Sequence::from_codes("a", a);
        let sb = Sequence::from_codes("b", b);
        assert_pair_kernel_identity(&sa, &sb, &matrix, gaps);
    }

    /// Striped == scalar on the profile–profile (PSP) kernel: identical
    /// merge scripts under every band policy. Uniform-weight profiles are
    /// f32-exact, so scores match exactly too.
    #[test]
    fn striped_matches_scalar_for_profiles(seed in 0u64..200) {
        let matrix = SubstMatrix::blosum62();
        let gaps = GapPenalties::default();
        let seqs = family(6, 120, 600.0, seed);
        let engine = align::MuscleLite::fast();
        use align::MsaEngine;
        let msa_a = engine.align_with_work(&seqs[..3]).0;
        let msa_b = engine.align_with_work(&seqs[3..]).0;
        let mut w = Work::ZERO;
        let pa = Profile::from_msa(&msa_a, &mut w);
        let pb = Profile::from_msa(&msa_b, &mut w);
        assert_psp_f32_exact(&pa, &pb, &matrix, gaps);
        let mut arena = DpArena::new();
        for band in ALL_BANDS {
            let (scalar, striped) = scalar_and_auto(band);
            let scalar = align_profiles_with(&pa, &pb, &matrix, gaps, scalar, &mut arena);
            let striped = align_profiles_with(&pa, &pb, &matrix, gaps, striped, &mut arena);
            prop_assert_eq!(&scalar.ops, &striped.ops, "{:?}", band);
            prop_assert_eq!(scalar.score, striped.score, "{:?}", band);
        }
    }
}

/// Striped == scalar when one sequence is a 60-residue shift of the
/// other — the optimal path runs 60 diagonals off-centre, forcing Auto's
/// band-doubling refill path through both kernels.
#[test]
fn striped_matches_scalar_on_shifted_pair() {
    let matrix = SubstMatrix::blosum62();
    let gaps = GapPenalties { open: 4, extend: 1 };
    let core = family(1, 200, 900.0, 17).remove(0);
    let mut shifted = vec![bioseq::alphabet::char_to_code('P').unwrap(); 60];
    shifted.extend_from_slice(core.codes());
    let a = Sequence::from_codes("a", core.codes().to_vec());
    let b = Sequence::from_codes("b", shifted);
    assert_pair_kernel_identity(&a, &b, &matrix, gaps);
}

/// Striped == scalar on degenerate inputs: empty and single-residue
/// sequences, single-column profiles, and profiles containing an all-gap
/// column (weight-0 everywhere — the scoring lane must still agree).
#[test]
fn striped_matches_scalar_on_degenerate_inputs() {
    use align::dp::gotoh_global_with;
    let matrix = SubstMatrix::blosum62();
    let gaps = GapPenalties::default();
    // Empty sides only exist below the `Sequence` type (which rejects
    // them), so drive the kernel directly through the scorer API.
    let codes: [&[u8]; 4] = [&[], &[7], &[0, 5, 12, 19, 3], &[]];
    let mut arena = DpArena::new();
    for a in codes {
        for b in codes {
            let s = SubstScorer::new(a, b, &matrix, gaps);
            assert!(s.f32_compatible(), "{a:?} vs {b:?}");
            for band in ALL_BANDS {
                let scalar = gotoh_global_with(&s, band, DpKernel::Scalar, &mut arena);
                let striped = gotoh_global_with(&s, band, DpKernel::Auto, &mut arena);
                assert_eq!(scalar.ops, striped.ops, "{band:?} on {a:?} vs {b:?}");
                assert_eq!(scalar.score, striped.score, "{band:?} on {a:?} vs {b:?}");
            }
        }
    }
    let one = Sequence::from_codes("one", vec![7]);
    let short = Sequence::from_codes("short", vec![0, 5, 12, 19, 3]);
    assert_pair_kernel_identity(&one, &one, &matrix, gaps);
    assert_pair_kernel_identity(&one, &short, &matrix, gaps);

    // A profile whose middle column is entirely gaps, against a
    // single-column profile.
    let mut w = Work::ZERO;
    let gappy = Profile::from_msa(
        &Msa::from_rows(
            vec!["x".into(), "y".into()],
            vec![vec![0, GAP_CODE, 4], vec![2, GAP_CODE, GAP_CODE]],
        ),
        &mut w,
    );
    let single = Profile::from_msa(&Msa::from_rows(vec!["z".into()], vec![vec![4]]), &mut w);
    let mut arena = DpArena::new();
    for band in ALL_BANDS {
        for (pa, pb) in [(&gappy, &single), (&single, &gappy), (&gappy, &gappy)] {
            assert_psp_f32_exact(pa, pb, &matrix, gaps);
            let (scalar, striped) = scalar_and_auto(band);
            let scalar = align_profiles_with(pa, pb, &matrix, gaps, scalar, &mut arena);
            let striped = align_profiles_with(pa, pb, &matrix, gaps, striped, &mut arena);
            assert_eq!(scalar.ops, striped.ops, "{band:?}");
            assert_eq!(scalar.score, striped.score, "{band:?}");
        }
    }
}

/// Block transposition (a = S1+S2 vs b = S2+S1): the banded near-diagonal
/// path clears the band edges yet is far below the off-band optimum — the
/// case that forces Auto's score-stability acceptance rule.
#[test]
fn adaptive_band_is_exact_on_transposed_blocks() {
    let matrix = SubstMatrix::blosum62();
    let gaps = GapPenalties::default();
    let fam = family(2, 60, 900.0, 21);
    let (s1, s2) = (fam[0].codes(), fam[1].codes());
    let mut a = s1.to_vec();
    a.extend_from_slice(s2);
    let mut b = s2.to_vec();
    b.extend_from_slice(s1);
    let sa = Sequence::from_codes("a", a);
    let sb = Sequence::from_codes("b", b);
    let full = full_align(&sa, &sb, &matrix, gaps);
    let auto = global_align_with(&sa, &sb, &matrix, gaps, BandPolicy::Auto, &mut DpArena::new());
    assert_eq!(auto.score, full.score);
}

/// A structured adversarial case: a long shifted repeat forces the optimal
/// path far off the main diagonal, so the initial band must double (at
/// least once) before the optimum fits.
#[test]
fn adaptive_band_widens_for_large_shifts() {
    let matrix = SubstMatrix::blosum62();
    let gaps = GapPenalties { open: 4, extend: 1 };
    let core = family(1, 160, 900.0, 11).remove(0);
    let mut shifted = vec![bioseq::alphabet::char_to_code('P').unwrap(); 60];
    shifted.extend_from_slice(core.codes());
    let a = Sequence::from_codes("a", core.codes().to_vec());
    let b = Sequence::from_codes("b", shifted);
    let full = full_align(&a, &b, &matrix, gaps);
    let auto = global_align_with(&a, &b, &matrix, gaps, BandPolicy::Auto, &mut DpArena::new());
    assert_eq!(auto.score, full.score, "adaptive banding must find the shifted optimum");
}

/// End-to-end: the full-band engine and the default adaptive engine agree
/// on every alignment row for a family below the minimum band width, and
/// on the final score for longer ones.
#[test]
fn engines_agree_across_band_policies() {
    use align::{MsaEngine, MuscleLite};
    let matrix = SubstMatrix::blosum62();
    let gaps = GapPenalties::default();
    let seqs = family(8, 400, 700.0, 3);
    let (auto_msa, auto_work) = MuscleLite::fast().align_with_work(&seqs);
    let (full_msa, full_work) = MuscleLite::fast().with_dp(BandPolicy::Full).align_with_work(&seqs);
    let score = |m: &Msa| m.sp_score(&matrix, gaps);
    assert_eq!(score(&auto_msa), score(&full_msa), "co-optimal alignments must tie on SP");
    assert!(
        auto_work.dp_cells < full_work.dp_cells,
        "auto {} should fill fewer cells than full {}",
        auto_work.dp_cells,
        full_work.dp_cells
    );
}

/// A dirty arena is pure scratch for every `*_with` form: under one arena
/// reused across every call (and first grown on a larger instance), each
/// form returns exactly what it returns under a fresh arena — same ops,
/// score, MSA and `Work` — under the full band, the default options and
/// the auto band on the scalar kernel.
#[test]
fn dirty_arena_is_pure_scratch_for_every_explicit_form() {
    use align::distance::alignment_distance_matrix_with;
    use align::pairwise::alignment_distance_with;
    use align::papro::align_and_merge_with;
    use align::progressive::{progressive_align_with, ProgressiveConfig};
    use align::refine::{leave_one_out_with, refine_with};
    use align::MsaEngine;
    let matrix = SubstMatrix::blosum62();
    let gaps = GapPenalties::default();
    let full = DpOptions { band: BandPolicy::Full, kernel: DpKernel::Auto };
    assert_eq!(DpOptions::from(BandPolicy::Full), full);
    assert_eq!(DpOptions::default(), DpOptions { band: BandPolicy::Auto, kernel: DpKernel::Auto });
    let seqs = family(6, 120, 600.0, 5);
    let (a, b) = (&seqs[0], &seqs[1]);
    let ids: Vec<String> = seqs.iter().map(|s| s.id.clone()).collect();
    let mut w = Work::ZERO;
    let dayhoff = bioseq::CompressedAlphabet::Dayhoff6;
    let tree = phylo::upgma(&align::distance::kmer_distance_matrix(&seqs, 6, dayhoff, &mut w));
    let mut arena = DpArena::new();
    let big = family(2, 400, 300.0, 9);
    global_align_with(&big[0], &big[1], &matrix, gaps, BandPolicy::Full, &mut arena);
    let fresh = DpArena::new;
    let options = [
        full,
        DpOptions::default(),
        DpOptions { band: BandPolicy::Auto, kernel: DpKernel::Scalar },
    ];
    for dp in options {
        assert_eq!(
            global_align_with(a, b, &matrix, gaps, dp, &mut arena),
            global_align_with(a, b, &matrix, gaps, dp, &mut fresh()),
            "{dp:?}"
        );

        let (mut wd, mut wf) = (Work::ZERO, Work::ZERO);
        let dirty = alignment_distance_with(a, b, &matrix, gaps, dp, &mut arena, &mut wd);
        let clean = alignment_distance_with(a, b, &matrix, gaps, dp, &mut fresh(), &mut wf);
        assert_eq!((dirty, wd), (clean, wf), "{dp:?}");

        // The matrix form owns one arena per worker: every entry is its
        // pair under the dirty arena, and its work is the pairs' sum.
        let (mut wm, mut wp) = (Work::ZERO, Work::ZERO);
        let m = alignment_distance_matrix_with(&seqs, &matrix, gaps, dp, &mut wm);
        for i in 1..seqs.len() {
            for j in 0..i {
                let (si, sj) = (&seqs[i], &seqs[j]);
                let d = alignment_distance_with(si, sj, &matrix, gaps, dp, &mut arena, &mut wp);
                assert_eq!(m.get(i, j).to_bits(), d.to_bits(), "{dp:?} ({i}, {j})");
            }
        }
        assert_eq!(wm, wp, "{dp:?}");

        let engine = align::MuscleLite::fast().with_dp(dp);
        let (msa_a, msa_b) =
            (engine.align_with_work(&seqs[..3]).0, engine.align_with_work(&seqs[3..]).0);
        let (pa, pb) = (Profile::from_msa(&msa_a, &mut w), Profile::from_msa(&msa_b, &mut w));
        assert_eq!(
            align_profiles_with(&pa, &pb, &matrix, gaps, dp, &mut arena),
            align_profiles_with(&pa, &pb, &matrix, gaps, dp, &mut fresh()),
            "{dp:?}"
        );

        let (mut wd, mut wf) = (Work::ZERO, Work::ZERO);
        let dirty = align_and_merge_with(&msa_a, &msa_b, &matrix, gaps, dp, &mut arena, &mut wd);
        let clean = align_and_merge_with(&msa_a, &msa_b, &matrix, gaps, dp, &mut fresh(), &mut wf);
        assert_eq!((&dirty, wd), (&clean, wf), "{dp:?}");

        let cfg = ProgressiveConfig { dp, ..ProgressiveConfig::default() };
        let (mut wd, mut wf) = (Work::ZERO, Work::ZERO);
        let draft = progressive_align_with(&seqs, &tree, &cfg, &mut arena, &mut wd);
        let clean = progressive_align_with(&seqs, &tree, &cfg, &mut fresh(), &mut wf);
        assert_eq!((&draft, wd), (&clean, wf), "{dp:?}");

        let dirty = refine_with(&draft, &tree, &ids, &matrix, gaps, 2, dp, &mut arena);
        let clean = refine_with(&draft, &tree, &ids, &matrix, gaps, 2, dp, &mut fresh());
        assert_eq!(
            (&dirty.msa, dirty.passes, dirty.improvements, dirty.work),
            (&clean.msa, clean.passes, clean.improvements, clean.work),
            "{dp:?}"
        );

        let dirty = leave_one_out_with(&draft, &matrix, gaps, 1, dp, &mut arena);
        let clean = leave_one_out_with(&draft, &matrix, gaps, 1, dp, &mut fresh());
        assert_eq!(
            (&dirty.msa, dirty.passes, dirty.improvements, dirty.work),
            (&clean.msa, clean.passes, clean.improvements, clean.work),
            "{dp:?}"
        );
    }
}
