//! Micro-benchmarks of the `align::dp` Gotoh kernel: scalar vs striped
//! fills, banded vs full, on pairwise and profile–profile shapes. The
//! striped rows run `DpKernel::Auto`, which takes the striped fill on
//! every scorer here: BLOSUM pairs and uniform-weight profiles are
//! f32-exact, and the bench asserts so before it times them.
//!
//! Beyond the timings, the bench asserts the kernel contract:
//!
//! * the adaptive band fills strictly fewer cells than the full matrix on
//!   length-500+ pairs, at the same score;
//! * the striped kernel produces identical results to the scalar kernel;
//! * the striped kernel is never a regression — at least 0.9× the scalar
//!   kernel's cells/sec on every measured shape (CI runs this bench, so a
//!   striped slowdown fails the build).
//!
//! It prints cells/sec and median wall time per (case, band, kernel), and
//! writes `BENCH_dp_kernel.json` at the workspace root through
//! `sad_bench::BenchFile` with only the counts of each point — filled and
//! full-matrix cells. Timings of one run on a shared host differ by up to
//! 2× between runs, so they are not committed; the counts repeat exactly,
//! so a diff of the file shows what a banding change saves.

use align::dp::{BandPolicy, ColumnScorer, DpArena, DpKernel, DpOptions, PspScorer, SubstScorer};
use align::pairwise::global_align_with;
use align::papro::align_profiles_with;
use align::{MsaEngine, MuscleLite, Profile};
use bioseq::{GapPenalties, Sequence, SubstMatrix, Work};
use rosegen::{Family, FamilyConfig};
use sad_bench::{median_seconds, steal_ticks, BenchFile};
use sad_serve::Json;

fn pair(avg_len: usize, seed: u64) -> (Sequence, Sequence) {
    let mut seqs = Family::generate(&FamilyConfig {
        n_seqs: 2,
        avg_len,
        relatedness: 800.0,
        seed,
        ..Default::default()
    })
    .seqs;
    let b = seqs.pop().expect("two sequences");
    let a = seqs.pop().expect("two sequences");
    (a, b)
}

/// One measured (case, band, kernel) point.
struct Entry {
    case: &'static str,
    band: &'static str,
    kernel: &'static str,
    dp_cells: u64,
    full_cells: u64,
    seconds_median: f64,
}

impl Entry {
    fn cells_per_sec(&self) -> f64 {
        self.dp_cells as f64 / self.seconds_median
    }

    fn json(&self) -> Json {
        Json::obj([
            ("case", Json::str(self.case)),
            ("band", Json::str(self.band)),
            ("kernel", Json::str(self.kernel)),
            ("dp_cells", Json::Num(self.dp_cells as f64)),
            ("full_cells", Json::Num(self.full_cells as f64)),
        ])
    }
}

const BANDS: [(&str, BandPolicy); 2] = [("full", BandPolicy::Full), ("auto", BandPolicy::Auto)];
/// The auto kernel runs the striped fill on the f32-exact scorers below.
const KERNELS: [(&str, DpKernel); 2] = [("scalar", DpKernel::Scalar), ("striped", DpKernel::Auto)];

fn main() {
    let steal_at_start = steal_ticks();
    let matrix = SubstMatrix::blosum62();
    let gaps = GapPenalties::default();
    let (short_a, short_b) = pair(100, 0x51);
    let (long_a, long_b) = pair(600, 0x52);
    let (xl_a, xl_b) = pair(1200, 0x54);
    let mut arena = DpArena::new();
    for (a, b) in [(&short_a, &short_b), (&long_a, &long_b), (&xl_a, &xl_b)] {
        let s = SubstScorer::new(a.codes(), b.codes(), &matrix, gaps);
        assert!(s.f32_compatible(), "BLOSUM pairs run the striped fill under the auto kernel");
    }

    // Cell accounting: the acceptance bar for the banded kernel.
    let ga = |band, kernel, arena: &mut DpArena| {
        global_align_with(&long_a, &long_b, &matrix, gaps, DpOptions { band, kernel }, arena)
    };
    let full = ga(BandPolicy::Full, DpKernel::Scalar, &mut arena);
    let auto = ga(BandPolicy::Auto, DpKernel::Scalar, &mut arena);
    println!(
        "dp_cells on L≈600 pair: banded {} vs full {} ({:.1}x fewer), scores {} == {}",
        auto.work.dp_cells,
        full.work.dp_cells,
        full.work.dp_cells as f64 / auto.work.dp_cells as f64,
        auto.score,
        full.score
    );
    assert!(
        auto.work.dp_cells < full.work.dp_cells,
        "banded must fill strictly fewer cells than full on length-500+ pairs"
    );
    assert_eq!(auto.score, full.score, "adaptive banding must stay exact");
    // Kernel identity: the striped fill is an implementation detail.
    for (_, band) in BANDS {
        let s = ga(band, DpKernel::Scalar, &mut arena);
        let v = ga(band, DpKernel::Auto, &mut arena);
        assert_eq!((s.row_a, s.row_b, s.score), (v.row_a, v.row_b, v.score));
    }

    // The profile–profile (PSP) shape, the progressive-alignment hot path.
    let fam = Family::generate(&FamilyConfig {
        n_seqs: 16,
        avg_len: 300,
        relatedness: 800.0,
        seed: 0x53,
        ..Default::default()
    })
    .seqs;
    let engine = MuscleLite::fast();
    let msa_a = engine.align_with_work(&fam[..8]).0;
    let msa_b = engine.align_with_work(&fam[8..]).0;
    let mut w = Work::ZERO;
    let pa = Profile::from_msa(&msa_a, &mut w);
    let pb = Profile::from_msa(&msa_b, &mut w);
    let psp = PspScorer::new(&pa, &pb, &matrix, gaps, &mut w);
    assert!(psp.f32_compatible(), "uniform-weight profiles run the striped fill under auto");

    // Every (case, band, kernel) point: its cells, and the median of a few
    // timed repeats (printed, not committed).
    let mut entries: Vec<Entry> = Vec::new();
    for (case, a, b) in [
        ("global_100", &short_a, &short_b),
        ("global_600", &long_a, &long_b),
        ("global_1200", &xl_a, &xl_b),
    ] {
        for (band_label, band) in BANDS {
            for (kernel_label, kernel) in KERNELS {
                let dp = DpOptions { band, kernel };
                let work = global_align_with(a, b, &matrix, gaps, dp, &mut arena).work;
                let seconds = median_seconds(9, || {
                    std::hint::black_box(global_align_with(
                        std::hint::black_box(a),
                        b,
                        &matrix,
                        gaps,
                        dp,
                        &mut arena,
                    ));
                });
                entries.push(Entry {
                    case,
                    band: band_label,
                    kernel: kernel_label,
                    dp_cells: work.dp_cells,
                    full_cells: work.dp_cells_full,
                    seconds_median: seconds,
                });
            }
        }
    }
    for (band_label, band) in BANDS {
        for (kernel_label, kernel) in KERNELS {
            let dp = DpOptions { band, kernel };
            let work = align_profiles_with(&pa, &pb, &matrix, gaps, dp, &mut arena).work;
            let seconds = median_seconds(9, || {
                std::hint::black_box(align_profiles_with(
                    std::hint::black_box(&pa),
                    &pb,
                    &matrix,
                    gaps,
                    dp,
                    &mut arena,
                ));
            });
            entries.push(Entry {
                case: "profile_8x8_L300",
                band: band_label,
                kernel: kernel_label,
                dp_cells: work.dp_cells,
                full_cells: work.dp_cells_full,
                seconds_median: seconds,
            });
        }
    }

    // CI gate: the striped kernel must not regress below 0.9× the scalar
    // kernel's throughput on any shape it ran.
    for e in &entries {
        println!(
            "{}_{}_{}: {} cells, {:.6}s median, {:.0} cells/s",
            e.case,
            e.band,
            e.kernel,
            e.dp_cells,
            e.seconds_median,
            e.cells_per_sec()
        );
    }
    for scalar in entries.iter().filter(|e| e.kernel == "scalar") {
        let striped = entries
            .iter()
            .find(|e| e.kernel == "striped" && e.case == scalar.case && e.band == scalar.band)
            .expect("every scalar shape has a striped twin");
        assert!(
            striped.cells_per_sec() >= 0.9 * scalar.cells_per_sec(),
            "striped kernel regressed on {}_{}: {:.0} cells/s vs scalar {:.0} cells/s",
            scalar.case,
            scalar.band,
            striped.cells_per_sec(),
            scalar.cells_per_sec()
        );
    }

    let path =
        BenchFile::new("dp_kernel", steal_at_start, entries.iter().map(Entry::json).collect())
            .write();
    println!("wrote {}", path.display());
}
