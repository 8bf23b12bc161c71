//! Quality and cost of the MaxAlign-style trim stage on gappy
//! alignments.
//!
//! Two workload shapes:
//!
//! * **fragments** — a clean rosegen family plus short fragment rows
//!   (residues only in a prefix window, gaps elsewhere), the shape
//!   read-merge seams produce. Trim must drop the fragments and the
//!   bench asserts the area **strictly** increases — the acceptance bar
//!   for the stage.
//! * **read_merge** — an actual Pyro-Align-style read alignment: reads
//!   simulated from a family, aligned on the rayon backend under the
//!   bucket cap, then trimmed. Here the bench only asserts the
//!   never-decrease invariant (whether fragments survive depends on the
//!   read mix).
//!
//! Prints each case's median trim wall time, and writes `BENCH_trim.json`
//! at the workspace root through `sad_bench::BenchFile` with only the
//! deterministic fields — rows, width, area before/after, rows dropped and
//! columns gained — the committed baseline future trim work has to beat.
//! One run's timings on a shared host do not repeat, so they are not
//! committed; the counts do, so CI diffs the file's entries against the
//! committed ones.

use align::trim::{alignment_area, trim_msa, TrimConfig};
use bioseq::alphabet::GAP_CODE;
use bioseq::Msa;
use rosegen::{Family, FamilyConfig, ReadSet, ReadSimConfig};
use sad_bench::{median_seconds, steal_ticks, BenchFile};
use sad_core::{Aligner, Backend, SadConfig};
use sad_serve::Json;

/// A clean (indel-free) family widened with `n_frags` fragment rows:
/// half carry residues only in the first quarter of the columns, half
/// only in the last quarter. Together they pin every column gapped, so
/// the starting area is tiny and trimming the fragments away is a
/// large, certain win — reachable greedily (each half is at most a pair,
/// which the pair-synergy lookahead sees).
fn fragment_fixture(n_full: usize, len: usize, n_frags: usize, seed: u64) -> Msa {
    let fam = Family::generate(&FamilyConfig {
        n_seqs: n_full,
        avg_len: len,
        relatedness: 200.0,
        indel_rate: 0.0,
        seed,
        ..Default::default()
    });
    let width = fam.reference.num_cols();
    let window = width / 4;
    let mut ids: Vec<String> = fam.reference.ids().to_vec();
    let mut rows: Vec<Vec<u8>> = fam.reference.rows().to_vec();
    for f in 0..n_frags {
        let mut row = rows[f % n_full].clone();
        let keep = if f < n_frags / 2 { 0..window } else { width - window..width };
        for (i, cell) in row.iter_mut().enumerate() {
            if !keep.contains(&i) {
                *cell = GAP_CODE;
            }
        }
        ids.push(format!("frag{f}"));
        rows.push(row);
    }
    Msa::from_rows(ids, rows)
}

/// A read-merge alignment: simulate reads from a family and align them
/// under the `sad reads` default cap on the rayon backend. The source is
/// short relative to the read length, so reads overlap heavily and
/// trimming the worst-placed reads can unlock columns.
fn read_merge_fixture(total_reads: usize, seed: u64) -> Msa {
    let fam = Family::generate(&FamilyConfig {
        n_seqs: 2,
        avg_len: 120,
        relatedness: 300.0,
        seed,
        ..Default::default()
    });
    let set = ReadSet::from_family(
        &fam,
        &ReadSimConfig { total_reads: Some(total_reads), seed, ..Default::default() },
    );
    Aligner::new(SadConfig::default().with_max_bucket(Some(128)))
        .backend(Backend::Rayon { threads: 4 })
        .run(&set.reads)
        .expect("valid read set")
        .msa
}

/// One measured (case, config) point.
struct Entry {
    case: String,
    mode: &'static str,
    rows: usize,
    width: usize,
    area_before: u64,
    area_after: u64,
    rows_dropped: usize,
    cols_gained: usize,
    seconds_median: f64,
}

impl Entry {
    fn json(&self) -> Json {
        Json::obj([
            ("case", Json::str(&self.case)),
            ("mode", Json::str(self.mode)),
            ("rows", Json::Num(self.rows as f64)),
            ("width", Json::Num(self.width as f64)),
            ("area_before", Json::Num(self.area_before as f64)),
            ("area_after", Json::Num(self.area_after as f64)),
            ("rows_dropped", Json::Num(self.rows_dropped as f64)),
            ("cols_gained", Json::Num(self.cols_gained as f64)),
        ])
    }
}

fn measure(case: &str, mode: &'static str, msa: &Msa, cfg: &TrimConfig) -> Entry {
    let outcome = trim_msa(msa, cfg);
    // The stage's core invariant, on every measured point.
    assert!(
        outcome.area_after >= outcome.area_before,
        "{case}/{mode}: trim decreased the area: {} -> {}",
        outcome.area_before,
        outcome.area_after
    );
    let (recount, _) = alignment_area(&outcome.msa);
    assert_eq!(recount, outcome.area_after, "{case}/{mode}: reported area disagrees with output");
    let seconds = median_seconds(5, || {
        std::hint::black_box(trim_msa(std::hint::black_box(msa), cfg));
    });
    Entry {
        case: case.to_string(),
        mode,
        rows: msa.num_rows(),
        width: msa.num_cols(),
        area_before: outcome.area_before,
        area_after: outcome.area_after,
        rows_dropped: outcome.rows_dropped(),
        cols_gained: outcome.cols_gained(),
        seconds_median: seconds,
    }
}

fn main() {
    let steal_at_start = steal_ticks();
    let mut entries: Vec<Entry> = Vec::new();

    // Fragment fixtures: the guaranteed-gain shape, greedy and
    // branch-and-bound.
    for (n_full, len, n_frags, seed) in [(8usize, 200usize, 2usize, 0x71u64), (16, 400, 4, 0x72)] {
        let msa = fragment_fixture(n_full, len, n_frags, seed);
        let case = format!("fragments_{}x{}+{}", n_full, len, n_frags);
        let greedy = measure(&case, "greedy", &msa, &TrimConfig::default());
        assert!(
            greedy.area_after > greedy.area_before,
            "{case}: trim must strictly grow the area on the fragment fixture: {} -> {}",
            greedy.area_before,
            greedy.area_after
        );
        assert!(
            greedy.rows_dropped >= n_frags,
            "{case}: expected at least the {n_frags} fragments dropped, got {}",
            greedy.rows_dropped
        );
        let bb = measure(
            &case,
            "branch_bound",
            &msa,
            &TrimConfig { branch_bound: true, ..Default::default() },
        );
        assert!(
            bb.area_after >= greedy.area_after,
            "{case}: branch-and-bound must never lose to greedy: {} vs {}",
            bb.area_after,
            greedy.area_after
        );
        entries.push(greedy);
        entries.push(bb);
    }

    // Read-merge fixtures: realistic gap structure from the large-N
    // pipeline.
    for (reads, seed) in [(200usize, 0x73u64), (600, 0x74)] {
        let msa = read_merge_fixture(reads, seed);
        let case = format!("read_merge_{reads}");
        entries.push(measure(&case, "greedy", &msa, &TrimConfig::default()));
    }

    for e in &entries {
        println!(
            "{}_{}: {} rows x {} cols, area {} -> {} ({} dropped, +{} cols), {:.6}s median",
            e.case,
            e.mode,
            e.rows,
            e.width,
            e.area_before,
            e.area_after,
            e.rows_dropped,
            e.cols_gained,
            e.seconds_median
        );
    }

    let path =
        BenchFile::new("trim", steal_at_start, entries.iter().map(Entry::json).collect()).write();
    println!("wrote {}", path.display());
}
