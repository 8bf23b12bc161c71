//! The traced run: the same input as the end-to-end run, executed
//! in-process with a span around every layer boundary, plus short replays
//! of each layer's public functions on a bucket-sized block of the input.
//! Per-layer numbers come from here and nowhere else.

use crate::e2e::{invoke, quality, setup_files, Env, FileSetup};
use crate::inputs::{Input, ServeMix};
use crate::metrics::{per_layer, phase_metric};
use crate::serve;
use crate::spans::{self_time, PhaseSpans, Span, Tracer};
use crate::stats::{median, percentile};
use crate::verify::body;
use crate::workloads::{Kind, Pipeline, Workload};
use align::dp::{gotoh_global_with, SubstScorer};
use align::{
    AnchorSpec, BandPolicy, DpArena, DpKernel, MsaEngine, MuscleLite, Profile, TrimConfig,
};
use bioseq::{fasta, GapPenalties, KmerProfile, Msa, RankTransform, Sequence, SubstMatrix, Work};
use sad_core::{Aligner, Phase, RunReport, SadConfig};
use sad_serve::Json;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seconds each layer replay runs for (at least one call).
const REPLAY_S: f64 = 0.08;
/// Largest block a replay works on, so the sequential workload (whose one
/// bucket is the whole input) does not replay its whole run.
const MAX_BLOCK: usize = 256;
/// Largest `n` for the whole-input UPGMA replay.
const MAX_UPGMA_N: usize = 2000;
/// `core.phases_sum_s` must come this close to `core.run_s`, or the traced
/// run says so.
const RECONCILE_TOLERANCE: f64 = 0.05;

/// What one traced pass measured.
#[derive(Debug, Default)]
pub struct LayerRun {
    /// Every per-layer metric by name; a layer the workload does not
    /// exercise reads 0.
    pub values: BTreeMap<String, f64>,
    /// The input size behind a replayed rate, by metric name.
    pub notes: BTreeMap<String, String>,
    pub attempted: u64,
    pub failed: u64,
}

impl LayerRun {
    fn new() -> LayerRun {
        let values = per_layer().into_iter().map(|l| (l.name, 0.0)).collect();
        LayerRun { values, ..LayerRun::default() }
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a listed per-layer metric"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    /// Set a replayed rate and say what input it was measured on.
    fn set_on(&mut self, name: &str, value: f64, input: String) {
        self.set(name, value);
        self.notes.insert(name.to_string(), input);
    }

    fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("FAILED: {what}");
    }
}

/// Sum of the seconds of `run`'s child spans called `name`.
fn child_seconds(spans: &[Span], run: usize, name: &str) -> f64 {
    spans.iter().filter(|s| s.parent == Some(run) && s.name == name).map(Span::seconds).sum()
}

/// Call `f` under a span named `metric` until `REPLAY_S` has passed;
/// returns `(calls, seconds)`.
fn replay(tracer: &Tracer, metric: &str, mut f: impl FnMut()) -> (f64, f64) {
    let window = Instant::now();
    let (mut calls, mut seconds) = (0.0, 0.0);
    while calls == 0.0 || window.elapsed() < Duration::from_secs_f64(REPLAY_S) {
        let id = tracer.open(metric, None);
        f();
        tracer.close(id);
        seconds += tracer.seconds(id);
        calls += 1.0;
    }
    (calls, seconds)
}

/// The in-process mirror of what `sad align`/`sad reads` does with a
/// file: parse, run the pipeline, serialise. `tracer` adds the spans.
fn pipeline_once(
    text: &str,
    cfg: &SadConfig,
    backend: &sad_core::Backend,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(RunReport, String, Option<usize>), String> {
    let parse = || fasta::Reader::new(text.as_bytes()).collect::<Result<Vec<Sequence>, _>>();
    let seqs = match tracer {
        Some(t) => t.scoped("bioseq.fasta_parse", None, parse),
        None => parse(),
    }
    .map_err(|e| format!("input does not parse: {e}"))?;
    cfg.validate_for(&seqs).map_err(|e| e.to_string())?;
    let mut aligner = Aligner::new(cfg.clone()).backend(backend.clone());
    let run_span = tracer.map(|t| t.open("core.run", None));
    if let (Some(t), Some(run)) = (tracer, run_span) {
        aligner = aligner.observer(Arc::new(PhaseSpans::new(Arc::clone(t), run)));
    }
    let report = aligner.run(&seqs);
    if let (Some(t), Some(run)) = (tracer, run_span) {
        t.close(run);
    }
    let report = report.map_err(|e| e.to_string())?;
    let write = || fasta::write_alignment(&report.msa);
    let out = match tracer {
        Some(t) => t.scoped("bioseq.fasta_write", None, write),
        None => write(),
    };
    Ok((report, out, run_span))
}

fn core_counters(run: &mut LayerRun, report: &RunReport) {
    run.set("core.work_units", report.work.total_units() as f64);
    run.set("core.dp_cells", report.work.dp_cells as f64);
    run.set("core.dp_cells_full", report.work.dp_cells_full as f64);
    run.set("core.buckets", report.bucket_sizes.len() as f64);
    run.set("core.max_bucket", report.bucket_sizes.iter().copied().max().unwrap_or(0) as f64);
    run.set("core.load_imbalance", report.load_imbalance());
    if let Some(v) = &report.vertical {
        run.set("core.vertical.blocks", v.blocks() as f64);
        run.set("core.vertical.seam_windows", v.seam_windows as f64);
    }
    if let (Some(makespan), Some(traces)) = (report.makespan(), report.traces()) {
        run.set("vcluster.virtual_makespan_s", makespan);
        run.set("vcluster.messages", traces.iter().map(|t| t.msgs_sent).sum::<u64>() as f64);
        run.set("vcluster.bytes", traces.iter().map(|t| t.bytes_sent).sum::<u64>() as f64);
        // The busiest rank of each kind: what the makespan waits for.
        run.set("vcluster.comm_virtual_s", traces.iter().map(|t| t.comm_s).fold(0.0, f64::max));
        run.set(
            "vcluster.compute_virtual_s",
            traces.iter().map(|t| t.compute_s).fold(0.0, f64::max),
        );
    }
}

/// Replay each layer's public functions on a block of `input` the size of
/// the run's median bucket.
fn replay_layers(
    run: &mut LayerRun,
    tracer: &Tracer,
    input: &Input,
    report: &RunReport,
    out_text: &str,
) {
    let cfg = SadConfig::default();
    let (k, alphabet) = (cfg.kmer_k, cfg.alphabet);
    let n = input.seqs.len();
    let mut sizes = report.bucket_sizes.clone();
    sizes.sort_unstable();
    let b = sizes[sizes.len() / 2].clamp(2, MAX_BLOCK).min(n);
    let block = &input.seqs[..b];
    let block_residues: usize = block.iter().map(Sequence::len).sum();
    let mean_len = block_residues / b;
    let sized = |what: &str| format!("{what}; block of {b} seqs, mean len {mean_len}");
    let mb = |bytes: usize| bytes as f64 / 1e6;

    // bioseq
    let (calls, s) = replay(tracer, "bioseq.fasta_parse.mb_per_s", || {
        std::hint::black_box(fasta::Reader::new(input.fasta.as_bytes()).count());
    });
    run.set_on(
        "bioseq.fasta_parse.mb_per_s",
        mb(input.fasta.len()) * calls / s,
        format!("input file, {} bytes", input.fasta.len()),
    );
    let (calls, s) = replay(tracer, "bioseq.fasta_write.mb_per_s", || {
        std::hint::black_box(fasta::write_alignment(&report.msa));
    });
    run.set_on(
        "bioseq.fasta_write.mb_per_s",
        mb(out_text.len()) * calls / s,
        format!("output alignment, {} bytes", out_text.len()),
    );

    let build = |s: &Sequence| KmerProfile::build(s, k, alphabet);
    let (calls, s) = replay(tracer, "bioseq.kmer_profile.seqs_per_s", || {
        std::hint::black_box(block.iter().filter_map(build).count());
    });
    run.set_on("bioseq.kmer_profile.seqs_per_s", b as f64 * calls / s, sized(&format!("k {k}")));

    let profiles: Vec<KmerProfile> = input.seqs.iter().filter_map(build).collect();
    let block_profiles = &profiles[..b.min(profiles.len())];
    let sample: Vec<KmerProfile> = profiles.iter().step_by((n / 64).max(1)).cloned().collect();
    let mut work = Work::ZERO;
    let (calls, s) = replay(tracer, "bioseq.kmer_rank.pairs_per_s", || {
        std::hint::black_box(bioseq::kmer::centralized_ranks(
            block_profiles,
            RankTransform::PaperLog,
            &mut work,
        ));
        std::hint::black_box(bioseq::kmer::globalized_ranks(
            block_profiles,
            &sample,
            RankTransform::PaperLog,
            &mut work,
        ));
    });
    let pairs = block_profiles.len() * (block_profiles.len() + sample.len());
    run.set_on(
        "bioseq.kmer_rank.pairs_per_s",
        pairs as f64 * calls / s,
        sized(&format!(
            "centralized ranks on the block plus globalized ranks against {} samples",
            sample.len()
        )),
    );

    // psrs: partition every sequence by its globalized rank, as step 6 does.
    let ranks =
        bioseq::kmer::globalized_ranks(&profiles, &sample, RankTransform::PaperLog, &mut work);
    let parts = report.ranks.max(2);
    let mut largest = 0usize;
    let (calls, s) = replay(tracer, "psrs.partition.items_per_s", || {
        let buckets =
            psrs::shared::sample_partition_by((0..ranks.len()).collect(), parts, |&i: &usize| {
                ranks[i]
            });
        largest = buckets.iter().map(Vec::len).max().unwrap_or(0);
    });
    run.set_on(
        "psrs.partition.items_per_s",
        ranks.len() as f64 * calls / s,
        format!("{} rank keys into {parts} parts", ranks.len()),
    );
    run.set("psrs.partition.imbalance", largest as f64 / (ranks.len() as f64 / parts as f64));

    // align + phylo
    let block_pairs = (b * (b - 1) / 2) as f64;
    let mut dist = None;
    let (calls, s) = replay(tracer, "align.kmer_distmat.pairs_per_s", || {
        dist = Some(align::distance::kmer_distance_matrix(block, k, alphabet, &mut work));
    });
    run.set_on(
        "align.kmer_distmat.pairs_per_s",
        block_pairs * calls / s,
        sized(&format!("{block_pairs} pairs")),
    );
    let dist = dist.expect("the replay ran at least once");
    let (calls, s) = replay(tracer, "phylo.upgma.pairs_per_s", || {
        std::hint::black_box(phylo::upgma(&dist));
    });
    run.set_on("phylo.upgma.pairs_per_s", block_pairs * calls / s, format!("n = {b}"));
    let whole = &input.seqs[..n.min(MAX_UPGMA_N)];
    let whole_dist = align::distance::kmer_distance_matrix(whole, k, alphabet, &mut work);
    let id = tracer.open("phylo.upgma.s", None);
    std::hint::black_box(phylo::upgma(&whole_dist));
    tracer.close(id);
    run.set_on("phylo.upgma.s", tracer.seconds(id), format!("one tree over n = {}", whole.len()));

    let engine = MuscleLite::fast();
    let mut block_msa = None;
    let (calls, s) = replay(tracer, "align.engine.bucket_s", || {
        block_msa = Some(engine.align_with_work(block).0);
    });
    run.set_on("align.engine.bucket_s", s / calls, sized("MuscleLite::fast"));
    run.set("align.engine.seqs_per_s", b as f64 * calls / s);
    let block_msa: Msa = block_msa.expect("the replay ran at least once");

    let (matrix, gaps) = (SubstMatrix::blosum62(), GapPenalties::default());
    let mut arena = DpArena::new();
    let (sa, sb) = (block[0].codes(), block[1].codes());
    let scorer = SubstScorer::new(sa, sb, &matrix, gaps);
    let mut cells = Work::ZERO;
    let (calls, s) = replay(tracer, "align.dp.pairwise.cells_per_s", || {
        cells = gotoh_global_with(&scorer, BandPolicy::Auto, DpKernel::Auto, &mut arena).work();
    });
    run.set("align.dp.band_ratio", cells.dp_cells as f64 / cells.dp_cells_full.max(1) as f64);
    run.set_on(
        "align.dp.pairwise.cells_per_s",
        cells.dp_cells as f64 * calls / s,
        format!(
            "{} x {} residues, band auto, kernel auto, {} of {} cells filled",
            sa.len(),
            sb.len(),
            cells.dp_cells,
            cells.dp_cells_full
        ),
    );

    let half = (b / 2).min(16);
    let sub = |rows: std::ops::Range<usize>| {
        let mut m =
            Msa::from_rows(block_msa.ids()[rows.clone()].to_vec(), block_msa.rows()[rows].to_vec());
        m.drop_all_gap_columns();
        m
    };
    let (ma, mb_) = (sub(0..half), sub(half..2 * half));
    let (pa, pb) = (Profile::from_msa(&ma, &mut work), Profile::from_msa(&mb_, &mut work));
    let (calls, s) = replay(tracer, "align.dp.profile.cells_per_s", || {
        cells = align::papro::align_profiles_with(
            &pa,
            &pb,
            &matrix,
            gaps,
            BandPolicy::Auto,
            &mut arena,
        )
        .work;
    });
    run.set_on(
        "align.dp.profile.cells_per_s",
        cells.dp_cells as f64 * calls / s,
        format!(
            "profiles of {half} x {half} rows, {} x {} columns, band auto, kernel auto",
            ma.num_cols(),
            mb_.num_cols()
        ),
    );

    let rows: Vec<&[u8]> = block.iter().map(Sequence::codes).collect();
    let (calls, s) = replay(tracer, "align.anchor_scan.residues_per_s", || {
        std::hint::black_box(align::anchor::scan_anchors(&rows, &AnchorSpec::default(), &mut work));
    });
    run.set_on(
        "align.anchor_scan.residues_per_s",
        block_residues as f64 * calls / s,
        sized("default AnchorSpec"),
    );

    let (calls, s) = replay(tracer, "align.trim.cells_per_s", || {
        std::hint::black_box(align::trim_msa(&block_msa, &TrimConfig::default()));
    });
    run.set_on(
        "align.trim.cells_per_s",
        (block_msa.num_rows() * block_msa.num_cols()) as f64 * calls / s,
        format!("{} rows x {} columns", block_msa.num_rows(), block_msa.num_cols()),
    );

    let id = tracer.open("qbench.pair_q.s", None);
    std::hint::black_box(quality(&input.truth, &report.msa));
    tracer.close(id);
    run.set("qbench.pair_q.s", tracer.seconds(id));
}

fn run_files(env: &Env, w: &Workload, seed: u64, seconds: f64) -> Result<LayerRun, String> {
    let mut run = LayerRun::new();
    let FileSetup { input, pipeline, dir, reference } = setup_files(env, w, seed, 0, "trace")?;

    // The spawned binary, for what the process adds around the pipeline.
    let cli: Vec<_> = (0..2).map(|_| invoke(env, &pipeline, &dir)).collect::<Result<_, _>>()?;
    run.attempted += cli.len() as u64;
    let cli_wall = median(&cli.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    run.set("cli.out_bytes", cli[0].out_bytes as f64);

    // Untraced and traced in-process runs, alternating.
    let (cfg, backend) = pipeline.build(input.seqs.len());
    let tracer = Arc::new(Tracer::new());
    let (mut plain_s, mut traced_s, mut traced_runs) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let window = Instant::now();
    while traced_runs.len() < 2 || window.elapsed() < Duration::from_secs_f64(seconds * 0.5) {
        let t = Instant::now();
        pipeline_once(&input.fasta, &cfg, &backend, None)?;
        plain_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let (report, out, span) = pipeline_once(&input.fasta, &cfg, &backend, Some(&tracer))?;
        traced_s.push(t.elapsed().as_secs_f64());
        traced_runs.push(span.expect("a traced run has a run span"));
        last = Some((report, out));
    }
    let (report, out) = last.expect("at least two traced runs");
    run.attempted += 1;
    if body(&out) != reference {
        run.fail("the in-process run and the sad binary disagree on the alignment");
    }
    run.set("trace.overhead_frac", (median(&traced_s) - median(&plain_s)) / median(&plain_s));

    // Phases: the median over traced runs of each phase's span seconds.
    let spans = tracer.spans();
    let over_runs =
        |f: &dyn Fn(usize) -> f64| median(&traced_runs.iter().map(|&r| f(r)).collect::<Vec<_>>());
    let mut phases_sum = 0.0;
    for phase in Phase::ALL {
        let s = over_runs(&|r| child_seconds(&spans, r, phase.name()));
        run.set(&phase_metric(phase), s);
        phases_sum += s;
    }
    let run_s = over_runs(&|r| spans[r].seconds());
    let unattributed = over_runs(&|r| self_time(&spans, r));
    run.set("core.run_s", run_s);
    run.set("core.phases_sum_s", phases_sum);
    run.set("core.unattributed_s", unattributed);
    if (run_s - phases_sum).abs() > RECONCILE_TOLERANCE * run_s {
        // Phases of the message-passing backend run from the first rank in
        // to the last rank out, so they can overlap and sum past the run.
        let overlap = (phases_sum - (run_s - unattributed)).max(0.0);
        eprintln!(
            "note: {}: phases sum to {phases_sum:.4} s of a {run_s:.4} s run: {unattributed:.4} s belongs to no phase (core.unattributed_s), {overlap:.4} s is phases overlapping",
            w.name
        );
    }
    let glue = run.values[&phase_metric(Phase::Glue)];
    if glue > 0.0 {
        run.set(
            "core.glue.cells_per_s",
            (report.msa.num_rows() * report.msa.num_cols()) as f64 / glue,
        );
    }
    run.set("cli.overhead_s", cli_wall - run_s);
    core_counters(&mut run, &report);

    if let Pipeline::Distributed { p } = pipeline {
        // The same algorithm without message passing, for what vcluster costs.
        let (cfg, rayon) = Pipeline::Rayon { threads: p }.build(input.seqs.len());
        let mut rayon_s = Vec::new();
        for _ in 0..2 {
            let t = tracer.open("vcluster.wall_over_rayon", None);
            Aligner::new(cfg.clone())
                .backend(rayon.clone())
                .run(&input.seqs)
                .map_err(|e| e.to_string())?;
            tracer.close(t);
            rayon_s.push(tracer.seconds(t));
        }
        run.set("vcluster.wall_over_rayon", run_s / median(&rayon_s));
    }

    replay_layers(&mut run, &tracer, &input, &report, &out);
    Ok(run)
}

fn p50(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(values, 50.0)
    }
}

fn run_serve(env: &Env, w: &Workload, seed: u64, seconds: f64) -> Result<LayerRun, String> {
    let Kind::Serve { small, large, jobs, clients, workers } = w.kind else {
        unreachable!("run_serve is given the serve workload");
    };
    let mut run = LayerRun::new();
    let mix = ServeMix::generate(&small, &large, jobs, clients, seed);
    let tracer = Tracer::new();

    // Sessions on fresh daemons, their client-side spans pooled.
    let (mut latency, mut queue_wait, mut run_ms, mut finish, mut hit_latency) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut results, mut hits, mut rejected) = (0u64, 0u64, 0u64);
    let mut biggest: Option<Json> = None;
    let mut dir = env.work.clone();
    let window = Instant::now();
    let mut sessions = 0;
    while sessions == 0 || window.elapsed() < Duration::from_secs_f64(seconds * 0.5) {
        sessions += 1;
        dir = env.fresh_dir(&format!("{}-trace", w.name)).map_err(|e| e.to_string())?;
        let daemon = serve::Daemon::start(env, &dir, workers)?;
        let session = tracer.scoped("serve.session", None, || serve::run_session(&daemon, &mix))?;
        daemon.stop()?;
        run.attempted += mix.jobs() as u64;
        for failure in serve::check_session(&session, &mix, &dir, false).failures {
            run.fail(&failure);
        }
        for outcome in &session.outcomes {
            latency.push(outcome.latency_ms);
            match &outcome.terminal {
                Ok(event) if event.get("event").and_then(Json::as_str) == Some("result") => {
                    results += 1;
                    if event.get("cached").and_then(Json::as_bool) == Some(true) {
                        hits += 1;
                        hit_latency.push(outcome.latency_ms);
                    }
                    // Server-side run seconds, as the result event states them.
                    let ran = event.get("seconds").and_then(Json::as_f64).unwrap_or(0.0) * 1e3;
                    if let (Some(wait), Some(rest)) =
                        (outcome.queue_wait_ms, outcome.started_to_result_ms)
                    {
                        queue_wait.push(wait);
                        run_ms.push(ran);
                        finish.push((rest - ran).max(0.0));
                    }
                    let size = |e: &Json| e.get("fasta").and_then(Json::as_str).map_or(0, str::len);
                    if biggest.as_ref().is_none_or(|b| size(event) > size(b)) {
                        biggest = Some(event.clone());
                    }
                }
                Err(e) if e.starts_with("rejected") => rejected += 1,
                _ => {}
            }
        }
    }
    run.set_on(
        "serve.latency_ms.p50",
        p50(&latency),
        format!("{} submissions over {sessions} sessions", latency.len()),
    );
    run.set(
        "serve.latency_ms.p90",
        if latency.is_empty() { 0.0 } else { percentile(&latency, 90.0) },
    );
    run.set("serve.queue_wait_ms.p50", p50(&queue_wait));
    run.set("serve.run_ms.p50", p50(&run_ms));
    run.set("serve.finish_ms.p50", p50(&finish));
    run.set("serve.cache_hit_ratio", hits as f64 / results.max(1) as f64);
    run.set("serve.cache_hit_latency_ms.p50", p50(&hit_latency));
    run.set("serve.completed", results as f64 / sessions as f64);
    run.set("serve.rejected", rejected as f64 / sessions as f64);

    // The journal the last session left: size, replay rate, restart time.
    let journal = serve::journal_path(&dir);
    let bytes = std::fs::metadata(&journal).map_err(|e| e.to_string())?.len();
    run.set("serve.journal.bytes", bytes as f64);
    let mut entries = 0;
    let (calls, s) = replay(&tracer, "serve.journal.replay_entries_per_s", || {
        entries = sad_serve::journal::replay(&journal).map_or(0, |r| r.entries.len());
    });
    run.set_on(
        "serve.journal.replay_entries_per_s",
        entries as f64 * calls / s,
        format!("{entries} entries, {bytes} bytes"),
    );
    let restarted =
        tracer.scoped("serve.restart_s", None, || serve::Daemon::start(env, &dir, workers))?;
    run.set("serve.restart_s", restarted.start_s);
    restarted.stop()?;

    // One fsynced append, on the file system the daemon journals to.
    let mut scratch =
        sad_serve::Journal::open(dir.join("append.jsonl")).map_err(|e| e.to_string())?;
    let entry = sad_serve::JournalEntry::Started { job: "job0000".into() };
    let (calls, s) = replay(&tracer, "serve.journal.append_us", || {
        scratch.append(&entry).expect("the scratch journal is writable");
    });
    run.set("serve.journal.append_us", s / calls * 1e6);

    // The wire format, on the largest result line of the run.
    if let Some(event) = biggest {
        let line = event.encode();
        let (calls, s) = replay(&tracer, "serve.json.encode_mb_per_s", || {
            std::hint::black_box(event.encode());
        });
        run.set("serve.json.encode_mb_per_s", line.len() as f64 / 1e6 * calls / s);
        let (calls, s) = replay(&tracer, "serve.json.parse_mb_per_s", || {
            std::hint::black_box(Json::parse(&line).is_ok());
        });
        run.set_on(
            "serve.json.parse_mb_per_s",
            line.len() as f64 / 1e6 * calls / s,
            format!("one result line of {} bytes", line.len()),
        );
    }
    Ok(run)
}

/// One traced pass of `w`.
pub fn run(env: &Env, w: &Workload, seed: u64, seconds: f64) -> Result<LayerRun, String> {
    match w.kind {
        Kind::Serve { .. } => run_serve(env, w, seed, seconds),
        _ => run_files(env, w, seed, seconds),
    }
}
