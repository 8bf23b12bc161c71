//! Subcommand implementations.

use crate::args::{
    AlignArgs, Backend, BatchArgs, GenerateArgs, PipelineFlags, ReadsArgs, ServeArgs, SubmitArgs,
    TrimArgs,
};
use bioseq::{fasta, Sequence};
use qbench::mean_read_pair_q;
use rosegen::{Family, FamilyConfig, ReadSet, ReadSimConfig};
use sad_core::{
    Aligner, Backend as SadBackend, BatchJob, RunReport, SadConfig, TrimConfig, TrimReport,
};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use vcluster::{CostModel, VirtualCluster};

type Out<'a> = &'a mut dyn Write;

/// Stream a FASTA file into memory record by record: peak ingestion
/// memory is one record plus the collected sequences, never a second
/// whole-file text copy. Parse problems (including non-UTF-8 bytes) are
/// "bad FASTA", I/O problems are "cannot read".
fn read_fasta(path: impl AsRef<Path>) -> Result<Vec<Sequence>, String> {
    let path = path.as_ref();
    let reader = fasta::open(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut seqs = Vec::new();
    for record in reader {
        match record {
            Ok(seq) => seqs.push(seq),
            Err(e) if matches!(e, fasta::ReadError::Parse(_)) || e.is_not_utf8() => {
                return Err(format!("bad FASTA in {}: {e}", path.display()));
            }
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        }
    }
    if seqs.is_empty() {
        return Err(format!("{} contains no sequences", path.display()));
    }
    Ok(seqs)
}

/// `sad align`
pub fn align(a: AlignArgs, out: Out) -> Result<(), String> {
    let seqs = read_fasta(&a.input)?;
    if a.vertical {
        eprintln!("note: --vertical is retired; aligning whole-length");
    }
    let report = build_aligner(a.config(), &a, a.parallelism(), a.progress)
        .run(&seqs)
        .map_err(|e| e.to_string())?;
    write_report_comments(&report, seqs.len(), out);
    write!(out, "{}", fasta::write_alignment(&report.msa)).map_err(|e| e.to_string())
}

impl PipelineFlags {
    /// The pipeline configuration these flags select — the one place CLI
    /// flags become a [`SadConfig`]. Commands add only what is theirs
    /// (`--max-bucket`).
    pub(crate) fn config(&self) -> SadConfig {
        let mut cfg = SadConfig::default()
            .with_engine(self.engine)
            .with_fine_tune(!self.no_fine_tune)
            .with_band_policy(self.band)
            .with_dp_kernel(self.kernel);
        if let Some(k) = self.kmer {
            cfg = cfg.with_kmer_k(k);
        }
        if self.trim {
            cfg = cfg.with_trim(TrimConfig::default());
        }
        cfg
    }

    /// The backend `--backend` names, `width` ranks wide (the sequential
    /// baseline has no width).
    pub(crate) fn sad_backend(&self, width: usize) -> SadBackend {
        match self.backend {
            Backend::Sequential => SadBackend::Sequential,
            Backend::Rayon => SadBackend::Rayon { threads: width },
            Backend::Distributed => {
                SadBackend::Distributed(VirtualCluster::new(width, CostModel::beowulf_2008()))
            }
        }
    }
}

/// The aligner a pipeline-running command drives: `cfg` on the backend
/// its flags name, `width` ranks wide, with the live phase display
/// attached on `--progress` (on stderr, so stdout stays parseable).
fn build_aligner(cfg: SadConfig, flags: &PipelineFlags, width: usize, progress: bool) -> Aligner {
    let aligner = Aligner::new(cfg).backend(flags.sad_backend(width));
    if progress {
        aligner.observer(Arc::new(crate::progress::ProgressObserver::stderr()))
    } else {
        aligner
    }
}

/// The unified run summary, written as FASTA `;` comment lines so the
/// stream stays parseable whatever the backend.
fn write_report_comments(report: &RunReport, n_seqs: usize, out: Out) {
    let mut head = format!(
        "; backend {}: {} sequences over {} ranks, load imbalance {:.2}",
        report.backend_name(),
        n_seqs,
        report.ranks,
        report.load_imbalance()
    );
    if let Some(makespan) = report.makespan() {
        head.push_str(&format!(", {makespan:.3} virtual s"));
    }
    writeln!(out, "{head}").ok();
    for line in report.phase_table().lines() {
        writeln!(out, "; {line}").ok();
    }
}

/// `sad reads` — the Pyro-Align-style large-N read mode: align a file of
/// short reads (streamed) or a simulated read set, with buckets over
/// `--max-bucket` recursively decomposed. Prints a
/// run summary (bucket census, decomposition depth, phase table, and —
/// for simulated input — the mean pair-Q against the known truth) and
/// optionally writes the gapped FASTA to `--out`.
pub fn reads(r: ReadsArgs, out: Out) -> Result<(), String> {
    // 1. Ingest: stream a read file, or simulate a read set whose truth
    //    enables quality gating.
    let (seqs, truth) = match &r.input {
        Some(path) => (read_fasta(path)?, None),
        None => {
            let fam = Family::generate(&FamilyConfig {
                n_seqs: r.sources,
                avg_len: r.source_len,
                relatedness: 800.0,
                seed: r.seed,
                ..Default::default()
            });
            let set = ReadSet::from_family(
                &fam,
                &ReadSimConfig {
                    coverage: r.coverage,
                    total_reads: r.reads,
                    read_len: r.read_len,
                    error_rate: r.error_rate,
                    seed: r.seed,
                    ..Default::default()
                },
            );
            (set.reads.clone(), Some(set))
        }
    };
    let n = seqs.len();

    // 2. Configure.
    let cfg = r.config().with_max_bucket(r.max_bucket);

    // 3. Width: with a cap, widen the first pass to ~cap-sized blocks so
    //    the O(w²) local rank never sees a giant block it would only
    //    decompose later anyway.
    let width = r.max_bucket.map_or(r.parallelism(), |cap| r.parallelism().max(n.div_ceil(cap)));
    let report = build_aligner(cfg, &r, width, r.progress).run(&seqs).map_err(|e| e.to_string())?;

    // 4. Summary. Stdout is the report; the alignment itself only lands
    //    on disk via --out (50k reads of FASTA do not belong in a pipe).
    let mean_len = seqs.iter().map(Sequence::len).sum::<usize>() as f64 / n as f64;
    match &r.input {
        Some(path) => writeln!(out, "source            {path}").ok(),
        None => {
            writeln!(out, "source            simulated ({} sources, seed {})", r.sources, r.seed)
                .ok()
        }
    };
    writeln!(out, "reads             {n}").ok();
    writeln!(out, "mean read length  {mean_len:.1}").ok();
    writeln!(out, "backend           {} ({} ranks)", report.backend_name(), report.ranks).ok();
    let largest = report.bucket_sizes.iter().max().copied().unwrap_or(0);
    writeln!(out, "buckets           {} (largest {largest})", report.bucket_sizes.len()).ok();
    // Sequential has no buckets to split and ignores the cap, so only the
    // decomposed backends report on it.
    if let Some(cap) = r.max_bucket.filter(|_| r.backend != Backend::Sequential) {
        writeln!(
            out,
            "bucket cap        {cap} ({})",
            if largest <= cap { "respected" } else { "EXCEEDED" }
        )
        .ok();
        writeln!(out, "decomposition     depth {}", report.decomposition_depth).ok();
    }
    writeln!(
        out,
        "alignment         {} rows, {} cols",
        report.msa.num_rows(),
        report.msa.num_cols()
    )
    .ok();
    let gate_failure =
        truth.as_ref().and_then(|set| match mean_read_pair_q(set, &report.msa, 500) {
            Some(q) => {
                let verdict = match r.min_q {
                    Some(min) if q < min => " FAIL",
                    Some(_) => " pass",
                    None => "",
                };
                let gate = r.min_q.map(|min| format!(" (gate {min}{verdict})")).unwrap_or_default();
                writeln!(out, "mean pair Q       {q:.3}{gate}").ok();
                r.min_q
                    .filter(|&min| q < min)
                    .map(|min| format!("mean pair Q {q:.3} below the --min-q gate {min}"))
            }
            None => {
                writeln!(out, "mean pair Q       n/a (no overlapping pairs)").ok();
                r.min_q.map(|_| "no overlapping pairs to score against --min-q".to_string())
            }
        });
    // `;`-prefixed like `sad align`'s report, so dropping comment lines
    // leaves no wall-clock reading behind.
    for line in report.phase_table().lines() {
        writeln!(out, "; {line}").ok();
    }
    if let Some(path) = &r.out {
        std::fs::write(path, fasta::write_alignment(&report.msa))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(out, "wrote {path}").ok();
    }
    match gate_failure {
        Some(err) => Err(err),
        None => Ok(()),
    }
}

/// `sad trim` — MaxAlign-style alignment-area optimization over an
/// already-aligned FASTA file: drop the sequences whose exclusion grows
/// `retained rows × gap-free columns`, remove the freed all-gap columns,
/// and write the trimmed alignment (stdout, or `--out`). The trim census
/// and the dropped ids ride along as FASTA `;` comments, so stdout stays
/// parseable either way.
pub fn trim(t: TrimArgs, out: Out) -> Result<(), String> {
    let text =
        std::fs::read_to_string(&t.input).map_err(|e| format!("cannot read {}: {e}", t.input))?;
    let msa =
        fasta::parse_alignment(&text).map_err(|e| format!("bad alignment in {}: {e}", t.input))?;
    let cfg = TrimConfig { max_dropped: t.max_dropped, branch_bound: t.branch_bound };
    let outcome = align::trim_msa(&msa, &cfg);
    writeln!(out, "; {}", TrimReport::from(&outcome)).ok();
    for d in &outcome.dropped {
        writeln!(out, "; dropped {} (area {:+})", d.id, d.area_gain).ok();
    }
    let fasta_text = fasta::write_alignment(&outcome.msa);
    match &t.out {
        Some(path) => {
            std::fs::write(path, fasta_text).map_err(|e| format!("cannot write {path}: {e}"))?;
            writeln!(out, "wrote {path}").ok();
            Ok(())
        }
        None => write!(out, "{fasta_text}").map_err(|e| e.to_string()),
    }
}

/// Collect the batch's input files: every `.fa`/`.fasta` in a directory
/// (sorted by name), or the paths listed in a manifest file (one per
/// line, `#` comments and blanks skipped, relative paths resolved against
/// the manifest's directory).
fn batch_inputs(input: &str) -> Result<Vec<PathBuf>, String> {
    let path = Path::new(input);
    let mut files = Vec::new();
    if path.is_dir() {
        let entries =
            std::fs::read_dir(path).map_err(|e| format!("cannot read directory {input}: {e}"))?;
        for entry in entries {
            let p = entry.map_err(|e| format!("cannot read directory {input}: {e}"))?.path();
            let is_fasta = p
                .extension()
                .and_then(|e| e.to_str())
                .is_some_and(|e| e.eq_ignore_ascii_case("fa") || e.eq_ignore_ascii_case("fasta"));
            if p.is_file() && is_fasta {
                files.push(p);
            }
        }
        files.sort();
    } else {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read manifest {input}: {e}"))?;
        let base = path.parent().unwrap_or_else(|| Path::new("."));
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let p = Path::new(line);
            files.push(if p.is_absolute() { p.to_path_buf() } else { base.join(p) });
        }
    }
    if files.is_empty() {
        return Err(format!("{input} yields no FASTA inputs"));
    }
    Ok(files)
}

/// Job ids are file stems; duplicate or colliding stems (a manifest
/// pulling `a/fam.fa` and `b/fam.fa`, or a literal `fam-2.fa` next to
/// them) probe for the first free `<stem>-N` so output files never
/// clobber each other.
fn job_ids(files: &[PathBuf]) -> Vec<String> {
    let mut used = std::collections::HashSet::new();
    files
        .iter()
        .map(|p| {
            let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("job");
            sad_core::batch::unique_id(&mut used, stem)
        })
        .collect()
}

/// `sad batch`: align every family in a directory or manifest, write one
/// aligned FASTA per successful job into `--out`, and print the batch
/// summary table. Per-job failures — a one-sequence family, an
/// unreadable or malformed FASTA file — are reported per job and the
/// command exits with an error naming the failure count, without
/// aborting the other jobs.
pub fn batch(b: BatchArgs, out: Out) -> Result<(), String> {
    let files = batch_inputs(&b.input)?;
    let ids = job_ids(&files);
    // Validate the output directory before aligning anything, so a bad
    // `--out` fails in milliseconds instead of after the whole batch.
    std::fs::create_dir_all(&b.out_dir)
        .map_err(|e| format!("cannot create output directory {}: {e}", b.out_dir))?;
    // Unreadable inputs are skipped (reported after the table), never
    // fatal: one corrupt file must not abort its neighbours.
    let mut jobs = Vec::with_capacity(files.len());
    let mut skipped: Vec<(String, String)> = Vec::new();
    for (path, id) in files.iter().zip(&ids) {
        match read_fasta(path) {
            Ok(seqs) => jobs.push(BatchJob::new(id.clone(), seqs)),
            Err(err) => skipped.push((id.clone(), err)),
        }
    }
    let aligner = build_aligner(b.config(), &b, b.parallelism(), b.progress);
    let report = match b.jobs {
        Some(workers) => aligner.run_batch_with(&jobs, workers),
        None => aligner.run_batch(&jobs),
    };
    for job in &report.jobs {
        if let Ok(run) = &job.outcome {
            let path = Path::new(&b.out_dir).join(format!("{}.aligned.fa", job.id));
            std::fs::write(&path, fasta::write_alignment(&run.msa))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    }
    write!(out, "{}", report.summary_table()).map_err(|e| e.to_string())?;
    for (id, err) in &skipped {
        writeln!(out, "skipped {id}: {err}").map_err(|e| e.to_string())?;
    }
    let failed = report.failed() + skipped.len();
    if failed > 0 {
        return Err(format!("{failed} of {} jobs failed", files.len()));
    }
    Ok(())
}

/// `sad generate`
pub fn generate(g: GenerateArgs, out: Out) -> Result<(), String> {
    let fam = Family::generate(&FamilyConfig {
        n_seqs: g.n,
        avg_len: g.len,
        relatedness: g.relatedness,
        seed: g.seed,
        ..Default::default()
    });
    if let Some(path) = &g.reference {
        std::fs::write(path, fasta::write_alignment(&fam.reference))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    write!(out, "{}", fasta::write(&fam.seqs)).map_err(|e| e.to_string())
}

/// `sad serve` — run the alignment daemon until SIGTERM/SIGINT or a
/// client `SHUTDOWN`, then drain and exit.
pub fn serve(s: ServeArgs, out: Out) -> Result<(), String> {
    use sad_serve::{ServeConfig, Server};
    let cfg = s.config();
    cfg.validate().map_err(|e| e.to_string())?;
    let workers = s.workers.unwrap_or_else(bioseq::pool::cores);
    let serve_cfg = ServeConfig {
        host: s.host.clone(),
        port: s.port,
        journal: PathBuf::from(&s.journal),
        out_dir: PathBuf::from(&s.out_dir),
        workers,
        queue_capacity: s.queue,
        backend: s.sad_backend(s.parallelism()),
        sad: cfg,
        cache_budget_bytes: s.cache_mb.saturating_mul(1024 * 1024),
        paused: false,
        log: true,
        hold: None,
    };
    sad_serve::signal::install_shutdown_handler();
    let handle = Server::start(serve_cfg).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "sad-serve listening on {} ({} workers, journal {})",
        handle.addr(),
        workers,
        s.journal
    )
    .ok();
    let recovery = &handle.recovery;
    if !recovery.requeued.is_empty() || !recovery.skipped.is_empty() || !recovery.reran.is_empty() {
        writeln!(
            out,
            "recovered journal: {} re-queued, {} verified-finished (skipped), {} re-run",
            recovery.requeued.len(),
            recovery.skipped.len(),
            recovery.reran.len()
        )
        .ok();
    }
    out.flush().ok();
    while !sad_serve::signal::shutdown_requested() && !handle.is_draining() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let stats = handle.shutdown();
    writeln!(
        out,
        "stopped: {} accepted, {} completed ({} cached), {} cancelled, {} failed",
        stats.accepted, stats.completed, stats.cache_hits, stats.cancelled, stats.failed
    )
    .ok();
    Ok(())
}

/// `sad submit` — send FASTA files (and/or a cancel or shutdown request)
/// to a running `sad serve` and stream back results.
pub fn submit(s: SubmitArgs, out: Out) -> Result<(), String> {
    use sad_serve::{Client, Submitted};
    use std::net::ToSocketAddrs;
    use std::time::Duration;
    let addr = format!("{}:{}", s.host, s.port)
        .to_socket_addrs()
        .map_err(|e| format!("bad server address {}:{}: {e}", s.host, s.port))?
        .next()
        .ok_or_else(|| format!("bad server address {}:{}", s.host, s.port))?;
    let mut client = Client::connect_with_retry(addr, Duration::from_secs(5))
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    if let Some(dir) = &s.out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create output directory {dir}: {e}"))?;
    }

    let mut failures = 0usize;
    let mut accepted: Vec<String> = Vec::new();
    for file in &s.files {
        let path = Path::new(file);
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("job");
        match client.submit(Some(stem), s.priority, &text).map_err(|e| e.to_string())? {
            Submitted::Accepted { job } => {
                writeln!(out, "accepted {} as job {job}", path.display()).ok();
                accepted.push(job);
            }
            Submitted::Rejected { reason } => {
                writeln!(out, "rejected {}: {reason}", path.display()).ok();
                failures += 1;
            }
        }
    }
    for job in &accepted {
        let terminal =
            client.wait_terminal(job, Duration::from_secs(600)).map_err(|e| e.to_string())?;
        match terminal.get("event").and_then(sad_serve::Json::as_str) {
            Some("result") => {
                let rows = terminal.get("rows").and_then(sad_serve::Json::as_u64).unwrap_or(0);
                let digest =
                    terminal.get("digest").and_then(sad_serve::Json::as_str).unwrap_or("?");
                let cached =
                    terminal.get("cached").and_then(sad_serve::Json::as_bool).unwrap_or(false);
                writeln!(
                    out,
                    "job {job}: {rows} rows, digest {digest}{}",
                    if cached { " (cached)" } else { "" }
                )
                .ok();
                if let Some(dir) = &s.out_dir {
                    if let Some(fasta_text) =
                        terminal.get("fasta").and_then(sad_serve::Json::as_str)
                    {
                        let path = Path::new(dir).join(format!("{job}.aligned.fa"));
                        std::fs::write(&path, fasta_text)
                            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                    }
                }
            }
            Some("cancelled") => {
                let detail = terminal.get("detail").and_then(sad_serve::Json::as_str).unwrap_or("");
                writeln!(out, "job {job}: cancelled ({detail})").ok();
                failures += 1;
            }
            _ => {
                let msg =
                    terminal.get("message").and_then(sad_serve::Json::as_str).unwrap_or("error");
                writeln!(out, "job {job}: error: {msg}").ok();
                failures += 1;
            }
        }
    }
    if let Some(id) = &s.cancel {
        client.cancel(id).map_err(|e| e.to_string())?;
        match client.wait_event(Duration::from_secs(10), |e| {
            e.get("job").and_then(sad_serve::Json::as_str) == Some(id.as_str())
        }) {
            Ok(event) => {
                let kind = event.get("event").and_then(sad_serve::Json::as_str).unwrap_or("?");
                writeln!(out, "cancel {id}: {kind}").ok();
            }
            Err(e) => {
                writeln!(out, "cancel {id}: no acknowledgement ({e})").ok();
                failures += 1;
            }
        }
    }
    if s.shutdown {
        client.shutdown().map_err(|e| e.to_string())?;
        // `bye` confirms the drain request landed; a disconnect counts too.
        match client.wait_event(Duration::from_secs(5), |e| {
            e.get("event").and_then(sad_serve::Json::as_str) == Some("bye")
        }) {
            Ok(_) => writeln!(out, "server draining").ok(),
            Err(_) => writeln!(out, "server closed").ok(),
        };
    }
    if failures > 0 {
        return Err(format!("{failures} request(s) failed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sad-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run_str(argv: &[&str]) -> String {
        let args = parse(argv.iter().copied()).unwrap();
        let mut buf = Vec::new();
        crate::run(args, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn generate_then_align_roundtrip() {
        let dir = tmpdir();
        let input = dir.join("family.fa");
        let fasta_text = run_str(&["generate", "--n", "12", "--len", "50", "--seed", "3"]);
        std::fs::write(&input, &fasta_text).unwrap();
        let out = run_str(&["align", input.to_str().unwrap(), "--p", "3"]);
        assert!(out.contains("backend distributed"));
        assert!(out.contains("virtual s"));
        // Output body parses as an alignment with all 12 rows.
        let body: String =
            out.lines().filter(|l| !l.starts_with(';')).collect::<Vec<_>>().join("\n");
        let msa = fasta::parse_alignment(&body).unwrap();
        assert_eq!(msa.num_rows(), 12);
    }

    #[test]
    fn short_sequences_need_and_accept_a_kmer_override() {
        let dir = tmpdir();
        let input = dir.join("short.fa");
        std::fs::write(&input, ">a\nMKVL\n>b\nMKIL\n>c\nMKVI\n").unwrap();
        let path = input.to_str().unwrap();
        // Default k = 6 exceeds the 4-residue sequences: typed error.
        let args = parse(["align", path]).unwrap();
        let mut buf = Vec::new();
        let err = crate::run(args, &mut buf).unwrap_err();
        assert!(err.contains("kmer_k"), "{err}");
        // Lowering k via --kmer aligns the file.
        let out = run_str(&["align", path, "--kmer", "2", "--p", "2"]);
        let body: String =
            out.lines().filter(|l| !l.starts_with(';')).collect::<Vec<_>>().join("\n");
        assert_eq!(fasta::parse_alignment(&body).unwrap().num_rows(), 3);
    }

    #[test]
    fn every_backend_prints_the_unified_phase_table() {
        let dir = tmpdir();
        let input = dir.join("backends.fa");
        std::fs::write(&input, run_str(&["generate", "--n", "8", "--len", "40"])).unwrap();
        let path = input.to_str().unwrap();
        for (backend, width_flag) in
            [("sequential", None), ("rayon", Some("--threads")), ("distributed", Some("--nodes"))]
        {
            let mut argv = vec!["align", path, "--backend", backend];
            if let Some(flag) = width_flag {
                argv.extend(["--p", "8", flag, "2"]);
            }
            let out = run_str(&argv);
            assert!(out.contains(&format!("backend {backend}")), "{backend}:\n{out}");
            assert!(out.contains("; phase"), "{backend} lost the phase table:\n{out}");
            assert!(out.contains("8-local-align"), "{backend} phase rows:\n{out}");
            let body: String =
                out.lines().filter(|l| !l.starts_with(';')).collect::<Vec<_>>().join("\n");
            assert_eq!(fasta::parse_alignment(&body).unwrap().num_rows(), 8, "{backend}");
        }
    }

    #[test]
    fn progress_goes_to_stderr_not_stdout() {
        let dir = tmpdir();
        let input = dir.join("progress.fa");
        std::fs::write(&input, run_str(&["generate", "--n", "8", "--len", "40"])).unwrap();
        // The observer writes to stderr, so the captured stdout stream must
        // stay byte-identical to a run without --progress.
        let plain = run_str(&["align", input.to_str().unwrap(), "--p", "2"]);
        let with_progress = run_str(&["align", input.to_str().unwrap(), "--p", "2", "--progress"]);
        let strip_wall = |out: &str| {
            // Wall-clock columns differ between runs; compare everything else.
            out.lines().filter(|l| !l.starts_with(';')).collect::<Vec<_>>().join("\n")
        };
        assert_eq!(strip_wall(&plain), strip_wall(&with_progress));
        assert!(fasta::parse_alignment(&strip_wall(&with_progress)).is_ok());
    }

    #[test]
    fn band_flag_flows_into_the_run() {
        let dir = tmpdir();
        let input = dir.join("band.fa");
        std::fs::write(&input, run_str(&["generate", "--n", "8", "--len", "60", "--seed", "7"]))
            .unwrap();
        let path = input.to_str().unwrap();
        // Both policies align the file, and agree on the rows.
        let full = run_str(&["align", path, "--p", "2", "--band", "full"]);
        let auto = run_str(&["align", path, "--p", "2", "--band", "auto"]);
        let body =
            |out: &str| out.lines().filter(|l| !l.starts_with(';')).collect::<Vec<_>>().join("\n");
        assert_eq!(body(&full), body(&auto), "adaptive banding must match full DP");
        assert_eq!(fasta::parse_alignment(&body(&auto)).unwrap().num_rows(), 8);
        // The report surfaces the banded/full cell counts.
        assert!(auto.contains("dp cells (band/full)"), "{auto}");
    }

    #[test]
    fn kernel_flag_flows_into_the_run() {
        let dir = tmpdir();
        let input = dir.join("kernel.fa");
        std::fs::write(&input, run_str(&["generate", "--n", "8", "--len", "60", "--seed", "11"]))
            .unwrap();
        let path = input.to_str().unwrap();
        // Both kernels align the file identically (the default engine's
        // uniform-weight profiles run the striped fill under auto); only
        // the report label differs.
        let scalar = run_str(&["align", path, "--p", "2", "--kernel", "scalar"]);
        let auto = run_str(&["align", path, "--p", "2", "--kernel", "auto"]);
        let body =
            |out: &str| out.lines().filter(|l| !l.starts_with(';')).collect::<Vec<_>>().join("\n");
        assert_eq!(body(&scalar), body(&auto), "the auto kernel must match scalar");
        assert!(scalar.contains("dp kernel: scalar"), "{scalar}");
        assert!(auto.contains("dp kernel: auto"), "{auto}");
    }

    #[test]
    fn batch_directory_aligns_every_family() {
        let dir = tmpdir().join("batch-dir");
        let out_dir = dir.join("aligned");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, seed) in [("fam_a", 1u64), ("fam_b", 2), ("fam_c", 3)] {
            let text =
                run_str(&["generate", "--n", "8", "--len", "40", "--seed", &seed.to_string()]);
            std::fs::write(dir.join(format!("{name}.fa")), text).unwrap();
        }
        // A non-FASTA file in the directory is ignored.
        std::fs::write(dir.join("notes.txt"), "not fasta").unwrap();
        let out = run_str(&[
            "batch",
            dir.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
            "--jobs",
            "2",
        ]);
        assert!(out.contains("fam_a"), "{out}");
        assert!(out.contains("3 ok, 0 failed"), "{out}");
        assert!(out.contains("jobs/s"), "{out}");
        for name in ["fam_a", "fam_b", "fam_c"] {
            let written = std::fs::read_to_string(out_dir.join(format!("{name}.aligned.fa")))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(fasta::parse_alignment(&written).unwrap().num_rows(), 8, "{name}");
        }
        // Batch output matches the single-job command byte for byte.
        let single =
            run_str(&["align", dir.join("fam_a.fa").to_str().unwrap(), "--backend", "sequential"]);
        let body: String =
            single.lines().filter(|l| !l.starts_with(';')).collect::<Vec<_>>().join("\n");
        let batched = std::fs::read_to_string(out_dir.join("fam_a.aligned.fa")).unwrap();
        assert_eq!(batched.trim_end(), body.trim_end());
    }

    #[test]
    fn batch_manifest_reports_per_job_failures_without_aborting() {
        let dir = tmpdir().join("batch-manifest");
        std::fs::create_dir_all(&dir).unwrap();
        let good = run_str(&["generate", "--n", "6", "--len", "40", "--seed", "4"]);
        std::fs::write(dir.join("good.fa"), good).unwrap();
        std::fs::write(dir.join("solo.fa"), ">only\nMKVLAWGKVLMKVLAWGKVL\n").unwrap();
        std::fs::write(dir.join("jobs.manifest"), "# one path per line\ngood.fa\n\nsolo.fa\n")
            .unwrap();
        let args = parse([
            "batch",
            dir.join("jobs.manifest").to_str().unwrap(),
            "--out",
            dir.join("out").to_str().unwrap(),
        ])
        .unwrap();
        let mut buf = Vec::new();
        let err = crate::run(args, &mut buf).unwrap_err();
        assert_eq!(err, "1 of 2 jobs failed");
        let table = String::from_utf8(buf).unwrap();
        assert!(table.contains("1 ok, 1 failed"), "{table}");
        assert!(table.contains("error: need at least 2 sequences"), "{table}");
        // The good job still wrote its alignment; the failed one did not.
        assert!(dir.join("out/good.aligned.fa").exists());
        assert!(!dir.join("out/solo.aligned.fa").exists());
    }

    #[test]
    fn job_ids_never_collide() {
        let files: Vec<std::path::PathBuf> =
            ["a/fam.fa", "b/fam.fa", "c/fam-2.fa", "d/fam.fa"].iter().map(Into::into).collect();
        let ids = job_ids(&files);
        assert_eq!(ids, vec!["fam", "fam-2", "fam-2-2", "fam-3"]);
        let unique: std::collections::HashSet<&String> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len());
    }

    #[test]
    fn batch_skips_unreadable_files_without_aborting() {
        let dir = tmpdir().join("batch-garbage");
        std::fs::create_dir_all(&dir).unwrap();
        let good = run_str(&["generate", "--n", "6", "--len", "40", "--seed", "5"]);
        std::fs::write(dir.join("good.fa"), good).unwrap();
        std::fs::write(dir.join("garbage.fa"), "this is not fasta at all").unwrap();
        let args =
            parse(["batch", dir.to_str().unwrap(), "--out", dir.join("out").to_str().unwrap()])
                .unwrap();
        let mut buf = Vec::new();
        let err = crate::run(args, &mut buf).unwrap_err();
        assert_eq!(err, "1 of 2 jobs failed");
        let table = String::from_utf8(buf).unwrap();
        assert!(table.contains("skipped garbage:"), "{table}");
        assert!(table.contains("1 ok, 0 failed"), "{table}");
        assert!(dir.join("out/good.aligned.fa").exists(), "healthy neighbour still aligned");
    }

    #[test]
    fn batch_rejects_empty_inputs() {
        let dir = tmpdir().join("batch-empty");
        std::fs::create_dir_all(&dir).unwrap();
        let args = parse(["batch", dir.to_str().unwrap()]).unwrap();
        let mut buf = Vec::new();
        let err = crate::run(args, &mut buf).unwrap_err();
        assert!(err.contains("no FASTA inputs"), "{err}");
    }

    #[test]
    fn generate_writes_reference() {
        let dir = tmpdir();
        let refpath = dir.join("truth.fa");
        let _ = run_str(&[
            "generate",
            "--n",
            "6",
            "--len",
            "40",
            "--reference",
            refpath.to_str().unwrap(),
        ]);
        let reference =
            fasta::parse_alignment(&std::fs::read_to_string(&refpath).unwrap()).unwrap();
        assert_eq!(reference.num_rows(), 6);
    }

    #[test]
    fn reads_simulated_run_caps_buckets_and_passes_the_gate() {
        let out = run_str(&[
            "reads",
            "--reads",
            "200",
            "--read-len",
            "60",
            "--source-len",
            "200",
            "--sources",
            "2",
            "--max-bucket",
            "32",
            "--threads",
            "2",
            "--kmer",
            "3",
            "--min-q",
            "0.3",
            "--seed",
            "1",
        ]);
        assert!(out.contains("reads             200"), "{out}");
        assert!(out.contains("bucket cap        32 (respected)"), "{out}");
        assert!(out.contains("decomposition     depth"), "{out}");
        assert!(out.contains("7-sub-partition") || out.contains("depth 0"), "{out}");
        assert!(out.contains("mean pair Q"), "{out}");
        assert!(out.contains("pass"), "{out}");
    }

    #[test]
    fn reads_gate_failure_is_an_error() {
        let args = parse([
            "reads",
            "--reads",
            "60",
            "--read-len",
            "50",
            "--source-len",
            "150",
            "--sources",
            "2",
            "--kmer",
            "3",
            "--min-q",
            "1.0",
            "--error-rate",
            "0.3",
            "--seed",
            "2",
        ])
        .unwrap();
        let mut buf = Vec::new();
        let err = crate::run(args, &mut buf).unwrap_err();
        assert!(err.contains("below the --min-q gate"), "{err}");
        let table = String::from_utf8(buf).unwrap();
        assert!(table.contains("FAIL"), "{table}");
    }

    #[test]
    fn reads_aligns_a_streamed_file_and_writes_out() {
        let dir = tmpdir().join("reads-file");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("reads.fa");
        let aligned = dir.join("aligned.fa");
        // Simulate once to get a realistic read file, then re-ingest it.
        let _ = run_str(&[
            "reads",
            "--reads",
            "40",
            "--read-len",
            "50",
            "--source-len",
            "150",
            "--sources",
            "2",
            "--kmer",
            "3",
            "--out",
            input.to_str().unwrap(),
        ]);
        // --out holds gapped rows; ungap them back into plain reads.
        let msa = fasta::parse_alignment(&std::fs::read_to_string(&input).unwrap()).unwrap();
        std::fs::write(&input, fasta::write(&msa.ungapped_all())).unwrap();
        let out = run_str(&[
            "reads",
            input.to_str().unwrap(),
            "--max-bucket",
            "16",
            "--kmer",
            "3",
            "--out",
            aligned.to_str().unwrap(),
        ]);
        assert!(out.contains("reads             40"), "{out}");
        assert!(out.contains(&format!("source            {}", input.display())), "{out}");
        assert!(!out.contains("mean pair Q"), "file input has no truth:\n{out}");
        let written = std::fs::read_to_string(&aligned).unwrap();
        assert_eq!(fasta::parse_alignment(&written).unwrap().num_rows(), 40);
    }

    #[test]
    fn reads_distributed_works_without_an_explicit_cap() {
        // The virtual cluster runs the same capped pipeline as rayon: the
        // default cap and an explicit one are both honoured and reported.
        let base =
            ["reads", "--reads", "40", "--read-len", "50", "--source-len", "150", "--kmer", "3"];
        let out = run_str(&[&base[..], &["--backend", "distributed"]].concat());
        assert!(out.contains("backend           distributed"), "{out}");
        assert!(out.contains("bucket cap        512 (respected)"), "{out}");
        let out =
            run_str(&[&base[..], &["--backend", "distributed", "--max-bucket", "8"]].concat());
        assert!(out.contains("bucket cap        8 (respected)"), "{out}");
        assert!(out.contains("7-sub-partition"), "{out}");
        // Sequential has no buckets, so it has nothing to say about a cap.
        let out = run_str(&[&base[..], &["--backend", "sequential"]].concat());
        assert!(!out.contains("bucket cap"), "{out}");
    }

    #[test]
    fn trim_drops_gap_heavy_rows_and_grows_the_area() {
        let dir = tmpdir().join("trim-cli");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("gappy.fa");
        // Rows c and d share the same four gap columns: neither single
        // drop pays off (area 8), only the pair unlocks them (area 12).
        std::fs::write(&input, ">a\nMKVLAW\n>b\nMKILAW\n>c\n--VL--\n>d\n--KL--\n").unwrap();
        let out = run_str(&["trim", input.to_str().unwrap()]);
        assert!(
            out.contains("; trim: dropped 2 rows, gained 4 gap-free columns, area 8 -> 12"),
            "{out}"
        );
        assert!(out.contains("; dropped c"), "{out}");
        assert!(out.contains("; dropped d"), "{out}");
        let body: String =
            out.lines().filter(|l| !l.starts_with(';')).collect::<Vec<_>>().join("\n");
        let msa = fasta::parse_alignment(&body).unwrap();
        assert_eq!((msa.num_rows(), msa.num_cols()), (2, 6));
        assert_eq!(msa.ids(), ["a", "b"]);
        // --out sends the FASTA to disk; stdout keeps only the census.
        let outfile = dir.join("trimmed.fa");
        let with_out =
            run_str(&["trim", input.to_str().unwrap(), "--out", outfile.to_str().unwrap()]);
        assert!(with_out.contains("; trim: dropped 2 rows"), "{with_out}");
        let written = std::fs::read_to_string(&outfile).unwrap();
        assert_eq!(fasta::parse_alignment(&written).unwrap().num_rows(), 2);
        // --max-dropped 0 makes the run a no-op that keeps every row.
        let frozen = run_str(&["trim", input.to_str().unwrap(), "--max-dropped", "0"]);
        assert!(frozen.contains("; trim: dropped 0 rows"), "{frozen}");
        // --branch-bound never does worse than the greedy pass.
        let bb = run_str(&["trim", input.to_str().unwrap(), "--branch-bound"]);
        assert!(bb.contains("area 8 -> 12"), "{bb}");
    }

    #[test]
    fn trim_rejects_bad_inputs_cleanly() {
        let args = parse(["trim", "/nonexistent/xyz.fa"]).unwrap();
        let mut buf = Vec::new();
        assert!(crate::run(args, &mut buf).unwrap_err().contains("cannot read"));
        let dir = tmpdir().join("trim-bad");
        std::fs::create_dir_all(&dir).unwrap();
        // Each is a named error (exit 1 from the binary), never a panic.
        for (name, text, needle) in [
            ("ragged.fa", ">a\nMK-VL\n>b\nMKIL\n", "ragged"),
            ("empty.fa", "", "no records"),
            ("allgap.fa", ">a\n---\n>b\nMKV\n", "record a is entirely gaps"),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            let args = parse(["trim", path.to_str().unwrap()]).unwrap();
            let mut buf = Vec::new();
            let err = crate::run(args, &mut buf).unwrap_err();
            assert!(err.contains(&format!("bad alignment in {}", path.display())), "{err}");
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn trim_flag_runs_the_stage_inside_align() {
        let dir = tmpdir();
        let input = dir.join("trimflag.fa");
        std::fs::write(&input, run_str(&["generate", "--n", "8", "--len", "40", "--seed", "13"]))
            .unwrap();
        let out = run_str(&["align", input.to_str().unwrap(), "--p", "2", "--trim"]);
        // The census joins the phase table whether or not rows fall.
        assert!(out.contains("; trim: dropped"), "{out}");
        assert!(out.contains("13-trim"), "{out}");
        let body: String =
            out.lines().filter(|l| !l.starts_with(';')).collect::<Vec<_>>().join("\n");
        fasta::parse_alignment(&body).unwrap();
        // Without the flag the stage stays out of the run.
        let plain = run_str(&["align", input.to_str().unwrap(), "--p", "2"]);
        assert!(!plain.contains("; trim:"), "{plain}");
    }

    #[test]
    fn non_utf8_input_is_a_clean_fasta_error() {
        let dir = tmpdir();
        let input = dir.join("binary.fa");
        std::fs::write(&input, b">a\nMK\xFF\xFEVL\n").unwrap();
        let args = parse(["align", input.to_str().unwrap()]).unwrap();
        let mut buf = Vec::new();
        let err = crate::run(args, &mut buf).unwrap_err();
        assert!(err.contains("bad FASTA"), "{err}");
        assert!(err.contains("not UTF-8"), "{err}");
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let args = parse(["align", "/nonexistent/xyz.fa"]).unwrap();
        let mut buf = Vec::new();
        let err = crate::run(args, &mut buf).unwrap_err();
        assert!(err.contains("cannot read"));
    }
}
