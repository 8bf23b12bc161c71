//! End-to-end runs with tracing off: spawn `sad` on generated files (or a
//! `sad serve` session), time it from outside, and check every output.

use crate::inputs::{Input, ServeMix, Truth};
use crate::proc::run_sad;
use crate::serve;
use crate::stats::median;
use crate::verify::{body, check_alignment};
use crate::workloads::{Kind, Pipeline, Workload};
use bioseq::Msa;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How often a pass sets up, to report a median set-up time; each set-up
/// of a file workload is on an input of its own.
const SETUPS: usize = 3;
/// Fewest timed samples a run reports a median of.
const MIN_SAMPLES: usize = 3;
/// Read pairs `sad reads` itself scores for its `--min-q` gate.
pub const READ_PAIRS_SCORED: usize = 500;

/// Where the built `sad` is and where a run may write.
pub struct Env {
    pub sad: PathBuf,
    pub work: PathBuf,
}

impl Env {
    /// A fresh, empty directory under the work directory.
    pub fn fresh_dir(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.work.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

/// What one end-to-end pass measured.
#[derive(Debug, Default)]
pub struct EndToEndRun {
    pub setup_s: Vec<f64>,
    pub wall_s: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
    pub q_score: f64,
    /// Input sequences one sample processes.
    pub sequences: usize,
    /// Operations checked (invocations, or served jobs) and how many
    /// failed a check; each failure is explained on stderr.
    pub attempted: u64,
    pub failed: u64,
    pub input_shape: String,
    pub input_digest: String,
}

impl EndToEndRun {
    /// The reported value of each end-to-end metric, in `END_TO_END` order.
    pub fn values(&self) -> [f64; 5] {
        let wall = median(&self.wall_s);
        [
            median(&self.setup_s),
            wall,
            self.sequences as f64 / wall,
            median(&self.peak_rss_mb),
            self.q_score,
        ]
    }

    pub(crate) fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("FAILED: {what}");
    }
}

/// Score `msa` against the input's truth.
pub fn quality(truth: &Truth, msa: &Msa) -> Option<f64> {
    match truth {
        Truth::Family(reference) => bioseq::compare::q_score_msa(msa, reference),
        Truth::Reads(set) => qbench::mean_read_pair_q(set, msa, READ_PAIRS_SCORED),
    }
}

/// One `sad` invocation on `dir/in.fa`: wall seconds, peak RSS and the
/// alignment body it produced.
pub struct Sample {
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub body: String,
    /// Bytes `sad` wrote: stdout plus, for `reads`, the `--out` file.
    pub out_bytes: u64,
}

pub fn invoke(env: &Env, pipeline: &Pipeline, dir: &Path) -> Result<Sample, String> {
    let (input, out, stdout) = (dir.join("in.fa"), dir.join("out.fa"), dir.join("stdout.txt"));
    let args = pipeline.command(&input.to_string_lossy(), &out.to_string_lossy());
    let run = run_sad(&env.sad, &args, &stdout).map_err(|e| format!("cannot run sad: {e}"))?;
    if run.exit.code != Some(0) {
        return Err(format!("sad {} exited with {:?}", args.join(" "), run.exit.code));
    }
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let printed = read(&stdout)?;
    let (text, out_bytes) = if pipeline.writes_out_file() {
        let text = read(&out)?;
        let bytes = (printed.len() + text.len()) as u64;
        (text, bytes)
    } else {
        let bytes = printed.len() as u64;
        (printed, bytes)
    };
    Ok(Sample {
        wall_s: run.wall_s,
        peak_rss_mb: run.exit.peak_rss_mb(),
        body: body(&text),
        out_bytes,
    })
}

/// The `k`-th input of a file workload for `seed`. A pass runs on
/// [`SETUPS`] distinct inputs so that one unlucky draw (a read set that
/// happens to align badly, a family that happens to be slow) moves its
/// numbers a third as much; the traced pass uses input 0.
pub fn file_input(kind: &Kind, seed: u64, k: usize) -> (Input, Pipeline) {
    let seed = crate::inputs::sub_seed(seed, (1 << 48) + k as u64);
    match kind {
        Kind::Align { family, pipeline } => (Input::family(family, seed), *pipeline),
        Kind::Reads { sources, reads, pipeline } => {
            (Input::reads(sources, *reads, seed), *pipeline)
        }
        Kind::Serve { .. } => unreachable!("serve_mix has no input file"),
    }
}

/// One input of a file workload, set up in its own directory.
pub struct FileSetup {
    pub input: Input,
    pub pipeline: Pipeline,
    pub dir: PathBuf,
    /// Output of the untimed first invocation: what every later sample on
    /// this input must repeat byte for byte.
    pub reference: String,
}

/// Set up input `k` of a file workload in a fresh directory: generate,
/// write, and run `sad` once untimed so binary and input are in the page
/// cache.
pub fn setup_files(
    env: &Env,
    w: &Workload,
    seed: u64,
    k: usize,
    tag: &str,
) -> Result<FileSetup, String> {
    let dir_name = format!("{}-{tag}{k}", w.name);
    let dir = env.fresh_dir(&dir_name).map_err(|e| format!("cannot create {dir_name}: {e}"))?;
    let (input, pipeline) = file_input(&w.kind, seed, k);
    std::fs::write(dir.join("in.fa"), &input.fasta)
        .map_err(|e| format!("cannot write input: {e}"))?;
    let reference = invoke(env, &pipeline, &dir)?.body;
    Ok(FileSetup { input, pipeline, dir, reference })
}

fn run_files(env: &Env, w: &Workload, seed: u64, seconds: f64) -> Result<EndToEndRun, String> {
    let mut run = EndToEndRun::default();
    let mut sets = Vec::new();
    for k in 0..SETUPS {
        let started = Instant::now();
        sets.push(setup_files(env, w, seed, k, "setup")?);
        run.setup_s.push(started.elapsed().as_secs_f64());
    }
    run.sequences = sets[0].input.seqs.len();
    run.input_shape = format!("{SETUPS} inputs, the first: {}", sets[0].input.shape);
    let all: String = sets.iter().map(|s| s.input.fasta.as_str()).collect();
    run.input_digest = sad_serve::digest::payload(&all);

    // Check and score each input's first output; samples must repeat it.
    let mut qualities = Vec::new();
    for set in &sets {
        run.attempted += 1;
        match check_alignment(&set.reference, &set.input.seqs) {
            Ok(msa) => match quality(&set.input.truth, &msa) {
                Some(q) => qualities.push(q),
                None => run.fail("the alignment has nothing to score against the truth"),
            },
            Err(e) => run.fail(&format!("first output: {e}")),
        }
    }
    run.q_score = qualities.iter().sum::<f64>() / qualities.len().max(1) as f64;

    let window = Instant::now();
    while run.wall_s.len() < MIN_SAMPLES || window.elapsed() < Duration::from_secs_f64(seconds) {
        let set = &sets[run.wall_s.len() % SETUPS];
        run.attempted += 1;
        match invoke(env, &set.pipeline, &set.dir) {
            Ok(sample) => {
                run.wall_s.push(sample.wall_s);
                run.peak_rss_mb.push(sample.peak_rss_mb);
                // Byte-identical to an output already checked against the
                // input, so it satisfies the same checks.
                if sample.body != set.reference {
                    run.fail(&format!(
                        "sample {} differs from the first output (not deterministic)",
                        run.wall_s.len()
                    ));
                }
            }
            Err(e) => {
                run.fail(&e);
                if run.failed > 3 {
                    return Err(format!("{}: giving up after {} failures", w.name, run.failed));
                }
            }
        }
    }
    Ok(run)
}

fn run_serve(env: &Env, w: &Workload, seed: u64, seconds: f64) -> Result<EndToEndRun, String> {
    let Kind::Serve { small, large, jobs, clients, workers } = w.kind else {
        unreachable!("run_serve is given the serve workload");
    };
    let mut run = EndToEndRun::default();
    let mut mix = None;
    for k in 0..SETUPS {
        let started = Instant::now();
        let m = ServeMix::generate(&small, &large, jobs, clients, seed);
        let dir = env.fresh_dir(&format!("{}-setup{k}", w.name)).map_err(|e| e.to_string())?;
        let daemon = serve::Daemon::start(env, &dir, workers)?;
        serve::warm_up(&daemon, &m)?;
        daemon.stop()?;
        run.setup_s.push(started.elapsed().as_secs_f64());
        mix = Some(m);
    }
    let mix = mix.expect("SETUPS > 0");
    run.sequences = mix.sequences();
    run.input_shape = mix.shape.clone();
    let all: String = mix.inputs.iter().map(|i| i.fasta.as_str()).collect();
    run.input_digest = sad_serve::digest::payload(&all);

    let mut qualities: Option<Vec<f64>> = None;
    let window = Instant::now();
    while run.wall_s.len() < MIN_SAMPLES || window.elapsed() < Duration::from_secs_f64(seconds) {
        let dir = env.fresh_dir(&format!("{}-session", w.name)).map_err(|e| e.to_string())?;
        let daemon = serve::Daemon::start(env, &dir, workers)?;
        let session = serve::run_session(&daemon, &mix)?;
        let exit = daemon.stop()?;
        run.wall_s.push(session.wall_s);
        run.peak_rss_mb.push(exit.peak_rss_mb());
        run.attempted += mix.jobs() as u64;
        if exit.code != Some(0) {
            run.fail(&format!("sad serve exited with {:?}", exit.code));
        }
        let checked = serve::check_session(&session, &mix, &dir, qualities.is_none());
        for failure in &checked.failures {
            run.fail(failure);
        }
        if qualities.is_none() && checked.failures.is_empty() {
            qualities = Some(checked.qualities);
        }
        if run.failed > 3 {
            return Err(format!("{}: giving up after {} failures", w.name, run.failed));
        }
    }
    match qualities {
        Some(q) if !q.is_empty() => run.q_score = q.iter().sum::<f64>() / q.len() as f64,
        _ => run.fail("no session yielded a quality score"),
    }
    Ok(run)
}

/// One end-to-end pass of `w`: `SETUPS` set-ups, then samples for
/// `seconds` (at least `MIN_SAMPLES`).
pub fn run(env: &Env, w: &Workload, seed: u64, seconds: f64) -> Result<EndToEndRun, String> {
    match w.kind {
        Kind::Serve { .. } => run_serve(env, w, seed, seconds),
        _ => run_files(env, w, seed, seconds),
    }
}
