//! Hand-rolled argument parsing (keeps the dependency set to the approved
//! crates).
//!
//! `align`, `batch`, `reads` and `serve` all run the pipeline, so they
//! share one block of flags: [`PipelineFlags`], parsed by one matcher and
//! checked by one post-parse rule set here, and turned into a `SadConfig`
//! plus backend in one place in [`crate::cmd`].

use align::{BandPolicy, DpKernel, EngineChoice};
use rosegen::{family::MIN_LEN, ReadSimConfig};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The selected subcommand with its options.
    pub command: Command,
}

/// One subcommand.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `sad align <in.fasta> [pipeline flags] [--progress]`
    Align(AlignArgs),
    /// `sad batch <dir-or-manifest> [--out DIR] [--jobs N] [pipeline flags]
    /// [--progress]`
    Batch(BatchArgs),
    /// `sad reads [in.fasta] [--reads N] [--coverage C] [--read-len L]
    /// [--error-rate E] [--sources N] [--source-len L] [--seed S]
    /// [--max-bucket N|none] [--min-q Q] [--out FILE] [pipeline flags]
    /// [--progress]`
    Reads(ReadsArgs),
    /// `sad trim <aligned.fa> [--out FILE] [--max-dropped N]
    /// [--branch-bound]`
    Trim(TrimArgs),
    /// `sad generate [--n N] [--len L] [--relatedness R] [--seed S] [--reference PATH]`
    Generate(GenerateArgs),
    /// `sad serve [--host H] [--port N] [--journal FILE] [--out DIR]
    /// [--workers N] [--queue N] [--cache-mb N] [pipeline flags]`
    Serve(ServeArgs),
    /// `sad submit <files...> [--host H] [--port N] [--out DIR]
    /// [--priority N] [--cancel ID] [--shutdown]`
    Submit(SubmitArgs),
    /// `sad --help` / `-h` / `help`: print [`USAGE`] and succeed.
    Help,
}

/// The flags every pipeline-running command (`align`, `batch`, `reads`,
/// `serve`) takes, with one meaning everywhere. The four `*Args` structs
/// deref to this, so `a.engine` or `a.parallelism()` read the same on all
/// of them.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineFlags {
    /// Generic parallelism (`--p`, default 4): ranks/buckets when no
    /// backend-specific width flag is given.
    pub p: usize,
    /// Rayon bucket count (`--threads`), overriding `--p`.
    pub threads: Option<usize>,
    /// Virtual cluster size (`--nodes`), overriding `--p`.
    pub nodes: Option<usize>,
    /// Execution backend (`--backend`). The default is per command:
    /// `align` decomposes on `distributed`, `reads` on `rayon`, while
    /// `batch` and `serve` default to `sequential` — their throughput
    /// comes from concurrent jobs (`--jobs` / `--workers`), not from
    /// decomposing each job.
    pub backend: Backend,
    /// Engine selection (`--engine`).
    pub engine: EngineChoice,
    /// Disable the ancestor fine-tuning step (`--no-fine-tune`).
    pub no_fine_tune: bool,
    /// k-mer length override (`--kmer`); `None` keeps the paper default.
    /// Inputs with sequences shorter than the k-mer length are rejected,
    /// so short-read files need a smaller `k`.
    pub kmer: Option<usize>,
    /// DP kernel band policy (`--band auto|full`).
    pub band: BandPolicy,
    /// DP kernel variant (`--kernel scalar|auto`).
    pub kernel: DpKernel,
    /// Run the MaxAlign-style area-maximizing trim stage on every
    /// finished alignment (`--trim`).
    pub trim: bool,
}

impl PipelineFlags {
    /// Effective decomposition width for the selected backend.
    pub fn parallelism(&self) -> usize {
        match self.backend {
            Backend::Sequential => 1,
            Backend::Rayon => self.threads.unwrap_or(self.p),
            Backend::Distributed => self.nodes.unwrap_or(self.p),
        }
    }

    /// The flags before parsing: every default, on the command's own
    /// default backend.
    fn defaults(backend: Backend) -> Self {
        PipelineFlags {
            p: 4,
            threads: None,
            nodes: None,
            backend,
            engine: EngineChoice::MuscleFast,
            no_fine_tune: false,
            kmer: None,
            band: BandPolicy::default(),
            kernel: DpKernel::default(),
            trim: false,
        }
    }

    /// Consume `tok` (and its value) if it is a pipeline flag; `false`
    /// leaves it to the command.
    fn take(&mut self, tok: &str, it: Tokens) -> Result<bool, ParseError> {
        match tok {
            "--p" => self.p = take_num(tok, it)?,
            "--threads" => self.threads = Some(take_num(tok, it)?),
            "--nodes" => self.nodes = Some(take_num(tok, it)?),
            "--backend" => {
                self.backend = match take_value(tok, it)? {
                    "sequential" => Backend::Sequential,
                    "rayon" => Backend::Rayon,
                    "distributed" => Backend::Distributed,
                    other => return Err(ParseError(format!("unknown backend {other:?}"))),
                }
            }
            "--engine" => {
                let v = take_value(tok, it)?;
                self.engine = EngineChoice::from_label(v)
                    .ok_or_else(|| ParseError(format!("unknown engine {v:?}")))?;
            }
            "--no-fine-tune" => self.no_fine_tune = true,
            "--kmer" => self.kmer = Some(take_num(tok, it)?),
            "--band" => {
                let v = take_value(tok, it)?;
                self.band = BandPolicy::parse(v)
                    .ok_or_else(|| ParseError(format!("--band takes auto or full, not {v:?}")))?;
            }
            "--kernel" => {
                let v = take_value(tok, it)?;
                self.kernel = DpKernel::parse(v).ok_or_else(|| {
                    ParseError(format!("--kernel takes scalar or auto, not {v:?}"))
                })?;
            }
            "--trim" => self.trim = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The one post-parse check, once the whole line is read, so the
    /// width rule judges the backend that will actually run: `--threads`
    /// and `--nodes` each name one backend's width and are rejected
    /// anywhere else instead of being silently ignored.
    fn check(&self) -> Result<(), ParseError> {
        if self.p == 0 || self.threads == Some(0) || self.nodes == Some(0) {
            return Err(ParseError("--p/--threads/--nodes must be at least 1".into()));
        }
        if self.kmer == Some(0) {
            return Err(ParseError("--kmer must be at least 1".into()));
        }
        if self.threads.is_some() && self.backend != Backend::Rayon {
            return Err(ParseError("--threads only applies to --backend rayon".into()));
        }
        if self.nodes.is_some() && self.backend != Backend::Distributed {
            return Err(ParseError("--nodes only applies to --backend distributed".into()));
        }
        Ok(())
    }
}

/// The pipeline-running commands read their [`PipelineFlags`] as their
/// own fields and methods.
macro_rules! deref_to_pipeline {
    ($($args:ty),*) => {$(
        impl std::ops::Deref for $args {
            type Target = PipelineFlags;
            fn deref(&self) -> &PipelineFlags {
                &self.pipeline
            }
        }
    )*};
}
deref_to_pipeline!(AlignArgs, BatchArgs, ReadsArgs, ServeArgs);

/// Options of `sad align`.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignArgs {
    /// Input FASTA path.
    pub input: String,
    /// The shared pipeline flags.
    pub pipeline: PipelineFlags,
    /// Stream a live per-phase progress display to stderr (`--progress`),
    /// built on the pipeline observer API.
    pub progress: bool,
    /// `--vertical` was given: `sad align` prints a one-line note and
    /// aligns whole-length as without it. Retired with vertical
    /// decomposition; kept because `benchmark/src/workloads.rs` names it;
    /// ROADMAP item 5's companion deletes it.
    pub vertical: bool,
}

/// Options of `sad batch`.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchArgs {
    /// A directory of FASTA files (`.fa`/`.fasta`, one job per file,
    /// sorted by name) or a manifest file listing one FASTA path per line
    /// (`#` comments allowed; relative paths resolve against the
    /// manifest's directory).
    pub input: String,
    /// Output directory (`--out`, default `.`): one `<job>.aligned.fa`
    /// per successful job; created if missing.
    pub out_dir: String,
    /// Concurrent jobs in flight (`--jobs`); defaults to the host's
    /// available parallelism.
    pub jobs: Option<usize>,
    /// The shared pipeline flags, applied to every job.
    pub pipeline: PipelineFlags,
    /// Stream job/phase progress to stderr (`--progress`).
    pub progress: bool,
}

/// Options of `sad reads` — the Pyro-Align-style large-N read mode.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadsArgs {
    /// Optional input FASTA of reads (streamed, never slurped). Without
    /// it a read set is simulated from a synthetic family, which also
    /// enables the quality gate (`--min-q`) against the known truth.
    pub input: Option<String>,
    /// Bucket size cap (`--max-bucket`, default 512): first-pass buckets
    /// larger than this are recursively re-sampled and re-partitioned.
    /// `--max-bucket none` disables the hierarchical pass.
    pub max_bucket: Option<usize>,
    /// Exact number of simulated reads (`--reads`); overrides coverage.
    pub reads: Option<usize>,
    /// Simulated sequencing depth (`--coverage`, default 8).
    pub coverage: f64,
    /// Mean simulated read length (`--read-len`, default 90).
    pub read_len: usize,
    /// Homopolymer error rate (`--error-rate`, default 0.01).
    pub error_rate: f64,
    /// Source sequences in the simulated family (`--sources`, default 4).
    pub sources: usize,
    /// Average source sequence length (`--source-len`, default 400).
    pub source_len: usize,
    /// RNG seed for the simulation (`--seed`).
    pub seed: u64,
    /// Quality gate (`--min-q`): fail unless the mean pairwise Q of the
    /// recovered alignment against the simulated truth reaches this.
    /// Simulated input only — real read files carry no truth.
    pub min_q: Option<f64>,
    /// Write the aligned reads as gapped FASTA here (`--out`); stdout
    /// carries only the run summary either way.
    pub out: Option<String>,
    /// The shared pipeline flags. [`PipelineFlags::parallelism`] is the
    /// user-requested width; the command widens it to `reads / max_bucket`
    /// so first-pass blocks already approach the cap.
    pub pipeline: PipelineFlags,
    /// Stream a live per-phase progress display to stderr (`--progress`).
    pub progress: bool,
}

/// Options of `sad trim` — MaxAlign-style area optimization over an
/// already-aligned FASTA file.
#[derive(Debug, Clone, PartialEq)]
pub struct TrimArgs {
    /// Input aligned (gapped) FASTA path.
    pub input: String,
    /// Write the trimmed alignment here (`--out`); stdout otherwise.
    pub out: Option<String>,
    /// Cap on dropped sequences (`--max-dropped N`).
    pub max_dropped: Option<usize>,
    /// Refine the greedy result with bounded branch-and-bound
    /// (`--branch-bound`).
    pub branch_bound: bool,
}

/// Execution backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The engine run directly on the whole set.
    Sequential,
    /// Shared-memory rayon pipeline.
    Rayon,
    /// Virtual message-passing cluster (prints virtual timings).
    Distributed,
}

/// Options of `sad generate`.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateArgs {
    /// Number of sequences.
    pub n: usize,
    /// Average length.
    pub len: usize,
    /// Rose relatedness.
    pub relatedness: f64,
    /// RNG seed.
    pub seed: u64,
    /// Optional path to also write the true reference alignment.
    pub reference: Option<String>,
}

/// Options of `sad serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Interface to bind (`--host`, default `127.0.0.1`).
    pub host: String,
    /// Port to bind (`--port`, default 7401; `0` = OS-assigned).
    pub port: u16,
    /// Write-ahead journal path (`--journal`, default
    /// `sad-serve.journal.jsonl`). Restarting against the same journal
    /// resumes unfinished jobs and skips verified-finished ones.
    pub journal: String,
    /// Output directory for `<job>.aligned.fa` files (`--out`, default `.`).
    pub out_dir: String,
    /// Worker threads draining the queue (`--workers`); defaults to the
    /// host's available parallelism.
    pub workers: Option<usize>,
    /// Pending-job queue bound (`--queue`, default 32).
    pub queue: usize,
    /// Result-cache budget in MiB (`--cache-mb`, default 64); the
    /// in-memory result cache evicts least-recently-used entries past it.
    pub cache_mb: usize,
    /// The shared pipeline flags, applied to every served job.
    pub pipeline: PipelineFlags,
}

/// Options of `sad submit`.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitArgs {
    /// FASTA files to submit, one job per file (job id = file stem).
    /// May be empty when only `--cancel`/`--shutdown` is requested.
    pub files: Vec<String>,
    /// Server host (`--host`, default `127.0.0.1`).
    pub host: String,
    /// Server port (`--port`, default 7401).
    pub port: u16,
    /// Directory to also write returned alignments into (`--out`);
    /// without it results are printed to stdout only as event summaries.
    pub out_dir: Option<String>,
    /// Scheduling priority for every submitted job (`--priority`).
    pub priority: i64,
    /// Send `CANCEL <id>` instead of/alongside submissions (`--cancel`).
    pub cancel: Option<String>,
    /// Send `SHUTDOWN` after everything else (`--shutdown`).
    pub shutdown: bool,
}

/// Parse failure with a usage hint.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.0)?;
        write!(f, "{USAGE}")
    }
}

/// Usage text.
pub const USAGE: &str = "\
usage: sad <command> [options]
  align <in.fasta> [pipeline flags] [--progress]
  batch <dir|manifest> [--out DIR] [--jobs N] [pipeline flags] [--progress]
  reads [in.fasta] [--reads N] [--coverage C] [--read-len L] [--error-rate E]
                   [--sources N] [--source-len L] [--seed S]
                   [--max-bucket N|none] [--min-q Q] [--out FILE]
                   [pipeline flags] [--progress]
  trim <aligned.fa> [--out FILE] [--max-dropped N] [--branch-bound]
  generate [--n N] [--len L] [--relatedness R] [--seed S] [--reference PATH]
  serve    [--host H] [--port N] [--journal FILE] [--out DIR] [--workers N]
                   [--queue N] [--cache-mb N] [pipeline flags]
  submit <files...> [--host H] [--port N] [--out DIR] [--priority N]
                   [--cancel ID] [--shutdown]
  help | --help | -h
pipeline flags (align, batch, reads, serve):
                   [--backend sequential|rayon|distributed] [--p N]
                   [--threads N] [--nodes N] [--no-fine-tune] [--kmer K]
                   [--engine muscle-fast|muscle|clustalw]
                   [--band auto|full] [--kernel scalar|auto] [--trim]
";

/// The rest of the command line, as the flag parsers consume it.
type Tokens<'a, 'i> = &'i mut dyn Iterator<Item = &'a str>;

fn take_value<'a>(flag: &str, it: Tokens<'a, '_>) -> Result<&'a str, ParseError> {
    it.next().ok_or_else(|| ParseError(format!("{flag} needs a value")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, ParseError> {
    v.parse().map_err(|_| ParseError(format!("{flag}: cannot parse {v:?}")))
}

/// The numeric value following `flag`.
fn take_num<T: std::str::FromStr>(flag: &str, it: Tokens) -> Result<T, ParseError> {
    parse_num(flag, take_value(flag, it)?)
}

fn unexpected(tok: &str) -> ParseError {
    ParseError(format!("unexpected argument {tok:?}"))
}

/// Parse a full argument vector (without the binary name).
pub fn parse<'a>(argv: impl IntoIterator<Item = &'a str>) -> Result<Args, ParseError> {
    let mut it = argv.into_iter();
    let cmd = it.next().ok_or_else(|| ParseError("missing command".into()))?;
    match cmd {
        "align" => {
            let mut input = None;
            let mut a = AlignArgs {
                input: String::new(),
                pipeline: PipelineFlags::defaults(Backend::Distributed),
                progress: false,
                vertical: false,
            };
            while let Some(tok) = it.next() {
                match tok {
                    "--vertical" => a.vertical = true,
                    "--progress" => a.progress = true,
                    tok if a.pipeline.take(tok, &mut it)? => {}
                    tok if !tok.starts_with("--") && input.is_none() => {
                        input = Some(tok.to_string())
                    }
                    tok => return Err(unexpected(tok)),
                }
            }
            a.input = input.ok_or_else(|| ParseError("align needs an input file".into()))?;
            a.pipeline.check()?;
            Ok(Args { command: Command::Align(a) })
        }
        "batch" => {
            let mut input = None;
            let mut b = BatchArgs {
                input: String::new(),
                out_dir: ".".into(),
                jobs: None,
                pipeline: PipelineFlags::defaults(Backend::Sequential),
                progress: false,
            };
            while let Some(tok) = it.next() {
                match tok {
                    "--out" => b.out_dir = take_value(tok, &mut it)?.to_string(),
                    "--jobs" => b.jobs = Some(take_num(tok, &mut it)?),
                    "--progress" => b.progress = true,
                    tok if b.pipeline.take(tok, &mut it)? => {}
                    tok if !tok.starts_with("--") && input.is_none() => {
                        input = Some(tok.to_string())
                    }
                    tok => return Err(unexpected(tok)),
                }
            }
            b.input =
                input.ok_or_else(|| ParseError("batch needs a directory or manifest".into()))?;
            b.pipeline.check()?;
            if b.jobs == Some(0) {
                return Err(ParseError("--jobs must be at least 1".into()));
            }
            Ok(Args { command: Command::Batch(b) })
        }
        "reads" => {
            let mut r = ReadsArgs {
                input: None,
                max_bucket: Some(512),
                reads: None,
                coverage: 8.0,
                read_len: 90,
                error_rate: 0.01,
                sources: 4,
                source_len: 400,
                seed: 0,
                min_q: None,
                out: None,
                pipeline: PipelineFlags::defaults(Backend::Rayon),
                progress: false,
            };
            while let Some(tok) = it.next() {
                match tok {
                    "--max-bucket" => {
                        r.max_bucket = match take_value(tok, &mut it)? {
                            "none" => None,
                            v => Some(parse_num(tok, v)?),
                        }
                    }
                    "--reads" => r.reads = Some(take_num(tok, &mut it)?),
                    "--coverage" => r.coverage = take_num(tok, &mut it)?,
                    "--read-len" => r.read_len = take_num(tok, &mut it)?,
                    "--error-rate" => r.error_rate = take_num(tok, &mut it)?,
                    "--sources" => r.sources = take_num(tok, &mut it)?,
                    "--source-len" => r.source_len = take_num(tok, &mut it)?,
                    "--seed" => r.seed = take_num(tok, &mut it)?,
                    "--min-q" => r.min_q = Some(take_num(tok, &mut it)?),
                    "--out" => r.out = Some(take_value(tok, &mut it)?.to_string()),
                    "--progress" => r.progress = true,
                    tok if r.pipeline.take(tok, &mut it)? => {}
                    tok if !tok.starts_with("--") && r.input.is_none() => {
                        r.input = Some(tok.to_string())
                    }
                    tok => return Err(unexpected(tok)),
                }
            }
            r.pipeline.check()?;
            if r.max_bucket == Some(0) {
                return Err(ParseError("--max-bucket must be at least 1 (or none)".into()));
            }
            if r.reads == Some(0) {
                return Err(ParseError("--reads must be at least 1".into()));
            }
            if r.sources == 0 {
                return Err(ParseError("--sources must be at least 1".into()));
            }
            if r.source_len < MIN_LEN {
                return Err(ParseError(format!("--source-len must be at least {MIN_LEN}")));
            }
            let min_read = ReadSimConfig::default().min_len;
            if r.read_len < min_read {
                return Err(ParseError(format!("--read-len must be at least {min_read}")));
            }
            if !(0.0..1.0).contains(&r.error_rate) {
                return Err(ParseError("--error-rate must be in [0, 1)".into()));
            }
            if !(r.coverage.is_finite() && r.coverage > 0.0) {
                return Err(ParseError("--coverage must be positive and finite".into()));
            }
            if let Some(q) = r.min_q {
                if !(0.0..=1.0).contains(&q) {
                    return Err(ParseError("--min-q must be in [0, 1]".into()));
                }
                if r.input.is_some() {
                    return Err(ParseError(
                        "--min-q needs the simulated truth; it cannot gate a read file".into(),
                    ));
                }
            }
            Ok(Args { command: Command::Reads(r) })
        }
        "trim" => {
            let mut input = None;
            let mut t = TrimArgs {
                input: String::new(),
                out: None,
                max_dropped: None,
                branch_bound: false,
            };
            while let Some(tok) = it.next() {
                match tok {
                    "--out" => t.out = Some(take_value(tok, &mut it)?.to_string()),
                    "--max-dropped" => t.max_dropped = Some(take_num(tok, &mut it)?),
                    "--branch-bound" => t.branch_bound = true,
                    tok if !tok.starts_with("--") && input.is_none() => {
                        input = Some(tok.to_string())
                    }
                    tok => return Err(unexpected(tok)),
                }
            }
            t.input = input.ok_or_else(|| ParseError("trim needs an aligned FASTA file".into()))?;
            Ok(Args { command: Command::Trim(t) })
        }
        "generate" => {
            let mut g =
                GenerateArgs { n: 100, len: 300, relatedness: 800.0, seed: 0, reference: None };
            while let Some(tok) = it.next() {
                match tok {
                    "--n" => g.n = take_num(tok, &mut it)?,
                    "--len" => g.len = take_num(tok, &mut it)?,
                    "--relatedness" => g.relatedness = take_num(tok, &mut it)?,
                    "--seed" => g.seed = take_num(tok, &mut it)?,
                    "--reference" => g.reference = Some(take_value(tok, &mut it)?.to_string()),
                    tok => return Err(unexpected(tok)),
                }
            }
            if g.n == 0 {
                return Err(ParseError("--n must be at least 1".into()));
            }
            if g.len < MIN_LEN {
                return Err(ParseError(format!("--len must be at least {MIN_LEN}")));
            }
            if !(g.relatedness.is_finite() && g.relatedness >= 0.0) {
                return Err(ParseError("--relatedness must be non-negative and finite".into()));
            }
            Ok(Args { command: Command::Generate(g) })
        }
        "serve" => {
            let mut s = ServeArgs {
                host: "127.0.0.1".into(),
                port: 7401,
                journal: "sad-serve.journal.jsonl".into(),
                out_dir: ".".into(),
                workers: None,
                queue: 32,
                cache_mb: 64,
                pipeline: PipelineFlags::defaults(Backend::Sequential),
            };
            while let Some(tok) = it.next() {
                match tok {
                    "--host" => s.host = take_value(tok, &mut it)?.to_string(),
                    "--port" => s.port = take_num(tok, &mut it)?,
                    "--journal" => s.journal = take_value(tok, &mut it)?.to_string(),
                    "--out" => s.out_dir = take_value(tok, &mut it)?.to_string(),
                    "--workers" => s.workers = Some(take_num(tok, &mut it)?),
                    "--queue" => s.queue = take_num(tok, &mut it)?,
                    "--cache-mb" => s.cache_mb = take_num(tok, &mut it)?,
                    tok if s.pipeline.take(tok, &mut it)? => {}
                    tok => return Err(unexpected(tok)),
                }
            }
            s.pipeline.check()?;
            if s.workers == Some(0) {
                return Err(ParseError("--workers must be at least 1".into()));
            }
            if s.queue == 0 {
                return Err(ParseError("--queue must be at least 1".into()));
            }
            Ok(Args { command: Command::Serve(s) })
        }
        "submit" => {
            let mut s = SubmitArgs {
                files: Vec::new(),
                host: "127.0.0.1".into(),
                port: 7401,
                out_dir: None,
                priority: 0,
                cancel: None,
                shutdown: false,
            };
            while let Some(tok) = it.next() {
                match tok {
                    "--host" => s.host = take_value(tok, &mut it)?.to_string(),
                    "--port" => s.port = take_num(tok, &mut it)?,
                    "--out" => s.out_dir = Some(take_value(tok, &mut it)?.to_string()),
                    "--priority" => s.priority = take_num(tok, &mut it)?,
                    "--cancel" => s.cancel = Some(take_value(tok, &mut it)?.to_string()),
                    "--shutdown" => s.shutdown = true,
                    tok if !tok.starts_with("--") => s.files.push(tok.to_string()),
                    tok => return Err(unexpected(tok)),
                }
            }
            if s.files.is_empty() && s.cancel.is_none() && !s.shutdown {
                return Err(ParseError(
                    "submit needs at least one FASTA file, --cancel or --shutdown".into(),
                ));
            }
            Ok(Args { command: Command::Submit(s) })
        }
        "--help" | "-h" | "help" => Ok(Args { command: Command::Help }),
        other => Err(ParseError(format!("unknown command {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse `argv` and unwrap the named command's options.
    macro_rules! parsed {
        ($command:ident, $argv:expr) => {
            match parse($argv).unwrap().command {
                Command::$command(args) => args,
                other => panic!("wrong command: {other:?}"),
            }
        };
    }

    #[test]
    fn align_defaults_and_flags() {
        let a = parsed!(Align, ["align", "in.fa"]);
        assert_eq!(a.input, "in.fa");
        assert_eq!(a.p, 4);
        assert_eq!(a.engine, EngineChoice::MuscleFast);
        assert_eq!(a.backend, Backend::Distributed);
        assert_eq!(a.parallelism(), 4);
        assert!(!a.no_fine_tune);
        let argv = [
            "align",
            "x.fa",
            "--p",
            "16",
            "--engine",
            "clustalw",
            "--backend",
            "rayon",
            "--no-fine-tune",
        ];
        let a = parsed!(Align, argv);
        assert_eq!(a.p, 16);
        assert_eq!(a.engine, EngineChoice::Clustal);
        assert_eq!(a.backend, Backend::Rayon);
        assert!(a.no_fine_tune);
    }

    #[test]
    fn align_requires_input() {
        assert!(parse(["align"]).is_err());
        assert!(parse(["align", "--p", "4"]).is_err());
    }

    #[test]
    fn backend_selection_and_width_flags() {
        let a = parsed!(Align, ["align", "x.fa", "--backend", "sequential"]);
        assert_eq!((a.backend, a.parallelism()), (Backend::Sequential, 1));
        let a = parsed!(Align, ["align", "x.fa", "--backend", "rayon", "--threads", "6"]);
        assert_eq!((a.threads, a.parallelism()), (Some(6), 6));
        let a = parsed!(Align, ["align", "x.fa", "--backend", "distributed", "--nodes", "8"]);
        assert_eq!((a.nodes, a.parallelism()), (Some(8), 8));
        let e = parse(["align", "x.fa", "--backend", "cluster"]).unwrap_err();
        assert_eq!(e.0, "unknown backend \"cluster\"");
    }

    #[test]
    fn shared_flags_parse_identically_on_every_command() {
        use Backend::{Distributed, Rayon, Sequential};
        // Command prefix and the backend it runs on without `--backend`.
        let commands: [(&[&str], Backend); 4] = [
            (&["align", "x.fa"], Distributed),
            (&["batch", "d/"], Sequential),
            (&["reads"], Rayon),
            (&["serve"], Sequential),
        ];
        let pipeline =
            |prefix: &[&str], flags: &[&str]| match parse([prefix, flags].concat())?.command {
                Command::Align(a) => Ok(a.pipeline),
                Command::Batch(b) => Ok(b.pipeline),
                Command::Reads(r) => Ok(r.pipeline),
                Command::Serve(s) => Ok(s.pipeline),
                other => panic!("{other:?} takes no pipeline flags"),
            };
        // What every command starts from (the backend aside): adaptive
        // band, exactness-audited kernel, the paper's k, no trim.
        let defaults = PipelineFlags {
            p: 4,
            threads: None,
            nodes: None,
            backend: Sequential,
            engine: EngineChoice::MuscleFast,
            no_fine_tune: false,
            kmer: None,
            band: BandPolicy::Auto,
            kernel: DpKernel::Auto,
            trim: false,
        };
        let with = |edit: fn(&mut PipelineFlags)| {
            let mut f = defaults.clone();
            edit(&mut f);
            f
        };

        // Accepted: flags, the parse, and — when the row names a backend —
        // that backend and the `parallelism()` it yields.
        type Accepted<'a> = (&'a [&'a str], PipelineFlags, Option<(Backend, usize)>);
        let accepted: [Accepted; 13] = [
            (&[], defaults.clone(), None),
            (&["--band", "auto"], with(|f| f.band = BandPolicy::Auto), None),
            (&["--band", "full"], with(|f| f.band = BandPolicy::Full), None),
            (&["--kernel", "scalar"], with(|f| f.kernel = DpKernel::Scalar), None),
            (&["--kernel", "auto"], with(|f| f.kernel = DpKernel::Auto), None),
            (&["--kmer", "2"], with(|f| f.kmer = Some(2)), None),
            (&["--trim"], with(|f| f.trim = true), None),
            (&["--no-fine-tune"], with(|f| f.no_fine_tune = true), None),
            (&["--engine", "clustalw"], with(|f| f.engine = EngineChoice::Clustal), None),
            (&["--backend", "sequential", "--p", "9"], with(|f| f.p = 9), Some((Sequential, 1))),
            (&["--backend", "rayon", "--p", "9"], with(|f| f.p = 9), Some((Rayon, 9))),
            (
                &["--backend", "rayon", "--threads", "6"],
                with(|f| f.threads = Some(6)),
                Some((Rayon, 6)),
            ),
            (
                &["--backend", "distributed", "--nodes", "8"],
                with(|f| f.nodes = Some(8)),
                Some((Distributed, 8)),
            ),
        ];
        for (flags, want, named) in &accepted {
            for (prefix, default_backend) in commands {
                let got = pipeline(prefix, flags)
                    .unwrap_or_else(|e: ParseError| panic!("{flags:?}: {e}"));
                let backend = named.map_or(default_backend, |(backend, _)| backend);
                assert_eq!(got, PipelineFlags { backend, ..want.clone() }, "{prefix:?} {flags:?}");
                if let Some((_, width)) = named {
                    assert_eq!(got.parallelism(), *width, "{prefix:?} {flags:?}");
                }
            }
        }

        // Rejected, with the same message whatever the command.
        const BAND: &str = "--band takes auto or full, not";
        const KERNEL: &str = "--kernel takes scalar or auto, not";
        const ZERO: &str = "--p/--threads/--nodes must be at least 1";
        const THREADS: &str = "--threads only applies to --backend rayon";
        const NODES: &str = "--nodes only applies to --backend distributed";
        let rejected: [(&[&str], String); 19] = [
            (&["--band", "64"], format!("{BAND} \"64\"")),
            (&["--band", "0"], format!("{BAND} \"0\"")),
            (&["--band", "wavefront"], format!("{BAND} \"wavefront\"")),
            (&["--band"], "--band needs a value".into()),
            (&["--kernel", "striped"], format!("{KERNEL} \"striped\"")),
            (&["--kernel", "avx"], format!("{KERNEL} \"avx\"")),
            (&["--kernel"], "--kernel needs a value".into()),
            (&["--kmer", "0"], "--kmer must be at least 1".into()),
            (&["--p", "0"], ZERO.into()),
            (&["--p", "many"], "--p: cannot parse \"many\"".into()),
            (&["--backend", "rayon", "--threads", "0"], ZERO.into()),
            (&["--backend", "distributed", "--nodes", "0"], ZERO.into()),
            (&["--backend", "sequential", "--threads", "4"], THREADS.into()),
            (&["--backend", "distributed", "--threads", "4"], THREADS.into()),
            (&["--backend", "rayon", "--nodes", "4"], NODES.into()),
            (&["--backend", "sequential", "--nodes", "4"], NODES.into()),
            (&["--backend", "warp"], "unknown backend \"warp\"".into()),
            (&["--backend", "cluster"], "unknown backend \"cluster\"".into()),
            (&["--engine", "t-coffee"], "unknown engine \"t-coffee\"".into()),
        ];
        for (flags, message) in &rejected {
            for (prefix, _) in commands {
                let err = pipeline(prefix, flags).expect_err(&format!("{prefix:?} {flags:?}"));
                assert_eq!(&err.0, message, "{prefix:?} {flags:?}");
            }
        }
    }

    #[test]
    fn progress_flag_parses() {
        assert!(!parsed!(Align, ["align", "x.fa"]).progress, "progress is opt-in");
        assert!(parsed!(Align, ["align", "x.fa", "--progress"]).progress);
    }

    #[test]
    fn vertical_flags_parse_and_validate() {
        // The retired `--vertical` still parses, on every backend, and sets
        // nothing but its own field; its two knobs are unknown arguments.
        let a = parsed!(Align, ["align", "x.fa"]);
        assert!(!a.vertical, "vertical is opt-in");
        for name in ["sequential", "rayon", "distributed"] {
            let plain = parsed!(Align, ["align", "x.fa", "--backend", name]);
            let a = parsed!(Align, ["align", "x.fa", "--vertical", "--backend", name]);
            assert!(a.vertical);
            assert_eq!(AlignArgs { vertical: false, ..a }, plain, "{name}");
        }
        for knob in [["--max-block", "256"], ["--seam-window", "8"]] {
            for vertical in [&[][..], &["--vertical"][..]] {
                let argv = ["align", "x.fa"].iter().chain(vertical).chain(&knob).copied();
                let err = parse(argv).unwrap_err();
                assert_eq!(err.0, format!("unexpected argument {:?}", knob[0]));
            }
        }
    }

    #[test]
    fn width_flags_must_match_backend() {
        assert!(parse(["align", "x.fa", "--threads", "4"]).is_err());
        assert!(parse(["align", "x.fa", "--backend", "rayon", "--nodes", "4"]).is_err());
        assert!(parse(["align", "x.fa", "--backend", "rayon", "--threads", "0"]).is_err());
        assert!(parse(["align", "x.fa", "--nodes", "0"]).is_err());
        // The retired `--vertical` does not move align's default backend,
        // so the rule judges it exactly as it judges plain `align`.
        let a = parsed!(Align, ["align", "x.fa", "--vertical", "--nodes", "2"]);
        assert_eq!((a.backend, a.parallelism()), (Backend::Distributed, 2));
        let err = parse(["align", "x.fa", "--vertical", "--threads", "2"]).unwrap_err();
        assert_eq!(err.0, "--threads only applies to --backend rayon");
    }

    #[test]
    fn batch_defaults_and_flags() {
        let b = parsed!(Batch, ["batch", "families/"]);
        assert_eq!(b.input, "families/");
        assert_eq!(b.out_dir, ".");
        assert_eq!(b.jobs, None);
        assert_eq!(b.backend, Backend::Sequential, "batch defaults to sequential jobs");
        assert_eq!(b.parallelism(), 1);
        assert!(!b.progress);
        let b = parsed!(
            Batch,
            [
                "batch",
                "list.manifest",
                "--out",
                "aligned/",
                "--jobs",
                "8",
                "--backend",
                "rayon",
                "--threads",
                "2",
                "--engine",
                "clustalw",
                "--band",
                "full",
                "--progress",
            ]
        );
        assert_eq!(b.input, "list.manifest");
        assert_eq!(b.out_dir, "aligned/");
        assert_eq!(b.jobs, Some(8));
        assert_eq!(b.backend, Backend::Rayon);
        assert_eq!(b.parallelism(), 2);
        assert_eq!(b.engine, EngineChoice::Clustal);
        assert_eq!(b.band, BandPolicy::Full);
        assert!(b.progress);
    }

    #[test]
    fn batch_rejects_bad_flags() {
        assert!(parse(["batch"]).is_err(), "input is required");
        assert!(parse(["batch", "d/", "--jobs", "0"]).is_err());
        assert!(parse(["batch", "d/", "--threads", "4"]).is_err(), "threads need rayon");
    }

    #[test]
    fn generate_parses_all_options() {
        let g = parsed!(
            Generate,
            [
                "generate",
                "--n",
                "50",
                "--len",
                "120",
                "--relatedness",
                "650.5",
                "--seed",
                "9",
                "--reference",
                "ref.fa",
            ]
        );
        assert_eq!(g.n, 50);
        assert_eq!(g.len, 120);
        assert_eq!(g.relatedness, 650.5);
        assert_eq!(g.seed, 9);
        assert_eq!(g.reference.as_deref(), Some("ref.fa"));
    }

    #[test]
    fn errors_carry_usage() {
        let err = parse(["bogus"]).unwrap_err();
        assert!(format!("{err}").contains("usage: sad"));
        // Simulation flags the generator cannot honour (it would panic or
        // never finish) are usage errors too.
        for bad in [
            ["generate", "--n", "0"],
            ["generate", "--len", "7"],
            ["generate", "--relatedness", "-1"],
            ["generate", "--relatedness", "nan"],
            ["generate", "--relatedness", "inf"],
        ] {
            let err = parse(bad).unwrap_err();
            assert!(format!("{err}").contains("usage: sad"), "{bad:?}");
        }
        assert!(parse(["generate", "--len", "8", "--relatedness", "0"]).is_ok());
        // The paper's tables and figures live in the `paper` bench target.
        for gone in ["scaling", "eval", "rank"] {
            assert_eq!(parse([gone]), Err(ParseError(format!("unknown command {gone:?}"))));
        }
    }

    #[test]
    fn help_is_a_command_not_an_error() {
        for word in ["--help", "-h", "help"] {
            assert_eq!(parse([word]), Ok(Args { command: Command::Help }), "{word}");
        }
        let mut out = Vec::new();
        crate::run(Args { command: Command::Help }, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), USAGE);
        // The shared block is spelled once, under its own heading.
        assert_eq!(USAGE.matches("--band").count(), 1);
        assert_eq!(USAGE.matches("[pipeline flags]").count(), 4);
        // A bare `sad` is still a usage error.
        assert_eq!(parse([]), Err(ParseError("missing command".into())));
    }

    #[test]
    fn serve_defaults_and_flags() {
        let s = parsed!(Serve, ["serve"]);
        assert_eq!(s.host, "127.0.0.1");
        assert_eq!(s.port, 7401);
        assert_eq!(s.journal, "sad-serve.journal.jsonl");
        assert_eq!(s.out_dir, ".");
        assert_eq!(s.workers, None);
        assert_eq!(s.queue, 32);
        assert_eq!(s.backend, Backend::Sequential);
        assert_eq!(s.parallelism(), 1);
        let s = parsed!(
            Serve,
            [
                "serve",
                "--port",
                "0",
                "--journal",
                "j.jsonl",
                "--out",
                "outdir/",
                "--workers",
                "4",
                "--queue",
                "8",
                "--backend",
                "rayon",
                "--threads",
                "2",
            ]
        );
        assert_eq!(s.port, 0);
        assert_eq!(s.journal, "j.jsonl");
        assert_eq!(s.out_dir, "outdir/");
        assert_eq!(s.workers, Some(4));
        assert_eq!(s.queue, 8);
        assert_eq!(s.backend, Backend::Rayon);
        assert_eq!(s.parallelism(), 2);
        assert!(parse(["serve", "--workers", "0"]).is_err());
        assert!(parse(["serve", "--queue", "0"]).is_err());
        assert!(parse(["serve", "--threads", "4"]).is_err(), "threads need rayon");
        assert!(parse(["serve", "extra.fa"]).is_err(), "serve takes no positional args");
    }

    #[test]
    fn submit_files_and_control_flags() {
        let s = parsed!(Submit, ["submit", "a.fa", "b.fa", "--priority", "2", "--out", "res/"]);
        assert_eq!(s.files, vec!["a.fa", "b.fa"]);
        assert_eq!(s.priority, 2);
        assert_eq!(s.out_dir.as_deref(), Some("res/"));
        assert_eq!(s.port, 7401);
        assert!(!s.shutdown);
        let s = parsed!(Submit, ["submit", "--cancel", "fam_a"]);
        assert!(s.files.is_empty());
        assert_eq!(s.cancel.as_deref(), Some("fam_a"));
        let s = parsed!(Submit, ["submit", "--shutdown", "--port", "9000"]);
        assert!(s.shutdown);
        assert_eq!(s.port, 9000);
        assert!(parse(["submit"]).is_err(), "needs files, --cancel or --shutdown");
    }

    #[test]
    fn reads_defaults_and_flags() {
        let r = parsed!(Reads, ["reads"]);
        assert_eq!(r.input, None, "no file means simulated input");
        assert_eq!(r.max_bucket, Some(512));
        assert_eq!(r.backend, Backend::Rayon, "reads defaults to rayon");
        assert_eq!(r.coverage, 8.0);
        assert_eq!(r.read_len, 90);
        assert_eq!(r.parallelism(), 4);
        assert!(!r.progress);
        let r = parsed!(
            Reads,
            [
                "reads",
                "reads.fa",
                "--max-bucket",
                "64",
                "--backend",
                "rayon",
                "--threads",
                "8",
                "--kmer",
                "3",
                "--band",
                "full",
                "--out",
                "aligned.fa",
            ]
        );
        assert_eq!(r.input.as_deref(), Some("reads.fa"));
        assert_eq!(r.max_bucket, Some(64));
        assert_eq!(r.parallelism(), 8);
        assert_eq!(r.kmer, Some(3));
        assert_eq!(r.band, BandPolicy::Full);
        assert_eq!(r.out.as_deref(), Some("aligned.fa"));
    }

    #[test]
    fn reads_simulation_and_gate_flags() {
        let r = parsed!(
            Reads,
            [
                "reads",
                "--reads",
                "500",
                "--coverage",
                "12",
                "--error-rate",
                "0.05",
                "--sources",
                "2",
                "--source-len",
                "300",
                "--seed",
                "7",
                "--min-q",
                "0.8",
                "--max-bucket",
                "none",
            ]
        );
        assert_eq!(r.reads, Some(500));
        assert_eq!(r.coverage, 12.0);
        assert_eq!(r.error_rate, 0.05);
        assert_eq!(r.sources, 2);
        assert_eq!(r.source_len, 300);
        assert_eq!(r.seed, 7);
        assert_eq!(r.min_q, Some(0.8));
        assert_eq!(r.max_bucket, None);
    }

    #[test]
    fn reads_rejects_bad_flags() {
        assert!(parse(["reads", "--max-bucket", "0"]).is_err());
        assert!(parse(["reads", "--reads", "0"]).is_err());
        assert!(parse(["reads", "--error-rate", "1.5"]).is_err());
        assert!(parse(["reads", "--coverage", "0"]).is_err());
        assert!(parse(["reads", "--coverage", "inf"]).is_err(), "would never finish");
        assert!(parse(["reads", "--coverage", "nan"]).is_err());
        assert!(parse(["reads", "--read-len", "0"]).is_err());
        assert!(parse(["reads", "--read-len", "29"]).is_err(), "below the simulator's min_len");
        assert!(parse(["reads", "--read-len", "30"]).is_ok());
        assert!(parse(["reads", "--source-len", "7"]).is_err(), "below rosegen's MIN_LEN");
        assert!(parse(["reads", "--source-len", "8"]).is_ok());
        assert!(parse(["reads", "--sources", "0"]).is_err());
        assert!(parse(["reads", "--min-q", "2"]).is_err());
        assert!(parse(["reads", "in.fa", "--min-q", "0.9"]).is_err(), "gate needs the truth");
        assert!(parse(["reads", "--nodes", "4"]).is_err(), "nodes need distributed");
    }

    #[test]
    fn reads_cap_parses_the_same_on_every_backend() {
        for backend in ["rayon", "distributed"] {
            let r = parsed!(Reads, ["reads", "--backend", backend]);
            assert_eq!(r.max_bucket, Some(512), "{backend}");
            let r = parsed!(Reads, ["reads", "--max-bucket", "64", "--backend", backend]);
            assert_eq!(r.max_bucket, Some(64), "{backend}");
        }
    }

    #[test]
    fn trim_defaults_and_flags() {
        let t = parsed!(Trim, ["trim", "aligned.fa"]);
        assert_eq!(t.input, "aligned.fa");
        assert_eq!(t.out, None);
        assert_eq!(t.max_dropped, None);
        assert!(!t.branch_bound);
        let t = parsed!(
            Trim,
            ["trim", "a.fa", "--out", "b.fa", "--max-dropped", "3", "--branch-bound"]
        );
        assert_eq!(t.out.as_deref(), Some("b.fa"));
        assert_eq!(t.max_dropped, Some(3));
        assert!(t.branch_bound);
        assert!(parse(["trim"]).is_err(), "input is required");
        assert!(parse(["trim", "a.fa", "--max-dropped"]).is_err(), "flag needs a value");
        assert!(parse(["trim", "a.fa", "--bogus"]).is_err());
    }

    #[test]
    fn trim_flag_parses_on_every_aligning_command() {
        assert!(!parsed!(Align, ["align", "x.fa"]).trim, "trim is opt-in");
        assert!(parsed!(Align, ["align", "x.fa", "--trim"]).trim);
        assert!(parsed!(Batch, ["batch", "d/", "--trim"]).trim);
        assert!(parsed!(Reads, ["reads", "--trim"]).trim);
        assert!(parsed!(Serve, ["serve", "--trim"]).trim);
        assert!(!parsed!(Serve, ["serve"]).trim, "trim is opt-in when serving too");
    }

    #[test]
    fn serve_cache_budget_flag() {
        assert_eq!(parsed!(Serve, ["serve"]).cache_mb, 64);
        assert_eq!(parsed!(Serve, ["serve", "--cache-mb", "8"]).cache_mb, 8);
        assert!(parse(["serve", "--cache-mb", "x"]).is_err());
    }
}
