//! Hand-rolled argument parsing (keeps the dependency set to the approved
//! crates).

use align::{BandPolicy, DpKernel, EngineChoice};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The selected subcommand with its options.
    pub command: Command,
}

/// One subcommand.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `sad align <in.fasta> [--backend B] [--p N] [--threads N] [--nodes N]
    /// [--engine E] [--no-fine-tune] [--kernel K] [--progress]
    /// [--vertical [--max-block N] [--seam-window W]]`
    Align(AlignArgs),
    /// `sad batch <dir-or-manifest> [--out DIR] [--jobs N] [--backend B]
    /// [--p N] [--threads N] [--nodes N] [--engine E] [--no-fine-tune]
    /// [--kmer K] [--band B] [--kernel K] [--progress]`
    Batch(BatchArgs),
    /// `sad reads [in.fasta] [--reads N] [--coverage C] [--read-len L]
    /// [--error-rate E] [--sources N] [--source-len L] [--seed S]
    /// [--max-bucket N|none] [--min-q Q] [--out FILE] [--backend B]
    /// [--p N] [--threads N] [--nodes N] [--engine E] [--kmer K]
    /// [--band B] [--kernel K] [--no-fine-tune] [--progress]`
    Reads(ReadsArgs),
    /// `sad trim <aligned.fa> [--out FILE] [--max-dropped N]
    /// [--branch-bound]`
    Trim(TrimArgs),
    /// `sad generate [--n N] [--len L] [--relatedness R] [--seed S] [--reference PATH]`
    Generate(GenerateArgs),
    /// `sad scaling [--n N] [--procs 1,4,8,16]`
    Scaling(ScalingArgs),
    /// `sad eval [--cases C] [--p N]`
    Eval(EvalArgs),
    /// `sad rank <in.fasta> [--p N]`
    Rank(RankArgs),
    /// `sad serve [--host H] [--port N] [--journal FILE] [--out DIR]
    /// [--workers N] [--queue N] [--backend B] [--p N] [--threads N]
    /// [--nodes N] [--engine E] [--kmer K] [--band B] [--kernel K]
    /// [--no-fine-tune]`
    Serve(ServeArgs),
    /// `sad submit <files...> [--host H] [--port N] [--out DIR]
    /// [--priority N] [--cancel ID] [--shutdown]`
    Submit(SubmitArgs),
}

/// Options of `sad align`.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignArgs {
    /// Input FASTA path.
    pub input: String,
    /// Generic parallelism (`--p`): ranks/buckets when no backend-specific
    /// flag is given.
    pub p: usize,
    /// Rayon bucket count (`--threads`), overriding `--p`.
    pub threads: Option<usize>,
    /// Virtual cluster size (`--nodes`), overriding `--p`.
    pub nodes: Option<usize>,
    /// Engine selection.
    pub engine: EngineChoice,
    /// Execution backend.
    pub backend: Backend,
    /// Disable the ancestor fine-tuning step.
    pub no_fine_tune: bool,
    /// k-mer length override (`--kmer`); `None` keeps the paper default.
    /// Inputs with sequences shorter than the k-mer length are rejected,
    /// so short-read files need a smaller `k`.
    pub kmer: Option<usize>,
    /// DP kernel band policy (`--band auto|full|<width>`).
    pub band: BandPolicy,
    /// DP kernel variant (`--kernel scalar|striped|auto`).
    pub kernel: DpKernel,
    /// Stream a live per-phase progress display to stderr (`--progress`),
    /// built on the pipeline observer API.
    pub progress: bool,
    /// Vertical (length-wise) decomposition (`--vertical`): cut the
    /// family at conserved anchors, align the blocks in parallel, glue
    /// and seam-polish. Sequential and rayon backends only.
    pub vertical: bool,
    /// Vertical block-length cap (`--max-block N`; requires `--vertical`).
    pub max_block: Option<usize>,
    /// Seam-polish half-window (`--seam-window W`; requires `--vertical`;
    /// `0` disables seam refinement).
    pub seam_window: Option<usize>,
    /// Run the MaxAlign-style area-maximizing trim stage on the finished
    /// alignment (`--trim`).
    pub trim: bool,
}

impl AlignArgs {
    /// Effective decomposition width for the selected backend.
    pub fn parallelism(&self) -> usize {
        match self.backend {
            Backend::Sequential => 1,
            Backend::Rayon => self.threads.unwrap_or(self.p),
            Backend::Distributed => self.nodes.unwrap_or(self.p),
        }
    }
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
    /// Generic per-job parallelism (`--p`), as in `sad align`.
    pub p: usize,
    /// Rayon bucket count (`--threads`), overriding `--p`.
    pub threads: Option<usize>,
    /// Virtual cluster size (`--nodes`), overriding `--p`.
    pub nodes: Option<usize>,
    /// Engine selection.
    pub engine: EngineChoice,
    /// Per-job execution backend. Unlike `sad align` this defaults to
    /// `sequential`: batch throughput comes from running jobs
    /// concurrently (`--jobs`), not from decomposing each job.
    pub backend: Backend,
    /// Disable the ancestor fine-tuning step.
    pub no_fine_tune: bool,
    /// k-mer length override (`--kmer`).
    pub kmer: Option<usize>,
    /// DP kernel band policy (`--band auto|full|<width>`).
    pub band: BandPolicy,
    /// DP kernel variant (`--kernel scalar|striped|auto`).
    pub kernel: DpKernel,
    /// Stream job/phase progress to stderr (`--progress`).
    pub progress: bool,
    /// Run the area-maximizing trim stage on every job's alignment
    /// (`--trim`).
    pub trim: bool,
}

impl BatchArgs {
    /// Effective per-job decomposition width for the selected backend.
    pub fn parallelism(&self) -> usize {
        match self.backend {
            Backend::Sequential => 1,
            Backend::Rayon => self.threads.unwrap_or(self.p),
            Backend::Distributed => self.nodes.unwrap_or(self.p),
        }
    }
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
    /// Generic parallelism (`--p`): lower bound on the bucket count.
    pub p: usize,
    /// Rayon bucket count (`--threads`), overriding `--p`.
    pub threads: Option<usize>,
    /// Virtual cluster size (`--nodes`), overriding `--p`.
    pub nodes: Option<usize>,
    /// Engine selection.
    pub engine: EngineChoice,
    /// Execution backend; defaults to `rayon`.
    pub backend: Backend,
    /// Disable the ancestor fine-tuning step.
    pub no_fine_tune: bool,
    /// k-mer length override (`--kmer`); reads shorter than `k` are
    /// rejected, so very short reads need a smaller `k`.
    pub kmer: Option<usize>,
    /// DP kernel band policy (`--band auto|full|<width>`).
    pub band: BandPolicy,
    /// DP kernel variant (`--kernel scalar|striped|auto`).
    pub kernel: DpKernel,
    /// Stream a live per-phase progress display to stderr (`--progress`).
    pub progress: bool,
    /// Run the area-maximizing trim stage on the finished alignment
    /// (`--trim`).
    pub trim: bool,
}

impl ReadsArgs {
    /// User-requested decomposition width for the selected backend (the
    /// command widens this to `reads / max_bucket` so first-pass blocks
    /// already approach the cap).
    pub fn parallelism(&self) -> usize {
        match self.backend {
            Backend::Sequential => 1,
            Backend::Rayon => self.threads.unwrap_or(self.p),
            Backend::Distributed => self.nodes.unwrap_or(self.p),
        }
    }
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

/// Options of `sad scaling`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingArgs {
    /// Number of sequences.
    pub n: usize,
    /// Processor counts to sweep.
    pub procs: Vec<usize>,
}

/// Options of `sad eval`.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalArgs {
    /// Number of benchmark cases.
    pub cases: usize,
    /// Cluster size for the Sample-Align-D row.
    pub p: usize,
}

/// Options of `sad rank`.
#[derive(Debug, Clone, PartialEq)]
pub struct RankArgs {
    /// Input FASTA path.
    pub input: String,
    /// Emulated processor count for the globalized rank.
    pub p: usize,
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
    /// Per-job execution backend; defaults to `sequential` like `sad
    /// batch` (throughput comes from `--workers`, not per-job width).
    pub backend: Backend,
    /// Generic per-job parallelism (`--p`), as in `sad align`.
    pub p: usize,
    /// Rayon bucket count (`--threads`), overriding `--p`.
    pub threads: Option<usize>,
    /// Virtual cluster size (`--nodes`), overriding `--p`.
    pub nodes: Option<usize>,
    /// Engine selection.
    pub engine: EngineChoice,
    /// k-mer length override (`--kmer`).
    pub kmer: Option<usize>,
    /// DP kernel band policy (`--band auto|full|<width>`).
    pub band: BandPolicy,
    /// DP kernel variant (`--kernel scalar|striped|auto`).
    pub kernel: DpKernel,
    /// Disable the ancestor fine-tuning step.
    pub no_fine_tune: bool,
}

impl ServeArgs {
    /// Effective per-job decomposition width for the selected backend.
    pub fn parallelism(&self) -> usize {
        match self.backend {
            Backend::Sequential => 1,
            Backend::Rayon => self.threads.unwrap_or(self.p),
            Backend::Distributed => self.nodes.unwrap_or(self.p),
        }
    }
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
  align <in.fasta> [--backend sequential|rayon|distributed] [--p N]
                   [--threads N] [--nodes N] [--no-fine-tune] [--kmer K]
                   [--engine muscle-fast|muscle|clustalw]
                   [--band auto|full|<width>]
                   [--kernel scalar|striped|auto] [--progress] [--trim]
                   [--vertical [--max-block N] [--seam-window W]]
                   (--vertical needs sequential or rayon; defaults to rayon)
  batch <dir|manifest> [--out DIR] [--jobs N]
                   [--backend sequential|rayon|distributed] [--p N]
                   [--threads N] [--nodes N] [--no-fine-tune] [--kmer K]
                   [--engine muscle-fast|muscle|clustalw]
                   [--band auto|full|<width>]
                   [--kernel scalar|striped|auto] [--progress] [--trim]
  reads [in.fasta] [--reads N] [--coverage C] [--read-len L] [--error-rate E]
                   [--sources N] [--source-len L] [--seed S]
                   [--max-bucket N|none] [--min-q Q] [--out FILE]
                   [--backend sequential|rayon|distributed] [--p N]
                   [--threads N] [--nodes N] [--no-fine-tune] [--kmer K]
                   [--engine muscle-fast|muscle|clustalw]
                   [--band auto|full|<width>]
                   [--kernel scalar|striped|auto] [--progress] [--trim]
  trim <aligned.fa> [--out FILE] [--max-dropped N] [--branch-bound]
  generate [--n N] [--len L] [--relatedness R] [--seed S] [--reference PATH]
  scaling  [--n N] [--procs 1,4,8,16]
  eval     [--cases C] [--p N]
  rank <in.fasta> [--p N]
  serve    [--host H] [--port N] [--journal FILE] [--out DIR] [--workers N]
                   [--queue N] [--cache-mb N]
                   [--backend sequential|rayon|distributed]
                   [--p N] [--threads N] [--nodes N] [--no-fine-tune]
                   [--kmer K] [--engine muscle-fast|muscle|clustalw]
                   [--band auto|full|<width>]
                   [--kernel scalar|striped|auto]
  submit <files...> [--host H] [--port N] [--out DIR] [--priority N]
                   [--cancel ID] [--shutdown]
";

fn take_value<'a, I: Iterator<Item = &'a str>>(
    flag: &str,
    it: &mut I,
) -> Result<&'a str, ParseError> {
    it.next().ok_or_else(|| ParseError(format!("{flag} needs a value")))
}

/// `--threads` and `--nodes` each name one backend's width; reject them
/// anywhere else instead of silently ignoring them.
fn check_width_flags(
    backend: Backend,
    threads: Option<usize>,
    nodes: Option<usize>,
) -> Result<(), ParseError> {
    if threads.is_some() && backend != Backend::Rayon {
        return Err(ParseError("--threads only applies to --backend rayon".into()));
    }
    if nodes.is_some() && backend != Backend::Distributed {
        return Err(ParseError("--nodes only applies to --backend distributed".into()));
    }
    Ok(())
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, ParseError> {
    v.parse().map_err(|_| ParseError(format!("{flag}: cannot parse {v:?}")))
}

fn parse_engine(v: &str) -> Result<EngineChoice, ParseError> {
    EngineChoice::from_label(v).ok_or_else(|| ParseError(format!("unknown engine {v:?}")))
}

fn parse_kernel(v: &str) -> Result<DpKernel, ParseError> {
    DpKernel::parse(v)
        .ok_or_else(|| ParseError(format!("--kernel takes scalar, striped or auto, not {v:?}")))
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
                p: 4,
                threads: None,
                nodes: None,
                engine: EngineChoice::MuscleFast,
                backend: Backend::Distributed,
                no_fine_tune: false,
                kmer: None,
                band: BandPolicy::default(),
                kernel: DpKernel::default(),
                progress: false,
                vertical: false,
                max_block: None,
                seam_window: None,
                trim: false,
            };
            let mut backend_set = false;
            while let Some(tok) = it.next() {
                match tok {
                    "--p" => a.p = parse_num("--p", take_value("--p", &mut it)?)?,
                    "--vertical" => a.vertical = true,
                    "--max-block" => {
                        a.max_block =
                            Some(parse_num("--max-block", take_value("--max-block", &mut it)?)?)
                    }
                    "--seam-window" => {
                        a.seam_window =
                            Some(parse_num("--seam-window", take_value("--seam-window", &mut it)?)?)
                    }
                    "--kmer" => a.kmer = Some(parse_num("--kmer", take_value("--kmer", &mut it)?)?),
                    "--band" => {
                        let v = take_value("--band", &mut it)?;
                        a.band = BandPolicy::parse(v).ok_or_else(|| {
                            ParseError(format!(
                                "--band takes auto, full or a positive width, not {v:?}"
                            ))
                        })?;
                    }
                    "--kernel" => a.kernel = parse_kernel(take_value("--kernel", &mut it)?)?,
                    "--threads" => {
                        a.threads = Some(parse_num("--threads", take_value("--threads", &mut it)?)?)
                    }
                    "--nodes" => {
                        a.nodes = Some(parse_num("--nodes", take_value("--nodes", &mut it)?)?)
                    }
                    "--engine" => a.engine = parse_engine(take_value("--engine", &mut it)?)?,
                    "--backend" => {
                        backend_set = true;
                        a.backend = match take_value("--backend", &mut it)? {
                            "sequential" => Backend::Sequential,
                            "rayon" => Backend::Rayon,
                            // "cluster" kept as a pre-0.2 alias.
                            "distributed" | "cluster" => Backend::Distributed,
                            other => return Err(ParseError(format!("unknown backend {other:?}"))),
                        }
                    }
                    "--no-fine-tune" => a.no_fine_tune = true,
                    "--progress" => a.progress = true,
                    "--trim" => a.trim = true,
                    other if !other.starts_with("--") && input.is_none() => {
                        input = Some(other.to_string())
                    }
                    other => return Err(ParseError(format!("unexpected argument {other:?}"))),
                }
            }
            a.input = input.ok_or_else(|| ParseError("align needs an input file".into()))?;
            if a.p == 0 || a.threads == Some(0) || a.nodes == Some(0) {
                return Err(ParseError("--p/--threads/--nodes must be at least 1".into()));
            }
            if a.kmer == Some(0) {
                return Err(ParseError("--kmer must be at least 1".into()));
            }
            check_width_flags(a.backend, a.threads, a.nodes)?;
            if !a.vertical && (a.max_block.is_some() || a.seam_window.is_some()) {
                return Err(ParseError("--max-block/--seam-window require --vertical".into()));
            }
            if a.max_block == Some(0) {
                return Err(ParseError("--max-block must be at least 1".into()));
            }
            if a.vertical {
                if a.backend == Backend::Distributed && backend_set {
                    return Err(ParseError(
                        "--vertical is not supported on the distributed backend \
                         (use --backend sequential or rayon)"
                            .into(),
                    ));
                }
                if !backend_set {
                    // The distributed default rejects vertical mode; run the
                    // blocks on the shared-memory pool instead.
                    a.backend = Backend::Rayon;
                }
            }
            Ok(Args { command: Command::Align(a) })
        }
        "batch" => {
            let mut input = None;
            let mut b = BatchArgs {
                input: String::new(),
                out_dir: ".".into(),
                jobs: None,
                p: 4,
                threads: None,
                nodes: None,
                engine: EngineChoice::MuscleFast,
                backend: Backend::Sequential,
                no_fine_tune: false,
                kmer: None,
                band: BandPolicy::default(),
                kernel: DpKernel::default(),
                progress: false,
                trim: false,
            };
            while let Some(tok) = it.next() {
                match tok {
                    "--out" => b.out_dir = take_value("--out", &mut it)?.to_string(),
                    "--jobs" => b.jobs = Some(parse_num("--jobs", take_value("--jobs", &mut it)?)?),
                    "--p" => b.p = parse_num("--p", take_value("--p", &mut it)?)?,
                    "--kmer" => b.kmer = Some(parse_num("--kmer", take_value("--kmer", &mut it)?)?),
                    "--band" => {
                        let v = take_value("--band", &mut it)?;
                        b.band = BandPolicy::parse(v).ok_or_else(|| {
                            ParseError(format!(
                                "--band takes auto, full or a positive width, not {v:?}"
                            ))
                        })?;
                    }
                    "--kernel" => b.kernel = parse_kernel(take_value("--kernel", &mut it)?)?,
                    "--threads" => {
                        b.threads = Some(parse_num("--threads", take_value("--threads", &mut it)?)?)
                    }
                    "--nodes" => {
                        b.nodes = Some(parse_num("--nodes", take_value("--nodes", &mut it)?)?)
                    }
                    "--engine" => b.engine = parse_engine(take_value("--engine", &mut it)?)?,
                    "--backend" => {
                        b.backend = match take_value("--backend", &mut it)? {
                            "sequential" => Backend::Sequential,
                            "rayon" => Backend::Rayon,
                            "distributed" | "cluster" => Backend::Distributed,
                            other => return Err(ParseError(format!("unknown backend {other:?}"))),
                        }
                    }
                    "--no-fine-tune" => b.no_fine_tune = true,
                    "--progress" => b.progress = true,
                    "--trim" => b.trim = true,
                    other if !other.starts_with("--") && input.is_none() => {
                        input = Some(other.to_string())
                    }
                    other => return Err(ParseError(format!("unexpected argument {other:?}"))),
                }
            }
            b.input =
                input.ok_or_else(|| ParseError("batch needs a directory or manifest".into()))?;
            if b.p == 0 || b.threads == Some(0) || b.nodes == Some(0) {
                return Err(ParseError("--p/--threads/--nodes must be at least 1".into()));
            }
            if b.jobs == Some(0) {
                return Err(ParseError("--jobs must be at least 1".into()));
            }
            if b.kmer == Some(0) {
                return Err(ParseError("--kmer must be at least 1".into()));
            }
            check_width_flags(b.backend, b.threads, b.nodes)?;
            Ok(Args { command: Command::Batch(b) })
        }
        "reads" => {
            let mut input = None;
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
                p: 4,
                threads: None,
                nodes: None,
                engine: EngineChoice::MuscleFast,
                backend: Backend::Rayon,
                no_fine_tune: false,
                kmer: None,
                band: BandPolicy::default(),
                kernel: DpKernel::default(),
                progress: false,
                trim: false,
            };
            while let Some(tok) = it.next() {
                match tok {
                    "--max-bucket" => {
                        r.max_bucket = match take_value("--max-bucket", &mut it)? {
                            "none" => None,
                            v => Some(parse_num("--max-bucket", v)?),
                        }
                    }
                    "--reads" => {
                        r.reads = Some(parse_num("--reads", take_value("--reads", &mut it)?)?)
                    }
                    "--coverage" => {
                        r.coverage = parse_num("--coverage", take_value("--coverage", &mut it)?)?
                    }
                    "--read-len" => {
                        r.read_len = parse_num("--read-len", take_value("--read-len", &mut it)?)?
                    }
                    "--error-rate" => {
                        r.error_rate =
                            parse_num("--error-rate", take_value("--error-rate", &mut it)?)?
                    }
                    "--sources" => {
                        r.sources = parse_num("--sources", take_value("--sources", &mut it)?)?
                    }
                    "--source-len" => {
                        r.source_len =
                            parse_num("--source-len", take_value("--source-len", &mut it)?)?
                    }
                    "--seed" => r.seed = parse_num("--seed", take_value("--seed", &mut it)?)?,
                    "--min-q" => {
                        r.min_q = Some(parse_num("--min-q", take_value("--min-q", &mut it)?)?)
                    }
                    "--out" => r.out = Some(take_value("--out", &mut it)?.to_string()),
                    "--p" => r.p = parse_num("--p", take_value("--p", &mut it)?)?,
                    "--kmer" => r.kmer = Some(parse_num("--kmer", take_value("--kmer", &mut it)?)?),
                    "--band" => {
                        let v = take_value("--band", &mut it)?;
                        r.band = BandPolicy::parse(v).ok_or_else(|| {
                            ParseError(format!(
                                "--band takes auto, full or a positive width, not {v:?}"
                            ))
                        })?;
                    }
                    "--kernel" => r.kernel = parse_kernel(take_value("--kernel", &mut it)?)?,
                    "--threads" => {
                        r.threads = Some(parse_num("--threads", take_value("--threads", &mut it)?)?)
                    }
                    "--nodes" => {
                        r.nodes = Some(parse_num("--nodes", take_value("--nodes", &mut it)?)?)
                    }
                    "--engine" => r.engine = parse_engine(take_value("--engine", &mut it)?)?,
                    "--backend" => {
                        r.backend = match take_value("--backend", &mut it)? {
                            "sequential" => Backend::Sequential,
                            "rayon" => Backend::Rayon,
                            "distributed" | "cluster" => Backend::Distributed,
                            other => return Err(ParseError(format!("unknown backend {other:?}"))),
                        }
                    }
                    "--no-fine-tune" => r.no_fine_tune = true,
                    "--progress" => r.progress = true,
                    "--trim" => r.trim = true,
                    other if !other.starts_with("--") && input.is_none() => {
                        input = Some(other.to_string())
                    }
                    other => return Err(ParseError(format!("unexpected argument {other:?}"))),
                }
            }
            r.input = input;
            if r.p == 0 || r.threads == Some(0) || r.nodes == Some(0) {
                return Err(ParseError("--p/--threads/--nodes must be at least 1".into()));
            }
            if r.max_bucket == Some(0) {
                return Err(ParseError("--max-bucket must be at least 1 (or none)".into()));
            }
            if r.reads == Some(0) {
                return Err(ParseError("--reads must be at least 1".into()));
            }
            if r.kmer == Some(0) {
                return Err(ParseError("--kmer must be at least 1".into()));
            }
            if r.read_len == 0 || r.sources == 0 || r.source_len == 0 {
                return Err(ParseError(
                    "--read-len/--sources/--source-len must be at least 1".into(),
                ));
            }
            if !(0.0..1.0).contains(&r.error_rate) {
                return Err(ParseError("--error-rate must be in [0, 1)".into()));
            }
            if r.coverage <= 0.0 {
                return Err(ParseError("--coverage must be positive".into()));
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
            check_width_flags(r.backend, r.threads, r.nodes)?;
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
                    "--out" => t.out = Some(take_value("--out", &mut it)?.to_string()),
                    "--max-dropped" => {
                        t.max_dropped =
                            Some(parse_num("--max-dropped", take_value("--max-dropped", &mut it)?)?)
                    }
                    "--branch-bound" => t.branch_bound = true,
                    other if !other.starts_with("--") && input.is_none() => {
                        input = Some(other.to_string())
                    }
                    other => return Err(ParseError(format!("unexpected argument {other:?}"))),
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
                    "--n" => g.n = parse_num("--n", take_value("--n", &mut it)?)?,
                    "--len" => g.len = parse_num("--len", take_value("--len", &mut it)?)?,
                    "--relatedness" => {
                        g.relatedness =
                            parse_num("--relatedness", take_value("--relatedness", &mut it)?)?
                    }
                    "--seed" => g.seed = parse_num("--seed", take_value("--seed", &mut it)?)?,
                    "--reference" => {
                        g.reference = Some(take_value("--reference", &mut it)?.to_string())
                    }
                    other => return Err(ParseError(format!("unexpected argument {other:?}"))),
                }
            }
            Ok(Args { command: Command::Generate(g) })
        }
        "scaling" => {
            let mut s = ScalingArgs { n: 400, procs: vec![1, 4, 8, 12, 16] };
            while let Some(tok) = it.next() {
                match tok {
                    "--n" => s.n = parse_num("--n", take_value("--n", &mut it)?)?,
                    "--procs" => {
                        let v = take_value("--procs", &mut it)?;
                        s.procs = v
                            .split(',')
                            .map(|x| parse_num::<usize>("--procs", x))
                            .collect::<Result<_, _>>()?;
                        if s.procs.is_empty() || s.procs.contains(&0) {
                            return Err(ParseError("--procs must be positive".into()));
                        }
                    }
                    other => return Err(ParseError(format!("unexpected argument {other:?}"))),
                }
            }
            Ok(Args { command: Command::Scaling(s) })
        }
        "eval" => {
            let mut e = EvalArgs { cases: 8, p: 4 };
            while let Some(tok) = it.next() {
                match tok {
                    "--cases" => e.cases = parse_num("--cases", take_value("--cases", &mut it)?)?,
                    "--p" => e.p = parse_num("--p", take_value("--p", &mut it)?)?,
                    other => return Err(ParseError(format!("unexpected argument {other:?}"))),
                }
            }
            Ok(Args { command: Command::Eval(e) })
        }
        "rank" => {
            let mut input = None;
            let mut r = RankArgs { input: String::new(), p: 8 };
            while let Some(tok) = it.next() {
                match tok {
                    "--p" => r.p = parse_num("--p", take_value("--p", &mut it)?)?,
                    other if !other.starts_with("--") && input.is_none() => {
                        input = Some(other.to_string())
                    }
                    other => return Err(ParseError(format!("unexpected argument {other:?}"))),
                }
            }
            r.input = input.ok_or_else(|| ParseError("rank needs an input file".into()))?;
            Ok(Args { command: Command::Rank(r) })
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
                backend: Backend::Sequential,
                p: 4,
                threads: None,
                nodes: None,
                engine: EngineChoice::MuscleFast,
                kmer: None,
                band: BandPolicy::default(),
                kernel: DpKernel::default(),
                no_fine_tune: false,
            };
            while let Some(tok) = it.next() {
                match tok {
                    "--host" => s.host = take_value("--host", &mut it)?.to_string(),
                    "--port" => s.port = parse_num("--port", take_value("--port", &mut it)?)?,
                    "--journal" => s.journal = take_value("--journal", &mut it)?.to_string(),
                    "--out" => s.out_dir = take_value("--out", &mut it)?.to_string(),
                    "--workers" => {
                        s.workers = Some(parse_num("--workers", take_value("--workers", &mut it)?)?)
                    }
                    "--queue" => s.queue = parse_num("--queue", take_value("--queue", &mut it)?)?,
                    "--cache-mb" => {
                        s.cache_mb = parse_num("--cache-mb", take_value("--cache-mb", &mut it)?)?
                    }
                    "--p" => s.p = parse_num("--p", take_value("--p", &mut it)?)?,
                    "--kmer" => s.kmer = Some(parse_num("--kmer", take_value("--kmer", &mut it)?)?),
                    "--band" => {
                        let v = take_value("--band", &mut it)?;
                        s.band = BandPolicy::parse(v).ok_or_else(|| {
                            ParseError(format!(
                                "--band takes auto, full or a positive width, not {v:?}"
                            ))
                        })?;
                    }
                    "--kernel" => s.kernel = parse_kernel(take_value("--kernel", &mut it)?)?,
                    "--threads" => {
                        s.threads = Some(parse_num("--threads", take_value("--threads", &mut it)?)?)
                    }
                    "--nodes" => {
                        s.nodes = Some(parse_num("--nodes", take_value("--nodes", &mut it)?)?)
                    }
                    "--engine" => s.engine = parse_engine(take_value("--engine", &mut it)?)?,
                    "--backend" => {
                        s.backend = match take_value("--backend", &mut it)? {
                            "sequential" => Backend::Sequential,
                            "rayon" => Backend::Rayon,
                            "distributed" | "cluster" => Backend::Distributed,
                            other => return Err(ParseError(format!("unknown backend {other:?}"))),
                        }
                    }
                    "--no-fine-tune" => s.no_fine_tune = true,
                    other => return Err(ParseError(format!("unexpected argument {other:?}"))),
                }
            }
            if s.p == 0 || s.threads == Some(0) || s.nodes == Some(0) {
                return Err(ParseError("--p/--threads/--nodes must be at least 1".into()));
            }
            if s.workers == Some(0) {
                return Err(ParseError("--workers must be at least 1".into()));
            }
            if s.queue == 0 {
                return Err(ParseError("--queue must be at least 1".into()));
            }
            if s.kmer == Some(0) {
                return Err(ParseError("--kmer must be at least 1".into()));
            }
            check_width_flags(s.backend, s.threads, s.nodes)?;
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
                    "--host" => s.host = take_value("--host", &mut it)?.to_string(),
                    "--port" => s.port = parse_num("--port", take_value("--port", &mut it)?)?,
                    "--out" => s.out_dir = Some(take_value("--out", &mut it)?.to_string()),
                    "--priority" => {
                        s.priority = parse_num("--priority", take_value("--priority", &mut it)?)?
                    }
                    "--cancel" => s.cancel = Some(take_value("--cancel", &mut it)?.to_string()),
                    "--shutdown" => s.shutdown = true,
                    other if !other.starts_with("--") => s.files.push(other.to_string()),
                    other => return Err(ParseError(format!("unexpected argument {other:?}"))),
                }
            }
            if s.files.is_empty() && s.cancel.is_none() && !s.shutdown {
                return Err(ParseError(
                    "submit needs at least one FASTA file, --cancel or --shutdown".into(),
                ));
            }
            Ok(Args { command: Command::Submit(s) })
        }
        "--help" | "-h" | "help" => Err(ParseError("".into())),
        other => Err(ParseError(format!("unknown command {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_defaults_and_flags() {
        let a = parse(["align", "in.fa"]).unwrap();
        match a.command {
            Command::Align(a) => {
                assert_eq!(a.input, "in.fa");
                assert_eq!(a.p, 4);
                assert_eq!(a.engine, EngineChoice::MuscleFast);
                assert_eq!(a.backend, Backend::Distributed);
                assert_eq!(a.parallelism(), 4);
                assert!(!a.no_fine_tune);
            }
            _ => panic!("wrong command"),
        }
        let a = parse([
            "align",
            "x.fa",
            "--p",
            "16",
            "--engine",
            "clustalw",
            "--backend",
            "rayon",
            "--no-fine-tune",
        ])
        .unwrap();
        match a.command {
            Command::Align(a) => {
                assert_eq!(a.p, 16);
                assert_eq!(a.engine, EngineChoice::Clustal);
                assert_eq!(a.backend, Backend::Rayon);
                assert!(a.no_fine_tune);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn align_requires_input() {
        assert!(parse(["align"]).is_err());
        assert!(parse(["align", "--p", "4"]).is_err());
    }

    #[test]
    fn backend_selection_and_width_flags() {
        let a = parse(["align", "x.fa", "--backend", "sequential"]).unwrap();
        match a.command {
            Command::Align(a) => {
                assert_eq!(a.backend, Backend::Sequential);
                assert_eq!(a.parallelism(), 1);
            }
            _ => panic!("wrong command"),
        }
        let a = parse(["align", "x.fa", "--backend", "rayon", "--threads", "6"]).unwrap();
        match a.command {
            Command::Align(a) => {
                assert_eq!(a.threads, Some(6));
                assert_eq!(a.parallelism(), 6);
            }
            _ => panic!("wrong command"),
        }
        let a = parse(["align", "x.fa", "--backend", "distributed", "--nodes", "8"]).unwrap();
        match a.command {
            Command::Align(a) => {
                assert_eq!(a.nodes, Some(8));
                assert_eq!(a.parallelism(), 8);
            }
            _ => panic!("wrong command"),
        }
        // "cluster" stays as a pre-0.2 alias for distributed.
        let a = parse(["align", "x.fa", "--backend", "cluster"]).unwrap();
        match a.command {
            Command::Align(a) => assert_eq!(a.backend, Backend::Distributed),
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn band_flag_parses_and_rejects_nonsense() {
        // Default is the adaptive kernel.
        match parse(["align", "x.fa"]).unwrap().command {
            Command::Align(a) => assert_eq!(a.band, BandPolicy::Auto),
            _ => panic!("wrong command"),
        }
        for (text, want) in
            [("auto", BandPolicy::Auto), ("full", BandPolicy::Full), ("64", BandPolicy::Fixed(64))]
        {
            match parse(["align", "x.fa", "--band", text]).unwrap().command {
                Command::Align(a) => assert_eq!(a.band, want, "{text}"),
                _ => panic!("wrong command"),
            }
        }
        assert!(parse(["align", "x.fa", "--band", "0"]).is_err());
        assert!(parse(["align", "x.fa", "--band", "wavefront"]).is_err());
        assert!(parse(["align", "x.fa", "--band"]).is_err());
    }

    #[test]
    fn kernel_flag_parses_and_rejects_nonsense() {
        // Default is the adaptive (exactness-audited) kernel.
        match parse(["align", "x.fa"]).unwrap().command {
            Command::Align(a) => assert_eq!(a.kernel, DpKernel::Auto),
            _ => panic!("wrong command"),
        }
        for (text, want) in
            [("scalar", DpKernel::Scalar), ("striped", DpKernel::Striped), ("auto", DpKernel::Auto)]
        {
            match parse(["align", "x.fa", "--kernel", text]).unwrap().command {
                Command::Align(a) => assert_eq!(a.kernel, want, "{text}"),
                _ => panic!("wrong command"),
            }
        }
        // Every DP-running subcommand takes the flag.
        match parse(["batch", "d/", "--kernel", "scalar"]).unwrap().command {
            Command::Batch(b) => assert_eq!(b.kernel, DpKernel::Scalar),
            _ => panic!("wrong command"),
        }
        match parse(["reads", "--kernel", "striped"]).unwrap().command {
            Command::Reads(r) => assert_eq!(r.kernel, DpKernel::Striped),
            _ => panic!("wrong command"),
        }
        match parse(["serve", "--kernel", "scalar"]).unwrap().command {
            Command::Serve(s) => assert_eq!(s.kernel, DpKernel::Scalar),
            _ => panic!("wrong command"),
        }
        assert!(parse(["align", "x.fa", "--kernel", "avx"]).is_err());
        assert!(parse(["align", "x.fa", "--kernel"]).is_err());
    }

    #[test]
    fn progress_flag_parses() {
        match parse(["align", "x.fa"]).unwrap().command {
            Command::Align(a) => assert!(!a.progress, "progress is opt-in"),
            _ => panic!("wrong command"),
        }
        match parse(["align", "x.fa", "--progress"]).unwrap().command {
            Command::Align(a) => assert!(a.progress),
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn vertical_flags_parse_and_validate() {
        match parse(["align", "x.fa"]).unwrap().command {
            Command::Align(a) => {
                assert!(!a.vertical, "vertical is opt-in");
                assert_eq!((a.max_block, a.seam_window), (None, None));
            }
            _ => panic!("wrong command"),
        }
        match parse(["align", "x.fa", "--vertical", "--max-block", "256", "--seam-window", "8"])
            .unwrap()
            .command
        {
            Command::Align(a) => {
                assert!(a.vertical);
                assert_eq!(a.max_block, Some(256));
                assert_eq!(a.seam_window, Some(8));
                assert_eq!(a.backend, Backend::Rayon, "vertical defaults to rayon");
            }
            _ => panic!("wrong command"),
        }
        match parse(["align", "x.fa", "--vertical", "--backend", "sequential"]).unwrap().command {
            Command::Align(a) => assert_eq!(a.backend, Backend::Sequential),
            _ => panic!("wrong command"),
        }
        // A zero half-window disables seam refinement but still parses.
        match parse(["align", "x.fa", "--vertical", "--seam-window", "0"]).unwrap().command {
            Command::Align(a) => assert_eq!(a.seam_window, Some(0)),
            _ => panic!("wrong command"),
        }
        assert!(parse(["align", "x.fa", "--max-block", "256"]).is_err(), "needs --vertical");
        assert!(parse(["align", "x.fa", "--seam-window", "4"]).is_err(), "needs --vertical");
        assert!(parse(["align", "x.fa", "--vertical", "--max-block", "0"]).is_err());
        assert!(
            parse(["align", "x.fa", "--vertical", "--backend", "distributed"]).is_err(),
            "vertical is rejected on the virtual cluster"
        );
    }

    #[test]
    fn kmer_override_parses_and_rejects_zero() {
        let a = parse(["align", "x.fa", "--kmer", "2"]).unwrap();
        match a.command {
            Command::Align(a) => assert_eq!(a.kmer, Some(2)),
            _ => panic!("wrong command"),
        }
        assert!(parse(["align", "x.fa", "--kmer", "0"]).is_err());
    }

    #[test]
    fn width_flags_must_match_backend() {
        assert!(parse(["align", "x.fa", "--threads", "4"]).is_err());
        assert!(parse(["align", "x.fa", "--backend", "rayon", "--nodes", "4"]).is_err());
        assert!(parse(["align", "x.fa", "--backend", "rayon", "--threads", "0"]).is_err());
        assert!(parse(["align", "x.fa", "--nodes", "0"]).is_err());
    }

    #[test]
    fn batch_defaults_and_flags() {
        let a = parse(["batch", "families/"]).unwrap();
        match a.command {
            Command::Batch(b) => {
                assert_eq!(b.input, "families/");
                assert_eq!(b.out_dir, ".");
                assert_eq!(b.jobs, None);
                assert_eq!(b.backend, Backend::Sequential, "batch defaults to sequential jobs");
                assert_eq!(b.parallelism(), 1);
                assert!(!b.progress);
            }
            _ => panic!("wrong command"),
        }
        let a = parse([
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
            "32",
            "--progress",
        ])
        .unwrap();
        match a.command {
            Command::Batch(b) => {
                assert_eq!(b.input, "list.manifest");
                assert_eq!(b.out_dir, "aligned/");
                assert_eq!(b.jobs, Some(8));
                assert_eq!(b.backend, Backend::Rayon);
                assert_eq!(b.parallelism(), 2);
                assert_eq!(b.engine, EngineChoice::Clustal);
                assert_eq!(b.band, BandPolicy::Fixed(32));
                assert!(b.progress);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn batch_rejects_bad_flags() {
        assert!(parse(["batch"]).is_err(), "input is required");
        assert!(parse(["batch", "d/", "--jobs", "0"]).is_err());
        assert!(parse(["batch", "d/", "--threads", "4"]).is_err(), "threads need rayon");
        assert!(parse(["batch", "d/", "--backend", "rayon", "--nodes", "4"]).is_err());
        assert!(parse(["batch", "d/", "--p", "0"]).is_err());
        assert!(parse(["batch", "d/", "--kmer", "0"]).is_err());
        assert!(parse(["batch", "d/", "--band", "zig"]).is_err());
    }

    #[test]
    fn generate_parses_all_options() {
        let g = parse([
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
        ])
        .unwrap();
        match g.command {
            Command::Generate(g) => {
                assert_eq!(g.n, 50);
                assert_eq!(g.len, 120);
                assert_eq!(g.relatedness, 650.5);
                assert_eq!(g.seed, 9);
                assert_eq!(g.reference.as_deref(), Some("ref.fa"));
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn scaling_proc_list() {
        let s = parse(["scaling", "--n", "128", "--procs", "1,2,4"]).unwrap();
        match s.command {
            Command::Scaling(s) => {
                assert_eq!(s.n, 128);
                assert_eq!(s.procs, vec![1, 2, 4]);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(["scaling", "--procs", "1,0"]).is_err());
        assert!(parse(["scaling", "--procs", "a,b"]).is_err());
    }

    #[test]
    fn errors_carry_usage() {
        let err = parse(["bogus"]).unwrap_err();
        assert!(format!("{err}").contains("usage: sad"));
    }

    #[test]
    fn zero_p_rejected() {
        assert!(parse(["align", "x.fa", "--p", "0"]).is_err());
    }

    #[test]
    fn serve_defaults_and_flags() {
        match parse(["serve"]).unwrap().command {
            Command::Serve(s) => {
                assert_eq!(s.host, "127.0.0.1");
                assert_eq!(s.port, 7401);
                assert_eq!(s.journal, "sad-serve.journal.jsonl");
                assert_eq!(s.out_dir, ".");
                assert_eq!(s.workers, None);
                assert_eq!(s.queue, 32);
                assert_eq!(s.backend, Backend::Sequential);
                assert_eq!(s.parallelism(), 1);
            }
            _ => panic!("wrong command"),
        }
        let parsed = parse([
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
        ])
        .unwrap();
        match parsed.command {
            Command::Serve(s) => {
                assert_eq!(s.port, 0);
                assert_eq!(s.journal, "j.jsonl");
                assert_eq!(s.out_dir, "outdir/");
                assert_eq!(s.workers, Some(4));
                assert_eq!(s.queue, 8);
                assert_eq!(s.backend, Backend::Rayon);
                assert_eq!(s.parallelism(), 2);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(["serve", "--workers", "0"]).is_err());
        assert!(parse(["serve", "--queue", "0"]).is_err());
        assert!(parse(["serve", "--threads", "4"]).is_err(), "threads need rayon");
        assert!(parse(["serve", "extra.fa"]).is_err(), "serve takes no positional args");
    }

    #[test]
    fn submit_files_and_control_flags() {
        match parse(["submit", "a.fa", "b.fa", "--priority", "2", "--out", "res/"]).unwrap().command
        {
            Command::Submit(s) => {
                assert_eq!(s.files, vec!["a.fa", "b.fa"]);
                assert_eq!(s.priority, 2);
                assert_eq!(s.out_dir.as_deref(), Some("res/"));
                assert_eq!(s.port, 7401);
                assert!(!s.shutdown);
            }
            _ => panic!("wrong command"),
        }
        match parse(["submit", "--cancel", "fam_a"]).unwrap().command {
            Command::Submit(s) => {
                assert!(s.files.is_empty());
                assert_eq!(s.cancel.as_deref(), Some("fam_a"));
            }
            _ => panic!("wrong command"),
        }
        match parse(["submit", "--shutdown", "--port", "9000"]).unwrap().command {
            Command::Submit(s) => {
                assert!(s.shutdown);
                assert_eq!(s.port, 9000);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(["submit"]).is_err(), "needs files, --cancel or --shutdown");
    }

    #[test]
    fn reads_defaults_and_flags() {
        match parse(["reads"]).unwrap().command {
            Command::Reads(r) => {
                assert_eq!(r.input, None, "no file means simulated input");
                assert_eq!(r.max_bucket, Some(512));
                assert_eq!(r.backend, Backend::Rayon, "reads defaults to rayon");
                assert_eq!(r.coverage, 8.0);
                assert_eq!(r.read_len, 90);
                assert_eq!(r.parallelism(), 4);
                assert!(!r.progress);
            }
            _ => panic!("wrong command"),
        }
        let parsed = parse([
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
            "16",
            "--out",
            "aligned.fa",
        ])
        .unwrap();
        match parsed.command {
            Command::Reads(r) => {
                assert_eq!(r.input.as_deref(), Some("reads.fa"));
                assert_eq!(r.max_bucket, Some(64));
                assert_eq!(r.parallelism(), 8);
                assert_eq!(r.kmer, Some(3));
                assert_eq!(r.band, BandPolicy::Fixed(16));
                assert_eq!(r.out.as_deref(), Some("aligned.fa"));
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn reads_simulation_and_gate_flags() {
        let parsed = parse([
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
        ])
        .unwrap();
        match parsed.command {
            Command::Reads(r) => {
                assert_eq!(r.reads, Some(500));
                assert_eq!(r.coverage, 12.0);
                assert_eq!(r.error_rate, 0.05);
                assert_eq!(r.sources, 2);
                assert_eq!(r.source_len, 300);
                assert_eq!(r.seed, 7);
                assert_eq!(r.min_q, Some(0.8));
                assert_eq!(r.max_bucket, None);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn reads_rejects_bad_flags() {
        assert!(parse(["reads", "--max-bucket", "0"]).is_err());
        assert!(parse(["reads", "--reads", "0"]).is_err());
        assert!(parse(["reads", "--error-rate", "1.5"]).is_err());
        assert!(parse(["reads", "--coverage", "0"]).is_err());
        assert!(parse(["reads", "--read-len", "0"]).is_err());
        assert!(parse(["reads", "--min-q", "2"]).is_err());
        assert!(parse(["reads", "in.fa", "--min-q", "0.9"]).is_err(), "gate needs the truth");
        assert!(parse(["reads", "--threads", "4", "--backend", "sequential"]).is_err());
        assert!(parse(["reads", "--nodes", "4"]).is_err(), "nodes need distributed");
    }

    #[test]
    fn reads_cap_parses_the_same_on_every_backend() {
        for backend in ["rayon", "distributed"] {
            match parse(["reads", "--backend", backend]).unwrap().command {
                Command::Reads(r) => assert_eq!(r.max_bucket, Some(512), "{backend}"),
                _ => panic!("wrong command"),
            }
            match parse(["reads", "--max-bucket", "64", "--backend", backend]).unwrap().command {
                Command::Reads(r) => assert_eq!(r.max_bucket, Some(64), "{backend}"),
                _ => panic!("wrong command"),
            }
        }
    }

    #[test]
    fn trim_defaults_and_flags() {
        match parse(["trim", "aligned.fa"]).unwrap().command {
            Command::Trim(t) => {
                assert_eq!(t.input, "aligned.fa");
                assert_eq!(t.out, None);
                assert_eq!(t.max_dropped, None);
                assert!(!t.branch_bound);
            }
            _ => panic!("wrong command"),
        }
        match parse(["trim", "a.fa", "--out", "b.fa", "--max-dropped", "3", "--branch-bound"])
            .unwrap()
            .command
        {
            Command::Trim(t) => {
                assert_eq!(t.out.as_deref(), Some("b.fa"));
                assert_eq!(t.max_dropped, Some(3));
                assert!(t.branch_bound);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(["trim"]).is_err(), "input is required");
        assert!(parse(["trim", "a.fa", "--max-dropped"]).is_err(), "flag needs a value");
        assert!(parse(["trim", "a.fa", "--bogus"]).is_err());
    }

    #[test]
    fn trim_flag_parses_on_every_aligning_command() {
        match parse(["align", "x.fa"]).unwrap().command {
            Command::Align(a) => assert!(!a.trim, "trim is opt-in"),
            _ => panic!("wrong command"),
        }
        match parse(["align", "x.fa", "--trim"]).unwrap().command {
            Command::Align(a) => assert!(a.trim),
            _ => panic!("wrong command"),
        }
        match parse(["batch", "d/", "--trim"]).unwrap().command {
            Command::Batch(b) => assert!(b.trim),
            _ => panic!("wrong command"),
        }
        match parse(["reads", "--trim"]).unwrap().command {
            Command::Reads(r) => assert!(r.trim),
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn serve_cache_budget_flag() {
        match parse(["serve"]).unwrap().command {
            Command::Serve(s) => assert_eq!(s.cache_mb, 64),
            _ => panic!("wrong command"),
        }
        match parse(["serve", "--cache-mb", "8"]).unwrap().command {
            Command::Serve(s) => assert_eq!(s.cache_mb, 8),
            _ => panic!("wrong command"),
        }
        assert!(parse(["serve", "--cache-mb", "x"]).is_err());
    }

    #[test]
    fn rank_and_eval() {
        assert!(matches!(
            parse(["rank", "in.fa", "--p", "3"]).unwrap().command,
            Command::Rank(RankArgs { p: 3, .. })
        ));
        assert!(matches!(
            parse(["eval", "--cases", "4", "--p", "2"]).unwrap().command,
            Command::Eval(EvalArgs { cases: 4, p: 2 })
        ));
    }
}
