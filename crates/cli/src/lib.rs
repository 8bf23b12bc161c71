//! # sad-cli — command-line interface for the Sample-Align-D system
//!
//! Subcommands:
//!
//! * `sad align <in.fasta>` — align a FASTA file, write gapped FASTA plus
//!   the unified per-phase report to stdout
//!   (`--backend sequential|rayon|distributed`, `--p`, `--threads`,
//!   `--nodes`, `--engine`, `--no-fine-tune`, `--kmer`, and `--progress`
//!   for a live per-phase display on stderr);
//! * `sad batch <dir|manifest>` — align many families in one process:
//!   one job per FASTA file, scheduled over `--jobs N` workers, one
//!   `<job>.aligned.fa` per job in `--out DIR`, and the batch summary
//!   table on stdout (per-job failures are reported, never abort the
//!   batch);
//! * `sad reads` — the Pyro-Align-style large-N read mode: align a file
//!   of short reads (streamed record by record, never slurped) or a
//!   simulated read set, recursively decomposing buckets past
//!   `--max-bucket`; prints the bucket census,
//!   decomposition depth and phase table, gates simulated runs on mean
//!   pair-Q with `--min-q`, and writes the alignment via `--out`;
//! * `sad trim <aligned.fa>` — MaxAlign-style alignment-area
//!   optimization over an existing aligned FASTA: drop the sequences
//!   whose exclusion grows `retained rows × gap-free columns`
//!   (`--max-dropped N`, `--branch-bound`, `--out FILE`); the same stage
//!   runs inside `sad align`/`sad batch`/`sad reads` via `--trim`;
//! * `sad generate` — emit a rose-style synthetic family as FASTA
//!   (`--n`, `--len`, `--relatedness`, `--seed`, `--reference <path>`);
//! * `sad serve` — run the journaled alignment daemon: TCP job
//!   submission, write-ahead journal with crash recovery, result cache,
//!   drain on SIGTERM or client `SHUTDOWN` (`--host`, `--port`,
//!   `--journal`, `--out`, `--workers`, `--queue`, plus the per-job
//!   pipeline flags of `sad batch`);
//! * `sad submit <files...>` — send FASTA files to a running server and
//!   stream back results (`--host`, `--port`, `--out`, `--priority`,
//!   `--cancel ID`, `--shutdown`).
//!
//! The paper's tables and figures are not subcommands: the `sad-bench`
//! `paper` target computes them and commits `BENCH_paper.json`.
//!
//! Argument parsing is hand-rolled (no external CLI dependency) and lives
//! in [`args`]; command implementations live in [`cmd`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod cmd;
pub mod progress;

pub use args::{Args, Command, ParseError};

/// Run the CLI against parsed arguments, writing human output to `out`.
pub fn run(args: Args, out: &mut dyn std::io::Write) -> Result<(), String> {
    match args.command {
        Command::Align(a) => cmd::align(a, out),
        Command::Batch(b) => cmd::batch(b, out),
        Command::Reads(r) => cmd::reads(r, out),
        Command::Trim(t) => cmd::trim(t, out),
        Command::Generate(g) => cmd::generate(g, out),
        Command::Serve(s) => cmd::serve(s, out),
        Command::Submit(s) => cmd::submit(s, out),
        Command::Help => write!(out, "{}", args::USAGE).map_err(|e| e.to_string()),
    }
}
