//! Golden-file snapshots of the CLI's report rendering: the `sad align`
//! phase table and the `sad batch` summary table are pinned against
//! committed fixtures, so a report-format regression fails the default
//! test tier instead of shipping silently.
//!
//! Wall-clock readings differ between runs, so every float token is
//! normalized to `<t>` before comparison; everything else — layout,
//! headers, integer work/DP counters, sequence bodies, error renderings —
//! is compared verbatim. Goldens are stored pre-normalized. To bless a
//! deliberate format change, rerun with `BLESS=1`:
//!
//! ```text
//! BLESS=1 cargo test --test golden
//! ```

use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Run the CLI in-process, capturing stdout; returns the captured text
/// and the command's result.
fn run_cli(argv: &[&str]) -> (String, Result<(), String>) {
    let args = sad_cli::args::parse(argv.iter().copied()).expect("golden argv parses");
    let mut buf = Vec::new();
    let result = sad_cli::run(args, &mut buf);
    (String::from_utf8(buf).expect("CLI output is UTF-8"), result)
}

/// Replace every whitespace-separated token that reads as a float
/// (trailing `,`/`;` tolerated) with `<t>`, collapsing runs of spaces —
/// wall-clock and throughput readings vary per run, the rest of the
/// report must not.
fn normalize(out: &str) -> String {
    let mut lines: Vec<String> = out
        .lines()
        .map(|line| {
            line.split_whitespace()
                .map(|tok| {
                    let trimmed = tok.trim_end_matches([',', ';']);
                    if trimmed.contains('.') && trimmed.parse::<f64>().is_ok() {
                        tok.replace(trimmed, "<t>")
                    } else {
                        tok.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    lines.push(String::new()); // trailing newline
    lines.join("\n")
}

/// Compare normalized CLI output against a committed golden file,
/// rewriting the golden under `BLESS=1`.
fn assert_matches_golden(name: &str, actual_raw: &str) {
    let actual = normalize(actual_raw);
    let path = golden_dir().join(name);
    if std::env::var("BLESS").is_ok() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} (run with BLESS=1 to create): {e}"));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden snapshot.\n\
         If the format change is intentional, bless it: BLESS=1 cargo test --test golden"
    );
}

#[test]
fn align_phase_table_matches_golden() {
    // The distributed backend pins the most: phase table with work units,
    // banded/full DP cells, virtual makespan line and the FASTA body.
    let input = golden_dir().join("fixtures/fam_a.fa");
    let (out, result) = run_cli(&["align", input.to_str().unwrap(), "--p", "2"]);
    result.expect("golden align succeeds");
    assert_matches_golden("align_distributed.txt", &out);
}

#[test]
fn align_sequential_table_matches_golden() {
    let input = golden_dir().join("fixtures/fam_b.fa");
    let (out, result) = run_cli(&["align", input.to_str().unwrap(), "--backend", "sequential"]);
    result.expect("golden align succeeds");
    assert_matches_golden("align_sequential.txt", &out);
}

#[test]
fn align_non_uniform_weight_engines_match_golden() {
    // The other goldens run `muscle-fast`, whose profiles carry uniform
    // weights. `muscle` weighs rows by Henikoff (fractional weights, so
    // the auto kernel stays on the scalar oracle) and `clustalw` by its
    // guide tree; these pin the weighted profile and PSP arithmetic.
    let input = golden_dir().join("fixtures/fam_a.fa");
    for engine in ["muscle", "clustalw"] {
        let (out, result) = run_cli(&[
            "align",
            input.to_str().unwrap(),
            "--backend",
            "sequential",
            "--engine",
            engine,
        ]);
        result.expect("golden align succeeds");
        assert_matches_golden(&format!("align_{engine}.txt"), &out);
    }
}

#[test]
fn batch_summary_table_matches_golden() {
    // The committed manifest mixes two healthy families with a
    // one-sequence file, pinning both the success rows and the per-job
    // error rendering. One worker keeps the run order deterministic;
    // the command exits with the failure count, which is part of the
    // contract.
    let manifest = golden_dir().join("batch.manifest");
    let out_dir = std::env::temp_dir().join(format!("sad-golden-batch-{}", std::process::id()));
    let (out, result) = run_cli(&[
        "batch",
        manifest.to_str().unwrap(),
        "--out",
        out_dir.to_str().unwrap(),
        "--jobs",
        "1",
    ]);
    assert_eq!(result.unwrap_err(), "1 of 3 jobs failed");
    assert_matches_golden("batch_summary.txt", &out);
    // The healthy jobs wrote their alignments next to the summary.
    for name in ["fam_a", "fam_b"] {
        assert!(out_dir.join(format!("{name}.aligned.fa")).exists(), "{name}");
    }
    assert!(!out_dir.join("solo.aligned.fa").exists());
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn reads_summary_matches_golden() {
    // The large-N read mode's summary: read census, bucket census with the
    // cap verdict, decomposition depth, the truth-gated mean pair Q and
    // the phase table. Everything but wall-clock floats is pinned — the
    // simulation, bucketing and alignment are deterministic per seed.
    let (out, result) = run_cli(&[
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
        "--seed",
        "1",
    ]);
    result.expect("golden reads run succeeds");
    assert_matches_golden("reads_summary.txt", &out);
}

#[test]
fn trim_summary_matches_golden() {
    // `sad trim` on the committed gappy fixture: six full-length rows
    // plus two fragments whose exclusion only pays off as a pair, so the
    // golden pins the census line, the per-drop comments (the
    // pair-synergy path) and the trimmed FASTA body. There are no
    // wall-clock tokens here — the whole output is compared verbatim.
    // The fixture lives in `aligned/`, not `fixtures/`: the CI batch and
    // serve smoke steps feed every `fixtures/*.fa` to the aligner, which
    // rejects pre-gapped records.
    let input = golden_dir().join("aligned/gappy.fa");
    let (out, result) = run_cli(&["trim", input.to_str().unwrap()]);
    result.expect("golden trim succeeds");
    // The acceptance bar: trim strictly grows the alignment area on this
    // fixture (8 rows x 10 free cols -> 6 rows x 30 free cols).
    assert!(out.contains("area 80 -> 180"), "fixture must trim 80 -> 180:\n{out}");
    assert_matches_golden("trim_summary.txt", &out);
}

#[test]
fn normalizer_touches_only_float_tokens() {
    let sample =
        "; 8-local-align 123 456/789 0.0042 1.5000\ntotal 99 jobs, 1.25 jobs/s;\n>seq0\nMKVL.AW\n";
    let got = normalize(sample);
    assert_eq!(
        got, "; 8-local-align 123 456/789 <t> <t>\ntotal 99 jobs, <t> jobs/s;\n>seq0\nMKVL.AW\n",
        "integers, ids and non-numeric dotted tokens must survive"
    );
}

/// Decode a serve event line and blank its volatile fields (wall-clock
/// `seconds`), keeping everything else — event order, job ids, digests,
/// cached flags, row counts, and the full aligned FASTA — verbatim.
fn scrub_serve_event(line: &str) -> String {
    use sad_serve::Json;
    let mut value = Json::parse(line).expect("server event parses as JSON");
    if let Json::Obj(fields) = &mut value {
        for (key, field) in fields {
            if key == "seconds" {
                *field = Json::str("<t>");
            }
        }
    }
    value.encode()
}

#[test]
fn serve_session_transcript_matches_golden() {
    use std::io::Write;
    use std::time::Duration;

    let mut h = sad_serve::ServeHarness::new("golden-session").start();
    let mut stream = std::net::TcpStream::connect(h.server().addr()).expect("connect");
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
    let mut reader = sad_serve::protocol::LineReader::new(stream.try_clone().expect("clone"));
    let mut transcript = String::new();

    let read_until = |reader: &mut sad_serve::protocol::LineReader<std::net::TcpStream>,
                      transcript: &mut String,
                      stop: &str| {
        loop {
            match reader.next_line() {
                Ok(sad_serve::protocol::LineEvent::Line(line)) => {
                    let scrubbed = scrub_serve_event(&line);
                    transcript.push_str("<< ");
                    transcript.push_str(&scrubbed);
                    transcript.push('\n');
                    if scrubbed.contains(&format!("\"event\":\"{stop}\"")) {
                        return;
                    }
                }
                other => panic!("waiting for {stop}: {other:?}"),
            }
        }
    };
    let send = |stream: &mut std::net::TcpStream, transcript: &mut String, line: &str| {
        transcript.push_str(">> ");
        transcript.push_str(line);
        transcript.push('\n');
        writeln!(stream, "{line}").expect("send request");
    };

    read_until(&mut reader, &mut transcript, "hello");
    // Cold submission: accepted → started → per-phase progress → result.
    let fasta = std::fs::read_to_string(golden_dir().join("fixtures/fam_a.fa")).expect("fixture");
    let submit = sad_serve::Json::obj([
        ("cmd", sad_serve::Json::str("submit")),
        ("id", sad_serve::Json::str("fam_a")),
        ("fasta", sad_serve::Json::str(&fasta)),
    ])
    .encode();
    send(&mut stream, &mut transcript, &submit);
    read_until(&mut reader, &mut transcript, "result");
    // Byte-identical resubmission: answered from the cache, no started.
    send(&mut stream, &mut transcript, &submit);
    read_until(&mut reader, &mut transcript, "result");
    // Cancelling an unknown job is an error event, not a dropped line.
    send(&mut stream, &mut transcript, "CANCEL no-such-job");
    read_until(&mut reader, &mut transcript, "error");
    // Graceful goodbye.
    send(&mut stream, &mut transcript, "SHUTDOWN");
    read_until(&mut reader, &mut transcript, "bye");
    drop(reader);

    // The server drained after the SHUTDOWN request.
    assert!(h.server().wait_idle(Duration::from_secs(30)), "server drains");
    let stats = h.shutdown();
    // Both submissions completed; exactly one was served from the cache.
    assert_eq!((stats.completed, stats.cache_hits), (2, 1));
    assert_matches_golden("serve_session.txt", &transcript);
}
