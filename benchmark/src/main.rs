//! One benchmark for the whole Sample-Align-D system. See README.md.
//!
//! Driver mode (`--workload NAME --seed N --seconds S --trace 0|1`) runs
//! one pass of one workload and ends with one JSON line. Without
//! `--workload` every workload runs both passes and a report is printed.

mod e2e;
mod inputs;
mod layers;
mod metrics;
mod proc;
mod serve;
mod spans;
mod stats;
mod verify;
mod workloads;

use e2e::{EndToEndRun, Env};
use layers::LayerRun;
use metrics::{per_layer, END_TO_END};
use sad_serve::Json;
use stats::Summary;
use workloads::Workload;

/// Seconds a pass measures for when `--seconds` is not given; the root
/// BENCHMARK.json asks the driver for the same.
const RUN_SECONDS: f64 = 8.0;

const USAGE: &str =
    "usage: sad-benchmark [--seed N] [--seconds S] [--quick] [--only NAME] [--check-repeat]
       sad-benchmark --workload NAME --seed N --seconds S --trace 0|1
       sad-benchmark --print-spec";

#[derive(Debug, Clone, PartialEq)]
struct Options {
    /// Driver mode: one pass of this workload, one JSON line.
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    only: Option<String>,
    quick: bool,
    check_repeat: bool,
    print_spec: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        only: None,
        quick: false,
        check_repeat: false,
        print_spec: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--only" => o.only = Some(value()?.clone()),
            "--seed" => {
                o.seed = value()?.parse().map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds needs a number".to_string())?;
                if !(o.seconds > 0.0 && o.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--quick" => o.quick = true,
            "--check-repeat" => o.check_repeat = true,
            "--print-spec" => o.print_spec = true,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(o)
}

fn find<'a>(all: &'a [Workload], name: &str) -> Result<&'a Workload, String> {
    all.iter().find(|w| w.name == name).ok_or_else(|| {
        format!(
            "no workload {name:?}; there are {}",
            all.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
        )
    })
}

fn metric_object(values: impl IntoIterator<Item = (String, f64, &'static str)>) -> Json {
    Json::Obj(
        values
            .into_iter()
            .map(|(name, value, unit)| {
                (name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
            })
            .collect(),
    )
}

/// The driver's result line.
fn result_line(attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
    .encode()
}

fn end_to_end_line(run: &EndToEndRun) -> String {
    let values = END_TO_END.iter().zip(run.values()).map(|(m, v)| (m.name.to_string(), v, m.unit));
    result_line(run.attempted, run.failed, metric_object(values))
}

fn per_layer_line(run: &LayerRun) -> String {
    let values = per_layer().into_iter().map(|l| {
        let v = run.values[&l.name];
        (l.name, v, l.unit)
    });
    result_line(run.attempted, run.failed, metric_object(values))
}

/// The root BENCHMARK.json, generated from the same tables the harness
/// reports from.
fn spec() -> String {
    let better = |h: bool| Json::str(if h { "higher" } else { "lower" });
    let workloads = workloads::all(false)
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", better(m.higher_is_better)),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let layers = per_layer()
        .iter()
        .map(|l| {
            Json::obj([
                ("name", Json::str(l.name.as_str())),
                ("unit", Json::str(l.unit)),
                ("better", better(l.higher_is_better)),
            ])
        })
        .collect();
    Json::obj([
        ("command", Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(e2e)),
        ("per_layer", Json::Arr(layers)),
    ])
    .encode()
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Both passes of one workload.
struct Passes {
    workload: Workload,
    e2e: EndToEndRun,
    layers: LayerRun,
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn print_passes(p: &Passes, single_core: bool) {
    let tag = if single_core { " single_core" } else { "" };
    println!("\n== {}: {}", p.workload.name, p.workload.why);
    println!("   input: {}; digest {}", p.e2e.input_shape, p.e2e.input_digest);
    println!("   end to end (tracing off){:>22} {:>12} {:>12} {:>4}", "median", "min", "max", "n");
    let wall = Summary::of(&p.e2e.wall_s);
    let n = p.e2e.sequences as f64;
    let rows = [
        Summary::of(&p.e2e.setup_s),
        wall,
        Summary { median: n / wall.median, min: n / wall.max, max: n / wall.min, n: wall.n },
        Summary::of(&p.e2e.peak_rss_mb),
        Summary { median: p.e2e.q_score, min: p.e2e.q_score, max: p.e2e.q_score, n: 1 },
    ];
    for (m, s) in END_TO_END.iter().zip(rows) {
        let timing = if m.unit == "s" || m.unit == "1/s" { tag } else { "" };
        println!(
            "     {:<14} {:>6} {:>12.4} {:>12.4} {:>12.4} {:>4}  (bound {:.0} %){timing}",
            m.name,
            m.unit,
            s.median,
            s.min,
            s.max,
            s.n,
            m.bound * 100.0
        );
    }
    println!(
        "     {:<14} {:>6} {:>12.4}  ({} of {} operations failed a check)",
        "failed_frac",
        "ratio",
        p.e2e.failed as f64 / p.e2e.attempted.max(1) as f64,
        p.e2e.failed,
        p.e2e.attempted
    );
    println!("   per layer (traced run; 0 = this workload does not use the layer)");
    for l in per_layer() {
        let v = p.layers.values[&l.name];
        if v == 0.0 {
            continue;
        }
        let note = p.layers.notes.get(&l.name).map(|n| format!("  [{n}]")).unwrap_or_default();
        let digits = if l.unit == "count" { 0 } else { 6 };
        println!("     {:<38} {v:>16.digits$} {:<6}{note}", l.name, l.unit);
    }
    if p.layers.failed > 0 {
        println!(
            "     {} of {} traced operations failed a check",
            p.layers.failed, p.layers.attempted
        );
    }
}

fn run_all(
    env: &Env,
    set: &[Workload],
    o: &Options,
    single_core: bool,
) -> Result<Vec<Passes>, String> {
    let mut out = Vec::new();
    for w in set {
        let e2e = e2e::run(env, w, o.seed, o.seconds)?;
        let layers = layers::run(env, w, o.seed, o.seconds)?;
        let passes = Passes { workload: *w, e2e, layers };
        print_passes(&passes, single_core);
        out.push(passes);
    }
    if let (Some(seq), Some(par)) = (
        out.iter().find(|p| p.workload.name == "family_sequential"),
        out.iter().find(|p| p.workload.name == "family_rayon"),
    ) {
        if !single_core {
            println!(
                "\nfamily_sequential.wall_s / family_rayon.wall_s = {:.3} on host_cores {} (not a gated metric)",
                stats::median(&seq.e2e.wall_s) / stats::median(&par.e2e.wall_s),
                host_cores()
            );
        }
    }
    Ok(out)
}

/// Where two runs of the same build disagree by more than the benchmark
/// itself allows.
fn disagreements(first: &[Passes], second: &[Passes]) -> Vec<String> {
    let mut out = Vec::new();
    for (a, b) in first.iter().zip(second) {
        let name = a.workload.name;
        for ((m, x), y) in END_TO_END.iter().zip(a.e2e.values()).zip(b.e2e.values()) {
            let off = (y - x).abs() / x.abs();
            if m.exact && x != y {
                out.push(format!("{name}: {} must repeat exactly but read {x} then {y}", m.name));
            } else if off > m.bound {
                out.push(format!(
                    "{name}: {} read {x:.4} then {y:.4} {}, {:.1} % apart (bound {:.0} %)",
                    m.name,
                    m.unit,
                    off * 100.0,
                    m.bound * 100.0
                ));
            }
        }
        if (a.e2e.failed, a.e2e.attempted) != (b.e2e.failed, b.e2e.attempted)
            && (a.e2e.failed + b.e2e.failed) > 0
        {
            out.push(format!(
                "{name}: failed_frac read {}/{} then {}/{}",
                a.e2e.failed, a.e2e.attempted, b.e2e.failed, b.e2e.attempted
            ));
        }
        for l in per_layer().iter().filter(|l| l.exact) {
            let (x, y) = (a.layers.values[&l.name], b.layers.values[&l.name]);
            if x != y {
                out.push(format!("{name}: {} must repeat exactly but read {x} then {y}", l.name));
            }
        }
    }
    out
}

fn real_main() -> Result<i32, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = parse_args(&args).map_err(|e| format!("{e}\n{USAGE}"))?;
    if o.print_spec {
        println!("{}", spec());
        return Ok(0);
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let bin_dir = exe.parent().ok_or("this executable has no directory")?;
    let env = Env {
        sad: bin_dir.join("sad"),
        work: bin_dir.join("bench-work").join(std::process::id().to_string()),
    };
    if !env.sad.is_file() {
        return Err(format!(
            "{} is not built; run benchmark/run.sh, which builds it",
            env.sad.display()
        ));
    }
    std::fs::create_dir_all(&env.work)
        .map_err(|e| format!("cannot create {}: {e}", env.work.display()))?;
    let outcome = measure(&env, &o);
    let _ = std::fs::remove_dir_all(&env.work);
    outcome
}

fn measure(env: &Env, o: &Options) -> Result<i32, String> {
    let all = workloads::all(o.quick);
    if let Some(name) = &o.workload {
        let w = find(&all, name)?;
        let line = if o.trace {
            per_layer_line(&layers::run(env, w, o.seed, o.seconds)?)
        } else {
            end_to_end_line(&e2e::run(env, w, o.seed, o.seconds)?)
        };
        println!("{line}");
        return Ok(0);
    }

    let set: Vec<Workload> = match &o.only {
        Some(name) => vec![*find(&all, name)?],
        None => all,
    };
    let single_core = host_cores() == 1;
    println!(
        "sad-benchmark: seed {}, {} s a pass, host_cores {}{}",
        o.seed,
        o.seconds,
        host_cores(),
        if single_core { " (single_core: timings say nothing about scaling)" } else { "" }
    );
    println!(
        "commit {}; {}",
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["-V"])
    );
    if o.quick {
        println!("--quick: every size divided by ten; a smoke test, not for claims");
    }
    let first = run_all(env, &set, o, single_core)?;
    let mut failed: u64 = first.iter().map(|p| p.e2e.failed + p.layers.failed).sum();
    if o.check_repeat {
        println!("\n-- check-repeat: the same build and seed again");
        let second = run_all(env, &set, o, single_core)?;
        failed += second.iter().map(|p| p.e2e.failed + p.layers.failed).sum::<u64>();
        let off = disagreements(&first, &second);
        if off.is_empty() {
            println!("\ncheck-repeat: both runs agree within the benchmark's bounds");
        } else {
            println!("\ncheck-repeat: {} disagreements", off.len());
            for line in &off {
                println!("  {line}");
            }
            return Ok(1);
        }
    }
    if failed > 0 {
        println!("\n{failed} operations failed a check");
        return Ok(1);
    }
    Ok(0)
}

fn main() {
    std::process::exit(match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let o =
            parse_args(&words("--workload reads_large --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("reads_large"), 7, 3.0, true)
        );
        let d = parse_args(&[]).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace, d.workload), (1, RUN_SECONDS, false, None));
        for bad in
            ["--trace 2", "--seed x", "--seconds 0", "--seconds 61", "--seed", "--frobnicate"]
        {
            assert!(parse_args(&words(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys_and_full_precision() {
        let run = EndToEndRun {
            setup_s: vec![0.5, 0.7, 0.6],
            wall_s: vec![0.25, 0.1234567890123, 0.5],
            peak_rss_mb: vec![10.0],
            q_score: 0.9,
            sequences: 100,
            attempted: 4,
            failed: 1,
            ..EndToEndRun::default()
        };
        let line = end_to_end_line(&run);
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).unwrap();
        let Json::Obj(fields) = &parsed else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(4));
        let metrics = parsed.get("metrics").unwrap();
        let Json::Obj(listed) = metrics else { panic!("metrics is not an object") };
        assert_eq!(
            listed.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            END_TO_END.map(|m| m.name)
        );
        let wall = metrics.get("wall_s").unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(0.25));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(
            metrics.get("seqs_per_s").unwrap().get("value").and_then(Json::as_f64),
            Some(400.0)
        );
        assert_eq!(metrics.get("setup_s").unwrap().get("value").and_then(Json::as_f64), Some(0.6));
        // No rounding on the way out.
        let precise = EndToEndRun { wall_s: vec![0.1234567890123], ..run };
        assert!(end_to_end_line(&precise).contains("0.1234567890123"));
    }

    #[test]
    fn the_traced_line_lists_every_per_layer_metric() {
        let mut run = LayerRun::default();
        for l in per_layer() {
            run.values.insert(l.name, 1.5);
        }
        let parsed = Json::parse(&per_layer_line(&run)).unwrap();
        let Some(Json::Obj(listed)) = parsed.get("metrics") else {
            panic!("metrics is not an object")
        };
        assert_eq!(listed.len(), per_layer().len());
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn the_spec_matches_the_committed_benchmark_json() {
        let committed = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let stale =
            "BENCHMARK.json is stale: print it again with `bash benchmark/run.sh --print-spec`";
        assert!(Json::parse(&spec()).unwrap() == committed, "{stale}");
    }
}
