//! `benchmark` — the repository benchmark.
//!
//! ```text
//! benchmark list
//! benchmark run   <workload> [--seed S] [--seconds T]
//! benchmark trace <workload> [--seed S]
//! benchmark --workload <workload> --seed S --seconds T --trace 0|1
//! ```
//!
//! `run` measures the end-to-end metrics with tracing off; `trace` is the
//! separate traced pass that gives the per-layer metrics and writes its
//! spans as JSON lines next to the executable. The last form is the same
//! two passes spelled with flags (`--trace 1` is `trace`). Each prints its
//! metrics by name with their units, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. Any failed operation makes the exit status non-zero.

mod alloc;
mod measure;
mod metrics;
mod pinned;
mod spans;
mod stats;
mod workloads;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

use std::process::ExitCode;

use serde::Value;

use measure::Report;
use metrics::{unit_of, END_TO_END, PER_LAYER};
use spans::Tracer;
use workloads::{Workload, DEFAULT_SEED};

/// How long `run` measures when `--seconds` is not given; the same as
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage:
    benchmark list
    benchmark run   <workload> [--seed S] [--seconds T]
    benchmark trace <workload> [--seed S]
    benchmark --workload <workload> --seed S --seconds T --trace 0|1";

#[derive(Debug, PartialEq)]
enum Command {
    List,
    Run {
        workload: Workload,
        seed: u64,
        seconds: f64,
    },
    Trace {
        workload: Workload,
        seed: u64,
    },
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().map(String::as_str);
    let mut verb = None;
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, None, false);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg {
            "--workload" => workload = Some(value(arg)?),
            "--seed" => {
                seed = value(arg)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value(arg)?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value(arg)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "list" | "run" | "trace" if verb.is_none() && workload.is_none() => verb = Some(arg),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name if workload.is_none() => workload = Some(name),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    if verb == Some("list") {
        return match workload {
            None => Ok(Command::List),
            Some(_) => Err("`list` takes no workload".into()),
        };
    }
    let name = workload.ok_or("name a workload")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })?;
    match (verb, trace) {
        (Some("run"), true) => Err("`run` and `--trace 1` contradict each other".into()),
        (Some("trace"), _) | (None, true) => Ok(Command::Trace { workload, seed }),
        _ => Ok(Command::Run {
            workload,
            seed,
            seconds: seconds.unwrap_or(DEFAULT_SECONDS),
        }),
    }
}

fn list() {
    println!("workloads (one process each, at most 2 threads):");
    for w in Workload::ALL {
        println!("  {:<16} {}", w.name(), w.why());
    }
    println!("\nend-to-end metrics (`run`; bound = how far the median may worsen):");
    for m in END_TO_END {
        println!(
            "  {:<12} {:<4} {:<6} bound {:>3.0}%  {}",
            m.name,
            m.unit,
            m.better,
            m.bound * 100.0,
            m.what
        );
    }
    println!("  failed operations ÷ attempted ones is the error rate; it may not rise above 0");
    println!("\nper-layer metrics (`trace`; 0 where the workload never reaches the layer):");
    for m in PER_LAYER {
        println!(
            "  {:<27} {:<5} {:<6} moves {} on {}",
            m.name, m.unit, m.better, m.moves, m.on
        );
    }
}

/// The result line: the last line of standard output.
fn result_line(r: &Report) -> String {
    let metrics = r
        .metrics
        .iter()
        .map(|&(name, value)| {
            let entry = Value::Map(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(unit_of(name).into())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(r.failed == 0)),
        ("attempted".into(), Value::UInt(r.attempted)),
        ("failed".into(), Value::UInt(r.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("the result line serializes")
}

/// Writes the trace's spans next to the executable, inside the build
/// directory.
fn write_spans(w: Workload, t: &Tracer) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let path = exe.with_file_name(format!("spans-{}.jsonl", w.name()));
    std::fs::write(&path, t.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("[wrote {} spans to {}]", t.spans().len(), path.display());
    Ok(())
}

/// `run`: the end-to-end metrics, with tracing off.
fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    println!(
        "run {} seed {seed}: {seconds} s of repetitions on {} core(s)",
        workload.name(),
        cores()
    );
    match workload {
        Workload::ScenarioMatrix => measure::run_matrix(seed, seconds, 1.0),
        w => measure::run_spatial(w, seed, seconds, 1.0),
    }
}

/// `trace`: the per-layer metrics, with the spans written out at the end.
fn trace(workload: Workload, seed: u64) -> Result<Report, String> {
    println!(
        "trace {} seed {seed} on {} core(s)",
        workload.name(),
        cores()
    );
    let mut t = Tracer::new();
    let root = t.enter("benchmark.trace");
    let report = match workload {
        Workload::ScenarioMatrix => measure::trace_matrix(seed, 1.0, &mut t),
        w => measure::trace_spatial(w, seed, 1.0, &mut t),
    }?;
    t.exit(root);
    write_spans(workload, &t)?;
    Ok(report)
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&args) {
        Ok(Command::List) => {
            list();
            return ExitCode::SUCCESS;
        }
        Ok(Command::Run {
            workload,
            seed,
            seconds,
        }) => run(workload, seed, seconds),
        Ok(Command::Trace { workload, seed }) => trace(workload, seed),
        Err(msg) => {
            eprintln!("benchmark: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match outcome {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            return ExitCode::FAILURE;
        }
    };
    for &(name, value) in &report.metrics {
        println!("  {name:<27} {value:>16.6} {}", unit_of(name));
    }
    println!(
        "  {:<27} {:>16} ({} of {} operations failed)",
        "error_rate",
        report.failed as f64 / report.attempted as f64,
        report.failed,
        report.attempted
    );
    println!("{}", result_line(&report));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Command, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn both_spellings_parse_to_the_same_command() {
        let run = Command::Run {
            workload: Workload::CityUdp,
            seed: 4,
            seconds: 7.0,
        };
        assert_eq!(parse_str("run city-udp --seed 4 --seconds 7"), Ok(run));
        let run = Command::Run {
            workload: Workload::CityUdp,
            seed: 4,
            seconds: 7.0,
        };
        assert_eq!(
            parse_str("--workload city-udp --seed 4 --seconds 7 --trace 0"),
            Ok(run)
        );
        let trace = Command::Trace {
            workload: Workload::ScenarioMatrix,
            seed: DEFAULT_SEED,
        };
        assert_eq!(parse_str("trace scenario-matrix"), Ok(trace));
        let trace = Command::Trace {
            workload: Workload::ScenarioMatrix,
            seed: 2,
        };
        assert_eq!(
            parse_str("--workload scenario-matrix --seed 2 --seconds 9 --trace 1"),
            Ok(trace)
        );
        assert_eq!(parse_str("list"), Ok(Command::List));
        assert!(matches!(
            parse_str("run enterprise-tcp"),
            Ok(Command::Run { seconds, seed: DEFAULT_SEED, .. }) if seconds == DEFAULT_SECONDS
        ));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "",
            "run",
            "run nowhere",
            "run city-udp --trace 1",
            "run city-udp --seed -1",
            "run city-udp --seconds 0",
            "run city-udp --trace 2",
            "run city-udp extra",
            "run city-udp --frobnicate",
            "list city-udp",
        ] {
            assert!(parse_str(bad).is_err(), "`{bad}` should be refused");
        }
    }

    #[test]
    fn default_seconds_are_the_benchmark_files_run_seconds() {
        let doc = serde_json::parse_value(include_str!("../../BENCHMARK.json")).unwrap();
        let run_seconds = match doc.get("run_seconds") {
            Some(Value::UInt(n)) => *n as f64,
            Some(Value::Int(n)) => *n as f64,
            other => panic!("run_seconds is not a whole number: {other:?}"),
        };
        assert_eq!(run_seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn result_line_is_one_json_object_with_units() {
        let line = result_line(&Report {
            attempted: 5,
            failed: 0,
            metrics: vec![("wall_s", 1.25), ("peak_heap_mb", 300.5)],
        });
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{\
             \"wall_s\":{\"value\":1.25,\"unit\":\"s\"},\
             \"peak_heap_mb\":{\"value\":300.5,\"unit\":\"MiB\"}}}"
        );
        assert!(serde_json::parse_value(&line).is_ok());
    }
}
