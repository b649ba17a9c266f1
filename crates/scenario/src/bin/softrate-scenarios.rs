//! The scenario engine's command-line interface.
//!
//! ```text
//! softrate-scenarios list
//! softrate-scenarios show <name | --file spec.toml> [--expanded]
//! softrate-scenarios run  <name | --file spec.toml> [--threads N]
//!                         [--out results.jsonl] [--duration SECS] [--seed N]
//!                         [--metrics metrics.jsonl] [--trace trace.jsonl]
//!                         [--decisions decisions.jsonl]
//! softrate-scenarios sweep --file spec.toml [--threads N]
//!                         [--out results.jsonl]
//! ```
//!
//! `run` and `sweep` both execute the *full* expanded matrix in parallel;
//! `sweep` merely requires the spec to declare sweep axes (guarding
//! against accidentally running a 1-point "sweep"). Results go to stdout
//! as a summary table and, with `--out`, to a JSON-lines file; the
//! telemetry streams go to `--metrics`, `--trace` and `--decisions`.
//! Every requested file is created before the first run, and each run's
//! rows are written through [`engine::run_matrix`]'s sink as soon as that
//! run and every earlier one are done, so memory holds only the runs not
//! yet written, never the whole matrix. The bytes are identical across
//! repeat runs and thread counts.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::process::ExitCode;

use softrate_scenario::builtin;
use softrate_scenario::engine::{self, expand, outcomes_to_jsonl, summary_table, RunOutcome};
use softrate_scenario::spec::ScenarioSpec;
use softrate_telemetry::{RecorderConfig, TelemetryReport};

fn usage() -> &'static str {
    "softrate-scenarios — declarative scenario engine for the SoftRate reproduction

USAGE:
    softrate-scenarios list
    softrate-scenarios show <name | --file spec.toml> [--expanded]
    softrate-scenarios run  <--name name | --file spec.toml> [--threads N]
                            [--out results.jsonl]
                            [--duration SECS] [--seed N] [--only RUN_IDX]
                            [--metrics metrics.jsonl] [--trace trace.jsonl]
                            [--decisions decisions.jsonl]
    softrate-scenarios sweep --file spec.toml [--threads N]
                            [--out results.jsonl] [--metrics metrics.jsonl]
                            [--trace trace.jsonl] [--decisions decisions.jsonl]

The scenario may be given as a bare positional name, `--name <builtin>`,
or `--file <spec.toml|spec.json>`.

`--metrics` turns on the telemetry recorder and writes per-station
interval/totals/histogram rows (deterministic JSONL, byte-identical
across thread counts). `--trace` additionally streams per-frame
lifecycle rows into the given file (implies --metrics if absent).
`--decisions` streams the rate-decision ledger — one row per
rate-adaptation decision with trigger class and SNR/BER input — into the
given file. Inspect all three with `softrate-inspect`.

COMMANDS:
    list    Catalogue the built-in scenario library
    show    Print a scenario's TOML (with --expanded: every run in its matrix)
    run     Execute a scenario's full run matrix in parallel
    sweep   Like run, but requires the spec to declare [sweep] axes
"
}

struct Args {
    positional: Vec<String>,
    file: Option<String>,
    out: Option<String>,
    threads: Option<usize>,
    duration: Option<f64>,
    seed: Option<u64>,
    only: Option<usize>,
    expanded: bool,
    metrics: Option<String>,
    trace: Option<String>,
    decisions: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        file: None,
        out: None,
        threads: None,
        duration: None,
        seed: None,
        only: None,
        expanded: false,
        metrics: None,
        trace: None,
        decisions: None,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--file" | "-f" => args.file = Some(value_of("--file")?),
            "--name" | "-n" => args.positional.push(value_of("--name")?),
            "--out" | "-o" => args.out = Some(value_of("--out")?),
            "--threads" | "-j" => {
                args.threads = Some(
                    value_of("--threads")?
                        .parse()
                        .map_err(|_| "--threads must be an integer".to_string())?,
                )
            }
            "--duration" => {
                args.duration = Some(
                    value_of("--duration")?
                        .parse()
                        .map_err(|_| "--duration must be a number".to_string())?,
                )
            }
            "--seed" => {
                args.seed = Some(
                    value_of("--seed")?
                        .parse()
                        .map_err(|_| "--seed must be an integer".to_string())?,
                )
            }
            "--only" => {
                args.only = Some(
                    value_of("--only")?
                        .parse()
                        .map_err(|_| "--only must be a run index".to_string())?,
                )
            }
            "--metrics" => args.metrics = Some(value_of("--metrics")?),
            "--trace" => args.trace = Some(value_of("--trace")?),
            "--decisions" => args.decisions = Some(value_of("--decisions")?),
            "--expanded" => args.expanded = true,
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name => args.positional.push(name.to_string()),
        }
    }
    Ok(args)
}

/// Loads the spec named by `--file` or the positional built-in name.
fn load_spec(args: &Args) -> Result<ScenarioSpec, String> {
    let mut spec = if let Some(path) = &args.file {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        engine::parse_spec(&text).map_err(|e| format!("{path}: {e}"))?
    } else if let Some(name) = args.positional.first() {
        builtin::get(name).map_err(|e| {
            let near = builtin::suggestions(name);
            let hint = if near.is_empty() {
                String::new()
            } else {
                format!("did you mean: {}?\n", near.join(", "))
            };
            format!("{e}\n{hint}available: {}", builtin::names().join(", "))
        })?
    } else {
        return Err("give a built-in scenario name or --file <spec>".to_string());
    };
    if let Some(d) = args.duration {
        spec.duration = d;
    }
    if let Some(s) = args.seed {
        spec.seed = s;
    }
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

fn cmd_list() -> Result<(), String> {
    println!("{:<18} {:>5}  description", "name", "runs");
    for name in builtin::names() {
        let spec = builtin::get(name).map_err(|e| e.to_string())?;
        let runs = expand(&spec).map_err(|e| e.to_string())?.len();
        println!(
            "{name:<18} {runs:>5}  {}",
            spec.description.as_deref().unwrap_or("")
        );
    }
    Ok(())
}

fn cmd_show(args: &Args) -> Result<(), String> {
    let spec = load_spec(args)?;
    if args.expanded {
        let plans = expand(&spec).map_err(|e| e.to_string())?;
        println!("# {} runs in the matrix of `{}`\n", plans.len(), spec.name);
        for plan in plans {
            let params: Vec<String> = plan
                .params
                .iter()
                .map(|(k, v)| format!("{k}={}", serde_json::to_string(v).unwrap_or_default()))
                .collect();
            println!(
                "run {:>4}  seed {:>20}  adapter {:<18} {}",
                plan.run_idx,
                plan.seed,
                plan.adapter.label(),
                params.join(" ")
            );
        }
    } else {
        print!("{}", spec.to_toml());
    }
    Ok(())
}

fn cmd_run(args: &Args, require_sweep: bool) -> Result<(), String> {
    let spec = load_spec(args)?;
    if require_sweep && spec.sweep.as_ref().is_none_or(|s| s.0.is_empty()) {
        return Err(format!(
            "`sweep` needs a spec with [sweep] axes; `{}` has none (use `run`)",
            spec.name
        ));
    }
    let mut plans = expand(&spec).map_err(|e| e.to_string())?;
    if let Some(idx) = args.only {
        let total = plans.len();
        plans.retain(|p| p.run_idx == idx);
        if plans.is_empty() {
            return Err(format!(
                "--only {idx} is out of range: the matrix has {total} runs (0..{})",
                total.saturating_sub(1)
            ));
        }
    }
    let threads = args.threads.map(|t| t.max(1));
    eprintln!(
        "scenario `{}`: {} runs x {:.1}s simulated, {} threads",
        spec.name,
        plans.len(),
        spec.duration,
        threads
            .map(|t| t.to_string())
            .unwrap_or_else(|| "auto".to_string()),
    );
    let telemetry = (args.metrics.is_some() || args.trace.is_some() || args.decisions.is_some())
        .then(|| RecorderConfig {
            trace: args.trace.is_some(),
            decisions: args.decisions.is_some(),
            ..RecorderConfig::default()
        });
    let mut outputs = open_outputs(args)?;
    let started = std::time::Instant::now();
    // Each outcome is written to every requested file as soon as it and
    // every earlier run are done, then dropped; only the result rows the
    // summary table needs are kept. A panicking run is captured as a
    // structured `kind: "error"` row (in matrix order, alongside the
    // healthy results) and the command exits non-zero — the rest of the
    // matrix still completes and every requested file is still written.
    let (mut results, mut failures, mut write_error) = (Vec::new(), 0, None);
    let opts = engine::RunOptions { threads, telemetry };
    engine::run_matrix(&plans, &opts, |outcome| {
        for o in &mut outputs {
            if let Err(e) = o.file.write_all((o.render)(&outcome).as_bytes()) {
                write_error.get_or_insert(format!("cannot write {}: {e}", o.path));
            }
        }
        match outcome {
            Ok((r, _)) => results.push(r),
            Err(f) => {
                eprintln!("run {} ({}) PANICKED: {}", f.run_idx, f.adapter, f.error);
                failures += 1;
            }
        }
    });
    eprintln!("completed in {:.2}s", started.elapsed().as_secs_f64());
    print!("{}", summary_table(&results));
    for mut o in outputs {
        match o.file.flush() {
            Ok(()) => eprintln!("[wrote {}]", o.path),
            Err(e) => write_error = write_error.or(Some(format!("cannot write {}: {e}", o.path))),
        }
    }
    if let Some(e) = write_error {
        return Err(e);
    }
    if failures > 0 {
        return Err(format!(
            "{failures} of {} runs panicked (see their `kind: \"error\"` result rows)",
            plans.len()
        ));
    }
    Ok(())
}

/// What an output file receives from one outcome.
type Render = fn(&RunOutcome) -> String;

/// One requested output file and what it receives from each outcome.
struct Output {
    path: String,
    file: BufWriter<File>,
    render: Render,
}

/// Creates every requested output file (`--out`, `--metrics`, `--trace`,
/// `--decisions`, with their parent directories) before anything runs,
/// so a bad path fails at once. If one cannot be created, the ones
/// already created are removed again.
fn open_outputs(args: &Args) -> Result<Vec<Output>, String> {
    let requested: [(&Option<String>, Render); 4] = [
        (&args.out, |o| outcomes_to_jsonl(std::slice::from_ref(o))),
        (&args.metrics, |o| stream(o, TelemetryReport::metrics_jsonl)),
        (&args.trace, |o| stream(o, TelemetryReport::trace_jsonl)),
        (&args.decisions, |o| {
            stream(o, TelemetryReport::decisions_jsonl)
        }),
    ];
    let mut outputs: Vec<Output> = Vec::new();
    for (path, render) in requested {
        let Some(path) = path else { continue };
        if let Some(parent) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match File::create(path) {
            Ok(file) => outputs.push(Output {
                path: path.clone(),
                file: BufWriter::new(file),
                render,
            }),
            Err(e) => {
                for o in &outputs {
                    let _ = std::fs::remove_file(&o.path);
                }
                return Err(format!("cannot write {path}: {e}"));
            }
        }
    }
    Ok(outputs)
}

/// One telemetry stream of a run; empty if it failed or recorded nothing.
fn stream(outcome: &RunOutcome, render: fn(&TelemetryReport) -> String) -> String {
    outcome
        .as_ref()
        .ok()
        .and_then(|(_, t)| t.as_ref())
        .map_or_else(String::new, render)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "list" => cmd_list(),
        "show" => cmd_show(&args),
        "run" => cmd_run(&args, false),
        "sweep" => cmd_run(&args, true),
        "--help" | "-h" | "help" => {
            print!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_removed_shards_flag_is_rejected() {
        assert_eq!(
            parse(&["dense-enterprise", "--shards", "2"])
                .err()
                .as_deref(),
            Some("unknown flag `--shards`")
        );
    }

    /// Two runs (one per adapter) of a short fading analytic TCP cell.
    const TWO_RUNS: &str = r#"
name = "two-runs"
duration = 0.4
seed = 7
adapters = ["SoftRate", "Rraa"]

[topology]
n_clients = 2

[channel]
model = "Analytic"
snr_db = 14.0

[channel.fading.Flat]
doppler_hz = 50.0

[traffic]
kind = "Tcp"
"#;

    /// A fresh scratch directory for one test's files.
    fn scratch_dir(test: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("softrate-scenarios-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// `run` writes each outcome's result row and streams as it arrives;
    /// the files equal the matrix's outcomes joined in plan order.
    #[test]
    fn telemetry_files_equal_the_joined_streams() {
        let plans = expand(&engine::parse_spec(TWO_RUNS).unwrap()).unwrap();
        assert_eq!(plans.len(), 2);
        let telemetry = RecorderConfig {
            trace: true,
            decisions: true,
            ..RecorderConfig::default()
        };
        let opts = engine::RunOptions {
            threads: Some(1),
            telemetry: Some(telemetry),
        };
        let outcomes = engine::run_all_checked(&plans, &opts);
        let joined = |render: fn(&TelemetryReport) -> String| -> String {
            outcomes
                .iter()
                .map(|o| render(o.as_ref().unwrap().1.as_ref().unwrap()))
                .collect()
        };
        let dir = scratch_dir("telemetry");
        let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
        std::fs::write(file("spec.toml"), TWO_RUNS).unwrap();
        let args = parse(&[
            "--file",
            &file("spec.toml"),
            "--threads",
            "2",
            "--out",
            &file("r.jsonl"),
            "--metrics",
            &file("m.jsonl"),
            "--trace",
            &file("t.jsonl"),
            "--decisions",
            &file("d.jsonl"),
        ])
        .unwrap();
        cmd_run(&args, false).unwrap();
        for (name, want) in [
            ("r.jsonl", outcomes_to_jsonl(&outcomes)),
            ("m.jsonl", joined(TelemetryReport::metrics_jsonl)),
            ("t.jsonl", joined(TelemetryReport::trace_jsonl)),
            ("d.jsonl", joined(TelemetryReport::decisions_jsonl)),
        ] {
            assert!(!want.is_empty(), "{name} is empty");
            assert_eq!(
                std::fs::read(file(name)).unwrap(),
                want.as_bytes(),
                "{name}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every output file is created before the first run: a path that
    /// cannot be created fails `run` at once, and leaves none of the
    /// other requested files behind.
    #[test]
    fn a_bad_output_path_fails_before_anything_runs() {
        let dir = scratch_dir("bad-output");
        let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
        std::fs::write(file("blocker"), "a regular file").unwrap();
        let bad = file("blocker/sub/out.jsonl");
        for bad_flag in ["--out", "--decisions"] {
            let mut argv = vec!["static-office", "--only", "0", "--duration", "0.05"];
            let paths = [
                ("--out", file("r.jsonl")),
                ("--metrics", file("m.jsonl")),
                ("--trace", file("t.jsonl")),
                ("--decisions", file("d.jsonl")),
            ];
            for (flag, path) in &paths {
                argv.extend([*flag, if *flag == bad_flag { &bad } else { path }]);
            }
            let err = cmd_run(&parse(&argv).unwrap(), false).unwrap_err();
            assert!(
                err.starts_with(&format!("cannot write {bad}: ")),
                "{bad_flag}: {err}"
            );
            for (flag, path) in &paths {
                assert!(
                    !std::path::Path::new(path).exists(),
                    "bad {bad_flag}: {flag} {path} was created"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
