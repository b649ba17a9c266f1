//! The scenario engine's command-line interface.
//!
//! ```text
//! softrate-scenarios list
//! softrate-scenarios show <name | --file spec.toml> [--expanded]
//! softrate-scenarios run  <name | --file spec.toml> [--threads N] [--shards N]
//!                         [--out results.jsonl] [--duration SECS] [--seed N]
//!                         [--metrics metrics.jsonl] [--trace trace.jsonl]
//!                         [--decisions decisions.jsonl]
//! softrate-scenarios sweep --file spec.toml [--threads N] [--shards N]
//!                         [--out results.jsonl]
//! ```
//!
//! `run` and `sweep` both execute the *full* expanded matrix in parallel;
//! `sweep` merely requires the spec to declare sweep axes (guarding
//! against accidentally running a 1-point "sweep"). Results go to stdout
//! as a summary table and, with `--out`, to a JSON-lines file whose bytes
//! are identical across repeat runs and thread counts.

use std::process::ExitCode;

use softrate_scenario::engine::{
    self, expand, outcomes_to_jsonl, summary_table, telemetry_decisions_jsonl,
    telemetry_metrics_jsonl, telemetry_trace_jsonl,
};
use softrate_scenario::spec::ScenarioSpec;
use softrate_scenario::{builtin, toml};
use softrate_telemetry::RecorderConfig;

fn usage() -> &'static str {
    "softrate-scenarios — declarative scenario engine for the SoftRate reproduction

USAGE:
    softrate-scenarios list
    softrate-scenarios show <name | --file spec.toml> [--expanded]
    softrate-scenarios run  <--name name | --file spec.toml> [--threads N]
                            [--shards N] [--out results.jsonl]
                            [--duration SECS] [--seed N] [--only RUN_IDX]
                            [--metrics metrics.jsonl] [--trace trace.jsonl]
                            [--decisions decisions.jsonl]
    softrate-scenarios sweep --file spec.toml [--threads N] [--shards N]
                            [--out results.jsonl] [--metrics metrics.jsonl]
                            [--trace trace.jsonl] [--decisions decisions.jsonl]

The scenario may be given as a bare positional name, `--name <builtin>`,
or `--file <spec.toml|spec.json>`.

`--metrics` turns on the telemetry recorder and writes per-station
interval/totals/histogram rows (deterministic JSONL, byte-identical
across thread counts). `--trace` additionally streams per-frame
lifecycle rows into the given file (implies --metrics if absent).
`--shards N` schedules each spatial run over N spatial domains (the
conservative parallel engine); results and every telemetry stream are
byte-identical to `--shards 1` — only the wall clock changes.
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
    shards: Option<usize>,
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
        shards: None,
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
            "--shards" => {
                args.shards = Some(
                    value_of("--shards")?
                        .parse()
                        .map_err(|_| "--shards must be an integer".to_string())?,
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
    let shards = args.shards.unwrap_or(1).max(1);
    eprintln!(
        "scenario `{}`: {} runs x {:.1}s simulated, {} threads, {shards} shard(s)",
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
    let started = std::time::Instant::now();
    let outcomes = engine::run_all_checked(
        &plans,
        &engine::RunOptions {
            threads,
            telemetry,
            shards,
            shard_workers: None,
        },
    );
    eprintln!("completed in {:.2}s", started.elapsed().as_secs_f64());
    // A panicking run is captured as a structured `kind: "error"` row
    // (in matrix order, alongside the healthy results) and the command
    // exits non-zero — the rest of the matrix still completes and every
    // requested output file is still written.
    let with_telemetry: Vec<_> = outcomes
        .iter()
        .filter_map(|o| o.as_ref().ok().cloned())
        .collect();
    let results: Vec<_> = with_telemetry.iter().map(|(r, _)| r.clone()).collect();
    print!("{}", summary_table(&results));
    let failures: Vec<_> = outcomes.iter().filter_map(|o| o.as_ref().err()).collect();
    for f in &failures {
        eprintln!("run {} ({}) PANICKED: {}", f.run_idx, f.adapter, f.error);
    }
    if let Some(out) = &args.out {
        write_file(out, &outcomes_to_jsonl(&outcomes))?;
    }
    if let Some(path) = &args.metrics {
        write_file(path, &telemetry_metrics_jsonl(&with_telemetry))?;
    }
    if let Some(path) = &args.trace {
        write_file(path, &telemetry_trace_jsonl(&with_telemetry))?;
    }
    if let Some(path) = &args.decisions {
        write_file(path, &telemetry_decisions_jsonl(&with_telemetry))?;
    }
    if !failures.is_empty() {
        return Err(format!(
            "{} of {} runs panicked (see their `kind: \"error\"` result rows)",
            failures.len(),
            outcomes.len()
        ));
    }
    Ok(())
}

/// Writes `text` to `path`, creating parent directories as needed.
fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("[wrote {path}]");
    Ok(())
}

/// Sanity helper for `show --file` on raw TOML that is not a scenario:
/// kept internal; surfaces parser line numbers to the user.
#[allow(dead_code)]
fn check_toml(text: &str) -> Result<(), String> {
    toml::parse(text).map(|_| ()).map_err(|e| e.to_string())
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
