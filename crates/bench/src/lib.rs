//! # softrate-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the
//! index), plus criterion micro-benchmarks of the hot paths. Binaries print
//! the paper's rows/series to stdout and drop machine-readable JSON under
//! `results/`.
//!
//! Every binary accepts `--smoke` (or env `SOFTRATE_SMOKE=1`) to run a
//! scaled-down version in seconds instead of minutes; EXPERIMENTS.md
//! records full-scale outputs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use softrate_trace::cache::load_or_generate;
use softrate_trace::generate::{static_short_trace, walking_trace};
use softrate_trace::recipes::{StaticShortRecipe, WalkingRecipe};
use softrate_trace::schema::LinkTrace;

/// Whether the current invocation asked for the scaled-down run.
pub fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--smoke")
        || std::env::var("SOFTRATE_SMOKE")
            .map(|v| v == "1")
            .unwrap_or(false)
}

/// Per-benchmark measurement budget for the criterion micro-benches:
/// 2 s, or ~100 ms when `SOFTRATE_BENCH_QUICK` is set, so CI can smoke
/// the bench harnesses without paying for statistics.
pub fn bench_budget() -> Duration {
    if std::env::var_os("SOFTRATE_BENCH_QUICK").is_some() {
        Duration::from_millis(100)
    } else {
        Duration::from_secs(2)
    }
}

/// Repository-relative results directory (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("SOFTRATE_RESULTS").unwrap_or_else(|_| "results".to_string());
    let p = PathBuf::from(dir);
    let _ = fs::create_dir_all(&p);
    p
}

/// Writes a serializable value as pretty JSON under `results/`.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) {
    let path = results_dir().join(name);
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = fs::write(&path, s) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                eprintln!("[wrote {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

/// Prints a header banner for an experiment.
pub fn banner(title: &str) {
    println!("{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// The walking traces (Table 4 row 2), cached under `results/traces/`.
/// `n` runs; smoke mode shortens each run.
pub fn cached_walking_traces(n: usize, smoke: bool) -> Vec<Arc<LinkTrace>> {
    let recipe = if smoke {
        WalkingRecipe {
            duration: 2.0,
            ..Default::default()
        }
    } else {
        WalkingRecipe::default()
    };
    let tag = if smoke { "smoke" } else { "full" };
    (0..n)
        .map(|run| {
            let path = results_dir().join(format!("traces/walking-{tag}-{run}.json"));
            Arc::new(load_or_generate(path, || walking_trace(run, &recipe)))
        })
        .collect()
}

/// The static short-range traces (Table 4 row 5), cached.
pub fn cached_static_short_traces(n: usize, smoke: bool) -> Vec<Arc<LinkTrace>> {
    let recipe = if smoke {
        StaticShortRecipe {
            duration: 2.0,
            ..Default::default()
        }
    } else {
        StaticShortRecipe::default()
    };
    let tag = if smoke { "smoke" } else { "full" };
    (0..n)
        .map(|run| {
            let path = results_dir().join(format!("traces/static-short-{tag}-{run}.json"));
            Arc::new(load_or_generate(path, || static_short_trace(run, &recipe)))
        })
        .collect()
}

/// Geometric-mean helper used when aggregating normalized throughputs.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (s / values.len() as f64).exp()
}

/// Mean and (population) standard deviation.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
    (mean, var.sqrt())
}

/// Ensures a file's parent directory exists (for custom outputs).
pub fn ensure_parent(path: &Path) {
    if let Some(p) = path.parent() {
        let _ = fs::create_dir_all(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[1.0, 3.0]);
        assert_eq!(m, 2.0);
        assert_eq!(s, 1.0);
    }

    #[test]
    fn results_dir_exists() {
        let d = results_dir();
        assert!(d.exists());
    }
}
