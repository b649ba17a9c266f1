//! The two passes over a workload: `run` measures the end-to-end metrics
//! with tracing off, `trace` measures the per-layer ones.
//!
//! Both check every repetition's outputs (see [`Expected`]). An operation
//! is one spatial repetition or one scenario-matrix run; it fails if it
//! panics, yields a `kind:"error"` row, or produces outputs that differ
//! from the expected ones.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use softrate_net::sim::SpatialSim;
use softrate_net::stream::mix_seed;
use softrate_scenario::builtin::BUILTINS;
use softrate_scenario::channelgen::build_trace;
use softrate_scenario::engine::{
    expand, outcomes_to_jsonl, run_all_checked, run_plan_checked, RunOptions, RunOutcome,
};
use softrate_scenario::spec::ScenarioSpec;
use softrate_telemetry::RecorderConfig;

use crate::alloc;
use crate::metrics::PER_LAYER;
use crate::spans::Tracer;
use crate::stats::{best, median, percentile, quartiles};
use crate::workloads::{
    matrix_plans, matrix_spec, spatial_config, Expected, MatrixRender, Outputs, Workload,
};

/// What a pass measured: operations attempted and failed, and a value for
/// every metric the pass reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

/// Worker threads of the scenario matrix in `run`: the host's two cores.
const MATRIX_THREADS: usize = 2;

fn recorder() -> RecorderConfig {
    // Metrics and the decision ledger; no per-frame trace.
    RecorderConfig {
        decisions: true,
        ..RecorderConfig::default()
    }
}

fn matrix_options(threads: usize, telemetry: Option<RecorderConfig>) -> RunOptions {
    RunOptions {
        threads: Some(threads),
        telemetry,
        ..RunOptions::default()
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn print_samples(name: &str, how: &str, samples: &[f64]) {
    let [q1, q2, q3] = quartiles(samples);
    println!(
        "  {name:<12} {how} of {} reps; reps q1 {q1:.4} median {q2:.4} q3 {q3:.4} s",
        samples.len()
    );
}

/// Records one repetition's outcome; returns whether it failed.
fn judge(expected: &mut Expected, rep: usize, got: Outputs) -> bool {
    match expected.check(got) {
        Ok(()) => false,
        Err(diff) => {
            eprintln!("rep {rep}: outputs differ from the expected ones: {diff}");
            true
        }
    }
}

/// `run` on a spatial workload: a warm-up at a quarter of the simulated
/// time, then repetitions back to back until `seconds` have passed.
pub fn run_spatial(w: Workload, seed: u64, seconds: f64, scale: f64) -> Result<Report, String> {
    let cfg = spatial_config(w, seed, scale);
    let mut warm = cfg.clone();
    warm.duration /= 4.0;
    SpatialSim::new(warm).map_err(|e| e.to_string())?.run();

    let mut expected = Expected::new(w, seed, scale);
    let (mut setups, mut walls, mut events) = (Vec::new(), Vec::new(), 0);
    let (mut attempted, mut failed) = (0, 0);
    alloc::reset_peak();
    let started = Instant::now();
    while attempted == 0 || started.elapsed().as_secs_f64() < seconds {
        attempted += 1;
        let rep = catch_unwind(AssertUnwindSafe(|| {
            let t = Instant::now();
            let sim = SpatialSim::new(cfg.clone()).expect("benchmark floors are valid");
            let setup = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let report = sim.run();
            (setup, t.elapsed().as_secs_f64(), report)
        }));
        let Ok((setup, wall, report)) = rep else {
            eprintln!("rep {attempted}: panicked");
            failed += 1;
            continue;
        };
        setups.push(setup);
        walls.push(wall);
        events = report.events_processed;
        failed += u64::from(judge(
            &mut expected,
            attempted as usize,
            Outputs::spatial(&report),
        ));
    }
    if walls.is_empty() {
        return Err("every repetition panicked".into());
    }
    print_samples("wall_s", "best", &walls);
    print_samples("setup_s", "median", &setups);
    println!(
        "  {:<12} {:.0} events/s ({events} events over wall_s)",
        "throughput",
        events as f64 / best(&walls)
    );
    Ok(Report {
        attempted,
        failed,
        metrics: vec![
            ("wall_s", best(&walls)),
            ("setup_s", median(&setups)),
            ("peak_heap_mb", alloc::peak_mb()),
        ],
    })
}

/// `run` on the scenario matrix: a warm-up at a quarter of every
/// scenario's duration, then repetitions of parse → expand → run on two
/// threads → render, back to back until `seconds` have passed.
pub fn run_matrix(seed: u64, seconds: f64, scale: f64) -> Result<Report, String> {
    let opts = matrix_options(MATRIX_THREADS, Some(recorder()));
    let warm = matrix_plans(seed, scale / 4.0).map_err(|e| e.to_string())?;
    run_all_checked(&warm, &opts);

    let mut expected = Expected::new(Workload::ScenarioMatrix, seed, scale);
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut reps) = (0, 0, 0);
    alloc::reset_peak();
    let started = Instant::now();
    while reps == 0 || started.elapsed().as_secs_f64() < seconds {
        reps += 1;
        let t = Instant::now();
        let plans = matrix_plans(seed, scale).map_err(|e| e.to_string())?;
        setups.push(t.elapsed().as_secs_f64());
        let outcomes = run_all_checked(&plans, &opts);
        let render = MatrixRender::new(&outcomes, outcomes_to_jsonl(&outcomes));
        walls.push(t.elapsed().as_secs_f64());
        attempted += plans.len() as u64;
        failed += if judge(&mut expected, reps, render.outputs(plans.len())) {
            plans.len() as u64
        } else {
            render.failed_runs
        };
    }
    print_samples("wall_s", "best", &walls);
    print_samples("setup_s", "median", &setups);
    Ok(Report {
        attempted,
        failed,
        metrics: vec![
            ("wall_s", best(&walls)),
            ("setup_s", median(&setups)),
            ("peak_heap_mb", alloc::peak_mb()),
        ],
    })
}

/// Every per-layer metric, zero unless `set` gives it a value: a layer a
/// workload never reaches reads zero there.
fn per_layer(set: &[(&'static str, f64)]) -> Vec<(&'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|m| {
            let v = set.iter().find(|(n, _)| *n == m.name).map_or(0.0, |s| s.1);
            (m.name, v)
        })
        .collect()
}

/// `trace` on a spatial workload: a warm-up, one plain `SpatialSim::run`,
/// then one `SpatialSim::run_profiled`, whose phase timers give the
/// per-layer shares. Everything the named phases do not cover is the
/// `sim.dispatch_s` residual.
pub fn trace_spatial(w: Workload, seed: u64, scale: f64, t: &mut Tracer) -> Result<Report, String> {
    let cfg = spatial_config(w, seed, scale);
    let mut warm = cfg.clone();
    warm.duration /= 4.0;
    let new = |cfg| SpatialSim::new(cfg).map_err(|e| e.to_string());
    t.time("warmup", || new(warm).map(SpatialSim::run))?;

    let sim = t.time("spatial.setup", || new(cfg.clone()))?;
    let id = t.enter("spatial.run");
    let plain = sim.run();
    let untraced = t.exit(id);
    let sim = t.time("spatial.setup", || new(cfg.clone()))?;
    let id = t.enter("spatial.run_profiled");
    let (report, p) = sim.run_profiled();
    let traced = t.exit(id);

    let mut expected = Expected::new(w, seed, scale);
    let failed = [Outputs::spatial(&plain), Outputs::spatial(&report)]
        .into_iter()
        .enumerate()
        .filter(|(i, o)| judge(&mut expected, i + 1, o.clone()))
        .count() as u64;

    let phases = [
        p.sense_s,
        p.begin_s,
        p.collision_s,
        p.fate_s,
        p.medium_ev_s,
        p.transport_s,
        p.outcome_s,
    ];
    let sense_calls = (p.deferrals + p.transmissions) as f64;
    let events = report.events_processed as f64;
    Ok(Report {
        attempted: 2,
        failed,
        metrics: per_layer(&[
            ("net.sense_s", p.sense_s),
            ("net.sense_calls", sense_calls),
            ("net.sense_ns", ratio(p.sense_s * 1e9, sense_calls)),
            ("net.busy_ratio", ratio(p.deferrals as f64, sense_calls)),
            ("sim.dispatch_s", p.total_s - phases.iter().sum::<f64>()),
            ("sim.events", events),
            ("sim.ns_per_event", ratio(untraced * 1e9, events)),
            ("sim.traced_s", p.total_s),
            ("net.begin_s", p.begin_s),
            ("net.collision_s", p.collision_s),
            ("net.fate_s", p.fate_s),
            ("sim.outcome_s", p.outcome_s),
            ("sim.transport_s", p.transport_s),
            ("sim.frames_sent", report.frames_sent as f64),
            ("sim.frames_delivered", report.frames_delivered as f64),
            (
                "sim.delivery_ratio",
                ratio(report.frames_delivered as f64, report.frames_sent as f64),
            ),
            ("sim.collisions", report.collisions as f64),
            ("net.roam_s", p.medium_ev_s),
            ("net.handoffs", report.handoffs as f64),
            (
                "net.inter_cell_corruptions",
                report.inter_cell_corruptions as f64,
            ),
            ("trace.overhead", traced / untraced - 1.0),
        ]),
    })
}

/// `trace` on the scenario matrix, on one thread so that each span
/// measures only its own plan:
///
/// 1. parse and expand each built-in in its own span;
/// 2. the run stage as `run` does it (`run_all_checked`, recorder on) — the
///    untraced reference;
/// 3. plan by plan with the recorder on, each plan in a span, and the
///    single-cell plans' link traces built first in a span of their own;
/// 4. plan by plan with the recorder off, which gives the recorder's cost
///    and must not change the results.
pub fn trace_matrix(seed: u64, scale: f64, t: &mut Tracer) -> Result<Report, String> {
    let (on, off) = (matrix_options(1, Some(recorder())), matrix_options(1, None));
    let warm = matrix_plans(seed, scale / 4.0).map_err(|e| e.to_string())?;
    t.time("warmup", || {
        run_all_checked(&warm, &matrix_options(MATRIX_THREADS, Some(recorder())))
    });

    let mut specs: Vec<ScenarioSpec> = Vec::new();
    for (_, text) in BUILTINS {
        let spec = t.time("scenario.parse", || matrix_spec(text, seed, scale));
        specs.push(spec.map_err(|e| e.to_string())?);
    }
    let mut plans = Vec::new();
    for spec in &specs {
        let expanded = t.time("scenario.expand", || expand(spec));
        plans.extend(expanded.map_err(|e| e.to_string())?);
    }
    let runs = plans.len() as u64;

    let id = t.enter("scenario.run_all");
    let reference = run_all_checked(&plans, &on);
    let untraced = t.exit(id);

    let mut outcomes: Vec<RunOutcome> = Vec::with_capacity(plans.len());
    for plan in &plans {
        if plan.spec.topology.spatial.is_some() {
            outcomes.push(t.time("scenario.spatial", || run_plan_checked(plan, &on)));
            continue;
        }
        // The link traces `run_plan` builds for itself, built once more
        // here on their own so their cost shows.
        let channel_seed = mix_seed(plan.spec.seed, 0xC4A2_17CE);
        t.time("scenario.channelgen", || {
            for link in 0..2 * plan.spec.n_clients() {
                std::hint::black_box(build_trace(&plan.spec, channel_seed, link));
            }
        });
        outcomes.push(t.time("scenario.single_cell", || run_plan_checked(plan, &on)));
    }
    let results = t.time("scenario.serialize", || outcomes_to_jsonl(&outcomes));
    let render = t.time("telemetry.render", || MatrixRender::new(&outcomes, results));

    let id = t.enter("scenario.run_recorder_off");
    let unrecorded: Vec<RunOutcome> = plans.iter().map(|p| run_plan_checked(p, &off)).collect();
    let off_s = t.exit(id);

    let mut expected = Expected::new(Workload::ScenarioMatrix, seed, scale);
    let reference_render = MatrixRender::new(&reference, outcomes_to_jsonl(&reference));
    let mut failed = 0;
    for (pass, r) in [(1, &reference_render), (2, &render)] {
        failed += if judge(&mut expected, pass, r.outputs(plans.len())) {
            runs
        } else {
            r.failed_runs
        };
    }
    if outcomes_to_jsonl(&unrecorded) != render.results {
        eprintln!("pass 3: results with the recorder off differ from those with it on");
        failed += runs;
    }

    let mut run_ms = t.durations_of("scenario.single_cell");
    run_ms.extend(t.durations_of("scenario.spatial"));
    let run_s: f64 = run_ms.iter().sum();
    run_ms.iter_mut().for_each(|s| *s *= 1e3);
    let (mut sent, mut delivered, mut collisions, mut handoffs) = (0, 0, 0, 0);
    for (r, _) in outcomes.iter().filter_map(|o| o.as_ref().ok()) {
        sent += r.frames_sent;
        delivered += r.frames_delivered;
        collisions += r.collisions;
        handoffs += r.handoffs;
    }
    Ok(Report {
        attempted: 3 * runs,
        failed,
        metrics: per_layer(&[
            ("sim.frames_sent", sent as f64),
            ("sim.frames_delivered", delivered as f64),
            ("sim.delivery_ratio", ratio(delivered as f64, sent as f64)),
            ("sim.collisions", collisions as f64),
            ("net.handoffs", handoffs as f64),
            ("trace.overhead", run_s / untraced - 1.0),
            ("scenario.parse_s", t.self_time_of("scenario.parse")),
            ("scenario.expand_s", t.self_time_of("scenario.expand")),
            ("scenario.serialize_s", t.self_time_of("scenario.serialize")),
            (
                "scenario.channelgen_s",
                t.self_time_of("scenario.channelgen"),
            ),
            (
                "scenario.single_cell_s",
                t.self_time_of("scenario.single_cell"),
            ),
            ("scenario.spatial_s", t.self_time_of("scenario.spatial")),
            ("scenario.run_p50_ms", percentile(&run_ms, 50.0)),
            ("scenario.run_p90_ms", percentile(&run_ms, 90.0)),
            ("scenario.runs", runs as f64),
            ("scenario.failed_runs", render.failed_runs as f64),
            ("telemetry.render_s", t.self_time_of("telemetry.render")),
            ("telemetry.bytes", render.telemetry.len() as f64),
            ("telemetry.rows", render.telemetry.lines().count() as f64),
            ("telemetry.overhead", run_s / off_s - 1.0),
        ]),
    })
}
