//! Integration tests of the scenario engine through the facade crate:
//! schema round-trips, sweep expansion, end-to-end runs, and the
//! determinism guarantee on the JSON-lines sink.

use softrate::scenario::builtin;
use softrate::scenario::engine::{expand, run_matrix, run_spec, RunOptions, RunPlan};
use softrate::scenario::spec::{AdapterSpec, ScenarioSpec};
use softrate::telemetry::RecorderConfig;

/// A fast 2-axis sweep spec (analytic channel, sub-second runs).
fn small_sweep() -> ScenarioSpec {
    ScenarioSpec::from_toml(
        r#"
name = "it-sweep"
duration = 0.5
seed = 4242
adapters = ["SoftRate", "Omniscient"]

[topology]
n_clients = 1

[channel]
model = "Analytic"
snr_db = 16.0

[channel.fading.Flat]
doppler_hz = 50.0

[traffic]
kind = "Tcp"

[sweep]
"channel.snr_db" = [10.0, 16.0, 22.0]
"channel.fading.Flat.doppler_hz" = [10.0, 200.0]
"#,
    )
    .expect("spec parses")
}

#[test]
fn toml_roundtrip_through_facade() {
    let spec = small_sweep();
    let back = ScenarioSpec::from_toml(&spec.to_toml()).unwrap();
    assert_eq!(back, spec);
}

#[test]
fn sweep_expansion_cardinality() {
    // 3 SNRs x 2 Dopplers x 2 adapters.
    let plans = expand(&small_sweep()).unwrap();
    assert_eq!(plans.len(), 12);
    // Every plan carries both axis assignments.
    assert!(plans.iter().all(|p| p.params.len() == 2));
}

/// Runs `plans` through `run_matrix` on `threads` workers with every
/// telemetry stream on. Checks that the sink sees run indices 0..n in
/// order and returns what it wrote: `[results, metrics, trace,
/// decisions]`, each joined in matrix order.
fn streamed(plans: &[RunPlan], threads: usize) -> [String; 4] {
    let opts = RunOptions {
        threads: Some(threads),
        telemetry: Some(RecorderConfig {
            trace: true,
            decisions: true,
            ..RecorderConfig::default()
        }),
    };
    let (mut order, mut streams) = (Vec::new(), [(); 4].map(|()| String::new()));
    run_matrix(plans, &opts, |outcome| {
        let (result, report) = outcome.expect("run completes");
        order.push(result.run_idx);
        streams[0] += &serde_json::to_string(&result).unwrap();
        streams[0].push('\n');
        let report = report.expect("telemetry on");
        streams[1] += &report.metrics_jsonl();
        streams[2] += &report.trace_jsonl();
        streams[3] += &report.decisions_jsonl();
    });
    assert_eq!(
        order,
        (0..plans.len()).collect::<Vec<_>>(),
        "threads {threads}: the sink sees the matrix in order"
    );
    streams
}

#[test]
fn jsonl_is_deterministic_across_runs_and_thread_counts() {
    let plans = expand(&small_sweep()).unwrap();
    let first = streamed(&plans, 1);
    let again = streamed(&plans, 1);
    let two = streamed(&plans, 2);
    let eight = streamed(&plans, 8);
    assert!(first.iter().all(|s| !s.is_empty()));
    assert_eq!(first, again, "repeat runs must be byte-identical");
    assert_eq!(first, two, "thread count must not leak into the streams");
    assert_eq!(first, eight, "thread count must not leak into the streams");
    assert_eq!(first[0].lines().count(), 12);
}

#[test]
fn builtin_library_is_browsable_and_runs() {
    assert!(builtin::names().len() >= 10);
    // Run the cheapest built-in end to end.
    let mut spec = builtin::get("static-office").unwrap();
    spec.duration = 0.5;
    spec.adapters = Some(vec![AdapterSpec::SoftRate, AdapterSpec::Omniscient]);
    let results = run_spec(&spec, Some(2)).unwrap();
    assert_eq!(results.len(), 2);
    for r in &results {
        assert!(
            r.goodput_bps > 5e6,
            "{} only moved {} bps on a 25 dB static link",
            r.adapter,
            r.goodput_bps
        );
    }
}

#[test]
fn softrate_beats_no_detect_under_hidden_terminals() {
    // The paper's §6.4 headline, through the whole stack: same scenario,
    // detector on vs off. Aggregate goodput under hidden terminals has
    // high variance (capture effects), so average a few seeds.
    let mut spec = builtin::get("hidden-terminal").unwrap();
    spec.adapters = Some(vec![AdapterSpec::SoftRate, AdapterSpec::SoftRateNoDetect]);
    let (mut sr_goodput, mut nd_goodput) = (0.0, 0.0);
    let (mut sr_under, mut nd_under) = (0.0, 0.0);
    let mut collisions = 0;
    for seed in 1..=4 {
        spec.seed = seed;
        let results = run_spec(&spec, Some(2)).unwrap();
        sr_goodput += results[0].goodput_bps;
        sr_under += results[0].underselect;
        nd_goodput += results[1].goodput_bps;
        nd_under += results[1].underselect;
        collisions += results[0].collisions;
    }
    assert!(collisions > 0, "hidden terminals must collide");
    assert!(
        sr_goodput > nd_goodput,
        "interference detection must pay: {sr_goodput} vs {nd_goodput}"
    );
    assert!(
        nd_under > sr_under,
        "disabling the detector must cause underselection ({nd_under:.2} vs {sr_under:.2})"
    );
}
