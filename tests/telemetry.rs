//! Integration tests of the telemetry seam through the facade crate.
//!
//! The hard invariants of the observability PR, end to end:
//!
//! * disabled path — a run with `telemetry: None` is byte-identical to
//!   one that never heard of the recorder, and enabling the recorder
//!   changes neither the results JSONL nor `events_processed`;
//! * enabled path — the metrics and trace streams are byte-identical
//!   across thread counts at acceptance scale (>= 100 stations);
//! * attribution — every failed attempt carries exactly one loss cause,
//!   so per-station `retries == collision + fading + capture`;
//! * the decision ledger — byte-identical across thread counts, every
//!   rate change observed in the metrics stream has a matching ledger
//!   row, and the ledger stream is empty (and everything else unchanged)
//!   when `decisions` is off;
//! * the flight recorder replays its ring exactly once on a retry storm,
//!   deterministically across thread counts;
//! * the emitted streams validate against the checked-in schema.

use softrate::net::mobility::MobilitySpec;
use softrate::net::sim::{SpatialConfig, SpatialSim};
use softrate::net::spatial::SpatialSpec;
use softrate::scenario::builtin;
use softrate::scenario::engine::{
    expand, outcomes_to_jsonl, run_all_checked, RunOptions, RunOutcome, RunPlan,
};
use softrate::sim::config::AdapterKind;
use softrate::telemetry::inspect::Schema;
use softrate::telemetry::{RecorderConfig, TelemetryReport};

/// A shortened builtin: the spec's topology and adapters, test runtime.
fn short(name: &str, duration: f64) -> softrate::scenario::spec::ScenarioSpec {
    let mut spec = builtin::get(name).expect("builtin exists");
    spec.duration = duration;
    spec
}

/// Runs `plans` on `threads` workers with the given recorder; every run
/// must complete.
fn run_checked(
    plans: &[RunPlan],
    threads: usize,
    telemetry: Option<RecorderConfig>,
) -> Vec<RunOutcome> {
    let outcomes = run_all_checked(
        plans,
        &RunOptions {
            threads: Some(threads),
            telemetry,
        },
    );
    assert!(outcomes.iter().all(Result::is_ok), "every run completes");
    outcomes
}

/// The report of a completed run, if it carries one.
fn report(outcome: &RunOutcome) -> Option<&TelemetryReport> {
    outcome.as_ref().ok()?.1.as_ref()
}

/// One telemetry stream of every run, joined in matrix order.
fn joined(outcomes: &[RunOutcome], stream: fn(&TelemetryReport) -> String) -> String {
    outcomes.iter().filter_map(report).map(stream).collect()
}

/// Runs a builtin with the recorder on and returns `(results_jsonl,
/// metrics_jsonl, trace_jsonl, reports)`.
fn run_with_recorder(
    name: &str,
    duration: f64,
    threads: usize,
    cfg: RecorderConfig,
) -> (String, String, String, Vec<Option<TelemetryReport>>) {
    let plans = expand(&short(name, duration)).expect("expands");
    let with = run_checked(&plans, threads, Some(cfg));
    let reports = with.iter().map(|o| report(o).cloned()).collect();
    (
        outcomes_to_jsonl(&with),
        joined(&with, TelemetryReport::metrics_jsonl),
        joined(&with, TelemetryReport::trace_jsonl),
        reports,
    )
}

#[test]
fn recorder_does_not_change_results_on_either_medium() {
    // fast-fading exercises the trace-backed path, dense-enterprise the
    // spatial path; both must produce byte-identical results JSONL with
    // the recorder on, off, and tracing.
    for name in ["fast-fading", "dense-enterprise"] {
        let plans = expand(&short(name, 0.5)).expect("expands");
        let off = outcomes_to_jsonl(&run_checked(&plans, 2, None));
        let cfg = RecorderConfig {
            trace: true,
            ..RecorderConfig::default()
        };
        let with = run_checked(&plans, 2, Some(cfg));
        let on = outcomes_to_jsonl(&with);
        assert!(!off.is_empty());
        assert_eq!(off, on, "{name}: recorder must not perturb results");
        assert!(
            with.iter().all(|o| report(o).is_some()),
            "{name}: every run must yield a telemetry report"
        );
    }
}

/// A small two-cell deployment driven through `SpatialSim` directly, so
/// the test can compare `events_processed` (the scenario engine's
/// results rows do not carry it).
fn two_cell_cfg(telemetry: Option<RecorderConfig>) -> SpatialConfig {
    let spec = SpatialSpec {
        ap_cols: 2,
        ap_rows: 1,
        ap_spacing_m: 25.0,
        n_stations: 16,
        snr_ref_db: None,
        path_loss_exp: None,
        sense_snr_db: None,
        capture_sir_db: None,
        doppler_hz: None,
        mobility: MobilitySpec::Static,
        roaming: None,
    };
    let mut cfg = SpatialConfig::new(AdapterKind::SoftRate, spec);
    cfg.duration = 1.0;
    cfg.telemetry = telemetry;
    cfg
}

#[test]
fn recorder_does_not_change_events_processed() {
    let off = SpatialSim::new(two_cell_cfg(None)).expect("valid").run();
    let on = SpatialSim::new(two_cell_cfg(Some(RecorderConfig::default())))
        .expect("valid")
        .run();
    assert_eq!(off.events_processed, on.events_processed);
    assert_eq!(off.aggregate_goodput_bps, on.aggregate_goodput_bps);
    assert_eq!(off.frames_sent, on.frames_sent);
    assert_eq!(off.frames_delivered, on.frames_delivered);
    assert_eq!(off.collisions, on.collisions);
    assert!(
        off.telemetry.is_none(),
        "disabled path must carry no report"
    );
    let report = on.telemetry.expect("enabled path must carry a report");
    assert!(!report.totals.is_empty());
}

#[test]
fn metrics_jsonl_is_byte_identical_across_thread_counts() {
    // Acceptance scale: dense-enterprise is the >= 100-station builtin.
    let cfg = RecorderConfig {
        trace: true,
        ..RecorderConfig::default()
    };
    let (_, m1, t1, _) = run_with_recorder("dense-enterprise", 0.5, 1, cfg.clone());
    let (_, m2, t2, _) = run_with_recorder("dense-enterprise", 0.5, 2, cfg.clone());
    let (_, m8, t8, _) = run_with_recorder("dense-enterprise", 0.5, 8, cfg);
    assert!(!m1.is_empty());
    assert_eq!(m1, m2, "metrics must not depend on thread count");
    assert_eq!(m2, m8, "metrics must not depend on thread count");
    assert!(!t1.is_empty());
    assert_eq!(t1, t2, "trace must not depend on thread count");
    assert_eq!(t2, t8, "trace must not depend on thread count");
}

#[test]
fn every_failed_attempt_has_exactly_one_cause() {
    // hidden-terminal manufactures same-cell collisions on the
    // trace-backed medium; dense-enterprise loses frames to fading and
    // inter-cell capture on the spatial medium.
    for (name, duration) in [("hidden-terminal", 1.0), ("dense-enterprise", 0.5)] {
        let (_, _, _, reports) = run_with_recorder(name, duration, 2, RecorderConfig::default());
        let mut retries = 0u64;
        let mut attributed = 0u64;
        for report in reports.iter().flatten() {
            for row in &report.totals {
                let causes = row.loss_collision
                    + row.loss_fading
                    + row.loss_capture
                    + row.loss_outage
                    + row.loss_jamming;
                assert_eq!(
                    row.retries, causes,
                    "{name} run {} station {}: every failure needs one cause",
                    row.run_idx, row.station
                );
                retries += row.retries;
                attributed += causes;
            }
            for row in &report.intervals {
                assert_eq!(
                    row.retries,
                    row.loss_collision
                        + row.loss_fading
                        + row.loss_capture
                        + row.loss_outage
                        + row.loss_jamming,
                    "{name}: interval rows must balance too"
                );
            }
        }
        assert!(
            retries > 0,
            "{name}: the scenario must actually lose frames"
        );
        assert_eq!(retries, attributed);
    }
}

#[test]
fn hidden_terminal_losses_are_attributed_to_collisions() {
    let (_, _, _, reports) =
        run_with_recorder("hidden-terminal", 1.0, 2, RecorderConfig::default());
    let collision: u64 = reports
        .iter()
        .flatten()
        .flat_map(|r| &r.totals)
        .map(|t| t.loss_collision)
        .sum();
    assert!(
        collision > 0,
        "hidden terminals must produce collision-attributed losses"
    );
}

#[test]
fn emitted_streams_validate_against_the_checked_in_schema() {
    let schema = Schema::parse(include_str!("schemas/telemetry.schema.json")).expect("schema");
    let cfg = RecorderConfig {
        trace: true,
        decisions: true,
        ..RecorderConfig::default()
    };
    let plans = expand(&short("fast-fading", 0.5)).expect("expands");
    let with = run_checked(&plans, 2, Some(cfg));
    let (metrics, trace, decisions) = (
        joined(&with, TelemetryReport::metrics_jsonl),
        joined(&with, TelemetryReport::trace_jsonl),
        joined(&with, TelemetryReport::decisions_jsonl),
    );
    let n = schema.validate_stream(&metrics).expect("metrics validate");
    assert!(n > 0, "metrics stream must not be empty");
    let n = schema.validate_stream(&trace).expect("trace validates");
    assert!(n > 0, "trace stream must not be empty");
    let n = schema
        .validate_stream(&decisions)
        .expect("ledger validates");
    assert!(n > 0, "decision ledger must not be empty");
}

#[test]
fn decision_ledger_is_byte_identical_across_thread_counts() {
    // Acceptance scale: dense-enterprise is the >= 100-station builtin.
    let cfg = RecorderConfig {
        decisions: true,
        ..RecorderConfig::default()
    };
    let run = |threads| {
        let plans = expand(&short("dense-enterprise", 0.5)).expect("expands");
        let with = run_checked(&plans, threads, Some(cfg.clone()));
        joined(&with, TelemetryReport::decisions_jsonl)
    };
    let (d1, d2, d8) = (run(1), run(2), run(8));
    assert!(!d1.is_empty(), "the ledger must not be empty");
    assert_eq!(d1, d2, "ledger must not depend on thread count");
    assert_eq!(d2, d8, "ledger must not depend on thread count");
}

#[test]
fn decisions_off_leaves_every_other_stream_unchanged() {
    // Turning the ledger on must not perturb results, metrics, or trace
    // (the recorder hooks share one code path either way); turning it
    // off must leave the ledger stream empty.
    let base = RecorderConfig {
        trace: true,
        ..RecorderConfig::default()
    };
    let with_ledger = RecorderConfig {
        decisions: true,
        ..base.clone()
    };
    for name in ["fast-fading", "dense-enterprise"] {
        let plans = expand(&short(name, 0.5)).expect("expands");
        let off = run_checked(&plans, 2, Some(base.clone()));
        let on = run_checked(&plans, 2, Some(with_ledger.clone()));
        assert_eq!(
            outcomes_to_jsonl(&off),
            outcomes_to_jsonl(&on),
            "{name}: results perturbed"
        );
        assert_eq!(
            joined(&off, TelemetryReport::metrics_jsonl),
            joined(&on, TelemetryReport::metrics_jsonl),
            "{name}: metrics perturbed by the ledger"
        );
        assert_eq!(
            joined(&off, TelemetryReport::trace_jsonl),
            joined(&on, TelemetryReport::trace_jsonl),
            "{name}: trace perturbed by the ledger"
        );
        assert!(
            joined(&off, TelemetryReport::decisions_jsonl).is_empty(),
            "{name}: ledger must be empty when decisions is off"
        );
        assert!(
            !joined(&on, TelemetryReport::decisions_jsonl).is_empty(),
            "{name}: ledger must be populated when decisions is on"
        );
    }
}

#[test]
fn every_observed_rate_change_has_a_matching_ledger_row() {
    // The reconciliation invariant, pinned: whenever the metrics stream's
    // per-interval rate gauge moves, the ledger explains it with a row
    // landing no later than the end of the interval that first shows the
    // new rate. Covers both media (udp-vehicular: per-frame SNR traces;
    // dense-enterprise: the spatial medium with its oracle overrides).
    // Both are uplink-only UDP builtins: the gauge is per *station*, so
    // on TCP scenarios it interleaves the data port with the reverse-path
    // ACK port and gauge moves stop mapping 1:1 onto port decisions.
    let cfg = RecorderConfig {
        decisions: true,
        ..RecorderConfig::default()
    };
    for name in ["udp-vehicular", "dense-enterprise"] {
        let plans = expand(&short(name, 0.5)).expect("expands");
        let with = run_checked(&plans, 2, Some(cfg.clone()));
        let mut checked = 0usize;
        for outcome in &with {
            let report = report(outcome).expect("telemetry on");
            // (station -> (previous gauge, start of its interval)). The
            // gauge is sampled at outcome time, so the decision behind a
            // move can precede the first interval showing the new rate
            // (the station may simply not have transmitted since); it
            // can never precede the interval that last showed the old
            // rate, nor follow the one that first shows the new.
            let mut prev: std::collections::BTreeMap<u64, (u64, f64)> =
                std::collections::BTreeMap::new();
            for row in &report.intervals {
                let Some(rate) = row.rate_idx else { continue };
                if let Some((old, t_prev)) = prev.insert(row.station, (rate, row.t0)) {
                    if old != rate {
                        let t0_us = (t_prev * 1e6).round() as u64;
                        let t1_us = (row.t1 * 1e6).round() as u64;
                        let explained = report.decisions.iter().any(|d| {
                            d.station == row.station
                                && d.new_rate == rate
                                && d.t_us >= t0_us
                                && d.t_us <= t1_us
                        });
                        assert!(
                            explained,
                            "{name} run {} station {}: gauge moved {old} -> {rate} \
                             in [{t0_us}us, {t1_us}us] with no matching ledger row",
                            row.run_idx, row.station
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(
            checked > 0,
            "{name}: the scenario must actually change rates"
        );
    }
}

#[test]
fn retry_storm_replays_the_flight_recorder_ring_exactly_once() {
    // hidden-terminal manufactures collision storms; a lowered trigger
    // threshold makes the anomaly fire deterministically. The ring must
    // be replayed (dump=true rows present), each ring record must appear
    // exactly once, and the stream must not depend on the thread count.
    let cfg = RecorderConfig {
        trace: true,
        retry_storm: 8,
        ..RecorderConfig::default()
    };
    let (_, m1, t1, reports) = run_with_recorder("hidden-terminal", 1.0, 1, cfg.clone());
    let (_, m2, t2, _) = run_with_recorder("hidden-terminal", 1.0, 2, cfg.clone());
    let (_, m8, t8, _) = run_with_recorder("hidden-terminal", 1.0, 8, cfg);
    assert_eq!(m1, m2, "metrics must not depend on thread count");
    assert_eq!(m2, m8, "metrics must not depend on thread count");
    assert_eq!(t1, t2, "trace must not depend on thread count");
    assert_eq!(t2, t8, "trace must not depend on thread count");
    let storms: usize = reports
        .iter()
        .flatten()
        .flat_map(|r| &r.anomalies)
        .filter(|a| a.anomaly == "retry-storm")
        .count();
    assert!(storms > 0, "the lowered threshold must trip a retry storm");
    let mut dump_rows = 0usize;
    for report in reports.iter().flatten() {
        let dumped: Vec<_> = report.trace.iter().filter(|t| t.dump).collect();
        dump_rows += dumped.len();
        // Exactly once: the ring drains on replay, so no attempt-bearing
        // record (each `(ev, tx_id, attempt)` names a unique MAC event)
        // may be dumped twice. Attempt-less rows (enqueue/defer) can
        // legitimately collide — e.g. repeated enqueues at a capped
        // queue depth — so they are excluded from the key.
        let mut seen = std::collections::BTreeSet::new();
        for d in dumped.iter().filter(|d| d.tx_id.is_some()) {
            assert!(
                seen.insert((d.ev.clone(), d.tx_id, d.attempt)),
                "run {}: ring row replayed twice: {d:?}",
                report.trace.first().map(|r| r.run_idx).unwrap_or(0)
            );
        }
    }
    assert!(dump_rows > 0, "the storm must dump the flight recorder");
}
