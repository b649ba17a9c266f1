//! Integration tests of the multi-cell spatial subsystem through the
//! facade crate: determinism of the JSONL sink across thread counts at
//! acceptance scale, handoff invariants, and collision-domain isolation.

use softrate::net::mobility::MobilitySpec;
use softrate::net::sim::{SpatialConfig, SpatialSim};
use softrate::net::spatial::{HandoffPolicy, RoamingSpec, SpatialSpec};
use softrate::scenario::builtin;
use softrate::scenario::engine::{
    expand, outcomes_to_jsonl, run_all_checked, run_spec, RunOptions, RunPlan,
};
use softrate::sim::config::AdapterKind;

/// The results JSONL of `plans` run on `threads` workers.
fn results_jsonl(plans: &[RunPlan], threads: usize) -> String {
    let opts = RunOptions {
        threads: Some(threads),
        telemetry: None,
    };
    outcomes_to_jsonl(&run_all_checked(plans, &opts))
}

/// The acceptance-scale scenario: >= 100 stations, >= 3 APs, streaming
/// channels only (the spatial path never materializes a `LinkTrace`).
/// Shortened for test runtime; the station/AP shape is the builtin's.
fn dense() -> softrate::scenario::spec::ScenarioSpec {
    let mut spec = builtin::get("dense-enterprise").expect("builtin exists");
    assert!(spec.topology.spatial.as_ref().unwrap().n_stations >= 100);
    assert!({
        let s = spec.topology.spatial.as_ref().unwrap();
        s.ap_cols * s.ap_rows >= 3
    });
    spec.duration = 1.0;
    spec
}

#[test]
fn dense_enterprise_jsonl_is_byte_identical_across_threads_and_repeats() {
    let plans = expand(&dense()).expect("expands");
    let a = results_jsonl(&plans, 1);
    let b = results_jsonl(&plans, 4);
    let c = results_jsonl(&plans, 4);
    assert!(!a.is_empty());
    assert_eq!(a, b, "thread count must not change spatial results");
    assert_eq!(b, c, "repeat runs must be byte-identical");
}

#[test]
fn dense_enterprise_moves_data_at_scale() {
    let results = run_spec(&dense(), None).unwrap();
    for r in &results {
        assert_eq!(r.per_flow_goodput_bps.len(), 120, "one entry per station");
        assert!(
            r.goodput_bps > 10e6,
            "{}: a 9-cell floor must aggregate > 10 Mbit/s, got {}",
            r.adapter,
            r.goodput_bps
        );
        assert!(r.frames_sent > 1000);
    }
}

#[test]
fn roaming_walkabout_reports_handoffs_through_the_engine() {
    let mut spec = builtin::get("roaming-walkabout").expect("builtin exists");
    spec.duration = 6.0;
    let results = run_spec(&spec, None).unwrap();
    assert_eq!(results.len(), 4, "2 adapters x 2 handoff policies");
    let total: u64 = results.iter().map(|r| r.handoffs).sum();
    assert!(total > 0, "walking stations must hand off somewhere");
    // The handoff sweep axis is recorded in params.
    assert!(results
        .iter()
        .any(|r| r.params.iter().any(|(k, _)| k.contains("handoff"))));
}

#[test]
fn handoff_log_proves_single_association_at_all_times() {
    let spec = SpatialSpec {
        ap_cols: 3,
        ap_rows: 1,
        ap_spacing_m: 30.0,
        n_stations: 12,
        snr_ref_db: None,
        path_loss_exp: None,
        sense_snr_db: None,
        capture_sir_db: None,
        doppler_hz: None,
        mobility: MobilitySpec::RandomWaypoint {
            speed_mps: 10.0,
            pause_s: 0.0,
        },
        roaming: Some(RoamingSpec {
            hysteresis_db: 1.0,
            check_interval_s: Some(0.1),
            handoff: HandoffPolicy::Reset,
        }),
    };
    let mut cfg = SpatialConfig::new(AdapterKind::SoftRate, spec);
    cfg.duration = 5.0;
    let r = SpatialSim::new(cfg).expect("valid").run();
    assert_eq!(r.initial_assoc.len(), 12);
    assert!(r.handoffs > 0, "fast walkers over 3 cells must roam");
    // Replay the log: every handoff leaves from the station's current AP,
    // so at every instant each station is associated to exactly one AP.
    let mut assoc = r.initial_assoc.clone();
    let mut last_t = 0.0;
    for h in &r.handoff_log {
        assert!(h.t >= last_t, "log must be time-ordered");
        last_t = h.t;
        assert_eq!(assoc[h.station], h.from, "chain broken for {}", h.station);
        assert_ne!(h.from, h.to);
        assert!(h.to < 3);
        assoc[h.station] = h.to;
    }
}

#[test]
fn non_overlapping_domains_never_exchange_interference() {
    // 300 m cells: every cross-cell transmitter is >= 150 m from the
    // foreign AP, below the noise floor at the default path loss.
    let spec = SpatialSpec {
        ap_cols: 2,
        ap_rows: 1,
        ap_spacing_m: 300.0,
        n_stations: 30,
        snr_ref_db: None,
        path_loss_exp: None,
        sense_snr_db: None,
        capture_sir_db: None,
        doppler_hz: None,
        mobility: MobilitySpec::Static,
        roaming: None,
    };
    let mut cfg = SpatialConfig::new(AdapterKind::SoftRate, spec);
    cfg.duration = 2.0;
    let r = SpatialSim::new(cfg).expect("valid").run();
    assert_eq!(
        r.inter_cell_corruptions, 0,
        "disjoint collision domains must not corrupt each other"
    );
    // Every delivery happened inside a domain (structurally: stations only
    // ever transmit to their associated AP), and both domains were live.
    let aps: std::collections::HashSet<usize> = r.initial_assoc.iter().copied().collect();
    assert_eq!(aps.len(), 2);
    assert!(r.frames_delivered > 0);
}

// ---- Spatial flow traffic (the pluggable transport layer) --------------

/// Acceptance: `dense-enterprise-tcp` completes deterministically across
/// thread counts — the spatial-TCP analogue of the UDP determinism pin.
#[test]
fn dense_enterprise_tcp_jsonl_is_byte_identical_across_threads() {
    let mut spec = builtin::get("dense-enterprise-tcp").expect("builtin exists");
    spec.duration = 1.0;
    let plans = expand(&spec).expect("expands");
    let a = results_jsonl(&plans, 1);
    let b = results_jsonl(&plans, 4);
    let c = results_jsonl(&plans, 4);
    assert!(!a.is_empty());
    assert_eq!(a, b, "thread count must not change spatial-TCP results");
    assert_eq!(b, c, "repeat runs must be byte-identical");
}

/// Acceptance: roaming scenarios deliver TCP segments across >= 1 handoff
/// under both Preserve and Reset policies — through the scenario engine,
/// on the shipped `roaming-tcp-download` builtin (whose sweep covers both
/// policies).
#[test]
fn roaming_tcp_download_delivers_across_handoffs_under_both_policies() {
    let mut spec = builtin::get("roaming-tcp-download").expect("builtin exists");
    spec.duration = 6.0;
    let results = run_spec(&spec, None).unwrap();
    assert_eq!(results.len(), 2, "one run per handoff policy");
    for r in &results {
        let policy: String = r
            .params
            .iter()
            .find(|(k, _)| k.contains("handoff"))
            .map(|(_, v)| format!("{v:?}"))
            .expect("handoff policy is a sweep axis");
        assert!(r.handoffs > 0, "{policy}: walking stations must roam");
        assert!(
            r.goodput_bps > 1e6,
            "{policy}: TCP download must keep delivering across handoffs, got {}",
            r.goodput_bps
        );
        // Delivery is spread over stations, not carried by survivors of a
        // stalled majority: at least half the flows make real progress.
        let alive = r.per_flow_goodput_bps.iter().filter(|&&g| g > 1e4).count();
        assert!(
            alive * 2 >= r.per_flow_goodput_bps.len(),
            "{policy}: too many stalled flows ({alive}/{})",
            r.per_flow_goodput_bps.len()
        );
    }
}

/// The bursty on-off builtin is source-limited: offered load, not link
/// capacity, bounds its goodput (per station: 200 pkt/s x 50% duty x
/// 1400-byte payloads = 1.12 Mbit/s).
#[test]
fn bursty_onoff_cell_edge_is_source_limited() {
    let mut spec = builtin::get("bursty-onoff-cell-edge").expect("builtin exists");
    spec.duration = 3.0;
    let results = run_spec(&spec, None).unwrap();
    assert!(!results.is_empty());
    let n = spec.topology.spatial.as_ref().unwrap().n_stations as f64;
    let offered = n * 100.0 * 1400.0 * 8.0; // per-station mean offered bits/s
    for r in &results {
        assert!(r.goodput_bps > 0.0);
        assert!(
            r.goodput_bps < offered,
            "{}: goodput {} cannot exceed offered {offered}",
            r.adapter,
            r.goodput_bps
        );
    }
}

/// `resolve` accepts any positive AP spacing, so a scenario document can
/// describe a floor under a metre across; it must run, not panic while
/// sizing the carrier-sense index.
#[test]
fn sub_metre_floor_runs_from_a_scenario_document() {
    let spec = softrate::scenario::spec::ScenarioSpec::from_toml(
        r#"
name = "sub-metre"
duration = 0.5
seed = 5
adapters = ["SoftRate"]

[topology.spatial]
ap_cols = 1
ap_rows = 1
ap_spacing_m = 0.5
n_stations = 4
mobility = "Static"

[channel]
model = "Analytic"
snr_db = 55.0
fading = "None"

[traffic]
kind = "UdpBulk"
"#,
    )
    .expect("spec parses");
    let results = run_spec(&spec, Some(1)).expect("expands");
    assert_eq!(results.len(), 1);
    assert!(results[0].frames_sent > 0);
}
