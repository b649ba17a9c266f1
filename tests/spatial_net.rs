//! Integration tests of the multi-cell spatial subsystem through the
//! facade crate: determinism of the JSONL sink across thread counts at
//! acceptance scale, handoff invariants, and collision-domain isolation.

use softrate::net::mobility::MobilitySpec;
use softrate::net::sim::{SpatialConfig, SpatialSim};
use softrate::net::spatial::{HandoffPolicy, RoamingSpec, SpatialSpec};
use softrate::scenario::builtin;
use softrate::scenario::engine::{
    expand, run_all, run_all_with_options, telemetry_decisions_jsonl, telemetry_metrics_jsonl,
    to_jsonl, RunOptions,
};
use softrate::sim::config::AdapterKind;
use softrate::telemetry::RecorderConfig;

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
    let a = to_jsonl(&run_all(&plans, Some(1)));
    let b = to_jsonl(&run_all(&plans, Some(4)));
    let c = to_jsonl(&run_all(&plans, Some(4)));
    assert!(!a.is_empty());
    assert_eq!(a, b, "thread count must not change spatial results");
    assert_eq!(b, c, "repeat runs must be byte-identical");
}

#[test]
fn dense_enterprise_moves_data_at_scale() {
    let results = run_all(&expand(&dense()).unwrap(), None);
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
    let results = run_all(&expand(&spec).unwrap(), None);
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
    let a = to_jsonl(&run_all(&plans, Some(1)));
    let b = to_jsonl(&run_all(&plans, Some(4)));
    let c = to_jsonl(&run_all(&plans, Some(4)));
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
    let results = run_all(&expand(&spec).unwrap(), None);
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

// ---- Shard invariance (the conservative parallel scheduler) ------------

/// Runs a scenario at a given domain count with the full telemetry
/// recorder attached and returns every observable byte stream: results
/// JSONL, interval-metrics JSONL, and the rate-decision ledger JSONL.
fn all_streams(spec: &softrate::scenario::spec::ScenarioSpec, shards: usize) -> [String; 3] {
    let plans = expand(spec).expect("expands");
    let opts = RunOptions {
        threads: Some(1),
        telemetry: Some(RecorderConfig {
            decisions: true,
            ..RecorderConfig::default()
        }),
        shards,
        shard_workers: None,
    };
    let results = run_all_with_options(&plans, &opts);
    let jsonl = to_jsonl(&results.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>());
    [
        jsonl,
        telemetry_metrics_jsonl(&results),
        telemetry_decisions_jsonl(&results),
    ]
}

/// Acceptance: the conservative parallel scheduler is output-invariant on
/// the dense UDP builtin — results, interval metrics, and the decision
/// ledger are byte-identical for `--shards 1/2/4`.
#[test]
fn dense_enterprise_is_byte_identical_across_shard_counts() {
    let mut spec = dense();
    spec.duration = 0.5;
    let base = all_streams(&spec, 1);
    assert!(base.iter().all(|s| !s.is_empty()));
    for shards in [2, 4] {
        let got = all_streams(&spec, shards);
        for (i, name) in ["results", "metrics", "decisions"].iter().enumerate() {
            assert_eq!(
                base[i], got[i],
                "{name} JSONL must be byte-identical at {shards} shards"
            );
        }
    }
}

/// Acceptance: shard invariance holds under flow traffic too — the
/// roaming TCP download (mobility + handoffs + NewReno timers) produces
/// identical streams for `--shards 1/2/4`.
#[test]
fn roaming_tcp_download_is_byte_identical_across_shard_counts() {
    let mut spec = builtin::get("roaming-tcp-download").expect("builtin exists");
    spec.duration = 3.0;
    let base = all_streams(&spec, 1);
    assert!(base.iter().all(|s| !s.is_empty()));
    for shards in [2, 4] {
        let got = all_streams(&spec, shards);
        for (i, name) in ["results", "metrics", "decisions"].iter().enumerate() {
            assert_eq!(
                base[i], got[i],
                "{name} JSONL must be byte-identical at {shards} shards"
            );
        }
    }
}

/// A station roaming between APs owned by *different* shards: a 3x1 AP
/// strip split into 3 x-strip domains puts every AP in its own domain,
/// so every handoff crosses a domain boundary. The sharded run must see
/// the same handoffs (and everything else) as the sequential engine.
#[test]
fn cross_domain_handoff_is_shard_invariant() {
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
    let run = |shards: usize| {
        let mut cfg = SpatialConfig::new(AdapterKind::SoftRate, spec.clone());
        cfg.duration = 4.0;
        cfg.shards = shards;
        SpatialSim::new(cfg).expect("valid").run()
    };
    let seq = run(1);
    assert!(seq.handoffs > 0, "fast walkers over 3 cells must roam");
    // In a 1-row strip the AP index is the column, and with 3 domains over
    // 3 columns every from->to pair changes column, hence domain.
    assert!(seq.handoff_log.iter().all(|h| h.from != h.to));
    for shards in [2, 3] {
        let par = run(shards);
        assert_eq!(
            seq.events_processed, par.events_processed,
            "{shards} shards: event count must match sequential"
        );
        assert_eq!(
            seq.handoff_log, par.handoff_log,
            "{shards} shards: cross-domain handoffs must replay identically"
        );
        assert_eq!(seq.frames_sent, par.frames_sent);
        assert_eq!(seq.frames_delivered, par.frames_delivered);
        assert_eq!(seq.collisions, par.collisions);
        assert_eq!(seq.per_flow_goodput_bps, par.per_flow_goodput_bps);
    }
}

/// The bursty on-off builtin is source-limited: offered load, not link
/// capacity, bounds its goodput (per station: 200 pkt/s x 50% duty x
/// 1400-byte payloads = 1.12 Mbit/s).
#[test]
fn bursty_onoff_cell_edge_is_source_limited() {
    let mut spec = builtin::get("bursty-onoff-cell-edge").expect("builtin exists");
    spec.duration = 3.0;
    let results = run_all(&expand(&spec).unwrap(), None);
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
    let results = run_all(&expand(&spec).expect("expands"), Some(1));
    assert_eq!(results.len(), 1);
    assert!(results[0].frames_sent > 0);
}
