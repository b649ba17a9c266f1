//! Shard-invariance regression at city-rung shape: a floor large enough
//! that the carrier-sense index is a multi-cell grid (on the 3x3 suites'
//! floors it is a single cell), with the compressed kickoff stagger and
//! the default roam interval of the netscale city rungs. The sequential
//! run's outputs are pinned absolutely, so large-floor sensing cannot
//! drift even where every shard count drifts together.
//!
//! Pins the exact-horizon routing bug found on the 10k rung: the 0.25 s
//! roam waves put a near event every 25 µs, so `horizon = next + 1e-4`
//! lands exactly on event times often enough that routing a
//! channel-access arrival at `at == horizon` into the *next* window let
//! a same-time near event with a larger seq dispatch first, diverging
//! the trajectory (first hit around t = 1.8 s in this configuration).

use softrate_net::mobility::MobilitySpec;
use softrate_net::sim::{SpatialConfig, SpatialSim};
use softrate_net::spatial::{HandoffPolicy, RoamingSpec, SpatialSpec};
use softrate_sim::config::AdapterKind;

fn city_spec(stations: usize, cols: usize, rows: usize) -> SpatialSpec {
    SpatialSpec {
        ap_cols: cols,
        ap_rows: rows,
        ap_spacing_m: 25.0,
        n_stations: stations,
        snr_ref_db: None,
        path_loss_exp: None,
        sense_snr_db: Some(13.0),
        capture_sir_db: None,
        doppler_hz: None,
        mobility: MobilitySpec::RandomWaypoint {
            speed_mps: 1.5,
            pause_s: 2.0,
        },
        roaming: Some(RoamingSpec {
            hysteresis_db: 3.0,
            check_interval_s: None,
            handoff: HandoffPolicy::Preserve,
        }),
    }
}

#[test]
fn grid_plan_city_rung_is_shard_invariant() {
    let run = |shards: usize| {
        let mut cfg = SpatialConfig::new(AdapterKind::SoftRate, city_spec(10000, 8, 8));
        cfg.duration = 2.0;
        cfg.kickoff_stagger_s = 4e-5;
        cfg.shards = shards;
        SpatialSim::new(cfg).expect("valid").run()
    };
    let seq = run(1);
    assert_eq!(seq.events_processed, 20_399_886);
    assert_eq!(seq.frames_sent, 79_007);
    assert_eq!(seq.frames_delivered, 73_740);
    assert_eq!(seq.collisions, 3_409);
    assert_eq!(seq.inter_cell_corruptions, 5_421);
    assert_eq!(seq.handoff_log.len(), 182);
    assert_eq!(seq.aggregate_goodput_bps.to_bits(), 0x41b8_9d06_8000_0000);
    for shards in [2, 4] {
        let par = run(shards);
        assert_eq!(
            seq.events_processed, par.events_processed,
            "{shards} shards: event count diverged"
        );
        assert_eq!(seq.frames_sent, par.frames_sent, "{shards} shards");
        assert_eq!(
            seq.frames_delivered, par.frames_delivered,
            "{shards} shards"
        );
        assert_eq!(seq.collisions, par.collisions, "{shards} shards");
        assert_eq!(seq.handoff_log, par.handoff_log, "{shards} shards");
        assert_eq!(
            seq.per_flow_goodput_bps, par.per_flow_goodput_bps,
            "{shards} shards"
        );
    }
}
