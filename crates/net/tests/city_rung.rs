//! Regression pins at city-rung shape: a floor large enough that the
//! carrier-sense index is a multi-cell grid (on the 3x3 suites' floors it
//! is a single cell), with the compressed kickoff stagger and the default
//! roam interval of the netscale city rungs. The outputs are pinned
//! absolutely, so large-floor sensing and roaming cannot drift unnoticed.

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
fn city_rung_outputs_are_pinned() {
    let mut cfg = SpatialConfig::new(AdapterKind::SoftRate, city_spec(10000, 8, 8));
    cfg.duration = 2.0;
    cfg.kickoff_stagger_s = 4e-5;
    let r = SpatialSim::new(cfg).expect("valid").run();
    assert_eq!(r.events_processed, 20_399_886);
    assert_eq!(r.frames_sent, 79_007);
    assert_eq!(r.frames_delivered, 73_740);
    assert_eq!(r.collisions, 3_409);
    assert_eq!(r.inter_cell_corruptions, 5_421);
    assert_eq!(r.handoff_log.len(), 182);
    assert_eq!(r.aggregate_goodput_bps.to_bits(), 0x41b8_9d06_8000_0000);
}
