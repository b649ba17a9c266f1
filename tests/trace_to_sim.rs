//! Integration: trace generation → network simulation, asserting the
//! paper's qualitative orderings on small configurations.

use std::sync::{Arc, OnceLock};

use softrate::sim::config::{AdapterKind, SimConfig};
use softrate::sim::netsim::NetSim;
use softrate::trace::generate::{static_short_trace, walking_trace};
use softrate::trace::recipes::{StaticShortRecipe, WalkingRecipe};
use softrate::trace::schema::LinkTrace;
use softrate::trace::snr_training::{observations_from_trace, train_snr_table};

/// The 1.5 s walking up/down pair, generated once per test binary and
/// shared by every test that needs it (each generation runs the full
/// SoftPHY decoder over every probe frame).
fn short_walking_pair() -> (Arc<LinkTrace>, Arc<LinkTrace>) {
    static PAIR: OnceLock<(Arc<LinkTrace>, Arc<LinkTrace>)> = OnceLock::new();
    PAIR.get_or_init(|| {
        let recipe = WalkingRecipe {
            duration: 1.5,
            ..Default::default()
        };
        (
            Arc::new(walking_trace(0, &recipe)),
            Arc::new(walking_trace(1, &recipe)),
        )
    })
    .clone()
}

#[test]
fn walking_trace_drives_tcp() {
    let (up, down) = short_walking_pair();
    let mut cfg = SimConfig::new(AdapterKind::Omniscient, 1);
    cfg.duration = 1.5;
    let r = NetSim::new(cfg, vec![up, down]).run();
    assert!(
        r.aggregate_goodput_bps > 1e6,
        "omniscient TCP over a walking trace must move megabits: {}",
        r.aggregate_goodput_bps
    );
}

#[test]
fn softrate_competitive_with_omniscient_on_walking_trace() {
    let (up, down) = short_walking_pair();
    let run = |kind: AdapterKind| {
        let mut cfg = SimConfig::new(kind, 1);
        cfg.duration = 1.5;
        NetSim::new(cfg, vec![Arc::clone(&up), Arc::clone(&down)]).run()
    };
    let omni = run(AdapterKind::Omniscient);
    let soft = run(AdapterKind::SoftRate);
    let sample = run(AdapterKind::SampleRate);
    assert!(
        soft.aggregate_goodput_bps > 0.5 * omni.aggregate_goodput_bps,
        "SoftRate {} vs omniscient {}",
        soft.aggregate_goodput_bps,
        omni.aggregate_goodput_bps
    );
    // The paper's headline: SoftRate beats SampleRate in mobile channels.
    assert!(
        soft.aggregate_goodput_bps > sample.aggregate_goodput_bps,
        "SoftRate {} must beat SampleRate {}",
        soft.aggregate_goodput_bps,
        sample.aggregate_goodput_bps
    );
}

#[test]
fn snr_trained_table_is_usable() {
    let (up, down) = short_walking_pair();
    let mut obs = observations_from_trace(&up);
    obs.extend(observations_from_trace(&down));
    let table = train_snr_table(&obs);
    // Thresholds must be finite, ordered, and in a plausible dB range.
    for w in table.min_snr_db.windows(2) {
        assert!(w[1] >= w[0]);
    }
    assert!(table.min_snr_db[0] > -5.0 && table.min_snr_db[0] < 40.0);

    let mut cfg = SimConfig::new(AdapterKind::Snr(table), 1);
    cfg.duration = 1.5;
    let r = NetSim::new(cfg, vec![up, down]).run();
    assert!(
        r.aggregate_goodput_bps > 5e5,
        "trained SNR protocol too slow: {}",
        r.aggregate_goodput_bps
    );
}

#[test]
fn interference_detection_pays_under_hidden_terminals() {
    let recipe = StaticShortRecipe {
        duration: 1.5,
        ..Default::default()
    };
    let traces: Vec<Arc<LinkTrace>> = (0..6)
        .map(|r| Arc::new(static_short_trace(r, &recipe)))
        .collect();
    // cs = 0.2: heavy but not total hidden-terminal interference. (At
    // cs = 0.0 the blind variant can *starve* all flows but one, which
    // inflates the aggregate while destroying fairness — an emergent
    // TCP-capture effect; the controlled comparison lives here.)
    let run = |kind: AdapterKind| {
        let mut cfg = SimConfig::new(kind, 3);
        cfg.duration = 1.5;
        cfg.carrier_sense_prob = 0.2;
        NetSim::new(cfg, traces.iter().map(Arc::clone).collect()).run()
    };
    let ideal = run(AdapterKind::SoftRateIdeal);
    let blind = run(AdapterKind::SoftRateNoDetect);
    assert!(ideal.collisions > 0, "hidden terminals must collide");
    assert!(
        ideal.aggregate_goodput_bps >= blind.aggregate_goodput_bps,
        "interference detection should not hurt: ideal {} vs blind {}",
        ideal.aggregate_goodput_bps,
        blind.aggregate_goodput_bps
    );
    // The blind variant reads collisions as fades and underselects more.
    let (_, _, under_blind) = blind.audit.fractions();
    let (_, _, under_ideal) = ideal.audit.fractions();
    assert!(
        under_blind >= under_ideal,
        "blind SoftRate should underselect at least as much ({under_blind:.2} vs {under_ideal:.2})"
    );
}

#[test]
fn simulation_is_deterministic_end_to_end() {
    let (up, down) = short_walking_pair();
    let run = || {
        let mut cfg = SimConfig::new(AdapterKind::SoftRate, 1);
        cfg.duration = 1.0;
        NetSim::new(cfg, vec![Arc::clone(&up), Arc::clone(&down)]).run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.aggregate_goodput_bps, b.aggregate_goodput_bps);
    assert_eq!(a.frames_sent, b.frames_sent);
    assert_eq!(a.audit, b.audit);
}
