//! The four workloads, the inputs each one generates from `--seed`, and
//! the outputs that are checked after every repetition.
//!
//! Only workload fields are set here — stations, APs, traffic, mobility,
//! duration and seeds. Engine-selection knobs (batching, shards, worker
//! counts) keep their defaults, so the engine may drop any of them
//! without this file changing.

use softrate_net::mobility::MobilitySpec;
use softrate_net::sim::{SpatialConfig, SpatialTraffic};
use softrate_net::spatial::{HandoffPolicy, RoamingSpec, SpatialSpec};
use softrate_net::stream::mix_seed;
use softrate_scenario::builtin::BUILTINS;
use softrate_scenario::engine::{expand, RunOutcome, RunPlan};
use softrate_scenario::spec::{ScenarioSpec, SpecError};
use softrate_sim::config::{AdapterKind, TrafficKind};
use softrate_sim::mac::RunReport;
use softrate_sim::transport::TransportConfig;

use crate::pinned::PINNED;

/// The seed whose inputs are the pinned ones: every generated seed equals
/// the value the repository's own tools use.
pub const DEFAULT_SEED: u64 = 0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EnterpriseUdp,
    CityUdp,
    EnterpriseTcp,
    ScenarioMatrix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EnterpriseUdp,
        Workload::CityUdp,
        Workload::EnterpriseTcp,
        Workload::ScenarioMatrix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EnterpriseUdp => "enterprise-udp",
            Workload::CityUdp => "city-udp",
            Workload::EnterpriseTcp => "enterprise-tcp",
            Workload::ScenarioMatrix => "scenario-matrix",
        }
    }

    /// Why the benchmark runs this workload: the layers it loads that the
    /// others do not.
    pub fn why(self) -> &'static str {
        match self {
            Workload::EnterpriseUdp => {
                "1,600 roaming stations on 9 APs, saturated UDP: 98% of events are deferrals, \
                 so MAC dispatch, the event wheel and the end-sorted sense plan dominate"
            }
            Workload::CityUdp => {
                "10,000 stations on 64 APs: carrier sense takes the grid-bucket plan and is \
                 over half the time; set-up and memory grow with the station count"
            }
            Workload::EnterpriseTcp => {
                "400 stations uploading over TCP NewReno: 13% of channel accesses transmit, \
                 so the per-frame path and the transport layer do the work"
            }
            Workload::ScenarioMatrix => {
                "all 122 runs of the 22 built-in scenarios with the recorder on: the only \
                 path through TOML, single-cell traces, baseline adapters, faults and telemetry"
            }
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `base` at the default seed, otherwise `base` mixed with `seed`.
pub fn mix(base: u64, seed: u64) -> u64 {
    if seed == DEFAULT_SEED {
        base
    } else {
        mix_seed(base, seed)
    }
}

/// The run configuration of a spatial workload. `scale` shrinks station
/// count and simulated time together (1.0 is the benchmark; tests use
/// less).
///
/// Simulated times are short so that one repetition takes well under a
/// second of host time: the fastest of many short repetitions is far
/// steadier on a shared host than the fastest of a few long ones.
pub fn spatial_config(w: Workload, seed: u64, scale: f64) -> SpatialConfig {
    let (stations, aps_per_side, sim_seconds) = match w {
        Workload::EnterpriseUdp => (1600, 3, 2.0),
        Workload::CityUdp => (10_000, 8, 0.5),
        Workload::EnterpriseTcp => (400, 3, 10.0),
        Workload::ScenarioMatrix => unreachable!("the scenario matrix is not one spatial run"),
    };
    let stations = ((stations as f64 * scale).round() as usize).max(aps_per_side * aps_per_side);
    let spec = SpatialSpec {
        ap_cols: aps_per_side,
        ap_rows: aps_per_side,
        ap_spacing_m: 25.0,
        n_stations: stations,
        snr_ref_db: None,
        path_loss_exp: None,
        // A sensing range of about one cell pitch: real spatial reuse and
        // real inter-cell interference.
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
    };
    let mut cfg = SpatialConfig::new(AdapterKind::SoftRate, spec);
    cfg.duration = sim_seconds * scale;
    cfg.seed = mix(cfg.seed, seed);
    cfg.mac_seed = mix(cfg.mac_seed, seed);
    match w {
        // Kick the whole floor off within the first fifth of the run.
        Workload::CityUdp => cfg.kickoff_stagger_s = cfg.duration / (5.0 * stations as f64),
        Workload::EnterpriseTcp => {
            cfg.traffic = SpatialTraffic::Flows(TransportConfig::enterprise(
                TrafficKind::Tcp,
                true,
                cfg.seed,
            ))
        }
        _ => {}
    }
    cfg
}

/// The share of each built-in's own duration the matrix simulates: short
/// repetitions, yet every fault still strikes (the latest begins 1 s into
/// a 3 s scenario).
const MATRIX_TIME_SHARE: f64 = 0.5;

/// A built-in scenario's TOML parsed, its seed mixed with `seed` and its
/// duration cut to [`MATRIX_TIME_SHARE`] times `scale`.
pub fn matrix_spec(text: &str, seed: u64, scale: f64) -> Result<ScenarioSpec, SpecError> {
    let mut spec = ScenarioSpec::from_toml(text)?;
    spec.seed = mix(spec.seed, seed);
    spec.duration *= MATRIX_TIME_SHARE * scale;
    Ok(spec)
}

/// The run matrix of every built-in scenario, in catalogue order, each
/// spec through [`matrix_spec`].
pub fn matrix_plans(seed: u64, scale: f64) -> Result<Vec<RunPlan>, SpecError> {
    let mut plans = Vec::new();
    for (_, text) in BUILTINS {
        plans.extend(expand(&matrix_spec(text, seed, scale)?)?);
    }
    Ok(plans)
}

/// 64-bit FNV-1a over the concatenation of `parts`.
pub fn fnv1a(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in parts.iter().flat_map(|p| p.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The rendered outputs of one matrix repetition.
pub struct MatrixRender {
    pub results: String,
    pub telemetry: String,
    pub failed_runs: u64,
}

impl MatrixRender {
    /// Renders the results and telemetry (metrics, then decisions) JSONL
    /// of `outcomes`, in matrix order.
    pub fn new(outcomes: &[RunOutcome], results: String) -> Self {
        let reports: Vec<_> = outcomes
            .iter()
            .filter_map(|o| o.as_ref().ok()?.1.as_ref())
            .collect();
        // Joined once at its exact length, so the heap peak does not jump
        // with where a growing buffer's doubling happens to land.
        let parts: Vec<String> = reports
            .iter()
            .map(|t| t.metrics_jsonl())
            .chain(reports.iter().map(|t| t.decisions_jsonl()))
            .collect();
        MatrixRender {
            results,
            telemetry: parts.concat(),
            failed_runs: outcomes.iter().filter(|o| o.is_err()).count() as u64,
        }
    }

    pub fn outputs(&self, runs: usize) -> Outputs {
        Outputs(vec![
            ("runs", runs as u64),
            ("failed_runs", self.failed_runs),
            ("digest", fnv1a(&[&self.results, &self.telemetry])),
        ])
    }
}

/// The checked outputs of one repetition, as named whole numbers (a
/// goodput is its `f64` bit pattern, so it compares exactly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outputs(pub Vec<(&'static str, u64)>);

impl Outputs {
    pub fn spatial(r: &RunReport) -> Self {
        Outputs(vec![
            ("events", r.events_processed),
            ("frames_sent", r.frames_sent),
            ("frames_delivered", r.frames_delivered),
            ("collisions", r.collisions),
            ("handoffs", r.handoffs),
            ("goodput_bits", r.aggregate_goodput_bps.to_bits()),
        ])
    }

    /// The first field whose value differs from `expected`, described.
    pub fn first_difference(&self, expected: &Outputs) -> Option<String> {
        let fields = self.0.len().max(expected.0.len());
        (0..fields).find_map(|i| match (expected.0.get(i), self.0.get(i)) {
            (Some(e), Some(g)) if e == g => None,
            (Some((name, e)), Some((_, g))) => Some(format!("{name}: expected {e}, got {g}")),
            (e, g) => Some(format!("field lists differ: expected {e:?}, got {g:?}")),
        })
    }
}

/// The pinned outputs of `w` at the default seed.
pub fn pinned(w: Workload) -> Outputs {
    let (_, fields) = PINNED
        .iter()
        .find(|(name, _)| *name == w.name())
        .expect("every workload has pinned outputs");
    Outputs(fields.to_vec())
}

/// What each repetition's outputs must equal: the pinned values for the
/// full-size workload at the default seed, otherwise the first
/// repetition's outputs.
pub struct Expected(Option<Outputs>);

impl Expected {
    pub fn new(w: Workload, seed: u64, scale: f64) -> Self {
        Expected((seed == DEFAULT_SEED && scale == 1.0).then(|| pinned(w)))
    }

    /// Checks `got`, adopting it as the reference if there is none yet.
    pub fn check(&mut self, got: Outputs) -> Result<(), String> {
        match &self.0 {
            Some(expected) => got.first_difference(expected).map_or(Ok(()), Err),
            None => {
                self.0 = Some(got);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softrate_net::sim::SpatialSim;
    use softrate_scenario::engine::{outcomes_to_jsonl, run_all_checked, RunOptions};
    use softrate_telemetry::RecorderConfig;

    #[test]
    fn fnv1a_digest_is_stable() {
        assert_eq!(fnv1a(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(&["a"]), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(&["foobar"]), 0x8594_4171_f739_67e8);
        // Only the concatenation matters, not where it is split.
        assert_eq!(fnv1a(&["foo", "bar"]), fnv1a(&["foobar"]));
    }

    #[test]
    fn names_round_trip_and_every_workload_is_pinned() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(!w.why().contains('\n') && w.why().len() <= 200);
            assert!(!pinned(w).0.is_empty());
        }
        assert_eq!(PINNED.len(), Workload::ALL.len());
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn default_seed_keeps_the_base_seeds() {
        assert_eq!(mix(0x5A7A, DEFAULT_SEED), 0x5A7A);
        assert_ne!(mix(0x5A7A, 7), 0x5A7A);
        let cfg = spatial_config(Workload::EnterpriseTcp, DEFAULT_SEED, 1.0);
        assert_eq!((cfg.seed, cfg.mac_seed), (0x5A7A, 0x5A7A));
        let SpatialTraffic::Flows(tc) = cfg.traffic else {
            panic!("enterprise-tcp carries flows");
        };
        assert_eq!(tc.seed, 0x5A7A);
        for (name, text) in BUILTINS {
            let spec = matrix_spec(text, DEFAULT_SEED, 1.0).unwrap();
            let builtin = softrate_scenario::builtin::get(name).unwrap();
            assert_eq!(spec.seed, builtin.seed);
            assert_eq!(spec.duration, builtin.duration * MATRIX_TIME_SHARE);
            assert_ne!(matrix_spec(text, 7, 1.0).unwrap().seed, builtin.seed);
        }
        assert_eq!(matrix_plans(DEFAULT_SEED, 1.0).unwrap().len(), 122);
    }

    #[test]
    fn mismatches_name_the_first_differing_field() {
        let a = Outputs(vec![("events", 10), ("frames_sent", 3), ("handoffs", 1)]);
        let mut b = a.clone();
        assert_eq!(b.first_difference(&a), None);
        b.0[1].1 = 4;
        b.0[2].1 = 2;
        assert_eq!(
            b.first_difference(&a).unwrap(),
            "frames_sent: expected 3, got 4"
        );
        let short = Outputs(a.0[..2].to_vec());
        assert!(short.first_difference(&a).unwrap().contains("field lists"));

        let mut expected = Expected(None);
        assert_eq!(expected.check(a.clone()), Ok(()));
        assert_eq!(expected.check(a.clone()), Ok(()));
        assert!(expected.check(b).is_err());
        // The full-size workload at the default seed is held to the pins.
        let mut pinned_check = Expected::new(Workload::CityUdp, DEFAULT_SEED, 1.0);
        assert!(pinned_check.check(a).unwrap_err().starts_with("events"));
        assert!(Expected::new(Workload::CityUdp, 3, 1.0).0.is_none());
        assert!(Expected::new(Workload::CityUdp, DEFAULT_SEED, 0.5)
            .0
            .is_none());
    }

    /// A shrunken spatial workload: repetitions agree with each other
    /// through the checker, and another seed changes the outputs.
    fn shrunken_spatial_run(w: Workload) {
        let run = |seed| {
            let report = SpatialSim::new(spatial_config(w, seed, 0.02))
                .expect("benchmark floors are valid")
                .run();
            assert!(report.events_processed > 0 && report.frames_sent > 0);
            Outputs::spatial(&report)
        };
        let mut expected = Expected::new(w, DEFAULT_SEED, 0.02);
        let first = run(DEFAULT_SEED);
        expected.check(first.clone()).unwrap();
        expected.check(run(DEFAULT_SEED)).unwrap();
        let other = run(11);
        assert_ne!(other, first, "{}: the seed must reach the inputs", w.name());
        let err = expected.check(other).unwrap_err();
        assert!(err.contains("expected"), "{err}");
    }

    #[test]
    fn shrunken_enterprise_udp() {
        shrunken_spatial_run(Workload::EnterpriseUdp);
    }

    #[test]
    fn shrunken_city_udp() {
        shrunken_spatial_run(Workload::CityUdp);
    }

    #[test]
    fn shrunken_enterprise_tcp() {
        shrunken_spatial_run(Workload::EnterpriseTcp);
    }

    #[test]
    fn shrunken_scenario_matrix() {
        let run = |seed| {
            let plans = matrix_plans(seed, 0.02).unwrap();
            let opts = RunOptions {
                threads: Some(2),
                telemetry: Some(RecorderConfig {
                    decisions: true,
                    ..RecorderConfig::default()
                }),
                ..RunOptions::default()
            };
            let outcomes = run_all_checked(&plans, &opts);
            let render = MatrixRender::new(&outcomes, outcomes_to_jsonl(&outcomes));
            assert_eq!(render.failed_runs, 0);
            assert!(!render.telemetry.is_empty());
            render.outputs(plans.len())
        };
        let mut expected = Expected::new(Workload::ScenarioMatrix, DEFAULT_SEED, 0.02);
        let first = run(DEFAULT_SEED);
        expected.check(first.clone()).unwrap();
        expected.check(run(DEFAULT_SEED)).unwrap();
        let other = run(5);
        assert_eq!(
            other.0[0], first.0[0],
            "a seed does not change the matrix shape"
        );
        assert!(expected.check(other).unwrap_err().starts_with("digest"));
    }
}
