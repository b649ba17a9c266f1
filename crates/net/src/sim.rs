//! The multi-cell spatial network simulator: N stations over a grid of
//! APs, every BSS running the same 802.11-like DCF as the single-cell
//! simulator — literally, the shared
//! [`MacEngine`], so §6.4's collision
//! feedback carries over structurally. The spatial medium it runs over is
//! split by concern into private submodules:
//!
//! * `medium` — station and attempt state, and the engine hooks. Geometry
//!   decides everything: carrier sense is physical, and a concurrent
//!   transmission corrupts a reception only when the SIR at that receiver
//!   falls below the capture threshold, so hidden terminals, co-channel
//!   interference and spatial reuse *emerge* from positions. Frame fates
//!   are drawn at transmit time from per-link streaming channels; no
//!   `LinkTrace` is materialized, so memory stays O(stations).
//! * `sense` — the sensing threshold's distance bands and the index walk.
//! * `flows` — every [`SpatialTraffic`] but the native saturated-uplink
//!   fast path: TCP NewReno either way, queue-backed UDP, on–off sources,
//!   with AP transmitters and flows that survive handoffs.
//! * `roaming` — RSSI re-evaluation and handoff past a hysteresis, with
//!   the adapter's state preserved or reset.
//! * `faults` — the fault state and its lifecycle events.
//!
//! The verdicts they apply live in [`crate::physics`].

mod faults;
mod flows;
mod medium;
mod roaming;
mod sense;

use softrate_channel::analytic::OracleBands;
use softrate_sim::config::AdapterKind;
use softrate_sim::fault::{FaultConfig, FaultDriver};
use softrate_sim::mac::{MacEngine, MacParams, PhaseProfile, Port, RunReport};
use softrate_sim::timing::{data_airtime, rts_cts_overhead, IP_TCP_HEADER};
use softrate_sim::transport::TransportConfig;

use crate::grid::SenseIndex;
use crate::mobility::MobilityWalker;
use crate::physics::NOISE_FLOOR_DB;
use crate::spatial::{SpatialError, SpatialSpec};
use crate::stream::mix_seed;
use faults::FaultState;
use flows::FlowNet;
use medium::{SpatialMedium, Station};
use sense::SenseBands;

/// The workload a spatial deployment carries.
#[derive(Debug, Clone)]
pub enum SpatialTraffic {
    /// Saturated uplink UDP: every station always has a datagram for its
    /// AP. The medium implements this as its native zero-queue fast path
    /// (no AP transmitters, no MAC queues, no transport events) — the
    /// degenerate [`TransportLayer`] configuration, kept inline so the
    /// spatial hot path stays byte-identical to the pre-transport
    /// subsystem (pinned by the unregenerated goldens and the `netscale`
    /// event counts).
    ///
    /// [`TransportLayer`]: softrate_sim::transport::TransportLayer
    SaturatedUplinkUdp,
    /// A [`TransportLayer`] workload: TCP NewReno upload/download,
    /// queue-backed UDP in either direction, or the bursty on–off source.
    /// Adds per-station downlink links and AP transmitters; per-station
    /// flows survive roaming handoffs under both handoff policies.
    ///
    /// [`TransportLayer`]: softrate_sim::transport::TransportLayer
    Flows(TransportConfig),
}

/// Configuration of one spatial simulation run.
#[derive(Debug, Clone)]
pub struct SpatialConfig {
    /// Simulated seconds.
    pub duration: f64,
    /// Rate-adaptation algorithm every station runs on its uplink.
    pub adapter: AdapterKind,
    /// On-air bytes per data frame (payload + IP/TCP-sized headers). In
    /// `Flows` mode this is derived from the transport's MSS.
    pub payload_bytes: usize,
    /// Deployment seed: station spawns, trajectories, fading, and fate
    /// streams all derive from it.
    pub seed: u64,
    /// Seed for MAC-layer randomness (backoff draws, collision-detector
    /// verdicts, adapter tie-breaks). Defaults to `seed`; the scenario
    /// engine sets it to the per-run seed while `seed` stays per-spec, so
    /// every adapter in a matrix is compared over identical channel
    /// realizations (§6.1) with independent MAC randomness per run.
    pub mac_seed: u64,
    /// The deployment.
    pub spatial: SpatialSpec,
    /// The workload.
    pub traffic: SpatialTraffic,
    /// Saturated-uplink kickoff stagger between consecutive stations,
    /// seconds — spreads the floor's first backoff draws so they do not
    /// all land on one instant. Large ladders scale it down so the whole
    /// floor still kicks off within the first simulated second.
    pub kickoff_stagger_s: f64,
    /// Telemetry recorder configuration; `None` (the default) disables the
    /// recorder entirely — the disabled path must leave every simulation
    /// result byte-identical.
    pub telemetry: Option<softrate_telemetry::RecorderConfig>,
    /// Deterministic fault injection (`softrate-faults`); `None` (the
    /// default) — and an all-`None` table — keep every fault seam
    /// untouched, so faults-off runs stay byte-identical to a build
    /// without the subsystem (pinned by the unregenerated goldens).
    pub faults: Option<FaultConfig>,
}

impl SpatialConfig {
    /// A default-duration saturated-uplink-UDP run of `spatial` under
    /// `adapter`.
    pub fn new(adapter: AdapterKind, spatial: SpatialSpec) -> Self {
        SpatialConfig {
            duration: 10.0,
            adapter,
            payload_bytes: 1440,
            seed: 0x5A7A,
            mac_seed: 0x5A7A,
            spatial,
            traffic: SpatialTraffic::SaturatedUplinkUdp,
            kickoff_stagger_s: 2e-4,
            telemetry: None,
            faults: None,
        }
    }

    /// Data-frame size on the air, bits.
    pub fn frame_bits(&self) -> usize {
        self.payload_bytes * 8
    }
}

/// The multi-cell simulator: a [`MacEngine`] configured with the
/// spatial medium.
pub struct SpatialSim {
    engine: MacEngine<SpatialMedium>,
}

impl SpatialSim {
    /// Builds the deployment: lays out the grid, spawns stations, and
    /// associates each with its strongest AP.
    pub fn new(mut cfg: SpatialConfig) -> Result<Self, SpatialError> {
        if let SpatialTraffic::Flows(tc) = &cfg.traffic {
            // Flow traffic sizes data frames from the transport's MSS.
            cfg.payload_bytes = tc.tcp.mss + IP_TCP_HEADER;
        }
        // A NaN duration or stagger would never let the event loop reach
        // its horizon; a negative stagger would kick stations off before 0.
        let (d, s, p) = (cfg.duration, cfg.kickoff_stagger_s, cfg.payload_bytes);
        if !(d.is_finite() && d > 0.0 && s.is_finite() && s >= 0.0 && p > IP_TCP_HEADER) {
            return Err(SpatialError(format!(
                "need finite duration > 0, finite kickoff_stagger_s >= 0 and \
                 payload_bytes > {IP_TCP_HEADER}; got {d}, {s}, {p}"
            )));
        }
        let params = cfg.spatial.resolve()?;
        if let Some(fc) = &cfg.faults {
            if let Some(o) = &fc.ap_outage {
                if o.ap >= params.aps.len() {
                    return Err(SpatialError(format!(
                        "faults.ap_outage.ap = {} out of range ({} APs)",
                        o.ap,
                        params.aps.len()
                    )));
                }
            }
            if let Some(ch) = &fc.churn {
                if ch.join_count > params.n_stations || ch.leave_count > params.n_stations {
                    return Err(SpatialError(format!(
                        "faults.churn join/leave counts ({}/{}) exceed n_stations = {}",
                        ch.join_count, ch.leave_count, params.n_stations
                    )));
                }
                if matches!(cfg.traffic, SpatialTraffic::Flows(_)) {
                    return Err(SpatialError(
                        "faults.churn requires the saturated-uplink workload \
                         (flow-mode joins would need per-flow transport setup)"
                            .into(),
                    ));
                }
            }
        }
        let walkers = (0..params.n_stations)
            .map(|s| MobilityWalker::new(params.station_seed(cfg.seed, s)))
            .collect();
        let mac_params = MacParams {
            postambles: cfg.adapter.postambles(),
            detect_prob: cfg.adapter.detect_prob(),
            backoff_seed: cfg.mac_seed ^ 0x4E45_5453_5041,
            collision_seed: cfg.mac_seed,
        };
        let n = params.n_stations;
        let n_aps = params.aps.len();
        // Conservative pruning radii: exact inversions of the path-loss
        // model for the sensing threshold and the interference noise
        // floor, plus the worst-case drift of a transmitter while its
        // frame is on the air (slowest-rate airtime + RTS/CTS, at the
        // mobility model's speed).
        let interference_radius_m = params.range_band(NOISE_FLOOR_DB).1;
        let max_airtime: f64 = softrate_phy::rates::PAPER_RATES
            .iter()
            .map(|&r| data_airtime(r, cfg.payload_bytes, cfg.adapter.postambles()))
            .fold(0.0, f64::max)
            + rts_cts_overhead();
        let drift_pad_m = params.mobility.speed_mps() * max_airtime * (1.0 + 1e-9) + 1e-9;
        let interference_drift_r = interference_radius_m + drift_pad_m;
        let (bands, sense_reach) = SenseBands::new(&params, drift_pad_m);
        // An all-`None` `[faults]` table lowers to no state at all, so an
        // empty table is provably identical to no table (pinned by test).
        let faults = cfg
            .faults
            .filter(|f| !f.is_noop())
            .map(|f| FaultState::new(f, n, n_aps, cfg.mac_seed));
        let mut medium = SpatialMedium {
            stations: Vec::with_capacity(n),
            walkers,
            flows: None,
            sense: SenseIndex::new(params.bounds, sense_reach),
            sense_candidates: 0,
            bands,
            int_r2: interference_radius_m * interference_radius_m,
            int_drift_r2: interference_drift_r * interference_drift_r,
            oracle: OracleBands::new(cfg.frame_bits()),
            ap_near: Vec::with_capacity(n_aps),
            faults,
            inter_cell_corruptions: 0,
            handoffs: 0,
            initial_assoc: Vec::with_capacity(n),
            handoff_log: Vec::new(),
            params,
            cfg,
        };
        let mut ports = Vec::with_capacity(n);
        for s in 0..n {
            let pos = medium.params.station_pos(medium.cfg.seed, s, 0.0);
            let (ap, _) = medium
                .params
                .best_ap(pos, None)
                .expect("a resolved grid has at least one AP");
            medium.initial_assoc.push(ap);
            let link = medium.make_link(s, ap, 0);
            ports.push(Port::new(medium.make_adapter(s)));
            medium.stations.push(Station {
                ap,
                epoch: 0,
                link,
                pending_handoff: None,
                delivered: 0,
            });
        }
        let mut n_senders = n;
        if let SpatialTraffic::Flows(tc) = &medium.cfg.traffic {
            // Downlink ports (one per station) and AP transmitters.
            ports.extend((n..2 * n).map(|port| Port::new(medium.make_adapter(port))));
            n_senders = n + n_aps;
            medium.flows = Some(FlowNet::new(tc, &medium.initial_assoc, n_aps));
        }
        let mut engine = MacEngine::new(n_senders, ports, mac_params, medium);
        if let Some(tcfg) = engine.medium.cfg.telemetry.clone() {
            engine.core.recorder = Some(Box::new(softrate_telemetry::Recorder::new(
                tcfg, n, n_senders,
            )));
        }
        // SoftPHY hint corruption lives in the engine core (it degrades
        // what the adapter sees at the feedback window, after telemetry
        // observed the truth), keyed by the MAC seed like the rest of
        // the MAC-layer randomness.
        if let Some(h) = engine.medium.cfg.faults.and_then(|f| f.hint) {
            if h.drop_prob > 0.0 || h.quantize_db > 0.0 {
                let seed = mix_seed(engine.medium.cfg.mac_seed, 0x4849_4E54);
                engine.core.faults = Some(FaultDriver::new(h, seed));
            }
        }
        Ok(SpatialSim { engine })
    }

    /// Runs to `cfg.duration` and reports.
    pub fn run(mut self) -> RunReport {
        let duration = self.engine.medium.cfg.duration;
        self.engine.run(duration);
        self.report()
    }

    /// [`SpatialSim::run`] with per-phase wall-time accounting (identical
    /// results; see [`MacEngine::run_profiled`]).
    pub fn run_profiled(mut self) -> (RunReport, PhaseProfile) {
        let duration = self.engine.medium.cfg.duration;
        let mut profile = self.engine.run_profiled(duration);
        profile.sense_candidates = self.engine.medium.sense_candidates;
        (self.report(), profile)
    }

    fn report(mut self) -> RunReport {
        let duration = self.engine.medium.cfg.duration;
        let telemetry = self
            .engine
            .core
            .recorder
            .take()
            .map(|rec| rec.finish(duration));
        let m = self.engine.medium;
        let stats = self.engine.core.stats;
        let per_station: Vec<f64> = match &m.flows {
            None => {
                let useful_bits = (m.cfg.payload_bytes - IP_TCP_HEADER) as f64 * 8.0;
                m.stations
                    .iter()
                    .map(|s| s.delivered as f64 * useful_bits / duration)
                    .collect()
            }
            Some(fl) => (0..m.stations.len())
                .map(|s| fl.transport.flow_goodput_bps(s, duration))
                .collect(),
        };
        RunReport {
            adapter_name: m.cfg.adapter.name().to_string(),
            aggregate_goodput_bps: per_station.iter().sum(),
            per_flow_goodput_bps: per_station,
            audit: stats.audit,
            frames_sent: stats.frames_sent,
            frames_delivered: stats.frames_delivered,
            collisions: stats.collisions,
            silent_losses: stats.silent_losses,
            rate_timeline: Vec::new(),
            inter_cell_corruptions: m.inter_cell_corruptions,
            handoffs: m.handoffs,
            initial_assoc: m.initial_assoc,
            handoff_log: m.handoff_log,
            events_processed: stats.events_processed,
            telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::MobilitySpec;
    use crate::spatial::{HandoffPolicy, RoamingSpec};
    use softrate_sim::config::TrafficKind;
    use softrate_sim::mac::MacEv;
    use softrate_sim::timing::CW_MIN;
    use softrate_sim::transport::Payload;

    fn small_spec(cols: usize, spacing: f64, n_stations: usize) -> SpatialSpec {
        SpatialSpec {
            ap_cols: cols,
            ap_rows: 1,
            ap_spacing_m: spacing,
            n_stations,
            snr_ref_db: None,
            path_loss_exp: None,
            sense_snr_db: None,
            capture_sir_db: None,
            doppler_hz: None,
            mobility: MobilitySpec::Static,
            roaming: None,
        }
    }

    fn run(cfg: SpatialConfig) -> RunReport {
        SpatialSim::new(cfg).expect("valid spec").run()
    }

    /// A flow-mode transport config mirroring the Figure 12 defaults with
    /// an enterprise-grade wired backhaul (the wired segment must not be
    /// the bottleneck of a whole floor).
    fn flows(traffic: TrafficKind, upload: bool) -> SpatialTraffic {
        SpatialTraffic::Flows(TransportConfig::enterprise(traffic, upload, 0x5A7A))
    }

    #[test]
    fn bad_run_parameters_are_rejected() {
        let base = || SpatialConfig::new(AdapterKind::Fixed(2), small_spec(1, 20.0, 20));
        let mut bad = Vec::new();
        for d in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let mut cfg = base();
            cfg.duration = d;
            bad.push(cfg);
        }
        for s in [f64::NAN, f64::INFINITY, -1e-4] {
            let mut cfg = base();
            cfg.kickoff_stagger_s = s;
            bad.push(cfg);
        }
        let mut cfg = base();
        cfg.payload_bytes = 0;
        bad.push(cfg);
        for cfg in bad {
            let what = format!(
                "{:?}",
                (cfg.duration, cfg.kickoff_stagger_s, cfg.payload_bytes)
            );
            assert!(SpatialSim::new(cfg).is_err(), "accepted {what}");
        }
        let mut cfg = base();
        cfg.kickoff_stagger_s = 0.0;
        assert!(SpatialSim::new(cfg).is_ok(), "a zero stagger is valid");
    }

    #[test]
    fn single_cell_moves_data() {
        let mut cfg = SpatialConfig::new(AdapterKind::Fixed(2), small_spec(1, 20.0, 3));
        cfg.duration = 2.0;
        let r = run(cfg);
        assert!(r.frames_sent > 100, "sent {}", r.frames_sent);
        assert!(
            r.aggregate_goodput_bps > 1e6,
            "goodput {}",
            r.aggregate_goodput_bps
        );
        assert_eq!(r.handoffs, 0);
        assert_eq!(r.initial_assoc, vec![0, 0, 0]);
    }

    #[test]
    fn far_cells_are_independent_collision_domains() {
        // Two cells 300 m apart: any cross-cell transmitter is >= 150 m
        // from the foreign AP, which at the default path loss puts its
        // interference below the noise floor — the domains cannot mix,
        // while stations near their own AP still deliver.
        let mut cfg = SpatialConfig::new(AdapterKind::Fixed(0), small_spec(2, 300.0, 24));
        cfg.duration = 1.5;
        let r = run(cfg);
        assert_eq!(r.inter_cell_corruptions, 0, "distant cells must not mix");
        // Both cells got stations (uniform spawn over a 2-cell strip) and
        // data moved.
        let aps: std::collections::HashSet<usize> = r.initial_assoc.iter().copied().collect();
        assert_eq!(aps.len(), 2, "spawn should cover both cells");
        assert!(r.frames_delivered > 0);
    }

    #[test]
    fn overlapping_cells_interfere() {
        // APs 12 m apart: heavy overlap. Sensing threshold raised so
        // cross-cell transmitters are *not* deferred to, forcing actual
        // concurrent transmissions.
        let mut spec = small_spec(3, 12.0, 12);
        spec.sense_snr_db = Some(100.0); // nobody ever defers
        let mut cfg = SpatialConfig::new(AdapterKind::Fixed(2), spec);
        cfg.duration = 1.0;
        let r = run(cfg);
        assert!(r.collisions > 0, "overlap with no sensing must collide");
        assert!(r.inter_cell_corruptions > 0);
    }

    #[test]
    fn report_is_deterministic() {
        let mk = || {
            let mut spec = small_spec(2, 25.0, 10);
            spec.mobility = MobilitySpec::RandomWaypoint {
                speed_mps: 1.5,
                pause_s: 1.0,
            };
            spec.roaming = Some(RoamingSpec {
                hysteresis_db: 2.0,
                check_interval_s: None,
                handoff: HandoffPolicy::Preserve,
            });
            let mut cfg = SpatialConfig::new(AdapterKind::SoftRate, spec);
            cfg.duration = 2.0;
            cfg
        };
        let a = run(mk());
        let b = run(mk());
        assert_eq!(a.aggregate_goodput_bps, b.aggregate_goodput_bps);
        assert_eq!(a.frames_sent, b.frames_sent);
        assert_eq!(a.handoffs, b.handoffs);
        assert_eq!(a.handoff_log, b.handoff_log);
    }

    #[test]
    fn roaming_walk_hands_off_and_stays_singly_associated() {
        let mut spec = small_spec(3, 24.0, 6);
        spec.mobility = MobilitySpec::RandomWaypoint {
            speed_mps: 12.0, // brisk, to force several cell crossings
            pause_s: 0.0,
        };
        spec.roaming = Some(RoamingSpec {
            hysteresis_db: 1.0,
            check_interval_s: Some(0.1),
            handoff: HandoffPolicy::Preserve,
        });
        let mut cfg = SpatialConfig::new(AdapterKind::SoftRate, spec);
        cfg.duration = 6.0;
        let r = run(cfg);
        assert!(r.handoffs > 0, "fast walkers across 3 cells must roam");
        // Invariant: the handoff log forms a consistent chain per station
        // (every `from` equals the previous association), which is exactly
        // the statement that a station is associated to one AP at a time.
        let mut assoc = r.initial_assoc.clone();
        for h in &r.handoff_log {
            assert_eq!(assoc[h.station], h.from, "log out of order");
            assert_ne!(h.from, h.to);
            assert!(h.to < 3);
            assoc[h.station] = h.to;
        }
        assert_eq!(r.handoffs as usize, r.handoff_log.len());
    }

    #[test]
    fn reset_and_preserve_policies_both_run_and_differ() {
        // Cells large enough that SNR swings decades between center and
        // edge: adapter state carried across a handoff is then *wrong*
        // state, and the two policies must measurably diverge.
        let mk = |policy| {
            let mut spec = small_spec(3, 70.0, 6);
            spec.mobility = MobilitySpec::RandomWaypoint {
                speed_mps: 12.0,
                pause_s: 0.0,
            };
            spec.roaming = Some(RoamingSpec {
                hysteresis_db: 1.0,
                check_interval_s: Some(0.1),
                handoff: policy,
            });
            let mut cfg = SpatialConfig::new(AdapterKind::SoftRate, spec);
            cfg.duration = 6.0;
            cfg
        };
        let preserve = run(mk(HandoffPolicy::Preserve));
        let reset = run(mk(HandoffPolicy::Reset));
        assert!(preserve.handoffs > 0 && reset.handoffs > 0);
        assert_ne!(
            (preserve.frames_sent, preserve.frames_delivered),
            (reset.frames_sent, reset.frames_delivered),
            "handoff policy must alter rate-adaptation behaviour"
        );
    }

    #[test]
    fn omniscient_tracks_the_oracle_exactly() {
        let mut cfg = SpatialConfig::new(AdapterKind::Omniscient, small_spec(2, 30.0, 4));
        cfg.duration = 1.0;
        let r = run(cfg);
        let (over, acc, under) = r.audit.fractions();
        assert_eq!(over, 0.0);
        assert_eq!(under, 0.0);
        assert_eq!(acc, 1.0);
        assert!(r.frames_delivered > 0);
    }

    #[test]
    fn softrate_adapts_across_the_cell() {
        // Over a cell whose SNR spans many rates, SoftRate must clearly
        // beat the most robust fixed rate and stay within reach of the
        // omniscient oracle.
        let mk = |adapter| {
            let mut cfg = SpatialConfig::new(adapter, small_spec(2, 60.0, 6));
            cfg.duration = 3.0;
            cfg
        };
        let sr = run(mk(AdapterKind::SoftRate));
        let slow = run(mk(AdapterKind::Fixed(0)));
        let omni = run(mk(AdapterKind::Omniscient));
        assert!(
            sr.aggregate_goodput_bps > 1.5 * slow.aggregate_goodput_bps,
            "SoftRate {} vs Fixed-0 {}",
            sr.aggregate_goodput_bps,
            slow.aggregate_goodput_bps
        );
        assert!(
            sr.aggregate_goodput_bps > 0.5 * omni.aggregate_goodput_bps,
            "SoftRate {} vs Omniscient {}",
            sr.aggregate_goodput_bps,
            omni.aggregate_goodput_bps
        );
    }

    /// A floor under a metre across: the sense index must size its cells
    /// without a panicking clamp.
    #[test]
    fn sub_metre_floor_runs() {
        let mut cfg = SpatialConfig::new(AdapterKind::Fixed(2), small_spec(1, 0.5, 4));
        cfg.duration = 0.5;
        let r = run(cfg);
        assert!(r.frames_delivered > 0);
    }

    /// A sensing threshold above the reference SNR: nothing is ever
    /// audible, so the sensing reach collapses to the drift pad and every
    /// station transmits into the others.
    #[test]
    fn sensing_above_the_reference_snr_runs_deaf() {
        let mut spec = small_spec(2, 20.0, 8);
        spec.sense_snr_db = Some(60.0); // the reference SNR defaults to 55 dB
        spec.mobility = MobilitySpec::RandomWaypoint {
            speed_mps: 3.0,
            pause_s: 0.0,
        };
        let mut cfg = SpatialConfig::new(AdapterKind::Fixed(2), spec);
        cfg.duration = 0.5;
        let (r, p) = SpatialSim::new(cfg).expect("valid spec").run_profiled();
        assert_eq!(p.deferrals, 0, "nothing is audible");
        assert!(r.collisions > 0);
    }

    /// The carrier-sense work count on a small fixed deployment, pinned
    /// exactly: a pruning regression shows up here without a clock.
    #[test]
    fn sense_candidates_are_pinned_on_a_fixed_deployment() {
        let mut spec = small_spec(3, 40.0, 24);
        spec.sense_snr_db = Some(25.0); // a ~13 m sensing disk: a multi-cell index
        spec.mobility = MobilitySpec::RandomWaypoint {
            speed_mps: 3.0,
            pause_s: 0.5,
        };
        let mut cfg = SpatialConfig::new(AdapterKind::SoftRate, spec);
        cfg.duration = 1.0;
        let (r, p) = SpatialSim::new(cfg).expect("valid spec").run_profiled();
        assert_eq!(
            (
                r.events_processed,
                p.deferrals + p.transmissions,
                p.sense_candidates
            ),
            (22_148, 9_459, 12_307)
        );
    }

    /// The event wheel's work counts on a small fixed deployment, pinned
    /// exactly: a change in how events reach the ring, the overflow heap
    /// or the slab shows up here without a clock; the cursor loads fewer
    /// buckets than it pops events, since it never loads an empty one.
    /// Roaming checks every 100 ms and TCP timers land beyond the wheel's
    /// ~16 ms span, so the overflow heap is exercised too. Flow-mode TCP
    /// with roaming reaches most of the MAC's wake-up paths (enqueue,
    /// handoff, the re-homed downlink's new owner), so the deferral and
    /// transmission counts pin those as well.
    #[test]
    fn wheel_counters_are_pinned_on_a_fixed_deployment() {
        let mut spec = small_spec(3, 40.0, 24);
        spec.sense_snr_db = Some(25.0);
        spec.mobility = MobilitySpec::RandomWaypoint {
            speed_mps: 3.0,
            pause_s: 0.5,
        };
        spec.roaming = Some(RoamingSpec {
            hysteresis_db: 3.0,
            check_interval_s: Some(0.1),
            handoff: HandoffPolicy::Preserve,
        });
        let mut cfg = SpatialConfig::new(AdapterKind::SoftRate, spec);
        cfg.traffic = flows(TrafficKind::Tcp, true);
        cfg.duration = 1.0;
        let (r, p) = SpatialSim::new(cfg).expect("valid spec").run_profiled();
        let w = p.wheel;
        assert_eq!(
            (
                r.events_processed,
                w.pushes,
                w.spills,
                w.teleports,
                w.advances,
                w.slab_peak,
                p.deferrals,
                p.transmissions
            ),
            (33_412, 33_506, 3_240, 0, 29_784, 100, 4_534, 6_608)
        );
    }

    /// A handoff that re-homes a queued downlink wakes the new AP with a
    /// backoff drawn from that downlink's contention window, which the
    /// handoff has just reset, not from whichever port happens to share
    /// the AP sender's index. Eight MAC seeds, so a wrong window cannot
    /// pass by drawing a short backoff.
    #[test]
    fn handoff_wakes_the_new_ap_from_the_rehomed_downlinks_window() {
        use softrate_sim::timing::{CW_MAX, DIFS, SLOT};
        for mac_seed in 1..=8 {
            let mut cfg = SpatialConfig::new(AdapterKind::Fixed(2), small_spec(2, 30.0, 4));
            cfg.traffic = flows(TrafficKind::Tcp, false);
            cfg.mac_seed = mac_seed;
            let mut sim = SpatialSim::new(cfg).expect("valid spec");
            let MacEngine { core, medium, .. } = &mut sim.engine;
            let n = medium.params.n_stations;
            // A station whose index is no AP's, so port `n + to` is
            // another station's downlink.
            let st = n - 1;
            let to = 1 - medium.stations[st].ap;
            medium.flows.as_mut().expect("flow mode").queues[n + st].push_back(Payload::Ack(0));
            for port in &mut core.ports {
                port.cw = CW_MAX;
            }
            medium.apply_handoff(core, st, to, 0.0);
            let ev = core.events.pop().expect("the new AP was woken");
            assert!(matches!(ev.event, MacEv::TxStart { sender } if sender == n + to));
            assert!(
                ev.time <= DIFS + CW_MIN as f64 * SLOT + 1e-12,
                "seed {mac_seed}: backoff until {} s exceeds CW_MIN",
                ev.time
            );
        }
    }

    /// Loss attribution on overlapping cells, pinned exactly: a frame
    /// corrupted only from a foreign cell is filed as capture, one
    /// corrupted from its own cell as a collision, whichever side of the
    /// overlap (the new transmission or one already on the air) it is.
    #[test]
    fn overlapping_cells_attribute_losses_by_cell() {
        let mut spec = small_spec(3, 12.0, 12);
        spec.sense_snr_db = Some(100.0); // nobody ever defers
        let mut cfg = SpatialConfig::new(AdapterKind::Fixed(2), spec);
        cfg.duration = 1.0;
        cfg.telemetry = Some(softrate_telemetry::RecorderConfig::default());
        let r = run(cfg);
        let totals = r.telemetry.expect("recorder on").totals;
        let collision: u64 = totals.iter().map(|t| t.loss_collision).sum();
        let capture: u64 = totals.iter().map(|t| t.loss_capture).sum();
        assert!(collision > 0 && capture > 0);
        assert_eq!(
            (r.collisions, r.inter_cell_corruptions, collision, capture),
            (3_900, 2_309, 3_845, 55)
        );
    }

    #[test]
    fn hundred_stations_three_aps_runs_fast_and_streams() {
        // The acceptance-scale shape: >= 100 stations, >= 3 APs, no trace
        // materialization (structurally impossible here: SpatialSim never
        // touches LinkTrace).
        let mut spec = small_spec(3, 30.0, 120);
        spec.mobility = MobilitySpec::RandomWaypoint {
            speed_mps: 1.5,
            pause_s: 2.0,
        };
        spec.roaming = Some(RoamingSpec {
            hysteresis_db: 3.0,
            check_interval_s: None,
            handoff: HandoffPolicy::Preserve,
        });
        let mut cfg = SpatialConfig::new(AdapterKind::SoftRate, spec);
        cfg.duration = 1.0;
        let r = run(cfg);
        assert_eq!(r.per_flow_goodput_bps.len(), 120);
        assert!(r.frames_sent > 500, "sent {}", r.frames_sent);
        assert!(r.events_processed > 1000);
    }

    // ---- Flow-mode (pluggable transport) tests ---------------------------

    #[test]
    fn spatial_tcp_upload_moves_data() {
        let mut cfg = SpatialConfig::new(AdapterKind::Fixed(2), small_spec(1, 20.0, 3));
        cfg.traffic = flows(TrafficKind::Tcp, true);
        cfg.duration = 3.0;
        let r = run(cfg);
        assert!(
            r.aggregate_goodput_bps > 1e6,
            "spatial TCP upload goodput {}",
            r.aggregate_goodput_bps
        );
        // Every station's flow makes progress.
        for (s, g) in r.per_flow_goodput_bps.iter().enumerate() {
            assert!(*g > 1e5, "station {s} starved: {g}");
        }
    }

    #[test]
    fn spatial_tcp_download_moves_data() {
        let mut cfg = SpatialConfig::new(AdapterKind::Fixed(2), small_spec(1, 20.0, 3));
        cfg.traffic = flows(TrafficKind::Tcp, false);
        cfg.duration = 3.0;
        let r = run(cfg);
        assert!(
            r.aggregate_goodput_bps > 1e6,
            "spatial TCP download goodput {}",
            r.aggregate_goodput_bps
        );
        for (s, g) in r.per_flow_goodput_bps.iter().enumerate() {
            assert!(*g > 1e5, "station {s} starved: {g}");
        }
    }

    #[test]
    fn spatial_tcp_is_deterministic() {
        let mk = || {
            let mut spec = small_spec(2, 30.0, 8);
            spec.mobility = MobilitySpec::RandomWaypoint {
                speed_mps: 1.5,
                pause_s: 1.0,
            };
            spec.roaming = Some(RoamingSpec {
                hysteresis_db: 2.0,
                check_interval_s: None,
                handoff: HandoffPolicy::Preserve,
            });
            let mut cfg = SpatialConfig::new(AdapterKind::SoftRate, spec);
            cfg.traffic = flows(TrafficKind::Tcp, true);
            cfg.duration = 2.0;
            cfg
        };
        let a = run(mk());
        let b = run(mk());
        assert_eq!(a.aggregate_goodput_bps, b.aggregate_goodput_bps);
        assert_eq!(a.frames_sent, b.frames_sent);
        assert_eq!(a.per_flow_goodput_bps, b.per_flow_goodput_bps);
        assert_eq!(a.handoff_log, b.handoff_log);
        assert_eq!(a.events_processed, b.events_processed);
    }

    /// TCP flows must survive roaming: segments keep flowing across >= 1
    /// handoff under *both* handoff policies (the TCP endpoints belong to
    /// the station, not the AP).
    #[test]
    fn spatial_tcp_survives_handoffs_under_both_policies() {
        for (policy, upload) in [
            (HandoffPolicy::Preserve, true),
            (HandoffPolicy::Reset, false),
        ] {
            let mut spec = small_spec(3, 24.0, 4);
            spec.mobility = MobilitySpec::RandomWaypoint {
                speed_mps: 12.0,
                pause_s: 0.0,
            };
            spec.roaming = Some(RoamingSpec {
                hysteresis_db: 1.0,
                check_interval_s: Some(0.1),
                handoff: policy,
            });
            let mut cfg = SpatialConfig::new(AdapterKind::SoftRate, spec);
            cfg.traffic = flows(TrafficKind::Tcp, upload);
            cfg.duration = 6.0;
            let r = run(cfg);
            assert!(r.handoffs > 0, "{policy:?}: fast walkers must roam");
            // Goodput integrated over the run includes post-handoff
            // delivery: every flow stays alive.
            for (s, g) in r.per_flow_goodput_bps.iter().enumerate() {
                assert!(
                    *g > 1e5,
                    "{policy:?} upload={upload}: station {s} stalled after handoff: {g}"
                );
            }
            // The single-association invariant holds in flow mode too.
            let mut assoc = r.initial_assoc.clone();
            for h in &r.handoff_log {
                assert_eq!(assoc[h.station], h.from, "chain broken");
                assoc[h.station] = h.to;
            }
        }
    }

    #[test]
    fn spatial_onoff_is_source_limited() {
        let onoff = TrafficKind::OnOff {
            rate_pps: 100.0,
            on_s: 0.25,
            off_s: 0.25,
        };
        let mut cfg = SpatialConfig::new(AdapterKind::Fixed(2), small_spec(1, 20.0, 4));
        cfg.traffic = flows(onoff, true);
        cfg.duration = 4.0;
        let r = run(cfg);
        // 4 stations x 100 pkt/s x 50% duty ≈ 200 pkt/s x 11200 bits.
        let offered = 200.0 * 1400.0 * 8.0;
        assert!(
            r.aggregate_goodput_bps > 0.4 * offered,
            "on-off goodput {} must approach offered {offered}",
            r.aggregate_goodput_bps
        );
        assert!(
            r.aggregate_goodput_bps < 1.5 * offered,
            "on-off goodput {} must not saturate past the source",
            r.aggregate_goodput_bps
        );
    }

    /// The saturated fast path must out-deliver a TCP workload on the same
    /// floor (window/ACK clocking costs throughput), and both must move
    /// real data — a cheap cross-check that the two traffic paths share
    /// the same wireless world.
    #[test]
    fn saturated_udp_outruns_tcp_on_the_same_floor() {
        let mk = |traffic| {
            let mut cfg = SpatialConfig::new(AdapterKind::Fixed(2), small_spec(1, 20.0, 4));
            cfg.traffic = traffic;
            cfg.duration = 2.0;
            cfg
        };
        let udp = run(mk(SpatialTraffic::SaturatedUplinkUdp));
        let tcp = run(mk(flows(TrafficKind::Tcp, true)));
        assert!(udp.aggregate_goodput_bps > 1e6 && tcp.aggregate_goodput_bps > 1e6);
        assert!(
            udp.aggregate_goodput_bps >= 0.95 * tcp.aggregate_goodput_bps,
            "saturated UDP {} must not trail TCP {}",
            udp.aggregate_goodput_bps,
            tcp.aggregate_goodput_bps
        );
    }
}
