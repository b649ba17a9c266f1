//! Fault injection on the spatial medium (`softrate-faults`): the live
//! fault state, its pre-scheduled lifecycle events, and their dispatch.

use softrate_sim::fault::FaultConfig;
use softrate_sim::mac::MacEv;
use softrate_trace::schema::hash_uniform;

use super::medium::{Core, SpatialEv, SpatialMedium};
use crate::stream::mix_seed;

/// One scheduled fault-lifecycle event. All of them are pre-scheduled at
/// kickoff into the ordinary event queue, so they dispatch in exact
/// global `(time, seq)` order with the traffic.
#[derive(Debug, Clone, Copy)]
pub(super) enum FaultEv {
    /// AP `ap` dies: queued downlink frames drop with accounting, and
    /// every reception in its BSS resolves as an outage until restart.
    ApDown {
        /// The AP.
        ap: usize,
    },
    /// AP `ap` restarts (and resumes serving whatever queued up).
    ApUp {
        /// The AP.
        ap: usize,
    },
    /// Churn joiner `st` becomes active and starts transmitting.
    Join {
        /// The station.
        st: usize,
    },
    /// Churn leaver `st` falls silent (after its in-flight frame, if
    /// any, resolves).
    Leave {
        /// The station.
        st: usize,
    },
    /// Wave boundary marker for the metrics stream: one start/end pair
    /// per join/leave wave, so interval fault tags cover the whole ramp
    /// instead of flapping per station.
    ChurnPhase {
        /// Join wave (`true`) or leave wave (`false`).
        join: bool,
        /// Wave start (`true`) or end (`false`).
        start: bool,
    },
    /// Jammer burst on/off.
    Jam {
        /// Burst starts (`true`) or ends (`false`).
        on: bool,
    },
    /// Noise-floor step on/off.
    Noise {
        /// Step starts (`true`) or ends (`false`).
        on: bool,
    },
}

/// Salt for the churn join-jitter draw (station → offset within the
/// join ramp).
const JOIN_SALT: u64 = 0x4A4F_494E; // "JOIN"
/// Salt for the churn leave-jitter draw.
const LEAVE_SALT: u64 = 0x4C45_4156; // "LEAV"

/// Live fault-injection state. `None` on the medium when faults are off
/// — every seam that consults it is a single `Option` check, keeping
/// faults-off runs byte-identical to a build without the subsystem.
pub(super) struct FaultState {
    /// The lowered fault schedule, as configured.
    pub(super) config: FaultConfig,
    /// Which APs are currently dark.
    pub(super) ap_down: Vec<bool>,
    /// When each dark AP went dark (valid while `ap_down[a]` holds;
    /// the reassociation rows measure recovery time against it).
    pub(super) ap_down_since: Vec<f64>,
    /// Cached `ap_down.iter().any()` — the roam path branches on it.
    pub(super) any_ap_down: bool,
    /// Churn joiners that have not joined yet: no kickoff, no port picks.
    pub(super) dormant: Vec<bool>,
    /// Churn leavers that have left: idle forever after.
    pub(super) left: Vec<bool>,
    /// Noise-floor rise currently applied to every link, dB (0 idle).
    pub(super) noise_delta_db: f64,
    /// Whether the jammer burst is currently on the air.
    pub(super) jammer_on: bool,
    /// Seed for the churn join/leave jitter draws.
    seed: u64,
}

impl FaultState {
    /// Idle state for `config` over `n` stations and `n_aps` APs: the
    /// churn joiners start dormant.
    pub(super) fn new(config: FaultConfig, n: usize, n_aps: usize, mac_seed: u64) -> Self {
        let mut dormant = vec![false; n];
        if let Some(ch) = config.churn {
            for d in dormant.iter_mut().skip(n.saturating_sub(ch.join_count)) {
                *d = true;
            }
        }
        FaultState {
            config,
            ap_down: vec![false; n_aps],
            ap_down_since: vec![0.0; n_aps],
            any_ap_down: false,
            dormant,
            left: vec![false; n],
            noise_delta_db: 0.0,
            jammer_on: false,
            seed: mix_seed(mac_seed, 0x4641_554C), // "FAUL"
        }
    }

    /// Pre-schedules every fault-lifecycle event of `n` stations. They
    /// ride the ordinary event queue, so they dispatch in exact global
    /// `(time, seq)` order relative to traffic.
    pub(super) fn schedule(&self, core: &mut Core, n: usize) {
        let c = self.config;
        let mut at = |t: f64, fev: FaultEv| {
            core.events
                .schedule(t, MacEv::Medium(SpatialEv::Fault(fev)));
        };
        if let Some(o) = c.ap_outage {
            at(o.at, FaultEv::ApDown { ap: o.ap });
            at(o.at + o.duration, FaultEv::ApUp { ap: o.ap });
        }
        if let Some(j) = c.jammer {
            at(j.at, FaultEv::Jam { on: true });
            at(j.at + j.duration, FaultEv::Jam { on: false });
        }
        if let Some(s) = c.noise_step {
            at(s.at, FaultEv::Noise { on: true });
            if let Some(d) = s.duration {
                at(s.at + d, FaultEv::Noise { on: false });
            }
        }
        let Some(ch) = c.churn else {
            return;
        };
        // The join wave (the last `join_count` stations), then the leave
        // wave (the first `leave_count`), each bracketed by its phase
        // markers.
        let waves = [
            (true, ch.join_count, ch.join_at, ch.join_ramp_s, JOIN_SALT),
            (
                false,
                ch.leave_count,
                ch.leave_at,
                ch.leave_ramp_s,
                LEAVE_SALT,
            ),
        ];
        for (join, count, start, ramp, salt) in waves {
            if count > 0 {
                at(start, FaultEv::ChurnPhase { join, start: true });
                let members = if join {
                    n.saturating_sub(count)..n
                } else {
                    0..count.min(n)
                };
                for st in members {
                    let u = hash_uniform(&[self.seed, salt, st as u64]);
                    let fev = if join {
                        FaultEv::Join { st }
                    } else {
                        FaultEv::Leave { st }
                    };
                    at(start + ramp * u, fev);
                }
                at(start + ramp, FaultEv::ChurnPhase { join, start: false });
            }
        }
    }
}

impl SpatialMedium {
    /// Dispatches one scheduled fault-lifecycle event. Every effect is a
    /// plain data write applied at dispatch time (exact global event
    /// order); none of them touch carrier sense or consume engine
    /// randomness.
    pub(super) fn on_fault_event(&mut self, core: &mut Core, fev: FaultEv) {
        let now = core.now();
        let n = self.params.n_stations;
        let fs = self
            .faults
            .as_mut()
            .expect("fault event implies fault state");
        let (fault, start, detail) = match fev {
            FaultEv::ApDown { ap } => {
                fs.ap_down[ap] = true;
                fs.ap_down_since[ap] = now;
                fs.any_ap_down = true;
                // Flag first, then drain: a drain-triggered retransmission
                // that wakes the dying AP is refused by `pick_port`.
                let dropped = match self.flows.as_mut() {
                    Some(fl) => fl.drop_queued(&self.stations, core, ap),
                    None => 0,
                };
                let detail = format!("ap={ap} dropped_queued={dropped}");
                ("ap_outage", true, detail)
            }
            FaultEv::ApUp { ap } => {
                fs.ap_down[ap] = false;
                fs.any_ap_down = fs.ap_down.iter().any(|&d| d);
                ("ap_outage", false, format!("ap={ap}"))
            }
            FaultEv::Join { st } => {
                if fs.dormant[st] {
                    fs.dormant[st] = false;
                    // Churn runs on the saturated-uplink workload
                    // (validated at construction): the joiner's first
                    // channel access starts here instead of at kickoff.
                    core.wake(st, st);
                }
                return;
            }
            FaultEv::Leave { st } => {
                // An in-flight frame resolves normally; `pick_port`
                // refuses every later access, so the sender goes idle.
                fs.left[st] = true;
                return;
            }
            FaultEv::ChurnPhase { join, start } => {
                let c = fs.config.churn.expect("churn phase implies churn config");
                if join {
                    ("churn_join", start, format!("join_count={}", c.join_count))
                } else {
                    (
                        "churn_leave",
                        start,
                        format!("leave_count={}", c.leave_count),
                    )
                }
            }
            FaultEv::Jam { on } => {
                fs.jammer_on = on;
                let j = fs.config.jammer.expect("jam event implies jammer config");
                let detail = format!("x={} y={} power_db={}", j.x, j.y, j.power_db);
                ("jammer", on, detail)
            }
            FaultEv::Noise { on } => {
                let s = fs
                    .config
                    .noise_step
                    .expect("noise event implies noise config");
                fs.noise_delta_db = if on { s.delta_db } else { 0.0 };
                ("noise_step", on, format!("delta_db={}", s.delta_db))
            }
        };
        if let Some(rec) = core.recorder.as_deref_mut() {
            rec.on_fault(now, fault, if start { "start" } else { "end" }, detail);
        }
        // A restarted AP serves whatever its members' downlink queues
        // accumulated while it was dark.
        if let (FaultEv::ApUp { ap }, Some(fl)) = (fev, &self.flows) {
            fl.wake_ap(core, n, ap);
        }
    }
}
