//! The multi-cell spatial network simulator.
//!
//! N stations spread over a grid of APs. Every BSS runs the same
//! 802.11-like DCF as the single-cell simulator — literally: the
//! backoff/feedback state machine is the shared
//! [`MacEngine`](softrate_sim::mac::MacEngine); this module contributes
//! [`SpatialMedium`], the environment where:
//!
//! * **Geometry decides everything.** Carrier sense is physical (a station
//!   defers when another transmitter is audible above a mean-SNR
//!   threshold), so hidden terminals and spatial reuse both *emerge* from
//!   positions rather than from a configured probability. A concurrent
//!   transmission corrupts a reception only when the
//!   signal-to-interference ratio at that receiver falls below the capture
//!   threshold — co-channel interference between overlapping cells, and
//!   clean parallel operation between distant ones.
//! * **Streaming channels.** Frame fates are drawn at transmit time from
//!   per-link [`StreamingLink`]s (Jakes fading + analytic SNR→BER + a
//!   SplitMix64 fate stream). No `LinkTrace` is ever materialized, so
//!   memory stays O(stations) regardless of duration.
//! * **Roaming.** Stations periodically re-evaluate mean RSSI and hand off
//!   to a stronger AP past a hysteresis, with the rate adapter's learned
//!   state either preserved or reset across the handoff (both policies are
//!   first-class, so their cost can be measured).
//! * **Pluggable transport.** The workload is a [`SpatialTraffic`]:
//!   either the native saturated-uplink-UDP fast path (zero queues,
//!   frames materialize on demand — byte-identical to the pre-transport
//!   subsystem), or any [`TransportLayer`] workload — TCP NewReno in
//!   both directions, queue-backed UDP download, bursty on–off sources —
//!   with per-station uplink *and* downlink links, AP transmitters, and
//!   flows that survive roaming handoffs (the TCP endpoints belong to the
//!   station, not to the AP it happens to be associated with).
//!
//! The collision *feedback* semantics reproduce §6.4 exactly as the
//! single-cell simulator does — structurally, because both run the same
//! engine over `softrate_sim::feedback`.

use std::collections::VecDeque;

use softrate_channel::analytic::{FrameSuccessMemo, OracleBands};
use softrate_core::adapter::{DecisionTrigger, RateAdapter, TxAttempt};
use softrate_sim::config::AdapterKind;
use softrate_sim::fault::{FaultConfig, FaultDriver, FaultLoss};
use softrate_sim::mac::{
    ActiveTx, AttemptInfo, HandoffRecord, MacCore, MacEngine, MacEv, MacParams, Medium,
    PhaseProfile, Port, RunReport,
};
use softrate_sim::timing::{data_airtime, rts_cts_overhead, CW_MIN, IP_TCP_HEADER};
use softrate_sim::transport::{
    Payload, TransportConfig, TransportEv, TransportHost, TransportLayer,
};
use softrate_telemetry::DecisionEvent;
use softrate_trace::schema::{hash_uniform, FrameFate};

use crate::channel::{fate_from_draw_memo, StreamingLink};
use crate::geometry::Point;
use crate::grid::{dist2, SenseIndex, TxEntry};
use crate::mobility::MobilityWalker;
use crate::spatial::{HandoffPolicy, SpatialError, SpatialParams, SpatialSpec};
use crate::stream::mix_seed;

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
    SaturatedUplinkUdp,
    /// A [`TransportLayer`] workload: TCP NewReno upload/download,
    /// queue-backed UDP in either direction, or the bursty on–off source.
    /// Adds per-station downlink links and AP transmitters; per-station
    /// flows survive roaming handoffs under both handoff policies.
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

/// One station's medium-side state (the rate adapter and retry state
/// live in the engine's matching [`Port`], the contention window in the
/// core's dense `cw` array).
struct Station {
    /// Associated AP.
    ap: usize,
    /// Association epoch (increments on every handoff; keys fate streams).
    epoch: u64,
    /// Streaming channel to the current AP (both directions: the fading
    /// field between two places is reciprocal, and the fate stream is
    /// shared — the single-threaded event loop makes interleaved draws
    /// deterministic).
    link: StreamingLink,
    /// Handoff decided while a frame was in flight; applied at outcome.
    pending_handoff: Option<usize>,
    delivered: u64,
}

/// Per-attempt data: the BSS, the receiver (an AP for uplink frames, a
/// station for downlink), the mean signal SNR at start, and the
/// transmitter's position at start (the grid key, and the anchor the
/// drift-padded pruning reasons from).
#[derive(Debug, Clone, Copy)]
struct SpatialTx {
    /// The BSS this transmission belongs to (receiver AP for uplink,
    /// transmitter AP for downlink).
    ap: usize,
    /// `None`: the receiver is AP `ap` (uplink). `Some(st)`: the receiver
    /// is station `st` (downlink).
    rx_station: Option<usize>,
    /// Mean (path-loss only) signal SNR at the receiver at start, dB.
    sig_snr_db: f64,
    /// Transmitter position at transmit start.
    start_pos: Point,
    /// What the frame carries (`Flows` mode; the saturated fast path's
    /// frames are all anonymous datagrams).
    payload: Payload,
    /// A jammer burst crushed this reception's SIR at transmit time
    /// (resolved as a [`FaultLoss::Jamming`] loss at the feedback
    /// window). Always `false` faults-off.
    jammed: bool,
}

/// Medium-specific events: periodic association re-evaluation, plus the
/// transport layer's timers and wired deliveries (`Flows` mode only).
#[derive(Debug, Clone, Copy)]
enum SpatialEv {
    /// Association re-evaluation for one station.
    Roam {
        /// The station.
        st: usize,
    },
    /// A transport-layer event.
    Transport(TransportEv),
    /// A fault-lifecycle event (`softrate-faults`).
    Fault(FaultEv),
}

/// One scheduled fault-lifecycle event. All of them are pre-scheduled at
/// kickoff into the ordinary event queue, so they dispatch in exact
/// global `(time, seq)` order with the traffic.
#[derive(Debug, Clone, Copy)]
enum FaultEv {
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
struct FaultState {
    /// The lowered fault schedule, as configured.
    config: FaultConfig,
    /// Which APs are currently dark.
    ap_down: Vec<bool>,
    /// When each dark AP went dark (valid while `ap_down[a]` holds;
    /// the reassociation rows measure recovery time against it).
    ap_down_since: Vec<f64>,
    /// Cached `ap_down.iter().any()` — the roam path branches on it.
    any_ap_down: bool,
    /// Churn joiners that have not joined yet: no kickoff, no port picks.
    dormant: Vec<bool>,
    /// Churn leavers that have left: idle forever after.
    left: Vec<bool>,
    /// Noise-floor rise currently applied to every link, dB (0 idle).
    noise_delta_db: f64,
    /// Whether the jammer burst is currently on the air.
    jammer_on: bool,
    /// Seed for the churn join/leave jitter draws.
    seed: u64,
}

type Core = MacCore<SpatialEv, SpatialTx>;

/// The `t` sentinel that can never equal a real query time's bits (the
/// event loop never produces NaN timestamps), marking memo slots empty.
const NO_TIME: u64 = u64::MAX; // f64::NAN bit patterns vary; u64::MAX is one of them

/// The flow-mode wireless fabric: MAC queues for both directions plus the
/// shared transport layer above them.
///
/// Link/port ids: `s` in `0..n` is station `s`'s uplink (station → its
/// current AP); `n + s` is its downlink (current AP → station). Sender
/// ids: `0..n` are stations, `n + a` is AP `a`. A station's downlink
/// queue belongs to whichever AP it is associated with *right now* — a
/// handoff re-homes the queue (and its in-flight TCP state) wholesale,
/// which is what lets flows survive roaming.
struct FlowNet {
    transport: TransportLayer,
    /// MAC queue per link (uplinks then downlinks).
    queues: Vec<VecDeque<Payload>>,
    /// Stations currently associated with each AP (downlink service set).
    ap_members: Vec<Vec<usize>>,
    /// Per-AP round-robin cursor over its members.
    ap_rr: Vec<usize>,
    /// Whether each port has a frame on the air or awaiting its feedback
    /// window. A handoff can re-home a downlink queue while its front is
    /// in flight from the old AP; `pick_port` skips in-flight ports so
    /// the queue front is never served by two transmitters at once.
    port_inflight: Vec<bool>,
    /// The port each sender's current (or last) attempt left from —
    /// `after_outcome` uses it to clear the in-flight flag and to wake
    /// the port's new owner when a handoff re-homed it mid-flight.
    sender_port: Vec<usize>,
}

/// The [`TransportHost`] over the spatial medium: queue surface plus
/// sender pokes (a frame landing on an idle sender's queue schedules its
/// channel access).
struct SpatialHost<'a> {
    queues: &'a mut [VecDeque<Payload>],
    stations: &'a [Station],
    core: &'a mut Core,
    n: usize,
}

impl TransportHost for SpatialHost<'_> {
    fn now(&self) -> f64 {
        self.core.now()
    }

    fn queue_len(&self, link: usize) -> usize {
        self.queues[link].len()
    }

    fn enqueue(&mut self, link: usize, payload: Payload) {
        self.queues[link].push_back(payload);
        self.core.lanes.queue_depth[link] = self.queues[link].len() as u32;
        if self.core.recorder.is_some() {
            let station = station_of_port(self.n, link);
            let depth = self.queues[link].len();
            let now = self.core.now();
            if let Some(rec) = self.core.recorder.as_deref_mut() {
                rec.on_enqueue(now, station, depth);
            }
        }
        let sender = if link < self.n {
            link
        } else {
            self.n + self.stations[link - self.n].ap
        };
        if !self.core.lanes.busy[sender] && !self.core.lanes.start_pending[sender] {
            let cw = self.core.lanes.cw[link];
            self.core.schedule_tx_start(sender, None, cw);
        }
    }

    fn schedule_in(&mut self, delay: f64, ev: TransportEv) {
        self.core
            .events
            .schedule_in(delay, MacEv::Medium(SpatialEv::Transport(ev)));
    }

    fn recorder(&mut self) -> Option<&mut softrate_telemetry::Recorder> {
        self.core.recorder.as_deref_mut()
    }
}

/// Squared-distance bands for the sensing threshold, so carrier sense
/// classifies a candidate without the path-loss expression almost always.
#[derive(Debug, Clone, Copy)]
struct SenseBands {
    /// Certainly-audible / certainly-inaudible radii squared
    /// (`range_band(sense_snr_db)`), against a current position: the
    /// exact expression runs only in the vanishing band between them.
    lo2: f64,
    hi2: f64,
    /// The same bands widened by the drift pad, valid against a
    /// transmitter's *insert-time* position: inside `lo_ins2` it is
    /// audible wherever it drifted to; outside `hi_ins2` it is inaudible
    /// wherever it drifted to. Between them the current position decides
    /// (a band a few centimeters wide — almost never entered).
    lo_ins2: f64,
    hi_ins2: f64,
}

impl SenseBands {
    /// Whether the transmission behind `e` is audible at `pos` — the
    /// identical verdict to `snr_between(current tx position, pos) >=
    /// sense_snr_db`. `tx_pos` supplies the current position and runs
    /// only inside the insert-position band.
    #[inline]
    fn audible(
        &self,
        params: &SpatialParams,
        e: &TxEntry,
        pos: Point,
        tx_pos: impl FnOnce() -> Point,
    ) -> bool {
        let d2_ins = dist2(e.pos, pos);
        if d2_ins <= self.lo_ins2 {
            return true;
        }
        if d2_ins >= self.hi_ins2 {
            return false;
        }
        let tpos = tx_pos();
        let d2 = dist2(tpos, pos);
        d2 <= self.lo2 || (d2 < self.hi2 && params.snr_between(tpos, pos) >= params.sense_snr_db)
    }
}

/// Position of station `st` at `t` through the per-station `(t bits,
/// position)` memo over its resumable walker.
fn memo_pos(
    pos_cache: &mut [(u64, Point)],
    walkers: &mut [MobilityWalker],
    params: &SpatialParams,
    st: usize,
    t: f64,
) -> Point {
    let bits = t.to_bits();
    let (cached, p) = pos_cache[st];
    if cached == bits {
        return p;
    }
    let p = walkers[st].position(&params.mobility, &params.bounds, t);
    pos_cache[st] = (bits, p);
    p
}

/// The multi-cell geometric environment with streaming channels.
///
/// Its hot passes run on an exact-semantics fast path (DESIGN.md §7):
/// conservative pruning radii inverted from the path-loss model, a
/// carrier-sense index over active transmitters, and per-event memo caches for
/// positions, station→AP SNRs, and fading envelopes. Every skipped
/// candidate provably fails the exact check it skipped, and every cache
/// hit returns the bit-identical value a fresh evaluation would — the
/// unregenerated goldens in `tests/goldens/` pin that end to end.
struct SpatialMedium {
    cfg: SpatialConfig,
    params: SpatialParams,
    stations: Vec<Station>,
    /// Per-station resumable mobility cursors (amortized O(1) positions).
    walkers: Vec<MobilityWalker>,
    /// `Flows`-mode state; `None` on the saturated-uplink fast path.
    flows: Option<FlowNet>,
    /// Active transmitters, listed end-descending per cell of every
    /// transmit-start position within `sense_hi_ins` of the cell.
    sense: SenseIndex,
    /// Index entries carrier sense has examined (the host-independent
    /// work count behind [`PhaseProfile::sense_candidates`]).
    sense_candidates: u64,
    /// The sensing threshold's squared-distance bands.
    bands: SenseBands,
    /// Conservative radius beyond which interference is below the 0 dB
    /// noise floor: `range_for_threshold(0.0)`.
    interference_radius_m: f64,
    /// Maximum distance a station can drift while its frame is on the air
    /// (mobility speed × slowest-rate airtime, padded) — added to every
    /// radius compared against a transmit-*start* position.
    drift_pad_m: f64,
    /// Per-station `(t bits, position)` memo.
    pos_cache: Vec<(u64, Point)>,
    /// Per-station `(t bits, ap, mean SNR)` memo — one slot per station
    /// rather than a station×AP matrix, so memory stays O(stations) on
    /// ladder-scale floors (100k stations × 625 APs would be a gigabyte).
    /// Value-transparent: a miss recomputes the identical value.
    snr_ap_cache: Vec<(u64, u32, f64)>,
    /// Per-station `(epoch, t bits, envelope dB)` memo.
    env_cache: Vec<(u64, u64, f64)>,
    /// Shared memo over the analytic BER/success kernels.
    fs_memo: FrameSuccessMemo,
    /// The omniscient oracle as exact threshold compares.
    oracle: OracleBands,
    /// Scratch: per-AP "the new transmitter is within interference range
    /// of this AP" flags (reused).
    ap_near: Vec<bool>,
    /// Live fault-injection state (`None` faults-off).
    faults: Option<FaultState>,
    // statistics
    inter_cell_corruptions: u64,
    handoffs: u64,
    initial_assoc: Vec<usize>,
    handoff_log: Vec<HandoffRecord>,
}

impl SpatialMedium {
    /// The link's fading process is keyed by its endpoints only (a
    /// physical field between two places); the fate stream additionally by
    /// the association epoch, so re-associating never replays coin flips.
    fn make_link(&self, st: usize, ap: usize, epoch: u64) -> StreamingLink {
        let pair = mix_seed(self.cfg.seed ^ 0x4C49_4E4B, ((st as u64) << 20) | ap as u64);
        StreamingLink::new(pair, mix_seed(pair, 0xFA7E ^ epoch), self.params.doppler_hz)
    }

    /// Position of station `st` at `t`: the per-event memo over the
    /// resumable walker (identical to `params.station_pos`).
    fn pos_at(&mut self, st: usize, t: f64) -> Point {
        memo_pos(&mut self.pos_cache, &mut self.walkers, &self.params, st, t)
    }

    /// Position of transmitter `sender` at `t`: a walking station, or a
    /// fixed AP (`Flows`-mode senders `n..n + n_aps`).
    fn tx_pos(&mut self, sender: usize, t: f64) -> Point {
        if sender < self.params.n_stations {
            self.pos_at(sender, t)
        } else {
            self.params.aps[sender - self.params.n_stations]
        }
    }

    /// Mean SNR between station `st` (at `t`) and AP `ap`: the ordered-
    /// pair memo over `params.snr_between` (APs never move, so the pair
    /// key is `(station, ap)` and the freshness key is `t`).
    fn snr_to_ap(&mut self, st: usize, ap: usize, t: f64) -> f64 {
        let bits = t.to_bits();
        let (cached, cached_ap, v) = self.snr_ap_cache[st];
        if cached == bits && cached_ap == ap as u32 {
            return v;
        }
        let pos = self.pos_at(st, t);
        let v = self.params.snr_between(pos, self.params.aps[ap]);
        self.snr_ap_cache[st] = (bits, ap as u32, v);
        v
    }

    /// Mean SNR of transmitter `sender` heard at AP `ap` at `t`: the
    /// memoized station→AP path for stations, the (static) AP→AP path for
    /// `Flows`-mode AP transmitters.
    fn snr_sender_to_ap(&mut self, sender: usize, ap: usize, t: f64) -> f64 {
        if sender < self.params.n_stations {
            self.snr_to_ap(sender, ap, t)
        } else {
            let from = self.params.aps[sender - self.params.n_stations];
            self.params.snr_between(from, self.params.aps[ap])
        }
    }

    /// Fading envelope of `st`'s current link at `t`, dB — memoized so
    /// the oracle audit at transmit time and the fate draw at the
    /// feedback window share one Jakes evaluation. Keyed by association
    /// epoch (a handoff swaps the fading process).
    fn env_at(&mut self, st: usize, t: f64) -> f64 {
        let bits = t.to_bits();
        let epoch = self.stations[st].epoch;
        let (e, cached, v) = self.env_cache[st];
        if e == epoch && cached == bits {
            return v;
        }
        let v = self.stations[st].link.envelope_db(t);
        self.env_cache[st] = (epoch, bits, v);
        v
    }

    /// The station whose link a port serves (uplink ports are the station
    /// id; downlink ports are offset by the station count).
    fn station_of_port(&self, port: usize) -> usize {
        station_of_port(self.params.n_stations, port)
    }

    /// Carrier sense over the sensing station's index list: entries run
    /// end-descending, so the first audible one carries the maximal end
    /// and the walk stops there.
    fn sense_at(&mut self, sender: usize, pos: Point, now: f64) -> Option<f64> {
        let SpatialMedium {
            sense,
            bands,
            params,
            pos_cache,
            walkers,
            sense_candidates,
            ..
        } = self;
        let n = params.n_stations;
        let list = sense.list_at(pos);
        let hit = list.iter().position(|e| {
            e.sender != sender
                && bands.audible(params, e, pos, || match e.sender.checked_sub(n) {
                    None => memo_pos(pos_cache, walkers, params, e.sender, now),
                    Some(ap) => params.aps[ap],
                })
        });
        *sense_candidates += hit.map_or(list.len(), |i| i + 1) as u64;
        hit.map(|i| list[i].end)
    }

    /// The physics [`SpatialMedium::sense_at`] must reproduce, with none
    /// of its pruning: the latest end over every foreign transmitter
    /// whose current position is heard at or above the sensing threshold.
    #[cfg(test)]
    fn sense_by_scan(&self, core: &Core, sender: usize, now: f64) -> Option<f64> {
        let p = &self.params;
        let at = |s: usize| match s.checked_sub(p.n_stations) {
            None => p.station_pos(self.cfg.seed, s, now),
            Some(ap) => p.aps[ap],
        };
        let pos = at(sender);
        core.active
            .iter()
            .filter(|tx| tx.sender != sender && p.snr_between(at(tx.sender), pos) >= p.sense_snr_db)
            .map(|tx| tx.end)
            .reduce(f64::max)
    }

    fn make_adapter(&self, st: usize) -> Box<dyn RateAdapter> {
        // The omniscient oracle needs the station's *current* link, which
        // changes at handoff; the medium injects the rate at transmit time
        // instead (see `begin_attempt`), so the closure here is never the
        // source of truth.
        self.cfg.adapter.build_with_oracle(
            self.cfg.frame_bits(),
            self.cfg.payload_bytes,
            mix_seed(self.cfg.mac_seed ^ 0xADA7, st as u64),
            Box::new(|_| 0),
        )
    }

    /// The downlink (AP → station) adapter for station `st`'s flow
    /// (`Flows` mode only; distinct seed salt so uplink and downlink
    /// tie-breaks are independent).
    fn make_downlink_adapter(&self, st: usize) -> Box<dyn RateAdapter> {
        self.cfg.adapter.build_with_oracle(
            self.cfg.frame_bits(),
            self.cfg.payload_bytes,
            mix_seed(self.cfg.mac_seed ^ 0xADA7_D04E, st as u64),
            Box::new(|_| 0),
        )
    }

    fn apply_handoff(&mut self, core: &mut Core, st: usize, to: usize, now: f64) {
        let from = self.stations[st].ap;
        if from == to {
            return;
        }
        let epoch = self.stations[st].epoch + 1;
        self.stations[st].ap = to;
        self.stations[st].epoch = epoch;
        self.stations[st].link = self.make_link(st, to, epoch);
        let reset = matches!(self.params.roaming, Some((_, _, HandoffPolicy::Reset)));
        if reset {
            core.ports[st].adapter = self.make_adapter(st);
        }
        core.lanes.retries[st] = 0;
        core.lanes.cw[st] = CW_MIN;
        // Flow-mode bookkeeping: the downlink queue (and the flow's TCP
        // state with it) re-homes to the new AP; the downlink adapter
        // follows the handoff policy like the uplink one.
        let n = self.params.n_stations;
        if self.flows.is_some() {
            if reset {
                core.ports[n + st].adapter = self.make_downlink_adapter(st);
            }
            core.lanes.retries[n + st] = 0;
            core.lanes.cw[n + st] = CW_MIN;
        }
        if let Some(fl) = self.flows.as_mut() {
            fl.ap_members[from].retain(|&m| m != st);
            fl.ap_members[to].push(st);
            // Wake the new AP if the re-homed downlink queue has frames
            // (the old AP no longer serves it; without a poke a pure
            // download flow would stall until unrelated traffic arrives).
            // Not while the old AP still has a frame of this port on the
            // air or awaiting feedback: the queue front belongs to that
            // transmission, and serving it twice would desync the queue
            // (`after_outcome` wakes the new owner when it resolves).
            let ap_sender = n + to;
            if !fl.port_inflight[n + st]
                && !fl.queues[n + st].is_empty()
                && !core.lanes.busy[ap_sender]
                && !core.lanes.start_pending[ap_sender]
            {
                let cw = core.lanes.cw[n + st];
                core.schedule_tx_start(ap_sender, None, cw);
            }
        }
        self.handoffs += 1;
        self.handoff_log.push(HandoffRecord {
            t: now,
            station: st,
            from,
            to,
        });
        if let Some(rec) = core.recorder.as_deref_mut() {
            rec.on_handoff(now, st);
        }
        // A station fleeing a dark AP is the resilience headline: record
        // its time-to-reassociate against the outage start.
        if let Some(fs) = &self.faults {
            if fs.ap_down[from] {
                if let Some(rec) = core.recorder.as_deref_mut() {
                    rec.on_reassoc(now, st, from, to, now - fs.ap_down_since[from]);
                }
            }
        }
        // Decision ledger: a handoff is a rate-adaptation event. Under
        // Preserve the adapter carries its state to the new AP — one
        // marker row per affected port, rate unchanged. Under Reset the
        // adapter was rebuilt; the engine files the resulting rate under
        // `handoff_reset` at the port's next transmission (the fresh
        // adapter's choice isn't observable here without perturbing it).
        if core.ledger.ctx.is_enabled() {
            let mut ports = vec![st];
            if self.flows.is_some() {
                ports.push(n + st);
            }
            for port in ports {
                if reset {
                    core.lanes.handoff_reset[port] = true;
                    continue;
                }
                let Some(rate) = core.lanes.last_rate[port] else {
                    continue; // never transmitted: nothing to mark
                };
                let adapter = core.ports[port].adapter.name();
                if let Some(rec) = core.recorder.as_deref_mut() {
                    rec.on_decision(
                        now,
                        DecisionEvent {
                            station: st,
                            port,
                            adapter,
                            old_rate: rate,
                            new_rate: rate,
                            trigger: DecisionTrigger::HandoffPreserve.name(),
                            snr_db: None,
                            ber: None,
                            reason: "ap-change",
                        },
                    );
                }
            }
        }
    }

    /// Applies `st`'s deferred handoff once neither of its links has a
    /// frame in flight (the station's own sender idle, and — in `Flows`
    /// mode — no downlink frame of its port on the air or awaiting
    /// feedback): every launched attempt resolves against the link state
    /// it was launched on before the association changes underneath it.
    fn try_apply_pending_handoff(&mut self, core: &mut Core, st: usize) {
        if self.stations[st].pending_handoff.is_none() || core.lanes.busy[st] {
            return;
        }
        let n = self.params.n_stations;
        if self
            .flows
            .as_ref()
            .is_some_and(|fl| fl.port_inflight[n + st])
        {
            return;
        }
        let to = self.stations[st].pending_handoff.take().expect("checked");
        let now = core.now();
        self.apply_handoff(core, st, to, now);
    }

    /// AP death: its members' queued downlink frames are lost, with full
    /// accounting — the transport hears about every drop (TCP reacts with
    /// its ordinary loss machinery) and the count lands in the fault row.
    /// The in-flight queue front (a frame already on the air) is left for
    /// the MAC to resolve; it lands as an `outage` loss with the AP dark.
    /// The transport's reaction may legally re-enqueue (a retransmission);
    /// the drop count is taken up front so those new frames wait for the
    /// AP to return instead of dying with it.
    fn drop_downlink_queues(&mut self, core: &mut Core, ap: usize) -> u64 {
        let n = self.params.n_stations;
        if self.flows.is_none() {
            return 0;
        }
        let members: Vec<usize> = self.flows.as_ref().expect("checked").ap_members[ap].clone();
        let mut dropped = 0u64;
        for st in members {
            let port = n + st;
            let fl = self.flows.as_mut().expect("checked");
            let protected = if fl.port_inflight[port] {
                fl.queues[port].pop_front()
            } else {
                None
            };
            let mut to_drop = fl.queues[port].len();
            while to_drop > 0 {
                to_drop -= 1;
                dropped += 1;
                let fl = self.flows.as_mut().expect("checked");
                fl.queues[port].pop_front();
                let FlowNet {
                    transport, queues, ..
                } = fl;
                let mut host = SpatialHost {
                    queues: &mut *queues,
                    stations: &self.stations,
                    core: &mut *core,
                    n,
                };
                transport.on_frame_dropped(&mut host, st);
            }
            if let Some(p) = protected {
                self.flows.as_mut().expect("checked").queues[port].push_front(p);
            }
            core.lanes.queue_depth[port] =
                self.flows.as_ref().expect("checked").queues[port].len() as u32;
        }
        dropped
    }

    /// An AP restart: poke the returned transmitter if any member's
    /// downlink queue accumulated frames while it was dark.
    fn wake_ap(&mut self, core: &mut Core, ap: usize) {
        let n = self.params.n_stations;
        let Some(fl) = self.flows.as_ref() else {
            return;
        };
        let sender = n + ap;
        if core.lanes.busy[sender] || core.lanes.start_pending[sender] {
            return;
        }
        for &st in &fl.ap_members[ap] {
            if !fl.queues[n + st].is_empty() && !fl.port_inflight[n + st] {
                let cw = core.lanes.cw[n + st];
                core.schedule_tx_start(sender, None, cw);
                return;
            }
        }
    }

    /// Dispatches one scheduled fault-lifecycle event. Every effect is a
    /// plain data write applied at dispatch time (exact global event
    /// order); none of them touch carrier sense or consume engine
    /// randomness.
    fn on_fault_event(&mut self, core: &mut Core, fev: FaultEv) {
        let now = core.now();
        match fev {
            FaultEv::ApDown { ap } => {
                {
                    let fs = self
                        .faults
                        .as_mut()
                        .expect("fault event implies fault state");
                    fs.ap_down[ap] = true;
                    fs.ap_down_since[ap] = now;
                    fs.any_ap_down = true;
                }
                // Flag first, then drain: a drain-triggered retransmission
                // that wakes the dying AP is refused by `pick_port`.
                let dropped = self.drop_downlink_queues(core, ap);
                if let Some(rec) = core.recorder.as_deref_mut() {
                    rec.on_fault(
                        now,
                        "ap_outage",
                        "start",
                        format!("ap={ap} dropped_queued={dropped}"),
                    );
                }
            }
            FaultEv::ApUp { ap } => {
                let fs = self
                    .faults
                    .as_mut()
                    .expect("fault event implies fault state");
                fs.ap_down[ap] = false;
                fs.any_ap_down = fs.ap_down.iter().any(|&d| d);
                if let Some(rec) = core.recorder.as_deref_mut() {
                    rec.on_fault(now, "ap_outage", "end", format!("ap={ap}"));
                }
                self.wake_ap(core, ap);
            }
            FaultEv::Join { st } => {
                let fs = self
                    .faults
                    .as_mut()
                    .expect("fault event implies fault state");
                if !fs.dormant[st] {
                    return;
                }
                fs.dormant[st] = false;
                // Churn runs on the saturated-uplink workload (validated
                // at construction): the joiner's first channel access
                // starts here instead of at kickoff.
                if !core.lanes.busy[st] && !core.lanes.start_pending[st] {
                    let cw = core.lanes.cw[st];
                    core.schedule_tx_start(st, None, cw);
                }
            }
            FaultEv::Leave { st } => {
                let fs = self
                    .faults
                    .as_mut()
                    .expect("fault event implies fault state");
                fs.left[st] = true;
                // An in-flight frame resolves normally; `pick_port`
                // refuses every later access, so the sender goes idle.
            }
            FaultEv::ChurnPhase { join, start } => {
                let c = self
                    .faults
                    .as_ref()
                    .and_then(|f| f.config.churn)
                    .expect("churn phase implies churn config");
                let (label, detail) = if join {
                    ("churn_join", format!("join_count={}", c.join_count))
                } else {
                    ("churn_leave", format!("leave_count={}", c.leave_count))
                };
                if let Some(rec) = core.recorder.as_deref_mut() {
                    rec.on_fault(now, label, if start { "start" } else { "end" }, detail);
                }
            }
            FaultEv::Jam { on } => {
                let fs = self
                    .faults
                    .as_mut()
                    .expect("fault event implies fault state");
                fs.jammer_on = on;
                let j = fs.config.jammer.expect("jam event implies jammer config");
                if let Some(rec) = core.recorder.as_deref_mut() {
                    rec.on_fault(
                        now,
                        "jammer",
                        if on { "start" } else { "end" },
                        format!("x={} y={} power_db={}", j.x, j.y, j.power_db),
                    );
                }
            }
            FaultEv::Noise { on } => {
                let fs = self
                    .faults
                    .as_mut()
                    .expect("fault event implies fault state");
                let s = fs
                    .config
                    .noise_step
                    .expect("noise event implies noise config");
                fs.noise_delta_db = if on { s.delta_db } else { 0.0 };
                if let Some(rec) = core.recorder.as_deref_mut() {
                    rec.on_fault(
                        now,
                        "noise_step",
                        if on { "start" } else { "end" },
                        format!("delta_db={}", s.delta_db),
                    );
                }
            }
        }
    }
}

impl Medium for SpatialMedium {
    type Event = SpatialEv;
    type TxInfo = SpatialTx;

    fn kickoff(&mut self, core: &mut Core) {
        let n = self.params.n_stations;
        // Pre-schedule every fault-lifecycle event. They ride the
        // ordinary event queue, so they dispatch in exact global
        // `(time, seq)` order relative to traffic.
        if let Some(fs) = &self.faults {
            let c = fs.config;
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
            if let Some(ch) = c.churn {
                if ch.join_count > 0 {
                    at(
                        ch.join_at,
                        FaultEv::ChurnPhase {
                            join: true,
                            start: true,
                        },
                    );
                    for s in n.saturating_sub(ch.join_count)..n {
                        let u = hash_uniform(&[fs.seed, JOIN_SALT, s as u64]);
                        at(ch.join_at + ch.join_ramp_s * u, FaultEv::Join { st: s });
                    }
                    at(
                        ch.join_at + ch.join_ramp_s,
                        FaultEv::ChurnPhase {
                            join: true,
                            start: false,
                        },
                    );
                }
                if ch.leave_count > 0 {
                    at(
                        ch.leave_at,
                        FaultEv::ChurnPhase {
                            join: false,
                            start: true,
                        },
                    );
                    for s in 0..ch.leave_count.min(n) {
                        let u = hash_uniform(&[fs.seed, LEAVE_SALT, s as u64]);
                        at(ch.leave_at + ch.leave_ramp_s * u, FaultEv::Leave { st: s });
                    }
                    at(
                        ch.leave_at + ch.leave_ramp_s,
                        FaultEv::ChurnPhase {
                            join: false,
                            start: false,
                        },
                    );
                }
            }
        }
        match self.flows.as_mut() {
            None => {
                // Saturated uplink: slight stagger so the whole floor
                // doesn't draw backoff at the exact same instant. Churn
                // joiners stay dormant; their `Join` event kicks them.
                let stagger = self.cfg.kickoff_stagger_s;
                for s in 0..n {
                    if self.faults.as_ref().is_some_and(|f| f.dormant[s]) {
                        continue;
                    }
                    let cw = core.lanes.cw[s];
                    core.schedule_tx_start(s, Some(s as f64 * stagger), cw);
                }
            }
            Some(fl) => {
                // Flow traffic: the transport schedules its own staggered
                // kicks and primes the queues (whose enqueues wake the
                // senders).
                let FlowNet {
                    transport, queues, ..
                } = fl;
                let mut host = SpatialHost {
                    queues,
                    stations: &self.stations,
                    core,
                    n,
                };
                transport.kickoff(&mut host);
            }
        }
        if let Some((_, interval, _)) = self.params.roaming {
            for s in 0..n {
                let first = interval * (1.0 + s as f64 / n as f64);
                core.events
                    .schedule(first, MacEv::Medium(SpatialEv::Roam { st: s }));
            }
        }
    }

    /// Saturated uplink: every station always has a frame for its AP.
    /// Flow traffic: stations serve their uplink queue; APs round-robin
    /// over their associated stations' downlink queues.
    fn pick_port(&mut self, sender: usize) -> Option<usize> {
        let n = self.params.n_stations;
        if let Some(fs) = &self.faults {
            // Dormant joiners and departed leavers never transmit; a
            // dark AP transmits nothing (its queues drained at death,
            // and whatever re-accumulates waits for the restart).
            if sender < n {
                if fs.dormant[sender] || fs.left[sender] {
                    return None;
                }
            } else if fs.ap_down[sender - n] {
                return None;
            }
        }
        match &self.flows {
            None => Some(sender),
            Some(fl) => {
                // A port whose frame is on the air (or awaiting feedback)
                // is never picked — after a mid-flight handoff the new AP
                // must not serve the queue front the old AP still carries.
                if sender < n {
                    (!fl.queues[sender].is_empty() && !fl.port_inflight[sender]).then_some(sender)
                } else {
                    let a = sender - n;
                    let members = &fl.ap_members[a];
                    let m = members.len();
                    for k in 0..m {
                        let st = members[(fl.ap_rr[a] + k) % m];
                        if !fl.queues[n + st].is_empty() && !fl.port_inflight[n + st] {
                            return Some(n + st);
                        }
                    }
                    None
                }
            }
        }
    }

    /// Physical carrier sense: defer while any foreign transmitter is
    /// audible above the sensing threshold.
    ///
    /// Fast path: an idle medium returns immediately; otherwise the pass
    /// visits only candidates the pruning radii admit and classifies
    /// audibility by squared distance (exact path-loss math only inside
    /// the guard bands). The result — the max end time over exactly the
    /// audible set — is unchanged.
    fn carrier_sense(&mut self, core: &Core, sender: usize) -> Option<f64> {
        if core.active.is_empty() {
            // Idle medium: nothing can be sensed, and nothing is worth
            // computing (the attempt hooks fetch positions on demand).
            return None;
        }
        let now = core.now();
        let pos = self.tx_pos(sender, now);
        let sensed = self.sense_at(sender, pos, now);
        #[cfg(test)]
        assert_eq!(
            sensed,
            self.sense_by_scan(core, sender, now),
            "sender {sender} at t={now}: the sense index disagrees with a full scan"
        );
        sensed
    }

    fn begin_attempt(
        &mut self,
        sender: usize,
        port: usize,
        now: f64,
        attempt: &mut TxAttempt,
    ) -> AttemptInfo<SpatialTx> {
        let n = self.params.n_stations;
        let st = self.station_of_port(port);
        let ap = self.stations[st].ap;
        // Mean SNR, envelope, and oracle all come from the per-event
        // memos; the AP↔station path is reciprocal, so the downlink
        // reuses the uplink's memoized values for the same instant.
        let mut sig_snr_db = self.snr_to_ap(st, ap, now);
        if let Some(fs) = &self.faults {
            // A noise-floor step shaves margin off every link — the
            // oracle's included, since the channel really did get worse.
            sig_snr_db -= fs.noise_delta_db;
        }
        let env_db = self.env_at(st, now);
        let oracle_rate = self.oracle.best_rate(sig_snr_db + env_db);
        if matches!(self.cfg.adapter, AdapterKind::Omniscient) {
            attempt.rate_idx = oracle_rate;
        }
        let start_pos = self.tx_pos(sender, now);
        let mut jammed = false;
        if let Some(j) = self
            .faults
            .as_ref()
            .filter(|f| f.jammer_on)
            .and_then(|f| f.config.jammer)
        {
            // The burst corrupts any reception whose signal-to-jammer
            // ratio at the receiver falls below the capture threshold —
            // the same SIR rule concurrent 802.11 transmitters obey. The
            // verdict is fixed at transmit time (data, not sensing), so
            // it never changes what carrier sense observes.
            let rx_pos = if port < n {
                self.params.aps[ap]
            } else {
                self.pos_at(st, now)
            };
            let jam_db = self.params.snr_between(Point { x: j.x, y: j.y }, rx_pos) + j.power_db;
            jammed = jam_db >= 0.0 && sig_snr_db - jam_db < self.params.capture_sir_db;
        }
        let (payload, rx_station) = match self.flows.as_mut() {
            None => (Payload::Segment(0), None),
            Some(fl) => {
                let payload = *fl.queues[port].front().expect("picked link has a frame");
                fl.port_inflight[port] = true;
                fl.sender_port[sender] = port;
                (payload, (port >= n).then_some(st))
            }
        };
        let is_segment = payload.is_segment();
        let payload_bytes = match &self.flows {
            None => self.cfg.payload_bytes,
            Some(fl) => fl.transport.payload_bytes(payload),
        };
        AttemptInfo {
            payload_bytes,
            counts_as_data: is_segment,
            // Audit data frames against the instantaneous analytic oracle.
            audit_best: is_segment.then_some(oracle_rate),
            timeline: false,
            info: SpatialTx {
                ap,
                rx_station,
                sig_snr_db,
                start_pos,
                payload,
                jammed,
            },
        }
    }

    /// Resolve fault-injected losses at the feedback window: a dark AP's
    /// BSS hears nothing (uplink receptions and the AP's own mid-flight
    /// downlink frame alike), and a jammer burst kills receptions whose
    /// SIR it crushed. Runs after [`Medium::fate`] — the channel coin was
    /// already drawn — and consumes no randomness itself, so fault
    /// precedence never shifts the fate stream.
    fn fault_loss(&mut self, tx: &ActiveTx<SpatialTx>) -> Option<FaultLoss> {
        let fs = self.faults.as_ref()?;
        if fs.ap_down[tx.info.ap] {
            return Some(FaultLoss::Outage);
        }
        if tx.info.jammed {
            return Some(FaultLoss::Jamming);
        }
        None
    }

    /// Interference bookkeeping: a concurrent transmission corrupts a
    /// reception only when the interferer's power at that receiver leaves
    /// less than `capture_sir_db` of margin. RTS-protected frames reserved
    /// the medium and neither corrupt nor get corrupted (as in the
    /// single-cell medium).
    ///
    /// Fast path: both corruption directions demand the interferer's mean
    /// SNR at the victim's receiver to clear the 0 dB noise floor, so any
    /// pair separated by more than the interference radius (drift-padded
    /// when the anchor is a transmit-start position) is skipped before the
    /// SNR math — it provably cannot corrupt. The engine pushes `tx` onto
    /// the active set right after this hook, so the grid insert lives
    /// here.
    fn mark_collisions(
        &mut self,
        tx: &mut ActiveTx<SpatialTx>,
        active: &mut [ActiveTx<SpatialTx>],
    ) {
        let entry = TxEntry {
            sender: tx.sender,
            pos: tx.info.start_pos,
            end: tx.end,
        };
        self.sense.insert(entry);
        if tx.use_rts {
            return;
        }
        let now = tx.start;
        let my_pos = tx.info.start_pos;
        // My receiver's position: the BSS AP (uplink) or the destination
        // station right now (downlink).
        let my_rx_pos = match tx.info.rx_station {
            None => self.params.aps[tx.info.ap],
            Some(st) => self.pos_at(st, now),
        };
        let r_int2 = self.interference_radius_m * self.interference_radius_m;
        let r_int_drift = self.interference_radius_m + self.drift_pad_m;
        let r_int_drift2 = r_int_drift * r_int_drift;

        // Which APs can the *new* transmitter possibly interfere at? Its
        // position is exact (no drift pad); one squared distance per AP.
        let mut ap_near = std::mem::take(&mut self.ap_near);
        ap_near.clear();
        ap_near.extend(self.params.aps.iter().map(|&a| dist2(my_pos, a) <= r_int2));

        #[allow(clippy::needless_range_loop)] // `active[i]` is re-borrowed mutably below
        for i in 0..active.len() {
            let o = active[i];
            if o.use_rts {
                continue;
            }
            // Does the new transmission corrupt `o` at `o`'s receiver?
            // Interference buried below the noise floor (mean SNR of the
            // interferer < 0 dB at the receiver) cannot corrupt anything
            // the noise wasn't already corrupting — and beyond the
            // interference radius it provably is buried.
            let int_at_o = match o.info.rx_station {
                None => {
                    ap_near[o.info.ap].then(|| self.snr_sender_to_ap(tx.sender, o.info.ap, now))
                }
                Some(st_r) => {
                    let rxp = self.pos_at(st_r, now);
                    (dist2(my_pos, rxp) <= r_int2).then(|| self.params.snr_between(my_pos, rxp))
                }
            };
            if let Some(int_at_o) = int_at_o {
                if int_at_o >= 0.0 && o.info.sig_snr_db - int_at_o < self.params.capture_sir_db {
                    let om = &mut active[i];
                    om.collided = true;
                    om.first_other_start = om.first_other_start.min(tx.start);
                    om.max_other_end = om.max_other_end.max(tx.end);
                    if o.info.ap != tx.info.ap {
                        self.inter_cell_corruptions += 1;
                        om.corrupt_inter_cell = true;
                    } else {
                        om.corrupt_same_cell = true;
                    }
                }
            }
            // Does `o` corrupt the new transmission at my receiver? `o`
            // may have drifted since its start position was recorded, so
            // the prune radius carries the drift pad.
            if dist2(o.info.start_pos, my_rx_pos) <= r_int_drift2 {
                let int_at_mine = match tx.info.rx_station {
                    None => self.snr_sender_to_ap(o.sender, tx.info.ap, now),
                    Some(_) => {
                        let opos = self.tx_pos(o.sender, now);
                        self.params.snr_between(opos, my_rx_pos)
                    }
                };
                if int_at_mine >= 0.0
                    && tx.info.sig_snr_db - int_at_mine < self.params.capture_sir_db
                {
                    tx.collided = true;
                    tx.first_other_start = tx.first_other_start.min(o.start);
                    tx.max_other_end = tx.max_other_end.max(o.end);
                    if o.info.ap != tx.info.ap {
                        self.inter_cell_corruptions += 1;
                        tx.corrupt_inter_cell = true;
                    } else {
                        tx.corrupt_same_cell = true;
                    }
                }
            }
        }
        self.ap_near = ap_near;
    }

    /// The transmission left the air: drop it from the sense index.
    fn on_air_end(&mut self, tx: &ActiveTx<SpatialTx>) {
        self.sense.remove(tx.sender, tx.info.start_pos);
    }

    /// Interference-free fate from the streaming channel — one coin draw
    /// as always, with the envelope shared from the transmit-time memo
    /// (same `t`, same link ⇒ same Jakes evaluation) and the BER/success
    /// pair from the kernel memo.
    fn fate(&mut self, tx: &ActiveTx<SpatialTx>) -> FrameFate {
        let st = self.station_of_port(tx.port);
        let u = self.stations[st].link.draw();
        let env_db = self.env_at(st, tx.start);
        fate_from_draw_memo(
            u,
            tx.info.sig_snr_db + env_db,
            tx.rate_idx,
            tx.payload_bytes * 8,
            &mut self.fs_memo,
        )
    }

    fn on_acked(&mut self, core: &mut Core, tx: &ActiveTx<SpatialTx>) {
        let n = self.params.n_stations;
        let flow = station_of_port(n, tx.port);
        let Some(fl) = self.flows.as_mut() else {
            core.stats.frames_delivered += 1;
            self.stations[tx.sender].delivered += 1;
            return;
        };
        core.stats.frames_delivered += u64::from(tx.info.payload.is_segment());
        fl.queues[tx.port].pop_front();
        core.lanes.queue_depth[tx.port] = fl.queues[tx.port].len() as u32;
        if tx.sender >= n {
            let a = tx.sender - n;
            fl.ap_rr[a] = (fl.ap_rr[a] + 1) % fl.ap_members[a].len().max(1);
        }
        let FlowNet {
            transport, queues, ..
        } = fl;
        let mut host = SpatialHost {
            queues: &mut *queues,
            stations: &self.stations,
            core: &mut *core,
            n,
        };
        transport.on_frame_delivered(&mut host, flow, tx.info.payload);
    }

    fn on_dropped(&mut self, core: &mut Core, tx: &ActiveTx<SpatialTx>) {
        let n = self.params.n_stations;
        let flow = station_of_port(n, tx.port);
        let Some(fl) = self.flows.as_mut() else {
            // Saturated source: the frame evaporates, the next materializes.
            return;
        };
        fl.queues[tx.port].pop_front();
        core.lanes.queue_depth[tx.port] = fl.queues[tx.port].len() as u32;
        let FlowNet {
            transport, queues, ..
        } = fl;
        let mut host = SpatialHost {
            queues: &mut *queues,
            stations: &self.stations,
            core: &mut *core,
            n,
        };
        transport.on_frame_dropped(&mut host, flow);
    }

    fn after_outcome(&mut self, core: &mut Core, sender: usize) {
        let n = self.params.n_stations;
        if sender < n {
            self.try_apply_pending_handoff(core, sender);
        }
        match &self.flows {
            None => {
                // Saturated uplink: there is always a next frame.
                if !core.lanes.start_pending[sender] {
                    let cw = core.lanes.cw[sender];
                    core.schedule_tx_start(sender, None, cw);
                }
            }
            Some(_) => {
                // The attempt on `sender_port[sender]` just fully resolved
                // (acked, dropped, or headed for a retry): the port is no
                // longer in flight. A handoff deferred on this very frame
                // can now go; afterwards, if the port's owner changed
                // mid-stream, the new owner — who deliberately was not
                // woken while the frame was in the air — picks up whatever
                // the queue still holds.
                let port = {
                    let fl = self.flows.as_mut().expect("matched Some above");
                    let port = fl.sender_port[sender];
                    fl.port_inflight[port] = false;
                    port
                };
                if port >= n {
                    self.try_apply_pending_handoff(core, port - n);
                }
                let owner = if port < n {
                    port
                } else {
                    n + self.stations[port - n].ap
                };
                let fl = self.flows.as_ref().expect("matched Some above");
                if owner != sender
                    && !fl.queues[port].is_empty()
                    && !core.lanes.busy[owner]
                    && !core.lanes.start_pending[owner]
                {
                    let cw = core.lanes.cw[port];
                    core.schedule_tx_start(owner, None, cw);
                }
                if let Some(port) = self.pick_port(sender) {
                    if !core.lanes.start_pending[sender] {
                        let cw = core.lanes.cw[port];
                        core.schedule_tx_start(sender, None, cw);
                    }
                }
            }
        }
    }

    /// Periodic association re-evaluation, plus transport dispatch.
    fn on_event(&mut self, core: &mut Core, ev: SpatialEv) {
        let st = match ev {
            SpatialEv::Transport(tev) => {
                let n = self.params.n_stations;
                if let Some(fl) = self.flows.as_mut() {
                    let FlowNet {
                        transport, queues, ..
                    } = fl;
                    let mut host = SpatialHost {
                        queues,
                        stations: &self.stations,
                        core,
                        n,
                    };
                    transport.on_event(&mut host, tev);
                }
                return;
            }
            SpatialEv::Fault(fev) => {
                self.on_fault_event(core, fev);
                return;
            }
            SpatialEv::Roam { st } => st,
        };
        let Some((hysteresis, interval, _)) = self.params.roaming else {
            return;
        };
        let now = core.now();
        let cur = self.stations[st].ap;
        // With an AP dark, the candidate set shrinks to the live APs and
        // a station stranded on the dark one re-homes without waiting out
        // the hysteresis (association to a dead AP is worth nothing).
        // The gate requires an *active* outage, so faults-off — and
        // faulted runs outside the outage window — consider every AP.
        let pos = self.pos_at(st, now);
        let down = self
            .faults
            .as_ref()
            .filter(|f| f.any_ap_down)
            .map(|f| &f.ap_down[..]);
        let Some((best, best_rssi)) = self.params.best_ap(pos, down) else {
            // Every AP is dark: nowhere to go; check again later.
            core.events
                .schedule(now + interval, MacEv::Medium(SpatialEv::Roam { st }));
            return;
        };
        let bypass_hysteresis = down.is_some_and(|d| d[cur]);
        if best != cur
            && (bypass_hysteresis || best_rssi >= self.snr_to_ap(st, cur, now) + hysteresis)
        {
            // Defer while either of the station's links has a frame in
            // flight: the pending attempt must resolve against the link
            // state (fading process, epoch, adapter) it was launched on.
            let n = self.params.n_stations;
            let downlink_inflight = self
                .flows
                .as_ref()
                .is_some_and(|fl| fl.port_inflight[n + st]);
            if core.lanes.busy[st] || downlink_inflight {
                self.stations[st].pending_handoff = Some(best);
            } else {
                self.apply_handoff(core, st, best, now);
            }
        }
        core.events
            .schedule(now + interval, MacEv::Medium(SpatialEv::Roam { st }));
    }

    /// Telemetry groups per station: a station's uplink and downlink ports
    /// both report as that station.
    fn telemetry_station(&self, port: usize) -> usize {
        station_of_port(self.params.n_stations, port)
    }

    /// Transport timers and wired deliveries are transport work; `Roam`
    /// events are the medium's own.
    fn event_is_transport(&self, ev: &SpatialEv) -> bool {
        matches!(ev, SpatialEv::Transport(_))
    }
}

/// The station whose link a port serves, given `n` stations (uplink
/// ports are the station id; downlink ports are offset by the station
/// count).
fn station_of_port(n: usize, port: usize) -> usize {
    if port < n {
        port
    } else {
        port - n
    }
}

/// The multi-cell simulator: a [`MacEngine`] configured with a
/// [`SpatialMedium`].
pub struct SpatialSim {
    engine: MacEngine<SpatialMedium>,
}

impl SpatialSim {
    /// Builds the deployment: lays out the grid, spawns stations, and
    /// associates each with its strongest AP.
    pub fn new(mut cfg: SpatialConfig) -> Result<Self, crate::spatial::SpatialError> {
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
        // model for the sensing threshold and the 0 dB interference
        // floor, plus the worst-case drift of a transmitter while its
        // frame is on the air (slowest-rate airtime + RTS/CTS, at the
        // mobility model's speed).
        let (sense_lo, sense_radius_m) = params.range_band(params.sense_snr_db);
        // A negative `lo` means "no distance certainly passes"; keep the
        // squared form negative so `d² <= lo²` stays unsatisfiable.
        let sense_lo2 = if sense_lo < 0.0 {
            -1.0
        } else {
            sense_lo * sense_lo
        };
        let sense_hi2 = sense_radius_m * sense_radius_m;
        let interference_radius_m = params.range_for_threshold(0.0);
        let max_airtime: f64 = softrate_phy::rates::PAPER_RATES
            .iter()
            .map(|&r| data_airtime(r, cfg.payload_bytes, cfg.adapter.postambles()))
            .fold(0.0, f64::max)
            + rts_cts_overhead();
        let drift_pad_m = params.mobility.speed_mps() * max_airtime * (1.0 + 1e-9) + 1e-9;
        let sense_lo_ins = sense_lo - drift_pad_m;
        let sense_lo_ins2 = if sense_lo_ins < 0.0 {
            -1.0
        } else {
            sense_lo_ins * sense_lo_ins
        };
        let sense_hi_ins = sense_radius_m + drift_pad_m;
        // An all-`None` `[faults]` table lowers to no state at all, so an
        // empty table is provably identical to no table (pinned by test).
        let faults = cfg.faults.filter(|f| !f.is_noop()).map(|f| {
            let mut dormant = vec![false; n];
            if let Some(ch) = f.churn {
                for d in dormant.iter_mut().skip(n.saturating_sub(ch.join_count)) {
                    *d = true;
                }
            }
            FaultState {
                config: f,
                ap_down: vec![false; n_aps],
                ap_down_since: vec![0.0; n_aps],
                any_ap_down: false,
                dormant,
                left: vec![false; n],
                noise_delta_db: 0.0,
                jammer_on: false,
                seed: mix_seed(cfg.mac_seed, 0x4641_554C), // "FAUL"
            }
        });
        let mut medium = SpatialMedium {
            stations: Vec::with_capacity(n),
            walkers,
            flows: None,
            sense: SenseIndex::new(params.bounds, sense_hi_ins),
            sense_candidates: 0,
            bands: SenseBands {
                lo2: sense_lo2,
                hi2: sense_hi2,
                lo_ins2: sense_lo_ins2,
                hi_ins2: sense_hi_ins * sense_hi_ins,
            },
            interference_radius_m,
            drift_pad_m,
            pos_cache: vec![(NO_TIME, Point { x: 0.0, y: 0.0 }); n],
            snr_ap_cache: vec![(NO_TIME, 0, 0.0); n],
            env_cache: vec![(0, NO_TIME, 0.0); n],
            fs_memo: FrameSuccessMemo::new(),
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
            for s in 0..n {
                ports.push(Port::new(medium.make_downlink_adapter(s)));
            }
            n_senders = n + n_aps;
            let mut ap_members = vec![Vec::new(); n_aps];
            for (s, &a) in medium.initial_assoc.iter().enumerate() {
                ap_members[a].push(s);
            }
            let upload = tc.upload;
            let flow_links = (0..n).map(|s| if upload { (s, n + s) } else { (n + s, s) });
            medium.flows = Some(FlowNet {
                transport: TransportLayer::new(*tc, flow_links),
                queues: (0..2 * n).map(|_| VecDeque::new()).collect(),
                ap_members,
                ap_rr: vec![0; n_aps],
                port_inflight: vec![false; 2 * n],
                sender_port: vec![0; n + n_aps],
            });
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
    use crate::spatial::RoamingSpec;
    use softrate_sim::config::TrafficKind;

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
    /// or the buffer pool shows up here without a clock. Roaming checks
    /// every 100 ms and TCP timers land beyond the wheel's ~16 ms span,
    /// so the overflow heap is exercised too.
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
                w.buffers
            ),
            (33_412, 31_829, 3_240, 0, 83)
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
