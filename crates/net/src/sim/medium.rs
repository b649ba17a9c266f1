//! The spatial medium: the per-station and per-attempt state, and the
//! [`Medium`] hooks the MAC engine calls — carrier sense, attempt begin,
//! collision marking and frame fate — dispatching to the concerns in the
//! sibling modules.

use softrate_channel::analytic::OracleBands;
use softrate_core::adapter::{RateAdapter, TxAttempt};
use softrate_sim::config::AdapterKind;
use softrate_sim::fault::FaultLoss;
use softrate_sim::mac::{ActiveTx, AttemptInfo, HandoffRecord, MacCore, MacEv, Medium};
use softrate_sim::transport::{Payload, TransportEv};
use softrate_trace::schema::FrameFate;

use super::faults::{FaultEv, FaultState};
use super::flows::FlowNet;
use super::sense::SenseBands;
use super::SpatialConfig;
use crate::channel::{fate_from_draw, StreamingLink};
use crate::geometry::Point;
use crate::grid::{dist2, SenseIndex, TxEntry};
use crate::mobility::MobilityWalker;
use crate::physics::{corrupts, snr_between};
use crate::spatial::SpatialParams;
use crate::stream::mix_seed;

/// One station's medium-side state (the rate adapter, retry state and
/// contention window live in the engine's matching [`Port`]).
///
/// [`Port`]: softrate_sim::mac::Port
pub(super) struct Station {
    /// Associated AP.
    pub(super) ap: usize,
    /// Association epoch (increments on every handoff; keys fate streams).
    pub(super) epoch: u64,
    /// Streaming channel to the current AP (both directions: the fading
    /// field between two places is reciprocal, and the fate stream is
    /// shared — the single-threaded event loop makes interleaved draws
    /// deterministic).
    pub(super) link: StreamingLink,
    /// Handoff decided while a frame was in flight; applied at outcome.
    pub(super) pending_handoff: Option<usize>,
    pub(super) delivered: u64,
}

/// Per-attempt data: the BSS, the receiver (an AP for uplink frames, a
/// station for downlink), the mean and instantaneous signal SNR at start,
/// and the transmitter's position at start (the grid key, and the anchor
/// the drift-padded pruning reasons from).
#[derive(Debug, Clone, Copy)]
pub(super) struct SpatialTx {
    /// The BSS this transmission belongs to (receiver AP for uplink,
    /// transmitter AP for downlink).
    ap: usize,
    /// `None`: the receiver is AP `ap` (uplink). `Some(st)`: the receiver
    /// is station `st` (downlink).
    rx_station: Option<usize>,
    /// Mean (path-loss only) signal SNR at the receiver at start, dB.
    sig_snr_db: f64,
    /// Instantaneous SNR at start: `sig_snr_db` plus the link's fading
    /// envelope, dB. The oracle reads it at transmit time and the fate
    /// draw at the feedback window — one channel, fixed at send time.
    snr_db: f64,
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
pub(super) enum SpatialEv {
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

pub(super) type Core = MacCore<SpatialEv, SpatialTx>;

/// The multi-cell geometric environment with streaming channels.
///
/// Its hot passes run on an exact-semantics fast path (DESIGN.md §7):
/// conservative pruning radii inverted from the path-loss model, a
/// carrier-sense index over active transmitters, resumable mobility
/// walkers and a banded rate oracle. Every skipped candidate provably
/// fails the exact check it skipped, and every other one runs that check
/// in [`crate::physics`] — the unregenerated goldens in `tests/goldens/`
/// pin that end to end. Each attempt's instantaneous SNR is computed
/// once, at transmit start, and carried in its [`SpatialTx`].
pub(super) struct SpatialMedium {
    pub(super) cfg: SpatialConfig,
    pub(super) params: SpatialParams,
    pub(super) stations: Vec<Station>,
    /// Per-station resumable mobility cursors (amortized O(1) positions).
    pub(super) walkers: Vec<MobilityWalker>,
    /// `Flows`-mode state; `None` on the saturated-uplink fast path.
    pub(super) flows: Option<FlowNet>,
    /// Active transmitters, listed end-descending per cell of every
    /// transmit-start position within `sense_hi_ins` of the cell.
    pub(super) sense: SenseIndex,
    /// Index entries carrier sense has examined (the host-independent
    /// work count behind `PhaseProfile::sense_candidates`).
    pub(super) sense_candidates: u64,
    /// The sensing threshold's squared-distance bands.
    pub(super) bands: SenseBands,
    /// The squared interference radius, beyond which interference is
    /// below the noise floor (the outer radius of
    /// `range_band(NOISE_FLOOR_DB)`), and the same radius plus the drift
    /// pad squared, for comparing against a transmit-*start* position.
    pub(super) int_r2: f64,
    pub(super) int_drift_r2: f64,
    /// The omniscient oracle as exact threshold compares.
    pub(super) oracle: OracleBands,
    /// Scratch: per-AP "the new transmitter is within interference range
    /// of this AP" flags (reused).
    pub(super) ap_near: Vec<bool>,
    /// Live fault-injection state (`None` faults-off).
    pub(super) faults: Option<FaultState>,
    // statistics
    pub(super) inter_cell_corruptions: u64,
    pub(super) handoffs: u64,
    pub(super) initial_assoc: Vec<usize>,
    pub(super) handoff_log: Vec<HandoffRecord>,
}

impl SpatialMedium {
    /// The link's fading process is keyed by its endpoints only (a
    /// physical field between two places); the fate stream additionally by
    /// the association epoch, so re-associating never replays coin flips.
    pub(super) fn make_link(&self, st: usize, ap: usize, epoch: u64) -> StreamingLink {
        let pair = mix_seed(self.cfg.seed ^ 0x4C49_4E4B, ((st as u64) << 20) | ap as u64);
        StreamingLink::new(pair, mix_seed(pair, 0xFA7E ^ epoch), self.params.doppler_hz)
    }

    /// The rate adapter for `port`: station `st`'s uplink (`port == st`)
    /// or, in `Flows` mode, its downlink (`port == n + st`, with a
    /// distinct seed salt so the two directions' tie-breaks are
    /// independent).
    pub(super) fn make_adapter(&self, port: usize) -> Box<dyn RateAdapter> {
        let n = self.params.n_stations;
        let (st, salt) = if port < n {
            (port, 0xADA7)
        } else {
            (port - n, 0xADA7_D04E)
        };
        // The omniscient oracle needs the station's *current* link, which
        // changes at handoff; the medium injects the rate at transmit time
        // instead (see `begin_attempt`), so the closure here is never the
        // source of truth.
        self.cfg.adapter.build_with_oracle(
            self.cfg.frame_bits(),
            self.cfg.payload_bytes,
            mix_seed(self.cfg.mac_seed ^ salt, st as u64),
            Box::new(|_| 0),
        )
    }

    /// Position of station `st` at `t` from its resumable walker
    /// (identical to `params.station_pos`).
    pub(super) fn pos_at(&mut self, st: usize, t: f64) -> Point {
        self.walkers[st].position(&self.params.mobility, &self.params.bounds, t)
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

    /// Mean SNR of transmitter `sender` heard at AP `ap` at `t`: the
    /// station→AP path for stations, the (static) AP→AP path for
    /// `Flows`-mode AP transmitters.
    pub(super) fn snr_to_ap(&mut self, sender: usize, ap: usize, t: f64) -> f64 {
        let from = self.tx_pos(sender, t);
        snr_between(&self.params, from, self.params.aps[ap])
    }
}

impl Medium for SpatialMedium {
    type Event = SpatialEv;
    type TxInfo = SpatialTx;

    fn kickoff(&mut self, core: &mut Core) {
        let n = self.params.n_stations;
        if let Some(fs) = &self.faults {
            fs.schedule(core, n);
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
                    core.schedule_tx_start(s, Some(s as f64 * stagger), s);
                }
            }
            Some(fl) => {
                // Flow traffic: the transport schedules its own staggered
                // kicks and primes the queues (whose enqueues wake the
                // senders).
                let (transport, mut host) = fl.host(&self.stations, core);
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
            Some(fl) => fl.pick(n, sender),
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
        let st = station_of_port(n, port);
        let ap = self.stations[st].ap;
        // The AP↔station path is reciprocal, so uplink and downlink share
        // the station→AP mean SNR and the station's link envelope.
        let st_pos = self.pos_at(st, now);
        let mut sig_snr_db = snr_between(&self.params, st_pos, self.params.aps[ap]);
        if let Some(fs) = &self.faults {
            // A noise-floor step shaves margin off every link — the
            // oracle's included, since the channel really did get worse.
            sig_snr_db -= fs.noise_delta_db;
        }
        let snr_db = sig_snr_db + self.stations[st].link.envelope_db(now);
        let oracle_rate = self.oracle.best_rate(snr_db);
        if matches!(self.cfg.adapter, AdapterKind::Omniscient) {
            attempt.rate_idx = oracle_rate;
        }
        let start_pos = match sender.checked_sub(n) {
            None => st_pos,
            Some(a) => self.params.aps[a],
        };
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
                st_pos
            };
            let jam_db = snr_between(&self.params, Point { x: j.x, y: j.y }, rx_pos) + j.power_db;
            jammed = corrupts(&self.params, sig_snr_db, jam_db);
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
                snr_db,
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
        tx.info.jammed.then_some(FaultLoss::Jamming)
    }

    /// Interference bookkeeping: a concurrent transmission corrupts a
    /// reception only when [`corrupts`] says so at that receiver.
    /// RTS-protected frames reserved the medium and neither corrupt nor
    /// get corrupted (as in the single-cell medium).
    ///
    /// Fast path: both corruption directions demand the interferer's mean
    /// SNR at the victim's receiver to clear the noise floor, so any pair
    /// separated by more than the interference radius (drift-padded when
    /// the anchor is a transmit-start position) is skipped before the SNR
    /// math — it provably cannot corrupt. The engine pushes `tx` onto the
    /// active set right after this hook, so the grid insert lives here.
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
        let (r_int2, r_int_drift2) = (self.int_r2, self.int_drift_r2);

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
            let same_cell = o.info.ap == tx.info.ap;
            // Does the new transmission corrupt `o` at `o`'s receiver?
            // Beyond the interference radius its interference is provably
            // below the noise floor.
            let int_at_o = match o.info.rx_station {
                None => ap_near[o.info.ap].then(|| self.snr_to_ap(tx.sender, o.info.ap, now)),
                Some(st_r) => {
                    let rxp = self.pos_at(st_r, now);
                    (dist2(my_pos, rxp) <= r_int2).then(|| snr_between(&self.params, my_pos, rxp))
                }
            };
            if int_at_o.is_some_and(|int| corrupts(&self.params, o.info.sig_snr_db, int)) {
                self.inter_cell_corruptions += u64::from(!same_cell);
                active[i].mark_corrupted(tx.start, tx.end, same_cell);
            }
            // Does `o` corrupt the new transmission at my receiver? `o`
            // may have drifted since its start position was recorded, so
            // the prune radius carries the drift pad.
            if dist2(o.info.start_pos, my_rx_pos) <= r_int_drift2 {
                let int_at_mine = match tx.info.rx_station {
                    None => self.snr_to_ap(o.sender, tx.info.ap, now),
                    Some(_) => {
                        let opos = self.tx_pos(o.sender, now);
                        snr_between(&self.params, opos, my_rx_pos)
                    }
                };
                if corrupts(&self.params, tx.info.sig_snr_db, int_at_mine) {
                    self.inter_cell_corruptions += u64::from(!same_cell);
                    tx.mark_corrupted(o.start, o.end, same_cell);
                }
            }
        }
        self.ap_near = ap_near;
    }

    /// The transmission left the air: drop it from the sense index.
    fn on_air_end(&mut self, tx: &ActiveTx<SpatialTx>) {
        self.sense.remove(tx.sender, tx.info.start_pos);
    }

    /// Interference-free fate from the streaming channel: one coin draw
    /// against the instantaneous SNR fixed at transmit start. Handoffs
    /// wait for in-flight frames, so the link that drew the envelope is
    /// still the station's link here.
    fn fate(&mut self, tx: &ActiveTx<SpatialTx>) -> FrameFate {
        let st = station_of_port(self.params.n_stations, tx.port);
        let link = &mut self.stations[st].link;
        #[cfg(test)]
        assert_eq!(
            tx.info.snr_db.to_bits(),
            (tx.info.sig_snr_db + link.envelope_db(tx.start)).to_bits(),
            "port {} at t={}: the attempt's SNR is not its current link's",
            tx.port,
            tx.start
        );
        fate_from_draw(
            link.draw(),
            tx.info.snr_db,
            tx.rate_idx,
            tx.payload_bytes * 8,
        )
    }

    fn on_acked(&mut self, core: &mut Core, tx: &ActiveTx<SpatialTx>) {
        let n = self.params.n_stations;
        let Some(fl) = self.flows.as_mut() else {
            core.stats.frames_delivered += 1;
            self.stations[tx.sender].delivered += 1;
            return;
        };
        core.stats.frames_delivered += u64::from(tx.info.payload.is_segment());
        fl.queues[tx.port].pop_front();
        if tx.sender >= n {
            let a = tx.sender - n;
            fl.ap_rr[a] = (fl.ap_rr[a] + 1) % fl.ap_members[a].len().max(1);
        }
        let (transport, mut host) = fl.host(&self.stations, core);
        transport.on_frame_delivered(&mut host, station_of_port(n, tx.port), tx.info.payload);
    }

    fn on_dropped(&mut self, core: &mut Core, tx: &ActiveTx<SpatialTx>) {
        let Some(fl) = self.flows.as_mut() else {
            // Saturated source: the frame evaporates, the next materializes.
            return;
        };
        fl.queues[tx.port].pop_front();
        let (transport, mut host) = fl.host(&self.stations, core);
        transport.on_frame_dropped(&mut host, station_of_port(self.params.n_stations, tx.port));
    }

    fn after_outcome(&mut self, core: &mut Core, sender: usize) {
        let n = self.params.n_stations;
        if sender < n {
            self.try_apply_pending_handoff(core, sender);
        }
        let Some(fl) = self.flows.as_mut() else {
            // Saturated uplink: there is always a next frame.
            core.wake(sender, sender);
            return;
        };
        // The attempt on `sender_port[sender]` just fully resolved (acked,
        // dropped, or headed for a retry): the port is no longer in
        // flight. A handoff deferred on this very frame can now go;
        // afterwards, if the port's owner changed mid-stream, the new
        // owner — who deliberately was not woken while the frame was in
        // the air — picks up whatever the queue still holds.
        let port = fl.sender_port[sender];
        fl.port_inflight[port] = false;
        if port >= n {
            self.try_apply_pending_handoff(core, port - n);
        }
        let owner = port_owner(&self.stations, port);
        if owner != sender
            && self
                .flows
                .as_ref()
                .is_some_and(|fl| !fl.queues[port].is_empty())
        {
            core.wake(owner, port);
        }
        if let Some(port) = self.pick_port(sender) {
            core.wake(sender, port);
        }
    }

    /// Periodic association re-evaluation, fault lifecycle, and transport
    /// dispatch.
    fn on_event(&mut self, core: &mut Core, ev: SpatialEv) {
        match ev {
            SpatialEv::Transport(tev) => {
                if let Some(fl) = self.flows.as_mut() {
                    let (transport, mut host) = fl.host(&self.stations, core);
                    transport.on_event(&mut host, tev);
                }
            }
            SpatialEv::Fault(fev) => self.on_fault_event(core, fev),
            SpatialEv::Roam { st } => self.on_roam(core, st),
        }
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
pub(super) fn station_of_port(n: usize, port: usize) -> usize {
    if port < n {
        port
    } else {
        port - n
    }
}

/// The sender that serves `port` right now: the station for its uplink,
/// the station's current AP for its downlink.
pub(super) fn port_owner(stations: &[Station], port: usize) -> usize {
    let n = stations.len();
    if port < n {
        port
    } else {
        n + stations[port - n].ap
    }
}
