//! The generic discrete-event MAC engine shared by every simulator in the
//! workspace.
//!
//! Both network simulators — the trace-backed single-cell one
//! ([`crate::netsim`]) and the streaming multi-cell spatial one
//! (`softrate-net`) — run the *same* 802.11-like DCF: DIFS plus
//! binary-exponential backoff, in-flight transmission tracking with
//! collision-overlap bookkeeping, a base-rate feedback window after SIFS
//! resolved through [`crate::feedback`], a retry limit, and per-sender
//! rate-adapter plumbing. What differs between them is the *medium*: how
//! frame fates are sampled (trace lookup vs streaming draw), how carrier
//! sense works (a configured probability vs physical SNR), and what a
//! concurrent transmission corrupts (everything in one collision domain vs
//! receivers within SIR-capture range).
//!
//! [`MacEngine`] owns the shared state machine; the [`Medium`] trait is
//! the seam where the two environments plug in. Keeping the DCF in one
//! place is what guarantees the simulators cannot drift apart — the
//! paper's central claim (§6) is that SoftRate's cross-layer feedback is
//! independent of the environment it runs in, and the engine makes that
//! independence structural.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use softrate_core::adapter::{DecisionCtx, DecisionTrigger, RateAdapter, TxAttempt, TxOutcome};
use softrate_telemetry::{DecisionEvent, LossCause, OutcomeEvent, Recorder, TelemetryReport};
use softrate_trace::schema::{hash_uniform, FrameFate};

use crate::event::{EventQueue, WheelCounters};
use crate::fault::{FaultDriver, FaultLoss};
use crate::feedback::{apply_collision_feedback, CollisionTiming, HEADER_AIRTIME_FRAC};
use crate::timing::{
    attempt_airtime, data_airtime, feedback_airtime, rts_cts_overhead, CW_MAX, CW_MIN, DIFS,
    MAX_RETRIES, SIFS, SLOT,
};

/// Rate-selection accuracy tallies (Figures 14 and 18).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RateAudit {
    /// Frames sent above the highest rate that would have succeeded.
    pub overselect: u64,
    /// Frames sent exactly at the oracle rate.
    pub accurate: u64,
    /// Frames sent below the oracle rate.
    pub underselect: u64,
}

impl RateAudit {
    /// Total audited frames.
    pub fn total(&self) -> u64 {
        self.overselect + self.accurate + self.underselect
    }

    /// Fractions `(over, accurate, under)`.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total().max(1) as f64;
        (
            self.overselect as f64 / t,
            self.accurate as f64 / t,
            self.underselect as f64 / t,
        )
    }
}

/// One recorded handoff (spatial media only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HandoffRecord {
    /// When, seconds.
    pub t: f64,
    /// Which station.
    pub station: usize,
    /// AP roamed away from.
    pub from: usize,
    /// AP roamed to.
    pub to: usize,
}

/// Results of one simulation run, for every medium.
///
/// The union of what the trace-backed and spatial simulators report.
/// Single-cell runs leave the spatial fields at their defaults
/// (`inter_cell_corruptions = 0`, empty handoff log); spatial runs leave
/// `rate_timeline` empty.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Algorithm under test.
    pub adapter_name: String,
    /// Sum of per-flow goodputs, bit/s.
    pub aggregate_goodput_bps: f64,
    /// Per-flow goodput, bit/s (one entry per flow or station).
    pub per_flow_goodput_bps: Vec<f64>,
    /// Rate-selection accuracy over audited data frames.
    pub audit: RateAudit,
    /// Data frames transmitted on the air.
    pub frames_sent: u64,
    /// Data frames delivered intact.
    pub frames_delivered: u64,
    /// Frames corrupted by concurrent transmissions.
    pub collisions: u64,
    /// Attempts that produced no feedback at all.
    pub silent_losses: u64,
    /// `(time, rate_idx)` of every audited data-frame attempt on the
    /// observed link (the Figure 15 timeline; single-cell only).
    pub rate_timeline: Vec<(f64, usize)>,
    /// Corruption events whose interferer belonged to a different BSS than
    /// the victim receiver (spatial media only).
    pub inter_cell_corruptions: u64,
    /// Completed handoffs (spatial media only).
    pub handoffs: u64,
    /// Initial association (station -> AP; spatial media only).
    pub initial_assoc: Vec<usize>,
    /// Every handoff, in order (spatial media only).
    pub handoff_log: Vec<HandoffRecord>,
    /// Events processed by the discrete-event loop.
    pub events_processed: u64,
    /// Telemetry streams, when a [`Recorder`] was installed for the run.
    pub telemetry: Option<TelemetryReport>,
}

/// Engine events. `Medium(E)` carries everything above or beside the MAC —
/// transport timers, wired deliveries, roaming checks.
#[derive(Debug, Clone, Copy)]
pub enum MacEv<E> {
    /// A sender's backoff expired: try to transmit.
    TxStart {
        /// The sender whose backoff expired.
        sender: usize,
    },
    /// A transmission's air time ended.
    TxEnd {
        /// Transmission id.
        tx: u64,
    },
    /// Feedback window closed: resolve the attempt at the sender.
    Outcome {
        /// Transmission id.
        tx: u64,
    },
    /// A medium-specific event, dispatched to [`Medium::on_event`].
    Medium(E),
}

/// One rate-adapted unidirectional link: the adapter driving it and the
/// DCF state of its head-of-line frame. Single-cell media have one port
/// per wireless link (the AP owns several); spatial media one per
/// station.
pub struct Port {
    /// The rate-adaptation algorithm driving this link.
    pub adapter: Box<dyn RateAdapter>,
    /// Current contention window.
    pub cw: u32,
    /// Consecutive failed attempts for the head-of-line frame.
    pub retries: u32,
    /// Lifetime attempt counter (keys trace fate draws).
    pub attempts: u64,
    /// The rate the decision ledger believes the port is at (`new_rate`
    /// of its last row, or its last transmitted rate; `None` until the
    /// port first transmits).
    pub last_rate: Option<usize>,
    /// The adapter was rebuilt by a Reset handoff since the last
    /// transmission (the next transmission files the rate change under
    /// `handoff_reset`).
    pub handoff_reset: bool,
}

impl Port {
    /// A fresh port around `adapter`.
    pub fn new(adapter: Box<dyn RateAdapter>) -> Self {
        Port {
            adapter,
            cw: CW_MIN,
            retries: 0,
            attempts: 0,
            last_rate: None,
            handoff_reset: false,
        }
    }
}

/// One transmitter's channel-access state.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sender {
    /// A transmission is on the air or awaiting its outcome.
    pub busy: bool,
    /// A TxStart event is already scheduled.
    pub start_pending: bool,
}

/// An in-flight (or feedback-pending) transmission. `I` is the medium's
/// per-attempt payload: the single-cell simulator stores the MAC payload,
/// the spatial one the receiver AP and the signal SNR at transmit time.
#[derive(Debug, Clone, Copy)]
pub struct ActiveTx<I> {
    /// Transmission id.
    pub id: u64,
    /// Transmitting sender.
    pub sender: usize,
    /// Port the frame left from.
    pub port: usize,
    /// Transmission start, seconds.
    pub start: f64,
    /// Transmission end, seconds.
    pub end: f64,
    /// End of the preamble + header window, seconds.
    pub header_end: f64,
    /// Rate the frame is sent at.
    pub rate_idx: usize,
    /// Whether the frame is RTS/CTS-protected.
    pub use_rts: bool,
    /// On-air payload size, bytes.
    pub payload_bytes: usize,
    /// The port's attempt counter at transmit time.
    pub attempt: u64,
    /// Whether this frame counts toward `frames_sent` (data frames only).
    pub counts_as_data: bool,
    /// A corrupting transmission came from the same cell (telemetry loss
    /// attribution: same-cell corruption is a collision).
    pub corrupt_same_cell: bool,
    /// A corrupting transmission came from a different BSS (telemetry
    /// loss attribution: inter-cell corruption is interference capture).
    pub corrupt_inter_cell: bool,
    /// Earliest start among corrupting transmissions.
    pub first_other_start: f64,
    /// Latest end among corrupting transmissions.
    pub max_other_end: f64,
    /// Medium-specific attempt data.
    pub info: I,
}

impl<I> ActiveTx<I> {
    /// Records that an interferer on the air over `[start, end]`
    /// corrupted this transmission; `same_cell` says whether it came
    /// from this frame's own cell.
    pub fn mark_corrupted(&mut self, start: f64, end: f64, same_cell: bool) {
        if same_cell {
            self.corrupt_same_cell = true;
        } else {
            self.corrupt_inter_cell = true;
        }
        self.first_other_start = self.first_other_start.min(start);
        self.max_other_end = self.max_other_end.max(end);
    }

    /// Whether a concurrent transmission corrupted this one.
    pub fn collided(&self) -> bool {
        self.corrupt_same_cell || self.corrupt_inter_cell
    }
}

/// What the medium decides about an attempt at transmit time.
#[derive(Debug, Clone, Copy)]
pub struct AttemptInfo<I> {
    /// On-air payload size, bytes.
    pub payload_bytes: usize,
    /// Whether this frame counts toward `frames_sent` (data frames only).
    pub counts_as_data: bool,
    /// Oracle rate to audit the attempt against, if it should be audited.
    pub audit_best: Option<usize>,
    /// Record the attempt in the Figure 15 rate timeline.
    pub timeline: bool,
    /// Medium-specific attempt data carried on the [`ActiveTx`].
    pub info: I,
}

/// Engine parameters every medium supplies at construction.
#[derive(Debug, Clone, Copy)]
pub struct MacParams {
    /// Whether frames carry postambles (ideal SoftRate).
    pub postambles: bool,
    /// Probability the receiver's collision detector flags a collision.
    pub detect_prob: f64,
    /// Seed of the backoff RNG.
    pub backoff_seed: u64,
    /// Seed salting collision-detector verdict draws.
    pub collision_seed: u64,
}

/// Shared counters every run reports.
#[derive(Debug, Clone, Default)]
pub struct MacStats {
    /// Data frames transmitted on the air.
    pub frames_sent: u64,
    /// Data frames delivered intact.
    pub frames_delivered: u64,
    /// Frames corrupted by concurrent transmissions.
    pub collisions: u64,
    /// Attempts that produced no feedback at all.
    pub silent_losses: u64,
    /// Rate-selection accuracy over audited frames.
    pub audit: RateAudit,
    /// The Figure 15 rate timeline.
    pub rate_timeline: Vec<(f64, usize)>,
    /// Events processed by the discrete-event loop.
    pub events_processed: u64,
}

/// Decision-ledger bookkeeping threaded through the engine: the reusable
/// sink handed to every adapter `_ctx` call plus the per-port rate the
/// ledger last reported. Inert (the sink is disabled, nothing is read or
/// written) unless the installed recorder's ledger is on — the same
/// zero-cost-when-off contract as the recorder itself.
#[derive(Debug, Default)]
pub struct LedgerState {
    /// The decision sink handed to adapter `next_attempt_ctx` /
    /// `on_outcome_ctx` calls; drained by the engine after each call.
    pub ctx: DecisionCtx,
}

/// The engine state a [`Medium`] implementation may inspect and drive:
/// the event queue, sender/port state, in-flight transmissions, and the
/// shared statistics. Splitting this from the medium itself is what lets
/// medium hooks take `&mut self` alongside `&mut MacCore` without borrow
/// conflicts.
pub struct MacCore<E, I> {
    /// The discrete-event queue.
    pub events: EventQueue<MacEv<E>>,
    /// Channel-access state per sender.
    pub senders: Vec<Sender>,
    /// Adapter and DCF state per port.
    pub ports: Vec<Port>,
    /// Transmissions currently on the air.
    pub active: Vec<ActiveTx<I>>,
    /// Transmissions past TxEnd awaiting their feedback window.
    pub pending: Vec<ActiveTx<I>>,
    /// Shared run statistics.
    pub stats: MacStats,
    /// The telemetry seam: `None` (the default) costs one branch per
    /// hook; `Some` observes the run without perturbing it (the recorder
    /// never draws randomness or schedules events). Installed by the
    /// simulators at construction, taken back out at report time.
    pub recorder: Option<Box<Recorder>>,
    /// Decision-ledger state; enabled at run start iff the recorder's
    /// ledger is on (see [`MacCore::sync_ledger`]).
    pub ledger: LedgerState,
    /// The SoftPHY hint-corruption seam (`softrate-faults`): `None` (the
    /// default) costs one branch per resolved outcome; `Some` degrades
    /// the feedback the *adapter* sees after the ground-truth fate is
    /// drawn and recorded — telemetry keeps observing the truth.
    pub faults: Option<FaultDriver>,
    params: MacParams,
    rng: SmallRng,
    next_tx_id: u64,
}

impl<E: Copy, I> MacCore<E, I> {
    /// A core for `n_senders` transmitters driving `ports`. The event
    /// queue starts empty: its slab recycles freed entries, so it grows
    /// only to the events actually in flight and steady-state push/pop
    /// allocates nothing.
    pub fn new(n_senders: usize, ports: Vec<Port>, params: MacParams) -> Self {
        MacCore {
            events: EventQueue::new(),
            senders: vec![Sender::default(); n_senders],
            ports,
            active: Vec::new(),
            pending: Vec::new(),
            stats: MacStats::default(),
            recorder: None,
            ledger: LedgerState {
                ctx: DecisionCtx::disabled(),
            },
            faults: None,
            rng: SmallRng::seed_from_u64(params.backoff_seed),
            params,
            next_tx_id: 1,
        }
    }

    /// Aligns the decision-ledger sink with the installed recorder's
    /// configuration. Called once at run start, after the simulator has
    /// installed (or not installed) the recorder.
    pub fn sync_ledger(&mut self) {
        let on = self
            .recorder
            .as_deref()
            .is_some_and(|r| r.wants_decisions());
        if on != self.ledger.ctx.is_enabled() {
            self.ledger.ctx = if on {
                DecisionCtx::enabled()
            } else {
                DecisionCtx::disabled()
            };
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.events.now()
    }

    /// Schedules `sender`'s next channel-access attempt after DIFS plus a
    /// backoff drawn from `port`'s contention window, counted from
    /// `after` (or now). The sender must be idle with no TxStart pending.
    pub fn schedule_tx_start(&mut self, sender: usize, after: Option<f64>, port: usize) {
        debug_assert!(
            !self.senders[sender].busy && !self.senders[sender].start_pending,
            "sender {sender} scheduled while busy or already pending"
        );
        if let Some(rec) = self.recorder.as_deref_mut() {
            // Channel access starts the moment the sender begins
            // contending; deferrals keep the same period open.
            rec.mark_access_start(sender, self.events.now());
        }
        let slots = self.rng.gen_range(0..=self.ports[port].cw) as f64;
        let at = after.unwrap_or(self.events.now()) + DIFS + slots * SLOT;
        self.senders[sender].start_pending = true;
        self.events.schedule(at, MacEv::TxStart { sender });
    }

    /// Starts `sender` contending for `port`'s head-of-line frame now,
    /// unless it is already transmitting or has a TxStart pending (then
    /// it picks the frame up when that resolves).
    pub fn wake(&mut self, sender: usize, port: usize) {
        let s = self.senders[sender];
        if !s.busy && !s.start_pending {
            self.schedule_tx_start(sender, None, port);
        }
    }
}

/// The environment a [`MacEngine`] runs in: everything that differs
/// between the trace-backed single-cell world and the streaming spatial
/// one.
///
/// Hook order within one transmission: [`Medium::pick_port`] →
/// [`Medium::carrier_sense`] → the port adapter's `next_attempt` →
/// [`Medium::begin_attempt`] → [`Medium::mark_collisions`]; then at the
/// feedback window [`Medium::fate`] → [`Medium::fault_loss`] →
/// (`on_acked` | retry | `on_dropped`) → [`Medium::after_outcome`].
pub trait Medium {
    /// Medium-specific events (transport timers, wired hops, roaming).
    type Event: Copy;
    /// Per-attempt data carried on in-flight transmissions.
    type TxInfo: Copy;

    /// Schedules the initial events (traffic kickoff, roaming timers).
    fn kickoff(&mut self, core: &mut MacCore<Self::Event, Self::TxInfo>);

    /// The port `sender` would transmit on next, if it has a frame.
    fn pick_port(&mut self, sender: usize) -> Option<usize>;

    /// If the medium is sensed busy at `sender`, the time the latest
    /// audible transmission ends (the engine defers until then).
    fn carrier_sense(
        &mut self,
        core: &MacCore<Self::Event, Self::TxInfo>,
        sender: usize,
    ) -> Option<f64>;

    /// Resolves the head-of-line frame on `port`: payload size, audit
    /// oracle, and the medium's per-attempt data. May override the
    /// adapter's `attempt` (the spatial omniscient oracle does).
    fn begin_attempt(
        &mut self,
        sender: usize,
        port: usize,
        now: f64,
        attempt: &mut TxAttempt,
    ) -> AttemptInfo<Self::TxInfo>;

    /// Marks mutual corruption between the new transmission and the ones
    /// already on the air. The engine always pushes `tx` onto the active
    /// set right after this hook, so a medium that indexes active
    /// transmitters (the spatial grid) inserts here.
    fn mark_collisions(
        &mut self,
        tx: &mut ActiveTx<Self::TxInfo>,
        active: &mut [ActiveTx<Self::TxInfo>],
    );

    /// The transmission's air time ended and it left the active set (it
    /// still awaits its feedback window). Media that index active
    /// transmitters drop `tx` here; the default does nothing.
    fn on_air_end(&mut self, _tx: &ActiveTx<Self::TxInfo>) {}

    /// The interference-free fate of `tx` (also consulted under collision
    /// for the §6.4 interference-free BER feedback).
    fn fate(&mut self, tx: &ActiveTx<Self::TxInfo>) -> FrameFate;

    /// Whether an injected fault kills `tx` at its feedback window: an
    /// [`FaultLoss::Outage`] (the receiver is dark — a silent loss) or a
    /// [`FaultLoss::Jamming`] burst (the reception is swamped — resolved
    /// like a collision the detector may flag). Consulted *after*
    /// [`Medium::fate`] so the fate stream is drawn uniformly whether or
    /// not faults fire, and takes precedence over organic collision
    /// resolution (exactly one cause per failure). Defaults to `None`:
    /// faults-off media never see this seam.
    fn fault_loss(&mut self, _tx: &ActiveTx<Self::TxInfo>) -> Option<FaultLoss> {
        None
    }

    /// The frame was delivered: advance queues and hand the payload up.
    fn on_acked(
        &mut self,
        core: &mut MacCore<Self::Event, Self::TxInfo>,
        tx: &ActiveTx<Self::TxInfo>,
    );

    /// The frame exhausted its retries and was dropped.
    fn on_dropped(
        &mut self,
        core: &mut MacCore<Self::Event, Self::TxInfo>,
        tx: &ActiveTx<Self::TxInfo>,
    );

    /// The attempt fully resolved and the sender is idle again: apply
    /// deferred state changes (handoffs) and schedule the next access.
    fn after_outcome(&mut self, core: &mut MacCore<Self::Event, Self::TxInfo>, sender: usize);

    /// Dispatches a medium-specific event.
    fn on_event(&mut self, core: &mut MacCore<Self::Event, Self::TxInfo>, ev: Self::Event);

    /// The station (flow) index that owns `port`'s frames, for telemetry
    /// attribution. Downlink ports map to the *receiving* station so the
    /// per-station view covers both directions. Defaults to the port
    /// index (one port per station).
    fn telemetry_station(&self, port: usize) -> usize {
        port
    }

    /// Whether `ev` is transport-layer work (TCP/UDP timers, wired-hop
    /// deliveries, source arrivals) rather than a medium-native event
    /// (roaming checks). Drives the `transport` row of
    /// `netscale --profile`; defaults to `false`.
    fn event_is_transport(&self, _ev: &Self::Event) -> bool {
        false
    }
}

/// Wall-time breakdown of one profiled run: seconds spent inside each
/// medium hook, with everything unaccounted (event-queue push/pop, engine
/// dispatch, adapter calls, stats) folded into `queue_s`. Produced by
/// [`MacEngine::run_profiled`]; the `netscale --profile` bench prints it so
/// perf work knows where the time actually goes.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseProfile {
    /// Seconds inside [`Medium::carrier_sense`].
    pub sense_s: f64,
    /// Seconds inside [`Medium::begin_attempt`] (plus the adapter's
    /// `next_attempt`, which the engine calls back-to-back with it).
    pub begin_s: f64,
    /// Seconds inside [`Medium::mark_collisions`].
    pub collision_s: f64,
    /// Seconds inside [`Medium::fate`].
    pub fate_s: f64,
    /// Seconds inside [`Medium::on_event`] for medium-native events
    /// (roaming checks).
    pub medium_ev_s: f64,
    /// Seconds inside [`Medium::on_event`] for transport-layer events
    /// (TCP timers, wired hops, arrivals — see
    /// [`Medium::event_is_transport`]).
    pub transport_s: f64,
    /// Seconds resolving outcomes after the fate draw: ACK/drop
    /// bookkeeping plus `on_acked`/`on_dropped`/`after_outcome`, where
    /// transport pumps new segments into the MAC queues.
    pub outcome_s: f64,
    /// Residual: event-queue push/pop, dispatch, stats.
    pub queue_s: f64,
    /// Whole-run wall seconds.
    pub total_s: f64,
    /// TxStart events that found the medium busy and deferred.
    pub deferrals: u64,
    /// TxStart events that transmitted.
    pub transmissions: u64,
    /// Active-transmission entries carrier sense examined, summed over
    /// every sense — a host-independent work count (filled in by media
    /// that keep one).
    pub sense_candidates: u64,
    /// The event wheel's work counts over the run (host-independent).
    pub wheel: WheelCounters,
}

/// The generic DCF discrete-event engine: one MAC, many media.
pub struct MacEngine<M: Medium> {
    /// The shared MAC state.
    pub core: MacCore<M::Event, M::TxInfo>,
    /// The environment.
    pub medium: M,
    /// Phase timers, populated only by [`MacEngine::run_profiled`] (the
    /// unprofiled [`MacEngine::run`] never looks at the clock).
    profile: Option<Box<PhaseProfile>>,
}

impl<M: Medium> MacEngine<M> {
    /// An engine over `medium` with `n_senders` transmitters and `ports`.
    pub fn new(n_senders: usize, ports: Vec<Port>, params: MacParams, medium: M) -> Self {
        MacEngine {
            core: MacCore::new(n_senders, ports, params),
            medium,
            profile: None,
        }
    }

    /// Runs the event loop to `duration` simulated seconds: one pop and
    /// one dispatch per event, in `(time, seq)` order.
    pub fn run(&mut self, duration: f64) {
        self.core.sync_ledger();
        self.medium.kickoff(&mut self.core);
        while let Some(ev) = self.core.events.pop() {
            if ev.time > duration {
                break;
            }
            self.core.stats.events_processed += 1;
            self.dispatch(ev.event);
        }
    }

    /// Dispatches one engine event.
    fn dispatch(&mut self, ev: MacEv<M::Event>) {
        match ev {
            MacEv::TxStart { sender } => self.on_tx_start(sender),
            MacEv::TxEnd { tx } => self.on_tx_end(tx),
            MacEv::Outcome { tx } => self.on_outcome(tx),
            MacEv::Medium(e) => {
                let t0 = self.profile.as_deref().map(|_| std::time::Instant::now());
                let transport = t0.is_some() && self.medium.event_is_transport(&e);
                self.medium.on_event(&mut self.core, e);
                if let (Some(t0), Some(p)) = (t0, self.profile.as_deref_mut()) {
                    if transport {
                        p.transport_s += t0.elapsed().as_secs_f64();
                    } else {
                        p.medium_ev_s += t0.elapsed().as_secs_f64();
                    }
                }
            }
        }
    }

    /// [`MacEngine::run`] with per-phase wall-time accounting. Results are
    /// identical to an unprofiled run (the timers observe, never steer);
    /// the run is slightly slower from the clock reads around every hook.
    pub fn run_profiled(&mut self, duration: f64) -> PhaseProfile {
        self.profile = Some(Box::default());
        let started = std::time::Instant::now();
        self.run(duration);
        // Everything the phase timers did not attribute is queue time.
        let mut p = *self.profile.take().expect("profiling was enabled");
        p.total_s = started.elapsed().as_secs_f64();
        p.wheel = self.core.events.counters();
        p.queue_s = p.total_s
            - p.sense_s
            - p.begin_s
            - p.collision_s
            - p.fate_s
            - p.medium_ev_s
            - p.transport_s
            - p.outcome_s;
        p
    }

    /// Drains adapter-recorded decisions into the ledger and, at transmit
    /// time (`tx_rate = Some`), reconciles the ledger's view of the
    /// port's rate with the rate actually going on the air. The
    /// reconciliation catches the two rate changes no adapter observes:
    /// a medium override of the attempt (the spatial omniscient oracle)
    /// and the first frame after a Reset handoff rebuilt the adapter.
    fn drain_decisions(&mut self, now: f64, port: usize, tx_rate: Option<usize>) {
        let core = &mut self.core;
        if !core.ledger.ctx.is_enabled() {
            return;
        }
        let station = self.medium.telemetry_station(port);
        let adapter = core.ports[port].adapter.name();
        let mut pending = std::mem::take(&mut core.ledger.ctx.decisions);
        for d in pending.drain(..) {
            core.ports[port].last_rate = Some(d.new_rate);
            if let Some(rec) = core.recorder.as_deref_mut() {
                rec.on_decision(
                    now,
                    DecisionEvent {
                        station,
                        port,
                        adapter,
                        old_rate: d.old_rate,
                        new_rate: d.new_rate,
                        trigger: d.trigger.name(),
                        snr_db: d.snr_db,
                        ber: d.ber,
                        reason: d.reason,
                    },
                );
            }
        }
        core.ledger.ctx.decisions = pending; // keep the sink's capacity
        let Some(tx_rate) = tx_rate else {
            return;
        };
        let prev = core.ports[port].last_rate;
        let reset = std::mem::replace(&mut core.ports[port].handoff_reset, false);
        let engine_row = if reset {
            // A Reset handoff rebuilt the adapter: file the (possibly
            // identical) rate under handoff_reset exactly once.
            Some((
                prev.unwrap_or(tx_rate),
                DecisionTrigger::HandoffReset.name(),
                "adapter-reset",
            ))
        } else {
            match prev {
                Some(r) if r != tx_rate => {
                    // The medium overrode the adapter's attempt — decided
                    // at transmit time, so it files under the probe class
                    // (DESIGN.md §10).
                    Some((r, DecisionTrigger::Probe.name(), "medium-override"))
                }
                _ => None,
            }
        };
        if let Some((old_rate, trigger, reason)) = engine_row {
            if let Some(rec) = core.recorder.as_deref_mut() {
                rec.on_decision(
                    now,
                    DecisionEvent {
                        station,
                        port,
                        adapter,
                        old_rate,
                        new_rate: tx_rate,
                        trigger,
                        snr_db: None,
                        ber: None,
                        reason,
                    },
                );
            }
        }
        core.ports[port].last_rate = Some(tx_rate);
    }

    fn on_tx_start(&mut self, sender: usize) {
        let core = &mut self.core;
        core.senders[sender].start_pending = false;
        if core.senders[sender].busy {
            return; // will reschedule when freed
        }
        let Some(port) = self.medium.pick_port(sender) else {
            if let Some(rec) = core.recorder.as_deref_mut() {
                // Nothing to send: whatever access period was open ends.
                rec.clear_access_start(sender);
            }
            return;
        };

        let t0 = self.profile.as_deref().map(|_| std::time::Instant::now());
        let sensed = self.medium.carrier_sense(core, sender);
        if let (Some(t0), Some(p)) = (t0, self.profile.as_deref_mut()) {
            p.sense_s += t0.elapsed().as_secs_f64();
        }
        if let Some(until) = sensed {
            if let Some(p) = self.profile.as_deref_mut() {
                p.deferrals += 1;
            }
            if core.recorder.is_some() {
                let station = self.medium.telemetry_station(port);
                let now = core.events.now();
                if let Some(rec) = core.recorder.as_deref_mut() {
                    rec.on_defer(now, station, sender);
                }
            }
            core.schedule_tx_start(sender, Some(until), port);
            return;
        }

        // Transmit.
        let now = core.events.now();
        let t0 = self.profile.as_deref().map(|_| std::time::Instant::now());
        let mut attempt = core.ports[port]
            .adapter
            .next_attempt_ctx(now, &mut core.ledger.ctx);
        let info = self.medium.begin_attempt(sender, port, now, &mut attempt);
        if let (Some(t0), Some(p)) = (t0, self.profile.as_deref_mut()) {
            p.begin_s += t0.elapsed().as_secs_f64();
            p.transmissions += 1;
        }
        // Ledger: adapter decisions from `next_attempt` (sampling probes,
        // oracle moves), then reconcile against the rate going on the air.
        self.drain_decisions(now, port, Some(attempt.rate_idx));
        let core = &mut self.core;
        let rate = softrate_phy::rates::PAPER_RATES[attempt.rate_idx];
        let air = data_airtime(rate, info.payload_bytes, core.params.postambles)
            + if attempt.use_rts {
                rts_cts_overhead()
            } else {
                0.0
            };
        let id = core.next_tx_id;
        core.next_tx_id += 1;
        core.ports[port].attempts += 1;

        let mut tx = ActiveTx {
            id,
            sender,
            port,
            start: now,
            end: now + air,
            header_end: now + air * HEADER_AIRTIME_FRAC,
            rate_idx: attempt.rate_idx,
            use_rts: attempt.use_rts,
            payload_bytes: info.payload_bytes,
            attempt: core.ports[port].attempts,
            counts_as_data: info.counts_as_data,
            corrupt_same_cell: false,
            corrupt_inter_cell: false,
            first_other_start: f64::INFINITY,
            max_other_end: f64::NEG_INFINITY,
            info: info.info,
        };
        let t0 = self.profile.as_deref().map(|_| std::time::Instant::now());
        self.medium.mark_collisions(&mut tx, &mut core.active);
        if let (Some(t0), Some(p)) = (t0, self.profile.as_deref_mut()) {
            p.collision_s += t0.elapsed().as_secs_f64();
        }

        if core.recorder.is_some() {
            let station = self.medium.telemetry_station(port);
            if let Some(rec) = core.recorder.as_deref_mut() {
                rec.on_tx(now, station, sender, id, tx.rate_idx, tx.attempt, air);
            }
        }

        core.senders[sender].busy = true;
        core.events.schedule(tx.end, MacEv::TxEnd { tx: id });
        core.active.push(tx);

        if info.counts_as_data {
            core.stats.frames_sent += 1;
        }
        if let Some(best) = info.audit_best {
            match attempt.rate_idx.cmp(&best) {
                std::cmp::Ordering::Greater => core.stats.audit.overselect += 1,
                std::cmp::Ordering::Equal => core.stats.audit.accurate += 1,
                std::cmp::Ordering::Less => core.stats.audit.underselect += 1,
            }
        }
        if info.timeline {
            core.stats.rate_timeline.push((now, attempt.rate_idx));
        }
    }

    fn on_tx_end(&mut self, tx_id: u64) {
        let core = &mut self.core;
        let idx = core
            .active
            .iter()
            .position(|t| t.id == tx_id)
            .expect("unknown tx");
        let tx = core.active.swap_remove(idx);
        self.medium.on_air_end(&tx);
        // Sender waits a feedback window before concluding anything.
        core.events.schedule(
            tx.end + SIFS + feedback_airtime(),
            MacEv::Outcome { tx: tx_id },
        );
        core.pending.push(tx);
    }

    fn on_outcome(&mut self, tx_id: u64) {
        let core = &mut self.core;
        let idx = core
            .pending
            .iter()
            .position(|t| t.id == tx_id)
            .expect("unknown pending tx");
        let tx = core.pending.swap_remove(idx);
        let now = core.events.now();
        let rate = softrate_phy::rates::PAPER_RATES[tx.rate_idx];
        let postambles = core.params.postambles;

        // Interference-free fate from the medium (also needed under
        // collision for the §6.4 interference-free BER feedback).
        let t0 = self.profile.as_deref().map(|_| std::time::Instant::now());
        let fate = self.medium.fate(&tx);
        if let (Some(t0), Some(p)) = (t0, self.profile.as_deref_mut()) {
            p.fate_s += t0.elapsed().as_secs_f64();
        }

        let mut outcome = TxOutcome {
            rate_idx: tx.rate_idx,
            acked: false,
            feedback_received: false,
            ber_feedback: None,
            interference_flagged: false,
            postamble_ack: false,
            snr_feedback_db: None,
            airtime: attempt_airtime(rate, tx.payload_bytes, postambles, tx.use_rts),
            now,
        };

        // Injected faults resolve first (exactly one cause per failure;
        // a frame that is both jammed and collided counts as jammed —
        // the adversarial event wins the attribution).
        let fault = self.medium.fault_loss(&tx);
        match fault {
            Some(FaultLoss::Outage) => {
                // The receiver is powered off: nothing decodes, nothing
                // feeds back. A silent loss with a name.
                core.stats.silent_losses += 1;
            }
            Some(FaultLoss::Jamming) => {
                // The jammer swamps the whole reception, RTS-protected or
                // not (the exchange shields against *802.11* contenders,
                // not a wideband interferer). Resolved with the collision
                // feedback machinery — the receiver's detector may flag
                // the interference — under a distinct draw salt so the
                // jam stream never correlates with organic collisions.
                let flagged = hash_uniform(&[tx.id, 0x4A41_4D00, core.params.collision_seed])
                    < core.params.detect_prob;
                let timing = CollisionTiming {
                    start: tx.start,
                    header_end: tx.header_end,
                    end: tx.end,
                    first_other_start: tx.start,
                    max_other_end: tx.end,
                };
                if apply_collision_feedback(&mut outcome, &timing, &fate, flagged, postambles) {
                    core.stats.silent_losses += 1;
                }
            }
            None if tx.collided() && !tx.use_rts => {
                core.stats.collisions += 1;
                let flagged = hash_uniform(&[tx.id, 0x00DE_7EC7, core.params.collision_seed])
                    < core.params.detect_prob;
                let timing = CollisionTiming {
                    start: tx.start,
                    header_end: tx.header_end,
                    end: tx.end,
                    first_other_start: tx.first_other_start,
                    max_other_end: tx.max_other_end,
                };
                if apply_collision_feedback(&mut outcome, &timing, &fate, flagged, postambles) {
                    core.stats.silent_losses += 1;
                }
            }
            None if fate.detected && fate.header_ok => {
                // Clean medium: the fate decides.
                outcome.feedback_received = true;
                outcome.acked = fate.delivered;
                outcome.ber_feedback = fate.ber_feedback;
                outcome.snr_feedback_db = fate.snr_feedback_db;
            }
            None => {
                core.stats.silent_losses += 1;
            }
        }

        // SoftPHY hint corruption degrades what the *adapter* sees; the
        // recorder below keeps the ground-truth fate (telemetry observes
        // the world, the adapter observes the pipeline).
        if let Some(fd) = core.faults.as_mut() {
            fd.corrupt_hints(tx.id, &mut outcome);
        }

        core.ports[tx.port]
            .adapter
            .on_outcome_ctx(&outcome, &mut core.ledger.ctx);
        self.drain_decisions(now, tx.port, None);
        let core = &mut self.core;

        if core.recorder.is_some() {
            // Attribution happens here because this is where the fate is
            // decided: the medium marked *who* corrupted the frame at
            // transmit time, the feedback window just resolved *whether*
            // it survived. Exactly one cause per failure:
            //   - killed by an injected fault            -> outage/jamming
            //   - corrupted by a same-cell transmission  -> collision
            //   - corrupted only by another BSS          -> capture
            //   - failed with no interferer (incl. RTS-protected
            //     collisions, which the exchange shields) -> fading
            let cause = if outcome.acked {
                None
            } else if let Some(fl) = fault {
                Some(match fl {
                    FaultLoss::Outage => LossCause::Outage,
                    FaultLoss::Jamming => LossCause::Jamming,
                })
            } else if tx.collided() && !tx.use_rts {
                if tx.corrupt_same_cell {
                    Some(LossCause::Collision)
                } else {
                    Some(LossCause::InterferenceCapture)
                }
            } else {
                Some(LossCause::Fading)
            };
            let dropped = !outcome.acked && core.ports[tx.port].retries + 1 > MAX_RETRIES;
            let station = self.medium.telemetry_station(tx.port);
            if let Some(rec) = core.recorder.as_deref_mut() {
                rec.on_outcome(
                    now,
                    OutcomeEvent {
                        station,
                        sender: tx.sender,
                        tx_id: tx.id,
                        rate_idx: tx.rate_idx,
                        attempt: tx.attempt,
                        acked: outcome.acked,
                        dropped,
                        counts_as_data: tx.counts_as_data,
                        payload_bytes: tx.payload_bytes,
                        airtime_s: tx.end - tx.start,
                        snr_db: fate.snr_feedback_db,
                        cause,
                    },
                );
            }
        }

        let t0 = self.profile.as_deref().map(|_| std::time::Instant::now());
        let port = &mut core.ports[tx.port];
        if outcome.acked {
            port.retries = 0;
            port.cw = CW_MIN;
            self.medium.on_acked(core, &tx);
        } else {
            port.retries += 1;
            if port.retries > MAX_RETRIES {
                port.retries = 0;
                port.cw = CW_MIN;
                self.medium.on_dropped(core, &tx);
            } else {
                port.cw = (port.cw * 2 + 1).min(CW_MAX);
            }
        }

        core.senders[tx.sender].busy = false;
        self.medium.after_outcome(core, tx.sender);
        if let (Some(t0), Some(p)) = (t0, self.profile.as_deref_mut()) {
            p.outcome_s += t0.elapsed().as_secs_f64();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softrate_adapt::misc::FixedRate;

    /// A loopback medium: `senders` saturated senders, one port each, on
    /// a perfect channel.
    struct Loopback {
        senders: usize,
        /// Sender of every acknowledged frame, in dispatch order.
        acked: Vec<usize>,
    }

    impl Medium for Loopback {
        type Event = ();
        type TxInfo = ();

        fn kickoff(&mut self, core: &mut MacCore<(), ()>) {
            for sender in 0..self.senders {
                core.schedule_tx_start(sender, None, sender);
            }
        }

        fn pick_port(&mut self, sender: usize) -> Option<usize> {
            Some(sender)
        }

        fn carrier_sense(&mut self, _core: &MacCore<(), ()>, _sender: usize) -> Option<f64> {
            None
        }

        fn begin_attempt(
            &mut self,
            _sender: usize,
            _port: usize,
            _now: f64,
            _attempt: &mut TxAttempt,
        ) -> AttemptInfo<()> {
            AttemptInfo {
                payload_bytes: 1440,
                counts_as_data: true,
                audit_best: Some(3),
                timeline: false,
                info: (),
            }
        }

        fn mark_collisions(&mut self, _tx: &mut ActiveTx<()>, _active: &mut [ActiveTx<()>]) {}

        fn fate(&mut self, _tx: &ActiveTx<()>) -> FrameFate {
            FrameFate {
                detected: true,
                header_ok: true,
                delivered: true,
                ber_feedback: Some(1e-9),
                snr_feedback_db: Some(25.0),
            }
        }

        fn on_acked(&mut self, core: &mut MacCore<(), ()>, tx: &ActiveTx<()>) {
            core.stats.frames_delivered += 1;
            self.acked.push(tx.sender);
        }

        fn on_dropped(&mut self, _core: &mut MacCore<(), ()>, _tx: &ActiveTx<()>) {}

        fn after_outcome(&mut self, core: &mut MacCore<(), ()>, sender: usize) {
            core.wake(sender, sender);
        }

        fn on_event(&mut self, _core: &mut MacCore<(), ()>, _ev: ()) {}
    }

    fn engine(senders: usize) -> MacEngine<Loopback> {
        let params = MacParams {
            postambles: false,
            detect_prob: 0.8,
            backoff_seed: 7,
            collision_seed: 7,
        };
        let ports = (0..senders)
            .map(|_| Port::new(Box::new(FixedRate::new(3, 6))))
            .collect();
        let medium = Loopback {
            senders,
            acked: Vec::new(),
        };
        MacEngine::new(senders, ports, params, medium)
    }

    #[test]
    fn loopback_medium_saturates_the_engine() {
        let mut e = engine(1);
        e.run(0.5);
        assert!(
            e.core.stats.frames_sent > 100,
            "{}",
            e.core.stats.frames_sent
        );
        // The final frame may still be inside its feedback window when the
        // clock runs out.
        assert!(e.core.stats.frames_sent - e.core.stats.frames_delivered <= 1);
        assert_eq!(e.core.stats.collisions, 0);
        assert_eq!(e.core.stats.silent_losses, 0);
        assert_eq!(e.core.stats.audit.accurate, e.core.stats.frames_sent);
        // Each resolved frame is >= 3 events (TxStart, TxEnd, Outcome).
        assert!(e.core.stats.events_processed >= 3 * e.core.stats.frames_delivered);
        assert_eq!(e.medium.acked.len() as u64, e.core.stats.frames_delivered);
    }

    #[test]
    fn engine_runs_are_deterministic() {
        let (mut a, mut b) = (engine(1), engine(1));
        a.run(0.3);
        b.run(0.3);
        assert_eq!(a.core.stats.frames_sent, b.core.stats.frames_sent);
        assert_eq!(a.core.stats.events_processed, b.core.stats.events_processed);
    }

    #[test]
    fn audit_fractions_sum_to_one() {
        let a = RateAudit {
            overselect: 1,
            accurate: 2,
            underselect: 1,
        };
        let (o, acc, u) = a.fractions();
        assert!((o + acc + u - 1.0).abs() < 1e-12);
        assert_eq!(a.total(), 4);
    }
}
