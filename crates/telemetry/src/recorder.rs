//! The [`Recorder`]: the seam the simulators thread telemetry through.
//!
//! One recorder observes one run. The MAC engine, the transport layer and
//! the media call its `on_*` hooks at the points where the observed facts
//! are decided (the medium knows *why* a frame died; the transport knows
//! the RTT sample); the recorder only accumulates — it never draws
//! randomness, schedules events, or feeds anything back into the
//! simulation, which is what makes the enabled and disabled paths produce
//! bit-identical runs.
//!
//! Interval sampling is *lazy*: rather than scheduling sampling events
//! (which would perturb `events_processed`), every hook first closes all
//! sampling intervals that ended strictly before its timestamp. Because
//! hook timestamps are the simulation clock — which never goes backwards —
//! closed intervals are final, and the rows come out in deterministic
//! (time, station) order regardless of host thread count.

use std::borrow::Cow;
use std::collections::VecDeque;

use crate::histogram::LogHistogram;
use crate::rows::{
    AnomalyRow, DecisionRow, FaultRow, HistRow, IntervalRow, ReassocRow, TotalsRow, TraceRow,
};

/// Why a failed attempt failed. Decided where the fate is decided: the
/// engine combines the medium's corruption bookkeeping with the feedback
/// outcome, so every failure gets exactly one cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossCause {
    /// Corrupted by a concurrent same-cell transmission.
    Collision,
    /// Lost to the channel itself (fading, noise) with no interferer.
    Fading,
    /// Corrupted by an inter-cell transmission the capture effect did not
    /// suppress (spatial media only).
    InterferenceCapture,
    /// Killed by an injected AP/receiver outage (`softrate-faults`).
    Outage,
    /// Killed by an injected jammer burst (`softrate-faults`).
    Jamming,
}

impl LossCause {
    /// Short serialized name.
    pub fn name(self) -> &'static str {
        match self {
            LossCause::Collision => "collision",
            LossCause::Fading => "fading",
            LossCause::InterferenceCapture => "capture",
            LossCause::Outage => "outage",
            LossCause::Jamming => "jamming",
        }
    }
}

/// Recorder configuration: sampling interval, trace filters, flight
/// recorder sizing, anomaly thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct RecorderConfig {
    /// Metrics sampling interval, simulated seconds.
    pub interval: f64,
    /// Whether frame-lifecycle tracing (and the flight recorder) is on.
    pub trace: bool,
    /// Whether the rate-decision ledger is on.
    pub decisions: bool,
    /// Restrict the streamed trace to one station.
    pub trace_station: Option<usize>,
    /// Streamed-trace window start, simulated seconds.
    pub trace_from: f64,
    /// Streamed-trace window end, simulated seconds.
    pub trace_until: f64,
    /// Flight-recorder ring capacity, records.
    pub ring_capacity: usize,
    /// Anomaly rule: failed attempts per station per interval at or above
    /// this trips a `retry-storm`.
    pub retry_storm: u64,
    /// Anomaly rule: a station that delivered at least this many frames
    /// in one interval and zero in the next trips a `goodput-collapse`.
    pub collapse_min_delivered: u64,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            interval: 0.1,
            trace: false,
            decisions: false,
            trace_station: None,
            trace_from: 0.0,
            trace_until: f64::INFINITY,
            ring_capacity: 4096,
            retry_storm: 64,
            collapse_min_delivered: 10,
        }
    }
}

/// Everything the telemetry of one run produced, ready to serialize.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    /// Per-station per-interval rows, in (interval, station) order.
    pub intervals: Vec<IntervalRow>,
    /// Per-station whole-run totals.
    pub totals: Vec<TotalsRow>,
    /// Whole-run histograms (access delay, airtime, TCP RTT).
    pub hists: Vec<HistRow>,
    /// Anomalies detected at interval boundaries.
    pub anomalies: Vec<AnomalyRow>,
    /// Fault-injection lifecycle events, in event order (empty on
    /// faults-off runs).
    pub faults: Vec<FaultRow>,
    /// Fault-driven re-associations, in completion order.
    pub reassocs: Vec<ReassocRow>,
    /// Streamed + flight-recorder-dumped frame-lifecycle records.
    pub trace: Vec<TraceRow>,
    /// Rate-decision ledger rows, in decision order.
    pub decisions: Vec<DecisionRow>,
}

impl TelemetryReport {
    /// Stamps `run_idx` into every row (the scenario engine writes many
    /// runs into one stream, in run order).
    pub fn stamp_run_idx(&mut self, run_idx: u64) {
        for r in &mut self.intervals {
            r.run_idx = run_idx;
        }
        for r in &mut self.totals {
            r.run_idx = run_idx;
        }
        for r in &mut self.hists {
            r.run_idx = run_idx;
        }
        for r in &mut self.anomalies {
            r.run_idx = run_idx;
        }
        for r in &mut self.faults {
            r.run_idx = run_idx;
        }
        for r in &mut self.reassocs {
            r.run_idx = run_idx;
        }
        for r in &mut self.trace {
            r.run_idx = run_idx;
        }
        for r in &mut self.decisions {
            r.run_idx = run_idx;
        }
    }

    /// The metrics stream: interval rows, then totals, then histograms,
    /// then anomalies, then fault lifecycle events, then
    /// re-associations, one JSON object per line.
    pub fn metrics_jsonl(&self) -> String {
        let mut out = String::new();
        push_lines(&mut out, &self.intervals);
        push_lines(&mut out, &self.totals);
        push_lines(&mut out, &self.hists);
        push_lines(&mut out, &self.anomalies);
        push_lines(&mut out, &self.faults);
        push_lines(&mut out, &self.reassocs);
        out.shrink_to_fit();
        out
    }

    /// The trace stream: frame-lifecycle rows, one JSON object per line.
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        push_lines(&mut out, &self.trace);
        out.shrink_to_fit();
        out
    }

    /// The decision ledger: one JSON object per rate decision.
    pub fn decisions_jsonl(&self) -> String {
        let mut out = String::new();
        push_lines(&mut out, &self.decisions);
        out.shrink_to_fit();
        out
    }
}

/// Appends `rows` to `out` as JSON lines.
fn push_lines<T: serde::Serialize>(out: &mut String, rows: &[T]) {
    for row in rows {
        serde_json::append(out, row);
        out.push('\n');
    }
}

/// `rows` without its growth slack: a report holds its rows until the
/// caller renders them, so spare capacity would be dead heap until then.
fn exact<T>(mut rows: Vec<T>) -> Vec<T> {
    rows.shrink_to_fit();
    rows
}

/// One resolved MAC attempt, as reported by the engine at the close of
/// the feedback window (grouped into a struct because the outcome is the
/// widest telemetry point).
#[derive(Debug, Clone, Copy)]
pub struct OutcomeEvent {
    /// Station (flow) the frame belongs to.
    pub station: usize,
    /// Physical transmitter index.
    pub sender: usize,
    /// Transmission id.
    pub tx_id: u64,
    /// Transmit rate index.
    pub rate_idx: usize,
    /// The port's attempt counter at transmit time.
    pub attempt: u64,
    /// Whether the frame was acknowledged.
    pub acked: bool,
    /// Whether a failed frame exhausted its retries and was dropped.
    pub dropped: bool,
    /// Whether the frame counts as data (vs. protocol feedback).
    pub counts_as_data: bool,
    /// On-air payload size, bytes.
    pub payload_bytes: usize,
    /// Frame air time, seconds.
    pub airtime_s: f64,
    /// Per-frame SNR feedback, dB, when the header decoded.
    pub snr_db: Option<f64>,
    /// Loss attribution; `Some` exactly when `!acked`.
    pub cause: Option<LossCause>,
}

/// One rate-adaptation decision, as reported by the engine (the engine
/// resolves the adapter's `softrate_core`-side decision record into
/// station/port coordinates and trigger names before calling the hook).
#[derive(Debug, Clone, Copy)]
pub struct DecisionEvent {
    /// Station (flow) the deciding port belongs to.
    pub station: usize,
    /// Port index inside the simulator.
    pub port: usize,
    /// Adapter short name.
    pub adapter: &'static str,
    /// Rate index before the decision.
    pub old_rate: usize,
    /// Rate index after the decision.
    pub new_rate: usize,
    /// Trigger class name (`ack`, `loss`, `timeout`, `probe`,
    /// `handoff_preserve`, `handoff_reset`).
    pub trigger: &'static str,
    /// SNR input at decision time, dB.
    pub snr_db: Option<f64>,
    /// BER input at decision time.
    pub ber: Option<f64>,
    /// Adapter-specific reason code.
    pub reason: &'static str,
}

/// Per-station accumulator for the open interval (and, with a different
/// lifetime, the whole run).
#[derive(Debug, Clone, Copy, Default)]
struct Accum {
    touched: bool,
    attempts: u64,
    frames_sent: u64,
    frames_delivered: u64,
    retries: u64,
    drops: u64,
    data_bytes: u64,
    loss_collision: u64,
    loss_fading: u64,
    loss_capture: u64,
    loss_outage: u64,
    loss_jamming: u64,
    handoffs: u64,
    air_s: f64,
    rate_idx: Option<u64>,
    snr_db: Option<f64>,
    queue_depth: Option<u64>,
    cwnd: Option<f64>,
    rto_s: Option<f64>,
    rtt_s: Option<f64>,
}

impl Accum {
    fn fold_into(&self, tot: &mut Accum) {
        tot.touched |= self.touched;
        tot.attempts += self.attempts;
        tot.frames_sent += self.frames_sent;
        tot.frames_delivered += self.frames_delivered;
        tot.retries += self.retries;
        tot.drops += self.drops;
        tot.data_bytes += self.data_bytes;
        tot.loss_collision += self.loss_collision;
        tot.loss_fading += self.loss_fading;
        tot.loss_capture += self.loss_capture;
        tot.loss_outage += self.loss_outage;
        tot.loss_jamming += self.loss_jamming;
        tot.handoffs += self.handoffs;
        tot.air_s += self.air_s;
    }
}

/// The per-run telemetry accumulator. See the module docs for the
/// determinism contract.
#[derive(Debug, Clone)]
pub struct Recorder {
    cfg: RecorderConfig,
    cur: Vec<Accum>,
    totals: Vec<Accum>,
    prev_delivered: Vec<u64>,
    cur_idx: u64,
    /// Per-sender start of the current channel-access period (NaN = none).
    access_start: Vec<f64>,
    h_access: LogHistogram,
    h_airtime: LogHistogram,
    h_rtt: LogHistogram,
    intervals: Vec<IntervalRow>,
    anomalies: Vec<AnomalyRow>,
    faults: Vec<FaultRow>,
    reassocs: Vec<ReassocRow>,
    /// Fault classes currently active (label per started-but-unended
    /// fault).
    active_faults: Vec<&'static str>,
    /// Fault classes active at any point during the open interval —
    /// seeded from `active_faults` every time an interval closes.
    interval_faults: Vec<&'static str>,
    trace: Vec<TraceRow>,
    decisions: Vec<DecisionRow>,
    ring: VecDeque<TraceRow>,
}

/// Finest histogram resolution: 1 µs (a slot is 9 µs).
const HIST_BASE_S: f64 = 1e-6;

impl Recorder {
    /// A recorder for a run with `n_stations` stations (flows) driven by
    /// `n_senders` physical transmitters.
    pub fn new(cfg: RecorderConfig, n_stations: usize, n_senders: usize) -> Self {
        assert!(cfg.interval > 0.0, "sampling interval must be positive");
        Recorder {
            cur: vec![Accum::default(); n_stations],
            totals: vec![Accum::default(); n_stations],
            prev_delivered: vec![0; n_stations],
            cur_idx: 0,
            access_start: vec![f64::NAN; n_senders],
            h_access: LogHistogram::new(HIST_BASE_S),
            h_airtime: LogHistogram::new(HIST_BASE_S),
            h_rtt: LogHistogram::new(HIST_BASE_S),
            intervals: Vec::new(),
            anomalies: Vec::new(),
            faults: Vec::new(),
            reassocs: Vec::new(),
            active_faults: Vec::new(),
            interval_faults: Vec::new(),
            trace: Vec::new(),
            decisions: Vec::new(),
            ring: VecDeque::new(),
            cfg,
        }
    }

    /// The configuration this recorder runs under.
    pub fn config(&self) -> &RecorderConfig {
        &self.cfg
    }

    // --- interval machinery -------------------------------------------

    /// Closes every interval that ended at or before `now`.
    fn advance(&mut self, now: f64) {
        let idx = (now / self.cfg.interval).floor() as u64;
        while self.cur_idx < idx {
            let t0 = self.cur_idx as f64 * self.cfg.interval;
            let t1 = (self.cur_idx + 1) as f64 * self.cfg.interval;
            self.close_interval(t0, t1);
            self.cur_idx += 1;
        }
    }

    /// Emits rows for the open interval `[t0, t1)` and resets it.
    fn close_interval(&mut self, t0: f64, t1: f64) {
        let span = (t1 - t0).max(1e-12);
        // Fault tag: every class active at any point during the interval,
        // sorted and deduplicated so the label is order-independent.
        let fault_tag = if self.interval_faults.is_empty() {
            None
        } else {
            let mut labels = self.interval_faults.clone();
            labels.sort();
            labels.dedup();
            Some(labels.join(","))
        };
        // The next interval starts with whatever is still active.
        self.interval_faults = self.active_faults.clone();
        let mut dump = false;
        for st in 0..self.cur.len() {
            let a = std::mem::take(&mut self.cur[st]);
            a.fold_into(&mut self.totals[st]);
            if a.touched {
                self.intervals.push(IntervalRow {
                    kind: Cow::Borrowed("interval"),
                    run_idx: 0,
                    station: st as u64,
                    t0,
                    t1,
                    attempts: a.attempts,
                    frames_sent: a.frames_sent,
                    frames_delivered: a.frames_delivered,
                    retries: a.retries,
                    drops: a.drops,
                    goodput_bps: a.data_bytes as f64 * 8.0 / span,
                    loss_collision: a.loss_collision,
                    loss_fading: a.loss_fading,
                    loss_capture: a.loss_capture,
                    loss_outage: a.loss_outage,
                    loss_jamming: a.loss_jamming,
                    rate_idx: a.rate_idx,
                    snr_db: a.snr_db,
                    queue_depth: a.queue_depth,
                    cwnd: a.cwnd,
                    rto_s: a.rto_s,
                    rtt_s: a.rtt_s,
                    handoffs: a.handoffs,
                    fault: fault_tag.clone(),
                });
            }
            if a.retries >= self.cfg.retry_storm {
                self.anomalies.push(AnomalyRow {
                    kind: Cow::Borrowed("anomaly"),
                    run_idx: 0,
                    station: st as u64,
                    t: t1,
                    anomaly: Cow::Borrowed("retry-storm"),
                    detail: format!("{} failed attempts in one interval", a.retries),
                });
                dump = true;
            }
            if self.prev_delivered[st] >= self.cfg.collapse_min_delivered && a.frames_delivered == 0
            {
                self.anomalies.push(AnomalyRow {
                    kind: Cow::Borrowed("anomaly"),
                    run_idx: 0,
                    station: st as u64,
                    t: t1,
                    anomaly: Cow::Borrowed("goodput-collapse"),
                    detail: format!(
                        "delivered {} then 0 in the next interval",
                        self.prev_delivered[st]
                    ),
                });
                dump = true;
            }
            self.prev_delivered[st] = a.frames_delivered;
        }
        if dump && self.cfg.trace {
            // Flight recorder: replay the ring into the trace stream so
            // the records leading up to the anomaly survive even if the
            // stream filter excluded them.
            for mut row in self.ring.drain(..) {
                row.dump = true;
                self.trace.push(row);
            }
        }
    }

    // --- tracing -------------------------------------------------------

    fn trace_row(&mut self, row: TraceRow) {
        if !self.cfg.trace {
            return;
        }
        let pass = self
            .cfg
            .trace_station
            .is_none_or(|s| s as u64 == row.station)
            && row.t >= self.cfg.trace_from
            && row.t < self.cfg.trace_until;
        if self.ring.len() == self.cfg.ring_capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(row.clone());
        if pass {
            self.trace.push(row);
        }
    }

    fn frame_row(t: f64, station: usize, sender: usize, ev: &'static str) -> TraceRow {
        TraceRow {
            kind: Cow::Borrowed("frame"),
            run_idx: 0,
            t,
            station: station as u64,
            sender: sender as u64,
            ev: Cow::Borrowed(ev),
            tx_id: None,
            rate_idx: None,
            attempt: None,
            airtime_s: None,
            snr_db: None,
            cause: None,
            queue_depth: None,
            dump: false,
        }
    }

    // --- hooks ---------------------------------------------------------

    /// A frame entered a MAC queue that now holds `depth` frames.
    pub fn on_enqueue(&mut self, now: f64, station: usize, depth: usize) {
        self.advance(now);
        let a = &mut self.cur[station];
        a.touched = true;
        a.queue_depth = Some(depth as u64);
        if self.cfg.trace {
            let mut row = Self::frame_row(now, station, station, "enqueue");
            row.queue_depth = Some(depth as u64);
            self.trace_row(row);
        }
    }

    /// `sender` began contending for the channel (first backoff schedule
    /// of an access period). No-op while a period is already open.
    pub fn mark_access_start(&mut self, sender: usize, now: f64) {
        if self.access_start[sender].is_nan() {
            self.access_start[sender] = now;
        }
    }

    /// `sender` had nothing to send: the access period (if any) ends.
    pub fn clear_access_start(&mut self, sender: usize) {
        self.access_start[sender] = f64::NAN;
    }

    /// `sender` sensed the medium busy and deferred.
    pub fn on_defer(&mut self, now: f64, station: usize, sender: usize) {
        self.advance(now);
        self.cur[station].touched = true;
        if self.cfg.trace {
            self.trace_row(Self::frame_row(now, station, sender, "defer"));
        }
    }

    /// A frame went on the air: closes the sender's access period and
    /// records the access delay.
    #[allow(clippy::too_many_arguments)]
    pub fn on_tx(
        &mut self,
        now: f64,
        station: usize,
        sender: usize,
        tx_id: u64,
        rate_idx: usize,
        attempt: u64,
        airtime_s: f64,
    ) {
        self.advance(now);
        let started = self.access_start[sender];
        self.access_start[sender] = f64::NAN;
        let delay = if started.is_nan() { 0.0 } else { now - started };
        self.h_access.record(delay);
        self.cur[station].touched = true;
        if self.cfg.trace {
            let mut row = Self::frame_row(now, station, sender, "tx");
            row.tx_id = Some(tx_id);
            row.rate_idx = Some(rate_idx as u64);
            row.attempt = Some(attempt);
            row.airtime_s = Some(airtime_s);
            self.trace_row(row);
        }
    }

    /// The feedback window of an attempt closed: the widest telemetry
    /// point (counters, attribution, gauges, airtime histogram, trace).
    pub fn on_outcome(&mut self, now: f64, ev: OutcomeEvent) {
        debug_assert_eq!(ev.acked, ev.cause.is_none(), "cause iff failed");
        self.advance(now);
        self.h_airtime.record(ev.airtime_s);
        let a = &mut self.cur[ev.station];
        a.touched = true;
        a.attempts += 1;
        a.air_s += ev.airtime_s;
        a.rate_idx = Some(ev.rate_idx as u64);
        if ev.snr_db.is_some() {
            a.snr_db = ev.snr_db;
        }
        if ev.counts_as_data {
            a.frames_sent += 1;
        }
        if ev.acked {
            if ev.counts_as_data {
                a.frames_delivered += 1;
                a.data_bytes += ev.payload_bytes as u64;
            }
        } else {
            a.retries += 1;
            match ev.cause {
                Some(LossCause::Collision) => a.loss_collision += 1,
                Some(LossCause::Fading) => a.loss_fading += 1,
                Some(LossCause::InterferenceCapture) => a.loss_capture += 1,
                Some(LossCause::Outage) => a.loss_outage += 1,
                Some(LossCause::Jamming) => a.loss_jamming += 1,
                None => {}
            }
            if ev.dropped {
                a.drops += 1;
            }
        }
        if self.cfg.trace {
            let step = if ev.acked {
                "ack"
            } else if ev.dropped {
                "drop"
            } else {
                "retry"
            };
            let mut row = Self::frame_row(now, ev.station, ev.sender, step);
            row.tx_id = Some(ev.tx_id);
            row.rate_idx = Some(ev.rate_idx as u64);
            row.attempt = Some(ev.attempt);
            row.airtime_s = Some(ev.airtime_s);
            row.snr_db = ev.snr_db;
            row.cause = ev.cause.map(|c| Cow::Borrowed(c.name()));
            self.trace_row(row);
        }
    }

    /// A TCP cumulative ACK was processed on `station`'s flow.
    pub fn on_tcp_ack(
        &mut self,
        now: f64,
        station: usize,
        rtt_s: Option<f64>,
        cwnd: f64,
        rto_s: f64,
    ) {
        self.advance(now);
        let a = &mut self.cur[station];
        a.touched = true;
        a.cwnd = Some(cwnd);
        a.rto_s = Some(rto_s);
        if let Some(rtt) = rtt_s {
            a.rtt_s = Some(rtt);
            self.h_rtt.record(rtt);
        }
        if self.cfg.trace {
            let mut row = Self::frame_row(now, station, station, "tcp_ack");
            row.airtime_s = rtt_s;
            self.trace_row(row);
        }
    }

    /// A rate-adaptation decision was made. Ledger rows are appended in
    /// call order — the engine calls this from its (single-threaded,
    /// deterministic) event loop, so the ledger is byte-identical across
    /// host thread counts. The hook touches no interval or histogram
    /// state: enabling the ledger never changes the other two streams.
    pub fn on_decision(&mut self, now: f64, ev: DecisionEvent) {
        if !self.cfg.decisions {
            return;
        }
        self.decisions.push(DecisionRow {
            kind: Cow::Borrowed("decision"),
            run_idx: 0,
            t_us: (now * 1e6).round() as u64,
            station: ev.station as u64,
            port: ev.port as u64,
            adapter: Cow::Borrowed(ev.adapter),
            old_rate: ev.old_rate as u64,
            new_rate: ev.new_rate as u64,
            trigger: Cow::Borrowed(ev.trigger),
            snr_db: ev.snr_db,
            ber: ev.ber,
            reason: Cow::Borrowed(ev.reason),
        });
    }

    /// Whether the engine should bother collecting decisions at all.
    pub fn wants_decisions(&self) -> bool {
        self.cfg.decisions
    }

    /// An injected fault started (`phase = "start"`) or ended
    /// (`phase = "end"`). Inert like every hook: records the lifecycle
    /// row and maintains the active-fault label set that tags interval
    /// rows — never touches counters or histograms.
    pub fn on_fault(&mut self, now: f64, fault: &'static str, phase: &'static str, detail: String) {
        self.advance(now);
        self.faults.push(FaultRow {
            kind: Cow::Borrowed("fault"),
            run_idx: 0,
            t: now,
            fault: Cow::Borrowed(fault),
            phase: Cow::Borrowed(phase),
            detail,
        });
        match phase {
            "start" => {
                self.active_faults.push(fault);
                self.interval_faults.push(fault);
            }
            _ => {
                if let Some(i) = self.active_faults.iter().position(|&f| f == fault) {
                    self.active_faults.remove(i);
                }
            }
        }
    }

    /// `station` re-associated away from a dark AP, `outage_s` seconds
    /// after the outage began (the time-to-reassociate metric).
    pub fn on_reassoc(
        &mut self,
        now: f64,
        station: usize,
        from_ap: usize,
        to_ap: usize,
        outage_s: f64,
    ) {
        self.advance(now);
        self.reassocs.push(ReassocRow {
            kind: Cow::Borrowed("reassoc"),
            run_idx: 0,
            t: now,
            station: station as u64,
            from_ap: from_ap as u64,
            to_ap: to_ap as u64,
            outage_s,
        });
    }

    /// `station` completed a handoff.
    pub fn on_handoff(&mut self, now: f64, station: usize) {
        self.advance(now);
        let a = &mut self.cur[station];
        a.touched = true;
        a.handoffs += 1;
        if self.cfg.trace {
            self.trace_row(Self::frame_row(now, station, station, "handoff"));
        }
    }

    // --- finalization --------------------------------------------------

    /// Closes the run at `duration` seconds and produces the report:
    /// every complete interval, the final partial interval (if any),
    /// per-station totals, and the three histograms.
    pub fn finish(mut self, duration: f64) -> TelemetryReport {
        self.advance(duration);
        let t0 = self.cur_idx as f64 * self.cfg.interval;
        if duration - t0 > 1e-12 {
            self.close_interval(t0, duration);
        }
        let span = duration.max(1e-12);
        let touched = self.totals.iter().filter(|a| a.touched).count();
        let mut totals = Vec::with_capacity(touched);
        for (st, a) in self.totals.iter().enumerate() {
            if !a.touched {
                continue;
            }
            totals.push(TotalsRow {
                kind: Cow::Borrowed("totals"),
                run_idx: 0,
                station: st as u64,
                attempts: a.attempts,
                frames_sent: a.frames_sent,
                frames_delivered: a.frames_delivered,
                retries: a.retries,
                drops: a.drops,
                goodput_bps: a.data_bytes as f64 * 8.0 / span,
                loss_collision: a.loss_collision,
                loss_fading: a.loss_fading,
                loss_capture: a.loss_capture,
                loss_outage: a.loss_outage,
                loss_jamming: a.loss_jamming,
                handoffs: a.handoffs,
                air_s: a.air_s,
            });
        }
        let hists = vec![
            self.h_access.to_row("access_delay", "s", 0),
            self.h_airtime.to_row("airtime", "s", 0),
            self.h_rtt.to_row("tcp_rtt", "s", 0),
        ];
        TelemetryReport {
            intervals: exact(self.intervals),
            totals,
            hists,
            anomalies: exact(self.anomalies),
            faults: exact(self.faults),
            reassocs: exact(self.reassocs),
            trace: exact(self.trace),
            decisions: exact(self.decisions),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(station: usize, acked: bool, cause: Option<LossCause>) -> OutcomeEvent {
        OutcomeEvent {
            station,
            sender: station,
            tx_id: 1,
            rate_idx: 3,
            attempt: 1,
            acked,
            dropped: false,
            counts_as_data: true,
            payload_bytes: 1440,
            airtime_s: 500e-6,
            snr_db: Some(17.5),
            cause,
        }
    }

    #[test]
    fn intervals_close_lazily_and_attribute_losses() {
        let cfg = RecorderConfig {
            interval: 0.1,
            ..RecorderConfig::default()
        };
        let mut r = Recorder::new(cfg, 2, 2);
        r.on_outcome(0.05, outcome(0, true, None));
        r.on_outcome(0.07, outcome(1, false, Some(LossCause::Collision)));
        // Crossing into interval 2 closes interval 0 only.
        r.on_outcome(0.25, outcome(0, false, Some(LossCause::Fading)));
        let rep = r.finish(0.30);
        // Interval [0,0.1): both stations; [0.2,0.3): station 0.
        assert_eq!(rep.intervals.len(), 3);
        assert_eq!(rep.intervals[0].station, 0);
        assert_eq!(rep.intervals[0].frames_delivered, 1);
        assert!((rep.intervals[0].goodput_bps - 1440.0 * 8.0 / 0.1).abs() < 1e-6);
        assert_eq!(rep.intervals[1].station, 1);
        assert_eq!(rep.intervals[1].loss_collision, 1);
        assert_eq!(rep.intervals[2].t0, 0.2);
        assert_eq!(rep.intervals[2].loss_fading, 1);
        // Totals: every failure has exactly one cause.
        let t: &TotalsRow = &rep.totals[0];
        assert_eq!(
            t.retries,
            t.loss_collision + t.loss_fading + t.loss_capture + t.loss_outage + t.loss_jamming
        );
        assert_eq!(rep.hists.len(), 3);
        assert_eq!(rep.hists[1].count, 3); // airtime: one per outcome
    }

    #[test]
    fn fault_rows_tag_overlapping_intervals() {
        let cfg = RecorderConfig {
            interval: 0.1,
            ..RecorderConfig::default()
        };
        let mut r = Recorder::new(cfg, 1, 1);
        r.on_outcome(0.05, outcome(0, true, None));
        r.on_fault(0.15, "ap_outage", "start", "ap 1 down".to_string());
        r.on_outcome(0.17, outcome(0, false, Some(LossCause::Outage)));
        r.on_outcome(0.25, outcome(0, false, Some(LossCause::Jamming)));
        r.on_fault(0.28, "ap_outage", "end", "ap 1 up".to_string());
        r.on_outcome(0.35, outcome(0, true, None));
        let rep = r.finish(0.4);
        assert_eq!(rep.faults.len(), 2);
        assert_eq!(rep.faults[0].phase, "start");
        // [0,0.1): clean; [0.1,0.2) and [0.2,0.3): tagged; [0.3,0.4):
        // clean again (the fault ended in the previous interval).
        assert_eq!(rep.intervals.len(), 4);
        assert_eq!(rep.intervals[0].fault, None);
        assert_eq!(rep.intervals[1].fault, Some("ap_outage".to_string()));
        assert_eq!(rep.intervals[1].loss_outage, 1);
        assert_eq!(rep.intervals[2].fault, Some("ap_outage".to_string()));
        assert_eq!(rep.intervals[2].loss_jamming, 1);
        assert_eq!(rep.intervals[3].fault, None);
        // The five-way balance holds per interval under fault load.
        for row in &rep.intervals {
            assert_eq!(
                row.retries,
                row.loss_collision
                    + row.loss_fading
                    + row.loss_capture
                    + row.loss_outage
                    + row.loss_jamming
            );
        }
        // The metrics stream carries the lifecycle rows.
        assert!(rep.metrics_jsonl().contains("\"kind\":\"fault\""));
    }

    #[test]
    fn reassoc_rows_record_time_to_reassociate() {
        let mut r = Recorder::new(RecorderConfig::default(), 4, 4);
        r.on_reassoc(2.75, 3, 1, 0, 0.75);
        let rep = r.finish(3.0);
        assert_eq!(rep.reassocs.len(), 1);
        let row = &rep.reassocs[0];
        assert_eq!((row.station, row.from_ap, row.to_ap), (3, 1, 0));
        assert!((row.outage_s - 0.75).abs() < 1e-12);
        assert!(rep.metrics_jsonl().contains("\"kind\":\"reassoc\""));
    }

    #[test]
    fn access_delay_spans_deferrals() {
        let mut r = Recorder::new(RecorderConfig::default(), 1, 1);
        r.mark_access_start(0, 1.0);
        r.mark_access_start(0, 1.5); // ignored: period already open
        r.on_defer(1.2, 0, 0);
        r.on_tx(2.0, 0, 0, 1, 3, 1, 500e-6);
        let rep = r.finish(3.0);
        let access = &rep.hists[0];
        assert_eq!(access.count, 1);
        // Delay = 1.0 s, far above p50 of an empty histogram.
        assert!(access.p50 > 0.9 && access.p50 < 1.1, "p50 = {}", access.p50);
    }

    #[test]
    fn trace_filters_and_flight_recorder_dump() {
        let cfg = RecorderConfig {
            interval: 0.1,
            trace: true,
            trace_station: Some(1),
            retry_storm: 3,
            ..RecorderConfig::default()
        };
        let mut r = Recorder::new(cfg, 2, 2);
        // Station 0 is filtered out of the stream but rides the ring.
        for i in 0..3 {
            let mut ev = outcome(0, false, Some(LossCause::Fading));
            ev.tx_id = i;
            r.on_outcome(0.01 * (i + 1) as f64, ev);
        }
        r.on_outcome(0.05, outcome(1, true, None));
        let rep = r.finish(0.2);
        // Streamed: only station 1's ack...
        let streamed: Vec<_> = rep.trace.iter().filter(|t| !t.dump).collect();
        assert_eq!(streamed.len(), 1);
        assert_eq!(streamed[0].station, 1);
        // ...but the retry storm on station 0 dumped the ring.
        assert_eq!(rep.anomalies.len(), 1);
        assert_eq!(rep.anomalies[0].anomaly, "retry-storm");
        assert!(rep.trace.iter().filter(|t| t.dump).count() >= 3);
    }

    #[test]
    fn goodput_collapse_fires_on_silence() {
        let cfg = RecorderConfig {
            interval: 0.1,
            collapse_min_delivered: 2,
            ..RecorderConfig::default()
        };
        let mut r = Recorder::new(cfg, 1, 1);
        for i in 0..3 {
            let mut ev = outcome(0, true, None);
            ev.tx_id = i;
            r.on_outcome(0.01 * (i + 1) as f64, ev);
        }
        // Nothing in [0.1, 0.2): collapse detected at its close.
        let rep = r.finish(0.25);
        assert!(rep
            .anomalies
            .iter()
            .any(|a| a.anomaly == "goodput-collapse"));
    }

    #[test]
    fn decision_ledger_records_only_when_enabled() {
        let ev = DecisionEvent {
            station: 2,
            port: 2,
            adapter: "SoftRate",
            old_rate: 3,
            new_rate: 1,
            trigger: "loss",
            snr_db: None,
            ber: Some(2e-3),
            reason: "threshold-crossing",
        };
        let mut off = Recorder::new(RecorderConfig::default(), 4, 4);
        assert!(!off.wants_decisions());
        off.on_decision(0.123456, ev);
        assert!(off.finish(1.0).decisions.is_empty());
        let mut on = Recorder::new(
            RecorderConfig {
                decisions: true,
                ..RecorderConfig::default()
            },
            4,
            4,
        );
        assert!(on.wants_decisions());
        on.on_decision(0.123456, ev);
        let rep = on.finish(1.0);
        assert_eq!(rep.decisions.len(), 1);
        let row = &rep.decisions[0];
        assert_eq!(row.t_us, 123456);
        assert_eq!((row.old_rate, row.new_rate), (3, 1));
        assert_eq!(row.trigger, "loss");
        assert!(rep.decisions_jsonl().contains("\"kind\":\"decision\""));
    }

    /// Every row kind's derived JSON writer against the `Value` tree
    /// writer, and back through the parser.
    fn assert_writers_agree<T>(rows: &[T])
    where
        T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
    {
        assert!(
            !rows.is_empty(),
            "the recorded run must produce this row kind"
        );
        for row in rows {
            let text = serde_json::to_string(row).unwrap();
            assert_eq!(text, serde_json::to_string(&row.to_value()).unwrap());
            assert_eq!(&serde_json::from_str::<T>(&text).unwrap(), row);
        }
    }

    /// A run that produces every row kind: trace and ledger on, one
    /// jammer fault started and ended, a retry storm, a handoff and a
    /// re-association.
    fn every_kind_report() -> TelemetryReport {
        let cfg = RecorderConfig {
            interval: 0.1,
            trace: true,
            decisions: true,
            retry_storm: 2,
            ..RecorderConfig::default()
        };
        let mut r = Recorder::new(cfg, 2, 3);
        r.on_enqueue(0.01, 0, 3);
        r.mark_access_start(0, 0.01);
        r.on_defer(0.012, 0, 0);
        r.on_tx(0.02, 0, 0, 1, 3, 1, 500e-6);
        r.on_outcome(0.021, outcome(0, true, None));
        r.on_tcp_ack(0.03, 0, Some(0.012), 4.0, 0.2);
        r.on_fault(0.04, "jammer", "start", "burst \"a\"\tdown".to_string());
        for i in 0..3 {
            let mut ev = outcome(1, false, Some(LossCause::Jamming));
            ev.tx_id = 10 + i;
            r.on_outcome(0.05 + 0.01 * i as f64, ev);
        }
        r.on_fault(0.09, "jammer", "end", String::new());
        r.on_decision(
            0.11,
            DecisionEvent {
                station: 1,
                port: 1,
                adapter: "SoftRate",
                old_rate: 3,
                new_rate: 1,
                trigger: "loss",
                snr_db: None,
                ber: Some(2e-3),
                reason: "threshold-crossing",
            },
        );
        r.on_handoff(0.15, 1);
        r.on_reassoc(0.16, 1, 2, 0, 0.12);
        let mut rep = r.finish(0.3);
        rep.stamp_run_idx(5);
        rep
    }

    #[test]
    fn every_row_kind_writes_as_its_value_tree() {
        let rep = every_kind_report();
        assert_writers_agree(&rep.intervals);
        assert_writers_agree(&rep.totals);
        assert_writers_agree(&rep.hists);
        assert_writers_agree(&rep.anomalies);
        assert_writers_agree(&rep.faults);
        assert_writers_agree(&rep.reassocs);
        assert_writers_agree(&rep.trace);
        assert_writers_agree(&rep.decisions);
        // Each stream comes back at its exact size.
        for stream in [
            rep.metrics_jsonl(),
            rep.trace_jsonl(),
            rep.decisions_jsonl(),
        ] {
            assert_eq!(stream.capacity(), stream.len());
        }
    }

    #[test]
    fn report_rows_are_exact_size_and_borrow_their_names() {
        let rep = every_kind_report();
        fn exact<T>(rows: &Vec<T>) {
            assert!(!rows.is_empty());
            assert_eq!(rows.capacity(), rows.len());
        }
        exact(&rep.intervals);
        exact(&rep.totals);
        exact(&rep.hists);
        exact(&rep.anomalies);
        exact(&rep.faults);
        exact(&rep.reassocs);
        exact(&rep.trace);
        exact(&rep.decisions);
        let mut names: Vec<&Cow<'static, str>> = Vec::new();
        names.extend(rep.intervals.iter().map(|r| &r.kind));
        names.extend(rep.totals.iter().map(|r| &r.kind));
        names.extend(rep.hists.iter().flat_map(|r| [&r.kind, &r.metric, &r.unit]));
        names.extend(rep.anomalies.iter().flat_map(|r| [&r.kind, &r.anomaly]));
        names.extend(
            rep.faults
                .iter()
                .flat_map(|r| [&r.kind, &r.fault, &r.phase]),
        );
        names.extend(rep.reassocs.iter().map(|r| &r.kind));
        names.extend(rep.trace.iter().flat_map(|r| [&r.kind, &r.ev]));
        names.extend(rep.trace.iter().filter_map(|r| r.cause.as_ref()));
        names.extend(
            rep.decisions
                .iter()
                .flat_map(|r| [&r.kind, &r.adapter, &r.trigger, &r.reason]),
        );
        assert!(rep.trace.iter().any(|r| r.cause.is_some()));
        for name in names {
            assert!(matches!(name, Cow::Borrowed(_)), "{name:?} is owned");
        }
    }

    #[test]
    fn rendered_streams_parse_back_to_the_recorded_rows() {
        use crate::inspect::{parse_stream, Row};
        let rep = every_kind_report();
        let metrics: Vec<Row> = (rep.intervals.iter().cloned().map(Row::Interval))
            .chain(rep.totals.iter().cloned().map(Row::Totals))
            .chain(rep.hists.iter().cloned().map(Row::Hist))
            .chain(rep.anomalies.iter().cloned().map(Row::Anomaly))
            .chain(rep.faults.iter().cloned().map(Row::Fault))
            .chain(rep.reassocs.iter().cloned().map(Row::Reassoc))
            .collect();
        let decisions: Vec<Row> = rep.decisions.iter().cloned().map(Row::Decision).collect();
        assert_eq!(parse_stream(&rep.metrics_jsonl()).unwrap(), metrics);
        let parsed = parse_stream(&rep.decisions_jsonl()).unwrap();
        assert_eq!(parsed, decisions);
        // Parsed rows own their names.
        let Row::Decision(d) = &parsed[0] else {
            panic!("the ledger holds decision rows");
        };
        assert!(matches!(d.adapter, Cow::Owned(_)));
    }

    #[test]
    fn report_is_deterministic_and_stampable() {
        let mk = || {
            let mut r = Recorder::new(RecorderConfig::default(), 2, 2);
            r.on_enqueue(0.01, 0, 3);
            r.on_outcome(0.02, outcome(0, true, None));
            r.on_tcp_ack(0.03, 0, Some(0.012), 4.0, 0.2);
            r.finish(1.0)
        };
        let (a, mut b) = (mk(), mk());
        assert_eq!(a, b);
        assert_eq!(a.metrics_jsonl(), b.metrics_jsonl());
        b.stamp_run_idx(7);
        assert!(b.intervals.iter().all(|r| r.run_idx == 7));
        assert!(b.metrics_jsonl().contains("\"run_idx\":7"));
    }
}
