//! The serialized row types of the three telemetry streams.
//!
//! Every row carries a `kind` discriminator so a stream can be parsed
//! line-by-line without context: the metrics stream holds `"interval"`,
//! `"totals"`, `"hist"`, `"anomaly"`, `"fault"` and `"reassoc"` rows,
//! the trace stream `"frame"` rows, and the decision ledger `"decision"`
//! rows (one per
//! rate-adaptation decision). Field order is fixed by declaration order,
//! values are produced
//! deterministically by the [`crate::Recorder`], so two runs of the same
//! configuration — at any thread count — serialize byte-identically.
//!
//! Fields whose value comes from a fixed vocabulary (`kind`, adapter,
//! trigger, reason, metric and fault names, ...) are `Cow<'static, str>`:
//! the recorder borrows static names, so a row costs no heap for them,
//! and a row parsed back from JSONL owns its strings.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

/// One station's counters and gauges over one sampling interval.
///
/// Counters are attributed at *outcome* time (when the feedback window
/// closes), so a frame transmitted just before a boundary may land in the
/// next interval; gauges (`rate_idx`, `snr_db`, `queue_depth`, `cwnd`,
/// `rto_s`, `rtt_s`) hold the last value observed within the interval.
/// Stations with no activity in an interval emit no row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalRow {
    /// Row discriminator: always `"interval"`.
    pub kind: Cow<'static, str>,
    /// The run this row belongs to (stamped by the scenario engine).
    pub run_idx: u64,
    /// Station (flow) index.
    pub station: u64,
    /// Interval start, simulated seconds.
    pub t0: f64,
    /// Interval end, simulated seconds.
    pub t1: f64,
    /// MAC attempts resolved in the interval (data and feedback frames).
    pub attempts: u64,
    /// Data-frame attempts among them.
    pub frames_sent: u64,
    /// Data frames delivered intact.
    pub frames_delivered: u64,
    /// Failed attempts (each one causes a retry or a drop).
    pub retries: u64,
    /// Frames abandoned after exhausting the retry limit.
    pub drops: u64,
    /// Delivered data payload bytes × 8 / interval length, bit/s.
    pub goodput_bps: f64,
    /// Failed attempts attributed to a same-cell collision.
    pub loss_collision: u64,
    /// Failed attempts attributed to channel fading.
    pub loss_fading: u64,
    /// Failed attempts attributed to inter-cell interference capture.
    pub loss_capture: u64,
    /// Failed attempts attributed to an AP/receiver outage.
    pub loss_outage: u64,
    /// Failed attempts attributed to a jammer burst.
    pub loss_jamming: u64,
    /// Last transmit rate index observed in the interval.
    pub rate_idx: Option<u64>,
    /// Last per-frame SNR feedback observed, dB.
    pub snr_db: Option<f64>,
    /// Last MAC queue depth observed at an enqueue.
    pub queue_depth: Option<u64>,
    /// Last TCP congestion window observed, segments.
    pub cwnd: Option<f64>,
    /// Last TCP retransmission timeout observed, seconds.
    pub rto_s: Option<f64>,
    /// Last clean TCP RTT sample observed, seconds.
    pub rtt_s: Option<f64>,
    /// Handoffs completed in the interval.
    pub handoffs: u64,
    /// Comma-joined labels of the fault classes active anywhere in the
    /// interval (e.g. `"ap_outage"`, `"jammer,noise_step"`); `None` when
    /// no fault overlapped the interval — and always `None` on
    /// faults-off runs, keeping their bytes identical to before the
    /// fault subsystem existed.
    pub fault: Option<String>,
}

/// One station's whole-run totals (one row per station at run end).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TotalsRow {
    /// Row discriminator: always `"totals"`.
    pub kind: Cow<'static, str>,
    /// The run this row belongs to.
    pub run_idx: u64,
    /// Station (flow) index.
    pub station: u64,
    /// MAC attempts resolved over the run.
    pub attempts: u64,
    /// Data-frame attempts among them.
    pub frames_sent: u64,
    /// Data frames delivered intact.
    pub frames_delivered: u64,
    /// Failed attempts.
    pub retries: u64,
    /// Frames dropped after the retry limit.
    pub drops: u64,
    /// Delivered data payload bytes × 8 / run duration, bit/s.
    pub goodput_bps: f64,
    /// Failed attempts attributed to same-cell collisions.
    pub loss_collision: u64,
    /// Failed attempts attributed to channel fading.
    pub loss_fading: u64,
    /// Failed attempts attributed to inter-cell interference capture.
    pub loss_capture: u64,
    /// Failed attempts attributed to an AP/receiver outage.
    pub loss_outage: u64,
    /// Failed attempts attributed to a jammer burst.
    pub loss_jamming: u64,
    /// Handoffs completed over the run.
    pub handoffs: u64,
    /// Total air occupancy of this station's resolved attempts, seconds.
    pub air_s: f64,
}

/// One log-bucketed histogram (see [`crate::LogHistogram`]), serialized
/// as sparse `(bucket_index, count)` pairs plus precomputed percentiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistRow {
    /// Row discriminator: always `"hist"`.
    pub kind: Cow<'static, str>,
    /// The run this row belongs to.
    pub run_idx: u64,
    /// Metric name (`access_delay`, `airtime`, `tcp_rtt`).
    pub metric: Cow<'static, str>,
    /// Unit of recorded values (`s`).
    pub unit: Cow<'static, str>,
    /// Bucketing base: values below it land in the underflow bucket.
    pub base: f64,
    /// Total recorded values.
    pub count: u64,
    /// Values below `base`.
    pub underflow: u64,
    /// 50th percentile (geometric bucket midpoint).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Sparse `(bucket index, count)` pairs, ascending by index.
    pub buckets: Vec<(u64, u64)>,
}

/// An anomaly the recorder detected at an interval boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnomalyRow {
    /// Row discriminator: always `"anomaly"`.
    pub kind: Cow<'static, str>,
    /// The run this row belongs to.
    pub run_idx: u64,
    /// Station the anomaly was detected on.
    pub station: u64,
    /// End of the interval that tripped the rule, simulated seconds.
    pub t: f64,
    /// Rule that tripped: `"retry-storm"` or `"goodput-collapse"`.
    pub anomaly: Cow<'static, str>,
    /// Human-readable numbers behind the verdict.
    pub detail: String,
}

/// One frame-lifecycle trace record.
///
/// `ev` is one of `enqueue`, `defer`, `tx`, `ack`, `retry`, `drop`,
/// `tcp_ack`, `handoff`; the optional fields are populated where they
/// make sense for the event. Rows with `dump = true` were replayed out of
/// the flight-recorder ring when an anomaly fired (they may duplicate
/// rows already streamed through the station/time filter).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRow {
    /// Row discriminator: always `"frame"`.
    pub kind: Cow<'static, str>,
    /// The run this row belongs to.
    pub run_idx: u64,
    /// Event time, simulated seconds.
    pub t: f64,
    /// Station (flow) the frame belongs to.
    pub station: u64,
    /// Physical transmitter index (a station, or the AP).
    pub sender: u64,
    /// Lifecycle step.
    pub ev: Cow<'static, str>,
    /// Transmission id, for steps tied to one attempt.
    pub tx_id: Option<u64>,
    /// Transmit rate index.
    pub rate_idx: Option<u64>,
    /// The port's attempt counter at transmit time.
    pub attempt: Option<u64>,
    /// Frame air time, seconds.
    pub airtime_s: Option<f64>,
    /// Per-frame SNR feedback, dB.
    pub snr_db: Option<f64>,
    /// Loss attribution (`collision`, `fading`, `capture`, `outage`,
    /// `jamming`) on failures.
    pub cause: Option<Cow<'static, str>>,
    /// MAC queue depth after an enqueue.
    pub queue_depth: Option<u64>,
    /// This row was dumped from the flight-recorder ring on an anomaly.
    pub dump: bool,
}

/// One fault-injection lifecycle event (metrics stream).
///
/// Emitted when an injected fault starts or ends, so resilience
/// analysis can window the metrics around each disturbance without
/// re-parsing the scenario spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRow {
    /// Row discriminator: always `"fault"`.
    pub kind: Cow<'static, str>,
    /// The run this row belongs to.
    pub run_idx: u64,
    /// Event time, simulated seconds.
    pub t: f64,
    /// Fault class: `ap_outage`, `jammer`, `noise_step`, `churn_join`,
    /// or `churn_leave`.
    pub fault: Cow<'static, str>,
    /// Lifecycle phase: `"start"` or `"end"`.
    pub phase: Cow<'static, str>,
    /// Human-readable specifics (which AP, how many frames dropped,
    /// the SNR delta, ...).
    pub detail: String,
}

/// One fault-driven re-association (metrics stream): a station found a
/// new AP while its old one was dark. `outage_s` is the station's
/// time-to-reassociate — the headline resilience metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReassocRow {
    /// Row discriminator: always `"reassoc"`.
    pub kind: Cow<'static, str>,
    /// The run this row belongs to.
    pub run_idx: u64,
    /// Handoff completion time, simulated seconds.
    pub t: f64,
    /// Station that re-homed.
    pub station: u64,
    /// The AP it fled (the one that went dark).
    pub from_ap: u64,
    /// The AP it landed on.
    pub to_ap: u64,
    /// Seconds between the outage start and this re-association.
    pub outage_s: f64,
}

/// One rate-adaptation decision (the decision-ledger stream).
///
/// Emitted at the moment an adapter changes (or deliberately deviates
/// from) its current rate, or when the engine/medium overrides the
/// adapter's choice (the spatial omniscient oracle, roaming handoffs).
/// Rows appear in deterministic (time, station, call) order, so the
/// ledger is byte-identical across thread counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionRow {
    /// Row discriminator: always `"decision"`.
    pub kind: Cow<'static, str>,
    /// The run this row belongs to.
    pub run_idx: u64,
    /// Decision time, integer simulated microseconds.
    pub t_us: u64,
    /// Station (flow) the deciding port belongs to.
    pub station: u64,
    /// Port index inside the simulator (uplink/downlink ports differ).
    pub port: u64,
    /// Adapter short name ("SoftRate", "SampleRate", ...).
    pub adapter: Cow<'static, str>,
    /// Rate index before the decision.
    pub old_rate: u64,
    /// Rate index after the decision.
    pub new_rate: u64,
    /// Trigger class: `ack`, `loss`, `timeout`, `probe`,
    /// `handoff_preserve`, or `handoff_reset`.
    pub trigger: Cow<'static, str>,
    /// SNR input observed at decision time, dB (if any).
    pub snr_db: Option<f64>,
    /// BER input observed at decision time (if any).
    pub ber: Option<f64>,
    /// Adapter-specific reason code (e.g. `threshold-crossing`,
    /// `airtime-table-winner`, `silent-loss-limit`).
    pub reason: Cow<'static, str>,
}
