//! The logic behind the `softrate-inspect` binary: parse, summarize,
//! validate, diff, and analyze telemetry JSONL streams (including the
//! rate-decision ledger: `timeline`, `adapt`, `compare`).
//!
//! Kept in the library (rather than the binary) so the operations are
//! unit-testable and available to other tools.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::{Deserialize, Value};

use crate::histogram::LogHistogram;
use crate::rows::{
    AnomalyRow, DecisionRow, FaultRow, HistRow, IntervalRow, ReassocRow, TotalsRow, TraceRow,
};

/// Any telemetry row, discriminated by its `kind` field.
#[derive(Debug, Clone, PartialEq)]
pub enum Row {
    /// A per-station per-interval metrics row.
    Interval(IntervalRow),
    /// A per-station whole-run totals row.
    Totals(TotalsRow),
    /// A histogram row.
    Hist(HistRow),
    /// An anomaly row.
    Anomaly(AnomalyRow),
    /// A frame-lifecycle trace row.
    Frame(TraceRow),
    /// A rate-decision ledger row.
    Decision(DecisionRow),
    /// A fault start/end marker row.
    Fault(FaultRow),
    /// A post-outage re-association row.
    Reassoc(ReassocRow),
}

/// Parses one JSONL line into a typed row.
pub fn parse_line(line: &str) -> Result<Row, String> {
    let v = serde_json::parse_value(line).map_err(|e| e.to_string())?;
    let kind = match v.get("kind") {
        Some(Value::Str(s)) => s.clone(),
        _ => return Err("row has no string `kind` field".to_string()),
    };
    let err = |e: serde::DeError| format!("{kind}: {e}");
    match kind.as_str() {
        "interval" => IntervalRow::from_value(&v).map(Row::Interval).map_err(err),
        "totals" => TotalsRow::from_value(&v).map(Row::Totals).map_err(err),
        "hist" => HistRow::from_value(&v).map(Row::Hist).map_err(err),
        "anomaly" => AnomalyRow::from_value(&v).map(Row::Anomaly).map_err(err),
        "frame" => TraceRow::from_value(&v).map(Row::Frame).map_err(err),
        "decision" => DecisionRow::from_value(&v).map(Row::Decision).map_err(err),
        "fault" => FaultRow::from_value(&v).map(Row::Fault).map_err(err),
        "reassoc" => ReassocRow::from_value(&v).map(Row::Reassoc).map_err(err),
        other => Err(format!("unknown row kind `{other}`")),
    }
}

/// Parses a whole JSONL stream (blank lines skipped), reporting the first
/// offending line number on error.
pub fn parse_stream(text: &str) -> Result<Vec<Row>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_line(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

// --- summarize --------------------------------------------------------

/// A sortable per-station column of the totals rows (for `--top`).
fn totals_column(t: &TotalsRow, col: &str) -> Option<f64> {
    Some(match col {
        "goodput" | "goodput_bps" => t.goodput_bps,
        "attempts" => t.attempts as f64,
        "frames_sent" => t.frames_sent as f64,
        "frames_delivered" => t.frames_delivered as f64,
        "retries" => t.retries as f64,
        "drops" => t.drops as f64,
        "loss_collision" => t.loss_collision as f64,
        "loss_fading" => t.loss_fading as f64,
        "loss_capture" => t.loss_capture as f64,
        "loss_outage" => t.loss_outage as f64,
        "loss_jamming" => t.loss_jamming as f64,
        "handoffs" => t.handoffs as f64,
        "air_s" => t.air_s,
        _ => return None,
    })
}

/// Human-readable summary of a metrics stream: per-run aggregates, the
/// loss-attribution breakdown, histogram percentiles, and anomalies.
pub fn summarize(text: &str) -> Result<String, String> {
    summarize_with(text, None).map(|(out, _)| out)
}

/// [`summarize`] with options: `top = (N, column)` appends the N highest
/// stations per run by `column`. The returned flag is `false` when any
/// station's loss-attribution counts do not balance against its retries
/// (`softrate-inspect summarize` exits non-zero on that).
pub fn summarize_with(text: &str, top: Option<(usize, &str)>) -> Result<(String, bool), String> {
    let rows = parse_stream(text)?;
    let mut out = String::new();
    // (run_idx -> aggregated totals)
    let mut runs: BTreeMap<u64, Vec<TotalsRow>> = BTreeMap::new();
    let mut hists: Vec<&HistRow> = Vec::new();
    let mut anomalies: Vec<&AnomalyRow> = Vec::new();
    let mut n_intervals = 0usize;
    let mut n_decisions = 0usize;
    let mut n_faults = 0usize;
    let mut n_reassocs = 0usize;
    for r in &rows {
        match r {
            Row::Totals(t) => runs.entry(t.run_idx).or_default().push(t.clone()),
            Row::Hist(h) => hists.push(h),
            Row::Anomaly(a) => anomalies.push(a),
            Row::Interval(_) => n_intervals += 1,
            Row::Decision(_) => n_decisions += 1,
            Row::Fault(_) => n_faults += 1,
            Row::Reassoc(_) => n_reassocs += 1,
            Row::Frame(_) => {}
        }
    }
    let _ = writeln!(
        out,
        "{} rows: {} interval, {} totals, {} hist, {} anomaly, {} decision, \
         {} fault, {} reassoc",
        rows.len(),
        n_intervals,
        runs.values().map(Vec::len).sum::<usize>(),
        hists.len(),
        anomalies.len(),
        n_decisions,
        n_faults,
        n_reassocs
    );
    if let Some((_, col)) = top {
        if !runs.is_empty() && totals_column(&runs.values().next().unwrap()[0], col).is_none() {
            return Err(format!(
                "--by `{col}` is not a sortable totals column (try goodput, \
                 retries, drops, attempts, handoffs, air_s, loss_*)"
            ));
        }
    }
    let mut balanced = true;
    for (run, totals) in &runs {
        let stations = totals.len();
        let sum = |f: fn(&TotalsRow) -> u64| totals.iter().map(f).sum::<u64>();
        let attempts = sum(|t| t.attempts);
        let retries = sum(|t| t.retries);
        let (lc, lf, lcap) = (
            sum(|t| t.loss_collision),
            sum(|t| t.loss_fading),
            sum(|t| t.loss_capture),
        );
        let (lout, ljam) = (sum(|t| t.loss_outage), sum(|t| t.loss_jamming));
        let goodput: f64 = totals.iter().map(|t| t.goodput_bps).sum();
        let pct = |n: u64| {
            if retries == 0 {
                0.0
            } else {
                100.0 * n as f64 / retries as f64
            }
        };
        let _ = writeln!(
            out,
            "run {run}: {stations} stations, {attempts} attempts, \
             {:.2} Mbit/s aggregate goodput",
            goodput / 1e6
        );
        let _ = writeln!(
            out,
            "  losses {retries}: collision {lc} ({:.1}%), fading {lf} ({:.1}%), \
             capture {lcap} ({:.1}%), outage {lout} ({:.1}%), jamming {ljam} ({:.1}%)",
            pct(lc),
            pct(lf),
            pct(lcap),
            pct(lout),
            pct(ljam)
        );
        let drops = sum(|t| t.drops);
        let handoffs = sum(|t| t.handoffs);
        let _ = writeln!(out, "  drops {drops}, handoffs {handoffs}");
        for t in totals {
            let causes =
                t.loss_collision + t.loss_fading + t.loss_capture + t.loss_outage + t.loss_jamming;
            if causes != t.retries {
                balanced = false;
                let _ = writeln!(
                    out,
                    "  IMBALANCE station {}: retries {} != attributed losses {} \
                     (collision {} + fading {} + capture {} + outage {} + jamming {})",
                    t.station,
                    t.retries,
                    causes,
                    t.loss_collision,
                    t.loss_fading,
                    t.loss_capture,
                    t.loss_outage,
                    t.loss_jamming
                );
            }
        }
        if let Some((n, col)) = top {
            let mut ranked: Vec<&TotalsRow> = totals.iter().collect();
            // Descending by the column, station index breaking ties so the
            // listing is deterministic.
            ranked.sort_by(|a, b| {
                let (va, vb) = (
                    totals_column(a, col).unwrap_or(0.0),
                    totals_column(b, col).unwrap_or(0.0),
                );
                vb.partial_cmp(&va)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.station.cmp(&b.station))
            });
            let _ = writeln!(out, "  top {} stations by {col}:", n.min(ranked.len()));
            for t in ranked.iter().take(n) {
                let _ = writeln!(
                    out,
                    "    station {:>4}: {col}={:.3} goodput={:.2} Mbit/s retries={} drops={}",
                    t.station,
                    totals_column(t, col).unwrap_or(0.0),
                    t.goodput_bps / 1e6,
                    t.retries,
                    t.drops
                );
            }
        }
    }
    for h in hists {
        if h.count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "hist {} (run {}): n={} p50={:.6}{} p90={:.6}{} p95={:.6}{} p99={:.6}{}",
            h.metric,
            h.run_idx,
            h.count,
            h.p50,
            h.unit,
            h.p90,
            h.unit,
            h.p95,
            h.unit,
            h.p99,
            h.unit
        );
    }
    for a in anomalies {
        let _ = writeln!(
            out,
            "anomaly run {} station {} at t={:.3}: {} ({})",
            a.run_idx, a.station, a.t, a.anomaly, a.detail
        );
    }
    if !balanced {
        let _ = writeln!(out, "loss attribution DOES NOT balance");
    }
    Ok((out, balanced))
}

// --- diff -------------------------------------------------------------

/// Diffs two metrics streams, aligning interval rows by
/// `(run_idx, station, t0)` and totals by `(run_idx, station)`. Returns
/// the report and whether the streams were equivalent.
pub fn diff(a: &str, b: &str) -> Result<(String, bool), String> {
    let (ra, rb) = (parse_stream(a)?, parse_stream(b)?);
    let mut out = String::new();
    let mut identical = true;

    type IKey = (u64, u64, u64);
    let ikey = |r: &IntervalRow| (r.run_idx, r.station, r.t0.to_bits());
    let tkey = |r: &TotalsRow| (r.run_idx, r.station);
    let mut ia: BTreeMap<IKey, &IntervalRow> = BTreeMap::new();
    let mut ta: BTreeMap<(u64, u64), &TotalsRow> = BTreeMap::new();
    let mut ha: BTreeMap<(u64, &str), &HistRow> = BTreeMap::new();
    for r in &ra {
        match r {
            Row::Interval(x) => {
                ia.insert(ikey(x), x);
            }
            Row::Totals(x) => {
                ta.insert(tkey(x), x);
            }
            Row::Hist(x) => {
                ha.insert((x.run_idx, &x.metric), x);
            }
            _ => {}
        }
    }
    let mut seen_i = 0usize;
    let mut seen_t = 0usize;
    for r in &rb {
        match r {
            Row::Interval(x) => match ia.remove(&ikey(x)) {
                Some(y) if y == x => seen_i += 1,
                Some(y) => {
                    identical = false;
                    let _ = writeln!(
                        out,
                        "interval run {} station {} t0={:.3}: goodput {:.0} -> {:.0} bps, \
                         losses (c/f/cap) {}/{}/{} -> {}/{}/{}",
                        x.run_idx,
                        x.station,
                        x.t0,
                        y.goodput_bps,
                        x.goodput_bps,
                        y.loss_collision,
                        y.loss_fading,
                        y.loss_capture,
                        x.loss_collision,
                        x.loss_fading,
                        x.loss_capture
                    );
                }
                None => {
                    identical = false;
                    let _ = writeln!(
                        out,
                        "interval run {} station {} t0={:.3}: only in B",
                        x.run_idx, x.station, x.t0
                    );
                }
            },
            Row::Totals(x) => match ta.remove(&tkey(x)) {
                Some(y) if y == x => seen_t += 1,
                Some(y) => {
                    identical = false;
                    let _ = writeln!(
                        out,
                        "totals run {} station {}: goodput {:.0} -> {:.0} bps, \
                         retries {} -> {}",
                        x.run_idx, x.station, y.goodput_bps, x.goodput_bps, y.retries, x.retries
                    );
                }
                None => {
                    identical = false;
                    let _ = writeln!(
                        out,
                        "totals run {} station {}: only in B",
                        x.run_idx, x.station
                    );
                }
            },
            Row::Hist(x) => {
                if let Some(y) = ha.remove(&(x.run_idx, &*x.metric)) {
                    if y != x {
                        identical = false;
                        let _ = writeln!(
                            out,
                            "hist {} run {}: p50 {:.6} -> {:.6}, p99 {:.6} -> {:.6}, \
                             n {} -> {}",
                            x.metric, x.run_idx, y.p50, x.p50, y.p99, x.p99, y.count, x.count
                        );
                    }
                }
            }
            _ => {}
        }
    }
    for k in ia.keys() {
        identical = false;
        let _ = writeln!(
            out,
            "interval run {} station {} t0={:.3}: only in A",
            k.0,
            k.1,
            f64::from_bits(k.2)
        );
    }
    for k in ta.keys() {
        identical = false;
        let _ = writeln!(out, "totals run {} station {}: only in A", k.0, k.1);
    }
    let _ = writeln!(
        out,
        "{} interval and {} totals rows match{}",
        seen_i,
        seen_t,
        if identical {
            "; streams equivalent"
        } else {
            ""
        }
    );
    Ok((out, identical))
}

// --- timeline ---------------------------------------------------------

/// One merged point on a station's rate/SNR timeline: an interval gauge
/// sample or a ledger decision.
#[derive(Debug, Clone)]
struct TimelinePoint {
    t_us: u64,
    rate: Option<u64>,
    snr_db: Option<f64>,
    /// `Some((trigger, reason))` when the point is a ledger decision.
    decision: Option<(Cow<'static, str>, Cow<'static, str>)>,
}

/// Sparkline glyphs, lowest to highest; a space means "no sample yet".
const SPARK: &[u8] = b".:-=+*#%@";

fn spark_row(vals: &[Option<f64>], lo: f64, hi: f64) -> String {
    vals.iter()
        .map(|v| match v {
            None => ' ',
            Some(x) => {
                let f = if hi > lo { (x - lo) / (hi - lo) } else { 0.5 };
                let i = (f.clamp(0.0, 1.0) * (SPARK.len() - 1) as f64).round() as usize;
                SPARK[i] as char
            }
        })
        .collect()
}

fn trigger_char(trigger: &str) -> char {
    match trigger {
        "ack" => 'a',
        "loss" => 'l',
        "timeout" => 't',
        "probe" => 'p',
        "handoff_preserve" => 'h',
        "handoff_reset" => 'R',
        _ => '?',
    }
}

fn json_opt_u64(v: Option<u64>) -> String {
    v.map(|x| x.to_string())
        .unwrap_or_else(|| "null".to_string())
}

fn json_opt_f64(v: Option<f64>) -> String {
    v.map(|x| format!("{x:?}"))
        .unwrap_or_else(|| "null".to_string())
}

/// Per-station rate-vs-SNR step series with decision markers: merges the
/// metrics stream's interval gauges with the decision ledger, and emits,
/// per `(run, station)`, aligned `"timeline"` JSONL rows followed by an
/// ASCII sparkline pair (rate on top, SNR below, decision-trigger markers
/// between). Filterable by station and run.
pub fn timeline(
    metrics: &str,
    decisions: &str,
    station: Option<u64>,
    run: Option<u64>,
) -> Result<String, String> {
    let want = |r: u64, s: u64| run.is_none_or(|x| x == r) && station.is_none_or(|x| x == s);
    let mut groups: BTreeMap<(u64, u64), Vec<TimelinePoint>> = BTreeMap::new();
    for row in parse_stream(metrics)? {
        if let Row::Interval(i) = row {
            if want(i.run_idx, i.station) && (i.rate_idx.is_some() || i.snr_db.is_some()) {
                groups
                    .entry((i.run_idx, i.station))
                    .or_default()
                    .push(TimelinePoint {
                        t_us: (i.t1 * 1e6).round() as u64,
                        rate: i.rate_idx,
                        snr_db: i.snr_db,
                        decision: None,
                    });
            }
        }
    }
    for row in parse_stream(decisions)? {
        if let Row::Decision(d) = row {
            if want(d.run_idx, d.station) {
                groups
                    .entry((d.run_idx, d.station))
                    .or_default()
                    .push(TimelinePoint {
                        t_us: d.t_us,
                        rate: Some(d.new_rate),
                        snr_db: d.snr_db,
                        decision: Some((d.trigger, d.reason)),
                    });
            }
        }
    }
    if groups.is_empty() {
        return Err("no matching rows (check --station/--run filters)".to_string());
    }
    const WIDTH: usize = 72;
    let mut out = String::new();
    for ((run_idx, st), mut points) in groups {
        // Stable merge: time first, interval samples before decisions at
        // the same instant (the gauge describes the state *entering* it).
        points.sort_by_key(|p| (p.t_us, p.decision.is_some()));
        let n_dec = points.iter().filter(|p| p.decision.is_some()).count();
        let _ = writeln!(
            out,
            "run {run_idx} station {st}: {} points, {n_dec} decisions",
            points.len()
        );
        for p in &points {
            let (trig, reason) = match &p.decision {
                Some((t, r)) => (format!("\"{t}\""), format!("\"{r}\"")),
                None => ("null".to_string(), "null".to_string()),
            };
            let _ = writeln!(
                out,
                "{{\"kind\":\"timeline\",\"run_idx\":{run_idx},\"station\":{st},\
                 \"t_us\":{},\"rate\":{},\"snr_db\":{},\"trigger\":{trig},\"reason\":{reason}}}",
                p.t_us,
                json_opt_u64(p.rate),
                json_opt_f64(p.snr_db),
            );
        }
        let (t0, t1) = (points[0].t_us, points[points.len() - 1].t_us);
        let span = (t1 - t0).max(1);
        let col = |t: u64| (((t - t0) as u128 * (WIDTH as u128 - 1)) / span as u128) as usize;
        let mut rate_cols: Vec<Option<f64>> = vec![None; WIDTH];
        let mut snr_cols: Vec<Option<f64>> = vec![None; WIDTH];
        let mut marks: Vec<u32> = vec![0; WIDTH];
        let mut mark_ch: Vec<char> = vec![' '; WIDTH];
        let mut max_rate = 0f64;
        let (mut snr_lo, mut snr_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for p in &points {
            let c = col(p.t_us);
            if let Some(r) = p.rate {
                rate_cols[c] = Some(r as f64);
                max_rate = max_rate.max(r as f64);
            }
            if let Some(s) = p.snr_db {
                snr_cols[c] = Some(s);
                snr_lo = snr_lo.min(s);
                snr_hi = snr_hi.max(s);
            }
            if let Some((trigger, _)) = &p.decision {
                marks[c] += 1;
                mark_ch[c] = trigger_char(trigger);
            }
        }
        // A step series: carry the last sample forward through empty
        // columns so the sparkline reads as rate/SNR held over time.
        for cols in [&mut rate_cols, &mut snr_cols] {
            let mut last = None;
            for v in cols.iter_mut() {
                match v {
                    Some(x) => last = Some(*x),
                    None => *v = last,
                }
            }
        }
        let _ = writeln!(out, "  rate |{}|", spark_row(&rate_cols, 0.0, max_rate));
        let marker_line: String = marks
            .iter()
            .zip(&mark_ch)
            .map(|(&n, &ch)| if n > 1 { '*' } else { ch })
            .collect();
        let _ = writeln!(out, "  dec  |{marker_line}|");
        if snr_lo.is_finite() {
            let _ = writeln!(
                out,
                "  snr  |{}|  [{snr_lo:.1}..{snr_hi:.1} dB]",
                spark_row(&snr_cols, snr_lo, snr_hi)
            );
        }
        let _ = writeln!(
            out,
            "       t = {:.3}s .. {:.3}s  (markers: a=ack l=loss t=timeout p=probe \
             h=handoff_preserve R=handoff_reset *=multiple)",
            t0 as f64 / 1e6,
            t1 as f64 / 1e6
        );
    }
    Ok(out)
}

// --- adapt ------------------------------------------------------------

/// Adaptation-behavior statistics for one `(run, station)` ledger slice.
#[derive(Debug, Clone, Default)]
pub struct AdaptStats {
    /// Ledger rows seen.
    pub decisions: u64,
    /// Rows that actually changed the rate (`old != new`).
    pub changes: u64,
    /// Rate changes per simulated second (churn).
    pub churn_per_s: f64,
    /// Fraction of changes that exactly revert the previous change
    /// (A→B immediately followed by B→A): 0 = monotone, 1 = ping-pong.
    pub oscillation: f64,
    /// Ledger rows per trigger class.
    pub triggers: BTreeMap<String, u64>,
    /// SNR drops of at least the threshold observed on this station.
    pub snr_drops: u64,
    /// Drops after which the rate returned to its pre-drop value.
    pub recovered: u64,
    /// Seconds from each recovered drop to its recovery, summed.
    pub recover_total_s: f64,
    /// Slowest single recovery, seconds.
    pub recover_max_s: f64,
}

impl AdaptStats {
    /// Mean time-to-recover over the recovered drops, if any.
    pub fn mean_recover_s(&self) -> Option<f64> {
        (self.recovered > 0).then(|| self.recover_total_s / self.recovered as f64)
    }
}

/// Computes per-`(run, station)` adaptation statistics from a decision
/// ledger. `durations` supplies each run's length in seconds (from the
/// metrics stream when available); runs not in the map fall back to the
/// ledger's own time span. `drop_db` is the SNR-drop threshold for the
/// time-to-recover analysis.
pub fn adapt_stats(
    decisions: &str,
    durations: &BTreeMap<u64, f64>,
    drop_db: f64,
) -> Result<BTreeMap<(u64, u64), AdaptStats>, String> {
    let mut groups: BTreeMap<(u64, u64), Vec<DecisionRow>> = BTreeMap::new();
    for row in parse_stream(decisions)? {
        if let Row::Decision(d) = row {
            groups.entry((d.run_idx, d.station)).or_default().push(d);
        }
    }
    let mut out = BTreeMap::new();
    for ((run, st), rows) in groups {
        // Ledger rows are already in event-loop (time) order; keep it.
        let mut s = AdaptStats {
            decisions: rows.len() as u64,
            ..AdaptStats::default()
        };
        let mut last_snr: Option<f64> = None;
        let mut prev_change: Option<(u64, u64)> = None;
        let mut reversals = 0u64;
        // Open SNR drops awaiting recovery: (drop time, pre-drop rate).
        let mut open_drops: Vec<(u64, u64)> = Vec::new();
        let mut cur_rate: Option<u64> = None;
        for d in &rows {
            *s.triggers.entry(d.trigger.to_string()).or_insert(0) += 1;
            let rate_before = cur_rate.unwrap_or(d.old_rate);
            if let Some(snr) = d.snr_db {
                if let Some(prev) = last_snr {
                    if prev - snr >= drop_db {
                        s.snr_drops += 1;
                        open_drops.push((d.t_us, rate_before));
                    }
                }
                last_snr = Some(snr);
            }
            if d.old_rate != d.new_rate {
                s.changes += 1;
                if let Some((from, to)) = prev_change {
                    if d.old_rate == to && d.new_rate == from {
                        reversals += 1;
                    }
                }
                prev_change = Some((d.old_rate, d.new_rate));
            }
            cur_rate = Some(d.new_rate);
            open_drops.retain(|&(t_drop, pre_rate)| {
                if d.new_rate >= pre_rate {
                    s.recovered += 1;
                    let dt = (d.t_us - t_drop) as f64 / 1e6;
                    s.recover_total_s += dt;
                    s.recover_max_s = s.recover_max_s.max(dt);
                    false
                } else {
                    true
                }
            });
        }
        let span = durations.get(&run).copied().unwrap_or_else(|| {
            let (t0, t1) = (rows[0].t_us, rows[rows.len() - 1].t_us);
            ((t1 - t0) as f64 / 1e6).max(1e-9)
        });
        s.churn_per_s = s.changes as f64 / span.max(1e-9);
        s.oscillation = if s.changes > 0 {
            reversals as f64 / s.changes as f64
        } else {
            0.0
        };
        out.insert((run, st), s);
    }
    Ok(out)
}

/// Extracts each run's duration (max interval end) from a metrics stream.
pub fn run_durations(metrics: &str) -> Result<BTreeMap<u64, f64>, String> {
    let mut out: BTreeMap<u64, f64> = BTreeMap::new();
    for row in parse_stream(metrics)? {
        if let Row::Interval(i) = row {
            let e = out.entry(i.run_idx).or_insert(0.0);
            *e = e.max(i.t1);
        }
    }
    Ok(out)
}

/// Human-readable adaptation-behavior report over a decision ledger:
/// per-station churn, oscillation score, trigger-class fractions, and
/// time-to-recover after each SNR drop of at least `drop_db` dB.
pub fn adapt_report(
    decisions: &str,
    metrics: Option<&str>,
    drop_db: f64,
) -> Result<String, String> {
    let durations = match metrics {
        Some(m) => run_durations(m)?,
        None => BTreeMap::new(),
    };
    let stats = adapt_stats(decisions, &durations, drop_db)?;
    if stats.is_empty() {
        return Err("no decision rows in the ledger".to_string());
    }
    let mut out = String::new();
    let mut runs: BTreeMap<u64, Vec<(u64, &AdaptStats)>> = BTreeMap::new();
    for ((run, st), s) in &stats {
        runs.entry(*run).or_default().push((*st, s));
    }
    for (run, stations) in &runs {
        let agg = |f: &dyn Fn(&AdaptStats) -> u64| stations.iter().map(|(_, s)| f(s)).sum::<u64>();
        let decisions = agg(&|s| s.decisions);
        let changes = agg(&|s| s.changes);
        let drops = agg(&|s| s.snr_drops);
        let recovered = agg(&|s| s.recovered);
        let churn: f64 =
            stations.iter().map(|(_, s)| s.churn_per_s).sum::<f64>() / stations.len() as f64;
        let osc: f64 =
            stations.iter().map(|(_, s)| s.oscillation).sum::<f64>() / stations.len() as f64;
        let recover_total: f64 = stations.iter().map(|(_, s)| s.recover_total_s).sum();
        let recover_max = stations
            .iter()
            .map(|(_, s)| s.recover_max_s)
            .fold(0.0, f64::max);
        let _ = writeln!(
            out,
            "run {run}: {} stations, {decisions} decisions, {changes} rate changes, \
             churn {churn:.3}/s/station, oscillation {osc:.3}",
            stations.len()
        );
        let mut triggers: BTreeMap<&str, u64> = BTreeMap::new();
        for (_, s) in stations {
            for (t, n) in &s.triggers {
                *triggers.entry(t).or_insert(0) += n;
            }
        }
        let parts: Vec<String> = triggers
            .iter()
            .map(|(t, n)| format!("{t} {n} ({:.1}%)", 100.0 * *n as f64 / decisions as f64))
            .collect();
        let _ = writeln!(out, "  triggers: {}", parts.join(", "));
        if drops > 0 {
            let mean = if recovered > 0 {
                format!("{:.4}s", recover_total / recovered as f64)
            } else {
                "n/a".to_string()
            };
            let _ = writeln!(
                out,
                "  snr drops >= {drop_db:.1} dB: {drops} \
                 (recovered {recovered}, mean time-to-recover {mean}, max {recover_max:.4}s)"
            );
        } else {
            let _ = writeln!(out, "  snr drops >= {drop_db:.1} dB: 0");
        }
        for (st, s) in stations {
            let _ = writeln!(
                out,
                "  station {st:>4}: {} decisions, {} changes, churn {:.3}/s, \
                 oscillation {:.3}, drops {} (recovered {})",
                s.decisions, s.changes, s.churn_per_s, s.oscillation, s.snr_drops, s.recovered
            );
        }
    }
    Ok(out)
}

// --- compare ----------------------------------------------------------

/// One run's aggregate figures on one side of a comparison.
#[derive(Debug, Clone, Default)]
struct RunFigures {
    goodput_bps: f64,
    retries: u64,
    drops: u64,
    churn_per_s: f64,
    mean_recover_s: Option<f64>,
}

fn run_figures(
    metrics: &str,
    decisions: &str,
    drop_db: f64,
) -> Result<BTreeMap<u64, RunFigures>, String> {
    let mut out: BTreeMap<u64, RunFigures> = BTreeMap::new();
    for row in parse_stream(metrics)? {
        if let Row::Totals(t) = row {
            let f = out.entry(t.run_idx).or_default();
            f.goodput_bps += t.goodput_bps;
            f.retries += t.retries;
            f.drops += t.drops;
        }
    }
    let durations = run_durations(metrics)?;
    let stats = adapt_stats(decisions, &durations, drop_db)?;
    let mut churn: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
    let mut recover: BTreeMap<u64, (f64, u64)> = BTreeMap::new();
    for ((run, _), s) in &stats {
        let c = churn.entry(*run).or_insert((0.0, 0));
        c.0 += s.churn_per_s;
        c.1 += 1;
        let r = recover.entry(*run).or_insert((0.0, 0));
        r.0 += s.recover_total_s;
        r.1 += s.recovered;
    }
    for (run, (total, n)) in churn {
        out.entry(run).or_default().churn_per_s = total / n.max(1) as f64;
    }
    for (run, (total, n)) in recover {
        if n > 0 {
            out.entry(run).or_default().mean_recover_s = Some(total / n as f64);
        }
    }
    Ok(out)
}

/// Compares two runs' (metrics, decisions) stream pairs: per `run_idx`, a
/// league table of goodput / retries / drops / churn / time-to-recover
/// deltas. Returns `(human table, machine-readable JSONL)`.
pub fn compare(
    a_metrics: &str,
    a_decisions: &str,
    b_metrics: &str,
    b_decisions: &str,
    drop_db: f64,
) -> Result<(String, String), String> {
    let fa = run_figures(a_metrics, a_decisions, drop_db)?;
    let fb = run_figures(b_metrics, b_decisions, drop_db)?;
    let runs: std::collections::BTreeSet<u64> = fa.keys().chain(fb.keys()).copied().collect();
    if runs.is_empty() {
        return Err("no totals rows in either metrics stream".to_string());
    }
    let mut table = String::new();
    let mut jsonl = String::new();
    let _ = writeln!(
        table,
        "{:>4} {:>12} {:>12} {:>8} {:>10} {:>10} {:>8} {:>9} {:>9} {:>8} {:>11} {:>11}",
        "run",
        "goodput_a",
        "goodput_b",
        "d%",
        "retries_a",
        "retries_b",
        "d%",
        "churn_a",
        "churn_b",
        "d%",
        "recover_a",
        "recover_b"
    );
    let pct = |a: f64, b: f64| {
        if a.abs() > 1e-12 {
            100.0 * (b - a) / a
        } else if b.abs() > 1e-12 {
            f64::INFINITY
        } else {
            0.0
        }
    };
    let def = RunFigures::default();
    for run in runs {
        let a = fa.get(&run).unwrap_or(&def);
        let b = fb.get(&run).unwrap_or(&def);
        let fmt_rec = |r: Option<f64>| {
            r.map(|x| format!("{x:.4}s"))
                .unwrap_or_else(|| "n/a".to_string())
        };
        let _ = writeln!(
            table,
            "{run:>4} {:>12.3} {:>12.3} {:>+8.1} {:>10} {:>10} {:>+8.1} {:>9.3} {:>9.3} {:>+8.1} {:>11} {:>11}",
            a.goodput_bps / 1e6,
            b.goodput_bps / 1e6,
            pct(a.goodput_bps, b.goodput_bps),
            a.retries,
            b.retries,
            pct(a.retries as f64, b.retries as f64),
            a.churn_per_s,
            b.churn_per_s,
            pct(a.churn_per_s, b.churn_per_s),
            fmt_rec(a.mean_recover_s),
            fmt_rec(b.mean_recover_s),
        );
        let _ = writeln!(
            jsonl,
            "{{\"kind\":\"compare\",\"run_idx\":{run},\
             \"goodput_a_bps\":{:?},\"goodput_b_bps\":{:?},\
             \"retries_a\":{},\"retries_b\":{},\
             \"drops_a\":{},\"drops_b\":{},\
             \"churn_a_per_s\":{:?},\"churn_b_per_s\":{:?},\
             \"recover_a_s\":{},\"recover_b_s\":{}}}",
            a.goodput_bps,
            b.goodput_bps,
            a.retries,
            b.retries,
            a.drops,
            b.drops,
            a.churn_per_s,
            b.churn_per_s,
            json_opt_f64(a.mean_recover_s),
            json_opt_f64(b.mean_recover_s),
        );
    }
    let _ = writeln!(
        table,
        "(goodput Mbit/s; churn = mean rate changes/s/station; recover = mean \
         time back to the pre-drop rate after a >= {drop_db:.1} dB SNR drop)"
    );
    Ok((table, jsonl))
}

// --- resilience -------------------------------------------------------

/// One fault's lifetime within a run, paired from its start/end marker
/// rows. `end` is `None` for a fault that held to the end of the run
/// (e.g. an unbounded noise step).
#[derive(Debug, Clone)]
struct FaultWindow {
    fault: String,
    detail: String,
    start: f64,
    end: Option<f64>,
}

/// Resilience report over a fault-tagged metrics stream: per run, the
/// fault windows, the goodput dip each one caused, re-association
/// latency after AP outages, and the time for aggregate goodput to
/// recover to `threshold` (e.g. 0.9) of its pre-fault baseline after
/// the last fault ends. Returns the report and whether every
/// fault-injected run recovered — `softrate-inspect resilience` exits
/// non-zero otherwise, which is the CI gate for the fault scenarios.
pub fn resilience(metrics: &str, threshold: f64) -> Result<(String, bool), String> {
    let rows = parse_stream(metrics)?;
    // Per run: fault markers, reassociations, and the aggregate goodput
    // time series (summed across stations per interval start).
    let mut faults: BTreeMap<u64, Vec<&FaultRow>> = BTreeMap::new();
    let mut reassocs: BTreeMap<u64, Vec<&ReassocRow>> = BTreeMap::new();
    let mut series: BTreeMap<u64, BTreeMap<u64, (f64, f64)>> = BTreeMap::new();
    for r in &rows {
        match r {
            Row::Fault(f) => faults.entry(f.run_idx).or_default().push(f),
            Row::Reassoc(x) => reassocs.entry(x.run_idx).or_default().push(x),
            Row::Interval(i) => {
                let e = series
                    .entry(i.run_idx)
                    .or_default()
                    .entry(i.t0.to_bits())
                    .or_insert((i.t1, 0.0));
                e.1 += i.goodput_bps;
            }
            _ => {}
        }
    }
    if faults.is_empty() {
        return Err("no fault rows in the stream (was the run fault-injected \
                    and recorded with --metrics?)"
            .to_string());
    }
    let mut out = String::new();
    let mut all_recovered = true;
    for (run, marks) in &faults {
        // Pair start/end markers per fault class, in time order.
        let mut windows: Vec<FaultWindow> = Vec::new();
        for m in marks {
            match &*m.phase {
                "start" => windows.push(FaultWindow {
                    fault: m.fault.to_string(),
                    detail: m.detail.clone(),
                    start: m.t,
                    end: None,
                }),
                _ => {
                    if let Some(w) = windows
                        .iter_mut()
                        .rev()
                        .find(|w| w.fault == m.fault && w.end.is_none())
                    {
                        w.end = Some(m.t);
                    }
                }
            }
        }
        let ts = series.get(run).cloned().unwrap_or_default();
        let points: Vec<(f64, f64, f64)> = ts
            .iter()
            .map(|(t0, &(t1, g))| (f64::from_bits(*t0), t1, g))
            .collect();
        let first_fault = windows
            .iter()
            .map(|w| w.start)
            .fold(f64::INFINITY, f64::min);
        let pre: Vec<f64> = points
            .iter()
            .filter(|&&(_, t1, _)| t1 <= first_fault)
            .map(|&(_, _, g)| g)
            .collect();
        // Baseline = mean aggregate goodput over fully pre-fault
        // intervals; a fault at t=0 leaves none, in which case the run's
        // overall mean stands in (recovery then means "back to typical").
        let baseline = if pre.is_empty() {
            let all: Vec<f64> = points.iter().map(|&(_, _, g)| g).collect();
            all.iter().sum::<f64>() / all.len().max(1) as f64
        } else {
            pre.iter().sum::<f64>() / pre.len() as f64
        };
        let _ = writeln!(
            out,
            "run {run}: {} fault window(s), baseline {:.2} Mbit/s",
            windows.len(),
            baseline / 1e6
        );
        let mut last_end: Option<f64> = None;
        for w in &windows {
            let during: Vec<f64> = points
                .iter()
                .filter(|&&(t0, t1, _)| t1 > w.start && t0 < w.end.unwrap_or(f64::INFINITY))
                .map(|&(_, _, g)| g)
                .collect();
            let dip = during.iter().copied().fold(f64::INFINITY, f64::min);
            let span = match w.end {
                Some(e) => {
                    last_end = Some(last_end.unwrap_or(0.0).max(e));
                    format!("{:.3}s..{:.3}s", w.start, e)
                }
                None => format!("{:.3}s..end-of-run", w.start),
            };
            let dip_txt = if dip.is_finite() {
                format!(
                    "goodput dip to {:.2} Mbit/s ({:.0}% of baseline)",
                    dip / 1e6,
                    if baseline > 0.0 {
                        100.0 * dip / baseline
                    } else {
                        0.0
                    }
                )
            } else {
                "no interval overlaps the window".to_string()
            };
            let _ = writeln!(out, "  {} {span} [{}]: {dip_txt}", w.fault, w.detail);
        }
        if let Some(rs) = reassocs.get(run) {
            let n = rs.len();
            let mean = rs.iter().map(|r| r.outage_s).sum::<f64>() / n.max(1) as f64;
            let max = rs.iter().map(|r| r.outage_s).fold(0.0, f64::max);
            let _ = writeln!(
                out,
                "  reassociations: {n}, time-to-reassociate mean {mean:.3}s max {max:.3}s"
            );
        }
        // Recovery: the first interval starting after the last fault end
        // whose aggregate goodput is back above threshold x baseline.
        if let Some(end) = last_end {
            let recovery = points
                .iter()
                .filter(|&&(t0, _, g)| t0 >= end && g >= threshold * baseline)
                .map(|&(t0, _, _)| t0)
                .next();
            match recovery {
                Some(t) => {
                    let _ = writeln!(
                        out,
                        "  goodput recovered to >= {:.0}% of baseline {:.3}s after the \
                         last fault ended (at t={t:.3}s)",
                        100.0 * threshold,
                        t - end
                    );
                }
                None => {
                    all_recovered = false;
                    let _ = writeln!(
                        out,
                        "  NOT RECOVERED: goodput never regained {:.0}% of baseline \
                         after the last fault ended at {end:.3}s",
                        100.0 * threshold
                    );
                }
            }
        }
    }
    if !all_recovered {
        let _ = writeln!(out, "one or more runs did not recover");
    }
    Ok((out, all_recovered))
}

// --- validate ---------------------------------------------------------

/// A checked-in row schema: `kind -> field -> type`, where type is one of
/// `uint`, `int`, `number`, `string`, `bool`, `array`, optionally
/// prefixed `?` for nullable fields. Validation is strict: unknown kinds,
/// missing fields, extra fields, and type mismatches are all errors.
#[derive(Debug, Clone)]
pub struct Schema {
    kinds: BTreeMap<String, BTreeMap<String, String>>,
}

impl Schema {
    /// Parses the schema's JSON source.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = serde_json::parse_value(text).map_err(|e| e.to_string())?;
        let Value::Map(kind_entries) = &v else {
            return Err("schema must be a JSON object".to_string());
        };
        let mut kinds = BTreeMap::new();
        for (kind, fields_v) in kind_entries {
            let Value::Map(field_entries) = fields_v else {
                return Err(format!("schema `{kind}` must be an object"));
            };
            let mut fields = BTreeMap::new();
            for (f, ty_v) in field_entries {
                let Value::Str(ty) = ty_v else {
                    return Err(format!("schema {kind}.{f}: type must be a string"));
                };
                let bare = ty.strip_prefix('?').unwrap_or(ty);
                if !matches!(
                    bare,
                    "uint" | "int" | "number" | "string" | "bool" | "array"
                ) {
                    return Err(format!("schema {kind}.{f}: unknown type `{bare}`"));
                }
                fields.insert(f.clone(), ty.clone());
            }
            kinds.insert(kind.clone(), fields);
        }
        Ok(Schema { kinds })
    }

    fn type_matches(ty: &str, v: &Value) -> bool {
        match ty {
            "uint" => matches!(v, Value::UInt(_)) || matches!(v, Value::Int(i) if *i >= 0),
            "int" => matches!(v, Value::Int(_) | Value::UInt(_)),
            "number" => matches!(v, Value::Float(_) | Value::Int(_) | Value::UInt(_)),
            "string" => matches!(v, Value::Str(_)),
            "bool" => matches!(v, Value::Bool(_)),
            "array" => matches!(v, Value::Seq(_)),
            _ => false,
        }
    }

    /// Validates one JSONL line against the schema.
    pub fn validate_line(&self, line: &str) -> Result<(), String> {
        let v = serde_json::parse_value(line).map_err(|e| e.to_string())?;
        let Value::Map(m) = &v else {
            return Err("row is not an object".to_string());
        };
        let kind = match v.get("kind") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err("row has no string `kind`".to_string()),
        };
        let Some(fields) = self.kinds.get(&kind) else {
            return Err(format!("kind `{kind}` not in schema"));
        };
        for (f, ty) in fields {
            let nullable = ty.starts_with('?');
            let ty = ty.strip_prefix('?').unwrap_or(ty);
            match v.get(f) {
                None | Some(Value::Null) if nullable => {}
                None => return Err(format!("{kind}: missing field `{f}`")),
                Some(Value::Null) => return Err(format!("{kind}.{f}: null but not nullable")),
                Some(val) => {
                    if !Self::type_matches(ty, val) {
                        return Err(format!("{kind}.{f}: expected {ty}"));
                    }
                }
            }
        }
        for (f, _) in m {
            if !fields.contains_key(f) {
                return Err(format!("{kind}: unexpected field `{f}`"));
            }
        }
        Ok(())
    }

    /// Validates a whole stream; returns the number of valid rows.
    pub fn validate_stream(&self, text: &str) -> Result<usize, String> {
        let mut n = 0usize;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            self.validate_line(line)
                .map_err(|e| format!("line {}: {e}", i + 1))?;
            n += 1;
        }
        Ok(n)
    }
}

/// Recomputes an arbitrary percentile from a serialized histogram row
/// (used by `softrate-inspect percentile`-style queries and tests).
pub fn hist_percentile(row: &HistRow, q: f64) -> f64 {
    LogHistogram::from_row(row).percentile(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{LossCause, OutcomeEvent, Recorder, RecorderConfig};

    fn sample_report() -> crate::TelemetryReport {
        let mut r = Recorder::new(RecorderConfig::default(), 2, 2);
        r.on_enqueue(0.01, 0, 2);
        r.on_outcome(
            0.02,
            OutcomeEvent {
                station: 0,
                sender: 0,
                tx_id: 1,
                rate_idx: 4,
                attempt: 1,
                acked: true,
                dropped: false,
                counts_as_data: true,
                payload_bytes: 1440,
                airtime_s: 400e-6,
                snr_db: Some(21.0),
                cause: None,
            },
        );
        r.on_outcome(
            0.03,
            OutcomeEvent {
                station: 1,
                sender: 1,
                tx_id: 2,
                rate_idx: 2,
                attempt: 1,
                acked: false,
                dropped: false,
                counts_as_data: true,
                payload_bytes: 1440,
                airtime_s: 900e-6,
                snr_db: None,
                cause: Some(LossCause::Collision),
            },
        );
        r.finish(0.5)
    }

    #[test]
    fn parse_roundtrips_every_row_kind() {
        let rep = sample_report();
        let rows = parse_stream(&rep.metrics_jsonl()).unwrap();
        assert!(rows.iter().any(|r| matches!(r, Row::Interval(_))));
        assert!(rows.iter().any(|r| matches!(r, Row::Totals(_))));
        assert!(rows.iter().any(|r| matches!(r, Row::Hist(_))));
        assert!(parse_line("{\"kind\":\"nope\"}").is_err());
        assert!(parse_line("{\"no_kind\":1}").is_err());
    }

    #[test]
    fn summarize_reports_attribution() {
        let rep = sample_report();
        let s = summarize(&rep.metrics_jsonl()).unwrap();
        assert!(s.contains("collision 1"), "{s}");
        assert!(s.contains("2 stations"), "{s}");
    }

    #[test]
    fn diff_finds_changes_and_equivalence() {
        let rep = sample_report();
        let jsonl = rep.metrics_jsonl();
        let (_, same) = diff(&jsonl, &jsonl).unwrap();
        assert!(same);
        let mut other = rep.clone();
        other.totals[0].goodput_bps += 1.0;
        let (report, same) = diff(&jsonl, &other.metrics_jsonl()).unwrap();
        assert!(!same);
        assert!(report.contains("totals run 0 station 0"), "{report}");
    }

    fn decision_line(
        t_us: u64,
        station: u64,
        old: u64,
        new: u64,
        trigger: &'static str,
        snr: Option<f64>,
        reason: &'static str,
    ) -> String {
        let row = DecisionRow {
            kind: "decision".into(),
            run_idx: 0,
            t_us,
            station,
            port: station,
            adapter: "SoftRate".into(),
            old_rate: old,
            new_rate: new,
            trigger: trigger.into(),
            snr_db: snr,
            ber: None,
            reason: reason.into(),
        };
        format!("{}\n", serde_json::to_string(&row).unwrap())
    }

    fn sample_ledger() -> String {
        // Station 0: climbs, takes a 6 dB SNR hit, sheds two rates, then
        // recovers; the 5→4→5 pair is one oscillation reversal.
        let mut s = String::new();
        s += &decision_line(100_000, 0, 4, 5, "ack", Some(22.0), "threshold-crossing");
        s += &decision_line(200_000, 0, 5, 4, "loss", Some(16.0), "threshold-crossing");
        s += &decision_line(250_000, 0, 4, 5, "ack", Some(21.5), "threshold-crossing");
        s += &decision_line(300_000, 0, 5, 3, "loss", Some(15.0), "threshold-crossing");
        s += &decision_line(500_000, 0, 3, 5, "ack", Some(21.0), "threshold-crossing");
        s += &decision_line(400_000, 1, 2, 2, "handoff_preserve", None, "ap-change");
        s
    }

    #[test]
    fn adapt_stats_measure_churn_oscillation_and_recovery() {
        let ledger = sample_ledger();
        let durations = BTreeMap::from([(0u64, 1.0f64)]);
        let stats = adapt_stats(&ledger, &durations, 5.0).unwrap();
        let s0 = &stats[&(0, 0)];
        assert_eq!(s0.decisions, 5);
        assert_eq!(s0.changes, 5);
        assert!((s0.churn_per_s - 5.0).abs() < 1e-12);
        // Three exact reversals (5->4, 4->5 revert each other; 3->5
        // reverts 5->3) out of 5 changes.
        assert!((s0.oscillation - 0.6).abs() < 1e-12, "{}", s0.oscillation);
        // Two >= 5 dB drops (22 -> 16 at 200ms, 21.5 -> 15 at 300ms); the
        // rate is back to its pre-drop value at 250ms resp. 500ms, so the
        // recover times are 0.05s and 0.2s.
        assert_eq!(s0.snr_drops, 2);
        assert_eq!(s0.recovered, 2);
        assert!((s0.mean_recover_s().unwrap() - 0.125).abs() < 1e-12);
        assert_eq!(s0.triggers["ack"], 3);
        assert_eq!(s0.triggers["loss"], 2);
        // The handoff_preserve row is not a rate change.
        let s1 = &stats[&(0, 1)];
        assert_eq!(s1.decisions, 1);
        assert_eq!(s1.changes, 0);
        let report = adapt_report(&ledger, None, 5.0).unwrap();
        assert!(report.contains("snr drops >= 5.0 dB: 2"), "{report}");
        assert!(report.contains("handoff_preserve 1"), "{report}");
    }

    #[test]
    fn timeline_aligns_and_marks_decisions() {
        let rep = sample_report();
        let ledger = sample_ledger();
        let out = timeline(&rep.metrics_jsonl(), &ledger, Some(0), Some(0)).unwrap();
        assert!(out.contains("\"kind\":\"timeline\""), "{out}");
        assert!(out.contains("\"trigger\":\"ack\""), "{out}");
        assert!(out.contains("rate |"), "{out}");
        assert!(out.contains("dec  |"), "{out}");
        // Station filter excludes station 1's handoff row.
        assert!(!out.contains("\"trigger\":\"handoff_preserve\""), "{out}");
        assert!(timeline(&rep.metrics_jsonl(), &ledger, Some(99), None).is_err());
    }

    #[test]
    fn compare_builds_league_table_and_jsonl() {
        let rep = sample_report();
        let metrics = rep.metrics_jsonl();
        let ledger = sample_ledger();
        let (table, jsonl) = compare(&metrics, &ledger, &metrics, &ledger, 5.0).unwrap();
        assert!(table.contains("goodput_a"), "{table}");
        assert!(jsonl.contains("\"kind\":\"compare\""), "{jsonl}");
        assert!(jsonl.contains("\"run_idx\":0"), "{jsonl}");
        // Identical inputs: every delta column is +0.0.
        assert!(table.contains("+0.0"), "{table}");
    }

    #[test]
    fn summarize_top_ranks_and_imbalance_fails() {
        let rep = sample_report();
        let (out, balanced) = summarize_with(&rep.metrics_jsonl(), Some((2, "retries"))).unwrap();
        assert!(balanced, "{out}");
        assert!(out.contains("top 2 stations by retries"), "{out}");
        // Station 1 has the retry; it must rank first.
        let top_block = out.split("top 2 stations").nth(1).unwrap();
        let first = top_block.lines().nth(1).unwrap();
        assert!(first.contains("station    1"), "{first}");
        // Corrupt one totals row: retries no longer match the causes.
        let mut broken = rep.clone();
        broken.totals[1].retries += 1;
        let (out, balanced) = summarize_with(&broken.metrics_jsonl(), None).unwrap();
        assert!(!balanced);
        assert!(out.contains("IMBALANCE station 1"), "{out}");
        assert!(summarize_with(&rep.metrics_jsonl(), Some((1, "nope"))).is_err());
    }

    #[test]
    fn schema_validates_and_rejects() {
        let schema = Schema::parse(
            r#"{"interval": {"kind":"string","run_idx":"uint","station":"uint",
                "t0":"number","t1":"number","attempts":"uint","frames_sent":"uint",
                "frames_delivered":"uint","retries":"uint","drops":"uint",
                "goodput_bps":"number","loss_collision":"uint","loss_fading":"uint",
                "loss_capture":"uint","loss_outage":"uint","loss_jamming":"uint",
                "rate_idx":"?uint","snr_db":"?number",
                "queue_depth":"?uint","cwnd":"?number","rto_s":"?number",
                "rtt_s":"?number","handoffs":"uint","fault":"?string"}}"#,
        )
        .unwrap();
        let rep = sample_report();
        let line = serde_json::to_string(&rep.intervals[0]).unwrap();
        schema.validate_line(&line).unwrap();
        assert!(schema.validate_line("{\"kind\":\"totals\"}").is_err());
        assert!(schema
            .validate_line("{\"kind\":\"interval\",\"t0\":\"oops\"}")
            .is_err());
        assert!(Schema::parse("{\"x\":{\"f\":\"complex\"}}").is_err());
    }

    fn interval_line(t0: f64, t1: f64, goodput_bps: f64, fault: Option<&str>) -> String {
        let row = IntervalRow {
            kind: "interval".into(),
            run_idx: 0,
            station: 0,
            t0,
            t1,
            attempts: 10,
            frames_sent: 10,
            frames_delivered: 9,
            retries: 1,
            drops: 0,
            goodput_bps,
            loss_collision: 1,
            loss_fading: 0,
            loss_capture: 0,
            loss_outage: 0,
            loss_jamming: 0,
            rate_idx: Some(5),
            snr_db: Some(20.0),
            queue_depth: None,
            cwnd: None,
            rto_s: None,
            rtt_s: None,
            handoffs: 0,
            fault: fault.map(str::to_string),
        };
        format!("{}\n", serde_json::to_string(&row).unwrap())
    }

    fn fault_line(t: f64, fault: &'static str, phase: &'static str, detail: &str) -> String {
        let row = FaultRow {
            kind: "fault".into(),
            run_idx: 0,
            t,
            fault: fault.into(),
            phase: phase.into(),
            detail: detail.to_string(),
        };
        format!("{}\n", serde_json::to_string(&row).unwrap())
    }

    /// A synthetic ap-blackout run: steady 10 Mbit/s, the AP dies from
    /// 1.0s to 2.5s (goodput collapses to 2 Mbit/s), a slow interval at
    /// 5 Mbit/s right after restart, then back to 9.5 Mbit/s at 3.0s.
    fn blackout_stream(recovers: bool) -> String {
        let mut s = String::new();
        s += &fault_line(1.0, "ap_outage", "start", "ap=1 dropped_queued=3");
        s += &fault_line(2.5, "ap_outage", "end", "ap=1");
        let row = ReassocRow {
            kind: "reassoc".into(),
            run_idx: 0,
            t: 1.2,
            station: 7,
            from_ap: 1,
            to_ap: 0,
            outage_s: 0.2,
        };
        s += &format!("{}\n", serde_json::to_string(&row).unwrap());
        s += &interval_line(0.0, 0.5, 10e6, None);
        s += &interval_line(0.5, 1.0, 10e6, None);
        s += &interval_line(1.0, 1.5, 2e6, Some("ap_outage"));
        s += &interval_line(1.5, 2.0, 2e6, Some("ap_outage"));
        s += &interval_line(2.0, 2.5, 2e6, Some("ap_outage"));
        s += &interval_line(2.5, 3.0, 5e6, None);
        if recovers {
            s += &interval_line(3.0, 3.5, 9.5e6, None);
        }
        s
    }

    #[test]
    fn resilience_measures_dip_reassociation_and_recovery() {
        let (out, ok) = resilience(&blackout_stream(true), 0.9).unwrap();
        assert!(ok, "{out}");
        // Baseline from the two pre-fault intervals, dip during the window.
        assert!(out.contains("baseline 10.00 Mbit/s"), "{out}");
        assert!(
            out.contains("dip to 2.00 Mbit/s (20% of baseline)"),
            "{out}"
        );
        assert!(
            out.contains("reassociations: 1, time-to-reassociate mean 0.200s max 0.200s"),
            "{out}"
        );
        // The 5 Mbit/s interval at 2.5s is below 90% of baseline; the
        // 9.5 Mbit/s one at 3.0s clears it — 0.5s after the fault ended.
        assert!(
            out.contains("recovered to >= 90% of baseline 0.500s"),
            "{out}"
        );
    }

    #[test]
    fn resilience_flags_a_run_that_never_recovers() {
        let (out, ok) = resilience(&blackout_stream(false), 0.9).unwrap();
        assert!(!ok, "{out}");
        assert!(out.contains("NOT RECOVERED"), "{out}");
        // A fault-free stream is an error, not a vacuous pass.
        let rep = sample_report();
        assert!(resilience(&rep.metrics_jsonl(), 0.9).is_err());
    }
}
