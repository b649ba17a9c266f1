//! Sweep expansion and the parallel run matrix executor.
//!
//! [`expand`] turns one scenario document into an ordered list of
//! [`RunPlan`]s: the cartesian product of every sweep axis (outermost axis
//! first) times the adapter list. [`run_matrix`] executes plans across a
//! thread pool with deterministic per-run seeding and hands each outcome
//! to a sink in plan order as soon as it and every earlier run are done;
//! because plan order, per-run seeds, and delivery order are all
//! independent of the worker count, the JSON-lines output is
//! **byte-identical across runs and thread counts** — the property the
//! determinism tests pin down. [`run_all_checked`] and [`run_spec`]
//! collect through it.

use std::sync::Arc;

use serde::{Deserialize, Serialize, Value};
use softrate_adapt::snr::SnrTable;
use softrate_net::sim::{SpatialConfig, SpatialSim, SpatialTraffic};
use softrate_net::stream::mix_seed;
use softrate_sim::config::{AdapterKind, SimConfig, TrafficKind};
use softrate_sim::mac::RunReport;
use softrate_sim::netsim::NetSim;
use softrate_sim::transport::TransportConfig;
use softrate_telemetry::{RecorderConfig, TelemetryReport};
use softrate_trace::par::{available_threads, par_map_into};
use softrate_trace::schema::LinkTrace;
use softrate_trace::snr_training::{observations_from_trace, train_snr_table};

use crate::channelgen::build_trace;
use crate::spec::{AdapterSpec, Direction, ScenarioSpec, SpecError, TrafficModel};
use crate::toml;

/// One fully resolved run: a concrete spec point plus one adapter.
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// Position in the expanded matrix (stable across thread counts).
    pub run_idx: usize,
    /// The spec with all sweep substitutions applied (its own `sweep` is
    /// cleared).
    pub spec: ScenarioSpec,
    /// Adapter under test in this run.
    pub adapter: AdapterSpec,
    /// The swept `(param, value)` assignments that produced this point.
    pub params: Vec<(String, Value)>,
    /// This run's derived seed.
    pub seed: u64,
}

/// One run's results — one JSON line in the sink.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Scenario name.
    pub scenario: String,
    /// Matrix position.
    pub run_idx: usize,
    /// Adapter label.
    pub adapter: String,
    /// Swept parameter assignments.
    pub params: Vec<(String, Value)>,
    /// The run's seed (reproduce with `run --only <idx>`).
    pub seed: u64,
    /// Simulated seconds.
    pub duration: f64,
    /// Aggregate goodput over all flows, bit/s.
    pub goodput_bps: f64,
    /// Per-flow goodput, bit/s.
    pub per_flow_goodput_bps: Vec<f64>,
    /// Data frames transmitted on the air.
    pub frames_sent: u64,
    /// Data frames delivered intact.
    pub frames_delivered: u64,
    /// Frame loss rate on the air.
    pub loss_rate: f64,
    /// Frames corrupted by MAC-level collisions.
    pub collisions: u64,
    /// Attempts with no feedback at all.
    pub silent_losses: u64,
    /// Fraction of audited frames sent above the oracle rate.
    pub overselect: f64,
    /// Fraction sent exactly at the oracle rate.
    pub accurate: f64,
    /// Fraction sent below the oracle rate.
    pub underselect: f64,
    /// Completed handoffs (spatial topologies only; 0 otherwise).
    pub handoffs: u64,
}

/// Sets `value` at a dotted `path` inside a map-rooted document, creating
/// intermediate maps as needed.
fn set_path(doc: &mut Value, path: &str, value: Value) -> Result<(), SpecError> {
    let mut cur = doc;
    let segments: Vec<&str> = path.split('.').collect();
    for (i, seg) in segments.iter().enumerate() {
        let Value::Map(m) = cur else {
            return Err(SpecError(format!(
                "sweep parameter `{path}`: `{}` is not a table",
                segments[..i].join(".")
            )));
        };
        if i + 1 == segments.len() {
            if let Some(entry) = m.iter_mut().find(|(k, _)| k == seg) {
                entry.1 = value;
            } else {
                m.push((seg.to_string(), value));
            }
            return Ok(());
        }
        if !m.iter().any(|(k, _)| k == *seg) {
            m.push((seg.to_string(), Value::Map(Vec::new())));
        }
        cur = &mut m
            .iter_mut()
            .find(|(k, _)| k == *seg)
            .expect("just ensured")
            .1;
    }
    unreachable!("empty path rejected by split")
}

/// Reads the value at a dotted `path`, if present.
fn get_path<'a>(doc: &'a Value, path: &str) -> Option<&'a Value> {
    let mut cur = doc;
    for seg in path.split('.') {
        cur = cur.get(seg)?;
    }
    Some(cur)
}

/// Structural equality that treats numeric kinds as interchangeable, so a
/// swept `[1, 2]` matches the `1.0` a float field echoes back.
fn values_equivalent(a: &Value, b: &Value) -> bool {
    fn as_f64(v: &Value) -> Option<f64> {
        match v {
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }
    match (as_f64(a), as_f64(b)) {
        (Some(x), Some(y)) => x == y,
        _ => match (a, b) {
            (Value::Seq(xs), Value::Seq(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| values_equivalent(x, y))
            }
            (Value::Map(xs), Value::Map(ys)) => {
                xs.len() == ys.len()
                    && xs
                        .iter()
                        .all(|(k, x)| ys.iter().any(|(k2, y)| k == k2 && values_equivalent(x, y)))
            }
            _ => a == b,
        },
    }
}

/// Expands a scenario into its ordered run matrix.
pub fn expand(spec: &ScenarioSpec) -> Result<Vec<RunPlan>, SpecError> {
    spec.validate()?;
    let axes = spec.sweep.as_ref().map(|s| s.0.clone()).unwrap_or_default();
    let mut doc = spec.to_value();
    // The expanded points must not re-expand.
    if let Value::Map(m) = &mut doc {
        m.retain(|(k, _)| k != "sweep");
    }

    // Cartesian product, first axis outermost.
    let combos = axes
        .iter()
        .map(|a| a.values.len())
        .product::<usize>()
        .max(1);
    let mut plans = Vec::new();
    for combo in 0..combos {
        let mut point = doc.clone();
        let mut params = Vec::new();
        let mut rem = combo;
        // First axis varies slowest: divide from the right.
        let mut strides = vec![1usize; axes.len()];
        for i in (0..axes.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * axes[i + 1].values.len();
        }
        for (axis, stride) in axes.iter().zip(&strides) {
            let idx = rem / stride;
            rem %= stride;
            let value = axis.values[idx].clone();
            set_path(&mut point, &axis.param, value.clone())?;
            params.push((axis.param.clone(), value));
        }
        let point_spec = ScenarioSpec::from_value(&point)
            .map_err(|e| SpecError(format!("sweep point {combo}: {e}")))?;
        point_spec.validate()?;
        // A typo'd axis path would be silently dropped by deserialization
        // (unknown fields are ignored), leaving every sweep point identical
        // while the params column claims variation. Re-serialize the typed
        // spec and check each swept value actually landed on a real field.
        let landed = point_spec.to_value();
        for (param, value) in &params {
            match get_path(&landed, param) {
                Some(v) if values_equivalent(v, value) => {}
                Some(v) => {
                    return Err(SpecError(format!(
                        "sweep parameter `{param}`: value {} did not take effect \
                         (spec field holds {})",
                        render_value(value),
                        render_value(v)
                    )));
                }
                None => {
                    return Err(SpecError(format!(
                        "sweep parameter `{param}` does not name a spec field \
                         (typo? see `ScenarioSpec` for valid paths)"
                    )));
                }
            }
        }
        for adapter in point_spec.adapters() {
            let run_idx = plans.len();
            plans.push(RunPlan {
                run_idx,
                spec: point_spec.clone(),
                adapter,
                params: params.clone(),
                seed: mix_seed(spec.seed, run_idx as u64),
            });
        }
    }
    Ok(plans)
}

/// Builds the per-link traces for one run (2 per client: up, down).
///
/// Channel realizations derive from the *spec* seed (not the per-run
/// seed), so every run in a matrix that shares channel parameters sees
/// the same traces — the paper's comparison methodology (§6.1: all
/// adapters are evaluated over identical channel realizations). Runs
/// whose sweep point changes the channel get different traces through the
/// changed parameters themselves; only MAC/transport randomness varies
/// with the per-run seed. This also lets the PHY backend's on-disk cache
/// serve a whole adapter axis from one generation pass.
fn traces_for(plan: &RunPlan) -> Vec<Arc<LinkTrace>> {
    let channel_seed = mix_seed(plan.spec.seed, 0xC4A2_17CE);
    (0..2 * plan.spec.n_clients())
        .map(|link| build_trace(&plan.spec, channel_seed, link))
        .collect()
}

/// Resolves an [`AdapterSpec`] to a simulator [`AdapterKind`], training SNR
/// tables on the run's own traces when no explicit table is given (the
/// paper's "trained in this environment" configuration).
fn resolve_adapter(adapter: &AdapterSpec, traces: &[Arc<LinkTrace>]) -> AdapterKind {
    let table = |explicit: &Option<Vec<f64>>| -> SnrTable {
        match explicit {
            Some(t) => SnrTable::new(t.clone()),
            None => {
                let mut obs = Vec::new();
                for t in traces {
                    obs.extend(observations_from_trace(t));
                }
                train_snr_table(&obs)
            }
        }
    };
    match adapter {
        AdapterSpec::SoftRate => AdapterKind::SoftRate,
        AdapterSpec::SoftRateIdeal => AdapterKind::SoftRateIdeal,
        AdapterSpec::SoftRateNoDetect => AdapterKind::SoftRateNoDetect,
        AdapterSpec::SampleRate => AdapterKind::SampleRate,
        AdapterSpec::Rraa => AdapterKind::Rraa,
        AdapterSpec::Snr { table: t } => AdapterKind::Snr(table(t)),
        AdapterSpec::Charm { table: t } => AdapterKind::Charm(table(t)),
        AdapterSpec::Omniscient => AdapterKind::Omniscient,
        AdapterSpec::Fixed { rate_idx } => AdapterKind::Fixed(*rate_idx),
    }
}

/// Resolves an [`AdapterSpec`] without traces (spatial topologies): the
/// SNR/CHARM tables must be explicit, which spec validation guarantees.
fn resolve_adapter_traceless(adapter: &AdapterSpec) -> AdapterKind {
    match adapter {
        AdapterSpec::Snr { table: Some(t) } => AdapterKind::Snr(SnrTable::new(t.clone())),
        AdapterSpec::Charm { table: Some(t) } => AdapterKind::Charm(SnrTable::new(t.clone())),
        other => resolve_adapter(other, &[]),
    }
}

/// Builds one JSONL row from a plan and the unified engine report — both
/// simulators now speak [`RunReport`], so one constructor serves the
/// trace-backed and spatial paths alike.
fn result_from_report(plan: &RunPlan, report: RunReport) -> RunResult {
    let (over, accurate, under) = report.audit.fractions();
    RunResult {
        scenario: plan.spec.name.clone(),
        run_idx: plan.run_idx,
        adapter: plan.adapter.label(),
        params: plan.params.clone(),
        seed: plan.seed,
        duration: plan.spec.duration,
        goodput_bps: report.aggregate_goodput_bps,
        per_flow_goodput_bps: report.per_flow_goodput_bps,
        frames_sent: report.frames_sent,
        frames_delivered: report.frames_delivered,
        loss_rate: if report.frames_sent == 0 {
            0.0
        } else {
            1.0 - report.frames_delivered as f64 / report.frames_sent as f64
        },
        collisions: report.collisions,
        silent_losses: report.silent_losses,
        overselect: over,
        accurate,
        underselect: under,
        handoffs: report.handoffs,
    }
}

/// Maps the scenario traffic model onto the simulator's kind.
fn traffic_kind(model: TrafficModel) -> TrafficKind {
    match model {
        TrafficModel::Tcp => TrafficKind::Tcp,
        TrafficModel::UdpBulk => TrafficKind::UdpBulk,
        TrafficModel::OnOff {
            rate_pps,
            on_s,
            off_s,
        } => TrafficKind::OnOff {
            rate_pps,
            on_s,
            off_s,
        },
    }
}

/// The spatial workload for a plan: saturated uplink UDP stays on the
/// medium's native zero-queue fast path (byte-identical to the
/// pre-transport subsystem); everything else rides the shared
/// [`softrate_sim::transport::TransportLayer`] over the
/// [`TransportConfig::enterprise`] backhaul.
fn spatial_traffic(plan: &RunPlan) -> SpatialTraffic {
    let spec = &plan.spec;
    match (spec.traffic.kind, spec.direction()) {
        (TrafficModel::UdpBulk, Direction::Upload) => SpatialTraffic::SaturatedUplinkUdp,
        (kind, dir) => {
            let mut tc = TransportConfig::enterprise(
                traffic_kind(kind),
                matches!(dir, Direction::Upload),
                plan.seed,
            );
            if let Some(cap) = spec.topology.queue_cap {
                tc.queue_cap = cap;
            }
            SpatialTraffic::Flows(tc)
        }
    }
}

/// Executes one spatial plan on the streaming multi-cell simulator.
///
/// The spatial seed derives from the *spec* seed (not the per-run seed)
/// for the same reason single-cell traces do: every adapter in a matrix
/// shares one deployment — station spawns, trajectories, and fading — so
/// algorithms are compared over identical channel realizations (§6.1).
fn run_spatial_plan(
    plan: &RunPlan,
    telemetry: Option<&RecorderConfig>,
) -> (RunResult, Option<TelemetryReport>) {
    let spec = &plan.spec;
    let mut spatial = spec
        .topology
        .spatial
        .clone()
        .expect("spatial plan has a spatial topology");
    // `channel.snr_db` is the reference SNR at 1 m unless the spatial
    // table overrides it — one consistent meaning for the field.
    spatial.snr_ref_db = Some(spatial.snr_ref_db.unwrap_or(spec.channel.snr_db));
    let mut cfg = SpatialConfig::new(resolve_adapter_traceless(&plan.adapter), spatial);
    cfg.duration = spec.duration;
    cfg.seed = mix_seed(spec.seed, 0x5A7A_11CE);
    cfg.mac_seed = plan.seed;
    cfg.traffic = spatial_traffic(plan);
    // A present-but-empty [faults] table lowers to None here, keeping the
    // faults-off engine path provably untouched.
    cfg.faults = spec.faults.map(|f| f.lower()).filter(|f| !f.is_noop());
    cfg.telemetry = telemetry.cloned();
    let report = SpatialSim::new(cfg)
        .expect("validated spatial spec resolves")
        .run();
    finish_report(plan, report)
}

/// Splits the engine report into the JSONL result row and the (stamped)
/// telemetry report.
fn finish_report(plan: &RunPlan, mut report: RunReport) -> (RunResult, Option<TelemetryReport>) {
    let mut telemetry = report.telemetry.take();
    if let Some(t) = telemetry.as_mut() {
        t.stamp_run_idx(plan.run_idx as u64);
    }
    (result_from_report(plan, report), telemetry)
}

/// Execution options for a plan matrix, beyond the plans themselves.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Worker threads across the matrix (`None`: the machine's
    /// parallelism).
    pub threads: Option<usize>,
    /// Telemetry recorder per run; `None` never constructs a recorder.
    pub telemetry: Option<RecorderConfig>,
}

/// Executes one plan under `opts` (its `threads` is unused here).
///
/// With `opts.telemetry: None` the recorder is never constructed and the
/// run is bit-identical to the pre-telemetry engine.
fn run_plan_with_options(
    plan: &RunPlan,
    opts: &RunOptions,
) -> (RunResult, Option<TelemetryReport>) {
    let telemetry = opts.telemetry.as_ref();
    if plan.spec.topology.spatial.is_some() {
        return run_spatial_plan(plan, telemetry);
    }
    let traces = traces_for(plan);
    let spec = &plan.spec;
    let mut cfg = SimConfig::new(resolve_adapter(&plan.adapter, &traces), spec.n_clients());
    cfg.duration = spec.duration;
    cfg.upload = matches!(spec.direction(), Direction::Upload);
    cfg.carrier_sense_prob = spec.carrier_sense_prob();
    cfg.traffic = traffic_kind(spec.traffic.kind);
    if let Some(cap) = spec.topology.queue_cap {
        cfg.queue_cap = cap;
    }
    cfg.seed = plan.seed;
    cfg.telemetry = telemetry.cloned();
    // Hint corruption is the only fault class the single-cell medium
    // honours (validation rejects the geometric ones); zero-effect
    // settings lower to None so the seam stays untouched.
    cfg.hint_faults = spec
        .faults
        .and_then(|f| f.lower().hint)
        .filter(|h| h.drop_prob > 0.0 || h.quantize_db > 0.0);

    let report = NetSim::new(cfg, traces).run();
    finish_report(plan, report)
}

/// One structured JSONL row for a run that panicked instead of
/// completing. The leading `kind: "error"` discriminates it from
/// [`RunResult`] rows (which have no `kind`) in a mixed results file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FailedRunRow {
    /// Always `"error"` — the row discriminator.
    pub kind: String,
    /// Scenario name.
    pub scenario: String,
    /// Matrix position of the failed run.
    pub run_idx: usize,
    /// Adapter label.
    pub adapter: String,
    /// Swept parameter assignments.
    pub params: Vec<(String, Value)>,
    /// The run's seed (reproduce with `run --only <idx>`).
    pub seed: u64,
    /// The panic message.
    pub error: String,
}

/// What one checked run produced: a result (plus telemetry), or the
/// structured record of its panic (boxed — the failure path is cold and
/// the row is bigger than the hot `Ok` tuple's pointer budget).
pub type RunOutcome = Result<(RunResult, Option<TelemetryReport>), Box<FailedRunRow>>;

/// Renders a panic payload (the `Box<dyn Any>` from `catch_unwind`) as
/// text; `panic!` with a literal gives `&str`, with `format!` a `String`.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// `run_plan_with_options`, but a panicking engine yields a
/// [`FailedRunRow`] instead of tearing down the whole matrix. The
/// `AssertUnwindSafe` is sound because the run's entire mutable state is
/// constructed inside the closure and abandoned on unwind — nothing
/// shared survives to observe a broken invariant.
pub fn run_plan_checked(plan: &RunPlan, opts: &RunOptions) -> RunOutcome {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_plan_with_options(plan, opts)
    }))
    .map_err(|payload| {
        Box::new(FailedRunRow {
            kind: "error".into(),
            scenario: plan.spec.name.clone(),
            run_idx: plan.run_idx,
            adapter: plan.adapter.label(),
            params: plan.params.clone(),
            seed: plan.seed,
            error: panic_message(payload.as_ref()),
        })
    })
}

/// Runs every plan on `opts.threads` workers (default: the machine's
/// parallelism) and calls `sink`, on the calling thread, with each plan's
/// [`run_plan_checked`] outcome in matrix order as soon as that run and
/// every earlier one are done. One panicking run never costs the rest of
/// the matrix, and what the sink writes is byte-identical across thread
/// counts.
pub fn run_matrix(plans: &[RunPlan], opts: &RunOptions, sink: impl FnMut(RunOutcome)) {
    par_map_into(
        opts.threads.unwrap_or_else(available_threads),
        plans,
        |plan| run_plan_checked(plan, opts),
        sink,
    );
}

/// [`run_matrix`], collected: every outcome, in matrix order. Callers
/// decide the exit status — a failed run is a [`FailedRunRow`], not an
/// error of the whole matrix.
pub fn run_all_checked(plans: &[RunPlan], opts: &RunOptions) -> Vec<RunOutcome> {
    let mut outcomes = Vec::with_capacity(plans.len());
    run_matrix(plans, opts, |o| outcomes.push(o));
    outcomes
}

/// Serializes checked outcomes as JSON-lines in matrix order: result
/// rows for completed runs, `kind: "error"` rows for panicked ones.
pub fn outcomes_to_jsonl(outcomes: &[RunOutcome]) -> String {
    let mut out = String::new();
    for o in outcomes {
        match o {
            Ok((r, _)) => serde_json::append(&mut out, r),
            Err(f) => serde_json::append(&mut out, f.as_ref()),
        }
        out.push('\n');
    }
    out.shrink_to_fit();
    out
}

/// Convenience: expand and run a spec without telemetry. Panics with the
/// [`FailedRunRow`] message if a run panics.
pub fn run_spec(spec: &ScenarioSpec, threads: Option<usize>) -> Result<Vec<RunResult>, SpecError> {
    let opts = RunOptions {
        threads,
        telemetry: None,
    };
    let outcomes = run_all_checked(&expand(spec)?, &opts);
    let result = |o: RunOutcome| {
        o.unwrap_or_else(|f| panic!("run {}: {}", f.run_idx, f.error))
            .0
    };
    Ok(outcomes.into_iter().map(result).collect())
}

/// Renders a fixed-width summary table of a result set.
pub fn summary_table(results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>4}  {:<20} {:<28} {:>10} {:>7} {:>7} {:>16}\n",
        "run", "adapter", "params", "Mbit/s", "loss%", "coll", "over/acc/under"
    ));
    for r in results {
        let params: String = r
            .params
            .iter()
            .map(|(k, v)| {
                let short = k.rsplit('.').next().unwrap_or(k);
                format!("{short}={}", render_value(v))
            })
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!(
            "{:>4}  {:<20} {:<28} {:>10.2} {:>7.1} {:>7} {:>5.0}/{:.0}/{:.0}%\n",
            r.run_idx,
            r.adapter,
            params,
            r.goodput_bps / 1e6,
            r.loss_rate * 100.0,
            r.collisions,
            r.overselect * 100.0,
            r.accurate * 100.0,
            r.underselect * 100.0,
        ));
    }
    out
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => serde_json::to_string(other).unwrap_or_default(),
    }
}

/// Parses a scenario document from text, sniffing JSON vs TOML.
pub fn parse_spec(text: &str) -> Result<ScenarioSpec, SpecError> {
    if text.trim_start().starts_with('{') {
        ScenarioSpec::from_json(text)
    } else {
        ScenarioSpec::from_toml(text)
    }
}

/// Re-exported for spec-level tooling: parse a TOML document to a raw
/// [`Value`] (used by `softrate-scenarios show --expanded`).
pub fn parse_toml_value(text: &str) -> Result<Value, SpecError> {
    Ok(toml::parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChannelModel, ChannelSpec, Sweep, SweepAxis, TopologySpec, TrafficSpec};
    use softrate_channel::model::FadingSpec;

    fn sweep_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "matrix".into(),
            description: None,
            duration: 0.5,
            seed: 99,
            topology: TopologySpec {
                n_clients: Some(1),
                carrier_sense_prob: None,
                queue_cap: None,
                spatial: None,
            },
            channel: ChannelSpec {
                model: ChannelModel::Analytic,
                snr_db: 15.0,
                fading: FadingSpec::None,
                attenuation: None,
                interference: None,
                probe_interval: None,
            },
            traffic: TrafficSpec {
                kind: TrafficModel::Tcp,
                direction: None,
            },
            faults: None,
            adapters: Some(vec![AdapterSpec::SoftRate, AdapterSpec::Omniscient]),
            sweep: Some(Sweep(vec![
                SweepAxis {
                    param: "channel.snr_db".into(),
                    values: vec![Value::Float(10.0), Value::Float(16.0), Value::Float(22.0)],
                },
                SweepAxis {
                    param: "topology.n_clients".into(),
                    values: vec![Value::Int(1), Value::Int(2)],
                },
            ])),
        }
    }

    #[test]
    fn expansion_cardinality_is_cartesian_times_adapters() {
        let plans = expand(&sweep_spec()).unwrap();
        // 3 SNRs x 2 client counts x 2 adapters.
        assert_eq!(plans.len(), 12);
        // First axis outermost: the first 4 plans share snr 10.
        for p in &plans[..4] {
            assert_eq!(p.spec.channel.snr_db, 10.0);
        }
        assert_eq!(plans[4].spec.channel.snr_db, 16.0);
        // Params record the assignment.
        assert_eq!(plans[0].params[0].0, "channel.snr_db");
        assert_eq!(plans[1].spec.n_clients(), 1);
        assert_eq!(plans[2].spec.n_clients(), 2);
        // Expanded points carry no sweep of their own.
        assert!(plans[0].spec.sweep.is_none());
        // Seeds are distinct per run (sort first: dedup is adjacent-only).
        let mut seeds: Vec<u64> = plans.iter().map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 12);
    }

    #[test]
    fn unknown_sweep_path_errors() {
        let mut s = sweep_spec();
        s.sweep = Some(Sweep(vec![SweepAxis {
            param: "channel.snr_db.deeper".into(),
            values: vec![Value::Int(1)],
        }]));
        assert!(expand(&s).is_err());
    }

    #[test]
    fn sweep_point_with_invalid_value_errors() {
        let mut s = sweep_spec();
        s.sweep = Some(Sweep(vec![SweepAxis {
            param: "topology.n_clients".into(),
            values: vec![Value::Int(0)],
        }]));
        assert!(
            expand(&s).is_err(),
            "n_clients = 0 must fail point validation"
        );
    }

    /// Through `run_matrix` with every stream on, at 1, 2 and 8 threads:
    /// the sink sees run indices 0..n in order, and the results and all
    /// three telemetry streams it writes are byte-identical.
    #[test]
    fn results_are_deterministic_across_thread_counts() {
        let mut s = sweep_spec();
        // Shrink: 3 snrs x 1 adapter for speed.
        s.adapters = Some(vec![AdapterSpec::SoftRate]);
        s.sweep = Some(Sweep(vec![SweepAxis {
            param: "channel.snr_db".into(),
            values: vec![Value::Float(12.0), Value::Float(16.0), Value::Float(20.0)],
        }]));
        let plans = expand(&s).unwrap();
        let opts = |threads| RunOptions {
            threads: Some(threads),
            telemetry: Some(RecorderConfig {
                trace: true,
                decisions: true,
                ..RecorderConfig::default()
            }),
        };
        let run = |threads| {
            let (mut order, mut streams) = (Vec::new(), [(); 4].map(|()| String::new()));
            run_matrix(&plans, &opts(threads), |o| {
                let (r, t) = o.expect("run completes");
                order.push(r.run_idx);
                serde_json::append(&mut streams[0], &r);
                streams[0].push('\n');
                let t = t.expect("telemetry on");
                streams[1] += &t.metrics_jsonl();
                streams[2] += &t.trace_jsonl();
                streams[3] += &t.decisions_jsonl();
            });
            assert_eq!(
                order,
                (0..plans.len()).collect::<Vec<_>>(),
                "threads {threads}"
            );
            streams
        };
        let a = run(1);
        assert!(a.iter().all(|s| !s.is_empty()));
        assert_eq!(a, run(2), "thread count must not change results");
        assert_eq!(a, run(8), "thread count must not change results");
        let parsed: Vec<RunResult> = a[0]
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(parsed.len(), 3);
        assert!(parsed.iter().all(|r| r.goodput_bps > 0.0));
    }

    #[test]
    fn goodput_tracks_snr_across_the_sweep() {
        let mut s = sweep_spec();
        s.adapters = Some(vec![AdapterSpec::Omniscient]);
        s.sweep = Some(Sweep(vec![SweepAxis {
            param: "channel.snr_db".into(),
            values: vec![Value::Float(6.0), Value::Float(20.0)],
        }]));
        let results = run_spec(&s, Some(2)).unwrap();
        assert!(
            results[1].goodput_bps > 1.5 * results[0].goodput_bps,
            "20 dB ({}) must beat 6 dB ({})",
            results[1].goodput_bps,
            results[0].goodput_bps
        );
    }

    #[test]
    fn udp_bulk_runs_and_reports() {
        let mut s = sweep_spec();
        s.traffic.kind = TrafficModel::UdpBulk;
        s.adapters = Some(vec![AdapterSpec::Fixed { rate_idx: 3 }]);
        s.sweep = None;
        let results = run_spec(&s, Some(1)).unwrap();
        assert_eq!(results.len(), 1);
        assert!(
            results[0].goodput_bps > 1e6,
            "saturated UDP at 15 dB should move megabits ({})",
            results[0].goodput_bps
        );
        assert!(results[0].frames_sent > 0);
    }

    #[test]
    fn checked_matrix_survives_a_panicking_run() {
        use softrate_net::mobility::MobilitySpec;
        use softrate_net::spatial::SpatialSpec;
        let mut s = sweep_spec();
        s.adapters = Some(vec![AdapterSpec::SoftRate]);
        s.sweep = None;
        let mut plans = expand(&s).unwrap();
        assert_eq!(plans.len(), 1);
        // Hand-build a poisoned plan (expand would reject its spec): a
        // spatial topology that fails to resolve trips the engine's
        // "validated spatial spec resolves" expect — a real panic, not a
        // simulated one.
        let mut bad = plans[0].clone();
        bad.run_idx = 1;
        bad.spec.topology.spatial = Some(SpatialSpec {
            ap_cols: 1,
            ap_rows: 1,
            ap_spacing_m: 30.0,
            n_stations: 0,
            snr_ref_db: None,
            path_loss_exp: None,
            sense_snr_db: None,
            capture_sir_db: None,
            doppler_hz: None,
            mobility: MobilitySpec::Static,
            roaming: None,
        });
        plans.push(bad);

        let outcomes = run_all_checked(&plans, &RunOptions::default());
        assert_eq!(outcomes.len(), 2, "the panic must not kill the matrix");
        assert!(outcomes[0].is_ok(), "the healthy run completes");
        let failed = outcomes[1].as_ref().expect_err("poisoned run fails");
        assert_eq!(failed.kind, "error");
        assert_eq!(failed.run_idx, 1);
        assert_eq!(failed.seed, plans[1].seed);
        assert!(!failed.error.is_empty(), "panic message captured");

        let jsonl = outcomes_to_jsonl(&outcomes);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            !lines[0].contains("\"kind\""),
            "result rows carry no kind discriminator"
        );
        assert!(lines[1].contains("\"kind\":\"error\""));
        // The healthy row still parses as a RunResult.
        let parsed: RunResult = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(parsed.run_idx, 0);
    }

    #[test]
    fn jsonl_roundtrip() {
        let mut s = sweep_spec();
        s.adapters = Some(vec![AdapterSpec::SoftRate]);
        s.sweep = None;
        let outcomes = run_all_checked(&expand(&s).unwrap(), &RunOptions::default());
        let results: Vec<RunResult> = outcomes.iter().map(|o| o.clone().unwrap().0).collect();
        let text = outcomes_to_jsonl(&outcomes);
        let back: Vec<RunResult> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(back.len(), results.len());
        assert_eq!(back[0].adapter, results[0].adapter);
        assert_eq!(back[0].goodput_bps, results[0].goodput_bps);
        assert!(!summary_table(&results).is_empty());
    }
}
