//! The declarative scenario schema: what one experiment *is*, as data.
//!
//! A [`ScenarioSpec`] fully describes an experiment — topology, channel,
//! traffic, adapters under test, duration, and RNG seed — and can carry a
//! [`Sweep`] of parameter axes that the engine expands into a cartesian run
//! matrix. Specs serialize to/from TOML (via [`crate::toml`]) and JSON (via
//! `serde_json`), so "a new workload" is a data file, not a new binary.

use serde::{DeError, Deserialize, Serialize, Value};
use softrate_channel::model::FadingSpec;
use softrate_channel::pathloss::Attenuation;
use softrate_net::spatial::SpatialSpec;
use softrate_sim::fault;

use crate::toml;

/// Error building or validating a scenario.
#[derive(Debug, Clone)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl From<DeError> for SpecError {
    fn from(e: DeError) -> Self {
        SpecError(e.to_string())
    }
}

impl From<toml::TomlError> for SpecError {
    fn from(e: toml::TomlError) -> Self {
        SpecError(e.to_string())
    }
}

/// One fully described experiment (before sweep expansion).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (used in run labels and result files).
    pub name: String,
    /// Human-readable description.
    pub description: Option<String>,
    /// Simulated seconds per run.
    pub duration: f64,
    /// Master seed; every run derives its own seed from this plus its
    /// position in the expanded matrix.
    pub seed: u64,
    /// Who talks to whom.
    pub topology: TopologySpec,
    /// The wireless channel every link experiences.
    pub channel: ChannelSpec,
    /// What the flows carry.
    pub traffic: TrafficSpec,
    /// Deterministic fault injection (`softrate-faults`): outages,
    /// jammer bursts, SNR cliffs, churn, hint corruption. Omitted (or
    /// empty) means faults-off — byte-identical to a pre-fault build.
    pub faults: Option<FaultsSpec>,
    /// Adapters under test — one run per adapter (an implicit matrix axis).
    /// Defaults to SoftRate alone when omitted.
    pub adapters: Option<Vec<AdapterSpec>>,
    /// Parameter sweep axes (cartesian product).
    pub sweep: Option<Sweep>,
}

/// Topology parameters.
///
/// Two mutually exclusive shapes: the classic single-cell Figure 12
/// topology (`n_clients` stations around one AP, trace-driven links), or a
/// multi-cell spatial deployment (`[topology.spatial]`: an AP grid,
/// mobility, roaming, streaming channels — see
/// [`softrate_net::spatial::SpatialSpec`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologySpec {
    /// Number of wireless clients (one flow each) in the single-cell
    /// topology; defaults to 1. Must be omitted when `spatial` is set.
    pub n_clients: Option<usize>,
    /// Probability that one client carrier-senses another's transmission
    /// (1.0 = perfect carrier sense, 0.0 = fully hidden terminals).
    /// Single-cell only: the spatial topology senses by geometry.
    pub carrier_sense_prob: Option<f64>,
    /// MAC queue capacity in frames (default 50). Applies to single-cell
    /// links and to spatial flow traffic (TCP / on–off / UDP download);
    /// the saturated-uplink-UDP spatial fast path has no queues.
    pub queue_cap: Option<usize>,
    /// Multi-cell spatial deployment; routes the run to the streaming
    /// `softrate-net` simulator instead of the trace-driven one.
    pub spatial: Option<SpatialSpec>,
}

/// Traffic parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficSpec {
    /// Transport workload.
    pub kind: TrafficModel,
    /// Flow direction (default `Upload`).
    pub direction: Option<Direction>,
}

/// Transport workload kinds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrafficModel {
    /// TCP NewReno bulk transfer.
    Tcp,
    /// Saturated UDP datagram stream.
    UdpBulk,
    /// Non-saturated bursty source: Poisson datagram arrivals at
    /// `rate_pps` during `on_s`-second bursts separated by `off_s`-second
    /// silences (per-flow phase stagger; drop-tail at a full source
    /// queue).
    OnOff {
        /// Mean arrival rate while on, packets/second (> 0).
        rate_pps: f64,
        /// Burst duration, seconds (> 0).
        on_s: f64,
        /// Silence between bursts, seconds (>= 0).
        off_s: f64,
    },
}

/// Flow direction over the wireless hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Clients send to LAN hosts.
    Upload,
    /// LAN hosts send to clients.
    Download,
}

/// How link traces are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChannelModel {
    /// Closed-form SNR→BER model over the real Jakes fading envelope:
    /// hundreds of times faster than the PHY, good enough for protocol
    /// dynamics studies and large sweeps. Deterministic per seed.
    Analytic,
    /// Full software PHY per probe (OFDM + BCJR), the paper's methodology.
    /// Slow; traces are cached on disk keyed by the channel parameters.
    Phy,
}

/// The wireless channel shared by every link in the scenario. Each link
/// gets its own fading/noise realization (distinct seeds) of this spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelSpec {
    /// Trace production model.
    pub model: ChannelModel,
    /// Mean SNR in dB (before attenuation/fading).
    pub snr_db: f64,
    /// Small-scale fading (reuses the channel crate's spec verbatim).
    pub fading: FadingSpec,
    /// Large-scale attenuation trajectory (default: none).
    pub attenuation: Option<Attenuation>,
    /// Periodic wideband interference bursts — a microwave-oven-style
    /// duty cycle that floors the SINR while active. Analytic model only.
    pub interference: Option<BurstInterference>,
    /// Probing interval in seconds (default 5 ms, the paper's budget).
    pub probe_interval: Option<f64>,
}

/// Periodic interference bursts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BurstInterference {
    /// Burst repetition period, seconds.
    pub period: f64,
    /// Burst duration within each period, seconds.
    pub burst_len: f64,
    /// SINR penalty while the burst is active, dB.
    pub penalty_db: f64,
}

/// A rate-adaptation algorithm under test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdapterSpec {
    /// SoftRate as evaluated in the paper (80 % detection, no postambles).
    SoftRate,
    /// Ideal SoftRate: postambles + perfect interference detection.
    SoftRateIdeal,
    /// SoftRate with its interference detector disabled (ablation).
    SoftRateNoDetect,
    /// SampleRate with a 1-second window.
    SampleRate,
    /// RRAA with adaptive RTS.
    Rraa,
    /// Per-frame SNR feedback. `table` is the per-rate minimum SNR in dB;
    /// when omitted the engine trains a table on this run's own traces.
    Snr {
        /// Explicit per-rate minimum-SNR thresholds (dB), non-decreasing.
        table: Option<Vec<f64>>,
    },
    /// CHARM-like averaged SNR; `table` as for `Snr`.
    Charm {
        /// Explicit per-rate minimum-SNR thresholds (dB), non-decreasing.
        table: Option<Vec<f64>>,
    },
    /// The trace oracle.
    Omniscient,
    /// Pinned to one rate.
    Fixed {
        /// Rate index to pin.
        rate_idx: usize,
    },
}

impl AdapterSpec {
    /// Display label used in run names and result lines.
    pub fn label(&self) -> String {
        match self {
            AdapterSpec::SoftRate => "SoftRate".into(),
            AdapterSpec::SoftRateIdeal => "SoftRate-Ideal".into(),
            AdapterSpec::SoftRateNoDetect => "SoftRate-NoDetect".into(),
            AdapterSpec::SampleRate => "SampleRate".into(),
            AdapterSpec::Rraa => "RRAA".into(),
            AdapterSpec::Snr { table: Some(_) } => "SNR-pretrained".into(),
            AdapterSpec::Snr { table: None } => "SNR".into(),
            AdapterSpec::Charm { .. } => "CHARM".into(),
            AdapterSpec::Omniscient => "Omniscient".into(),
            AdapterSpec::Fixed { rate_idx } => format!("Fixed-{rate_idx}"),
        }
    }
}

/// The `[faults]` table: deterministic fault injection, sweepable like
/// any other axis (e.g. `"faults.jammer.power_db" = [0.0, 10.0]`).
///
/// Every class is optional and at most one fault of each class runs per
/// point. An empty table is exactly equivalent to no table at all: the
/// engine lowers a no-op spec to `None`, so faults-off runs stay
/// byte-identical to pre-fault builds (pinned by test). All classes
/// except `hint` need geometry and therefore a spatial topology.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultsSpec {
    /// AP blackout + restart: the AP stops receiving/acking/sending at
    /// `at`, drops its queued downlink frames (with accounting), and
    /// returns at `at + duration`; stations re-home via roaming.
    pub ap_outage: Option<ApOutageSpec>,
    /// Stationary wideband jammer burst: receptions whose
    /// signal-to-jammer ratio falls below the capture SIR are corrupted
    /// while the burst is on. Attacks receptions, not airtime.
    pub jammer: Option<JammerSpec>,
    /// Noise-floor step: every link's SNR drops by `delta_db` (an SNR
    /// cliff), recovering after `duration` if one is given.
    pub noise_step: Option<NoiseStepSpec>,
    /// Station churn: a join wave (flash crowd) and/or a leave wave.
    pub churn: Option<ChurnSpec>,
    /// SoftPHY hint corruption: per-frame confidences dropped or
    /// quantized. The only class that also applies to the single-cell
    /// trace topology.
    pub hint: Option<HintFaultsSpec>,
}

/// `[faults.ap_outage]`: timed AP death and restart.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ApOutageSpec {
    /// Index of the AP to kill (row-major grid order).
    pub ap: usize,
    /// Outage start, seconds into the run.
    pub at: f64,
    /// Outage length, seconds; the AP restarts at `at + duration`.
    pub duration: f64,
}

/// `[faults.jammer]`: a timed jammer burst at a fixed position.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JammerSpec {
    /// Jammer x position, metres.
    pub x: f64,
    /// Jammer y position, metres.
    pub y: f64,
    /// Transmit power relative to an AP's reference power, dB
    /// (0 = as loud as an AP; positive = louder). Defaults to 0.
    pub power_db: Option<f64>,
    /// Burst start, seconds into the run.
    pub at: f64,
    /// Burst length, seconds.
    pub duration: f64,
}

/// `[faults.noise_step]`: a timed step change in the noise floor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseStepSpec {
    /// Step start, seconds into the run.
    pub at: f64,
    /// SNR reduction while active, dB (positive = worse channel).
    pub delta_db: f64,
    /// Step length, seconds; omitted holds the step to the run's end.
    pub duration: Option<f64>,
}

/// `[faults.churn]`: join/leave waves. Joiners are the *last*
/// `join_count` stations (dormant until their individual join time
/// `join_at + U(0, join_ramp_s)`, a seeded per-station draw); leavers
/// are the *first* `leave_count` stations. Omitted counts default to 0.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnSpec {
    /// How many stations join late (default 0).
    pub join_count: Option<usize>,
    /// Earliest join time, seconds (default 0).
    pub join_at: Option<f64>,
    /// Width of the join wave, seconds (default 0 = all at once).
    pub join_ramp_s: Option<f64>,
    /// How many stations leave mid-run (default 0).
    pub leave_count: Option<usize>,
    /// Earliest leave time, seconds (default 0).
    pub leave_at: Option<f64>,
    /// Width of the leave wave, seconds (default 0).
    pub leave_ramp_s: Option<f64>,
}

/// `[faults.hint]`: SoftPHY hint corruption, the paper's own
/// robustness knob (§6.4 runs SoftRate with degraded feedback).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HintFaultsSpec {
    /// Probability a frame's BER/SNR hints are lost entirely
    /// (default 0).
    pub drop_prob: Option<f64>,
    /// Quantization step for surviving hints, dB (default 0 = exact).
    pub quantize_db: Option<f64>,
}

impl FaultsSpec {
    /// Lowers the serde-facing table into the plain-data
    /// [`softrate_sim::fault::FaultConfig`] the simulators consume,
    /// applying defaults (mirrors how `TrafficSpec` lowers into
    /// `TrafficKind`).
    pub fn lower(&self) -> fault::FaultConfig {
        fault::FaultConfig {
            ap_outage: self.ap_outage.map(|o| fault::ApOutage {
                ap: o.ap,
                at: o.at,
                duration: o.duration,
            }),
            jammer: self.jammer.map(|j| fault::Jammer {
                x: j.x,
                y: j.y,
                power_db: j.power_db.unwrap_or(0.0),
                at: j.at,
                duration: j.duration,
            }),
            noise_step: self.noise_step.map(|s| fault::NoiseStep {
                at: s.at,
                delta_db: s.delta_db,
                duration: s.duration,
            }),
            churn: self.churn.map(|c| fault::Churn {
                join_count: c.join_count.unwrap_or(0),
                join_at: c.join_at.unwrap_or(0.0),
                join_ramp_s: c.join_ramp_s.unwrap_or(0.0),
                leave_count: c.leave_count.unwrap_or(0),
                leave_at: c.leave_at.unwrap_or(0.0),
                leave_ramp_s: c.leave_ramp_s.unwrap_or(0.0),
            }),
            hint: self.hint.map(|h| fault::HintFaults {
                drop_prob: h.drop_prob.unwrap_or(0.0),
                quantize_db: h.quantize_db.unwrap_or(0.0),
            }),
        }
    }
}

/// Sweep axes: an ordered list of `(dotted parameter path, values)`.
///
/// In TOML this is a table whose keys are dotted paths into the spec:
///
/// ```toml
/// [sweep]
/// "channel.snr_db" = [10.0, 16.0, 22.0]
/// "topology.n_clients" = [1, 3]
/// ```
///
/// Axes expand in declaration order (first axis outermost), so the run
/// matrix order — and therefore result files — is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep(pub Vec<SweepAxis>);

/// One sweep axis.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxis {
    /// Dotted path of the field to vary (e.g. `channel.snr_db`).
    pub param: String,
    /// Values the axis takes.
    pub values: Vec<Value>,
}

impl Serialize for Sweep {
    fn to_value(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|axis| (axis.param.clone(), Value::Seq(axis.values.clone())))
                .collect(),
        )
    }
}

impl Deserialize for Sweep {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = serde::struct_map(v, "Sweep")?;
        let mut axes = Vec::new();
        for (param, values) in m {
            let values = serde::seq(values, "Sweep axis")?.to_vec();
            if values.is_empty() {
                return Err(DeError::custom(format!(
                    "sweep axis `{param}` has no values"
                )));
            }
            axes.push(SweepAxis {
                param: param.clone(),
                values,
            });
        }
        Ok(Sweep(axes))
    }
}

impl ScenarioSpec {
    /// Parses a TOML scenario document.
    pub fn from_toml(text: &str) -> Result<Self, SpecError> {
        let doc = toml::parse(text)?;
        let spec = ScenarioSpec::from_value(&doc)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Serializes to TOML.
    pub fn to_toml(&self) -> String {
        toml::to_string(&self.to_value()).expect("spec serializes to a map")
    }

    /// Parses a JSON scenario document.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let spec: ScenarioSpec =
            serde_json::from_str(text).map_err(|e| SpecError(e.to_string()))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serializes")
    }

    /// Adapters under test, defaulting to SoftRate alone.
    pub fn adapters(&self) -> Vec<AdapterSpec> {
        match &self.adapters {
            Some(a) if !a.is_empty() => a.clone(),
            _ => vec![AdapterSpec::SoftRate],
        }
    }

    /// Effective client count for the single-cell topology.
    pub fn n_clients(&self) -> usize {
        self.topology.n_clients.unwrap_or(1)
    }

    /// Effective carrier-sense probability.
    pub fn carrier_sense_prob(&self) -> f64 {
        self.topology.carrier_sense_prob.unwrap_or(1.0)
    }

    /// Effective flow direction.
    pub fn direction(&self) -> Direction {
        self.traffic.direction.unwrap_or(Direction::Upload)
    }

    /// Effective probing interval.
    pub fn probe_interval(&self) -> f64 {
        self.channel.probe_interval.unwrap_or(0.005)
    }

    /// Structural sanity checks, run after every (re)deserialization —
    /// including on each sweep-expanded point.
    pub fn validate(&self) -> Result<(), SpecError> {
        let fail = |msg: String| Err(SpecError(format!("scenario `{}`: {msg}", self.name)));
        if self.name.is_empty() {
            return Err(SpecError("scenario name must not be empty".into()));
        }
        if !self.duration.is_finite() || self.duration <= 0.0 {
            return fail(format!("duration must be positive, got {}", self.duration));
        }
        if self.topology.n_clients == Some(0) {
            return fail("topology.n_clients must be >= 1".into());
        }
        let cs = self.carrier_sense_prob();
        if !(0.0..=1.0).contains(&cs) {
            return fail(format!("carrier_sense_prob must be in [0,1], got {cs}"));
        }
        if let Some(spatial) = &self.topology.spatial {
            if let Err(e) = spatial.resolve() {
                return fail(e.to_string());
            }
            if self.topology.n_clients.is_some() {
                return fail(
                    "topology.n_clients does not apply to a spatial topology \
                     (station count is topology.spatial.n_stations)"
                        .into(),
                );
            }
            if self.topology.carrier_sense_prob.is_some() {
                return fail(
                    "carrier_sense_prob does not apply to a spatial topology \
                     (sensing is geometric: topology.spatial.sense_snr_db)"
                        .into(),
                );
            }
            if self.topology.queue_cap.is_some()
                && self.traffic.kind == TrafficModel::UdpBulk
                && matches!(self.direction(), Direction::Upload)
            {
                return fail(
                    "queue_cap has no effect on saturated uplink UDP over a spatial \
                     topology (the fast path is queueless); it applies to spatial \
                     flow traffic — TCP, OnOff, or UDP download"
                        .into(),
                );
            }
            if self.channel.model != ChannelModel::Analytic {
                return fail(
                    "a spatial topology streams fates from the analytic model; \
                     set channel.model = \"Analytic\""
                        .into(),
                );
            }
            if self.channel.fading != FadingSpec::None {
                return fail(
                    "the spatial layer owns small-scale fading (Rayleigh, Doppler from \
                     mobility or topology.spatial.doppler_hz); set channel.fading = \"None\""
                        .into(),
                );
            }
            if self.channel.attenuation.is_some() || self.channel.interference.is_some() {
                return fail(
                    "channel.attenuation / channel.interference do not apply to a spatial \
                     topology (path loss comes from geometry, interference from \
                     concurrent transmissions)"
                        .into(),
                );
            }
            for adapter in self.adapters() {
                if matches!(
                    adapter,
                    AdapterSpec::Snr { table: None } | AdapterSpec::Charm { table: None }
                ) {
                    return fail(
                        "SNR/CHARM adapters need an explicit `table` in a spatial topology \
                         (there are no traces to train on)"
                            .into(),
                    );
                }
            }
        }
        if !self.probe_interval().is_finite() || self.probe_interval() <= 0.0 {
            return fail("probe_interval must be positive".into());
        }
        if let Some(f) = &self.faults {
            self.validate_faults(f)?;
        }
        if let TrafficModel::OnOff {
            rate_pps,
            on_s,
            off_s,
        } = self.traffic.kind
        {
            if !rate_pps.is_finite() || rate_pps <= 0.0 {
                return fail(format!("OnOff rate_pps must be positive, got {rate_pps}"));
            }
            if !on_s.is_finite() || on_s <= 0.0 {
                return fail(format!("OnOff on_s must be positive, got {on_s}"));
            }
            if !off_s.is_finite() || off_s < 0.0 {
                return fail(format!("OnOff off_s must be >= 0, got {off_s}"));
            }
        }
        if self.channel.interference.is_some() && self.channel.model == ChannelModel::Phy {
            return fail(
                "interference bursts are only supported by the Analytic channel model".into(),
            );
        }
        if self.channel.model == ChannelModel::Analytic
            && matches!(self.channel.fading, FadingSpec::Multipath { .. })
        {
            return fail(
                "the Analytic channel model is frequency-flat and cannot honour \
                 Multipath fading (n_taps / decay_db_per_tap would be silently \
                 ignored) — use `model = \"Phy\"` or `fading.Flat`"
                    .into(),
            );
        }
        if let Some(b) = &self.channel.interference {
            if !b.period.is_finite() || b.period <= 0.0 || !(0.0..=b.period).contains(&b.burst_len)
            {
                return fail(format!(
                    "interference bursts need 0 <= burst_len <= period, got {}/{}",
                    b.burst_len, b.period
                ));
            }
        }
        for adapter in self.adapters() {
            match adapter {
                AdapterSpec::Fixed { rate_idx } if rate_idx >= softrate_trace::recipes::N_RATES => {
                    return fail(format!("Fixed rate_idx {rate_idx} out of range"));
                }
                AdapterSpec::Snr { table: Some(t) } | AdapterSpec::Charm { table: Some(t) } => {
                    if t.len() != softrate_trace::recipes::N_RATES {
                        return fail(format!(
                            "SNR table must list {} thresholds, got {}",
                            softrate_trace::recipes::N_RATES,
                            t.len()
                        ));
                    }
                    if t.windows(2).any(|w| w[1] < w[0]) {
                        return fail("SNR table thresholds must be non-decreasing".into());
                    }
                }
                _ => {}
            }
        }
        if let Some(sweep) = &self.sweep {
            for axis in &sweep.0 {
                if axis.values.is_empty() {
                    return fail(format!("sweep axis `{}` has no values", axis.param));
                }
            }
        }
        Ok(())
    }

    /// Fault-table checks (split out of [`Self::validate`] for length).
    fn validate_faults(&self, f: &FaultsSpec) -> Result<(), SpecError> {
        let fail = |msg: String| Err(SpecError(format!("scenario `{}`: {msg}", self.name)));
        let timed = |what: &str, at: f64, duration: f64| {
            if !at.is_finite() || at < 0.0 {
                return fail(format!("{what}.at must be >= 0, got {at}"));
            }
            if !duration.is_finite() || duration <= 0.0 {
                return fail(format!("{what}.duration must be positive, got {duration}"));
            }
            Ok(())
        };
        let spatial = self.topology.spatial.as_ref();
        if spatial.is_none()
            && (f.ap_outage.is_some()
                || f.jammer.is_some()
                || f.noise_step.is_some()
                || f.churn.is_some())
        {
            return fail(
                "faults.ap_outage / jammer / noise_step / churn need geometry and \
                 therefore [topology.spatial]; only faults.hint applies to the \
                 single-cell topology"
                    .into(),
            );
        }
        if let Some(o) = &f.ap_outage {
            timed("faults.ap_outage", o.at, o.duration)?;
            let n_aps = spatial.map(|sp| sp.ap_cols * sp.ap_rows).unwrap_or(0);
            if o.ap >= n_aps {
                return fail(format!(
                    "faults.ap_outage.ap {} out of range (grid has {n_aps} APs)",
                    o.ap
                ));
            }
        }
        if let Some(j) = &f.jammer {
            timed("faults.jammer", j.at, j.duration)?;
            if !j.x.is_finite() || !j.y.is_finite() || !j.power_db.unwrap_or(0.0).is_finite() {
                return fail("faults.jammer position/power must be finite".into());
            }
        }
        if let Some(s) = &f.noise_step {
            if !s.at.is_finite() || s.at < 0.0 {
                return fail(format!("faults.noise_step.at must be >= 0, got {}", s.at));
            }
            if !s.delta_db.is_finite() {
                return fail("faults.noise_step.delta_db must be finite".into());
            }
            if let Some(d) = s.duration {
                if !d.is_finite() || d <= 0.0 {
                    return fail(format!(
                        "faults.noise_step.duration must be positive, got {d}"
                    ));
                }
            }
        }
        if let Some(c) = &f.churn {
            // Churn changes who contends, which only the queueless
            // saturated-uplink medium models (dormant/left stations simply
            // stop being pollable senders); flow traffic would need
            // per-station transport teardown.
            if !(self.traffic.kind == TrafficModel::UdpBulk
                && matches!(self.direction(), Direction::Upload))
            {
                return fail(
                    "faults.churn requires the saturated uplink UDP workload \
                     (traffic.kind = \"UdpBulk\", direction Upload)"
                        .into(),
                );
            }
            for (name, v) in [
                ("join_at", c.join_at),
                ("join_ramp_s", c.join_ramp_s),
                ("leave_at", c.leave_at),
                ("leave_ramp_s", c.leave_ramp_s),
            ] {
                let v = v.unwrap_or(0.0);
                if !v.is_finite() || v < 0.0 {
                    return fail(format!("faults.churn.{name} must be >= 0, got {v}"));
                }
            }
            let n = spatial.map(|sp| sp.n_stations).unwrap_or(0);
            let (join, leave) = (c.join_count.unwrap_or(0), c.leave_count.unwrap_or(0));
            if join > n || leave > n {
                return fail(format!(
                    "faults.churn join_count {join} / leave_count {leave} exceed \
                     n_stations {n}"
                ));
            }
        }
        if let Some(h) = &f.hint {
            let p = h.drop_prob.unwrap_or(0.0);
            if !(0.0..=1.0).contains(&p) {
                return fail(format!("faults.hint.drop_prob must be in [0,1], got {p}"));
            }
            let q = h.quantize_db.unwrap_or(0.0);
            if !q.is_finite() || q < 0.0 {
                return fail(format!("faults.hint.quantize_db must be >= 0, got {q}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "demo".into(),
            description: Some("a demo".into()),
            duration: 2.0,
            seed: 11,
            topology: TopologySpec {
                n_clients: Some(2),
                carrier_sense_prob: Some(0.8),
                queue_cap: None,
                spatial: None,
            },
            channel: ChannelSpec {
                model: ChannelModel::Analytic,
                snr_db: 18.0,
                fading: FadingSpec::Flat { doppler_hz: 40.0 },
                attenuation: Some(Attenuation::Constant { db: -1.0 }),
                interference: None,
                probe_interval: None,
            },
            traffic: TrafficSpec {
                kind: TrafficModel::Tcp,
                direction: None,
            },
            faults: None,
            adapters: Some(vec![
                AdapterSpec::SoftRate,
                AdapterSpec::Fixed { rate_idx: 3 },
                AdapterSpec::Snr { table: None },
            ]),
            sweep: Some(Sweep(vec![SweepAxis {
                param: "channel.snr_db".into(),
                values: vec![Value::Float(10.0), Value::Float(18.0)],
            }])),
        }
    }

    #[test]
    fn toml_roundtrip_is_lossless() {
        let spec = demo_spec();
        let text = spec.to_toml();
        let back = ScenarioSpec::from_toml(&text).unwrap();
        assert_eq!(back, spec, "TOML:\n{text}");
        // And a second serialization is byte-identical.
        assert_eq!(back.to_toml(), text);
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let spec = demo_spec();
        let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn validation_catches_nonsense() {
        let mut s = demo_spec();
        s.duration = 0.0;
        assert!(s.validate().is_err());

        let mut s = demo_spec();
        s.topology.n_clients = Some(0);
        assert!(s.validate().is_err());

        let mut s = demo_spec();
        s.adapters = Some(vec![AdapterSpec::Fixed { rate_idx: 99 }]);
        assert!(s.validate().is_err());

        let mut s = demo_spec();
        s.adapters = Some(vec![AdapterSpec::Snr {
            table: Some(vec![5.0, 4.0]),
        }]);
        assert!(s.validate().is_err());

        let mut s = demo_spec();
        s.channel.model = ChannelModel::Phy;
        s.channel.interference = Some(BurstInterference {
            period: 0.02,
            burst_len: 0.01,
            penalty_db: 20.0,
        });
        assert!(s.validate().is_err());
    }

    #[test]
    fn defaults_apply() {
        let mut s = demo_spec();
        s.adapters = None;
        s.topology.carrier_sense_prob = None;
        assert_eq!(s.adapters(), vec![AdapterSpec::SoftRate]);
        assert_eq!(s.carrier_sense_prob(), 1.0);
        assert_eq!(s.probe_interval(), 0.005);
        assert!(matches!(s.direction(), Direction::Upload));
        s.topology.n_clients = None;
        assert_eq!(s.n_clients(), 1);
    }

    fn spatial_demo() -> ScenarioSpec {
        use softrate_net::mobility::MobilitySpec;
        let mut s = demo_spec();
        s.topology = TopologySpec {
            n_clients: None,
            carrier_sense_prob: None,
            queue_cap: None,
            spatial: Some(SpatialSpec {
                ap_cols: 3,
                ap_rows: 1,
                ap_spacing_m: 30.0,
                n_stations: 20,
                snr_ref_db: None,
                path_loss_exp: None,
                sense_snr_db: None,
                capture_sir_db: None,
                doppler_hz: None,
                mobility: MobilitySpec::Static,
                roaming: None,
            }),
        };
        s.channel.fading = FadingSpec::None;
        s.channel.attenuation = None;
        s.traffic.kind = TrafficModel::UdpBulk;
        s.sweep = None;
        s.adapters = Some(vec![AdapterSpec::SoftRate]);
        s
    }

    #[test]
    fn spatial_spec_roundtrips_and_validates() {
        let s = spatial_demo();
        s.validate().unwrap();
        let back = ScenarioSpec::from_toml(&s.to_toml()).unwrap();
        assert_eq!(back, s, "TOML:\n{}", s.to_toml());
        let back = ScenarioSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn spatial_validation_rejects_single_cell_knobs_and_bad_channels() {
        let mut s = spatial_demo();
        s.topology.n_clients = Some(2);
        assert!(s.validate().is_err(), "n_clients + spatial must clash");

        let mut s = spatial_demo();
        s.topology.carrier_sense_prob = Some(0.5);
        assert!(s.validate().is_err());

        let mut s = spatial_demo();
        s.channel.fading = FadingSpec::Flat { doppler_hz: 40.0 };
        assert!(s.validate().is_err(), "spatial owns fading");

        let mut s = spatial_demo();
        s.adapters = Some(vec![AdapterSpec::Snr { table: None }]);
        assert!(s.validate().is_err(), "no traces to train SNR tables on");

        let mut s = spatial_demo();
        if let Some(sp) = &mut s.topology.spatial {
            sp.n_stations = 0;
        }
        assert!(s.validate().is_err(), "spatial resolve errors must surface");

        // A non-positive path-loss exponent breaks distance monotonicity;
        // the TOML surface rejects it through the same resolve.
        for exp in [0.0, -2.0] {
            let mut s = spatial_demo();
            if let Some(sp) = &mut s.topology.spatial {
                sp.path_loss_exp = Some(exp);
            }
            let err = ScenarioSpec::from_toml(&s.to_toml()).unwrap_err();
            assert!(err.0.contains("path_loss_exp"), "{err}");
        }
        let mut s = spatial_demo();
        if let Some(sp) = &mut s.topology.spatial {
            sp.snr_ref_db = Some(f64::NAN);
        }
        assert!(s.validate().is_err(), "non-finite snr_ref_db");

        // queue_cap on the queueless saturated-uplink fast path would be
        // silently ignored — reject it instead.
        let mut s = spatial_demo();
        s.topology.queue_cap = Some(10);
        assert!(
            s.validate().is_err(),
            "queue_cap + saturated UDP must clash"
        );
    }

    #[test]
    fn spatial_accepts_flow_traffic() {
        // The "saturated uplink UDP only" restriction is gone: TCP in
        // either direction, on-off sources, and queue_cap all validate.
        let mut s = spatial_demo();
        s.traffic.kind = TrafficModel::Tcp;
        s.validate().expect("spatial TCP upload validates");
        s.traffic.direction = Some(Direction::Download);
        s.validate().expect("spatial TCP download validates");
        s.topology.queue_cap = Some(32);
        s.validate()
            .expect("queue_cap applies to spatial flow traffic");
        s.traffic.kind = TrafficModel::OnOff {
            rate_pps: 100.0,
            on_s: 0.5,
            off_s: 0.5,
        };
        s.validate().expect("spatial on-off validates");
        // And the flow-traffic spec round-trips through both formats.
        let back = ScenarioSpec::from_toml(&s.to_toml()).unwrap();
        assert_eq!(back, s, "TOML:\n{}", s.to_toml());
        let back = ScenarioSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn onoff_validation_rejects_nonsense() {
        let base = |kind| {
            let mut s = demo_spec();
            s.sweep = None;
            s.traffic.kind = kind;
            s
        };
        assert!(base(TrafficModel::OnOff {
            rate_pps: 0.0,
            on_s: 0.5,
            off_s: 0.5
        })
        .validate()
        .is_err());
        assert!(base(TrafficModel::OnOff {
            rate_pps: 100.0,
            on_s: 0.0,
            off_s: 0.5
        })
        .validate()
        .is_err());
        assert!(base(TrafficModel::OnOff {
            rate_pps: 100.0,
            on_s: 0.5,
            off_s: -1.0
        })
        .validate()
        .is_err());
        assert!(base(TrafficModel::OnOff {
            rate_pps: 100.0,
            on_s: 0.5,
            off_s: 0.0
        })
        .validate()
        .is_ok());
    }

    fn faulted_demo() -> ScenarioSpec {
        let mut s = spatial_demo();
        s.faults = Some(FaultsSpec {
            ap_outage: Some(ApOutageSpec {
                ap: 1,
                at: 0.5,
                duration: 0.5,
            }),
            jammer: Some(JammerSpec {
                x: 45.0,
                y: 0.0,
                power_db: Some(6.0),
                at: 0.2,
                duration: 0.3,
            }),
            noise_step: Some(NoiseStepSpec {
                at: 1.0,
                delta_db: 8.0,
                duration: Some(0.4),
            }),
            churn: Some(ChurnSpec {
                join_count: Some(5),
                join_at: Some(0.3),
                join_ramp_s: Some(0.2),
                leave_count: None,
                leave_at: None,
                leave_ramp_s: None,
            }),
            hint: Some(HintFaultsSpec {
                drop_prob: Some(0.25),
                quantize_db: Some(2.0),
            }),
        });
        s
    }

    #[test]
    fn faulted_spec_roundtrips_and_lowers() {
        let s = faulted_demo();
        s.validate().unwrap();
        let text = s.to_toml();
        let back = ScenarioSpec::from_toml(&text).unwrap();
        assert_eq!(back, s, "TOML:\n{text}");
        assert_eq!(back.to_toml(), text);
        let back = ScenarioSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);

        let lowered = s.faults.unwrap().lower();
        assert!(!lowered.is_noop());
        assert_eq!(lowered.ap_outage.unwrap().ap, 1);
        assert_eq!(lowered.jammer.unwrap().power_db, 6.0);
        assert_eq!(lowered.churn.unwrap().leave_count, 0);
        assert_eq!(lowered.hint.unwrap().drop_prob, 0.25);
        // Defaults fill omitted sub-fields.
        let minimal = FaultsSpec {
            ap_outage: None,
            jammer: None,
            noise_step: None,
            churn: None,
            hint: None,
        };
        assert!(minimal.lower().is_noop());
    }

    #[test]
    fn fault_validation_rejects_nonsense() {
        // Geometry-dependent classes need a spatial topology.
        let mut s = demo_spec();
        s.sweep = None;
        s.faults = Some(FaultsSpec {
            ap_outage: None,
            jammer: Some(JammerSpec {
                x: 0.0,
                y: 0.0,
                power_db: None,
                at: 0.1,
                duration: 0.1,
            }),
            noise_step: None,
            churn: None,
            hint: None,
        });
        assert!(s.validate().is_err(), "jammer without spatial must clash");

        // ...but hint corruption alone is fine single-cell.
        let mut s = demo_spec();
        s.sweep = None;
        s.faults = Some(FaultsSpec {
            ap_outage: None,
            jammer: None,
            noise_step: None,
            churn: None,
            hint: Some(HintFaultsSpec {
                drop_prob: Some(0.5),
                quantize_db: None,
            }),
        });
        s.validate().expect("single-cell hint faults validate");

        let mut s = faulted_demo();
        s.faults.as_mut().unwrap().ap_outage.as_mut().unwrap().ap = 9;
        assert!(s.validate().is_err(), "AP index out of grid range");

        let mut s = faulted_demo();
        s.faults.as_mut().unwrap().jammer.as_mut().unwrap().duration = 0.0;
        assert!(s.validate().is_err(), "zero-length jammer burst");

        let mut s = faulted_demo();
        s.faults
            .as_mut()
            .unwrap()
            .churn
            .as_mut()
            .unwrap()
            .join_count = Some(999);
        assert!(s.validate().is_err(), "join_count beyond n_stations");

        let mut s = faulted_demo();
        s.traffic.kind = TrafficModel::Tcp;
        assert!(s.validate().is_err(), "churn needs saturated uplink UDP");

        let mut s = faulted_demo();
        s.faults.as_mut().unwrap().hint.as_mut().unwrap().drop_prob = Some(1.5);
        assert!(s.validate().is_err(), "drop_prob > 1");

        let mut s = faulted_demo();
        s.faults
            .as_mut()
            .unwrap()
            .noise_step
            .as_mut()
            .unwrap()
            .duration = Some(-1.0);
        assert!(s.validate().is_err(), "negative noise-step duration");
    }

    #[test]
    fn empty_faults_table_parses_as_noop() {
        let text = r#"
name = "tiny"
duration = 1.0
seed = 3

[topology]
n_clients = 1

[channel]
model = "Analytic"
snr_db = 20.0
fading = "None"

[traffic]
kind = "Tcp"

[faults]
"#;
        let spec = ScenarioSpec::from_toml(text).unwrap();
        let f = spec.faults.expect("empty [faults] table parses to Some");
        assert!(f.lower().is_noop(), "empty table lowers to a no-op");
    }

    #[test]
    fn minimal_toml_parses_with_defaults() {
        let text = r#"
name = "tiny"
duration = 1.0
seed = 3

[topology]
n_clients = 1

[channel]
model = "Analytic"
snr_db = 20.0
fading = "None"

[traffic]
kind = "Tcp"
"#;
        let spec = ScenarioSpec::from_toml(text).unwrap();
        assert_eq!(spec.name, "tiny");
        assert!(spec.adapters.is_none());
        assert_eq!(spec.adapters(), vec![AdapterSpec::SoftRate]);
        assert_eq!(spec.channel.fading, FadingSpec::None);
    }

    #[test]
    fn fading_enum_tables_parse() {
        let text = r#"
name = "f"
duration = 1.0
seed = 0

[topology]
n_clients = 1

[channel]
model = "Analytic"
snr_db = 15.0

[channel.fading.Flat]
doppler_hz = 200.0

[traffic]
kind = "UdpBulk"
"#;
        let spec = ScenarioSpec::from_toml(text).unwrap();
        assert_eq!(spec.channel.fading, FadingSpec::Flat { doppler_hz: 200.0 });
        assert_eq!(spec.traffic.kind, TrafficModel::UdpBulk);
    }
}
