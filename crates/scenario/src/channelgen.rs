//! Turning a [`ChannelSpec`] into the per-link [`LinkTrace`]s the network
//! simulator consumes.
//!
//! Two backends:
//!
//! * **Analytic** — a closed-form SNR→BER map evaluated over the *real*
//!   Jakes fading envelope (`softrate_channel::jakes`) plus the configured
//!   attenuation trajectory and interference duty cycle. All rates at one
//!   time step share the same fading realization, matching the paper's
//!   trace methodology (§6.1), and everything is a pure function of the
//!   seed — fast enough for thousand-run sweeps.
//! * **Phy** — the full software PHY per probe via
//!   [`softrate_trace::generate::run_probe_series`], cached on disk keyed
//!   by the channel parameters (generation is seconds-to-minutes per
//!   trace).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use softrate_channel::analytic::Reception;
use softrate_channel::jakes::JakesFading;
use softrate_channel::link::{Link, LinkConfig};
use softrate_channel::pathloss::Attenuation;
use softrate_phy::ofdm::SIMULATION;
use softrate_trace::cache::load_or_generate;
use softrate_trace::generate::run_probe_series;
use softrate_trace::recipes::N_RATES;
use softrate_trace::schema::{hash_uniform, LinkTrace, TraceEntry};

use crate::spec::{ChannelModel, ChannelSpec, ScenarioSpec};

/// Probe payload bits assumed by the analytic model (100 B + CRC-32).
const PROBE_BITS: usize = 832;

/// Instantaneous SNR of the spec's channel at time `t`, combining the mean
/// SNR, the attenuation trajectory, the Jakes envelope, and any active
/// interference burst.
fn instantaneous_snr_db(channel: &ChannelSpec, fading: Option<&JakesFading>, t: f64) -> f64 {
    let atten = channel.attenuation.unwrap_or(Attenuation::NONE);
    let mut snr = channel.snr_db + atten.db_at(t);
    if let Some(j) = fading {
        snr += j.envelope_db(t);
    }
    if let Some(b) = &channel.interference {
        if t.rem_euclid(b.period) < b.burst_len {
            snr -= b.penalty_db;
        }
    }
    snr
}

/// Builds one link's trace under the analytic model.
fn analytic_trace(spec: &ScenarioSpec, name: String, seed: u64) -> LinkTrace {
    let interval = spec.probe_interval();
    let n_steps = (spec.duration / interval).round().max(1.0) as usize;
    // Multipath is rejected by `ScenarioSpec::validate` for this model (the
    // analytic map is frequency-flat); treat it like Flat defensively for
    // direct `build_trace` callers rather than panicking.
    let fading = match spec.channel.fading {
        softrate_channel::model::FadingSpec::None => None,
        softrate_channel::model::FadingSpec::Flat { doppler_hz }
        | softrate_channel::model::FadingSpec::Multipath { doppler_hz, .. } => {
            Some(JakesFading::new(doppler_hz, seed))
        }
    };

    let mut series: Vec<Vec<TraceEntry>> =
        (0..N_RATES).map(|_| Vec::with_capacity(n_steps)).collect();
    for step in 0..n_steps {
        let t = step as f64 * interval;
        let snr = instantaneous_snr_db(&spec.channel, fading.as_ref(), t);
        for (r, rate_series) in series.iter_mut().enumerate() {
            let rx = Reception::at(snr, r);
            let mut e = TraceEntry::silent(t, r, snr);
            if rx.detected {
                e.detected = true;
                e.probe_bits = PROBE_BITS;
            }
            if let Some(ber) = rx.ber {
                e.header_ok = true;
                e.true_ber = Some(ber);
                e.softphy_ber = Some(ber);
                e.snr_est_db = Some(snr);
                let u = hash_uniform(&[seed, step as u64, r as u64, 0xA11A]);
                e.delivered = rx.delivers(u, PROBE_BITS);
            }
            rate_series.push(e);
        }
    }

    LinkTrace {
        name,
        mode_name: "analytic".to_string(),
        interval,
        duration: spec.duration,
        series,
        seed,
    }
}

/// Process-wide memo of PHY traces: many runs in one matrix share a
/// channel point, and generation takes seconds-to-minutes per trace. The
/// per-key cell makes concurrent workers wanting the *same* trace block on
/// one generation (different keys still generate in parallel), and repeat
/// lookups are free. The disk cache underneath persists across processes.
type PhyMemo = Mutex<HashMap<u64, Arc<OnceLock<Arc<LinkTrace>>>>>;
static PHY_MEMO: OnceLock<PhyMemo> = OnceLock::new();

/// Builds one link's trace by running the full PHY, memoized in-process
/// and cached on disk.
fn phy_trace(spec: &ScenarioSpec, name: String, seed: u64) -> Arc<LinkTrace> {
    let key = channel_cache_key(spec, seed);
    let cell = {
        let memo = PHY_MEMO.get_or_init(Default::default);
        let mut map = memo.lock().expect("phy memo poisoned");
        Arc::clone(map.entry(key).or_default())
    };
    Arc::clone(cell.get_or_init(|| {
        let interval = spec.probe_interval();
        let dir = std::env::var("SOFTRATE_RESULTS").unwrap_or_else(|_| "results".to_string());
        let path = std::path::PathBuf::from(dir).join(format!("traces/scenario-{key:016x}.json"));
        Arc::new(load_or_generate(path, || {
            let mut cfg = LinkConfig::new(SIMULATION);
            cfg.noise_power_db = -spec.channel.snr_db;
            cfg.fading = spec.channel.fading;
            cfg.attenuation = spec.channel.attenuation.unwrap_or(Attenuation::NONE);
            cfg.seed = seed;
            let mut link = Link::new(cfg);
            LinkTrace {
                name,
                mode_name: SIMULATION.name.to_string(),
                interval,
                duration: spec.duration,
                series: run_probe_series(&mut link, spec.duration, interval, 100),
                seed,
            }
        }))
    }))
}

/// Stable cache key over everything that shapes a PHY trace.
fn channel_cache_key(spec: &ScenarioSpec, seed: u64) -> u64 {
    let text = serde_json::to_string(&spec.channel).unwrap_or_default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(text.as_bytes());
    eat(&spec.duration.to_bits().to_le_bytes());
    eat(&spec.probe_interval().to_bits().to_le_bytes());
    eat(&seed.to_le_bytes());
    h
}

/// Builds the trace for link `link_idx` (0-based over `2 * n_clients`
/// unidirectional links) of one run.
pub fn build_trace(spec: &ScenarioSpec, run_seed: u64, link_idx: usize) -> Arc<LinkTrace> {
    // Distinct fading/noise realization per link, deterministic per run.
    let seed = run_seed ^ (0x11C4_B5E1u64.wrapping_mul(link_idx as u64 + 1));
    let name = format!("{}-link{}", spec.name, link_idx);
    match spec.channel.model {
        ChannelModel::Analytic => Arc::new(analytic_trace(spec, name, seed)),
        ChannelModel::Phy => phy_trace(spec, name, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{
        BurstInterference, ChannelSpec, ScenarioSpec, TopologySpec, TrafficModel, TrafficSpec,
    };
    use softrate_channel::analytic::{analytic_ber, REQUIRED_SNR_DB};
    use softrate_channel::model::FadingSpec;

    fn spec_with(channel: ChannelSpec) -> ScenarioSpec {
        ScenarioSpec {
            name: "t".into(),
            description: None,
            duration: 1.0,
            seed: 5,
            topology: TopologySpec {
                n_clients: Some(1),
                carrier_sense_prob: None,
                queue_cap: None,
                spatial: None,
            },
            channel,
            traffic: TrafficSpec {
                kind: TrafficModel::Tcp,
                direction: None,
            },
            faults: None,
            adapters: None,
            sweep: None,
        }
    }

    fn analytic_channel(snr_db: f64, fading: FadingSpec) -> ChannelSpec {
        ChannelSpec {
            model: ChannelModel::Analytic,
            snr_db,
            fading,
            attenuation: None,
            interference: None,
            probe_interval: None,
        }
    }

    #[test]
    fn ber_curve_is_monotone_and_anchored() {
        #[allow(clippy::needless_range_loop)] // `r` is a rate index into two tables
        for r in 0..N_RATES {
            assert!(analytic_ber(REQUIRED_SNR_DB[r], r) <= 1.0001e-6);
            assert!(analytic_ber(REQUIRED_SNR_DB[r] - 3.0, r) > 1e-3);
            let mut prev = f64::MAX;
            for k in 0..40 {
                let b = analytic_ber(k as f64, r);
                assert!(b <= prev);
                prev = b;
            }
        }
    }

    #[test]
    fn static_analytic_trace_has_expected_oracle() {
        // 13 dB: QAM16 1/2 (idx 4, needs 12.5) is the best guaranteed rate.
        let spec = spec_with(analytic_channel(13.0, FadingSpec::None));
        let tr = build_trace(&spec, 1, 0);
        assert_eq!(tr.n_rates(), N_RATES);
        assert_eq!(tr.n_steps(), 200);
        assert_eq!(tr.best_rate_at(0.5, 1440 * 8), 4);
    }

    #[test]
    fn fading_modulates_the_oracle() {
        let spec = spec_with(analytic_channel(
            16.0,
            FadingSpec::Flat { doppler_hz: 30.0 },
        ));
        let tr = build_trace(&spec, 2, 0);
        let rates: Vec<usize> = (0..tr.n_steps())
            .map(|s| tr.best_rate_at(s as f64 * tr.interval, 11520))
            .collect();
        let min = *rates.iter().min().unwrap();
        let max = *rates.iter().max().unwrap();
        assert!(
            max > min,
            "fading must move the best rate (got constant {min})"
        );
    }

    #[test]
    fn interference_bursts_floor_the_channel() {
        let mut ch = analytic_channel(20.0, FadingSpec::None);
        ch.interference = Some(BurstInterference {
            period: 0.5,
            burst_len: 0.25,
            penalty_db: 30.0,
        });
        let spec = spec_with(ch);
        let tr = build_trace(&spec, 3, 0);
        // Inside a burst: SINR -10 dB -> nothing detected. Outside: clean.
        assert_eq!(tr.best_rate_at(0.1, 11520), 0);
        assert!(!tr.entry(0, 0.1).detected);
        assert!(tr.entry(0, 0.3).detected);
        assert_eq!(tr.best_rate_at(0.3, 11520), 5);
    }

    #[test]
    fn traces_are_deterministic_and_link_distinct() {
        let spec = spec_with(analytic_channel(
            14.0,
            FadingSpec::Flat { doppler_hz: 100.0 },
        ));
        let a = build_trace(&spec, 7, 0);
        let b = build_trace(&spec, 7, 0);
        assert_eq!(a.to_json(), b.to_json());
        let c = build_trace(&spec, 7, 1);
        assert_ne!(
            a.to_json(),
            c.to_json(),
            "links must get distinct realizations"
        );
    }

    #[test]
    fn trace_verdicts_flip_at_detection_and_header_limits() {
        use softrate_channel::analytic::{analytic_ber, DETECT_SNR_DB, HEADER_FAIL_BER};
        let entry = |snr_db: f64, r: usize| {
            let tr = build_trace(&spec_with(analytic_channel(snr_db, FadingSpec::None)), 1, 0);
            tr.entry(r, 0.0).clone()
        };
        for r in 0..N_RATES {
            assert!(entry(DETECT_SNR_DB, r).detected, "rate {r}");
            assert!(!entry(DETECT_SNR_DB.next_down(), r).detected, "rate {r}");
            // Adjacent SNRs straddling the header's BER limit.
            let (mut lost, mut ok) = (DETECT_SNR_DB, 30.0f64);
            while ok.next_down() > lost {
                let mid = lost + (ok - lost) / 2.0;
                let mid = if mid <= lost || mid >= ok {
                    lost.next_up()
                } else {
                    mid
                };
                if analytic_ber(mid, r) < HEADER_FAIL_BER {
                    ok = mid;
                } else {
                    lost = mid;
                }
            }
            let e = entry(lost, r);
            assert!(
                e.detected && !e.header_ok && e.true_ber.is_none(),
                "rate {r}"
            );
            let e = entry(ok, r);
            assert!(e.header_ok && e.snr_est_db == Some(ok), "rate {r}");
        }
    }
}
