//! Trace schema: what one channel probe records and how a link's time
//! series answers the simulator's questions.
//!
//! Following the paper's methodology (§6.1), a trace "completely specifies
//! the channel characteristics of the link (like, whether a frame sent is
//! correctly received, and what its SNR and SoftPHY hints would be) for
//! each point in time", with one series per bit rate, all sampled from the
//! *same* fading realization.

use serde::{Deserialize, Serialize};
use softrate_channel::analytic::{essentially_guaranteed, frame_success_prob};

/// One probe observation at one `(time, rate)` point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Probe transmit time, seconds from trace start.
    pub t: f64,
    /// Rate index (into the trace's rate table).
    pub rate_idx: usize,
    /// Preamble detected.
    pub detected: bool,
    /// Link-layer header decoded (its CRC-16 verified) — feedback possible.
    pub header_ok: bool,
    /// Probe payload CRC-32 verified.
    pub delivered: bool,
    /// Ground-truth BER of the probe payload (None when never decoded).
    pub true_ber: Option<f64>,
    /// SoftPHY-estimated BER over the probe (what the receiver would feed
    /// back). `None` when the header was not decodable.
    pub softphy_ber: Option<f64>,
    /// Preamble SNR estimate in dB (`None` when not detected).
    pub snr_est_db: Option<f64>,
    /// Ground-truth mean SNR over the probe frame in dB.
    pub true_snr_db: f64,
    /// Information bits in the probe payload (with CRC).
    pub probe_bits: usize,
}

impl TraceEntry {
    /// An entry representing complete silence (nothing detected).
    pub fn silent(t: f64, rate_idx: usize, true_snr_db: f64) -> Self {
        TraceEntry {
            t,
            rate_idx,
            detected: false,
            header_ok: false,
            delivered: false,
            true_ber: None,
            softphy_ber: None,
            snr_est_db: None,
            true_snr_db,
            probe_bits: 0,
        }
    }

    /// Success probability of an `frame_bits`-bit frame under this entry's
    /// channel (independent-bit-error model over the measured true BER).
    pub fn frame_success_prob(&self, frame_bits: usize) -> f64 {
        self.true_ber
            .map_or(0.0, |ber| frame_success_prob(ber, frame_bits))
    }
}

/// Deterministic pseudo-random uniform in `[0,1)` from a list of words —
/// the simulator's reproducible coin for frame fates.
pub fn hash_uniform(words: &[u64]) -> f64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for &w in words {
        x ^= w
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(x << 6)
            .wrapping_add(x >> 2);
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
    }
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// The simulated fate of a data frame looked up in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameFate {
    /// Preamble detected at the receiver.
    pub detected: bool,
    /// Header decodable (feedback frame possible).
    pub header_ok: bool,
    /// Payload delivered intact.
    pub delivered: bool,
    /// The SoftPHY BER the receiver would feed back (`None` if no
    /// feedback).
    pub ber_feedback: Option<f64>,
    /// The SNR estimate the receiver would feed back (`None` if no
    /// feedback).
    pub snr_feedback_db: Option<f64>,
}

/// A complete per-link trace: one [`TraceEntry`] series per bit rate, on a
/// common probing clock.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkTrace {
    /// Human-readable recipe name ("walking-3", "doppler-400Hz", ...).
    pub name: String,
    /// OFDM mode name the trace was collected in.
    pub mode_name: String,
    /// Probing interval in seconds (the paper cycles all rates in < 5 ms).
    pub interval: f64,
    /// Trace duration in seconds.
    pub duration: f64,
    /// `series[rate_idx][step]`.
    pub series: Vec<Vec<TraceEntry>>,
    /// Seed the trace was generated from (provenance).
    pub seed: u64,
}

impl LinkTrace {
    /// Number of time steps.
    pub fn n_steps(&self) -> usize {
        self.series.first().map_or(0, |s| s.len())
    }

    /// Number of rates.
    pub fn n_rates(&self) -> usize {
        self.series.len()
    }

    /// Step index for time `t` (clamped; the trace repeats beyond its end
    /// by wrapping, so long simulations can run on finite traces).
    pub fn step_for(&self, t: f64) -> usize {
        let n = self.n_steps();
        assert!(n > 0, "empty trace");
        let idx = (t / self.interval).floor() as i64;
        (idx.max(0) as usize) % n
    }

    /// The trace entry governing `(rate, t)`.
    pub fn entry(&self, rate_idx: usize, t: f64) -> &TraceEntry {
        &self.series[rate_idx][self.step_for(t)]
    }

    /// Simulates the fate of a `frame_bits`-bit data frame sent at `t` and
    /// `rate_idx`. `salt` distinguishes links/flows; `attempt` makes retry
    /// draws independent.
    pub fn frame_fate(
        &self,
        rate_idx: usize,
        t: f64,
        frame_bits: usize,
        salt: u64,
        attempt: u64,
    ) -> FrameFate {
        let step = self.step_for(t);
        let e = &self.series[rate_idx][step];
        if !e.detected {
            return FrameFate {
                detected: false,
                header_ok: false,
                delivered: false,
                ber_feedback: None,
                snr_feedback_db: None,
            };
        }
        let p = e.frame_success_prob(frame_bits);
        let u = hash_uniform(&[step as u64, rate_idx as u64, salt, attempt]);
        let delivered = e.header_ok && u < p;
        FrameFate {
            detected: true,
            header_ok: e.header_ok,
            delivered,
            ber_feedback: e.header_ok.then_some(e.softphy_ber).flatten(),
            snr_feedback_db: e.header_ok.then_some(e.snr_est_db).flatten(),
        }
    }

    /// The omniscient oracle (paper §6.1): the highest rate whose
    /// `frame_bits`-bit frame is (essentially) guaranteed to get through at
    /// time `t`; falls back to the most robust rate when none qualifies.
    pub fn best_rate_at(&self, t: f64, frame_bits: usize) -> usize {
        let step = self.step_for(t);
        let mut best = 0;
        for (r, series) in self.series.iter().enumerate() {
            let e = &series[step];
            if e.detected && e.header_ok && essentially_guaranteed(e.frame_success_prob(frame_bits))
            {
                best = r;
            }
        }
        best
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace serialization cannot fail")
    }

    /// Deserializes from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// A flat sample for the BER-estimation studies (Figures 7, 8, 9): one
/// probe, its estimates, and its ground truth.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BerSample {
    /// Rate index.
    pub rate_idx: usize,
    /// Transmit power of the probe in dB.
    pub tx_power_db: f64,
    /// Doppler spread of the channel in Hz (0 = static).
    pub doppler_hz: f64,
    /// Preamble SNR estimate in dB (`None` when not detected).
    pub snr_est_db: Option<f64>,
    /// SoftPHY BER estimate over the frame (`None` without a decode).
    pub softphy_ber: Option<f64>,
    /// Ground-truth BER (None = not decoded).
    pub true_ber: Option<f64>,
    /// Bits in the probe (for aggregated-BER weighting).
    pub probe_bits: usize,
    /// Frame delivered intact.
    pub delivered: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(t: f64, rate: usize, ber: f64) -> TraceEntry {
        TraceEntry {
            t,
            rate_idx: rate,
            detected: true,
            header_ok: true,
            delivered: ber < 1e-5,
            true_ber: Some(ber),
            softphy_ber: Some(ber),
            snr_est_db: Some(15.0),
            true_snr_db: 15.0,
            probe_bits: 832,
        }
    }

    fn small_trace() -> LinkTrace {
        // 2 rates, 3 steps at 5 ms.
        let series = vec![
            vec![
                entry(0.0, 0, 1e-9),
                entry(0.005, 0, 1e-9),
                entry(0.010, 0, 1e-7),
            ],
            vec![
                entry(0.0, 1, 1e-8),
                entry(0.005, 1, 0.2),
                entry(0.010, 1, 1e-6),
            ],
        ];
        LinkTrace {
            name: "test".into(),
            mode_name: "simulation".into(),
            interval: 0.005,
            duration: 0.015,
            series,
            seed: 1,
        }
    }

    #[test]
    fn step_lookup_and_wrapping() {
        let tr = small_trace();
        assert_eq!(tr.step_for(0.0), 0);
        assert_eq!(tr.step_for(0.004), 0);
        assert_eq!(tr.step_for(0.005), 1);
        assert_eq!(tr.step_for(0.014), 2);
        assert_eq!(tr.step_for(0.015), 0, "wraps at the end");
        assert_eq!(tr.step_for(0.021), 1);
    }

    #[test]
    fn frame_success_prob_shapes() {
        let good = entry(0.0, 0, 1e-9);
        assert!(good.frame_success_prob(10_000) > 0.99);
        let bad = entry(0.0, 0, 1e-2);
        assert!(bad.frame_success_prob(10_000) < 1e-20);
        let silent = TraceEntry::silent(0.0, 0, -5.0);
        assert_eq!(silent.frame_success_prob(10_000), 0.0);
    }

    #[test]
    fn fate_is_deterministic() {
        let tr = small_trace();
        let a = tr.frame_fate(1, 0.005, 10_000, 7, 0);
        let b = tr.frame_fate(1, 0.005, 10_000, 7, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn fate_differs_across_attempts_sometimes() {
        // With p_succ around 0.5, indepedent draws must eventually differ.
        let mut e = entry(0.0, 0, 0.0);
        e.true_ber = Some(6.9e-5); // (1-b)^10000 ~ 0.5
        let tr = LinkTrace {
            name: "t".into(),
            mode_name: "simulation".into(),
            interval: 0.005,
            duration: 0.005,
            series: vec![vec![e]],
            seed: 0,
        };
        let fates: Vec<bool> = (0..64)
            .map(|a| tr.frame_fate(0, 0.0, 10_000, 1, a).delivered)
            .collect();
        assert!(fates.iter().any(|&d| d) && fates.iter().any(|&d| !d));
    }

    #[test]
    fn fate_of_undetected_is_silent() {
        let mut tr = small_trace();
        tr.series[0][0] = TraceEntry::silent(0.0, 0, -3.0);
        let f = tr.frame_fate(0, 0.0, 8000, 0, 0);
        assert!(!f.detected && !f.delivered && f.ber_feedback.is_none());
    }

    #[test]
    fn oracle_picks_highest_safe_rate() {
        let tr = small_trace();
        // step 0: both rates clean -> rate 1; step 1: rate 1 is ruined -> 0.
        assert_eq!(tr.best_rate_at(0.0, 10_000), 1);
        assert_eq!(tr.best_rate_at(0.005, 10_000), 0);
    }

    #[test]
    fn json_roundtrip() {
        let tr = small_trace();
        let s = tr.to_json();
        let back = LinkTrace::from_json(&s).unwrap();
        assert_eq!(back.n_steps(), 3);
        assert_eq!(back.n_rates(), 2);
        assert_eq!(back.series[1][1].true_ber, Some(0.2));
    }

    #[test]
    fn hash_uniform_distribution_sane() {
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| hash_uniform(&[i as u64, 42])).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        // Sensitivity: different salts give different streams.
        let a = hash_uniform(&[1, 2, 3]);
        let b = hash_uniform(&[1, 2, 4]);
        assert_ne!(a, b);
    }
}
