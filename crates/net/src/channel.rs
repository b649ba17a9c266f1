//! Streaming channel sampling: per-link frame fates drawn on demand.
//!
//! The paper's methodology (§6.1) precomputes a [`LinkTrace`] per link —
//! every `(time, rate)` probe materialized up front. That is exactly right
//! for a handful of links and infeasible for a multi-cell deployment with
//! hundreds of stations roaming between APs. A [`StreamingLink`] replaces
//! the trace with O(1) state: a seeded Jakes fading process (the *same*
//! Zheng–Xiao model the trace generators use, a pure function of absolute
//! time) plus a per-link SplitMix64 stream for the frame-success coin. The
//! fate of a frame is computed at transmit time from the instantaneous SNR
//! through the calibrated analytic SNR→BER map — the identical model the
//! scenario engine's `Analytic` traces are built from, so single-cell
//! results line up between the two backends.
//!
//! [`LinkTrace`]: softrate_trace::schema::LinkTrace

use softrate_channel::analytic::{
    analytic_ber, frame_success_prob, DETECT_SNR_DB, HEADER_FAIL_BER,
};
use softrate_channel::jakes::JakesFading;
use softrate_trace::schema::FrameFate;

use crate::stream::SplitMix64;

/// Deep-fade floor: envelope power below -40 dB is indistinguishable
/// (nothing decodes either way), matching the analytic trace generator.
const ENVELOPE_FLOOR: f64 = 1e-4;

/// One unidirectional wireless link sampled on demand.
///
/// The fading process is keyed by the link's *endpoints* (it is a physical
/// field between two places), while the fate stream is additionally keyed
/// by association epoch, so a station that roams away and back never
/// replays coin flips.
#[derive(Debug, Clone)]
pub struct StreamingLink {
    jakes: JakesFading,
    stream: SplitMix64,
}

impl StreamingLink {
    /// A link whose fading derives from `fading_seed` and whose fate coin
    /// stream derives from `stream_seed`.
    pub fn new(fading_seed: u64, stream_seed: u64, doppler_hz: f64) -> Self {
        StreamingLink {
            jakes: JakesFading::new(doppler_hz, fading_seed),
            stream: SplitMix64::new(stream_seed),
        }
    }

    /// Small-scale fading gain at absolute time `t`, dB (floored).
    pub fn envelope_db(&self, t: f64) -> f64 {
        10.0 * self.jakes.gain(t).norm_sqr().max(ENVELOPE_FLOOR).log10()
    }

    /// Consumes and returns the link's next fate coin (uniform `[0, 1)`).
    ///
    /// One draw per attempt, so the sequence of fates is a deterministic
    /// function of the call order — which the single-threaded event loop
    /// makes deterministic in turn. Resolve the coin with
    /// [`fate_from_draw`] at the instantaneous SNR (mean SNR plus
    /// [`StreamingLink::envelope_db`]).
    pub fn draw(&mut self) -> f64 {
        self.stream.next_f64()
    }
}

/// Resolves the interference-free fate of a `frame_bits`-bit frame sent
/// at `rate_idx` from a drawn coin `u` and the instantaneous SNR `snr`.
pub fn fate_from_draw(u: f64, snr: f64, rate_idx: usize, frame_bits: usize) -> FrameFate {
    if snr < DETECT_SNR_DB {
        return FrameFate {
            detected: false,
            header_ok: false,
            delivered: false,
            ber_feedback: None,
            snr_feedback_db: None,
        };
    }
    let ber = analytic_ber(snr, rate_idx);
    let header_ok = ber < HEADER_FAIL_BER;
    FrameFate {
        detected: true,
        header_ok,
        delivered: header_ok && u < frame_success_prob(ber, frame_bits),
        ber_feedback: header_ok.then_some(ber),
        snr_feedback_db: header_ok.then_some(snr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The medium's sequence for one attempt: one coin, the envelope at
    /// send time, then the fate at the instantaneous SNR.
    fn fate(
        l: &mut StreamingLink,
        mean_snr_db: f64,
        t: f64,
        rate: usize,
        bits: usize,
    ) -> FrameFate {
        let u = l.draw();
        fate_from_draw(u, mean_snr_db + l.envelope_db(t), rate, bits)
    }

    #[test]
    fn high_snr_always_delivers() {
        let mut l = StreamingLink::new(1, 2, 0.0);
        // Mean 60 dB: even a deep fade leaves tens of dB of margin.
        for k in 0..50 {
            let f = fate(&mut l, 60.0, k as f64 * 0.01, 5, 11_520);
            assert!(f.detected && f.header_ok && f.delivered, "k={k}");
            assert!(f.ber_feedback.unwrap() <= 1e-9 * 1.001);
        }
    }

    #[test]
    fn deep_noise_is_silent() {
        let mut l = StreamingLink::new(3, 4, 0.0);
        let f = fate(&mut l, -30.0, 0.0, 0, 8000);
        assert!(!f.detected && !f.delivered && f.ber_feedback.is_none());
    }

    #[test]
    fn fates_are_deterministic_and_stream_keyed() {
        let mut a = StreamingLink::new(9, 10, 40.0);
        let mut b = StreamingLink::new(9, 10, 40.0);
        for k in 0..100 {
            let t = k as f64 * 0.002;
            assert_eq!(
                fate(&mut a, 12.0, t, 3, 11_520),
                fate(&mut b, 12.0, t, 3, 11_520)
            );
        }
        // A different stream seed re-flips the coins (same fading).
        let mut c = StreamingLink::new(9, 11, 40.0);
        let mut diff = 0;
        let mut a2 = StreamingLink::new(9, 10, 40.0);
        for k in 0..200 {
            let t = k as f64 * 0.002;
            if fate(&mut a2, 9.0, t, 2, 11_520).delivered
                != fate(&mut c, 9.0, t, 2, 11_520).delivered
            {
                diff += 1;
            }
        }
        assert!(diff > 0, "independent streams must diverge somewhere");
    }

    #[test]
    fn fading_modulates_fate_over_time() {
        let mut l = StreamingLink::new(21, 22, 100.0);
        let mut delivered = 0;
        let mut lost = 0;
        for k in 0..400 {
            let f = fate(&mut l, 12.0, k as f64 * 0.005, 3, 11_520);
            if f.delivered {
                delivered += 1;
            } else {
                lost += 1;
            }
        }
        assert!(delivered > 0 && lost > 0, "{delivered} / {lost}");
    }

    #[test]
    fn envelope_matches_jakes_floor() {
        let l = StreamingLink::new(5, 6, 40.0);
        for k in 0..100 {
            let db = l.envelope_db(k as f64 * 0.003);
            assert!(db >= -40.0 - 1e-9);
            assert!(db < 15.0, "Rayleigh peaks are bounded in practice: {db}");
        }
    }
}
