//! The closed-form SNR→BER map: the workspace's fast analytic channel.
//!
//! Calibrated against this workspace's software PHY (see
//! `crates/trace/src/bin/calibrate.rs`), it turns an instantaneous SNR into
//! a per-rate bit error rate without running the OFDM/BCJR pipeline —
//! hundreds of times faster, which is what makes thousand-run sweeps and
//! the streaming multi-cell simulator (`softrate-net`) feasible. The
//! scenario engine's trace generator and the spatial network layer both
//! sample this map over the *real* Jakes fading envelope, so protocol
//! dynamics see realistic temporal correlation.

/// Per-rate minimum SNR (dB) at which a ~100-byte probe is essentially
/// error-free: BPSK 1/2, BPSK 3/4, QPSK 1/2, QPSK 3/4, QAM16 1/2,
/// QAM16 3/4.
pub const REQUIRED_SNR_DB: [f64; 6] = [4.5, 6.0, 7.5, 10.0, 12.5, 14.0];

/// Detection threshold in dB (matches `LinkConfig::detect_snr_db`): frame
/// detection by preamble correlation works below the decoding threshold.
pub const DETECT_SNR_DB: f64 = -3.0;

/// BER above which the short, separately CRC-protected link-layer header is
/// considered undecodable (no feedback possible).
pub const HEADER_FAIL_BER: f64 = 0.05;

/// Closed-form BER at `snr_db` for `rate_idx`: one decade per ~0.67 dB of
/// margin, anchored at 1e-6 when the margin is zero. Clamped to
/// `[1e-9, 0.4]`. The anchor makes [`REQUIRED_SNR_DB`] the lowest SNR at
/// which a full-size (1440 B) frame is "essentially guaranteed" in the
/// oracle's sense (success probability > 0.95).
pub fn analytic_ber(snr_db: f64, rate_idx: usize) -> f64 {
    let margin = snr_db - REQUIRED_SNR_DB[rate_idx.min(REQUIRED_SNR_DB.len() - 1)];
    10f64.powf(-(6.0 + 1.5 * margin)).clamp(1e-9, 0.4)
}

/// Success probability of a `frame_bits`-bit frame at bit error rate
/// `ber` under the independent-bit-error model — the one formula every
/// fate draw and oracle in the workspace must agree on.
pub fn frame_success_prob(ber: f64, frame_bits: usize) -> f64 {
    (1.0 - ber).powi(frame_bits as i32).clamp(0.0, 1.0)
}

/// Success probability of a `frame_bits`-bit frame at `snr_db` and
/// `rate_idx` under the independent-bit-error model.
pub fn analytic_frame_success(snr_db: f64, rate_idx: usize, frame_bits: usize) -> f64 {
    frame_success_prob(analytic_ber(snr_db, rate_idx), frame_bits)
}

/// The omniscient oracle over the analytic map: the highest rate whose
/// `frame_bits`-bit frame is essentially guaranteed (success probability
/// > 0.95) at `snr_db`; the most robust rate when none qualifies.
pub fn best_rate_for_snr(snr_db: f64, frame_bits: usize) -> usize {
    if snr_db < DETECT_SNR_DB {
        return 0;
    }
    let mut best = 0;
    for r in 0..REQUIRED_SNR_DB.len() {
        if analytic_ber(snr_db, r) < HEADER_FAIL_BER
            && analytic_frame_success(snr_db, r, frame_bits) > 0.95
        {
            best = r;
        }
    }
    best
}

/// Guard band, dB, around each oracle threshold inside which
/// [`OracleBands`] falls back to the exact kernel evaluation. Many orders
/// of magnitude above `powf`/`powi` rounding (a 1e-6 dB SNR step moves
/// the BER by ~3.5e-6 relative, against ~1e-15 evaluation error), and
/// many below any physically meaningful SNR difference.
const ORACLE_GUARD_DB: f64 = 1e-6;

/// The omniscient oracle as an exact step function: per-rate SNR bands
/// that decide `best_rate_for_snr`'s per-rate qualification test without
/// evaluating the BER/success kernels.
///
/// Rate `r` qualifies iff `analytic_ber < HEADER_FAIL_BER` **and**
/// `analytic_frame_success > 0.95` — jointly equivalent to
/// `ber < blim_r` with `blim_r = min(HEADER_FAIL_BER, 1 − 0.95^(1/bits))`,
/// which the monotone BER curve turns into an SNR threshold. `hi[r]` /
/// `lo[r]` are that threshold pushed out by [`ORACLE_GUARD_DB`] on each
/// side: at or above `hi[r]` the rate certainly qualifies, at or below
/// `lo[r]` it certainly does not, and between them (a two-microdecibel
/// sliver that essentially never sees a real SNR) the exact kernels
/// decide. Verdicts are therefore always identical to
/// [`best_rate_for_snr`] — pinned by tests and by the spatial goldens.
#[derive(Debug, Clone)]
pub struct OracleBands {
    frame_bits: usize,
    lo: [f64; REQUIRED_SNR_DB.len()],
    hi: [f64; REQUIRED_SNR_DB.len()],
}

impl OracleBands {
    /// Bands for frames of `frame_bits` bits.
    pub fn new(frame_bits: usize) -> Self {
        let mut lo = [f64::INFINITY; REQUIRED_SNR_DB.len()];
        let mut hi = [f64::INFINITY; REQUIRED_SNR_DB.len()];
        for (r, &req) in REQUIRED_SNR_DB.iter().enumerate() {
            // success > 0.95  ⟺  ber < 1 − 0.95^(1/bits).
            let ber_success = 1.0 - 0.95f64.powf(1.0 / frame_bits as f64);
            let blim = HEADER_FAIL_BER.min(ber_success);
            if blim <= 1e-9 {
                // The BER clamp floor already exceeds the limit: the rate
                // can never qualify (lo = hi = +inf keeps it that way).
                continue;
            }
            // Invert ber = 10^-(6 + 1.5·(snr − req)) at ber = blim.
            let snr_star = req + (-blim.log10() - 6.0) / 1.5;
            lo[r] = snr_star - ORACLE_GUARD_DB;
            hi[r] = snr_star + ORACLE_GUARD_DB;
        }
        OracleBands { frame_bits, lo, hi }
    }

    /// Identical to `best_rate_for_snr(snr_db, frame_bits)` for the
    /// configured frame size, resolved by threshold compares except
    /// inside the guard bands.
    pub fn best_rate(&self, snr_db: f64) -> usize {
        if snr_db < DETECT_SNR_DB {
            return 0;
        }
        let mut best = 0;
        for r in 0..REQUIRED_SNR_DB.len() {
            let qualifies = if snr_db >= self.hi[r] {
                true
            } else if snr_db <= self.lo[r] {
                false
            } else {
                analytic_ber(snr_db, r) < HEADER_FAIL_BER
                    && analytic_frame_success(snr_db, r, self.frame_bits) > 0.95
            };
            if qualifies {
                best = r;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ber_curve_is_monotone_and_anchored() {
        #[allow(clippy::needless_range_loop)] // `r` is a rate index into two tables
        for r in 0..REQUIRED_SNR_DB.len() {
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
    fn oracle_tracks_snr() {
        // Just above each rate's requirement, that rate is the best choice.
        for (r, &snr) in REQUIRED_SNR_DB.iter().enumerate() {
            assert_eq!(best_rate_for_snr(snr + 0.1, 11_520), r);
        }
        // Deep in the noise: fall back to the most robust rate.
        assert_eq!(best_rate_for_snr(-20.0, 11_520), 0);
        // Sky-high SNR: the top rate.
        assert_eq!(best_rate_for_snr(40.0, 11_520), 5);
    }

    #[test]
    fn success_probability_shapes() {
        assert!(analytic_frame_success(30.0, 5, 11_520) > 0.99);
        assert!(analytic_frame_success(5.0, 5, 11_520) < 1e-6);
    }

    #[test]
    fn banded_oracle_matches_the_exact_oracle_everywhere() {
        for bits in [832usize, 8000, 11_520] {
            let bands = OracleBands::new(bits);
            // Dense sweep plus points straddling every band edge.
            let mut snrs: Vec<f64> = (0..4000).map(|k| -10.0 + k as f64 * 0.0127).collect();
            for &req in &REQUIRED_SNR_DB {
                for d in [-2e-6, -1e-6, 0.0, 1e-6, 2e-6] {
                    snrs.push(req + d);
                    snrs.push(req + 0.447 + d); // near snr*
                }
            }
            for &snr in &snrs {
                assert_eq!(
                    bands.best_rate(snr),
                    best_rate_for_snr(snr, bits),
                    "snr={snr} bits={bits}"
                );
            }
        }
    }
}
