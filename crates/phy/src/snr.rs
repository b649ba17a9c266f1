//! Preamble generation and preamble-based channel / SNR estimation.
//!
//! The paper's prototype "computes an SNR estimate for each received frame
//! using the Schmidl-Cox method \[22\]" — i.e. from the *repeated training
//! symbols at the start of the frame*. We reproduce that structure: two
//! identical preamble OFDM symbols; averaging them estimates the channel,
//! differencing them estimates the noise floor. Crucially this measures SNR
//! only at the start of the frame — fades during the frame body are
//! invisible to it, which is exactly the weakness of SNR-based rate
//! adaptation the paper demonstrates (§5.2).

use crate::complex::Complex;
use crate::ofdm::Mode;

/// Number of (identical) preamble OFDM symbols at the start of every frame.
pub const NUM_PREAMBLE_SYMBOLS: usize = 2;

/// Number of postamble OFDM symbols appended when postambles are enabled
/// (§3.2: lets the receiver detect a frame whose preamble was lost to
/// interference).
pub const NUM_POSTAMBLE_SYMBOLS: usize = 1;

/// The known training value on used subcarrier `k`: a deterministic
/// unit-magnitude pseudo-QPSK sequence (both transmitter and receiver can
/// regenerate it).
pub fn training_value(k: usize) -> Complex {
    // Quarter-turn phases from a cheap integer hash: constant envelope, flat
    // spectrum across subcarriers.
    let mut x = (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let phase = std::f64::consts::FRAC_PI_2 * ((x >> 60) & 3) as f64 + std::f64::consts::FRAC_PI_4;
    Complex::cis(phase)
}

/// Builds one preamble OFDM symbol (training on every used subcarrier).
pub fn preamble_symbol(mode: &Mode) -> Vec<Complex> {
    (0..mode.n_used()).map(training_value).collect()
}

/// Builds the postamble OFDM symbol. A different deterministic sequence from
/// the preamble so the two are distinguishable.
pub fn postamble_symbol(mode: &Mode) -> Vec<Complex> {
    (0..mode.n_used())
        .map(|k| training_value(k + 0x10_000))
        .collect()
}

/// Channel state estimated from the preamble.
#[derive(Debug, Clone)]
pub struct ChannelEstimate {
    /// Least-squares channel estimate per used subcarrier.
    pub h: Vec<Complex>,
    /// Estimated complex-noise variance per sample (E|n|^2).
    pub noise_var: f64,
    /// Estimated mean received signal power per used subcarrier.
    pub signal_power: f64,
}

impl ChannelEstimate {
    /// Preamble SNR estimate in dB — the quantity an SNR-based rate
    /// adaptation protocol would feed back.
    pub fn snr_db(&self) -> f64 {
        10.0 * (self.signal_power / self.noise_var.max(1e-15))
            .max(1e-15)
            .log10()
    }

    /// Linear SNR.
    pub fn snr_linear(&self) -> f64 {
        self.signal_power / self.noise_var.max(1e-15)
    }
}

/// Estimates the channel and noise floor from the two received preamble
/// symbols.
///
/// With identical transmitted symbols `x_k`: the per-subcarrier average
/// `(y1 + y2)/2` estimates `h_k x_k` with halved noise; the difference
/// `(y1 - y2)` contains only noise, giving an unbiased noise-variance
/// estimate `mean |y1 - y2|^2 / 2`.
pub fn estimate_channel(p1: &[Complex], p2: &[Complex], mode: &Mode) -> ChannelEstimate {
    assert_eq!(p1.len(), mode.n_used());
    assert_eq!(p2.len(), mode.n_used());
    let n = mode.n_used();

    let mut h = Vec::with_capacity(n);
    let mut noise_acc = 0.0;
    let mut sig_acc = 0.0;
    for k in 0..n {
        let x = training_value(k);
        let avg = (p1[k] + p2[k]).scale(0.5);
        // |x| = 1, so dividing by x is just a rotation; still write the
        // general LS form.
        h.push(avg / x);
        noise_acc += (p1[k] - p2[k]).norm_sqr();
        sig_acc += avg.norm_sqr();
    }
    let noise_var = (noise_acc / n as f64) / 2.0;
    // The averaged preamble still carries noise_var/2 of noise power;
    // subtract it so the SNR estimate is unbiased.
    let signal_power = (sig_acc / n as f64 - noise_var / 2.0).max(1e-15);
    ChannelEstimate {
        h,
        noise_var,
        signal_power,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ofdm::SIMULATION;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn gaussian_pair(rng: &mut SmallRng) -> (f64, f64) {
        // Box-Muller.
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let t = 2.0 * std::f64::consts::PI * u2;
        (r * t.cos(), r * t.sin())
    }

    fn noisy_preambles(h: Complex, noise_var: f64, seed: u64) -> (Vec<Complex>, Vec<Complex>) {
        let mode = SIMULATION;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mk = |rng: &mut SmallRng| {
            preamble_symbol(&mode)
                .into_iter()
                .map(|x| {
                    let (nr, ni) = gaussian_pair(rng);
                    h * x + Complex::new(nr, ni).scale((noise_var / 2.0).sqrt())
                })
                .collect::<Vec<_>>()
        };
        (mk(&mut rng), mk(&mut rng))
    }

    #[test]
    fn training_values_are_unit_magnitude() {
        for k in 0..2048 {
            assert!((training_value(k).abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn pre_and_postamble_differ() {
        let pre = preamble_symbol(&SIMULATION);
        let post = postamble_symbol(&SIMULATION);
        let same = pre
            .iter()
            .zip(&post)
            .filter(|(a, b)| (**a - **b).abs() < 1e-9)
            .count();
        assert!(
            same < pre.len() / 2,
            "sequences too similar: {same} matches"
        );
    }

    #[test]
    fn noiseless_estimate_recovers_channel() {
        let h = Complex::from_polar(0.8, 0.9);
        let p = preamble_symbol(&SIMULATION);
        let rx: Vec<Complex> = p.iter().map(|&x| h * x).collect();
        let est = estimate_channel(&rx, &rx, &SIMULATION);
        for hk in &est.h {
            assert!((hk.re - h.re).abs() < 1e-12 && (hk.im - h.im).abs() < 1e-12);
        }
        assert!(est.noise_var < 1e-20);
    }

    #[test]
    fn snr_estimate_tracks_true_snr() {
        // |h|^2 = 1, noise 0.1 => SNR = 10 dB. Expect within ~1 dB.
        let (p1, p2) = noisy_preambles(Complex::ONE, 0.1, 7);
        let est = estimate_channel(&p1, &p2, &SIMULATION);
        assert!((est.snr_db() - 10.0).abs() < 1.0, "snr {}", est.snr_db());
    }

    #[test]
    fn noise_estimate_tracks_true_noise() {
        for (nv, seed) in [(0.01, 1u64), (0.1, 2), (1.0, 3)] {
            let (p1, p2) = noisy_preambles(Complex::ONE, nv, seed);
            let est = estimate_channel(&p1, &p2, &SIMULATION);
            let rel = (est.noise_var - nv).abs() / nv;
            assert!(rel < 0.35, "noise {nv}: estimated {}", est.noise_var);
        }
    }

    #[test]
    fn low_snr_estimate_is_low() {
        // Signal far below noise: estimated SNR must be small/negative.
        let (p1, p2) = noisy_preambles(Complex::new(0.05, 0.0), 1.0, 9);
        let est = estimate_channel(&p1, &p2, &SIMULATION);
        assert!(est.snr_db() < 0.0, "snr {}", est.snr_db());
    }
}
