//! Rayleigh fading via the Zheng–Xiao sum-of-sinusoids Jakes simulator.
//!
//! This is the exact model the paper's GNU Radio channel simulator uses
//! (§4, reference \[26\]: Zheng & Xiao, "Simulation Models With Correct
//! Statistical Properties for Rayleigh Fading Channels", IEEE Trans.
//! Communications 2003). The channel gain is a function of absolute time, so
//! the *same fading process can be sampled for every bit rate* — the
//! cross-rate consistency the paper's trace methodology requires (§6.1).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softrate_phy::complex::Complex;

use std::f64::consts::PI;

/// Number of sinusoids per quadrature component. Zheng–Xiao converges to
/// Rayleigh statistics quickly; 16 is a customary choice.
const NUM_SINUSOIDS: usize = 16;

/// A unit-mean-power Rayleigh fading process parameterised by Doppler
/// spread. Deterministic given `(seed)`; random-access in time.
///
/// Coherence time is roughly `0.4 / doppler_hz` (paper footnote 2): 40 Hz
/// Doppler ~ walking (10 ms coherence), 4 kHz ~ train speeds (100 us).
#[derive(Debug, Clone)]
pub struct JakesFading {
    doppler_hz: f64,
    /// Preinterleaved `(angular rate, phase)` pairs: entry `2n` is the
    /// in-phase sinusoid `(wi_n, phi_n)`, entry `2n+1` the quadrature
    /// `(wq_n, psi_n)`. One flat array keeps [`JakesFading::gain`] a
    /// single fused pass over contiguous memory instead of four parallel
    /// arrays; the per-component accumulation order is unchanged, so
    /// gains are bit-identical to the split layout.
    wp: [(f64, f64); 2 * NUM_SINUSOIDS],
    amp: f64,
}

impl JakesFading {
    /// Creates a fading process with the given maximum Doppler shift.
    ///
    /// `doppler_hz == 0` degenerates to a constant (but random, Rayleigh
    /// distributed) gain — a static channel draw.
    pub fn new(doppler_hz: f64, seed: u64) -> Self {
        assert!(doppler_hz >= 0.0);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x4A4B_4553_0001);
        let theta: f64 = rng.gen_range(-PI..PI);
        let mut wp = [(0.0, 0.0); 2 * NUM_SINUSOIDS];
        for n in 0..NUM_SINUSOIDS {
            // Zheng–Xiao arrival angles: alpha_n = (2 pi n - pi + theta) / 4M.
            let alpha = (2.0 * PI * (n as f64 + 1.0) - PI + theta) / (4.0 * NUM_SINUSOIDS as f64);
            let wi = 2.0 * PI * doppler_hz * alpha.cos();
            let wq = 2.0 * PI * doppler_hz * alpha.sin();
            // RNG draw order (phi_n then psi_n per sinusoid) is part of
            // the seeded contract — keep it.
            let phi = rng.gen_range(-PI..PI);
            let psi = rng.gen_range(-PI..PI);
            wp[2 * n] = (wi, phi);
            wp[2 * n + 1] = (wq, psi);
        }
        // sqrt(2/M) per component gives E[h_I^2] = E[h_Q^2] = 1; a further
        // 1/sqrt(2) normalizes total mean power E[|h|^2] to 1.
        let amp = (2.0 / NUM_SINUSOIDS as f64).sqrt() / 2f64.sqrt();
        JakesFading {
            doppler_hz,
            wp,
            amp,
        }
    }

    /// The Doppler spread this process was built with.
    pub fn doppler_hz(&self) -> f64 {
        self.doppler_hz
    }

    /// Approximate channel coherence time, `0.4 / f_d` (paper footnote 2).
    /// Infinite for a static process.
    pub fn coherence_time(&self) -> f64 {
        if self.doppler_hz == 0.0 {
            f64::INFINITY
        } else {
            0.4 / self.doppler_hz
        }
    }

    /// Samples the complex channel gain at absolute time `t` (seconds).
    pub fn gain(&self, t: f64) -> Complex {
        // One fused pass over the interleaved pairs: both quadratures
        // accumulate in the original per-component order (even entries →
        // `hi`, odd → `hq`), so the sums are bit-identical to the
        // dual-loop formulation this replaced.
        let mut hi = 0.0;
        let mut hq = 0.0;
        for pair in self.wp.chunks_exact(2) {
            hi += (pair[0].0 * t + pair[0].1).cos();
            hq += (pair[1].0 * t + pair[1].1).cos();
        }
        Complex::new(hi * self.amp, hq * self.amp)
    }

    /// Envelope power at `t`, dB, floored at −40 dB: deeper fades are
    /// indistinguishable (nothing decodes either way).
    #[inline]
    pub fn envelope_db(&self, t: f64) -> f64 {
        10.0 * self.gain(t).norm_sqr().max(1e-4).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_power_is_unity() {
        // Average |h|^2 over many independent processes and times.
        let mut acc = 0.0;
        let n_proc = 200;
        let n_t = 50;
        for seed in 0..n_proc {
            let f = JakesFading::new(100.0, seed);
            for k in 0..n_t {
                acc += f.gain(k as f64 * 0.0137).norm_sqr();
            }
        }
        let mean = acc / (n_proc * n_t) as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean power {mean}");
    }

    #[test]
    fn envelope_is_rayleigh_like() {
        // For Rayleigh fading with unit mean power, P(|h|^2 < 0.1) ~ 9.5 %,
        // P(|h|^2 < 1) ~ 63.2 %. Check within loose tolerances.
        let mut below_01 = 0usize;
        let mut below_1 = 0usize;
        let mut total = 0usize;
        for seed in 0..400 {
            let f = JakesFading::new(200.0, seed);
            for k in 0..25 {
                let p = f.gain(k as f64 * 0.0211).norm_sqr();
                if p < 0.1 {
                    below_01 += 1;
                }
                if p < 1.0 {
                    below_1 += 1;
                }
                total += 1;
            }
        }
        let f01 = below_01 as f64 / total as f64;
        let f1 = below_1 as f64 / total as f64;
        assert!((f01 - 0.095).abs() < 0.03, "P(<0.1) = {f01}");
        assert!((f1 - 0.632).abs() < 0.05, "P(<1) = {f1}");
    }

    #[test]
    fn deterministic_in_seed_and_time() {
        let a = JakesFading::new(40.0, 5);
        let b = JakesFading::new(40.0, 5);
        for k in 0..20 {
            let t = k as f64 * 0.003;
            assert_eq!(a.gain(t), b.gain(t));
        }
    }

    #[test]
    fn zero_doppler_is_constant() {
        let f = JakesFading::new(0.0, 11);
        let h0 = f.gain(0.0);
        for k in 1..10 {
            let h = f.gain(k as f64 * 1.7);
            assert!((h - h0).abs() < 1e-12);
        }
    }

    #[test]
    fn decorrelates_beyond_coherence_time() {
        // Autocorrelation at lag >> coherence time should be far below the
        // zero-lag value; at lag << coherence time it should be close.
        let doppler = 100.0;
        let n = 400;
        let mut rho_short = 0.0;
        let mut rho_long = 0.0;
        let mut power = 0.0;
        for seed in 0..n {
            let f = JakesFading::new(doppler, seed as u64);
            let h0 = f.gain(0.5);
            power += h0.norm_sqr();
            rho_short += (h0 * f.gain(0.5 + 0.0002).conj()).re; // lag 0.2 ms
            rho_long += (h0 * f.gain(0.5 + 0.05).conj()).re; // lag 50 ms
        }
        assert!(rho_short / power > 0.9, "short-lag correlation too low");
        assert!(
            rho_long.abs() / power < 0.2,
            "long-lag correlation too high"
        );
    }

    #[test]
    fn higher_doppler_fades_faster() {
        // Count deep-fade crossings over a fixed window; the faster process
        // must fade at least as often.
        let count_fades = |doppler: f64| {
            let f = JakesFading::new(doppler, 3);
            let mut fades = 0;
            let mut in_fade = false;
            for k in 0..20_000 {
                let p = f.gain(k as f64 * 5e-5).norm_sqr();
                if p < 0.1 && !in_fade {
                    fades += 1;
                    in_fade = true;
                } else if p > 0.3 {
                    in_fade = false;
                }
            }
            fades
        };
        let slow = count_fades(40.0);
        let fast = count_fades(400.0);
        assert!(fast > 2 * slow, "slow {slow} fast {fast}");
    }

    #[test]
    fn coherence_time_formula() {
        assert!((JakesFading::new(40.0, 0).coherence_time() - 0.01).abs() < 1e-12);
        assert_eq!(JakesFading::new(0.0, 0).coherence_time(), f64::INFINITY);
    }
}
