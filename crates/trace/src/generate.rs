//! Trace and sample generators: the paper's Table 4 experiments, run over
//! the software PHY + channel simulator instead of USRPs (DESIGN.md §1).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use serde::{Deserialize, Serialize};
use softrate_channel::interference::{interferer_frame, Interferer};
use softrate_channel::link::{Link, LinkConfig, LinkObservation};
use softrate_channel::model::{ChannelInstance, FadingSpec};
use softrate_channel::pathloss::Attenuation;
use softrate_core::collision::CollisionDetector;
use softrate_core::hints::FrameHints;
use softrate_phy::frame::TxFrame;
use softrate_phy::ofdm::{Mode, LONG_RANGE, SHORT_RANGE, SIMULATION};
use softrate_phy::rates::PAPER_RATES;

use crate::par::par_map;
use crate::recipes::{
    AlternatingRecipe, DopplerRecipe, InterferenceRecipe, StaticRecipe, StaticShortRecipe,
    WalkingRecipe, N_RATES,
};
use crate::schema::{BerSample, LinkTrace, TraceEntry};

/// Converts one probe observation into a trace entry.
fn probe_to_entry(t: f64, rate_idx: usize, tx: &TxFrame, obs: &LinkObservation) -> TraceEntry {
    let mut e = TraceEntry::silent(t, rate_idx, obs.true_frame_snr_db);
    e.detected = obs.preamble_detected;
    if let Some(rx) = &obs.rx {
        e.snr_est_db = Some(rx.snr_db);
        e.header_ok = rx.header.is_some();
        e.delivered = rx.crc_ok;
        e.true_ber = obs.true_ber;
        e.probe_bits = tx.info_bits.len();
        if e.header_ok && !rx.llrs.is_empty() {
            let hints = FrameHints::from_llrs(&rx.llrs, rx.info_bits_per_symbol.max(1));
            e.softphy_ber = Some(hints.frame_ber());
        }
    }
    e
}

/// Runs one probing time series over `link`, cycling all paper rates at
/// each step — the trace-collection loop of §6.1. Public so other trace
/// producers (e.g. the scenario engine's PHY-backed channels) can reuse it
/// on links they configure themselves.
pub fn run_probe_series(
    link: &mut Link,
    duration: f64,
    interval: f64,
    payload_len: usize,
) -> Vec<Vec<TraceEntry>> {
    let n_steps = (duration / interval).round() as usize;
    let mut series: Vec<Vec<TraceEntry>> =
        (0..N_RATES).map(|_| Vec::with_capacity(n_steps)).collect();
    for step in 0..n_steps {
        let t = step as f64 * interval;
        for (r, &rate) in PAPER_RATES.iter().enumerate() {
            let (tx, obs) = link.probe(rate, payload_len, t, &[], false);
            series[r].push(probe_to_entry(t, r, &tx, &obs));
        }
    }
    series
}

/// Generates one walking-mobility trace (Table 4 "Walking", run index
/// `run`): short-range mode, 40 Hz Jakes fading plus a large-scale
/// attenuation ramp as the sender walks away.
pub fn walking_trace(run: usize, recipe: &WalkingRecipe) -> LinkTrace {
    let seed = 0x5741_4C4B_0000 ^ run as u64; // "WALK"
    let mut cfg = LinkConfig::new(SHORT_RANGE);
    cfg.noise_power_db = recipe.noise_db;
    cfg.fading = FadingSpec::Flat {
        doppler_hz: recipe.doppler_hz,
    };
    cfg.attenuation = Attenuation::RampDb {
        t_start: 0.0,
        db_start: recipe.atten_start_db,
        t_end: recipe.duration,
        db_end: recipe.atten_end_db,
    };
    cfg.seed = seed;
    let mut link = Link::new(cfg);
    LinkTrace {
        name: format!("walking-{run}"),
        mode_name: SHORT_RANGE.name.to_string(),
        interval: recipe.interval,
        duration: recipe.duration,
        series: run_probe_series(
            &mut link,
            recipe.duration,
            recipe.interval,
            recipe.payload_len,
        ),
        seed,
    }
}

/// Generates all ten walking runs in parallel.
pub fn walking_traces(n_runs: usize, recipe: &WalkingRecipe) -> Vec<LinkTrace> {
    par_map(&(0..n_runs).collect::<Vec<_>>(), |&run| {
        walking_trace(run, recipe)
    })
}

/// Generates a fading-simulator trace at one Doppler spread (Table 4
/// "Simulation"): 20 MHz simulation mode, flat Rayleigh fading, constant
/// mean SNR.
pub fn doppler_trace(run: usize, recipe: &DopplerRecipe) -> LinkTrace {
    let seed = 0x444F_5050_0000 ^ ((recipe.doppler_hz as u64) << 8) ^ run as u64; // "DOPP"
    let mut cfg = LinkConfig::new(SIMULATION);
    cfg.noise_power_db = -recipe.mean_snr_db;
    cfg.fading = FadingSpec::Flat {
        doppler_hz: recipe.doppler_hz,
    };
    cfg.seed = seed;
    let mut link = Link::new(cfg);
    LinkTrace {
        name: format!("doppler-{}Hz-{run}", recipe.doppler_hz),
        mode_name: SIMULATION.name.to_string(),
        interval: recipe.interval,
        duration: recipe.duration,
        series: run_probe_series(
            &mut link,
            recipe.duration,
            recipe.interval,
            recipe.payload_len,
        ),
        seed,
    }
}

/// Generates a static short-range trace (Table 4 "Static (short range)"):
/// the §6.4 substrate.
pub fn static_short_trace(run: usize, recipe: &StaticShortRecipe) -> LinkTrace {
    let seed = 0x5354_4154_0000 ^ run as u64; // "STAT"
    let mut cfg = LinkConfig::new(SHORT_RANGE);
    cfg.noise_power_db = -recipe.snr_db;
    cfg.fading = FadingSpec::None;
    cfg.seed = seed;
    let mut link = Link::new(cfg);
    LinkTrace {
        name: format!("static-short-{run}"),
        mode_name: SHORT_RANGE.name.to_string(),
        interval: recipe.interval,
        duration: recipe.duration,
        series: run_probe_series(
            &mut link,
            recipe.duration,
            recipe.interval,
            recipe.payload_len,
        ),
        seed,
    }
}

/// Generates the synthetic alternating good/bad trace of Figure 15.
pub fn alternating_trace(recipe: &AlternatingRecipe, seed: u64) -> LinkTrace {
    let mut cfg = LinkConfig::new(SHORT_RANGE);
    cfg.noise_power_db = -recipe.snr_good_db;
    cfg.fading = FadingSpec::None;
    cfg.attenuation = Attenuation::SquareWave {
        db_good: 0.0,
        db_bad: recipe.snr_bad_db - recipe.snr_good_db,
        period: 2.0 * recipe.half_period,
    };
    cfg.seed = seed;
    let mut link = Link::new(cfg);
    LinkTrace {
        name: "alternating".into(),
        mode_name: SHORT_RANGE.name.to_string(),
        interval: recipe.interval,
        duration: recipe.duration,
        series: run_probe_series(
            &mut link,
            recipe.duration,
            recipe.interval,
            recipe.payload_len,
        ),
        seed,
    }
}

/// Generates BER samples for the static estimation study (Figure 7):
/// long-range mode, static channels, power sweep. Parallel over
/// (pair, power).
pub fn static_ber_samples(recipe: &StaticRecipe) -> Vec<BerSample> {
    let mut jobs = Vec::new();
    for pair in 0..recipe.n_pairs {
        for &p in &recipe.tx_powers_db {
            jobs.push((pair, p));
        }
    }
    let frames = recipe.frames_per_point;
    let payload = recipe.payload_len;
    let noise = recipe.noise_db;
    let batches = par_map(&jobs, move |&(pair, power)| {
        ber_sample_batch(
            LONG_RANGE,
            FadingSpec::None,
            power,
            noise,
            0.0,
            frames,
            payload,
            0x42455221 ^ ((pair as u64) << 32) ^ (power.to_bits() >> 20),
        )
    });
    batches.into_iter().flatten().collect()
}

/// Generates BER samples over a fading channel at one Doppler spread
/// (Figures 8/9): simulation mode, power sweep.
pub fn mobile_ber_samples(
    doppler_hz: f64,
    tx_powers_db: &[f64],
    frames_per_point: usize,
    payload_len: usize,
    noise_db: f64,
) -> Vec<BerSample> {
    let batches = par_map(tx_powers_db, move |&power| {
        ber_sample_batch(
            SIMULATION,
            FadingSpec::Flat { doppler_hz },
            power,
            noise_db,
            doppler_hz,
            frames_per_point,
            payload_len,
            0x4D4F4249 ^ (doppler_hz as u64) << 24 ^ (power.to_bits() >> 20),
        )
    });
    batches.into_iter().flatten().collect()
}

/// One batch of probes at a fixed (mode, fading, power): all rates,
/// `frames` frames each, spaced widely enough in time for the fading to
/// decorrelate between frames.
#[allow(clippy::too_many_arguments)]
fn ber_sample_batch(
    mode: Mode,
    fading: FadingSpec,
    tx_power_db: f64,
    noise_db: f64,
    doppler_hz: f64,
    frames: usize,
    payload_len: usize,
    seed: u64,
) -> Vec<BerSample> {
    let mut cfg = LinkConfig::new(mode);
    cfg.tx_power_db = tx_power_db;
    cfg.noise_power_db = noise_db;
    cfg.fading = fading;
    cfg.seed = seed;
    let mut link = Link::new(cfg);
    let mut out = Vec::with_capacity(frames * N_RATES);
    let mut t = 0.0;
    for _ in 0..frames {
        for (r, &rate) in PAPER_RATES.iter().enumerate() {
            let (tx, obs) = link.probe(rate, payload_len, t, &[], false);
            let (softphy_ber, snr_est_db, delivered) = match &obs.rx {
                Some(rx) if rx.header.is_some() && !rx.llrs.is_empty() => {
                    let hints = FrameHints::from_llrs(&rx.llrs, rx.info_bits_per_symbol.max(1));
                    (Some(hints.frame_ber()), Some(rx.snr_db), rx.crc_ok)
                }
                Some(rx) => (None, Some(rx.snr_db), false),
                None => (None, None, false),
            };
            out.push(BerSample {
                rate_idx: r,
                tx_power_db,
                doppler_hz,
                snr_est_db,
                softphy_ber,
                true_ber: obs.true_ber,
                probe_bits: tx.info_bits.len(),
                delivered,
            });
            t += 0.02; // 20 ms spacing: decorrelated even at 40 Hz Doppler
        }
    }
    out
}

/// Outcome classification for the interference-detection study (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectionOutcome {
    /// Frame received intact despite the interferer.
    Correct,
    /// Received with bit errors and the detector flagged a collision.
    ErroredFlagged,
    /// Received with bit errors but the detector called it noise.
    ErroredMissed,
    /// Preamble (or header) lost: no feedback possible.
    SilentLoss,
}

/// One frame of the interference-detection experiment.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DetectionSample {
    /// Sender's rate index.
    pub rate_idx: usize,
    /// Interferer power relative to the sender, dB.
    pub rel_power_db: f64,
    /// Classification.
    pub outcome: DetectionOutcome,
    /// Ground truth: did interference overlap the payload?
    pub truly_interfered: bool,
}

/// Runs the static interference experiment (Table 4 row 4): a clean strong
/// link hit by an interferer with ~one-frame random jitter.
pub fn interference_detection_samples(recipe: &InterferenceRecipe) -> Vec<DetectionSample> {
    let mut jobs = Vec::new();
    for &p in &recipe.rel_powers_db {
        for r in 0..N_RATES {
            jobs.push((p, r));
        }
    }
    let frames = recipe.frames_per_point;
    let payload = recipe.payload_len;
    let int_payload = recipe.interferer_payload_len;
    let snr = recipe.snr_db;
    let batches = par_map(&jobs, move |&(rel_power, rate_idx)| {
        interference_batch(rel_power, rate_idx, frames, payload, int_payload, snr)
    });
    batches.into_iter().flatten().collect()
}

fn interference_batch(
    rel_power_db: f64,
    rate_idx: usize,
    frames: usize,
    payload: usize,
    interferer_payload: usize,
    snr_db: f64,
) -> Vec<DetectionSample> {
    let seed = 0x494E5446 ^ ((rate_idx as u64) << 40) ^ (rel_power_db.to_bits() >> 16);
    let mut cfg = LinkConfig::new(SIMULATION);
    cfg.noise_power_db = -snr_db;
    cfg.seed = seed;
    let mut link = Link::new(cfg);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4A495454);
    let detector = CollisionDetector::default();
    let rate = PAPER_RATES[rate_idx];

    // Interferer frame at a random paper rate each transmission.
    let mut out = Vec::with_capacity(frames);
    let victim_syms = softrate_phy::frame::frame_symbol_count(&SIMULATION, rate, payload, false);
    for k in 0..frames {
        let int_rate = PAPER_RATES[rng.gen_range(0..N_RATES)];
        let symbols = interferer_frame(&SIMULATION, int_rate, interferer_payload, seed ^ k as u64);
        // Random jitter of about one packet-time either way (paper §5.1).
        let span = victim_syms.max(symbols.len()) as isize;
        let start_symbol = rng.gen_range(-span..=span);
        let interferer = Interferer {
            symbols,
            start_symbol,
            power_db: rel_power_db,
            channel: ChannelInstance::new(
                FadingSpec::None,
                Attenuation::NONE,
                SIMULATION.n_used(),
                seed ^ 0xC0FFEE ^ k as u64,
            ),
        };
        let t = k as f64 * 0.01;
        let (_, obs) = link.probe(rate, payload, t, std::slice::from_ref(&interferer), false);
        let truly_interfered = obs.any_interference;

        let outcome = match &obs.rx {
            None => DetectionOutcome::SilentLoss,
            Some(rx) if rx.header.is_none() => DetectionOutcome::SilentLoss,
            Some(rx) if rx.crc_ok => DetectionOutcome::Correct,
            Some(rx) => {
                let hints = FrameHints::from_llrs(&rx.llrs, rx.info_bits_per_symbol.max(1));
                if detector.detect(&hints).collision_detected {
                    DetectionOutcome::ErroredFlagged
                } else {
                    DetectionOutcome::ErroredMissed
                }
            }
        };
        out.push(DetectionSample {
            rate_idx,
            rel_power_db,
            outcome,
            truly_interfered,
        });
    }
    out
}

/// False-positive study (§5.3): frames over interference-free channels;
/// returns `(frames_with_errors, errored_frames_flagged_as_collision)`.
pub fn quiet_detection_run(
    fading: FadingSpec,
    mean_snr_db: f64,
    n_frames: usize,
    payload_len: usize,
    seed: u64,
) -> (usize, usize) {
    let mut cfg = LinkConfig::new(SIMULATION);
    cfg.noise_power_db = -mean_snr_db;
    cfg.fading = fading;
    cfg.seed = seed;
    let mut link = Link::new(cfg);
    let detector = CollisionDetector::default();
    let mut errored = 0usize;
    let mut flagged = 0usize;
    let mut rng = SmallRng::seed_from_u64(seed);
    for k in 0..n_frames {
        let rate = PAPER_RATES[rng.gen_range(0..N_RATES)];
        let t = k as f64 * 0.007;
        let (_, obs) = link.probe(rate, payload_len, t, &[], false);
        if let Some(rx) = &obs.rx {
            if rx.header.is_some() && !rx.crc_ok && !rx.llrs.is_empty() {
                errored += 1;
                let hints = FrameHints::from_llrs(&rx.llrs, rx.info_bits_per_symbol.max(1));
                if detector.detect(&hints).collision_detected {
                    flagged += 1;
                }
            }
        }
    }
    (errored, flagged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipes::PROBE_INTERVAL;

    #[test]
    fn walking_trace_smoke_has_shape() {
        let recipe = WalkingRecipe {
            duration: 0.1,
            ..WalkingRecipe::smoke()
        };
        let tr = walking_trace(0, &recipe);
        assert_eq!(tr.n_rates(), N_RATES);
        assert_eq!(tr.n_steps(), (0.1 / PROBE_INTERVAL).round() as usize);
        // Early in the run the channel is strong: the lowest rate must
        // deliver at least sometimes.
        let low = &tr.series[0];
        assert!(
            low.iter().take(10).any(|e| e.delivered),
            "BPSK 1/2 dead at trace start"
        );
    }

    #[test]
    fn walking_trace_is_deterministic() {
        let recipe = WalkingRecipe {
            duration: 0.05,
            ..WalkingRecipe::smoke()
        };
        let a = walking_trace(3, &recipe);
        let b = walking_trace(3, &recipe);
        assert_eq!(
            a.series[2][4].softphy_ber.map(f64::to_bits),
            b.series[2][4].softphy_ber.map(f64::to_bits)
        );
    }

    #[test]
    fn static_short_trace_is_stable() {
        let recipe = StaticShortRecipe {
            duration: 0.2,
            ..StaticShortRecipe::smoke()
        };
        let tr = static_short_trace(0, &recipe);
        // No fading: the best rate should not change across the trace.
        let fates: Vec<usize> = (0..tr.n_steps())
            .map(|s| tr.best_rate_at(s as f64 * tr.interval, 1400 * 8))
            .collect();
        let first = fates[0];
        let same = fates.iter().filter(|&&f| f == first).count();
        assert!(
            same * 10 >= fates.len() * 9,
            "static trace best rate unstable: {fates:?}"
        );
    }

    #[test]
    fn ber_samples_track_power() {
        // Higher power => more deliveries at a mid rate.
        let lo = ber_sample_batch(SIMULATION, FadingSpec::None, -20.0, -26.0, 0.0, 8, 100, 1);
        let hi = ber_sample_batch(SIMULATION, FadingSpec::None, 0.0, -26.0, 0.0, 8, 100, 1);
        let delivered =
            |v: &[BerSample]| v.iter().filter(|s| s.rate_idx == 3 && s.delivered).count();
        assert!(delivered(&hi) > delivered(&lo));
    }

    #[test]
    fn interference_samples_classify() {
        let recipe = InterferenceRecipe::smoke();
        let samples = interference_detection_samples(&recipe);
        assert_eq!(
            samples.len(),
            recipe.rel_powers_db.len() * N_RATES * recipe.frames_per_point
        );
        // Strong interference must produce at least some errored frames,
        // and the detector must catch a decent share of them.
        let strong: Vec<_> = samples
            .iter()
            .filter(|s| s.rel_power_db == 0.0 && s.truly_interfered)
            .collect();
        assert!(!strong.is_empty());
        let errored: Vec<_> = strong
            .iter()
            .filter(|s| {
                matches!(
                    s.outcome,
                    DetectionOutcome::ErroredFlagged | DetectionOutcome::ErroredMissed
                )
            })
            .collect();
        if !errored.is_empty() {
            let caught = errored
                .iter()
                .filter(|s| s.outcome == DetectionOutcome::ErroredFlagged)
                .count();
            // The committed detector deliberately favours a <1 % false-
            // positive rate over recall (ratio edges + min_region = 3; see
            // core::collision and EXPERIMENTS.md): at equal interferer
            // power a meaningful fraction of errored frames must still be
            // flagged.
            assert!(
                caught * 4 >= errored.len(),
                "detector caught only {caught}/{} at 0 dB",
                errored.len()
            );
        }
    }

    #[test]
    fn quiet_channel_false_positives_are_rare() {
        // Fading-only losses must (almost) never be flagged as collisions.
        let (errored, flagged) =
            quiet_detection_run(FadingSpec::Flat { doppler_hz: 40.0 }, 13.0, 60, 100, 42);
        assert!(errored > 0, "need some errored frames to measure FP rate");
        assert!(
            (flagged as f64) <= (errored as f64) * 0.05 + 1.0,
            "false positives too high: {flagged}/{errored}"
        );
    }

    #[test]
    fn alternating_trace_flips_best_rate() {
        let recipe = AlternatingRecipe {
            duration: 2.0,
            half_period: 1.0,
            ..Default::default()
        };
        let tr = alternating_trace(&recipe, 7);
        // Single instants are noisy (one probe per (rate, step) — a lucky
        // error-free probe at a borderline SNR can momentarily qualify a
        // rate), so compare the oracle averaged over each half-period.
        let mean_best = |t0: f64, t1: f64| -> f64 {
            let steps = ((t1 - t0) / tr.interval) as usize;
            (0..steps)
                .map(|k| tr.best_rate_at(t0 + k as f64 * tr.interval, 1400 * 8) as f64)
                .sum::<f64>()
                / steps as f64
        };
        let good = mean_best(0.0, 1.0);
        let bad = mean_best(1.0, 2.0);
        assert!(
            good > bad + 0.3,
            "good state must allow faster rates on average ({good:.2} vs {bad:.2})"
        );
    }
}
