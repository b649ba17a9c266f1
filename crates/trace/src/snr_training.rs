//! Training SNR threshold tables from trace data (paper §6.1: "The SNR-BER
//! relationships for both protocols are computed from the traces used for
//! evaluation").
//!
//! A *trained* table is built from the same environment the protocol later
//! runs in; an *untrained* one comes from a different environment. The
//! paper's §6.3 result — up to 4x throughput loss for an untrained
//! SNR protocol in fast fading — is reproduced by training on slow-fading
//! (walking) data and deploying at vehicular Doppler.

use softrate_adapt::snr::SnrTable;

use crate::recipes::N_RATES;
use crate::schema::{BerSample, LinkTrace};

/// Minimum delivery probability for an SNR bin to count as "usable" for a
/// rate.
const TARGET_DELIVERY: f64 = 0.9;

/// SNR bin width in dB.
const BIN_DB: f64 = 1.0;

/// One (snr, delivered) observation for a rate.
#[derive(Debug, Clone, Copy)]
pub struct SnrObservation {
    /// Rate index.
    pub rate_idx: usize,
    /// Preamble SNR estimate in dB.
    pub snr_db: f64,
    /// Whether the frame was delivered intact.
    pub delivered: bool,
}

/// Extracts observations from BER samples.
pub fn observations_from_samples(samples: &[BerSample]) -> Vec<SnrObservation> {
    samples
        .iter()
        .filter_map(|s| {
            s.snr_est_db
                .filter(|v| v.is_finite())
                .map(|snr_db| SnrObservation {
                    rate_idx: s.rate_idx,
                    snr_db,
                    delivered: s.delivered,
                })
        })
        .collect()
}

/// Extracts observations from a link trace.
pub fn observations_from_trace(trace: &LinkTrace) -> Vec<SnrObservation> {
    let mut out = Vec::new();
    for (r, series) in trace.series.iter().enumerate() {
        for e in series {
            if let Some(snr_db) = e.snr_est_db.filter(|v| v.is_finite()) {
                out.push(SnrObservation {
                    rate_idx: r,
                    snr_db,
                    delivered: e.delivered,
                });
            }
        }
    }
    out
}

/// Trains a per-rate minimum-SNR table.
///
/// For each rate, observations are bucketed into 1 dB bins; the threshold
/// is the lowest bin from which *every* higher populated bin delivers at
/// least `TARGET_DELIVERY` (90 %) of its frames. Cross-rate monotonicity is then
/// enforced (a faster rate can never have a lower threshold).
pub fn train_snr_table(observations: &[SnrObservation]) -> SnrTable {
    let mut thresholds = vec![f64::NAN; N_RATES];

    #[allow(clippy::needless_range_loop)] // `rate` filters observations and indexes the table
    for rate in 0..N_RATES {
        let mut bins: std::collections::BTreeMap<i64, (u32, u32)> = Default::default();
        for o in observations.iter().filter(|o| o.rate_idx == rate) {
            let bin = (o.snr_db / BIN_DB).floor() as i64;
            let e = bins.entry(bin).or_insert((0, 0));
            e.0 += 1;
            if o.delivered {
                e.1 += 1;
            }
        }
        // Walk bins from the top down, tracking the lowest bin where this
        // and all higher bins are good.
        let mut best: Option<i64> = None;
        for (&bin, &(total, ok)) in bins.iter().rev() {
            if total >= 3 && (ok as f64) / (total as f64) >= TARGET_DELIVERY {
                best = Some(bin);
            } else if total >= 3 {
                break; // a bad populated bin interrupts the run from the top
            }
        }
        thresholds[rate] = match best {
            Some(bin) => (bin as f64 + 1.0) * BIN_DB, // conservative: bin's upper edge
            None => f64::INFINITY,                    // rate never worked in training
        };
    }

    // A rate that never worked inherits "just above the best observed SNR"
    // so it is effectively disabled; replace infinities with a high finite
    // value above the previous threshold.
    let max_seen = observations.iter().map(|o| o.snr_db).fold(0.0f64, f64::max);
    for t in thresholds.iter_mut() {
        if !t.is_finite() {
            *t = max_seen + 10.0;
        }
    }
    // Enforce monotonicity.
    for i in 1..N_RATES {
        if thresholds[i] < thresholds[i - 1] {
            thresholds[i] = thresholds[i - 1];
        }
    }
    SnrTable::new(thresholds)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthesizes observations where rate `r` needs SNR >= 3r + 4 dB.
    fn synthetic_observations() -> Vec<SnrObservation> {
        let mut out = Vec::new();
        #[allow(clippy::needless_range_loop)] // `rate` filters observations and indexes the table
        for rate in 0..N_RATES {
            let need = 4.0 + 3.0 * rate as f64;
            for k in 0..400 {
                let snr = (k % 30) as f64;
                out.push(SnrObservation {
                    rate_idx: rate,
                    snr_db: snr,
                    delivered: snr >= need,
                });
            }
        }
        out
    }

    #[test]
    fn trained_table_recovers_synthetic_thresholds() {
        let table = train_snr_table(&synthetic_observations());
        #[allow(clippy::needless_range_loop)] // `rate` filters observations and indexes the table
        for rate in 0..N_RATES {
            let need = 4.0 + 3.0 * rate as f64;
            let got = table.min_snr_db[rate];
            assert!(
                (got - need).abs() <= 1.5,
                "rate {rate}: trained {got} dB vs true {need} dB"
            );
        }
    }

    #[test]
    fn table_is_monotone() {
        let table = train_snr_table(&synthetic_observations());
        for w in table.min_snr_db.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn never_working_rate_is_disabled() {
        // Rate 5 never delivers.
        let mut obs = synthetic_observations();
        for o in obs.iter_mut() {
            if o.rate_idx == 5 {
                o.delivered = false;
            }
        }
        let table = train_snr_table(&obs);
        let max_seen = 29.0;
        assert!(
            table.min_snr_db[5] > max_seen,
            "unusable rate must sit above observed SNRs"
        );
    }

    #[test]
    fn noisy_bins_do_not_create_holes() {
        // A single lucky delivery at low SNR must not pull the threshold
        // down (bins need >= 3 samples).
        let mut obs = synthetic_observations();
        obs.push(SnrObservation {
            rate_idx: 5,
            snr_db: 1.0,
            delivered: true,
        });
        let table = train_snr_table(&obs);
        assert!(table.min_snr_db[5] > 10.0);
    }
}
