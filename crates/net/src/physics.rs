//! The spatial medium's radio verdicts, one function each: mean SNR,
//! audibility and capture. The fast paths (sense bands, interference
//! radius) settle only what these functions provably settle the same way
//! and call them for the rest. The per-frame reception verdict lives in
//! [`softrate_channel::analytic::Reception`], shared with the trace
//! generator.

use crate::geometry::{mean_snr_db, Point};
use crate::spatial::SpatialParams;

/// The noise floor in mean SNR, dB: interference below it corrupts
/// nothing the noise was not already corrupting.
pub const NOISE_FLOOR_DB: f64 = 0.0;

/// Mean (path-loss only) SNR of a transmission from `from` heard at `to`,
/// dB.
#[inline]
pub fn snr_between(p: &SpatialParams, from: Point, to: Point) -> f64 {
    mean_snr_db(p.snr_ref_db, p.path_loss_exp, from.dist(to))
}

/// Carrier sense: whether a transmitter at `from` is heard at `to` at or
/// above the sensing threshold.
#[inline]
pub fn audible(p: &SpatialParams, from: Point, to: Point) -> bool {
    snr_between(p, from, to) >= p.sense_snr_db
}

/// Capture: whether interference of mean SNR `int_db` corrupts a
/// reception whose signal's mean SNR is `sig_db` — the interferer clears
/// the noise floor and leaves less than `capture_sir_db` of margin. The
/// same rule decides concurrent transmissions and jammer bursts.
#[inline]
pub fn corrupts(p: &SpatialParams, sig_db: f64, int_db: f64) -> bool {
    int_db >= NOISE_FLOOR_DB && sig_db - int_db < p.capture_sir_db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::MobilitySpec;
    use crate::spatial::SpatialSpec;

    fn params() -> SpatialParams {
        SpatialSpec {
            ap_cols: 2,
            ap_rows: 1,
            ap_spacing_m: 30.0,
            n_stations: 4,
            snr_ref_db: None,
            path_loss_exp: None,
            sense_snr_db: Some(25.0),
            capture_sir_db: None,
            doppler_hz: None,
            mobility: MobilitySpec::Static,
            roaming: None,
        }
        .resolve()
        .expect("valid spec")
    }

    #[test]
    fn corruption_flips_at_the_capture_margin_and_the_noise_floor() {
        let p = params();
        let sig = 20.0;
        // Exactly `capture_sir_db` of margin: the frame survives.
        let int = sig - p.capture_sir_db;
        assert_eq!(sig - int, p.capture_sir_db);
        assert!(!corrupts(&p, sig, int));
        assert!(corrupts(&p, sig, int.next_up()));
        // An interferer exactly at the noise floor counts; below it, not.
        assert!(corrupts(&p, 1.0, NOISE_FLOOR_DB));
        assert!(!corrupts(&p, 1.0, NOISE_FLOOR_DB.next_down()));
    }

    #[test]
    fn audibility_includes_the_sensing_threshold() {
        let mut p = params();
        let (from, to) = (Point { x: 0.0, y: 0.0 }, Point { x: 17.3, y: 4.1 });
        // A threshold equal to the link's SNR hears the link; the next
        // float up does not.
        p.sense_snr_db = snr_between(&p, from, to);
        assert!(audible(&p, from, to));
        p.sense_snr_db = p.sense_snr_db.next_up();
        assert!(!audible(&p, from, to));
    }
}
