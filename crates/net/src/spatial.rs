//! The spatial topology specification and its resolved parameter set.
//!
//! [`SpatialSpec`] is the declarative surface (`[topology.spatial]` in a
//! scenario document): an AP grid, a station population, a mobility model,
//! and optional RSSI-threshold roaming. [`SpatialSpec::resolve`] validates
//! it and applies defaults, producing the [`SpatialParams`] the simulator
//! consumes.

use serde::{Deserialize, Serialize};

use crate::geometry::{ap_grid, grid_bounds, mean_snr_db, Point, Rect};
use crate::grid::dist2;
use crate::mobility::MobilitySpec;
use crate::stream::mix_seed;

/// Carrier wavelength assumed when deriving Doppler spread from station
/// speed (5 GHz band, ~6 cm).
pub const WAVELENGTH_M: f64 = 0.06;

/// Residual Doppler for nominally static stations (people and doors moving
/// in the environment keep the channel from freezing entirely).
pub const STATIC_DOPPLER_HZ: f64 = 2.0;

/// Error resolving a spatial topology.
#[derive(Debug, Clone)]
pub struct SpatialError(pub String);

impl std::fmt::Display for SpatialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpatialError {}

/// What happens to a station's rate-adaptation state at handoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HandoffPolicy {
    /// The adapter instance (and all its learned state) moves to the new
    /// AP untouched — the state it carries describes the *old* channel.
    Preserve,
    /// The adapter is rebuilt from scratch on the new link.
    Reset,
}

/// RSSI-threshold roaming configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoamingSpec {
    /// How many dB stronger another AP must be before the station roams.
    pub hysteresis_db: f64,
    /// Seconds between association re-evaluations (default 0.25).
    pub check_interval_s: Option<f64>,
    /// Adapter state policy across handoff.
    pub handoff: HandoffPolicy,
}

/// The `[topology.spatial]` document: a multi-cell spatial deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpatialSpec {
    /// AP grid columns.
    pub ap_cols: usize,
    /// AP grid rows.
    pub ap_rows: usize,
    /// Grid spacing in meters.
    pub ap_spacing_m: f64,
    /// Number of stations spawned uniformly over the grid area.
    pub n_stations: usize,
    /// Mean SNR at 1 m from any transmitter, dB (default 55).
    pub snr_ref_db: Option<f64>,
    /// Log-distance path-loss exponent (default 2.7, indoor-ish).
    pub path_loss_exp: Option<f64>,
    /// Carrier-sense threshold: a station defers when another transmitter
    /// is audible at or above this mean SNR, dB (default 0).
    pub sense_snr_db: Option<f64>,
    /// Capture threshold: a concurrent transmission corrupts a reception
    /// when the signal-to-interference ratio at the receiver falls below
    /// this, dB (default 6).
    pub capture_sir_db: Option<f64>,
    /// Doppler spread override, Hz. Default derives from the mobility
    /// speed (`v / 0.06 m`), floored at 2 Hz for static deployments.
    pub doppler_hz: Option<f64>,
    /// How stations move.
    pub mobility: MobilitySpec,
    /// RSSI-threshold roaming; when omitted stations keep their initial
    /// (strongest-RSSI) association forever.
    pub roaming: Option<RoamingSpec>,
}

/// Fully resolved spatial parameters (defaults applied, grid laid out).
#[derive(Debug, Clone)]
pub struct SpatialParams {
    /// AP positions, row-major over the grid.
    pub aps: Vec<Point>,
    /// Station area.
    pub bounds: Rect,
    /// Station count.
    pub n_stations: usize,
    /// Mean SNR at 1 m, dB.
    pub snr_ref_db: f64,
    /// Path-loss exponent.
    pub path_loss_exp: f64,
    /// Carrier-sense threshold, dB.
    pub sense_snr_db: f64,
    /// Capture threshold, dB.
    pub capture_sir_db: f64,
    /// Doppler spread of every link's fading process, Hz.
    pub doppler_hz: f64,
    /// Mobility model.
    pub mobility: MobilitySpec,
    /// Roaming configuration (hysteresis dB, check interval s, policy).
    pub roaming: Option<(f64, f64, HandoffPolicy)>,
}

impl SpatialSpec {
    /// Validates the spec and applies defaults.
    pub fn resolve(&self) -> Result<SpatialParams, SpatialError> {
        let fail = |m: String| Err(SpatialError(m));
        if self.ap_cols == 0 || self.ap_rows == 0 {
            return fail("spatial: ap_cols and ap_rows must be >= 1".into());
        }
        if !self.ap_spacing_m.is_finite() || self.ap_spacing_m <= 0.0 {
            return fail(format!(
                "spatial: ap_spacing_m must be positive, got {}",
                self.ap_spacing_m
            ));
        }
        if self.n_stations == 0 {
            return fail("spatial: n_stations must be >= 1".into());
        }
        let levels = [self.snr_ref_db, self.sense_snr_db, self.capture_sir_db];
        if levels.iter().flatten().any(|v| !v.is_finite()) {
            return fail(format!(
                "spatial: snr_ref_db, sense_snr_db and capture_sir_db must be finite, got {levels:?}"
            ));
        }
        // `range_band` and `best_ap` rely on SNR falling with distance.
        if let Some(n) = self.path_loss_exp.filter(|n| !(n.is_finite() && *n > 0.0)) {
            return fail(format!("spatial: path_loss_exp must be positive, got {n}"));
        }
        let speed = self.mobility.speed_mps();
        if !matches!(self.mobility, MobilitySpec::Static) && (!speed.is_finite() || speed <= 0.0) {
            return fail(format!(
                "spatial: mobility speed must be positive, got {speed}"
            ));
        }
        if let MobilitySpec::RandomWaypoint { pause_s, .. } = self.mobility {
            if !pause_s.is_finite() || pause_s < 0.0 {
                return fail(format!("spatial: pause_s must be >= 0, got {pause_s}"));
            }
        }
        let roaming = match &self.roaming {
            None => None,
            Some(r) => {
                if !r.hysteresis_db.is_finite() || r.hysteresis_db < 0.0 {
                    return fail(format!(
                        "spatial: roaming.hysteresis_db must be >= 0, got {}",
                        r.hysteresis_db
                    ));
                }
                let interval = r.check_interval_s.unwrap_or(0.25);
                if !interval.is_finite() || interval <= 0.0 {
                    return fail(format!(
                        "spatial: roaming.check_interval_s must be positive, got {interval}"
                    ));
                }
                Some((r.hysteresis_db, interval, r.handoff))
            }
        };
        let doppler = self
            .doppler_hz
            .unwrap_or_else(|| (speed / WAVELENGTH_M).max(STATIC_DOPPLER_HZ));
        if !doppler.is_finite() || doppler < 0.0 {
            return fail(format!("spatial: doppler_hz must be >= 0, got {doppler}"));
        }
        Ok(SpatialParams {
            aps: ap_grid(self.ap_cols, self.ap_rows, self.ap_spacing_m),
            bounds: grid_bounds(self.ap_cols, self.ap_rows, self.ap_spacing_m),
            n_stations: self.n_stations,
            snr_ref_db: self.snr_ref_db.unwrap_or(55.0),
            path_loss_exp: self.path_loss_exp.unwrap_or(2.7),
            sense_snr_db: self.sense_snr_db.unwrap_or(0.0),
            capture_sir_db: self.capture_sir_db.unwrap_or(6.0),
            doppler_hz: doppler,
            mobility: self.mobility,
            roaming,
        })
    }
}

impl SpatialParams {
    /// Seed of station `s`'s mobility trajectory under run seed `seed`.
    pub fn station_seed(&self, seed: u64, s: usize) -> u64 {
        mix_seed(seed ^ 0x57A7_1054, s as u64)
    }

    /// Position of station `s` at time `t`.
    pub fn station_pos(&self, seed: u64, s: usize, t: f64) -> Point {
        self.mobility
            .position_at(&self.bounds, self.station_seed(seed, s), t)
    }

    /// Mean (path-loss only) SNR of a transmission from `from` heard at
    /// `to`, dB.
    pub fn snr_between(&self, from: Point, to: Point) -> f64 {
        mean_snr_db(self.snr_ref_db, self.path_loss_exp, from.dist(to))
    }

    /// Conservative two-sided inversion of the log-distance model for the
    /// threshold test `snr_between >= threshold_db`: returns `(lo, hi)`
    /// such that every link at distance `<= lo` certainly **passes** the
    /// test and every link at distance `>= hi` certainly **fails** it.
    ///
    /// `snr_between(d) >= T` iff `max(d, 1) <= 10^((snr_ref − T)/(10·n))`
    /// (the path-loss law is strictly monotone beyond the 1 m clamp), so
    /// the exact inversion is the power term when `T <= snr_ref` and
    /// *nothing* when `T > snr_ref` (even the clamped 1 m link is too
    /// quiet — returns `(-1, 0)`: no distance passes, every distance
    /// fails). Both radii carry a relative epsilon many orders of
    /// magnitude above `powf`/`log10`/`sqrt` rounding: the threshold
    /// margin a 1e−9 relative distance pad buys (~1e−8·n dB) dwarfs the
    /// few-ulp error of evaluating the path-loss expression, so the
    /// certain verdicts can never contradict the exact check. Inside the
    /// vanishingly thin `(lo, hi)` band callers must still run the exact
    /// check — which is what keeps the fast path byte-identical to the
    /// full scan (the unregenerated goldens pin it).
    pub fn range_band(&self, threshold_db: f64) -> (f64, f64) {
        if threshold_db > self.snr_ref_db {
            return (-1.0, 0.0);
        }
        let r = 10f64.powf((self.snr_ref_db - threshold_db) / (10.0 * self.path_loss_exp));
        let r = r.max(1.0);
        (r * (1.0 - 1e-9) - 1e-9, r * (1.0 + 1e-9) + 1e-9)
    }

    /// The conservative *outer* radius of [`SpatialParams::range_band`]:
    /// beyond it, a link provably fails the threshold test.
    pub fn range_for_threshold(&self, threshold_db: f64) -> f64 {
        self.range_band(threshold_db).1
    }

    /// The AP with the strongest mean RSSI at `pos` (first index wins
    /// ties) and that RSSI in dB, skipping APs flagged in `down`; `None`
    /// when every AP is down. Only APs whose clamped `max(d², 1)` lies
    /// within a guard factor of the nearest one's run the exact
    /// `snr_between`; the rest provably score lower (DESIGN §7).
    pub fn best_ap(&self, pos: Point, down: Option<&[bool]>) -> Option<(usize, f64)> {
        let d2 = |ap: Point| dist2(pos, ap).max(1.0);
        let live = || {
            self.aps
                .iter()
                .enumerate()
                .filter(|&(a, _)| !down.is_some_and(|d| d[a]))
        };
        let nearest = live().map(|(_, &ap)| d2(ap)).fold(f64::INFINITY, f64::min);
        // Decades of d² that buy an SNR deficit far above rounding: a
        // relative pad for the path-loss term (as in `range_band`) plus
        // 1 µdB·(1 + |snr_ref|) for the reference term.
        let pad = 1e-9 + 1e-6 * (1.0 + self.snr_ref_db.abs()) / (5.0 * self.path_loss_exp);
        let cutoff = nearest * 10f64.powf(pad);
        let mut best = None;
        for (a, &ap) in live().filter(|&(_, &ap)| d2(ap) <= cutoff) {
            let rssi = self.snr_between(pos, ap);
            if best.is_none_or(|(_, b)| rssi > b) {
                best = Some((a, rssi));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SpatialSpec {
        SpatialSpec {
            ap_cols: 3,
            ap_rows: 1,
            ap_spacing_m: 30.0,
            n_stations: 10,
            snr_ref_db: None,
            path_loss_exp: None,
            sense_snr_db: None,
            capture_sir_db: None,
            doppler_hz: None,
            mobility: MobilitySpec::Static,
            roaming: None,
        }
    }

    #[test]
    fn resolve_applies_defaults() {
        let p = spec().resolve().unwrap();
        assert_eq!(p.aps.len(), 3);
        assert_eq!(p.snr_ref_db, 55.0);
        assert_eq!(p.doppler_hz, STATIC_DOPPLER_HZ);
        assert!(p.roaming.is_none());
    }

    #[test]
    fn doppler_derives_from_speed() {
        let mut s = spec();
        s.mobility = MobilitySpec::Linear {
            speed_mps: 15.0,
            heading_deg: 0.0,
        };
        let p = s.resolve().unwrap();
        assert!((p.doppler_hz - 250.0).abs() < 1e-9);
        s.doppler_hz = Some(40.0);
        assert_eq!(s.resolve().unwrap().doppler_hz, 40.0);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut s = spec();
        s.ap_cols = 0;
        assert!(s.resolve().is_err());

        let mut s = spec();
        s.ap_spacing_m = -1.0;
        assert!(s.resolve().is_err());

        let mut s = spec();
        s.n_stations = 0;
        assert!(s.resolve().is_err());

        let mut s = spec();
        s.mobility = MobilitySpec::RandomWaypoint {
            speed_mps: 0.0,
            pause_s: 1.0,
        };
        assert!(s.resolve().is_err());

        let mut s = spec();
        s.roaming = Some(RoamingSpec {
            hysteresis_db: -3.0,
            check_interval_s: None,
            handoff: HandoffPolicy::Preserve,
        });
        assert!(s.resolve().is_err());
    }

    #[test]
    fn validation_rejects_bad_radio_parameters() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut s = spec();
            s.snr_ref_db = Some(v);
            assert!(s.resolve().is_err(), "snr_ref_db {v}");
            let mut s = spec();
            s.sense_snr_db = Some(v);
            assert!(s.resolve().is_err(), "sense_snr_db {v}");
            let mut s = spec();
            s.capture_sir_db = Some(v);
            assert!(s.resolve().is_err(), "capture_sir_db {v}");
        }
        for v in [0.0, -2.7, f64::NAN, f64::INFINITY] {
            let mut s = spec();
            s.path_loss_exp = Some(v);
            assert!(s.resolve().is_err(), "path_loss_exp {v}");
        }
    }

    #[test]
    fn best_ap_is_the_nearest() {
        let p = spec().resolve().unwrap();
        let near_middle = Point { x: 31.0, y: 0.5 };
        assert_eq!(p.best_ap(near_middle, None).unwrap().0, 1);
        let near_last = Point { x: 59.0, y: -1.0 };
        assert_eq!(p.best_ap(near_last, None).unwrap().0, 2);
    }

    #[test]
    fn best_ap_skips_down_aps() {
        let p = spec().resolve().unwrap();
        let near_middle = Point { x: 31.0, y: 0.5 };
        let (a, rssi) = p.best_ap(near_middle, Some(&[false, true, false])).unwrap();
        assert_eq!(a, 2, "AP 2 at 29 m beats AP 0 at 31 m");
        assert_eq!(rssi, p.snr_between(near_middle, p.aps[2]));
        assert!(p.best_ap(near_middle, Some(&[true; 3])).is_none());
    }

    #[test]
    fn range_band_brackets_the_exact_threshold_test() {
        let p = spec().resolve().unwrap();
        for threshold in [-5.0, 0.0, 7.5, 13.0, 30.0, 54.9] {
            let (lo, hi) = p.range_band(threshold);
            assert!(lo < hi);
            // Certainly-inside distances pass the exact check, certainly-
            // outside distances fail it, across a fine sweep.
            let origin = Point { x: 0.0, y: 0.0 };
            for k in 0..2000 {
                let d = 0.5 + k as f64 * 0.1;
                let to = Point { x: d, y: 0.0 };
                let passes = p.snr_between(origin, to) >= threshold;
                if d <= lo {
                    assert!(passes, "d={d} <= lo={lo} must pass at T={threshold}");
                }
                if d >= hi {
                    assert!(!passes, "d={d} >= hi={hi} must fail at T={threshold}");
                }
            }
            assert_eq!(p.range_for_threshold(threshold), hi);
        }
    }

    #[test]
    fn range_band_above_reference_admits_nothing() {
        let p = spec().resolve().unwrap();
        let (lo, hi) = p.range_band(p.snr_ref_db + 1.0);
        assert!(lo < 0.0, "no distance certainly passes");
        assert_eq!(hi, 0.0, "every distance certainly fails");
        // And the exact check agrees even at the 1 m clamp.
        let a = Point { x: 0.0, y: 0.0 };
        assert!(p.snr_between(a, a) < p.snr_ref_db + 1.0);
    }

    #[test]
    fn roaming_defaults() {
        let mut s = spec();
        s.roaming = Some(RoamingSpec {
            hysteresis_db: 3.0,
            check_interval_s: None,
            handoff: HandoffPolicy::Reset,
        });
        let p = s.resolve().unwrap();
        let (h, i, pol) = p.roaming.unwrap();
        assert_eq!(h, 3.0);
        assert_eq!(i, 0.25);
        assert_eq!(pol, HandoffPolicy::Reset);
    }
}
