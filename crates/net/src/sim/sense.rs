//! Carrier sense: the sensing threshold's squared-distance bands and the
//! walk over the sense index they classify.

#[cfg(test)]
use super::medium::Core;
use super::medium::SpatialMedium;
use crate::geometry::Point;
use crate::grid::{dist2, TxEntry};
use crate::physics::audible;
use crate::spatial::SpatialParams;

/// Squared-distance bands for the sensing threshold, so carrier sense
/// classifies a candidate without the path-loss expression almost always.
#[derive(Debug, Clone, Copy)]
pub(super) struct SenseBands {
    /// Certainly-audible / certainly-inaudible radii squared
    /// (`range_band(sense_snr_db)`), against a current position: the
    /// exact expression runs only in the vanishing band between them.
    lo2: f64,
    hi2: f64,
    /// The same bands widened by the drift pad, valid against a
    /// transmitter's *insert-time* position: inside `lo_ins2` it is
    /// audible wherever it drifted to; outside `hi_ins2` it is inaudible
    /// wherever it drifted to. Between them the current position decides
    /// (a band a few centimeters wide — almost never entered).
    lo_ins2: f64,
    hi_ins2: f64,
}

impl SenseBands {
    /// The bands of `params`' sensing threshold for transmitters that
    /// drift at most `drift_pad_m` while on the air, and the sense index's
    /// reach (the padded certainly-inaudible radius).
    pub(super) fn new(params: &SpatialParams, drift_pad_m: f64) -> (Self, f64) {
        let (lo, hi) = params.range_band(params.sense_snr_db);
        // A negative `lo` means "no distance certainly passes"; keep the
        // squared form negative so `d² <= lo²` stays unsatisfiable.
        let lo_squared = |lo: f64| if lo < 0.0 { -1.0 } else { lo * lo };
        let reach = hi + drift_pad_m;
        let bands = SenseBands {
            lo2: lo_squared(lo),
            hi2: hi * hi,
            lo_ins2: lo_squared(lo - drift_pad_m),
            hi_ins2: reach * reach,
        };
        (bands, reach)
    }

    /// Whether the transmission behind `e` is audible at `pos` — the
    /// identical verdict to [`audible`] from the transmitter's current
    /// position. `tx_pos` supplies that position and runs only inside the
    /// insert-position band.
    #[inline]
    fn audible(
        &self,
        params: &SpatialParams,
        e: &TxEntry,
        pos: Point,
        tx_pos: impl FnOnce() -> Point,
    ) -> bool {
        let d2_ins = dist2(e.pos, pos);
        if d2_ins <= self.lo_ins2 {
            return true;
        }
        if d2_ins >= self.hi_ins2 {
            return false;
        }
        let tpos = tx_pos();
        let d2 = dist2(tpos, pos);
        d2 <= self.lo2 || (d2 < self.hi2 && audible(params, tpos, pos))
    }
}

impl SpatialMedium {
    /// Carrier sense over the sensing station's index list: entries run
    /// end-descending, so the first audible one carries the maximal end
    /// and the walk stops there.
    pub(super) fn sense_at(&mut self, sender: usize, pos: Point, now: f64) -> Option<f64> {
        let SpatialMedium {
            sense,
            bands,
            params,
            walkers,
            sense_candidates,
            ..
        } = self;
        let n = params.n_stations;
        let list = sense.list_at(pos);
        let hit = list.iter().position(|e| {
            e.sender != sender
                && bands.audible(params, e, pos, || match e.sender.checked_sub(n) {
                    None => walkers[e.sender].position(&params.mobility, &params.bounds, now),
                    Some(ap) => params.aps[ap],
                })
        });
        *sense_candidates += hit.map_or(list.len(), |i| i + 1) as u64;
        hit.map(|i| list[i].end)
    }

    /// The physics [`SpatialMedium::sense_at`] must reproduce, with none
    /// of its pruning: the latest end over every foreign transmitter
    /// whose current position is [`audible`] at the sender's.
    #[cfg(test)]
    pub(super) fn sense_by_scan(&self, core: &Core, sender: usize, now: f64) -> Option<f64> {
        let p = &self.params;
        let at = |s: usize| match s.checked_sub(p.n_stations) {
            None => p.station_pos(self.cfg.seed, s, now),
            Some(ap) => p.aps[ap],
        };
        let pos = at(sender);
        core.active
            .iter()
            .filter(|tx| tx.sender != sender && audible(p, at(tx.sender), pos))
            .map(|tx| tx.end)
            .reduce(f64::max)
    }
}
