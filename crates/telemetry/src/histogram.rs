//! Deterministic log-bucketed (HDR-style) histograms.
//!
//! Latency-shaped metrics (MAC access delay, frame airtime, TCP RTT) span
//! four-plus orders of magnitude, so linear buckets are useless and exact
//! reservoirs are nondeterministic. This histogram buckets the *ratio*
//! `value / base` by its floating-point exponent plus the top two mantissa
//! bits — four geometric sub-buckets per octave, ≤ ~9 % relative width —
//! which is pure bit arithmetic: no logarithms, no rounding-mode
//! surprises, bit-identical on every platform. Values below `base` land
//! in a dedicated underflow bucket.

use crate::rows::HistRow;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Sub-buckets per octave (top two mantissa bits).
const SUBS: u64 = 4;

/// A log-bucketed histogram over non-negative values.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    base: f64,
    underflow: u64,
    count: u64,
    buckets: BTreeMap<u64, u64>,
}

impl LogHistogram {
    /// An empty histogram whose finest resolution is `base` (values below
    /// it are counted but not resolved).
    pub fn new(base: f64) -> Self {
        assert!(base > 0.0 && base.is_finite(), "base must be positive");
        LogHistogram {
            base,
            underflow: 0,
            count: 0,
            buckets: BTreeMap::new(),
        }
    }

    /// The bucketing base.
    pub fn base(&self) -> f64 {
        self.base
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Values recorded below the base.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Records one value. Non-finite or sub-base values land in the
    /// underflow bucket.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        if !v.is_finite() || v < self.base {
            self.underflow += 1;
        } else {
            *self.buckets.entry(Self::index(v / self.base)).or_insert(0) += 1;
        }
    }

    /// Bucket index of `ratio >= 1`: exponent octave × 4 plus the top two
    /// mantissa bits.
    fn index(ratio: f64) -> u64 {
        let bits = ratio.to_bits();
        let exp = ((bits >> 52) & 0x7ff) - 1023;
        exp * SUBS + ((bits >> 50) & 0b11)
    }

    /// `[low, high)` value bounds of bucket `idx`, in recorded units.
    pub fn bounds(&self, idx: u64) -> (f64, f64) {
        let octave = (idx / SUBS) as i32;
        let sub = (idx % SUBS) as f64;
        let lo = self.base * 2f64.powi(octave) * (1.0 + sub / SUBS as f64);
        let hi = if idx % SUBS == SUBS - 1 {
            self.base * 2f64.powi(octave + 1)
        } else {
            self.base * 2f64.powi(octave) * (1.0 + (sub + 1.0) / SUBS as f64)
        };
        (lo, hi)
    }

    /// The `q`-quantile (`0 < q <= 1`) as the geometric midpoint of the
    /// bucket holding the rank-`ceil(q·count)` value; `0.0` when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = self.underflow;
        if rank <= cum {
            return self.base / 2.0;
        }
        for (&idx, &c) in &self.buckets {
            cum += c;
            if rank <= cum {
                let (lo, hi) = self.bounds(idx);
                return (lo * hi).sqrt();
            }
        }
        0.0
    }

    /// Serializes into a [`HistRow`] named `metric` in `unit`.
    pub fn to_row(&self, metric: &'static str, unit: &'static str, run_idx: u64) -> HistRow {
        HistRow {
            kind: Cow::Borrowed("hist"),
            run_idx,
            metric: Cow::Borrowed(metric),
            unit: Cow::Borrowed(unit),
            base: self.base,
            count: self.count,
            underflow: self.underflow,
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
            buckets: self.buckets.iter().map(|(&i, &c)| (i, c)).collect(),
        }
    }

    /// Reconstructs a histogram from a serialized [`HistRow`] (percentile
    /// recomputation in `softrate-inspect`).
    pub fn from_row(row: &HistRow) -> Self {
        LogHistogram {
            base: row.base,
            underflow: row.underflow,
            count: row.count,
            buckets: row.buckets.iter().map(|&(i, c)| (i, c)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_geometric_and_exhaustive() {
        let h = LogHistogram::new(1e-6);
        // 1.0x..1.25x of base is bucket 0.
        assert_eq!(LogHistogram::index(1.0), 0);
        assert_eq!(LogHistogram::index(1.24), 0);
        assert_eq!(LogHistogram::index(1.25), 1);
        assert_eq!(LogHistogram::index(1.99), 3);
        assert_eq!(LogHistogram::index(2.0), 4);
        // Bounds tile the positive axis with no gaps.
        for idx in 0..64 {
            let (lo, hi) = h.bounds(idx);
            assert!(lo < hi);
            let (next_lo, _) = h.bounds(idx + 1);
            assert!((hi - next_lo).abs() < 1e-18 * 2f64.powi((idx / 4) as i32));
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = LogHistogram::new(1e-6);
        for v in [1.3e-6, 4.7e-5, 9.1e-4, 2.2e-2, 0.67] {
            h.record(v);
        }
        // Each recorded value's bucket midpoint is within ~12.5 % of it.
        for v in [1.3e-6, 4.7e-5, 9.1e-4, 2.2e-2, 0.67] {
            let idx = LogHistogram::index(v / 1e-6);
            let (lo, hi) = h.bounds(idx);
            assert!(lo <= v && v < hi, "{v} not in [{lo},{hi})");
            assert!(hi / lo <= 1.25 + 1e-12);
        }
    }

    #[test]
    fn percentiles_walk_the_distribution() {
        let mut h = LogHistogram::new(1.0);
        for i in 1..=100 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.percentile(0.50);
        let p95 = h.percentile(0.95);
        let p99 = h.percentile(0.99);
        assert!(p50 > 40.0 && p50 < 64.0, "p50 = {p50}");
        assert!(p95 >= p50 && p95 <= p99, "p95 = {p95} must sit between");
        assert!(p99 > 90.0 && p99 <= 128.0, "p99 = {p99}");
        assert!(h.percentile(1.0) >= p99);
    }

    #[test]
    fn underflow_and_row_roundtrip() {
        let mut h = LogHistogram::new(1e-3);
        h.record(1e-5); // underflow
        h.record(2e-3);
        h.record(f64::NAN); // counted as underflow, never panics
        let row = h.to_row("m", "s", 7);
        assert_eq!(row.count, 3);
        assert_eq!(row.underflow, 2);
        assert_eq!(LogHistogram::from_row(&row), h);
    }
}
