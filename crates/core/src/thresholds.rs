//! Optimal per-rate BER thresholds (paper §3.3).
//!
//! For each rate `R_i`, SoftRate computes `(alpha_i, beta_i)` such that
//! `R_i` is the throughput-optimal rate exactly while the BER at `R_i`
//! lies in `(alpha_i, beta_i)`: below `alpha_i` the next rate up wins,
//! above `beta_i` the next rate down wins. The thresholds are derived from
//! the error-recovery model's goodput curve combined with the cross-rate
//! BER prediction rule — recomputing them is all it takes to retarget a
//! different recovery scheme.

use crate::prediction::{clamp_ber, predict_ber, BER_CEIL, BER_FLOOR};
use crate::recovery::ErrorRecovery;
use softrate_phy::rates::BitRate;

/// Per-rate decision thresholds.
#[derive(Debug, Clone)]
pub struct RateThresholds {
    /// `alpha[i]`: measured BER below which rate `i+1` outperforms rate
    /// `i`. Zero for the top rate (never move up).
    pub alpha: Vec<f64>,
    /// `beta[i]`: measured BER above which rate `i-1` outperforms rate
    /// `i`. [`BER_CEIL`] for the bottom rate (never move below it).
    pub beta: Vec<f64>,
}

impl RateThresholds {
    /// Computes thresholds for `rates` (in increasing-throughput order)
    /// with frames of `frame_bits` under `recovery`.
    pub fn compute(rates: &[BitRate], frame_bits: usize, recovery: &dyn ErrorRecovery) -> Self {
        assert!(rates.len() >= 2, "need at least two rates to adapt");
        let n = rates.len();
        let mut alpha = vec![0.0; n];
        let mut beta = vec![BER_CEIL; n];

        // Below this goodput (bit/s) a rate is considered dead; ties between
        // dead rates resolve toward the more robust choice so the bisection
        // keeps a single sign change even where (1-b)^L underflows to 0.
        const DEAD: f64 = 1.0;

        for i in 0..n {
            if i + 1 < n {
                // alpha_i: crossing of goodput_i(b) and
                // goodput_{i+1}(predict(b, i, i+1)). Up is better below it.
                alpha[i] = bisect_crossing(|b| {
                    let up = recovery.goodput(rates[i + 1], frame_bits, predict_ber(b, i, i + 1));
                    let here = recovery.goodput(rates[i], frame_bits, b);
                    if up < DEAD && here < DEAD {
                        return 1.0; // both dead: moving up is certainly not better
                    }
                    here - up // negative while moving up is better
                });
            }
            if i > 0 {
                // beta_i: crossing of goodput_i(b) and
                // goodput_{i-1}(predict(b, i, i-1)). Down is better above it.
                beta[i] = bisect_crossing(|b| {
                    let down = recovery.goodput(rates[i - 1], frame_bits, predict_ber(b, i, i - 1));
                    let here = recovery.goodput(rates[i], frame_bits, b);
                    if down < DEAD && here < DEAD {
                        return 1.0; // both dead: prefer the more robust rate
                    }
                    down - here // positive once moving down is better
                });
            }
        }
        RateThresholds { alpha, beta }
    }

    /// Number of rates covered.
    pub fn len(&self) -> usize {
        self.alpha.len()
    }

    /// True if empty (never — kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.alpha.is_empty()
    }
}

/// Finds the BER where `f` changes sign (negative -> positive), assuming
/// `f` is monotonically increasing in BER. Returns [`BER_FLOOR`] /
/// [`BER_CEIL`] when `f` never / always is positive.
fn bisect_crossing(f: impl Fn(f64) -> f64) -> f64 {
    let mut lo = BER_FLOOR.log10();
    let mut hi = BER_CEIL.log10();
    if f(10f64.powf(lo)) >= 0.0 {
        return BER_FLOOR;
    }
    if f(10f64.powf(hi)) <= 0.0 {
        return BER_CEIL;
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if f(10f64.powf(mid)) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    clamp_ber(10f64.powf(0.5 * (lo + hi)))
}

/// Picks the best rate within `max_jump` of `current`, given the measured
/// interference-free BER at `current` (paper §3.3 "bit rate selection",
/// generalized to n-level jumps by maximizing predicted goodput).
pub fn select_rate(
    current: usize,
    measured_ber: f64,
    rates: &[BitRate],
    frame_bits: usize,
    recovery: &dyn ErrorRecovery,
    max_jump: usize,
) -> usize {
    let lo = current.saturating_sub(max_jump);
    let hi = (current + max_jump).min(rates.len() - 1);
    let mut best = current;
    let mut best_g = f64::NEG_INFINITY;
    #[allow(clippy::needless_range_loop)] // `j` is a rate index, not just a subscript
    for j in lo..=hi {
        let predicted = predict_ber(measured_ber, current, j);
        let g = recovery.goodput(rates[j], frame_bits, predicted);
        // Strict improvement required to move; ties favour the lower
        // (more robust) rate because we iterate upward.
        if g > best_g * (1.0 + 1e-12) {
            best_g = g;
            best = j;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{ChunkedHarq, FrameArq};
    use softrate_phy::rates::PAPER_RATES;

    const FRAME_BITS: usize = 10_000;

    #[test]
    fn thresholds_have_paper_magnitudes() {
        // Paper §3.3 example for 18 Mbps with frame ARQ and 10^4-bit
        // frames: optimal window roughly (1e-7, 1e-5).
        let t = RateThresholds::compute(PAPER_RATES, FRAME_BITS, &FrameArq);
        let i = 3; // QPSK 3/4 = 18 Mbps
        assert!(
            t.beta[i] > 1e-6 && t.beta[i] < 1e-4,
            "beta[18 Mbps] = {:.2e}, expected order 1e-5",
            t.beta[i]
        );
        assert!(
            t.alpha[i] > 1e-8 && t.alpha[i] < 1e-5,
            "alpha[18 Mbps] = {:.2e}, expected order 1e-7..1e-6",
            t.alpha[i]
        );
        assert!(t.alpha[i] < t.beta[i]);
    }

    #[test]
    fn boundary_rates_never_leave_table() {
        let t = RateThresholds::compute(PAPER_RATES, FRAME_BITS, &FrameArq);
        assert_eq!(
            t.alpha[PAPER_RATES.len() - 1],
            0.0,
            "top rate never moves up"
        );
        assert_eq!(t.beta[0], BER_CEIL, "bottom rate never moves down");
    }

    #[test]
    fn alpha_below_beta_everywhere() {
        for rec in [&FrameArq as &dyn ErrorRecovery, &ChunkedHarq::default()] {
            let t = RateThresholds::compute(PAPER_RATES, FRAME_BITS, rec);
            for i in 0..t.len() {
                assert!(
                    t.alpha[i] < t.beta[i],
                    "{}: alpha[{i}]={:.2e} >= beta[{i}]={:.2e}",
                    rec.name(),
                    t.alpha[i],
                    t.beta[i]
                );
            }
        }
    }

    #[test]
    fn harq_thresholds_are_orders_higher() {
        // The paper's modularity claim: a recovery scheme tolerant to bit
        // errors shifts the whole threshold structure up by orders of
        // magnitude (1e-5 -> 1e-3 in their example).
        let arq = RateThresholds::compute(PAPER_RATES, FRAME_BITS, &FrameArq);
        let harq = RateThresholds::compute(PAPER_RATES, FRAME_BITS, &ChunkedHarq::default());
        for i in 1..PAPER_RATES.len() {
            assert!(
                harq.beta[i] > 10.0 * arq.beta[i],
                "rate {i}: harq beta {:.2e} vs arq beta {:.2e}",
                harq.beta[i],
                arq.beta[i]
            );
        }
    }

    #[test]
    fn select_rate_stays_when_in_window() {
        // A BER inside (alpha, beta) must keep the current rate.
        let t = RateThresholds::compute(PAPER_RATES, FRAME_BITS, &FrameArq);
        let i = 3;
        let mid = (t.alpha[i].max(BER_FLOOR) * t.beta[i]).sqrt();
        let sel = select_rate(i, mid, PAPER_RATES, FRAME_BITS, &FrameArq, 2);
        assert_eq!(
            sel, i,
            "BER {mid:.2e} inside ({:.2e},{:.2e})",
            t.alpha[i], t.beta[i]
        );
    }

    #[test]
    fn single_step_decisions_match_the_threshold_table() {
        // The (alpha, beta) table is what `select_rate` computes on the
        // fly: with one-level jumps it moves up below alpha, down above
        // beta, and holds between them.
        for rec in [&FrameArq as &dyn ErrorRecovery, &ChunkedHarq::default()] {
            let t = RateThresholds::compute(PAPER_RATES, FRAME_BITS, rec);
            let select = |i, ber| select_rate(i, ber, PAPER_RATES, FRAME_BITS, rec, 1);
            let name = rec.name();
            for i in 0..t.len() {
                let (a, b) = (t.alpha[i], t.beta[i]);
                if i + 1 < t.len() {
                    assert_eq!(select(i, a / 2.0), i + 1, "{name} rate {i}: alpha/2");
                }
                if i > 0 {
                    assert_eq!(select(i, 2.0 * b), i - 1, "{name} rate {i}: 2*beta");
                }
                let mid = (a.max(BER_FLOOR) * b).sqrt();
                assert_eq!(select(i, mid), i, "{name} rate {i}: sqrt(alpha*beta)");
            }
        }
    }

    #[test]
    fn select_rate_moves_up_on_tiny_ber() {
        let sel = select_rate(2, 1e-9, PAPER_RATES, FRAME_BITS, &FrameArq, 2);
        assert!(sel > 2, "clean channel must move up, got {sel}");
    }

    #[test]
    fn select_rate_moves_down_on_high_ber() {
        let sel = select_rate(3, 1e-2, PAPER_RATES, FRAME_BITS, &FrameArq, 2);
        assert!(sel < 3, "BER 1e-2 must move down, got {sel}");
    }

    #[test]
    fn select_rate_two_level_jump_on_terrible_ber() {
        // Paper: "if the BER at 18 Mbps is above 1e-2, then one can jump
        // two rates lower".
        let sel = select_rate(3, 0.1, PAPER_RATES, FRAME_BITS, &FrameArq, 2);
        assert_eq!(sel, 1, "catastrophic BER must use the full jump window");
    }

    #[test]
    fn select_rate_respects_max_jump() {
        let sel = select_rate(5, 0.5, PAPER_RATES, FRAME_BITS, &FrameArq, 1);
        assert_eq!(sel, 4, "max_jump=1 limits descent");
        let sel2 = select_rate(0, 1e-9, PAPER_RATES, FRAME_BITS, &FrameArq, 1);
        assert_eq!(sel2, 1, "max_jump=1 limits ascent");
    }

    #[test]
    fn select_rate_clamps_at_table_edges() {
        assert_eq!(
            select_rate(0, 0.5, PAPER_RATES, FRAME_BITS, &FrameArq, 2),
            0
        );
        assert_eq!(
            select_rate(5, 1e-9, PAPER_RATES, FRAME_BITS, &FrameArq, 2),
            5,
            "top rate with clean channel stays"
        );
    }
}
