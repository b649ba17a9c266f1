//! SampleRate (Bicket 2005), the frame-level protocol shipped in the Linux
//! Atheros driver (paper §2.1).
//!
//! SampleRate picks the bit rate minimizing the windowed average
//! transmission time per *successfully delivered* packet (air time spent at
//! a rate divided by deliveries at that rate), and devotes every tenth
//! frame to sampling a randomly chosen other rate that could plausibly do
//! better. The paper uses a one-second averaging window instead of Bicket's
//! ten-second default because it performed better in their setting (§6.1);
//! we do the same and expose the window as a parameter.
//!
//! The window is kept **per rate**: each rate's records sit in time order
//! beside their delivered count and the left fold of their air times, so
//! an average costs one division instead of a scan of the whole history.
//! A push extends the fold with `+=`; a front pop drops it, and it is
//! refolded in order, from `0.0`, the next time it is needed. Every
//! average therefore adds the same values in the same order as a scan of
//! one global history would, and is bit-equal to it. Pruning pops each
//! window's expired prefix, which is exactly the records a global front
//! pop drops because outcome times never decrease.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softrate_core::adapter::{
    DecisionCtx, DecisionTrigger, RateAdapter, RateDecision, RateIdx, TxAttempt, TxOutcome,
};
use std::collections::VecDeque;

/// How often a sampling frame is inserted (every Nth frame).
const SAMPLE_EVERY: u64 = 10;

/// Consecutive failures at a sampled rate before it is temporarily
/// blacklisted from sampling.
const SAMPLE_FAIL_LIMIT: u32 = 4;

/// One remembered transmission.
#[derive(Debug, Clone, Copy)]
struct Record {
    t: f64,
    airtime: f64,
    delivered: bool,
}

/// The windowed transmission history the averages are taken over.
trait History: Send {
    /// An empty history over `n` rates.
    fn with_rates(n: usize) -> Self;
    /// Remembers one transmission at `rate`.
    fn push(&mut self, rate: RateIdx, r: Record);
    /// Forgets every record more than `window` seconds before `now`.
    fn prune(&mut self, now: f64, window: f64);
    /// Windowed average air time per delivered packet at `rate`, or
    /// `None` if the window holds no delivery at that rate.
    fn avg_tx_time(&mut self, rate: RateIdx) -> Option<f64>;
}

/// One rate's records within the window.
#[derive(Clone, Default)]
struct RateWindow {
    /// Oldest first.
    records: VecDeque<Record>,
    delivered: u32,
    /// `records`' air times folded left from `0.0`, or `None` once a front
    /// pop has made it stale.
    airtime: Option<f64>,
}

/// The window kept per rate (see the module docs).
struct RateWindows(Vec<RateWindow>);

impl History for RateWindows {
    fn with_rates(n: usize) -> Self {
        let empty = RateWindow {
            airtime: Some(0.0),
            ..RateWindow::default()
        };
        RateWindows(vec![empty; n])
    }

    fn push(&mut self, rate: RateIdx, r: Record) {
        debug_assert!(
            self.0
                .iter()
                .all(|w| w.records.back().is_none_or(|b| b.t <= r.t)),
            "outcome times must not decrease"
        );
        let w = &mut self.0[rate];
        if let Some(sum) = &mut w.airtime {
            *sum += r.airtime;
        }
        w.delivered += u32::from(r.delivered);
        w.records.push_back(r);
    }

    fn prune(&mut self, now: f64, window: f64) {
        for w in &mut self.0 {
            while let Some(front) = w.records.front() {
                if now - front.t > window {
                    w.delivered -= u32::from(front.delivered);
                    w.airtime = None;
                    w.records.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    fn avg_tx_time(&mut self, rate: RateIdx) -> Option<f64> {
        let w = &mut self.0[rate];
        if w.delivered == 0 {
            return None;
        }
        let airtime = *w
            .airtime
            .get_or_insert_with(|| w.records.iter().fold(0.0, |sum, r| sum + r.airtime));
        Some(airtime / w.delivered as f64)
    }
}

/// The SampleRate adapter.
pub struct SampleRate(Sampler<RateWindows>);

impl SampleRate {
    /// Creates a SampleRate instance.
    ///
    /// `lossless_airtime[i]` is the air time of one loss-free data frame at
    /// rate `i` including fixed MAC overhead; the simulator computes it
    /// from its own timing model so adapter and simulator agree.
    pub fn new(lossless_airtime: Vec<f64>, window_secs: f64, seed: u64) -> Self {
        SampleRate(Sampler::new(lossless_airtime, window_secs, seed))
    }
}

impl RateAdapter for SampleRate {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn next_attempt_ctx(&mut self, now: f64, ctx: &mut DecisionCtx) -> TxAttempt {
        self.0.next_attempt_ctx(now, ctx)
    }

    fn on_outcome_ctx(&mut self, outcome: &TxOutcome, ctx: &mut DecisionCtx) {
        self.0.on_outcome_ctx(outcome, ctx)
    }

    fn num_rates(&self) -> usize {
        self.0.num_rates()
    }
}

/// SampleRate's logic over any history; the adapter uses [`RateWindows`].
struct Sampler<H> {
    /// Averaging window in seconds (1.0 per the paper's tuning; Bicket's
    /// default was 10.0).
    window: f64,
    /// Loss-free air time per frame at each rate (frame + ACK + contention
    /// overhead), used to judge whether a rate "could do better".
    lossless_airtime: Vec<f64>,
    history: H,
    consecutive_failures: Vec<u32>,
    frames_sent: u64,
    current: RateIdx,
    /// Whether the most recent outcome was a delivery — classifies a
    /// best-rate change in the ledger (ack vs loss); ledger-only state,
    /// never read by the rate logic.
    last_acked: Option<bool>,
    rng: SmallRng,
}

impl<H: History> Sampler<H> {
    fn new(lossless_airtime: Vec<f64>, window_secs: f64, seed: u64) -> Self {
        assert!(!lossless_airtime.is_empty());
        assert!(window_secs > 0.0);
        let n = lossless_airtime.len();
        Sampler {
            window: window_secs,
            lossless_airtime,
            history: H::with_rates(n),
            consecutive_failures: vec![0; n],
            frames_sent: 0,
            // Bicket starts at the highest rate and backs off as failures
            // accumulate.
            current: n - 1,
            last_acked: None,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The non-sampling choice: the rate with the lowest average tx time.
    /// When nothing in the window has been delivered at any rate, Bicket's
    /// fallback applies: the fastest rate that hasn't failed repeatedly,
    /// or the most robust rate once everything is blacklisted.
    fn best_rate(&mut self) -> RateIdx {
        let mut best = None;
        for i in 0..self.lossless_airtime.len() {
            if let Some(avg) = self.history.avg_tx_time(i) {
                match best {
                    None => best = Some((i, avg)),
                    Some((_, b)) if avg < b => best = Some((i, avg)),
                    _ => {}
                }
            }
        }
        if let Some((i, _)) = best {
            return i;
        }
        (0..self.lossless_airtime.len())
            .rev() // fastest first (airtime is decreasing in rate index)
            .find(|&i| self.consecutive_failures[i] < SAMPLE_FAIL_LIMIT)
            .unwrap_or(0)
    }

    /// A sampling candidate: a random rate other than the current one whose
    /// loss-free tx time beats the current average (i.e. could win) and
    /// that hasn't recently failed repeatedly.
    fn sample_rate_candidate(&mut self, current_best: RateIdx) -> Option<RateIdx> {
        let n = self.lossless_airtime.len();
        // A rate with no delivery in the window has infinite average tx
        // time, so every non-blacklisted alternative is worth sampling.
        let current_avg = self
            .history
            .avg_tx_time(current_best)
            .unwrap_or(f64::INFINITY);
        let candidates: Vec<RateIdx> = (0..n)
            .filter(|&i| {
                i != current_best
                    && self.lossless_airtime[i] < current_avg
                    && self.consecutive_failures[i] < SAMPLE_FAIL_LIMIT
            })
            .collect();
        if candidates.is_empty() {
            None
        } else {
            Some(candidates[self.rng.gen_range(0..candidates.len())])
        }
    }
}

impl<H: History> RateAdapter for Sampler<H> {
    fn name(&self) -> &'static str {
        "SampleRate"
    }

    fn next_attempt_ctx(&mut self, now: f64, ctx: &mut DecisionCtx) -> TxAttempt {
        self.history.prune(now, self.window);
        let best = self.best_rate();
        self.frames_sent += 1;
        let sampling = self.frames_sent.is_multiple_of(SAMPLE_EVERY);
        let rate_idx = if sampling {
            self.sample_rate_candidate(best).unwrap_or(best)
        } else {
            best
        };
        if rate_idx != self.current {
            let (trigger, reason) = if sampling && rate_idx != best {
                (DecisionTrigger::Probe, "sampling")
            } else {
                (
                    match self.last_acked {
                        Some(true) | None => DecisionTrigger::Ack,
                        Some(false) => DecisionTrigger::Loss,
                    },
                    "airtime-table-winner",
                )
            };
            ctx.record(RateDecision {
                old_rate: self.current,
                new_rate: rate_idx,
                trigger,
                snr_db: None,
                ber: None,
                reason,
            });
        }
        self.current = rate_idx;
        TxAttempt {
            rate_idx,
            use_rts: false,
        }
    }

    fn on_outcome_ctx(&mut self, outcome: &TxOutcome, _ctx: &mut DecisionCtx) {
        self.history.push(
            outcome.rate_idx,
            Record {
                t: outcome.now,
                airtime: outcome.airtime,
                delivered: outcome.acked,
            },
        );
        if outcome.acked {
            self.consecutive_failures[outcome.rate_idx] = 0;
        } else {
            self.consecutive_failures[outcome.rate_idx] += 1;
        }
        self.last_acked = Some(outcome.acked);
        self.history.prune(outcome.now, self.window);
    }

    fn num_rates(&self) -> usize {
        self.lossless_airtime.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The history the per-rate windows replace: one time-ordered deque
    /// of every rate's records, scanned in full for each average.
    struct ScanHistory(VecDeque<(RateIdx, Record)>);

    impl History for ScanHistory {
        fn with_rates(_: usize) -> Self {
            ScanHistory(VecDeque::new())
        }

        fn push(&mut self, rate: RateIdx, r: Record) {
            self.0.push_back((rate, r));
        }

        fn prune(&mut self, now: f64, window: f64) {
            while let Some((_, front)) = self.0.front() {
                if now - front.t > window {
                    self.0.pop_front();
                } else {
                    break;
                }
            }
        }

        fn avg_tx_time(&mut self, rate: RateIdx) -> Option<f64> {
            let mut airtime = 0.0;
            let mut delivered = 0u32;
            for (i, r) in &self.0 {
                if *i == rate {
                    airtime += r.airtime;
                    if r.delivered {
                        delivered += 1;
                    }
                }
            }
            (delivered > 0).then(|| airtime / delivered as f64)
        }
    }

    fn airtimes() -> Vec<f64> {
        // 6 rates; faster rate = shorter loss-free airtime.
        vec![2.0e-3, 1.4e-3, 1.05e-3, 0.75e-3, 0.6e-3, 0.45e-3]
    }

    fn outcome(rate_idx: usize, acked: bool, now: f64, airtime: f64) -> TxOutcome {
        TxOutcome {
            rate_idx,
            acked,
            feedback_received: acked,
            ber_feedback: None,
            interference_flagged: false,
            postamble_ack: false,
            snr_feedback_db: None,
            airtime,
            now,
        }
    }

    #[test]
    fn starts_at_highest_rate() {
        let mut sr = SampleRate::new(airtimes(), 1.0, 1);
        assert_eq!(sr.next_attempt(0.0).rate_idx, 5);
    }

    #[test]
    fn settles_on_delivering_rate() {
        let mut sr = SampleRate::new(airtimes(), 1.0, 2);
        let mut now = 0.0;
        // Rate 5 always fails; rate 3 always succeeds; others fail.
        for _ in 0..200 {
            let a = sr.next_attempt(now);
            let ok = a.rate_idx == 3;
            let at = airtimes()[a.rate_idx] * if ok { 1.0 } else { 4.0 };
            sr.on_outcome(&outcome(a.rate_idx, ok, now, at));
            now += 1e-3;
        }
        // After exploration, the steady choice must be rate 3.
        let picks: Vec<usize> = (0..20)
            .map(|k| {
                let a = sr.next_attempt(now + k as f64 * 1e-3);
                sr.on_outcome(&outcome(
                    a.rate_idx,
                    a.rate_idx == 3,
                    now + k as f64 * 1e-3,
                    1e-3,
                ));
                a.rate_idx
            })
            .collect();
        let three = picks.iter().filter(|&&p| p == 3).count();
        assert!(three >= 15, "picks {picks:?}");
    }

    #[test]
    fn samples_other_rates_occasionally() {
        let mut sr = SampleRate::new(airtimes(), 1.0, 3);
        let mut now = 0.0;
        let mut seen = std::collections::HashSet::new();
        // Rate 2 delivers; anything faster fails. Sampling should still
        // probe faster rates now and then.
        for _ in 0..300 {
            let a = sr.next_attempt(now);
            seen.insert(a.rate_idx);
            let ok = a.rate_idx <= 2;
            sr.on_outcome(&outcome(a.rate_idx, ok, now, airtimes()[a.rate_idx]));
            now += 1e-3;
        }
        assert!(seen.len() >= 2, "never sampled alternatives: {seen:?}");
    }

    #[test]
    fn blacklists_repeatedly_failing_sample() {
        let mut sr = SampleRate::new(airtimes(), 1.0, 4);
        // Fail rate 5 four times.
        for k in 0..4 {
            sr.on_outcome(&outcome(5, false, k as f64 * 1e-3, 2e-3));
        }
        assert_eq!(sr.0.consecutive_failures[5], 4);
        // It must no longer be offered as a sampling candidate.
        assert!(sr.0.sample_rate_candidate(3) != Some(5));
        // A success clears the blacklist.
        sr.on_outcome(&outcome(5, true, 0.01, 0.45e-3));
        assert_eq!(sr.0.consecutive_failures[5], 0);
    }

    #[test]
    fn old_history_expires() {
        let mut sr = SampleRate::new(airtimes(), 1.0, 5);
        sr.on_outcome(&outcome(1, true, 0.0, 1.4e-3));
        assert!(sr.0.history.avg_tx_time(1).is_some());
        sr.0.history.prune(2.0, 1.0); // 2 s later, outside the 1 s window
        assert!(sr.0.history.avg_tx_time(1).is_none());
    }

    #[test]
    fn avg_tx_time_counts_losses_airtime() {
        let mut sr = SampleRate::new(airtimes(), 10.0, 6);
        // Two attempts: one loss (1 ms), one delivery (1 ms): average per
        // *delivered* packet = 2 ms.
        sr.on_outcome(&outcome(2, false, 0.0, 1e-3));
        sr.on_outcome(&outcome(2, true, 0.001, 1e-3));
        let avg = sr.0.history.avg_tx_time(2).unwrap();
        assert!((avg - 2e-3).abs() < 1e-12);
    }

    /// The per-rate windows are bit-equal to the global scan: a seeded
    /// stream of 20k outcomes over 8 rates, with retries at the same
    /// instant, loss rates that differ per rate, air times that do not
    /// add exactly, and idle gaps longer than the window, drives the
    /// adapter and a scan-history twin in lockstep. Every attempt, every
    /// recorded decision and every rate's average must agree to the bit.
    #[test]
    fn per_rate_windows_match_the_global_scan() {
        let lossless: Vec<f64> = (0..8).map(|i| 2.2e-3 / (1.0 + i as f64 * 0.7)).collect();
        let mut fast = SampleRate::new(lossless.clone(), 1.0, 11);
        let mut scan: Sampler<ScanHistory> = Sampler::new(lossless.clone(), 1.0, 11);
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let (mut now, mut outcomes, mut gaps) = (0.0f64, 0, 0);
        let (mut used, mut decisions) = (0u32, 0);
        while outcomes < 20_000 {
            let r = rng();
            now += match r % 500 {
                0 => {
                    gaps += 1;
                    1.0 + (r >> 40) as f64 * 4e-8 // past the window
                }
                _ => (r >> 40) as f64 * 4e-10, // up to ~6.7 ms
            };
            // One frame: up to four attempts at `now`, retried on loss.
            for _ in 0..4 {
                let (mut ca, mut cb) = (DecisionCtx::enabled(), DecisionCtx::enabled());
                let a = fast.next_attempt_ctx(now, &mut ca);
                assert_eq!(a, scan.next_attempt_ctx(now, &mut cb), "attempt {outcomes}");
                assert_eq!(
                    ca.decisions, cb.decisions,
                    "decisions at attempt {outcomes}"
                );
                used |= 1 << a.rate_idx;
                decisions += ca.decisions.len();
                let r = rng();
                // Faster rates lose more often.
                let acked = r % 8 >= a.rate_idx as u64;
                let airtime = lossless[a.rate_idx] * (1.0 + (r >> 32) as f64 * 1e-10);
                let o = TxOutcome {
                    rate_idx: a.rate_idx,
                    acked,
                    feedback_received: acked,
                    ber_feedback: None,
                    interference_flagged: false,
                    postamble_ack: false,
                    snr_feedback_db: None,
                    airtime,
                    now,
                };
                fast.on_outcome(&o);
                scan.on_outcome(&o);
                outcomes += 1;
                for rate in 0..8 {
                    assert_eq!(
                        fast.0.history.avg_tx_time(rate).map(f64::to_bits),
                        scan.history.avg_tx_time(rate).map(f64::to_bits),
                        "rate {rate} after outcome {outcomes}"
                    );
                }
                if acked {
                    break;
                }
            }
        }
        assert!(gaps >= 10, "only {gaps} idle gaps");
        assert_eq!(used, 0xFF, "every rate is attempted");
        assert!(decisions >= 1000, "only {decisions} recorded decisions");
    }
}
