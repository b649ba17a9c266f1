//! The SoftRate sender algorithm (paper §3.3).
//!
//! The sender keeps the most recent interference-free BER feedback and,
//! before each transmission, moves toward the rate maximizing predicted
//! goodput (jumping up to two levels at a time). Collisions — flagged by
//! the receiver's detector or revealed by a postamble-only ACK — do *not*
//! reduce the rate. Three consecutive *silent* losses (no feedback at all)
//! indicate the receiver cannot even detect the frames, so the sender
//! steps the rate down (paper §3.2, justified by Figure 4: interference
//! alone almost never silences three frames in a row).

use std::sync::Arc;

use crate::adapter::{
    DecisionCtx, DecisionTrigger, RateAdapter, RateDecision, RateIdx, TxAttempt, TxOutcome,
};
use crate::recovery::{ErrorRecovery, FrameArq};
use crate::thresholds::select_rate;
use softrate_phy::rates::{BitRate, PAPER_RATES};

/// Configuration of a SoftRate sender.
#[derive(Clone)]
pub struct SoftRateConfig {
    /// Ordered rate table (increasing throughput).
    pub rates: Vec<BitRate>,
    /// Nominal frame size in bits used for the goodput model.
    pub frame_bits: usize,
    /// Error-recovery model thresholds are derived from.
    pub recovery: Arc<dyn ErrorRecovery + Send + Sync>,
    /// Maximum rate-index jump per decision (the paper's implementation
    /// does up to two).
    pub max_jump: usize,
    /// Consecutive silent losses treated as weak signal (paper: three).
    pub silent_loss_limit: u32,
    /// Starting rate index.
    pub initial_rate: RateIdx,
}

impl std::fmt::Debug for SoftRateConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SoftRateConfig")
            .field("rates", &self.rates.len())
            .field("frame_bits", &self.frame_bits)
            .field("recovery", &self.recovery.name())
            .field("max_jump", &self.max_jump)
            .field("silent_loss_limit", &self.silent_loss_limit)
            .field("initial_rate", &self.initial_rate)
            .finish()
    }
}

impl Default for SoftRateConfig {
    fn default() -> Self {
        SoftRateConfig {
            rates: PAPER_RATES.to_vec(),
            frame_bits: 1400 * 8,
            recovery: Arc::new(FrameArq),
            max_jump: 2,
            silent_loss_limit: 3,
            initial_rate: 0,
        }
    }
}

/// The SoftRate rate-adaptation state machine. Decisions compare predicted
/// goodput through [`select_rate`]; the equivalent (α_i, β_i) table is
/// built on demand by `RateThresholds::compute`, never per sender.
pub struct SoftRate {
    cfg: SoftRateConfig,
    current: RateIdx,
    silent_losses: u32,
    /// Most recent interference-free BER feedback, if any.
    last_ber: Option<f64>,
}

impl SoftRate {
    /// Creates a sender with the given configuration.
    pub fn new(cfg: SoftRateConfig) -> Self {
        assert!(cfg.initial_rate < cfg.rates.len());
        SoftRate {
            current: cfg.initial_rate,
            silent_losses: 0,
            last_ber: None,
            cfg,
        }
    }

    /// Creates a sender with the paper's defaults.
    pub fn with_defaults() -> Self {
        SoftRate::new(SoftRateConfig::default())
    }

    /// Current rate index.
    pub fn current_rate_idx(&self) -> RateIdx {
        self.current
    }

    /// Current rate.
    pub fn current_rate(&self) -> BitRate {
        self.cfg.rates[self.current]
    }

    /// Most recent BER feedback digested.
    pub fn last_ber(&self) -> Option<f64> {
        self.last_ber
    }

    /// Count of consecutive silent losses so far.
    pub fn silent_losses(&self) -> u32 {
        self.silent_losses
    }
}

impl RateAdapter for SoftRate {
    fn name(&self) -> &'static str {
        "SoftRate"
    }

    fn next_attempt_ctx(&mut self, _now: f64, _ctx: &mut DecisionCtx) -> TxAttempt {
        TxAttempt {
            rate_idx: self.current,
            use_rts: false,
        }
    }

    fn on_outcome_ctx(&mut self, outcome: &TxOutcome, ctx: &mut DecisionCtx) {
        if let Some(ber) = outcome.ber_feedback {
            // Feedback carries the interference-free BER (the receiver's
            // collision detector already excised interfered symbols), so a
            // collision-damaged frame with a clean underlying channel
            // reports a *low* BER and the rate holds — robustness to
            // collisions falls out of the feedback definition.
            self.silent_losses = 0;
            self.last_ber = Some(ber);
            let old = self.current;
            self.current = select_rate(
                self.current,
                ber,
                &self.cfg.rates,
                self.cfg.frame_bits,
                &*self.cfg.recovery,
                self.cfg.max_jump,
            );
            if self.current != old {
                ctx.record(RateDecision {
                    old_rate: old,
                    new_rate: self.current,
                    trigger: if outcome.acked {
                        DecisionTrigger::Ack
                    } else {
                        DecisionTrigger::Loss
                    },
                    snr_db: outcome.snr_feedback_db,
                    ber: Some(ber),
                    reason: "threshold-crossing",
                });
            }
        } else if outcome.postamble_ack {
            // Postamble-only ACK: the preamble was lost to interference but
            // the frame tail was clean — a collision, not attenuation.
            // Keep the rate (paper §3.2/§6.4 "ideal" SoftRate).
            self.silent_losses = 0;
        } else if outcome.is_silent_loss() {
            self.silent_losses += 1;
            if self.silent_losses >= self.cfg.silent_loss_limit {
                self.silent_losses = 0;
                if self.current > 0 {
                    ctx.record(RateDecision {
                        old_rate: self.current,
                        new_rate: self.current - 1,
                        trigger: DecisionTrigger::Timeout,
                        snr_db: None,
                        ber: None,
                        reason: "silent-loss-limit",
                    });
                    self.current -= 1;
                }
                // A silent loss gives no BER measurement; forget the stale
                // one so we re-probe from the new rate.
                self.last_ber = None;
            }
        }
    }

    fn num_rates(&self) -> usize {
        self.cfg.rates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thresholds::RateThresholds;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn outcome(rate_idx: usize) -> TxOutcome {
        TxOutcome {
            rate_idx,
            acked: true,
            feedback_received: true,
            ber_feedback: Some(1e-6),
            interference_flagged: false,
            postamble_ack: false,
            snr_feedback_db: None,
            airtime: 1e-3,
            now: 0.0,
        }
    }

    #[test]
    fn starts_at_initial_rate() {
        let sr = SoftRate::with_defaults();
        assert_eq!(sr.current_rate_idx(), 0);
        assert_eq!(sr.num_rates(), 6);
    }

    #[test]
    fn clean_feedback_climbs() {
        let mut sr = SoftRate::with_defaults();
        for _ in 0..6 {
            let mut o = outcome(sr.current_rate_idx());
            o.ber_feedback = Some(1e-9);
            sr.on_outcome(&o);
        }
        assert_eq!(
            sr.current_rate_idx(),
            5,
            "clean channel must reach the top rate"
        );
    }

    #[test]
    fn climbing_uses_multi_level_jumps() {
        let mut sr = SoftRate::with_defaults();
        let mut o = outcome(0);
        o.ber_feedback = Some(1e-9);
        sr.on_outcome(&o);
        assert_eq!(
            sr.current_rate_idx(),
            2,
            "BER at floor justifies a two-level jump"
        );
    }

    #[test]
    fn high_ber_steps_down() {
        let mut sr = SoftRate::with_defaults();
        // climb to the top first
        for _ in 0..4 {
            let mut o = outcome(sr.current_rate_idx());
            o.ber_feedback = Some(1e-9);
            sr.on_outcome(&o);
        }
        assert_eq!(sr.current_rate_idx(), 5);
        let mut o = outcome(5);
        o.acked = false;
        o.ber_feedback = Some(0.05);
        sr.on_outcome(&o);
        assert_eq!(
            sr.current_rate_idx(),
            3,
            "catastrophic BER takes the full two-level jump"
        );
    }

    #[test]
    fn moderate_ber_holds_rate() {
        let mut sr = SoftRate::with_defaults();
        let mut o = outcome(0);
        o.ber_feedback = Some(1e-9);
        sr.on_outcome(&o);
        let here = sr.current_rate_idx();
        // A BER inside the optimal window of the current rate: stay.
        let cfg = SoftRateConfig::default();
        let t = RateThresholds::compute(&cfg.rates, cfg.frame_bits, &*cfg.recovery);
        let mid = (t.alpha[here].max(1e-9) * t.beta[here]).sqrt();
        let mut o = outcome(here);
        o.ber_feedback = Some(mid);
        sr.on_outcome(&o);
        assert_eq!(sr.current_rate_idx(), here);
    }

    #[test]
    fn collision_flagged_frame_does_not_reduce_rate() {
        let mut sr = SoftRate::with_defaults();
        for _ in 0..4 {
            let mut o = outcome(sr.current_rate_idx());
            o.ber_feedback = Some(1e-9);
            sr.on_outcome(&o);
        }
        let before = sr.current_rate_idx();
        // Collision: frame lost, but the interference-free BER is clean.
        let mut o = outcome(before);
        o.acked = false;
        o.interference_flagged = true;
        o.ber_feedback = Some(1e-7);
        sr.on_outcome(&o);
        assert_eq!(
            sr.current_rate_idx(),
            before,
            "collision must not reduce the rate"
        );
    }

    #[test]
    fn three_silent_losses_step_down() {
        let mut sr = SoftRate::with_defaults();
        // climb to rate 2 first
        let mut o = outcome(0);
        o.ber_feedback = Some(1e-9);
        sr.on_outcome(&o);
        let start = sr.current_rate_idx();
        assert!(start > 0);
        let silent = TxOutcome {
            rate_idx: start,
            acked: false,
            feedback_received: false,
            ber_feedback: None,
            interference_flagged: false,
            postamble_ack: false,
            snr_feedback_db: None,
            airtime: 1e-3,
            now: 0.0,
        };
        sr.on_outcome(&silent);
        sr.on_outcome(&silent);
        assert_eq!(
            sr.current_rate_idx(),
            start,
            "two silent losses are not enough"
        );
        sr.on_outcome(&silent);
        assert_eq!(
            sr.current_rate_idx(),
            start - 1,
            "third silent loss steps down"
        );
        assert_eq!(sr.silent_losses(), 0, "counter resets after the step");
    }

    #[test]
    fn feedback_resets_silent_counter() {
        let mut sr = SoftRate::with_defaults();
        let silent = TxOutcome {
            rate_idx: 0,
            acked: false,
            feedback_received: false,
            ber_feedback: None,
            interference_flagged: false,
            postamble_ack: false,
            snr_feedback_db: None,
            airtime: 1e-3,
            now: 0.0,
        };
        sr.on_outcome(&silent);
        sr.on_outcome(&silent);
        assert_eq!(sr.silent_losses(), 2);
        sr.on_outcome(&outcome(0));
        assert_eq!(sr.silent_losses(), 0);
    }

    #[test]
    fn postamble_ack_holds_rate_and_resets_counter() {
        let mut sr = SoftRate::with_defaults();
        let mut o = outcome(0);
        o.ber_feedback = Some(1e-9);
        sr.on_outcome(&o);
        let here = sr.current_rate_idx();
        let pa = TxOutcome {
            rate_idx: here,
            acked: false,
            feedback_received: false,
            ber_feedback: None,
            interference_flagged: true,
            postamble_ack: true,
            snr_feedback_db: None,
            airtime: 1e-3,
            now: 0.0,
        };
        sr.on_outcome(&pa);
        sr.on_outcome(&pa);
        sr.on_outcome(&pa);
        assert_eq!(
            sr.current_rate_idx(),
            here,
            "postamble ACKs are collisions, not fades"
        );
    }

    #[test]
    fn silent_losses_at_bottom_rate_saturate() {
        let mut sr = SoftRate::with_defaults();
        let silent = TxOutcome {
            rate_idx: 0,
            acked: false,
            feedback_received: false,
            ber_feedback: None,
            interference_flagged: false,
            postamble_ack: false,
            snr_feedback_db: None,
            airtime: 1e-3,
            now: 0.0,
        };
        for _ in 0..10 {
            sr.on_outcome(&silent);
        }
        assert_eq!(sr.current_rate_idx(), 0);
    }

    #[test]
    fn harq_recovery_changes_decisions() {
        // With chunked HARQ the same moderate BER that forces frame-ARQ
        // down is perfectly fine to hold (the modularity claim).
        use crate::recovery::ChunkedHarq;
        let mk = |recovery: Arc<dyn ErrorRecovery + Send + Sync>| {
            let cfg = SoftRateConfig {
                recovery,
                initial_rate: 3,
                ..Default::default()
            };
            SoftRate::new(cfg)
        };
        let mut arq = mk(Arc::new(FrameArq));
        let mut harq = mk(Arc::new(ChunkedHarq::default()));
        let mut o = outcome(3);
        o.ber_feedback = Some(3e-4);
        arq.on_outcome(&o);
        harq.on_outcome(&o);
        assert!(arq.current_rate_idx() < 3, "frame ARQ must flee BER 3e-4");
        assert!(
            harq.current_rate_idx() >= 3,
            "chunked HARQ tolerates BER 3e-4"
        );
    }

    /// `FrameArq` that counts its `goodput` evaluations.
    struct CountingArq(Arc<AtomicUsize>);

    impl ErrorRecovery for CountingArq {
        fn name(&self) -> &'static str {
            "counting-arq"
        }

        fn goodput(&self, rate: BitRate, frame_bits: usize, ber: f64) -> f64 {
            self.0.fetch_add(1, Ordering::Relaxed);
            FrameArq.goodput(rate, frame_bits, ber)
        }
    }

    #[test]
    fn construction_does_no_goodput_work() {
        let calls = Arc::new(AtomicUsize::new(0));
        let mut sr = SoftRate::new(SoftRateConfig {
            recovery: Arc::new(CountingArq(calls.clone())),
            ..Default::default()
        });
        assert_eq!(
            calls.load(Ordering::Relaxed),
            0,
            "new must not evaluate goodput"
        );
        let silent = TxOutcome {
            acked: false,
            feedback_received: false,
            ber_feedback: None,
            ..outcome(0)
        };
        sr.on_outcome(&silent);
        let postamble = TxOutcome {
            postamble_ack: true,
            ..silent
        };
        sr.on_outcome(&postamble);
        sr.next_attempt(0.0);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            0,
            "outcomes without BER feedback must not evaluate goodput"
        );
        sr.on_outcome(&outcome(0));
        assert!(calls.load(Ordering::Relaxed) > 0);
    }
}
