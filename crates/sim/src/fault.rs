//! Deterministic fault injection: the `softrate-faults` subsystem.
//!
//! SoftRate's headline claim is robustness — it keeps adapting correctly
//! when the channel misbehaves — yet organic Jakes fading and DCF
//! collisions are the only adversity the simulators produce on their
//! own. This module supplies the storm: a declarative, *deterministic*
//! fault model that the media translate into concrete channel and
//! topology events, so the telemetry taxonomy (collision / fading /
//! capture, PR 6) can be tested against outages, jammers, SNR cliffs,
//! station churn, and corrupted SoftPHY hints.
//!
//! Design rules (load-bearing — see DESIGN.md §12):
//!
//! * **Faults are data, not threads.** Every fault is either a timed
//!   event (scheduled into the engine's event queue at config time, so
//!   it dispatches in exact global `(time, seq)` order) or a
//!   seeded-stochastic draw keyed by stable identifiers (`hash_uniform`
//!   over transmission ids / station indices), never by host state.
//!   Faults-on output is therefore byte-identical across `--threads`,
//!   and faults-off runs never touch this module at all.
//! * **Faults act at dispatch points only.** A fault may change what a
//!   transmission *experiences* (its fate, its feedback, whether its
//!   sender may transmit) but never what a carrier sense *observes*.
//!   Carrier sense reads only the active-transmission set, and the
//!   spatial medium answers it from an index of those transmissions
//!   whose pruning is proven exact against a plain scan (DESIGN.md §7);
//!   a fault that occupied the medium would need a second, unindexed
//!   source of busy time in every sense path. All five fault classes
//!   respect this (the jammer, in particular, corrupts receptions
//!   rather than occupying the medium, as a non-802.11 interferer that
//!   no station defers to would).
//! * **Every loss is attributed.** Frames killed by an outage or a
//!   jammer carry their own [`FaultLoss`] cause through the engine into
//!   telemetry, keeping the per-station balance invariant
//!   `retries == Σ loss causes` intact under any fault load.
//!
//! The plain-data configuration types here are the *lowered* form the
//! simulators consume; the serde-facing `[faults]` scenario table lives
//! in `softrate-scenario` (the spec crate owns parsing and validation,
//! mirroring how `TrafficSpec` lowers into `TrafficModel`).

use softrate_core::adapter::TxOutcome;
use softrate_trace::schema::hash_uniform;

/// Salt for the per-frame SoftPHY-hint drop draw (distinct from the
/// collision-detector salt `0x00DE_7EC7` so the two streams never
/// correlate).
const HINT_DROP_SALT: u64 = 0x4849_4E54; // "HINT"

/// Why a fault killed a frame — folded into the engine's loss
/// attribution alongside collision/fading/capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultLoss {
    /// The receiver (AP or station) was powered off: nothing decodes,
    /// nothing feeds back. A silent loss with a name.
    Outage,
    /// A jammer burst swamped the reception below the capture SIR:
    /// the frame is corrupt end-to-end, like an inter-cell collision
    /// the MAC never saw coming.
    Jamming,
}

/// Timed AP death and restart: at `at` the AP stops receiving,
/// acking, and transmitting; queued downlink frames are dropped with
/// explicit accounting; stations re-home via the existing
/// RSSI-hysteresis roaming. At `at + duration` the AP returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApOutage {
    /// Index of the AP to kill (row-major grid order).
    pub ap: usize,
    /// Outage start, seconds into the run.
    pub at: f64,
    /// Outage length, seconds. The AP restarts at `at + duration`.
    pub duration: f64,
}

/// A stationary wideband jammer burst: while on, any reception whose
/// signal-to-jammer ratio at the receiver falls below the capture SIR
/// threshold is corrupted (a [`FaultLoss::Jamming`] loss). The jammer
/// does not occupy the medium for carrier sense — it attacks
/// receptions, not airtime, which is physically defensible for a
/// non-802.11 interferer and keeps carrier sense a function of the
/// active-transmission set alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jammer {
    /// Jammer x position, metres.
    pub x: f64,
    /// Jammer y position, metres.
    pub y: f64,
    /// Transmit power relative to an AP's reference power, dB
    /// (0 = as loud as an AP; positive = louder).
    pub power_db: f64,
    /// Burst start, seconds into the run.
    pub at: f64,
    /// Burst length, seconds.
    pub duration: f64,
}

/// A step change in the noise floor: every link's SNR drops by
/// `delta_db` at `at` (an SNR cliff), recovering after `duration` if
/// one is given, else holding to the end of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseStep {
    /// Step start, seconds into the run.
    pub at: f64,
    /// SNR reduction while active, dB (positive = worse channel).
    pub delta_db: f64,
    /// Step length, seconds; `None` holds the step until the run ends.
    pub duration: Option<f64>,
}

/// Station churn: a flash crowd of late joiners and/or mid-run
/// leavers. Joiners are the *last* `join_count` stations of the
/// deployment; they stay dormant until their individual join time
/// `join_at + U(0, join_ramp_s)` (a seeded draw keyed by station
/// index), then start transmitting. Leavers are the *first*
/// `leave_count` stations; they fall silent at
/// `leave_at + U(0, leave_ramp_s)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Churn {
    /// How many stations join late (taken from the end of the index
    /// range).
    pub join_count: usize,
    /// Earliest join time, seconds.
    pub join_at: f64,
    /// Width of the join wave, seconds (0 = all at once).
    pub join_ramp_s: f64,
    /// How many stations leave mid-run (taken from the start of the
    /// index range).
    pub leave_count: usize,
    /// Earliest leave time, seconds.
    pub leave_at: f64,
    /// Width of the leave wave, seconds.
    pub leave_ramp_s: f64,
}

/// SoftPHY hint corruption: the paper's own robustness knob. Per-frame
/// BER/SNR feedback is dropped with probability `drop_prob` (the
/// adapter sees an ACK-only world for that frame) and otherwise
/// quantized to `quantize_db`-dB steps, degrading SoftRate toward
/// frame-level adapters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HintFaults {
    /// Probability a frame's SoftPHY hints are lost entirely.
    pub drop_prob: f64,
    /// Quantization step for surviving hints, dB (0 = exact). SNR
    /// feedback is rounded to multiples of this; BER feedback is
    /// rounded in the log10 domain with a `quantize_db / 10` decade
    /// step (one dB of SNR moves BER about a tenth of a decade on the
    /// waterfall).
    pub quantize_db: f64,
}

/// The lowered `[faults]` table a simulator consumes: at most one
/// fault of each class per run (sweep the scenario axis for families).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// Timed AP blackout + restart.
    pub ap_outage: Option<ApOutage>,
    /// Timed jammer burst.
    pub jammer: Option<Jammer>,
    /// Timed noise-floor step.
    pub noise_step: Option<NoiseStep>,
    /// Join/leave flash crowd.
    pub churn: Option<Churn>,
    /// SoftPHY hint corruption (the only class that also applies to the
    /// single-cell trace medium).
    pub hint: Option<HintFaults>,
}

impl FaultConfig {
    /// True when no fault class is configured: an empty `[faults]`
    /// table must behave exactly like no table at all (pinned by
    /// test), so the media skip all fault state when this holds.
    pub fn is_noop(&self) -> bool {
        self.ap_outage.is_none()
            && self.jammer.is_none()
            && self.noise_step.is_none()
            && self.churn.is_none()
            && self.hint.is_none()
    }
}

/// The engine-side fault seam: owned by `MacCore`, consulted at the
/// feedback window to corrupt SoftPHY hints *after* the ground-truth
/// fate is drawn and recorded (telemetry observes the truth; only the
/// adapter sees the degraded feedback). Inert unless installed — the
/// faults-off hot path pays one `Option` check per outcome.
#[derive(Debug, Clone)]
pub struct FaultDriver {
    hint: HintFaults,
    seed: u64,
    /// Frames whose hints were dropped entirely (accounting only).
    pub hints_dropped: u64,
    /// Frames whose hints were quantized (accounting only).
    pub hints_quantized: u64,
}

impl FaultDriver {
    /// A driver applying `hint` corruption, keyed by the run's MAC seed
    /// so repeat runs corrupt the same frames.
    pub fn new(hint: HintFaults, seed: u64) -> Self {
        Self {
            hint,
            seed,
            hints_dropped: 0,
            hints_quantized: 0,
        }
    }

    /// Degrades the SoftPHY feedback on `outcome` in place. Keyed by
    /// `tx_id` (globally ordered by construction) so the draw stream is
    /// independent of thread scheduling. ACK state is never
    /// touched: hint loss models a degraded SoftPHY pipeline, not a
    /// broken link layer.
    pub fn corrupt_hints(&mut self, tx_id: u64, outcome: &mut TxOutcome) {
        if outcome.ber_feedback.is_none() && outcome.snr_feedback_db.is_none() {
            return;
        }
        if self.hint.drop_prob > 0.0
            && hash_uniform(&[tx_id, HINT_DROP_SALT, self.seed]) < self.hint.drop_prob
        {
            outcome.ber_feedback = None;
            outcome.snr_feedback_db = None;
            self.hints_dropped += 1;
            return;
        }
        let q = self.hint.quantize_db;
        if q > 0.0 {
            if let Some(snr) = outcome.snr_feedback_db.as_mut() {
                *snr = (*snr / q).round() * q;
            }
            if let Some(ber) = outcome.ber_feedback.as_mut() {
                if *ber > 0.0 {
                    let step = q / 10.0; // decades per dB on the waterfall
                    *ber = 10f64.powf((ber.log10() / step).round() * step);
                }
            }
            self.hints_quantized += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome_with(ber: Option<f64>, snr: Option<f64>) -> TxOutcome {
        TxOutcome {
            rate_idx: 3,
            acked: true,
            feedback_received: true,
            ber_feedback: ber,
            interference_flagged: false,
            postamble_ack: false,
            snr_feedback_db: snr,
            airtime: 1e-3,
            now: 0.5,
        }
    }

    #[test]
    fn noop_config_detects_empty_table() {
        assert!(FaultConfig::default().is_noop());
        let cfg = FaultConfig {
            noise_step: Some(NoiseStep {
                at: 1.0,
                delta_db: 10.0,
                duration: None,
            }),
            ..FaultConfig::default()
        };
        assert!(!cfg.is_noop());
    }

    #[test]
    fn hint_drop_is_deterministic_and_total() {
        let mut a = FaultDriver::new(
            HintFaults {
                drop_prob: 0.5,
                quantize_db: 0.0,
            },
            0xFA_17,
        );
        let mut b = a.clone();
        let mut dropped = 0u32;
        for tx_id in 0..200 {
            let mut oa = outcome_with(Some(1e-4), Some(17.3));
            let mut ob = outcome_with(Some(1e-4), Some(17.3));
            a.corrupt_hints(tx_id, &mut oa);
            b.corrupt_hints(tx_id, &mut ob);
            assert_eq!(oa.ber_feedback, ob.ber_feedback);
            assert_eq!(oa.snr_feedback_db, ob.snr_feedback_db);
            // Drops take both hints together, never one of the pair.
            assert_eq!(oa.ber_feedback.is_none(), oa.snr_feedback_db.is_none());
            assert!(oa.acked && oa.feedback_received, "ACK state untouched");
            if oa.ber_feedback.is_none() {
                dropped += 1;
            }
        }
        assert!(
            (50..150).contains(&dropped),
            "drop rate wildly off: {dropped}"
        );
        assert_eq!(a.hints_dropped, u64::from(dropped));
    }

    #[test]
    fn quantization_rounds_snr_and_log_ber() {
        let mut d = FaultDriver::new(
            HintFaults {
                drop_prob: 0.0,
                quantize_db: 2.0,
            },
            1,
        );
        let mut o = outcome_with(Some(3.1e-4), Some(17.3));
        d.corrupt_hints(7, &mut o);
        assert_eq!(o.snr_feedback_db, Some(18.0));
        let ber = o.ber_feedback.unwrap();
        // log10(3.1e-4) ≈ -3.509, step 0.2 rounds to -3.6 → 10^-3.6.
        assert!((ber.log10() - (-3.6)).abs() < 1e-9, "got {ber}");
        assert_eq!(d.hints_quantized, 1);
    }

    #[test]
    fn zero_config_driver_is_identity() {
        let mut d = FaultDriver::new(
            HintFaults {
                drop_prob: 0.0,
                quantize_db: 0.0,
            },
            9,
        );
        let mut o = outcome_with(Some(1e-5), Some(22.0));
        d.corrupt_hints(42, &mut o);
        assert_eq!(o.ber_feedback, Some(1e-5));
        assert_eq!(o.snr_feedback_db, Some(22.0));
    }
}
