//! Soft-input Viterbi decoding, with an optional soft-output (SOVA) mode.
//!
//! The paper proposes "Viterbi \[6\] with soft outputs \[8\], or BCJR \[2\]" as
//! SoftPHY hint sources (§3.1). The main pipeline uses BCJR
//! ([`crate::bcjr`]); this module provides the classic maximum-likelihood
//! hard decoder used for cross-checking, plus a Hagenauer-Hoeher style SOVA
//! whose reliabilities serve as an alternative hint source in the ablation
//! benchmarks.

use crate::convolutional::{NUM_STATES, TAIL_BITS};
use crate::trellis::Trellis;

/// SOVA reliability update window, in trellis steps. 5x the constraint
/// length is the customary choice; merges beyond this depth almost never
/// change decisions for the 133/171 code.
const SOVA_WINDOW: usize = 35;

/// Maximum-likelihood (hard output) decode of a terminated codeword.
///
/// `coded_llrs` is the depunctured LLR stream (length `2 * (n_info + tail)`,
/// positive favours bit 1). Returns the `n_info` decoded payload bits.
pub fn viterbi_decode(coded_llrs: &[f64]) -> Vec<u8> {
    decode_internal(coded_llrs, false).bits
}

/// SOVA decode: maximum-likelihood bits plus a per-bit reliability
/// (an approximation of `|LLR|`, directly comparable to BCJR hints).
pub fn sova_decode(coded_llrs: &[f64]) -> (Vec<u8>, Vec<f64>) {
    let out = decode_internal(coded_llrs, true);
    (out.bits, out.reliability)
}

struct ViterbiOutput {
    bits: Vec<u8>,
    reliability: Vec<f64>,
}

fn decode_internal(coded_llrs: &[f64], soft: bool) -> ViterbiOutput {
    assert!(
        coded_llrs.len().is_multiple_of(2),
        "coded LLR stream must be even-length"
    );
    let steps = coded_llrs.len() / 2;
    assert!(steps > TAIL_BITS, "codeword shorter than the tail");
    let n_info = steps - TAIL_BITS;

    let trellis = Trellis::new();
    const NEG: f64 = f64::NEG_INFINITY;

    let metric = |k: usize, out_a: u8, out_b: u8| -> f64 {
        let la = coded_llrs[2 * k];
        let lb = coded_llrs[2 * k + 1];
        0.5 * ((2.0 * out_a as f64 - 1.0) * la + (2.0 * out_b as f64 - 1.0) * lb)
    };

    // Add-compare-select. survivor[k][s] = (predecessor state, input bit);
    // delta[k][s] = metric margin over the discarded path into (k, s).
    let mut pm = vec![NEG; NUM_STATES];
    pm[0] = 0.0;
    let mut survivor = vec![vec![(0usize, 0u8); NUM_STATES]; steps];
    let mut delta = if soft {
        vec![vec![f64::INFINITY; NUM_STATES]; steps]
    } else {
        Vec::new()
    };

    for k in 0..steps {
        let mut next = vec![NEG; NUM_STATES];
        let mut surv = vec![(0usize, 0u8); NUM_STATES];
        let mut dlt = vec![f64::INFINITY; NUM_STATES];
        for s in 0..NUM_STATES {
            let [p, q] = trellis.reverse[s];
            let mp = if pm[p.from] == NEG {
                NEG
            } else {
                pm[p.from] + metric(k, p.out_a, p.out_b)
            };
            let mq = if pm[q.from] == NEG {
                NEG
            } else {
                pm[q.from] + metric(k, q.out_a, q.out_b)
            };
            if mp >= mq {
                next[s] = mp;
                surv[s] = (p.from, p.input);
                if mq != NEG {
                    dlt[s] = mp - mq;
                }
            } else {
                next[s] = mq;
                surv[s] = (q.from, q.input);
                if mp != NEG {
                    dlt[s] = mq - mp;
                }
            }
        }
        pm = next;
        survivor[k] = surv;
        if soft {
            delta[k] = dlt;
        }
    }

    // Trace back the maximum-likelihood path from the terminated state 0.
    let mut path_state = vec![0usize; steps + 1];
    let mut decisions = vec![0u8; steps];
    path_state[steps] = 0;
    for k in (0..steps).rev() {
        let (prev, input) = survivor[k][path_state[k + 1]];
        decisions[k] = input;
        path_state[k] = prev;
    }

    let mut reliability = Vec::new();
    if soft {
        // Hagenauer-Hoeher update: at each merge along the ML path, trace the
        // competing path back over the update window; decisions that differ
        // from the ML path have their reliability capped by the merge margin.
        let mut rel = vec![f64::INFINITY; steps];
        for k in 0..steps {
            let s = path_state[k + 1];
            let d = delta[k][s];
            if d == f64::INFINITY {
                continue;
            }
            // Identify the competing (discarded) predecessor transition.
            let [p, q] = trellis.reverse[s];
            let (win_prev, _) = survivor[k][s];
            let loser = if p.from == win_prev && p.input == decisions[k] {
                q
            } else {
                p
            };
            // The competing path differs at step k if its input differs.
            if loser.input != decisions[k] {
                rel[k] = rel[k].min(d);
            }
            // Walk the competing path backwards, comparing decisions.
            let mut comp_state = loser.from;
            let start = k.saturating_sub(SOVA_WINDOW);
            for j in (start..k).rev() {
                let (comp_prev, comp_input) = survivor[j][comp_state];
                if comp_input != decisions[j] {
                    rel[j] = rel[j].min(d);
                }
                comp_state = comp_prev;
                if comp_state == path_state[j] {
                    break; // paths have re-merged; earlier decisions agree
                }
            }
        }
        // Cap "infinite" confidence for downstream numeric use.
        reliability = rel[..n_info]
            .iter()
            .map(|&r| if r.is_finite() { r } else { 1e3 })
            .collect();
    }

    ViterbiOutput {
        bits: decisions[..n_info].to_vec(),
        reliability,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::{bytes_to_bits, deterministic_payload};
    use crate::convolutional::encode;

    fn ideal_llrs(coded: &[u8], mag: f64) -> Vec<f64> {
        coded
            .iter()
            .map(|&b| if b == 1 { mag } else { -mag })
            .collect()
    }

    #[test]
    fn decodes_clean_codeword() {
        let info = bytes_to_bits(&deterministic_payload(10, 32));
        let coded = encode(&info);
        assert_eq!(viterbi_decode(&ideal_llrs(&coded, 4.0)), info);
    }

    #[test]
    fn corrects_isolated_flips() {
        let info = bytes_to_bits(&deterministic_payload(11, 32));
        let mut coded = encode(&info);
        for idx in [5, 77, 141, 300] {
            coded[idx] ^= 1;
        }
        assert_eq!(viterbi_decode(&ideal_llrs(&coded, 4.0)), info);
    }

    #[test]
    fn agrees_with_bcjr_hard_decisions() {
        use crate::bcjr::BcjrDecoder;
        // On a moderately noisy (but decodable) stream, ML and MAP hard
        // decisions agree except possibly at genuinely ambiguous bits; on a
        // clean stream they must agree exactly.
        let info = bytes_to_bits(&deterministic_payload(12, 48));
        let coded = encode(&info);
        let llrs = ideal_llrs(&coded, 2.0);
        let vit = viterbi_decode(&llrs);
        let map = BcjrDecoder::new().decode(&llrs);
        assert_eq!(vit, map.bits);
    }

    #[test]
    fn sova_reliability_dips_near_weak_bits() {
        // Attenuate the channel LLRs around one info bit; SOVA reliability
        // there must be lower than the frame median.
        let info = bytes_to_bits(&deterministic_payload(13, 64));
        let coded = encode(&info);
        let mut llrs = ideal_llrs(&coded, 4.0);
        let weak_bit = 200usize; // info bit index
        #[allow(clippy::needless_range_loop)] // `c` is a coded-bit position in the stream
        for c in 2 * weak_bit..2 * weak_bit + 14 {
            llrs[c] *= 0.05;
        }
        let (bits, rel) = sova_decode(&llrs);
        assert_eq!(bits, info, "still decodable");
        let mut sorted = rel.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        let local_min = rel[weak_bit.saturating_sub(3)..weak_bit + 4]
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(
            local_min < median,
            "reliability near weakened bit ({local_min}) should dip below median ({median})"
        );
    }

    #[test]
    fn sova_outputs_one_reliability_per_bit() {
        let info = bytes_to_bits(&deterministic_payload(14, 16));
        let coded = encode(&info);
        let (bits, rel) = sova_decode(&ideal_llrs(&coded, 3.0));
        assert_eq!(bits.len(), info.len());
        assert_eq!(rel.len(), info.len());
        assert!(rel.iter().all(|&r| r >= 0.0 && r.is_finite()));
    }
}
