//! Soft-output BCJR (log-MAP) decoder for the 802.11 convolutional code.
//!
//! This is the decoder the paper's receiver uses (§4: "decodes it using the
//! soft output BCJR decoder \[2\], which outputs LLRs that are used to compute
//! the SoftPHY hints"). For each information bit `x_k` it computes the exact
//! a-posteriori log-likelihood ratio
//!
//! ```text
//! LLR(k) = ln P(x_k = 1 | r) / P(x_k = 0 | r)          (paper Eq. 1)
//! ```
//!
//! given per-coded-bit channel LLRs from the soft demapper. The SoftPHY hint
//! for bit `k` is `|LLR(k)|` (paper §3.1).

// Trellis state recursions index `alpha`/`beta` arrays by state number on
// purpose — iterator rewrites obscure the textbook form of the algorithm.
#![allow(clippy::needless_range_loop)]

use crate::convolutional::{NUM_STATES, TAIL_BITS};
use crate::trellis::{max_star, Trellis};

/// Output of a soft decode: hard bit decisions plus the per-bit LLRs they
/// were sliced from.
#[derive(Debug, Clone)]
pub struct SoftDecode {
    /// Hard decisions `y_k` obtained by slicing each LLR at 0 (paper Eq. 2).
    pub bits: Vec<u8>,
    /// A-posteriori LLR per information bit; positive favours 1.
    pub llrs: Vec<f64>,
}

/// BCJR decoder holding its precomputed trellis. Reusable across frames; the
/// per-frame working memory is allocated per call (frames vary in length).
#[derive(Debug, Clone)]
pub struct BcjrDecoder {
    trellis: Trellis,
}

impl BcjrDecoder {
    /// Creates a decoder for the 133/171 rate-1/2 code.
    pub fn new() -> Self {
        BcjrDecoder {
            trellis: Trellis::new(),
        }
    }

    /// Decodes a terminated codeword.
    ///
    /// `coded_llrs` holds one LLR per *mother-code* bit (depunctured; erased
    /// positions carry 0), so its length must be even and equal to
    /// `2 * (n_info + TAIL_BITS)`. Returns LLRs for the `n_info` payload bits
    /// (tail bits are decoded internally but stripped).
    ///
    /// # Panics
    /// Panics if `coded_llrs.len()` is odd or shorter than one tail.
    pub fn decode(&self, coded_llrs: &[f64]) -> SoftDecode {
        assert!(
            coded_llrs.len().is_multiple_of(2),
            "coded LLR stream must be even-length"
        );
        let steps = coded_llrs.len() / 2;
        assert!(steps > TAIL_BITS, "codeword shorter than the tail");
        let n_info = steps - TAIL_BITS;

        let t = &self.trellis;
        const NEG: f64 = f64::NEG_INFINITY;

        // Branch metric for emitting (a, b) at step k:
        //   gamma = 0.5 * ((2a-1) * L_a + (2b-1) * L_b)
        let gamma = |k: usize, out_a: u8, out_b: u8| -> f64 {
            let la = coded_llrs[2 * k];
            let lb = coded_llrs[2 * k + 1];
            0.5 * ((2.0 * out_a as f64 - 1.0) * la + (2.0 * out_b as f64 - 1.0) * lb)
        };

        // Forward recursion. alpha[k][s] = log P(state s at step k, r_0..k-1).
        let mut alpha = vec![[NEG; NUM_STATES]; steps + 1];
        alpha[0][0] = 0.0; // trellis starts in state 0
        for k in 0..steps {
            let mut best = NEG;
            for s in 0..NUM_STATES {
                let a = alpha[k][s];
                if a == NEG {
                    continue;
                }
                for tr in &t.forward[s] {
                    let m = a + gamma(k, tr.out_a, tr.out_b);
                    let cell = &mut alpha[k + 1][tr.to];
                    *cell = max_star(*cell, m);
                }
            }
            // Normalize to prevent drift on long frames.
            for s in 0..NUM_STATES {
                if alpha[k + 1][s] > best {
                    best = alpha[k + 1][s];
                }
            }
            if best != NEG {
                for s in 0..NUM_STATES {
                    alpha[k + 1][s] -= best;
                }
            }
        }

        // Backward recursion. Tail bits force termination in state 0.
        let mut beta = vec![[NEG; NUM_STATES]; steps + 1];
        beta[steps][0] = 0.0;
        for k in (0..steps).rev() {
            let mut best = NEG;
            for s in 0..NUM_STATES {
                let mut acc = NEG;
                for tr in &t.forward[s] {
                    let b = beta[k + 1][tr.to];
                    if b == NEG {
                        continue;
                    }
                    acc = max_star(acc, b + gamma(k, tr.out_a, tr.out_b));
                }
                beta[k][s] = acc;
                if acc > best {
                    best = acc;
                }
            }
            if best != NEG {
                for s in 0..NUM_STATES {
                    beta[k][s] -= best;
                }
            }
        }

        // A-posteriori LLR per information bit.
        let mut llrs = Vec::with_capacity(n_info);
        let mut bits = Vec::with_capacity(n_info);
        for k in 0..n_info {
            let mut num = NEG; // input bit 1
            let mut den = NEG; // input bit 0
            for s in 0..NUM_STATES {
                let a = alpha[k][s];
                if a == NEG {
                    continue;
                }
                for tr in &t.forward[s] {
                    let b = beta[k + 1][tr.to];
                    if b == NEG {
                        continue;
                    }
                    let m = a + gamma(k, tr.out_a, tr.out_b) + b;
                    if tr.input == 1 {
                        num = max_star(num, m);
                    } else {
                        den = max_star(den, m);
                    }
                }
            }
            let llr = num - den;
            bits.push(if llr >= 0.0 { 1 } else { 0 });
            llrs.push(llr);
        }

        SoftDecode { bits, llrs }
    }
}

impl Default for BcjrDecoder {
    fn default() -> Self {
        BcjrDecoder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::{bytes_to_bits, deterministic_payload};
    use crate::convolutional::encode;

    /// Maps coded bits to ideal channel LLRs of magnitude `mag`.
    fn ideal_llrs(coded: &[u8], mag: f64) -> Vec<f64> {
        coded
            .iter()
            .map(|&b| if b == 1 { mag } else { -mag })
            .collect()
    }

    #[test]
    fn decodes_clean_codeword() {
        let info = bytes_to_bits(&deterministic_payload(1, 16));
        let coded = encode(&info);
        let out = BcjrDecoder::new().decode(&ideal_llrs(&coded, 8.0));
        assert_eq!(out.bits, info);
    }

    #[test]
    fn clean_codeword_has_confident_llrs() {
        let info = bytes_to_bits(&deterministic_payload(2, 8));
        let coded = encode(&info);
        let out = BcjrDecoder::new().decode(&ideal_llrs(&coded, 8.0));
        for (k, &l) in out.llrs.iter().enumerate() {
            assert!(l.abs() > 10.0, "bit {k} llr {l} not confident");
            let bit = if l >= 0.0 { 1 } else { 0 };
            assert_eq!(bit, info[k]);
        }
    }

    #[test]
    fn llr_sign_matches_transmitted_bit() {
        let info = bytes_to_bits(&deterministic_payload(3, 32));
        let coded = encode(&info);
        let out = BcjrDecoder::new().decode(&ideal_llrs(&coded, 4.0));
        for (k, &l) in out.llrs.iter().enumerate() {
            assert_eq!(if l >= 0.0 { 1 } else { 0 }, info[k], "bit {k}");
        }
    }

    #[test]
    fn corrects_sparse_errors() {
        // Free distance 10: a couple of isolated channel flips must be
        // corrected.
        let info = bytes_to_bits(&deterministic_payload(4, 24));
        let mut coded = encode(&info);
        coded[10] ^= 1;
        coded[97] ^= 1;
        coded[251] ^= 1;
        let out = BcjrDecoder::new().decode(&ideal_llrs(&coded, 3.0));
        assert_eq!(out.bits, info);
    }

    #[test]
    fn erased_positions_still_decodable() {
        // Zeroing scattered LLRs (as depuncturing does) must not break
        // decoding of an otherwise clean stream.
        let info = bytes_to_bits(&deterministic_payload(5, 24));
        let coded = encode(&info);
        let mut llrs = ideal_llrs(&coded, 5.0);
        for i in (0..llrs.len()).step_by(4) {
            llrs[i] = 0.0;
        }
        let out = BcjrDecoder::new().decode(&llrs);
        assert_eq!(out.bits, info);
    }

    #[test]
    fn weak_channel_yields_weak_hints() {
        // With tiny channel LLRs the posterior must be less confident than
        // with strong ones: mean |LLR| should scale down.
        let info = bytes_to_bits(&deterministic_payload(6, 32));
        let coded = encode(&info);
        let strong = BcjrDecoder::new().decode(&ideal_llrs(&coded, 8.0));
        let weak = BcjrDecoder::new().decode(&ideal_llrs(&coded, 0.5));
        let mean = |v: &[f64]| v.iter().map(|x| x.abs()).sum::<f64>() / v.len() as f64;
        assert!(mean(&weak.llrs) < mean(&strong.llrs) / 2.0);
    }

    #[test]
    #[should_panic(expected = "even-length")]
    fn odd_length_panics() {
        BcjrDecoder::new().decode(&[0.0; 15]);
    }

    #[test]
    fn all_zero_llrs_give_zeroish_output() {
        // No channel information at all: posteriors must be (close to)
        // uninformative. (Termination slightly biases the tail region.)
        let n_info = 20;
        let llrs = vec![0.0; 2 * (n_info + TAIL_BITS)];
        let out = BcjrDecoder::new().decode(&llrs);
        assert_eq!(out.llrs.len(), n_info);
        for &l in &out.llrs {
            assert!(l.abs() < 1.0, "llr {l} should be near zero");
        }
    }
}
