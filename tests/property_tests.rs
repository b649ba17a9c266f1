//! Property-based tests (proptest) on the core invariants, spanning crates.

use proptest::prelude::*;

use softrate::core::hints::{error_prob_from_hint, FrameHints};
use softrate::core::prediction::{clamp_ber, predict_ber, BER_CEIL, BER_FLOOR};
use softrate::core::recovery::{ChunkedHarq, ErrorRecovery, FrameArq};
use softrate::core::thresholds::select_rate;
use softrate::phy::bcjr::BcjrDecoder;
use softrate::phy::bits::{bit_error_rate, bits_to_bytes, bytes_to_bits, deterministic_payload};
use softrate::phy::convolutional::{coded_len, depuncture, encode, puncture, TAIL_BITS};
use softrate::phy::crc::{append_crc32, check_crc32};
use softrate::phy::interleaver::Interleaver;
use softrate::phy::rates::{CodeRate, PAPER_RATES};
use softrate::trace::schema::hash_uniform;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bits_bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let bits = bytes_to_bits(&data);
        prop_assert_eq!(bits_to_bytes(&bits), data);
    }

    #[test]
    fn crc_roundtrip_and_detects_flip(
        data in proptest::collection::vec(any::<u8>(), 1..128),
        flip in any::<u16>(),
    ) {
        let mut framed = data.clone();
        append_crc32(&mut framed);
        prop_assert_eq!(check_crc32(&framed), Some(&data[..]));
        let bit = flip as usize % (framed.len() * 8);
        framed[bit / 8] ^= 1 << (bit % 8);
        prop_assert_eq!(check_crc32(&framed), None);
    }

    #[test]
    fn encode_decode_identity_under_no_noise(
        seed in any::<u64>(),
        len in 4usize..64,
        rate_sel in 0usize..3,
    ) {
        let rate = [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters][rate_sel];
        let info = bytes_to_bits(&deterministic_payload(seed, len));
        let tx = puncture(&encode(&info), rate);
        prop_assert_eq!(tx.len(), coded_len(info.len(), rate));
        let llrs: Vec<f64> = tx.iter().map(|&b| if b == 1 { 6.0 } else { -6.0 }).collect();
        let mother = depuncture(&llrs, rate, 2 * (info.len() + TAIL_BITS));
        let out = BcjrDecoder::new().decode(&mother);
        prop_assert_eq!(out.bits, info);
    }

    #[test]
    fn interleaver_is_bijective(
        sel in 0usize..4,
        seed in any::<u64>(),
    ) {
        let (ncbps, nbpsc) = [(96, 1), (192, 2), (384, 4), (576, 6)][sel];
        let il = Interleaver::new(ncbps, nbpsc);
        let bits = bytes_to_bits(&deterministic_payload(seed, ncbps / 8));
        prop_assert_eq!(il.deinterleave_bits(&il.interleave(&bits)), bits);
    }

    #[test]
    fn error_prob_is_half_at_zero_and_decreasing(h in 0.0f64..40.0) {
        let p = error_prob_from_hint(h);
        prop_assert!(p > 0.0 && p <= 0.5);
        prop_assert!(error_prob_from_hint(h + 0.5) < p);
    }

    #[test]
    fn frame_hints_ber_bounded(
        llrs in proptest::collection::vec(-30.0f64..30.0, 1..256),
        bps in 1usize..64,
    ) {
        let hints = FrameHints::from_llrs(&llrs, bps);
        let ber = hints.frame_ber();
        prop_assert!((0.0..=0.5).contains(&ber));
        // Per-symbol BERs average back to the frame BER.
        let sym = hints.symbol_bers();
        let weighted: f64 = sym
            .iter()
            .enumerate()
            .map(|(j, p)| {
                let n = (llrs.len() - j * bps).min(bps);
                p * n as f64
            })
            .sum::<f64>() / llrs.len() as f64;
        prop_assert!((weighted - ber).abs() < 1e-9);
    }

    #[test]
    fn prediction_monotone_and_clamped(
        ber in 1e-12f64..1.0,
        from in 0usize..6,
        to in 0usize..6,
    ) {
        let p = predict_ber(ber, from, to);
        prop_assert!((BER_FLOOR..=BER_CEIL).contains(&p));
        if to > from {
            prop_assert!(p >= clamp_ber(ber));
        } else if to < from {
            prop_assert!(p <= clamp_ber(ber));
        }
    }

    #[test]
    fn goodput_monotone_in_ber(ber in 0.0f64..0.4, bump in 1e-6f64..0.1) {
        let r = PAPER_RATES[3];
        for rec in [&FrameArq as &dyn ErrorRecovery, &ChunkedHarq::default()] {
            let g1 = rec.goodput(r, 10_000, ber);
            let g2 = rec.goodput(r, 10_000, (ber + bump).min(0.5));
            prop_assert!(g2 <= g1 + 1e-9);
        }
    }

    #[test]
    fn select_rate_stays_in_window(
        current in 0usize..6,
        ber in 1e-9f64..0.5,
        jump in 1usize..3,
    ) {
        let sel = select_rate(current, ber, PAPER_RATES, 11_520, &FrameArq, jump);
        prop_assert!(sel <= current + jump);
        prop_assert!(sel + jump >= current);
        prop_assert!(sel < PAPER_RATES.len());
    }

    #[test]
    fn hash_uniform_in_range(words in proptest::collection::vec(any::<u64>(), 1..6)) {
        let u = hash_uniform(&words);
        prop_assert!((0.0..1.0).contains(&u));
        prop_assert_eq!(u, hash_uniform(&words), "must be deterministic");
    }

    #[test]
    fn ground_truth_ber_survives_decoding_floor(
        seed in any::<u64>(),
        len in 8usize..48,
    ) {
        // A clean loopback must decode with zero BER for any payload.
        let info = bytes_to_bits(&deterministic_payload(seed, len));
        let tx = puncture(&encode(&info), CodeRate::ThreeQuarters);
        let llrs: Vec<f64> = tx.iter().map(|&b| if b == 1 { 8.0 } else { -8.0 }).collect();
        let mother = depuncture(&llrs, CodeRate::ThreeQuarters, 2 * (info.len() + TAIL_BITS));
        let out = BcjrDecoder::new().decode(&mother);
        prop_assert_eq!(bit_error_rate(&info, &out.bits), 0.0);
    }
}

// ---- TCP NewReno sender invariants ------------------------------------

use softrate::sim::tcp::{TcpConfig, TcpSender};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The NewReno sender's structural invariants hold under arbitrary
    // interleavings of sends, cumulative ACKs, duplicate ACKs, and
    // timeouts: `cwnd >= 1`, new data respects
    // `in_flight <= floor(cwnd.min(rcv_wnd))` (retransmissions are
    // exempt — they re-send below `snd_una + wnd` by construction),
    // `delivered` is monotone and never exceeds what was sent, and
    // `snd_una <= next_new`.
    #[test]
    fn tcp_sender_invariants_under_random_interleavings(
        init_cwnd in 1u32..16,
        ops in proptest::collection::vec(any::<u8>(), 1..300),
        randoms in proptest::collection::vec(any::<u16>(), 1..64),
    ) {
        let cfg = TcpConfig {
            initial_cwnd: init_cwnd as f64,
            rcv_wnd: 12.0,
            ..Default::default()
        };
        let mut s = TcpSender::new(cfg);
        let mut prev_delivered = 0u64;
        for (i, &op) in ops.iter().enumerate() {
            let now = i as f64 * 0.01;
            let r = randoms[i % randoms.len()] as u64;
            match op % 4 {
                0 => {
                    let before_next = s.next_new();
                    if let Some(seq) = s.next_segment(now) {
                        if seq == before_next {
                            // New data obeys the send window at send time.
                            let wnd = (s.cwnd().min(s.rcv_wnd()).floor() as u64).max(1);
                            prop_assert!(
                                s.in_flight() <= wnd,
                                "in_flight {} > window {}",
                                s.in_flight(),
                                wnd
                            );
                        }
                    }
                }
                1 => {
                    // A plausible cumulative ACK: somewhere in (snd_una,
                    // next_new].
                    if s.in_flight() > 0 {
                        let cum = s.snd_una() + 1 + r % s.in_flight();
                        s.on_ack(cum, now);
                    }
                }
                2 => {
                    // Duplicate ACK.
                    s.on_ack(s.snd_una(), now);
                }
                _ => {
                    // RTO expiry (the plumbing only fires it with data
                    // outstanding; mirror that guard).
                    if s.in_flight() > 0 {
                        s.on_timeout();
                    }
                }
            }
            prop_assert!(s.cwnd() >= 1.0, "cwnd {} < 1", s.cwnd());
            prop_assert!(s.snd_una() <= s.next_new(), "snd_una past next_new");
            prop_assert!(
                s.delivered >= prev_delivered,
                "delivered must be monotone"
            );
            prop_assert!(
                s.delivered <= s.next_new(),
                "cannot deliver unsent data: {} > {}",
                s.delivered,
                s.next_new()
            );
            prev_delivered = s.delivered;
        }
    }
}

// ---- Pruned AP association ----------------------------------------------
//
// `SpatialParams::best_ap` evaluates the exact path-loss expression only
// for APs within a guard band of the nearest one. It must return what the
// exhaustive first-wins argmax over `snr_between` returns — the same AP
// and the same RSSI bits — including at exact AP sites, at midpoints
// between APs, under the 1 m clamp (spacings below 2 m make whole
// neighbourhoods tie), and with a live-AP mask.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pruned_association_matches_the_exhaustive_loop(
        cols in 1usize..=30,
        rows in 1usize..=30,
        spacing in 0.5f64..60.0,
        tiny in any::<bool>(),
        exp in 1.5f64..6.0,
        snr_ref in -10.0f64..80.0,
        seed in any::<u64>(),
    ) {
        use softrate::net::geometry::Point;
        use softrate::net::mobility::MobilitySpec;
        use softrate::net::spatial::SpatialSpec;
        let spacing = if tiny { 0.5 + (spacing - 0.5) / 59.5 * 1.5 } else { spacing };
        let p = SpatialSpec {
            ap_cols: cols,
            ap_rows: rows,
            ap_spacing_m: spacing,
            n_stations: 1,
            snr_ref_db: Some(snr_ref),
            path_loss_exp: Some(exp),
            sense_snr_db: None,
            capture_sir_db: None,
            doppler_hz: None,
            mobility: MobilitySpec::Static,
            roaming: None,
        }
        .resolve()
        .unwrap();
        let n_aps = p.aps.len();
        let u = |k: u64| hash_uniform(&[seed, k]);
        let pick = |k: u64| ((u(k) * n_aps as f64) as usize).min(n_aps - 1);
        let mut positions = Vec::new();
        for k in 0..24u64 {
            positions.push(p.bounds.lerp(u(2 * k), u(2 * k + 1)));
            let (a, b) = (p.aps[pick(100 + k)], p.aps[pick(200 + k)]);
            positions.push(a);
            positions.push(Point { x: 0.5 * (a.x + b.x), y: 0.5 * (a.y + b.y) });
            // The centre of a grid cell: four APs equidistant.
            positions.push(Point { x: a.x + 0.5 * spacing, y: a.y + 0.5 * spacing });
        }
        let masks = [
            None,
            Some((0..n_aps as u64).map(|a| u(300 + a) < 0.5).collect::<Vec<bool>>()),
            Some((0..n_aps as u64).map(|a| u(400 + a) < 0.95).collect::<Vec<bool>>()),
        ];
        for down in &masks {
            for &pos in &positions {
                let mut expect = None;
                let mut best_rssi = f64::NEG_INFINITY;
                for (a, &ap) in p.aps.iter().enumerate() {
                    if down.as_ref().is_some_and(|d| d[a]) {
                        continue;
                    }
                    let rssi = softrate::net::physics::snr_between(&p, pos, ap);
                    if rssi > best_rssi {
                        expect = Some(a);
                        best_rssi = rssi;
                    }
                }
                let expect = expect.map(|a| (a, best_rssi.to_bits()));
                let got = p.best_ap(pos, down.as_deref()).map(|(a, r)| (a, r.to_bits()));
                prop_assert_eq!(got, expect, "pos {:?}", pos);
            }
        }
    }

    // The carrier-sense index against a brute-force reference: after any
    // sequence of inserts and removes, every active entry within `reach`
    // of a query point is in that point's list, every list runs
    // end-descending, and no list holds a removed entry. Floors run from
    // a sub-metre single AP to 30x30 APs; `reach` from a nanometre to
    // beyond the whole floor; queries sit at AP sites, corners, just below
    // cell edges and far outside the bounds, and entries just inside
    // `reach` of them.
    #[test]
    fn sense_index_lists_cover_every_entry_in_reach(
        cols in 1usize..31,
        rows in 1usize..31,
        spacing in 0.3f64..60.0,
        reach_exp in 0.0f64..1.0,
        n_ops in 1usize..160,
        seed in any::<u64>(),
    ) {
        use softrate::net::geometry::{ap_grid, grid_bounds, Point};
        use softrate::net::grid::{dist2, SenseIndex, TxEntry};
        let bounds = grid_bounds(cols, rows, spacing);
        let aps = ap_grid(cols, rows, spacing);
        let span = bounds.width().hypot(bounds.height());
        // Log-uniform from 1 nm to twice the floor's diagonal.
        let reach = 1e-9 * (2.0 * span / 1e-9).powf(reach_exp);
        let mut idx = SenseIndex::new(bounds, reach);
        let u = |k: u64| hash_uniform(&[seed, k]);
        let ap = |k: u64| aps[((u(k) * aps.len() as f64) as usize).min(aps.len() - 1)];
        let far = [
            Point { x: bounds.min.x - 1e6, y: bounds.min.y - 1e6 },
            Point { x: bounds.max.x + 1e6, y: bounds.min.y },
            Point { x: bounds.min.x, y: bounds.max.y + 1e6 },
            Point { x: bounds.max.x + 1e6, y: bounds.max.y + 1e6 },
        ];
        let corners = [
            bounds.min,
            bounds.max,
            Point { x: bounds.min.x, y: bounds.max.y },
            Point { x: bounds.max.x, y: bounds.min.y },
        ];
        let mut queries: Vec<Point> = corners.iter().chain(&far).copied().collect();
        for k in 0..24u64 {
            queries.push(ap(1000 + k));
            queries.push(bounds.lerp(u(2000 + k), u(3000 + k)));
        }
        // Just below every cell edge the index could have: its cell side
        // is `reach` doubled some number of times.
        let mut cell = reach;
        for k in 0..64u64 {
            if cell > span {
                break;
            }
            let j = 1.0 + (u(4000 + k) * span / cell).floor();
            queries.push(Point {
                x: (bounds.min.x + j * cell).next_down(),
                y: (bounds.min.y + j * cell).next_down(),
            });
            cell *= 2.0;
        }
        let mut active: Vec<TxEntry> = Vec::new();
        let mut next_sender = 0usize;
        for op in 0..n_ops as u64 {
            let r = |j: u64| u(10 * op + j);
            if active.is_empty() || r(0) < 0.6 {
                let pos = match (r(1) * 4.0) as u32 {
                    0 => bounds.lerp(r(2), r(3)),
                    1 => far[(r(2) * 4.0) as usize % 4],
                    // Just inside `reach` of a query point, on an axis.
                    _ => {
                        let a = queries[((r(2) * queries.len() as f64) as usize) % queries.len()];
                        let d = reach * (1.0 - f64::EPSILON * (r(3) * 8.0).floor());
                        match (r(4) * 4.0) as u32 {
                            0 => Point { x: a.x + d, y: a.y },
                            1 => Point { x: a.x - d, y: a.y },
                            2 => Point { x: a.x, y: a.y + d },
                            _ => Point { x: a.x, y: a.y - d },
                        }
                    }
                };
                // Few distinct ends, so ties are common.
                let e = TxEntry { sender: next_sender, pos, end: (r(5) * 5.0).floor() };
                next_sender += 1;
                idx.insert(e);
                active.push(e);
            } else {
                let i = ((r(1) * active.len() as f64) as usize).min(active.len() - 1);
                let e = active.swap_remove(i);
                idx.remove(e.sender, e.pos);
            }
            if op % 16 != 15 && op + 1 != n_ops as u64 {
                continue;
            }
            for &q in &queries {
                let list = idx.list_at(q);
                for e in &active {
                    if dist2(e.pos, q) < reach * reach {
                        prop_assert!(
                            list.iter().any(|l| l.sender == e.sender),
                            "entry {:?} within {} of {:?} is missing", e, reach, q
                        );
                    }
                }
            }
            for list in idx.lists() {
                prop_assert!(list.windows(2).all(|w| w[0].end >= w[1].end), "list not end-descending");
                for l in list {
                    prop_assert!(
                        active.iter().any(|e| e.sender == l.sender && e.end == l.end),
                        "removed entry {:?} still listed", l
                    );
                }
            }
        }
    }
}

// ---- Event wheel order ----------------------------------------------------
//
// `EventQueue` (a timing wheel whose ring events live in one recycled
// slab, an overflow heap and idle-gap teleports) must pop exactly what a
// `BinaryHeap` ordered by `(f64::total_cmp(time), seq)` pops, under any
// interleaving of `schedule` and `pop`. Each case schedules `-0.0` and
// `0.0` first (they tie in `==` but not in the total order), then random
// ops: slot-scale, frame-scale, sparse (0.2–15 ms, so the cursor's jumps
// cross bitmap words and the ring's wrap) and beyond-span deltas, idle
// gaps of 10 s and more, exact repeats of earlier times and past times
// (both clamp to `now`). Then bursts over more than a wheel span, each
// drained to a quarter before the next, reuse freed slab entries across
// wheel turns; the slab must stay within the most events ever pending.
// It ends with a full drain followed by one forced idle gap, so every
// case teleports at least once. The cursor must never load an empty
// bucket: it loads at most one bucket per pop.

use softrate::sim::event::EventQueue;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A reference entry: `(time, seq)` in `total_cmp` order.
#[derive(Debug, Clone, Copy)]
struct RefEvent {
    time: f64,
    seq: u64,
}

impl Ord for RefEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}
impl PartialOrd for RefEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for RefEvent {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for RefEvent {}

/// The wheel and its reference, driven in lockstep.
struct WheelCheck {
    q: EventQueue<u64>,
    reference: BinaryHeap<Reverse<RefEvent>>,
    now: f64,
    seq: u64,
    /// The most events ever pending at once.
    max_len: usize,
    /// Pops that returned an event.
    pops: u64,
}

impl WheelCheck {
    fn schedule(&mut self, time: f64) {
        self.q.schedule(time, self.seq);
        let time = if time < self.now { self.now } else { time };
        self.reference.push(Reverse(RefEvent {
            time,
            seq: self.seq,
        }));
        self.seq += 1;
        self.max_len = self.max_len.max(self.q.len());
    }

    /// Pops both and checks they agree; `at` names the op for the message.
    fn pop(&mut self, at: &str) {
        let got = self.q.pop().map(|e| (e.time.to_bits(), e.seq, e.event));
        let want = self
            .reference
            .pop()
            .map(|Reverse(r)| (r.time.to_bits(), r.seq, r.seq));
        assert_eq!(got, want, "pop at {at}: (time bits, seq, payload)");
        if let Some((bits, _, _)) = got {
            self.pops += 1;
            self.now = f64::from_bits(bits);
            assert_eq!(self.q.now().to_bits(), bits, "clock after the pop at {at}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn event_wheel_pops_match_a_binary_heap(
        ops in proptest::collection::vec(any::<u64>(), 1..500),
        gap in 10.0f64..1e4,
    ) {
        let mut w = WheelCheck {
            q: EventQueue::new(),
            reference: BinaryHeap::new(),
            now: 0.0,
            seq: 0,
            max_len: 0,
            pops: 0,
        };
        let mut times: Vec<f64> = Vec::new();
        for t in [-0.0, 0.0, -0.0] {
            w.schedule(t);
            times.push(t);
        }
        for (i, &op) in ops.iter().enumerate() {
            let x = op >> 8;
            let now = w.now;
            let t = match op % 12 {
                // Slot-scale, on a 1 µs grid so distinct schedules tie.
                0 | 1 => now + (x % 64) as f64 * 1e-6,
                // Frame-scale.
                2 => now + 1e-4 + (x % 6000) as f64 * 1e-6,
                // Beyond the wheel's ~16 ms span: the overflow heap.
                3 => now + 0.02 + (x % 3000) as f64 * 1e-3,
                // An idle gap.
                4 => now + 10.0 + (x % 1000) as f64,
                // An exact repeat of an earlier time (past ones clamp).
                5 => times[(x % times.len() as u64) as usize],
                // A past time, clamped to `now`.
                6 => now - (1 + x % 100) as f64 * 1e-5,
                // A signed zero (clamped once the clock has moved).
                7 => if x & 1 == 0 { -0.0 } else { 0.0 },
                // Sparse: a single cell's successor, hundreds of empty
                // buckets ahead.
                8 => now + 2e-4 + (x % 14_800) as f64 * 1e-6,
                _ => {
                    w.pop(&format!("op {i}"));
                    continue;
                }
            };
            w.schedule(t);
            times.push(t);
            prop_assert_eq!(w.q.len(), w.reference.len());
        }
        // Burst then drain: each burst spreads over ~24 ms, past the
        // wheel's ~16 ms span, and is drained to a quarter before the
        // next, so later turns reuse the entries earlier ones freed.
        for turn in 0..4 {
            let now = w.now;
            for &op in ops.iter().take(200) {
                w.schedule(now + ((op >> 8) % 24_000) as f64 * 1e-6);
            }
            let keep = w.q.len() / 4;
            while w.q.len() > keep {
                w.pop(&format!("burst {turn}"));
            }
        }
        prop_assert!(
            w.q.counters().slab_peak <= w.max_len as u64,
            "slab of {} for at most {} pending events",
            w.q.counters().slab_peak,
            w.max_len
        );
        while !w.reference.is_empty() {
            w.pop("the drain");
        }
        // A forced idle gap on the emptied wheel.
        let now = w.now;
        w.schedule(now + 1e-5);
        w.schedule(now + gap);
        for _ in 0..3 {
            w.pop("the idle gap");
        }
        prop_assert!(w.q.is_empty());
        let c = w.q.counters();
        prop_assert!(c.teleports >= 1, "no idle gap was crossed");
        prop_assert!(
            c.advances <= w.pops,
            "{} buckets loaded for {} pops: an empty bucket was walked",
            c.advances,
            w.pops
        );
    }
}
