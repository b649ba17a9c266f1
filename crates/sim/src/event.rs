//! The discrete-event core: a time-ordered queue with stable FIFO ordering
//! for simultaneous events.
//!
//! Internally a **timing wheel**: a ring of fixed-width buckets spanning
//! ~16 ms of simulated time — wider than any backoff-plus-airtime delta
//! the MAC produces — plus a small 4-ary min-heap for the far future
//! (transport timers, roaming checks). The common push links an event
//! into its bucket in O(1) with no comparisons; when the cursor reaches a
//! bucket, its events are copied into the drain buffer, sorted once and
//! drained from the back. An **occupancy bitmap**, one bit per ring slot,
//! lets the cursor jump straight to the next non-empty bucket: a dense
//! run finds it in the next slot, a sparse one by a scan of at most 32
//! words, so no empty bucket is ever loaded. When the wheel goes empty
//! the cursor teleports to the overflow's minimum instead.
//!
//! Ring events live in **one slab**: a single array of events with a
//! parallel array of `next` links. A ring slot holds only the head index
//! of its bucket's chain, and freed indices form a LIFO free list, so a
//! push writes into the most recently freed (still cached) entry. The
//! slab grows to the peak number of events on the ring at once, however
//! they spread over buckets, and steady-state push/pop allocates nothing.
//! Buckets sort on an integer key, `(time_key(time), seq)`, where
//! `time_key` is the bit transform inside `f64::total_cmp`.
//!
//! Ordering is **identical** to a single global priority queue: `(time,
//! seq)` keys form a strict total order (sequence numbers are unique),
//! the bucket map `t ↦ ⌊t/width⌋` is monotone (ties in time share a
//! bucket, so FIFO resolution by `seq` happens inside one sort), and the
//! overflow heap feeds events into their buckets before the cursor can
//! reach them: every overflow event lies at least a wheel span past the
//! cursor and the next occupied ring bucket lies within one span, so a
//! jump passes no event, and the events that migrate after it land in
//! the slots of the skipped (empty) buckets. Pops are therefore the
//! exact sequence a `BinaryHeap` produced. Only the constants (bucket
//! width, wheel span) and the slab's index reuse are tuning — they cannot
//! affect order, only speed.

use std::cmp::Reverse;
use std::mem;

/// A scheduled event.
#[derive(Debug, Clone, Copy)]
pub struct Scheduled<E> {
    /// Absolute simulation time, seconds.
    pub time: f64,
    /// Monotonic sequence number breaking ties (FIFO among equal times).
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

/// `t` as an integer that orders exactly as `f64::total_cmp` does: the
/// same transform the standard library applies inside `total_cmp`
/// (negative values have their magnitude bits flipped), so `-0.0` sorts
/// before `0.0` and equal times give equal keys.
#[inline]
fn time_key(t: f64) -> i64 {
    let bits = t.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The strict `(time, seq)` sort key.
#[inline]
fn key<E>(e: &Scheduled<E>) -> (i64, u64) {
    (time_key(e.time), e.seq)
}

/// Wheel size (power of two).
const WHEEL_BITS: usize = 11;
const WHEEL_BUCKETS: usize = 1 << WHEEL_BITS;
const SLOT_MASK: u64 = WHEEL_BUCKETS as u64 - 1;
/// Words of the occupancy bitmap.
const WORDS: usize = WHEEL_BUCKETS / 64;

/// Bucket width, seconds. 8 µs is slot-scale: dense simulations land a
/// handful of events per bucket (one short sort each), sparse ones jump
/// over empty buckets through the occupancy bitmap.
const BUCKET_WIDTH: f64 = 8e-6;
const INV_BUCKET_WIDTH: f64 = 1.0 / BUCKET_WIDTH;

/// Overflow-heap arity.
const ARITY: usize = 4;

/// The bucket index of time `t` (monotone in `t`; saturates for the
/// far-future tail, which the overflow heap owns anyway).
#[inline]
fn bucket_of(t: f64) -> u64 {
    (t * INV_BUCKET_WIDTH) as u64
}

/// Host-independent counts of the wheel's work since the queue was built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelCounters {
    /// Events linked into a ring bucket, by `schedule` or by migration
    /// out of the overflow heap.
    pub pushes: u64,
    /// Events scheduled a full wheel span or more ahead, into the
    /// overflow heap.
    pub spills: u64,
    /// Idle gaps the cursor jumped instead of walking: the wheel was
    /// empty and the cursor moved straight to the overflow's minimum.
    pub teleports: u64,
    /// Buckets the cursor loaded into the drain buffer, teleports
    /// included. Every load takes at least one event, so this never
    /// exceeds the pops.
    pub advances: u64,
    /// The slab's length: the most events ever on the ring at once (the
    /// slab never shrinks and grows only when its free list is empty).
    pub slab_peak: u64,
}

/// The end of a bucket chain or of the free list.
const NIL: u32 = u32::MAX;

/// A deterministic event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Ring-resident events, indexed by slab index. Entries on the free
    /// list hold stale events.
    slab: Vec<Scheduled<E>>,
    /// `next[i]`: the index after `i` on its bucket chain or on the free
    /// list, or `NIL`.
    next: Vec<u32>,
    /// The bucket ring: slot `b & SLOT_MASK` holds the head of bucket
    /// `b`'s chain (unsorted, most recent push first) for the single
    /// in-flight wheel generation, or `NIL`.
    heads: Vec<u32>,
    /// Bit `s` of word `s / 64` is set exactly when slot `s`'s chain is
    /// non-empty.
    occupied: [u64; WORDS],
    /// Head of the free list of slab indices, most recently freed first.
    free: u32,
    /// The bucket the cursor is draining: sorted descending, popped from
    /// the back (earliest first).
    cur: Vec<Scheduled<E>>,
    /// Absolute index of the bucket `cur` was loaded from.
    cur_bucket: u64,
    /// Events at least a full wheel span ahead: a 4-ary min-heap. They
    /// migrate into their bucket before the cursor can reach it.
    overflow: Vec<Scheduled<E>>,
    /// Events currently on bucket chains.
    wheel_len: usize,
    len: usize,
    next_seq: u64,
    now: f64,
    counters: WheelCounters,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            slab: Vec::new(),
            next: Vec::new(),
            heads: vec![NIL; WHEEL_BUCKETS],
            occupied: [0; WORDS],
            free: NIL,
            cur: Vec::new(),
            cur_bucket: 0,
            overflow: Vec::new(),
            wheel_len: 0,
            len: 0,
            next_seq: 0,
            now: 0.0,
            counters: WheelCounters::default(),
        }
    }
}

impl<E: Copy> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulation time (time of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The wheel's work counts so far.
    pub fn counters(&self) -> WheelCounters {
        WheelCounters {
            slab_peak: self.slab.len() as u64,
            ..self.counters
        }
    }

    /// Schedules `event` at absolute time `time`. Times in the past are
    /// clamped to `now` (events fire immediately, in order).
    pub fn schedule(&mut self, time: f64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let time = if time < self.now { self.now } else { time };
        let ev = Scheduled { time, seq, event };
        self.len += 1;
        let b = bucket_of(time);
        if b <= self.cur_bucket {
            // `time >= now` forces `b == cur_bucket` once the cursor has
            // moved: the event joins the bucket being drained, in order.
            let k = key(&ev);
            let at = self.cur.partition_point(|e| k < key(e));
            self.cur.insert(at, ev);
        } else if b < self.cur_bucket + WHEEL_BUCKETS as u64 {
            self.ring_push(b, ev);
        } else {
            self.counters.spills += 1;
            self.overflow_push(ev);
        }
    }

    /// Schedules `event` after a delay from now.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        debug_assert!(delay >= 0.0);
        let now = self.now;
        self.schedule(now + delay, event);
    }

    /// Pops the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        loop {
            if let Some(ev) = self.cur.pop() {
                self.len -= 1;
                debug_assert!(ev.time >= self.now);
                self.now = ev.time;
                return Some(ev);
            }
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Links `ev` at the head of ring bucket `b`'s chain, in the most
    /// recently freed slab entry if there is one.
    #[inline]
    fn ring_push(&mut self, b: u64, ev: Scheduled<E>) {
        let slot = (b & SLOT_MASK) as usize;
        self.occupied[slot / 64] |= 1 << (slot % 64);
        let head = &mut self.heads[slot];
        if self.free == NIL {
            self.next.push(mem::replace(head, self.slab.len() as u32));
            self.slab.push(ev);
        } else {
            let i = self.free as usize;
            self.free = self.next[i];
            self.slab[i] = ev;
            self.next[i] = mem::replace(head, i as u32);
        }
        self.wheel_len += 1;
        self.counters.pushes += 1;
    }

    /// Moves the cursor to the next non-empty bucket and loads it into
    /// the (empty) drain buffer.
    fn advance(&mut self) {
        debug_assert!(self.cur.is_empty());
        self.counters.advances += 1;
        if self.wheel_len == 0 {
            // Nothing on the wheel: teleport to the overflow's earliest
            // bucket instead of walking empty slots.
            debug_assert!(!self.overflow.is_empty());
            self.cur_bucket = bucket_of(self.overflow[0].time);
            self.counters.teleports += 1;
        } else {
            // Overflow events all lie a wheel span or more past the
            // cursor, beyond any ring bucket, so the jump passes none.
            self.cur_bucket = self.next_occupied(self.cur_bucket + 1);
        }
        // Copy the bucket's chain out and hand its indices to the free list.
        let slot = (self.cur_bucket & SLOT_MASK) as usize;
        let mut i = mem::replace(&mut self.heads[slot], NIL);
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        while i != NIL {
            self.cur.push(self.slab[i as usize]);
            let next = mem::replace(&mut self.next[i as usize], self.free);
            self.free = i;
            i = next;
            self.wheel_len -= 1;
        }
        // Let far-future events whose bucket just became representable
        // enter the ring.
        let limit = self.cur_bucket + WHEEL_BUCKETS as u64;
        while let Some(top) = self.overflow.first() {
            if bucket_of(top.time) >= limit {
                break;
            }
            let ev = self.overflow_pop();
            let b = bucket_of(ev.time);
            if b <= self.cur_bucket {
                self.cur.push(ev); // lands in the bucket being loaded
            } else {
                self.ring_push(b, ev);
            }
        }
        if !self.cur.is_empty() {
            // Descending, so pops come off the back earliest-first.
            self.cur.sort_unstable_by_key(|e| Reverse(key(e)));
        }
    }

    /// The first non-empty ring bucket at or after `from`; the ring must
    /// hold an event. The next slot is checked first, so a dense run pays
    /// one load; otherwise the bitmap is scanned from `from`'s slot,
    /// wrapping once around the ring.
    #[inline]
    fn next_occupied(&self, from: u64) -> u64 {
        debug_assert!(self.wheel_len > 0);
        let start = (from & SLOT_MASK) as usize;
        if self.heads[start] != NIL {
            return from;
        }
        let mut w = start / 64;
        let mut bits = self.occupied[w] & (!0 << (start % 64));
        // `WORDS + 1` words: the start word again last, for the slots
        // below `start` one turn later.
        for _ in 0..=WORDS {
            if bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                return from + (slot.wrapping_sub(start) as u64 & SLOT_MASK);
            }
            w = (w + 1) % WORDS;
            bits = self.occupied[w];
        }
        unreachable!(
            "the ring holds {} events but no slot is set",
            self.wheel_len
        )
    }

    fn overflow_push(&mut self, ev: Scheduled<E>) {
        self.overflow.push(ev);
        let mut i = self.overflow.len() - 1;
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if key(&self.overflow[i]) < key(&self.overflow[parent]) {
                self.overflow.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn overflow_pop(&mut self) -> Scheduled<E> {
        let n = self.overflow.len();
        self.overflow.swap(0, n - 1);
        let ev = self.overflow.pop().expect("overflow non-empty");
        let n = self.overflow.len();
        let mut i = 0;
        loop {
            let first = ARITY * i + 1;
            if first >= n {
                break;
            }
            let mut min = first;
            for c in (first + 1)..(first + ARITY).min(n) {
                if key(&self.overflow[c]) < key(&self.overflow[min]) {
                    min = c;
                }
            }
            if key(&self.overflow[min]) < key(&self.overflow[i]) {
                self.overflow.swap(i, min);
                i = min;
            } else {
                break;
            }
        }
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(1.0, 2);
        q.schedule(1.0, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.schedule(2.0, ());
        q.pop();
        assert_eq!(q.now(), 2.0);
        q.pop();
        assert_eq!(q.now(), 5.0);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.schedule(2.0, "later");
        q.pop();
        q.schedule(1.0, "past");
        let e = q.pop().unwrap();
        assert_eq!(e.time, 2.0, "past schedule clamps to now");
        assert_eq!(e.event, "past");
    }

    #[test]
    fn schedule_in_uses_current_time() {
        let mut q = EventQueue::new();
        q.schedule(4.0, "x");
        q.pop();
        q.schedule_in(0.5, "y");
        assert_eq!(q.pop().unwrap().time, 4.5);
    }

    /// Recycled slab entries are invisible: a queue whose slab and free
    /// list were churned by an earlier busy period pops a new workload in
    /// the same order as a fresh queue.
    #[test]
    fn recycled_slab_does_not_change_order() {
        let mut recycled: EventQueue<usize> = EventQueue::new();
        for k in 0..3000usize {
            recycled.schedule((k % 97) as f64 * 3e-5 + (k % 5) as f64 * 1e-3, k);
        }
        while recycled.pop().is_some() {}
        assert!(recycled.free != NIL, "the busy period filled the free list");
        let mut fresh: EventQueue<usize> = EventQueue::new();
        let base = recycled.now();
        for (k, d) in [5e-3, 1e-5, 3e-6, 1e-5, 2e-5, 0.0, 0.5, 1e-5]
            .iter()
            .enumerate()
        {
            recycled.schedule(base + d, k);
            fresh.schedule(*d, k);
        }
        let or: Vec<usize> = std::iter::from_fn(|| recycled.pop().map(|e| e.event)).collect();
        let of: Vec<usize> = std::iter::from_fn(|| fresh.pop().map(|e| e.event)).collect();
        assert_eq!(or, of);
    }

    /// The wheel tiers must be invisible: interleaved pushes and pops
    /// with deltas that exercise the current bucket, the ring, and the
    /// overflow heap produce the exact `(time, seq)` order a single
    /// sorted list would.
    #[test]
    fn wheel_matches_reference_order_under_churn() {
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new(); // (time bits, seq)
        let mut popped: Vec<(u64, u64)> = Vec::new();
        let mut x: u64 = 0x1234_5678_9ABC_DEF0;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut seq = 0u64;
        let mut now = 0.0f64;
        #[allow(clippy::explicit_counter_loop)] // `seq` mirrors the queue's own counter
        for round in 0..4000u64 {
            // Mixed deltas: same-bucket, slot-scale, frame-scale, beyond
            // the wheel span — plus repeated constants for exact ties.
            let delta = match round % 8 {
                0 => 0.0,
                1 | 2 => (rng() % 200) as f64 * 1e-6,
                3 | 4 => 1e-3 + (rng() % 2000) as f64 * 1e-6,
                5 => 0.25, // overflow territory
                6 => 40.0, // deep overflow
                _ => 5e-5, // repeated constant → frequent exact ties
            };
            let t = now + delta;
            q.schedule(t, seq);
            reference.push((t.to_bits(), seq));
            seq += 1;
            if round % 3 == 0 {
                let e = q.pop().expect("queue populated");
                now = e.time;
                popped.push((e.time.to_bits(), e.event));
            }
        }
        while let Some(e) = q.pop() {
            popped.push((e.time.to_bits(), e.event));
        }
        reference.sort_unstable();
        assert_eq!(popped, reference, "pop order must equal the total order");
    }

    #[test]
    fn wheel_teleports_over_long_idle_gaps() {
        let mut q = EventQueue::new();
        q.schedule(1e-5, "a");
        q.schedule(900.0, "far"); // ~10^8 buckets away
        assert_eq!(q.pop().unwrap().event, "a");
        // This pop must not walk the gap bucket-by-bucket.
        let t0 = std::time::Instant::now();
        assert_eq!(q.pop().unwrap().event, "far");
        assert!(t0.elapsed().as_millis() < 100, "teleport, not scan");
        assert!(q.pop().is_none());
        assert_eq!(q.counters().teleports, 1);
    }

    /// A pseudo-random load that moves around the ring: a busy phase
    /// with events over ~4 ms (hundreds of buckets in flight), then a
    /// quiet one that drains most of them, for ten phases (many wheel
    /// turns). With `overflow`, every seventh round also schedules into
    /// the overflow heap. `check` runs after every operation.
    fn churn(overflow: bool, mut check: impl FnMut(&EventQueue<u64>)) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..20_000u64 {
            let busy = (round / 2000) % 2 == 0;
            let span = if busy { 4000 } else { 40 };
            let now = q.now();
            q.schedule(now + (rng() % span) as f64 * 1e-6, round);
            check(&q);
            if overflow && round % 7 == 0 {
                q.schedule(now + 0.1 + (rng() % 100) as f64 * 1e-3, round);
                check(&q);
            }
            if !busy || round % 2 == 0 {
                q.pop();
                check(&q);
            }
        }
    }

    /// The slab grows only when its free list is empty, so its length is
    /// exactly the most events ever on the ring at once. Without overflow
    /// migration the ring only grows inside `schedule`, so checking after
    /// every call sees each peak.
    #[test]
    fn slab_length_is_the_peak_of_ring_resident_events() {
        let mut peak = 0;
        churn(false, |q| {
            peak = peak.max(q.wheel_len);
            assert_eq!(q.slab.len(), peak);
            assert_eq!(q.counters().slab_peak, peak as u64);
        });
        assert!(peak > 100, "the busy phase spreads over the ring");
    }

    /// No slab entry leaks: every index is on exactly one bucket chain or
    /// on the free list, and the chains hold exactly the ring's events.
    #[test]
    fn every_slab_index_is_on_one_chain_or_the_free_list() {
        churn(true, |q| {
            let mut seen = vec![false; q.slab.len()];
            let mut visit = |mut i: u32| -> usize {
                let mut n = 0;
                while i != NIL {
                    assert!(
                        !mem::replace(&mut seen[i as usize], true),
                        "index {i} twice"
                    );
                    i = q.next[i as usize];
                    n += 1;
                }
                n
            };
            let on_chains: usize = q.heads.iter().map(|&h| visit(h)).sum();
            for (slot, &h) in q.heads.iter().enumerate() {
                let bit = q.occupied[slot / 64] >> (slot % 64) & 1 == 1;
                assert_eq!(bit, h != NIL, "slot {slot}'s occupancy bit");
            }
            assert_eq!(on_chains, q.wheel_len);
            visit(q.free);
            assert!(seen.iter().all(|&s| s), "an index is on no list");
        });
    }
}
