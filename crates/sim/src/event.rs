//! The discrete-event core: a time-ordered queue with stable FIFO ordering
//! for simultaneous events.
//!
//! Internally a **timing wheel**: a ring of fixed-width buckets spanning
//! ~16 ms of simulated time — wider than any backoff-plus-airtime delta
//! the MAC produces — plus a small 4-ary min-heap for the far future
//! (transport timers, roaming checks). The common push appends to a
//! bucket in O(1) with no comparisons; a bucket is sorted once when the
//! cursor reaches it and then drained from the back. When the wheel goes
//! empty the cursor teleports to the overflow's minimum instead of
//! scanning empty buckets.
//!
//! Bucket storage is **pooled**, not owned per slot. An empty slot holds
//! no buffer; its first push takes the most recently emptied buffer from
//! a LIFO pool (still warm in cache), the cursor swaps a full bucket into
//! the drain buffer instead of copying it, and the drained buffer goes
//! back to the pool. The queue therefore holds about as many buffers as
//! there are non-empty buckets at once, not one per slot at the size its
//! busiest generation ever reached. Buckets sort on an integer key,
//! `(time_key(time), seq)`, where `time_key` is the bit transform
//! inside `f64::total_cmp`.
//!
//! Ordering is **identical** to a single global priority queue: `(time,
//! seq)` keys form a strict total order (sequence numbers are unique),
//! the bucket map `t ↦ ⌊t/width⌋` is monotone (ties in time share a
//! bucket, so FIFO resolution by `seq` happens inside one sort), and the
//! overflow heap feeds events into their buckets before the cursor can
//! reach them. Pops are therefore the exact sequence a `BinaryHeap`
//! produced. Only the constants (bucket width, wheel span) and the buffer
//! pooling are tuning — they cannot affect order, only speed.

use std::cmp::Reverse;
use std::mem;

/// A scheduled event.
#[derive(Debug, Clone)]
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

/// Bucket width, seconds. 8 µs is slot-scale: dense simulations land a
/// handful of events per bucket (one short sort each), sparse ones skip
/// empty buckets at one pointer check apiece.
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
    /// Events appended to a ring bucket, by `schedule` or by migration
    /// out of the overflow heap.
    pub pushes: u64,
    /// Events scheduled a full wheel span or more ahead, into the
    /// overflow heap.
    pub spills: u64,
    /// Idle gaps the cursor jumped instead of walking: the wheel was
    /// empty and the cursor moved straight to the overflow's minimum.
    pub teleports: u64,
    /// Bucket buffers the queue holds (in slots, the drain buffer and the
    /// pool). Buffers are never freed, so this is also the peak.
    pub buffers: u64,
}

type Bucket<E> = Vec<Scheduled<E>>;

/// A deterministic event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The bucket ring; slot `b & SLOT_MASK` holds bucket `b`'s events,
    /// unsorted, for the single in-flight wheel generation. An empty slot
    /// holds an unallocated `Vec`.
    slots: Vec<Bucket<E>>,
    /// Empty bucket buffers, most recently emptied last.
    pool: Vec<Bucket<E>>,
    /// The bucket the cursor is draining: sorted descending, popped from
    /// the back (earliest first).
    cur: Bucket<E>,
    /// Absolute index of the bucket `cur` was taken from.
    cur_bucket: u64,
    /// Events at least a full wheel span ahead: a 4-ary min-heap. They
    /// migrate into their bucket before the cursor can reach it.
    overflow: Vec<Scheduled<E>>,
    /// Events currently in `slots`.
    wheel_len: usize,
    len: usize,
    next_seq: u64,
    now: f64,
    counters: WheelCounters,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            slots: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            pool: Vec::new(),
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

/// Gives `buf` a buffer from the pool if it has none, counting the
/// buffers the pool had to create.
#[inline]
fn ensure_buffer<E>(buf: &mut Bucket<E>, pool: &mut Vec<Bucket<E>>, counters: &mut WheelCounters) {
    if buf.capacity() == 0 {
        *buf = pool.pop().unwrap_or_else(|| {
            counters.buffers += 1;
            Vec::new()
        });
    }
}

impl<E> EventQueue<E> {
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
        self.counters
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
            ensure_buffer(&mut self.cur, &mut self.pool, &mut self.counters);
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

    /// The `(time, seq)` key of the next event without popping it. Loads
    /// the next bucket if needed (amortized against the pop that follows);
    /// the clock does not move.
    pub fn peek_key(&mut self) -> Option<(f64, u64)> {
        loop {
            if let Some(ev) = self.cur.last() {
                return Some((ev.time, ev.seq));
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

    /// Appends `ev` to ring bucket `b`.
    #[inline]
    fn ring_push(&mut self, b: u64, ev: Scheduled<E>) {
        let slot = &mut self.slots[(b & SLOT_MASK) as usize];
        ensure_buffer(slot, &mut self.pool, &mut self.counters);
        slot.push(ev);
        self.wheel_len += 1;
        self.counters.pushes += 1;
    }

    /// Moves the cursor to the next non-empty bucket and loads it into
    /// the (empty) drain buffer.
    fn advance(&mut self) {
        debug_assert!(self.cur.is_empty());
        if self.wheel_len == 0 {
            // Nothing on the wheel: teleport to the overflow's earliest
            // bucket instead of walking empty slots.
            debug_assert!(!self.overflow.is_empty());
            self.cur_bucket = bucket_of(self.overflow[0].time);
            self.counters.teleports += 1;
        } else {
            self.cur_bucket += 1;
        }
        let slot = &mut self.slots[(self.cur_bucket & SLOT_MASK) as usize];
        if !slot.is_empty() {
            // Swap the bucket in; the drained buffer goes back to the pool.
            self.wheel_len -= slot.len();
            let drained = mem::replace(&mut self.cur, mem::take(slot));
            if drained.capacity() > 0 {
                self.pool.push(drained);
            }
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
                ensure_buffer(&mut self.cur, &mut self.pool, &mut self.counters);
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

    /// Recycled buffers are invisible: a queue whose pool holds buffers
    /// of assorted capacities from an earlier busy period pops a new
    /// workload in the same order as a fresh queue.
    #[test]
    fn pooled_buffers_do_not_change_order() {
        let mut pooled: EventQueue<usize> = EventQueue::new();
        for k in 0..3000usize {
            pooled.schedule((k % 97) as f64 * 3e-5 + (k % 5) as f64 * 1e-3, k);
        }
        while pooled.pop().is_some() {}
        assert!(!pooled.pool.is_empty(), "the busy period filled the pool");
        let mut fresh: EventQueue<usize> = EventQueue::new();
        let base = pooled.now();
        for (k, d) in [5e-3, 1e-5, 3e-6, 1e-5, 2e-5, 0.0, 0.5, 1e-5]
            .iter()
            .enumerate()
        {
            pooled.schedule(base + d, k);
            fresh.schedule(*d, k);
        }
        let op: Vec<usize> = std::iter::from_fn(|| pooled.pop().map(|e| e.event)).collect();
        let of: Vec<usize> = std::iter::from_fn(|| fresh.pop().map(|e| e.event)).collect();
        assert_eq!(op, of);
    }

    /// The wheel tiers must be invisible: interleaved pushes and pops
    /// with deltas that exercise the current bucket, the ring, and the
    /// overflow heap produce the exact `(time, seq)` order a single
    /// sorted list would, and `peek_key` always names the next pop
    /// without disturbing the order.
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
                let key = q.peek_key();
                let e = q.pop().expect("queue populated");
                assert_eq!(key, Some((e.time, e.seq)));
                now = e.time;
                popped.push((e.time.to_bits(), e.event));
            }
        }
        while let Some(key) = q.peek_key() {
            let e = q.pop().expect("peeked non-empty");
            assert_eq!(key, (e.time, e.seq));
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

    /// The pool holds a buffer per bucket in use at once, plus the drain
    /// buffer: never more than the peak number of non-empty ring slots
    /// plus one, however the load moves around the ring.
    #[test]
    fn buffers_held_stay_within_peak_nonempty_buckets_plus_one() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut peak_nonempty = 0;
        for round in 0..20_000u64 {
            // Bursts: a busy phase with many buckets in flight, then a
            // quiet one that drains most of them.
            let busy = (round / 2000) % 2 == 0;
            let span = if busy { 4000 } else { 40 };
            let now = q.now();
            q.schedule(now + (rng() % span) as f64 * 1e-6, round);
            if round % 7 == 0 {
                q.schedule(now + 0.1 + (rng() % 100) as f64 * 1e-3, round); // overflow
            }
            let mut observe = |q: &EventQueue<u64>| {
                let nonempty = q.slots.iter().filter(|s| !s.is_empty()).count();
                peak_nonempty = peak_nonempty.max(nonempty);
            };
            observe(&q);
            if !busy || round % 2 == 0 {
                q.pop();
                observe(&q);
            }
            assert!(
                q.counters().buffers as usize <= peak_nonempty + 1,
                "{} buffers for a peak of {peak_nonempty} non-empty buckets",
                q.counters().buffers
            );
            // Every held buffer is accounted for: slots, drain, pool.
            let held = q.slots.iter().filter(|s| s.capacity() > 0).count()
                + usize::from(q.cur.capacity() > 0)
                + q.pool.len();
            assert_eq!(held as u64, q.counters().buffers);
        }
        assert!(peak_nonempty > 100, "the busy phase spreads over the ring");
    }
}
