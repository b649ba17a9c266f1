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
//! Ordering is **identical** to a single global priority queue: `(time,
//! seq)` keys form a strict total order (sequence numbers are unique),
//! the bucket map `t ↦ ⌊t/width⌋` is monotone (ties in time share a
//! bucket, so FIFO resolution by `seq` happens inside one sort), and the
//! overflow heap feeds events into their buckets before the cursor can
//! reach them. Pops are therefore the exact sequence a `BinaryHeap`
//! produced. Only the constants (bucket width, wheel span) are tuning —
//! they cannot affect order, only speed.

use std::cmp::Ordering;

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

/// Strict `(time, seq)` min-order.
#[inline]
fn before<E>(a: &Scheduled<E>, b: &Scheduled<E>) -> bool {
    matches!(
        a.time.total_cmp(&b.time).then_with(|| a.seq.cmp(&b.seq)),
        Ordering::Less
    )
}

/// Wheel size (power of two).
const WHEEL_BITS: usize = 11;
const WHEEL_BUCKETS: usize = 1 << WHEEL_BITS;

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

/// A deterministic event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The bucket ring; slot `b & (WHEEL_BUCKETS-1)` holds bucket `b`'s
    /// events, unsorted, for the single in-flight wheel generation.
    slots: Vec<Vec<Scheduled<E>>>,
    /// The bucket the cursor is draining: sorted descending, popped from
    /// the back (earliest first).
    cur: Vec<Scheduled<E>>,
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
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            slots: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            cur: Vec::new(),
            cur_bucket: 0,
            overflow: Vec::new(),
            wheel_len: 0,
            len: 0,
            next_seq: 0,
            now: 0.0,
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue at time zero with the non-ring tiers (the drain
    /// buffer and the far-future heap) sized for `capacity` pending
    /// events. Ring buckets warm up over the first wheel rotation and
    /// keep their storage thereafter, so steady-state push/pop is
    /// allocation-free either way.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            cur: Vec::with_capacity(capacity),
            overflow: Vec::with_capacity(capacity),
            ..Self::default()
        }
    }

    /// Reserves room for at least `additional` more pending events in the
    /// non-ring tiers.
    pub fn reserve(&mut self, additional: usize) {
        self.cur.reserve(additional);
        self.overflow.reserve(additional);
    }

    /// Pending events the non-ring tiers can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.cur.capacity() + self.overflow.capacity()
    }

    /// Current simulation time (time of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
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
            let at = self.cur.partition_point(|e| before(&ev, e));
            self.cur.insert(at, ev);
        } else if b < self.cur_bucket + WHEEL_BUCKETS as u64 {
            self.slots[(b & (WHEEL_BUCKETS as u64 - 1)) as usize].push(ev);
            self.wheel_len += 1;
        } else {
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

    /// Moves the cursor to the next non-empty bucket and loads it into
    /// the drain buffer.
    fn advance(&mut self) {
        if self.wheel_len == 0 {
            // Nothing on the wheel: teleport to the overflow's earliest
            // bucket instead of walking empty slots.
            debug_assert!(!self.overflow.is_empty());
            self.cur_bucket = bucket_of(self.overflow[0].time);
        } else {
            self.cur_bucket += 1;
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
                self.slots[(b & (WHEEL_BUCKETS as u64 - 1)) as usize].push(ev);
                self.wheel_len += 1;
            }
        }
        let slot = &mut self.slots[(self.cur_bucket & (WHEEL_BUCKETS as u64 - 1)) as usize];
        if !slot.is_empty() {
            self.wheel_len -= slot.len();
            self.cur.append(slot);
        }
        if !self.cur.is_empty() {
            // Descending, so pops come off the back earliest-first.
            self.cur
                .sort_unstable_by(|a, b| b.time.total_cmp(&a.time).then_with(|| b.seq.cmp(&a.seq)));
        }
    }

    fn overflow_push(&mut self, ev: Scheduled<E>) {
        self.overflow.push(ev);
        let mut i = self.overflow.len() - 1;
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if before(&self.overflow[i], &self.overflow[parent]) {
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
                if before(&self.overflow[c], &self.overflow[min]) {
                    min = c;
                }
            }
            if before(&self.overflow[min], &self.overflow[i]) {
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

    #[test]
    fn with_capacity_preallocates() {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(1024);
        assert!(q.capacity() >= 1024);
        for k in 0..1024 {
            q.schedule(k as f64, k);
        }
        q.reserve(4096);
        assert!(q.capacity() >= q.len() + 4096);
    }

    #[test]
    fn capacity_does_not_change_order() {
        let mut a: EventQueue<usize> = EventQueue::new();
        let mut b: EventQueue<usize> = EventQueue::with_capacity(64);
        for k in [5usize, 1, 3, 1, 2] {
            a.schedule(k as f64, k);
            b.schedule(k as f64, k);
        }
        let oa: Vec<usize> = std::iter::from_fn(|| a.pop().map(|e| e.event)).collect();
        let ob: Vec<usize> = std::iter::from_fn(|| b.pop().map(|e| e.event)).collect();
        assert_eq!(oa, ob);
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
    }
}
