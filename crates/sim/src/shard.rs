//! Conservative parallel discrete-event (PDES) mode for the MAC engine.
//!
//! The floor is partitioned into spatial domains, each owning a timing
//! wheel ([`EventQueue`]) for its senders' channel-access events. Time
//! advances in fixed lookahead windows: at each window barrier the
//! domain wheels are drained to the horizon *in parallel* (the bucket
//! sorts are the queue's real cost), carrier sense is precomputed for
//! every drained channel-access event against the frozen window-start
//! active set (pure, read-only), and the window is then dispatched
//! **sequentially in exact global `(time, seq)` order** by merging the
//! sorted per-domain batches with the live near queue.
//!
//! Why merge instead of letting domains free-run to their neighbors'
//! horizons: the engine's observable outputs are pinned to the
//! sequential reference *byte for byte* (goldens, telemetry streams,
//! `events_processed`), and three pieces of engine state are global and
//! order-sensitive — the backoff RNG (one draw per channel-access
//! schedule, in dispatch order), the transmission-id counter (keys
//! collision-detector draws), and the event-queue tie-break counter.
//! A classic null-message PDES that dispatched domains concurrently
//! would have to shard that state, changing every result. Merging keeps
//! the dispatch order — and therefore every draw, every tie-break, and
//! every output — identical for any shard count, while the parallel
//! phases absorb the work that does not touch global state: wheel
//! maintenance and carrier sense.
//!
//! The lookahead that makes precomputed senses safe across a window is
//! spatial, derived from `range_band` plus the mobility drift pad: an
//! active-set mutation (a transmission starting or leaving the air) can
//! only change a sense verdict within the certainly-audible radius of
//! the sensing station, so each precomputed sense carries its station
//! position and is invalidated — and re-evaluated in place, sequentially
//! — only when a mutation lands inside that band. Everything else the
//! window dispatch schedules lands beyond the horizon and is *staged*
//! per domain, to be applied to the domain wheels at the next barrier
//! (the boundary-exchange queues of the scheme).

// The only unsafe in the workspace: lifetime-erasing the scatter task for
// the persistent pool, and per-index mutable lane access from workers.
// Both are locally justified below; the rest of the crate stays safe.
#![allow(unsafe_code)]

use std::marker::PhantomData;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::event::{EventQueue, Scheduled};
use crate::mac::{MacEngine, MacEv, Medium, ShardRoute};

/// A [`Medium`] that can run under the sharded scheduler: it exposes a
/// pure, read-only carrier sense usable from worker threads against the
/// frozen window-start active set, a spatial domain map, and the
/// range-band invalidation geometry.
pub trait ShardableMedium: Medium + Sync {
    /// Per-worker scratch for [`ShardableMedium::sense_pure`] (mobility
    /// cursors, candidate buffers) — whatever the sequential sense keeps
    /// in `&mut self` memo caches, duplicated so workers never touch the
    /// medium.
    type Scratch: Send;

    /// Fresh scratch, one per domain lane.
    fn make_scratch(&self) -> Self::Scratch;

    /// The spatial domain (`0..domains`) owning `sender`'s channel-access
    /// events. Load balance only: the global merge restores ordering, so
    /// the map may go stale across handoffs without affecting results.
    fn domain_of(&self, sender: usize, domains: usize) -> usize;

    /// Carrier sense for `sender` at absolute time `t` against the
    /// *current* active set, without touching any `&mut self` memo, plus
    /// the `(x, y)` sender position the verdict was evaluated at. Must
    /// return exactly what [`Medium::carrier_sense`] would return at a
    /// dispatch point at `t` with the same active set.
    fn sense_pure(
        &self,
        scratch: &mut Self::Scratch,
        sender: usize,
        t: f64,
    ) -> (Option<f64>, (f64, f64));

    /// Squared radius of the sense-invalidation band: an active-set
    /// mutation farther than this from the sensing position provably
    /// cannot change the sense verdict (`range_band` certainly-audible
    /// radius plus the mobility drift pad, squared).
    fn inval_radius2(&self) -> f64;

    /// Positions of active-set mutations (transmission insert/remove)
    /// since the last [`ShardableMedium::clear_mutations`].
    fn mutations(&self) -> &[(f64, f64)];

    /// Forgets logged mutations (called at each window barrier).
    fn clear_mutations(&mut self);

    /// Turns mutation logging on/off (on only during sharded runs, so the
    /// sequential hot path pays nothing).
    fn set_mutation_logging(&mut self, on: bool);

    /// Window width, seconds. Smaller windows re-sense less but barrier
    /// more; anything is *correct* (the merge and the invalidation band
    /// do not depend on it).
    fn lookahead(&self) -> f64;

    /// Cap on pool worker threads for this run (the caller thread also
    /// works), or `None` for the host default (cores − 1). The scenario
    /// engine sets this to divide the machine between concurrent matrix
    /// runs so `--threads` × `--shards` does not oversubscribe the host.
    fn pool_workers(&self) -> Option<usize> {
        None
    }
}

/// One domain's lane: its timing wheel, the staged cross-window inserts,
/// and the drained window batch with precomputed senses.
struct DomainLane<E> {
    wheel: EventQueue<MacEv<E>>,
    incoming: Vec<(f64, u64, MacEv<E>)>,
    batch: Vec<Scheduled<MacEv<E>>>,
    sense: Vec<PreSense>,
}

/// A precomputed carrier-sense verdict for one drained channel-access
/// event, with the position it was evaluated at (the invalidation
/// anchor). `valid = false` for non-TxStart events (placeholder).
#[derive(Clone, Copy)]
struct PreSense {
    sensed: Option<f64>,
    x: f64,
    y: f64,
    valid: bool,
}

const NO_SENSE: PreSense = PreSense {
    sensed: None,
    x: 0.0,
    y: 0.0,
    valid: false,
};

/// Mutable per-index access to the domain lanes from pool workers. Each
/// index is claimed by exactly one worker per scatter (the work-stealing
/// counter hands out every index once), so the aliasing rules hold. The
/// raw pointer is captured from the exclusive borrow at construction —
/// writing through a pointer derived from a shared reborrow of the slice
/// would violate the aliasing model even for disjoint indices.
struct LaneCells<'a, T> {
    ptr: *mut T,
    len: usize,
    _lanes: PhantomData<&'a mut [T]>,
}

// SAFETY: workers only access disjoint indices (enforced by the scatter
// index counter), the pool barrier retires before the borrow ends, and
// `T: Send` makes handing a `&mut T` to another thread sound.
unsafe impl<T: Send> Sync for LaneCells<'_, T> {}

impl<'a, T> LaneCells<'a, T> {
    fn new(lanes: &'a mut [T]) -> Self {
        LaneCells {
            ptr: lanes.as_mut_ptr(),
            len: lanes.len(),
            _lanes: PhantomData,
        }
    }

    /// One lane, mutably. Callers must hold `i` exclusively.
    #[allow(clippy::mut_from_ref)]
    unsafe fn lane(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        unsafe { &mut *self.ptr.add(i) }
    }
}

/// One parallel job: a task function and the work-stealing state.
struct PoolJob {
    /// The task, lifetime-erased. Sound because `scatter` does not return
    /// until every index completed, so the pointee outlives all use.
    task: &'static (dyn Fn(usize) + Sync),
    next: AtomicUsize,
    n: usize,
    remaining: AtomicUsize,
    /// Set when any participant's `task(i)` panicked; `scatter` re-raises
    /// after the barrier instead of hanging or swallowing it.
    panicked: AtomicBool,
}

struct PoolShared {
    job: Mutex<(u64, Option<Arc<PoolJob>>)>,
    wake: Condvar,
    done: Condvar,
}

impl PoolShared {
    /// The pool mutex, ignoring poisoning: the guarded state is a plain
    /// (generation, job) pair that is never left half-written, and the
    /// completion path must keep working mid-unwind.
    fn lock(&self) -> MutexGuard<'_, (u64, Option<Arc<PoolJob>>)> {
        self.job.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Retires one participant's share of `job`. The final decrement
    /// takes the pool mutex before notifying so the predicate change is
    /// serialized with the waiter's check-then-wait in `scatter` — a
    /// notify between the waiter's `remaining` load and its `wait` would
    /// otherwise be lost and the barrier would hang forever.
    fn finish(&self, job: &PoolJob) {
        if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.lock();
            self.done.notify_all();
        }
    }
}

/// Runs one participant's share of `job`, recording (not propagating) a
/// panic so the worker survives and the barrier still retires.
fn work_caught(job: &PoolJob) {
    if std::panic::catch_unwind(AssertUnwindSafe(|| work(job))).is_err() {
        job.panicked.store(true, Ordering::Release);
    }
}

/// A persistent worker pool for the window barriers. Condvar-parked (no
/// spinning: windows are tens of microseconds, but a host with fewer
/// cores than shards — or exactly one — must not livelock), with a
/// work-stealing index so an uneven domain costs no idle time. With zero
/// workers (single-core hosts) `scatter` runs inline on the caller.
pub(crate) struct ShardPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ShardPool {
    /// A pool with `workers` threads (the caller thread also works).
    pub(crate) fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            job: Mutex::new((0, None)),
            wake: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut seen = 0u64;
                    loop {
                        let job = {
                            let mut guard = shared.lock();
                            loop {
                                if guard.0 == u64::MAX {
                                    return;
                                }
                                if guard.0 > seen {
                                    if let Some(job) = guard.1.as_ref() {
                                        seen = guard.0;
                                        break Arc::clone(job);
                                    }
                                }
                                guard = shared.wake.wait(guard).unwrap_or_else(|e| e.into_inner());
                            }
                        };
                        work_caught(&job);
                        shared.finish(&job);
                    }
                })
            })
            .collect();
        ShardPool { shared, handles }
    }

    /// Sized for `shards` domains within an optional worker budget: at
    /// most cores − 1 threads (the caller thread also works — a
    /// single-core host runs every phase inline, same results), at most
    /// `shards − 1`, and at most `budget` when given (see
    /// [`ShardableMedium::pool_workers`]).
    pub(crate) fn sized(shards: usize, budget: Option<usize>) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = cores.saturating_sub(1).min(shards.saturating_sub(1));
        Self::new(budget.map_or(workers, |b| workers.min(b)))
    }

    /// Runs `task(i)` for every `i in 0..n`, the caller thread included,
    /// returning once all completed.
    pub(crate) fn scatter(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        if self.handles.is_empty() {
            for i in 0..n {
                task(i);
            }
            return;
        }
        // SAFETY: the job is retired (remaining == 0 awaited) before this
        // frame returns, so the erased borrow outlives every worker use.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
        let job = Arc::new(PoolJob {
            task,
            next: AtomicUsize::new(0),
            n,
            remaining: AtomicUsize::new(self.handles.len() + 1),
            panicked: AtomicBool::new(false),
        });
        {
            let mut guard = self.shared.lock();
            guard.0 += 1;
            guard.1 = Some(Arc::clone(&job));
            self.shared.wake.notify_all();
        }
        let caller = std::panic::catch_unwind(AssertUnwindSafe(|| work(&job)));
        // The barrier must retire even when the caller's own slice
        // panicked: workers may still be using the lifetime-erased task,
        // and unwinding past it would dangle their borrow.
        if job.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
            let mut guard = self.shared.lock();
            while job.remaining.load(Ordering::Acquire) != 0 {
                guard = self
                    .shared
                    .done
                    .wait(guard)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
        match caller {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => {
                if job.panicked.load(Ordering::Acquire) {
                    panic!("ShardPool task panicked on a worker thread");
                }
            }
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        {
            let mut guard = self.shared.lock();
            *guard = (u64::MAX, None);
            self.shared.wake.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Drains one job's remaining indices on the current thread.
fn work(job: &PoolJob) {
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.n {
            return;
        }
        (job.task)(i);
    }
}

/// Where the next event to dispatch comes from.
enum Src {
    Near,
    Lane(usize),
}

impl<M: ShardableMedium> MacEngine<M>
where
    M::Event: Send,
{
    /// Runs the event loop to `duration` simulated seconds under the
    /// conservative sharded scheduler with `shards` spatial domains.
    /// `shards <= 1` is exactly [`MacEngine::run`]. Results — stats,
    /// telemetry, `events_processed`, every RNG draw — are byte-identical
    /// to the sequential engine for every shard count.
    pub fn run_sharded(&mut self, duration: f64, shards: usize) {
        if shards <= 1 {
            self.run(duration);
            return;
        }
        let pool = ShardPool::sized(shards, self.medium.pool_workers());
        self.core.sync_ledger();
        let h = self.medium.lookahead();
        debug_assert!(h > 0.0, "lookahead must be positive");
        let n_senders = self.core.lanes.n_senders();
        self.core.route = Some(Box::new(ShardRoute {
            horizon: h,
            domain_of: (0..n_senders)
                .map(|s| self.medium.domain_of(s, shards) as u32)
                .collect(),
            stage: (0..shards).map(|_| Vec::new()).collect(),
        }));
        self.medium.set_mutation_logging(true);
        self.medium.kickoff(&mut self.core);
        let r_inval2 = self.medium.inval_radius2();

        let mut lanes: Vec<DomainLane<M::Event>> = (0..shards)
            .map(|_| DomainLane {
                wheel: EventQueue::with_capacity(64),
                incoming: Vec::new(),
                batch: Vec::new(),
                sense: Vec::new(),
            })
            .collect();
        let mut scratches: Vec<M::Scratch> =
            (0..shards).map(|_| self.medium.make_scratch()).collect();

        let mut horizon = h;
        'run: loop {
            // ---- Window barrier: collect staged cross-domain events. ----
            {
                let rt = self.core.route.as_deref_mut().expect("route installed");
                rt.horizon = horizon;
                for (d, lane) in lanes.iter_mut().enumerate() {
                    std::mem::swap(&mut rt.stage[d], &mut lane.incoming);
                }
            }
            self.medium.clear_mutations();

            // ---- Parallel phase: apply stages, drain wheels, precompute
            // senses against the frozen active set. ----
            let t0 = self.profile.as_deref().map(|_| std::time::Instant::now());
            {
                let medium = &self.medium;
                let lane_cells = LaneCells::new(&mut lanes);
                let scratch_cells = LaneCells::new(&mut scratches);
                pool.scatter(shards, &|d| {
                    // SAFETY: index `d` is handed out exactly once.
                    let lane = unsafe { lane_cells.lane(d) };
                    let scratch = unsafe { scratch_cells.lane(d) };
                    for &(t, seq, ev) in &lane.incoming {
                        lane.wheel.schedule_with_seq(t, seq, ev);
                    }
                    lane.incoming.clear();
                    lane.batch.clear();
                    lane.wheel.drain_until(horizon, &mut lane.batch);
                    lane.sense.clear();
                    lane.sense.reserve(lane.batch.len());
                    for ev in &lane.batch {
                        lane.sense.push(match ev.event {
                            MacEv::TxStart { sender } => {
                                let (sensed, (x, y)) = medium.sense_pure(scratch, sender, ev.time);
                                PreSense {
                                    sensed,
                                    x,
                                    y,
                                    valid: true,
                                }
                            }
                            _ => NO_SENSE,
                        });
                    }
                });
            }
            if let (Some(t0), Some(p)) = (t0, self.profile.as_deref_mut()) {
                p.sync_s += t0.elapsed().as_secs_f64();
            }

            // ---- Sequential phase: dispatch the window in exact global
            // (time, seq) order, merging the sorted batches with the live
            // near queue. ----
            let mut cursor = vec![0usize; shards];
            loop {
                let mut best: Option<(f64, u64, Src)> = None;
                for (d, lane) in lanes.iter().enumerate() {
                    if let Some(ev) = lane.batch.get(cursor[d]) {
                        if best
                            .as_ref()
                            .is_none_or(|(t, s, _)| (ev.time, ev.seq) < (*t, *s))
                        {
                            best = Some((ev.time, ev.seq, Src::Lane(d)));
                        }
                    }
                }
                if let Some((t, s)) = self.core.events.peek_key() {
                    if t <= horizon && best.as_ref().is_none_or(|(bt, bs, _)| (t, s) < (*bt, *bs)) {
                        best = Some((t, s, Src::Near));
                    }
                }
                let Some((t, _seq, src)) = best else {
                    break; // window fully dispatched
                };
                if t > duration {
                    break 'run;
                }
                let (event, pre) = match src {
                    Src::Near => (self.core.events.pop().expect("peeked").event, NO_SENSE),
                    Src::Lane(d) => {
                        self.core.events.force_now(t);
                        let i = cursor[d];
                        cursor[d] += 1;
                        (lanes[d].batch[i].event, lanes[d].sense[i])
                    }
                };
                self.core.stats.events_processed += 1;
                match event {
                    MacEv::TxStart { sender } => {
                        // Inject the precomputed sense unless an active-set
                        // mutation landed inside its invalidation band this
                        // window; invalidated verdicts re-evaluate in place.
                        let inj = if pre.valid {
                            let clean = self.medium.mutations().iter().all(|&(mx, my)| {
                                let (dx, dy) = (mx - pre.x, my - pre.y);
                                dx * dx + dy * dy > r_inval2
                            });
                            clean.then_some(pre.sensed)
                        } else {
                            None
                        };
                        self.on_tx_start_with(sender, inj);
                    }
                    other => self.dispatch(other),
                }
            }

            // ---- Advance the window (teleporting over idle gaps). ----
            let mut next = f64::INFINITY;
            if let Some((t, _)) = self.core.events.peek_key() {
                next = next.min(t);
            }
            for lane in &mut lanes {
                if let Some((t, _)) = lane.wheel.peek_key() {
                    next = next.min(t);
                }
            }
            if let Some(rt) = self.core.route.as_deref() {
                for stage in &rt.stage {
                    for &(t, _, _) in stage {
                        next = next.min(t);
                    }
                }
            }
            if next > duration {
                break; // idle past the end — identical cut to sequential
            }
            horizon = next + h;
        }
        self.medium.set_mutation_logging(false);
        self.medium.clear_mutations();
        self.core.route = None;
    }

    /// [`MacEngine::run_sharded`] with per-phase wall-time accounting
    /// (identical results; see [`MacEngine::run_profiled`]). The window
    /// machinery — staging, parallel drains and sense precompute, and the
    /// barriers — lands in [`crate::mac::PhaseProfile::sync_s`].
    pub fn run_profiled_sharded(
        &mut self,
        duration: f64,
        shards: usize,
    ) -> crate::mac::PhaseProfile {
        self.profile = Some(Box::default());
        let started = std::time::Instant::now();
        self.run_sharded(duration, shards);
        self.finish_profile(started)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// The pool must hand every index out exactly once per scatter,
    /// across repeated scatters, worker threads or not — including on a
    /// single-core host (condvar parking, no livelock).
    #[test]
    fn pool_scatters_every_index_once() {
        for workers in [0, 1, 3] {
            let pool = ShardPool::new(workers);
            for n in [0usize, 1, 4, 33] {
                let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                pool.scatter(n, &|i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "workers={workers} n={n}"
                );
            }
        }
    }

    /// Lane cells alias-check: disjoint indices, one writer each.
    #[test]
    fn lane_cells_give_disjoint_access() {
        let mut lanes = vec![0u64; 8];
        let cells = LaneCells::new(&mut lanes);
        let pool = ShardPool::new(2);
        pool.scatter(8, &|i| {
            let lane = unsafe { cells.lane(i) };
            *lane = i as u64 + 1;
        });
        assert_eq!(lanes, (1..=8).collect::<Vec<u64>>());
    }

    /// A panicking task must propagate out of `scatter` (not hang the
    /// barrier), and the pool must stay usable for later scatters.
    #[test]
    fn pool_propagates_task_panics_and_survives() {
        let pool = ShardPool::new(2);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scatter(8, &|i| {
                if i == 5 {
                    panic!("boom");
                }
            });
        }));
        assert!(res.is_err(), "panic in a task must escape scatter");
        let hits: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
        pool.scatter(8, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
