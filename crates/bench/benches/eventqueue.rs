//! Criterion micro-benchmarks of the discrete-event queue: push/pop churn
//! is the hot loop of the multi-cell spatial simulator (a few events in
//! flight per station, hundreds of stations, minutes of sim time), so its
//! throughput gets pinned down here, for a backlog, for steady churn, for
//! a kickoff surge and for a sparse single-cell run.
//!
//! `SOFTRATE_BENCH_QUICK=1` shrinks every measurement budget to ~100 ms
//! so CI can smoke the bench harness without paying for statistics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use softrate_bench::bench_budget;

use softrate_sim::event::EventQueue;

/// Deterministic pseudo-times with no ordering pattern.
fn times(n: usize) -> Vec<f64> {
    let mut x: u64 = 0x243F_6A88_85A3_08D3;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

fn bench_eventqueue(c: &mut Criterion) {
    let mut g = c.benchmark_group("eventqueue");
    g.measurement_time(bench_budget()).sample_size(30);

    // Fill-then-drain: the cost of building and consuming a backlog.
    for n in [1_000usize, 100_000] {
        let ts = times(n);
        g.throughput(Throughput::Elements(2 * n as u64));
        g.bench_with_input(BenchmarkId::new("fill_drain", n), &ts, |b, ts| {
            b.iter(|| {
                let mut q = EventQueue::new();
                for (i, &t) in ts.iter().enumerate() {
                    q.schedule(t, i as u32);
                }
                let mut acc = 0u64;
                while let Some(e) = q.pop() {
                    acc = acc.wrapping_add(e.event as u64);
                }
                acc
            })
        });
    }

    // Steady-state churn: the simulator's actual shape — a bounded number
    // of pending events, every pop scheduling a successor.
    for pending in [256usize, 4_096] {
        let ts = times(pending);
        g.throughput(Throughput::Elements(100_000));
        g.bench_with_input(BenchmarkId::new("churn", pending), &ts, |b, ts| {
            b.iter(|| {
                let mut q = EventQueue::new();
                for (i, &t) in ts.iter().enumerate() {
                    q.schedule(t, i as u32);
                }
                let mut acc = 0u64;
                for _ in 0..100_000u32 {
                    let e = q.pop().expect("queue stays populated");
                    acc = acc.wrapping_add(e.event as u64);
                    q.schedule_in(1e-3, e.event);
                }
                acc
            })
        });
    }

    // A kickoff surge, city-udp's start-up shape: 10k stations' first
    // accesses spread over the first 100 ms, then churn where every pop
    // schedules its successor a DIFS plus a slot-scale backoff later.
    let ts = times(10_000);
    g.throughput(Throughput::Elements(100_000));
    g.bench_with_input(BenchmarkId::new("surge", 10_000), &ts, |b, ts| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for (i, &t) in ts.iter().enumerate() {
                q.schedule(t * 0.1, i as u32);
            }
            let mut acc = 0u64;
            for _ in 0..100_000u32 {
                let e = q.pop().expect("queue stays populated");
                acc = acc.wrapping_add(e.event as u64);
                q.schedule_in(34e-6 + (e.event % 32) as f64 * 9e-6, e.event);
            }
            acc
        })
    });

    // A sparse single cell, the scenario matrix's shape: 8 pending events,
    // each pop scheduling its successor 0.2–3 ms later, so most 8 µs
    // buckets are empty and 100k pops cover about 1,000 wheel turns.
    let ts = times(8);
    g.throughput(Throughput::Elements(100_000));
    g.bench_with_input(BenchmarkId::new("sparse", 8), &ts, |b, ts| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for (i, &t) in ts.iter().enumerate() {
                q.schedule(t * 3e-3, i as u32);
            }
            let mut acc = 0u64;
            for k in 0..100_000u32 {
                let e = q.pop().expect("queue stays populated");
                acc = acc.wrapping_add(e.event as u64);
                q.schedule_in(
                    2e-4 + (k.wrapping_mul(2_654_435_761) % 2_800) as f64 * 1e-6,
                    e.event,
                );
            }
            acc
        })
    });
    g.finish();
}

criterion_group!(benches, bench_eventqueue);
criterion_main!(benches);
