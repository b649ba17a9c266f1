//! Criterion micro-benchmarks of the discrete-event queue: push/pop churn
//! is the hot loop of the multi-cell spatial simulator (a few events in
//! flight per station, hundreds of stations, minutes of sim time), so its
//! throughput gets pinned down here, for a backlog and for steady churn.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

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
    g.measurement_time(Duration::from_secs(2)).sample_size(30);

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
    g.finish();
}

criterion_group!(benches, bench_eventqueue);
criterion_main!(benches);
