//! Criterion micro-benchmarks of the three kernels on the spatial
//! simulator's hot path:
//!
//! * `snr_between` — log-distance path loss (distance + `log10`), the
//!   carrier-sense / interference arithmetic the pruning radii avoid;
//! * `Jakes::gain` — the fused single-pass sum-of-sinusoids evaluation
//!   over preinterleaved `(w, phase)` pairs;
//! * `analytic_frame_success_raw` — the closed-form BER and success
//!   kernels (`analytic_ber` into `frame_success_prob`), and the
//!   banded rate oracle (`OracleBands`) that almost never needs it;
//!
//! Numbers here anchor DESIGN.md §7's cost model; the end-to-end
//! effect is tracked by `netscale` / `BENCH_netscale.json`.
//!
//! `SOFTRATE_BENCH_QUICK=1` shrinks every measurement budget to ~100 ms
//! so CI can smoke the bench harness without paying for statistics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use softrate_bench::bench_budget;

use softrate_channel::analytic::{analytic_ber, frame_success_prob, OracleBands};
use softrate_channel::jakes::JakesFading;
use softrate_net::mobility::MobilitySpec;
use softrate_net::spatial::SpatialSpec;

fn params() -> softrate_net::spatial::SpatialParams {
    SpatialSpec {
        ap_cols: 3,
        ap_rows: 3,
        ap_spacing_m: 25.0,
        n_stations: 4,
        snr_ref_db: None,
        path_loss_exp: None,
        sense_snr_db: Some(13.0),
        capture_sir_db: None,
        doppler_hz: None,
        mobility: MobilitySpec::Static,
        roaming: None,
    }
    .resolve()
    .expect("bench spec is valid")
}

fn bench_snr_between(c: &mut Criterion) {
    let mut g = c.benchmark_group("spatial_kernels");
    g.measurement_time(bench_budget()).sample_size(30);
    let p = params();
    let from = softrate_net::geometry::Point { x: 3.7, y: 11.2 };
    g.bench_function("snr_between", |b| {
        let mut x = 0.0f64;
        b.iter(|| {
            x += 0.1;
            let to = softrate_net::geometry::Point {
                x: 40.0 + (x % 17.0),
                y: 20.0 - (x % 9.0),
            };
            softrate_net::physics::snr_between(&p, from, to)
        })
    });
    g.bench_function("range_band_inversion", |b| {
        let mut t = 0.0f64;
        b.iter(|| {
            t += 0.25;
            p.range_band(t % 30.0)
        })
    });
    g.finish();
}

fn bench_jakes_gain(c: &mut Criterion) {
    let mut g = c.benchmark_group("spatial_kernels");
    g.measurement_time(bench_budget()).sample_size(30);
    for (doppler, name) in [(2.0, "static_2hz"), (400.0, "vehicular_400hz")] {
        let fading = JakesFading::new(doppler, 7);
        g.bench_function(BenchmarkId::new("jakes_gain_fused", name), |b| {
            let mut t = 0.0;
            b.iter(|| {
                t += 1e-5;
                fading.gain(t)
            })
        });
    }
    g.finish();
}

fn bench_frame_success(c: &mut Criterion) {
    let mut g = c.benchmark_group("spatial_kernels");
    g.measurement_time(bench_budget()).sample_size(30);
    g.bench_function("analytic_frame_success_raw", |b| {
        let mut k = 0usize;
        b.iter(|| {
            k = k.wrapping_add(1);
            frame_success_prob(analytic_ber(5.0 + (k % 257) as f64 * 0.1, k % 6), 11_520)
        })
    });
    g.bench_function("oracle_bands_best_rate", |b| {
        let bands = OracleBands::new(11_520);
        let mut snr = 0.0f64;
        b.iter(|| {
            snr += 1.7e-3;
            bands.best_rate(-5.0 + (snr % 40.0))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_snr_between,
    bench_jakes_gain,
    bench_frame_success
);
criterion_main!(benches);
