//! `netscale` — events/sec and wall time of the multi-cell spatial
//! simulator versus station count.
//!
//! The scaling story of `softrate-net`: streaming channels keep memory
//! O(stations), so the only question is event-loop throughput. This bench
//! runs a roaming random-waypoint deployment at a ladder of station
//! counts — 3x3-AP floors up to 1600 stations, then constant-density
//! city-scale floors at 10k/50k/100k — and reports simulated seconds,
//! wall seconds, events/sec, and sim-time speedup, then drops
//! machine-readable results in `BENCH_netscale.json` at the repository
//! root — the seed of the repo's perf trajectory (compare across PRs).
//! Every rung (station count, AP grid, simulated seconds, kickoff
//! stagger) is defined once in [`LADDER`]; the traffic modes and the
//! smoke ladder select rungs from it rather than redefining them.
//!
//! Measurement hygiene: one unrecorded warmup run precedes the ladder
//! and every point reports the best of two timed runs (the simulation is
//! deterministic — only the wall clock varies), so a scheduler hiccup
//! does not land in the committed trajectory.
//!
//! `--smoke` (or `SOFTRATE_SMOKE=1`) shrinks the ladder and the duration.
//! `--profile` additionally prints a per-phase wall-time breakdown
//! (sense / begin / collision / fate / roam / transport / outcome /
//! sync / queue+dispatch) per ladder point, so future perf PRs know where
//! the time goes. Profiled rows keep identical simulation results but
//! carry timer overhead, so the JSON is only refreshed on unprofiled
//! runs. `--gate` is the CI perf check: one quick 400-station measurement
//! that must stay within 30% of the committed trajectory — plus, when the
//! committed file carries them, a 10k-station city point, a 400-station
//! TCP point and a sharded 1600-station point (skipped with a notice when
//! the host has fewer cores than the committed row's shard count). Every
//! gated run must also process exactly its pinned number of events.
//!
//! `--shards N` runs the ladder under the conservative parallel scheduler
//! (`SpatialConfig::shards = N`). Results are byte-identical to the
//! sequential rows — the shard-invariance suite pins that — so the rung
//! table is shared and only the wall numbers differ; a full unprofiled
//! sharded UDP run rewrites the `sharded_rows` trajectory (tagged with
//! the shard count and the host cores the measurement had).
//!
//! `--traffic tcp|onoff|udp` swaps the workload: `tcp` runs the ladder
//! under per-station TCP NewReno uploads (AP transmitters carry the ACK
//! downlink through the shared transport layer), `onoff` under bursty
//! half-duty Poisson sources. The default saturated-UDP ladder rewrites
//! the `rows` trajectory in `BENCH_netscale.json`; the TCP ladder (a
//! shorter one — the gate only needs its 400-station point) rewrites
//! `tcp_rows`; `onoff` ladders are printed only.
//!
//! `--metrics <path>` attaches the telemetry recorder to every ladder run
//! and writes the per-station metrics JSONL to `path`; `--decisions
//! <path>` additionally streams the rate-decision ledger. The recorder
//! never touches the event queue or any RNG, so `events` at every ladder
//! point is unchanged — but the wall numbers carry recorder overhead, so
//! recorder runs never rewrite `BENCH_netscale.json`.

use serde::{Deserialize, Serialize};
use softrate_bench::{banner, smoke_mode};
use softrate_net::mobility::MobilitySpec;
use softrate_net::sim::{SpatialConfig, SpatialSim, SpatialTraffic};
use softrate_net::spatial::{HandoffPolicy, RoamingSpec, SpatialSpec};
use softrate_sim::config::{AdapterKind, TrafficKind};
use softrate_sim::mac::PhaseProfile;
use softrate_sim::transport::TransportConfig;

/// One ladder rung: the deployment and measurement window, defined once
/// for every traffic mode and shard count.
#[derive(Debug, Clone, Copy)]
struct Rung {
    stations: usize,
    /// AP grid (`cols x rows` at 25 m pitch) — scaled with the station
    /// count so per-AP density stays at the dense-enterprise ~160-180
    /// stations/AP, keeping per-event cost comparable across the ladder.
    ap_cols: usize,
    ap_rows: usize,
    /// Simulated seconds: long enough at the small rungs for a stable
    /// rate, shortened at city scale so the full ladder stays affordable.
    sim_seconds: f64,
    /// Saturated-uplink kickoff stagger — the default 200 µs up to 1600
    /// stations (the committed-trajectory shape), compressed at city
    /// scale so the whole floor still kicks off in the first fraction of
    /// the (shorter) run.
    stagger_s: f64,
}

const fn rung(stations: usize, ap_cols: usize, ap_rows: usize, sim_seconds: f64) -> Rung {
    Rung {
        stations,
        ap_cols,
        ap_rows,
        sim_seconds,
        stagger_s: 2e-4,
    }
}

const fn city(stations: usize, ap_cols: usize, ap_rows: usize, sim_seconds: f64) -> Rung {
    Rung {
        stations,
        ap_cols,
        ap_rows,
        sim_seconds,
        // Kick the whole floor off within the first fifth of the run.
        stagger_s: sim_seconds / (5.0 * stations as f64),
    }
}

/// The one ladder table. Traffic modes take prefixes/slices of it; the
/// 10k/50k/100k city rungs are UDP-only (the TCP gate needs only its
/// 400-station point).
const LADDER: &[Rung] = &[
    rung(50, 3, 3, 10.0),
    rung(100, 3, 3, 10.0),
    rung(200, 3, 3, 10.0),
    rung(400, 3, 3, 10.0),
    rung(800, 3, 3, 10.0),
    rung(1600, 3, 3, 10.0),
    city(10_000, 8, 8, 2.0),
    city(50_000, 18, 18, 1.0),
    city(100_000, 25, 25, 0.5),
];

/// The smoke ladder (tiny rungs, not part of [`LADDER`]'s trajectory).
const SMOKE_LADDER: &[Rung] = &[rung(20, 3, 3, 2.0), rung(60, 3, 3, 2.0)];

/// One ladder point.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct NetScaleRow {
    stations: usize,
    aps: usize,
    sim_seconds: f64,
    wall_seconds: f64,
    events: u64,
    events_per_sec: f64,
    /// Simulated seconds per wall second.
    speedup: f64,
    goodput_bps: f64,
    frames_sent: u64,
    handoffs: u64,
    /// Spatial domains the run was scheduled over (`None`/1 = sequential
    /// engine; pre-sharding rows carry `None`).
    shards: Option<usize>,
    /// Host cores available when the row was measured — the context a
    /// parallel-efficiency comparison needs (a 4-shard row measured on one
    /// core is a correctness datapoint, not a speedup claim).
    cores: Option<usize>,
}

/// The whole result file.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct NetScaleResults {
    bench: String,
    smoke: bool,
    /// The saturated-uplink-UDP trajectory (the primary CI gate).
    rows: Vec<NetScaleRow>,
    /// The TCP-traffic trajectory (`--traffic tcp`); absent until a full
    /// TCP ladder has been committed, at which point the gate also pins
    /// its 400-station row.
    tcp_rows: Option<Vec<NetScaleRow>>,
    /// The sharded-scheduler UDP trajectory (`--shards N`); once
    /// committed, the gate also pins its 1600-station row on hosts with
    /// enough cores.
    sharded_rows: Option<Vec<NetScaleRow>>,
}

fn spec(r: &Rung) -> SpatialSpec {
    SpatialSpec {
        ap_cols: r.ap_cols,
        ap_rows: r.ap_rows,
        ap_spacing_m: 25.0,
        n_stations: r.stations,
        snr_ref_db: None,
        path_loss_exp: None,
        // Sensing range of roughly one cell pitch: real spatial reuse,
        // real inter-cell interference (same shape as dense-enterprise).
        sense_snr_db: Some(13.0),
        capture_sir_db: None,
        doppler_hz: None,
        mobility: MobilitySpec::RandomWaypoint {
            speed_mps: 1.5,
            pause_s: 2.0,
        },
        roaming: Some(RoamingSpec {
            hysteresis_db: 3.0,
            check_interval_s: None,
            handoff: HandoffPolicy::Preserve,
        }),
    }
}

/// The run configuration for one rung (traffic, duration, stagger,
/// shards) — the single place a ladder row's parameters turn into a
/// [`SpatialConfig`].
fn config(r: &Rung, traffic: &SpatialTraffic, shards: usize, batch: bool) -> SpatialConfig {
    let mut cfg = SpatialConfig::new(AdapterKind::SoftRate, spec(r));
    cfg.traffic = traffic.clone();
    cfg.duration = r.sim_seconds;
    cfg.kickoff_stagger_s = r.stagger_s;
    cfg.shards = shards;
    cfg.batch = batch;
    cfg
}

/// The ladder workload selected by `--traffic` (default: the saturated
/// uplink UDP the committed trajectory is measured under).
fn traffic_for(mode: &str) -> SpatialTraffic {
    let flows = |traffic| SpatialTraffic::Flows(TransportConfig::enterprise(traffic, true, 0x5A7A));
    match mode {
        "udp" => SpatialTraffic::SaturatedUplinkUdp,
        "tcp" => flows(TrafficKind::Tcp),
        "onoff" => flows(TrafficKind::OnOff {
            rate_pps: 200.0,
            on_s: 0.5,
            off_s: 0.5,
        }),
        other => {
            eprintln!("netscale: unknown --traffic `{other}` (udp | tcp | onoff)");
            std::process::exit(2);
        }
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Prints one ladder point's per-phase wall-time breakdown.
fn print_profile(p: &PhaseProfile) {
    let pct = |s: f64| 100.0 * s / p.total_s.max(1e-12);
    println!(
        "          profile: sense {:6.3}s ({:4.1}%)  begin {:6.3}s ({:4.1}%)  \
         collision {:6.3}s ({:4.1}%)  fate {:6.3}s ({:4.1}%)",
        p.sense_s,
        pct(p.sense_s),
        p.begin_s,
        pct(p.begin_s),
        p.collision_s,
        pct(p.collision_s),
        p.fate_s,
        pct(p.fate_s),
    );
    println!(
        "                   roam  {:6.3}s ({:4.1}%)  transport {:6.3}s ({:4.1}%)  \
         outcome {:6.3}s ({:4.1}%)",
        p.medium_ev_s,
        pct(p.medium_ev_s),
        p.transport_s,
        pct(p.transport_s),
        p.outcome_s,
        pct(p.outcome_s),
    );
    println!(
        "                   sync  {:6.3}s ({:4.1}%)  queue+dispatch {:6.3}s ({:4.1}%)  \
         deferrals {}  transmissions {}",
        p.sync_s,
        pct(p.sync_s),
        p.queue_s,
        pct(p.queue_s),
        p.deferrals,
        p.transmissions,
    );
    // Batch statistics: kernel time plus the same-tick cohort-size
    // distribution (width ≥ 2 cohorts only — width-1 "cohorts" are the
    // ordinary scalar path and are not counted).
    // Carrier-sense work: index entries examined per sense (a count, so
    // it compares across hosts where the seconds above do not).
    let senses = p.deferrals + p.transmissions;
    println!(
        "                   sense candidates {}  per sense {:.3}",
        p.sense_candidates,
        p.sense_candidates as f64 / senses.max(1) as f64,
    );
    let (p50, p95) = cohort_percentiles(&p.cohort_hist);
    println!(
        "                   kernel {:6.3}s ({:4.1}%)  cohorts {}  \
         width p50 {}  p95 {}  max {}",
        p.kernel_s,
        pct(p.kernel_s),
        p.cohorts,
        p50,
        p95,
        p.cohort_max,
    );
}

/// p50/p95 cohort widths from the profile's width histogram (bucket `i`
/// < 15 holds width `i + 1`; the final bucket is "16 or wider", reported
/// as 16+ via the max column).
fn cohort_percentiles(hist: &[u64; 16]) -> (u64, u64) {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return (0, 0);
    }
    let rank = |q: f64| -> u64 {
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in hist.iter().enumerate() {
            seen += c;
            if seen >= target {
                return (i + 1) as u64;
            }
        }
        16
    };
    (rank(0.50), rank(0.95))
}

/// The CI perf gate (`--gate`): quick measurements against the committed
/// trajectory. Tolerance is generous (events/sec may drop to 70% of the
/// committed row before the gate trips) because it has to absorb
/// runner-to-runner hardware variance on top of real regressions; the
/// committed numbers themselves come from full `netscale` runs on a
/// quiet machine.
fn run_gate() -> ! {
    const GATE_STATIONS: usize = 400;
    const GATE_SHARD_STATIONS: usize = 1600;
    const GATE_CITY_STATIONS: usize = 10_000;
    const GATE_SIM_SECONDS: f64 = 2.0;
    const GATE_CITY_SIM_SECONDS: f64 = 0.5;
    const GATE_TOLERANCE: f64 = 0.70;
    // `events_processed` of each gated run, so the gate also checks that
    // it timed the same computation: a sense bug that skips audible
    // transmitters changes the deferral count, and may well run faster.
    const GATE_EVENTS_UDP: u64 = 1_719_563;
    const GATE_EVENTS_CITY: u64 = 2_028_372;
    const GATE_EVENTS_TCP: u64 = 253_008;
    const GATE_EVENTS_SHARDED: u64 = 3_815_692;
    banner("netscale --gate — perf regression check vs BENCH_netscale.json");
    let committed: NetScaleResults = match std::fs::read_to_string("BENCH_netscale.json")
        .map_err(|e| e.to_string())
        .and_then(|s| serde_json::from_str(&s).map_err(|e| e.to_string()))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gate: cannot read committed BENCH_netscale.json: {e}");
            std::process::exit(1);
        }
    };
    let Some(baseline) = committed.rows.iter().find(|r| r.stations == GATE_STATIONS) else {
        eprintln!("gate: committed file has no {GATE_STATIONS}-station row");
        std::process::exit(1);
    };
    // Warmup, then best of two (the simulation is deterministic; only the
    // clock varies). Returns events/s and the event count.
    let measure = |stations: usize, traffic: &SpatialTraffic, duration: f64, shards| {
        let rung = LADDER
            .iter()
            .find(|r| r.stations == stations)
            .expect("gate rungs are in the ladder table");
        let mut cfg = config(rung, traffic, shards, true);
        cfg.duration = duration;
        let sim = SpatialSim::new(cfg).expect("bench spec is valid");
        let started = std::time::Instant::now();
        let report = sim.run();
        let eps = report.events_processed as f64 / started.elapsed().as_secs_f64().max(1e-9);
        (eps, report.events_processed)
    };
    let check = |label: &str,
                 stations: usize,
                 traffic: &SpatialTraffic,
                 shards,
                 sim_seconds: f64,
                 committed_eps,
                 expected_events: u64| {
        measure(stations, traffic, sim_seconds / 4.0, shards);
        let (a, events) = measure(stations, traffic, sim_seconds, shards);
        let (b, _) = measure(stations, traffic, sim_seconds, shards);
        if events != expected_events {
            eprintln!(
                "gate FAILED ({label}): {stations} stations, {sim_seconds} s processed \
                 {events} events, expected {expected_events}"
            );
            std::process::exit(1);
        }
        let events_per_sec = a.max(b);
        let floor: f64 = committed_eps * GATE_TOLERANCE;
        println!(
            "{label}: measured {events_per_sec:.0} events/s at {stations} stations; \
             committed {committed_eps:.0}; floor {floor:.0}"
        );
        if events_per_sec < floor {
            eprintln!(
                "gate FAILED ({label}): events/sec regressed more than {:.0}% below the \
                 committed trajectory",
                (1.0 - GATE_TOLERANCE) * 100.0
            );
            std::process::exit(1);
        }
    };
    check(
        "udp",
        GATE_STATIONS,
        &SpatialTraffic::SaturatedUplinkUdp,
        1,
        GATE_SIM_SECONDS,
        baseline.events_per_sec,
        GATE_EVENTS_UDP,
    );
    // The 10k-station city rung: pins throughput at ladder scale, where
    // the cohort-batched hot path and the memo layers carry the load. A
    // shorter window keeps the gate affordable (events/sec is a rate).
    if let Some(city) = committed
        .rows
        .iter()
        .find(|r| r.stations == GATE_CITY_STATIONS)
    {
        check(
            "udp-10k",
            GATE_CITY_STATIONS,
            &SpatialTraffic::SaturatedUplinkUdp,
            1,
            GATE_CITY_SIM_SECONDS,
            city.events_per_sec,
            GATE_EVENTS_CITY,
        );
    } else {
        println!("(no committed {GATE_CITY_STATIONS}-station row; small rung only)");
    }
    // The TCP ladder point, once a TCP trajectory has been committed.
    if let Some(tcp_baseline) = committed
        .tcp_rows
        .as_ref()
        .and_then(|rows| rows.iter().find(|r| r.stations == GATE_STATIONS))
    {
        check(
            "tcp",
            GATE_STATIONS,
            &traffic_for("tcp"),
            1,
            GATE_SIM_SECONDS,
            tcp_baseline.events_per_sec,
            GATE_EVENTS_TCP,
        );
    } else {
        println!("(no committed TCP trajectory with a {GATE_STATIONS}-station row; udp only)");
    }
    // The sharded ladder point: pins the parallel scheduler's throughput
    // at ≥70% of the committed sharded trajectory — but only on hosts
    // with at least as many cores as the committed row had shards (a
    // smaller host cannot reproduce the parallelism, only the results).
    if let Some(srow) = committed
        .sharded_rows
        .as_ref()
        .and_then(|rows| rows.iter().find(|r| r.stations == GATE_SHARD_STATIONS))
    {
        let cores = host_cores();
        let srow_shards = srow.shards.unwrap_or(1);
        if cores < srow_shards {
            println!(
                "(sharded gate skipped: host has {cores} core(s), committed row used \
                 {srow_shards} shards on {} core(s))",
                srow.cores.unwrap_or(1)
            );
        } else {
            check(
                "sharded-udp",
                GATE_SHARD_STATIONS,
                &SpatialTraffic::SaturatedUplinkUdp,
                srow_shards,
                GATE_SIM_SECONDS,
                srow.events_per_sec,
                GATE_EVENTS_SHARDED,
            );
        }
    } else {
        println!("(no committed sharded trajectory with a {GATE_SHARD_STATIONS}-station row)");
    }
    println!("gate passed");
    std::process::exit(0);
}

fn main() {
    let smoke = smoke_mode();
    let profile = std::env::args().any(|a| a == "--profile");
    if std::env::args().any(|a| a == "--gate") {
        run_gate();
    }
    let args: Vec<String> = std::env::args().collect();
    let traffic_mode = args
        .iter()
        .position(|a| a == "--traffic")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
        .unwrap_or("udp")
        .to_string();
    let shards: usize = args
        .iter()
        .position(|a| a == "--shards")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.parse().expect("--shards takes a positive integer"))
        .unwrap_or(1);
    // `--batch off` is the escape hatch: cohort width 1 through the same
    // dispatch path, byte-identical results (the equality suite pins it).
    let batch = match args
        .iter()
        .position(|a| a == "--batch")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
        .unwrap_or("on")
    {
        "on" => true,
        "off" => false,
        other => {
            eprintln!("netscale: unknown --batch `{other}` (on | off)");
            std::process::exit(2);
        }
    };
    let metrics_path = args
        .iter()
        .position(|a| a == "--metrics")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let decisions_path = args
        .iter()
        .position(|a| a == "--decisions")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let traffic = traffic_for(&traffic_mode);
    let cores = host_cores();
    banner(&format!(
        "netscale — spatial simulator throughput vs station count \
         ({traffic_mode}, {shards} shard(s), {cores} core(s))"
    ));
    let ladder: &[Rung] = if smoke {
        SMOKE_LADDER
    } else if traffic_mode == "tcp" {
        // The TCP trajectory exists for the CI gate's 400-station point;
        // a short ladder around it keeps the full run affordable.
        &LADDER[..4]
    } else {
        LADDER
    };

    // Warm the allocator, page cache, and branch predictors before any
    // timed run — the first ladder point otherwise absorbs all the
    // cold-start cost.
    {
        let mut cfg = config(&LADDER[0], &traffic, shards, batch);
        cfg.duration = 1.0;
        SpatialSim::new(cfg).expect("bench spec is valid").run();
    }

    println!(
        "{:>9} {:>5} {:>7} {:>8} {:>9} {:>12} {:>13} {:>9} {:>11} {:>9}",
        "stations",
        "aps",
        "shards",
        "sim s",
        "wall s",
        "events",
        "events/s",
        "speedup",
        "Mbit/s",
        "handoffs"
    );
    let mut rows = Vec::new();
    let mut metrics_out = String::new();
    let mut decisions_out = String::new();
    for (ladder_idx, rung) in ladder.iter().enumerate() {
        // Best of two timed runs per point (identical results — the
        // simulation is deterministic; only the wall clock varies), so a
        // scheduler hiccup doesn't land in the committed trajectory.
        let mut wall = f64::INFINITY;
        let mut best: Option<(softrate_sim::mac::RunReport, Option<PhaseProfile>)> = None;
        for _ in 0..if profile { 1 } else { 2 } {
            let mut cfg = config(rung, &traffic, shards, batch);
            if metrics_path.is_some() || decisions_path.is_some() {
                cfg.telemetry = Some(softrate_telemetry::RecorderConfig {
                    decisions: decisions_path.is_some(),
                    ..softrate_telemetry::RecorderConfig::default()
                });
            }
            let sim = SpatialSim::new(cfg).expect("bench spec is valid");
            let started = std::time::Instant::now();
            let (report, phases) = if profile {
                let (report, phases) = sim.run_profiled();
                (report, Some(phases))
            } else {
                (sim.run(), None)
            };
            let w = started.elapsed().as_secs_f64();
            if w < wall {
                wall = w;
                best = Some((report, phases));
            }
        }
        let (mut report, phases) = best.expect("at least one run");
        if let Some(mut telemetry) = report.telemetry.take() {
            // One "run" per ladder point, in ladder order.
            telemetry.stamp_run_idx(ladder_idx as u64);
            metrics_out.push_str(&telemetry.metrics_jsonl());
            decisions_out.push_str(&telemetry.decisions_jsonl());
        }
        let row = NetScaleRow {
            stations: rung.stations,
            aps: rung.ap_cols * rung.ap_rows,
            sim_seconds: rung.sim_seconds,
            wall_seconds: wall,
            events: report.events_processed,
            events_per_sec: report.events_processed as f64 / wall.max(1e-9),
            speedup: rung.sim_seconds / wall.max(1e-9),
            goodput_bps: report.aggregate_goodput_bps,
            frames_sent: report.frames_sent,
            handoffs: report.handoffs,
            shards: Some(shards),
            cores: Some(cores),
        };
        println!(
            "{:>9} {:>5} {:>7} {:>8.1} {:>9.3} {:>12} {:>13.0} {:>9.1} {:>11.2} {:>9}",
            row.stations,
            row.aps,
            row.shards.unwrap_or(1),
            row.sim_seconds,
            row.wall_seconds,
            row.events,
            row.events_per_sec,
            row.speedup,
            row.goodput_bps / 1e6,
            row.handoffs
        );
        if let Some(p) = &phases {
            print_profile(p);
        }
        rows.push(row);
    }

    if metrics_path.is_some() || decisions_path.is_some() {
        for (path, out) in [
            (&metrics_path, &metrics_out),
            (&decisions_path, &decisions_out),
        ] {
            let Some(path) = path else { continue };
            if let Some(parent) = std::path::Path::new(path).parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            match std::fs::write(path, out) {
                Ok(()) => eprintln!("[wrote {path}]"),
                Err(e) => eprintln!("warning: cannot write {path}: {e}"),
            }
        }
        // Recorder overhead is in the wall numbers: never commit them.
        eprintln!("[recorder run: BENCH_netscale.json left untouched (recorder overhead)]");
        return;
    }
    if traffic_mode == "onoff" || (shards > 1 && traffic_mode != "udp") {
        // Only the UDP, TCP, and sharded-UDP trajectories are committed.
        eprintln!(
            "[--traffic {traffic_mode} run: BENCH_netscale.json left untouched \
             (uncommitted workload)]"
        );
        return;
    }
    if profile {
        eprintln!("[--profile run: BENCH_netscale.json left untouched (timer overhead)]");
        return;
    }
    if !batch {
        // The committed trajectory is the default (batched) hot path.
        eprintln!("[--batch off run: BENCH_netscale.json left untouched (escape hatch)]");
        return;
    }
    if smoke {
        // Smoke ladders have no 400-station row and must not clobber the
        // committed trajectory the CI gate compares against.
        eprintln!("[--smoke run: BENCH_netscale.json left untouched (partial ladder)]");
        return;
    }
    // Full unprofiled run: refresh this workload's trajectory, preserving
    // the other ones from the committed file.
    let committed: Option<NetScaleResults> = std::fs::read_to_string("BENCH_netscale.json")
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok());
    let results = if traffic_mode == "tcp" {
        NetScaleResults {
            bench: "netscale".to_string(),
            smoke,
            rows: committed
                .as_ref()
                .map(|c| c.rows.clone())
                .unwrap_or_default(),
            tcp_rows: Some(rows),
            sharded_rows: committed.and_then(|c| c.sharded_rows),
        }
    } else if shards > 1 {
        NetScaleResults {
            bench: "netscale".to_string(),
            smoke,
            rows: committed
                .as_ref()
                .map(|c| c.rows.clone())
                .unwrap_or_default(),
            tcp_rows: committed.and_then(|c| c.tcp_rows),
            sharded_rows: Some(rows),
        }
    } else {
        NetScaleResults {
            bench: "netscale".to_string(),
            smoke,
            rows,
            tcp_rows: committed.as_ref().and_then(|c| c.tcp_rows.clone()),
            sharded_rows: committed.and_then(|c| c.sharded_rows),
        }
    };
    let path = "BENCH_netscale.json";
    match serde_json::to_string_pretty(&results) {
        Ok(s) => {
            if let Err(e) = std::fs::write(path, s) {
                eprintln!("warning: cannot write {path}: {e}");
            } else {
                eprintln!("[wrote {path}]");
            }
        }
        Err(e) => eprintln!("warning: cannot serialize results: {e}"),
    }
}
