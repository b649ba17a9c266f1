//! Integration tests of the fault-injection subsystem (`softrate-faults`).
//!
//! The hard invariants, end to end through the facade crate:
//!
//! * determinism — a faulted run's results, metrics, trace, and decision
//!   streams are byte-identical across `--threads 1/2/8`, including
//!   under proptest-generated fault schedules mixing all five fault
//!   classes;
//! * invisibility when off — a spec with an empty `[faults]` table
//!   produces byte-identical streams to the same spec without the
//!   table, on both media;
//! * graceful degradation — the `ap-blackout` builtin panics nowhere,
//!   re-homes stations off the dead AP (`reassoc` rows with measured
//!   `outage_s`), attributes every outage loss, and recovers (the
//!   `resilience` report's exit-status contract);
//! * attribution balance — jammer losses land in the `jamming` bucket
//!   and the five-cause per-station balance still holds;
//! * the fault-era streams validate against the checked-in schema.

use proptest::prelude::*;

use softrate::scenario::builtin;
use softrate::scenario::engine::{expand, outcomes_to_jsonl, run_all_checked, RunOptions};
use softrate::scenario::spec::{
    AdapterSpec, ApOutageSpec, ChurnSpec, FaultsSpec, HintFaultsSpec, JammerSpec, NoiseStepSpec,
    ScenarioSpec,
};
use softrate::telemetry::inspect::{resilience, summarize_with, Schema};
use softrate::telemetry::{RecorderConfig, TelemetryReport};

/// The all-streams-on recorder every test here uses.
fn full_recorder() -> RecorderConfig {
    RecorderConfig {
        trace: true,
        decisions: true,
        ..RecorderConfig::default()
    }
}

/// Runs a spec and returns all four streams in matrix order:
/// `(results, metrics, trace, decisions)`.
fn streams(spec: &ScenarioSpec, threads: usize) -> (String, String, String, String) {
    let plans = expand(spec).expect("spec expands");
    let with = run_all_checked(
        &plans,
        &RunOptions {
            threads: Some(threads),
            telemetry: Some(full_recorder()),
        },
    );
    let joined = |stream: fn(&TelemetryReport) -> String| -> String {
        with.iter()
            .map(|o| stream(o.as_ref().expect("run completes").1.as_ref().unwrap()))
            .collect()
    };
    (
        outcomes_to_jsonl(&with),
        joined(TelemetryReport::metrics_jsonl),
        joined(TelemetryReport::trace_jsonl),
        joined(TelemetryReport::decisions_jsonl),
    )
}

/// A small faultable two-cell deployment (roaming on, so AP outages can
/// re-home stations) used as the proptest substrate.
fn fault_base() -> ScenarioSpec {
    ScenarioSpec::from_toml(
        r#"
name = "fault-prop"
duration = 0.8
seed = 77
adapters = ["SoftRate"]

[topology.spatial]
ap_cols = 2
ap_rows = 1
ap_spacing_m = 40.0
n_stations = 12
mobility = "Static"

[topology.spatial.roaming]
hysteresis_db = 3.0
handoff = "Reset"

[channel]
model = "Analytic"
snr_db = 55.0
fading = "None"

[traffic]
kind = "UdpBulk"
"#,
    )
    .expect("base spec parses")
}

#[test]
fn ap_blackout_reassociates_attributes_and_recovers() {
    // The flagship resilience scenario, shortened for test runtime: the
    // middle AP dies at 0.75s for 0.75s; stations must flee, every
    // uplink frame into the dead AP must be an `outage` loss, and
    // aggregate goodput must climb back after the restart.
    let mut spec = builtin::get("ap-blackout").expect("builtin exists");
    spec.duration = 2.5;
    spec.adapters = Some(vec![AdapterSpec::SoftRate]);
    spec.faults
        .as_mut()
        .expect("ap-blackout declares [faults]")
        .ap_outage = Some(ApOutageSpec {
        ap: 1,
        at: 0.75,
        duration: 0.75,
    });
    let (results, metrics, _, _) = streams(&spec, 2);
    assert_eq!(results.lines().count(), 1, "one run, no panic rows");
    // Fault lifecycle and re-association are on the record.
    assert!(metrics.contains("\"fault\":\"ap_outage\""), "{metrics}");
    assert!(metrics.contains("\"phase\":\"start\""), "{metrics}");
    assert!(metrics.contains("\"phase\":\"end\""), "{metrics}");
    assert!(
        metrics.contains("\"kind\":\"reassoc\""),
        "stations must re-home off the dead AP"
    );
    // Every loss is attributed and the outage bucket is in use.
    let (report, balanced) = summarize_with(&metrics, None).expect("summarizes");
    assert!(
        balanced,
        "unattributed losses under an AP outage:\n{report}"
    );
    assert!(report.contains("outage"), "{report}");
    // The resilience contract: this run recovers, so the report's exit
    // status (what CI gates on) is success.
    let (res, recovered) = resilience(&metrics, 0.8).expect("fault rows present");
    assert!(recovered, "ap-blackout must recover:\n{res}");
    assert!(res.contains("reassociations:"), "{res}");
    assert!(res.contains("time-to-reassociate"), "{res}");
}

/// 64-bit FNV-1a over `bytes`: a stable digest for pinning output streams.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The faulted path, pinned absolutely: a shortened ap-blackout run (AP 1
/// dark from 0.4 s for 0.5 s) exercises queue drops, re-association and
/// outage-attributed losses, and each of its four streams must keep the
/// exact byte length and FNV-1a digest pinned here.
#[test]
fn ap_blackout_streams_match_their_pinned_digests() {
    let mut spec = builtin::get("ap-blackout").expect("builtin exists");
    spec.duration = 1.6;
    spec.adapters = Some(vec![AdapterSpec::SoftRate]);
    spec.faults
        .as_mut()
        .expect("ap-blackout declares [faults]")
        .ap_outage = Some(ApOutageSpec {
        ap: 1,
        at: 0.4,
        duration: 0.5,
    });
    let (results, metrics, trace, decisions) = streams(&spec, 1);
    assert!(
        metrics.contains("\"fault\":\"ap_outage\""),
        "the outage must actually fire"
    );
    let pinned: [(&str, &str, usize, u64); 4] = [
        ("results", &results, 715, 0x95f9_f1d0_4391_2154),
        ("metrics", &metrics, 234_762, 0x482c_99c3_6d86_90ed),
        ("trace", &trace, 27_171_896, 0x2060_4725_056e_cea1),
        ("decisions", &decisions, 110_750, 0x999d_7bbd_0184_01da),
    ];
    for (name, stream, len, digest) in pinned {
        assert_eq!(
            (stream.len(), fnv1a64(stream.as_bytes())),
            (len, digest),
            "{name} stream moved"
        );
    }
}

#[test]
fn jammer_losses_balance_and_streams_validate() {
    let mut spec = builtin::get("jammer-burst-cell-edge").expect("builtin exists");
    spec.duration = 1.2;
    spec.adapters = Some(vec![AdapterSpec::SoftRate]);
    spec.faults
        .as_mut()
        .expect("jammer builtin declares [faults]")
        .jammer = Some(JammerSpec {
        x: 30.0,
        y: 0.0,
        power_db: Some(10.0),
        at: 0.4,
        duration: 0.4,
    });
    let (_, metrics, trace, decisions) = streams(&spec, 2);
    let (report, balanced) = summarize_with(&metrics, None).expect("summarizes");
    assert!(
        balanced,
        "jammer losses must balance per station:\n{report}"
    );
    assert!(report.contains("jamming"), "{report}");
    // The checked-in schema knows the fault-era rows (fault, reassoc,
    // the five-cause loss columns, the interval fault tag).
    let schema_text = std::fs::read_to_string("tests/schemas/telemetry.schema.json")
        .expect("schema is checked in");
    let schema = Schema::parse(&schema_text).expect("schema parses");
    schema.validate_stream(&metrics).expect("metrics validate");
    schema.validate_stream(&trace).expect("trace validates");
    schema
        .validate_stream(&decisions)
        .expect("decisions validate");
}

#[test]
fn empty_faults_table_is_byte_invisible_on_both_media() {
    // `[faults]` spelled but unused must lower to nothing: same bytes
    // on the trace-backed medium and the spatial one.
    for name in ["fast-fading", "dense-enterprise"] {
        let mut spec = builtin::get(name).expect("builtin exists");
        spec.duration = 0.4;
        spec.adapters = Some(vec![AdapterSpec::SoftRate]);
        let off = streams(&spec, 2);
        spec.faults = Some(FaultsSpec {
            ap_outage: None,
            jammer: None,
            noise_step: None,
            churn: None,
            hint: None,
        });
        let noop = streams(&spec, 2);
        assert_eq!(off, noop, "{name}: an empty [faults] table must be free");
    }
}

proptest! {
    // Each case runs the simulation three times; keep the case count
    // small and the deployment cheap.
    #![proptest_config(ProptestConfig::with_cases(3))]

    // The tentpole determinism invariant under *generated* fault
    // schedules: all five classes active at proptest-chosen times and
    // intensities, and every stream byte-identical across thread counts.
    #[test]
    fn generated_fault_schedules_are_thread_invariant(
        out_at in 0.05f64..0.35,
        out_dur in 0.1f64..0.3,
        jam_at in 0.1f64..0.5,
        jam_dur in 0.1f64..0.3,
        jam_power in 0.0f64..12.0,
        step_db in 2.0f64..10.0,
        joins in 1usize..6,
        drop_prob in 0.0f64..0.4,
    ) {
        let mut spec = fault_base();
        spec.faults = Some(FaultsSpec {
            ap_outage: Some(ApOutageSpec { ap: 1, at: out_at, duration: out_dur }),
            jammer: Some(JammerSpec {
                x: 20.0,
                y: 0.0,
                power_db: Some(jam_power),
                at: jam_at,
                duration: jam_dur,
            }),
            noise_step: Some(NoiseStepSpec { at: 0.4, delta_db: step_db, duration: Some(0.2) }),
            churn: Some(ChurnSpec {
                join_count: Some(joins),
                join_at: Some(0.2),
                join_ramp_s: Some(0.2),
                leave_count: Some(1),
                leave_at: Some(0.5),
                leave_ramp_s: Some(0.1),
            }),
            hint: Some(HintFaultsSpec { drop_prob: Some(drop_prob), quantize_db: Some(2.0) }),
        });
        let a = streams(&spec, 1);
        let b = streams(&spec, 2);
        let c = streams(&spec, 8);
        prop_assert!(!a.1.is_empty(), "metrics must flow");
        prop_assert_eq!(&a, &b, "threads 2 diverged from threads 1");
        prop_assert_eq!(&b, &c, "threads 8 diverged from threads 2");
        // The schedule actually fired: lifecycle rows are present.
        prop_assert!(a.1.contains("\"kind\":\"fault\""));
    }
}
