//! Golden-equivalence tests for the unified MAC engine.
//!
//! The `MacEngine<M: Medium>` refactor collapsed the trace-backed and
//! spatial simulators onto one DCF state machine. These tests pin the
//! refactor's contract: the unified engine reproduces **byte-identical**
//! JSONL to the pre-refactor simulators for one trace-backed builtin
//! (`fast-fading`) and one spatial builtin (`dense-enterprise`). The
//! goldens under `tests/goldens/` were generated by the pre-refactor code
//! (`softrate-scenarios run --name <x> --duration 1.0 --out <golden>`);
//! any change to backoff-draw order, event ordering, fate sampling, or
//! feedback semantics shows up here as a byte diff.

use softrate::scenario::builtin;
use softrate::scenario::engine::{expand, outcomes_to_jsonl, run_all_checked, RunOptions};

fn builtin_jsonl(name: &str, duration: f64, threads: usize) -> String {
    let mut spec = builtin::get(name).expect("builtin exists");
    spec.duration = duration;
    let plans = expand(&spec).expect("expands");
    let opts = RunOptions {
        threads: Some(threads),
        telemetry: None,
    };
    outcomes_to_jsonl(&run_all_checked(&plans, &opts))
}

#[test]
fn fast_fading_matches_pre_refactor_golden() {
    let got = builtin_jsonl("fast-fading", 1.0, 2);
    let want = include_str!("goldens/fast-fading-1s.jsonl");
    assert_eq!(
        got, want,
        "trace-backed path diverged from the pre-refactor engine"
    );
}

#[test]
fn dense_enterprise_matches_pre_refactor_golden() {
    let got = builtin_jsonl("dense-enterprise", 1.0, 2);
    let want = include_str!("goldens/dense-enterprise-1s.jsonl");
    assert_eq!(
        got, want,
        "spatial path diverged from the pre-refactor engine"
    );
}

#[test]
fn unified_engine_is_thread_count_deterministic_on_both_paths() {
    for name in ["fast-fading", "dense-enterprise"] {
        let serial = builtin_jsonl(name, 0.5, 1);
        let parallel = builtin_jsonl(name, 0.5, 4);
        assert_eq!(
            serial, parallel,
            "{name}: thread count must not leak into RunReport-derived JSONL"
        );
    }
}
