//! The metric catalogue: every end-to-end and per-layer metric with its
//! unit and direction, the bound of each end-to-end metric, and which
//! end-to-end metric each per-layer one should move on which workload.
//! `BENCHMARK.json` at the repository root lists the same metrics; a test
//! keeps the two in step.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.20,
        what: "fastest repetition's host time: SpatialSim::run on the spatial workloads; \
               parse, expand, run and render on scenario-matrix",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "median set-up time over the repetitions: SpatialSim::new on the spatial \
               workloads; parsing and expanding the 22 built-ins on scenario-matrix",
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.20,
        what: "most bytes live on the heap at once during the timed repetitions",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric a change to this layer should move.
    pub moves: &'static str,
    /// The workloads where it should move, with today's share.
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

const SENSE: &str = "city-udp (54% of traced time), enterprise-udp (34%); not enterprise-tcp (12%)";
const DISPATCH: &str = "enterprise-udp (62% of traced time)";
const FRAME: &str = "enterprise-tcp (begin alone is 25% of traced time)";
const ROAM: &str = "city-udp, where roaming checks cover 10,000 stations";
const HANDOFF: &str = "enterprise-tcp and enterprise-udp; city-udp is too short to hand off";
const MATRIX: &str = "scenario-matrix";
const SPATIAL: &str = "every spatial workload";

pub const PER_LAYER: &[PerLayer] = &[
    layer("net.sense_s", "s", "lower", "wall_s", SENSE),
    layer("net.sense_calls", "count", "lower", "wall_s", SENSE),
    layer("net.sense_ns", "ns", "lower", "wall_s", SENSE),
    layer(
        "net.busy_ratio",
        "ratio",
        "lower",
        "wall_s",
        "enterprise-udp and city-udp (0.996); enterprise-tcp is 0.87",
    ),
    layer("sim.dispatch_s", "s", "lower", "wall_s", DISPATCH),
    layer("sim.events", "count", "lower", "wall_s", DISPATCH),
    layer("sim.ns_per_event", "ns", "lower", "wall_s", DISPATCH),
    layer("sim.traced_s", "s", "lower", "wall_s", SPATIAL),
    layer("net.begin_s", "s", "lower", "wall_s", FRAME),
    layer("net.collision_s", "s", "lower", "wall_s", FRAME),
    layer("net.fate_s", "s", "lower", "wall_s", FRAME),
    layer("sim.outcome_s", "s", "lower", "wall_s", FRAME),
    layer("sim.transport_s", "s", "lower", "wall_s", FRAME),
    layer("sim.frames_sent", "count", "higher", "wall_s", FRAME),
    layer("sim.frames_delivered", "count", "higher", "wall_s", FRAME),
    layer("sim.delivery_ratio", "ratio", "higher", "wall_s", FRAME),
    layer("sim.collisions", "count", "lower", "wall_s", FRAME),
    layer("net.roam_s", "s", "lower", "wall_s", ROAM),
    layer("net.handoffs", "count", "lower", "wall_s", HANDOFF),
    layer(
        "net.inter_cell_corruptions",
        "count",
        "lower",
        "wall_s",
        HANDOFF,
    ),
    layer(
        "trace.overhead",
        "ratio",
        "lower",
        "none: it says how far to trust the shares",
        "every workload",
    ),
    layer("scenario.parse_s", "s", "lower", "wall_s", MATRIX),
    layer("scenario.expand_s", "s", "lower", "wall_s", MATRIX),
    layer("scenario.serialize_s", "s", "lower", "wall_s", MATRIX),
    layer("scenario.channelgen_s", "s", "lower", "wall_s", MATRIX),
    layer("scenario.single_cell_s", "s", "lower", "wall_s", MATRIX),
    layer("scenario.spatial_s", "s", "lower", "wall_s", MATRIX),
    layer("scenario.run_p50_ms", "ms", "lower", "wall_s", MATRIX),
    layer("scenario.run_p90_ms", "ms", "lower", "wall_s", MATRIX),
    layer("scenario.runs", "count", "higher", "wall_s", MATRIX),
    layer(
        "scenario.failed_runs",
        "count",
        "lower",
        "failed operations",
        MATRIX,
    ),
    layer(
        "telemetry.render_s",
        "s",
        "lower",
        "wall_s, peak_heap_mb",
        "scenario-matrix; the recorder is off elsewhere",
    ),
    layer(
        "telemetry.bytes",
        "bytes",
        "lower",
        "wall_s, peak_heap_mb",
        "scenario-matrix; the recorder is off elsewhere",
    ),
    layer(
        "telemetry.rows",
        "count",
        "lower",
        "wall_s, peak_heap_mb",
        "scenario-matrix; the recorder is off elsewhere",
    ),
    layer(
        "telemetry.overhead",
        "ratio",
        "lower",
        "wall_s, peak_heap_mb",
        "scenario-matrix; the recorder is off elsewhere",
    ),
];

/// The unit of any catalogued metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use serde::Value;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn text<'a>(v: &'a Value, key: &str) -> &'a str {
        match v.get(key) {
            Some(Value::Str(s)) => s,
            other => panic!("`{key}` is not a string: {other:?}"),
        }
    }

    fn number(v: &Value, key: &str) -> f64 {
        match v.get(key) {
            Some(Value::Float(f)) => *f,
            Some(Value::UInt(u)) => *u as f64,
            Some(Value::Int(i)) => *i as f64,
            other => panic!("`{key}` is not a number: {other:?}"),
        }
    }

    fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
        match v.get(key) {
            Some(Value::Seq(items)) => items,
            other => panic!("`{key}` is not a list: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = serde_json::parse_value(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let e2e = list(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit);
            assert_eq!(text(j, "better"), m.better);
            assert_eq!(number(j, "bound"), m.bound, "{}", m.name);
        }
        let layers = list(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit);
            assert_eq!(text(j, "better"), m.better);
        }
        let workloads = list(&doc, "workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (j, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(text(j, "name"), w.name());
            assert_eq!(text(j, "why"), w.why());
        }
    }

    #[test]
    fn setup_has_the_largest_bound_and_names_are_unique() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let mut names: Vec<_> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let all = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all);
        assert_eq!(unit_of("telemetry.bytes"), "bytes");
    }
}
