//! Outputs of every workload at the default seed, measured on the commit
//! that introduced the benchmark. The enterprise-tcp row agrees with the
//! 400-station row of `tcp_rows` in the committed `BENCH_netscale.json`,
//! which simulates the same floor for the same 10 s. A goodput is pinned
//! as its `f64` bit pattern; the scenario matrix as the FNV-1a digest of
//! its results JSONL followed by its telemetry JSONL.
//!
//! A change that is meant to keep the simulation's behaviour must
//! reproduce these exactly; the benchmark counts a repetition that does
//! not as failed.

pub const PINNED: &[(&str, &[(&str, u64)])] = &[
    (
        "enterprise-udp",
        &[
            ("events", 3_815_692),
            ("frames_sent", 16_752),
            ("frames_delivered", 15_656),
            ("collisions", 663),
            ("handoffs", 24),
            // 87,673,600 bit/s
            ("goodput_bits", 0x4194_e72c_0000_0000),
        ],
    ),
    (
        "city-udp",
        &[
            ("events", 2_882_377),
            ("frames_sent", 11_032),
            ("frames_delivered", 10_338),
            ("collisions", 509),
            ("handoffs", 0),
            // 231,571,200 bit/s
            ("goodput_bits", 0x41ab_9afe_0000_0000),
        ],
    ),
    (
        "enterprise-tcp",
        &[
            ("events", 1_166_428),
            ("frames_sent", 65_405),
            ("frames_delivered", 61_103),
            ("collisions", 4_274),
            ("handoffs", 158),
            // 45,015,040 bit/s
            ("goodput_bits", 0x4185_7700_0000_0000),
        ],
    ),
    (
        "scenario-matrix",
        &[
            ("runs", 122),
            ("failed_runs", 0),
            ("digest", 0x0a4b_3b6b_b6de_6323),
        ],
    ),
];
