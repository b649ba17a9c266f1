//! # softrate-scenario — the declarative, parallel scenario engine
//!
//! The single entry point for running experiments over the SoftRate
//! reproduction. A scenario is *data* — a TOML (or JSON) document
//! describing topology, channel, traffic, adapters, duration, and seed —
//! and optionally a sweep of parameter axes that expands into a cartesian
//! run matrix:
//!
//! ```toml
//! name = "demo"
//! duration = 2.0
//! seed = 7
//! adapters = ["SoftRate", "Rraa"]
//!
//! [topology]
//! n_clients = 1
//!
//! [channel]
//! model = "Analytic"
//! snr_db = 18.0
//!
//! [channel.fading.Flat]
//! doppler_hz = 40.0
//!
//! [traffic]
//! kind = "Tcp"
//!
//! [sweep]
//! "channel.snr_db" = [12.0, 18.0, 24.0]
//! ```
//!
//! * [`spec`] — the schema ([`spec::ScenarioSpec`] and friends).
//! * [`toml`] — the TOML front-end over the serde `Value` model.
//! * [`channelgen`] — spec → per-link [`softrate_trace::schema::LinkTrace`]
//!   (closed-form analytic model over real Jakes fading, or the full PHY
//!   with on-disk caching).
//! * [`engine`] — sweep expansion and [`engine::run_matrix`], which runs a
//!   matrix in parallel and hands each outcome to a sink in plan order.
//!   Output is byte-identical across repeat runs and thread counts.
//! * [`builtin`] — a curated library of ready-to-run scenarios
//!   (`softrate-scenarios list`).
//!
//! The `softrate-scenarios` binary exposes all of it from the command
//! line: `list | show | run | sweep`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builtin;
pub mod channelgen;
pub mod engine;
pub mod spec;
pub mod toml;

/// Convenient glob-import of the most common items.
pub mod prelude {
    pub use crate::builtin;
    pub use crate::engine::{expand, run_matrix, run_spec, RunPlan, RunResult};
    pub use crate::spec::{
        AdapterSpec, ChannelModel, ChannelSpec, Direction, ScenarioSpec, Sweep, SweepAxis,
        TopologySpec, TrafficModel, TrafficSpec,
    };
}
