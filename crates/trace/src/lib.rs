//! # softrate-trace — channel traces and the Table 4 workloads
//!
//! The paper evaluates SoftRate with trace-driven simulation: software-radio
//! probe traces specify the channel's behaviour per (time, rate), and ns-3
//! replays them (§4.1, §6.1). This crate reproduces that methodology over
//! the `softrate-phy`/`softrate-channel` substrate:
//!
//! * [`schema`] — [`schema::TraceEntry`], [`schema::LinkTrace`] (per-rate
//!   time series on one fading realization), frame-fate lookup, the
//!   omniscient oracle, and flat [`schema::BerSample`] records.
//! * [`recipes`] — Table 4 as data: static, walking, Doppler-sweep,
//!   interference and static-short-range recipes, with paper-scale defaults
//!   and `smoke()` variants.
//! * [`generate`] — the probe loops that produce traces and samples, plus
//!   the interference-detection and false-positive studies of §5.3.
//! * [`snr_training`] — building trained/untrained SNR tables from traces
//!   (§6.1).
//! * [`cache`] — JSON load-or-generate caching under `results/`.
//! * [`par`] — a tiny ordered thread-pool map for batch jobs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod generate;
pub mod par;
pub mod recipes;
pub mod schema;
pub mod snr_training;

/// Convenient glob-import of the most common items.
pub mod prelude {
    pub use crate::cache::load_or_generate;
    pub use crate::generate::{
        alternating_trace, doppler_trace, interference_detection_samples, mobile_ber_samples,
        quiet_detection_run, static_ber_samples, static_short_trace, walking_trace, walking_traces,
        DetectionOutcome, DetectionSample,
    };
    pub use crate::par::par_map;
    pub use crate::recipes::{
        AlternatingRecipe, DopplerRecipe, InterferenceRecipe, StaticRecipe, StaticShortRecipe,
        WalkingRecipe, N_RATES, PROBE_INTERVAL, PROBE_PAYLOAD,
    };
    pub use crate::schema::{BerSample, FrameFate, LinkTrace, TraceEntry};
    pub use crate::snr_training::{
        observations_from_samples, observations_from_trace, train_snr_table, SnrObservation,
    };
}
