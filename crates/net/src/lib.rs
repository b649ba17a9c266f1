//! # softrate-net — multi-cell spatial network simulation
//!
//! The scale layer of the SoftRate reproduction: many overlapping BSSs,
//! station mobility and roaming, and **streaming channels** that draw frame
//! fates on demand instead of precomputing a `LinkTrace` per link — O(1)
//! memory per link, which is what lets one process simulate hundreds of
//! stations for minutes of sim time.
//!
//! * [`geometry`] — points, the AP grid, log-distance path loss.
//! * [`mobility`] — static / linear / random-waypoint models, all pure
//!   functions of time.
//! * [`stream`] — SplitMix64, the per-link deterministic coin stream.
//! * [`channel`] — [`channel::StreamingLink`]: Jakes fading + the
//!   calibrated analytic SNR→BER map, sampled at transmit time.
//! * [`grid`] — the carrier-sense index: per-cell end-descending lists
//!   of the active transmitters that could be audible in each cell.
//! * [`spatial`] — the `[topology.spatial]` specification and its resolved
//!   parameters (grid, thresholds, roaming policy).
//! * [`sim`] — the multi-cell simulator: the shared
//!   `softrate_sim::mac::MacEngine` configured with a spatial medium —
//!   physical carrier sense, SIR-based inter-cell interference with the
//!   §6.4 collision-feedback semantics, and RSSI-threshold handoff with
//!   adapter state preserved or reset.
//!
//! Scenario documents reach this layer through `softrate-scenario`'s
//! `[topology.spatial]` table; the `netscale` bench binary measures its
//! events/sec scaling.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod channel;
pub mod geometry;
pub mod grid;
pub mod mobility;
pub mod sim;
pub mod spatial;
pub mod stream;

/// Convenient glob-import of the most common items.
pub mod prelude {
    pub use crate::channel::StreamingLink;
    pub use crate::geometry::{ap_grid, grid_bounds, mean_snr_db, Point, Rect};
    pub use crate::mobility::{MobilitySpec, MobilityWalker};
    pub use crate::sim::{SpatialConfig, SpatialSim};
    pub use crate::spatial::{HandoffPolicy, RoamingSpec, SpatialParams, SpatialSpec};
    pub use crate::stream::{mix_seed, SplitMix64};
}
