//! # softrate-sim — trace-driven discrete-event network simulator
//!
//! The evaluation substrate of §6: the paper replaces ns-3's PHY models
//! with software-radio traces; this crate is the surrounding machinery,
//! built from scratch:
//!
//! * [`event`] — deterministic event queue.
//! * [`timing`] — 802.11a/g-like MAC timing and air-time model.
//! * [`tcp`] — TCP NewReno endpoints (slow start, congestion avoidance,
//!   fast retransmit/recovery, RTO with Karn + backoff).
//! * [`config`] — topology + algorithm selection ([`config::AdapterKind`]).
//! * [`fault`] — deterministic fault injection (`softrate-faults`): AP
//!   outages, jammer bursts, noise-floor steps, station churn, and
//!   SoftPHY hint corruption, all timed-event or seeded-stochastic so
//!   faulted runs stay byte-identical across thread counts.
//! * [`feedback`] — the §6.4 collision-feedback semantics, shared with the
//!   multi-cell spatial simulator (`softrate-net`).
//! * [`mac`] — the generic DCF engine ([`mac::MacEngine`]) behind every
//!   simulator: DIFS/backoff/CW, in-flight tracking, feedback-window
//!   resolution, retries, and rate-adapter plumbing, generic over a
//!   [`mac::Medium`] that supplies frame fates, carrier sense, and
//!   collision topology.
//! * [`transport`] — the pluggable transport layer shared by every
//!   medium: TCP NewReno flows (both directions), saturated UDP, a
//!   non-saturated Poisson on–off source, the wired AP↔LAN segment, and
//!   RFC 6298 RTO timer plumbing, all behind the
//!   [`transport::TransportHost`] seam.
//! * [`netsim`] — the Figure 12 simulation: the engine configured with a
//!   trace-backed single-collision-domain medium (probabilistic carrier
//!   sense, drop-tail queues, a 50 Mbps / 10 ms wired segment, TCP/UDP
//!   flows, and rate-selection auditing against the omniscient oracle).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod event;
pub mod fault;
pub mod feedback;
pub mod mac;
pub mod netsim;
pub mod tcp;
pub mod timing;
pub mod transport;

/// Convenient glob-import of the most common items.
pub mod prelude {
    pub use crate::config::{AdapterKind, SimConfig};
    pub use crate::event::EventQueue;
    pub use crate::mac::{HandoffRecord, MacEngine, Medium, RateAudit, RunReport};
    pub use crate::netsim::NetSim;
    pub use crate::tcp::{TcpConfig, TcpReceiver, TcpSender};
    pub use crate::timing::{attempt_airtime, data_airtime, lossless_airtimes};
    pub use crate::transport::{Payload, TransportConfig, TransportEv, TransportLayer};
}
