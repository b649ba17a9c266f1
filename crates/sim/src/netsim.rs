//! The trace-driven network simulator: Figure 12's topology end to end.
//!
//! N wireless clients exchange TCP bulk data with LAN hosts through an AP.
//! The wireless hop is a single collision domain with an 802.11-like DCF
//! (DIFS + binary-exponential backoff, base-rate feedback frames after
//! SIFS, retry limit) and *probabilistic carrier sense* between client
//! senders (§6.4). The DCF itself — backoff, in-flight tracking, the
//! feedback-window state machine — lives in the shared
//! [`MacEngine`](crate::mac::MacEngine); everything above the MAC — TCP
//! NewReno flows in either direction, saturated UDP, the bursty on–off
//! source, the wired AP↔LAN hop, and the RTO plumbing — lives in the
//! shared [`TransportLayer`](crate::transport::TransportLayer). This
//! module contributes [`TraceMedium`], the environment where frame fates
//! on a clean medium come from per-link [`LinkTrace`]s, overlapping
//! transmissions corrupt each other ("we assume both colliding frames are
//! lost", §6.1), and the SoftRate feedback under collision follows §6.4:
//! if the receiver's detector flags the collision (80 % of the time, 100 %
//! for ideal SoftRate), the feedback carries the interference-free BER
//! from the trace; otherwise a very high BER indicating a noise loss.
//! Silent losses (preamble lost) yield no feedback at all, except that
//! postamble-carrying frames whose tail outlives the interferer produce a
//! postamble-only ACK (ideal mode).

use std::collections::VecDeque;
use std::sync::Arc;

use softrate_trace::schema::{hash_uniform, FrameFate, LinkTrace};

use crate::config::SimConfig;
use crate::mac::{
    ActiveTx, AttemptInfo, MacCore, MacEngine, MacEv, MacParams, Medium, Port, RunReport,
};
use crate::transport::{Payload, TransportConfig, TransportEv, TransportHost, TransportLayer};

pub use crate::mac::RateAudit;

/// One unidirectional wireless link (client->AP data, or AP->client ACK
/// path — and the converse for download flows). The rate adapter and
/// retry/CW state live in the engine's matching [`Port`].
struct WLink {
    src: usize,
    flow: usize,
    trace: Arc<LinkTrace>,
    queue: VecDeque<Payload>,
}

/// One wireless node's link service order (0 = AP, 1.. = clients); its
/// busy/backoff state is the engine's matching [`crate::mac::Sender`].
struct WNode {
    links_out: Vec<usize>,
    rr: usize,
}

type Core = MacCore<TransportEv, Payload>;

/// Round-robin choice among the node's links with queued frames (free
/// function: the transport host needs it while the medium is split into
/// fields).
fn pick_link(nodes: &[WNode], links: &[WLink], node: usize) -> Option<usize> {
    let n = nodes[node].links_out.len();
    for k in 0..n {
        let idx = nodes[node].links_out[(nodes[node].rr + k) % n];
        if !links[idx].queue.is_empty() {
            return Some(idx);
        }
    }
    None
}

/// The [`TransportHost`] over the trace-backed medium: MAC queues indexed
/// by link id, sender pokes through the engine core.
struct TraceHost<'a> {
    links: &'a mut Vec<WLink>,
    nodes: &'a mut Vec<WNode>,
    core: &'a mut Core,
}

impl TransportHost for TraceHost<'_> {
    fn now(&self) -> f64 {
        self.core.now()
    }

    fn queue_len(&self, link: usize) -> usize {
        self.links[link].queue.len()
    }

    fn enqueue(&mut self, link: usize, payload: Payload) {
        self.links[link].queue.push_back(payload);
        if self.core.recorder.is_some() {
            let station = self.links[link].flow;
            let depth = self.links[link].queue.len();
            let now = self.core.now();
            if let Some(rec) = self.core.recorder.as_deref_mut() {
                rec.on_enqueue(now, station, depth);
            }
        }
        let node = self.links[link].src;
        let port = pick_link(self.nodes, self.links, node).expect("a frame was just queued");
        self.core.wake(node, port);
    }

    fn schedule_in(&mut self, delay: f64, ev: TransportEv) {
        self.core.events.schedule_in(delay, MacEv::Medium(ev));
    }

    fn recorder(&mut self) -> Option<&mut softrate_telemetry::Recorder> {
        self.core.recorder.as_deref_mut()
    }
}

/// The trace-backed single-collision-domain environment: probabilistic
/// carrier sense, everything-corrupts-everything collisions, per-link
/// [`LinkTrace`] fates, and the shared transport layer above the MAC.
struct TraceMedium {
    cfg: SimConfig,
    links: Vec<WLink>,
    nodes: Vec<WNode>,
    transport: TransportLayer,
    /// Flow 0's data link (the Figure 15 rate-timeline observation point).
    timeline_link: usize,
}

impl Medium for TraceMedium {
    type Event = TransportEv;
    type TxInfo = Payload;

    fn kickoff(&mut self, core: &mut Core) {
        let mut host = TraceHost {
            links: &mut self.links,
            nodes: &mut self.nodes,
            core,
        };
        self.transport.kickoff(&mut host);
    }

    /// Round-robin choice among the node's links with queued frames.
    fn pick_port(&mut self, node: usize) -> Option<usize> {
        pick_link(&self.nodes, &self.links, node)
    }

    /// Probabilistic carrier sense: the AP and clients always hear each
    /// other; between clients the probability is configured (hidden
    /// terminals, §6.4).
    fn carrier_sense(&mut self, core: &Core, node: usize) -> Option<f64> {
        let mut sensed_until: Option<f64> = None;
        for tx in &core.active {
            let other_src = tx.sender;
            if other_src == node {
                continue;
            }
            let p = if node == 0 || other_src == 0 {
                1.0
            } else {
                self.cfg.carrier_sense_prob
            };
            let heard = hash_uniform(&[tx.id, node as u64, self.cfg.seed]) < p;
            if heard {
                sensed_until = Some(sensed_until.map_or(tx.end, |u: f64| u.max(tx.end)));
            }
        }
        sensed_until
    }

    fn begin_attempt(
        &mut self,
        _node: usize,
        port: usize,
        now: f64,
        _attempt: &mut softrate_core::adapter::TxAttempt,
    ) -> AttemptInfo<Payload> {
        let payload = *self.links[port]
            .queue
            .front()
            .expect("picked link has a frame");
        let payload_bytes = payload.on_air_bytes(self.cfg.tcp.mss);
        let is_segment = payload.is_segment();
        AttemptInfo {
            payload_bytes,
            counts_as_data: is_segment,
            // Audit against the omniscient oracle (Figures 14/18).
            audit_best: is_segment.then(|| {
                self.links[port]
                    .trace
                    .best_rate_at(now, self.cfg.frame_bits())
            }),
            timeline: is_segment && self.links[port].flow == 0 && port == self.timeline_link,
            info: payload,
        }
    }

    /// Single collision domain: every pair of overlapping non-RTS
    /// transmissions corrupts each other. RTS-protected transmissions
    /// reserved the medium and neither corrupt nor get corrupted.
    fn mark_collisions(&mut self, tx: &mut ActiveTx<Payload>, active: &mut [ActiveTx<Payload>]) {
        if tx.use_rts {
            return;
        }
        for o in active.iter_mut().filter(|o| !o.use_rts) {
            o.mark_corrupted(tx.start, tx.end, true);
            tx.mark_corrupted(o.start, o.end, true);
        }
    }

    /// Clean-channel fate from the trace.
    fn fate(&mut self, tx: &ActiveTx<Payload>) -> FrameFate {
        self.links[tx.port].trace.frame_fate(
            tx.rate_idx,
            tx.start,
            tx.payload_bytes * 8,
            tx.port as u64,
            tx.attempt,
        )
    }

    fn on_acked(&mut self, core: &mut Core, tx: &ActiveTx<Payload>) {
        core.stats.frames_delivered += u64::from(tx.info.is_segment());
        self.links[tx.port].queue.pop_front();
        let node = tx.sender;
        self.nodes[node].rr = (self.nodes[node].rr + 1) % self.nodes[node].links_out.len().max(1);
        let flow = self.links[tx.port].flow;
        let mut host = TraceHost {
            links: &mut self.links,
            nodes: &mut self.nodes,
            core,
        };
        self.transport.on_frame_delivered(&mut host, flow, tx.info);
    }

    fn on_dropped(&mut self, core: &mut Core, tx: &ActiveTx<Payload>) {
        self.links[tx.port].queue.pop_front();
        let flow = self.links[tx.port].flow;
        let mut host = TraceHost {
            links: &mut self.links,
            nodes: &mut self.nodes,
            core,
        };
        self.transport.on_frame_dropped(&mut host, flow); // queue space may have opened
    }

    fn after_outcome(&mut self, core: &mut Core, node: usize) {
        if let Some(port) = self.pick_port(node) {
            core.wake(node, port);
        }
    }

    fn on_event(&mut self, core: &mut Core, ev: TransportEv) {
        let mut host = TraceHost {
            links: &mut self.links,
            nodes: &mut self.nodes,
            core,
        };
        self.transport.on_event(&mut host, ev);
    }

    /// Telemetry groups per wireless flow: both directions of flow `f`
    /// (client `f`'s uplink and downlink) report as station `f`.
    fn telemetry_station(&self, port: usize) -> usize {
        self.links[port].flow
    }

    /// Every Medium event here is transport work (TCP timers, wired-hop
    /// deliveries, on-off source arrivals).
    fn event_is_transport(&self, _ev: &TransportEv) -> bool {
        true
    }
}

/// The simulator: a [`MacEngine`] configured with a [`TraceMedium`].
pub struct NetSim {
    engine: MacEngine<TraceMedium>,
}

impl NetSim {
    /// Builds the Figure 12 topology. `traces[2*i]` drives client `i`'s
    /// uplink (client->AP) and `traces[2*i + 1]` its downlink, mirroring
    /// the paper's use of a distinct trace per unidirectional link.
    pub fn new(cfg: SimConfig, traces: Vec<Arc<LinkTrace>>) -> Self {
        assert!(cfg.n_clients >= 1);
        assert!(
            traces.len() >= 2 * cfg.n_clients,
            "need two traces (up/down) per client"
        );
        let frame_bits = cfg.frame_bits();
        let payload_bytes = cfg.tcp.mss + crate::timing::IP_TCP_HEADER;

        let mut nodes: Vec<WNode> = (0..=cfg.n_clients)
            .map(|_| WNode {
                links_out: Vec::new(),
                rr: 0,
            })
            .collect();
        let mut links = Vec::new();
        let mut ports = Vec::new();
        let mut flow_links = Vec::new();

        for c in 0..cfg.n_clients {
            let client = c + 1;
            let up_trace = Arc::clone(&traces[2 * c]);
            let down_trace = Arc::clone(&traces[2 * c + 1]);

            // Uplink: client -> AP.
            let up_id = links.len();
            ports.push(Port::new(cfg.adapter.build(
                &up_trace,
                frame_bits,
                payload_bytes,
                cfg.seed ^ up_id as u64,
            )));
            links.push(WLink {
                src: client,
                flow: c,
                trace: up_trace,
                queue: VecDeque::new(),
            });
            nodes[client].links_out.push(up_id);

            // Downlink: AP -> client.
            let down_id = links.len();
            ports.push(Port::new(cfg.adapter.build(
                &down_trace,
                frame_bits,
                payload_bytes,
                cfg.seed ^ down_id as u64 ^ 0xD0,
            )));
            links.push(WLink {
                src: 0,
                flow: c,
                trace: down_trace,
                queue: VecDeque::new(),
            });
            nodes[0].links_out.push(down_id);

            flow_links.push(if cfg.upload {
                (up_id, down_id)
            } else {
                (down_id, up_id)
            });
        }

        let params = MacParams {
            postambles: cfg.adapter.postambles(),
            detect_prob: cfg.adapter.detect_prob(),
            backoff_seed: cfg.seed ^ 0x4E455453,
            collision_seed: cfg.seed,
        };
        let n_senders = cfg.n_clients + 1;
        let timeline_link = flow_links[0].0;
        let transport = TransportLayer::new(
            TransportConfig {
                traffic: cfg.traffic,
                upload: cfg.upload,
                tcp: cfg.tcp,
                queue_cap: cfg.queue_cap,
                wired_rate_bps: cfg.wired_rate_bps,
                wired_delay: cfg.wired_delay,
                seed: cfg.seed,
            },
            flow_links,
        );
        let medium = TraceMedium {
            cfg,
            links,
            nodes,
            transport,
            timeline_link,
        };
        let mut engine = MacEngine::new(n_senders, ports, params, medium);
        if let Some(tcfg) = engine.medium.cfg.telemetry.clone() {
            engine.core.recorder = Some(Box::new(softrate_telemetry::Recorder::new(
                tcfg,
                engine.medium.cfg.n_clients,
                n_senders,
            )));
        }
        // SoftPHY hint corruption (`softrate-faults`): installed in the
        // engine core so the adapter sees degraded feedback while the
        // recorder keeps observing the ground truth.
        if let Some(h) = engine.medium.cfg.hint_faults {
            if h.drop_prob > 0.0 || h.quantize_db > 0.0 {
                let seed = engine.medium.cfg.seed ^ 0x4849_4E54;
                engine.core.faults = Some(crate::fault::FaultDriver::new(h, seed));
            }
        }
        NetSim { engine }
    }

    /// Runs to `cfg.duration` and reports.
    pub fn run(mut self) -> RunReport {
        let duration = self.engine.medium.cfg.duration;
        self.engine.run(duration);

        let telemetry = self
            .engine
            .core
            .recorder
            .take()
            .map(|rec| rec.finish(duration));
        let m = &self.engine.medium;
        let stats = &mut self.engine.core.stats;
        let per_flow: Vec<f64> = (0..m.transport.n_flows())
            .map(|f| m.transport.flow_goodput_bps(f, duration))
            .collect();
        RunReport {
            adapter_name: m.cfg.adapter.name().to_string(),
            aggregate_goodput_bps: per_flow.iter().sum(),
            per_flow_goodput_bps: per_flow,
            audit: stats.audit,
            frames_sent: stats.frames_sent,
            frames_delivered: stats.frames_delivered,
            collisions: stats.collisions,
            silent_losses: stats.silent_losses,
            rate_timeline: std::mem::take(&mut stats.rate_timeline),
            events_processed: stats.events_processed,
            telemetry,
            ..RunReport::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdapterKind, TrafficKind};
    use softrate_trace::schema::TraceEntry;

    /// A trace following the paper's Figure 5 profile: BER changes by one
    /// decade per rate step, anchored at 1e-6 for the `best` rate (the
    /// highest whose 1440-byte frames are near-guaranteed).
    fn synthetic_trace(best: usize) -> Arc<LinkTrace> {
        let entry = move |r: usize| {
            let ber = (1e-6 * 10f64.powi(r as i32 - best as i32)).clamp(1e-9, 0.5);
            TraceEntry {
                t: 0.0,
                rate_idx: r,
                detected: true,
                header_ok: true,
                delivered: r <= best,
                true_ber: Some(ber),
                softphy_ber: Some(ber),
                snr_est_db: Some(20.0),
                true_snr_db: 20.0,
                probe_bits: 832,
            }
        };
        Arc::new(LinkTrace {
            name: "synthetic".into(),
            mode_name: "simulation".into(),
            interval: 0.005,
            duration: 0.005,
            series: (0..6).map(|r| vec![entry(r)]).collect(),
            seed: 0,
        })
    }

    fn run_with(adapter: AdapterKind, n_clients: usize, cs: f64, best: usize) -> RunReport {
        let mut cfg = SimConfig::new(adapter, n_clients);
        cfg.duration = 3.0;
        cfg.carrier_sense_prob = cs;
        let traces = (0..2 * n_clients).map(|_| synthetic_trace(best)).collect();
        NetSim::new(cfg, traces).run()
    }

    #[test]
    fn fixed_rate_moves_data() {
        let r = run_with(AdapterKind::Fixed(3), 1, 1.0, 5);
        assert!(
            r.aggregate_goodput_bps > 1e6,
            "goodput {}",
            r.aggregate_goodput_bps
        );
        assert!(r.frames_delivered > 0);
        assert_eq!(r.collisions, 0, "perfect carrier sense, one client");
    }

    #[test]
    fn omniscient_beats_low_fixed() {
        let omni = run_with(AdapterKind::Omniscient, 1, 1.0, 4);
        let slow = run_with(AdapterKind::Fixed(0), 1, 1.0, 4);
        assert!(
            omni.aggregate_goodput_bps > 1.5 * slow.aggregate_goodput_bps,
            "omni {} vs fixed0 {}",
            omni.aggregate_goodput_bps,
            slow.aggregate_goodput_bps
        );
    }

    #[test]
    fn fixed_far_above_best_fails() {
        // Rate 5 carries BER 1e-4 in a best=2 trace: essentially nothing
        // survives an 11520-bit frame.
        let r = run_with(AdapterKind::Fixed(5), 1, 1.0, 2);
        assert!(
            (r.frames_delivered as f64) < 0.1 * r.frames_sent as f64,
            "delivered {}/{}",
            r.frames_delivered,
            r.frames_sent
        );
    }

    #[test]
    fn softrate_converges_to_best_rate() {
        // With the decade BER profile SoftRate should track the goodput
        // optimum, which sits at or one step above the oracle's
        // "guaranteed" rate; its throughput must be comparable to the
        // omniscient algorithm and far above the most robust fixed rate.
        let sr = run_with(AdapterKind::SoftRate, 1, 1.0, 3);
        let omni = run_with(AdapterKind::Omniscient, 1, 1.0, 3);
        let slow = run_with(AdapterKind::Fixed(0), 1, 1.0, 3);
        assert!(
            sr.aggregate_goodput_bps > 0.75 * omni.aggregate_goodput_bps,
            "SoftRate {} vs omniscient {}",
            sr.aggregate_goodput_bps,
            omni.aggregate_goodput_bps
        );
        assert!(sr.aggregate_goodput_bps > 1.5 * slow.aggregate_goodput_bps);
        let (over, accurate, under) = sr.audit.fractions();
        assert!(
            accurate + over > 0.5,
            "SoftRate stuck below the channel: over {over:.2} acc {accurate:.2} under {under:.2}"
        );
    }

    #[test]
    fn goodput_reflects_oracle_rate() {
        let high = run_with(AdapterKind::Omniscient, 1, 1.0, 5);
        let low = run_with(AdapterKind::Omniscient, 1, 1.0, 1);
        assert!(high.aggregate_goodput_bps > 2.0 * low.aggregate_goodput_bps);
    }

    #[test]
    fn hidden_terminals_cause_collisions() {
        let visible = run_with(AdapterKind::Fixed(3), 3, 1.0, 5);
        let hidden = run_with(AdapterKind::Fixed(3), 3, 0.0, 5);
        assert_eq!(visible.collisions, 0);
        assert!(hidden.collisions > 0, "hidden terminals must collide");
        // Pinned exactly: a change to the wake-ups or the collision marks
        // shows up here on the single-cell path.
        assert_eq!(
            (
                hidden.events_processed,
                hidden.frames_sent,
                hidden.collisions
            ),
            (29_969, 3_378, 633)
        );
        assert!(
            hidden.aggregate_goodput_bps < visible.aggregate_goodput_bps,
            "collisions must cost throughput"
        );
    }

    #[test]
    fn multiple_clients_share_medium() {
        let one = run_with(AdapterKind::Omniscient, 1, 1.0, 5);
        let three = run_with(AdapterKind::Omniscient, 3, 1.0, 5);
        // Aggregate stays in the same ballpark (the medium is shared).
        assert!(three.aggregate_goodput_bps > 0.5 * one.aggregate_goodput_bps);
        assert!(three.aggregate_goodput_bps < 1.5 * one.aggregate_goodput_bps);
        // And every flow gets something.
        for (i, g) in three.per_flow_goodput_bps.iter().enumerate() {
            assert!(*g > 1e5, "flow {i} starved: {g}");
        }
    }

    #[test]
    fn download_direction_works() {
        let mut cfg = SimConfig::new(AdapterKind::Fixed(3), 1);
        cfg.duration = 3.0;
        cfg.upload = false;
        let traces = (0..2).map(|_| synthetic_trace(5)).collect();
        let r = NetSim::new(cfg, traces).run();
        assert!(
            r.aggregate_goodput_bps > 1e6,
            "download goodput {}",
            r.aggregate_goodput_bps
        );
    }

    #[test]
    fn udp_bulk_saturates_the_link() {
        let mut cfg = SimConfig::new(AdapterKind::Fixed(3), 1);
        cfg.duration = 3.0;
        cfg.traffic = TrafficKind::UdpBulk;
        let traces = (0..2).map(|_| synthetic_trace(5)).collect();
        let r = NetSim::new(cfg, traces).run();
        assert!(
            r.aggregate_goodput_bps > 1e6,
            "UDP goodput {}",
            r.aggregate_goodput_bps
        );
        // Without TCP's window/ACK clocking, UDP keeps the queue full:
        // goodput must be at least what TCP achieves on the same channel.
        let mut tcp_cfg = SimConfig::new(AdapterKind::Fixed(3), 1);
        tcp_cfg.duration = 3.0;
        let tcp_traces = (0..2).map(|_| synthetic_trace(5)).collect();
        let tcp = NetSim::new(tcp_cfg, tcp_traces).run();
        assert!(
            r.aggregate_goodput_bps >= 0.95 * tcp.aggregate_goodput_bps,
            "UDP {} must not trail TCP {}",
            r.aggregate_goodput_bps,
            tcp.aggregate_goodput_bps
        );
    }

    #[test]
    fn udp_bulk_download_direction_works() {
        let mut cfg = SimConfig::new(AdapterKind::Fixed(3), 1);
        cfg.duration = 2.0;
        cfg.upload = false;
        cfg.traffic = TrafficKind::UdpBulk;
        let traces = (0..2).map(|_| synthetic_trace(5)).collect();
        let r = NetSim::new(cfg, traces).run();
        assert!(
            r.aggregate_goodput_bps > 1e6,
            "download UDP goodput {}",
            r.aggregate_goodput_bps
        );
    }

    #[test]
    fn onoff_traffic_is_paced_by_the_source_not_the_link() {
        // 300 pkt/s at a 50 % duty cycle on a clean fast channel: the
        // wireless link could carry far more, so goodput must track the
        // offered load (~150 pkt/s × 11200 bits ≈ 1.7 Mbit/s), not the
        // link capacity.
        let mut cfg = SimConfig::new(AdapterKind::Fixed(3), 1);
        cfg.duration = 4.0;
        cfg.traffic = TrafficKind::OnOff {
            rate_pps: 300.0,
            on_s: 0.25,
            off_s: 0.25,
        };
        let traces = (0..2).map(|_| synthetic_trace(5)).collect();
        let r = NetSim::new(cfg, traces).run();
        let offered_bps = 150.0 * 1400.0 * 8.0;
        assert!(
            r.aggregate_goodput_bps > 0.5 * offered_bps,
            "on-off goodput {} must approach the offered {offered_bps}",
            r.aggregate_goodput_bps
        );
        assert!(
            r.aggregate_goodput_bps < 2.0 * offered_bps,
            "on-off goodput {} must stay near the offered load, not saturate",
            r.aggregate_goodput_bps
        );
        // A saturated source on the same channel moves far more.
        let mut sat = SimConfig::new(AdapterKind::Fixed(3), 1);
        sat.duration = 4.0;
        sat.traffic = TrafficKind::UdpBulk;
        let traces = (0..2).map(|_| synthetic_trace(5)).collect();
        let s = NetSim::new(sat, traces).run();
        assert!(s.aggregate_goodput_bps > 3.0 * r.aggregate_goodput_bps);
    }

    #[test]
    fn report_is_deterministic() {
        let a = run_with(AdapterKind::SoftRate, 2, 0.5, 4);
        let b = run_with(AdapterKind::SoftRate, 2, 0.5, 4);
        assert_eq!(a.aggregate_goodput_bps, b.aggregate_goodput_bps);
        assert_eq!(a.frames_sent, b.frames_sent);
        assert_eq!(a.collisions, b.collisions);
    }

    #[test]
    fn spatial_only_report_fields_stay_at_defaults() {
        let r = run_with(AdapterKind::Fixed(3), 1, 1.0, 5);
        assert_eq!(r.inter_cell_corruptions, 0);
        assert_eq!(r.handoffs, 0);
        assert!(r.initial_assoc.is_empty() && r.handoff_log.is_empty());
        assert!(r.events_processed > 0, "the unified engine counts events");
    }
}
