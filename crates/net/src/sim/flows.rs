//! Flow-mode traffic (`SpatialTraffic::Flows`): the MAC queues of both
//! directions, the APs' downlink service sets, and the transport layer
//! above them.

use std::collections::VecDeque;

use softrate_sim::mac::MacEv;
use softrate_sim::transport::{
    Payload, TransportConfig, TransportEv, TransportHost, TransportLayer,
};

use super::medium::{port_owner, station_of_port, Core, SpatialEv, Station};

/// The flow-mode wireless fabric: MAC queues for both directions plus the
/// shared transport layer above them.
///
/// Link/port ids: `s` in `0..n` is station `s`'s uplink (station → its
/// current AP); `n + s` is its downlink (current AP → station). Sender
/// ids: `0..n` are stations, `n + a` is AP `a`. A station's downlink
/// queue belongs to whichever AP it is associated with *right now* — a
/// handoff re-homes the queue (and its in-flight TCP state) wholesale,
/// which is what lets flows survive roaming.
pub(super) struct FlowNet {
    pub(super) transport: TransportLayer,
    /// MAC queue per link (uplinks then downlinks).
    pub(super) queues: Vec<VecDeque<Payload>>,
    /// Stations currently associated with each AP (downlink service set).
    pub(super) ap_members: Vec<Vec<usize>>,
    /// Per-AP round-robin cursor over its members.
    pub(super) ap_rr: Vec<usize>,
    /// Whether each port has a frame on the air or awaiting its feedback
    /// window. A handoff can re-home a downlink queue while its front is
    /// in flight from the old AP; `pick_port` skips in-flight ports so
    /// the queue front is never served by two transmitters at once.
    pub(super) port_inflight: Vec<bool>,
    /// The port each sender's current (or last) attempt left from —
    /// `after_outcome` uses it to clear the in-flight flag and to wake
    /// the port's new owner when a handoff re-homed it mid-flight.
    pub(super) sender_port: Vec<usize>,
}

impl FlowNet {
    /// The fabric for `tc` over `n` stations associated as in `assoc`
    /// and `n_aps` APs: one flow per station, empty queues.
    pub(super) fn new(tc: &TransportConfig, assoc: &[usize], n_aps: usize) -> Self {
        let n = assoc.len();
        let mut ap_members = vec![Vec::new(); n_aps];
        for (s, &a) in assoc.iter().enumerate() {
            ap_members[a].push(s);
        }
        let upload = tc.upload;
        let flow_links = (0..n).map(|s| if upload { (s, n + s) } else { (n + s, s) });
        FlowNet {
            transport: TransportLayer::new(*tc, flow_links),
            queues: (0..2 * n).map(|_| VecDeque::new()).collect(),
            ap_members,
            ap_rr: vec![0; n_aps],
            port_inflight: vec![false; 2 * n],
            sender_port: vec![0; n + n_aps],
        }
    }

    /// The transport layer and the [`TransportHost`] it acts through.
    pub(super) fn host<'a>(
        &'a mut self,
        stations: &'a [Station],
        core: &'a mut Core,
    ) -> (&'a mut TransportLayer, SpatialHost<'a>) {
        let host = SpatialHost {
            queues: &mut self.queues,
            stations,
            core,
        };
        (&mut self.transport, host)
    }

    /// The port `sender` serves next: a station its uplink queue, an AP
    /// the next of its members' downlink queues in round-robin order. A
    /// port whose frame is on the air (or awaiting feedback) is never
    /// picked — after a mid-flight handoff the new AP must not serve the
    /// queue front the old AP still carries.
    pub(super) fn pick(&self, n: usize, sender: usize) -> Option<usize> {
        if sender < n {
            return (!self.queues[sender].is_empty() && !self.port_inflight[sender])
                .then_some(sender);
        }
        let a = sender - n;
        let members = &self.ap_members[a];
        let m = members.len();
        for k in 0..m {
            let st = members[(self.ap_rr[a] + k) % m];
            if !self.queues[n + st].is_empty() && !self.port_inflight[n + st] {
                return Some(n + st);
            }
        }
        None
    }

    /// AP death: its members' queued downlink frames are lost, with full
    /// accounting — the transport hears about every drop (TCP reacts with
    /// its ordinary loss machinery); returns the count for the fault row.
    /// The in-flight queue front (a frame already on the air) is left for
    /// the MAC to resolve; it lands as an `outage` loss with the AP dark.
    /// The transport's reaction may legally re-enqueue (a retransmission);
    /// the drop count is taken up front so those new frames wait for the
    /// AP to return instead of dying with it.
    pub(super) fn drop_queued(&mut self, stations: &[Station], core: &mut Core, ap: usize) -> u64 {
        let n = stations.len();
        let mut dropped = 0u64;
        for st in self.ap_members[ap].clone() {
            let port = n + st;
            let protected = if self.port_inflight[port] {
                self.queues[port].pop_front()
            } else {
                None
            };
            let mut to_drop = self.queues[port].len();
            while to_drop > 0 {
                to_drop -= 1;
                dropped += 1;
                self.queues[port].pop_front();
                let (transport, mut host) = self.host(stations, core);
                transport.on_frame_dropped(&mut host, st);
            }
            if let Some(p) = protected {
                self.queues[port].push_front(p);
            }
        }
        dropped
    }

    /// An AP restart: poke the returned transmitter if any member's
    /// downlink queue accumulated frames while it was dark.
    pub(super) fn wake_ap(&self, core: &mut Core, n: usize, ap: usize) {
        if let Some(&st) = self.ap_members[ap]
            .iter()
            .find(|&&st| !self.queues[n + st].is_empty() && !self.port_inflight[n + st])
        {
            core.wake(n + ap, n + st);
        }
    }
}

/// The [`TransportHost`] over the spatial medium: queue surface plus
/// sender pokes (a frame landing on an idle sender's queue schedules its
/// channel access).
pub(super) struct SpatialHost<'a> {
    queues: &'a mut [VecDeque<Payload>],
    stations: &'a [Station],
    core: &'a mut Core,
}

impl TransportHost for SpatialHost<'_> {
    fn now(&self) -> f64 {
        self.core.now()
    }

    fn queue_len(&self, link: usize) -> usize {
        self.queues[link].len()
    }

    fn enqueue(&mut self, link: usize, payload: Payload) {
        self.queues[link].push_back(payload);
        let (now, depth) = (self.core.now(), self.queues[link].len());
        if let Some(rec) = self.core.recorder.as_deref_mut() {
            rec.on_enqueue(now, station_of_port(self.stations.len(), link), depth);
        }
        self.core.wake(port_owner(self.stations, link), link);
    }

    fn schedule_in(&mut self, delay: f64, ev: TransportEv) {
        self.core
            .events
            .schedule_in(delay, MacEv::Medium(SpatialEv::Transport(ev)));
    }

    fn recorder(&mut self) -> Option<&mut softrate_telemetry::Recorder> {
        self.core.recorder.as_deref_mut()
    }
}
