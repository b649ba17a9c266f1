//! Roaming: periodic RSSI re-evaluation, the hysteresis handoff verdict,
//! and the handoff itself (new link, adapter policy, queue re-homing).

use softrate_core::adapter::DecisionTrigger;
use softrate_sim::mac::{HandoffRecord, MacEv};
use softrate_sim::timing::CW_MIN;
use softrate_telemetry::DecisionEvent;

use super::medium::{Core, SpatialEv, SpatialMedium};
use crate::spatial::HandoffPolicy;

impl SpatialMedium {
    /// Re-evaluates station `st`'s association and schedules the next
    /// check.
    pub(super) fn on_roam(&mut self, core: &mut Core, st: usize) {
        let Some((hysteresis, interval, _)) = self.params.roaming else {
            return;
        };
        let now = core.now();
        let cur = self.stations[st].ap;
        // With an AP dark, the candidate set shrinks to the live APs and
        // a station stranded on the dark one re-homes without waiting out
        // the hysteresis (association to a dead AP is worth nothing).
        // The gate requires an *active* outage, so faults-off — and
        // faulted runs outside the outage window — consider every AP.
        let pos = self.pos_at(st, now);
        let down = self
            .faults
            .as_ref()
            .filter(|f| f.any_ap_down)
            .map(|f| &f.ap_down[..]);
        let Some((best, best_rssi)) = self.params.best_ap(pos, down) else {
            // Every AP is dark: nowhere to go; check again later.
            core.events
                .schedule(now + interval, MacEv::Medium(SpatialEv::Roam { st }));
            return;
        };
        let bypass_hysteresis = down.is_some_and(|d| d[cur]);
        if best != cur
            && (bypass_hysteresis || best_rssi >= self.snr_to_ap(st, cur, now) + hysteresis)
        {
            // Defer while either of the station's links has a frame in
            // flight: the pending attempt must resolve against the link
            // state (fading process, epoch, adapter) it was launched on.
            if core.senders[st].busy || self.downlink_inflight(st) {
                self.stations[st].pending_handoff = Some(best);
            } else {
                self.apply_handoff(core, st, best, now);
            }
        }
        core.events
            .schedule(now + interval, MacEv::Medium(SpatialEv::Roam { st }));
    }

    /// Whether station `st`'s downlink has a frame on the air or awaiting
    /// feedback (never, outside `Flows` mode).
    fn downlink_inflight(&self, st: usize) -> bool {
        let n = self.params.n_stations;
        self.flows
            .as_ref()
            .is_some_and(|fl| fl.port_inflight[n + st])
    }

    /// Moves station `st` to AP `to`: a new link and epoch, the adapters
    /// kept or rebuilt by the handoff policy, fresh retry and contention
    /// state, and (`Flows` mode) the downlink queue re-homed.
    pub(super) fn apply_handoff(&mut self, core: &mut Core, st: usize, to: usize, now: f64) {
        let from = self.stations[st].ap;
        if from == to {
            return;
        }
        let epoch = self.stations[st].epoch + 1;
        self.stations[st].ap = to;
        self.stations[st].epoch = epoch;
        self.stations[st].link = self.make_link(st, to, epoch);
        // The station's ports: its uplink and, in `Flows` mode, its
        // downlink, whose queue (and the flow's TCP state with it)
        // re-homes to the new AP. Both follow the handoff policy.
        let n = self.params.n_stations;
        let ports = [st, n + st];
        let ports = &ports[..if self.flows.is_some() { 2 } else { 1 }];
        let reset = matches!(self.params.roaming, Some((_, _, HandoffPolicy::Reset)));
        for &port in ports {
            if reset {
                core.ports[port].adapter = self.make_adapter(port);
            }
            core.ports[port].retries = 0;
            core.ports[port].cw = CW_MIN;
        }
        if let Some(fl) = self.flows.as_mut() {
            fl.ap_members[from].retain(|&m| m != st);
            fl.ap_members[to].push(st);
            // Wake the new AP if the re-homed downlink queue has frames
            // (the old AP no longer serves it; without a poke a pure
            // download flow would stall until unrelated traffic arrives).
            // Not while the old AP still has a frame of this port on the
            // air or awaiting feedback: the queue front belongs to that
            // transmission, and serving it twice would desync the queue
            // (`after_outcome` wakes the new owner when it resolves).
            if !fl.port_inflight[n + st] && !fl.queues[n + st].is_empty() {
                core.wake(n + to, n + st);
            }
        }
        self.handoffs += 1;
        self.handoff_log.push(HandoffRecord {
            t: now,
            station: st,
            from,
            to,
        });
        if let Some(rec) = core.recorder.as_deref_mut() {
            rec.on_handoff(now, st);
        }
        // A station fleeing a dark AP is the resilience headline: record
        // its time-to-reassociate against the outage start.
        if let Some(fs) = &self.faults {
            if fs.ap_down[from] {
                if let Some(rec) = core.recorder.as_deref_mut() {
                    rec.on_reassoc(now, st, from, to, now - fs.ap_down_since[from]);
                }
            }
        }
        // Decision ledger: a handoff is a rate-adaptation event. Under
        // Preserve the adapter carries its state to the new AP — one
        // marker row per affected port, rate unchanged. Under Reset the
        // adapter was rebuilt; the engine files the resulting rate under
        // `handoff_reset` at the port's next transmission (the fresh
        // adapter's choice isn't observable here without perturbing it).
        if core.ledger.ctx.is_enabled() {
            for &port in ports {
                if reset {
                    core.ports[port].handoff_reset = true;
                    continue;
                }
                let Some(rate) = core.ports[port].last_rate else {
                    continue; // never transmitted: nothing to mark
                };
                let adapter = core.ports[port].adapter.name();
                if let Some(rec) = core.recorder.as_deref_mut() {
                    rec.on_decision(
                        now,
                        DecisionEvent {
                            station: st,
                            port,
                            adapter,
                            old_rate: rate,
                            new_rate: rate,
                            trigger: DecisionTrigger::HandoffPreserve.name(),
                            snr_db: None,
                            ber: None,
                            reason: "ap-change",
                        },
                    );
                }
            }
        }
    }

    /// Applies `st`'s deferred handoff once neither of its links has a
    /// frame in flight (the station's own sender idle, and — in `Flows`
    /// mode — no downlink frame of its port on the air or awaiting
    /// feedback): every launched attempt resolves against the link state
    /// it was launched on before the association changes underneath it.
    pub(super) fn try_apply_pending_handoff(&mut self, core: &mut Core, st: usize) {
        if core.senders[st].busy || self.downlink_inflight(st) {
            return;
        }
        if let Some(to) = self.stations[st].pending_handoff.take() {
            let now = core.now();
            self.apply_handoff(core, st, to, now);
        }
    }
}
