//! End hosts: a NIC with ACK-first service and round-robin flow pulling.

use crate::engine::TxState;
use crate::packet::{FlowId, Packet};
use crate::time::Ps;
use crate::transport::{FlowHot, TransportConsts};
use std::collections::VecDeque;

/// A host's access link.
#[derive(Debug, Clone, Copy)]
pub struct HostLink {
    /// Switch this host attaches to.
    pub to_switch: usize,
    /// Link rate in bits/s.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub prop_ps: Ps,
}

/// An end host.
///
/// The NIC serializes one packet at a time. Service order is: pending
/// ACKs first (small control packets preempting data is the usual
/// kernel/NIC behavior and keeps ACK clocks alive under incast), then raw
/// CBR packets, then transport flows in round-robin, one segment per
/// visit.
///
/// Flow access goes through the hot array only ([`FlowHot`]): emitting a
/// segment never touches a flow's cold half.
#[derive(Debug)]
pub struct Host {
    /// Host index.
    pub id: usize,
    /// Uplink to the access switch.
    pub link: HostLink,
    /// Serialization state and the pending completion.
    pub(crate) tx: TxState,
    /// Whether the host is attached to the fabric. A dead host (fault
    /// injection's `HostLeave`) neither transmits nor receives until it
    /// rejoins.
    pub alive: bool,
    /// Pending ACKs (highest priority).
    pub ack_queue: VecDeque<Packet>,
    /// Pending raw CBR packets.
    pub cbr_queue: VecDeque<Packet>,
    /// Flows with window to send, served round-robin.
    pub ready: VecDeque<FlowId>,
}

impl Host {
    /// Creates an idle host.
    pub fn new(id: usize, link: HostLink) -> Self {
        Host {
            id,
            link,
            tx: TxState::default(),
            alive: true,
            ack_queue: VecDeque::new(),
            cbr_queue: VecDeque::new(),
            ready: VecDeque::new(),
        }
    }

    /// Marks a flow as having data to send (idempotent).
    pub fn mark_ready(&mut self, flows: &mut [FlowHot], f: FlowId) {
        let fl = &mut flows[f as usize];
        if !fl.in_host_queue() && fl.can_send() {
            fl.set_in_host_queue(true);
            self.ready.push_back(f);
        }
    }

    /// Picks the next packet for the NIC, or `None` if nothing is ready.
    ///
    /// Round-robin across flows: a flow that can still send after
    /// producing a segment goes to the back of the queue.
    pub fn next_packet(
        &mut self,
        flows: &mut [FlowHot],
        now: Ps,
        c: &TransportConsts,
    ) -> Option<Packet> {
        if let Some(ack) = self.ack_queue.pop_front() {
            return Some(ack);
        }
        if let Some(raw) = self.cbr_queue.pop_front() {
            return Some(raw);
        }
        while let Some(f) = self.ready.pop_front() {
            let fl = &mut flows[f as usize];
            if !fl.can_send() {
                fl.set_in_host_queue(false);
                continue;
            }
            let pkt = fl.next_segment(now, c);
            if fl.can_send() {
                self.ready.push_back(f);
            } else {
                fl.set_in_host_queue(false);
            }
            return Some(pkt);
        }
        None
    }

    /// Whether the host has anything to transmit.
    pub fn has_backlog(&self) -> bool {
        !self.ack_queue.is_empty() || !self.cbr_queue.is_empty() || !self.ready.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::CcAlgo;
    use crate::SimConfig;

    fn consts() -> TransportConsts {
        TransportConsts::new(&SimConfig::default())
    }

    fn host() -> Host {
        Host::new(
            0,
            HostLink {
                to_switch: 0,
                rate_bps: 10_000_000_000,
                prop_ps: 1_000,
            },
        )
    }

    fn started_flow(id: FlowId, bytes: u64, c: &TransportConsts) -> FlowHot {
        let mut f = FlowHot::new(id, 0, 1, bytes, 0, CcAlgo::Dctcp, c);
        f.set_started(true);
        f
    }

    #[test]
    fn acks_preempt_data() {
        let c = consts();
        let mut h = host();
        let mut flows = vec![started_flow(0, 100_000, &c)];
        h.mark_ready(&mut flows, 0);
        h.ack_queue
            .push_back(Packet::ack(5, 0, 2, 100, false, 0, 0));
        let first = h.next_packet(&mut flows, 0, &c).unwrap();
        assert_eq!(first.kind, crate::packet::PacketKind::Ack);
        let second = h.next_packet(&mut flows, 0, &c).unwrap();
        assert_eq!(second.kind, crate::packet::PacketKind::Data);
    }

    #[test]
    fn flows_round_robin() {
        let c = consts();
        let mut h = host();
        let mut flows = vec![
            started_flow(0, 1_000_000, &c),
            started_flow(1, 1_000_000, &c),
        ];
        h.mark_ready(&mut flows, 0);
        h.mark_ready(&mut flows, 1);
        let order: Vec<u32> = (0..4)
            .map(|_| h.next_packet(&mut flows, 0, &c).unwrap().flow)
            .collect();
        assert_eq!(order, vec![0, 1, 0, 1]);
    }

    #[test]
    fn mark_ready_is_idempotent() {
        let c = consts();
        let mut h = host();
        let mut flows = vec![started_flow(0, 10_000, &c)];
        h.mark_ready(&mut flows, 0);
        h.mark_ready(&mut flows, 0);
        assert_eq!(h.ready.len(), 1);
    }

    #[test]
    fn window_exhausted_flow_leaves_queue() {
        let c = consts();
        let mut h = host();
        // 10-MSS initial window, flow larger than that: after 10 segments
        // the flow must drop out of the ready queue.
        let mut flows = vec![started_flow(0, 10_000_000, &c)];
        h.mark_ready(&mut flows, 0);
        let mut sent = 0;
        while h.next_packet(&mut flows, 0, &c).is_some() {
            sent += 1;
            assert!(sent < 100, "window never closed");
        }
        assert_eq!(sent, 10);
        assert!(!flows[0].in_host_queue());
        assert!(!h.has_backlog());
    }

    #[test]
    fn finished_flow_is_skipped() {
        let c = consts();
        let mut h = host();
        let mut flows = vec![started_flow(0, 10_000, &c)];
        flows[0].set_in_host_queue(true);
        h.ready.push_back(0);
        // Simulate completion: a finished flow must be skipped.
        let mut cold = crate::transport::FlowCold::default();
        let mut rx = crate::transport::FlowRx::default();
        let mut pkts = Vec::new();
        while flows[0].can_send() {
            pkts.push(flows[0].next_segment(0, &c));
        }
        for p in &pkts {
            let ack = rx.on_data(p.seq, p.len as u64);
            flows[0].on_ack(&mut cold, ack, false, p.ts, 1, &c);
        }
        assert!(flows[0].done());
        assert!(h.next_packet(&mut flows, 0, &c).is_none());
        assert!(!flows[0].in_host_queue());
    }
}
