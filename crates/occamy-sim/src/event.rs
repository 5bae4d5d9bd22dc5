//! The event queue: a time-ordered queue with deterministic
//! tie-breaking, backed by a near-window timer wheel.
//!
//! The queue is built for event-loop throughput (profiles of the figure
//! sweeps showed queue maintenance dominating wall clock):
//!
//! - **Interned packets**: `Arrive` carries a [`PacketId`] into a slab
//!   pool instead of the ~56-byte [`Packet`], so a queue entry is a few
//!   words. Pool slots are recycled on [`EventQueue::take_packet`],
//!   making the steady-state loop allocation-free.
//! - **Compact events**: indices are `u32`; periodic samplers live in the
//!   world and are referenced by id.
//! - **A near-window wheel** ([`crate::timer::TimerWheel`]) instead of
//!   a binary heap. A simulator's pushes are near-future, which is a
//!   min-heap's worst case (every push sifts to near the root). Every
//!   event within ≈ 16.8 µs of the wheel's cursor costs one slot
//!   placement; farther ones (retransmission timers, via
//!   [`EventQueue::push_timer`]) wait in a far heap off the packet path
//!   until the window reaches them.
//! - **A deferred lane** for the bulk of setup-time events (flow
//!   starts): sorted once instead of passing through the wheel.
//! - **Pre-stamped keys**: [`EventQueue::stamp`] assigns the key a push
//!   would get without scheduling anything, and
//!   [`EventQueue::arm_keyed`] schedules under it later. Transmit
//!   completions use this to be scheduled only when there is a next
//!   packet to send (see `crate::engine`), with the key they would
//!   have had if pushed eagerly.
//!
//! Events at equal timestamps pop by their canonical key
//! `(time, origin domain, per-domain seq)` regardless of lane (wheel or
//! deferred share the counters). The origin is the event domain (see
//! [`crate::topology::DomainMap`]) of the event that was executing when
//! the push happened, and each origin numbers its pushes in order; setup
//! pushes and every push of a one-domain world come from domain 0, so
//! such worlds order ties by plain insertion order. The serial loop and
//! every domain of the parallel executor assign the same key to the
//! same push, which keeps runs bit-for-bit reproducible for any thread
//! count.

use crate::packet::{FlowId, Packet};
use crate::time::Ps;
use crate::timer::TimerWheel;

/// A node in the simulated network.
///
/// Indices are `u32` so an [`Event::Arrive`] — the queue's most common
/// entry — packs into 16 bytes; a wheel entry (key + event) is then two
/// 16-byte halves instead of 40 loose bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeId {
    /// Host `index`.
    Host(u32),
    /// Switch `index`.
    Switch(u32),
}

impl NodeId {
    /// A host node.
    #[inline]
    pub fn host(i: usize) -> NodeId {
        NodeId::Host(i as u32)
    }

    /// A switch node.
    #[inline]
    pub fn switch(i: usize) -> NodeId {
        NodeId::Switch(i as u32)
    }
}

/// Handle to a packet interned in the event queue's pool.
pub type PacketId = u32;

/// Discrete simulation events.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// A packet arrives at a node (after link serialization + propagation).
    Arrive {
        /// Receiving node.
        node: NodeId,
        /// The interned packet (redeem with [`EventQueue::take_packet`]).
        pkt: PacketId,
    },
    /// A switch egress port finished serializing its current packet.
    PortFree {
        /// Switch index.
        switch: u32,
        /// Port index.
        port: u32,
    },
    /// A host NIC finished serializing its current packet.
    HostTxFree {
        /// Host index.
        host: u32,
    },
    /// Retry Occamy expulsion once the token bucket has refilled.
    ExpelRetry {
        /// Switch index.
        switch: u32,
        /// Buffer partition index.
        partition: u32,
    },
    /// Retransmission-timer check for a flow.
    ///
    /// Flows keep a single pending timer event plus a soft deadline; a
    /// firing that arrives before the (re-armed) deadline reschedules
    /// itself instead of acting.
    Rto {
        /// Flow index.
        flow: FlowId,
    },
    /// Start an application flow.
    FlowStart {
        /// Flow index.
        flow: FlowId,
    },
    /// Emit the next CBR packet of a raw source.
    CbrEmit {
        /// CBR source index.
        source: u32,
    },
    /// Record a queue-length sample and reschedule per the sampler spec
    /// registered in the world.
    Sample {
        /// Sampler index (into the world's sampler table).
        sampler: u32,
    },
    /// Execute a scheduled fault (link flap / switch drain / host
    /// churn). The index points into the world's immutable fault table
    /// ([`crate::World::faults`]), so the event itself stays compact.
    Fault {
        /// Fault index (into the world's fault table).
        fault: u32,
    },
}

impl Event {
    /// Names of the event kinds, indexed by [`Event::kind`].
    pub const KIND_NAMES: [&'static str; 9] = [
        "arrive",
        "port_free",
        "host_tx_free",
        "expel_retry",
        "rto",
        "flow_start",
        "cbr_emit",
        "sample",
        "fault",
    ];

    /// This event's kind, as an index into [`Event::KIND_NAMES`].
    #[inline]
    pub fn kind(&self) -> usize {
        match self {
            Event::Arrive { .. } => 0,
            Event::PortFree { .. } => 1,
            Event::HostTxFree { .. } => 2,
            Event::ExpelRetry { .. } => 3,
            Event::Rto { .. } => 4,
            Event::FlowStart { .. } => 5,
            Event::CbrEmit { .. } => 6,
            Event::Sample { .. } => 7,
            Event::Fault { .. } => 8,
        }
    }
}

/// Slab of in-flight packets, recycled through a free list.
///
/// `pub(crate)` because the parallel executor gives every event domain
/// its own pool (see `crate::par`).
#[derive(Debug, Default)]
pub(crate) struct PacketPool {
    slots: Vec<Packet>,
    free: Vec<PacketId>,
}

impl PacketPool {
    #[inline]
    pub(crate) fn insert(&mut self, pkt: Packet) -> PacketId {
        match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = pkt;
                id
            }
            None => {
                self.slots.push(pkt);
                (self.slots.len() - 1) as PacketId
            }
        }
    }

    #[inline]
    pub(crate) fn take(&mut self, id: PacketId) -> Packet {
        self.free.push(id);
        self.slots[id as usize]
    }
}

/// Queue ordering key: `(time, origin << 48 | per-domain seq)`.
pub use crate::timer::Key;

/// Bit position of the origin domain in a key's tie-break word.
const ORIGIN_SHIFT: u32 = 48;
/// The per-domain push count within a tie-break word.
const SEQ_MASK: u64 = (1 << ORIGIN_SHIFT) - 1;

/// Time-ordered event queue.
///
/// Events at equal timestamps pop by origin domain, then in their
/// origin's push order, which makes runs bit-for-bit reproducible
/// regardless of queue internals.
#[derive(Default)]
pub struct EventQueue {
    /// All runtime events, bucketed by expiry tick.
    wheel: TimerWheel,
    /// Setup-time events, kept sorted descending by key so the next one
    /// is `last()`; sorted lazily before the first pop after a batch of
    /// [`EventQueue::push_deferred`] calls.
    deferred: Vec<(Key, Event)>,
    deferred_dirty: bool,
    /// Tie-break word of the next push: `origin << 48 | count`.
    next_tag: u64,
    /// Domain whose counter `next_tag` carries.
    origin: u32,
    /// Push counters of the other domains, indexed by domain (stale at
    /// `origin`, whose live count sits in `next_tag`).
    counts: Vec<u64>,
    pool: PacketPool,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Assigns the next key at time `at` for the current origin,
    /// exactly as [`EventQueue::push`] would, without scheduling
    /// anything. Schedule under it later with [`EventQueue::arm_keyed`].
    #[inline]
    pub fn stamp(&mut self, at: Ps) -> Key {
        let tag = self.next_tag;
        self.next_tag += 1;
        debug_assert!(self.next_tag >> ORIGIN_SHIFT == self.origin as u64);
        (at, tag)
    }

    /// Makes domain `d` the origin of subsequent pushes: the domain of
    /// the event about to execute (0 outside the run loop).
    #[inline]
    pub(crate) fn set_origin(&mut self, d: u32) {
        if d != self.origin {
            let (o, i) = (self.origin as usize, d as usize);
            if self.counts.len() <= o.max(i) {
                self.counts.resize(o.max(i) + 1, 0);
            }
            self.counts[o] = self.next_tag & SEQ_MASK;
            self.origin = d;
            self.next_tag = (d as u64) << ORIGIN_SHIFT | self.counts[i];
        }
    }

    /// Number of pushes domain `d` has made.
    pub(crate) fn seq_of(&self, d: u32) -> u64 {
        if d == self.origin {
            self.next_tag & SEQ_MASK
        } else {
            self.counts.get(d as usize).copied().unwrap_or(0)
        }
    }

    /// Sets domain `d`'s push count (split and merge of a parallel run).
    pub(crate) fn set_seq(&mut self, d: u32, count: u64) {
        if d == self.origin {
            self.next_tag = (d as u64) << ORIGIN_SHIFT | count;
        } else {
            let i = d as usize;
            if self.counts.len() <= i {
                self.counts.resize(i + 1, 0);
            }
            self.counts[i] = count;
        }
    }

    /// Schedules `event` at absolute time `at`.
    #[inline]
    pub fn push(&mut self, at: Ps, event: Event) {
        let key = self.stamp(at);
        self.wheel.arm(key, event);
    }

    /// Schedules `event` under a key assigned earlier by
    /// [`EventQueue::stamp`] on this queue's origin (or moved here with
    /// its key). The key may lie behind events already popped; it then
    /// pops next, in key order.
    #[inline]
    pub fn arm_keyed(&mut self, key: Key, event: Event) {
        self.wheel.arm(key, event);
    }

    /// Schedules a setup-time event (e.g. a flow start) on the deferred
    /// lane: bulk-sorted once instead of paying heap maintenance on the
    /// hot path. Ordering relative to [`EventQueue::push`] events is
    /// identical — ties break on the same keys. Setup pushes come from
    /// domain 0.
    pub fn push_deferred(&mut self, at: Ps, event: Event) {
        debug_assert_eq!(self.origin, 0, "setup push inside the run loop");
        let key = self.stamp(at);
        self.deferred.push((key, event));
        self.deferred_dirty = true;
    }

    /// Schedules a timer event (an [`Event::Rto`]). Identical to
    /// [`EventQueue::push`] — the wheel places any entry by its
    /// deadline, so a milliseconds-out timer waits in the far heap and
    /// stays clear of the packet path with no separate lane needed.
    /// The distinct name keeps timer call sites greppable and gives
    /// timers a seam should they ever need different handling again.
    #[inline]
    pub fn push_timer(&mut self, at: Ps, event: Event) {
        self.push(at, event);
    }

    /// Interns `pkt` and schedules its arrival at `node`.
    #[inline]
    pub fn push_arrival(&mut self, at: Ps, node: NodeId, pkt: Packet) {
        let pkt = self.pool.insert(pkt);
        self.push(at, Event::Arrive { node, pkt });
    }

    /// Redeems an [`Event::Arrive`] handle, recycling its pool slot.
    #[inline]
    pub fn take_packet(&mut self, id: PacketId) -> Packet {
        self.pool.take(id)
    }

    #[inline]
    fn settle_deferred(&mut self) {
        if self.deferred_dirty {
            // Descending, so the earliest (at, seq) sits at the end.
            self.deferred
                .sort_unstable_by_key(|d| std::cmp::Reverse(d.0));
            self.deferred_dirty = false;
        }
    }

    /// Pops the earliest event, returning `(time, event)`.
    pub fn pop(&mut self) -> Option<(Ps, Event)> {
        self.pop_at_most(Ps::MAX)
    }

    /// Pops the earliest event if it is scheduled at or before `limit` —
    /// the run loop's single probe-and-pop (a separate peek would settle
    /// and compare the lanes twice per event).
    #[inline]
    pub fn pop_at_most(&mut self, limit: Ps) -> Option<(Ps, Event)> {
        self.pop_keyed(limit).map(|((at, _), event)| (at, event))
    }

    /// [`EventQueue::pop_at_most`], returning the event's key.
    pub(crate) fn pop_keyed(&mut self, limit: Ps) -> Option<(Key, Event)> {
        self.settle_deferred();
        // Keys are unique across lanes: the wheel serves its minimum if
        // it comes before the deferred lane's and is due by `limit`.
        let deferred = self.deferred.last().map(|d| d.0);
        let bound = deferred.map_or((limit, u64::MAX), |d| d.min((limit, u64::MAX)));
        if let Some(e) = self.wheel.pop_at_most(bound) {
            return Some(e);
        }
        match deferred {
            Some(d) if d.0 <= limit => self.deferred.pop(),
            _ => None,
        }
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<Ps> {
        self.settle_deferred();
        let d = self.deferred.last().map(|e| e.0 .0);
        let w = self.wheel.peek().map(|(at, _)| at);
        [d, w].into_iter().flatten().min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.deferred.len() + self.wheel.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.deferred.is_empty() && self.wheel.is_empty()
    }

    // ---------------------------------------------------------------
    // Crate-internal seams for the parallel executor (`crate::par`),
    // which moves entries between queues under their keys.
    // ---------------------------------------------------------------

    /// Schedules a packet arrival under an already-assigned key.
    pub(crate) fn arm_arrival(&mut self, key: Key, node: NodeId, pkt: Packet) {
        let pkt = self.pool.insert(pkt);
        self.arm_keyed(key, Event::Arrive { node, pkt });
    }

    /// Re-arms an entry popped from `src` under its key, moving an
    /// arrival's packet into this queue's pool.
    pub(crate) fn adopt(&mut self, src: &mut EventQueue, key: Key, event: Event) {
        match event {
            Event::Arrive { node, pkt } => self.arm_arrival(key, node, src.take_packet(pkt)),
            other => self.arm_keyed(key, other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::HostTxFree { host: 3 });
        q.push(10, Event::HostTxFree { host: 1 });
        q.push(20, Event::HostTxFree { host: 2 });
        let order: Vec<Ps> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for host in 0..5 {
            q.push(42, Event::HostTxFree { host });
        }
        let hosts: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::HostTxFree { host } => host,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(hosts, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ties_break_by_origin_then_domain_push_order() {
        let mut q = EventQueue::new();
        for (origin, host) in [(2, 0), (1, 1), (2, 2), (1, 3)] {
            q.set_origin(origin);
            q.push(10, Event::HostTxFree { host });
        }
        q.push(5, Event::HostTxFree { host: 4 }); // origin 1
        q.set_origin(0);
        q.push_deferred(10, Event::HostTxFree { host: 5 });
        assert_eq!((q.seq_of(0), q.seq_of(1), q.seq_of(2)), (1, 3, 2));
        let order: Vec<(Ps, u32)> = std::iter::from_fn(|| {
            q.pop().map(|(t, e)| match e {
                Event::HostTxFree { host } => (t, host),
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(
            order,
            vec![(5, 4), (10, 5), (10, 1), (10, 3), (10, 0), (10, 2)]
        );
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(7, Event::HostTxFree { host: 0 });
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn deferred_lane_merges_in_global_order() {
        // Interleave both lanes at equal and distinct times: pops must
        // follow (time, insertion sequence) exactly as if all events
        // had gone through one heap.
        let mut q = EventQueue::new();
        q.push_deferred(20, Event::HostTxFree { host: 0 }); // seq 0
        q.push(10, Event::HostTxFree { host: 1 }); // seq 1
        q.push_deferred(10, Event::HostTxFree { host: 2 }); // seq 2
        q.push(20, Event::HostTxFree { host: 3 }); // seq 3
        q.push_deferred(5, Event::HostTxFree { host: 4 }); // seq 4
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(5));
        let order: Vec<(Ps, u32)> = std::iter::from_fn(|| {
            q.pop().map(|(t, e)| match e {
                Event::HostTxFree { host } => (t, host),
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(order, vec![(5, 4), (10, 1), (10, 2), (20, 0), (20, 3)]);
    }

    #[test]
    fn timer_lane_merges_in_global_order() {
        // Timers, heap events and deferred events at equal and distinct
        // times: pops must follow (time, insertion sequence) exactly as
        // if all events had gone through one heap.
        let mut q = EventQueue::new();
        q.push_timer(20, Event::HostTxFree { host: 0 }); // seq 0
        q.push(10, Event::HostTxFree { host: 1 }); // seq 1
        q.push_timer(10, Event::HostTxFree { host: 2 }); // seq 2
        q.push_deferred(10, Event::HostTxFree { host: 3 }); // seq 3
        q.push(20, Event::HostTxFree { host: 4 }); // seq 4
        q.push_timer(5, Event::HostTxFree { host: 5 }); // seq 5
        assert_eq!(q.len(), 6);
        assert_eq!(q.peek_time(), Some(5));
        let order: Vec<(Ps, u32)> = std::iter::from_fn(|| {
            q.pop().map(|(t, e)| match e {
                Event::HostTxFree { host } => (t, host),
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(
            order,
            vec![(5, 5), (10, 1), (10, 2), (10, 3), (20, 0), (20, 4)]
        );
    }

    #[test]
    fn timer_pop_respects_limit() {
        let mut q = EventQueue::new();
        q.push_timer(50, Event::HostTxFree { host: 0 });
        assert!(q.pop_at_most(49).is_none());
        assert_eq!(q.pop_at_most(50).map(|(t, _)| t), Some(50));
        assert!(q.is_empty());
    }

    #[test]
    fn deferred_push_after_pop_resorts() {
        let mut q = EventQueue::new();
        q.push_deferred(30, Event::HostTxFree { host: 0 });
        assert_eq!(q.pop().map(|(t, _)| t), Some(30));
        q.push_deferred(40, Event::HostTxFree { host: 1 });
        q.push_deferred(35, Event::HostTxFree { host: 2 });
        assert_eq!(q.pop().map(|(t, _)| t), Some(35));
        assert_eq!(q.pop().map(|(t, _)| t), Some(40));
        assert!(q.pop().is_none());
    }

    #[test]
    fn packet_pool_recycles_slots() {
        let mut q = EventQueue::new();
        let mk = |len| Packet::raw(0, 0, 1, len, 0, 0);
        q.push_arrival(1, NodeId::Host(1), mk(100));
        q.push_arrival(2, NodeId::Host(1), mk(200));
        let (_, e1) = q.pop().unwrap();
        let Event::Arrive { pkt, .. } = e1 else {
            unreachable!()
        };
        assert_eq!(q.take_packet(pkt).len, 100);
        // The freed slot is reused by the next interned packet.
        q.push_arrival(3, NodeId::Host(1), mk(300));
        let ids: Vec<PacketId> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::Arrive { pkt, .. } => pkt,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(ids.len(), 2);
        let lens: Vec<u32> = ids.into_iter().map(|id| q.take_packet(id).len).collect();
        assert_eq!(lens, vec![200, 300]);
    }

    #[test]
    fn scheduled_nodes_are_compact() {
        // The point of interning and the u32 NodeId: a wheel entry is
        // (16-byte key, 16-byte event) — slab nodes, heap entries and
        // slot drains move two aligned halves, not a cache-line-
        // straddling payload.
        assert!(
            std::mem::size_of::<Event>() <= 16,
            "Event grew to {} bytes",
            std::mem::size_of::<Event>()
        );
        assert_eq!(std::mem::size_of::<Key>(), 16);
    }

    #[test]
    fn wheel_drains_sorted_under_stress() {
        let mut q = EventQueue::new();
        let mut x = 7u64;
        let mut n = 0u32;
        for round in 0..50 {
            for _ in 0..97 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                q.push(x % 1_000, Event::HostTxFree { host: n });
                n += 1;
            }
            // Partially drain between rounds to mix push/pop phases.
            let mut last = 0;
            for _ in 0..(if round % 2 == 0 { 60 } else { 97 }) {
                let Some((t, _)) = q.pop() else { break };
                assert!(t >= last, "heap disorder: {t} after {last}");
                last = t;
            }
        }
        let mut last = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }
}
