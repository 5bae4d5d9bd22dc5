//! Topology builders: single shared-memory switch, leaf-spine, k-ary
//! fat-tree and classic 3-tier (access/aggregation/core) fabrics.
//!
//! Every fabric builder also exports a [`DomainMap`]: a partition of
//! the fabric into *event domains* (pods, or leaf/spine groups) that
//! the deterministic parallel executor uses for domain-decomposed
//! runs (`SimConfig::threads > 1`). Serial runs use it too: an event's
//! domain is the origin in its pushes' tie-break keys (see
//! [`crate::event`]).

use crate::engine::TxState;
use crate::event::NodeId;
use crate::faults::FaultKind;
use crate::host::{Host, HostLink};
use crate::routing::RoutingTable;
use crate::scheduler::Scheduler;
use crate::switch::{BufferPartition, Link, Switch, SwitchPort};
use crate::time::Ps;
use crate::world::World;
use crate::SimConfig;
use occamy_core::{BmKind, BmTuning, QueueConfig, RateEstimator, TokenBucket};
use std::collections::VecDeque;

/// A partition of a fabric's hosts and switches into event domains for
/// domain-decomposed parallel execution.
///
/// Domains exchange packets only over links whose one-way propagation
/// delay is at least [`DomainMap::lookahead_ps`]; conservative
/// synchronization uses that bound as its lookahead: events executed
/// in the window `[W, W + lookahead)` can only schedule cross-domain
/// arrivals at `>= W + lookahead`, so domains are causally independent
/// within a window. Every host and switch belongs to exactly one
/// domain (pinned by `tests/domain_props.rs`).
#[derive(Debug, Clone)]
pub struct DomainMap {
    /// Domain of each host, indexed by host id.
    pub host_domain: Vec<u32>,
    /// Domain of each switch, indexed by switch id.
    pub switch_domain: Vec<u32>,
    /// Minimum one-way propagation delay over all cross-domain links;
    /// `0` when the partition has no cross-domain link (parallel
    /// execution then stays disabled).
    pub lookahead_ps: Ps,
    n_domains: usize,
}

impl DomainMap {
    /// Builds a map from per-component domain assignments, deriving the
    /// lookahead from the actual link delays of `hosts` / `switches`.
    pub fn new(
        host_domain: Vec<u32>,
        switch_domain: Vec<u32>,
        hosts: &[Host],
        switches: &[Switch],
    ) -> Self {
        assert_eq!(host_domain.len(), hosts.len());
        assert_eq!(switch_domain.len(), switches.len());
        let n_domains = host_domain
            .iter()
            .chain(&switch_domain)
            .map(|&d| d as usize + 1)
            .max()
            .unwrap_or(0);
        let mut lookahead = Ps::MAX;
        let mut any_cross = false;
        for (h, host) in hosts.iter().enumerate() {
            if host_domain[h] != switch_domain[host.link.to_switch] {
                lookahead = lookahead.min(host.link.prop_ps);
                any_cross = true;
            }
        }
        for (s, sw) in switches.iter().enumerate() {
            for p in &sw.ports {
                let peer = match p.link.to {
                    NodeId::Host(h) => host_domain[h as usize],
                    NodeId::Switch(t) => switch_domain[t as usize],
                };
                if peer != switch_domain[s] {
                    lookahead = lookahead.min(p.link.prop_ps);
                    any_cross = true;
                }
            }
        }
        DomainMap {
            host_domain,
            switch_domain,
            lookahead_ps: if any_cross { lookahead } else { 0 },
            n_domains,
        }
    }

    /// Number of domains.
    pub fn n_domains(&self) -> usize {
        self.n_domains
    }

    /// Domain of a host or switch.
    #[inline]
    pub(crate) fn node_domain(&self, n: NodeId) -> u32 {
        match n {
            NodeId::Host(h) => self.host_domain[h as usize],
            NodeId::Switch(s) => self.switch_domain[s as usize],
        }
    }

    /// Domain owning the state a fault mutates: the switch's for link
    /// and drain faults, the host's for churn (which also touches the
    /// host's flows, whose sender halves live in the same domain).
    pub(crate) fn fault_domain(&self, kind: &FaultKind) -> u32 {
        match *kind {
            FaultKind::LinkDown { switch, .. }
            | FaultKind::LinkUp { switch, .. }
            | FaultKind::SwitchDrainStart { switch }
            | FaultKind::SwitchDrainEnd { switch } => self.switch_domain[switch as usize],
            FaultKind::HostLeave { host } | FaultKind::HostJoin { host } => {
                self.host_domain[host as usize]
            }
        }
    }
}

/// Buffer-management specification for a topology.
#[derive(Debug, Clone)]
pub struct BmSpec {
    /// Which scheme to run.
    pub kind: BmKind,
    /// DT/ABM/Occamy `α` per service class.
    pub alpha_per_class: Vec<f64>,
    /// Scheme-specific tuning (BShare delay target, DAMQ reserve split);
    /// the default reproduces each scheme's canonical constants.
    pub tuning: BmTuning,
}

impl BmSpec {
    /// A single-class specification.
    pub fn uniform(kind: BmKind, alpha: f64) -> Self {
        Self::per_class(kind, vec![alpha])
    }

    /// A multi-class specification with default tuning.
    pub fn per_class(kind: BmKind, alpha_per_class: Vec<f64>) -> Self {
        BmSpec {
            kind,
            alpha_per_class,
            tuning: BmTuning::default(),
        }
    }
}

/// Scheduler specification for every port of a topology.
#[derive(Debug, Clone, Copy)]
pub enum SchedKind {
    /// Single-class FIFO.
    Fifo,
    /// Strict priority across classes (class 0 first).
    StrictPriority,
    /// Deficit Round Robin with the given quantum in bytes.
    Drr {
        /// Per-visit quantum in bytes.
        quantum: u64,
    },
}

impl SchedKind {
    fn build(self, classes: usize) -> Scheduler {
        match self {
            SchedKind::Fifo => Scheduler::Fifo,
            SchedKind::StrictPriority => Scheduler::StrictPriority,
            SchedKind::Drr { quantum } => Scheduler::drr(classes, quantum),
        }
    }

    /// ABM's priority classes: under strict priority each class is its own
    /// priority level; under FIFO/DRR all classes share one level.
    fn abm_priority(self, class: usize) -> u8 {
        match self {
            SchedKind::StrictPriority => class as u8,
            _ => 0,
        }
    }
}

/// Configuration of a single-switch topology (one host per port).
#[derive(Debug, Clone)]
pub struct SingleSwitchCfg {
    /// Per-host access-link rates (one port per host).
    pub host_rates_bps: Vec<u64>,
    /// One-way propagation per link.
    pub prop_ps: Ps,
    /// Shared buffer size in bytes (one partition).
    pub buffer_bytes: u64,
    /// Service classes per port.
    pub classes: usize,
    /// Buffer management.
    pub bm: BmSpec,
    /// Port scheduler.
    pub sched: SchedKind,
    /// Simulation parameters.
    pub sim: SimConfig,
}

/// Builds a world with one switch and `host_rates_bps.len()` hosts.
///
/// This is the substrate for the paper's testbed experiments: the Huawei
/// CE6865 motivation setup (Fig. 6), the Tofino micro-benchmarks
/// (Figs. 11–12, with per-port rates 100/100/10/10 Gbps) and the DPDK
/// software switch (Figs. 13–16).
pub fn single_switch(c: SingleSwitchCfg) -> World {
    let n = c.host_rates_bps.len();
    assert!(n >= 2, "need at least two hosts");
    assert!(c.classes >= 1, "need at least one class");
    assert_eq!(c.bm.alpha_per_class.len(), c.classes, "one alpha per class");
    let hosts: Vec<Host> = (0..n)
        .map(|h| {
            Host::new(
                h,
                HostLink {
                    to_switch: 0,
                    rate_bps: c.host_rates_bps[h],
                    prop_ps: c.prop_ps,
                },
            )
        })
        .collect();

    let ports: Vec<SwitchPort> = (0..n)
        .map(|p| SwitchPort {
            link: Link {
                to: NodeId::host(p),
                rate_bps: c.host_rates_bps[p],
                prop_ps: c.prop_ps,
            },
            queues: (0..c.classes).map(|_| VecDeque::new()).collect(),
            sched: c.sched.build(c.classes),
            tx: TxState::default(),
        })
        .collect();

    let partition = build_partition(
        &c.bm,
        c.sched,
        c.buffer_bytes,
        &(0..n).collect::<Vec<_>>(),
        &c.host_rates_bps,
        c.classes,
        &c.sim,
    );
    let total_rate: u64 = c.host_rates_bps.iter().sum();
    let routing = RoutingTable::new((0..n).map(|h| vec![h as u16]).collect());
    let switch = Switch {
        id: 0,
        tier: 0,
        ports,
        partitions: vec![partition],
        port_partition: vec![0; n],
        port_local: (0..n).collect(),
        classes: c.classes,
        routing,
        disabled_ports: vec![false; n],
        n_disabled: 0,
        draining: false,
        xp: None,
        write_rate: RateEstimator::new(10_000, 0.0),
        read_rate: RateEstimator::new(10_000, 0.0),
        total_membw_bps: 2.0 * total_rate as f64,
    };
    let mut w = World::new(c.sim, hosts, vec![switch]);
    // One switch means one domain: runs stay serial.
    w.domains = Some(DomainMap::new(vec![0; n], vec![0], &w.hosts, &w.switches));
    w
}

/// Configuration of a leaf-spine topology (paper §6.4).
#[derive(Debug, Clone)]
pub struct LeafSpineCfg {
    /// Spine switch count.
    pub spines: usize,
    /// Leaf switch count.
    pub leaves: usize,
    /// Hosts attached to each leaf.
    pub hosts_per_leaf: usize,
    /// Host access-link rate.
    pub host_rate_bps: u64,
    /// Leaf↔spine link rate.
    pub fabric_rate_bps: u64,
    /// One-way propagation per hop (8 hops per across-spine RTT).
    pub link_prop_ps: Ps,
    /// Shared buffer per group of 8 ports (Tomahawk-style partitioning).
    pub buffer_per_8ports_bytes: u64,
    /// Service classes per port.
    pub classes: usize,
    /// Buffer management.
    pub bm: BmSpec,
    /// Port scheduler.
    pub sched: SchedKind,
    /// Simulation parameters.
    pub sim: SimConfig,
}

impl LeafSpineCfg {
    /// The paper's §6.4 topology: 8 spines, 8 leaves, 16 hosts per leaf,
    /// 100 Gbps links, 80 µs base RTT, 4 MB per 8 ports.
    pub fn paper(bm: BmSpec, sim: SimConfig) -> Self {
        LeafSpineCfg {
            spines: 8,
            leaves: 8,
            hosts_per_leaf: 16,
            host_rate_bps: 100_000_000_000,
            fabric_rate_bps: 100_000_000_000,
            link_prop_ps: 10 * crate::time::US,
            buffer_per_8ports_bytes: 4_000_000,
            classes: 1,
            bm,
            sched: SchedKind::Fifo,
            sim,
        }
    }

    /// Total host count.
    pub fn n_hosts(&self) -> usize {
        self.leaves * self.hosts_per_leaf
    }
}

/// Builds the leaf-spine world. Hosts are numbered leaf-major (host `h`
/// sits on leaf `h / hosts_per_leaf`); switch ids are leaves first, then
/// spines.
pub fn leaf_spine(c: LeafSpineCfg) -> World {
    assert!(c.spines >= 1 && c.leaves >= 2, "need a real fabric");
    let hpl = c.hosts_per_leaf;
    let n_hosts = c.n_hosts();
    let hosts: Vec<Host> = (0..n_hosts)
        .map(|h| {
            Host::new(
                h,
                HostLink {
                    to_switch: h / hpl,
                    rate_bps: c.host_rate_bps,
                    prop_ps: c.link_prop_ps,
                },
            )
        })
        .collect();

    let mut switches = Vec::with_capacity(c.leaves + c.spines);
    let sh = shared(&c.bm, c.sched, c.buffer_per_8ports_bytes, c.classes, &c.sim);
    // Leaves: ports 0..hpl are down-links, hpl..hpl+spines are up-links.
    for leaf in 0..c.leaves {
        let mut ports = Vec::new();
        let mut rates = Vec::new();
        for local in 0..hpl {
            ports.push(SwitchPort {
                link: Link {
                    to: NodeId::host(leaf * hpl + local),
                    rate_bps: c.host_rate_bps,
                    prop_ps: c.link_prop_ps,
                },
                queues: (0..c.classes).map(|_| VecDeque::new()).collect(),
                sched: c.sched.build(c.classes),
                tx: TxState::default(),
            });
            rates.push(c.host_rate_bps);
        }
        for spine in 0..c.spines {
            ports.push(SwitchPort {
                link: Link {
                    to: NodeId::switch(c.leaves + spine),
                    rate_bps: c.fabric_rate_bps,
                    prop_ps: c.link_prop_ps,
                },
                queues: (0..c.classes).map(|_| VecDeque::new()).collect(),
                sched: c.sched.build(c.classes),
                tx: TxState::default(),
            });
            rates.push(c.fabric_rate_bps);
        }
        // Routing: local hosts via their down port, others via ECMP
        // across all up-links.
        let up_ports: Vec<u16> = (hpl..hpl + c.spines).map(|p| p as u16).collect();
        let routing = RoutingTable::new(
            (0..n_hosts)
                .map(|dst| {
                    if dst / hpl == leaf {
                        vec![(dst % hpl) as u16]
                    } else {
                        up_ports.clone()
                    }
                })
                .collect(),
        );
        switches.push(assemble_switch(leaf, ports, rates, routing, &sh));
    }
    // Spines: port `l` goes down to leaf `l`.
    for spine in 0..c.spines {
        let mut ports = Vec::new();
        let mut rates = Vec::new();
        for leaf in 0..c.leaves {
            ports.push(SwitchPort {
                link: Link {
                    to: NodeId::switch(leaf),
                    rate_bps: c.fabric_rate_bps,
                    prop_ps: c.link_prop_ps,
                },
                queues: (0..c.classes).map(|_| VecDeque::new()).collect(),
                sched: c.sched.build(c.classes),
                tx: TxState::default(),
            });
            rates.push(c.fabric_rate_bps);
        }
        let routing = RoutingTable::new((0..n_hosts).map(|dst| vec![(dst / hpl) as u16]).collect());
        switches.push(assemble_switch(
            c.leaves + spine,
            ports,
            rates,
            routing,
            &sh,
        ));
    }
    let mut w = World::new(c.sim.clone(), hosts, switches);
    for sw in &mut w.switches {
        sw.tier = if sw.id < c.leaves { 0 } else { 1 };
    }
    // Domains: each leaf plus its hosts, then each spine on its own.
    let host_domain = (0..n_hosts).map(|h| (h / hpl) as u32).collect();
    let switch_domain = (0..c.leaves + c.spines).map(|s| s as u32).collect();
    w.domains = Some(DomainMap::new(
        host_domain,
        switch_domain,
        &w.hosts,
        &w.switches,
    ));
    w
}

/// Configuration of a k-ary fat-tree (Al-Fares et al.): `k` pods of
/// `k/2` edge and `k/2` aggregation switches, `(k/2)²` core switches,
/// `k³/4` hosts.
#[derive(Debug, Clone)]
pub struct FatTreeCfg {
    /// Pod arity. Must be even and ≥ 2; `k = 4` gives 16 hosts.
    pub k: usize,
    /// Host access-link rate.
    pub host_rate_bps: u64,
    /// Edge↔aggregation and aggregation↔core link rate.
    pub fabric_rate_bps: u64,
    /// One-way propagation per link.
    pub link_prop_ps: Ps,
    /// Shared buffer per group of 8 ports.
    pub buffer_per_8ports_bytes: u64,
    /// Service classes per port.
    pub classes: usize,
    /// Buffer management.
    pub bm: BmSpec,
    /// Port scheduler.
    pub sched: SchedKind,
    /// Simulation parameters.
    pub sim: SimConfig,
}

impl FatTreeCfg {
    /// Total host count: `k³/4`.
    pub fn n_hosts(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    /// Total switch count: `k²` edge+aggregation plus `(k/2)²` core.
    pub fn n_switches(&self) -> usize {
        self.k * self.k + (self.k / 2) * (self.k / 2)
    }
}

/// Builds the k-ary fat-tree world.
///
/// Hosts are numbered edge-major (host `h` sits under edge switch
/// `h / (k/2)`); switch ids are edges first (pod-major), then
/// aggregations (pod-major), then cores. Aggregation switch `a` of each
/// pod uplinks to core group `a` (cores `a·k/2 .. (a+1)·k/2`), the
/// standard fat-tree wiring. Routing is shortest-path with ECMP fan-out
/// on every up-stage ([`RoutingTable`] hashes the flow id, §6.4).
pub fn fat_tree(c: FatTreeCfg) -> World {
    assert!(c.k >= 2 && c.k % 2 == 0, "fat-tree arity must be even, ≥ 2");
    let half = c.k / 2;
    let hosts_per_pod = half * half;
    let n_hosts = c.n_hosts();
    let n_edges = c.k * half;
    let n_aggs = c.k * half;
    let sh = shared(&c.bm, c.sched, c.buffer_per_8ports_bytes, c.classes, &c.sim);

    let hosts: Vec<Host> = (0..n_hosts)
        .map(|h| {
            Host::new(
                h,
                HostLink {
                    to_switch: h / half,
                    rate_bps: c.host_rate_bps,
                    prop_ps: c.link_prop_ps,
                },
            )
        })
        .collect();

    let mut switches = Vec::with_capacity(c.n_switches());
    // Edge switches: ports 0..k/2 down to hosts, k/2..k up to the pod's
    // aggregation switches.
    for edge in 0..n_edges {
        let pod = edge / half;
        let mut ports = Vec::with_capacity(c.k);
        let mut rates = Vec::with_capacity(c.k);
        for local in 0..half {
            ports.push(port(
                NodeId::host(edge * half + local),
                c.host_rate_bps,
                c.link_prop_ps,
                c.classes,
                c.sched,
            ));
            rates.push(c.host_rate_bps);
        }
        for a in 0..half {
            ports.push(port(
                NodeId::switch(n_edges + pod * half + a),
                c.fabric_rate_bps,
                c.link_prop_ps,
                c.classes,
                c.sched,
            ));
            rates.push(c.fabric_rate_bps);
        }
        let up: Vec<u16> = (half..c.k).map(|p| p as u16).collect();
        let routing = RoutingTable::new(
            (0..n_hosts)
                .map(|dst| {
                    if dst / half == edge {
                        vec![(dst % half) as u16]
                    } else {
                        up.clone()
                    }
                })
                .collect(),
        );
        switches.push(assemble_switch(edge, ports, rates, routing, &sh));
    }
    // Aggregation switches: ports 0..k/2 down to the pod's edges,
    // k/2..k up to the switch's core group.
    for agg in 0..n_aggs {
        let pod = agg / half;
        let group = agg % half;
        let mut ports = Vec::with_capacity(c.k);
        let mut rates = Vec::with_capacity(c.k);
        for e in 0..half {
            ports.push(port(
                NodeId::switch(pod * half + e),
                c.fabric_rate_bps,
                c.link_prop_ps,
                c.classes,
                c.sched,
            ));
            rates.push(c.fabric_rate_bps);
        }
        for i in 0..half {
            ports.push(port(
                NodeId::switch(n_edges + n_aggs + group * half + i),
                c.fabric_rate_bps,
                c.link_prop_ps,
                c.classes,
                c.sched,
            ));
            rates.push(c.fabric_rate_bps);
        }
        let up: Vec<u16> = (half..c.k).map(|p| p as u16).collect();
        let routing = RoutingTable::new(
            (0..n_hosts)
                .map(|dst| {
                    if dst / hosts_per_pod == pod {
                        vec![((dst / half) % half) as u16]
                    } else {
                        up.clone()
                    }
                })
                .collect(),
        );
        switches.push(assemble_switch(n_edges + agg, ports, rates, routing, &sh));
    }
    // Core switches: port p goes down to this core's aggregation switch
    // in pod p.
    for core in 0..half * half {
        let group = core / half;
        let mut ports = Vec::with_capacity(c.k);
        let mut rates = Vec::with_capacity(c.k);
        for pod in 0..c.k {
            ports.push(port(
                NodeId::switch(n_edges + pod * half + group),
                c.fabric_rate_bps,
                c.link_prop_ps,
                c.classes,
                c.sched,
            ));
            rates.push(c.fabric_rate_bps);
        }
        let routing = RoutingTable::new(
            (0..n_hosts)
                .map(|dst| vec![(dst / hosts_per_pod) as u16])
                .collect(),
        );
        switches.push(assemble_switch(
            n_edges + n_aggs + core,
            ports,
            rates,
            routing,
            &sh,
        ));
    }
    let mut w = World::new(c.sim.clone(), hosts, switches);
    for sw in &mut w.switches {
        sw.tier = if sw.id < n_edges {
            0
        } else if sw.id < n_edges + n_aggs {
            1
        } else {
            2
        };
    }
    // Domains: pod p owns its hosts, edges and aggregations (all
    // intra-pod links stay domain-local); each core switch is its own
    // domain, so agg↔core links are the only cross-domain edges
    // alongside inter-pod traffic.
    let host_domain = (0..n_hosts).map(|h| (h / hosts_per_pod) as u32).collect();
    let switch_domain = (0..w.switches.len())
        .map(|s| {
            if s < n_edges {
                (s / half) as u32
            } else if s < n_edges + n_aggs {
                ((s - n_edges) / half) as u32
            } else {
                (c.k + (s - n_edges - n_aggs)) as u32
            }
        })
        .collect();
    w.domains = Some(DomainMap::new(
        host_domain,
        switch_domain,
        &w.hosts,
        &w.switches,
    ));
    w
}

/// Configuration of a classic 3-tier (access / aggregation / core)
/// data-center fabric with an explicit access-layer oversubscription
/// knob.
#[derive(Debug, Clone)]
pub struct ThreeTierCfg {
    /// Pod count (a pod = one aggregation group plus its access layer).
    pub pods: usize,
    /// Access switches per pod.
    pub access_per_pod: usize,
    /// Aggregation switches per pod.
    pub aggs_per_pod: usize,
    /// Core switches (each connects to every aggregation switch).
    pub cores: usize,
    /// Hosts per access switch.
    pub hosts_per_access: usize,
    /// Host access-link rate.
    pub host_rate_bps: u64,
    /// Aggregation↔core link rate.
    pub core_rate_bps: u64,
    /// Access-layer oversubscription ratio: host-facing capacity over
    /// uplink capacity. `1.0` is non-blocking; `4.0` means the uplinks
    /// carry a quarter of the host capacity — the classic many-to-one
    /// stress for shared-buffer schemes.
    pub oversubscription: f64,
    /// One-way propagation per link.
    pub link_prop_ps: Ps,
    /// Shared buffer per group of 8 ports.
    pub buffer_per_8ports_bytes: u64,
    /// Service classes per port.
    pub classes: usize,
    /// Buffer management.
    pub bm: BmSpec,
    /// Port scheduler.
    pub sched: SchedKind,
    /// Simulation parameters.
    pub sim: SimConfig,
}

impl ThreeTierCfg {
    /// Total host count.
    pub fn n_hosts(&self) -> usize {
        self.pods * self.access_per_pod * self.hosts_per_access
    }

    /// Total switch count.
    pub fn n_switches(&self) -> usize {
        self.pods * (self.access_per_pod + self.aggs_per_pod) + self.cores
    }

    /// Rate of each access→aggregation uplink, derived from the
    /// oversubscription ratio: the `aggs_per_pod` uplinks together carry
    /// `hosts_per_access · host_rate / oversubscription`.
    pub fn uplink_rate_bps(&self) -> u64 {
        assert!(
            self.oversubscription >= 1.0,
            "oversubscription must be ≥ 1 (got {})",
            self.oversubscription
        );
        let down = self.hosts_per_access as f64 * self.host_rate_bps as f64;
        (down / (self.aggs_per_pod as f64 * self.oversubscription)).round() as u64
    }
}

/// Builds the 3-tier world.
///
/// Hosts are numbered access-major; switch ids are access switches first
/// (pod-major), then aggregations (pod-major), then cores. Every access
/// switch uplinks to all aggregations of its pod (ECMP), every
/// aggregation uplinks to all cores (ECMP), and cores reach a pod
/// through any of its aggregations (ECMP) — so inter-pod traffic really
/// traverses three tiers.
pub fn three_tier(c: ThreeTierCfg) -> World {
    assert!(c.pods >= 2, "need at least two pods");
    assert!(
        c.access_per_pod >= 1 && c.aggs_per_pod >= 1 && c.cores >= 1,
        "need at least one switch per tier"
    );
    assert!(c.hosts_per_access >= 1, "need hosts");
    let hpa = c.hosts_per_access;
    let hosts_per_pod = c.access_per_pod * hpa;
    let n_hosts = c.n_hosts();
    let n_access = c.pods * c.access_per_pod;
    let n_aggs = c.pods * c.aggs_per_pod;
    let uplink_bps = c.uplink_rate_bps().max(1);
    let sh = shared(&c.bm, c.sched, c.buffer_per_8ports_bytes, c.classes, &c.sim);

    let hosts: Vec<Host> = (0..n_hosts)
        .map(|h| {
            Host::new(
                h,
                HostLink {
                    to_switch: h / hpa,
                    rate_bps: c.host_rate_bps,
                    prop_ps: c.link_prop_ps,
                },
            )
        })
        .collect();

    let mut switches = Vec::with_capacity(c.n_switches());
    // Access: ports 0..hpa down to hosts, then one uplink per pod agg.
    for acc in 0..n_access {
        let pod = acc / c.access_per_pod;
        let mut ports = Vec::new();
        let mut rates = Vec::new();
        for local in 0..hpa {
            ports.push(port(
                NodeId::host(acc * hpa + local),
                c.host_rate_bps,
                c.link_prop_ps,
                c.classes,
                c.sched,
            ));
            rates.push(c.host_rate_bps);
        }
        for a in 0..c.aggs_per_pod {
            ports.push(port(
                NodeId::switch(n_access + pod * c.aggs_per_pod + a),
                uplink_bps,
                c.link_prop_ps,
                c.classes,
                c.sched,
            ));
            rates.push(uplink_bps);
        }
        let up: Vec<u16> = (hpa..hpa + c.aggs_per_pod).map(|p| p as u16).collect();
        let routing = RoutingTable::new(
            (0..n_hosts)
                .map(|dst| {
                    if dst / hpa == acc {
                        vec![(dst % hpa) as u16]
                    } else {
                        up.clone()
                    }
                })
                .collect(),
        );
        switches.push(assemble_switch(acc, ports, rates, routing, &sh));
    }
    // Aggregation: ports 0..access_per_pod down to the pod's access
    // switches, then one uplink per core.
    for agg in 0..n_aggs {
        let pod = agg / c.aggs_per_pod;
        let mut ports = Vec::new();
        let mut rates = Vec::new();
        for a in 0..c.access_per_pod {
            ports.push(port(
                NodeId::switch(pod * c.access_per_pod + a),
                uplink_bps,
                c.link_prop_ps,
                c.classes,
                c.sched,
            ));
            rates.push(uplink_bps);
        }
        for core in 0..c.cores {
            ports.push(port(
                NodeId::switch(n_access + n_aggs + core),
                c.core_rate_bps,
                c.link_prop_ps,
                c.classes,
                c.sched,
            ));
            rates.push(c.core_rate_bps);
        }
        let up: Vec<u16> = (c.access_per_pod..c.access_per_pod + c.cores)
            .map(|p| p as u16)
            .collect();
        let routing = RoutingTable::new(
            (0..n_hosts)
                .map(|dst| {
                    if dst / hosts_per_pod == pod {
                        vec![((dst / hpa) % c.access_per_pod) as u16]
                    } else {
                        up.clone()
                    }
                })
                .collect(),
        );
        switches.push(assemble_switch(n_access + agg, ports, rates, routing, &sh));
    }
    // Core: one port per aggregation switch (agg-major); a pod is
    // reachable through any of its aggregations.
    for core in 0..c.cores {
        let mut ports = Vec::new();
        let mut rates = Vec::new();
        for agg in 0..n_aggs {
            ports.push(port(
                NodeId::switch(n_access + agg),
                c.core_rate_bps,
                c.link_prop_ps,
                c.classes,
                c.sched,
            ));
            rates.push(c.core_rate_bps);
        }
        let routing = RoutingTable::new(
            (0..n_hosts)
                .map(|dst| {
                    let pod = dst / hosts_per_pod;
                    (pod * c.aggs_per_pod..(pod + 1) * c.aggs_per_pod)
                        .map(|p| p as u16)
                        .collect()
                })
                .collect(),
        );
        switches.push(assemble_switch(
            n_access + n_aggs + core,
            ports,
            rates,
            routing,
            &sh,
        ));
    }
    let mut w = World::new(c.sim.clone(), hosts, switches);
    for sw in &mut w.switches {
        sw.tier = if sw.id < n_access {
            0
        } else if sw.id < n_access + n_aggs {
            1
        } else {
            2
        };
    }
    // Domains: pod p owns its hosts, access and aggregation switches;
    // each core switch is its own domain.
    let host_domain = (0..n_hosts).map(|h| (h / hosts_per_pod) as u32).collect();
    let switch_domain = (0..w.switches.len())
        .map(|s| {
            if s < n_access {
                (s / c.access_per_pod) as u32
            } else if s < n_access + n_aggs {
                ((s - n_access) / c.aggs_per_pod) as u32
            } else {
                (c.pods + (s - n_access - n_aggs)) as u32
            }
        })
        .collect();
    w.domains = Some(DomainMap::new(
        host_domain,
        switch_domain,
        &w.hosts,
        &w.switches,
    ));
    w
}

/// The switch-assembly parameters every fabric builder shares: buffer
/// management, scheduling, Tomahawk-style per-8-port buffer partitioning
/// and class count.
struct SwitchShared<'a> {
    bm: &'a BmSpec,
    sched: SchedKind,
    buffer_per_8ports_bytes: u64,
    classes: usize,
    sim: &'a SimConfig,
}

fn shared<'a>(
    bm: &'a BmSpec,
    sched: SchedKind,
    buffer_per_8ports_bytes: u64,
    classes: usize,
    sim: &'a SimConfig,
) -> SwitchShared<'a> {
    SwitchShared {
        bm,
        sched,
        buffer_per_8ports_bytes,
        classes,
        sim,
    }
}

fn assemble_switch(
    id: usize,
    ports: Vec<SwitchPort>,
    rates: Vec<u64>,
    routing: RoutingTable,
    c: &SwitchShared<'_>,
) -> Switch {
    let n = ports.len();
    let mut partitions = Vec::new();
    let mut port_partition = vec![0; n];
    let mut port_local = vec![0; n];
    let all_ports: Vec<usize> = (0..n).collect();
    for (pi, chunk) in all_ports.chunks(8).enumerate() {
        for (li, &p) in chunk.iter().enumerate() {
            port_partition[p] = pi;
            port_local[p] = li;
        }
        partitions.push(build_partition(
            c.bm,
            c.sched,
            c.buffer_per_8ports_bytes * chunk.len() as u64 / 8,
            chunk,
            &rates,
            c.classes,
            c.sim,
        ));
    }
    let total_rate: u64 = rates.iter().sum();
    Switch {
        id,
        tier: 0,
        ports,
        partitions,
        port_partition,
        port_local,
        classes: c.classes,
        routing,
        disabled_ports: vec![false; n],
        n_disabled: 0,
        draining: false,
        xp: None,
        write_rate: RateEstimator::new(10_000, 0.0),
        read_rate: RateEstimator::new(10_000, 0.0),
        total_membw_bps: 2.0 * total_rate as f64,
    }
}

/// Builds one switch port with a link to `to` at `rate_bps`.
fn port(to: NodeId, rate_bps: u64, prop_ps: Ps, classes: usize, sched: SchedKind) -> SwitchPort {
    SwitchPort {
        link: Link {
            to,
            rate_bps,
            prop_ps,
        },
        queues: (0..classes).map(|_| VecDeque::new()).collect(),
        sched: sched.build(classes),
        tx: TxState::default(),
    }
}

fn build_partition(
    bm: &BmSpec,
    sched: SchedKind,
    buffer_bytes: u64,
    ports: &[usize],
    rates: &[u64],
    classes: usize,
    sim: &SimConfig,
) -> BufferPartition {
    let nq = ports.len() * classes;
    let mut qc = QueueConfig::uniform(nq, 1, 1.0);
    for (li, &p) in ports.iter().enumerate() {
        for class in 0..classes {
            let q = li * classes + class;
            qc.alpha[q] = bm.alpha_per_class[class];
            qc.port_rate_bps[q] = rates[p];
            qc.priority[q] = sched.abm_priority(class);
        }
    }
    let reactive = matches!(bm.kind, BmKind::Occamy | BmKind::OccamyLongest);
    // Token generation at the partition's aggregate forwarding capacity,
    // in cells/s (paper §5.3).
    let agg_rate: u64 = ports.iter().map(|&p| rates[p]).sum();
    let cells_per_sec = agg_rate as f64 / 8.0 / sim.cell_bytes as f64 * sim.expel_rate_factor;
    BufferPartition {
        state: occamy_core::BufferState::new(buffer_bytes, nq),
        bm: bm.kind.build_tuned(qc, bm.tuning),
        tb: TokenBucket::new(cells_per_sec, sim.expel_bucket_cells),
        reactive,
        expel_armed: false,
        ports: ports.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bm() -> BmSpec {
        BmSpec::uniform(BmKind::Dt, 1.0)
    }

    #[test]
    fn single_switch_shape() {
        let w = single_switch(SingleSwitchCfg {
            host_rates_bps: vec![10_000_000_000; 4],
            prop_ps: 1_000,
            buffer_bytes: 400_000,
            classes: 2,
            bm: BmSpec::per_class(BmKind::Dt, vec![8.0, 1.0]),
            sched: SchedKind::StrictPriority,
            sim: SimConfig::default(),
        });
        assert_eq!(w.hosts.len(), 4);
        assert_eq!(w.switches.len(), 1);
        let sw = &w.switches[0];
        assert_eq!(sw.ports.len(), 4);
        assert_eq!(sw.partitions.len(), 1);
        assert_eq!(sw.partitions[0].state.num_queues(), 8);
        assert_eq!(sw.partitions[0].state.capacity(), 400_000);
        // Port 2, class 1 maps to queue 5 and back.
        assert_eq!(sw.queue_index(2, 1), 5);
        assert_eq!(sw.queue_location(0, 5), (2, 1));
    }

    #[test]
    fn leaf_spine_paper_shape() {
        let w = leaf_spine(LeafSpineCfg::paper(bm(), SimConfig::large_scale()));
        assert_eq!(w.hosts.len(), 128);
        assert_eq!(w.switches.len(), 16);
        // Leaf: 16 down + 8 up = 24 ports → 3 partitions of 8 → 12 MB.
        let leaf = &w.switches[0];
        assert_eq!(leaf.ports.len(), 24);
        assert_eq!(leaf.partitions.len(), 3);
        let leaf_buf: u64 = leaf.partitions.iter().map(|p| p.state.capacity()).sum();
        assert_eq!(leaf_buf, 12_000_000);
        // Spine: 8 ports → 1 partition → 8 MB per switch? No: 8 ports →
        // one 4 MB partition (4 MB per 8 ports), paper says spines have
        // 8 MB total because they count 16 ports per spine; our spines
        // have `leaves` = 8 ports, so 4 MB.
        let spine = &w.switches[8];
        assert_eq!(spine.ports.len(), 8);
        assert_eq!(spine.partitions.len(), 1);
        assert_eq!(spine.partitions[0].state.capacity(), 4_000_000);
    }

    #[test]
    fn leaf_routing_separates_local_and_remote() {
        let w = leaf_spine(LeafSpineCfg::paper(bm(), SimConfig::large_scale()));
        let leaf0 = &w.switches[0];
        // Local host 3: single down port.
        assert_eq!(leaf0.routing.candidates(3), &[3]);
        // Remote host 17 (leaf 1): ECMP across the 8 up-links.
        assert_eq!(leaf0.routing.candidates(17).len(), 8);
        // Spine 0 routes host 17 down to leaf 1.
        let spine0 = &w.switches[8];
        assert_eq!(spine0.routing.candidates(17), &[1]);
    }

    fn tiny_fat_tree(k: usize) -> FatTreeCfg {
        FatTreeCfg {
            k,
            host_rate_bps: 25_000_000_000,
            fabric_rate_bps: 25_000_000_000,
            link_prop_ps: 10 * crate::time::US,
            buffer_per_8ports_bytes: 1_000_000,
            classes: 1,
            bm: bm(),
            sched: SchedKind::Fifo,
            sim: SimConfig::large_scale(),
        }
    }

    fn tiny_three_tier(oversub: f64) -> ThreeTierCfg {
        ThreeTierCfg {
            pods: 2,
            access_per_pod: 2,
            aggs_per_pod: 2,
            cores: 2,
            hosts_per_access: 4,
            host_rate_bps: 25_000_000_000,
            core_rate_bps: 25_000_000_000,
            oversubscription: oversub,
            link_prop_ps: 10 * crate::time::US,
            buffer_per_8ports_bytes: 1_000_000,
            classes: 1,
            bm: bm(),
            sched: SchedKind::Fifo,
            sim: SimConfig::large_scale(),
        }
    }

    #[test]
    fn fat_tree_k4_shape() {
        let cfg = tiny_fat_tree(4);
        assert_eq!(cfg.n_hosts(), 16);
        assert_eq!(cfg.n_switches(), 20);
        let w = fat_tree(cfg);
        assert_eq!(w.hosts.len(), 16);
        assert_eq!(w.switches.len(), 20);
        // Every switch in a k=4 fat-tree has exactly k = 4 ports.
        for sw in &w.switches {
            assert_eq!(sw.ports.len(), 4, "switch {}", sw.id);
        }
        // Host 0 hangs off edge 0; edge 0's up-links go to aggs 8 and 9.
        assert_eq!(w.hosts[0].link.to_switch, 0);
        let edge0 = &w.switches[0];
        assert_eq!(edge0.ports[2].link.to, NodeId::switch(8));
        assert_eq!(edge0.ports[3].link.to, NodeId::switch(9));
        // Local host: single down port; remote: ECMP across both aggs.
        assert_eq!(edge0.routing.candidates(1), &[1]);
        assert_eq!(edge0.routing.candidates(15), &[2, 3]);
        // Agg 8 (pod 0, group 0) reaches pod-local host 3 via edge 1 and
        // remote hosts via its two core up-links.
        let agg8 = &w.switches[8];
        assert_eq!(agg8.routing.candidates(3), &[1]);
        assert_eq!(agg8.routing.candidates(4), &[2, 3]);
        // Core 16 (group 0) reaches pod 3 through that pod's group-0 agg.
        let core16 = &w.switches[16];
        assert_eq!(core16.ports[3].link.to, NodeId::switch(8 + 3 * 2));
        assert_eq!(core16.routing.candidates(12), &[3]);
    }

    #[test]
    fn three_tier_shape_and_oversubscription() {
        let cfg = tiny_three_tier(4.0);
        assert_eq!(cfg.n_hosts(), 16);
        assert_eq!(cfg.n_switches(), 10);
        // 4 hosts × 25 G down, ÷ (2 uplinks × 4 oversub) = 12.5 G each.
        assert_eq!(cfg.uplink_rate_bps(), 12_500_000_000);
        let w = three_tier(cfg);
        assert_eq!(w.hosts.len(), 16);
        assert_eq!(w.switches.len(), 10);
        let acc0 = &w.switches[0];
        assert_eq!(acc0.ports.len(), 6); // 4 hosts + 2 agg up-links
        assert_eq!(acc0.ports[4].link.rate_bps, 12_500_000_000);
        // Local host direct, remote ECMP over both aggs.
        assert_eq!(acc0.routing.candidates(2), &[2]);
        assert_eq!(acc0.routing.candidates(9), &[4, 5]);
        // Agg 4 (pod 0): pod-local host 5 via access 1, inter-pod via
        // both core up-links.
        let agg4 = &w.switches[4];
        assert_eq!(agg4.ports.len(), 4); // 2 access + 2 cores
        assert_eq!(agg4.routing.candidates(5), &[1]);
        assert_eq!(agg4.routing.candidates(8), &[2, 3]);
        // Core 8: pod 1 reachable through either of its aggs.
        let core8 = &w.switches[8];
        assert_eq!(core8.ports.len(), 4); // one per agg
        assert_eq!(core8.routing.candidates(8), &[2, 3]);
    }

    #[test]
    fn non_blocking_three_tier_uplinks_carry_full_rate() {
        let cfg = tiny_three_tier(1.0);
        // 4 hosts × 25 G ÷ 2 uplinks = 50 G per uplink.
        assert_eq!(cfg.uplink_rate_bps(), 50_000_000_000);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_fat_tree_arity_rejected() {
        fat_tree(tiny_fat_tree(3));
    }

    #[test]
    fn occamy_partitions_are_reactive() {
        let w = single_switch(SingleSwitchCfg {
            host_rates_bps: vec![10_000_000_000; 2],
            prop_ps: 1_000,
            buffer_bytes: 100_000,
            classes: 1,
            bm: BmSpec::uniform(BmKind::Occamy, 8.0),
            sched: SchedKind::Fifo,
            sim: SimConfig::default(),
        });
        assert!(w.switches[0].partitions[0].reactive);
        let w2 = single_switch(SingleSwitchCfg {
            host_rates_bps: vec![10_000_000_000; 2],
            prop_ps: 1_000,
            buffer_bytes: 100_000,
            classes: 1,
            bm: BmSpec::uniform(BmKind::Pushout, 1.0),
            sched: SchedKind::Fifo,
            sim: SimConfig::default(),
        });
        assert!(
            !w2.switches[0].partitions[0].reactive,
            "Pushout evicts synchronously, not via the reactive process"
        );
    }
}
