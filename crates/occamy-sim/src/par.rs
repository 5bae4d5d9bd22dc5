//! Deterministic domain-decomposed parallel execution.
//!
//! # Approach
//!
//! Classic conservative synchronization (Chandy–Misra–Bryant style),
//! with one twist: the result is not merely *a* legal event ordering
//! but **the exact serial ordering** — every metric, flow record and
//! queue trajectory is bit-for-bit identical to a single-threaded run,
//! for any thread count. `--freeze-perf` artifacts therefore `cmp`
//! equal across `--threads 1/2/4/8`, which CI enforces.
//!
//! The fabric is partitioned into *event domains* (pods, leaf/spine
//! groups — see [`crate::topology::DomainMap`]). Domains interact only
//! by sending packets over links whose one-way propagation delay is at
//! least the map's `lookahead_ps` (δ). Time advances in windows
//! `[W, W + δ)`: an event executing at `t ∈ [W, W + δ)` can schedule a
//! cross-domain arrival no earlier than `t + δ ≥ W + δ`, i.e. strictly
//! after the window — so within a window every domain's event stream
//! is causally independent of the others and they execute in parallel.
//!
//! # Exact serial order
//!
//! Equal-time events break ties on the canonical key
//! `(time, origin domain, per-domain seq)` (see [`crate::event`]): the
//! origin is the domain of the event executing when the push happens,
//! and each domain numbers its own pushes. The serial loop assigns keys
//! the same way, so no global counter has to be reproduced. A domain's
//! counter only advances while that domain's events execute, and a
//! domain executes its events in key order in both engines, so every
//! push gets the same key here as in a serial run — by construction.
//!
//! Each domain owns an [`EventQueue`] with its origin fixed. A
//! domain-local push gets its key and goes straight into that queue. A
//! cross-domain arrival gets its key at push time too and is posted to
//! the (source, destination) mailbox at the end of the window; the
//! worker owning the destination delivers it into its queue at the
//! start of the next window. Arrivals land after the window that sent
//! them, so delivering them one window late never reorders anything.
//!
//! Per-drop utilization samples, the one exact-order metric stream,
//! are tagged with their executing event's key and merged by key when
//! the run ends.
//!
//! # Threading
//!
//! `min(threads, n_domains)` workers run under [`std::thread::scope`];
//! the calling thread is worker 0 and the coordinator. Shards are
//! round-robin assigned, and two [`Barrier`]s delimit each window.
//! Between them each worker delivers its shards' mail, executes them
//! up to the window end, posts their outgoing mail and reports their
//! earliest pending time, from which the coordinator opens the next
//! window. No unsafe code: each shard `Mutex` is only taken by its
//! worker (and by the coordinator while workers are parked), and a
//! mailbox by its two endpoints.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Barrier, Mutex};

use crate::cbr::CbrSource;
use crate::engine::{event_domain, execute_event, Ctx, Env};
use crate::event::{Event, EventQueue, Key, NodeId, PacketId};
use crate::faults::FaultSpec;
use crate::host::Host;
use crate::metrics::{CbrCounters, Metrics};
use crate::packet::{FlowId, Packet};
use crate::switch::Switch;
use crate::time::Ps;
use crate::topology::DomainMap;
use crate::transport::{FlowCold, FlowHot, FlowRx, TransportConsts};
use crate::world::World;
use crate::SimConfig;

/// Component → domain/storage-index tables shared by every shard.
struct Plan {
    dm: DomainMap,
    host_loc: Vec<u32>,
    sw_loc: Vec<u32>,
    /// Sender-side (hot/cold) flow halves live in the source host's
    /// domain; receiver halves ([`FlowRx`]) in the destination's.
    flow_dom: Vec<u32>,
    flow_loc: Vec<u32>,
    rx_dom: Vec<u32>,
    rx_loc: Vec<u32>,
    cbr_dom: Vec<u32>,
    cbr_loc: Vec<u32>,
    /// Global flow ids per domain, in storage order (inverse of
    /// `flow_loc`, for translating host ready queues at merge).
    flow_gid: Vec<Vec<FlowId>>,
}

/// Lock failure reason: a worker panicked mid-window, so the run is lost.
const POISONED: &str = "a window worker panicked";

/// A cross-domain packet arrival with its final key.
type Mail = (Key, NodeId, Packet);

/// The event environment of one domain (the parallel counterpart of
/// the serial [`EventQueue`] `Env`).
struct DomainQueue {
    dom: u32,
    plan: Arc<Plan>,
    /// This domain's events; every push takes origin `dom`.
    events: EventQueue,
    /// Cross-domain arrivals pushed this window, by destination domain.
    out: Vec<Vec<Mail>>,
}

impl Env for DomainQueue {
    #[inline]
    fn push(&mut self, at: Ps, ev: Event) {
        self.events.push(at, ev);
    }

    #[inline]
    fn push_timer(&mut self, at: Ps, ev: Event) {
        self.events.push(at, ev);
    }

    #[inline]
    fn push_arrival(&mut self, at: Ps, node: NodeId, pkt: Packet) {
        let dst = self.plan.dm.node_domain(node);
        if dst == self.dom {
            self.events.push_arrival(at, node, pkt);
        } else {
            let key = self.events.stamp(at);
            self.out[dst as usize].push((key, node, pkt));
        }
    }

    #[inline]
    fn stamp(&mut self, at: Ps) -> Key {
        self.events.stamp(at)
    }

    #[inline]
    fn arm_keyed(&mut self, key: Key, ev: Event) {
        self.events.arm_keyed(key, ev);
    }

    #[inline]
    fn take_packet(&mut self, id: PacketId) -> Packet {
        self.events.take_packet(id)
    }

    #[inline]
    fn host_idx(&self, h: u32) -> usize {
        self.plan.host_loc[h as usize] as usize
    }

    #[inline]
    fn switch_idx(&self, s: u32) -> usize {
        self.plan.sw_loc[s as usize] as usize
    }

    #[inline]
    fn flow_idx(&self, f: FlowId) -> usize {
        self.plan.flow_loc[f as usize] as usize
    }

    #[inline]
    fn rx_idx(&self, f: FlowId) -> usize {
        self.plan.rx_loc[f as usize] as usize
    }

    #[inline]
    fn cbr_idx(&self, c: u32) -> usize {
        self.plan.cbr_loc[c as usize] as usize
    }
}

/// The mutable component state owned by one domain.
#[derive(Default)]
struct Store {
    now: Ps,
    hosts: Vec<Host>,
    switches: Vec<Switch>,
    hot: Vec<FlowHot>,
    cold: Vec<FlowCold>,
    rx: Vec<FlowRx>,
    cbrs: Vec<CbrSource>,
    metrics: Metrics,
}

/// One event domain: owned state and its event queue.
struct Shard {
    store: Store,
    q: DomainQueue,
    /// Key of the executing event of each drop sample in
    /// `store.metrics`, in recording (hence key) order.
    drop_keys: Vec<Key>,
}

/// Per-run parallel execution statistics, surfaced on the world after
/// a parallel run for perf reporting (zeroed by serial runs).
#[derive(Debug, Clone, Default)]
pub struct ParStats {
    /// Synchronization windows executed.
    pub windows: u64,
    /// Events executed per domain.
    pub domain_events: Vec<u64>,
    /// Worker threads actually used (`min(threads, domains)`).
    pub workers: usize,
}

/// Runs `world` in parallel until every event at time `<= limit` has
/// executed. Pre/post state is exactly what the serial loop would
/// leave: same component state, same event keys, same per-domain
/// counters, same metrics (including exact-order drop sample streams).
pub(crate) fn run_parallel(world: &mut World, limit: Ps) -> ParStats {
    let dm = world.domains.clone().expect("parallel run without domains");
    let nd = dm.n_domains();
    let delta = dm.lookahead_ps;
    debug_assert!(nd > 1 && delta > 0);

    // ----- Split: plan + move events and component state into shards -----
    let n_cbrs = world.cbrs.len();
    let plan = Arc::new(build_plan(world, dm));
    let mut shards: Vec<Shard> = (0..nd as u32)
        .map(|d| {
            let mut events = EventQueue::new();
            events.set_origin(d);
            events.set_seq(d, world.events.seq_of(d));
            Shard {
                store: Store {
                    now: world.now,
                    metrics: Metrics {
                        cbr: vec![CbrCounters::default(); n_cbrs],
                        ..Metrics::default()
                    },
                    ..Store::default()
                },
                q: DomainQueue {
                    dom: d,
                    plan: Arc::clone(&plan),
                    events,
                    out: vec![Vec::new(); nd],
                },
                drop_keys: Vec::new(),
            }
        })
        .collect();

    // Route every pending event, key and all, to its executing domain.
    while let Some((key, ev)) = world.events.pop_keyed(Ps::MAX) {
        let d = event_domain(&plan.dm, &world.flows.hot, &world.cbrs, &world.faults, &ev);
        shards[d as usize]
            .q
            .events
            .adopt(&mut world.events, key, ev);
    }
    distribute(
        std::mem::take(&mut world.hosts),
        &plan.dm.host_domain,
        |d, h| shards[d].store.hosts.push(h),
    );
    distribute(
        std::mem::take(&mut world.switches),
        &plan.dm.switch_domain,
        |d, s| shards[d].store.switches.push(s),
    );
    let flows = std::mem::take(&mut world.flows);
    distribute(flows.hot, &plan.flow_dom, |d, f| {
        shards[d].store.hot.push(f)
    });
    distribute(flows.cold, &plan.flow_dom, |d, f| {
        shards[d].store.cold.push(f)
    });
    distribute(flows.rx, &plan.rx_dom, |d, f| shards[d].store.rx.push(f));
    distribute(std::mem::take(&mut world.cbrs), &plan.cbr_dom, |d, c| {
        shards[d].store.cbrs.push(c)
    });
    // Host ready queues hold storage indices (global in the serial
    // world): translate to domain-local on the way in.
    for sh in &mut shards {
        for host in &mut sh.store.hosts {
            for f in &mut host.ready {
                *f = plan.flow_loc[*f as usize];
            }
        }
    }
    let mut lo = shards
        .iter_mut()
        .filter_map(|s| s.q.events.peek_time())
        .min();

    // ----- Windowed execution -----
    let workers = world.cfg.threads.min(nd).max(1);
    let cfg = world.cfg.clone();
    let consts = TransportConsts::new(&cfg);
    // The fault table is immutable during the run: share one copy with
    // every worker (events carry global indices into it).
    let faults = world.faults.clone();
    let shards: Vec<Mutex<Shard>> = shards.into_iter().map(Mutex::new).collect();
    // `mail[src * nd + dst]`: arrivals posted by `src` for `dst`.
    let mail: Vec<Mutex<Vec<Mail>>> = (0..nd * nd).map(|_| Mutex::default()).collect();
    // Earliest pending time each worker reported (`Ps::MAX`: none).
    let next: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(Ps::MAX)).collect();
    let hi_shared = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let start = Barrier::new(workers);
    let end = Barrier::new(workers);
    let mut stats = ParStats {
        windows: 0,
        domain_events: vec![0; nd],
        workers,
    };
    let work = |w: usize| {
        let hi = hi_shared.load(SeqCst);
        let mut earliest = Ps::MAX;
        for i in (w..nd).step_by(workers) {
            let mut sh = shards[i].lock().expect(POISONED);
            if let Some(t) = run_shard_window(&mut sh, &mail, hi, &cfg, &consts, &faults) {
                earliest = earliest.min(t);
            }
        }
        next[w].store(earliest, SeqCst);
    };

    // Telemetry cadence for this run (0 = off). Snapshots piggyback on
    // the window barrier: the coordinator reads shard state between
    // windows, when workers are parked — read-only, so parallel runs
    // stay byte-identical to serial with telemetry on or off.
    let cadence = std::num::NonZeroU64::new(crate::telemetry::cadence());
    let base_events = world.metrics.events_processed;
    let base_losses = world.metrics.drops.total_losses();
    let base_fault_drops = world.metrics.fault_drops;
    let base_faults_fired = world.metrics.faults_fired;
    let mut next_snap = cadence.map_or(u64::MAX, |c| (base_events / c + 1) * c.get());

    std::thread::scope(|s| {
        for w in 1..workers {
            let (work, start, end, done) = (&work, &start, &end, &done);
            s.spawn(move || loop {
                start.wait();
                if done.load(SeqCst) {
                    break;
                }
                work(w);
                end.wait();
            });
        }
        while let Some(w0) = lo.filter(|&t| t <= limit) {
            let hi = w0.saturating_add(delta - 1).min(limit);
            hi_shared.store(hi, SeqCst);
            start.wait();
            work(0);
            end.wait();
            stats.windows += 1;
            lo = next
                .iter()
                .map(|t| t.load(SeqCst))
                .min()
                .filter(|&t| t != Ps::MAX);
            if cadence.is_none() {
                continue;
            }
            let guards: Vec<_> = shards.iter().map(|m| m.lock().expect(POISONED)).collect();
            let total = base_events
                + guards
                    .iter()
                    .map(|g| g.store.metrics.events_processed)
                    .sum::<u64>();
            if total >= next_snap {
                let mut refs: Vec<&Switch> = Vec::new();
                let mut losses = base_losses;
                let mut fault_drops = base_fault_drops;
                let mut faults_fired = base_faults_fired;
                for gd in &guards {
                    refs.extend(gd.store.switches.iter());
                    losses += gd.store.metrics.drops.total_losses();
                    fault_drops += gd.store.metrics.fault_drops;
                    faults_fired += gd.store.metrics.faults_fired;
                }
                refs.sort_by_key(|sw| sw.id);
                crate::telemetry::emit_snapshot(
                    &refs,
                    losses,
                    fault_drops,
                    faults_fired,
                    total,
                    hi,
                    limit,
                    stats.windows,
                    nd as u64,
                );
                next_snap = cadence.map_or(u64::MAX, |c| (total / c + 1) * c.get());
            }
        }
        done.store(true, SeqCst);
        start.wait();
    });

    // ----- Merge back into the serial world -----
    let mut shards: Vec<Shard> = shards
        .into_iter()
        .map(|m| m.into_inner().expect(POISONED))
        .collect();
    // Arrivals posted in the last window, not yet delivered.
    for (key, node, pkt) in mail
        .into_iter()
        .flat_map(|m| m.into_inner().expect(POISONED))
    {
        world.events.arm_arrival(key, node, pkt);
    }
    let mut drops: Vec<(Key, f64, f64)> = Vec::new();
    for (d, sh) in shards.iter_mut().enumerate() {
        let events = &mut sh.q.events;
        while let Some((key, ev)) = events.pop_keyed(Ps::MAX) {
            world.events.adopt(events, key, ev);
        }
        world.events.set_seq(d as u32, events.seq_of(d as u32));
        for host in &mut sh.store.hosts {
            for f in &mut host.ready {
                *f = plan.flow_gid[d][*f as usize];
            }
        }
        let m = &sh.store.metrics;
        stats.domain_events[d] = m.events_processed;
        drops.extend(
            sh.drop_keys
                .iter()
                .zip(&m.drop_buffer_util)
                .zip(&m.drop_membw_util)
                .map(|((&k, &b), &w)| (k, b, w)),
        );
    }
    // Each shard's samples are already in key order; the stable sort
    // merges those runs into the serial order.
    drops.sort_by_key(|d| d.0);
    for (_, b, w) in drops {
        world.metrics.drop_buffer_util.push(b);
        world.metrics.drop_membw_util.push(w);
    }
    world.hosts = reassemble(&mut shards, &plan.dm.host_domain, |s| &mut s.store.hosts);
    world.switches = reassemble(&mut shards, &plan.dm.switch_domain, |s| {
        &mut s.store.switches
    });
    world.flows.hot = reassemble(&mut shards, &plan.flow_dom, |s| &mut s.store.hot);
    world.flows.cold = reassemble(&mut shards, &plan.flow_dom, |s| &mut s.store.cold);
    world.flows.rx = reassemble(&mut shards, &plan.rx_dom, |s| &mut s.store.rx);
    world.cbrs = reassemble(&mut shards, &plan.cbr_dom, |s| &mut s.store.cbrs);
    for sh in &shards {
        let m = &sh.store.metrics;
        world.metrics.drops.threshold_drops += m.drops.threshold_drops;
        world.metrics.drops.full_drops += m.drops.full_drops;
        world.metrics.drops.head_drops += m.drops.head_drops;
        world.metrics.drops.pushout_evictions += m.drops.pushout_evictions;
        world.metrics.delivered_pkts += m.delivered_pkts;
        world.metrics.delivered_bytes += m.delivered_bytes;
        world.metrics.events_processed += m.events_processed;
        for (acc, n) in world
            .metrics
            .events_by_kind
            .iter_mut()
            .zip(m.events_by_kind)
        {
            *acc += n;
        }
        world.metrics.idle_port_frees += m.idle_port_frees;
        world.metrics.idle_host_tx_frees += m.idle_host_tx_frees;
        world.metrics.faults_fired += m.faults_fired;
        world.metrics.fault_drops += m.fault_drops;
        for (acc, c) in world.metrics.cbr.iter_mut().zip(&m.cbr) {
            acc.sent_pkts += c.sent_pkts;
            acc.sent_bytes += c.sent_bytes;
            acc.rcvd_pkts += c.rcvd_pkts;
            acc.rcvd_bytes += c.rcvd_bytes;
        }
    }
    world.now = shards.iter().map(|s| s.store.now).fold(world.now, Ps::max);
    stats
}

/// Builds the split plan from the world's domain map.
fn build_plan(world: &World, dm: DomainMap) -> Plan {
    let nd = dm.n_domains();
    let local = |doms: &[u32]| -> Vec<u32> {
        let mut next = vec![0u32; nd];
        doms.iter()
            .map(|&d| {
                let l = next[d as usize];
                next[d as usize] += 1;
                l
            })
            .collect()
    };
    let flow_dom: Vec<u32> = world
        .flows
        .hot
        .iter()
        .map(|f| dm.host_domain[f.src as usize])
        .collect();
    let rx_dom: Vec<u32> = world
        .flows
        .hot
        .iter()
        .map(|f| dm.host_domain[f.dst as usize])
        .collect();
    let cbr_dom: Vec<u32> = world.cbrs.iter().map(|c| dm.host_domain[c.host]).collect();
    let flow_loc = local(&flow_dom);
    let mut flow_gid = vec![Vec::new(); nd];
    for (f, &d) in flow_dom.iter().enumerate() {
        flow_gid[d as usize].push(f as FlowId);
    }
    Plan {
        host_loc: local(&dm.host_domain),
        sw_loc: local(&dm.switch_domain),
        flow_loc,
        rx_loc: local(&rx_dom),
        cbr_loc: local(&cbr_dom),
        flow_dom,
        rx_dom,
        cbr_dom,
        flow_gid,
        dm,
    }
}

/// Moves `items` into per-domain storage, preserving global-id order
/// within each domain (so storage index == the plan's `*_loc`).
fn distribute<T>(items: Vec<T>, dom: &[u32], mut sink: impl FnMut(usize, T)) {
    for (i, item) in items.into_iter().enumerate() {
        sink(dom[i] as usize, item);
    }
}

/// Rebuilds a global-id-ordered component vector from the shards.
fn reassemble<T>(
    shards: &mut [Shard],
    dom: &[u32],
    f: impl Fn(&mut Shard) -> &mut Vec<T>,
) -> Vec<T> {
    let mut iters: Vec<std::vec::IntoIter<T>> = shards
        .iter_mut()
        .map(|s| std::mem::take(f(s)).into_iter())
        .collect();
    dom.iter()
        .map(|&d| iters[d as usize].next().expect("component count mismatch"))
        .collect()
}

/// One shard's part of a window: deliver the arrivals other domains
/// posted for it, execute its events up to `hi`, post its own outgoing
/// arrivals. Returns the earliest time this shard leaves pending, in
/// its queue or in the mail it just posted.
fn run_shard_window(
    shard: &mut Shard,
    mail: &[Mutex<Vec<Mail>>],
    hi: Ps,
    cfg: &SimConfig,
    consts: &TransportConsts,
    faults: &[FaultSpec],
) -> Option<Ps> {
    let Shard {
        store,
        q,
        drop_keys,
    } = shard;
    let nd = q.out.len();
    let d = q.dom as usize;
    for src in 0..nd {
        for (key, node, pkt) in mail[src * nd + d].lock().expect(POISONED).drain(..) {
            q.events.arm_arrival(key, node, pkt);
        }
    }
    let mut ctx = Ctx {
        now: store.now,
        key: (store.now, 0),
        cfg,
        consts,
        hosts: &mut store.hosts,
        switches: &mut store.switches,
        hot: &mut store.hot,
        cold: &mut store.cold,
        rx: &mut store.rx,
        cbrs: &mut store.cbrs,
        samplers: &[],
        faults,
        metrics: &mut store.metrics,
    };
    while let Some((key, ev)) = q.events.pop_keyed(hi) {
        let d0 = ctx.metrics.drop_buffer_util.len();
        execute_event(&mut ctx, q, key, ev);
        let n = ctx.metrics.drop_buffer_util.len() - d0;
        drop_keys.extend(std::iter::repeat(key).take(n));
    }
    store.now = ctx.now;
    let mut earliest = q.events.peek_time();
    for (dst, out) in q.out.iter_mut().enumerate() {
        if let Some(t) = out.iter().map(|m| m.0 .0).min() {
            earliest = Some(earliest.map_or(t, |e| e.min(t)));
            mail[d * nd + dst].lock().expect(POISONED).append(out);
        }
    }
    earliest
}
