//! The benchmark's workloads and the calls into each simulator layer.
//!
//! Every workload is set up in two layer calls (topology, then traffic),
//! advanced by the engine, and read back by the stats layer. `main.rs`
//! times each call from outside; nothing here measures.

use occamy_bench::fabric::{FabricScenario, FabricTopo};
use occamy_bench::figs::perf_transport::PerfTransport;
use occamy_bench::report::aggregate;
use occamy_bench::scenario::{Scale, Scenario};
use occamy_bench::scenarios::{inject_fabric_workload, BgPattern};
use occamy_core::BmKind;
use occamy_sim::topology::{single_switch, BmSpec, SchedKind, SingleSwitchCfg};
use occamy_sim::{CbrDesc, Ps, SimConfig, World, MS, US};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// perf_transport's `incast` cell at full scale.
    FabricIncast,
    /// perf_transport's `permutation` cell at quick scale.
    FabricPermutation,
    /// The same inputs on the 2-thread parallel engine.
    FabricPermutationT2,
    /// One shared-buffer switch under CBR bursts, no transport.
    SwitchBurst,
}

/// Every workload, in the order the benchmark documents them.
pub const ALL: [Workload; 4] = [
    Workload::FabricIncast,
    Workload::FabricPermutation,
    Workload::FabricPermutationT2,
    Workload::SwitchBurst,
];

// switch_burst inputs.
const BURST_SENDERS: usize = 16;
const BURST_RECEIVERS: usize = 16;
const BURST_SENDER_BPS: u64 = 100_000_000_000;
const BURST_RECEIVER_BPS: u64 = 25_000_000_000;
const BURST_BACKGROUND_BPS: u64 = 20_000_000_000;
const BURST_BYTES: u64 = 300_000;
const BURST_PERIOD: Ps = 400 * US;
const BURST_DURATION: Ps = 250 * MS;
const BURST_DRAIN: Ps = 5 * MS;
const BURST_BUFFER_BYTES: u64 = 16_000_000;
const BURST_DEFAULT_SEED: u64 = 1;
const PKT_LEN: u32 = 1_460;

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name the benchmark command takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FabricIncast => "fabric_incast",
            Workload::FabricPermutation => "fabric_permutation",
            Workload::FabricPermutationT2 => "fabric_permutation_t2",
            Workload::SwitchBurst => "switch_burst",
        }
    }

    /// Engine worker threads.
    pub fn threads(self) -> usize {
        if self == Workload::FabricPermutationT2 {
            2
        } else {
            1
        }
    }

    /// The seed used when none is given: perf_transport's grid seed for
    /// the fabric workloads, so their event counts match that scenario.
    pub fn default_seed(self) -> u64 {
        let pattern = match self {
            Workload::FabricIncast => "incast",
            Workload::FabricPermutation | Workload::FabricPermutationT2 => "permutation",
            Workload::SwitchBurst => return BURST_DEFAULT_SEED,
        };
        PerfTransport
            .grid(Scale::Full)
            .into_iter()
            .find(|c| c.str("pattern") == pattern)
            .expect("perf_transport has this pattern")
            .seed
    }

    /// Simulated time the engine runs to.
    pub fn limit_ps(self) -> Ps {
        match self {
            Workload::FabricIncast => 15 * MS + 100 * MS,
            Workload::FabricPermutation | Workload::FabricPermutationT2 => 4 * MS + 40 * MS,
            Workload::SwitchBurst => BURST_DURATION + BURST_DRAIN,
        }
    }

    fn fabric(self, seed: u64) -> Option<FabricScenario> {
        let (bg, qps, duration, drain) = match self {
            Workload::FabricIncast => (BgPattern::None, 400.0, 15 * MS, 100 * MS),
            Workload::FabricPermutation | Workload::FabricPermutationT2 => (
                BgPattern::Permutation {
                    flow_bytes: 1_000_000,
                    load: 0.6,
                    shift: 1,
                },
                200.0,
                4 * MS,
                40 * MS,
            ),
            Workload::SwitchBurst => return None,
        };
        // perf_transport's fabric: k=8 fat-tree, 100 G everywhere, 4 MB
        // per 8 ports, 32-way incast queries of 40% of that buffer.
        let mut f = FabricScenario::paper_scaled(FabricTopo::FatTree { k: 8 }, BmKind::Occamy, 8.0);
        f.host_rate_bps = 100_000_000_000;
        f.fabric_rate_bps = 100_000_000_000;
        f.buffer_per_8ports = 4_000_000;
        f.sim = SimConfig::large_scale();
        f.sim.threads = self.threads();
        f.query_bytes = f.buffer_per_8ports * 40 / 100;
        f.query_fanout = 32;
        f.bg = bg;
        f.qps_per_host = qps;
        f.duration_ps = duration;
        f.drain_ps = drain;
        f.seed = seed;
        Some(f)
    }

    /// Topology layer: the world without traffic.
    pub fn build(self, seed: u64) -> World {
        match self.fabric(seed) {
            Some(f) => f.build(),
            None => single_switch(SingleSwitchCfg {
                host_rates_bps: [BURST_SENDER_BPS; BURST_SENDERS]
                    .into_iter()
                    .chain([BURST_RECEIVER_BPS; BURST_RECEIVERS])
                    .collect(),
                prop_ps: US,
                buffer_bytes: BURST_BUFFER_BYTES,
                classes: 1,
                bm: BmSpec::uniform(BmKind::Occamy, 8.0),
                sched: SchedKind::Fifo,
                sim: SimConfig::default(),
            }),
        }
    }

    /// Traffic layer: generates the seeded inputs into `world`.
    pub fn inject(self, world: &mut World, seed: u64) {
        if let Some(f) = self.fabric(seed) {
            inject_fabric_workload(
                world,
                f.n_hosts(),
                f.host_rate_bps,
                &f.bg,
                f.query_bytes,
                f.query_fanout,
                f.qps_per_host,
                f.duration_ps,
                f.seed,
            );
            return;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let cbr = |host, dst, rate_bps, start_ps, stop_ps, budget_bytes| CbrDesc {
            host,
            dst,
            rate_bps,
            pkt_len: PKT_LEN,
            prio: 0,
            start_ps,
            stop_ps,
            budget_bytes,
        };
        for s in 0..BURST_SENDERS {
            let home = BURST_SENDERS + s;
            world.add_cbr(cbr(s, home, BURST_BACKGROUND_BPS, 0, BURST_DURATION, None));
            let phase = rng.gen_range(0..BURST_PERIOD);
            let mut t = phase;
            while t < BURST_DURATION {
                let dst = BURST_SENDERS + rng.gen_range(0..BURST_RECEIVERS);
                world.add_cbr(cbr(
                    s,
                    dst,
                    BURST_SENDER_BPS,
                    t,
                    BURST_DURATION,
                    Some(BURST_BYTES),
                ));
                t += BURST_PERIOD;
            }
        }
    }

    /// Stats layer: reads the finished world back into a [`Fingerprint`].
    pub fn report(self, world: &World, seed: u64) -> Fingerprint {
        let m = &world.metrics;
        let flows = world.flow_records();
        let resilience = world.resilience();
        let qct_p99_ms = self.fabric(seed).and_then(|f| {
            aggregate(
                &flows,
                f.ideal(),
                m.drops.total_losses(),
                m.events_processed,
            )
            .qct_ms
            .p99()
        });
        Fingerprint {
            events: m.events_processed,
            flows: flows.records().len() as u64,
            unfinished: flows.unfinished() as u64,
            qct_p99_ms,
            threshold_drops: m.drops.threshold_drops,
            full_drops: m.drops.full_drops,
            head_drops: m.drops.head_drops,
            pushout_evictions: m.drops.pushout_evictions,
            fault_drops: m.fault_drops,
            total_losses: m.drops.total_losses(),
            delivered_pkts: m.delivered_pkts,
            cbr_sent_pkts: m.cbr.iter().map(|c| c.sent_pkts).sum(),
            cbr_rcvd_pkts: m.cbr.iter().map(|c| c.rcvd_pkts).sum(),
            retransmissions: resilience.retransmissions,
            rto_fires: resilience.rto_fires,
        }
    }
}

/// The simulated outputs of one run; `run.py` checks that runs of the
/// same inputs produce equal fingerprints.
#[derive(Debug)]
pub struct Fingerprint {
    /// Events the engine executed.
    pub events: u64,
    /// Transport flows injected.
    pub flows: u64,
    /// Transport flows not finished by the end of the run.
    pub unfinished: u64,
    /// 99th-percentile query completion time.
    pub qct_p99_ms: Option<f64>,
    /// Packets refused by the buffer-management threshold.
    pub threshold_drops: u64,
    /// Packets refused because the buffer was full.
    pub full_drops: u64,
    /// Packets expelled from a queue head (Occamy's preemption).
    pub head_drops: u64,
    /// Packets evicted by pushout.
    pub pushout_evictions: u64,
    /// Packets lost to injected faults.
    pub fault_drops: u64,
    /// All buffer losses.
    pub total_losses: u64,
    /// Packets delivered to hosts.
    pub delivered_pkts: u64,
    /// Packets CBR sources emitted.
    pub cbr_sent_pkts: u64,
    /// Packets CBR sinks received.
    pub cbr_rcvd_pkts: u64,
    /// Segments retransmitted.
    pub retransmissions: u64,
    /// Retransmission timeouts fired.
    pub rto_fires: u64,
}
