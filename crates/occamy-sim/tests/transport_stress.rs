//! Transport-stress regression pins: a high-BDP, lossy, reordering-heavy
//! workload whose per-flow completion times were snapshotted from the
//! pre-refactor (array-of-structs `FlowState`, heap-resident RTO timers)
//! transport implementation. The hot/cold flow-state split and the RTO
//! timer wheel must reproduce every `FlowRecord` **bit for bit** — any
//! drift here means the refactor changed simulation behavior, not just
//! its speed.

use occamy_core::BmKind;
use occamy_sim::topology::{single_switch, BmSpec, SchedKind, SingleSwitchCfg};
use occamy_sim::{CcAlgo, FlowDesc, SimConfig, World, MS, SEC, US};

/// A deliberately hostile world: four senders share one 10 G port pair
/// through a buffer far below the path BDP (500 µs one-way propagation
/// ⇒ ~2 ms RTT ⇒ 2.5 MB BDP vs an 80 KB buffer), so slow-start
/// overshoot forces tail drops, go-back-N retransmissions and long
/// out-of-order runs at the receiver — every transport code path at
/// once, across all three congestion-control algorithms.
fn stress_world() -> World {
    let mut w = single_switch(SingleSwitchCfg {
        host_rates_bps: vec![10_000_000_000; 5],
        prop_ps: 500 * US,
        buffer_bytes: 80_000,
        classes: 1,
        bm: BmSpec::uniform(BmKind::Dt, 1.0),
        sched: SchedKind::Fifo,
        sim: SimConfig {
            min_rto: 10 * MS,
            ..SimConfig::default()
        },
    });
    for (src, bytes, cc, start_us) in [
        (0usize, 2_000_000u64, CcAlgo::Dctcp, 0u64),
        (1, 1_500_000, CcAlgo::Cubic, 100),
        (2, 1_000_000, CcAlgo::Reno, 200),
        (3, 600_000, CcAlgo::Dctcp, 300),
    ] {
        w.add_flow(FlowDesc {
            src,
            dst: 4,
            bytes,
            start_ps: start_us * US,
            prio: 0,
            cc,
            query: None,
            is_query: false,
        });
    }
    w
}

#[test]
fn lossy_high_bdp_flows_match_pre_refactor_snapshot() {
    let mut w = stress_world();
    w.run_to_completion(20 * SEC);

    let records = w.flow_records();
    let end_ps: Vec<Option<u64>> = records.records().iter().map(|r| r.end_ps).collect();

    // Snapshot taken from the pre-refactor transport implementation
    // (commit ab12b48) by running this exact world.
    let expected_end_ps: [Option<u64>; 4] = [
        Some(SNAP_END_0),
        Some(SNAP_END_1),
        Some(SNAP_END_2),
        Some(SNAP_END_3),
    ];
    assert_eq!(end_ps, expected_end_ps, "flow completion times drifted");
    assert_eq!(
        (
            w.metrics.delivered_pkts,
            w.metrics.delivered_bytes,
            w.metrics.drops.total_losses(),
            w.metrics.events_processed,
        ),
        (SNAP_PKTS, SNAP_BYTES, SNAP_LOSSES, SNAP_EVENTS),
        "delivery / loss / event counters drifted"
    );
}

#[test]
fn stress_world_is_deterministic() {
    let run = || {
        let mut w = stress_world();
        w.run_to_completion(20 * SEC);
        (
            w.flow_records()
                .records()
                .iter()
                .map(|r| r.end_ps)
                .collect::<Vec<_>>(),
            w.metrics.events_processed,
        )
    };
    assert_eq!(run(), run());
}

// Snapshot constants (picoseconds / counts) — see the module doc.
const SNAP_END_0: u64 = 344_444_048_000;
const SNAP_END_1: u64 = 18_493_072_000;
const SNAP_END_2: u64 = 174_629_488_000;
const SNAP_END_3: u64 = 168_688_128_000;
const SNAP_PKTS: u64 = 3_498;
const SNAP_BYTES: u64 = 5_105_840;
const SNAP_LOSSES: u64 = 316;
// Executed events: 28,813 while every transmit completion was pushed
// eagerly; lazy completions skip the ones with nothing to send.
const SNAP_EVENTS: u64 = 21_114;

// When capturing a fresh snapshot (intentional behavior change), run
// with `--nocapture` on the reference commit:
#[test]
#[ignore = "snapshot capture helper, run manually with --nocapture"]
fn print_snapshot() {
    let mut w = stress_world();
    w.run_to_completion(20 * SEC);
    for (i, r) in w.flow_records().records().iter().enumerate() {
        println!("flow {i}: end_ps = {:?}", r.end_ps);
    }
    println!(
        "pkts={} bytes={} losses={} events={}",
        w.metrics.delivered_pkts,
        w.metrics.delivered_bytes,
        w.metrics.drops.total_losses(),
        w.metrics.events_processed
    );
}
