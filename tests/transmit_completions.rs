//! Lazy transmit completions on a fabric: a port or NIC schedules its
//! completion event only when something waits to go next. The serial
//! and two-thread engines must agree exactly, and a port's completion
//! may find its queues empty only when something other than a transmit
//! emptied them (an expulsion, a pushout eviction or a fault).

use occamy::core::BmKind;
use occamy::sim::topology::{fat_tree, BmSpec, FatTreeCfg, SchedKind};
use occamy::sim::{CcAlgo, Event, FlowDesc, SimConfig, World, XpSched, SEC, US};

/// The buffer managements of a cell.
#[derive(Clone, Copy, Debug)]
enum Arch {
    Shared(BmKind),
    Crosspoint,
}

/// A k=4 fat-tree (16 hosts) under a shifted permutation plus a 7:1
/// incast into host 0.
fn cell(arch: Arch, buffer_per_8ports_bytes: u64, threads: usize) -> World {
    let kind = match arch {
        Arch::Shared(kind) => kind,
        Arch::Crosspoint => BmKind::CompleteSharing,
    };
    let mut w = fat_tree(FatTreeCfg {
        k: 4,
        host_rate_bps: 10_000_000_000,
        fabric_rate_bps: 10_000_000_000,
        link_prop_ps: US,
        buffer_per_8ports_bytes,
        classes: 1,
        bm: BmSpec::per_class(kind, vec![8.0]),
        sched: SchedKind::Fifo,
        sim: SimConfig {
            threads,
            ..SimConfig::default()
        },
    });
    if let Arch::Crosspoint = arch {
        w.enable_crosspoint(XpSched::RoundRobin);
    }
    let flow = |src, dst, bytes, start_ps, query| FlowDesc {
        src,
        dst,
        bytes,
        start_ps,
        prio: 0,
        cc: CcAlgo::Dctcp,
        query,
        is_query: query.is_some(),
    };
    for src in 0..16 {
        w.add_flow(flow(
            src,
            (src + 5) % 16,
            120_000,
            src as u64 * 2 * US,
            None,
        ));
    }
    for src in 9..16 {
        w.add_flow(flow(src, 0, 40_000, 20 * US, Some(1)));
    }
    w.run_to_completion(SEC);
    assert!(w.all_flows_done(), "{arch:?} left flows unfinished");
    w
}

/// Flow records and drop counters, formatted for exact equality.
fn outcome(w: &World) -> String {
    format!(
        "{:?} faults={}\n{:?}",
        w.metrics.drops,
        w.metrics.fault_drops,
        w.flow_records().records()
    )
}

#[test]
fn serial_and_two_threads_agree_and_completions_do_work() {
    let archs = [
        Arch::Shared(BmKind::Occamy),
        Arch::Shared(BmKind::Pushout),
        Arch::Crosspoint,
    ];
    let mut idle_free_cells = 0;
    for arch in archs {
        // A buffer that drops (expulsions, evictions) and one that
        // never does.
        for buffer in [60_000, 4_000_000] {
            let serial = cell(arch, buffer, 1);
            let par = cell(arch, buffer, 2);
            assert!(par.par_stats.is_some(), "threads=2 stayed serial");
            assert_eq!(outcome(&par), outcome(&serial), "{arch:?} {buffer} B");
            let m = &serial.metrics;
            assert_eq!(m.idle_port_frees, par.metrics.idle_port_frees);
            assert_eq!(m.events_by_kind, par.metrics.events_by_kind);
            assert_eq!(m.events_by_kind.iter().sum::<u64>(), m.events_processed);
            let port_frees = m.events_by_kind[Event::PortFree { switch: 0, port: 0 }.kind()];
            assert!(
                port_frees > 0,
                "{arch:?} {buffer} B scheduled no completion"
            );
            let d = &m.drops;
            if d.head_drops == 0 && d.pushout_evictions == 0 && m.fault_drops == 0 {
                // Only a transmit dequeues here, so every scheduled
                // completion finds the packet it was scheduled for.
                assert_eq!(m.idle_port_frees, 0, "{arch:?} {buffer} B");
                idle_free_cells += 1;
            }
        }
    }
    // Every architecture's large-buffer cell, at least, ran the check.
    assert!(
        idle_free_cells >= archs.len(),
        "only {idle_free_cells} cells"
    );
}
