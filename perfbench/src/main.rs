//! One benchmark instance: sets up, runs and reads back one workload in
//! this process, timing each layer call from outside, and prints one
//! JSON line. `run.py` starts one process per instance, so the peak RSS
//! it reads here belongs to that workload alone.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--setup-only | [--count-alloc] [--sliced]]
//! ```
//!
//! - `--setup-only` builds and injects the world once and reports the
//!   set-up time; no run, no report. `run.py` starts many such processes,
//!   so every set-up sample is cold, as a real run's set-up is.
//! - `--count-alloc` switches the counting allocator on and reports the
//!   live and peak heap of each phase.
//! - `--sliced` advances the engine in [`SLICE`] simulated-time slices
//!   with `World::run_until` and reports host ns per event per slice.

mod alloc;
mod workload;

use occamy_sim::{Ps, World, US};
use occamy_stats::Json;
use std::time::Instant;
use workload::{Fingerprint, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Simulated time per slice of a `--sliced` run: short enough that the
/// fabric incast's ~15 ms of activity yields over a thousand slices.
const SLICE: Ps = 10 * US;

struct Args {
    workload: Workload,
    seed: u64,
    setup_only: bool,
    count_alloc: bool,
    sliced: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload NAME [--seed N] [--setup-only | [--count-alloc] [--sliced]]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let (mut workload, mut seed) = (None, None);
    let (mut setup_only, mut count_alloc, mut sliced) = (false, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Workload::parse(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{name}'"))),
                );
            }
            "--seed" => {
                let v = value();
                seed = Some(
                    v.parse()
                        .unwrap_or_else(|_| usage(&format!("bad seed: {v}"))),
                );
            }
            "--setup-only" => setup_only = true,
            "--count-alloc" => count_alloc = true,
            "--sliced" => sliced = true,
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if setup_only && (count_alloc || sliced) {
        usage("--setup-only takes neither --count-alloc nor --sliced");
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| workload.default_seed()),
        setup_only,
        count_alloc,
        sliced,
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank]
}

fn fingerprint_json(fp: &Fingerprint) -> Json {
    Json::obj([
        ("events", Json::from(fp.events)),
        ("flows", Json::from(fp.flows)),
        ("unfinished", Json::from(fp.unfinished)),
        ("qct_p99_ms", fp.qct_p99_ms.map_or(Json::Null, Json::from)),
        ("threshold_drops", Json::from(fp.threshold_drops)),
        ("full_drops", Json::from(fp.full_drops)),
        ("head_drops", Json::from(fp.head_drops)),
        ("pushout_evictions", Json::from(fp.pushout_evictions)),
        ("fault_drops", Json::from(fp.fault_drops)),
        ("total_losses", Json::from(fp.total_losses)),
        ("delivered_pkts", Json::from(fp.delivered_pkts)),
        ("cbr_sent_pkts", Json::from(fp.cbr_sent_pkts)),
        ("cbr_rcvd_pkts", Json::from(fp.cbr_rcvd_pkts)),
        ("retransmissions", Json::from(fp.retransmissions)),
        ("rto_fires", Json::from(fp.rto_fires)),
    ])
}

/// A world ready to run, with what its set-up cost.
struct Setup {
    world: World,
    build_s: f64,
    inject_s: f64,
    /// Live heap the topology build left (0 unless counting).
    topology_heap: i64,
    /// Live heap the traffic injection added (0 unless counting).
    traffic_heap: i64,
}

/// Topology layer, then traffic layer.
fn set_up(w: Workload, seed: u64) -> Setup {
    let h0 = alloc::live();
    let t0 = Instant::now();
    let mut world = w.build(seed);
    let build_s = t0.elapsed().as_secs_f64();
    let h1 = alloc::live();
    let t1 = Instant::now();
    w.inject(&mut world, seed);
    let inject_s = t1.elapsed().as_secs_f64();
    Setup {
        world,
        build_s,
        inject_s,
        topology_heap: h1 - h0,
        traffic_heap: alloc::live() - h1,
    }
}

fn setup_only(w: Workload, seed: u64) {
    let s = set_up(w, seed);
    let out = Json::obj([
        ("workload", Json::from(w.name())),
        ("seed", Json::from(seed)),
        ("setup_s", Json::from(s.build_s + s.inject_s)),
    ]);
    println!("{out}");
}

/// Advances the engine to `limit` in [`SLICE`] steps; returns host ns
/// per event of each slice that executed events, sorted.
fn run_sliced(world: &mut World, limit: Ps) -> Vec<f64> {
    let mut ns_per_event = Vec::new();
    let mut t = 0;
    while t < limit {
        t = (t + SLICE).min(limit);
        let e0 = world.metrics.events_processed;
        let s0 = Instant::now();
        world.run_until(t);
        let ns = s0.elapsed().as_nanos() as f64;
        let events = world.metrics.events_processed - e0;
        if events > 0 {
            ns_per_event.push(ns / events as f64);
        }
    }
    ns_per_event.sort_by(f64::total_cmp);
    ns_per_event
}

fn main() {
    let args = parse_args();
    let (w, seed) = (args.workload, args.seed);
    if args.setup_only {
        setup_only(w, seed);
        return;
    }
    if args.count_alloc {
        alloc::enable();
    }

    let Setup {
        mut world,
        build_s,
        inject_s,
        topology_heap,
        traffic_heap,
    } = set_up(w, seed);
    let traffic_flows = world.flows.hot.len() + world.cbrs.len();

    alloc::reset_peak();
    let limit = w.limit_ps();
    let t_run = Instant::now();
    let slices = if args.sliced {
        run_sliced(&mut world, limit)
    } else {
        world.run_to_completion(limit);
        Vec::new()
    };
    let run_s = t_run.elapsed().as_secs_f64();
    let engine_peak_heap = alloc::peak();

    let t_report = Instant::now();
    let fp = w.report(&world, seed);
    let report_s = t_report.elapsed().as_secs_f64();

    let par = world.par_stats.as_ref();
    let heap = |bytes: i64| Json::from(bytes as f64);
    let out = Json::obj([
        ("workload", Json::from(w.name())),
        ("seed", Json::from(seed)),
        ("threads", Json::from(world.cfg.threads)),
        ("hosts", Json::from(world.hosts.len())),
        ("build_s", Json::from(build_s)),
        ("inject_s", Json::from(inject_s)),
        ("run_s", Json::from(run_s)),
        ("report_s", Json::from(report_s)),
        ("wall_s", Json::from(build_s + inject_s + run_s + report_s)),
        ("peak_rss_mb", Json::from(peak_rss_mb())),
        ("traffic_flows", Json::from(traffic_flows)),
        ("topology_heap_bytes", heap(topology_heap)),
        ("traffic_heap_bytes", heap(traffic_heap)),
        ("engine_peak_heap_bytes", heap(engine_peak_heap)),
        ("slices", Json::from(slices.len())),
        (
            "slice_ns_per_event_p50",
            Json::from(percentile(&slices, 50.0)),
        ),
        (
            "slice_ns_per_event_p99",
            Json::from(percentile(&slices, 99.0)),
        ),
        ("par_windows", Json::from(par.map_or(0, |p| p.windows))),
        ("par_workers", Json::from(par.map_or(0, |p| p.workers))),
        (
            "par_domain_events",
            Json::arr(
                par.map_or(&[][..], |p| &p.domain_events[..])
                    .iter()
                    .map(|&e| Json::from(e)),
            ),
        ),
        ("fingerprint", fingerprint_json(&fp)),
    ]);
    println!("{out}");
}
