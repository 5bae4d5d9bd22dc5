#!/usr/bin/env python3
"""Same-host benchmark of the Occamy simulator, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. It builds the `perfbench` package
(which links the workspace crates as libraries), then starts one
`perfbench` process per workload instance until `--seconds` have passed,
checks every instance's simulated outputs, and prints as its last line one
JSON object: `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics from untraced instances.
`--trace 1` reports the per-layer metrics from traced instances (counting
allocator on, and on serial workloads the engine advanced in fixed
simulated-time slices), each beside an untraced instance of the same
inputs so the tracing overhead is known.
See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Workload name -> (runs a transport fabric, engine threads).
WORKLOADS = {
    "fabric_incast": (True, 1),
    "fabric_permutation": (True, 1),
    "fabric_permutation_t2": (True, 2),
    "switch_burst": (False, 1),
}
MIN_INSTANCES = 2  # untraced instances per run, whatever --seconds says
SETUP_PROCS = 20  # set-up-only processes per run; setup_s is their median
DEADLINE_S = 170  # the whole command must end within 180 s
MB = 1 << 20


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the instance binary from source; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.join(ROOT, target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=870)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


class Runner:
    """Starts instances and counts them, and the ones that fail a check."""

    def __init__(self, binary, seed, seconds):
        self.binary, self.seed, self.seconds = binary, seed, seconds
        self.start = time.monotonic()
        self.attempted = self.failed = 0
        self.errors = []

    def elapsed(self):
        return time.monotonic() - self.start

    def instance(self, workload, *flags):
        """Runs one instance; returns its record, or None if it crashed."""
        self.attempted += 1
        cmd = [self.binary, "--workload", workload, "--seed", str(self.seed), *flags]
        budget = max(5.0, DEADLINE_S - self.elapsed())
        try:
            r = subprocess.run(cmd, capture_output=True, text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            return self.reject(f"{workload} {' '.join(flags)}: timed out")
        if r.returncode != 0:
            return self.reject(f"{workload}: exit {r.returncode}: {r.stderr.strip()[-300:]}")
        rec = json.loads(r.stdout.strip().splitlines()[-1])
        if "run_s" in rec:
            print(
                f"  {workload} {' '.join(flags) or '(untraced)'}: run {rec['run_s']:.3f} s, "
                f"{rec['fingerprint']['events']} events",
                file=sys.stderr,
            )
        return rec

    def fits(self, took):
        """Whether one more step, as long as the median of `took`, still
        ends within --seconds."""
        return self.elapsed() + median(took) <= self.seconds

    def reject(self, why):
        self.failed += 1
        self.errors.append(why)
        print(f"  FAILED: {why}", file=sys.stderr)
        return None

    def check(self, workload, rec, reference, what="fingerprint"):
        """Checks one instance's outputs; counts it failed on any miss."""
        fp = rec["fingerprint"]
        problems = []
        if reference is not None and fp != reference["fingerprint"]:
            problems.append(f"{what} differs: {fp} vs {reference['fingerprint']}")
        fabric, _ = WORKLOADS[workload]
        if fabric and fp["unfinished"] > 0:
            problems.append(f"{fp['unfinished']} flows unfinished")
        if not fabric and fp["cbr_sent_pkts"] != fp["cbr_rcvd_pkts"] + fp["total_losses"]:
            problems.append(
                f"not conserved: sent {fp['cbr_sent_pkts']} != received "
                f"{fp['cbr_rcvd_pkts']} + lost {fp['total_losses']}"
            )
        if problems:
            self.reject(f"{workload}: " + "; ".join(problems))


def median(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(runner, workload):
    """Untraced instances until --seconds pass; medians of each metric."""
    setups = [runner.instance(workload, "--setup-only") for _ in range(SETUP_PROCS)]
    if None in setups:
        fail(f"{workload}: set-up failed: {runner.errors}")
    recs, took = [], []
    while len(recs) < MIN_INSTANCES or runner.fits(took):
        t0 = time.monotonic()
        rec = runner.instance(workload)
        took.append(time.monotonic() - t0)
        if rec is None:
            break
        runner.check(workload, rec, recs[0] if recs else None)
        recs.append(rec)
    if not recs:
        fail(f"{workload}: no instance finished: {runner.errors}")
    return {
        "run_s": (median([r["run_s"] for r in recs]), "s"),
        "events_per_sec": (
            median([r["fingerprint"]["events"] / r["run_s"] for r in recs]),
            "1/s",
        ),
        "wall_s": (median([r["wall_s"] for r in recs]), "s"),
        "setup_s": (median([s["setup_s"] for s in setups]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in recs]), "MB"),
    }


def traced_group(runner, workload, serial):
    """One untraced and one counted instance of the same inputs, then one
    counted and sliced (serial workloads) or the serial twin (the parallel
    workload). Returns None if an instance did not finish."""
    g = {
        "plain": runner.instance(workload),
        "counted": runner.instance(workload, "--count-alloc"),
    }
    if serial:
        g["traced"] = runner.instance(workload, "--count-alloc", "--sliced")
    else:
        g["traced"] = g["counted"]
        g["serial"] = runner.instance("fabric_permutation")
    if any(r is None for r in g.values()):
        return None
    runner.check(workload, g["plain"], None)
    runner.check(workload, g["counted"], g["plain"], "counted fingerprint")
    if serial:
        runner.check(workload, g["traced"], g["plain"], "sliced fingerprint")
    else:
        runner.check(workload, g["serial"], g["plain"], "serial fingerprint")
    return g


def per_layer(runner, workload):
    """Traced groups until --seconds pass; per-layer metrics."""
    fabric, threads = WORKLOADS[workload]
    serial = threads == 1
    groups, took = [], []
    while not groups or runner.fits(took):
        t0 = time.monotonic()
        g = traced_group(runner, workload, serial)
        took.append(time.monotonic() - t0)
        if g is None:
            break
        groups.append(g)
    if not groups:
        fail(f"{workload}: no traced group finished: {runner.errors}")

    def med(role, key):
        return median([g[role][key] for g in groups])

    traced = groups[0]["traced"]
    fp = traced["fingerprint"]
    expelled, done = fp["head_drops"] > 0, fp["flows"] - fp["unfinished"]
    if (fabric and (expelled or done == 0)) or (not fabric and (not expelled or done)):
        runner.reject(f"{workload}: layer separation broken: {fp}")
    windows = traced["par_windows"]
    if (windows > 0) == serial:
        runner.reject(f"{workload}: {windows} par windows on {threads} threads")

    plain_run = med("plain", "run_s")
    traced_run = med("traced", "run_s")
    events = fp["events"]
    dom = traced["par_domain_events"]
    losses = fp["total_losses"]
    return {
        "topology.build_s": (med("traced", "build_s"), "s"),
        "topology.heap_bytes_per_host": (
            traced["topology_heap_bytes"] / traced["hosts"], "bytes"),
        "traffic.inject_s": (med("traced", "inject_s"), "s"),
        "traffic.flows": (traced["traffic_flows"], "count"),
        "traffic.heap_mb": (traced["traffic_heap_bytes"] / MB, "MB"),
        "engine.events": (events, "count"),
        "engine.ns_per_event": (traced_run * 1e9 / events, "ns"),
        "engine.peak_heap_mb": (traced["engine_peak_heap_bytes"] / MB, "MB"),
        "engine.slice_ns_per_event.p50": (med("traced", "slice_ns_per_event_p50"), "ns"),
        "engine.slice_ns_per_event.p99": (med("traced", "slice_ns_per_event_p99"), "ns"),
        "switch.delivered_pkts": (fp["delivered_pkts"], "count"),
        "switch.tail_drops": (fp["threshold_drops"] + fp["full_drops"], "count"),
        "switch.expulsions": (fp["head_drops"], "count"),
        "bm.expel_share": (fp["head_drops"] / losses if losses else 0.0, "ratio"),
        "transport.flows_done": (done, "count"),
        "transport.unfinished": (fp["unfinished"], "count"),
        "transport.retransmissions": (fp["retransmissions"], "count"),
        "transport.rto_fires": (fp["rto_fires"], "count"),
        "par.windows": (windows, "count"),
        "par.workers": (traced["par_workers"], "count"),
        "par.events_per_window": (events / windows if windows else 0.0, "count"),
        "par.domain_imbalance": (
            max(dom) / statistics.mean(dom) if sum(dom) else 0.0, "ratio"),
        "par.speedup": (0.0 if serial else med("serial", "run_s") / plain_run, "ratio"),
        "stats.report_s": (med("traced", "report_s"), "s"),
        "trace.overhead": (traced_run / plain_run, "ratio"),
        "alloc.overhead": (med("counted", "run_s") / plain_run, "ratio"),
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    binary = build()
    runner = Runner(binary, args.seed, args.seconds)
    print(f"perfbench: {args.workload} seed {args.seed}", file=sys.stderr)
    metrics = (per_layer if args.trace else end_to_end)(runner, args.workload)
    for err in runner.errors:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
