//! Telemetry on ≡ off: installing the trace bus must not change a
//! single output byte. fig12 runs at smoke scale under
//! `OCCAMY_FREEZE_PERF=1`, first without telemetry, then with it; every
//! `BENCH_*.json` and `results/*.csv` must be byte-identical, and the
//! telemetry run must actually have streamed snapshots.
//!
//! This is its own test binary with a single #[test]: the telemetry bus
//! and the freeze/cadence settings are process-global, so no other test
//! may run beside it.

use occamy::stats::Json;
use occamy_bench::live::TelemetrySink;
use occamy_bench::registry::find_scenario;
use occamy_bench::runner::{execute, render_into};
use occamy_bench::scenario::Scale;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("occamy_tel_eq_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every report file under `root` keyed by relative path, without the
/// telemetry JSONL stream (it exists only on the telemetry side).
fn report_files(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().to_string_lossy();
                if !rel.ends_with("_telemetry.jsonl") {
                    out.insert(rel.into_owned(), std::fs::read(&path).unwrap());
                }
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

fn run_fig12(root: &Path) {
    let scenario = find_scenario("fig12").unwrap();
    let (runs, stats) = execute(&[scenario], Scale::Smoke, false);
    render_into(&runs[0], Scale::Smoke, stats.wall, root).unwrap();
}

#[test]
fn telemetry_on_writes_the_same_report_bytes_as_off() {
    std::env::set_var("OCCAMY_FREEZE_PERF", "1");
    // A short cadence so every smoke cell emits periodic snapshots.
    std::env::set_var("OCCAMY_TELEMETRY_EVERY", "2000");

    let off = scratch_dir("off");
    run_fig12(&off);
    let off_files = report_files(&off);
    assert!(off_files.contains_key("BENCH_fig12.json"));
    assert!(off_files.keys().any(|k| k.ends_with(".csv")));

    let on = scratch_dir("on");
    let sink = TelemetrySink::start(&on, false);
    run_fig12(&on);
    sink.finish();
    let on_files = report_files(&on);
    assert_eq!(
        off_files.keys().collect::<Vec<_>>(),
        on_files.keys().collect::<Vec<_>>()
    );
    for (path, bytes) in &off_files {
        assert!(&on_files[path] == bytes, "{path} differs with telemetry on");
    }

    let stream = std::fs::read_to_string(on.join("results/fig12_telemetry.jsonl"))
        .expect("telemetry stream was written");
    let snaps = stream
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("unparseable line {l}: {e}")))
        .filter(|r| r.get("kind").and_then(Json::as_str) == Some("snap"))
        .count();
    assert!(snaps > 0, "telemetry run streamed no snapshots");

    for d in [&off, &on] {
        let _ = std::fs::remove_dir_all(d);
    }
}
