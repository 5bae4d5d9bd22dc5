//! The sharding acceptance bar: **plan → run → merge must be
//! byte-identical to a direct run** — for a registry figure and for a
//! `--spec` scenario — and every corruption of a plan or journal must
//! fail with a clear error naming the shard, never a panic or a
//! silently dropped cell.
//!
//! Everything runs under `OCCAMY_FREEZE_PERF=1` (as the CI
//! `shard-equivalence` job does): wall-clock fields are the one
//! platform-dependent output, and freezing them to zero is what makes
//! `cmp`-level equality meaningful across machines.

use occamy_bench::runner::{execute, render_into};
use occamy_bench::scenario::{Scale, Scenario};
use occamy_bench::shard::{self, ShardSource};
use occamy_bench::spec_scenario::SpecScenario;
use occamy_stats::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn freeze() {
    std::env::set_var("OCCAMY_FREEZE_PERF", "1");
}

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory per call (tests run concurrently).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "occamy_shard_eq_{}_{tag}_{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn specs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../specs")
        .canonicalize()
        .expect("specs/ directory exists")
}

/// Every file under `root`, keyed by its relative path.
fn tree(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .to_string();
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

/// Runs `source` directly (serial) and renders into `root`.
fn direct(source: &ShardSource, scale: Scale, root: &Path) {
    let (runs, stats) = execute(&[source.scenario()], scale, false);
    render_into(&runs[0], scale, stats.wall, root).unwrap();
}

/// plan → run each shard → merge into `root`.
fn sharded(source: &ShardSource, scale: Scale, shards: usize, root: &Path) {
    let plans = shard::plan(source, scale, shards, &root.join("shards")).unwrap();
    let journals: Vec<PathBuf> = plans
        .iter()
        .map(|p| shard::run_shard(p, false, false).unwrap())
        .collect();
    shard::merge(&journals, root).unwrap();
}

/// The full equivalence check: identical file sets, byte-identical
/// contents (BENCH json and every CSV).
fn assert_equivalent(source: &ShardSource, scale: Scale, shards: usize, tag: &str) {
    freeze();
    let a = scratch(&format!("{tag}_direct"));
    let b = scratch(&format!("{tag}_merged"));
    direct(source, scale, &a);
    sharded(source, scale, shards, &b);
    let direct_files = tree(&a);
    let mut merged_files = tree(&b);
    // The merged tree also holds the shard plans and journals.
    merged_files.retain(|k, _| !k.starts_with("shards"));
    assert_eq!(
        direct_files.keys().collect::<Vec<_>>(),
        merged_files.keys().collect::<Vec<_>>(),
        "{tag}: output file sets differ"
    );
    let name = source.scenario().name();
    assert!(
        direct_files.contains_key(&format!("BENCH_{name}.json")),
        "{tag}: direct run produced no BENCH json"
    );
    for (path, bytes) in &direct_files {
        assert_eq!(
            bytes, &merged_files[path],
            "{tag}: {path} differs between direct run and plan/run/merge"
        );
    }
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}

#[test]
fn fig12_plan_run_merge_is_byte_identical_to_direct_run() {
    let source = ShardSource::from_name("fig12").unwrap();
    assert_equivalent(&source, Scale::Smoke, 3, "fig12");
}

#[test]
fn spec_scenario_plan_run_merge_is_byte_identical_to_direct_run() {
    let path = specs_dir().join("smoke.toml");
    let spec = SpecScenario::load(path.to_str().unwrap()).unwrap();
    assert_equivalent(&ShardSource::Spec(spec), Scale::Smoke, 2, "spec_smoke");
}

#[test]
fn paper_fabric_128h_plans_without_executing() {
    // The payoff spec: 60 full-scale cells of a 128-host fabric. Plan
    // it 8 ways (what CI smokes) and check coverage — but never run a
    // cell; that is what the sharding exists to distribute.
    let path = specs_dir().join("paper_fabric_128h.toml");
    let spec = SpecScenario::load(path.to_str().unwrap()).unwrap();
    assert_eq!(
        spec.grid(Scale::Full).len(),
        60,
        "5 sizes × 3 loads × 4 schemes"
    );
    let root = scratch("plan128h");
    let plans = shard::plan(&ShardSource::Spec(spec), Scale::Full, 8, &root).unwrap();
    assert_eq!(plans.len(), 8);
    let mut covered = 0usize;
    for p in &plans {
        let doc = Json::parse(&std::fs::read_to_string(p).unwrap()).unwrap();
        assert_eq!(doc.get("format").and_then(Json::as_u64), Some(1));
        assert!(
            doc.get("spec_toml").and_then(Json::as_str).is_some(),
            "spec plans must be self-contained"
        );
        covered += doc.get("cells").and_then(Json::as_arr).unwrap().len();
    }
    assert_eq!(covered, 60, "all cells assigned to some shard");
    let _ = std::fs::remove_dir_all(&root);
}

// -------------------------------------------------------------------
// Corruption handling
// -------------------------------------------------------------------

/// Plans fig12 into 2 shards and runs both, returning (root, journals).
fn fig12_journals() -> (PathBuf, Vec<PathBuf>) {
    freeze();
    let root = scratch("corrupt");
    let source = ShardSource::from_name("fig12").unwrap();
    let plans = shard::plan(&source, Scale::Smoke, 2, &root.join("shards")).unwrap();
    let journals = plans
        .iter()
        .map(|p| shard::run_shard(p, false, false).unwrap())
        .collect();
    (root, journals)
}

/// Rewrites a journal through `edit`, which gets the header line and
/// the outcome lines and returns the lines to keep.
fn edit_journal(journal: &Path, edit: impl FnOnce(String, Vec<String>) -> Vec<String>) {
    let text = std::fs::read_to_string(journal).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let header = lines.remove(0);
    let kept = edit(header, lines);
    std::fs::write(journal, format!("{}\n", kept.join("\n"))).unwrap();
}

#[test]
fn journal_cut_mid_line_merges_as_missing_cells_naming_the_shard() {
    let (root, journals) = fig12_journals();
    let text = std::fs::read_to_string(&journals[1]).unwrap();
    // Cut mid-way through the last line: that cell is not journaled.
    std::fs::write(&journals[1], &text[..text.len() - 20]).unwrap();
    let err = shard::merge(&journals, &root).unwrap_err();
    assert!(
        err.contains("grid cell(s) 3 [") && err.contains("missing"),
        "the torn cell must be reported missing: {err}"
    );
    assert!(
        err.contains("shard 1") && err.contains("fig12.shard-1.cells.jsonl"),
        "error must name the incomplete shard: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn version_mismatch_fails_with_both_versions() {
    let (root, journals) = fig12_journals();
    let text = std::fs::read_to_string(&journals[0]).unwrap();
    std::fs::write(&journals[0], text.replace("\"format\":1", "\"format\":99")).unwrap();
    let err = shard::merge(&journals, &root).unwrap_err();
    assert!(
        err.contains("fig12.shard-0.cells.jsonl") && err.contains("99"),
        "error must name the shard and its version: {err}"
    );
    assert!(err.contains("version 1"), "{err}");

    // Same gate on the plan side.
    let plan = root.join("shards/fig12.shard-0.json");
    let text = std::fs::read_to_string(&plan).unwrap();
    std::fs::write(&plan, text.replace("\"format\":1", "\"format\":2")).unwrap();
    let err = shard::run_shard(&plan, false, false).unwrap_err();
    assert!(err.contains("format version 2"), "{err}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn missing_shard_fails_listing_it() {
    let (root, journals) = fig12_journals();
    let err = shard::merge(&journals[..1], &root).unwrap_err();
    assert!(
        err.contains("missing journal(s) for shard(s) 1"),
        "error must list the absent shard: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn duplicate_shard_fails_naming_both_files() {
    let (root, journals) = fig12_journals();
    let dup = vec![journals[0].clone(), journals[0].clone()];
    let err = shard::merge(&dup, &root).unwrap_err();
    assert!(
        err.contains("already provided by"),
        "duplicate shard must be rejected: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn dropped_cell_fails_instead_of_silently_merging() {
    let (root, journals) = fig12_journals();
    // Remove one complete line from shard 0's journal, as a
    // partially-uploaded copy would.
    edit_journal(&journals[0], |header, mut cells| {
        assert!(cells.pop().is_some(), "journal had no cells to drop");
        std::iter::once(header).chain(cells).collect()
    });
    let err = shard::merge(&journals, &root).unwrap_err();
    assert!(
        err.contains("missing") && err.contains("shard 0"),
        "a dropped cell must fail the merge, naming its shard: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn tampered_seed_is_rejected_before_running() {
    freeze();
    let root = scratch("tamper");
    let source = ShardSource::from_name("fig12").unwrap();
    let plans = shard::plan(&source, Scale::Smoke, 2, &root).unwrap();
    let doc = Json::parse(&std::fs::read_to_string(&plans[0]).unwrap()).unwrap();
    let Json::Obj(mut fields) = doc else { panic!() };
    for (k, v) in &mut fields {
        if k == "cells" {
            let Json::Arr(items) = v else { panic!() };
            let Json::Obj(cell) = &mut items[0] else {
                panic!()
            };
            for (ck, cv) in cell {
                if ck == "seed" {
                    *cv = Json::from(12345u64);
                }
            }
        }
    }
    std::fs::write(&plans[0], format!("{}\n", Json::Obj(fields))).unwrap();
    let err = shard::run_shard(&plans[0], false, false).unwrap_err();
    assert!(
        err.contains("disagrees with this binary's grid"),
        "a tampered seed must not execute: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn consistently_shrunken_journals_do_not_silently_drop_cells() {
    // Both journals rewritten to claim a 2-cell grid, with the cells
    // beyond it removed — internally consistent, but not the grid this
    // binary derives for fig12. The merge must refuse, not emit a
    // "complete" half-report.
    let (root, journals) = fig12_journals();
    for p in &journals {
        edit_journal(p, |header, cells| {
            let header = header.replace("\"total_cells\":4", "\"total_cells\":2");
            let kept = cells.into_iter().filter(|line| {
                let o = Json::parse(line).unwrap();
                o.get("index").and_then(Json::as_u64).unwrap() < 2
            });
            std::iter::once(header).chain(kept).collect()
        });
    }
    let err = shard::merge(&journals, &root).unwrap_err();
    assert!(
        err.contains("this binary generates 4"),
        "a shrunken grid must fail the merge: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn absurd_wall_ms_errors_instead_of_panicking() {
    let (root, journals) = fig12_journals();
    let text = std::fs::read_to_string(&journals[0]).unwrap();
    assert!(text.contains("\"wall_ms\":0"), "freeze-perf zeroes walls");
    std::fs::write(
        &journals[0],
        text.replacen("\"wall_ms\":0", "\"wall_ms\":1e300", 1),
    )
    .unwrap();
    let err = shard::merge(&journals, &root).unwrap_err();
    assert!(
        err.contains("'wall_ms'") && err.contains("out of range"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn implausible_header_counts_error_instead_of_aborting() {
    let (root, journals) = fig12_journals();
    let text = std::fs::read_to_string(&journals[0]).unwrap();
    std::fs::write(
        &journals[0],
        text.replace("\"total_cells\":4", "\"total_cells\":4000000000000000000"),
    )
    .unwrap();
    let err = shard::merge(&journals, &root).unwrap_err();
    assert!(err.contains("implausible total_cells"), "{err}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn journals_from_different_plans_do_not_merge() {
    let (root, journals) = fig12_journals();
    // A 3-shard replan of the same scenario: shard counts disagree.
    let source = ShardSource::from_name("fig12").unwrap();
    let other_plans = shard::plan(&source, Scale::Smoke, 3, &root.join("shards3")).unwrap();
    let other = shard::run_shard(&other_plans[1], false, false).unwrap();
    let err = shard::merge(&[journals[0].clone(), other], &root).unwrap_err();
    assert!(
        err.contains("journals of different plans"),
        "mixed plans must be rejected: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}
