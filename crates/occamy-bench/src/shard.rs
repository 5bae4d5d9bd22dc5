//! Sharded grid execution: **plan → run → merge** with byte-identical
//! results.
//!
//! The paper-faithful 128-host × 100 G sweeps
//! (`specs/paper_fabric_128h.toml`) are far too slow for one machine,
//! but grid cells are independent, `Send`-safe and seed-deterministic —
//! so a grid can be split into shards, each shard executed anywhere,
//! and the shards' results reassembled into the **exact** report a
//! single-machine run would have produced:
//!
//! 1. [`plan`] splits a scenario's grid into `N` shard files
//!    (`shards/<name>.shard-<i>.json`). Each file is versioned and
//!    self-contained: it carries every [`CellSpec`] of the shard — grid
//!    coordinates (`index`), derived seed and typed scheme/knob
//!    bindings — plus, for `--spec` scenarios, the canonical TOML of
//!    the spec document itself, so the executing machine needs nothing
//!    but the plan file and the binary.
//! 2. [`run_shard`] executes one plan file with the same parallel
//!    runner a direct `run` uses ([`crate::runner::run_cells_with`]) and
//!    appends every finished cell to the shard's journal
//!    (`<plan>.cells.jsonl`), its only output. Each append is one
//!    `write_all` of a whole line on an append-mode file; a final line
//!    without its `\n` (the writer died mid-append) counts as not yet
//!    journaled. With `--resume` a restarted run validates the journal,
//!    cuts off any such torn tail and recomputes only the cells it
//!    lacks.
//! 3. [`merge`] validates and reunites the journals — every shard
//!    present exactly once, every grid cell covered exactly once, no
//!    version or header drift — and feeds them through the same
//!    assembly path as a direct run ([`crate::runner::assemble`] +
//!    [`render_into`]), emitting the byte-identical `BENCH_<name>.json`
//!    and `results/*.csv`.
//!
//! Byte-identity is enforced by `tests/shard_equivalence.rs` and the CI
//! `shard-equivalence` job, which `cmp` a merged 3-shard fig12 run
//! against a direct run. Wall-clock perf fields are the one
//! platform-dependent output; both sides run under
//! [`crate::freeze_perf`] (`--freeze-perf`), which zeroes them.
//!
//! Every failure mode names the offending shard file: unparseable or
//! tampered lines, format-version mismatches, header drift between
//! journals, missing or duplicated shards, and missing or duplicated
//! grid cells all produce errors, never panics or silently dropped
//! cells.

use crate::registry::{find_scenario, registry};
use crate::runner;
use crate::scenario::{CellOutcome, CellResult, CellSpec, Scale, Scenario, Series, Value};
use crate::spec_scenario::SpecScenario;
use occamy_stats::Json;
use std::collections::HashSet;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

/// Format version stamped into every shard file. Bump it when the file
/// layout changes; [`run_shard`] and [`merge`] refuse files from other
/// versions with an error that names the file and both versions.
pub const SHARD_FORMAT: u64 = 1;

// -------------------------------------------------------------------
// Sources
// -------------------------------------------------------------------

/// What a shard plan executes: a registry scenario (identified by name)
/// or a spec-compiled scenario (embedded as canonical TOML).
#[derive(Clone, Copy)]
pub enum ShardSource {
    /// A scenario from the static registry (`fig12`, `table01`, …).
    Registry(&'static dyn Scenario),
    /// A `--spec` scenario; the plan embeds its canonical TOML.
    Spec(&'static SpecScenario),
}

impl ShardSource {
    /// Resolves a registry scenario by name, with the known-name list in
    /// the error.
    pub fn from_name(name: &str) -> Result<ShardSource, String> {
        find_scenario(name)
            .map(ShardSource::Registry)
            .ok_or_else(|| {
                format!(
                    "unknown scenario '{name}'; known: {}",
                    registry()
                        .iter()
                        .map(|s| s.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })
    }

    /// The scenario to plan.
    pub fn scenario(&self) -> &'static dyn Scenario {
        match self {
            ShardSource::Registry(s) => *s,
            ShardSource::Spec(s) => *s,
        }
    }

    fn source_tag(&self) -> &'static str {
        match self {
            ShardSource::Registry(_) => "registry",
            ShardSource::Spec(_) => "spec",
        }
    }

    fn spec_toml(&self) -> Option<String> {
        match self {
            ShardSource::Registry(_) => None,
            ShardSource::Spec(s) => Some(s.canonical_toml()),
        }
    }
}

// -------------------------------------------------------------------
// Value / cell encoding
// -------------------------------------------------------------------

/// Typed parameter encoding: `{key, kind, value}` rather than a bare
/// JSON value, so `2.0f64` survives the trip as an `f64` (a bare `2`
/// would decode as `u64` and change the cell's type contract).
fn encode_param(key: &str, v: &Value) -> Json {
    let (kind, value) = match v {
        Value::U64(x) => ("u64", Json::from(*x)),
        Value::F64(x) => ("f64", Json::from(*x)),
        Value::Str(s) => ("str", Json::from(s.as_str())),
    };
    Json::obj([
        ("key", Json::from(key)),
        ("kind", Json::from(kind)),
        ("value", value),
    ])
}

fn decode_param(ctx: &str, j: &Json) -> Result<(String, Value), String> {
    let key = j
        .get("key")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{ctx}: param lacks a string 'key'"))?;
    let kind = j
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{ctx}: param '{key}' lacks a 'kind'"))?;
    let raw = j
        .get("value")
        .ok_or_else(|| format!("{ctx}: param '{key}' lacks a 'value'"))?;
    let value = match kind {
        "u64" => Value::U64(
            raw.as_u64()
                .ok_or_else(|| format!("{ctx}: param '{key}' is not a u64"))?,
        ),
        "f64" => Value::F64(
            raw.as_f64()
                .ok_or_else(|| format!("{ctx}: param '{key}' is not numeric"))?,
        ),
        "str" => Value::Str(
            raw.as_str()
                .ok_or_else(|| format!("{ctx}: param '{key}' is not a string"))?
                .to_string(),
        ),
        other => return Err(format!("{ctx}: param '{key}' has unknown kind '{other}'")),
    };
    Ok((key.to_string(), value))
}

fn encode_cell(spec: &CellSpec) -> Json {
    Json::obj([
        ("index", Json::from(spec.index)),
        ("seed", Json::from(spec.seed)),
        (
            "params",
            Json::arr(spec.params().iter().map(|(k, v)| encode_param(k, v))),
        ),
    ])
}

fn decode_cell(ctx: &str, j: &Json, scale: Scale) -> Result<CellSpec, String> {
    let index = j
        .get("index")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{ctx}: cell lacks an 'index'"))? as usize;
    let ctx = format!("{ctx}: cell {index}");
    let seed = j
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{ctx}: no 'seed'"))?;
    let params = j
        .get("params")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ctx}: no 'params' array"))?
        .iter()
        .map(|p| decode_param(&ctx, p))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CellSpec::from_parts(index, seed, scale, params))
}

// -------------------------------------------------------------------
// Result encoding
// -------------------------------------------------------------------

fn encode_outcome(o: &CellOutcome) -> Json {
    let Json::Obj(mut fields) = encode_cell(&o.spec) else {
        unreachable!("encode_cell returns an object");
    };
    fields.push((
        "wall_ms".to_string(),
        Json::from(o.wall.as_secs_f64() * 1e3),
    ));
    fields.push(("peak_rss_bytes".to_string(), Json::from(o.rss)));
    fields.push((
        "metrics".to_string(),
        Json::obj(
            o.result
                .metrics()
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(*v))),
        ),
    ));
    if !o.result.series().is_empty() {
        fields.push((
            "series".to_string(),
            Json::arr(o.result.series().iter().map(Series::to_json)),
        ));
    }
    Json::Obj(fields)
}

fn decode_outcome(ctx: &str, j: &Json, scale: Scale) -> Result<CellOutcome, String> {
    let spec = decode_cell(ctx, j, scale)?;
    let ctx = format!("{ctx}: cell {}", spec.index);
    let wall_ms = j
        .get("wall_ms")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{ctx}: no 'wall_ms'"))?;
    // Bounded: Duration::from_secs_f64 panics on huge or NaN input, and
    // a year-long cell wall clock is corruption, not measurement.
    if !(0.0..=86_400_000.0 * 365.0).contains(&wall_ms) {
        return Err(format!("{ctx}: 'wall_ms' {wall_ms} is out of range"));
    }
    let mut result = CellResult::new();
    for (k, v) in j
        .get("metrics")
        .and_then(Json::entries)
        .ok_or_else(|| format!("{ctx}: no 'metrics' object"))?
    {
        // `null` is how the emitter spells a non-finite f64.
        let v = match v {
            Json::Null => f64::NAN,
            other => other
                .as_f64()
                .ok_or_else(|| format!("{ctx}: metric '{k}' is not numeric"))?,
        };
        result = result.metric(k, v);
    }
    for s in j.get("series").and_then(Json::as_arr).unwrap_or(&[]) {
        result = result.with_series(decode_series(&ctx, s)?);
    }
    // Tolerant: lines written before the field existed decode as 0.
    let rss = j.get("peak_rss_bytes").and_then(Json::as_u64).unwrap_or(0);
    Ok(CellOutcome {
        spec,
        result,
        wall: Duration::from_secs_f64(wall_ms / 1e3),
        rss,
    })
}

fn decode_series(ctx: &str, j: &Json) -> Result<Series, String> {
    let name = j
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{ctx}: series lacks a 'name'"))?;
    let columns: Vec<&str> = j
        .get("columns")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ctx}: series '{name}' lacks 'columns'"))?
        .iter()
        .map(|c| {
            c.as_str()
                .ok_or_else(|| format!("{ctx}: series '{name}' has a non-string column"))
        })
        .collect::<Result<_, _>>()?;
    let mut series = Series::new(name, &columns);
    for row in j
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ctx}: series '{name}' lacks 'rows'"))?
    {
        let row: Vec<f64> = row
            .as_arr()
            .ok_or_else(|| format!("{ctx}: series '{name}' has a non-array row"))?
            .iter()
            .map(|v| match v {
                Json::Null => Ok(f64::NAN),
                other => other
                    .as_f64()
                    .ok_or_else(|| format!("{ctx}: series '{name}' has a non-numeric entry")),
            })
            .collect::<Result<_, _>>()?;
        if row.len() != series.columns.len() {
            return Err(format!(
                "{ctx}: series '{name}' row width {} != {} columns",
                row.len(),
                series.columns.len()
            ));
        }
        series.row(row);
    }
    Ok(series)
}

// -------------------------------------------------------------------
// File headers
// -------------------------------------------------------------------

/// The parsed, version-checked header shared by plan and journal files.
pub(crate) struct ShardFile {
    pub(crate) path: PathBuf,
    pub(crate) scenario: String,
    source: String,
    spec_toml: Option<String>,
    pub(crate) scale: Scale,
    pub(crate) shard: usize,
    pub(crate) shards: usize,
    pub(crate) total_cells: usize,
    doc: Json,
}

impl ShardFile {
    fn ctx(&self) -> String {
        format!("shard file {}", self.path.display())
    }
}

fn header_json(
    kind: &str,
    name: &str,
    source: &ShardSource,
    scale: Scale,
    shard: usize,
    shards: usize,
    total_cells: usize,
) -> Vec<(String, Json)> {
    let mut fields = vec![
        ("format".to_string(), Json::from(SHARD_FORMAT)),
        ("kind".to_string(), Json::from(kind)),
        ("scenario".to_string(), Json::from(name)),
        ("source".to_string(), Json::from(source.source_tag())),
    ];
    if let Some(toml) = source.spec_toml() {
        fields.push(("spec_toml".to_string(), Json::from(toml)));
    }
    fields.extend([
        ("scale".to_string(), Json::from(scale.to_string())),
        ("shard".to_string(), Json::from(shard)),
        ("shards".to_string(), Json::from(shards)),
        ("total_cells".to_string(), Json::from(total_cells)),
    ]);
    fields
}

/// Reads and validates a shard file's envelope: parseable JSON (a
/// truncated upload fails here, naming the file), the supported format
/// version, the expected kind and a complete, well-typed header.
pub(crate) fn read_shard_file(path: &Path, expect_kind: &str) -> Result<ShardFile, String> {
    let ctx = format!("shard file {}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| format!("{ctx}: {e}"))?;
    let doc = Json::parse(&text)
        .map_err(|e| format!("{ctx}: not valid JSON ({e}) — truncated or corrupted?"))?;
    validate_shard_doc(path, doc, expect_kind)
}

/// The header-validation half of [`read_shard_file`], shared with the
/// journal reader (whose header is the first line of a JSONL stream,
/// not a whole file).
fn validate_shard_doc(path: &Path, doc: Json, expect_kind: &str) -> Result<ShardFile, String> {
    let ctx = format!("shard file {}", path.display());
    let format = doc
        .get("format")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{ctx}: no 'format' version field"))?;
    if format != SHARD_FORMAT {
        return Err(format!(
            "{ctx}: format version {format}, but this binary reads version {SHARD_FORMAT} — \
             regenerate the plan with this binary"
        ));
    }
    let kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{ctx}: no 'kind' field"))?;
    if kind != expect_kind {
        return Err(format!(
            "{ctx}: is a '{kind}' file, expected a '{expect_kind}' file"
        ));
    }
    let str_field = |key: &str| -> Result<String, String> {
        doc.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{ctx}: no '{key}' field"))
    };
    let usize_field = |key: &str| -> Result<usize, String> {
        doc.get(key)
            .and_then(Json::as_u64)
            .map(|v| v as usize)
            .ok_or_else(|| format!("{ctx}: no '{key}' field"))
    };
    let scale_str = str_field("scale")?;
    let scale =
        Scale::parse(&scale_str).ok_or_else(|| format!("{ctx}: unknown scale '{scale_str}'"))?;
    let source = str_field("source")?;
    let spec_toml = match source.as_str() {
        "registry" => None,
        "spec" => Some(str_field("spec_toml")?),
        other => return Err(format!("{ctx}: unknown source '{other}'")),
    };
    let file = ShardFile {
        path: path.to_path_buf(),
        scenario: str_field("scenario")?,
        source,
        spec_toml,
        scale,
        shard: usize_field("shard")?,
        shards: usize_field("shards")?,
        total_cells: usize_field("total_cells")?,
        doc,
    };
    if file.shards == 0 || file.shard >= file.shards {
        return Err(format!(
            "{}: shard id {} out of range for {} shards",
            file.ctx(),
            file.shard,
            file.shards
        ));
    }
    // These counts size allocations downstream; a corrupted header must
    // fail here, not abort with a capacity overflow. No real grid is
    // near this bound (the biggest shipped one is 60 cells), and merge
    // additionally cross-checks against the grid the binary derives.
    const MAX_GRID_CELLS: usize = 1_000_000;
    if file.total_cells == 0 || file.total_cells > MAX_GRID_CELLS {
        return Err(format!(
            "{}: implausible total_cells {} (limit {MAX_GRID_CELLS})",
            file.ctx(),
            file.total_cells
        ));
    }
    if file.shards > file.total_cells {
        return Err(format!(
            "{}: {} shards for {} cells — a plan never has more shards than cells",
            file.ctx(),
            file.shards,
            file.total_cells
        ));
    }
    Ok(file)
}

/// Re-resolves the scenario a shard file describes: a registry lookup,
/// or re-compiling the embedded spec TOML.
fn resolve_scenario(file: &ShardFile) -> Result<&'static dyn Scenario, String> {
    match file.source.as_str() {
        "registry" => find_scenario(&file.scenario).ok_or_else(|| {
            format!(
                "{}: scenario '{}' is not in this binary's registry",
                file.ctx(),
                file.scenario
            )
        }),
        "spec" => {
            let toml = file.spec_toml.as_deref().expect("checked at read");
            let doc = occamy_spec::spec_from_toml(toml)
                .map_err(|e| format!("{}: embedded spec invalid: {e}", file.ctx()))?;
            if doc.name != file.scenario {
                return Err(format!(
                    "{}: embedded spec is named '{}', header says '{}'",
                    file.ctx(),
                    doc.name,
                    file.scenario
                ));
            }
            Ok(SpecScenario::new(doc))
        }
        other => unreachable!("source '{other}' rejected at read"),
    }
}

// -------------------------------------------------------------------
// plan
// -------------------------------------------------------------------

/// Splits `source`'s grid at `scale` into `shards` plan files under
/// `out_dir`, one per shard, named `<scenario>.shard-<i>.json`. Cells
/// are dealt round-robin (`index % shards`) so a sweep whose cost grows
/// along an axis still load-balances. Returns the written paths in
/// shard order.
pub fn plan(
    source: &ShardSource,
    scale: Scale,
    shards: usize,
    out_dir: &Path,
) -> Result<Vec<PathBuf>, String> {
    let scenario = source.scenario();
    let cells = scenario.grid(scale);
    if shards == 0 {
        return Err("--shards must be ≥ 1".to_string());
    }
    if shards > cells.len() {
        return Err(format!(
            "cannot split {} cells of '{}' ({scale} scale) into {shards} shards — \
             use --shards ≤ {}",
            cells.len(),
            scenario.name(),
            cells.len()
        ));
    }
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let mut paths = Vec::with_capacity(shards);
    for shard in 0..shards {
        let mine: Vec<&CellSpec> = cells.iter().filter(|c| c.index % shards == shard).collect();
        let mut fields = header_json(
            "plan",
            scenario.name(),
            source,
            scale,
            shard,
            shards,
            cells.len(),
        );
        fields.push((
            "cells".to_string(),
            Json::arr(mine.iter().map(|c| encode_cell(c))),
        ));
        let path = out_dir.join(format!("{}.shard-{shard}.json", scenario.name()));
        Json::Obj(fields)
            .write_to(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        paths.push(path);
    }
    Ok(paths)
}

// -------------------------------------------------------------------
// The journal
// -------------------------------------------------------------------

/// The per-shard journal for a plan file: `<plan stem>.cells.jsonl`
/// next to it, and the only file `shard run` writes. Line 1 is the
/// shard header (kind `journal`); every further line is one finished
/// cell's encoded outcome. `shard run` appends as cells complete;
/// `shard run --resume` replays the journal and recomputes only the
/// cells it lacks; `shard merge` reunites the journals of all shards.
pub fn journal_path(plan_path: &Path) -> PathBuf {
    let s = plan_path.to_string_lossy();
    match s.strip_suffix(".json") {
        Some(stem) => PathBuf::from(format!("{stem}.cells.jsonl")),
        None => PathBuf::from(format!("{s}.cells.jsonl")),
    }
}

fn is_journal_path(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.ends_with(".cells.jsonl"))
}

/// The journal a non-journal merge input most likely stands for: the
/// same `<scenario>.shard-<i>` stem with the journal suffix.
fn expected_journal(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let stem = match name.find(".shard-") {
        Some(at) => {
            let id = at + ".shard-".len();
            let digits = name[id..].bytes().take_while(u8::is_ascii_digit).count();
            &name[..id + digits]
        }
        None => name.split('.').next().unwrap_or_default(),
    };
    path.with_file_name(format!("{stem}.cells.jsonl"))
}

/// Cells a shard has journaled so far: the complete lines of its
/// journal minus the header, 0 while there is no journal. The fleet's
/// progress count and liveness signal.
pub fn journaled_cells(plan_path: &Path) -> usize {
    std::fs::read(journal_path(plan_path))
        .map(|bytes| {
            bytes
                .iter()
                .filter(|&&b| b == b'\n')
                .count()
                .saturating_sub(1)
        })
        .unwrap_or(0)
}

/// Append-only journal writer. Each line goes to an append-mode file in
/// one `write_all` that includes its `\n`, so a SIGKILL at any instant
/// leaves every earlier line complete and at most a torn final line,
/// which [`read_journal`] ignores. Nothing calls `fsync`: the journal
/// survives a killed process, not power loss.
struct JournalWriter {
    path: PathBuf,
    file: File,
    /// The first failed append. A failed write can leave a torn line,
    /// and appending after it would glue the next line onto it, so once
    /// set every later append is refused with this error.
    failed: Option<String>,
}

impl JournalWriter {
    /// Opens `path` for appending after cutting it to its first `keep`
    /// bytes: 0 for a fresh run, the complete lines of a resumed one.
    fn open(path: PathBuf, keep: u64) -> Result<JournalWriter, String> {
        let ctx = |e: std::io::Error| format!("journal {}: {e}", path.display());
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(ctx)?;
        file.set_len(keep).map_err(ctx)?;
        Ok(JournalWriter {
            path,
            file,
            failed: None,
        })
    }

    /// Appends `line` plus its `\n`; `what` names the line in the error.
    fn append_line(&mut self, mut line: String, what: &str) -> Result<(), String> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        line.push('\n');
        self.file.write_all(line.as_bytes()).map_err(|e| {
            let e = format!("journal {}: {what} not journaled: {e}", self.path.display());
            self.failed = Some(e.clone());
            e
        })
    }
}

/// A journal as read back: its header, the outcomes of its complete
/// lines and the byte length of those lines.
struct Journal {
    header: ShardFile,
    outcomes: Vec<CellOutcome>,
    complete_len: u64,
}

/// Reads and validates a journal: a version-checked `journal` header
/// line, then one well-formed outcome per line, each cell belonging to
/// the journal's shard and appearing at most once. A final line without
/// its `\n` is a cell whose append was cut short; it counts as not yet
/// journaled and is ignored. Returns `None` when not even the header
/// line is complete. Every corruption of a complete line fails naming
/// the journal and its shard: an unparseable line, a duplicated cell, a
/// foreign shard's cell.
fn read_journal(path: &Path) -> Result<Option<Journal>, String> {
    let ctx = format!("journal {}", path.display());
    let bytes = std::fs::read(path).map_err(|e| format!("{ctx}: {e}"))?;
    let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let text = std::str::from_utf8(&bytes[..complete])
        .map_err(|e| format!("{ctx}: not valid UTF-8 ({e}) — corrupted journal"))?;
    let mut lines = text.lines();
    let Some(header_line) = lines.next() else {
        return Ok(None);
    };
    let header_doc = Json::parse(header_line)
        .map_err(|e| format!("{ctx}: header line is not valid JSON ({e})"))?;
    let header = validate_shard_doc(path, header_doc, "journal")?;
    let shard = header.shard;
    let mut outcomes: Vec<CellOutcome> = Vec::new();
    let mut seen: HashSet<usize> = HashSet::new();
    for (n, line) in lines.enumerate() {
        let lctx = format!("{ctx}: line {} (shard {shard})", n + 2);
        let j = Json::parse(line)
            .map_err(|e| format!("{lctx}: not valid JSON ({e}) — corrupted journal"))?;
        let o = decode_outcome(&lctx, &j, header.scale)?;
        if o.spec.index % header.shards != shard {
            return Err(format!(
                "{lctx}: cell {} belongs to shard {}, not shard {shard} — \
                 journals were mixed up",
                o.spec.index,
                o.spec.index % header.shards
            ));
        }
        if !seen.insert(o.spec.index) {
            return Err(format!(
                "{lctx}: cell {} already journaled earlier in shard {shard}'s journal — \
                 duplicated line; delete the journal and re-run the shard",
                o.spec.index
            ));
        }
        outcomes.push(o);
    }
    Ok(Some(Journal {
        header,
        outcomes,
        complete_len: complete as u64,
    }))
}

/// Checks that two shard headers describe the same shard of the same
/// plan; `what` and `against` name the files in the error.
fn check_same_shard(a: &ShardFile, b: &ShardFile) -> Result<(), String> {
    for (what, x, y) in [
        ("scenario", a.scenario.as_str(), b.scenario.as_str()),
        ("source", a.source.as_str(), b.source.as_str()),
    ] {
        if x != y {
            return Err(format!(
                "{}: {what} '{x}' does not match '{y}' from {}",
                a.ctx(),
                b.path.display()
            ));
        }
    }
    if a.scale != b.scale
        || a.shard != b.shard
        || a.shards != b.shards
        || a.total_cells != b.total_cells
    {
        return Err(format!(
            "{}: header (scale {}, shard {} of {}, {} cells) does not match {} \
             (scale {}, shard {} of {}, {} cells)",
            a.ctx(),
            a.scale,
            a.shard,
            a.shards,
            a.total_cells,
            b.path.display(),
            b.scale,
            b.shard,
            b.shards,
            b.total_cells
        ));
    }
    if a.spec_toml != b.spec_toml {
        return Err(format!(
            "{}: embedded spec differs from {}",
            a.ctx(),
            b.path.display()
        ));
    }
    Ok(())
}

/// Checks one cell's identity (seed + grid label) against this binary's
/// reference grid — the guard that keeps a drifted or tampered file
/// from poisoning a merged report.
fn check_cell_matches(ctx: &str, cell: &CellSpec, reference: &[CellSpec]) -> Result<(), String> {
    let Some(expect) = reference.get(cell.index) else {
        return Err(format!(
            "{ctx}: cell index {} outside the {}-cell grid",
            cell.index,
            reference.len()
        ));
    };
    if expect.seed != cell.seed || expect.label() != cell.label() {
        return Err(format!(
            "{ctx}: cell {} disagrees with this binary's grid \
             (file: seed {} [{}], binary: seed {} [{}]) — regenerate the plan",
            cell.index,
            cell.seed,
            cell.label(),
            expect.seed,
            expect.label()
        ));
    }
    Ok(())
}

/// Deterministic crash hook for the fleet-resilience tests:
/// `OCCAMY_SHARD_KILL_AFTER="<shard>:<k>"` makes a `shard run` of shard
/// `<shard>` SIGKILL itself after journaling `<k>` cells — but only
/// when it started with an empty journal, so the fleet's retried,
/// resumed attempt runs to completion. Returns the `k` applying to
/// this run, if any.
fn kill_after(shard: usize, journaled_at_start: usize) -> Option<usize> {
    let spec = std::env::var("OCCAMY_SHARD_KILL_AFTER").ok()?;
    if journaled_at_start > 0 {
        return None;
    }
    let (s, k) = spec.split_once(':')?;
    let (s, k) = (
        s.trim().parse::<usize>().ok()?,
        k.trim().parse::<usize>().ok()?,
    );
    (s == shard && k > 0).then_some(k)
}

/// Dies the way a crashed worker dies: SIGKILL (no destructors, no
/// partial write, journal left as-is). Falls back to an abrupt exit
/// with SIGKILL's conventional status where no `kill` binary exists.
fn kill_self_for_test() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill")
        .args(["-9", &pid])
        .status();
    std::process::exit(137);
}

/// Executes one shard plan file with the shared parallel runner,
/// appending every finished cell to [`journal_path`] as it completes.
/// Returns the journal's path.
///
/// With `resume`, an existing journal is validated (against the plan
/// header *and* this binary's reference grid), cut back to its last
/// complete line and its cells skipped — a shard killed mid-run
/// finishes the rest of its work on restart, and its journal then
/// merges byte-identically to one from an uninterrupted run. Without
/// `resume`, a stale journal is truncated and every cell runs.
///
/// Before running, every cell is cross-checked against the grid this
/// binary generates for the same scenario and scale: a seed or
/// parameter mismatch means the plan came from a different code version
/// (or was tampered with), and silently running it would poison the
/// merged report.
///
/// A failed append fails the run, naming the cell, once every cell has
/// finished; `--resume` then recomputes what the journal lacks.
pub fn run_shard(plan_path: &Path, parallel: bool, resume: bool) -> Result<PathBuf, String> {
    let file = read_shard_file(plan_path, "plan")?;
    let scenario = resolve_scenario(&file)?;
    let ctx = file.ctx();
    let cells: Vec<CellSpec> = file
        .doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ctx}: no 'cells' array"))?
        .iter()
        .map(|c| decode_cell(&ctx, c, file.scale))
        .collect::<Result<_, _>>()?;
    // Verify the plan against this binary's own grid derivation.
    let reference = scenario.grid(file.scale);
    if reference.len() != file.total_cells {
        return Err(format!(
            "{ctx}: plan says the grid has {} cells, this binary generates {} — \
             scenario definition drifted; regenerate the plan",
            file.total_cells,
            reference.len()
        ));
    }
    for cell in &cells {
        check_cell_matches(&ctx, cell, &reference)?;
    }

    // Resume: replay a validated journal and run only the cells it
    // lacks. The journal's header must match the plan and every
    // journaled cell must match the reference grid — anything else is
    // a stale or foreign journal and fails loudly rather than welding
    // wrong results into the merge.
    let jpath = journal_path(plan_path);
    let prior = if resume && jpath.exists() {
        read_journal(&jpath)?
    } else {
        None
    };
    let (journal, journaled) = match prior {
        Some(j) => {
            check_same_shard(&j.header, &file).map_err(|e| {
                format!("{e} — the journal belongs to a different plan; delete it and re-run")
            })?;
            let planned_idx: HashSet<usize> = cells.iter().map(|c| c.index).collect();
            for o in &j.outcomes {
                check_cell_matches(&j.header.ctx(), &o.spec, &reference)?;
                if !planned_idx.contains(&o.spec.index) {
                    return Err(format!(
                        "{}: cell {} is not assigned to shard {} by the plan — \
                         stale journal; delete it and re-run",
                        j.header.ctx(),
                        o.spec.index,
                        file.shard
                    ));
                }
            }
            println!(
                "resuming shard {} of '{}': {} of {} cells journaled, {} to run",
                file.shard,
                file.scenario,
                j.outcomes.len(),
                cells.len(),
                cells.len() - j.outcomes.len()
            );
            let done: HashSet<usize> = j.outcomes.iter().map(|o| o.spec.index).collect();
            (JournalWriter::open(jpath, j.complete_len)?, done)
        }
        None => {
            // No journal, or one killed before its header line was
            // complete: start afresh. The journal header is the plan's
            // header verbatim (minus the cell list), kind flipped, so
            // merge validates it the same way.
            let Json::Obj(plan_fields) = &file.doc else {
                unreachable!("parsed shard file is an object");
            };
            let header: Vec<(String, Json)> = plan_fields
                .iter()
                .filter(|(k, _)| k != "cells")
                .map(|(k, v)| match k.as_str() {
                    "kind" => ("kind".to_string(), Json::from("journal")),
                    _ => (k.clone(), v.clone()),
                })
                .collect();
            let mut w = JournalWriter::open(jpath, 0)?;
            w.append_line(Json::Obj(header).render(), "header")?;
            (w, HashSet::new())
        }
    };

    let remaining: Vec<CellSpec> = cells
        .iter()
        .filter(|c| !journaled.contains(&c.index))
        .cloned()
        .collect();

    // Cells complete on rayon workers, so appends share a mutex. A
    // failed append stays in the writer and is returned below.
    let kill = kill_after(file.shard, journaled.len());
    let state = Mutex::new((0usize, journal));
    runner::run_cells_with(scenario, &remaining, parallel, &|o| {
        let mut guard = state.lock().expect("no cell panics while journaling");
        let (appended, journal) = &mut *guard;
        let line = encode_outcome(o).render();
        if journal
            .append_line(line, &format!("cell {}", o.spec.index))
            .is_ok()
        {
            *appended += 1;
            if kill == Some(*appended) {
                kill_self_for_test();
            }
        }
    });
    let (_, journal) = state.into_inner().expect("no cell panics while journaling");
    match journal.failed {
        Some(e) => Err(format!(
            "shard {} of '{}': {e} — finish it with `shard run --resume`",
            file.shard, file.scenario
        )),
        None => Ok(journal.path),
    }
}

// -------------------------------------------------------------------
// merge
// -------------------------------------------------------------------

/// Validates and merges the shards' journals (`<plan>.cells.jsonl`)
/// into the final report, writing `BENCH_<name>.json` and
/// `results/*.csv` under `out_root` — byte-identical to what a direct
/// run of the whole grid writes (under [`crate::freeze_perf`];
/// wall-clock fields otherwise differ by nature). Returns the
/// `BENCH_<name>.json` path.
pub fn merge(journals: &[PathBuf], out_root: &Path) -> Result<PathBuf, String> {
    if journals.is_empty() {
        return Err("shard merge needs at least one journal (<plan>.cells.jsonl)".to_string());
    }
    let mut files: Vec<Journal> = Vec::with_capacity(journals.len());
    for p in journals {
        if !is_journal_path(p) {
            return Err(format!(
                "{}: not a shard journal — `shard merge` takes the <plan>.cells.jsonl \
                 files `shard run` writes; did you mean {}?",
                p.display(),
                expected_journal(p).display()
            ));
        }
        files.push(read_journal(p)?.ok_or_else(|| {
            format!(
                "journal {}: no complete header line — the shard never started; \
                 run it with `shard run`",
                p.display()
            )
        })?);
    }

    // Header consistency across inputs.
    let first = &files[0].header;
    for f in &files[1..] {
        let f = &f.header;
        for (what, a, b) in [
            ("scenario", first.scenario.as_str(), f.scenario.as_str()),
            ("source", first.source.as_str(), f.source.as_str()),
        ] {
            if a != b {
                return Err(format!(
                    "{}: {what} '{b}' does not match '{a}' from {} — journals of different runs",
                    f.ctx(),
                    first.path.display()
                ));
            }
        }
        if f.scale != first.scale || f.shards != first.shards || f.total_cells != first.total_cells
        {
            return Err(format!(
                "{}: header (scale {}, {} shards, {} cells) does not match {} \
                 (scale {}, {} shards, {} cells) — journals of different plans",
                f.ctx(),
                f.scale,
                f.shards,
                f.total_cells,
                first.path.display(),
                first.scale,
                first.shards,
                first.total_cells
            ));
        }
        if f.spec_toml != first.spec_toml {
            return Err(format!(
                "{}: embedded spec differs from {} — journals of different specs",
                f.ctx(),
                first.path.display()
            ));
        }
    }

    // Every shard present exactly once — two journals for one shard are
    // two claims on the same cells, so a double claim refuses to merge
    // rather than picking a winner.
    let mut seen: Vec<Option<&ShardFile>> = vec![None; first.shards];
    for f in &files {
        let h = &f.header;
        if let Some(prev) = seen[h.shard] {
            return Err(format!(
                "{}: shard {} already provided by {}",
                h.ctx(),
                h.shard,
                prev.path.display()
            ));
        }
        seen[h.shard] = Some(h);
    }
    let missing: Vec<String> = seen
        .iter()
        .enumerate()
        .filter(|(_, f)| f.is_none())
        .map(|(i, _)| i.to_string())
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "missing journal(s) for shard(s) {} of {} — '{}' planned {} shards",
            missing.join(", "),
            first.shards,
            first.scenario,
            first.shards
        ));
    }

    // The file-declared grid size is untrusted; this binary's own grid
    // derivation is the truth. A header claiming fewer cells than the
    // scenario really has (a drifted or tampered planner) would
    // otherwise merge "completely" while silently dropping cells.
    let scenario = resolve_scenario(first)?;
    let reference = scenario.grid(first.scale);
    if reference.len() != first.total_cells {
        return Err(format!(
            "{}: header says the grid has {} cells, this binary generates {} for '{}' at {} \
             scale — scenario definition drifted; regenerate the plan",
            first.ctx(),
            first.total_cells,
            reference.len(),
            first.scenario,
            first.scale
        ));
    }

    // Every grid cell covered exactly once, each cell's identity
    // (seed + parameters) matching this binary's grid.
    let mut owner: Vec<Option<&ShardFile>> = vec![None; reference.len()];
    for f in &files {
        let ctx = f.header.ctx();
        for o in &f.outcomes {
            let Some(slot) = owner.get_mut(o.spec.index) else {
                return Err(format!(
                    "{ctx}: cell index {} outside the {}-cell grid",
                    o.spec.index,
                    reference.len()
                ));
            };
            if let Some(prev) = slot {
                return Err(format!(
                    "{ctx}: cell {} already provided by {}",
                    o.spec.index,
                    prev.path.display()
                ));
            }
            check_cell_matches(&ctx, &o.spec, &reference)?;
            *slot = Some(&f.header);
        }
    }
    let missing: Vec<usize> = (0..reference.len())
        .filter(|&i| owner[i].is_none())
        .collect();
    if !missing.is_empty() {
        let owing: Vec<String> = seen
            .iter()
            .flatten()
            .filter(|h| missing.iter().any(|i| i % first.shards == h.shard))
            .map(|h| format!("shard {} ({})", h.shard, h.path.display()))
            .collect();
        return Err(format!(
            "grid cell(s) {} of '{}' missing ({} of {} cells present) — the journal of {} \
             is incomplete; finish its run with `shard run --resume` and merge again",
            missing
                .iter()
                .map(|&i| format!("{i} [{}]", reference[i].label()))
                .collect::<Vec<_>>()
                .join(", "),
            first.scenario,
            reference.len() - missing.len(),
            reference.len(),
            owing.join(", ")
        ));
    }
    let scale = first.scale;
    let mut outcomes: Vec<CellOutcome> = files.into_iter().flat_map(|f| f.outcomes).collect();
    // A journal resumed under --freeze-perf may still hold wall-clock
    // values from the unfrozen run it resumed.
    runner::freeze_walls(&mut outcomes);

    let run = runner::assemble(scenario, outcomes);
    // There is no meaningful whole-batch wall clock for a distributed
    // run; record zero, which is also what a direct run records under
    // freeze-perf.
    runner::render_into(&run, scale, Duration::ZERO, out_root)
        .map_err(|e| format!("cannot write merged report: {e}"))
}

// -------------------------------------------------------------------
// Fleet support
// -------------------------------------------------------------------

/// Summary of one plan file's header, as the fleet coordinator
/// ([`crate::fleet`]) needs it to validate and supervise a plan set.
#[derive(Debug)]
pub struct PlanInfo {
    /// The plan file.
    pub path: PathBuf,
    /// Scenario name.
    pub scenario: String,
    /// This shard's id.
    pub shard: usize,
    /// Total shards in the plan set.
    pub shards: usize,
    /// Scale the plan was generated at.
    pub scale: Scale,
    /// Cells assigned to this shard.
    pub cells: usize,
}

/// Reads one plan file's header (validating format version and kind).
pub fn plan_info(path: &Path) -> Result<PlanInfo, String> {
    let file = read_shard_file(path, "plan")?;
    let cells = file
        .doc
        .get("cells")
        .and_then(Json::as_arr)
        .map(|a| a.len())
        .ok_or_else(|| format!("{}: no 'cells' array", file.ctx()))?;
    Ok(PlanInfo {
        path: path.to_path_buf(),
        scenario: file.scenario,
        shard: file.shard,
        shards: file.shards,
        scale: file.scale,
        cells,
    })
}

/// The cells a shard still owes, as `"index [grid label]"` strings:
/// planned cells not yet present in the shard's journal (all of them
/// when no journal exists; likewise when the journal is unreadable —
/// corrupt journals count for nothing). The fleet coordinator reports
/// these when a shard exhausts its retries, so a degraded run ends
/// with the exact sweep points still owed rather than a bare count.
pub fn unfinished_cells(plan_path: &Path) -> Result<Vec<String>, String> {
    let file = read_shard_file(plan_path, "plan")?;
    let ctx = file.ctx();
    let planned: Vec<(usize, String)> = file
        .doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ctx}: no 'cells' array"))?
        .iter()
        .map(|c| decode_cell(&ctx, c, file.scale).map(|s| (s.index, s.label())))
        .collect::<Result<_, _>>()?;
    let jpath = journal_path(plan_path);
    let have: HashSet<usize> = match read_journal(&jpath) {
        Ok(Some(j)) => j.outcomes.iter().map(|o| o.spec.index).collect(),
        _ => HashSet::new(),
    };
    Ok(planned
        .into_iter()
        .filter(|(i, _)| !have.contains(i))
        .map(|(i, l)| format!("{i} [{l}]"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_round_trip_typed() {
        for v in [
            Value::U64(2),
            Value::F64(2.0),
            Value::F64(0.1),
            Value::Str("Occamy".to_string()),
        ] {
            let j = encode_param("k", &v);
            let (k, back) = decode_param("t", &j).unwrap();
            assert_eq!(k, "k");
            assert_eq!(back, v, "kind must survive the trip");
        }
    }

    #[test]
    fn cell_round_trip_preserves_identity() {
        let cells = crate::scenario::Grid::new("fig12", Scale::Smoke)
            .axis("alpha", [1.0f64, 2.0])
            .axis("scheme", ["Occamy", "DT"])
            .build();
        for c in &cells {
            let j = encode_cell(c);
            let back = decode_cell("t", &j, Scale::Smoke).unwrap();
            assert_eq!(back.index, c.index);
            assert_eq!(back.seed, c.seed);
            assert_eq!(back.label(), c.label());
            assert_eq!(back.params(), c.params());
        }
    }

    #[test]
    fn outcome_round_trip_preserves_metrics_and_series() {
        let cells = crate::scenario::Grid::new("x", Scale::Smoke)
            .axis("k", [1u64])
            .build();
        let mut s = Series::new("q", &["t", "v"]);
        s.row(vec![0.0, 0.5]);
        s.row(vec![1.0, f64::NAN]);
        let o = CellOutcome {
            spec: cells[0].clone(),
            result: CellResult::new()
                .metric("loss_rate", 0.125)
                .metric("events", 12345.0)
                .metric("odd", f64::NAN)
                .with_series(s),
            wall: Duration::from_millis(7),
            rss: 4096,
        };
        let j = encode_outcome(&o);
        let back = decode_outcome("t", &j, Scale::Smoke).unwrap();
        assert_eq!(back.spec.seed, o.spec.seed);
        assert_eq!(back.rss, 4096);
        assert_eq!(back.result.get("loss_rate"), Some(0.125));
        assert_eq!(back.result.get("events"), Some(12345.0));
        assert!(back.result.get("odd").unwrap().is_nan());
        let sb = back.result.find_series("q").unwrap();
        assert_eq!(sb.columns, ["t", "v"]);
        assert_eq!(sb.rows[0], [0.0, 0.5]);
        assert!(sb.rows[1][1].is_nan());
        // The re-rendered result is byte-identical to the original —
        // the property the merged BENCH json rests on.
        assert_eq!(back.result.to_json().render(), o.result.to_json().render());
    }

    #[test]
    fn plan_balances_round_robin() {
        let dir = std::env::temp_dir().join(format!("occamy_shard_plan_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let source = ShardSource::from_name("fig12").unwrap();
        let paths = plan(&source, Scale::Smoke, 3, &dir).unwrap();
        assert_eq!(paths.len(), 3);
        let mut indices = Vec::new();
        for (i, p) in paths.iter().enumerate() {
            let f = read_shard_file(p, "plan").unwrap();
            assert_eq!(f.shard, i);
            assert_eq!(f.shards, 3);
            for c in f.doc.get("cells").and_then(Json::as_arr).unwrap() {
                let idx = c.get("index").and_then(Json::as_u64).unwrap() as usize;
                assert_eq!(idx % 3, i, "round-robin assignment");
                indices.push(idx);
            }
        }
        indices.sort_unstable();
        let total = ShardSource::from_name("fig12")
            .unwrap()
            .scenario()
            .grid(Scale::Smoke)
            .len();
        assert_eq!(indices, (0..total).collect::<Vec<_>>(), "full coverage");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_rejects_more_shards_than_cells() {
        let dir = std::env::temp_dir().join("occamy_shard_overplan");
        let source = ShardSource::from_name("fig12").unwrap();
        let cells = source.scenario().grid(Scale::Smoke).len();
        let e = plan(&source, Scale::Smoke, cells + 1, &dir).unwrap_err();
        assert!(e.contains("use --shards"), "{e}");
    }

    #[test]
    fn merge_rejects_inputs_that_are_not_journals() {
        // A plan and a worker log: the likeliest wrong inputs.
        for input in ["shards/fig12.shard-1.json", "shards/fig12.shard-1.log"] {
            let e = merge(&[PathBuf::from(input)], Path::new("unused")).unwrap_err();
            assert!(
                e.contains(input) && e.contains("shards/fig12.shard-1.cells.jsonl"),
                "the error must name the input and the journal it expected: {e}"
            );
        }
    }

    #[test]
    fn failed_append_fails_every_later_append() {
        let dir = std::env::temp_dir().join(format!("occamy_shard_append_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig12.shard-0.cells.jsonl");
        std::fs::write(&path, "header\n").unwrap();
        // A read-only handle makes the write fail like a full disk.
        let mut w = JournalWriter {
            path: path.clone(),
            file: File::open(&path).unwrap(),
            failed: None,
        };
        let e = w.append_line("{}".to_string(), "cell 2").unwrap_err();
        assert!(e.contains("cell 2 not journaled"), "{e}");
        // Once failed, a later append must not glue onto a torn line,
        // even if the file would now accept it.
        w.file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        assert_eq!(w.append_line("{}".to_string(), "cell 4").unwrap_err(), e);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "header\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_scenario_lists_known_names() {
        let e = match ShardSource::from_name("fig99") {
            Err(e) => e,
            Ok(_) => panic!("fig99 resolved"),
        };
        assert!(e.contains("fig99") && e.contains("fig12"), "{e}");
    }
}
