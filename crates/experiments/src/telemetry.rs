//! `--telemetry` support for the figure binaries.
//!
//! The sweep itself runs unrecorded (self-profiling hundreds of trials
//! would only profile the profiler). When `--telemetry <dir>` is
//! passed, the binaries additionally **replay trial 0 of every node
//! count** — under the exact trial seed the sweep used, so the
//! profiled run is the same simulation the figure's first sample came
//! from — with an enabled [`Telemetry`] recorder attached to both
//! protocols:
//!
//! * `<dir>/st_n{n}.json`, `<dir>/fst_n{n}.json` — run manifests
//!   (config echo, seed, wall clock, counters, timer quantiles; the
//!   input of `perf_inspect`);
//! * `<dir>/sweep.json` — a sweep-level rollup (per-cell wall clock,
//!   materialized-slot throughput, manifest paths).
//!
//! Telemetry is observational: the replayed outcomes are bit-identical
//! to the unrecorded sweep cells (locked by `tests/telemetry.rs`).

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

use ffd2d_baseline::FstProtocol;
use ffd2d_core::{ScenarioConfig, StProtocol, World};
use ffd2d_telemetry::json::Value;
use ffd2d_telemetry::{RunManifest, Telemetry};

use crate::sweep::SweepParams;

/// Schema tag of the sweep rollup, `<dir>/sweep.json`.
const SWEEP_ROLLUP_SCHEMA: &str = "ffd2d-telemetry-sweep/1";

/// One profiled cell, as aggregated into the sweep rollup.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Run label, e.g. `st_n100`.
    pub label: String,
    /// Devices in the cell.
    pub n: usize,
    /// Wall clock of the replayed run.
    pub wall_clock_ns: u64,
    /// Slots the run materialized.
    pub slots: u64,
    /// Path of the cell's run manifest.
    pub manifest: PathBuf,
}

impl CellRecord {
    /// Materialized slots per second of wall clock (0 for an instant run).
    pub fn slots_per_sec(&self) -> f64 {
        let secs = self.wall_clock_ns as f64 / 1e9;
        if secs > 0.0 {
            self.slots as f64 / secs
        } else {
            0.0
        }
    }
}

/// The cells of a sweep rollup document, or `None` when `text` is JSON
/// of another schema (a run manifest, say).
pub fn parse_rollup(text: &str) -> Result<Option<Vec<CellRecord>>, String> {
    let root = Value::parse(text)?;
    if root.get("schema").and_then(Value::as_str) != Some(SWEEP_ROLLUP_SCHEMA) {
        return Ok(None);
    }
    let Some(Value::Arr(cells)) = root.get("cells") else {
        return Err("sweep rollup: \"cells\" is not an array".into());
    };
    fn field<'v>(cell: &'v Value, key: &str) -> Result<&'v Value, String> {
        cell.get(key)
            .ok_or_else(|| format!("sweep rollup: a cell lacks {key:?}"))
    }
    let count = |cell: &Value, key: &str| {
        field(cell, key)?
            .as_u64()
            .ok_or_else(|| format!("sweep rollup: {key:?} is not a count"))
    };
    let text_of = |cell: &Value, key: &str| {
        field(cell, key)?
            .as_str()
            .map(String::from)
            .ok_or_else(|| format!("sweep rollup: {key:?} is not a string"))
    };
    cells
        .iter()
        .map(|cell| {
            Ok(CellRecord {
                label: text_of(cell, "label")?,
                n: usize::try_from(count(cell, "n")?).map_err(|e| e.to_string())?,
                wall_clock_ns: count(cell, "wall_clock_ns")?,
                slots: count(cell, "slots_materialized")?,
                manifest: PathBuf::from(text_of(cell, "manifest")?),
            })
        })
        .collect::<Result<_, String>>()
        .map(Some)
}

/// Replay trial 0 of every sweep cell with telemetry enabled, writing
/// JSON run manifests and a sweep rollup under `dir`.
/// Progress (per-cell wall clock, slot throughput, ETA) goes to stderr.
/// Returns the manifest JSON paths written (ST and FST interleaved per
/// node count).
pub fn write_sweep_telemetry(params: &SweepParams, dir: &Path) -> io::Result<Vec<PathBuf>> {
    fs::create_dir_all(dir)?;
    let cells = params.node_counts.len() * 2;
    let t_sweep = Instant::now();
    let mut done = 0usize;
    let mut records: Vec<CellRecord> = Vec::new();
    let mut written = Vec::new();
    for (n, scenario) in params.replay_scenarios().map_err(io::Error::other)? {
        let world = World::new(&scenario);
        for (proto, stem) in [("st", format!("st_n{n}")), ("fst", format!("fst_n{n}"))] {
            let mut rec = Telemetry::new();
            let t0 = Instant::now();
            match proto {
                "st" => {
                    StProtocol::run_in_instrumented(&world, &mut ffd2d_trace::NullSink, &mut rec)
                }
                _ => FstProtocol::run_in_instrumented(&world, &mut ffd2d_trace::NullSink, &mut rec),
            };
            let wall_clock_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let manifest = manifest_for(&stem, proto, &scenario, params, wall_clock_ns, rec);
            let json_path = write_manifest(dir, &stem, &manifest)?;
            done += 1;
            let slots = manifest.telemetry.counter("engine.slots_materialized");
            progress_line(&stem, done, cells, wall_clock_ns, slots, t_sweep.elapsed());
            records.push(CellRecord {
                label: stem,
                n,
                wall_clock_ns,
                slots,
                manifest: json_path.clone(),
            });
            written.push(json_path);
        }
    }
    fs::write(dir.join("sweep.json"), rollup_json(&records))?;
    Ok(written)
}

/// Profile a single ST trial of an arbitrary scenario (the ablation
/// binary's `--telemetry` path): manifest to `<dir>/{stem}.json`.
/// Returns the JSON path.
pub fn write_st_telemetry(
    scenario: &ScenarioConfig,
    dir: &Path,
    stem: &str,
) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let world = World::new(scenario);
    let mut rec = Telemetry::new();
    let t0 = Instant::now();
    StProtocol::run_in_instrumented(&world, &mut ffd2d_trace::NullSink, &mut rec);
    let wall_clock_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let config = scenario_config_echo("st", scenario);
    let manifest = RunManifest {
        label: stem.to_string(),
        config,
        wall_clock_ns,
        telemetry: rec,
    };
    write_manifest(dir, stem, &manifest)
}

/// Build a cell manifest: label + ordered config echo + registry.
fn manifest_for(
    stem: &str,
    proto: &str,
    scenario: &ScenarioConfig,
    params: &SweepParams,
    wall_clock_ns: u64,
    rec: Telemetry,
) -> RunManifest {
    let mut config = scenario_config_echo(proto, scenario);
    config.push(("trials".to_string(), params.trials.to_string()));
    config.push((
        "master_seed".to_string(),
        format!("{:#x}", params.master_seed),
    ));
    RunManifest {
        label: stem.to_string(),
        config,
        wall_clock_ns,
        telemetry: rec,
    }
}

/// The ordered (key, value) configuration echo shared by every
/// manifest: enough to re-run the exact cell.
fn scenario_config_echo(proto: &str, scenario: &ScenarioConfig) -> Vec<(String, String)> {
    vec![
        ("protocol".to_string(), proto.to_string()),
        ("n".to_string(), scenario.sim.n_devices.to_string()),
        ("seed".to_string(), scenario.sim.seed.to_string()),
        ("horizon".to_string(), scenario.sim.max_slots.0.to_string()),
        (
            "engine".to_string(),
            match scenario.engine {
                ffd2d_core::EngineMode::Stepped => "stepped".to_string(),
                ffd2d_core::EngineMode::EventDriven => "event".to_string(),
            },
        ),
        (
            "gain_cache".to_string(),
            match scenario.gain_cache {
                ffd2d_core::GainCacheMode::Epoch => "epoch".to_string(),
                ffd2d_core::GainCacheMode::Off => "off".to_string(),
            },
        ),
        (
            "faults".to_string(),
            if scenario.faults.is_none() {
                "none".to_string()
            } else {
                "scheduled".to_string()
            },
        ),
    ]
}

/// Write `<dir>/{stem}.json`; returns its path.
fn write_manifest(dir: &Path, stem: &str, manifest: &RunManifest) -> io::Result<PathBuf> {
    let json_path = dir.join(format!("{stem}.json"));
    fs::write(&json_path, manifest.to_json())?;
    Ok(json_path)
}

/// One per-cell progress line with throughput and a naive ETA
/// (remaining cells at the mean observed pace; later cells are bigger,
/// so it is a floor, not a promise).
fn progress_line(
    stem: &str,
    done: usize,
    cells: usize,
    wall_clock_ns: u64,
    slots: u64,
    sweep_elapsed: std::time::Duration,
) {
    let secs = wall_clock_ns as f64 / 1e9;
    let throughput = if secs > 0.0 { slots as f64 / secs } else { 0.0 };
    let eta = sweep_elapsed.as_secs_f64() / done as f64 * (cells - done) as f64;
    let mut err = io::stderr().lock();
    let _ = writeln!(
        err,
        "[telemetry {done}/{cells}] {stem}: {secs:.3} s, {slots} slots materialized ({throughput:.0} slots/s), eta ~{eta:.1} s"
    );
}

/// The sweep-level rollup document.
fn rollup_json(records: &[CellRecord]) -> String {
    let total_ns: u64 = records.iter().map(|r| r.wall_clock_ns).sum();
    let mut out = String::with_capacity(1024);
    out.push_str(&format!("{{\n  \"schema\": \"{SWEEP_ROLLUP_SCHEMA}\",\n"));
    out.push_str(&format!("  \"total_wall_clock_ns\": {total_ns},\n"));
    out.push_str("  \"cells\": [");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"label\": \"{}\", \"n\": {}, \"wall_clock_ns\": {}, \"slots_materialized\": {}, \"slots_per_sec\": {:.1}, \"manifest\": \"{}\"}}",
            r.label,
            r.n,
            r.wall_clock_ns,
            r.slots,
            r.slots_per_sec(),
            r.manifest.display()
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollup_round_trips_through_its_reader() {
        let records = vec![
            CellRecord {
                label: "st_n20".into(),
                n: 20,
                wall_clock_ns: 2_500_000,
                slots: 1_000,
                manifest: PathBuf::from("telem/st_n20.json"),
            },
            CellRecord {
                label: "fst_n20".into(),
                n: 20,
                wall_clock_ns: 0,
                slots: 0,
                manifest: PathBuf::from("telem/fst_n20.json"),
            },
        ];
        let text = rollup_json(&records);
        assert_eq!(parse_rollup(&text), Ok(Some(records)));
        assert_eq!(parse_rollup(r#"{"schema": "ffd2d-telemetry/1"}"#), Ok(None));
        let bad = text.replace("\"slots_materialized\"", "\"slots\"");
        assert!(parse_rollup(&bad).is_err());
    }
}
