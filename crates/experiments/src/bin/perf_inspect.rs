//! Render a hot-path breakdown from a telemetry run manifest written by
//! `--telemetry` (see `fig3 --help` text).
//!
//! Usage: perf_inspect <manifest.json> [more.json ...]
//!
//! A sweep rollup (`<dir>/sweep.json`) renders as a per-cell table:
//! label, n, wall clock, slots per second and manifest path, so
//! `perf_inspect telem/*.json` reads a whole `--telemetry` directory.
//!
//! For each manifest, prints the config echo, the total wall clock, a
//! stage table (stage, calls, total ms, p50/p95/p99, % of run — timers
//! sorted by total time), the work counters, and the workload-shape
//! observations. Durations vary run to run, but at the same seed the
//! *structure* — every counter and every timer's call count — is
//! deterministic, so two manifests of the same cell disagree only in
//! the nanosecond columns.

use std::process::ExitCode;

use ffd2d_experiments::telemetry::{parse_rollup, CellRecord};
use ffd2d_telemetry::{HistogramSummary, ManifestSummary};

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: perf_inspect <manifest.json> [more.json ...]");
        return ExitCode::from(2);
    }
    let mut first = true;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("perf_inspect: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        if !first {
            println!();
        }
        first = false;
        match parse_rollup(&text) {
            Ok(Some(cells)) => {
                print_rollup(path, &cells);
                continue;
            }
            Ok(None) => {}
            Err(e) => {
                eprintln!("perf_inspect: {path}: {e}");
                return ExitCode::from(2);
            }
        }
        let manifest = match ManifestSummary::parse(&text) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("perf_inspect: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        print_manifest(path, &manifest);
    }
    ExitCode::SUCCESS
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn print_rollup(path: &str, cells: &[CellRecord]) {
    let total: u64 = cells.iter().map(|c| c.wall_clock_ns).sum();
    println!("sweep rollup: {path}");
    println!("wall clock: {:.3} ms over {} runs", ms(total), cells.len());
    println!(
        "  {:<16} {:>8} {:>12} {:>14}  manifest",
        "run", "n", "wall ms", "slots/s"
    );
    for c in cells {
        println!(
            "  {:<16} {:>8} {:>12.3} {:>14.1}  {}",
            c.label,
            c.n,
            ms(c.wall_clock_ns),
            c.slots_per_sec(),
            c.manifest.display()
        );
    }
}

fn print_manifest(path: &str, m: &ManifestSummary) {
    println!("manifest: {path}");
    println!("run: {}", m.label);
    let config: Vec<String> = m.config.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("config: {}", config.join(" "));
    println!("wall clock: {:.3} ms", ms(m.wall_clock_ns));

    // Stage table: every timer, heaviest first. "% of run" is against
    // the total wall clock; stages nest (engine.run_ns contains the
    // slot timers, which contain medium.resolve_ns), so the column is
    // per-stage inclusive time, not a partition of 100%.
    let mut timers: Vec<&HistogramSummary> = m.timers.iter().collect();
    timers.sort_by(|a, b| b.total.cmp(&a.total).then_with(|| a.name.cmp(&b.name)));
    println!("\nhot-path breakdown (inclusive per stage):");
    println!(
        "  {:<24} {:>10} {:>12} {:>10} {:>10} {:>10} {:>8}",
        "stage", "calls", "total ms", "p50 ns", "p95 ns", "p99 ns", "% run"
    );
    if timers.is_empty() {
        println!("  (no timers recorded)");
    }
    for t in timers {
        let pct = if m.wall_clock_ns > 0 {
            100.0 * t.total as f64 / m.wall_clock_ns as f64
        } else {
            0.0
        };
        println!(
            "  {:<24} {:>10} {:>12.3} {:>10} {:>10} {:>10} {:>7.1}%",
            t.name,
            t.count,
            ms(t.total),
            t.p50,
            t.p95,
            t.p99,
            pct
        );
    }

    println!("\ncounters:");
    if m.counters.is_empty() {
        println!("  (none)");
    }
    for (k, v) in &m.counters {
        println!("  {k:<28} {v:>14}");
    }

    if !m.observations.is_empty() {
        println!("\nworkload shape (observations):");
        println!(
            "  {:<24} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "metric", "samples", "p50", "p95", "p99", "max"
        );
        for o in &m.observations {
            println!(
                "  {:<24} {:>10} {:>10} {:>10} {:>10} {:>10}",
                o.name, o.count, o.p50, o.p95, o.p99, o.max
            );
        }
    }

    // Derived headline ratios. A family that was instrumented but saw
    // zero lookups renders `n/a` — never `0.0%` or NaN. A family whose
    // keys are absent entirely (e.g. `--gain-cache off` emits no
    // gain-cache counters) is skipped.
    if m.has_counter("medium.gain_cache_hits") || m.has_counter("medium.gain_cache_misses") {
        let hits = m.counter("medium.gain_cache_hits");
        let fills = m.counter("medium.gain_cache_misses");
        print!("\ngain-cache row hit rate: ");
        if hits + fills > 0 {
            println!(
                "{:.1}% ({hits} rows served / {fills} rows filled)",
                100.0 * hits as f64 / (hits + fills) as f64
            );
        } else {
            println!("n/a (no lookups)");
        }
    }
    if m.has_counter("engine.slots_materialized") || m.has_counter("engine.slots_skipped") {
        let materialized = m.counter("engine.slots_materialized");
        let skipped = m.counter("engine.slots_skipped");
        if materialized + skipped > 0 {
            println!(
                "slots: {materialized} materialized, {skipped} skipped ({:.1}% idle warped past)",
                100.0 * skipped as f64 / (materialized + skipped) as f64
            );
        } else {
            println!("slots: n/a (no slots ran)");
        }
    }
    // Wake-up scheduler health. Stale = pushed behind the clock and
    // dropped; coalesced = merged into an already-pending slot (the
    // wake set keeps each pending slot once, so repeat deadlines on
    // one slot show up as coalescing, not as stale pops). A stepped
    // run schedules no wakes, so the family is absent and both lines
    // render `n/a`.
    let scheduled = m.counter("engine.wakeups_scheduled");
    print!("stale-wakeup rate: ");
    if scheduled > 0 {
        let stale = m.counter("engine.wakeups_stale");
        println!(
            "{:.1}% ({stale} dropped / {scheduled} scheduled)",
            100.0 * stale as f64 / scheduled as f64
        );
    } else {
        println!("n/a (no wakes scheduled)");
    }
    print!("coalescing rate: ");
    if scheduled > 0 {
        let coalesced = m.counter("engine.coalesced_wakeups");
        println!(
            "{:.1}% ({coalesced} merged / {scheduled} scheduled)",
            100.0 * coalesced as f64 / scheduled as f64
        );
    } else {
        println!("n/a (no wakes scheduled)");
    }
}
