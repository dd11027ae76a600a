//! Summarize a JSONL protocol trace written by `--trace` (or any
//! [`JsonlSink`](ffd2d_experiments::trace::JsonlSink) log).
//!
//! Usage: trace_inspect <trace.jsonl>
//!
//! Prints:
//! * run verdict (converged / censored at slot N);
//! * a per-phase message breakdown (tx per RACH codec, unicast sends,
//!   rx outcomes, oscillator adjustments, merge handshake traffic)
//!   using the `phase_enter` events as boundaries;
//! * the merge tree of fragment lineage reconstructed from
//!   `fragment_commit` events (which fragment head absorbed which);
//! * time-to-X%-discovery milestones, and per-slot collision-rate and
//!   phase-spread percentiles via `ffd2d-metrics`.
//!
//! The per-slot folding reuses [`ffd2d_trace::TimelineSink`] — the
//! inspector replays the log through the same sink the live run used,
//! so offline numbers match online ones by construction. The per-slot
//! statistics and the last-slot line cover only the slots with at
//! least one broadcast, so a trace from either engine prints the same
//! summary (the event engine skips silent slots).

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader};
use std::process::ExitCode;

use ffd2d_experiments::trace::parse_event;
use ffd2d_metrics::Percentiles;
use ffd2d_sim::counters::Counters;
use ffd2d_trace::{TimelineSink, TraceEvent, TraceSink};

/// Message tallies for one protocol phase.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct PhaseTally {
    counters: Counters,
    phase_adjusts: u64,
    merge_requests: u64,
    merge_accepts: u64,
    merge_rejects: u64,
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: trace_inspect <trace.jsonl>");
        return ExitCode::from(2);
    };
    let file = match std::fs::File::open(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("trace_inspect: cannot open {path}: {e}");
            return ExitCode::from(2);
        }
    };

    let mut timeline = TimelineSink::new();
    let mut phases: BTreeMap<String, PhaseTally> = BTreeMap::new();
    let mut current_phase = String::from("(pre-phase)");
    // Deduplicated lineage edges: absorbed fragment head -> (survivor, slot).
    let mut absorbed_into: BTreeMap<u32, (u32, u64)> = BTreeMap::new();
    let mut survivors: BTreeSet<u32> = BTreeSet::new();
    let mut converged_at: Option<u64> = None;
    let mut run_end: Option<(u64, bool)> = None;
    let mut events = 0u64;
    let mut unparsed = 0u64;

    for line in BufReader::new(file).lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("trace_inspect: read error in {path}: {e}");
                return ExitCode::from(2);
            }
        };
        if line.is_empty() {
            continue;
        }
        let Some(ev) = parse_event(&line) else {
            unparsed += 1;
            continue;
        };
        events += 1;
        timeline.event(&ev);
        let tally = phases.entry(current_phase.clone()).or_default();
        ev.tally(&mut tally.counters);
        match &ev {
            TraceEvent::PhaseEnter { phase, .. } => {
                current_phase = phase.name().to_string();
                phases.entry(current_phase.clone()).or_default();
            }
            TraceEvent::PhaseAdjust { .. } => tally.phase_adjusts += 1,
            TraceEvent::MergeRequest { .. } => tally.merge_requests += 1,
            TraceEvent::MergeAccept { .. } => tally.merge_accepts += 1,
            TraceEvent::MergeReject { .. } => tally.merge_rejects += 1,
            TraceEvent::FragmentCommit {
                slot,
                survivor,
                old_head,
                ..
            } => {
                survivors.insert(*survivor);
                if old_head != survivor {
                    absorbed_into.entry(*old_head).or_insert((*survivor, *slot));
                }
            }
            TraceEvent::Converged { slot } => converged_at = Some(*slot),
            TraceEvent::RunEnd { slot, converged } => run_end = Some((*slot, *converged)),
            _ => {}
        }
    }

    if events == 0 {
        eprintln!("trace_inspect: {path}: no parseable events ({unparsed} bad lines)");
        return ExitCode::from(2);
    }

    println!("trace: {path}");
    println!("events: {events} ({unparsed} unparseable lines skipped)");
    match (converged_at, run_end) {
        (Some(s), _) => println!("verdict: CONVERGED at slot {s}"),
        (None, Some((s, _))) => println!("verdict: CENSORED (still running at slot {s})"),
        (None, None) => println!("verdict: UNKNOWN (no converged/run_end event — truncated log?)"),
    }

    println!("\nper-phase message breakdown:");
    println!(
        "  {:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>7} {:>7} {:>7}",
        "phase",
        "rach1_tx",
        "rach2_tx",
        "unicast",
        "rx_ok",
        "rx_coll",
        "rx_fade",
        "adjusts",
        "m_req",
        "m_acc",
        "m_rej"
    );
    for (name, t) in &phases {
        if *t == PhaseTally::default() && name == "(pre-phase)" {
            continue;
        }
        let c = &t.counters;
        println!(
            "  {:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>7} {:>7} {:>7}",
            name,
            c.rach1_tx,
            c.rach2_tx,
            c.unicast_tx,
            c.rx_ok,
            c.rx_collision,
            c.rx_below_threshold,
            t.phase_adjusts,
            t.merge_requests,
            t.merge_accepts,
            t.merge_rejects
        );
    }

    print_merge_tree(&absorbed_into, &survivors);
    print_milestones(&timeline);
    ExitCode::SUCCESS
}

/// Reconstruct and print the fragment lineage: which heads were
/// absorbed into which survivors, as a forest rooted at the fragments
/// that were never absorbed themselves.
fn print_merge_tree(absorbed_into: &BTreeMap<u32, (u32, u64)>, survivors: &BTreeSet<u32>) {
    println!("\nmerge tree (fragment lineage):");
    if absorbed_into.is_empty() {
        println!("  (no fragment merges in this trace)");
        return;
    }
    let mut children: BTreeMap<u32, Vec<(u32, u64)>> = BTreeMap::new();
    for (&child, &(parent, slot)) in absorbed_into {
        children.entry(parent).or_default().push((child, slot));
    }
    let roots: Vec<u32> = survivors
        .iter()
        .copied()
        .filter(|s| !absorbed_into.contains_key(s))
        .collect();
    println!(
        "  {} merges, {} surviving root(s): {:?}",
        absorbed_into.len(),
        roots.len(),
        roots
    );
    const MAX_LINES: usize = 60;
    let mut printed = 0usize;
    let mut elided = 0usize;
    for &root in &roots {
        print_subtree(
            root,
            None,
            1,
            &children,
            &mut printed,
            &mut elided,
            MAX_LINES,
        );
    }
    if elided > 0 {
        println!("  ... ({elided} more lineage entries elided)");
    }
}

fn print_subtree(
    frag: u32,
    merged_at: Option<u64>,
    depth: usize,
    children: &BTreeMap<u32, Vec<(u32, u64)>>,
    printed: &mut usize,
    elided: &mut usize,
    max_lines: usize,
) {
    if *printed >= max_lines {
        *elided += 1;
    } else {
        let indent = "  ".repeat(depth);
        match merged_at {
            None => println!("{indent}fragment {frag}"),
            Some(slot) => println!("{indent}<- fragment {frag} (absorbed at slot {slot})"),
        }
        *printed += 1;
    }
    if let Some(kids) = children.get(&frag) {
        for &(child, slot) in kids {
            print_subtree(
                child,
                Some(slot),
                depth + 1,
                children,
                printed,
                elided,
                max_lines,
            );
        }
    }
}

/// Discovery milestones, and per-slot collision-rate and phase-spread
/// percentiles over the slots that carried a transmission, from the
/// replayed timeline.
fn print_milestones(timeline: &TimelineSink) {
    let rows = timeline.rows();
    if rows.is_empty() {
        println!("\n(no slot_stats events — timeline section unavailable)");
        return;
    }
    println!("\ndiscovery milestones (time to X% of ground-truth links):");
    for pct in [50.0, 90.0, 95.0, 99.0, 100.0] {
        match timeline.slot_reaching_completeness(pct / 100.0) {
            Some(slot) => println!("  {pct:>5.0}% : slot {slot}"),
            None => println!("  {pct:>5.0}% : never reached"),
        }
    }
    // Unicasts travel off the shared medium, so a slot that only sent
    // unicasts has no collision rate to report.
    let busy: Vec<_> = rows
        .iter()
        .filter(|r| r.counters.rach1_tx + r.counters.rach2_tx > 0)
        .collect();
    let Some(last) = busy.last() else {
        println!("\n(no transmissions — per-slot statistics unavailable)");
        return;
    };
    let mut coll = Percentiles::from_samples(busy.iter().map(|r| r.counters.collision_rate()));
    let mut spread = Percentiles::from_samples(busy.iter().map(|r| r.phase_spread));
    println!(
        "\nper-slot collision rate: median {:.4}, p95 {:.4}, max {:.4}",
        coll.median().unwrap_or(0.0),
        coll.p95().unwrap_or(0.0),
        coll.quantile(1.0).unwrap_or(0.0)
    );
    println!(
        "per-slot sync error (phase spread): median {:.4}, p95 {:.4}",
        spread.median().unwrap_or(0.0),
        spread.p95().unwrap_or(0.0)
    );
    println!(
        "last slot with a transmission {}: {} fragment(s), discovery {:.1}%, phase spread {:.4}",
        last.slot,
        last.fragments,
        100.0 * last.discovery_completeness(),
        last.phase_spread
    );
}
