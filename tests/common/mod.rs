//! Protocol tables and trace checks shared by the integration suites.

use std::collections::BTreeMap;

use ffd2d::baseline::FstProtocol;
use ffd2d::core::{RunOutcome, ScenarioConfig, StProtocol, World};
use ffd2d::experiments::trace::JsonlSink;
use ffd2d::telemetry::NullRecorder;

/// A protocol's `run_in_instrumented`, fixed to an in-memory JSONL sink.
pub type Traced = fn(&World, &mut JsonlSink<Vec<u8>>, &mut NullRecorder) -> RunOutcome;

/// A protocol's plain `run`.
pub type Run = fn(&ScenarioConfig) -> RunOutcome;

/// Both protocols: name, plain `run`, and traced entry point.
pub const PROTOCOLS: [(&str, Run, Traced); 2] = [
    ("ST", StProtocol::run, StProtocol::run_in_instrumented),
    ("FST", FstProtocol::run, FstProtocol::run_in_instrumented),
];

/// Run one trial of `cfg` through `run`: its outcome and JSONL bytes.
pub fn traced(run: Traced, cfg: &ScenarioConfig) -> (RunOutcome, Vec<u8>) {
    let mut sink = JsonlSink::new(Vec::new());
    let out = run(&World::new(cfg), &mut sink, &mut NullRecorder);
    assert!(sink.io_error().is_none());
    (out, sink.into_inner())
}

/// The tag and slot of a JSONL event line, which the encoder writes
/// first for every event kind (cheaper than a full parse on logs of
/// millions of lines).
fn head(line: &str) -> (&str, u64) {
    let rest = line.strip_prefix("{\"t\":\"").expect("an event line");
    let (tag, rest) = rest.split_once("\",\"slot\":").expect("tag, then slot");
    let end = rest.find([',', '}']).expect("a slot value");
    (tag, rest[..end].parse().expect("a numeric slot"))
}

/// A JSONL line with its tag and slot.
type Tagged<'a> = (&'a str, u64, &'a str);

/// Split a JSONL trace into its `slot_stats` lines keyed by slot and
/// its other lines in order.
fn split_trace(log: &[u8]) -> (BTreeMap<u64, &str>, Vec<Tagged<'_>>) {
    let mut stats = BTreeMap::new();
    let mut others = Vec::new();
    for line in std::str::from_utf8(log).expect("JSONL is UTF-8").lines() {
        match head(line) {
            ("slot_stats", slot) => {
                assert!(
                    stats.insert(slot, line).is_none(),
                    "two slot_stats at {slot}"
                )
            }
            (tag, slot) => others.push((tag, slot, line)),
        }
    }
    (stats, others)
}

/// Assert the cross-engine trace contract: the event-driven trace of a
/// run is its stepped trace with the `slot_stats` lines of the skipped
/// slots removed.
///
/// * The non-`slot_stats` lines are byte-identical and in the same
///   order.
/// * Every event-run `slot_stats` line equals the stepped line at that
///   slot.
/// * No stepped slot that lacks an event-run `slot_stats` line has any
///   other event, except the two that frame the run outside every slot
///   body: the opening `phase_enter` at slot 0, and `run_end`, which
///   names the horizon's last slot under both engines when the run
///   reaches it.
pub fn assert_trace_contract(label: &str, stepped: &[u8], event: &[u8]) {
    let (stats_s, others_s) = split_trace(stepped);
    let (stats_e, others_e) = split_trace(event);
    assert!(!stats_e.is_empty(), "{label}: no event-run slot_stats");
    assert!(
        others_s
            .iter()
            .map(|o| o.2)
            .eq(others_e.iter().map(|o| o.2)),
        "{label}: non-slot_stats lines diverged"
    );
    for (slot, line) in &stats_e {
        assert_eq!(stats_s.get(slot), Some(line), "{label}: slot {slot}");
    }
    let (opening, body) = others_s.split_first().expect("empty trace");
    assert_eq!(opening.0, "phase_enter", "{label}: opening event");
    assert_eq!(opening.1, 0, "{label}: opening slot");
    for &(tag, slot, line) in body {
        assert!(
            tag == "run_end" || stats_e.contains_key(&slot),
            "{label}: {line} lies in a slot the event run skipped"
        );
    }
}
