//! `--trace` support for the figure binaries.
//!
//! The sweep itself runs untraced (tracing one representative trial is
//! cheap; tracing hundreds is not). When `--trace <dir>` is passed, the
//! binaries additionally **replay trial 0 of every node count** — under
//! the exact trial seed the sweep used, so the traced run is the
//! same simulation the figure's first sample came from — with a
//! [`JsonlSink`] + [`TimelineSink`] tee attached to both protocols:
//!
//! * `<dir>/st_n{n}.jsonl`, `<dir>/fst_n{n}.jsonl` — full replayable
//!   event logs (one JSON object per line; see `trace_inspect`);
//! * `results/timeline_st_n{n}.csv`, `results/timeline_fst_n{n}.csv` —
//!   per-slot fragment count, sync error, discovery completeness and
//!   collision rate, ready for plotting: one row per slot the sweep's
//!   engine materialized (every slot under `--engine stepped`).
//!
//! Tracing is observational: the replayed outcomes are bit-identical to
//! the untraced sweep cells (locked by `tests/trace.rs`).
//!
//! This module also owns the JSONL log format, both ways:
//! [`encode_event`] and [`JsonlSink`] write it, [`parse_event`] reads
//! it back through the workspace's JSON reader
//! ([`ffd2d_telemetry::json`]). One event per line, one JSON object per
//! event, field order fixed by the encoder — so a trace is a pure
//! function of `(scenario, seed)` and the determinism suite can assert
//! *byte* identity. Floats are rendered with Rust's shortest round-trip
//! formatting, which both sides of the round trip agree on exactly.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use ffd2d_baseline::FstProtocol;
use ffd2d_core::{RunOutcome, ScenarioConfig, StProtocol, World};
use ffd2d_telemetry::json::Value;
use ffd2d_telemetry::NullRecorder;
use ffd2d_trace::{
    Codec, FaultKind, FrameLabel, ProtoPhase, RejectReason, TeeSink, TimelineSink, TraceEvent,
    TraceSink,
};

use crate::sweep::SweepParams;

/// Replay trial 0 of every sweep cell with tracing enabled, writing
/// JSONL logs under `dir` and timeline CSVs under `results/`. Returns
/// the JSONL paths written (ST and FST interleaved per node count).
pub fn write_sweep_traces(params: &SweepParams, dir: &Path) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    std::fs::create_dir_all("results")?;
    let mut written = Vec::new();
    // Faulted sweeps replay under the same per-cell fault plan, so the
    // trace shows the same churn/drops the figure's first sample
    // experienced.
    for (n, scenario) in params.replay_scenarios().map_err(io::Error::other)? {
        let world = World::new(&scenario);
        let protocols: [(&str, Replay); 2] = [
            ("st", StProtocol::run_in_instrumented),
            ("fst", FstProtocol::run_in_instrumented),
        ];
        for (protocol, run) in protocols {
            written.push(trace_one(dir, &format!("{protocol}_n{n}"), &world, run)?);
        }
    }
    Ok(written)
}

/// Trace a single ST trial of an arbitrary scenario (the ablation
/// binary's `--trace` path): JSONL to `<dir>/{stem}.jsonl`, timeline
/// CSV to `results/timeline_{stem}.csv`.
pub fn write_st_trace(scenario: &ScenarioConfig, dir: &Path, stem: &str) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    std::fs::create_dir_all("results")?;
    trace_one(
        dir,
        stem,
        &World::new(scenario),
        StProtocol::run_in_instrumented,
    )
}

/// A traced replay's sink: the JSONL log teed into the per-slot timeline.
type ReplaySink = TeeSink<JsonlSink<BufWriter<File>>, TimelineSink>;

/// A protocol's `run_in_instrumented`, fixed to the replay sink.
type Replay = fn(&World, &mut ReplaySink, &mut NullRecorder) -> RunOutcome;

/// Run one traced trial of `world` through a protocol's
/// `run_in_instrumented`: JSONL to `<dir>/{stem}.jsonl`, timeline CSV
/// to `results/timeline_{stem}.csv`.
fn trace_one(dir: &Path, stem: &str, world: &World, run: Replay) -> io::Result<PathBuf> {
    let jsonl_path = dir.join(format!("{stem}.jsonl"));
    let jsonl = JsonlSink::new(BufWriter::new(File::create(&jsonl_path)?));
    let mut sink = TeeSink(jsonl, TimelineSink::new());
    run(world, &mut sink, &mut NullRecorder);
    let TeeSink(jsonl, timeline) = sink;
    if let Some(e) = jsonl.io_error() {
        return Err(io::Error::new(
            e.kind(),
            format!("writing {jsonl_path:?}: {e}"),
        ));
    }
    std::fs::write(format!("results/timeline_{stem}.csv"), timeline.to_csv())?;
    Ok(jsonl_path)
}

/// Encode one event as a single JSON line (no trailing newline).
pub fn encode_event(ev: &TraceEvent) -> String {
    let mut s = String::with_capacity(96);
    s.push_str("{\"t\":\"");
    s.push_str(ev.tag());
    s.push('"');
    let field_u = |s: &mut String, k: &str, v: u64| {
        s.push_str(",\"");
        s.push_str(k);
        s.push_str("\":");
        s.push_str(&v.to_string());
    };
    let field_f = |s: &mut String, k: &str, v: f64| {
        s.push_str(",\"");
        s.push_str(k);
        s.push_str("\":");
        // Shortest round-trip decimal; JSON has no Infinity/NaN, and no
        // event field can produce them (phases and powers are finite),
        // but guard anyway so a log line is always valid JSON.
        if v.is_finite() {
            s.push_str(&format!("{v:?}"));
        } else {
            s.push_str("null");
        }
    };
    let field_s = |s: &mut String, k: &str, v: &str| {
        s.push_str(",\"");
        s.push_str(k);
        s.push_str("\":\"");
        s.push_str(v);
        s.push('"');
    };
    let field_b = |s: &mut String, k: &str, v: bool| {
        s.push_str(",\"");
        s.push_str(k);
        s.push_str("\":");
        s.push_str(if v { "true" } else { "false" });
    };
    match *ev {
        TraceEvent::PhaseEnter { slot, phase } => {
            field_u(&mut s, "slot", slot);
            field_s(&mut s, "phase", phase.name());
        }
        TraceEvent::RoundStart {
            slot,
            round,
            budget,
            fragments,
        } => {
            field_u(&mut s, "slot", slot);
            field_u(&mut s, "round", round as u64);
            field_u(&mut s, "budget", budget);
            field_u(&mut s, "fragments", fragments as u64);
        }
        TraceEvent::Tx {
            slot,
            sender,
            codec,
            kind,
        } => {
            field_u(&mut s, "slot", slot);
            field_u(&mut s, "sender", sender as u64);
            field_s(&mut s, "codec", codec.name());
            field_s(&mut s, "kind", kind.name());
        }
        TraceEvent::Unicast {
            slot,
            sender,
            receiver,
        } => {
            field_u(&mut s, "slot", slot);
            field_u(&mut s, "sender", sender as u64);
            field_u(&mut s, "receiver", receiver as u64);
        }
        TraceEvent::RxDecode {
            slot,
            receiver,
            sender,
            codec,
            rx_dbm,
        } => {
            field_u(&mut s, "slot", slot);
            field_u(&mut s, "receiver", receiver as u64);
            field_u(&mut s, "sender", sender as u64);
            field_s(&mut s, "codec", codec.name());
            field_f(&mut s, "rx_dbm", rx_dbm);
        }
        TraceEvent::RxCollision {
            slot,
            receiver,
            codec,
            signals,
        } => {
            field_u(&mut s, "slot", slot);
            field_u(&mut s, "receiver", receiver as u64);
            field_s(&mut s, "codec", codec.name());
            field_u(&mut s, "signals", signals as u64);
        }
        TraceEvent::RxBelowThreshold { slot, count } => {
            field_u(&mut s, "slot", slot);
            field_u(&mut s, "count", count);
        }
        TraceEvent::PhaseAdjust {
            slot,
            device,
            sender,
            before,
            after,
            absorbed,
        } => {
            field_u(&mut s, "slot", slot);
            field_u(&mut s, "device", device as u64);
            field_u(&mut s, "sender", sender as u64);
            field_f(&mut s, "before", before);
            field_f(&mut s, "after", after);
            field_b(&mut s, "absorbed", absorbed);
        }
        TraceEvent::MergeRequest {
            slot,
            round,
            requester,
            target,
            req_fragment,
        } => {
            field_u(&mut s, "slot", slot);
            field_u(&mut s, "round", round as u64);
            field_u(&mut s, "requester", requester as u64);
            field_u(&mut s, "target", target as u64);
            field_u(&mut s, "req_fragment", req_fragment as u64);
        }
        TraceEvent::MergeAccept {
            slot,
            round,
            device,
            peer,
        } => {
            field_u(&mut s, "slot", slot);
            field_u(&mut s, "round", round as u64);
            field_u(&mut s, "device", device as u64);
            field_u(&mut s, "peer", peer as u64);
        }
        TraceEvent::MergeReject {
            slot,
            round,
            device,
            requester,
            reason,
        } => {
            field_u(&mut s, "slot", slot);
            field_u(&mut s, "round", round as u64);
            field_u(&mut s, "device", device as u64);
            field_u(&mut s, "requester", requester as u64);
            field_s(&mut s, "reason", reason.name());
        }
        TraceEvent::FragmentCommit {
            slot,
            round,
            device,
            peer,
            survivor,
            old_head,
        } => {
            field_u(&mut s, "slot", slot);
            field_u(&mut s, "round", round as u64);
            field_u(&mut s, "device", device as u64);
            field_u(&mut s, "peer", peer as u64);
            field_u(&mut s, "survivor", survivor as u64);
            field_u(&mut s, "old_head", old_head as u64);
        }
        TraceEvent::SlotStats {
            slot,
            fragments,
            phase_spread,
            discovered_links,
            ground_truth_links,
        } => {
            field_u(&mut s, "slot", slot);
            field_u(&mut s, "fragments", fragments as u64);
            field_f(&mut s, "phase_spread", phase_spread);
            field_u(&mut s, "discovered_links", discovered_links);
            field_u(&mut s, "ground_truth_links", ground_truth_links);
        }
        TraceEvent::FaultInjected {
            slot,
            device,
            sender,
            kind,
        } => {
            field_u(&mut s, "slot", slot);
            field_u(&mut s, "device", device as u64);
            field_u(&mut s, "sender", sender as u64);
            field_s(&mut s, "kind", kind.name());
        }
        TraceEvent::DeviceJoined { slot, device } => {
            field_u(&mut s, "slot", slot);
            field_u(&mut s, "device", device as u64);
        }
        TraceEvent::DeviceLeft {
            slot,
            device,
            orphaned,
        } => {
            field_u(&mut s, "slot", slot);
            field_u(&mut s, "device", device as u64);
            field_u(&mut s, "orphaned", orphaned as u64);
        }
        TraceEvent::Converged { slot } => {
            field_u(&mut s, "slot", slot);
        }
        TraceEvent::RunEnd { slot, converged } => {
            field_u(&mut s, "slot", slot);
            field_b(&mut s, "converged", converged);
        }
    }
    s.push('}');
    s
}

/// Parse one JSONL line back into a [`TraceEvent`]. Returns `None` on
/// malformed input or an unknown event tag — callers decide whether to
/// skip or abort.
pub fn parse_event(line: &str) -> Option<TraceEvent> {
    let doc = Value::parse(line).ok()?;
    // Typed field getters: `None` when a field is missing or mistyped.
    let field = |k: &str| doc.get(k);
    let str = |k: &str| field(k)?.as_str();
    let u64 = |k: &str| field(k)?.as_u64();
    let u32 = |k: &str| u32::try_from(u64(k)?).ok();
    let f64 = |k: &str| field(k)?.as_f64();
    let bool = |k: &str| field(k)?.as_bool();
    let ev = match str("t")? {
        "phase_enter" => TraceEvent::PhaseEnter {
            slot: u64("slot")?,
            phase: ProtoPhase::from_name(str("phase")?)?,
        },
        "round_start" => TraceEvent::RoundStart {
            slot: u64("slot")?,
            round: u32("round")?,
            budget: u64("budget")?,
            fragments: u32("fragments")?,
        },
        "tx" => TraceEvent::Tx {
            slot: u64("slot")?,
            sender: u32("sender")?,
            codec: Codec::from_name(str("codec")?)?,
            kind: FrameLabel::from_name(str("kind")?)?,
        },
        "unicast" => TraceEvent::Unicast {
            slot: u64("slot")?,
            sender: u32("sender")?,
            receiver: u32("receiver")?,
        },
        "rx_decode" => TraceEvent::RxDecode {
            slot: u64("slot")?,
            receiver: u32("receiver")?,
            sender: u32("sender")?,
            codec: Codec::from_name(str("codec")?)?,
            rx_dbm: f64("rx_dbm")?,
        },
        "rx_collision" => TraceEvent::RxCollision {
            slot: u64("slot")?,
            receiver: u32("receiver")?,
            codec: Codec::from_name(str("codec")?)?,
            signals: u32("signals")?,
        },
        "rx_below_threshold" => TraceEvent::RxBelowThreshold {
            slot: u64("slot")?,
            count: u64("count")?,
        },
        "phase_adjust" => TraceEvent::PhaseAdjust {
            slot: u64("slot")?,
            device: u32("device")?,
            sender: u32("sender")?,
            before: f64("before")?,
            after: f64("after")?,
            absorbed: bool("absorbed")?,
        },
        "merge_request" => TraceEvent::MergeRequest {
            slot: u64("slot")?,
            round: u32("round")?,
            requester: u32("requester")?,
            target: u32("target")?,
            req_fragment: u32("req_fragment")?,
        },
        "merge_accept" => TraceEvent::MergeAccept {
            slot: u64("slot")?,
            round: u32("round")?,
            device: u32("device")?,
            peer: u32("peer")?,
        },
        "merge_reject" => TraceEvent::MergeReject {
            slot: u64("slot")?,
            round: u32("round")?,
            device: u32("device")?,
            requester: u32("requester")?,
            reason: RejectReason::from_name(str("reason")?)?,
        },
        "fragment_commit" => TraceEvent::FragmentCommit {
            slot: u64("slot")?,
            round: u32("round")?,
            device: u32("device")?,
            peer: u32("peer")?,
            survivor: u32("survivor")?,
            old_head: u32("old_head")?,
        },
        "slot_stats" => TraceEvent::SlotStats {
            slot: u64("slot")?,
            fragments: u32("fragments")?,
            phase_spread: f64("phase_spread")?,
            discovered_links: u64("discovered_links")?,
            ground_truth_links: u64("ground_truth_links")?,
        },
        "fault_injected" => TraceEvent::FaultInjected {
            slot: u64("slot")?,
            device: u32("device")?,
            sender: u32("sender")?,
            kind: FaultKind::from_name(str("kind")?)?,
        },
        "device_joined" => TraceEvent::DeviceJoined {
            slot: u64("slot")?,
            device: u32("device")?,
        },
        "device_left" => TraceEvent::DeviceLeft {
            slot: u64("slot")?,
            device: u32("device")?,
            orphaned: u32("orphaned")?,
        },
        "converged" => TraceEvent::Converged { slot: u64("slot")? },
        "run_end" => TraceEvent::RunEnd {
            slot: u64("slot")?,
            converged: bool("converged")?,
        },
        _ => return None,
    };
    Some(ev)
}

/// A sink writing one JSON line per event through any `Write`.
///
/// Wrap files in a `BufWriter` — the sink writes line by line. Errors
/// are sticky and silent during the run (a sink must not perturb the
/// protocol); check [`JsonlSink::io_error`] after [`TraceSink::finish`].
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    error: Option<std::io::Error>,
    events: u64,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing to `out`.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink {
            out,
            error: None,
            events: 0,
        }
    }

    /// Events written so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The first I/O error hit, if any (writes stop after it).
    pub fn io_error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    /// Unwrap the writer (flushing first).
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn event(&mut self, ev: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let line = encode_event(ev);
        if let Err(e) = self
            .out
            .write_all(line.as_bytes())
            .and_then(|_| self.out.write_all(b"\n"))
        {
            self.error = Some(e);
            return;
        }
        self.events += 1;
    }

    fn finish(&mut self) {
        if let Err(e) = self.out.flush() {
            self.error.get_or_insert(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::PhaseEnter {
                slot: 0,
                phase: ProtoPhase::Discovery,
            },
            TraceEvent::RoundStart {
                slot: 300,
                round: 1,
                budget: 180,
                fragments: 50,
            },
            TraceEvent::Tx {
                slot: 301,
                sender: 3,
                codec: Codec::Rach2,
                kind: FrameLabel::HConnect,
            },
            TraceEvent::Unicast {
                slot: 301,
                sender: 9,
                receiver: 0,
            },
            TraceEvent::RxDecode {
                slot: 301,
                receiver: 9,
                sender: 3,
                codec: Codec::Rach2,
                rx_dbm: -87.52309,
            },
            TraceEvent::RxCollision {
                slot: 302,
                receiver: 4,
                codec: Codec::Rach1,
                signals: 3,
            },
            TraceEvent::RxBelowThreshold {
                slot: 302,
                count: 91,
            },
            TraceEvent::PhaseAdjust {
                slot: 303,
                device: 4,
                sender: 8,
                before: 0.25,
                after: 0.75,
                absorbed: false,
            },
            TraceEvent::MergeRequest {
                slot: 304,
                round: 1,
                requester: 3,
                target: 9,
                req_fragment: 2,
            },
            TraceEvent::MergeAccept {
                slot: 305,
                round: 1,
                device: 9,
                peer: 3,
            },
            TraceEvent::MergeReject {
                slot: 306,
                round: 1,
                device: 0,
                requester: 3,
                reason: RejectReason::GrantDenied,
            },
            TraceEvent::FragmentCommit {
                slot: 307,
                round: 1,
                device: 3,
                peer: 9,
                survivor: 0,
                old_head: 2,
            },
            TraceEvent::SlotStats {
                slot: 308,
                fragments: 12,
                phase_spread: 0.4406,
                discovered_links: 130,
                ground_truth_links: 244,
            },
            TraceEvent::FaultInjected {
                slot: 400,
                device: 6,
                sender: 2,
                kind: FaultKind::FrameDup,
            },
            TraceEvent::DeviceJoined {
                slot: 450,
                device: 5,
            },
            TraceEvent::DeviceLeft {
                slot: 460,
                device: 6,
                orphaned: 2,
            },
            TraceEvent::Converged { slot: 5000 },
            TraceEvent::RunEnd {
                slot: 5000,
                converged: true,
            },
        ]
    }

    #[test]
    fn encode_parse_round_trips_every_kind() {
        for ev in all_events() {
            let line = encode_event(&ev);
            let back = parse_event(&line);
            assert_eq!(back, Some(ev), "line: {line}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{",
            "{}",
            "not json",
            "{\"t\":\"unknown_kind\",\"slot\":1}",
            "{\"t\":\"converged\"}",                          // missing slot
            "{\"t\":\"converged\",\"slot\":-3}",              // negative slot
            "{\"t\":\"converged\",\"slot\":1} tail",          // trailing garbage
            "{\"t\":\"run_end\",\"slot\":1,\"converged\":2}", // wrong type
        ] {
            assert_eq!(parse_event(bad), None, "input: {bad:?}");
        }
    }

    #[test]
    fn float_round_trip_is_exact() {
        let probe = [-95.000001, 1.0 / 3.0, 0.1 + 0.2, f64::MIN_POSITIVE];
        for &x in &probe {
            let ev = TraceEvent::RxDecode {
                slot: 1,
                receiver: 0,
                sender: 1,
                codec: Codec::Rach1,
                rx_dbm: x,
            };
            match parse_event(&encode_event(&ev)) {
                Some(TraceEvent::RxDecode { rx_dbm, .. }) => {
                    assert_eq!(rx_dbm.to_bits(), x.to_bits())
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        for ev in all_events() {
            sink.event(&ev);
        }
        sink.finish();
        assert!(sink.io_error().is_none());
        assert_eq!(sink.events(), all_events().len() as u64);
        let buf = sink.into_inner();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), all_events().len());
        for (line, ev) in lines.iter().zip(all_events()) {
            assert_eq!(parse_event(line), Some(ev));
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        for ev in all_events() {
            assert_eq!(encode_event(&ev), encode_event(&ev));
        }
    }

    proptest::proptest! {
        #[test]
        fn mutated_lines_never_panic(
            pick in 0usize..64,
            at in 0usize..256,
            byte in proptest::strategy::any::<u8>(),
        ) {
            let events = all_events();
            let mut line = encode_event(&events[pick % events.len()]).into_bytes();
            let at = at % line.len();
            line[at] = byte;
            let _ = parse_event(&String::from_utf8_lossy(&line));
        }
    }
}
