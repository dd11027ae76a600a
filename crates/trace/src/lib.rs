//! # ffd2d-trace — slot-level protocol tracing with zero-cost-off sinks
//!
//! The paper's evidence is aggregate (Fig. 3 convergence times, Fig. 4
//! message counts); when a trial censors at the horizon the aggregates
//! cannot say *why*. This crate is the instrumentation layer underneath
//! every engine in the workspace: protocol engines and the fast
//! shared-medium resolver emit typed [`TraceEvent`]s into a
//! [`TraceSink`] chosen by the caller.
//!
//! The design constraint is that tracing must cost **nothing when off**:
//! engines are monomorphized over the sink type, and [`NullSink`]
//! advertises [`TraceSink::ENABLED`]` = false`, so every emission site —
//! including the event construction itself — compiles down to dead code
//! the optimizer removes. The plain `run` entry points are exactly that
//! disabled instantiation, so the perf harness (`perfbench/`) times the
//! tracing-off path itself, and the integration suite pins that a
//! traced run's `RunOutcome`-equivalent observables are bit-identical
//! to the untraced path (sinks observe, they never perturb: no RNG
//! draws, no protocol state).
//!
//! Provided sinks:
//!
//! * [`NullSink`] — compiles to nothing (the default everywhere).
//! * [`CountingSink`] — per-kind event tallies, for tests and smoke
//!   checks.
//! * [`TimelineSink`] — per-slot aggregation (fragment count, sync
//!   error, discovery completeness, collision rate) with CSV export,
//!   the raw material of convergence-dynamics plots.
//! * [`JsonlSink`] — replayable event log, one JSON object per line,
//!   written through any `std::io::Write`. Same seed + same scenario ⇒
//!   byte-identical log. [`jsonl::parse_event`] reads it back.
//! * [`TeeSink`] — fan one event stream into two sinks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod jsonl;
pub mod sink;
pub mod timeline;

pub use event::{Codec, FaultKind, FrameLabel, ProtoPhase, RejectReason, TraceEvent};
pub use jsonl::{encode_event, parse_event, JsonlSink};
pub use sink::{BufferSink, CountingSink, NullSink, TeeSink, TraceSink};
pub use timeline::{TimelineRow, TimelineSink};
