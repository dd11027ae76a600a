//! # ffd2d-telemetry — self-profiling for the simulator itself
//!
//! `ffd2d-trace` answers *what the protocol did* (fires, decodes,
//! merges); this crate answers *where the simulator's wall clock went*
//! (slot loop, medium resolution, gain-cache fills, calendar-queue churn).
//! The two layers are deliberately parallel in design and disjoint in
//! content:
//!
//! ```text
//!                    ┌──────────────────────────────┐
//!   protocol events  │  ffd2d-trace   (TraceSink)   │  → JSONL, timelines
//!                    ├──────────────────────────────┤
//!   simulator perf   │  ffd2d-telemetry (Recorder)  │  → JSON manifests
//!                    └──────────────────────────────┘
//! ```
//!
//! The design constraint is inherited from the trace layer: telemetry
//! must cost **nothing when off** and must be **outcome-neutral when
//! on**. Engines are monomorphized over the [`Recorder`] type;
//! [`NullRecorder`] advertises [`Recorder::ENABLED`]` = false`, so every
//! instrumentation site — including the `Instant::now()` reads — is
//! dead code the optimizer removes. An enabled recorder only ever
//! *observes*: it draws no randomness, touches no protocol state, and
//! writes nothing into `RunOutcome`s or trace JSONL, so enabling it is
//! provably bit-neutral (locked by `tests/telemetry.rs` in the
//! workspace root).
//!
//! Building blocks:
//!
//! * [`Recorder`] / [`NullRecorder`] — the zero-cost-off trait pair
//!   (the analogue of `TraceSink` / `NullSink`).
//! * [`LogHistogram`] — power-of-two-bucketed `u64` histogram for
//!   nanosecond timings and per-slot magnitudes; saturating, mergeable
//!   across trials.
//! * [`Telemetry`] — the in-memory registry: monotonic counters,
//!   gauges, timer histograms and value observations keyed by
//!   `&'static str`.
//! * [`RunManifest`] — one run's exportable record (config echo, wall
//!   clock, the registry) with a JSON writer and a parser for
//!   `perf_inspect`-style consumers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod json;
pub mod manifest;
pub mod recorder;
pub mod registry;

pub use histogram::LogHistogram;
pub use manifest::{HistogramSummary, ManifestSummary, RunManifest};
pub use recorder::{NullRecorder, Recorder};
pub use registry::Telemetry;
