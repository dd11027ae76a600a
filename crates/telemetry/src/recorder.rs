//! The zero-cost-off recorder trait.
//!
//! Mirrors `ffd2d-trace`'s `TraceSink` design: engines are generic over
//! `R: Recorder`, and [`NullRecorder`] sets [`Recorder::ENABLED`] to
//! `false` so every instrumentation site monomorphizes to nothing. The
//! timing helpers ([`Recorder::start`] / [`Recorder::stop`]) fold the
//! enabled check into the clock read itself: with a disabled recorder
//! `start()` is a constant `None` and `Instant::now()` is never
//! reached, which is what makes the "telemetry off costs nothing"
//! claim hold at the machine-code level: the plain engine entry points
//! *are* the `NullRecorder` instantiation. The perf harness
//! (`perfbench/`) reports what an enabled recorder costs on top as
//! `telemetry.overhead_pct`.

use std::time::Instant;

/// Consumer of simulator performance measurements.
///
/// All keys are `&'static str` so recording is allocation-free on the
/// hot path; the registry only interns references.
pub trait Recorder {
    /// Compile-time enablement flag. Instrumentation sites guard any
    /// non-trivial work (clock reads, histogram math) behind
    /// `R::ENABLED` so a disabled recorder compiles out entirely.
    const ENABLED: bool = true;

    /// Increment the monotonic counter `key` by `delta` (saturating).
    fn add(&mut self, key: &'static str, delta: u64);

    /// Set the gauge `key` to `value` (last write wins).
    fn gauge(&mut self, key: &'static str, value: f64);

    /// Record one dimensionless magnitude (queue depth, pair count…)
    /// into the log-bucketed histogram `key`.
    fn observe(&mut self, key: &'static str, value: u64);

    /// Record one wall-clock duration in nanoseconds into the
    /// log-bucketed timer histogram `key`.
    fn record_ns(&mut self, key: &'static str, ns: u64);

    /// Begin a scoped timing. Returns `None` — without touching the
    /// clock — when the recorder is disabled.
    #[inline(always)]
    fn start(&self) -> Option<Instant> {
        if Self::ENABLED {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// End a scoped timing started by [`Recorder::start`], feeding the
    /// elapsed nanoseconds into the timer histogram `key`.
    #[inline(always)]
    fn stop(&mut self, key: &'static str, started: Option<Instant>) {
        if let Some(t0) = started {
            let ns = t0.elapsed().as_nanos();
            self.record_ns(key, u64::try_from(ns).unwrap_or(u64::MAX));
        }
    }
}

/// The recorder that records nothing — the default everywhere.
///
/// `ENABLED = false` turns every instrumentation site into dead code;
/// an engine monomorphized over `NullRecorder` is byte-for-byte the
/// uninstrumented engine.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn add(&mut self, _key: &'static str, _delta: u64) {}

    #[inline(always)]
    fn gauge(&mut self, _key: &'static str, _value: f64) {}

    #[inline(always)]
    fn observe(&mut self, _key: &'static str, _value: u64) {}

    #[inline(always)]
    fn record_ns(&mut self, _key: &'static str, _ns: u64) {}
}

/// Forward through mutable references so engines can hand out `&mut R`
/// internally without re-threading generics.
impl<R: Recorder + ?Sized> Recorder for &mut R {
    const ENABLED: bool = R::ENABLED;

    #[inline(always)]
    fn add(&mut self, key: &'static str, delta: u64) {
        (**self).add(key, delta);
    }

    #[inline(always)]
    fn gauge(&mut self, key: &'static str, value: f64) {
        (**self).gauge(key, value);
    }

    #[inline(always)]
    fn observe(&mut self, key: &'static str, value: u64) {
        (**self).observe(key, value);
    }

    #[inline(always)]
    fn record_ns(&mut self, key: &'static str, ns: u64) {
        (**self).record_ns(key, ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled_at_compile_time() {
        const { assert!(!NullRecorder::ENABLED) };
        // And its scoped-timing helper never touches the clock.
        let rec = NullRecorder;
        assert!(rec.start().is_none());
    }

    #[test]
    fn forwarding_preserves_the_enabled_flag() {
        const { assert!(!<&mut NullRecorder as Recorder>::ENABLED) };
        const { assert!(<&mut crate::Telemetry as Recorder>::ENABLED) };
    }

    #[test]
    fn stop_without_start_is_a_no_op() {
        let mut t = crate::Telemetry::new();
        t.stop("x", None);
        assert!(t.timers().next().is_none());
    }
}
