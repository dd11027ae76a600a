//! The sink trait and the structural sinks.
//!
//! Engines are generic over `S: TraceSink` and consult the associated
//! constant [`TraceSink::ENABLED`] before *constructing* an event:
//!
//! ```ignore
//! if S::ENABLED {
//!     sink.event(&TraceEvent::Converged { slot });
//! }
//! ```
//!
//! With [`NullSink`] the branch is a compile-time `if false` — the
//! event construction, any state gathered for it (fragment counts,
//! phase spreads), and the call itself all vanish under monomorphization.
//! That is the crate's zero-cost-off contract: the plain engine entry
//! points are the `NullSink` instantiation.

use std::collections::BTreeMap;

use crate::event::TraceEvent;

/// A consumer of protocol events.
///
/// Sinks observe and never perturb: implementations must not influence
/// the caller (no panics on well-formed events, no feedback channel),
/// so a traced run's outcome is bit-identical to an untraced one.
pub trait TraceSink {
    /// Whether this sink consumes events at all. `false` lets
    /// monomorphized emission sites compile out event construction
    /// entirely; everything real keeps the default `true`.
    const ENABLED: bool = true;

    /// Consume one event.
    fn event(&mut self, ev: &TraceEvent);

    /// Flush any buffered output (end of run).
    fn finish(&mut self) {}
}

/// Forwarding impl so engines can hold `&mut S` and still be handed
/// further down (e.g. into a medium resolver) without moving the sink.
impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    const ENABLED: bool = S::ENABLED;

    #[inline(always)]
    fn event(&mut self, ev: &TraceEvent) {
        (**self).event(ev)
    }

    fn finish(&mut self) {
        (**self).finish()
    }
}

/// The off switch: ignores everything and advertises itself as
/// disabled, so traced code paths monomorphize to the untraced ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _ev: &TraceEvent) {}
}

/// Tallies events per kind — the cheapest enabled sink, used by tests,
/// smoke checks, and the overhead bench's "tracing on" arm.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Event tallies keyed by [`TraceEvent::tag`] (BTreeMap for
    /// deterministic iteration order in reports).
    pub counts: BTreeMap<&'static str, u64>,
}

impl CountingSink {
    /// An empty tally.
    pub fn new() -> CountingSink {
        CountingSink::default()
    }

    /// Events seen for `tag` (0 when never seen).
    pub fn count(&self, tag: &str) -> u64 {
        self.counts.get(tag).copied().unwrap_or(0)
    }

    /// Total events seen.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }
}

impl TraceSink for CountingSink {
    #[inline]
    fn event(&mut self, ev: &TraceEvent) {
        *self.counts.entry(ev.tag()).or_insert(0) += 1;
    }
}

/// Buffers events in memory, in arrival order.
///
/// The intra-run parallel medium hands one `BufferSink` to each shard:
/// workers record their receivers' events privately, then the caller
/// [`BufferSink::flush_into`]s the buffers in shard order — which is
/// receiver order, because shards are contiguous receiver ranges — so
/// the merged stream is byte-identical to the sequential resolver's.
/// Events are plain `Copy` data (see [`TraceEvent`]), so buffering
/// never borrows from the run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BufferSink {
    /// Buffered events, in the order they were emitted.
    pub events: Vec<TraceEvent>,
}

impl BufferSink {
    /// An empty buffer.
    pub fn new() -> BufferSink {
        BufferSink::default()
    }

    /// Replay every buffered event into `sink`, in order, and clear the
    /// buffer (the allocation is kept for reuse).
    pub fn flush_into<S: TraceSink>(&mut self, sink: &mut S) {
        for ev in self.events.drain(..) {
            sink.event(&ev);
        }
    }
}

impl TraceSink for BufferSink {
    #[inline]
    fn event(&mut self, ev: &TraceEvent) {
        self.events.push(*ev);
    }
}

/// Fans one event stream into two sinks (compose for more). Disabled
/// only if both branches are, so `Tee<Null, Null>` still costs nothing.
#[derive(Debug, Default)]
pub struct TeeSink<A, B>(pub A, pub B);

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn event(&mut self, ev: &TraceEvent) {
        if A::ENABLED {
            self.0.event(ev);
        }
        if B::ENABLED {
            self.1.event(ev);
        }
    }

    fn finish(&mut self) {
        self.0.finish();
        self.1.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        const {
            assert!(!NullSink::ENABLED);
            assert!(!<TeeSink<NullSink, NullSink>>::ENABLED);
            assert!(<TeeSink<NullSink, CountingSink>>::ENABLED);
            assert!(!<&mut NullSink as TraceSink>::ENABLED);
        }
    }

    #[test]
    fn counting_sink_tallies_by_tag() {
        let mut s = CountingSink::new();
        s.event(&TraceEvent::Converged { slot: 1 });
        s.event(&TraceEvent::Converged { slot: 2 });
        s.event(&TraceEvent::RunEnd {
            slot: 2,
            converged: true,
        });
        assert_eq!(s.count("converged"), 2);
        assert_eq!(s.count("run_end"), 1);
        assert_eq!(s.count("tx"), 0);
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn buffer_sink_replays_in_order_and_clears() {
        let mut buf = BufferSink::new();
        buf.event(&TraceEvent::Converged { slot: 1 });
        buf.event(&TraceEvent::Converged { slot: 2 });
        buf.event(&TraceEvent::RunEnd {
            slot: 2,
            converged: true,
        });
        assert_eq!(buf.events.len(), 3);
        let mut out = CountingSink::new();
        buf.flush_into(&mut out);
        assert_eq!(out.count("converged"), 2);
        assert_eq!(out.count("run_end"), 1);
        assert!(buf.events.is_empty(), "flush clears the buffer");
        const {
            assert!(BufferSink::ENABLED);
        }
    }

    #[test]
    fn tee_feeds_both_branches() {
        let mut tee = TeeSink(CountingSink::new(), CountingSink::new());
        tee.event(&TraceEvent::Converged { slot: 9 });
        tee.finish();
        assert_eq!(tee.0.count("converged"), 1);
        assert_eq!(tee.1.count("converged"), 1);
    }

    #[test]
    fn mut_ref_forwards() {
        let mut s = CountingSink::new();
        {
            let r = &mut s;
            let mut rr: &mut CountingSink = r;
            TraceSink::event(&mut rr, &TraceEvent::Converged { slot: 3 });
        }
        assert_eq!(s.count("converged"), 1);
    }
}
