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
    use crate::TimelineSink;

    fn stats(slot: u64) -> TraceEvent {
        TraceEvent::SlotStats {
            slot,
            fragments: 1,
            phase_spread: 0.0,
            discovered_links: 0,
            ground_truth_links: 0,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        const {
            assert!(!NullSink::ENABLED);
            assert!(!<TeeSink<NullSink, NullSink>>::ENABLED);
            assert!(<TeeSink<NullSink, TimelineSink>>::ENABLED);
            assert!(!<&mut NullSink as TraceSink>::ENABLED);
        }
    }

    #[test]
    fn tee_feeds_both_branches() {
        let mut tee = TeeSink(TimelineSink::new(), TimelineSink::new());
        tee.event(&stats(9));
        tee.finish();
        assert_eq!(tee.0.rows()[0].slot, 9);
        assert_eq!(tee.1.rows()[0].slot, 9);
    }

    #[test]
    fn mut_ref_forwards() {
        let mut s = TimelineSink::new();
        {
            let mut r = &mut s;
            TraceSink::event(&mut r, &stats(3));
        }
        assert_eq!(s.rows()[0].slot, 3);
    }
}
