//! The in-memory metrics registry.

use std::collections::BTreeMap;

use crate::histogram::LogHistogram;
use crate::recorder::Recorder;

/// An enabled [`Recorder`]: counters, gauges, timer histograms and
/// value observations, keyed by `&'static str`.
///
/// `BTreeMap` keeps iteration (and therefore every exported artifact)
/// in deterministic key order. Counter arithmetic saturates — the same
/// policy as `ffd2d_sim::counters::Counters` — so fleet-level merges
/// across shards or sweep cells clamp at `u64::MAX` instead of
/// wrapping.
#[derive(Debug, Default, Clone)]
pub struct Telemetry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    timers: BTreeMap<&'static str, LogHistogram>,
    observations: BTreeMap<&'static str, LogHistogram>,
}

impl Telemetry {
    /// An empty registry.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Current value of counter `key` (0 when never incremented).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Timer histogram `key`, if any duration was recorded.
    pub fn timer(&self, key: &str) -> Option<&LogHistogram> {
        self.timers.get(key)
    }

    /// Observation histogram `key`, if any value was recorded.
    pub fn observation(&self, key: &str) -> Option<&LogHistogram> {
        self.observations.get(key)
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    /// All timer histograms in key order.
    pub fn timers(&self) -> impl Iterator<Item = (&'static str, &LogHistogram)> + '_ {
        self.timers.iter().map(|(&k, v)| (k, v))
    }

    /// All observation histograms in key order.
    pub fn observations(&self) -> impl Iterator<Item = (&'static str, &LogHistogram)> + '_ {
        self.observations.iter().map(|(&k, v)| (k, v))
    }

    /// Nothing recorded yet?
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.timers.is_empty()
            && self.observations.is_empty()
    }

    /// Fold another registry into this one: counters and histograms
    /// merge saturating; gauges take the other side's value (last
    /// write wins, matching [`Recorder::gauge`] semantics).
    pub fn merge(&mut self, other: &Telemetry) {
        for (&k, &v) in &other.counters {
            let slot = self.counters.entry(k).or_insert(0);
            *slot = slot.saturating_add(v);
        }
        for (&k, &v) in &other.gauges {
            self.gauges.insert(k, v);
        }
        for (&k, h) in &other.timers {
            self.timers.entry(k).or_default().merge(h);
        }
        for (&k, h) in &other.observations {
            self.observations.entry(k).or_default().merge(h);
        }
    }
}

impl Recorder for Telemetry {
    #[inline]
    fn add(&mut self, key: &'static str, delta: u64) {
        let slot = self.counters.entry(key).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    #[inline]
    fn gauge(&mut self, key: &'static str, value: f64) {
        self.gauges.insert(key, value);
    }

    #[inline]
    fn observe(&mut self, key: &'static str, value: u64) {
        self.observations.entry(key).or_default().record(value);
    }

    #[inline]
    fn record_ns(&mut self, key: &'static str, ns: u64) {
        self.timers.entry(key).or_default().record(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let mut t = Telemetry::new();
        t.add("a", 2);
        t.add("a", 3);
        t.add("b", u64::MAX);
        t.add("b", 7);
        assert_eq!(t.counter("a"), 5);
        assert_eq!(t.counter("b"), u64::MAX, "saturates, never wraps");
        assert_eq!(t.counter("missing"), 0);
    }

    #[test]
    fn gauges_take_the_last_write() {
        let mut t = Telemetry::new();
        t.gauge("load", 0.25);
        t.gauge("load", 0.75);
        assert_eq!(t.gauges().collect::<Vec<_>>(), [("load", 0.75)]);
    }

    #[test]
    fn timers_and_observations_are_separate_namespaces() {
        let mut t = Telemetry::new();
        t.record_ns("x", 100);
        t.observe("x", 9);
        assert_eq!(t.timer("x").unwrap().count(), 1);
        assert_eq!(t.observation("x").unwrap().sum(), 9);
    }

    #[test]
    fn merge_matches_interleaved_recording() {
        let mut whole = Telemetry::new();
        let mut a = Telemetry::new();
        let mut b = Telemetry::new();
        for i in 0..100u64 {
            let shard = if i % 2 == 0 { &mut a } else { &mut b };
            shard.add("n", i);
            shard.record_ns("t", i * 31);
            shard.observe("o", i / 3);
            whole.add("n", i);
            whole.record_ns("t", i * 31);
            whole.observe("o", i / 3);
        }
        a.merge(&b);
        assert_eq!(a.counter("n"), whole.counter("n"));
        assert_eq!(
            a.timer("t").unwrap().buckets(),
            whole.timer("t").unwrap().buckets()
        );
        assert_eq!(
            a.observation("o").unwrap().sum(),
            whole.observation("o").unwrap().sum()
        );
    }

    #[test]
    fn merge_saturates_counters_across_shards() {
        let mut a = Telemetry::new();
        let mut b = Telemetry::new();
        a.add("big", u64::MAX - 1);
        b.add("big", 17);
        a.merge(&b);
        assert_eq!(a.counter("big"), u64::MAX);
    }
}
