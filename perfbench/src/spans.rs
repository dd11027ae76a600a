//! Spans and self time, rebuilt from outside the program.
//!
//! The engines already report their stage timers through the public
//! [`Recorder`] hooks: every `record_ns` call arrives when its span
//! *stops*, so a span's start is its arrival time minus its duration.
//! [`SpanRecorder`] turns that stream back into a tree. Arrival order is
//! post-order (children stop before their parent), so each arriving span
//! adopts the still-unparented spans that sit deeper in the fixed layer
//! hierarchy:
//!
//! ```text
//! trial ⊃ {setup.world_new, setup.engine_init, engine.run}
//!       engine.run ⊃ engine.slot.<phase> ⊃ medium.resolve
//!                    ⊃ medium.shard_busy ⊃ medium.gain_fill
//! ```
//!
//! `trial`, `setup.world_new` and `setup.engine_init` are spans the
//! harness records around its own calls. The medium reports shard busy
//! time and gain-fill time only once the slot's resolution ends, so those
//! two carry a duration but no position; they are placed at the end of
//! the `medium.resolve` span that arrives next.
//!
//! A span's *self* time is its duration minus its children's durations.
//! Since every span below a trial has exactly one parent, the self times
//! of a trial's spans add up to the trial's duration exactly.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

use ffd2d_telemetry::Recorder;

/// The harness span around one whole trial.
pub const TRIAL: &str = "trial";
/// The harness span around `World::new`.
pub const WORLD_NEW: &str = "setup.world_new";
/// From the engine call until the engine's own run span starts.
pub const ENGINE_INIT: &str = "setup.engine_init";
const RUN: &str = "engine.run";
const RESOLVE: &str = "medium.resolve";
const SHARD_BUSY: &str = "medium.shard_busy";
const GAIN_FILL: &str = "medium.gain_fill";

/// One timed interval in nanoseconds since the recorder's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name (a recorder key without its `_ns` suffix).
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin.
    pub end: u64,
    /// Index of the enclosing span (`None` for a trial).
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Depth of a span name in the layer hierarchy.
fn depth(name: &str) -> u8 {
    match name {
        TRIAL => 0,
        WORLD_NEW | ENGINE_INIT | RUN => 1,
        RESOLVE => 3,
        SHARD_BUSY => 4,
        GAIN_FILL => 5,
        _ => 2, // engine.slot.<phase>
    }
}

/// An enabled [`Recorder`] that keeps every span in memory, plus the
/// engines' counters and the sums of their observations.
#[derive(Debug, Clone)]
pub struct SpanRecorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Spans still waiting for their parent, in arrival order.
    open: Vec<usize>,
    /// `(shard busy ns, gain fill ns)` per shard of the resolution in
    /// progress; placed when its `medium.resolve` span arrives.
    shards: Vec<(u64, u64)>,
    counters: BTreeMap<&'static str, u64>,
    sums: BTreeMap<&'static str, u64>,
}

impl SpanRecorder {
    /// An empty recorder whose clock starts at `origin`. Recorders that
    /// share an origin can be [merged](SpanRecorder::merge) on one time
    /// axis.
    pub fn new(origin: Instant) -> SpanRecorder {
        SpanRecorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            shards: Vec::new(),
            counters: BTreeMap::new(),
            sums: BTreeMap::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The span that arrived last.
    pub(crate) fn last(&self) -> Option<&Span> {
        self.spans.last()
    }

    /// Counter `key` (0 when never incremented).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sum of every value observed under `key`.
    pub fn sum(&self, key: &str) -> u64 {
        self.sums.get(key).copied().unwrap_or(0)
    }

    /// Record a harness span covering `[start, end]`.
    pub fn span(&mut self, name: &'static str, start: u64, end: u64) {
        self.arrive(name, end, end.saturating_sub(start));
    }

    /// A span of `ns` nanoseconds stopped at `end`: it adopts every
    /// unparented span deeper in the hierarchy.
    fn arrive(&mut self, name: &'static str, end: u64, ns: u64) {
        let id = self.spans.len();
        let d = depth(name);
        while let Some(&child) = self.open.last() {
            if depth(self.spans[child].name) <= d {
                break;
            }
            self.open.pop();
            self.spans[child].parent = Some(id);
        }
        let start = end.saturating_sub(ns);
        self.spans.push(Span {
            name,
            start,
            end,
            parent: None,
        });
        self.open.push(id);
        if name == RESOLVE {
            for (busy, fill) in std::mem::take(&mut self.shards) {
                let b = self.spans.len();
                self.spans.push(Span {
                    name: SHARD_BUSY,
                    start: end.saturating_sub(busy).max(start),
                    end,
                    parent: Some(id),
                });
                if fill > 0 {
                    self.spans.push(Span {
                        name: GAIN_FILL,
                        start: end.saturating_sub(fill).max(self.spans[b].start),
                        end,
                        parent: Some(b),
                    });
                }
            }
        }
    }

    /// Append `other`'s spans, counters and sums (it must share this
    /// recorder's origin).
    pub fn merge(&mut self, other: SpanRecorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
        for (k, v) in other.counters {
            let c = self.counters.entry(k).or_insert(0);
            *c = c.saturating_add(v);
        }
        for (k, v) in other.sums {
            let c = self.sums.entry(k).or_insert(0);
            *c = c.saturating_add(v);
        }
    }

    /// Total and self nanoseconds per span name.
    pub(crate) fn breakdown(&self) -> Breakdown {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut b = Breakdown::default();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            *b.total.entry(s.name).or_insert(0) += s.ns();
            *b.own.entry(s.name).or_insert(0) += s.ns().saturating_sub(kids);
        }
        b
    }

    /// Durations of every span named `name`, in arrival order.
    pub(crate) fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Write the spans of the longest trial as JSON lines: `id`, `name`,
    /// `start_ns`, `end_ns` and `parent` (an id or `null`). A trial's
    /// spans are contiguous and end with the trial span itself; one
    /// trial keeps the file small on a many-trial sweep while still
    /// showing the trial that set the pool's tail.
    pub fn write_jsonl<W: Write>(&self, mut out: W) -> io::Result<()> {
        let (mut first, mut longest, mut longest_ns) = (0, 0..0, 0);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == TRIAL {
                if s.ns() >= longest_ns {
                    (longest, longest_ns) = (first..i + 1, s.ns());
                }
                first = i + 1;
            }
        }
        let base = longest.start;
        for (id, s) in self.spans[longest].iter().enumerate() {
            let parent = s
                .parent
                .map_or("null".to_string(), |p| (p - base).to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

impl Recorder for SpanRecorder {
    fn add(&mut self, key: &'static str, delta: u64) {
        let c = self.counters.entry(key).or_insert(0);
        *c = c.saturating_add(delta);
    }

    fn gauge(&mut self, _key: &'static str, _value: f64) {}

    fn observe(&mut self, key: &'static str, value: u64) {
        let c = self.sums.entry(key).or_insert(0);
        *c = c.saturating_add(value);
    }

    fn record_ns(&mut self, key: &'static str, ns: u64) {
        match key {
            "medium.shard_busy_ns" => self.shards.push((ns, 0)),
            "medium.gain_fill_ns" => {
                if let Some(last) = self.shards.last_mut() {
                    last.1 = ns;
                }
            }
            _ => {
                let end = self.now();
                self.arrive(key.strip_suffix("_ns").unwrap_or(key), end, ns);
            }
        }
    }
}

/// Nanoseconds per span name: `total` sums durations, `own` sums self
/// time.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct Breakdown {
    /// Summed durations.
    pub(crate) total: BTreeMap<&'static str, u64>,
    /// Summed self time.
    pub(crate) own: BTreeMap<&'static str, u64>,
}

impl Breakdown {
    /// Summed duration of `name`, in seconds.
    pub(crate) fn total_s(&self, name: &str) -> f64 {
        self.total.get(name).copied().unwrap_or(0) as f64 * 1e-9
    }

    /// Summed self time of `name`, in seconds.
    pub(crate) fn own_s(&self, name: &str) -> f64 {
        self.own.get(name).copied().unwrap_or(0) as f64 * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One trial of one run with two slots, fed in the engines' arrival
    /// order with hand-picked clock values.
    fn synthetic() -> SpanRecorder {
        let mut r = SpanRecorder::new(Instant::now());
        r.span(WORLD_NEW, 0, 100);
        // Slot 1 (discovery): a resolve of 300 ns whose one shard was
        // busy 200 ns, 50 of them filling gain rows.
        r.record_ns_at("medium.shard_busy_ns", 0, 200);
        r.record_ns_at("medium.gain_fill_ns", 0, 50);
        r.record_ns_at("medium.resolve_ns", 700, 300);
        r.record_ns_at("engine.slot.discovery", 800, 500);
        // Slot 2 (merge): no transmissions, so no resolve.
        r.record_ns_at("engine.slot.merge", 1000, 150);
        r.record_ns_at("engine.run_ns", 1100, 850);
        r.span(ENGINE_INIT, 100, 250);
        r.span(TRIAL, 0, 1200);
        r
    }

    impl SpanRecorder {
        fn record_ns_at(&mut self, key: &'static str, end: u64, ns: u64) {
            match key {
                "medium.shard_busy_ns" | "medium.gain_fill_ns" => self.record_ns(key, ns),
                _ => self.arrive(key.strip_suffix("_ns").unwrap_or(key), end, ns),
            }
        }
    }

    #[test]
    fn self_times_are_exact() {
        let b = synthetic().breakdown();
        let own = |k: &str| b.own.get(k).copied().unwrap_or(0);
        assert_eq!(own(WORLD_NEW), 100);
        assert_eq!(own(ENGINE_INIT), 150);
        assert_eq!(own("engine.run"), 850 - 500 - 150);
        assert_eq!(own("engine.slot.discovery"), 500 - 300);
        assert_eq!(own("engine.slot.merge"), 150);
        assert_eq!(own(RESOLVE), 300 - 200);
        assert_eq!(own(SHARD_BUSY), 200 - 50);
        assert_eq!(own(GAIN_FILL), 50);
        assert_eq!(own(TRIAL), 1200 - 100 - 150 - 850);
        assert_eq!(b.total[RESOLVE], 300);
    }

    #[test]
    fn self_time_shares_sum_to_one() {
        let b = synthetic().breakdown();
        let wall = b.total[TRIAL] as f64;
        let sum: f64 = b.own.values().map(|&ns| ns as f64 / wall).sum();
        assert!((sum - 1.0).abs() < 1e-12, "shares sum to {sum}");
    }

    #[test]
    fn parents_follow_the_hierarchy() {
        let r = synthetic();
        let name_of = |i: Option<usize>| i.map(|i| r.spans[i].name);
        for s in &r.spans {
            let want = match s.name {
                TRIAL => None,
                WORLD_NEW | ENGINE_INIT | RUN => Some(TRIAL),
                RESOLVE => Some("engine.slot.discovery"),
                SHARD_BUSY => Some(RESOLVE),
                GAIN_FILL => Some(SHARD_BUSY),
                _ => Some(RUN),
            };
            assert_eq!(name_of(s.parent), want, "parent of {}", s.name);
            if let Some(p) = s.parent {
                let p = r.spans[p];
                assert!(
                    p.start <= s.start && s.end <= p.end,
                    "{} escapes {}",
                    s.name,
                    p.name
                );
            }
        }
    }

    #[test]
    fn merged_recorders_keep_their_trees() {
        let mut a = synthetic();
        a.add("engine.wakeups_fired", 3);
        let mut b = synthetic();
        b.add("engine.wakeups_fired", 4);
        b.observe("medium.pairs_per_slot", 9);
        a.merge(b);
        assert_eq!(a.counter("engine.wakeups_fired"), 7);
        assert_eq!(a.sum("medium.pairs_per_slot"), 9);
        assert_eq!(a.breakdown().total[TRIAL], 2400);
        let roots = a.spans.iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, 2);
    }

    #[test]
    fn jsonl_holds_the_longest_trial() {
        let mut r = synthetic();
        let mut long = SpanRecorder::new(r.origin);
        long.span(WORLD_NEW, 5000, 5100);
        long.span(TRIAL, 5000, 9000);
        r.merge(long);
        r.merge(synthetic());
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf).expect("in-memory write");
        let text = String::from_utf8(buf).expect("utf-8");
        let lines: Vec<_> = text
            .lines()
            .map(|l| ffd2d_telemetry::json::Value::parse(l).expect("each line is a JSON object"))
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent").and_then(|p| p.as_u64()), Some(1));
        assert_eq!(
            lines[1].get("start_ns").and_then(|p| p.as_u64()),
            Some(5000)
        );
    }
}
