//! Metric definitions and the per-layer numbers of a traced replay.

use std::collections::BTreeMap;

use crate::spans::{ENGINE_INIT, TRIAL, WORLD_NEW};
use crate::workload::Replay;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which it may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, measured with tracing off.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// Every per-layer metric with its unit, from the traced replays. Units
/// of `count` are exact work counters: a seed always reproduces them.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("setup.world_new_s", "s"),
    ("setup.world_new_share", "share"),
    ("setup.engine_init_s", "s"),
    ("setup.engine_init_share", "share"),
    ("engine.self_s", "s"),
    ("engine.self_share", "share"),
    ("engine.wakeups_scheduled", "count"),
    ("engine.wakeups_fired", "count"),
    ("engine.coalesced_wakeups", "count"),
    ("engine.wakeups_stale", "count"),
    ("engine.stale_rate", "ratio"),
    ("engine.slots_materialized", "count"),
    ("engine.slots_skipped", "count"),
    ("engine.cutover_transitions", "count"),
    ("osc.cursor_warps", "count"),
    ("osc.literal_advances", "count"),
    ("osc.cursor_derived", "count"),
    ("osc.cursor_fallback", "count"),
    ("protocol.discovery_self_s", "s"),
    ("protocol.discovery_self_share", "share"),
    ("protocol.merge_self_s", "s"),
    ("protocol.merge_self_share", "share"),
    ("protocol.sync_self_s", "s"),
    ("protocol.sync_self_share", "share"),
    ("protocol.messages", "count"),
    ("protocol.merge_rounds", "count"),
    ("medium.resolve_s", "s"),
    ("medium.resolve_share", "share"),
    ("medium.resolve_self_s", "s"),
    ("medium.resolve_self_share", "share"),
    ("medium.accumulate_s", "s"),
    ("medium.accumulate_share", "share"),
    ("medium.pairs", "count"),
    ("medium.transmissions", "count"),
    ("medium.slots_resolved", "count"),
    ("medium.ns_per_pair", "ns"),
    ("medium.resolve_p50_us", "us"),
    ("medium.resolve_p90_us", "us"),
    ("radio.gain_fill_s", "s"),
    ("radio.gain_fill_share", "share"),
    ("radio.rows_filled", "count"),
    ("radio.rows_hit", "count"),
    ("radio.row_hit_rate", "ratio"),
    ("chaos.churn_events", "count"),
    ("chaos.frames_dropped", "count"),
    ("chaos.frames_duplicated", "count"),
    ("parallel.workers", "threads"),
    ("parallel.efficiency", "ratio"),
    ("sweep.trial_s_p50", "s"),
    ("sweep.trial_s_max", "s"),
    ("telemetry.unattributed_share", "share"),
];

/// Measured after the loop from traced versus untraced medians, so it
/// is not part of one replay's [`layer_metrics`].
pub const OVERHEAD_PCT: (&str, &str) = ("telemetry.overhead_pct", "%");

/// The unit of per-layer metric `name`.
pub(crate) fn layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .chain([&OVERHEAD_PCT])
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// `part / whole`, 0 for an empty whole.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Every [`PER_LAYER`] metric of one traced replay that took
/// `replay_wall_s` seconds end to end.
///
/// Self times: the engine's is its run span minus the slot bodies; a
/// protocol phase's is its slot bodies minus the medium resolves inside
/// them; the medium's is resolve minus shard busy time (cell posting,
/// sort, capture and delivery); accumulation is shard busy minus gain
/// fill (fading draw and mW sums). Shares divide by the summed trial
/// time, so the self-time shares and `telemetry.unattributed_share`
/// add up to 1.
pub fn layer_metrics(r: &Replay, replay_wall_s: f64) -> BTreeMap<&'static str, f64> {
    let b = r.rec.breakdown();
    let c = |k: &str| r.rec.counter(k) as f64;
    let wall = b.total_s(TRIAL);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let timed = |m: &mut BTreeMap<&'static str, f64>, name: &'static str, s: f64| {
        m.insert(name, s);
        let share = PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_suffix("_share") == name.strip_suffix("_s"))
            .expect("every *_s layer metric has a *_share sibling")
            .0;
        m.insert(share, ratio(s, wall));
    };
    timed(&mut m, "setup.world_new_s", b.total_s(WORLD_NEW));
    timed(&mut m, "setup.engine_init_s", b.total_s(ENGINE_INIT));
    timed(&mut m, "engine.self_s", b.own_s("engine.run"));
    for (phase, key) in [
        ("discovery", "protocol.discovery_self_s"),
        ("merge", "protocol.merge_self_s"),
        ("sync", "protocol.sync_self_s"),
    ] {
        timed(&mut m, key, b.own_s(&format!("engine.slot.{phase}")));
    }
    let resolve_s = b.total_s("medium.resolve");
    timed(&mut m, "medium.resolve_s", resolve_s);
    timed(&mut m, "medium.resolve_self_s", b.own_s("medium.resolve"));
    timed(&mut m, "medium.accumulate_s", b.own_s("medium.shard_busy"));
    timed(&mut m, "radio.gain_fill_s", b.total_s("medium.gain_fill"));
    m.insert("telemetry.unattributed_share", ratio(b.own_s(TRIAL), wall));

    for key in [
        "engine.wakeups_scheduled",
        "engine.wakeups_fired",
        "engine.coalesced_wakeups",
        "engine.wakeups_stale",
        "engine.slots_materialized",
        "engine.slots_skipped",
        "engine.cutover_transitions",
        "osc.cursor_warps",
        "osc.literal_advances",
        "osc.cursor_derived",
        "osc.cursor_fallback",
        "medium.transmissions",
        "medium.slots_resolved",
        "chaos.churn_events",
        "chaos.frames_dropped",
        "chaos.frames_duplicated",
    ] {
        m.insert(key, c(key));
    }
    m.insert(
        "engine.stale_rate",
        ratio(c("engine.wakeups_stale"), c("engine.wakeups_scheduled")),
    );
    m.insert("protocol.messages", r.messages as f64);
    m.insert("protocol.merge_rounds", r.merge_rounds as f64);

    let pairs = r.rec.sum("medium.pairs_per_slot") as f64;
    m.insert("medium.pairs", pairs);
    m.insert("medium.ns_per_pair", ratio(resolve_s * 1e9, pairs));
    let mut resolves = r.rec.durations("medium.resolve");
    m.insert("medium.resolve_p50_us", quantile(&mut resolves, 0.5) * 1e-3);
    m.insert("medium.resolve_p90_us", quantile(&mut resolves, 0.9) * 1e-3);

    let (hits, fills) = (c("medium.gain_cache_hits"), c("medium.gain_cache_misses"));
    m.insert("radio.rows_filled", fills);
    m.insert("radio.rows_hit", hits);
    m.insert("radio.row_hit_rate", ratio(hits, hits + fills));

    let mut trials = r.rec.durations(TRIAL);
    m.insert("parallel.workers", r.workers as f64);
    m.insert(
        "parallel.efficiency",
        ratio(wall, r.workers as f64 * replay_wall_s),
    );
    m.insert("sweep.trial_s_p50", quantile(&mut trials, 0.5) * 1e-9);
    m.insert("sweep.trial_s_max", quantile(&mut trials, 1.0) * 1e-9);
    debug_assert_eq!(m.len(), PER_LAYER.len());
    m
}

/// The exact `q`-quantile of `samples` (nearest rank, so every value
/// reported is a measured sample); 0 when empty.
pub(crate) fn quantile(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1] as f64
}

/// Median and quartiles of a sample set, as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Quartiles {
    /// Quartiles of `values` (at least one).
    pub fn of(values: &[f64]) -> Quartiles {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        assert!(n > 0, "quartiles of an empty sample");
        if n == 1 {
            return Quartiles {
                q1: v[0],
                median: v[0],
                q3: v[0],
                n,
            };
        }
        // CPython's exclusive method, integer steps included: cut point
        // i of 4 sits at rank i·(n+1)/4, clamped to [1, n-1], with linear
        // inter- (or, at the clamp, extra-) polation.
        let at = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Quartiles {
            q1: at(1),
            median: at(2),
            q3: at(3),
            n,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        ratio(self.q3 - self.q1, self.median.abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[2.0, 1.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert_eq!(Quartiles::of(&[4.0]).spread(), 0.0);
    }

    #[test]
    fn nearest_rank_quantiles_are_samples() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.9), 90.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn every_timed_metric_has_a_share() {
        for (name, unit) in PER_LAYER {
            if unit == "s" && !name.starts_with("sweep.") {
                let share = format!("{}_share", name.strip_suffix("_s").expect("*_s"));
                assert!(layer_unit(&share) == Some("share"), "{share} missing");
            }
        }
    }
}
