//! Run manifests: the per-run exportable record.
//!
//! A [`RunManifest`] bundles what a performance reader needs to trust a
//! number: the configuration that produced the run (echoed as ordered
//! key/value strings — protocol, population, seed, engine, workers,
//! faults), the total wall clock, and the full [`Telemetry`] registry.
//! It is emitted as JSON ([`RunManifest::to_json`]), the
//! machine-readable record `perf_inspect` consumes;
//! [`ManifestSummary::parse`] reads it back without needing the
//! original histograms.
//!
//! Quantiles are materialized at export time (p50/p95/p99 plus
//! min/max), so the JSON stays small and the reader never re-derives
//! bucket math.

use crate::histogram::LogHistogram;
use crate::json::{escape, Value};
use crate::registry::Telemetry;

/// One run's exportable telemetry record.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Short run identifier (e.g. `st_n200`), echoed into the JSON.
    pub label: String,
    /// Ordered configuration echo (key, rendered value).
    pub config: Vec<(String, String)>,
    /// Total wall clock of the run in nanoseconds.
    pub wall_clock_ns: u64,
    /// The recorded registry.
    pub telemetry: Telemetry,
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn histogram_json(h: &LogHistogram) -> String {
    format!(
        "{{\"count\": {}, \"total\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
        h.count(),
        h.sum(),
        h.min().unwrap_or(0),
        h.max().unwrap_or(0),
        h.quantile(0.5).unwrap_or(0),
        h.quantile(0.95).unwrap_or(0),
        h.quantile(0.99).unwrap_or(0),
    )
}

impl RunManifest {
    /// Serialize to the manifest JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str("  \"schema\": \"ffd2d-telemetry/1\",\n");
        out.push_str(&format!("  \"label\": \"{}\",\n", escape(&self.label)));
        out.push_str("  \"config\": {");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": \"{}\"", escape(k), escape(v)));
        }
        out.push_str("\n  },\n");
        out.push_str(&format!("  \"wall_clock_ns\": {},\n", self.wall_clock_ns));
        out.push_str("  \"counters\": {");
        for (i, (k, v)) in self.telemetry.counters().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", escape(k), v));
        }
        out.push_str("\n  },\n");
        out.push_str("  \"gauges\": {");
        for (i, (k, v)) in self.telemetry.gauges().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", escape(k), fmt_f64(v)));
        }
        out.push_str("\n  },\n");
        out.push_str("  \"timers\": {");
        for (i, (k, h)) in self.telemetry.timers().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", escape(k), histogram_json(h)));
        }
        out.push_str("\n  },\n");
        out.push_str("  \"observations\": {");
        for (i, (k, h)) in self.telemetry.observations().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", escape(k), histogram_json(h)));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// One exported histogram (timer or observation) as read back from a
/// manifest: pre-materialized quantiles, no buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Metric key (e.g. `engine.slot.sync`).
    pub name: String,
    /// Sample count.
    pub count: u64,
    /// Saturating sum of samples (nanoseconds for timers).
    pub total: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

/// A manifest read back from its JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestSummary {
    /// Run identifier.
    pub label: String,
    /// Ordered configuration echo.
    pub config: Vec<(String, String)>,
    /// Total wall clock in nanoseconds.
    pub wall_clock_ns: u64,
    /// Counters in key order.
    pub counters: Vec<(String, u64)>,
    /// Gauges in key order.
    pub gauges: Vec<(String, f64)>,
    /// Timer summaries in key order.
    pub timers: Vec<HistogramSummary>,
    /// Observation summaries in key order.
    pub observations: Vec<HistogramSummary>,
}

fn summary_from(name: &str, v: &Value) -> Result<HistogramSummary, String> {
    let want = |key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("manifest JSON: histogram {name:?} missing {key}"))
    };
    Ok(HistogramSummary {
        name: name.to_string(),
        count: want("count")?,
        total: want("total")?,
        min: want("min")?,
        max: want("max")?,
        p50: want("p50")?,
        p95: want("p95")?,
        p99: want("p99")?,
    })
}

impl ManifestSummary {
    /// Parse a manifest JSON document.
    pub fn parse(text: &str) -> Result<ManifestSummary, String> {
        let root = Value::parse(text).map_err(|e| format!("manifest {e}"))?;
        match root.get("schema").and_then(Value::as_str) {
            Some("ffd2d-telemetry/1") => {}
            Some(other) => return Err(format!("manifest JSON: unknown schema {other:?}")),
            None => return Err("manifest JSON: missing schema field".to_string()),
        }
        let label = root
            .get("label")
            .and_then(Value::as_str)
            .ok_or("manifest JSON: missing label")?
            .to_string();
        let wall_clock_ns = root
            .get("wall_clock_ns")
            .and_then(Value::as_u64)
            .ok_or("manifest JSON: missing wall_clock_ns")?;
        let mut config = Vec::new();
        if let Some(fields) = root.get("config").and_then(Value::as_obj) {
            for (k, v) in fields {
                let v = v
                    .as_str()
                    .ok_or_else(|| format!("manifest JSON: config {k:?} must be a string"))?;
                config.push((k.clone(), v.to_string()));
            }
        }
        let mut counters = Vec::new();
        if let Some(fields) = root.get("counters").and_then(Value::as_obj) {
            for (k, v) in fields {
                let v = v
                    .as_u64()
                    .ok_or_else(|| format!("manifest JSON: counter {k:?} must be a u64"))?;
                counters.push((k.clone(), v));
            }
        }
        let mut gauges = Vec::new();
        if let Some(fields) = root.get("gauges").and_then(Value::as_obj) {
            for (k, v) in fields {
                gauges.push((k.clone(), v.as_f64().unwrap_or(f64::NAN)));
            }
        }
        let mut timers = Vec::new();
        if let Some(fields) = root.get("timers").and_then(Value::as_obj) {
            for (k, v) in fields {
                timers.push(summary_from(k, v)?);
            }
        }
        let mut observations = Vec::new();
        if let Some(fields) = root.get("observations").and_then(Value::as_obj) {
            for (k, v) in fields {
                observations.push(summary_from(k, v)?);
            }
        }
        Ok(ManifestSummary {
            label,
            config,
            wall_clock_ns,
            counters,
            gauges,
            timers,
            observations,
        })
    }

    /// Counter value by key (0 when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Whether the manifest recorded a counter under `key` at all —
    /// distinguishes "instrumented but zero" from "never emitted"
    /// (e.g. the gain cache disabled), which `counter` conflates.
    pub fn has_counter(&self, key: &str) -> bool {
        self.counters.iter().any(|(k, _)| k == key)
    }

    /// Config echo value by key.
    pub fn config_value(&self, key: &str) -> Option<&str> {
        self.config
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn sample_manifest() -> RunManifest {
        let mut t = Telemetry::new();
        t.add("engine.slots_materialized", 1234);
        t.add("medium.gain_cache_hits", 88);
        t.gauge("medium.last_workers", 4.0);
        for i in 0..100u64 {
            t.record_ns("engine.slot.sync", 1000 + i * 10);
            t.observe("medium.pairs_per_slot", i);
        }
        RunManifest {
            label: "st_n50".to_string(),
            config: vec![
                ("protocol".to_string(), "st".to_string()),
                ("n".to_string(), "50".to_string()),
                ("seed".to_string(), "7".to_string()),
            ],
            wall_clock_ns: 5_000_000,
            telemetry: t,
        }
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let m = sample_manifest();
        let parsed = ManifestSummary::parse(&m.to_json()).unwrap();
        assert_eq!(parsed.label, "st_n50");
        assert_eq!(parsed.wall_clock_ns, 5_000_000);
        assert_eq!(parsed.config_value("protocol"), Some("st"));
        assert_eq!(parsed.config_value("n"), Some("50"));
        assert_eq!(parsed.counter("engine.slots_materialized"), 1234);
        assert_eq!(parsed.counter("medium.gain_cache_hits"), 88);
        assert_eq!(
            parsed.gauges,
            vec![("medium.last_workers".to_string(), 4.0)]
        );
        assert_eq!(parsed.timers.len(), 1);
        let t = &parsed.timers[0];
        assert_eq!(t.name, "engine.slot.sync");
        assert_eq!(t.count, 100);
        assert_eq!(
            t.p50,
            m.telemetry
                .timer("engine.slot.sync")
                .unwrap()
                .quantile(0.5)
                .unwrap()
        );
        assert_eq!(parsed.observations.len(), 1);
        assert_eq!(parsed.observations[0].max, 99);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let doc = r#"{"schema": "ffd2d-telemetry/999", "label": "x", "wall_clock_ns": 1}"#;
        assert!(ManifestSummary::parse(doc).is_err());
        assert!(ManifestSummary::parse(r#"{"label": "x"}"#).is_err());
    }
}
