//! Results: the per-workload summary line, the human-readable table,
//! the JSON result file, and `perf compare`.

use std::fmt::Write as _;

use ffd2d_telemetry::json::Value;

use crate::metrics::{layer_unit, Better, EndToEnd, Quartiles};

/// Everything measured on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// Outcome digest every run was checked against.
    pub digest: u64,
    /// Runs whose outcome digest was checked.
    pub attempted: u64,
    /// Runs whose digest was wrong.
    pub failed: u64,
    /// Mean factor that scaled the untraced phase's timings to the
    /// reference host ([`crate::host`]); `None` when that phase did not
    /// run.
    pub host_scale: Option<f64>,
    /// End-to-end metrics (empty when the untraced phase did not run).
    pub end_to_end: Vec<(EndToEnd, Quartiles)>,
    /// Per-layer metrics and their units (empty when the traced phase
    /// did not run).
    pub per_layer: Vec<(&'static str, &'static str, f64)>,
}

impl WorkloadResult {
    /// The one-line JSON summary: `correct`, `attempted`, `failed` and
    /// every metric measured, each as `{"value", "unit"}` (end-to-end
    /// metrics report their median).
    pub fn summary_line(&self) -> String {
        let metrics: Vec<String> = self
            .end_to_end
            .iter()
            .map(|(m, q)| (m.name, m.unit, q.median))
            .chain(self.per_layer.iter().copied())
            .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every metric by name with its unit, one per line.
    pub fn table(&self, seed: u64) -> String {
        let mut s = format!(
            "== {} (seed {seed}): {} runs checked, {} failed, digest {:016x}\n",
            self.name, self.attempted, self.failed, self.digest
        );
        if let Some(scale) = self.host_scale {
            let _ = writeln!(s, "  (timings scaled to the reference host by {scale:.4})");
        }
        for (m, q) in &self.end_to_end {
            let _ = writeln!(
                s,
                "  {:<30} {:>14.6} {:<5} q1 {:.6}  q3 {:.6}  n={}  ({} is better, bound {}%)",
                m.name,
                q.median,
                m.unit,
                q.q1,
                q.q3,
                q.n,
                m.better.as_str(),
                m.bound * 100.0
            );
        }
        for (name, unit, v) in &self.per_layer {
            let _ = writeln!(s, "  {name:<30} {v:>14.6} {unit}");
        }
        s
    }
}

/// The JSON result file: seed, measuring window, host, and every
/// workload's metrics with quartiles. `parallel.efficiency` is written
/// as `"unmeasured"` when the pool had more workers than the host has
/// cpus, or the host has one cpu: no speed-up can be shown there.
pub fn result_json(seed: u64, seconds: u64, cpus: usize, results: &[WorkloadResult]) -> String {
    let entries: Vec<String> = results.iter().map(|r| workload_entry(r, cpus)).collect();
    document(seed, seconds, cpus, &entries)
}

/// One result file holding the workloads of `docs`, result files that
/// [`result_json`] wrote for the same seed and window, in order.
pub fn merge_results(
    seed: u64,
    seconds: u64,
    cpus: usize,
    docs: &[String],
) -> Result<String, String> {
    let entries = docs
        .iter()
        .map(|d| {
            d.split_once(WORKLOADS_OPEN)
                .and_then(|(_, rest)| rest.strip_suffix(WORKLOADS_CLOSE))
                .map(str::to_string)
                .ok_or("not a perf result file".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let merged = document(seed, seconds, cpus, &entries);
    Value::parse(&merged).map_err(|e| format!("merged result: {e}"))?;
    Ok(merged)
}

const WORKLOADS_OPEN: &str = "\n  \"workloads\": [";
const WORKLOADS_CLOSE: &str = "\n  ]\n}\n";

fn document(seed: u64, seconds: u64, cpus: usize, entries: &[String]) -> String {
    format!(
        "{{\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"host\": {{\"cpus\": {cpus}, \"os\": \"{}\", \"arch\": \"{}\"}},{WORKLOADS_OPEN}{}{WORKLOADS_CLOSE}",
        std::env::consts::OS,
        std::env::consts::ARCH,
        entries.join(",")
    )
}

fn workload_entry(r: &WorkloadResult, cpus: usize) -> String {
    let workers = r
        .per_layer
        .iter()
        .find(|(n, _, _)| *n == "parallel.workers")
        .map_or(1.0, |&(_, _, v)| v);
    let unmeasured = cpus <= 1 || workers > cpus as f64;
    let e2e: Vec<String> = r
        .end_to_end
        .iter()
        .map(|(m, q)| {
            format!(
                "\n        \"{}\": {{\"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                m.name, m.unit, m.better.as_str(), m.bound, q.median, q.q1, q.q3, q.n
            )
        })
        .collect();
    let layers: Vec<String> = r
        .per_layer
        .iter()
        .map(|&(name, unit, v)| {
            let value = if name == "parallel.efficiency" && unmeasured {
                "\"unmeasured\"".to_string()
            } else {
                v.to_string()
            };
            format!("\n        \"{name}\": {{\"unit\": \"{unit}\", \"value\": {value}}}")
        })
        .collect();
    format!(
        "\n    {{\n      \"name\": \"{}\",\n      \"digest\": \"{:016x}\",\n      \"attempted\": {},\n      \"failed\": {},\n      \"host_scale\": {},\n      \"end_to_end\": {{{}\n      }},\n      \"per_layer\": {{{}\n      }}\n    }}",
        r.name,
        r.digest,
        r.attempted,
        r.failed,
        r.host_scale.map_or("null".to_string(), |x| x.to_string()),
        e2e.join(","),
        layers.join(",")
    )
}

/// Verdict for one (end-to-end metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// The quartile spread of either side is wider than the bound, so
    /// the medians cannot be told apart.
    Unresolved,
}

impl Verdict {
    /// `"improved"`, `"unchanged"`, `"regressed"` or `"unresolved"`.
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `new` against `base` for a metric with direction `better` and
/// regression bound `bound` (a share of the base median).
fn verdict(base: Quartiles, new: Quartiles, better: Better, bound: f64) -> Verdict {
    if base.spread() > bound || new.spread() > bound {
        return Verdict::Unresolved;
    }
    let delta = (new.median - base.median) / base.median;
    let worse = match better {
        Better::Lower => delta,
        Better::Higher => -delta,
    };
    if worse > bound {
        Verdict::Regressed
    } else if -worse > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or(format!("result file has no \"{key}\""))
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or(format!("\"{key}\" is not a number"))
}

fn quartiles(m: &Value) -> Result<Quartiles, String> {
    Ok(Quartiles {
        q1: num(m, "q1")?,
        median: num(m, "median")?,
        q3: num(m, "q3")?,
        n: num(m, "n")? as usize,
    })
}

fn workloads(v: &Value) -> Result<&[Value], String> {
    match field(v, "workloads")? {
        Value::Arr(items) => Ok(items),
        _ => Err("\"workloads\" is not an array".into()),
    }
}

/// `perf compare`: for every workload of `base`, each end-to-end metric's
/// medians, quartiles, delta and verdict (with the bound and direction
/// the base file recorded), then every per-layer metric — counters
/// compared exactly, times shown with their delta. Returns the report
/// and whether the comparison passes: no regression, no changed
/// counter, no workload or metric missing from `new`.
pub fn compare(base: &Value, new: &Value) -> Result<(String, bool), String> {
    let cpus = |v: &Value| num(field(v, "host")?, "cpus");
    let mut out = format!("host cpus: base {}, new {}\n", cpus(base)?, cpus(new)?);
    let mut pass = true;
    let new_workloads = workloads(new)?;
    for b in workloads(base)? {
        let name = field(b, "name")?.as_str().ok_or("workload name")?;
        let Some(n) = new_workloads
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            let _ = writeln!(out, "{name}: missing from the new result");
            pass = false;
            continue;
        };
        let _ = writeln!(out, "== {name}");
        for (metric, bm) in field(b, "end_to_end")?.as_obj().unwrap_or(&[]) {
            let Some(nm) = field(n, "end_to_end")?.get(metric) else {
                let _ = writeln!(out, "  {metric:<28} missing from the new result");
                pass = false;
                continue;
            };
            let better = match field(bm, "better")?.as_str() {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let (bq, nq) = (quartiles(bm)?, quartiles(nm)?);
            let v = verdict(bq, nq, better, num(bm, "bound")?);
            pass &= v != Verdict::Regressed;
            let _ = writeln!(
                out,
                "  {metric:<28} base {:.6} [{:.6}, {:.6}]  new {:.6} [{:.6}, {:.6}]  {:+.2}%  {}",
                bq.median,
                bq.q1,
                bq.q3,
                nq.median,
                nq.q1,
                nq.q3,
                100.0 * (nq.median - bq.median) / bq.median,
                v.as_str(),
            );
        }
        for (metric, bm) in field(b, "per_layer")?.as_obj().unwrap_or(&[]) {
            let bv = field(bm, "value")?;
            let Some(nv) = field(n, "per_layer")?
                .get(metric)
                .map(|m| field(m, "value"))
            else {
                let _ = writeln!(out, "  {metric:<28} missing from the new result");
                pass = false;
                continue;
            };
            let line = match (bv.as_f64(), nv?.as_f64()) {
                (Some(x), Some(y)) if layer_unit(metric) == Some("count") => {
                    pass &= x == y;
                    format!("{x} -> {y}  {}", if x == y { "equal" } else { "CHANGED" })
                }
                (Some(x), Some(y)) => {
                    let d = if x != 0.0 { 100.0 * (y - x) / x } else { 0.0 };
                    format!("{x:.6} -> {y:.6}  {d:+.2}%")
                }
                _ => "unmeasured".to_string(),
            };
            let _ = writeln!(out, "  {metric:<28} {line}");
        }
    }
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    fn q(median: f64, spread: f64) -> Quartiles {
        Quartiles {
            q1: median * (1.0 - spread / 2.0),
            median,
            q3: median * (1.0 + spread / 2.0),
            n: 10,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = Better::Lower;
        assert_eq!(
            verdict(q(1.0, 0.02), q(1.05, 0.02), lower, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(q(1.0, 0.02), q(1.2, 0.02), lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(q(1.0, 0.02), q(0.8, 0.02), lower, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(q(1.0, 0.02), q(0.8, 0.02), Better::Higher, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(q(1.0, 0.3), q(1.0, 0.02), lower, 0.1),
            Verdict::Unresolved
        );
    }

    fn result(wall: f64, fired: f64) -> WorkloadResult {
        WorkloadResult {
            name: "dense_st_2000",
            digest: 0xabc,
            attempted: 3,
            failed: 0,
            host_scale: Some(1.0),
            end_to_end: END_TO_END.iter().map(|&m| (m, q(wall, 0.02))).collect(),
            per_layer: PER_LAYER
                .iter()
                .map(|&(n, u)| {
                    (
                        n,
                        u,
                        if n == "engine.wakeups_fired" {
                            fired
                        } else {
                            1.5
                        },
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn result_files_round_trip_through_compare() {
        let base = Value::parse(&result_json(1, 10, 2, &[result(1.0, 7.0)])).expect("valid JSON");
        let same = Value::parse(&result_json(1, 10, 2, &[result(1.01, 7.0)])).expect("valid JSON");
        let (report, pass) = compare(&base, &same).expect("comparable");
        assert!(pass, "{report}");
        assert!(report.contains("unchanged"));

        let slower = Value::parse(&result_json(1, 10, 2, &[result(1.5, 7.0)])).expect("valid JSON");
        let (report, pass) = compare(&base, &slower).expect("comparable");
        assert!(!pass && report.contains("regressed"), "{report}");

        let recount =
            Value::parse(&result_json(1, 10, 2, &[result(1.0, 8.0)])).expect("valid JSON");
        let (report, pass) = compare(&base, &recount).expect("comparable");
        assert!(!pass && report.contains("CHANGED"), "{report}");
    }

    #[test]
    fn merged_results_keep_every_workload_in_order() {
        let mut second = result(2.0, 9.0);
        second.name = "fig3_sweep";
        let docs = [
            result_json(1, 10, 2, &[result(1.0, 7.0)]),
            result_json(1, 10, 2, &[second.clone()]),
        ];
        let merged = merge_results(1, 10, 2, &docs).expect("mergeable");
        assert_eq!(merged, result_json(1, 10, 2, &[result(1.0, 7.0), second]));
        assert!(merge_results(1, 10, 2, &["{}".to_string()]).is_err());
    }

    #[test]
    fn one_cpu_hosts_leave_parallel_efficiency_unmeasured() {
        let text = result_json(1, 10, 1, &[result(1.0, 7.0)]);
        let v = Value::parse(&text).expect("valid JSON");
        let eff = workloads(&v).expect("array")[0]
            .get("per_layer")
            .and_then(|p| p.get("parallel.efficiency"))
            .and_then(|e| e.get("value"))
            .and_then(Value::as_str);
        assert_eq!(eff, Some("unmeasured"));
        let (report, _) = compare(&v, &v).expect("comparable");
        assert!(report.contains("parallel.efficiency"));
        assert!(report.contains("unmeasured"));
    }

    #[test]
    fn summary_line_is_one_json_object() {
        let line = result(1.0, 7.0).summary_line();
        let v = Value::parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let metrics = v.get("metrics").and_then(Value::as_obj).expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(!line.contains('\n'));
    }
}
