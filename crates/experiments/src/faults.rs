//! `--faults` specs: a churn preset, or a JSON fault plan file.
//!
//! A spec ending in `.json` is read through the workspace's one JSON
//! reader, [`ffd2d_telemetry::json`]; any other spec names a preset of
//! [`FaultPlan::resolve`]. The plan schema (`tests/data/fault_plan.json`
//! is this example):
//!
//! ```json
//! {
//!   "drop_prob": 0.05,
//!   "dup_prob": 0.01,
//!   "churn": [ {"slot": 1000, "device": 3, "kind": "leave"} ],
//!   "skew": [ {"device": 1, "extra_slots": -4} ],
//!   "droop": [ {"device": 2, "from_slot": 100, "until_slot": 400, "droop_db": 12.0} ]
//! }
//! ```
//!
//! Every field is optional and defaults to "no fault". Unknown keys
//! are rejected so typos fail loudly instead of silently injecting
//! nothing. Reading checks only the shape; whether the plan fits a
//! scenario (device ids, probabilities, skewed periods) is
//! `ScenarioConfig::validate`'s job.

use serde::{Deserialize, Serialize};

use ffd2d_core::scenario::{ChurnEvent, ChurnKind, ClockSkew, FaultPlan, PowerDroop};
use ffd2d_telemetry::json::Value;

/// A `--faults` spec, read once: a preset, which scales to each
/// scenario, or the plan a `.json` file holds, which every scenario
/// shares.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultSpec {
    /// A [`FaultPlan::resolve`] preset name.
    Preset(String),
    /// The plan read from a `.json` file.
    Plan(FaultPlan),
}

impl FaultSpec {
    /// Read `spec`: a path ending in `.json` is loaded and mapped now;
    /// any other spec is kept as a preset name.
    pub fn load(spec: &str) -> Result<FaultSpec, String> {
        if !spec.ends_with(".json") {
            return Ok(FaultSpec::Preset(spec.to_string()));
        }
        let text =
            std::fs::read_to_string(spec).map_err(|e| format!("reading fault plan {spec}: {e}"))?;
        plan_from_json(&text).map(FaultSpec::Plan)
    }

    /// The plan for `n` devices over `horizon_slots`: the preset scaled
    /// to the scenario, or the loaded plan.
    pub fn plan(&self, n: usize, horizon_slots: u64) -> Result<FaultPlan, String> {
        match self {
            FaultSpec::Preset(name) => FaultPlan::resolve(name, n, horizon_slots),
            FaultSpec::Plan(plan) => Ok(plan.clone()),
        }
    }
}

/// Map a fault plan document onto a [`FaultPlan`].
fn plan_from_json(text: &str) -> Result<FaultPlan, String> {
    let root = Value::parse(text).map_err(|e| format!("fault plan {e}"))?;
    check_keys(
        &root,
        &["drop_prob", "dup_prob", "churn", "skew", "droop"],
        "top level",
    )?;
    let mut plan = FaultPlan::none();
    if let Some(v) = root.get("drop_prob") {
        plan.drop_prob = number(v, "drop_prob")?;
    }
    if let Some(v) = root.get("dup_prob") {
        plan.dup_prob = number(v, "dup_prob")?;
    }
    for entry in array(&root, "churn")? {
        check_keys(entry, &["slot", "device", "kind"], "churn entry")?;
        let kind = match entry.get("kind").and_then(Value::as_str) {
            Some("join") => ChurnKind::Join,
            Some("leave") => ChurnKind::Leave,
            _ => return Err("fault plan JSON: churn kind must be \"join\" or \"leave\"".into()),
        };
        plan.churn.push(ChurnEvent {
            slot: integer(entry, "slot", "churn entry")?,
            device: integer(entry, "device", "churn entry")?,
            kind,
        });
    }
    for entry in array(&root, "skew")? {
        check_keys(entry, &["device", "extra_slots"], "skew entry")?;
        plan.skew.push(ClockSkew {
            device: integer(entry, "device", "skew entry")?,
            extra_slots: integer(entry, "extra_slots", "skew entry")?,
        });
    }
    for entry in array(&root, "droop")? {
        let keys = ["device", "from_slot", "until_slot", "droop_db"];
        check_keys(entry, &keys, "droop entry")?;
        plan.droop.push(PowerDroop {
            device: integer(entry, "device", "droop entry")?,
            from_slot: integer(entry, "from_slot", "droop entry")?,
            until_slot: integer(entry, "until_slot", "droop entry")?,
            droop_db: number(required(entry, "droop_db", "droop entry")?, "droop_db")?,
        });
    }
    Ok(plan)
}

/// An error unless `v` is an object whose keys are all in `allowed`.
fn check_keys(v: &Value, allowed: &[&str], what: &str) -> Result<(), String> {
    let fields = v
        .as_obj()
        .ok_or_else(|| format!("fault plan JSON: {what} must be an object"))?;
    match fields.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
        Some((k, _)) => Err(format!("fault plan JSON: unknown key {k:?} in {what}")),
        None => Ok(()),
    }
}

/// The entries of the optional array `key` of `root` (none when absent).
fn array<'v>(root: &'v Value, key: &str) -> Result<&'v [Value], String> {
    match root.get(key) {
        None => Ok(&[]),
        Some(Value::Arr(items)) => Ok(items),
        Some(_) => Err(format!("fault plan JSON: {key} must be an array")),
    }
}

/// The field `key` of `entry`, which must be present.
fn required<'v>(entry: &'v Value, key: &str, what: &str) -> Result<&'v Value, String> {
    entry
        .get(key)
        .ok_or_else(|| format!("fault plan JSON: {what} needs {key}"))
}

fn number(v: &Value, key: &str) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| format!("fault plan JSON: {key} must be a number"))
}

/// The required field `key` of `entry` as an integer of type `T`: it
/// must be integral and in `T`'s range (the cast saturates, and a
/// saturated value is out of range of every `T` used here).
fn integer<T: TryFrom<i128>>(entry: &Value, key: &str, what: &str) -> Result<T, String> {
    let n = number(required(entry, key, what)?, key)?;
    (n.fract() == 0.0)
        .then(|| T::try_from(n as i128).ok())
        .flatten()
        .ok_or_else(|| {
            let ty = std::any::type_name::<T>();
            format!("fault plan JSON: {key} must be a {ty} integer, got {n}")
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_document_parses() {
        let text = r#"{
            "drop_prob": 0.05,
            "dup_prob": 0.01,
            "churn": [
                {"slot": 1000, "device": 3, "kind": "leave"},
                {"slot": 2000, "device": 3, "kind": "join"}
            ],
            "skew": [{"device": 1, "extra_slots": -4}],
            "droop": [{"device": 2, "from_slot": 100, "until_slot": 400, "droop_db": 12.0}]
        }"#;
        let plan = plan_from_json(text).unwrap();
        assert_eq!(plan.drop_prob, 0.05);
        assert_eq!(plan.dup_prob, 0.01);
        assert_eq!(plan.churn.len(), 2);
        assert_eq!(plan.churn[0].kind, ChurnKind::Leave);
        assert_eq!(plan.skew[0].extra_slots, -4);
        assert_eq!(plan.droop[0].droop_db, 12.0);
    }

    #[test]
    fn empty_object_is_none() {
        assert!(plan_from_json("{}").unwrap().is_none());
        assert!(plan_from_json("  { }  ").unwrap().is_none());
    }

    #[test]
    fn bad_documents_are_rejected() {
        for bad in [
            "",
            "[]",
            "{",
            r#"{"drop_prob": "high"}"#,
            r#"{"typo_prob": 0.1}"#,
            r#"{"churn": [{"slot": 1, "device": 0, "kind": "explode"}]}"#,
            r#"{"churn": [{"slot": -1, "device": 0, "kind": "leave"}]}"#,
            r#"{"churn": 3}"#,
            r#"{} trailing"#,
            // Integers must be integral and fit their field.
            r#"{"churn": [{"slot": 1.5, "device": 0, "kind": "leave"}]}"#,
            r#"{"churn": [{"slot": 18446744073709551616, "device": 0, "kind": "leave"}]}"#,
            r#"{"churn": [{"slot": 1, "device": 4294967296, "kind": "leave"}]}"#,
            r#"{"skew": [{"device": 0, "extra_slots": -2147483649}]}"#,
            r#"{"skew": [{"device": 0}]}"#,
            r#"{"skew": {"device": 0, "extra_slots": 1}}"#,
            r#"{"droop": [{"device": 0, "from_slot": 1, "until_slot": 2, "droop_db": 1, "x": 0}]}"#,
            r#"{"churn": [{"slot": 1, "device": 0, "kind": true}]}"#,
        ] {
            assert!(plan_from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn integers_reach_their_type_bounds() {
        let plan = plan_from_json(
            r#"{"churn": [{"slot": 18446744073709549568, "device": 4294967295, "kind": "join"}],
                "skew": [{"device": 0, "extra_slots": -2147483648}]}"#,
        )
        .unwrap();
        assert_eq!(plan.churn[0].slot, 18_446_744_073_709_549_568);
        assert_eq!(plan.churn[0].device, u32::MAX);
        assert_eq!(plan.skew[0].extra_slots, i32::MIN);
    }

    #[test]
    fn specs_resolve_presets_and_files() {
        let plan = |spec: &str| FaultSpec::load(spec)?.plan(100, 30_000);
        assert_eq!(
            plan("churn-light"),
            FaultPlan::resolve("churn-light", 100, 30_000)
        );
        assert!(plan("bogus").is_err());
        let err = plan("no/such/plan.json").unwrap_err();
        assert!(err.contains("reading fault plan"), "{err}");
    }

    #[test]
    fn a_loaded_plan_is_read_once_and_shared_by_every_scenario() {
        let path = std::env::temp_dir().join(format!("fault_spec_{}.json", std::process::id()));
        std::fs::write(&path, r#"{"drop_prob": 0.25}"#).unwrap();
        let spec = FaultSpec::load(path.to_str().unwrap()).unwrap();
        // The file is gone; the loaded spec still serves every cell.
        std::fs::remove_file(&path).unwrap();
        for n in [20, 50, 100] {
            assert_eq!(spec.plan(n, 30_000).unwrap().drop_prob, 0.25);
        }
        let preset = FaultSpec::load("churn-light").unwrap();
        assert_eq!(preset, FaultSpec::Preset("churn-light".into()));
        assert_eq!(
            preset.plan(50, 30_000),
            FaultPlan::resolve("churn-light", 50, 30_000)
        );
    }
}
