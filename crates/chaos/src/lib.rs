//! Deterministic fault injection and churn for the ffd2d protocols.
//!
//! The paper's robustness claim — fragments merge and re-synchronize
//! with no coordinator — is only testable if runs can *lose* devices
//! and frames. This crate defines the [`FaultPlan`]: a declarative,
//! fully seeded schedule of
//!
//! * **churn** — devices leaving and (re)joining at fixed slots;
//! * **frame faults** — per-delivery drop/duplication probabilities
//!   applied at the medium boundary;
//! * **clock skew** — per-device natural-period offsets on the
//!   oscillator;
//! * **power droops** — transient per-device TX power reductions.
//!
//! Every random decision is a *stateless keyed draw*: the fate of a
//! frame is a pure function of `(chaos key, slot, sender, receiver)`,
//! where the key is derived once per run from the master seed via the
//! dedicated [`StreamId::Chaos`] stream. No sequential RNG state is
//! consumed, so fault decisions are bit-identical across slot engines,
//! medium worker counts, and delivery orderings — the same discipline
//! the rest of the workspace uses for shadowing and fading.
//!
//! [`FaultPlan::none`] is the default everywhere and is *provably
//! outcome-neutral*: engines gate every fault branch on
//! [`FaultPlan::is_none`] and the plan adds no RNG draws, so a run
//! with no plan is bit-identical to one built before this crate
//! existed (locked by `tests/chaos.rs`).
//!
//! [`StreamId::Chaos`]: ffd2d_sim::rng::StreamId::Chaos

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::RngCore;
use serde::{Deserialize, Serialize};

use ffd2d_sim::rng::{SplitMix64, StreamId, StreamRng};

/// Direction of a churn event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnKind {
    /// The device powers on (or returns) at the given slot.
    Join,
    /// The device powers off at the given slot.
    Leave,
}

/// One scheduled join/leave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// Slot at which the event takes effect (processed at slot start).
    pub slot: u64,
    /// Affected device.
    pub device: u32,
    /// Join or leave.
    pub kind: ChurnKind,
}

/// A permanent per-device natural-period offset (crystal tolerance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClockSkew {
    /// Affected device.
    pub device: u32,
    /// Slots added to the nominal oscillator period (negative = fast
    /// clock). Validation keeps the skewed period positive and longer
    /// than the refractory window.
    pub extra_slots: i32,
}

/// A transient TX power reduction (battery sag, thermal throttling).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerDroop {
    /// Affected device.
    pub device: u32,
    /// First slot of the droop window (inclusive).
    pub from_slot: u64,
    /// End of the droop window (exclusive).
    pub until_slot: u64,
    /// Power reduction in dB (must be ≥ 0: droops only weaken).
    pub droop_db: f64,
}

/// Fate of one individual frame delivery under the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFate {
    /// Delivered normally.
    Deliver,
    /// Silently lost at the receiver.
    Drop,
    /// Delivered twice (duplicated by the channel).
    Duplicate,
}

/// A complete, seeded fault schedule for one run.
///
/// The plan is *declarative*: it carries no RNG state. Engines derive
/// the per-run chaos key with [`FaultPlan::chaos_key`] and evaluate
/// frame fates with [`FaultPlan::frame_fate`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability that any individual frame delivery is dropped.
    pub drop_prob: f64,
    /// Probability that any individual frame delivery is duplicated.
    pub dup_prob: f64,
    /// Join/leave schedule.
    pub churn: Vec<ChurnEvent>,
    /// Permanent per-device clock skews.
    pub skew: Vec<ClockSkew>,
    /// Transient per-device power droops.
    pub droop: Vec<PowerDroop>,
}

impl FaultPlan {
    /// The empty plan: no faults, outcome-neutral by construction.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing at all (the default).
    pub fn is_none(&self) -> bool {
        self.drop_prob == 0.0
            && self.dup_prob == 0.0
            && self.churn.is_empty()
            && self.skew.is_empty()
            && self.droop.is_empty()
    }

    /// True when any frame-level fault (drop or duplication) can occur.
    pub fn has_frame_faults(&self) -> bool {
        self.drop_prob > 0.0 || self.dup_prob > 0.0
    }

    /// Validate against a scenario: `n` devices, nominal oscillator
    /// `period_slots` and `refractory_slots`.
    pub fn validate(
        &self,
        n: usize,
        period_slots: u32,
        refractory_slots: u32,
    ) -> Result<(), String> {
        let check_prob = |p: f64, what: &str| {
            if !(0.0..=1.0).contains(&p) {
                Err(format!("{what} must be in [0, 1], got {p}"))
            } else {
                Ok(())
            }
        };
        check_prob(self.drop_prob, "drop_prob")?;
        check_prob(self.dup_prob, "dup_prob")?;
        if self.drop_prob + self.dup_prob > 1.0 {
            return Err("drop_prob + dup_prob must not exceed 1".into());
        }
        let check_device = |d: u32, what: &str| {
            if (d as usize) < n {
                Ok(())
            } else {
                Err(format!("{what} references device {d}, but n = {n}"))
            }
        };
        for ev in &self.churn {
            check_device(ev.device, "churn event")?;
        }
        for s in &self.skew {
            check_device(s.device, "clock skew")?;
            let skewed = period_slots as i64 + s.extra_slots as i64;
            if skewed <= refractory_slots as i64 {
                return Err(format!(
                    "skewed period {skewed} for device {} must stay above the refractory window {refractory_slots}",
                    s.device
                ));
            }
            if skewed > u32::MAX as i64 {
                return Err(format!("skewed period {skewed} overflows u32"));
            }
        }
        for d in &self.droop {
            check_device(d.device, "power droop")?;
            if d.droop_db < 0.0 || !d.droop_db.is_finite() {
                return Err(format!(
                    "droop_db must be finite and ≥ 0, got {}",
                    d.droop_db
                ));
            }
            if d.until_slot <= d.from_slot {
                return Err(format!(
                    "droop window [{}, {}) for device {} is empty",
                    d.from_slot, d.until_slot, d.device
                ));
            }
        }
        Ok(())
    }

    /// Slot of the last *discrete* fault (final churn event or droop
    /// window end). `None` when the plan has no discrete faults —
    /// permanent conditions (skew, frame-loss probabilities) have no
    /// "last" slot, so re-convergence is only measured against churn
    /// and droops.
    pub fn last_fault_slot(&self) -> Option<u64> {
        let churn_last = self.churn.iter().map(|e| e.slot).max();
        let droop_last = self.droop.iter().map(|d| d.until_slot).max();
        match (churn_last, droop_last) {
            (None, None) => None,
            (a, b) => Some(a.unwrap_or(0).max(b.unwrap_or(0))),
        }
    }

    /// The churn schedule sorted by `(slot, device)` — the order in
    /// which engines must apply it.
    pub fn sorted_churn(&self) -> Vec<ChurnEvent> {
        let mut churn = self.churn.clone();
        churn.sort_by_key(|e| (e.slot, e.device, e.kind == ChurnKind::Leave));
        churn
    }

    /// Initial activity mask: a device whose *first* churn event is a
    /// `Join` starts the run powered off; everyone else starts active.
    pub fn initial_active(&self, n: usize) -> Vec<bool> {
        let mut active = vec![true; n];
        let churn = self.sorted_churn();
        let mut seen = vec![false; n];
        for ev in &churn {
            let d = ev.device as usize;
            if d < n && !seen[d] {
                seen[d] = true;
                if ev.kind == ChurnKind::Join {
                    active[d] = false;
                }
            }
        }
        active
    }

    /// Per-device oscillator period under the plan's clock skews.
    /// Validation guarantees the result is positive and above the
    /// refractory window.
    pub fn period_for(&self, device: u32, nominal_slots: u32) -> u32 {
        let extra: i64 = self
            .skew
            .iter()
            .filter(|s| s.device == device)
            .map(|s| s.extra_slots as i64)
            .sum();
        (nominal_slots as i64 + extra).max(1) as u32
    }

    /// Total TX power droop (dB) for `device` at `slot`.
    pub fn droop_db_at(&self, device: u32, slot: u64) -> f64 {
        self.droop
            .iter()
            .filter(|d| d.device == device && (d.from_slot..d.until_slot).contains(&slot))
            .map(|d| d.droop_db)
            .sum()
    }

    /// Derive the per-run chaos key from the master seed: one draw from
    /// the dedicated [`StreamId::Chaos`] stream. Engines compute this
    /// once; it never consumes any other subsystem's stream.
    pub fn chaos_key(master_seed: u64) -> u64 {
        StreamRng::new(master_seed, 0, StreamId::Chaos).next_u64()
    }

    /// Fate of the frame delivery `(sender → receiver)` at `slot`.
    ///
    /// A stateless keyed draw: the same `(key, slot, sender, receiver)`
    /// always yields the same fate, regardless of evaluation order —
    /// this is what makes frame faults bit-identical across engines and
    /// medium worker counts.
    pub fn frame_fate(&self, key: u64, slot: u64, sender: u32, receiver: u32) -> FrameFate {
        if !self.has_frame_faults() {
            return FrameFate::Deliver;
        }
        let pair = ((sender as u64) << 32) | receiver as u64;
        // `FATE_SALT` domain-separates frame fates from every other
        // keyed draw sharing the chaos key.
        const FATE_SALT: u64 = 0xC4A0_55ED;
        let u = SplitMix64::keyed_unit(key, slot ^ FATE_SALT, pair);
        if u < self.drop_prob {
            FrameFate::Drop
        } else if u < self.drop_prob + self.dup_prob {
            FrameFate::Duplicate
        } else {
            FrameFate::Deliver
        }
    }

    /// Resolve a preset by name (`churn-light`, `churn-heavy`, `lossy`),
    /// scaled to `n` devices and the horizon. Plans written out as JSON
    /// are read by `ffd2d-experiments`, which owns `--faults`.
    pub fn resolve(spec: &str, n: usize, horizon_slots: u64) -> Result<FaultPlan, String> {
        match spec {
            "churn-light" => Ok(Self::churn_preset(n, horizon_slots, 20, true, 0.0)),
            "churn-heavy" => Ok(Self::churn_preset(n, horizon_slots, 5, false, 0.02)),
            "lossy" => Ok(FaultPlan {
                drop_prob: 0.10,
                dup_prob: 0.02,
                ..FaultPlan::none()
            }),
            other => Err(format!(
                "unknown fault spec {other:?} (expected churn-light, churn-heavy, lossy, or a .json path)"
            )),
        }
    }

    /// `1/divisor` of the population leaves at a third of the horizon;
    /// everyone (or, for heavy churn, every other leaver) rejoins at two
    /// thirds. Event slots are staggered so departures don't land on
    /// one slot.
    fn churn_preset(
        n: usize,
        horizon: u64,
        divisor: usize,
        all_rejoin: bool,
        drop_prob: f64,
    ) -> FaultPlan {
        let k = (n / divisor).max(1);
        let stride = (n / k).max(1);
        let leave_at = horizon / 3;
        let rejoin_at = horizon * 2 / 3;
        let mut churn = Vec::new();
        for i in 0..k {
            let device = (i * stride) as u32;
            let stagger = (i as u64) * 37 % (horizon / 12).max(1);
            churn.push(ChurnEvent {
                slot: leave_at + stagger,
                device,
                kind: ChurnKind::Leave,
            });
            if all_rejoin || i % 2 == 0 {
                churn.push(ChurnEvent {
                    slot: rejoin_at + stagger,
                    device,
                    kind: ChurnKind::Join,
                });
            }
        }
        FaultPlan {
            drop_prob,
            churn,
            ..FaultPlan::none()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_none() {
        assert!(FaultPlan::none().is_none());
        assert!(FaultPlan::default().is_none());
        assert_eq!(FaultPlan::none().last_fault_slot(), None);
        assert!(FaultPlan::none().validate(10, 100, 12).is_ok());
    }

    #[test]
    fn frame_fate_is_pure_and_order_free() {
        let plan = FaultPlan {
            drop_prob: 0.3,
            dup_prob: 0.1,
            ..FaultPlan::none()
        };
        let key = FaultPlan::chaos_key(42);
        let a = plan.frame_fate(key, 100, 3, 7);
        for _ in 0..4 {
            assert_eq!(plan.frame_fate(key, 100, 3, 7), a);
        }
        // Different seeds decorrelate the schedule.
        let other = FaultPlan::chaos_key(43);
        assert_ne!(key, other);
    }

    #[test]
    fn frame_fate_hits_requested_rates() {
        let plan = FaultPlan {
            drop_prob: 0.2,
            dup_prob: 0.1,
            ..FaultPlan::none()
        };
        let key = FaultPlan::chaos_key(7);
        let (mut drops, mut dups, total) = (0u32, 0u32, 20_000u32);
        for i in 0..total {
            match plan.frame_fate(key, i as u64, i % 50, (i / 50) % 50) {
                FrameFate::Drop => drops += 1,
                FrameFate::Duplicate => dups += 1,
                FrameFate::Deliver => {}
            }
        }
        let drop_rate = drops as f64 / total as f64;
        let dup_rate = dups as f64 / total as f64;
        assert!((drop_rate - 0.2).abs() < 0.02, "drop rate {drop_rate}");
        assert!((dup_rate - 0.1).abs() < 0.02, "dup rate {dup_rate}");
    }

    #[test]
    fn no_frame_faults_short_circuits() {
        let plan = FaultPlan {
            churn: vec![ChurnEvent {
                slot: 5,
                device: 0,
                kind: ChurnKind::Leave,
            }],
            ..FaultPlan::none()
        };
        assert!(!plan.has_frame_faults());
        assert_eq!(plan.frame_fate(1, 2, 3, 4), FrameFate::Deliver);
    }

    #[test]
    fn initial_active_respects_first_event() {
        let plan = FaultPlan {
            churn: vec![
                ChurnEvent {
                    slot: 50,
                    device: 1,
                    kind: ChurnKind::Join,
                },
                ChurnEvent {
                    slot: 10,
                    device: 1,
                    kind: ChurnKind::Leave,
                },
                ChurnEvent {
                    slot: 5,
                    device: 2,
                    kind: ChurnKind::Join,
                },
            ],
            ..FaultPlan::none()
        };
        // Device 1's first event (slot 10) is a Leave ⇒ starts active;
        // device 2's first event is a Join ⇒ starts off.
        assert_eq!(plan.initial_active(4), vec![true, true, false, true]);
    }

    #[test]
    fn periods_and_droops() {
        let plan = FaultPlan {
            skew: vec![ClockSkew {
                device: 2,
                extra_slots: -3,
            }],
            droop: vec![PowerDroop {
                device: 1,
                from_slot: 10,
                until_slot: 20,
                droop_db: 12.0,
            }],
            ..FaultPlan::none()
        };
        assert_eq!(plan.period_for(2, 100), 97);
        assert_eq!(plan.period_for(0, 100), 100);
        assert_eq!(plan.droop_db_at(1, 10), 12.0);
        assert_eq!(plan.droop_db_at(1, 20), 0.0);
        assert_eq!(plan.droop_db_at(0, 15), 0.0);
        assert_eq!(plan.last_fault_slot(), Some(20));
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let mut plan = FaultPlan::none();
        plan.drop_prob = 1.5;
        assert!(plan.validate(10, 100, 12).is_err());

        let skewed = FaultPlan {
            skew: vec![ClockSkew {
                device: 0,
                extra_slots: -95,
            }],
            ..FaultPlan::none()
        };
        // 100 - 95 = 5 ≤ refractory 12 ⇒ rejected.
        assert!(skewed.validate(10, 100, 12).is_err());

        let out_of_range = FaultPlan {
            churn: vec![ChurnEvent {
                slot: 1,
                device: 10,
                kind: ChurnKind::Leave,
            }],
            ..FaultPlan::none()
        };
        assert!(out_of_range.validate(10, 100, 12).is_err());

        let empty_window = FaultPlan {
            droop: vec![PowerDroop {
                device: 0,
                from_slot: 5,
                until_slot: 5,
                droop_db: 3.0,
            }],
            ..FaultPlan::none()
        };
        assert!(empty_window.validate(10, 100, 12).is_err());
    }

    #[test]
    fn presets_resolve_and_validate() {
        for spec in ["churn-light", "churn-heavy", "lossy"] {
            let plan = FaultPlan::resolve(spec, 100, 30_000).expect(spec);
            assert!(!plan.is_none(), "{spec} must inject something");
            assert!(plan.validate(100, 100, 12).is_ok(), "{spec} must validate");
        }
        assert!(FaultPlan::resolve("bogus", 100, 30_000).is_err());
        // Churn presets schedule every event inside the horizon.
        let plan = FaultPlan::resolve("churn-heavy", 200, 12_000).unwrap();
        assert!(plan.churn.iter().all(|e| e.slot < 12_000));
        assert!(plan.last_fault_slot().unwrap() < 12_000);
    }
}
