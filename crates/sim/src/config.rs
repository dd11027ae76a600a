//! Base simulation configuration.
//!
//! `SimConfig` captures the scenario-independent knobs of a trial: how
//! many devices, in what area, for how long, and under which master
//! seed. Radio parameters (transmit power, thresholds, fading) live in
//! `ffd2d-radio`, protocol parameters in `ffd2d-core`; this split keeps
//! the kernel free of protocol knowledge while letting the experiment
//! harness assemble a full Table-I scenario from the three layers.

use serde::{Deserialize, Serialize};

use crate::deployment::Meters;
use crate::time::SlotDuration;

/// Scenario-independent simulation parameters.
///
/// Defaults reproduce the deployment row of the paper's Table I:
/// 50 devices in a 100 m × 100 m area, 1 ms slots.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of devices (UEs) deployed.
    pub n_devices: usize,
    /// Area width in meters.
    pub area_width: Meters,
    /// Area height in meters.
    pub area_height: Meters,
    /// Hard cap on simulated time; a trial that has not converged by
    /// this horizon is reported as non-converged.
    pub max_slots: SlotDuration,
    /// Master seed; every stream in the trial derives from it.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            n_devices: 50,
            area_width: Meters(100.0),
            area_height: Meters(100.0),
            max_slots: SlotDuration(200_000),
            seed: 0xF1EE_F1EE,
        }
    }
}

impl SimConfig {
    /// Table-I deployment (50 devices / 100 m × 100 m) with a caller
    /// supplied seed.
    pub fn table1(seed: u64) -> Self {
        SimConfig {
            seed,
            ..Self::default()
        }
    }

    /// Same area as Table I but `n` devices — the sweep used by the
    /// paper's Figs. 3 and 4 (node counts up to 1000 in the same area).
    pub fn with_devices(n: usize) -> Self {
        SimConfig {
            n_devices: n,
            ..Self::default()
        }
    }

    /// Builder-style seed override.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style horizon override.
    pub fn with_max_slots(mut self, max: SlotDuration) -> Self {
        self.max_slots = max;
        self
    }

    /// Device density in devices per square meter.
    pub fn density(&self) -> f64 {
        self.n_devices as f64 / (self.area_width.0 * self.area_height.0)
    }

    /// Validate invariants, returning a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_devices < 2 {
            return Err(format!(
                "need at least 2 devices for D2D, got {}",
                self.n_devices
            ));
        }
        let positive_finite = |m: Meters| m.0 > 0.0 && m.0.is_finite();
        if !positive_finite(self.area_width) || !positive_finite(self.area_height) {
            return Err("deployment area must have positive, finite dimensions".into());
        }
        if self.max_slots.is_zero() {
            return Err("max_slots must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = SimConfig::default();
        assert_eq!(c.n_devices, 50);
        assert_eq!(c.area_width.0, 100.0);
        assert_eq!(c.area_height.0, 100.0);
        assert!((c.density() - 0.005).abs() < 1e-12);
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::with_devices(400)
            .seeded(9)
            .with_max_slots(SlotDuration(10));
        assert_eq!(c.n_devices, 400);
        assert_eq!(c.seed, 9);
        assert_eq!(c.max_slots, SlotDuration(10));
    }

    #[test]
    fn validate_catches_bad_configs() {
        assert!(SimConfig::default().validate().is_ok());
        assert!(SimConfig::with_devices(1).validate().is_err());
        let c = SimConfig {
            area_width: Meters(0.0),
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SimConfig {
            max_slots: SlotDuration::ZERO,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn clone_preserves_fields() {
        let c = SimConfig::with_devices(123).seeded(77);
        let d = c.clone();
        assert_eq!(d.n_devices, 123);
        assert_eq!(d.seed, 77);
    }
}
