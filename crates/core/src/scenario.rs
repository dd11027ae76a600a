//! Scenario configuration — the full Table I plus protocol knobs.
//!
//! A [`ScenarioConfig`] assembles the three configuration layers of the
//! workspace: deployment ([`SimConfig`]), radio ([`ChannelConfig`]) and
//! the protocol parameters of §III–IV ([`ProtocolConfig`]). The
//! defaults reproduce the paper's Table I exactly; the builders cover
//! the sweeps of Figs. 3–4 and the ablations.

use serde::{Deserialize, Serialize};

pub use ffd2d_chaos::FaultPlan;
pub use ffd2d_parallel::Parallelism;
use ffd2d_phy::codec::ServiceClass;
use ffd2d_radio::channel::ChannelConfig;
use ffd2d_sim::config::SimConfig;
use ffd2d_sim::time::SlotDuration;

/// Protocol parameters (§III–IV).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// Oscillator natural period `T` in slots (eq. (3)).
    pub period_slots: u32,
    /// Post-fire refractory (deaf) window in slots.
    pub refractory_slots: u32,
    /// Dissipation factor `a` of eq. (5).
    pub dissipation: f64,
    /// Pulse coupling strength `ε` of eq. (5).
    pub coupling: f64,
    /// Discovery phase length, in oscillator periods: devices free-run
    /// and listen before the first merge round.
    pub discovery_periods: u32,
    /// RACH2 handshake contention window, in slots (Algorithm 2's
    /// broadcast/await loop).
    pub handshake_window: u32,
    /// Handshake retries within one merge round before the fragment
    /// skips the round.
    pub handshake_retries: u32,
    /// Number of distinct service interests assigned uniformly to
    /// devices (application-level discovery).
    pub service_classes: u8,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            period_slots: 100,
            refractory_slots: 12,
            dissipation: 3.0,
            coupling: 0.1,
            discovery_periods: 3,
            handshake_window: 16,
            handshake_retries: 3,
            service_classes: 4,
        }
    }
}

impl ProtocolConfig {
    /// Validate invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.period_slots == 0 {
            return Err("period must be positive".into());
        }
        if self.refractory_slots >= self.period_slots {
            return Err("refractory must be shorter than the period".into());
        }
        let positive_finite = |x: f64| x > 0.0 && x.is_finite();
        if !positive_finite(self.dissipation) || !positive_finite(self.coupling) {
            return Err("PRC requires finite a > 0 and ε > 0 (Mirollo–Strogatz)".into());
        }
        if self.discovery_periods == 0 {
            return Err("need at least one discovery period".into());
        }
        if self.handshake_window == 0 {
            return Err("handshake window must be positive".into());
        }
        if self.service_classes == 0 || self.service_classes > ServiceClass::COUNT {
            return Err(format!(
                "service classes must be in 1..={}",
                ServiceClass::COUNT
            ));
        }
        Ok(())
    }
}

/// Execution strategy for the protocol engines.
///
/// Both modes produce **bit-identical** outcomes (locked down by
/// `tests/engine_equivalence.rs`); the choice is purely about wall
/// clock. Tracing sinks need per-slot statistics, so a traced run
/// always materializes every slot regardless of this setting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineMode {
    /// Materialize every slot of the horizon (the reference loop).
    Stepped,
    /// Jump between wake-up slots (fires, deadlines, deliveries) via a
    /// coalescing slot wheel, fast-forwarding the idle stretches.
    #[default]
    EventDriven,
}

impl EngineMode {
    /// Parse a `--engine` flag value (`stepped` / `event`).
    pub fn from_flag(flag: &str) -> Option<EngineMode> {
        match flag {
            "stepped" => Some(EngineMode::Stepped),
            "event" | "event-driven" => Some(EngineMode::EventDriven),
            _ => None,
        }
    }
}

/// Link-state caching strategy for the fast medium.
///
/// Both modes produce **bit-identical** outcomes (locked down by
/// `tests/gain_cache.rs`): mean link gains are pure functions of device
/// positions, which never change during a run, fading remains the only
/// per-slot keyed draw, and a sender's rows are refilled whenever the
/// engine reports churn of that sender — so the choice is purely about
/// wall clock (and memory: the cache holds one `f64` per cached
/// directed (sender, cell-occupant) pair).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum GainCacheMode {
    /// Memoise mean link gains per (sender, grid cell) row, computed
    /// once and reused across every later slot of the run.
    #[default]
    Epoch,
    /// Recompute path loss + shadowing for every candidate pair, every
    /// slot (the reference behaviour; benches use it as the baseline).
    Off,
}

impl GainCacheMode {
    /// Parse a `--gain-cache` flag value (`epoch` / `off`).
    pub fn from_flag(flag: &str) -> Option<GainCacheMode> {
        match flag {
            "epoch" | "on" => Some(GainCacheMode::Epoch),
            "off" => Some(GainCacheMode::Off),
            _ => None,
        }
    }
}

/// A complete experiment scenario.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Deployment layer (devices, area, horizon, master seed).
    pub sim: SimConfig,
    /// Radio layer (powers, path loss, shadowing, fading).
    pub channel: ChannelConfig,
    /// Protocol layer (oscillator, PRC, merge machinery).
    pub protocol: ProtocolConfig,
    /// Engine execution strategy (outcome-neutral; see [`EngineMode`]).
    pub engine: EngineMode,
    /// Fault-injection and churn schedule ([`FaultPlan::none`] by
    /// default — and then provably outcome-neutral, locked by
    /// `tests/chaos.rs`).
    pub faults: FaultPlan,
    /// Link-state caching strategy for the fast medium
    /// (outcome-neutral; see [`GainCacheMode`]). `Epoch` by default.
    pub gain_cache: GainCacheMode,
}

impl ScenarioConfig {
    /// The paper's Table I with `n` devices in the fixed
    /// 100 m × 100 m area (the Figs. 3–4 sweep keeps the area and scales
    /// the population).
    pub fn table1(n: usize) -> ScenarioConfig {
        ScenarioConfig {
            sim: SimConfig::with_devices(n),
            channel: ChannelConfig::default(),
            protocol: ProtocolConfig::default(),
            engine: EngineMode::default(),
            faults: FaultPlan::none(),
            gain_cache: GainCacheMode::default(),
        }
    }

    /// Builder: override the master seed.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.sim.seed = seed;
        self
    }

    /// Builder: override the simulation horizon.
    pub fn with_max_slots(mut self, max: SlotDuration) -> Self {
        self.sim.max_slots = max;
        self
    }

    /// Builder: idealise the channel (no shadowing, no fading) —
    /// used by tests and complexity benches.
    pub fn ideal_channel(mut self) -> Self {
        self.channel = ChannelConfig::ideal();
        self
    }

    /// Builder: override shadowing σ (ablation A1).
    pub fn with_shadowing(mut self, sigma_db: f64) -> Self {
        self.channel.shadowing_sigma_db = sigma_db;
        self
    }

    /// Builder: override coupling strength ε (ablation A2).
    pub fn with_coupling(mut self, epsilon: f64) -> Self {
        self.protocol.coupling = epsilon;
        self
    }

    /// Builder: select the engine execution strategy.
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }

    /// Builder stub with no effect: returns `self` unchanged. The
    /// medium always resolves on one thread; the stub survives only
    /// because the perf harness still calls it, and the change that
    /// next edits the harness deletes it.
    pub fn with_parallelism(self, _parallelism: Parallelism) -> Self {
        self
    }

    /// Builder: attach a fault-injection / churn schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Builder: select the fast medium's link-state caching strategy
    /// (outcome neutral; see [`GainCacheMode`]).
    pub fn with_gain_cache(mut self, mode: GainCacheMode) -> Self {
        self.gain_cache = mode;
        self
    }

    /// Validate all layers.
    pub fn validate(&self) -> Result<(), String> {
        self.sim.validate()?;
        self.protocol.validate()?;
        let sigma = self.channel.shadowing_sigma_db;
        if !(sigma >= 0.0 && sigma.is_finite()) {
            return Err("shadowing sigma must be non-negative and finite".into());
        }
        self.faults.validate(
            self.sim.n_devices,
            self.protocol.period_slots,
            self.protocol.refractory_slots,
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffd2d_sim::deployment::Meters;

    #[test]
    fn table1_defaults() {
        let c = ScenarioConfig::table1(50);
        assert_eq!(c.sim.n_devices, 50);
        assert_eq!(c.channel.tx_power.get(), 23.0);
        assert_eq!(c.channel.detection_threshold.get(), -95.0);
        assert_eq!(c.channel.shadowing_sigma_db, 10.0);
        assert_eq!(c.protocol.period_slots, 100);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders() {
        let c = ScenarioConfig::table1(100)
            .seeded(9)
            .ideal_channel()
            .with_coupling(0.1)
            .with_max_slots(SlotDuration(5));
        assert_eq!(c.sim.seed, 9);
        assert_eq!(c.channel.shadowing_sigma_db, 0.0);
        assert_eq!(c.protocol.coupling, 0.1);
        assert_eq!(c.sim.max_slots, SlotDuration(5));
    }

    #[test]
    fn validation_rejects_bad_protocol() {
        let mut c = ScenarioConfig::table1(10);
        c.protocol.refractory_slots = 100;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::table1(10);
        c.protocol.coupling = 0.0;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::table1(10);
        c.protocol.service_classes = 0;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::table1(10);
        c.protocol.discovery_periods = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn engine_mode_defaults_to_event_driven() {
        assert_eq!(ScenarioConfig::table1(10).engine, EngineMode::EventDriven);
        let c = ScenarioConfig::table1(10).with_engine(EngineMode::Stepped);
        assert_eq!(c.engine, EngineMode::Stepped);
        assert_eq!(EngineMode::from_flag("stepped"), Some(EngineMode::Stepped));
        assert_eq!(
            EngineMode::from_flag("event"),
            Some(EngineMode::EventDriven)
        );
        assert_eq!(EngineMode::from_flag("adaptive"), None);
        assert_eq!(EngineMode::from_flag("bogus"), None);
    }

    #[test]
    fn gain_cache_defaults_to_epoch() {
        assert_eq!(ScenarioConfig::table1(10).gain_cache, GainCacheMode::Epoch);
        let c = ScenarioConfig::table1(10).with_gain_cache(GainCacheMode::Off);
        assert_eq!(c.gain_cache, GainCacheMode::Off);
        assert!(c.validate().is_ok());
        assert_eq!(
            GainCacheMode::from_flag("epoch"),
            Some(GainCacheMode::Epoch)
        );
        assert_eq!(GainCacheMode::from_flag("off"), Some(GainCacheMode::Off));
        assert_eq!(GainCacheMode::from_flag("bogus"), None);
    }

    #[test]
    fn faults_default_to_none_and_validate() {
        let c = ScenarioConfig::table1(10);
        assert!(c.faults.is_none());
        assert!(c.validate().is_ok());

        let mut plan = FaultPlan::none();
        plan.drop_prob = 0.5;
        let c = ScenarioConfig::table1(10).with_faults(plan);
        assert!(!c.faults.is_none());
        assert!(c.validate().is_ok());

        // Fault plans referencing devices outside the population fail.
        let bad = FaultPlan {
            churn: vec![ffd2d_chaos::ChurnEvent {
                slot: 1,
                device: 99,
                kind: ffd2d_chaos::ChurnKind::Leave,
            }],
            ..FaultPlan::none()
        };
        assert!(ScenarioConfig::table1(10)
            .with_faults(bad)
            .validate()
            .is_err());
    }

    #[test]
    fn validation_rejects_negative_shadowing() {
        let mut c = ScenarioConfig::table1(10);
        c.channel.shadowing_sigma_db = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_non_finite_floats() {
        type Poke = fn(&mut ScenarioConfig, f64);
        let fields: [(&str, Poke); 5] = [
            ("area_width", |c, x| c.sim.area_width = Meters(x)),
            ("area_height", |c, x| c.sim.area_height = Meters(x)),
            ("dissipation", |c, x| c.protocol.dissipation = x),
            ("coupling", |c, x| c.protocol.coupling = x),
            ("shadowing_sigma_db", |c, x| {
                c.channel.shadowing_sigma_db = x
            }),
        ];
        for (name, poke) in fields {
            for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut c = ScenarioConfig::table1(10);
                poke(&mut c, x);
                assert!(c.validate().is_err(), "{name} = {x} must be rejected");
            }
        }
    }
}
