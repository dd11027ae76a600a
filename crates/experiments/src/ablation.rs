//! Ablations A1–A4 — the design-choice studies DESIGN.md calls out.
//!
//! * **A1 — shadowing σ sweep**: how channel uncertainty affects the ST
//!   method (σ drives the RSSI ranging error of eq. (12), which drives
//!   edge-weight quality, which drives merge efficiency).
//! * **A2 — coupling ε sweep**: the Mirollo–Strogatz knob of eq. (5);
//!   runs the *radio-free* oscillator population so the effect is
//!   isolated from channel artefacts.
//! * **A3 — density sweep**: fixed n, scaled arena.
//! * **A4 — topology**: mesh vs. tree coupling on the ideal oscillator
//!   population (the paper's core design decision, without any radio).

use ffd2d_core::{EngineMode, GainCacheMode, ScenarioConfig, StProtocol};
use ffd2d_metrics::Summary;
use ffd2d_osc::network::CoupledNetwork;
use ffd2d_osc::prc::Prc;
use ffd2d_parallel::{run_trials, SweepConfig};
use ffd2d_sim::deployment::Meters;
use ffd2d_sim::rng::{StreamId, StreamRng};
use ffd2d_sim::time::SlotDuration;

/// Common ablation knobs.
#[derive(Debug, Clone, Copy)]
pub struct AblationParams {
    /// Devices per trial.
    pub n: usize,
    /// Trials per sweep point.
    pub trials: u32,
    /// Horizon (censoring point).
    pub horizon: SlotDuration,
    /// Master seed.
    pub seed: u64,
    /// Engine execution strategy for the radio-backed sweeps (A1, A3);
    /// outcome-neutral, see `tests/engine_equivalence.rs`. The
    /// radio-free oscillator studies (A2, A4) have no slot engine.
    pub engine: EngineMode,
    /// Gain cache for the radio-backed sweeps; also
    /// outcome-neutral, see `tests/gain_cache.rs`.
    pub gain_cache: GainCacheMode,
}

impl Default for AblationParams {
    fn default() -> Self {
        AblationParams {
            n: 100,
            trials: 5,
            horizon: SlotDuration(40_000),
            seed: 0xAB1A,
            engine: EngineMode::default(),
            gain_cache: GainCacheMode::default(),
        }
    }
}

/// One sweep point's reduced stats.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// The swept parameter value.
    pub x: f64,
    /// Convergence time in ms (censored at the horizon).
    pub time_ms: Summary,
    /// Messages until convergence.
    pub messages: Summary,
}

fn run_st_sweep<F>(params: &AblationParams, xs: &[f64], scenario_for: F) -> Vec<Point>
where
    F: Fn(f64) -> ScenarioConfig + Sync,
{
    let cfg = SweepConfig {
        master_seed: params.seed,
        trials: params.trials,
    };
    let horizon = params.horizon;
    let engine = params.engine;
    let gain_cache = params.gain_cache;
    let grouped = run_trials(xs, &cfg, |&x, ctx| {
        let scenario = scenario_for(x)
            .seeded(ctx.seed)
            .with_max_slots(horizon)
            .with_engine(engine)
            .with_gain_cache(gain_cache);
        let out = StProtocol::run(&scenario);
        (
            out.time_or(horizon).as_millis() as f64,
            out.messages() as f64,
        )
    });
    xs.iter()
        .zip(grouped)
        .map(|(&x, samples)| {
            let mut time_ms = Summary::new();
            let mut messages = Summary::new();
            for (t, m) in samples {
                time_ms.push(t);
                messages.push(m);
            }
            Point {
                x,
                time_ms,
                messages,
            }
        })
        .collect()
}

/// A1 — ST convergence vs. shadowing σ (dB).
pub fn shadowing_sweep(params: &AblationParams, sigmas: &[f64]) -> Vec<Point> {
    let n = params.n;
    run_st_sweep(params, sigmas, move |sigma| {
        ScenarioConfig::table1(n).with_shadowing(sigma)
    })
}

/// A3 — ST convergence vs. area side length (m) at fixed n.
pub fn density_sweep(params: &AblationParams, sides_m: &[f64]) -> Vec<Point> {
    let n = params.n;
    run_st_sweep(params, sides_m, move |side| {
        let mut cfg = ScenarioConfig::table1(n);
        cfg.sim.area_width = Meters(side);
        cfg.sim.area_height = Meters(side);
        cfg
    })
}

/// A2 — radio-free coupling-strength sweep on a full mesh: slots to
/// synchrony per ε (the eq. (5) knob in isolation).
pub fn coupling_sweep(params: &AblationParams, epsilons: &[f64]) -> Vec<Point> {
    let cfg = SweepConfig {
        master_seed: params.seed,
        trials: params.trials,
    };
    let horizon = params.horizon.0;
    let n = params.n;
    let grouped = run_trials(epsilons, &cfg, |&eps, ctx| {
        let prc = Prc::from_dissipation(3.0, eps);
        let mut rng = StreamRng::new(ctx.seed, 0, StreamId::Experiment);
        let mut net = CoupledNetwork::full_mesh(n, 100, 5, prc, &mut rng);
        let out = net.run_to_sync(horizon);
        (
            out.slots_to_sync.unwrap_or(horizon) as f64,
            out.pulses_sent as f64,
        )
    });
    epsilons
        .iter()
        .zip(grouped)
        .map(|(&x, samples)| {
            let mut time_ms = Summary::new();
            let mut messages = Summary::new();
            for (t, m) in samples {
                time_ms.push(t);
                messages.push(m);
            }
            Point {
                x,
                time_ms,
                messages,
            }
        })
        .collect()
}

/// A4 — radio-free mesh vs. tree-path coupling: `(mesh, path)` mean
/// slots to synchrony. Isolates the pure-topology effect the tree
/// design trades against its message savings.
pub fn topology_comparison(params: &AblationParams) -> (Summary, Summary) {
    let cfg = SweepConfig {
        master_seed: params.seed,
        trials: params.trials,
    };
    let horizon = params.horizon.0;
    let n = params.n;
    let grouped = run_trials(&[false, true], &cfg, |&tree, ctx| {
        let prc = Prc::standard();
        let mut rng = StreamRng::new(ctx.seed, 0, StreamId::Experiment);
        let mut net = if tree {
            let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
            CoupledNetwork::from_edges(n, &edges, 100, 5, prc, &mut rng)
        } else {
            CoupledNetwork::full_mesh(n, 100, 5, prc, &mut rng)
        };
        net.run_to_sync(horizon).slots_to_sync.unwrap_or(horizon) as f64
    });
    (
        Summary::from_samples(grouped[0].iter().copied()),
        Summary::from_samples(grouped[1].iter().copied()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AblationParams {
        AblationParams {
            n: 20,
            trials: 2,
            horizon: SlotDuration(60_000),
            seed: 5,
            ..Default::default()
        }
    }

    #[test]
    fn shadowing_sweep_runs() {
        let pts = shadowing_sweep(&tiny(), &[0.0, 10.0]);
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert!(p.time_ms.mean() > 0.0);
            assert_eq!(p.time_ms.count(), 2);
        }
    }

    #[test]
    fn coupling_sweep_stronger_is_faster() {
        let params = AblationParams {
            n: 30,
            trials: 3,
            horizon: SlotDuration(300_000),
            seed: 6,
            ..Default::default()
        };
        let pts = coupling_sweep(&params, &[0.01, 0.2]);
        assert!(
            pts[1].time_ms.mean() <= pts[0].time_ms.mean(),
            "eps 0.2 ({}) should beat eps 0.01 ({})",
            pts[1].time_ms.mean(),
            pts[0].time_ms.mean()
        );
    }

    #[test]
    fn topology_mesh_no_slower_than_path() {
        let (mesh, path) = topology_comparison(&AblationParams {
            n: 20,
            trials: 3,
            horizon: SlotDuration(500_000),
            seed: 7,
            ..Default::default()
        });
        assert!(mesh.mean() <= path.mean());
    }

    #[test]
    fn density_sweep_runs() {
        let pts = density_sweep(&tiny(), &[60.0, 100.0]);
        assert_eq!(pts.len(), 2);
    }
}
