//! Parameter-sweep Monte-Carlo runner.
//!
//! The experiment shape behind every figure: a parameter grid (node
//! counts, shadowing sigmas, coupling strengths …) × a number of
//! independent trials per point. [`run_trials`] executes every
//! `(param, trial)` cell in parallel and groups raw results by
//! parameter.
//!
//! ## Determinism
//!
//! Each cell receives a [`TrialCtx`] whose `seed` is a pure function of
//! `(master_seed, param index, trial index)` via two SplitMix64 rounds.
//! Results are grouped positionally, so the outcome is bit-identical
//! for any worker count — run it on 1 core or 128 and EXPERIMENTS.md
//! does not change.

use ffd2d_sim::rng::sweep_cell_seed;
use serde::{Deserialize, Serialize};

use crate::pool::parallel_map_with_workers;

/// Sweep-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Master seed; every cell's seed derives from it.
    pub master_seed: u64,
    /// Independent trials per parameter point.
    pub trials: u32,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            master_seed: 0xD2D_F1EE,
            trials: 20,
        }
    }
}

/// Identity of one Monte-Carlo cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrialCtx {
    /// Index of the parameter point in the sweep grid.
    pub param_index: usize,
    /// Trial number within the parameter point (`0..trials`).
    pub trial: u32,
    /// Derived deterministic seed for this cell.
    pub seed: u64,
}

impl TrialCtx {
    /// Derive the cell identity for `(param_index, trial)`. Public so
    /// harnesses can replay an individual sweep cell (e.g. re-run trial
    /// 0 of a node count with tracing enabled) under the exact seed the
    /// sweep used.
    pub fn new(cfg: &SweepConfig, param_index: usize, trial: u32) -> TrialCtx {
        TrialCtx {
            param_index,
            trial,
            seed: sweep_cell_seed(cfg.master_seed, param_index as u64, trial as u64),
        }
    }
}

/// Run `f` on every `(param, trial)` cell; return raw per-param results
/// in trial order.
pub fn run_trials<P, R, F>(params: &[P], cfg: &SweepConfig, f: F) -> Vec<Vec<R>>
where
    P: Sync,
    R: Send,
    F: Fn(&P, TrialCtx) -> R + Sync,
{
    run_trials_with_workers(params, cfg, None, f)
}

/// [`run_trials`] with an explicit worker count (`None` = automatic).
///
/// Exists so the determinism suite can assert the bit-identical-output
/// guarantee directly: the same `(params, cfg, f)` must produce the
/// same grouped results on any pool size.
pub fn run_trials_with_workers<P, R, F>(
    params: &[P],
    cfg: &SweepConfig,
    workers: Option<usize>,
    f: F,
) -> Vec<Vec<R>>
where
    P: Sync,
    R: Send,
    F: Fn(&P, TrialCtx) -> R + Sync,
{
    assert!(cfg.trials > 0, "need at least one trial");
    let cells: Vec<(usize, u32)> = (0..params.len())
        .flat_map(|p| (0..cfg.trials).map(move |t| (p, t)))
        .collect();
    let flat = parallel_map_with_workers(&cells, workers, |&(p, t)| {
        let ctx = TrialCtx::new(cfg, p, t);
        f(&params[p], ctx)
    });
    let mut grouped: Vec<Vec<R>> = (0..params.len())
        .map(|_| Vec::with_capacity(cfg.trials as usize))
        .collect();
    for ((p, _), r) in cells.into_iter().zip(flat) {
        grouped[p].push(r);
    }
    grouped
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping_matches_params() {
        let cfg = SweepConfig {
            master_seed: 1,
            trials: 4,
        };
        let grouped = run_trials(&[10usize, 20, 30], &cfg, |&p, ctx| (p, ctx.trial));
        assert_eq!(grouped.len(), 3);
        for (i, g) in grouped.iter().enumerate() {
            assert_eq!(g.len(), 4);
            for (t, &(p, trial)) in g.iter().enumerate() {
                assert_eq!(p, [10, 20, 30][i]);
                assert_eq!(trial as usize, t);
            }
        }
    }

    #[test]
    fn seeds_are_unique_and_deterministic() {
        let cfg = SweepConfig {
            master_seed: 7,
            trials: 8,
        };
        let a = run_trials(&[0u32, 1, 2], &cfg, |_, ctx| ctx.seed);
        let b = run_trials(&[0u32, 1, 2], &cfg, |_, ctx| ctx.seed);
        assert_eq!(a, b, "same config must give same seeds");
        let mut all: Vec<u64> = a.into_iter().flatten().collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "seed collision across cells");
    }

    #[test]
    fn different_master_seed_changes_cells() {
        let a = run_trials(
            &[0u32],
            &SweepConfig {
                master_seed: 1,
                trials: 2,
            },
            |_, ctx| ctx.seed,
        );
        let b = run_trials(
            &[0u32],
            &SweepConfig {
                master_seed: 2,
                trials: 2,
            },
            |_, ctx| ctx.seed,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn empty_params_is_fine() {
        let cfg = SweepConfig::default();
        let res = run_trials(&[] as &[u32], &cfg, |_, _| 0.0);
        assert!(res.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let cfg = SweepConfig {
            master_seed: 0,
            trials: 0,
        };
        let _ = run_trials(&[1u32], &cfg, |_, _| 0.0);
    }
}
