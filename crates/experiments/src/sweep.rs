//! The Figs. 3 & 4 Monte-Carlo sweep.
//!
//! The paper's two result figures come from the same simulations:
//!
//! * **Fig. 3** — mean convergence time versus number of nodes, for the
//!   proposed ST method and the FST baseline;
//! * **Fig. 4** — mean number of control-message exchanges until
//!   convergence, same axes.
//!
//! [`run_paper_sweep`] runs `trials` independent deployments per node
//! count, executes *both* protocols in each (paired on the identical
//! world: same positions, shadowing, fading — so the comparison is a
//! matched-pairs design), and reduces to the two figures plus a
//! markdown table for EXPERIMENTS.md.
//!
//! Trials that do not converge within the horizon are **censored at the
//! horizon** (the value plotted is a lower bound) and reported in the
//! `censored` columns — at large populations FST routinely fails to
//! converge at all, which is itself the paper's point.

use serde::{Deserialize, Serialize};

use ffd2d_baseline::FstProtocol;
use ffd2d_core::{
    EngineMode, FaultPlan, GainCacheMode, Parallelism, ScenarioConfig, StProtocol, World,
};
use ffd2d_metrics::{Figure, Series, Summary, Table};
use ffd2d_parallel::{run_trials, SweepConfig, TrialCtx};
use ffd2d_sim::time::SlotDuration;

/// Sweep parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepParams {
    /// Node counts (the x-axis of Figs. 3–4).
    pub node_counts: Vec<usize>,
    /// Monte-Carlo trials per node count.
    pub trials: u32,
    /// Simulation horizon per trial (censoring point).
    pub horizon: SlotDuration,
    /// Master seed.
    pub master_seed: u64,
    /// Engine execution strategy. Outcome-neutral (locked by
    /// `tests/engine_equivalence.rs`): the published CSVs are identical
    /// under both modes, only wall clock changes.
    pub engine: EngineMode,
    /// A stub with no effect: nothing reads it, since the medium always
    /// resolves on one thread and the sweep's only parallel layer is the
    /// trial pool. It survives only because the perf harness still sets
    /// it; the change that next edits the harness deletes it.
    pub medium: Parallelism,
    /// Fault-injection spec (`--faults`): a churn preset name or a
    /// `.json` plan path, resolved per node count via
    /// [`FaultPlan::resolve`]. `None` runs the clean sweep (and is then
    /// provably outcome-neutral — the CSVs are bit-identical to a build
    /// without the chaos subsystem at all).
    pub faults: Option<String>,
    /// Gain cache in the fast medium. Outcome-neutral (locked by
    /// `tests/gain_cache.rs`): `Off` recomputes every mean link gain
    /// per slot, `Epoch` (the default) reuses rows across slots until
    /// membership changes. Only wall clock moves.
    pub gain_cache: GainCacheMode,
}

impl Default for SweepParams {
    fn default() -> Self {
        SweepParams {
            node_counts: vec![50, 100, 200, 400, 600, 800, 1000],
            trials: 5,
            horizon: SlotDuration(30_000),
            master_seed: 0x0F19_3D2D,
            engine: EngineMode::default(),
            medium: Parallelism::default(),
            faults: None,
            gain_cache: GainCacheMode::default(),
        }
    }
}

impl SweepParams {
    /// The fault plan of the cell with `n` devices: the `--faults`
    /// preset scaled to `n` and the horizon, or the loaded `.json` plan.
    pub(crate) fn fault_plan(&self, n: usize) -> Result<FaultPlan, String> {
        match &self.faults {
            Some(spec) => FaultPlan::resolve(spec, n, self.horizon.0)
                .map_err(|e| format!("--faults {spec:?}: {e}")),
            None => Ok(FaultPlan::none()),
        }
    }

    /// The scenario of one trial with `n` devices under trial seed
    /// `seed` and fault plan `faults`.
    pub(crate) fn scenario(&self, n: usize, seed: u64, faults: FaultPlan) -> ScenarioConfig {
        ScenarioConfig::table1(n)
            .seeded(seed)
            .with_max_slots(self.horizon)
            .with_engine(self.engine)
            .with_gain_cache(self.gain_cache)
            .with_faults(faults)
    }

    /// Trial 0 of every cell, exactly as the sweep runs it: one
    /// `(n, scenario)` per node count. The `--trace` and `--telemetry`
    /// replays re-run these.
    pub(crate) fn replay_scenarios(&self) -> Result<Vec<(usize, ScenarioConfig)>, String> {
        let sweep = SweepConfig {
            master_seed: self.master_seed,
            trials: self.trials,
        };
        self.node_counts
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let seed = TrialCtx::new(&sweep, i, 0).seed;
                Ok((n, self.scenario(n, seed, self.fault_plan(n)?)))
            })
            .collect()
    }

    /// A fast configuration for tests and smoke runs.
    pub fn quick() -> SweepParams {
        SweepParams {
            node_counts: vec![20, 50, 100],
            trials: 2,
            horizon: SlotDuration(30_000),
            master_seed: 7,
            engine: EngineMode::default(),
            medium: Parallelism::default(),
            faults: None,
            gain_cache: GainCacheMode::default(),
        }
    }
}

/// Per-(protocol, node-count) reduced results.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CellStats {
    /// Convergence time in ms (censored at the horizon).
    pub time_ms: Summary,
    /// Total control messages transmitted.
    pub messages: Summary,
    /// Fraction of reception attempts lost to preamble collisions.
    pub collision_rate: Summary,
    /// Fraction of reception attempts lost below the detection
    /// threshold (the channel's share of the loss).
    pub rx_loss: Summary,
    /// Trials that failed to converge within the horizon.
    pub censored: u32,
    /// Re-convergence time after the last scheduled fault, in ms (only
    /// trials that re-converged contribute; empty on clean sweeps).
    pub reconv_ms: Summary,
    /// Trials that re-converged after the last scheduled fault.
    pub reconverged: u32,
    /// Frames dropped by fault injection, per trial.
    pub fault_drops: Summary,
}

/// The complete sweep output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// Parameters the sweep ran with.
    pub params: SweepParams,
    /// Per node count: `(n, ST stats, FST stats)`.
    pub cells: Vec<(usize, CellStats, CellStats)>,
}

/// One trial's paired raw outcome.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct PairedOutcome {
    st_time: u64,
    st_msgs: u64,
    st_collision: f64,
    st_rx_loss: f64,
    st_converged: bool,
    st_reconv_ms: Option<u64>,
    st_fault_drops: u64,
    fst_time: u64,
    fst_msgs: u64,
    fst_collision: f64,
    fst_rx_loss: f64,
    fst_converged: bool,
    fst_reconv_ms: Option<u64>,
    fst_fault_drops: u64,
}

/// Run the full paired sweep.
pub fn run_paper_sweep(params: &SweepParams) -> SweepReport {
    let cfg = SweepConfig {
        master_seed: params.master_seed,
        trials: params.trials,
    };
    let horizon = params.horizon;
    // Presets scale with the cell's population and horizon, so the plan
    // is resolved once per node count, up front — a bad spec fails the
    // whole sweep before any trial runs.
    let plans: Vec<FaultPlan> = params
        .node_counts
        .iter()
        .map(|&n| params.fault_plan(n).unwrap_or_else(|e| panic!("{e}")))
        .collect();
    let plans = &plans;
    let grouped = run_trials(&params.node_counts, &cfg, |&n, ctx| {
        let scenario = params.scenario(n, ctx.seed, plans[ctx.param_index].clone());
        let world = World::new(&scenario);
        let st = StProtocol::run_in(&world);
        let fst = FstProtocol::run_in(&world);
        PairedOutcome {
            st_time: st.time_or(horizon).as_millis(),
            st_msgs: st.messages(),
            st_collision: st.counters.collision_rate(),
            st_rx_loss: st.counters.rx_loss_rate(),
            st_converged: st.converged(),
            st_reconv_ms: st.reconvergence_time.map(|d| d.as_millis()),
            st_fault_drops: st.counters.fault_dropped_frames,
            fst_time: fst.time_or(horizon).as_millis(),
            fst_msgs: fst.messages(),
            fst_collision: fst.counters.collision_rate(),
            fst_rx_loss: fst.counters.rx_loss_rate(),
            fst_converged: fst.converged(),
            fst_reconv_ms: fst.reconvergence_time.map(|d| d.as_millis()),
            fst_fault_drops: fst.counters.fault_dropped_frames,
        }
    });

    let cells = params
        .node_counts
        .iter()
        .zip(grouped)
        .map(|(&n, outcomes)| {
            let mut st = CellStats {
                time_ms: Summary::new(),
                messages: Summary::new(),
                collision_rate: Summary::new(),
                rx_loss: Summary::new(),
                censored: 0,
                reconv_ms: Summary::new(),
                reconverged: 0,
                fault_drops: Summary::new(),
            };
            let mut fst = st;
            for o in outcomes {
                st.time_ms.push(o.st_time as f64);
                st.messages.push(o.st_msgs as f64);
                st.collision_rate.push(o.st_collision);
                st.rx_loss.push(o.st_rx_loss);
                st.censored += u32::from(!o.st_converged);
                if let Some(r) = o.st_reconv_ms {
                    st.reconv_ms.push(r as f64);
                    st.reconverged += 1;
                }
                st.fault_drops.push(o.st_fault_drops as f64);
                fst.time_ms.push(o.fst_time as f64);
                fst.messages.push(o.fst_msgs as f64);
                fst.collision_rate.push(o.fst_collision);
                fst.rx_loss.push(o.fst_rx_loss);
                fst.censored += u32::from(!o.fst_converged);
                if let Some(r) = o.fst_reconv_ms {
                    fst.reconv_ms.push(r as f64);
                    fst.reconverged += 1;
                }
                fst.fault_drops.push(o.fst_fault_drops as f64);
            }
            (n, st, fst)
        })
        .collect();
    SweepReport {
        params: params.clone(),
        cells,
    }
}

impl SweepReport {
    fn figure(&self, title: &str, y_axis: &str, pick: impl Fn(&CellStats) -> Summary) -> Figure {
        let mut st = Series::new("ST (proposed)");
        let mut fst = Series::new("FST (Chao et al.)");
        for &(n, st_c, fst_c) in &self.cells {
            let s = pick(&st_c);
            st.push_with_error(n as f64, s.mean(), s.ci95_half_width());
            let f = pick(&fst_c);
            fst.push_with_error(n as f64, f.mean(), f.ci95_half_width());
        }
        let mut fig = Figure::new(title, "number of nodes", y_axis);
        fig.series.push(st);
        fig.series.push(fst);
        fig
    }

    /// Fig. 3 — convergence time (ms) vs. node count.
    pub fn fig3(&self) -> Figure {
        self.figure(
            "Fig. 3 — convergence time, ST vs FST",
            "convergence time (ms)",
            |c| c.time_ms,
        )
    }

    /// Fig. 4 — message exchanges vs. node count.
    pub fn fig4(&self) -> Figure {
        self.figure(
            "Fig. 4 — average message exchanges, ST vs FST",
            "messages until convergence",
            |c| c.messages,
        )
    }

    /// The `results/fig3.csv` export: the Fig. 3 convergence-time means
    /// plus the robustness columns a faulted sweep (`--faults`) adds —
    /// per-protocol re-convergence time after the last scheduled fault
    /// and the count of trials that re-converged. On a clean sweep the
    /// re-convergence columns are `0.000` / `0` throughout.
    pub fn fig3_csv(&self) -> String {
        let mut out = String::from(
            "n,st_time_ms_mean,st_time_ms_ci95,fst_time_ms_mean,fst_time_ms_ci95,\
             st_censored,fst_censored,st_reconv_ms_mean,fst_reconv_ms_mean,\
             st_reconverged,fst_reconverged\n",
        );
        for &(n, st, fst) in &self.cells {
            out.push_str(&format!(
                "{n},{:.3},{:.3},{:.3},{:.3},{},{},{:.3},{:.3},{},{}\n",
                st.time_ms.mean(),
                st.time_ms.ci95_half_width(),
                fst.time_ms.mean(),
                fst.time_ms.ci95_half_width(),
                st.censored,
                fst.censored,
                st.reconv_ms.mean(),
                fst.reconv_ms.mean(),
                st.reconverged,
                fst.reconverged,
            ));
        }
        out
    }

    /// The `results/fig4.csv` export: the Fig. 4 message means plus the
    /// loss-attribution columns (collision rate and below-threshold rx
    /// loss per protocol) that diagnose *why* message counts move — at
    /// large n the FST mesh drowns in collisions while ST's staggered
    /// tree traffic does not. A faulted sweep also reports the injected
    /// frame drops and the re-convergence means (zero on clean sweeps).
    pub fn fig4_csv(&self) -> String {
        let mut out = String::from(
            "n,st_msgs_mean,st_msgs_ci95,fst_msgs_mean,fst_msgs_ci95,\
             st_collision_rate,fst_collision_rate,st_rx_loss,fst_rx_loss,\
             st_fault_drops,fst_fault_drops,st_reconv_ms_mean,fst_reconv_ms_mean\n",
        );
        for &(n, st, fst) in &self.cells {
            out.push_str(&format!(
                "{n},{:.3},{:.3},{:.3},{:.3},{:.6},{:.6},{:.6},{:.6},{:.1},{:.1},{:.3},{:.3}\n",
                st.messages.mean(),
                st.messages.ci95_half_width(),
                fst.messages.mean(),
                fst.messages.ci95_half_width(),
                st.collision_rate.mean(),
                fst.collision_rate.mean(),
                st.rx_loss.mean(),
                fst.rx_loss.mean(),
                st.fault_drops.mean(),
                fst.fault_drops.mean(),
                st.reconv_ms.mean(),
                fst.reconv_ms.mean(),
            ));
        }
        out
    }

    /// Markdown table for EXPERIMENTS.md.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new([
            "n",
            "ST time ms (±ci95)",
            "FST time ms (±ci95)",
            "ST msgs",
            "FST msgs",
            "ST censored",
            "FST censored",
        ]);
        for &(n, st, fst) in &self.cells {
            t.push_row([
                n.to_string(),
                format!(
                    "{:.0} (±{:.0})",
                    st.time_ms.mean(),
                    st.time_ms.ci95_half_width()
                ),
                format!(
                    "{:.0} (±{:.0})",
                    fst.time_ms.mean(),
                    fst.time_ms.ci95_half_width()
                ),
                format!("{:.0}", st.messages.mean()),
                format!("{:.0}", fst.messages.mean()),
                format!("{}/{}", st.censored, self.params.trials),
                format!("{}/{}", fst.censored, self.params.trials),
            ]);
        }
        t
    }

    /// The first node count at which the ST mean drops strictly below
    /// the FST mean for the given metric — the crossover the paper's
    /// figures highlight.
    pub fn crossover(&self, messages: bool) -> Option<usize> {
        self.cells
            .iter()
            .find(|&&(_, st, fst)| {
                if messages {
                    st.messages.mean() < fst.messages.mean()
                } else {
                    st.time_ms.mean() < fst.time_ms.mean()
                }
            })
            .map(|&(n, _, _)| n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_has_full_shape() {
        let report = run_paper_sweep(&SweepParams::quick());
        assert_eq!(report.cells.len(), 3);
        for &(_, st, fst) in &report.cells {
            assert_eq!(st.time_ms.count(), 2);
            assert_eq!(fst.time_ms.count(), 2);
            assert!(st.messages.mean() > 0.0);
            assert!(fst.messages.mean() > 0.0);
        }
        let fig3 = report.fig3();
        assert_eq!(fig3.series.len(), 2);
        assert_eq!(fig3.series[0].points.len(), 3);
        let csv = report.fig4().to_csv();
        assert!(csv.contains("ST (proposed)"));
        let fig4 = report.fig4_csv();
        assert!(fig4.starts_with("n,st_msgs_mean"));
        assert!(fig4.contains("st_collision_rate"));
        assert_eq!(fig4.lines().count(), 4);
        let fig3 = report.fig3_csv();
        assert!(fig3.starts_with("n,st_time_ms_mean"));
        assert!(fig3.contains("st_reconv_ms_mean"));
        assert_eq!(fig3.lines().count(), 4);
        // Clean sweep: the robustness columns stay quiet.
        for line in fig3.lines().skip(1) {
            assert!(line.ends_with(",0.000,0.000,0,0"), "{line}");
        }
        for &(_, st, fst) in &report.cells {
            assert!(st.collision_rate.mean() >= 0.0 && st.collision_rate.mean() < 1.0);
            assert!(fst.rx_loss.mean() >= 0.0 && fst.rx_loss.mean() <= 1.0);
        }
        let table = report.to_table();
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = run_paper_sweep(&SweepParams::quick());
        let b = run_paper_sweep(&SweepParams::quick());
        assert_eq!(a.cells.len(), b.cells.len());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.1.time_ms.mean(), y.1.time_ms.mean());
            assert_eq!(x.2.messages.mean(), y.2.messages.mean());
        }
    }

    #[test]
    fn sweep_csvs_identical_under_all_engines() {
        // The engine flag is outcome-neutral: the published figure CSVs
        // must not depend on it.
        let mut p = SweepParams::quick();
        p.node_counts = vec![20, 50];
        p.engine = EngineMode::Stepped;
        let stepped = run_paper_sweep(&p);
        p.engine = EngineMode::EventDriven;
        let event = run_paper_sweep(&p);
        assert_eq!(stepped.fig3().to_csv(), event.fig3().to_csv());
        assert_eq!(stepped.fig4_csv(), event.fig4_csv());
    }

    #[test]
    fn sweep_csvs_identical_with_gain_cache_off() {
        // The gain cache is outcome-neutral: disabling it
        // recomputes every mean link gain but cannot move the CSVs.
        let mut p = SweepParams::quick();
        p.node_counts = vec![20, 50];
        let cached = run_paper_sweep(&p);
        p.gain_cache = GainCacheMode::Off;
        let uncached = run_paper_sweep(&p);
        assert_eq!(cached.fig3().to_csv(), uncached.fig3().to_csv());
        assert_eq!(cached.fig4_csv(), uncached.fig4_csv());
    }

    #[test]
    fn small_n_favors_fst_messages() {
        // The left side of Fig. 4: mesh beats tree on messages at tiny n.
        let params = SweepParams {
            node_counts: vec![20],
            trials: 2,
            horizon: SlotDuration(60_000),
            master_seed: 3,
            ..SweepParams::default()
        };
        let report = run_paper_sweep(&params);
        let (_, st, fst) = report.cells[0];
        assert!(fst.messages.mean() < st.messages.mean());
    }
}
