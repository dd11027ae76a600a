//! Ablations A1–A4.
//! Usage: ablation [sigma|coupling|density|topology|all]
//!                 [--engine stepped|event]
//!                 [--faults churn-light|churn-heavy|lossy|PLAN.json]
//!                 [--trace DIR] [--telemetry DIR]
//!
//! `--engine` selects the slot engine for the radio-backed sweeps
//! (A1, A3); results are bit-identical under every setting.
//!
//! With `--trace DIR`, additionally runs one traced ST trial of the
//! Table-I baseline ablation scenario (n = AblationParams default,
//! master seed): a JSONL event log at DIR/ablation_st.jsonl plus
//! results/timeline_ablation_st.csv. `--faults` attaches a seeded
//! churn / frame-loss plan to that traced trial, so the timeline shows
//! the fragment split and re-convergence after each fault.
//!
//! With `--telemetry DIR`, runs one self-profiled ST trial of the same
//! baseline scenario: a run manifest at DIR/ablation_st.json (+ .prom),
//! readable with `perf_inspect`.

use ffd2d_core::ScenarioConfig;
use ffd2d_experiments::ablation::{
    coupling_sweep, density_sweep, shadowing_sweep, topology_comparison, AblationParams,
};
use ffd2d_sim::time::SlotDuration;

fn main() {
    // Validate `--trace` / `--telemetry` / `--faults` usage before
    // paying for the sweeps.
    let trace_dir = ffd2d_experiments::trace_dir_from_args();
    let telemetry_dir = ffd2d_experiments::telemetry_dir_from_args();
    let fault_spec = ffd2d_experiments::faults_from_args();
    // A leading flag (e.g. `ablation --engine stepped`) means "all".
    let which = std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with("--"))
        .unwrap_or_else(|| "all".into());
    let mut params = AblationParams::default();
    if let Some(engine) = ffd2d_experiments::engine_from_args() {
        params.engine = engine;
    }
    if let Some(mode) = ffd2d_experiments::gain_cache_from_args() {
        params.gain_cache = mode;
    }
    if which == "sigma" || which == "all" {
        println!("== A1: shadowing sigma sweep (ST, n={}) ==", params.n);
        for p in shadowing_sweep(&params, &[0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]) {
            println!(
                "  sigma={:4.1} dB: time {:7.0} ms (±{:.0}), msgs {:8.0}",
                p.x,
                p.time_ms.mean(),
                p.time_ms.ci95_half_width(),
                p.messages.mean()
            );
        }
    }
    if which == "coupling" || which == "all" {
        // Small population: with synchronous in-slot cascades a large
        // all-to-all mesh absorbs in one slot, hiding the ε effect.
        let params = AblationParams {
            n: 10,
            trials: 10,
            horizon: SlotDuration(400_000),
            ..params
        };
        println!(
            "== A2: coupling strength sweep (radio-free mesh, n={}) ==",
            params.n
        );
        for p in coupling_sweep(&params, &[0.01, 0.02, 0.05, 0.1, 0.2]) {
            println!(
                "  eps={:5.2}: slots-to-sync {:8.0} (±{:.0})",
                p.x,
                p.time_ms.mean(),
                p.time_ms.ci95_half_width()
            );
        }
    }
    if which == "density" || which == "all" {
        println!("== A3: density sweep (ST, n={}) ==", params.n);
        for p in density_sweep(&params, &[60.0, 80.0, 100.0, 140.0, 200.0]) {
            println!(
                "  side={:5.0} m: time {:7.0} ms (±{:.0}), msgs {:8.0}",
                p.x,
                p.time_ms.mean(),
                p.time_ms.ci95_half_width(),
                p.messages.mean()
            );
        }
    }
    if which == "topology" || which == "all" {
        let params = AblationParams {
            n: 16,
            trials: 10,
            horizon: SlotDuration(2_000_000),
            ..params
        };
        println!(
            "== A4: mesh vs path coupling (radio-free, n={}) ==",
            params.n
        );
        let (mesh, path) = topology_comparison(&params);
        println!(
            "  mesh: {:8.0} slots (±{:.0})",
            mesh.mean(),
            mesh.ci95_half_width()
        );
        println!(
            "  path: {:8.0} slots (±{:.0})",
            path.mean(),
            path.ci95_half_width()
        );
    }
    if trace_dir.is_some() || telemetry_dir.is_some() {
        let params = AblationParams::default();
        let faults = match &fault_spec {
            Some(spec) => match ffd2d_core::FaultPlan::resolve(spec, params.n, params.horizon.0) {
                Ok(plan) => plan,
                Err(e) => {
                    eprintln!("--faults: {e}");
                    std::process::exit(2);
                }
            },
            None => ffd2d_core::FaultPlan::none(),
        };
        let scenario = ScenarioConfig::table1(params.n)
            .seeded(params.seed)
            .with_max_slots(params.horizon)
            .with_faults(faults);
        if let Some(dir) = trace_dir {
            match ffd2d_experiments::trace::write_st_trace(&scenario, &dir, "ablation_st") {
                Ok(path) => eprintln!(
                    "traced baseline ST trial: {} + results/timeline_ablation_st.csv",
                    path.display()
                ),
                Err(e) => {
                    eprintln!("--trace failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        if let Some(dir) = telemetry_dir {
            match ffd2d_experiments::telemetry::write_st_telemetry(&scenario, &dir, "ablation_st") {
                Ok(path) => eprintln!(
                    "profiled baseline ST trial: {} (render with perf_inspect)",
                    path.display()
                ),
                Err(e) => {
                    eprintln!("--telemetry failed: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}
