//! Reproducibility guarantees across the whole stack: every published
//! number must be a pure function of `(scenario, master seed)`.

use ffd2d::baseline::FstProtocol;
use ffd2d::core::{Parallelism, ScenarioConfig, StProtocol, World};
use ffd2d::experiments::sweep::{run_paper_sweep, SweepParams};
use ffd2d::sim::time::SlotDuration;

fn scenario(seed: u64) -> ScenarioConfig {
    ScenarioConfig::table1(25)
        .seeded(seed)
        .with_max_slots(SlotDuration(120_000))
}

#[test]
fn identical_seeds_identical_outcomes() {
    let a = StProtocol::run(&scenario(99));
    let b = StProtocol::run(&scenario(99));
    assert_eq!(a, b);
    let fa = FstProtocol::run(&scenario(99));
    let fb = FstProtocol::run(&scenario(99));
    assert_eq!(fa, fb);
}

#[test]
fn different_seeds_differ() {
    let a = StProtocol::run(&scenario(1));
    let b = StProtocol::run(&scenario(2));
    // Different deployment → different tree and timing.
    assert_ne!(a.tree_edges, b.tree_edges);
}

#[test]
fn world_construction_is_stable() {
    let cfg = scenario(5);
    let w1 = World::new(&cfg);
    let w2 = World::new(&cfg);
    assert_eq!(w1.deployment().positions(), w2.deployment().positions());
    assert_eq!(w1.proximity_graph().edges(), w2.proximity_graph().edges());
    for a in 0..w1.n() as u32 {
        for b in 0..w1.n() as u32 {
            if a != b {
                assert_eq!(
                    w1.rx_dbm(a, b, ffd2d::sim::Slot(123)),
                    w2.rx_dbm(a, b, ffd2d::sim::Slot(123))
                );
            }
        }
    }
}

#[test]
fn sweep_reports_are_bitwise_reproducible() {
    // The Monte-Carlo harness must give identical reports on repeat
    // runs (and therefore across machines/thread counts by design).
    let params = SweepParams {
        node_counts: vec![15, 30],
        trials: 2,
        horizon: SlotDuration(60_000),
        master_seed: 42,
        ..Default::default()
    };
    let a = run_paper_sweep(&params);
    let b = run_paper_sweep(&params);
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!(x.0, y.0);
        assert_eq!(x.1.time_ms.mean().to_bits(), y.1.time_ms.mean().to_bits());
        assert_eq!(x.2.messages.mean().to_bits(), y.2.messages.mean().to_bits());
    }
}

#[test]
fn sweep_output_is_invariant_under_worker_count() {
    // The parallel harness hands each (param, trial) cell a seed that is
    // a pure function of (master seed, cell), so the grouped output —
    // full protocol runs over the grid-backed medium — must be
    // bit-identical whether the pool has 1, 2 or 8 workers.
    use ffd2d::parallel::{run_trials_with_workers, SweepConfig};

    let params = [10usize, 25];
    let cfg = SweepConfig {
        master_seed: 0xD2D_CAFE,
        trials: 3,
    };
    let trial = |&n: &usize, ctx: ffd2d::parallel::TrialCtx| {
        let scenario = ScenarioConfig::table1(n)
            .seeded(ctx.seed)
            .with_max_slots(SlotDuration(60_000));
        StProtocol::run(&scenario)
    };
    let single = run_trials_with_workers(&params, &cfg, Some(1), trial);
    for workers in [2usize, 8] {
        let parallel = run_trials_with_workers(&params, &cfg, Some(workers), trial);
        assert_eq!(
            single, parallel,
            "sweep output changed with {workers} workers"
        );
    }
}

#[test]
fn protocol_outcome_does_not_depend_on_unrelated_streams() {
    // Consuming the Experiment stream elsewhere must not perturb a
    // trial: streams are independent by construction.
    use ffd2d::sim::rng::{StreamId, StreamRng};
    use rand::Rng;
    let a = StProtocol::run(&scenario(7));
    let mut unrelated = StreamRng::new(7, 0, StreamId::Experiment);
    let _: f64 = unrelated.gen();
    let b = StProtocol::run(&scenario(7));
    assert_eq!(a, b);
}

/// The perf harness still builds its scenarios through
/// `with_parallelism`; the stub must leave every run untouched.
#[test]
fn with_parallelism_stub_changes_no_outcome() {
    let cfg = scenario(42);
    let stubbed = cfg.clone().with_parallelism(Parallelism::Off);
    assert_eq!(format!("{cfg:?}"), format!("{stubbed:?}"));
    assert_eq!(StProtocol::run(&cfg), StProtocol::run(&stubbed));
    assert_eq!(FstProtocol::run(&cfg), FstProtocol::run(&stubbed));
}
