//! The named workloads, the end-to-end call each one makes, and the
//! instrumented replay that feeds the per-layer numbers.
//!
//! Every workload is a closed-loop batch job: one run at a time, and in
//! the sweep one trial per pool worker. Inputs come only from the
//! master seed, so a seed names one exact set of deployments.

use std::time::Instant;

use ffd2d_baseline::FstProtocol;
use ffd2d_core::{FaultPlan, Parallelism, RunOutcome, ScenarioConfig, StProtocol, World};
use ffd2d_experiments::sweep::{run_paper_sweep, CellStats, SweepParams, SweepReport};
use ffd2d_metrics::Summary;
use ffd2d_parallel::{available_workers, parallel_map_with_workers, SweepConfig, TrialCtx};
use ffd2d_sim::deployment::Meters;
use ffd2d_sim::time::SlotDuration;
use ffd2d_trace::NullSink;

use crate::spans::{SpanRecorder, ENGINE_INIT, TRIAL, WORLD_NEW};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Dense,
    Sparse,
    Churn,
    Sweep,
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    kind: Kind,
    /// Devices per run; for the sweep, its largest node count.
    n: usize,
    /// Monte-Carlo trials per node count (sweep only).
    trials: u32,
}

/// The benchmark's workloads, in the order `perf` runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dense_st_2000",
        kind: Kind::Dense,
        n: 2000,
        trials: 1,
    },
    Workload {
        name: "sparse_st_1000",
        kind: Kind::Sparse,
        n: 1000,
        trials: 1,
    },
    Workload {
        name: "churn_st_500",
        kind: Kind::Churn,
        n: 500,
        trials: 1,
    },
    Workload {
        name: "fig3_sweep",
        kind: Kind::Sweep,
        n: 60,
        // FST's convergence time is heavy-tailed, so the sweep's cost
        // depends on the seed: over ten seeds its median run time spread
        // by up to 10 % at 32 trials and up to 6.5 % at 64.
        trials: 64,
    },
];

/// Horizon of the dense cell: enough resolved slots that the p90 of
/// per-slot resolve time has at least 30 samples beyond it.
const DENSE_SLOTS: u64 = 300;
const SPARSE_SLOTS: u64 = 200_000;
const CHURN_SLOTS: u64 = 3_000;

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload at `n` devices (and, for the sweep, two trials
    /// per node count) — the small version the smoke tests run.
    pub fn scaled(self, n: usize) -> Workload {
        Workload {
            n,
            trials: self.trials.min(2),
            ..self
        }
    }

    /// The inputs this workload runs under master seed `seed`.
    pub fn shape(&self, seed: u64) -> Shape {
        let n = self.n;
        let table1 = || {
            ScenarioConfig::table1(n)
                .seeded(seed)
                .with_parallelism(Parallelism::Off)
        };
        match self.kind {
            Kind::Dense => Shape::Single(table1().with_max_slots(SlotDuration(DENSE_SLOTS))),
            Kind::Sparse => {
                let mut cfg = table1()
                    .with_max_slots(SlotDuration(SPARSE_SLOTS))
                    .ideal_channel();
                cfg.sim.area_width = Meters(2000.0);
                cfg.sim.area_height = Meters(2000.0);
                cfg.protocol.period_slots = 20_000;
                Shape::Single(cfg)
            }
            Kind::Churn => {
                let plan = FaultPlan::resolve("churn-heavy", n, CHURN_SLOTS)
                    .expect("churn-heavy is a built-in preset");
                Shape::Single(
                    table1()
                        .with_max_slots(SlotDuration(CHURN_SLOTS))
                        .with_faults(plan),
                )
            }
            Kind::Sweep => Shape::Sweep(SweepParams {
                node_counts: vec![n / 2, n],
                trials: self.trials,
                master_seed: seed,
                medium: Parallelism::Off,
                ..SweepParams::default()
            }),
        }
    }
}

/// A workload's inputs under one seed.
#[derive(Debug, Clone)]
pub enum Shape {
    /// One ST run.
    Single(ScenarioConfig),
    /// The paired ST+FST Monte-Carlo sweep.
    Sweep(SweepParams),
}

/// One trial of a replay: a world, ST in it, and FST in the same world
/// when the shape is the paired sweep.
#[derive(Debug, Clone)]
struct Trial {
    cfg: ScenarioConfig,
    paired: bool,
}

/// An instrumented replay of every trial of a shape.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Every trial's spans, counters and observation sums, in trial order.
    pub rec: SpanRecorder,
    /// Outcome digest, comparable with [`Shape::run_plain`]'s.
    pub digest: u64,
    /// Trial-pool workers the replay ran on.
    pub workers: usize,
    /// Control messages over every run (ST and FST).
    pub messages: u64,
    /// Merge rounds over every run.
    pub merge_rounds: u64,
}

impl Shape {
    /// The end-to-end call a user makes — `StProtocol::run` or
    /// `run_paper_sweep` — returning its outcome digest.
    pub fn run_plain(&self) -> u64 {
        match self {
            Shape::Single(cfg) => outcome_digest(&StProtocol::run(cfg)),
            Shape::Sweep(params) => report_digest(&run_paper_sweep(params)),
        }
    }

    /// The shape's trials, in the order the sweep runs them.
    fn trials(&self) -> Vec<Trial> {
        match self {
            Shape::Single(cfg) => vec![Trial {
                cfg: cfg.clone(),
                paired: false,
            }],
            Shape::Sweep(p) => {
                let sweep = SweepConfig {
                    master_seed: p.master_seed,
                    trials: p.trials,
                };
                // The same per-trial scenario `run_paper_sweep` builds.
                let mut out = Vec::new();
                for (i, &n) in p.node_counts.iter().enumerate() {
                    for t in 0..p.trials {
                        let cfg = ScenarioConfig::table1(n)
                            .seeded(TrialCtx::new(&sweep, i, t).seed)
                            .with_max_slots(p.horizon)
                            .with_engine(p.engine)
                            .with_parallelism(p.medium)
                            .with_gain_cache(p.gain_cache);
                        out.push(Trial { cfg, paired: true });
                    }
                }
                out
            }
        }
    }

    /// Replay every trial with a [`SpanRecorder`] passed into the
    /// engines' `run_in_instrumented` hooks, on the same trial pool the
    /// sweep uses.
    pub fn replay(&self) -> Replay {
        self.replay_on(&self.trials(), self.workers())
    }

    /// Threads the end-to-end call runs on: the sweep's trial pool, or
    /// one.
    pub fn workers(&self) -> usize {
        match self {
            Shape::Single(_) => 1,
            Shape::Sweep(p) => available_workers(p.node_counts.len() * p.trials as usize),
        }
    }

    /// Set-up seconds — `World::new` plus engine construction, summed
    /// over the trials — from one serial replay cut to a 1-slot horizon.
    /// The horizon does not enter either constructor.
    pub fn setup_probe(&self) -> f64 {
        let trials: Vec<Trial> = self
            .trials()
            .into_iter()
            .map(|t| Trial {
                cfg: t.cfg.with_max_slots(SlotDuration(1)),
                ..t
            })
            .collect();
        let b = self.replay_on(&trials, 1).rec.breakdown();
        b.total_s(WORLD_NEW) + b.total_s(ENGINE_INIT)
    }

    fn replay_on(&self, trials: &[Trial], workers: usize) -> Replay {
        let origin = Instant::now();
        let runs = parallel_map_with_workers(trials, Some(workers), |t| replay_trial(t, origin));
        let mut rec = SpanRecorder::new(origin);
        let mut outcomes = Vec::with_capacity(runs.len());
        let (mut messages, mut merge_rounds) = (0, 0);
        for (r, st, fst) in runs {
            rec.merge(r);
            for o in std::iter::once(&st).chain(&fst) {
                messages += o.messages();
                merge_rounds += u64::from(o.merge_rounds);
            }
            outcomes.push((st, fst));
        }
        let digest = match self {
            Shape::Single(_) => outcome_digest(&outcomes[0].0),
            Shape::Sweep(p) => report_digest(&sweep_report(p, &outcomes)),
        };
        Replay {
            rec,
            digest,
            workers,
            messages,
            merge_rounds,
        }
    }
}

/// One trial under its own recorder: `World::new`, then each engine
/// call. The engine's run span arrives last from each call, so the
/// stretch from the call to that span's start is engine set-up.
fn replay_trial(t: &Trial, origin: Instant) -> (SpanRecorder, RunOutcome, Option<RunOutcome>) {
    let mut rec = SpanRecorder::new(origin);
    let t0 = rec.now();
    let world = World::new(&t.cfg);
    rec.span(WORLD_NEW, t0, rec.now());
    let st = engine_call(&mut rec, |r| {
        StProtocol::run_in_instrumented(&world, &mut NullSink, r)
    });
    let fst = t.paired.then(|| {
        engine_call(&mut rec, |r| {
            FstProtocol::run_in_instrumented(&world, &mut NullSink, r)
        })
    });
    drop(world);
    rec.span(TRIAL, t0, rec.now());
    (rec, st, fst)
}

fn engine_call(
    rec: &mut SpanRecorder,
    run: impl FnOnce(&mut SpanRecorder) -> RunOutcome,
) -> RunOutcome {
    let call = rec.now();
    let out = run(rec);
    let started = match rec.last() {
        Some(s) if s.name == "engine.run" => s.start,
        other => panic!("the engine's run span must arrive last, got {other:?}"),
    };
    rec.span(ENGINE_INIT, call, started);
    out
}

/// `run_paper_sweep`'s reduction of paired trial outcomes, so a replay
/// yields the same figure CSVs as the sweep it replays.
fn sweep_report(p: &SweepParams, outcomes: &[(RunOutcome, Option<RunOutcome>)]) -> SweepReport {
    let empty = CellStats {
        time_ms: Summary::new(),
        messages: Summary::new(),
        collision_rate: Summary::new(),
        rx_loss: Summary::new(),
        censored: 0,
        reconv_ms: Summary::new(),
        reconverged: 0,
        fault_drops: Summary::new(),
    };
    let push = |c: &mut CellStats, o: &RunOutcome| {
        c.time_ms.push(o.time_or(p.horizon).as_millis() as f64);
        c.messages.push(o.messages() as f64);
        c.collision_rate.push(o.counters.collision_rate());
        c.rx_loss.push(o.counters.rx_loss_rate());
        c.censored += u32::from(!o.converged());
        if let Some(r) = o.reconvergence_time {
            c.reconv_ms.push(r.as_millis() as f64);
            c.reconverged += 1;
        }
        c.fault_drops.push(o.counters.fault_dropped_frames as f64);
    };
    let cells = p
        .node_counts
        .iter()
        .zip(outcomes.chunks(p.trials as usize))
        .map(|(&n, trials)| {
            let (mut st, mut fst) = (empty, empty);
            for (s, f) in trials {
                push(&mut st, s);
                push(&mut fst, f.as_ref().expect("sweep trials are paired"));
            }
            (n, st, fst)
        })
        .collect();
    SweepReport {
        params: p.clone(),
        cells,
    }
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn outcome_digest(o: &RunOutcome) -> u64 {
    fnv1a(format!("{o:?}").as_bytes())
}

fn report_digest(r: &SweepReport) -> u64 {
    fnv1a((r.fig3_csv() + &r.fig4_csv()).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name), Some(w));
        }
        assert_eq!(Workload::by_name("nope"), None);
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
