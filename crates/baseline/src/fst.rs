//! The FST mesh firefly protocol.
//!
//! The mesh baseline has no protocol logic beyond its coupling rule:
//! [`CouplingMode::Mesh`] from slot 0 and no tree machinery at all — no
//! convergecasts, no RACH2 handshakes, no fragments. Message cost is
//! therefore pure RACH1 fire traffic — but *convergence* must be won
//! against the full mesh: every firing couples every audible receiver,
//! and as the population grows in the fixed Table-I area, simultaneous
//! fires of partially-synchronized groups collide and the capture
//! margin decides who is heard. This is exactly the scalability wall
//! the paper's Figs. 3–4 report for FST.
//!
//! Everything else — the fire stagger, frame faults, churn, the wake
//! set and both execution strategies of [`EngineMode`](ffd2d_core::EngineMode)
//! — is the slot runtime the ST engine runs on
//! ([`ffd2d_core::runtime`]), so every difference between the two
//! protocols in Figs. 3–4 is protocol, not plumbing.

use ffd2d_core::device::CouplingMode;
use ffd2d_core::outcome::RunOutcome;
use ffd2d_core::runtime::{self, Protocol, SlotRuntime};
use ffd2d_core::scenario::ScenarioConfig;
use ffd2d_core::world::World;
use ffd2d_telemetry::{NullRecorder, Recorder};
use ffd2d_trace::{NullSink, ProtoPhase, TraceSink};

/// The mesh firefly baseline.
pub struct FstProtocol;

impl FstProtocol {
    /// Run one trial of the scenario.
    pub fn run(cfg: &ScenarioConfig) -> RunOutcome {
        Self::run_in(&World::new(cfg))
    }

    /// Run one trial in a pre-built world (paired comparisons share the
    /// world with the ST engine).
    pub fn run_in(world: &World) -> RunOutcome {
        Self::run_in_instrumented(world, &mut NullSink, &mut NullRecorder)
    }

    /// [`FstProtocol::run_in`] observed: protocol events go to `sink`,
    /// performance telemetry to `rec`; pass [`NullSink`] /
    /// [`NullRecorder`] for the side not wanted. The mesh baseline has
    /// no discovery or merge machinery, so the trace is one long `Sync`
    /// phase of fire traffic and oscillator adjustments, and
    /// `SlotStats.fragments` stays at `n` (nothing ever merges). Both
    /// observers are strictly observational: the outcome is
    /// bit-identical whatever is attached, and the disabled observers
    /// compile every emission site out. Neither observer changes the
    /// loop the scenario's engine picks (see [`runtime::run`]).
    pub fn run_in_instrumented<S: TraceSink, R: Recorder>(
        world: &World,
        sink: &mut S,
        rec: &mut R,
    ) -> RunOutcome {
        runtime::run::<Mesh, S, R>(world, sink, rec)
    }
}

/// The mesh protocol's hooks: every device couples to every audible
/// fire from slot 0, and the run is one long sync phase probed from
/// slot 0. A leave silences the device and a join brings it back with
/// an emptied neighbour table (both done by the runtime); the full-mesh
/// coupling re-entrains it without any protocol machinery, and with no
/// tree, leaves never orphan fragments.
struct Mesh;

impl Protocol for Mesh {
    const START_PHASE: ProtoPhase = ProtoPhase::Sync;

    fn new<S: TraceSink, R: Recorder, const EV: bool>(rt: &mut SlotRuntime<'_, S, R, EV>) -> Self {
        for d in &mut rt.devices {
            d.coupling = CouplingMode::Mesh;
        }
        Mesh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffd2d_core::{EngineMode, StProtocol};
    use ffd2d_sim::time::SlotDuration;

    fn cfg(n: usize, seed: u64) -> ScenarioConfig {
        ScenarioConfig::table1(n)
            .seeded(seed)
            .with_max_slots(SlotDuration(120_000))
    }

    #[test]
    fn small_mesh_converges() {
        let out = FstProtocol::run(&cfg(10, 1).ideal_channel());
        assert!(out.converged(), "{out:?}");
        assert!(out.tree_edges.is_empty());
        assert_eq!(out.merge_rounds, 0);
    }

    #[test]
    fn table1_scenario_converges() {
        let out = FstProtocol::run(&cfg(50, 2));
        assert!(out.converged(), "{out:?}");
    }

    #[test]
    fn messages_are_pure_fire_traffic() {
        let out = FstProtocol::run(&cfg(20, 3));
        assert_eq!(out.counters.rach2_tx, 0);
        assert_eq!(out.counters.unicast_tx, 0);
        assert!(out.counters.rach1_tx > 0);
        assert_eq!(out.messages(), out.counters.rach1_tx);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = FstProtocol::run(&cfg(15, 4));
        let b = FstProtocol::run(&cfg(15, 4));
        assert_eq!(a, b);
    }

    #[test]
    fn engine_modes_agree() {
        for seed in [1, 4, 9] {
            let stepped = FstProtocol::run(&cfg(25, seed).with_engine(EngineMode::Stepped));
            let event = FstProtocol::run(&cfg(25, seed).with_engine(EngineMode::EventDriven));
            assert_eq!(stepped, event, "seed {seed}");
        }
    }

    #[test]
    fn discovery_is_passive_and_bounded_by_convergence() {
        // FST discovers only while it runs: the mesh often synchronizes
        // within a few periods, so passive discovery stays partial —
        // one of the trade-offs the ST method's explicit discovery
        // phase avoids.
        let out = FstProtocol::run(&cfg(30, 5));
        let c = out.discovery_completeness();
        assert!(c > 0.3, "completeness {c}");
        assert!(out.service_matches > 0);
    }

    #[test]
    fn fst_beats_st_on_messages_at_small_n() {
        // Fig. 4's left side: below the crossover the tree machinery
        // costs more messages than plain mesh firing.
        let scenario = cfg(20, 6);
        let world = World::new(&scenario);
        let fst = FstProtocol::run_in(&world);
        let st = StProtocol::run_in(&world);
        assert!(fst.converged() && st.converged());
        assert!(
            fst.messages() < st.messages(),
            "fst {} vs st {}",
            fst.messages(),
            st.messages()
        );
    }
}
