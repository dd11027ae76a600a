//! Every workload, shrunk to 50 devices, repeats its outcome exactly and
//! traces without changing it; the traced replay's self times add up.

use ffd2d_perf::metrics::{layer_metrics, PER_LAYER};
use ffd2d_perf::workload::WORKLOADS;

#[test]
fn small_workloads_repeat_and_trace_neutrally() {
    for w in WORKLOADS {
        let shape = w.scaled(50).shape(7);
        let first = shape.run_plain();
        assert_eq!(shape.run_plain(), first, "{}: reruns differ", w.name);
        let replay = shape.replay();
        assert_eq!(replay.digest, first, "{}: traced outcome differs", w.name);

        let m = layer_metrics(&replay, 1.0);
        assert_eq!(m.len(), PER_LAYER.len());
        let self_shares: f64 = [
            "setup.world_new_share",
            "setup.engine_init_share",
            "engine.self_share",
            "protocol.discovery_self_share",
            "protocol.merge_self_share",
            "protocol.sync_self_share",
            "medium.resolve_self_share",
            "medium.accumulate_share",
            "radio.gain_fill_share",
            "telemetry.unattributed_share",
        ]
        .iter()
        .map(|k| m[k])
        .sum();
        assert!(
            (self_shares - 1.0).abs() < 1e-9,
            "{}: {self_shares}",
            w.name
        );
        assert!(m["medium.pairs"] > 0.0, "{}: no medium work", w.name);
        assert!(m["engine.slots_materialized"] > 0.0, "{}", w.name);
    }
}

#[test]
fn different_seeds_make_different_inputs() {
    for w in WORKLOADS {
        let small = w.scaled(50);
        assert_ne!(
            small.shape(1).run_plain(),
            small.shape(2).run_plain(),
            "{}",
            w.name
        );
    }
}
