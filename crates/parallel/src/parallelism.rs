//! The retired intra-run parallelism knob.

use serde::{Deserialize, Serialize};

/// Intra-run medium parallelism: a stub with no effect.
///
/// A run resolves its medium on one thread; the only parallel layer is
/// the trial pool ([`crate::run_trials`]). The type survives only
/// because the perf harness (`perfbench/`) still names it; the change
/// that next edits the harness deletes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Parallelism {
    /// The only value: sequential medium resolution.
    #[default]
    Off,
}
