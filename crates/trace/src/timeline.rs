//! Per-slot timeline aggregation.
//!
//! [`TimelineSink`] folds the event stream into one row per slot: the
//! population summary the engine emits ([`TraceEvent::SlotStats`]) plus
//! that slot's [`Counters`], folded by [`TraceEvent::tally`]. The
//! result is the convergence-dynamics view the paper's aggregate
//! figures cannot show — how fragment count, sync error, discovery
//! completeness and collision rate evolve over a run — exported as CSV
//! for `results/`.

use ffd2d_sim::counters::Counters;

use crate::event::TraceEvent;
use crate::sink::TraceSink;

/// One slot's aggregated view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineRow {
    /// The slot.
    pub slot: u64,
    /// Distinct fragment labels (0 until the first `SlotStats`).
    pub fragments: u32,
    /// Sync error: smallest covering arc of all phases, in turns.
    pub phase_spread: f64,
    /// Directed neighbour links discovered so far.
    pub discovered_links: u64,
    /// Directed ground-truth audible links.
    pub ground_truth_links: u64,
    /// This slot's sends, reception outcomes and frame faults.
    pub counters: Counters,
}

impl TimelineRow {
    fn new(slot: u64) -> TimelineRow {
        TimelineRow {
            slot,
            fragments: 0,
            phase_spread: f64::NAN,
            discovered_links: 0,
            ground_truth_links: 0,
            counters: Counters::new(),
        }
    }

    /// Fraction of ground-truth links discovered (1.0 when none exist).
    pub fn discovery_completeness(&self) -> f64 {
        if self.ground_truth_links == 0 {
            1.0
        } else {
            self.discovered_links as f64 / self.ground_truth_links as f64
        }
    }
}

/// Folds events into one [`TimelineRow`] per slot (rows appear in slot
/// order; a slot with no events gets no row).
#[derive(Debug, Clone, Default)]
pub struct TimelineSink {
    rows: Vec<TimelineRow>,
}

impl TimelineSink {
    /// An empty timeline.
    pub fn new() -> TimelineSink {
        TimelineSink::default()
    }

    /// The aggregated rows, in slot order.
    pub fn rows(&self) -> &[TimelineRow] {
        &self.rows
    }

    fn row_mut(&mut self, slot: u64) -> &mut TimelineRow {
        // Events arrive in slot order; a backwards jump would indicate
        // interleaved runs, which one sink instance does not support.
        match self.rows.last() {
            Some(last) if last.slot == slot => {}
            _ => self.rows.push(TimelineRow::new(slot)),
        }
        self.rows.last_mut().expect("just pushed")
    }

    /// First slot at which discovery completeness reached `x` (0..=1),
    /// if it ever did.
    pub fn slot_reaching_completeness(&self, x: f64) -> Option<u64> {
        self.rows
            .iter()
            .find(|r| r.ground_truth_links > 0 && r.discovery_completeness() >= x)
            .map(|r| r.slot)
    }

    /// Render the timeline as CSV (header + one row per slot).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(64 * (self.rows.len() + 1));
        out.push_str(
            "slot,fragments,phase_spread,discovered_links,ground_truth_links,\
             discovery_completeness,rach1_tx,rach2_tx,rx_ok,rx_collision,\
             rx_below_threshold,collision_rate\n",
        );
        for r in &self.rows {
            let c = &r.counters;
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{}\n",
                r.slot,
                r.fragments,
                r.phase_spread,
                r.discovered_links,
                r.ground_truth_links,
                r.discovery_completeness(),
                c.rach1_tx,
                c.rach2_tx,
                c.rx_ok,
                c.rx_collision,
                c.rx_below_threshold,
                c.collision_rate(),
            ));
        }
        out
    }
}

impl TraceSink for TimelineSink {
    fn event(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::SlotStats {
                slot,
                fragments,
                phase_spread,
                discovered_links,
                ground_truth_links,
            } => {
                let row = self.row_mut(slot);
                row.fragments = fragments;
                row.phase_spread = phase_spread;
                row.discovered_links = discovered_links;
                row.ground_truth_links = ground_truth_links;
            }
            TraceEvent::Tx { slot, .. }
            | TraceEvent::Unicast { slot, .. }
            | TraceEvent::RxDecode { slot, .. }
            | TraceEvent::RxCollision { slot, .. }
            | TraceEvent::RxBelowThreshold { slot, .. }
            | TraceEvent::FaultInjected { slot, .. } => ev.tally(&mut self.row_mut(slot).counters),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Codec, FaultKind, FrameLabel};

    #[test]
    fn rows_aggregate_per_slot() {
        let mut t = TimelineSink::new();
        t.event(&TraceEvent::Tx {
            slot: 5,
            sender: 1,
            codec: Codec::Rach1,
            kind: FrameLabel::Fire,
        });
        t.event(&TraceEvent::RxDecode {
            slot: 5,
            receiver: 2,
            sender: 1,
            codec: Codec::Rach1,
            rx_dbm: -80.0,
        });
        t.event(&TraceEvent::RxCollision {
            slot: 5,
            receiver: 3,
            codec: Codec::Rach1,
            signals: 2,
        });
        t.event(&TraceEvent::RxBelowThreshold { slot: 5, count: 3 });
        t.event(&TraceEvent::Unicast {
            slot: 5,
            sender: 2,
            receiver: 1,
        });
        t.event(&TraceEvent::FaultInjected {
            slot: 5,
            device: 2,
            sender: 1,
            kind: FaultKind::FrameDup,
        });
        t.event(&TraceEvent::SlotStats {
            slot: 5,
            fragments: 7,
            phase_spread: 0.5,
            discovered_links: 10,
            ground_truth_links: 40,
        });
        t.event(&TraceEvent::SlotStats {
            slot: 6,
            fragments: 6,
            phase_spread: 0.4,
            discovered_links: 12,
            ground_truth_links: 40,
        });
        // Events outside the tally open no row.
        t.event(&TraceEvent::Converged { slot: 7 });
        assert_eq!(t.rows().len(), 2);
        let r = t.rows()[0];
        assert_eq!(r.slot, 5);
        assert_eq!(r.fragments, 7);
        let want = Counters {
            rach1_tx: 1,
            unicast_tx: 1,
            rx_ok: 1,
            rx_collision: 2,
            rx_below_threshold: 3,
            fault_dup_frames: 1,
            ..Counters::new()
        };
        assert_eq!(r.counters, want);
        assert!((r.counters.collision_rate() - 2.0 / 6.0).abs() < 1e-12);
        assert!((r.discovery_completeness() - 0.25).abs() < 1e-12);
        assert_eq!(t.rows()[1].slot, 6);
    }

    #[test]
    fn completeness_threshold_lookup() {
        let mut t = TimelineSink::new();
        for (slot, links) in [(0u64, 0u64), (10, 20), (20, 36), (30, 40)] {
            t.event(&TraceEvent::SlotStats {
                slot,
                fragments: 1,
                phase_spread: 0.0,
                discovered_links: links,
                ground_truth_links: 40,
            });
        }
        assert_eq!(t.slot_reaching_completeness(0.5), Some(10));
        assert_eq!(t.slot_reaching_completeness(0.9), Some(20));
        assert_eq!(t.slot_reaching_completeness(1.0), Some(30));
        assert_eq!(TimelineSink::new().slot_reaching_completeness(0.5), None);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = TimelineSink::new();
        t.event(&TraceEvent::SlotStats {
            slot: 1,
            fragments: 3,
            phase_spread: 0.25,
            discovered_links: 4,
            ground_truth_links: 8,
        });
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("slot,fragments,phase_spread"));
        assert!(lines[1].starts_with("1,3,0.25,4,8,0.5,"));
    }
}
