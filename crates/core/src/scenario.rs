//! Self-contained, serialisable scan scenarios — the replay unit of the
//! differential fuzzer.
//!
//! A [`Scenario`] bundles everything one AEP scan consumes: the
//! heterogeneous [`Platform`], the ordered free [`SlotList`] and the
//! [`ResourceRequest`]. It serialises with `serde`, which is what makes
//! counterexamples found by `slotsel-fuzz` portable: a failing scenario is
//! shrunk, written to `tests/corpus/` as JSON, and replayed forever after
//! as a plain `#[test]` — no generator state required.
//!
//! The replay hooks run the scenario through both scan formulations (the
//! incremental-pool [`crate::aep::scan_probed`] and the sort-per-step
//! [`crate::reference::reference_scan_with`]), which are required to be
//! pick-for-pick identical.
//!
//! # Examples
//!
//! ```
//! use slotsel_core::algorithms::MinCost;
//! use slotsel_core::money::Money;
//! use slotsel_core::node::{NodeSpec, Performance, Platform, Volume};
//! use slotsel_core::request::ResourceRequest;
//! use slotsel_core::scenario::Scenario;
//! use slotsel_core::slotlist::SlotList;
//! use slotsel_core::time::{Interval, TimePoint};
//!
//! let platform: Platform = (0..3)
//!     .map(|i| NodeSpec::builder(i).performance(Performance::new(1 + i)).build())
//!     .collect();
//! let mut slots = SlotList::new();
//! for node in &platform {
//!     slots.add(
//!         node.id(),
//!         Interval::new(TimePoint::new(0), TimePoint::new(600)),
//!         node.performance(),
//!         node.price_per_unit(),
//!     );
//! }
//! let request = ResourceRequest::builder()
//!     .node_count(2)
//!     .volume(Volume::new(100))
//!     .budget(Money::from_units(1_000))
//!     .build()
//!     .unwrap();
//! let scenario = Scenario::new(platform, slots, request);
//! scenario.validate().unwrap();
//!
//! let outcome = scenario.scan_pool(&mut MinCost.policy());
//! let oracle = scenario.scan_reference(&mut MinCost.policy());
//! assert_eq!(outcome.best, oracle.best);
//! ```

use serde::{Deserialize, Serialize};
use slotsel_obs::Probes;

use crate::aep::{scan_probed, ScanOptions, ScanOutcome, SelectionPolicy};
use crate::node::Platform;
use crate::reference::reference_scan_with;
use crate::request::ResourceRequest;
use crate::slotlist::SlotList;

/// One complete, replayable scan input: platform, slot list and request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// The heterogeneous node set the slots live on.
    pub platform: Platform,
    /// The ordered free-slot list the scan walks.
    pub slots: SlotList,
    /// The parallel job's resource request.
    pub request: ResourceRequest,
}

impl Scenario {
    /// Bundles a scan input into a replayable scenario.
    #[must_use]
    pub fn new(platform: Platform, slots: SlotList, request: ResourceRequest) -> Self {
        Scenario {
            platform,
            slots,
            request,
        }
    }

    /// Checks the structural invariants a deserialized scenario must hold
    /// before it is replayed: every slot's node exists in the platform and
    /// the slot list is in scan order.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if !self.slots.is_sorted() {
            return Err("slot list is not in (start, id) scan order".to_owned());
        }
        for slot in &self.slots {
            if self.platform.get(slot.node()).is_none() {
                return Err(format!(
                    "slot {} references node {} outside the {}-node platform",
                    slot.id(),
                    slot.node(),
                    self.platform.len(),
                ));
            }
        }
        Ok(())
    }

    /// Replays the scenario through the incremental-pool AEP scan.
    #[must_use]
    pub fn scan_pool(&self, policy: &mut dyn SelectionPolicy) -> ScanOutcome {
        scan_probed(
            &self.platform,
            &self.slots,
            &self.request,
            policy,
            ScanOptions::default(),
            Probes::none(),
        )
    }

    /// Replays the scenario through the sort-per-step reference scan.
    #[must_use]
    pub fn scan_reference(&self, policy: &mut dyn SelectionPolicy) -> ScanOutcome {
        reference_scan_with(
            &self.platform,
            &self.slots,
            &self.request,
            policy,
            ScanOptions::default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::MinCost;
    use crate::money::Money;
    use crate::node::{NodeId, NodeSpec, Performance, Volume};
    use crate::slot::{Slot, SlotId};
    use crate::time::{Interval, TimePoint};

    fn scenario() -> Scenario {
        let platform: Platform = (0..3)
            .map(|i| {
                NodeSpec::builder(i)
                    .performance(Performance::new(1 + i))
                    .price_per_unit(Money::from_units(i64::from(1 + i)))
                    .build()
            })
            .collect();
        let mut slots = SlotList::new();
        for node in &platform {
            slots.add(
                node.id(),
                Interval::new(TimePoint::new(0), TimePoint::new(600)),
                node.performance(),
                node.price_per_unit(),
            );
        }
        let request = ResourceRequest::builder()
            .node_count(2)
            .volume(Volume::new(100))
            .budget(Money::from_units(1_000))
            .build()
            .unwrap();
        Scenario::new(platform, slots, request)
    }

    #[test]
    fn round_trips_through_json() {
        let original = scenario();
        let json = serde_json::to_string(&original).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(original, back);
        back.validate().unwrap();
    }

    #[test]
    fn both_replay_hooks_agree() {
        let scenario = scenario();
        let pool = scenario.scan_pool(&mut MinCost.policy());
        let reference = scenario.scan_reference(&mut MinCost.policy());
        assert_eq!(pool.best, reference.best);
        assert_eq!(pool.stats, reference.stats);
    }

    #[test]
    fn validate_rejects_unknown_nodes() {
        let mut scenario = scenario();
        let rogue = Slot::new(
            SlotId(99),
            NodeId(77),
            Interval::new(TimePoint::new(0), TimePoint::new(100)),
            Performance::new(1),
            Money::from_units(1),
        );
        scenario.slots = scenario.slots.iter().copied().chain([rogue]).collect();
        assert!(scenario.validate().unwrap_err().contains("n77"));
    }
}
