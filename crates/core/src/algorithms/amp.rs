//! AMP — the earliest-start-time algorithm.

use slotsel_obs::DynProbes;

use crate::aep::{scan, scan_probed, ScanOptions, SelectionPolicy};
use crate::node::Platform;
use crate::pool::CandidatePool;
use crate::request::ResourceRequest;
use crate::selectors::{cheapest_n, Candidate};
use crate::slotlist::SlotList;
use crate::time::TimePoint;
use crate::window::Window;

use super::SlotSelector;

/// **A**lgorithm based on **M**aximal job **P**rice: the first suitable
/// window, i.e. the window with the earliest possible start time.
///
/// AMP is the particular case of the AEP scheme that optimises only the
/// start time: because the slot list is ordered by non-decreasing start
/// time, the first scan step at which any budget-feasible `n`-subset exists
/// already yields the minimal start, so the scan stops there. Feasibility at
/// a step is decided by the cheapest `n`-subset — if that does not fit the
/// budget `S`, nothing does.
///
/// This is also the building block CSA ([`crate::csa::Csa`]) runs
/// repeatedly to carve out alternative windows.
///
/// # Examples
///
/// ```
/// use slotsel_core::algorithms::{Amp, SlotSelector};
/// # use slotsel_core::money::Money;
/// # use slotsel_core::node::{NodeSpec, Performance, Platform, Volume};
/// # use slotsel_core::request::ResourceRequest;
/// # use slotsel_core::slotlist::SlotList;
/// # use slotsel_core::time::{Interval, TimePoint};
/// # fn main() -> Result<(), slotsel_core::error::RequestError> {
/// # let platform: Platform = (0..2)
/// #     .map(|i| NodeSpec::builder(i).performance(Performance::new(4)).build())
/// #     .collect();
/// # let mut slots = SlotList::new();
/// # for node in &platform {
/// #     slots.add(node.id(), Interval::new(TimePoint::new(0), TimePoint::new(600)),
/// #               node.performance(), node.price_per_unit());
/// # }
/// # let request = ResourceRequest::builder().node_count(2)
/// #     .volume(Volume::new(100)).budget(Money::from_units(1000)).build()?;
/// let window = Amp.select(&platform, &slots, &request).unwrap();
/// assert_eq!(window.start(), TimePoint::ZERO);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Amp;

impl Amp {
    /// Creates the algorithm. Equivalent to the unit literal `Amp`.
    #[must_use]
    pub fn new() -> Self {
        Amp
    }

    /// The scan policy behind [`select`](SlotSelector::select), for driving
    /// [`crate::aep::scan_probed`] or the reference scan directly.
    #[must_use]
    pub fn policy(&self) -> impl SelectionPolicy {
        AmpPolicy
    }
}

struct AmpPolicy;

impl SelectionPolicy for AmpPolicy {
    fn name(&self) -> &str {
        "AMP"
    }

    fn pick(
        &mut self,
        _window_start: TimePoint,
        alive: &[Candidate],
        request: &ResourceRequest,
    ) -> Option<Vec<usize>> {
        cheapest_n(alive, request.node_count(), request.budget())
    }

    fn pick_pool(
        &mut self,
        _window_start: TimePoint,
        pool: &CandidatePool,
        request: &ResourceRequest,
    ) -> Option<Vec<usize>> {
        pool.cheapest_n(request.node_count(), request.budget())
    }

    fn score(&self, window: &Window) -> f64 {
        window.start().ticks() as f64
    }

    fn stop_at_first(&self) -> bool {
        true
    }

    /// AMP's `pick` is exactly `cheapest_n` feasibility, so the scan may
    /// take its first-fit fast path: no pool maintenance, `O(1)` running
    /// total feasibility per step.
    fn first_fit_feasibility(&self) -> bool {
        true
    }
}

impl SlotSelector for Amp {
    fn name(&self) -> &str {
        "AMP"
    }

    fn select(
        &mut self,
        platform: &Platform,
        slots: &SlotList,
        request: &ResourceRequest,
    ) -> Option<Window> {
        scan(platform, slots, request, &mut AmpPolicy)
    }

    fn select_probed(
        &mut self,
        platform: &Platform,
        slots: &SlotList,
        request: &ResourceRequest,
        probes: DynProbes<'_>,
    ) -> Option<Window> {
        scan_probed(
            platform,
            slots,
            request,
            &mut AmpPolicy,
            ScanOptions::default(),
            probes,
        )
        .best
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{idle, platform, request, slots_on};
    use super::*;
    use crate::money::Money;

    #[test]
    fn picks_earliest_start() {
        let p = platform(&[(2, 2.0), (2, 2.0), (2, 2.0)]);
        let slots = slots_on(&p, &[(100, 600), (0, 600), (0, 600)]);
        let w = Amp.select(&p, &slots, &request(2, 100, 1_000.0)).unwrap();
        assert_eq!(w.start(), TimePoint::ZERO);
    }

    #[test]
    fn waits_for_enough_parallel_slots() {
        let p = platform(&[(2, 1.0), (2, 1.0), (2, 1.0)]);
        let slots = slots_on(&p, &[(0, 600), (50, 600), (200, 600)]);
        let w = Amp.select(&p, &slots, &request(3, 100, 1_000.0)).unwrap();
        assert_eq!(w.start().ticks(), 200, "third slot only appears at t=200");
    }

    #[test]
    fn budget_forces_later_cheaper_window() {
        // Early nodes are unaffordable; a later pair is cheap enough.
        let p = platform(&[(2, 20.0), (2, 20.0), (2, 1.0), (2, 1.0)]);
        let slots = slots_on(&p, &[(0, 600), (0, 600), (300, 600), (300, 600)]);
        // 100 work on perf 2 = 50 units; cheap pair costs 2*50 = 100.
        let w = Amp.select(&p, &slots, &request(2, 100, 150.0)).unwrap();
        assert_eq!(w.start().ticks(), 300);
        assert_eq!(w.total_cost(), Money::from_units(100));
    }

    #[test]
    fn mixed_affordable_pair_at_start() {
        // One expensive and one cheap node are both free at t=0; budget only
        // fits cheap+cheap, which requires waiting.
        let p = platform(&[(2, 10.0), (2, 1.0), (2, 1.0)]);
        let slots = slots_on(&p, &[(0, 600), (0, 600), (100, 600)]);
        let w = Amp.select(&p, &slots, &request(2, 100, 120.0)).unwrap();
        assert_eq!(w.start().ticks(), 100);
    }

    #[test]
    fn none_when_infeasible_everywhere() {
        let p = platform(&[(2, 10.0), (2, 10.0)]);
        let slots = idle(&p, 600);
        assert!(Amp.select(&p, &slots, &request(2, 100, 100.0)).is_none());
    }

    #[test]
    fn window_size_matches_request() {
        let p = platform(&[(2, 1.0); 6]);
        let slots = idle(&p, 600);
        let w = Amp.select(&p, &slots, &request(4, 100, 1_000.0)).unwrap();
        assert_eq!(w.size(), 4);
    }

    #[test]
    fn name_is_amp() {
        assert_eq!(Amp.name(), "AMP");
        assert_eq!(Amp::new(), Amp);
    }
}
