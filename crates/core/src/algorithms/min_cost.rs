//! MinCost — the minimum-total-allocation-cost algorithm.

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

/// Finds the single window with the minimum total allocation cost on the
/// scheduling interval.
///
/// At every scan step the cheapest `n`-subset of the extended window is
/// selected; keeping the cheapest of those step-optimal windows over the
/// whole scan yields the window with the overall minimum total cost — the
/// per-step selection is exact, so the scan's best is the global best.
///
/// In the paper's experiments MinCost spends 1027 of the 1500 budget —
/// roughly a third less than every other algorithm — at the expense of
/// late starts and long runtimes, because cheap slots tend to sit on less
/// productive nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinCost;

impl MinCost {
    /// Creates the algorithm.
    #[must_use]
    pub fn new() -> Self {
        MinCost
    }

    /// The scan policy behind [`select`](SlotSelector::select), for driving
    /// [`crate::aep::scan_probed`] or the reference scan directly.
    #[must_use]
    pub fn policy(&self) -> impl SelectionPolicy {
        MinCostPolicy
    }
}

struct MinCostPolicy;

impl SelectionPolicy for MinCostPolicy {
    fn name(&self) -> &str {
        "MinCost"
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
        window.total_cost().as_f64()
    }
}

impl SlotSelector for MinCost {
    fn name(&self) -> &str {
        "MinCost"
    }

    fn select(
        &mut self,
        platform: &Platform,
        slots: &SlotList,
        request: &ResourceRequest,
    ) -> Option<Window> {
        scan(platform, slots, request, &mut MinCostPolicy)
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
            &mut MinCostPolicy,
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
    use crate::algorithms::Amp;
    use crate::money::Money;

    #[test]
    fn selects_cheapest_nodes() {
        let p = platform(&[(2, 9.0), (2, 1.0), (2, 3.0), (2, 2.0)]);
        let slots = idle(&p, 600);
        let w = MinCost
            .select(&p, &slots, &request(2, 100, 10_000.0))
            .unwrap();
        // 50 units each on prices 1 and 2.
        assert_eq!(w.total_cost(), Money::from_units(150));
    }

    #[test]
    fn accepts_later_cheaper_window() {
        let p = platform(&[(2, 5.0), (2, 5.0), (2, 1.0), (2, 1.0)]);
        let slots = slots_on(&p, &[(0, 600), (0, 600), (400, 600), (400, 600)]);
        let w = MinCost
            .select(&p, &slots, &request(2, 100, 10_000.0))
            .unwrap();
        assert_eq!(w.start().ticks(), 400);
        assert_eq!(w.total_cost(), Money::from_units(100));
    }

    #[test]
    fn never_more_expensive_than_amp() {
        let p = platform(&[(3, 3.1), (5, 5.4), (7, 6.9), (2, 2.2), (9, 8.8)]);
        let slots = slots_on(&p, &[(0, 300), (30, 400), (100, 600), (0, 600), (250, 600)]);
        let req = request(3, 210, 10_000.0);
        let cheap = MinCost.select(&p, &slots, &req).unwrap();
        let first = Amp.select(&p, &slots, &req).unwrap();
        assert!(cheap.total_cost() <= first.total_cost());
    }

    #[test]
    fn respects_budget() {
        let p = platform(&[(2, 3.0), (2, 3.0)]);
        let slots = idle(&p, 600);
        // Each slot costs 150; budget 299 cannot host both.
        assert!(MinCost
            .select(&p, &slots, &request(2, 100, 299.0))
            .is_none());
        let w = MinCost.select(&p, &slots, &request(2, 100, 300.0)).unwrap();
        assert_eq!(w.total_cost(), Money::from_units(300));
    }

    #[test]
    fn cost_ignores_slot_surplus_length() {
        // Slot lengths beyond the task length must not change the cost.
        let p = platform(&[(2, 1.0), (2, 1.0)]);
        let short = slots_on(&p, &[(0, 50), (0, 50)]);
        let long = slots_on(&p, &[(0, 600), (0, 600)]);
        let req = request(2, 100, 1_000.0);
        let a = MinCost.select(&p, &short, &req).unwrap();
        let b = MinCost.select(&p, &long, &req).unwrap();
        assert_eq!(a.total_cost(), b.total_cost());
    }

    #[test]
    fn name() {
        assert_eq!(MinCost.name(), "MinCost");
        assert_eq!(MinCost::new(), MinCost);
    }
}
