//! MinRunTime — the minimum-execution-runtime algorithm.

use slotsel_obs::DynProbes;

use crate::aep::{scan, scan_probed, ScanOptions, SelectionPolicy};
use crate::node::Platform;
use crate::pool::CandidatePool;
use crate::request::ResourceRequest;
use crate::selectors::{min_runtime_exact, min_runtime_greedy, Candidate};
use crate::slotlist::SlotList;
use crate::time::TimePoint;
use crate::window::Window;

use super::{RuntimeSelection, SlotSelector};

/// Finds a window with the minimum execution runtime — the length of the
/// longest composing slot, i.e. the task time on the slowest selected node.
///
/// At each scan step the minimum-runtime `n`-subset of the extended window
/// is formed by the paper's substitution procedure (§2.2): start from the
/// `n` cheapest slots, then repeatedly replace the longest selected slot
/// with the cheapest shorter unselected one while the budget allows.
/// [`RuntimeSelection::Exact`] switches the inner step to the exact
/// threshold scan, an extension used for validation and ablation.
///
/// In the paper's experiments MinRunTime achieves the shortest runtime (33)
/// and the least processor time (158), paying nearly the full budget for
/// the most productive nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinRunTime {
    selection: RuntimeSelection,
}

impl MinRunTime {
    /// Creates the algorithm with the paper's greedy inner selection.
    #[must_use]
    pub fn new() -> Self {
        MinRunTime::default()
    }

    /// Creates the algorithm with the given inner selection mode.
    #[must_use]
    pub fn with_selection(selection: RuntimeSelection) -> Self {
        MinRunTime { selection }
    }

    /// The configured inner selection mode.
    #[must_use]
    pub fn selection(&self) -> RuntimeSelection {
        self.selection
    }

    /// The scan policy behind [`select`](SlotSelector::select), for driving
    /// [`crate::aep::scan_probed`] or the reference scan directly.
    #[must_use]
    pub fn policy(&self) -> impl SelectionPolicy {
        MinRuntimePolicy {
            selection: self.selection,
        }
    }
}

pub(super) struct MinRuntimePolicy {
    pub selection: RuntimeSelection,
}

impl SelectionPolicy for MinRuntimePolicy {
    fn name(&self) -> &str {
        "MinRunTime"
    }

    fn pick(
        &mut self,
        _window_start: TimePoint,
        alive: &[Candidate],
        request: &ResourceRequest,
    ) -> Option<Vec<usize>> {
        match self.selection {
            RuntimeSelection::Greedy => {
                min_runtime_greedy(alive, request.node_count(), request.budget())
            }
            RuntimeSelection::Exact => {
                min_runtime_exact(alive, request.node_count(), request.budget())
            }
        }
    }

    fn pick_pool(
        &mut self,
        _window_start: TimePoint,
        pool: &CandidatePool,
        request: &ResourceRequest,
    ) -> Option<Vec<usize>> {
        match self.selection {
            RuntimeSelection::Greedy => {
                pool.min_runtime_greedy(request.node_count(), request.budget())
            }
            RuntimeSelection::Exact => {
                pool.min_runtime_exact(request.node_count(), request.budget())
            }
        }
    }

    fn score(&self, window: &Window) -> f64 {
        window.runtime().ticks() as f64
    }
}

impl SlotSelector for MinRunTime {
    fn name(&self) -> &str {
        "MinRunTime"
    }

    fn select(
        &mut self,
        platform: &Platform,
        slots: &SlotList,
        request: &ResourceRequest,
    ) -> Option<Window> {
        let mut policy = MinRuntimePolicy {
            selection: self.selection,
        };
        scan(platform, slots, request, &mut policy)
    }

    fn select_probed(
        &mut self,
        platform: &Platform,
        slots: &SlotList,
        request: &ResourceRequest,
        probes: DynProbes<'_>,
    ) -> Option<Window> {
        let mut policy = MinRuntimePolicy {
            selection: self.selection,
        };
        scan_probed(
            platform,
            slots,
            request,
            &mut policy,
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
    use crate::algorithms::{Amp, MinCost};
    use crate::time::TimeDelta;

    #[test]
    fn prefers_fast_nodes_within_budget() {
        let p = platform(&[(2, 2.0), (10, 10.0), (9, 9.0), (3, 3.0)]);
        let slots = idle(&p, 600);
        // Volume 90: perf 10 -> 9 units, perf 9 -> 10 units.
        let w = MinRunTime::new()
            .select(&p, &slots, &request(2, 90, 10_000.0))
            .unwrap();
        assert_eq!(w.runtime(), TimeDelta::new(10), "fastest two nodes used");
    }

    #[test]
    fn budget_blocks_most_productive_nodes() {
        let p = platform(&[(2, 2.0), (10, 100.0), (4, 4.0)]);
        let slots = idle(&p, 600);
        // Volume 80: perf 10 -> 8 units x 100 = 800; unaffordable with 300.
        let w = MinRunTime::new()
            .select(&p, &slots, &request(2, 80, 300.0))
            .unwrap();
        // Must use perf 2 (40 units) and perf 4 (20 units): runtime 40.
        assert_eq!(w.runtime(), TimeDelta::new(40));
    }

    #[test]
    fn runtime_never_longer_than_amp_or_mincost() {
        let p = platform(&[(3, 3.3), (8, 7.5), (5, 5.1), (2, 1.9), (10, 9.6), (6, 6.3)]);
        let slots = slots_on(
            &p,
            &[
                (0, 400),
                (50, 600),
                (0, 600),
                (10, 500),
                (120, 600),
                (0, 600),
            ],
        );
        let req = request(3, 240, 100_000.0);
        let fast = MinRunTime::new().select(&p, &slots, &req).unwrap();
        let first = Amp.select(&p, &slots, &req).unwrap();
        let cheap = MinCost.select(&p, &slots, &req).unwrap();
        assert!(fast.runtime() <= first.runtime());
        assert!(fast.runtime() <= cheap.runtime());
    }

    #[test]
    fn exact_mode_never_worse_than_greedy() {
        let p = platform(&[(2, 1.0), (3, 4.0), (4, 8.0), (5, 9.0), (6, 2.0), (7, 3.0)]);
        let slots = idle(&p, 600);
        for budget in [200.0, 300.0, 500.0, 1_000.0] {
            let req = request(3, 210, budget);
            let greedy = MinRunTime::new().select(&p, &slots, &req);
            let exact =
                MinRunTime::with_selection(RuntimeSelection::Exact).select(&p, &slots, &req);
            match (greedy, exact) {
                (Some(g), Some(e)) => assert!(e.runtime() <= g.runtime(), "budget {budget}"),
                (None, None) => {}
                (g, e) => panic!("feasibility mismatch at budget {budget}: {g:?} vs {e:?}"),
            }
        }
    }

    #[test]
    fn infeasible_when_budget_below_cheapest() {
        let p = platform(&[(2, 10.0), (2, 10.0)]);
        let slots = idle(&p, 600);
        assert!(MinRunTime::new()
            .select(&p, &slots, &request(2, 100, 999.0))
            .is_none());
    }

    #[test]
    fn selection_mode_accessor() {
        assert_eq!(MinRunTime::new().selection(), RuntimeSelection::Greedy);
        assert_eq!(
            MinRunTime::with_selection(RuntimeSelection::Exact).selection(),
            RuntimeSelection::Exact
        );
        assert_eq!(MinRunTime::new().name(), "MinRunTime");
    }
}
