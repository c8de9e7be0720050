//! MinFinish — the earliest-finish-time algorithm.

use slotsel_obs::{DynProbes, Metrics, Probes, Recorder, SpanSink};

use crate::aep::{scan_probed, ScanOptions, SelectionPolicy};
use crate::node::Platform;
use crate::pool::CandidatePool;
use crate::request::ResourceRequest;
use crate::selectors::{min_runtime_exact, min_runtime_greedy, Candidate};
use crate::slotlist::SlotList;
use crate::time::TimePoint;
use crate::window::Window;

use super::{RuntimeSelection, SlotSelector};

/// Finds a window with the earliest finish time.
///
/// The expanded window at a scan step starts at the last added slot's start
/// time `tStart`; the earliest finish achievable there is
/// `tStart + minRuntime`, so the inner selection is exactly the
/// minimum-runtime procedure of [`MinRunTime`](super::MinRunTime), while the
/// cross-step comparison uses the finish time. Selecting the
/// earliest-completion window at each step yields the required window at the
/// end of the slot list.
///
/// In the paper's experiments MinFinish wins start time, finish time and is
/// within 4.2% of the best runtime — but spends almost the whole budget
/// (1464 of 1500).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinFinish {
    selection: RuntimeSelection,
    prune: bool,
}

impl MinFinish {
    /// Creates the algorithm with the paper's greedy inner selection and no
    /// scan pruning (the measured configuration of Tables 1–2).
    #[must_use]
    pub fn new() -> Self {
        MinFinish::default()
    }

    /// Creates the algorithm with the given inner selection mode.
    #[must_use]
    pub fn with_selection(selection: RuntimeSelection) -> Self {
        MinFinish {
            selection,
            prune: false,
        }
    }

    /// Enables the start-bounded scan pruning extension: once the best
    /// finish so far precedes the next window start, no later window can
    /// win, so the scan stops. Identical results, ~4× faster on the
    /// paper's environment (see the `ablation` binary).
    #[must_use]
    pub fn pruned(mut self) -> Self {
        self.prune = true;
        self
    }

    /// The configured inner selection mode.
    #[must_use]
    pub fn selection(&self) -> RuntimeSelection {
        self.selection
    }

    /// Whether start-bounded pruning is enabled.
    #[must_use]
    pub fn is_pruned(&self) -> bool {
        self.prune
    }

    /// The scan policy behind [`select`](SlotSelector::select), for driving
    /// [`crate::aep::scan_probed`] or the reference scan directly. Pruning
    /// is a scan option, not part of the policy; pass it via
    /// [`ScanOptions`].
    #[must_use]
    pub fn policy(&self) -> impl SelectionPolicy {
        MinFinishPolicy {
            selection: self.selection,
        }
    }

    /// The scan behind both [`SlotSelector`] entry points.
    fn scan<R: Recorder, M: Metrics, S: SpanSink>(
        &self,
        platform: &Platform,
        slots: &SlotList,
        request: &ResourceRequest,
        probes: Probes<R, M, S>,
    ) -> Option<Window> {
        let mut policy = MinFinishPolicy {
            selection: self.selection,
        };
        let options = ScanOptions {
            prune_start_bounded: self.prune,
        };
        scan_probed(platform, slots, request, &mut policy, options, probes).best
    }
}

struct MinFinishPolicy {
    selection: RuntimeSelection,
}

impl SelectionPolicy for MinFinishPolicy {
    fn name(&self) -> &str {
        "MinFinish"
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
        window.finish().ticks() as f64
    }
}

impl SlotSelector for MinFinish {
    fn name(&self) -> &str {
        "MinFinish"
    }

    fn select(
        &mut self,
        platform: &Platform,
        slots: &SlotList,
        request: &ResourceRequest,
    ) -> Option<Window> {
        self.scan(platform, slots, request, Probes::none())
    }

    fn select_probed(
        &mut self,
        platform: &Platform,
        slots: &SlotList,
        request: &ResourceRequest,
        probes: DynProbes<'_>,
    ) -> Option<Window> {
        self.scan(platform, slots, request, probes)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{idle, platform, request, slots_on};
    use super::*;
    use crate::algorithms::{Amp, MinCost, MinRunTime};
    use crate::time::TimePoint;

    #[test]
    fn early_slow_window_beats_late_fast_one() {
        // Slow nodes available immediately; fast nodes only from t=100.
        let p = platform(&[(2, 2.0), (2, 2.0), (10, 10.0), (10, 10.0)]);
        let slots = slots_on(&p, &[(0, 600), (0, 600), (100, 600), (100, 600)]);
        // Volume 100: slow pair finishes at 0+50, fast pair at 100+10.
        let w = MinFinish::new()
            .select(&p, &slots, &request(2, 100, 10_000.0))
            .unwrap();
        assert_eq!(w.finish(), TimePoint::new(50));
        assert_eq!(w.start(), TimePoint::ZERO);
    }

    #[test]
    fn late_fast_window_beats_early_slow_one() {
        // Same platform, bigger volume: slow pair 0+300, fast pair 100+60.
        let p = platform(&[(2, 2.0), (2, 2.0), (10, 10.0), (10, 10.0)]);
        let slots = slots_on(&p, &[(0, 600), (0, 600), (100, 600), (100, 600)]);
        let w = MinFinish::new()
            .select(&p, &slots, &request(2, 600, 10_000.0))
            .unwrap();
        assert_eq!(w.finish(), TimePoint::new(160));
        assert_eq!(w.start(), TimePoint::new(100));
    }

    #[test]
    fn finish_never_later_than_other_algorithms() {
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
        let finish = MinFinish::new().select(&p, &slots, &req).unwrap();
        for window in [
            Amp.select(&p, &slots, &req).unwrap(),
            MinCost.select(&p, &slots, &req).unwrap(),
            MinRunTime::new().select(&p, &slots, &req).unwrap(),
        ] {
            assert!(finish.finish() <= window.finish());
        }
    }

    #[test]
    fn respects_budget() {
        let p = platform(&[(10, 50.0), (10, 50.0), (2, 1.0), (2, 1.0)]);
        let slots = idle(&p, 600);
        // Fast pair costs 2 * 10 * 50 = 1000; budget 150 forces slow pair.
        let w = MinFinish::new()
            .select(&p, &slots, &request(2, 100, 150.0))
            .unwrap();
        assert_eq!(w.finish(), TimePoint::new(50));
        assert!(w.total_cost().as_f64() <= 150.0);
    }

    #[test]
    fn exact_mode_never_worse() {
        let p = platform(&[(2, 1.0), (3, 4.0), (4, 8.0), (5, 9.0), (6, 2.0), (7, 3.0)]);
        let slots = slots_on(
            &p,
            &[
                (0, 600),
                (40, 600),
                (0, 300),
                (10, 600),
                (90, 600),
                (0, 600),
            ],
        );
        for budget in [300.0, 500.0, 1_000.0] {
            let req = request(3, 210, budget);
            let greedy = MinFinish::new().select(&p, &slots, &req);
            let exact = MinFinish::with_selection(RuntimeSelection::Exact).select(&p, &slots, &req);
            match (greedy, exact) {
                (Some(g), Some(e)) => assert!(e.finish() <= g.finish(), "budget {budget}"),
                (None, None) => {}
                (g, e) => panic!("feasibility mismatch at budget {budget}: {g:?} vs {e:?}"),
            }
        }
    }

    #[test]
    fn pruned_variant_matches_plain_results() {
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
        for budget in [300.0, 600.0, 2_000.0] {
            let req = request(3, 240, budget);
            let plain = MinFinish::new().select(&p, &slots, &req);
            let pruned = MinFinish::new().pruned().select(&p, &slots, &req);
            assert_eq!(
                plain.as_ref().map(Window::finish),
                pruned.as_ref().map(Window::finish),
                "budget {budget}"
            );
        }
        assert!(MinFinish::new().pruned().is_pruned());
        assert!(!MinFinish::new().is_pruned());
    }

    #[test]
    fn accessors() {
        assert_eq!(MinFinish::new().selection(), RuntimeSelection::Greedy);
        assert_eq!(MinFinish::new().name(), "MinFinish");
    }
}
