//! MinProcTime — the simplified minimum-total-processor-time algorithm.

use slotsel_obs::DynProbes;

use crate::aep::{scan, scan_probed, RandomPick, ScanOptions, SelectionPolicy};
use crate::node::Platform;
use crate::pool::CandidatePool;
use crate::request::ResourceRequest;
use crate::rng::SplitMix64;
use crate::selectors::{random_feasible, Candidate};
use crate::slotlist::SlotList;
use crate::time::TimePoint;
use crate::window::Window;

use super::SlotSelector;

/// Searches for a window with the minimum total node execution time — the
/// sum of the composing slots' time lengths.
///
/// This is the paper's *simplified* AEP implementation: the exact
/// minimum-proc-time subset under a budget is a two-constraint selection
/// problem, so instead a **random** feasible window is drawn at each scan
/// step and the best by total processor time is kept across steps. The
/// scheme "does not guarantee an optimal result and only partially matches
/// the AEP scheme" — but runs markedly faster than the full
/// implementations and, in the paper's experiments, lands within 2% of
/// CSA's best processor time.
///
/// The generator is owned by the algorithm; construct with a seed for
/// reproducible runs.
///
/// # Examples
///
/// ```
/// use slotsel_core::algorithms::MinProcTime;
///
/// let a = MinProcTime::with_seed(7);
/// let b = MinProcTime::with_seed(7);
/// // Equal seeds make the algorithm fully deterministic.
/// assert_eq!(format!("{a:?}"), format!("{b:?}"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinProcTime {
    rng: SplitMix64,
    attempts: usize,
}

/// Default number of random subsets tried per scan step before falling back
/// to the cheapest subset.
const DEFAULT_ATTEMPTS: usize = 8;

impl MinProcTime {
    /// Creates the algorithm with a fixed default seed.
    #[must_use]
    pub fn new() -> Self {
        MinProcTime::with_seed(0x0510_57E1_u64)
    }

    /// Creates the algorithm with an explicit RNG seed.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        MinProcTime {
            rng: SplitMix64::new(seed),
            attempts: DEFAULT_ATTEMPTS,
        }
    }

    /// Sets the number of random draws per scan step.
    #[must_use]
    pub fn attempts(mut self, attempts: usize) -> Self {
        self.attempts = attempts.max(1);
        self
    }

    /// The scan policy behind [`select`](SlotSelector::select), for driving
    /// [`crate::aep::scan_probed`] or the reference scan directly. The
    /// policy borrows (and advances) this algorithm's generator.
    #[must_use]
    pub fn policy(&mut self) -> impl SelectionPolicy + '_ {
        MinProcTimePolicy {
            rng: &mut self.rng,
            attempts: self.attempts,
        }
    }
}

impl Default for MinProcTime {
    fn default() -> Self {
        MinProcTime::new()
    }
}

struct MinProcTimePolicy<'a> {
    rng: &'a mut SplitMix64,
    attempts: usize,
}

impl SelectionPolicy for MinProcTimePolicy<'_> {
    fn name(&self) -> &str {
        "MinProcTime"
    }

    fn pick(
        &mut self,
        _window_start: TimePoint,
        alive: &[Candidate],
        request: &ResourceRequest,
    ) -> Option<Vec<usize>> {
        random_feasible(
            alive,
            request.node_count(),
            request.budget(),
            self.rng,
            self.attempts,
        )
    }

    fn pick_pool(
        &mut self,
        _window_start: TimePoint,
        pool: &CandidatePool,
        request: &ResourceRequest,
    ) -> Option<Vec<usize>> {
        // The infeasible-draw fallback inside reuses the pool's maintained
        // cost order instead of re-deriving it with a per-step sort.
        pool.random_feasible(
            request.node_count(),
            request.budget(),
            self.rng,
            self.attempts,
        )
    }

    fn score(&self, window: &Window) -> f64 {
        window.proc_time().ticks() as f64
    }

    // `pick` is exactly `random_feasible` and the scan never stops early,
    // so the random-draw fast path applies; the scan advances the same
    // generator the slice/pool pickers would.
    fn random_pick(&mut self) -> Option<RandomPick<'_>> {
        Some(RandomPick {
            rng: &mut *self.rng,
            attempts: self.attempts,
        })
    }
}

impl SlotSelector for MinProcTime {
    fn name(&self) -> &str {
        "MinProcTime"
    }

    fn select(
        &mut self,
        platform: &Platform,
        slots: &SlotList,
        request: &ResourceRequest,
    ) -> Option<Window> {
        let mut policy = MinProcTimePolicy {
            rng: &mut self.rng,
            attempts: self.attempts,
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
        let mut policy = MinProcTimePolicy {
            rng: &mut self.rng,
            attempts: self.attempts,
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
    use super::super::testutil::{idle, platform, request};
    use super::*;

    #[test]
    fn finds_a_feasible_window() {
        let p = platform(&[(2, 2.0), (4, 4.0), (6, 6.0), (8, 8.0)]);
        let slots = idle(&p, 600);
        let req = request(2, 120, 10_000.0);
        let w = MinProcTime::new().select(&p, &slots, &req).unwrap();
        assert_eq!(w.size(), 2);
        assert!(w.total_cost() <= req.budget());
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let p = platform(&[(2, 2.0), (4, 4.0), (6, 6.0), (8, 8.0), (10, 10.0)]);
        let slots = idle(&p, 600);
        let req = request(3, 120, 10_000.0);
        let a = MinProcTime::with_seed(99).select(&p, &slots, &req);
        let b = MinProcTime::with_seed(99).select(&p, &slots, &req);
        assert_eq!(a, b);
    }

    #[test]
    fn improves_over_steps_toward_low_proc_time() {
        // With many scan steps the kept window should not be the worst one.
        // Worst proc time: 2 slowest nodes = 60 + 30 = 90; best: 15 + 12 = 27.
        let p = platform(&[(2, 1.0), (4, 1.0), (6, 1.0), (8, 1.0), (10, 1.0)]);
        let slots = idle(&p, 600);
        let req = request(2, 120, 10_000.0);
        let w = MinProcTime::with_seed(1).select(&p, &slots, &req).unwrap();
        assert!(w.proc_time().ticks() <= 90);
    }

    #[test]
    fn respects_budget_via_fallback() {
        // Only the two cheapest nodes fit the budget.
        let p = platform(&[(2, 1.0), (2, 1.0), (2, 100.0), (2, 100.0)]);
        let slots = idle(&p, 600);
        let req = request(2, 100, 150.0);
        for seed in 0..20 {
            let w = MinProcTime::with_seed(seed)
                .select(&p, &slots, &req)
                .unwrap();
            assert!(w.total_cost() <= req.budget(), "seed {seed}");
        }
    }

    #[test]
    fn none_when_infeasible() {
        let p = platform(&[(2, 10.0), (2, 10.0)]);
        let slots = idle(&p, 600);
        assert!(MinProcTime::new()
            .select(&p, &slots, &request(2, 100, 100.0))
            .is_none());
    }

    #[test]
    fn attempts_floor_is_one() {
        let algo = MinProcTime::new().attempts(0);
        assert_eq!(algo.attempts, 1);
    }

    #[test]
    fn name() {
        assert_eq!(MinProcTime::new().name(), "MinProcTime");
    }
}
