//! The two-phase batch scheduling cycle.
//!
//! During every scheduling cycle the metascheduler solves (the paper, §1):
//!
//! 1. **Alternatives search** — for each batch job, in priority order, a
//!    set of suitable alternatives is allocated with CSA (or any AEP
//!    algorithm capped at one alternative);
//! 2. **Combination selection** — one alternative per job is chosen so the
//!    batch criterion is extremised under the VO budget (multiple-choice
//!    knapsack, [`crate::mckp`]).
//!
//! Alternatives of *different* jobs are searched on the same slot list and
//! may overlap; the commit step resolves conflicts in priority order,
//! falling back to each job's next-best non-conflicting alternative and
//! deferring jobs that end up with none — deferred jobs return to the
//! batch for the next cycle, as in the composite scheme of refs [6, 7].

use serde::{Deserialize, Serialize};

use slotsel_obs::{
    Metrics, NoopRecorder, Probes, Recorder, SpanId, SpanSink, Stopwatch, TraceEvent,
};

use slotsel_core::money::Money;
use slotsel_core::node::Platform;
use slotsel_core::request::Job;
use slotsel_core::slotlist::{SlotList, SlotStoreKind};
use slotsel_core::time::{Interval, TimePoint};
use slotsel_core::window::Window;

use crate::mckp::{self, MckpItem};
use crate::objective::BatchObjective;
use crate::strategy::SearchStrategy;

/// Configuration of the two-phase batch scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchSchedulerConfig {
    /// Cap on alternatives searched per job (keeps phase 2 tractable).
    pub max_alternatives_per_job: usize,
    /// The batch criterion phase 2 extremises.
    pub objective: BatchObjective,
    /// VO budget for the whole cycle; `None` means the sum of the jobs' own
    /// budgets (each alternative already respects its job's budget).
    pub vo_budget: Option<f64>,
    /// Per-job directed-search overrides (§3.3): jobs listed here search
    /// their alternatives with the given strategy instead of the default
    /// CSA set.
    pub search_overrides: Vec<(slotsel_core::JobId, SearchStrategy)>,
}

impl Default for BatchSchedulerConfig {
    fn default() -> Self {
        BatchSchedulerConfig {
            max_alternatives_per_job: 16,
            objective: BatchObjective::MinTotalCost,
            vo_budget: None,
            search_overrides: Vec::new(),
        }
    }
}

/// Outcome for one job of the batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// The job.
    pub job: Job,
    /// Its committed window, or `None` when the job was deferred to the
    /// next cycle.
    pub window: Option<Window>,
    /// Number of alternatives phase 1 found for the job.
    pub alternatives_found: usize,
}

/// The committed schedule of one cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSchedule {
    /// Per-job outcomes, in scheduling (priority) order.
    pub assignments: Vec<Assignment>,
}

impl BatchSchedule {
    /// Jobs that received a window.
    #[must_use]
    pub fn scheduled(&self) -> usize {
        self.assignments
            .iter()
            .filter(|a| a.window.is_some())
            .count()
    }

    /// Jobs deferred to the next cycle.
    #[must_use]
    pub fn deferred(&self) -> usize {
        self.assignments.len() - self.scheduled()
    }

    /// Summed allocation cost of the committed windows.
    #[must_use]
    pub fn total_cost(&self) -> Money {
        self.assignments
            .iter()
            .filter_map(|a| a.window.as_ref())
            .map(Window::total_cost)
            .sum()
    }

    /// Latest finish time over committed windows (`None` when nothing was
    /// scheduled).
    #[must_use]
    pub fn makespan(&self) -> Option<TimePoint> {
        self.assignments
            .iter()
            .filter_map(|a| a.window.as_ref())
            .map(Window::finish)
            .max()
    }

    /// Mean finish time over committed windows.
    #[must_use]
    pub fn mean_finish(&self) -> Option<f64> {
        let finishes: Vec<i64> = self
            .assignments
            .iter()
            .filter_map(|a| a.window.as_ref())
            .map(|w| w.finish().ticks())
            .collect();
        if finishes.is_empty() {
            return None;
        }
        Some(finishes.iter().sum::<i64>() as f64 / finishes.len() as f64)
    }
}

/// Returns `true` when the two windows reserve overlapping time on a shared
/// **node** — they cannot both be committed.
///
/// The comparison is by node and time, not by slot id: alternatives found
/// by different jobs' searches may reference the same physical node-time
/// through different (cut-piece) slot ids, so id equality would miss real
/// collisions. Uses the rectangular (whole-runtime) reservations, matching
/// the synchronous co-allocation semantics the scheduler commits under;
/// this is conservative for windows whose tasks would release fast nodes
/// early.
#[must_use]
pub fn windows_conflict(a: &Window, b: &Window) -> bool {
    let runtime_a = a.runtime();
    let runtime_b = b.runtime();
    a.slots().iter().any(|slot_a| {
        let span_a = Interval::with_length(a.start(), runtime_a);
        b.slots().iter().any(|slot_b| {
            slot_a.node() == slot_b.node()
                && span_a.overlaps(&Interval::with_length(b.start(), runtime_b))
        })
    })
}

/// Lists smaller than this search the caller's store as-is: the one-off
/// O(m log m) promotion to the tree store only pays off once the repeated
/// CSA cuts and scans dominate it.
const PROMOTE_MIN_SLOTS: usize = 256;

/// A tree-backed copy of `slots` for the phase-1 alternative searches,
/// when the list is `Vec`-backed, large enough for the conversion to pay
/// off, and safe to convert (the tree store rejects duplicate slot ids —
/// a malformed hand-built list keeps its original store and original
/// behaviour). `None` means: search the caller's list unchanged. Results
/// are identical either way; the stores are operation-for-operation
/// equivalent.
fn promote_for_search(slots: &SlotList) -> Option<SlotList> {
    if slots.store_kind() == SlotStoreKind::Tree || slots.len() < PROMOTE_MIN_SLOTS {
        return None;
    }
    let mut seen = std::collections::HashSet::with_capacity(slots.len());
    if !slots.iter().all(|s| seen.insert(s.id())) {
        return None;
    }
    let mut promoted = slots.clone();
    promoted.convert(SlotStoreKind::Tree);
    Some(promoted)
}

/// The two-phase batch scheduler.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchScheduler {
    config: BatchSchedulerConfig,
}

impl BatchScheduler {
    /// Creates a scheduler with the given configuration.
    #[must_use]
    pub fn new(config: BatchSchedulerConfig) -> Self {
        BatchScheduler { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &BatchSchedulerConfig {
        &self.config
    }

    /// Re-admits returning jobs (deferred by a previous cycle, or whose
    /// reservations were lost to a resource disruption) into a pending
    /// batch.
    ///
    /// Each returning job's priority is bumped by `aging` so a job cannot
    /// starve behind a stream of fresh high-priority work. If a returning
    /// job's id is already pending, the pending copy is replaced — the
    /// returning copy carries the newer (aged) priority.
    pub fn readmit(
        &self,
        pending: &mut Vec<Job>,
        returning: impl IntoIterator<Item = Job>,
        aging: u32,
    ) {
        for job in returning {
            let aged = Job::new(job.id(), job.priority() + aging, job.request().clone());
            match pending.iter_mut().find(|p| p.id() == aged.id()) {
                Some(existing) => *existing = aged,
                None => pending.push(aged),
            }
        }
    }

    /// Runs one scheduling cycle for `jobs` on the given environment.
    ///
    /// Jobs are processed in descending priority (ties broken by id for
    /// determinism). The returned schedule contains one [`Assignment`] per
    /// input job.
    ///
    /// Equivalent to [`schedule_probed`](Self::schedule_probed) with
    /// [`Probes::none`]; the probes compile away on this path.
    #[must_use]
    pub fn schedule(&self, platform: &Platform, slots: &SlotList, jobs: &[Job]) -> BatchSchedule {
        self.schedule_probed(platform, slots, jobs, Probes::none())
    }

    /// Runs one scheduling cycle with observability probes.
    ///
    /// On top of [`schedule`](Self::schedule)'s behaviour, the cycle
    /// reports to each enabled sink of `probes`:
    ///
    /// - recorder: [`TraceEvent::BatchStarted`], then per job a
    ///   [`TraceEvent::AlternativesFound`] as phase 1 searches it;
    ///   [`TraceEvent::MckpSolved`] with the knapsack instance size and
    ///   whether the exact DP (vs the greedy fallback) produced the picks;
    ///   per job a [`TraceEvent::JobCommitted`] or
    ///   [`TraceEvent::JobDeferred`] as the commit step resolves conflicts;
    ///   wall-clock timings for the three steps (`"batch.phase1"`,
    ///   `"batch.phase2"`, `"batch.commit"`);
    /// - metrics (all names prefixed `slotsel_`): `batch_total`,
    ///   `batch_jobs_total`, `batch_jobs_scheduled_total`,
    ///   `batch_jobs_deferred_total` counters over the cycle's outcome;
    ///   `mckp_total{mode="exact"|"greedy"|"fallback"}`, the phase-2 solver
    ///   that produced the picks; a `batch_phase_seconds{phase=…}`
    ///   histogram per step; the `batch_alternatives_per_job` fan-out
    ///   distribution; plus every scan's and CSA search's metrics;
    /// - spans: a `"batch.schedule"` root with three phase children —
    ///   `"batch.phase1"` (one `"csa.search"`/`"aep.scan"` grandchild per
    ///   job, via [`SearchStrategy::find_alternatives_probed`]),
    ///   `"batch.phase2"` (MCKP instance size and solver mode as
    ///   attributes) and `"batch.commit"` (committed/deferred counts).
    ///
    /// With disabled sinks every probe compiles away and the schedule is
    /// identical to the plain path, bit for bit.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn schedule_probed<R: Recorder, M: Metrics, S: SpanSink>(
        &self,
        platform: &Platform,
        slots: &SlotList,
        jobs: &[Job],
        probes: Probes<R, M, S>,
    ) -> BatchSchedule {
        let Probes {
            mut recorder,
            metrics,
            mut spans,
        } = probes;
        let metered = metrics.enabled();
        let spanning = spans.enabled();
        let root = if spanning {
            let root = spans.open("batch.schedule");
            spans.attr_u64("jobs", jobs.len() as u64);
            root
        } else {
            SpanId::NONE
        };
        let mut ordered: Vec<&Job> = jobs.iter().collect();
        ordered.sort_by_key(|j| (std::cmp::Reverse(j.priority()), j.id()));

        if recorder.enabled() {
            recorder.emit(TraceEvent::BatchStarted {
                jobs: jobs.len() as u64,
            });
        }

        // Phase 1: alternatives per job, all on the same slot list. A job
        // with a directed-search override gets its single criterion-extreme
        // alternative; the rest get the broad CSA set. On a large
        // Vec-backed list, one up-front promotion to the tree store pays
        // for itself many times over: every job's CSA search then cuts in
        // O(log m) and scans through the aggregate-pruned cursor, and the
        // promoted copy is shared (read-only) across all jobs.
        let phase1 = if spanning {
            Some(spans.open("batch.phase1"))
        } else {
            None
        };
        let watch = Stopwatch::start_if(recorder.enabled() || metered);
        let promoted = promote_for_search(slots);
        let slots = promoted.as_ref().unwrap_or(slots);
        let default_search = SearchStrategy::Csa {
            max_alternatives: self.config.max_alternatives_per_job,
        };
        let alternatives: Vec<Vec<Window>> = ordered
            .iter()
            .map(|job| {
                let strategy = self
                    .config
                    .search_overrides
                    .iter()
                    .find(|(id, _)| *id == job.id())
                    .map_or(default_search, |&(_, s)| s);
                let found = strategy.find_alternatives_probed(
                    platform,
                    slots,
                    job.request(),
                    Probes::new(NoopRecorder, &metrics, &mut spans).as_dyn(),
                );
                if recorder.enabled() {
                    recorder.emit(TraceEvent::AlternativesFound {
                        job: u64::from(job.id().0),
                        count: found.len() as u64,
                    });
                }
                if metered {
                    metrics.observe(
                        "slotsel_batch_alternatives_per_job",
                        &[],
                        found.len() as f64,
                    );
                }
                found
            })
            .collect();
        if let Some(watch) = watch {
            let elapsed_ns = watch.elapsed_ns();
            if recorder.enabled() {
                recorder.time_ns("batch.phase1", elapsed_ns);
            }
            if metered {
                metrics.observe(
                    "slotsel_batch_phase_seconds",
                    &[("phase", "alternatives")],
                    elapsed_ns as f64 * 1e-9,
                );
            }
        }
        if let Some(span) = phase1 {
            spans.attr_u64(
                "alternatives",
                alternatives.iter().map(Vec::len).sum::<usize>() as u64,
            );
            spans.close(span);
        }

        // Phase 2: one alternative per schedulable job, extreme by the
        // batch objective under the VO budget.
        let phase2 = if spanning {
            Some(spans.open("batch.phase2"))
        } else {
            None
        };
        let watch = Stopwatch::start_if(recorder.enabled() || metered);
        let schedulable: Vec<usize> = alternatives
            .iter()
            .enumerate()
            .filter(|(_, alts)| !alts.is_empty())
            .map(|(i, _)| i)
            .collect();
        let classes: Vec<Vec<MckpItem>> = schedulable
            .iter()
            .map(|&i| {
                alternatives[i]
                    .iter()
                    .map(|w| MckpItem {
                        cost: w.total_cost(),
                        value: self.config.objective.value(w),
                    })
                    .collect()
            })
            .collect();
        let vo_budget = self.config.vo_budget.map_or_else(
            || {
                schedulable
                    .iter()
                    .map(|&i| ordered[i].request().budget())
                    .sum()
            },
            Money::from_f64,
        );
        // Preferred picks; fall back to per-job best value when even the
        // cheapest combination overruns the VO budget (some jobs will then
        // be dropped at commit).
        let exact = mckp::solve(&classes, vo_budget);
        let solved_exactly = exact.is_some();
        let greedy = if solved_exactly {
            None
        } else {
            mckp::solve_greedy(&classes, vo_budget)
        };
        let mckp_mode = if solved_exactly {
            "exact"
        } else if greedy.is_some() {
            "greedy"
        } else {
            "fallback"
        };
        let preferred: Vec<usize> = exact
            .or(greedy)
            .map_or_else(|| vec![0; schedulable.len()], |s| s.chosen);
        if recorder.enabled() {
            recorder.emit(TraceEvent::MckpSolved {
                classes: classes.len() as u64,
                items: classes.iter().map(Vec::len).sum::<usize>() as u64,
                exact: solved_exactly,
            });
        }
        if metered {
            metrics.counter_add("slotsel_mckp_total", &[("mode", mckp_mode)], 1);
        }
        if let Some(watch) = watch {
            let elapsed_ns = watch.elapsed_ns();
            if recorder.enabled() {
                recorder.time_ns("batch.phase2", elapsed_ns);
            }
            if metered {
                metrics.observe(
                    "slotsel_batch_phase_seconds",
                    &[("phase", "mckp")],
                    elapsed_ns as f64 * 1e-9,
                );
            }
        }
        if let Some(span) = phase2 {
            spans.attr_u64("classes", classes.len() as u64);
            spans.attr_u64("items", classes.iter().map(Vec::len).sum::<usize>() as u64);
            spans.attr_str("mode", mckp_mode);
            spans.close(span);
        }

        // Commit in priority order with conflict resolution.
        let commit = if spanning {
            Some(spans.open("batch.commit"))
        } else {
            None
        };
        let watch = Stopwatch::start_if(recorder.enabled() || metered);
        let mut committed: Vec<Window> = Vec::new();
        let mut spent = Money::ZERO;
        let mut assignments: Vec<Assignment> = Vec::with_capacity(ordered.len());
        for (rank, job) in ordered.iter().enumerate() {
            let alts = &alternatives[rank];
            let position = schedulable.iter().position(|&i| i == rank);
            let window = position.and_then(|class_index| {
                // Try the phase-2 pick first, then the job's remaining
                // alternatives by descending objective value.
                let mut order: Vec<usize> = (0..alts.len()).collect();
                order.sort_by(|&a, &b| {
                    self.config
                        .objective
                        .value(&alts[b])
                        .total_cmp(&self.config.objective.value(&alts[a]))
                        .then(a.cmp(&b))
                });
                let pick = preferred[class_index];
                order.retain(|&i| i != pick);
                order.insert(0, pick);
                order.into_iter().map(|i| &alts[i]).find_map(|candidate| {
                    let fits_budget = spent + candidate.total_cost() <= vo_budget;
                    let conflict_free = committed
                        .iter()
                        .all(|other| !windows_conflict(candidate, other));
                    (fits_budget && conflict_free).then(|| candidate.clone())
                })
            });
            if let Some(w) = &window {
                spent += w.total_cost();
                committed.push(w.clone());
            }
            if recorder.enabled() {
                match &window {
                    Some(w) => recorder.emit(TraceEvent::JobCommitted {
                        job: u64::from(job.id().0),
                        start: w.start().ticks(),
                        finish: w.finish().ticks(),
                        cost: w.total_cost().as_f64(),
                    }),
                    None => recorder.emit(TraceEvent::JobDeferred {
                        job: u64::from(job.id().0),
                    }),
                }
            }
            assignments.push(Assignment {
                job: (*job).clone(),
                window,
                alternatives_found: alts.len(),
            });
        }
        if let Some(watch) = watch {
            let elapsed_ns = watch.elapsed_ns();
            if recorder.enabled() {
                recorder.time_ns("batch.commit", elapsed_ns);
            }
            if metered {
                metrics.observe(
                    "slotsel_batch_phase_seconds",
                    &[("phase", "commit")],
                    elapsed_ns as f64 * 1e-9,
                );
            }
        }
        let schedule = BatchSchedule { assignments };
        if let Some(span) = commit {
            spans.attr_u64("committed", schedule.scheduled() as u64);
            spans.attr_u64("deferred", schedule.deferred() as u64);
            spans.close(span);
        }
        if metered {
            metrics.counter_add("slotsel_batch_total", &[], 1);
            metrics.counter_add("slotsel_batch_jobs_total", &[], jobs.len() as u64);
            metrics.counter_add(
                "slotsel_batch_jobs_scheduled_total",
                &[],
                schedule.scheduled() as u64,
            );
            metrics.counter_add(
                "slotsel_batch_jobs_deferred_total",
                &[],
                schedule.deferred() as u64,
            );
            metrics.gauge_set("slotsel_batch_spent_credits", &[], spent.as_f64());
        }
        if spanning {
            spans.close(root);
        }
        schedule
    }
}

impl BatchScheduler {
    /// Runs one cycle minimising the batch **makespan** (the latest finish
    /// over committed windows) — the "overall makespan" criterion of the
    /// paper's §3.3 related work, which is a maximum rather than a sum and
    /// so falls outside the MCKP machinery.
    ///
    /// The threshold search: candidate makespans are the distinct finish
    /// times of all alternatives; for each threshold `T` (ascending) the
    /// alternatives finishing after `T` are dropped and a normal commit is
    /// attempted. The smallest `T` that schedules the maximum achievable
    /// number of jobs wins; among the committed windows the configured
    /// objective still breaks ties.
    #[must_use]
    pub fn schedule_min_makespan(
        &self,
        platform: &Platform,
        slots: &SlotList,
        jobs: &[Job],
    ) -> BatchSchedule {
        let unconstrained = self.schedule(platform, slots, jobs);
        let achievable = unconstrained.scheduled();
        if achievable == 0 {
            return unconstrained;
        }
        // Candidate thresholds from the unconstrained run's alternatives:
        // rerunning phase 1 per threshold would be exact but wasteful; the
        // committed windows' finishes already bracket the answer.
        let mut thresholds: Vec<TimePoint> = unconstrained
            .assignments
            .iter()
            .filter_map(|a| a.window.as_ref())
            .map(Window::finish)
            .collect();
        thresholds.sort_unstable();
        thresholds.dedup();

        let mut best = unconstrained;
        for &threshold in &thresholds {
            // Constrain every job to finish by the threshold via deadlines.
            let constrained: Vec<Job> = jobs
                .iter()
                .map(|job| {
                    let request = job
                        .request()
                        .clone()
                        .into_builder()
                        .deadline(threshold)
                        .build()
                        .expect("tightening a valid request stays valid");
                    Job::new(job.id(), job.priority(), request)
                })
                .collect();
            let schedule = self.schedule(platform, slots, &constrained);
            if schedule.scheduled() == achievable {
                best = schedule;
                break; // Thresholds ascend; the first full commit is minimal.
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slotsel_core::{
        Interval, JobId, NodeSpec, Performance, ResourceRequest, TimePoint, Volume,
    };
    use slotsel_obs::NoopSpanSink;

    fn platform(count: u32, perf: u32, price: f64) -> Platform {
        (0..count)
            .map(|i| {
                NodeSpec::builder(i)
                    .performance(Performance::new(perf))
                    .price_per_unit(Money::from_f64(price))
                    .build()
            })
            .collect()
    }

    fn idle(platform: &Platform, end: i64) -> SlotList {
        let mut list = SlotList::new();
        for node in platform {
            list.add(
                node.id(),
                Interval::new(TimePoint::new(0), TimePoint::new(end)),
                node.performance(),
                node.price_per_unit(),
            );
        }
        list
    }

    fn job(id: u32, priority: u32, n: usize, volume: u64, budget: f64) -> Job {
        Job::new(
            JobId(id),
            priority,
            ResourceRequest::builder()
                .node_count(n)
                .volume(Volume::new(volume))
                .budget(Money::from_f64(budget))
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn schedules_compatible_jobs_together() {
        let p = platform(6, 2, 1.0);
        let slots = idle(&p, 600);
        let jobs = vec![job(0, 1, 2, 100, 1_000.0), job(1, 1, 2, 100, 1_000.0)];
        let schedule = BatchScheduler::default().schedule(&p, &slots, &jobs);
        assert_eq!(schedule.scheduled(), 2);
        assert_eq!(schedule.deferred(), 0);
        let windows: Vec<&Window> = schedule
            .assignments
            .iter()
            .filter_map(|a| a.window.as_ref())
            .collect();
        assert!(!windows_conflict(windows[0], windows[1]));
    }

    #[test]
    fn schedule_is_identical_on_both_slot_stores() {
        use slotsel_core::slotlist::SlotStoreKind;
        let p = platform(6, 2, 1.0);
        let vec_slots = idle(&p, 600);
        let mut tree_slots = vec_slots.clone();
        tree_slots.convert(SlotStoreKind::Tree);
        let jobs = vec![
            job(0, 1, 2, 100, 1_000.0),
            job(1, 3, 3, 140, 1_000.0),
            job(2, 2, 2, 90, 500.0),
        ];
        let from_vec = BatchScheduler::default().schedule(&p, &vec_slots, &jobs);
        let from_tree = BatchScheduler::default().schedule(&p, &tree_slots, &jobs);
        assert_eq!(from_vec.scheduled(), from_tree.scheduled());
        assert_eq!(from_vec.deferred(), from_tree.deferred());
        let windows = |s: &BatchSchedule| {
            s.assignments
                .iter()
                .map(|a| {
                    a.window
                        .as_ref()
                        .map(|w| (w.start(), w.finish(), w.total_cost()))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            windows(&from_vec),
            windows(&from_tree),
            "the backing store must not change scheduling decisions"
        );
    }

    #[test]
    fn large_vec_lists_are_promoted_without_changing_the_schedule() {
        // Above PROMOTE_MIN_SLOTS phase 1 searches a tree-backed copy;
        // the schedule must match a run over an explicitly tree-backed
        // list (which skips promotion) and stay store-agnostic.
        use slotsel_core::slotlist::SlotStoreKind;
        let p = platform(64, 2, 1.0);
        let mut vec_slots = SlotList::new();
        for node in &p {
            // Five fragments per node: 320 slots, past the threshold.
            for k in 0..5i64 {
                vec_slots.add(
                    node.id(),
                    Interval::new(TimePoint::new(k * 120), TimePoint::new(k * 120 + 100)),
                    node.performance(),
                    node.price_per_unit(),
                );
            }
        }
        assert!(vec_slots.len() >= PROMOTE_MIN_SLOTS);
        assert!(promote_for_search(&vec_slots).is_some());
        let mut tree_slots = vec_slots.clone();
        tree_slots.convert(SlotStoreKind::Tree);
        assert!(promote_for_search(&tree_slots).is_none(), "already a tree");
        let jobs = vec![
            job(0, 1, 4, 100, 10_000.0),
            job(1, 3, 8, 140, 10_000.0),
            job(2, 2, 2, 90, 5_000.0),
        ];
        let from_vec = BatchScheduler::default().schedule(&p, &vec_slots, &jobs);
        let from_tree = BatchScheduler::default().schedule(&p, &tree_slots, &jobs);
        let windows = |s: &BatchSchedule| {
            s.assignments
                .iter()
                .map(|a| {
                    a.window
                        .as_ref()
                        .map(|w| (w.start(), w.finish(), w.total_cost()))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(windows(&from_vec), windows(&from_tree));
    }

    #[test]
    fn conflicting_jobs_resolve_by_priority() {
        // Exactly 2 nodes: both jobs want both nodes at t=0; the high
        // priority job wins, the other takes a later alternative.
        let p = platform(2, 2, 1.0);
        let slots = idle(&p, 600);
        let jobs = vec![job(0, 1, 2, 100, 1_000.0), job(1, 9, 2, 100, 1_000.0)];
        let schedule = BatchScheduler::default().schedule(&p, &slots, &jobs);
        assert_eq!(schedule.scheduled(), 2);
        let high = &schedule.assignments[0];
        assert_eq!(high.job.id(), JobId(1), "priority 9 scheduled first");
        let low = &schedule.assignments[1];
        let high_w = high.window.as_ref().unwrap();
        let low_w = low.window.as_ref().unwrap();
        assert!(!windows_conflict(high_w, low_w));
        assert!(low_w.start() >= high_w.finish() || high_w.start() >= low_w.finish());
    }

    #[test]
    fn defers_job_when_capacity_exhausted() {
        // One short interval, two jobs that each need the whole platform
        // for most of it.
        let p = platform(2, 2, 1.0);
        let slots = idle(&p, 60);
        let jobs = vec![job(0, 2, 2, 100, 1_000.0), job(1, 1, 2, 100, 1_000.0)];
        let schedule = BatchScheduler::default().schedule(&p, &slots, &jobs);
        assert_eq!(schedule.scheduled(), 1);
        assert_eq!(schedule.deferred(), 1);
        assert!(
            schedule.assignments[0].window.is_some(),
            "higher priority wins"
        );
        assert_eq!(schedule.assignments[0].job.id(), JobId(0));
    }

    #[test]
    fn vo_budget_limits_the_batch() {
        let p = platform(4, 2, 1.0);
        let slots = idle(&p, 600);
        // Each job's window costs 100; VO budget 150 fits only one.
        let jobs = vec![job(0, 2, 2, 100, 1_000.0), job(1, 1, 2, 100, 1_000.0)];
        let config = BatchSchedulerConfig {
            vo_budget: Some(150.0),
            ..Default::default()
        };
        let schedule = BatchScheduler::new(config).schedule(&p, &slots, &jobs);
        assert_eq!(schedule.scheduled(), 1);
        assert!(schedule.total_cost() <= Money::from_f64(150.0));
    }

    #[test]
    fn min_cost_objective_prefers_cheap_alternatives() {
        // Heterogeneous prices: the cheapest alternative differs from the
        // earliest.
        let p: Platform = [(2u32, 5.0), (2, 5.0), (2, 1.0), (2, 1.0)]
            .iter()
            .enumerate()
            .map(|(i, &(perf, price))| {
                NodeSpec::builder(i as u32)
                    .performance(Performance::new(perf))
                    .price_per_unit(Money::from_f64(price))
                    .build()
            })
            .collect();
        let mut slots = SlotList::new();
        for node in &p {
            let start = if node.id().index() < 2 { 0 } else { 100 };
            slots.add(
                node.id(),
                Interval::new(TimePoint::new(start), TimePoint::new(600)),
                node.performance(),
                node.price_per_unit(),
            );
        }
        let jobs = vec![job(0, 1, 2, 100, 1_000.0)];
        let schedule = BatchScheduler::default().schedule(&p, &slots, &jobs);
        let w = schedule.assignments[0].window.as_ref().unwrap();
        assert_eq!(
            w.total_cost(),
            Money::from_units(100),
            "picked the cheap pair"
        );
    }

    #[test]
    fn metrics_on_empty_schedule() {
        let p = platform(1, 2, 1.0);
        let slots = idle(&p, 10);
        let jobs = vec![job(0, 1, 5, 100, 1_000.0)];
        let schedule = BatchScheduler::default().schedule(&p, &slots, &jobs);
        assert_eq!(schedule.scheduled(), 0);
        assert_eq!(schedule.total_cost(), Money::ZERO);
        assert_eq!(schedule.makespan(), None);
        assert_eq!(schedule.mean_finish(), None);
    }

    #[test]
    fn directed_search_override_shapes_a_jobs_window() {
        use crate::strategy::SearchStrategy;
        use slotsel_core::Criterion;
        // Heterogeneous prices; default phase 2 minimises batch cost, so
        // job 0 normally gets the cheap pair. A directed MinRuntime search
        // pins its single alternative to the fastest nodes instead.
        let p: Platform = [(2u32, 1.0), (2, 1.0), (10, 9.0), (10, 9.0)]
            .iter()
            .enumerate()
            .map(|(i, &(perf, price))| {
                NodeSpec::builder(i as u32)
                    .performance(Performance::new(perf))
                    .price_per_unit(Money::from_f64(price))
                    .build()
            })
            .collect();
        let slots = idle(&p, 600);
        let jobs = vec![job(0, 1, 2, 100, 10_000.0)];

        let plain = BatchScheduler::default().schedule(&p, &slots, &jobs);
        let plain_w = plain.assignments[0].window.as_ref().unwrap();
        assert_eq!(plain_w.runtime().ticks(), 50, "cheap slow pair by default");

        let config = BatchSchedulerConfig {
            search_overrides: vec![(JobId(0), SearchStrategy::Directed(Criterion::MinRuntime))],
            ..Default::default()
        };
        let directed = BatchScheduler::new(config).schedule(&p, &slots, &jobs);
        let directed_w = directed.assignments[0].window.as_ref().unwrap();
        assert_eq!(
            directed_w.runtime().ticks(),
            10,
            "directed search pins the fast pair"
        );
        assert!(directed_w.total_cost() > plain_w.total_cost());
    }

    #[test]
    fn min_makespan_schedules_as_many_jobs_with_earlier_makespan() {
        let p = platform(4, 2, 1.0);
        let slots = idle(&p, 600);
        // Two jobs that must serialise on the 4-node platform.
        let jobs = vec![job(0, 2, 4, 100, 1_000.0), job(1, 1, 4, 100, 1_000.0)];
        let scheduler = BatchScheduler::default();
        let plain = scheduler.schedule(&p, &slots, &jobs);
        let tight = scheduler.schedule_min_makespan(&p, &slots, &jobs);
        assert_eq!(tight.scheduled(), plain.scheduled());
        assert!(tight.makespan().unwrap() <= plain.makespan().unwrap());
        // Serialised 50-long jobs: the optimum makespan is 100.
        assert_eq!(tight.makespan().unwrap().ticks(), 100);
    }

    #[test]
    fn min_makespan_on_empty_batch() {
        let p = platform(2, 2, 1.0);
        let slots = idle(&p, 60);
        let schedule = BatchScheduler::default().schedule_min_makespan(&p, &slots, &[]);
        assert!(schedule.assignments.is_empty());
    }

    #[test]
    fn min_makespan_never_schedules_fewer_jobs() {
        let p = platform(6, 3, 2.0);
        let slots = idle(&p, 600);
        let jobs: Vec<Job> = (0..4).map(|i| job(i, i, 3, 150, 5_000.0)).collect();
        let scheduler = BatchScheduler::default();
        let plain = scheduler.schedule(&p, &slots, &jobs);
        let tight = scheduler.schedule_min_makespan(&p, &slots, &jobs);
        assert_eq!(tight.scheduled(), plain.scheduled());
        assert!(tight.makespan().unwrap() <= plain.makespan().unwrap());
    }

    #[test]
    fn readmit_ages_and_appends() {
        let scheduler = BatchScheduler::default();
        let mut pending = vec![job(0, 5, 2, 100, 1_000.0)];
        scheduler.readmit(&mut pending, vec![job(1, 2, 2, 100, 1_000.0)], 3);
        assert_eq!(pending.len(), 2);
        assert_eq!(pending[1].id(), JobId(1));
        assert_eq!(pending[1].priority(), 5, "priority 2 aged by 3");
    }

    #[test]
    fn readmit_replaces_duplicate_ids() {
        let scheduler = BatchScheduler::default();
        let mut pending = vec![job(0, 1, 2, 100, 1_000.0), job(1, 1, 2, 100, 1_000.0)];
        scheduler.readmit(&mut pending, vec![job(0, 4, 2, 100, 1_000.0)], 1);
        assert_eq!(pending.len(), 2, "duplicate id must not grow the batch");
        assert_eq!(pending[0].priority(), 5, "returning copy (aged) wins");
    }

    #[test]
    fn probed_schedule_matches_plain_and_feeds_every_sink() {
        use slotsel_obs::{MemoryRecorder, MemorySpanSink, MetricsRegistry};

        let p = platform(4, 2, 1.0);
        let slots = idle(&p, 600);
        // Job 2 requests more nodes than the platform has, so it finds no
        // alternatives and is deferred.
        let jobs = vec![
            job(0, 3, 2, 100, 1_000.0),
            job(1, 1, 2, 100, 1_000.0),
            job(2, 2, 9, 100, 1_000.0),
        ];
        let scheduler = BatchScheduler::default();
        let plain = scheduler.schedule(&p, &slots, &jobs);
        let mut recorder = MemoryRecorder::new();
        let registry = MetricsRegistry::new();
        let mut sink = MemorySpanSink::new();
        let probed = scheduler.schedule_probed(
            &p,
            &slots,
            &jobs,
            Probes::new(&mut recorder, &registry, &mut sink),
        );

        // The instrumented path must not change scheduling decisions.
        assert_eq!(plain, probed);
        assert_eq!(probed.scheduled(), 2);
        assert_eq!(probed.deferred(), 1);

        let started: Vec<_> = recorder
            .events_where(|e| matches!(e, TraceEvent::BatchStarted { .. }))
            .collect();
        assert_eq!(started, [&TraceEvent::BatchStarted { jobs: 3 }]);

        // One alternatives report per job, in priority order.
        let alt_jobs: Vec<u64> = recorder
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::AlternativesFound { job, count } => Some((*job, *count)),
                _ => None,
            })
            .map(|(job, count)| {
                if job == 2 {
                    assert_eq!(count, 0, "oversized job finds no alternatives");
                } else {
                    assert!(count > 0);
                }
                job
            })
            .collect();
        assert_eq!(alt_jobs, [0, 2, 1], "phase 1 visits jobs by priority");

        // One MCKP report covering exactly the schedulable jobs.
        let mckp: Vec<_> = recorder
            .events_where(|e| matches!(e, TraceEvent::MckpSolved { .. }))
            .collect();
        assert_eq!(mckp.len(), 1);
        if let TraceEvent::MckpSolved { classes, items, .. } = mckp[0] {
            assert_eq!(*classes, 2, "only jobs with alternatives enter MCKP");
            assert!(*items >= *classes);
        }

        // Commit outcomes mirror the returned assignments.
        let committed: Vec<_> = recorder
            .events_where(|e| matches!(e, TraceEvent::JobCommitted { .. }))
            .collect();
        assert_eq!(committed.len(), 2);
        let deferred: Vec<_> = recorder
            .events_where(|e| matches!(e, TraceEvent::JobDeferred { .. }))
            .collect();
        assert_eq!(deferred, [&TraceEvent::JobDeferred { job: 2 }]);

        for phase in ["batch.phase1", "batch.phase2", "batch.commit"] {
            let timer = recorder.timer(phase).expect(phase);
            assert_eq!(timer.count(), 1, "{phase} timed once");
        }

        // Metrics: the cycle's outcome, the solver mode, one phase timing
        // per step, the fan-out per job, and the scans underneath.
        for (name, value) in [
            ("slotsel_batch_total", 1),
            ("slotsel_batch_jobs_total", 3),
            ("slotsel_batch_jobs_scheduled_total", 2),
            ("slotsel_batch_jobs_deferred_total", 1),
        ] {
            assert_eq!(registry.counter_value(name, &[]), value, "{name}");
        }
        assert_eq!(
            registry.counter_value("slotsel_mckp_total", &[("mode", "exact")]),
            1
        );
        for phase in ["alternatives", "mckp", "commit"] {
            let labels = [("phase", phase)];
            let timings = registry.histogram("slotsel_batch_phase_seconds", &labels);
            assert_eq!(timings.expect(phase).count(), 1, "{phase}");
        }
        let fan_out = registry.histogram("slotsel_batch_alternatives_per_job", &[]);
        assert_eq!(fan_out.expect("fan-out histogram").count(), 3);
        assert!(registry.counter_value("slotsel_scan_total", &[("policy", "AMP")]) > 0);

        // Spans: the root carries the phase children, phase 1 holds one
        // csa.search per job with aep.scan leaves, and every span nests
        // inside the root's interval.
        let records = sink.take_records();
        let root = &records[0];
        assert_eq!(root.name, "batch.schedule");
        for phase in ["batch.phase1", "batch.phase2", "batch.commit"] {
            assert!(
                records
                    .iter()
                    .any(|r| r.name == phase && r.parent == root.id),
                "missing {phase} under the root"
            );
        }
        assert_eq!(records.iter().filter(|r| r.name == "csa.search").count(), 3);
        assert!(records.iter().any(|r| r.name == "aep.scan"));
        for record in &records {
            assert!(record.start_us >= root.start_us && record.end_us <= root.end_us);
        }
    }

    #[test]
    fn an_enormous_budget_falls_back_to_the_greedy_solver() {
        use slotsel_obs::MetricsRegistry;

        let p = platform(4, 2, 1.0);
        let slots = idle(&p, 600);
        let jobs = vec![job(0, 1, 2, 100, 1e12), job(1, 1, 2, 100, 1_000.0)];
        let registry = MetricsRegistry::new();
        let schedule = BatchScheduler::default().schedule_probed(
            &p,
            &slots,
            &jobs,
            Probes::new(NoopRecorder, &registry, NoopSpanSink),
        );
        assert_eq!(schedule.scheduled(), 2);
        assert_eq!(
            registry.counter_value("slotsel_mckp_total", &[("mode", "greedy")]),
            1
        );
    }

    #[test]
    fn all_committed_windows_are_pairwise_conflict_free() {
        let p = platform(8, 3, 2.0);
        let slots = idle(&p, 600);
        let jobs: Vec<Job> = (0..5).map(|i| job(i, i, 3, 120, 10_000.0)).collect();
        let schedule = BatchScheduler::default().schedule(&p, &slots, &jobs);
        let windows: Vec<&Window> = schedule
            .assignments
            .iter()
            .filter_map(|a| a.window.as_ref())
            .collect();
        for i in 0..windows.len() {
            for j in (i + 1)..windows.len() {
                assert!(!windows_conflict(windows[i], windows[j]), "{i} vs {j}");
            }
        }
    }
}
