//! The AEP scan: a single linear pass over the ordered slot list.
//!
//! The **A**lgorithm searching for **E**xtreme **P**erformance walks the
//! slot list in non-decreasing start order, maintaining the *extended
//! window* — the set of alive slots that could still host a task anchored
//! at the current window start. After each admission it prunes slots whose
//! remainder became too short, and if at least `n` candidates remain it asks
//! a [`SelectionPolicy`] to pick the best `n`-subset and scores the
//! resulting window. The best-scoring window over all steps is returned.
//!
//! The scan never looks back: it visits each of the `m` slots exactly once.
//! The extended window lives in an incremental [`CandidatePool`] that keeps
//! the candidates cost- and length-ordered across steps (`O(log m')` per
//! admission/eviction), so the per-step subset selection never re-sorts —
//! this is what actually delivers the linear-in-`m` working time the paper
//! claims for all AEP implementations (§2.2, Table 1). The historical
//! sort-per-step formulation is retained verbatim in [`crate::reference`]
//! as a correctness oracle and benchmark baseline.
//!
//! # Examples
//!
//! ```
//! use slotsel_core::algorithms::{MinCost, SlotSelector};
//! use slotsel_core::money::Money;
//! use slotsel_core::node::{NodeSpec, Performance, Platform, Volume};
//! use slotsel_core::request::ResourceRequest;
//! use slotsel_core::slotlist::SlotList;
//! use slotsel_core::time::{Interval, TimePoint};
//!
//! # fn main() -> Result<(), slotsel_core::error::RequestError> {
//! let platform: Platform = (0..3)
//!     .map(|i| {
//!         NodeSpec::builder(i)
//!             .performance(Performance::new(2 + i))
//!             .price_per_unit(Money::from_units(i64::from(2 + i)))
//!             .build()
//!     })
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
//!     .budget(Money::from_units(10_000))
//!     .build()?;
//! let window = MinCost.select(&platform, &slots, &request);
//! assert!(window.is_some());
//! # Ok(())
//! # }
//! ```

use slotsel_obs::{Metrics, Probes, Recorder, SpanSink, Stopwatch, TraceEvent};

use crate::node::Platform;
use crate::pool::CandidatePool;
use crate::request::ResourceRequest;
use crate::rng::SplitMix64;
use crate::selectors::Candidate;
use crate::slot::Slot;
use crate::slotlist::{Iter, SlotList};
use crate::time::TimePoint;
use crate::treeslots::{PruneSpec, PrunedCursor};
use crate::window::Window;

/// Borrowed draw state for the scan's random-draw fast path — see
/// [`SelectionPolicy::random_pick`].
#[derive(Debug)]
pub struct RandomPick<'a> {
    /// The policy's generator; the scan advances it exactly as the
    /// slice-based picker would.
    pub rng: &'a mut SplitMix64,
    /// Random subsets tried per consulted step before the cheapest-subset
    /// fallback.
    pub attempts: usize,
}

/// The pluggable step of the AEP scan: subset selection and window scoring.
///
/// `pick` is the paper's `getBestWindow`, `score` its `getCriterion`.
/// Implementations must be consistent: `score` has to be the criterion that
/// `pick` extremises at each step, otherwise the scan's "best over all
/// steps" result loses its meaning.
pub trait SelectionPolicy {
    /// Human-readable policy name for reports.
    fn name(&self) -> &str;

    /// Picks the indices of the best `n`-subset of `alive` for a window
    /// anchored at `window_start`, or `None` when no subset satisfies the
    /// budget.
    ///
    /// This is the slice-based formulation: `alive` lists the extended
    /// window in admission order and the returned indices point into it.
    /// The scan itself calls [`pick_pool`](SelectionPolicy::pick_pool);
    /// policies that only implement `pick` are adapted automatically.
    fn pick(
        &mut self,
        window_start: TimePoint,
        alive: &[Candidate],
        request: &ResourceRequest,
    ) -> Option<Vec<usize>>;

    /// Picks the best `n`-subset directly from the scan's incremental
    /// [`CandidatePool`], returning arena ids.
    ///
    /// The pool keeps the extended window cost- and length-ordered across
    /// scan steps, so overriding this method lets a policy skip the
    /// per-step re-sorting entirely (the built-in algorithms all do). The
    /// default implementation is a compatibility shim: it materialises the
    /// alive set in admission order — exactly the slice the historical scan
    /// passed — delegates to [`pick`](SelectionPolicy::pick), and maps the
    /// returned slice indices back to arena ids. Overrides must pick the
    /// same subsets `pick` would, in the same order.
    fn pick_pool(
        &mut self,
        window_start: TimePoint,
        pool: &CandidatePool,
        request: &ResourceRequest,
    ) -> Option<Vec<usize>> {
        let ids = pool.alive_ids();
        let alive: Vec<Candidate> = ids.iter().map(|&id| *pool.candidate(id)).collect();
        let picked = self.pick(window_start, &alive, request)?;
        Some(picked.into_iter().map(|i| ids[i]).collect())
    }

    /// Scores a picked window; **lower is better**.
    fn score(&self, window: &Window) -> f64;

    /// When `true` the scan stops at the first suitable window — AMP's
    /// earliest-start behaviour, where later steps can never improve.
    fn stop_at_first(&self) -> bool {
        false
    }

    /// Opt-in contract for the scan's first-fit fast path.
    ///
    /// Return `true` only when **both** hold:
    /// [`stop_at_first`](SelectionPolicy::stop_at_first) is `true`, and
    /// [`pick`](SelectionPolicy::pick) succeeds at a step *iff* the `n`
    /// cheapest alive candidates fit the request's budget (i.e. `pick` is
    /// exactly [`cheapest_n`](crate::selectors::cheapest_n), as in AMP).
    ///
    /// Under that contract the scan skips the incremental
    /// [`CandidatePool`] — whose ordered indexes only pay off when many
    /// steps run many subset queries — and instead keeps a plain alive
    /// vector, calling `cheapest_n` directly at each consulted step
    /// without the per-step virtual `pick` dispatch. Windows,
    /// [`ScanStats`] and trace events are identical to the regular scan;
    /// only the constant factors change.
    fn first_fit_feasibility(&self) -> bool {
        false
    }

    /// Opt-in contract for the scan's random-draw fast path.
    ///
    /// Return `Some` only when **both** hold:
    /// [`stop_at_first`](SelectionPolicy::stop_at_first) is `false`, and
    /// [`pick`](SelectionPolicy::pick) is exactly
    /// [`random_feasible`](crate::selectors::random_feasible) over the
    /// alive slice with the returned generator and attempt count (i.e. the
    /// simplified MinProcTime scheme).
    ///
    /// Random draws never benefit from the incremental
    /// [`CandidatePool`]'s ordered indexes: the subset is a shuffle of the
    /// whole alive set, and the budget fallback is a single sort. Under
    /// the contract the scan skips the pool — whose three `O(log m')`
    /// index updates per admission are pure overhead here — and keeps a
    /// plain alive vector in admission order (the order the pool's
    /// ascending arena ids preserve), drawing subsets over a hoisted index
    /// buffer. Windows, [`ScanStats`] and trace events are identical to
    /// the regular scan; only the constant factors change.
    fn random_pick(&mut self) -> Option<RandomPick<'_>> {
        None
    }
}

/// Tuning knobs for [`scan_probed`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanOptions {
    /// Stop scanning once no later window could beat the current best.
    ///
    /// Sound only for criteria that are bounded below by the window start
    /// (start or finish time): a window anchored at `t` can never finish
    /// before `t`, so once `best score ≤ t` the scan may stop. The paper's
    /// measured algorithms do **not** prune (Table 1 shows MinFinish paying
    /// the full scan cost); pruning is offered here as an extension and is
    /// exercised by the ablation benchmarks.
    pub prune_start_bounded: bool,
}

/// Counters describing one scan, for tests, reports and benchmarks.
#[derive(Debug, Clone, Default)]
pub struct ScanStats {
    /// Slots admitted into the extended window (passed the hardware check
    /// and were long enough in principle).
    pub slots_admitted: usize,
    /// Slots visited but never admitted: wrong hardware for the request,
    /// or too short for the task even when fully used. On a tree-backed
    /// scan this includes slots the aggregate-pruned cursor skipped
    /// without visiting — the skip predicate is exactly the rejection
    /// predicate, so the tally matches the plain scan's.
    pub slots_rejected: usize,
    /// Scan steps at which a suitable window existed and was evaluated.
    pub windows_evaluated: usize,
    /// Largest size the extended window reached.
    pub peak_extended_window: usize,
    /// Whole subtrees the aggregate-pruned tree cursor skipped without
    /// visiting their slots. Always 0 on `Vec`-backed scans. Diagnostic
    /// only: excluded from equality.
    pub subtrees_skipped: usize,
    /// Maximal runs of consecutive skipped slots the pruned cursor jumped
    /// over. Always 0 on `Vec`-backed scans. Diagnostic only: excluded
    /// from equality.
    pub windows_jumped: usize,
}

impl PartialEq for ScanStats {
    /// Equality compares the four scan counters only. The pruning tallies
    /// are diagnostics: by contract a pruned tree scan and a plain `Vec`
    /// scan of the same scenario produce *equal* stats while reporting
    /// different pruning work, and every differential oracle (fuzz
    /// checks, store equivalence, the reference scan) relies on that.
    fn eq(&self, other: &Self) -> bool {
        self.slots_admitted == other.slots_admitted
            && self.slots_rejected == other.slots_rejected
            && self.windows_evaluated == other.windows_evaluated
            && self.peak_extended_window == other.peak_extended_window
    }
}

impl Eq for ScanStats {}

/// Result of [`scan_probed`]: the best window plus scan counters.
#[derive(Debug, Clone)]
pub struct ScanOutcome {
    /// The best window by the policy's criterion, if any window was found.
    pub best: Option<Window>,
    /// Scan counters.
    pub stats: ScanStats,
}

/// Runs the AEP scan and returns the best window by the policy's criterion.
///
/// Equivalent to [`scan_probed`] with default [`ScanOptions`] and
/// [`Probes::none`], discarding the statistics.
#[must_use]
pub fn scan(
    platform: &Platform,
    slots: &SlotList,
    request: &ResourceRequest,
    policy: &mut dyn SelectionPolicy,
) -> Option<Window> {
    scan_probed(
        platform,
        slots,
        request,
        policy,
        ScanOptions::default(),
        Probes::none(),
    )
    .best
}

/// One exported [`ScanStats`] counter: how to read it, its Prometheus
/// counter (labelled with the policy) and its `"aep.scan"` span attribute.
type ScanCounter = (fn(&ScanStats) -> usize, &'static str, &'static str);

/// The [`ScanStats`] counters every scan exports, in span-attribute order.
/// Both the metrics and the span channel are generated from this table.
const SCAN_COUNTERS: [ScanCounter; 5] = [
    (
        |s| s.slots_admitted,
        "slotsel_scan_slots_admitted_total",
        "slots_admitted",
    ),
    (
        |s| s.slots_rejected,
        "slotsel_scan_slots_rejected_total",
        "slots_rejected",
    ),
    (
        |s| s.windows_evaluated,
        "slotsel_scan_windows_evaluated_total",
        "windows_evaluated",
    ),
    (
        |s| s.subtrees_skipped,
        "slotsel_scan_subtrees_skipped_total",
        "subtrees_skipped",
    ),
    (
        |s| s.windows_jumped,
        "slotsel_scan_windows_jumped_total",
        "windows_jumped",
    ),
];

/// Runs the AEP scan with explicit options and observability probes,
/// returning the best window and scan statistics.
///
/// Slots whose node fails the request's hardware/software requirements, or
/// that are too short for the task even when fully used, never enter the
/// extended window. With a deadline set, candidates that cannot complete by
/// it are pruned and the scan stops once window starts pass the deadline.
///
/// On a tree-backed [`SlotList`] (and without
/// [`prune_start_bounded`](ScanOptions::prune_start_bounded)) the scan
/// walks an aggregate-pruned cursor instead of the plain iterator,
/// skipping whole subtrees of provably-rejected slots; results, stats and
/// traces are identical, with the pruning work reported in
/// [`ScanStats::subtrees_skipped`] and [`ScanStats::windows_jumped`].
///
/// The scan reports to each enabled sink of `probes`:
///
/// - recorder: [`TraceEvent::ScanStarted`] / [`TraceEvent::ScanFinished`]
///   bracketing the scan, the latter carrying the full [`ScanStats`];
///   [`TraceEvent::BestUpdated`] for every improvement of the best-so-far
///   window (the paper's `maxCriterion` updates); an `"aep.alive"` sample
///   of the extended-window size at every admission and an `"aep.scan"`
///   wall-clock timing;
/// - metrics, all labelled with the policy name: the counters
///   `slotsel_scan_total`, `slotsel_scan_windows_found_total`,
///   `slotsel_scan_{slots_admitted,slots_rejected,windows_evaluated}_total`,
///   `slotsel_scan_{subtrees_skipped,windows_jumped}_total` (the
///   aggregate-pruned cursor's work on tree-backed lists; 0 on `Vec`
///   lists), `slotsel_pool_evicted_superseded_total` and
///   `slotsel_pool_evicted_expired_total`, and the histograms
///   `slotsel_scan_seconds` and `slotsel_scan_alive_peak`;
/// - spans: an `"aep.scan"` span around the whole scan carrying the policy
///   name, the same five [`ScanStats`] counters (`slots_admitted`,
///   `slots_rejected`, `windows_evaluated`, `subtrees_skipped`,
///   `windows_jumped`) and whether a window was `found`. It parents under
///   whatever span is open on the sink.
///
/// Every probe is gated on its sink's `enabled()`: with [`Probes::none`]
/// the instrumented branches are dead code and this monomorphises to the
/// uninstrumented scan.
#[must_use]
pub fn scan_probed<R: Recorder, M: Metrics, S: SpanSink>(
    platform: &Platform,
    slots: &SlotList,
    request: &ResourceRequest,
    policy: &mut dyn SelectionPolicy,
    options: ScanOptions,
    probes: Probes<R, M, S>,
) -> ScanOutcome {
    let Probes {
        mut recorder,
        metrics,
        mut spans,
    } = probes;
    let span = spans.enabled().then(|| spans.open("aep.scan"));
    let metered = metrics.enabled();
    let watch = Stopwatch::start_if(metered);
    let (outcome, superseded, expired) = if policy.stop_at_first() && policy.first_fit_feasibility()
    {
        first_fit_scan(
            platform,
            slots,
            request,
            policy,
            options,
            &mut recorder,
            &metrics,
        )
    } else if policy.random_pick().is_some() {
        random_scan(
            platform,
            slots,
            request,
            policy,
            options,
            &mut recorder,
            &metrics,
        )
    } else {
        pool_scan(platform, slots, request, policy, options, &mut recorder)
    };
    if metered {
        let name = policy.name().to_owned();
        let labels = [("policy", name.as_str())];
        metrics.counter_add("slotsel_scan_total", &labels, 1);
        if outcome.best.is_some() {
            metrics.counter_add("slotsel_scan_windows_found_total", &labels, 1);
        }
        for (field, counter, _) in SCAN_COUNTERS {
            metrics.counter_add(counter, &labels, field(&outcome.stats) as u64);
        }
        metrics.counter_add("slotsel_pool_evicted_superseded_total", &labels, superseded);
        metrics.counter_add("slotsel_pool_evicted_expired_total", &labels, expired);
        #[allow(clippy::cast_precision_loss)]
        metrics.observe(
            "slotsel_scan_alive_peak",
            &labels,
            outcome.stats.peak_extended_window as f64,
        );
        if let Some(watch) = watch {
            #[allow(clippy::cast_precision_loss)]
            metrics.observe(
                "slotsel_scan_seconds",
                &labels,
                watch.elapsed_ns() as f64 * 1e-9,
            );
        }
    }
    if let Some(span) = span {
        spans.attr_str("policy", policy.name());
        for (field, _, attr) in SCAN_COUNTERS {
            spans.attr_u64(attr, field(&outcome.stats) as u64);
        }
        spans.attr_u64("found", u64::from(outcome.best.is_some()));
        spans.close(span);
    }
    outcome
}

/// The slot stream every scan body consumes: the plain in-order iterator,
/// or — when the list is tree-backed — the aggregate-pruned cursor that
/// skips whole subtrees of provably-rejected slots.
///
/// The pruned cursor only ever skips slots the scan preamble would
/// *reject* (wrong hardware when nothing on the platform admits the
/// request, or too short for the volume) and never a slot at or past the
/// deadline, where the scan breaks instead of rejecting. Rejected slots
/// influence nothing but the `slots_rejected` tally — they emit no
/// events, never touch the extended window and don't advance the
/// `BestUpdated` step counter (which counts admissions) — so skipping
/// them wholesale leaves windows, stats and traces byte-identical to the
/// plain scan once [`settle`](Self::settle) credits the skip count.
enum ScanStream<'a> {
    Plain(Iter<'a>),
    Pruned(PrunedCursor<'a>),
}

impl<'a> ScanStream<'a> {
    /// Picks the stream for one scan. The pruned cursor engages only for
    /// tree-backed lists without `prune_start_bounded`: that option
    /// breaks at the first *visited* slot past the best score — rejected
    /// slots included — so its break point depends on slots the cursor
    /// would skip.
    fn for_scan(
        platform: &Platform,
        slots: &'a SlotList,
        request: &ResourceRequest,
        options: ScanOptions,
    ) -> Self {
        if !options.prune_start_bounded {
            if let Some(tree) = slots.as_tree() {
                let admit_any = platform
                    .iter()
                    .any(|node| request.requirements().admits(node));
                return ScanStream::Pruned(tree.pruned_iter(PruneSpec {
                    volume: request.volume().work(),
                    deadline: request.deadline().map(TimePoint::ticks),
                    admit_any,
                }));
            }
        }
        ScanStream::Plain(slots.iter())
    }

    fn next(&mut self) -> Option<&'a Slot> {
        match self {
            ScanStream::Plain(iter) => iter.next(),
            ScanStream::Pruned(cursor) => cursor.next(),
        }
    }

    /// Folds the cursor's pruning tallies into `stats`: skipped slots are
    /// rejections the scan never had to visit. Must run before the
    /// `ScanFinished` event so its `slots_rejected` matches the plain
    /// scan's byte-for-byte.
    fn settle(self, stats: &mut ScanStats) {
        if let ScanStream::Pruned(cursor) = self {
            stats.slots_rejected += cursor.skipped_slots();
            stats.subtrees_skipped = cursor.subtrees_skipped();
            stats.windows_jumped = cursor.windows_jumped();
        }
    }
}

/// A scan's trace-event bracket, present only when the recorder is
/// enabled. The policy name is fetched (and allocated) once per scan, not
/// once per emitted event — `pick` can fire thousands of events on long
/// slot lists.
struct ScanTrace {
    policy: String,
    watch: Stopwatch,
}

impl ScanTrace {
    /// Emits [`TraceEvent::ScanStarted`] and starts the `"aep.scan"` timer.
    fn start<R: Recorder>(
        recorder: &mut R,
        policy: &dyn SelectionPolicy,
        n: usize,
        slots: &SlotList,
    ) -> Option<Self> {
        if !recorder.enabled() {
            return None;
        }
        let watch = Stopwatch::start();
        let policy = policy.name().to_string();
        recorder.emit(TraceEvent::ScanStarted {
            policy: policy.clone(),
            nodes_requested: n as u64,
            slots_total: slots.len() as u64,
        });
        Some(ScanTrace { policy, watch })
    }

    /// Emits [`TraceEvent::BestUpdated`] for an improvement at the
    /// `step`-th admission.
    fn best_updated<R: Recorder>(
        &self,
        recorder: &mut R,
        step: usize,
        window_start: TimePoint,
        score: f64,
    ) {
        recorder.emit(TraceEvent::BestUpdated {
            policy: self.policy.clone(),
            step: step as u64,
            window_start: window_start.ticks(),
            score,
        });
    }

    /// Emits [`TraceEvent::ScanFinished`] with the settled stats and the
    /// `"aep.scan"` timing.
    fn finish<R: Recorder>(
        self,
        recorder: &mut R,
        stats: &ScanStats,
        best: Option<&(f64, Window)>,
    ) {
        recorder.emit(TraceEvent::ScanFinished {
            policy: self.policy,
            slots_admitted: stats.slots_admitted as u64,
            slots_rejected: stats.slots_rejected as u64,
            windows_evaluated: stats.windows_evaluated as u64,
            peak_alive: stats.peak_extended_window as u64,
            subtrees_skipped: stats.subtrees_skipped as u64,
            windows_jumped: stats.windows_jumped as u64,
            found: best.is_some(),
            best_score: best.map_or(0.0, |(score, _)| *score),
        });
        recorder.time_ns("aep.scan", self.watch.elapsed_ns());
    }
}

/// The regular pool-driven scan body shared by every non-first-fit policy.
/// Returns the outcome plus the pool's `(superseded, expired)` eviction
/// counts for the metrics layer.
fn pool_scan<R: Recorder>(
    platform: &Platform,
    slots: &SlotList,
    request: &ResourceRequest,
    policy: &mut dyn SelectionPolicy,
    options: ScanOptions,
    recorder: &mut R,
) -> (ScanOutcome, u64, u64) {
    let n = request.node_count();
    let mut pool = CandidatePool::new();
    let mut stats = ScanStats::default();
    let mut best: Option<(f64, Window)> = None;

    let trace = ScanTrace::start(recorder, policy, n, slots);

    let mut stream = ScanStream::for_scan(platform, slots, request, options);
    while let Some(slot) = stream.next() {
        let window_start = slot.start();

        if let Some(deadline) = request.deadline() {
            // Later slots only start later; nothing can finish in time.
            if window_start >= deadline {
                break;
            }
        }
        if options.prune_start_bounded {
            if let Some((best_score, _)) = &best {
                if *best_score <= window_start.ticks() as f64 {
                    break;
                }
            }
        }

        // properHardwareAndSoftware: the node must satisfy the request.
        let admitted = platform
            .get(slot.node())
            .is_some_and(|node| request.requirements().admits(node));
        if !admitted {
            stats.slots_rejected += 1;
            continue;
        }
        let candidate = Candidate::new(*slot, request.volume());
        if slot.length() < candidate.length {
            stats.slots_rejected += 1;
            continue; // Too short even when fully used.
        }
        // Admission supersedes any candidate on the same node (a node hosts
        // at most one task); advancing to this window start then evicts
        // every candidate whose remainder became too short or, under a
        // deadline, that can no longer finish in time. Both are O(log m')
        // pool updates instead of full passes over the alive set.
        pool.admit(candidate, request.deadline());
        stats.slots_admitted += 1;
        pool.advance(window_start);
        stats.peak_extended_window = stats.peak_extended_window.max(pool.len());
        if recorder.enabled() {
            #[allow(clippy::cast_precision_loss)]
            recorder.observe("aep.alive", pool.len() as f64);
        }

        if pool.len() < n {
            continue;
        }
        if let Some(picked) = policy.pick_pool(window_start, &pool, request) {
            debug_assert_eq!(picked.len(), n, "policy must pick exactly n slots");
            let window = pool.build_window(window_start, &picked);
            let score = policy.score(&window);
            stats.windows_evaluated += 1;
            let improved = best.as_ref().is_none_or(|(s, _)| score < *s);
            if improved {
                if let Some(trace) = &trace {
                    trace.best_updated(recorder, stats.slots_admitted, window_start, score);
                }
                best = Some((score, window));
            }
            if policy.stop_at_first() {
                break;
            }
        }
    }

    stream.settle(&mut stats);

    if let Some(trace) = trace {
        trace.finish(recorder, &stats, best.as_ref());
    }

    let (superseded, expired) = pool.evictions();
    (
        ScanOutcome {
            best: best.map(|(_, w)| w),
            stats,
        },
        superseded,
        expired,
    )
}

/// The first-fit fast path for policies that opt in via
/// [`SelectionPolicy::first_fit_feasibility`] (AMP).
///
/// AMP stops at the first feasible step, so the pool's ordered indexes —
/// three `O(log m')` B-tree inserts plus a heap push per admission — are
/// pure overhead: most admissions never see a second query. This body
/// mirrors [`crate::reference`]'s plain alive vector (same retain pass,
/// same stats, same trace events) and inlines the pick the opt-in
/// contract pins to [`cheapest_n`](crate::selectors::cheapest_n) — the
/// identical stable `(cost, index)` sort, acceptance test and canonical
/// order, but with the per-step virtual `pick` dispatch gone and the
/// index buffer hoisted out of the loop, so consulted steps allocate
/// nothing. The alive vector is pre-sized for the `n` needed plus churn
/// slack, sparing the early growth reallocations. Eviction counts feed
/// the metrics layer alone, so with metrics disabled the retain pass
/// compiles down to the reference's.
#[inline]
fn first_fit_scan<R: Recorder, M: Metrics>(
    platform: &Platform,
    slots: &SlotList,
    request: &ResourceRequest,
    policy: &mut dyn SelectionPolicy,
    options: ScanOptions,
    recorder: &mut R,
    metrics: &M,
) -> (ScanOutcome, u64, u64) {
    let n = request.node_count();
    let budget = request.budget();
    let count_evictions = metrics.enabled();
    let mut alive: Vec<Candidate> = Vec::with_capacity(2 * n.max(4));
    let mut order: Vec<usize> = Vec::with_capacity(2 * n.max(4));
    let mut superseded: u64 = 0;
    let mut expired: u64 = 0;
    let mut stats = ScanStats::default();
    let mut best: Option<(f64, Window)> = None;

    let trace = ScanTrace::start(recorder, policy, n, slots);

    let mut stream = ScanStream::for_scan(platform, slots, request, options);
    while let Some(slot) = stream.next() {
        let window_start = slot.start();

        if let Some(deadline) = request.deadline() {
            // Later slots only start later; nothing can finish in time.
            if window_start >= deadline {
                break;
            }
        }
        if options.prune_start_bounded {
            if let Some((best_score, _)) = &best {
                if *best_score <= window_start.ticks() as f64 {
                    break;
                }
            }
        }

        // properHardwareAndSoftware: the node must satisfy the request.
        let admitted = platform
            .get(slot.node())
            .is_some_and(|node| request.requirements().admits(node));
        if !admitted {
            stats.slots_rejected += 1;
            continue;
        }
        let candidate = Candidate::new(*slot, request.volume());
        if slot.length() < candidate.length {
            stats.slots_rejected += 1;
            continue; // Too short even when fully used.
        }
        // Same single retain pass as the reference scan; the eviction
        // split feeds the metrics layer only.
        let survives = |c: &Candidate| {
            c.alive_at(window_start)
                && request
                    .deadline()
                    .is_none_or(|d| window_start + c.length <= d)
        };
        alive.retain(|c| {
            let keep = c.slot.node() != candidate.slot.node() && survives(c);
            if !keep && count_evictions {
                if c.slot.node() == candidate.slot.node() {
                    superseded += 1;
                } else {
                    expired += 1;
                }
            }
            keep
        });
        if survives(&candidate) {
            alive.push(candidate);
        }
        stats.slots_admitted += 1;
        stats.peak_extended_window = stats.peak_extended_window.max(alive.len());
        if recorder.enabled() {
            #[allow(clippy::cast_precision_loss)]
            recorder.observe("aep.alive", alive.len() as f64);
        }

        if alive.len() < n || n == 0 {
            continue;
        }
        // cheapest_n, inlined over the hoisted index buffer: the same
        // stable (cost, index) sort, acceptance test and canonical pick
        // order, with neither the per-step allocation nor the virtual
        // `pick` dispatch.
        order.clear();
        order.extend(0..alive.len());
        order.sort_by_key(|&i| (alive[i].cost, i));
        let total: crate::money::Money = order[..n].iter().map(|&i| alive[i].cost).sum();
        if total > budget {
            continue;
        }
        let picked = &order[..n];
        let window = crate::selectors::build_window(window_start, &alive, picked);
        let score = policy.score(&window);
        stats.windows_evaluated += 1;
        if let Some(trace) = &trace {
            trace.best_updated(recorder, stats.slots_admitted, window_start, score);
        }
        best = Some((score, window));
        break; // stop_at_first is part of the opt-in contract.
    }

    stream.settle(&mut stats);

    if let Some(trace) = trace {
        trace.finish(recorder, &stats, best.as_ref());
    }

    (
        ScanOutcome {
            best: best.map(|(_, w)| w),
            stats,
        },
        superseded,
        expired,
    )
}

/// The random-draw fast path for policies that opt in via
/// [`SelectionPolicy::random_pick`] (the simplified MinProcTime scheme).
///
/// A random draw shuffles the *whole* alive set at every consulted step,
/// so the pool's cost/length/expiry indexes — three `O(log m')` B-tree
/// inserts plus a heap push per admission, and a fresh `alive_ids`
/// allocation per query — buy nothing and cost plenty. This body keeps
/// the plain alive vector in admission order (exactly the order the
/// pool's ascending arena ids preserve, so the shuffles see the same
/// sequence) and draws subsets over a hoisted index buffer. The RNG
/// advances identically to [`random_feasible`]: `shuffle` draws depend
/// only on the slice length, attempts accumulate over the same buffer,
/// and the cheapest-subset fallback — a sort by the unique `(cost,
/// index)` key, so the pre-sort shuffle order cannot affect it — draws
/// nothing. Unlike [`first_fit_scan`] the loop keeps full best-tracking:
/// `BestUpdated` fires on improvements only, and the scan never breaks
/// early. Eviction counts feed the metrics layer alone.
///
/// [`random_feasible`]: crate::selectors::random_feasible
#[inline]
fn random_scan<R: Recorder, M: Metrics>(
    platform: &Platform,
    slots: &SlotList,
    request: &ResourceRequest,
    policy: &mut dyn SelectionPolicy,
    options: ScanOptions,
    recorder: &mut R,
    metrics: &M,
) -> (ScanOutcome, u64, u64) {
    let n = request.node_count();
    let budget = request.budget();
    let count_evictions = metrics.enabled();
    let mut alive: Vec<Candidate> = Vec::with_capacity(2 * n.max(4));
    let mut order: Vec<usize> = Vec::with_capacity(2 * n.max(4));
    let mut superseded: u64 = 0;
    let mut expired: u64 = 0;
    let mut stats = ScanStats::default();
    let mut best: Option<(f64, Window)> = None;

    let trace = ScanTrace::start(recorder, policy, n, slots);

    let mut stream = ScanStream::for_scan(platform, slots, request, options);
    while let Some(slot) = stream.next() {
        let window_start = slot.start();

        if let Some(deadline) = request.deadline() {
            // Later slots only start later; nothing can finish in time.
            if window_start >= deadline {
                break;
            }
        }
        if options.prune_start_bounded {
            if let Some((best_score, _)) = &best {
                if *best_score <= window_start.ticks() as f64 {
                    break;
                }
            }
        }

        // properHardwareAndSoftware: the node must satisfy the request.
        let admitted = platform
            .get(slot.node())
            .is_some_and(|node| request.requirements().admits(node));
        if !admitted {
            stats.slots_rejected += 1;
            continue;
        }
        let candidate = Candidate::new(*slot, request.volume());
        if slot.length() < candidate.length {
            stats.slots_rejected += 1;
            continue; // Too short even when fully used.
        }
        // Same single retain pass as the reference scan; the eviction
        // split feeds the metrics layer only.
        let survives = |c: &Candidate| {
            c.alive_at(window_start)
                && request
                    .deadline()
                    .is_none_or(|d| window_start + c.length <= d)
        };
        alive.retain(|c| {
            let keep = c.slot.node() != candidate.slot.node() && survives(c);
            if !keep && count_evictions {
                if c.slot.node() == candidate.slot.node() {
                    superseded += 1;
                } else {
                    expired += 1;
                }
            }
            keep
        });
        if survives(&candidate) {
            alive.push(candidate);
        }
        stats.slots_admitted += 1;
        stats.peak_extended_window = stats.peak_extended_window.max(alive.len());
        if recorder.enabled() {
            #[allow(clippy::cast_precision_loss)]
            recorder.observe("aep.alive", alive.len() as f64);
        }

        if alive.len() < n || n == 0 {
            continue;
        }
        // random_feasible, inlined over the hoisted index buffer: the
        // same draw sequence (shuffle consumes draws dependent only on
        // the buffer length), the same budget tests, and the identical
        // stable (cost, index) fallback sort — whose unique keys erase
        // any trace of the preceding shuffles.
        let picked = {
            let pick = policy
                .random_pick()
                .expect("random_scan requires the random_pick opt-in");
            order.clear();
            order.extend(0..alive.len());
            let mut found = false;
            for _ in 0..pick.attempts {
                pick.rng.shuffle(&mut order);
                let total: crate::money::Money = order[..n].iter().map(|&i| alive[i].cost).sum();
                if total <= budget {
                    found = true;
                    break;
                }
            }
            if !found {
                order.sort_by_key(|&i| (alive[i].cost, i));
                let total: crate::money::Money = order[..n].iter().map(|&i| alive[i].cost).sum();
                if total > budget {
                    continue;
                }
            }
            &order[..n]
        };
        let window = crate::selectors::build_window(window_start, &alive, picked);
        let score = policy.score(&window);
        stats.windows_evaluated += 1;
        let improved = best.as_ref().is_none_or(|(s, _)| score < *s);
        if improved {
            if let Some(trace) = &trace {
                trace.best_updated(recorder, stats.slots_admitted, window_start, score);
            }
            best = Some((score, window));
        }
    }

    stream.settle(&mut stats);

    if let Some(trace) = trace {
        trace.finish(recorder, &stats, best.as_ref());
    }

    (
        ScanOutcome {
            best: best.map(|(_, w)| w),
            stats,
        },
        superseded,
        expired,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::{Criterion, WindowCriterion};
    use crate::money::Money;
    use crate::node::{NodeId, NodeSpec, Performance, Volume};
    use crate::selectors::cheapest_n;
    use crate::time::Interval;
    use slotsel_obs::span::AttrValue;

    fn scan_outcome(
        platform: &Platform,
        slots: &SlotList,
        request: &ResourceRequest,
        policy: &mut dyn SelectionPolicy,
        options: ScanOptions,
    ) -> ScanOutcome {
        scan_probed(platform, slots, request, policy, options, Probes::none())
    }

    /// A policy picking the cheapest n, scoring by an arbitrary criterion.
    struct CheapestBy {
        criterion: Criterion,
        first: bool,
    }

    impl SelectionPolicy for CheapestBy {
        fn name(&self) -> &str {
            "cheapest-by"
        }
        fn pick(
            &mut self,
            _window_start: TimePoint,
            alive: &[Candidate],
            request: &ResourceRequest,
        ) -> Option<Vec<usize>> {
            cheapest_n(alive, request.node_count(), request.budget())
        }
        fn score(&self, window: &Window) -> f64 {
            self.criterion.score(window)
        }
        fn stop_at_first(&self) -> bool {
            self.first
        }
    }

    fn platform(perfs: &[u32]) -> Platform {
        perfs
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                NodeSpec::builder(i as u32)
                    .performance(Performance::new(p))
                    .price_per_unit(Money::from_units(i64::from(p)))
                    .build()
            })
            .collect()
    }

    fn full_slots(platform: &Platform, end: i64) -> SlotList {
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

    fn request(n: usize, volume: u64, budget: i64) -> ResourceRequest {
        ResourceRequest::builder()
            .node_count(n)
            .volume(Volume::new(volume))
            .budget(Money::from_units(budget))
            .build()
            .unwrap()
    }

    #[test]
    fn finds_window_on_idle_platform() {
        let p = platform(&[2, 4, 8]);
        let slots = full_slots(&p, 600);
        let mut policy = CheapestBy {
            criterion: Criterion::MinTotalCost,
            first: false,
        };
        let outcome = scan_outcome(
            &p,
            &slots,
            &request(2, 100, 100_000),
            &mut policy,
            ScanOptions::default(),
        );
        let w = outcome.best.expect("window exists");
        assert_eq!(w.start(), TimePoint::ZERO);
        assert_eq!(w.size(), 2);
        assert_eq!(outcome.stats.slots_admitted, 3);
    }

    #[test]
    fn no_window_when_too_few_nodes() {
        let p = platform(&[2, 4]);
        let slots = full_slots(&p, 600);
        let mut policy = CheapestBy {
            criterion: Criterion::MinTotalCost,
            first: false,
        };
        assert!(scan(&p, &slots, &request(3, 100, 100_000), &mut policy).is_none());
    }

    #[test]
    fn no_window_when_budget_too_small() {
        let p = platform(&[2, 2]);
        let slots = full_slots(&p, 600);
        // 100 work on perf 2 = 50 units at price 2 -> 100 each, 200 total.
        let mut policy = CheapestBy {
            criterion: Criterion::MinTotalCost,
            first: false,
        };
        assert!(scan(&p, &slots, &request(2, 100, 199), &mut policy).is_none());
        assert!(scan(&p, &slots, &request(2, 100, 200), &mut policy).is_some());
    }

    #[test]
    fn slots_too_short_never_admitted() {
        let p = platform(&[2]);
        let mut slots = SlotList::new();
        // 100 work on perf 2 needs 50; the slot is only 40 long.
        slots.add(
            NodeId(0),
            Interval::new(TimePoint::new(0), TimePoint::new(40)),
            Performance::new(2),
            Money::from_units(1),
        );
        let mut policy = CheapestBy {
            criterion: Criterion::MinTotalCost,
            first: false,
        };
        let outcome = scan_outcome(
            &p,
            &slots,
            &request(1, 100, 1_000),
            &mut policy,
            ScanOptions::default(),
        );
        assert!(outcome.best.is_none());
        assert_eq!(outcome.stats.slots_admitted, 0);
    }

    #[test]
    fn later_start_prunes_stale_candidates() {
        let p = platform(&[2, 2, 2]);
        let mut slots = SlotList::new();
        // Node 0 free [0, 60): can host a 50-long task only if anchored <= 10.
        slots.add(
            NodeId(0),
            Interval::new(TimePoint::new(0), TimePoint::new(60)),
            Performance::new(2),
            Money::from_units(1),
        );
        // Nodes 1, 2 free from t=20: anchoring there evicts node 0.
        for i in 1..3 {
            slots.add(
                NodeId(i),
                Interval::new(TimePoint::new(20), TimePoint::new(600)),
                Performance::new(2),
                Money::from_units(1),
            );
        }
        let mut policy = CheapestBy {
            criterion: Criterion::EarliestStart,
            first: true,
        };
        let w = scan(&p, &slots, &request(2, 100, 1_000), &mut policy).unwrap();
        assert_eq!(w.start(), TimePoint::new(20));
        let nodes: Vec<NodeId> = w.slots().iter().map(|s| s.node()).collect();
        assert!(
            !nodes.contains(&NodeId(0)),
            "node 0's remainder is too short at t=20"
        );
    }

    #[test]
    fn stop_at_first_returns_earliest() {
        let p = platform(&[2, 2, 2, 2]);
        let mut slots = SlotList::new();
        for (i, start) in [(0u32, 0i64), (1, 0), (2, 100), (3, 100)] {
            slots.add(
                NodeId(i),
                Interval::new(TimePoint::new(start), TimePoint::new(600)),
                Performance::new(2),
                Money::from_units(1),
            );
        }
        let mut first = CheapestBy {
            criterion: Criterion::EarliestStart,
            first: true,
        };
        let w = scan(&p, &slots, &request(2, 100, 1_000), &mut first).unwrap();
        assert_eq!(w.start(), TimePoint::ZERO);
    }

    #[test]
    fn full_scan_improves_over_first() {
        // Later window is cheaper: full scan must find it, first-fit must not.
        let p: Platform = vec![
            NodeSpec::builder(0)
                .performance(Performance::new(2))
                .price_per_unit(Money::from_units(10))
                .build(),
            NodeSpec::builder(1)
                .performance(Performance::new(2))
                .price_per_unit(Money::from_units(10))
                .build(),
            NodeSpec::builder(2)
                .performance(Performance::new(2))
                .price_per_unit(Money::from_units(1))
                .build(),
            NodeSpec::builder(3)
                .performance(Performance::new(2))
                .price_per_unit(Money::from_units(1))
                .build(),
        ]
        .into_iter()
        .collect();
        let mut slots = SlotList::new();
        for node in &p {
            let start = if node.id().index() < 2 { 0 } else { 200 };
            slots.add(
                node.id(),
                Interval::new(TimePoint::new(start), TimePoint::new(600)),
                node.performance(),
                node.price_per_unit(),
            );
        }
        let req = request(2, 100, 10_000);
        let mut full = CheapestBy {
            criterion: Criterion::MinTotalCost,
            first: false,
        };
        let w = scan(&p, &slots, &req, &mut full).unwrap();
        assert_eq!(
            w.total_cost(),
            Money::from_units(100),
            "2 slots x 50 units x price 1"
        );
        assert_eq!(w.start(), TimePoint::new(200));

        let mut first = CheapestBy {
            criterion: Criterion::EarliestStart,
            first: true,
        };
        let w = scan(&p, &slots, &req, &mut first).unwrap();
        assert_eq!(w.start(), TimePoint::ZERO);
        assert_eq!(w.total_cost(), Money::from_units(1_000));
    }

    #[test]
    fn requirements_filter_nodes() {
        let p: Platform = vec![
            NodeSpec::builder(0)
                .performance(Performance::new(2))
                .build(),
            NodeSpec::builder(1)
                .performance(Performance::new(9))
                .build(),
        ]
        .into_iter()
        .collect();
        let slots = full_slots(&p, 600);
        let req = ResourceRequest::builder()
            .node_count(1)
            .volume(Volume::new(100))
            .budget(Money::from_units(100_000))
            .requirements(
                crate::request::NodeRequirements::any().min_performance(Performance::new(5)),
            )
            .build()
            .unwrap();
        let mut policy = CheapestBy {
            criterion: Criterion::MinTotalCost,
            first: false,
        };
        let w = scan(&p, &slots, &req, &mut policy).unwrap();
        assert_eq!(w.slots()[0].node(), NodeId(1));
    }

    #[test]
    fn unknown_node_slots_are_skipped() {
        let p = platform(&[2]);
        let mut slots = full_slots(&p, 600);
        slots.add(
            NodeId(42),
            Interval::new(TimePoint::new(0), TimePoint::new(600)),
            Performance::new(9),
            Money::from_units(1),
        );
        let mut policy = CheapestBy {
            criterion: Criterion::MinTotalCost,
            first: false,
        };
        let w = scan(&p, &slots, &request(1, 100, 1_000), &mut policy).unwrap();
        assert_eq!(
            w.slots()[0].node(),
            NodeId(0),
            "slot on unknown node n42 ignored"
        );
    }

    #[test]
    fn deadline_cuts_scan_short() {
        let p = platform(&[2, 2]);
        let mut slots = SlotList::new();
        slots.add(
            NodeId(0),
            Interval::new(TimePoint::new(0), TimePoint::new(600)),
            Performance::new(2),
            Money::from_units(1),
        );
        slots.add(
            NodeId(1),
            Interval::new(TimePoint::new(300), TimePoint::new(600)),
            Performance::new(2),
            Money::from_units(1),
        );
        let req = ResourceRequest::builder()
            .node_count(2)
            .volume(Volume::new(100))
            .budget(Money::from_units(1_000))
            .deadline(TimePoint::new(200))
            .build()
            .unwrap();
        let mut policy = CheapestBy {
            criterion: Criterion::EarliestStart,
            first: false,
        };
        assert!(
            scan(&p, &slots, &req, &mut policy).is_none(),
            "second node only free after the deadline"
        );
    }

    #[test]
    fn deadline_admits_fitting_window() {
        let p = platform(&[2, 2]);
        let slots = full_slots(&p, 600);
        let req = ResourceRequest::builder()
            .node_count(2)
            .volume(Volume::new(100))
            .budget(Money::from_units(1_000))
            .deadline(TimePoint::new(50))
            .build()
            .unwrap();
        let mut policy = CheapestBy {
            criterion: Criterion::EarliestStart,
            first: false,
        };
        let w = scan(&p, &slots, &req, &mut policy).unwrap();
        assert!(w.finish() <= TimePoint::new(50));
    }

    #[test]
    fn prune_start_bounded_stops_early_without_changing_result() {
        let p = platform(&[2; 6]);
        let mut slots = SlotList::new();
        for i in 0..6u32 {
            let start = i64::from(i) * 50;
            slots.add(
                NodeId(i),
                Interval::new(TimePoint::new(start), TimePoint::new(1_000)),
                Performance::new(2),
                Money::from_units(1),
            );
        }
        let req = request(2, 100, 1_000);
        let mut a = CheapestBy {
            criterion: Criterion::EarliestFinish,
            first: false,
        };
        let plain = scan_outcome(&p, &slots, &req, &mut a, ScanOptions::default());
        let mut b = CheapestBy {
            criterion: Criterion::EarliestFinish,
            first: false,
        };
        let pruned = scan_outcome(
            &p,
            &slots,
            &req,
            &mut b,
            ScanOptions {
                prune_start_bounded: true,
            },
        );
        assert_eq!(
            plain.best.as_ref().map(Window::finish),
            pruned.best.as_ref().map(Window::finish)
        );
        assert!(pruned.stats.slots_admitted <= plain.stats.slots_admitted);
    }

    #[test]
    fn probed_scan_matches_plain_and_feeds_every_sink() {
        use slotsel_obs::{MemoryRecorder, MemorySpanSink, MetricsRegistry};

        let p = platform(&[2, 4, 8, 3]);
        let mut slots = full_slots(&p, 600);
        // One slot on an unknown node: must show up as a rejection.
        slots.add(
            NodeId(77),
            Interval::new(TimePoint::new(5), TimePoint::new(600)),
            Performance::new(2),
            Money::from_units(1),
        );
        let req = request(2, 100, 100_000);
        let policy = || CheapestBy {
            criterion: Criterion::MinTotalCost,
            first: false,
        };

        let plain = scan_outcome(&p, &slots, &req, &mut policy(), ScanOptions::default());
        let mut recorder = MemoryRecorder::new();
        let registry = MetricsRegistry::new();
        let mut sink = MemorySpanSink::new();
        let probed = scan_probed(
            &p,
            &slots,
            &req,
            &mut policy(),
            ScanOptions::default(),
            Probes::new(&mut recorder, &registry, &mut sink),
        );

        // Identical outcome with and without probes.
        assert_eq!(plain.best, probed.best);
        assert_eq!(plain.stats, probed.stats);
        assert_eq!(plain.stats.slots_rejected, 1);
        let stats = &probed.stats;

        // Recorder: ScanFinished mirrors the returned stats, one alive-set
        // sample per admission, a timing for the scan, and scores that only
        // ever improve across BestUpdated events.
        let finished = recorder
            .events()
            .iter()
            .find_map(|e| match e {
                TraceEvent::ScanFinished {
                    slots_admitted,
                    slots_rejected,
                    windows_evaluated,
                    peak_alive,
                    found,
                    ..
                } => Some((
                    *slots_admitted,
                    *slots_rejected,
                    *windows_evaluated,
                    *peak_alive,
                    *found,
                )),
                _ => None,
            })
            .expect("a ScanFinished event");
        assert_eq!(
            finished,
            (
                stats.slots_admitted as u64,
                stats.slots_rejected as u64,
                stats.windows_evaluated as u64,
                stats.peak_extended_window as u64,
                probed.best.is_some(),
            )
        );
        assert_eq!(
            recorder.samples("aep.alive").unwrap().count(),
            stats.slots_admitted as u64
        );
        assert_eq!(recorder.timer("aep.scan").unwrap().count(), 1);
        let scores: Vec<f64> = recorder
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::BestUpdated { score, .. } => Some(*score),
                _ => None,
            })
            .collect();
        assert!(!scores.is_empty());
        assert!(scores.windows(2).all(|w| w[1] < w[0]));

        // Metrics and span attributes both carry every table counter.
        let labels = [("policy", "cheapest-by")];
        assert_eq!(registry.counter_value("slotsel_scan_total", &labels), 1);
        assert_eq!(
            registry.counter_value("slotsel_scan_windows_found_total", &labels),
            1
        );
        for name in ["slotsel_scan_alive_peak", "slotsel_scan_seconds"] {
            assert_eq!(registry.histogram(name, &labels).unwrap().count(), 1);
        }
        let records = sink.take_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "aep.scan");
        let attr = |name: &str| {
            records[0]
                .attrs
                .iter()
                .find(|(key, _)| key == name)
                .map(|(_, value)| value.clone())
                .unwrap_or_else(|| panic!("missing attr {name}"))
        };
        assert_eq!(attr("policy"), AttrValue::Str("cheapest-by".to_owned()));
        assert_eq!(attr("found"), AttrValue::U64(1));
        for (field, counter, name) in SCAN_COUNTERS {
            let value = field(stats) as u64;
            assert_eq!(registry.counter_value(counter, &labels), value, "{counter}");
            assert_eq!(attr(name), AttrValue::U64(value), "{name}");
        }
    }

    #[test]
    fn duplicate_node_slots_superseded_not_coallocated() {
        // Malformed input: two overlapping slots on one node. The scan must
        // not co-allocate both.
        let p = platform(&[2, 2]);
        let slots = SlotList::from_slots(vec![
            crate::slot::Slot::new(
                crate::slot::SlotId(0),
                NodeId(0),
                Interval::new(TimePoint::new(0), TimePoint::new(600)),
                Performance::new(2),
                Money::from_units(1),
            ),
            crate::slot::Slot::new(
                crate::slot::SlotId(1),
                NodeId(0),
                Interval::new(TimePoint::new(10), TimePoint::new(600)),
                Performance::new(2),
                Money::from_units(1),
            ),
            crate::slot::Slot::new(
                crate::slot::SlotId(2),
                NodeId(1),
                Interval::new(TimePoint::new(10), TimePoint::new(600)),
                Performance::new(2),
                Money::from_units(1),
            ),
        ]);
        let mut policy = CheapestBy {
            criterion: Criterion::MinTotalCost,
            first: false,
        };
        let w = scan(&p, &slots, &request(2, 100, 1_000), &mut policy).unwrap();
        let mut nodes: Vec<NodeId> = w.slots().iter().map(|s| s.node()).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 2);
    }

    #[test]
    fn tree_backed_scan_prunes_an_all_dominated_list_at_the_root() {
        use crate::slot::{Slot, SlotId};
        use crate::slotlist::SlotStoreKind;
        // Every slot is too short for the volume: the aggregate cursor must
        // prove emptiness from the root aggregate without visiting leaves,
        // while still crediting every slot to `slots_rejected`.
        let p = platform(&[2]);
        let slots: Vec<Slot> = (0..64)
            .map(|i| {
                Slot::new(
                    SlotId(i),
                    NodeId(0),
                    Interval::new(
                        TimePoint::new(i as i64 * 10),
                        TimePoint::new(i as i64 * 10 + 4),
                    ),
                    Performance::new(2),
                    Money::from_units(1),
                )
            })
            .collect();
        let list = SlotList::from_slots_in(SlotStoreKind::Tree, slots);
        let mut policy = CheapestBy {
            criterion: Criterion::MinTotalCost,
            first: false,
        };
        let outcome = scan_outcome(
            &p,
            &list,
            &request(1, 1_000, 100_000),
            &mut policy,
            ScanOptions::default(),
        );
        assert!(outcome.best.is_none());
        assert_eq!(outcome.stats.slots_admitted, 0);
        assert_eq!(outcome.stats.slots_rejected, 64);
        assert_eq!(outcome.stats.subtrees_skipped, 1, "root skip expected");
        assert_eq!(outcome.stats.windows_jumped, 1);
    }

    #[test]
    fn tree_backed_scan_matches_vec_backed_scan_with_pruning_visible() {
        use crate::slot::{Slot, SlotId};
        use crate::slotlist::SlotStoreKind;
        // Alternate feasible and dominated slots across two nodes; the tree
        // scan must produce the identical outcome and legacy stats, with the
        // diagnostic counters lighting up only on the tree side.
        let slots: Vec<Slot> = (0..40)
            .map(|i| {
                let start = i as i64 * 25;
                let len = if i % 2 == 0 { 120 } else { 3 };
                Slot::new(
                    SlotId(i),
                    NodeId((i % 2) as u32),
                    Interval::new(TimePoint::new(start), TimePoint::new(start + len)),
                    Performance::new(2),
                    Money::from_units(1 + (i as i64 % 3)),
                )
            })
            .collect();
        let p = platform(&[2, 2]);
        let vec_list = SlotList::from_slots_in(SlotStoreKind::Vec, slots.clone());
        let tree_list = SlotList::from_slots_in(SlotStoreKind::Tree, slots);
        let req = request(2, 200, 100_000);
        let run = |list: &SlotList| {
            let mut policy = CheapestBy {
                criterion: Criterion::MinTotalCost,
                first: false,
            };
            scan_outcome(&p, list, &req, &mut policy, ScanOptions::default())
        };
        let on_vec = run(&vec_list);
        let on_tree = run(&tree_list);
        assert_eq!(on_vec.best, on_tree.best);
        // Legacy stats equality (the custom `PartialEq` ignores the new
        // diagnostic counters)...
        assert_eq!(on_vec.stats, on_tree.stats);
        // ...which only the tree-backed scan populates.
        assert_eq!(on_vec.stats.subtrees_skipped, 0);
        assert_eq!(on_vec.stats.windows_jumped, 0);
        assert!(on_tree.stats.windows_jumped >= 1);
    }
}
