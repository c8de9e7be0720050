//! Rolling-horizon batch simulation.
//!
//! The VO metascheduler runs cycle after cycle: each cycle sees a fresh
//! scheduling interval (local load changes, new slots appear), schedules
//! the pending batch with the two-phase scheme, and carries deferred jobs
//! into the next cycle — with optional priority aging so nothing starves.
//! The paper evaluates a single cycle in isolation; this module simulates
//! the loop its scheme is designed to live in.
//!
//! With a [`DisruptionConfig`] attached, every cycle additionally injects
//! faults *after* the scheduler commits its windows (see
//! [`crate::disruption`]), detects the victims by replaying the commit
//! through the [`crate::execution`] audit, and applies the configured
//! [`RecoveryPolicy`] ([`crate::recovery`]). Without one, the simulation
//! is bit-identical to the disruption-free implementation — no extra RNG
//! is drawn and no schedule is altered.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use slotsel_obs::journal::{Journal, NoopJournal};
use slotsel_obs::{Metrics, Probes, Recorder, SpanId, SpanSink, Stopwatch, TraceEvent};

use slotsel_batch::{BatchScheduler, BatchSchedulerConfig};
use slotsel_core::money::Money;
use slotsel_core::request::{Job, JobId};
use slotsel_core::window::Window;
use slotsel_env::EnvironmentConfig;

use crate::disruption::{DisruptionConfig, DisruptionEvent, DisruptionModel};
use crate::journal::{JournalRecord, ParkedEntry, RecoveredRun, RollingState};
use crate::metrics::SurvivalMetrics;
use crate::recovery::{self, RecoveryPolicy};

/// Configuration of a rolling-horizon simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RollingConfig {
    /// Environment generator for each cycle's horizon.
    pub env: EnvironmentConfig,
    /// The per-cycle scheduler settings.
    pub scheduler: BatchSchedulerConfig,
    /// Maximum number of cycles to simulate.
    pub max_cycles: u32,
    /// Priority increase applied to every deferred job per cycle (aging).
    pub aging: u32,
    /// Base RNG seed; cycle `i` generates its environment from `seed + i`.
    pub seed: u64,
    /// Fault injection between commit and execution; `None` (the default)
    /// reproduces the disruption-free simulation exactly.
    #[serde(default)]
    pub disruption: Option<DisruptionConfig>,
    /// What to do with jobs whose committed windows a disruption destroys.
    /// Ignored without a disruption model.
    #[serde(default)]
    pub recovery: RecoveryPolicy,
}

impl Default for RollingConfig {
    fn default() -> Self {
        RollingConfig {
            env: EnvironmentConfig::paper_default(),
            scheduler: BatchSchedulerConfig::default(),
            max_cycles: 20,
            aging: 1,
            seed: 31_337,
            disruption: None,
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// Per-cycle record of a rolling simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CycleRecord {
    /// Cycle index, starting at 0.
    pub cycle: u32,
    /// Jobs pending at the start of the cycle.
    pub pending: usize,
    /// Jobs scheduled in this cycle.
    pub scheduled: usize,
    /// Money spent in this cycle.
    pub spent: f64,
}

/// Outcome of a rolling simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RollingOutcome {
    /// `(job, cycle scheduled in)` for every completed job.
    pub completions: Vec<(JobId, u32)>,
    /// Jobs still pending when the simulation stopped.
    pub starved: Vec<JobId>,
    /// Per-cycle records.
    pub cycles: Vec<CycleRecord>,
}

impl RollingOutcome {
    /// Number of cycles a job waited before being scheduled, if it was.
    #[must_use]
    pub fn wait_of(&self, job: JobId) -> Option<u32> {
        self.completions
            .iter()
            .find(|(id, _)| *id == job)
            .map(|&(_, c)| c)
    }

    /// Total money spent over all cycles.
    #[must_use]
    pub fn total_spent(&self) -> f64 {
        self.cycles.iter().map(|c| c.spent).sum()
    }
}

/// Outcome of a fault-injected rolling simulation: the schedule history
/// plus the survival bookkeeping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RollingReport {
    /// The schedule history (completions, starvations, per-cycle records).
    pub outcome: RollingOutcome,
    /// What was injected and how recovery fared. All-zero without a
    /// disruption model.
    pub survival: SurvivalMetrics,
}

/// Runs the rolling simulation until the batch drains or `max_cycles` pass.
///
/// Jobs keep their identity across cycles; deferred jobs gain
/// `config.aging` priority per cycle waited, so long-waiting jobs
/// eventually outrank fresh high-priority work. Equivalent to
/// [`simulate_with_recovery`] with the survival report dropped.
#[must_use]
pub fn simulate(config: &RollingConfig, jobs: Vec<Job>) -> RollingOutcome {
    simulate_with_recovery(config, jobs).outcome
}

/// Runs the rolling simulation with fault injection and recovery, when
/// `config.disruption` is set.
///
/// Each cycle: commit the batch, inject disruptions into the committed-on
/// environment, replay every committed window through the execution audit
/// to find the victims, then apply `config.recovery` — abandon the victim
/// jobs, park them for a later cycle (priority-aged re-admission), or
/// migrate them onto the surviving slots right away. Survivors and
/// successful migrations complete in the cycle; everything that completes
/// has passed the replay audit against the *perturbed* environment.
///
/// Equivalent to [`simulate_with_recovery_probed`] with [`Probes::none`]
/// and a [`NoopJournal`]; the probes compile away on this path.
#[must_use]
pub fn simulate_with_recovery(config: &RollingConfig, jobs: Vec<Job>) -> RollingReport {
    simulate_with_recovery_probed(config, jobs, Probes::none(), &mut NoopJournal)
}

/// Runs the fault-injected rolling simulation with observability probes
/// and a write-ahead journal.
///
/// On top of [`simulate_with_recovery`]'s behaviour, the run reports to
/// each enabled sink of `probes`:
///
/// - recorder: [`TraceEvent::CycleStarted`] / [`TraceEvent::CycleFinished`]
///   around every executed cycle, plus a `"rolling.cycle"` wall-clock
///   timing; the per-cycle batch scheduling events
///   ([`BatchScheduler::schedule_probed`] runs on the same sinks); every
///   injected disruption ([`TraceEvent::SlotRevoked`],
///   [`TraceEvent::NodeFailed`], [`TraceEvent::NodeRestored`],
///   [`TraceEvent::NodeDegraded`]); every replay-audit verdict
///   ([`TraceEvent::WindowAudited`]) and recovery decision
///   ([`TraceEvent::JobRescued`], [`TraceEvent::JobLost`],
///   [`TraceEvent::JobParked`], [`TraceEvent::JobReadmitted`]);
/// - metrics (all names prefixed `slotsel_`): `rolling_cycles_total`,
///   `rolling_jobs_completed_total` and the `rolling_cycle_seconds`
///   histogram per executed cycle; `rolling_pending_jobs`,
///   `rolling_parked_jobs`, `rolling_cycle_spent_credits` gauges refreshed
///   every cycle; `disruption_events_total{kind=…}` per injected fault; at
///   run end the survival tallies `windows_disrupted_total`,
///   `jobs_lost_total`, `jobs_rescued_total{via="retry"|"migrate"}`,
///   `audit_failures_total` plus the `survival_rate` and
///   `rolling_starved_jobs` gauges; and the per-cycle batch and scan
///   metrics;
/// - spans: one `"rolling.cycle"` span tree per executed cycle — the
///   scheduler's `"batch.schedule"` phases with their per-job `"aep.scan"`
///   leaves, plus, under fault injection, `"rolling.disruption"` (injected
///   events), `"recovery.detect"` (the victim replay audit),
///   `"rolling.recovery"` (the policy's decisions) and `"rolling.audit"`
///   (the repaired-schedule re-validation).
///
/// With a deterministic recorder (one that drops wall-clock timings, such
/// as [`slotsel_obs::TraceRecorder::deterministic`]), the emitted trace is
/// a pure function of `(config, jobs)` — byte-identical across runs.
///
/// When `journal` is enabled the run appends a [`JournalRecord`] stream
/// to it (see `docs/DURABILITY.md`):
///
/// - [`JournalRecord::RunStarted`] with the full `(config, jobs)` inputs,
///   committed before the first cycle;
/// - per cycle, the audit trail — every re-admission, window commit,
///   deferral, injected disruption and recovery decision;
/// - a [`JournalRecord::CycleCommitted`] barrier carrying the complete
///   post-cycle [`RollingState`] (including the disruption model's RNG
///   checkpoint), followed by a [`Journal::commit`] — the fsync point;
/// - [`JournalRecord::RunFinished`] with the final report, committed.
///
/// A run killed at *any* point mid-stream recovers through
/// [`crate::journal::recover`] + [`resume_with_recovery`] to the
/// bit-identical report of the uninterrupted run: the interrupted cycle's
/// events are discarded and the cycle re-executes deterministically from
/// the last barrier.
///
/// Every probe and journal append is gated on its sink's `enabled()`:
/// with [`Probes::none`] and a [`NoopJournal`] this is exactly
/// [`simulate_with_recovery`].
#[must_use]
pub fn simulate_with_recovery_probed<R: Recorder, M: Metrics, S: SpanSink, J: Journal>(
    config: &RollingConfig,
    jobs: Vec<Job>,
    probes: Probes<R, M, S>,
    journal: &mut J,
) -> RollingReport {
    if journal.enabled() {
        journal.append(
            &JournalRecord::RunStarted {
                config: config.clone(),
                jobs: jobs.clone(),
            }
            .encode(),
        );
        journal.commit();
    }
    let report = run(config, RollingState::initial(jobs), probes, journal);
    finish(report, journal)
}

/// Resumes a recovered journaled run from its last intact barrier and
/// drives it to completion, continuing the same record stream.
///
/// When the journal already ends in [`JournalRecord::RunFinished`], the
/// recovered report is returned directly — nothing re-executes and
/// nothing is appended. Otherwise the loop re-enters at the recovered
/// [`RollingState::next_cycle`] with the disruption model restored from
/// its checkpoint, which reproduces the uninterrupted run bit for bit
/// (the crash-at-any-event property tests pin this).
#[must_use]
pub fn resume_with_recovery<R: Recorder, M: Metrics, S: SpanSink, J: Journal>(
    recovered: RecoveredRun,
    probes: Probes<R, M, S>,
    journal: &mut J,
) -> RollingReport {
    if let Some(report) = recovered.finished {
        return report;
    }
    let report = run(&recovered.config, recovered.state, probes, journal);
    finish(report, journal)
}

/// Appends and commits the [`JournalRecord::RunFinished`] record.
fn finish<J: Journal>(report: RollingReport, journal: &mut J) -> RollingReport {
    if journal.enabled() {
        journal.append(
            &JournalRecord::RunFinished {
                report: report.clone(),
            }
            .encode(),
        );
        journal.commit();
    }
    report
}

/// The rolling loop proper, parameterised over its starting
/// [`RollingState`] — cycle `state.next_cycle` up to `config.max_cycles`.
#[allow(clippy::too_many_lines)]
fn run<R: Recorder, M: Metrics, S: SpanSink, J: Journal>(
    config: &RollingConfig,
    state: RollingState,
    probes: Probes<R, M, S>,
    journal: &mut J,
) -> RollingReport {
    let Probes {
        mut recorder,
        metrics,
        mut spans,
    } = probes;
    let metered = metrics.enabled();
    let spanning = spans.enabled();
    let scheduler = BatchScheduler::new(config.scheduler.clone());
    let RollingState {
        next_cycle,
        mut pending,
        mut parked,
        mut victim_since,
        mut attempts_of,
        mut completions,
        mut cycles,
        mut survival,
        model: model_state,
    } = state;
    // A mid-run state restores the model at its checkpointed RNG
    // position; a fresh run starts it from the configured seed.
    let mut model = match (config.disruption.clone(), model_state) {
        (Some(disruption), Some(checkpoint)) => {
            Some(DisruptionModel::restore(disruption, &checkpoint))
        }
        (Some(disruption), None) => Some(DisruptionModel::new(disruption)),
        (None, _) => None,
    };

    for cycle in next_cycle..config.max_cycles {
        // Re-admit parked victims whose backoff elapsed (stable order).
        let (ready, waiting): (Vec<ParkedEntry>, Vec<ParkedEntry>) =
            parked.drain(..).partition(|p| p.eligible_at <= cycle);
        parked = waiting;
        for p in ready {
            if recorder.enabled() {
                recorder.emit(TraceEvent::JobReadmitted {
                    cycle: u64::from(cycle),
                    job: u64::from(p.job.id().0),
                });
            }
            if journal.enabled() {
                journal.append(
                    &JournalRecord::Readmitted {
                        cycle,
                        job: p.job.id().0,
                    }
                    .encode(),
                );
            }
            scheduler.readmit(&mut pending, [p.job], 0);
        }

        if pending.is_empty() && parked.is_empty() {
            break;
        }
        let cycle_span = if spanning {
            let span = spans.open("rolling.cycle");
            spans.attr_u64("cycle", u64::from(cycle));
            spans.attr_u64("pending", pending.len() as u64);
            span
        } else {
            SpanId::NONE
        };
        let watch = Stopwatch::start_if(recorder.enabled() || metered);
        if recorder.enabled() {
            recorder.emit(TraceEvent::CycleStarted {
                cycle: u64::from(cycle),
                pending: pending.len() as u64,
            });
        }
        let mut env = config
            .env
            .generate(&mut StdRng::seed_from_u64(config.seed + u64::from(cycle)));
        let schedule = scheduler.schedule_probed(
            env.platform(),
            env.slots(),
            &pending,
            Probes::new(&mut recorder, &metrics, &mut spans),
        );

        let mut committed: Vec<(Job, Window)> = Vec::new();
        let mut still_pending = Vec::new();
        for assignment in schedule.assignments {
            match assignment.window {
                Some(window) => {
                    if journal.enabled() {
                        journal.append(
                            &JournalRecord::Committed {
                                cycle,
                                job: assignment.job.id().0,
                                window: window.clone(),
                            }
                            .encode(),
                        );
                    }
                    committed.push((assignment.job, window));
                }
                None => {
                    // Age the deferred job so it cannot starve.
                    let aged = Job::new(
                        assignment.job.id(),
                        assignment.job.priority() + config.aging,
                        assignment.job.request().clone(),
                    );
                    if journal.enabled() {
                        journal.append(
                            &JournalRecord::Deferred {
                                cycle,
                                job: aged.id().0,
                                priority: aged.priority(),
                            }
                            .encode(),
                        );
                    }
                    still_pending.push(aged);
                }
            }
        }

        let mut spent = Money::ZERO;
        let mut completed_now = 0usize;
        match &mut model {
            None => {
                // Disruption-free: every committed window executes.
                for (job, window) in &committed {
                    spent += window.total_cost();
                    completions.push((job.id(), cycle));
                }
                completed_now = committed.len();
            }
            Some(model) => {
                let disruption_span = if spanning {
                    Some(spans.open("rolling.disruption"))
                } else {
                    None
                };
                let window_refs: Vec<&Window> = committed.iter().map(|(_, w)| w).collect();
                let events = model.inject(&mut env, cycle, &window_refs);
                if let Some(span) = disruption_span {
                    spans.attr_u64("events", events.len() as u64);
                    spans.close(span);
                }
                for event in &events {
                    survival.record_event(event);
                    if recorder.enabled() {
                        recorder.emit(disruption_trace_event(cycle, event));
                    }
                    if journal.enabled() {
                        journal.append(
                            &JournalRecord::Disrupted {
                                cycle,
                                event: event.clone(),
                            }
                            .encode(),
                        );
                    }
                    if metered {
                        metrics.counter_add(
                            "slotsel_disruption_events_total",
                            &[("kind", disruption_kind(event))],
                            1,
                        );
                    }
                }

                let pairs: Vec<(&Job, &Window)> = committed.iter().map(|(j, w)| (j, w)).collect();
                let mut detection = recovery::detect_victims_probed(
                    &env,
                    &pairs,
                    Probes::new(&mut recorder, &metrics, &mut spans),
                );
                survival.windows_disrupted += detection.victim_indices.len() as u64;
                let recovery_span = if spanning {
                    Some(spans.open("rolling.recovery"))
                } else {
                    None
                };

                // Survivors execute; a survivor that was some earlier
                // cycle's victim is a retry rescue completing now.
                for &index in &detection.survivor_indices {
                    let (job, window) = &committed[index];
                    spent += window.total_cost();
                    completions.push((job.id(), cycle));
                    completed_now += 1;
                    if let Some(pos) = victim_since.iter().position(|(id, _)| *id == job.id()) {
                        let (_, since) = victim_since.swap_remove(pos);
                        survival.rescued_by_retry += 1;
                        survival
                            .recovery_latency_cycles
                            .push(f64::from(cycle - since));
                        if recorder.enabled() {
                            recorder.emit(TraceEvent::JobRescued {
                                cycle: u64::from(cycle),
                                job: u64::from(job.id().0),
                                via: "retry".to_owned(),
                            });
                        }
                        if journal.enabled() {
                            journal.append(
                                &JournalRecord::Rescued {
                                    cycle,
                                    job: job.id().0,
                                    via: "retry".to_owned(),
                                }
                                .encode(),
                            );
                        }
                    }
                }

                // Victims go through the recovery policy.
                for &index in &detection.victim_indices {
                    let (job, window) = &committed[index];
                    let first_hit = victim_since
                        .iter()
                        .position(|(id, _)| *id == job.id())
                        .is_none();
                    if first_hit {
                        victim_since.push((job.id(), cycle));
                    }
                    match config.recovery {
                        RecoveryPolicy::Abandon => {
                            survival.jobs_lost += 1;
                            victim_since.retain(|(id, _)| *id != job.id());
                            if recorder.enabled() {
                                recorder.emit(TraceEvent::JobLost {
                                    cycle: u64::from(cycle),
                                    job: u64::from(job.id().0),
                                });
                            }
                            if journal.enabled() {
                                journal.append(
                                    &JournalRecord::Lost {
                                        cycle,
                                        job: job.id().0,
                                    }
                                    .encode(),
                                );
                            }
                        }
                        RecoveryPolicy::RetryNextCycle {
                            backoff,
                            max_attempts,
                        } => {
                            let attempts =
                                match attempts_of.iter_mut().find(|(id, _)| *id == job.id()) {
                                    Some((_, n)) => {
                                        *n += 1;
                                        *n
                                    }
                                    None => {
                                        attempts_of.push((job.id(), 1));
                                        1
                                    }
                                };
                            if attempts > max_attempts {
                                survival.jobs_lost += 1;
                                victim_since.retain(|(id, _)| *id != job.id());
                                if recorder.enabled() {
                                    recorder.emit(TraceEvent::JobLost {
                                        cycle: u64::from(cycle),
                                        job: u64::from(job.id().0),
                                    });
                                }
                                if journal.enabled() {
                                    journal.append(
                                        &JournalRecord::Lost {
                                            cycle,
                                            job: job.id().0,
                                        }
                                        .encode(),
                                    );
                                }
                            } else {
                                let eligible_at = cycle + 1 + backoff;
                                if recorder.enabled() {
                                    recorder.emit(TraceEvent::JobParked {
                                        cycle: u64::from(cycle),
                                        job: u64::from(job.id().0),
                                        eligible_at: u64::from(eligible_at),
                                    });
                                }
                                if journal.enabled() {
                                    journal.append(
                                        &JournalRecord::Parked {
                                            cycle,
                                            job: job.id().0,
                                            eligible_at,
                                        }
                                        .encode(),
                                    );
                                }
                                parked.push(ParkedEntry {
                                    job: Job::new(
                                        job.id(),
                                        job.priority() + config.aging,
                                        job.request().clone(),
                                    ),
                                    eligible_at,
                                });
                            }
                        }
                        RecoveryPolicy::Migrate => {
                            let remaining = config
                                .scheduler
                                .vo_budget
                                .map(|budget| Money::from_f64(budget) - spent);
                            match recovery::migrate_window(
                                &env,
                                &detection.survivor_windows,
                                job,
                                remaining,
                            ) {
                                Some(migrated) => {
                                    survival.rescued_by_migration += 1;
                                    survival.recovery_latency_cycles.push(0.0);
                                    survival.migration_overrun.push(
                                        migrated.total_cost().as_f64()
                                            - window.total_cost().as_f64(),
                                    );
                                    spent += migrated.total_cost();
                                    completions.push((job.id(), cycle));
                                    completed_now += 1;
                                    detection.survivor_windows.push(migrated);
                                    if recorder.enabled() {
                                        recorder.emit(TraceEvent::JobRescued {
                                            cycle: u64::from(cycle),
                                            job: u64::from(job.id().0),
                                            via: "migrate".to_owned(),
                                        });
                                    }
                                    if journal.enabled() {
                                        journal.append(
                                            &JournalRecord::Rescued {
                                                cycle,
                                                job: job.id().0,
                                                via: "migrate".to_owned(),
                                            }
                                            .encode(),
                                        );
                                    }
                                }
                                None => {
                                    survival.jobs_lost += 1;
                                    if recorder.enabled() {
                                        recorder.emit(TraceEvent::JobLost {
                                            cycle: u64::from(cycle),
                                            job: u64::from(job.id().0),
                                        });
                                    }
                                    if journal.enabled() {
                                        journal.append(
                                            &JournalRecord::Lost {
                                                cycle,
                                                job: job.id().0,
                                            }
                                            .encode(),
                                        );
                                    }
                                }
                            }
                            victim_since.retain(|(id, _)| *id != job.id());
                        }
                    }
                }

                if let Some(span) = recovery_span {
                    spans.attr_u64("victims", detection.victim_indices.len() as u64);
                    spans.close(span);
                }

                // The repaired schedule (survivors + migrations) must
                // replay cleanly against the perturbed environment; the
                // recovery paths maintain this, the audit enforces it.
                let audit_span = if spanning {
                    Some(spans.open("rolling.audit"))
                } else {
                    None
                };
                let repaired: Vec<&Window> = detection.survivor_windows.iter().collect();
                if crate::execution::verify(&env, &repaired).is_err() {
                    survival.audit_failures += 1;
                }
                if let Some(span) = audit_span {
                    spans.attr_u64("windows", repaired.len() as u64);
                    spans.close(span);
                }
            }
        }

        if recorder.enabled() {
            recorder.emit(TraceEvent::CycleFinished {
                cycle: u64::from(cycle),
                scheduled: completed_now as u64,
                spent: spent.as_f64(),
            });
        }
        if let Some(watch) = watch {
            let elapsed_ns = watch.elapsed_ns();
            if recorder.enabled() {
                recorder.time_ns("rolling.cycle", elapsed_ns);
            }
            if metered {
                metrics.observe(
                    "slotsel_rolling_cycle_seconds",
                    &[],
                    elapsed_ns as f64 * 1e-9,
                );
            }
        }
        cycles.push(CycleRecord {
            cycle,
            pending: pending.len(),
            scheduled: completed_now,
            spent: spent.as_f64(),
        });
        pending = still_pending;
        if metered {
            metrics.counter_add("slotsel_rolling_cycles_total", &[], 1);
            metrics.counter_add(
                "slotsel_rolling_jobs_completed_total",
                &[],
                completed_now as u64,
            );
            metrics.gauge_set("slotsel_rolling_pending_jobs", &[], pending.len() as f64);
            metrics.gauge_set("slotsel_rolling_parked_jobs", &[], parked.len() as f64);
            metrics.gauge_set("slotsel_rolling_cycle_spent_credits", &[], spent.as_f64());
        }
        if journal.enabled() {
            // The cycle barrier: the full post-cycle state, made durable
            // by the commit. Everything before it this cycle is audit
            // trail; recovery replays only the barrier.
            let barrier = RollingState {
                next_cycle: cycle + 1,
                pending: pending.clone(),
                parked: parked.clone(),
                victim_since: victim_since.clone(),
                attempts_of: attempts_of.clone(),
                completions: completions.clone(),
                cycles: cycles.clone(),
                survival: survival.clone(),
                model: model.as_ref().map(DisruptionModel::checkpoint),
            };
            journal.append(&JournalRecord::CycleCommitted { state: barrier }.encode());
            journal.commit();
        }
        if spanning {
            spans.attr_u64("scheduled", completed_now as u64);
            spans.close(cycle_span);
        }
    }

    // Victims still waiting (parked or re-pending) when the run ended
    // never recovered.
    survival.jobs_lost += victim_since.len() as u64;
    if recorder.enabled() {
        let last_cycle = cycles.last().map_or(0, |c| c.cycle);
        for (id, _) in &victim_since {
            recorder.emit(TraceEvent::JobLost {
                cycle: u64::from(last_cycle),
                job: u64::from(id.0),
            });
        }
    }

    let report = RollingReport {
        outcome: RollingOutcome {
            completions,
            starved: pending
                .iter()
                .map(Job::id)
                .chain(parked.iter().map(|p| p.job.id()))
                .collect(),
            cycles,
        },
        survival,
    };
    if metered {
        let survival = &report.survival;
        metrics.counter_add(
            "slotsel_windows_disrupted_total",
            &[],
            survival.windows_disrupted,
        );
        metrics.counter_add("slotsel_jobs_lost_total", &[], survival.jobs_lost);
        metrics.counter_add(
            "slotsel_jobs_rescued_total",
            &[("via", "retry")],
            survival.rescued_by_retry,
        );
        metrics.counter_add(
            "slotsel_jobs_rescued_total",
            &[("via", "migrate")],
            survival.rescued_by_migration,
        );
        metrics.counter_add("slotsel_audit_failures_total", &[], survival.audit_failures);
        metrics.gauge_set("slotsel_survival_rate", &[], survival.survival_rate());
        metrics.gauge_set(
            "slotsel_rolling_starved_jobs",
            &[],
            report.outcome.starved.len() as f64,
        );
    }
    report
}

/// The `kind` label of a [`DisruptionEvent`] in
/// `slotsel_disruption_events_total`.
fn disruption_kind(event: &DisruptionEvent) -> &'static str {
    match event {
        DisruptionEvent::SlotRevoked { .. } => "slot_revoked",
        DisruptionEvent::NodeFailed { .. } => "node_failed",
        DisruptionEvent::NodeRestored { .. } => "node_restored",
        DisruptionEvent::NodeDegraded { .. } => "node_degraded",
    }
}

/// Maps an injected [`DisruptionEvent`] to its trace representation.
fn disruption_trace_event(cycle: u32, event: &DisruptionEvent) -> TraceEvent {
    let cycle = u64::from(cycle);
    match event {
        DisruptionEvent::SlotRevoked { node, span } => TraceEvent::SlotRevoked {
            cycle,
            node: u64::from(node.0),
            span_start: span.start().ticks(),
            span_end: span.end().ticks(),
        },
        DisruptionEvent::NodeFailed {
            node,
            repair_cycles,
        } => TraceEvent::NodeFailed {
            cycle,
            node: u64::from(node.0),
            repair_cycles: u64::from(*repair_cycles),
        },
        DisruptionEvent::NodeRestored { node } => TraceEvent::NodeRestored {
            cycle,
            node: u64::from(node.0),
        },
        DisruptionEvent::NodeDegraded { node, from, to } => TraceEvent::NodeDegraded {
            cycle,
            node: u64::from(node.0),
            from_rate: u64::from(from.rate()),
            to_rate: u64::from(to.rate()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slotsel_core::node::Volume;
    use slotsel_core::request::ResourceRequest;
    use slotsel_env::NodeGenConfig;

    fn job(id: u32, priority: u32, n: usize, volume: u64, budget: i64) -> Job {
        Job::new(
            JobId(id),
            priority,
            ResourceRequest::builder()
                .node_count(n)
                .volume(Volume::new(volume))
                .budget(Money::from_units(budget))
                .build()
                .unwrap(),
        )
    }

    fn small_env_config() -> RollingConfig {
        RollingConfig {
            env: EnvironmentConfig {
                nodes: NodeGenConfig::with_count(8),
                ..EnvironmentConfig::paper_default()
            },
            ..RollingConfig::default()
        }
    }

    #[test]
    fn drains_a_feasible_batch() {
        let config = small_env_config();
        let jobs: Vec<Job> = (0..4).map(|i| job(i, 1, 2, 150, 2_000)).collect();
        let outcome = simulate(&config, jobs);
        assert!(outcome.starved.is_empty(), "{outcome:?}");
        assert_eq!(outcome.completions.len(), 4);
        assert!(outcome.total_spent() > 0.0);
    }

    #[test]
    fn oversubscription_spills_into_later_cycles() {
        let config = small_env_config();
        // 10 jobs each needing most of the 8-node platform.
        let jobs: Vec<Job> = (0..10).map(|i| job(i, 1, 6, 300, 20_000)).collect();
        let outcome = simulate(&config, jobs);
        let max_cycle = outcome
            .completions
            .iter()
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(0);
        assert!(max_cycle > 0, "all 10 jobs cannot fit one cycle");
        assert_eq!(
            outcome.completions.len() + outcome.starved.len(),
            10,
            "every job is accounted for"
        );
    }

    #[test]
    fn aging_prevents_starvation_of_low_priority_jobs() {
        let mut config = small_env_config();
        config.aging = 3;
        config.max_cycles = 30;
        // One low-priority whale among high-priority minnows.
        let mut jobs: Vec<Job> = (1..8).map(|i| job(i, 9, 5, 300, 20_000)).collect();
        jobs.push(job(0, 1, 5, 300, 20_000));
        let outcome = simulate(&config, jobs);
        assert!(
            outcome.wait_of(JobId(0)).is_some(),
            "aged job must eventually be scheduled: {outcome:?}"
        );
    }

    #[test]
    fn impossible_job_is_reported_starved() {
        let mut config = small_env_config();
        config.max_cycles = 3;
        let jobs = vec![job(0, 5, 100, 300, 100_000)]; // 100 nodes on an 8-node platform
        let outcome = simulate(&config, jobs);
        assert_eq!(outcome.starved, vec![JobId(0)]);
        assert_eq!(outcome.cycles.len(), 3);
    }

    #[test]
    fn empty_batch_takes_no_cycles() {
        let outcome = simulate(&small_env_config(), Vec::new());
        assert!(outcome.cycles.is_empty());
        assert!(outcome.completions.is_empty());
    }

    fn disrupted_config(recovery: RecoveryPolicy) -> RollingConfig {
        RollingConfig {
            max_cycles: 30,
            disruption: Some(DisruptionConfig::adversarial(99)),
            recovery,
            ..small_env_config()
        }
    }

    #[test]
    fn no_disruption_model_reports_zero_survival_metrics() {
        let config = small_env_config();
        let jobs: Vec<Job> = (0..4).map(|i| job(i, 1, 2, 150, 2_000)).collect();
        let report = simulate_with_recovery(&config, jobs);
        assert_eq!(report.survival, SurvivalMetrics::new());
        assert_eq!(report.outcome.completions.len(), 4);
    }

    #[test]
    fn simulate_equals_simulate_with_recovery_without_disruptions() {
        let config = small_env_config();
        let jobs: Vec<Job> = (0..6).map(|i| job(i, i, 3, 200, 3_000)).collect();
        let plain = simulate(&config, jobs.clone());
        let report = simulate_with_recovery(&config, jobs);
        assert_eq!(plain, report.outcome);
    }

    #[test]
    fn adversarial_disruptions_hit_committed_windows() {
        let jobs: Vec<Job> = (0..6).map(|i| job(i, 1, 3, 200, 5_000)).collect();
        let report = simulate_with_recovery(&disrupted_config(RecoveryPolicy::Abandon), jobs);
        assert!(report.survival.revocations > 0, "{:?}", report.survival);
        assert!(
            report.survival.windows_disrupted > 0,
            "targeted revocations must destroy some committed windows: {:?}",
            report.survival
        );
        assert_eq!(
            report.survival.jobs_lost, report.survival.windows_disrupted,
            "Abandon loses every victim exactly once"
        );
        assert_eq!(report.survival.rescued(), 0);
        assert_eq!(report.survival.audit_failures, 0);
    }

    #[test]
    fn retry_rescues_jobs_abandon_loses() {
        let jobs = |()| -> Vec<Job> { (0..6).map(|i| job(i, 1, 3, 200, 5_000)).collect() };
        let abandon = simulate_with_recovery(&disrupted_config(RecoveryPolicy::Abandon), jobs(()));
        let retry = simulate_with_recovery(
            &disrupted_config(RecoveryPolicy::RetryNextCycle {
                backoff: 0,
                max_attempts: 5,
            }),
            jobs(()),
        );
        assert!(abandon.survival.windows_disrupted > 0);
        assert!(
            retry.survival.rescued_by_retry > 0,
            "retry must rescue at least one victim: {:?}",
            retry.survival
        );
        assert!(retry.outcome.completions.len() > abandon.outcome.completions.len());
        assert_eq!(retry.survival.audit_failures, 0);
        // Retry rescues take at least one cycle each.
        assert!(retry.survival.recovery_latency_cycles.min().unwrap() >= 1.0);
    }

    #[test]
    fn migrate_rescues_within_the_same_cycle() {
        let jobs: Vec<Job> = (0..6).map(|i| job(i, 1, 3, 200, 5_000)).collect();
        let report = simulate_with_recovery(&disrupted_config(RecoveryPolicy::Migrate), jobs);
        assert!(report.survival.windows_disrupted > 0);
        assert!(
            report.survival.rescued_by_migration > 0,
            "an 8-node, lightly loaded platform leaves room to migrate: {:?}",
            report.survival
        );
        assert_eq!(report.survival.audit_failures, 0);
        if report.survival.rescued_by_migration > 0 {
            assert_eq!(
                report.survival.recovery_latency_cycles.max().unwrap(),
                0.0,
                "migrations recover in-cycle"
            );
        }
        assert_eq!(
            report.survival.migration_overrun.count(),
            report.survival.rescued_by_migration
        );
    }

    #[test]
    fn disrupted_runs_are_deterministic() {
        let jobs = |()| -> Vec<Job> { (0..5).map(|i| job(i, 1, 3, 200, 5_000)).collect() };
        let config = disrupted_config(RecoveryPolicy::Migrate);
        let a = simulate_with_recovery(&config, jobs(()));
        let b = simulate_with_recovery(&config, jobs(()));
        assert_eq!(a, b);
    }

    #[test]
    fn rolling_config_with_disruption_roundtrips_through_serde() {
        let config = disrupted_config(RecoveryPolicy::RetryNextCycle {
            backoff: 1,
            max_attempts: 3,
        });
        let json = serde_json::to_string(&config).unwrap();
        let back: RollingConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(config, back);
        // Legacy configs without the new fields still deserialize.
        let legacy = serde_json::to_string(&small_env_config()).unwrap();
        let legacy_back: RollingConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(legacy_back.disruption, small_env_config().disruption);
    }

    #[test]
    fn records_are_internally_consistent() {
        let config = small_env_config();
        let jobs: Vec<Job> = (0..6).map(|i| job(i, i, 3, 200, 3_000)).collect();
        let outcome = simulate(&config, jobs);
        for pair in outcome.cycles.windows(2) {
            assert_eq!(
                pair[1].pending,
                pair[0].pending - pair[0].scheduled,
                "pending counts must chain"
            );
        }
        let scheduled_total: usize = outcome.cycles.iter().map(|c| c.scheduled).sum();
        assert_eq!(scheduled_total, outcome.completions.len());
    }
}
