//! Recovery of committed schedules after fault injection.
//!
//! After [`crate::disruption`] perturbs the environment, some committed
//! windows are no longer executable: their free time was revoked, their
//! node failed, or a degradation stretched their rough right edge past the
//! slot that held it. This module finds those victims by replaying every
//! window through the [`crate::execution`] audit and offers three
//! [`RecoveryPolicy`] reactions: give the job up, re-enqueue it for the
//! next cycle with priority aging, or migrate it immediately — an AEP
//! re-search over the surviving free slots within the remaining budget.
//! Whatever the policy, the repaired schedule is re-validated through the
//! same replay audit before it counts as survived.

use serde::{Deserialize, Serialize};

use slotsel_obs::{Metrics, Probes, Recorder, SpanSink, TraceEvent};

use slotsel_core::money::Money;
use slotsel_core::node::Platform;
use slotsel_core::request::Job;
use slotsel_core::slot::{Slot, SlotId};
use slotsel_core::slotlist::SlotList;
use slotsel_core::time::Interval;
use slotsel_core::window::{Window, WindowSlot};
use slotsel_core::{Amp, SlotSelector};
use slotsel_env::Environment;

use crate::execution;

/// What happens to a job whose committed window a disruption destroyed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RecoveryPolicy {
    /// The job is lost — the paper's implicit behaviour, and the baseline
    /// the other policies are measured against.
    #[default]
    Abandon,
    /// Re-enqueue the job for a later cycle with priority aging, so a
    /// repeatedly unlucky job climbs the queue instead of starving.
    RetryNextCycle {
        /// Extra cycles to sit out before re-entering the batch (0 means
        /// the very next cycle).
        backoff: u32,
        /// Disruptions survived before the job is abandoned after all.
        max_attempts: u32,
    },
    /// Immediately re-search a window on the surviving slots (AEP search,
    /// within the job's budget and whatever is left of the VO budget) and
    /// execute it in the same cycle.
    Migrate,
}

/// Result of replaying a committed window set against a perturbed
/// environment: who still executes, and who needs recovery.
#[derive(Debug, Clone)]
pub struct VictimReport {
    /// Indices (into the committed slice) of windows that still execute.
    pub survivor_indices: Vec<usize>,
    /// Indices of windows the disruptions made non-executable.
    pub victim_indices: Vec<usize>,
    /// The survivors' windows with task lengths re-stretched to the
    /// current platform rates, in `survivor_indices` order. Migrated
    /// windows are appended here so later migrations avoid them.
    pub survivor_windows: Vec<Window>,
}

/// Re-derives a committed window's task spans under the platform's
/// *current* performance rates.
///
/// A window commits task lengths computed from the rates at selection
/// time; if a node has since degraded, the same volume now takes longer —
/// the stretched window is what would actually execute. On an undegraded
/// platform this is the identity.
#[must_use]
pub fn stretched(platform: &Platform, job: &Job, window: &Window) -> Window {
    let volume = job.request().volume();
    let slots = window
        .slots()
        .iter()
        .map(|ws| {
            let rate = platform.node(ws.node()).performance();
            WindowSlot::new(ws.slot(), ws.node(), volume.time_on(rate), ws.cost())
        })
        .collect();
    Window::new(window.start(), slots)
}

/// Replays `committed` windows (in commit order) against the perturbed
/// environment and splits them into survivors and victims.
///
/// Greedy in commit order — the order the scheduler resolved conflicts
/// in, so higher-priority jobs keep their reservations: each window is
/// stretched to current rates and tentatively added to the survivor set;
/// if the joint replay audit fails (free time revoked, node failed, or a
/// stretched edge colliding with an earlier survivor) the window is a
/// victim. The returned survivor set always passes the joint audit.
///
/// Equivalent to [`detect_victims_probed`] with [`Probes::none`].
#[must_use]
pub fn detect_victims(env: &Environment, committed: &[(&Job, &Window)]) -> VictimReport {
    detect_victims_probed(env, committed, Probes::none())
}

/// [`detect_victims`] with observability probes: every committed window's
/// replay verdict is reported to the recorder as a
/// [`TraceEvent::WindowAudited`], in commit order, and the detection runs
/// inside a `"recovery.detect"` span carrying the audited/victim counts.
#[must_use]
pub fn detect_victims_probed<R: Recorder, M: Metrics, S: SpanSink>(
    env: &Environment,
    committed: &[(&Job, &Window)],
    probes: Probes<R, M, S>,
) -> VictimReport {
    let Probes {
        mut recorder,
        mut spans,
        ..
    } = probes;
    let span = spans.enabled().then(|| spans.open("recovery.detect"));
    let mut report = VictimReport {
        survivor_indices: Vec::new(),
        victim_indices: Vec::new(),
        survivor_windows: Vec::new(),
    };
    for (index, (job, window)) in committed.iter().enumerate() {
        let candidate = stretched(env.platform(), job, window);
        report.survivor_windows.push(candidate);
        let refs: Vec<&Window> = report.survivor_windows.iter().collect();
        let survived = execution::verify(env, &refs).is_ok();
        if survived {
            report.survivor_indices.push(index);
        } else {
            report.survivor_windows.pop();
            report.victim_indices.push(index);
        }
        if recorder.enabled() {
            recorder.emit(TraceEvent::WindowAudited {
                job: u64::from(job.id().0),
                survived,
            });
        }
    }
    if let Some(span) = span {
        spans.attr_u64("windows", committed.len() as u64);
        spans.attr_u64("victims", report.victim_indices.len() as u64);
        spans.close(span);
    }
    report
}

/// The free slots left once `reserved` windows' rectangular spans are
/// subtracted — what a migrating job may still use.
#[must_use]
pub fn surviving_slots(env: &Environment, reserved: &[Window]) -> SlotList {
    // Collect then bulk-build (on the environment's own store kind): the
    // result is identical to per-piece `add` calls — same sequential ids,
    // same order — without the per-insert cost.
    let mut raw = Vec::new();
    for slot in env.slots().iter() {
        let mut pieces = vec![slot.span()];
        for window in reserved {
            if window.slots().iter().any(|ws| ws.node() == slot.node()) {
                let hold = Interval::with_length(window.start(), window.runtime());
                pieces = pieces
                    .iter()
                    .flat_map(|piece| piece.subtract(&hold))
                    .collect();
            }
        }
        for piece in pieces {
            if !piece.is_empty() {
                let id = SlotId(raw.len() as u64);
                raw.push(Slot::new(
                    id,
                    slot.node(),
                    piece,
                    slot.performance(),
                    slot.price_per_unit(),
                ));
            }
        }
    }
    SlotList::from_slots_in(env.slots().store_kind(), raw)
}

/// Attempts to migrate one victim job: an immediate AEP (AMP) re-search
/// over the slots not held by `survivors`, bounded by the job's own budget
/// and, when given, the remaining VO budget of the cycle.
///
/// Returns `None` when no executable replacement window exists within
/// those budgets.
#[must_use]
pub fn migrate_window(
    env: &Environment,
    survivors: &[Window],
    job: &Job,
    remaining_vo_budget: Option<Money>,
) -> Option<Window> {
    let available = surviving_slots(env, survivors);
    let window = Amp.select(env.platform(), &available, job.request())?;
    if let Some(budget) = remaining_vo_budget {
        if window.total_cost() > budget {
            return None;
        }
    }
    // Re-validate the repaired schedule through the replay audit before
    // committing to it; the subtraction above makes this hold by
    // construction, and the audit keeps it an invariant rather than an
    // assumption.
    let mut repaired: Vec<&Window> = survivors.iter().collect();
    repaired.push(&window);
    execution::verify(env, &repaired).ok()?;
    Some(window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use slotsel_batch::BatchScheduler;
    use slotsel_core::node::{NodeId, Performance, Volume};
    use slotsel_core::request::{JobId, ResourceRequest};
    use slotsel_env::{EnvironmentConfig, NodeGenConfig};

    fn env(seed: u64) -> Environment {
        EnvironmentConfig {
            nodes: NodeGenConfig::with_count(16),
            ..EnvironmentConfig::paper_default()
        }
        .generate(&mut StdRng::seed_from_u64(seed))
    }

    fn job(id: u32, n: usize, volume: u64) -> Job {
        Job::new(
            JobId(id),
            1,
            ResourceRequest::builder()
                .node_count(n)
                .volume(Volume::new(volume))
                .budget(Money::from_units(100_000))
                .build()
                .unwrap(),
        )
    }

    fn commit(env: &Environment, jobs: &[Job]) -> Vec<(Job, Window)> {
        BatchScheduler::default()
            .schedule(env.platform(), env.slots(), jobs)
            .assignments
            .into_iter()
            .filter_map(|a| a.window.map(|w| (a.job, w)))
            .collect()
    }

    #[test]
    fn unperturbed_commit_has_no_victims() {
        let e = env(1);
        let jobs: Vec<Job> = (0..3).map(|i| job(i, 2, 150)).collect();
        let committed = commit(&e, &jobs);
        assert!(!committed.is_empty());
        let pairs: Vec<(&Job, &Window)> = committed.iter().map(|(j, w)| (j, w)).collect();
        let report = detect_victims(&e, &pairs);
        assert_eq!(report.survivor_indices.len(), committed.len());
        assert!(report.victim_indices.is_empty());
    }

    #[test]
    fn probed_detection_matches_plain_and_feeds_every_sink() {
        use slotsel_obs::span::AttrValue;
        use slotsel_obs::{MemoryRecorder, MemorySpanSink, MetricsRegistry};

        let e0 = env(3);
        let jobs: Vec<Job> = (0..3).map(|i| job(i, 2, 150)).collect();
        let committed = commit(&e0, &jobs);
        let (_, window) = &committed[0];
        let mut e = e0.clone();
        e.revoke(
            window.slots()[0].node(),
            Interval::with_length(window.start(), window.runtime()),
        );
        let pairs: Vec<(&Job, &Window)> = committed.iter().map(|(j, w)| (j, w)).collect();
        let plain = detect_victims(&e, &pairs);
        let mut recorder = MemoryRecorder::new();
        let registry = MetricsRegistry::new();
        let mut sink = MemorySpanSink::new();
        let probed =
            detect_victims_probed(&e, &pairs, Probes::new(&mut recorder, &registry, &mut sink));
        assert_eq!(plain.survivor_indices, probed.survivor_indices);
        assert_eq!(plain.victim_indices, probed.victim_indices);
        assert_eq!(plain.survivor_windows, probed.survivor_windows);
        assert!(!plain.victim_indices.is_empty());

        // One verdict per committed window, in commit order.
        let verdicts: Vec<(u64, bool)> = recorder
            .events()
            .iter()
            .filter_map(|event| match event {
                TraceEvent::WindowAudited { job, survived } => Some((*job, *survived)),
                _ => None,
            })
            .collect();
        let expected: Vec<(u64, bool)> = committed
            .iter()
            .enumerate()
            .map(|(i, (j, _))| (u64::from(j.id().0), plain.survivor_indices.contains(&i)))
            .collect();
        assert_eq!(verdicts, expected);
        let records = sink.take_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "recovery.detect");
        assert_eq!(
            records[0].attrs,
            [
                ("windows".to_owned(), AttrValue::U64(committed.len() as u64)),
                (
                    "victims".to_owned(),
                    AttrValue::U64(plain.victim_indices.len() as u64)
                ),
            ]
        );
    }

    #[test]
    fn stretched_is_identity_without_degradation() {
        let e = env(2);
        let committed = commit(&e, &[job(0, 3, 200)]);
        let (j, w) = &committed[0];
        assert_eq!(&stretched(e.platform(), j, w), w);
    }

    #[test]
    fn revoking_a_window_span_makes_it_a_victim() {
        let e0 = env(3);
        let committed = commit(&e0, &[job(0, 3, 200)]);
        let (_, window) = &committed[0];
        let target = window.slots()[0].node();
        let mut e = e0.clone();
        e.revoke(
            target,
            Interval::with_length(window.start(), window.runtime()),
        );
        let pairs: Vec<(&Job, &Window)> = committed.iter().map(|(j, w)| (j, w)).collect();
        let report = detect_victims(&e, &pairs);
        assert_eq!(report.victim_indices, vec![0]);
        assert!(report.survivor_windows.is_empty());
    }

    #[test]
    fn degradation_stretching_past_the_slot_makes_a_victim() {
        let e0 = env(4);
        let committed = commit(&e0, &[job(0, 2, 400)]);
        let (j, window) = &committed[0];
        // Degrading a participating node to rate 1 stretches its task to
        // the full volume in time units — far past any paper-default slot.
        let target = window.slots()[0].node();
        let mut e = e0.clone();
        e.degrade_node(target, Performance::new(1));
        let s = stretched(e.platform(), j, window);
        assert!(s.runtime() > window.runtime(), "right edge must stretch");
        let pairs = vec![(j, window)];
        let report = detect_victims(&e, &pairs);
        assert_eq!(report.victim_indices, vec![0]);
    }

    #[test]
    fn surviving_slots_exclude_survivor_holds() {
        let e = env(5);
        let committed = commit(&e, &[job(0, 3, 200)]);
        let (_, window) = &committed[0];
        let available = surviving_slots(&e, std::slice::from_ref(window));
        let hold = Interval::with_length(window.start(), window.runtime());
        for ws in window.slots() {
            for slot in available.iter().filter(|s| s.node() == ws.node()) {
                assert!(
                    !slot.span().overlaps(&hold),
                    "slot {slot} overlaps the survivor's hold {hold}"
                );
            }
        }
        assert!(available.is_sorted());
    }

    #[test]
    fn migration_finds_an_executable_replacement() {
        let e0 = env(6);
        let jobs: Vec<Job> = (0..2).map(|i| job(i, 2, 150)).collect();
        let committed = commit(&e0, &jobs);
        assert_eq!(committed.len(), 2);
        // Fail every node of the first window: it must migrate.
        let mut e = e0.clone();
        for ws in committed[0].1.slots() {
            e.fail_node(ws.node());
        }
        let pairs: Vec<(&Job, &Window)> = committed.iter().map(|(j, w)| (j, w)).collect();
        let report = detect_victims(&e, &pairs);
        assert!(report.victim_indices.contains(&0));
        let victim = &committed[0].0;
        let migrated = migrate_window(&e, &report.survivor_windows, victim, None)
            .expect("16 mostly idle nodes leave room to migrate");
        for ws in migrated.slots() {
            assert!(
                e.slots().iter().any(|s| s.node() == ws.node()),
                "migrated onto a live node"
            );
        }
        // The repaired schedule passes the audit as a whole.
        let mut repaired: Vec<&Window> = report.survivor_windows.iter().collect();
        repaired.push(&migrated);
        execution::verify(&e, &repaired).expect("repaired schedule must replay");
    }

    #[test]
    fn migration_respects_remaining_vo_budget() {
        let e0 = env(7);
        let committed = commit(&e0, &[job(0, 2, 200)]);
        let (victim, window) = &committed[0];
        let mut e = e0.clone();
        for ws in window.slots() {
            e.fail_node(ws.node());
        }
        assert!(
            migrate_window(&e, &[], victim, Some(Money::ZERO)).is_none(),
            "an exhausted VO budget must block the migration"
        );
        assert!(migrate_window(&e, &[], victim, Some(Money::from_units(100_000))).is_some());
    }

    #[test]
    fn migration_fails_when_nothing_survives() {
        let e0 = env(8);
        let committed = commit(&e0, &[job(0, 2, 200)]);
        let (victim, _) = &committed[0];
        let mut e = e0.clone();
        for index in 0..e.platform().len() {
            e.fail_node(NodeId(index as u32));
        }
        assert!(migrate_window(&e, &[], victim, None).is_none());
    }

    #[test]
    fn recovery_policy_serde_roundtrip() {
        for policy in [
            RecoveryPolicy::Abandon,
            RecoveryPolicy::RetryNextCycle {
                backoff: 2,
                max_attempts: 3,
            },
            RecoveryPolicy::Migrate,
        ] {
            let json = serde_json::to_string(&policy).unwrap();
            let back: RecoveryPolicy = serde_json::from_str(&json).unwrap();
            assert_eq!(policy, back);
        }
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::Abandon);
    }
}
