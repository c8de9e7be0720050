//! The live multi-tenant metascheduler behind `slotsel serve --live`.
//!
//! The paper's cycle scheduling scheme (§1) assumes a metascheduler that
//! repeatedly collects user requests, scans the non-dedicated resources
//! for alternatives, and commits an MCKP-optimal batch. The rolling
//! simulation replays that loop against seeded synthetic batches; this
//! module runs it **live**: requests arrive one at a time (over HTTP, via
//! the `slotsel` binary), pass per-tenant admission control, accumulate
//! into a batch, and each [`LiveService::run_cycle`] schedules the batch
//! and commits the winning windows into *persistent* platform state.
//!
//! ## Shards
//!
//! Platform state is split into [`LiveConfig::shards`] independent node
//! groups, each with its own [`Platform`] and free-[`SlotList`]. A request
//! names its shard (or is auto-assigned to the least-queued one) and a
//! window never spans shards, so the per-shard phase-1/phase-2 scheduling
//! is a pure function of that shard's state — [`LiveService::run_cycle`]
//! fans the shards out over
//! [`crate::parallel::map`] and commits the results serially, in shard
//! order, for determinism.
//!
//! ## Admission
//!
//! Each tenant's in-flight footprint ([`TenantUsage`]: queued + committed
//! but unfinished) is capped by its [`TenantQuota`] from the
//! [`QuotaTable`]. Quotas are checked twice: at [`LiveService::submit`]
//! (a breach is a typed [`AdmitError`] the HTTP layer turns into an error
//! body) and again at batch formation, so a quota tightened between
//! restarts defers — never schedules — work that no longer fits.
//!
//! ## Time
//!
//! The service keeps a per-shard virtual clock. A cycle schedules on the
//! current free slots, commits (cutting the won windows out), then
//! advances the clock by [`LiveConfig::cycle_advance`]: the horizon grows
//! by the same amount (nodes are free beyond the generated non-dedicated
//! interval), free time that has slipped into the past is trimmed, and
//! committed jobs whose windows have finished release their tenants'
//! quota.
//!
//! ## Durability
//!
//! The serving loop journals through PR 6's
//! [`DurableJournal`](crate::journal::DurableJournal) with its
//! own record schema, [`LiveRecord`]: a `ServiceStarted` header, one
//! durable (fsync'd) `Submitted` record per admitted request, per-cycle
//! `Committed`/`Deferred`/`Finished` audit events, and a `CycleCommitted`
//! barrier carrying the full [`LiveState`]. The barrier payload starts
//! with the same `{"CycleCommitted"` prefix as the rolling schema's, so
//! the journal's snapshot cadence applies unchanged. [`recover_live`]
//! replays a journal directory: the last barrier wins, and trailing
//! `Submitted` records — requests accepted after the last committed cycle
//! — are re-applied, which is what makes an accepted-but-uncommitted
//! request survive a crash (see `docs/SERVING.md`).

use std::collections::BTreeMap;
use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use slotsel_batch::{BatchScheduler, BatchSchedulerConfig};
use slotsel_core::money::Money;
use slotsel_core::node::{Platform, Volume};
use slotsel_core::request::{Job, JobId, ResourceRequest};
use slotsel_core::slotlist::{SlotList, SlotStoreKind};
use slotsel_core::tenant::{AdmitError, TenantId, TenantQuota, TenantUsage};
use slotsel_core::time::{Interval, TimeDelta, TimePoint};
use slotsel_core::window::Window;
use slotsel_env::EnvironmentConfig;
use slotsel_obs::journal::{read_journal, Journal, NoopJournal, SnapshotStore};
use slotsel_obs::metrics::{Metrics, NoopMetrics};
use slotsel_obs::{MemorySpanSink, NoopRecorder, NoopSpanSink, Probes, SpanId, SpanSink};

use crate::journal::{journal_path, snapshot_dir, RecoverError};
use crate::parallel::{self, Parallelism};

/// Per-tenant quota assignments, normally loaded from a `--quota-file`
/// JSON document:
///
/// ```json
/// {
///   "tenants": { "alice": { "max_nodes": 8, "max_budget": 500.0 } },
///   "default": { "max_pending": 16 }
/// }
/// ```
///
/// Lookup order: an explicit entry in `tenants`, else `default`, else —
/// when the table names no tenants at all — unlimited. A table that
/// names tenants but has no `default` is **closed**: unknown tenants are
/// refused with [`AdmitError::UnknownTenant`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct QuotaTable {
    /// Explicit per-tenant quotas.
    #[serde(default)]
    pub tenants: BTreeMap<String, TenantQuota>,
    /// Fallback quota for tenants not listed; `None` closes the table.
    #[serde(default)]
    pub default: Option<TenantQuota>,
}

impl QuotaTable {
    /// A table that admits every tenant without limits.
    #[must_use]
    pub fn open() -> Self {
        QuotaTable::default()
    }

    /// Parses a quota file's JSON text.
    ///
    /// # Errors
    ///
    /// Returns the parse failure as a string.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|error| error.to_string())
    }

    /// The quota governing `tenant`.
    ///
    /// # Errors
    ///
    /// Returns [`AdmitError::UnknownTenant`] when the table is closed and
    /// the tenant is not listed.
    pub fn quota_for(&self, tenant: &str) -> Result<TenantQuota, AdmitError> {
        if let Some(quota) = self.tenants.get(tenant) {
            return Ok(*quota);
        }
        if let Some(default) = self.default {
            return Ok(default);
        }
        if self.tenants.is_empty() {
            return Ok(TenantQuota::unlimited());
        }
        Err(AdmitError::UnknownTenant {
            tenant: tenant.to_owned(),
        })
    }
}

/// Configuration of a live service — fixed for its lifetime and recorded
/// in the journal header, so recovery is self-contained.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveConfig {
    /// Number of independent platform shards (node groups).
    pub shards: u32,
    /// Nodes generated per shard.
    pub nodes_per_shard: usize,
    /// Length of each shard's generated non-dedicated interval (the
    /// paper's scheduling interval; local load fragments it).
    pub interval_length: i64,
    /// Virtual time the clock advances per cycle.
    pub cycle_advance: i64,
    /// Environment-generation seed (shard `s` uses `seed + s`).
    pub seed: u64,
    /// Per-tenant admission quotas.
    pub quotas: QuotaTable,
    /// The two-phase batch scheduler's configuration.
    pub scheduler: BatchSchedulerConfig,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            shards: 1,
            nodes_per_shard: 20,
            interval_length: 600,
            cycle_advance: 60,
            seed: 0x51_07_5e_17,
            quotas: QuotaTable::open(),
            scheduler: BatchSchedulerConfig::default(),
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobPhase {
    /// Accepted, waiting for a cycle to schedule it.
    Queued,
    /// A cycle committed a window for it; the window is executing.
    Scheduled {
        /// The committed co-allocation window.
        window: Window,
        /// The cycle that committed it.
        committed_cycle: u64,
    },
    /// Its committed window's finish time has passed.
    Finished {
        /// The window it ran in.
        window: Window,
        /// The cycle that committed it.
        committed_cycle: u64,
        /// The cycle whose clock advance retired it.
        finished_cycle: u64,
    },
}

impl JobPhase {
    /// The phase as the stable lowercase string the HTTP API reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Scheduled { .. } => "scheduled",
            JobPhase::Finished { .. } => "finished",
        }
    }

    /// The committed window, if any.
    #[must_use]
    pub fn window(&self) -> Option<&Window> {
        match self {
            JobPhase::Queued => None,
            JobPhase::Scheduled { window, .. } | JobPhase::Finished { window, .. } => Some(window),
        }
    }
}

/// One accepted request and everything known about it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobEntry {
    /// The service-assigned job id.
    pub id: JobId,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// The shard it is bound to.
    pub shard: u32,
    /// Its current priority (aged on every deferral).
    pub priority: u32,
    /// The resource request.
    pub request: ResourceRequest,
    /// The cycle counter when it was accepted.
    pub submitted_cycle: u64,
    /// Lifecycle phase.
    pub phase: JobPhase,
}

/// One shard's persistent platform state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardState {
    /// The shard's nodes.
    pub platform: Platform,
    /// Its current free slots.
    pub slots: SlotList,
    /// Its virtual clock.
    pub now: TimePoint,
    /// How far free time has been generated/extended.
    pub horizon: TimePoint,
}

/// The complete mutable state of a live service — what a
/// [`LiveRecord::CycleCommitted`] barrier checkpoints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveState {
    /// Cycles executed so far.
    pub cycle: u64,
    /// Next job id to assign.
    pub next_job: u32,
    /// Per-shard platform state.
    pub shards: Vec<ShardState>,
    /// Every job ever accepted, in id order.
    pub jobs: Vec<JobEntry>,
    /// Per-tenant in-flight footprints, derived from `jobs`.
    pub usage: BTreeMap<String, TenantUsage>,
}

/// A raw submission, as decoded from the HTTP API's `POST /submit` body.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Submission {
    /// The submitting tenant's name.
    pub tenant: String,
    /// Number of concurrent slots (`n`).
    pub nodes: usize,
    /// Work volume of each task.
    pub volume: u64,
    /// Budget `S` in credits.
    pub budget: f64,
    /// Scheduling priority (higher first); 0 is valid.
    pub priority: u32,
    /// Optional completion deadline on the virtual clock.
    pub deadline: Option<i64>,
    /// Explicit shard, or `None` for least-queued auto-assignment.
    pub shard: Option<u32>,
}

/// What one [`LiveService::run_cycle`] did.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CycleOutcome {
    /// The cycle that ran (pre-increment counter).
    pub cycle: u64,
    /// `(job, shard)` of every window committed this cycle.
    pub committed: Vec<(JobId, u32)>,
    /// Jobs that entered the batch but won no window (priority-aged).
    pub deferred: Vec<JobId>,
    /// Queued jobs held back because their tenant no longer fits its
    /// quota (re-enforcement at batch formation).
    pub over_quota: Vec<JobId>,
    /// Jobs whose windows finished as the clock advanced.
    pub finished: Vec<JobId>,
}

/// One write-ahead record of a live service journal.
///
/// Same framing and [`crate::journal::DurableJournal`] mechanics as the
/// rolling schema; the schemas are distinguished by their header record
/// (`ServiceStarted` here vs `RunStarted` there). The `CycleCommitted`
/// barrier intentionally shares the rolling barrier's encoded prefix so
/// the journal's snapshot cadence treats both alike.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LiveRecord {
    /// The service's configuration; always the first record.
    ServiceStarted {
        /// The full serving configuration.
        config: LiveConfig,
    },
    /// A request passed admission. Committed (fsync'd) immediately, so an
    /// accepted request survives any later crash.
    Submitted {
        /// The accepted job entry, phase `Queued`.
        entry: JobEntry,
    },
    /// A cycle committed a window (audit event).
    Committed {
        /// The committing cycle.
        cycle: u64,
        /// The job.
        job: u32,
        /// The shard the window was cut from.
        shard: u32,
        /// The committed window.
        window: Window,
    },
    /// A cycle deferred a batched job (audit event).
    Deferred {
        /// The cycle.
        cycle: u64,
        /// The deferred job.
        job: u32,
        /// Its shard.
        shard: u32,
    },
    /// A job's window finished as the clock advanced (audit event).
    Finished {
        /// The cycle.
        cycle: u64,
        /// The finished job.
        job: u32,
    },
    /// The cycle barrier: the complete post-cycle state.
    CycleCommitted {
        /// The full service state after this cycle.
        state: LiveState,
    },
}

impl LiveRecord {
    /// Serializes the record as one JSON line.
    #[must_use]
    pub fn encode(&self) -> String {
        serde_json::to_string(self).expect("live records always serialize")
    }

    /// Parses a record from its JSON line.
    pub fn decode(line: &str) -> Result<Self, String> {
        serde_json::from_str(line).map_err(|error| error.to_string())
    }
}

/// A live journal directory replayed back into a resumable service.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredService {
    /// The service, state as of the last barrier plus any trailing
    /// accepted-but-uncommitted submissions.
    pub service: LiveService,
    /// Byte length of the trusted journal prefix (everything that read
    /// back intact — unlike the rolling schema, trailing `Submitted`
    /// records are state, so nothing intact is discarded).
    pub resume_len: u64,
    /// Barriers in the trusted prefix — resumes the snapshot cadence.
    pub barriers: u64,
    /// Whether a torn tail was truncated.
    pub discarded_tail: bool,
    /// Trailing `Submitted` records re-applied on top of the last
    /// barrier.
    pub resubmitted: usize,
}

/// The live metascheduler: persistent sharded platform state, tenant
/// accounting, and the accumulate → schedule → commit cycle.
///
/// The service is a pure state machine — no I/O, no clocks — so the
/// daemon around it owns the journal, the HTTP endpoint and the pacing,
/// and tests drive it directly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveService {
    config: LiveConfig,
    state: LiveState,
}

impl LiveService {
    /// Creates a fresh service: each shard's platform and initial
    /// non-dedicated slot fragmentation are generated from
    /// `config.seed + shard`, exactly as the paper's environment model.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or the environment parameters are
    /// invalid (non-positive interval, zero nodes).
    #[must_use]
    pub fn new(config: LiveConfig) -> Self {
        assert!(config.shards > 0, "a service needs at least one shard");
        let env_config = EnvironmentConfig {
            interval_length: config.interval_length,
            ..EnvironmentConfig::with_node_count(config.nodes_per_shard)
        };
        let shards = (0..config.shards)
            .map(|shard| {
                let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(u64::from(shard)));
                let env = env_config.generate(&mut rng);
                ShardState {
                    platform: env.platform().clone(),
                    slots: env.slots().clone(),
                    now: TimePoint::ZERO,
                    horizon: TimePoint::new(config.interval_length),
                }
            })
            .collect();
        let mut usage = BTreeMap::new();
        for tenant in config.quotas.tenants.keys() {
            usage.insert(tenant.clone(), TenantUsage::default());
        }
        LiveService {
            config,
            state: LiveState {
                cycle: 0,
                next_job: 0,
                shards,
                jobs: Vec::new(),
                usage,
            },
        }
    }

    /// The serving configuration.
    #[must_use]
    pub fn config(&self) -> &LiveConfig {
        &self.config
    }

    /// The full current state (what a barrier would checkpoint).
    #[must_use]
    pub fn state(&self) -> &LiveState {
        &self.state
    }

    /// Cycles executed so far.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.state.cycle
    }

    /// Every accepted job, in id order.
    #[must_use]
    pub fn jobs(&self) -> &[JobEntry] {
        &self.state.jobs
    }

    /// Looks up one job by id.
    #[must_use]
    pub fn job(&self, id: JobId) -> Option<&JobEntry> {
        self.state.jobs.iter().find(|entry| entry.id == id)
    }

    /// Every known tenant with its usage and governing quota, in name
    /// order — the `GET /tenants` view.
    #[must_use]
    pub fn tenants(&self) -> Vec<(String, TenantUsage, TenantQuota)> {
        self.state
            .usage
            .iter()
            .map(|(tenant, usage)| {
                let quota = self
                    .config
                    .quotas
                    .quota_for(tenant)
                    .unwrap_or_else(|_| TenantQuota::unlimited());
                (tenant.clone(), *usage, quota)
            })
            .collect()
    }

    /// Jobs currently queued on `shard`.
    fn queued_on(&self, shard: u32) -> usize {
        self.state
            .jobs
            .iter()
            .filter(|entry| entry.shard == shard && matches!(entry.phase, JobPhase::Queued))
            .count()
    }

    /// Admits one submission: validates the request, resolves its shard,
    /// checks the tenant's quota and — on success — queues the job and
    /// charges the tenant's in-flight footprint.
    ///
    /// # Errors
    ///
    /// Returns the typed [`AdmitError`] (malformed request, closed-table
    /// unknown tenant, unknown shard, or the first breached quota
    /// dimension). State is untouched on error.
    pub fn submit(&mut self, submission: &Submission) -> Result<JobEntry, AdmitError> {
        if submission.tenant.trim().is_empty() {
            return Err(AdmitError::InvalidRequest {
                reason: "tenant name is empty".to_owned(),
            });
        }
        let shard = match submission.shard {
            Some(shard) if shard >= self.config.shards => {
                return Err(AdmitError::UnknownShard {
                    shard,
                    shards: self.config.shards,
                });
            }
            Some(shard) => shard,
            // Least-queued shard, lowest index on ties — deterministic.
            None => (0..self.config.shards)
                .min_by_key(|&shard| (self.queued_on(shard), shard))
                .expect("at least one shard"),
        };
        let mut builder = ResourceRequest::builder()
            .node_count(submission.nodes)
            .volume(Volume::new(submission.volume))
            .budget(Money::from_f64(submission.budget));
        if let Some(deadline) = submission.deadline {
            builder = builder.deadline(TimePoint::new(deadline));
        }
        let request = builder.build()?;

        let quota = self.config.quotas.quota_for(&submission.tenant)?;
        let usage = self
            .state
            .usage
            .get(&submission.tenant)
            .copied()
            .unwrap_or_default();
        quota.admit(&usage, request.node_count(), request.budget())?;

        let entry = JobEntry {
            id: JobId(self.state.next_job),
            tenant: TenantId::new(submission.tenant.clone()),
            shard,
            priority: submission.priority,
            request,
            submitted_cycle: self.state.cycle,
            phase: JobPhase::Queued,
        };
        self.state.next_job += 1;
        self.state.jobs.push(entry.clone());
        self.recompute_usage();
        Ok(entry)
    }

    /// Rebuilds the per-tenant usage table from the jobs table — the
    /// single source of truth, so charge/release can never drift.
    fn recompute_usage(&mut self) {
        for usage in self.state.usage.values_mut() {
            *usage = TenantUsage::default();
        }
        for entry in &self.state.jobs {
            let usage = self
                .state
                .usage
                .entry(entry.tenant.as_str().to_owned())
                .or_default();
            match entry.phase {
                JobPhase::Queued => {
                    usage.pending += 1;
                    usage.nodes_in_flight += entry.request.node_count();
                    usage.budget_in_flight = usage
                        .budget_in_flight
                        .saturating_add(entry.request.budget());
                }
                JobPhase::Scheduled { .. } => {
                    usage.nodes_in_flight += entry.request.node_count();
                    usage.budget_in_flight = usage
                        .budget_in_flight
                        .saturating_add(entry.request.budget());
                }
                JobPhase::Finished { .. } => {}
            }
        }
    }

    /// Runs one scheduling cycle without observability — the plain twin
    /// of [`run_cycle_observed`](Self::run_cycle_observed).
    pub fn run_cycle(&mut self, parallelism: Parallelism) -> CycleOutcome {
        self.run_cycle_observed(parallelism, &NoopMetrics, &mut NoopJournal)
    }

    /// Runs one scheduling cycle: forms per-shard batches from the queue
    /// (re-enforcing quotas), schedules the shards concurrently, commits
    /// the won windows into the persistent slot lists, advances the
    /// virtual clock, and retires finished jobs.
    ///
    /// Audit records and the `CycleCommitted` barrier go to `journal`
    /// (one `commit` at the barrier); per-tenant gauges and cycle
    /// counters go to `metrics`. Pass [`NoopMetrics`]/[`NoopJournal`] to
    /// run dark — the outcome and state evolution are identical.
    pub fn run_cycle_observed<J: Journal>(
        &mut self,
        parallelism: Parallelism,
        metrics: &dyn Metrics,
        journal: &mut J,
    ) -> CycleOutcome {
        self.run_cycle_spanned(parallelism, metrics, journal, &mut NoopSpanSink)
    }

    /// Like [`run_cycle_observed`](Self::run_cycle_observed), additionally
    /// recording a span tree on `spans`: a `"serve.cycle"` root with
    /// `"serve.batch_formation"` / `"serve.commit"` / `"serve.advance"` /
    /// `"serve.retire"` phase children, plus one `"serve.shard"` subtree
    /// per shard. Shard subtrees are recorded inside the worker threads on
    /// private sinks (track `shard + 1`) and adopted under the cycle root
    /// afterwards, so the caller's sink never crosses threads. With a
    /// disabled sink this is `run_cycle_observed`, bit for bit.
    #[allow(clippy::too_many_lines)]
    pub fn run_cycle_spanned<J: Journal, S: SpanSink>(
        &mut self,
        parallelism: Parallelism,
        metrics: &dyn Metrics,
        journal: &mut J,
        spans: &mut S,
    ) -> CycleOutcome {
        let spanning = spans.enabled();
        let cycle = self.state.cycle;
        let root = if spanning {
            let root = spans.open("serve.cycle");
            spans.attr_u64("cycle", cycle);
            root
        } else {
            SpanId::NONE
        };
        let mut outcome = CycleOutcome {
            cycle,
            ..CycleOutcome::default()
        };

        // --- Batch formation, quotas re-enforced -----------------------
        let formation_span = if spanning {
            Some(spans.open("serve.batch_formation"))
        } else {
            None
        };
        // Walk the queue in scheduling order (priority desc, id asc) and
        // re-run admission against a tally that starts from committed
        // work only: if the quota table tightened since these jobs were
        // accepted, the ones that no longer fit sit out this cycle.
        let mut order: Vec<usize> = (0..self.state.jobs.len())
            .filter(|&i| matches!(self.state.jobs[i].phase, JobPhase::Queued))
            .collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(self.state.jobs[i].priority), i));

        let mut tally: BTreeMap<&str, TenantUsage> = BTreeMap::new();
        for entry in &self.state.jobs {
            if matches!(entry.phase, JobPhase::Scheduled { .. }) {
                let usage = tally.entry(entry.tenant.as_str()).or_default();
                usage.nodes_in_flight += entry.request.node_count();
                usage.budget_in_flight = usage
                    .budget_in_flight
                    .saturating_add(entry.request.budget());
            }
        }
        let mut batches: Vec<Vec<Job>> = vec![Vec::new(); self.config.shards as usize];
        let mut batched: Vec<usize> = Vec::new();
        for index in order {
            let entry = &self.state.jobs[index];
            let admitted = self
                .config
                .quotas
                .quota_for(entry.tenant.as_str())
                .and_then(|quota| {
                    let usage = tally.entry(entry.tenant.as_str()).or_default();
                    quota.admit(usage, entry.request.node_count(), entry.request.budget())
                });
            match admitted {
                Ok(()) => {
                    let usage = tally.entry(entry.tenant.as_str()).or_default();
                    usage.pending += 1;
                    usage.nodes_in_flight += entry.request.node_count();
                    usage.budget_in_flight = usage
                        .budget_in_flight
                        .saturating_add(entry.request.budget());
                    batches[entry.shard as usize].push(Job::new(
                        entry.id,
                        entry.priority,
                        entry.request.clone(),
                    ));
                    batched.push(index);
                }
                Err(_) => outcome.over_quota.push(entry.id),
            }
        }
        if let Some(id) = formation_span {
            spans.attr_u64("batched", batched.len() as u64);
            spans.attr_u64("over_quota", outcome.over_quota.len() as u64);
            spans.close(id);
        }

        // --- Concurrent per-shard scheduling ---------------------------
        // Each shard's two-phase schedule is a pure function of its own
        // (platform, slots, batch), so disjoint shards really do run in
        // parallel; results come back in shard order regardless. Span
        // trees are captured per worker on private sinks and adopted
        // under the cycle root once the barrier completes.
        let scheduler = BatchScheduler::new(self.config.scheduler.clone());
        let shards = &self.state.shards;
        let results = parallel::map(parallelism, &batches, |shard, jobs| {
            if spanning {
                let mut sink = MemorySpanSink::new();
                sink.set_track(shard as u32 + 1);
                let span = sink.open("serve.shard");
                sink.attr_u64("shard", shard as u64);
                sink.attr_u64("jobs", jobs.len() as u64);
                let schedule = scheduler.schedule_probed(
                    &shards[shard].platform,
                    &shards[shard].slots,
                    jobs,
                    Probes::new(NoopRecorder, NoopMetrics, &mut sink),
                );
                sink.close(span);
                (schedule, sink.take_records())
            } else {
                let schedule =
                    scheduler.schedule(&shards[shard].platform, &shards[shard].slots, jobs);
                (schedule, Vec::new())
            }
        });
        let mut schedules = Vec::with_capacity(results.len());
        for (schedule, records) in results {
            if !records.is_empty() {
                spans.adopt(root, records);
            }
            schedules.push(schedule);
        }

        // --- Serial commit, shard order --------------------------------
        let commit_span = if spanning {
            Some(spans.open("serve.commit"))
        } else {
            None
        };
        let mut new_phase: BTreeMap<u32, JobPhase> = BTreeMap::new();
        for (shard, schedule) in schedules.iter().enumerate() {
            for assignment in &schedule.assignments {
                let job = assignment.job.id();
                match &assignment.window {
                    Some(window) if reserve_window(&mut self.state.shards[shard].slots, window) => {
                        if journal.enabled() {
                            journal.append(
                                &LiveRecord::Committed {
                                    cycle,
                                    job: job.0,
                                    shard: shard as u32,
                                    window: window.clone(),
                                }
                                .encode(),
                            );
                        }
                        outcome.committed.push((job, shard as u32));
                        new_phase.insert(
                            job.0,
                            JobPhase::Scheduled {
                                window: window.clone(),
                                committed_cycle: cycle,
                            },
                        );
                    }
                    _ => {
                        if journal.enabled() {
                            journal.append(
                                &LiveRecord::Deferred {
                                    cycle,
                                    job: job.0,
                                    shard: shard as u32,
                                }
                                .encode(),
                            );
                        }
                        outcome.deferred.push(job);
                    }
                }
            }
        }
        for index in batched {
            let entry = &mut self.state.jobs[index];
            match new_phase.remove(&entry.id.0) {
                Some(phase) => entry.phase = phase,
                // Deferred: age the priority so it cannot starve behind a
                // stream of fresh work (the rolling loop's rule).
                None => entry.priority = entry.priority.saturating_add(1),
            }
        }
        if let Some(id) = commit_span {
            spans.attr_u64("committed", outcome.committed.len() as u64);
            spans.attr_u64("deferred", outcome.deferred.len() as u64);
            spans.close(id);
        }

        // --- Advance the virtual clock ---------------------------------
        let advance_span = if spanning {
            Some(spans.open("serve.advance"))
        } else {
            None
        };
        let advance = TimeDelta::new(self.config.cycle_advance);
        for shard in &mut self.state.shards {
            // Nodes are free beyond the generated non-dedicated interval:
            // extend each node's free time by one cycle's worth (release
            // merges it with a free slot already touching the horizon).
            let grown = Interval::new(shard.horizon, shard.horizon + advance);
            for node in shard.platform.iter().collect::<Vec<_>>() {
                shard
                    .slots
                    .release(node.id(), grown, node.performance(), node.price_per_unit());
            }
            shard.horizon += advance;

            // Trim free time that slipped into the past. `prune_ended_by`
            // lets the tree store drop expired slots via its min-end
            // aggregate, and the stale-prefix walk stops at the first slot
            // starting at or after `now` (iteration is start-ordered).
            let now = shard.now + advance;
            shard.slots.prune_ended_by(now);
            let stale: Vec<_> = shard
                .slots
                .iter()
                .take_while(|slot| slot.start() < now)
                .map(|slot| (slot.id(), Interval::new(slot.start(), now)))
                .collect();
            if !stale.is_empty() {
                shard
                    .slots
                    .cut(&stale, TimeDelta::ZERO)
                    .expect("stale prefixes lie inside their slots");
            }
            shard.now = now;
        }
        if let Some(id) = advance_span {
            spans.attr_u64("shards", self.state.shards.len() as u64);
            spans.close(id);
        }

        // --- Retire finished windows, releasing quota ------------------
        let retire_span = if spanning {
            Some(spans.open("serve.retire"))
        } else {
            None
        };
        for entry in &mut self.state.jobs {
            if let JobPhase::Scheduled {
                window,
                committed_cycle,
            } = &entry.phase
            {
                if window.finish() <= self.state.shards[entry.shard as usize].now {
                    if journal.enabled() {
                        journal.append(
                            &LiveRecord::Finished {
                                cycle,
                                job: entry.id.0,
                            }
                            .encode(),
                        );
                    }
                    outcome.finished.push(entry.id);
                    entry.phase = JobPhase::Finished {
                        window: window.clone(),
                        committed_cycle: *committed_cycle,
                        finished_cycle: cycle,
                    };
                }
            }
        }

        if let Some(id) = retire_span {
            spans.attr_u64("finished", outcome.finished.len() as u64);
            spans.close(id);
        }

        self.state.cycle += 1;
        self.recompute_usage();

        if journal.enabled() {
            journal.append(
                &LiveRecord::CycleCommitted {
                    state: self.state.clone(),
                }
                .encode(),
            );
            journal.commit();
        }

        if spanning {
            spans.close(root);
        }
        self.export_metrics(metrics, &outcome);
        outcome
    }

    /// Publishes the service-level gauges and counters.
    fn export_metrics(&self, metrics: &dyn Metrics, outcome: &CycleOutcome) {
        if !metrics.enabled() {
            return;
        }
        metrics.counter_add("slotsel_serve_cycles_total", &[], 1);
        metrics.counter_add(
            "slotsel_serve_commits_total",
            &[],
            outcome.committed.len() as u64,
        );
        metrics.counter_add(
            "slotsel_serve_deferrals_total",
            &[],
            outcome.deferred.len() as u64,
        );
        metrics.counter_add(
            "slotsel_serve_quota_deferrals_total",
            &[],
            outcome.over_quota.len() as u64,
        );
        metrics.counter_add(
            "slotsel_serve_finished_total",
            &[],
            outcome.finished.len() as u64,
        );
        for (tenant, usage) in &self.state.usage {
            let labels = [("tenant", tenant.as_str())];
            metrics.gauge_set(
                "slotsel_serve_tenant_pending",
                &labels,
                usage.pending as f64,
            );
            metrics.gauge_set(
                "slotsel_serve_tenant_nodes_in_flight",
                &labels,
                usage.nodes_in_flight as f64,
            );
            metrics.gauge_set(
                "slotsel_serve_tenant_budget_in_flight",
                &labels,
                usage.budget_in_flight.as_f64(),
            );
        }
        for (shard, state) in self.state.shards.iter().enumerate() {
            let shard = shard.to_string();
            let labels = [("shard", shard.as_str())];
            metrics.gauge_set(
                "slotsel_serve_shard_free_slots",
                &labels,
                state.slots.len() as f64,
            );
        }
    }

    /// Re-applies a recovered trailing `Submitted` record: the request
    /// was durably accepted after the last barrier, so it re-enters the
    /// queue exactly as admitted.
    fn reapply(&mut self, entry: JobEntry) {
        self.state.next_job = self.state.next_job.max(entry.id.0 + 1);
        self.state.jobs.push(entry);
        self.recompute_usage();
    }
}

/// Cuts a committed window's reservations out of a shard's free slots.
///
/// The window was found on this same list (possibly after earlier commits
/// this cycle split some slots under fresh ids), so reservations are
/// re-resolved **by node and time**, not by the window's recorded slot
/// ids: for each window slot, the free slot currently covering the task's
/// span on that node hosts the cut, clamped to the slot's end exactly as
/// `csa::apply_cut` clamps rectangular reservations. Returns `false` —
/// leaving the list unchanged — when any span is no longer free (the
/// caller then defers the job instead of committing it).
fn reserve_window(slots: &mut SlotList, window: &Window) -> bool {
    let runtime = window.runtime();
    let mut reservations = Vec::with_capacity(window.size());
    for task in window.slots() {
        let task_span = Interval::with_length(window.start(), task.length());
        // An indexed lookup on the tree store; a linear scan on the Vec.
        let Some(slot) = slots.find_covering(task.node(), task_span) else {
            return false;
        };
        let end = (window.start() + runtime).earliest(slot.end());
        reservations.push((slot.id(), Interval::new(window.start(), end)));
    }
    slots.cut(&reservations, TimeDelta::ZERO).is_ok()
}

/// Replays a live journal directory back into a resumable service.
///
/// The last `CycleCommitted` barrier wins; trailing `Submitted` records
/// are re-applied on top (they were fsync'd at admission — losing them
/// would drop accepted work). A torn final line is truncated, exactly as
/// the rolling recovery does. The snapshot store is cross-checked: a
/// snapshot claiming more cycles than the journal means the files are not
/// from the same run, and recovery refuses rather than guesses.
///
/// # Errors
///
/// Returns a [`RecoverError`] for an unreadable/corrupt journal, a
/// missing or foreign (`RunStarted`) header, an unparsable record, or an
/// inconsistent record chain.
pub fn recover_live(dir: &Path) -> Result<RecoveredService, RecoverError> {
    let tail = read_journal(&journal_path(dir))?;
    if tail.records.is_empty() {
        return Err(RecoverError::EmptyJournal);
    }
    let mut records = tail.records.iter();
    let first = records.next().expect("checked non-empty");
    // A first record that is not a ServiceStarted — including one from
    // the rolling schema, which does not parse as a LiveRecord at all —
    // means this is not a live journal.
    let Ok(LiveRecord::ServiceStarted { config }) = LiveRecord::decode(first) else {
        return Err(RecoverError::MissingHeader);
    };

    let mut service = LiveService::new(config);
    let mut barriers = 0u64;
    let mut trailing: Vec<JobEntry> = Vec::new();
    for (index, payload) in records.enumerate() {
        let record_no = index as u64 + 2;
        let record = LiveRecord::decode(payload).map_err(|message| RecoverError::Decode {
            record: record_no,
            message,
        })?;
        match record {
            LiveRecord::ServiceStarted { .. } => {
                return Err(RecoverError::ChainBroken {
                    detail: format!("second ServiceStarted at record {record_no}"),
                });
            }
            LiveRecord::CycleCommitted { state } => {
                if state.cycle <= service.state.cycle && barriers > 0 {
                    return Err(RecoverError::ChainBroken {
                        detail: format!(
                            "barrier at record {record_no} goes back to cycle {} \
                             after cycle {}",
                            state.cycle, service.state.cycle
                        ),
                    });
                }
                service.state = state;
                barriers += 1;
                // The barrier state subsumes everything admitted before it.
                trailing.clear();
            }
            LiveRecord::Submitted { entry } => trailing.push(entry),
            // Audit events contribute nothing to the state.
            LiveRecord::Committed { .. }
            | LiveRecord::Deferred { .. }
            | LiveRecord::Finished { .. } => {}
        }
    }

    let resubmitted = trailing.len();
    for entry in trailing {
        service.reapply(entry);
    }

    // Journal barriers deserialize onto the Vec store (the wire format is
    // store-agnostic); the live service runs its shards on the tree, so
    // convert before resuming. Equality with pre-crash state is unaffected
    // — SlotList comparison is logical, not structural.
    for shard in &mut service.state.shards {
        shard.slots.convert(SlotStoreKind::Tree);
    }

    let snapshots = snapshot_dir(dir);
    if snapshots.is_dir() {
        let store = SnapshotStore::open(&snapshots)?;
        if let Some((_, payload)) = store.latest()? {
            let record = LiveRecord::decode(&payload)
                .map_err(|message| RecoverError::SnapshotDecode { message })?;
            let LiveRecord::CycleCommitted { state } = record else {
                return Err(RecoverError::SnapshotDecode {
                    message: "snapshot payload is not a CycleCommitted barrier".to_string(),
                });
            };
            if state.cycle > service.state.cycle {
                return Err(RecoverError::SnapshotNewerThanJournal {
                    snapshot_cycle: state.cycle.min(u64::from(u32::MAX)) as u32,
                    journal_cycle: service.state.cycle.min(u64::from(u32::MAX)) as u32,
                });
            }
        }
    }

    Ok(RecoveredService {
        service,
        resume_len: tail.valid_len,
        barriers,
        discarded_tail: tail.torn,
        resubmitted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::DurableJournal;
    use crate::journal::RecordingJournal;
    use std::path::PathBuf;

    fn tiny_config(shards: u32) -> LiveConfig {
        LiveConfig {
            shards,
            nodes_per_shard: 8,
            interval_length: 600,
            cycle_advance: 100,
            seed: 42,
            ..LiveConfig::default()
        }
    }

    fn submission(tenant: &str, nodes: usize, budget: f64) -> Submission {
        Submission {
            tenant: tenant.to_owned(),
            nodes,
            volume: 50,
            budget,
            priority: 1,
            deadline: None,
            shard: None,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("slotsel-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn submit_assigns_ids_shards_and_charges_usage() {
        let mut service = LiveService::new(tiny_config(2));
        let a = service.submit(&submission("alice", 2, 1_000.0)).unwrap();
        let b = service.submit(&submission("alice", 1, 500.0)).unwrap();
        assert_eq!((a.id, b.id), (JobId(0), JobId(1)));
        // Auto-assignment balances: second submit goes to the other shard.
        assert_ne!(a.shard, b.shard);
        let usage = service.state().usage["alice"];
        assert_eq!(usage.pending, 2);
        assert_eq!(usage.nodes_in_flight, 3);
        assert_eq!(usage.budget_in_flight, Money::from_f64(1_500.0));
    }

    #[test]
    fn quotas_reject_with_typed_errors_and_closed_tables_refuse_strangers() {
        let mut config = tiny_config(1);
        config.quotas.tenants.insert(
            "alice".to_owned(),
            TenantQuota {
                max_nodes: Some(2),
                max_budget: Some(100.0),
                max_pending: None,
            },
        );
        let mut service = LiveService::new(config);
        assert!(service.submit(&submission("alice", 2, 100.0)).is_ok());
        let over = service.submit(&submission("alice", 1, 1.0)).unwrap_err();
        assert_eq!(over.code(), "quota_exceeded");
        let stranger = service.submit(&submission("mallory", 1, 1.0)).unwrap_err();
        assert!(matches!(stranger, AdmitError::UnknownTenant { .. }));
        let bad_shard = service
            .submit(&Submission {
                shard: Some(9),
                ..submission("alice", 1, 1.0)
            })
            .unwrap_err();
        assert!(matches!(
            bad_shard,
            AdmitError::UnknownShard { shards: 1, .. }
        ));
        // A malformed request is typed too, and charges nothing beyond
        // the one job already admitted.
        let invalid = service.submit(&submission("alice", 0, 1.0)).unwrap_err();
        assert_eq!(invalid.code(), "bad_request");
        assert_eq!(service.state().usage["alice"].pending, 1);
    }

    #[test]
    fn cycles_schedule_commit_and_finish_releasing_quota() {
        // Advance the clock slowly so the committed window (a few ticks
        // long on this tiny platform) outlives at least one cycle.
        let mut service = LiveService::new(LiveConfig {
            cycle_advance: 2,
            ..tiny_config(1)
        });
        let entry = service.submit(&submission("alice", 2, 100_000.0)).unwrap();
        let outcome = service.run_cycle(Parallelism::Serial);
        assert_eq!(outcome.committed, vec![(entry.id, 0)]);
        let job = service.job(entry.id).unwrap();
        let window = job.phase.window().expect("committed").clone();
        assert_eq!(window.size(), 2);
        assert_eq!(job.phase.name(), "scheduled");
        // Quota stays charged while the window executes…
        assert_eq!(service.state().usage["alice"].nodes_in_flight, 2);
        assert_eq!(service.state().usage["alice"].pending, 0);
        // …and releases once the clock passes its finish.
        let mut finished = false;
        for _ in 0..20 {
            let outcome = service.run_cycle(Parallelism::Serial);
            if outcome.finished.contains(&entry.id) {
                finished = true;
                break;
            }
        }
        assert!(finished, "window {window:?} never finished");
        assert_eq!(service.job(entry.id).unwrap().phase.name(), "finished");
        assert_eq!(service.state().usage["alice"].nodes_in_flight, 0);
    }

    #[test]
    fn committed_windows_occupy_the_slots_they_won() {
        // On a single shard, two committed windows can never overlap the
        // same node-time: the second cycle's commits must respect cuts
        // made by the first.
        let mut service = LiveService::new(tiny_config(1));
        for _ in 0..6 {
            service.submit(&submission("alice", 2, 100_000.0)).unwrap();
        }
        for _ in 0..4 {
            service.run_cycle(Parallelism::Serial);
        }
        let windows: Vec<&Window> = service
            .jobs()
            .iter()
            .filter_map(|entry| entry.phase.window())
            .collect();
        assert!(windows.len() >= 2, "expected several commits");
        for (i, a) in windows.iter().enumerate() {
            for b in &windows[i + 1..] {
                assert!(
                    !slotsel_batch::windows_conflict(a, b),
                    "overlapping commits: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn disjoint_shards_schedule_identically_serial_and_parallel() {
        let build = || {
            let mut service = LiveService::new(tiny_config(3));
            for shard in 0..3u32 {
                for _ in 0..2 {
                    service
                        .submit(&Submission {
                            shard: Some(shard),
                            ..submission("alice", 1, 100_000.0)
                        })
                        .unwrap();
                }
            }
            service
        };
        let mut serial = build();
        let mut threaded = build();
        for _ in 0..3 {
            let a = serial.run_cycle(Parallelism::Serial);
            let b = threaded.run_cycle(Parallelism::Threads(3));
            assert_eq!(a, b);
        }
        assert_eq!(serial, threaded);
    }

    #[test]
    fn batch_formation_reenforces_a_tightened_quota() {
        let mut service = LiveService::new(tiny_config(1));
        service.submit(&submission("alice", 2, 100_000.0)).unwrap();
        service.submit(&submission("alice", 2, 100_000.0)).unwrap();
        // Tighten after admission — as if the quota file shrank between
        // restarts: only one job's worth of nodes fits now.
        service.config.quotas.tenants.insert(
            "alice".to_owned(),
            TenantQuota {
                max_nodes: Some(2),
                ..TenantQuota::unlimited()
            },
        );
        let outcome = service.run_cycle(Parallelism::Serial);
        assert_eq!(outcome.committed.len(), 1);
        assert_eq!(outcome.over_quota.len(), 1);
    }

    #[test]
    fn journal_replays_to_the_same_state_and_preserves_trailing_submits() {
        let dir = temp_dir("recover");
        let mut journal = DurableJournal::create(&dir, 2).unwrap();
        let config = tiny_config(2);
        let mut service = LiveService::new(config.clone());
        journal.append(
            &LiveRecord::ServiceStarted {
                config: config.clone(),
            }
            .encode(),
        );
        journal.commit();

        let entry = service.submit(&submission("alice", 1, 9_000.0)).unwrap();
        journal.append(&LiveRecord::Submitted { entry }.encode());
        journal.commit();
        service.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut journal);

        // Accepted after the barrier — must survive the crash.
        let late = service.submit(&submission("bob", 1, 7_000.0)).unwrap();
        journal.append(
            &LiveRecord::Submitted {
                entry: late.clone(),
            }
            .encode(),
        );
        journal.commit();
        // Crash: drop the journal without finish().
        drop(journal);

        let recovered = recover_live(&dir).unwrap();
        assert_eq!(recovered.barriers, 1);
        assert_eq!(recovered.resubmitted, 1);
        assert_eq!(recovered.service, service);
        assert_eq!(
            recovered.service.job(late.id).unwrap().phase.name(),
            "queued"
        );

        // The resumed journal continues the stream: another cycle, then a
        // second recovery sees two barriers and no trailing submits.
        let mut resumed = DurableJournal::resume_at(&dir, recovered.resume_len, 1, 2).unwrap();
        let mut service = recovered.service;
        service.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut resumed);
        resumed.finish().unwrap();
        let again = recover_live(&dir).unwrap();
        assert_eq!(again.barriers, 2);
        assert_eq!(again.resubmitted, 0);
        assert_eq!(again.service, service);
    }

    #[test]
    fn recovery_refuses_a_rolling_journal_and_empty_directories() {
        let dir = temp_dir("foreign");
        assert!(matches!(
            recover_live(&dir),
            Err(RecoverError::EmptyJournal)
        ));
        let mut journal = DurableJournal::create(&dir, 2).unwrap();
        journal.append(
            &crate::journal::JournalRecord::RunStarted {
                config: crate::rolling::RollingConfig::default(),
                jobs: Vec::new(),
            }
            .encode(),
        );
        journal.finish().unwrap();
        assert!(matches!(
            recover_live(&dir),
            Err(RecoverError::MissingHeader)
        ));
    }

    #[test]
    fn live_records_round_trip_and_the_barrier_prefix_matches_rolling() {
        let config = tiny_config(1);
        let service = LiveService::new(config.clone());
        let records = [
            LiveRecord::ServiceStarted { config },
            LiveRecord::CycleCommitted {
                state: service.state().clone(),
            },
            LiveRecord::Finished { cycle: 3, job: 7 },
        ];
        for record in &records {
            let line = record.encode();
            assert_eq!(&LiveRecord::decode(&line).unwrap(), record);
        }
        // The DurableJournal snapshot cadence keys off this prefix.
        assert!(records[1].encode().starts_with("{\"CycleCommitted\""));
    }

    #[test]
    fn quota_table_lookup_order_and_json() {
        let table = QuotaTable::from_json(
            r#"{"tenants":{"alice":{"max_nodes":4}},"default":{"max_pending":2}}"#,
        )
        .unwrap();
        assert_eq!(table.quota_for("alice").unwrap().max_nodes, Some(4));
        assert_eq!(table.quota_for("bob").unwrap().max_pending, Some(2));
        let closed = QuotaTable::from_json(r#"{"tenants":{"alice":{}}}"#).unwrap();
        assert!(closed.quota_for("bob").is_err());
        assert!(QuotaTable::open().quota_for("anyone").is_ok());
        assert!(QuotaTable::from_json("not json").is_err());
    }

    #[test]
    fn audit_records_name_the_shards_they_committed_on() {
        let mut service = LiveService::new(tiny_config(2));
        for shard in 0..2u32 {
            service
                .submit(&Submission {
                    shard: Some(shard),
                    ..submission("alice", 1, 100_000.0)
                })
                .unwrap();
        }
        let mut journal = RecordingJournal::new();
        service.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut journal);
        let shards: Vec<u32> = journal
            .records()
            .iter()
            .filter_map(|line| match LiveRecord::decode(line) {
                Ok(LiveRecord::Committed { shard, .. }) => Some(shard),
                _ => None,
            })
            .collect();
        assert_eq!(shards, vec![0, 1], "one commit per disjoint shard");
    }

    #[test]
    fn spanned_cycle_matches_observed_and_adopts_shard_subtrees() {
        let seed_service = || {
            let mut service = LiveService::new(tiny_config(2));
            for shard in 0..2u32 {
                service
                    .submit(&Submission {
                        shard: Some(shard),
                        ..submission("alice", 1, 100_000.0)
                    })
                    .unwrap();
            }
            service
        };

        let mut plain = seed_service();
        let plain_outcome = plain.run_cycle(Parallelism::Serial);

        let mut spanned = seed_service();
        let mut sink = MemorySpanSink::new();
        let outcome =
            spanned.run_cycle_spanned(Parallelism::Auto, &NoopMetrics, &mut NoopJournal, &mut sink);
        assert_eq!(outcome, plain_outcome);
        assert_eq!(spanned.state(), plain.state());

        let records = sink.take_records();
        let root = records
            .iter()
            .find(|r| r.name == "serve.cycle")
            .expect("cycle root");
        for phase in [
            "serve.batch_formation",
            "serve.commit",
            "serve.advance",
            "serve.retire",
        ] {
            assert!(
                records
                    .iter()
                    .any(|r| r.name == phase && r.parent == root.id),
                "missing {phase}"
            );
        }
        // One adopted shard subtree per shard, each on its own track
        // (shard s runs on track s + 1; the coordinator stays on 0).
        let shard_tracks: Vec<u32> = records
            .iter()
            .filter(|r| r.name == "serve.shard")
            .map(|r| r.track)
            .collect();
        assert_eq!(shard_tracks, vec![1, 2]);
        for record in &records {
            if record.name == "batch.schedule" {
                assert!(record.track >= 1, "shard subtree keeps its track");
            }
        }
    }
}
