//! Typed write-ahead records and crash recovery for the rolling
//! simulation.
//!
//! [`slotsel_obs::journal`] provides the payload-agnostic mechanics —
//! CRC framing, fsync'd commit batches, torn-tail detection, snapshot
//! files. This module owns what the payloads *mean*: the
//! [`JournalRecord`] schema a journaled rolling run
//! ([`crate::rolling::simulate_with_recovery_probed`]) appends, the
//! serializable [`RollingState`] those records checkpoint, and the
//! [`recover`] path that turns a journal directory back into a resumable
//! simulation.
//!
//! ## Record stream shape
//!
//! ```text
//! RunStarted { config, jobs }                    — committed immediately
//! ┌ per executed cycle ─────────────────────────────────────────────┐
//! │ Readmitted / Committed / Deferred / Disrupted / Rescued /       │
//! │ Parked / Lost …                               (the audit trail) │
//! │ CycleCommitted { state }                      — the barrier;    │
//! │                                                 commit + fsync  │
//! └─────────────────────────────────────────────────────────────────┘
//! RunFinished { report }                         — committed
//! ```
//!
//! The barrier record carries the complete cross-cycle
//! [`RollingState`], so replay is mechanical: the last barrier wins and
//! nothing is re-derived from the event records (which exist for audit
//! and tooling, not reconstruction). A crash mid-cycle leaves events
//! without their barrier; recovery discards them and the resumed run
//! re-executes that cycle deterministically — same per-cycle environment
//! seed, same checkpointed disruption-RNG position — reproducing the
//! uninterrupted run bit for bit. That equivalence is pinned by the
//! crash-at-any-event property tests (see `docs/DURABILITY.md`).

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use slotsel_core::request::{Job, JobId};
use slotsel_core::window::Window;
use slotsel_obs::journal::{read_journal, Journal, JournalReadError, SnapshotStore, WalJournal};

use crate::disruption::{DisruptionEvent, DisruptionModelState};
use crate::metrics::SurvivalMetrics;
use crate::rolling::{CycleRecord, RollingConfig, RollingOutcome, RollingReport};

/// A parked disruption victim waiting out its retry backoff.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParkedEntry {
    /// The job, already priority-aged for its re-admission.
    pub job: Job,
    /// First cycle at which it may re-enter the batch.
    pub eligible_at: u32,
}

/// The complete cross-cycle mutable state of a rolling simulation, as of
/// a cycle-commit barrier.
///
/// Everything the loop in `sim/rolling.rs` carries between cycles is
/// here — restoring this struct and re-entering the loop at
/// [`next_cycle`](RollingState::next_cycle) continues the run exactly.
/// The per-cycle environment is *not* part of the state: it is
/// regenerated from `config.seed + cycle` each iteration, crashed run
/// and resumed run alike.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RollingState {
    /// The next cycle the loop would execute.
    pub next_cycle: u32,
    /// Jobs pending admission, priority-aged as of the barrier.
    pub pending: Vec<Job>,
    /// Disruption victims waiting out a retry backoff.
    pub parked: Vec<ParkedEntry>,
    /// `(job, cycle)` of each victim's first disruption, for latency
    /// accounting when it eventually completes.
    pub victim_since: Vec<(JobId, u32)>,
    /// Disruption retry counts per job.
    pub attempts_of: Vec<(JobId, u32)>,
    /// `(job, cycle)` for every completed job so far.
    pub completions: Vec<(JobId, u32)>,
    /// Per-cycle records so far.
    pub cycles: Vec<CycleRecord>,
    /// Survival bookkeeping so far.
    pub survival: SurvivalMetrics,
    /// The disruption model's RNG position and standing outages; `None`
    /// for disruption-free runs (and before the first barrier).
    pub model: Option<DisruptionModelState>,
}

impl RollingState {
    /// The state of a run that has not executed any cycle yet.
    #[must_use]
    pub fn initial(jobs: Vec<Job>) -> Self {
        RollingState {
            next_cycle: 0,
            pending: jobs,
            parked: Vec::new(),
            victim_since: Vec::new(),
            attempts_of: Vec::new(),
            completions: Vec::new(),
            cycles: Vec::new(),
            survival: SurvivalMetrics::new(),
            model: None,
        }
    }
}

/// One write-ahead record of a journaled rolling run.
///
/// Event variants are the durable audit trail — every admission, window
/// commit, disruption and recovery action, in execution order. The
/// [`CycleCommitted`](JournalRecord::CycleCommitted) barrier carries the
/// full [`RollingState`] and is what recovery actually replays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// The run's full inputs; always the first record, committed before
    /// the first cycle so recovery is self-contained.
    RunStarted {
        /// The simulation configuration.
        config: RollingConfig,
        /// The initial batch.
        jobs: Vec<Job>,
    },
    /// A parked victim re-entered the pending batch.
    Readmitted {
        /// Cycle of the re-admission.
        cycle: u32,
        /// The job re-admitted.
        job: u32,
    },
    /// The scheduler committed a window for a job (the scan commit).
    Committed {
        /// Cycle of the commit.
        cycle: u32,
        /// The job committed.
        job: u32,
        /// The committed window.
        window: Window,
    },
    /// The scheduler deferred a job to the next cycle, priority-aged.
    Deferred {
        /// Cycle of the deferral.
        cycle: u32,
        /// The deferred job.
        job: u32,
        /// Its aged priority going forward.
        priority: u32,
    },
    /// A disruption was injected after commit.
    Disrupted {
        /// Cycle of the injection.
        cycle: u32,
        /// The injected event.
        event: DisruptionEvent,
    },
    /// A recovery policy rescued a disruption victim.
    Rescued {
        /// Cycle of the rescue.
        cycle: u32,
        /// The rescued job.
        job: u32,
        /// `"retry"` or `"migrate"`.
        via: String,
    },
    /// A victim was parked for a later cycle.
    Parked {
        /// Cycle of the parking decision.
        cycle: u32,
        /// The parked job.
        job: u32,
        /// First cycle at which it may return.
        eligible_at: u32,
    },
    /// A victim was lost for good.
    Lost {
        /// Cycle of the loss.
        cycle: u32,
        /// The lost job.
        job: u32,
    },
    /// The cycle barrier: the complete post-cycle state. Written last in
    /// its cycle's batch and made durable by the commit that follows.
    CycleCommitted {
        /// The full cross-cycle state after this cycle.
        state: RollingState,
    },
    /// The run completed; carries the final report so recovering a
    /// finished journal needs no re-execution.
    RunFinished {
        /// The run's final report.
        report: RollingReport,
    },
}

impl JournalRecord {
    /// Serializes the record as one JSON line (no embedded newlines).
    #[must_use]
    pub fn encode(&self) -> String {
        serde_json::to_string(self).expect("journal records always serialize")
    }

    /// Parses a record from its JSON line.
    pub fn decode(line: &str) -> Result<Self, String> {
        serde_json::from_str(line).map_err(|error| error.to_string())
    }
}

/// Why a journal directory could not be recovered.
#[derive(Debug)]
pub enum RecoverError {
    /// The journal file itself was unreadable or corrupt mid-file.
    Journal(JournalReadError),
    /// Snapshot-store I/O failed.
    Io(std::io::Error),
    /// A record's frame verified but its payload did not parse.
    Decode {
        /// 1-based record number within the journal.
        record: u64,
        /// The parse failure.
        message: String,
    },
    /// The journal holds no records at all — nothing to recover.
    EmptyJournal,
    /// The journal does not begin with [`JournalRecord::RunStarted`].
    MissingHeader,
    /// The record stream violates the journaling protocol (barrier
    /// cycles out of order, events outside their cycle, …).
    ChainBroken {
        /// What was inconsistent.
        detail: String,
    },
    /// The latest snapshot claims more progress than the journal — the
    /// files cannot be from the same run. Refuse rather than guess.
    SnapshotNewerThanJournal {
        /// `next_cycle` of the snapshot state.
        snapshot_cycle: u32,
        /// `next_cycle` the journal actually reaches.
        journal_cycle: u32,
    },
    /// The latest intact snapshot payload is not a barrier record.
    SnapshotDecode {
        /// The parse failure.
        message: String,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Journal(error) => write!(f, "{error}"),
            RecoverError::Io(error) => write!(f, "snapshot store I/O failed: {error}"),
            RecoverError::Decode { record, message } => {
                write!(f, "journal record {record} does not parse: {message}")
            }
            RecoverError::EmptyJournal => write!(f, "journal holds no records"),
            RecoverError::MissingHeader => {
                write!(f, "journal does not begin with a RunStarted record")
            }
            RecoverError::ChainBroken { detail } => {
                write!(f, "journal record chain is inconsistent: {detail}")
            }
            RecoverError::SnapshotNewerThanJournal {
                snapshot_cycle,
                journal_cycle,
            } => write!(
                f,
                "snapshot is ahead of the journal (snapshot at cycle \
                 {snapshot_cycle}, journal at cycle {journal_cycle}): \
                 the files cannot be from the same run"
            ),
            RecoverError::SnapshotDecode { message } => {
                write!(f, "snapshot payload does not parse: {message}")
            }
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Journal(error) => Some(error),
            RecoverError::Io(error) => Some(error),
            _ => None,
        }
    }
}

impl From<JournalReadError> for RecoverError {
    fn from(error: JournalReadError) -> Self {
        RecoverError::Journal(error)
    }
}

impl From<std::io::Error> for RecoverError {
    fn from(error: std::io::Error) -> Self {
        RecoverError::Io(error)
    }
}

/// A journal replayed back into a resumable run.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredRun {
    /// The run's configuration, from its `RunStarted` header.
    pub config: RollingConfig,
    /// The original batch, from the header.
    pub jobs: Vec<Job>,
    /// The state as of the last intact barrier (the initial state when
    /// the run crashed before its first barrier).
    pub state: RollingState,
    /// The final report, when the journal ends in `RunFinished` — the
    /// run needs no re-execution.
    pub finished: Option<RollingReport>,
    /// Byte length of the journal prefix recovery trusts: through the
    /// last barrier (or header). Resuming truncates the file here, which
    /// amputates both torn tails and orphan events of the interrupted
    /// cycle before re-executing it.
    pub resume_len: u64,
    /// Whether anything after `resume_len` was discarded (torn tail or
    /// uncommitted cycle events).
    pub discarded_tail: bool,
}

/// Framed on-disk length of one record line: CRC (8) + space + payload +
/// newline.
fn framed_len(payload: &str) -> u64 {
    payload.len() as u64 + 10
}

/// Replays raw journal record payloads into a [`RecoveredRun`].
///
/// `config`/`jobs` come from the leading `RunStarted`, the state from
/// the last `CycleCommitted` barrier; event records are validated to sit
/// inside the cycle the next barrier would commit, but contribute
/// nothing to the state (the barrier is self-sufficient).
pub fn replay(records: &[String]) -> Result<RecoveredRun, RecoverError> {
    let mut iter = records.iter();
    let Some(first) = iter.next() else {
        return Err(RecoverError::EmptyJournal);
    };
    let header = JournalRecord::decode(first)
        .map_err(|message| RecoverError::Decode { record: 1, message })?;
    let JournalRecord::RunStarted { config, jobs } = header else {
        return Err(RecoverError::MissingHeader);
    };

    let mut state = RollingState::initial(jobs.clone());
    let mut finished = None;
    let mut resume_len = framed_len(first);
    let mut offset = resume_len;
    let mut discarded_tail = false;

    for (index, payload) in iter.enumerate() {
        let record_no = index as u64 + 2;
        let record = JournalRecord::decode(payload).map_err(|message| RecoverError::Decode {
            record: record_no,
            message,
        })?;
        offset += framed_len(payload);
        match record {
            JournalRecord::RunStarted { .. } => {
                return Err(RecoverError::ChainBroken {
                    detail: format!("second RunStarted at record {record_no}"),
                });
            }
            JournalRecord::CycleCommitted { state: barrier } => {
                if barrier.next_cycle <= state.next_cycle {
                    return Err(RecoverError::ChainBroken {
                        detail: format!(
                            "barrier at record {record_no} goes back to cycle \
                             {} after cycle {}",
                            barrier.next_cycle, state.next_cycle
                        ),
                    });
                }
                state = barrier;
                resume_len = offset;
                discarded_tail = false;
            }
            JournalRecord::RunFinished { report } => {
                finished = Some(report);
                resume_len = offset;
                discarded_tail = false;
            }
            JournalRecord::Readmitted { cycle, .. }
            | JournalRecord::Committed { cycle, .. }
            | JournalRecord::Deferred { cycle, .. }
            | JournalRecord::Disrupted { cycle, .. }
            | JournalRecord::Rescued { cycle, .. }
            | JournalRecord::Parked { cycle, .. }
            | JournalRecord::Lost { cycle, .. } => {
                if finished.is_some() {
                    return Err(RecoverError::ChainBroken {
                        detail: format!("event record {record_no} after RunFinished"),
                    });
                }
                if cycle != state.next_cycle {
                    return Err(RecoverError::ChainBroken {
                        detail: format!(
                            "event record {record_no} belongs to cycle {cycle} \
                             but the journal is at cycle {}",
                            state.next_cycle
                        ),
                    });
                }
                // Events of the in-progress cycle: superseded by either
                // their barrier (above) or the deterministic re-run.
                discarded_tail = true;
            }
        }
    }

    Ok(RecoveredRun {
        config,
        jobs,
        state,
        finished,
        resume_len,
        discarded_tail,
    })
}

/// The journal file inside a run directory.
#[must_use]
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join("journal.wal")
}

/// The snapshot directory inside a run directory.
#[must_use]
pub fn snapshot_dir(dir: &Path) -> PathBuf {
    dir.join("snapshots")
}

/// Recovers a run directory: reads the journal (truncating a torn tail),
/// replays it, and cross-checks the snapshot store.
///
/// The journal is authoritative — every barrier is a full checkpoint —
/// and the snapshots are its safety net: recovery verifies the latest
/// intact snapshot is *not ahead* of the journal (it cannot be, for
/// files from the same run: the journal commit precedes the snapshot
/// write) and refuses with
/// [`RecoverError::SnapshotNewerThanJournal`] otherwise.
pub fn recover(dir: &Path) -> Result<RecoveredRun, RecoverError> {
    let tail = read_journal(&journal_path(dir))?;
    if tail.records.is_empty() {
        return Err(RecoverError::EmptyJournal);
    }
    let mut run = replay(&tail.records)?;
    run.discarded_tail |= tail.torn;

    let snapshots = snapshot_dir(dir);
    if snapshots.is_dir() {
        let store = SnapshotStore::open(&snapshots)?;
        if let Some((_, payload)) = store.latest()? {
            let record = JournalRecord::decode(&payload)
                .map_err(|message| RecoverError::SnapshotDecode { message })?;
            let JournalRecord::CycleCommitted { state } = record else {
                return Err(RecoverError::SnapshotDecode {
                    message: "snapshot payload is not a CycleCommitted barrier".to_string(),
                });
            };
            let journal_cycle = run
                .finished
                .as_ref()
                .map_or(run.state.next_cycle, |_| u32::MAX);
            if state.next_cycle > journal_cycle {
                return Err(RecoverError::SnapshotNewerThanJournal {
                    snapshot_cycle: state.next_cycle,
                    journal_cycle: run.state.next_cycle,
                });
            }
        }
    }
    Ok(run)
}

/// Opens a recovered run's journal for appending, truncated to the
/// verified prefix, so the resumed run continues the same record stream.
pub fn reopen_for_resume(dir: &Path, run: &RecoveredRun) -> std::io::Result<WalJournal> {
    WalJournal::resume(&journal_path(dir), run.resume_len)
}

/// A [`Journal`] that persists to a run directory: a CRC-framed WAL plus
/// a periodic snapshot of every Nth cycle barrier.
///
/// The snapshot piggybacks on the record stream: when a
/// [`JournalRecord::CycleCommitted`] payload passes through
/// [`append`](Journal::append) and its barrier index hits the cadence,
/// the same payload is written to the [`SnapshotStore`] right after the
/// WAL commit that made it durable — so a snapshot can never be newer
/// than the journal.
#[derive(Debug)]
pub struct DurableJournal {
    wal: WalJournal,
    snapshots: SnapshotStore,
    snapshot_every: u32,
    barriers: u64,
    latest_barrier: Option<(u64, String)>,
    saved_generation: u64,
    snapshot_error: Option<std::io::Error>,
}

/// Prefix every `CycleCommitted` payload starts with (externally tagged
/// enum encoding) — how [`DurableJournal`] spots barriers without
/// parsing each record.
const BARRIER_PREFIX: &str = "{\"CycleCommitted\"";

impl DurableJournal {
    /// Creates a fresh journal (truncating any previous one) in `dir`,
    /// snapshotting every `snapshot_every` cycle barriers.
    ///
    /// # Panics
    ///
    /// Panics if `snapshot_every` is zero.
    pub fn create(dir: &Path, snapshot_every: u32) -> std::io::Result<Self> {
        assert!(snapshot_every > 0, "snapshot cadence must be at least 1");
        std::fs::create_dir_all(dir)?;
        let wal = WalJournal::create(&journal_path(dir))?;
        let snapshots = SnapshotStore::open(&snapshot_dir(dir))?;
        Ok(DurableJournal {
            wal,
            snapshots,
            snapshot_every,
            barriers: 0,
            latest_barrier: None,
            saved_generation: 0,
            snapshot_error: None,
        })
    }

    /// Reopens a recovered run's journal for resuming, keeping the
    /// snapshot cadence counted from the recovered barrier.
    pub fn resume(dir: &Path, run: &RecoveredRun, snapshot_every: u32) -> std::io::Result<Self> {
        Self::resume_at(
            dir,
            run.resume_len,
            u64::from(run.state.next_cycle),
            snapshot_every,
        )
    }

    /// Reopens any barrier-structured journal for appending, truncated to
    /// the `valid_len`-byte verified prefix, with the barrier counter (and
    /// hence the snapshot cadence) resumed at `barriers`. This is the
    /// schema-agnostic core [`resume`](Self::resume) delegates to — the
    /// live serving journal (`crate::serve`) recovers with its own replay
    /// and resumes through here.
    ///
    /// # Panics
    ///
    /// Panics if `snapshot_every` is zero.
    pub fn resume_at(
        dir: &Path,
        valid_len: u64,
        barriers: u64,
        snapshot_every: u32,
    ) -> std::io::Result<Self> {
        assert!(snapshot_every > 0, "snapshot cadence must be at least 1");
        let wal = WalJournal::resume(&journal_path(dir), valid_len)?;
        let snapshots = SnapshotStore::open(&snapshot_dir(dir))?;
        Ok(DurableJournal {
            wal,
            snapshots,
            snapshot_every,
            barriers,
            latest_barrier: None,
            saved_generation: barriers,
            snapshot_error: None,
        })
    }

    /// Flushes and fsyncs the tail, writes a *final* snapshot of the last
    /// barrier regardless of cadence (the graceful-shutdown contract),
    /// and surfaces the first error (WAL or snapshot store).
    pub fn finish(mut self) -> std::io::Result<()> {
        self.commit();
        self.save_latest_barrier(true);
        self.wal.finish()?;
        match self.snapshot_error.take() {
            Some(error) => Err(error),
            None => Ok(()),
        }
    }

    /// Saves the latest barrier to the snapshot store if it is due (`force`
    /// ignores the cadence). Only state the WAL has durably committed may
    /// be snapshotted — callers invoke this after a successful commit.
    fn save_latest_barrier(&mut self, force: bool) {
        let Some((generation, payload)) = &self.latest_barrier else {
            return;
        };
        let due = force || generation % u64::from(self.snapshot_every) == 0;
        if !due || *generation <= self.saved_generation {
            return;
        }
        if self.wal.io_error().is_some() || self.snapshot_error.is_some() {
            return;
        }
        match self.snapshots.save(*generation, payload) {
            Ok(()) => self.saved_generation = *generation,
            Err(error) => self.snapshot_error = Some(error),
        }
    }
}

impl Journal for DurableJournal {
    fn append(&mut self, payload: &str) {
        if payload.starts_with(BARRIER_PREFIX) {
            self.barriers += 1;
            self.latest_barrier = Some((self.barriers, payload.to_string()));
        }
        self.wal.append(payload);
    }

    fn commit(&mut self) {
        self.wal.commit();
        self.save_latest_barrier(false);
    }
}

/// A journal that simulates a crash: it records the first `k` appends
/// and drops everything after — the crash-at-any-event harness.
///
/// Treating all `k` surviving appends as durable is *stricter* than real
/// fsync batching, where a crash also loses the uncommitted tail: losing
/// more records is equivalent to a crash at a smaller `k`, so sweeping
/// `k` over every append index covers every real crash point.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashJournal {
    kept: Vec<String>,
    remaining: u64,
    dropped: u64,
}

impl CrashJournal {
    /// A journal that "crashes" after `k` appended records.
    #[must_use]
    pub fn new(k: u64) -> Self {
        CrashJournal {
            kept: Vec::new(),
            remaining: k,
            dropped: 0,
        }
    }

    /// The records that survived the crash.
    #[must_use]
    pub fn records(&self) -> &[String] {
        &self.kept
    }

    /// How many appends were lost to the crash; 0 means the run fit
    /// entirely before the crash point.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Journal for CrashJournal {
    fn append(&mut self, payload: &str) {
        if self.remaining > 0 {
            self.remaining -= 1;
            self.kept.push(payload.to_string());
        } else {
            self.dropped += 1;
        }
    }

    fn commit(&mut self) {}
}

/// Collects the full record stream of an uninterrupted run — the
/// reference the crash sweep compares against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordingJournal {
    records: Vec<String>,
}

impl RecordingJournal {
    /// An empty recording journal.
    #[must_use]
    pub fn new() -> Self {
        RecordingJournal::default()
    }

    /// Every record appended, in order.
    #[must_use]
    pub fn records(&self) -> &[String] {
        &self.records
    }

    /// Consumes the journal, returning its records.
    #[must_use]
    pub fn into_records(self) -> Vec<String> {
        self.records
    }
}

impl Journal for RecordingJournal {
    fn append(&mut self, payload: &str) {
        self.records.push(payload.to_string());
    }

    fn commit(&mut self) {}
}

/// Rebuilds the [`RollingOutcome`]-level view of a recovered state —
/// what a monitoring surface can show before the run resumes.
#[must_use]
pub fn outcome_so_far(state: &RollingState) -> RollingOutcome {
    RollingOutcome {
        completions: state.completions.clone(),
        starved: state
            .pending
            .iter()
            .map(Job::id)
            .chain(state.parked.iter().map(|p| p.job.id()))
            .collect(),
        cycles: state.cycles.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("slotsel-sim-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn header() -> String {
        JournalRecord::RunStarted {
            config: RollingConfig::default(),
            jobs: Vec::new(),
        }
        .encode()
    }

    fn barrier(next_cycle: u32) -> String {
        let mut state = RollingState::initial(Vec::new());
        state.next_cycle = next_cycle;
        JournalRecord::CycleCommitted { state }.encode()
    }

    fn event(cycle: u32) -> String {
        JournalRecord::Lost { cycle, job: 7 }.encode()
    }

    #[test]
    fn journal_records_round_trip_through_encode_decode() {
        let records = [header(), event(0), barrier(1)];
        for line in &records {
            let decoded = JournalRecord::decode(line).unwrap();
            assert_eq!(decoded.encode(), *line);
        }
        assert!(JournalRecord::decode("{\"NotARecord\":{}}").is_err());
    }

    #[test]
    fn replay_requires_a_run_started_header() {
        assert!(matches!(replay(&[]), Err(RecoverError::EmptyJournal)));
        assert!(matches!(
            replay(&[event(0)]),
            Err(RecoverError::MissingHeader)
        ));
        assert!(matches!(
            replay(&[header(), header()]),
            Err(RecoverError::ChainBroken { .. })
        ));
    }

    #[test]
    fn replay_validates_the_record_chain() {
        // An event claiming a cycle the journal has not reached.
        let foreign = replay(&[header(), barrier(1), event(0)]);
        assert!(matches!(foreign, Err(RecoverError::ChainBroken { .. })));
        // A barrier going backwards.
        let rewind = replay(&[header(), barrier(2), barrier(1)]);
        assert!(matches!(rewind, Err(RecoverError::ChainBroken { .. })));
        // A record that frames correctly but does not parse.
        let garbled = replay(&[header(), "not json".to_owned()]);
        assert!(matches!(
            garbled,
            Err(RecoverError::Decode { record: 2, .. })
        ));
    }

    #[test]
    fn replay_trusts_the_last_barrier_and_discards_orphan_events() {
        let records = [header(), event(0), barrier(1), event(1), event(1)];
        let run = replay(&records).unwrap();
        assert_eq!(run.state.next_cycle, 1);
        assert!(run.finished.is_none());
        assert!(run.discarded_tail, "orphan cycle-1 events are discarded");
        let kept: u64 = records[..3].iter().map(|r| framed_len(r)).sum();
        assert_eq!(run.resume_len, kept);
    }

    #[test]
    fn recover_reports_an_empty_directory_as_empty_journal() {
        let dir = temp_dir("empty");
        assert!(matches!(recover(&dir), Err(RecoverError::EmptyJournal)));
    }

    #[test]
    fn recover_refuses_a_snapshot_ahead_of_the_journal() {
        let dir = temp_dir("snapshot-ahead");
        let mut wal = WalJournal::create(&journal_path(&dir)).unwrap();
        wal.append(&header());
        wal.append(&barrier(1));
        wal.finish().unwrap();
        let store = SnapshotStore::open(&snapshot_dir(&dir)).unwrap();
        store.save(5, &barrier(5)).unwrap();
        match recover(&dir) {
            Err(RecoverError::SnapshotNewerThanJournal {
                snapshot_cycle,
                journal_cycle,
            }) => {
                assert_eq!(snapshot_cycle, 5);
                assert_eq!(journal_cycle, 1);
            }
            other => panic!("expected SnapshotNewerThanJournal, got {other:?}"),
        }
    }

    #[test]
    fn recover_rejects_a_snapshot_that_is_not_a_barrier() {
        let dir = temp_dir("snapshot-garbage");
        let mut wal = WalJournal::create(&journal_path(&dir)).unwrap();
        wal.append(&header());
        wal.finish().unwrap();
        let store = SnapshotStore::open(&snapshot_dir(&dir)).unwrap();
        store.save(1, &event(0)).unwrap();
        assert!(matches!(
            recover(&dir),
            Err(RecoverError::SnapshotDecode { .. })
        ));
    }

    #[test]
    fn crash_journal_keeps_exactly_the_first_k_appends() {
        let mut crash = CrashJournal::new(2);
        crash.append("a");
        crash.commit();
        crash.append("b");
        crash.append("c");
        crash.commit();
        assert_eq!(crash.records(), ["a", "b"]);
        assert_eq!(crash.dropped(), 1);
    }

    #[test]
    fn durable_journal_snapshots_every_nth_barrier() {
        let dir = temp_dir("durable");
        let mut journal = DurableJournal::create(&dir, 2).unwrap();
        journal.append(&header());
        journal.commit();
        for cycle in 0..4 {
            journal.append(&event(cycle));
            journal.append(&barrier(cycle + 1));
            journal.commit();
        }
        journal.finish().unwrap();

        let store = SnapshotStore::open(&snapshot_dir(&dir)).unwrap();
        assert_eq!(store.generations().unwrap(), vec![2, 4]);
        let (generation, payload) = store.latest().unwrap().unwrap();
        assert_eq!(generation, 4);
        assert_eq!(payload, barrier(4));

        let run = recover(&dir).unwrap();
        assert_eq!(run.state.next_cycle, 4);
        assert!(!run.discarded_tail);
    }

    #[test]
    fn recover_truncates_a_torn_tail_and_resumes_the_stream() {
        use std::io::Write;
        let dir = temp_dir("torn");
        let mut journal = DurableJournal::create(&dir, 4).unwrap();
        journal.append(&header());
        journal.append(&event(0));
        journal.append(&barrier(1));
        journal.finish().unwrap();
        // A crash mid-write leaves a partial line at the tail.
        let mut file = fs::OpenOptions::new()
            .append(true)
            .open(journal_path(&dir))
            .unwrap();
        file.write_all(b"deadbeef {\"Lost\":{\"cyc").unwrap();
        drop(file);

        let run = recover(&dir).unwrap();
        assert_eq!(run.state.next_cycle, 1);
        assert!(run.discarded_tail);

        let mut resumed = reopen_for_resume(&dir, &run).unwrap();
        resumed.append(&event(1));
        resumed.append(&barrier(2));
        resumed.finish().unwrap();
        let again = recover(&dir).unwrap();
        assert_eq!(again.state.next_cycle, 2);
        assert!(!again.discarded_tail);
    }

    #[test]
    fn outcome_so_far_accounts_for_pending_and_parked() {
        use slotsel_core::money::Money;
        use slotsel_core::node::Volume;
        use slotsel_core::request::ResourceRequest;
        let job = |id: u32| {
            Job::new(
                JobId(id),
                1,
                ResourceRequest::builder()
                    .node_count(1)
                    .volume(Volume::new(100))
                    .budget(Money::from_units(1_000))
                    .build()
                    .unwrap(),
            )
        };
        let mut state = RollingState::initial(vec![job(1)]);
        state.parked.push(ParkedEntry {
            job: job(2),
            eligible_at: 3,
        });
        state.completions.push((JobId(0), 0));
        let outcome = outcome_so_far(&state);
        assert_eq!(outcome.starved, vec![JobId(1), JobId(2)]);
        assert_eq!(outcome.completions, vec![(JobId(0), 0)]);
    }
}
