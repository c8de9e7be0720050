//! Crash-at-any-event sweeps over journaled rolling runs.
//!
//! The durability contract (docs/DURABILITY.md) promises that killing a
//! journaled rolling simulation after *any* appended record and recovering
//! from the surviving prefix reproduces the uninterrupted run bit for bit.
//! This module turns that promise into a fuzzable property:
//!
//! - [`crash_case`] derives a disruption-heavy rolling scenario from a
//!   [`ScenarioGen`] case — the generator's platform sizing and disruption
//!   schedules are reused, but a schedule is always present (a crash sweep
//!   over an undisrupted run exercises almost no recovery records);
//! - [`check_crash_case`] runs the uninterrupted reference with a
//!   recording journal, then for each crash point `k` replays the first
//!   `k` records, resumes, and cross-checks both the resumed report and
//!   the continued record stream against the reference.
//!
//! Failures carry the full reference record stream so campaign drivers can
//! persist the journal that broke recovery as a replayable artifact.

use slotsel_core::money::Money;
use slotsel_core::node::Volume;
use slotsel_core::request::{Job, JobId, ResourceRequest};
use slotsel_env::{EnvironmentConfig, NodeGenConfig};
use slotsel_obs::Probes;
use slotsel_sim::disruption::DisruptionConfig;
use slotsel_sim::journal::{replay, RecordingJournal};
use slotsel_sim::recovery::RecoveryPolicy;
use slotsel_sim::rolling::{resume_with_recovery, simulate_with_recovery_probed, RollingConfig};

use crate::rng::SplitMix64;
use crate::scenario::ScenarioGen;

/// Stream separator for the crash-specific RNG draws, so crash cases stay
/// independent of the differential checks run on the same case seed.
const CRASH_STREAM: u64 = 0xC4A5_11FE_ED5E_ED00;

/// One generated crash scenario: a disruption-heavy rolling configuration
/// plus the job batch it schedules.
#[derive(Debug, Clone)]
pub struct CrashCase {
    /// Case index within the campaign.
    pub index: u64,
    /// The derived per-case seed (determines everything below).
    pub seed: u64,
    /// Rolling-simulation configuration; `disruption` is always `Some`.
    pub config: RollingConfig,
    /// The job batch fed to every run of this case.
    pub jobs: Vec<Job>,
}

/// One violated crash point.
#[derive(Debug, Clone)]
pub struct CrashFailure {
    /// Case index within the campaign.
    pub index: u64,
    /// The per-case seed (replays the case exactly).
    pub seed: u64,
    /// Records surviving the simulated crash.
    pub k: usize,
    /// What diverged.
    pub detail: String,
    /// The uninterrupted reference record stream — the journal to persist
    /// as a replayable artifact.
    pub records: Vec<String>,
}

/// Derives crash case `index` from the generator's scenario stream.
/// Deterministic: the same `(campaign seed, tier, index)` always produces
/// the same case, and always carries a disruption schedule.
#[must_use]
pub fn crash_case(gen: &ScenarioGen, index: u64) -> CrashCase {
    let case = gen.case(index);
    let mut rng = SplitMix64::new(case.seed ^ CRASH_STREAM);

    let disruption = case.disruption.clone().unwrap_or_else(|| {
        let seed = case.seed ^ 0x0D15_FAC7;
        if rng.percent(50) {
            DisruptionConfig::adversarial(seed)
        } else {
            DisruptionConfig::moderate(seed)
        }
    });
    // Retry is weighted up: it alone emits Rescued/Parked/Readmitted
    // records, the richest part of the journal grammar.
    let recovery = match rng.below(4) {
        0 => RecoveryPolicy::Abandon,
        3 => RecoveryPolicy::Migrate,
        _ => RecoveryPolicy::RetryNextCycle {
            backoff: rng.range_i64(0, 2) as u32,
            max_attempts: rng.range_i64(1, 4) as u32,
        },
    };
    let config = RollingConfig {
        env: EnvironmentConfig {
            nodes: NodeGenConfig::with_count(case.scenario.platform.len().clamp(4, 16)),
            ..EnvironmentConfig::paper_default()
        },
        max_cycles: rng.range_i64(6, 14) as u32,
        seed: case.seed,
        disruption: Some(disruption),
        recovery,
        ..RollingConfig::default()
    };

    let jobs = (0..rng.range_i64(2, 7) as u32)
        .map(|i| {
            Job::new(
                JobId(i),
                1 + (rng.below(3) as u32),
                ResourceRequest::builder()
                    .node_count(rng.range_i64(2, 4) as usize)
                    .volume(Volume::new(rng.range_i64(100, 400) as u64))
                    .budget(Money::from_units(5_000))
                    .build()
                    .expect("generated crash job is valid"),
            )
        })
        .collect();

    CrashCase {
        index: case.index,
        seed: case.seed,
        config,
        jobs,
    }
}

/// How many leading records fit inside `resume_len` bytes of framed
/// journal (CRC word + space + payload + newline per line).
fn records_within(records: &[String], resume_len: u64) -> usize {
    let mut offset = 0u64;
    for (index, record) in records.iter().enumerate() {
        offset += record.len() as u64 + 10;
        if offset > resume_len {
            return index;
        }
    }
    records.len()
}

/// Sweeps crash points over one case: runs the uninterrupted reference,
/// then for every `stride`-th prefix length `k` (the full stream is always
/// included) recovers and resumes, collecting every divergence from the
/// reference report. An empty result means the crash property held.
#[must_use]
pub fn check_crash_case(case: &CrashCase, stride: usize) -> Vec<CrashFailure> {
    let mut journal = RecordingJournal::new();
    let report = simulate_with_recovery_probed(
        &case.config,
        case.jobs.clone(),
        Probes::none(),
        &mut journal,
    );
    let records = journal.into_records();

    let mut failures = Vec::new();
    let mut fail = |k: usize, detail: String| {
        failures.push(CrashFailure {
            index: case.index,
            seed: case.seed,
            k,
            detail,
            records: records.clone(),
        });
    };

    let stride = stride.max(1);
    let crash_points = (1..=records.len())
        .step_by(stride)
        .chain(std::iter::once(records.len()));
    let mut last = 0usize;
    for k in crash_points {
        if k == last {
            continue;
        }
        last = k;
        let run = match replay(&records[..k]) {
            Ok(run) => run,
            Err(error) => {
                fail(
                    k,
                    format!("prefix of {k} records failed to replay: {error}"),
                );
                continue;
            }
        };
        let trusted = records_within(&records[..k], run.resume_len);
        let mut resumed_journal = RecordingJournal::new();
        let resumed = resume_with_recovery(run, Probes::none(), &mut resumed_journal);
        if resumed != report {
            fail(
                k,
                format!(
                    "recovered report diverges: resumed {} completions / {} lost, \
                     reference {} completions / {} lost",
                    resumed.outcome.completions.len(),
                    resumed.survival.jobs_lost,
                    report.outcome.completions.len(),
                    report.survival.jobs_lost,
                ),
            );
            continue;
        }
        // The continued stream (trusted prefix + post-resume records) must
        // itself replay to the same finished run.
        let mut continued: Vec<String> = records[..trusted].to_vec();
        continued.extend(resumed_journal.into_records());
        match replay(&continued) {
            Ok(healed) if healed.finished.as_ref() == Some(&report) => {}
            Ok(_) => fail(k, "continued stream replays to a different run".to_owned()),
            Err(error) => fail(k, format!("continued stream failed to replay: {error}")),
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SizeTier;

    #[test]
    fn crash_cases_are_deterministic_and_disruption_heavy() {
        let gen = ScenarioGen::new(5, SizeTier::Tiny);
        for index in 0..8 {
            let a = crash_case(&gen, index);
            let b = crash_case(&gen, index);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.config, b.config);
            assert_eq!(a.jobs, b.jobs);
            assert!(a.config.disruption.is_some(), "case {index} undisrupted");
            assert!(!a.jobs.is_empty());
        }
    }

    #[test]
    fn healthy_code_survives_a_crash_sweep() {
        let gen = ScenarioGen::new(11, SizeTier::Tiny);
        for index in 0..3 {
            let case = crash_case(&gen, index);
            let failures = check_crash_case(&case, 7);
            assert!(
                failures.is_empty(),
                "case {index} (seed {:#018x}): {}",
                case.seed,
                failures[0].detail
            );
        }
    }
}
