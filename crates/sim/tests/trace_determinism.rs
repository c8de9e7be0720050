//! End-to-end properties of the JSONL trace a fault-injected rolling
//! simulation emits: determinism (same seed + same config ⇒ byte-identical
//! trace) and schema round-tripping (every emitted line decodes back to
//! the event that produced it).

use slotsel_core::money::Money;
use slotsel_core::node::Volume;
use slotsel_core::request::{Job, JobId, ResourceRequest};
use slotsel_env::{EnvironmentConfig, NodeGenConfig};
use slotsel_obs::{
    read_trace, MemoryRecorder, NoopJournal, NoopMetrics, NoopSpanSink, Probes, Recorder,
    TraceEvent, TraceRecorder,
};
use slotsel_sim::rolling::{simulate_with_recovery_probed, RollingConfig, RollingReport};
use slotsel_sim::{DisruptionConfig, RecoveryPolicy};

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

fn jobs() -> Vec<Job> {
    (0..6).map(|i| job(i, 1, 3, 200, 5_000)).collect()
}

fn disrupted_config(recovery: RecoveryPolicy) -> RollingConfig {
    RollingConfig {
        env: EnvironmentConfig {
            nodes: NodeGenConfig::with_count(8),
            ..EnvironmentConfig::paper_default()
        },
        max_cycles: 30,
        disruption: Some(DisruptionConfig::adversarial(99)),
        recovery,
        ..RollingConfig::default()
    }
}

/// Runs the simulation with only `recorder` attached.
fn simulate_traced<R: Recorder>(config: &RollingConfig, recorder: R) -> RollingReport {
    let probes = Probes::new(recorder, NoopMetrics, NoopSpanSink);
    simulate_with_recovery_probed(config, jobs(), probes, &mut NoopJournal)
}

/// Runs the simulation into a deterministic (timing-free) JSONL sink and
/// returns the raw bytes.
fn trace_bytes(config: &RollingConfig) -> Vec<u8> {
    let mut recorder = TraceRecorder::deterministic(Vec::new());
    let _ = simulate_traced(config, &mut recorder);
    recorder.finish().expect("writing to a Vec cannot fail")
}

#[test]
fn same_seed_and_config_yield_byte_identical_traces() {
    for policy in [
        RecoveryPolicy::Abandon,
        RecoveryPolicy::RetryNextCycle {
            backoff: 0,
            max_attempts: 5,
        },
        RecoveryPolicy::Migrate,
    ] {
        let config = disrupted_config(policy);
        let a = trace_bytes(&config);
        let b = trace_bytes(&config);
        assert!(!a.is_empty(), "a disrupted run must emit events");
        assert_eq!(a, b, "trace must be a pure function of (config, jobs)");
    }
}

#[test]
fn different_disruption_seeds_yield_different_traces() {
    let base = disrupted_config(RecoveryPolicy::Migrate);
    let mut other = base.clone();
    other.disruption = Some(DisruptionConfig::adversarial(100));
    assert_ne!(trace_bytes(&base), trace_bytes(&other));
}

#[test]
fn every_emitted_event_round_trips_through_jsonl() {
    let config = disrupted_config(RecoveryPolicy::RetryNextCycle {
        backoff: 1,
        max_attempts: 3,
    });

    // The in-memory recorder sees the events as Rust values…
    let mut memory = MemoryRecorder::new();
    let _ = simulate_traced(&config, &mut memory);

    // …the JSONL recorder sees them as serialized lines. Decoding the
    // lines must reproduce the values exactly (timings excluded: the
    // deterministic sink drops them and MemoryRecorder aggregates them
    // outside its event list).
    let bytes = trace_bytes(&config);
    let decoded = read_trace(bytes.as_slice()).expect("every line decodes");
    assert_eq!(decoded, memory.events());
    assert!(
        decoded
            .iter()
            .all(|e| !matches!(e, TraceEvent::Timing { .. })),
        "deterministic sink must drop wall-clock timings"
    );
}

#[test]
fn trace_is_consistent_with_the_survival_report() {
    let config = disrupted_config(RecoveryPolicy::Migrate);
    let mut memory = MemoryRecorder::new();
    let report = simulate_traced(&config, &mut memory);

    let count = |pred: &dyn Fn(&&TraceEvent) -> bool| -> u64 {
        memory.events().iter().filter(pred).count() as u64
    };
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::JobRescued { via, .. } if via == "migrate")),
        report.survival.rescued_by_migration,
    );
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::JobLost { .. })),
        report.survival.jobs_lost,
    );
    assert_eq!(
        count(&|e| matches!(
            e,
            TraceEvent::WindowAudited {
                survived: false,
                ..
            }
        )),
        report.survival.windows_disrupted,
    );
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::SlotRevoked { .. })),
        report.survival.revocations,
    );
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::CycleStarted { .. })),
        report.outcome.cycles.len() as u64,
    );
}
