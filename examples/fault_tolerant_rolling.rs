//! Fault-tolerant rolling horizon: the same disrupted workload run under
//! each recovery policy, with their survival rates side by side.
//!
//! Between commit and execution, a seeded disruption model revokes slots
//! under committed windows, fails and restores nodes, and degrades node
//! performance. The policies differ in what happens to the victims:
//! `Abandon` drops them, `RetryNextCycle` re-enqueues them with priority
//! aging, `Migrate` re-runs the AEP search over the surviving slots in the
//! same cycle.
//!
//! Each policy's run is also recorded as a deterministic JSONL trace
//! under `target/traces/`, ready for the aggregation tool:
//!
//! ```text
//! cargo run --example fault_tolerant_rolling
//! cargo run --release -p slotsel-bench --bin trace-report -- \
//!     target/traces/fault_tolerant_rolling_migrate.jsonl
//! ```

use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;

use slotsel::core::{Job, JobId, Money, RequestError, ResourceRequest, Volume};
use slotsel::env::{EnvironmentConfig, NodeGenConfig};
use slotsel::obs::{NoopJournal, NoopMetrics, NoopSpanSink, Probes, TraceRecorder};
use slotsel::sim::disruption::DisruptionConfig;
use slotsel::sim::recovery::RecoveryPolicy;
use slotsel::sim::rolling::{simulate_with_recovery_probed, RollingConfig, RollingReport};

fn workload() -> Result<Vec<Job>, RequestError> {
    (0..10)
        .map(|i| {
            Ok(Job::new(
                JobId(i),
                1 + i % 4,
                ResourceRequest::builder()
                    .node_count(3)
                    .volume(Volume::new(200))
                    .budget(Money::from_units(5_000))
                    .build()?,
            ))
        })
        .collect()
}

/// Runs one policy while recording a deterministic (timing-free) JSONL
/// trace to `trace_path`; the same seed and config always produce the
/// same bytes.
fn run(policy: RecoveryPolicy, trace_path: &PathBuf) -> Result<RollingReport, RequestError> {
    let config = RollingConfig {
        env: EnvironmentConfig {
            nodes: NodeGenConfig::with_count(8),
            ..EnvironmentConfig::paper_default()
        },
        max_cycles: 30,
        disruption: Some(DisruptionConfig::adversarial(99)),
        recovery: policy,
        ..RollingConfig::default()
    };
    let sink = BufWriter::new(File::create(trace_path).expect("create trace file"));
    let mut recorder = TraceRecorder::deterministic(sink);
    let probes = Probes::new(&mut recorder, NoopMetrics, NoopSpanSink);
    let report = simulate_with_recovery_probed(&config, workload()?, probes, &mut NoopJournal);
    recorder.finish().expect("flush trace file");
    Ok(report)
}

fn main() -> Result<(), RequestError> {
    let policies = [
        ("Abandon", RecoveryPolicy::Abandon),
        (
            "RetryNextCycle",
            RecoveryPolicy::RetryNextCycle {
                backoff: 0,
                max_attempts: 5,
            },
        ),
        ("Migrate", RecoveryPolicy::Migrate),
    ];

    println!(
        "10 jobs, 8-node platform, adversarial disruptions (same seed for \
         every policy):\n"
    );
    println!(
        "{:<16} {:>9} {:>9} {:>8} {:>8} {:>6} {:>10}",
        "policy", "completed", "disrupted", "rescued", "lost", "audit", "survival"
    );

    let trace_dir = PathBuf::from("target/traces");
    std::fs::create_dir_all(&trace_dir).expect("create target/traces");

    let mut completed = Vec::new();
    let mut traces = Vec::new();
    for (name, policy) in policies {
        let trace_path = trace_dir.join(format!(
            "fault_tolerant_rolling_{}.jsonl",
            name.to_lowercase()
        ));
        let report = run(policy, &trace_path)?;
        traces.push(trace_path);
        let s = &report.survival;
        println!(
            "{:<16} {:>9} {:>9} {:>8} {:>8} {:>6} {:>9.0}%",
            name,
            report.outcome.completions.len(),
            s.windows_disrupted,
            s.rescued(),
            s.jobs_lost,
            s.audit_failures,
            100.0 * s.survival_rate(),
        );
        completed.push((name, report.outcome.completions.len(), s.rescued()));
    }

    let abandon = completed[0].1;
    println!();
    for &(name, done, rescued) in &completed[1..] {
        if done > abandon {
            println!(
                "{name} completed {} more job(s) than Abandon by rescuing {rescued} victim(s).",
                done - abandon
            );
        } else {
            println!("{name} did not beat Abandon on this seed — try another.");
        }
    }
    println!(
        "\nEvery completed schedule re-passed the execution replay audit \
         against the perturbed environment (audit column is failures)."
    );
    println!("\nPer-policy JSONL traces written; aggregate one with e.g.");
    println!(
        "  cargo run --release -p slotsel-bench --bin trace-report -- {}",
        traces.last().expect("three traces written").display()
    );
    Ok(())
}
