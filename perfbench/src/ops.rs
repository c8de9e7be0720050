//! The timed calls every workload makes. Traced, each is wrapped in a
//! benchmark span, so the program's own spans nest under it.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use slotsel_core::request::JobId;
use slotsel_obs::metrics::NoopMetrics;
use slotsel_obs::{MemorySpanSink, NoopJournal, SpanSink};
use slotsel_sim::journal::journal_path;
use slotsel_sim::serve::{
    recover_live, CycleOutcome, JobEntry, JobPhase, LiveRecord, LiveService, Submission,
};
use slotsel_sim::Parallelism;

use crate::host;
use crate::stats::{fastest_three, ms_since};
use crate::trace::Report;

/// Samples of one unit's pass over a workload's op sequence: one
/// generated platform in-process, one daemon session over HTTP.
#[derive(Default)]
pub struct Samples {
    pub cycle_ms: Vec<f64>,
    /// What a tenant waits on for a submit: `LiveService::submit`
    /// in-process, `POST /submit` over HTTP.
    pub ack_ms: Vec<f64>,
    pub poll_ms: Vec<f64>,
    pub recover_ms: Vec<f64>,
    pub allocs_per_cycle: Vec<f64>,
    /// Σ budget (credits) of the queued jobs per shard entering a cycle.
    pub width: Vec<f64>,
}

impl Samples {
    /// Every sample of `units`, pooled.
    pub fn pooled(units: &[Samples]) -> Samples {
        let pool = |op: fn(&Samples) -> &Vec<f64>| -> Vec<f64> {
            units
                .iter()
                .flat_map(|unit| op(unit).iter().copied())
                .collect()
        };
        Samples {
            cycle_ms: pool(|unit| &unit.cycle_ms),
            ack_ms: pool(|unit| &unit.ack_ms),
            poll_ms: pool(|unit| &unit.poll_ms),
            recover_ms: pool(|unit| &unit.recover_ms),
            allocs_per_cycle: pool(|unit| &unit.allocs_per_cycle),
            width: pool(|unit| &unit.width),
        }
    }
}

/// The central time of op `op` over a run's units (`stats::fastest_three`).
pub fn steady(units: &[Samples], op: fn(&Samples) -> &Vec<f64>) -> f64 {
    fastest_three(units.iter().map(|unit| op(unit).as_slice()))
}

/// Runs `f` and returns its wall time in ms; traced, inside a span
/// opened before the clock starts and closed after it stops.
pub fn timed<R>(
    sink: Option<&mut MemorySpanSink>,
    name: &'static str,
    f: impl FnOnce(Option<&mut MemorySpanSink>) -> R,
) -> (f64, R) {
    match sink {
        Some(sink) => {
            let span = sink.open(name);
            let start = Instant::now();
            let result = f(Some(&mut *sink));
            let elapsed = ms_since(start);
            sink.close(span);
            (elapsed, result)
        }
        None => {
            let start = Instant::now();
            let result = f(None);
            (ms_since(start), result)
        }
    }
}

/// One `submit`, timed as an ack; returns the admitted entry.
pub fn submit(
    service: &mut LiveService,
    submission: &Submission,
    samples: &mut Samples,
    report: &mut Report,
    sink: Option<&mut MemorySpanSink>,
) -> Option<JobEntry> {
    let (elapsed, admitted) = timed(sink, "bench.submit", |_| service.submit(submission));
    samples.ack_ms.push(elapsed);
    report.op(admitted.is_ok());
    report.check(admitted.is_ok(), || format!("submit refused: {admitted:?}"));
    admitted.ok()
}

/// A block of job lookups, each rendered as JSON the way a read API
/// would, timed together: one sample is the block's time per lookup, long
/// enough to sit well above timer and cache noise.
pub fn poll(
    service: &LiveService,
    targets: &[JobId],
    samples: &mut Samples,
    report: &mut Report,
    sink: Option<&mut MemorySpanSink>,
) {
    let (elapsed, found) = timed(sink, "bench.poll", |_| {
        targets
            .iter()
            .map(|&target| {
                service
                    .job(target)
                    .map(|entry| black_box(serde_json::to_string(entry)))
                    .is_some()
            })
            .collect::<Vec<_>>()
    });
    samples.poll_ms.push(elapsed / targets.len() as f64);
    for found in found {
        report.op(found);
    }
}

/// One cycle, untraced through `run_cycle` and traced
/// through `run_cycle_spanned`, with its allocations and the DP width it
/// faces.
pub fn cycle(
    service: &mut LiveService,
    parallelism: Parallelism,
    samples: &mut Samples,
    report: &mut Report,
    sink: Option<&mut MemorySpanSink>,
) -> CycleOutcome {
    for shard in 0..service.config().shards {
        let width: f64 = service
            .jobs()
            .iter()
            .filter(|job| job.shard == shard && matches!(job.phase, JobPhase::Queued))
            .map(|job| job.request.budget().as_f64())
            .sum();
        if width > 0.0 {
            samples.width.push(width);
        }
    }
    let allocs = host::allocations();
    let (elapsed, outcome) = timed(sink, "bench.cycle", |sink| match sink {
        Some(sink) => service.run_cycle_spanned(parallelism, &NoopMetrics, &mut NoopJournal, sink),
        None => service.run_cycle(parallelism),
    });
    samples.cycle_ms.push(elapsed);
    samples
        .allocs_per_cycle
        .push((host::allocations() - allocs) as f64);
    report.op(true);
    outcome
}

/// One restart from a journal, checked against the service as it was at
/// the crash; returns the recovered service. Traced, it also times
/// `read_journal` and `LiveRecord::decode` on their own so recovery splits
/// into read, decode and replay.
pub fn recover(
    dir: &Path,
    expected: &LiveService,
    samples: &mut Samples,
    report: &mut Report,
    sink: Option<&mut MemorySpanSink>,
) -> Option<LiveService> {
    let (_, (elapsed, recovered)) = timed(sink, "bench.recover", |mut sink| {
        if let Some(sink) = sink.as_deref_mut() {
            let (_, tail) = timed(Some(&mut *sink), "bench.read_journal", |_| {
                slotsel_obs::read_journal(&journal_path(dir))
            });
            let (_, decoded) = timed(Some(sink), "bench.decode", |_| {
                tail.map(|tail| {
                    tail.records
                        .iter()
                        .all(|line| LiveRecord::decode(line).is_ok())
                })
            });
            report.check(matches!(decoded, Ok(true)), || {
                format!("{} does not decode", dir.display())
            });
        }
        timed(sink, "bench.recover_live", |_| recover_live(dir))
    });
    samples.recover_ms.push(elapsed);
    report.op(recovered.is_ok());
    match recovered {
        Ok(recovered) => {
            report.check(recovered.service == *expected, || {
                "recovered service differs from the pre-crash service".to_owned()
            });
            Some(recovered.service)
        }
        Err(error) => {
            report.check(false, || format!("recover_live failed: {error}"));
            None
        }
    }
}
