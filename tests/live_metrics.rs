//! End-to-end test of the live-metrics stack: a metered rolling-horizon
//! simulation populates a [`MetricsRegistry`], the exporter serves it over
//! HTTP on an ephemeral port, and a raw `TcpStream` scrape must come back
//! as valid Prometheus text exposition carrying counters, gauges and
//! histograms from every instrumented layer — while the metered run's
//! report stays bit-identical to the unmetered one.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use slotsel::core::{Job, JobId, Money, ResourceRequest, Volume};
use slotsel::env::{EnvironmentConfig, NodeGenConfig};
use slotsel::obs::{
    MemoryRecorder, MemorySpanSink, MetricsRegistry, MetricsServer, NoopJournal, NoopRecorder,
    NoopSpanSink, Probes, SpanId, TraceEvent,
};
use slotsel::sim::{
    simulate_with_recovery, simulate_with_recovery_probed, DisruptionConfig, RecoveryPolicy,
    RollingConfig,
};

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

fn config() -> RollingConfig {
    RollingConfig {
        env: EnvironmentConfig {
            nodes: NodeGenConfig::with_count(8),
            ..EnvironmentConfig::paper_default()
        },
        max_cycles: 12,
        disruption: Some(DisruptionConfig::adversarial(99)),
        recovery: RecoveryPolicy::RetryNextCycle {
            backoff: 0,
            max_attempts: 5,
        },
        ..RollingConfig::default()
    }
}

fn jobs() -> Vec<Job> {
    (0..6).map(|i| job(i, 1 + i % 3, 3, 200, 5_000)).collect()
}

/// Scrapes `path` from the server over a raw TCP connection and returns
/// `(status_line, headers, body)`.
fn scrape(addr: std::net::SocketAddr, path: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status.to_owned(), headers.to_owned(), body.to_owned())
}

/// The rolling layer's identity test: under every recovery policy, a run
/// with all three sinks live reports exactly what the plain run reports,
/// and each sink receives the events, metrics and spans of every layer.
#[test]
fn metered_simulation_is_bit_identical_to_plain() {
    for recovery in [
        RecoveryPolicy::Abandon,
        RecoveryPolicy::RetryNextCycle {
            backoff: 1,
            max_attempts: 3,
        },
        RecoveryPolicy::Migrate,
    ] {
        let config = RollingConfig {
            recovery,
            ..config()
        };
        let plain = simulate_with_recovery(&config, jobs());
        let mut recorder = MemoryRecorder::new();
        let registry = MetricsRegistry::new();
        let mut sink = MemorySpanSink::new();
        let probes = Probes::new(&mut recorder, &registry, &mut sink);
        let probed = simulate_with_recovery_probed(&config, jobs(), probes, &mut NoopJournal);
        assert_eq!(probed, plain, "probes must not alter scheduling");
        let cycles = plain.outcome.cycles.len() as u64;
        assert!(cycles > 0);

        // Recorder: one start/finish per cycle, the batch events
        // underneath, the replay audit and a timing per cycle. (Scans
        // below the batch layer report metrics and spans only.)
        let count = |pred: fn(&TraceEvent) -> bool| {
            recorder.events().iter().filter(|e| pred(e)).count() as u64
        };
        assert_eq!(
            count(|e| matches!(e, TraceEvent::CycleStarted { .. })),
            cycles
        );
        assert_eq!(
            count(|e| matches!(e, TraceEvent::CycleFinished { .. })),
            cycles
        );
        assert_eq!(
            count(|e| matches!(e, TraceEvent::BatchStarted { .. })),
            cycles
        );
        assert!(count(|e| matches!(e, TraceEvent::AlternativesFound { .. })) > 0);
        assert!(count(|e| matches!(e, TraceEvent::WindowAudited { .. })) > 0);
        assert_eq!(recorder.timer("rolling.cycle").unwrap().count(), cycles);

        // Metrics: per-cycle counters of the rolling and batch layers and
        // the survival tallies at run end.
        assert_eq!(
            registry.counter_value("slotsel_rolling_cycles_total", &[]),
            cycles
        );
        assert_eq!(registry.counter_value("slotsel_batch_total", &[]), cycles);
        assert!(registry.counter_value("slotsel_scan_total", &[("policy", "AMP")]) > 0);
        assert_eq!(
            registry.counter_value("slotsel_rolling_jobs_completed_total", &[]),
            plain.outcome.completions.len() as u64
        );
        assert_eq!(
            registry.counter_value("slotsel_windows_disrupted_total", &[]),
            plain.survival.windows_disrupted
        );
        let cycle_seconds = registry.histogram("slotsel_rolling_cycle_seconds", &[]);
        assert_eq!(cycle_seconds.expect("cycle histogram").count(), cycles);

        // Spans: one root per cycle, and the disruption-phase spans each
        // nest inside some cycle.
        let records = sink.take_records();
        let roots: Vec<_> = records
            .iter()
            .filter(|r| r.name == "rolling.cycle")
            .collect();
        assert_eq!(roots.len() as u64, cycles);
        assert!(
            roots.iter().all(|r| r.parent == SpanId::NONE),
            "cycles are roots"
        );
        for phase in [
            "batch.schedule",
            "rolling.disruption",
            "recovery.detect",
            "rolling.audit",
        ] {
            let child = records
                .iter()
                .find(|r| r.name == phase)
                .unwrap_or_else(|| panic!("missing {phase}"));
            assert!(
                roots.iter().any(|c| c.id == child.parent
                    && child.start_us >= c.start_us
                    && child.end_us <= c.end_us),
                "{phase} must nest inside its cycle"
            );
        }
    }
}

#[test]
fn exporter_serves_a_scrapeable_prometheus_endpoint() {
    let registry = Arc::new(MetricsRegistry::new());
    let probes = Probes::new(NoopRecorder, registry.as_ref(), NoopSpanSink);
    let report = simulate_with_recovery_probed(&config(), jobs(), probes, &mut NoopJournal);
    assert!(!report.outcome.cycles.is_empty());

    let server =
        MetricsServer::start("127.0.0.1:0", Arc::clone(&registry)).expect("bind ephemeral port");
    let addr = server.addr();

    // /healthz responds 200 with a body.
    let (status, _, body) = scrape(addr, "/healthz");
    assert!(status.contains("200"), "healthz status: {status}");
    assert_eq!(body, "ok\n");

    // Unknown paths respond 404.
    let (status, _, _) = scrape(addr, "/nope");
    assert!(status.contains("404"), "unknown path status: {status}");

    // /metrics responds 200 with versioned Prometheus text.
    let (status, headers, body) = scrape(addr, "/metrics");
    assert!(status.contains("200"), "metrics status: {status}");
    assert!(
        headers.contains("text/plain; version=0.0.4"),
        "exposition content type missing: {headers}"
    );

    // Parse the exposition: every series line must be `name{labels} value`
    // with a preceding `# TYPE` for its family.
    let mut types: BTreeMap<&str, &str> = BTreeMap::new();
    for line in body.lines().filter(|l| l.starts_with("# TYPE ")) {
        let mut parts = line.split_whitespace().skip(2);
        let name = parts.next().expect("type line has a name");
        let kind = parts.next().expect("type line has a kind");
        types.insert(name, kind);
    }
    for line in body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let name_end = line.find(['{', ' ']).expect("series name");
        let name = &line[..name_end];
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| types.contains_key(f))
            .unwrap_or(name);
        assert!(types.contains_key(family), "untyped series {name}");
        let value = line.rsplit(' ').next().expect("series value");
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "-Inf" || value == "NaN",
            "unparseable sample value {value:?} in {line:?}"
        );
    }

    // At least one counter, gauge and histogram from the traced rolling
    // simulation made it through every layer.
    assert_eq!(
        types.get("slotsel_rolling_cycles_total"),
        Some(&"counter"),
        "sim-layer counter missing: {types:?}"
    );
    assert_eq!(
        types.get("slotsel_scan_total"),
        Some(&"counter"),
        "core-layer counter missing"
    );
    assert_eq!(
        types.get("slotsel_batch_total"),
        Some(&"counter"),
        "batch-layer counter missing"
    );
    assert_eq!(
        types.get("slotsel_survival_rate"),
        Some(&"gauge"),
        "gauge missing"
    );
    assert_eq!(
        types.get("slotsel_rolling_cycle_seconds"),
        Some(&"histogram"),
        "histogram missing"
    );

    // The histogram family renders cumulative buckets ending at +Inf, and
    // its _count matches the number of executed cycles.
    assert!(
        body.contains("slotsel_rolling_cycle_seconds_bucket{le=\"+Inf\"}"),
        "missing +Inf bucket"
    );
    let count_line = body
        .lines()
        .find(|l| l.starts_with("slotsel_rolling_cycle_seconds_count"))
        .expect("histogram count line");
    let cycles: f64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert_eq!(cycles as usize, report.outcome.cycles.len());

    server.stop();
}
