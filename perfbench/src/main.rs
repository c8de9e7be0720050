//! End-to-end benchmark of the live scheduling service.
//!
//! ```text
//! slotsel-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                   --out-dir DIR [--daemon PATH]
//! ```
//!
//! `--daemon` is the `slotsel` binary the `http` workload serves from.
//!
//! Each workload is a fixed op sequence generated from `--seed`; its
//! length is a fixed multiple of `--seconds`, never a wall-clock
//! deadline, so a faster build does the same work. `--trace 0` prints the
//! end-to-end metrics, `--trace 1` the per-layer breakdown of a separate
//! traced pass. The last stdout line is the result object; see
//! `README.md` for every metric.

mod host;
mod http;
mod inproc;
mod ops;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use serde::Value;
use trace::{Report, Rollup};

/// Every workload, by name: the in-process ones, then the daemon's.
const WORKLOADS: [&str; 2] = ["backlog", "http"];

#[global_allocator]
static GLOBAL_ALLOC: host::CountingAlloc = host::CountingAlloc;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where traces are written; journals go to a per-run subdirectory.
    pub out_dir: PathBuf,
    pub work_dir: PathBuf,
    /// The `slotsel` binary, for the `http` workload.
    pub daemon: Option<PathBuf>,
    /// Set in the child process that runs one platform of an in-process
    /// timing run.
    pub platform: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        raw.iter()
            .position(|arg| arg == name)
            .and_then(|at| raw.get(at + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let number = |name: &str| -> Result<u64, String> {
        flag(name)?.parse().map_err(|e| format!("{name}: {e}"))
    };
    let workload = flag("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let out_dir = PathBuf::from(flag("--out-dir")?);
    let seed = number("--seed")?;
    Ok(Args {
        work_dir: out_dir.join(format!("work-{workload}-{seed}-{}", std::process::id())),
        workload,
        seed,
        seconds: number("--seconds")?.max(1),
        trace: number("--trace")? == 1,
        out_dir,
        daemon: flag("--daemon").ok().map(PathBuf::from),
        platform: match flag("--platform") {
            Ok(_) => Some(number("--platform")? as usize),
            Err(_) => None,
        },
    })
}

/// What the per-layer metrics are computed from, besides the span rollup.
pub struct LayerInputs {
    pub untraced_cycle_p50: f64,
    pub traced_cycle_p50: f64,
    pub submit_us_p50: f64,
    pub allocs_per_cycle: f64,
    /// Mean Σ budget (credits, the DP's width unit) per shard batch.
    pub width: f64,
    pub barrier_kb: f64,
    /// Server-side mean of `POST /submit` and `GET /job/{id}` (0 for the
    /// in-process workload, which makes no HTTP request).
    pub http_submit_server_ms: f64,
    pub http_job_server_ms: f64,
}

/// Emits every end-to-end metric from a run's units (`ops::steady`):
/// the set-up median, the central time of each timed op, the exact
/// `(wait, cost)` quality pair, and peak RSS. The pooled p90 tails go to
/// the diagnostics: on a shared host they spread between runs of the same
/// code by as much as any useful bound.
pub fn end_to_end(
    report: &mut Report,
    setup_s: &[f64],
    units: &[ops::Samples],
    (wait, cost): (f64, f64),
    peak_rss_mb: f64,
) {
    use ops::steady;
    report.metric("setup_s", stats::median(setup_s), "s");
    report.metric("cycle_ms_p50", steady(units, |unit| &unit.cycle_ms), "ms");
    report.metric("ack_ms_p50", steady(units, |unit| &unit.ack_ms), "ms");
    report.metric("poll_ms_p50", steady(units, |unit| &unit.poll_ms), "ms");
    report.metric(
        "recover_ms_p50",
        steady(units, |unit| &unit.recover_ms),
        "ms",
    );
    report.metric("wait_cycles_mean", wait, "cycles");
    report.metric("cost_per_work", cost, "credits/work");
    report.metric("peak_rss_mb", peak_rss_mb, "MiB");

    let pooled = ops::Samples::pooled(units);
    for (name, samples) in [
        ("cycle_ms_p90", &pooled.cycle_ms),
        ("ack_ms_p90", &pooled.ack_ms),
        ("poll_ms_p90", &pooled.poll_ms),
    ] {
        report.diagnostic(name, stats::percentile(samples, 0.9));
    }
}

/// The named layers a cycle's time is attributed to, by self time.
const CYCLE_LAYERS: [(&str, &str); 10] = [
    ("core.aep.scan_ms", "aep.scan"),
    ("core.csa.search_ms", "csa.search"),
    ("batch.phase1_ms", "batch.phase1"),
    ("batch.phase2_ms", "batch.phase2"),
    ("batch.commit_ms", "batch.commit"),
    ("sim.serve.cycle_self_ms", "serve.cycle"),
    ("sim.serve.formation_ms", "serve.batch_formation"),
    ("sim.serve.commit_ms", "serve.commit"),
    ("sim.serve.advance_ms", "serve.advance"),
    ("sim.serve.retire_ms", "serve.retire"),
];

/// Self time the named layers may leave unattributed (the `serve.shard`
/// and `batch.schedule` wrappers plus microsecond rounding), as a share
/// of traced cycle time.
const UNATTRIBUTED_TOLERANCE_PCT: f64 = 5.0;

/// Emits every per-layer metric from a traced pass.
pub fn layers(report: &mut Report, rollup: &Rollup, inputs: &LayerInputs) {
    let cycles = rollup.count("serve.cycle").max(1) as f64;
    let per = |count: u64| count.max(1) as f64;
    for (metric, span) in CYCLE_LAYERS {
        report.metric(metric, rollup.self_ms(span) / cycles, "ms");
    }
    let scans = per(rollup.count("aep.scan"));
    report.metric(
        "core.aep.slots_examined",
        (rollup.attr("aep.scan", "slots_admitted") + rollup.attr("aep.scan", "slots_rejected"))
            as f64
            / scans,
        "count",
    );
    report.metric(
        "core.aep.subtrees_skipped",
        rollup.attr("aep.scan", "subtrees_skipped") as f64 / scans,
        "count",
    );
    report.metric(
        "core.csa.alternatives",
        rollup.attr("csa.search", "alternatives") as f64 / per(rollup.count("csa.search")),
        "count",
    );
    report.metric(
        "batch.mckp.classes",
        rollup.attr("batch.phase2", "classes") as f64 / cycles,
        "count",
    );
    report.metric(
        "batch.mckp.items",
        rollup.attr("batch.phase2", "items") as f64 / cycles,
        "count",
    );
    report.metric("batch.mckp.width", inputs.width, "credits");
    report.metric("sim.serve.submit_us_p50", inputs.submit_us_p50, "us");

    let recoveries = per(rollup.count("bench.recover_live"));
    let read = rollup.total_ms("bench.read_journal") / recoveries;
    let decode = rollup.total_ms("bench.decode") / recoveries;
    report.metric("sim.serve.decode_ms", decode, "ms");
    report.metric(
        "sim.serve.replay_ms",
        rollup.total_ms("bench.recover_live") / recoveries - read - decode,
        "ms",
    );
    report.metric(
        "sim.serve.allocs_per_cycle",
        inputs.allocs_per_cycle,
        "count",
    );
    let skew = if rollup.shard_skew.is_empty() {
        1.0
    } else {
        stats::mean(&rollup.shard_skew)
    };
    report.metric("sim.parallel.shard_skew", skew, "ratio");
    report.metric("obs.journal.barrier_kb", inputs.barrier_kb, "KiB");
    report.metric("obs.journal.read_ms", read, "ms");
    report.metric(
        "obs.http.submit_server_ms",
        inputs.http_submit_server_ms,
        "ms",
    );
    report.metric("obs.http.job_server_ms", inputs.http_job_server_ms, "ms");
    report.metric(
        "obs.span.overhead_pct",
        (inputs.traced_cycle_p50 / inputs.untraced_cycle_p50 - 1.0) * 100.0,
        "%",
    );

    // Every cycle's time is attributed: the named layers' self times sum
    // to the traced cycle time (plus the time parallel shard workers
    // overlapped) within the tolerance.
    let cycle_ms = rollup.total_ms("serve.cycle") + rollup.shard_overlap_ms();
    let named: f64 = CYCLE_LAYERS
        .iter()
        .map(|(_, span)| rollup.self_ms(span))
        .sum();
    let unattributed = (cycle_ms - named) / cycle_ms * 100.0;
    report.diagnostic("unattributed_pct", unattributed);
    report.check(unattributed.abs() <= UNATTRIBUTED_TOLERANCE_PCT, || {
        format!("named layers leave {unattributed:.2}% of traced cycle time unattributed")
    });
    for (metric, span) in CYCLE_LAYERS {
        report.diagnostic(
            &format!("share_pct.{metric}"),
            rollup.self_ms(span) / cycle_ms * 100.0,
        );
    }
}

/// Writes the kept span groups as a Chrome trace next to the run's
/// other output.
pub fn write_trace(args: &Args, rollup: &Rollup, report: &mut Report) {
    let path = args
        .out_dir
        .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let written = std::fs::write(&path, rollup.chrome());
    report.check(written.is_ok(), || {
        format!("cannot write {}", path.display())
    });
    eprintln!("chrome trace: {}", path.display());
}

fn print_result(report: &Report, args: &Args, probes: Vec<(String, Value)>) {
    let mut diagnostics = vec![
        ("workload".to_owned(), Value::Str(args.workload.clone())),
        ("seed".to_owned(), Value::UInt(args.seed)),
        ("seconds".to_owned(), Value::UInt(args.seconds)),
        ("trace".to_owned(), Value::Bool(args.trace)),
    ];
    diagnostics.extend(host::description());
    diagnostics.extend(probes);
    diagnostics.extend(
        report
            .diagnostics
            .iter()
            .map(|(name, value)| (name.clone(), Value::Float(*value))),
    );
    println!("{}", json(Value::Object(diagnostics)));
    for error in &report.errors {
        eprintln!("check failed: {error}");
    }
    let metrics = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let metric = vec![
                ("value".to_owned(), Value::Float(*value)),
                ("unit".to_owned(), Value::Str((*unit).to_owned())),
            ];
            (name.clone(), Value::Object(metric))
        })
        .collect();
    // A metric that is not finite is a bug; it renders as `null`, so the
    // result fails validation loudly.
    let result = vec![
        ("correct".to_owned(), Value::Bool(report.errors.is_empty())),
        ("attempted".to_owned(), Value::UInt(report.attempted.max(1))),
        ("failed".to_owned(), Value::UInt(report.failed)),
        ("metrics".to_owned(), Value::Object(metrics)),
    ];
    println!("{}", json(Value::Object(result)));
}

pub fn json(value: Value) -> String {
    serde_json::to_string(&value).expect("a JSON value always serializes")
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(host::PROBE_FLAG) {
        host::print_probes();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    if let Err(error) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: {}: {error}", args.work_dir.display());
        return ExitCode::from(2);
    }
    if let Some(platform) = args.platform {
        inproc::run_platform(&args, platform);
        let _ = std::fs::remove_dir_all(&args.work_dir);
        return ExitCode::SUCCESS;
    }
    let mut probes = Vec::new();
    let mut probe = |when: &str| {
        let (alu, memory) = host::probes();
        probes.push((format!("alu_probe_ms_{when}"), Value::Float(alu)));
        probes.push((format!("memory_probe_ms_{when}"), Value::Float(memory)));
    };
    probe("before");
    let mut report = Report::default();
    if args.workload == "http" {
        http::run(&args, &mut report);
    } else {
        inproc::run(&args, &mut report);
    }
    probe("after");
    let _ = std::fs::remove_dir_all(&args.work_dir);
    print_result(&report, &args, probes);
    ExitCode::SUCCESS
}
