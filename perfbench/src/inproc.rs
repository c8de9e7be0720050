//! The in-process workload, `backlog`: a closed loop of submits, job
//! polls and cycles driven straight through `LiveService`,
//! plus periodic restarts from the journals set-up wrote. The request
//! stream, the set-up journal and the checks are shared with `http`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use slotsel_core::node::Volume;
use slotsel_core::request::JobId;
use slotsel_obs::metrics::NoopMetrics;
use slotsel_obs::Journal;
use slotsel_sim::journal::DurableJournal;
use slotsel_sim::serve::{JobPhase, LiveConfig, LiveRecord, LiveService, Submission};
use slotsel_sim::Parallelism;

use crate::host;
use crate::ops::{self, steady, Samples};
use crate::stats::{mean, ms_since};
use crate::trace::{sink, Report, Trace};
use crate::Args;
use serde::{Deserialize, Serialize, Value};

/// How the queue is fed before every cycle.
#[derive(Clone, Copy)]
pub enum Feed {
    /// Top the queue up to this depth (auto-assigned shard).
    TopUpTo(usize),
    /// This many fresh requests per shard.
    PerShard(usize),
}

/// How budgets are drawn.
#[derive(Clone, Copy)]
pub enum Budget {
    /// Uniform in `[lo, hi)` credits.
    Credits(f64, f64),
    /// Uniform in `[lo, hi)` times the shard's typical window cost.
    Typical(f64, f64),
}

pub struct Spec {
    pub shards: u32,
    pub nodes_per_shard: usize,
    pub interval: i64,
    pub parallelism: Parallelism,
    pub feed: Feed,
    pub job_nodes: usize,
    pub volume: u64,
    pub budget: Budget,
    /// Warm-up cycles per service, run by set-up after the crash point.
    pub warmup: usize,
}

const TENANTS: u32 = 4;
/// Restarts from the set-up journals per platform (per session on
/// `http`), spread over its ops: enough for a median with ten samples
/// beyond it.
pub const RECOVERIES: usize = 20;
/// Independent services (generated platforms) per run, each from its own
/// sub-seed and, in timing mode, in a process of its own for about 1.5 s:
/// short enough that the three fastest of them (`stats::fastest_three`)
/// find the host's quiet stretches in a run it slowed for most of its
/// length.
const PLATFORMS: usize = 27;
/// Timed cycles (over all platforms) per second of `--seconds`.
const CYCLES_PER_SECOND: f64 = 15.0;
/// Job polls before each cycle: blocks of `POLL_BLOCK` random earlier
/// jobs, each block one sample.
const POLL_BLOCKS: usize = 8;
const POLL_BLOCK: usize = 8;

/// The `backlog` workload: a deep queue on a small platform, so the
/// phase-2 MCKP solve dominates the cycle.
fn backlog() -> Spec {
    Spec {
        shards: 1,
        nodes_per_shard: 16,
        interval: 600,
        parallelism: Parallelism::Serial,
        feed: Feed::TopUpTo(100),
        job_nodes: 2,
        volume: 20,
        budget: Budget::Credits(180.0, 220.0),
        warmup: 2,
    }
}

/// One service's seeded request stream: tenants, budgets, poll targets.
pub struct Inputs {
    pub env_seed: u64,
    submits: StdRng,
    pub polls: StdRng,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        let mut seeds = StdRng::seed_from_u64(seed);
        Inputs {
            env_seed: seeds.gen(),
            submits: StdRng::seed_from_u64(seeds.gen()),
            polls: StdRng::seed_from_u64(seeds.gen()),
        }
    }

    /// The requests due before the service's next cycle.
    pub fn batch(&mut self, spec: &Spec, service: &LiveService) -> Vec<Submission> {
        let shards: Vec<Option<u32>> = match spec.feed {
            Feed::TopUpTo(depth) => {
                let queued = service
                    .jobs()
                    .iter()
                    .filter(|job| matches!(job.phase, JobPhase::Queued))
                    .count();
                vec![None; depth.saturating_sub(queued)]
            }
            Feed::PerShard(count) => (0..spec.shards)
                .flat_map(|shard| std::iter::repeat_n(Some(shard), count))
                .collect(),
        };
        let typical: Vec<f64> = match spec.budget {
            Budget::Typical(..) => (0..spec.shards as usize)
                .map(|shard| typical_window(service, shard, spec))
                .collect(),
            Budget::Credits(..) => Vec::new(),
        };
        shards
            .into_iter()
            .map(|shard| {
                let tenant = self.submits.gen_range(0..TENANTS);
                let budget = match spec.budget {
                    Budget::Credits(lo, hi) => self.submits.gen_range(lo..hi),
                    Budget::Typical(lo, hi) => {
                        typical[shard.unwrap_or(0) as usize] * self.submits.gen_range(lo..hi)
                    }
                };
                Submission {
                    tenant: format!("tenant-{tenant}"),
                    nodes: spec.job_nodes,
                    volume: spec.volume,
                    budget: (budget * 1000.0).round() / 1000.0,
                    priority: 1,
                    deadline: None,
                    shard,
                }
            })
            .collect()
    }
}

/// What a window of the request shape costs on the shard's typical node:
/// `job_nodes` times the median per-node task cost. Budgets set relative
/// to it leave about the same share of the platform affordable whatever
/// prices the seed generated.
fn typical_window(service: &LiveService, shard: usize, spec: &Spec) -> f64 {
    let mut costs: Vec<f64> = service.state().shards[shard]
        .platform
        .iter()
        .map(|node| {
            let ticks = Volume::new(spec.volume).time_on(node.performance()).ticks();
            (node.price_per_unit() * ticks).as_f64()
        })
        .collect();
    costs.sort_by(f64::total_cmp);
    costs[costs.len() / 2] * spec.job_nodes as f64
}

/// A live journal holding what the daemon writes: a header, then a
/// `Submitted` record per admission and the records of every cycle. The
/// daemon fsyncs each admission; this journal makes its records durable
/// once, at the crash, so the shared disk's fsync latency (0.14 ms at p50,
/// 0.9 ms at p99 on the reference host) stays out of `setup_s`. The
/// bytes are the same.
pub struct DaemonJournal(DurableJournal);

impl DaemonJournal {
    pub fn create(dir: &Path, config: &LiveConfig) -> Self {
        let _ = std::fs::remove_dir_all(dir);
        let mut journal = DurableJournal::create(dir, 5).expect("create journal");
        journal.append(
            &LiveRecord::ServiceStarted {
                config: config.clone(),
            }
            .encode(),
        );
        journal.commit();
        DaemonJournal(journal)
    }

    pub fn admit(&mut self, service: &mut LiveService, submission: &Submission) {
        let entry = service
            .submit(submission)
            .expect("journaled submit admitted");
        self.0.append(&LiveRecord::Submitted { entry }.encode());
    }

    /// Makes every record durable, then drops the journal without
    /// `finish`: a crash.
    pub fn crash(mut self) {
        self.0.commit();
    }

    /// One journaled cycle, the way the daemon runs it.
    pub fn cycle(&mut self, service: &mut LiveService, parallelism: Parallelism) {
        service.run_cycle_observed(parallelism, &NoopMetrics, &mut self.0);
    }
}

/// One service: its initial fill is journaled the way the daemon journals
/// admissions, it crashes right after the fill (the journal is dropped
/// unfinished), then runs its warm-up cycles.
struct Instance {
    service: LiveService,
    inputs: Inputs,
    journal_dir: PathBuf,
    /// The service as of the crash point — what recovery must rebuild.
    pre_crash: LiveService,
}

fn set_up(spec: &Spec, seed: u64, journal_dir: PathBuf) -> Instance {
    let mut inputs = Inputs::new(seed);
    let config = LiveConfig {
        shards: spec.shards,
        nodes_per_shard: spec.nodes_per_shard,
        interval_length: spec.interval,
        seed: inputs.env_seed,
        ..LiveConfig::default()
    };
    let mut journal = DaemonJournal::create(&journal_dir, &config);
    let mut service = LiveService::new(config);
    for submission in inputs.batch(spec, &service) {
        journal.admit(&mut service, &submission);
    }
    journal.crash();
    let pre_crash = service.clone();
    for _ in 0..spec.warmup {
        for submission in inputs.batch(spec, &service) {
            service
                .submit(&submission)
                .expect("warm-up submit admitted");
        }
        service.run_cycle(spec.parallelism);
    }
    Instance {
        service,
        inputs,
        journal_dir,
        pre_crash,
    }
}

/// Every platform of a run: its sub-seed of the run's seed and the
/// directory of its set-up journal.
fn platforms(args: &Args) -> Vec<(u64, PathBuf)> {
    let mut seeds = StdRng::seed_from_u64(args.seed);
    (0..PLATFORMS)
        .map(|k| (seeds.gen(), args.work_dir.join(format!("setup-journal-{k}"))))
        .collect()
}

/// Timed cycles of each platform in a run.
fn cycles_per_platform(args: &Args) -> usize {
    (CYCLES_PER_SECOND * args.seconds as f64 / PLATFORMS as f64).round() as usize
}

/// Runs `cycles` timed cycles on each service, round-robin, every cycle
/// preceded by its submits and job polls, with `RECOVERIES` restarts per
/// service spread over the pass; returns each service's samples. Traced,
/// every op is wrapped in a benchmark span, cycles run through
/// `run_cycle_spanned`, and each iteration's records become one group.
fn run_pass(
    spec: &Spec,
    cycles: usize,
    instances: &mut [Instance],
    report: &mut Report,
    mut trace: Option<&mut Trace>,
) -> Vec<Samples> {
    let count = instances.len();
    let recover_every = (cycles / RECOVERIES).max(1) * count;
    let mut units: Vec<Samples> = instances.iter().map(|_| Samples::default()).collect();
    for iteration in 0..cycles * count {
        let instance = &mut instances[iteration % count];
        let samples = &mut units[iteration % count];
        let service = &mut instance.service;
        for submission in instance.inputs.batch(spec, service) {
            ops::submit(service, &submission, samples, report, sink(&mut trace));
        }
        let jobs = service.jobs().len() as u32;
        for _ in 0..POLL_BLOCKS {
            let targets: Vec<JobId> = (0..POLL_BLOCK)
                .map(|_| JobId(instance.inputs.polls.gen_range(0..jobs)))
                .collect();
            ops::poll(service, &targets, samples, report, sink(&mut trace));
        }
        ops::cycle(service, spec.parallelism, samples, report, sink(&mut trace));

        if iteration % recover_every >= recover_every - count
            && samples.recover_ms.len() < RECOVERIES
        {
            ops::recover(
                &instance.journal_dir,
                &instance.pre_crash,
                samples,
                report,
                sink(&mut trace),
            );
        }
        if let Some(trace) = trace.as_deref_mut() {
            trace.end_group(iteration as u64);
        }
    }
    units
}

/// Committed windows never overlap on a node of their shard, and each
/// costs at most its request's budget.
pub fn check_commits(service: &LiveService, report: &mut Report) {
    let mut busy: Vec<(u32, usize, i64, i64)> = Vec::new();
    for job in service.jobs() {
        if let Some(window) = job.phase.window() {
            report.check(window.total_cost() <= job.request.budget(), || {
                format!("job {} window over budget", job.id.0)
            });
            for task in window.slots() {
                let start = window.start().ticks();
                busy.push((
                    job.shard,
                    task.node().0 as usize,
                    start,
                    start + task.length().ticks(),
                ));
            }
        }
    }
    busy.sort_unstable();
    for pair in busy.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        report.check(a.0 != b.0 || a.1 != b.1 || a.3 <= b.2, || {
            format!("committed windows overlap on shard {} node {}", a.0, a.1)
        });
    }
}

/// The exact quality of committed jobs, as sums that pool over services.
#[derive(Debug, Default, Clone, Copy)]
pub struct Quality {
    /// Σ cycles from submit to commit (a job committed by the cycle it was
    /// submitted before waited 1) and the number of committed jobs.
    waits: f64,
    committed: f64,
    /// Σ committed window cost and Σ nodes × volume of those jobs.
    cost: f64,
    work: f64,
}

impl Quality {
    pub fn of<'a>(services: impl IntoIterator<Item = &'a LiveService>) -> Self {
        let mut quality = Quality::default();
        for job in services.into_iter().flat_map(LiveService::jobs) {
            let (window, committed) = match &job.phase {
                JobPhase::Scheduled {
                    window,
                    committed_cycle,
                }
                | JobPhase::Finished {
                    window,
                    committed_cycle,
                    ..
                } => (window, *committed_cycle),
                JobPhase::Queued => continue,
            };
            quality.waits += (committed - job.submitted_cycle + 1) as f64;
            quality.committed += 1.0;
            quality.cost += window.total_cost().as_f64();
            quality.work +=
                (job.request.node_count() as u64 * job.request.volume().work()) as f64;
        }
        quality
    }

    /// `(wait_cycles_mean, cost_per_work)`.
    pub fn metrics(&self) -> (f64, f64) {
        (self.waits / self.committed, self.cost / self.work)
    }

    fn to_value(self) -> Value {
        vec![self.waits, self.committed, self.cost, self.work].to_value()
    }

    fn add_value(&mut self, value: Option<&Value>) -> Option<()> {
        let sums = Vec::<f64>::from_value(value?).ok()?;
        let [waits, committed, cost, work] = sums[..] else {
            return None;
        };
        self.waits += waits;
        self.committed += committed;
        self.cost += cost;
        self.work += work;
        Some(())
    }
}

/// Size of the barrier record the daemon writes for `service`'s state
/// each cycle.
pub fn barrier_bytes(service: &LiveService) -> f64 {
    LiveRecord::CycleCommitted {
        state: service.state().clone(),
    }
    .encode()
    .len() as f64
}

fn queued(services: &[&LiveService]) -> usize {
    services
        .iter()
        .flat_map(|service| service.jobs())
        .filter(|job| matches!(job.phase, JobPhase::Queued))
        .count()
}

/// Timing mode runs every platform in a child process of its own, one
/// after another, each with `--platform K`, and keeps each platform's
/// samples apart: a process's speed follows the host's contention while
/// it runs and its own heap and layout, so every op of a process is fast
/// or slow together, and the metrics take the three fastest platforms
/// (`stats::fastest_three`). Traced mode runs every platform in this
/// process.
pub fn run(args: &Args, report: &mut Report) {
    if args.trace {
        run_traced(args, report);
        return;
    }
    let mut units = Vec::new();
    let mut setup_s = Vec::new();
    let mut quality = Quality::default();
    let mut peak_rss_mb = 0.0f64;
    let mut queued = 0.0;
    for platform in 0..PLATFORMS {
        let child = std::env::current_exe().and_then(|exe| {
            std::process::Command::new(exe)
                .args(std::env::args().skip(1))
                .args(["--platform", &platform.to_string()])
                .output()
        });
        let parsed = child
            .ok()
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .and_then(|text| text.lines().last().map(str::to_owned))
            .and_then(|line| serde_json::from_str::<Value>(&line).ok());
        let Some(child) = parsed else {
            report.op(false);
            report.check(false, || format!("platform {platform}: no result"));
            continue;
        };
        let floats = |key: &str| {
            child
                .get(key)
                .and_then(|value| Vec::<f64>::from_value(value).ok())
                .unwrap_or_default()
        };
        let number = |key: &str| {
            child
                .get(key)
                .and_then(|value| f64::from_value(value).ok())
                .unwrap_or(f64::NAN)
        };
        units.push(Samples {
            cycle_ms: floats("cycle_ms"),
            ack_ms: floats("ack_ms"),
            poll_ms: floats("poll_ms"),
            recover_ms: floats("recover_ms"),
            ..Samples::default()
        });
        setup_s.push(number("setup_s"));
        report.check(quality.add_value(child.get("quality")).is_some(), || {
            format!("platform {platform}: no quality sums")
        });
        peak_rss_mb = peak_rss_mb.max(number("peak_rss_mb"));
        queued += number("queued");
        report.attempted += number("attempted") as u64;
        report.failed += number("failed") as u64;
        if let Some(Value::Array(errors)) = child.get("errors") {
            for error in errors {
                report.check(false, || format!("platform {platform}: {error:?}"));
            }
        }
    }
    let pooled = Samples::pooled(&units);
    report.diagnostic("queued_at_end", queued);
    report.diagnostic("cycles", pooled.cycle_ms.len() as f64);
    report.diagnostic("acks", pooled.ack_ms.len() as f64);
    crate::end_to_end(report, &setup_s, &units, quality.metrics(), peak_rss_mb);
}

/// One platform's share of a timing run (`--platform K`): its set-up,
/// then its timed ops. Prints the set-up time, the raw samples, the
/// quality sums and the checks as one JSON line for the parent; `setup_s`
/// is the median of the platforms' set-up times.
pub fn run_platform(args: &Args, platform: usize) {
    let spec = backlog();
    let (seed, journal_dir) = platforms(args).swap_remove(platform);
    let start = Instant::now();
    let mut instances = vec![set_up(&spec, seed, journal_dir)];
    let setup_s = ms_since(start) / 1e3;
    let mut report = Report::default();
    let cycles = cycles_per_platform(args);
    let samples = run_pass(&spec, cycles, &mut instances, &mut report, None).remove(0);
    let service = &instances[0].service;
    check_commits(service, &mut report);
    let fields = vec![
        ("setup_s", Value::Float(setup_s)),
        ("cycle_ms", samples.cycle_ms.to_value()),
        ("ack_ms", samples.ack_ms.to_value()),
        ("poll_ms", samples.poll_ms.to_value()),
        ("recover_ms", samples.recover_ms.to_value()),
        ("quality", Quality::of([service]).to_value()),
        ("queued", Value::Float(queued(&[service]) as f64)),
        ("peak_rss_mb", Value::Float(host::peak_rss_mb(None).unwrap_or(0.0))),
        ("attempted", Value::UInt(report.attempted)),
        ("failed", Value::UInt(report.failed)),
        ("errors", report.errors.to_value()),
    ];
    let fields = fields
        .into_iter()
        .map(|(name, value)| (name.to_owned(), value))
        .collect();
    println!("{}", crate::json(Value::Object(fields)));
}

/// Traced mode: every platform in this process, an untraced pass and then
/// a traced pass of the same op sequence from fresh set-ups.
fn run_traced(args: &Args, report: &mut Report) {
    let spec = backlog();
    let set_up_all = || -> Vec<Instance> {
        platforms(args)
            .into_iter()
            .map(|(seed, dir)| set_up(&spec, seed, dir))
            .collect()
    };
    let cycles = cycles_per_platform(args);
    let mut instances = set_up_all();
    let untraced = run_pass(&spec, cycles, &mut instances, report, None);
    let services: Vec<&LiveService> = instances.iter().map(|i| &i.service).collect();
    for service in &services {
        check_commits(service, report);
    }
    report.diagnostic("queued_at_end", queued(&services) as f64);

    let mut traced_instances = set_up_all();
    let mut trace = Trace::default();
    let traced = run_pass(&spec, cycles, &mut traced_instances, report, Some(&mut trace));
    let same = services
        .iter()
        .zip(&traced_instances)
        .all(|(a, b)| a.state() == b.service.state());
    report.check(same, || {
        "traced and untraced runs ended in different states".to_owned()
    });
    let barrier = mean(
        &services
            .iter()
            .map(|service| barrier_bytes(service))
            .collect::<Vec<_>>(),
    );
    crate::layers(
        report,
        &trace.rollup,
        &crate::LayerInputs {
            untraced_cycle_p50: steady(&untraced, |unit| &unit.cycle_ms),
            traced_cycle_p50: steady(&traced, |unit| &unit.cycle_ms),
            submit_us_p50: steady(&untraced, |unit| &unit.ack_ms) * 1e3,
            allocs_per_cycle: mean(&Samples::pooled(&untraced).allocs_per_cycle),
            width: mean(&Samples::pooled(&untraced).width),
            barrier_kb: barrier / 1024.0,
            http_submit_server_ms: 0.0,
            http_job_server_ms: 0.0,
        },
    );
    crate::write_trace(args, &trace.rollup, report);
}
