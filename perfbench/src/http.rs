//! The `http` workload: tenants' submits and job polls through the real
//! `slotsel serve --live` daemon over loopback HTTP.
//!
//! The daemon runs its cycles on its own timer (`--cycle-ms`). The client
//! is a closed loop phased by them: it waits for a cycle to finish, reads
//! that cycle's time from `/debug/spans` (the daemon keeps one cycle in its
//! flight ring), then sends the next batch — each `POST /submit` followed
//! by a `GET /job/{id}` of a random earlier job — well inside the pause
//! before the next cycle, so every run replays the same history.
//!
//! An in-process twin `LiveService` replays every admitted request and
//! every cycle the daemon ran (each ack's `submitted_cycle` says which
//! cycle a request landed before), so each poll's answer is checked
//! against the twin, and the twin gives the quality metrics, the restarts
//! and, traced, the layer breakdown of the same cycles.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use slotsel_core::request::JobId;
use slotsel_obs::json::{parse_object, JsonObject};
use slotsel_obs::MemorySpanSink;
use slotsel_sim::serve::{JobEntry, LiveConfig, LiveService, Submission};
use slotsel_sim::Parallelism;

use crate::host;
use crate::inproc::{self, Budget, DaemonJournal, Feed, Inputs, Spec, RECOVERIES};
use crate::ops::{self, steady, timed, Samples};
use crate::stats::{mean, ms_since};
use crate::trace::{sink, Report, Trace};
use crate::Args;

/// The daemon's pause between cycles; a batch takes about a tenth of it.
const CYCLE_MS: u64 = 100;
/// Shards of the daemon: independently generated platforms, so one run
/// averages several.
const SHARDS: u32 = 4;
/// Requests per cycle, each a submit and a poll, spread evenly over the
/// shards.
const PER_CYCLE: usize = 32;
/// Daemon cycles (over all sessions) per second of `--seconds`.
const CYCLES_PER_SECOND: f64 = 7.0;
/// Batches submitted by set-up, before the crash point of the twin's
/// journal.
const FILL_BATCHES: usize = 2;
/// Set-up repetitions per session; `setup_s` is the median over them of
/// the sessions' summed set-up times. A set-up takes tens of
/// milliseconds, so more are cheap and steady the median.
const SETUPS: usize = 5;
/// Daemon sessions per run, one after another, each a fresh daemon on a
/// platform of its own running a share of the cycles: the metrics take
/// the three fastest sessions (`stats::fastest_three`).
const SESSIONS: usize = 15;
/// A request that takes longer has failed.
const TIMEOUT: Duration = Duration::from_secs(5);

fn spec() -> Spec {
    Spec {
        shards: SHARDS,
        nodes_per_shard: 16,
        interval: 600,
        parallelism: Parallelism::Auto,
        feed: Feed::PerShard(PER_CYCLE / SHARDS as usize),
        job_nodes: 1,
        volume: 20,
        budget: Budget::Typical(1.1, 1.3),
        warmup: 0,
    }
}

struct Response {
    status: u16,
    body: String,
}

impl Response {
    fn object(&self) -> Option<JsonObject> {
        parse_object(self.body.trim()).ok()
    }
}

/// One request on a fresh connection; the daemon answers every request
/// with `Connection: close`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Response, String> {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(TIMEOUT)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| e.to_string())?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or("no header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or("no status code")?;
    Ok(Response {
        status,
        body: body.to_owned(),
    })
}

/// A `200` answer to an untimed request, or an error naming it.
fn get_ok(addr: SocketAddr, path: &str) -> Result<Response, String> {
    match request(addr, "GET", path, "")? {
        response if response.status == 200 => Ok(response),
        response => Err(format!("GET {path}: status {}", response.status)),
    }
}

/// One timed request, its client-side time pushed to `times`. A failed
/// request (an error, a timeout or a status other than 200) counts as
/// slower than every percentile.
fn timed_request(
    times: &mut Vec<f64>,
    report: &mut Report,
    sink: Option<&mut MemorySpanSink>,
    name: &'static str,
    (addr, method, path, body): (SocketAddr, &str, &str, &str),
) -> Option<Response> {
    let (elapsed, response) = timed(sink, name, |_| request(addr, method, path, body));
    let ok = matches!(&response, Ok(response) if response.status == 200);
    times.push(if ok { elapsed } else { f64::INFINITY });
    report.op(ok);
    match response {
        Ok(response) if ok => Some(response),
        Ok(response) => {
            report.check(false, || {
                format!("{method} {path}: status {}", response.status)
            });
            None
        }
        Err(error) => {
            report.check(false, || format!("{method} {path}: {error}"));
            None
        }
    }
}

/// `slotsel serve --live` as a child process. Dropping it stops the
/// daemon and waits for it.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral loopback port and waits for its
    /// first `/healthz` 200.
    fn spawn(binary: &Path, config: &LiveConfig) -> Result<Daemon, String> {
        let mut child = Command::new(binary)
            .args(["serve", "--live", "--addr", "127.0.0.1:0", "--bind-retries", "0"])
            .args(["--shards", &config.shards.to_string()])
            .args(["--nodes", &config.nodes_per_shard.to_string()])
            .args(["--interval", &config.interval_length.to_string()])
            .args(["--cycle-advance", &config.cycle_advance.to_string()])
            .args(["--seed", &config.seed.to_string()])
            .args(["--cycle-ms", &CYCLE_MS.to_string(), "--flight-cycles", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{}: {e}", binary.display()))?;
        // The daemon prints its address on start-up and a line per busy
        // cycle after; the pipe is drained until it exits.
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(rest) = line.strip_prefix("live submit API on http://") {
                    let _ = tx.send(rest.trim_end_matches("/submit").to_owned());
                }
            }
        });
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            drain: Some(drain),
        };
        daemon.addr = rx
            .recv_timeout(TIMEOUT)
            .map_err(|_| "the daemon printed no address".to_owned())?
            .parse()
            .map_err(|e| format!("daemon address: {e}"))?;
        let deadline = Instant::now() + TIMEOUT;
        while get_ok(daemon.addr, "/healthz").is_err() {
            if Instant::now() > deadline {
                return Err("the daemon never became healthy".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A graceful shutdown first; a daemon that does not exit in time
        // is killed. Either way it has exited when this returns.
        let _ = request(self.addr, "POST", "/shutdown", "");
        let deadline = Instant::now() + TIMEOUT;
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One daemon with its twin, set up and filled.
struct Session {
    daemon: Daemon,
    twin: LiveService,
    inputs: Inputs,
    journal_dir: PathBuf,
    /// The twin as of the crash point of its journal.
    pre_crash: LiveService,
    /// Cycles the daemon has been seen to finish.
    seen: u64,
    /// When the last of them was seen.
    seen_at: Instant,
}

/// The request body of `submission`.
fn submit_body(submission: &Submission) -> String {
    let mut body = slotsel_obs::json::ObjectWriter::new();
    body.str_field("tenant", &submission.tenant);
    body.u64_field("nodes", submission.nodes as u64);
    body.u64_field("volume", submission.volume);
    body.f64_field("budget", submission.budget);
    body.u64_field("priority", u64::from(submission.priority));
    if let Some(shard) = submission.shard {
        body.u64_field("shard", u64::from(shard));
    }
    body.finish()
}

/// Field `key` of an ack or job answer as an integer.
fn uint(object: &JsonObject, key: &str) -> Option<u64> {
    object.get(key)?.as_f64().map(|value| value as u64)
}

/// Whether a `GET /job/{id}` answer shows the twin's `entry`.
fn job_matches(object: &JsonObject, entry: &JobEntry) -> bool {
    let str_of = |key: &str| object.get(key).and_then(|v| v.as_str().map(str::to_owned));
    let num_of = |key: &str| object.get(key).and_then(|v| v.as_f64());
    let window_matches = match entry.phase.window() {
        Some(window) => {
            num_of("start") == Some(window.start().ticks() as f64)
                && num_of("finish") == Some(window.finish().ticks() as f64)
                && num_of("cost").is_some_and(|cost| {
                    (cost - window.total_cost().as_f64()).abs() <= 1e-9 * cost.abs().max(1.0)
                })
        }
        None => num_of("start").is_none(),
    };
    uint(object, "job") == Some(u64::from(entry.id.0))
        && str_of("state").as_deref() == Some(entry.phase.name())
        && window_matches
}

impl Session {
    /// Spawns the daemon and fills it; the twin journals the fill the
    /// way the daemon would and "crashes" right after.
    fn set_up(binary: &Path, seed: u64, journal_dir: PathBuf) -> Result<Session, String> {
        let spec = spec();
        let mut inputs = Inputs::new(seed);
        let config = LiveConfig {
            shards: spec.shards,
            nodes_per_shard: spec.nodes_per_shard,
            interval_length: spec.interval,
            seed: inputs.env_seed,
            ..LiveConfig::default()
        };
        let daemon = Daemon::spawn(binary, &config)?;
        let mut twin = LiveService::new(config.clone());
        // The fill goes out at once, well before the daemon's first cycle;
        // the twin replays it after.
        let mut landed = Vec::new();
        for _ in 0..FILL_BATCHES {
            for submission in inputs.batch(&spec, &twin) {
                let body = submit_body(&submission);
                let ack = request(daemon.addr, "POST", "/submit", &body)?;
                let cycle = ack
                    .object()
                    .filter(|_| ack.status == 200)
                    .and_then(|ack| uint(&ack, "submitted_cycle"))
                    .ok_or_else(|| format!("fill submit: status {}", ack.status))?;
                landed.push((submission, cycle));
            }
        }
        let mut journal = DaemonJournal::create(&journal_dir, &config);
        for (submission, cycle) in landed {
            while twin.cycle() < cycle {
                journal.cycle(&mut twin, spec.parallelism);
            }
            journal.admit(&mut twin, &submission);
        }
        journal.crash();
        Ok(Session {
            daemon,
            pre_crash: twin.clone(),
            twin,
            inputs,
            journal_dir,
            seen: 0,
            seen_at: Instant::now(),
        })
    }

    /// Waits until the daemon finishes its next cycle; returns its count.
    /// The daemon pauses `CYCLE_MS` after each cycle, so most of that is
    /// slept before polling `/state`.
    fn next_cycle(&mut self) -> Result<u64, String> {
        let pause = Duration::from_millis(CYCLE_MS * 4 / 5);
        std::thread::sleep(pause.saturating_sub(self.seen_at.elapsed()));
        let deadline = Instant::now() + TIMEOUT;
        loop {
            let state = get_ok(self.daemon.addr, "/state")?;
            let cycle = state
                .object()
                .and_then(|state| uint(&state, "cycle"))
                .ok_or("GET /state: no cycle")?;
            if cycle > self.seen {
                self.seen = cycle;
                self.seen_at = Instant::now();
                return Ok(cycle);
            }
            if Instant::now() > deadline {
                return Err(format!("the daemon ran no cycle after {}", self.seen));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Runs twin cycles until the twin has run `cycle` of them.
    fn catch_up(
        &mut self,
        cycle: u64,
        samples: &mut Samples,
        report: &mut Report,
        trace: &mut Option<&mut Trace>,
    ) {
        while self.twin.cycle() < cycle {
            ops::cycle(
                &mut self.twin,
                spec().parallelism,
                samples,
                report,
                sink(trace),
            );
        }
    }
}

/// The length of the daemon's last cycle, from its one-cycle flight ring.
fn last_cycle_ms(addr: SocketAddr) -> Result<f64, String> {
    let spans = get_ok(addr, "/debug/spans")?;
    spans
        .body
        .lines()
        .filter_map(|line| parse_object(line).ok())
        .find(|span| span.get("name").and_then(|v| v.as_str()) == Some("serve.cycle"))
        .filter(|span| uint(span, "count") == Some(1))
        .and_then(|span| uint(&span, "total_us"))
        .map(|us| us as f64 / 1e3)
        .ok_or_else(|| "GET /debug/spans: no single serve.cycle".to_owned())
}

/// `(Σ seconds, count)` of the daemon's `slotsel_http_request_seconds`
/// histogram for each route path, from `/metrics`.
fn server_seconds(addr: SocketAddr, paths: [&str; 2]) -> Result<[(f64, f64); 2], String> {
    let metrics = get_ok(addr, "/metrics")?;
    let value = |series: &str, path: &str| -> f64 {
        let prefix = format!("slotsel_http_request_seconds_{series}{{path=\"{path}\"}} ");
        metrics
            .body
            .lines()
            .find_map(|line| line.strip_prefix(&prefix))
            .and_then(|value| value.trim().parse().ok())
            .unwrap_or(0.0)
    };
    Ok(paths.map(|path| (value("sum", path), value("count", path))))
}

/// Samples of one pass: what the client saw of the daemon, and the
/// twin's own ops.
struct PassSamples {
    daemon: Samples,
    twin: Samples,
    /// Batches a daemon cycle ran in the middle of.
    split_batches: u64,
}

/// Runs the timed op sequence against the session's daemon. Traced, every
/// request and twin op is wrapped in a benchmark span and twin cycles run
/// through `run_cycle_spanned`.
fn run_pass(
    args: &Args,
    session: &mut Session,
    report: &mut Report,
    mut trace: Option<&mut Trace>,
) -> Result<PassSamples, String> {
    let spec = spec();
    let addr = session.daemon.addr;
    let cycles = (CYCLES_PER_SECOND * args.seconds as f64 / SESSIONS as f64).round() as usize;
    let recover_every = (cycles / RECOVERIES).max(1);
    let mut pass = PassSamples {
        daemon: Samples::default(),
        twin: Samples::default(),
        split_batches: 0,
    };
    for iteration in 0..cycles {
        let cycle = session.next_cycle()?;
        pass.daemon.cycle_ms.push(last_cycle_ms(addr)?);

        // The batch goes out right after the cycle; the twin replays it
        // after, while the daemon pauses.
        let mut sent = Vec::new();
        for submission in session.inputs.batch(&spec, &session.twin) {
            let body = submit_body(&submission);
            let ack = timed_request(
                &mut pass.daemon.ack_ms,
                report,
                sink(&mut trace),
                "bench.http.submit",
                (addr, "POST", "/submit", &body),
            )
            .and_then(|ack| ack.object());
            let Some(ack) = ack else { continue };
            let id = uint(&ack, "job").unwrap_or(0) as u32;
            let target = JobId(session.inputs.polls.gen_range(0..=id));
            let path = format!("/job/{}", target.0);
            let answer = timed_request(
                &mut pass.daemon.poll_ms,
                report,
                sink(&mut trace),
                "bench.http.job",
                (addr, "GET", &path, ""),
            )
            .and_then(|answer| answer.object());
            sent.push((submission, ack, target, answer));
        }
        let state = get_ok(addr, "/state")?.object().ok_or("GET /state")?;
        // A cycle that ran mid-batch (the host stalled for most of a
        // pause) leaves the answers on either side of it, unchecked.
        let split = uint(&state, "cycle") != Some(cycle);
        pass.split_batches += u64::from(split);

        for (submission, ack, target, answer) in sent {
            if let Some(landed) = uint(&ack, "submitted_cycle") {
                session.catch_up(landed, &mut pass.twin, report, &mut trace);
            }
            let entry = ops::submit(
                &mut session.twin,
                &submission,
                &mut pass.twin,
                report,
                sink(&mut trace),
            );
            let id = entry.map(|entry| u64::from(entry.id.0));
            report.check(id.is_some() && uint(&ack, "job") == id, || {
                format!("ack {:?} is not the twin's job {id:?}", uint(&ack, "job"))
            });
            if let (Some(answer), false) = (answer, split) {
                let twin = session.twin.job(target);
                report.check(twin.is_some_and(|entry| job_matches(&answer, entry)), || {
                    format!(
                        "GET /job/{} at cycle {cycle}: the daemon has {answer:?}, its twin {:?}",
                        target.0,
                        twin.map(|entry| (&entry.phase, entry.submitted_cycle))
                    )
                });
            }
        }
        report.check(
            uint(&state, "jobs") == Some(session.twin.jobs().len() as u64),
            || "GET /state does not count every ack".to_owned(),
        );
        if iteration % recover_every == recover_every - 1
            && pass.twin.recover_ms.len() < RECOVERIES
        {
            ops::recover(
                &session.journal_dir,
                &session.pre_crash,
                &mut pass.twin,
                report,
                sink(&mut trace),
            );
        }
        if let Some(trace) = trace.as_deref_mut() {
            trace.end_group(iteration as u64);
        }
    }
    Ok(pass)
}

/// What the passes of a run's sessions add up to.
#[derive(Default)]
struct Totals {
    /// Each session's samples.
    daemon: Vec<Samples>,
    twin: Vec<Samples>,
    split_batches: u64,
    /// Σ server-side ms and the count of `POST /submit` and of
    /// `GET /job/{id}` requests.
    server: [(f64, f64); 2],
    /// Each session's twin at the end of its pass.
    twins: Vec<LiveService>,
    peak_rss_mb: f64,
}

impl Totals {
    /// Server-side mean ms of route `k` of `ROUTES`.
    fn server_ms(&self, k: usize) -> f64 {
        self.server[k].0 / self.server[k].1.max(1.0)
    }
}

/// The routes whose server-side time is reported.
const ROUTES: [&str; 2] = ["/submit", "/job/{id}"];

/// Runs one session per platform, one after another: `setups` set-ups
/// of a fresh daemon (their times added to `setup_s`, one entry per
/// repetition, when it has room), then that session's pass.
fn run_sessions(
    args: &Args,
    binary: &Path,
    setups: usize,
    setup_s: &mut [f64],
    report: &mut Report,
    mut trace: Option<&mut Trace>,
) -> Result<Totals, String> {
    let mut totals = Totals::default();
    let mut seeds = StdRng::seed_from_u64(args.seed);
    for platform in 0..SESSIONS {
        let seed = seeds.gen();
        let journal_dir = args.work_dir.join(format!("journal-{platform}"));
        let mut session = None;
        for repetition in 0..setups {
            // The previous set-up's daemon has exited before the clock
            // starts.
            drop(session.take());
            let start = Instant::now();
            session = Some(Session::set_up(binary, seed, journal_dir.clone())?);
            if let Some(total) = setup_s.get_mut(repetition) {
                *total += ms_since(start) / 1e3;
            }
        }
        let mut session = session.ok_or("no set-up")?;
        let addr = session.daemon.addr;
        let before = server_seconds(addr, ROUTES)?;
        let pass = run_pass(args, &mut session, report, trace.as_deref_mut())?;
        let after = server_seconds(addr, ROUTES)?;
        for (total, (after, before)) in totals.server.iter_mut().zip(after.iter().zip(before)) {
            total.0 += (after.0 - before.0) * 1e3;
            total.1 += after.1 - before.1;
        }
        let rss = host::peak_rss_mb(Some(session.daemon.pid())).unwrap_or(0.0);
        totals.peak_rss_mb = totals.peak_rss_mb.max(rss);
        totals.daemon.push(pass.daemon);
        totals.twin.push(pass.twin);
        totals.split_batches += pass.split_batches;
        totals.twins.push(session.twin.clone());
    }
    Ok(totals)
}

pub fn run(args: &Args, report: &mut Report) {
    if let Err(error) = run_checked(args, report) {
        report.op(false);
        report.check(false, || error);
    }
}

fn run_checked(args: &Args, report: &mut Report) -> Result<(), String> {
    let binary = args
        .daemon
        .clone()
        .ok_or("the http workload needs --daemon")?;
    let mut setup_s = [0.0; SETUPS];
    let mut untraced = run_sessions(args, &binary, SETUPS, &mut setup_s, report, None)?;
    for twin in &untraced.twins {
        inproc::check_commits(twin, report);
    }
    let quality = inproc::Quality::of(&untraced.twins).metrics();
    report.diagnostic("split_batches", untraced.split_batches as f64);
    let pooled = Samples::pooled(&untraced.daemon);
    report.diagnostic("cycles", pooled.cycle_ms.len() as f64);
    report.diagnostic("acks", pooled.ack_ms.len() as f64);
    let queued = untraced
        .twins
        .iter()
        .flat_map(LiveService::jobs)
        .filter(|job| job.phase.name() == "queued")
        .count();
    report.diagnostic("queued_at_end", queued as f64);
    report.diagnostic("obs.http.submit_server_ms", untraced.server_ms(0));
    report.diagnostic("obs.http.job_server_ms", untraced.server_ms(1));

    if !args.trace {
        for (daemon, twin) in untraced.daemon.iter_mut().zip(&mut untraced.twin) {
            daemon.recover_ms = std::mem::take(&mut twin.recover_ms);
        }
        let rss = untraced.peak_rss_mb;
        crate::end_to_end(report, &setup_s, &untraced.daemon, quality, rss);
        return Ok(());
    }

    // Traced passes: the same op sequence against fresh daemons.
    let mut trace = Trace::default();
    let traced = run_sessions(args, &binary, 1, &mut [], report, Some(&mut trace))?;
    if untraced.split_batches == 0 && traced.split_batches == 0 {
        let same = untraced
            .twins
            .iter()
            .zip(&traced.twins)
            .all(|(a, b)| a.state() == b.state());
        report.check(same, || {
            "traced and untraced runs ended in different states".to_owned()
        });
    }
    let barrier: Vec<f64> = untraced.twins.iter().map(inproc::barrier_bytes).collect();
    crate::layers(
        report,
        &trace.rollup,
        &crate::LayerInputs {
            untraced_cycle_p50: steady(&untraced.twin, |unit| &unit.cycle_ms),
            traced_cycle_p50: steady(&traced.twin, |unit| &unit.cycle_ms),
            submit_us_p50: steady(&untraced.twin, |unit| &unit.ack_ms) * 1e3,
            allocs_per_cycle: mean(&Samples::pooled(&untraced.twin).allocs_per_cycle),
            width: mean(&Samples::pooled(&untraced.twin).width),
            barrier_kb: mean(&barrier) / 1024.0,
            http_submit_server_ms: untraced.server_ms(0),
            http_job_server_ms: untraced.server_ms(1),
        },
    );
    crate::write_trace(args, &trace.rollup, report);
    Ok(())
}
