//! End-to-end tests of the `slotsel` CLI binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn slotsel(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_slotsel"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("slotsel-cli-test-{}-{name}", std::process::id()));
    path
}

fn generate_env(nodes: &str, seed: &str) -> PathBuf {
    let path = temp_path(&format!("env-{nodes}-{seed}.json"));
    let out = slotsel(&[
        "generate",
        "--nodes",
        nodes,
        "--interval",
        "600",
        "--seed",
        seed,
        "--out",
        path.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    path
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = slotsel(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn help_succeeds() {
    let out = slotsel(&["help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("generate"));
    assert!(stdout(&out).contains("gantt"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = slotsel(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn generate_info_roundtrip() {
    let env = generate_env("25", "9");
    let out = slotsel(&["info", "--env", env.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("nodes: 25"), "{text}");
    assert!(text.contains("performance range: [2, 10]"), "{text}");
    let _ = std::fs::remove_file(env);
}

#[test]
fn select_reports_a_window_for_every_algorithm() {
    let env = generate_env("30", "11");
    for algorithm in [
        "amp",
        "minfinish",
        "mincost",
        "minruntime",
        "minproctime",
        "minproc-additive",
        "minenergy",
        "firstfit",
        "backfill",
    ] {
        let out = slotsel(&[
            "select",
            "--env",
            env.to_str().unwrap(),
            "--algorithm",
            algorithm,
            "--n",
            "3",
            "--volume",
            "300",
            "--budget",
            "5000",
        ]);
        assert!(out.status.success(), "{algorithm}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(
            text.contains("start") && text.contains("cost"),
            "{algorithm} produced {text}"
        );
    }
    let _ = std::fs::remove_file(env);
}

#[test]
fn select_rejects_unknown_algorithm() {
    let env = generate_env("10", "1");
    let out = slotsel(&[
        "select",
        "--env",
        env.to_str().unwrap(),
        "--algorithm",
        "magic",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown algorithm"));
    let _ = std::fs::remove_file(env);
}

#[test]
fn csa_lists_per_criterion_extremes() {
    let env = generate_env("30", "4");
    let out = slotsel(&[
        "csa",
        "--env",
        env.to_str().unwrap(),
        "--n",
        "3",
        "--budget",
        "5000",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("alternatives found"), "{text}");
    for criterion in ["start", "finish", "cost", "runtime", "proctime"] {
        assert!(
            text.contains(&format!("best {criterion:>8}")),
            "{criterion} missing\n{text}"
        );
    }
    let _ = std::fs::remove_file(env);
}

#[test]
fn batch_schedules_a_job_file() {
    let env = generate_env("30", "6");
    let jobs = temp_path("jobs.json");
    std::fs::write(
        &jobs,
        r#"[
            {"id": 0, "priority": 5, "node_count": 3, "volume": 300, "budget": 2000.0},
            {"id": 1, "priority": 2, "node_count": 2, "volume": 200, "budget": 900.0}
        ]"#,
    )
    .unwrap();
    let out = slotsel(&[
        "batch",
        "--env",
        env.to_str().unwrap(),
        "--jobs",
        jobs.to_str().unwrap(),
        "--objective",
        "min-sum-finish",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("scheduled 2/2"), "{text}");
    let _ = std::fs::remove_file(env);
    let _ = std::fs::remove_file(jobs);
}

#[test]
fn batch_rejects_unknown_objective() {
    let env = generate_env("10", "2");
    let jobs = temp_path("jobs2.json");
    std::fs::write(&jobs, "[]").unwrap();
    let out = slotsel(&[
        "batch",
        "--env",
        env.to_str().unwrap(),
        "--jobs",
        jobs.to_str().unwrap(),
        "--objective",
        "max-chaos",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown objective"));
    let _ = std::fs::remove_file(env);
    let _ = std::fs::remove_file(jobs);
}

#[test]
fn gantt_renders_bars() {
    let env = generate_env("12", "3");
    let out = slotsel(&["gantt", "--env", env.to_str().unwrap(), "--width", "40"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(text.lines().count(), 12);
    assert!(text.contains('#') || text.contains('.'), "{text}");
    let _ = std::fs::remove_file(env);
}

#[test]
fn validate_roundtrip_and_rejection() {
    let env = generate_env("25", "8");
    let window = temp_path("window.json");
    // Select a window as JSON…
    let out = slotsel(&[
        "validate",
        "--env",
        env.to_str().unwrap(),
        "--algorithm",
        "mincost",
        "--n",
        "3",
        "--budget",
        "5000",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    std::fs::write(&window, stdout(&out)).unwrap();
    // …validate it against the same request…
    let out = slotsel(&[
        "validate",
        "--env",
        env.to_str().unwrap(),
        "--n",
        "3",
        "--budget",
        "5000",
        "--window",
        window.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("valid"));
    // …and watch it fail against a tighter budget.
    let out = slotsel(&[
        "validate",
        "--env",
        env.to_str().unwrap(),
        "--n",
        "3",
        "--budget",
        "1",
        "--window",
        window.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("budget"));
    let _ = std::fs::remove_file(env);
    let _ = std::fs::remove_file(window);
}

#[test]
fn serve_daemon_exposes_scrapeable_metrics() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::process::Stdio;
    use std::time::Duration;

    let mut child = Command::new(env!("CARGO_BIN_EXE_slotsel"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--nodes",
            "8",
            "--jobs",
            "4",
            "--cycles",
            "5",
            "--rounds",
            "0",
            "--pace-ms",
            "50",
            "--faults",
            "99",
            "--recovery",
            "retry",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve daemon spawns");

    // The daemon prints its bound address first; --addr 127.0.0.1:0 makes
    // the OS pick a free port, so parse it back out.
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let banner = lines
        .next()
        .expect("daemon prints its address")
        .expect("readable stdout");
    let addr = banner
        .trim_start_matches("serving metrics on http://")
        .trim_end_matches("/metrics")
        .to_owned();
    assert!(
        addr.starts_with("127.0.0.1:"),
        "unexpected banner: {banner}"
    );
    // Wait for at least one completed round so every layer has recorded.
    let round_line = lines.find(|l| {
        l.as_ref()
            .map(|l| l.starts_with("round 0:"))
            .unwrap_or(true)
    });
    assert!(round_line.is_some(), "daemon never finished a round");

    let scrape = |path: &str| -> String {
        let mut stream = TcpStream::connect(&addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    };

    let health = scrape("/healthz");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");

    let metrics = scrape("/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
    for needle in [
        "# TYPE slotsel_rolling_cycles_total counter",
        "# TYPE slotsel_survival_rate gauge",
        "# TYPE slotsel_rolling_cycle_seconds histogram",
        "slotsel_serve_rounds_total",
    ] {
        assert!(metrics.contains(needle), "{needle} missing from scrape");
    }

    child.kill().expect("daemon stops");
    let _ = child.wait();
}

#[test]
fn serve_journals_rounds_and_recovers_a_torn_journal() {
    let dir = temp_path("serve-journal");
    let _ = std::fs::remove_dir_all(&dir);
    let serve_args = |extra: &[&str]| -> Vec<String> {
        let mut args: Vec<String> = [
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--nodes",
            "8",
            "--jobs",
            "4",
            "--cycles",
            "5",
            "--rounds",
            "2",
            "--pace-ms",
            "10",
            "--faults",
            "7",
            "--recovery",
            "retry",
            "--snapshot-every",
            "2",
            "--journal-dir",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        args.push(dir.to_str().unwrap().to_owned());
        args.extend(extra.iter().map(|s| (*s).to_owned()));
        args
    };

    // Two journaled rounds run to completion and leave durable state.
    let out = Command::new(env!("CARGO_BIN_EXE_slotsel"))
        .args(serve_args(&[]))
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", stderr(&out));
    let first = stdout(&out);
    let round_1_line = first
        .lines()
        .find(|l| l.starts_with("round 1:"))
        .expect("round 1 report")
        .to_owned();
    for round in ["round-000000", "round-000001"] {
        assert!(dir.join(round).join("journal.wal").is_file(), "{round}");
        assert!(
            std::fs::read_dir(dir.join(round).join("snapshots"))
                .map(|entries| entries.count() > 0)
                .unwrap_or(false),
            "{round} must hold at least the final snapshot"
        );
    }

    // Simulate a crash mid-round-1: drop the RunFinished record, tear the
    // line before it, and lose the snapshots (a crash can predate both).
    let journal = dir.join("round-000001").join("journal.wal");
    let bytes = std::fs::read(&journal).unwrap();
    let last_line = 1 + bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .expect("multi-line journal");
    let prev_line = 1 + bytes[..last_line - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .expect("journal has a body");
    std::fs::write(&journal, &bytes[..prev_line + (last_line - prev_line) / 2]).unwrap();
    let _ = std::fs::remove_dir_all(dir.join("round-000001").join("snapshots"));

    // --recover resumes round 1 from the torn journal and reproduces the
    // uninterrupted round's report exactly, then stops: both rounds done.
    let out = Command::new(env!("CARGO_BIN_EXE_slotsel"))
        .args(serve_args(&["--recover"]))
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", stderr(&out));
    let second = stdout(&out);
    assert!(
        second.contains("recover: resuming round 1"),
        "missing resume banner:\n{second}"
    );
    let recovered_line = second
        .lines()
        .find(|l| l.starts_with("round 1:"))
        .expect("recovered round 1 report");
    assert_eq!(
        recovered_line, round_1_line,
        "recovery must reproduce the uninterrupted round bit-identically"
    );
    assert!(
        !second.contains("round 2:"),
        "--rounds 2 is already satisfied after recovery:\n{second}"
    );
    // The healed journal is whole again: a second --recover run finds the
    // last round finished and exits without re-running anything.
    let out = Command::new(env!("CARGO_BIN_EXE_slotsel"))
        .args(serve_args(&["--recover"]))
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("recover: round 1 already finished"),
        "{}",
        stdout(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_recover_requires_a_journal_dir() {
    let out = slotsel(&["serve", "--recover", "--rounds", "1"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--recover requires --journal-dir"));
}

/// Spawns `slotsel serve --live` with `extra` flags appended, waits for
/// the banner and returns the child plus its bound `host:port`.
fn spawn_live(extra: &[&str]) -> (std::process::Child, String) {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    // Extras come first: flag lookup takes the first occurrence, so a
    // caller's --cycle-ms overrides the fast default below.
    let mut args = vec!["serve", "--live"];
    args.extend_from_slice(extra);
    args.extend_from_slice(&["--addr", "127.0.0.1:0", "--cycle-ms", "25"]);
    let mut child = Command::new(env!("CARGO_BIN_EXE_slotsel"))
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("live daemon spawns");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let banner = loop {
        let line = lines
            .next()
            .expect("daemon prints its address")
            .expect("readable stdout");
        if line.starts_with("serving metrics on ") {
            break line;
        }
    };
    let addr = banner
        .trim_start_matches("serving metrics on http://")
        .trim_end_matches("/metrics")
        .to_owned();
    assert!(
        addr.starts_with("127.0.0.1:"),
        "unexpected banner: {banner}"
    );
    // Keep draining stdout so the daemon never blocks (or EPIPEs) on a
    // full pipe; the thread exits at EOF when the daemon does.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

/// One HTTP exchange against a live daemon; returns the raw response.
fn live_request(addr: &str, method: &str, path: &str, body: &str) -> String {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

fn response_body(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .unwrap_or("")
}

/// Polls `GET /job/{id}` until its state leaves "queued" (or panics).
fn wait_for_schedule(addr: &str, job: u32) -> String {
    for _ in 0..400 {
        let response = live_request(addr, "GET", &format!("/job/{job}"), "");
        let body = response_body(&response);
        if !body.contains("\"state\":\"queued\"") {
            return body.to_owned();
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    panic!("job {job} never left the queue");
}

#[test]
fn live_serve_schedules_concurrent_submits_from_two_tenants() {
    let (mut child, addr) = spawn_live(&["--nodes", "12"]);

    // Two tenants submit concurrently over real TCP connections.
    let submits: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = ["alice", "bob"]
            .into_iter()
            .map(|tenant| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let body = format!(
                        "{{\"tenant\":\"{tenant}\",\"nodes\":2,\"volume\":80,\"budget\":500.0}}"
                    );
                    live_request(&addr, "POST", "/submit", &body)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut jobs = Vec::new();
    for response in &submits {
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        let body = response_body(response);
        let id: u32 = body
            .split("\"job\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .expect("job id in response")
            .parse()
            .expect("numeric job id");
        jobs.push(id);
    }
    jobs.sort_unstable();
    assert_eq!(jobs, vec![0, 1], "concurrent submits must get distinct ids");

    // Both jobs leave the queue once a cycle picks them up.
    for job in jobs {
        let body = wait_for_schedule(&addr, job);
        assert!(
            body.contains("\"state\":\"scheduled\"") || body.contains("\"state\":\"finished\""),
            "{body}"
        );
        assert!(
            body.contains("\"start\":"),
            "scheduled job has a window: {body}"
        );
    }

    // Both tenants appear in the ndjson roster and the metrics scrape.
    let tenants = live_request(&addr, "GET", "/tenants", "");
    assert!(tenants.contains("application/x-ndjson"), "{tenants}");
    assert!(tenants.contains("\"tenant\":\"alice\""), "{tenants}");
    assert!(tenants.contains("\"tenant\":\"bob\""), "{tenants}");
    let metrics = live_request(&addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("slotsel_serve_submits_total{tenant=\"alice\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("slotsel_serve_submits_total{tenant=\"bob\"} 1"),
        "{metrics}"
    );

    let state = live_request(&addr, "GET", "/state", "");
    assert!(response_body(&state).contains("\"jobs\":2"), "{state}");

    let bye = live_request(&addr, "POST", "/shutdown", "");
    assert!(bye.starts_with("HTTP/1.1 200"), "{bye}");
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "clean shutdown");
}

#[test]
fn live_serve_survives_a_trillion_credit_budget() {
    // Sized in 1-credit units, this budget's MCKP table would need
    // ~8 TB; the solver refuses it and phase 2 falls back to greedy.
    let (mut child, addr) = spawn_live(&["--nodes", "8"]);
    let body = r#"{"tenant":"whale","nodes":2,"volume":80,"budget":1e12}"#;
    let response = live_request(&addr, "POST", "/submit", body);
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");

    let job = wait_for_schedule(&addr, 0);
    assert!(job.contains("\"start\":"), "the cycle completed: {job}");
    let health = live_request(&addr, "GET", "/healthz", "");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");

    let bye = live_request(&addr, "POST", "/shutdown", "");
    assert!(bye.starts_with("HTTP/1.1 200"), "{bye}");
    assert!(child.wait().expect("daemon exits").success());
}

#[test]
fn live_serve_rejects_over_quota_submits_with_a_typed_error() {
    let quota_file = temp_path("live-quotas.json");
    std::fs::write(
        &quota_file,
        r#"{"tenants":{"alice":{"max_pending":1},"bob":{}}}"#,
    )
    .unwrap();
    // --cycle-ms far beyond the test: nothing schedules, so alice's first
    // job pins her pending count at 1.
    let (mut child, addr) = spawn_live(&[
        "--cycle-ms",
        "60000",
        "--quota-file",
        quota_file.to_str().unwrap(),
    ]);

    let submit = |tenant: &str| {
        live_request(
            &addr,
            "POST",
            "/submit",
            &format!("{{\"tenant\":\"{tenant}\",\"nodes\":2,\"volume\":80,\"budget\":500.0}}"),
        )
    };
    assert!(submit("alice").starts_with("HTTP/1.1 200"));

    // Second submit breaches max_pending: 429 with a machine-readable code.
    let rejected = submit("alice");
    assert!(rejected.starts_with("HTTP/1.1 429"), "{rejected}");
    assert!(rejected.contains("application/json"), "{rejected}");
    assert!(
        response_body(&rejected).contains("\"error\":\"quota_exceeded\""),
        "{rejected}"
    );

    // The quota table is closed (no default): strangers get 403.
    let stranger = submit("mallory");
    assert!(stranger.starts_with("HTTP/1.1 403"), "{stranger}");
    assert!(
        response_body(&stranger).contains("\"error\":\"unknown_tenant\""),
        "{stranger}"
    );

    // Malformed bodies get 400 with the same error shape.
    let bad = live_request(&addr, "POST", "/submit", "{\"tenant\":\"bob\"}");
    assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
    assert!(
        response_body(&bad).contains("\"error\":\"bad_request\""),
        "{bad}"
    );

    let rejects = live_request(&addr, "GET", "/metrics", "");
    assert!(
        rejects.contains("slotsel_serve_rejects_total{code=\"quota_exceeded\"} 1"),
        "{rejects}"
    );

    live_request(&addr, "POST", "/shutdown", "");
    let _ = child.wait();
    let _ = std::fs::remove_file(&quota_file);
}

#[test]
fn live_serve_recovers_accepted_submits_after_a_kill() {
    let dir = temp_path("live-recover");
    let _ = std::fs::remove_dir_all(&dir);

    // Long cycle pace: the submit is accepted (and journaled) but no
    // cycle barrier ever covers it before the crash.
    let (mut child, addr) = spawn_live(&[
        "--cycle-ms",
        "60000",
        "--journal-dir",
        dir.to_str().unwrap(),
    ]);
    let accepted = live_request(
        &addr,
        "POST",
        "/submit",
        "{\"tenant\":\"alice\",\"nodes\":2,\"volume\":80,\"budget\":500.0}",
    );
    assert!(accepted.starts_with("HTTP/1.1 200"), "{accepted}");
    child.kill().expect("simulated crash");
    let _ = child.wait();

    // --recover re-applies the fsync'd Submitted record: the job is back
    // in the queue with the same id, tenant and shard.
    let (mut child, addr) = spawn_live(&[
        "--cycle-ms",
        "60000",
        "--journal-dir",
        dir.to_str().unwrap(),
        "--recover",
    ]);
    let job = live_request(&addr, "GET", "/job/0", "");
    assert!(job.starts_with("HTTP/1.1 200"), "{job}");
    let body = response_body(&job);
    assert!(body.contains("\"tenant\":\"alice\""), "{body}");
    assert!(body.contains("\"state\":\"queued\""), "{body}");

    live_request(&addr, "POST", "/shutdown", "");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_serve_journals_disjoint_shard_commits_distinctly() {
    use slotsel::sim::serve::LiveRecord;

    let dir = temp_path("live-shards");
    let _ = std::fs::remove_dir_all(&dir);

    let (mut child, addr) = spawn_live(&[
        "--shards",
        "2",
        "--nodes",
        "10",
        "--journal-dir",
        dir.to_str().unwrap(),
    ]);
    for shard in 0..2 {
        let response = live_request(
            &addr,
            "POST",
            "/submit",
            &format!(
                "{{\"tenant\":\"t{shard}\",\"nodes\":2,\"volume\":80,\
                 \"budget\":500.0,\"shard\":{shard}}}"
            ),
        );
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    }
    wait_for_schedule(&addr, 0);
    wait_for_schedule(&addr, 1);
    live_request(&addr, "POST", "/shutdown", "");
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "clean shutdown");

    // Each shard's commit lands in its own audit record, named by shard.
    let tail =
        slotsel::obs::journal::read_journal(&dir.join("journal.wal")).expect("readable journal");
    assert!(!tail.torn, "clean shutdown leaves no torn tail");
    let mut committed_shards = Vec::new();
    for line in &tail.records {
        if let Ok(LiveRecord::Committed { shard, .. }) = LiveRecord::decode(line) {
            committed_shards.push(shard);
        }
    }
    committed_shards.sort_unstable();
    committed_shards.dedup();
    assert_eq!(
        committed_shards,
        vec![0, 1],
        "both shards must commit in distinct journal records"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_shutdown_endpoint_stops_the_daemon_cleanly() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::process::Stdio;
    use std::time::Duration;

    let dir = temp_path("serve-shutdown");
    let _ = std::fs::remove_dir_all(&dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_slotsel"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--nodes",
            "8",
            "--jobs",
            "4",
            "--cycles",
            "4",
            "--rounds",
            "0",
            "--pace-ms",
            "10",
            "--journal-dir",
            dir.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve daemon spawns");

    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let banner = lines
        .next()
        .expect("daemon prints its address")
        .expect("readable stdout");
    let addr = banner
        .trim_start_matches("serving metrics on http://")
        .trim_end_matches("/metrics")
        .to_owned();
    lines
        .find(|l| {
            l.as_ref()
                .map(|l| l.starts_with("round 0:"))
                .unwrap_or(true)
        })
        .expect("daemon finishes a round")
        .expect("readable round report");

    let mut stream = TcpStream::connect(&addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "POST /shutdown HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");

    // The daemon drains: it finishes the in-flight round (journal flushed,
    // final snapshot written) and exits zero on its own.
    let farewell: Vec<String> = lines.map_while(Result::ok).collect();
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "clean exit after /shutdown");
    assert!(
        farewell.iter().any(|l| l.contains("shutdown requested")),
        "missing shutdown farewell: {farewell:?}"
    );
    // Every journal left on disk is finished, never torn mid-round.
    for entry in std::fs::read_dir(&dir).expect("journal dir exists") {
        let round = entry.unwrap().path();
        assert!(round.join("journal.wal").is_file(), "{}", round.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_env_file_is_a_clean_error() {
    let out = slotsel(&["info", "--env", "/nonexistent/slotsel.json"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("error:"));
}

#[test]
fn live_serve_debug_endpoints_expose_trace_timeline_and_spans() {
    use slotsel::obs::chrome;

    let (mut child, addr) = spawn_live(&["--shards", "2", "--nodes", "12"]);

    // Submit two jobs, one pinned to each shard, and wait until a cycle
    // has scheduled them so the flight recorder holds real span trees.
    for shard in 0..2 {
        let body = format!(
            "{{\"tenant\":\"alice\",\"nodes\":2,\"volume\":80,\"budget\":500.0,\"shard\":{shard}}}"
        );
        let response = live_request(&addr, "POST", "/submit", &body);
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    }
    for job in 0..2 {
        wait_for_schedule(&addr, job);
    }

    // /debug/trace serves Chrome trace-event JSON that satisfies the
    // exporter's invariants: parents exist, children nest inside their
    // parents, and each (process, track) lane is overlap-free.
    let trace = live_request(&addr, "GET", "/debug/trace", "");
    assert!(trace.starts_with("HTTP/1.1 200"), "{trace}");
    let summary = chrome::validate(response_body(&trace)).expect("valid Chrome trace");
    assert!(summary.spans > 0, "flight recorder captured spans");
    assert!(
        summary.processes > 0,
        "one trace process per recorded cycle"
    );
    assert!(
        summary.tracks >= 3,
        "coordinator track plus one per shard: {summary:?}"
    );
    for name in ["serve.cycle", "serve.shard", "batch.schedule"] {
        assert!(
            response_body(&trace).contains(&format!("\"name\":\"{name}\"")),
            "trace names {name}"
        );
    }

    // /debug/job/{id}/timeline replays the job's lifecycle in order.
    let timeline = live_request(&addr, "GET", "/debug/job/0/timeline", "");
    assert!(timeline.starts_with("HTTP/1.1 200"), "{timeline}");
    let events = response_body(&timeline);
    assert!(events.contains("\"event\":\"submitted\""), "{events}");
    assert!(events.contains("\"event\":\"committed\""), "{events}");
    let submitted_line = events
        .lines()
        .position(|l| l.contains("\"submitted\""))
        .unwrap();
    let committed_line = events
        .lines()
        .position(|l| l.contains("\"committed\""))
        .unwrap();
    assert!(submitted_line < committed_line, "lifecycle order: {events}");
    let missing = live_request(&addr, "GET", "/debug/job/99/timeline", "");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

    // /debug/spans summarises per-phase durations.
    let spans = live_request(&addr, "GET", "/debug/spans", "");
    assert!(spans.starts_with("HTTP/1.1 200"), "{spans}");
    assert!(
        response_body(&spans).contains("\"name\":\"serve.cycle\""),
        "{spans}"
    );
    assert!(response_body(&spans).contains("\"mean_us\":"), "{spans}");

    // The scrape carries the build-info gauge and the per-endpoint HTTP
    // serving metrics (ids collapsed to a bounded {id} label).
    let metrics = live_request(&addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("slotsel_build_info{"),
        "build info gauge: {metrics}"
    );
    assert!(metrics.contains("store=\"tree\""), "{metrics}");
    assert!(metrics.contains("shards=\"2\""), "{metrics}");
    assert!(
        metrics.contains("slotsel_http_requests_total{path=\"/debug/trace\",status=\"200\"}"),
        "{metrics}"
    );
    assert!(
        metrics.contains("path=\"/debug/job/{id}/timeline\""),
        "{metrics}"
    );
    assert!(
        metrics.contains("slotsel_http_request_seconds"),
        "{metrics}"
    );

    let bye = live_request(&addr, "POST", "/shutdown", "");
    assert!(bye.starts_with("HTTP/1.1 200"), "{bye}");
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "clean shutdown");
}
