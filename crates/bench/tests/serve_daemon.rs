//! End-to-end contract of the `msched serve` daemon, driven through the
//! real binary over loopback: failure modes (malformed requests,
//! mid-solve disconnects, repeated shutdowns) must degrade gracefully,
//! and daemon answers must match batch-mode solves bit-exactly.

use malleable_bench::jsonin::Json;
use malleable_bench::parallel::key_hash;
use malleable_bench::serve::Client;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

/// A running daemon child process; killed on drop so a failing test
/// never leaks a listener.
struct Daemon {
    child: Child,
    addr: String,
    // Keeps the stdout pipe open for the daemon's shutdown summary.
    _stdout: BufReader<std::process::ChildStdout>,
}

impl Daemon {
    fn spawn(extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_msched"))
            .args(["serve", "--addr", "127.0.0.1:0", "--shards", "2"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("daemon spawns");
        // The daemon prints `serve: listening on ADDR` once bound.
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = BufReader::new(stdout);
        let mut first = String::new();
        lines
            .read_line(&mut first)
            .expect("daemon announces itself");
        let addr = first
            .trim()
            .strip_prefix("serve: listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {first:?}"))
            .to_string();
        Daemon {
            child,
            addr,
            _stdout: lines,
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr).expect("daemon accepts connections")
    }

    /// Graceful shutdown; returns once the process has exited cleanly.
    fn shutdown(mut self) {
        let mut c = self.client();
        let resp = c
            .request("{\"op\":\"shutdown\"}")
            .expect("shutdown accepted");
        assert!(is_ok(&resp), "{resp:?}");
        drop(c);
        let status = self.child.wait().expect("daemon exits");
        assert!(status.success(), "daemon exit status {status:?}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn is_ok(v: &Json) -> bool {
    v.get("ok") == Some(&Json::Bool(true))
}

#[test]
fn malformed_requests_get_structured_errors_and_the_connection_survives() {
    let daemon = Daemon::spawn(&[]);
    let mut c = daemon.client();
    for bad in [
        "this is not json",
        "[1,2,3]",
        "{\"no\":\"op\"}",
        "{\"op\":\"frobnicate\"}",
        "{\"op\":\"submit\",\"tenant\":\"x\"}",
    ] {
        let resp = c.request(bad).expect("protocol errors keep the connection");
        assert!(!is_ok(&resp), "{bad}: {resp:?}");
        let msg = resp.get("error").and_then(Json::as_str).unwrap_or("");
        assert!(!msg.is_empty(), "{bad}: error field missing");
    }
    // Same connection, still healthy.
    let pong = c.request("{\"op\":\"ping\"}").expect("connection alive");
    assert!(is_ok(&pong), "{pong:?}");
    drop(c);
    daemon.shutdown();
}

#[test]
fn client_disconnect_during_a_solve_does_not_poison_the_shard() {
    let daemon = Daemon::spawn(&[]);
    {
        let mut c = daemon.client();
        for i in 0..6 {
            let first = if i == 0 { ",\"p\":4" } else { "" };
            let line = format!(
                "{{\"op\":\"submit\",\"tenant\":\"rude\",\"volume\":{}{first}}}",
                i + 1
            );
            assert!(is_ok(&c.request(&line).unwrap()), "{line}");
        }
        // Fire the solve and vanish without reading the answer: the write
        // lands, the connection drops mid-solve.
        let mut raw = std::net::TcpStream::connect(&daemon.addr).expect("second connection");
        raw.write_all(b"{\"op\":\"schedule\",\"tenant\":\"rude\",\"policy\":\"wdeq\"}\n")
            .expect("request written");
        drop(raw);
        drop(c);
    }
    // The shard that owned `rude` must still answer, with state intact.
    let mut c = daemon.client();
    let tm = c
        .request("{\"op\":\"metrics\",\"tenant\":\"rude\"}")
        .expect("shard alive");
    assert_eq!(tm.get("tasks").and_then(Json::as_f64), Some(6.0), "{tm:?}");
    let resp = c
        .request("{\"op\":\"schedule\",\"tenant\":\"rude\",\"policy\":\"wdeq\"}")
        .expect("shard solves again");
    assert!(is_ok(&resp), "{resp:?}");
    drop(c);
    daemon.shutdown();
}

#[test]
fn concurrent_clients_on_one_shard_each_keep_their_tenant() {
    // Four tenants that hash to the same one of the daemon's two shard
    // locks, each driven by its own connection: the lock serializes
    // them, and every answer and every count must still be exact.
    let tenants: Vec<String> = (0..)
        .map(|i| format!("crowd-{i}"))
        .filter(|t| key_hash(t).is_multiple_of(2))
        .take(4)
        .collect();
    let daemon = Daemon::spawn(&[]);
    std::thread::scope(|scope| {
        for tenant in &tenants {
            let mut c = daemon.client();
            scope.spawn(move || {
                for i in 0..100 {
                    let first = if i == 0 { ",\"p\":4" } else { "" };
                    let line = format!(
                        "{{\"op\":\"submit\",\"tenant\":\"{tenant}\",\"volume\":{}{first}}}",
                        i % 5 + 1
                    );
                    let resp = c.request(&line).expect("submit answers");
                    assert!(is_ok(&resp), "{line}: {resp:?}");
                    if i % 25 == 24 {
                        let line = format!(
                            "{{\"op\":\"schedule\",\"tenant\":\"{tenant}\",\"policy\":\"wdeq\"}}"
                        );
                        let resp = c.request(&line).expect("schedule answers");
                        assert!(is_ok(&resp), "{line}: {resp:?}");
                        assert_eq!(resp.get("n").and_then(Json::as_f64), Some(f64::from(i + 1)));
                    }
                }
            });
        }
    });
    let mut c = daemon.client();
    for tenant in &tenants {
        let line = format!("{{\"op\":\"metrics\",\"tenant\":\"{tenant}\"}}");
        let tm = c.request(&line).expect("tenant metrics");
        assert_eq!(
            tm.get("tasks").and_then(Json::as_f64),
            Some(100.0),
            "{tm:?}"
        );
        assert_eq!(tm.get("solves").and_then(Json::as_f64), Some(4.0), "{tm:?}");
    }
    let m = c.request("{\"op\":\"metrics\"}").expect("global metrics");
    assert_eq!(
        m.get("serve.submits").and_then(Json::as_f64),
        Some(400.0),
        "{m:?}"
    );
    assert_eq!(
        m.get("serve.solve_errors").and_then(Json::as_f64),
        Some(0.0),
        "{m:?}"
    );
    drop(c);
    daemon.shutdown();
}

#[test]
fn closed_loop_submits_are_not_stalled() {
    // Each request waits for its answer before the next is sent. A split
    // write without TCP_NODELAY stalls every round trip on Nagle and
    // delayed ACKs (~90 ms each, ~18 s for this loop); a per-submit
    // rebuild makes the loop quadratic. The bound is loose on purpose.
    let daemon = Daemon::spawn(&[]);
    let mut c = daemon.client();
    let start = std::time::Instant::now();
    for i in 0..200 {
        let first = if i == 0 { ",\"p\":8" } else { "" };
        let line = format!(
            "{{\"op\":\"submit\",\"tenant\":\"loop\",\"volume\":{}{first}}}",
            i % 7 + 1
        );
        assert!(is_ok(&c.request(&line).unwrap()), "{line}");
    }
    let resp = c
        .request("{\"op\":\"schedule\",\"tenant\":\"loop\",\"policy\":\"wdeq\"}")
        .expect("schedule answers");
    let elapsed = start.elapsed();
    assert!(is_ok(&resp), "{resp:?}");
    assert_eq!(resp.get("n").and_then(Json::as_f64), Some(200.0));
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "200 closed-loop submits and a schedule took {elapsed:?}"
    );
    drop(c);
    daemon.shutdown();
}

#[test]
fn shutdown_is_idempotent_on_one_connection_and_exits_cleanly() {
    let daemon = Daemon::spawn(&[]);
    let mut c = daemon.client();
    let first = c.request("{\"op\":\"shutdown\"}").expect("first shutdown");
    let second = c.request("{\"op\":\"shutdown\"}").expect("second shutdown");
    assert!(is_ok(&first) && is_ok(&second), "{first:?} / {second:?}");
    drop(c);
    let mut daemon = daemon;
    let status = daemon.child.wait().expect("daemon exits");
    assert!(status.success(), "{status:?}");
}

#[test]
fn two_tenant_submissions_match_batch_mode_bit_exactly_and_flush_a_valid_trace() {
    let dir = std::env::temp_dir().join(format!("msched-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    let trace_path = dir.join("TRACE_serve_test.json");
    let instance_a = dir.join("a.txt");
    let instance_b = dir.join("b.txt");
    std::fs::write(&instance_a, "p 3\ntask 2 1 2\ntask 1 2 1\ntask 1 1 3\n").unwrap();
    std::fs::write(&instance_b, "p 2\ntask 4 1 2\ntask 2 3 1\n").unwrap();

    let daemon = Daemon::spawn(&["--trace", trace_path.to_str().unwrap()]);
    let msched = env!("CARGO_BIN_EXE_msched");
    let completions = |out: &std::process::Output| -> Vec<String> {
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.contains("completes at"))
            .map(str::to_string)
            .collect()
    };
    for (file, tenant, policy) in [
        (&instance_a, "alpha", "wdeq"),
        (&instance_b, "beta", "greedy-smith"),
    ] {
        let served = Command::new(msched)
            .args([
                "submit",
                file.to_str().unwrap(),
                "--addr",
                &daemon.addr,
                "--tenant",
                tenant,
                "--policy",
                policy,
            ])
            .output()
            .expect("msched submit runs");
        let batch = Command::new(msched)
            .args([file.to_str().unwrap(), "--policy", policy])
            .output()
            .expect("msched batch runs");
        let served_lines = completions(&served);
        let batch_lines = completions(&batch);
        assert!(!served_lines.is_empty(), "{tenant}: no completions served");
        assert_eq!(
            served_lines, batch_lines,
            "{tenant}/{policy}: daemon and batch mode must agree bit-exactly"
        );
    }

    let shutdown = Command::new(msched)
        .args(["shutdown", "--addr", &daemon.addr])
        .output()
        .expect("msched shutdown runs");
    assert!(shutdown.status.success());
    let mut daemon = daemon;
    let status = daemon.child.wait().expect("daemon exits");
    assert!(status.success(), "{status:?}");

    // The flushed trace is well-formed Chrome trace-event JSON.
    let text = std::fs::read_to_string(&trace_path).expect("trace flushed");
    let stats = malleable_trace::chrome::validate_chrome_json(&text)
        .unwrap_or_else(|e| panic!("invalid trace: {e}"));
    assert!(stats.begins > 0, "trace records no spans");
}
