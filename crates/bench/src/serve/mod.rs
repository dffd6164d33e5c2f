//! `msched serve` — a long-running scheduler daemon with streaming
//! arrivals.
//!
//! The daemon listens on a TCP socket for newline-delimited JSON
//! requests (see [`protocol`]), keeps one malleable-task
//! [`Instance`] per **tenant**, and
//! solves on demand: clairvoyant tenants (all release times zero) run
//! through the batch policy registry — the *same* code path as `msched
//! <file> --policy X`, so daemon answers are bit-exact against batch
//! solves — while tenants with positive release times run the online
//! policies under `malleable_sim`'s event-driven replay core against
//! their streaming arrivals.
//!
//! Tenants are sharded over a [`crate::parallel::ShardPool`]: a tenant
//! key always routes to the same stateful worker, so tenant state is
//! single-threaded by construction and solves for different tenants
//! proceed in parallel. Shutdown is graceful by the pool's drain
//! semantics — queued solves finish before workers exit — and, when the
//! daemon was started with a trace path, the session flushes a validated
//! Chrome trace on the way out.
//!
//! Everything here is `std` networking plus the two vendored concurrency
//! crates; there is no async runtime, no serde, no HTTP.

pub mod protocol;

use crate::jsonin::json_string;
use crate::parallel::ShardPool;
use crate::serve::protocol::{error_response, json_num, ok_response, parse_request, Request};
use crossbeam::channel::Sender;
use malleable_core::bounds::arrival_aware_lower_bound;
use malleable_core::instance::{Instance, Task};
use malleable_core::policy::{self, PolicyRun};
use malleable_opt::brute::optimal_schedule;
use malleable_sim::policies::ONLINE_POLICY_NAMES;
use malleable_trace::MetricSet;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of one daemon run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7420` (`:0` picks a free port; the
    /// daemon prints the resolved address on stdout).
    pub addr: String,
    /// Number of tenant shards (stateful worker threads). Clamped to at
    /// least 1.
    pub shards: usize,
    /// When set, record the whole run as a Chrome trace and write it
    /// here on graceful shutdown.
    pub trace_path: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7420".to_string(),
            shards: 2,
            trace_path: None,
        }
    }
}

/// Daemon counter snapshot, exported through the unified
/// [`MetricSet`] registry (slot names are the wire names in the
/// `metrics` response and in the flushed trace).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Request lines received (including malformed ones).
    pub requests: u64,
    /// Tasks accepted by `submit`.
    pub submits: u64,
    /// Successful `schedule` solves.
    pub solves: u64,
    /// Malformed requests answered with a protocol error.
    pub protocol_errors: u64,
    /// `submit`/`schedule` requests that failed validation or solving.
    pub solve_errors: u64,
}

impl MetricSet for ServeMetrics {
    const NAMES: &'static [&'static str] = &[
        "serve.requests",
        "serve.submits",
        "serve.solves",
        "serve.protocol_errors",
        "serve.solve_errors",
    ];

    fn get(&self, i: usize) -> u64 {
        [
            self.requests,
            self.submits,
            self.solves,
            self.protocol_errors,
            self.solve_errors,
        ][i]
    }

    fn set(&mut self, i: usize, value: u64) {
        let slot = [
            &mut self.requests,
            &mut self.submits,
            &mut self.solves,
            &mut self.protocol_errors,
            &mut self.solve_errors,
        ];
        *slot[i] = value;
    }
}

/// Live atomic counters shared by every daemon thread.
#[derive(Default)]
struct Counters {
    slots: [AtomicU64; 5],
}

impl Counters {
    fn bump(&self, i: usize) {
        self.slots[i].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ServeMetrics {
        let mut m = ServeMetrics::default();
        for i in 0..ServeMetrics::NAMES.len() {
            m.set(i, self.slots[i].load(Ordering::Relaxed));
        }
        m
    }
}

const REQUESTS: usize = 0;
const SUBMITS: usize = 1;
const SOLVES: usize = 2;
const PROTOCOL_ERRORS: usize = 3;
const SOLVE_ERRORS: usize = 4;

/// One tenant's state on its shard: the validated instance its submits
/// have grown (one [`Instance::push`] each) and its solve counters. A
/// tenant exists only once its first task is accepted.
#[derive(Debug)]
struct Tenant {
    instance: Instance,
    solves: u64,
    last_cost: Option<f64>,
}

/// A request routed to a shard worker, with its reply channel. The
/// worker always answers; if the client has gone away by then, the
/// reply send is a no-op and the shard moves on unharmed.
struct ShardReq {
    req: Request,
    reply: Sender<String>,
}

/// Solve `instance` with the policy `name` — the routing shared by the
/// daemon and batch-mode `msched`. An instance with release times runs
/// under the online engine and only accepts an online rule name; any
/// other instance goes to the batch registry, or to the brute-force
/// optimum for `optimal`. Returns the run (with the registry policy's
/// certificate, if any) and its mode tag, `"online"` or `"batch"`.
///
/// # Errors
/// A one-line message for an unknown name, a name that cannot run
/// against streaming arrivals, or a failed solve.
pub fn solve(instance: &Instance, name: &str) -> Result<(PolicyRun, &'static str), String> {
    if instance.has_arrivals() {
        let rule = malleable_sim::policies::by_name::<f64>(name).ok_or_else(|| {
            format!(
                "policy {name:?} cannot run against streaming arrivals \
                 (online policies: {})",
                ONLINE_POLICY_NAMES.join(", ")
            )
        })?;
        let run = malleable_sim::simulate(instance, rule.as_ref()).map_err(|e| e.to_string())?;
        let run = PolicyRun {
            schedule: run.schedule,
            certificate: None,
        };
        return Ok((run, "online"));
    }
    if name == "optimal" {
        let opt = optimal_schedule(instance).map_err(|e| e.to_string())?;
        let run = PolicyRun {
            schedule: opt.schedule,
            certificate: None,
        };
        return Ok((run, "batch"));
    }
    let p = policy::by_name::<f64>(name)
        .ok_or_else(|| format!("unknown policy {name:?}; try msched --list-policies"))?;
    let run = p.run(instance).map_err(|e| e.to_string())?;
    Ok((run, "batch"))
}

/// Handle one tenant-keyed request on its shard. Every path returns a
/// single-line JSON response; errors never poison tenant state.
fn handle_tenant_request(
    tenants: &mut BTreeMap<String, Tenant>,
    req: &Request,
    counters: &Counters,
) -> String {
    match req {
        Request::Submit {
            tenant,
            p,
            volume,
            weight,
            delta,
            arrival,
        } => {
            let reject = |msg: String| {
                counters.bump(SOLVE_ERRORS);
                error_response(&msg)
            };
            // A new tenant's capacity is pinned by its first submit, and
            // the tenant is inserted only once that task is accepted.
            let mut fresh = None;
            let instance = match (tenants.get_mut(tenant), p) {
                (Some(entry), Some(cap)) if *cap != entry.instance.p => {
                    return reject(format!(
                        "tenant {tenant:?} already has p = {}, cannot change it to {cap}",
                        entry.instance.p
                    ));
                }
                (Some(entry), _) => &mut entry.instance,
                (None, None) => {
                    return reject(format!(
                        "tenant {tenant:?} has no capacity yet: the first submit \
                         must carry \"p\""
                    ));
                }
                (None, Some(cap)) => match Instance::builder(*cap).build() {
                    Ok(empty) => fresh.insert(empty),
                    Err(e) => return reject(format!("rejected task for tenant {tenant:?}: {e}")),
                },
            };
            let task = Task::new(*volume, *weight, delta.unwrap_or(instance.p));
            if let Err(e) = instance.push(task, *arrival) {
                return reject(format!("rejected task for tenant {tenant:?}: {e}"));
            }
            let n = instance.n();
            if let Some(instance) = fresh {
                let entry = Tenant {
                    instance,
                    solves: 0,
                    last_cost: None,
                };
                tenants.insert(tenant.clone(), entry);
            }
            counters.bump(SUBMITS);
            ok_response(
                "submit",
                &[
                    format!("\"tenant\":{}", json_string(tenant)),
                    format!("\"tasks\":{n}"),
                ],
            )
        }
        Request::Schedule { tenant, policy } => {
            let Some(entry) = tenants.get_mut(tenant) else {
                counters.bump(SOLVE_ERRORS);
                return error_response(&format!("unknown tenant {tenant:?}"));
            };
            let mut sp =
                malleable_trace::span_labeled("serve.solve", || format!("{tenant}/{policy}"));
            let instance = &entry.instance;
            let (PolicyRun { schedule, .. }, mode) = match solve(instance, policy) {
                Ok(x) => x,
                Err(e) => {
                    counters.bump(SOLVE_ERRORS);
                    return error_response(&e);
                }
            };
            if let Err(e) = schedule.validate(instance) {
                counters.bump(SOLVE_ERRORS);
                return error_response(&format!(
                    "policy {policy:?} produced an invalid schedule: {e}"
                ));
            }
            let cost = schedule.weighted_completion_cost(instance);
            let bound = arrival_aware_lower_bound(instance);
            let ratio = if bound > 0.0 { cost / bound } else { 1.0 };
            entry.solves += 1;
            entry.last_cost = Some(cost);
            counters.bump(SOLVES);
            sp.arg("serve.solve.n", instance.n() as u64);
            let completions: Vec<String> = instance
                .iter()
                .map(|(id, _)| json_num(schedule.completion(id)))
                .collect();
            ok_response(
                "schedule",
                &[
                    format!("\"tenant\":{}", json_string(tenant)),
                    format!("\"policy\":{}", json_string(policy)),
                    format!("\"mode\":\"{mode}\""),
                    format!("\"n\":{}", instance.n()),
                    format!("\"cost\":{}", json_num(cost)),
                    format!("\"makespan\":{}", json_num(schedule.makespan())),
                    format!("\"bound\":{}", json_num(bound)),
                    format!("\"bound_ratio\":{}", json_num(ratio)),
                    format!("\"completions\":[{}]", completions.join(",")),
                ],
            )
        }
        Request::Metrics {
            tenant: Some(tenant),
        } => match tenants.get(tenant) {
            Some(entry) => ok_response(
                "metrics",
                &[
                    format!("\"tenant\":{}", json_string(tenant)),
                    format!("\"tasks\":{}", entry.instance.n()),
                    format!("\"solves\":{}", entry.solves),
                    format!(
                        "\"last_cost\":{}",
                        entry.last_cost.map_or("null".to_string(), json_num)
                    ),
                ],
            ),
            None => error_response(&format!("unknown tenant {tenant:?}")),
        },
        _ => error_response("request not routable to a shard"),
    }
}

/// Global (non-tenant) metrics response built from the live counters.
fn metrics_response(counters: &Counters, shards: usize) -> String {
    let snap = counters.snapshot();
    let mut fields = vec![format!("\"shards\":{shards}")];
    for (i, name) in ServeMetrics::NAMES.iter().enumerate() {
        fields.push(format!("{}:{}", json_string(name), snap.get(i)));
    }
    ok_response("metrics", &fields)
}

/// One client connection: read request lines until EOF, error, or
/// shutdown; answer each on the same socket. Protocol errors keep the
/// connection; a vanished client only kills the reply write, never the
/// shard that computed it.
fn handle_connection(
    stream: TcpStream,
    pool: Arc<ShardPool<ShardReq>>,
    counters: Arc<Counters>,
    shutdown: Arc<AtomicBool>,
    trace_path: Arc<Option<String>>,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = stream;
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let text = std::mem::take(&mut line);
                let text = text.trim();
                if text.is_empty() {
                    continue;
                }
                counters.bump(REQUESTS);
                let mut response = match parse_request(text) {
                    Err(msg) => {
                        counters.bump(PROTOCOL_ERRORS);
                        error_response(&msg)
                    }
                    Ok(Request::Ping) => ok_response("ping", &[]),
                    Ok(Request::Shutdown) => {
                        // Idempotent: every shutdown gets the same answer,
                        // first or tenth.
                        shutdown.store(true, Ordering::SeqCst);
                        ok_response("shutdown", &[String::from("\"draining\":true")])
                    }
                    Ok(Request::Metrics { tenant: None }) => {
                        metrics_response(&counters, pool.shards())
                    }
                    Ok(Request::TraceInfo) => ok_response(
                        "trace",
                        &[
                            format!("\"enabled\":{}", trace_path.is_some()),
                            format!(
                                "\"path\":{}",
                                trace_path
                                    .as_deref()
                                    .map_or("null".to_string(), json_string)
                            ),
                        ],
                    ),
                    Ok(req) => {
                        let key = match &req {
                            Request::Submit { tenant, .. }
                            | Request::Schedule { tenant, .. }
                            | Request::Metrics {
                                tenant: Some(tenant),
                            } => tenant.clone(),
                            _ => unreachable!("non-tenant verbs handled above"),
                        };
                        let (rtx, rrx) = crossbeam::channel::unbounded();
                        if pool.route(&key, ShardReq { req, reply: rtx }) {
                            rrx.recv()
                                .unwrap_or_else(|_| error_response("shard worker unavailable"))
                        } else {
                            error_response("shard worker unavailable")
                        }
                    }
                };
                // One write per answer: under `nodelay` every write is
                // a segment of its own.
                response.push('\n');
                if writer.write_all(response.as_bytes()).is_err() {
                    break;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    malleable_trace::flush_thread();
}

/// Bind `config.addr` and run the daemon until a `shutdown` request.
/// See [`run_on`] for the lifecycle.
pub fn run(config: &ServeConfig) -> Result<ServeMetrics, String> {
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    run_on(listener, config)
}

/// Run the daemon on an already-bound listener until a `shutdown`
/// request, then drain and return the final counter snapshot.
///
/// Lifecycle: start the trace session (before any worker thread is
/// born — threads inherit the tracing state at spawn), spawn the shard
/// pool, accept connections until the shutdown flag flips, join the
/// connection threads, drain the pool (queued solves finish), and
/// finally flush a validated Chrome trace if configured.
pub fn run_on(listener: TcpListener, config: &ServeConfig) -> Result<ServeMetrics, String> {
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    let session = config
        .trace_path
        .as_ref()
        .map(|_| malleable_trace::Session::start());

    let counters = Arc::new(Counters::default());
    let shutdown = Arc::new(AtomicBool::new(false));
    let trace_path = Arc::new(config.trace_path.clone());
    let pool = {
        let counters = counters.clone();
        Arc::new(ShardPool::new(config.shards, move |_shard| {
            let counters = counters.clone();
            let mut tenants: BTreeMap<String, Tenant> = BTreeMap::new();
            Box::new(move |sr: ShardReq| {
                let response = handle_tenant_request(&mut tenants, &sr.req, &counters);
                let _ = sr.reply.send(response);
                malleable_trace::flush_thread();
            })
        }))
    };

    // Not println!: a daemon must survive its supervisor closing the
    // stdout pipe, so write errors are ignored rather than panicking.
    let _ = writeln!(std::io::stdout(), "serve: listening on {addr}");
    let _ = std::io::stdout().flush();

    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot poll the listener: {e}"))?;
    let mut conns = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                let pool = pool.clone();
                let counters = counters.clone();
                let shutdown = shutdown.clone();
                let trace_path = trace_path.clone();
                conns.push(std::thread::spawn(move || {
                    handle_connection(stream, pool, counters, shutdown, trace_path);
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                conns.retain(|h: &std::thread::JoinHandle<()>| !h.is_finished());
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("accept failed: {e}")),
        }
    }

    // Graceful drain: connection threads see the flag within one read
    // timeout; the pool then finishes every queued solve before joining.
    for h in conns {
        let _ = h.join();
    }
    Arc::try_unwrap(pool)
        .ok()
        .expect("all connection threads joined")
        .join();

    let metrics = counters.snapshot();
    if let (Some(session), Some(path)) = (session, config.trace_path.as_ref()) {
        metrics.record();
        let trace = session.finish();
        let stats = trace
            .validate()
            .map_err(|e| format!("trace invalid: {e}"))?;
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, malleable_trace::chrome::to_chrome_json(&trace))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(
            std::io::stdout(),
            "serve: wrote {path} ({} events across {} thread(s))",
            stats.events,
            stats.threads
        );
    }
    Ok(metrics)
}

/// A blocking client for the daemon's line protocol, used by the
/// `msched submit`/`query`/`shutdown` subcommands and the integration
/// tests. One request, one response line, in order.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a running daemon.
    ///
    /// # Errors
    /// A pointed message when the daemon is unreachable.
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cannot clone the connection: {e}"))?,
        );
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Send one request line, return the raw response line.
    ///
    /// # Errors
    /// I/O failures and early EOF (daemon gone).
    pub fn request_raw(&mut self, line: &str) -> Result<String, String> {
        let mut msg = String::with_capacity(line.len() + 1);
        msg.push_str(line);
        msg.push('\n');
        self.writer
            .write_all(msg.as_bytes())
            .map_err(|e| format!("cannot send request: {e}"))?;
        let mut resp = String::new();
        match self.reader.read_line(&mut resp) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Ok(resp.trim().to_string()),
            Err(e) => Err(format!("cannot read response: {e}")),
        }
    }

    /// Send one request line, parse the JSON response.
    ///
    /// # Errors
    /// I/O failures and unparsable responses.
    pub fn request(&mut self, line: &str) -> Result<crate::jsonin::Json, String> {
        let raw = self.request_raw(line)?;
        crate::jsonin::parse(&raw).map_err(|e| format!("daemon response is not JSON: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TestClient {
        inner: Client,
    }

    impl TestClient {
        fn connect(addr: std::net::SocketAddr) -> TestClient {
            TestClient {
                inner: Client::connect(&addr.to_string()).expect("daemon is listening"),
            }
        }

        fn request(&mut self, line: &str) -> crate::jsonin::Json {
            self.inner.request(line).expect("request round-trips")
        }
    }

    fn boot(shards: usize) -> (std::net::SocketAddr, std::thread::JoinHandle<ServeMetrics>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let config = ServeConfig {
                addr: String::new(),
                shards,
                trace_path: None,
            };
            run_on(listener, &config).expect("daemon runs to completion")
        });
        (addr, handle)
    }

    fn ok(v: &crate::jsonin::Json) -> bool {
        v.get("ok") == Some(&crate::jsonin::Json::Bool(true))
    }

    #[test]
    fn daemon_schedules_batch_tenants_bit_exactly() {
        let (addr, daemon) = boot(2);
        let mut c = TestClient::connect(addr);
        assert!(ok(&c.request(r#"{"op":"ping"}"#)));
        for line in [
            r#"{"op":"submit","tenant":"a","p":4,"volume":8,"weight":1,"delta":2}"#,
            r#"{"op":"submit","tenant":"a","volume":4,"weight":2,"delta":4}"#,
            r#"{"op":"submit","tenant":"a","volume":2,"weight":4,"delta":1}"#,
        ] {
            assert!(ok(&c.request(line)), "{line}");
        }
        let resp = c.request(r#"{"op":"schedule","tenant":"a","policy":"wdeq"}"#);
        assert!(ok(&resp), "{resp:?}");
        assert_eq!(resp.get("mode").and_then(|m| m.as_str()), Some("batch"));

        // Bit-exact parity with the library solve of the same instance.
        let instance = Instance::builder(4.0)
            .task(8.0, 1.0, 2.0)
            .task(4.0, 2.0, 4.0)
            .task(2.0, 4.0, 1.0)
            .build()
            .unwrap();
        let offline = policy::by_name::<f64>("wdeq")
            .unwrap()
            .run(&instance)
            .unwrap();
        let got: Vec<f64> = resp
            .get("completions")
            .and_then(|c| c.as_array())
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap())
            .collect();
        assert_eq!(got.len(), offline.schedule.completions.len());
        for (a, b) in got.iter().zip(&offline.schedule.completions) {
            assert_eq!(a.to_bits(), b.to_bits(), "daemon {a} vs library {b}");
        }

        assert!(ok(&c.request(r#"{"op":"shutdown"}"#)));
        drop(c);
        let metrics = daemon.join().unwrap();
        assert_eq!(metrics.submits, 3);
        assert_eq!(metrics.solves, 1);
        assert_eq!(metrics.protocol_errors, 0);
    }

    #[test]
    fn streaming_tenants_run_online_and_report_finite_ratios() {
        let (addr, daemon) = boot(1);
        let mut c = TestClient::connect(addr);
        for line in [
            r#"{"op":"submit","tenant":"s","p":2,"volume":2,"weight":1,"delta":1,"arrival":0}"#,
            r#"{"op":"submit","tenant":"s","volume":2,"weight":1,"delta":1,"arrival":1}"#,
        ] {
            assert!(ok(&c.request(line)), "{line}");
        }
        // A clairvoyant registry policy cannot serve a streaming tenant.
        let rejected = c.request(r#"{"op":"schedule","tenant":"s","policy":"optimal"}"#);
        assert!(!ok(&rejected));
        let resp = c.request(r#"{"op":"schedule","tenant":"s","policy":"wdeq"}"#);
        assert!(ok(&resp), "{resp:?}");
        assert_eq!(resp.get("mode").and_then(|m| m.as_str()), Some("online"));
        let ratio = resp.get("bound_ratio").and_then(|r| r.as_f64()).unwrap();
        assert!(ratio.is_finite() && ratio >= 1.0 - 1e-9, "ratio {ratio}");

        let tm = c.request(r#"{"op":"metrics","tenant":"s"}"#);
        assert_eq!(tm.get("tasks").and_then(|t| t.as_f64()), Some(2.0));
        assert_eq!(tm.get("solves").and_then(|t| t.as_f64()), Some(1.0));

        assert!(ok(&c.request(r#"{"op":"shutdown"}"#)));
        drop(c);
        daemon.join().unwrap();
    }

    #[test]
    fn malformed_requests_keep_the_connection_and_bad_submits_roll_back() {
        let (addr, daemon) = boot(2);
        let mut c = TestClient::connect(addr);
        let bad = c.request("this is not json");
        assert!(!ok(&bad));
        assert!(bad.get("error").is_some());
        // The connection survived: the next request works.
        assert!(ok(&c.request(r#"{"op":"ping"}"#)));
        // First submit without p is rejected; the tenant stays unknown.
        assert!(!ok(&c.request(r#"{"op":"submit","tenant":"t","volume":1}"#)));
        for probe in [
            r#"{"op":"metrics","tenant":"t"}"#,
            r#"{"op":"schedule","tenant":"t"}"#,
        ] {
            let unknown = c.request(probe);
            let msg = unknown.get("error").and_then(|e| e.as_str()).unwrap_or("");
            assert!(msg.contains("unknown tenant"), "{probe}: {unknown:?}");
        }
        // A task violating validation is rolled back.
        assert!(ok(
            &c.request(r#"{"op":"submit","tenant":"t","p":2,"volume":1}"#)
        ));
        assert!(!ok(
            &c.request(r#"{"op":"submit","tenant":"t","volume":-1}"#)
        ));
        let tm = c.request(r#"{"op":"metrics","tenant":"t"}"#);
        assert_eq!(tm.get("tasks").and_then(|t| t.as_f64()), Some(1.0));
        // Capacity is pinned after the first submit.
        assert!(!ok(
            &c.request(r#"{"op":"submit","tenant":"t","p":3,"volume":1}"#)
        ));
        assert!(ok(&c.request(r#"{"op":"shutdown"}"#)));
        drop(c);
        let metrics = daemon.join().unwrap();
        assert_eq!(metrics.protocol_errors, 1);
        assert!(metrics.solve_errors >= 4);
    }

    /// Tenant state as the daemon kept it while every submit rebuilt the
    /// whole instance: the raw task list beside a pinned `p`.
    #[derive(Default)]
    struct RebuiltTenant {
        p: f64,
        tasks: Vec<(f64, f64, f64)>,
        arrivals: Vec<f64>,
    }

    impl RebuiltTenant {
        /// The per-submit rebuild, verbatim.
        fn instance(&self) -> Result<Instance, String> {
            let mut b = Instance::builder(self.p);
            for &(v, w, d) in &self.tasks {
                b = b.task(v, w, d);
            }
            if self.arrivals.iter().any(|&r| r > 0.0) {
                b = b.arrivals(self.arrivals.clone());
            }
            b.build().map_err(|e| e.to_string())
        }

        /// The rebuild's acceptance test, with one deliberate change: it
        /// always checks the arrivals. The rebuild above attached them
        /// only once one was positive, so it accepted a negative or NaN
        /// release time on an all-zero tenant, then refused every later
        /// positive one with an error naming that old task.
        fn accepts(&self) -> Result<(), String> {
            let mut b = Instance::builder(self.p);
            for &(v, w, d) in &self.tasks {
                b = b.task(v, w, d);
            }
            b.arrivals(self.arrivals.clone())
                .build()
                .map(|_| ())
                .map_err(|e| e.to_string())
        }
    }

    /// The submit handler of the rebuilding daemon, push/pop rollback and
    /// all: the reference every appended answer must match.
    fn rebuilt_submit(tenants: &mut BTreeMap<String, RebuiltTenant>, req: &Request) -> String {
        let Request::Submit {
            tenant,
            p,
            volume,
            weight,
            delta,
            arrival,
        } = req
        else {
            unreachable!("submits only")
        };
        let entry = tenants.entry(tenant.clone()).or_default();
        if entry.tasks.is_empty() {
            match p {
                Some(cap) => entry.p = *cap,
                None => {
                    return error_response(&format!(
                        "tenant {tenant:?} has no capacity yet: the first submit \
                         must carry \"p\""
                    ))
                }
            }
        } else if let Some(cap) = p {
            if *cap != entry.p {
                return error_response(&format!(
                    "tenant {tenant:?} already has p = {}, cannot change it to {cap}",
                    entry.p
                ));
            }
        }
        entry
            .tasks
            .push((*volume, *weight, delta.unwrap_or(entry.p)));
        entry.arrivals.push(*arrival);
        if let Err(e) = entry.accepts() {
            entry.tasks.pop();
            entry.arrivals.pop();
            return error_response(&format!("rejected task for tenant {tenant:?}: {e}"));
        }
        ok_response(
            "submit",
            &[
                format!("\"tenant\":{}", json_string(tenant)),
                format!("\"tasks\":{}", entry.tasks.len()),
            ],
        )
    }

    #[test]
    fn appended_tenants_equal_the_per_submit_rebuild_and_answer_alike() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x5eed);
        // Tenant `a` stays offline, `b` turns online late, `c` early.
        let names = ["a", "b", "c"];
        let caps = [4.0, 2.5, 8.0];
        let online_pct = [0, 2, 20];
        let counters = Counters::default();
        let mut tenants: BTreeMap<String, Tenant> = BTreeMap::new();
        let mut reference: BTreeMap<String, RebuiltTenant> = BTreeMap::new();
        let mut accepted = 0;
        for step in 0..500 {
            let k = rng.random_range(0..names.len());
            let p = match rng.random_range(0..20u32) {
                0..=7 => None,
                8..=16 => Some(caps[k]),
                17 => Some(2.0 * caps[k]),
                18 => Some(0.0),
                _ => Some(f64::NAN),
            };
            let volume = match rng.random_range(0..20u32) {
                0 => f64::NAN,
                1 => -1.0,
                2 => 0.0,
                _ => rng.random_range(0.5..10.0),
            };
            let weight = match rng.random_range(0..20u32) {
                0 => -0.5,
                1 => 0.0,
                _ => rng.random_range(1.0..5.0),
            };
            let delta = match rng.random_range(0..20u32) {
                0 => Some(0.0),
                1..=9 => None,
                _ => Some(rng.random_range(0.5..6.0)),
            };
            let arrival = match rng.random_range(0..100u32) {
                0 | 1 => f64::NAN,
                2 | 3 => -1.0,
                4 => -0.0,
                r if r < 5 + online_pct[k] => rng.random_range(0.1..20.0),
                _ => 0.0,
            };
            let req = Request::Submit {
                tenant: names[k].to_string(),
                p,
                volume,
                weight,
                delta,
                arrival,
            };
            let got = handle_tenant_request(&mut tenants, &req, &counters);
            let want = rebuilt_submit(&mut reference, &req);
            assert_eq!(got, want, "step {step}: {req:?}");
            accepted += usize::from(got.starts_with("{\"ok\":true"));
            for (name, old) in &reference {
                match tenants.get(name) {
                    Some(t) => assert_eq!(
                        Ok(&t.instance),
                        old.instance().as_ref(),
                        "step {step}: tenant {name}"
                    ),
                    None => assert!(old.tasks.is_empty(), "step {step}: tenant {name} lost"),
                }
            }
            assert!(tenants.keys().all(|name| reference.contains_key(name)));
        }
        // The mix exercised both verdicts and both arrival regimes.
        assert!((100..450).contains(&accepted), "{accepted} of 500 accepted");
        assert_eq!(tenants["a"].instance.arrivals, None);
        assert!(tenants["c"].instance.has_arrivals());
        assert_eq!(
            counters.snapshot().submits + counters.snapshot().solve_errors,
            500
        );
    }

    #[test]
    fn shutdown_is_idempotent_and_metrics_expose_counters() {
        let (addr, daemon) = boot(3);
        let mut c = TestClient::connect(addr);
        let m = c.request(r#"{"op":"metrics"}"#);
        assert_eq!(m.get("shards").and_then(|s| s.as_f64()), Some(3.0));
        assert_eq!(m.get("serve.requests").and_then(|s| s.as_f64()), Some(1.0));
        let t = c.request(r#"{"op":"trace"}"#);
        assert_eq!(t.get("enabled"), Some(&crate::jsonin::Json::Bool(false)));
        let first = c.request(r#"{"op":"shutdown"}"#);
        let second = c.request(r#"{"op":"shutdown"}"#);
        assert!(ok(&first) && ok(&second), "shutdown must be idempotent");
        drop(c);
        daemon.join().unwrap();
    }

    #[test]
    fn tenants_are_isolated_across_shards() {
        let (addr, daemon) = boot(4);
        let mut c = TestClient::connect(addr);
        for t in ["alpha", "beta", "gamma"] {
            let line = format!(r#"{{"op":"submit","tenant":"{t}","p":1,"volume":1}}"#);
            assert!(ok(&c.request(&line)));
        }
        for t in ["alpha", "beta", "gamma"] {
            let line = format!(r#"{{"op":"schedule","tenant":"{t}","policy":"wdeq"}}"#);
            let resp = c.request(&line);
            assert!(ok(&resp), "{t}: {resp:?}");
            assert_eq!(resp.get("n").and_then(|n| n.as_f64()), Some(1.0));
        }
        assert!(!ok(&c.request(r#"{"op":"schedule","tenant":"nobody"}"#)));
        assert!(ok(&c.request(r#"{"op":"shutdown"}"#)));
        drop(c);
        daemon.join().unwrap();
    }
}
