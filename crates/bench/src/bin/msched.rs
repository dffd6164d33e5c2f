//! `msched` — command-line malleable-task scheduler.
//!
//! Reads an instance file (see `malleable_core::io` for the format),
//! schedules it with the chosen policy from the
//! [`malleable_core::policy`] registry (plus the brute-force `optimal`),
//! and reports the schedule, objective, bounds and optionally a Gantt
//! chart (ASCII or SVG).
//!
//! ```text
//! msched <instance-file> [--policy <name>] [--list-policies]
//!                        [--speeds s1,s2,...] [--gains g1,g2,...]
//!                        [--machines M --eligible "0,1;2;..."]
//!                        [--gantt] [--svg out.svg] [--normalize]
//!                        [--trace out.json]
//! usage examples:
//!   msched --list-policies
//!   msched jobs.txt --list-policies          # adds a capability column
//!   msched jobs.txt --policy wdeq --gantt
//!   msched jobs.txt --policy greedy-smith --normalize
//!   msched jobs.txt --policy optimal --svg plan.svg
//!   msched jobs.txt --speeds 4,2,1 --policy wdeq-related
//!   msched jobs.txt --machines 3 --eligible "0,1;2;0,2" --policy wdeq-related
//!   msched jobs.txt --policy wdeq --trace trace.json   # Chrome trace of the solve
//! ```
//!
//! The re-basing flags swap the instance onto another capacity model —
//! at most one of:
//!
//! * `--speeds s1,...` — related machines with the given speeds;
//! * `--gains g1,...` — a submodular oracle with the given (non-increasing)
//!   marginal gains;
//! * `--machines M --eligible "l0;l1;..."` — restricted assignment on `M`
//!   unit-speed machines, one comma-separated machine list per task.
//!
//! Pick a policy capable of the resulting model (`msched <file>
//! --list-policies` shows which); the identical-machine rate-space
//! policies reject heterogeneous oracles.
//!
//! A file with `arrive` markers runs under the online engine, exactly as
//! the daemon runs a streaming tenant ([`malleable_bench::serve::solve`]
//! routes both), so only the online rules (`wdeq`, `deq`,
//! `share-no-redistribution`, `priority`) accept it. `--normalize` is
//! refused on such a file (exit 1): water-filling ignores release times.
//!
//! Malformed flags and instance files are *input* errors: they print a
//! pointed `error: …` line and exit with status 2 (scheduling failures
//! keep status 1). Unknown subcommands and unknown flags are input
//! errors too.
//!
//! `--algo` is accepted as a deprecated alias of `--policy`.
//!
//! ## Subcommands — the scheduler as a service
//!
//! Besides the batch mode above, `msched` fronts the long-running
//! daemon in [`malleable_bench::serve`]:
//!
//! ```text
//! msched serve    [--addr 127.0.0.1:7420] [--shards N] [--trace out.json]
//! msched submit   <instance-file> [--addr A] [--tenant T] [--policy NAME]
//! msched query    <ping|metrics|trace> [--addr A] [--tenant T]
//! msched shutdown [--addr A]
//! ```
//!
//! `serve` blocks until a client sends the `shutdown` verb, then drains
//! in-flight solves and (with `--trace`) flushes a validated Chrome
//! trace. `submit` uploads an instance file task-by-task to one tenant
//! and requests a schedule; its `completes at` lines print `f64`s
//! bit-exactly (`{:?}`), as does batch mode, so a daemon answer can be
//! diffed against `msched <file> --policy X` byte-for-byte.

use malleable_bench::serve;
use malleable_core::algos::waterfill::water_filling;
use malleable_core::bounds::{height_bound, squashed_area_bound};
use malleable_core::instance::Instance;
use malleable_core::io::parse_instance;
use malleable_core::machine::MachineModel;
use malleable_core::policy;
use malleable_core::schedule::column::ColumnSchedule;
use malleable_core::schedule::convert::column_to_gantt;
use malleable_core::schedule::svg::{gantt_to_svg, SvgOptions};
use numkit::Tolerance;
use std::process::ExitCode;

struct Args {
    file: Option<String>,
    policy: String,
    speeds: Option<Vec<f64>>,
    gains: Option<Vec<f64>>,
    restricted: Option<(usize, Vec<Vec<usize>>)>,
    list: bool,
    gantt: bool,
    svg: Option<String>,
    normalize: bool,
    trace: Option<String>,
}

enum Parsed {
    Run(Args),
    Help,
}

fn parse_args() -> Result<Parsed, String> {
    let mut args = std::env::args().skip(1);
    let mut file = None;
    let mut policy = "wdeq".to_string();
    let mut speeds = None;
    let mut gains = None;
    let mut machines: Option<usize> = None;
    let mut eligible: Option<Vec<Vec<usize>>> = None;
    let mut list = false;
    let mut gantt = false;
    let mut svg = None;
    let mut normalize = false;
    let mut trace = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--policy" | "--algo" => policy = args.next().ok_or("--policy needs a value")?,
            "--speeds" => {
                let raw = args.next().ok_or("--speeds needs a comma-separated list")?;
                speeds = Some(parse_f64_list(&raw, "--speeds")?);
            }
            "--gains" => {
                let raw = args.next().ok_or("--gains needs a comma-separated list")?;
                gains = Some(parse_f64_list(&raw, "--gains")?);
            }
            "--machines" => {
                let raw = args.next().ok_or("--machines needs a machine count")?;
                machines = Some(raw.parse::<usize>().map_err(|_| {
                    format!("unparsable --machines {raw:?} (expected a positive integer)")
                })?);
            }
            "--eligible" => {
                let raw = args
                    .next()
                    .ok_or("--eligible needs per-task machine lists, e.g. \"0,1;2;0,2\"")?;
                eligible = Some(parse_eligibility(&raw)?);
            }
            "--list-policies" => list = true,
            "--gantt" => gantt = true,
            "--svg" => svg = Some(args.next().ok_or("--svg needs a path")?),
            "--normalize" => normalize = true,
            "--trace" => trace = Some(args.next().ok_or("--trace needs an output path")?),
            "--help" | "-h" => return Ok(Parsed::Help),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}\n{USAGE}"))
            }
            other => {
                if file.replace(other.to_string()).is_some() {
                    return Err("multiple instance files given".into());
                }
            }
        }
    }
    let restricted = match (machines, eligible) {
        (Some(m), Some(sets)) => {
            if m == 0 {
                return Err("--machines must be at least 1".into());
            }
            for (i, set) in sets.iter().enumerate() {
                if let Some(&k) = set.iter().find(|&&k| k >= m) {
                    return Err(format!(
                        "--eligible task {i} names machine {k} but --machines {m} \
                         only provides machines 0..{}",
                        m - 1
                    ));
                }
            }
            Some((m, sets))
        }
        (Some(_), None) => {
            return Err("--machines requires --eligible (per-task machine lists)".into())
        }
        (None, Some(_)) => return Err("--eligible requires --machines (the machine count)".into()),
        (None, None) => None,
    };
    let rebases = usize::from(speeds.is_some())
        + usize::from(gains.is_some())
        + usize::from(restricted.is_some());
    if rebases > 1 {
        return Err(
            "give at most one of --speeds, --gains, or --machines/--eligible (they \
             select mutually exclusive capacity models)"
                .into(),
        );
    }
    if file.is_none() && !list {
        return Err(format!("missing instance file\n{USAGE}"));
    }
    Ok(Parsed::Run(Args {
        file,
        policy,
        speeds,
        gains,
        restricted,
        list,
        gantt,
        svg,
        normalize,
        trace,
    }))
}

fn parse_f64_list(raw: &str, flag: &str) -> Result<Vec<f64>, String> {
    raw.split(',')
        .map(|s| {
            s.trim()
                .parse::<f64>()
                .map_err(|_| format!("unparsable {flag} entry {:?} in {raw:?}", s.trim()))
        })
        .collect()
}

/// Parse `"0,1;2;0,2"` into per-task machine-index lists.
fn parse_eligibility(raw: &str) -> Result<Vec<Vec<usize>>, String> {
    raw.split(';')
        .enumerate()
        .map(|(i, part)| {
            let set: Result<Vec<usize>, String> = part
                .split(',')
                .map(|s| s.trim())
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.parse::<usize>().map_err(|_| {
                        format!("unparsable --eligible machine index {s:?} (task {i})")
                    })
                })
                .collect();
            let set = set?;
            if set.is_empty() {
                return Err(format!(
                    "--eligible task {i} has an empty machine list (every task needs \
                     at least one eligible machine)"
                ));
            }
            Ok(set)
        })
        .collect()
}

const USAGE: &str = "usage: msched <instance-file> [--policy <name>] [--list-policies] [--speeds s1,s2,...] [--gains g1,g2,...] [--machines M --eligible \"0,1;2;...\"] [--gantt] [--svg out.svg] [--normalize] [--trace out.json]\n       msched serve [--addr 127.0.0.1:7420] [--shards N] [--trace out.json]\n       msched submit <instance-file> [--addr A] [--tenant T] [--policy <name>]\n       msched query <ping|metrics|trace> [--addr A] [--tenant T]\n       msched shutdown [--addr A]\n       (see --list-policies for the registry; 'optimal' adds the exact brute-force optimum;\n        --speeds/--gains/--machines+--eligible re-base onto another capacity model — use a capable policy;\n        --trace records the solve as Chrome trace-event JSON — load it in Perfetto)";

/// Print the registry; with an instance in hand, add a column marking
/// which policies can schedule its capacity model.
fn list_policies(context: Option<&Instance>) {
    match context {
        Some(instance) => {
            let capable = policy::capable_for(&instance.machine);
            println!(
                "registered policies (capability for machine model: {}):",
                instance.machine
            );
            for p in policy::all::<f64>() {
                println!(
                    "  {:<26} {:<16} {:<4} {}",
                    p.name(),
                    format!("[{}]", p.clairvoyance()),
                    if capable.contains(&p.name()) {
                        "yes"
                    } else {
                        "no"
                    },
                    p.description()
                );
            }
            println!(
                "  {:<26} {:<16} {:<4} exact optimum over all n! completion orders (brute force, small n)",
                "optimal",
                "[clairvoyant]",
                if instance.machine.uniform() { "yes" } else { "no" }
            );
        }
        None => {
            println!("registered policies (malleable_core::policy):");
            for p in policy::all::<f64>() {
                println!(
                    "  {:<26} {:<16} {}",
                    p.name(),
                    format!("[{}]", p.clairvoyance()),
                    p.description()
                );
            }
            println!(
                "  {:<26} {:<16} exact optimum over all n! completion orders (brute force, small n)",
                "optimal", "[clairvoyant]"
            );
            println!("(pass an instance file alongside --list-policies for a capability column)");
        }
    }
}

fn schedule(instance: &Instance, name: &str) -> Result<(ColumnSchedule, String), String> {
    let (run, mode) = serve::solve(instance, name)?;
    let mut note = match policy::by_name::<f64>(name) {
        Some(p) => format!("{} — {}", p.name(), p.description()),
        // `solve` accepts no other name outside the registry.
        None => format!("exact optimum over all {}! completion orders", instance.n()),
    };
    if mode == "online" {
        note.push_str(" [online: release times honoured]");
    }
    if let Some(cert) = &run.certificate {
        let cost = run.schedule.weighted_completion_cost(instance);
        note.push_str(&format!(
            "; certified within {:.0}× of optimal (ratio {:.4})",
            cert.factor,
            cert.ratio(cost)
        ));
    }
    Ok((run.schedule, note))
}

/// Load and re-base the instance per the capacity-model flags. All
/// failures here are input errors (exit 2).
fn load_instance(args: &Args) -> Result<Instance, String> {
    let file = args.file.as_ref().expect("caller checked file presence");
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let mut instance = parse_instance(&text).map_err(|e| format!("bad instance file: {e}"))?;
    if let Some(speeds) = &args.speeds {
        let model =
            MachineModel::related(speeds.clone()).map_err(|e| format!("bad --speeds: {e}"))?;
        instance = instance
            .with_machine(model)
            .map_err(|e| format!("bad --speeds: {e}"))?;
    }
    if let Some(gains) = &args.gains {
        // Constructed directly so validate() reports on the gains as given.
        let model = MachineModel::Submodular {
            gains: gains.clone(),
        };
        instance = instance
            .with_machine(model)
            .map_err(|e| format!("bad --gains: {e}"))?;
    }
    if let Some((m, sets)) = &args.restricted {
        if sets.len() != instance.n() {
            return Err(format!(
                "--eligible gives {} machine lists but {file} has {} tasks \
                 (one semicolon-separated list per task)",
                sets.len(),
                instance.n()
            ));
        }
        let model = MachineModel::restricted(*m, sets.clone())
            .map_err(|e| format!("bad --eligible: {e}"))?;
        instance = instance
            .with_machine(model)
            .map_err(|e| format!("bad --eligible: {e}"))?;
    }
    Ok(instance)
}

/// Known daemon-mode subcommands, dispatched before batch-mode flag
/// parsing ever sees the argument list.
const SUBCOMMANDS: &[&str] = &["serve", "submit", "query", "shutdown"];

/// Does a first positional argument look like an (attempted) subcommand
/// rather than an instance-file path? Lowercase words without path
/// separators or extensions qualify — but an existing file of that name
/// always wins.
fn subcommand_like(word: &str) -> bool {
    !word.is_empty()
        && !word.starts_with('-')
        && word
            .chars()
            .all(|c| c.is_ascii_lowercase() || c == '-' || c == '_')
        && !std::path::Path::new(word).exists()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => return serve_cmd(&argv[1..]),
        Some("submit") => return submit_cmd(&argv[1..]),
        Some("query") => return query_cmd(&argv[1..]),
        Some("shutdown") => return shutdown_cmd(&argv[1..]),
        Some(word) if subcommand_like(word) => {
            eprintln!(
                "error: unknown subcommand {word:?} (known: {}; or pass an instance file)",
                SUBCOMMANDS.join(", ")
            );
            return ExitCode::from(2);
        }
        _ => {}
    }
    batch_main()
}

/// Shared `--addr`/`--tenant`/`--policy`-style flag parsing for the
/// daemon-mode subcommands. Returns `(flags, positionals)`; any unknown
/// flag is an input error.
fn parse_subcommand_args(
    name: &str,
    args: &[String],
    allowed: &[&str],
) -> Result<(std::collections::BTreeMap<String, String>, Vec<String>), String> {
    let mut flags = std::collections::BTreeMap::new();
    let mut positionals = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(flag) = a.strip_prefix("--") {
            if !allowed.contains(&flag) {
                return Err(format!(
                    "unknown flag --{flag} for msched {name} (allowed: {})",
                    allowed
                        .iter()
                        .map(|f| format!("--{f}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            let value = it.next().ok_or(format!("--{flag} needs a value"))?;
            flags.insert(flag.to_string(), value.clone());
        } else if a.starts_with('-') {
            return Err(format!("unknown flag {a} for msched {name}"));
        } else {
            positionals.push(a.clone());
        }
    }
    Ok((flags, positionals))
}

const DEFAULT_ADDR: &str = "127.0.0.1:7420";

fn serve_cmd(args: &[String]) -> ExitCode {
    let (flags, positionals) =
        match parse_subcommand_args("serve", args, &["addr", "shards", "trace"]) {
            Ok(x) => x,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(2);
            }
        };
    if let Some(extra) = positionals.first() {
        eprintln!("error: msched serve takes no positional argument (got {extra:?})");
        return ExitCode::from(2);
    }
    let shards = match flags.get("shards").map(|s| s.parse::<usize>()) {
        None => 2,
        Some(Ok(n)) if n >= 1 => n,
        Some(_) => {
            eprintln!("error: --shards needs a positive integer");
            return ExitCode::from(2);
        }
    };
    let config = serve::ServeConfig {
        addr: flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| DEFAULT_ADDR.to_string()),
        shards,
        trace_path: flags.get("trace").cloned(),
    };
    // A bad bind address is an input error; failures after the daemon is
    // up (trace flush, accept loop) are runtime errors.
    let listener = match std::net::TcpListener::bind(&config.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", config.addr);
            return ExitCode::from(2);
        }
    };
    match serve::run_on(listener, &config) {
        Ok(metrics) => {
            println!(
                "serve: drained after {} request(s) ({} submit(s), {} solve(s), \
                 {} protocol error(s), {} solve error(s))",
                metrics.requests,
                metrics.submits,
                metrics.solves,
                metrics.protocol_errors,
                metrics.solve_errors
            );
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("serve failed: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn submit_cmd(args: &[String]) -> ExitCode {
    let (flags, positionals) =
        match parse_subcommand_args("submit", args, &["addr", "tenant", "policy"]) {
            Ok(x) => x,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(2);
            }
        };
    let file = match positionals.as_slice() {
        [f] => f.clone(),
        [] => {
            eprintln!("error: msched submit needs an instance file");
            return ExitCode::from(2);
        }
        _ => {
            eprintln!("error: multiple instance files given");
            return ExitCode::from(2);
        }
    };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let instance = match parse_instance(&text) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("error: bad instance file: {e}");
            return ExitCode::from(2);
        }
    };
    let MachineModel::Identical { m: p } = instance.machine else {
        eprintln!(
            "error: msched submit only supports identical-machine instances \
             (the daemon's tenant model is a single capacity P)"
        );
        return ExitCode::from(2);
    };
    let addr = flags.get("addr").map_or(DEFAULT_ADDR, String::as_str);
    let tenant = flags.get("tenant").map_or("default", String::as_str);
    let policy_name = flags.get("policy").map_or("wdeq", String::as_str);

    match submit_and_schedule(addr, tenant, policy_name, p, &instance) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("submit failed: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Upload every task of `instance` to `tenant` and request a schedule,
/// printing the daemon's answer in batch-mode format (bit-exact
/// `completes at` lines).
fn submit_and_schedule(
    addr: &str,
    tenant: &str,
    policy_name: &str,
    p: f64,
    instance: &Instance,
) -> Result<(), String> {
    use malleable_bench::jsonin::Json;

    let mut client = serve::Client::connect(addr)?;
    let quoted = serve::protocol::json_string;
    for (i, (id, task)) in instance.iter().enumerate() {
        let mut line = format!(
            "{{\"op\":\"submit\",\"tenant\":{},\"volume\":{:?},\"weight\":{:?},\"delta\":{:?}",
            quoted(tenant),
            task.volume,
            task.weight,
            task.delta
        );
        if i == 0 {
            line.push_str(&format!(",\"p\":{p:?}"));
        }
        let arrival = instance.arrival(id);
        if arrival > 0.0 {
            line.push_str(&format!(",\"arrival\":{arrival:?}"));
        }
        line.push('}');
        let resp = client.request(&line)?;
        if resp.get("ok") != Some(&Json::Bool(true)) {
            let why = resp
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("daemon rejected the task");
            return Err(format!("{id}: {why}"));
        }
    }
    println!(
        "tenant {tenant}: {} task(s) submitted to {addr}",
        instance.n()
    );

    let resp = client.request(&format!(
        "{{\"op\":\"schedule\",\"tenant\":{},\"policy\":{}}}",
        quoted(tenant),
        quoted(policy_name)
    ))?;
    if resp.get("ok") != Some(&Json::Bool(true)) {
        let why = resp
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("daemon could not schedule");
        return Err(why.to_string());
    }
    let num = |key: &str| {
        resp.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("daemon response is missing {key:?}"))
    };
    let mode = resp
        .get("mode")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string();
    println!("policy: {policy_name} [{mode}]");
    println!(
        "Σ wᵢCᵢ = {:?}   makespan = {:?}",
        num("cost")?,
        num("makespan")?
    );
    println!(
        "lower bound = {:?}   bound ratio = {:?}",
        num("bound")?,
        num("bound_ratio")?
    );
    let completions = resp
        .get("completions")
        .and_then(Json::as_array)
        .ok_or("daemon response is missing \"completions\"")?;
    for (i, c) in completions.iter().enumerate() {
        let c = c
            .as_f64()
            .ok_or("daemon returned a non-numeric completion")?;
        println!("  T{i} completes at {c:?}");
    }
    Ok(())
}

fn query_cmd(args: &[String]) -> ExitCode {
    let (flags, positionals) = match parse_subcommand_args("query", args, &["addr", "tenant"]) {
        Ok(x) => x,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let verb = match positionals.as_slice() {
        [v] if ["ping", "metrics", "trace"].contains(&v.as_str()) => v.clone(),
        [v] => {
            eprintln!("error: unknown query verb {v:?} (known: ping, metrics, trace)");
            return ExitCode::from(2);
        }
        _ => {
            eprintln!("error: msched query needs exactly one verb (ping, metrics, trace)");
            return ExitCode::from(2);
        }
    };
    let addr = flags.get("addr").map_or(DEFAULT_ADDR, String::as_str);
    let line = match flags.get("tenant") {
        Some(t) if verb == "metrics" => {
            format!(
                "{{\"op\":\"metrics\",\"tenant\":{}}}",
                serve::protocol::json_string(t)
            )
        }
        Some(_) => {
            eprintln!("error: --tenant only applies to msched query metrics");
            return ExitCode::from(2);
        }
        None => format!("{{\"op\":{verb:?}}}"),
    };
    match serve::Client::connect(addr).and_then(|mut c| c.request_raw(&line)) {
        Ok(raw) => {
            println!("{raw}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("query failed: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn shutdown_cmd(args: &[String]) -> ExitCode {
    let (flags, positionals) = match parse_subcommand_args("shutdown", args, &["addr"]) {
        Ok(x) => x,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(extra) = positionals.first() {
        eprintln!("error: msched shutdown takes no positional argument (got {extra:?})");
        return ExitCode::from(2);
    }
    let addr = flags.get("addr").map_or(DEFAULT_ADDR, String::as_str);
    match serve::Client::connect(addr).and_then(|mut c| c.request_raw("{\"op\":\"shutdown\"}")) {
        Ok(raw) => {
            println!("{raw}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("shutdown failed: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn batch_main() -> ExitCode {
    let args = match parse_args() {
        Ok(Parsed::Run(a)) => a,
        Ok(Parsed::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        if args.file.is_none() {
            list_policies(None);
            return ExitCode::SUCCESS;
        }
        return match load_instance(&args) {
            Ok(instance) => {
                list_policies(Some(&instance));
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::from(2)
            }
        };
    }
    let instance = match load_instance(&args) {
        Ok(i) => i,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    // Water-filling is the offline normal form: it would start tasks
    // before their release times.
    if args.normalize && instance.has_arrivals() {
        eprintln!(
            "error: --normalize ignores release times; drop it for an instance with arrivals"
        );
        return ExitCode::FAILURE;
    }
    println!("{instance}");

    let trace_session = args
        .trace
        .as_ref()
        .map(|_| malleable_trace::Session::start());
    let (mut cs, note) = match schedule(&instance, &args.policy) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("scheduling failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.normalize {
        match water_filling(&instance, cs.completion_times()) {
            Ok(normal) => cs = normal,
            Err(e) => {
                eprintln!("normalization failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let (Some(session), Some(path)) = (trace_session, &args.trace) {
        let trace = session.finish();
        if let Err(e) = trace.validate() {
            eprintln!("trace validation failed: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(path, malleable_trace::chrome::to_chrome_json(&trace)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "wrote {path} ({} events across {} thread(s))",
            trace.len(),
            trace.events_per_thread().len()
        );
    }

    println!("policy: {note}");
    println!(
        "Σ wᵢCᵢ = {:.6}   makespan = {:.6}",
        cs.weighted_completion_cost(&instance),
        cs.makespan()
    );
    println!(
        "lower bounds: A(I) = {:.6}, H(I) = {:.6}",
        squashed_area_bound(&instance),
        height_bound(&instance)
    );
    for (id, _) in instance.iter() {
        // `{:?}` round-trips f64 bit-exactly, so these lines diff cleanly
        // against `msched submit` output for the same instance.
        println!("  {id} completes at {:?}", cs.completion(id));
    }

    if args.gantt || args.svg.is_some() {
        let tol = Tolerance::for_instance(instance.n());
        match column_to_gantt(&cs, &instance, tol) {
            Ok(g) => {
                if args.gantt {
                    println!("\n{}", g.render(72));
                }
                if let Some(path) = &args.svg {
                    let svg = gantt_to_svg(&g, SvgOptions::default());
                    if let Err(e) = std::fs::write(path, svg) {
                        eprintln!("cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    println!("wrote {path}");
                }
            }
            Err(e) => {
                eprintln!("gantt rendering needs an integer machine (P, δ ∈ ℕ): {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
