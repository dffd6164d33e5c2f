//! The repository benchmark: one command runs a named workload from a
//! seed, checks the program's outputs, and prints every metric by name
//! with its unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-ingest|serve-mixed|batch-solve> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run it from the repository root. The serve workloads build the release
//! `msched` binary (`cargo build --release -p malleable-bench --bin
//! msched`, honouring `CARGO_TARGET_DIR`) and drive `msched serve` as a
//! child process over loopback; `batch-solve` calls the library.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload and seed untraced and then traced, and prints the per-layer
//! metrics. The last line of standard output is the JSON result.

mod daemon;
mod grid;
mod load;
mod report;
mod rng;
mod serve;
mod stats;

use report::{Report, END_TO_END, PER_LAYER};

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["serve-ingest", "serve-mixed", "batch-solve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: f64 = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (threads available: {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "batch-solve" => grid::workload(args.seed, args.seconds, args.trace, &mut report),
        name => serve::workload(name, args.seed, args.seconds, args.trace, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    for e in &report.check_errors {
        eprintln!("output check failed: {e}");
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    match report.result_line(catalogue) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one)
/// in MiB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM line in {path}"))?;
    Ok(kib / 1024.0)
}
