//! Build and supervise the `msched serve` child process.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shards of the daemon under test.
pub const SHARDS: usize = 2;

/// The cargo target directory the benchmark builds into.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Build the release `msched` binary of the checkout in the current
/// directory and return its path. Cargo's output goes to stderr, so the
/// result line stays the last line of stdout.
pub fn build_msched() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "malleable-bench",
            "--bin",
            "msched",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building msched failed ({status})"));
    }
    let bin = target_dir().join("release").join("msched");
    if !bin.is_file() {
        return Err(format!("{} was not built", bin.display()));
    }
    Ok(bin)
}

/// A running `msched serve --shards 2` on an ephemeral loopback port.
pub struct Daemon {
    child: Child,
    pub addr: String,
    /// Reads the daemon's stdout after the banner until it exits, so its
    /// final status lines never hit a closed pipe.
    stdout: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Start the daemon (optionally with `--trace <path>`) and wait for
    /// its listening banner. The daemon runs at a lower CPU priority
    /// (`nice -n 10`) than the load generator: on a two-core machine the
    /// generator's threads, which run for microseconds at a time, must
    /// wake on time or they would send late and under-report latency
    /// variation as lateness.
    pub fn spawn(bin: &Path, trace: Option<&Path>) -> Result<Daemon, String> {
        let mut cmd = Command::new("nice");
        cmd.args(["-n", "10"])
            .arg(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--shards"])
            .arg(SHARDS.to_string())
            // One malloc arena: with per-thread arenas the daemon's peak
            // RSS depends on which threads happened to allocate at once.
            .env("MALLOC_ARENA_MAX", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if let Some(path) = trace {
            cmd.arg("--trace").arg(path);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .trim()
            .strip_prefix("serve: listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                addr,
                stdout: Some(std::thread::spawn(move || {
                    let _ = std::io::copy(&mut stdout, &mut std::io::sink());
                })),
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("msched serve printed no banner (got {banner:?})"))
            }
        }
    }

    /// Peak resident set of the daemon so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::peak_rss_mb(&self.child.id().to_string())
    }

    /// CPU time (user + system, all threads) the daemon has used, in
    /// seconds, from `/proc/<pid>/stat` (clock ticks of 1/100 s).
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let field = |i: usize| -> Result<f64, String> {
            rest.split_whitespace()
                .nth(i - 3)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| format!("no field {i} in {path}"))
        };
        Ok((field(14)? + field(15)?) / 100.0)
    }

    /// Ask the daemon to drain and exit, and wait for it (killing it
    /// after a timeout). Callers drop their connections first.
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = malleable_bench::serve::Client::connect(&self.addr)
            .and_then(|mut c| c.request_raw(r#"{"op":"shutdown"}"#));
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    if let Some(h) = self.stdout.take() {
                        let _ = h.join();
                    }
                    if !status.success() {
                        return Err(format!("msched serve exited with {status}"));
                    }
                    return sent.map(|_| ());
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("msched serve did not drain within 60 s".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    /// A daemon abandoned on an error path is killed, never leaked.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}
