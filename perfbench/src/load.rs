//! Open-loop load generation over pipelined connections.
//!
//! Each connection gets its own request stream with due times; one
//! thread per connection writes every request when it falls due (not
//! when the previous one is answered) and reads the in-order responses
//! in between. Requests are timed from when they were due, so a stall
//! also charges the requests queued behind it.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// One request line and when it is due, in seconds from phase start.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    pub due: f64,
    pub line: String,
}

/// What happened to one request (times in seconds from phase start).
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub sent: f64,
    pub recv: Option<f64>,
    pub response: String,
}

impl Outcome {
    /// Latency from due time to response, `∞` when unanswered.
    pub fn latency(&self, due: f64) -> f64 {
        self.recv.map_or(f64::INFINITY, |r| r - due)
    }
}

/// A client connection to the daemon.
pub struct Conn {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        // The generator must not add Nagle delay of its own to what it
        // measures; the daemon's socket options are its own business.
        stream
            .set_nodelay(true)
            .map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
        Ok(Conn {
            stream,
            pending: Vec::new(),
        })
    }

    /// Send one request and wait for its answer (closed loop).
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        let reqs = [Req {
            due: 0.0,
            line: line.to_string(),
        }];
        let out = drive_one(self, &reqs, Instant::now(), 1, 60.0).map_err(|e| e.to_string())?;
        out.into_iter()
            .next()
            .filter(|o| o.recv.is_some())
            .map(|o| o.response)
            .ok_or_else(|| format!("no answer to {line}"))
    }
}

/// Drive every connection through its stream concurrently (one thread
/// each), starting the phase clock now. At most `max_inflight` requests
/// are outstanding per connection — a generator held back by that cap
/// runs late, and reports it. Requests still unanswered `drain_s`
/// seconds after the last due time are left without a `recv`.
pub fn drive(
    conns: &mut [Conn],
    streams: &[Vec<Req>],
    max_inflight: usize,
    drain_s: f64,
) -> Result<Vec<Vec<Outcome>>, String> {
    assert_eq!(conns.len(), streams.len(), "one stream per connection");
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(streams)
            .map(|(c, reqs)| s.spawn(move || drive_one(c, reqs, t0, max_inflight, drain_s)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "load thread panicked".to_string())?
                    .map_err(|e| format!("connection failed: {e}"))
            })
            .collect()
    })
}

fn drive_one(
    conn: &mut Conn,
    reqs: &[Req],
    t0: Instant,
    max_inflight: usize,
    drain_s: f64,
) -> std::io::Result<Vec<Outcome>> {
    let mut out = vec![Outcome::default(); reqs.len()];
    let deadline = reqs.last().map_or(0.0, |r| r.due) + drain_s;
    let (mut sent, mut recvd) = (0, 0);
    let mut wbuf = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    while recvd < reqs.len() {
        let now = t0.elapsed().as_secs_f64();
        wbuf.clear();
        while sent < reqs.len() && reqs[sent].due <= now && sent - recvd < max_inflight {
            wbuf.extend_from_slice(reqs[sent].line.as_bytes());
            wbuf.push(b'\n');
            out[sent].sent = now;
            sent += 1;
        }
        if !wbuf.is_empty() {
            conn.stream.write_all(&wbuf)?;
        }
        if now > deadline {
            break;
        }
        let can_send = sent < reqs.len() && sent - recvd < max_inflight;
        let wait = if can_send {
            reqs[sent].due - t0.elapsed().as_secs_f64()
        } else {
            (deadline - now).min(0.05)
        };
        if wait <= 0.0 && can_send {
            continue;
        }
        if !wait_readable(&conn.stream, Duration::from_secs_f64(wait.max(0.0)))? {
            continue;
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => {
                let at = t0.elapsed().as_secs_f64();
                conn.pending.extend_from_slice(&chunk[..k]);
                let mut start = 0;
                while let Some(pos) = conn.pending[start..].iter().position(|&b| b == b'\n') {
                    let line = &conn.pending[start..start + pos];
                    if recvd < out.len() {
                        out[recvd].recv = Some(at);
                        out[recvd].response = String::from_utf8_lossy(line).into_owned();
                        recvd += 1;
                    }
                    start += pos + 1;
                }
                conn.pending.drain(..start);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

/// Block until `stream` is readable or `timeout` passes; `true` when
/// readable. Uses `ppoll(2)`, whose timeout has nanosecond resolution —
/// socket read timeouts are rounded up to scheduler ticks (up to 10 ms),
/// which would make the generator late by that much.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 0x1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, exclusively borrowed values laid out
    // as the 64-bit Linux `struct pollfd` and `struct timespec` for the
    // whole call; `nfds = 1` matches the single `pollfd`, and a null
    // sigmask leaves the signal mask unchanged. `ppoll` writes only
    // `fd.revents`.
    let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if ready < 0 {
        let e = std::io::Error::last_os_error();
        return if e.kind() == ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(e)
        };
    }
    Ok(ready > 0)
}
