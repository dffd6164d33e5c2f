//! **Structured tracing + unified metrics for the malleable-task stack.**
//!
//! A thread-local, span-based recorder with no external dependencies:
//!
//! - **Hierarchical timed spans** (`solve.lmax → probe.solve → flow.solve →
//!   flow.dinic_phase`) recorded as compact begin/end events with monotonic
//!   nanosecond timestamps from a process-wide [`Instant`] anchor.
//! - **A counter/gauge registry** that unifies the solver telemetry structs
//!   (`FlowStats`, `ProbeTelemetry`, the WDEQ/segment-tree event counters,
//!   the restricted rank oracle's `rank.augmentations`) behind one API —
//!   see [`MetricSet`].
//! - **Two exporters**: Chrome trace-event JSON ([`chrome::to_chrome_json`],
//!   loadable in Perfetto / `about:tracing`) and a self-contained text
//!   flamegraph / top-k-spans summary ([`flame::render_summary`]).
//! - **Zero-cost disabled mode**: when no [`Session`] is active every probe
//!   (`span`, `counter`, `gauge`) is a thread-local boolean check — no
//!   allocation, no timestamp read, and no atomics on the hot path (the one
//!   atomic load happens when a thread's buffer is first initialised).
//!
//! # Threading model
//!
//! Each thread records into its own buffer; buffers are merged into the
//! session trace when a thread exits (TLS destructor), when
//! [`flush_thread`] is called explicitly, or at [`Session::finish`] for the
//! calling thread. This matches the batch engine's executor, which spawns
//! fresh scoped threads per grid: worker buffers are flushed per cell and
//! drained before the scope returns, so `finish()` observes a complete,
//! merged trace with no torn spans.
//!
//! Only one session can be active at a time; [`Session::start`] serialises
//! on a global lock (concurrent tests queue instead of interleaving).
//! Threads that initialised their buffer while tracing was disabled stay
//! disabled for their lifetime — start the session before spawning workers.
//!
//! ```
//! let session = malleable_trace::Session::start();
//! {
//!     let mut sp = malleable_trace::span("solve.lmax");
//!     sp.arg("n", 42);
//!     malleable_trace::counter("flow.phases", 3);
//! }
//! let trace = session.finish();
//! assert_eq!(trace.validate().unwrap().spans, 1);
//! let json = malleable_trace::chrome::to_chrome_json(&trace);
//! malleable_trace::chrome::validate_chrome_json(&json).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod flame;
pub mod metrics;

pub use metrics::MetricSet;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// One recorded event. Span begin/end pairs carry a static name (low
/// cardinality, used for aggregation); begins may add a dynamic label and
/// ends may add numeric args (per-span counters).
#[derive(Debug, Clone)]
pub enum Event {
    /// Span opened (`ph:"B"` in Chrome trace terms).
    Begin {
        /// Static span name, e.g. `"flow.solve"`.
        name: &'static str,
        /// Nanoseconds since the session anchor.
        ts: u64,
        /// Optional dynamic label (e.g. a workload family), emitted as a
        /// string arg — kept out of `name` so aggregation stays low-cardinality.
        label: Option<Box<str>>,
    },
    /// Span closed (`ph:"E"`), with any args attached via [`Span::arg`].
    End {
        /// Static span name (must match the open span).
        name: &'static str,
        /// Nanoseconds since the session anchor.
        ts: u64,
        /// Numeric args attached while the span was open.
        args: Vec<(&'static str, u64)>,
    },
    /// Monotone counter increment (`ph:"C"`, exported as running totals).
    Counter {
        /// Registry counter name, e.g. `"wdeq.events"`.
        name: &'static str,
        /// Nanoseconds since the session anchor.
        ts: u64,
        /// Increment (counters are monotone; deltas sum into totals).
        delta: u64,
    },
    /// Point-in-time gauge sample (last value wins in summaries).
    Gauge {
        /// Registry gauge name, e.g. `"batch.cells"`.
        name: &'static str,
        /// Nanoseconds since the session anchor.
        ts: u64,
        /// Sampled value.
        value: u64,
    },
}

impl Event {
    /// Timestamp in nanoseconds since the session anchor.
    pub fn ts(&self) -> u64 {
        match *self {
            Event::Begin { ts, .. }
            | Event::End { ts, .. }
            | Event::Counter { ts, .. }
            | Event::Gauge { ts, .. } => ts,
        }
    }
}

/// A contiguous run of events recorded by one thread. A thread may
/// contribute several chunks (one per explicit flush); chunks from the same
/// `tid` are in chronological order.
#[derive(Debug)]
pub struct ThreadChunk {
    /// Session-unique thread id (dense, assigned at first recording).
    pub tid: u64,
    /// Events in recording order.
    pub events: Vec<Event>,
}

/// Structural statistics returned by [`Trace::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events across all threads.
    pub events: usize,
    /// Completed spans (begin/end pairs).
    pub spans: usize,
    /// Deepest nesting observed on any thread.
    pub max_depth: usize,
    /// Distinct thread ids.
    pub threads: usize,
    /// Counter increment events.
    pub counters: usize,
}

/// The merged output of a tracing [`Session`].
#[derive(Debug, Default)]
pub struct Trace {
    /// Per-thread event chunks in flush order.
    pub chunks: Vec<ThreadChunk>,
}

impl Trace {
    /// Events grouped by thread id, preserving per-thread recording order.
    pub fn events_per_thread(&self) -> BTreeMap<u64, Vec<&Event>> {
        let mut map: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
        for chunk in &self.chunks {
            map.entry(chunk.tid)
                .or_default()
                .extend(chunk.events.iter());
        }
        map
    }

    /// Total number of recorded events.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.events.len()).sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The unified counter registry: sums of all [`Event::Counter`] deltas.
    pub fn counter_totals(&self) -> BTreeMap<&'static str, u64> {
        let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        for chunk in &self.chunks {
            for ev in &chunk.events {
                if let Event::Counter { name, delta, .. } = ev {
                    *totals.entry(name).or_insert(0) += delta;
                }
            }
        }
        totals
    }

    /// Final gauge values (latest sample per name across all threads).
    pub fn gauge_finals(&self) -> BTreeMap<&'static str, u64> {
        let mut latest: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for chunk in &self.chunks {
            for ev in &chunk.events {
                if let Event::Gauge { name, ts, value } = *ev {
                    let slot = latest.entry(name).or_insert((ts, value));
                    if ts >= slot.0 {
                        *slot = (ts, value);
                    }
                }
            }
        }
        latest.into_iter().map(|(k, (_, v))| (k, v)).collect()
    }

    /// Distinct span names present in the trace (the instrumented layers).
    pub fn span_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = Vec::new();
        for chunk in &self.chunks {
            for ev in &chunk.events {
                if let Event::Begin { name, .. } = ev {
                    if !names.contains(name) {
                        names.push(name);
                    }
                }
            }
        }
        names.sort_unstable();
        names
    }

    /// Structural validation: on every thread, spans must be balanced
    /// (every begin closed by a matching end, nothing closed twice) and
    /// timestamps must be monotone non-decreasing. Returns aggregate
    /// statistics on success.
    pub fn validate(&self) -> Result<TraceStats, String> {
        let mut stats = TraceStats {
            events: 0,
            spans: 0,
            max_depth: 0,
            threads: 0,
            counters: 0,
        };
        for (tid, events) in self.events_per_thread() {
            stats.threads += 1;
            let mut stack: Vec<&'static str> = Vec::new();
            let mut last_ts = 0u64;
            for ev in events {
                stats.events += 1;
                let ts = ev.ts();
                if ts < last_ts {
                    return Err(format!(
                        "tid {tid}: timestamp went backwards ({ts} < {last_ts})"
                    ));
                }
                last_ts = ts;
                match ev {
                    Event::Begin { name, .. } => {
                        stack.push(name);
                        stats.max_depth = stats.max_depth.max(stack.len());
                    }
                    Event::End { name, .. } => match stack.pop() {
                        Some(open) if open == *name => stats.spans += 1,
                        Some(open) => {
                            return Err(format!(
                                "tid {tid}: span end {name:?} does not match open span {open:?}"
                            ))
                        }
                        None => {
                            return Err(format!("tid {tid}: span end {name:?} with no open span"))
                        }
                    },
                    Event::Counter { .. } => stats.counters += 1,
                    Event::Gauge { .. } => {}
                }
            }
            if let Some(open) = stack.last() {
                return Err(format!("tid {tid}: span {open:?} never closed"));
            }
        }
        Ok(stats)
    }

    fn from_chunks(chunks: Vec<ThreadChunk>) -> Trace {
        Trace { chunks }
    }
}

// ------------------------------------------------------------------
// Recorder internals.
// ------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static DRAINED: Mutex<Vec<ThreadChunk>> = Mutex::new(Vec::new());
static SESSION_LOCK: Mutex<()> = Mutex::new(());
static ANCHOR: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn drained() -> MutexGuard<'static, Vec<ThreadChunk>> {
    // A panic while holding this lock (e.g. a failed test assertion)
    // poisons it; the buffers themselves are always structurally sound,
    // so recover rather than cascade.
    DRAINED.lock().unwrap_or_else(|e| e.into_inner())
}

struct Local {
    enabled: bool,
    epoch: u64,
    tid: u64,
    events: Vec<Event>,
}

impl Local {
    fn new() -> Local {
        let enabled = ENABLED.load(Ordering::Relaxed);
        let (tid, epoch) = if enabled {
            (
                NEXT_TID.fetch_add(1, Ordering::Relaxed),
                EPOCH.load(Ordering::Relaxed),
            )
        } else {
            (0, 0)
        };
        Local {
            enabled,
            epoch,
            tid,
            events: Vec::new(),
        }
    }

    /// Move this thread's buffered events into the global drain. Events
    /// from a stale session (disabled, or an epoch that has since been
    /// superseded) are discarded instead.
    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let events = std::mem::take(&mut self.events);
        if self.enabled && self.epoch == EPOCH.load(Ordering::Relaxed) {
            drained().push(ThreadChunk {
                tid: self.tid,
                events,
            });
        }
    }

    fn reset_for_session(&mut self) {
        self.enabled = true;
        self.epoch = EPOCH.load(Ordering::Relaxed);
        self.tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        self.events.clear();
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::new());
}

fn with_local<R>(default: R, f: impl FnOnce(&mut Local) -> R) -> R {
    // try_with: recording during TLS teardown degrades to a no-op
    // instead of panicking.
    LOCAL
        .try_with(|l| f(&mut l.borrow_mut()))
        .unwrap_or(default)
}

/// True when a tracing session is active *for the calling thread*.
pub fn enabled() -> bool {
    with_local(false, |l| l.enabled)
}

/// Push the calling thread's buffered events into the session trace.
/// Long-lived worker threads should call this at natural boundaries (the
/// batch engine flushes once per grid cell); threads that exit flush
/// automatically via their TLS destructor.
pub fn flush_thread() {
    with_local((), Local::flush)
}

// ------------------------------------------------------------------
// Recording API.
// ------------------------------------------------------------------

/// RAII guard for a timed span: records a begin event on creation (when
/// tracing is enabled) and the matching end event on drop. Nesting is
/// enforced by scope structure — guards drop in LIFO order.
#[must_use = "a span is timed until the guard drops"]
pub struct Span {
    live: bool,
    name: &'static str,
    args: Vec<(&'static str, u64)>,
}

impl Span {
    /// Attach a numeric arg to this span (emitted with the end event).
    /// No-op when the span is dead (tracing disabled at open time).
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if self.live {
            self.args.push((key, value));
        }
    }

    /// True when this span is actually recording — use to skip arg
    /// computation that is not already free.
    pub fn is_live(&self) -> bool {
        self.live
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let name = self.name;
        let args = std::mem::take(&mut self.args);
        let ts = now_ns();
        with_local((), |l| {
            if l.enabled {
                l.events.push(Event::End { name, ts, args });
            }
        });
    }
}

/// Open a timed span. When tracing is disabled this is a thread-local
/// boolean check returning a dead guard — no allocation, no clock read.
pub fn span(name: &'static str) -> Span {
    let live = with_local(false, |l| {
        if !l.enabled {
            return false;
        }
        let ts = now_ns();
        l.events.push(Event::Begin {
            name,
            ts,
            label: None,
        });
        true
    });
    Span {
        live,
        name,
        args: Vec::new(),
    }
}

/// Open a timed span with a dynamic label (e.g. a workload family). The
/// label closure is only invoked when tracing is enabled, so disabled mode
/// never pays for the `String`.
pub fn span_labeled(name: &'static str, label: impl FnOnce() -> String) -> Span {
    let live = with_local(false, |l| {
        if !l.enabled {
            return false;
        }
        let ts = now_ns();
        l.events.push(Event::Begin {
            name,
            ts,
            label: Some(label().into_boxed_str()),
        });
        true
    });
    Span {
        live,
        name,
        args: Vec::new(),
    }
}

/// Increment a registry counter. Zero deltas are recorded too (they are
/// cheap and keep call sites branch-free); totals are summed at export.
pub fn counter(name: &'static str, delta: u64) {
    with_local((), |l| {
        if l.enabled {
            let ts = now_ns();
            l.events.push(Event::Counter { name, ts, delta });
        }
    });
}

/// Sample a registry gauge (point-in-time value; last sample wins).
pub fn gauge(name: &'static str, value: u64) {
    with_local((), |l| {
        if l.enabled {
            let ts = now_ns();
            l.events.push(Event::Gauge { name, ts, value });
        }
    });
}

// ------------------------------------------------------------------
// Session lifecycle.
// ------------------------------------------------------------------

/// An active tracing session. Construction enables recording process-wide
/// (for the calling thread and any thread whose buffer initialises while
/// the session is live); [`Session::finish`] disables recording and
/// returns the merged [`Trace`].
///
/// Sessions are serialised on a global lock — a second `start()` blocks
/// until the first session's guard drops, so concurrently running tests
/// cannot interleave their traces.
pub struct Session {
    _guard: MutexGuard<'static, ()>,
}

impl Session {
    /// Begin a tracing session. Call before spawning worker threads:
    /// threads whose buffers initialised while tracing was disabled do not
    /// re-check the global flag on the hot path.
    pub fn start() -> Session {
        let guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        ANCHOR.get_or_init(Instant::now);
        EPOCH.fetch_add(1, Ordering::Relaxed);
        drained().clear();
        ENABLED.store(true, Ordering::Relaxed);
        with_local((), Local::reset_for_session);
        Session { _guard: guard }
    }

    /// End the session: disable recording, flush the calling thread, and
    /// return the merged trace. Worker threads must have exited (or
    /// flushed) by now — the batch engine's scoped executor guarantees
    /// this; stragglers from a stale epoch are discarded, never mixed in.
    pub fn finish(self) -> Trace {
        ENABLED.store(false, Ordering::Relaxed);
        with_local((), |l| {
            l.flush();
            l.enabled = false;
        });
        Trace::from_chunks(std::mem::take(&mut *drained()))
        // `self` drops here: the Drop impl re-disables, which is a no-op.
    }
}

impl Drop for Session {
    /// A session abandoned without [`Session::finish`] — typically a
    /// panic unwinding through a test — must still disable recording,
    /// or everything after it (including work meant to run untraced)
    /// would keep recording forever. The buffered events are left in the
    /// drain; the next `start()` clears them.
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::Relaxed);
        with_local((), |l| l.enabled = false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_validate() {
        let session = Session::start();
        {
            let mut outer = span("outer");
            outer.arg("n", 7);
            {
                let _inner = span("inner");
                counter("c.x", 2);
                counter("c.x", 3);
            }
            gauge("g.y", 11);
        }
        let trace = session.finish();
        let stats = trace.validate().expect("balanced");
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.counters, 2);
        assert_eq!(stats.max_depth, 2);
        assert_eq!(trace.counter_totals().get("c.x"), Some(&5));
        assert_eq!(trace.gauge_finals().get("g.y"), Some(&11));
        assert_eq!(trace.span_names(), vec!["inner", "outer"]);
    }

    #[test]
    fn disabled_mode_records_nothing() {
        // No session active: probes are dead, and a later session must not
        // resurrect anything recorded while disabled.
        {
            let _sp = span("ghost");
            counter("ghost.count", 99);
        }
        let session = Session::start();
        let trace = session.finish();
        assert!(trace.is_empty());
    }

    #[test]
    fn labeled_span_closure_skipped_when_disabled() {
        let mut called = false;
        {
            let _sp = span_labeled("dead", || {
                called = true;
                String::from("never")
            });
        }
        assert!(!called, "label closure must not run while disabled");
    }

    #[test]
    fn sessions_are_isolated() {
        let s1 = Session::start();
        counter("a", 1);
        let t1 = s1.finish();
        let s2 = Session::start();
        counter("b", 2);
        let t2 = s2.finish();
        assert_eq!(t1.counter_totals().get("a"), Some(&1));
        assert!(!t1.counter_totals().contains_key("b"));
        assert_eq!(t2.counter_totals().get("b"), Some(&2));
        assert!(!t2.counter_totals().contains_key("a"));
    }

    #[test]
    fn validate_rejects_torn_spans() {
        let trace = Trace {
            chunks: vec![ThreadChunk {
                tid: 0,
                events: vec![Event::Begin {
                    name: "open",
                    ts: 1,
                    label: None,
                }],
            }],
        };
        assert!(trace.validate().is_err());
        let trace = Trace {
            chunks: vec![ThreadChunk {
                tid: 0,
                events: vec![
                    Event::Begin {
                        name: "a",
                        ts: 1,
                        label: None,
                    },
                    Event::End {
                        name: "b",
                        ts: 2,
                        args: Vec::new(),
                    },
                ],
            }],
        };
        assert!(trace.validate().is_err());
    }
}
