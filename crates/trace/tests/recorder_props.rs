//! Property tests for the recorder: spans stay balanced and properly
//! nested under arbitrary call shapes, round-trip through the Chrome
//! exporter, and merge cleanly across parallel threads.
//!
//! Sessions serialise on the crate's global lock, so these tests are safe
//! under the default parallel test runner.

use malleable_trace::chrome::{to_chrome_json, validate_chrome_json};
use malleable_trace::{counter, flush_thread, span, span_labeled, Session, Span};
use proptest::prelude::*;

const NAMES: &[&str] = &["solve.lmax", "probe.solve", "flow.solve", "wdeq.drive"];

const MAX_DEPTH: usize = 6;

/// Interpret a random op list against the real recorder, holding open
/// spans as RAII guards on an explicit stack. Returns the shadow counts:
/// (spans opened, sum of counter deltas).
fn execute(ops: &[u8]) -> (usize, u64) {
    let mut stack: Vec<Span> = Vec::new();
    let mut spans = 0usize;
    let mut sum = 0u64;
    for &op in ops {
        match op % 4 {
            // Open a nested span (names keyed by depth, like the solver stack).
            0 if stack.len() < MAX_DEPTH => {
                stack.push(span(NAMES[stack.len() % NAMES.len()]));
                spans += 1;
            }
            // Close the innermost open span.
            1 => {
                stack.pop();
            }
            // Record a counter increment.
            2 => {
                let delta = u64::from(op / 4) + 1;
                counter("prop.count", delta);
                sum += delta;
            }
            // A leaf span with a label and an arg, opened and closed in place.
            _ => {
                let mut sp =
                    span_labeled(NAMES[stack.len() % NAMES.len()], || format!("leaf op={op}"));
                sp.arg("op", u64::from(op));
                spans += 1;
            }
        }
    }
    // Unwind strictly LIFO — popping (not draining the Vec front-first)
    // is what keeps the end events properly nested.
    while stack.pop().is_some() {}
    (spans, sum)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary open/close/count sequences produce balanced, properly
    /// nested traces whose span and counter totals match the shadow
    /// execution, both natively and after the Chrome JSON round trip.
    #[test]
    fn arbitrary_call_sequences_stay_balanced(ops in proptest::collection::vec(0u8..=255, 0..60)) {
        let session = Session::start();
        let (expect_spans, expect_sum) = execute(&ops);
        let trace = session.finish();

        let stats = trace.validate().expect("balanced, nested, monotone");
        prop_assert_eq!(stats.spans, expect_spans);
        let totals = trace.counter_totals();
        prop_assert_eq!(totals.get("prop.count").copied().unwrap_or(0), expect_sum);

        let json = to_chrome_json(&trace);
        let cstats = validate_chrome_json(&json).expect("chrome export validates");
        prop_assert_eq!(cstats.begins, expect_spans);
        prop_assert_eq!(cstats.ends, expect_spans);
    }
}

/// Parallel recording: worker threads (spawned after the session starts,
/// like the batch executor does) each record their own span stack; the
/// merged trace keeps every thread balanced with no interleaved or
/// orphaned spans, whether buffers drain via explicit flush or TLS exit.
///
/// The workers are joined through `JoinHandle::join`, which returns only
/// after the thread's TLS destructors ran; `std::thread::scope` may return
/// before them, racing the destructor flush against `finish`.
#[test]
fn parallel_threads_merge_cleanly() {
    let session = Session::start();
    let workers = 8u64;
    let spans_per_worker = 25u64;
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            std::thread::spawn(move || {
                for i in 0..spans_per_worker {
                    let mut cell = span_labeled("batch.cell", || format!("worker {w} cell {i}"));
                    cell.arg("i", i);
                    {
                        let _inner = span("flow.solve");
                        counter("flow.phases", 1);
                    }
                    drop(cell);
                    // Half the workers flush per cell (the batch engine's
                    // pattern); the rest rely on the TLS destructor.
                    if w % 2 == 0 {
                        flush_thread();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }
    let trace = session.finish();
    let stats = trace.validate().expect("merged trace balanced per thread");
    assert_eq!(stats.spans as u64, workers * spans_per_worker * 2);
    assert_eq!(stats.threads as u64, workers);
    assert_eq!(
        trace.counter_totals().get("flow.phases").copied(),
        Some(workers * spans_per_worker)
    );
    let json = to_chrome_json(&trace);
    let cstats = validate_chrome_json(&json).expect("chrome export validates");
    assert_eq!(cstats.threads as u64, workers);
}
