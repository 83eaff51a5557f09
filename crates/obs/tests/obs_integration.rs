//! Integration tests for the observability layer. A session belongs to
//! the thread that began it, so these tests run in parallel without
//! seeing each other's events.

use std::time::Instant;
use tetra_obs::{chrome, profile, session, EventKind};

#[test]
fn disabled_mode_emits_nothing() {
    // No session: every emission must be a no-op.
    assert!(!tetra_obs::enabled());
    tetra_obs::stmt(0, 1, tetra_obs::stack::ROOT);
    tetra_obs::call(0, "f", 1, 0, tetra_obs::stack::ROOT);
    tetra_obs::thread_span(1, "t", 0);
    tetra_obs::lock_wait(0, "l", 2, 0, tetra_obs::stack::ROOT);
    tetra_obs::lock_hold(0, "l", 0, tetra_obs::stack::ROOT);
    tetra_obs::gc_phase(
        tetra_obs::GC_TID,
        tetra_obs::GcPhase::Pause,
        1,
        Instant::now(),
        Instant::now(),
    );
    tetra_obs::vm_dispatch(0, 256, 0, tetra_obs::stack::ROOT);
    tetra_obs::metrics::counter_add("c", 1);
    // Heap profiling off: allocations are not attributed to any site.
    assert!(!tetra_obs::heap_profile_enabled());
    assert!(!tetra_obs::attribution_enabled());
    assert_eq!(tetra_obs::heapprof::record_alloc(64), 0);
    // A session started afterwards must see none of it.
    session::begin(session::Config::default());
    let trace = session::end();
    assert!(trace.events.is_empty(), "pre-session events leaked: {:?}", trace.events);
    assert!(trace.metrics.counters.is_empty());
}

#[test]
fn concurrent_emit_from_many_threads() {
    const THREADS: u32 = 4;
    const EVENTS_PER_THREAD: u32 = 500;
    session::begin(session::Config::default());
    let handles: Vec<_> = (1..=THREADS)
        .map(|tid| {
            // Plain std threads start outside any session; join ours.
            let handle = session::current();
            std::thread::spawn(move || {
                session::enter(handle);
                let start = tetra_obs::now_ns();
                for i in 0..EVENTS_PER_THREAD {
                    tetra_obs::stmt(tid, i + 1, tetra_obs::stack::ROOT);
                }
                tetra_obs::thread_span(tid, &format!("worker-{tid}"), start);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let trace = session::end();
    assert_eq!(trace.dropped_events, 0);
    for tid in 1..=THREADS {
        let stmts =
            trace.events.iter().filter(|e| e.tid == tid && e.kind == EventKind::Stmt).count();
        assert_eq!(stmts, EVENTS_PER_THREAD as usize, "thread {tid} lost events");
    }
    // end() sorts the merged stream by start time.
    assert!(trace.events.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
}

#[test]
fn chrome_export_has_one_track_per_tetra_thread() {
    session::begin(session::Config::default());
    let start = Instant::now();
    let t0 = tetra_obs::now_ns();
    tetra_obs::call(0, "main", 1, t0, tetra_obs::stack::ROOT);
    tetra_obs::thread_span(0, "main", t0);
    tetra_obs::thread_span(1, "parallel-1", t0);
    tetra_obs::thread_span(2, "parallel-2", t0);
    tetra_obs::gc_phase(tetra_obs::GC_TID, tetra_obs::GcPhase::Pause, 1, start, Instant::now());
    let trace = session::end();
    let json = chrome::export(&trace);

    // Shape: Perfetto/chrome://tracing object form with a traceEvents array.
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert!(json.trim_end().ends_with('}'), "{json}");
    // One thread_name metadata record per Tetra thread, including the
    // synthetic GC track, each with a distinct tid.
    for name in ["\"main\"", "\"parallel-1\"", "\"parallel-2\"", "\"gc\""] {
        assert!(json.contains(name), "missing thread name {name} in {json}");
    }
    let meta_count = json.matches("\"thread_name\"").count();
    assert_eq!(meta_count, 4, "expected 4 thread_name records: {json}");
    for tid in ["\"tid\":0", "\"tid\":1", "\"tid\":2"] {
        assert!(json.contains(tid), "missing {tid} in {json}");
    }
    // Every event row is a complete span with microsecond timestamps.
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"ts\":"));
}

#[test]
fn profile_report_covers_locks_and_gc() {
    session::begin(session::Config::default());
    let start = Instant::now();
    let t0 = tetra_obs::now_ns();
    tetra_obs::stmt(0, 3, tetra_obs::stack::ROOT);
    tetra_obs::lock_wait(0, "counter", 3, t0, tetra_obs::stack::ROOT);
    tetra_obs::lock_hold(0, "counter", t0, tetra_obs::stack::ROOT);
    tetra_obs::gc_phase(tetra_obs::GC_TID, tetra_obs::GcPhase::Pause, 1, start, Instant::now());
    let trace = session::end();
    let report = profile::report(&trace, None);
    assert!(report.contains("lock contention"), "{report}");
    assert!(report.contains("counter"), "{report}");
    assert!(report.contains("gc pauses"), "{report}");
}

#[test]
fn ring_wraparound_is_bounded_and_keeps_newest() {
    let capacity = 64;
    session::begin(session::Config { events_per_thread: capacity, ..session::Config::default() });
    let total = capacity as u32 * 3;
    for i in 0..total {
        tetra_obs::stmt(0, i + 1, tetra_obs::stack::ROOT);
    }
    let trace = session::end();
    assert_eq!(trace.events.len(), capacity, "ring must cap at its capacity");
    assert_eq!(trace.dropped_events, (total as usize - capacity) as u64);
    // Drops are attributed to the thread that owned the ring.
    assert_eq!(trace.dropped_by_thread.get(&0).copied(), Some(trace.dropped_events));
    // Survivors are exactly the newest `capacity` events, oldest first.
    let lines: Vec<u32> = trace.events.iter().map(|e| e.a).collect();
    let expected: Vec<u32> = (total - capacity as u32 + 1..=total).collect();
    assert_eq!(lines, expected);
}
