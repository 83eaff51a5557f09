//! tetra-obs: unified tracing, metrics, and profiling for the Tetra suite.
//!
//! This crate is the single observability layer shared by the tree-walking
//! interpreter, the bytecode VM, and the runtime (GC + lock registry). It
//! provides:
//!
//! * **Trace collection** ([`event`], [`ring`]) — each OS thread writes
//!   typed events into its own lock-free ring buffer. When tracing is
//!   disabled the emit path is one load of a thread-local flags word, so
//!   instrumentation can stay compiled into release builds.
//! * **Attribution** ([`stack`], [`flame`], [`heapprof`]) — shadow
//!   call-stack interning (a call path is one `u32` trie node), flame
//!   aggregation of (path, self-time) samples into collapsed-stack
//!   format, and an allocation-site heap profiler fed by the mark-sweep
//!   heap.
//! * **Metrics** ([`metrics`]) — a registry of named counters and log2
//!   histograms fed from low-frequency paths (lock operations, GC pauses,
//!   thread lifecycle).
//! * **Exporters** ([`chrome`], [`profile`]) — Chrome trace-event JSON
//!   (loadable in Perfetto / `chrome://tracing`, one track per Tetra
//!   thread) and a human-readable profiling report (hot call paths, top
//!   lines by self-time, per-lock and per-path contention, allocation
//!   sites, GC pause summary).
//!
//! # Lifecycle
//!
//! ```
//! use tetra_obs as obs;
//! obs::session::begin(obs::session::Config::default());
//! // ... run a Tetra program; instrumented code emits events ...
//! let node = obs::stack::child(obs::stack::ROOT, "main");
//! obs::stmt(0, 1, node);
//! let trace = obs::session::end();
//! let json = obs::chrome::export(&trace);
//! let report = obs::profile::report(&trace, None);
//! let folded = obs::flame::write_folded(&trace);
//! assert!(json.starts_with("{\"traceEvents\":"));
//! assert!(report.contains("threads: 1"));
//! assert!(folded.starts_with("main "));
//! ```
//!
//! A session belongs to the thread that began it and to the runs that
//! thread starts: the interpreter's and the pool's threads enter the
//! session of the thread that started the run, and the VM runs on its
//! caller's thread. Threads in no session record nothing, so two threads
//! can observe two runs at once and neither sees the other's data. A
//! thread the caller starts itself joins in explicitly:
//!
//! ```
//! use tetra_obs as obs;
//! obs::session::begin(obs::session::Config::default());
//! let session = obs::session::current();
//! std::thread::spawn(move || {
//!     obs::session::enter(session);
//!     obs::stmt(1, 7, obs::stack::ROOT);
//! })
//! .join()
//! .unwrap();
//! assert_eq!(obs::session::end().events.len(), 1);
//! ```
//!
//! Events are timestamped in nanoseconds relative to the session start.
//! Ring buffers hold the most recent `events_per_thread` events per
//! thread; older events are overwritten and counted as dropped.

pub mod chrome;
pub mod event;
pub mod flame;
pub mod heapprof;
pub mod metrics;
pub mod profile;
pub mod ring;
pub mod session;
pub mod stack;

pub use event::{Event, EventKind};
pub use session::Trace;

use session::{HEAP_PROFILE, METRICS, TRACE};
use std::time::Instant;

/// True when the calling thread's session collects trace events. This is
/// the only check on the disabled fast path.
#[inline(always)]
pub fn enabled() -> bool {
    session::flags() & TRACE != 0
}

/// True when the calling thread's session collects metrics.
#[inline(always)]
pub fn metrics_enabled() -> bool {
    session::flags() & METRICS != 0
}

/// True when the calling thread's session profiles allocation sites.
#[inline(always)]
pub fn heap_profile_enabled() -> bool {
    session::flags() & HEAP_PROFILE != 0
}

/// True when the engines should maintain shadow call stacks: either the
/// trace wants stack nodes on its events, or the heap profiler wants
/// allocation sites. Checked once per user-function call.
#[inline(always)]
pub fn attribution_enabled() -> bool {
    session::flags() & (TRACE | HEAP_PROFILE) != 0
}

// ---------------------------------------------------------------------------
// Emission API (called from instrumented code)
// ---------------------------------------------------------------------------

/// Push one event into the calling thread's session.
#[inline]
fn emit(kind: EventKind, tid: u32, start_ns: u64, dur_ns: u64, a: u32, b: u32, c: u32) {
    session::emit(&Event { kind, tid, start_ns, dur_ns, a, b, c });
}

/// Nanoseconds from session time `start_ns` to now.
#[inline]
fn since(start_ns: u64) -> u64 {
    session::elapsed_ns().saturating_sub(start_ns)
}

/// Current session-relative timestamp in nanoseconds, or 0 when tracing is
/// disabled. Instrumented code calls this at span starts and passes the
/// value back to the matching emit function.
#[inline]
pub fn now_ns() -> u64 {
    if !enabled() {
        return 0;
    }
    session::elapsed_ns()
}

/// Timestamp that ignores the trace switch — used by metrics-only call
/// sites (lock wait and hold accounting) that must time even without a
/// trace.
#[inline]
pub fn metric_now_ns() -> u64 {
    if session::flags() & (TRACE | METRICS) == 0 {
        return 0;
    }
    session::elapsed_ns()
}

/// Statement executed: an instant event carrying the source line and the
/// thread's current shadow call-stack node. This is the highest-frequency
/// event; per-line and per-path self-time in the profile report are
/// derived from deltas between consecutive statement instants on the same
/// thread.
#[inline]
pub fn stmt(tid: u32, line: u32, stack_node: u32) {
    if !enabled() {
        return;
    }
    emit(EventKind::Stmt, tid, session::elapsed_ns(), 0, line, 0, stack_node);
}

/// User-function call span (`start_ns` from [`now_ns`] at entry);
/// `stack_node` is the callee's call-path node.
#[inline]
pub fn call(tid: u32, name: &str, line: u32, start_ns: u64, stack_node: u32) {
    if !enabled() {
        return;
    }
    let sym = session::intern(name);
    emit(EventKind::Call, tid, start_ns, since(start_ns), sym, line, stack_node);
}

/// Whole-lifetime span of a Tetra thread, emitted when the thread
/// finishes. `name` becomes the Chrome track name.
#[inline]
pub fn thread_span(tid: u32, name: &str, start_ns: u64) {
    if !enabled() {
        return;
    }
    emit(EventKind::ThreadSpan, tid, start_ns, since(start_ns), session::intern(name), 0, 0);
    metrics::counter_add("threads.finished", 1);
}

/// Time spent blocked acquiring a named lock (zero-duration waits are
/// still recorded — they distinguish contended from uncontended acquires
/// by duration). `stack_node` names the acquiring call path.
#[inline]
pub fn lock_wait(tid: u32, lock: &str, line: u32, start_ns: u64, stack_node: u32) {
    let wait = metric_now_ns().saturating_sub(start_ns);
    metrics::histogram_record("lock.wait_ns", wait);
    if !enabled() {
        return;
    }
    emit(EventKind::LockWait, tid, start_ns, wait, session::intern(lock), line, stack_node);
}

/// Time a named lock was held, emitted at release. `stack_node` names the
/// call path that acquired the lock.
#[inline]
pub fn lock_hold(tid: u32, lock: &str, start_ns: u64, stack_node: u32) {
    let held = metric_now_ns().saturating_sub(start_ns);
    metrics::histogram_record("lock.hold_ns", held);
    if !enabled() {
        return;
    }
    emit(EventKind::LockHold, tid, start_ns, held, session::intern(lock), 0, stack_node);
}

/// Synthetic thread id for the collector's events: GC pauses appear as
/// their own track rather than under whichever mutator triggered them.
pub const GC_TID: u32 = u32::MAX;

/// Phases of one stop-the-world collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcPhase {
    /// Collector waiting for mutators to reach safepoints.
    StwWait,
    /// Mark phase (root scan + transitive marking).
    Mark,
    /// Sweep phase.
    Sweep,
    /// The entire pause, wrapping the three phases above.
    Pause,
}

/// GC phase span from `start` to `end`, the collector's own clock
/// readings; `collection` is the ordinal of the collection. `detail` is a
/// phase-specific payload carried in the event's `b` word: the number of
/// mark workers for [`GcPhase::Mark`], the number of segments swept for
/// [`GcPhase::Sweep`], and 0 otherwise.
#[inline]
pub fn gc_phase(
    tid: u32,
    phase: GcPhase,
    collection: u32,
    start: Instant,
    end: Instant,
    detail: u32,
) {
    let dur = end.saturating_duration_since(start).as_nanos() as u64;
    if phase == GcPhase::Pause {
        metrics::histogram_record("gc.pause_ns", dur);
    }
    if !enabled() {
        return;
    }
    let kind = match phase {
        GcPhase::StwWait => EventKind::GcStwWait,
        GcPhase::Mark => EventKind::GcMark,
        GcPhase::Sweep => EventKind::GcSweep,
        GcPhase::Pause => EventKind::GcPause,
    };
    emit(kind, tid, session::ns_since_start(start), dur, collection, detail, 0);
}

/// One VM dispatch batch: `instructions` instructions executed for `tid`
/// between `start_ns` and now, all under call path `stack_node` (the
/// scheduler flushes the batch whenever a call or return changes the
/// stack).
#[inline]
pub fn vm_dispatch(tid: u32, instructions: u32, start_ns: u64, stack_node: u32) {
    if !enabled() {
        return;
    }
    emit(EventKind::VmDispatch, tid, start_ns, since(start_ns), instructions, 0, stack_node);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_cheap_and_silent() {
        assert!(!enabled());
        assert!(!heap_profile_enabled());
        assert!(!attribution_enabled());
        assert_eq!(now_ns(), 0);
        stmt(0, 1, 0);
        call(0, "f", 1, 0, 0);
        lock_wait(0, "m", 1, 0, 0);
        assert_eq!(heapprof::record_alloc(64), 0);
        // No session: nothing to collect.
        let trace = session::end();
        assert!(trace.events.is_empty());
        assert!(trace.heap.is_empty());
    }
}
