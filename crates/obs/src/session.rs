//! Sessions: begin/end, the calling thread's session, the session clock,
//! ring registration, and string interning.
//!
//! A session is a value. [`begin`] creates one and makes it the calling
//! thread's session; [`end`] detaches it from that thread and returns
//! what it collected. A session belongs to the thread that began it and
//! to the runs that thread starts: every OS thread a run starts enters
//! the starting thread's session ([`current`], [`enter`]), so
//! emitters, metric updates and heap-site updates land in the session of
//! the run that made them. Sessions on different threads are
//! independent, and a thread outside any session records nothing.
//!
//! Per thread there are two slots: a `Drop`-free flags word, the only
//! thing the disabled fast path reads, and the session handle together
//! with the thread's ring for it. Entering another session replaces both,
//! so a pooled or long-lived thread never writes into a stale buffer.

use crate::event::{Event, EventKind};
use crate::heapprof;
use crate::metrics;
use crate::ring::{Ring, DEFAULT_EVENTS_PER_THREAD};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Session configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Collect trace events.
    pub trace: bool,
    /// Collect metrics (counters/histograms). Independent of tracing.
    pub metrics: bool,
    /// Attribute heap allocations to (call path, line) sites.
    pub heap_profile: bool,
    /// Ring capacity per thread, in events.
    pub events_per_thread: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            trace: true,
            metrics: true,
            heap_profile: true,
            events_per_thread: DEFAULT_EVENTS_PER_THREAD,
        }
    }
}

/// Bits of the per-thread flags word.
pub(crate) const TRACE: u8 = 1;
pub(crate) const METRICS: u8 = 2;
pub(crate) const HEAP_PROFILE: u8 = 4;

/// Handle to one session. Clones name the same session; hand one to a
/// thread you start so that it records into your session.
#[derive(Clone)]
pub struct Session(Arc<State>);

/// Everything one session collects. Locks below recover from poisoning:
/// the state stays structurally valid if a traced thread panics
/// mid-update, and losing the whole report over one panicking thread
/// would be worse than a possibly undercounted metric.
pub(crate) struct State {
    flags: u8,
    start: Instant,
    events_per_thread: usize,
    rings: Mutex<Vec<Arc<Ring>>>,
    pub(crate) metrics: Mutex<metrics::Registry>,
    pub(crate) sites: Mutex<heapprof::Sites>,
}

/// A thread's attachment to its session: the handle and, from the
/// thread's first emit on, its ring.
struct Attached {
    session: Session,
    ring: Option<Arc<Ring>>,
}

thread_local! {
    static FLAGS: Cell<u8> = const { Cell::new(0) };
    static CURRENT: RefCell<Option<Attached>> = const { RefCell::new(None) };
}

pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The calling thread's flags word (0 outside a session).
#[inline(always)]
pub(crate) fn flags() -> u8 {
    FLAGS.with(Cell::get)
}

/// Make `session` the calling thread's session, replacing any other
/// (`None` leaves the thread in no session).
pub fn enter(session: Option<Session>) {
    FLAGS.with(|f| f.set(session.as_ref().map_or(0, |s| s.0.flags)));
    CURRENT.with(|c| *c.borrow_mut() = session.map(|session| Attached { session, ring: None }));
}

/// The calling thread's session, if it has one. Capture it before
/// starting a thread and [`enter`] it on the new thread.
pub fn current() -> Option<Session> {
    CURRENT.with(|c| c.borrow().as_ref().map(|a| a.session.clone()))
}

/// Run `f` on the calling thread's session, if it has one.
pub(crate) fn with_current<T>(f: impl FnOnce(&State) -> T) -> Option<T> {
    CURRENT.with(|c| c.borrow().as_ref().map(|a| f(&a.session.0)))
}

/// Nanoseconds from the calling thread's session start to `t` (0 outside
/// a session or for an earlier instant).
#[inline]
pub(crate) fn ns_since_start(t: Instant) -> u64 {
    with_current(|s| t.saturating_duration_since(s.start).as_nanos() as u64).unwrap_or(0)
}

/// Nanoseconds since the calling thread's session began.
#[inline]
pub fn elapsed_ns() -> u64 {
    ns_since_start(Instant::now())
}

/// Push `event` into the calling thread's ring, creating and registering
/// the ring on the thread's first emit into its session.
#[inline]
pub(crate) fn emit(event: &Event) {
    CURRENT.with(|c| {
        if let Some(a) = c.borrow_mut().as_mut() {
            let state = &a.session.0;
            let ring = a.ring.get_or_insert_with(|| {
                let ring = Arc::new(Ring::new(state.events_per_thread));
                lock(&state.rings).push(Arc::clone(&ring));
                ring
            });
            ring.push(event);
        }
    });
}

/// Start a session and make it the calling thread's, replacing any
/// session the thread was in.
pub fn begin(config: Config) {
    let flags = (TRACE * u8::from(config.trace))
        | (METRICS * u8::from(config.metrics))
        | (HEAP_PROFILE * u8::from(config.heap_profile));
    enter(Some(Session(Arc::new(State {
        flags,
        start: Instant::now(),
        events_per_thread: config.events_per_thread.max(16),
        rings: Mutex::new(Vec::new()),
        metrics: Mutex::default(),
        sites: Mutex::default(),
    }))));
}

/// Detach the calling thread's session and collect everything emitted
/// into it so far. For an exact snapshot, call after the traced
/// program's threads have been joined.
pub fn end() -> Trace {
    FLAGS.with(|f| f.set(0));
    let Some(Attached { session: Session(state), .. }) = CURRENT.with(|c| c.borrow_mut().take())
    else {
        return Trace::default();
    };
    let mut events = Vec::new();
    let mut dropped = 0u64;
    let mut dropped_by_thread: BTreeMap<u32, u64> = BTreeMap::new();
    let mut corrupt = 0u64;
    for ring in lock(&state.rings).iter() {
        let ring_dropped = ring.dropped();
        dropped += ring_dropped;
        if ring_dropped > 0 {
            // Attribute this ring's losses to the thread that owns it
            // (first event's tid; exact for the interpreter, where rings
            // map 1:1 to Tetra threads).
            let tid = ring.owner_tid().unwrap_or(0);
            *dropped_by_thread.entry(tid).or_insert(0) += ring_dropped;
        }
        let snap = ring.snapshot();
        corrupt += snap.corrupt;
        events.extend(snap.events);
    }
    events.sort_by_key(|e| (e.start_ns, e.tid));
    let metrics = lock(&state.metrics).snapshot();
    let heap = heapprof::snapshot(&lock(&state.sites));
    Trace {
        events,
        names: interner_names(),
        dropped_events: dropped,
        dropped_by_thread,
        corrupt_events: corrupt,
        duration_ns: state.start.elapsed().as_nanos() as u64,
        metrics,
        heap,
    }
}

// ---------------------------------------------------------------------------
// String interning
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Interner {
    map: HashMap<String, u32>,
    names: Vec<String>,
}

/// Process-wide, like the call-path trie: a symbol means the same name
/// in every session.
static INTERNER: Mutex<Option<Interner>> = Mutex::new(None);

thread_local! {
    /// Per-thread symbol cache so repeated interning of hot names (every
    /// function call, every lock op) skips the global mutex.
    static INTERN_CACHE: RefCell<HashMap<String, u32>> = RefCell::new(HashMap::new());
}

/// Intern `name`, returning a stable symbol valid for the process
/// lifetime.
pub fn intern(name: &str) -> u32 {
    INTERN_CACHE.with(|cache| {
        if let Some(sym) = cache.borrow().get(name) {
            return *sym;
        }
        let mut guard = lock(&INTERNER);
        let interner = guard.get_or_insert_with(Interner::default);
        let sym = match interner.map.get(name) {
            Some(s) => *s,
            None => {
                let s = interner.names.len() as u32;
                interner.names.push(name.to_string());
                interner.map.insert(name.to_string(), s);
                s
            }
        };
        cache.borrow_mut().insert(name.to_string(), sym);
        sym
    })
}

pub(crate) fn interner_names() -> Vec<String> {
    lock(&INTERNER).as_ref().map(|i| i.names.clone()).unwrap_or_default()
}

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

/// Everything one session collected: merged, time-sorted events plus the
/// symbol table and metrics snapshot needed to interpret them.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    /// All retained events, sorted by start time.
    pub events: Vec<Event>,
    /// Symbol table; event payloads holding symbols index into this.
    pub names: Vec<String>,
    /// Events lost to ring wraparound across all threads.
    pub dropped_events: u64,
    /// Ring-wraparound losses attributed per Tetra thread (the ring
    /// owner's tid; for the VM all scheduler rings attribute to the first
    /// thread dispatched).
    pub dropped_by_thread: BTreeMap<u32, u64>,
    /// Slots skipped because their kind byte failed to decode (torn
    /// wraparound reads).
    pub corrupt_events: u64,
    /// Wall-clock length of the session.
    pub duration_ns: u64,
    /// Metrics captured at session end.
    pub metrics: metrics::Snapshot,
    /// Allocation-site heap profile captured at session end.
    pub heap: heapprof::HeapProfile,
}

impl Trace {
    /// Resolve an interned symbol.
    pub fn name(&self, sym: u32) -> &str {
        self.names.get(sym as usize).map(String::as_str).unwrap_or("?")
    }

    /// Tetra thread ids present in the trace, with display names taken
    /// from `ThreadSpan` events (falling back to `thread-<id>`).
    pub fn thread_names(&self) -> BTreeMap<u32, String> {
        let mut out = BTreeMap::new();
        for e in &self.events {
            out.entry(e.tid).or_insert_with(|| {
                if e.tid == 0 {
                    "main".to_string()
                } else if e.tid == crate::GC_TID {
                    "gc".to_string()
                } else {
                    format!("thread-{}", e.tid)
                }
            });
        }
        for e in &self.events {
            if e.kind == EventKind::ThreadSpan {
                out.insert(e.tid, self.name(e.a).to_string());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable_and_cached() {
        let a = intern("alpha-session-test");
        let b = intern("beta-session-test");
        assert_ne!(a, b);
        assert_eq!(intern("alpha-session-test"), a);
    }
}
