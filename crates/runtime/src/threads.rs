//! Thread identity and live state, shared by both engines and the debugger.
//!
//! The paper's IDE shows "multiple code views ... one for each thread of the
//! currently running program" (§III). That needs a registry of every Tetra
//! thread with its kind, parent, current line and blocking state, cheap
//! enough to update on every statement: lines and states are atomics inside
//! a shared cell.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use tetra_intern::Symbol;

/// Start an OS thread of a run, named `name` with `stack_size` bytes of
/// stack. The thread enters the observability session of the thread that
/// starts it, so everything it records belongs to the same run.
pub fn spawn<T: Send + 'static>(
    name: String,
    stack_size: usize,
    f: impl FnOnce() -> T + Send + 'static,
) -> std::io::Result<JoinHandle<T>> {
    let session = tetra_obs::session::current();
    std::thread::Builder::new().name(name).stack_size(stack_size).spawn(move || {
        tetra_obs::session::enter(session);
        f()
    })
}

/// Why the thread exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadKind {
    /// The initial thread running `main()`.
    Main,
    /// One statement of a `parallel:` block.
    Parallel,
    /// One statement of a `background:` block.
    Background,
    /// A `parallel for` worker.
    ParallelFor,
}

impl ThreadKind {
    pub fn label(&self) -> &'static str {
        match self {
            ThreadKind::Main => "main",
            ThreadKind::Parallel => "parallel",
            ThreadKind::Background => "background",
            ThreadKind::ParallelFor => "parallel-for",
        }
    }
}

/// Coarse run state, readable without locks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    Running,
    /// Blocked acquiring a named lock.
    WaitingLock,
    /// Blocked joining children of a parallel construct.
    Joining,
    /// Blocked reading console input.
    WaitingInput,
    /// Paused by the debugger.
    Paused,
    /// Parked at a GC safepoint while a stop-the-world collection runs.
    /// The cell stays readable throughout (states are atomics), so the
    /// debugger's thread pane renders mid-collection without blocking.
    GcParked,
    Finished,
}

impl ThreadState {
    fn from_u8(v: u8) -> ThreadState {
        match v {
            0 => ThreadState::Running,
            1 => ThreadState::WaitingLock,
            2 => ThreadState::Joining,
            3 => ThreadState::WaitingInput,
            4 => ThreadState::Paused,
            6 => ThreadState::GcParked,
            _ => ThreadState::Finished,
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            ThreadState::Running => 0,
            ThreadState::WaitingLock => 1,
            ThreadState::Joining => 2,
            ThreadState::WaitingInput => 3,
            ThreadState::Paused => 4,
            ThreadState::Finished => 5,
            ThreadState::GcParked => 6,
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            ThreadState::Running => "running",
            ThreadState::WaitingLock => "waiting on lock",
            ThreadState::Joining => "joining children",
            ThreadState::WaitingInput => "waiting for input",
            ThreadState::Paused => "paused",
            ThreadState::GcParked => "parked for gc",
            ThreadState::Finished => "finished",
        }
    }
}

/// Live, shared state of one Tetra thread.
pub struct ThreadCell {
    pub id: u32,
    pub parent: Option<u32>,
    pub kind: ThreadKind,
    line: AtomicU32,
    state: AtomicU8,
    /// The lock blocked on while in `WaitingLock`, as its symbol's index
    /// plus one; 0 when none (debugger display).
    waiting_lock: AtomicU32,
}

impl ThreadCell {
    pub fn set_line(&self, line: u32) {
        self.line.store(line, Ordering::Relaxed);
    }

    pub fn line(&self) -> u32 {
        self.line.load(Ordering::Relaxed)
    }

    pub fn set_state(&self, s: ThreadState) {
        self.state.store(s.to_u8(), Ordering::Relaxed);
    }

    pub fn state(&self) -> ThreadState {
        ThreadState::from_u8(self.state.load(Ordering::Relaxed))
    }

    pub fn set_waiting_lock(&self, name: Option<Symbol>) {
        self.waiting_lock.store(name.map_or(0, |s| s.index() + 1), Ordering::Relaxed);
    }

    pub fn waiting_lock(&self) -> Option<String> {
        let raw = self.waiting_lock.load(Ordering::Relaxed);
        Symbol::from_index(raw.checked_sub(1)?).map(|s| s.to_string())
    }
}

/// A point-in-time view of one thread (what the IDE's thread pane shows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadSnapshot {
    pub id: u32,
    pub parent: Option<u32>,
    pub kind: ThreadKind,
    pub line: u32,
    pub state: ThreadState,
    pub waiting_lock: Option<String>,
}

impl ThreadSnapshot {
    /// One-line rendering used by `tetra debug`'s `threads` command.
    pub fn describe(&self) -> String {
        let mut s = format!(
            "thread {} [{}] line {} — {}",
            self.id,
            self.kind.label(),
            self.line,
            self.state.label()
        );
        if let Some(l) = &self.waiting_lock {
            s.push_str(&format!(" `{l}`"));
        }
        if let Some(p) = self.parent {
            s.push_str(&format!(" (spawned by {p})"));
        }
        s
    }
}

/// Registry of all threads that have existed in one program run.
#[derive(Default)]
pub struct ThreadRegistry {
    cells: Mutex<Vec<Arc<ThreadCell>>>,
    next: AtomicU32,
}

impl ThreadRegistry {
    pub fn new() -> Arc<ThreadRegistry> {
        Arc::new(ThreadRegistry::default())
    }

    /// Register a new thread and return its cell. Thread 0 is always the
    /// main thread.
    pub fn spawn(&self, parent: Option<u32>, kind: ThreadKind) -> Arc<ThreadCell> {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let cell = Arc::new(ThreadCell {
            id,
            parent,
            kind,
            line: AtomicU32::new(0),
            state: AtomicU8::new(ThreadState::Running.to_u8()),
            waiting_lock: AtomicU32::new(0),
        });
        self.cells.lock().push(Arc::clone(&cell));
        cell
    }

    /// Snapshot every thread, in creation order.
    pub fn snapshot(&self) -> Vec<ThreadSnapshot> {
        self.cells
            .lock()
            .iter()
            .map(|c| ThreadSnapshot {
                id: c.id,
                parent: c.parent,
                kind: c.kind,
                line: c.line(),
                state: c.state(),
                waiting_lock: c.waiting_lock(),
            })
            .collect()
    }

    /// Snapshot only threads that have not finished.
    pub fn live_snapshot(&self) -> Vec<ThreadSnapshot> {
        self.snapshot().into_iter().filter(|t| t.state != ThreadState::Finished).collect()
    }

    /// Total threads ever created (benchmark metric).
    pub fn total_spawned(&self) -> u32 {
        self.next.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_sequential_from_zero() {
        let reg = ThreadRegistry::new();
        let main = reg.spawn(None, ThreadKind::Main);
        let child = reg.spawn(Some(main.id), ThreadKind::Parallel);
        assert_eq!(main.id, 0);
        assert_eq!(child.id, 1);
        assert_eq!(reg.total_spawned(), 2);
    }

    #[test]
    fn state_round_trips_through_atomics() {
        let reg = ThreadRegistry::new();
        let t = reg.spawn(None, ThreadKind::Main);
        for s in [
            ThreadState::Running,
            ThreadState::WaitingLock,
            ThreadState::Joining,
            ThreadState::WaitingInput,
            ThreadState::Paused,
            ThreadState::GcParked,
            ThreadState::Finished,
        ] {
            t.set_state(s);
            assert_eq!(t.state(), s);
        }
    }

    #[test]
    fn snapshot_reflects_live_updates() {
        let reg = ThreadRegistry::new();
        let t = reg.spawn(None, ThreadKind::Main);
        t.set_line(42);
        t.set_state(ThreadState::WaitingLock);
        t.set_waiting_lock(Some(Symbol::intern("largest")));
        let snap = &reg.snapshot()[0];
        assert_eq!(snap.line, 42);
        assert_eq!(snap.state, ThreadState::WaitingLock);
        assert_eq!(snap.waiting_lock.as_deref(), Some("largest"));
        let desc = snap.describe();
        assert!(desc.contains("waiting on lock"), "{desc}");
        assert!(desc.contains("`largest`"), "{desc}");
    }

    #[test]
    fn live_snapshot_hides_finished() {
        let reg = ThreadRegistry::new();
        let a = reg.spawn(None, ThreadKind::Main);
        let _b = reg.spawn(Some(0), ThreadKind::Background);
        a.set_state(ThreadState::Finished);
        let live = reg.live_snapshot();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].kind, ThreadKind::Background);
    }
}
