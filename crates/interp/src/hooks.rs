//! Debugger hook interface.
//!
//! The paper's IDE needs to "step through the different threads
//! independently" (§III); the interpreter exposes that by calling a
//! [`DebugHook`] before every statement, identifying the Tetra thread and
//! source line, with access to the thread's variables. The `tetra-debugger`
//! crate implements the hook; the interpreter stays UI-agnostic.

use tetra_intern::Symbol;
use tetra_runtime::{RuntimeError, ThreadKind, Value};

/// What the engine should do after a statement hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookDecision {
    /// Keep running.
    Continue,
    /// Pause this thread: the engine enters a GC safe region and calls
    /// [`DebugHook::wait_for_resume`].
    Block,
    /// Cancel the whole program (`ErrorKind::Cancelled`).
    Stop,
}

/// Identity of a memory location for the race detector: a variable slot in
/// a specific frame, or a whole heap object (array/dict element accesses).
/// Frame slots are keyed by `(frame address, slot index)` — two integers —
/// so race bookkeeping never hashes strings; the source-level name travels
/// separately in the event for display.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Loc {
    /// (frame address, slot index within the frame).
    Frame(usize, u32),
    /// A slot of a thread-private function frame: its index in the owning
    /// logical thread's slot stack. Only that thread can touch it, so it
    /// never aliases another thread's location or a shared frame's.
    Local { thread: u32, index: u32 },
    /// Heap object address.
    Obj(usize),
}

/// Execution events, emitted only while a hook is installed.
#[derive(Debug, Clone)]
pub enum ExecEvent {
    ThreadStart {
        id: u32,
        kind: ThreadKind,
        parent: Option<u32>,
        line: u32,
    },
    ThreadEnd {
        id: u32,
    },
    /// About to execute the statement at `line`.
    Statement {
        id: u32,
        line: u32,
    },
    LockWait {
        id: u32,
        name: Symbol,
        line: u32,
    },
    LockAcquired {
        id: u32,
        name: Symbol,
        line: u32,
    },
    LockReleased {
        id: u32,
        name: Symbol,
    },
    /// A variable or element read. `locks` is the thread's held lockset.
    Read {
        id: u32,
        loc: Loc,
        name: Symbol,
        line: u32,
        locks: Vec<Symbol>,
    },
    /// A variable or element write.
    Write {
        id: u32,
        loc: Loc,
        name: Symbol,
        line: u32,
        locks: Vec<Symbol>,
    },
}

impl ExecEvent {
    /// The thread the event belongs to.
    pub fn thread(&self) -> u32 {
        match self {
            ExecEvent::ThreadStart { id, .. }
            | ExecEvent::ThreadEnd { id }
            | ExecEvent::Statement { id, .. }
            | ExecEvent::LockWait { id, .. }
            | ExecEvent::LockAcquired { id, .. }
            | ExecEvent::LockReleased { id, .. }
            | ExecEvent::Read { id, .. }
            | ExecEvent::Write { id, .. } => *id,
        }
    }

    /// One-line rendering for trace output.
    pub fn describe(&self) -> String {
        match self {
            ExecEvent::ThreadStart { id, kind, parent, line } => match parent {
                Some(p) => format!("T{id} started ({}) by T{p} at line {line}", kind.label()),
                None => format!("T{id} started ({})", kind.label()),
            },
            ExecEvent::ThreadEnd { id } => format!("T{id} finished"),
            ExecEvent::Statement { id, line } => format!("T{id} line {line}"),
            ExecEvent::LockWait { id, name, line } => {
                format!("T{id} waiting for lock `{name}` at line {line}")
            }
            ExecEvent::LockAcquired { id, name, line } => {
                format!("T{id} acquired lock `{name}` at line {line}")
            }
            ExecEvent::LockReleased { id, name } => format!("T{id} released lock `{name}`"),
            ExecEvent::Read { id, name, line, .. } => format!("T{id} read {name} at line {line}"),
            ExecEvent::Write { id, name, line, .. } => {
                format!("T{id} wrote {name} at line {line}")
            }
        }
    }
}

/// A paused thread's view of its variables, captured by the hook at the
/// moment it decides to block.
pub trait Inspect {
    /// Look up a variable visible from the current statement.
    fn lookup(&self, name: &str) -> Option<Value>;
    /// All visible variables (innermost shadowing outermost), rendered.
    fn locals(&self) -> Vec<(String, String)>;
    /// Depth of the environment chain.
    fn scope_depth(&self) -> usize;
}

/// Everything the hook learns about the statement being executed.
pub struct HookPoint<'a> {
    pub thread_id: u32,
    pub kind: ThreadKind,
    pub line: u32,
    /// Lazy access to the thread's variables.
    pub vars: &'a dyn Inspect,
}

/// The debugger-side interface. All methods are called from the interpreted
/// program's own threads.
pub trait DebugHook: Send + Sync {
    /// Called before every statement, outside GC safe regions — must not
    /// block. If it returns [`HookDecision::Block`], capture whatever state
    /// you need from `point` now.
    fn on_statement(&self, point: &HookPoint<'_>) -> HookDecision;

    /// Called after `on_statement` returned `Block`, inside a GC safe
    /// region; may block until the debugger resumes thread `thread`.
    fn wait_for_resume(&self, thread: u32) -> Result<(), RuntimeError> {
        let _ = thread;
        Ok(())
    }

    /// Called for every execution event (thread lifecycle, locks, reads,
    /// writes). Must not block.
    fn on_event(&self, ev: &ExecEvent) {
        let _ = ev;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_describe_mentions_thread_and_line() {
        let ev = ExecEvent::LockAcquired { id: 3, name: "m".into(), line: 12 };
        let d = ev.describe();
        assert!(d.contains("T3"), "{d}");
        assert!(d.contains("`m`"), "{d}");
        assert!(d.contains("12"), "{d}");
        assert_eq!(ev.thread(), 3);
    }

    #[test]
    fn thread_start_shows_parent() {
        let ev =
            ExecEvent::ThreadStart { id: 2, kind: ThreadKind::Parallel, parent: Some(0), line: 9 };
        assert!(ev.describe().contains("by T0"));
    }
}
