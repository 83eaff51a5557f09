//! # tetra-runtime
//!
//! The shared runtime substrate under both Tetra execution engines (the
//! tree-walking interpreter and the bytecode VM):
//!
//! * [`value`] — runtime values and heap objects;
//! * [`heap`] — the hand-rolled stop-the-world mark-sweep garbage collector
//!   with safepoints and safe regions for blocking operations;
//! * [`mod@env`] — the private/shared symbol tables of the paper (§IV);
//! * [`locks`] — named locks for `lock <name>:` with deadlock and re-entry
//!   detection;
//! * [`pool`] — the persistent work-stealing worker pool both engines'
//!   parallel constructs run on;
//! * [`threads`] — Tetra thread identity and live state for the debugger;
//! * [`console`] — pluggable program I/O (real stdout or captured buffers);
//! * [`error`] — structured runtime errors with source lines.

pub mod console;
pub mod env;
pub mod error;
pub mod heap;
pub mod locks;
pub mod pool;
pub mod threads;
pub mod value;

pub use console::{BufferConsole, Console, ConsoleRef, StdConsole};
pub use env::{Env, Frame, FrameRef, SlotLayout};
pub use error::{ErrorKind, RuntimeError};
pub use heap::{GcStats, Heap, HeapConfig, MutatorGuard, NoRoots, RootSink, RootSource};
pub use locks::LockRegistry;
pub use pool::{PoolPanic, PoolStats, WorkerPool};
pub use threads::{ThreadCell, ThreadKind, ThreadRegistry, ThreadSnapshot, ThreadState};
pub use value::{DictKey, GcRef, Object, Snapshot, Value};
