//! Per-thread interpreter state.
//!
//! Each Tetra thread — the main thread plus every thread spawned by
//! `parallel`, `background` and `parallel for` — owns one [`ThreadCtx`]:
//! its call stack of environments, a temporary root stack for values held
//! across GC points, the item snapshots of the loops it is running, its
//! held-lock list, and its registration with the GC and the thread
//! registry.
//!
//! A function frame is one of two kinds. A *shared* frame is an `Env`
//! frame (`Arc` + `RwLock`), because `parallel:`, `background:` and
//! `parallel for` hand it to other threads. A *private* frame belongs to a
//! function the resolver proved never does that
//! ([`tetra_types::Resolution::func_is_private`]): its slots live in this
//! thread's own `locals` stack, read and written with no lock, no atomic
//! and no allocation per call.

use crate::hooks::{ExecEvent, HookDecision, HookPoint, Inspect, Loc};
use crate::Shared;
use std::sync::Arc;
use tetra_ast::Stmt;
use tetra_intern::Symbol;
use tetra_runtime::{
    Env, ErrorKind, FrameRef, GcRef, MutatorGuard, Object, RootSink, RootSource, RuntimeError,
    SlotLayout, Snapshot, ThreadCell, ThreadState, Value,
};
use tetra_types::TypedProgram;

/// Stack size for spawned Tetra threads: recursive tree-walking plus user
/// recursion needs room.
pub(crate) const THREAD_STACK_SIZE: usize = 32 * 1024 * 1024;

/// A runtime error inside the interpreter, boxed so `Result<Value, Error>`
/// and `Result<Flow, Error>` are 16 bytes, the size of a `Value`, not 32:
/// every `eval` and `exec_stmt` returns a smaller result on the hot path.
/// [`crate::Interp::run`] unboxes it.
pub(crate) type Error = Box<RuntimeError>;

/// Maximum Tetra call depth before reporting a (catchable) error instead of
/// exhausting the native stack.
pub(crate) const MAX_CALL_DEPTH: u32 = 1000;

pub(crate) struct ThreadCtx<'s> {
    /// Borrowed, not cloned, so no thread writes the program-wide
    /// reference count that every thread's accesses read.
    pub shared: &'s Arc<Shared>,
    /// `shared.typed`, borrowed once: every variable access and call reads
    /// the program's side tables through it with no `Arc` to follow, and a
    /// call copies this reference to keep its `FuncDef` borrowed while the
    /// body runs.
    pub typed: &'s TypedProgram,
    pub mutator: MutatorGuard,
    pub cell: Arc<ThreadCell>,
    /// Call stack of shared environments; last is the innermost shared
    /// function's (private frames live in `locals`). A spawned thread
    /// starts with its parent's; the main thread starts with none.
    pub env_stack: Vec<Env>,
    /// Slots of this thread's private function frames, innermost last.
    pub locals: Vec<Option<Value>>,
    /// The executing function's private frame; `None` while it runs in
    /// the shared frame on top of `env_stack`.
    pub private: Option<PrivateFrame<'s>>,
    /// Temporary GC roots: intermediate values alive across GC points.
    pub temps: Vec<Value>,
    /// Item snapshots of the `for` and `parallel for` loops this thread is
    /// running, innermost last; rooted by reference.
    pub loops: Vec<Arc<Snapshot>>,
    /// Lock names this thread currently holds, innermost last.
    pub held_locks: Vec<Symbol>,
    pub call_depth: u32,
    /// Line of the statement currently executing.
    pub line: u32,
    /// Shadow call stack: one `tetra_obs::stack` node per user-function
    /// frame, innermost last. Maintained only while a trace or heap
    /// profile wants attribution (`tetra_obs::attribution_enabled`).
    pub shadow: Vec<u32>,
    /// Call-path node inherited at spawn: a child thread's statements
    /// attribute to the path that spawned it until it calls a function.
    pub shadow_root: u32,
    /// Trace timestamp of this thread's start (0 when tracing is off).
    pub span_start_ns: u64,
    /// Variable accesses, each served by a static (frame, slot) coordinate.
    pub env_slot_hits: u64,
}

/// A private function frame: `layout.len()` slots of `locals` from `base`.
#[derive(Clone, Copy)]
pub(crate) struct PrivateFrame<'s> {
    pub base: usize,
    pub layout: &'s SlotLayout,
}

/// A pooled `parallel for` worker between ranges: its context without the
/// borrow of `Shared`. No lock, call or private frame is live then; an
/// error may leave temporaries behind, which are dropped, because the
/// loop runs no further ranges after an error.
pub(crate) struct Parked {
    mutator: MutatorGuard,
    cell: Arc<ThreadCell>,
    env: Env,
    shadow_root: u32,
    span_start_ns: u64,
    env_slot_hits: u64,
}

/// A thread's GC roots: its temporaries, its private frames' slots, its
/// shared frames and its loop snapshots. The context is its own root
/// source, so handing it to the heap reads nothing until a collection
/// actually marks.
impl RootSource for ThreadCtx<'_> {
    fn roots(&self, sink: &mut RootSink) {
        for v in &self.temps {
            sink.value(*v);
        }
        for v in self.locals.iter().flatten() {
            sink.value(*v);
        }
        for env in &self.env_stack {
            for f in env.frames() {
                sink.frame(f);
            }
        }
        for s in &self.loops {
            sink.snapshot(s);
        }
    }
}

/// Root source used when registering spawned threads: the environment
/// frames they will run in.
pub(crate) struct SpawnRoots {
    pub frames: Vec<FrameRef>,
}

impl RootSource for SpawnRoots {
    fn roots(&self, sink: &mut RootSink) {
        for f in &self.frames {
            sink.frame(f);
        }
    }
}

impl<'s> ThreadCtx<'s> {
    /// Context for the main thread.
    pub fn new_main(shared: &'s Arc<Shared>) -> ThreadCtx<'s> {
        let mutator = shared.heap.register_mutator();
        let cell = shared.threads.spawn(None, tetra_runtime::ThreadKind::Main);
        ThreadCtx {
            shared,
            typed: &shared.typed,
            mutator,
            cell,
            env_stack: Vec::new(),
            locals: Vec::new(),
            private: None,
            temps: Vec::new(),
            loops: Vec::new(),
            held_locks: Vec::new(),
            call_depth: 0,
            line: 0,
            shadow: Vec::new(),
            shadow_root: tetra_obs::stack::ROOT,
            span_start_ns: tetra_obs::now_ns(),
            env_slot_hits: 0,
        }
    }

    /// Context for a spawned thread. The mutator guard must come from
    /// [`tetra_runtime::Heap::register_spawned`]; this constructor exits the
    /// initial spawn safe-region. `spawn_node` is the parent's call-path
    /// node at the spawn point, inherited as this thread's attribution
    /// root.
    pub fn new_child(
        shared: &'s Arc<Shared>,
        mutator: MutatorGuard,
        cell: Arc<ThreadCell>,
        env: Env,
        spawn_node: u32,
    ) -> ThreadCtx<'s> {
        shared.heap.exit_spawn_region(&mutator);
        ThreadCtx {
            shared,
            typed: &shared.typed,
            mutator,
            cell,
            env_stack: vec![env],
            locals: Vec::new(),
            private: None,
            temps: Vec::new(),
            loops: Vec::new(),
            held_locks: Vec::new(),
            call_depth: 0,
            line: 0,
            shadow: Vec::new(),
            shadow_root: spawn_node,
            span_start_ns: tetra_obs::now_ns(),
            env_slot_hits: 0,
        }
    }

    /// Detach a `parallel for` worker between ranges (see [`Parked`]).
    pub fn park(self) -> Parked {
        debug_assert!(self.held_locks.is_empty() && self.call_depth == 0);
        debug_assert!(self.locals.is_empty() && self.loops.is_empty());
        debug_assert_eq!(self.env_stack.len(), 1);
        let env = self.env_stack.into_iter().next().expect("env stack never empty");
        Parked {
            mutator: self.mutator,
            cell: self.cell,
            env,
            shadow_root: self.shadow_root,
            span_start_ns: self.span_start_ns,
            env_slot_hits: self.env_slot_hits,
        }
    }

    /// Re-attach a parked worker; the inverse of [`ThreadCtx::park`]. Its
    /// mutator stays in whatever GC region it was parked in.
    pub fn unpark(shared: &'s Arc<Shared>, parked: Parked) -> ThreadCtx<'s> {
        ThreadCtx {
            shared,
            typed: &shared.typed,
            mutator: parked.mutator,
            cell: parked.cell,
            env_stack: vec![parked.env],
            locals: Vec::new(),
            private: None,
            temps: Vec::new(),
            loops: Vec::new(),
            held_locks: Vec::new(),
            call_depth: 0,
            line: 0,
            shadow: Vec::new(),
            shadow_root: parked.shadow_root,
            span_start_ns: parked.span_start_ns,
            env_slot_hits: parked.env_slot_hits,
        }
    }

    /// The call-path node of the innermost user-function frame (or the
    /// spawn-site path for a thread that has not entered a function).
    #[inline]
    pub fn current_stack_node(&self) -> u32 {
        self.shadow.last().copied().unwrap_or(self.shadow_root)
    }

    /// The executing function's shared environment. A private frame has
    /// none, and nothing asks for it there.
    pub fn current_env(&self) -> &Env {
        debug_assert!(self.private.is_none(), "a private frame has no Env");
        self.env_stack.last().expect("a shared frame is executing")
    }

    // ---- resolved variable access -------------------------------------------

    /// Read the resolved variable `(up, slot)`; `None` while unbound.
    #[inline]
    pub fn read_var(&self, up: usize, slot: usize) -> Option<Value> {
        match self.private {
            Some(frame) => {
                debug_assert_eq!(up, 0, "private frames resolve every access locally");
                self.locals[frame.base + slot]
            }
            None => self.current_env().read_slot(up, slot),
        }
    }

    /// Write the resolved variable `(up, slot)`; returns its race-detector
    /// location.
    #[inline]
    pub fn write_var(&mut self, up: usize, slot: usize, value: Value) -> Loc {
        match self.private {
            Some(frame) => {
                debug_assert_eq!(up, 0, "private frames resolve every access locally");
                self.locals[frame.base + slot] = Some(value);
                self.local_loc(frame.base + slot)
            }
            None => Loc::Frame(self.current_env().write_slot(up, slot, value), slot as u32),
        }
    }

    /// The race-detector location of the resolved variable `(up, slot)`.
    pub fn var_loc(&self, up: usize, slot: usize) -> Loc {
        match self.private {
            Some(frame) => self.local_loc(frame.base + slot),
            None => Loc::Frame(self.current_env().frame_addr(up), slot as u32),
        }
    }

    fn local_loc(&self, index: usize) -> Loc {
        Loc::Local { thread: self.cell.id, index: index as u32 }
    }

    // ---- GC integration ---------------------------------------------------

    /// GC safepoint (called once per statement). When a collection is
    /// pending, the thread flags itself `GcParked` before parking so the
    /// debugger's thread pane shows *why* it is stopped — the cell is all
    /// atomics, so inspection never blocks on a paused world.
    pub fn poll_gc(&self) {
        if self.shared.heap.gc_pending() {
            self.cell.set_state(ThreadState::GcParked);
            self.shared.heap.poll(&self.mutator, self);
            self.cell.set_state(ThreadState::Running);
        }
    }

    /// Allocate a heap object with this thread's state as roots.
    pub fn alloc(&self, obj: Object) -> GcRef {
        self.shared.heap.alloc(&self.mutator, self, obj)
    }

    pub fn alloc_string(&self, s: impl Into<String>) -> Value {
        Value::Obj(self.alloc(Object::Str(s.into())))
    }

    /// Run a blocking operation inside a GC safe region.
    pub fn safe_region<T>(&self, f: impl FnOnce() -> T) -> T {
        self.shared.heap.safe_region(&self.mutator, self, f)
    }

    /// Publish this thread's roots and enter the idle safe region: called
    /// when the context is parked with no OS thread driving it (checked in
    /// between pooled `parallel for` ranges), so collections can still
    /// stop the world. Must be paired with [`ThreadCtx::resume_idle`]
    /// before the context executes again.
    pub fn suspend_idle(&self) {
        self.shared.heap.enter_idle_region(&self.mutator, self);
    }

    /// Leave the idle safe region (waiting out any in-progress collection
    /// first); the inverse of [`ThreadCtx::suspend_idle`].
    pub fn resume_idle(&self) {
        self.shared.heap.exit_spawn_region(&self.mutator);
    }

    /// Push a temporary root; pair with [`ThreadCtx::truncate_temps`].
    pub fn push_temp(&mut self, v: Value) {
        self.temps.push(v);
    }

    /// Keep `v` alive across GC points until the matching
    /// [`ThreadCtx::truncate_temps`]. Only a heap reference needs a root,
    /// so a scalar operand costs no store.
    #[inline]
    pub fn root_temp(&mut self, v: Value) {
        if let Value::Obj(_) = v {
            self.temps.push(v);
        }
    }

    pub fn temp_mark(&self) -> usize {
        self.temps.len()
    }

    pub fn truncate_temps(&mut self, mark: usize) {
        self.temps.truncate(mark);
    }

    // ---- errors ------------------------------------------------------------

    pub fn err(&self, kind: ErrorKind, msg: impl Into<String>) -> Error {
        Box::new(RuntimeError::new(kind, msg, self.line))
    }

    // ---- hook plumbing ------------------------------------------------------

    /// Per-statement prologue: line bookkeeping, GC safepoint, debug hook.
    pub fn statement_prologue(&mut self, stmt: &Stmt) -> Result<(), Error> {
        self.line = stmt.span.line;
        self.cell.set_line(self.line);
        tetra_obs::stmt(self.cell.id, self.line, self.current_stack_node());
        if tetra_obs::heap_profile_enabled() {
            // Stamp the allocation site any heap object created by this
            // statement will be charged to.
            tetra_obs::heapprof::set_site(self.current_stack_node(), self.line);
        }
        self.poll_gc();
        if let Some(hook) = self.shared.hook.clone() {
            hook.on_event(&ExecEvent::Statement { id: self.cell.id, line: self.line });
            let decision = {
                let view = InspectView(self);
                let point = HookPoint {
                    thread_id: self.cell.id,
                    kind: self.cell.kind,
                    line: self.line,
                    vars: &view,
                };
                hook.on_statement(&point)
            };
            match decision {
                HookDecision::Continue => {}
                HookDecision::Stop => {
                    return Err(self.err(ErrorKind::Cancelled, "stopped by the debugger"));
                }
                HookDecision::Block => {
                    self.cell.set_state(ThreadState::Paused);
                    let id = self.cell.id;
                    let r = self.safe_region(|| hook.wait_for_resume(id));
                    self.cell.set_state(ThreadState::Running);
                    r?;
                }
            }
        }
        Ok(())
    }

    pub fn emit(&self, ev: ExecEvent) {
        if let Some(hook) = &self.shared.hook {
            hook.on_event(&ev);
        }
    }

    pub fn emit_read(&self, loc: Loc, name: Symbol) {
        if let Some(hook) = &self.shared.hook {
            hook.on_event(&ExecEvent::Read {
                id: self.cell.id,
                loc,
                name,
                line: self.line,
                locks: self.held_locks.clone(),
            });
        }
    }

    pub fn emit_write(&self, loc: Loc, name: Symbol) {
        if let Some(hook) = &self.shared.hook {
            hook.on_event(&ExecEvent::Write {
                id: self.cell.id,
                loc,
                name,
                line: self.line,
                locks: self.held_locks.clone(),
            });
        }
    }
}

/// Lazy variable inspection handed to debug hooks. A private frame shows
/// its bound slots under their layout names, as a shared frame would.
pub(crate) struct InspectView<'a, 's>(pub &'a ThreadCtx<'s>);

impl InspectView<'_, '_> {
    /// The private frame's bound slots as (name, value), in slot order.
    fn private_bindings<'a>(
        &'a self,
        frame: PrivateFrame<'a>,
    ) -> impl Iterator<Item = (Symbol, Value)> + 'a {
        let slots = &self.0.locals[frame.base..frame.base + frame.layout.len()];
        frame.layout.names().iter().zip(slots).filter_map(|(name, v)| Some((*name, (*v)?)))
    }
}

impl Inspect for InspectView<'_, '_> {
    fn lookup(&self, name: &str) -> Option<Value> {
        match self.0.private {
            Some(frame) => {
                let name = Symbol::intern(name);
                self.private_bindings(frame).find(|(n, _)| *n == name).map(|(_, v)| v)
            }
            None => self.0.current_env().get(name),
        }
    }

    fn locals(&self) -> Vec<(String, String)> {
        if let Some(frame) = self.0.private {
            let mut out: Vec<(String, String)> =
                self.private_bindings(frame).map(|(n, v)| (n.to_string(), v.display())).collect();
            out.sort_by(|a, b| a.0.cmp(&b.0));
            return out;
        }
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for frame in self.0.current_env().frames().iter().rev() {
            for (name, value) in frame.snapshot() {
                if seen.insert(name.clone()) {
                    out.push((name, value.display()));
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn scope_depth(&self) -> usize {
        match self.0.private {
            Some(_) => 1,
            None => self.0.current_env().depth(),
        }
    }
}
