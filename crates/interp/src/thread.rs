//! Per-thread interpreter state.
//!
//! Each Tetra thread — the main thread plus every thread spawned by
//! `parallel`, `background` and `parallel for` — owns one [`ThreadCtx`]:
//! its call stack of environments, a temporary root stack for values held
//! across GC points, its held-lock list, and its registration with the GC
//! and the thread registry.

use crate::hooks::{ExecEvent, HookDecision, HookPoint, Inspect, Loc};
use crate::Shared;
use std::sync::Arc;
use tetra_ast::Stmt;
use tetra_intern::Symbol;
use tetra_runtime::{
    Env, ErrorKind, FrameRef, GcRef, MutatorGuard, Object, RootSink, RootSource, RuntimeError,
    ThreadCell, ThreadState, Value,
};

/// Stack size for spawned Tetra threads: recursive tree-walking plus user
/// recursion needs room.
pub(crate) const THREAD_STACK_SIZE: usize = 32 * 1024 * 1024;

/// Maximum Tetra call depth before reporting a (catchable) error instead of
/// exhausting the native stack.
pub(crate) const MAX_CALL_DEPTH: u32 = 1000;

pub(crate) struct ThreadCtx {
    pub shared: Arc<Shared>,
    pub mutator: MutatorGuard,
    pub cell: Arc<ThreadCell>,
    /// Call stack of environments; last is the current function's.
    pub env_stack: Vec<Env>,
    /// Temporary GC roots: intermediate values alive across GC points.
    pub temps: Vec<Value>,
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
    /// Variable accesses served by a static (frame, slot) coordinate.
    pub env_slot_hits: u64,
    /// Variable accesses that fell back to the name-based chain walk.
    pub env_dynamic_fallbacks: u64,
    /// Total frames visited by those fallback walks.
    pub env_chain_depth_walked: u64,
}

/// Borrowed root view over a `ThreadCtx`'s state (avoids aliasing issues
/// between `&mut self` and the GC's `&dyn RootSource`).
pub(crate) struct RootsView<'a> {
    pub temps: &'a [Value],
    pub envs: &'a [Env],
}

impl RootSource for RootsView<'_> {
    fn roots(&self, sink: &mut RootSink) {
        for v in self.temps {
            sink.value(*v);
        }
        for env in self.envs {
            for f in env.frames() {
                sink.frame(f);
            }
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

impl ThreadCtx {
    /// Context for the main thread.
    pub fn new_main(shared: Arc<Shared>) -> ThreadCtx {
        let mutator = shared.heap.register_mutator();
        let cell = shared.threads.spawn(None, tetra_runtime::ThreadKind::Main);
        ThreadCtx {
            shared,
            mutator,
            cell,
            env_stack: vec![Env::new()],
            temps: Vec::new(),
            held_locks: Vec::new(),
            call_depth: 0,
            line: 0,
            shadow: Vec::new(),
            shadow_root: tetra_obs::stack::ROOT,
            span_start_ns: tetra_obs::now_ns(),
            env_slot_hits: 0,
            env_dynamic_fallbacks: 0,
            env_chain_depth_walked: 0,
        }
    }

    /// Context for a spawned thread. The mutator guard must come from
    /// [`tetra_runtime::Heap::register_spawned`]; this constructor exits the
    /// initial spawn safe-region. `spawn_node` is the parent's call-path
    /// node at the spawn point, inherited as this thread's attribution
    /// root.
    pub fn new_child(
        shared: Arc<Shared>,
        mutator: MutatorGuard,
        cell: Arc<ThreadCell>,
        env: Env,
        spawn_node: u32,
    ) -> ThreadCtx {
        shared.heap.exit_spawn_region(&mutator);
        ThreadCtx {
            shared,
            mutator,
            cell,
            env_stack: vec![env],
            temps: Vec::new(),
            held_locks: Vec::new(),
            call_depth: 0,
            line: 0,
            shadow: Vec::new(),
            shadow_root: spawn_node,
            span_start_ns: tetra_obs::now_ns(),
            env_slot_hits: 0,
            env_dynamic_fallbacks: 0,
            env_chain_depth_walked: 0,
        }
    }

    /// The call-path node of the innermost user-function frame (or the
    /// spawn-site path for a thread that has not entered a function).
    #[inline]
    pub fn current_stack_node(&self) -> u32 {
        self.shadow.last().copied().unwrap_or(self.shadow_root)
    }

    pub fn current_env(&self) -> &Env {
        self.env_stack.last().expect("env stack never empty")
    }

    fn roots_view(&self) -> RootsView<'_> {
        RootsView { temps: &self.temps, envs: &self.env_stack }
    }

    // ---- GC integration ---------------------------------------------------

    /// GC safepoint (called once per statement). When a collection is
    /// pending, the thread flags itself `GcParked` before parking so the
    /// debugger's thread pane shows *why* it is stopped — the cell is all
    /// atomics, so inspection never blocks on a paused world.
    pub fn poll_gc(&self) {
        if self.shared.heap.gc_pending() {
            self.cell.set_state(ThreadState::GcParked);
            let view = self.roots_view();
            self.shared.heap.poll(&self.mutator, &view);
            self.cell.set_state(ThreadState::Running);
        }
    }

    /// Allocate a heap object with this thread's state as roots.
    pub fn alloc(&self, obj: Object) -> GcRef {
        let view = self.roots_view();
        self.shared.heap.alloc(&self.mutator, &view, obj)
    }

    pub fn alloc_string(&self, s: impl Into<String>) -> Value {
        Value::Obj(self.alloc(Object::Str(s.into())))
    }

    /// Run a blocking operation inside a GC safe region.
    pub fn safe_region<T>(&self, f: impl FnOnce() -> T) -> T {
        let view = self.roots_view();
        self.shared.heap.safe_region(&self.mutator, &view, f)
    }

    /// Publish this thread's roots and enter the idle safe region: called
    /// when the context is parked with no OS thread driving it (checked in
    /// between pooled `parallel for` ranges), so collections can still
    /// stop the world. Must be paired with [`ThreadCtx::resume_idle`]
    /// before the context executes again.
    pub fn suspend_idle(&self) {
        let view = self.roots_view();
        self.shared.heap.enter_idle_region(&self.mutator, &view);
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

    pub fn temp_mark(&self) -> usize {
        self.temps.len()
    }

    pub fn truncate_temps(&mut self, mark: usize) {
        self.temps.truncate(mark);
    }

    // ---- errors ------------------------------------------------------------

    pub fn err(&self, kind: ErrorKind, msg: impl Into<String>) -> RuntimeError {
        RuntimeError::new(kind, msg, self.line)
    }

    // ---- hook plumbing ------------------------------------------------------

    /// Per-statement prologue: line bookkeeping, GC safepoint, debug hook.
    pub fn statement_prologue(&mut self, stmt: &Stmt) -> Result<(), RuntimeError> {
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

/// Lazy variable inspection handed to debug hooks.
pub(crate) struct InspectView<'a>(pub &'a ThreadCtx);

impl Inspect for InspectView<'_> {
    fn lookup(&self, name: &str) -> Option<Value> {
        self.0.current_env().get(name)
    }

    fn locals(&self) -> Vec<(String, String)> {
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
        self.0.current_env().depth()
    }
}
