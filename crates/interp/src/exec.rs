//! Statement execution, including the four parallel constructs.
//!
//! Per the paper (§IV):
//! * `parallel:` — "launches one thread for each child node ... and waits
//!   for each of those threads to join before moving on";
//! * `background:` — "does not join the threads which were spawned";
//! * `parallel for` — workers get "their copy of the induction variable
//!   inserted into their private symbol table";
//! * `lock` — a named mutex held for the block's duration.
//!
//! Spawned threads share the parent's environment frames (the shared symbol
//! tables), register with the GC *before* the OS thread starts (so a
//! collection can never miss them), and block inside GC safe regions.

use crate::hooks::ExecEvent;
use crate::thread::{Error, Parked, SpawnRoots, ThreadCtx, THREAD_STACK_SIZE};
use crate::Shared;

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use tetra_ast::{AssignOp, Block, Expr, NodeId, Stmt, StmtKind, Target};
use tetra_intern::Symbol;
use tetra_runtime::{
    threads, Env, ErrorKind, MutatorGuard, Snapshot, ThreadCell, ThreadKind, ThreadState, Value,
};
use tetra_stdlib::ops;

/// Control flow result of a statement.
#[derive(Debug)]
pub enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

impl ThreadCtx<'_> {
    /// Execute a block, stopping at the first non-normal flow.
    pub fn exec_block(&mut self, block: &Block) -> Result<Flow, Error> {
        for stmt in &block.stmts {
            match self.exec_stmt(stmt)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    pub fn exec_stmt(&mut self, stmt: &Stmt) -> Result<Flow, Error> {
        self.statement_prologue(stmt)?;
        match &stmt.kind {
            StmtKind::Pass => Ok(Flow::Normal),
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            StmtKind::Return(value) => {
                let v = match value {
                    Some(e) => self.eval_stored(e)?,
                    None => Value::None,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Assert { cond, message } => {
                let ok = self.eval_bool(cond)?;
                if !ok {
                    let msg = match message {
                        Some(m) => self.eval(m)?.display(),
                        None => {
                            format!("assert failed: {}", tetra_ast::pretty::expr_to_source(cond))
                        }
                    };
                    return Err(self.err(ErrorKind::AssertionFailed, msg));
                }
                Ok(Flow::Normal)
            }
            StmtKind::Assign { target, op, value } => {
                self.exec_assign(target, *op, value)?;
                Ok(Flow::Normal)
            }
            StmtKind::If { cond, then, elifs, els } => {
                if self.eval_bool(cond)? {
                    return self.exec_block(then);
                }
                for (c, b) in elifs {
                    if self.eval_bool(c)? {
                        return self.exec_block(b);
                    }
                }
                match els {
                    Some(b) => self.exec_block(b),
                    None => Ok(Flow::Normal),
                }
            }
            StmtKind::While { cond, body } => {
                while self.eval_bool(cond)? {
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Continue | Flow::Normal => {}
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For { var_id, iter, body, .. } => {
                let items = self.eval_iterable(iter)?;
                // Root the snapshot by reference for the loop's duration.
                let mark = self.loops.len();
                self.loops.push(items.clone());
                let (up, slot) = self.typed.resolution.coord(*var_id);
                let mut result = Ok(Flow::Normal);
                for &item in items.iter() {
                    self.write_var(up, slot, item);
                    match self.exec_block(body) {
                        Ok(Flow::Break) => break,
                        Ok(Flow::Continue | Flow::Normal) => {}
                        done => {
                            result = done;
                            break;
                        }
                    }
                }
                self.loops.truncate(mark);
                result
            }
            StmtKind::Lock { name, body } => self.exec_lock(stmt.id, *name, body),
            StmtKind::Parallel { body } => {
                self.exec_parallel(body)?;
                Ok(Flow::Normal)
            }
            StmtKind::Background { body } => {
                self.exec_background(body)?;
                Ok(Flow::Normal)
            }
            StmtKind::ParallelFor { iter, body, .. } => {
                let items = self.eval_iterable(iter)?;
                self.exec_parallel_for(stmt.id, items, body)?;
                Ok(Flow::Normal)
            }
            StmtKind::Try { body, err_id, handler, .. } => {
                match self.exec_block(body) {
                    Ok(flow) => Ok(flow),
                    // A debugger cancellation must tear the program down.
                    Err(e) if e.kind == ErrorKind::Cancelled => Err(e),
                    Err(e) => {
                        // Bind the message and run the handler. Errors from
                        // spawned threads arrive here through their join.
                        let msg = self.alloc_string(e.message.clone());
                        let (up, slot) = self.typed.resolution.coord(*err_id);
                        self.write_var(up, slot, msg);
                        self.exec_block(handler)
                    }
                }
            }
        }
    }

    /// Evaluate a `for`/`parallel for` sequence into the snapshot of items
    /// the loop iterates ([`ops::items`]): later writes to the array do
    /// not change the iteration.
    fn eval_iterable(&mut self, iter: &Expr) -> Result<Arc<Snapshot>, Error> {
        let mark = self.temp_mark();
        let v = self.eval(iter)?;
        self.push_temp(v);
        let ctx = ops::OpCtx {
            heap: &self.shared.heap,
            mutator: &self.mutator,
            roots: &*self,
            line: self.line,
        };
        let items = ops::items(&ctx, v);
        self.truncate_temps(mark);
        Ok(Snapshot::new(items?))
    }

    fn exec_assign(&mut self, target: &Target, op: AssignOp, value: &Expr) -> Result<(), Error> {
        match target {
            Target::Name { name, id, .. } => {
                let (up, slot) = self.typed.resolution.coord(*id);
                self.assign_slot(*name, up, slot, op, value)
            }
            Target::Index { base, index, .. } => {
                let mark = self.temp_mark();
                let b = self.eval(base)?;
                self.push_temp(b);
                let i = self.eval(index)?;
                self.push_temp(i);
                let result = (|| {
                    let new = match op.binop() {
                        None => self.eval_stored(value)?,
                        Some(binop) => {
                            let current = self.index_read(b, i)?;
                            self.push_temp(current);
                            let rhs = self.eval(value)?;
                            self.push_temp(rhs);
                            self.apply_binop(binop, current, rhs)?
                        }
                    };
                    self.push_temp(new);
                    self.index_write(b, i, new)
                })();
                self.truncate_temps(mark);
                result
            }
        }
    }

    /// Assignment through a static (frame, slot) coordinate: one indexed
    /// read for compound operators, one indexed write, no chain walk.
    fn assign_slot(
        &mut self,
        name: Symbol,
        up: usize,
        slot: usize,
        op: AssignOp,
        value: &Expr,
    ) -> Result<(), Error> {
        self.env_slot_hits += 1;
        let new = match op.binop() {
            None => self.eval_stored(value)?,
            Some(binop) => {
                let current = self.read_var(up, slot).ok_or_else(|| {
                    self.err(
                        ErrorKind::UndefinedVariable,
                        format!("variable `{name}` was read before any assignment"),
                    )
                })?;
                let mark = self.temp_mark();
                self.root_temp(current);
                let rhs = self.eval(value)?;
                self.root_temp(rhs);
                let out = self.apply_binop(binop, current, rhs);
                self.truncate_temps(mark);
                out?
            }
        };
        let loc = self.write_var(up, slot, new);
        if self.shared.hook.is_some() {
            self.emit_write(loc, name);
        }
        Ok(())
    }

    // ---- parallel constructs ------------------------------------------------

    /// `lock name:` — the uncontended case is one compare-and-swap on the
    /// lock's cell. Only a thread that must block publishes its state and
    /// roots (a GC safe region) and enters the registry's slow path.
    fn exec_lock(&mut self, stmt: NodeId, name: Symbol, body: &Block) -> Result<Flow, Error> {
        let tid = self.cell.id;
        let line = self.line;
        let shared = self.shared;
        let lock = self
            .typed
            .resolution
            .lock_index(stmt)
            .expect("the resolver indexes every lock statement");
        self.emit(ExecEvent::LockWait { id: tid, name, line });
        let stack_node = self.current_stack_node();
        if !shared.locks.try_acquire(tid, lock, line, stack_node)? {
            // Name before state: a thread pane that sees `WaitingLock`
            // also sees which lock.
            self.cell.set_waiting_lock(Some(name));
            self.cell.set_state(ThreadState::WaitingLock);
            let acquired = self.safe_region(|| shared.locks.acquire(tid, lock, line, stack_node));
            self.cell.set_state(ThreadState::Running);
            self.cell.set_waiting_lock(None);
            acquired?;
        }
        self.emit(ExecEvent::LockAcquired { id: tid, name, line });
        self.held_locks.push(name);
        let held = HeldLock { shared, tid, lock };
        let result = self.exec_block(body);
        self.held_locks.pop();
        drop(held);
        self.emit(ExecEvent::LockReleased { id: tid, name });
        result
    }

    /// Run one logical thread per child statement and join them all. The
    /// arms execute as pool tasks: still one logical Tetra thread per arm
    /// (the registry, debugger and flame views see a thread per arm), but
    /// the arm count is decoupled from the OS thread count — extra arms
    /// queue on the pool, and the parent helps while it waits.
    fn exec_parallel(&mut self, body: &Block) -> Result<(), Error> {
        if body.stmts.is_empty() {
            return Ok(());
        }
        let n = body.stmts.len();
        let frames = self.current_env().frames().to_vec();
        let spawn_node = self.current_stack_node();
        let arms = Arc::new(body.clone());
        let results: Arc<Mutex<Vec<Option<Error>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        let mut tasks: Vec<Box<dyn FnOnce() + Send>> = Vec::with_capacity(n);
        for i in 0..n {
            // Register the arm with the GC and the thread registry before
            // it is queued.
            let guard = self.shared.heap.register_spawned(&SpawnRoots { frames: frames.clone() });
            let cell = self.shared.threads.spawn(Some(self.cell.id), ThreadKind::Parallel);
            self.emit(ExecEvent::ThreadStart {
                id: cell.id,
                kind: ThreadKind::Parallel,
                parent: Some(self.cell.id),
                line: arms.stmts[i].span.line,
            });
            let env = Env::from_frames(frames.clone());
            let shared = self.shared.clone();
            let arms = arms.clone();
            let results = results.clone();
            tasks.push(Box::new(move || {
                let mut ctx = ThreadCtx::new_child(&shared, guard, cell, env, spawn_node);
                let r = ctx.exec_stmt(&arms.stmts[i]);
                ctx.finish_thread();
                if let Err(e) = r {
                    results.lock()[i] = Some(e);
                }
            }));
        }
        self.cell.set_state(ThreadState::Joining);
        let pool_result = self.safe_region(|| self.shared.pool().run_calls(tasks));
        self.cell.set_state(ThreadState::Running);
        // First error in statement order.
        let first_error = results.lock().iter_mut().find_map(|r| r.take());
        match (first_error, pool_result) {
            (Some(e), _) => Err(e),
            (None, Err(_)) => Err(self.err(
                ErrorKind::ThreadError,
                "a spawned thread panicked (this is a bug in the interpreter)",
            )),
            (None, Ok(())) => Ok(()),
        }
    }

    /// Spawn one dedicated OS thread per child statement without joining;
    /// `Interp::run` joins them when `main` returns.
    fn exec_background(&mut self, body: &Block) -> Result<(), Error> {
        let frames = self.current_env().frames().to_vec();
        // Children attribute to the call path that spawned them until they
        // call a function of their own.
        let spawn_node = self.current_stack_node();
        // One shared clone of the block; each arm executes its own
        // statement out of it by index.
        let arms = Arc::new(body.clone());
        for i in 0..arms.stmts.len() {
            let arms = arms.clone();
            let shared = self.shared.clone();
            let env = Env::from_frames(frames.clone());
            // Register the child with the GC before its OS thread exists.
            let guard = shared.heap.register_spawned(&SpawnRoots { frames: frames.clone() });
            let cell = shared.threads.spawn(Some(self.cell.id), ThreadKind::Background);
            self.emit(ExecEvent::ThreadStart {
                id: cell.id,
                kind: ThreadKind::Background,
                parent: Some(self.cell.id),
                line: arms.stmts[i].span.line,
            });
            let handle =
                threads::spawn(format!("tetra-{}", cell.id), THREAD_STACK_SIZE, move || {
                    let mut ctx = ThreadCtx::new_child(&shared, guard, cell, env, spawn_node);
                    let result = ctx.exec_stmt(&arms.stmts[i]).map(|_| ());
                    ctx.finish_thread();
                    result
                })
                .map_err(|e| self.err(ErrorKind::Io, format!("could not spawn a thread: {e}")))?;
            self.shared.background.lock().push(handle);
        }
        Ok(())
    }

    /// `parallel for` on the work-stealing pool: the item snapshot stays
    /// rooted by reference in the parent, workers receive index ranges that
    /// split adaptively as they are stolen, and `worker_threads` pre-created
    /// logical Tetra threads give every range a stable identity (debugger,
    /// race detector, flame) no matter which pool thread runs it.
    fn exec_parallel_for(
        &mut self,
        stmt_id: NodeId,
        items: Arc<Snapshot>,
        body: &Block,
    ) -> Result<(), Error> {
        if items.is_empty() {
            return Ok(());
        }
        let len = items.len();
        let workers = self.shared.config.worker_threads.clamp(1, len);
        let frames = self.current_env().frames().to_vec();
        let spawn_node = self.current_stack_node();
        // The resolver's worker-frame layout puts the induction variable at
        // slot 0.
        let layout = self.typed.resolution.pfor_layout(stmt_id);
        // Root the snapshot in the parent for the whole loop: no per-worker
        // item copies, and the ranges below are plain indices.
        let mark = self.loops.len();
        self.loops.push(items.clone());
        // Pre-create the logical workers; executors check one out per range.
        let mut slots = Vec::with_capacity(workers);
        for _ in 0..workers {
            let guard = self.shared.heap.register_spawned(&SpawnRoots { frames: frames.clone() });
            let cell = self.shared.threads.spawn(Some(self.cell.id), ThreadKind::ParallelFor);
            self.emit(ExecEvent::ThreadStart {
                id: cell.id,
                kind: ThreadKind::ParallelFor,
                parent: Some(self.cell.id),
                line: self.line,
            });
            let env = Env::from_frames(frames.clone()).with_private_layout(layout.clone());
            slots.push(Some(WorkerSlot::Fresh { guard, cell, env }));
        }
        let job = Arc::new(PforJob {
            shared: self.shared.clone(),
            body: Arc::new(body.clone()),
            items,
            spawn_node,
            slots: Mutex::new(slots),
            next_slot: AtomicUsize::new(0),
            available: Condvar::new(),
            error: Mutex::new(None),
            cancelled: AtomicBool::new(false),
        });
        // Ranges split down to this grain as they run and get stolen.
        let grain = (len / (workers * 8)).max(1);
        let run_job = job.clone();
        self.cell.set_state(ThreadState::Joining);
        // The parent waits inside a safe region. It may execute ranges
        // itself as a helping submitter: those run on the per-worker
        // mutators checked out above, so a collection can still stop the
        // world while the parent "blocks" here.
        let (pool_result, mut ctxs) = self.safe_region(|| {
            let r =
                self.shared.pool().run_range(len, grain, move |lo, hi| run_job.run_range(lo, hi));
            // Materialize workers that never ran an item while still in
            // the safe region: `new_child` waits out pending collections,
            // which needs this thread to count as parked.
            let mut ctxs: Vec<ThreadCtx> = Vec::with_capacity(workers);
            for slot in job.slots.lock().drain(..) {
                match slot {
                    Some(WorkerSlot::Ready(parked)) => {
                        ctxs.push(ThreadCtx::unpark(self.shared, parked));
                    }
                    Some(WorkerSlot::Fresh { guard, cell, env }) => {
                        ctxs.push(ThreadCtx::new_child(self.shared, guard, cell, env, spawn_node));
                    }
                    None => {}
                }
            }
            (r, ctxs)
        });
        self.cell.set_state(ThreadState::Running);
        // Tear the logical workers down: flush counters, emit spans and
        // thread-end events.
        for ctx in ctxs.iter_mut() {
            ctx.finish_thread();
        }
        drop(ctxs);
        self.loops.truncate(mark);
        let first_error = job.error.lock().take();
        match (first_error, pool_result) {
            (Some(e), _) => Err(e),
            (None, Err(_)) => Err(self.err(
                ErrorKind::ThreadError,
                "a spawned thread panicked (this is a bug in the interpreter)",
            )),
            (None, Ok(())) => Ok(()),
        }
    }

    /// Mark the thread finished and emit its end event.
    pub fn finish_thread(&mut self) {
        self.cell.set_state(ThreadState::Finished);
        // Flush this thread's environment-access counter in one shot; the
        // hot paths only bump a plain field.
        if tetra_obs::metrics_enabled() {
            tetra_obs::metrics::counter_add("env.slot_hits", self.env_slot_hits);
        }
        if tetra_obs::enabled() {
            let name = match self.cell.kind {
                ThreadKind::Main => "main".to_string(),
                ThreadKind::Parallel => format!("parallel-{}", self.cell.id),
                ThreadKind::Background => format!("background-{}", self.cell.id),
                ThreadKind::ParallelFor => format!("parallel_for-{}", self.cell.id),
            };
            tetra_obs::thread_span(self.cell.id, &name, self.span_start_ns);
        }
        self.emit(ExecEvent::ThreadEnd { id: self.cell.id });
    }
}

/// A held named lock, released when dropped: a panicking `lock` body still
/// frees the cell, so threads parked on it are not stranded.
struct HeldLock<'s> {
    shared: &'s Shared,
    tid: u32,
    lock: usize,
}

impl Drop for HeldLock<'_> {
    fn drop(&mut self) {
        self.shared.locks.release(self.tid, self.lock);
    }
}

/// A pooled `parallel for`'s logical worker, parked between ranges.
enum WorkerSlot {
    /// Registered with the GC and thread registry; no context built yet.
    /// Whichever executor first checks the slot out builds the context
    /// (and thereby exits the spawn safe-region on *its* thread — doing
    /// that on the submitting thread could deadlock the collector).
    Fresh { guard: MutatorGuard, cell: Arc<ThreadCell>, env: Env },
    /// A context left behind by a previous range execution.
    Ready(Parked),
}

/// Shared state of one pooled `parallel for`: the body (cloned once), the
/// item snapshot (rooted by the parent), and the checked-out logical
/// worker contexts.
struct PforJob {
    shared: Arc<Shared>,
    body: Arc<Block>,
    items: Arc<Snapshot>,
    spawn_node: u32,
    /// `worker_threads` slots; executors check one out per range. With the
    /// parent helping there can be `workers + 1` concurrent executors, so
    /// a checkout may briefly wait — never across a range boundary, which
    /// keeps the wait deadlock-free.
    slots: Mutex<Vec<Option<WorkerSlot>>>,
    /// Rotates checkouts across the slots so consecutive ranges land on
    /// *different* logical threads even when one executor drains the whole
    /// loop (a one-core host): the program still presents `worker_threads`
    /// threads to the debugger and the lockset race detector.
    next_slot: AtomicUsize,
    available: Condvar,
    error: Mutex<Option<Error>>,
    /// Set on the first error: later ranges drain without executing,
    /// mirroring the VM model's cancel-on-error.
    cancelled: AtomicBool,
}

impl PforJob {
    /// Check a logical worker out for one range; `None` once the loop is
    /// cancelled while none is free (a range that panicked never checks
    /// its worker back in, so waiting could last forever).
    fn checkout(&self) -> Option<ThreadCtx<'_>> {
        let mut slots = self.slots.lock();
        loop {
            // Prefer the next slot in rotation (identity striping); settle
            // for any free slot rather than wait while one is available.
            let n = slots.len();
            let want = self.next_slot.fetch_add(1, Ordering::Relaxed) % n.max(1);
            let pos = if slots[want].is_some() {
                Some(want)
            } else {
                slots.iter().position(|s| s.is_some())
            };
            if let Some(pos) = pos {
                let slot = slots[pos].take().expect("position() found Some");
                drop(slots);
                return Some(match slot {
                    WorkerSlot::Ready(parked) => {
                        // The context idled in a GC safe region; leave it
                        // (waiting out any in-progress collection) before
                        // running user code on it again.
                        let ctx = ThreadCtx::unpark(&self.shared, parked);
                        ctx.resume_idle();
                        ctx
                    }
                    WorkerSlot::Fresh { guard, cell, env } => {
                        ThreadCtx::new_child(&self.shared, guard, cell, env, self.spawn_node)
                    }
                });
            }
            if self.cancelled.load(Ordering::Relaxed) {
                return None;
            }
            self.available.wait(&mut slots);
        }
    }

    fn checkin(&self, ctx: ThreadCtx) {
        // Once in the slot no OS thread drives this context, so it cannot
        // reach a safepoint: park its mutator in the idle safe region (roots
        // published) *before* exposing it, or a stress collection would wait
        // on it forever.
        ctx.suspend_idle();
        let mut slots = self.slots.lock();
        if let Some(pos) = slots.iter().position(|s| s.is_none()) {
            slots[pos] = Some(WorkerSlot::Ready(ctx.park()));
        }
        drop(slots);
        self.available.notify_one();
    }

    /// Execute items `[lo, hi)` on a checked-out logical worker. Called
    /// from pool workers and from the helping submitter.
    fn run_range(&self, lo: usize, hi: usize) {
        if self.cancelled.load(Ordering::Relaxed) {
            return;
        }
        let _unwind = CancelOnUnwind(self);
        let Some(mut ctx) = self.checkout() else {
            return;
        };
        for i in lo..hi {
            if self.cancelled.load(Ordering::Relaxed) {
                break;
            }
            ctx.current_env().write_slot(0, 0, self.items[i]);
            if let Err(e) = ctx.exec_block(&self.body) {
                let mut err = self.error.lock();
                if err.is_none() {
                    *err = Some(e);
                }
                self.cancelled.store(true, Ordering::Relaxed);
                break;
            }
        }
        self.checkin(ctx);
    }
}

/// Cancels a `parallel for` whose range is unwinding from a panic. The
/// pool reports the panic once every range is done; until then later
/// ranges must drain, and checkouts waiting for the lost worker must
/// return. Setting the flag under the slots mutex means a checkout either
/// sees it or is already asleep when the wake-up comes.
struct CancelOnUnwind<'a>(&'a PforJob);

impl Drop for CancelOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let slots = self.0.slots.lock();
            self.0.cancelled.store(true, Ordering::Relaxed);
            drop(slots);
            self.0.available.notify_all();
        }
    }
}
