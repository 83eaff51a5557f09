//! The VM: thread state and single-instruction stepping.
//!
//! Unlike the tree-walking interpreter, the VM is an explicit machine —
//! frames, instruction pointers and an operand stack — so execution can be
//! *stepped*: the deterministic scheduler in [`crate::sched`] interleaves
//! VM threads one instruction at a time, which is what makes the
//! virtual-time simulation (and deterministic replay) possible.
//!
//! The simulator runs on one OS thread, so its machine state is
//! single-threaded: frame locals and operand stacks are `Rc<RefCell<..>>`
//! [`Table`]s registered with a [`Registry`], the GC root source. A
//! collection inside an allocating instruction takes only shared borrows of
//! them, so no mutable borrow may be held across an allocation: that panics
//! ("already mutably borrowed"). A shared one, such as a builtin's argument
//! slice, keeps its values rooted.

use crate::bytecode::{CompiledProgram, Op, Then};
use std::{cell::Cell, cell::RefCell, rc::Rc, rc::Weak, sync::Arc};
use tetra_runtime::{
    ConsoleRef, ErrorKind, Heap, MutatorGuard, Object, RootSink, RootSource, RuntimeError,
    Snapshot, Value,
};
use tetra_stdlib::{ops, Builtin};

/// A table of values: one per frame's locals, plus each thread's operand
/// stack.
pub type Table = Rc<RefCell<Vec<Value>>>;

/// Registry of all live tables and `parallel for` item snapshots; the
/// single GC root source of a VM run.
pub struct Registry {
    tables: RefCell<TableSet>,
}

struct TableSet {
    entries: Vec<Weak<RefCell<Vec<Value>>>>,
    /// Item snapshots of running `parallel for` loops, rooted by reference.
    snapshots: Vec<std::sync::Weak<Snapshot>>,
    /// Purge dead weak entries once `entries` reaches this length. After a
    /// purge it is reset to twice the surviving count, so a full scan only
    /// runs when the live fraction may have fallen below half — amortized
    /// O(1) per registration, and dead tables never pile up unboundedly.
    purge_at: usize,
}

const PURGE_FLOOR: usize = 64;

impl Default for Registry {
    fn default() -> Self {
        Registry {
            tables: RefCell::new(TableSet {
                entries: Vec::new(),
                snapshots: Vec::new(),
                purge_at: PURGE_FLOOR,
            }),
        }
    }
}

impl Registry {
    pub fn new_table(&self, init: Vec<Value>) -> Table {
        let t = Rc::new(RefCell::new(init));
        let mut set = self.tables.borrow_mut();
        set.entries.push(Rc::downgrade(&t));
        if set.entries.len() >= set.purge_at {
            set.entries.retain(|w| w.strong_count() > 0);
            set.purge_at = (set.entries.len() * 2).max(PURGE_FLOOR);
        }
        t
    }

    /// Register a `parallel for`'s items: the collector traces the
    /// snapshot once per collection instead of reading it as a table.
    /// Loops are few, so dead entries are purged on every registration.
    pub fn new_snapshot(&self, items: Vec<Value>) -> Arc<Snapshot> {
        let s = Snapshot::new(items);
        let mut set = self.tables.borrow_mut();
        set.snapshots.retain(|w| w.strong_count() > 0);
        set.snapshots.push(Arc::downgrade(&s));
        s
    }
}

impl RootSource for Registry {
    fn roots(&self, sink: &mut RootSink) {
        let set = self.tables.borrow();
        for t in set.entries.iter().filter_map(Weak::upgrade) {
            for v in t.borrow().iter() {
                sink.value(*v);
            }
        }
        for s in set.snapshots.iter().filter_map(std::sync::Weak::upgrade) {
            sink.snapshot(&s);
        }
    }
}

/// One call frame.
pub struct VmFrame {
    pub unit: u16,
    pub ip: usize,
    pub locals: Table,
    /// Enclosing frames' locals for thunks, `outers[0]` at depth 1: one
    /// chain shared by a spawn's children and a worker's items. `None` for
    /// a function frame, so a call allocates none.
    pub outers: Option<Rc<[Table]>>,
    /// Operand stack height at frame entry (restored on return).
    pub stack_base: usize,
    /// Shadow call-path node ([`tetra_obs::stack`]) this frame runs under.
    /// Stored per frame (not per thread) so unwinding frames automatically
    /// restores the attribution path; `stack::ROOT` when attribution is
    /// off.
    pub shadow_node: u32,
}

impl VmFrame {
    /// The locals of the enclosing frame `d` units up.
    fn outer(&self, d: u8) -> &Table {
        &self.outers.as_deref().expect("only a thunk reaches outer frames")[d as usize - 1]
    }
}

/// Why a thread cannot run right now.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmState {
    Runnable,
    /// Waiting for the lock with this index.
    BlockedLock(u16),
    /// Waiting for these child thread ids to finish.
    Joining(Vec<u32>),
    Done,
}

/// Work items fed to a parallel-for worker: it runs the thunk once per
/// index of its current chunk `next..end` of the loop's items, and claims
/// the next chunk from the loop's [`FeedShare`] when this one runs dry.
pub struct Feed {
    pub next: usize,
    /// One past the last index of the worker's current chunk.
    pub end: usize,
    /// The thunk re-entered for each item.
    pub unit: u16,
    pub locals: Table,
    pub outers: Rc<[Table]>,
    pub share: Rc<FeedShare>,
}

/// One `parallel for`'s items and claim cursor, shared by its workers.
/// The items are a registry-registered snapshot, so they stay GC-rooted
/// while any worker holds the share, and no longer.
///
/// Dynamic chunking is the deterministic model of the runtime pool: each
/// claim takes a guided-self-scheduling chunk, half the remaining work
/// divided by the worker count, so chunks start large (low dispatch
/// overhead) and shrink toward the tail (load balance), mirroring the
/// real pool's split-in-half-on-steal behaviour. Static chunking takes
/// `len / workers` items (rounded up) per claim, so each worker's first
/// claim is its one contiguous chunk and no second claim finds items.
/// Claim order is decided by the virtual-time scheduler, so simulated runs
/// stay exactly reproducible.
pub struct FeedShare {
    pub items: Arc<Snapshot>,
    cursor: Cell<usize>,
    workers: usize,
    dynamic: bool,
}

impl FeedShare {
    pub fn new(items: Arc<Snapshot>, workers: usize, dynamic: bool) -> Self {
        FeedShare { items, cursor: Cell::new(0), workers: workers.max(1), dynamic }
    }

    /// Claim the next chunk, or `None` when the loop is exhausted.
    pub fn claim(&self) -> Option<(usize, usize)> {
        let (lo, len) = (self.cursor.get(), self.items.len());
        if lo >= len {
            return None;
        }
        let take = if self.dynamic {
            ((len - lo) / (2 * self.workers)).max(1)
        } else {
            len.div_ceil(self.workers)
        };
        let hi = (lo + take).min(len);
        self.cursor.set(hi);
        Some((lo, hi))
    }

    /// Mark the loop exhausted (a worker died with an error: the remaining
    /// items are cancelled, like the interpreter pool's cancel flag).
    pub fn drain(&self) {
        self.cursor.set(self.items.len());
    }
}

/// An installed `try:` handler (the VM's unwind target).
#[derive(Debug, Clone)]
pub struct Handler {
    /// `frames.len()` when the handler was installed.
    pub frame_depth: usize,
    /// Operand-stack height when the handler was installed.
    pub stack_height: usize,
    /// Instruction index of the handler entry (starts with the store of
    /// the error message into the catch variable).
    pub handler_ip: u32,
    /// `held_locks.len()` at installation — locks past this mark are
    /// released when unwinding to the handler.
    pub locks_mark: usize,
}

/// One VM thread (main, parallel child, background child, or worker).
pub struct VmThread {
    pub id: u32,
    pub parent: Option<u32>,
    pub frames: Vec<VmFrame>,
    pub stack: Table,
    pub state: VmState,
    /// Virtual time (simulation clock units).
    pub vtime: u64,
    pub feed: Option<Feed>,
    /// True for `background:` children (not joined by anyone).
    pub background: bool,
    pub instructions: u64,
    /// Private instructions already executed by running ahead of the
    /// virtual clock but not yet charged (see sched.rs). Only a runnable
    /// thread has credit.
    pub credit: u32,
    /// Installed `try:` handlers, innermost last.
    pub handlers: Vec<Handler>,
    /// Locks this thread currently holds (their indices), in acquisition
    /// order.
    pub held_locks: Vec<u16>,
    /// An uncaught error (delivered to the joining parent, or reported at
    /// program end for background threads).
    pub error: Option<RuntimeError>,
    /// Trace timestamp of thread creation (0 when tracing is off).
    pub trace_start_ns: u64,
    /// Trace timestamp of the blocking acquire in progress, with the
    /// `lock` statement's line (used when the thread is woken, and as the
    /// line of a deadlock error).
    pub block_start: (u64, u32),
    /// The run's contended-wait count when the thread last blocked on a
    /// lock: of the threads on a lock cycle, the last to block closed it.
    pub block_order: u64,
    /// Shadow call-path node this thread was spawned under: the seed for
    /// its outermost frame, and for re-fed parallel-for worker frames.
    pub shadow_root: u32,
}

/// Cost class of an executed instruction, mapped to virtual time by the
/// scheduler's [`crate::sched::CostModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    Basic,
    /// Access to an enclosing (shared) frame.
    SharedAccess,
    /// Heap allocation.
    Alloc,
    /// A builtin call (typically allocating / touching shared runtime).
    Builtin,
    /// A simulated `sleep(ms)`: extra virtual milliseconds.
    Sleep(u64),
}

/// What the scheduler must do after a step.
pub enum Outcome<'p> {
    Normal,
    /// Spawn these thunks; `join` distinguishes `parallel:` from
    /// `background:`.
    Spawn {
        thunks: &'p [u16],
        join: bool,
    },
    /// Distribute `items` over workers running `thunk`.
    ParallelFor {
        thunk: u16,
        items: Vec<Value>,
    },
    /// The thread wants lock `lock` (its index); its ip
    /// was *not* advanced.
    WantLock {
        lock: u16,
        line: u32,
    },
    /// The thread released lock `lock`.
    Unlocked {
        lock: u16,
    },
    /// The outermost frame returned; the thread is finished (unless its
    /// feed has more items).
    Finished,
}

/// Everything stepping needs from the scheduler.
pub struct World<'a, 'p> {
    pub program: &'p CompiledProgram,
    pub heap: &'a Arc<Heap>,
    pub mutator: &'a MutatorGuard,
    pub registry: &'a Registry,
    pub console: &'a ConsoleRef,
}

impl VmThread {
    pub fn new(
        id: u32,
        parent: Option<u32>,
        unit: u16,
        locals: Table,
        outers: Option<Rc<[Table]>>,
        registry: &Registry,
        shadow_node: u32,
    ) -> VmThread {
        VmThread {
            id,
            parent,
            frames: vec![VmFrame { unit, ip: 0, locals, outers, stack_base: 0, shadow_node }],
            shadow_root: shadow_node,
            stack: registry.new_table(Vec::new()),
            state: VmState::Runnable,
            vtime: 0,
            feed: None,
            background: false,
            instructions: 0,
            credit: 0,
            handlers: Vec::new(),
            held_locks: Vec::new(),
            error: None,
            trace_start_ns: tetra_obs::now_ns(),
            block_start: (0, 0),
            block_order: 0,
        }
    }

    /// The shadow call-path node the thread is currently running under
    /// (its spawn node once the outermost frame has returned).
    pub fn current_shadow_node(&self) -> u32 {
        self.frames.last().map(|f| f.shadow_node).unwrap_or(self.shadow_root)
    }

    pub fn current_line(&self, program: &CompiledProgram) -> u32 {
        match self.frames.last() {
            Some(f) => program
                .unit(f.unit)
                .line_at(f.ip.min(program.unit(f.unit).ops.len().saturating_sub(1))),
            None => 0,
        }
    }

    fn err(
        &self,
        program: &CompiledProgram,
        kind: ErrorKind,
        msg: impl Into<String>,
    ) -> RuntimeError {
        RuntimeError::new(kind, msg, self.current_line(program))
    }

    // ---- stack helpers (brief borrows; never held across allocation) ------

    fn push(&self, v: Value) {
        self.stack.borrow_mut().push(v);
    }

    fn underflow(&self, program: &CompiledProgram) -> RuntimeError {
        self.err(program, ErrorKind::Value, "VM stack underflow (compiler bug)")
    }

    fn pop(&self, program: &CompiledProgram) -> Result<Value, RuntimeError> {
        self.stack.borrow_mut().pop().ok_or_else(|| self.underflow(program))
    }

    fn peek(&self, program: &CompiledProgram) -> Result<Value, RuntimeError> {
        self.stack.borrow().last().copied().ok_or_else(|| self.underflow(program))
    }

    /// [`VmThread::top_n`] without allocating.
    fn top<const N: usize>(&self) -> [Value; N] {
        let stack = self.stack.borrow();
        stack[stack.len() - N..].try_into().expect("a slice of length N")
    }

    /// Copy the top `n` values (kept on the stack as GC roots).
    fn top_n(&self, n: usize) -> Vec<Value> {
        let stack = self.stack.borrow();
        stack[stack.len() - n..].to_vec()
    }

    /// Replace the top `n` values with `v`.
    fn replace_top(&self, n: usize, v: Value) {
        self.drop_n(n);
        self.push(v);
    }

    fn drop_n(&self, n: usize) {
        let mut stack = self.stack.borrow_mut();
        let len = stack.len();
        stack.truncate(len - n);
    }

    /// Execute a run of *private* instructions under one mutable borrow of
    /// the frame's locals and one of the operand stack, instead of
    /// borrowing both for every instruction. A fused op runs whole when the
    /// quantum has room for all its parts and none of them declines;
    /// otherwise its first part runs alone as the plain op, and the run
    /// goes on.
    ///
    /// Returns how many instructions ran (possibly 0); every one of them is
    /// `CostClass::Basic`. The scheduler uses it for the sole runnable
    /// thread's dispatch quantum and to run a thread ahead of its virtual
    /// clock (sched.rs), so it stops *before* any instruction that could
    /// allocate, raise, block, or change the frame stack — those must go
    /// through [`VmThread::step`] — and before any but the first that would
    /// drop a heap reference (a `StoreLocal` over an object, a `Pop` of an
    /// object). The first instruction runs at its own turn in the schedule
    /// either way, so running ahead can never make an object unreachable
    /// earlier than the per-instruction order would. The allocation
    /// restriction is also load-bearing for the borrows: a GC triggered
    /// inside the quantum would scan the registry's roots, which borrows
    /// every table, and panic on the two mutable borrows held here.
    pub fn step_quantum(&mut self, world: &World, max: u32) -> u32 {
        let program = world.program;
        let Some(frame) = self.frames.last_mut() else {
            return 0;
        };
        let unit = program.unit(frame.unit);
        // Most calls that find nothing to do stop at the first op: decide
        // that before borrowing either table.
        if unit.ops[frame.ip].is_shared() {
            return 0;
        }
        let octx =
            ops::OpCtx { heap: world.heap, mutator: world.mutator, roots: world.registry, line: 0 };
        let mut locals = frame.locals.borrow_mut();
        let mut stack = self.stack.borrow_mut();
        let (mut ip, mut n) = (frame.ip, 0);
        while n < max {
            let (first, room) = (n == 0, max - n);
            let op = unit.ops[ip];
            // A fused op that cannot run whole runs its first part alone (a
            // plain op declines again).
            let Some((next, k)) = run_op(op, ip, first, room, &octx, &mut locals, &mut stack)
                .or_else(|| run_op(op.first_part(), ip, first, 1, &octx, &mut locals, &mut stack))
            else {
                break;
            };
            (ip, n) = (next, n + k);
        }
        drop(stack);
        drop(locals);
        frame.ip = ip;
        self.instructions += n as u64;
        n
    }

    /// Execute the instruction at the current ip. Returns the outcome and
    /// the cost class. On `WantLock` the ip is left pointing at the
    /// `EnterLock` so the scheduler can retry it.
    pub fn step<'p>(
        &mut self,
        world: &World<'_, 'p>,
    ) -> Result<(Outcome<'p>, CostClass), RuntimeError> {
        let program = world.program;
        let frame = self.frames.last_mut().expect("step on a finished thread");
        let unit = program.unit(frame.unit);
        let op = unit.ops[frame.ip].first_part();
        self.instructions += 1;
        let mut octx =
            ops::OpCtx { heap: world.heap, mutator: world.mutator, roots: world.registry, line: 0 };
        if !op.is_shared() {
            let mut locals = frame.locals.borrow_mut();
            if let Some((next, _)) =
                run_op(op, frame.ip, true, 1, &octx, &mut locals, &mut self.stack.borrow_mut())
            {
                drop(locals);
                frame.ip = next;
                return Ok((Outcome::Normal, CostClass::Basic));
            }
        }
        // A shared instruction, or a private one whose handler declined:
        // it raises, or takes the allocating path.
        let line = unit.line_at(frame.ip);
        octx.line = line;
        if tetra_obs::heap_profile_enabled() {
            // Any allocation this instruction performs is charged to the
            // current call path and source line.
            tetra_obs::heapprof::set_site(frame.shadow_node, line);
        }

        let mut cost = CostClass::Basic;
        let mut advance = true;
        let mut outcome = Outcome::Normal;

        match op {
            Op::PushNone | Op::PushInt(_) | Op::PushReal(_) | Op::PushBool(_) | Op::Jump(_) => {
                unreachable!("{op:?} runs in run_op")
            }
            Op::LoadLoadBin(..) | Op::LoadIntBin(..) | Op::LoadBin(..) | Op::IntBin(..) => {
                unreachable!("step runs a fused op's first part")
            }
            Op::PushStr(i) => {
                let s = program.strings[i as usize].clone();
                let v = world.heap.alloc_str(world.mutator, world.registry, s);
                self.push(v);
                cost = CostClass::Alloc;
            }
            Op::LoadLocal(_) => {
                return Err(self.err(
                    program,
                    ErrorKind::UndefinedVariable,
                    "a variable was read before any assignment",
                ));
            }
            Op::StoreLocal(_) | Op::Pop | Op::Dup2 | Op::Widen => {
                return Err(self.underflow(program));
            }
            Op::JumpIfFalse(_) | Op::JumpIfFalsePeek(_) | Op::JumpIfTruePeek(_) => {
                let v = self.peek(program)?;
                return Err(self.truthy(program, v).expect_err("a bool condition is private"));
            }
            Op::Neg | Op::Not => {
                let v = self.peek(program)?;
                let r =
                    if matches!(op, Op::Neg) { ops::negate(&octx, v) } else { ops::not(&octx, v) };
                return Err(r.expect_err("a scalar result is private"));
            }
            Op::Bin(op, _) => {
                // Object operands (string or array `+`) or an operator error.
                let [l, r] = self.top();
                let r = ops::binary(&octx, op, l, r)?;
                self.replace_top(2, r);
                if r.as_obj().is_some() {
                    cost = CostClass::Alloc;
                }
            }
            Op::LoadOuter(d, i) => {
                cost = CostClass::SharedAccess;
                let v = self.frames.last().unwrap().outer(d).borrow()[i as usize];
                if matches!(v, Value::None) {
                    return Err(self.err(
                        program,
                        ErrorKind::UndefinedVariable,
                        "a variable was read before any assignment",
                    ));
                }
                self.push(v);
            }
            Op::StoreOuter(d, i) => {
                cost = CostClass::SharedAccess;
                let v = self.pop(program)?;
                self.frames.last().unwrap().outer(d).borrow_mut()[i as usize] = v;
            }
            Op::Call(f, argc) => {
                let argc = argc as usize;
                let callee = program.unit(f);
                let mut locals = vec![Value::None; callee.nlocals as usize];
                let mut stack = self.stack.borrow_mut();
                let stack_base = stack.len() - argc;
                locals[..argc].copy_from_slice(&stack[stack_base..]);
                stack.truncate(stack_base);
                drop(stack);
                let locals = world.registry.new_table(locals);
                // Return to the next instruction.
                self.frames.last_mut().unwrap().ip += 1;
                advance = false;
                if self.frames.len() >= 1000 {
                    return Err(self.err(
                        program,
                        ErrorKind::Value,
                        "call depth exceeded 1000 (infinite recursion?)",
                    ));
                }
                // Extend the shadow call path; Return pops the frame and
                // thereby restores the caller's node.
                let shadow_node = if tetra_obs::attribution_enabled() {
                    let parent = self.frames.last().unwrap().shadow_node;
                    tetra_obs::stack::child(parent, &callee.name)
                } else {
                    tetra_obs::stack::ROOT
                };
                self.frames.push(VmFrame {
                    unit: f,
                    ip: 0,
                    locals,
                    outers: None,
                    stack_base,
                    shadow_node,
                });
            }
            Op::CallBuiltin(b, argc) => {
                let argc = argc as usize;
                if b == Builtin::Sleep {
                    // Simulated: advance virtual time without real sleeping.
                    let ms = self.pop(program)?.as_int().unwrap_or(0).max(0) as u64;
                    self.push(Value::None);
                    cost = CostClass::Sleep(ms);
                } else {
                    let hctx = tetra_stdlib::HostCtx {
                        heap: world.heap,
                        mutator: world.mutator,
                        roots: world.registry,
                        console: world.console,
                        thread: None,
                        line,
                    };
                    // The arguments stay on the stack, borrowed and rooted.
                    let stack = self.stack.borrow();
                    let r = tetra_stdlib::call_builtin(b, &hctx, &stack[stack.len() - argc..])?;
                    drop(stack);
                    self.replace_top(argc, r);
                    cost = CostClass::Builtin;
                }
            }
            Op::Return => {
                let value = self.pop(program)?;
                let frame = self.frames.pop().expect("return without a frame");
                self.stack.borrow_mut().truncate(frame.stack_base);
                // Handlers installed inside the returning frame are gone.
                let depth = self.frames.len();
                self.handlers.retain(|h| h.frame_depth <= depth);
                if self.frames.is_empty() {
                    outcome = Outcome::Finished;
                    advance = false;
                } else {
                    self.push(value);
                    advance = false; // caller ip was advanced at Call time
                }
            }
            Op::MakeArray(n) => {
                let n = n as usize;
                let items = self.top_n(n);
                let arr = world.heap.alloc(world.mutator, world.registry, Object::array(items));
                self.replace_top(n, Value::Obj(arr));
                cost = CostClass::Alloc;
            }
            Op::MakeRange => {
                let [a, b] = self.top();
                let (Some(a), Some(b)) = (a.as_int(), b.as_int()) else {
                    return Err(self.err(program, ErrorKind::Value, "range bounds must be ints"));
                };
                const MAX_RANGE: i64 = 50_000_000;
                if b.saturating_sub(a) > MAX_RANGE {
                    return Err(self.err(
                        program,
                        ErrorKind::Value,
                        format!("range [{a} ... {b}] is too large (over {MAX_RANGE} elements)"),
                    ));
                }
                let items: Vec<Value> = (a..=b).map(Value::Int).collect();
                let arr = world.heap.alloc(world.mutator, world.registry, Object::array(items));
                self.replace_top(2, Value::Obj(arr));
                cost = CostClass::Alloc;
            }
            Op::MakeTuple(n) => {
                let n = n as usize;
                let items = self.top_n(n);
                let t = world.heap.alloc(world.mutator, world.registry, Object::Tuple(items));
                self.replace_top(n, Value::Obj(t));
                cost = CostClass::Alloc;
            }
            Op::MakeDict(n) => {
                let n = n as usize;
                let mut map = std::collections::HashMap::with_capacity(n);
                let stack = self.stack.borrow();
                for pair in stack[stack.len() - 2 * n..].chunks(2) {
                    let key = pair[0].to_dict_key().ok_or_else(|| {
                        self.err(
                            program,
                            ErrorKind::Value,
                            format!("a {} cannot be a dict key", pair[0].type_name()),
                        )
                    })?;
                    map.insert(key, pair[1]);
                }
                drop(stack);
                let d = world.heap.alloc(world.mutator, world.registry, Object::dict(map));
                self.replace_top(2 * n, Value::Obj(d));
                cost = CostClass::Alloc;
            }
            Op::Index => {
                let [base, index] = self.top();
                let v = ops::index_read(&octx, base, index)?;
                self.replace_top(2, v);
                cost = CostClass::SharedAccess;
            }
            Op::IndexStore => {
                let [base, index, value] = self.top();
                ops::index_write(&octx, base, index, value)?;
                self.drop_n(3);
                cost = CostClass::SharedAccess;
            }
            Op::Assert { text } => {
                let msg = if text.is_none() { Some(self.pop(program)?) } else { None };
                let cond = self.pop(program)?;
                if !self.truthy(program, cond)? {
                    let text = match (msg, text) {
                        (Some(m), _) => m.display(),
                        (None, Some(t)) => program.strings[t as usize].clone(),
                        (None, None) => unreachable!("a message was popped"),
                    };
                    return Err(self.err(program, ErrorKind::AssertionFailed, text));
                }
            }
            Op::EnterLock(c) => {
                outcome = Outcome::WantLock { lock: c, line };
                advance = false; // scheduler advances on successful acquire
            }
            Op::ExitLock(c) => {
                outcome = Outcome::Unlocked { lock: c };
            }
            Op::Parallel(s) => {
                outcome = Outcome::Spawn { thunks: &program.spawns[s as usize], join: true };
            }
            Op::Background(s) => {
                outcome = Outcome::Spawn { thunks: &program.spawns[s as usize], join: false };
            }
            Op::TryPush(handler_ip) => {
                self.handlers.push(Handler {
                    frame_depth: self.frames.len(),
                    stack_height: self.stack.borrow().len(),
                    handler_ip,
                    locks_mark: self.held_locks.len(),
                });
            }
            Op::TryPop => {
                self.handlers.pop();
            }
            Op::ParallelFor(t) => {
                // Peek (not pop): the sequence stays rooted while a
                // string's chars are allocated.
                let seq = self.peek(program)?;
                let items = ops::items(&octx, seq)?;
                self.drop_n(1);
                outcome = Outcome::ParallelFor { thunk: t, items };
            }
        }

        if advance {
            if let Some(f) = self.frames.last_mut() {
                f.ip += 1;
            }
        }
        Ok((outcome, cost))
    }

    fn truthy(&self, program: &CompiledProgram, v: Value) -> Result<bool, RuntimeError> {
        v.as_bool().ok_or_else(|| {
            self.err(
                program,
                ErrorKind::Value,
                format!("condition evaluated to a {}, not a bool", v.type_name()),
            )
        })
    }

    /// Enter a `parallel for` worker's next item: the next index of its
    /// chunk, or the first of a freshly claimed chunk once this one is dry.
    /// False when the loop has nothing left for it.
    pub fn refeed(&mut self) -> bool {
        let Some(feed) = &mut self.feed else { return false };
        if feed.next >= feed.end {
            let Some((lo, hi)) = feed.share.claim() else { return false };
            (feed.next, feed.end) = (lo, hi);
        }
        feed.locals.borrow_mut()[0] = feed.share.items[feed.next];
        feed.next += 1;
        self.frames.push(VmFrame {
            unit: feed.unit,
            ip: 0,
            locals: feed.locals.clone(),
            outers: Some(feed.outers.clone()),
            stack_base: 0,
            shadow_node: self.shadow_root,
        });
        self.stack.borrow_mut().clear();
        true
    }

    /// Advance past the `EnterLock` the thread was parked on.
    pub fn advance_ip(&mut self) {
        if let Some(f) = self.frames.last_mut() {
            f.ip += 1;
        }
    }
}

/// Run the private op `op` at `ip` on a thread's frame locals and operand
/// stack: the one implementation of each private opcode, for both
/// [`VmThread::step_quantum`] and [`VmThread::step`]. Returns the next ip
/// and how many instructions ran, or `None` — with nothing changed — for a
/// shared op, or when the op declines: an unassigned read, a non-bool
/// condition, an operator error, an object operand of `Bin` (it may
/// allocate), stack underflow, or, unless `first`, dropping a heap
/// reference (a `StoreLocal` over an object, a `Pop` of an object). A
/// fused op also declines when it has more parts than `room`, when any
/// part would decline, or when its `Bin` is not `int op int`; its parts
/// after the first are never `first`.
#[inline(always)]
fn run_op(
    op: Op,
    ip: usize,
    first: bool,
    room: u32,
    octx: &ops::OpCtx,
    locals: &mut [Value],
    stack: &mut Vec<Value>,
) -> Option<(usize, u32)> {
    let jump = |taken: bool, t: u32| Some((if taken { t as usize } else { ip + 1 }, 1));
    match op {
        Op::PushNone => stack.push(Value::None),
        Op::PushInt(v) => stack.push(Value::Int(v)),
        Op::PushReal(v) => stack.push(Value::Real(v)),
        Op::PushBool(v) => stack.push(Value::Bool(v)),
        Op::LoadLocal(i) => stack.push(load(locals, i)?),
        Op::StoreLocal(i) => {
            let v = *stack.last()?;
            store(locals, i, v, first)?;
            stack.pop();
        }
        Op::Jump(t) => return jump(true, t),
        Op::JumpIfFalse(t) => {
            let b = stack.last()?.as_bool()?;
            stack.pop();
            return jump(!b, t);
        }
        Op::JumpIfFalsePeek(t) => return jump(!stack.last()?.as_bool()?, t),
        Op::JumpIfTruePeek(t) => return jump(stack.last()?.as_bool()?, t),
        Op::Pop => {
            if !first && stack.last()?.as_obj().is_some() {
                return None;
            }
            stack.pop();
        }
        Op::Dup2 => {
            let [a, b] = *stack.last_chunk()?;
            stack.extend([a, b]);
        }
        Op::Neg => {
            let v = stack.last_mut()?;
            *v = ops::negate(octx, *v).ok()?;
        }
        Op::Not => {
            let v = stack.last_mut()?;
            *v = ops::not(octx, *v).ok()?;
        }
        Op::Widen => {
            let v = stack.last_mut()?;
            *v = ops::widen(*v);
        }
        Op::Bin(op, Then::Push) => {
            // Scalar operands only: objects (string and array `+`) may
            // allocate, and `step` raises an error with its line.
            let [l, r] = *stack.last_chunk()?;
            let v = match ops::scalar_binary(op, l, r) {
                Some(v) => v,
                None if l.as_obj().is_some() || r.as_obj().is_some() => return None,
                None => ops::binary(octx, op, l, r).ok()?,
            };
            stack.pop();
            *stack.last_mut()? = v;
        }
        // A fused `Bin`'s fast path is `int op int`; other operands run
        // the plain op.
        Op::Bin(op, then) => {
            let [l, r] = *stack.last_chunk()?;
            let v = ops::scalar_binary(op, l, r)?;
            return bin_then(v, 2, (ip, 1, room), then, locals, stack);
        }
        Op::LoadLoadBin(a, b, op, then) => {
            let v = ops::scalar_binary(op, load(locals, a)?, load(locals, b)?)?;
            return bin_then(v, 0, (ip, 3, room), then, locals, stack);
        }
        Op::LoadIntBin(a, c, op, then) => {
            let v = ops::scalar_binary(op, load(locals, a)?, Value::Int(c.into()))?;
            return bin_then(v, 0, (ip, 3, room), then, locals, stack);
        }
        Op::LoadBin(b, op, then) => {
            let v = ops::scalar_binary(op, *stack.last()?, load(locals, b)?)?;
            return bin_then(v, 1, (ip, 2, room), then, locals, stack);
        }
        Op::IntBin(c, op, then) => {
            let v = ops::scalar_binary(op, *stack.last()?, Value::Int(c.into()))?;
            return bin_then(v, 1, (ip, 2, room), then, locals, stack);
        }
        // Only `step` runs a shared op.
        _ => return None,
    }
    Some((ip + 1, 1))
}

/// The end of a `Bin` op at `ip` whose result is `v`: its `used` stack
/// operands are replaced by `v`, or the instruction after the `Bin`
/// (fused as `then`, never the quantum's first) stores or branches on
/// it. The op's `parts` are the instructions up to its `Bin`; it declines
/// when, with `then`, they are more than `room`.
#[inline(always)]
fn bin_then(
    v: Value,
    used: usize,
    (ip, parts, room): (usize, u32, u32),
    then: Then,
    locals: &mut [Value],
    stack: &mut Vec<Value>,
) -> Option<(usize, u32)> {
    let k = parts + u32::from(then != Then::Push);
    if k > room {
        return None;
    }
    let target = match then {
        Then::Push => None,
        Then::StoreLocal(slot) => store(locals, slot, v, false).map(|()| None)?,
        Then::JumpIfFalse(t) => (!v.as_bool()?).then_some(t as usize),
    };
    stack.truncate(stack.len() - used);
    if then == Then::Push {
        stack.push(v);
    }
    Some((target.unwrap_or(ip + k as usize), k))
}

/// `StoreLocal`'s rule: unless `first`, a store over an object declines.
#[inline(always)]
fn store(locals: &mut [Value], slot: u16, v: Value, first: bool) -> Option<()> {
    let slot = &mut locals[slot as usize];
    if !first && slot.as_obj().is_some() {
        return None;
    }
    *slot = v;
    Some(())
}

/// `LoadLocal`'s rule: an unassigned slot declines (`step` raises).
#[inline(always)]
fn load(locals: &[Value], slot: u16) -> Option<Value> {
    Some(locals[slot as usize]).filter(|v| !matches!(v, Value::None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetra_ast::BinOp;

    /// Number of weak entries the registry tracks (live + not-yet-purged
    /// dead).
    fn tracked_tables(reg: &Registry) -> usize {
        reg.tables.borrow().entries.len()
    }

    /// Run one `step_quantum` over plain `ops` in a frame whose local 0
    /// holds an array and local 1 is unassigned, with a second array on
    /// the operand stack; returns (instructions run, ip).
    fn quantum(ops: Vec<Op>) -> (u32, usize) {
        use crate::bytecode::{CodeUnit, UnitKind};
        let lines = vec![1; ops.len()];
        let unit = CodeUnit {
            name: "main".into(),
            kind: UnitKind::Function,
            params: 0,
            nlocals: 2,
            ops,
            lines,
        };
        let program = CompiledProgram::new(vec![unit], 1, Vec::new(), Vec::new(), Vec::new(), 0);
        let heap = Heap::new(tetra_runtime::HeapConfig::default());
        let mutator = heap.register_mutator();
        let registry = Registry::default();
        let console: ConsoleRef = tetra_runtime::BufferConsole::with_input(&[]);
        let array = heap.alloc(&mutator, &registry, Object::array(Vec::new()));
        let locals = registry.new_table(vec![Value::Obj(array), Value::None]);
        let mut thread = VmThread::new(0, None, 0, locals, None, &registry, 0);
        let other = heap.alloc(&mutator, &registry, Object::array(Vec::new()));
        thread.stack.borrow_mut().push(Value::Obj(other));
        let world = World {
            program: &program,
            heap: &heap,
            mutator: &mutator,
            registry: &registry,
            console: &console,
        };
        let n = thread.step_quantum(&world, 256);
        (n, thread.frames[0].ip)
    }

    const SEVEN: Op = Op::PushInt(7);
    const ADD: Op = Op::Bin(BinOp::Add, Then::Push);

    #[test]
    fn quantum_stops_before_overwriting_an_object() {
        // The store into the scalar slot runs; the store over the array
        // would drop a heap reference and is left to `step`.
        let ops = vec![SEVEN, Op::StoreLocal(1), SEVEN, Op::StoreLocal(0), Op::Return];
        assert_eq!(quantum(ops), (3, 3));
    }

    #[test]
    fn quantum_stops_before_popping_an_object() {
        let ops = vec![Op::LoadLocal(0), SEVEN, Op::Pop, Op::Pop, Op::Return];
        assert_eq!(quantum(ops), (3, 3));
    }

    #[test]
    fn quantum_may_drop_a_reference_as_its_first_instruction() {
        // The first instruction runs at its own turn in the schedule.
        assert_eq!(quantum(vec![Op::Pop, SEVEN, Op::Pop, Op::Return]), (3, 3));
        let ops = vec![Op::StoreLocal(0), Op::LoadLocal(0), Op::Pop, Op::Return];
        assert_eq!(quantum(ops), (2, 2));
    }

    #[test]
    fn quantum_runs_nothing_at_a_shared_instruction() {
        assert_eq!(quantum(vec![Op::LoadOuter(1, 0), Op::Return]), (0, 0));
        assert_eq!(quantum(vec![Op::Return]), (0, 0));
    }

    #[test]
    fn quantum_stops_before_an_object_store_inside_a_fused_op() {
        // `PushInt; Bin; StoreLocal 0` fuses to one op whose store would
        // overwrite the array: its parts run alone up to the store.
        let ops = vec![SEVEN, SEVEN, ADD, Op::StoreLocal(0), Op::Return];
        assert!(matches!(fused(&ops)[1], Op::IntBin(7, BinOp::Add, Then::StoreLocal(0))));
        assert_eq!(quantum(ops), (3, 3));
    }

    #[test]
    fn quantum_stops_before_popping_an_object_after_a_fused_op() {
        // The fused `PushInt; Bin` runs, the `Pop` of its int result runs,
        // and the `Pop` of the array below it is left to `step`.
        let ops = vec![SEVEN, SEVEN, Op::Bin(BinOp::Mul, Then::Push), Op::Pop, Op::Pop, Op::Return];
        assert!(matches!(fused(&ops)[1], Op::IntBin(7, BinOp::Mul, Then::Push)));
        assert_eq!(quantum(ops), (4, 4));
    }

    #[test]
    fn a_fused_op_with_an_object_operand_runs_its_parts_alone() {
        // Local 0 holds an array: the fused `LoadLocal 0; PushInt; Bin`
        // declines, its load runs alone, and the `Bin` is left to `step`.
        let ops = vec![Op::LoadLocal(0), SEVEN, ADD, Op::Return];
        assert!(matches!(fused(&ops)[0], Op::LoadIntBin(0, 7, BinOp::Add, Then::Push)));
        assert_eq!(quantum(ops), (2, 2));
    }

    fn fused(ops: &[Op]) -> Vec<Op> {
        let mut ops = ops.to_vec();
        crate::bytecode::fuse_in_place(&mut ops);
        ops
    }

    /// A run of private instructions (or a string push, which only `step`
    /// may run) from three random bytes: one instruction, or a fusable
    /// `Bin` with its operand loads and, maybe, the store or branch after
    /// it. Jump targets are raw bytes, wrapped into the code by the
    /// caller.
    fn private_run(kind: u8, a: u8, b: u8) -> Vec<Op> {
        use BinOp::*;
        const OPS: [BinOp; 11] = [Add, Sub, Mul, Div, Mod, Eq, Ne, Lt, Gt, Le, Ge];
        // Ints inside and outside the 32 bits a fused op carries, a real,
        // bools, none and the string `strings[0]`.
        const PUSHES: [Op; 9] = [
            Op::PushInt(0),
            Op::PushInt(2),
            Op::PushInt(-5),
            Op::PushInt(1 << 40),
            Op::PushReal(0.5),
            Op::PushBool(true),
            Op::PushBool(false),
            Op::PushNone,
            Op::PushStr(0),
        ];
        let push = |x: u8| PUSHES[x as usize % PUSHES.len()];
        let (slot, bin) =
            (|x: u8| u16::from(x % 4), Op::Bin(OPS[b as usize % OPS.len()], Then::Push));
        let then = match b / 64 {
            0 => vec![Op::StoreLocal(slot(a / 4))],
            1 => vec![Op::JumpIfFalse(u32::from(a))],
            _ => Vec::new(),
        };
        let mut run = match kind % 16 {
            0 | 1 => return vec![push(a)],
            2 | 3 => return vec![Op::LoadLocal(slot(a))],
            4 => return vec![Op::StoreLocal(slot(a))],
            5 => return vec![bin],
            6 => return vec![Op::JumpIfFalse(u32::from(a))],
            7 => {
                let t = u32::from(a);
                return vec![
                    [Op::Jump(t), Op::JumpIfFalsePeek(t), Op::JumpIfTruePeek(t)][b as usize % 3],
                ];
            }
            8 => return vec![Op::Pop],
            9 => return vec![Op::Dup2],
            10 => return vec![[Op::Neg, Op::Not, Op::Widen][a as usize % 3]],
            11 => vec![Op::LoadLocal(slot(a)), Op::LoadLocal(slot(a / 4)), bin],
            12 => vec![Op::LoadLocal(slot(a)), push(a / 4), bin],
            13 => vec![Op::LoadLocal(slot(a)), bin],
            14 => vec![push(a), bin],
            _ => vec![bin],
        };
        run.extend(then);
        run
    }

    /// An int (zero included), real, bool, none or the array object, from
    /// a random byte; ints are the likeliest.
    fn operand(k: u8, array: Value) -> Value {
        match k % 10 {
            0 => Value::None,
            1 => Value::Int(3),
            2 => Value::Int(-7),
            3 => Value::Int(0),
            4 => Value::Int(12),
            5 => Value::Int(i64::MAX),
            6 => Value::Real(2.5),
            7 => Value::Bool(true),
            8 => Value::Bool(false),
            _ => array,
        }
    }

    /// Object references held in the thread's stack and frame locals.
    fn object_refs(t: &VmThread) -> usize {
        let (stack, locals) = (t.stack.borrow(), t.frames[0].locals.borrow());
        stack.iter().chain(locals.iter()).filter(|v| v.as_obj().is_some()).count()
    }

    fn machine_state(t: &VmThread) -> String {
        let f = &t.frames[0];
        format!(
            "stack {:?} locals {:?} ip {} n {}",
            t.stack.borrow(),
            f.locals.borrow(),
            f.ip,
            t.instructions
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// One quantum over the fused ops leaves the machine exactly as
        /// that many single `step`s do, over the fused ops or the plain
        /// ones.
        #[test]
        fn a_quantum_runs_like_single_steps(
            runs in proptest::collection::vec((0u8..16, 0u8..=255, 0u8..=255), 1..8),
            locals in proptest::collection::vec(0u8..10, 3),
            stack in proptest::collection::vec(0u8..10, 0..4),
            max in 1u32..=8,
        ) {
            use crate::bytecode::{CodeUnit, UnitKind};
            let mut ops: Vec<Op> =
                runs.iter().flat_map(|&(kind, a, b)| private_run(kind, a, b)).collect();
            let len = ops.len() as u32;
            for op in &mut ops {
                if let Op::Jump(t) | Op::JumpIfFalse(t) | Op::JumpIfFalsePeek(t) | Op::JumpIfTruePeek(t) = op {
                    *t %= len + 1;
                }
            }
            ops.push(Op::Return);
            let unit = CodeUnit {
                name: "main".into(),
                kind: UnitKind::Function,
                params: 0,
                nlocals: 4,
                lines: vec![1; ops.len()],
                ops: ops.clone(),
            };
            let strings = vec!["s".to_string()];
            let program = CompiledProgram::new(vec![unit], 1, strings, Vec::new(), Vec::new(), 0);
            // The same program unfused: what the compiler emitted.
            let mut plain = program.clone();
            plain.units[0].ops = ops;
            let heap = Heap::new(tetra_runtime::HeapConfig::default());
            let mutator = heap.register_mutator();
            let registry = Registry::default();
            let console: ConsoleRef = tetra_runtime::BufferConsole::with_input(&[]);
            let array = Value::Obj(heap.alloc(&mutator, &registry, Object::array(Vec::new())));
            let world =
                World { program: &program, heap: &heap, mutator: &mutator, registry: &registry, console: &console };
            let plain_world = World { program: &plain, ..world };
            let thread = || {
                // Slot 3 starts as the array, so stores over an object are
                // common.
                let init = locals.iter().map(|&k| operand(k, array)).chain([array]).collect();
                let t = VmThread::new(0, None, 0, registry.new_table(init), None, &registry, 0);
                t.stack.borrow_mut().extend(stack.iter().map(|&k| operand(k, array)));
                t
            };
            let mut quantum = thread();
            let n = quantum.step_quantum(&world, max);
            proptest::prop_assert!(n <= max);
            // Single steps over the fused ops (each runs its index's first
            // part) and over the plain ops.
            for world in [&world, &plain_world] {
                let mut single = thread();
                let mut refs = usize::MAX;
                for _ in 0..n {
                    let stepped = single.step(world);
                    let (outcome, cost) =
                        stepped.map_err(|e| proptest::TestCaseError::fail(e.to_string()))?;
                    proptest::prop_assert!(matches!(outcome, Outcome::Normal));
                    proptest::prop_assert_eq!(cost, CostClass::Basic);
                    // Only the quantum's first instruction may drop a heap
                    // reference.
                    let now = object_refs(&single);
                    proptest::prop_assert!(refs == usize::MAX || now >= refs, "an object was dropped");
                    refs = now;
                }
                proptest::prop_assert_eq!(machine_state(&quantum), machine_state(&single));
            }
        }
    }

    #[test]
    fn dead_tables_are_purged_from_the_registry() {
        let reg = Registry::default();
        for _ in 0..10_000 {
            drop(reg.new_table(Vec::new()));
        }
        // Every table registered above is dead by the time the next one
        // arrives; the doubling threshold keeps the tracked set near the
        // floor instead of accumulating ten thousand dead weak entries.
        assert!(
            tracked_tables(&reg) <= 2 * PURGE_FLOOR,
            "tracked {} dead entries",
            tracked_tables(&reg)
        );
    }

    #[test]
    fn live_tables_survive_purges() {
        let reg = Registry::default();
        let keep: Vec<Table> = (0..100).map(|i| reg.new_table(vec![Value::Int(i)])).collect();
        for _ in 0..10_000 {
            drop(reg.new_table(Vec::new()));
        }
        assert!(tracked_tables(&reg) >= keep.len());
        for (i, t) in keep.iter().enumerate() {
            assert!(matches!(t.borrow()[0], Value::Int(v) if v == i as i64));
        }
    }
}
