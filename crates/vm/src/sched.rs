//! The deterministic scheduler and virtual-time simulator.
//!
//! This is the substitution for the paper's 8-core testbed (DESIGN.md §2):
//! virtual time is charged one instruction at a time — always to the
//! runnable thread with the smallest virtual clock — so runs are exactly
//! reproducible on any host, whatever its core count. A thread may
//! *execute* thread-private instructions ahead of that order (see the main
//! loop); their charges still land where the per-instruction schedule puts
//! them. While every runnable thread holds such banked charges, whole
//! rounds of them are applied in closed form ([`charge_rounds`]), again
//! exactly as the per-instruction schedule would apply them one by one.
//!
//! Virtual time models the paper's own explanation of its 62.5 % efficiency:
//! "the sharing of data structures amongst interpreter threads" (§IV).
//! Every instruction has a *parallel* cost paid on the thread's own clock
//! and a *serialized* cost paid on a shared runtime resource (symbol
//! tables, allocator): with the default 4:1 split, T threads saturate the
//! shared resource at speedup 5 — reproducing the paper's measured curve
//! (2× at 2, 4× at 4, ≈5× at 8).
//!
//! The GIL mode charges the entire cost through the shared resource,
//! which pins speedup at ≈1× — the Python contrast of paper §I.

use crate::bytecode::CompiledProgram;
use crate::vm::{CostClass, Feed, FeedShare, Outcome, Registry, Table, VmState, VmThread, World};
use std::{rc::Rc, sync::Arc};
use tetra_runtime::locks::describe_waits;
use tetra_runtime::{
    ConsoleRef, ErrorKind, GcStats, Heap, HeapConfig, MutatorGuard, RuntimeError, Value,
};

/// Virtual-time cost model (all in abstract "units").
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Per-instruction cost paid on the thread's own clock.
    pub instr_parallel: u64,
    /// Per-instruction cost serialized through the shared runtime resource.
    pub instr_serial: u64,
    /// Extra serialized cost of a heap allocation.
    pub alloc_serial: u64,
    /// Extra serialized cost of a builtin call.
    pub builtin_serial: u64,
    /// Cost of creating one thread (paid by the parent, serially).
    pub spawn: u64,
    /// Units of virtual time per simulated millisecond (`sleep`).
    pub units_per_ms: u64,
    /// Serialize *everything* through the shared resource (GIL mode).
    pub gil: bool,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            instr_parallel: 4,
            instr_serial: 1,
            alloc_serial: 8,
            builtin_serial: 4,
            spawn: 400,
            units_per_ms: 5_000,
            gil: false,
        }
    }
}

impl CostModel {
    /// Charge one executed instruction of class `cost` to a thread's clock
    /// (`vtime`) and the shared runtime resource (`runtime_free`).
    fn charge(&self, vtime: &mut u64, runtime_free: &mut u64, cost: CostClass) {
        let (parallel, serial) = match cost {
            CostClass::Basic => (self.instr_parallel, self.instr_serial),
            CostClass::SharedAccess => (self.instr_parallel, self.instr_serial * 2),
            CostClass::Alloc => (self.instr_parallel, self.instr_serial + self.alloc_serial),
            CostClass::Builtin => (self.instr_parallel, self.instr_serial + self.builtin_serial),
            CostClass::Sleep(ms) => (ms * self.units_per_ms, 0),
        };
        if self.gil {
            let start = (*vtime).max(*runtime_free);
            *vtime = start + parallel + serial;
            *runtime_free = *vtime;
        } else {
            *vtime += parallel;
            if serial > 0 {
                let start = (*vtime).max(*runtime_free);
                *vtime = start + serial;
                *runtime_free = *vtime;
            }
        }
    }

    /// Charge `n` consecutive `Basic` instructions of one thread at once:
    /// identical to `n` calls of [`CostModel::charge`] when no other
    /// thread charges in between (after the first, the thread itself
    /// holds the shared resource).
    fn charge_basic_run(&self, vtime: &mut u64, runtime_free: &mut u64, n: u64) {
        if n == 0 {
            return;
        }
        let (p, s) = (self.instr_parallel, self.instr_serial);
        if self.gil {
            *vtime = (*vtime).max(*runtime_free) + n * (p + s);
            *runtime_free = *vtime;
        } else if s > 0 {
            *vtime = (*vtime + p).max(*runtime_free) + s + (n - 1) * (p + s);
            *runtime_free = *vtime;
        } else {
            *vtime += n * p;
        }
    }
}

/// Most instructions one thread runs per dispatch, or ahead of its clock.
const QUANTUM: u32 = 256;

/// One runnable thread's clock and banked credit, as [`charge_rounds`]
/// sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Banked {
    vtime: u64,
    id: u32,
    credit: u32,
    /// `vtime` when the current round began.
    start: u64,
    /// Charged once in the current round.
    charged: bool,
}

impl Banked {
    fn new(id: u32, vtime: u64, credit: u32) -> Banked {
        Banked { vtime, id, credit, start: vtime, charged: false }
    }
}

/// Charge banked credit of `banked` — every runnable thread, each holding
/// credit — exactly as successive picks of the smallest `(vtime, id)`
/// would, and return how many charges were applied in closed form.
///
/// One round of picks is charged one by one. If it charged each thread
/// once and moved every clock and `runtime_free` by the same Δ, the next
/// round repeats it shifted by Δ: [`CostModel::charge`] depends only on
/// clock differences, and ties break by id. So the `m` rounds that the
/// smallest remaining credit still covers are applied at once. A round
/// that would charge a thread twice stops before doing so; the charges
/// made so far stand, and the next pick goes on from them.
fn charge_rounds(cost: &CostModel, banked: &mut [Banked], runtime_free: &mut u64) -> u64 {
    debug_assert!(banked.iter().all(|b| b.credit > 0 && !b.charged));
    let free_start = *runtime_free;
    for _ in 0..banked.len() {
        let b = banked.iter_mut().min_by_key(|b| (b.vtime, b.id)).expect("runnable threads");
        if b.charged {
            return 0;
        }
        b.charged = true;
        b.credit -= 1;
        cost.charge(&mut b.vtime, runtime_free, CostClass::Basic);
    }
    let delta = *runtime_free - free_start;
    if banked.iter().any(|b| b.vtime - b.start != delta) {
        return 0;
    }
    let rounds = banked.iter().map(|b| b.credit).min().unwrap_or(0);
    let shift = u64::from(rounds) * delta;
    for b in banked.iter_mut() {
        b.vtime += shift;
        b.credit -= rounds;
    }
    *runtime_free += shift;
    u64::from(rounds) * banked.len() as u64
}

/// The [`World`] view of a scheduler's fields, built from disjoint field
/// borrows so a thread in `threads` can be stepped mutably beside it.
macro_rules! world {
    ($sched:ident) => {
        World {
            program: $sched.program,
            heap: &$sched.heap,
            mutator: &$sched.mutator,
            registry: &$sched.registry,
            console: &$sched.console,
        }
    };
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Worker count for `parallel for` (the simulated "cores"/threads T).
    pub workers: usize,
    /// Model the runtime pool's adaptive chunking: workers claim
    /// shrinking chunks from a shared cursor instead of taking one static
    /// contiguous chunk each (`tetra sim --static-chunks`).
    pub dynamic_chunking: bool,
    pub cost: CostModel,
    pub gc: HeapConfig,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            workers: 4,
            dynamic_chunking: true,
            cost: CostModel::default(),
            gc: HeapConfig::default(),
        }
    }
}

/// Results of a simulated run.
#[derive(Debug, Clone)]
pub struct SimStats {
    /// Virtual time at which the last thread finished.
    pub virtual_elapsed: u64,
    /// Total instructions executed across all threads.
    pub instructions: u64,
    /// Threads created (including main).
    pub threads: u32,
    /// Lock acquisitions that had to wait.
    pub lock_contentions: u64,
    pub gc: GcStats,
}

#[derive(Default)]
struct SimLock {
    holder: Option<u32>,
    /// Line where the holder took the lock (for re-entry messages).
    holder_line: u32,
    /// Trace timestamp of the current acquisition (0 when tracing is off).
    held_since_ns: u64,
    /// Shadow call-path node of the acquiring code (lock attribution).
    holder_node: u32,
    waiters: Vec<u32>,
}

/// Run a compiled program deterministically, returning stats.
pub fn run(
    program: &CompiledProgram,
    config: VmConfig,
    console: ConsoleRef,
) -> Result<SimStats, RuntimeError> {
    let mut sched = Scheduler::new(program, config, console);
    sched.run()
}

struct Scheduler<'p> {
    program: &'p CompiledProgram,
    config: VmConfig,
    heap: Arc<Heap>,
    /// The scheduler thread's single GC mutator registration. A second
    /// registration on the same OS thread would deadlock the collector.
    mutator: MutatorGuard,
    registry: Registry,
    console: ConsoleRef,
    threads: Vec<VmThread>,
    /// Ids of the threads that are not `Done`: the only ones a pick scans.
    live: Vec<u32>,
    /// Live `background:` threads. While any runs, nobody runs ahead.
    live_background: u32,
    /// Simulated locks, by lock index.
    locks: Vec<SimLock>,
    /// Shared-runtime resource availability (virtual time).
    runtime_free: u64,
    next_id: u32,
    lock_contentions: u64,
    instructions: u64,
    /// Reused buffer of the runnable threads for [`charge_rounds`].
    banked: Vec<Banked>,
    /// Instruction charges applied in closed form by [`charge_rounds`].
    closed_form_charges: u64,
}

impl<'p> Scheduler<'p> {
    fn new(program: &'p CompiledProgram, config: VmConfig, console: ConsoleRef) -> Self {
        let heap = Heap::new(config.gc.clone());
        let mutator = heap.register_mutator();
        Scheduler {
            program,
            config,
            heap,
            mutator,
            registry: Registry::default(),
            console,
            threads: Vec::new(),
            live: Vec::new(),
            live_background: 0,
            locks: program.lock_names.iter().map(|_| SimLock::default()).collect(),
            runtime_free: 0,
            next_id: 0,
            lock_contentions: 0,
            instructions: 0,
            banked: Vec::new(),
            closed_form_charges: 0,
        }
    }

    fn new_thread(
        &mut self,
        parent: Option<u32>,
        unit: u16,
        locals: Table,
        outers: Option<Rc<[Table]>>,
        at_time: u64,
        shadow_node: u32,
    ) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        let mut t = VmThread::new(id, parent, unit, locals, outers, &self.registry, shadow_node);
        t.vtime = at_time;
        self.threads.push(t);
        self.live.push(id);
        id
    }

    fn thread(&mut self, id: u32) -> &mut VmThread {
        &mut self.threads[id as usize]
    }

    fn run(&mut self) -> Result<SimStats, RuntimeError> {
        let main_unit = self.program.main;
        let nlocals = self.program.unit(main_unit).nlocals as usize;
        let locals = self.registry.new_table(vec![Value::None; nlocals]);
        // The main unit is entered directly (no Call instruction), so seed
        // its call path here — the interpreter reaches `main` through
        // `call_user`, and the flame paths must agree across engines.
        let main_node = if tetra_obs::attribution_enabled() {
            tetra_obs::stack::child(tetra_obs::stack::ROOT, &self.program.unit(main_unit).name)
        } else {
            tetra_obs::stack::ROOT
        };
        self.new_thread(None, main_unit, locals, None, 0, main_node);

        loop {
            let Some((tid, runnable, all_banked)) = self.pick() else {
                if self.live.is_empty() {
                    break;
                }
                // Deadlock (or a join that can never complete): raise into
                // the thread whose block closed the cycle — a `try:` there
                // can catch it, mirroring the interpreter's detect-at-acquire
                // behaviour.
                let (victim, want, err) = self.deadlock()?;
                // Remove the victim from the wait queue and unwind it.
                self.locks[want as usize].waiters.retain(|w| *w != victim);
                self.thread(victim).state = VmState::Runnable;
                self.thread(victim).advance_ip();
                self.deliver(victim, err)?;
                continue;
            };

            // With several runnable threads, virtual time is charged one
            // instruction per pick, so the shared-resource queueing and the
            // lock acquisition order are modeled faithfully. Executing a
            // private instruction (`step_quantum`) commutes with every
            // other thread's work, so it may run *ahead* of its charge: the
            // thread banks the surplus as credit and later picks charge it
            // without dispatching. While every runnable thread holds
            // credit, `charge_rounds` charges whole rounds of those picks
            // at once. Each charge still lands exactly where the
            // per-instruction schedule puts it, and every other
            // instruction still executes only once all of its thread's
            // earlier instructions are charged. A live `background:` child
            // is the one runnable thread that can read another runnable
            // thread's locals (its parent's), so it turns running ahead
            // off. With one runnable thread, the leftover credit is charged
            // in bulk and the thread runs a whole quantum.
            let idx = tid as usize;
            if runnable > 1 {
                if all_banked {
                    self.charge_banked();
                    continue;
                }
                let t = &mut self.threads[idx];
                if t.credit > 0 {
                    t.credit -= 1;
                    self.config.cost.charge(&mut t.vtime, &mut self.runtime_free, CostClass::Basic);
                    continue;
                }
                if self.live_background == 0 && self.run_ahead(tid) {
                    continue;
                }
                self.dispatch(tid, 1)?;
            } else {
                let t = &mut self.threads[idx];
                let credit = std::mem::take(&mut t.credit) as u64;
                self.config.cost.charge_basic_run(&mut t.vtime, &mut self.runtime_free, credit);
                self.dispatch(tid, QUANTUM)?;
            }
        }

        // One flush at end of simulation, mirroring the interpreter: the
        // metrics registry's lock must stay off the allocation path.
        self.heap.publish_metrics();
        tetra_obs::metrics::counter_add("sim.instructions", self.instructions);
        tetra_obs::metrics::counter_add("sim.closed_form_charges", self.closed_form_charges);
        Ok(SimStats {
            virtual_elapsed: self.threads.iter().map(|t| t.vtime).max().unwrap_or(0),
            instructions: self.instructions,
            threads: self.next_id,
            lock_contentions: self.lock_contentions,
            gc: self.heap.stats(),
        })
    }

    /// The runnable thread with the smallest `(vtime, id)` (ties by id →
    /// fully deterministic), with the number of runnable threads and
    /// whether every one of them holds credit.
    fn pick(&self) -> Option<(u32, u32, bool)> {
        let mut runnable = 0u32;
        let mut all_banked = true;
        let mut best: Option<(u64, u32)> = None;
        for &id in &self.live {
            let t = &self.threads[id as usize];
            if matches!(t.state, VmState::Runnable) {
                runnable += 1;
                all_banked &= t.credit > 0;
                let key = (t.vtime, id);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        best.map(|(_, id)| (id, runnable, all_banked))
    }

    /// Every runnable thread holds credit: charge it in rounds, gathered
    /// into the reused `banked` buffer (see [`charge_rounds`]).
    fn charge_banked(&mut self) {
        self.banked.clear();
        self.banked.extend(self.live.iter().filter_map(|&id| {
            let t = &self.threads[id as usize];
            matches!(t.state, VmState::Runnable).then(|| Banked::new(id, t.vtime, t.credit))
        }));
        self.closed_form_charges +=
            charge_rounds(&self.config.cost, &mut self.banked, &mut self.runtime_free);
        for b in &self.banked {
            let t = &mut self.threads[b.id as usize];
            t.vtime = b.vtime;
            t.credit = b.credit;
        }
    }

    /// Run `tid` ahead of its virtual clock: execute up to a quantum of
    /// private instructions now, charge the first and bank the rest as
    /// credit. Returns false when its next instruction is not private.
    fn run_ahead(&mut self, tid: u32) -> bool {
        let start = tetra_obs::now_ns();
        let world = world!(self);
        let t = &mut self.threads[tid as usize];
        let n = t.step_quantum(&world, QUANTUM);
        if n == 0 {
            return false;
        }
        // The quantum never executes Call/Return, so one dispatch event
        // covers it under a single call path.
        tetra_obs::vm_dispatch(tid, n, start, t.current_shadow_node());
        self.instructions += n as u64;
        t.credit = n - 1;
        self.config.cost.charge(&mut t.vtime, &mut self.runtime_free, CostClass::Basic);
        true
    }

    /// Execute and charge up to `batch` instructions of `tid`, stopping
    /// early at any outcome the scheduler must handle.
    fn dispatch(&mut self, tid: u32, batch: u32) -> Result<(), RuntimeError> {
        let idx = tid as usize;
        let mut pending: Option<Outcome> = None;
        // Dispatch spans are flushed whenever the thread's shadow call
        // path changes (Call/Return), so each VmDispatch event covers
        // exactly one call path and can feed the flame output.
        let mut batch_start = tetra_obs::now_ns();
        let mut batch_node = self.threads[idx].current_shadow_node();
        let mut batch_count: u32 = 0;
        let mut dispatched: u32 = 0;
        while dispatched < batch {
            // Fast path within the quantum: run private instructions under
            // one borrow of the locals and the stack instead of borrowing
            // per instruction. All of them cost `Basic`, and the closed
            // form below equals charging them one by one.
            if batch > 1 {
                let world = world!(self);
                let t = &mut self.threads[idx];
                let n = t.step_quantum(&world, batch - dispatched);
                if n > 0 {
                    self.instructions += n as u64;
                    dispatched += n;
                    // The quantum never executes Call/Return, so the
                    // shadow node cannot have changed.
                    batch_count += n;
                    self.config.cost.charge_basic_run(
                        &mut t.vtime,
                        &mut self.runtime_free,
                        n as u64,
                    );
                    if dispatched >= batch {
                        break;
                    }
                }
            }
            let world = world!(self);
            let thread = &mut self.threads[idx];
            let stepped = thread.step(&world);
            self.instructions += 1;
            dispatched += 1;
            batch_count += 1;
            let (outcome, cost) = match stepped {
                Ok(x) => x,
                Err(e) => {
                    // Raise into the thread's handlers (or its parent).
                    self.deliver(tid, e)?;
                    break;
                }
            };
            self.config.cost.charge(&mut thread.vtime, &mut self.runtime_free, cost);
            // A Call or Return moved the thread onto a different call
            // path: flush the batch so far under the old node.
            let node = thread.current_shadow_node();
            if node != batch_node {
                tetra_obs::vm_dispatch(tid, batch_count, batch_start, batch_node);
                batch_start = tetra_obs::now_ns();
                batch_count = 0;
                batch_node = node;
            }
            if !matches!(outcome, Outcome::Normal) {
                pending = Some(outcome);
                break;
            }
        }
        if batch_count > 0 {
            tetra_obs::vm_dispatch(tid, batch_count, batch_start, batch_node);
        }
        match pending {
            Some(outcome) => self.handle(tid, outcome),
            None => Ok(()),
        }
    }

    fn handle(&mut self, tid: u32, outcome: Outcome) -> Result<(), RuntimeError> {
        match outcome {
            Outcome::Normal => Ok(()),
            Outcome::Finished => self.finish_or_refeed(tid),
            Outcome::Spawn { thunks, join } => {
                let (parent_time, outers, spawn_node) = self.spawn_point(tid);
                let spawn_cost = self.config.cost.spawn;
                let mut children = Vec::with_capacity(thunks.len());
                for (i, unit) in thunks.iter().enumerate() {
                    let nlocals = self.program.unit(*unit).nlocals as usize;
                    let locals = self.registry.new_table(vec![Value::None; nlocals]);
                    let start = parent_time + spawn_cost * (i as u64 + 1);
                    let id = self.new_thread(
                        Some(tid),
                        *unit,
                        locals,
                        Some(outers.clone()),
                        start,
                        spawn_node,
                    );
                    self.thread(id).background = !join;
                    self.live_background += u32::from(!join);
                    children.push(id);
                }
                {
                    // step() already advanced past the Parallel instruction.
                    let t = self.thread(tid);
                    t.vtime += spawn_cost * thunks.len() as u64;
                    if join {
                        t.state = VmState::Joining(children);
                    }
                }
                Ok(())
            }
            Outcome::ParallelFor { thunk, items } => {
                if items.is_empty() {
                    return Ok(()); // step() already advanced past the instruction
                }
                let (parent_time, outers, spawn_node) = self.spawn_point(tid);
                let workers = self.config.workers.clamp(1, items.len());
                let spawn_cost = self.config.cost.spawn;
                // One feed per loop: its workers share the item snapshot and
                // claim index ranges from one cursor, shrinking chunks under
                // dynamic chunking (the interpreter pool's split-on-steal),
                // one contiguous chunk each under `--static-chunks`.
                let share = Rc::new(FeedShare::new(
                    self.registry.new_snapshot(items),
                    workers,
                    self.config.dynamic_chunking,
                ));
                let mut children = Vec::with_capacity(workers);
                for _ in 0..workers {
                    let Some((lo, hi)) = share.claim() else { break };
                    let nlocals = self.program.unit(thunk).nlocals as usize;
                    let mut init = vec![Value::None; nlocals];
                    init[0] = share.items[lo];
                    let locals = self.registry.new_table(init);
                    let start = parent_time + spawn_cost * (children.len() as u64 + 1);
                    let id = self.new_thread(
                        Some(tid),
                        thunk,
                        locals.clone(),
                        Some(outers.clone()),
                        start,
                        spawn_node,
                    );
                    self.thread(id).feed = Some(Feed {
                        next: lo + 1,
                        end: hi,
                        unit: thunk,
                        locals,
                        outers: outers.clone(),
                        share: share.clone(),
                    });
                    children.push(id);
                }
                let workers = children.len();
                {
                    let t = self.thread(tid);
                    t.vtime += spawn_cost * workers as u64;
                    t.state = VmState::Joining(children);
                }
                Ok(())
            }
            Outcome::WantLock { lock, line } => {
                let acquire_node = self.thread(tid).current_shadow_node();
                let name = self.program.lock_name(lock);
                let entry = &mut self.locks[lock as usize];
                match entry.holder {
                    None => {
                        entry.holder = Some(tid);
                        entry.holder_line = line;
                        entry.held_since_ns = tetra_obs::now_ns();
                        entry.holder_node = acquire_node;
                        let acquired_ns = entry.held_since_ns;
                        let t = self.thread(tid);
                        // A woken waiter re-runs EnterLock and acquires here:
                        // its wait started back when it first blocked.
                        let (wait_start, wait_line) = if t.block_start.0 != 0 {
                            std::mem::take(&mut t.block_start)
                        } else {
                            (acquired_ns, line)
                        };
                        tetra_obs::lock_wait(tid, name, wait_line, wait_start, acquire_node);
                        t.held_locks.push(lock);
                        t.advance_ip();
                        Ok(())
                    }
                    Some(h) if h == tid => {
                        let err = RuntimeError::new(
                            ErrorKind::LockReentry,
                            format!(
                                "this thread already holds lock `{name}` (taken at line {}); \
                                 a second `lock {name}:` would wait for itself forever",
                                entry.holder_line
                            ),
                            line,
                        );
                        // Skip past the EnterLock before unwinding so a
                        // handler resumes cleanly.
                        self.thread(tid).advance_ip();
                        self.deliver(tid, err)
                    }
                    Some(_) => {
                        entry.waiters.push(tid);
                        self.lock_contentions += 1;
                        let order = self.lock_contentions;
                        let t = self.thread(tid);
                        t.block_start = (tetra_obs::now_ns(), line);
                        t.block_order = order;
                        t.state = VmState::BlockedLock(lock);
                        Ok(())
                    }
                }
            }
            Outcome::Unlocked { lock } => {
                let t = self.thread(tid);
                if let Some(pos) = t.held_locks.iter().rposition(|&l| l == lock) {
                    t.held_locks.remove(pos);
                }
                self.release_lock(tid, lock);
                Ok(())
            }
        }
    }

    /// Where thread `tid` spawns: its clock, the outer chain of the thunks
    /// it starts (its frame's locals, then that frame's own outers) and the
    /// call path they attribute under (a thunk frame adds no segment).
    fn spawn_point(&self, tid: u32) -> (u64, Rc<[Table]>, u32) {
        let t = &self.threads[tid as usize];
        let f = t.frames.last().expect("spawning thread has a frame");
        let outer = f.outers.as_deref().unwrap_or_default();
        (t.vtime, std::iter::once(&f.locals).chain(outer).cloned().collect(), f.shadow_node)
    }

    /// Release `lock` held by `tid` and wake its waiters.
    fn release_lock(&mut self, tid: u32, lock: u16) {
        let release_time = self.thread(tid).vtime;
        let entry = &mut self.locks[lock as usize];
        debug_assert_eq!(entry.holder, Some(tid));
        entry.holder = None;
        let name = self.program.lock_name(lock);
        tetra_obs::lock_hold(tid, name, entry.held_since_ns, entry.holder_node);
        let waiters = std::mem::take(&mut entry.waiters);
        for w in waiters {
            let t = self.thread(w);
            t.state = VmState::Runnable;
            t.vtime = t.vtime.max(release_time);
        }
    }

    /// Raise a runtime error in thread `tid`: unwind to its innermost
    /// `try:` handler (releasing locks acquired inside the `try` body), or
    /// — with no handler — finish the thread with the error, delivering it
    /// to the joining parent, or abort the simulation when it reaches a
    /// thread nobody joins.
    fn deliver(&mut self, tid: u32, err: RuntimeError) -> Result<(), RuntimeError> {
        // Pop the innermost handler, if any.
        let handler = self.thread(tid).handlers.pop();
        match handler {
            Some(h) => {
                // Release locks acquired after the try was entered.
                let to_release = self.thread(tid).held_locks.split_off(h.locks_mark);
                for &lock in to_release.iter().rev() {
                    self.release_lock(tid, lock);
                }
                // Materialize the message; the handler's first instruction
                // stores it into the catch variable.
                let msg = self.heap.alloc_str(&self.mutator, &self.registry, err.message.clone());
                let t = self.thread(tid);
                while t.frames.len() > h.frame_depth {
                    t.frames.pop();
                }
                t.stack.borrow_mut().truncate(h.stack_height);
                t.stack.borrow_mut().push(msg);
                if let Some(f) = t.frames.last_mut() {
                    f.ip = h.handler_ip as usize;
                }
                t.state = VmState::Runnable;
                Ok(())
            }
            None => {
                // Release everything the thread still holds.
                let to_release = std::mem::take(&mut self.thread(tid).held_locks);
                for &lock in to_release.iter().rev() {
                    self.release_lock(tid, lock);
                }
                let (parent, background) = {
                    let t = self.thread(tid);
                    (t.parent, t.background)
                };
                if parent.is_none() && !background {
                    return Err(err); // uncaught in main: abort the run
                }
                {
                    let t = self.thread(tid);
                    t.error = Some(err);
                    // No more items for a failed worker — and with dynamic
                    // chunking, cancel the unclaimed remainder of the loop
                    // (the interpreter pool's cancel flag does the same).
                    if let Some(feed) = &t.feed {
                        feed.share.drain();
                    }
                    t.feed = None;
                }
                self.finish_or_refeed(tid)
            }
        }
    }

    /// A thread's outermost frame returned: feed it the next parallel-for
    /// item, or mark it done and wake its joining parent.
    fn finish_or_refeed(&mut self, tid: u32) -> Result<(), RuntimeError> {
        if self.thread(tid).refeed() {
            return Ok(());
        }
        if let Some(pos) = self.live.iter().position(|&id| id == tid) {
            self.live.swap_remove(pos);
        }
        let (end_time, parent) = {
            let t = &mut self.threads[tid as usize];
            debug_assert_eq!(t.credit, 0, "a finishing thread has no uncharged instructions");
            t.state = VmState::Done;
            // A finished worker lets go of its feed (its locals, outers and
            // share of the loop's items): the snapshot dies with the loop's
            // last worker, as on the interpreter.
            t.feed = None;
            self.live_background -= u32::from(t.background);
            if tetra_obs::enabled() {
                let name = if tid == 0 { "vm-main".to_string() } else { format!("vm-{tid}") };
                tetra_obs::thread_span(tid, &name, t.trace_start_ns);
            }
            (t.vtime, t.parent)
        };
        // Wake a parent joining on this thread once all siblings finished.
        if let Some(pid) = parent {
            let done_children: Vec<u32> = match &self.threads[pid as usize].state {
                VmState::Joining(children) => children.clone(),
                _ => return Ok(()),
            };
            let all_done =
                done_children.iter().all(|c| self.threads[*c as usize].state == VmState::Done);
            if all_done {
                let join_time = done_children
                    .iter()
                    .map(|c| self.threads[*c as usize].vtime)
                    .max()
                    .unwrap_or(end_time);
                let child_error =
                    done_children.iter().find_map(|c| self.threads[*c as usize].error.take());
                let p = self.thread(pid);
                p.state = VmState::Runnable;
                p.vtime = p.vtime.max(join_time);
                // The first failing child's error surfaces in the parent at
                // the join point — where a `try:` around the parallel
                // construct can catch it.
                if let Some(e) = child_error {
                    return self.deliver(pid, e);
                }
            }
        }
        Ok(())
    }

    /// Every live thread waits: the blocked thread to raise the deadlock
    /// in, the lock it waits for, and the error. On a lock cycle that is
    /// the cycle's last thread to block, the one whose block closed it,
    /// with the wait-for chain in the interpreter's words
    /// (`tetra_runtime::locks`) and the line of its `lock` statement. With
    /// no cycle (a lock held by a thread that joins its waiters) it is the
    /// last thread to block; with no thread blocked, the run fails.
    fn deadlock(&self) -> Result<(u32, u16, RuntimeError), RuntimeError> {
        let mut blocked: Vec<&VmThread> =
            self.threads.iter().filter(|t| matches!(t.state, VmState::BlockedLock(_))).collect();
        blocked.sort_by_key(|t| std::cmp::Reverse(t.block_order));
        let last = *blocked.first().ok_or_else(|| {
            RuntimeError::new(
                ErrorKind::ThreadError,
                "simulation stuck: threads joining children that never finish (VM bug)",
                0,
            )
        })?;
        let (t, (chain, closed)) = blocked
            .iter()
            .map(|t| (*t, self.wait_chain(t.id)))
            .find(|(_, (_, closed))| *closed)
            .unwrap_or_else(|| (last, self.wait_chain(last.id)));
        let waits =
            describe_waits(chain.iter().map(|&(id, l)| (id, self.program.lock_names[l as usize])));
        let end =
            if closed { " — completing a cycle" } else { ", which is held by a joining thread" };
        let message = format!("deadlock: {waits}{end}");
        Ok((t.id, chain[0].1, RuntimeError::new(ErrorKind::Deadlock, message, t.block_start.1)))
    }

    /// The wait-for chain from blocked thread `tid`: (thread, lock it
    /// waits for) pairs, following each lock to its holder while the
    /// holder is blocked on a lock; and whether it leads back to `tid`.
    fn wait_chain(&self, tid: u32) -> (Vec<(u32, u16)>, bool) {
        let mut chain = Vec::new();
        let mut id = tid;
        while let VmState::BlockedLock(lock) = self.threads[id as usize].state {
            if chain.len() > self.threads.len() {
                break; // a cycle that does not pass through `tid`
            }
            chain.push((id, lock));
            match self.locks[lock as usize].holder {
                Some(holder) if holder == tid => return (chain, true),
                Some(holder) => id = holder,
                None => break,
            }
        }
        (chain, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The default model, the GIL, no serialized cost, and a model that
    /// charges nothing — under which every round moves all clocks by the
    /// same Δ = 0 even when it picks one thread throughout.
    fn cost_model(which: u8) -> CostModel {
        let default = CostModel::default();
        match which {
            0 => default,
            1 => CostModel { gil: true, ..default },
            2 => CostModel { instr_serial: 0, ..default },
            _ => CostModel { instr_parallel: 0, instr_serial: 0, ..default },
        }
    }

    fn clocks(threads: &[Banked]) -> Vec<(u64, u32, u32)> {
        threads.iter().map(|b| (b.vtime, b.id, b.credit)).collect()
    }

    /// Charge up to `n` picks one by one, the smallest `(vtime, id)`
    /// first, stopping at a pick of a thread without credit. Returns the
    /// charges made.
    fn charge_picks(cost: &CostModel, threads: &mut [Banked], free: &mut u64, n: u64) -> u64 {
        for charged in 0..n {
            let b = threads.iter_mut().min_by_key(|b| (b.vtime, b.id)).unwrap();
            if b.credit == 0 {
                return charged;
            }
            b.credit -= 1;
            cost.charge(&mut b.vtime, free, CostClass::Basic);
        }
        n
    }

    /// The scheduler's credit path until a pick lands on a thread without
    /// credit: `charge_rounds` while every thread holds credit, one charge
    /// per pick otherwise. Each `charge_rounds` call is checked against
    /// the same number of single picks. Returns the charges applied in
    /// closed form.
    fn drain_in_rounds(
        cost: &CostModel,
        threads: &mut [Banked],
        free: &mut u64,
    ) -> Result<u64, TestCaseError> {
        let mut closed_form = 0;
        loop {
            if threads.iter().all(|b| b.credit > 0) {
                for b in threads.iter_mut() {
                    *b = Banked::new(b.id, b.vtime, b.credit);
                }
                let (mut expected, mut expected_free) = (threads.to_vec(), *free);
                let credit = |ts: &[Banked]| ts.iter().map(|b| u64::from(b.credit)).sum::<u64>();
                let before = credit(threads);
                closed_form += charge_rounds(cost, threads, free);
                let charged = before - credit(threads);
                prop_assert!(charged > 0, "a call must charge at least one pick");
                prop_assert_eq!(
                    charge_picks(cost, &mut expected, &mut expected_free, charged),
                    charged
                );
                prop_assert_eq!(clocks(threads), clocks(&expected));
                prop_assert_eq!(*free, expected_free);
            } else if charge_picks(cost, threads, free, 1) == 0 {
                return Ok(closed_form);
            }
        }
    }

    /// `n` threads with ids in a scrambled order (as `live` holds them
    /// after `swap_remove`), clocks `base + offset`.
    fn state(base: u64, threads: &[(u64, u32)]) -> Vec<Banked> {
        threads
            .iter()
            .enumerate()
            .map(|(i, &(offset, credit))| Banked::new(i as u32 * 37 % 71, base + offset, credit))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Closed-form rounds leave exactly the clocks, credits and
        /// `runtime_free` that charging one pick at a time leaves.
        #[test]
        fn closed_form_rounds_match_per_pick_charging(
            threads in prop::collection::vec((0u64..48, 0u32..=300), 2..71),
            base in 0u64..1_000_000,
            free_offset in 0u64..96,
            model in 0u8..4,
        ) {
            let cost = cost_model(model);
            let free = (base + free_offset).saturating_sub(48);
            let (mut per_pick, mut per_pick_free) = (state(base, &threads), free);
            charge_picks(&cost, &mut per_pick, &mut per_pick_free, u64::MAX);
            let (mut rounds, mut rounds_free) = (state(base, &threads), free);
            drain_in_rounds(&cost, &mut rounds, &mut rounds_free)?;
            prop_assert_eq!(clocks(&rounds), clocks(&per_pick));
            prop_assert_eq!(rounds_free, per_pick_free);
        }
    }

    /// Threads in lockstep are charged mostly in closed form under the
    /// default and the GIL model, with the per-pick result. (Without a
    /// serialized cost `runtime_free` stays put while the clocks move, so
    /// no round repeats: every charge is a single pick.)
    #[test]
    fn lockstep_threads_are_charged_in_closed_form() {
        let threads = [(0, 50), (0, 80), (3, 120), (1, 300), (2, 255)];
        for model in 0..2 {
            let cost = cost_model(model);
            let (mut per_pick, mut per_pick_free) = (state(1_000, &threads), 900);
            charge_picks(&cost, &mut per_pick, &mut per_pick_free, u64::MAX);
            let (mut rounds, mut rounds_free) = (state(1_000, &threads), 900);
            let closed_form = drain_in_rounds(&cost, &mut rounds, &mut rounds_free).unwrap();
            assert_eq!(clocks(&rounds), clocks(&per_pick), "model {model}");
            assert_eq!(rounds_free, per_pick_free, "model {model}");
            let charged = u64::from(
                50 + 80 + 120 + 300 + 255 - clocks(&rounds).iter().map(|c| c.2).sum::<u32>(),
            );
            assert!(
                closed_form * 2 > charged,
                "model {model}: {closed_form} of {charged} in closed form"
            );
        }
    }
}
