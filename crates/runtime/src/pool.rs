//! A hand-rolled, persistent work-stealing worker pool.
//!
//! Both engines' parallel constructs used to spawn fresh OS threads with
//! statically partitioned work: a skewed `parallel for` serialized on its
//! slowest chunk, and a construct inside a loop paid thread-spawn cost on
//! every iteration. The pool replaces that with classic work stealing:
//!
//! * one deque per worker; a worker pops its own deque LIFO (the most
//!   recently split — and therefore cache-nearest — range first);
//! * an idle worker steals **half** a victim's deque from the front (the
//!   oldest, largest ranges), amortizing steal traffic;
//! * index-range tasks split **adaptively**: the executing worker halves a
//!   range down to its grain, keeping the unprocessed tail exposed in its
//!   own deque where thieves can find it. Balanced loops never split more
//!   than the log of their length; skewed loops shed work exactly where it
//!   piles up;
//! * a submitter waiting on its batch lends itself to the pool and runs
//!   its own group's tasks (help-first joining). This is what makes nested
//!   parallel constructs deadlock-free: a blocked parent is never just
//!   parked while its children sit in a queue behind it.
//!
//! The pool is created once per program (sized by `worker_threads`) and
//! reused across constructs, so repeated `parallel for`s stop paying
//! per-construct spawn cost. All counters are plain atomics flushed to the
//! `tetra-obs` metrics registry once per run — never on the hot path.

use crate::threads;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A task in a worker's deque.
enum Unit {
    /// A single closure (one `parallel:` arm).
    Call { group: Arc<Group>, f: Box<dyn FnOnce() + Send> },
    /// An index range of a `parallel for`; splits adaptively on execution.
    Range { group: Arc<Group>, lo: usize, hi: usize, grain: usize, f: RangeFn },
}

type RangeFn = Arc<dyn Fn(usize, usize) + Send + Sync>;

impl Unit {
    fn group(&self) -> &Arc<Group> {
        match self {
            Unit::Call { group, .. } | Unit::Range { group, .. } => group,
        }
    }
}

/// Join state for one submitted batch. `remaining` counts items for range
/// batches and tasks for call batches; the submitter blocks (and helps)
/// until it reaches zero.
struct Group {
    state: Mutex<GroupState>,
    cv: Condvar,
}

struct GroupState {
    remaining: usize,
    panicked: bool,
}

impl Group {
    fn new(remaining: usize) -> Arc<Group> {
        Arc::new(Group {
            state: Mutex::new(GroupState { remaining, panicked: false }),
            cv: Condvar::new(),
        })
    }

    fn complete(&self, n: usize, panicked: bool) {
        let mut st = self.state.lock();
        st.remaining -= n;
        if panicked {
            st.panicked = true;
        }
        if st.remaining == 0 {
            self.cv.notify_all();
        }
    }
}

/// At least one task in the batch panicked (the panic itself was caught so
/// the worker survives; the caller turns this into a runtime error).
#[derive(Debug)]
pub struct PoolPanic;

/// Per-executor counters. Slot `workers` aggregates every helping
/// submitter (there can be several at once; atomics make sharing safe).
#[derive(Default)]
struct ExecutorStats {
    tasks: AtomicU64,
    steals: AtomicU64,
    tasks_stolen: AtomicU64,
    splits: AtomicU64,
    busy_ns: AtomicU64,
}

/// A snapshot of the pool's counters (reported in `RunStats` and flushed
/// to metrics by [`WorkerPool::publish_metrics`]).
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    pub workers: usize,
    /// Tasks executed by pool workers and helping submitters together.
    pub tasks_executed: u64,
    /// Tasks executed by helping submitters (included in `tasks_executed`).
    pub submitter_tasks: u64,
    /// Steal operations (each takes half a victim's deque).
    pub steals: u64,
    /// Tasks moved by those steals.
    pub tasks_stolen: u64,
    /// Adaptive range splits (tail halves exposed for stealing).
    pub range_splits: u64,
    /// Deepest any single deque got.
    pub queue_high_water: u64,
    /// Summed wall time executors spent inside tasks.
    pub busy_ns: u64,
    /// Per-worker (tasks, busy_ns); index = worker id.
    pub per_worker: Vec<(u64, u64)>,
}

struct Idle {
    sleepers: usize,
    shutdown: bool,
}

struct PoolShared {
    /// One deque per worker. The submitter has no deque of its own; its
    /// splits go to the injector.
    queues: Vec<Mutex<VecDeque<Unit>>>,
    /// Overflow queue: submitter-side splits, visible to every worker.
    injector: Mutex<VecDeque<Unit>>,
    idle: Mutex<Idle>,
    wake: Condvar,
    /// `workers + 1` slots; the last belongs to helping submitters.
    stats: Vec<ExecutorStats>,
    queue_high_water: AtomicUsize,
}

impl PoolShared {
    fn push(&self, queue: usize, unit: Unit) {
        let len = {
            let mut q = self.queues[queue].lock();
            q.push_back(unit);
            q.len()
        };
        self.queue_high_water.fetch_max(len, Ordering::Relaxed);
        self.wake_one();
    }

    fn push_injector(&self, unit: Unit) {
        let len = {
            let mut q = self.injector.lock();
            q.push_back(unit);
            q.len()
        };
        self.queue_high_water.fetch_max(len, Ordering::Relaxed);
        self.wake_one();
    }

    /// Wake a sleeping worker, if any. The notify happens under the idle
    /// lock *after* the unit is queued, and sleepers re-check the queues
    /// under that same lock before waiting — so no wakeup is ever lost.
    fn wake_one(&self) {
        let idle = self.idle.lock();
        if idle.sleepers > 0 {
            self.wake.notify_one();
        }
    }

    fn has_work(&self) -> bool {
        !self.injector.lock().is_empty() || self.queues.iter().any(|q| !q.lock().is_empty())
    }

    /// Find a unit for worker `me`: own deque LIFO, then the injector,
    /// then steal half of the first non-empty victim deque (front half —
    /// the oldest, largest ranges).
    fn find_work(&self, me: usize) -> Option<Unit> {
        if let Some(u) = self.queues[me].lock().pop_back() {
            return Some(u);
        }
        if let Some(u) = self.injector.lock().pop_front() {
            return Some(u);
        }
        let n = self.queues.len();
        for off in 1..n {
            let victim = (me + off) % n;
            let mut q = self.queues[victim].lock();
            let avail = q.len();
            if avail == 0 {
                continue;
            }
            let take = avail.div_ceil(2);
            let stolen: Vec<Unit> = q.drain(..take).collect();
            drop(q);
            self.stats[me].steals.fetch_add(1, Ordering::Relaxed);
            self.stats[me].tasks_stolen.fetch_add(take as u64, Ordering::Relaxed);
            let mut stolen = stolen.into_iter();
            let first = stolen.next();
            if stolen.len() > 0 {
                let mut mine = self.queues[me].lock();
                mine.extend(stolen);
            }
            return first;
        }
        None
    }

    /// Remove the frontmost unit belonging to `group` from any queue (for
    /// a submitter helping its own batch along). Taking from another
    /// worker's deque counts as a steal unless `count_steal` is off
    /// (escalation pulls are not load-balancing).
    fn find_group_work(
        &self,
        group: &Arc<Group>,
        helper: usize,
        count_steal: bool,
    ) -> Option<Unit> {
        {
            let mut q = self.injector.lock();
            if let Some(pos) = q.iter().position(|u| Arc::ptr_eq(u.group(), group)) {
                return q.remove(pos);
            }
        }
        for qm in &self.queues {
            let mut q = qm.lock();
            if let Some(pos) = q.iter().position(|u| Arc::ptr_eq(u.group(), group)) {
                let unit = q.remove(pos);
                drop(q);
                if count_steal {
                    self.stats[helper].steals.fetch_add(1, Ordering::Relaxed);
                    self.stats[helper].tasks_stolen.fetch_add(1, Ordering::Relaxed);
                }
                return unit;
            }
        }
        None
    }

    /// Run one unit as executor `slot`. Ranges split adaptively first:
    /// halve down to the grain, leaving each tail where thieves (or this
    /// worker's next pop) can pick it up.
    fn execute(&self, slot: usize, unit: Unit) {
        let own_deque = slot < self.queues.len();
        let stats = &self.stats[slot];
        match unit {
            Unit::Call { group, f } => {
                let t0 = Instant::now();
                let panicked = catch_unwind(AssertUnwindSafe(f)).is_err();
                stats.busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                stats.tasks.fetch_add(1, Ordering::Relaxed);
                group.complete(1, panicked);
            }
            Unit::Range { group, lo, mut hi, grain, f } => {
                while hi - lo > grain {
                    let mid = lo + (hi - lo) / 2;
                    let tail =
                        Unit::Range { group: group.clone(), lo: mid, hi, grain, f: f.clone() };
                    if own_deque {
                        self.push(slot, tail);
                    } else {
                        self.push_injector(tail);
                    }
                    stats.splits.fetch_add(1, Ordering::Relaxed);
                    hi = mid;
                }
                let t0 = Instant::now();
                let panicked = catch_unwind(AssertUnwindSafe(|| f(lo, hi))).is_err();
                stats.busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                stats.tasks.fetch_add(1, Ordering::Relaxed);
                // Drop this unit's handle on the shared closure BEFORE
                // announcing completion: once the group unblocks, the
                // submitter may tear its world down, and if a worker still
                // held the last strong reference to state that (indirectly)
                // owns the pool, the pool would be dropped — and join its
                // own worker thread — from inside that worker.
                drop(f);
                group.complete(hi - lo, panicked);
            }
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>, me: usize) {
    loop {
        if let Some(unit) = shared.find_work(me) {
            shared.execute(me, unit);
            continue;
        }
        let mut idle = shared.idle.lock();
        if idle.shutdown {
            return;
        }
        if shared.has_work() {
            continue; // raced with a push; rescan
        }
        idle.sleepers += 1;
        // The timeout is belt-and-braces; pushes notify under `idle`.
        shared.wake.wait_for(&mut idle, Duration::from_millis(50));
        idle.sleepers -= 1;
    }
}

/// How long [`WorkerPool::run_calls`] lets queued call tasks wait for an
/// idle worker before escalating them to dedicated spare threads.
const CALL_GRACE: Duration = Duration::from_millis(1);

/// The pool itself. Create once (it spawns its workers immediately) and
/// share; dropping it shuts the workers down and joins them.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    stack_size: usize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawn `workers` persistent worker threads (at least one), each with
    /// `stack_size` bytes of stack (tree-walking interpreters recurse).
    pub fn new(workers: usize, stack_size: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            idle: Mutex::new(Idle { sleepers: 0, shutdown: false }),
            wake: Condvar::new(),
            stats: (0..=workers).map(|_| ExecutorStats::default()).collect(),
            queue_high_water: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                threads::spawn(format!("tetra-pool-{i}"), stack_size, move || {
                    worker_loop(shared, i)
                })
                .expect("could not spawn a pool worker thread")
            })
            .collect();
        WorkerPool { shared, stack_size, handles: Mutex::new(handles) }
    }

    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }

    /// Run `f(lo, hi)` over every sub-range of `[0, len)`, dynamically
    /// balanced with grain-size `grain`. Blocks until all items are done,
    /// lending the calling thread to the pool meanwhile. `f` runs
    /// concurrently on multiple threads and must cope with ranges arriving
    /// in any order.
    pub fn run_range(
        &self,
        len: usize,
        grain: usize,
        f: impl Fn(usize, usize) + Send + Sync + 'static,
    ) -> Result<(), PoolPanic> {
        if len == 0 {
            return Ok(());
        }
        let grain = grain.max(1);
        let group = Group::new(len);
        let f: RangeFn = Arc::new(f);
        // Seed one contiguous range per worker (fewer for short loops);
        // execution splits them further as needed.
        let nworkers = self.workers();
        let nseed = nworkers.min(len.div_ceil(grain)).max(1);
        let per = len.div_ceil(nseed);
        let mut lo = 0;
        let mut i = 0;
        while lo < len {
            let hi = (lo + per).min(len);
            self.shared.push(
                i % nworkers,
                Unit::Range { group: group.clone(), lo, hi, grain, f: f.clone() },
            );
            lo = hi;
            i += 1;
        }
        self.help_until_done(&group)
    }

    /// Run the `parallel:` arms. Unlike ranges, call tasks are *threads*
    /// semantically: they may block on each other (locks) for arbitrarily
    /// long, so every one of them must actually get an executor — queueing
    /// an arm behind a blocked worker would change program behaviour (a
    /// deadlock the program exhibits with true per-arm threads could
    /// silently fail to form). Idle workers get a short grace period to
    /// claim the arms; any arm still queued after it is escalated to a
    /// dedicated spare thread of its own.
    pub fn run_calls(&self, tasks: Vec<Box<dyn FnOnce() + Send>>) -> Result<(), PoolPanic> {
        if tasks.is_empty() {
            return Ok(());
        }
        let group = Group::new(tasks.len());
        for (i, f) in tasks.into_iter().enumerate() {
            self.shared.push(i % self.workers(), Unit::Call { group: group.clone(), f });
        }
        {
            let mut st = group.state.lock();
            if st.remaining > 0 {
                group.cv.wait_for(&mut st, CALL_GRACE);
            }
        }
        let helper = self.workers();
        let mut spares = Vec::new();
        while let Some(unit) = self.shared.find_group_work(&group, helper, false) {
            let shared = self.shared.clone();
            let spare =
                threads::spawn("tetra-pool-spare".to_string(), self.stack_size, move || {
                    shared.execute(helper, unit)
                })
                .expect("could not spawn a spare pool thread");
            spares.push(spare);
        }
        let panicked = {
            let mut st = group.state.lock();
            while st.remaining > 0 {
                group.cv.wait(&mut st);
            }
            st.panicked
        };
        for h in spares {
            let _ = h.join();
        }
        if panicked {
            Err(PoolPanic)
        } else {
            Ok(())
        }
    }

    /// Block until `group` completes, executing its queued units on this
    /// thread whenever any exist. This is the nested-construct deadlock
    /// guarantee: a submitter never merely parks while work it is waiting
    /// for sits unclaimed in a queue.
    fn help_until_done(&self, group: &Arc<Group>) -> Result<(), PoolPanic> {
        let helper = self.workers();
        loop {
            if let Some(unit) = self.shared.find_group_work(group, helper, true) {
                self.shared.execute(helper, unit);
                continue;
            }
            let mut st = group.state.lock();
            if st.remaining == 0 {
                return if st.panicked { Err(PoolPanic) } else { Ok(()) };
            }
            // Bounded wait, then rescan: a running range task may split
            // and expose new group work at any moment.
            group.cv.wait_for(&mut st, Duration::from_micros(200));
            if st.remaining == 0 {
                return if st.panicked { Err(PoolPanic) } else { Ok(()) };
            }
        }
    }

    pub fn stats(&self) -> PoolStats {
        let workers = self.workers();
        let mut out = PoolStats {
            workers,
            queue_high_water: self.shared.queue_high_water.load(Ordering::Relaxed) as u64,
            ..PoolStats::default()
        };
        for (i, s) in self.shared.stats.iter().enumerate() {
            let tasks = s.tasks.load(Ordering::Relaxed);
            let busy = s.busy_ns.load(Ordering::Relaxed);
            out.tasks_executed += tasks;
            out.steals += s.steals.load(Ordering::Relaxed);
            out.tasks_stolen += s.tasks_stolen.load(Ordering::Relaxed);
            out.range_splits += s.splits.load(Ordering::Relaxed);
            out.busy_ns += busy;
            if i < workers {
                out.per_worker.push((tasks, busy));
            } else {
                out.submitter_tasks = tasks;
            }
        }
        out
    }

    /// Flush the pool's counters to the metrics registry (once per run;
    /// the counters themselves are updated with plain atomics).
    pub fn publish_metrics(&self) {
        if !tetra_obs::metrics_enabled() {
            return;
        }
        let s = self.stats();
        if s.tasks_executed == 0 {
            return;
        }
        tetra_obs::metrics::counter_add("pool.workers", s.workers as u64);
        tetra_obs::metrics::counter_add("pool.tasks", s.tasks_executed);
        tetra_obs::metrics::counter_add("pool.submitter_tasks", s.submitter_tasks);
        tetra_obs::metrics::counter_add("pool.steals", s.steals);
        tetra_obs::metrics::counter_add("pool.tasks_stolen", s.tasks_stolen);
        tetra_obs::metrics::counter_add("pool.range_splits", s.range_splits);
        tetra_obs::metrics::counter_add("pool.queue_high_water", s.queue_high_water);
        tetra_obs::metrics::counter_add("pool.busy_ns", s.busy_ns);
        for (i, (tasks, busy)) in s.per_worker.iter().enumerate() {
            tetra_obs::metrics::counter_add(&format!("pool.worker.{i}.tasks"), *tasks);
            tetra_obs::metrics::counter_add(&format!("pool.worker.{i}.busy_ns"), *busy);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut idle = self.shared.idle.lock();
            idle.shutdown = true;
        }
        self.shared.wake.notify_all();
        let me = std::thread::current().id();
        for h in self.handles.get_mut().drain(..) {
            // A task closure can (indirectly) hold the last reference to
            // whatever owns the pool, putting this drop on a worker
            // thread. Joining ourselves would EDEADLK; detaching is fine —
            // the thread exits on its own via the shutdown flag above.
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn range_runs_every_index_exactly_once() {
        let pool = WorkerPool::new(4, 1 << 20);
        let hits: Arc<Vec<AtomicU64>> = Arc::new((0..1000).map(|_| AtomicU64::new(0)).collect());
        let h = hits.clone();
        pool.run_range(1000, 8, move |lo, hi| {
            for i in lo..hi {
                h[i].fetch_add(1, Ordering::Relaxed);
            }
        })
        .unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        let stats = pool.stats();
        assert_eq!(stats.workers, 4);
        assert!(stats.tasks_executed > 0);
    }

    #[test]
    fn calls_all_run_even_past_worker_count() {
        let pool = WorkerPool::new(2, 1 << 20);
        let count = Arc::new(AtomicU64::new(0));
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..16)
            .map(|_| {
                let count = count.clone();
                Box::new(move || {
                    count.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        pool.run_calls(tasks).unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn panic_in_task_is_reported_not_fatal() {
        let pool = WorkerPool::new(2, 1 << 20);
        let r = pool.run_range(10, 1, |lo, _| {
            if lo == 3 {
                panic!("boom");
            }
        });
        assert!(r.is_err());
        // The pool survives for the next batch.
        pool.run_range(10, 1, |_, _| {}).unwrap();
    }

    #[test]
    fn nested_submission_does_not_deadlock() {
        let pool = Arc::new(WorkerPool::new(2, 1 << 20));
        let total = Arc::new(AtomicU64::new(0));
        let (p, t) = (pool.clone(), total.clone());
        pool.run_range(4, 1, move |lo, hi| {
            for _ in lo..hi {
                let t = t.clone();
                p.run_range(8, 1, move |l, h| {
                    t.fetch_add((h - l) as u64, Ordering::Relaxed);
                })
                .unwrap();
            }
        })
        .unwrap();
        assert_eq!(total.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn reuse_across_many_batches() {
        let pool = WorkerPool::new(3, 1 << 20);
        let total = Arc::new(AtomicU64::new(0));
        for _ in 0..50 {
            let t = total.clone();
            pool.run_range(20, 2, move |lo, hi| {
                t.fetch_add((hi - lo) as u64, Ordering::Relaxed);
            })
            .unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 1000);
    }
}
