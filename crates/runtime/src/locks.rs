//! Named locks — the runtime behind Tetra's `lock <name>:` statement.
//!
//! Per the paper (§II), lock names live in "a separate namespace from other
//! Tetra identifiers". They are lexical, so the resolver numbers them
//! densely and the registry is one cache-line-sized cell per name. The
//! paper implements these with Pthread mutexes (§IV); here each cell is a
//! thin lock (Bacon et al., PLDI 1998):
//!
//! * **fast path** — an uncontended `lock` is one compare-and-swap of the
//!   cell's owner word from free to the acquiring thread, and its release
//!   one more; no mutex, no allocation, no wake-up call;
//! * **slow path** — only a thread that finds the lock held takes the
//!   registry's mutex, counts itself as a waiter of the cell, records the
//!   edge in the wait-for graph and sleeps on the cell's condvar. A release
//!   takes the mutex to wake sleepers only when the cell has waiters.
//!
//! The slow path keeps two pedagogical features the paper's IDE aims at:
//!
//! * **deadlock detection** — before blocking, the acquiring thread follows
//!   the wait-for graph (thread → lock it waits for → holder → …); a cycle
//!   back to itself raises [`ErrorKind::Deadlock`] with the full cycle
//!   spelled out instead of hanging the class's terminal;
//! * **re-entry detection** — `lock a:` nested inside `lock a:` on the same
//!   thread would self-deadlock with raw mutexes; it raises
//!   [`ErrorKind::LockReentry`] with the line that already holds the lock
//!   (the fast path sees this: the owner word already names the thread).
//!
//! Deadlock detection can be disabled ([`LockRegistry::set_detection`]) to
//! let students *watch* a real deadlock from the debugger's thread views.

use crate::error::{ErrorKind, RuntimeError};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use tetra_intern::Symbol;

/// One named lock, alone on its cache line.
#[repr(align(64))]
struct LockCell {
    name: Symbol,
    /// 0 when free, else the holding thread's id plus one.
    owner: AtomicU32,
    /// Threads in the slow path for this lock. Changed only under the
    /// registry mutex; read by releases to decide whether to wake anyone.
    waiters: AtomicU32,
    /// Written only by the owner: the `lock` statement's line (for the
    /// re-entry message), the acquiring call-path node and the acquisition
    /// timestamp (for the hold-time trace event).
    line: AtomicU32,
    stack_node: AtomicU32,
    acquired_at: AtomicU64,
    /// Acquisitions, and those that had to block first. Bumped only by the
    /// owner, so a load and a store suffice: the SeqCst CAS that takes the
    /// owner word reads the one that released it, ordering each owner's
    /// bump after the previous owner's.
    acquisitions: AtomicU64,
    contended: AtomicU64,
    /// Sleepers of the slow path, paired with the registry mutex.
    cv: Condvar,
}

impl LockCell {
    fn new(name: Symbol) -> LockCell {
        LockCell {
            name,
            owner: AtomicU32::new(0),
            waiters: AtomicU32::new(0),
            line: AtomicU32::new(0),
            stack_node: AtomicU32::new(0),
            acquired_at: AtomicU64::new(0),
            acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            cv: Condvar::new(),
        }
    }
}

/// The registry of all named locks in one running program.
pub struct LockRegistry {
    cells: Box<[LockCell]>,
    /// The wait-for graph's other half: thread → index of the lock it is
    /// blocked on. The slow path's mutex; the fast path never takes it.
    waiting: Mutex<HashMap<u32, u32>>,
    detect: AtomicBool,
}

/// Bump a counter only its lock's owner writes.
fn bump(counter: &AtomicU64) {
    counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

impl LockRegistry {
    /// A registry with one lock per name; a lock's index is its position
    /// in `names` (see `Resolution::lock_names` in `tetra-types`).
    pub fn with_names(names: &[Symbol]) -> LockRegistry {
        LockRegistry {
            cells: names.iter().map(|&name| LockCell::new(name)).collect(),
            waiting: Mutex::new(HashMap::new()),
            detect: AtomicBool::new(true),
        }
    }

    /// Enable/disable deadlock detection (default on). Re-entry is always
    /// an error: nothing could ever break that wait.
    pub fn set_detection(&self, on: bool) {
        self.detect.store(on, Ordering::Relaxed);
    }

    /// The fast path: take lock `lock` for thread `tid` if it is free.
    /// Returns `Ok(false)` when another thread holds it; the caller then
    /// blocks in [`LockRegistry::acquire`]. `line` is the source line of
    /// the `lock` statement (for errors and the debugger); `stack_node` is
    /// the acquiring call path (see `tetra_obs::stack`), attributed to the
    /// wait/hold trace events so the contention report can name the code
    /// that contends.
    #[inline]
    pub fn try_acquire(
        &self,
        tid: u32,
        lock: usize,
        line: u32,
        stack_node: u32,
    ) -> Result<bool, RuntimeError> {
        let wait_start = tetra_obs::metric_now_ns();
        let cell = &self.cells[lock];
        match cell.owner.compare_exchange(0, tid + 1, Ordering::SeqCst, Ordering::Relaxed) {
            Ok(_) => {
                Self::acquired(cell, tid, line, stack_node, wait_start, false);
                Ok(true)
            }
            Err(owner) if owner == tid + 1 => Err(Self::reentry(cell, line)),
            Err(_) => Ok(false),
        }
    }

    /// Acquire lock `lock` for thread `tid`, blocking while another thread
    /// holds it (arguments as for [`LockRegistry::try_acquire`]).
    ///
    /// Callers must wrap this in a GC safe region: it blocks.
    pub fn acquire(
        &self,
        tid: u32,
        lock: usize,
        line: u32,
        stack_node: u32,
    ) -> Result<(), RuntimeError> {
        if self.try_acquire(tid, lock, line, stack_node)? {
            return Ok(());
        }
        let wait_start = tetra_obs::metric_now_ns();
        let cell = &self.cells[lock];
        let mut waiting = self.waiting.lock();
        // Count ourselves as a waiter *before* the retry: a release that
        // swaps the owner out after our failed retry then sees the count
        // and wakes us (both sides are SeqCst, so one of them sees the
        // other).
        cell.waiters.fetch_add(1, Ordering::SeqCst);
        let mut blocked = false;
        let outcome = loop {
            match cell.owner.compare_exchange(0, tid + 1, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => break Ok(()),
                Err(owner) if owner == tid + 1 => break Err(Self::reentry(cell, line)),
                Err(_) => {}
            }
            if self.detect.load(Ordering::Relaxed) {
                if let Some(cycle) = self.find_cycle(&waiting, tid, lock as u32) {
                    break Err(RuntimeError::new(
                        ErrorKind::Deadlock,
                        format!(
                            "deadlock: {} — completing a cycle",
                            describe_waits(
                                cycle.iter().map(|&(t, l)| (t, self.cells[l as usize].name))
                            )
                        ),
                        line,
                    ));
                }
            }
            blocked = true;
            waiting.insert(tid, lock as u32);
            cell.cv.wait(&mut waiting);
            waiting.remove(&tid);
        };
        cell.waiters.fetch_sub(1, Ordering::SeqCst);
        drop(waiting);
        outcome?;
        Self::acquired(cell, tid, line, stack_node, wait_start, blocked);
        Ok(())
    }

    /// Owner-side bookkeeping of a successful acquisition.
    #[inline]
    fn acquired(
        cell: &LockCell,
        tid: u32,
        line: u32,
        stack_node: u32,
        wait_start: u64,
        blocked: bool,
    ) {
        cell.line.store(line, Ordering::Relaxed);
        cell.stack_node.store(stack_node, Ordering::Relaxed);
        bump(&cell.acquisitions);
        if blocked {
            bump(&cell.contended);
        }
        tetra_obs::lock_wait(tid, cell.name.as_str(), line, wait_start, stack_node);
        cell.acquired_at.store(tetra_obs::metric_now_ns(), Ordering::Relaxed);
    }

    fn reentry(cell: &LockCell, line: u32) -> RuntimeError {
        let name = cell.name;
        let owner_line = cell.line.load(Ordering::Relaxed);
        RuntimeError::new(
            ErrorKind::LockReentry,
            format!(
                "this thread already holds lock `{name}` (taken at line {owner_line}); \
                 a second `lock {name}:` would wait for itself forever"
            ),
            line,
        )
    }

    /// Release lock `lock`; thread `tid` must currently hold it.
    #[inline]
    pub fn release(&self, tid: u32, lock: usize) {
        let cell = &self.cells[lock];
        let acquired_at = cell.acquired_at.load(Ordering::Relaxed);
        let stack_node = cell.stack_node.load(Ordering::Relaxed);
        if let Err(owner) =
            cell.owner.compare_exchange(tid + 1, 0, Ordering::SeqCst, Ordering::Relaxed)
        {
            debug_assert!(false, "release of `{}` by {tid}, owner word {owner}", cell.name);
            return;
        }
        if cell.waiters.load(Ordering::SeqCst) != 0 {
            // Taking the mutex orders this wake-up after any waiter's
            // failed retry: it is asleep on the condvar by now.
            let _waiting = self.waiting.lock();
            cell.cv.notify_all();
        }
        tetra_obs::lock_hold(tid, cell.name.as_str(), acquired_at, stack_node);
    }

    /// (total acquisitions, acquisitions that blocked first), summed over
    /// every lock.
    pub fn contention_stats(&self) -> (u64, u64) {
        self.cells.iter().fold((0, 0), |(total, contended), cell| {
            (
                total + cell.acquisitions.load(Ordering::Relaxed),
                contended + cell.contended.load(Ordering::Relaxed),
            )
        })
    }

    /// The holder of `lock`, read from its owner word.
    fn owner(&self, lock: u32) -> Option<u32> {
        self.cells[lock as usize].owner.load(Ordering::SeqCst).checked_sub(1)
    }

    /// Follow the wait-for graph from the holder of `want` back to `tid`.
    /// Returns the cycle as (thread, lock-it-holds-or-waits-for) pairs.
    ///
    /// Runs under the mutex, so every thread in `waiting` is parked in the
    /// slow path and cannot release what it holds: a cycle through waiting
    /// threads is real even though fast-path acquisitions elsewhere never
    /// take the mutex.
    fn find_cycle(
        &self,
        waiting: &HashMap<u32, u32>,
        tid: u32,
        want: u32,
    ) -> Option<Vec<(u32, u32)>> {
        let mut cycle = vec![(tid, want)];
        let mut current = want;
        loop {
            let owner = self.owner(current)?;
            if owner == tid {
                return Some(cycle);
            }
            let next = *waiting.get(&owner)?;
            cycle.push((owner, next));
            if cycle.len() > waiting.len() + 1 {
                return None; // a cycle that does not pass through `tid`
            }
            current = next;
        }
    }
}

/// A deadlock's wait-for chain, worded the same by both engines: each
/// (thread, lock) pair is a thread waiting for a lock that the next pair's
/// thread holds.
pub fn describe_waits(chain: impl Iterator<Item = (u32, Symbol)>) -> String {
    let waits: Vec<String> =
        chain.map(|(tid, lock)| format!("thread {tid} waits for lock `{lock}`")).collect();
    waits.join(", which is held by a thread where ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn registry(names: &[&str]) -> LockRegistry {
        let names: Vec<Symbol> = names.iter().map(|n| Symbol::intern(n)).collect();
        LockRegistry::with_names(&names)
    }

    /// The lock `tid` is blocked on, read from the wait-for graph.
    fn blocked_on(reg: &LockRegistry, tid: u32) -> Option<u32> {
        reg.waiting.lock().get(&tid).copied()
    }

    fn wait_until_blocked(reg: &LockRegistry, tid: u32) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while blocked_on(reg, tid).is_none() {
            assert!(Instant::now() < deadline, "thread {tid} never blocked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn uncontended_acquire_release() {
        let reg = registry(&["a"]);
        assert!(reg.try_acquire(0, 0, 1, 0).unwrap());
        assert_eq!(reg.owner(0), Some(0));
        reg.release(0, 0);
        assert_eq!(reg.owner(0), None);
        assert_eq!(reg.contention_stats(), (1, 0));
    }

    #[test]
    fn reentry_is_detected() {
        let reg = registry(&["a"]);
        reg.acquire(0, 0, 3, 0).unwrap();
        let err = reg.acquire(0, 0, 7, 0).unwrap_err();
        assert_eq!(err.kind, ErrorKind::LockReentry);
        assert_eq!(err.line, 7);
        assert_eq!(
            err.message,
            "this thread already holds lock `a` (taken at line 3); \
             a second `lock a:` would wait for itself forever"
        );
    }

    #[test]
    fn reentry_is_raised_on_the_fast_path() {
        let reg = registry(&["a"]);
        assert!(reg.try_acquire(4, 0, 3, 0).unwrap());
        let err = reg.try_acquire(4, 0, 9, 0).unwrap_err();
        assert_eq!(err.kind, ErrorKind::LockReentry);
        assert!(err.message.contains("line 3"), "{err}");
        assert_eq!(blocked_on(&reg, 4), None, "re-entry never enters the slow path");
        assert_eq!(reg.cells[0].waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn different_names_are_independent() {
        let reg = registry(&["a", "b"]);
        assert!(reg.try_acquire(0, 0, 1, 0).unwrap());
        assert!(reg.try_acquire(1, 1, 2, 0).unwrap());
        assert!(!reg.try_acquire(1, 0, 3, 0).unwrap(), "a is held by thread 0");
        assert_eq!((reg.owner(0), reg.owner(1)), (Some(0), Some(1)));
    }

    #[test]
    fn contended_acquire_blocks_until_release() {
        let reg = Arc::new(registry(&["a"]));
        reg.acquire(0, 0, 1, 0).unwrap();
        let (tx, rx) = mpsc::channel();
        let reg2 = Arc::clone(&reg);
        let t = std::thread::spawn(move || {
            reg2.acquire(1, 0, 5, 0).unwrap();
            tx.send(()).unwrap();
            reg2.release(1, 0);
        });
        // The waiter must not get through while we hold the lock.
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        reg.release(0, 0);
        rx.recv_timeout(Duration::from_secs(5)).expect("waiter ran");
        t.join().unwrap();
        assert_eq!(reg.contention_stats(), (2, 1));
    }

    #[test]
    fn contention_stats_sum_across_cells() {
        let reg = Arc::new(registry(&["a", "b", "c"]));
        for (lock, times) in [(0, 3), (1, 2), (2, 1)] {
            for _ in 0..times {
                reg.acquire(0, lock, 1, 0).unwrap();
                reg.release(0, lock);
            }
        }
        // One blocked acquisition of `b`.
        reg.acquire(0, 1, 1, 0).unwrap();
        let reg2 = Arc::clone(&reg);
        let t = std::thread::spawn(move || {
            reg2.acquire(1, 1, 2, 0).unwrap();
            reg2.release(1, 1);
        });
        wait_until_blocked(&reg, 1);
        reg.release(0, 1);
        t.join().unwrap();
        assert_eq!(reg.contention_stats(), (8, 1));
    }

    #[test]
    fn two_lock_deadlock_is_detected() {
        // Thread 0 holds a and wants b; thread 1 holds b and wants a. Both
        // first locks are taken on the fast path.
        let reg = Arc::new(registry(&["a", "b"]));
        assert!(reg.try_acquire(0, 0, 1, 0).unwrap());
        let reg2 = Arc::clone(&reg);
        let (started_tx, started_rx) = mpsc::channel();
        let t = std::thread::spawn(move || {
            assert!(reg2.try_acquire(1, 1, 2, 0).unwrap());
            started_tx.send(()).unwrap();
            // Blocks (0 holds a) but is not itself a deadlock yet; once
            // thread 0's acquire of b errors out and releases a, we get it.
            reg2.acquire(1, 0, 3, 0)
        });
        started_rx.recv().unwrap();
        wait_until_blocked(&reg, 1);
        let err = reg.acquire(0, 1, 9, 0).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Deadlock);
        assert_eq!(err.line, 9);
        assert_eq!(
            err.message,
            "deadlock: thread 0 waits for lock `b`, which is held by a thread where \
             thread 1 waits for lock `a` — completing a cycle"
        );
        // Recover: release a so thread 1 can finish.
        reg.release(0, 0);
        t.join().unwrap().unwrap();
        reg.release(1, 0);
        reg.release(1, 1);
        assert_eq!(reg.contention_stats(), (3, 1));
    }

    #[test]
    fn three_lock_deadlock_is_detected() {
        // Thread i holds lock i (fast path) and wants lock (i + 1) % 3.
        let reg = Arc::new(registry(&["a", "b", "c"]));
        for tid in 0..3 {
            assert!(reg.try_acquire(tid, tid as usize, tid + 1, 0).unwrap());
        }
        let mut waiters = Vec::new();
        for tid in 1..3u32 {
            let reg2 = Arc::clone(&reg);
            waiters.push(std::thread::spawn(move || {
                let want = (tid as usize + 1) % 3;
                reg2.acquire(tid, want, 10 + tid, 0)?;
                reg2.release(tid, want);
                Ok::<(), RuntimeError>(())
            }));
            wait_until_blocked(&reg, tid);
        }
        let err = reg.acquire(0, 1, 20, 0).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Deadlock);
        assert_eq!(
            err.message,
            "deadlock: thread 0 waits for lock `b`, which is held by a thread where \
             thread 1 waits for lock `c`, which is held by a thread where \
             thread 2 waits for lock `a` — completing a cycle"
        );
        // Unwind the cycle: 0 gives up a, so 2 gets a and finishes, then
        // releases c for 1.
        reg.release(0, 0);
        reg.release(2, 2);
        waiters.pop().unwrap().join().unwrap().unwrap();
        reg.release(1, 1);
        waiters.pop().unwrap().join().unwrap().unwrap();
        assert_eq!(reg.contention_stats(), (5, 2));
    }

    #[test]
    fn detection_can_be_disabled() {
        let reg = Arc::new(registry(&["a", "b"]));
        reg.set_detection(false);
        reg.acquire(0, 0, 1, 0).unwrap();
        // Re-entry stays an error even with detection off: it is *always*
        // a self-deadlock with no observer to break it.
        let err = reg.acquire(0, 0, 2, 0).unwrap_err();
        assert_eq!(err.kind, ErrorKind::LockReentry);
        // A real two-thread deadlock now blocks both sides.
        let reg1 = Arc::clone(&reg);
        let (tx, rx) = mpsc::channel();
        let t = std::thread::spawn(move || {
            reg1.acquire(1, 1, 3, 0).unwrap();
            let r = reg1.acquire(1, 0, 4, 0);
            tx.send(()).unwrap();
            r.unwrap();
            reg1.release(1, 0);
            reg1.release(1, 1);
        });
        wait_until_blocked(&reg, 1);
        let reg0 = Arc::clone(&reg);
        let stuck = std::thread::spawn(move || reg0.acquire(0, 1, 5, 0));
        wait_until_blocked(&reg, 0);
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err(), "both sides block");
        // Break it from outside, as the debugger's user would by stopping
        // the program: hand `a` over by releasing thread 0's hold.
        reg.release(0, 0);
        rx.recv_timeout(Duration::from_secs(5)).expect("thread 1 got a");
        t.join().unwrap();
        stuck.join().unwrap().unwrap();
        reg.release(0, 1);
    }

    #[test]
    fn blocked_thread_is_in_the_wait_for_graph() {
        let reg = Arc::new(registry(&["m"]));
        reg.acquire(0, 0, 1, 0).unwrap();
        let reg2 = Arc::clone(&reg);
        let t = std::thread::spawn(move || {
            reg2.acquire(7, 0, 2, 0).unwrap();
            reg2.release(7, 0);
        });
        wait_until_blocked(&reg, 7);
        assert_eq!(blocked_on(&reg, 7), Some(0));
        assert_eq!(reg.cells[0].waiters.load(Ordering::SeqCst), 1);
        reg.release(0, 0);
        t.join().unwrap();
        assert_eq!(blocked_on(&reg, 7), None);
        assert_eq!(reg.cells[0].waiters.load(Ordering::SeqCst), 0);
    }

    /// Hammer one cell from many threads: the lock must exclude (the
    /// counter's read-modify-write is deliberately not atomic) and no
    /// release may miss a sleeper (a lost wake-up hangs, so the test runs
    /// under a timeout).
    #[test]
    fn lost_wakeup_stress() {
        const THREADS: u32 = 8;
        const ROUNDS: u64 = 20_000;
        let reg = Arc::new(registry(&["counter"]));
        let counter = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        let mut workers = Vec::new();
        for tid in 0..THREADS {
            let (reg, counter, tx) = (Arc::clone(&reg), Arc::clone(&counter), tx.clone());
            workers.push(std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    reg.acquire(tid, 0, 1, 0).unwrap();
                    let seen = counter.load(Ordering::Relaxed);
                    std::thread::yield_now();
                    counter.store(seen + 1, Ordering::Relaxed);
                    reg.release(tid, 0);
                }
                tx.send(()).unwrap();
            }));
        }
        for _ in 0..THREADS {
            rx.recv_timeout(Duration::from_secs(120)).expect("a waiter was never woken");
        }
        workers.into_iter().for_each(|w| w.join().unwrap());
        assert_eq!(counter.load(Ordering::Relaxed), THREADS as u64 * ROUNDS);
        let (total, contended) = reg.contention_stats();
        assert_eq!(total, THREADS as u64 * ROUNDS);
        assert!(contended <= total);
        assert_eq!(reg.cells[0].waiters.load(Ordering::SeqCst), 0);
    }
}
