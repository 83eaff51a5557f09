//! The `lock` statement's two paths. An uncontended acquisition is one
//! compare-and-swap with no GC safe region; a thread that must block
//! publishes its roots and its waiting lock first. These tests pin what
//! each path owes the rest of the system: GC roots while blocked, the
//! debugger's thread pane, and linear cost for a long locked loop.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use tetra::debugger::Debugger;
use tetra::runtime::{HeapConfig, ThreadState};
use tetra::{BufferConsole, InterpConfig, Tetra, VmConfig};

fn compile(src: &str) -> Tetra {
    Tetra::compile(src).unwrap_or_else(|e| panic!("{}", e.render()))
}

/// Every iteration allocates `mine` before the lock and reads it after: a
/// thread blocked on `m` keeps it only through the roots it published,
/// while the holder allocates and, under stress, collects on every
/// allocation.
const BLOCKED_ROOTS: &str = "\
def main():
    total = 0
    parallel for i in [1 ... 40]:
        mine = [i, i * 2, i * 3]
        lock m:
            s = \"\"
            for k in [1 ... 20]:
                s = s + \"x\"
            total += len(s) + mine[0] + mine[1] + mine[2]
    print(total)
";

#[test]
fn a_blocked_thread_keeps_its_roots_while_the_holder_collects() {
    let p = Arc::new(compile(BLOCKED_ROOTS));
    let console = BufferConsole::new();
    p.simulate_with(VmConfig::default(), console.clone()).unwrap_or_else(|e| panic!("{e}"));
    let expected = console.output();
    assert_eq!(expected, "5720\n");
    let stress = HeapConfig { stress: true, ..HeapConfig::default() };
    for workers in [1, 2] {
        let console = BufferConsole::new();
        let config =
            InterpConfig { worker_threads: workers, gc: stress.clone(), ..InterpConfig::default() };
        // A waiter outside a safe region would stall the holder's
        // collection forever: fail on a timeout instead of hanging.
        let (tx, rx) = mpsc::channel();
        let (p, out) = (Arc::clone(&p), console.clone());
        let runner = std::thread::spawn(move || {
            let _ = tx.send(p.run_with(config, out));
        });
        let stats = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("T={workers}: the run hung"))
            .unwrap_or_else(|e| panic!("{e}"));
        runner.join().expect("the runner thread returns");
        assert_eq!(console.output(), expected, "T={workers}");
        assert!(stats.gc.collections > 0, "T={workers}: stress mode must collect");
        assert_eq!(stats.lock_acquisitions.0, 40, "T={workers}");
    }
}

/// Whichever arm takes `m` first pauses at its breakpoint inside the lock;
/// the other blocks on `m`.
const HOLD_AND_WAIT: &str = "\
def main():
    x = 0
    parallel:
        lock m:
            x += 1
        lock m:
            x += 2
    print(x)
";

#[test]
fn thread_pane_shows_the_lock_a_blocked_thread_waits_for() {
    let p = compile(HOLD_AND_WAIT);
    let dbg = Debugger::new(false);
    dbg.set_breakpoint(5);
    dbg.set_breakpoint(7);
    let console = BufferConsole::new();
    let interp = Arc::new(p.debug(InterpConfig::default(), console.clone(), dbg.clone()));
    let runner = {
        let interp = Arc::clone(&interp);
        std::thread::spawn(move || interp.run())
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    let blocked = loop {
        let snapshot = interp.thread_snapshot();
        if let Some(t) = snapshot.into_iter().find(|t| t.state == ThreadState::WaitingLock) {
            break t;
        }
        assert!(Instant::now() < deadline, "no thread ever blocked on `m`");
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(blocked.waiting_lock.as_deref(), Some("m"));
    let pane = blocked.describe();
    assert!(pane.contains("waiting on lock `m`"), "{pane}");
    // The holder is the one paused at a breakpoint.
    let paused = dbg.paused();
    assert_eq!(paused.len(), 1, "exactly the holder is paused");
    assert_ne!(paused[0].thread, blocked.id);
    dbg.clear_breakpoint(5);
    dbg.clear_breakpoint(7);
    dbg.resume_all();
    runner.join().unwrap().unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(console.output(), "3\n");
    assert!(interp.thread_snapshot().iter().all(|t| t.waiting_lock.is_none()));
}

/// An uncontended `lock` enters no safe region, so it does not republish
/// the loop's rooted item snapshot: a long locked loop stays linear.
#[test]
fn a_long_locked_for_loop_runs_in_linear_time() {
    let src = "\
def main():
    x = 0
    for i in [1 ... 300000]:
        lock m:
            x += 1
    print(x)
";
    let p = compile(src);
    let budget =
        if cfg!(debug_assertions) { Duration::from_secs(30) } else { Duration::from_secs(2) };
    let start = Instant::now();
    let (out, stats) = p.run_captured(&[]).unwrap_or_else(|e| panic!("{e}"));
    let took = start.elapsed();
    assert_eq!(out, "300000\n");
    assert_eq!(stats.lock_acquisitions, (300_000, 0));
    assert!(took < budget, "300000 locked iterations took {took:?}");
}
