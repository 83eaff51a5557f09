//! A panic inside interpreter code that a pool thread runs must fail the
//! run with `ErrorKind::ThreadError`, never hang it. The panic is injected
//! by a debug hook that panics before one statement: inside a pooled
//! `parallel for` range, inside a contended `lock` body (threads parked on
//! the lock must be woken) and inside a `parallel:` arm, each at one and
//! two workers.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use tetra::interp::hooks::{DebugHook, HookDecision, HookPoint};
use tetra::runtime::ErrorKind;
use tetra::{BufferConsole, InterpConfig, Tetra};

/// Panics on the `nth` execution (counting from 0) of line `line`.
struct PanicAt {
    line: u32,
    nth: u32,
    hits: AtomicU32,
}

impl DebugHook for PanicAt {
    fn on_statement(&self, point: &HookPoint<'_>) -> HookDecision {
        if point.line == self.line && self.hits.fetch_add(1, Ordering::Relaxed) == self.nth {
            panic!("injected panic before line {}", self.line);
        }
        HookDecision::Continue
    }
}

/// Run `src` at `workers` workers with a panic injected at `line`, and
/// return the error kind, failing if the run takes more than 10 s.
fn run_with_panic(src: &str, line: u32, workers: usize) -> ErrorKind {
    let p = Tetra::compile(src).unwrap_or_else(|e| panic!("{}", e.render()));
    let hook = Arc::new(PanicAt { line, nth: 20, hits: AtomicU32::new(0) });
    let config = InterpConfig { worker_threads: workers, ..InterpConfig::default() };
    let interp = p.debug(config, BufferConsole::new(), hook);
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(interp.run().map(|_| ()));
    });
    let kind = match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(Err(e)) => e.kind,
        Ok(Ok(())) => panic!("T={workers}: the run succeeded despite the panic at line {line}"),
        Err(_) => panic!("T={workers}: the run hung after a panic at line {line}"),
    };
    runner.join().expect("the runner thread returns");
    kind
}

const RANGE: &str = "\
def main():
    total = 0
    parallel for i in [1 ... 200]:
        sq = i * i
    print(total)
";

const LOCK_BODY: &str = "\
def main():
    x = 0
    parallel for i in [1 ... 200]:
        lock m:
            x += 1
    print(x)
";

const PARALLEL_ARM: &str = "\
def main():
    x = 0
    parallel:
        for i in [1 ... 100]:
            lock m:
                x += 1
        for j in [1 ... 100]:
            lock m:
                x += 2
    print(x)
";

#[test]
fn panic_in_a_pooled_range_fails_the_run() {
    for workers in [1, 2] {
        assert_eq!(run_with_panic(RANGE, 4, workers), ErrorKind::ThreadError, "T={workers}");
    }
}

#[test]
fn panic_in_a_contended_lock_body_fails_the_run() {
    for workers in [1, 2] {
        assert_eq!(run_with_panic(LOCK_BODY, 5, workers), ErrorKind::ThreadError, "T={workers}");
    }
}

#[test]
fn panic_in_a_parallel_arm_fails_the_run() {
    for workers in [1, 2] {
        assert_eq!(run_with_panic(PARALLEL_ARM, 6, workers), ErrorKind::ThreadError, "T={workers}");
    }
}
