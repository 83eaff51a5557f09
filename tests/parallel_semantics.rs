//! Integration tests for the semantics of the four parallel constructs
//! (paper §II and §IV), exercised through the public API.

use std::sync::Arc;
use tetra::{BufferConsole, InterpConfig, Tetra, VmConfig};

fn run(src: &str) -> String {
    let p = Tetra::compile(src).unwrap_or_else(|e| panic!("{}", e.render()));
    let (out, _) = p.run_captured(&[]).unwrap_or_else(|e| panic!("{e}"));
    out
}

#[test]
fn parallel_joins_before_continuing() {
    // The statement after the parallel block must observe every child's
    // effects — "the program will then wait for all n statements to finish
    // before moving on" (§II).
    let src = "\
def slow_set(a [int], i int, v int):
    sleep(10)
    a[i] = v

def main():
    a = [0, 0, 0]
    parallel:
        slow_set(a, 0, 1)
        slow_set(a, 1, 2)
        slow_set(a, 2, 3)
    print(a)
";
    assert_eq!(run(src), "[1, 2, 3]\n");
}

#[test]
fn background_does_not_block_the_parent() {
    // The parent runs on while the background thread waits; with
    // join-on-exit the background output still appears. The background
    // thread waits (bounded) for the flag the parent sets after its
    // print, so the order of the two prints does not depend on how fast
    // either thread is scheduled. Each statement of a `background:` block
    // is a thread of its own, so the wait and the print are one call.
    let src = "\
def announce_after(flag [bool]):
    waited = 0
    while not flag[0] and waited < 5000:
        sleep(5)
        waited += 5
    print(\"background done\")

def main():
    flag = [false]
    t0 = time_ms()
    background:
        announce_after(flag)
    elapsed = time_ms() - t0
    assert elapsed < 100, \"background: block must not join\"
    print(\"parent continues\")
    flag[0] = true
";
    let out = run(src);
    let parent_pos = out.find("parent continues").expect("parent printed");
    let bg_pos = out.find("background done").expect("background joined at exit");
    assert!(parent_pos < bg_pos, "parent must print first:\n{out}");
}

#[test]
fn parallel_for_runs_every_iteration_exactly_once() {
    let src = "\
def main():
    hits = fill(100, 0)
    parallel for i in [0 ... 99]:
        hits[i] += 1
    ok = true
    for h in hits:
        if h != 1:
            ok = false
    print(ok)
";
    assert_eq!(run(src), "true\n");
}

#[test]
fn parallel_for_worker_count_is_configurable() {
    let src = "\
def main():
    parallel for i in [1 ... 32]:
        pass
";
    let p = Tetra::compile(src).unwrap();
    for workers in [1usize, 2, 8] {
        let console = BufferConsole::new();
        let stats = p
            .run_with(InterpConfig { worker_threads: workers, ..InterpConfig::default() }, console)
            .unwrap();
        assert_eq!(stats.threads_spawned, 1 + workers.min(32) as u32, "workers={workers}");
    }
}

#[test]
fn induction_variable_does_not_leak_between_workers() {
    // Each worker keeps a private copy (§IV); concurrent workers must not
    // see each other's induction values. We check that the recorded value
    // for each slot equals its own index.
    let src = "\
def main():
    seen = fill(64, -1)
    parallel for i in [0 ... 63]:
        sleep(1)
        seen[i] = i
    ok = true
    j = 0
    while j < 64:
        if seen[j] != j:
            ok = false
        j += 1
    print(ok)
";
    assert_eq!(run(src), "true\n");
}

#[test]
fn shared_frame_writes_are_visible_across_threads() {
    // Fig. II's core property, distilled.
    let src = "\
def main():
    parallel:
        x = 10
        y = 20
        z = 30
    print(x + y + z)
";
    assert_eq!(run(src), "60\n");
}

#[test]
fn locks_serialize_compound_updates() {
    let src = "\
def main():
    counter = 0
    parallel for i in [1 ... 500]:
        lock guard:
            counter += 1
    print(counter)
";
    assert_eq!(run(src), "500\n");
}

#[test]
fn different_lock_names_do_not_exclude_each_other() {
    // Two counters under two different locks — both must be exact, and the
    // program must finish quickly (no accidental global serialization).
    let src = "\
def main():
    a = 0
    b = 0
    parallel for i in [1 ... 200]:
        lock la:
            a += 1
        lock lb:
            b += 1
    print(a, \" \", b)
";
    assert_eq!(run(src), "200 200\n");
}

#[test]
fn lock_released_on_error_path() {
    // A child thread errors inside a lock block; main must still be able
    // to take the same lock afterwards (via a second run of the program
    // logic — here: the error propagates but the registry was released).
    let src = "\
def main():
    failed = false
    parallel:
        boom()
    print(\"unreachable\")

def boom():
    lock m:
        x = 1 / 0
";
    let p = Tetra::compile(src).unwrap();
    let err = p.run_captured(&[]).unwrap_err();
    assert_eq!(err.kind, tetra::runtime::ErrorKind::DivideByZero);
}

#[test]
fn nested_parallelism_composes() {
    let src = "\
def quadrant(m [[int]], r int, base int):
    parallel:
        m[r][0] = base
        m[r][1] = base + 1

def main():
    m = [[0, 0], [0, 0]]
    parallel:
        quadrant(m, 0, 10)
        quadrant(m, 1, 20)
    print(m)
";
    assert_eq!(run(src), "[[10, 11], [20, 21]]\n");
}

#[test]
fn parallel_for_over_computed_sequences() {
    let src = "\
def main():
    rows = [[1, 2], [3, 4], [5, 6]]
    sums = fill(3, 0)
    parallel for r in [0 ... 2]:
        sums[r] = rows[r][0] + rows[r][1]
    print(sums)
";
    assert_eq!(run(src), "[3, 7, 11]\n");
}

#[test]
fn thread_id_builtin_distinguishes_threads() {
    let src = "\
def main():
    ids = fill(4, -1)
    parallel for i in [0 ... 3]:
        ids[i] = thread_id()
    sort(ids)
    distinct = 1
    j = 1
    while j < 4:
        if ids[j] != ids[j - 1]:
            distinct += 1
        j += 1
    print(distinct > 1)
";
    let p = Tetra::compile(src).unwrap();
    let console = BufferConsole::new();
    p.run_with(InterpConfig { worker_threads: 4, ..InterpConfig::default() }, console.clone())
        .unwrap();
    assert_eq!(console.output(), "true\n");
}

#[test]
fn gil_mode_preserves_semantics() {
    let src = "\
def main():
    total = 0
    parallel for i in [1 ... 300]:
        lock t:
            total += i
    print(total)
";
    // The GIL is the simulator's cost model (experiment E8): it may slow
    // the workers down, never change what they compute.
    let p = Tetra::compile(src).unwrap();
    let console = BufferConsole::new();
    let cost = tetra::vm::CostModel { gil: true, ..Default::default() };
    p.simulate_with(VmConfig { workers: 4, cost, ..VmConfig::default() }, console.clone()).unwrap();
    assert_eq!(console.output(), "45150\n");
}

#[test]
fn detect_deadlocks_can_be_disabled_for_teaching() {
    // With detection off, the two-lock program really deadlocks; we only
    // verify the configuration plumbing here by NOT running that program,
    // but asserting re-entry remains an error (it has no observer to break
    // it) while the config knob exists.
    let src = "def main():\n    lock a:\n        lock a:\n            pass\n";
    let p = Tetra::compile(src).unwrap();
    let console = BufferConsole::new();
    let err = p
        .run_with(InterpConfig { detect_deadlocks: false, ..InterpConfig::default() }, console)
        .unwrap_err();
    assert_eq!(err.kind, tetra::runtime::ErrorKind::LockReentry);
}

#[test]
fn background_threads_can_outlive_the_function_that_spawned_them() {
    let src = "\
def launch(a [int]):
    background:
        set_later(a)

def set_later(a [int]):
    sleep(30)
    a[0] = 42

def main():
    a = [0]
    launch(a)
    print(\"launched\")
";
    // `run` joins background threads when main returns, so it waits for
    // the writer before returning.
    let p = Tetra::compile(src).unwrap();
    let console = BufferConsole::new();
    p.run_with(InterpConfig::default(), Arc::clone(&console) as _).unwrap();
    assert_eq!(console.output(), "launched\n");
}
