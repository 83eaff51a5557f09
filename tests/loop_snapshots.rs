//! Loop item snapshots. A `for` or `parallel for` copies its items at
//! loop entry and roots the copy by reference, one entry per loop: a safe
//! region taken inside the loop publishes O(loop nesting) roots, not
//! O(items). These tests pin three things: a loop that blocks every
//! iteration stays linear, items the loop has not reached yet stay alive
//! when the snapshot is their only holder, and the snapshot dies when the
//! loop ends.

use std::time::{Duration, Instant};
use tetra::runtime::HeapConfig;
use tetra::{BufferConsole, InterpConfig, Tetra, VmConfig};

fn compile(src: &str) -> Tetra {
    Tetra::compile(src).unwrap_or_else(|e| panic!("{}", e.render()))
}

/// Run `src` and assert it prints `expected` within the time budget for
/// this build (2 s release, 30 s debug).
fn assert_runs_within_budget(src: &str, expected: &str, what: &str) {
    let p = compile(src);
    let budget =
        if cfg!(debug_assertions) { Duration::from_secs(30) } else { Duration::from_secs(2) };
    let start = Instant::now();
    let (out, _) = p.run_captured(&[]).unwrap_or_else(|e| panic!("{e}"));
    let took = start.elapsed();
    assert_eq!(out, expected);
    assert!(took < budget, "{what} took {took:?}");
}

/// `sleep(0)` enters a GC safe region, which publishes the thread's roots,
/// every iteration. The 300,000 strings are rooted through the loop's one
/// snapshot entry, so the loop is linear.
#[test]
fn a_blocking_for_loop_over_strings_runs_in_linear_time() {
    let src = "\
def main():
    n = 300000
    names = fill(n, \"\")
    i = 0
    while i < n:
        names[i] = \"n\" + str(i)
        i += 1
    total = 0
    for s in names:
        sleep(0)
        total += len(s)
    print(total)
";
    let total: usize = (0..300_000).map(|i| 1 + i.to_string().len()).sum();
    assert_runs_within_budget(src, &format!("{total}\n"), "300000 blocking string iterations");
}

#[test]
fn a_blocking_for_loop_over_a_range_runs_in_linear_time() {
    let src = "\
def main():
    x = 0
    for i in [1 ... 300000]:
        sleep(0)
        x += 1
    print(x)
";
    assert_runs_within_budget(src, "300000\n", "300000 blocking range iterations");
}

/// Each item is `k:k²`. Every iteration overwrites two *other* entries of
/// `arr` with fresh strings and allocates, so an item the loop has not
/// reached yet is held by the snapshot alone. Under collect-on-every-
/// allocation an unrooted item would be freed and its slot reused, and
/// the `k:k²` check or the index sum would break.
///
/// Both loops iterate `arr` itself: a loop iterates the items its
/// sequence held at entry, on both engines, so the overwrites change what
/// later iterations find in `arr` but never which items they get. The
/// `parallel for` body uses names of its own, since a name `main` assigned
/// earlier would be shared by the workers.
const SNAPSHOT_ROOTING: &str = "\
def refill(arr [string]):
    i = 0
    while i < len(arr):
        arr[i] = str(i) + \":\" + str(i * i)
        i += 1

def main():
    n = 48
    arr = fill(n, \"\")
    refill(arr)
    seq = 0
    seq_ok = 0
    for s in arr:
        parts = split(s, \":\")
        k = int(parts[0])
        arr[(k + 1) % n] = \"fresh\" + str(k)
        arr[(k + 5) % n] = \"fresh\" + str(k)
        junk = [s + \"!\", str(k * 3)]
        seq += k
        if int(parts[1]) == k * k and len(junk) == 2:
            seq_ok += 1
    refill(arr)
    par = 0
    par_ok = 0
    parallel for t in arr:
        tparts = split(t, \":\")
        tk = int(tparts[0])
        arr[(tk + 1) % n] = \"fresh\" + str(tk)
        arr[(tk + 5) % n] = \"fresh\" + str(tk)
        tjunk = [t + \"!\", str(tk * 3)]
        lock tally:
            par += tk
            if int(tparts[1]) == tk * tk and len(tjunk) == 2:
                par_ok += 1
    print(seq, \" \", seq_ok, \" \", par, \" \", par_ok)
";

#[test]
fn snapshot_items_stay_rooted_under_gc_stress() {
    let p = compile(SNAPSHOT_ROOTING);
    let expected = "1128 48 1128 48\n";
    let stress = HeapConfig { stress: true, ..HeapConfig::default() };
    for workers in [1, 2] {
        let console = BufferConsole::new();
        let config =
            InterpConfig { worker_threads: workers, gc: stress.clone(), ..Default::default() };
        let stats = p.run_with(config, console.clone()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(console.output(), expected, "interpreter at T={workers}");
        assert!(stats.gc.collections > 100, "stress mode must collect: {:?}", stats.gc);
    }
    let console = BufferConsole::new();
    let config = VmConfig { gc: stress, ..VmConfig::default() };
    p.simulate_with(config, console.clone()).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(console.output(), expected, "simulator");
}

/// A `parallel for` over 200 strings whose array is then dropped: after
/// `gc()` nothing of the loop is live, neither the items nor a worker's
/// last `t`. The simulator's workers let go of the loop's feed when they
/// finish, as the interpreter's loop drops its snapshot.
const RETAIN: &str = "\
def main():
    big = fill(0, \"\")
    i = 0
    while i < 200:
        append(big, \"s\" + str(i))
        i += 1
    parallel for s in big:
        t = s + \"!\"
    big = fill(0, \"\")
    gc()
    print(len(big))
";

#[test]
fn a_finished_loop_leaves_nothing_live_on_either_engine() {
    let p = compile(RETAIN);
    for workers in [1, 4] {
        let console = BufferConsole::new();
        let config = InterpConfig { worker_threads: workers, ..Default::default() };
        let interp = p.run_with(config, console.clone()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(console.output(), "0\n");
        for dynamic_chunking in [true, false] {
            let console = BufferConsole::new();
            let config = VmConfig { workers, dynamic_chunking, ..VmConfig::default() };
            let sim = p.simulate_with(config, console.clone()).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(console.output(), "0\n");
            assert_eq!(
                sim.gc.live_objects, interp.gc.live_objects,
                "T={workers}, dynamic chunking {dynamic_chunking}: simulator {:?}, interpreter {:?}",
                sim.gc, interp.gc
            );
        }
    }
}
