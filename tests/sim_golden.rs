//! Golden table for the deterministic VM simulator.
//!
//! Every row pins one simulated run exactly: the program's output plus
//! the virtual time, instruction count, threads created, contended lock
//! waits and the GC's collection/allocation/freed/live-object counts.
//! The simulator's scheduler may change *how* it interleaves threads on
//! the host, but never the schedule it models, so any scheduler change
//! must leave every row identical to the unit.
//!
//! The grid is every deterministic example (all but `montecarlo_pi`,
//! whose `random()` is unseeded, and `retry_input`, which loops on stdin)
//! plus small programs aimed at the scheduler's edge cases, each at
//! T ∈ {1, 2, 4, 8} under the default cost model, the GIL model and
//! static chunking.

use tetra::vm::CostModel;
use tetra::{BufferConsole, HeapConfig, Tetra, VmConfig};

/// A `background:` child reads a parent local while the parent updates it
/// in a scalar loop: the child's sum is exactly the interleaving.
const BACKGROUND_RACE: &str = "\
def main():
    x = 0
    seen = 0
    k = 0
    background:
        while k < 40:
            seen += x
            k += 1
    i = 0
    while i < 300:
        x += 1
        i += 1
    sleep(1)
    print(\"child saw \", seen, \", parent counted \", x)
";

/// The first arm holds `n` through a long scalar loop while the second
/// arm holds `m` and waits for `n`, and the third waits for `m`: the first
/// arm ends up the only runnable thread mid-loop.
const LOCK_DRAIN: &str = "\
def spin(n int) int:
    s = 0
    i = 0
    while i < n:
        s += i
        i += 1
    return s

def main():
    total = 0
    parallel:
        lock n:
            total += spin(2000)
        lock m:
            k = spin(20)
            lock n:
                total += k
        lock m:
            total += 1
    print(total)
";

/// Every iteration allocates an array and two strings and appends under a
/// contended lock. It runs twice: with the heap collecting on every
/// allocation, and with a tiny adaptive threshold, where the collection
/// count depends on how much is still reachable at each collection.
const ALLOC_FOR: &str = "\
def main():
    out = fill(0, 0)
    parallel for i in [1 ... 60]:
        pair = [i, i * 2]
        label = \"item \" + str(i)
        lock out:
            append(out, pair[1] + len(label))
    total = 0
    for v in out:
        total += v
    print(len(out), \" \", total)
";

/// Workers drop their only reference to a large array by overwriting a
/// local, then run a scalar loop while other workers allocate. Run with a
/// tiny adaptive threshold, the collection count depends on exactly when
/// each array became garbage.
const DROP_STORE: &str = "\
def work(i int) int:
    big = fill(40, i)
    small = [i]
    j = 0
    while j < 10:
        j += 1
    big = small
    k = 0
    while k < 10:
        k += 1
    label = str(i) + \"!\"
    return len(big) + len(label)

def main():
    total = 0
    parallel for i in [1 ... 80]:
        n = work(i)
        lock t:
            total += n
    print(total)
";

const MODES: [&str; 3] = ["default", "gil", "static"];
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Programs in the grid: (name, source, heap configuration).
fn programs() -> Vec<(String, String, HeapConfig)> {
    let mut out: Vec<(String, String, HeapConfig)> = tetra_suite::example_names()
        .into_iter()
        .filter(|n| n != "montecarlo_pi.tet" && n != "retry_input.tet")
        .map(|n| {
            let src = tetra_suite::example_source(&n);
            (n, src, HeapConfig::default())
        })
        .collect();
    out.push(("background_race".into(), BACKGROUND_RACE.into(), HeapConfig::default()));
    out.push(("lock_drain".into(), LOCK_DRAIN.into(), HeapConfig::default()));
    let stress = HeapConfig { stress: true, ..HeapConfig::default() };
    out.push(("alloc_for_stress".into(), ALLOC_FOR.into(), stress));
    let small = HeapConfig { initial_threshold: 512, min_threshold: 512, ..HeapConfig::default() };
    out.push(("alloc_for_small_heap".into(), ALLOC_FOR.into(), small.clone()));
    out.push(("drop_store".into(), DROP_STORE.into(), small));
    out
}

/// Simulate one grid point and render it as a golden row.
fn row(name: &str, src: &str, gc: &HeapConfig, threads: usize, mode: &str) -> String {
    let program = Tetra::compile(src).unwrap_or_else(|e| panic!("{name}:\n{}", e.render()));
    let config = VmConfig {
        workers: threads,
        dynamic_chunking: mode != "static",
        cost: CostModel { gil: mode == "gil", ..CostModel::default() },
        gc: gc.clone(),
    };
    // `factorial` reads one integer; nothing else reads input.
    let console = BufferConsole::with_input(&["10"]);
    let result = program.simulate_with(config, console.clone());
    let head = format!("{name} T={threads} {mode}");
    match result {
        Ok(s) => format!(
            "{head} ve={} ins={} thr={} lc={} gc={}/{} freed={} live={} out={:?}",
            s.virtual_elapsed,
            s.instructions,
            s.threads,
            s.lock_contentions,
            s.gc.collections,
            s.gc.allocations,
            s.gc.objects_freed,
            s.gc.live_objects,
            console.output()
        ),
        Err(e) => format!("{head} err={:?} out={:?}", e.to_string(), console.output()),
    }
}

fn observed_rows(filter: &impl Fn(&str) -> bool) -> Vec<String> {
    let mut rows = Vec::new();
    for (name, src, gc) in programs().into_iter().filter(|(n, _, _)| filter(n)) {
        for threads in THREADS {
            for mode in MODES {
                rows.push(row(&name, &src, &gc, threads, mode));
            }
        }
    }
    rows
}

/// Compare the observed rows of the selected programs with the table.
fn check(filter: impl Fn(&str) -> bool) {
    let expected: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty())
        .filter(|l| filter(l.split(' ').next().unwrap_or("")))
        .collect();
    let observed = observed_rows(&filter);
    assert_eq!(observed.len(), expected.len(), "grid and golden table differ in size");
    let diffs: Vec<String> = expected
        .iter()
        .zip(&observed)
        .filter(|(e, o)| **e != o.as_str())
        .map(|(e, o)| format!("expected {e}\n     got {o}"))
        .collect();
    assert!(diffs.is_empty(), "{} golden row(s) differ:\n{}", diffs.len(), diffs.join("\n"));
}

#[test]
fn primes_matches_golden_table() {
    check(|name| name == "primes.tet");
}

#[test]
fn other_examples_match_golden_table() {
    check(|name| name.ends_with(".tet") && name != "primes.tet");
}

#[test]
fn scheduler_edge_cases_match_golden_table() {
    check(|name| !name.ends_with(".tet"));
}

/// Recorded from the per-instruction scheduler; one row per grid point.
const GOLDEN: &str = r#"
background_logger.tet T=1 default ve=401234 ins=278 thr=2 lc=1 gc=0/18 freed=0 live=18 out="events logged: true\n"
background_logger.tet T=1 gil ve=726921 ins=282 thr=2 lc=5 gc=0/18 freed=0 live=18 out="events logged: true\n"
background_logger.tet T=1 static ve=401234 ins=278 thr=2 lc=1 gc=0/18 freed=0 live=18 out="events logged: true\n"
background_logger.tet T=2 default ve=401234 ins=278 thr=2 lc=1 gc=0/18 freed=0 live=18 out="events logged: true\n"
background_logger.tet T=2 gil ve=726921 ins=282 thr=2 lc=5 gc=0/18 freed=0 live=18 out="events logged: true\n"
background_logger.tet T=2 static ve=401234 ins=278 thr=2 lc=1 gc=0/18 freed=0 live=18 out="events logged: true\n"
background_logger.tet T=4 default ve=401234 ins=278 thr=2 lc=1 gc=0/18 freed=0 live=18 out="events logged: true\n"
background_logger.tet T=4 gil ve=726921 ins=282 thr=2 lc=5 gc=0/18 freed=0 live=18 out="events logged: true\n"
background_logger.tet T=4 static ve=401234 ins=278 thr=2 lc=1 gc=0/18 freed=0 live=18 out="events logged: true\n"
background_logger.tet T=8 default ve=401234 ins=278 thr=2 lc=1 gc=0/18 freed=0 live=18 out="events logged: true\n"
background_logger.tet T=8 gil ve=726921 ins=282 thr=2 lc=5 gc=0/18 freed=0 live=18 out="events logged: true\n"
background_logger.tet T=8 static ve=401234 ins=278 thr=2 lc=1 gc=0/18 freed=0 live=18 out="events logged: true\n"
counter.tet T=1 default ve=8867 ins=1611 thr=2 lc=0 gc=0/1 freed=0 live=1 out="200\n"
counter.tet T=1 gil ve=8867 ins=1611 thr=2 lc=0 gc=0/1 freed=0 live=1 out="200\n"
counter.tet T=1 static ve=8867 ins=1611 thr=2 lc=0 gc=0/1 freed=0 live=1 out="200\n"
counter.tet T=2 default ve=7062 ins=1801 thr=3 lc=190 gc=0/1 freed=0 live=1 out="200\n"
counter.tet T=2 gil ve=9817 ins=1801 thr=3 lc=190 gc=0/1 freed=0 live=1 out="200\n"
counter.tet T=2 static ve=7148 ins=1792 thr=3 lc=181 gc=0/1 freed=0 live=1 out="200\n"
counter.tet T=4 default ve=7082 ins=2072 thr=5 lc=461 gc=0/1 freed=0 live=1 out="200\n"
counter.tet T=4 gil ve=11237 ins=2085 thr=5 lc=474 gc=0/1 freed=0 live=1 out="200\n"
counter.tet T=4 static ve=7149 ins=1935 thr=5 lc=324 gc=0/1 freed=0 live=1 out="200\n"
counter.tet T=8 default ve=7320 ins=2483 thr=9 lc=872 gc=0/1 freed=0 live=1 out="200\n"
counter.tet T=8 gil ve=13707 ins=2579 thr=9 lc=968 gc=0/1 freed=0 live=1 out="200\n"
counter.tet T=8 static ve=7147 ins=2077 thr=9 lc=466 gc=0/1 freed=0 live=1 out="200\n"
deadlock.tet T=1 default err="runtime error at line 12: deadlock: thread 2 waits for lock `a`, which is held by a thread where thread 1 waits for lock `b` — completing a cycle (deadlock detected)" out=""
deadlock.tet T=1 gil err="runtime error at line 12: deadlock: thread 2 waits for lock `a`, which is held by a thread where thread 1 waits for lock `b` — completing a cycle (deadlock detected)" out=""
deadlock.tet T=1 static err="runtime error at line 12: deadlock: thread 2 waits for lock `a`, which is held by a thread where thread 1 waits for lock `b` — completing a cycle (deadlock detected)" out=""
deadlock.tet T=2 default err="runtime error at line 12: deadlock: thread 2 waits for lock `a`, which is held by a thread where thread 1 waits for lock `b` — completing a cycle (deadlock detected)" out=""
deadlock.tet T=2 gil err="runtime error at line 12: deadlock: thread 2 waits for lock `a`, which is held by a thread where thread 1 waits for lock `b` — completing a cycle (deadlock detected)" out=""
deadlock.tet T=2 static err="runtime error at line 12: deadlock: thread 2 waits for lock `a`, which is held by a thread where thread 1 waits for lock `b` — completing a cycle (deadlock detected)" out=""
deadlock.tet T=4 default err="runtime error at line 12: deadlock: thread 2 waits for lock `a`, which is held by a thread where thread 1 waits for lock `b` — completing a cycle (deadlock detected)" out=""
deadlock.tet T=4 gil err="runtime error at line 12: deadlock: thread 2 waits for lock `a`, which is held by a thread where thread 1 waits for lock `b` — completing a cycle (deadlock detected)" out=""
deadlock.tet T=4 static err="runtime error at line 12: deadlock: thread 2 waits for lock `a`, which is held by a thread where thread 1 waits for lock `b` — completing a cycle (deadlock detected)" out=""
deadlock.tet T=8 default err="runtime error at line 12: deadlock: thread 2 waits for lock `a`, which is held by a thread where thread 1 waits for lock `b` — completing a cycle (deadlock detected)" out=""
deadlock.tet T=8 gil err="runtime error at line 12: deadlock: thread 2 waits for lock `a`, which is held by a thread where thread 1 waits for lock `b` — completing a cycle (deadlock detected)" out=""
deadlock.tet T=8 static err="runtime error at line 12: deadlock: thread 2 waits for lock `a`, which is held by a thread where thread 1 waits for lock `b` — completing a cycle (deadlock detected)" out=""
factorial.tet T=1 default ve=673 ins=129 thr=1 lc=0 gc=0/2 freed=0 live=2 out="enter n: \n10! = 3628800\n"
factorial.tet T=1 gil ve=673 ins=129 thr=1 lc=0 gc=0/2 freed=0 live=2 out="enter n: \n10! = 3628800\n"
factorial.tet T=1 static ve=673 ins=129 thr=1 lc=0 gc=0/2 freed=0 live=2 out="enter n: \n10! = 3628800\n"
factorial.tet T=2 default ve=673 ins=129 thr=1 lc=0 gc=0/2 freed=0 live=2 out="enter n: \n10! = 3628800\n"
factorial.tet T=2 gil ve=673 ins=129 thr=1 lc=0 gc=0/2 freed=0 live=2 out="enter n: \n10! = 3628800\n"
factorial.tet T=2 static ve=673 ins=129 thr=1 lc=0 gc=0/2 freed=0 live=2 out="enter n: \n10! = 3628800\n"
factorial.tet T=4 default ve=673 ins=129 thr=1 lc=0 gc=0/2 freed=0 live=2 out="enter n: \n10! = 3628800\n"
factorial.tet T=4 gil ve=673 ins=129 thr=1 lc=0 gc=0/2 freed=0 live=2 out="enter n: \n10! = 3628800\n"
factorial.tet T=4 static ve=673 ins=129 thr=1 lc=0 gc=0/2 freed=0 live=2 out="enter n: \n10! = 3628800\n"
factorial.tet T=8 default ve=673 ins=129 thr=1 lc=0 gc=0/2 freed=0 live=2 out="enter n: \n10! = 3628800\n"
factorial.tet T=8 gil ve=673 ins=129 thr=1 lc=0 gc=0/2 freed=0 live=2 out="enter n: \n10! = 3628800\n"
factorial.tet T=8 static ve=673 ins=129 thr=1 lc=0 gc=0/2 freed=0 live=2 out="enter n: \n10! = 3628800\n"
matmul.tet T=1 default ve=276887 ins=52503 thr=2 lc=0 gc=0/57 freed=0 live=57 out="checksum: 27338\n"
matmul.tet T=1 gil ve=276887 ins=52503 thr=2 lc=0 gc=0/57 freed=0 live=57 out="checksum: 27338\n"
matmul.tet T=1 static ve=276887 ins=52503 thr=2 lc=0 gc=0/57 freed=0 live=57 out="checksum: 27338\n"
matmul.tet T=2 default ve=164796 ins=52503 thr=3 lc=0 gc=0/57 freed=0 live=57 out="checksum: 27338\n"
matmul.tet T=2 gil ve=276887 ins=52503 thr=3 lc=0 gc=0/57 freed=0 live=57 out="checksum: 27338\n"
matmul.tet T=2 static ve=164796 ins=52503 thr=3 lc=0 gc=0/57 freed=0 live=57 out="checksum: 27338\n"
matmul.tet T=4 default ve=112008 ins=52503 thr=5 lc=0 gc=0/57 freed=0 live=57 out="checksum: 27338\n"
matmul.tet T=4 gil ve=276887 ins=52503 thr=5 lc=0 gc=0/57 freed=0 live=57 out="checksum: 27338\n"
matmul.tet T=4 static ve=112008 ins=52503 thr=5 lc=0 gc=0/57 freed=0 live=57 out="checksum: 27338\n"
matmul.tet T=8 default ve=108031 ins=52503 thr=9 lc=0 gc=0/57 freed=0 live=57 out="checksum: 27338\n"
matmul.tet T=8 gil ve=276887 ins=52503 thr=9 lc=0 gc=0/57 freed=0 live=57 out="checksum: 27338\n"
matmul.tet T=8 static ve=106306 ins=52503 thr=7 lc=0 gc=0/57 freed=0 live=57 out="checksum: 27338\n"
mergesort.tet T=1 default ve=430289 ins=221485 thr=15 lc=0 gc=0/403 freed=0 live=403 out="sorted: true, first: 0, last: 995\n"
mergesort.tet T=1 gil ve=1131121 ins=221485 thr=15 lc=0 gc=0/403 freed=0 live=403 out="sorted: true, first: 0, last: 995\n"
mergesort.tet T=1 static ve=430289 ins=221485 thr=15 lc=0 gc=0/403 freed=0 live=403 out="sorted: true, first: 0, last: 995\n"
mergesort.tet T=2 default ve=430289 ins=221485 thr=15 lc=0 gc=0/403 freed=0 live=403 out="sorted: true, first: 0, last: 995\n"
mergesort.tet T=2 gil ve=1131121 ins=221485 thr=15 lc=0 gc=0/403 freed=0 live=403 out="sorted: true, first: 0, last: 995\n"
mergesort.tet T=2 static ve=430289 ins=221485 thr=15 lc=0 gc=0/403 freed=0 live=403 out="sorted: true, first: 0, last: 995\n"
mergesort.tet T=4 default ve=430289 ins=221485 thr=15 lc=0 gc=0/403 freed=0 live=403 out="sorted: true, first: 0, last: 995\n"
mergesort.tet T=4 gil ve=1131121 ins=221485 thr=15 lc=0 gc=0/403 freed=0 live=403 out="sorted: true, first: 0, last: 995\n"
mergesort.tet T=4 static ve=430289 ins=221485 thr=15 lc=0 gc=0/403 freed=0 live=403 out="sorted: true, first: 0, last: 995\n"
mergesort.tet T=8 default ve=430289 ins=221485 thr=15 lc=0 gc=0/403 freed=0 live=403 out="sorted: true, first: 0, last: 995\n"
mergesort.tet T=8 gil ve=1131121 ins=221485 thr=15 lc=0 gc=0/403 freed=0 live=403 out="sorted: true, first: 0, last: 995\n"
mergesort.tet T=8 static ve=430289 ins=221485 thr=15 lc=0 gc=0/403 freed=0 live=403 out="sorted: true, first: 0, last: 995\n"
parallel_max.tet T=1 default ve=818 ins=79 thr=2 lc=0 gc=0/1 freed=0 live=1 out="96\n"
parallel_max.tet T=1 gil ve=818 ins=79 thr=2 lc=0 gc=0/1 freed=0 live=1 out="96\n"
parallel_max.tet T=1 static ve=818 ins=79 thr=2 lc=0 gc=0/1 freed=0 live=1 out="96\n"
parallel_max.tet T=2 default ve=938 ins=69 thr=3 lc=0 gc=0/1 freed=0 live=1 out="96\n"
parallel_max.tet T=2 gil ve=938 ins=69 thr=3 lc=0 gc=0/1 freed=0 live=1 out="96\n"
parallel_max.tet T=2 static ve=969 ins=79 thr=3 lc=0 gc=0/1 freed=0 live=1 out="96\n"
parallel_max.tet T=4 default ve=1738 ins=79 thr=5 lc=0 gc=0/1 freed=0 live=1 out="96\n"
parallel_max.tet T=4 gil ve=1738 ins=79 thr=5 lc=0 gc=0/1 freed=0 live=1 out="96\n"
parallel_max.tet T=4 static ve=1338 ins=79 thr=4 lc=0 gc=0/1 freed=0 live=1 out="96\n"
parallel_max.tet T=8 default ve=2138 ins=79 thr=6 lc=0 gc=0/1 freed=0 live=1 out="96\n"
parallel_max.tet T=8 gil ve=2138 ins=79 thr=6 lc=0 gc=0/1 freed=0 live=1 out="96\n"
parallel_max.tet T=8 static ve=2138 ins=79 thr=6 lc=0 gc=0/1 freed=0 live=1 out="96\n"
parallel_sum.tet T=1 default ve=4814 ins=1557 thr=3 lc=0 gc=0/1 freed=0 live=1 out="5050\n"
parallel_sum.tet T=1 gil ve=8312 ins=1557 thr=3 lc=0 gc=0/1 freed=0 live=1 out="5050\n"
parallel_sum.tet T=1 static ve=4814 ins=1557 thr=3 lc=0 gc=0/1 freed=0 live=1 out="5050\n"
parallel_sum.tet T=2 default ve=4814 ins=1557 thr=3 lc=0 gc=0/1 freed=0 live=1 out="5050\n"
parallel_sum.tet T=2 gil ve=8312 ins=1557 thr=3 lc=0 gc=0/1 freed=0 live=1 out="5050\n"
parallel_sum.tet T=2 static ve=4814 ins=1557 thr=3 lc=0 gc=0/1 freed=0 live=1 out="5050\n"
parallel_sum.tet T=4 default ve=4814 ins=1557 thr=3 lc=0 gc=0/1 freed=0 live=1 out="5050\n"
parallel_sum.tet T=4 gil ve=8312 ins=1557 thr=3 lc=0 gc=0/1 freed=0 live=1 out="5050\n"
parallel_sum.tet T=4 static ve=4814 ins=1557 thr=3 lc=0 gc=0/1 freed=0 live=1 out="5050\n"
parallel_sum.tet T=8 default ve=4814 ins=1557 thr=3 lc=0 gc=0/1 freed=0 live=1 out="5050\n"
parallel_sum.tet T=8 gil ve=8312 ins=1557 thr=3 lc=0 gc=0/1 freed=0 live=1 out="5050\n"
parallel_sum.tet T=8 static ve=4814 ins=1557 thr=3 lc=0 gc=0/1 freed=0 live=1 out="5050\n"
primes.tet T=1 default ve=15166384 ins=3033144 thr=2 lc=0 gc=0/5 freed=0 live=5 out="primes below 20000: 2262\n"
primes.tet T=1 gil ve=15166384 ins=3033144 thr=2 lc=0 gc=0/5 freed=0 live=5 out="primes below 20000: 2262\n"
primes.tet T=1 static ve=15166384 ins=3033144 thr=2 lc=0 gc=0/5 freed=0 live=5 out="primes below 20000: 2262\n"
primes.tet T=2 default ve=8014588 ins=3033144 thr=3 lc=0 gc=0/5 freed=0 live=5 out="primes below 20000: 2262\n"
primes.tet T=2 gil ve=15166384 ins=3033144 thr=3 lc=0 gc=0/5 freed=0 live=5 out="primes below 20000: 2262\n"
primes.tet T=2 static ve=8977425 ins=3033144 thr=3 lc=0 gc=0/5 freed=0 live=5 out="primes below 20000: 2262\n"
primes.tet T=4 default ve=4127059 ins=3033144 thr=5 lc=0 gc=0/5 freed=0 live=5 out="primes below 20000: 2262\n"
primes.tet T=4 gil ve=15166384 ins=3033144 thr=5 lc=0 gc=0/5 freed=0 live=5 out="primes below 20000: 2262\n"
primes.tet T=4 static ve=4730584 ins=3033144 thr=5 lc=0 gc=0/5 freed=0 live=5 out="primes below 20000: 2262\n"
primes.tet T=8 default ve=3175946 ins=3033144 thr=9 lc=0 gc=0/5 freed=0 live=5 out="primes below 20000: 2262\n"
primes.tet T=8 gil ve=15166384 ins=3033144 thr=9 lc=0 gc=0/5 freed=0 live=5 out="primes below 20000: 2262\n"
primes.tet T=8 static ve=3252743 ins=3033144 thr=9 lc=0 gc=0/5 freed=0 live=5 out="primes below 20000: 2262\n"
race.tet T=1 default ve=6867 ins=1211 thr=2 lc=0 gc=0/1 freed=0 live=1 out="200\n"
race.tet T=1 gil ve=6867 ins=1211 thr=2 lc=0 gc=0/1 freed=0 live=1 out="200\n"
race.tet T=1 static ve=6867 ins=1211 thr=2 lc=0 gc=0/1 freed=0 live=1 out="200\n"
race.tet T=2 default ve=3877 ins=1211 thr=3 lc=0 gc=0/1 freed=0 live=1 out="107\n"
race.tet T=2 gil ve=6867 ins=1211 thr=3 lc=0 gc=0/1 freed=0 live=1 out="107\n"
race.tet T=2 static ve=4069 ins=1211 thr=3 lc=0 gc=0/1 freed=0 live=1 out="113\n"
race.tet T=4 default ve=2801 ins=1211 thr=5 lc=0 gc=0/1 freed=0 live=1 out="85\n"
race.tet T=4 gil ve=6867 ins=1211 thr=5 lc=0 gc=0/1 freed=0 live=1 out="64\n"
race.tet T=4 static ve=3318 ins=1211 thr=5 lc=0 gc=0/1 freed=0 live=1 out="100\n"
race.tet T=8 default ve=3523 ins=1211 thr=9 lc=0 gc=0/1 freed=0 live=1 out="95\n"
race.tet T=8 gil ve=6867 ins=1211 thr=9 lc=0 gc=0/1 freed=0 live=1 out="57\n"
race.tet T=8 static ve=4069 ins=1211 thr=9 lc=0 gc=0/1 freed=0 live=1 out="113\n"
skewed.tet T=1 default ve=6721500 ins=1344124 thr=2 lc=0 gc=0/4 freed=0 live=4 out="skewed total: 111656896\n"
skewed.tet T=1 gil ve=6721500 ins=1344124 thr=2 lc=0 gc=0/4 freed=0 live=4 out="skewed total: 111656896\n"
skewed.tet T=1 static ve=6721500 ins=1344124 thr=2 lc=0 gc=0/4 freed=0 live=4 out="skewed total: 111656896\n"
skewed.tet T=2 default ve=3430691 ins=1344124 thr=3 lc=0 gc=0/4 freed=0 live=4 out="skewed total: 111656896\n"
skewed.tet T=2 gil ve=6721500 ins=1344124 thr=3 lc=0 gc=0/4 freed=0 live=4 out="skewed total: 111656896\n"
skewed.tet T=2 static ve=5860520 ins=1344124 thr=3 lc=0 gc=0/4 freed=0 live=4 out="skewed total: 111656896\n"
skewed.tet T=4 default ve=1795771 ins=1344124 thr=5 lc=0 gc=0/4 freed=0 live=4 out="skewed total: 111656896\n"
skewed.tet T=4 gil ve=6721500 ins=1344124 thr=5 lc=0 gc=0/4 freed=0 live=4 out="skewed total: 111656896\n"
skewed.tet T=4 static ve=3865818 ins=1344124 thr=5 lc=0 gc=0/4 freed=0 live=4 out="skewed total: 111656896\n"
skewed.tet T=8 default ve=1440420 ins=1344124 thr=9 lc=0 gc=0/4 freed=0 live=4 out="skewed total: 111656896\n"
skewed.tet T=8 gil ve=6721500 ins=1344124 thr=9 lc=0 gc=0/4 freed=0 live=4 out="skewed total: 111656896\n"
skewed.tet T=8 static ve=2282371 ins=1344124 thr=9 lc=0 gc=0/4 freed=0 live=4 out="skewed total: 111656896\n"
wordcount.tet T=1 default ve=2639 ins=462 thr=1 lc=0 gc=0/36 freed=0 live=36 out="brown: 1\ndog: 1\nfox: 2\njumps: 1\nlazy: 1\nover: 1\nquick: 1\nthe: 3\n"
wordcount.tet T=1 gil ve=2639 ins=462 thr=1 lc=0 gc=0/36 freed=0 live=36 out="brown: 1\ndog: 1\nfox: 2\njumps: 1\nlazy: 1\nover: 1\nquick: 1\nthe: 3\n"
wordcount.tet T=1 static ve=2639 ins=462 thr=1 lc=0 gc=0/36 freed=0 live=36 out="brown: 1\ndog: 1\nfox: 2\njumps: 1\nlazy: 1\nover: 1\nquick: 1\nthe: 3\n"
wordcount.tet T=2 default ve=2639 ins=462 thr=1 lc=0 gc=0/36 freed=0 live=36 out="brown: 1\ndog: 1\nfox: 2\njumps: 1\nlazy: 1\nover: 1\nquick: 1\nthe: 3\n"
wordcount.tet T=2 gil ve=2639 ins=462 thr=1 lc=0 gc=0/36 freed=0 live=36 out="brown: 1\ndog: 1\nfox: 2\njumps: 1\nlazy: 1\nover: 1\nquick: 1\nthe: 3\n"
wordcount.tet T=2 static ve=2639 ins=462 thr=1 lc=0 gc=0/36 freed=0 live=36 out="brown: 1\ndog: 1\nfox: 2\njumps: 1\nlazy: 1\nover: 1\nquick: 1\nthe: 3\n"
wordcount.tet T=4 default ve=2639 ins=462 thr=1 lc=0 gc=0/36 freed=0 live=36 out="brown: 1\ndog: 1\nfox: 2\njumps: 1\nlazy: 1\nover: 1\nquick: 1\nthe: 3\n"
wordcount.tet T=4 gil ve=2639 ins=462 thr=1 lc=0 gc=0/36 freed=0 live=36 out="brown: 1\ndog: 1\nfox: 2\njumps: 1\nlazy: 1\nover: 1\nquick: 1\nthe: 3\n"
wordcount.tet T=4 static ve=2639 ins=462 thr=1 lc=0 gc=0/36 freed=0 live=36 out="brown: 1\ndog: 1\nfox: 2\njumps: 1\nlazy: 1\nover: 1\nquick: 1\nthe: 3\n"
wordcount.tet T=8 default ve=2639 ins=462 thr=1 lc=0 gc=0/36 freed=0 live=36 out="brown: 1\ndog: 1\nfox: 2\njumps: 1\nlazy: 1\nover: 1\nquick: 1\nthe: 3\n"
wordcount.tet T=8 gil ve=2639 ins=462 thr=1 lc=0 gc=0/36 freed=0 live=36 out="brown: 1\ndog: 1\nfox: 2\njumps: 1\nlazy: 1\nover: 1\nquick: 1\nthe: 3\n"
wordcount.tet T=8 static ve=2639 ins=462 thr=1 lc=0 gc=0/36 freed=0 live=36 out="brown: 1\ndog: 1\nfox: 2\njumps: 1\nlazy: 1\nover: 1\nquick: 1\nthe: 3\n"
background_race T=1 default ve=25273 ins=4450 thr=2 lc=0 gc=0/2 freed=0 live=2 out="child saw 780, parent counted 300\n"
background_race T=1 gil ve=27906 ins=4450 thr=2 lc=0 gc=0/2 freed=0 live=2 out="child saw 780, parent counted 300\n"
background_race T=1 static ve=25273 ins=4450 thr=2 lc=0 gc=0/2 freed=0 live=2 out="child saw 780, parent counted 300\n"
background_race T=2 default ve=25273 ins=4450 thr=2 lc=0 gc=0/2 freed=0 live=2 out="child saw 780, parent counted 300\n"
background_race T=2 gil ve=27906 ins=4450 thr=2 lc=0 gc=0/2 freed=0 live=2 out="child saw 780, parent counted 300\n"
background_race T=2 static ve=25273 ins=4450 thr=2 lc=0 gc=0/2 freed=0 live=2 out="child saw 780, parent counted 300\n"
background_race T=4 default ve=25273 ins=4450 thr=2 lc=0 gc=0/2 freed=0 live=2 out="child saw 780, parent counted 300\n"
background_race T=4 gil ve=27906 ins=4450 thr=2 lc=0 gc=0/2 freed=0 live=2 out="child saw 780, parent counted 300\n"
background_race T=4 static ve=25273 ins=4450 thr=2 lc=0 gc=0/2 freed=0 live=2 out="child saw 780, parent counted 300\n"
background_race T=8 default ve=25273 ins=4450 thr=2 lc=0 gc=0/2 freed=0 live=2 out="child saw 780, parent counted 300\n"
background_race T=8 gil ve=27906 ins=4450 thr=2 lc=0 gc=0/2 freed=0 live=2 out="child saw 780, parent counted 300\n"
background_race T=8 static ve=25273 ins=4450 thr=2 lc=0 gc=0/2 freed=0 live=2 out="child saw 780, parent counted 300\n"
lock_drain T=1 default ve=130614 ins=26320 thr=4 lc=2 gc=0/0 freed=0 live=0 out="1999191\n"
lock_drain T=1 gil ve=132012 ins=26320 thr=4 lc=2 gc=0/0 freed=0 live=0 out="1999191\n"
lock_drain T=1 static ve=130614 ins=26320 thr=4 lc=2 gc=0/0 freed=0 live=0 out="1999191\n"
lock_drain T=2 default ve=130614 ins=26320 thr=4 lc=2 gc=0/0 freed=0 live=0 out="1999191\n"
lock_drain T=2 gil ve=132012 ins=26320 thr=4 lc=2 gc=0/0 freed=0 live=0 out="1999191\n"
lock_drain T=2 static ve=130614 ins=26320 thr=4 lc=2 gc=0/0 freed=0 live=0 out="1999191\n"
lock_drain T=4 default ve=130614 ins=26320 thr=4 lc=2 gc=0/0 freed=0 live=0 out="1999191\n"
lock_drain T=4 gil ve=132012 ins=26320 thr=4 lc=2 gc=0/0 freed=0 live=0 out="1999191\n"
lock_drain T=4 static ve=130614 ins=26320 thr=4 lc=2 gc=0/0 freed=0 live=0 out="1999191\n"
lock_drain T=8 default ve=130614 ins=26320 thr=4 lc=2 gc=0/0 freed=0 live=0 out="1999191\n"
lock_drain T=8 gil ve=132012 ins=26320 thr=4 lc=2 gc=0/0 freed=0 live=0 out="1999191\n"
lock_drain T=8 static ve=130614 ins=26320 thr=4 lc=2 gc=0/0 freed=0 live=0 out="1999191\n"
alloc_for_stress T=1 default ve=15756 ins=2548 thr=2 lc=0 gc=244/244 freed=241 live=3 out="60 4071\n"
alloc_for_stress T=1 gil ve=15756 ins=2548 thr=2 lc=0 gc=244/244 freed=241 live=3 out="60 4071\n"
alloc_for_stress T=1 static ve=15756 ins=2548 thr=2 lc=0 gc=244/244 freed=241 live=3 out="60 4071\n"
alloc_for_stress T=2 default ve=11906 ins=2548 thr=3 lc=0 gc=244/244 freed=241 live=3 out="60 4071\n"
alloc_for_stress T=2 gil ve=15756 ins=2548 thr=3 lc=0 gc=244/244 freed=241 live=3 out="60 4071\n"
alloc_for_stress T=2 static ve=12041 ins=2548 thr=3 lc=0 gc=244/244 freed=241 live=3 out="60 4071\n"
alloc_for_stress T=4 default ve=11992 ins=2639 thr=5 lc=91 gc=244/244 freed=241 live=3 out="60 4071\n"
alloc_for_stress T=4 gil ve=16241 ins=2645 thr=5 lc=97 gc=244/244 freed=241 live=3 out="60 4071\n"
alloc_for_stress T=4 static ve=12441 ins=2613 thr=5 lc=65 gc=244/244 freed=241 live=3 out="60 4071\n"
alloc_for_stress T=8 default ve=11816 ins=2759 thr=9 lc=211 gc=244/244 freed=241 live=3 out="60 4071\n"
alloc_for_stress T=8 gil ve=17016 ins=2800 thr=9 lc=252 gc=244/244 freed=241 live=3 out="60 4071\n"
alloc_for_stress T=8 static ve=11827 ins=2656 thr=9 lc=108 gc=244/244 freed=241 live=3 out="60 4071\n"
alloc_for_small_heap T=1 default ve=15756 ins=2548 thr=2 lc=0 gc=93/244 freed=241 live=3 out="60 4071\n"
alloc_for_small_heap T=1 gil ve=15756 ins=2548 thr=2 lc=0 gc=93/244 freed=241 live=3 out="60 4071\n"
alloc_for_small_heap T=1 static ve=15756 ins=2548 thr=2 lc=0 gc=93/244 freed=241 live=3 out="60 4071\n"
alloc_for_small_heap T=2 default ve=11906 ins=2548 thr=3 lc=0 gc=51/244 freed=241 live=3 out="60 4071\n"
alloc_for_small_heap T=2 gil ve=15756 ins=2548 thr=3 lc=0 gc=51/244 freed=241 live=3 out="60 4071\n"
alloc_for_small_heap T=2 static ve=12041 ins=2548 thr=3 lc=0 gc=51/244 freed=241 live=3 out="60 4071\n"
alloc_for_small_heap T=4 default ve=11992 ins=2639 thr=5 lc=91 gc=39/244 freed=241 live=3 out="60 4071\n"
alloc_for_small_heap T=4 gil ve=16241 ins=2645 thr=5 lc=97 gc=37/244 freed=241 live=3 out="60 4071\n"
alloc_for_small_heap T=4 static ve=12441 ins=2613 thr=5 lc=65 gc=48/244 freed=241 live=3 out="60 4071\n"
alloc_for_small_heap T=8 default ve=11816 ins=2759 thr=9 lc=211 gc=29/244 freed=241 live=3 out="60 4071\n"
alloc_for_small_heap T=8 gil ve=17016 ins=2800 thr=9 lc=252 gc=27/244 freed=241 live=3 out="60 4071\n"
alloc_for_small_heap T=8 static ve=11827 ins=2656 thr=9 lc=108 gc=35/244 freed=241 live=3 out="60 4071\n"
drop_store T=1 default ve=93027 ins=17851 thr=2 lc=0 gc=161/401 freed=396 live=5 out="311\n"
drop_store T=1 gil ve=93027 ins=17851 thr=2 lc=0 gc=161/401 freed=396 live=5 out="311\n"
drop_store T=1 static ve=93027 ins=17851 thr=2 lc=0 gc=161/401 freed=396 live=5 out="311\n"
drop_store T=2 default ve=48695 ins=17851 thr=3 lc=0 gc=162/401 freed=397 live=4 out="311\n"
drop_store T=2 gil ve=93027 ins=17851 thr=3 lc=0 gc=162/401 freed=397 live=4 out="311\n"
drop_store T=2 static ve=48695 ins=17851 thr=3 lc=0 gc=162/401 freed=397 live=4 out="311\n"
drop_store T=4 default ve=27121 ins=17852 thr=5 lc=1 gc=83/401 freed=388 live=13 out="311\n"
drop_store T=4 gil ve=93027 ins=17851 thr=5 lc=0 gc=74/401 freed=397 live=4 out="311\n"
drop_store T=4 static ve=27153 ins=17852 thr=5 lc=1 gc=83/401 freed=388 live=13 out="311\n"
drop_store T=8 default ve=22806 ins=17853 thr=9 lc=2 gc=39/401 freed=397 live=4 out="311\n"
drop_store T=8 gil ve=93027 ins=17851 thr=9 lc=0 gc=37/401 freed=393 live=8 out="311\n"
drop_store T=8 static ve=22991 ins=17853 thr=9 lc=2 gc=40/401 freed=397 live=4 out="311\n"
"#;
