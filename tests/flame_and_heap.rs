//! Flame-profiler and heap-profiler integration tests, plus the session
//! scoping they rely on: a session belongs to the thread that began it
//! and to the runs that thread starts, so these tests run in parallel.

use std::collections::BTreeSet;
use tetra::{BufferConsole, InterpConfig, Tetra, VmConfig};

fn compile(src: &str) -> Tetra {
    Tetra::compile(src).unwrap_or_else(|e| panic!("compile:\n{}", e.render()))
}

/// Nested calls plus a parallel for, so call paths have real depth and
/// spawned workers must inherit the spawning path.
const CALLS_SRC: &str = "\
def leaf(i int) int:
    return i * i

def mid(n int) int:
    s = 0
    i = 0
    while i < n:
        s += leaf(i)
        i += 1
    return s

def main():
    total = 0
    parallel for i in [1 ... 4]:
        lock t:
            total += mid(10)
    print(total)
";

fn interp_trace(src: &str) -> tetra::obs::session::Trace {
    let program = compile(src);
    tetra::obs::session::begin(tetra::obs::session::Config::default());
    let result = program.run_with(InterpConfig::default(), BufferConsole::with_input(&[]));
    let trace = tetra::obs::session::end();
    result.expect("interp run failed");
    trace
}

fn vm_trace(src: &str) -> tetra::obs::session::Trace {
    let program = compile(src);
    tetra::obs::session::begin(tetra::obs::session::Config::default());
    let result = program.simulate_with(VmConfig::default(), BufferConsole::with_input(&[]));
    let trace = tetra::obs::session::end();
    result.expect("vm run failed");
    trace
}

#[test]
fn folded_totals_match_line_self_time() {
    let trace = interp_trace(CALLS_SRC);
    let folded = tetra::obs::flame::folded(&trace);
    assert!(!folded.is_empty(), "no flame samples collected");
    // Every nanosecond of statement self-time lands in exactly one folded
    // stack: the two views are different aggregations of the same samples.
    let folded_total: u64 = folded.values().sum();
    let line_total: u64 =
        tetra::obs::profile::line_stats(&trace).values().map(|(_count, self_ns)| self_ns).sum();
    assert_eq!(folded_total, line_total, "folded stacks and line stats must sum identically");
}

#[test]
fn interp_and_vm_produce_the_same_call_paths() {
    let interp: BTreeSet<String> =
        tetra::obs::flame::folded(&interp_trace(CALLS_SRC)).into_keys().collect();
    let vm: BTreeSet<String> =
        tetra::obs::flame::folded(&vm_trace(CALLS_SRC)).into_keys().collect();
    assert!(!interp.is_empty() && !vm.is_empty());
    // Counts differ (wall time vs virtual dispatch), but the *set* of call
    // paths is engine-independent: same program, same shadow stacks.
    assert_eq!(interp, vm, "engines disagree on the set of collapsed stacks");
    for path in ["main", "main;mid", "main;mid;leaf"] {
        assert!(interp.contains(path), "missing path {path} in {interp:?}");
    }
}

#[test]
fn heap_profile_attributes_sites_by_call_path() {
    let src = "\
def churn(n int) int:
    s = 0
    i = 0
    while i < n:
        t = fill(40, i)
        s += t[0]
        i += 1
    return s

def main():
    keep = fill(2000, 7)
    print(churn(50))
    print(keep[0])
";
    let program = compile(src);
    tetra::obs::session::begin(tetra::obs::session::Config::default());
    // Stress GC so a census (live-after-last-GC) is guaranteed to run.
    let mut cfg = InterpConfig::default();
    cfg.gc.stress = true;
    let result = program.run_with(cfg, BufferConsole::with_input(&[]));
    let trace = tetra::obs::session::end();
    result.expect("interp run failed");

    assert!(!trace.heap.is_empty(), "no allocation sites recorded");
    let churn_site = trace
        .heap
        .sites
        .iter()
        .find(|s| s.path(&trace.names) == "main;churn")
        .expect("no site attributed to main;churn");
    assert!(churn_site.allocs >= 50, "churn loop allocations undercounted: {churn_site:?}");
    // `keep` is allocated in main and stays live across every collection.
    let live_in_main =
        trace.heap.sites.iter().any(|s| s.path(&trace.names) == "main" && s.live_bytes > 0);
    assert!(live_in_main, "long-lived allocation in main has no live bytes: {:?}", trace.heap);
    // The rendered section names sites as function:line.
    let report = tetra::obs::profile::report(&trace, None);
    assert!(report.contains("heap allocation sites"), "{report}");
    assert!(report.contains("churn:"), "{report}");
}

#[test]
fn lock_contention_is_attributed_to_call_paths() {
    let trace = interp_trace(CALLS_SRC);
    let report = tetra::obs::profile::report(&trace, None);
    assert!(report.contains("lock contention by call path"), "{report}");
    // The `lock t:` sits directly in the parallel-for body, which runs
    // under the spawning path — `main`.
    let section = report.split("lock contention by call path").nth(1).unwrap_or("");
    assert!(section.contains("main"), "lock path missing from: {report}");
    // And the hot-path section names the deepest call chain.
    assert!(report.contains("hot paths"), "{report}");
    assert!(report.contains("main;mid;leaf") || report.contains("main;mid"), "{report}");
}

/// Per-thread instruction counts of `primes.tet` simulated at T=4 (main,
/// then the four `parallel for` workers), recorded from a scheduler that
/// emitted one dispatch event per instruction whenever several threads
/// were runnable.
const PRIMES_T4_THREAD_INSTRUCTIONS: [u64; 5] = [328, 649282, 759787, 799029, 824718];

/// Instructions executed ahead of the virtual clock are reported once, by
/// the dispatch event of the quantum that ran them: the dispatch counts
/// add up to `SimStats.instructions` per thread and in total.
#[test]
fn vm_dispatch_counts_sum_to_sim_instructions() {
    let program = compile(&tetra_suite::example_source("primes.tet"));
    let config = tetra::obs::session::Config { events_per_thread: 1 << 18, ..Default::default() };
    tetra::obs::session::begin(config);
    let config = VmConfig { workers: 4, ..VmConfig::default() };
    let result = program.simulate_with(config, BufferConsole::with_input(&[]));
    let trace = tetra::obs::session::end();
    let stats = result.expect("vm run failed");
    assert_eq!(trace.dropped_events, 0, "the ring must hold every dispatch event");
    let mut per_thread = [0u64; 5];
    for e in &trace.events {
        if e.kind == tetra::obs::event::EventKind::VmDispatch {
            per_thread[e.tid as usize] += e.a as u64;
        }
    }
    assert_eq!(per_thread.iter().sum::<u64>(), stats.instructions);
    assert_eq!(per_thread, PRIMES_T4_THREAD_INSTRUCTIONS);
}

/// Interpreter side of [`concurrent_sessions_each_see_only_their_own_run`]:
/// allocation and a contended lock, so GC and lock metrics both fire.
const SESSION_A_SRC: &str = "\
def bump(n int) int:
    return n + 1

def main():
    total = 0
    parallel for i in [1 ... 8]:
        t = [i, i * i]
        lock counter:
            total = bump(total) + t[0] - i
    print(total)
";

/// Simulator side: different functions and a different lock name.
const SESSION_B_SRC: &str = "\
def square(n int) int:
    return n * n

def main():
    s = 0
    parallel for i in [1 ... 6]:
        t = [i]
        lock acc:
            s += square(t[0])
    print(s)
";

/// Names of the locks a trace's lock events refer to.
fn lock_names(trace: &tetra::obs::session::Trace) -> BTreeSet<String> {
    use tetra::obs::event::EventKind;
    trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::LockWait | EventKind::LockHold))
        .map(|e| trace.name(e.a).to_string())
        .collect()
}

fn count_kind(trace: &tetra::obs::session::Trace, kind: tetra::obs::event::EventKind) -> usize {
    trace.events.iter().filter(|e| e.kind == kind).count()
}

fn histogram_count(trace: &tetra::obs::session::Trace, name: &str) -> u64 {
    trace.metrics.histograms.get(name).map_or(0, |h| h.count)
}

/// Two threads hold sessions at once, one observing an interpreter run
/// and one a simulator run: each trace holds exactly its own run.
#[test]
fn concurrent_sessions_each_see_only_their_own_run() {
    use std::sync::{Arc, Barrier};
    use tetra::obs::event::EventKind;
    let began = Arc::new(Barrier::new(2));
    let a_ended = Arc::new(Barrier::new(2));

    let (b_began, b_after_a) = (began.clone(), a_ended.clone());
    let b = std::thread::spawn(move || {
        let program = compile(SESSION_B_SRC);
        b_began.wait();
        tetra::obs::session::begin(tetra::obs::session::Config::default());
        b_began.wait();
        let mut cfg = VmConfig { workers: 3, ..VmConfig::default() };
        cfg.gc.stress = true;
        let result = program.simulate_with(cfg, BufferConsole::with_input(&[]));
        b_after_a.wait();
        (tetra::obs::session::end(), result.expect("vm run failed"))
    });

    let program = compile(SESSION_A_SRC);
    tetra::obs::session::begin(tetra::obs::session::Config::default());
    began.wait();
    began.wait();
    let mut cfg = InterpConfig { worker_threads: 4, ..InterpConfig::default() };
    cfg.gc.stress = true;
    let console = BufferConsole::with_input(&[]);
    let a_stats = program.run_with(cfg, console.clone()).expect("interp run failed");
    let a = tetra::obs::session::end();
    a_ended.wait();
    let (b, b_stats) = b.join().expect("session B thread panicked");
    assert_eq!(console.output(), "8\n");

    // A: interpreter events only, naming its own lock, functions and
    // threads; its metrics count exactly its own run.
    assert_eq!(count_kind(&a, EventKind::VmDispatch), 0, "A holds simulator events");
    assert!(count_kind(&a, EventKind::Stmt) > 0, "A lost its statements");
    assert_eq!(lock_names(&a), BTreeSet::from(["counter".to_string()]));
    let a_paths: BTreeSet<String> = tetra::obs::flame::folded(&a).into_keys().collect();
    assert_eq!(a_paths, BTreeSet::from(["main".to_string(), "main;bump".to_string()]));
    assert_eq!(count_kind(&a, EventKind::ThreadSpan), a_stats.threads_spawned as usize);
    assert_eq!(histogram_count(&a, "lock.wait_ns"), a_stats.lock_acquisitions.0);
    assert_eq!(histogram_count(&a, "gc.pause_ns"), a_stats.gc.collections);
    assert!(a_stats.gc.collections > 0, "stress mode must collect: {:?}", a_stats.gc);

    // B: simulator events only, likewise, and no interpreter pool.
    assert_eq!(count_kind(&b, EventKind::Stmt), 0, "B holds interpreter statements");
    assert!(count_kind(&b, EventKind::VmDispatch) > 0, "B lost its dispatch events");
    assert_eq!(lock_names(&b), BTreeSet::from(["acc".to_string()]));
    let b_paths: BTreeSet<String> = tetra::obs::flame::folded(&b).into_keys().collect();
    assert_eq!(b_paths, BTreeSet::from(["main".to_string(), "main;square".to_string()]));
    assert_eq!(count_kind(&b, EventKind::ThreadSpan), b_stats.threads as usize);
    assert_eq!(histogram_count(&b, "lock.wait_ns"), 6, "one wait per `lock acc:` entry");
    assert_eq!(histogram_count(&b, "gc.pause_ns"), b_stats.gc.collections);
    assert!(b_stats.gc.collections > 0, "stress mode must collect: {:?}", b_stats.gc);
    let pool: Vec<&String> = b.metrics.counters.keys().filter(|k| k.starts_with("pool.")).collect();
    assert!(pool.is_empty(), "the simulator has no pool, yet B holds {pool:?}");
}
