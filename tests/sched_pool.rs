//! Scheduler-pool integration tests: differentials against independent
//! references (the pool must never change program output), and
//! nested-construct no-deadlock regressions, plus steal engagement on a
//! skewed loop, checked through both `RunStats.pool` and the published
//! obs counters.

use proptest::prelude::*;
use std::sync::mpsc;
use std::time::Duration;
use tetra::{programs, BufferConsole, InterpConfig, RunStats, Tetra, VmConfig};

fn compile(src: &str) -> Tetra {
    Tetra::compile(src).unwrap_or_else(|e| panic!("compile:\n{}", e.render()))
}

/// Run under the interpreter on a pool of `threads` workers, returning the
/// program output and the run stats (which carry the pool counters).
fn run_interp(src: &str, threads: usize) -> (String, RunStats) {
    let program = compile(src);
    let console = BufferConsole::new();
    let cfg = InterpConfig { worker_threads: threads, ..InterpConfig::default() };
    let stats = program.run_with(cfg, console.clone()).unwrap_or_else(|e| panic!("run: {e}"));
    (console.output(), stats)
}

fn run_sim(src: &str, workers: usize, dynamic_chunking: bool) -> String {
    let console = BufferConsole::new();
    let cfg = VmConfig { workers, dynamic_chunking, ..VmConfig::default() };
    compile(src).simulate_with(cfg, console.clone()).unwrap_or_else(|e| panic!("sim: {e}"));
    console.output()
}

/// Outputs the pooled interpreter at `threads` workers must reproduce: the
/// VM simulator with guided and with static chunking at the same worker
/// count, and the interpreter on a single worker.
fn references(src: &str, threads: usize) -> [(&'static str, String); 3] {
    [
        ("vm dynamic chunking", run_sim(src, threads, true)),
        ("vm static chunking", run_sim(src, threads, false)),
        ("interp T=1", run_interp(src, 1).0),
    ]
}

/// Deterministic fixed programs whose pooled output must match every
/// reference.
#[test]
fn pool_agrees_with_references_on_fixed_corpus() {
    let corpus: Vec<String> = vec![
        programs::skewed(32),
        programs::locked_counter(200),
        programs::primes(500, 16),
        programs::FIG3_PARALLEL_MAX.to_string(),
        // An empty-range loop and a single-item loop (pool edge cases).
        "def main():\n    parallel for i in [1 ... 0]:\n        print(i)\n    print(\"done\")\n"
            .into(),
        "def main():\n    s = 0\n    parallel for i in [41]:\n        s = i + 1\n    print(s)\n"
            .into(),
    ];
    for src in &corpus {
        let (pooled, _) = run_interp(src, 4);
        for (label, expected) in references(src, 4) {
            assert_eq!(pooled, expected, "pooled T=4 differs from {label} for:\n{src}");
        }
    }
}

#[test]
fn parallel_arms_beyond_the_worker_count_all_complete() {
    // Six arms on a two-worker pool: arms are threads semantically, so the
    // pool must escalate rather than queue them behind each other. Each
    // arm sleeps while holding its slot, so two-at-a-time execution would
    // take >300ms; mostly we care that it terminates with all effects.
    let src = "\
def main():
    hits = fill(6, 0)
    parallel:
        hits[0] = 1
        hits[1] = 1
        hits[2] = 1
        hits[3] = 1
        hits[4] = 1
        hits[5] = 1
    total = 0
    for h in hits:
        total += h
    print(total)
";
    let (out, _) = run_interp(src, 2);
    assert_eq!(out, "6\n");
}

#[test]
fn contending_arms_on_a_tiny_pool_all_run() {
    // Three arms contending on one lock with a ONE-worker pool: the two
    // arms beyond the pool's capacity must be escalated to spare threads
    // (not queued behind a blocked worker), or the lock handoffs — and the
    // deadlock-cycle detection exercised in tests/failure_injection.rs —
    // could never involve all arms at once.
    let src = "\
def main():
    stage = 0
    parallel:
        lock m:
            sleep(5)
            stage += 1
        lock m:
            sleep(5)
            stage += 1
        lock m:
            sleep(5)
            stage += 1
    print(stage)
";
    let (out, _) = run_interp(src, 1);
    assert_eq!(out, "3\n");
}

#[test]
fn nested_parallel_for_does_not_deadlock_the_pool() {
    // A parallel for inside a parallel for, on a small pool: the inner
    // submitters are pool workers, which must lend themselves as workers
    // (help-first) instead of parking. Run under a watchdog so a deadlock
    // fails the test instead of hanging the suite.
    let src = "\
def main():
    total = 0
    parallel for i in [1 ... 4]:
        parallel for j in [1 ... 8]:
            lock t:
                total += i * 10 + j
    print(total)
";
    let (tx, rx) = mpsc::channel();
    let src_owned = src.to_string();
    std::thread::spawn(move || {
        let (out, stats) = run_interp(&src_owned, 2);
        let _ = tx.send((out, stats));
    });
    let (out, stats) =
        rx.recv_timeout(Duration::from_secs(60)).expect("nested parallel for deadlocked the pool");
    // sum over i of (8*10*i + 36) = 80*(1+2+3+4) + 4*36 = 944.
    assert_eq!(out, "944\n");
    assert!(stats.pool.tasks_executed > 0);
}

#[test]
fn nested_parallel_arms_inside_parallel_for_complete() {
    let src = "\
def main():
    total = 0
    parallel for i in [1 ... 3]:
        parallel:
            lock t:
                total += i
            lock t:
                total += i
    print(total)
";
    let (tx, rx) = mpsc::channel();
    let src_owned = src.to_string();
    std::thread::spawn(move || {
        let _ = tx.send(run_interp(&src_owned, 2));
    });
    let (out, _) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("nested parallel: inside parallel for deadlocked");
    assert_eq!(out, "12\n");
}

#[test]
fn skewed_workload_engages_stealing_and_balances() {
    let src = programs::skewed(64);
    let program = Tetra::compile(&src).unwrap_or_else(|e| panic!("compile:\n{}", e.render()));
    tetra::obs::session::begin(tetra::obs::session::Config { metrics: true, ..Default::default() });
    let console = BufferConsole::new();
    let cfg = InterpConfig { worker_threads: 4, ..InterpConfig::default() };
    let stats = program.run_with(cfg, console.clone()).expect("skewed run");
    let trace = tetra::obs::session::end();

    // The last seeded range holds the quadratically heaviest items, so the
    // early-finishing workers must have stolen from it (or the helper must
    // have pitched in): the loop cannot have run as four static chunks.
    assert!(
        stats.pool.steals + stats.pool.submitter_tasks > 0,
        "no rebalancing on a 10x-skewed loop: {:?}",
        stats.pool
    );
    assert!(stats.pool.tasks_executed > 4, "ranges never split: {:?}", stats.pool);
    assert!(stats.pool.range_splits > 0, "adaptive splitting never ran: {:?}", stats.pool);

    // The same engagement must be visible to `tetra profile` through the
    // published obs counters.
    let tasks = trace.metrics.counters.get("pool.tasks").copied().unwrap_or(0);
    assert_eq!(tasks, stats.pool.tasks_executed, "obs counter mismatch");
    let steals = trace.metrics.counters.get("pool.steals").copied().unwrap_or(0);
    let submitter = trace.metrics.counters.get("pool.submitter_tasks").copied().unwrap_or(0);
    assert_eq!(steals + submitter, stats.pool.steals + stats.pool.submitter_tasks);

    // And the answer must still be right: the VM simulator with static
    // chunking is an independent reference.
    let expected = BufferConsole::new();
    let cfg = VmConfig { workers: 4, dynamic_chunking: false, ..VmConfig::default() };
    program.simulate_with(cfg, expected.clone()).expect("vm static");
    assert_eq!(console.output(), expected.output());
}

// ---------------------------------------------------------------------------
// Generated differential corpus: the pool must be invisible in program
// output. The generator mirrors tests/engine_fuzz.rs in miniature —
// deterministic arithmetic bodies run inside parallel constructs.

#[derive(Debug, Clone)]
enum MiniStmt {
    Assign(usize, i64),
    AddAssign(usize, i64),
    AddLoopVar(usize),
    ForLoop(i64, Vec<MiniStmt>),
}

fn var_name(i: usize) -> &'static str {
    ["a", "b", "c"][i % 3]
}

fn mini_stmt() -> BoxedStrategy<MiniStmt> {
    let leaf = prop_oneof![
        (0usize..3, -9i64..9).prop_map(|(v, k)| MiniStmt::Assign(v, k)),
        (0usize..3, -9i64..9).prop_map(|(v, k)| MiniStmt::AddAssign(v, k)),
        (0usize..3).prop_map(MiniStmt::AddLoopVar),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        (1i64..4, prop::collection::vec(inner, 1..3))
            .prop_map(|(n, body)| MiniStmt::ForLoop(n, body))
            .boxed()
    })
    .boxed()
}

fn render(stmts: &[MiniStmt], indent: usize, out: &mut String) {
    let pad = "    ".repeat(indent);
    if stmts.is_empty() {
        out.push_str(&format!("{pad}pass\n"));
        return;
    }
    for s in stmts {
        match s {
            MiniStmt::Assign(v, k) => out.push_str(&format!("{pad}{} = {}\n", var_name(*v), k)),
            MiniStmt::AddAssign(v, k) => out.push_str(&format!("{pad}{} += {}\n", var_name(*v), k)),
            MiniStmt::AddLoopVar(v) => out.push_str(&format!("{pad}{} += w\n", var_name(*v))),
            MiniStmt::ForLoop(n, body) => {
                out.push_str(&format!("{pad}for k in [1 ... {n}]:\n"));
                render(body, indent + 1, out);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated bodies inside a single-item `parallel for` (deterministic
    /// output): the pooled interpreter must print what every reference does.
    #[test]
    fn generated_parallel_bodies_agree_with_references(
        stmts in prop::collection::vec(mini_stmt(), 1..5)
    ) {
        let mut body = String::new();
        render(&stmts, 2, &mut body);
        let src = format!(
            "def main():\n    a = 1\n    b = 2\n    c = 3\n    \
             parallel for w in [7]:\n{body}    print(a, \" \", b, \" \", c)\n"
        );
        let (pooled, _) = run_interp(&src, 4);
        for (label, expected) in references(&src, 4) {
            prop_assert_eq!(&pooled, &expected, "pool differs from {} for:\n{}", label, src);
        }
    }

    /// Order-independent accumulation over many items: every chunking —
    /// pool at T=3 and T=1, VM dynamic or static — must reach the same sum.
    #[test]
    fn generated_accumulations_agree_across_all_schedulers(
        n in 1i64..24,
        mult in 1i64..5,
    ) {
        let src = format!(
            "def main():\n    total = 0\n    parallel for i in [1 ... {n}]:\n        \
             lock t:\n            total += i * {mult}\n    print(total)\n"
        );
        let (pooled, _) = run_interp(&src, 3);
        for (label, expected) in references(&src, 3) {
            prop_assert_eq!(&pooled, &expected, "pool differs from {}", label);
        }
    }
}
