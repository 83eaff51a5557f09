//! # tetra-interp
//!
//! The Tetra tree-walking interpreter with real OS-thread parallelism —
//! the paper's main engine (§IV): "when the Tetra interpreter gets to a
//! node in the AST which represents a parallel block, it launches one
//! thread for each child node ... and executes them in parallel."
//!
//! Key properties:
//!
//! * `parallel` / `parallel for` run their logical threads on a persistent
//!   work-stealing pool of OS threads (no GIL), and `background` spawns a
//!   dedicated OS thread per statement; all share the parent's
//!   symbol-table frames;
//! * every thread is a registered GC mutator; blocking operations (lock
//!   waits, joins, console reads) run inside GC safe regions;
//! * a [`hooks::DebugHook`] can observe and pause each thread independently
//!   (the engine under the paper's IDE).
//!
//! The paper's GIL contrast (§I) is modelled by the VM simulator's
//! `CostModel { gil }`, not here.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use tetra_runtime::BufferConsole;
//!
//! let src = "def main():\n    parallel:\n        print(1 + 1)\n        print(2 + 2)\n";
//! let typed = tetra_types::check(tetra_parser::parse(src).unwrap()).unwrap();
//! let console = BufferConsole::new();
//! let interp = tetra_interp::Interp::new(typed, tetra_interp::InterpConfig::default(),
//!                                        console.clone());
//! interp.run().unwrap();
//! let out = console.output();
//! assert!(out.contains("2\n") && out.contains("4\n"));
//! ```

mod eval;
pub mod exec;
pub mod hooks;
mod thread;

use hooks::DebugHook;
use parking_lot::Mutex;
use std::sync::Arc;
use std::sync::OnceLock;
use tetra_runtime::{
    threads, ConsoleRef, ErrorKind, GcStats, Heap, HeapConfig, LockRegistry, PoolStats,
    RuntimeError, ThreadRegistry, ThreadSnapshot, WorkerPool,
};
use tetra_types::TypedProgram;
use thread::ThreadCtx;

/// Interpreter configuration.
#[derive(Clone, Debug)]
pub struct InterpConfig {
    /// Worker-thread cap for `parallel for` chunking. Defaults to the host's
    /// available parallelism.
    pub worker_threads: usize,
    /// Garbage collector tuning.
    pub gc: HeapConfig,
    /// Detect deadlocks/lock re-entry instead of hanging (default on).
    pub detect_deadlocks: bool,
}

impl Default for InterpConfig {
    fn default() -> Self {
        InterpConfig {
            worker_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            gc: HeapConfig::default(),
            detect_deadlocks: true,
        }
    }
}

/// Counters reported by [`Interp::run`].
#[derive(Debug, Clone)]
pub struct RunStats {
    pub gc: GcStats,
    /// Total Tetra threads created (including main).
    pub threads_spawned: u32,
    /// (total lock acquisitions, contended acquisitions).
    pub lock_acquisitions: (u64, u64),
    /// Work-stealing pool counters (all zero when no `parallel` or
    /// `parallel for` ran).
    pub pool: PoolStats,
}

/// Program-wide state shared by every interpreter thread.
pub struct Shared {
    /// The checked program, shared with the caller: a run copies nothing.
    pub typed: Arc<TypedProgram>,
    pub config: InterpConfig,
    pub heap: Arc<Heap>,
    pub locks: LockRegistry,
    pub threads: Arc<ThreadRegistry>,
    pub console: ConsoleRef,
    pub hook: Option<Arc<dyn DebugHook>>,
    pub(crate) background: Mutex<Vec<std::thread::JoinHandle<Result<(), thread::Error>>>>,
    /// The work-stealing pool, created lazily on the first parallel
    /// construct and reused for the rest of the run.
    pub(crate) pool: OnceLock<WorkerPool>,
}

impl Shared {
    pub(crate) fn pool(&self) -> &WorkerPool {
        self.pool.get_or_init(|| {
            WorkerPool::new(self.config.worker_threads.max(1), thread::THREAD_STACK_SIZE)
        })
    }
}

/// The interpreter: build once per program run.
pub struct Interp {
    shared: Arc<Shared>,
}

impl Interp {
    /// An interpreter for `typed`: a `TypedProgram`, or an
    /// `Arc<TypedProgram>` to run one checked program many times without
    /// copying it.
    pub fn new(
        typed: impl Into<Arc<TypedProgram>>,
        config: InterpConfig,
        console: ConsoleRef,
    ) -> Interp {
        Self::build(typed.into(), config, console, None)
    }

    /// Install a debug hook (per-thread stepping, tracing, race detection).
    pub fn with_hook(
        typed: impl Into<Arc<TypedProgram>>,
        config: InterpConfig,
        console: ConsoleRef,
        hook: Arc<dyn DebugHook>,
    ) -> Interp {
        Self::build(typed.into(), config, console, Some(hook))
    }

    fn build(
        typed: Arc<TypedProgram>,
        config: InterpConfig,
        console: ConsoleRef,
        hook: Option<Arc<dyn DebugHook>>,
    ) -> Interp {
        let heap = Heap::new(config.gc.clone());
        let locks = LockRegistry::with_names(typed.resolution.lock_names());
        locks.set_detection(config.detect_deadlocks);
        Interp {
            shared: Arc::new(Shared {
                typed,
                config,
                heap,
                locks,
                threads: ThreadRegistry::new(),
                console,
                hook,
                background: Mutex::new(Vec::new()),
                pool: OnceLock::new(),
            }),
        }
    }

    /// A snapshot of every Tetra thread (for the debugger/IDE thread pane).
    pub fn thread_snapshot(&self) -> Vec<ThreadSnapshot> {
        self.shared.threads.snapshot()
    }

    /// Run `main()` to completion. Execution happens on a dedicated thread
    /// with a large stack so deep Tetra recursion hits the friendly
    /// call-depth error rather than the native stack guard.
    pub fn run(&self) -> Result<RunStats, RuntimeError> {
        let shared = self.shared.clone();
        threads::spawn("tetra-main".to_string(), thread::THREAD_STACK_SIZE, move || {
            Self::run_on_current_thread(shared)
        })
        .expect("could not spawn the main interpreter thread")
        .join()
        .expect("the main interpreter thread panicked")
    }

    fn run_on_current_thread(shared: Arc<Shared>) -> Result<RunStats, RuntimeError> {
        let this = Interp { shared };
        let self_ = &this;
        self_.run_inner()
    }

    fn run_inner(&self) -> Result<RunStats, RuntimeError> {
        let main_idx = self
            .shared
            .typed
            .program
            .func_index("main")
            .ok_or_else(|| RuntimeError::new(ErrorKind::UndefinedFunction, "no main()", 0))?;
        let mut ctx = ThreadCtx::new_main(&self.shared);
        let no_args = ctx.temp_mark();
        let result = ctx.call_user(main_idx, no_args).map(|_| ());
        ctx.finish_thread();
        // Main is done; join the stragglers from `background:` blocks (a
        // library cannot kill threads the way process exit does).
        let background: Vec<_> = std::mem::take(&mut *self.shared.background.lock());
        let joined: Vec<_> = ctx.safe_region(|| background.into_iter().map(|h| h.join()).collect());
        let background_error = joined.into_iter().find_map(|r| r.ok().and_then(Result::err));
        drop(ctx);
        // Allocator/collector/pool counters go to the metrics registry once
        // per run — never from the hot paths.
        self.shared.heap.publish_metrics();
        if let Some(pool) = self.shared.pool.get() {
            pool.publish_metrics();
        }
        result.map_err(|e| *e)?;
        if let Some(e) = background_error {
            return Err(*e);
        }
        Ok(RunStats {
            gc: self.shared.heap.stats(),
            threads_spawned: self.shared.threads.total_spawned(),
            lock_acquisitions: self.shared.locks.contention_stats(),
            pool: self.shared.pool.get().map(|p| p.stats()).unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetra_runtime::BufferConsole;

    fn run_with_input(src: &str, input: &[&str]) -> (Result<RunStats, RuntimeError>, String) {
        let typed = tetra_types::check(
            tetra_parser::parse(src).unwrap_or_else(|e| panic!("parse: {e}\n{src}")),
        )
        .unwrap_or_else(|e| panic!("check: {e:?}\n{src}"));
        let console = BufferConsole::with_input(input);
        let interp = Interp::new(typed, InterpConfig::default(), console.clone());
        let result = interp.run();
        (result, console.output())
    }

    fn run_ok(src: &str) -> String {
        let (r, out) = run_with_input(src, &[]);
        r.unwrap_or_else(|e| panic!("runtime error: {e}\noutput so far:\n{out}"));
        out
    }

    fn run_err(src: &str) -> RuntimeError {
        let (r, out) = run_with_input(src, &[]);
        match r {
            Err(e) => e,
            Ok(_) => panic!("expected runtime error; output:\n{out}"),
        }
    }

    #[test]
    fn hello_world() {
        assert_eq!(run_ok("def main():\n    print(\"hello\")\n"), "hello\n");
    }

    #[test]
    fn paper_figure_1_factorial() {
        let src = "\
def fact(x int) int:
    if x == 0:
        return 1
    else:
        return x * fact(x - 1)

def main():
    print(\"enter n: \")
    n = read_int()
    print(n, \"! = \", fact(n))
";
        let (r, out) = run_with_input(src, &["5"]);
        r.unwrap();
        assert_eq!(out, "enter n: \n5! = 120\n");
    }

    #[test]
    fn paper_figure_2_parallel_sum() {
        let src = "\
def sumr(nums [int], a int, b int) int:
    total = 0
    i = a
    while i <= b:
        total += nums[i]
        i += 1
    return total

def sum(nums [int]) int:
    mid = len(nums) / 2
    parallel:
        a = sumr(nums, 0, mid - 1)
        b = sumr(nums, mid, len(nums) - 1)
    return a + b

def main():
    print(sum([1 ... 100]))
";
        assert_eq!(run_ok(src), "5050\n");
    }

    #[test]
    fn paper_figure_3_parallel_max() {
        let src = "\
def max(nums [int]) int:
    largest = 0
    parallel for num in nums:
        if num > largest:
            lock largest:
                if num > largest:
                    largest = num
    return largest

def main():
    nums = [18, 32, 96, 48, 60]
    print(max(nums))
";
        assert_eq!(run_ok(src), "96\n");
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let src = "\
def main():
    total = 0
    for i in [1 ... 10]:
        if i % 2 == 0:
            total += i
    print(total)
";
        assert_eq!(run_ok(src), "30\n");
    }

    #[test]
    fn while_break_continue() {
        let src = "\
def main():
    i = 0
    found = 0
    while true:
        i += 1
        if i % 3 != 0:
            continue
        found += 1
        if found == 4:
            break
    print(i)
";
        assert_eq!(run_ok(src), "12\n");
    }

    #[test]
    fn divide_by_zero_reports_line() {
        let e = run_err("def main():\n    x = 1\n    y = x / 0\n");
        assert_eq!(e.kind, ErrorKind::DivideByZero);
        assert_eq!(e.line, 3);
    }

    #[test]
    fn index_out_of_bounds() {
        let e = run_err("def main():\n    a = [1, 2]\n    print(a[5])\n");
        assert_eq!(e.kind, ErrorKind::IndexOutOfBounds);
    }

    #[test]
    fn integer_overflow_is_an_error() {
        let e = run_err("def main():\n    x = 9223372036854775807\n    x += 1\n    print(x)\n");
        assert_eq!(e.kind, ErrorKind::Overflow);
    }

    #[test]
    fn assert_failure_and_success() {
        assert_eq!(run_ok("def main():\n    assert 1 < 2\n    print(\"ok\")\n"), "ok\n");
        let e = run_err("def main():\n    assert 1 > 2, \"math broke\"\n");
        assert_eq!(e.kind, ErrorKind::AssertionFailed);
        assert!(e.message.contains("math broke"));
    }

    #[test]
    fn recursion_limit_is_an_error_not_a_crash() {
        let e = run_err("def f(x int) int:\n    return f(x + 1)\ndef main():\n    print(f(0))\n");
        assert!(e.message.contains("call depth"), "{e}");
    }

    #[test]
    fn parallel_block_runs_all_children() {
        let src = "\
def main():
    results = [0, 0, 0, 0]
    parallel:
        results[0] = 1
        results[1] = 2
        results[2] = 3
        results[3] = 4
    print(results)
";
        assert_eq!(run_ok(src), "[1, 2, 3, 4]\n");
    }

    #[test]
    fn parallel_shares_function_frame() {
        // Fig. II's pattern: assignments from child threads visible after.
        let src = "\
def main():
    parallel:
        a = 10
        b = 20
    print(a + b)
";
        assert_eq!(run_ok(src), "30\n");
    }

    #[test]
    fn parallel_for_induction_variable_is_private() {
        let src = "\
def main():
    total = 0
    parallel for i in [1 ... 50]:
        lock total:
            total += i
    print(total)
";
        assert_eq!(run_ok(src), "1275\n");
    }

    #[test]
    fn parallel_for_over_empty_array_is_noop() {
        let src = "\
def main():
    a = [1]
    pop(a)
    parallel for x in a:
        print(x)
    print(\"done\")
";
        assert_eq!(run_ok(src), "done\n");
    }

    #[test]
    fn background_threads_complete_before_exit() {
        let src = "\
def main():
    background:
        print(\"from background\")
    sleep(1)
";
        let out = run_ok(src);
        assert!(out.contains("from background"), "{out}");
    }

    #[test]
    fn lock_provides_mutual_exclusion() {
        // Without the lock this loses updates; with it the count is exact.
        let src = "\
def main():
    count = 0
    parallel for i in [1 ... 400]:
        lock counter:
            count += 1
    print(count)
";
        assert_eq!(run_ok(src), "400\n");
    }

    #[test]
    fn lock_reentry_is_detected() {
        let src = "\
def main():
    lock a:
        lock a:
            print(\"unreachable\")
";
        let e = run_err(src);
        assert_eq!(e.kind, ErrorKind::LockReentry);
    }

    #[test]
    fn child_thread_error_propagates_to_parent() {
        let src = "\
def main():
    parallel:
        print(1 / 0)
        print(\"other\")
";
        let e = run_err(src);
        assert_eq!(e.kind, ErrorKind::DivideByZero);
    }

    #[test]
    fn nested_parallel_blocks() {
        let src = "\
def work(res [int], base int):
    parallel:
        res[base] = base
        res[base + 1] = base + 1

def main():
    res = [0, 0, 0, 0]
    parallel:
        work(res, 0)
        work(res, 2)
    print(res)
";
        assert_eq!(run_ok(src), "[0, 1, 2, 3]\n");
    }

    #[test]
    fn gc_stress_full_program() {
        // Exercise every allocation path under collect-on-every-alloc.
        let src = "\
def main():
    words = split(\"the quick brown fox\", \" \")
    out = \"\"
    for w in words:
        out = out + upper(w) + \".\"
    d = {\"a\": 1}
    d[\"b\"] = 2
    t = (1, \"two\", 3.0)
    print(out, \" \", len(d), \" \", t[1])
";
        let typed = tetra_types::check(tetra_parser::parse(src).unwrap()).unwrap();
        let console = BufferConsole::new();
        let config = InterpConfig {
            gc: HeapConfig { stress: true, ..HeapConfig::default() },
            ..InterpConfig::default()
        };
        let interp = Interp::new(typed, config, console.clone());
        let stats = interp.run().unwrap();
        assert_eq!(console.output(), "THE.QUICK.BROWN.FOX. 2 two\n");
        assert!(stats.gc.collections > 10);
    }

    #[test]
    fn gc_collects_garbage_during_run() {
        let src = "\
def main():
    i = 0
    while i < 2000:
        s = str(i) + \"-junk\"
        i += 1
    print(\"done\")
";
        let typed = tetra_types::check(tetra_parser::parse(src).unwrap()).unwrap();
        let console = BufferConsole::new();
        let config = InterpConfig {
            gc: HeapConfig {
                initial_threshold: 1 << 14,
                min_threshold: 1 << 12,
                ..HeapConfig::default()
            },
            ..InterpConfig::default()
        };
        let interp = Interp::new(typed, config, console.clone());
        let stats = interp.run().unwrap();
        assert_eq!(console.output(), "done\n");
        assert!(stats.gc.collections >= 1, "{:?}", stats.gc);
        assert!(stats.gc.objects_freed > 1000, "{:?}", stats.gc);
    }

    #[test]
    fn parallel_gc_stress() {
        // Multiple threads allocating under stress mode: the GC must stop
        // the world cleanly around running/blocked threads.
        let src = "\
def main():
    out = [\"\", \"\", \"\", \"\"]
    parallel for i in [0 ... 3]:
        s = \"\"
        j = 0
        while j < 20:
            s = s + str(j)
            j += 1
        out[i] = s
    print(out[0] == out[3])
";
        let typed = tetra_types::check(tetra_parser::parse(src).unwrap()).unwrap();
        let console = BufferConsole::new();
        let config = InterpConfig {
            gc: HeapConfig { stress: true, ..HeapConfig::default() },
            worker_threads: 4,
            ..InterpConfig::default()
        };
        let interp = Interp::new(typed, config, console.clone());
        interp.run().unwrap();
        assert_eq!(console.output(), "true\n");
    }

    #[test]
    fn thread_registry_reflects_spawns() {
        let src = "\
def main():
    parallel:
        pass
        pass
        pass
";
        let typed = tetra_types::check(tetra_parser::parse(src).unwrap()).unwrap();
        let console = BufferConsole::new();
        let interp = Interp::new(typed, InterpConfig::default(), console);
        let stats = interp.run().unwrap();
        assert_eq!(stats.threads_spawned, 4, "main + 3 children");
        let snap = interp.thread_snapshot();
        assert!(snap.iter().all(|t| t.state == tetra_runtime::ThreadState::Finished));
    }

    #[test]
    fn strings_and_dicts_end_to_end() {
        let src = "\
def main():
    d = {\"alpha\": 1, \"beta\": 2}
    d[\"gamma\"] = 3
    ks = keys(d)
    sort(ks)
    line = join(ks, \",\")
    print(line)
    print(has_key(d, \"beta\"), \" \", d[\"gamma\"])
";
        assert_eq!(run_ok(src), "alpha,beta,gamma\ntrue 3\n");
    }

    #[test]
    fn string_iteration_and_indexing() {
        let src = "\
def main():
    s = \"abc\"
    for c in s:
        print(c)
    print(s[1])
";
        assert_eq!(run_ok(src), "a\nb\nc\nb\n");
    }

    #[test]
    fn real_widening_keeps_division_real() {
        let src = "\
def half(x real) real:
    return x / 2

def main():
    print(half(7))
";
        assert_eq!(run_ok(src), "3.5\n");
    }

    #[test]
    fn function_falls_off_end_returns_none() {
        let src = "\
def shout(msg string):
    print(upper(msg))

def main():
    shout(\"hi\")
";
        assert_eq!(run_ok(src), "HI\n");
    }

    #[test]
    fn tuples_are_usable() {
        let src = "\
def main():
    point = (3, 4.5, \"label\")
    print(point[0], \" \", point[1], \" \", point[2])
    print(point)
";
        assert_eq!(run_ok(src), "3 4.5 label\n(3, 4.5, \"label\")\n");
    }

    #[test]
    fn key_not_found() {
        let e = run_err("def main():\n    d = {1: 1}\n    print(d[2])\n");
        assert_eq!(e.kind, ErrorKind::KeyNotFound);
    }

    #[test]
    fn many_threads_summing_matches_sequential() {
        let src = "\
def main():
    n = 1000
    nums = [1 ... 1000]
    total = 0
    parallel for x in nums:
        lock t:
            total += x
    print(total == n * (n + 1) / 2)
";
        assert_eq!(run_ok(src), "true\n");
    }
}
