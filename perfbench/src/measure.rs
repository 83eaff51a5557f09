//! The measured loops: the untraced end-to-end run and the traced
//! per-layer run. Both repeat rounds until the time budget is spent, so a
//! longer budget gives more samples, and report medians over rounds.

use crate::sys;
use crate::trace::Tracer;
use crate::workloads::Case;
use crate::{ratio, Samples};
use std::time::{Duration, Instant};
use tetra::obs;
use tetra::vm::CompiledProgram;
use tetra::{BufferConsole, InterpConfig, RunStats, RuntimeError, SimStats, Tetra, VmConfig};

/// Every run makes at least this many rounds, however short its budget.
const MIN_ROUNDS: usize = 3;

/// A setup sample compiles the source repeatedly until this much time has
/// passed and reports the mean, so a program that compiles in 0.1 ms is
/// timed over many compiles rather than one.
const SETUP_SAMPLE: Duration = Duration::from_millis(20);

/// Source text compiled for both engines.
pub struct Program {
    pub tetra: Tetra,
    pub bytecode: CompiledProgram,
}

/// Source text to runnable program: `Tetra::compile` then `vm::compile`.
pub fn setup(source: &str) -> Result<Program, String> {
    let tetra = Tetra::compile(source).map_err(|e| e.render())?;
    let bytecode = tetra::vm::compile(tetra.typed());
    Ok(Program { tetra, bytecode })
}

type Outcome<S> = Result<(String, S), RuntimeError>;

/// Run on the interpreter with `threads` workers; returns the wallclock of
/// `Tetra::run_with` and the captured output.
pub fn run_interp(program: &Program, threads: usize) -> (Duration, Outcome<RunStats>) {
    let console = BufferConsole::new();
    let config = InterpConfig { worker_threads: threads, ..InterpConfig::default() };
    let start = Instant::now();
    let result = program.tetra.run_with(config, console.clone());
    let wall = start.elapsed();
    (wall, result.map(|stats| (console.output(), stats)))
}

/// Run on the VM simulator with `workers` simulated workers.
pub fn run_sim(program: &Program, workers: usize) -> (Duration, Outcome<SimStats>) {
    let console = BufferConsole::new();
    let config = VmConfig { workers, ..VmConfig::default() };
    let start = Instant::now();
    let result = tetra::vm::run(&program.bytecode, config, console.clone());
    let wall = start.elapsed();
    (wall, result.map(|stats| (console.output(), stats)))
}

/// Counts runs and failures. Every output of both engines is checked
/// against the same reference, so a pass also means the engines agree.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Record one run; returns its stats when it succeeded with the
    /// reference output `expected`.
    fn check<S>(&mut self, expected: &str, run: &str, outcome: Outcome<S>) -> Option<S> {
        self.attempted += 1;
        match outcome {
            Ok((output, stats)) if output == expected => Some(stats),
            Ok((output, _)) => {
                self.fail(&format!(
                    "{run}: wrong output\n--- expected ---\n{expected}--- got ---\n{output}"
                ));
                None
            }
            Err(e) => {
                self.fail(&format!("{run}: {e}"));
                None
            }
        }
    }

    /// Count a failure found outside [`Tally::check`].
    fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("perfbench: FAILED {why}");
    }

    pub fn failed_share(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The untraced run: per round, one setup sample and one run at each of
/// simulator T=1, T=4 and interpreter T=1, T=2. Also checks that
/// `virtual_t4` repeats exactly.
///
/// `peak_rss_mb` is read once, in the first round, after the simulator
/// runs and before any interpreter run: the peak of compiling the program
/// and simulating it. Both are single-threaded, so the figure repeats to
/// within about 1%. The interpreter's peak depends on how its threads
/// happen to share the allocator's per-thread arenas, and varies by a
/// quarter between identical runs, too much to carry a bound.
pub fn end_to_end(case: &Case, budget: Duration) -> Result<(Samples, Tally), String> {
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let expected = case.expected.as_str();
    // Warm-up compile: fills the symbol interner and yields the program
    // every round runs.
    let program = setup(&case.source)?;
    let mut virtual_t4 = None;
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < budget {
        rounds += 1;
        let mut compiles = 0u32;
        let batch = Instant::now();
        while compiles == 0 || batch.elapsed() < SETUP_SAMPLE {
            std::hint::black_box(setup(std::hint::black_box(&case.source))?);
            compiles += 1;
        }
        samples.push("setup_s", batch.elapsed().as_secs_f64() / f64::from(compiles));

        let (wall, outcome) = run_sim(&program, 1);
        tally.check(expected, "simulator T=1", outcome);
        samples.push("sim_t1_ms", ms(wall));
        let (wall, outcome) = run_sim(&program, 4);
        samples.push("sim_t4_ms", ms(wall));
        if let Some(stats) = tally.check(expected, "simulator T=4", outcome) {
            let elapsed = stats.virtual_elapsed as f64;
            let first = *virtual_t4.get_or_insert(elapsed);
            if first != elapsed {
                tally.fail(&format!("virtual_t4 changed between rounds: {first} then {elapsed}"));
            }
            samples.push("virtual_t4", elapsed);
        }
        if rounds == 1 {
            samples.push("peak_rss_mb", sys::peak_rss_mb()?);
        }

        let (wall, outcome) = run_interp(&program, 1);
        tally.check(expected, "interpreter T=1", outcome);
        samples.push("run_t1_ms", ms(wall));
        let (wall, outcome) = run_interp(&program, 2);
        tally.check(expected, "interpreter T=2", outcome);
        samples.push("run_t2_ms", ms(wall));
    }
    Ok((samples, tally))
}

/// A metrics-only obs session around one interpreter run, with the
/// process CPU time it took.
struct TracedRun {
    wall_ns: u64,
    cpu_ns: u64,
    stats: Option<RunStats>,
    metrics: obs::metrics::Snapshot,
}

fn traced_interp(
    tracer: &mut Tracer,
    parent: u32,
    name: &'static str,
    program: &Program,
    threads: usize,
    expected: &str,
    tally: &mut Tally,
) -> TracedRun {
    obs::session::begin(obs::session::Config {
        trace: false,
        metrics: true,
        heap_profile: false,
        ..obs::session::Config::default()
    });
    let cpu = sys::process_cpu_ns();
    let ((_, outcome), wall_ns) = tracer.span(name, parent, || run_interp(program, threads));
    let cpu_ns = sys::process_cpu_ns() - cpu;
    let trace = obs::session::end();
    TracedRun {
        wall_ns,
        cpu_ns,
        stats: tally.check(expected, name, outcome),
        metrics: trace.metrics,
    }
}

/// The traced run: per round, benchmark-side spans around each front-end
/// call, then an untraced and a traced interpreter run at T=1 and at
/// T=2, then the simulator at T=1 and T=4. Every per-layer metric is a
/// per-round value from the traced calls; the untraced runs serve only
/// as the base of `obs.traced_overhead`.
pub fn traced(
    case: &Case,
    budget: Duration,
    tracer: &mut Tracer,
) -> Result<(Samples, Tally), String> {
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let expected = case.expected.as_str();
    let program = setup(&case.source)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let src = case.source.as_str();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < budget {
        rounds += 1;
        let round = tracer.open("round", None);
        front_end(tracer, round, src, &mut samples)?;

        let (base_t1, outcome) = run_interp(&program, 1);
        tally.check(expected, "untraced interpreter T=1", outcome);
        let t1 = traced_interp(tracer, round, "interp.run_t1", &program, 1, expected, &mut tally);
        let (base_t2, outcome) = run_interp(&program, 2);
        tally.check(expected, "untraced interpreter T=2", outcome);
        let t2 = traced_interp(tracer, round, "interp.run_t2", &program, 2, expected, &mut tally);
        samples.push(
            "obs.traced_overhead",
            (t1.wall_ns + t2.wall_ns) as f64 / (base_t1 + base_t2).as_nanos() as f64,
        );
        interp_layers(&t1, &t2, nproc, &mut samples);

        let ((_, outcome), sim1_ns) = tracer.span("vm.run_t1", round, || run_sim(&program, 1));
        let sim1 = tally.check(expected, "vm.run_t1", outcome);
        let ((_, outcome), sim4_ns) = tracer.span("vm.run_t4", round, || run_sim(&program, 4));
        let sim4 = tally.check(expected, "vm.run_t4", outcome);
        if let (Some(sim1), Some(sim4)) = (sim1, sim4) {
            samples.push("sim.instructions", sim1.instructions as f64);
            samples.push("sim.ns_per_instr_t1", ratio(sim1_ns as f64, sim1.instructions as f64));
            samples.push("sim.ns_per_instr_t4", ratio(sim4_ns as f64, sim4.instructions as f64));
            samples.push("sim.lock_contentions", sim4.lock_contentions as f64);
        }
        tracer.close(round);
    }
    Ok((samples, tally))
}

/// Time each front-end layer through its public function. `parse` lexes
/// internally and `check` resolves internally, so their self times are
/// taken as differences.
fn front_end(
    tracer: &mut Tracer,
    round: u32,
    src: &str,
    samples: &mut Samples,
) -> Result<(), String> {
    let fe = tracer.open("frontend", Some(round));
    let (tokens, lex_ns) = tracer.span("lexer.tokenize", fe, || tetra::lexer::tokenize(src));
    let tokens = tokens.map_err(|d| d.render(src))?;
    let (parsed, parse_ns) = tracer.span("parser.parse", fe, || tetra::parser::parse(src));
    let parsed = parsed.map_err(|d| d.render(src))?;
    let (resolution, resolve_ns) =
        tracer.span("types.resolve", fe, || tetra::types::resolve::resolve(&parsed));
    let (typed, check_ns) = tracer.span("types.check", fe, || tetra::types::check(parsed));
    let typed = typed.map_err(|ds| ds.iter().map(|d| d.render(src)).collect::<String>())?;
    let (bytecode, compile_ns) = tracer.span("vm.compile", fe, || tetra::vm::compile(&typed));
    tracer.close(fe);

    let ms = |ns: u64| ns as f64 / 1e6;
    samples.push("lexer.ms", ms(lex_ns));
    samples.push("lexer.tokens", tokens.len() as f64);
    samples.push("parser.self_ms", ms(parse_ns) - ms(lex_ns));
    samples.push("types.resolve_ms", ms(resolve_ns));
    samples.push("types.check_self_ms", ms(check_ns) - ms(resolve_ns));
    samples.push("types.resolved_slots", resolution.resolved_count() as f64);
    samples.push("vm.compile_ms", ms(compile_ns));
    samples.push("vm.bytecode_instrs", bytecode.instruction_count() as f64);
    Ok(())
}

/// Interpreter, environment and GC metrics come from the T=1 run, where
/// counts repeat exactly; lock and pool metrics from the T=2 run, where
/// there is contention and stealing to count.
fn interp_layers(t1: &TracedRun, t2: &TracedRun, nproc: f64, samples: &mut Samples) {
    let counter =
        |run: &TracedRun, name: &str| run.metrics.counters.get(name).copied().unwrap_or(0) as f64;
    let hist_ms = |run: &TracedRun, name: &str| {
        run.metrics.histograms.get(name).map_or(0.0, |h| h.sum as f64 / 1e6)
    };
    let (Some(s1), Some(s2)) = (&t1.stats, &t2.stats) else {
        return;
    };

    let hits = counter(t1, "env.slot_hits");
    let accesses = hits + counter(t1, "env.dynamic_fallbacks");
    samples.push("interp.env_accesses", accesses);
    samples.push("interp.ns_per_access_t1", ratio(t1.wall_ns as f64, accesses));
    samples.push("interp.cpu_ms_t1", t1.cpu_ns as f64 / 1e6);
    samples.push("interp.cpu_ms_t2", t2.cpu_ns as f64 / 1e6);
    samples.push("env.slot_hit_ratio", ratio(hits, accesses));
    samples.push("env.chain_depth_walked", counter(t1, "env.chain_depth_walked"));

    // GC pause figures come from GcStats: a metrics-only session's
    // `gc.pause_ns` histogram holds session-relative timestamps, not
    // pause lengths (see README.md, "Known defects").
    let gc = &s1.gc;
    samples.push("gc.allocations", gc.allocations as f64);
    samples.push("gc.collections", gc.collections as f64);
    samples.push("gc.pause_total_ms", gc.pause_total_us as f64 / 1e3);
    samples.push("gc.pause_max_us", gc.pause_max_us as f64);
    samples.push("gc.mark_ms", gc.mark_us as f64 / 1e3);
    samples.push("gc.sweep_ms", gc.sweep_us as f64 / 1e3);
    samples.push("gc.pause_share", ratio(gc.pause_total_us as f64 * 1e3, t1.wall_ns as f64));
    samples.push("gc.fast_path_ratio", ratio(gc.alloc_fast_path as f64, gc.allocations as f64));
    samples.push("gc.segment_refills", gc.segment_refills as f64);
    samples.push("gc.mark_workers", gc.mark_workers as f64);
    samples.push("gc.live_bytes", gc.live_bytes as f64);

    let (acquired, contended) = s2.lock_acquisitions;
    samples.push("lock.acquisitions", acquired as f64);
    samples.push("lock.contended_ratio", ratio(contended as f64, acquired as f64));
    samples.push("lock.wait_ms", hist_ms(t2, "lock.wait_ns"));
    samples.push("lock.hold_ms", hist_ms(t2, "lock.hold_ns"));

    // `busy_ns` also counts time executors sit blocked in a `parallel for`
    // checkout (README.md, "Known defects"), so CPU share comes from
    // getrusage instead.
    let pool = &s2.pool;
    samples.push("pool.tasks", pool.tasks_executed as f64);
    samples.push("pool.submitter_tasks", pool.submitter_tasks as f64);
    samples.push("pool.steals", pool.steals as f64);
    samples.push("pool.range_splits", pool.range_splits as f64);
    samples.push("pool.queue_high_water", pool.queue_high_water as f64);
    samples.push("pool.busy_ms", pool.busy_ns as f64 / 1e6);
    samples.push("pool.cpu_share_t2", ratio(t2.cpu_ns as f64, t2.wall_ns as f64 * nproc));
    let busy = pool.per_worker.iter().map(|&(_, ns)| ns as f64);
    let max = busy.clone().fold(0.0, f64::max);
    let min = busy.fold(f64::INFINITY, f64::min);
    samples.push("pool.worker_imbalance", ratio(max, min));
}
