//! Subcommand implementations for the `tetra` driver.

use crate::debug_cli;
use std::sync::Arc;
use tetra::{experiments, InterpConfig, StdConsole, Tetra, VmConfig};

const USAGE: &str = "\
tetra — the Tetra educational parallel programming language

USAGE:
  tetra run <file.tet> [--threads N] [--gc-stress] [--gc-stats]
                       [--no-detect] [--trace out.json] [--metrics] [--heap-profile]
  tetra profile <file.tet> [--threads N] [--flame out.folded]
                           [--gc-stress] [--no-detect] | [--sim [--gil] [--static-chunks]]
                                    run with tracing and print a profile report
                                    (--flame also writes collapsed stacks for
                                    flame-graph tools; --sim profiles the
                                    virtual-time simulator instead)
  tetra check <file.tet>            parse + type-check only
  tetra tokens <file.tet>           dump the token stream
  tetra ast <file.tet>              dump the AST
  tetra pretty <file.tet>           re-print canonical source
  tetra disasm <file.tet>           compile to bytecode and disassemble
  tetra sim <file.tet> [--threads N] [--gil] [--static-chunks] [--trace out.json] [--metrics]
                       [--heap-profile]
                                    deterministic virtual-time run (VM; --gil
                                    models a global interpreter lock,
                                    --static-chunks one contiguous chunk per worker)
  tetra trace <file.tet> [--threads N] [--gc-stress] [--no-detect]
                                    run with tracing: thread timeline + data races
  tetra debug <file.tet> [--threads N] [--gc-stress] [--no-detect]
                                    interactive parallel debugger (per-thread stepping)
  tetra bench <primes|tsp|sum|gil> [--threads 1,2,4,8] [--scale N]
                                    reproduce the paper's speedup tables (virtual time)

Each command rejects an option it does not take.
";

/// Parse `--flag value` style options out of the argument list.
struct Opts {
    positional: Vec<String>,
    /// The options given, in order.
    given: Vec<String>,
    threads: Option<usize>,
    /// `--threads` as a list (`tetra bench`).
    thread_list: Option<Vec<usize>>,
    scale: Option<i64>,
    gil: bool,
    gc_stress: bool,
    gc_stats: bool,
    no_detect: bool,
    /// Static chunking instead of guided self-scheduling (sim only).
    static_chunks: bool,
    /// `tetra profile`: run the simulator instead of the interpreter.
    sim: bool,
    trace: Option<String>,
    metrics: bool,
    heap_profile: bool,
    flame: Option<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        positional: Vec::new(),
        given: Vec::new(),
        threads: None,
        thread_list: None,
        scale: None,
        gil: false,
        gc_stress: false,
        gc_stats: false,
        no_detect: false,
        static_chunks: false,
        sim: false,
        trace: None,
        metrics: false,
        heap_profile: false,
        flame: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a.starts_with("--") {
            o.given.push(a.clone());
        }
        match a.as_str() {
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                if v.contains(',') {
                    o.thread_list = Some(
                        v.split(',')
                            .map(|p| p.trim().parse::<usize>().map_err(|e| e.to_string()))
                            .collect::<Result<_, _>>()?,
                    );
                } else {
                    let n = v.parse::<usize>().map_err(|e| e.to_string())?;
                    o.threads = Some(n);
                    o.thread_list = Some(vec![n]);
                }
            }
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                o.scale = Some(v.parse::<i64>().map_err(|e| e.to_string())?);
            }
            "--trace" => {
                let v = it.next().ok_or("--trace needs an output path")?;
                o.trace = Some(v.clone());
            }
            "--metrics" => o.metrics = true,
            "--heap-profile" => o.heap_profile = true,
            "--flame" => {
                let v = it.next().ok_or("--flame needs an output path")?;
                o.flame = Some(v.clone());
            }
            "--gil" => o.gil = true,
            "--gc-stress" => o.gc_stress = true,
            "--gc-stats" => o.gc_stats = true,
            "--no-detect" => o.no_detect = true,
            "--static-chunks" => o.static_chunks = true,
            "--sim" => o.sim = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown option `{other}`\n\n{USAGE}"))
            }
            other => o.positional.push(other.to_string()),
        }
    }
    Ok(o)
}

impl Opts {
    /// Fail on the first option given that command `cmd` does not read.
    fn reads_only(&self, cmd: &str, reads: &[&str]) -> Result<(), String> {
        let Some(flag) = self.given.iter().find(|f| !reads.contains(&f.as_str())) else {
            return Ok(());
        };
        let hint = match flag.as_str() {
            "--gil" | "--static-chunks" => {
                format!(": it is a simulator option (`tetra sim {flag}`)")
            }
            _ => String::new(),
        };
        Err(format!("`tetra {cmd}` does not take `{flag}`{hint}"))
    }
}

/// Tell the user when an exported trace is incomplete: per-thread ring
/// buffers drop their oldest events once full, and corrupt slots (torn
/// writes) are skipped rather than decoded.
fn warn_truncation(trace: &tetra::obs::session::Trace) {
    if trace.dropped_events > 0 {
        let per_thread: Vec<String> =
            trace.dropped_by_thread.iter().map(|(tid, n)| format!("thread {tid}: {n}")).collect();
        eprintln!(
            "warning: trace truncated — {} oldest event(s) dropped (ring full; {}); \
             re-run with a larger buffer or a shorter program",
            trace.dropped_events,
            per_thread.join(", "),
        );
    }
    if trace.corrupt_events > 0 {
        eprintln!("warning: {} corrupt event slot(s) skipped during export", trace.corrupt_events);
    }
}

/// Run `f` in the obs session that `--trace`, `--metrics` and
/// `--heap-profile` ask for, then write the Chrome trace and print the
/// metrics and heap report it collected. Without any of them `f` runs
/// unobserved.
fn observed<T>(o: &Opts, f: impl FnOnce() -> T) -> Result<T, String> {
    if o.trace.is_none() && !o.metrics && !o.heap_profile {
        return Ok(f());
    }
    tetra::obs::session::begin(tetra::obs::session::Config {
        trace: o.trace.is_some(),
        metrics: o.metrics,
        heap_profile: o.heap_profile,
        ..Default::default()
    });
    let result = f();
    let trace = tetra::obs::session::end();
    if let Some(path) = &o.trace {
        std::fs::write(path, tetra::obs::chrome::export(&trace))
            .map_err(|e| format!("cannot write trace to `{path}`: {e}"))?;
        eprintln!(
            "trace: {} events from {} thread(s) written to {path}",
            trace.events.len(),
            trace.thread_names().len(),
        );
        warn_truncation(&trace);
    }
    if o.metrics {
        eprint!("{}", trace.metrics.render());
    }
    if o.heap_profile {
        eprint!("{}", tetra::obs::profile::heap_report(&trace));
    }
    Ok(result)
}

fn read_source(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn compile_file(path: &str) -> Result<(Tetra, String), String> {
    let src = read_source(path)?;
    match Tetra::compile(&src) {
        Ok(p) => Ok((p, src)),
        Err(e) => Err(e.render()),
    }
}

pub fn dispatch(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(USAGE.to_string());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "run" => run(rest),
        "profile" => profile(rest),
        "check" => check(rest),
        "tokens" => tokens(rest),
        "ast" => ast(rest),
        "pretty" => pretty(rest),
        "disasm" => disasm(rest),
        "sim" => sim(rest),
        "trace" => trace(rest),
        "debug" => debug(rest),
        "bench" => bench(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

fn need_file(o: &Opts) -> Result<&str, String> {
    o.positional.first().map(|s| s.as_str()).ok_or_else(|| USAGE.to_string())
}

/// The options [`interp_config`] reads.
const INTERP: [&str; 3] = ["--threads", "--gc-stress", "--no-detect"];

fn interp_config(o: &Opts) -> InterpConfig {
    let mut c = InterpConfig::default();
    if let Some(t) = o.threads {
        c.worker_threads = t;
    }
    c.gc.stress = o.gc_stress;
    c.detect_deadlocks = !o.no_detect;
    c
}

fn run(args: &[String]) -> Result<(), String> {
    let o = parse_opts(args)?;
    let reads = ["--gc-stats", "--trace", "--metrics", "--heap-profile"];
    o.reads_only("run", &[&INTERP[..], &reads].concat())?;
    let config = interp_config(&o);
    let (program, _src) = compile_file(need_file(&o)?)?;
    let result = observed(&o, || program.run_with(config, Arc::new(StdConsole)))?;
    let stats = result.map_err(|e| e.to_string())?;
    if o.gc_stats {
        eprintln!(
            "gc: {} allocations, {} collections, {} objects freed, {} live",
            stats.gc.allocations,
            stats.gc.collections,
            stats.gc.objects_freed,
            stats.gc.live_objects
        );
        eprintln!(
            "gc pauses: {} us total, {} us max (mark {} us, sweep {} us)",
            stats.gc.pause_total_us, stats.gc.pause_max_us, stats.gc.mark_us, stats.gc.sweep_us
        );
        eprintln!(
            "gc allocator: {} fast-path, {} segment refills",
            stats.gc.alloc_fast_path, stats.gc.segment_refills
        );
        eprintln!(
            "threads: {} spawned; locks: {} acquisitions ({} contended)",
            stats.threads_spawned, stats.lock_acquisitions.0, stats.lock_acquisitions.1
        );
    }
    Ok(())
}

fn profile(args: &[String]) -> Result<(), String> {
    let o = parse_opts(args)?;
    let engine: &[&str] =
        if o.sim { &["--threads", "--sim", "--gil", "--static-chunks"] } else { &INTERP };
    o.reads_only("profile", &[&["--flame"], engine].concat())?;
    let config = if o.sim { None } else { Some(interp_config(&o)) };
    let (program, src) = compile_file(need_file(&o)?)?;
    tetra::obs::session::begin(tetra::obs::session::Config::default());
    let result = match config {
        Some(config) => program.run_with(config, Arc::new(StdConsole)).map(|_| ()),
        None => program.simulate_with(sim_config(&o), Arc::new(StdConsole)).map(|_| ()),
    };
    let trace = tetra::obs::session::end();
    // Report even when the program failed: the trace up to the error is
    // usually exactly what the user wants to see.
    let source_lines: Vec<String> = src.lines().map(str::to_string).collect();
    eprintln!();
    eprint!("{}", tetra::obs::profile::report(&trace, Some(&source_lines)));
    if let Some(out) = &o.flame {
        std::fs::write(out, tetra::obs::flame::write_folded(&trace))
            .map_err(|e| format!("cannot write flame output to `{out}`: {e}"))?;
        eprintln!("flame: collapsed stacks written to {out} (flamegraph.pl / speedscope)");
    }
    result.map_err(|e| e.to_string())
}

fn check(args: &[String]) -> Result<(), String> {
    let o = parse_opts(args)?;
    o.reads_only("check", &[])?;
    let (program, _) = compile_file(need_file(&o)?)?;
    let stats = tetra::ast::visit::ParallelStats::of(&program.typed().program);
    println!(
        "ok: {} function(s), {} parallel block(s), {} parallel for(s), {} background block(s), {} lock block(s)",
        program.typed().program.funcs.len(),
        stats.parallel_blocks,
        stats.parallel_fors,
        stats.background_blocks,
        stats.lock_blocks,
    );
    if !stats.lock_names.is_empty() {
        println!("lock names: {}", stats.lock_names.join(", "));
    }
    Ok(())
}

fn tokens(args: &[String]) -> Result<(), String> {
    let o = parse_opts(args)?;
    o.reads_only("tokens", &[])?;
    let src = read_source(need_file(&o)?)?;
    let toks = tetra::lexer::tokenize(&src).map_err(|e| e.render(&src))?;
    for t in toks {
        println!("{:>4}:{:<3} {:?}", t.span.line, t.span.col, t.kind);
    }
    Ok(())
}

fn ast(args: &[String]) -> Result<(), String> {
    let o = parse_opts(args)?;
    o.reads_only("ast", &[])?;
    let (program, _) = compile_file(need_file(&o)?)?;
    print!("{}", tetra::ast::pretty::tree(&program.typed().program));
    Ok(())
}

fn pretty(args: &[String]) -> Result<(), String> {
    let o = parse_opts(args)?;
    o.reads_only("pretty", &[])?;
    let (program, _) = compile_file(need_file(&o)?)?;
    print!("{}", tetra::ast::pretty::to_source(&program.typed().program));
    Ok(())
}

fn disasm(args: &[String]) -> Result<(), String> {
    let o = parse_opts(args)?;
    o.reads_only("disasm", &[])?;
    let (program, _) = compile_file(need_file(&o)?)?;
    let bc = program.bytecode();
    println!("; {} unit(s), {} instruction(s)", bc.units.len(), bc.instruction_count());
    print!("{}", tetra::vm::disassemble(&bc));
    Ok(())
}

/// The simulator options of `tetra sim` and `tetra profile --sim`.
fn sim_config(o: &Opts) -> VmConfig {
    VmConfig {
        workers: o.threads.unwrap_or(4),
        dynamic_chunking: !o.static_chunks,
        cost: tetra::vm::CostModel { gil: o.gil, ..Default::default() },
        ..VmConfig::default()
    }
}

fn sim(args: &[String]) -> Result<(), String> {
    let o = parse_opts(args)?;
    let reads = ["--threads", "--gil", "--static-chunks", "--trace", "--metrics", "--heap-profile"];
    o.reads_only("sim", &reads)?;
    let (program, _) = compile_file(need_file(&o)?)?;
    let cfg = sim_config(&o);
    let result = observed(&o, || program.simulate_with(cfg, Arc::new(StdConsole)))?;
    let stats = result.map_err(|e| e.to_string())?;
    eprintln!(
        "sim: {} virtual time units, {} instructions, {} thread(s), {} contended lock waits",
        stats.virtual_elapsed, stats.instructions, stats.threads, stats.lock_contentions
    );
    Ok(())
}

fn trace(args: &[String]) -> Result<(), String> {
    let o = parse_opts(args)?;
    o.reads_only("trace", &INTERP)?;
    let config = interp_config(&o);
    let (program, _) = compile_file(need_file(&o)?)?;
    let dbg = tetra::debugger::Debugger::tracer();
    let interp = program.debug(config, Arc::new(StdConsole), dbg.clone());
    let result = interp.run();
    println!("\n=== thread timeline ===");
    print!("{}", tetra::debugger::timeline::render(&dbg.events()));
    let races = dbg.races();
    if races.is_empty() {
        println!("\nno data races detected");
    } else {
        println!("\n=== possible data races ===");
        for r in races {
            println!("  {}", r.message);
        }
    }
    result.map(|_| ()).map_err(|e| e.to_string())
}

fn debug(args: &[String]) -> Result<(), String> {
    let o = parse_opts(args)?;
    o.reads_only("debug", &INTERP)?;
    let config = interp_config(&o);
    let (program, src) = compile_file(need_file(&o)?)?;
    debug_cli::interactive(program, src, config)
}

fn bench(args: &[String]) -> Result<(), String> {
    let o = parse_opts(args)?;
    o.reads_only("bench", &["--threads", "--scale"])?;
    let mut table = match o.positional.first().map(|s| s.as_str()).unwrap_or("primes") {
        "primes" => experiments::e5_primes(),
        "tsp" => experiments::e6_tsp(),
        "gil" => experiments::e8_gil(),
        "sum" => experiments::Table::new(
            "fig2_sum",
            "Fig. II parallel sum, scaled — virtual-time speedup",
            locked_sum,
            50_000,
        ),
        other => return Err(format!("unknown benchmark `{other}` (primes|tsp|sum|gil)")),
    };
    table.scale = o.scale.unwrap_or(table.scale);
    table.threads = o.thread_list.unwrap_or(table.threads);
    let rows = table.run().map_err(|e| e.to_string())?;
    print!("{}", experiments::render_table(table.title, &rows));
    Ok(())
}

/// Fig. II's parallel sum over `[1 ... n]`, every addition under one lock.
fn locked_sum(n: i64) -> String {
    format!(
        "def main():\n    total = 0\n    parallel for i in [1 ... {n}]:\n        lock t:\n            total += i\n    print(total)\n"
    )
}

#[cfg(test)]
mod tests {
    use super::dispatch;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn interpreter_commands_reject_gil_with_a_pointer_to_sim() {
        let file = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/tetra/parallel_sum.tet");
        for cmd in ["run", "profile", "trace", "debug"] {
            let err = dispatch(&args(&[cmd, file, "--gil"])).unwrap_err();
            assert!(err.contains("tetra sim --gil"), "{cmd}: {err}");
        }
    }

    #[test]
    fn each_command_rejects_an_option_it_does_not_read() {
        let file = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/tetra/parallel_sum.tet");
        let cases = [
            ("sim", "--gc-stress"),
            ("sim", "--gc-stats"),
            ("sim", "--no-detect"),
            ("run", "--static-chunks"),
            ("run", "--flame"),
            ("run", "--scale"),
            ("profile", "--static-chunks"),
            ("trace", "--metrics"),
            ("disasm", "--threads"),
            ("bench", "--gc-stats"),
        ];
        for (cmd, flag) in cases {
            let mut a = args(&[cmd, file, flag]);
            if matches!(flag, "--flame" | "--scale" | "--threads") {
                a.push("2".into());
            }
            let err = dispatch(&a).unwrap_err();
            assert!(err.starts_with(&format!("`tetra {cmd}` does not take `{flag}`")), "{err}");
        }
        // `tetra profile --sim` reads the simulator's options, not the
        // interpreter's.
        let err = dispatch(&args(&["profile", file, "--sim", "--gc-stress"])).unwrap_err();
        assert!(err.starts_with("`tetra profile` does not take `--gc-stress`"), "{err}");
    }

    #[test]
    fn removed_flags_are_unknown_options() {
        let file = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/tetra/parallel_sum.tet");
        for cmd in ["run", "sim"] {
            for flag in ["--no-pool", "--gc-threads"] {
                let err = dispatch(&args(&[cmd, file, flag, "2"])).unwrap_err();
                assert!(err.starts_with(&format!("unknown option `{flag}`")), "{cmd}: {err}");
            }
        }
    }
}
