//! # tetra
//!
//! A from-scratch Rust implementation of **Tetra**, the educational
//! parallel programming language of Finlayson et al., *Introducing Tetra:
//! An Educational Parallel Programming System* (IPDPSW 2015).
//!
//! Tetra is a Python-like, statically typed, garbage-collected language in
//! which parallelism is a first-class language feature: `parallel:`,
//! `background:`, `parallel for` and `lock name:` blocks. This facade crate
//! ties the whole system together:
//!
//! | stage | crate |
//! |-------|-------|
//! | lexer (significant whitespace) | [`lexer`] |
//! | recursive-descent parser | [`parser`] |
//! | AST + types | [`ast`] |
//! | type checking & local inference | [`types`] |
//! | runtime: hand-rolled GC, frames, named locks | [`runtime`] |
//! | standard library | [`stdlib`] |
//! | tree-walking interpreter (real OS threads) | [`interp`] |
//! | bytecode compiler + deterministic VM / simulator | [`vm`] |
//! | parallel debugger engine + race detection | [`debugger`] |
//! | tracing, metrics & profiling | [`obs`] |
//!
//! ## Quickstart
//!
//! ```
//! use tetra::Tetra;
//!
//! let program = Tetra::compile(
//!     "def main():\n    parallel:\n        print(\"left\")\n        print(\"right\")\n",
//! ).unwrap();
//! let (output, _stats) = program.run_captured(&[]).unwrap();
//! assert!(output.contains("left") && output.contains("right"));
//! ```

pub use tetra_ast as ast;
pub use tetra_debugger as debugger;
pub use tetra_interp as interp;
pub use tetra_lexer as lexer;
pub use tetra_obs as obs;
pub use tetra_parser as parser;
pub use tetra_runtime as runtime;
pub use tetra_stdlib as stdlib;
pub use tetra_types as types;
pub use tetra_vm as vm;

pub mod experiments;
pub mod programs;

use std::sync::Arc;
pub use tetra_interp::{InterpConfig, RunStats};
use tetra_lexer::Diagnostic;
pub use tetra_runtime::{BufferConsole, ConsoleRef, GcStats, HeapConfig, RuntimeError, StdConsole};
use tetra_types::TypedProgram;
pub use tetra_vm::{SimStats, VmConfig};

/// One or more front-end diagnostics, with the source retained so they can
/// be rendered with carets.
#[derive(Debug, Clone)]
pub struct CompileError {
    pub diagnostics: Vec<Diagnostic>,
    source: String,
}

impl CompileError {
    /// Render every diagnostic against the source, rustc-style.
    pub fn render(&self) -> String {
        self.diagnostics.iter().map(|d| d.render(&self.source)).collect::<Vec<_>>().join("\n\n")
    }
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for CompileError {}

/// A compiled (parsed + type-checked) Tetra program, ready to run under
/// either engine.
#[derive(Debug)]
pub struct Tetra {
    /// Shared with every interpreter run: a run copies nothing.
    typed: Arc<TypedProgram>,
    source: String,
}

impl Tetra {
    /// Parse and type-check Tetra source.
    ///
    /// The parser bounds expression trees at 8,000 levels, but the passes
    /// after it recurse once per level and use the caller's stack. In a
    /// debug build, compiling on an 8 MiB thread (the usual Linux
    /// main-thread stack) overflows between 1,200 and 1,300 `+` terms; a
    /// release build compiles the full 8,000. The `tetra` CLI runs each
    /// command on a 64 MiB thread: a caller that compiles and runs
    /// untrusted source should give it a stack of that size too.
    pub fn compile(source: &str) -> Result<Tetra, CompileError> {
        let program = tetra_parser::parse(source)
            .map_err(|d| CompileError { diagnostics: vec![d], source: source.to_string() })?;
        let typed = tetra_types::check(program)
            .map_err(|diagnostics| CompileError { diagnostics, source: source.to_string() })?;
        Ok(Tetra { typed: Arc::new(typed), source: source.to_string() })
    }

    /// The checked program (AST + type tables).
    pub fn typed(&self) -> &TypedProgram {
        &self.typed
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Run under the real-thread interpreter with the process console.
    pub fn run(&self) -> Result<RunStats, RuntimeError> {
        self.run_with(InterpConfig::default(), Arc::new(StdConsole))
    }

    /// Run under the real-thread interpreter with explicit configuration
    /// and console.
    pub fn run_with(
        &self,
        config: InterpConfig,
        console: ConsoleRef,
    ) -> Result<RunStats, RuntimeError> {
        let interp = tetra_interp::Interp::new(self.typed.clone(), config, console);
        interp.run()
    }

    /// Run with scripted input, capturing output — the convenience most
    /// tests and examples use.
    pub fn run_captured(&self, input: &[&str]) -> Result<(String, RunStats), RuntimeError> {
        let console = BufferConsole::with_input(input);
        let stats = self.run_with(InterpConfig::default(), console.clone())?;
        Ok((console.output(), stats))
    }

    /// Run under a debugger hook (per-thread stepping, tracing, race
    /// detection). The returned interpreter is not yet running — call
    /// [`tetra_interp::Interp::run`], typically from another thread.
    pub fn debug(
        &self,
        config: InterpConfig,
        console: ConsoleRef,
        hook: Arc<dyn tetra_interp::hooks::DebugHook>,
    ) -> tetra_interp::Interp {
        tetra_interp::Interp::with_hook(self.typed.clone(), config, console, hook)
    }

    /// Compile to bytecode (the future-work "native compiler" path).
    pub fn bytecode(&self) -> tetra_vm::CompiledProgram {
        tetra_vm::compile(&self.typed)
    }

    /// Run deterministically on the VM scheduler with default settings.
    pub fn simulate(&self, console: ConsoleRef) -> Result<SimStats, RuntimeError> {
        self.simulate_with(VmConfig::default(), console)
    }

    /// Run deterministically on the VM scheduler.
    pub fn simulate_with(
        &self,
        config: VmConfig,
        console: ConsoleRef,
    ) -> Result<SimStats, RuntimeError> {
        let program = self.bytecode();
        tetra_vm::run(&program, config, console)
    }

    /// Run the program under BOTH engines with the same input and assert
    /// they produce identical output (the cross-engine oracle used by the
    /// integration suite). Returns the common output.
    pub fn run_both(&self, input: &[&str]) -> Result<String, EngineMismatch> {
        let (interp_out, _) =
            self.run_captured(input).map_err(|e| EngineMismatch::Runtime("interpreter", e))?;
        let console = BufferConsole::with_input(input);
        self.simulate(console.clone()).map_err(|e| EngineMismatch::Runtime("vm", e))?;
        let vm_out = console.output();
        if interp_out != vm_out {
            return Err(EngineMismatch::Diverged { interp: interp_out, vm: vm_out });
        }
        Ok(interp_out)
    }
}

/// Failure modes of [`Tetra::run_both`].
#[derive(Debug)]
pub enum EngineMismatch {
    Runtime(&'static str, RuntimeError),
    Diverged { interp: String, vm: String },
}

impl std::fmt::Display for EngineMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineMismatch::Runtime(engine, e) => write!(f, "{engine}: {e}"),
            EngineMismatch::Diverged { interp, vm } => {
                write!(f, "engines diverged:\n--- interpreter ---\n{interp}\n--- vm ---\n{vm}")
            }
        }
    }
}

impl std::error::Error for EngineMismatch {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_and_run_captured() {
        let p = Tetra::compile("def main():\n    print(21 * 2)\n").unwrap();
        let (out, stats) = p.run_captured(&[]).unwrap();
        assert_eq!(out, "42\n");
        assert_eq!(stats.threads_spawned, 1);
    }

    #[test]
    fn compile_error_renders_with_caret() {
        let err = Tetra::compile("def main():\n    x = 1 +\n").unwrap_err();
        let rendered = err.render();
        assert!(rendered.contains("^"), "{rendered}");
        assert!(rendered.contains("expected an expression"), "{rendered}");
    }

    #[test]
    fn type_errors_are_collected() {
        let err = Tetra::compile("def main():\n    x = 1 + \"a\"\n    y = nope()\n").unwrap_err();
        assert_eq!(err.diagnostics.len(), 2);
    }

    #[test]
    fn both_engines_agree_on_paper_figures() {
        for (src, input) in [
            (programs::FIG1_FACTORIAL, &["6"][..]),
            (programs::FIG2_PARALLEL_SUM, &[][..]),
            (programs::FIG3_PARALLEL_MAX, &[][..]),
        ] {
            let p = Tetra::compile(src).unwrap();
            let out = p.run_both(input).unwrap_or_else(|e| panic!("{e}"));
            assert!(!out.is_empty());
        }
    }

    #[test]
    fn figure_outputs_match_paper() {
        let p = Tetra::compile(programs::FIG2_PARALLEL_SUM).unwrap();
        assert_eq!(p.run_both(&[]).unwrap(), "5050\n");
        let p = Tetra::compile(programs::FIG3_PARALLEL_MAX).unwrap();
        assert_eq!(p.run_both(&[]).unwrap(), "96\n");
    }

    #[test]
    fn primes_workload_agrees_across_engines() {
        let src = programs::primes(500, 8);
        let p = Tetra::compile(&src).unwrap();
        let out = p.run_both(&[]).unwrap();
        assert_eq!(out, "primes below 500: 95\n");
    }

    #[test]
    fn tsp_workload_agrees_across_engines() {
        let src = programs::tsp(6);
        let p = Tetra::compile(&src).unwrap();
        let out = p.run_both(&[]).unwrap();
        assert!(out.starts_with("best tour: "), "{out}");
    }

    #[test]
    fn loop_var_shadowing_in_parallel_for_is_worker_private_in_both_engines() {
        // A sequential `for v` inside a `parallel for` body rebinds `v` in
        // the worker's private frame each iteration — it must never store
        // through to an outer `v`, in either engine. (The VM compiler used
        // to resolve the loop variable across the worker-scope boundary and
        // emit a shared StoreOuter here.)
        let src = "\
def main():
    v = 100
    total = 0
    parallel for i in [1 ... 4]:
        s = 0
        for v in [1 ... 3]:
            s = s + v
        lock acc:
            total = total + s
    print(v)
    print(total)
";
        let p = Tetra::compile(src).unwrap();
        assert_eq!(p.run_both(&[]).unwrap(), "100\n24\n");
    }

    #[test]
    fn deadlock_program_is_detected_not_hung() {
        let p = Tetra::compile(programs::DEADLOCK).unwrap();
        let err = p.run_captured(&[]).unwrap_err();
        assert_eq!(err.kind, tetra_runtime::ErrorKind::Deadlock);
    }

    #[test]
    fn bytecode_is_inspectable() {
        let p = Tetra::compile(programs::FIG3_PARALLEL_MAX).unwrap();
        let bc = p.bytecode();
        assert!(bc.instruction_count() > 20);
        assert!(tetra_vm::disassemble(&bc).contains("parallel.for"));
    }
}
