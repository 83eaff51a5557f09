//! The experiment harness: the tables of the paper's evaluation (§IV) —
//! see DESIGN.md §3 for the experiment index. Each table's program, scale,
//! thread counts and simulator configuration are defined once here, as a
//! [`Table`]; `tests/experiments_shape.rs` pins their rows in
//! `BENCH_virtual.json`, and `tetra bench` prints them.
//!
//! Speedup is measured in **virtual time** on the deterministic VM
//! scheduler, the documented substitution for the paper's 8-core testbed,
//! reproducible anywhere. Wall-clock speedup on the real-thread
//! interpreter is perfbench's `run_t1_ms`/`run_t2_ms`.

use crate::{programs, CompileError, Tetra};
use tetra_runtime::{BufferConsole, RuntimeError};
use tetra_vm::{CostModel, VmConfig};

/// One row of a speedup table (the paper's headline numbers are the T=8
/// row: ≈5× speedup, 62.5 % efficiency).
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    pub threads: usize,
    /// Virtual elapsed time (simulation units).
    pub elapsed: u64,
    pub speedup: f64,
    pub efficiency: f64,
}

/// Render rows the way the CLI and EXPERIMENTS.md print them.
pub fn render_table(title: &str, rows: &[SpeedupRow]) -> String {
    let mut out = format!("{title}\n  T    elapsed       speedup   efficiency\n");
    for r in rows {
        out.push_str(&format!(
            "  {:<4} {:<13} {:<9.2} {:.1}%\n",
            r.threads,
            r.elapsed,
            r.speedup,
            r.efficiency * 100.0
        ));
    }
    out
}

fn rows_from(elapsed: Vec<(usize, u64)>) -> Vec<SpeedupRow> {
    let base = elapsed.first().map(|(_, e)| *e).unwrap_or(1).max(1);
    elapsed
        .into_iter()
        .map(|(threads, e)| {
            let speedup = base as f64 / e.max(1) as f64;
            SpeedupRow { threads, elapsed: e, speedup, efficiency: speedup / threads as f64 }
        })
        .collect()
}

/// Virtual-time speedup sweep: run `src` under the deterministic scheduler
/// with each worker count (the first entry is the baseline, normally 1).
pub fn simulated_speedup(src: &str, threads: &[usize]) -> Result<Vec<SpeedupRow>, ExperimentError> {
    sweep(src, threads, &VmConfig::default())
}

/// Like [`simulated_speedup`] on a base configuration whose worker count
/// each run replaces: its cost model holds the GIL ablation, its
/// `dynamic_chunking` the static-chunking one.
fn sweep(
    src: &str,
    threads: &[usize],
    base: &VmConfig,
) -> Result<Vec<SpeedupRow>, ExperimentError> {
    let program = Tetra::compile(src)?;
    let mut elapsed = Vec::with_capacity(threads.len());
    for &t in threads {
        let console = BufferConsole::new();
        let cfg = VmConfig { workers: t, ..base.clone() };
        let stats = program.simulate_with(cfg, console)?;
        elapsed.push((t, stats.virtual_elapsed));
    }
    Ok(rows_from(elapsed))
}

/// One of the paper's virtual-time tables: a workload at one scale, swept
/// over thread counts on one base configuration. `BENCH_virtual.json`
/// holds every table's rows under its `key`; `tests/experiments_shape.rs`
/// regenerates and compares them, and `tetra bench` prints them.
#[derive(Debug, Clone)]
pub struct Table {
    /// The table's entry in `BENCH_virtual.json`.
    pub key: &'static str,
    pub title: &'static str,
    /// The workload at a given scale.
    pub program: fn(i64) -> String,
    pub scale: i64,
    pub threads: Vec<usize>,
    pub config: VmConfig,
}

impl Table {
    /// A table of `program` at `scale` over T ∈ {1, 2, 4, 8} on the default
    /// configuration.
    pub fn new(
        key: &'static str,
        title: &'static str,
        program: fn(i64) -> String,
        scale: i64,
    ) -> Table {
        Table { key, title, program, scale, threads: vec![1, 2, 4, 8], config: VmConfig::default() }
    }

    /// Run the sweep.
    pub fn run(&self) -> Result<Vec<SpeedupRow>, ExperimentError> {
        sweep(&(self.program)(self.scale), &self.threads, &self.config)
    }
}

/// E5's and E8's program: the primes below `limit`, in 64 blocks.
fn primes(limit: i64) -> String {
    programs::primes(limit, 64)
}

/// E5: the primes workload (paper §IV: ≈5× at T=8, 62.5 % efficiency).
pub fn e5_primes() -> Table {
    Table::new(
        "e5_primes_virtual",
        "E5: primes workload (paper §IV) — virtual-time speedup",
        primes,
        20_000,
    )
}

/// E6: the travelling-salesman workload (paper §IV).
pub fn e6_tsp() -> Table {
    Table::new(
        "e6_tsp_virtual",
        "E6: travelling salesman workload (paper §IV) — virtual-time speedup",
        programs::tsp,
        9,
    )
}

/// E8: E5's program under a simulated global interpreter lock (paper §I).
pub fn e8_gil() -> Table {
    let mut table = Table::new(
        "e8_gil_virtual",
        "E8: primes under a simulated GIL — speedup stays ~1x",
        primes,
        20_000,
    );
    table.config.cost = CostModel { gil: true, ..CostModel::default() };
    table
}

/// E10: the skewed loop under the pool's dynamic chunking, or under one
/// static contiguous chunk per worker.
pub fn e10_skewed(dynamic_chunking: bool) -> Table {
    let (key, title) = if dynamic_chunking {
        ("e10_skewed_pool_virtual", "E10: skewed loop, dynamic chunking — virtual-time speedup")
    } else {
        ("e10_skewed_static_virtual", "E10: skewed loop, static chunks — virtual-time speedup")
    };
    let mut table = Table::new(key, title, programs::skewed, 64);
    table.config.dynamic_chunking = dynamic_chunking;
    table
}

/// Every table, in the order `BENCH_virtual.json` lists them.
pub fn tables() -> [Table; 5] {
    [e5_primes(), e6_tsp(), e8_gil(), e10_skewed(true), e10_skewed(false)]
}

/// Errors from the harness.
#[derive(Debug)]
pub enum ExperimentError {
    Compile(CompileError),
    Runtime(RuntimeError),
}

impl From<CompileError> for ExperimentError {
    fn from(e: CompileError) -> Self {
        ExperimentError::Compile(e)
    }
}

impl From<RuntimeError> for ExperimentError {
    fn from(e: RuntimeError) -> Self {
        ExperimentError::Runtime(e)
    }
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Compile(e) => write!(f, "{e}"),
            ExperimentError::Runtime(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}
