//! The experiment harness: regenerates the numbers of the paper's
//! evaluation (§IV) — see DESIGN.md §3 for the experiment index.
//!
//! Speedup is measured in **virtual time** on the deterministic VM
//! scheduler, the documented substitution for the paper's 8-core testbed,
//! reproducible anywhere. Wall-clock speedup on the real-thread
//! interpreter is perfbench's `run_t1_ms`/`run_t2_ms`.

use crate::{CompileError, Tetra};
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
    simulated_speedup_with(src, threads, CostModel::default())
}

/// Like [`simulated_speedup`] with a custom cost model (GIL ablation,
/// contention sensitivity sweeps).
pub fn simulated_speedup_with(
    src: &str,
    threads: &[usize],
    cost: CostModel,
) -> Result<Vec<SpeedupRow>, ExperimentError> {
    let program = Tetra::compile(src)?;
    let mut elapsed = Vec::with_capacity(threads.len());
    for &t in threads {
        let console = BufferConsole::new();
        let cfg = VmConfig { workers: t, cost: cost.clone(), ..VmConfig::default() };
        let stats = program.simulate_with(cfg, console)?;
        elapsed.push((t, stats.virtual_elapsed));
    }
    Ok(rows_from(elapsed))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;

    #[test]
    fn primes_speedup_has_paper_shape() {
        // E5: speedup grows with T and lands near the paper's ≈5× at T=8
        // (62.5 % efficiency). Small limit keeps the test fast; the curve
        // shape is limit-independent.
        let src = programs::primes(2_000, 64);
        let rows = simulated_speedup(&src, &[1, 2, 4, 8]).unwrap();
        assert!((rows[1].speedup - 2.0).abs() < 0.4, "T=2: {:?}", rows);
        assert!(rows[2].speedup > 3.0, "T=4: {:?}", rows);
        assert!(
            rows[3].speedup > 3.8 && rows[3].speedup < 6.5,
            "T=8 should be near the paper's 5x: {:?}",
            rows
        );
        assert!(
            rows[3].efficiency > 0.45 && rows[3].efficiency < 0.85,
            "efficiency near 62.5%: {:?}",
            rows
        );
    }

    #[test]
    fn gil_ablation_is_flat() {
        // E8: with a global interpreter lock no speedup is possible.
        let src = programs::primes(800, 32);
        let cost = CostModel { gil: true, ..CostModel::default() };
        let rows = simulated_speedup_with(&src, &[1, 4, 8], cost).unwrap();
        for r in &rows[1..] {
            assert!((0.75..1.25).contains(&r.speedup), "GIL must pin speedup at ~1x: {rows:?}");
        }
    }

    #[test]
    fn render_table_formats_rows() {
        let rows = vec![SpeedupRow { threads: 8, elapsed: 100, speedup: 5.0, efficiency: 0.625 }];
        let t = render_table("primes", &rows);
        assert!(t.contains("primes"), "{t}");
        assert!(t.contains("62.5%"), "{t}");
    }
}
