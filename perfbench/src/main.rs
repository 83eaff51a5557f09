//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a readable summary, then as the last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

use perfbench::workloads::Workload;
use perfbench::{measure, result_json, trace::Tracer, Samples, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// Where the traced run writes its spans, relative to the working
/// directory (the repository root).
const SPAN_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args { workload: Workload::Primes, seed: 0, seconds: 10, trace: false };
    let mut argv = std::env::args().skip(1);
    while let Some(name) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{name} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{name} {value}: {e}"));
        match name.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {name}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let workload = args.workload;
    let case = workload.generate(args.seed, workload.full_size());
    let budget = Duration::from_secs(args.seconds);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench {} seed={} seconds={} trace={} source={} bytes nproc={nproc}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        case.source.len()
    );

    let (table, samples, tally) = if args.trace {
        let mut tracer = Tracer::default();
        let (samples, tally) = measure::traced(&case, budget, &mut tracer)?;
        std::fs::create_dir_all(SPAN_DIR).map_err(|e| format!("{SPAN_DIR}: {e}"))?;
        let path = format!("{SPAN_DIR}/spans-{}-seed{}.json", workload.name(), args.seed);
        std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("# {} spans written to {path}", tracer.spans().len());
        (PER_LAYER, samples, tally)
    } else {
        let (samples, tally) = measure::end_to_end(&case, budget)?;
        (END_TO_END, samples, tally)
    };
    let values = samples.medians();
    print_summary(table, &samples, &values);
    println!(
        "# failed_share {:?} ratio ({} failed of {} runs over both engines)",
        tally.failed_share(),
        tally.failed,
        tally.attempted
    );
    println!("{}", result_json(tally.failed == 0, tally.attempted, tally.failed, table, &values)?);
    Ok(())
}

fn print_summary(table: &[(&str, &str)], samples: &Samples, values: &BTreeMap<&str, f64>) {
    let counts = samples.counts();
    for (name, unit) in table {
        let value = values.get(name).copied().unwrap_or(f64::NAN);
        match counts.get(name) {
            Some(&(n, min, max)) => println!(
                "# {name:<26} {value:>16.6} {unit:<6} median of {n}, min {min:.6}, max {max:.6}"
            ),
            None => println!("# {name:<26} {value:>16.6} {unit:<6} not measured"),
        }
    }
}
