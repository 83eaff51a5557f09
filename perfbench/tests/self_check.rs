//! Checks of the benchmark itself: its reference outputs, its determinism
//! and its metric names. Workloads run at small sizes so the suite stays
//! fast in a debug build.

use perfbench::measure::{self, run_interp, run_sim, setup};
use perfbench::trace::Tracer;
use perfbench::workloads::{count_primes_below, Workload};
use perfbench::{result_json, END_TO_END, PER_LAYER};
use std::time::Duration;

fn small_size(w: Workload) -> u64 {
    match w {
        Workload::Primes => 3_000,
        Workload::AllocLock => 400,
        Workload::BigSource => 60,
    }
}

#[test]
fn sieve_matches_known_prime_counts() {
    assert_eq!(count_primes_below(2), 0);
    assert_eq!(count_primes_below(3), 1);
    assert_eq!(count_primes_below(100), 25);
    assert_eq!(count_primes_below(100_000), 9_592);
}

#[test]
fn references_agree_with_both_engines() {
    for w in Workload::ALL {
        for seed in [1, 2] {
            let case = w.generate(seed, small_size(w));
            let program = setup(&case.source).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            for threads in [1, 2] {
                let (_, outcome) = run_interp(&program, threads);
                let (output, _) = outcome.unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                assert_eq!(
                    output,
                    case.expected,
                    "{} seed {seed} interpreter T={threads}",
                    w.name()
                );
            }
            for workers in [1, 4] {
                let (_, outcome) = run_sim(&program, workers);
                let (output, _) = outcome.unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                assert_eq!(output, case.expected, "{} seed {seed} simulator T={workers}", w.name());
            }
        }
    }
}

#[test]
fn seeds_change_the_input_and_repeat_it() {
    for w in Workload::ALL {
        let a = w.generate(1, small_size(w));
        assert_eq!(a.source, w.generate(1, small_size(w)).source, "{}", w.name());
        assert_ne!(a.source, w.generate(2, small_size(w)).source, "{}", w.name());
    }
}

#[test]
fn virtual_t4_repeats_exactly() {
    for w in Workload::ALL {
        let case = w.generate(3, small_size(w));
        let program = setup(&case.source).expect("compiles");
        let elapsed = || run_sim(&program, 4).1.expect("runs").1.virtual_elapsed;
        assert_eq!(elapsed(), elapsed(), "{}", w.name());
    }
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn metric_names_are_well_formed_unique_and_declared() {
    let declared =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "{name}");
        assert!(seen.insert(name), "{name} is listed twice");
        let (_, rest) = declared
            .split_once(&format!("\"name\": \"{name}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {name}"));
        let declared_unit = rest.split("\"unit\": \"").nth(1).and_then(|u| u.split('"').next());
        assert_eq!(declared_unit, Some(*unit), "unit of {name}");
    }
    assert_eq!(declared.matches("\"name\": ").count(), seen.len() + Workload::ALL.len());
}

#[test]
fn both_modes_report_every_metric() {
    let w = Workload::AllocLock;
    let case = w.generate(4, small_size(w));

    let (samples, tally) = measure::end_to_end(&case, Duration::ZERO).expect("runs");
    assert_eq!(tally.failed, 0);
    let line =
        result_json(true, tally.attempted, tally.failed, END_TO_END, &samples.medians()).unwrap();
    assert!(line.starts_with("{\"correct\": true"), "{line}");

    let mut tracer = Tracer::default();
    let (samples, tally) = measure::traced(&case, Duration::ZERO, &mut tracer).expect("runs");
    assert_eq!(tally.failed, 0);
    result_json(true, tally.attempted, tally.failed, PER_LAYER, &samples.medians()).unwrap();
    assert!(tracer.spans().iter().any(|s| s.name == "types.check" && s.parent.is_some()));
}
