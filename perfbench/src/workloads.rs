//! The benchmark's workloads: Tetra source generated from a seed, and the
//! output that source must print, computed here in Rust and never by
//! either engine.

use std::fmt::Write as _;

/// One benchmark input: the program text and its reference output.
#[derive(Debug, Clone)]
pub struct Case {
    pub source: String,
    pub expected: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's E5 primes program: scalar compute under a balanced
    /// `parallel for`, with no allocation and no locks.
    Primes,
    /// A `parallel for` that allocates strings and arrays every iteration
    /// and updates shared containers under two locks.
    AllocLock,
    /// A generated ~1.6 MB many-function program, so the front end does
    /// most of the work.
    BigSource,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Primes, Workload::AllocLock, Workload::BigSource];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Primes => "primes",
            Workload::AllocLock => "alloc_lock",
            Workload::BigSource => "big_source",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The size the benchmark runs: the primes limit before jitter, the
    /// `alloc_lock` iteration count, or the `big_source` function count.
    pub fn full_size(self) -> u64 {
        match self {
            Workload::Primes => 100_000,
            Workload::AllocLock => 150_000,
            Workload::BigSource => 9_000,
        }
    }

    /// Generate the case for `seed` at `size` (see [`Workload::full_size`]).
    pub fn generate(self, seed: u64, size: u64) -> Case {
        let mut rng = SplitMix64(seed);
        match self {
            Workload::Primes => primes(&mut rng, size),
            Workload::AllocLock => alloc_lock(&mut rng, size),
            Workload::BigSource => big_source(&mut rng, size),
        }
    }
}

/// SplitMix64: a tiny seeded generator, so a seed names one input forever.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0; the modulo bias is irrelevant here).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The E5 program with `limit` jittered by up to 1%, so seeds differ in
/// input without moving the timings by more than the jitter.
fn primes(rng: &mut SplitMix64, size: u64) -> Case {
    let limit = size + rng.below(size / 100 + 1);
    let source = tetra::programs::primes(limit as i64, 64);
    let expected = format!("primes below {limit}: {}\n", count_primes_below(limit));
    Case { source, expected }
}

/// Sieve of Eratosthenes: the number of primes `< limit`.
pub fn count_primes_below(limit: u64) -> u64 {
    let n = limit as usize;
    if n < 3 {
        return 0;
    }
    let mut composite = vec![false; n];
    let mut count = 0;
    for i in 2..n {
        if !composite[i] {
            count += 1;
            let mut j = i * i;
            while j < n {
                composite[j] = true;
                j += i;
            }
        }
    }
    count
}

/// Every iteration allocates a string and an array and adds to a shared
/// dict under `lock totals`; every eighth retains its string in a shared
/// array under `lock keep`, so collections always have live data to
/// trace. The seed adds up to 1% to the iteration count and picks the
/// key count and a multiplier from a range narrow enough that the
/// strings' lengths, and so the bytes allocated and the number of
/// collections, barely change between seeds.
fn alloc_lock(rng: &mut SplitMix64, size: u64) -> Case {
    let n = size + rng.below(size / 100 + 1);
    let keys = 5 + rng.below(7);
    let mult = 10_000 + rng.below(1_000);
    let dict: Vec<String> = (0..keys).map(|k| format!("\"k{k}\": 0")).collect();
    let source = format!(
        "\
def main():
    n = {n}
    totals = {{{dict}}}
    keep = [\"start\"]
    parallel for i in [1 ... n]:
        item = \"item-\" + str(i * {mult})
        parts = [i, len(item)]
        append(parts, i % {keys})
        key = \"k\" + str(parts[2])
        lock totals:
            totals[key] += parts[1]
        if i % 8 == 0:
            lock keep:
                append(keep, item)
    ks = keys(totals)
    sort(ks)
    for k in ks:
        print(k, \" \", totals[k])
    kept = 0
    for s in keep:
        kept += len(s)
    print(\"kept \", len(keep) - 1, \" \", kept)
",
        dict = dict.join(", ")
    );

    let mut totals = vec![0u64; keys as usize];
    let mut kept_len = "start".len() as u64;
    for i in 1..=n {
        let len = ("item-".len() + (i * mult).to_string().len()) as u64;
        totals[(i % keys) as usize] += len;
        if i % 8 == 0 {
            kept_len += len;
        }
    }
    // The program sorts the key strings, so "k10" comes before "k2".
    let mut names: Vec<(String, u64)> =
        totals.iter().enumerate().map(|(k, t)| (format!("k{k}"), *t)).collect();
    names.sort();
    let mut expected = String::new();
    for (name, total) in names {
        writeln!(expected, "{name} {total}").expect("write to String");
    }
    writeln!(expected, "kept {} {kept_len}", n / 8).expect("write to String");
    Case { source, expected }
}

/// `size` functions, each called once from `main` with its own index.
/// Eight in ten are sequential loops; one in ten runs a `parallel for`
/// with a `lock` block, and one in ten a two-arm `parallel:` block. The
/// seed picks each function's kind and constant.
fn big_source(rng: &mut SplitMix64, size: u64) -> Case {
    let mut source = String::new();
    let mut total: i64 = 0;
    for i in 0..size {
        let c = 1 + rng.below(99);
        let (ii, ci) = (i as i64, c as i64);
        match rng.below(10) {
            0 => {
                write!(
                    source,
                    "def f{i}(x int) int:\n    total = x\n    parallel for k in [1 ... 8]:\n        v = k * {c}\n        lock acc:\n            total += v\n    return total\n\n"
                )
                .expect("write to String");
                total += ii + 36 * ci;
            }
            1 => {
                write!(
                    source,
                    "def f{i}(x int) int:\n    parallel:\n        a = x * {c}\n        b = x + {c}\n    return a + b\n\n"
                )
                .expect("write to String");
                total += ii * ci + ii + ci;
            }
            _ => {
                write!(
                    source,
                    "def f{i}(x int) int:\n    total = x\n    for k in [1 ... 10]:\n        if k % 2 == 0:\n            total += k * {c}\n        else:\n            total -= k\n    return total\n\n"
                )
                .expect("write to String");
                // Adds c·(2+4+6+8+10) and subtracts 1+3+5+7+9.
                total += ii + 30 * ci - 25;
            }
        }
    }
    source.push_str("def main():\n    total = 0\n");
    for i in 0..size {
        writeln!(source, "    total += f{i}({i})").expect("write to String");
    }
    source.push_str("    print(total)\n");
    Case { source, expected: format!("{total}\n") }
}
