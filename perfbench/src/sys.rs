//! Process CPU time from `getrusage(2)`, and peak resident memory from
//! `/proc/self/status`.
//!
//! The layout below is Linux's `struct rusage` on 64-bit targets: two
//! `timeval`s of two `long`s each, then fourteen `long` counters.

use std::os::raw::{c_int, c_long};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [c_long; 14],
}

const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// User plus system CPU time of the whole process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut u = Rusage::default();
    // SAFETY: `u` is a live, writable `struct rusage` with the C layout,
    // and RUSAGE_SELF is a valid `who`; the call only writes it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid buffer");
    let micros = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    (micros(&u.ru_utime) + micros(&u.ru_stime)) * 1_000
}

/// Peak resident set size of the process so far, in MiB.
///
/// `VmHWM` rather than `ru_maxrss`: the latter survives `execve`, so under
/// `cargo run` it would report cargo's own peak whenever that is larger.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse::<f64>().ok())
        .ok_or("/proc/self/status has no VmHWM line")?;
    Ok(kib / 1024.0)
}
