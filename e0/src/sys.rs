//! What the benchmark reads from the operating system: process CPU time,
//! peak resident set, core count, and the checkout's git revision.

use std::time::Duration;

mod cpu_clock {
    /// `struct timespec` of 64-bit Linux, the only platform the
    /// repository is built on.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    pub fn process_cpu_ns() -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` writes one `timespec` through the
        // pointer, which is a live, exclusively borrowed local of exactly
        // that layout on 64-bit Linux; it keeps no reference afterwards.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        if rc != 0 {
            return 0;
        }
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }
}

/// CPU time (user + system, all threads) this process has used so far.
///
/// `/proc/self/stat` counts the same time in 10 ms ticks, too coarse to
/// charge to one sub-millisecond iteration; the process CPU clock has
/// nanosecond resolution, so this is the one foreign call the benchmark
/// makes.
pub fn process_cpu() -> Duration {
    Duration::from_nanos(cpu_clock::process_cpu_ns())
}

/// Peak resident set size (`VmHWM`) in MB; 0 when `/proc` is unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores the scheduler gives this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's git revision, read from `.git` without spawning a
/// process; `"unknown"` outside a git checkout (the driver's copies).
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".to_owned(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| head.clone(), |s| s.trim().to_owned()),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_and_rss_reads() {
        let a = process_cpu();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        let b = process_cpu();
        assert!(b > a, "cpu clock did not advance: {a:?} {b:?} ({x})");
        assert!(peak_rss_mb() > 0.0);
        assert!(host_cores() >= 1);
    }
}
