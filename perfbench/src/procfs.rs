//! Readers for the `/proc` counters every run records: CPU time, host
//! steal time and peak resident memory. The workspace takes no external
//! crates, so these parse the kernel's text files directly.

use std::fs;

/// Clock ticks per second of the `/proc/stat` and `/proc/self/stat`
/// counters (`USER_HZ`, 100 on every Linux ABI this runs on).
const USER_HZ: f64 = 100.0;

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// CPU time of the calling thread in seconds, at nanosecond resolution
/// (`/proc/thread-self/schedstat`, first field). Exact for work that
/// stays on one thread.
///
/// The kernel folds a running thread's time into that counter only at a
/// scheduler tick or switch, so a plain read lags by up to a tick (4 ms
/// at 250 Hz); yielding first forces the update.
pub fn thread_cpu_s() -> Result<f64, String> {
    std::thread::yield_now();
    let text = read("/proc/thread-self/schedstat")?;
    let ns: u64 = text
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or("malformed /proc/thread-self/schedstat")?;
    Ok(ns as f64 * 1e-9)
}

/// CPU time (user + system) of the whole process in seconds, including
/// threads that have already exited (`/proc/self/stat` fields 14 and 15,
/// in clock ticks).
pub fn process_cpu_s() -> Result<f64, String> {
    let text = read("/proc/self/stat")?;
    // the command name may contain spaces; fields resume after its ')'
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    // fields[0] is field 3 (state): utime is field 14, stime field 15
    Ok(tick(11)? + tick(12)?)
}

/// Host-wide steal time in seconds since boot, summed over all CPUs
/// (`/proc/stat`, aggregate `cpu` line, eighth counter).
pub fn host_steal_s() -> Result<f64, String> {
    let text = read("/proc/stat")?;
    let line = text
        .lines()
        .find(|l| l.starts_with("cpu "))
        .ok_or("no aggregate cpu line in /proc/stat")?;
    let steal: u64 = line
        .split_whitespace()
        .nth(8)
        .and_then(|f| f.parse().ok())
        .ok_or("malformed /proc/stat cpu line")?;
    Ok(steal as f64 / USER_HZ)
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let text = read("/proc/self/status")?;
    let kb: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_readable_and_monotonic() {
        let t0 = thread_cpu_s().unwrap();
        let p0 = process_cpu_s().unwrap();
        let mut x = 0u64;
        // well under one scheduler tick: the yield must still show it
        for i in 0..200_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(thread_cpu_s().unwrap() > t0);
        assert!(process_cpu_s().unwrap() >= p0);
        assert!(host_steal_s().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
