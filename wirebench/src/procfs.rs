//! Sampling server processes through `/proc/<pid>`.
//!
//! CPU time is read per thread from `/proc/<pid>/task/<tid>/schedstat`
//! (nanoseconds on CPU) rather than from the `utime`/`stime` fields of
//! `/proc/<pid>/stat`, which are reported in clock ticks of 10 ms: a
//! cached verdict costs well under one tick, so a tick count over a short
//! window is mostly quantization.

use std::collections::HashMap;
use std::fs;

/// Nanoseconds on CPU from a `schedstat` line (`<run_ns> <wait_ns> <slices>`).
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// A `kB` field such as `VmHWM:    1234 kB` from `/proc/<pid>/status`.
pub fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// CPU nanoseconds of every live thread of `pid`, keyed by thread id.
pub fn thread_cpu_ns(pid: u32) -> HashMap<u32, u64> {
    let mut out = HashMap::new();
    let Ok(dir) = fs::read_dir(format!("/proc/{pid}/task")) else { return out };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let path = entry.path().join("schedstat");
        if let Some(ns) = fs::read_to_string(path).ok().as_deref().and_then(parse_schedstat) {
            out.insert(tid, ns);
        }
    }
    out
}

/// CPU nanoseconds spent between two [`thread_cpu_ns`] samples. A thread
/// born in between counts in full; a thread that ended in between is lost
/// (the kernel keeps no per-thread record of it), which undercounts only
/// short-lived helper threads, never the keep-alive connection handlers.
pub fn cpu_delta_ns(before: &HashMap<u32, u64>, after: &HashMap<u32, u64>) -> u64 {
    after.iter().map(|(tid, &ns)| ns.saturating_sub(before.get(tid).copied().unwrap_or(0))).sum()
}

/// Peak resident set (`VmHWM`) of `pid` in kB, `0` if unreadable.
pub fn peak_rss_kb(pid: u32) -> u64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|text| parse_status_kb(&text, "VmHWM"))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_first_field_is_run_time() {
        assert_eq!(parse_schedstat("123456789 2000 17\n"), Some(123_456_789));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn status_fields_are_found_by_exact_key() {
        let status = "Name:\tcoqld\nVmPeak:\t  20000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(5120));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(4096));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        // A key that is a prefix of another must not match it.
        assert_eq!(parse_status_kb("VmHWMX:\t 1 kB\n", "VmHWM"), None);
    }

    #[test]
    fn cpu_delta_counts_new_threads_and_skips_ended_ones() {
        let before = HashMap::from([(1, 100), (2, 50)]);
        let after = HashMap::from([(1, 160), (3, 25)]);
        assert_eq!(cpu_delta_ns(&before, &after), 60 + 25);
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(!thread_cpu_ns(pid).is_empty());
        assert!(peak_rss_kb(pid) > 0);
    }
}
