//! Process CPU time, peak memory and thread count, and the host's stolen
//! CPU time, read from `/proc`; and the allocator settings a run holds.

/// Size from which glibc serves an allocation with a mapping of its own:
/// the ceiling of glibc's adaptive threshold on 64-bit hosts.
pub const MMAP_THRESHOLD: i32 = 32 << 20;
/// Free heap top glibc keeps before giving memory back: twice the mmap
/// threshold, as glibc's adaptive rule sets it.
pub const TRIM_THRESHOLD: i32 = 2 * MMAP_THRESHOLD;

/// Puts glibc's allocator in the state its adaptive rule aims for, from the
/// start of the run, so that large buffers are recycled in the heap.
///
/// By default glibc raises its mmap threshold, and the trim threshold with
/// it, to the size of each mapped chunk it frees. Where the two end up
/// depends on the order in which the first large buffers were freed, and on
/// `bulk-array` identical runs settled 14 times apart in page faults per
/// call (38 against 540) and a third apart in `calls_per_s`. Set to the
/// adaptive rule's ceiling, every run recycles buffers of up to 4 MiB in
/// the heap (about one page fault per call) and stays there.
pub fn pin_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: mallopt only changes allocator parameters; it is called
        // first thing in `main`, before any other thread exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD);
            mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD);
        }
    }
}

/// Clock ticks per second of `/proc/self/stat` CPU times (Linux's fixed
/// `USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU time of the whole process so far, in seconds.
pub fn cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    cpu_s_from_stat(&stat)
}

fn cpu_s_from_stat(stat: &str) -> f64 {
    // Fields after the parenthesised command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
    let field = |n: usize| {
        rest.split_whitespace()
            .nth(n - 3)
            .and_then(|f| f.parse::<u64>().ok())
    };
    (field(14).unwrap_or(0) + field(15).unwrap_or(0)) as f64 / TICKS_PER_S
}

/// A numeric field of `/proc/self/status` (`VmHWM` is in KiB).
pub fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_field_in(&status, name)
}

fn status_field_in(status: &str, name: &str) -> Option<u64> {
    status.lines().find_map(|l| {
        let v = l.strip_prefix(name)?.strip_prefix(':')?;
        v.split_whitespace().next()?.parse().ok()
    })
}

/// The machine's CPU ticks so far as `(stolen, total)`: time a hypervisor
/// ran something else while a virtual CPU of this machine wanted to run.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    steal_ticks_in(&stat)
}

fn steal_ticks_in(stat: &str) -> (u64, u64) {
    // First line: "cpu user nice system idle iowait irq softirq steal ...".
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_and_status() {
        let stat = "42 (a (tricky) name) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 7 0";
        assert_eq!(cpu_s_from_stat(stat), 3.0);
        let status = "Name:\tx\nVmHWM:\t  20480 kB\nThreads:\t12\n";
        assert_eq!(status_field_in(status, "VmHWM"), Some(20480));
        assert_eq!(status_field_in(status, "Threads"), Some(12));
        assert_eq!(status_field_in(status, "VmRSS"), None);
        assert!(cpu_s() >= 0.0 && status_field("Threads").is_some());
        let stat = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3\n";
        assert_eq!(steal_ticks_in(stat), (35, 1000));
    }
}
