//! Process-level counters from `/proc/self` (Linux only; the benchmark
//! refuses to run where they are missing rather than report zeros).

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, 100 on every Linux ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// Cumulative process counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User + system CPU time of all threads, live or exited.
    pub cpu_ms: f64,
    /// Voluntary + involuntary context switches, summed over live threads.
    pub ctx_switches: u64,
    pub threads: u64,
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix(key))?;
    rest.trim_start_matches(':').split_whitespace().next()?.parse().ok()
}

pub fn sample() -> std::io::Result<ProcSample> {
    let stat = fs::read_to_string("/proc/self/stat")?;
    // The command name (field 2) may contain spaces; fields count from the
    // closing parenthesis. utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    let cpu_ms = (ticks(11) + ticks(12)) * 1000.0 / TICKS_PER_SEC;

    let mut ctx_switches = 0;
    let mut threads = 0;
    for task in fs::read_dir("/proc/self/task")? {
        // A thread may exit between the listing and the read.
        let Ok(status) = fs::read_to_string(task?.path().join("status")) else { continue };
        threads += 1;
        ctx_switches += status_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
            + status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
    }
    Ok(ProcSample { cpu_ms, ctx_switches, threads })
}

/// Peak resident set size of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> std::io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status_field(&status, "VmHWM")
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse_with_units_and_tabs() {
        let status = "Name:\tx\nVmHWM:\t    1820 kB\nvoluntary_ctxt_switches:\t12\n\
                      nonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "VmHWM"), Some(1820));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(12));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), Some(3));
        assert_eq!(status_field(status, "VmPeak"), None);
    }
}
