//! Process counters read from `/proc/self`: peak resident set size and
//! CPU time. Parsing is split from reading so the tests can feed fixed
//! text.

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on
/// every architecture the kernel ABI exposes to user space.
pub const TICKS_PER_SECOND: f64 = 100.0;

/// The `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix("VmHWM:")?;
        let mut parts = rest.split_whitespace();
        let value = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(value)
    })
}

/// `utime + stime` (fields 14 and 15) of `/proc/<pid>/stat`, in ticks.
/// The command name (field 2) may hold spaces and parentheses, so the
/// fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace();
    // `after` starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = parse_vm_hwm_kb(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// User plus system CPU time of this process (all threads), in ticks.
pub fn cpu_ticks() -> Result<u64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    parse_cpu_ticks(&stat).ok_or_else(|| "unparseable /proc/self/stat".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51234));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
    }

    #[test]
    fn cpu_ticks_sum_utime_and_stime() {
        // Fields 14 and 15 are 120 and 35; the name holds ") (" to show
        // that counting starts after the last parenthesis.
        let stat =
            "4242 (perf) (bench) S 1 4242 4242 0 -1 4194560 500 0 0 0 120 35 0 0 20 0 3 0 100 0 0";
        assert_eq!(parse_cpu_ticks(stat), Some(155));
        assert_eq!(parse_cpu_ticks("4242 (x) S 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis 1 2 3"), None);
    }

    #[test]
    fn live_process_counters_are_readable() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        cpu_ticks().unwrap();
    }
}
