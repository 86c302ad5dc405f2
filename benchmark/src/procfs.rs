//! Process accounting read from `/proc/self`: CPU time and peak memory.
//!
//! CPU time comes from `/proc/self/stat` (`utime + stime`, all threads,
//! exited ones included), which advances in clock ticks of 10 ms; only
//! deltas over whole runs of seconds are reported from it.

/// `sysconf(_SC_CLK_TCK)` on every Linux this runs on; the kernel has
/// exported USER_HZ = 100 to user space since 2.6 whatever its own HZ.
const TICKS_PER_SEC: f64 = 100.0;

/// Parses `utime + stime`, in seconds, out of a `/proc/<pid>/stat` line.
///
/// Field 2 (`comm`) is the executable name in parentheses and may itself
/// hold spaces and parentheses, so fields are counted from the *last*
/// `)`: `utime` and `stime` are fields 14 and 15, the 12th and 13th
/// after it.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// Parses `VmHWM` (peak resident set), in MB, out of `/proc/<pid>/status`.
pub fn parse_status_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds this process has used so far.
///
/// # Panics
///
/// Panics where `/proc/self/stat` is missing or malformed: the benchmark
/// cannot report `cpu_us_per_msg` without it, and says so at once.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_seconds(&stat).expect("utime and stime in /proc/self/stat")
}

/// Peak resident set of this process so far, in MB.
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_peak_rss_mb(&status).expect("VmHWM in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_last_paren() {
        // A real line, with utime = 1234 and stime = 66.
        let plain = "4242 (crusader_benchm) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                     1234 66 0 0 20 0 3 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu_seconds(plain), Some(13.0));
        // The same with a hostile executable name.
        let hostile = plain.replace("(crusader_benchm)", "(a b) R (c) 7 8 9)");
        assert_eq!(parse_stat_cpu_seconds(&hostile), Some(13.0));
    }

    #[test]
    fn truncated_or_garbled_stat_is_rejected() {
        assert_eq!(parse_stat_cpu_seconds(""), None);
        assert_eq!(parse_stat_cpu_seconds("1 (x) R 1 2 3"), None);
        assert_eq!(
            parse_stat_cpu_seconds("1 (x) R 1 1 1 0 -1 0 0 0 0 0 abc 66 0"),
            None
        );
    }

    #[test]
    fn peak_rss_reads_vmhwm() {
        let status = "Name:\tx\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_peak_rss_mb(status), Some(20.0));
        assert_eq!(parse_status_peak_rss_mb("Name:\tx\n"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
