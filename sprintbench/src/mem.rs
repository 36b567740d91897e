//! Host memory from `/proc/self/status`, without dependencies.

/// The value of a `kB` field (`VmHWM`, `VmRSS`, ...) in a
/// `/proc/<pid>/status` text, in kilobytes.
pub fn status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let mut parts = rest.split_whitespace();
        let kb = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(kb)
    })
}

/// Reads one field of this process's status, in megabytes (`None` off
/// Linux or if the field is missing).
pub fn self_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_kb(&status, field).map(|kb| kb as f64 / 1024.0)
}

/// Peak resident set so far, megabytes.
pub fn peak_rss_mb() -> f64 {
    self_mb("VmHWM").unwrap_or(f64::NAN)
}

/// Current resident set, megabytes.
pub fn rss_mb() -> f64 {
    self_mb("VmRSS").unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "Name:\tsprintbench\nVmPeak:\t 2048000 kB\nVmHWM:\t  123456 kB\n\
                          VmRSS:\t   65536 kB\nThreads:\t3\n";

    #[test]
    fn parses_kilobyte_fields() {
        assert_eq!(status_kb(SAMPLE, "VmHWM"), Some(123_456));
        assert_eq!(status_kb(SAMPLE, "VmRSS"), Some(65_536));
        assert_eq!(status_kb(SAMPLE, "VmPeak"), Some(2_048_000));
    }

    #[test]
    fn rejects_missing_unitless_and_prefix_fields() {
        assert_eq!(status_kb(SAMPLE, "VmSwap"), None);
        // `Threads` has no kB unit; `Vm` is only a prefix of real fields.
        assert_eq!(status_kb(SAMPLE, "Threads"), None);
        assert_eq!(status_kb(SAMPLE, "Vm"), None);
        assert_eq!(status_kb("VmHWM:\tlots kB\n", "VmHWM"), None);
    }

    #[test]
    fn reads_this_process() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
            assert!(rss_mb() <= peak_rss_mb());
        }
    }
}
