//! Peak resident set size of the current process.

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text,
/// in MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kib / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set in MiB, where `/proc` provides it.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}
