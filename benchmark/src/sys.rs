//! What the benchmark reads from, and clears in, its own process.

/// Removes the variables through which the crates let the environment
/// resize or redirect a run (`PROTEUS_THREADS`, `PROTEUS_DATA_SCALE`,
/// `PROTEUS_OBS_OUT`, `PROTEUS_CHAOS_*`, ...), so every run measures the
/// load this package fixes. Call first thing in `main`, before any
/// thread exists.
pub fn scrub_env() {
    let ambient: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PROTEUS_") || k == "AGILE_DEBUG")
        .collect();
    for key in ambient {
        std::env::remove_var(key);
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds (user + system, all threads, live or ended) this process
/// has used: `utime + stime` of `/proc/self/stat`, in clock ticks, which
/// Linux reports at 100 Hz (`USER_HZ`) on every architecture. A timed
/// region is a second or more, so a tick is under 1 % of it.
pub fn cpu_seconds() -> Option<f64> {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14, 15.
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_plausible() {
        let rss = peak_rss_mb().expect("VmHWM readable");
        assert!(rss > 0.5 && rss < 1e6, "{rss}");
        let before = cpu_seconds().expect("stat readable");
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let after = cpu_seconds().unwrap();
        assert!(after > before, "{before} -> {after}");
    }
}
