//! Small numeric and process helpers shared by the workloads.

/// Median of `values` (NaN-free); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linearly interpolated quantile `q` in `[0, 1]`; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The 95th percentile, or the highest lower tail percentile that still
/// has at least ten samples above it, as `(q, value)`. With fewer than
/// twenty samples no tail percentile qualifies and the median is returned
/// (`q = 0.5`).
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    let q = [95, 90, 75]
        .into_iter()
        .find(|pct| n * (100 - pct) >= 1000)
        .map_or(0.5, |pct| pct as f64 / 100.0);
    (q, quantile(values, q))
}

/// User plus system CPU seconds of this process, all threads included
/// (`/proc/self/stat`, in units of the kernel's 100 Hz user clock).
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name start at `state`;
            // `utime` and `stime` are the 14th and 15th fields overall.
            let rest = &stat[stat.rfind(')')? + 1..];
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let ticks = |i: usize| fields.get(i)?.parse::<f64>().ok();
            Some((ticks(11)? + ticks(12)?) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Host-wide CPU time counters from the first line of `/proc/stat`:
/// `(steal, total)` in clock ticks.
pub fn host_ticks() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let fields: Vec<u64> = stat
                .lines()
                .next()?
                .split_whitespace()
                .skip(1)
                .filter_map(|f| f.parse().ok())
                .collect();
            // user nice system idle iowait irq softirq steal guest guest_nice;
            // guest time is already counted in user and nice.
            Some((*fields.get(7)?, fields.iter().take(8).sum()))
        })
        .unwrap_or((0, 0))
}

/// Share of the host's CPU time the hypervisor gave to other machines
/// between two [`host_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size of this process in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// A `kB` field of `/proc/self/status`, in MiB; 0 if it cannot be read.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over `bytes`: a stable fingerprint for pinned program texts.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail(&few).0, 0.5);
        let many: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&many).0, 0.95);
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&hundred).0, 0.9);
        let lots: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&lots).0, 0.95);
    }
}
