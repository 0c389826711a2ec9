//! Latency summaries and process resource readings.

/// Value at quantile `q` (0..=1) of `sorted`, by the nearest-rank rule.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (need not be sorted).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The value of `sorted` at percentile `p` and the number of samples
/// beyond it.
pub fn tail(sorted: &[f64], p: f64) -> (f64, usize) {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    (quantile(sorted, p / 100.0), sorted.len().saturating_sub(rank.max(1)))
}

/// User + system CPU time of this process so far, in seconds, from
/// `/proc/self/stat` (clock ticks at the kernel's `USER_HZ` of 100).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 2..]) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_counts_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 90.0), (90.0, 10));
        assert_eq!(tail(&v, 75.0), (75.0, 25));
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&few, 80.0), (4.0, 1));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
