//! Latency summaries and process memory.

/// Percentiles a tail figure may land on, lowest first: p50, p90 and p99,
/// in hundredths of a percent so ranks are exact integers. A run reports
/// the highest one that still has at least [`TAIL_MIN_BEYOND`] samples
/// beyond it. Decade steps keep a workload on the same step from run to
/// run while its sample count moves. The ladder stops at p99: on a shared
/// host the few samples beyond p99.9 are the moments the host was
/// preempted, not the program's own tail.
const TAIL_LADDER: [usize; 3] = [5000, 9000, 9900];

/// Samples that must lie beyond a percentile for it to count as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median and tail of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub samples: usize,
    /// The median (mean of the two middle values for an even count).
    pub p50: f64,
    /// The value at [`Summary::tail_pct`].
    pub tail: f64,
    /// The tail's percentile: the highest ladder step with at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it, or 100 (the maximum) when the
    /// sample is too small for any step.
    pub tail_pct: f64,
    /// Samples strictly beyond the tail's rank.
    pub beyond: usize,
}

/// Summarizes a sample; `None` when it is empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let p50 = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    };
    // Nearest rank: the p-th percentile is the value of 1-based rank
    // ceil(p/100 * n), and `n - rank` samples lie beyond it.
    let mut tail = (sorted[n - 1], 100.0, 0);
    for step in TAIL_LADDER {
        let rank = (step * n).div_ceil(10_000).max(1);
        if n - rank >= TAIL_MIN_BEYOND {
            tail = (sorted[rank - 1], step as f64 / 100.0, n - rank);
        }
    }
    Some(Summary {
        samples: n,
        p50,
        tail: tail.0,
        tail_pct: tail.1,
        beyond: tail.2,
    })
}

/// The median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.p50)
}

/// Peak resident set size of this process in MiB (`VmHWM`), on Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line.split_whitespace().skip(1);
    let value: f64 = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn tail_is_the_highest_step_with_ten_samples_beyond() {
        // 1..=1000: p99 has rank 990 and 10 samples beyond; p99.9 only 1.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&values).unwrap();
        assert_eq!(
            (s.samples, s.tail_pct, s.tail, s.beyond),
            (1000, 99.0, 990.0, 10)
        );
        assert_eq!(s.p50, 500.5);

        // 999 samples, reversed: p99 keeps only 9 beyond, so p90 it is.
        let values: Vec<f64> = (1..=999).rev().map(f64::from).collect();
        let s = summarize(&values).unwrap();
        assert_eq!((s.tail_pct, s.tail, s.beyond), (90.0, 900.0, 99));

        // 100,000 samples stop at p99, the top of the ladder.
        let values: Vec<f64> = (1..=100_000).map(f64::from).collect();
        let s = summarize(&values).unwrap();
        assert_eq!((s.tail_pct, s.tail, s.beyond), (99.0, 99_000.0, 1000));
    }

    #[test]
    fn small_samples_fall_back_to_the_maximum() {
        let s = summarize(&[5.0, 1.0, 9.0]).unwrap();
        assert_eq!((s.tail_pct, s.tail, s.beyond), (100.0, 9.0, 0));
        // Exactly 20 samples: the median has 10 beyond.
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        let s = summarize(&values).unwrap();
        assert_eq!((s.tail_pct, s.tail, s.beyond), (50.0, 10.0, 10));
    }

    #[test]
    fn reads_vm_hwm_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  99999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480.0));
        assert_eq!(parse_vm_hwm_kb("VmRSS: 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM: 12 MB\n"), None);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        }
    }
}
