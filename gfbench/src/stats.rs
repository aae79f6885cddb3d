//! The one percentile rule every metric uses, and the process's peak
//! resident memory.

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are at or below it (rank `ceil(p/100 · n)`,
/// 1-based, clamped to `[1, n]`).  It always returns one of the samples,
/// so a percentile of integer tick counts is itself an integer and
/// repeats exactly when the samples do.
///
/// # Panics
///
/// On an empty sample set or a `p` outside `[0, 100]`: every metric is
/// computed from at least one sample, so either is a bug in the caller.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile {p} outside [0, 100]"
    );
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile`] at 50.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`), or `None` where the kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
