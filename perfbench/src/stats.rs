//! Digests and order statistics.

/// FNV-1a (64-bit) over the concatenation of `parts`.
pub fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The output digest the benchmark pins and compares: FNV-1a over a
/// campaign's `records.csv` followed by its `metrics.json`.
pub fn output_digest(records_csv: &str, metrics_json: &str) -> u64 {
    fnv1a(&[records_csv.as_bytes(), metrics_json.as_bytes()])
}

/// A reported percentile must have at least this many samples beyond it.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank `p`-th percentile of `sorted` (ascending).
///
/// # Errors
///
/// Fewer than [`MIN_TAIL`] samples lie beyond the percentile: the value
/// would rest on too few observations to report.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n.max(1) as f64) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_TAIL {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; at least {MIN_TAIL} are needed"
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median of `values` (mean of the two middle values for an even count);
/// `0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// This process's peak resident set (`VmHWM`) in MiB, if the platform
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
