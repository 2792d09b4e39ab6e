//! Metric declarations and the result line.

use crate::replay::tail_metric_names;
use std::fmt::Write as _;

/// End-to-end metrics, reported by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("runs_per_s", "1/s"),
    ("setup_s", "s"),
    ("run_ms.p50", "ms"),
    ("run_ms.p90", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by traced runs: `(name, unit)`. A name
/// ending in `.s` is the summed self time of the spans named by its
/// prefix.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("golden.s", "s"),
        ("golden.cycles", "cycles"),
        ("golden.snapshots", "count"),
        ("emu.s", "s"),
        ("emu.steps", "steps"),
        ("emu.steps_per_s", "steps/s"),
        ("restore.s", "s"),
        ("restore.forked", "count"),
        ("restore.cold", "count"),
        ("pre.s", "s"),
        ("pre.cycles", "cycles"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for name in tail_metric_names() {
        let unit = match name.rsplit('.').next() {
            Some("s") => "s",
            Some("runs") => "count",
            Some("cycles") => "cycles",
            _ => "insts",
        };
        out.push((name, unit));
    }
    out.extend(
        [
            ("classify.s", "s"),
            ("export.s", "s"),
            ("export.bytes", "bytes"),
            ("smt.golden.s", "s"),
            ("smt.run.s", "s"),
            ("smt.cycles", "cycles"),
            ("shard.decode.s", "s"),
            ("shard.merge.s", "s"),
            ("shard.bytes", "bytes"),
            ("net.wall_s", "s"),
            ("net.overhead_s", "s"),
            ("net.shards_retried", "count"),
            ("net.artifacts_duplicate", "count"),
            ("trace.coverage", "ratio"),
            ("trace.overhead", "ratio"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    out
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics` (`name -> {value, unit}`).
///
/// # Errors
///
/// A metric value that is not a finite number.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64, &str)],
) -> Result<String, String> {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    Ok(s)
}
