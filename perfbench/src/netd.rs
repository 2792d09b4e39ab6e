//! The served workload: the campaign's shards dispatched over loopback
//! TCP by `idld_bench::netd::serve_campaign` to worker processes, which
//! are this benchmark's own executable started with `--connect`.
//!
//! Runs inside the workers raise no callback in this process, so per-run
//! latency and set-up come from the shard artifacts' per-cell timings
//! (see [`crate::measure::from_cell_timings`]), and peak memory is the
//! largest worker's, which each worker reports through a file in
//! [`RSS_DIR_ENV`] before it exits.

use crate::measure::{from_cell_timings, Rep};
use crate::stats::{output_digest, peak_rss_mib};
use crate::trace::{Counters, Tracer};
use crate::Bench;
use idld_campaign::campaign::{FF_ENV, RUNS_PER_CELL_ENV, SEED_ENV, THREADS_ENV};
use idld_campaign::ledger::part_path;
use idld_campaign::{decode_shard, merge_shards, ShardArtifact};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Environment variable naming the directory a worker writes its peak
/// resident set (MiB) to, as `rss-<pid>`, when its campaign work is done.
pub const RSS_DIR_ENV: &str = "PERFBENCH_RSS_DIR";

/// Pins the job template `serve_campaign` reads from the environment to
/// `bench`'s configuration, except the seed ([`serve_once`] sets it).
/// Call before any thread starts: workers inherit the environment.
pub fn configure_env(bench: Bench, rss_dir: &Path) {
    for (key, _) in std::env::vars_os() {
        if key.to_str().is_some_and(|k| k.starts_with("IDLD_")) {
            std::env::remove_var(key);
        }
    }
    let cfg = bench.config(0);
    std::env::set_var(RUNS_PER_CELL_ENV, cfg.runs_per_cell.to_string());
    std::env::set_var(FF_ENV, if cfg.ff { "1" } else { "0" });
    std::env::set_var(THREADS_ENV, cfg.threads.to_string());
    std::env::set_var(idld_bench::WORKLOAD_SCALE_ENV, bench.scale().to_string());
    std::env::set_var(RSS_DIR_ENV, rss_dir);
}

/// Worker mode: serves campaign shards for the coordinator at `addr`,
/// then reports this process's peak resident set.
///
/// # Errors
///
/// The worker protocol's, or a failed report.
pub fn worker(addr: &str) -> Result<(), String> {
    idld_bench::netd::connect_worker(addr)?;
    if let (Ok(dir), Some(mib)) = (std::env::var(RSS_DIR_ENV), peak_rss_mib()) {
        let path = Path::new(&dir).join(format!("rss-{}", std::process::id()));
        std::fs::write(&path, mib.to_string())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// One served campaign: its measurement plus what the traced pass
/// reports about the service.
#[derive(Debug)]
pub struct Served {
    /// The end-to-end measurement.
    pub rep: Rep,
    /// Peak resident set of the largest worker, in MiB.
    pub peak_rss_mib: f64,
    /// Coordinator-side service wall time, in seconds.
    pub service_wall_s: f64,
    /// The busiest shard's summed per-run work, in seconds.
    pub busiest_work_s: f64,
    /// Service counters (`shards_retried`, `artifacts_duplicate`, …).
    pub counters: BTreeMap<&'static str, u64>,
}

/// Serves `bench`'s campaign at `seed` once to its worker processes,
/// persisting artifacts under `dir` (created fresh). `rss_dir` is the
/// directory [`configure_env`] pointed the workers at. Sets the seed in
/// the environment; no other thread of this process reads it meanwhile.
///
/// # Errors
///
/// Any service, merge or artifact error.
pub fn serve_once(bench: Bench, seed: u64, dir: &Path, rss_dir: &Path) -> Result<Served, String> {
    std::env::set_var(SEED_ENV, seed.to_string());
    let workers = bench.served_workers();
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate executable: {e}"))?;
    let t0 = Instant::now();
    let (merged, outcome, service_wall_s) =
        idld_bench::netd::serve_campaign("127.0.0.1:0", workers, dir, false, workers, &exe, false)?;
    let wall = t0.elapsed();

    let parts = read_parts(dir, workers)?;
    let mut setup_s = 0f64;
    let mut busiest_work_s = 0f64;
    for p in &parts {
        let wall = Duration::from_micros(u64::try_from(p.wall_us).unwrap_or(u64::MAX));
        let (setup, _) = from_cell_timings(wall, &p.timings);
        setup_s = setup_s.max(setup);
        let work: Duration = p.timings.iter().map(|c| c.total).sum();
        busiest_work_s = busiest_work_s.max(work.as_secs_f64());
    }
    let (_, run_ms) = from_cell_timings(wall, &merged.timings);
    let rep = Rep {
        wall_s: wall.as_secs_f64(),
        setup_s,
        run_ms,
        rows: merged.records.iter().map(|(_, row)| row.clone()).collect(),
        digest: output_digest(&merged.records_csv(), &merged.metrics_json()),
    };
    let peak_rss_mib = take_worker_rss(rss_dir)?;
    let counters = outcome.metrics.counters().collect();
    Ok(Served {
        rep,
        peak_rss_mib,
        service_wall_s,
        busiest_work_s,
        counters,
    })
}

fn read_parts(dir: &Path, shards: usize) -> Result<Vec<ShardArtifact>, String> {
    (0..shards)
        .map(|i| {
            let path = part_path(dir, i);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            decode_shard(&text).map_err(|e| format!("shard {i}: {e}"))
        })
        .collect()
}

/// The largest peak resident set the workers reported, in MiB; consumes
/// the reports.
fn take_worker_rss(rss_dir: &Path) -> Result<f64, String> {
    let mut peak = 0f64;
    let entries = std::fs::read_dir(rss_dir)
        .map_err(|e| format!("cannot list {}: {e}", rss_dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mib: f64 = text
            .trim()
            .parse()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        peak = peak.max(mib);
        let _ = std::fs::remove_file(&path);
    }
    if peak > 0.0 {
        Ok(peak)
    } else {
        Err(format!(
            "no worker reported its memory in {}",
            rss_dir.display()
        ))
    }
}

/// The served workload's traced pass: one service at `seed` under a span
/// in `tr`, then the artifacts decoded and merged again under their own
/// spans. Returns the layer counters and the merged rows.
///
/// # Errors
///
/// Any service, artifact or merge error.
pub fn traced(
    tr: &mut Tracer,
    bench: Bench,
    seed: u64,
    dir: &Path,
    rss_dir: &Path,
) -> Result<(Counters, Vec<String>), String> {
    let s = tr.open("net.serve", None);
    let served = serve_once(bench, seed, dir, rss_dir)?;
    tr.close(s);

    let mut parts = Vec::new();
    let mut bytes = 0usize;
    for i in 0..bench.served_workers() {
        let path = part_path(dir, i);
        let s = tr.open("shard.read", None);
        let text = std::fs::read_to_string(&path);
        tr.close(s);
        let text = text.map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        bytes += text.len();
        let s = tr.open("shard.decode", None);
        let part = decode_shard(&text);
        tr.close(s);
        parts.push(part.map_err(|e| format!("shard {i}: {e}"))?);
    }
    let s = tr.open("shard.merge", None);
    let merged = merge_shards(&parts);
    tr.close(s);
    let merged = merged?;
    let s = tr.open("export", None);
    let csv = merged.records_csv();
    let json = merged.metrics_json();
    tr.close(s);

    let mut counters = Counters::new();
    counters.insert("shard.bytes".to_string(), bytes as f64);
    counters.insert("export.bytes".to_string(), (csv.len() + json.len()) as f64);
    counters.insert("net.wall_s".to_string(), served.service_wall_s);
    counters.insert(
        "net.overhead_s".to_string(),
        served.service_wall_s - served.busiest_work_s,
    );
    for name in ["shards_retried", "artifacts_duplicate"] {
        let v = served.counters.get(name).copied().unwrap_or(0);
        counters.insert(format!("net.{name}"), v as f64);
    }
    Ok((counters, served.rep.rows))
}
