//! The campaign benchmark's command line.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --connect ADDR        (worker process of the served workload)
//! ```
//!
//! Repeats the workload's campaign for `--seconds`, cycling through
//! [`SUB_SEEDS`] campaign seeds derived from `--seed` (one full cycle at
//! least), checks every output, and prints the end-to-end metrics
//! (`--trace 0`) or, after a traced replay, the per-layer metrics
//! (`--trace 1`) as the last line of standard output. The traced pass
//! writes its spans to `out/<workload>-seed<N>.trace.json` next to this
//! crate's manifest.

use idld_campaign::CampaignResult;
use idld_perfbench::measure::{self, failed_rows, Fastest, Rep};
use idld_perfbench::report::{self, END_TO_END};
use idld_perfbench::stats::{median, peak_rss_mib, percentile};
use idld_perfbench::trace::{Counters, Tracer};
use idld_perfbench::workload::{sub_seed, DEFAULT_SEED, SUB_SEEDS};
use idld_perfbench::{netd, replay, Bench};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <suite_x1|suite_x10_ff|smt_pairs|suite_x1_netd2> \
[--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    bench: Bench,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Mode {
    Bench(Args),
    Worker(String),
}

fn parse_u64(flag: &str, raw: &str) -> Result<u64, String> {
    let parsed = match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    parsed.map_err(|e| format!("{flag} {raw:?} is invalid: {e}"))
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut bench = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--connect" => return Ok(Mode::Worker(value.clone())),
            "--workload" => {
                bench =
                    Some(Bench::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = parse_u64(flag, value)?,
            "--seconds" => seconds = parse_u64(flag, value)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is invalid: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Mode::Bench(Args {
        bench: bench.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&argv) {
        Ok(Mode::Worker(addr)) => netd::worker(&addr).map(|()| None),
        Ok(Mode::Bench(args)) => run(&args).map(Some),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(line) => {
            if let Some(line) = line {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Where runs leave their trace files and service artifacts.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Output checks accumulated over a run.
#[derive(Default)]
struct Checks {
    attempted: usize,
    failed: usize,
    /// Whole-output digest comparisons that failed.
    digest_mismatches: usize,
}

impl Checks {
    fn rows(&mut self, want: &[String], got: &[String]) {
        self.attempted += got.len().max(want.len());
        self.failed += failed_rows(want, got);
    }

    fn digest(&mut self, what: &str, want: u64, got: u64) {
        if want != got {
            eprintln!("perfbench: {what}: digest {got:#018x}, expected {want:#018x}");
            self.digest_mismatches += 1;
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let bench = args.bench;
    let out = out_dir();
    let pid = std::process::id();
    let rss_dir = out.join(format!("rss-{pid}"));
    let serve_dir = out.join(format!("{}-{pid}", bench.name()));
    if bench.served_workers() > 0 {
        std::fs::create_dir_all(&rss_dir)
            .map_err(|e| format!("cannot create {}: {e}", rss_dir.display()))?;
        netd::configure_env(bench, &rss_dir);
    }
    let result = measure_and_check(args, &serve_dir, &rss_dir);
    let _ = std::fs::remove_dir_all(&serve_dir);
    let _ = std::fs::remove_dir_all(&rss_dir);
    result
}

fn measure_and_check(args: &Args, serve_dir: &Path, rss_dir: &Path) -> Result<String, String> {
    let bench = args.bench;
    let served = bench.served_workers() > 0;

    // Untraced repetitions for the measured window, cycling through the
    // run's campaign seeds; stop at the repetition boundary closest to
    // the window's end, after one full cycle at least.
    let window = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut first = None;
    let mut rss = Vec::new();
    while reps.len() < SUB_SEEDS
        || started.elapsed().as_secs_f64() + reps.last().map_or(0.0, |r| r.wall_s) / 2.0
            < window.as_secs_f64()
    {
        let seed = sub_seed(args.seed, reps.len() % SUB_SEEDS);
        let rep = if served {
            let s = netd::serve_once(bench, seed, serve_dir, rss_dir)?;
            rss.push(s.peak_rss_mib);
            s.rep
        } else {
            let (rep, res) = measure::run_in_process(bench, &bench.config(seed))?;
            if first.is_none() {
                // Peak memory of a process that has run one campaign:
                // later repetitions reuse (and fragment) freed memory.
                rss.push(peak_rss_mib().ok_or("this platform does not report peak memory")?);
                first = Some(res);
            }
            rep
        };
        reps.push(rep);
    }

    // Output checks. Each repetition must equal the first one at its
    // seed. The served workload's first one is checked against the same
    // campaign run in this process, which the traced pass then replays.
    let mut checks = Checks::default();
    let mut references: Vec<Rep> = reps[..SUB_SEEDS].to_vec();
    if served {
        let (rep, res) = measure::run_in_process(bench, &bench.config(args.seed))?;
        references[0] = rep;
        first = Some(res);
    }
    for (i, rep) in reps.iter().enumerate() {
        let reference = &references[i % SUB_SEEDS];
        checks.rows(&reference.rows, &rep.rows);
        checks.digest(&format!("repetition {i}"), reference.digest, rep.digest);
    }
    let default_digest = if args.seed == DEFAULT_SEED {
        references[0].digest
    } else {
        let (rep, _) = measure::run_in_process(bench, &bench.config(DEFAULT_SEED))?;
        rep.digest
    };
    checks.digest("default seed", bench.pinned_digest(), default_digest);

    let metrics = if args.trace {
        // The traced pass replays the campaign at the run's own seed.
        let walls: Vec<f64> = reps.iter().step_by(SUB_SEEDS).map(|r| r.wall_s).collect();
        traced_metrics(
            args,
            &first.expect("the first campaign ran in this process"),
            &references[0],
            median(&walls),
            &mut checks,
            serve_dir,
            rss_dir,
        )?
    } else {
        let Fastest {
            runs_per_s,
            setup_s,
            mut run_ms,
        } = measure::fastest(&reps, SUB_SEEDS);
        run_ms.sort_by(f64::total_cmp);
        let values = [
            runs_per_s,
            setup_s,
            percentile(&run_ms, 50.0)?,
            percentile(&run_ms, 90.0)?,
            median(&rss),
        ];
        eprintln!(
            "perfbench: {} seed {}: {} repetitions, {} runs, {} latency samples",
            bench.name(),
            args.seed,
            reps.len(),
            reps.iter().map(|r| r.rows.len()).sum::<usize>(),
            run_ms.len()
        );
        let walls: Vec<String> = reps.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
        eprintln!("perfbench: repetition walls (s): {}", walls.join(" "));
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect()
    };
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<28} {value:>16.6} {unit}");
    }
    let correct = checks.failed == 0 && checks.digest_mismatches == 0;
    report::result_line(correct, checks.attempted, checks.failed, &metrics)
}

/// The traced pass: re-serves the served workload, then replays `first`
/// (the campaign at the run's own seed) under spans, and returns every
/// per-layer metric.
#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    args: &Args,
    first: &CampaignResult,
    reference: &Rep,
    untraced_wall: f64,
    checks: &mut Checks,
    serve_dir: &Path,
    rss_dir: &Path,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let bench = args.bench;
    let mut tracer = Tracer::new();
    let mut counters = Counters::new();
    if bench.served_workers() > 0 {
        let (served, rows) = netd::traced(&mut tracer, bench, args.seed, serve_dir, rss_dir)?;
        checks.rows(&reference.rows, &rows);
        counters = served;
    }
    let r = replay::replay(
        &mut tracer,
        &bench.suite(),
        &bench.config(args.seed),
        &first.records,
    );
    tracer.finish();
    checks.attempted += r.rows;
    checks.failed += r.mismatches;
    checks.digest("traced replay", reference.digest, r.digest);
    for (name, v) in r.counters {
        *counters.entry(name).or_default() += v;
    }
    let path = out_dir().join(format!("{}-seed{}.trace.json", bench.name(), args.seed));
    std::fs::write(&path, tracer.chrome_json(bench.name()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());

    let self_times = tracer.self_times();
    let value = |name: &str| -> f64 {
        if let Some(v) = counters.get(name) {
            return *v;
        }
        match name {
            "emu.steps_per_s" => {
                let s = self_times.get("emu").copied().unwrap_or(0.0);
                let steps = counters.get("emu.steps").copied().unwrap_or(0.0);
                if s > 0.0 {
                    steps / s
                } else {
                    0.0
                }
            }
            "trace.coverage" => tracer.coverage(),
            "trace.overhead" => tracer.wall_s() / untraced_wall,
            _ => name
                .strip_suffix(".s")
                .and_then(|span| self_times.get(span).copied())
                .unwrap_or(0.0),
        }
    };
    Ok(report::per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let v = value(&name);
            (name, v, unit)
        })
        .collect())
}
