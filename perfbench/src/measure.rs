//! Untraced end-to-end measurement of one campaign repetition.

use crate::stats::{median, output_digest};
use crate::Bench;
use idld_campaign::{
    export, metrics_json, Campaign, CampaignConfig, CampaignMetrics, CampaignProgress,
    CampaignResult, CellTiming, ProgressSnapshot,
};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one campaign repetition measured and produced.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Host seconds from the campaign call (suite build included) to its
    /// return.
    pub wall_s: f64,
    /// Host seconds of set-up: golden capture and the snapshot cache.
    pub setup_s: f64,
    /// Per-injected-run latency samples, in milliseconds.
    pub run_ms: Vec<f64>,
    /// Every record's `records.csv` row, in record order.
    pub rows: Vec<String>,
    /// [`output_digest`] of the campaign's `records.csv` + `metrics.json`.
    pub digest: u64,
}

/// Throughput, set-up and per-run latencies of a run's repetitions, each
/// campaign credited with its fastest figures; see [`fastest`].
#[derive(Clone, Debug, PartialEq)]
pub struct Fastest {
    /// Injected runs per host second, set-up included: the runs of one
    /// repetition per campaign over the summed fastest walls.
    pub runs_per_s: f64,
    /// Set-up seconds: the median over campaigns of each one's fastest
    /// set-up.
    pub setup_s: f64,
    /// Per-run latency samples in milliseconds, one per run of each
    /// campaign: the run's smallest sample over that campaign's repetitions.
    pub run_ms: Vec<f64>,
}

/// Reduces the repetitions of a run in which repetition `i` ran campaign
/// `i % campaigns` to each campaign's fastest figures.
///
/// Repetitions of one campaign do identical work (the output checks
/// verify it), and the `run_ms` samples of two such repetitions are
/// position for position the same run or cell. Each campaign is credited
/// with its fastest wall and set-up, and each run with its fastest
/// latency, each taken on its own. What differs between repetitions
/// is interference from the rest of the host, which only ever adds time;
/// the smallest of several samples of the same work is the steadiest
/// estimate of its cost. A code change that slows the work slows every
/// repetition, the fastest included.
pub fn fastest(reps: &[Rep], campaigns: usize) -> Fastest {
    let least = |same: &[&Rep], of: fn(&Rep) -> f64| {
        same.iter().map(|r| of(r)).fold(f64::INFINITY, f64::min)
    };
    let mut runs = 0;
    let mut wall_s = 0.0;
    let mut setup_s = Vec::new();
    let mut run_ms = Vec::new();
    for (j, first) in reps.iter().take(campaigns).enumerate() {
        let same: Vec<&Rep> = reps[j..].iter().step_by(campaigns).collect();
        runs += first.rows.len();
        wall_s += least(&same, |r| r.wall_s);
        setup_s.push(least(&same, |r| r.setup_s));
        let mut best = first.run_ms.clone();
        for rep in &same[1..] {
            for (b, &v) in best.iter_mut().zip(&rep.run_ms) {
                *b = b.min(v);
            }
        }
        run_ms.extend(best);
    }
    Fastest {
        runs_per_s: runs as f64 / wall_s,
        setup_s: median(&setup_s),
        run_ms,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    Golden,
    Run,
}

/// Progress observer that timestamps every golden capture and every
/// completed run. Pushing a timestamp is all it does, so it adds next to
/// nothing to the measured campaign.
#[derive(Debug)]
pub struct Observer {
    events: Mutex<Vec<(Event, Instant)>>,
}

impl Observer {
    fn new(capacity: usize) -> Self {
        Observer {
            events: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    fn push(&self, ev: Event) {
        let now = Instant::now();
        self.events
            .lock()
            .expect("observer lock is never held across a panic")
            .push((ev, now));
    }
}

impl CampaignProgress for Observer {
    fn on_golden(&self, _workload: &str, _cycles: u64) {
        self.push(Event::Golden);
    }

    fn on_run(&self, _snapshot: &ProgressSnapshot) {
        self.push(Event::Run);
    }
}

/// Set-up time and per-run samples from per-cell timings, for campaigns
/// whose runs raise no `on_run` callback (the SMT section, remote
/// workers): set-up is the wall time not spent inside injected runs, and
/// each run is credited with its cell's mean latency.
pub fn from_cell_timings(wall: Duration, timings: &[CellTiming]) -> (f64, Vec<f64>) {
    let work: Duration = timings.iter().map(|c| c.total).sum();
    let mut samples = Vec::new();
    for c in timings.iter().filter(|c| c.runs > 0) {
        let mean_ms = c.total.as_secs_f64() * 1e3 / c.runs as f64;
        samples.extend(std::iter::repeat_n(mean_ms, c.runs));
    }
    (wall.saturating_sub(work).as_secs_f64(), samples)
}

/// `records.csv` and `metrics.json` of a finished campaign.
pub fn exports(res: &CampaignResult) -> (String, String) {
    (
        export::to_csv(res),
        metrics_json(&CampaignMetrics::build(res)),
    )
}

/// Runs `bench`'s in-process campaign once under `cfg` and measures it.
/// Returns the measurement and the campaign result.
///
/// # Errors
///
/// A golden run the campaign rejects.
pub fn run_in_process(bench: Bench, cfg: &CampaignConfig) -> Result<(Rep, CampaignResult), String> {
    let observer = Observer::new(4096);
    let t0 = Instant::now();
    let suite = bench.suite();
    let res = Campaign::new(cfg.clone())
        .run_with_progress(&suite, &observer)
        .map_err(|e| format!("{}: {e}", bench.name()))?;
    let wall = t0.elapsed();
    let events = observer
        .events
        .into_inner()
        .expect("observer lock is never held across a panic");
    let observed_runs = events.iter().filter(|(e, _)| *e == Event::Run).count();
    let (setup_s, run_ms) = if observed_runs == res.records.len() {
        // Every run reported: set-up ends at the last golden callback and
        // each run's latency is the gap since the previous callback.
        let mut setup = Duration::ZERO;
        let mut run_ms = Vec::with_capacity(observed_runs);
        let mut prev = t0;
        for (ev, at) in events {
            match ev {
                Event::Golden => setup = at - t0,
                Event::Run => run_ms.push((at - prev).as_secs_f64() * 1e3),
            }
            prev = at;
        }
        (setup.as_secs_f64(), run_ms)
    } else {
        from_cell_timings(wall, &res.timings)
    };
    let (csv, json) = exports(&res);
    let rep = Rep {
        wall_s: wall.as_secs_f64(),
        setup_s,
        run_ms,
        rows: res.records.iter().map(export::record_row).collect(),
        digest: output_digest(&csv, &json),
    };
    Ok((rep, res))
}

/// Rows of `got` that are poisoned or differ from `want`, position by
/// position; missing and surplus rows count as failed.
pub fn failed_rows(want: &[String], got: &[String]) -> usize {
    let bad = want
        .iter()
        .zip(got)
        .filter(|(a, b)| a != b || !b.ends_with(','))
        .count();
    bad + want.len().abs_diff(got.len())
}
