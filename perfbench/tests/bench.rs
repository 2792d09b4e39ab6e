//! Tests of the benchmark itself: the traced replay, the percentile rule,
//! the output digest, the span bookkeeping and the declared metrics.

use idld_campaign::{Campaign, CampaignConfig, CampaignResult};
use idld_perfbench::measure::{exports, failed_rows, fastest, Rep};
use idld_perfbench::report::{per_layer, END_TO_END};
use idld_perfbench::stats::{output_digest, percentile, MIN_TAIL};
use idld_perfbench::trace::Tracer;
use idld_perfbench::{replay, Bench};
use idld_workloads::Workload;

fn picks(scale: u32) -> Vec<Workload> {
    idld_workloads::suite_scaled(scale)
        .into_iter()
        .filter(|w| w.name == "crc32" || w.name == "qsort")
        .collect()
}

fn small(bench: Bench) -> CampaignConfig {
    CampaignConfig {
        runs_per_cell: 3,
        ..bench.config(7)
    }
}

fn digest(res: &CampaignResult) -> u64 {
    let (csv, json) = exports(res);
    output_digest(&csv, &json)
}

fn assert_replay_matches(suite: &[Workload], cfg: &CampaignConfig) {
    let res = Campaign::new(cfg.clone())
        .run(suite)
        .expect("campaign runs");
    assert!(!res.records.is_empty());
    let mut tr = Tracer::new();
    let r = replay::replay(&mut tr, suite, cfg, &res.records);
    tr.finish();
    assert_eq!(r.rows, res.records.len());
    assert_eq!(r.mismatches, 0, "every row is re-derived byte for byte");
    assert_eq!(
        r.digest,
        digest(&res),
        "replayed exports equal the campaign's"
    );
    assert!(tr.coverage() > 0.9, "spans cover the traced wall time");
}

#[test]
fn replay_rederives_forked_rows() {
    assert_replay_matches(&picks(1), &small(Bench::SuiteX1));
}

#[test]
fn replay_rederives_fast_forwarded_rows() {
    let cfg = small(Bench::SuiteX10Ff);
    assert!(cfg.ff);
    assert_replay_matches(&picks(2), &cfg);
}

#[test]
fn replay_rederives_smt_rows() {
    let cfg = CampaignConfig {
        runs_per_cell: 2,
        ..Bench::SmtPairs.config(7)
    };
    assert_replay_matches(&[], &cfg);
}

#[test]
fn replay_reports_a_tampered_row() {
    let cfg = small(Bench::SuiteX1);
    let suite = picks(1);
    let mut res = Campaign::new(cfg.clone())
        .run(&suite)
        .expect("campaign runs");
    res.records[1].end_cycle += 1;
    let r = replay::replay(&mut Tracer::new(), &suite, &cfg, &res.records);
    assert_eq!(r.mismatches, 1);
}

#[test]
fn digest_is_the_same_at_one_and_two_scheduler_threads() {
    let suite = picks(1);
    let run = |threads| {
        let cfg = CampaignConfig {
            threads,
            ..small(Bench::SuiteX1)
        };
        digest(&Campaign::new(cfg).run(&suite).expect("campaign runs"))
    };
    assert_eq!(run(1), run(2));
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&samples, 90.0), Ok(90.0));
    assert_eq!(percentile(&samples, 50.0), Ok(50.0));
    assert_eq!(samples.len() - 90, MIN_TAIL);
    assert!(percentile(&samples[..99], 90.0).is_err(), "9 beyond p90");
    assert!(percentile(&samples, 99.0).is_err(), "1 beyond p99");
    assert!(percentile(&[], 50.0).is_err());
}

#[test]
fn every_workload_campaign_leaves_ten_samples_beyond_p90() {
    // The default-seed sample counts the workloads produce: each campaign
    // alone must satisfy the rule.
    for bench in Bench::ALL {
        let cfg = bench.config(7);
        let runs = 3 * cfg.runs_per_cell * if cfg.smt { 3 } else { 10 };
        let samples: Vec<f64> = (0..runs).map(|i| i as f64).collect();
        assert!(percentile(&samples, 90.0).is_ok(), "{}", bench.name());
    }
}

#[test]
fn fastest_credits_each_campaign_with_its_fastest_repetition() {
    let rep = |wall_s: f64, run_ms: &[f64]| Rep {
        wall_s,
        setup_s: wall_s / 10.0,
        run_ms: run_ms.to_vec(),
        rows: vec![String::new(); run_ms.len()],
        digest: 0,
    };
    // Repetition i ran campaign i % 2: campaign 0 three times, campaign 1 twice.
    let reps = [
        rep(2.0, &[1.0, 5.0]),
        rep(4.0, &[3.0, 3.0, 3.0]),
        rep(1.5, &[2.0, 4.0]),
        rep(3.0, &[2.0, 9.0, 1.0]),
        rep(5.0, &[0.5, 9.0]),
    ];
    let f = fastest(&reps, 2);
    assert_eq!(f.runs_per_s, 5.0 / (1.5 + 3.0));
    assert_eq!(f.setup_s, (0.15 + 0.3) / 2.0);
    assert_eq!(f.run_ms, [0.5, 4.0, 2.0, 3.0, 1.0]);
}

#[test]
fn failed_rows_counts_poisoned_differing_and_missing_rows() {
    let rows = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let want = rows(&["a,", "b,", "c,"]);
    assert_eq!(failed_rows(&want, &want), 0);
    assert_eq!(failed_rows(&want, &rows(&["a,", "x,", "c,"])), 1);
    assert_eq!(failed_rows(&want, &rows(&["a,", "b,"])), 1);
    let poisoned = rows(&["a,", "b,panic", "c,"]);
    assert_eq!(failed_rows(&poisoned, &poisoned), 1);
}

#[test]
fn self_times_sum_to_the_outermost_spans() {
    let mut tr = Tracer::new();
    let outer = tr.open("run", Some(4));
    let inner = tr.open("tail", Some(4));
    std::thread::sleep(std::time::Duration::from_millis(5));
    tr.close(inner);
    tr.rename(inner, "tail.Benign");
    tr.close(outer);
    tr.finish();
    let spans = tr.spans();
    let summed: f64 = tr.self_times().values().sum();
    assert!((summed - spans[outer].dur.as_secs_f64()).abs() < 1e-9);
    assert!(tr.self_times()["tail.Benign"] >= 0.005);
    let json = tr.chrome_json("test");
    assert!(json.contains("\"name\":\"tail.Benign\""), "{json}");
    assert!(json.contains("\"id\":4,\"args\":{\"job\":4}"), "{json}");
}

#[test]
fn benchmark_json_declares_every_reported_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let declared = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
    let workloads: Vec<Bench> = Bench::ALL
        .into_iter()
        .filter(|b| declared(b.name()))
        .collect();
    assert!(workloads.len() >= 2, "at least two workloads are declared");
    for (name, _) in END_TO_END {
        assert!(declared(name), "end-to-end metric {name}");
    }
    let layers = per_layer();
    for (name, _) in &layers {
        assert!(declared(name), "per-layer metric {name}");
    }
    let names = json.matches("\"name\":").count();
    assert_eq!(
        names,
        workloads.len() + END_TO_END.len() + layers.len(),
        "every declared name is a workload this benchmark runs or a metric it reports"
    );
}
