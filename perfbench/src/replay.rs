//! The traced pass: re-derives every record of an untraced campaign
//! through the public calls that enter each layer, with a span around
//! each call.
//!
//! A single-thread record is replayed the way the campaign executes it:
//! fork from [`GoldenRun::snapshot_for`] (through the in-order emulator
//! when fast-forward is on) or start cold, arm a [`SingleShotHook`] with
//! the IDLD, bit-vector and counter checkers, run to the record's
//! activation cycle (`pre`), run to the end (`tail.<class>`), then
//! finish and classify. The rebuilt [`RunRecord`]'s `records.csv` row
//! must equal the stored one byte for byte. SMT records are replayed
//! through [`Campaign::run_one_smt`] against a fresh [`SmtGolden`].

use crate::stats::output_digest;
use crate::trace::{Counters, Tracer};
use idld_bugs::SingleShotHook;
use idld_campaign::campaign::Detections;
use idld_campaign::classify::manifestation_cycle;
use idld_campaign::{
    classify, export, metrics_json, Campaign, CampaignConfig, CampaignMetrics, CampaignResult,
    GoldenRun, OutcomeClass, RunRecord, SmtGolden,
};
use idld_core::{BitVectorChecker, CheckerSet, CounterChecker, IdldChecker};
use idld_isa::Emulator;
use idld_sim::{SimConfig, Simulator};
use idld_workloads::Workload;

/// What a traced replay produced (its spans are in the caller's tracer).
#[derive(Debug)]
pub struct Replay {
    /// Layer work counters, by per-layer metric name.
    pub counters: Counters,
    /// Records replayed.
    pub rows: usize,
    /// Records whose rebuilt row differs from the stored one, or that
    /// could not be rebuilt.
    pub mismatches: usize,
    /// [`output_digest`] of the rebuilt records' exports.
    pub digest: u64,
}

/// The checker set the campaign attaches to cold injected runs.
fn injection_checkers(sim: &SimConfig) -> CheckerSet {
    let mut checkers = CheckerSet::new();
    checkers.push(Box::new(IdldChecker::new(&sim.rrs)));
    checkers.push(Box::new(BitVectorChecker::new(&sim.rrs)));
    checkers.push(Box::new(CounterChecker::new(&sim.rrs)));
    checkers
}

fn add(counters: &mut Counters, name: &str, v: f64) {
    *counters.entry(name.to_string()).or_default() += v;
}

/// Replays `records` — in record order, from an untraced campaign that
/// ran `suite` under `cfg` — under spans in `tr`, and re-derives every
/// row.
pub fn replay(
    tr: &mut Tracer,
    suite: &[Workload],
    cfg: &CampaignConfig,
    records: &[RunRecord],
) -> Replay {
    let mut counters = Counters::new();
    let (rebuilt, mismatches) = if cfg.smt {
        replay_smt(cfg, records, tr, &mut counters)
    } else {
        replay_single(suite, cfg, records, tr, &mut counters)
    };

    let s = tr.open("export", None);
    let res = CampaignResult {
        records: rebuilt,
        ..CampaignResult::default()
    };
    let csv = export::to_csv(&res);
    let json = metrics_json(&CampaignMetrics::build(&res));
    tr.close(s);
    add(
        &mut counters,
        "export.bytes",
        (csv.len() + json.len()) as f64,
    );
    Replay {
        counters,
        rows: records.len(),
        mismatches,
        digest: output_digest(&csv, &json),
    }
}

/// Compares a rebuilt record with the stored one inside a `verify` span.
fn verify(tr: &mut Tracer, stored: &RunRecord, rebuilt: Option<&RunRecord>) -> usize {
    let s = tr.open("verify", Some(stored.job));
    let same = rebuilt.is_some_and(|r| export::record_row(r) == export::record_row(stored));
    tr.close(s);
    usize::from(!same)
}

fn replay_single(
    suite: &[Workload],
    cfg: &CampaignConfig,
    records: &[RunRecord],
    tr: &mut Tracer,
    counters: &mut Counters,
) -> (Vec<RunRecord>, usize) {
    assert!(
        cfg.snapshot && cfg.ff_guard == 0 && cfg.sweep.points.is_empty() && cfg.shards == 1,
        "the replay follows the campaign's default fork policy"
    );
    let mut goldens: Vec<Option<GoldenRun>> = Vec::with_capacity(suite.len());
    for w in suite {
        let s = tr.open("golden", None);
        let captured = if cfg.ff {
            GoldenRun::capture_with_lean_snapshots(
                w,
                cfg.sim,
                cfg.snapshot_stride,
                cfg.snapshot_max,
            )
        } else {
            GoldenRun::capture_with_snapshots(w, cfg.sim, cfg.snapshot_stride, cfg.snapshot_max)
        };
        tr.close(s);
        if let Ok(g) = &captured {
            add(counters, "golden.cycles", g.cycles as f64);
            add(counters, "golden.snapshots", g.snapshots.len() as f64);
        }
        goldens.push(captured.ok());
    }

    // Execute in the campaign's order — by workload, then by fork cycle —
    // so the emulator advances incrementally as it does in the campaign.
    let cell_of = |r: &RunRecord| suite.iter().position(|w| w.name == r.bench);
    let fork_cycle = |r: &RunRecord| {
        cell_of(r)
            .and_then(|c| goldens[c].as_ref())
            .and_then(|g| g.snapshot_for(&r.spec))
            .map_or(0, |s| s.cycle)
    };
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&i| (cell_of(&records[i]), fork_cycle(&records[i])));

    let mut rebuilt: Vec<Option<RunRecord>> = vec![None; records.len()];
    let mut mismatches = 0;
    let mut cached_cell = None;
    let mut sim: Option<Simulator<'_>> = None;
    let mut emu: Option<Emulator> = None;
    for i in order {
        let stored = &records[i];
        let Some((cell, golden)) =
            cell_of(stored).and_then(|c| goldens[c].as_ref().map(|g| (c, g)))
        else {
            mismatches += 1;
            continue;
        };
        if cached_cell != Some(cell) {
            cached_cell = Some(cell);
            sim = None;
            emu = None;
        }
        let run = tr.open("run", Some(stored.job));
        let rec = replay_one(cfg, stored, golden, &mut sim, &mut emu, tr, counters);
        mismatches += verify(tr, stored, rec.as_ref());
        tr.close(run);
        rebuilt[i] = rec;
    }
    (rebuilt.into_iter().flatten().collect(), mismatches)
}

/// Replays one single-thread record; `None` when the run cannot be
/// rebuilt (the emulator or the fast-forward gate refuses, or the bug
/// never activates).
fn replay_one<'g>(
    cfg: &CampaignConfig,
    stored: &RunRecord,
    golden: &'g GoldenRun,
    sim: &mut Option<Simulator<'g>>,
    emu: &mut Option<Emulator>,
    tr: &mut Tracer,
    counters: &mut Counters,
) -> Option<RunRecord> {
    let job = Some(stored.job);
    let spec = stored.spec;
    let snap = golden.snapshot_for(&spec);
    let program = &golden.workload.program;

    if let (Some(s), true) = (snap, cfg.ff) {
        let span = tr.open("emu", job);
        let target = s.state.committed();
        let e = emu.get_or_insert_with(|| Emulator::with_block_engine(program, cfg.emu_block));
        if e.steps() > target {
            *e = Emulator::with_block_engine(program, cfg.emu_block);
        }
        let before = e.steps();
        let reached = e.run_to_step(target).is_ok();
        let steps = e.steps() - before;
        tr.close(span);
        add(counters, "emu.steps", steps as f64);
        if !reached {
            return None;
        }
    }

    let span = tr.open("restore", job);
    if snap.is_none() || sim.is_none() {
        *sim = Some(Simulator::new(program, cfg.sim));
    }
    let sim = sim.as_mut().expect("simulator was just created");
    let mut checkers;
    let mut hook;
    match snap {
        Some(s) => {
            checkers = CheckerSet::new();
            if cfg.ff {
                let e = emu.as_ref().expect("fast-forward ran the emulator");
                if sim.restore_from_arch(&s.state, e, &mut checkers).is_err() {
                    tr.close(span);
                    return None;
                }
            } else {
                sim.restore(&s.state, &mut checkers);
            }
            hook = SingleShotHook::resumed(spec, s.counts[spec.site.index()], s.cycle);
        }
        None => {
            checkers = injection_checkers(&cfg.sim);
            hook = SingleShotHook::new(spec);
        }
    }
    tr.close(span);
    add(
        counters,
        if snap.is_some() {
            "restore.forked"
        } else {
            "restore.cold"
        },
        1.0,
    );

    let span = tr.open("pre", job);
    let forked_at = sim.cycle();
    let mut seg = sim.begin_run(Some(&golden.trace), golden.timeout_budget());
    let early = seg.step_until(sim, &mut hook, &mut checkers, stored.activation_cycle);
    let paused_at = sim.cycle();
    tr.close(span);
    add(counters, "pre.cycles", (paused_at - forked_at) as f64);
    // Up to activation the run is the golden run, so the golden trace
    // tells how many instructions committed before the pause.
    let committed_at_pause = golden.trace.cycles.partition_point(|&c| c < paused_at) as u64;

    let tail = tr.open("tail", job);
    let stop = early.unwrap_or_else(|| seg.run_to_end(sim, &mut hook, &mut checkers, None));
    tr.close(tail);

    let span = tr.open("classify", job);
    let res = seg.finish(sim, stop, &mut checkers);
    let outcome = classify(&res, &golden.output);
    let record = hook.activation_cycle().map(|activation_cycle| RunRecord {
        config: stored.config.clone(),
        job: stored.job,
        bench: golden.workload.name.clone(),
        model: spec.model,
        spec,
        activation_cycle,
        outcome,
        manifestation_cycle: manifestation_cycle(&res, outcome),
        end_cycle: res.cycles,
        persists: outcome.is_masked() && !res.final_contents.is_exact_partition(),
        detections: Detections {
            idld: checkers.detection_of("idld").map(|d| d.cycle),
            bv: checkers.detection_of("bv").map(|d| d.cycle),
            counter: checkers.detection_of("counter").map(|d| d.cycle),
        },
        stats: res.stats,
        poisoned: None,
    });
    tr.close(span);

    let class = outcome.label();
    tr.rename(tail, format!("tail.{class}"));
    add(counters, &format!("tail.{class}.runs"), 1.0);
    add(
        counters,
        &format!("tail.{class}.cycles"),
        (res.cycles - paused_at) as f64,
    );
    add(
        counters,
        &format!("tail.{class}.committed"),
        res.committed.saturating_sub(committed_at_pause) as f64,
    );
    record
}

fn replay_smt(
    cfg: &CampaignConfig,
    records: &[RunRecord],
    tr: &mut Tracer,
    counters: &mut Counters,
) -> (Vec<RunRecord>, usize) {
    let campaign = Campaign::new(cfg.clone());
    let mut goldens = Vec::new();
    for scenario in idld_workloads::smt_pairs() {
        let s = tr.open("smt.golden", None);
        let g = SmtGolden::capture(&scenario, cfg.sim);
        tr.close(s);
        goldens.extend(g.ok());
    }
    let mut rebuilt = Vec::with_capacity(records.len());
    let mut mismatches = 0;
    for stored in records {
        let Some(golden) = goldens.iter().find(|g| g.scenario.name == stored.bench) else {
            mismatches += 1;
            continue;
        };
        let run = tr.open("run", Some(stored.job));
        let s = tr.open("smt.run", Some(stored.job));
        let rec = campaign.run_one_smt(stored.job, golden, stored.spec);
        tr.close(s);
        add(counters, "smt.cycles", rec.end_cycle as f64);
        mismatches += verify(tr, stored, Some(&rec));
        tr.close(run);
        rebuilt.push(rec);
    }
    (rebuilt, mismatches)
}

/// Every per-outcome-class tail metric name, in reporting order.
pub fn tail_metric_names() -> Vec<String> {
    OutcomeClass::ALL
        .iter()
        .flat_map(|c| {
            ["s", "runs", "cycles", "committed"].map(|what| format!("tail.{}.{what}", c.label()))
        })
        .collect()
}
