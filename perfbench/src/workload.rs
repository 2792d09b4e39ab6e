//! The benchmark's workloads: which campaign each one runs, and the
//! output digest pinned for it at the default seed.

use idld_campaign::CampaignConfig;
use idld_workloads::Workload;

/// The master seed [`CampaignConfig::default`] uses; digests are pinned
/// at this seed.
pub const DEFAULT_SEED: u64 = 0x1d1d;

/// Campaign seeds one run cycles through: repetition `i` of a run at
/// seed `s` runs the campaign at [`sub_seed`]`(s, i % SUB_SEEDS)`. Short
/// campaigns over distinct jobs give steadier figures than one long
/// campaign repeated: each campaign still repeats several times, and the
/// per-run samples cover `SUB_SEEDS` times as many distinct jobs.
pub const SUB_SEEDS: usize = 4;

/// The `j`-th campaign seed of a run at `seed`; `sub_seed(seed, 0) == seed`.
pub fn sub_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_add((j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bench {
    /// The 10-program suite at scale 1, default campaign configuration
    /// (full-image snapshots, fast-forward off).
    SuiteX1,
    /// The suite at scale 10 with snapshots and fast-forward on.
    SuiteX10Ff,
    /// The three SMT paired scenarios only.
    SmtPairs,
    /// `SuiteX1`'s job space, with fast-forward on, served over loopback
    /// TCP to two worker processes.
    SuiteX1Netd2,
}

impl Bench {
    /// Every workload, in declaration order.
    pub const ALL: [Bench; 4] = [
        Bench::SuiteX1,
        Bench::SuiteX10Ff,
        Bench::SmtPairs,
        Bench::SuiteX1Netd2,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Bench::SuiteX1 => "suite_x1",
            Bench::SuiteX10Ff => "suite_x10_ff",
            Bench::SmtPairs => "smt_pairs",
            Bench::SuiteX1Netd2 => "suite_x1_netd2",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Workload scale factor of the suite.
    pub fn scale(self) -> u32 {
        match self {
            Bench::SuiteX10Ff => 10,
            _ => 1,
        }
    }

    /// The campaign configuration at `seed`. In-process workloads use one
    /// scheduler thread so they measure the simulator, not the host
    /// scheduler. Every campaign has at least 100 injected runs, so ten
    /// per-run samples lie beyond p90 even in a single campaign.
    pub fn config(self, seed: u64) -> CampaignConfig {
        let base = CampaignConfig {
            seed,
            threads: 1,
            runs_per_cell: 12,
            ..CampaignConfig::default()
        };
        match self {
            Bench::SuiteX1 => base,
            Bench::SuiteX1Netd2 => CampaignConfig { ff: true, ..base },
            Bench::SuiteX10Ff => CampaignConfig {
                runs_per_cell: 4,
                ff: true,
                ..base
            },
            Bench::SmtPairs => CampaignConfig { smt: true, ..base },
        }
    }

    /// The single-thread suite the campaign runs (empty for the SMT
    /// workload, whose scenarios the campaign builds itself).
    pub fn suite(self) -> Vec<Workload> {
        match self {
            Bench::SmtPairs => Vec::new(),
            _ => idld_workloads::suite_scaled(self.scale()),
        }
    }

    /// Shards (and worker processes) the served workload is split over;
    /// `0` for in-process workloads.
    pub fn served_workers(self) -> usize {
        match self {
            Bench::SuiteX1Netd2 => 2,
            _ => 0,
        }
    }

    /// FNV-1a of `records.csv` + `metrics.json` at [`DEFAULT_SEED`]. The
    /// served workload merges to the same bytes as `SuiteX1`: fast-forward
    /// and sharding leave every record unchanged.
    pub fn pinned_digest(self) -> u64 {
        match self {
            Bench::SuiteX1 | Bench::SuiteX1Netd2 => 0x3422_d595_9d7f_a545,
            Bench::SuiteX10Ff => 0x01fb_f123_df9f_569b,
            Bench::SmtPairs => 0x7c9e_4e6b_7258_5559,
        }
    }
}
