//! # idld-perfbench — the campaign benchmark
//!
//! Measures the injection campaign end to end on four fixed-seed
//! workloads ([`Bench`]) and, in a separate traced pass, splits the host
//! time of every injected run into the layers it passes through
//! ([`replay`]). Everything is driven through the repository's public
//! calls: `Campaign::run_with_progress` with this crate's own
//! [`measure::Observer`], `idld_bench::netd::serve_campaign` for the
//! served workload, and — in the traced pass — the golden-capture,
//! restore, emulator, segmented-run, classify and export entry points,
//! each wrapped in a span from outside.
//!
//! See `README.md` next to this crate for the metric and workload tables.

pub mod measure;
pub mod netd;
pub mod replay;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;

pub use workload::Bench;
