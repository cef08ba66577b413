//! The POM-TLB workspace benchmark.
//!
//! One process runs one workload for a fixed number of seconds, a
//! discarded warm-up round included, and prints its metrics, each with a
//! unit, as the last line of standard output. Inputs are generated from
//! the seed on the command line. Every output is checked, and a failed
//! check is counted rather than fatal. See `README.md` in this directory
//! for the workloads, the metrics and what each layer metric should move.

#![forbid(unsafe_code)]

pub mod checks;
pub mod replay;
pub mod serve_mix;
pub mod spans;
pub mod stats;
pub mod sweep;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use checks::Checks;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The simulator's three batch shapes, one after another every round:
    /// a set-up-heavy compare, a steady compare and consolidation churn
    /// (see [`sweep::Part`]).
    Sweep,
    /// Closed-loop clients on one in-process serve `Service`.
    ServeMix,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::Sweep, Workload::ServeMix];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// The most worker threads (or serve clients) the workload runs at
    /// once on a host with `cores` cores. Each part of `sweep` sets its
    /// own count (see [`sweep::Part::workers`]).
    pub fn workers(self, cores: usize) -> usize {
        cores.max(1)
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics and units; every run with tracing off prints all.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_refs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("req_p50_ms", "ms"),
    ("req_per_s", "1/s"),
];

/// Per-layer metrics and units; every traced run prints all, with 0 for
/// a layer the workload does not reach. `req_p99_ms` is here rather than
/// end to end because on a small shared host it follows host stalls more
/// than the program: across ten seeds its spread exceeded the largest
/// bound the benchmark may set.
pub const PER_LAYER: [(&str, &str); 85] = [
    ("ops_failed_frac", "ratio"),
    ("req_p99_ms", "ms"),
    ("tracing.overhead", "ratio"),
    ("part.setup.wall_s", "s"),
    ("part.steady.wall_s", "s"),
    ("part.churn.wall_s", "s"),
    ("part.setup.begin_share", "ratio"),
    ("part.steady.begin_share", "ratio"),
    ("part.churn.begin_share", "ratio"),
    ("part.setup.shootdown_events", "count"),
    ("part.steady.shootdown_events", "count"),
    ("part.churn.shootdown_events", "count"),
    ("self_s.round", "s"),
    ("self_s.part", "s"),
    ("self_s.trace.record", "s"),
    ("self_s.job", "s"),
    ("self_s.system.begin", "s"),
    ("self_s.advance.warmup", "s"),
    ("self_s.advance.measure", "s"),
    ("self_s.system.finish", "s"),
    ("self_s.serve.round", "s"),
    ("self_s.serve.setup", "s"),
    ("self_s.serve.request", "s"),
    ("trace.record_ms", "ms"),
    ("trace.ns_per_item", "ns"),
    ("system.construct_ms", "ms"),
    ("system.begin_ms", "ms"),
    ("system.begin_share", "ratio"),
    ("system.warmup_ns_per_ref", "ns"),
    ("system.measure_ns_per_ref", "ns"),
    ("system.finish_ms", "ms"),
    ("runner.wall_s", "s"),
    ("runner.busy_s", "s"),
    ("runner.idle_s", "s"),
    ("runner.retried", "count"),
    ("runner.failed", "count"),
    ("page_table.map_ns_per_page", "ns"),
    ("page_table.pages_mapped", "count"),
    ("mmu.lookup_ns", "ns"),
    ("mmu.l2_misses_per_kref", "count/kref"),
    ("walker.walk_ns", "ns"),
    ("walker.walks", "count"),
    ("walker.psc_hit_rate", "ratio"),
    ("walker.cycles_per_walk", "cycles"),
    ("tsb.translate_ns", "ns"),
    ("tsb.hit_rate", "ratio"),
    ("pom_tlb.lookup_ns", "ns"),
    ("pom_tlb.insert_ns", "ns"),
    ("pom_tlb.prepopulate_ns_per_page", "ns"),
    ("pom_tlb.hit_rate", "ratio"),
    ("pom_tlb.occupancy", "ratio"),
    ("predictor.ns", "ns"),
    ("predictor.size_acc", "ratio"),
    ("predictor.bypass_acc", "ratio"),
    ("cache.data_ns", "ns"),
    ("cache.tlb_line_ns", "ns"),
    ("cache.pom_l2d_hit_rate", "ratio"),
    ("cache.pom_l3d_hit_rate", "ratio"),
    ("dram.access_ns", "ns"),
    ("dram.accesses", "count"),
    ("dram.pom_rbh", "ratio"),
    ("shootdown.os_event_us", "us"),
    ("shootdown.flush_vm_us", "us"),
    ("shootdown.events", "count"),
    ("shootdown.invalidations", "count"),
    ("shootdown.cycles", "cycles"),
    ("tenancy.median_p99_cycles", "cycles"),
    ("tenancy.worst_p99_cycles", "cycles"),
    ("tenancy.dispersion", "ratio"),
    ("serve.parse_us", "us"),
    ("serve.digest_us", "us"),
    ("serve.hot_get_us", "us"),
    ("serve.store_get_us", "us"),
    ("serve.store_put_us", "us"),
    ("serve.hot_us", "us"),
    ("serve.memoized_us", "us"),
    ("serve.coalesced_ms", "ms"),
    ("serve.computed_ms", "ms"),
    ("serve.hot", "count"),
    ("serve.memoized", "count"),
    ("serve.computed", "count"),
    ("serve.coalesced", "count"),
    ("serve.busy", "count"),
    ("serve.cache_ratio", "ratio"),
    ("serve.requests", "count"),
];

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the run lasts, its discarded warm-up round included.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub smoke: bool,
    /// The host's core count (see [`Workload::workers`]).
    pub cores: usize,
    /// Where spans and the serve report store are written.
    pub work_dir: PathBuf,
}

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every metric set, by name.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }
}

/// A finished run: its checks, its metrics and lines to print first.
#[derive(Debug)]
pub struct Outcome {
    /// Operations and checks, attempted and failed.
    pub checks: Checks,
    /// Measured values.
    pub metrics: Metrics,
    /// Lines printed before the result: digests, counts, failures.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: every end-to-end metric with tracing off, every
    /// per-layer metric with tracing on. A missing end-to-end metric or a
    /// value that is not finite fails the run.
    pub fn result_line(&mut self, trace: bool) -> String {
        let catalog: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut body = String::new();
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) => v,
                None if trace => 0.0,
                None => {
                    self.checks
                        .record(false, || format!("metric {name} was not measured"));
                    0.0
                }
            };
            let value = if value.is_finite() {
                value
            } else {
                self.checks
                    .record(false, || format!("metric {name} is not finite"));
                0.0
            };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                body,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.checks.failed == 0,
            self.checks.attempted.max(1),
            self.checks.failed
        )
    }
}

/// Splitmix64: spreads nearby seeds over the whole 64-bit space, so runs
/// with seeds `n` and `n + 1` share no per-core stream.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one workload and returns its outcome, with the host description
/// and the failed-operation share among the notes.
pub fn run(opts: &Options) -> Outcome {
    let mut outcome = match opts.workload {
        Workload::ServeMix => serve_mix::run(opts),
        _ => sweep::run(opts),
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    outcome
        .metrics
        .set("ops_failed_frac", outcome.checks.failed_frac());
    outcome.notes.push(format!(
        "host cores={cores} workers={} seed={} workload={} trace={}",
        opts.workload.workers(opts.cores),
        opts.seed,
        opts.workload.name(),
        u8::from(opts.trace)
    ));
    outcome.notes.push(format!(
        "ops_failed_frac {} ({} of {})",
        outcome.checks.failed_frac(),
        outcome.checks.failed,
        outcome.checks.attempted
    ));
    outcome
}
