//! The `sweep` workload: the simulator's three batch shapes, one after
//! another in every round.
//!
//! - `setup`: a four-scheme compare on the largest small-page footprints
//!   (gups, graph500, ccomponent) with short runs, on `nproc` workers.
//!   Mapping the footprint and prepopulating the POM-TLB and TSB in
//!   `Simulation::begin` does most of the work.
//! - `steady`: a four-scheme compare on high-MPKI, mostly large-page
//!   workloads (mcf, astar) with long runs, on one worker. The
//!   per-reference path does most of the work.
//! - `churn`: the consolidation spec at 1,000 VMs with destroy churn and
//!   fork storms, four schemes, on one worker. Shootdowns invalidate the
//!   structures that lookups fill.
//!
//! A part records its input streams (`share_traces`) and runs its jobs on
//! a pool of its own workers. Each job is driven through
//! `Simulation::begin`, `ChunkSim::advance` (warm-up, then the measured
//! references) and `ChunkSim::finish`, so each phase is timed on its own.
//! The pool claims jobs in submission order from a shared counter, as the
//! runner's pool does, and isolates each job with `catch_unwind`.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pom_tlb::{
    run_jobs_with, share_traces, JobOutcome, RunPolicy, Scheme, SimConfig, SimJob, SimReport,
    SystemConfig,
};
use pomtlb_trace::SharedTrace;
use pomtlb_workloads::by_name;
use pomtlb_workloads::consolidation::{
    consolidation_spec, DEFAULT_CHURN_DESTROYS, DEFAULT_CHURN_FORKS,
};

use crate::checks::{check_reports, reports_digest, Checks};
use crate::spans::{SpanId, Tracer};
use crate::stats::{median_by, peak_rss_mb, quantile, ratio};
use crate::{replay, Metrics, Options, Outcome};

/// The four schemes of a `compare` request, in its order.
pub(crate) const SCHEMES: [Scheme; 4] = [
    Scheme::Baseline,
    Scheme::PomTlb {
        cache_entries: true,
        bypass_predictor: true,
    },
    Scheme::SharedL2,
    Scheme::Tsb,
];

/// One of the three batches a `sweep` round runs, in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// Four-scheme compare on the largest small-page footprints, short runs.
    Setup,
    /// Four-scheme compare on high-MPKI, mostly large-page workloads, long runs.
    Steady,
    /// The consolidation spec at 1,000 VMs with destroy churn and fork storms.
    Churn,
}

impl Part {
    /// Every part, in the order a round runs them.
    pub const ALL: [Part; 3] = [Part::Setup, Part::Steady, Part::Churn];

    /// The part's name in metric names (`part.<name>.*`).
    pub fn name(self) -> &'static str {
        match self {
            Part::Setup => "setup",
            Part::Steady => "steady",
            Part::Churn => "churn",
        }
    }

    /// Worker threads the part runs on, on a host with `cores` cores.
    /// `steady` and `churn` measure the per-reference path, whose host
    /// time is steadiest on one worker; `setup` loads every core, as a
    /// compare batch does.
    pub fn workers(self, cores: usize) -> usize {
        match self {
            Part::Setup => cores.max(1),
            Part::Steady | Part::Churn => 1,
        }
    }

    /// The part's batch, built from the run's seed.
    fn jobs(self, seed: u64, smoke: bool) -> Vec<SimJob> {
        let size = |cores, refs, warmup| {
            if smoke {
                Size {
                    cores: 2,
                    refs: 400,
                    warmup: 100,
                }
            } else {
                Size {
                    cores,
                    refs,
                    warmup,
                }
            }
        };
        match self {
            // The largest small-page footprints, short runs: begin() dominates.
            Part::Setup => compare_jobs(
                &["gups", "graph500", "ccomponent"],
                size(8, 2_000, 500),
                seed,
            ),
            // High-MPKI, mostly large-page workloads, long runs: the
            // per-reference path dominates.
            Part::Steady => compare_jobs(&["mcf", "astar"], size(2, 600_000, 150_000), seed),
            Part::Churn => {
                // Churn fires about once per 10,000 references per core, so
                // even the smoke size runs long enough to see some.
                let (s, vms) = if smoke {
                    (
                        Size {
                            cores: 2,
                            refs: 15_000,
                            warmup: 5_000,
                        },
                        50,
                    )
                } else {
                    (size(8, 12_000, 3_000), 1_000)
                };
                let spec =
                    consolidation_spec(vms, Some((DEFAULT_CHURN_DESTROYS, DEFAULT_CHURN_FORKS)));
                SCHEMES
                    .iter()
                    .map(|&scheme| {
                        SimJob::new(
                            format!("{}/{}", spec.name, scheme.label()),
                            &spec,
                            scheme,
                            sim(s, seed),
                        )
                        .with_system_config(sys(s))
                        .shared_memory(true)
                    })
                    .collect()
            }
        }
    }

    /// Whether the replay of this part's recorded stream gives the
    /// component metric `name`: page mapping and prepopulation come from
    /// the large footprints of `setup`, shootdowns from the OS events of
    /// `churn`, and every per-reference component from `steady`.
    fn replays(self, name: &str) -> bool {
        let setup = name.starts_with("page_table.") || name == "pom_tlb.prepopulate_ns_per_page";
        let churn = name.starts_with("shootdown.");
        match self {
            Part::Setup => setup,
            Part::Steady => !setup && !churn,
            Part::Churn => churn,
        }
    }
}

/// Run lengths and machine size of one part.
#[derive(Debug, Clone, Copy)]
struct Size {
    /// Simulated cores.
    cores: usize,
    /// Measured references per core.
    refs: u64,
    /// Warm-up references per core.
    warmup: u64,
}

fn sys(s: Size) -> SystemConfig {
    SystemConfig {
        n_cores: s.cores,
        ..SystemConfig::default()
    }
}

fn sim(s: Size, seed: u64) -> SimConfig {
    SimConfig {
        refs_per_core: s.refs,
        warmup_per_core: s.warmup,
        seed: crate::mix(seed),
    }
}

fn compare_jobs(names: &[&str], s: Size, seed: u64) -> Vec<SimJob> {
    let mut jobs = Vec::new();
    for name in names {
        let w = by_name(name).expect("a paper workload");
        for scheme in SCHEMES {
            jobs.push(
                SimJob::new(
                    format!("{}/{}", w.name, scheme.label()),
                    &w.spec,
                    scheme,
                    sim(s, seed),
                )
                .with_system_config(sys(s))
                .shared_memory(w.suite.shares_memory()),
            );
        }
    }
    jobs
}

/// One job's phase timings and report.
#[derive(Debug)]
struct JobRun {
    report: Result<SimReport, String>,
    begin: Duration,
    warmup: Duration,
    measure: Duration,
    finish: Duration,
    /// From claim to drop of the finished simulation.
    wall: Duration,
    warm_refs: u64,
    measured_refs: u64,
}

/// One part of a round: trace recording plus the part's batch.
#[derive(Debug)]
struct Batch {
    record: Duration,
    items: u64,
    jobs: Vec<JobRun>,
    wall: Duration,
    traces: Vec<Arc<SharedTrace>>,
}

/// One round: every part's batch, in [`Part::ALL`] order.
#[derive(Debug)]
struct Round {
    batches: Vec<Batch>,
    wall: Duration,
}

impl Round {
    fn jobs(&self) -> impl Iterator<Item = &JobRun> {
        self.batches.iter().flat_map(|b| b.jobs.iter())
    }

    fn reports(&self) -> Vec<SimReport> {
        self.jobs()
            .filter_map(|j| j.report.as_ref().ok().cloned())
            .collect()
    }

    fn setup(&self) -> Duration {
        let record: Duration = self.batches.iter().map(|b| b.record).sum();
        record + self.jobs().map(|j| j.begin).sum::<Duration>()
    }

    fn refs_per_s(&self) -> f64 {
        let refs: u64 = self.jobs().map(|j| j.warm_refs + j.measured_refs).sum();
        let secs: f64 = self
            .jobs()
            .map(|j| (j.warmup + j.measure).as_secs_f64())
            .sum();
        ratio(refs as f64, secs)
    }
}

fn run_job(job: &SimJob, idx: u64, tracer: &Tracer, parent: SpanId) -> JobRun {
    let span = tracer.open("job", idx, parent);
    let start = Instant::now();
    let warm_refs = job.sim.warmup_per_core * job.sys.n_cores as u64;
    let measured_refs = job.sim.refs_per_core * job.sys.n_cores as u64;
    let mut run = JobRun {
        report: Err(String::new()),
        begin: Duration::ZERO,
        warmup: Duration::ZERO,
        measure: Duration::ZERO,
        finish: Duration::ZERO,
        wall: Duration::ZERO,
        warm_refs,
        measured_refs,
    };
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let simulation = job.to_simulation();
        let t = Instant::now();
        let mut chunk = tracer.span("system.begin", idx, span, |_| simulation.begin());
        run.begin = t.elapsed();
        let t = Instant::now();
        let warm = tracer.span("advance.warmup", idx, span, |_| chunk.advance(warm_refs));
        run.warmup = t.elapsed();
        let t = Instant::now();
        let measured = tracer.span("advance.measure", idx, span, |_| chunk.advance(u64::MAX));
        run.measure = t.elapsed();
        let t = Instant::now();
        let report = tracer.span("system.finish", idx, span, |_| chunk.finish());
        run.finish = t.elapsed();
        (report, warm + measured)
    }));
    run.report = match caught {
        Ok((report, done)) if done == warm_refs + measured_refs => Ok(report),
        Ok((_, done)) => Err(format!(
            "{}: advanced {done} of {} refs",
            job.label,
            warm_refs + measured_refs
        )),
        Err(payload) => Err(format!(
            "{}: panicked: {}",
            job.label,
            panic_text(payload.as_ref())
        )),
    };
    run.wall = start.elapsed();
    tracer.close(span);
    run
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Records one part's streams and runs its batch on `workers` threads.
/// Job span ids start at `first_id`, so they are unique within a round.
fn run_batch(
    jobs: &[SimJob],
    workers: usize,
    tracer: &Tracer,
    parent: SpanId,
    first_id: u64,
) -> Batch {
    let start = Instant::now();
    let mut jobs = jobs.to_vec();
    let t = Instant::now();
    tracer.span("trace.record", first_id, parent, |_| {
        share_traces(&mut jobs)
    });
    let record = t.elapsed();
    let mut traces: Vec<Arc<SharedTrace>> = Vec::new();
    for job in &jobs {
        let trace = job
            .trace
            .as_ref()
            .expect("share_traces attaches a recording to every job");
        if !traces.iter().any(|t| Arc::ptr_eq(t, trace)) {
            traces.push(Arc::clone(trace));
        }
    }
    let items = traces.iter().map(|t| t.items()).sum();

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobRun>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, jobs.len().max(1)) {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(idx) else { break };
                let run = run_job(job, first_id + idx as u64, tracer, parent);
                *slots[idx].lock().expect("slot lock") = Some(run);
            });
        }
    });
    let jobs = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock")
                .expect("every claimed job stores a run")
        })
        .collect();
    Batch {
        record,
        items,
        jobs,
        wall: start.elapsed(),
        traces,
    }
}

/// Every part's jobs with its worker count, in [`Part::ALL`] order.
type Plan = Vec<(Part, Vec<SimJob>, usize)>;

fn run_round(plan: &Plan, tracer: &Tracer, round: u64) -> Round {
    let round_span = tracer.open("round", round, None);
    let start = Instant::now();
    let mut first_id = 0;
    let mut batches = Vec::new();
    for (i, (_, jobs, workers)) in plan.iter().enumerate() {
        let part_span = tracer.open("part", i as u64, round_span);
        batches.push(run_batch(jobs, *workers, tracer, part_span, first_id));
        tracer.close(part_span);
        first_id += jobs.len() as u64;
    }
    let wall = start.elapsed();
    tracer.close(round_span);
    Round { batches, wall }
}

/// Checks one round: every job completed, every report satisfies the
/// resolution identity, and the round's digest equals the first round's.
fn check_round(checks: &mut Checks, round: &Round, expected_digest: &mut Option<String>) {
    for job in round.jobs() {
        let err = job.report.as_ref().err();
        checks.record(err.is_none(), || err.cloned().unwrap_or_default());
    }
    let reports = round.reports();
    check_reports(checks, &reports);
    if reports.len() == round.jobs().count() {
        let digest = reports_digest(&reports);
        let first = expected_digest.get_or_insert_with(|| digest.clone());
        let same = *first == digest;
        checks.record(same, || {
            format!("report digest {digest} differs from the first round's {first}")
        });
    }
}

/// Runs the `sweep` workload and reports its metrics. One warm-up round
/// is run and discarded first; it counts against `opts.seconds`, and no
/// round is started that would be expected to end more than half a round
/// past it, so a run takes about `opts.seconds`.
pub fn run(opts: &Options) -> Outcome {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(opts.seconds);
    let plan: Plan = Part::ALL
        .iter()
        .map(|&p| (p, p.jobs(opts.seed, opts.smoke), p.workers(opts.cores)))
        .collect();
    let mut checks = Checks::default();
    let mut digest = None;
    let untraced = Tracer::off();
    let traced = Tracer::new(opts.trace);

    let warm = run_round(&plan, &untraced, 0);
    check_round(&mut checks, &warm, &mut digest);
    let first_reports: Vec<Vec<SimReport>> = warm
        .batches
        .iter()
        .map(|b| {
            b.jobs
                .iter()
                .filter_map(|j| j.report.as_ref().ok().cloned())
                .collect()
        })
        .collect();
    // The replay needs one recorded stream per part; an untraced run
    // keeps none, so its peak memory is the rounds' own.
    let first_traces: Vec<Option<Arc<SharedTrace>>> = warm
        .batches
        .iter()
        .map(|b| b.traces.first().filter(|_| opts.trace).cloned())
        .collect();
    let mut typical = warm.wall;
    drop(warm);

    // Untraced rounds give the end-to-end numbers. The traced run
    // alternates traced and untraced rounds so its overhead is measured
    // against rounds run under the same conditions.
    let mut plain: Vec<Round> = Vec::new();
    let mut with_spans: Vec<Round> = Vec::new();
    let mut n = 1;
    while plain.is_empty()
        || (opts.trace && with_spans.is_empty())
        || Instant::now() + typical / 2 < deadline
    {
        let tracing = opts.trace && n % 2 == 0;
        let round = run_round(&plan, if tracing { &traced } else { &untraced }, n);
        check_round(&mut checks, &round, &mut digest);
        // Keep only timings; the recorded streams are large.
        let round = Round {
            batches: round
                .batches
                .into_iter()
                .map(|b| Batch {
                    traces: Vec::new(),
                    ..b
                })
                .collect(),
            ..round
        };
        if tracing {
            with_spans.push(round)
        } else {
            plain.push(round)
        }
        typical = Duration::from_secs_f64(median_by(&plain, |r| r.wall.as_secs_f64()));
        n += 1;
    }

    let mut m = Metrics::default();
    let wall = median_by(&plain, |r| r.wall.as_secs_f64());
    m.set("wall_s", wall);
    m.set("setup_s", median_by(&plain, |r| r.setup().as_secs_f64()));
    m.set("sim_refs_per_s", median_by(&plain, Round::refs_per_s));
    // A request is one sweep: the three batches a user runs to compare
    // the schemes, so its latency is a round's wall time. (Taking each
    // batch as a request would put the median on the middle batch alone,
    // measured over a third of the time.)
    let requests: Vec<f64> = plain.iter().map(|r| r.wall.as_secs_f64() * 1e3).collect();
    m.set("req_p50_ms", quantile(&requests, 0.50));
    m.set("req_p99_ms", quantile(&requests, 0.99));
    m.set(
        "req_per_s",
        median_by(&plain, |r| ratio(1.0, r.wall.as_secs_f64())),
    );

    let parts: Vec<String> = plan
        .iter()
        .map(|(p, jobs, workers)| format!("{}:jobs={},workers={workers}", p.name(), jobs.len()))
        .collect();
    let mut notes = vec![
        format!(
            "report_digest sweep seed={} {}",
            opts.seed,
            digest.clone().unwrap_or_default()
        ),
        format!(
            "rounds measured={} traced={} requests={} parts {}",
            plain.len(),
            with_spans.len(),
            requests.len(),
            parts.join(" ")
        ),
    ];
    if opts.trace {
        layer_metrics(&mut m, &plain, &first_reports.concat());
        part_metrics(&mut m, &plain, &first_reports);
        let traced_wall = median_by(&with_spans, |r| r.wall.as_secs_f64());
        m.set("tracing.overhead", ratio(traced_wall, wall));
        for (name, secs) in traced.self_seconds() {
            m.set(format!("self_s.{name}"), secs / with_spans.len() as f64);
        }
        runner_metrics(&mut m, &mut checks, &plan, digest.as_deref());
        for ((part, jobs, _), trace) in plan.iter().zip(&first_traces) {
            if let (Some(trace), Some(job)) = (trace, jobs.first()) {
                let mut replayed = Metrics::default();
                replay::components(&mut replayed, trace, job, opts.smoke);
                for name in replayed.names().filter(|n| part.replays(n)) {
                    m.set(name, replayed.get(name).unwrap_or_default());
                }
            }
        }
        let path = opts.work_dir.join("spans-sweep.jsonl");
        match traced.write_jsonl(&path) {
            Ok(()) => notes.push(format!("spans written to {}", path.display())),
            Err(e) => {
                checks.record(false, || {
                    format!("cannot write spans to {}: {e}", path.display())
                });
            }
        }
    }
    m.set("peak_rss_mb", peak_rss_mb());
    Outcome {
        checks,
        metrics: m,
        notes,
    }
}

/// Per-layer numbers from the untraced rounds' phase timings, and the
/// simulated statistics of the first round's reports.
fn layer_metrics(m: &mut Metrics, rounds: &[Round], reports: &[SimReport]) {
    let jobs: Vec<&JobRun> = rounds.iter().flat_map(Round::jobs).collect();
    let sum =
        |f: &dyn Fn(&JobRun) -> Duration| -> f64 { jobs.iter().map(|j| f(j).as_secs_f64()).sum() };
    let refs = |f: &dyn Fn(&JobRun) -> u64| -> f64 { jobs.iter().map(|j| f(j) as f64).sum() };
    let record = |r: &Round| r.batches.iter().map(|b| b.record).sum::<Duration>();
    m.set(
        "trace.record_ms",
        median_by(rounds, |r| record(r).as_secs_f64() * 1e3),
    );
    m.set(
        "trace.ns_per_item",
        median_by(rounds, |r| {
            let items: u64 = r.batches.iter().map(|b| b.items).sum();
            ratio(record(r).as_nanos() as f64, items as f64)
        }),
    );
    m.set(
        "system.begin_ms",
        median_by(&jobs, |j| j.begin.as_secs_f64() * 1e3),
    );
    m.set(
        "system.begin_share",
        ratio(sum(&|j| j.begin), sum(&|j| j.wall)),
    );
    m.set(
        "system.warmup_ns_per_ref",
        ratio(sum(&|j| j.warmup) * 1e9, refs(&|j| j.warm_refs)),
    );
    m.set(
        "system.measure_ns_per_ref",
        ratio(sum(&|j| j.measure) * 1e9, refs(&|j| j.measured_refs)),
    );
    m.set(
        "system.finish_ms",
        median_by(&jobs, |j| j.finish.as_secs_f64() * 1e3),
    );
    replay::simulated(m, reports);
}

/// Each part's batch wall time, the share of its jobs' time spent in
/// `begin()`, and the shootdowns its first round's reports count.
fn part_metrics(m: &mut Metrics, rounds: &[Round], reports: &[Vec<SimReport>]) {
    for (i, part) in Part::ALL.iter().enumerate() {
        let name = part.name();
        let batches: Vec<&Batch> = rounds.iter().map(|r| &r.batches[i]).collect();
        let jobs: Vec<&JobRun> = batches.iter().flat_map(|b| b.jobs.iter()).collect();
        let sum = |f: &dyn Fn(&JobRun) -> Duration| -> f64 {
            jobs.iter().map(|j| f(j).as_secs_f64()).sum()
        };
        m.set(
            format!("part.{name}.wall_s"),
            median_by(&batches, |b| b.wall.as_secs_f64()),
        );
        m.set(
            format!("part.{name}.begin_share"),
            ratio(sum(&|j| j.begin), sum(&|j| j.wall)),
        );
        let events: u64 = reports[i].iter().map(|r| r.shootdowns.events).sum();
        m.set(format!("part.{name}.shootdown_events"), events as f64);
    }
}

/// Runs every part once through the runner's own pool (`run_jobs_with`)
/// and reports its busy and idle time, retries and failures, summed over
/// the parts. The reports must match the instrumented pool's byte for
/// byte.
fn runner_metrics(m: &mut Metrics, checks: &mut Checks, plan: &Plan, digest: Option<&str>) {
    let (mut wall, mut busy, mut idle) = (0.0, 0.0, 0.0);
    let (mut retried, mut failed) = (0u32, 0usize);
    let mut reports: Vec<SimReport> = Vec::new();
    for (_, jobs, workers) in plan {
        let mut jobs = jobs.clone();
        share_traces(&mut jobs);
        let start = Instant::now();
        let outcomes = run_jobs_with(jobs, *workers, RunPolicy::default(), &|_, _| {});
        let part_wall = start.elapsed().as_secs_f64();
        let part_busy: f64 = outcomes
            .iter()
            .filter_map(|o| o.result())
            .map(|r| r.wall.as_secs_f64())
            .sum();
        wall += part_wall;
        busy += part_busy;
        idle += (*workers as f64 * part_wall - part_busy).max(0.0);
        retried += outcomes
            .iter()
            .map(|o| {
                if let JobOutcome::Retried { retries, .. } = o {
                    *retries
                } else {
                    0
                }
            })
            .sum::<u32>();
        failed += outcomes.iter().filter(|o| !o.completed()).count();
        reports.extend(
            outcomes
                .into_iter()
                .filter_map(|o| o.into_result())
                .map(|r| r.report),
        );
    }
    m.set("runner.wall_s", wall);
    m.set("runner.busy_s", busy);
    m.set("runner.idle_s", idle);
    m.set("runner.retried", f64::from(retried));
    m.set("runner.failed", failed as f64);
    let same = digest == Some(reports_digest(&reports).as_str());
    checks.record(same, || {
        "runner reports differ from the begin/advance/finish reports".to_string()
    });
}
