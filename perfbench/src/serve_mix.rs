//! The `serve_mix` workload: closed-loop clients, one per core, on one
//! in-process `Service` with a report directory and the hot cache on.
//!
//! Each round opens a fresh `Service` on the same directory, and every
//! client then sends, waiting for each reply before the next request:
//!
//! 1. a first-seen request that every client sends at once, after a
//!    barrier: one computes it and the others are coalesced onto it;
//! 2. the first client only: a first-seen request of its own, which is
//!    computed and written to the report store while the other clients
//!    go on reading;
//! 3. its share of the previous round's requests, which this round's
//!    fresh `Service` answers from the store (memoized);
//! 4. repeats of requests it has already been answered in this round,
//!    which the hot cache answers.
//!
//! One computation runs at a time, so a round's wall time follows one
//! core's speed. With every client computing at once it follows the
//! slower of the cores, and on a shared host it spread more across runs.
//!
//! Every reply is checked: a refused or errored request is a failure,
//! and every body for one request digest must be byte-identical,
//! whichever tier answered.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use pomtlb_serve::{
    request_digest, HotCache, ReportStore, ServeConfig, ServeRequest, Service, ServiceCounters,
    DEFAULT_HOT_MAX_BYTES,
};
use pomtlb_trace::digest::digest_hex;

use crate::checks::{body_digest, parse_reply, BodyLedger, Checks, Reply};
use crate::spans::{SpanId, Tracer};
use crate::stats::{median_by, peak_rss_mb, quantile, ratio};
use crate::{mix, Metrics, Options, Outcome};

/// Small-footprint paper workloads the computed requests cycle over.
const WORKLOADS: [&str; 4] = ["astar", "bwaves", "gcc", "soplex"];

/// Per-request run size.
#[derive(Debug, Clone, Copy)]
struct Size {
    cores: u64,
    refs: u64,
    warmup: u64,
    /// Hot repeats each client sends per round.
    hot: usize,
}

impl Size {
    fn of(smoke: bool) -> Size {
        if smoke {
            Size {
                cores: 2,
                refs: 300,
                warmup: 100,
                hot: 8,
            }
        } else {
            Size {
                cores: 2,
                refs: 3_000,
                warmup: 1_000,
                hot: 40,
            }
        }
    }

    /// References one compare request simulates: four schemes.
    fn sim_refs(self) -> u64 {
        4 * self.cores * (self.refs + self.warmup)
    }
}

/// One request: its line without an id, and its digest.
#[derive(Debug, Clone)]
struct Req {
    fields: String,
    digest: [u8; 32],
}

impl Req {
    fn new(seed: u64, size: Size) -> Req {
        let workload = WORKLOADS[(seed % WORKLOADS.len() as u64) as usize];
        let fields = format!(
            "\"kind\":\"compare\",\"workload\":\"{workload}\",\"cores\":{},\"refs\":{},\"warmup\":{},\"seed\":{}",
            size.cores,
            size.refs,
            size.warmup,
            seed >> 16
        );
        let req: ServeRequest =
            serde_json::from_str(&format!("{{{fields}}}")).expect("benchmark requests parse");
        let digest = request_digest(&req.resolve().expect("benchmark requests resolve"));
        Req { fields, digest }
    }

    fn line(&self, id: &str) -> String {
        format!("{{\"id\":\"{id}\",{}}}", self.fields)
    }
}

/// Which tier answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Computed,
    Memoized,
    Hot,
    Coalesced,
    Refused,
}

impl Tier {
    fn of(provenance: &str) -> Tier {
        match provenance {
            "computed" => Tier::Computed,
            "memoized" => Tier::Memoized,
            "hot" => Tier::Hot,
            "coalesced" => Tier::Coalesced,
            _ => Tier::Refused,
        }
    }
}

/// The requests one round sends.
struct Script {
    pair: Req,
    own: Req,
    memo: Vec<Req>,
}

/// One round's measurements.
struct Round {
    setup: Duration,
    wall: Duration,
    samples: Vec<(Tier, Duration)>,
    counters: ServiceCounters,
}

impl Round {
    fn answered(&self) -> impl Iterator<Item = &(Tier, Duration)> {
        self.samples.iter().filter(|s| s.0 != Tier::Refused)
    }
}

/// State shared by the clients of every round.
struct Shared {
    size: Size,
    ledger: Mutex<BodyLedger>,
    /// Bodies of the first two rounds only, which every run sends, so the
    /// digest repeats whatever number of rounds fit in the run.
    digest_ledger: Mutex<BodyLedger>,
    checks: Mutex<Checks>,
    next_id: AtomicU64,
}

impl Shared {
    /// Sends one request on `service` and checks the reply.
    fn send(
        &self,
        tracer: &Tracer,
        service: &mut Service,
        req: &Req,
        round: u64,
        parent: SpanId,
    ) -> (Tier, Duration) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let line = req.line(&format!("q{id}"));
        let t = Instant::now();
        let reply = tracer.span("serve.request", id, parent, |_| service.handle_line(&line));
        let elapsed = t.elapsed();
        let reply = reply.unwrap_or_default();
        let digest = digest_hex(&req.digest);
        let mut checks = self.checks.lock().expect("checks lock");
        match parse_reply(&reply) {
            Reply::Ok { provenance, body } => {
                let tier = Tier::of(provenance);
                let labelled = body_digest(body) == Some(digest.as_str());
                checks.record(tier != Tier::Refused && labelled, || {
                    format!("reply to q{id} is mislabelled: {provenance}")
                });
                let same = self
                    .ledger
                    .lock()
                    .expect("ledger lock")
                    .admit(&digest, body);
                checks.record(same, || {
                    format!("{provenance} body for {digest} differs from an earlier answer")
                });
                if round <= 1 {
                    self.digest_ledger
                        .lock()
                        .expect("ledger lock")
                        .admit(&digest, body);
                }
                (tier, elapsed)
            }
            Reply::Refused(line) => {
                checks.record(false, || format!("request q{id} refused: {line}"));
                (Tier::Refused, elapsed)
            }
        }
    }
}

fn script(seed: u64, round: u64, size: Size, previous: &[Req]) -> Script {
    let req = |k: u64| Req::new(mix(seed ^ mix(round << 8 | k)), size);
    Script {
        pair: req(0),
        own: req(1),
        memo: previous.to_vec(),
    }
}

fn run_round(
    shared: &Shared,
    cfg: &ServeConfig,
    script: &Script,
    round: u64,
    clients: usize,
    tracer: &Tracer,
) -> Round {
    let round_span = tracer.open("serve.round", round, None);
    let start = Instant::now();
    let t = Instant::now();
    let service = tracer.span("serve.setup", round, round_span, |_| {
        Service::new(cfg.clone())
    });
    let setup = t.elapsed();
    let service = match service {
        Ok(s) => s,
        Err(e) => {
            shared
                .checks
                .lock()
                .expect("checks lock")
                .record(false, || format!("Service::new failed: {e}"));
            tracer.close(round_span);
            return Round {
                setup,
                wall: start.elapsed(),
                samples: Vec::new(),
                counters: ServiceCounters::default(),
            };
        }
    };
    let barrier = Barrier::new(clients);
    let samples: Vec<(Tier, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mut conn = service.connection();
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut answered: Vec<&Req> = Vec::new();
                    barrier.wait();
                    out.push(shared.send(tracer, &mut conn, &script.pair, round, round_span));
                    answered.push(&script.pair);
                    if c == 0 {
                        out.push(shared.send(tracer, &mut conn, &script.own, round, round_span));
                        answered.push(&script.own);
                    }
                    for req in script.memo.iter().skip(c).step_by(clients) {
                        out.push(shared.send(tracer, &mut conn, req, round, round_span));
                        answered.push(req);
                    }
                    let mut pick = mix(round << 16 | c as u64);
                    for _ in 0..shared.size.hot {
                        pick = mix(pick);
                        let req = answered[(pick % answered.len() as u64) as usize];
                        out.push(shared.send(tracer, &mut conn, req, round, round_span));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a serve client panicked"))
            .collect()
    });
    let wall = start.elapsed();
    tracer.close(round_span);
    Round {
        setup,
        wall,
        samples,
        counters: service.counters(),
    }
}

/// Runs the serve workload for `opts.seconds`, the discarded warm-up
/// round included.
pub fn run(opts: &Options) -> Outcome {
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let size = Size::of(opts.smoke);
    let clients = opts.workload.workers(opts.cores);
    let dir = opts
        .work_dir
        .join(format!("serve-{}-{}", std::process::id(), opts.seed));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig {
        report_dir: Some(dir.clone()),
        jobs: 1,
        hot_max_bytes: DEFAULT_HOT_MAX_BYTES,
        ..ServeConfig::default()
    };
    let tracer = Tracer::new(opts.trace);
    let untraced = Tracer::off();
    let shared = Shared {
        size,
        ledger: Mutex::new(BodyLedger::default()),
        digest_ledger: Mutex::new(BodyLedger::default()),
        checks: Mutex::new(Checks::default()),
        next_id: AtomicU64::new(0),
    };

    let mut previous: Vec<Req> = Vec::new();
    let mut warm_up_reqs: Vec<Req> = Vec::new();
    let mut plain: Vec<Round> = Vec::new();
    let mut with_spans: Vec<Round> = Vec::new();
    let mut round = 0u64;
    loop {
        let s = script(opts.seed, round, size, &previous);
        let tracing = opts.trace && round.is_multiple_of(2) && round > 0;
        let r = run_round(
            &shared,
            &cfg,
            &s,
            round,
            clients,
            if tracing { &tracer } else { &untraced },
        );
        previous = vec![s.pair, s.own];
        if round == 0 {
            warm_up_reqs = previous.clone();
        }
        // Round 0 is the warm-up: it fills the store and is discarded.
        if round > 0 {
            if tracing {
                with_spans.push(r)
            } else {
                plain.push(r)
            }
        }
        round += 1;
        let enough = !plain.is_empty() && (!opts.trace || !with_spans.is_empty());
        if enough && Instant::now() >= deadline {
            break;
        }
    }

    let mut m = Metrics::default();
    let wall = median_by(&plain, |r| r.wall.as_secs_f64());
    m.set("wall_s", wall);
    m.set("setup_s", median_by(&plain, |r| r.setup.as_secs_f64()));
    // A refused request has no latency: it counts as missing.
    let answered: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.answered().map(|s| s.1.as_secs_f64() * 1e3))
        .collect();
    m.set("req_p50_ms", quantile(&answered, 0.50));
    m.set("req_p99_ms", quantile(&answered, 0.99));
    m.set(
        "req_per_s",
        median_by(&plain, |r| {
            ratio(r.answered().count() as f64, r.wall.as_secs_f64())
        }),
    );
    m.set(
        "sim_refs_per_s",
        median_by(&plain, |r| {
            ratio(
                (r.counters.computed * size.sim_refs()) as f64,
                r.wall.as_secs_f64(),
            )
        }),
    );

    let mut checks = shared.checks.into_inner().expect("checks lock");
    let mut ledger = shared.ledger.into_inner().expect("ledger lock");
    let mut notes = vec![
        format!(
            "report_digest serve_mix seed={} {}",
            opts.seed,
            shared
                .digest_ledger
                .into_inner()
                .expect("ledger lock")
                .digest()
        ),
        format!(
            "rounds measured={} traced={} requests={}",
            plain.len(),
            with_spans.len(),
            answered.len()
        ),
    ];
    if opts.trace {
        tier_metrics(&mut m, &plain);
        let traced_wall = median_by(&with_spans, |r| r.wall.as_secs_f64());
        m.set("tracing.overhead", ratio(traced_wall, wall));
        for (name, secs) in tracer.self_seconds() {
            m.set(format!("self_s.{name}"), secs / with_spans.len() as f64);
        }
        component_metrics(
            &mut m,
            &mut checks,
            &warm_up_reqs,
            &mut ledger,
            &dir,
            &opts.work_dir,
        );
        let path = opts.work_dir.join("spans-serve_mix.jsonl");
        match tracer.write_jsonl(&path) {
            Ok(()) => notes.push(format!("spans written to {}", path.display())),
            Err(e) => {
                checks.record(false, || {
                    format!("cannot write spans to {}: {e}", path.display())
                });
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    m.set("peak_rss_mb", peak_rss_mb());
    Outcome {
        checks,
        metrics: m,
        notes,
    }
}

/// Latency by tier and request counts, from the untraced rounds.
fn tier_metrics(m: &mut Metrics, rounds: &[Round]) {
    let p50 = |tier: Tier, scale: f64| {
        let v: Vec<f64> = rounds
            .iter()
            .flat_map(|r| {
                r.samples
                    .iter()
                    .filter(|s| s.0 == tier)
                    .map(|s| s.1.as_secs_f64() * scale)
            })
            .collect();
        quantile(&v, 0.5)
    };
    m.set("serve.hot_us", p50(Tier::Hot, 1e6));
    m.set("serve.memoized_us", p50(Tier::Memoized, 1e6));
    m.set("serve.coalesced_ms", p50(Tier::Coalesced, 1e3));
    m.set("serve.computed_ms", p50(Tier::Computed, 1e3));
    let total = |f: &dyn Fn(&ServiceCounters) -> u64| {
        rounds.iter().map(|r| f(&r.counters)).sum::<u64>() as f64
    };
    m.set("serve.hot", total(&|c| c.hot));
    m.set("serve.memoized", total(&|c| c.memoized));
    m.set("serve.computed", total(&|c| c.computed));
    m.set("serve.coalesced", total(&|c| c.coalesced));
    m.set("serve.busy", total(&|c| c.busy));
    let all =
        total(&|c| c.computed + c.memoized + c.hot + c.coalesced + c.busy + c.errors + c.deadlines);
    m.set("serve.requests", all);
    m.set(
        "serve.cache_ratio",
        ratio(total(&|c| c.served_from_cache()), all),
    );
}

/// Host time of the serve layer's parts, each called directly: request
/// parsing, resolution plus digest, the hot cache, and the report store.
/// `reqs` were computed and stored by the warm-up round; the store's copy
/// of each body must equal the bytes that were served.
fn component_metrics(
    m: &mut Metrics,
    checks: &mut Checks,
    reqs: &[Req],
    ledger: &mut BodyLedger,
    dir: &Path,
    work: &Path,
) {
    const REPS: usize = 200;
    let lines: Vec<String> = reqs.iter().map(|r| r.line("p")).collect();
    let per_call_us = |calls: usize, t: Duration| ratio(t.as_secs_f64() * 1e6, calls as f64);

    let t = Instant::now();
    for _ in 0..REPS {
        for line in &lines {
            black_box(serde_json::from_str::<ServeRequest>(line).expect("parses"));
        }
    }
    m.set(
        "serve.parse_us",
        per_call_us(lines.len() * REPS, t.elapsed()),
    );
    let parsed: Vec<ServeRequest> = lines
        .iter()
        .map(|l| serde_json::from_str(l).expect("parses"))
        .collect();
    let t = Instant::now();
    for _ in 0..REPS {
        for req in &parsed {
            black_box(request_digest(&req.resolve().expect("resolves")));
        }
    }
    m.set(
        "serve.digest_us",
        per_call_us(parsed.len() * REPS, t.elapsed()),
    );

    let store = match ReportStore::open(dir) {
        Ok(store) => store,
        Err(e) => {
            checks.record(false, || format!("cannot open {}: {e}", dir.display()));
            return;
        }
    };
    let t = Instant::now();
    let bodies: Vec<Option<Vec<u8>>> = reqs.iter().map(|r| store.load(&r.digest)).collect();
    m.set("serve.store_get_us", per_call_us(reqs.len(), t.elapsed()));
    let mut hot = HotCache::new(DEFAULT_HOT_MAX_BYTES);
    let mut stored = Vec::new();
    for (req, body) in reqs.iter().zip(bodies) {
        let body = body
            .and_then(|b| String::from_utf8(b).ok())
            .unwrap_or_default();
        let hex = digest_hex(&req.digest);
        let same = !body.is_empty() && ledger.admit(&hex, &body);
        checks.record(same, || {
            format!("stored body for {hex} differs from the served one")
        });
        hot.insert(req.digest, &body);
        stored.push((req.digest, body));
    }
    let t = Instant::now();
    for _ in 0..REPS {
        for req in reqs {
            black_box(hot.get(&req.digest));
        }
    }
    m.set(
        "serve.hot_get_us",
        per_call_us(reqs.len() * REPS, t.elapsed()),
    );

    let put_dir = work.join(format!("serve-put-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&put_dir);
    match ReportStore::open(&put_dir) {
        Ok(put) => {
            let t = Instant::now();
            let saved = stored
                .iter()
                .all(|(d, b)| put.save(d, b.as_bytes(), "compare", "bench").is_ok());
            m.set("serve.store_put_us", per_call_us(stored.len(), t.elapsed()));
            checks.record(saved, || "report store save failed".to_string());
        }
        Err(e) => {
            checks.record(false, || format!("cannot open {}: {e}", put_dir.display()));
        }
    }
    let _ = std::fs::remove_dir_all(&put_dir);
}
