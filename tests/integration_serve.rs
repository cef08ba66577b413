//! End-to-end proof of the serve daemon's memoization contract.
//!
//! The headline assertion: a repeated identical request is answered from
//! the report store with a byte-identical body, **zero** input-stream
//! generator passes and **zero** simulation jobs — measured by the
//! process-global [`pomtlb_trace::interleaver_constructions`] and
//! [`pom_tlb::simulations_run`] counters, before/after deltas.
//!
//! Those counters are process-global, so the tests in this binary that
//! run simulations serialize on one mutex; each test still asserts only
//! on deltas it brackets itself.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use pom_tlb::simulations_run;
use pomtlb_serve::{ServeConfig, Service};
use pomtlb_trace::interleaver_constructions;

static COUNTER_GUARD: Mutex<()> = Mutex::new(());

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir()
            .join(format!("pomtlb-integration-serve-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn service(root: &Path) -> Service {
    Service::new(ServeConfig {
        report_dir: Some(root.join("reports")),
        ..Default::default()
    })
    .expect("service opens")
}

/// A service with the in-memory hot tier disabled, for tests that must
/// exercise the on-disk store on every repeat.
fn service_disk_only(root: &Path) -> Service {
    Service::new(ServeConfig {
        report_dir: Some(root.join("reports")),
        hot_max_bytes: 0,
        ..Default::default()
    })
    .expect("service opens")
}

fn compare_request(id: &str) -> String {
    format!(
        "{{\"id\":\"{id}\",\"kind\":\"compare\",\"workload\":\"gups\",\
         \"cores\":2,\"refs\":2000,\"warmup\":500}}"
    )
}

/// The raw bytes of the response's `body` field. `body` is the final
/// field of a response line by construction, so this is an exact slice —
/// no JSON round-trip that could mask (or cause) a byte difference.
fn body_bytes(line: &str) -> &str {
    let idx = line.find("\"body\":").expect("response has a body");
    &line[idx + "\"body\":".len()..line.len() - 1]
}

fn provenance(line: &str) -> &str {
    for tier in ["memoized", "computed", "hot", "coalesced"] {
        if line.contains(&format!("\"provenance\":\"{tier}\"")) {
            return tier;
        }
    }
    "?"
}

#[test]
fn warm_identical_request_is_memoized_byte_identical_with_zero_work() {
    let _guard = COUNTER_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TempDir::new("warm");
    let mut svc = service(&dir.0);

    let cold = svc.handle_line(&compare_request("cold-1")).expect("cold response");
    assert_eq!(provenance(&cold), "computed");

    let interleavers_before = interleaver_constructions();
    let simulations_before = simulations_run();
    let warm = svc.handle_line(&compare_request("warm-2")).expect("warm response");
    assert_eq!(provenance(&warm), "hot", "in-process repeat is served by the hot tier");
    assert_eq!(
        interleaver_constructions() - interleavers_before,
        0,
        "warm pass must not build an input-stream interleaver"
    );
    assert_eq!(
        simulations_run() - simulations_before,
        0,
        "warm pass must not run a single simulation job"
    );
    assert_eq!(
        body_bytes(&cold),
        body_bytes(&warm),
        "hot body must be byte-identical to the computed one"
    );

    // A *fresh* service on the same directories — the daemon restarted —
    // still serves from disk with zero work.
    let mut svc2 = service(&dir.0);
    let interleavers_before = interleaver_constructions();
    let simulations_before = simulations_run();
    let revived = svc2.handle_line(&compare_request("warm-3")).expect("revived response");
    assert_eq!(provenance(&revived), "memoized");
    assert_eq!(interleaver_constructions() - interleavers_before, 0);
    assert_eq!(simulations_run() - simulations_before, 0);
    assert_eq!(body_bytes(&cold), body_bytes(&revived));

    // And the service's own books agree: one computed, two memoized.
    let stats = svc2.handle_line("{\"id\":\"s\",\"kind\":\"stats\"}").expect("stats");
    assert!(stats.contains("\"hits\":1"), "fresh handle saw one report-store hit: {stats}");
}

#[test]
fn fault_sweep_recomputes_every_time() {
    let _guard = COUNTER_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TempDir::new("faults");
    let mut svc = service(&dir.0);
    let req = |id: &str| {
        format!(
            "{{\"id\":\"{id}\",\"kind\":\"fault-sweep\",\"workload\":\"gups\",\
             \"cores\":2,\"refs\":1200,\"warmup\":400}}"
        )
    };

    let first = svc.handle_line(&req("f1")).expect("first response");
    let simulations_before = simulations_run();
    let second = svc.handle_line(&req("f2")).expect("second response");
    assert_eq!(provenance(&first), "computed");
    assert_eq!(provenance(&second), "computed");
    assert!(
        simulations_run() - simulations_before >= 8,
        "fault-sweep re-runs all eight jobs rather than serving the cache"
    );
    assert_eq!(
        svc.report_store().expect("store").counters().stores,
        0,
        "fault-injected bodies are never persisted"
    );
}

#[test]
fn memoization_survives_a_corrupted_entry_by_recomputing() {
    let _guard = COUNTER_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TempDir::new("corrupt");
    // Hot tier off: within one daemon the hot cache would (correctly)
    // keep answering from memory and mask the disk damage this test is
    // about.
    let mut svc = service_disk_only(&dir.0);
    let req = |id: &str| {
        format!(
            "{{\"id\":\"{id}\",\"kind\":\"sim\",\"workload\":\"gups\",\
             \"cores\":2,\"refs\":1200,\"warmup\":400}}"
        )
    };
    let cold = svc.handle_line(&req("c")).expect("cold");
    assert_eq!(provenance(&cold), "computed");

    // Damage every stored body on disk.
    let reports = dir.0.join("reports");
    let mut damaged = 0;
    for entry in fs::read_dir(&reports).expect("read dir").flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "pomrep") {
            let mut bytes = fs::read(&path).expect("read entry");
            let last = bytes.len() - 1;
            bytes[last] ^= 0xff;
            fs::write(&path, &bytes).expect("rewrite entry");
            damaged += 1;
        }
    }
    assert_eq!(damaged, 1, "the cold pass stored exactly one body");

    // The defect is detected, the request recomputes, and the recompute
    // repairs the store for the pass after it.
    let recomputed = svc.handle_line(&req("r")).expect("recomputed");
    assert_eq!(provenance(&recomputed), "computed");
    assert_eq!(body_bytes(&cold), body_bytes(&recomputed), "recompute is deterministic");
    let healed = svc.handle_line(&req("h")).expect("healed");
    assert_eq!(provenance(&healed), "memoized");
    assert_eq!(body_bytes(&cold), body_bytes(&healed));
    assert_eq!(svc.report_store().expect("store").counters().load_failures, 1);
}
