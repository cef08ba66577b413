//! End-to-end proof of the concurrent serve contract (PR 8).
//!
//! The headline assertions:
//!
//! * K connections issuing the *same* request simultaneously cost exactly
//!   **one** computation — the single-flight table coalesces the rest —
//!   measured by the process-global [`pom_tlb::simulations_run`] and
//!   [`pomtlb_trace::interleaver_constructions`] counters, and every
//!   client's body is byte-identical to the leader's.
//! * The admission gate turns compute overload into a typed `busy` line
//!   instead of queueing unboundedly.
//! * The Unix-socket transport really does serve clients concurrently
//!   against one shared warm core, and drains cleanly on shutdown.
//!
//! Those counters are process-global, so tests that run simulations
//! serialize on one mutex; each asserts only on deltas it brackets.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Barrier, Mutex};

use pom_tlb::simulations_run;
use pomtlb_serve::{ServeConfig, Service, TierSnapshot};
use pomtlb_trace::interleaver_constructions;

static COUNTER_GUARD: Mutex<()> = Mutex::new(());

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir()
            .join(format!("pomtlb-serve-conc-{tag}-{}", std::process::id()));
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

/// A report-store-backed service with one compute permit. A test that
/// takes that permit itself parks the leader at the gate, so every
/// identical request arriving meanwhile coalesces onto the leader's
/// flight however fast compute is.
fn service(root: &Path) -> Service {
    Service::new(ServeConfig {
        report_dir: Some(root.join("reports")),
        max_inflight: 1,
        ..Default::default()
    })
    .expect("service opens")
}

/// Polls for up to 30 s until `followers` callers have coalesced onto a
/// flight; false if they never did.
fn followers_joined(svc: &Service, followers: u64) -> bool {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while svc.shared().flights().coalesced() < followers {
        if std::time::Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    true
}

fn compare_request(id: &str) -> String {
    format!(
        "{{\"id\":\"{id}\",\"kind\":\"compare\",\"workload\":\"gups\",\
         \"cores\":2,\"refs\":2000,\"warmup\":500}}"
    )
}

/// The raw bytes of the response's `body` field (`body` is the final
/// field of a response line by construction — an exact slice, no JSON
/// round-trip).
fn body_bytes(line: &str) -> &str {
    let idx = line.find("\"body\":").expect("response has a body");
    &line[idx + "\"body\":".len()..line.len() - 1]
}

#[test]
fn overlapping_identical_requests_coalesce_to_one_computation() {
    let _guard = COUNTER_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TempDir::new("coalesce");
    let svc = service(&dir.0);
    const CLIENTS: usize = 6;

    let interleavers_before = interleaver_constructions();
    let simulations_before = simulations_run();
    let barrier = Barrier::new(CLIENTS);
    let (responses, joined): (Vec<String>, bool) = std::thread::scope(|scope| {
        let gate = svc.shared().admission().admit().expect("the test takes the only permit");
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let mut conn = svc.connection();
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    conn.handle_line(&compare_request(&format!("client-{i}")))
                        .expect("response")
                })
            })
            .collect();
        // The leader is let go only once every follower is parked on its
        // flight; a failed wait still releases it, so the test cannot hang.
        let joined = followers_joined(&svc, (CLIENTS - 1) as u64);
        drop(gate);
        let responses = handles.into_iter().map(|h| h.join().expect("client thread")).collect();
        (responses, joined)
    });
    assert!(joined, "every follower joined the leader's flight");

    // Work accounting: a `compare` is four scheme jobs over one shared
    // input stream. K overlapping identical requests must cost exactly
    // that — zero duplicate jobs, zero duplicate generator passes.
    assert_eq!(
        simulations_run() - simulations_before,
        4,
        "exactly one client computed; the rest coalesced or hit a cache tier"
    );
    assert_eq!(
        interleaver_constructions() - interleavers_before,
        1,
        "the input stream was generated exactly once"
    );

    let reference = body_bytes(&responses[0]).to_string();
    for (i, response) in responses.iter().enumerate() {
        assert!(response.contains("\"ok\":true"), "client {i} got an ok line: {response}");
        assert_eq!(
            body_bytes(response),
            reference,
            "client {i}'s body must be byte-identical to every other client's"
        );
    }

    let counters = svc.counters();
    assert_eq!(counters.computed, 1, "one leader computed");
    assert_eq!(
        counters.served_from_cache(),
        (CLIENTS - 1) as u64,
        "every other client was served without work: {counters:?}"
    );
    assert_eq!(
        counters.coalesced,
        (CLIENTS - 1) as u64,
        "every other client coalesced onto the leader's flight: {counters:?}"
    );
    assert_eq!(counters.busy, 0);
    assert_eq!(counters.errors, 0);
}

#[test]
fn compute_overload_gets_a_typed_busy_line_not_a_stall() {
    let _guard = COUNTER_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    // One compute slot, zero queue, no cache tiers: the second distinct
    // request must be refused while the first is computing.
    let svc = Service::new(ServeConfig {
        max_inflight: 1,
        max_queue: 0,
        hot_max_bytes: 0,
        ..Default::default()
    })
    .expect("service opens");

    let slow = "{\"id\":\"slow\",\"kind\":\"compare\",\"workload\":\"gups\",\
                \"cores\":2,\"refs\":60000,\"warmup\":2000}";
    let other = "{\"id\":\"other\",\"kind\":\"sim\",\"workload\":\"mcf\",\
                 \"cores\":2,\"refs\":1500,\"warmup\":500}";

    std::thread::scope(|scope| {
        let mut slow_conn = svc.connection();
        let slow_handle = scope.spawn(move || slow_conn.handle_line(slow).expect("slow response"));

        // Wait until the slow request holds the one compute permit.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while svc.shared().admission().in_flight() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "slow request never reached the compute path"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }

        let mut conn = svc.connection();
        let refused = conn.handle_line(other).expect("busy response");
        assert!(refused.contains("\"ok\":false"), "refusal is not an ok line: {refused}");
        assert!(refused.contains("\"busy\":true"), "refusal is typed busy: {refused}");
        assert!(refused.contains("\"in_flight\":1"), "refusal reports depth: {refused}");

        let slow_response = slow_handle.join().expect("slow thread");
        assert!(slow_response.contains("\"ok\":true"), "the admitted request completes");
    });

    let counters = svc.counters();
    assert_eq!((counters.busy, counters.computed), (1, 1), "{counters:?}");

    // With the overload gone, the refused request is computable again.
    let mut conn = svc.connection();
    let retried = conn.handle_line(other).expect("retry response");
    assert!(retried.contains("\"ok\":true"), "retry after busy succeeds: {retried}");
}

#[cfg(unix)]
#[test]
fn unix_socket_serves_concurrent_clients_and_drains_on_shutdown() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let _guard = COUNTER_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TempDir::new("socket");
    let svc = service(&dir.0);
    let sock = dir.0.join("daemon.sock");
    const CLIENTS: usize = 4;

    let simulations_before = simulations_run();
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        let daemon = {
            let svc = &svc;
            let sock = sock.clone();
            scope.spawn(move || pomtlb_serve::serve_unix(svc, &sock).expect("daemon exits cleanly"))
        };

        // Wait for the socket to appear.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !sock.exists() {
            assert!(std::time::Instant::now() < deadline, "daemon never bound its socket");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }

        let gate = svc.shared().admission().admit().expect("the test takes the only permit");
        let (bodies, joined): (Vec<String>, bool) = {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|i| {
                    let sock = sock.clone();
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let stream = UnixStream::connect(&sock).expect("client connects");
                        let mut reader =
                            BufReader::new(stream.try_clone().expect("clone stream"));
                        let mut writer = stream;
                        barrier.wait();
                        writer
                            .write_all(
                                format!("{}\n", compare_request(&format!("sock-{i}"))).as_bytes(),
                            )
                            .expect("client writes");
                        let mut line = String::new();
                        reader.read_line(&mut line).expect("client reads");
                        assert!(line.contains("\"ok\":true"), "client {i} served: {line}");
                        body_bytes(line.trim_end()).to_string()
                    })
                })
                .collect();
            // The leader is let go only once every follower is parked on
            // its flight; a failed wait still releases it (and is asserted
            // after the daemon exits), so the test cannot hang.
            let joined = followers_joined(&svc, (CLIENTS - 1) as u64);
            drop(gate);
            (handles.into_iter().map(|h| h.join().expect("client thread")).collect(), joined)
        };
        for (i, body) in bodies.iter().enumerate() {
            assert_eq!(body, &bodies[0], "client {i} body is byte-identical across the socket");
        }

        // A last conversation shuts the daemon down.
        let stream = UnixStream::connect(&sock).expect("shutdown client connects");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut writer = stream;
        writer
            .write_all(b"{\"id\":\"q\",\"kind\":\"shutdown\"}\n")
            .expect("shutdown written");
        let mut line = String::new();
        reader.read_line(&mut line).expect("shutdown acknowledged");
        assert!(line.contains("\"ok\":true"));

        daemon.join().expect("daemon thread");
        assert!(joined, "every follower joined the leader's flight over the socket");
    });

    assert_eq!(
        simulations_run() - simulations_before,
        4,
        "the socket clients cost one computation total"
    );
    assert!(!sock.exists(), "socket file removed on clean shutdown");
    let counters = svc.counters();
    assert_eq!(counters.computed, 1, "{counters:?}");
    assert_eq!(counters.served_from_cache(), (CLIENTS - 1) as u64, "{counters:?}");
    assert_eq!(
        counters.coalesced,
        (CLIENTS - 1) as u64,
        "every other socket client coalesced onto the leader's flight: {counters:?}"
    );

    // The daemon persisted its tier counters for `report-store stats`.
    let snapshot =
        TierSnapshot::load(&dir.0.join("reports")).expect("tier snapshot written at shutdown");
    assert_eq!(snapshot.computed, 1);
    assert_eq!(
        snapshot.memoized + snapshot.hot + snapshot.coalesced,
        (CLIENTS - 1) as u64
    );
}
