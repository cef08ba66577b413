//! End-to-end proof of the hardened TCP transport contract (PR 10).
//!
//! The headline assertions:
//!
//! * The TCP transport serves the same request semantics as the Unix
//!   socket — byte-identical bodies across cache tiers, typed refusal
//!   lines — plus the hardening knobs: bounded request lines, idle
//!   timeouts measured from the last *completed* request, a per-request
//!   compute deadline answering a typed `deadline_exceeded` line, and
//!   graceful drain that lets in-flight requests finish, refuses new
//!   connects, and persists tier counters exactly once.
//! * The resilient [`Client`] survives a deterministic chaos proxy
//!   injecting connection resets, torn writes, and stalls: every
//!   completed request's body is byte-identical to the fault-free
//!   reference, and afterwards the daemon holds zero connection slots,
//!   zero admission permits, and zero single-flight leaderships.
//!
//! Simulation counters are process-global, so tests that compute
//! serialize on one mutex, same as the concurrent-serve suite.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use pom_tlb::RunPolicy;
use pomtlb_serve::{
    ChaosConfig, ChaosProxy, Client, ClientConfig, ServeConfig, Service, TierSnapshot,
};

static COUNTER_GUARD: Mutex<()> = Mutex::new(());

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("pomtlb-tcp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn service(root: &Path, cfg: ServeConfig) -> Service {
    Service::new(ServeConfig {
        report_dir: Some(root.join("reports")),
        ..cfg
    })
    .expect("service opens")
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

/// Starts `serve_tcp` on an ephemeral loopback port inside `scope`,
/// returning the address and the daemon's join handle.
fn spawn_daemon<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    svc: &'scope Service,
) -> (SocketAddr, std::thread::ScopedJoinHandle<'scope, ()>) {
    let listener = pomtlb_serve::bind_tcp_listener("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let daemon = scope.spawn(move || {
        pomtlb_serve::serve_tcp(svc, listener).expect("daemon exits cleanly");
    });
    (addr, daemon)
}

/// One raw conversation: connect, send `lines`, read one response line
/// each, return them.
fn raw_roundtrip(addr: SocketAddr, lines: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    lines
        .iter()
        .map(|line| {
            writer.write_all(format!("{line}\n").as_bytes()).expect("client writes");
            let mut response = String::new();
            reader.read_line(&mut response).expect("client reads");
            response.trim_end().to_string()
        })
        .collect()
}

fn shutdown_via(addr: SocketAddr) {
    let responses =
        raw_roundtrip(addr, &["{\"id\":\"q\",\"kind\":\"shutdown\"}".to_string()]);
    assert!(responses[0].contains("\"ok\":true"), "shutdown acked: {}", responses[0]);
}

#[test]
fn tcp_round_trip_matches_tiers_and_answers_ping() {
    let _guard = COUNTER_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TempDir::new("roundtrip");
    let svc = service(&dir.0, ServeConfig::default());
    std::thread::scope(|scope| {
        let (addr, daemon) = spawn_daemon(scope, &svc);

        let responses = raw_roundtrip(
            addr,
            &[
                "{\"id\":\"p\",\"kind\":\"ping\"}".to_string(),
                compare_request("first"),
                compare_request("second"),
            ],
        );
        assert!(
            responses[0].contains("\"kind\":\"ping\"") && responses[0].contains("\"uptime_ms\""),
            "ping answers liveness: {}",
            responses[0]
        );
        assert!(responses[1].contains("\"provenance\":\"computed\""), "{}", responses[1]);
        assert!(responses[2].contains("\"provenance\":\"hot\""), "{}", responses[2]);
        assert_eq!(
            body_bytes(&responses[1]),
            body_bytes(&responses[2]),
            "hot tier splices the computed body verbatim over TCP"
        );

        shutdown_via(addr);
        daemon.join().expect("daemon thread");
    });
    assert_eq!(svc.shared().active_connections(), 0, "no connection slot leaked");
}

#[test]
fn oversized_lines_get_a_typed_error_and_a_clean_close() {
    // No compute involved: a tiny line bound refuses before parsing.
    let dir = TempDir::new("oversize");
    let svc = service(
        &dir.0,
        ServeConfig { max_line_bytes: 64, ..ServeConfig::default() },
    );
    std::thread::scope(|scope| {
        let (addr, daemon) = spawn_daemon(scope, &svc);

        let stream = TcpStream::connect(addr).expect("client connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let mut writer = stream.try_clone().expect("clone stream");
        // 200 bytes, no newline: the bound must trip mid-accumulation —
        // a torn sender cannot balloon the buffer by withholding `\n`.
        writer.write_all(&[b'x'; 200]).expect("oversized write");
        writer.flush().expect("flush");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("typed error line");
        assert!(
            line.contains("\"ok\":false") && line.contains("max_line_bytes (64)"),
            "oversize refusal is typed: {line}"
        );
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("clean close");
        assert!(rest.is_empty(), "nothing after the refusal; the close is clean");

        shutdown_via(addr);
        daemon.join().expect("daemon thread");
    });
    let counters = svc.counters();
    assert_eq!(counters.computed, 0, "{counters:?}");
    assert_eq!(svc.shared().active_connections(), 0, "no connection slot leaked");
}

#[cfg(unix)]
#[test]
fn oversized_lines_are_refused_on_the_unix_transport_too() {
    use std::os::unix::net::UnixStream;

    let dir = TempDir::new("oversize-unix");
    let svc = service(
        &dir.0,
        ServeConfig { max_line_bytes: 64, ..ServeConfig::default() },
    );
    let sock = dir.0.join("daemon.sock");
    std::thread::scope(|scope| {
        let daemon = {
            let svc = &svc;
            let sock = sock.clone();
            scope.spawn(move || pomtlb_serve::serve_unix(svc, &sock).expect("daemon exits"))
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while !sock.exists() {
            assert!(Instant::now() < deadline, "daemon never bound its socket");
            std::thread::sleep(Duration::from_millis(5));
        }

        let stream = UnixStream::connect(&sock).expect("client connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let mut writer = stream.try_clone().expect("clone stream");
        writer.write_all(&[b'y'; 200]).expect("oversized write");
        writer.flush().expect("flush");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("typed error line");
        assert!(line.contains("max_line_bytes (64)"), "typed on Unix too: {line}");
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("clean close");
        assert!(rest.is_empty());

        let stream = UnixStream::connect(&sock).expect("shutdown connects");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        writer.write_all(b"{\"id\":\"q\",\"kind\":\"shutdown\"}\n").expect("shutdown");
        let mut ack = String::new();
        reader.read_line(&mut ack).expect("ack");
        assert!(ack.contains("\"ok\":true"));
        daemon.join().expect("daemon thread");
    });
    assert_eq!(svc.shared().active_connections(), 0, "no connection slot leaked");
}

#[test]
fn idle_connections_are_closed_with_a_typed_line() {
    let dir = TempDir::new("idle");
    let svc = service(
        &dir.0,
        ServeConfig {
            idle_timeout: Some(Duration::from_millis(300)),
            ..ServeConfig::default()
        },
    );
    std::thread::scope(|scope| {
        let (addr, daemon) = spawn_daemon(scope, &svc);

        // Connect and send *nothing*: the idle clock (measured from the
        // last completed request) must evict the freeloading slot.
        let stream = TcpStream::connect(addr).expect("client connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("typed idle line");
        assert!(
            line.contains("\"idle_timeout\":true") && line.contains("300ms"),
            "idle eviction is typed: {line}"
        );
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("clean close");
        assert!(rest.is_empty());

        // The slot is actually released — a fresh connection still works.
        let responses = raw_roundtrip(addr, &["{\"id\":\"p\",\"kind\":\"ping\"}".to_string()]);
        assert!(responses[0].contains("\"kind\":\"ping\""));

        shutdown_via(addr);
        daemon.join().expect("daemon thread");
    });
    assert_eq!(svc.shared().active_connections(), 0, "no connection slot leaked");
}

#[test]
fn expired_compute_deadline_answers_a_typed_line_over_tcp() {
    let _guard = COUNTER_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    // A zero deadline expires before any attempt starts: deterministic.
    let dir = TempDir::new("deadline");
    let svc = service(
        &dir.0,
        ServeConfig {
            policy: RunPolicy::with_deadline(Duration::ZERO),
            ..ServeConfig::default()
        },
    );
    std::thread::scope(|scope| {
        let (addr, daemon) = spawn_daemon(scope, &svc);
        let responses = raw_roundtrip(addr, &[compare_request("doomed")]);
        assert!(
            responses[0].contains("\"deadline_exceeded\":true")
                && responses[0].contains("\"ok\":false"),
            "deadline refusal is typed: {}",
            responses[0]
        );
        shutdown_via(addr);
        daemon.join().expect("daemon thread");
    });
    let counters = svc.counters();
    assert_eq!(counters.deadlines, 1, "{counters:?}");
    assert_eq!(counters.computed, 0, "a blown deadline publishes no body");
    assert_eq!(svc.shared().admission().in_flight(), 0, "no permit leaked");
    assert_eq!(svc.shared().flights().in_flight(), 0, "no leadership leaked");
}

#[test]
fn over_limit_connections_get_a_typed_busy_line() {
    let dir = TempDir::new("connlimit");
    let svc = service(
        &dir.0,
        ServeConfig { max_connections: 1, ..ServeConfig::default() },
    );
    std::thread::scope(|scope| {
        let (addr, daemon) = spawn_daemon(scope, &svc);

        // The first conversation occupies the only slot (a completed ping
        // proves its handler is counted, not merely queued).
        let stream = TcpStream::connect(addr).expect("first client");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut writer = stream;
        writer.write_all(b"{\"id\":\"hold\",\"kind\":\"ping\"}\n").expect("ping");
        let mut line = String::new();
        reader.read_line(&mut line).expect("ping ack");
        assert!(line.contains("\"kind\":\"ping\""));

        // The second is refused with the counts in the line.
        let refused = TcpStream::connect(addr).expect("second client connects");
        refused
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let mut refused_reader = BufReader::new(refused);
        let mut refusal = String::new();
        refused_reader.read_line(&mut refusal).expect("typed busy line");
        assert!(
            refusal.contains("\"busy\":true")
                && refusal.contains("\"active_connections\":1")
                && refusal.contains("\"max_connections\":1"),
            "refusal names the limit: {refusal}"
        );

        writer.write_all(b"{\"id\":\"q\",\"kind\":\"shutdown\"}\n").expect("shutdown");
        line.clear();
        reader.read_line(&mut line).expect("shutdown ack");
        assert!(line.contains("\"ok\":true"));
        daemon.join().expect("daemon thread");
    });
    assert_eq!(svc.shared().active_connections(), 0, "no connection slot leaked");
}

#[test]
fn graceful_drain_completes_in_flight_requests_and_persists_once() {
    let _guard = COUNTER_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TempDir::new("drain");
    // One compute permit, and the test holds it: the leader parks at the
    // gate and cannot publish until the test lets it go, so every
    // follower coalesces onto its flight however fast compute is.
    let svc = service(&dir.0, ServeConfig { max_inflight: 1, ..ServeConfig::default() });
    const CLIENTS: usize = 4;
    let barrier = Barrier::new(CLIENTS);

    std::thread::scope(|scope| {
        let (addr, daemon) = spawn_daemon(scope, &svc);
        let gate = svc.shared().admission().admit().expect("the test takes the only permit");

        let clients: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let lines =
                        raw_roundtrip_after(addr, &compare_request(&format!("drain-{i}")), barrier);
                    lines
                })
            })
            .collect();

        // Wait until the leader has reached the compute path, then shut
        // down from a separate connection: the drain must let every client
        // finish, including one whose request is still unread in its
        // socket. Only then is the leader let go, once every follower has
        // joined its flight. A failed wait still shuts down and releases
        // the gate, so the test fails instead of hanging.
        let leader_parked = wait_until(|| svc.shared().admission().queued() > 0);
        shutdown_via(addr);
        let followers_joined =
            wait_until(|| svc.shared().flights().coalesced() >= (CLIENTS - 1) as u64);
        drop(gate);
        daemon.join().expect("daemon drains and exits");

        let bodies: Vec<String> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        for (i, body) in bodies.iter().enumerate() {
            assert_eq!(
                body, &bodies[0],
                "in-flight client {i} completed byte-identically through the drain"
            );
        }
        assert!(leader_parked, "no request reached the compute path");
        assert!(followers_joined, "every follower joined the leader's flight");
    });

    // Post-drain connects are refused at the OS level: the listener is
    // gone.
    assert!(
        TcpStream::connect_timeout(
            &"127.0.0.1:1".parse().unwrap(),
            Duration::from_millis(100)
        )
        .is_err(),
        "sanity: refused connects error"
    );
    assert_eq!(svc.shared().active_connections(), 0, "every slot returned");
    assert_eq!(
        svc.shared().persist_count(),
        1,
        "tier counters persisted exactly once, at the end of the drain"
    );
    let snapshot =
        TierSnapshot::load(&dir.0.join("reports")).expect("snapshot written at shutdown");
    assert_eq!(snapshot.computed, 1, "coalescing held through the drain: {snapshot:?}");
    assert_eq!(
        snapshot.memoized + snapshot.hot + snapshot.coalesced,
        (CLIENTS - 1) as u64,
        "{snapshot:?}"
    );
    assert_eq!(
        snapshot.coalesced,
        (CLIENTS - 1) as u64,
        "every follower was served from the leader's flight: {snapshot:?}"
    );
}

/// Polls `done` for up to 30 s; false if it never held.
fn wait_until(done: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

/// Like [`raw_roundtrip`] for one request, but waits on `barrier` after
/// connecting so all in-flight requests overlap, and returns the body.
fn raw_roundtrip_after(addr: SocketAddr, line: &str, barrier: &Barrier) -> String {
    let stream = TcpStream::connect(addr).expect("client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    barrier.wait();
    writer.write_all(format!("{line}\n").as_bytes()).expect("client writes");
    let mut response = String::new();
    reader.read_line(&mut response).expect("client reads");
    assert!(response.contains("\"ok\":true"), "served through the drain: {response}");
    body_bytes(response.trim_end()).to_string()
}

#[test]
fn chaos_suite_every_completed_reply_is_byte_identical_and_nothing_leaks() {
    let _guard = COUNTER_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TempDir::new("chaos");
    let svc = service(&dir.0, ServeConfig::default());
    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 6;

    std::thread::scope(|scope| {
        let (addr, daemon) = spawn_daemon(scope, &svc);

        // Fault-free reference body, through the real TCP path.
        let reference = {
            let responses = raw_roundtrip(addr, &[compare_request("reference")]);
            assert!(responses[0].contains("\"ok\":true"), "{}", responses[0]);
            body_bytes(&responses[0]).to_string()
        };

        // The storm: a pinned-seed proxy between the clients and the
        // daemon, injecting resets, torn writes, and stalls.
        let mut proxy =
            ChaosProxy::start(addr, ChaosConfig::stormy(0x000c_4a05)).expect("proxy starts");
        let proxy_addr = proxy.addr();

        let outcomes: Vec<(usize, usize)> = {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|i| {
                    let reference = reference.clone();
                    scope.spawn(move || {
                        let cfg = ClientConfig {
                            deadline: Some(Duration::from_secs(120)),
                            max_retries: 16,
                            backoff_base: Duration::from_millis(5),
                            backoff_cap: Duration::from_millis(50),
                            seed: 100 + i as u64,
                            ..ClientConfig::new(proxy_addr.to_string())
                        };
                        let mut client = Client::new(cfg);
                        let mut completed = 0usize;
                        let mut lost = 0usize;
                        for r in 0..REQUESTS_PER_CLIENT {
                            let line = compare_request(&format!("chaos-{i}-{r}"));
                            match client.request(&line) {
                                Ok(response) if response.contains("\"ok\":true") => {
                                    assert_eq!(
                                        body_bytes(&response),
                                        reference,
                                        "client {i} request {r}: completed reply must be \
                                         byte-identical to the fault-free run"
                                    );
                                    completed += 1;
                                }
                                // A torn client->server write can hand the
                                // daemon a partial line ending in EOF, which
                                // it answers with an id-less parse error; in
                                // a rare race that line outruns the severed
                                // return path. It is a fault artifact, never
                                // a wrong body — but an error carrying OUR
                                // request id would be a real bug.
                                Ok(other) if other.contains("\"id\":\"\"") => lost += 1,
                                Ok(other) => {
                                    panic!("client {i} got a non-retryable refusal: {other}")
                                }
                                Err(pomtlb_serve::ClientError::Exhausted { .. }) => {
                                    lost += 1;
                                }
                                Err(e) => panic!("client {i}: {e}"),
                            }
                        }
                        (completed, lost)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("chaos client")).collect()
        };

        proxy.stop();
        let chaos = proxy.counters();
        assert!(
            chaos.resets + chaos.torn_writes + chaos.stalls > 0,
            "the storm actually stormed: {chaos:?}"
        );
        let completed: usize = outcomes.iter().map(|(c, _)| c).sum();
        let lost: usize = outcomes.iter().map(|(_, l)| l).sum();
        assert_eq!(completed + lost, CLIENTS * REQUESTS_PER_CLIENT);
        assert!(
            completed > 0,
            "retry + reconnect completed work through the storm: {outcomes:?}"
        );

        // Shut down via the direct (un-proxied) address.
        shutdown_via(addr);
        daemon.join().expect("daemon thread");
    });

    // The leak ledger: every injected fault returned its resources.
    // (Torn request lines legitimately show up in `counters().errors` —
    // the daemon answers the partial junk with a typed error line — so
    // the invariants under chaos are the leak counts and byte-identity,
    // not an error-free log.)
    assert_eq!(svc.shared().active_connections(), 0, "no connection slot leaked");
    assert_eq!(svc.shared().admission().in_flight(), 0, "no admission permit leaked");
    assert_eq!(svc.shared().flights().in_flight(), 0, "no single-flight leadership leaked");
}
