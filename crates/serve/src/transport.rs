//! Socket transports: hardened per-connection loops over Unix and TCP.
//!
//! Both transports share one accept shape and one per-connection loop, so
//! every robustness property holds uniformly:
//!
//! * **Connection bound** — at most `max_connections` handler threads;
//!   further connections receive one typed `busy` line naming the active
//!   and maximum counts, then a clean close.
//! * **Bounded lines** — a request line longer than `max_line_bytes`
//!   answers a typed `error` line and closes; the buffer never grows past
//!   the bound.
//! * **Idle timeout** — a connection that completes no request within
//!   `idle_timeout` is closed with a typed line. The clock measures time
//!   since the last *completed request*, not the last byte, so a
//!   slow-loris dribble cannot hold a slot open indefinitely.
//! * **Deadlines, not hangs** — reads poll on a short tick (so a shutdown
//!   served on another connection ends this one promptly) and writes
//!   carry a timeout (so a stalled reader cannot park a handler forever).
//! * **Graceful drain** — when any connection serves `shutdown`, the
//!   accept loop stops taking new work immediately (the listener closes,
//!   so post-drain connects are refused at the OS level), in-flight
//!   handlers get up to `drain_timeout` to finish and flush, and tier
//!   counters are persisted exactly once at the end.
//!
//! The request semantics on top — tier walk, coalescing, memoization,
//! typed `busy`/`deadline_exceeded` lines — all live in
//! [`crate::service`]; this module only moves bytes safely.

use std::io::{self, BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::service::{Service, ServiceShared};

/// Read-timeout tick: how often a blocked read wakes to check for
/// shutdown and idle deadlines.
const POLL_TICK: Duration = Duration::from_millis(100);

/// Per-write timeout: a peer that stops reading for this long costs the
/// daemon one closed connection, never a parked handler thread.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// What a socket stream must offer beyond `Read`/`Write` on its
/// reference: the timeout knobs the hardened loop drives.
pub(crate) trait ConnStream {
    /// Blocking mode (accepted sockets may inherit nonblocking listeners).
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
    /// Read timeout (the poll tick).
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
    /// Write timeout (the stalled-reader guard).
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
}

impl ConnStream for TcpStream {
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        TcpStream::set_nonblocking(self, nonblocking)
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }

    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_write_timeout(self, timeout)
    }
}

#[cfg(unix)]
impl ConnStream for std::os::unix::net::UnixStream {
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        std::os::unix::net::UnixStream::set_nonblocking(self, nonblocking)
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        std::os::unix::net::UnixStream::set_read_timeout(self, timeout)
    }

    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        std::os::unix::net::UnixStream::set_write_timeout(self, timeout)
    }
}

/// How one bounded line read ended.
enum LineRead {
    /// A complete line is in the buffer (newline stripped).
    Line,
    /// EOF arrived mid-line; serve the unterminated final request.
    FinalLine,
    /// Clean EOF between lines.
    Eof,
    /// A shutdown served elsewhere ended this conversation, with nothing
    /// left unread.
    Shutdown,
    /// No request completed within the idle budget.
    Idle,
    /// The line outgrew `max_line_bytes`.
    Oversize,
}

/// Accumulates one newline-terminated line into `line`, bounded by
/// `max_line_bytes`, waking every [`POLL_TICK`] to observe shutdown and
/// the idle deadline. Partial input survives timeouts intact — only the
/// bound, EOF, or a deadline ends the accumulation early. Shutdown is
/// observed only when the socket has nothing to read: a request the
/// client already sent is served (the drain budget bounds the wait), not
/// dropped unread — closing over unread bytes resets the client.
fn read_line_bounded(
    shared: &ServiceShared,
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
    last_done: Instant,
) -> io::Result<LineRead> {
    let max_line = shared.max_line_bytes();
    let idle = shared.idle_timeout();
    loop {
        if let Some(budget) = idle {
            if last_done.elapsed() > budget {
                return Ok(LineRead::Idle);
            }
        }
        match reader.fill_buf() {
            Ok([]) => {
                return Ok(if line.is_empty() { LineRead::Eof } else { LineRead::FinalLine });
            }
            Ok(buf) => {
                if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    line.extend_from_slice(&buf[..pos]);
                    reader.consume(pos + 1);
                    return Ok(if line.len() > max_line { LineRead::Oversize } else { LineRead::Line });
                }
                let n = buf.len();
                line.extend_from_slice(buf);
                reader.consume(n);
                if line.len() > max_line {
                    return Ok(LineRead::Oversize);
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if shared.shutdown_requested() {
                    return Ok(LineRead::Shutdown);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Answers one request line. The reply and its newline go out in one
/// write: two small writes on an unbuffered socket are two segments, and
/// where `TCP_NODELAY` could not be set they hand Nagle plus delayed ACK
/// a ~40 ms stall per round trip.
fn respond(service: &mut Service, out: &mut impl Write, raw: &[u8]) -> io::Result<()> {
    let text = String::from_utf8_lossy(raw);
    if let Some(mut response) = service.handle_line(&text) {
        response.push('\n');
        out.write_all(response.as_bytes())?;
        out.flush()?;
    }
    Ok(())
}

/// The shared per-connection loop: bounded line reads, idle accounting,
/// one response per request, typed lines for every refusal. Transport
/// errors (including write timeouts) end only this conversation.
fn serve_conn<S>(service: &mut Service, stream: &S) -> io::Result<()>
where
    S: ConnStream,
    for<'a> &'a S: Read + Write,
{
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(POLL_TICK))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let shared = Arc::clone(service.shared());
    let mut reader = io::BufReader::new(stream);
    let mut out = stream;
    let mut line: Vec<u8> = Vec::new();
    let mut last_done = Instant::now();
    loop {
        line.clear();
        match read_line_bounded(&shared, &mut reader, &mut line, last_done)? {
            LineRead::Line => {
                respond(service, &mut out, &line)?;
                last_done = Instant::now();
            }
            LineRead::FinalLine => {
                respond(service, &mut out, &line)?;
                return Ok(());
            }
            LineRead::Eof | LineRead::Shutdown => return Ok(()),
            LineRead::Idle => {
                let budget = shared.idle_timeout().unwrap_or_default();
                let msg = format!(
                    "{{\"id\":\"\",\"ok\":false,\"idle_timeout\":true,\
                     \"error\":\"no request completed in {}ms; closing idle connection\"}}\n",
                    budget.as_millis()
                );
                let _ = out.write_all(msg.as_bytes());
                return Ok(());
            }
            LineRead::Oversize => {
                let msg = format!(
                    "{{\"id\":\"\",\"ok\":false,\
                     \"error\":\"request line exceeds max_line_bytes ({}); closing\"}}\n",
                    shared.max_line_bytes()
                );
                let _ = out.write_all(msg.as_bytes());
                return Ok(());
            }
        }
    }
}

/// Decrements the active-connection count when the handler ends, however
/// it ends.
struct SlotGuard(Arc<ServiceShared>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.connection_closed();
    }
}

/// The accept shape both transports share: poll-accept until shutdown,
/// refuse over-limit connections with one typed line, serve the rest on
/// detached handler threads (detached so the drain budget — not an
/// unbounded join — decides how long shutdown waits).
fn accept_loop<S, F>(service: &Service, mut accept: F)
where
    S: ConnStream + Send + 'static,
    for<'a> &'a S: Read + Write,
    F: FnMut() -> io::Result<S>,
{
    let max_connections = service.shared().max_connections();
    loop {
        if service.shutdown_requested() {
            return;
        }
        match accept() {
            Ok(stream) => {
                let shared = service.shared();
                let active = shared.active_connections();
                if active >= max_connections {
                    // Refuse with one typed line; never stall the accept
                    // loop behind a saturated handler set.
                    shared.note_refused_connection();
                    let line = format!(
                        "{{\"id\":\"\",\"ok\":false,\"busy\":true,\
                         \"active_connections\":{active},\"max_connections\":{max_connections},\
                         \"error\":\"server busy: connection limit reached; retry later\"}}\n",
                        );
                    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
                    let _ = (&stream).write_all(line.as_bytes());
                    continue;
                }
                shared.connection_opened();
                let guard = SlotGuard(Arc::clone(shared));
                let mut conn = service.connection();
                std::thread::spawn(move || {
                    // A dropped connection only ends that conversation,
                    // never the daemon: the shared warm core lives on.
                    let _guard = guard;
                    if let Err(e) = serve_conn(&mut conn, &stream) {
                        eprintln!("pomtlb-serve: connection error: {e}");
                    }
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                eprintln!("pomtlb-serve: accept error: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// The drain half of graceful shutdown: wait up to `drain_timeout` for
/// in-flight handlers to finish (the listener is already closed, so no
/// new work can arrive), then persist tier counters exactly once. A
/// handler still running past the budget is abandoned — its connection
/// stays open until the process exits, but shutdown no longer waits.
fn drain_and_persist(shared: &ServiceShared) {
    let deadline = Instant::now() + shared.drain_timeout();
    while shared.active_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let leftover = shared.active_connections();
    if leftover > 0 {
        eprintln!(
            "pomtlb-serve: drain budget spent with {leftover} connection(s) still active"
        );
    }
    shared.persist_counters();
}

/// Binds the daemon's Unix socket, with stale-socket recovery: if the
/// path is already bound (`EADDRINUSE`), probe it — a live daemon
/// answering the connect means the address is genuinely taken (error
/// out); a refused connect means a previous daemon died without
/// unlinking, so remove the stale file and bind again.
#[cfg(unix)]
pub fn bind_unix_listener(path: &std::path::Path) -> io::Result<std::os::unix::net::UnixListener> {
    use std::os::unix::net::{UnixListener, UnixStream};
    match UnixListener::bind(path) {
        Ok(listener) => Ok(listener),
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            if UnixStream::connect(path).is_ok() {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("{} is served by a live daemon", path.display()),
                ));
            }
            std::fs::remove_file(path)?;
            UnixListener::bind(path)
        }
        Err(e) => Err(e),
    }
}

/// The Unix-socket transport: binds `path` (recovering stale socket
/// files, refusing live ones), then serves connections through the shared
/// hardened loop. On shutdown the socket file is removed immediately —
/// post-drain connects are refused — and in-flight handlers drain per
/// [`drain_and_persist`].
#[cfg(unix)]
pub fn serve_unix(service: &Service, path: &std::path::Path) -> io::Result<()> {
    let listener = bind_unix_listener(path)?;
    listener.set_nonblocking(true)?;
    eprintln!(
        "pomtlb-serve: listening on {} (max {} connections)",
        path.display(),
        service.shared().max_connections()
    );
    accept_loop(service, || {
        let (stream, _addr) = listener.accept()?;
        Ok(stream)
    });
    drop(listener);
    let _ = std::fs::remove_file(path);
    drain_and_persist(service.shared());
    Ok(())
}

/// Binds the daemon's TCP listener (e.g. `127.0.0.1:7070`; port `0`
/// lets the OS pick — read it back from `local_addr`).
pub fn bind_tcp_listener(addr: &str) -> io::Result<TcpListener> {
    TcpListener::bind(addr)
}

/// The TCP transport: identical request semantics and connection
/// hardening as [`serve_unix`], over a network listener. The listener
/// closes the moment shutdown is observed, so post-drain connects are
/// refused at the OS level while in-flight handlers finish.
pub fn serve_tcp(service: &Service, listener: TcpListener) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    if let Ok(addr) = listener.local_addr() {
        eprintln!(
            "pomtlb-serve: listening on tcp://{addr} (max {} connections)",
            service.shared().max_connections()
        );
    }
    accept_loop(service, || {
        let (stream, _addr) = listener.accept()?;
        // One request line, one response line: latency wants the segment
        // out now, not Nagle-batched.
        let _ = stream.set_nodelay(true);
        Ok(stream)
    });
    drop(listener);
    drain_and_persist(service.shared());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(unix)]
    #[test]
    fn stale_socket_files_are_recovered_live_ones_are_refused() {
        use std::os::unix::net::UnixListener;
        let dir = std::env::temp_dir()
            .join(format!("pomtlb-transport-sock-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("daemon.sock");
        // A dead daemon's leftover: bound once, listener dropped, file
        // still on disk.
        drop(UnixListener::bind(&path).expect("first bind"));
        assert!(path.exists(), "socket file survives the dead listener");
        let recovered = bind_unix_listener(&path).expect("stale socket is recovered");
        // While that daemon is alive, a second bind must refuse.
        let err = bind_unix_listener(&path).expect_err("live socket is refused");
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        assert!(err.to_string().contains("live daemon"));
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `Write` that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<String>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(String::from_utf8_lossy(buf).into_owned());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn respond_writes_the_reply_and_its_newline_in_one_call() {
        let mut service =
            Service::new(crate::ServeConfig::default()).expect("in-memory service opens");
        let request = b"{\"id\":\"x\",\"kind\":\"no-such-kind\"}";
        let body = service
            .handle_line(&String::from_utf8_lossy(request))
            .expect("a typed error line");
        let mut out = CountingWriter::default();
        respond(&mut service, &mut out, request).expect("respond");
        assert_eq!(out.writes, vec![format!("{body}\n")]);
    }

    /// A reader with nothing to read: every poll times out.
    struct Silent;

    impl Read for Silent {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            Err(io::ErrorKind::WouldBlock.into())
        }
    }

    #[test]
    fn a_request_already_sent_is_read_after_shutdown() {
        let mut service =
            Service::new(crate::ServeConfig::default()).expect("in-memory service opens");
        service.handle_line("{\"id\":\"q\",\"kind\":\"shutdown\"}");
        assert!(service.shutdown_requested());
        let shared = Arc::clone(service.shared());
        let mut line = Vec::new();

        // Bytes the client sent before shutdown landed are served.
        let mut sent: &[u8] = b"{\"id\":\"p\",\"kind\":\"ping\"}\n";
        let read = read_line_bounded(&shared, &mut sent, &mut line, Instant::now());
        assert!(matches!(read, Ok(LineRead::Line)));
        assert_eq!(line, b"{\"id\":\"p\",\"kind\":\"ping\"}");

        // With nothing left to read, shutdown ends the conversation.
        line.clear();
        let mut silent = io::BufReader::new(Silent);
        let read = read_line_bounded(&shared, &mut silent, &mut line, Instant::now());
        assert!(matches!(read, Ok(LineRead::Shutdown)));
    }

    #[test]
    fn tcp_listener_binds_ephemeral_ports() {
        let listener = bind_tcp_listener("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        assert_ne!(addr.port(), 0, "the OS picked a real port");
    }
}
