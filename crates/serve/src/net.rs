//! The TCP front door: newline-delimited JSON over
//! [`std::net::TcpListener`].
//!
//! The accept loop hands each connection to a short-lived reader thread
//! that parses request lines and dispatches them through the
//! [`ServeHandle`] — so the heavy lifting still funnels through the
//! bounded queue and worker pool, and connection threads only do I/O.
//! A `shutdown` request acknowledges, stops the accept loop (waking it
//! with a loopback connection), and drains the worker pool before
//! [`serve`] returns.
//!
//! # Robustness contract
//!
//! The line loop ([`handle_lines`]) is generic over any
//! `BufRead`/`Write` pair so the protocol edge cases are unit-testable
//! without sockets. Its guarantees:
//!
//! * A malformed or non-UTF-8 line gets a per-line `ok:false` error
//!   response; the connection stays up and later lines are served.
//! * A line longer than [`MAX_LINE_BYTES`] is rejected with an error
//!   response and skipped to its terminating newline — the buffer never
//!   grows past the cap, so a hostile client cannot balloon memory.
//! * A disconnect mid-stream (EOF without a newline, or between
//!   requests of a batch) ends the loop cleanly; whatever full lines
//!   arrived were answered.
//! * No input byte sequence panics the connection thread.

use crate::proto::{
    parse_request, render_error, render_health, render_mutation_outcome, render_query_response,
    render_shutdown_ack, render_skyup_error, render_stats, Request, Topology,
};
use crate::server::ServeHandle;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Hard cap on one NDJSON request line. A legitimate query of a few
/// thousand products fits comfortably; anything bigger is rejected
/// without buffering it.
pub const MAX_LINE_BYTES: usize = 1 << 20;

fn write_line<W: Write>(writer: &mut W, response: &str) -> io::Result<()> {
    writer.write_all(response.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Reads one line of at most [`MAX_LINE_BYTES`] bytes (newline
/// included). Returns `Ok(None)` on clean EOF; `buf` holds the line
/// otherwise, and `Ok(Some(true))` flags a line that hit the cap
/// without reaching its newline.
fn read_capped_line<R: BufRead>(reader: R, buf: &mut Vec<u8>) -> io::Result<Option<bool>> {
    buf.clear();
    let n = reader.take(MAX_LINE_BYTES as u64).read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(None);
    }
    Ok(Some(!buf.ends_with(b"\n") && n == MAX_LINE_BYTES))
}

/// One server role behind the NDJSON line loop: a single engine
/// ([`ServeHandle`]), a shard, or a coordinator. The loop owns framing
/// (line caps, UTF-8, parse errors) and the `shutdown` verb; everything
/// else is one response line per parsed request from the role.
pub trait Dispatch {
    /// Answers one parsed request with one response line. `Shutdown`
    /// never reaches this — the line loop acks and stops itself.
    fn dispatch(&self, req: Request) -> String;

    /// Runs after the accept loop stops (drain worker pools, close
    /// downstream links).
    fn on_stop(&self);
}

impl Dispatch for ServeHandle {
    fn dispatch(&self, req: Request) -> String {
        match req {
            Request::Query(req) => match self.query(req) {
                Ok(resp) => render_query_response(&resp),
                Err(err) => render_skyup_error(&err),
            },
            Request::Add(point) => match self.add_competitor(point) {
                Ok(out) => render_mutation_outcome(&out),
                Err(err) => render_skyup_error(&err),
            },
            Request::Remove(cid) => match self.remove_competitor(cid) {
                Ok(out) => render_mutation_outcome(&out),
                Err(err) => render_skyup_error(&err),
            },
            Request::Stats => {
                let (stats, metrics) = self.stats();
                render_stats(&stats, &metrics, self.queue_depth())
            }
            // The observability verbs are reads of the telemetry store,
            // not requests: they bypass the queue and are not traced
            // themselves, so polling metrics never perturbs the
            // latencies it reports. Health rides the same untraced
            // path — a liveness probe must answer even when the queue
            // is saturated or the engine has gone read-only.
            Request::Health => {
                let durability = self.durability();
                render_health(
                    self.epoch(),
                    self.queue_depth(),
                    durability.as_ref(),
                    &Topology::Single,
                )
            }
            Request::Metrics => self.telemetry().metrics_json(self.queue_depth()).render(),
            Request::Trace(n) => self.telemetry().traces_json(n).render(),
            Request::Stage { .. } | Request::Flip { .. } | Request::LocalSkyline => {
                render_error("this server is not a shard (start it with --shard-id/--shards)")
            }
            Request::Shutdown => unreachable!("the line loop handles shutdown"),
        }
    }

    fn on_stop(&self) {
        self.shutdown();
    }
}

/// The NDJSON request loop over any reader/writer pair: one request per
/// line, one response line per request. See the module docs for the
/// robustness contract. Returns when the reader reaches EOF or after a
/// `shutdown` request (which also sets `stop`).
pub fn handle_lines<R: BufRead, W: Write, D: Dispatch + ?Sized>(
    mut reader: R,
    writer: &mut W,
    handle: &D,
    stop: &AtomicBool,
) -> io::Result<()> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let truncated = match read_capped_line(&mut reader, &mut buf)? {
            None => return Ok(()),
            Some(t) => t,
        };
        if truncated {
            write_line(
                writer,
                &render_error(&format!("request line exceeds {MAX_LINE_BYTES} bytes")),
            )?;
            // Drop the rest of the oversized line, cap-sized chunk at a
            // time, then resume at the next line.
            loop {
                match read_capped_line(&mut reader, &mut buf)? {
                    None => return Ok(()),
                    Some(true) => continue,
                    Some(false) => break,
                }
            }
            continue;
        }
        let line = match std::str::from_utf8(&buf) {
            Ok(s) => s,
            Err(_) => {
                write_line(writer, &render_error("request line is not valid UTF-8"))?;
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match parse_request(line) {
            Err(msg) => render_error(&msg),
            Ok(Request::Shutdown) => {
                write_line(writer, &render_shutdown_ack())?;
                stop.store(true, Ordering::SeqCst);
                return Ok(());
            }
            Ok(req) => handle.dispatch(req),
        };
        write_line(writer, &response)?;
    }
}

fn handle_connection<D: Dispatch>(
    stream: TcpStream,
    handle: &D,
    stop: &AtomicBool,
) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    handle_lines(BufReader::new(stream), &mut writer, handle, stop)
}

/// Runs the accept loop until a client sends `{"op":"shutdown"}`, then
/// stops the role ([`Dispatch::on_stop`]) and returns. Blocks the
/// calling thread.
pub fn serve<D: Dispatch + Clone + Send + 'static>(
    handle: D,
    listener: TcpListener,
) -> io::Result<()> {
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let handle = handle.clone();
        let stop_flag = Arc::clone(&stop);
        // Detached on purpose: a connection thread blocked reading from
        // an idle client must not be able to wedge shutdown.
        std::thread::spawn(move || {
            let _ = handle_connection(stream, &handle, &stop_flag);
            if stop_flag.load(Ordering::SeqCst) {
                // Wake the accept loop so it observes the stop flag.
                let _ = TcpStream::connect(addr);
            }
        });
    }
    handle.on_stop();
    Ok(())
}

/// Binds `127.0.0.1:<port>` (0 picks an ephemeral port) and returns the
/// listener plus the resolved address.
pub fn bind_local(port: u16) -> io::Result<(TcpListener, SocketAddr)> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;
    Ok((listener, addr))
}

/// Splitmix64 for backoff jitter — the serve crate is std-only and the
/// data crate's PRNG is a dev-dependency, so the client carries its own
/// (jitter needs no statistical quality, only de-synchronized retries).
fn jitter_seed() -> u64 {
    let nanos = std::time::UNIX_EPOCH
        .elapsed()
        .map(|d| d.subsec_nanos() as u64)
        .unwrap_or(0);
    nanos ^ (std::process::id() as u64) << 32
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A blocking NDJSON client: one request line out, one response line
/// back, over a kept-alive [`TcpStream`].
///
/// [`Client::connect`] retries connection-refused — the window while a
/// crashed or restarting server is not yet listening — up to 3 attempts
/// with jittered exponential backoff; anything else (bad address,
/// unreachable host) fails fast. Used by `skyup query --connect` and by
/// the coordinator's shard links.
pub struct Client {
    addr: String,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr` with the bounded retry policy above.
    pub fn connect(addr: &str) -> Result<Client, String> {
        const ATTEMPTS: u32 = 3;
        let mut rng = jitter_seed();
        for attempt in 1..=ATTEMPTS {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let writer = stream
                        .try_clone()
                        .map_err(|e| format!("{addr}: clone stream: {e}"))?;
                    return Ok(Client {
                        addr: addr.to_string(),
                        reader: BufReader::new(stream),
                        writer,
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                    if attempt == ATTEMPTS {
                        break;
                    }
                    let base = 50u64 << (attempt - 1);
                    let backoff = base + (splitmix64(&mut rng) % (base / 2 + 1));
                    eprintln!(
                        "{addr}: connection refused (attempt {attempt}/{ATTEMPTS}); \
                         retrying in {backoff}ms"
                    );
                    std::thread::sleep(Duration::from_millis(backoff));
                }
                Err(e) => return Err(format!("{addr}: {e}")),
            }
        }
        Err(format!(
            "{addr}: connection refused after {ATTEMPTS} attempts"
        ))
    }

    /// The address this client connected to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Sends one request line and reads the one response line. A closed
    /// or broken connection is an error — the caller decides whether to
    /// reconnect (a dropped [`Client`] must not be reused: the response
    /// stream may hold a half-read line).
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .and_then(|_| self.writer.flush())
            .map_err(|e| format!("{}: send request: {e}", self.addr))?;
        let mut response = String::new();
        let n = self
            .reader
            .read_line(&mut response)
            .map_err(|e| format!("{}: read response: {e}", self.addr))?;
        if n == 0 {
            return Err(format!(
                "{}: connection closed before a response",
                self.addr
            ));
        }
        Ok(response.trim_end().to_string())
    }

    /// Applies a per-request read deadline (`None` restores blocking
    /// reads). Lets a coordinator bound how long it waits on a wedged
    /// shard.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), String> {
        self.reader
            .get_ref()
            .set_read_timeout(timeout)
            .map_err(|e| format!("{}: set read timeout: {e}", self.addr))
    }
}

/// A small keep-alive pool of [`Client`]s for one address, so
/// concurrent and sequential requests reuse warm connections instead of
/// paying a handshake per request. Connections
/// that erred are dropped, not returned.
pub struct ClientPool {
    addr: String,
    idle: Mutex<Vec<Client>>,
}

impl ClientPool {
    /// An empty pool for `addr`; connections are opened on demand.
    pub fn new(addr: &str) -> ClientPool {
        ClientPool {
            addr: addr.to_string(),
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The address this pool serves.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Runs `f` with a pooled (or freshly connected) client. The client
    /// returns to the pool only when `f` succeeds; on error its
    /// connection is discarded, because a failed exchange may leave
    /// unread bytes on the stream.
    pub fn with<T>(&self, f: impl FnOnce(&mut Client) -> Result<T, String>) -> Result<T, String> {
        let mut client = match self.idle.lock().unwrap().pop() {
            Some(c) => c,
            None => Client::connect(&self.addr)?,
        };
        match f(&mut client) {
            Ok(v) => {
                self.idle.lock().unwrap().push(client);
                Ok(v)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::server::{ServeConfig, ServeHandle};
    use skyup_geom::PointStore;
    use std::io::Cursor;

    fn test_handle() -> ServeHandle {
        let mut store = PointStore::new(2);
        store.push(&[0.2, 0.4]);
        store.push(&[0.5, 0.1]);
        let engine = Arc::new(Engine::with_competitors(store, EngineConfig::default()));
        ServeHandle::start(engine, ServeConfig::default())
    }

    /// Runs `input` through the line loop; returns the response lines
    /// and whether the stop flag ended up set.
    fn drive(handle: &ServeHandle, input: &[u8]) -> (Vec<String>, bool) {
        let stop = AtomicBool::new(false);
        let mut out: Vec<u8> = Vec::new();
        handle_lines(Cursor::new(input.to_vec()), &mut out, handle, &stop)
            .expect("in-memory I/O cannot fail");
        let lines = String::from_utf8(out)
            .expect("responses are UTF-8")
            .lines()
            .map(str::to_owned)
            .collect();
        (lines, stop.load(Ordering::SeqCst))
    }

    fn is_error(line: &str) -> bool {
        line.contains("\"ok\": false") || line.contains("\"ok\":false")
    }

    #[test]
    fn malformed_lines_get_per_line_errors_and_the_connection_survives() {
        let handle = test_handle();
        let input = b"{not json\n\
            {\"op\":\"nope\"}\n\
            {\"op\":\"query\",\"products\":[[0.9,0.9]],\"k\":1}\n";
        let (lines, stopped) = drive(&handle, input);
        assert_eq!(lines.len(), 3, "one response per line: {lines:?}");
        assert!(is_error(&lines[0]), "bad JSON rejected: {}", lines[0]);
        assert!(is_error(&lines[1]), "unknown op rejected: {}", lines[1]);
        assert!(
            !is_error(&lines[2]),
            "valid query after garbage still served: {}",
            lines[2]
        );
        assert!(!stopped);
        handle.shutdown();
    }

    #[test]
    fn non_utf8_line_is_rejected_not_fatal() {
        let handle = test_handle();
        let mut input = vec![0xff, 0xfe, 0x80];
        input.push(b'\n');
        input.extend_from_slice(b"{\"op\":\"stats\"}\n");
        let (lines, _) = drive(&handle, &input);
        assert_eq!(lines.len(), 2);
        assert!(is_error(&lines[0]) && lines[0].contains("UTF-8"));
        assert!(!is_error(&lines[1]));
        handle.shutdown();
    }

    #[test]
    fn oversized_line_is_rejected_without_buffering_it() {
        let handle = test_handle();
        // 2.5 caps worth of garbage on one line, then a valid request.
        let mut input = vec![b'a'; MAX_LINE_BYTES * 5 / 2];
        input.push(b'\n');
        input.extend_from_slice(b"{\"op\":\"stats\"}\n");
        let (lines, _) = drive(&handle, &input);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(
            is_error(&lines[0]) && lines[0].contains("exceeds"),
            "{}",
            lines[0]
        );
        assert!(!is_error(&lines[1]), "next line served: {}", lines[1]);
        handle.shutdown();
    }

    #[test]
    fn truncated_final_line_errors_and_ends_cleanly() {
        let handle = test_handle();
        // A disconnect mid-request: valid prefix, no newline, EOF.
        let (lines, stopped) = drive(&handle, b"{\"op\":\"query\",\"products\":[[0.9,");
        assert_eq!(lines.len(), 1);
        assert!(is_error(&lines[0]));
        assert!(!stopped);
        handle.shutdown();
    }

    #[test]
    fn mid_batch_disconnect_answers_what_arrived() {
        let handle = test_handle();
        // Three requests of a five-request batch arrive before the
        // client vanishes (EOF right after the third newline).
        let input = b"{\"op\":\"query\",\"products\":[[0.9,0.9]],\"k\":1}\n\
            {\"op\":\"stats\"}\n\
            {\"op\":\"query\",\"products\":[[0.8,0.8]],\"k\":1}\n";
        let (lines, stopped) = drive(&handle, input);
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| !is_error(l)), "{lines:?}");
        assert!(!stopped);
        handle.shutdown();
    }

    #[test]
    fn empty_and_blank_lines_are_skipped() {
        let handle = test_handle();
        let (lines, _) = drive(&handle, b"\n   \n\t\n{\"op\":\"stats\"}\n");
        assert_eq!(lines.len(), 1);
        assert!(!is_error(&lines[0]));
        handle.shutdown();
    }

    #[test]
    fn shutdown_acks_sets_stop_and_ignores_later_lines() {
        let handle = test_handle();
        let (lines, stopped) = drive(&handle, b"{\"op\":\"shutdown\"}\n{\"op\":\"stats\"}\n");
        assert_eq!(lines.len(), 1, "nothing after the ack: {lines:?}");
        assert!(stopped);
        handle.shutdown();
    }
}
