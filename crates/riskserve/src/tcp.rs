//! The line-oriented TCP front-end over [`Server`], on `std::net` only —
//! one OS thread per connection, no async runtime.
//!
//! An accept thread hands each connection to a handler thread; handlers
//! read request lines, submit queries to the shared micro-batching
//! [`Server`] and write one JSON reply line per request (see
//! [`crate::protocol`] for the wire format).  Because every handler blocks
//! in [`Ticket::wait`](crate::server::Ticket::wait) while its query rides
//! a batch, N concurrent connections are exactly the concurrency the batch
//! scheduler coalesces.
//!
//! Shutdown: a `shutdown` request (or [`TcpFrontEnd::stop`]) flips the
//! shutdown flag, wakes the accept loop with a loopback connection, shuts
//! down every open connection's socket so blocked reads return, joins the
//! handlers, and finally drains the query server itself.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::source::SourceProvider;

use crate::protocol::{parse_request, Request, WireReply};
use crate::server::Server;
use crate::sync::lock;

/// The longest request line a connection may send, newline excluded.  A
/// longer line is answered with one `parse` error and the connection is
/// closed, so no client can make the server buffer an unbounded line.
const MAX_LINE_BYTES: usize = 64 * 1024;

struct TcpShared<P: SourceProvider> {
    server: Server<P>,
    addr: SocketAddr,
    shutting_down: AtomicBool,
    /// Socket clones of every live connection (keyed by connection id),
    /// shut down to unblock handler reads when the front-end stops.
    /// Handlers deregister themselves on exit, so a closed connection's
    /// descriptor is released immediately, not held until shutdown.
    connections: Mutex<Vec<(u64, TcpStream)>>,
    next_connection_id: AtomicU64,
    handlers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl<P: SourceProvider> TcpShared<P> {
    /// Flips the shutdown flag and unblocks the accept loop and every
    /// handler read.  Idempotent.
    fn stop(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop: it re-checks the flag per connection.
        let _ = TcpStream::connect(self.addr);
        for (_, connection) in lock(&self.connections).drain(..) {
            let _ = connection.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// A running TCP front-end.  Obtain one with [`TcpFrontEnd::bind`], then
/// either block in [`wait`](TcpFrontEnd::wait) until a client sends
/// `shutdown`, or stop it programmatically with
/// [`stop`](TcpFrontEnd::stop).
pub struct TcpFrontEnd<P: SourceProvider> {
    shared: Arc<TcpShared<P>>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl<P: SourceProvider> TcpFrontEnd<P> {
    /// Binds `addr` (e.g. `127.0.0.1:7433`, port `0` for an ephemeral
    /// port) and starts accepting connections for `server`.
    pub fn bind(server: Server<P>, addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(TcpShared {
            server,
            addr: local,
            shutting_down: AtomicBool::new(false),
            connections: Mutex::new(Vec::new()),
            next_connection_id: AtomicU64::new(0),
            handlers: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("riskserve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(Self {
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The underlying query server (for stats).
    pub fn server(&self) -> &Server<P> {
        &self.shared.server
    }

    /// Requests shutdown without waiting for it to complete.
    pub fn stop(&self) {
        self.shared.stop();
    }

    /// Blocks until the front-end has shut down — triggered by a client's
    /// `shutdown` line or a [`stop`](TcpFrontEnd::stop) call — then drains
    /// the query server (every accepted request is answered) and returns.
    pub fn wait(mut self) -> std::io::Result<()> {
        if let Some(accept) = self.accept_thread.take() {
            accept
                .join()
                .map_err(|_| std::io::Error::other("accept thread panicked"))?;
        }
        for handler in lock(&self.shared.handlers).drain(..) {
            let _ = handler.join();
        }
        self.shared.server.shutdown();
        Ok(())
    }
}

impl<P: SourceProvider> Drop for TcpFrontEnd<P> {
    fn drop(&mut self) {
        self.shared.stop();
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
        for handler in lock(&self.shared.handlers).drain(..) {
            let _ = handler.join();
        }
    }
}

fn accept_loop<P: SourceProvider>(listener: &TcpListener, shared: &Arc<TcpShared<P>>) {
    for connection in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let Ok(connection) = connection else {
            continue;
        };
        let Ok(clone) = connection.try_clone() else {
            continue;
        };
        let id = shared.next_connection_id.fetch_add(1, Ordering::Relaxed);
        lock(&shared.connections).push((id, clone));
        // Re-check after registering: a stop() racing this accept either
        // sees the registered clone in its drain, or is observed here.
        if shared.shutting_down.load(Ordering::SeqCst) {
            let _ = connection.shutdown(std::net::Shutdown::Both);
            return;
        }
        let handler_shared = Arc::clone(shared);
        let handler = std::thread::Builder::new()
            .name("riskserve-conn".to_string())
            .spawn(move || {
                handle_connection(connection, &handler_shared);
                // Deregister so the socket clone (a dup'd descriptor) is
                // dropped with the connection, not at server shutdown.
                lock(&handler_shared.connections).retain(|(cid, _)| *cid != id);
            });
        if let Ok(handler) = handler {
            let mut handlers = lock(&shared.handlers);
            // Reap finished handler threads so connection churn does not
            // grow the vector (and their join results) without bound.
            handlers.retain(|h| !h.is_finished());
            handlers.push(handler);
        }
    }
}

/// Serves one connection: read a line, answer a line, until EOF, `quit`,
/// `shutdown`, or front-end shutdown.
fn handle_connection<P: SourceProvider>(connection: TcpStream, shared: &TcpShared<P>) {
    let Ok(writer) = connection.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(writer);
    let mut reader = BufReader::new(connection);
    let mut bytes = Vec::new();
    loop {
        bytes.clear();
        // One byte past the cap is enough to tell an over-long line.
        let limit = MAX_LINE_BYTES as u64 + 1;
        match reader.by_ref().take(limit).read_until(b'\n', &mut bytes) {
            Ok(0) | Err(_) => break, // EOF, client vanished or socket shut down
            Ok(_) => {}
        }
        if bytes.last() != Some(&b'\n') && bytes.len() > MAX_LINE_BYTES {
            let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
            let _ = write_line(&mut writer, &WireReply::error("parse", message));
            break;
        }
        let Ok(line) = std::str::from_utf8(&bytes) else {
            break; // not a text protocol client
        };
        let reply = match parse_request(line) {
            Ok(None) => continue,
            Ok(Some(Request::Ping)) => WireReply::pong(),
            Ok(Some(Request::Stats)) => WireReply::stats(shared.server.stats()),
            Ok(Some(Request::Metrics)) => WireReply::metrics(shared.server.metrics()),
            Ok(Some(Request::Recorder)) => WireReply::recorder(shared.server.recorder_dump()),
            Ok(Some(Request::RecorderSince(since))) => {
                WireReply::recorder(shared.server.recorder_dump_since(since))
            }
            Ok(Some(Request::Trace(id))) => WireReply::trace_lookup(id, shared.server.trace(id)),
            Ok(Some(Request::TraceSlowest(n))) => {
                WireReply::traces(shared.server.slowest_traces(n))
            }
            Ok(Some(Request::Quit)) => {
                let _ = write_line(&mut writer, &WireReply::bye());
                break;
            }
            Ok(Some(Request::Shutdown)) => {
                let _ = write_line(&mut writer, &WireReply::shutting_down());
                shared.stop();
                break;
            }
            Ok(Some(Request::Query { query, trace })) => match if trace {
                // The wire flag forces a trace whatever the sampling knob
                // says — a client asking for a profile always gets one.
                shared.server.submit_traced(query)
            } else {
                shared.server.submit(query)
            } {
                // The wait blocks this connection only; other connections'
                // requests coalesce into the same batch meanwhile.
                Ok(ticket) => match ticket.wait() {
                    Ok(mut reply) => {
                        // The profile rides the wire only when this line
                        // asked for it — sampling alone never widens a
                        // reply an existing client did not opt into.
                        if !trace {
                            reply.trace = None;
                        }
                        WireReply::from(reply)
                    }
                    Err(err) => WireReply::from(&err),
                },
                Err(err) => WireReply::from(&err),
            },
            Err(message) => WireReply::error("parse", message),
        };
        if write_line(&mut writer, &reply).is_err() {
            break;
        }
    }
}

fn write_line(writer: &mut impl Write, reply: &WireReply) -> std::io::Result<()> {
    writeln!(writer, "{}", reply.to_line())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use crate::test_store::{random_store, sample_queries};
    use catrisk_riskclient::{Client, ClientConfig};
    use catrisk_riskquery::QuerySession;
    use std::time::Duration;

    fn client(addr: SocketAddr) -> Client {
        Client::connect(&addr.to_string(), ClientConfig::default()).expect("connect")
    }

    fn roundtrip(client: &mut Client, request: &str) -> WireReply {
        client.round_trip(request).expect("a reply line")
    }

    #[test]
    fn tcp_round_trip_queries_commands_and_shutdown() {
        let store = Arc::new(random_store(256, 12, 7));
        let expected = QuerySession::new(&*store).run(&sample_queries()).unwrap();
        let server = Server::new(
            Arc::clone(&store),
            ServerConfig {
                batch_window: Duration::from_micros(100),
                trace_sample_every: 1,
                ..ServerConfig::default()
            },
        );
        let front = TcpFrontEnd::bind(server, "127.0.0.1:0").expect("bind");
        let addr = front.local_addr();

        let mut conn = client(addr);
        let pong = roundtrip(&mut conn, "ping");
        assert_eq!(pong.kind, "pong");

        let reply = roundtrip(
            &mut conn,
            "select mean, tvar(0.99) where peril=HU|FL group by region",
        );
        assert!(reply.ok, "{reply:?}");
        assert_eq!(reply.result.as_ref().unwrap(), &expected[0]);
        assert!(reply.timings.batch_size >= 1);
        // Sampling is on, but this line did not carry the `trace` prefix:
        // the profile stays server-side.
        assert_eq!(reply.trace, None);

        // A traced query gets its profile inline, timed from the same
        // clock reads as the timings it rides with.
        let traced = roundtrip(
            &mut conn,
            "trace select mean, tvar(0.99) where peril=HU|FL group by region",
        );
        assert!(traced.ok, "{traced:?}");
        assert_eq!(traced.result.as_ref().unwrap(), &expected[0]);
        let profile = traced.trace.expect("traced reply carries its profile");
        assert_eq!(
            profile.total_micros,
            traced.timings.queue_micros + traced.timings.exec_micros
        );
        assert_eq!(profile.root.name, "request");
        // ... and is retained server-side, resolvable by id.
        let lookup = roundtrip(&mut conn, &format!("trace {}", profile.id));
        assert_eq!(lookup.kind, "trace");
        assert_eq!(lookup.trace.as_ref().unwrap().id, profile.id);
        let unknown = roundtrip(&mut conn, "trace 999999");
        assert_eq!(unknown.error.as_ref().unwrap().kind, "invalid");
        let slowest = roundtrip(&mut conn, "trace slowest 3");
        assert_eq!(slowest.kind, "traces");
        assert!(!slowest.traces.as_ref().unwrap().is_empty());

        // `recorder since` scrapes incrementally: a later `since` returns
        // a strict suffix of the full dump.
        let full = roundtrip(&mut conn, "recorder");
        let events = full.recorder.expect("recorder payload");
        let last_seq = events.last().expect("at least one event").seq;
        let since = roundtrip(&mut conn, &format!("recorder since {last_seq}"));
        let tail = since.recorder.expect("recorder payload");
        assert!(tail.iter().all(|e| e.seq >= last_seq));
        assert!(tail.iter().any(|e| e.seq == last_seq));

        let bad = roundtrip(&mut conn, "select nonsense");
        assert!(!bad.ok);
        assert_eq!(bad.error.as_ref().unwrap().kind, "parse");

        let stats = roundtrip(&mut conn, "stats");
        assert!(stats.stats.unwrap().completed >= 1);

        let metrics = roundtrip(&mut conn, "metrics");
        let snapshot = metrics.metrics.expect("metrics payload");
        assert!(snapshot.counter("completed").unwrap() >= 1);
        // The count-consistency contract, over the wire: every
        // result-cache miss contributed exactly one scan-stage sample.
        assert_eq!(
            snapshot.histogram("stage_scan_micros").unwrap().count,
            snapshot.counter("cache_misses").unwrap(),
        );

        let recorder = roundtrip(&mut conn, "recorder");
        let events = recorder.recorder.expect("recorder payload");
        assert!(
            events.iter().any(|event| event.kind == "batch"),
            "{events:?}"
        );

        // A second connection coexists and can quit independently; once it
        // is gone its registry entry (a dup'd descriptor) is released.
        // Registration and deregistration happen on server threads, so
        // both are polled rather than asserted immediately.
        let registered_count = |want: usize| {
            (0..200).any(|_| {
                let now = lock(&front.shared.connections).len();
                now == want || {
                    std::thread::sleep(Duration::from_millis(10));
                    false
                }
            })
        };
        let mut conn2 = client(addr);
        assert!(registered_count(2), "second connection never registered");
        let bye = roundtrip(&mut conn2, "quit");
        assert_eq!(bye.kind, "bye");
        drop(conn2);
        assert!(registered_count(1), "closed connection stayed registered");

        let ack = roundtrip(&mut conn, "shutdown");
        assert_eq!(ack.kind, "shutting-down");
        front.wait().expect("clean shutdown");
    }

    #[test]
    fn an_over_long_line_closes_only_its_own_connection() {
        let store = Arc::new(random_store(32, 4, 3));
        let front = TcpFrontEnd::bind(Server::with_defaults(store), "127.0.0.1:0").expect("bind");
        let mut bystander = client(front.local_addr());
        let mut flooder = client(front.local_addr());

        // The longest allowed line still parses (as a request, badly).
        let longest = "x".repeat(MAX_LINE_BYTES);
        let reply = roundtrip(&mut flooder, &longest);
        assert_eq!(reply.error.as_ref().unwrap().kind, "parse");
        assert!(!reply.error.unwrap().message.contains("exceeds"));

        // One byte more: one parse error naming the cap, then the close.
        let reply = roundtrip(&mut flooder, &"x".repeat(MAX_LINE_BYTES + 1));
        let error = reply.error.expect("an error reply");
        assert_eq!(error.kind, "parse");
        assert!(error.message.contains("exceeds 65536 bytes"), "{error:?}");
        assert!(flooder.round_trip("ping").is_err(), "the connection closed");

        // Everyone else is still served.
        assert_eq!(roundtrip(&mut bystander, "ping").kind, "pong");
        let reply = roundtrip(&mut bystander, "select mean group by peril");
        assert!(reply.ok, "{reply:?}");
        assert_eq!(
            roundtrip(&mut client(front.local_addr()), "ping").kind,
            "pong"
        );
        front.stop();
        front.wait().expect("clean shutdown");
    }

    #[test]
    fn stop_unblocks_idle_connections() {
        let store = Arc::new(random_store(32, 4, 3));
        let front = TcpFrontEnd::bind(Server::with_defaults(store), "127.0.0.1:0").expect("bind");
        // An idle connection's handler sits in a blocked read ...
        let mut conn = client(front.local_addr());
        front.stop();
        front.wait().expect("clean shutdown");
        // ... and was shut down server-side: the next exchange surfaces
        // EOF as a transport error instead of hanging.
        assert!(conn.round_trip("ping").is_err());
    }
}
