//! A single-threaded, epoll-based readiness loop serving every client
//! connection of the evaluation server.
//!
//! The previous server spent one OS thread per connection, blocked on
//! `read` almost all the time; 64 idle monitoring connections cost 64
//! stacks. Here one reactor thread owns the listener and all client
//! sockets in non-blocking mode:
//!
//! * readable sockets are drained into per-connection buffers and
//!   split into command lines;
//! * complete lines are classified ([`crate::server::classify`]) —
//!   cheap state mutations are answered inline, and so is a cache hit
//!   whose key the session's canonical-form memo already holds (a memo
//!   read, a key and one lookup); all other pool work comes back as one
//!   job [`Group`]: each member becomes a [`DetachedJob`] on the shared
//!   [`WorkerPool`](crate::pool::WorkerPool), where the worker
//!   canonicalizes the cache key (a whole-database refinement pass, too
//!   heavy for this thread), resolves the hit or miss and accounts the
//!   member's outcome;
//! * a worker finishing a member pushes a [`Completion`] onto a shared
//!   queue and writes one byte to a wakeup pipe registered in the same
//!   epoll set, so replies complete asynchronously without the reactor
//!   ever blocking on a worker. The connection's one [`Inflight`] group
//!   frames each member's result ([`crate::server::frame`]) as it lands
//!   — a streaming `series` member's rows and estimates arrive first, as
//!   their own completions — and closes with the group's terminal line;
//! * writes go through per-connection buffers; a socket that refuses
//!   bytes (slow reader) gets `EPOLLOUT` interest until its buffer
//!   drains, stalling only that connection.
//!
//! Each connection runs **at most one command at a time** (pipelined
//! lines queue in arrival order), which preserves the historical
//! reply-ordering guarantee; concurrency comes from having many
//! connections in flight at once. Submission to the pool never blocks:
//! a full queue hands the job back and the reactor parks it, retrying
//! when a completion signals a freed slot (a full queue implies jobs in
//! flight, so a completion is guaranteed to arrive).
//!
//! **Admission control** (see the *Overload replies* section of
//! [`crate::proto`]): with a queue deadline configured
//! ([`ServerConfig::queue_deadline_ms`](crate::ServerConfig)), a full
//! pool queue *sheds* the member instead of parking it, so queue wait
//! stays bounded; members that are admitted but overstay the deadline in
//! the queue are expired by the worker without running. Both are framed
//! as an `err busy` result: `err busy` for a plain command or `series`,
//! an index-tagged `err* <i> busy` chunk for an `eval*` job.
//! Independently,
//! `max_inflight_per_conn` bounds how many commands one connection may
//! have admitted at once: lines past the cap become in-order `err busy`
//! replies ([`Pending::Shed`]) without ever being parsed, so one
//! pipelining client cannot monopolize the pending queue.
//!
//! **Graceful drain**: shutdown stops the acceptor and stops *reading*
//! every connection, but every line received before the stop is still
//! served — in-flight and queued commands finish (nothing is shed
//! during drain), replies flush, and each connection closes once idle.
//!
//! **Two protocols, one port**: the first bytes of every connection are
//! sniffed ([`crate::http::sniff`]) — an uppercase HTTP method token
//! selects HTTP/1.1 framing, anything else the line protocol (all
//! commands are lowercase, so the discriminator is unambiguous). The
//! [`Transport`] on each connection then decides how extracted input
//! becomes [`Pending`] entries and how reply frames are encoded in
//! [`Reactor::queue_frames`]: one reply group per HTTP response, one
//! frame per chunk, so a de-chunked `text/plain` body is byte-identical
//! to the line protocol's output.
//!
//! **Slow readers are bounded**: after a partial socket drain the
//! written prefix of `wbuf` is compacted away, and a connection whose
//! *unsent* bytes exceed [`ServerConfig::max_wbuf_bytes`]
//! (`crate::ServerConfig`) is disconnected and counted in
//! `slow_reader_disconnects_total` — a peer that stops reading its
//! streamed `series` can no longer grow the buffer without bound.
//!
//! The syscall surface (`epoll_create1`/`epoll_ctl`/`epoll_wait`,
//! `pipe2`) is declared directly against libc in the [`sys`] submodule
//! — the workspace is std-only by charter, so no crate dependency; all
//! `unsafe` in this crate is confined to those few wrappers.

use crate::http::{self, HttpError, RequestParser, Routed};
use crate::pool::{DetachedJob, JobResult, Outcome, TrySubmitError};
use crate::proto::{encode_frame, WireFrame, WireReply};
use crate::server::{
    classify, done_frame, frame, unless_expired, Control, Framing, Group, Shared, Step,
};
use crate::session::Session;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The epoll token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// The epoll token of the wakeup pipe's read end.
const TOKEN_WAKE: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;
/// Reject request lines longer than this (buffered bytes without a
/// newline): a line-oriented protocol peer sending a megabyte without
/// a line break is broken or hostile, and the reactor must bound
/// per-connection memory. It also bounds the canonical form a cache
/// hit answered on this thread may key on, so such a hit costs no more
/// than parsing one maximal line.
pub(crate) const MAX_LINE_BYTES: usize = 1 << 20;
/// Compact the drained `wpos` prefix of a write buffer once it reaches
/// this size (skipping tiny memmoves on fast readers).
const WBUF_COMPACT_MIN: usize = 4096;

/// The terminal `err busy` reply answering a shed or over-cap command.
fn busy_final() -> WireFrame {
    WireFrame::Final(WireReply::Err(crate::proto::BUSY.into()))
}

/// Bytes buffered after the last newline — the input that no amount of
/// extraction can frame yet. Bounds the read loop for both transports
/// (HTTP bodies are separately bounded by the parser's limits).
fn unframed_tail_len(rbuf: &[u8]) -> usize {
    match rbuf.iter().rposition(|&b| b == b'\n') {
        Some(pos) => rbuf.len() - pos - 1,
        None => rbuf.len(),
    }
}

/// What one piece of pool work tells its connection.
enum Done {
    /// One streamed `series` row (`k` ascending), emitted by the worker
    /// while later rows are still being computed.
    Row { k: usize, row: String },
    /// One anytime estimate for an in-flight `series` job, framed under
    /// the literal `approx` tag (see [`crate::proto`]). Advisory: never
    /// cached, and queued only while the connection still has the
    /// group in flight.
    Approx { payload: String },
    /// A member of the connection's in-flight group finished; its
    /// worker has already accounted it.
    Finished {
        member: usize,
        result: JobResult,
        outcome: Outcome,
    },
}

/// A completion message from a worker thread to the reactor.
struct Completion {
    conn: u64,
    done: Done,
}

/// The worker-side half of the completion path: a queue plus the write
/// end of the wakeup pipe. Shared (`Arc`) with every in-flight job's
/// callback, so the pipe outlives the reactor if a late callback fires
/// during teardown.
struct Notifier {
    queue: Mutex<Vec<Completion>>,
    wake_w: std::os::fd::OwnedFd,
}

impl Notifier {
    fn push(&self, completion: Completion) {
        self.queue.lock().unwrap().push(completion);
        // A full pipe is fine: the reader is already signaled.
        sys::write_wake_byte(&self.wake_w);
    }
}

/// The live connection a `series` member streams to, owned by its
/// worker closure: each row goes out as a chunk as soon as it is
/// computed, with `approx` estimates in between while it enumerates,
/// until the reactor fires `cancel` on disconnect.
pub(crate) struct Stream {
    notifier: Arc<Notifier>,
    conn: u64,
    pub(crate) cancel: Arc<AtomicBool>,
}

impl Stream {
    /// Send row `k`, rendered.
    pub(crate) fn row(&self, k: usize, row: &str) {
        let done = Done::Row { k, row: row.to_string() };
        self.notifier.push(Completion { conn: self.conn, done });
    }

    /// Send one anytime estimate: the payload only, framed under the
    /// literal `approx` tag.
    pub(crate) fn approx(&self, payload: &str) {
        let done = Done::Approx { payload: payload.to_string() };
        self.notifier.push(Completion { conn: self.conn, done });
    }
}

/// The reply group a connection has in flight: how each member frames,
/// and what is still owed before the group's final frame.
struct Inflight {
    /// Each member's framing, by member index.
    framings: Vec<Framing>,
    /// Members not yet framed.
    remaining: usize,
    /// `eval*` only: the job count for the terminal `done n` line.
    done: Option<usize>,
    /// `series` rows already streamed to the connection.
    streamed: usize,
    /// Cancellation token of a streaming `series` member: fired when the
    /// connection dies, so its enumeration stops instead of burning a
    /// worker for a reply nobody will read.
    cancel: Option<Arc<AtomicBool>>,
}

/// How a connection frames its input and replies.
enum Transport {
    /// Not enough bytes arrived to tell HTTP from the line protocol.
    Sniff,
    /// The historical newline-framed command protocol.
    Line,
    /// HTTP/1.1: requests parse into command batches, reply groups
    /// stream as chunked responses (boxed: most connections are Line).
    Http(Box<HttpState>),
}

/// Per-connection HTTP state: the incremental parser plus the response
/// currently being streamed (requests pipeline, responses serialize).
#[derive(Default)]
struct HttpState {
    parser: RequestParser,
    active: Option<ActiveResponse>,
}

/// One in-progress HTTP response. Opened when the first command of its
/// request is pumped; closed (last-chunk) when `remaining` terminal
/// frames have been encoded.
struct ActiveResponse {
    /// NDJSON framing was negotiated via `Accept: application/json`.
    json: bool,
    /// Close the connection after this response.
    keep_alive: bool,
    /// Terminal frames still owed before the response body ends — one
    /// per command line of the request.
    remaining: usize,
    /// The status line + headers have been written (the status is
    /// decided by the first frame).
    head_sent: bool,
}

/// Response framing carried by the first pending entry of each HTTP
/// request; [`Reactor::pump`] turns it into the [`ActiveResponse`].
struct HttpMeta {
    json: bool,
    keep_alive: bool,
    /// Command lines in the request = terminal frames in the response.
    commands: usize,
}

/// A transport-level protocol error. Queued *behind* everything already
/// admitted so the terminal error reaches the peer at a group boundary
/// — never interleaved into a streaming `series` or `eval*` group —
/// after which the connection closes.
enum Fatal {
    /// A line-protocol peer buffered more than [`MAX_LINE_BYTES`]
    /// without a newline.
    OversizeLine,
    /// An HTTP request failed to parse (431/413/505/...).
    Http(HttpError),
}

/// One entry of a connection's pending-command queue.
enum Pending {
    /// A complete command line awaiting dispatch. `meta` is set on the
    /// first command of an HTTP request and opens its response.
    Line {
        raw: Vec<u8>,
        meta: Option<HttpMeta>,
    },
    /// A line rejected at read time by the per-connection in-flight cap;
    /// queued (instead of answered immediately) so its `err busy` reply
    /// goes out in arrival order like every other reply.
    Shed { meta: Option<HttpMeta> },
    /// A fully formed HTTP response the router produced without a
    /// session (`/healthz`, routing errors); queued so it is written in
    /// pipeline order behind earlier requests' responses.
    Immediate {
        status: u16,
        body: String,
        keep_alive: bool,
    },
    /// A transport error to report once everything admitted before it
    /// has been answered; the connection then closes.
    Fatal(Fatal),
}

/// Per-connection state: socket, session, buffers, and the one
/// in-flight command (if any).
struct Conn {
    stream: std::net::TcpStream,
    session: Session,
    /// Input/reply framing: sniffed on the first bytes, then fixed for
    /// the connection's lifetime.
    transport: Transport,
    /// Bytes read but not yet split into lines.
    rbuf: Vec<u8>,
    /// Complete command lines waiting their turn (one command in
    /// flight at a time keeps replies ordered).
    pending: VecDeque<Pending>,
    /// Admitted commands not yet fully answered: queued [`Pending::Line`]s
    /// plus the in-flight command. The per-connection cap compares
    /// against this, and it never counts [`Pending::Shed`] markers.
    backlog: usize,
    /// Encoded reply bytes not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// How much of `wbuf` the socket has taken.
    wpos: usize,
    inflight: Option<Inflight>,
    /// `EPOLLOUT` interest is currently registered.
    want_write: bool,
    /// Close once `wbuf` drains (after `quit`/`shutdown`/oversize).
    closing: bool,
    /// The peer half-closed its read side; serve what's queued, then go.
    read_eof: bool,
}

impl Conn {
    fn new(stream: std::net::TcpStream) -> Conn {
        Conn {
            stream,
            session: Session::new(),
            transport: Transport::Sniff,
            rbuf: Vec::new(),
            pending: VecDeque::new(),
            backlog: 0,
            wbuf: Vec::new(),
            wpos: 0,
            inflight: None,
            want_write: false,
            closing: false,
            read_eof: false,
        }
    }

    fn flushed(&self) -> bool {
        self.wpos >= self.wbuf.len()
    }
}

/// The readiness loop. Constructed by [`crate::server::Server::run`];
/// consumes the listener and serves until shutdown.
pub(crate) struct Reactor {
    epoll: sys::Epoll,
    /// `None` once shutdown stops the acceptor.
    listener: Option<TcpListener>,
    wake_r: std::os::fd::OwnedFd,
    notifier: Arc<Notifier>,
    shared: Arc<Shared>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Jobs bounced by a full pool queue, retried as completions free
    /// slots. Pairs the owning connection so a dead connection's parked
    /// work is dropped instead of run.
    parked: VecDeque<(u64, DetachedJob)>,
    /// The completion buffer not currently in the notifier's queue. The
    /// two swap on every drain, so their capacity is reused instead of
    /// a worker allocating a buffer that this thread frees on every
    /// drain (cross-thread churn that grows the allocator's per-thread
    /// arenas).
    spare: Vec<Completion>,
    stopping: bool,
}

impl Reactor {
    pub(crate) fn new(listener: TcpListener, shared: Arc<Shared>) -> std::io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let epoll = sys::Epoll::new()?;
        let (wake_r, wake_w) = sys::pipe_nonblocking()?;
        epoll.add(listener.as_raw_fd(), sys::EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(wake_r.as_raw_fd(), sys::EPOLLIN, TOKEN_WAKE)?;
        Ok(Reactor {
            epoll,
            listener: Some(listener),
            wake_r,
            notifier: Arc::new(Notifier {
                queue: Mutex::new(Vec::new()),
                wake_w,
            }),
            shared,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            parked: VecDeque::new(),
            spare: Vec::new(),
            stopping: false,
        })
    }

    /// Serve until shutdown: returns once the stop flag is set *and*
    /// every accepted connection has ended (draining the pool is the
    /// caller's job, so even an error return loses no queued work).
    pub(crate) fn run(mut self) -> std::io::Result<()> {
        loop {
            if self.shared.stop.load(Ordering::SeqCst) && !self.stopping {
                self.begin_stop();
            }
            if self.stopping && self.conns.is_empty() {
                return Ok(());
            }
            for (token, events) in self.epoll.wait()? {
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => sys::drain_pipe(&self.wake_r),
                    id => self.conn_ready(id, events),
                }
            }
            self.drain_completions();
            self.retry_parked();
        }
    }

    /// Begin the graceful drain: stop accepting (deregister and close
    /// the listener), stop *reading* every connection, and serve out
    /// what was already received — lines buffered before the stop are
    /// extracted and dispatched, in-flight work finishes (nothing is
    /// shed during drain: [`Reactor::admit`] parks on a full queue once
    /// `stopping` is set), replies flush, and each connection closes as
    /// soon as it goes idle.
    fn begin_stop(&mut self) {
        if self.stopping {
            return;
        }
        self.stopping = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.delete(listener.as_raw_fd());
        }
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            // Serve input that had already arrived, then read no more.
            self.extract_input(id);
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.read_eof = true;
                conn.rbuf.clear(); // any partial line will never complete
                let events = if conn.want_write { sys::EPOLLOUT } else { 0 };
                let _ = self.epoll.modify(conn.stream.as_raw_fd(), events, id);
            }
            self.pump(id); // also closes the connection if already idle
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Replies stream frame by frame (series rows,
                    // anytime estimates); with Nagle on, a frame
                    // written while an earlier one is unacked waits
                    // for the peer's delayed ACK (~40ms) — a latency
                    // floor that would swamp the estimates' head start.
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .epoll
                        .add(stream.as_raw_fd(), sys::EPOLLIN | sys::EPOLLRDHUP, token)
                        .is_err()
                    {
                        continue;
                    }
                    self.shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
                    self.conns.insert(token, Conn::new(stream));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (e.g. the
                // peer already reset); keep the acceptor alive.
                Err(_) => return,
            }
        }
    }

    fn conn_ready(&mut self, id: u64, events: u32) {
        if !self.conns.contains_key(&id) {
            return; // closed earlier in this batch of events
        }
        if events & sys::EPOLLERR != 0 {
            self.drop_conn(id);
            return;
        }
        if events & sys::EPOLLOUT != 0 {
            self.flush_writes(id);
        }
        if self.conns.contains_key(&id)
            && events & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0
        {
            self.read_ready(id);
        }
    }

    fn read_ready(&mut self, id: u64) {
        if self.stopping {
            // Draining: begin_stop already served every line received
            // before the stop; bytes arriving after it are not read.
            return;
        }
        loop {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            if conn.read_eof {
                // A transport error already stopped this connection's
                // input (Fatal queued); never buffer more bytes.
                break;
            }
            let mut buf = [0u8; 8192];
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.read_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&buf[..n]);
                    // Stop slurping once the unframed tail exceeds the
                    // line bound; extraction below either consumes it
                    // (HTTP body) or turns it into a terminal error.
                    // epoll here is level-triggered, so a break loses
                    // no readiness.
                    if unframed_tail_len(&conn.rbuf) > MAX_LINE_BYTES {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.drop_conn(id);
                    return;
                }
            }
        }
        self.decide_transport(id);
        self.extract_input(id);
        self.pump(id);
    }

    /// Resolve a sniffing connection's transport once its first bytes
    /// are conclusive ([`http::sniff`]); undecided stays [`Transport::Sniff`]
    /// until more bytes arrive (or EOF, which defaults to Line — any
    /// partial input is dropped at close either way).
    fn decide_transport(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if !matches!(conn.transport, Transport::Sniff) {
            return;
        }
        let is_http = match http::sniff(&conn.rbuf) {
            Some(v) => v,
            None if conn.read_eof => false,
            None => return,
        };
        conn.transport = if is_http {
            Transport::Http(Box::default())
        } else {
            Transport::Line
        };
    }

    /// Turn buffered bytes into pending entries per the connection's
    /// transport (no-op while the sniffer is still undecided).
    fn extract_input(&mut self, id: u64) {
        match self.conns.get(&id).map(|c| &c.transport) {
            Some(Transport::Line) => self.extract_lines(id),
            Some(Transport::Http(_)) => self.extract_requests(id),
            Some(Transport::Sniff) | None => {}
        }
    }

    /// Split complete `\n`-terminated lines (stripping a trailing `\r`)
    /// out of the read buffer into the pending-command queue. With a
    /// per-connection in-flight cap configured, lines past the cap are
    /// queued as [`Pending::Shed`] markers — they are never parsed, and
    /// pump answers them `err busy` in arrival order.
    fn extract_lines(&mut self, id: u64) {
        let cap = self.shared.max_inflight_per_conn;
        let Some(conn) = self.conns.get_mut(&id) else { return };
        let mut rejected = 0u64;
        while let Some(pos) = conn.rbuf.iter().position(|&b| b == b'\n') {
            let mut line: Vec<u8> = conn.rbuf.drain(..=pos).collect();
            line.pop(); // the newline
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            if cap > 0 && conn.backlog >= cap {
                rejected += 1;
                conn.pending.push_back(Pending::Shed { meta: None });
            } else {
                conn.backlog += 1;
                conn.pending.push_back(Pending::Line { raw: line, meta: None });
            }
        }
        // An oversize unframed tail can never complete into a line:
        // queue the terminal error *behind* everything admitted above
        // (groups in flight finish first), then stop reading.
        if conn.rbuf.len() > MAX_LINE_BYTES {
            conn.rbuf.clear();
            conn.read_eof = true;
            conn.pending.push_back(Pending::Fatal(Fatal::OversizeLine));
            self.shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
        }
        if rejected > 0 {
            self.shared
                .metrics
                .conn_inflight_rejected
                .fetch_add(rejected, Ordering::Relaxed);
        }
    }

    /// Parse complete HTTP requests off the read buffer and queue their
    /// command lines (first command carries the response's [`HttpMeta`])
    /// or immediate responses. A parse error queues a [`Pending::Fatal`]
    /// and stops reading — the stream position is unrecoverable.
    fn extract_requests(&mut self, id: u64) {
        let cap = self.shared.max_inflight_per_conn;
        loop {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            let Transport::Http(state) = &mut conn.transport else { return };
            match state.parser.poll(&mut conn.rbuf) {
                Ok(None) => return,
                Ok(Some(req)) => {
                    self.shared.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
                    match http::route(req) {
                        Routed::Immediate { status, body, keep_alive } => {
                            conn.pending.push_back(Pending::Immediate {
                                status,
                                body,
                                keep_alive,
                            });
                        }
                        // `/healthz` is resolved here, against shared
                        // state, so readiness is current at answer time.
                        Routed::Health { keep_alive } => {
                            let (status, body) = self.shared.health();
                            conn.pending.push_back(Pending::Immediate {
                                status,
                                body,
                                keep_alive,
                            });
                        }
                        Routed::Commands { lines, json, keep_alive } => {
                            let mut meta = Some(HttpMeta {
                                json,
                                keep_alive,
                                commands: lines.len(),
                            });
                            let mut rejected = 0u64;
                            for raw in lines {
                                let meta = meta.take();
                                if cap > 0 && conn.backlog >= cap {
                                    rejected += 1;
                                    conn.pending.push_back(Pending::Shed { meta });
                                } else {
                                    conn.backlog += 1;
                                    conn.pending.push_back(Pending::Line { raw, meta });
                                }
                            }
                            if rejected > 0 {
                                self.shared
                                    .metrics
                                    .conn_inflight_rejected
                                    .fetch_add(rejected, Ordering::Relaxed);
                            }
                        }
                    }
                }
                Err(e) => {
                    conn.rbuf.clear();
                    conn.read_eof = true;
                    conn.pending.push_back(Pending::Fatal(Fatal::Http(e)));
                    self.shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
    }

    /// Start queued commands until one goes in flight (or the queue
    /// runs dry), then close the connection if it is finished.
    fn pump(&mut self, id: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            if conn.inflight.is_some() || conn.closing {
                break;
            }
            let Some(entry) = conn.pending.pop_front() else { break };
            let raw = match entry {
                Pending::Line { raw, meta } => {
                    if let Some(meta) = meta {
                        Self::open_response(conn, meta);
                    }
                    raw
                }
                Pending::Shed { meta } => {
                    // A line the in-flight cap rejected: it still counts
                    // as a received request, but busy replies stay out
                    // of errors_total so conn_inflight_rejected_total
                    // reconciles with what the client observed.
                    let Some(conn) = self.conns.get_mut(&id) else { return };
                    if let Some(meta) = meta {
                        Self::open_response(conn, meta);
                    }
                    self.shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
                    self.queue_frames(id, &[busy_final()]);
                    continue;
                }
                Pending::Immediate { status, body, keep_alive } => {
                    self.shared.metrics.note_http_status(status);
                    let resp = http::simple_response(status, &body, keep_alive);
                    conn.wbuf.extend_from_slice(resp.as_bytes());
                    if !keep_alive {
                        conn.closing = true;
                    }
                    self.flush_writes(id);
                    continue;
                }
                Pending::Fatal(fatal) => {
                    self.fatal_reply(id, fatal);
                    continue;
                }
            };
            match String::from_utf8(raw) {
                Ok(line) => self.dispatch(id, &line),
                Err(_) => {
                    self.shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
                    self.shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                    self.queue_frames(
                        id,
                        &[WireFrame::Final(WireReply::Err(
                            "input line is not valid UTF-8".into(),
                        ))],
                    );
                }
            }
            // The command finished inline (inline reply, every member
            // shed at submission, or invalid UTF-8): release its backlog
            // slot. Groups that went in flight release it in `complete`.
            if let Some(conn) = self.conns.get_mut(&id) {
                if conn.inflight.is_none() {
                    conn.backlog = conn.backlog.saturating_sub(1);
                }
            }
        }
        self.maybe_close(id);
    }

    /// Open the HTTP response an [`HttpMeta`]-carrying pending entry
    /// announces (no-op on line-protocol connections).
    fn open_response(conn: &mut Conn, meta: HttpMeta) {
        if let Transport::Http(state) = &mut conn.transport {
            debug_assert!(state.active.is_none(), "responses serialize");
            state.active = Some(ActiveResponse {
                json: meta.json,
                keep_alive: meta.keep_alive,
                remaining: meta.commands,
                head_sent: false,
            });
        }
    }

    /// Answer a [`Pending::Fatal`] — a terminal, transport-appropriate
    /// error emitted only once everything admitted before it has been
    /// served — and begin closing.
    fn fatal_reply(&mut self, id: u64, fatal: Fatal) {
        match fatal {
            Fatal::OversizeLine => {
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.closing = true;
                }
                self.queue_frames(
                    id,
                    &[WireFrame::Final(WireReply::Err("request line too long".into()))],
                );
            }
            Fatal::Http(e) => {
                self.shared.metrics.note_http_status(e.status);
                let Some(conn) = self.conns.get_mut(&id) else { return };
                conn.closing = true;
                let resp = http::simple_response(e.status, &format!("{}\n", e.detail), false);
                conn.wbuf.extend_from_slice(resp.as_bytes());
                self.flush_writes(id);
            }
        }
    }

    /// Classify one command line and either queue its reply frames or
    /// put its evaluation in flight on the pool.
    fn dispatch(&mut self, id: u64, line: &str) {
        let shared = Arc::clone(&self.shared);
        let step = {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            classify(&mut conn.session, &shared, line)
        };
        match step {
            Step::Done(frames, control) => {
                match control {
                    Control::Continue => {}
                    Control::QuitConnection => {
                        if let Some(conn) = self.conns.get_mut(&id) {
                            conn.closing = true;
                            conn.pending.clear();
                            conn.backlog = 0;
                        }
                        self.queue_frames(id, &frames);
                        // `quit` inside a multi-command HTTP body: the
                        // request's later commands were just cancelled,
                        // so terminate the open chunked response.
                        self.finish_http_abort(id);
                        return;
                    }
                    Control::ShutdownServer => {
                        // The fix for the lost-shutdown bug: commit the
                        // stop *before* attempting to write `bye`. A
                        // client that disconnects without reading its
                        // reply can no longer cancel a server shutdown.
                        shared.stop.store(true, Ordering::SeqCst);
                        if let Some(conn) = self.conns.get_mut(&id) {
                            conn.closing = true;
                            conn.pending.clear();
                            conn.backlog = 0;
                        }
                        // Queue `bye` before begin_stop: the drain pass
                        // closes idle connections, and this one is idle
                        // the moment its bye is flushed.
                        self.queue_frames(id, &frames);
                        self.finish_http_abort(id);
                        self.begin_stop();
                        return;
                    }
                }
                self.queue_frames(id, &frames);
            }
            Step::Jobs(group) => self.start_group(id, group),
        }
    }

    /// Put a group in flight: queue its ready frames and submit every
    /// member. A member the pool sheds is framed at once as `err busy`;
    /// a group with no members closes inline.
    fn start_group(&mut self, id: u64, group: Group) {
        let Group { mut ready, members, done, start } = group;
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if members.is_empty() {
            ready.extend(done.map(done_frame));
            self.queue_frames(id, &ready);
            return;
        }
        // One snapshot per member, each owned by its job: the last
        // member takes the snapshot itself.
        let sessions = std::iter::repeat_n(conn.session.clone(), members.len());
        let streams = members.iter().any(|m| m.framing == Framing::Series);
        let cancel = streams.then(|| Arc::new(AtomicBool::new(false)));
        conn.inflight = Some(Inflight {
            framings: members.iter().map(|m| m.framing).collect(),
            remaining: members.len(),
            done,
            streamed: 0,
            cancel: cancel.clone(),
        });
        self.queue_frames(id, &ready);
        for ((index, member), session) in members.into_iter().enumerate().zip(sessions) {
            let stream = cancel.clone().filter(|_| member.framing == Framing::Series);
            let stream = stream.map(|cancel| Stream {
                notifier: Arc::clone(&self.notifier),
                conn: id,
                cancel,
            });
            let notifier = Arc::clone(&self.notifier);
            let job = DetachedJob {
                work: member.job(Arc::clone(&self.shared), session, start, stream),
                on_done: Box::new(move |result, outcome| {
                    notifier.push(Completion {
                        conn: id,
                        done: Done::Finished { member: index, result, outcome },
                    });
                }),
                deadline: self.shared.job_deadline(),
            };
            if !self.admit(id, job) {
                // Framed before any admitted sibling's completion lands:
                // reactor and workers only meet at the completion queue,
                // which is drained after dispatch returns.
                self.finish_member(id, index, Err(crate::proto::BUSY.into()));
            }
        }
    }

    /// Submit to the pool without blocking. A full queue either parks
    /// the job ([`Reactor::retry_parked`] resubmits as completions free
    /// slots) — the only behavior without admission control, and always
    /// the behavior during the shutdown drain — or, with a queue
    /// deadline configured, sheds it: the job is dropped, counted in
    /// `jobs_shed_total`, and the caller frames the member as `err busy`.
    /// Returns whether the job will eventually complete.
    fn admit(&mut self, id: u64, job: DetachedJob) -> bool {
        match self.shared.pool.try_submit_detached(job) {
            Ok(()) => true,
            Err(TrySubmitError::Full(job)) => {
                if self.shared.queue_deadline.is_none() || self.stopping {
                    self.parked.push_back((id, job));
                    true
                } else {
                    self.shared.metrics.jobs_shed.fetch_add(1, Ordering::Relaxed);
                    false
                }
            }
            // Unreachable while the reactor runs (the pool shuts down
            // after it), but never drop a completion on the floor.
            Err(TrySubmitError::ShutDown(job)) => {
                (job.on_done)(Err("worker pool is shut down".into()), Outcome::Completed);
                true
            }
        }
    }

    fn retry_parked(&mut self) {
        while let Some((id, job)) = self.parked.pop_front() {
            if !self.conns.contains_key(&id) {
                continue; // connection died; drop its parked work
            }
            match self.shared.pool.try_submit_detached(job) {
                Ok(()) => {}
                Err(TrySubmitError::Full(job)) => {
                    self.parked.push_front((id, job));
                    return; // still full; a future completion re-triggers
                }
                Err(TrySubmitError::ShutDown(job)) => {
                    (job.on_done)(Err("worker pool is shut down".into()), Outcome::Completed);
                }
            }
        }
    }

    fn drain_completions(&mut self) {
        let mut batch = std::mem::take(&mut self.spare);
        std::mem::swap(&mut batch, &mut *self.notifier.queue.lock().unwrap());
        for completion in batch.drain(..) {
            self.complete(completion);
        }
        self.spare = batch;
    }

    /// Apply one piece of pool work: global effects (metrics) happen even
    /// if the connection is gone; frames are queued only if it is still
    /// here.
    fn complete(&mut self, completion: Completion) {
        let id = completion.conn;
        match completion.done {
            Done::Row { k, row } => {
                let Some(group) = self.conns.get_mut(&id).and_then(|c| c.inflight.as_mut()) else {
                    return;
                };
                group.streamed += 1;
                self.queue_frames(id, &[WireFrame::Chunk { tag: k.to_string(), payload: row }]);
            }
            Done::Approx { payload } => {
                // Counted only when actually queued to a live client.
                if self.conns.get(&id).is_some_and(|c| c.inflight.is_some()) {
                    self.shared.metrics.anytime_chunks.fetch_add(1, Ordering::Relaxed);
                    let tag = "approx".to_string();
                    self.queue_frames(id, &[WireFrame::Chunk { tag, payload }]);
                }
            }
            Done::Finished { member, result, outcome } => {
                let result = unless_expired(&self.shared, result, outcome);
                if self.finish_member(id, member, result) {
                    // Release the backlog slot its line took in
                    // `extract_lines`/`extract_requests`.
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.backlog = conn.backlog.saturating_sub(1);
                    }
                    self.pump(id);
                }
            }
        }
    }

    /// Queue one finished member's frames into the connection's
    /// in-flight group; after its last member, close the group with the
    /// terminal `done n` line (if any) and free the in-flight slot.
    /// Returns whether the group closed.
    fn finish_member(&mut self, id: u64, member: usize, result: JobResult) -> bool {
        let Some(conn) = self.conns.get_mut(&id) else { return false };
        let Some(group) = conn.inflight.as_mut() else { return false };
        let mut frames = frame(group.framings[member], result, group.streamed);
        group.remaining -= 1;
        let closed = group.remaining == 0;
        if closed {
            frames.extend(group.done.map(done_frame));
            conn.inflight = None;
        }
        self.queue_frames(id, &frames);
        closed
    }

    /// Append frames to the connection's write buffer — encoded per the
    /// connection's transport — and push as much as the socket will
    /// take. On HTTP connections each frame becomes one chunk of the
    /// active response; the response's terminal-frame count reaching
    /// zero writes the last-chunk and, without keep-alive, closes.
    fn queue_frames(&mut self, id: u64, frames: &[WireFrame]) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        match &mut conn.transport {
            Transport::Line | Transport::Sniff => {
                for frame in frames {
                    conn.wbuf.extend_from_slice(encode_frame(frame).as_bytes());
                    conn.wbuf.push(b'\n');
                }
            }
            Transport::Http(state) => {
                for frame in frames {
                    let Some(active) = state.active.as_mut() else {
                        // No open response can only mean the request was
                        // aborted (quit/shutdown); drop the frame.
                        continue;
                    };
                    let is_final = matches!(frame, WireFrame::Final(_));
                    if matches!(frame, WireFrame::Final(WireReply::Bye)) {
                        active.keep_alive = false;
                    }
                    if !active.head_sent {
                        let status = http::status_for(frame);
                        self.shared.metrics.note_http_status(status);
                        conn.wbuf.extend_from_slice(
                            http::streaming_head(status, active.json, active.keep_alive)
                                .as_bytes(),
                        );
                        active.head_sent = true;
                    }
                    let line = http::frame_line(frame, active.json);
                    conn.wbuf.extend_from_slice(http::chunk(&line).as_bytes());
                    if is_final {
                        active.remaining = active.remaining.saturating_sub(1);
                        if active.remaining == 0 {
                            conn.wbuf.extend_from_slice(http::LAST_CHUNK);
                            if !active.keep_alive {
                                conn.closing = true;
                            }
                            state.active = None;
                        }
                    }
                }
            }
        }
        self.flush_writes(id);
    }

    /// Terminate an HTTP response left open by an aborted request
    /// (`quit`/`shutdown` cancelled its remaining commands) so the peer
    /// sees a well-formed body before the close. No-op otherwise.
    fn finish_http_abort(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if let Transport::Http(state) = &mut conn.transport {
            if let Some(active) = state.active.take() {
                if active.head_sent {
                    conn.wbuf.extend_from_slice(http::LAST_CHUNK);
                } else {
                    // Defensive: no frame was ever queued for this
                    // response; close it out as an empty 200.
                    conn.wbuf.extend_from_slice(
                        http::simple_response(200, "", false).as_bytes(),
                    );
                }
            }
        }
        self.flush_writes(id);
    }

    fn flush_writes(&mut self, id: u64) {
        let mut dead = false;
        let mut interest: Option<u32> = None;
        {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            while conn.wpos < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => conn.wpos += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        if !conn.want_write {
                            conn.want_write = true;
                            interest = Some(sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP);
                        }
                        break;
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if !dead && conn.flushed() {
                conn.wbuf.clear();
                conn.wpos = 0;
                if conn.want_write {
                    conn.want_write = false;
                    interest = Some(sys::EPOLLIN | sys::EPOLLRDHUP);
                }
            } else if !dead {
                // Partial drain: compact the written prefix so a slow
                // reader's buffer holds only unsent bytes, then bound
                // those — a peer that stops reading a streamed series
                // must not grow the buffer without limit.
                if conn.wpos >= WBUF_COMPACT_MIN {
                    conn.wbuf.drain(..conn.wpos);
                    conn.wpos = 0;
                }
                let cap = self.shared.wbuf_cap;
                if cap > 0 && conn.wbuf.len() - conn.wpos > cap {
                    self.shared
                        .metrics
                        .slow_reader_disconnects
                        .fetch_add(1, Ordering::Relaxed);
                    dead = true;
                }
            }
            if let Some(events) = interest {
                let _ = self.epoll.modify(conn.stream.as_raw_fd(), events, id);
            }
        }
        if dead {
            self.drop_conn(id);
        } else {
            self.maybe_close(id);
        }
    }

    /// Remove a finished connection: everything queued was answered and
    /// flushed, and either the peer is done sending (`read_eof`) or we
    /// decided to close (`closing`).
    fn maybe_close(&mut self, id: u64) {
        let Some(conn) = self.conns.get(&id) else { return };
        let idle = conn.inflight.is_none() && conn.pending.is_empty() && conn.flushed();
        if idle && (conn.closing || conn.read_eof) {
            self.drop_conn(id);
        }
    }

    fn drop_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            // Nobody is left to read the reply: tell the in-flight
            // `series` to stop enumerating. It settles on its worker at
            // its next slice (counted, never cached).
            if let Some(cancel) = conn.inflight.as_ref().and_then(|g| g.cancel.as_ref()) {
                cancel.store(true, Ordering::Relaxed);
            }
        }
        self.parked.retain(|(owner, _)| *owner != id);
    }
}

/// Raw Linux syscall bindings for the reactor, kept to the minimum
/// surface (`epoll`, `pipe2`, pipe reads/writes). The only `unsafe` in
/// the crate lives here, wrapped in safe, owned-fd interfaces.
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const O_CLOEXEC: i32 = 0o2000000;
    const O_NONBLOCK: i32 = 0o4000;

    /// `struct epoll_event`; packed on x86-64, where the kernel ABI has
    /// no padding between the 32-bit mask and the 64-bit data word.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn pipe2(fds: *mut i32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// An owned epoll instance.
    pub struct Epoll(OwnedFd);

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            let fd = cvt(unsafe { epoll_create1(O_CLOEXEC) })?;
            Ok(Epoll(unsafe { OwnedFd::from_raw_fd(fd) }))
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent { events, data: token };
            cvt(unsafe { epoll_ctl(self.0.as_raw_fd(), op, fd, &mut ev) })?;
            Ok(())
        }

        pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Block until readiness, retrying `EINTR`. Returns
        /// `(token, event mask)` pairs.
        pub fn wait(&self) -> io::Result<Vec<(u64, u32)>> {
            const MAX_EVENTS: usize = 64;
            let mut buf = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            loop {
                let n = unsafe {
                    epoll_wait(self.0.as_raw_fd(), buf.as_mut_ptr(), MAX_EVENTS as i32, -1)
                };
                if n < 0 {
                    let e = io::Error::last_os_error();
                    if e.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    return Err(e);
                }
                return Ok(buf[..n as usize]
                    .iter()
                    .map(|ev| {
                        let ev = *ev; // copy out of the packed array
                        (ev.data, ev.events)
                    })
                    .collect());
            }
        }
    }

    /// A non-blocking, close-on-exec pipe: `(read end, write end)`.
    pub fn pipe_nonblocking() -> io::Result<(OwnedFd, OwnedFd)> {
        let mut fds = [0i32; 2];
        cvt(unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) })?;
        Ok(unsafe { (OwnedFd::from_raw_fd(fds[0]), OwnedFd::from_raw_fd(fds[1])) })
    }

    /// Write one wakeup byte; a full pipe (`EAGAIN`) already means the
    /// reader has a pending wakeup, so errors are deliberately ignored.
    pub fn write_wake_byte(fd: &OwnedFd) {
        let byte = [1u8];
        let _ = unsafe { write(fd.as_raw_fd(), byte.as_ptr(), 1) };
    }

    /// Discard every buffered byte from the wake pipe's read end.
    pub fn drain_pipe(fd: &OwnedFd) {
        let mut buf = [0u8; 256];
        loop {
            let n = unsafe { read(fd.as_raw_fd(), buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                return; // empty (EAGAIN) or closed; either way, done
            }
        }
    }
}
