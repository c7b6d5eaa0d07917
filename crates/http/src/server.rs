//! The bounded acceptor pool.
//!
//! ```text
//!  clients ──TCP──▶ acceptor thread ──push──▶ bounded connection queue
//!                        │ 503 on overflow            │ pop
//!                        ▼                            ▼
//!                      close                 worker threads (N)
//!                                        parse → handler → respond
//!                                                     │
//!                               idle keep-alive conns re-enqueue ──▶ queue
//! ```
//!
//! A fixed pool of worker threads multiplexes many keep-alive
//! connections: each worker pops a connection, serves every request
//! already buffered, then waits at most one poll interval for more
//! bytes. If the connection goes quiet it is re-enqueued (round-robin)
//! instead of pinning the thread, so N threads hold M ≫ N clients.
//! Stalled partial requests are answered 408 after a deadline; idle
//! connections are closed after an idle timeout; a full connection
//! queue answers 503 at accept. There is no thread-per-connection
//! path anywhere.

use crate::parser::{HttpError, Limits, Request, RequestParser};
use crate::response::Response;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The request handler every worker thread shares.
pub type SharedHandler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// Server tunables.
#[derive(Clone, Debug)]
pub struct HttpConfig {
    /// Bind address (use port 0 for an ephemeral port in tests).
    pub addr: String,
    /// Worker threads in the acceptor pool.
    pub threads: usize,
    /// Bounded connection-queue capacity; an accept beyond it answers
    /// 503 and closes (admission control, like the job queue).
    pub max_queued_conns: usize,
    /// Parser limits (oversized input answers 413).
    pub limits: Limits,
    /// How long one worker waits on a quiet connection before
    /// re-enqueueing it.
    pub poll_interval: Duration,
    /// Deadline for a connection holding a partial request; beyond it
    /// the server answers 408 and closes (slowloris defense).
    pub request_timeout: Duration,
    /// Idle keep-alive connections are closed after this long.
    pub idle_timeout: Duration,
    /// Requests served per connection before the server forces a
    /// close (bounds per-connection state lifetime).
    pub max_requests_per_conn: usize,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            addr: "127.0.0.1:0".into(),
            threads: 4,
            max_queued_conns: 128,
            limits: Limits::default(),
            poll_interval: Duration::from_millis(20),
            request_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
            max_requests_per_conn: 1024,
        }
    }
}

/// One live connection's state between worker slices.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    served: usize,
    last_activity: Instant,
    partial_since: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, limits: Limits) -> Self {
        Conn {
            stream,
            parser: RequestParser::new(limits),
            served: 0,
            last_activity: Instant::now(),
            partial_since: None,
        }
    }
}

/// What a worker decided about a connection after one slice.
enum Disposition {
    /// Keep-alive and quiet: back into the queue.
    Keep,
    /// Done (client closed, error, or `Connection: close`).
    Close,
}

struct Shared {
    cfg: HttpConfig,
    handler: SharedHandler,
    queue: Mutex<ConnQueue>,
    cond: Condvar,
    stopping: AtomicBool,
}

struct ConnQueue {
    conns: VecDeque<Conn>,
    closed: bool,
}

impl Shared {
    /// Admission-controlled push for fresh accepts.
    fn push(&self, conn: Conn) -> Result<(), Conn> {
        let mut q = self.queue.lock().expect("conn queue lock");
        if q.closed || q.conns.len() >= self.cfg.max_queued_conns {
            return Err(conn);
        }
        q.conns.push_back(conn);
        drop(q);
        self.cond.notify_one();
        Ok(())
    }

    /// Re-enqueue for a connection a worker already holds; never
    /// rejected (the cap gates fresh accepts, not live clients).
    fn requeue(&self, conn: Conn) {
        let mut q = self.queue.lock().expect("conn queue lock");
        if q.closed {
            return; // drop: server is stopping
        }
        q.conns.push_back(conn);
        drop(q);
        self.cond.notify_one();
    }

    /// Blocks for the next connection; `None` once the queue closes.
    fn pop(&self) -> Option<Conn> {
        let mut q = self.queue.lock().expect("conn queue lock");
        loop {
            if q.closed {
                return None;
            }
            if let Some(conn) = q.conns.pop_front() {
                return Some(conn);
            }
            q = self.cond.wait(q).expect("conn queue lock");
        }
    }

    fn close(&self) {
        let mut q = self.queue.lock().expect("conn queue lock");
        q.closed = true;
        q.conns.clear();
        drop(q);
        self.cond.notify_all();
    }
}

/// The server; [`HttpServer::start`] returns a handle.
pub struct HttpServer;

/// A running HTTP server. Call [`HttpHandle::stop`] to shut it down;
/// dropping the handle does not stop it.
pub struct HttpHandle {
    local: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds and starts the acceptor thread plus the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub fn start(cfg: HttpConfig, handler: SharedHandler) -> std::io::Result<HttpHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local = listener.local_addr()?;
        let threads = cfg.threads.max(1);
        let shared = Arc::new(Shared {
            cfg,
            handler,
            queue: Mutex::new(ConnQueue {
                conns: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
            stopping: AtomicBool::new(false),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("http-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn http worker")
            })
            .collect();
        let astate = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("http-acceptor".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if astate.stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    // Responses are written whole, so there is nothing
                    // for Nagle to coalesce; it could only delay them.
                    let Ok(stream) = conn.and_then(|s| s.set_nodelay(true).map(|()| s)) else {
                        continue;
                    };
                    // Chaos accept seam: a drop_conn fault closes the
                    // just-accepted connection without serving it.
                    if sharing_chaos::hooks().on_http_accept() == sharing_chaos::IoFault::Drop {
                        continue;
                    }
                    let conn = Conn::new(stream, astate.cfg.limits);
                    if let Err(mut rejected) = astate.push(conn) {
                        // Admission control at the edge, mirroring the
                        // job queue's backpressure reply.
                        let resp = Response::json(503, "{\"error\":\"connection queue full\"}");
                        let _ = rejected.stream.write_all(&resp.to_bytes(false));
                    }
                }
            })
            .expect("spawn http acceptor");
        Ok(HttpHandle {
            local,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }
}

impl HttpHandle {
    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Stops accepting, closes the connection queue, and joins every
    /// thread. In-flight requests finish their current response first.
    pub fn stop(mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.close();
        // Kick the acceptor out of accept() with a throwaway connection.
        let _ = TcpStream::connect(self.local);
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(mut conn) = shared.pop() {
        match serve_slice(shared, &mut conn) {
            Disposition::Close => {}
            Disposition::Keep => {
                let stopping = shared.stopping.load(Ordering::SeqCst);
                let idle = conn.last_activity.elapsed() >= shared.cfg.idle_timeout;
                if !stopping && !idle {
                    shared.requeue(conn);
                }
            }
        }
    }
}

/// Serves one time slice of a connection: every buffered request, then
/// at most one poll-interval read. Quiet connections return
/// [`Disposition::Keep`] so the worker moves on.
fn serve_slice(shared: &Arc<Shared>, conn: &mut Conn) -> Disposition {
    let _ = conn.stream.set_read_timeout(Some(shared.cfg.poll_interval));
    loop {
        // Drain complete (possibly pipelined) requests first.
        loop {
            match conn.parser.next_request() {
                Ok(Some(req)) => {
                    conn.partial_since = None;
                    conn.last_activity = Instant::now();
                    conn.served += 1;
                    let resp = (shared.handler)(&req);
                    let keep = req.keep_alive()
                        && conn.served < shared.cfg.max_requests_per_conn
                        && !shared.stopping.load(Ordering::SeqCst);
                    if conn.stream.write_all(&resp.to_bytes(keep)).is_err() || !keep {
                        return Disposition::Close;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let _ = conn.stream.write_all(&error_response(&e).to_bytes(false));
                    return Disposition::Close;
                }
            }
        }
        if conn.parser.has_partial() {
            match conn.partial_since {
                Some(t0) if t0.elapsed() >= shared.cfg.request_timeout => {
                    let resp = Response::json(408, "{\"error\":\"request timeout\"}");
                    let _ = conn.stream.write_all(&resp.to_bytes(false));
                    return Disposition::Close;
                }
                Some(_) => {}
                None => conn.partial_since = Some(Instant::now()),
            }
        }
        // Chaos read seam: slow_read stalls before the read, drop_conn
        // abandons the connection mid-request.
        match sharing_chaos::hooks().on_http_read() {
            sharing_chaos::IoFault::Pass => {}
            sharing_chaos::IoFault::Drop => return Disposition::Close,
            sharing_chaos::IoFault::Delay(d) => std::thread::sleep(d),
        }
        let mut buf = [0u8; 8192];
        match conn.stream.read(&mut buf) {
            Ok(0) => return Disposition::Close,
            Ok(n) => {
                conn.parser.feed(&buf[..n]);
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Disposition::Keep;
            }
            Err(_) => return Disposition::Close,
        }
    }
}

/// The error reply for a parse failure: its mapped status plus a JSON
/// detail body.
fn error_response(err: &HttpError) -> Response {
    let detail = err.message().replace('\\', "\\\\").replace('"', "\\\"");
    Response::json(err.status(), format!("{{\"error\":\"{detail}\"}}"))
}
