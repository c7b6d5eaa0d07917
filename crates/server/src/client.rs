//! A blocking client for the ssimd protocol.
//!
//! One `Client` wraps one TCP connection. Requests are answered in order,
//! so the typed helpers below send a request and read exactly the reply
//! lines it produces. For pipelining, use [`Client::send`] /
//! [`Client::recv`] directly with distinct `id`s.
//!
//! Jobs go through one door: [`Client::submit`] (single reply) or
//! [`Client::submit_all`] (streamed replies, e.g. sweeps).

use crate::protocol::{self, Envelope, Job, Request, ServerError, MIN_PROTO, PROTO_VERSION};
use sharing_json::Json;
use std::io::{BufReader, Error, ErrorKind};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connected ssimd client.
///
/// Both constructors set `TCP_NODELAY` on the socket, and every request
/// goes out through [`protocol::write_line`] as one `write`. With Nagle
/// on, a request split over two writes, or a small request sent while a
/// previous segment is still unacknowledged, waits for the daemon's
/// delayed ACK (~40 ms on Linux); a coordinator would pay that on every
/// point it dispatches.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn bad_data(msg: impl Into<String>) -> Error {
    Error::new(ErrorKind::InvalidData, msg.into())
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Client::over(TcpStream::connect(addr)?)
    }

    /// Connects with a connect timeout (the first resolved address is
    /// used). Coordinators use this so a dead worker can't stall
    /// registration.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if `addr` resolves to nothing; otherwise propagates
    /// connection errors (including `TimedOut`).
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> std::io::Result<Client> {
        let sock = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| Error::new(ErrorKind::InvalidInput, "address resolved to nothing"))?;
        Client::over(TcpStream::connect_timeout(&sock, timeout)?)
    }

    /// Wraps a freshly dialled socket, turning Nagle's algorithm off
    /// first (see the type docs).
    fn over(stream: TcpStream) -> std::io::Result<Client> {
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Bounds every subsequent reply read; `None` blocks forever.
    /// A read that times out surfaces as `WouldBlock`/`TimedOut`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn send(&mut self, env: &Envelope) -> std::io::Result<()> {
        protocol::write_line(&mut self.writer, &env.to_line())
    }

    /// Reads one raw reply line (the exact bytes the server sent, minus
    /// the newline). The coordinator uses this to splice result payloads
    /// byte-identically instead of re-serializing parsed JSON.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` if the server closed the connection.
    pub fn recv_line(&mut self) -> std::io::Result<String> {
        protocol::read_line(&mut self.reader)?
            .ok_or_else(|| Error::new(ErrorKind::UnexpectedEof, "server closed connection"))
    }

    /// Reads one reply line as JSON.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` if the server closed the connection; `InvalidData`
    /// for non-JSON replies.
    pub fn recv(&mut self) -> std::io::Result<Json> {
        let line = self.recv_line()?;
        Json::parse(&line).map_err(|e| bad_data(e.to_string()))
    }

    /// Sends a request and reads its single reply.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::send`] / [`Client::recv`] errors.
    pub fn call(&mut self, env: &Envelope) -> std::io::Result<Json> {
        self.send(env)?;
        self.recv()
    }

    fn control(&mut self, req: Request) -> std::io::Result<Json> {
        self.call(&Envelope {
            id: None,
            proto: Some(PROTO_VERSION),
            trace: None,
            req,
        })
    }

    /// Negotiates the protocol version: sends `hello` announcing
    /// [`PROTO_VERSION`] and returns the version the server speaks.
    ///
    /// # Errors
    ///
    /// `InvalidData` carrying the server's [`ServerError`] text when the
    /// server rejects this client's version (`version_mismatch`), or when
    /// the advertised window `[min, proto]` doesn't overlap ours. The
    /// coordinator calls this at worker registration so mismatches fail
    /// fast instead of mid-sweep.
    pub fn hello(&mut self) -> std::io::Result<u64> {
        let v = self.control(Request::Hello {
            proto: PROTO_VERSION,
        })?;
        if let Some(err) = ServerError::from_reply(&v) {
            return Err(bad_data(err.to_string()));
        }
        let server_proto = v
            .get("proto")
            .and_then(Json::as_int)
            .ok_or_else(|| bad_data("hello reply missing `proto`"))?;
        let server_min = v.get("min_proto").and_then(Json::as_int).unwrap_or(1);
        let (proto, min) = (server_proto as u64, server_min as u64);
        if min > PROTO_VERSION || proto < MIN_PROTO {
            return Err(bad_data(format!(
                "server speaks protocol {min}..={proto}, this client speaks \
                 {MIN_PROTO}..={PROTO_VERSION}"
            )));
        }
        Ok(proto)
    }

    /// Liveness check; `true` when the server answers `pong`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn ping(&mut self) -> std::io::Result<bool> {
        let v = self.control(Request::Ping)?;
        Ok(v.get("type").and_then(Json::as_str) == Some("pong"))
    }

    /// Fetches the server's metrics snapshot (the `"stats"` object).
    ///
    /// # Errors
    ///
    /// `InvalidData` if the reply carries no stats object.
    pub fn stats(&mut self) -> std::io::Result<Json> {
        let v = self.control(Request::Stats)?;
        v.get("stats")
            .cloned()
            .ok_or_else(|| bad_data("stats reply missing `stats`"))
    }

    /// Fetches the server's metrics as Prometheus text exposition.
    ///
    /// # Errors
    ///
    /// `InvalidData` if the reply carries no metrics text.
    pub fn metrics(&mut self) -> std::io::Result<String> {
        let v = self.control(Request::Metrics)?;
        v.get("metrics")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| bad_data("metrics reply missing `metrics`"))
    }

    /// Requests graceful shutdown; returns the final reply.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn shutdown(&mut self) -> std::io::Result<Json> {
        self.control(Request::Shutdown)
    }

    /// Submits a job and returns its final reply line. For streaming jobs
    /// (sweeps) this is the terminal line only — use
    /// [`Client::submit_all`] to keep the streamed points.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; server-side failures come back as
    /// `{"ok":false,"code":...}` replies, not `Err` — use
    /// [`ServerError::from_reply`] to type them.
    pub fn submit(&mut self, job: Job) -> std::io::Result<Json> {
        let mut lines = self.submit_all(job)?;
        lines.pop().ok_or_else(|| bad_data("job produced no reply"))
    }

    /// Submits a job and collects every reply line it produces: one line
    /// for `run`/`market`/`dc`, 72 `sweep_point` lines plus the trailing
    /// `sweep_done` for `sweep` (or a single error line).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn submit_all(&mut self, job: Job) -> std::io::Result<Vec<Json>> {
        self.submit_all_traced(job, None)
    }

    /// [`Client::submit_all`] with an explicit distributed-trace id
    /// stamped on the envelope; the server correlates every span the job
    /// produces (queue wait, dispatch, remote execution) under this id.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn submit_all_traced(
        &mut self,
        job: Job,
        trace: Option<u64>,
    ) -> std::io::Result<Vec<Json>> {
        self.send(&Envelope {
            id: None,
            proto: Some(PROTO_VERSION),
            trace,
            req: Request::Job(job),
        })?;
        let mut lines = Vec::new();
        loop {
            let v = self.recv()?;
            // `sweep_point` lines stream ahead of `sweep_done`; traced
            // jobs additionally interleave `spans` lines ahead of the
            // final result. Both are kept and neither is terminal.
            let streamed = matches!(
                v.get("type").and_then(Json::as_str),
                Some("sweep_point" | "spans")
            );
            let done = v.get("ok").and_then(Json::as_bool) != Some(true) || !streamed;
            lines.push(v);
            if done {
                return Ok(lines);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn assert_nodelay(client: &Client) {
        assert!(client.writer.nodelay().unwrap(), "writer has Nagle on");
        assert!(
            client.reader.get_ref().nodelay().unwrap(),
            "reader has Nagle on"
        );
    }

    #[test]
    fn connect_sets_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        assert_nodelay(&client);
    }

    #[test]
    fn connect_timeout_sets_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client =
            Client::connect_timeout(listener.local_addr().unwrap(), Duration::from_secs(5))
                .unwrap();
        assert_nodelay(&client);
    }
}
