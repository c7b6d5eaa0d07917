//! The HTTP front door: routes `sharing-http` requests onto daemon state.
//!
//! Every route reuses the exact machinery behind the TCP protocol —
//! the same bounded [`crate::queue::JobQueue`] admission, the same
//! worker pool, the same reply lines — so a job submitted over HTTP
//! produces byte-identical results to the same job over TCP. The
//! mapping:
//!
//! | Route                | Answers                                       |
//! |----------------------|-----------------------------------------------|
//! | `GET /health`        | 200 normally, 503 while draining              |
//! | `GET /metrics`       | Prometheus text exposition                    |
//! | `GET /status`        | JSON metrics snapshot plus lifecycle state    |
//! | `POST /jobs`         | submit a protocol envelope, 202 + job id      |
//! | `GET /jobs/<id>`     | JSON poll: pending / done with reply lines    |
//! | `GET /jobs/<id>/raw` | the raw newline-delimited reply lines         |
//!
//! Unknown paths and wrong methods (404/405) and malformed or oversized
//! requests (400/413) are handled by `sharing-http` itself.

use crate::protocol::{ErrorCode, Request as ProtoRequest, ServerError};
use crate::server::{admit, metrics_text, parse_request, State};
use sharing_http::{HttpConfig, HttpHandle, HttpServer, Request, Response, Router};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Binds the HTTP front door on `addr` and returns its handle.
pub(crate) fn start(addr: &str, state: &Arc<State>) -> std::io::Result<HttpHandle> {
    let health_state = Arc::clone(state);
    let metrics_state = Arc::clone(state);
    let status_state = Arc::clone(state);
    let submit_state = Arc::clone(state);
    let poll_state = Arc::clone(state);
    let router = Router::new()
        .get("/health", move |_req| health(&health_state))
        .get("/metrics", move |_req| {
            Response::new(200)
                .with_header("Content-Type", "text/plain; version=0.0.4")
                .with_body(metrics_text(&metrics_state).into_bytes())
        })
        .get("/status", move |_req| status(&status_state))
        .post("/jobs", move |req| submit_job(&submit_state, req))
        .get("/jobs/*", move |req| poll_job(&poll_state, req));

    HttpServer::start(
        HttpConfig {
            addr: addr.to_string(),
            ..HttpConfig::default()
        },
        router.into_handler(),
    )
}

/// Liveness: 200 while accepting work, 503 once draining has begun, so
/// load balancers stop routing to a daemon that is on its way out.
fn health(state: &State) -> Response {
    if state.draining.load(Ordering::SeqCst) {
        Response::json(503, "{\"ok\":false,\"status\":\"draining\"}")
    } else {
        Response::json(200, "{\"ok\":true,\"status\":\"ok\"}")
    }
}

/// The `stats` snapshot plus lifecycle state, as one JSON object.
fn status(state: &State) -> Response {
    let snap = state
        .metrics
        .snapshot(state.queue.depth(), state.cache.len());
    let draining = state.draining.load(Ordering::SeqCst);
    let pending = state.jobs.pending();
    Response::json(
        200,
        format!(
            "{{\"ok\":true,\"draining\":{draining},\
             \"http_jobs_pending\":{pending},\"stats\":{snap}}}"
        ),
    )
}

/// `POST /jobs`: the body is one protocol envelope, exactly the line a
/// TCP client would send. Control requests (`ping`, `stats`, ...) have
/// dedicated routes and are rejected here; only jobs enter the queue.
fn submit_job(state: &Arc<State>, req: &Request) -> Response {
    let Some(body) = req.body_str() else {
        let err = ServerError::bad_request("request body is not UTF-8");
        return Response::json(400, err.to_line(None));
    };
    let env = match parse_request(state, body.trim()) {
        Ok(env) => env,
        Err(refusal) => return Response::json(400, refusal),
    };
    let job = match env.req {
        ProtoRequest::Job(job) => job,
        other => {
            let err = ServerError::bad_request(format!(
                "only job requests may be posted to /jobs (got {:?}); \
                 use /health, /status, or /metrics for control requests",
                control_name(&other)
            ));
            return Response::json(400, err.to_line(env.id));
        }
    };
    let kind = job.kind();
    let rx = match admit(state, env.id, job, env.trace) {
        Ok(rx) => rx,
        Err(refusal) => return Response::json(503, refusal),
    };
    let id = state.jobs.create(kind);
    let jstate = Arc::clone(state);
    // The collector stands in for the TCP connection thread: it drains
    // the reply channel into the jobs table and marks the entry done
    // when the worker drops the sender.
    let spawned = std::thread::Builder::new()
        .name("ssimd-http-job".into())
        .spawn(move || {
            for line in rx {
                jstate.jobs.append(id, line);
            }
            jstate.jobs.finish(id);
        });
    if spawned.is_err() {
        let err = ServerError::new(ErrorCode::ShuttingDown, "cannot spawn job collector");
        return Response::json(503, err.to_line(env.id));
    }
    Response::json(
        202,
        format!(
            "{{\"ok\":true,\"id\":{id},\"kind\":\"{kind}\",\
             \"status\":\"pending\",\"poll\":\"/jobs/{id}\"}}"
        ),
    )
}

fn control_name(req: &ProtoRequest) -> &'static str {
    match req {
        ProtoRequest::Hello { .. } => "hello",
        ProtoRequest::Ping => "ping",
        ProtoRequest::Stats => "stats",
        ProtoRequest::Metrics => "metrics",
        ProtoRequest::Shutdown => "shutdown",
        ProtoRequest::Job(_) => "job",
    }
}

/// `GET /jobs/<id>` (JSON poll) and `GET /jobs/<id>/raw` (the exact
/// reply bytes the TCP path would have streamed).
fn poll_job(state: &State, req: &Request) -> Response {
    let rest = req.path.strip_prefix("/jobs/").unwrap_or("");
    let (id_part, raw) = match rest.strip_suffix("/raw") {
        Some(stripped) => (stripped, true),
        None => (rest, false),
    };
    let Ok(id) = id_part.parse::<u64>() else {
        return Response::json(404, "{\"ok\":false,\"error\":\"no such job\"}");
    };
    let Some(entry) = state.jobs.get(id) else {
        return Response::json(404, "{\"ok\":false,\"error\":\"no such job\"}");
    };
    if raw {
        if !entry.done {
            return Response::json(
                202,
                format!("{{\"ok\":true,\"id\":{id},\"status\":\"pending\"}}"),
            );
        }
        let mut body = entry.lines.join("\n");
        body.push('\n');
        return Response::new(200)
            .with_body(body.into_bytes())
            .with_header("Content-Type", "application/x-ndjson");
    }
    let status = if entry.done { "done" } else { "pending" };
    // Reply lines are themselves JSON objects, so they splice verbatim
    // into the `lines` array.
    let lines = entry.lines.join(",");
    Response::json(
        200,
        format!(
            "{{\"ok\":true,\"id\":{id},\"kind\":\"{}\",\
             \"status\":\"{status}\",\"lines\":[{lines}]}}",
            entry.kind
        ),
    )
}
