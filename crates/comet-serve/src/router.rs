//! comet-router: the thin front door of a sharded serving fleet.
//!
//! A router process owns no models and runs no searches — it parses
//! just enough of each request to compute the block's routing key
//! ([`crate::route::block_key`]), picks the owning shard on the same
//! consistent-hash ring the shards themselves enforce, and proxies the
//! request over a pooled keep-alive connection. Fleet-wide views are
//! synthesized by fan-out:
//!
//! * `GET /metrics` fetches every shard's Prometheus text and sums
//!   samples with identical name+labels, prepending a
//!   `comet_shard_up{shard="i"}` gauge per upstream and the router's
//!   own counters.
//! * `GET /readyz` is ready only when every shard is; the body embeds
//!   each shard's own readiness verbatim so a degraded slice is
//!   attributable.
//! * `POST /admin/model` broadcasts the swap request to every shard
//!   (each shard stages/validates independently against its own
//!   registry); `GET /admin/model` and `GET /analytics/*` go to the
//!   first healthy shard.
//!
//! Failure containment is per-slice: a dead shard costs its key range
//! (those requests get an attributable 503 naming the shard) while the
//! rest of the fleet keeps serving. A failed upstream is marked down
//! for a cooldown so the router does not melt reconnecting to a corpse
//! on every request.
//!
//! The router reuses the epoll front end ([`crate::event`]) for its
//! client side; upstream calls are plain blocking I/O on the worker
//! threads, bounded by `upstream_timeout`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::event::{FrontEnd, FrontEndConfig, Service, WorkerHandler};
use crate::http::{write_response, HttpError, Request};
use crate::route::Ring;
use crate::wire::ErrorResponse;
use comet_core::cancel::CancelToken;

/// Router tunables.
#[derive(Clone)]
pub struct RouterConfig {
    /// Bind address (`host:port`, port 0 for ephemeral).
    pub addr: String,
    /// Upstream shard addresses; position is the shard index, length
    /// is the fleet size the ring is built for.
    pub shards: Vec<String>,
    /// Reactor threads for the client side.
    pub event_threads: usize,
    /// Worker threads doing upstream I/O.
    pub workers: usize,
    /// Bounded queue depth between reactors and workers.
    pub queue_depth: usize,
    /// Client-side idle / slow-loris budget, ms (0 disables).
    pub idle_timeout_ms: u64,
    /// Per-upstream-call connect/read/write budget, ms.
    pub upstream_timeout_ms: u64,
    /// How long a failed upstream stays marked down before the router
    /// retries it, ms.
    pub down_cooldown_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: Vec::new(),
            event_threads: 1,
            workers: 4,
            queue_depth: 256,
            idle_timeout_ms: 10_000,
            upstream_timeout_ms: 5_000,
            down_cooldown_ms: 1_000,
        }
    }
}

/// Cap on pooled keep-alive connections per upstream. Anything past
/// the worker count is dead weight.
const POOL_CAP: usize = 8;

/// One upstream shard: its address, a small keep-alive connection
/// pool, and a down-until mark set on connect failure.
struct Upstream {
    addr: String,
    pool: Mutex<Vec<TcpStream>>,
    /// `0` = up; otherwise µs since `ctx.epoch` until which the shard
    /// is considered down (stored as a scalar so readers never lock).
    down_until_us: AtomicU64,
}

/// A parsed upstream response, ready to re-frame for the client.
struct UpstreamResponse {
    status: u16,
    content_type: String,
    body: Vec<u8>,
    /// The upstream asked us not to reuse the connection.
    close: bool,
}

/// Why an upstream call produced no response.
enum UpstreamError {
    /// In cooldown from an earlier failure; not retried.
    Down,
    /// Connect/read/write failed now (marks the shard down).
    Io,
}

struct RouterCtx {
    ring: Ring,
    upstreams: Vec<Upstream>,
    cancel: CancelToken,
    epoch: Instant,
    upstream_timeout: Duration,
    down_cooldown: Duration,
    /// Requests the router proxied (any endpoint, any outcome).
    requests: AtomicU64,
    /// Upstream calls that failed (connect or mid-call I/O).
    upstream_errors: AtomicU64,
    /// Open client connections (gauge from the front end).
    connections: AtomicU64,
}

impl RouterCtx {
    fn shard_up(&self, index: usize) -> bool {
        let until = self.upstreams[index].down_until_us.load(Relaxed);
        until == 0 || self.epoch.elapsed().as_micros() as u64 >= until
    }

    fn mark_down(&self, index: usize) {
        self.upstream_errors.fetch_add(1, Relaxed);
        let until = (self.epoch.elapsed() + self.down_cooldown).as_micros() as u64;
        self.upstreams[index].down_until_us.store(until.max(1), Relaxed);
        // A dead shard's pooled sockets are dead too.
        self.upstreams[index].pool.lock().unwrap_or_else(|p| p.into_inner()).clear();
    }

    fn mark_up(&self, index: usize) {
        self.upstreams[index].down_until_us.store(0, Relaxed);
    }

    /// One proxied call to shard `index`. Tries a pooled connection
    /// first (retrying once on a fresh socket if the pooled one turns
    /// out stale), then a fresh connect; a fresh-connect or
    /// fresh-socket I/O failure marks the shard down.
    fn call(
        &self,
        index: usize,
        method: &str,
        path: &str,
        body: &[u8],
        deadline_ms: Option<u64>,
    ) -> Result<UpstreamResponse, UpstreamError> {
        if !self.shard_up(index) {
            return Err(UpstreamError::Down);
        }
        let pooled = self.upstreams[index].pool.lock().unwrap_or_else(|p| p.into_inner()).pop();
        if let Some(stream) = pooled {
            // A pooled socket may have been closed by the shard's idle
            // reaper between requests — a failure here says nothing
            // about shard health, so retry on a fresh connection.
            if let Ok(response) = self.call_on(stream, index, method, path, body, deadline_ms) {
                return Ok(response);
            }
        }
        let stream = TcpStream::connect_timeout(
            &resolve(&self.upstreams[index].addr).ok_or(UpstreamError::Io).inspect_err(|_| {
                self.mark_down(index);
            })?,
            self.upstream_timeout,
        )
        .map_err(|_| {
            self.mark_down(index);
            UpstreamError::Io
        })?;
        self.call_on(stream, index, method, path, body, deadline_ms).map_err(|_| {
            self.mark_down(index);
            UpstreamError::Io
        })
    }

    fn call_on(
        &self,
        mut stream: TcpStream,
        index: usize,
        method: &str,
        path: &str,
        body: &[u8],
        deadline_ms: Option<u64>,
    ) -> io::Result<UpstreamResponse> {
        stream.set_read_timeout(Some(self.upstream_timeout))?;
        stream.set_write_timeout(Some(self.upstream_timeout))?;
        stream.set_nodelay(true)?;
        let deadline_header = match deadline_ms {
            Some(ms) => format!("X-Comet-Deadline-Ms: {ms}\r\n"),
            None => String::new(),
        };
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: comet-router\r\nContent-Length: {}\r\n\
             {deadline_header}Connection: keep-alive\r\n\r\n",
            body.len()
        )?;
        stream.write_all(body)?;
        stream.flush()?;
        let response = read_upstream_response(&mut stream)?;
        self.mark_up(index);
        if !response.close {
            let mut pool = self.upstreams[index].pool.lock().unwrap_or_else(|p| p.into_inner());
            if pool.len() < POOL_CAP {
                pool.push(stream);
            }
        }
        Ok(response)
    }

    /// The first shard that answers — for endpoints where every shard
    /// gives the same view (`GET /admin/model`, `/analytics/*`).
    fn call_any(&self, method: &str, path: &str, body: &[u8]) -> Option<(usize, UpstreamResponse)> {
        for index in 0..self.upstreams.len() {
            if let Ok(response) = self.call(index, method, path, body, None) {
                return Some((index, response));
            }
        }
        None
    }
}

/// Resolve `host:port` to one address (first result wins).
fn resolve(addr: &str) -> Option<SocketAddr> {
    use std::net::ToSocketAddrs;
    addr.to_socket_addrs().ok()?.next()
}

/// Parse one HTTP/1.1 response off an upstream socket: status line,
/// the three headers the fleet emits (`Content-Type`,
/// `Content-Length`, `Connection`), then exactly `Content-Length`
/// body bytes.
fn read_upstream_response(stream: &mut TcpStream) -> io::Result<UpstreamResponse> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 =
        line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "bad upstream status line")
        })?;
    let mut content_type = String::from("application/json");
    let mut content_length = 0usize;
    let mut close = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "upstream EOF in headers"));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else { continue };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-type" => content_type = value.to_string(),
            "content-length" => {
                content_length = value.parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad upstream content-length")
                })?
            }
            "connection" => close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    // 64 MiB guard: an upstream speaking our own wire format never
    // approaches this; anything bigger is a framing bug.
    if content_length > 64 << 20 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "upstream body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(UpstreamResponse { status, content_type, body, close })
}

// ---------------------------------------------------------------------------
// Service implementation over the epoll front end.
// ---------------------------------------------------------------------------

struct RouterService {
    ctx: Arc<RouterCtx>,
}

fn respond_error(out: &mut Vec<u8>, status: u16, error: &str, close: bool) {
    let body = serde_json::to_vec(&ErrorResponse::new(error)).expect("error serializes");
    write_response(out, status, "application/json", &body, close).expect("vec write");
}

impl Service for RouterService {
    fn make_worker(&self) -> Box<dyn WorkerHandler> {
        Box::new(RouterWorker { ctx: Arc::clone(&self.ctx) })
    }

    fn admit(&self, _queued: usize) -> Result<(), Vec<u8>> {
        // The bounded queue is the router's only backstop; real
        // admission control lives on the shards, which see the actual
        // compute cost.
        Ok(())
    }

    fn shed_overflow(&self) -> Vec<u8> {
        let mut out = Vec::new();
        respond_error(&mut out, 503, "router overloaded", true);
        out
    }

    fn enqueued(&self, _depth: usize) {}

    fn dequeued(&self, _sojourn_us: u64, _depth: usize) {}

    fn finished(&self, _panicked: bool) {}

    fn http_error(&self, err: &HttpError) -> Option<Vec<u8>> {
        let (status, reason) = match err {
            HttpError::Closed | HttpError::Io(_) => return None,
            HttpError::Malformed(reason) => (400, *reason),
            HttpError::Timeout => (408, "request read timed out"),
            HttpError::TooLarge { status, reason } => (*status, *reason),
        };
        let mut out = Vec::new();
        respond_error(&mut out, status, reason, true);
        Some(out)
    }

    fn chaos_panics(&self, _conn_index: u64) -> bool {
        false
    }

    fn on_chaos_panic(&self) {}

    fn cancel(&self) -> &CancelToken {
        &self.ctx.cancel
    }

    fn set_connections(&self, open: u64) {
        self.ctx.connections.store(open, Relaxed);
    }
}

struct RouterWorker {
    ctx: Arc<RouterCtx>,
}

impl WorkerHandler for RouterWorker {
    fn handle(&mut self, request: &Request, close: bool) -> Vec<u8> {
        self.ctx.requests.fetch_add(1, Relaxed);
        let mut out = Vec::new();
        dispatch(&self.ctx, &mut out, request, close);
        out
    }
}

fn dispatch(ctx: &RouterCtx, out: &mut Vec<u8>, request: &Request, close: bool) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/predict" | "/v1/explain") => route_block(ctx, out, request, close),
        ("GET", "/healthz") => {
            let body = serde_json::json!({
                "v": 1, "ok": true, "router": true, "shards": ctx.upstreams.len(),
            });
            respond_json(out, 200, &body, close);
        }
        ("GET", "/readyz") => aggregate_readyz(ctx, out, request, close),
        ("GET", "/metrics") => aggregate_metrics(ctx, out, close),
        ("POST", "/admin/model") => broadcast_admin(ctx, out, request, close),
        ("GET", "/admin/model") | ("GET", "/analytics/categories" | "/analytics/opcodes") => {
            forward_any(ctx, out, request, close)
        }
        (
            _,
            "/v1/predict"
            | "/v1/explain"
            | "/admin/model"
            | "/healthz"
            | "/readyz"
            | "/metrics"
            | "/analytics/categories"
            | "/analytics/opcodes",
        ) => {
            respond_error(out, 400, "method not allowed", close);
        }
        _ => respond_error(out, 404, "no such endpoint", close),
    }
}

fn respond_json(out: &mut Vec<u8>, status: u16, body: &serde_json::Value, close: bool) {
    let bytes = serde_json::to_vec(body).expect("body serializes");
    write_response(out, status, "application/json", &bytes, close).expect("vec write");
}

/// Proxy a predict/explain to the shard owning its block key. Bodies
/// that do not parse as JSON-with-a-`"block"`-string still route
/// deterministically (to the owner of the empty key) so their 400
/// always comes from the same shard.
fn route_block(ctx: &RouterCtx, out: &mut Vec<u8>, request: &Request, close: bool) {
    let block = std::str::from_utf8(&request.body)
        .ok()
        .and_then(|text| serde_json::from_str::<serde_json::Value>(text).ok())
        .and_then(|v| v.get("block").and_then(|b| b.as_str()).map(str::to_string))
        .unwrap_or_default();
    let shard = ctx.ring.owner_of_block(&block) as usize;
    match ctx.call(shard, &request.method, &request.path, &request.body, request.deadline_ms) {
        Ok(response) => forward(out, &response, close),
        Err(_) => {
            respond_error(out, 503, &format!("shard {shard} unavailable"), close);
        }
    }
}

/// Re-frame an upstream response for the client. The body is copied
/// bitwise; only the framing headers (length, connection) are ours.
fn forward(out: &mut Vec<u8>, response: &UpstreamResponse, close: bool) {
    write_response(out, response.status, &response.content_type, &response.body, close)
        .expect("vec write");
}

fn forward_any(ctx: &RouterCtx, out: &mut Vec<u8>, request: &Request, close: bool) {
    match ctx.call_any(&request.method, &request.path, &request.body) {
        Some((_, response)) => forward(out, &response, close),
        None => respond_error(out, 503, "no shard available", close),
    }
}

/// Fleet readiness: ready only when every shard answers 200. The body
/// carries each shard's own `/readyz` JSON verbatim under `detail`, so
/// `jq` can say exactly which slice is degraded and why.
fn aggregate_readyz(ctx: &RouterCtx, out: &mut Vec<u8>, request: &Request, close: bool) {
    let mut all_ready = true;
    let mut shards = Vec::new();
    for index in 0..ctx.upstreams.len() {
        match ctx.call(index, "GET", "/readyz", b"", request.deadline_ms) {
            Ok(response) => {
                let ready = response.status == 200;
                all_ready &= ready;
                let detail: serde_json::Value = std::str::from_utf8(&response.body)
                    .ok()
                    .and_then(|text| serde_json::from_str(text).ok())
                    .unwrap_or(serde_json::Value::Null);
                shards.push(serde_json::json!({
                    "index": index, "up": true, "ready": ready, "detail": detail,
                }));
            }
            Err(_) => {
                all_ready = false;
                shards.push(serde_json::json!({
                    "index": index, "up": false, "ready": false,
                    "detail": serde_json::Value::Null,
                }));
            }
        }
    }
    let body = serde_json::json!({ "v": 1, "ready": all_ready, "router": true, "shards": shards });
    respond_json(out, if all_ready { 200 } else { 503 }, &body, close);
}

/// Fleet metrics: per-shard up gauges, the router's own counters, then
/// every shard sample summed by identical `name{labels}` key in
/// first-seen order. Counters and histogram buckets sum correctly by
/// construction; gauges sum into fleet totals (queue depth,
/// connections), which is the useful fleet view.
fn aggregate_metrics(ctx: &RouterCtx, out: &mut Vec<u8>, close: bool) {
    let mut order: Vec<String> = Vec::new();
    let mut sums: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    let mut up = Vec::new();
    for index in 0..ctx.upstreams.len() {
        match ctx.call(index, "GET", "/metrics", b"", None) {
            Ok(response) => {
                up.push(true);
                for line in String::from_utf8_lossy(&response.body).lines() {
                    let line = line.trim();
                    if line.is_empty() || line.starts_with('#') {
                        continue;
                    }
                    let Some((key, value)) = line.rsplit_once(' ') else { continue };
                    let Ok(value) = value.parse::<f64>() else { continue };
                    // Per-shard identity gauges must not sum into a
                    // meaningless fleet total.
                    if key.starts_with("comet_shard{") {
                        continue;
                    }
                    sums.entry(key.to_string()).and_modify(|total| *total += value).or_insert_with(
                        || {
                            order.push(key.to_string());
                            value
                        },
                    );
                }
            }
            Err(_) => up.push(false),
        }
    }
    let mut text = String::new();
    text.push_str(&format!("# comet-router aggregation over {} shard(s)\n", ctx.upstreams.len()));
    for (index, ok) in up.iter().enumerate() {
        text.push_str(&format!(
            "comet_shard_up{{shard=\"{index}\"}} {}\n",
            if *ok { 1 } else { 0 }
        ));
    }
    text.push_str(&format!("comet_router_requests_total {}\n", ctx.requests.load(Relaxed)));
    text.push_str(&format!(
        "comet_router_upstream_errors_total {}\n",
        ctx.upstream_errors.load(Relaxed)
    ));
    text.push_str(&format!("comet_router_connections {}\n", ctx.connections.load(Relaxed)));
    for key in &order {
        text.push_str(&format!("{key} {}\n", sums[key]));
    }
    write_response(out, 200, "text/plain; version=0.0.4", text.as_bytes(), close)
        .expect("vec write");
}

/// Broadcast an admin model swap to every shard. 200 only when every
/// shard accepted; the body carries each shard's status and response
/// so partial rollouts are visible.
fn broadcast_admin(ctx: &RouterCtx, out: &mut Vec<u8>, request: &Request, close: bool) {
    let mut all_ok = true;
    let mut shards = Vec::new();
    for index in 0..ctx.upstreams.len() {
        match ctx.call(index, "POST", "/admin/model", &request.body, request.deadline_ms) {
            Ok(response) => {
                all_ok &= response.status == 200;
                let detail: serde_json::Value = std::str::from_utf8(&response.body)
                    .ok()
                    .and_then(|text| serde_json::from_str(text).ok())
                    .unwrap_or(serde_json::Value::Null);
                shards.push(serde_json::json!({
                    "index": index, "up": true, "status": response.status, "response": detail,
                }));
            }
            Err(_) => {
                all_ok = false;
                shards.push(serde_json::json!({
                    "index": index, "up": false, "status": 503,
                    "response": serde_json::Value::Null,
                }));
            }
        }
    }
    let body = serde_json::json!({ "v": 1, "ok": all_ok, "shards": shards });
    respond_json(out, if all_ok { 200 } else { 502 }, &body, close);
}

// ---------------------------------------------------------------------------
// The running router.
// ---------------------------------------------------------------------------

/// A running comet-router: epoll front end on the client side, pooled
/// blocking proxies to the fleet on the worker side.
pub struct Router {
    ctx: Arc<RouterCtx>,
    addr: SocketAddr,
    front: Option<FrontEnd>,
}

impl Router {
    /// Bind and start routing to `config.shards`.
    pub fn start(config: RouterConfig) -> io::Result<Router> {
        if config.shards.is_empty() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "no shard addresses"));
        }
        let listener = crate::sys::bind_listener(&config.addr)?;
        let addr = listener.local_addr()?;
        let ctx = Arc::new(RouterCtx {
            ring: Ring::new(config.shards.len() as u32),
            upstreams: config
                .shards
                .iter()
                .map(|addr| Upstream {
                    addr: addr.clone(),
                    pool: Mutex::new(Vec::new()),
                    down_until_us: AtomicU64::new(0),
                })
                .collect(),
            cancel: CancelToken::new(),
            epoch: Instant::now(),
            upstream_timeout: Duration::from_millis(config.upstream_timeout_ms.max(1)),
            down_cooldown: Duration::from_millis(config.down_cooldown_ms),
            requests: AtomicU64::new(0),
            upstream_errors: AtomicU64::new(0),
            connections: AtomicU64::new(0),
        });
        let service = Arc::new(RouterService { ctx: Arc::clone(&ctx) });
        let front = FrontEnd::start(
            listener,
            service,
            FrontEndConfig {
                event_threads: config.event_threads.max(1),
                workers: config.workers.max(1),
                queue_depth: config.queue_depth.max(1),
                idle_timeout: Duration::from_millis(config.idle_timeout_ms),
            },
        )?;
        Ok(Router { ctx, addr, front: Some(front) })
    }

    /// The bound client-side address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The drain token (cancel to begin a graceful drain).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.ctx.cancel
    }

    /// Which shard owns `text`'s block (the router's routing decision,
    /// exposed for tests and ops tooling).
    pub fn owner_of_block(&self, text: &str) -> u32 {
        self.ctx.ring.owner_of_block(text)
    }

    /// Block until drained (after `cancel_token().cancel()`).
    pub fn join(mut self) {
        if let Some(front) = self.front.take() {
            front.join();
        }
    }

    /// Cancel and join.
    pub fn shutdown(self) {
        self.ctx.cancel.cancel();
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn upstream_response_parser_round_trips() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            let mut sink = Vec::new();
            write_response(&mut sink, 200, "application/json", b"{\"v\":1}", false).unwrap();
            peer.write_all(&sink).unwrap();
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let response = read_upstream_response(&mut stream).unwrap();
        writer.join().unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.content_type, "application/json");
        assert_eq!(response.body, b"{\"v\":1}");
        assert!(!response.close);
    }

    #[test]
    fn start_requires_shards() {
        match Router::start(RouterConfig::default()) {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
            Ok(_) => panic!("a shardless router must refuse to start"),
        }
    }

    #[test]
    fn down_marking_has_a_cooldown() {
        let ctx = RouterCtx {
            ring: Ring::new(1),
            upstreams: vec![Upstream {
                addr: "127.0.0.1:1".into(),
                pool: Mutex::new(Vec::new()),
                down_until_us: AtomicU64::new(0),
            }],
            cancel: CancelToken::new(),
            epoch: Instant::now(),
            upstream_timeout: Duration::from_millis(100),
            down_cooldown: Duration::from_millis(50),
            requests: AtomicU64::new(0),
            upstream_errors: AtomicU64::new(0),
            connections: AtomicU64::new(0),
        };
        assert!(ctx.shard_up(0));
        ctx.mark_down(0);
        assert!(!ctx.shard_up(0), "a freshly failed shard is down");
        std::thread::sleep(Duration::from_millis(60));
        assert!(ctx.shard_up(0), "the cooldown expires");
        ctx.mark_down(0);
        ctx.mark_up(0);
        assert!(ctx.shard_up(0), "a successful call clears the mark");
    }
}
