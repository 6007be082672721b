//! The load generator's HTTP side: an incremental response parser, a
//! closed-loop keep-alive connection, and an open-loop pipelined sender
//! driven by a seeded Poisson schedule.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sys;
use crate::trace::Tracer;

/// Serialize a keep-alive `POST` with a JSON body.
pub fn http_post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (`Content-Length` of them).
    pub body: Vec<u8>,
}

/// Incremental response parser: push bytes as they arrive, poll whole
/// responses out. Pipelined responses stay buffered until polled.
#[derive(Debug, Default)]
pub struct ResponseParser {
    buf: Vec<u8>,
}

impl ResponseParser {
    /// Buffer freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response, `Ok(None)` if more bytes are needed,
    /// or an error naming what is malformed.
    pub fn poll(&mut self) -> Result<Option<Response>, String> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| "non-utf8 head")?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status = status_line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        let length = lines
            .filter_map(|line| line.split_once(':'))
            .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
            .map(|(_, value)| value.trim().parse::<usize>())
            .ok_or("no content-length")?
            .map_err(|_| "bad content-length")?;
        let body_start = head_end + 4;
        if self.buf.len() < body_start + length {
            return Ok(None);
        }
        let body = self.buf[body_start..body_start + length].to_vec();
        self.buf.drain(..body_start + length);
        Ok(Some(Response { status, body }))
    }
}

/// A blocking keep-alive connection for closed-loop clients.
pub struct Conn {
    stream: TcpStream,
    parser: ResponseParser,
}

impl Conn {
    /// Connect with Nagle off (requests are single small writes).
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn { stream, parser: ResponseParser::default() })
    }

    /// Send one request and wait for its response.
    pub fn call(&mut self, request: &[u8]) -> io::Result<Response> {
        self.stream.write_all(request)?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.parser.poll() {
                Ok(Some(response)) => return Ok(response),
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.parser.push(&chunk[..n]);
        }
    }
}

/// Seeded Poisson arrivals: exponential gaps with mean `1 / rate`.
pub struct Poisson {
    rng: StdRng,
    mean_gap_s: f64,
    at_s: f64,
}

impl Poisson {
    /// A schedule of `rate` arrivals per second, fixed by `seed`.
    pub fn new(rate: f64, seed: u64) -> Poisson {
        Poisson { rng: StdRng::seed_from_u64(seed), mean_gap_s: 1.0 / rate, at_s: 0.0 }
    }

    /// Offset of the next arrival from the schedule's start.
    pub fn next_offset(&mut self) -> Duration {
        let u: f64 = self.rng.gen();
        self.at_s += -(1.0 - u).ln() * self.mean_gap_s;
        Duration::from_secs_f64(self.at_s)
    }
}

/// What the connections of one phase saw.
#[derive(Debug, Default)]
pub struct PhaseLog {
    /// Latency of each 200 response, timed from its due time, ms. Its
    /// length is fixed by the schedule, not by how fast the server is,
    /// so it does not move peak RSS.
    pub latency_ms: Vec<f64>,
    /// Template index of each entry in `latency_ms`.
    pub kinds: Vec<usize>,
    /// Due time of each entry in `latency_ms`, seconds into the phase.
    pub due_s: Vec<f64>,
    /// How late each request was sent after its due time, ms.
    pub late_ms: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests sent, per template.
    pub sent_kinds: Vec<u64>,
    /// Non-200 responses and requests lost to transport errors.
    pub errors: u64,
    /// What the first error was, for the run's notes.
    pub first_error: Option<String>,
    /// `(template, body)` of every `sample_every`-th response, at most
    /// `SAMPLE_CAP`, for checking after the phase.
    pub samples: Vec<(usize, Vec<u8>)>,
}

/// The traffic offered in one phase.
pub struct LoadSpec<'a> {
    /// Poisson arrivals per second, split evenly across the
    /// connections.
    pub rate: f64,
    /// Keep-alive connections, all driven from the calling thread.
    pub conns: usize,
    /// Phase length.
    pub duration: Duration,
    /// Seeds the schedules and the request mix.
    pub seed: u64,
    /// Serialized requests to choose from.
    pub templates: &'a [Vec<u8>],
    /// Draws the next template index.
    pub pick: &'a (dyn Fn(&mut StdRng) -> usize + Sync),
    /// Keep every n-th response body for checking.
    pub sample_every: u64,
    /// Span names per template, when tracing (one request in
    /// `sample_every` is traced).
    pub span_names: &'a [&'static str],
}

/// How long a phase waits for its last responses before counting them
/// as lost.
const DRAIN: Duration = Duration::from_secs(5);
/// Most response bodies a phase keeps for checking.
const SAMPLE_CAP: usize = 512;

/// One pipelined connection of a phase.
struct Lane {
    stream: TcpStream,
    schedule: Poisson,
    next_due: Instant,
    /// (due, template, request id) of every request written but not
    /// yet answered, in order.
    inflight: VecDeque<(Instant, usize, u64)>,
    out: Vec<u8>,
    parser: ResponseParser,
    /// Why the connection became unusable, once it has.
    broken: Option<String>,
}

impl Lane {
    fn open(addr: SocketAddr) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(stream)
    }

    /// Whether the lane still has work: requests to send or answers to
    /// wait for.
    fn busy(&self, end: Instant) -> bool {
        self.broken.is_none() && (self.next_due < end || !self.inflight.is_empty())
    }
}

/// Drive `spec.conns` pipelined keep-alive connections open loop from
/// the calling thread for one phase: every request is written at its
/// due time whether or not earlier ones were answered, and its latency
/// runs from that due time, so a stall also charges the requests queued
/// behind it.
pub fn drive(addr: SocketAddr, spec: &LoadSpec<'_>, tracer: Option<&Tracer>) -> PhaseLog {
    let mut log = PhaseLog { sent_kinds: vec![0; spec.templates.len()], ..PhaseLog::default() };
    let expected = (spec.rate * spec.duration.as_secs_f64() * 1.05) as usize;
    log.latency_ms.reserve(expected);
    log.kinds.reserve(expected);
    log.due_s.reserve(expected);
    log.late_ms.reserve(expected);
    sys::tighten_timer_slack();
    let start = Instant::now();
    let end = start + spec.duration;
    let mut lanes = Vec::new();
    for c in 0..spec.conns as u64 {
        let stream = match Lane::open(addr) {
            Ok(stream) => stream,
            Err(e) => {
                log.errors += 1;
                log.attempted += 1;
                log.first_error.get_or_insert(format!("connect: {e}"));
                continue;
            }
        };
        let mut schedule = Poisson::new(spec.rate / spec.conns as f64, spec.seed ^ c);
        let next_due = start + schedule.next_offset();
        lanes.push(Lane {
            stream,
            schedule,
            next_due,
            inflight: VecDeque::new(),
            out: Vec::new(),
            parser: ResponseParser::default(),
            broken: None,
        });
    }
    let mut mix = StdRng::seed_from_u64(spec.seed ^ 0x006d_6978);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut answered = 0u64;
    loop {
        for lane in &mut lanes {
            if lane.broken.is_some() {
                continue;
            }
            let now = Instant::now();
            while lane.next_due <= now && lane.next_due < end {
                let due = lane.next_due;
                let kind = (spec.pick)(&mut mix);
                lane.out.extend_from_slice(&spec.templates[kind]);
                lane.inflight.push_back((due, kind, log.attempted));
                log.sent_kinds[kind] += 1;
                log.attempted += 1;
                log.late_ms.push(now.duration_since(due).as_secs_f64() * 1e3);
                lane.next_due = start + lane.schedule.next_offset();
            }
            while !lane.out.is_empty() && lane.broken.is_none() {
                match lane.stream.write(&lane.out) {
                    Ok(0) => lane.broken = Some("write returned 0".into()),
                    Ok(n) => drop(lane.out.drain(..n)),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => lane.broken = Some(format!("write: {e}")),
                }
            }
            while lane.broken.is_none() {
                let n = match lane.stream.read(&mut chunk) {
                    Ok(0) => {
                        lane.broken = Some("server closed the connection".into());
                        break;
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => {
                        lane.broken = Some(format!("read: {e}"));
                        break;
                    }
                };
                let got = Instant::now();
                lane.parser.push(&chunk[..n]);
                loop {
                    let response = match lane.parser.poll() {
                        Ok(Some(response)) => response,
                        Ok(None) => break,
                        Err(e) => {
                            lane.broken = Some(format!("bad response: {e}"));
                            break;
                        }
                    };
                    let Some((due, kind, id)) = lane.inflight.pop_front() else {
                        lane.broken = Some("response without a request".into());
                        break;
                    };
                    // One request in `sample_every` gets a span: enough to
                    // read the latency distribution from the trace without
                    // the recorder itself loading the generator.
                    if let Some(tracer) = tracer.filter(|_| id.is_multiple_of(spec.sample_every)) {
                        tracer.record(spec.span_names[kind], id, 0, due, got);
                    }
                    if response.status == 200 {
                        log.latency_ms.push(got.duration_since(due).as_secs_f64() * 1e3);
                        log.kinds.push(kind);
                        log.due_s.push(due.duration_since(start).as_secs_f64());
                        if answered.is_multiple_of(spec.sample_every)
                            && log.samples.len() < SAMPLE_CAP
                        {
                            log.samples.push((kind, response.body));
                        }
                    } else {
                        log.errors += 1;
                        log.first_error.get_or_insert_with(|| {
                            let body = String::from_utf8_lossy(&response.body);
                            format!("status {}: {body}", response.status)
                        });
                    }
                    answered += 1;
                }
            }
            if let Some(why) = &mut lane.broken {
                let after = Instant::now().duration_since(start).as_secs_f64();
                why.push_str(&format!(" after {after:.3} s"));
            }
        }
        let now = Instant::now();
        if now > end + DRAIN || !lanes.iter().any(|lane| lane.busy(end)) {
            break;
        }
        // Sleep until a connection is ready or the next request is due.
        let wake = lanes
            .iter()
            .filter(|lane| lane.busy(end))
            .map(|lane| if lane.next_due < end { lane.next_due } else { end + DRAIN })
            .min()
            .unwrap_or(now);
        let fds: Vec<(RawFd, bool)> = lanes
            .iter()
            .filter(|lane| lane.busy(end))
            .map(|lane| (lane.stream.as_raw_fd(), !lane.out.is_empty()))
            .collect();
        if let Err(e) = sys::wait_ready(&fds, wake.saturating_duration_since(now)) {
            log.first_error.get_or_insert(format!("poll: {e}"));
            break;
        }
    }
    // Whatever is still unanswered was lost.
    for lane in &lanes {
        if !lane.inflight.is_empty() {
            log.errors += lane.inflight.len() as u64;
            let why = lane.broken.as_deref().unwrap_or("no response before the drain deadline");
            log.first_error.get_or_insert(format!("{} requests lost: {why}", lane.inflight.len()));
        }
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 7\r\nConnection: keep-alive\r\n\r\n{\"a\":1}";
    const B: &[u8] = b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 2\r\n\r\n{}";

    #[test]
    fn parses_responses_split_at_every_byte() {
        let both = [A, B].concat();
        for cut in 0..=both.len() {
            let mut parser = ResponseParser::default();
            let mut got = Vec::new();
            for part in [&both[..cut], &both[cut..]] {
                parser.push(part);
                while let Some(response) = parser.poll().unwrap() {
                    got.push(response);
                }
            }
            assert_eq!(got.len(), 2, "cut at {cut}");
            assert_eq!(got[0], Response { status: 200, body: b"{\"a\":1}".to_vec() });
            assert_eq!(got[1], Response { status: 503, body: b"{}".to_vec() });
        }
    }

    #[test]
    fn pipelined_responses_come_out_in_order_one_poll_each() {
        let mut parser = ResponseParser::default();
        parser.push(&[A, A, B].concat());
        assert_eq!(parser.poll().unwrap().unwrap().status, 200);
        assert_eq!(parser.poll().unwrap().unwrap().status, 200);
        assert_eq!(parser.poll().unwrap().unwrap().status, 503);
        assert_eq!(parser.poll().unwrap(), None);
    }

    #[test]
    fn malformed_heads_are_errors() {
        let mut parser = ResponseParser::default();
        parser.push(b"HTTP/1.1 200 OK\r\n\r\n");
        assert!(parser.poll().is_err(), "no content-length");
        let mut parser = ResponseParser::default();
        parser.push(b"SMTP 220\r\nContent-Length: 0\r\n\r\n");
        assert!(parser.poll().is_err(), "not http");
    }

    #[test]
    fn poisson_schedule_is_fixed_by_its_seed() {
        let take = |seed| {
            let mut p = Poisson::new(1000.0, seed);
            (0..2000).map(|_| p.next_offset()).collect::<Vec<_>>()
        };
        let a = take(7);
        assert_eq!(a, take(7));
        assert_ne!(a, take(8));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets are monotone");
        // 2000 arrivals at 1000/s take about two seconds.
        let span = a.last().unwrap().as_secs_f64();
        assert!((1.8..2.2).contains(&span), "{span}");
    }
}
