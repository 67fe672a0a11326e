//! The wire protocol: length-prefixed frames with a hand-rolled binary
//! codec.
//!
//! Every message is one **frame**: a 4-byte big-endian payload length
//! followed by the payload, whose first byte is an opcode. Queries travel
//! as text in the workspace's datalog grammar (`fj_query::parse_query`) and
//! per-execution parameter filters as standalone filter expressions
//! (`fj_query::parse_filter` / `Predicate::to_query_text`), so the protocol
//! needs no structural serialization of plans or predicates — the offline
//! `serde` stand-ins don't serialize, and text is also what a human pokes
//! at the port with. Numbers (handles, ids, cardinalities) are fixed-order
//! little-endian `u64`s.
//!
//! Request opcodes: [`Request::Prepare`] (query text + aggregate) →
//! [`Response::Prepared`] (handle + plan fingerprint); [`Request::Execute`]
//! (handle + parameter overrides) → [`Response::Answer`];
//! [`Request::Metrics`] → [`Response::Metrics`] (the registry's text
//! exposition — the one way a count crosses the wire);
//! [`Request::TraceExecute`] (execute with span tracing on) and
//! [`Request::TraceFetch`] (re-fetch a sampled trace by id) →
//! [`Response::Trace`] (trace id + rendered span tree + Chrome JSON);
//! [`Request::Cancel`] (stop an in-flight execution by its client-chosen
//! request id, from another connection) → [`Response::Ok`];
//! [`Request::Shutdown`] → [`Response::Ok`] and a graceful drain.
//! [`Response::Busy`] is the typed load-shedding reply (queue full or
//! in-flight byte budget exhausted), carrying a `retry_after_ms` backoff
//! hint derived from the current queue depth and the recent p50 service
//! time; [`Response::Error`] carries any engine/parse error as text. Unknown
//! opcodes (the retired binary stats pair `0x03` / `0x83` among them),
//! unknown busy reasons (the retired per-peer limit's `2` among them) and
//! truncated payloads surface as [`WireError`], never panics — the peer is
//! untrusted input.

use fj_query::Aggregate;
use std::fmt;
use std::io::{self, Read, Write};

/// Hard cap a server or client will ever read for one frame, regardless of
/// configuration — a 4-byte length prefix could otherwise demand a 4 GiB
/// allocation from a one-line client.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Why a request was shed rather than served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusyReason {
    /// The pending-connection queue was at capacity when the connection
    /// arrived; retry against a drained server.
    QueueFull,
    /// Admitting this request would exceed the server's in-flight byte
    /// budget; retry later or send smaller frames.
    ByteBudget,
}

impl fmt::Display for BusyReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusyReason::QueueFull => write!(f, "pending-connection queue full"),
            BusyReason::ByteBudget => write!(f, "in-flight byte budget exceeded"),
        }
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Parse, validate, plan and cache a query; returns a handle for
    /// repeated execution. The text is the datalog grammar; the aggregate
    /// rides alongside because the grammar does not express it.
    Prepare { query: String, aggregate: Aggregate },
    /// Execute a prepared handle, optionally overriding per-atom filters
    /// with `(alias, filter text)` pairs (`fj_query::parse_filter` syntax).
    ///
    /// `request_id` names this in-flight execution so a [`Request::Cancel`]
    /// sent on *another* connection can stop it (`0` = not cancellable by
    /// id). `deadline_ms` is the client's per-request deadline in
    /// milliseconds (`0` = none); the server clamps it to its own
    /// `max_query_ms` and arms a cancel token from the result.
    Execute { handle: u64, params: Vec<(String, String)>, request_id: u64, deadline_ms: u64 },
    /// Begin graceful shutdown: drain in-flight work, refuse new arrivals.
    Shutdown,
    /// The Prometheus-style text exposition of the server's metrics
    /// registry: every `fj_*` series (server counters, cache/scheduler
    /// counters, the full latency histogram) plus the slow-query log as
    /// comment lines — text, the thing a scrape endpoint or a human wants,
    /// and what `fj_obs::MetricsSnapshot::parse` reads back by series name.
    Metrics,
    /// Execute a prepared handle with span tracing forced on for this
    /// request (per-request opt-in, independent of the server's
    /// `trace_sample_n` sampling). Replies with [`Response::Trace`].
    /// `request_id` / `deadline_ms` as on [`Request::Execute`].
    TraceExecute { handle: u64, params: Vec<(String, String)>, request_id: u64, deadline_ms: u64 },
    /// Fetch a previously recorded trace by its server-minted id (sampled
    /// traces land in a bounded ring; slow-query lines carry the ids).
    TraceFetch { trace_id: u64 },
    /// Cancel the in-flight execution whose [`Request::Execute`] carried
    /// this non-zero `request_id`. Sent on a *separate* connection (the
    /// issuing one is blocked awaiting its answer). Replies [`Response::Ok`]
    /// if the id was found and its token fired, or a typed
    /// [`Response::Error`] if no such execution is in flight (it may have
    /// already finished — cancellation is inherently racy and idempotent).
    Cancel { request_id: u64 },
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A prepared handle and the plan-cache fingerprint behind it.
    Prepared { handle: u64, fingerprint: u64 },
    /// One execution's result summary: output cardinality, tries this
    /// execution built (0 on a fully warm path), and server-side service
    /// time in microseconds.
    Answer { cardinality: u64, tries_built: u64, service_us: u64 },
    /// Acknowledgement (shutdown).
    Ok,
    /// Load shed: the request was NOT executed. `retry_after_ms` is the
    /// server's backoff hint — current queue depth × recent p50 service
    /// time, in milliseconds, never zero — so clients can pace retries to
    /// the server's actual drain rate instead of guessing.
    Busy { reason: BusyReason, retry_after_ms: u64 },
    /// Parse/validation/execution failure, as text.
    Error { message: String },
    /// The metrics-registry text exposition (reply to [`Request::Metrics`]).
    Metrics {
        /// Prometheus-style text: `name value` / `name{le="..."} value`
        /// lines plus `#`-prefixed slow-query comment lines.
        text: String,
    },
    /// One traced execution (or a fetched stored trace). The trace travels
    /// pre-rendered — the canonical span tree and the Chrome trace-event
    /// JSON — rather than as raw events: strings are what both consumers
    /// (humans and `chrome://tracing`) want, and they keep the codec free
    /// of a per-event binary format.
    Trace {
        /// Server-minted trace id (fetchable later while it stays in the
        /// trace ring; also stamped on the slow-query entry, if any).
        trace_id: u64,
        /// Output cardinality of the traced execution (0 for fetches).
        cardinality: u64,
        /// Server-side service time in microseconds (0 for fetches).
        service_us: u64,
        /// The canonical, schedule-independent span tree.
        span_tree: String,
        /// Chrome trace-event JSON (Perfetto-loadable).
        chrome_json: String,
    },
}

/// A malformed frame (unknown opcode, truncated payload, bad UTF-8). The
/// peer is untrusted; all of these are typed errors rather than panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What was malformed.
    pub message: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire protocol error: {}", self.message)
    }
}

impl std::error::Error for WireError {}

fn wire_err<T>(message: impl Into<String>) -> Result<T, WireError> {
    Err(WireError { message: message.into() })
}

// Request opcodes (0x03, the retired binary stats request, decodes as unknown).
const OP_PREPARE: u8 = 0x01;
const OP_EXECUTE: u8 = 0x02;
const OP_SHUTDOWN: u8 = 0x04;
const OP_METRICS: u8 = 0x05;
const OP_TRACE: u8 = 0x06;
const OP_CANCEL: u8 = 0x07;
// Response opcodes (high bit set; 0x83 went with 0x03).
const OP_PREPARED: u8 = 0x81;
const OP_ANSWER: u8 = 0x82;
const OP_OK: u8 = 0x84;
const OP_BUSY: u8 = 0x85;
const OP_ERROR: u8 = 0x86;
const OP_METRICS_REPLY: u8 = 0x87;
const OP_TRACE_REPLY: u8 = 0x88;

// Mode byte inside OP_TRACE.
const TRACE_EXECUTE: u8 = 0;
const TRACE_FETCH: u8 = 1;

// Aggregate tags inside Prepare.
const AGG_MATERIALIZE: u8 = 0;
const AGG_COUNT: u8 = 1;
const AGG_GROUP_COUNT: u8 = 2;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Cursor over an untrusted payload; every read is bounds-checked.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        match self.bytes.split_first() {
            Some((&b, rest)) => {
                self.bytes = rest;
                Ok(b)
            }
            None => wire_err("truncated payload (u8)"),
        }
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        match self.bytes.split_first_chunk::<8>() {
            Some((head, rest)) => {
                self.bytes = rest;
                Ok(u64::from_le_bytes(*head))
            }
            None => wire_err("truncated payload (u64)"),
        }
    }

    /// Bytes left to decode — bounds element-count preallocation.
    fn remaining(&self) -> usize {
        self.bytes.len()
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u64()? as usize;
        if len > self.bytes.len() {
            return wire_err(format!("string length {len} exceeds remaining payload"));
        }
        let (head, rest) = self.bytes.split_at(len);
        self.bytes = rest;
        match std::str::from_utf8(head) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => wire_err("string is not valid UTF-8"),
        }
    }

    fn finish(self) -> Result<(), WireError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            wire_err(format!("{} trailing bytes after message", self.bytes.len()))
        }
    }
}

impl Request {
    /// Encode into a frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encode as one whole frame, header included, for [`send_frame`]: the
    /// payload is encoded behind the header's 4 reserved bytes, so it is
    /// never copied.
    pub fn encode_frame(&self) -> Vec<u8> {
        frame_with(|out| self.encode_into(out))
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Prepare { query, aggregate } => {
                out.push(OP_PREPARE);
                match aggregate {
                    Aggregate::Materialize => out.push(AGG_MATERIALIZE),
                    Aggregate::Count => out.push(AGG_COUNT),
                    Aggregate::GroupCount(vars) => {
                        out.push(AGG_GROUP_COUNT);
                        put_u64(out, vars.len() as u64);
                        for v in vars {
                            put_str(out, v);
                        }
                    }
                }
                put_str(out, query);
            }
            Request::Execute { handle, params, request_id, deadline_ms } => {
                out.push(OP_EXECUTE);
                put_u64(out, *handle);
                put_u64(out, *request_id);
                put_u64(out, *deadline_ms);
                put_u64(out, params.len() as u64);
                for (alias, filter) in params {
                    put_str(out, alias);
                    put_str(out, filter);
                }
            }
            Request::Shutdown => out.push(OP_SHUTDOWN),
            Request::Metrics => out.push(OP_METRICS),
            Request::TraceExecute { handle, params, request_id, deadline_ms } => {
                out.push(OP_TRACE);
                out.push(TRACE_EXECUTE);
                put_u64(out, *handle);
                put_u64(out, *request_id);
                put_u64(out, *deadline_ms);
                put_u64(out, params.len() as u64);
                for (alias, filter) in params {
                    put_str(out, alias);
                    put_str(out, filter);
                }
            }
            Request::TraceFetch { trace_id } => {
                out.push(OP_TRACE);
                out.push(TRACE_FETCH);
                put_u64(out, *trace_id);
            }
            Request::Cancel { request_id } => {
                out.push(OP_CANCEL);
                put_u64(out, *request_id);
            }
        }
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(payload);
        let request = match r.u8()? {
            OP_PREPARE => {
                let aggregate = match r.u8()? {
                    AGG_MATERIALIZE => Aggregate::Materialize,
                    AGG_COUNT => Aggregate::Count,
                    AGG_GROUP_COUNT => {
                        let n = r.u64()? as usize;
                        // Every encoded string costs >= 8 bytes (its length
                        // prefix), so a count beyond remaining/8 is provably
                        // malformed — reject it before Vec::with_capacity
                        // can allocate orders of magnitude more than the
                        // frame the admission budget was charged for.
                        if n > r.remaining() / 8 {
                            return wire_err("group-count variable count exceeds payload");
                        }
                        let mut vars = Vec::with_capacity(n);
                        for _ in 0..n {
                            vars.push(r.str()?);
                        }
                        Aggregate::GroupCount(vars)
                    }
                    tag => return wire_err(format!("unknown aggregate tag {tag:#x}")),
                };
                Request::Prepare { query: r.str()?, aggregate }
            }
            OP_EXECUTE => {
                let handle = r.u64()?;
                let request_id = r.u64()?;
                let deadline_ms = r.u64()?;
                let n = r.u64()? as usize;
                // Each (alias, filter) pair costs >= 16 bytes of length
                // prefixes; see the group-count guard above.
                if n > r.remaining() / 16 {
                    return wire_err("parameter count exceeds payload");
                }
                let mut params = Vec::with_capacity(n);
                for _ in 0..n {
                    let alias = r.str()?;
                    let filter = r.str()?;
                    params.push((alias, filter));
                }
                Request::Execute { handle, params, request_id, deadline_ms }
            }
            OP_SHUTDOWN => Request::Shutdown,
            OP_METRICS => Request::Metrics,
            OP_TRACE => match r.u8()? {
                TRACE_EXECUTE => {
                    let handle = r.u64()?;
                    let request_id = r.u64()?;
                    let deadline_ms = r.u64()?;
                    let n = r.u64()? as usize;
                    if n > r.remaining() / 16 {
                        return wire_err("parameter count exceeds payload");
                    }
                    let mut params = Vec::with_capacity(n);
                    for _ in 0..n {
                        let alias = r.str()?;
                        let filter = r.str()?;
                        params.push((alias, filter));
                    }
                    Request::TraceExecute { handle, params, request_id, deadline_ms }
                }
                TRACE_FETCH => Request::TraceFetch { trace_id: r.u64()? },
                mode => return wire_err(format!("unknown trace mode {mode:#x}")),
            },
            OP_CANCEL => Request::Cancel { request_id: r.u64()? },
            op => return wire_err(format!("unknown request opcode {op:#x}")),
        };
        r.finish()?;
        Ok(request)
    }
}

impl Response {
    /// Encode into a frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encode as one whole frame, header included, for [`send_frame`] (see
    /// [`Request::encode_frame`]).
    pub fn encode_frame(&self) -> Vec<u8> {
        frame_with(|out| self.encode_into(out))
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Prepared { handle, fingerprint } => {
                out.push(OP_PREPARED);
                put_u64(out, *handle);
                put_u64(out, *fingerprint);
            }
            Response::Answer { cardinality, tries_built, service_us } => {
                out.push(OP_ANSWER);
                put_u64(out, *cardinality);
                put_u64(out, *tries_built);
                put_u64(out, *service_us);
            }
            Response::Ok => out.push(OP_OK),
            Response::Busy { reason, retry_after_ms } => {
                out.push(OP_BUSY);
                // Reason 2 is retired (a per-peer rate limit): it decodes as
                // unknown and is never reused.
                out.push(match reason {
                    BusyReason::QueueFull => 0,
                    BusyReason::ByteBudget => 1,
                });
                put_u64(out, *retry_after_ms);
            }
            Response::Error { message } => {
                out.push(OP_ERROR);
                put_str(out, message);
            }
            Response::Metrics { text } => {
                out.push(OP_METRICS_REPLY);
                put_str(out, text);
            }
            Response::Trace { trace_id, cardinality, service_us, span_tree, chrome_json } => {
                out.push(OP_TRACE_REPLY);
                put_u64(out, *trace_id);
                put_u64(out, *cardinality);
                put_u64(out, *service_us);
                put_str(out, span_tree);
                put_str(out, chrome_json);
            }
        }
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(payload);
        let response = match r.u8()? {
            OP_PREPARED => Response::Prepared { handle: r.u64()?, fingerprint: r.u64()? },
            OP_ANSWER => Response::Answer {
                cardinality: r.u64()?,
                tries_built: r.u64()?,
                service_us: r.u64()?,
            },
            OP_OK => Response::Ok,
            OP_BUSY => {
                let reason = match r.u8()? {
                    0 => BusyReason::QueueFull,
                    1 => BusyReason::ByteBudget,
                    tag => return wire_err(format!("unknown busy reason {tag:#x}")),
                };
                Response::Busy { reason, retry_after_ms: r.u64()? }
            }
            OP_ERROR => Response::Error { message: r.str()? },
            OP_METRICS_REPLY => Response::Metrics { text: r.str()? },
            OP_TRACE_REPLY => Response::Trace {
                trace_id: r.u64()?,
                cardinality: r.u64()?,
                service_us: r.u64()?,
                span_tree: r.str()?,
                chrome_json: r.str()?,
            },
            op => return wire_err(format!("unknown response opcode {op:#x}")),
        };
        r.finish()?;
        Ok(response)
    }
}

/// Bytes of a frame header: the payload length, big-endian.
const HEADER_BYTES: usize = 4;

/// A whole frame whose payload `encode` appends behind the reserved header.
/// A payload too long for the header leaves it zero, and [`send_frame`]
/// refuses the frame.
fn frame_with(encode: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut frame = vec![0u8; HEADER_BYTES];
    encode(&mut frame);
    if let Ok(len) = u32::try_from(frame.len() - HEADER_BYTES) {
        frame[..HEADER_BYTES].copy_from_slice(&len.to_be_bytes());
    }
    frame
}

/// Write one whole frame (`Request::encode_frame`, `Response::encode_frame`)
/// in a single `write_all`. Header and payload must leave together: on a
/// `TCP_NODELAY` socket two writes are two segments, and the peer's read
/// waits for the second. A frame whose header does not announce the rest
/// of it is an `InvalidInput` error, and nothing is written.
pub fn send_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    let announced = frame.first_chunk::<HEADER_BYTES>().map(|h| u32::from_be_bytes(*h) as usize);
    if announced.is_none() || announced != frame.len().checked_sub(HEADER_BYTES) {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large"));
    }
    w.write_all(frame)?;
    w.flush()
}

/// Write one frame — 4-byte big-endian length, then the payload — in a
/// single `write_all` ([`send_frame`]).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    send_frame(w, &frame_with(|out| out.extend_from_slice(payload)))
}

/// The payload length a frame header announces, checked before anything is
/// allocated for it: more than `max_bytes` — or than [`MAX_FRAME_BYTES`],
/// whatever `max_bytes` says — is an `InvalidData` error. Every frame reader
/// goes through here.
pub fn frame_len(header: [u8; 4], max_bytes: usize) -> io::Result<usize> {
    let len = u32::from_be_bytes(header) as usize;
    let limit = max_bytes.min(MAX_FRAME_BYTES);
    if len > limit {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {limit}-byte limit"),
        ));
    }
    Ok(len)
}

/// Read one frame's payload. `Ok(None)` is a clean EOF at a frame boundary
/// (the peer hung up between requests); a frame longer than `max_bytes` is
/// an `InvalidData` error ([`frame_len`]) — the stream cannot be
/// resynchronized after an oversized announcement, so the caller must close
/// the connection.
pub fn read_frame(r: &mut impl Read, max_bytes: usize) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    match r.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let mut payload = vec![0u8; frame_len(header, max_bytes)?];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One request of every kind and shape the codec distinguishes.
    fn requests() -> Vec<Request> {
        vec![
            Request::Prepare {
                query: "Q(x) :- R(x, y) where y > 3.".into(),
                aggregate: Aggregate::Materialize,
            },
            Request::Prepare {
                query: "Q() :- R(x, y), S(y, z).".into(),
                aggregate: Aggregate::Count,
            },
            Request::Prepare {
                query: "Q() :- R(x, city).".into(),
                aggregate: Aggregate::GroupCount(vec!["city".into(), "x".into()]),
            },
            Request::Execute { handle: 7, params: vec![], request_id: 0, deadline_ms: 0 },
            Request::Execute {
                handle: u64::MAX,
                params: vec![("e".into(), "src < 3".into()), ("p".into(), String::new())],
                request_id: 41,
                deadline_ms: 1500,
            },
            Request::Shutdown,
            Request::Metrics,
            Request::TraceExecute { handle: 3, params: vec![], request_id: 0, deadline_ms: 0 },
            Request::TraceExecute {
                handle: 9,
                params: vec![("e".into(), "src < 3".into())],
                request_id: 8,
                deadline_ms: 30,
            },
            Request::TraceFetch { trace_id: 17 },
            Request::Cancel { request_id: u64::MAX },
        ]
    }

    /// One response of every kind and shape the codec distinguishes.
    fn responses() -> Vec<Response> {
        vec![
            Response::Prepared { handle: 1, fingerprint: 0xdead_beef },
            Response::Answer { cardinality: 42, tries_built: 3, service_us: 950 },
            Response::Ok,
            Response::Busy { reason: BusyReason::QueueFull, retry_after_ms: 250 },
            Response::Busy { reason: BusyReason::ByteBudget, retry_after_ms: 1 },
            Response::Error { message: "unknown handle 9".into() },
            Response::Metrics { text: String::new() },
            Response::Metrics {
                text: "fj_serve_requests_served 3\nfj_serve_latency_us_bucket{le=\"+Inf\"} 3\n"
                    .into(),
            },
            Response::Trace {
                trace_id: 5,
                cardinality: 99,
                service_us: 1200,
                span_tree: "query\n  pipeline 0\n    node 0\n".into(),
                chrome_json: "{\"traceEvents\":[]}".into(),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in requests() {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in responses() {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert!(Request::decode(&[]).is_err(), "empty payload");
        assert!(Request::decode(&[0x7f]).is_err(), "unknown opcode");
        // The retired binary stats pair is unknown on both sides, typed.
        let retired = Request::decode(&[0x03]).unwrap_err();
        assert_eq!(retired.message, "unknown request opcode 0x3");
        let retired = Response::decode(&[0x83]).unwrap_err();
        assert_eq!(retired.message, "unknown response opcode 0x83");
        assert!(Request::decode(&[OP_PREPARE, 9]).is_err(), "unknown aggregate tag");
        // A string whose announced length exceeds the payload.
        let mut bad = vec![OP_PREPARE, AGG_COUNT];
        put_u64(&mut bad, 1 << 40);
        assert!(Request::decode(&bad).is_err());
        // An element count larger than the remaining bytes could possibly
        // encode (each element costs >= 16 bytes of length prefixes) is
        // rejected up front, before any count-sized preallocation.
        let mut inflated = vec![OP_EXECUTE];
        put_u64(&mut inflated, 1); // handle
        put_u64(&mut inflated, 0); // request_id
        put_u64(&mut inflated, 0); // deadline_ms
        put_u64(&mut inflated, 100); // claims 100 params...
        inflated.extend_from_slice(&[0u8; 200]); // ...in 200 bytes
        assert!(Request::decode(&inflated).is_err());
        // A metrics reply whose text is not valid UTF-8.
        let mut bad_metrics = vec![OP_METRICS_REPLY];
        put_u64(&mut bad_metrics, 2);
        bad_metrics.extend_from_slice(&[0xff, 0xfe]);
        assert!(Response::decode(&bad_metrics).is_err());
        // An unknown trace mode byte is rejected.
        assert!(Request::decode(&[OP_TRACE, 9]).is_err(), "unknown trace mode");
        // Trailing garbage after a valid message.
        let mut trailing = Request::Metrics.encode();
        trailing.push(0);
        assert!(Request::decode(&trailing).is_err());
        // Invalid UTF-8 in a string.
        let mut bad_utf8 = vec![OP_ERROR];
        put_u64(&mut bad_utf8, 2);
        bad_utf8.extend_from_slice(&[0xff, 0xfe]);
        assert!(Response::decode(&bad_utf8).is_err());

        // Every proper prefix of every round-trip payload is a typed error,
        // and every single-byte mutation of one decodes to `Ok` or `Err`
        // (a panic fails the test).
        fn truncate_and_mutate<T>(payload: &[u8], decode: fn(&[u8]) -> Result<T, WireError>) {
            for len in 0..payload.len() {
                assert!(decode(&payload[..len]).is_err(), "{len}-byte prefix of {payload:?}");
            }
            let mut mutated = payload.to_vec();
            for at in 0..payload.len() {
                for byte in 0..=u8::MAX {
                    mutated[at] = byte;
                    let _ = decode(&mutated);
                }
                mutated[at] = payload[at];
            }
        }
        for req in requests() {
            truncate_and_mutate(&req.encode(), Request::decode);
        }
        for resp in responses() {
            truncate_and_mutate(&resp.encode(), Response::decode);
        }
    }

    /// Busy reason 2 is retired: a frame carrying it is a typed error, so a
    /// client meeting an old server reports it instead of panicking.
    #[test]
    fn a_retired_busy_reason_is_a_typed_error() {
        let mut busy = vec![OP_BUSY, 2];
        put_u64(&mut busy, 9);
        let err = Response::decode(&busy).unwrap_err();
        assert_eq!(err.message, "unknown busy reason 0x2");
    }

    #[test]
    fn frames_round_trip_and_enforce_limits() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor, 1024).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor, 1024).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor, 1024).unwrap().is_none(), "clean EOF is None");

        // An oversized announcement is an error, not an allocation.
        let mut oversized = Vec::new();
        write_frame(&mut oversized, &[0u8; 64]).unwrap();
        let mut cursor = io::Cursor::new(oversized);
        let err = read_frame(&mut cursor, 16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A truncated frame body (EOF mid-frame) is an error, not None.
        let mut truncated = Vec::new();
        truncated.extend_from_slice(&8u32.to_be_bytes());
        truncated.extend_from_slice(&[1, 2, 3]);
        let mut cursor = io::Cursor::new(truncated);
        assert!(read_frame(&mut cursor, 1024).is_err());
    }

    /// A `Write` that takes every byte offered and counts the calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Header and payload leave in one write: two would be two TCP
    /// segments on a `TCP_NODELAY` socket.
    #[test]
    fn a_frame_is_one_write() {
        for payload in [Vec::new(), vec![7u8; 64 << 10]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.writes, 1, "{} payload bytes", payload.len());
            let mut cursor = io::Cursor::new(w.bytes);
            assert_eq!(read_frame(&mut cursor, usize::MAX).unwrap().unwrap(), payload);
        }
        let text = "x".repeat(64 << 10);
        for frame in [Request::Metrics.encode_frame(), Response::Metrics { text }.encode_frame()] {
            let mut w = CountingWriter::default();
            send_frame(&mut w, &frame).unwrap();
            assert_eq!((w.writes, &w.bytes), (1, &frame));
        }
    }

    #[test]
    fn encoded_frames_carry_their_payload() {
        for req in requests() {
            let frame = req.encode_frame();
            let mut cursor = io::Cursor::new(frame);
            let payload = read_frame(&mut cursor, usize::MAX).unwrap().unwrap();
            assert_eq!(payload, req.encode());
        }
        for resp in responses() {
            let mut cursor = io::Cursor::new(resp.encode_frame());
            let payload = read_frame(&mut cursor, usize::MAX).unwrap().unwrap();
            assert_eq!(payload, resp.encode());
        }
        // A header that does not announce the rest is refused, unwritten.
        let mut frame = Request::Shutdown.encode_frame();
        frame.push(0);
        let mut w = CountingWriter::default();
        let err = send_frame(&mut w, &frame).unwrap_err();
        assert_eq!((err.kind(), w.writes), (io::ErrorKind::InvalidInput, 0));
        assert!(send_frame(&mut w, &[0, 0]).is_err(), "shorter than a header");
    }

    #[test]
    fn no_limit_lifts_the_hard_frame_cap() {
        let just_over = u32::try_from(MAX_FRAME_BYTES + 1).unwrap().to_be_bytes();
        for limit in [usize::MAX, MAX_FRAME_BYTES + 1] {
            let err = frame_len(just_over, limit).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "limit {limit}");
            let mut cursor = io::Cursor::new(just_over.to_vec());
            let err = read_frame(&mut cursor, limit).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "limit {limit}");
        }
        let at_cap = u32::try_from(MAX_FRAME_BYTES).unwrap().to_be_bytes();
        assert_eq!(frame_len(at_cap, usize::MAX).unwrap(), MAX_FRAME_BYTES);
        assert_eq!(
            frame_len(u32::MAX.to_be_bytes(), 0).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }
}
