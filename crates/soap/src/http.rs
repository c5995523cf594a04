//! Simulated HTTP/1.1 over [`simnet`].
//!
//! The paper's prototype carries every VSG interaction over HTTP, and two
//! of its findings hinge on HTTP's behaviour: it is client/server only
//! (no asynchronous notification, §4.2) and it rides a TCP stack that is
//! heavy for small appliances. The simulation therefore models the
//! request/response pattern, per-connection handshake cost, and real
//! header bytes on the wire.

use bytes::Bytes;
use parking_lot::Mutex;
use simnet::{Frame, Network, NodeId, Protocol, Sim, SimDuration, SimError};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Header a pipelining client stamps on each request so it can match
/// responses that the server finishes in a different order.
const CORR_HEADER: &str = "X-Corr-Id";

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Method, e.g. `POST`.
    pub method: String,
    /// Request path, e.g. `/soap/rpcrouter`.
    pub path: String,
    /// Headers in order.
    pub headers: Vec<(String, String)>,
    /// Entity body.
    pub body: Vec<u8>,
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code, e.g. `200`.
    pub status: u16,
    /// Reason phrase, e.g. `OK`.
    pub reason: String,
    /// Headers in order.
    pub headers: Vec<(String, String)>,
    /// Entity body.
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Creates a POST with a body (the SOAP workhorse).
    pub fn post(path: impl Into<String>, content_type: &str, body: impl Into<Vec<u8>>) -> Self {
        let body = body.into();
        HttpRequest {
            method: "POST".into(),
            path: path.into(),
            headers: vec![
                ("Content-Type".into(), content_type.into()),
                ("Content-Length".into(), body.len().to_string()),
                ("User-Agent".into(), "metaware/0.1".into()),
                ("Connection".into(), "close".into()),
            ],
            body,
        }
    }

    /// Creates a body-less GET.
    pub fn get(path: impl Into<String>) -> Self {
        HttpRequest {
            method: "GET".into(),
            path: path.into(),
            headers: vec![
                ("User-Agent".into(), "metaware/0.1".into()),
                ("Connection".into(), "close".into()),
            ],
            body: Vec::new(),
        }
    }

    /// Adds a header (builder style).
    pub fn header(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((key.into(), value.into()));
        self
    }

    /// The first header with the given (case-insensitive) name.
    pub fn get_header(&self, key: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(key))
            .map(|(_, v)| v.as_str())
    }

    /// Serialises to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_bytes_into(&mut out, None);
        out
    }

    /// Serialises into the caller's buffer, reserving exact capacity up
    /// front — one allocation for head plus body instead of an
    /// intermediate head `String` that grows as headers are appended.
    /// `extra` appends one more header line (the pipelining client's
    /// correlation id) without cloning the request to add it.
    pub(crate) fn write_bytes_into(&self, out: &mut Vec<u8>, extra: Option<(&str, &str)>) {
        let mut head_len = self.method.len() + 1 + self.path.len() + " HTTP/1.1\r\n".len();
        for (k, v) in &self.headers {
            head_len += k.len() + 2 + v.len() + 2;
        }
        if let Some((k, v)) = extra {
            head_len += k.len() + 2 + v.len() + 2;
        }
        out.reserve(head_len + 2 + self.body.len());
        out.extend_from_slice(self.method.as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.path.as_bytes());
        out.extend_from_slice(b" HTTP/1.1\r\n");
        let lines = self.headers.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        for (k, v) in lines.chain(extra) {
            out.extend_from_slice(k.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
    }

    /// Parses wire bytes.
    pub fn from_bytes(data: &[u8]) -> Result<HttpRequest, HttpError> {
        HttpRequestRef::parse(data).map(|r| r.to_owned())
    }
}

/// A request parsed in place: every field borrows the wire buffer, so
/// the server's hot path allocates nothing to look at a message. The
/// owned [`HttpRequest`] tier is [`HttpRequestRef::to_owned`].
#[derive(Debug, Clone, Copy)]
pub struct HttpRequestRef<'a> {
    /// Method, e.g. `POST`.
    pub method: &'a str,
    /// Request path.
    pub path: &'a str,
    /// The raw header block (validated lines, without the request line).
    header_lines: &'a str,
    /// Entity body.
    pub body: &'a [u8],
}

impl<'a> HttpRequestRef<'a> {
    /// Parses wire bytes without copying, taking the whole buffer as one
    /// message. Accepts and rejects exactly what
    /// [`HttpRequest::from_bytes`] does.
    pub fn parse(data: &'a [u8]) -> Result<HttpRequestRef<'a>, HttpError> {
        let head = Head::scan(data)?;
        HttpRequestRef::from_head(&head, &data[head.body_at..])
    }

    /// The request whose head has been scanned, with its body.
    fn from_head(head: &Head<'a>, body: &'a [u8]) -> Result<HttpRequestRef<'a>, HttpError> {
        let request_line = head
            .start_line
            .ok_or(HttpError::Malformed("empty request"))?;
        let mut parts = request_line.split_whitespace();
        let method = parts.next().ok_or(HttpError::Malformed("no method"))?;
        let path = parts.next().ok_or(HttpError::Malformed("no path"))?;
        let version = parts.next().ok_or(HttpError::Malformed("no version"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed("unsupported HTTP version"));
        }
        head.check_header_lines()?;
        Ok(HttpRequestRef {
            method,
            path,
            header_lines: head.header_lines,
            body,
        })
    }

    /// The first header with the given (case-insensitive) name.
    pub fn get_header(&self, key: &str) -> Option<&'a str> {
        find_header(self.header_lines, key)
    }

    /// Materialises the owned tier.
    pub fn to_owned(&self) -> HttpRequest {
        HttpRequest {
            method: self.method.to_owned(),
            path: self.path.to_owned(),
            headers: own_headers(self.header_lines),
            body: self.body.to_vec(),
        }
    }
}

/// A response parsed in place — the client-side twin of
/// [`HttpRequestRef`].
#[derive(Debug, Clone, Copy)]
pub struct HttpResponseRef<'a> {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'a str,
    /// The raw header block (validated lines, without the status line).
    header_lines: &'a str,
    /// Entity body.
    pub body: &'a [u8],
}

impl<'a> HttpResponseRef<'a> {
    /// Parses wire bytes without copying, taking the whole buffer as one
    /// message. Accepts and rejects exactly what
    /// [`HttpResponse::from_bytes`] does.
    pub fn parse(data: &'a [u8]) -> Result<HttpResponseRef<'a>, HttpError> {
        let head = Head::scan(data)?;
        HttpResponseRef::from_head(&head, &data[head.body_at..])
    }

    /// The response whose head has been scanned, with its body.
    fn from_head(head: &Head<'a>, body: &'a [u8]) -> Result<HttpResponseRef<'a>, HttpError> {
        let status_line = head
            .start_line
            .ok_or(HttpError::Malformed("empty response"))?;
        let mut parts = status_line.splitn(3, ' ');
        let version = parts.next().ok_or(HttpError::Malformed("no version"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed("unsupported HTTP version"));
        }
        let status = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(HttpError::Malformed("bad status code"))?;
        let reason = parts.next().unwrap_or("");
        head.check_header_lines()?;
        Ok(HttpResponseRef {
            status,
            reason,
            header_lines: head.header_lines,
            body,
        })
    }

    /// True for 2xx statuses.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// The first header with the given (case-insensitive) name.
    pub fn get_header(&self, key: &str) -> Option<&'a str> {
        find_header(self.header_lines, key)
    }

    /// Materialises the owned tier.
    pub fn to_owned(&self) -> HttpResponse {
        HttpResponse {
            status: self.status,
            reason: self.reason.to_owned(),
            headers: own_headers(self.header_lines),
            body: self.body.to_vec(),
        }
    }
}

/// The head of the HTTP message at the front of a buffer, read in one
/// scan: where the body starts, the start line, the header block, and
/// the two headers the transport itself reads — the body length and the
/// pipelining correlation id.
struct Head<'a> {
    /// Offset of the body, just past the `\r\n\r\n` terminator.
    body_at: usize,
    /// The request or status line; `None` for an empty head.
    start_line: Option<&'a str>,
    /// The header lines after the start line.
    header_lines: &'a str,
    /// A line of the header block (up to the first blank line) has no
    /// colon.
    colonless: bool,
    /// The last `Content-Length` anywhere in the head; a value that
    /// does not parse counts as none.
    content_length: Option<usize>,
    /// The first correlation id in the header block.
    corr: Option<&'a str>,
}

impl<'a> Head<'a> {
    fn scan(data: &'a [u8]) -> Result<Head<'a>, HttpError> {
        let sep = find_head_end(data).ok_or(HttpError::Malformed("missing header terminator"))?;
        let head = std::str::from_utf8(&data[..sep])
            .map_err(|_| HttpError::Malformed("non-UTF8 header block"))?;
        let mut lines = head.lines();
        let start_line = lines.next();
        let header_lines = start_line.map_or("", |line| {
            let rest = &head[line.len()..];
            rest.strip_prefix("\r\n")
                .or_else(|| rest.strip_prefix('\n'))
                .unwrap_or(rest)
        });
        let mut scanned = Head {
            body_at: sep + 4,
            start_line,
            header_lines,
            colonless: false,
            content_length: None,
            corr: None,
        };
        let mut in_block = true;
        for line in lines {
            if line.is_empty() {
                in_block = false;
                continue;
            }
            // A byte search: `split_once(':')`'s char searcher costs
            // more than the scan itself on lines this short.
            match line.bytes().position(|b| b == b':') {
                Some(colon) => {
                    let (k, v) = (line[..colon].trim(), &line[colon + 1..]);
                    if k.eq_ignore_ascii_case("content-length") {
                        scanned.content_length = v.trim().parse().ok();
                    } else if in_block
                        && scanned.corr.is_none()
                        && k.eq_ignore_ascii_case(CORR_HEADER)
                    {
                        scanned.corr = Some(v.trim());
                    }
                }
                None => scanned.colonless |= in_block,
            }
        }
        Ok(scanned)
    }

    /// Length of the whole message in a buffer of `available` bytes:
    /// head, then `Content-Length` body bytes. A message without a
    /// length runs to the end of the buffer (the `Connection: close`
    /// convention), so only messages that declare their length can
    /// share a pipelined payload.
    fn message_len(&self, available: usize) -> Result<usize, HttpError> {
        match self.content_length {
            Some(n) if n <= available - self.body_at => Ok(self.body_at + n),
            Some(_) => Err(HttpError::Malformed("truncated body")),
            None => Ok(available),
        }
    }

    /// Rejects a header block with a line that is not `name: value`.
    fn check_header_lines(&self) -> Result<(), HttpError> {
        if self.colonless {
            return Err(HttpError::Malformed("header without colon"));
        }
        Ok(())
    }
}

/// Offset of the first `\r\n\r\n` in `data`.
fn find_head_end(data: &[u8]) -> Option<usize> {
    let mut from = 0;
    while let Some(i) = data[from..].iter().position(|&b| b == b'\r') {
        let at = from + i;
        if data[at..].starts_with(b"\r\n\r\n") {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// Reads a message body as text. Valid UTF-8 — every body this stack
/// sends — is borrowed through the `str::from_utf8` fast path; only
/// invalid bytes take `String::from_utf8_lossy`'s copy, so the text is
/// always the same as `from_utf8_lossy`'s.
pub fn body_str(body: &[u8]) -> Cow<'_, str> {
    match std::str::from_utf8(body) {
        Ok(text) => Cow::Borrowed(text),
        Err(_) => String::from_utf8_lossy(body),
    }
}

fn find_header<'a>(header_lines: &'a str, key: &str) -> Option<&'a str> {
    for line in header_lines.lines() {
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case(key) {
                return Some(v.trim());
            }
        }
    }
    None
}

fn own_headers(header_lines: &str) -> Vec<(String, String)> {
    let mut headers = Vec::new();
    for line in header_lines.lines() {
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.trim().to_owned(), v.trim().to_owned()));
        }
    }
    headers
}

impl HttpResponse {
    /// A 200 OK with a body.
    pub fn ok(content_type: &str, body: impl Into<Vec<u8>>) -> Self {
        let body = body.into();
        HttpResponse {
            status: 200,
            reason: "OK".into(),
            headers: vec![
                ("Content-Type".into(), content_type.into()),
                ("Content-Length".into(), body.len().to_string()),
                ("Server".into(), "metaware/0.1".into()),
            ],
            body,
        }
    }

    /// An error status with a plain-text body.
    pub fn error(status: u16, reason: &str, body: impl Into<Vec<u8>>) -> Self {
        let body = body.into();
        HttpResponse {
            status,
            reason: reason.into(),
            headers: vec![
                ("Content-Type".into(), "text/plain".into()),
                ("Content-Length".into(), body.len().to_string()),
            ],
            body,
        }
    }

    /// A 404.
    pub fn not_found(path: &str) -> Self {
        HttpResponse::error(404, "Not Found", format!("no handler for {path}"))
    }

    /// True for 2xx statuses.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// The first header with the given (case-insensitive) name.
    pub fn get_header(&self, key: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(key))
            .map(|(_, v)| v.as_str())
    }

    /// Serialises to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_bytes_into(&mut out);
        out
    }

    /// Serialises into the caller's buffer — the server assembles a
    /// whole pipelined response train in one buffer this way.
    pub(crate) fn write_bytes_into(&self, out: &mut Vec<u8>) {
        use std::io::Write as _;
        let mut head_len = "HTTP/1.1 nnn ".len() + self.reason.len() + 2;
        for (k, v) in &self.headers {
            head_len += k.len() + 2 + v.len() + 2;
        }
        out.reserve(head_len + 2 + self.body.len());
        out.extend_from_slice(b"HTTP/1.1 ");
        write!(out, "{}", self.status).expect("vec write");
        out.push(b' ');
        out.extend_from_slice(self.reason.as_bytes());
        out.extend_from_slice(b"\r\n");
        for (k, v) in &self.headers {
            out.extend_from_slice(k.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
    }

    /// Parses wire bytes.
    pub fn from_bytes(data: &[u8]) -> Result<HttpResponse, HttpError> {
        HttpResponseRef::parse(data).map(|r| r.to_owned())
    }
}

/// Assembles a POST wire message in one buffer, byte-identical to
/// [`HttpRequest::post`] + [`HttpRequest::header`] for each `extra`
/// header + [`HttpRequest::to_bytes`] — without building the owned
/// request (two `String`s per header) on the per-call path. An `extra`
/// header's value is given in parts, written back to back, so the
/// caller need not join them into a `String` first.
pub(crate) fn write_post_into(
    out: &mut Vec<u8>,
    path: &str,
    content_type: &str,
    body: &[u8],
    extra: &[(&str, &[&str])],
) {
    use std::io::Write as _;
    let mut head_len =
        "POST  HTTP/1.1\r\n".len() + path.len() + 64 + content_type.len() + body.len();
    for (k, v) in extra {
        head_len += k.len() + 2 + v.iter().map(|part| part.len()).sum::<usize>() + 2;
    }
    out.reserve(head_len);
    out.extend_from_slice(b"POST ");
    out.extend_from_slice(path.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nContent-Type: ");
    out.extend_from_slice(content_type.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    write!(out, "{}", body.len()).expect("vec write");
    out.extend_from_slice(b"\r\nUser-Agent: metaware/0.1\r\nConnection: close\r\n");
    for (k, v) in extra {
        out.extend_from_slice(k.as_bytes());
        out.extend_from_slice(b": ");
        for part in *v {
            out.extend_from_slice(part.as_bytes());
        }
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// HTTP transport failures.
///
/// Network failures stay typed — they carry the underlying
/// [`SimError`], split by whether the request provably never reached
/// the server — so retry classification upstream never depends on
/// message text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The bytes did not parse as HTTP.
    Malformed(&'static str),
    /// The network failed before the request reached the server: the
    /// exchange is guaranteed not to have executed.
    Unreachable(SimError),
    /// The network failed after the request was delivered (the
    /// response was lost in transit): the server may well have
    /// processed the request.
    ResponseLost(SimError),
    /// Non-success status from the server.
    Status(u16, String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed HTTP message: {m}"),
            HttpError::Unreachable(e) => write!(f, "network error before delivery: {e}"),
            HttpError::ResponseLost(e) => write!(f, "network error, response lost: {e}"),
            HttpError::Status(code, body) => write!(f, "HTTP {code}: {body}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// The per-request TCP cost model.
///
/// 2002-era HTTP clients open a fresh connection per request
/// (`Connection: close`), paying the three-way handshake plus slow-start;
/// we charge `handshake_rtts` link round-trips before the request proper.
#[derive(Debug, Clone, Copy)]
pub struct TcpModel {
    /// Round trips charged for connection establishment + teardown.
    pub handshake_rtts: u32,
    /// Fixed per-request processing charged on the server (accept, parse
    /// headers, dispatch).
    pub server_overhead: SimDuration,
    /// When `true`, the client keeps one connection per peer alive
    /// (HTTP/1.1 keep-alive): only the first exchange to a peer pays
    /// the handshake, and a transport fault tears the connection down
    /// so the next exchange pays it again.
    pub persistent: bool,
}

impl Default for TcpModel {
    fn default() -> Self {
        TcpModel {
            handshake_rtts: 2, // SYN/SYN-ACK/ACK + FIN exchange, amortised
            server_overhead: SimDuration::from_micros(300),
            persistent: false,
        }
    }
}

impl TcpModel {
    /// The default cost model with persistent per-peer connections —
    /// the multiplexed wire path's transport, as opposed to 2002's
    /// connect-per-call.
    pub fn persistent() -> Self {
        TcpModel {
            persistent: true,
            ..TcpModel::default()
        }
    }
}

/// A route handler: consumes a request, produces a response, and may
/// charge CPU time on the `Sim` clock.
pub type RouteHandler = Box<dyn FnMut(&Sim, &HttpRequest) -> HttpResponse + Send>;

/// A zero-copy route handler: reads the request in place (borrowed
/// tier) and returns lean [`ResponseParts`] the server serialises
/// straight into the response train.
pub type ZeroRouteHandler =
    Box<dyn for<'a> FnMut(&Sim, &HttpRequestRef<'a>) -> ResponseParts + Send>;

enum Route {
    Owned(RouteHandler),
    Zero(ZeroRouteHandler),
}

/// What a zero-copy route handler returns: just the pieces that vary.
/// The server writes the status line and standard headers directly into
/// the response buffer, producing byte-identical wire output to the
/// owned [`HttpResponse::ok`]/[`HttpResponse::error`] constructors
/// without building their header `String`s.
#[derive(Debug)]
pub struct ResponseParts {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Entity body.
    pub body: Vec<u8>,
    /// Whether to stamp the `Server:` header ([`HttpResponse::ok`]
    /// does, [`HttpResponse::error`] does not).
    server_header: bool,
}

impl ResponseParts {
    /// A 200 OK (wire-identical to [`HttpResponse::ok`]).
    pub fn ok(content_type: &'static str, body: impl Into<Vec<u8>>) -> ResponseParts {
        ResponseParts {
            status: 200,
            reason: "OK",
            content_type,
            body: body.into(),
            server_header: true,
        }
    }

    /// An error status (wire-identical to [`HttpResponse::error`] with
    /// the given content type).
    pub fn error(
        status: u16,
        reason: &'static str,
        content_type: &'static str,
        body: impl Into<Vec<u8>>,
    ) -> ResponseParts {
        ResponseParts {
            status,
            reason,
            content_type,
            body: body.into(),
            server_header: false,
        }
    }

    /// Serialises into the response train, echoing `corr` last — the
    /// same position the owned tier gives a correlation header pushed
    /// after construction.
    fn write_into(&self, out: &mut Vec<u8>, corr: Option<&str>) {
        use std::io::Write as _;
        out.reserve(96 + self.content_type.len() + self.body.len());
        out.extend_from_slice(b"HTTP/1.1 ");
        write!(out, "{}", self.status).expect("vec write");
        out.push(b' ');
        out.extend_from_slice(self.reason.as_bytes());
        out.extend_from_slice(b"\r\nContent-Type: ");
        out.extend_from_slice(self.content_type.as_bytes());
        out.extend_from_slice(b"\r\nContent-Length: ");
        write!(out, "{}", self.body.len()).expect("vec write");
        out.extend_from_slice(b"\r\n");
        if self.server_header {
            out.extend_from_slice(b"Server: metaware/0.1\r\n");
        }
        if let Some(id) = corr {
            out.extend_from_slice(CORR_HEADER.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(id.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
    }
}

/// A simulated HTTP server bound to one network node.
#[derive(Clone)]
pub struct HttpServer {
    node: NodeId,
    routes: Arc<Mutex<HashMap<String, Route>>>,
}

impl HttpServer {
    /// Binds a server on `net`, attaching a new node with `label`.
    pub fn bind(net: &Network, label: &str, tcp: TcpModel) -> HttpServer {
        let node = net.attach(label);
        let routes: Arc<Mutex<HashMap<String, Route>>> = Arc::new(Mutex::new(HashMap::new()));
        let routes2 = routes.clone();
        net.set_request_handler(node, move |sim, frame: &Frame| {
            // A payload may carry several pipelined requests; each is
            // self-delimiting (Content-Length) and each pays the
            // per-request server overhead. Every request is parsed on
            // the borrowed tier; owned-route handlers get a
            // materialised request, zero-copy routes read in place.
            let mut data: &[u8] = &frame.payload;
            let mut train: Vec<u8> = Vec::new();
            // Where each response after the first begins in the train:
            // empty, and so never allocated, for a lone request.
            let mut later: Vec<usize> = Vec::new();
            loop {
                sim.advance(tcp.server_overhead);
                if !train.is_empty() {
                    later.push(train.len());
                }
                // One scan of the head frames the message and finds its
                // start line, header block and correlation id.
                let framed = Head::scan(data).and_then(|head| {
                    let len = head.message_len(data.len())?;
                    Ok((head, len))
                });
                let (head, (msg, rest)) = match framed {
                    Ok((head, len)) => (head, data.split_at(len)),
                    Err(e) => {
                        ResponseParts::error(400, "Bad Request", "text/plain", e.to_string())
                            .write_into(&mut train, None);
                        break;
                    }
                };
                match HttpRequestRef::from_head(&head, &msg[head.body_at..]) {
                    Ok(req) => {
                        // The correlation id is echoed so the client
                        // can match responses regardless of completion
                        // order.
                        let corr = head.corr;
                        let mut routes = routes2.lock();
                        match routes.get_mut(req.path) {
                            Some(Route::Zero(h)) => {
                                h(sim, &req).write_into(&mut train, corr);
                            }
                            Some(Route::Owned(h)) => {
                                let owned = req.to_owned();
                                let mut resp = h(sim, &owned);
                                if let Some(id) = corr {
                                    resp.headers.push((CORR_HEADER.into(), id.to_owned()));
                                }
                                resp.write_bytes_into(&mut train);
                            }
                            None => {
                                let mut body = String::with_capacity(15 + req.path.len());
                                body.push_str("no handler for ");
                                body.push_str(req.path);
                                ResponseParts::error(404, "Not Found", "text/plain", body)
                                    .write_into(&mut train, corr);
                            }
                        }
                    }
                    Err(e) => {
                        ResponseParts::error(400, "Bad Request", "text/plain", e.to_string())
                            .write_into(&mut train, None);
                    }
                }
                data = rest;
                if data.is_empty() {
                    break;
                }
            }
            // A pipelined server may finish requests in any order; we
            // reverse deliberately so clients must correlate by id
            // instead of assuming FIFO.
            if !later.is_empty() {
                let mut out = Vec::with_capacity(train.len());
                let mut end = train.len();
                for &start in later.iter().rev() {
                    out.extend_from_slice(&train[start..end]);
                    end = start;
                }
                out.extend_from_slice(&train[..end]);
                return Ok(Bytes::from(out));
            }
            Ok(Bytes::from(train))
        })
        .expect("node attached above");
        HttpServer { node, routes }
    }

    /// The node this server listens on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Registers (or replaces) the handler for `path`.
    pub fn route(
        &self,
        path: impl Into<String>,
        handler: impl FnMut(&Sim, &HttpRequest) -> HttpResponse + Send + 'static,
    ) {
        self.routes
            .lock()
            .insert(path.into(), Route::Owned(Box::new(handler)));
    }

    /// Registers (or replaces) a zero-copy handler for `path`: it reads
    /// the request through [`HttpRequestRef`] (no per-request
    /// materialisation) and returns [`ResponseParts`] serialised in
    /// place.
    pub fn route_zero(
        &self,
        path: impl Into<String>,
        handler: impl for<'a> FnMut(&Sim, &HttpRequestRef<'a>) -> ResponseParts + Send + 'static,
    ) {
        self.routes
            .lock()
            .insert(path.into(), Route::Zero(Box::new(handler)));
    }

    /// Removes the handler for `path`.
    pub fn unroute(&self, path: &str) {
        self.routes.lock().remove(path);
    }
}

impl fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HttpServer")
            .field("node", &self.node)
            .field("routes", &self.routes.lock().len())
            .finish()
    }
}

/// A simulated HTTP client bound to one network node.
#[derive(Debug, Clone)]
pub struct HttpClient {
    net: Network,
    node: NodeId,
    tcp: TcpModel,
    /// Peers with an established connection (persistent mode only).
    /// Shared across clones so every handle to the same node reuses
    /// the same connections.
    conns: Arc<Mutex<HashSet<NodeId>>>,
}

impl HttpClient {
    /// Creates a client that sends from `node` on `net`.
    pub fn new(net: &Network, node: NodeId, tcp: TcpModel) -> HttpClient {
        HttpClient {
            net: net.clone(),
            node,
            tcp,
            conns: Arc::new(Mutex::new(HashSet::new())),
        }
    }

    /// Attaches a fresh node and wraps it in a client.
    pub fn attach(net: &Network, label: &str, tcp: TcpModel) -> HttpClient {
        let node = net.attach(label);
        HttpClient::new(net, node, tcp)
    }

    /// The node this client sends from.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Charges connection establishment unless a persistent connection
    /// to `server` is already up. Every handshake is counted in the
    /// network's [`simnet::NetStats`] so benches can report connection
    /// churn.
    fn connect(&self, sim: &Sim, server: NodeId) {
        if self.tcp.persistent && self.conns.lock().contains(&server) {
            return;
        }
        // Per-request TCP connection (Connection: close, as in 2002) —
        // or the first exchange on a persistent connection.
        let rtt = self.net.link().latency * 2;
        sim.advance(rtt * u64::from(self.tcp.handshake_rtts));
        self.net.with_stats(|s| s.record_conn_open());
        if self.tcp.persistent {
            self.conns.lock().insert(server);
        }
    }

    /// One raw exchange: connect (if needed), send `payload`, return
    /// the raw response bytes. A transport fault tears a persistent
    /// connection down, so the next exchange pays a fresh handshake.
    fn exchange(&self, server: NodeId, payload: Vec<u8>) -> Result<Bytes, HttpError> {
        let sim = self.net.sim().clone();
        self.connect(&sim, server);
        self.net
            .request(self.node, server, Protocol::Http, payload)
            .map_err(|e| {
                if self.tcp.persistent {
                    self.conns.lock().remove(&server);
                }
                // The client knows its own node, so it can tell a
                // request-leg failure (server never saw the request)
                // from a lost response (it may have executed).
                if e.before_delivery(self.node) {
                    HttpError::Unreachable(e)
                } else {
                    HttpError::ResponseLost(e)
                }
            })
    }

    /// Executes one HTTP exchange, charging connection setup plus both
    /// transfer legs to the virtual clock.
    pub fn send(&self, server: NodeId, req: &HttpRequest) -> Result<HttpResponse, HttpError> {
        let raw = self.exchange(server, req.to_bytes())?;
        HttpResponse::from_bytes(&raw)
    }

    /// One exchange over pre-assembled wire bytes, returning the raw
    /// response for the caller to parse on the borrowed tier — the
    /// zero-copy twin of [`HttpClient::send`].
    pub(crate) fn send_raw(&self, server: NodeId, payload: Vec<u8>) -> Result<Bytes, HttpError> {
        self.exchange(server, payload)
    }

    /// Pipelines several requests over one exchange: all requests go
    /// out back-to-back on one connection, the server may finish them
    /// in any order, and responses are matched back to their requests
    /// by correlation id. Returns responses in *request* order. The
    /// whole pipeline shares one transport fate: a network error fails
    /// every request in it.
    pub fn send_pipelined(
        &self,
        server: NodeId,
        reqs: &[HttpRequest],
    ) -> Result<Vec<HttpResponse>, HttpError> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        // Each request is written with its correlation id appended in
        // place — no clone of the request (body included) just to tag
        // it with one extra header.
        let mut payload = Vec::new();
        let mut id = String::with_capacity(4);
        for (i, req) in reqs.iter().enumerate() {
            use std::fmt::Write as _;
            id.clear();
            write!(id, "{i}").expect("string write");
            req.write_bytes_into(&mut payload, Some((CORR_HEADER, &id)));
        }
        let raw = self.exchange(server, payload)?;
        let mut slots: Vec<Option<HttpResponse>> = vec![None; reqs.len()];
        let mut data: &[u8] = &raw;
        while !data.is_empty() {
            let head = Head::scan(data)?;
            let (msg, rest) = data.split_at(head.message_len(data.len())?);
            let resp = HttpResponseRef::from_head(&head, &msg[head.body_at..])?.to_owned();
            let idx = head
                .corr
                .and_then(|id| id.parse::<usize>().ok())
                .filter(|i| *i < slots.len())
                .ok_or(HttpError::Malformed("missing or bad correlation id"))?;
            if slots[idx].is_some() {
                return Err(HttpError::Malformed("duplicate correlation id"));
            }
            slots[idx] = Some(resp);
            data = rest;
        }
        slots
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or(HttpError::Malformed("missing pipelined response"))
    }

    /// `send` + non-2xx as error.
    pub fn send_expect_ok(
        &self,
        server: NodeId,
        req: &HttpRequest,
    ) -> Result<HttpResponse, HttpError> {
        let resp = self.send(server, req)?;
        if resp.is_success() {
            Ok(resp)
        } else {
            Err(HttpError::Status(
                resp.status,
                body_str(&resp.body).into_owned(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_wire_round_trip() {
        let req = HttpRequest::post("/soap", "text/xml", "<x/>").header("SOAPAction", "\"\"");
        let back = HttpRequest::from_bytes(&req.to_bytes()).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.get_header("soapaction"), Some("\"\""));
        assert_eq!(back.get_header("content-length"), Some("4"));
    }

    #[test]
    fn response_wire_round_trip() {
        let resp = HttpResponse::ok("text/xml", "<ok/>");
        let back = HttpResponse::from_bytes(&resp.to_bytes()).unwrap();
        assert_eq!(back, resp);
        assert!(back.is_success());
        assert!(!HttpResponse::not_found("/x").is_success());
    }

    #[test]
    fn malformed_wire_data_rejected() {
        assert!(HttpRequest::from_bytes(b"garbage").is_err());
        assert!(HttpRequest::from_bytes(b"GET\r\n\r\n").is_err());
        assert!(HttpResponse::from_bytes(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
        assert!(HttpRequest::from_bytes(b"GET / SPDY/9\r\n\r\n").is_err());
        assert!(HttpRequest::from_bytes(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n").is_err());
    }

    #[test]
    fn server_routes_and_404s() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let server = HttpServer::bind(&net, "web", TcpModel::default());
        server.route("/hello", |_, req| {
            HttpResponse::ok("text/plain", format!("hi via {}", req.method))
        });
        let client = HttpClient::attach(&net, "pc", TcpModel::default());
        let resp = client
            .send(server.node(), &HttpRequest::get("/hello"))
            .unwrap();
        assert_eq!(resp.body, b"hi via GET");
        let resp = client
            .send(server.node(), &HttpRequest::get("/nope"))
            .unwrap();
        assert_eq!(resp.status, 404);
        assert!(client
            .send_expect_ok(server.node(), &HttpRequest::get("/nope"))
            .is_err());
    }

    #[test]
    fn exchange_charges_handshake_and_transfer() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let server = HttpServer::bind(&net, "web", TcpModel::default());
        server.route("/", |_, _| HttpResponse::ok("text/plain", "x"));
        let client = HttpClient::attach(&net, "pc", TcpModel::default());
        let before = sim.now();
        client.send(server.node(), &HttpRequest::get("/")).unwrap();
        let elapsed = sim.now() - before;
        // 2 handshake RTTs (800us) + 2 transfer legs (>=400us) + server
        // overhead (300us) on 100Mb Ethernet with 200us latency.
        assert!(elapsed.as_micros() >= 1_500, "elapsed {elapsed}");
        assert!(elapsed.as_millis() < 10, "elapsed {elapsed}");
    }

    #[test]
    fn persistent_connection_pays_one_handshake() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let server = HttpServer::bind(&net, "web", TcpModel::default());
        server.route("/", |_, _| HttpResponse::ok("text/plain", "x"));
        let client = HttpClient::attach(&net, "pc", TcpModel::persistent());
        let before = sim.now();
        client.send(server.node(), &HttpRequest::get("/")).unwrap();
        let first = sim.now() - before;
        let before = sim.now();
        client.send(server.node(), &HttpRequest::get("/")).unwrap();
        let second = sim.now() - before;
        // Second exchange skips the 2-RTT handshake (800us here).
        assert!(
            second.as_micros() + 800 <= first.as_micros(),
            "first {first}, second {second}"
        );
        assert_eq!(net.with_stats(|s| s.conns_opened()), 1);
    }

    #[test]
    fn connect_per_call_opens_a_connection_every_time() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let server = HttpServer::bind(&net, "web", TcpModel::default());
        server.route("/", |_, _| HttpResponse::ok("text/plain", "x"));
        let client = HttpClient::attach(&net, "pc", TcpModel::default());
        for _ in 0..3 {
            client.send(server.node(), &HttpRequest::get("/")).unwrap();
        }
        assert_eq!(net.with_stats(|s| s.conns_opened()), 3);
    }

    #[test]
    fn pipelined_responses_correlate_despite_reordering() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let server = HttpServer::bind(&net, "web", TcpModel::default());
        server.route("/echo", |_, req| {
            HttpResponse::ok("text/plain", req.body.clone())
        });
        let client = HttpClient::attach(&net, "pc", TcpModel::persistent());
        let reqs: Vec<HttpRequest> = (0..4)
            .map(|i| HttpRequest::post("/echo", "text/plain", format!("body-{i}")))
            .collect();
        let resps = client.send_pipelined(server.node(), &reqs).unwrap();
        assert_eq!(resps.len(), 4);
        // The server reverses completion order, so matching in request
        // order proves correlation really happened.
        for (i, resp) in resps.iter().enumerate() {
            assert_eq!(resp.body, format!("body-{i}").into_bytes());
        }
        // One connection, one request frame for the whole pipeline.
        assert_eq!(net.with_stats(|s| s.conns_opened()), 1);
    }

    #[test]
    fn pipelined_batch_is_cheaper_than_serial_sends() {
        let elapsed_for = |pipelined: bool| {
            let sim = Sim::new(1);
            let net = Network::ethernet(&sim);
            let server = HttpServer::bind(&net, "web", TcpModel::default());
            server.route("/x", |_, _| HttpResponse::ok("text/plain", "ok"));
            let tcp = if pipelined {
                TcpModel::persistent()
            } else {
                TcpModel::default()
            };
            let client = HttpClient::attach(&net, "pc", tcp);
            let reqs: Vec<HttpRequest> = (0..8)
                .map(|_| HttpRequest::post("/x", "text/plain", "b"))
                .collect();
            let before = sim.now();
            if pipelined {
                let resps = client.send_pipelined(server.node(), &reqs).unwrap();
                assert!(resps.iter().all(|r| r.is_success()));
            } else {
                for req in &reqs {
                    assert!(client.send(server.node(), req).unwrap().is_success());
                }
            }
            (sim.now() - before).as_micros()
        };
        let serial = elapsed_for(false);
        let batched = elapsed_for(true);
        assert!(
            batched * 3 < serial,
            "pipelined {batched}us vs serial {serial}us"
        );
    }

    #[test]
    fn body_str_borrows_valid_utf8_and_matches_lossy_otherwise() {
        assert!(matches!(
            body_str(b"<ok/> \xc3\xa9"),
            Cow::Borrowed("<ok/> \u{e9}")
        ));
        for bytes in [&b"\xff<a/>"[..], b"a\xc3", b"\xed\xa0\x80x", b""] {
            assert_eq!(body_str(bytes), String::from_utf8_lossy(bytes), "{bytes:?}");
        }
    }

    #[test]
    fn unroute_removes_handler() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let server = HttpServer::bind(&net, "web", TcpModel::default());
        server.route("/x", |_, _| HttpResponse::ok("text/plain", ""));
        server.unroute("/x");
        let client = HttpClient::attach(&net, "pc", TcpModel::default());
        let resp = client.send(server.node(), &HttpRequest::get("/x")).unwrap();
        assert_eq!(resp.status, 404);
    }
}
