//! HTTP framing on the server's receive path, pinned as a table.
//!
//! Each row sends one raw payload (possibly a pipelined train of
//! several requests) to an `HttpServer` and compares the raw response
//! train byte for byte. The rows cover the corners of the head scan:
//! missing, non-numeric and duplicated `Content-Length`, truncated
//! bodies, LF-only line endings, header lines without a colon, the
//! correlation id in any letter case, and a pipelined train that the
//! server answers in reverse order.

use simnet::{Network, Protocol, Sim};
use soap::{HttpResponse, HttpServer, ResponseParts, TcpModel};

/// A server with an owned echo route and a zero-copy echo route.
fn server(net: &Network) -> HttpServer {
    let server = HttpServer::bind(net, "web", TcpModel::default());
    server.route("/echo", |_, req| {
        let body = format!(
            "{} {} h={} b={}",
            req.method,
            req.path,
            req.headers.len(),
            String::from_utf8_lossy(&req.body)
        );
        HttpResponse::ok("text/plain", body)
    });
    server.route_zero("/zero", |_, req| {
        let body = format!(
            "{} {} probe={:?} b={}",
            req.method,
            req.path,
            req.get_header("x-probe"),
            String::from_utf8_lossy(req.body)
        );
        ResponseParts::ok("text/plain", body)
    });
    server
}

/// The raw response train the server sends back for `payload`.
fn exchange(payload: &[u8]) -> String {
    let sim = Sim::new(1);
    let net = Network::ethernet(&sim);
    let server = server(&net);
    let client = net.attach("pc");
    let raw = net
        .request(client, server.node(), Protocol::Http, payload.to_vec())
        .expect("the simulated link is reliable");
    String::from_utf8(raw.to_vec()).expect("responses are text")
}

fn ok(body: &str, corr: Option<&str>) -> String {
    let corr = corr.map_or(String::new(), |c| format!("X-Corr-Id: {c}\r\n"));
    format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\
         Server: metaware/0.1\r\n{corr}\r\n{body}",
        body.len()
    )
}

fn error(status: &str, body: &str, corr: Option<&str>) -> String {
    let corr = corr.map_or(String::new(), |c| format!("X-Corr-Id: {c}\r\n"));
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n{corr}\r\n{body}",
        body.len()
    )
}

fn bad(reason: &str) -> String {
    error(
        "400 Bad Request",
        &format!("malformed HTTP message: {reason}"),
        None,
    )
}

#[test]
fn server_framing_table() {
    let rows: Vec<(&str, &[u8], String)> = vec![
        (
            "one request with a Content-Length",
            b"POST /echo HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi",
            ok("POST /echo h=1 b=hi", None),
        ),
        (
            "no Content-Length: the body runs to the end of the payload",
            b"POST /echo HTTP/1.1\r\nA: b\r\n\r\nhello",
            ok("POST /echo h=1 b=hello", None),
        ),
        (
            "no Content-Length swallows the rest of a train",
            b"POST /echo HTTP/1.1\r\n\r\nx GET /echo HTTP/1.1\r\n\r\n",
            ok("POST /echo h=0 b=x GET /echo HTTP/1.1\r\n\r\n", None),
        ),
        (
            "non-numeric Content-Length counts as absent",
            b"POST /echo HTTP/1.1\r\nContent-Length: abc\r\n\r\nhello",
            ok("POST /echo h=1 b=hello", None),
        ),
        (
            "duplicated Content-Length: the last one frames",
            b"POST /echo HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello",
            ok("POST /echo h=2 b=hello", None),
        ),
        (
            "a non-numeric last Content-Length cancels an earlier one",
            b"POST /echo HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: x\r\n\r\nhello",
            ok("POST /echo h=2 b=hello", None),
        ),
        (
            "Content-Length keys are trimmed and case-insensitive",
            b"POST /echo HTTP/1.1\r\n content-LENGTH : 3 \r\n\r\nabcdef",
            [bad("missing header terminator"), ok("POST /echo h=1 b=abc", None)].concat(),
        ),
        (
            "truncated body",
            b"POST /echo HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
            bad("truncated body"),
        ),
        (
            "a truncated second request ends the train",
            b"POST /echo HTTP/1.1\r\nContent-Length: 1\r\n\r\naPOST /echo HTTP/1.1\r\nContent-Length: 9\r\n\r\nb",
            [bad("truncated body"), ok("POST /echo h=1 b=a", None)].concat(),
        ),
        (
            "LF-only line endings have no header terminator",
            b"POST /echo HTTP/1.1\nContent-Length: 2\n\nhi",
            bad("missing header terminator"),
        ),
        (
            "LF-only header lines before a CRLF terminator are accepted",
            b"GET /echo HTTP/1.1\nA: b\nC: d\r\n\r\n",
            ok("GET /echo h=2 b=", None),
        ),
        (
            "a blank LF line ends the header block but not the length scan",
            b"GET /echo HTTP/1.1\nA: b\n\nContent-Length: 3\r\n\r\nabcdef",
            [bad("missing header terminator"), ok("GET /echo h=1 b=abc", None)].concat(),
        ),
        (
            "a header line without a colon",
            b"GET /echo HTTP/1.1\r\nbroken header\r\n\r\n",
            bad("header without colon"),
        ),
        (
            "a colonless line after the blank line is not a header",
            b"GET /echo HTTP/1.1\nA: b\n\nbroken\r\n\r\n",
            ok("GET /echo h=1 b=", None),
        ),
        (
            "a rejected request does not end the train",
            b"GET /echo HTTP/1.1\r\nbroken\r\nContent-Length: 0\r\n\r\nGET /echo HTTP/1.1\r\nx-corr-id: 4\r\n\r\n",
            [ok("GET /echo h=1 b=", Some("4")), bad("header without colon")].concat(),
        ),
        (
            "the request line needs a method, a path and HTTP/1.x",
            b"GET\r\n\r\n",
            bad("no path"),
        ),
        (
            "an unsupported version",
            b"GET /echo SPDY/9\r\n\r\n",
            bad("unsupported HTTP version"),
        ),
        ("an empty head", b"\r\n\r\n", bad("empty request")),
        (
            "a head that is not UTF-8",
            b"GET /echo HTTP/1.1\r\nA: \xff\r\n\r\n",
            bad("non-UTF8 header block"),
        ),
        (
            "a lower-case correlation id is echoed",
            b"GET /echo HTTP/1.1\r\nx-corr-id: 7\r\n\r\n",
            ok("GET /echo h=1 b=", Some("7")),
        ),
        (
            "the first of two correlation ids is echoed, trimmed",
            b"GET /echo HTTP/1.1\r\nX-CORR-ID:  8 \r\nX-Corr-Id: 9\r\n\r\n",
            ok("GET /echo h=2 b=", Some("8")),
        ),
        (
            "a 404 echoes the correlation id",
            b"GET /nowhere HTTP/1.1\r\nX-Corr-Id: 3\r\n\r\n",
            error("404 Not Found", "no handler for /nowhere", Some("3")),
        ),
        (
            "the zero-copy route sees the header block",
            b"POST /zero HTTP/1.1\r\nX-Probe: p1\r\nContent-Length: 2\r\nX-Corr-Id: 5\r\n\r\nzz",
            ok("POST /zero probe=Some(\"p1\") b=zz", Some("5")),
        ),
        (
            "a 3-request pipelined train is answered in reverse order",
            b"POST /echo HTTP/1.1\r\nContent-Length: 1\r\nX-Corr-Id: 0\r\n\r\na\
              POST /zero HTTP/1.1\r\nContent-Length: 1\r\nx-corr-id: 1\r\n\r\nb\
              POST /echo HTTP/1.1\r\nContent-Length: 1\r\nX-Corr-Id: 2\r\n\r\nc",
            [
                ok("POST /echo h=2 b=c", Some("2")),
                ok("POST /zero probe=None b=b", Some("1")),
                ok("POST /echo h=2 b=a", Some("0")),
            ]
            .concat(),
        ),
    ];
    for (name, payload, want) in rows {
        assert_eq!(exchange(payload), want, "{name}");
    }
}

#[test]
fn message_parse_table() {
    use soap::{HttpRequest, HttpResponse};
    // The owned parsers take the whole buffer as one message: no
    // Content-Length framing, so a short or long body is kept as is.
    let req = HttpRequest::from_bytes(b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\nab").unwrap();
    assert_eq!(req.body, b"ab");
    let req = HttpRequest::from_bytes(b"POST /x HTTP/1.1\nA: b\n\nC\r\n\r\nabc").unwrap();
    assert_eq!(req.headers, vec![("A".to_owned(), "b".to_owned())]);
    assert_eq!(req.body, b"abc");
    let resp = HttpResponse::from_bytes(b"HTTP/1.0 204\r\nx-corr-id: 1\r\n\r\n").unwrap();
    assert_eq!((resp.status, resp.reason.as_str()), (204, ""));
    assert_eq!(resp.get_header("X-Corr-Id"), Some("1"));
    for (raw, want) in [
        (&b"HTTP/1.1 200 OK\n\nbody"[..], "missing header terminator"),
        (b"HTTP/2 200 OK\r\n\r\n", "unsupported HTTP version"),
        (b"HTTP/1.1 abc OK\r\n\r\n", "bad status code"),
        (
            b"HTTP/1.1 200 OK\r\nnocolon\r\n\r\n",
            "header without colon",
        ),
        (b"\r\n\r\n", "empty response"),
    ] {
        assert_eq!(
            HttpResponse::from_bytes(raw).unwrap_err(),
            soap::HttpError::Malformed(want),
            "{raw:?}"
        );
    }
}
