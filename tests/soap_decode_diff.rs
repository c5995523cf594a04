//! Differential test of the XML parser and the SOAP envelope decoders
//! against a tree-path oracle.
//!
//! The oracle lives in this file only: a recursive-descent parser that
//! builds the borrowed element tree, and envelope decoders that walk
//! that tree (find the `Body`, decode each argument element, read a
//! fault's children by name). The production decoders must agree with
//! it on every input of a corpus made of
//!
//! * the request and response payloads of the wire-golden calls (three
//!   single calls and one batch, through a real SOAP gateway),
//! * the WSDL goldens under `tests/wsdl_goldens/`,
//! * hand-written envelopes for the decoders' corners, and
//! * a deterministic, seeded mutation set over all of the above: byte
//!   flips, truncations, inserted whitespace, comments, processing
//!   instructions and CDATA, entity escapes, reordered `Header`/`Body`
//!   and fault children, self-closing and `xsi:nil` values, and text
//!   mixed with element children.
//!
//! Agreement means: the same `ErrorKind` at the same byte offset or the
//! same tree from `parse_ref`; the same call or the same `SoapError`
//! from `RpcCall::from_envelope`; and the same return value or the same
//! `SoapError` from the client's response decoder, `response_value`.

use metaware::protocol::{Soap11, VsgProtocol, VsgRequest};
use metaware::trace::{SpanId, TraceContext, TraceId};
use metaware::MetaError;
use minixml::{ElemRef, ErrorKind, NodeRef, ParseError};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{Network, Protocol, Sim};
use soap::{fault_envelope, response_envelope, Fault, RpcCall, SoapError, Value, ValueError};
use std::borrow::Cow;
use std::sync::Arc;

// ---- the oracle ---------------------------------------------------------

/// The recursive-descent parser the pull tokenizer replaced.
mod oracle_xml {
    use super::*;

    pub fn parse(input: &str) -> Result<ElemRef<'_>, ParseError> {
        let mut p = P { input, pos: 0 };
        p.skip_misc();
        let root = p.element()?;
        p.skip_misc();
        if p.pos < input.len() {
            return Err(p.err(ErrorKind::TrailingContent));
        }
        Ok(root)
    }

    struct P<'a> {
        input: &'a str,
        pos: usize,
    }

    impl<'a> P<'a> {
        fn err(&self, kind: ErrorKind) -> ParseError {
            ParseError { at: self.pos, kind }
        }
        fn rest(&self) -> &'a str {
            &self.input[self.pos..]
        }
        fn at(&self, s: &str) -> bool {
            self.rest().starts_with(s)
        }
        fn skip_ws(&mut self) {
            self.pos = self.input.len() - self.rest().trim_start().len();
        }
        fn skip_until(&mut self, end: &str, kind: ErrorKind) -> Result<(), ParseError> {
            match self.rest().find(end) {
                Some(i) => {
                    self.pos += i + end.len();
                    Ok(())
                }
                None => Err(self.err(kind)),
            }
        }
        fn skip_misc(&mut self) {
            loop {
                self.skip_ws();
                let r = if self.at("<?") {
                    self.skip_until("?>", ErrorKind::UnterminatedPi)
                } else if self.at("<!--") {
                    self.skip_until("-->", ErrorKind::UnterminatedComment)
                } else if self.at("<!DOCTYPE") {
                    self.skip_until(">", ErrorKind::UnterminatedDoctype)
                } else {
                    return;
                };
                if r.is_err() {
                    self.pos = self.input.len();
                    return;
                }
            }
        }
        fn name(&mut self) -> Result<&'a str, ParseError> {
            let rest = self.rest();
            let end = rest
                .char_indices()
                .find(|(_, c)| !(c.is_alphanumeric() || matches!(c, ':' | '_' | '-' | '.')))
                .map_or(rest.len(), |(i, _)| i);
            if end == 0 {
                return Err(self.err(ErrorKind::ExpectedName));
            }
            self.pos += end;
            Ok(&rest[..end])
        }
        fn element(&mut self) -> Result<ElemRef<'a>, ParseError> {
            if !self.at("<") {
                return Err(self.err(ErrorKind::ExpectedElement));
            }
            self.pos += 1;
            let mut el = ElemRef {
                name: self.name()?,
                ..ElemRef::default()
            };
            loop {
                self.skip_ws();
                if self.at("/>") {
                    self.pos += 2;
                    return Ok(el);
                }
                if self.at(">") {
                    self.pos += 1;
                    break;
                }
                let key = self.name()?;
                self.skip_ws();
                if !self.at("=") {
                    return Err(self.err(ErrorKind::AttrMissingEq));
                }
                self.pos += 1;
                self.skip_ws();
                let quote = match self.rest().chars().next() {
                    Some(q @ ('"' | '\'')) => q,
                    _ => return Err(self.err(ErrorKind::AttrValueUnquoted)),
                };
                self.pos += 1;
                let rest = self.rest();
                let end = rest
                    .find(quote)
                    .ok_or_else(|| self.err(ErrorKind::UnterminatedAttrValue))?;
                el.attrs.push((key, minixml::unescape_cow(&rest[..end])));
                self.pos += end + 1;
            }
            loop {
                if self.at("</") {
                    self.pos += 2;
                    if self.name()? != el.name {
                        return Err(self.err(ErrorKind::MismatchedCloseTag));
                    }
                    self.skip_ws();
                    if !self.at(">") {
                        return Err(self.err(ErrorKind::ExpectedCloseAngle));
                    }
                    self.pos += 1;
                    if el.children.iter().any(|c| matches!(c, NodeRef::Element(_))) {
                        el.children.retain(|c| match c {
                            NodeRef::Text(t) => !t.trim().is_empty(),
                            NodeRef::Element(_) => true,
                        });
                    }
                    return Ok(el);
                } else if self.at("<!--") {
                    self.skip_until("-->", ErrorKind::UnterminatedComment)?;
                } else if self.at("<![CDATA[") {
                    self.pos += "<![CDATA[".len();
                    let rest = self.rest();
                    let end = rest
                        .find("]]>")
                        .ok_or_else(|| self.err(ErrorKind::UnterminatedCdata))?;
                    el.children.push(NodeRef::Text(rest[..end].into()));
                    self.pos += end + 3;
                } else if self.at("<?") {
                    self.skip_until("?>", ErrorKind::UnterminatedPi)?;
                } else if self.at("<") {
                    let child = self.element()?;
                    el.children.push(NodeRef::Element(child));
                } else if self.pos >= self.input.len() {
                    return Err(self.err(ErrorKind::UnexpectedEof));
                } else {
                    let rest = self.rest();
                    let end = rest.find('<').unwrap_or(rest.len());
                    let text = minixml::unescape_cow(&rest[..end]);
                    if !text.is_empty() {
                        el.children.push(NodeRef::Text(text));
                    }
                    self.pos += end;
                }
            }
        }
    }
}

/// The envelope decoders that walked the element tree.
mod oracle_soap {
    use super::*;

    fn value_error(message: String) -> ValueError {
        ValueError { message }
    }

    pub fn value(e: &ElemRef<'_>) -> Result<Value, ValueError> {
        let ty = e.get_attr("xsi:type").unwrap_or("xsd:string");
        if e.get_attr("xsi:nil") == Some("true") || ty == "xsi:null" {
            return Ok(Value::Null);
        }
        let text = || e.text_content();
        match ty {
            "xsd:boolean" => match text().trim() {
                "true" | "1" => Ok(Value::Bool(true)),
                "false" | "0" => Ok(Value::Bool(false)),
                other => Err(value_error(format!("bad boolean '{other}'"))),
            },
            "xsd:int" | "xsd:long" | "xsd:short" | "xsd:byte" => text()
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| value_error(format!("bad integer '{}'", text()))),
            "xsd:double" | "xsd:float" | "xsd:decimal" => text()
                .trim()
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| value_error(format!("bad double '{}'", text()))),
            "xsd:string" => Ok(Value::Str(text().into_owned())),
            "SOAP-ENC:base64" | "xsd:base64Binary" => soap::base64_decode(text().trim())
                .map(Value::Bytes)
                .ok_or_else(|| value_error("bad base64 payload".into())),
            "SOAP-ENC:Array" => e
                .elements()
                .map(value)
                .collect::<Result<Vec<_>, _>>()
                .map(Value::List),
            "SOAP-ENC:Struct" => e
                .elements()
                .map(|c| value(c).map(|v| (c.local_name().to_owned(), v)))
                .collect::<Result<Vec<_>, _>>()
                .map(Value::Record),
            other => Err(value_error(format!("unsupported xsi:type '{other}'"))),
        }
    }

    fn fault(e: &ElemRef<'_>) -> Option<Fault> {
        if e.local_name() != "Fault" {
            return None;
        }
        let code = soap::FaultCode::from_qname(&e.find("faultcode")?.text_content())?;
        let string = e.find("faultstring")?.text_content().into_owned();
        let detail = e.find("detail").map(|d| d.text_content().into_owned());
        Some(Fault {
            code,
            string,
            detail,
        })
    }

    fn body<'a, 'd>(root: &'a ElemRef<'d>) -> Result<&'a ElemRef<'d>, SoapError> {
        if root.local_name() != "Envelope" {
            return Err(SoapError::Malformed(format!(
                "root element is <{}>, not an Envelope",
                root.name
            )));
        }
        root.find("Body")
            .ok_or_else(|| SoapError::Malformed("Envelope has no Body".into()))
    }

    pub fn call(doc: &str) -> Result<RpcCall, SoapError> {
        let root = oracle_xml::parse(doc).map_err(SoapError::Xml)?;
        let headers = root
            .find("Header")
            .map(|h| {
                h.elements()
                    .map(|e| (e.local_name().to_owned(), e.text_content().into_owned()))
                    .collect()
            })
            .unwrap_or_default();
        let call = body(&root)?
            .elements()
            .next()
            .ok_or_else(|| SoapError::Malformed("empty SOAP body".into()))?;
        let namespace = call
            .attrs
            .iter()
            .find(|(k, _)| k.starts_with("xmlns"))
            .map(|(_, v)| v.clone().into_owned())
            .unwrap_or_default();
        let args = call
            .elements()
            .map(|a| value(a).map(|v| (a.local_name().to_owned(), v)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(SoapError::Value)?;
        Ok(RpcCall {
            namespace,
            method: call.local_name().to_owned(),
            args,
            headers,
        })
    }

    pub fn response(doc: &str) -> Result<Value, SoapError> {
        let root = oracle_xml::parse(doc).map_err(SoapError::Xml)?;
        let first = body(&root)?
            .elements()
            .next()
            .ok_or_else(|| SoapError::Malformed("empty SOAP body".into()))?;
        if let Some(f) = fault(first) {
            return Err(SoapError::Fault(f));
        }
        match first.find("return") {
            Some(r) => value(r).map_err(SoapError::Value),
            None => Ok(Value::Null),
        }
    }
}

// ---- the corpus ---------------------------------------------------------

/// The wire-golden requests (see `tests/wire_goldens.rs`).
fn golden_requests() -> Vec<VsgRequest> {
    let mut traced = VsgRequest::new("living-room-vcr", "record")
        .arg("channel", 42)
        .arg("title", "News & <Weather>")
        .arg("immediate", true)
        .arg("gain", 1.5)
        .arg("tape", Value::Bytes(vec![0, 1, 254, 255]))
        .arg(
            "tags",
            Value::List(vec![Value::Str("tv".into()), Value::Null]),
        )
        .arg("nested", Value::Record(vec![("x".into(), Value::Int(-7))]));
    traced.trace = Some(TraceContext {
        trace: TraceId(0xabcdef),
        parent: SpanId(0x1234),
    });
    vec![
        VsgRequest::new("hall-lamp", "status"),
        VsgRequest::new("hall-lamp", "switch").arg("on", true),
        traced,
    ]
}

fn http_body(payload: &[u8]) -> String {
    let sep = payload
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("an HTTP message");
    String::from_utf8(payload[sep + 4..].to_vec()).expect("SOAP bodies are UTF-8")
}

/// The SOAP bodies of the wire-golden calls: each request as the
/// client sends it, and each response as a real gateway answers it (an
/// echo of the arguments, a fault for `status`, a list for the batch).
fn wire_payloads() -> Vec<String> {
    let sim = Sim::new(1);
    let net = Network::ethernet(&sim);
    let p = Soap11::new();
    let seen: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
    let seen2 = seen.clone();
    let tap = net.attach("tap");
    net.set_request_handler(tap, move |_sim, frame| {
        seen2.lock().push(frame.payload.to_vec());
        Ok(frame.payload.clone())
    })
    .unwrap();
    let client = net.attach("c");
    let rs = golden_requests();
    for r in &rs {
        let _ = p.call(&net, client, tap, r);
    }
    let _ = p.call_batch(&net, client, tap, &rs);
    let requests = seen.lock().clone();
    assert_eq!(requests.len(), 4, "three calls and one batch");

    let gateway = p.bind(
        &net,
        "gw",
        Arc::new(|_, req: &VsgRequest| match req.operation.as_str() {
            "status" => Err(MetaError::Protocol("lamp & <bulb> gone".into())),
            _ => Ok(Value::Record(req.args.clone())),
        }),
    );
    let mut out = Vec::new();
    for req in &requests {
        let resp = net
            .request(client, gateway, Protocol::Http, req.clone())
            .unwrap();
        out.push(http_body(req));
        out.push(http_body(&resp));
    }
    out
}

fn wsdl_goldens() -> Vec<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/wsdl_goldens");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "xml"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 10, "the WSDL goldens are present");
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect()
}

const OPEN: &str = r#"<?xml version="1.0" encoding="UTF-8"?><SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/" xmlns:xsd="http://www.w3.org/2001/XMLSchema" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">"#;

fn env(inner: &str) -> String {
    format!("{OPEN}{inner}</SOAP-ENV:Envelope>")
}

/// Envelopes for the decoders' corners.
fn edge_envelopes() -> Vec<String> {
    let mut docs: Vec<String> = [
        Value::Null,
        Value::Str(String::new()),
        Value::Str(" ".into()),
        Value::Bytes(Vec::new()),
        Value::List(Vec::new()),
        Value::Record(Vec::new()),
        Value::Float(2.0),
        Value::Float(-0.25),
        Value::Int(i64::MIN),
        Value::Str("a <b> & \"c\" 'd' \u{e9}\u{3042}".into()),
        Value::Record(vec![
            ("l".into(), Value::List(vec![Value::Null, Value::Int(1)])),
            ("b".into(), Value::Bytes(vec![1, 2, 3])),
            ("f".into(), Value::Bool(false)),
        ]),
    ]
    .into_iter()
    .map(|v| response_envelope("probe", &v))
    .collect();
    docs.push(
        RpcCall::new("urn:vsg:gateway", "play")
            .arg("chapter", 1)
            .arg("title", "x & y")
            .header("TraceContext", "1f-2e")
            .header("Empty", "")
            .to_envelope(),
    );
    docs.push(RpcCall::new("urn:x", "ping").to_envelope());
    docs.push(fault_envelope(
        &Fault::server("VCR is on fire").with_detail("tape & <reel>"),
    ));
    docs.push(fault_envelope(&Fault::client("no such method")));
    let body = |inner: &str| env(&format!("<SOAP-ENV:Body>{inner}</SOAP-ENV:Body>"));
    for inner in [
        // Fault children in any order, a fault without a detail, a
        // fault whose code or string is missing or bogus (then it is an
        // ordinary response named "Fault").
        "<SOAP-ENV:Fault><faultstring>s</faultstring><detail>d</detail><faultcode>SOAP-ENV:Client</faultcode></SOAP-ENV:Fault>",
        "<SOAP-ENV:Fault><detail>d</detail><faultcode>Server</faultcode><faultstring>s</faultstring><faultstring>second</faultstring></SOAP-ENV:Fault>",
        "<SOAP-ENV:Fault><faultcode>SOAP-ENV:Bogus</faultcode><faultstring>s</faultstring><return xsi:type=\"xsd:int\">5</return></SOAP-ENV:Fault>",
        "<SOAP-ENV:Fault><faultstring>s</faultstring><return xsi:type=\"xsd:int\">x</return></SOAP-ENV:Fault>",
        "<SOAP-ENV:Fault><faultcode>Client</faultcode><return xsi:type=\"xsd:int\">x</return></SOAP-ENV:Fault>",
        "<SOAP-ENV:Fault><faultcode> Client </faultcode><faultstring> padded <x/> </faultstring></SOAP-ENV:Fault>",
        "<SOAP-ENV:Fault><faultcode>Server</faultcode><faultstring>s</faultstring><return xsi:type=\"xsd:int\">x</return></SOAP-ENV:Fault>",
        // Responses: no return, two returns, return after other
        // children, a bad value in an ignored child.
        "<ns1:mResponse/>",
        "<ns1:mResponse><return xsi:type=\"xsd:int\">1</return><return xsi:type=\"xsd:int\">2</return></ns1:mResponse>",
        "<ns1:mResponse><other xsi:type=\"xsd:int\">bad</other><return>plain</return></ns1:mResponse>",
        "<ns1:mResponse><return xsi:type=\"xsd:int\">bad</return><return>ok</return></ns1:mResponse>",
        // Calls: untyped, nil and self-closing values, mixed text,
        // nested elements under scalars, unsupported types.
        "<ns1:m xmlns:ns1=\"urn:a\"><a>plain</a><b xsi:type=\"xsd:int\" xsi:nil=\"true\">junk</b><c xsi:type=\"xsd:string\"/></ns1:m>",
        "<ns1:m xmlns:ns1=\"urn:a\"><a xsi:type=\"xsd:int\">4<x/>2</a><b xsi:type=\"xsd:string\"> <x/> tail </b></ns1:m>",
        "<ns1:m xmlns:ns1=\"urn:a\"><a xsi:type=\"SOAP-ENC:Array\">text<item xsi:type=\"xsd:int\">1</item>more</a></ns1:m>",
        "<ns1:m xmlns:ns1=\"urn:a\"><a xsi:type=\"vendor:thing\"><b xsi:type=\"xsd:int\">x</b></a></ns1:m>",
        "<ns1:m xmlns:ns1=\"urn:a\"><a xsi:type=\"xsd:int\">x</a><b xsi:type=\"xsd:boolean\">maybe</b></ns1:m>",
        "<ns1:m xmlns:ns1=\"urn:a\"><a xsi:type=\"SOAP-ENC:base64\"> Zm9v\n </a><b xsi:type=\"xsd:double\"> 1e3 </b></ns1:m>",
        "<ns1:m xmlns:ns1=\"urn:a\"><a xsi:type=\"xsi:null\">x</a><b xsi:type=\"xsd:int\" xsi:type=\"xsd:string\">7</b></ns1:m>",
        "<ns1:m xmlns:ns1=\"urn:a\"><a xsi:type=\"xsd:string\"><![CDATA[]]><![CDATA[<raw>]]>&amp;&#x41;<!-- c --> </a></ns1:m>",
        "<m><a xsi:type=\"xsd:string\">&bogus; & &#xZZ;</a></m>",
        "",
        "text only <m/>",
    ] {
        docs.push(body(inner));
    }
    // Structure: Header after Body, no Body, empty Body, two Bodies, a
    // root that is not an Envelope, a prefix-less Envelope.
    docs.push(env(
        "<SOAP-ENV:Body><ns1:m xmlns:ns1=\"urn:a\"/></SOAP-ENV:Body><SOAP-ENV:Header><vsg:T xmlns:vsg=\"urn:vsg:ext\">t</vsg:T><x>a<y/>b</x></SOAP-ENV:Header>",
    ));
    docs.push(env("<SOAP-ENV:Header/>"));
    docs.push(env("<SOAP-ENV:Body> </SOAP-ENV:Body>"));
    docs.push(env(
        "<SOAP-ENV:Body/><SOAP-ENV:Body><ns1:m xmlns:ns1=\"urn:a\"/></SOAP-ENV:Body>",
    ));
    docs.push("<NotAnEnvelope><Body><m/></Body></NotAnEnvelope>".into());
    docs.push("<Envelope><Body><m><a>1</a></m></Body></Envelope>".into());
    docs.push("<a:b:Envelope><Body><m/></Body></a:b:Envelope>".into());
    docs
}

// ---- the mutation set ---------------------------------------------------

const WHITESPACE: &[&str] = &[
    " ", "\n", "\t", "\r\n", "\u{a0}", "\u{b}", "\u{85}", "\u{3000}",
];
const INSERTS: &[&str] = &[
    "<!-- c -->",
    "<!-->",
    "<!---->",
    "<?pi data?>",
    "<?>",
    "<![CDATA[<x & y>]]>",
    "<![CDATA[]]>",
    "&amp;",
    "&#65;",
    "&#x3042;",
    "&lt;",
    "&bogus;",
    "&",
    "<x/>",
    "text",
    "<y>t<z/></y>",
    "</",
    "<",
    ">",
    "<!DOCTYPE d>",
    "]]>",
    "\u{e9}",
];
const FLIPS: &[u8] = b"<>/=\"'&;!?[]- \n:xA0";
const TYPES: &[&str] = &[
    "xsd:int",
    "xsd:string",
    "xsd:boolean",
    "xsd:double",
    "SOAP-ENC:base64",
    "SOAP-ENC:Array",
    "SOAP-ENC:Struct",
    "xsi:null",
    "vendor:odd",
];

fn char_floor(s: &str, mut i: usize) -> usize {
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

/// Moves the first `<tag ...>...</tag>` block (by local name) to just
/// before the closing tag of its parent, or returns `doc` unchanged.
fn move_block_last(doc: &str, open: &str, close: &str, parent_close: &str) -> String {
    let (Some(s), Some(e), Some(p)) = (doc.find(open), doc.find(close), doc.rfind(parent_close))
    else {
        return doc.to_owned();
    };
    let e = e + close.len();
    if !(s < e && e <= p) {
        return doc.to_owned();
    }
    format!("{}{}{}{}", &doc[..s], &doc[e..p], &doc[s..e], &doc[p..])
}

fn mutate(rng: &mut StdRng, doc: &str) -> String {
    let len = doc.len().max(1);
    let at = char_floor(doc, rng.gen_range(0..len).min(doc.len()));
    match rng.gen_range(0..10u32) {
        0 => {
            let mut bytes = doc.as_bytes().to_vec();
            if !bytes.is_empty() {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] = if rng.gen_bool(0.8) {
                    FLIPS[rng.gen_range(0..FLIPS.len())]
                } else {
                    rng.gen()
                };
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        1 => doc[..at].to_owned(),
        2 => format!("{}{}{}", &doc[..at], pick(rng, WHITESPACE), &doc[at..]),
        3 | 4 => format!("{}{}{}", &doc[..at], pick(rng, INSERTS), &doc[at..]),
        5 => match rng.gen_range(0..3u32) {
            0 => move_block_last(
                doc,
                "<SOAP-ENV:Header>",
                "</SOAP-ENV:Header>",
                "</SOAP-ENV:Envelope>",
            ),
            1 => move_block_last(doc, "<faultcode>", "</faultcode>", "</SOAP-ENV:Fault>"),
            _ => move_block_last(doc, "<faultstring>", "</faultstring>", "</SOAP-ENV:Fault>"),
        },
        6 => {
            // A value element becomes self-closing.
            let Some(s) = doc[at..].find("\">").map(|i| at + i + 1) else {
                return doc.to_owned();
            };
            let Some(e) = doc[s..].find("</").map(|i| s + i) else {
                return doc.to_owned();
            };
            let Some(g) = doc[e..].find('>').map(|i| e + i + 1) else {
                return doc.to_owned();
            };
            format!("{}/>{}", &doc[..s], &doc[g..])
        }
        7 => {
            // An attribute lands in a start tag: nil, a type, a namespace.
            let Some(i) = doc[at..].find(" xsi:type=").map(|i| at + i) else {
                return doc.to_owned();
            };
            let attr = match rng.gen_range(0..4u32) {
                0 => " xsi:nil=\"true\"".to_owned(),
                1 => " xsi:nil='false'".to_owned(),
                2 => " xmlns:q=\"urn:q\"".to_owned(),
                _ => format!(" xsi:type=\"{}\"", pick(rng, TYPES)),
            };
            format!("{}{}{}", &doc[..i], attr, &doc[i..])
        }
        8 => {
            // A type label changes.
            let Some(i) = doc[at..].find("xsi:type=\"").map(|i| at + i + 10) else {
                return doc.to_owned();
            };
            let Some(e) = doc[i..].find('"').map(|j| i + j) else {
                return doc.to_owned();
            };
            format!("{}{}{}", &doc[..i], pick(rng, TYPES), &doc[e..])
        }
        _ => {
            // Text mixed with element children, or an element dropped.
            let Some(s) = doc[at..].find('<').map(|i| at + i) else {
                return doc.to_owned();
            };
            if rng.gen_bool(0.5) {
                format!("{}txt<e/> {}", &doc[..s], &doc[s..])
            } else {
                let Some(e) = doc[s..].find('>').map(|i| s + i + 1) else {
                    return doc.to_owned();
                };
                format!("{}{}", &doc[..s], &doc[e..])
            }
        }
    }
}

fn corpus() -> Vec<String> {
    let mut bases = wire_payloads();
    bases.extend(edge_envelopes());
    bases.extend(wsdl_goldens());
    let mut rng = StdRng::seed_from_u64(0x50a9_d1ff);
    let mut out = bases.clone();
    for _ in 0..6000 {
        let mut doc = bases[rng.gen_range(0..bases.len())].clone();
        for _ in 0..rng.gen_range(1..4u32) {
            doc = mutate(&mut rng, &doc);
        }
        out.push(doc);
    }
    out
}

// ---- the comparison -----------------------------------------------------

/// A stable rendering of a decode outcome: `Debug`, so `NaN` payloads
/// compare equal to themselves.
fn show<T: std::fmt::Debug>(r: &T) -> String {
    format!("{r:?}")
}

#[derive(Default)]
struct Tally {
    parse_ok: usize,
    parse_err: usize,
    call_ok: usize,
    resp_ok: usize,
    xml: usize,
    malformed: usize,
    value: usize,
    fault: usize,
}

impl Tally {
    fn note(&mut self, r: &Result<impl Sized, SoapError>, ok: fn(&mut Tally)) {
        match r {
            Ok(_) => ok(self),
            Err(SoapError::Xml(_)) => self.xml += 1,
            Err(SoapError::Malformed(_)) => self.malformed += 1,
            Err(SoapError::Value(_)) => self.value += 1,
            Err(SoapError::Fault(_)) => self.fault += 1,
            Err(SoapError::Http(_)) => unreachable!("no transport here"),
        }
    }
}

#[test]
fn decoders_agree_with_the_tree_path_oracle() {
    let mut tally = Tally::default();
    for doc in corpus() {
        let parsed = minixml::parse_ref(&doc);
        assert_eq!(parsed, oracle_xml::parse(&doc), "parse_ref on {doc:?}");
        match parsed {
            Ok(_) => tally.parse_ok += 1,
            Err(_) => tally.parse_err += 1,
        }

        let call = RpcCall::from_envelope(&doc);
        assert_eq!(show(&call), show(&oracle_soap::call(&doc)), "call {doc:?}");
        tally.note(&call, |t| t.call_ok += 1);

        let resp = soap::response_value(&doc);
        assert_eq!(
            show(&resp),
            show(&oracle_soap::response(&doc)),
            "response {doc:?}"
        );
        tally.note(&resp, |t| t.resp_ok += 1);
    }
    // The corpus reaches every outcome, so agreement means something.
    for (what, n) in [
        ("parsed documents", tally.parse_ok),
        ("parse errors", tally.parse_err),
        ("decoded calls", tally.call_ok),
        ("decoded responses", tally.resp_ok),
        ("XML errors", tally.xml),
        ("malformed envelopes", tally.malformed),
        ("value errors", tally.value),
        ("faults", tally.fault),
    ] {
        assert!(n >= 50, "only {n} {what} in the corpus");
    }
}

#[test]
fn text_runs_keep_their_borrowed_or_owned_shape() {
    // Clean text stays a borrow of the document; an escape forces an
    // owned buffer. The tree shapes agree with the oracle's.
    let doc = "<r a=\"x\">plain<b>&amp;</b><![CDATA[]]></r>";
    let tree = minixml::parse_ref(doc).unwrap();
    assert_eq!(tree, oracle_xml::parse(doc).unwrap());
    assert!(matches!(
        tree.children[0],
        NodeRef::Text(Cow::Borrowed("plain"))
    ));
    let NodeRef::Element(b) = &tree.children[1] else {
        panic!("element child expected");
    };
    assert!(matches!(b.children[0], NodeRef::Text(Cow::Owned(_))));
    assert!(matches!(tree.attrs[0].1, Cow::Borrowed("x")));
}
