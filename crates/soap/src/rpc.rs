//! SOAP 1.1 RPC envelopes: calls, responses, and their wire encoding.

use crate::fault::{Fault, FaultCode};
use crate::http::HttpError;
use crate::value::{read_value, Value, ValueError};
use minixml::{escape_attr_into, escape_text_into, Element, Event, ParseError, Reader, StartTag};
use std::borrow::Cow;
use std::fmt;

const ENVELOPE_NS: &str = "http://schemas.xmlsoap.org/soap/envelope/";
const ENCODING_NS: &str = "http://schemas.xmlsoap.org/soap/encoding/";
const XSD_NS: &str = "http://www.w3.org/2001/XMLSchema";
const XSI_NS: &str = "http://www.w3.org/2001/XMLSchema-instance";

/// An RPC invocation: `method` on the service identified by `namespace`,
/// with named arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcCall {
    /// Target service namespace, e.g. `urn:vsg:vcr`.
    pub namespace: String,
    /// Operation name.
    pub method: String,
    /// Named arguments, in call order.
    pub args: Vec<(String, Value)>,
    /// Out-of-band `SOAP-ENV:Header` entries as `(local-name, text)`
    /// pairs — metadata (e.g. a trace context) that rides the envelope
    /// without polluting the method arguments.
    pub headers: Vec<(String, String)>,
}

impl RpcCall {
    /// Creates a call with no arguments.
    pub fn new(namespace: impl Into<String>, method: impl Into<String>) -> Self {
        RpcCall {
            namespace: namespace.into(),
            method: method.into(),
            args: Vec::new(),
            headers: Vec::new(),
        }
    }

    /// Adds an argument (builder style).
    pub fn arg(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.args.push((name.into(), value.into()));
        self
    }

    /// Adds a header entry (builder style).
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Encodes as a complete SOAP envelope document.
    pub fn to_envelope(&self) -> String {
        call_envelope_with_headers(
            &self.namespace,
            &self.method,
            self.args.iter().map(|(k, v)| (k.as_str(), v)),
            &self.headers,
        )
    }

    /// Decodes a call envelope, streaming: the tokenizer's events go
    /// straight into the owned call, with no element tree in between.
    pub fn from_envelope(doc: &str) -> Result<RpcCall, SoapError> {
        decode_call(doc).map(|(call, _)| call)
    }

    /// Looks up an argument by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.args.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Looks up a header entry by local name.
    pub fn get_header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Decodes the return value of a response envelope (`Value::Null` for
/// void methods), surfacing a carried fault as `Err(SoapError::Fault)`.
/// Streams like [`RpcCall::from_envelope`].
pub fn response_value(doc: &str) -> Result<Value, SoapError> {
    streamed(doc, read_response)
}

/// Encodes the response envelope of `method` returning `value` straight
/// into the output string, with no element tree.
pub fn response_envelope(method: &str, value: &Value) -> String {
    let mut out = String::with_capacity(384);
    write_envelope_open(&mut out, NO_HEADERS);
    out.push_str("<SOAP-ENV:Body><ns1:");
    out.push_str(method);
    out.push_str("Response xmlns:ns1=\"urn:vsg:response\">");
    value.write_xml("return", &mut out);
    out.push_str("</ns1:");
    out.push_str(method);
    out.push_str("Response></SOAP-ENV:Body></SOAP-ENV:Envelope>");
    out
}

/// Encodes a call envelope directly from borrowed parts — bit-identical
/// to building an [`RpcCall`] and calling [`RpcCall::to_envelope`], but
/// without cloning the argument list into an owned value first.
pub fn call_envelope<'a>(
    namespace: &str,
    method: &str,
    args: impl IntoIterator<Item = (&'a str, &'a Value)>,
) -> String {
    call_envelope_with_headers(namespace, method, args, NO_HEADERS)
}

/// Like [`call_envelope`], with `SOAP-ENV:Header` entries. Headers are
/// emitted as text elements in the `urn:vsg:ext` namespace, before the
/// Body as SOAP 1.1 requires.
///
/// The envelope streams straight into the output string — no element
/// tree is built. The output stays byte-identical to serialising the
/// equivalent tree (the equivalence test in this module enforces it).
pub fn call_envelope_with_headers<'a, K: AsRef<str>, V: AsRef<str>>(
    namespace: &str,
    method: &str,
    args: impl IntoIterator<Item = (&'a str, &'a Value)>,
    headers: &[(K, V)],
) -> String {
    let mut out = String::with_capacity(512);
    write_envelope_open(&mut out, headers);
    out.push_str("<SOAP-ENV:Body><ns1:");
    out.push_str(method);
    out.push_str(" xmlns:ns1=\"");
    escape_attr_into(namespace, &mut out);
    out.push('"');
    let mut empty = true;
    for (name, value) in args {
        if empty {
            out.push('>');
            empty = false;
        }
        value.write_xml(name, &mut out);
    }
    if empty {
        out.push_str("/>");
    } else {
        out.push_str("</ns1:");
        out.push_str(method);
        out.push('>');
    }
    out.push_str("</SOAP-ENV:Body></SOAP-ENV:Envelope>");
    out
}

/// Type hint for header-less streaming envelopes.
const NO_HEADERS: &[(&str, &str)] = &[];

/// Writes the XML declaration, the envelope open tag with its
/// namespace attributes, and the (optional) `SOAP-ENV:Header` block.
fn write_envelope_open<K: AsRef<str>, V: AsRef<str>>(out: &mut String, headers: &[(K, V)]) {
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?><SOAP-ENV:Envelope xmlns:SOAP-ENV=\"");
    out.push_str(ENVELOPE_NS);
    out.push_str("\" xmlns:xsd=\"");
    out.push_str(XSD_NS);
    out.push_str("\" xmlns:xsi=\"");
    out.push_str(XSI_NS);
    out.push_str("\" SOAP-ENV:encodingStyle=\"");
    out.push_str(ENCODING_NS);
    out.push_str("\">");
    if !headers.is_empty() {
        out.push_str("<SOAP-ENV:Header>");
        for (name, value) in headers {
            out.push_str("<vsg:");
            out.push_str(name.as_ref());
            out.push_str(" xmlns:vsg=\"urn:vsg:ext\">");
            // Always open/close form: the element path stores a
            // (possibly empty) text child, never self-closing.
            escape_text_into(value.as_ref(), out);
            out.push_str("</vsg:");
            out.push_str(name.as_ref());
            out.push('>');
        }
        out.push_str("</SOAP-ENV:Header>");
    }
}

/// Encodes a fault as a complete SOAP envelope document. Faults are the
/// cold path; they still build the element tree.
pub fn fault_envelope(fault: &Fault) -> String {
    Element::new("SOAP-ENV:Envelope")
        .attr("xmlns:SOAP-ENV", ENVELOPE_NS)
        .attr("xmlns:xsd", XSD_NS)
        .attr("xmlns:xsi", XSI_NS)
        .attr("SOAP-ENV:encodingStyle", ENCODING_NS)
        .child(Element::new("SOAP-ENV:Body").child(fault.to_element()))
        .to_document()
}

// ---- streamed decode ---------------------------------------------------
//
// The decoders read the tokenizer's events in one pass and keep only
// what ends up in the result. They answer exactly as a parse-then-walk
// decode would: the document is always read to its end, so an XML
// error anywhere wins over a structural or value error met earlier;
// then the root must be an Envelope, its first Body must hold an
// element, and the first bad value in document order is the error.

/// Runs `decode` over `doc`, then checks the rest of the document.
fn streamed<'d, T>(
    doc: &'d str,
    decode: impl FnOnce(&mut Reader<'d>) -> Result<T, SoapError>,
) -> Result<T, SoapError> {
    let mut reader = Reader::new(doc);
    let out = decode(&mut reader);
    if !matches!(out, Err(SoapError::Xml(_))) {
        reader.finish()?;
    }
    out
}

/// Decodes a call envelope, also returning the method name as a slice
/// of `doc` — the router answers with it after the call has moved into
/// its handler.
pub(crate) fn decode_call(doc: &str) -> Result<(RpcCall, &str), SoapError> {
    streamed(doc, |r| {
        open_envelope(r)?;
        let mut headers = None;
        let mut call = None;
        while let Some(child) = r.next_child()? {
            match child.local_name() {
                "Header" if headers.is_none() => {
                    let mut entries = Vec::new();
                    while let Some(entry) = r.next_child()? {
                        let text = r.read_text()?.into_owned();
                        entries.push((entry.local_name().to_owned(), text));
                    }
                    headers = Some(entries);
                }
                "Body" if call.is_none() => {
                    let method = first_body_child(r)?;
                    let namespace = method
                        .attrs()
                        .find(|(k, _)| k.starts_with("xmlns"))
                        .map(|(_, v)| v.into_owned())
                        .unwrap_or_default();
                    let mut args = Vec::new();
                    while let Some(arg) = r.next_child()? {
                        let value = read_value(r, &arg)?;
                        args.push((arg.local_name().to_owned(), value));
                    }
                    r.skip_to(1)?;
                    call = Some((namespace, method.local_name(), args));
                }
                _ => r.skip_element()?,
            }
        }
        let (namespace, method, args) =
            call.ok_or_else(|| SoapError::malformed("Envelope has no Body"))?;
        let call = RpcCall {
            namespace,
            method: method.to_owned(),
            args,
            headers: headers.unwrap_or_default(),
        };
        Ok((call, method))
    })
}

/// Reads a response envelope up to its first Body's first element:
/// that element's `return` value, or the fault it carries.
fn read_response(r: &mut Reader<'_>) -> Result<Value, SoapError> {
    open_envelope(r)?;
    while let Some(child) = r.next_child()? {
        if child.local_name() != "Body" {
            r.skip_element()?;
            continue;
        }
        let first = first_body_child(r)?;
        if first.local_name() == "Fault" {
            return read_fault(r);
        }
        let mut value = None;
        while let Some(c) = r.next_child()? {
            if value.is_none() && c.local_name() == "return" {
                value = Some(read_value(r, &c)?);
            } else {
                r.skip_element()?;
            }
        }
        return Ok(value.unwrap_or(Value::Null));
    }
    Err(SoapError::malformed("Envelope has no Body"))
}

/// Reads the children of a `Fault` element, in any order. A fault with
/// a known `faultcode` and a `faultstring` is `Err(SoapError::Fault)`;
/// anything less is an ordinary response element named `Fault`, whose
/// value is its first `return` child (or null).
fn read_fault(r: &mut Reader<'_>) -> Result<Value, SoapError> {
    let depth = r.depth();
    let (mut code, mut string, mut detail, mut value) = (None, None, None, None);
    while let Some(c) = r.next_child()? {
        match c.local_name() {
            "faultcode" if code.is_none() => code = Some(r.read_text()?),
            "faultstring" if string.is_none() => string = Some(r.read_text()?),
            "detail" if detail.is_none() => detail = Some(r.read_text()?),
            "return" if value.is_none() => {
                // A bad value only matters if this is not a fault after
                // all, so it is kept rather than returned.
                let decoded = read_value(r, &c);
                if let Err(SoapError::Xml(e)) = decoded {
                    return Err(SoapError::Xml(e));
                }
                r.skip_to(depth)?;
                value = Some(decoded);
            }
            _ => r.skip_element()?,
        }
    }
    match (code.as_deref().and_then(FaultCode::from_qname), string) {
        (Some(code), Some(string)) => Err(SoapError::Fault(Fault {
            code,
            string: string.into_owned(),
            detail: detail.map(Cow::into_owned),
        })),
        _ => value.unwrap_or(Ok(Value::Null)),
    }
}

/// Reads the root start tag, which must be an Envelope.
fn open_envelope(r: &mut Reader<'_>) -> Result<(), SoapError> {
    match r.next_event()? {
        Some(Event::Start(root)) if root.local_name() == "Envelope" => Ok(()),
        Some(Event::Start(root)) => Err(SoapError::malformed(format!(
            "root element is <{}>, not an Envelope",
            root.name
        ))),
        _ => unreachable!("a document's first event is its root's start tag"),
    }
}

/// The first child element of the Body just opened.
fn first_body_child<'d>(r: &mut Reader<'d>) -> Result<StartTag<'d>, SoapError> {
    r.next_child()?
        .ok_or_else(|| SoapError::malformed("empty SOAP body"))
}

/// Errors surfaced by SOAP encoding, decoding and transport.
#[derive(Debug, Clone, PartialEq)]
pub enum SoapError {
    /// The XML itself would not parse.
    Xml(ParseError),
    /// A value failed to decode.
    Value(ValueError),
    /// Structurally valid XML that is not a valid SOAP message.
    Malformed(String),
    /// The peer returned a SOAP fault.
    Fault(Fault),
    /// The HTTP layer failed (connection refused, lost, bad status).
    /// Carries the typed [`HttpError`] so callers can classify the
    /// failure (request never delivered vs. response lost) without
    /// parsing message text.
    Http(HttpError),
}

impl SoapError {
    pub(crate) fn malformed(msg: impl Into<String>) -> SoapError {
        SoapError::Malformed(msg.into())
    }
}

impl fmt::Display for SoapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoapError::Xml(e) => write!(f, "{e}"),
            SoapError::Value(e) => write!(f, "{e}"),
            SoapError::Malformed(m) => write!(f, "malformed SOAP message: {m}"),
            SoapError::Fault(fault) => write!(f, "SOAP fault: {fault}"),
            SoapError::Http(m) => write!(f, "HTTP error: {m}"),
        }
    }
}

impl std::error::Error for SoapError {}

impl From<ParseError> for SoapError {
    fn from(e: ParseError) -> SoapError {
        SoapError::Xml(e)
    }
}

impl From<ValueError> for SoapError {
    fn from(e: ValueError) -> SoapError {
        SoapError::Value(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_round_trips() {
        let call = RpcCall::new("urn:vsg:vcr", "record")
            .arg("channel", 42)
            .arg("title", "News & Weather")
            .arg("immediate", true);
        let doc = call.to_envelope();
        assert!(doc.contains("SOAP-ENV:Envelope"));
        let back = RpcCall::from_envelope(&doc).unwrap();
        assert_eq!(back, call);
        assert_eq!(back.get("channel").and_then(Value::as_int), Some(42));
        assert_eq!(back.get("missing"), None);
    }

    #[test]
    fn header_entries_round_trip() {
        let call = RpcCall::new("urn:vsg:gateway", "play")
            .arg("chapter", 1)
            .header("TraceContext", "1f-2e");
        let doc = call.to_envelope();
        assert!(doc.contains("SOAP-ENV:Header"), "{doc}");
        // SOAP 1.1: the Header element precedes the Body.
        assert!(
            doc.find("SOAP-ENV:Header").unwrap() < doc.find("SOAP-ENV:Body").unwrap(),
            "{doc}"
        );
        let back = RpcCall::from_envelope(&doc).unwrap();
        assert_eq!(back, call);
        assert_eq!(back.get_header("TraceContext"), Some("1f-2e"));
        assert_eq!(back.get_header("absent"), None);
        // Headers never leak into the argument list.
        assert_eq!(back.args.len(), 1);
    }

    #[test]
    fn headerless_envelopes_have_no_header_element() {
        let doc = RpcCall::new("urn:x", "ping").to_envelope();
        assert!(!doc.contains("SOAP-ENV:Header"), "{doc}");
    }

    #[test]
    fn response_round_trips() {
        let value = Value::Record(vec![
            ("ok".into(), Value::Bool(true)),
            ("tape_pos".into(), Value::Int(1234)),
        ]);
        let doc = response_envelope("record", &value);
        assert!(doc.contains("<ns1:recordResponse "), "{doc}");
        assert_eq!(response_value(&doc).unwrap(), value);
    }

    #[test]
    fn void_response() {
        let doc = response_envelope("stop", &Value::Null);
        assert_eq!(response_value(&doc).unwrap(), Value::Null);
    }

    #[test]
    fn fault_envelope_decodes_as_fault_error() {
        let doc = fault_envelope(&Fault::server("VCR is on fire"));
        match response_value(&doc) {
            Err(SoapError::Fault(f)) => assert_eq!(f.string, "VCR is on fire"),
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn malformed_envelopes_rejected() {
        assert!(matches!(
            RpcCall::from_envelope("<NotAnEnvelope/>"),
            Err(SoapError::Malformed(_))
        ));
        assert!(matches!(
            RpcCall::from_envelope("not xml at all"),
            Err(SoapError::Xml(_))
        ));
        let no_body = Element::new("SOAP-ENV:Envelope").to_document();
        assert!(matches!(
            RpcCall::from_envelope(&no_body),
            Err(SoapError::Malformed(_))
        ));
        let empty_body = Element::new("SOAP-ENV:Envelope")
            .child(Element::new("SOAP-ENV:Body"))
            .to_document();
        assert!(matches!(
            RpcCall::from_envelope(&empty_body),
            Err(SoapError::Malformed(_))
        ));
    }

    /// The element-tree encoder the streaming writer replaced,
    /// reconstructed here as the reference for byte-identity.
    fn tree_envelope(headers: &[(String, String)], body_child: Element) -> String {
        let mut env = Element::new("SOAP-ENV:Envelope")
            .attr("xmlns:SOAP-ENV", ENVELOPE_NS)
            .attr("xmlns:xsd", XSD_NS)
            .attr("xmlns:xsi", XSI_NS)
            .attr("SOAP-ENV:encodingStyle", ENCODING_NS);
        if !headers.is_empty() {
            let mut header = Element::new("SOAP-ENV:Header");
            for (name, value) in headers {
                header.push(
                    Element::new(format!("vsg:{name}"))
                        .attr("xmlns:vsg", "urn:vsg:ext")
                        .text(value),
                );
            }
            env = env.child(header);
        }
        env.child(Element::new("SOAP-ENV:Body").child(body_child))
            .to_document()
    }

    #[test]
    fn streamed_call_envelope_matches_element_path() {
        let call = RpcCall::new("urn:vsg:vcr", "record")
            .arg("channel", 42)
            .arg("title", "News & <Weather>")
            .arg("empty", "")
            .header("TraceContext", "1f-2e")
            .header("Empty", "");
        let mut body =
            Element::new(format!("ns1:{}", call.method)).attr("xmlns:ns1", call.namespace.clone());
        for (k, v) in &call.args {
            body.push(v.to_element(k));
        }
        assert_eq!(call.to_envelope(), tree_envelope(&call.headers, body));
        // No arguments → the method element self-closes, on both paths.
        let bare = RpcCall::new("urn:x", "ping");
        assert_eq!(
            bare.to_envelope(),
            tree_envelope(&[], Element::new("ns1:ping").attr("xmlns:ns1", "urn:x"))
        );
    }

    #[test]
    fn streamed_response_envelope_matches_element_path() {
        let value = Value::Record(vec![("ok".into(), Value::Bool(true))]);
        let body = Element::new("ns1:recordResponse")
            .attr("xmlns:ns1", "urn:vsg:response")
            .child(value.to_element("return"));
        assert_eq!(
            response_envelope("record", &value),
            tree_envelope(&[], body)
        );
    }

    #[test]
    fn call_namespace_is_preserved() {
        let call = RpcCall::new("urn:vsg:laserdisc", "play");
        let back = RpcCall::from_envelope(&call.to_envelope()).unwrap();
        assert_eq!(back.namespace, "urn:vsg:laserdisc");
    }

    #[test]
    fn envelope_overhead_is_realistic() {
        // The E4 experiment reports SOAP overhead; sanity-check the
        // envelope costs hundreds of bytes even for a trivial call.
        let doc = RpcCall::new("urn:x", "ping").to_envelope();
        assert!(doc.len() > 250, "envelope is {} bytes", doc.len());
    }
}
