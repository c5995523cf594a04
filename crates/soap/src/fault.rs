//! SOAP 1.1 faults.

use minixml::Element;
use std::fmt;

/// The standard SOAP 1.1 fault code classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCode {
    /// `SOAP-ENV:VersionMismatch`.
    VersionMismatch,
    /// `SOAP-ENV:MustUnderstand`.
    MustUnderstand,
    /// `SOAP-ENV:Client` — the caller's message was at fault.
    Client,
    /// `SOAP-ENV:Server` — processing failed; retrying may succeed.
    Server,
}

impl FaultCode {
    /// The qualified name on the wire.
    pub fn as_qname(self) -> &'static str {
        match self {
            FaultCode::VersionMismatch => "SOAP-ENV:VersionMismatch",
            FaultCode::MustUnderstand => "SOAP-ENV:MustUnderstand",
            FaultCode::Client => "SOAP-ENV:Client",
            FaultCode::Server => "SOAP-ENV:Server",
        }
    }

    /// Parses the qualified (or unqualified) name.
    pub fn from_qname(s: &str) -> Option<FaultCode> {
        let local = s.rsplit(':').next().unwrap_or(s);
        match local {
            "VersionMismatch" => Some(FaultCode::VersionMismatch),
            "MustUnderstand" => Some(FaultCode::MustUnderstand),
            "Client" => Some(FaultCode::Client),
            "Server" => Some(FaultCode::Server),
            _ => None,
        }
    }
}

/// A SOAP fault carried in a response body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// The fault class.
    pub code: FaultCode,
    /// Human-readable explanation.
    pub string: String,
    /// Optional application-specific detail.
    pub detail: Option<String>,
}

impl Fault {
    /// A server-side processing fault.
    pub fn server(msg: impl Into<String>) -> Fault {
        Fault {
            code: FaultCode::Server,
            string: msg.into(),
            detail: None,
        }
    }

    /// A malformed-request fault.
    pub fn client(msg: impl Into<String>) -> Fault {
        Fault {
            code: FaultCode::Client,
            string: msg.into(),
            detail: None,
        }
    }

    /// Attaches detail text (builder style).
    pub fn with_detail(mut self, detail: impl Into<String>) -> Fault {
        self.detail = Some(detail.into());
        self
    }

    /// Encodes as the `<SOAP-ENV:Fault>` element.
    pub fn to_element(&self) -> Element {
        let mut e = Element::new("SOAP-ENV:Fault")
            .child(Element::new("faultcode").text(self.code.as_qname()))
            .child(Element::new("faultstring").text(self.string.clone()));
        if let Some(d) = &self.detail {
            e.push(Element::new("detail").text(d.clone()));
        }
        e
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.as_qname(), self.string)?;
        if let Some(d) = &self.detail {
            write!(f, " ({d})")?;
        }
        Ok(())
    }
}

impl std::error::Error for Fault {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::{fault_envelope, response_value, SoapError};
    use crate::value::Value;

    /// The fault as a client decodes it from a fault envelope.
    fn decode(f: &Fault) -> Result<Value, SoapError> {
        response_value(&fault_envelope(f))
    }

    #[test]
    fn fault_round_trips() {
        let f = Fault::server("device unreachable").with_detail("x10 frame lost");
        assert_eq!(decode(&f), Err(SoapError::Fault(f)));
    }

    #[test]
    fn fault_without_detail() {
        let f = Fault::client("no such method");
        let e = f.to_element();
        assert!(e.find("detail").is_none());
        assert_eq!(decode(&f), Err(SoapError::Fault(f)));
    }

    #[test]
    fn code_qnames_round_trip() {
        for c in [
            FaultCode::VersionMismatch,
            FaultCode::MustUnderstand,
            FaultCode::Client,
            FaultCode::Server,
        ] {
            assert_eq!(FaultCode::from_qname(c.as_qname()), Some(c));
        }
        assert_eq!(FaultCode::from_qname("Server"), Some(FaultCode::Server));
        assert_eq!(FaultCode::from_qname("env:Bogus"), None);
    }

    #[test]
    fn non_fault_element_rejected() {
        let body = |inner: &str| format!("<Envelope><Body>{inner}</Body></Envelope>");
        assert_eq!(response_value(&body("<NotAFault/>")), Ok(Value::Null));
        // A Fault with an unparseable code is an ordinary response.
        let bad = "<Fault><faultcode>nonsense</faultcode><faultstring>x</faultstring></Fault>";
        assert_eq!(response_value(&body(bad)), Ok(Value::Null));
    }

    #[test]
    fn display_mentions_code_and_detail() {
        let f = Fault::server("boom").with_detail("why");
        assert_eq!(f.to_string(), "SOAP-ENV:Server: boom (why)");
    }
}
