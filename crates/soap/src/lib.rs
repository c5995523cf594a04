//! # soap — SOAP 1.1 over simulated HTTP
//!
//! The Virtual Service Gateway protocol of the paper's prototype
//! ("we implement the prototype of our framework with SOAP, a simple
//! protocol", §3.1), reimplemented over [`simnet`]:
//!
//! * [`Value`] — the SOAP section-5 RPC data model, the framework's
//!   lingua franca.
//! * [`RpcCall`] / [`response_envelope`] / [`response_value`] /
//!   [`Fault`] — envelope encoding.
//! * [`HttpRequest`] / [`HttpResponse`] / [`HttpServer`] / [`HttpClient`]
//!   — simulated HTTP/1.1 with per-connection TCP costs.
//! * [`SoapServer`] / [`SoapClient`] — the rpcrouter endpoint, with a
//!   [`CpuModel`] for the XML-processing costs of the 2002 Java stack.
//!
//! ```
//! use simnet::{Sim, Network};
//! use soap::{SoapServer, SoapClient, RpcCall, Value, Fault};
//!
//! let sim = Sim::new(7);
//! let net = Network::ethernet(&sim);
//! let server = SoapServer::bind(&net, "router");
//! server.mount("urn:vcr", |_, call| match call.method.as_str() {
//!     "record" => Ok(Value::Bool(true)),
//!     m => Err(Fault::client(format!("no method {m}"))),
//! });
//! let client = SoapClient::attach(&net, "pc");
//! let ok = client.call(server.node(), &RpcCall::new("urn:vcr", "record")).unwrap();
//! assert_eq!(ok, Value::Bool(true));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod endpoint;
pub mod fault;
pub mod http;
pub mod rpc;
pub mod value;

pub use endpoint::{CpuModel, ServiceHandler, SoapClient, SoapServer, RPC_ROUTER_PATH};
pub use fault::{Fault, FaultCode};
pub use http::{
    body_str, HttpClient, HttpError, HttpRequest, HttpRequestRef, HttpResponse, HttpResponseRef,
    HttpServer, ResponseParts, TcpModel, ZeroRouteHandler,
};
pub use rpc::{
    call_envelope, fault_envelope, response_envelope, response_value, RpcCall, SoapError,
};
pub use value::{base64_decode, base64_encode, Value, ValueError};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_value(depth: u32) -> BoxedStrategy<Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            // Finite, round-trippable doubles.
            (-1.0e12f64..1.0e12).prop_map(Value::Float),
            "[ -~]{0,24}".prop_map(Value::Str),
            prop::collection::vec(any::<u8>(), 0..32).prop_map(Value::Bytes),
        ];
        if depth == 0 {
            return leaf.boxed();
        }
        prop_oneof![
            4 => leaf,
            1 => prop::collection::vec(arb_value(depth - 1), 0..4).prop_map(Value::List),
            1 => prop::collection::vec(("[a-z][a-z0-9]{0,6}", arb_value(depth - 1)), 0..4)
                .prop_map(Value::Record),
        ]
        .boxed()
    }

    proptest! {
        #[test]
        fn value_envelope_round_trip(v in arb_value(2)) {
            let back = response_value(&response_envelope("m", &v)).unwrap();
            prop_assert_eq!(back, v);
        }

        #[test]
        fn call_envelope_round_trip(
            method in "[a-zA-Z][a-zA-Z0-9]{0,12}",
            args in prop::collection::vec(("[a-z][a-z0-9]{0,8}", arb_value(1)), 0..5),
        ) {
            let mut call = RpcCall::new("urn:vsg:prop", method);
            for (k, v) in args {
                call = call.arg(k, v);
            }
            let back = RpcCall::from_envelope(&call.to_envelope()).unwrap();
            prop_assert_eq!(back, call);
        }

        #[test]
        fn base64_round_trip(data in prop::collection::vec(any::<u8>(), 0..256)) {
            let enc = base64_encode(&data);
            prop_assert_eq!(base64_decode(&enc).unwrap(), data);
        }

        #[test]
        fn http_request_round_trip(
            path in "/[a-z0-9/]{0,24}",
            body in prop::collection::vec(any::<u8>(), 0..128),
        ) {
            let req = HttpRequest::post(path, "application/octet-stream", body);
            let back = HttpRequest::from_bytes(&req.to_bytes()).unwrap();
            prop_assert_eq!(back, req);
        }

        #[test]
        fn envelope_decoder_never_panics(s in ".{0,300}") {
            let _ = RpcCall::from_envelope(&s);
            let _ = response_value(&s);
        }
    }
}
