//! Canonical service interfaces.
//!
//! A [`ServiceInterface`] is the framework's middleware-neutral interface
//! descriptor — the artefact the paper's prototype extracted from Java
//! interfaces to drive both WSDL generation and automatic proxy
//! generation (§4.1). Every PCM maps its middleware's native service
//! descriptions onto this form.

use crate::error::MetaError;
use soap::Value;
use std::fmt;
use wsdl::{Operation, ServiceDescription, XsdType};

/// A parameter or return type in the canonical type system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeTag {
    /// Boolean.
    Bool,
    /// 64-bit integer.
    Int,
    /// Double-precision float.
    Float,
    /// UTF-8 string.
    Str,
    /// Opaque bytes.
    Bytes,
    /// Anything (lists, records, or any scalar).
    Any,
}

impl TypeTag {
    /// True if `value` inhabits this type.
    pub fn admits(self, value: &Value) -> bool {
        matches!(
            (self, value),
            (TypeTag::Any, _)
                | (TypeTag::Bool, Value::Bool(_))
                | (TypeTag::Int, Value::Int(_))
                | (TypeTag::Float, Value::Float(_))
                | (TypeTag::Str, Value::Str(_))
                | (TypeTag::Bytes, Value::Bytes(_))
        )
    }

    /// The matching WSDL part type.
    pub fn to_xsd(self) -> XsdType {
        match self {
            TypeTag::Bool => XsdType::Boolean,
            TypeTag::Int => XsdType::Int,
            TypeTag::Float => XsdType::Double,
            TypeTag::Str => XsdType::String,
            TypeTag::Bytes => XsdType::Base64,
            TypeTag::Any => XsdType::Any,
        }
    }

    /// Inverse of [`TypeTag::to_xsd`].
    pub fn from_xsd(t: XsdType) -> TypeTag {
        match t {
            XsdType::Boolean => TypeTag::Bool,
            XsdType::Int => TypeTag::Int,
            XsdType::Double => TypeTag::Float,
            XsdType::String => TypeTag::Str,
            XsdType::Base64 => TypeTag::Bytes,
            XsdType::Any => TypeTag::Any,
        }
    }
}

impl fmt::Display for TypeTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TypeTag::Bool => "bool",
            TypeTag::Int => "int",
            TypeTag::Float => "float",
            TypeTag::Str => "str",
            TypeTag::Bytes => "bytes",
            TypeTag::Any => "any",
        };
        f.write_str(s)
    }
}

/// One operation signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSig {
    /// Operation name.
    pub name: String,
    /// Named, typed parameters in call order.
    pub params: Vec<(String, TypeTag)>,
    /// Return type; `None` for void.
    pub returns: Option<TypeTag>,
    /// Whether calling the operation twice is equivalent to calling it
    /// once (a pure read, or an absolute state set). The resilience
    /// layer only re-sends an operation whose response was lost — an
    /// *ambiguous* failure — when this is `true`. Defaults to `false`:
    /// the safe assumption for an operation nobody has classified.
    pub idempotent: bool,
}

impl OpSig {
    /// Creates a void, parameterless operation.
    pub fn new(name: impl Into<String>) -> OpSig {
        OpSig {
            name: name.into(),
            params: Vec::new(),
            returns: None,
            idempotent: false,
        }
    }

    /// Adds a parameter (builder style).
    pub fn param(mut self, name: impl Into<String>, ty: TypeTag) -> OpSig {
        self.params.push((name.into(), ty));
        self
    }

    /// Sets the return type (builder style).
    pub fn returns(mut self, ty: TypeTag) -> OpSig {
        self.returns = Some(ty);
        self
    }

    /// Marks the operation idempotent (builder style).
    pub fn idempotent(mut self) -> OpSig {
        self.idempotent = true;
        self
    }

    /// Type-checks an argument list against this signature. Arguments are
    /// matched by name; extra arguments are rejected, missing ones too.
    pub fn check_args(&self, args: &[(String, Value)]) -> Result<(), MetaError> {
        for (name, ty) in &self.params {
            let arg =
                args.iter()
                    .find(|(k, _)| k == name)
                    .ok_or_else(|| MetaError::TypeMismatch {
                        operation: self.name.clone(),
                        parameter: name.clone(),
                        expected: ty.to_string(),
                        got: "missing".into(),
                    })?;
            if !ty.admits(&arg.1) {
                return Err(MetaError::TypeMismatch {
                    operation: self.name.clone(),
                    parameter: name.clone(),
                    expected: ty.to_string(),
                    got: arg.1.type_label().to_owned(),
                });
            }
        }
        if let Some((extra, _)) = args
            .iter()
            .find(|(k, _)| !self.params.iter().any(|(p, _)| p == k))
        {
            return Err(MetaError::TypeMismatch {
                operation: self.name.clone(),
                parameter: extra.clone(),
                expected: "no such parameter".into(),
                got: "present".into(),
            });
        }
        Ok(())
    }
}

/// A named set of operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceInterface {
    /// Interface name (e.g. `VcrControl`).
    pub name: String,
    /// Operations.
    pub operations: Vec<OpSig>,
}

impl ServiceInterface {
    /// Creates an empty interface.
    pub fn new(name: impl Into<String>) -> ServiceInterface {
        ServiceInterface {
            name: name.into(),
            operations: Vec::new(),
        }
    }

    /// Adds an operation (builder style).
    pub fn op(mut self, op: OpSig) -> ServiceInterface {
        self.operations.push(op);
        self
    }

    /// Finds an operation by name.
    pub fn find(&self, name: &str) -> Option<&OpSig> {
        self.operations.iter().find(|o| o.name == name)
    }

    /// Generates the WSDL-style description for a service implementing
    /// this interface at `endpoint`.
    pub fn to_wsdl(&self, service_name: &str, endpoint: &str) -> ServiceDescription {
        let mut desc = ServiceDescription::new(service_name, format!("urn:vsg:{service_name}"))
            .at(endpoint)
            .doc(format!("interface {}", self.name));
        for op in &self.operations {
            let mut w = Operation::new(&op.name);
            if op.idempotent {
                w = w.idempotent();
            }
            for (p, t) in &op.params {
                w = w.input(p, t.to_xsd());
            }
            if let Some(r) = op.returns {
                w = w.returns(r.to_xsd());
            }
            desc = desc.operation(w);
        }
        desc
    }

    /// Reconstructs an interface from a WSDL description (used when a PCM
    /// learns about a remote service from the VSR).
    pub fn from_wsdl(desc: &ServiceDescription) -> ServiceInterface {
        let mut iface = ServiceInterface::new(
            desc.documentation
                .strip_prefix("interface ")
                .unwrap_or(&desc.name)
                .to_owned(),
        );
        for op in &desc.operations {
            let mut sig = OpSig::new(&op.name);
            if op.idempotent {
                sig = sig.idempotent();
            }
            for part in &op.inputs {
                sig = sig.param(&part.name, TypeTag::from_xsd(part.ty));
            }
            if let Some(out) = &op.output {
                sig = sig.returns(TypeTag::from_xsd(out.ty));
            }
            iface = iface.op(sig);
        }
        iface
    }
}

/// A name-indexed collection of known interfaces.
///
/// PCMs use this to reconstruct a full [`ServiceInterface`] from the bare
/// interface *name* a native middleware advertises (a Jini proxy's Java
/// interface name, a UPnP service type) — the role Java reflection played
/// in the prototype.
#[derive(Debug, Clone, Default)]
pub struct InterfaceCatalog {
    by_name: std::collections::HashMap<String, ServiceInterface>,
}

impl InterfaceCatalog {
    /// An empty catalog.
    pub fn new() -> InterfaceCatalog {
        InterfaceCatalog::default()
    }

    /// The catalog of standard appliance interfaces (see [`catalog`]).
    pub fn standard() -> InterfaceCatalog {
        let mut c = InterfaceCatalog::new();
        for iface in [
            catalog::lamp(),
            catalog::vcr(),
            catalog::laserdisc(),
            catalog::dv_camera(),
            catalog::tuner(),
            catalog::display(),
            catalog::fridge(),
            catalog::aircon(),
            catalog::mailer(),
            catalog::motion_sensor(),
        ] {
            c.insert(iface);
        }
        c
    }

    /// Adds (or replaces) an interface.
    pub fn insert(&mut self, iface: ServiceInterface) {
        self.by_name.insert(iface.name.clone(), iface);
    }

    /// Looks up an interface by name.
    pub fn get(&self, name: &str) -> Option<&ServiceInterface> {
        self.by_name.get(name)
    }

    /// Number of known interfaces.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }
}

/// Well-known appliance interfaces used throughout examples and tests —
/// the vocabulary of the paper's smart home.
pub mod catalog {
    use super::*;

    /// An on/off (dimmable) lamp.
    pub fn lamp() -> ServiceInterface {
        ServiceInterface::new("Lamp")
            .op(OpSig::new("switch").param("on", TypeTag::Bool))
            .op(OpSig::new("dim").param("steps", TypeTag::Int))
            .op(OpSig::new("status").returns(TypeTag::Bool).idempotent())
    }

    /// A VCR with transport and timer recording.
    pub fn vcr() -> ServiceInterface {
        ServiceInterface::new("VcrControl")
            .op(OpSig::new("play"))
            .op(OpSig::new("stop"))
            .op(OpSig::new("record")
                .param("channel", TypeTag::Int)
                .param("title", TypeTag::Str)
                .returns(TypeTag::Bool))
            .op(OpSig::new("position").returns(TypeTag::Int).idempotent())
    }

    /// The Jini Laserdisc player of Fig. 5.
    pub fn laserdisc() -> ServiceInterface {
        ServiceInterface::new("LaserdiscPlayer")
            .op(OpSig::new("play").param("chapter", TypeTag::Int))
            .op(OpSig::new("stop"))
            .op(OpSig::new("status").returns(TypeTag::Str).idempotent())
    }

    /// The HAVi DV camera of Fig. 5.
    pub fn dv_camera() -> ServiceInterface {
        ServiceInterface::new("DvCamera")
            .op(OpSig::new("play"))
            .op(OpSig::new("stop"))
            .op(OpSig::new("record"))
            .op(OpSig::new("capture").returns(TypeTag::Int))
    }

    /// A TV tuner.
    pub fn tuner() -> ServiceInterface {
        ServiceInterface::new("Tuner")
            .op(OpSig::new("set_channel").param("channel", TypeTag::Int))
            .op(OpSig::new("channel").returns(TypeTag::Int).idempotent())
    }

    /// A display panel (for OSD).
    pub fn display() -> ServiceInterface {
        ServiceInterface::new("Display").op(OpSig::new("show").param("text", TypeTag::Str))
    }

    /// A refrigerator (the §1 Jini appliance).
    pub fn fridge() -> ServiceInterface {
        ServiceInterface::new("Fridge")
            .op(OpSig::new("temperature")
                .returns(TypeTag::Float)
                .idempotent())
            .op(OpSig::new("set_target").param("celsius", TypeTag::Float))
    }

    /// An air conditioner (the §1 Jini appliance).
    pub fn aircon() -> ServiceInterface {
        ServiceInterface::new("AirConditioner")
            .op(OpSig::new("switch").param("on", TypeTag::Bool))
            .op(OpSig::new("set_target").param("celsius", TypeTag::Float))
            .op(OpSig::new("status").returns(TypeTag::Str).idempotent())
    }

    /// A mail notification service.
    pub fn mailer() -> ServiceInterface {
        ServiceInterface::new("Mailer")
            .op(OpSig::new("send")
                .param("to", TypeTag::Str)
                .param("subject", TypeTag::Str)
                .param("body", TypeTag::Str))
            .op(OpSig::new("unread")
                .param("mailbox", TypeTag::Str)
                .returns(TypeTag::Int)
                .idempotent())
    }

    /// A motion sensor (event source, pollable).
    pub fn motion_sensor() -> ServiceInterface {
        ServiceInterface::new("MotionSensor")
            .op(OpSig::new("state").returns(TypeTag::Bool).idempotent())
            .op(OpSig::new("drain_events").returns(TypeTag::Any))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_admission() {
        assert!(TypeTag::Int.admits(&Value::Int(3)));
        assert!(!TypeTag::Int.admits(&Value::Str("3".into())));
        assert!(TypeTag::Any.admits(&Value::List(vec![])));
        assert!(TypeTag::Bytes.admits(&Value::Bytes(vec![1])));
        assert!(!TypeTag::Bool.admits(&Value::Null));
    }

    #[test]
    fn xsd_round_trip() {
        for t in [
            TypeTag::Bool,
            TypeTag::Int,
            TypeTag::Float,
            TypeTag::Str,
            TypeTag::Bytes,
            TypeTag::Any,
        ] {
            assert_eq!(TypeTag::from_xsd(t.to_xsd()), t);
        }
    }

    #[test]
    fn arg_checking() {
        let sig = OpSig::new("record")
            .param("channel", TypeTag::Int)
            .param("title", TypeTag::Str);
        assert!(sig
            .check_args(&[
                ("channel".into(), Value::Int(4)),
                ("title".into(), Value::Str("t".into()))
            ])
            .is_ok());
        // Order doesn't matter.
        assert!(sig
            .check_args(&[
                ("title".into(), Value::Str("t".into())),
                ("channel".into(), Value::Int(4))
            ])
            .is_ok());
        // Missing parameter.
        assert!(sig
            .check_args(&[("channel".into(), Value::Int(4))])
            .is_err());
        // Wrong type.
        assert!(sig
            .check_args(&[
                ("channel".into(), Value::Str("x".into())),
                ("title".into(), Value::Str("t".into()))
            ])
            .is_err());
        // Extra parameter.
        assert!(sig
            .check_args(&[
                ("channel".into(), Value::Int(4)),
                ("title".into(), Value::Str("t".into())),
                ("ghost".into(), Value::Int(1)),
            ])
            .is_err());
    }

    #[test]
    fn wsdl_round_trip_preserves_interface() {
        let iface = catalog::vcr();
        let desc = iface.to_wsdl("living-room-vcr", "vsg://havi-gw/living-room-vcr");
        assert_eq!(desc.namespace, "urn:vsg:living-room-vcr");
        let back = ServiceInterface::from_wsdl(&desc);
        assert_eq!(back, iface);
    }

    #[test]
    fn wsdl_survives_the_wire() {
        let iface = catalog::mailer();
        let desc = iface.to_wsdl("mailer", "vsg://inet-gw/mailer");
        let text = desc.to_document();
        let parsed =
            wsdl::ServiceDescription::from_xml(&minixml::parse_ref(&text).unwrap()).unwrap();
        assert_eq!(ServiceInterface::from_wsdl(&parsed), iface);
    }

    #[test]
    fn catalog_interfaces_are_well_formed() {
        for iface in [
            catalog::lamp(),
            catalog::vcr(),
            catalog::laserdisc(),
            catalog::dv_camera(),
            catalog::tuner(),
            catalog::display(),
            catalog::fridge(),
            catalog::aircon(),
            catalog::mailer(),
            catalog::motion_sensor(),
        ] {
            assert!(!iface.operations.is_empty(), "{} has ops", iface.name);
            // Operation names unique.
            let mut names: Vec<&str> = iface.operations.iter().map(|o| o.name.as_str()).collect();
            names.sort();
            let len = names.len();
            names.dedup();
            assert_eq!(names.len(), len, "{} has duplicate ops", iface.name);
        }
    }

    #[test]
    fn find_op() {
        let iface = catalog::lamp();
        assert!(iface.find("switch").is_some());
        assert!(iface.find("explode").is_none());
    }
}
