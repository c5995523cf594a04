//! WSDL-style service descriptions.
//!
//! §3.3 of the paper: "if the protocol of VSG is SOAP, the VSG will be
//! implemented with WSDL and UDDI". A [`ServiceDescription`] is the
//! document the Virtual Service Repository stores for every bridged
//! service: its abstract interface (port type + operations) plus the
//! concrete VSG endpoint that reaches it.

use crate::types::XsdType;
use minixml::{escape_attr_into, escape_text_into, ElemRef};
use std::fmt;

/// One named, typed message part (a parameter or return value).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Part {
    /// Parameter name.
    pub name: String,
    /// Declared wire type.
    pub ty: XsdType,
}

impl Part {
    /// Creates a part.
    pub fn new(name: impl Into<String>, ty: XsdType) -> Part {
        Part {
            name: name.into(),
            ty,
        }
    }
}

/// One operation of a port type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    /// Operation name.
    pub name: String,
    /// Input parts, in call order.
    pub inputs: Vec<Part>,
    /// Output part; `None` for one-way/void operations.
    pub output: Option<Part>,
    /// Whether invoking the operation twice is equivalent to invoking
    /// it once (a pure read, or an absolute state set). Carried as an
    /// `idempotent="true"` attribute so resilience layers on *other*
    /// gateways can decide retry safety from the description alone.
    pub idempotent: bool,
}

impl Operation {
    /// Creates a void operation with no inputs.
    pub fn new(name: impl Into<String>) -> Operation {
        Operation {
            name: name.into(),
            inputs: Vec::new(),
            output: None,
            idempotent: false,
        }
    }

    /// Marks the operation idempotent (builder style).
    pub fn idempotent(mut self) -> Operation {
        self.idempotent = true;
        self
    }

    /// Adds an input part (builder style).
    pub fn input(mut self, name: impl Into<String>, ty: XsdType) -> Operation {
        self.inputs.push(Part::new(name, ty));
        self
    }

    /// Sets the output part (builder style).
    pub fn returns(mut self, ty: XsdType) -> Operation {
        self.output = Some(Part::new("return", ty));
        self
    }
}

/// A complete service description: abstract interface + concrete endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceDescription {
    /// Service name, unique within the home (e.g. `living-room-vcr`).
    pub name: String,
    /// Target namespace, also the SOAP routing key (e.g. `urn:vsg:vcr`).
    pub namespace: String,
    /// The operations this service offers.
    pub operations: Vec<Operation>,
    /// The VSG endpoint that reaches the service, as
    /// `vsg://<gateway>/<service>`.
    pub endpoint: String,
    /// Free-text documentation.
    pub documentation: String,
}

impl ServiceDescription {
    /// Creates a description with no operations.
    pub fn new(name: impl Into<String>, namespace: impl Into<String>) -> Self {
        ServiceDescription {
            name: name.into(),
            namespace: namespace.into(),
            operations: Vec::new(),
            endpoint: String::new(),
            documentation: String::new(),
        }
    }

    /// Adds an operation (builder style).
    pub fn operation(mut self, op: Operation) -> Self {
        self.operations.push(op);
        self
    }

    /// Sets the endpoint (builder style).
    pub fn at(mut self, endpoint: impl Into<String>) -> Self {
        self.endpoint = endpoint.into();
        self
    }

    /// Sets documentation (builder style).
    pub fn doc(mut self, text: impl Into<String>) -> Self {
        self.documentation = text.into();
        self
    }

    /// Finds an operation by name.
    pub fn find_operation(&self, name: &str) -> Option<&Operation> {
        self.operations.iter().find(|o| o.name == name)
    }

    /// Serialises to a WSDL-style document (XML declaration included),
    /// written straight into one buffer with no element tree between.
    pub fn to_document(&self) -> String {
        // Room for the fixed markup plus a typical operation each, so
        // the buffer rarely has to grow.
        let mut out = String::with_capacity(512 + 128 * self.operations.len());
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?><definitions name=\"");
        escape_attr_into(&self.name, &mut out);
        out.push_str("\" targetNamespace=\"");
        escape_attr_into(&self.namespace, &mut out);
        out.push_str("\">");
        if !self.documentation.is_empty() {
            out.push_str("<documentation>");
            escape_text_into(&self.documentation, &mut out);
            out.push_str("</documentation>");
        }
        out.push_str("<portType name=\"");
        escape_attr_into(&self.name, &mut out);
        out.push_str("PortType\"");
        if self.operations.is_empty() {
            out.push_str("/>");
        } else {
            out.push('>');
            for op in &self.operations {
                out.push_str("<operation name=\"");
                escape_attr_into(&op.name, &mut out);
                out.push('"');
                if op.idempotent {
                    out.push_str(" idempotent=\"true\"");
                }
                if op.inputs.is_empty() {
                    out.push_str("><input/>");
                } else {
                    out.push_str("><input>");
                    for p in &op.inputs {
                        write_part(p, &mut out);
                    }
                    out.push_str("</input>");
                }
                if let Some(output) = &op.output {
                    out.push_str("<output>");
                    write_part(output, &mut out);
                    out.push_str("</output>");
                }
                out.push_str("</operation>");
            }
            out.push_str("</portType>");
        }
        out.push_str("<service name=\"");
        escape_attr_into(&self.name, &mut out);
        out.push_str("\"><port><soap:address location=\"");
        escape_attr_into(&self.endpoint, &mut out);
        out.push_str("\"/></port></service></definitions>");
        out
    }

    /// Parses a WSDL-style document produced by [`Self::to_document`],
    /// from the borrowed tier of [`minixml::parse_ref`].
    pub fn from_xml(e: &ElemRef<'_>) -> Result<ServiceDescription, DescriptionError> {
        if e.local_name() != "definitions" {
            return Err(DescriptionError::new("root must be <definitions>"));
        }
        let name = e
            .get_attr("name")
            .ok_or_else(|| DescriptionError::new("definitions missing name"))?
            .to_owned();
        let namespace = e.get_attr("targetNamespace").unwrap_or_default().to_owned();
        let documentation = e
            .find("documentation")
            .map(|d| d.text_content().into_owned())
            .unwrap_or_default();
        let mut operations = Vec::new();
        if let Some(pt) = e.find("portType") {
            for op_el in pt.find_all("operation") {
                let op_name = op_el
                    .get_attr("name")
                    .ok_or_else(|| DescriptionError::new("operation missing name"))?;
                let mut op = Operation::new(op_name);
                op.idempotent = op_el.get_attr("idempotent") == Some("true");
                if let Some(input) = op_el.find("input") {
                    op.inputs = input
                        .find_all("part")
                        .map(|p| read_part(p, "arg"))
                        .collect();
                }
                op.output = op_el
                    .find("output")
                    .and_then(|output| output.find("part"))
                    .map(|p| read_part(p, "return"));
                operations.push(op);
            }
        }
        let endpoint = e
            .find_path(&["service", "port", "address"])
            .and_then(|a| a.get_attr("location"))
            .unwrap_or_default()
            .to_owned();
        Ok(ServiceDescription {
            name,
            namespace,
            operations,
            endpoint,
            documentation,
        })
    }
}

/// Writes one `<part name=".." type=".."/>`.
fn write_part(p: &Part, out: &mut String) {
    out.push_str("<part name=\"");
    escape_attr_into(&p.name, out);
    out.push_str("\" type=\"");
    out.push_str(p.ty.as_qname());
    out.push_str("\"/>");
}

/// Reads one `<part>`, naming it `default_name` when it has no name.
fn read_part(p: &ElemRef<'_>, default_name: &str) -> Part {
    Part::new(
        p.get_attr("name").unwrap_or(default_name),
        XsdType::from_qname(p.get_attr("type").unwrap_or("anyType")),
    )
}

/// A description parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescriptionError {
    /// What went wrong.
    pub message: String,
}

impl DescriptionError {
    fn new(m: impl Into<String>) -> Self {
        DescriptionError { message: m.into() }
    }
}

impl fmt::Display for DescriptionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid service description: {}", self.message)
    }
}

impl std::error::Error for DescriptionError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn vcr() -> ServiceDescription {
        ServiceDescription::new("living-room-vcr", "urn:vsg:vcr")
            .doc("HAVi VCR bridged to the VSG")
            .at("vsg://havi-gw/living-room-vcr")
            .operation(
                Operation::new("record")
                    .input("channel", XsdType::Int)
                    .input("title", XsdType::String)
                    .returns(XsdType::Boolean),
            )
            .operation(Operation::new("stop"))
            .operation(
                Operation::new("position")
                    .returns(XsdType::Int)
                    .idempotent(),
            )
    }

    fn round_trip(d: &ServiceDescription) -> ServiceDescription {
        let doc = d.to_document();
        ServiceDescription::from_xml(&minixml::parse_ref(&doc).unwrap()).unwrap()
    }

    #[test]
    fn round_trip_through_text() {
        // `bare` has no operations, no documentation and no endpoint.
        for d in [vcr(), ServiceDescription::new("bare", "urn:vsg:bare")] {
            assert_eq!(round_trip(&d), d);
        }
    }

    #[test]
    fn idempotence_survives_the_wire() {
        let back = round_trip(&vcr());
        assert!(back.find_operation("position").unwrap().idempotent);
        assert!(!back.find_operation("record").unwrap().idempotent);
    }

    #[test]
    fn find_operation() {
        let d = vcr();
        assert_eq!(d.find_operation("record").unwrap().inputs.len(), 2);
        assert!(d.find_operation("record").unwrap().output.is_some());
        assert!(d.find_operation("stop").unwrap().output.is_none());
        assert!(d.find_operation("rewind").is_none());
    }

    #[test]
    fn rejects_wrong_root() {
        let wrong = minixml::parse_ref("<notdefs/>").unwrap();
        assert!(ServiceDescription::from_xml(&wrong).is_err());
        let unnamed = minixml::parse_ref("<definitions/>").unwrap();
        assert!(ServiceDescription::from_xml(&unnamed).is_err());
    }

    #[test]
    fn unknown_part_types_become_any() {
        let doc = r#"<definitions name="s" targetNamespace="urn:s">
            <portType name="sPortType">
              <operation name="op"><input><part name="x" type="vendor:blob"/></input></operation>
            </portType></definitions>"#;
        let d = ServiceDescription::from_xml(&minixml::parse_ref(doc).unwrap()).unwrap();
        assert_eq!(d.operations[0].inputs[0].ty, XsdType::Any);
        assert_eq!(d.endpoint, "");
    }
}
