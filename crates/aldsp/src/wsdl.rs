//! WSDL introspection.
//!
//! §II.A: "Introspecting a Web service data source (based on WSDL)
//! yields a library data service with multiple methods, one per Web
//! service operation. The methods' input and output types correspond
//! to the schema information found in the WSDL."
//!
//! [`parse_wsdl`] reads the subset of WSDL 1.1 that drives
//! introspection — `definitions/portType/operation` with
//! `input`/`output` message references resolved through
//! `definitions/message/part[@element]` — and produces the operation
//! metadata a [`crate::ws::WebService`] is built from. Handlers (the
//! in-process stand-ins for the remote endpoints) are attached by
//! name, keeping the metadata/implementation split a real WSDL import
//! would have.

use std::collections::HashMap;

use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::node::{NodeHandle, NodeKind};

use crate::ws::{WebService, WsHandler};

/// Operation metadata recovered from a WSDL document.
#[derive(Debug, Clone, PartialEq)]
pub struct WsdlOperation {
    /// Operation name.
    pub name: String,
    /// Input element local name.
    pub input_element: String,
    /// Output element local name.
    pub output_element: String,
}

/// A parsed WSDL: service name, target namespace, operations.
#[derive(Debug, Clone)]
pub struct Wsdl {
    /// The service name (from `definitions/@name` or
    /// `definitions/service/@name`).
    pub name: String,
    /// The target namespace.
    pub target_namespace: String,
    /// Operations in portType order.
    pub operations: Vec<WsdlOperation>,
}

fn werr(msg: impl Into<String>) -> XdmError {
    XdmError::new(ErrorCode::DSP0005, format!("WSDL: {}", msg.into()))
}

fn local(n: &NodeHandle) -> String {
    n.name().map(|q| q.local.to_string()).unwrap_or_default()
}

fn attr(n: &NodeHandle, name: &str) -> Option<String> {
    n.attributes()
        .into_iter()
        .find(|a| a.name().map(|q| q.local).as_deref() == Some(name))
        .and_then(|a| a.content())
}

/// Strip a `tns:`-style prefix from a QName reference.
fn local_ref(s: &str) -> String {
    s.rsplit(':').next().unwrap_or(s).to_string()
}

fn elements<'a>(
    parent: &NodeHandle,
    name: &'a str,
) -> impl Iterator<Item = NodeHandle> + use<'a> {
    parent
        .children()
        .into_iter()
        .filter(move |c| c.kind() == NodeKind::Element && local(c) == name)
}

/// Parse a WSDL 1.1 document (as XML text).
pub fn parse_wsdl(xml: &str) -> XdmResult<Wsdl> {
    let doc = xmlparse::parse(xml)?;
    let defs = doc
        .children()
        .into_iter()
        .find(|c| c.kind() == NodeKind::Element)
        .ok_or_else(|| werr("no document element"))?;
    if local(&defs) != "definitions" {
        return Err(werr(format!(
            "expected wsdl:definitions, found {}",
            local(&defs)
        )));
    }
    let target_namespace = attr(&defs, "targetNamespace").unwrap_or_default();
    let name = attr(&defs, "name")
        .or_else(|| elements(&defs, "service").next().and_then(|s| attr(&s, "name")))
        .unwrap_or_else(|| "WebService".to_string());

    // message name → element local name (first part with @element).
    let mut messages: HashMap<String, String> = HashMap::new();
    for m in elements(&defs, "message") {
        let Some(mname) = attr(&m, "name") else { continue };
        if let Some(elem) = elements(&m, "part").find_map(|p| attr(&p, "element")) {
            messages.insert(mname, local_ref(&elem));
        }
    }

    let mut operations = Vec::new();
    for pt in elements(&defs, "portType") {
        for op in elements(&pt, "operation") {
            let op_name = attr(&op, "name")
                .ok_or_else(|| werr("operation without a name"))?;
            let resolve = |kind: &str| -> XdmResult<String> {
                let msg = elements(&op, kind)
                    .next()
                    .and_then(|io| attr(&io, "message"))
                    .ok_or_else(|| {
                        werr(format!("operation {op_name} lacks an {kind} message"))
                    })?;
                messages.get(&local_ref(&msg)).cloned().ok_or_else(|| {
                    werr(format!(
                        "message {msg} (for operation {op_name}) has no element part"
                    ))
                })
            };
            operations.push(WsdlOperation {
                input_element: resolve("input")?,
                output_element: resolve("output")?,
                name: op_name,
            });
        }
    }
    if operations.is_empty() {
        return Err(werr("no operations found in any portType"));
    }
    Ok(Wsdl { name, target_namespace, operations })
}

impl Wsdl {
    /// Build a [`WebService`] from this metadata, attaching one
    /// handler per operation by name. Every operation must be covered.
    pub fn into_web_service(
        self,
        mut handlers: HashMap<String, WsHandler>,
    ) -> XdmResult<WebService> {
        let mut svc = WebService::new(&self.name, &self.target_namespace);
        for op in &self.operations {
            let handler = handlers.remove(&op.name).ok_or_else(|| {
                werr(format!("no handler provided for operation {}", op.name))
            })?;
            svc.add_operation(&op.name, &op.input_element, &op.output_element, handler);
        }
        Ok(svc)
    }
}

/// The credit-rating WSDL as the paper's testbed would have served it.
pub const CREDIT_RATING_WSDL: &str = r#"<?xml version="1.0"?>
<definitions name="CreditRating"
    targetNamespace="urn:creditrating/types"
    xmlns="http://schemas.xmlsoap.org/wsdl/"
    xmlns:tns="urn:creditrating/types">
  <message name="getCreditRatingRequest">
    <part name="parameters" element="tns:getCreditRating"/>
  </message>
  <message name="getCreditRatingResponse">
    <part name="parameters" element="tns:getCreditRatingResponse"/>
  </message>
  <portType name="CreditRatingPortType">
    <operation name="getCreditRating">
      <input message="tns:getCreditRatingRequest"/>
      <output message="tns:getCreditRatingResponse"/>
    </operation>
  </portType>
  <service name="CreditRating"/>
</definitions>
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;
    use xdm::sequence::Sequence;

    #[test]
    fn parses_credit_rating_wsdl() {
        let w = parse_wsdl(CREDIT_RATING_WSDL).unwrap();
        assert_eq!(w.name, "CreditRating");
        assert_eq!(w.target_namespace, "urn:creditrating/types");
        assert_eq!(
            w.operations,
            vec![WsdlOperation {
                name: "getCreditRating".into(),
                input_element: "getCreditRating".into(),
                output_element: "getCreditRatingResponse".into(),
            }]
        );
    }

    #[test]
    fn builds_web_service_with_handlers() {
        let w = parse_wsdl(CREDIT_RATING_WSDL).unwrap();
        let mut handlers: HashMap<String, WsHandler> = HashMap::new();
        handlers.insert(
            "getCreditRating".into(),
            Rc::new(|_req: &Sequence| Ok(Sequence::empty())),
        );
        let svc = w.into_web_service(handlers).unwrap();
        assert_eq!(svc.operation_names(), vec!["getCreditRating"]);
        assert_eq!(
            svc.operation("getCreditRating").unwrap().output_element,
            "getCreditRatingResponse"
        );
    }

    #[test]
    fn missing_handler_is_an_error() {
        let w = parse_wsdl(CREDIT_RATING_WSDL).unwrap();
        assert!(w.into_web_service(HashMap::new()).is_err());
    }

    #[test]
    fn multi_operation_port_type() {
        let xml = r#"<definitions name="Multi" targetNamespace="urn:m"
            xmlns:tns="urn:m">
          <message name="aIn"><part element="tns:AReq"/></message>
          <message name="aOut"><part element="tns:AResp"/></message>
          <message name="bIn"><part element="tns:BReq"/></message>
          <message name="bOut"><part element="tns:BResp"/></message>
          <portType name="P">
            <operation name="doA">
              <input message="tns:aIn"/><output message="tns:aOut"/>
            </operation>
            <operation name="doB">
              <input message="tns:bIn"/><output message="tns:bOut"/>
            </operation>
          </portType>
        </definitions>"#;
        let w = parse_wsdl(xml).unwrap();
        assert_eq!(w.operations.len(), 2);
        assert_eq!(w.operations[1].name, "doB");
        assert_eq!(w.operations[1].input_element, "BReq");
    }

    #[test]
    fn malformed_wsdl_rejected() {
        assert!(parse_wsdl("<notwsdl/>").is_err());
        // Operation referencing a missing message.
        let xml = r#"<definitions name="X" targetNamespace="urn:x" xmlns:tns="urn:x">
          <portType name="P">
            <operation name="op">
              <input message="tns:nope"/><output message="tns:nope"/>
            </operation>
          </portType>
        </definitions>"#;
        assert!(parse_wsdl(xml).is_err());
        // No operations at all.
        let xml = r#"<definitions name="X" targetNamespace="urn:x"/>"#;
        assert!(parse_wsdl(xml).is_err());
    }
}
