//! Golden WSDL documents, as the VSR stores and ships them.
//!
//! Captured from the element-tree serialiser (`to_xml().to_document()`)
//! that `ServiceDescription` used before its writer was streamed. Every
//! publish carries this document as a SOAP argument, so its bytes are
//! wire bytes: the streamed writer must reproduce them exactly, for
//! every catalog interface, for an interface without operations and for
//! names and endpoints that need XML escaping, and the borrowed-tier
//! reader must parse them back.

use metaware::{catalog, OpSig, ServiceInterface, TypeTag};
use wsdl::ServiceDescription;

/// `(service name, interface, endpoint, golden document)`.
fn cases() -> Vec<(&'static str, ServiceInterface, &'static str, &'static str)> {
    vec![
        (
            "hall-lamp",
            catalog::lamp(),
            "vsg://x10-gw/hall-lamp",
            include_str!("wsdl_goldens/hall-lamp.xml"),
        ),
        (
            "living-room-vcr",
            catalog::vcr(),
            "vsg://havi-gw/living-room-vcr",
            include_str!("wsdl_goldens/living-room-vcr.xml"),
        ),
        (
            "laserdisc",
            catalog::laserdisc(),
            "vsg://jini-gw/laserdisc",
            include_str!("wsdl_goldens/laserdisc.xml"),
        ),
        (
            "dv-camera",
            catalog::dv_camera(),
            "vsg://havi-gw/dv-camera",
            include_str!("wsdl_goldens/dv-camera.xml"),
        ),
        (
            "tv-tuner",
            catalog::tuner(),
            "vsg://havi-gw/tv-tuner",
            include_str!("wsdl_goldens/tv-tuner.xml"),
        ),
        (
            "osd-display",
            catalog::display(),
            "vsg://havi-gw/osd-display",
            include_str!("wsdl_goldens/osd-display.xml"),
        ),
        (
            "fridge",
            catalog::fridge(),
            "vsg://jini-gw/fridge",
            include_str!("wsdl_goldens/fridge.xml"),
        ),
        (
            "aircon",
            catalog::aircon(),
            "vsg://jini-gw/aircon",
            include_str!("wsdl_goldens/aircon.xml"),
        ),
        (
            "mailer",
            catalog::mailer(),
            "vsg://inet-gw/mailer",
            include_str!("wsdl_goldens/mailer.xml"),
        ),
        (
            "hall-motion",
            catalog::motion_sensor(),
            "vsg://x10-gw/hall-motion",
            include_str!("wsdl_goldens/hall-motion.xml"),
        ),
        (
            "idle",
            ServiceInterface::new("Idle"),
            "vsg://x10-gw/idle",
            include_str!("wsdl_goldens/idle.xml"),
        ),
        (
            "odd&<name>\"'",
            ServiceInterface::new("Odd & <Iface> \"q\" 'a'")
                .op(OpSig::new("do&<it>")
                    .param("a\"b'c>", TypeTag::Str)
                    .returns(TypeTag::Str)
                    .idempotent())
                .op(OpSig::new("plain")),
            "vsg://gw&<>\"'/odd&<name>\"'",
            include_str!("wsdl_goldens/escaped.xml"),
        ),
    ]
}

#[test]
fn streamed_writer_reproduces_the_golden_bytes() {
    for (name, iface, endpoint, golden) in cases() {
        let doc = iface.to_wsdl(name, endpoint).to_document();
        assert_eq!(doc, golden, "WSDL bytes of {name:?} moved");
    }
}

#[test]
fn borrowed_reader_round_trips_the_goldens() {
    for (name, iface, endpoint, golden) in cases() {
        let root = minixml::parse_ref(golden).unwrap();
        let desc = ServiceDescription::from_xml(&root).unwrap();
        assert_eq!(desc, iface.to_wsdl(name, endpoint), "{name:?}");
        assert_eq!(ServiceInterface::from_wsdl(&desc), iface, "{name:?}");
        assert_eq!(desc.to_document(), golden, "{name:?} re-serialised");
    }
}
