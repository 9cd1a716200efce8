//! # xmlparse — XML 1.0 parsing and serialization over XDM
//!
//! A self-contained, namespace-aware XML parser that builds
//! [`xdm::NodeHandle`] trees, and a serializer that renders them back.
//! It supports the features the ALDSP data plane needs: elements,
//! attributes, namespace declarations (`xmlns`, `xmlns:p`), character
//! data, CDATA sections, comments, processing instructions, the five
//! predefined entities, and numeric character references.
//!
//! ```
//! use xmlparse::{parse, serialize};
//! let doc = parse("<a x=\"1\"><b>hi</b></a>").unwrap();
//! let root = doc.children().pop().unwrap();
//! assert_eq!(root.string_value(), "hi");
//! assert_eq!(serialize(&root), "<a x=\"1\"><b>hi</b></a>");
//! ```

mod parser;
mod serializer;

pub use parser::{parse, parse_fragment, ParseOptions, MAX_ELEMENT_DEPTH};
pub use serializer::{
    serialize, serialize_pretty, serialize_sequence, serialize_sequence_stream,
    IncrementalSerializer,
};
