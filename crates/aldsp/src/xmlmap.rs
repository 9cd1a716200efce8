//! Row ↔ XML mapping: "The data service shapes in this case correspond
//! to the natural 'XML view' of a row of each table or view" (§II.A).
//!
//! A row of table `T` becomes `<T><COL1>…</COL1>…</T>` in the
//! service's namespace; NULL columns are omitted. The reverse mapping
//! reads such an element back into typed [`SqlValue`]s for the
//! generated create/update/delete procedures.

// Row materialization runs on every cache miss of every read path:
// failures must surface as errors, never panics.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::node::NodeHandle;
use xdm::qname::QName;
use xdm::sequence::{Item, Sequence};

use crate::rel::{Row, SqlValue, TableSchema};

/// The namespace a physical data service for `source`/`table` uses:
/// `ld:<source>/<table>` — the `ld:` dataspace-path convention visible
/// in Figure 4 (`ld:CustomerProfile`).
pub fn service_namespace(source: &str, table: &str) -> String {
    format!("ld:{source}/{table}")
}

/// Render a row as its XML view. Elements are unqualified — Figure 3's
/// paths (`$CUSTOMER/CID`) and shape tests (`element(CUSTOMER)`) use
/// unprefixed names; the service namespace scopes *function* names,
/// not data. The `ns` parameter is retained for API stability and is
/// recorded as metadata only.
pub fn row_to_xml(schema: &TableSchema, ns: &str, row: &Row) -> NodeHandle {
    let _ = ns;
    let row_name = QName::new(schema.name.clone());
    let col_names: Vec<QName> =
        schema.columns.iter().map(|c| QName::new(c.name.clone())).collect();
    row_to_xml_named(&row_name, &col_names, row)
}

/// Row→XML with the QNames already built. The names are identical for
/// every row of a table, so the bulk materializer constructs them once
/// per batch instead of once per row (interned `Symbol`s make each
/// remaining clone a refcount bump).
fn row_to_xml_named(row_name: &QName, col_names: &[QName], row: &Row) -> NodeHandle {
    let fields = col_names
        .iter()
        .zip(row)
        .filter(|(_, val)| !val.is_null())
        .map(|(name, val)| (*name, val.lexical()));
    NodeHandle::new_record(*row_name, fields)
}

/// The first child element of `node` whose local name is `local`
/// (namespaces ignored, as sources see local names).
pub(crate) fn field_element(node: &NodeHandle, local: &str) -> Option<NodeHandle> {
    let mut found = None;
    node.each_child_where(
        false,
        |_, name| name.is_some_and(|q| &*q.local == local),
        |c| {
            found.get_or_insert(c);
        },
    );
    found
}

/// Render many rows. Per-column QNames are hoisted out of the row loop.
pub fn rows_to_sequence(schema: &TableSchema, ns: &str, rows: &[Row]) -> Sequence {
    let _ = ns;
    let row_name = QName::new(schema.name.clone());
    let col_names: Vec<QName> =
        schema.columns.iter().map(|c| QName::new(c.name.clone())).collect();
    rows.iter()
        .map(|r| Item::Node(row_to_xml_named(&row_name, &col_names, r)))
        .collect()
}

/// Read an XML row view back into typed values. Missing elements map
/// to NULL; namespaces are ignored on children (sources see local
/// names).
pub fn xml_to_row(schema: &TableSchema, node: &NodeHandle) -> XdmResult<Row> {
    if node.name().is_none_or(|q| q.local != schema.name) {
        return Err(XdmError::new(
            ErrorCode::DSP0003,
            format!(
                "expected element {} for table {}, found {:?}",
                schema.name,
                schema.name,
                node.name().map(|q| q.lexical())
            ),
        ));
    }
    let mut row = Vec::with_capacity(schema.columns.len());
    for col in &schema.columns {
        match field_element(node, &col.name) {
            Some(c) => row.push(SqlValue::parse(col.ty, &c.string_value())?),
            None => row.push(SqlValue::Null),
        }
    }
    Ok(row)
}

/// Extract one column's typed value from an XML row view.
pub fn xml_field(
    schema: &TableSchema,
    node: &NodeHandle,
    column: &str,
) -> XdmResult<SqlValue> {
    let col = schema.column(column).ok_or_else(|| {
        XdmError::new(
            ErrorCode::DSP0003,
            format!("no column {column} in {}", schema.name),
        )
    })?;
    match field_element(node, column) {
        Some(c) => SqlValue::parse(col.ty, &c.string_value()),
        None => Ok(SqlValue::Null),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::rel::{Column, ColumnType};
    use xmlparse::serialize;

    fn schema() -> TableSchema {
        TableSchema {
            name: "CUSTOMER".into(),
            columns: vec![
                Column::required("CID", ColumnType::Integer),
                Column::required("LAST_NAME", ColumnType::Varchar),
                Column::nullable("SSN", ColumnType::Varchar),
            ],
            primary_key: vec!["CID".into()],
            foreign_keys: vec![],
        }
    }

    #[test]
    fn row_to_xml_shape() {
        let row = vec![
            SqlValue::Int(7),
            SqlValue::Str("Carey".into()),
            SqlValue::Null,
        ];
        let xml = row_to_xml(&schema(), "ld:db1/CUSTOMER", &row);
        let s = serialize(&xml);
        assert!(s.contains("<CUSTOMER>"), "unqualified row element: {s}");
        assert!(s.contains("<CID>7</CID>"));
        assert!(s.contains("<LAST_NAME>Carey</LAST_NAME>"));
        assert!(!s.contains("SSN"), "NULL column must be omitted");
    }

    #[test]
    fn round_trip() {
        let row = vec![
            SqlValue::Int(7),
            SqlValue::Str("Carey".into()),
            SqlValue::Str("123".into()),
        ];
        let xml = row_to_xml(&schema(), "ld:x", &row);
        let back = xml_to_row(&schema(), &xml).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn null_round_trip() {
        let row = vec![SqlValue::Int(7), SqlValue::Str("C".into()), SqlValue::Null];
        let xml = row_to_xml(&schema(), "ld:x", &row);
        let back = xml_to_row(&schema(), &xml).unwrap();
        assert_eq!(back[2], SqlValue::Null);
    }

    #[test]
    fn xml_field_extraction() {
        let row = vec![SqlValue::Int(7), SqlValue::Str("C".into()), SqlValue::Null];
        let xml = row_to_xml(&schema(), "ld:x", &row);
        assert_eq!(xml_field(&schema(), &xml, "CID").unwrap(), SqlValue::Int(7));
        assert_eq!(xml_field(&schema(), &xml, "SSN").unwrap(), SqlValue::Null);
        assert!(xml_field(&schema(), &xml, "NOPE").is_err());
    }

    #[test]
    fn wrong_element_name_rejected() {
        let other = NodeHandle::root_element(QName::new("ORDER"));
        assert!(xml_to_row(&schema(), &other).is_err());
    }

    #[test]
    fn type_errors_surface() {
        let bad = NodeHandle::root_element(QName::new("CUSTOMER"));
        let arena = bad.arena().clone();
        let cid = NodeHandle::new_element(&arena, QName::new("CID"));
        cid.append_child(&NodeHandle::new_text(&arena, "not-a-number")).unwrap();
        bad.append_child(&cid).unwrap();
        assert!(xml_to_row(&schema(), &bad).is_err());
    }
}
