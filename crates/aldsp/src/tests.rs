//! Cross-module ALDSP tests: decomposition, OCC policies, overrides,
//! and the end-to-end disconnected-update story of Figure 4.

use std::rc::Rc;

use xdm::error::ErrorCode;
use xdm::qname::QName;
use xdm::sequence::{Item, Sequence};

use crate::decompose::{OccPolicy, UpdateOverride};
use crate::demo;
use crate::rel::SqlValue;
use xqeval::Features;

fn demo3() -> demo::Demo {
    demo::build(3, 2, 2).unwrap()
}

fn last_name_in_db(d: &demo::Demo, cid: i64) -> String {
    let rows = d
        .db1
        .select("CUSTOMER", &vec![("CID".into(), SqlValue::Int(cid))])
        .unwrap();
    rows[0][2].lexical()
}

// ------------------------------------------------- figure 4 round trip

#[test]
fn disconnected_update_round_trip() {
    // Figure 4: get → modify ("Carrey" → "Carey") → submit.
    let d = demo3();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    let before = g.get_value(0, &["LAST_NAME"]).unwrap();
    g.set_value(0, &["LAST_NAME"], "Changed").unwrap();
    d.space.submit(&g).unwrap();
    assert_eq!(last_name_in_db(&d, 1), "Changed");
    assert_ne!(before, "Changed");
    // The generated SQL is a keyed, conditioned UPDATE.
    let sql = d.space.last_decomposition.borrow().clone();
    assert_eq!(sql.len(), 1);
    assert!(sql[0].contains("UPDATE CUSTOMER SET LAST_NAME = 'Changed'"), "{sql:?}");
    assert!(sql[0].contains("CID = 1"), "{sql:?}");
    // UpdatedValues policy: old value conditioned into the WHERE.
    assert!(sql[0].contains(&format!("LAST_NAME = '{before}'")), "{sql:?}");
}

#[test]
fn unaffected_sources_not_touched() {
    // §II.C: "unaffected data sources are not involved in an update".
    let d = demo3();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["LAST_NAME"], "OnlyDb1").unwrap();
    let (c2_before, a2_before) = d.db2.stats();
    d.space.submit(&g).unwrap();
    let (c2_after, a2_after) = d.db2.stats();
    assert_eq!((c2_before, a2_before), (c2_after, a2_after), "db2 must be untouched");
}

#[test]
fn nested_order_update_decomposes_to_child_table() {
    let d = demo3();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["Orders", "ORDER#1", "STATUS"], "CANCELLED").unwrap();
    d.space.submit(&g).unwrap();
    let rows = d
        .db1
        .select("ORDER", &vec![("OID".into(), SqlValue::Int(2))])
        .unwrap();
    assert_eq!(rows[0][4], SqlValue::Str("CANCELLED".into()));
}

#[test]
fn renamed_element_updates_original_column() {
    // <TOTAL> maps to TOTAL_ORDER_AMOUNT.
    let d = demo3();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["Orders", "ORDER", "TOTAL"], "123.45").unwrap();
    d.space.submit(&g).unwrap();
    let rows = d
        .db1
        .select("ORDER", &vec![("OID".into(), SqlValue::Int(1))])
        .unwrap();
    assert_eq!(rows[0][3].lexical(), "123.45");
    let sql = d.space.last_decomposition.borrow().clone();
    assert!(sql[0].contains("SET TOTAL_ORDER_AMOUNT = 123.45"), "{sql:?}");
}

#[test]
fn cross_source_update_runs_2pc() {
    let d = demo3();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["LAST_NAME"], "Both").unwrap();
    g.set_value(0, &["CreditCards", "CREDIT_CARD", "BRAND"], "NEWBRAND").unwrap();
    d.space.submit(&g).unwrap();
    assert_eq!(last_name_in_db(&d, 1), "Both");
    let cards = d
        .db2
        .select("CREDIT_CARD", &vec![("CCID".into(), SqlValue::Int(1))])
        .unwrap();
    assert_eq!(cards[0][3], SqlValue::Str("NEWBRAND".into()));
    let sql = d.space.last_decomposition.borrow().clone();
    assert_eq!(sql.len(), 2);
    assert!(sql.iter().any(|s| s.starts_with("[db1]")));
    assert!(sql.iter().any(|s| s.starts_with("[db2]")));
}

#[test]
fn multiple_changes_same_row_merge_into_one_statement() {
    let d = demo3();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["LAST_NAME"], "A").unwrap();
    g.set_value(0, &["FIRST_NAME"], "B").unwrap();
    d.space.submit(&g).unwrap();
    let sql = d.space.last_decomposition.borrow().clone();
    assert_eq!(sql.len(), 1, "one UPDATE for two fields: {sql:?}");
    assert!(sql[0].contains("LAST_NAME = 'A'"));
    assert!(sql[0].contains("FIRST_NAME = 'B'"));
}

#[test]
fn unmapped_element_update_fails_with_dsp0002() {
    // CreditRating comes from the web service — no lineage.
    let d = demo3();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["CreditRating"], "999").unwrap();
    let err = d.space.submit(&g).unwrap_err();
    assert!(err.is(ErrorCode::DSP0002));
}

// ----------------------------------------------------------- policies

#[test]
fn occ_read_values_widens_where_clause() {
    let d = demo3();
    d.space
        .set_occ_policy("CustomerProfile", OccPolicy::ReadValues)
        .unwrap();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["LAST_NAME"], "Wide").unwrap();
    d.space.submit(&g).unwrap();
    let sql = d.space.last_decomposition.borrow().clone();
    // All read fields of the row are conditioned.
    assert!(sql[0].contains("FIRST_NAME = "), "{sql:?}");
    assert!(sql[0].contains("LAST_NAME = "), "{sql:?}");
    assert!(sql[0].contains("CID = 1"), "{sql:?}");
}

#[test]
fn occ_chosen_subset_narrows_where_clause() {
    let d = demo3();
    d.space
        .set_occ_policy(
            "CustomerProfile",
            OccPolicy::ChosenSubset(vec!["FIRST_NAME".into()]),
        )
        .unwrap();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["LAST_NAME"], "Narrow").unwrap();
    d.space.submit(&g).unwrap();
    let sql = d.space.last_decomposition.borrow().clone();
    assert!(sql[0].contains("WHERE CID = 1 AND FIRST_NAME = "), "{sql:?}");
    // The changed column's old value is NOT conditioned.
    assert!(!sql[0].contains("LAST_NAME = 'Carey'"), "{sql:?}");
}

#[test]
fn occ_conflict_detected_and_nothing_applied() {
    let d = demo3();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["LAST_NAME"], "Mine").unwrap();
    // A concurrent writer sneaks in after the read.
    d.db1
        .execute(vec![crate::rel::WriteOp::Update {
            table: "CUSTOMER".into(),
            set: vec![("LAST_NAME".into(), SqlValue::Str("Theirs".into()))],
            cond: vec![("CID".into(), SqlValue::Int(1))],
            expect_rows: 1,
        }])
        .unwrap();
    let err = d.space.submit(&g).unwrap_err();
    assert!(err.is(ErrorCode::DSP0001), "{err}");
    // The concurrent write survives (no lost update).
    assert_eq!(last_name_in_db(&d, 1), "Theirs");
}

#[test]
fn occ_chosen_subset_misses_conflicts_outside_subset() {
    // The trade-off the paper's third policy makes: a version-column
    // policy does not see conflicting writes to other columns.
    let d = demo3();
    d.space
        .set_occ_policy(
            "CustomerProfile",
            OccPolicy::ChosenSubset(vec!["FIRST_NAME".into()]),
        )
        .unwrap();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["LAST_NAME"], "Mine").unwrap();
    d.db1
        .execute(vec![crate::rel::WriteOp::Update {
            table: "CUSTOMER".into(),
            set: vec![("LAST_NAME".into(), SqlValue::Str("Theirs".into()))],
            cond: vec![("CID".into(), SqlValue::Int(1))],
            expect_rows: 1,
        }])
        .unwrap();
    // Submit succeeds — the subset (FIRST_NAME) did not change.
    d.space.submit(&g).unwrap();
    assert_eq!(last_name_in_db(&d, 1), "Mine");
}

// ----------------------------------------------------------- overrides

#[test]
fn rust_override_replaces_default_handling() {
    // The ALDSP 2.5 story: a "Java" override takes over.
    let d = demo3();
    let called = Rc::new(std::cell::RefCell::new(false));
    let c2 = called.clone();
    d.space
        .set_update_override(
            "CustomerProfile",
            UpdateOverride::Rust(Rc::new(move |_space, _graph| {
                *c2.borrow_mut() = true;
                Ok(())
            })),
        )
        .unwrap();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["LAST_NAME"], "X").unwrap();
    d.space.submit(&g).unwrap();
    assert!(*called.borrow());
    // Default handling did NOT run.
    assert_ne!(last_name_in_db(&d, 1), "X");
}

#[test]
fn rust_override_can_extend_default_handling() {
    // "The update override could either extend or replace the default
    // update handling logic" (§II.C).
    let d = demo3();
    d.space
        .set_update_override(
            "CustomerProfile",
            UpdateOverride::Rust(Rc::new(|space, graph| {
                // Enforce a business rule, then delegate.
                for c in graph.changes() {
                    if c.node.string_value().is_empty() {
                        return Err(xdm::error::XdmError::new(
                            ErrorCode::DSP0003,
                            "empty values are not allowed",
                        ));
                    }
                }
                space.default_submit(graph)
            })),
        )
        .unwrap();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["LAST_NAME"], "Extended").unwrap();
    d.space.submit(&g).unwrap();
    assert_eq!(last_name_in_db(&d, 1), "Extended");
    // And the rule fires.
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["LAST_NAME"], "").unwrap();
    assert!(d.space.submit(&g).is_err());
}

#[test]
fn xqse_override_receives_datagraph() {
    // The ALDSP 3.0 story: the override is an XQSE procedure. This one
    // audits the change and applies the update via the physical
    // update procedure — no Java required.
    let d = demo3();
    d.space
        .xqse()
        .load(
            r#"
declare namespace ovr = "urn:ovr";
declare namespace cus = "ld:db1/CUSTOMER";
declare procedure ovr:handleUpdate($dg as element()) as empty-sequence()
{
  iterate $profile over $dg/CustomerProfile {
    declare $row := <CUSTOMER>
        <CID>{fn:data($profile/CID)}</CID>
        <FIRST_NAME>{fn:data($profile/FIRST_NAME)}</FIRST_NAME>
        <LAST_NAME>{fn:data($profile/LAST_NAME)}</LAST_NAME>
      </CUSTOMER>;
    cus:updateCUSTOMER($row);
  }
};
"#,
        )
        .unwrap();
    d.space
        .set_update_override(
            "CustomerProfile",
            UpdateOverride::Procedure(QName::with_ns("urn:ovr", "handleUpdate")),
        )
        .unwrap();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["LAST_NAME"], "ViaXqse").unwrap();
    d.space.submit(&g).unwrap();
    assert_eq!(last_name_in_db(&d, 1), "ViaXqse");
}

// -------------------------------------------------- create and delete

#[test]
fn create_instance_decomposes_across_sources() {
    let d = demo3();
    let xml = "<CustomerProfile><CID>99</CID><LAST_NAME>New</LAST_NAME>\
               <FIRST_NAME>Person</FIRST_NAME>\
               <Orders><ORDER><OID>990</OID><CID>99</CID><STATUS>OPEN</STATUS></ORDER></Orders>\
               <CreditCards><CREDIT_CARD><CCID>990</CCID><CID>99</CID>\
               <NUMBER>4000-99</NUMBER></CREDIT_CARD></CreditCards>\
               </CustomerProfile>";
    let doc = xmlparse::parse(xml).unwrap();
    let inst = doc.children()[0].clone();
    d.space.create_instance("CustomerProfile", &inst).unwrap();
    assert_eq!(last_name_in_db(&d, 99), "New");
    assert_eq!(
        d.db1.select("ORDER", &vec![("OID".into(), SqlValue::Int(990))]).unwrap().len(),
        1
    );
    assert_eq!(
        d.db2
            .select("CREDIT_CARD", &vec![("CCID".into(), SqlValue::Int(990))])
            .unwrap()
            .len(),
        1
    );
}

#[test]
fn delete_instance_removes_children_first() {
    let d = demo3();
    let g = d.space.get("CustomerProfile", "getProfileById", vec![Sequence::one(
        Item::string("2"),
    )]).unwrap();
    let inst = g.instance(0).unwrap();
    d.space.delete_instance("CustomerProfile", &inst).unwrap();
    assert!(d
        .db1
        .select("CUSTOMER", &vec![("CID".into(), SqlValue::Int(2))])
        .unwrap()
        .is_empty());
    assert!(d
        .db1
        .select("ORDER", &vec![("CID".into(), SqlValue::Int(2))])
        .unwrap()
        .is_empty());
    assert!(d
        .db2
        .select("CREDIT_CARD", &vec![("CID".into(), SqlValue::Int(2))])
        .unwrap()
        .is_empty());
    // Others survive.
    assert_eq!(d.db1.row_count("CUSTOMER").unwrap(), 2);
}

// ------------------------------------------ use case 1, full platform

#[test]
fn use_case_1_user_defined_delete_via_xqse() {
    // §III.D.1: augment the generated methods with an XQSE procedure
    // that deletes by id, internally using the default delete method.
    let d = demo3();
    d.space
        .xqse()
        .load(
            r#"
declare namespace tns = "urn:uc1";
declare namespace cus = "ld:db1/CUSTOMER";
declare procedure tns:deleteByCID($cid as xs:string) as empty-sequence()
{
  declare $cust := cus:getByCID($cid);
  if (fn:not(fn:empty($cust))) then cus:deleteCUSTOMER($cust);
};
"#,
        )
        .unwrap();
    let mut env = xqeval::Env::new();
    d.space
        .xqse()
        .call_procedure(
            &QName::with_ns("urn:uc1", "deleteByCID"),
            vec![Sequence::one(Item::string("3"))],
            &mut env,
        )
        .unwrap();
    assert_eq!(d.db1.row_count("CUSTOMER").unwrap(), 2);
    // Deleting a non-existent id is a no-op (the `if` guard).
    d.space
        .xqse()
        .call_procedure(
            &QName::with_ns("urn:uc1", "deleteByCID"),
            vec![Sequence::one(Item::string("404"))],
            &mut env,
        )
        .unwrap();
    assert_eq!(d.db1.row_count("CUSTOMER").unwrap(), 2);
}

// ------------------------------------------------------ physical CUD

#[test]
fn generated_physical_methods_work_from_queries() {
    let d = demo3();
    let engine = d.space.engine();
    // Read method.
    let out = engine
        .eval_expr_str("fn:count(cus:CUSTOMER())", &[("cus", "ld:db1/CUSTOMER")])
        .unwrap();
    assert_eq!(out.string_value().unwrap(), "3");
    // Navigation function.
    let out = engine
        .eval_expr_str(
            "for $c in cus:CUSTOMER()[CID eq '1'] return fn:count(cus:getORDER($c))",
            &[("cus", "ld:db1/CUSTOMER")],
        )
        .unwrap();
    assert_eq!(out.string_value().unwrap(), "2");
    // Keyed read.
    let out = engine
        .eval_expr_str(
            "fn:data(cus:getByCID('2')/LAST_NAME)",
            &[("cus", "ld:db1/CUSTOMER")],
        )
        .unwrap();
    assert_eq!(out.string_value().unwrap(), "Borkar");
}

#[test]
fn service_catalog_metadata() {
    use crate::service::{MethodKind, ServiceKind};
    let d = demo3();
    let names = d.space.service_names();
    assert!(names.contains(&"db1/CUSTOMER".to_string()));
    assert!(names.contains(&"db1/ORDER".to_string()));
    assert!(names.contains(&"db2/CREDIT_CARD".to_string()));
    assert!(names.contains(&"ws/CreditRating".to_string()));
    assert!(names.contains(&"CustomerProfile".to_string()));
    let cust = d.space.service("db1/CUSTOMER").unwrap();
    assert_eq!(cust.kind, ServiceKind::Entity);
    let kinds: Vec<MethodKind> = cust.methods.iter().map(|m| m.kind).collect();
    assert!(kinds.contains(&MethodKind::Read));
    assert!(kinds.contains(&MethodKind::Create));
    assert!(kinds.contains(&MethodKind::Update));
    assert!(kinds.contains(&MethodKind::Delete));
    assert!(kinds.contains(&MethodKind::Navigation));
    let ws = d.space.service("ws/CreditRating").unwrap();
    assert_eq!(ws.kind, ServiceKind::Library);
    let logical = d.space.service("CustomerProfile").unwrap();
    assert_eq!(logical.shape.as_deref(), Some("CustomerProfile"));
}

#[test]
fn describe_renders_design_view() {
    let d = demo3();
    let s = d.space.describe("CustomerProfile").unwrap();
    assert!(s.contains("entity data service: CustomerProfile"), "{s}");
    assert!(s.contains("shape: element(CustomerProfile)"), "{s}");
    assert!(s.contains("db1/CUSTOMER"), "{s}");
    assert!(s.contains("db2/CREDIT_CARD"), "{s}");
    assert!(s.contains("not updatable (no lineage): CreditRating"), "{s}");
    let s = d.space.describe("db1/CUSTOMER").unwrap();
    assert!(s.contains("read      CUSTOMER#0"), "{s}");
    assert!(s.contains("navigate  getORDER#1"), "{s}");
    assert!(s.contains("create    createCUSTOMER#1"), "{s}");
    assert!(d.space.describe("nosuch").is_err());
}

// ------------------------------- navigation through the keyed select

const NAV_NS: &[(&str, &str)] = &[("cus", "ld:db1/CUSTOMER"), ("ord", "ld:db1/ORDER")];

/// Comma-joined OIDs `cus:getORDER` returns for customer `cid`.
fn navigated_oids(d: &demo::Demo, cid: i64) -> xdm::error::XdmResult<String> {
    d.space
        .engine()
        .eval_expr_str(
            &format!(
                "for $c in cus:CUSTOMER()[CID eq '{cid}'] return \
                 fn:string-join(for $o in cus:getORDER($c) return fn:string($o/OID), ',')"
            ),
            NAV_NS,
        )?
        .string_value()
}

/// Comma-joined OIDs of a FLWOR point-select on ORDER's CID.
fn selected_oids(d: &demo::Demo, cid: i64) -> xdm::error::XdmResult<String> {
    d.space
        .engine()
        .eval_expr_str(
            &format!(
                "fn:string-join(for $o in ord:ORDER() where $o/CID eq {cid} \
                 return fn:string($o/OID), ',')"
            ),
            NAV_NS,
        )?
        .string_value()
}

/// Whether two navigation calls from one customer return the same
/// (cached) row nodes.
fn navigation_is_cached(d: &demo::Demo) -> bool {
    d.space
        .engine()
        .eval_expr_str(
            "let $c := cus:CUSTOMER()[CID eq '1'] \
             return cus:getORDER($c)[1] is cus:getORDER($c)[1]",
            NAV_NS,
        )
        .unwrap()
        .effective_boolean()
        .unwrap()
}

#[test]
fn navigation_is_served_from_the_keyed_select_cache() {
    let d = demo3();
    let engine = d.space.engine();
    assert_eq!(navigated_oids(&d, 1).unwrap(), "1,2");
    engine.reset_opt_stats();
    assert_eq!(navigated_oids(&d, 1).unwrap(), "1,2");
    assert_eq!(engine.opt_stats().indexed_selects, 0, "warm navigation probes nothing");
    assert!(navigation_is_cached(&d));
    // Navigation and the FLWOR point-select share one cache entry.
    assert_eq!(selected_oids(&d, 1).unwrap(), "1,2");
    assert_eq!(engine.opt_stats().indexed_selects, 0);

    // A committed write to ORDER bumps its version: the next
    // navigation re-probes and sees the new row.
    d.db1
        .execute(vec![crate::rel::WriteOp::Insert {
            table: "ORDER".into(),
            row: vec![
                SqlValue::Int(100),
                SqlValue::Int(1),
                SqlValue::Null,
                SqlValue::Null,
                SqlValue::Str("OPEN".into()),
            ],
        }])
        .unwrap();
    assert_eq!(navigated_oids(&d, 1).unwrap(), "1,2,100");
    assert_eq!(engine.opt_stats().indexed_selects, 1);
    assert_eq!(navigated_oids(&d, 1).unwrap(), "1,2,100");
    assert_eq!(engine.opt_stats().indexed_selects, 1);
}

#[test]
fn navigation_probes_per_call_without_batching() {
    let d = demo3();
    let engine = d.space.engine();
    engine.set_features(Features { batch: false, ..engine.features() });
    assert_eq!(navigated_oids(&d, 1).unwrap(), "1,2");
    engine.reset_opt_stats();
    assert_eq!(navigated_oids(&d, 1).unwrap(), "1,2");
    assert_eq!(navigated_oids(&d, 2).unwrap(), "3,4");
    assert_eq!(engine.opt_stats().indexed_selects, 2, "one indexed probe per call");
    assert!(!navigation_is_cached(&d), "every call builds fresh rows");
}

#[test]
fn navigation_scans_per_call_without_the_optimizer() {
    let d = demo3();
    let engine = d.space.engine();
    engine.set_features(Features { opt: false, ..engine.features() });
    assert_eq!(navigated_oids(&d, 1).unwrap(), "1,2");
    engine.reset_opt_stats();
    assert_eq!(navigated_oids(&d, 1).unwrap(), "1,2");
    assert_eq!(navigated_oids(&d, 2).unwrap(), "3,4");
    assert_eq!(engine.opt_stats().indexed_selects, 0, "plain selects, no index");
    assert!(!navigation_is_cached(&d), "every call builds fresh rows");
}

#[test]
fn navigation_degrades_like_a_point_select() {
    use crate::errors::AldspCode;
    use crate::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule, Op};
    use crate::resilience::{Policy, Resilience};
    let outage = || {
        FaultInjector::new(
            FaultPlan::new().rule(FaultRule::new("db1", Op::Select, FaultKind::Permanent)),
        )
    };
    let policy = Policy { max_retries: 0, breaker_threshold: 100, ..Policy::default() };

    // No snapshot of ORDER yet: both reads fail the same way.
    let d = demo3();
    let res = d.space.install_resilience(Resilience::new(policy.clone()));
    d.space.install_fault_injector(outage());
    let nav = navigated_oids(&d, 2).unwrap_err();
    let sel = selected_oids(&d, 2).unwrap_err();
    assert_eq!(AldspCode::of(&nav), Some(AldspCode::SrcUnavailable));
    assert_eq!(AldspCode::of(&sel), Some(AldspCode::SrcUnavailable));
    assert_eq!(res.lock().stats().stale_reads, 0);

    // After a healthy scan both serve the snapshot, each counted as
    // one stale read, and each fills the cache the other reads.
    let d = demo3();
    let res = d.space.install_resilience(Resilience::new(policy));
    d.space
        .engine()
        .eval_expr_str("fn:count(ord:ORDER())", NAV_NS)
        .unwrap();
    d.space.install_fault_injector(outage());
    assert_eq!(navigated_oids(&d, 2).unwrap(), "3,4");
    assert_eq!(res.lock().stats().stale_reads, 1);
    assert_eq!(selected_oids(&d, 3).unwrap(), "5,6");
    assert_eq!(res.lock().stats().stale_reads, 2);
    assert_eq!(navigated_oids(&d, 3).unwrap(), "5,6");
    assert_eq!(selected_oids(&d, 2).unwrap(), "3,4");
    assert_eq!(res.lock().stats().stale_reads, 2, "served from the shared cache");
}

#[test]
fn rows_served_stale_are_not_cached_past_recovery() {
    use crate::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule, Op};
    use crate::resilience::{Policy, Resilience};
    let d = demo3();
    let res = d.space.install_resilience(Resilience::new(Policy {
        max_retries: 0,
        breaker_threshold: 100,
        ..Policy::default()
    }));
    // Snapshot ORDER, then commit past it: the snapshot is stale.
    d.space
        .engine()
        .eval_expr_str("fn:count(ord:ORDER())", NAV_NS)
        .unwrap();
    for (oid, cid) in [(100, 2), (101, 3)] {
        d.db1
            .execute(vec![crate::rel::WriteOp::Insert {
                table: "ORDER".into(),
                row: vec![
                    SqlValue::Int(oid),
                    SqlValue::Int(cid),
                    SqlValue::Null,
                    SqlValue::Null,
                    SqlValue::Str("OPEN".into()),
                ],
            }])
            .unwrap();
    }
    // During the outage both reads serve the snapshot.
    d.space.install_fault_injector(FaultInjector::new(
        FaultPlan::new().rule(FaultRule::new("db1", Op::Select, FaultKind::Permanent)),
    ));
    assert_eq!(navigated_oids(&d, 2).unwrap(), "3,4");
    assert_eq!(selected_oids(&d, 3).unwrap(), "5,6");
    assert_eq!(res.lock().stats().stale_reads, 2);
    // Once the source is back, neither is answered from those rows.
    d.space.install_fault_injector(FaultInjector::new(FaultPlan::new()));
    assert_eq!(navigated_oids(&d, 2).unwrap(), "3,4,100");
    assert_eq!(selected_oids(&d, 3).unwrap(), "5,6,101");
}

// ------------------------------------------- web-service request keys

/// Two credit-rating requests whose leaves concatenate to the same text
/// ("abc") are different requests: neither the cross-call response
/// cache nor the per-evaluation memo may answer one with the other's
/// response.
#[test]
fn web_service_requests_with_equal_concatenated_text_stay_distinct() {
    let d = demo::build(1, 1, 1).unwrap();
    let call = |last: &str, ssn: &str| {
        format!(
            "cre3:getCreditRating(<cre2:getCreditRating>\
               <cre2:lastName>{last}</cre2:lastName><cre2:ssn>{ssn}</cre2:ssn>\
             </cre2:getCreditRating>)/cre2:value"
        )
    };
    let run = |body: String| -> Vec<String> {
        let src = format!(
            "declare namespace cre2 = \"urn:creditrating/types\";\n\
             declare namespace cre3 = \"ld:ws/CreditRating\";\n\
             fn:data(({body}))"
        );
        let out = d.space.xqse().run(&src).unwrap();
        out.iter().map(|i| i.string_value()).collect()
    };
    let ab_c = crate::ws::credit_score("c", "ab").to_string();
    let a_bc = crate::ws::credit_score("bc", "a").to_string();
    assert_ne!(ab_c, a_bc);
    // Across calls: the second is answered by the response cache's
    // read-through path if their keys collide.
    assert_eq!(run(call("ab", "c")), vec![ab_c.clone()]);
    assert_eq!(run(call("a", "bc")), vec![a_bc.clone()]);
    // Within one evaluation: the memo.
    let both = format!("{}, {}", call("x", "yz"), call("xy", "z"));
    let (xyz_1, xyz_2) = (
        crate::ws::credit_score("yz", "x").to_string(),
        crate::ws::credit_score("z", "xy").to_string(),
    );
    assert_ne!(xyz_1, xyz_2);
    assert_eq!(run(both), vec![xyz_1, xyz_2]);
}
