//! Reply verification. Expected values come from the seed and the
//! fixture's definition; byte-for-byte references come from replaying
//! the same request directly on a fresh fixture, one thread, no pool.

use std::collections::{BTreeMap, HashMap};

use aldsp::demo::Demo;
use aldsp::pool::{ServeArg, ServeRequest};
use aldsp::rel::{SqlValue, WriteOp};
use aldsp::service::DataSpace;
use xdm::error::XdmError;
use xdm::sequence::{Item, Sequence};
use xqeval::Env;

use crate::serve::{self, Sample};
use crate::workload::{
    fixture_first_brand, fixture_last_name, ClientStream, CustomerState, Op, Shape,
};

/// Text between the first `<tag>` and the next `</tag>`.
fn element_text<'a>(xml: &'a str, tag: &str) -> Option<&'a str> {
    let open = format!("<{tag}>");
    let close = format!("</{tag}>");
    let start = xml.find(&open)? + open.len();
    let len = xml[start..].find(&close)?;
    Some(&xml[start..start + len])
}

/// Check a `getProfileById` reply against the fixture: one profile,
/// the requested id, the expected last name and first-card brand, all
/// orders and cards, and a rating in the credit-score range.
pub fn check_profile(
    xml: &str,
    cid: i64,
    state: &CustomerState,
    shape: &Shape,
) -> Result<(), String> {
    let profiles = xml.matches("<CustomerProfile>").count();
    if profiles != 1 {
        return Err(format!("cid {cid}: {profiles} CustomerProfile elements"));
    }
    let field = |tag: &str| element_text(xml, tag).unwrap_or("<missing>");
    if field("CID") != cid.to_string() {
        return Err(format!("cid {cid}: reply carries CID {}", field("CID")));
    }
    if field("LAST_NAME") != state.0 || field("BRAND") != state.1 {
        return Err(format!(
            "cid {cid}: LAST_NAME/BRAND {}/{}, expected {}/{}",
            field("LAST_NAME"),
            field("BRAND"),
            state.0,
            state.1
        ));
    }
    let (orders, cards) = (
        xml.matches("<ORDER>").count(),
        xml.matches("<CREDIT_CARD>").count(),
    );
    if orders != shape.orders || cards != shape.cards {
        return Err(format!("cid {cid}: {orders} orders and {cards} cards"));
    }
    match field("CreditRating").parse::<u32>() {
        Ok(r) if (300..=850).contains(&r) => Ok(()),
        _ => Err(format!(
            "cid {cid}: credit rating {:?}",
            field("CreditRating")
        )),
    }
}

/// Check one reply against what its request must produce.
pub fn check_reply(op: &Op, reply: &Result<String, XdmError>, shape: &Shape) -> Result<(), String> {
    let text = reply
        .as_ref()
        .map_err(|e| format!("{:?} failed: {e}", op.kind()))?;
    match op {
        Op::Get { cid, state } => check_profile(text, *cid, state, shape),
        Op::Submit { .. } if text == "ok" => Ok(()),
        Op::Submit { cid, .. } => Err(format!("submit cid {cid}: reply {text:?}")),
        Op::Run(p) if *text == p.expected => Ok(()),
        Op::Run(p) => Err(format!(
            "{} program answered {:.80}…, expected {:.80}…",
            p.family.name(),
            text,
            p.expected
        )),
    }
}

/// Request arguments as the XDM values a worker passes to the method.
pub fn args_to_sequences(args: &[ServeArg]) -> Vec<Sequence> {
    args.iter()
        .map(|a| match a {
            ServeArg::Int(i) => Sequence::one(Item::integer(*i)),
            ServeArg::Str(s) => Sequence::one(Item::string(s.clone())),
        })
        .collect()
}

/// Serve one request directly on `space`, exactly as a pool worker
/// does (`aldsp::pool` serves Get, Run and Submit this way).
pub fn serve_direct(space: &DataSpace, request: &ServeRequest) -> Result<String, XdmError> {
    match request {
        ServeRequest::Get {
            service,
            method,
            args,
        } => {
            let graph = space.get(service, method, args_to_sequences(args))?;
            Ok(xmlparse::serialize_sequence(graph.instances()))
        }
        ServeRequest::Run { program } => {
            let out = space.xqse().run_lazy_with_env(program, &mut Env::new())?;
            xmlparse::serialize_sequence_stream(&out)
        }
        ServeRequest::Submit {
            service,
            method,
            args,
            sets,
        } => {
            let graph = space.get(service, method, args_to_sequences(args))?;
            for (instance, path, value) in sets {
                let steps: Vec<&str> = path.iter().map(String::as_str).collect();
                graph.set_value(*instance, &steps, value)?;
            }
            space.submit(&graph)?;
            Ok("ok".to_string())
        }
    }
}

/// What a reply's bytes depend on: the request and, for a read, the
/// state of the customer it reads.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum RefKey {
    Get(i64, CustomerState),
    Run(String),
}

/// Compare every reply with a direct replay of the same request.
/// Replies are memoized by [`RefKey`]; reads of a customer in a
/// non-fixture state are replayed after that state is written into
/// the reference fixture's tables directly.
///
/// Returns `(index into samples, reason)` for every mismatch.
pub fn check_against_direct(
    samples: &[&Sample],
    shape: &Shape,
) -> Result<Vec<(usize, String)>, String> {
    let mut by_round: BTreeMap<usize, Vec<RefKey>> = BTreeMap::new();
    let mut states_of: HashMap<i64, Vec<CustomerState>> = HashMap::new();
    for s in samples {
        let key = match &s.op {
            Op::Get { cid, state } => RefKey::Get(*cid, state.clone()),
            Op::Run(p) => RefKey::Run(p.text.clone()),
            Op::Submit { .. } => continue,
        };
        let round = match &key {
            RefKey::Get(cid, state) if !is_fixture_state(*cid, state, shape) => {
                let known = states_of.entry(*cid).or_default();
                match known.iter().position(|k| k == state) {
                    Some(i) => i + 1,
                    None => {
                        known.push(state.clone());
                        known.len()
                    }
                }
            }
            _ => 0,
        };
        by_round.entry(round).or_default().push(key);
    }
    let demo = serve::fixture(shape)?;
    let space = serve::dataspace(&demo.db1, &demo.db2, serve::credit_rating(None, None))?;
    let mut reference: HashMap<RefKey, u64> = HashMap::new();
    for (round, mut keys) in by_round {
        if round > 0 {
            let writes: Vec<(i64, CustomerState)> = states_of
                .iter()
                .filter_map(|(cid, st)| st.get(round - 1).map(|s| (*cid, s.clone())))
                .collect();
            write_states(&demo, &space, &writes, shape)?;
        }
        keys.sort();
        keys.dedup();
        for key in keys {
            if reference.contains_key(&key) {
                continue;
            }
            let request = match &key {
                RefKey::Get(cid, state) => Op::Get {
                    cid: *cid,
                    state: state.clone(),
                }
                .to_serve(),
                RefKey::Run(text) => ServeRequest::Run {
                    program: text.clone(),
                },
            };
            let reply =
                serve_direct(&space, &request).map_err(|e| format!("direct replay: {e}"))?;
            reference.insert(key, serve::digest(&reply));
        }
    }
    let mut failures = Vec::new();
    for (i, s) in samples.iter().enumerate() {
        let key = match &s.op {
            Op::Get { cid, state } => RefKey::Get(*cid, state.clone()),
            Op::Run(p) => RefKey::Run(p.text.clone()),
            Op::Submit { .. } => continue,
        };
        if let (Ok(got), Some(want)) = (&s.reply, reference.get(&key)) {
            if got != want {
                let why = format!(
                    "client {} request {}: pooled reply differs from the direct replay",
                    s.client, s.idx
                );
                failures.push((i, why));
            }
        }
    }
    Ok(failures)
}

fn is_fixture_state(cid: i64, state: &CustomerState, shape: &Shape) -> bool {
    state.0 == fixture_last_name(cid) && state.1 == fixture_first_brand(cid, shape.cards)
}

/// Put customers into the given states by writing the tables directly.
fn write_states(
    demo: &Demo,
    space: &DataSpace,
    writes: &[(i64, CustomerState)],
    shape: &Shape,
) -> Result<(), String> {
    let update = |table: &str, col: &str, value: &str, key: &str, id: i64| WriteOp::Update {
        table: table.into(),
        set: vec![(col.into(), SqlValue::Str(value.into()))],
        cond: vec![(key.into(), SqlValue::Int(id))],
        expect_rows: 1,
    };
    let names = writes
        .iter()
        .map(|(cid, s)| update("CUSTOMER", "LAST_NAME", &s.0, "CID", *cid));
    let brands = writes.iter().map(|(cid, s)| {
        update(
            "CREDIT_CARD",
            "CC_BRAND",
            &s.1,
            "CCID",
            first_ccid(*cid, shape),
        )
    });
    demo.db1
        .execute(names.collect())
        .map_err(|e| format!("reference write: {e}"))?;
    demo.db2
        .execute(brands.collect())
        .map_err(|e| format!("reference write: {e}"))?;
    space.engine().note_source_write();
    Ok(())
}

fn first_ccid(cid: i64, shape: &Shape) -> i64 {
    (cid - 1) * shape.cards as i64 + 1
}

/// After `profile-mixed`: every customer a client owns must hold the
/// last values that client submitted (or the fixture's, if none).
pub fn check_final_state(demo: &Demo, streams: &[ClientStream], shape: &Shape) -> Vec<String> {
    let text = |v: &SqlValue| match v {
        SqlValue::Str(s) => s.clone(),
        other => format!("{other:?}"),
    };
    let int = |v: &SqlValue| match v {
        SqlValue::Int(i) => *i,
        _ => -1,
    };
    let mut failures = Vec::new();
    let (Ok(customers), Ok(cards)) = (demo.db1.scan("CUSTOMER"), demo.db2.scan("CREDIT_CARD"))
    else {
        return vec!["final state: cannot scan the fixture tables".into()];
    };
    let last: HashMap<i64, String> = customers
        .iter()
        .map(|r| (int(&r[0]), text(&r[2])))
        .collect();
    let brand: HashMap<i64, String> = cards.iter().map(|r| (int(&r[0]), text(&r[3]))).collect();
    for stream in streams {
        for &cid in stream.ids() {
            let want = stream.state_of(cid);
            let got = (
                last.get(&cid).cloned().unwrap_or_default(),
                brand
                    .get(&first_ccid(cid, shape))
                    .cloned()
                    .unwrap_or_default(),
            );
            if got != want {
                failures.push(format!(
                    "final state of cid {cid}: {got:?}, expected {want:?}"
                ));
            }
        }
    }
    failures
}
