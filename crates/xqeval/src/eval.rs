//! Expression evaluation.
//!
//! One method per AST form, with the two cross-cutting rules the paper
//! cares about wired through everything:
//!
//! 1. **No side effects in expressions** — updating expressions
//!    require an open pending-update list (`env.pul`), which only the
//!    XQSE update statement (or ALDSP's update machinery) provides;
//!    procedure calls resolve only if the procedure is `readonly`.
//! 2. **Declarative cores stay optimizable** — FLWOR join patterns are
//!    rewritten to hash probes with memoized indexes when the engine's
//!    optimizer flag is on (§IV: statements-vs-expressions separation
//!    "allowed us to easily preserve and apply existing query
//!    optimizations within the declarative parts of an XQSE program").

use std::cmp::Ordering;
use std::collections::HashMap;
use std::rc::Rc;

use xdm::atomic::{to_f64, AtomicType, AtomicValue};
use xdm::decimal::Decimal;
use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::node::{NodeArena, NodeHandle, NodeKind, SharedArena};
use xdm::qname::{QName, FN_NS, XS_NS};
use xdm::sequence::{Item, Sequence};


use xqparser::ast::*;

use crate::context::{Env, Focus};
use crate::engine::{Engine, FunctionKind, ProcKind};
use crate::functions;
use crate::update::{Pul, Update};

/// The expression evaluator. Stateless besides the engine reference;
/// all dynamic state lives in [`Env`].
pub struct Evaluator<'e> {
    engine: &'e Engine,
}

/// A memoized join index: the materialized source sequence plus hash
/// maps honoring XQuery's typed equality semantics. Numeric keys live
/// in `by_num` (untyped values are indexed there too, flagged, because
/// untyped-vs-numeric comparison is numeric); string-ish keys live in
/// `by_str` (untyped values are indexed there as well, because
/// untyped-vs-string and untyped-vs-untyped comparison is stringy).
#[derive(Debug, Default)]
pub struct JoinIdx {
    by_num: HashMap<u64, Vec<(usize, bool)>>,
    by_str: HashMap<String, Vec<usize>>,
}

impl JoinIdx {
    fn num_key(d: f64) -> u64 {
        // Normalize -0.0 so 0 and -0 collide.
        (if d == 0.0 { 0.0f64 } else { d }).to_bits()
    }

    /// Index one value at offset `i`.
    fn insert(&mut self, v: &AtomicValue, i: usize) {
        match v {
            _ if v.type_of().is_numeric() => {
                if let Ok(d) = to_f64(v) {
                    if !d.is_nan() {
                        self.by_num.entry(Self::num_key(d)).or_default().push((i, true));
                    }
                }
            }
            AtomicValue::Untyped(s) => {
                self.by_str.entry(s.to_string()).or_default().push(i);
                if let Ok(d) = s.trim().parse::<f64>() {
                    if !d.is_nan() {
                        self.by_num
                            .entry(Self::num_key(d))
                            .or_default()
                            .push((i, false));
                    }
                }
            }
            other => {
                self.by_str.entry(other.string_value()).or_default().push(i);
            }
        }
    }

    /// Offsets whose indexed value equals `p` under general-comparison
    /// semantics.
    fn probe(&self, p: &AtomicValue) -> Vec<usize> {
        match p {
            _ if p.type_of().is_numeric() => match to_f64(p) {
                Ok(d) if !d.is_nan() => self
                    .by_num
                    .get(&Self::num_key(d))
                    .map(|v| v.iter().map(|(i, _)| *i).collect())
                    .unwrap_or_default(),
                _ => Vec::new(),
            },
            AtomicValue::Untyped(s) => {
                let mut out: Vec<usize> =
                    self.by_str.get(&**s).cloned().unwrap_or_default();
                if let Ok(d) = s.trim().parse::<f64>() {
                    if let Some(v) = self.by_num.get(&Self::num_key(d)) {
                        // Untyped vs *typed numeric* compares
                        // numerically; untyped vs untyped was already
                        // covered by the string probe.
                        out.extend(v.iter().filter(|(_, num)| *num).map(|(i, _)| *i));
                    }
                }
                out.sort_unstable();
                out.dedup();
                out
            }
            other => self
                .by_str
                .get(&other.string_value())
                .cloned()
                .unwrap_or_default(),
        }
    }
}

/// How a memoized join-cache entry proves it is still current
/// (tentpole part 3: precise cross-statement cache retention).
pub enum CacheStamp {
    /// The source expression is opaque: the entry is valid only while
    /// the environment's write epoch is unchanged (any side-effecting
    /// statement kills it — the seed behavior, made lazy).
    Epoch(u64),
    /// The source is a capability-bearing read function: the entry is
    /// valid while the *live* table version still equals the version
    /// of the snapshot the index was built over. Statements that write
    /// other sources leave it untouched; a write to this source (or a
    /// stale snapshot served during an outage) fails revalidation.
    Source {
        /// Live-version probe (catalog metadata; cheap, never faulted).
        version_fn: Rc<dyn Fn() -> u64>,
        /// Version of the materialized snapshot.
        version: u64,
    },
}

impl CacheStamp {
    fn is_current(&self, env: &Env) -> bool {
        match self {
            CacheStamp::Epoch(e) => *e == env.write_epoch,
            CacheStamp::Source { version_fn, version } => version_fn() == *version,
        }
    }
}

/// The cache entry: materialized source + index + validity stamp.
pub struct JoinCacheEntry {
    /// The materialized source sequence.
    pub seq: Sequence,
    /// The hash index over the key path.
    pub idx: JoinIdx,
    /// Revalidation stamp.
    pub stamp: CacheStamp,
}

impl<'e> Evaluator<'e> {
    /// Create an evaluator over an engine.
    pub fn new(engine: &'e Engine) -> Evaluator<'e> {
        Evaluator { engine }
    }

    /// The engine this evaluator runs on.
    pub(crate) fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// Like [`Evaluator::eval`], but a FLWOR comes back as a lazy pull
    /// stream (see `crate::stream`) — the streaming entry point and
    /// what the early-exit consumers pull from. Callers must consume
    /// the result through the fallible Sequence API so deferred errors
    /// surface; `eval` itself never returns a lazy sequence. Under an
    /// open pending-update list the FLWOR is drained in place: a
    /// stream's forked context carries no update list.
    pub(crate) fn eval_lazy(&self, expr: &Expr, env: &mut Env) -> XdmResult<Sequence> {
        match expr {
            Expr::Flwor { clauses, ret } if env.pul.is_none() => {
                // Mirror eval()'s per-step fuel charge for the
                // expression node itself; per-tuple charges follow as
                // the stream is pulled.
                self.engine.budget_step()?;
                Ok(crate::stream::flwor_stream(self.engine, clauses, ret, env))
            }
            _ => self.eval(expr, env),
        }
    }

    /// Evaluate an expression to a sequence.
    pub fn eval(&self, expr: &Expr, env: &mut Env) -> XdmResult<Sequence> {
        // Per-request budget: one fuel unit per evaluation step. The
        // no-budget path is a single `Cell<bool>` read (see the
        // `budget_overhead_guard` in tests/chaos.rs).
        self.engine.budget_step()?;
        match expr {
            Expr::Literal(a) => Ok(Sequence::one(Item::Atomic(a.clone()))),
            Expr::VarRef(name) => match env.lookup(name) {
                Ok(v) => Ok(v),
                Err(e) if e.is(ErrorCode::XPST0008) => self
                    .engine
                    .global(name)
                    .ok_or(e),
                Err(e) => Err(e),
            },
            Expr::ContextItem => env
                .focus
                .as_ref()
                .map(|f| Sequence::one(f.item.clone()))
                .ok_or_else(|| {
                    XdmError::new(ErrorCode::XPDY0002, "context item is absent")
                }),
            Expr::Comma(items) => {
                let mut out = Sequence::empty();
                for e in items {
                    out.extend(self.eval(e, env)?);
                }
                Ok(out)
            }
            Expr::Range(lo, hi) => {
                let lo = self.eval_opt_integer(lo, env)?;
                let hi = self.eval_opt_integer(hi, env)?;
                match (lo, hi) {
                    (Some(a), Some(b)) if a <= b => {
                        Ok((a..=b).map(Item::integer).collect())
                    }
                    _ => Ok(Sequence::empty()),
                }
            }
            Expr::Binary(op, l, r) => self.eval_arith(*op, l, r, env),
            Expr::Unary(neg, e) => {
                let v = self.eval(e, env)?;
                let Some(a) = opt_one_atomic(&v, "unary")? else {
                    return Ok(Sequence::empty());
                };
                let a = coerce_numeric(a)?;
                if !neg {
                    return Ok(Sequence::one(Item::Atomic(a)));
                }
                Ok(Sequence::one(Item::Atomic(match a {
                    AtomicValue::Integer(i) => AtomicValue::Integer(
                        i.checked_neg().ok_or_else(overflow)?,
                    ),
                    AtomicValue::Decimal(d) => AtomicValue::Decimal(d.checked_neg()?),
                    AtomicValue::Double(d) => AtomicValue::Double(-d),
                    other => {
                        return Err(XdmError::new(
                            ErrorCode::XPTY0004,
                            format!("unary minus on {}", other.type_of()),
                        ))
                    }
                })))
            }
            Expr::And(l, r) => {
                let lb = self.eval(l, env)?.effective_boolean()?;
                if !lb {
                    return Ok(Sequence::one(Item::boolean(false)));
                }
                let rb = self.eval(r, env)?.effective_boolean()?;
                Ok(Sequence::one(Item::boolean(rb)))
            }
            Expr::Or(l, r) => {
                let lb = self.eval(l, env)?.effective_boolean()?;
                if lb {
                    return Ok(Sequence::one(Item::boolean(true)));
                }
                let rb = self.eval(r, env)?.effective_boolean()?;
                Ok(Sequence::one(Item::boolean(rb)))
            }
            Expr::General(op, l, r) => {
                if let Some(res) =
                    self.streaming_count_cmp(CountCmp::General(*op), l, r, env)
                {
                    return res;
                }
                let lv = self.eval(l, env)?.atomized();
                let rv = self.eval(r, env)?.atomized();
                let mut hit = false;
                'outer: for a in &lv {
                    for b in &rv {
                        if general_pair_matches(*op, a, b)? {
                            hit = true;
                            break 'outer;
                        }
                    }
                }
                Ok(Sequence::one(Item::boolean(hit)))
            }
            Expr::Value(op, l, r) => {
                if let Some(res) =
                    self.streaming_count_cmp(CountCmp::Value(*op), l, r, env)
                {
                    return res;
                }
                let lv = self.eval(l, env)?;
                let rv = self.eval(r, env)?;
                let (Some(a), Some(b)) = (
                    opt_one_atomic(&lv, "value comparison")?,
                    opt_one_atomic(&rv, "value comparison")?,
                ) else {
                    return Ok(Sequence::empty());
                };
                let ord = a.value_compare(&b)?;
                let res = match ord {
                    None => false, // NaN
                    Some(o) => value_comp_holds(*op, o),
                };
                Ok(Sequence::one(Item::boolean(res)))
            }
            Expr::If(c, t, e) => {
                if self.eval(c, env)?.effective_boolean()? {
                    self.eval(t, env)
                } else {
                    self.eval(e, env)
                }
            }
            Expr::Flwor { clauses, ret } => crate::stream::drain(self, clauses, ret, env),
            Expr::Quantified { quantifier, bindings, satisfies } => {
                self.eval_quantified(*quantifier, bindings, satisfies, env)
            }
            Expr::Path { start, steps } => self.eval_path(start, steps, env),
            Expr::Filter { base, predicates } => {
                if let Some((first, rest)) = predicates.split_first() {
                    if let Some(win) = positional_window(first) {
                        return self.streaming_positional_filter(base, win, rest, env);
                    }
                }
                let mut seq = self.eval(base, env)?;
                for p in predicates {
                    seq = self.apply_predicate(seq, p, env)?;
                }
                Ok(seq)
            }
            Expr::FunctionCall { name, args } => {
                if let Some(r) = self.try_streaming_call(name, args, env) {
                    return r;
                }
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a, env)?);
                }
                self.call_function_inner(name, argv, env)
            }
            _ => self.eval_other(expr, env),
        }
    }

    /// The remaining expression forms: node and set comparisons,
    /// `typeswitch`, constructors, type operators and updates. They
    /// live outside [`Evaluator::eval`] so that its stack frame, which
    /// every level of a deep recursion pays, holds only the locals of
    /// the common forms.
    #[inline(never)]
    fn eval_other(&self, expr: &Expr, env: &mut Env) -> XdmResult<Sequence> {
        match expr {
            Expr::Node(op, l, r) => {
                let lv = self.eval(l, env)?;
                let rv = self.eval(r, env)?;
                let (a, b) = match (lv.zero_or_one()?, rv.zero_or_one()?) {
                    (Some(a), Some(b)) => (a.clone(), b.clone()),
                    _ => return Ok(Sequence::empty()),
                };
                let (Item::Node(na), Item::Node(nb)) = (&a, &b) else {
                    return Err(XdmError::new(
                        ErrorCode::XPTY0004,
                        "node comparison requires nodes",
                    ));
                };
                let res = match op {
                    NodeComp::Is => na == nb,
                    NodeComp::Precedes => na.document_order(nb) == Ordering::Less,
                    NodeComp::Follows => na.document_order(nb) == Ordering::Greater,
                };
                Ok(Sequence::one(Item::boolean(res)))
            }
            Expr::Set(op, l, r) => {
                let lv = self.eval(l, env)?.document_order_dedup()?;
                let rv = self.eval(r, env)?.document_order_dedup()?;
                let out: Vec<Item> = match op {
                    SetOp::Union => {
                        let mut v: Vec<Item> = lv.into_items();
                        v.extend(rv.into_items());
                        return Sequence::from_items(v).document_order_dedup();
                    }
                    SetOp::Intersect => lv
                        .items()
                        .iter()
                        .filter(|i| rv.items().contains(i))
                        .cloned()
                        .collect(),
                    SetOp::Except => lv
                        .items()
                        .iter()
                        .filter(|i| !rv.items().contains(i))
                        .cloned()
                        .collect(),
                };
                Ok(Sequence::from_items(out))
            }
            Expr::Typeswitch { operand, cases } => {
                let v = self.eval(operand, env)?;
                for case in cases {
                    let matches = match &case.ty {
                        Some(ty) => ty.matches(&v),
                        None => true, // default
                    };
                    if matches {
                        env.push_scope();
                        if let Some(var) = &case.var {
                            env.bind(*var, v.clone());
                        }
                        let out = self.eval(&case.body, env);
                        env.pop_scope();
                        return out;
                    }
                }
                Ok(Sequence::empty())
            }
            Expr::DirectElement(de) => {
                // XDM allocation ceiling: one admission unit up front,
                // then the built tree settles at its real cost — one
                // unit per node record allocated in the constructor's
                // arena plus one pointer unit per grafted subtree
                // (zero-copy adoption charges no per-node units; the
                // nodes it shares were charged when first built).
                self.engine.budget_charge_memory(1)?;
                let before = xdm::xdm_stats();
                let arena = NodeArena::with_capacity(direct_size(de));
                let node = self.build_direct_element(de, &arena, env)?;
                self.settle_construction_memory(&arena, &before)?;
                Ok(Sequence::one(Item::Node(node)))
            }
            Expr::ComputedElement(name, content) => {
                self.engine.budget_charge_memory(1)?;
                let before = xdm::xdm_stats();
                let q = self.eval_name_expr(name, env, "element")?;
                let arena = NodeArena::new();
                let elem = NodeHandle::new_element(&arena, q);
                if let Some(c) = content {
                    let seq = self.eval(c, env)?;
                    assemble_content(&elem, &seq, self.engine.features().graft)?;
                }
                self.settle_construction_memory(&arena, &before)?;
                Ok(Sequence::one(Item::Node(elem)))
            }
            Expr::ComputedAttribute(name, content) => {
                self.engine.budget_charge_memory(1)?;
                let q = self.eval_name_expr(name, env, "attribute")?;
                let value = match content {
                    Some(c) => space_joined(&self.eval(c, env)?),
                    None => Rc::from(""),
                };
                let arena = NodeArena::new();
                Ok(Sequence::one(Item::Node(NodeHandle::new_attribute(
                    &arena, q, value,
                ))))
            }
            Expr::ComputedText(c) => {
                self.engine.budget_charge_memory(1)?;
                let seq = self.eval(c, env)?;
                if seq.is_empty() {
                    return Ok(Sequence::empty());
                }
                let arena = NodeArena::new();
                Ok(Sequence::one(Item::Node(NodeHandle::new_text(
                    &arena,
                    space_joined(&seq),
                ))))
            }
            Expr::ComputedComment(c) => {
                let seq = self.eval(c, env)?;
                let arena = NodeArena::new();
                Ok(Sequence::one(Item::Node(NodeHandle::new_comment(
                    &arena,
                    space_joined(&seq),
                ))))
            }
            Expr::ComputedPi(name, content) => {
                let q = self.eval_name_expr(name, env, "processing-instruction")?;
                let value = match content {
                    Some(c) => space_joined(&self.eval(c, env)?),
                    None => Rc::from(""),
                };
                let arena = NodeArena::new();
                Ok(Sequence::one(Item::Node(NodeHandle::new_pi(
                    &arena, q.local, value,
                ))))
            }
            Expr::ComputedDocument(c) => {
                let before = xdm::xdm_stats();
                let seq = self.eval(c, env)?;
                let doc = NodeHandle::new_document();
                assemble_content(&doc, &seq, self.engine.features().graft)?;
                self.settle_construction_memory(doc.arena(), &before)?;
                Ok(Sequence::one(Item::Node(doc)))
            }
            Expr::InstanceOf(e, ty) => {
                let v = self.eval(e, env)?;
                Ok(Sequence::one(Item::boolean(ty.matches(&v))))
            }
            Expr::TreatAs(e, ty) => {
                let v = self.eval(e, env)?;
                if ty.matches(&v) {
                    Ok(v)
                } else {
                    Err(XdmError::new(
                        ErrorCode::XPDY0050,
                        format!("treat as {ty}: dynamic type mismatch"),
                    ))
                }
            }
            Expr::CastAs(e, ty, optional) => {
                let v = self.eval(e, env)?;
                let target = resolve_atomic_type(ty)?;
                match opt_one_atomic(&v, "cast as")? {
                    None if *optional => Ok(Sequence::empty()),
                    None => Err(XdmError::new(
                        ErrorCode::XPTY0004,
                        "cast as: empty sequence without '?'",
                    )),
                    Some(a) => Ok(Sequence::one(Item::Atomic(a.cast_to(target)?))),
                }
            }
            Expr::CastableAs(e, ty, optional) => {
                let v = self.eval(e, env)?;
                let Ok(target) = resolve_atomic_type(ty) else {
                    return Ok(Sequence::one(Item::boolean(false)));
                };
                let ok = match opt_one_atomic(&v, "castable as") {
                    Ok(None) => *optional,
                    Ok(Some(a)) => a.cast_to(target).is_ok(),
                    Err(_) => false,
                };
                Ok(Sequence::one(Item::boolean(ok)))
            }
            Expr::Insert { source, pos, target } => {
                self.eval_insert(source, *pos, target, env)
            }
            Expr::Delete(target) => {
                let targets = self.eval(target, env)?;
                let pul = require_pul(env)?;
                for it in targets.iter() {
                    let Item::Node(n) = it else {
                        return Err(XdmError::new(
                            ErrorCode::XUTY0008,
                            "delete target must be nodes",
                        ));
                    };
                    let u = Update::Delete { target: n.clone() };
                    Pul::validate_target(&u)?;
                    pul.add(u)?;
                }
                Ok(Sequence::empty())
            }
            Expr::Replace { value_of, target, with } => {
                let t = self.eval(target, env)?;
                let w = self.eval(with, env)?;
                let Item::Node(node) = t.exactly_one()?.clone() else {
                    return Err(XdmError::new(
                        ErrorCode::XUTY0008,
                        "replace target must be a node",
                    ));
                };
                let u = if *value_of {
                    Update::ReplaceValue { target: node, value: space_joined(&w).to_string() }
                } else {
                    let (content, attrs) = content_nodes(&w, node.arena())?;
                    if !attrs.is_empty() {
                        if node.kind() != NodeKind::Attribute {
                            return Err(XdmError::new(
                                ErrorCode::XUTY0008,
                                "attribute replacement for non-attribute target",
                            ));
                        }
                        Update::ReplaceNode { target: node, with: attrs }
                    } else {
                        Update::ReplaceNode { target: node, with: content }
                    }
                };
                Pul::validate_target(&u)?;
                require_pul(env)?.add(u)?;
                Ok(Sequence::empty())
            }
            Expr::Rename { target, new_name } => {
                let t = self.eval(target, env)?;
                let n = self.eval(new_name, env)?;
                let Item::Node(node) = t.exactly_one()?.clone() else {
                    return Err(XdmError::new(
                        ErrorCode::XUTY0008,
                        "rename target must be a node",
                    ));
                };
                let name = match one_atomic(&n, "rename")? {
                    AtomicValue::QName(q) => q,
                    other => QName::parse_lexical(&other.string_value()).ok_or_else(
                        || {
                            XdmError::new(
                                ErrorCode::FORG0001,
                                format!("bad QName {:?}", other.string_value()),
                            )
                        },
                    )?,
                };
                let u = Update::Rename { target: node, name };
                Pul::validate_target(&u)?;
                require_pul(env)?.add(u)?;
                Ok(Sequence::empty())
            }
            Expr::Transform { copies, modify, ret } => {
                env.push_scope();
                let result = (|| {
                    for (var, src) in copies {
                        let v = self.eval(src, env)?;
                        let Item::Node(n) = v.exactly_one()? else {
                            return Err(XdmError::new(
                                ErrorCode::XUTY0008,
                                "copy binding must be a single node",
                            ));
                        };
                        let copy = n.deep_copy();
                        env.bind(*var, Sequence::one(Item::Node(copy)));
                    }
                    // Open a nested PUL for the modify clause, apply at
                    // the end of the clause (transform snapshot).
                    let saved = env.pul.take();
                    env.pul = Some(Pul::new());
                    let modify_result = self.eval(modify, env);
                    let pul = env.pul.take().expect("pul still open");
                    env.pul = saved;
                    modify_result?;
                    pul.apply()?;
                    self.eval(ret, env)
                })();
                env.pop_scope();
                result
            }
            _ => unreachable!("evaluated by eval"),
        }
    }

    fn eval_insert(
        &self,
        source: &Expr,
        pos: InsertPos,
        target: &Expr,
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        let src = self.eval(source, env)?;
        let tgt = self.eval(target, env)?;
        let Item::Node(node) = tgt.exactly_one()?.clone() else {
            return Err(XdmError::new(
                ErrorCode::XUTY0008,
                "insert target must be a node",
            ));
        };
        let (content, attrs) = content_nodes(&src, node.arena())?;
        let pul = require_pul(env)?;
        if !attrs.is_empty() {
            let elem_target = match pos {
                InsertPos::Into | InsertPos::FirstInto | InsertPos::LastInto => {
                    node.clone()
                }
                InsertPos::Before | InsertPos::After => {
                    node.parent().ok_or_else(|| {
                        XdmError::new(ErrorCode::XUTY0008, "target has no parent")
                    })?
                }
            };
            let u = Update::InsertAttributes { target: elem_target, attrs };
            Pul::validate_target(&u)?;
            pul.add(u)?;
        }
        if !content.is_empty() {
            let u = match pos {
                InsertPos::Into | InsertPos::LastInto => {
                    Update::InsertInto { target: node, content }
                }
                InsertPos::FirstInto => Update::InsertFirst { target: node, content },
                InsertPos::Before => Update::InsertBefore { target: node, content },
                InsertPos::After => Update::InsertAfter { target: node, content },
            };
            Pul::validate_target(&u)?;
            pul.add(u)?;
        }
        Ok(Sequence::empty())
    }

    // ------------------------------------------------------------ FLWOR

    /// Detect the equi-join pattern `for $v in E where P($v) eq K`
    /// where `E` and `K` are independent of `$v` and `P` is a simple
    /// child/attribute path on `$v`.
    pub(crate) fn detect_join(
        &self,
        var: &QName,
        source: &Expr,
        next: Option<&FlworClause>,
    ) -> Option<JoinProbe> {
        let FlworClause::Where(cond) = next? else { return None };
        // Source must be a closed expression (no variable references)
        // so its index can be memoized across outer iterations.
        if expr_refs_any_var(source) {
            return None;
        }
        let (l, r) = match cond {
            Expr::Value(ValueComp::Eq, l, r) => (&**l, &**r),
            Expr::General(GeneralComp::Eq, l, r) => (&**l, &**r),
            _ => return None,
        };
        let key_of = |e: &Expr| -> Option<Vec<Step>> {
            if let Expr::Path { start: PathStart::Expr(base), steps } = e {
                if let Expr::VarRef(v) = &**base {
                    if v == var
                        && steps.iter().all(|s| {
                            matches!(s.axis, Axis::Child | Axis::Attribute)
                                && s.predicates.is_empty()
                        })
                    {
                        return Some(steps.clone());
                    }
                }
            }
            None
        };
        let probe = |key_steps: Vec<Step>, outer: &Expr| {
            (!expr_refs_var(outer, var)).then(|| JoinProbe {
                key_steps,
                outer_key: outer.clone(),
                index: None,
            })
        };
        key_of(l)
            .and_then(|steps| probe(steps, r))
            .or_else(|| key_of(r).and_then(|steps| probe(steps, l)))
    }

    /// Detect the *pushdown* pattern `for $v in src() where $v/COL
    /// (eq|=) K` where `src` is an arity-0 read function with an
    /// advertised [`SourceCapability`], `COL` is one of its filterable
    /// columns (single child step, no predicates, unqualified name —
    /// the shape of relational row XML), and `K` does not reference
    /// `$v`.
    pub(crate) fn detect_pushdown(
        &self,
        var: &QName,
        source: &Expr,
        next: Option<&FlworClause>,
    ) -> Option<Pushdown> {
        let Expr::FunctionCall { name, args } = source else { return None };
        if !args.is_empty() {
            return None;
        }
        let cap = self.engine.source_capability(name)?;
        let FlworClause::Where(cond) = next? else { return None };
        let (l, r) = match cond {
            Expr::Value(ValueComp::Eq, l, r) => (&**l, &**r),
            Expr::General(GeneralComp::Eq, l, r) => (&**l, &**r),
            _ => return None,
        };
        let col_of = |e: &Expr| -> Option<(String, Vec<Step>)> {
            let Expr::Path { start: PathStart::Expr(base), steps } = e else {
                return None;
            };
            let Expr::VarRef(v) = &**base else { return None };
            if v != var || steps.len() != 1 {
                return None;
            }
            let st = &steps[0];
            if st.axis != Axis::Child || !st.predicates.is_empty() {
                return None;
            }
            let NodeTest::Name(q) = &st.test else { return None };
            if q.ns.is_some() {
                return None;
            }
            Some((q.local.to_string(), steps.clone()))
        };
        let build = |col: String, steps: Vec<Step>, key: &Expr| -> Option<Pushdown> {
            if expr_refs_var(key, var) {
                return None;
            }
            let class = cap
                .columns
                .iter()
                .find(|(c, _)| c == &col)
                .map(|(_, cl)| *cl)?;
            Some(Pushdown {
                cap: Rc::clone(&cap),
                col,
                class,
                key_steps: steps,
                key_expr: key.clone(),
            })
        };
        if let Some((col, steps)) = col_of(l) {
            if let Some(pd) = build(col, steps, r) {
                return Some(pd);
            }
        }
        if let Some((col, steps)) = col_of(r) {
            if let Some(pd) = build(col, steps, l) {
                return Some(pd);
            }
        }
        None
    }

    /// Predicate pushdown (§II.B "push computation to the sources") for
    /// the current tuple: one indexed point-select, so the whole table
    /// is never materialized in the middle tier. `None` when the key is
    /// not a pushable singleton — the caller then evaluates the clause
    /// normally, which preserves error semantics exactly. The first
    /// pushed tuple of an evaluation counts the rewrite.
    pub(crate) fn point_select(
        &self,
        pd: &Pushdown,
        fired: &mut bool,
        env: &mut Env,
    ) -> XdmResult<Option<Sequence>> {
        let atoms = self.eval(&pd.key_expr, env)?.atomized();
        let [key] = atoms.as_slice() else { return Ok(None) };
        let Some(lex) = pushdown_key(pd.class, key) else { return Ok(None) };
        if !*fired {
            *fired = true;
            crate::engine::OptCounters::bump(&self.engine.opt_counters().pushdown_rewrites);
        }
        let mut rows = Vec::new();
        for item in (pd.cap.select)(env, &pd.col, &lex)?.iter() {
            // Re-verify each candidate under XQuery comparison
            // semantics: the index may only narrow, never decide.
            let keyed = self.eval_steps_from(item.clone(), &pd.key_steps, env)?;
            for a in keyed.atomized().iter() {
                if general_pair_matches(GeneralComp::Eq, a, key)? {
                    rows.push(item.clone());
                    break;
                }
            }
        }
        Ok(Some(Sequence::from_items(rows)))
    }

    /// Hash-join probe for the current tuple: the source items whose
    /// key equals the tuple's outer key. The index is fetched (built,
    /// or revalidated from the env's join cache) on the first probe of
    /// an evaluation. A non-singleton outer key matches nothing.
    pub(crate) fn join_probe(
        &self,
        join: &mut JoinProbe,
        source: &Expr,
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        let index = match &join.index {
            Some(index) => index.clone(),
            None => {
                let index = self.join_index(source, &join.key_steps, env)?;
                join.index = Some(index.clone());
                index
            }
        };
        let atoms = self.eval(&join.outer_key, env)?.atomized();
        let [key] = atoms.as_slice() else { return Ok(Sequence::empty()) };
        let items = index.seq.items();
        Ok(index.idx.probe(key).into_iter().filter_map(|i| items.get(i).cloned()).collect())
    }

    /// Build (or fetch from the per-evaluation cache) a hash index
    /// over the join source keyed by the key path. Cached entries are
    /// revalidated against their [`CacheStamp`]; stale entries are
    /// discarded and rebuilt.
    fn join_index(
        &self,
        source: &Expr,
        key_steps: &[Step],
        env: &mut Env,
    ) -> XdmResult<Rc<JoinCacheEntry>> {
        let opt = self.engine.opt_counters();
        let cache_key = (source as *const Expr as usize, steps_fingerprint(key_steps));
        if let Some(hit) = env.join_cache.get(&cache_key).cloned() {
            if hit.stamp.is_current(env) {
                crate::engine::OptCounters::bump(&opt.join_hits);
                return Ok(hit);
            }
            crate::engine::OptCounters::bump(&opt.join_invalidations);
            env.join_cache.remove(&cache_key);
        }
        crate::engine::OptCounters::bump(&opt.join_misses);
        // Capability-bearing arity-0 read functions get a precise
        // source-version stamp; anything else falls back to the
        // write-epoch stamp. With the optimizer off, *everything* is
        // epoch-stamped — any write then invalidates, which is the
        // baseline's blanket policy.
        let cap = if self.engine.features().opt {
            match source {
                Expr::FunctionCall { name, args } if args.is_empty() => {
                    self.engine.source_capability(name)
                }
                _ => None,
            }
        } else {
            None
        };
        let seq = self.eval(source, env)?;
        let stamp = match cap {
            // Stamp with the version of the snapshot actually served
            // (under stale-read degradation this is older than the
            // live version, so the entry immediately fails
            // revalidation — stale data is never retained).
            Some(c) => CacheStamp::Source {
                version: (c.served_version)(),
                version_fn: c.version.clone(),
            },
            None => CacheStamp::Epoch(env.write_epoch),
        };
        let mut index = JoinIdx::default();
        for (i, item) in seq.iter().enumerate() {
            if let Item::Node(_) = item {
                let keyed = self.eval_steps_from(item.clone(), key_steps, env)?;
                let atoms = keyed.atomized();
                if atoms.len() == 1 {
                    index.insert(&atoms[0], i);
                }
            }
        }
        let entry = Rc::new(JoinCacheEntry { seq, idx: index, stamp });
        // Cached entries must be fully materialized: `eval` never
        // returns a lazy sequence (the §11 choke-point invariant), so
        // a stream can never be stored — and later replayed with its
        // pull state half-consumed — through this cache.
        debug_assert!(!entry.seq.is_lazy(), "join cache must not hold lazy sequences");
        env.join_cache.insert(cache_key, entry.clone());
        Ok(entry)
    }

    fn eval_quantified(
        &self,
        quantifier: Quantifier,
        bindings: &[(QName, Expr)],
        satisfies: &Expr,
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        fn walk(
            this: &Evaluator<'_>,
            bindings: &[(QName, Expr)],
            satisfies: &Expr,
            env: &mut Env,
            every: bool,
        ) -> XdmResult<bool> {
            match bindings.split_first() {
                None => this.eval(satisfies, env)?.effective_boolean(),
                Some(((var, src), rest)) => {
                    // Bindings are pulled one item at a time so the
                    // quantifier's short-circuit stops a lazy source
                    // mid-stream; on an eager source `try_item` is
                    // plain slice access and this is the old loop.
                    let seq = this.eval_lazy(src, env)?;
                    let mut i = 0usize;
                    while let Some(item) = seq.try_item(i)? {
                        env.push_scope();
                        env.bind(*var, Sequence::one(item));
                        let r = walk(this, rest, satisfies, env, every);
                        env.pop_scope();
                        let r = r?;
                        if r != every {
                            // some: found true → short-circuit true;
                            // every: found false → short-circuit false.
                            return Ok(!every);
                        }
                        i += 1;
                    }
                    Ok(every)
                }
            }
        }
        let every = quantifier == Quantifier::Every;
        let out = walk(self, bindings, satisfies, env, every)?;
        Ok(Sequence::one(Item::boolean(out)))
    }

    // ------------------------------------------------------------- paths

    fn eval_path(
        &self,
        start: &PathStart,
        steps: &[Step],
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        let input = match start {
            PathStart::Root | PathStart::RootDescendant => {
                let f = env.focus.as_ref().ok_or_else(|| {
                    XdmError::new(ErrorCode::XPDY0002, "no context item for '/'")
                })?;
                let Item::Node(n) = &f.item else {
                    return Err(XdmError::new(
                        ErrorCode::XPTY0004,
                        "context item for '/' is not a node",
                    ));
                };
                Sequence::one(Item::Node(n.root()))
            }
            PathStart::Expr(e) => self.eval(e, env)?,
        };
        self.eval_steps(input, steps, env)
    }

    /// The step loop of a path expression, run over `input`.
    fn eval_steps(
        &self,
        input: Sequence,
        steps: &[Step],
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        if steps.is_empty() {
            return input.document_order_dedup();
        }
        let mut current = input;
        for step in steps {
            let test =
                |kind, name: Option<&QName>| node_test_matches(&step.test, kind, name, step.axis);
            let attributes = step.axis == Axis::Attribute;
            let mut out = Sequence::empty();
            for item in current.iter() {
                let Item::Node(node) = item else {
                    return Err(XdmError::new(
                        ErrorCode::XPTY0004,
                        "path step applied to an atomic value",
                    ));
                };
                let mut matched: Vec<NodeHandle> = match step.axis {
                    Axis::Child | Axis::Attribute if step.predicates.is_empty() => {
                        node.each_child_where(attributes, test, |n| out.push(Item::Node(n)));
                        continue;
                    }
                    Axis::Child | Axis::Attribute => node.children_where(attributes, test),
                    axis => axis_nodes(node, axis)
                        .into_iter()
                        .filter(|n| test(n.kind(), n.name().as_ref()))
                        .collect(),
                };
                for pred in &step.predicates {
                    matched = self.filter_nodes(matched, pred, env)?;
                }
                for n in matched {
                    out.push(Item::Node(n));
                }
            }
            // A child or attribute step from one node already yields
            // its matches in document order, without duplicates.
            let ordered =
                current.len() == 1 && matches!(step.axis, Axis::Child | Axis::Attribute);
            current = if ordered { out } else { out.document_order_dedup()? };
        }
        Ok(current)
    }

    /// Evaluate a pre-parsed step list from a single origin item (used
    /// by the join-index builder and point-select re-checks).
    fn eval_steps_from(
        &self,
        origin: Item,
        steps: &[Step],
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        self.eval_steps(Sequence::one(origin), steps, env)
    }

    fn filter_nodes(
        &self,
        nodes: Vec<NodeHandle>,
        pred: &Expr,
        env: &mut Env,
    ) -> XdmResult<Vec<NodeHandle>> {
        let size = nodes.len();
        let mut out = Vec::new();
        for (i, n) in nodes.into_iter().enumerate() {
            let keep = env.with_focus(
                Focus { item: Item::Node(n.clone()), position: i + 1, size },
                |env| {
                    let v = self.eval(pred, env)?;
                    predicate_truth(&v, i + 1)
                },
            )?;
            if keep {
                out.push(n);
            }
        }
        Ok(out)
    }

    fn apply_predicate(
        &self,
        seq: Sequence,
        pred: &Expr,
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        let size = seq.len();
        let mut out = Vec::new();
        for (i, item) in seq.into_iter().enumerate() {
            let keep = env.with_focus(
                Focus { item: item.clone(), position: i + 1, size },
                |env| {
                    let v = self.eval(pred, env)?;
                    predicate_truth(&v, i + 1)
                },
            )?;
            if keep {
                out.push(item);
            }
        }
        Ok(Sequence::from_items(out))
    }

    // ------------------------------------------- early-exit consumers
    //
    // The interceptors below recognize consumers whose answer is
    // decided by a bounded prefix of their sequence argument, evaluate
    // that argument through `eval_lazy`, and pull only as far as the
    // answer requires. On an eager argument `try_item` is plain slice
    // access, so the rewrites are value-equivalent to draining the
    // argument first. Documented deviation (DESIGN §11): work past the
    // early exit — including error-raising expressions — is never
    // performed, and window/bound operands are evaluated before the
    // sequence operand.

    /// Intercept `fn:exists`/`fn:empty` (one pull decides) and
    /// `fn:subsequence` (pulls stop at the window's end). `None` means
    /// "not intercepted — evaluate the call normally".
    fn try_streaming_call(
        &self,
        name: &QName,
        args: &[Expr],
        env: &mut Env,
    ) -> Option<XdmResult<Sequence>> {
        if name.ns.as_deref() != Some(FN_NS) {
            return None;
        }
        // `call_function_inner` consults builtins before user
        // registries, so a `fn:`-namespace match here can never shadow
        // a user function.
        match (&*name.local, args.len()) {
            ("exists", 1) => Some((|| {
                let s = self.eval_lazy(&args[0], env)?;
                Ok(Sequence::one(Item::boolean(!s.try_is_empty()?)))
            })()),
            ("empty", 1) => Some((|| {
                let s = self.eval_lazy(&args[0], env)?;
                Ok(Sequence::one(Item::boolean(s.try_is_empty()?)))
            })()),
            ("subsequence", 2) | ("subsequence", 3) => {
                Some(self.streaming_subsequence(args, env))
            }
            _ => None,
        }
    }

    /// `fn:subsequence` over a pull stream: replicate the builtin's
    /// window arithmetic (`round()`ed start/length, keep positions
    /// `p >= start && p < start + len`) but stop pulling at the end of
    /// the window — a page over a large chain touches only the tuples
    /// up to the page's edge.
    fn streaming_subsequence(&self, args: &[Expr], env: &mut Env) -> XdmResult<Sequence> {
        let start = functions::one_double(&self.eval(&args[1], env)?, "fn:subsequence")?
            .round();
        let len = if args.len() == 3 {
            functions::one_double(&self.eval(&args[2], env)?, "fn:subsequence")?.round()
        } else {
            f64::INFINITY
        };
        let s = self.eval_lazy(&args[0], env)?;
        let end = start + len; // NaN bounds close the window immediately
        let mut out = Vec::new();
        let mut i = 0usize;
        loop {
            let p = i as f64 + 1.0;
            // Stop unless strictly inside the window: `p >= end`, or a
            // NaN bound (incomparable), both close it.
            if p.partial_cmp(&end) != Some(std::cmp::Ordering::Less) {
                break;
            }
            match s.try_item(i)? {
                Some(item) => {
                    if p >= start {
                        out.push(item);
                    }
                }
                None => break,
            }
            i += 1;
        }
        Ok(Sequence::from_items(out))
    }

    /// Intercept `count($x) <op> N` (numeric literal on either side):
    /// pulling `floor(N) + 2` items decides every comparison against
    /// `N`, so the chain is never drained past that cutoff.
    fn streaming_count_cmp(
        &self,
        cmp: CountCmp,
        l: &Expr,
        r: &Expr,
        env: &mut Env,
    ) -> Option<XdmResult<Sequence>> {
        fn counted_arg(e: &Expr) -> Option<&Expr> {
            let Expr::FunctionCall { name, args } = e else { return None };
            if name.ns.as_deref() == Some(FN_NS)
                && name.local == "count"
                && args.len() == 1
            {
                Some(&args[0])
            } else {
                None
            }
        }
        let (counted, bound, count_on_left) = match (counted_arg(l), counted_arg(r)) {
            (Some(x), _) => (x, numeric_literal(r)?, true),
            (_, Some(x)) => (x, numeric_literal(l)?, false),
            _ => return None,
        };
        let b = to_f64(&bound).ok()?;
        if !b.is_finite() {
            return None;
        }
        Some((|| {
            let s = self.eval_lazy(counted, env)?;
            let cutoff = b.max(0.0).floor() as usize + 2;
            let mut n = 0usize;
            let exact = loop {
                if n == cutoff {
                    break false; // at least `cutoff` items: count > b
                }
                if s.try_item(n)?.is_none() {
                    break true;
                }
                n += 1;
            };
            let res = if exact {
                let count = AtomicValue::Integer(n as i64);
                let (a, bv) =
                    if count_on_left { (&count, &bound) } else { (&bound, &count) };
                match cmp {
                    CountCmp::General(op) => general_pair_matches(op, a, bv)?,
                    CountCmp::Value(op) => match a.value_compare(bv)? {
                        None => false,
                        Some(o) => value_comp_holds(op, o),
                    },
                }
            } else {
                // Cutoff reached: the count exceeds the bound, which
                // fixes the operand ordering without knowing the count.
                let o = if count_on_left {
                    Ordering::Greater
                } else {
                    Ordering::Less
                };
                match cmp {
                    CountCmp::General(op) => general_comp_holds(op, o),
                    CountCmp::Value(op) => value_comp_holds(op, o),
                }
            };
            Ok(Sequence::one(Item::boolean(res)))
        })())
    }

    /// A positional first predicate (`[k]`, `[position() lt N]`, …)
    /// over a pull stream: produce the selected prefix/slot directly,
    /// pulling no further than the window's edge, then apply any
    /// remaining predicates normally.
    fn streaming_positional_filter(
        &self,
        base: &Expr,
        win: PosWindow,
        rest: &[Expr],
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        let s = self.eval_lazy(base, env)?;
        let mut out: Vec<Item> = Vec::new();
        match win {
            PosWindow::Exact(k) => {
                // Only an integral position ≥ 1 can match; any other
                // numeric selects nothing from any sequence.
                if k >= 1.0 && k.fract() == 0.0 && k <= u32::MAX as f64 {
                    if let Some(item) = s.try_item(k as usize - 1)? {
                        out.push(item);
                    }
                }
            }
            PosWindow::UpTo { bound, inclusive } => {
                let mut i = 0usize;
                loop {
                    let p = i as f64 + 1.0;
                    let keep = if inclusive { p <= bound } else { p < bound };
                    if !keep {
                        break;
                    }
                    match s.try_item(i)? {
                        Some(item) => out.push(item),
                        None => break,
                    }
                    i += 1;
                }
            }
        }
        let mut seq = Sequence::from_items(out);
        for p in rest {
            seq = self.apply_predicate(seq, p, env)?;
        }
        Ok(seq)
    }

    // -------------------------------------------------------- functions

    /// Public entry: call a function/procedure with pre-evaluated
    /// arguments.
    pub fn call_function(
        &self,
        name: &QName,
        args: Vec<Sequence>,
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        self.call_function_inner(name, args, env)
    }

    fn call_function_inner(
        &self,
        name: &QName,
        args: Vec<Sequence>,
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        // 1. Builtins.
        let args = match functions::dispatch(self.engine, env, name, args) {
            Ok(r) => return r,
            Err(args) => args,
        };
        // 2. Registered functions.
        if let Some(f) = self.engine.function(name, args.len()) {
            return match f {
                FunctionKind::User(decl) => self.call_user_function(&decl, args, env),
                FunctionKind::External { f, updating } => {
                    if updating && env.pul.is_none() {
                        return Err(XdmError::new(
                            ErrorCode::XUST0001,
                            format!("updating function {name} called outside an update statement"),
                        ));
                    }
                    f(env, args)
                }
            };
        }
        // 3. Procedures — only readonly ones may be called from
        //    expression context (§III.A: "Procedure calls cannot be
        //    used in place of function calls in an XQuery expression
        //    unless the called procedure is annotated as having no
        //    side effects").
        if let Some(p) = self.engine.procedure(name, args.len()) {
            return match p {
                ProcKind::External { f, readonly } => {
                    if !readonly {
                        Err(XdmError::new(
                            ErrorCode::XQSE0004,
                            format!(
                                "procedure {name} has side effects and cannot be \
                                 called from an expression"
                            ),
                        ))
                    } else {
                        f(env, args)
                    }
                }
                ProcKind::User(decl) => {
                    if !decl.readonly {
                        Err(XdmError::new(
                            ErrorCode::XQSE0004,
                            format!(
                                "procedure {name} has side effects and cannot be \
                                 called from an expression"
                            ),
                        ))
                    } else {
                        let runner = self.engine.proc_runner().ok_or_else(|| {
                            XdmError::new(
                                ErrorCode::XPST0017,
                                "no statement engine installed for procedure calls",
                            )
                        })?;
                        runner(self.engine, &decl, args, env)
                    }
                }
            };
        }
        Err(XdmError::new(
            ErrorCode::XPST0017,
            format!("unknown function {name}#{}", args.len()),
        ))
    }

    fn call_user_function(
        &self,
        decl: &FunctionDecl,
        args: Vec<Sequence>,
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        let _call = self.engine.enter_call()?;
        env.push_scope();
        let result = (|| {
            for (p, a) in decl.params.iter().zip(args) {
                let a = match &p.ty {
                    Some(ty) => ty
                        .convert(a, &format!("parameter ${} of {}", p.name, decl.name))?,
                    None => a,
                };
                env.bind(p.name, a);
            }
            // Function bodies see no outer focus.
            let saved_focus = env.focus.take();
            let body = decl.body.as_ref().expect("user function has body");
            let out = self.eval(body, env);
            env.focus = saved_focus;
            let out = out?;
            if let Some(ty) = &decl.return_type {
                ty.check(&out, &format!("result of {}", decl.name))?;
            }
            Ok(out)
        })();
        env.pop_scope();
        result
    }

    /// Settle a constructor's memory charge after the tree is built:
    /// every node record allocated in the constructor's own arena
    /// beyond the root (the admission unit covered that), plus one
    /// pointer unit per subtree grafted during the construction.
    /// Coarse by design — nested constructors settle themselves and a
    /// graft they perform may be counted once more here; the ceiling
    /// is a guard rail, not an allocator.
    fn settle_construction_memory(
        &self,
        arena: &SharedArena,
        before: &xdm::XdmStats,
    ) -> XdmResult<()> {
        let grafts = xdm::xdm_stats().since(before).subtrees_grafted;
        let local = (arena.borrow().len().saturating_sub(1)) as u64;
        let units = local + grafts;
        if units > 0 {
            self.engine.budget_charge_memory(units)?;
        }
        Ok(())
    }

    fn eval_name_expr(
        &self,
        name: &NameExpr,
        env: &mut Env,
        what: &str,
    ) -> XdmResult<QName> {
        match name {
            NameExpr::Fixed(q) => Ok(*q),
            NameExpr::Computed(e) => {
                let v = self.eval(e, env)?;
                match one_atomic(&v, what)? {
                    AtomicValue::QName(q) => Ok(q),
                    other => QName::parse_lexical(&other.string_value()).ok_or_else(
                        || {
                            XdmError::new(
                                ErrorCode::FORG0001,
                                format!("computed {what} name {:?} is not a QName", other.string_value()),
                            )
                        },
                    ),
                }
            }
        }
    }

    // ----------------------------------------------------- constructors

    fn build_direct_element(
        &self,
        de: &DirectElement,
        arena: &SharedArena,
        env: &mut Env,
    ) -> XdmResult<NodeHandle> {
        let elem =
            NodeHandle::new_element_with_capacity(arena, de.name, de.content.len());
        for (p, u) in &de.ns_decls {
            elem.add_ns_decl(p.clone(), u.clone());
        }
        for (name, parts) in &de.attributes {
            let mut value = String::new();
            for part in parts {
                match part {
                    AttrContent::Text(t) => value.push_str(t),
                    AttrContent::Expr(e) => {
                        let v = self.eval(e, env)?;
                        value.push_str(&space_joined(&v));
                    }
                }
            }
            elem.set_attribute(&NodeHandle::new_attribute(arena, *name, value))?;
        }
        // Literal content and nested direct elements are fresh nodes of
        // this constructor's own arena: they attach without the checks
        // `append_child` makes for arbitrary nodes.
        for c in &de.content {
            match c {
                DirectContent::Text(t) => elem.push_text(t.as_str()),
                DirectContent::Comment(t) => {
                    elem.push_fresh_child(&NodeHandle::new_comment(arena, t.as_str()));
                }
                DirectContent::Pi(target, data) => {
                    elem.push_fresh_child(&NodeHandle::new_pi(
                        arena,
                        target.clone(),
                        data.as_str(),
                    ));
                }
                DirectContent::Element(child) => {
                    let c = self.build_direct_element(child, arena, env)?;
                    elem.push_fresh_child(&c);
                }
                DirectContent::Expr(e) => {
                    let v = self.eval(e, env)?;
                    assemble_content(&elem, &v, self.engine.features().graft)?;
                }
            }
        }
        Ok(elem)
    }

    fn eval_arith(
        &self,
        op: BinaryOp,
        l: &Expr,
        r: &Expr,
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        let lv = self.eval(l, env)?;
        let rv = self.eval(r, env)?;
        let (Some(a), Some(b)) = (
            opt_one_atomic(&lv, "arithmetic")?,
            opt_one_atomic(&rv, "arithmetic")?,
        ) else {
            return Ok(Sequence::empty());
        };
        let a = coerce_numeric(a)?;
        let b = coerce_numeric(b)?;
        arith(op, a, b).map(|v| Sequence::one(Item::Atomic(v)))
    }

    fn eval_opt_integer(&self, e: &Expr, env: &mut Env) -> XdmResult<Option<i64>> {
        let v = self.eval(e, env)?;
        match opt_one_atomic(&v, "range")? {
            None => Ok(None),
            Some(a) => match a.cast_to(AtomicType::Integer)? {
                AtomicValue::Integer(i) => Ok(Some(i)),
                _ => unreachable!(),
            },
        }
    }
}

/// A detected pushdown opportunity.
pub(crate) struct Pushdown {
    cap: Rc<crate::engine::SourceCapability>,
    col: String,
    class: crate::engine::ColClass,
    key_steps: Vec<Step>,
    key_expr: Expr,
}

/// A detected hash-join opportunity: the key path on the `for`
/// variable, the outer key expression, and the index once fetched.
pub(crate) struct JoinProbe {
    key_steps: Vec<Step>,
    outer_key: Expr,
    index: Option<Rc<JoinCacheEntry>>,
}

/// Canonicalize a comparison key for a source column class, or `None`
/// when the key cannot be pushed without risking *false negatives*
/// (the source answers by canonical-lexical hash equality; the rewrite
/// re-verifies candidates, so false positives are harmless but missed
/// rows are not):
///
/// - `Integer` columns store canonical `i64` lexicals. Numeric keys
///   compare numerically (push the integral value; non-integral or
///   out-of-range values fall back). Untyped keys compare *stringly*
///   against untyped column values, and only canonical lexicals can
///   ever match — parsing and re-rendering is safe because a
///   non-canonical key matches nothing either way.
/// - `String` columns: string/untyped keys push verbatim; numeric keys
///   would compare numerically against e.g. `"007"` and must fall back.
/// - `Boolean` columns store `true`/`false`. Boolean keys push their
///   canonical lexical; untyped keys are normalized (`1` → `true`),
///   with re-verification discarding the lexical mismatches.
fn pushdown_key(class: crate::engine::ColClass, a: &AtomicValue) -> Option<String> {
    use crate::engine::ColClass;
    match class {
        ColClass::Integer => {
            let d = match a {
                v if v.type_of().is_numeric() => to_f64(v).ok()?,
                AtomicValue::Untyped(s) => s.trim().parse::<f64>().ok()?,
                _ => return None,
            };
            if !d.is_finite() || d.fract() != 0.0 || d.abs() >= 9.007_199_254_740_992e15 {
                return None;
            }
            Some(format!("{}", d as i64))
        }
        ColClass::String => match a {
            AtomicValue::String(s) => Some(s.clone()),
            AtomicValue::Untyped(s) => Some(s.to_string()),
            _ => None,
        },
        ColClass::Boolean => match a {
            AtomicValue::Boolean(b) => Some(b.to_string()),
            AtomicValue::Untyped(s) => match s.trim() {
                "true" | "1" => Some("true".to_string()),
                "false" | "0" => Some("false".to_string()),
                _ => None,
            },
            _ => None,
        },
    }
}

// ---------------------------------------------------------------- utils

fn overflow() -> XdmError {
    XdmError::new(ErrorCode::FOAR0002, "integer overflow")
}

fn one_atomic(seq: &Sequence, what: &str) -> XdmResult<AtomicValue> {
    opt_one_atomic(seq, what)?.ok_or_else(|| {
        XdmError::new(ErrorCode::XPTY0004, format!("{what}: empty sequence"))
    })
}

pub(crate) fn opt_one_atomic(seq: &Sequence, what: &str) -> XdmResult<Option<AtomicValue>> {
    match seq.items() {
        [] => Ok(None),
        [item] => Ok(Some(item.atomize())),
        items => Err(XdmError::new(
            ErrorCode::XPTY0004,
            format!("{what}: expected at most one item, got {}", items.len()),
        )),
    }
}

/// Untyped operands in arithmetic become doubles (XQuery 1.0 §3.4).
fn coerce_numeric(a: AtomicValue) -> XdmResult<AtomicValue> {
    match a {
        AtomicValue::Untyped(_) => a.cast_to(AtomicType::Double),
        other => Ok(other),
    }
}

fn arith(op: BinaryOp, a: AtomicValue, b: AtomicValue) -> XdmResult<AtomicValue> {
    use AtomicValue as V;
    // Promote: double > decimal > integer.
    let pair = (&a, &b);
    let any_double = matches!(pair.0, V::Double(_)) || matches!(pair.1, V::Double(_));
    if !a.type_of().is_numeric() || !b.type_of().is_numeric() {
        return Err(XdmError::new(
            ErrorCode::XPTY0004,
            format!("arithmetic on {} and {}", a.type_of(), b.type_of()),
        ));
    }
    if any_double {
        let (x, y) = (to_f64(&a)?, to_f64(&b)?);
        let r = match op {
            BinaryOp::Add => x + y,
            BinaryOp::Sub => x - y,
            BinaryOp::Mul => x * y,
            BinaryOp::Div => x / y,
            BinaryOp::IDiv => {
                if y == 0.0 {
                    return Err(XdmError::new(ErrorCode::FOAR0001, "idiv by zero"));
                }
                return Ok(V::Integer((x / y).trunc() as i64));
            }
            BinaryOp::Mod => x % y,
        };
        return Ok(V::Double(r));
    }
    let any_decimal = matches!(pair.0, V::Decimal(_)) || matches!(pair.1, V::Decimal(_));
    let dec = |v: &AtomicValue| -> Decimal {
        match v {
            V::Integer(i) => Decimal::from_i64(*i),
            V::Decimal(d) => *d,
            _ => unreachable!("numeric"),
        }
    };
    if any_decimal || op == BinaryOp::Div {
        let (x, y) = (dec(&a), dec(&b));
        return Ok(match op {
            BinaryOp::Add => V::Decimal(x.checked_add(y)?),
            BinaryOp::Sub => V::Decimal(x.checked_sub(y)?),
            BinaryOp::Mul => V::Decimal(x.checked_mul(y)?),
            BinaryOp::Div => V::Decimal(x.checked_div(y)?),
            BinaryOp::IDiv => V::Integer(x.checked_idiv(y)?),
            BinaryOp::Mod => V::Decimal(x.checked_mod(y)?),
        }
        .normalize_decimal_to_int(any_decimal));
    }
    // Pure integer.
    let (V::Integer(x), V::Integer(y)) = (&a, &b) else { unreachable!() };
    let (x, y) = (*x, *y);
    Ok(match op {
        BinaryOp::Add => V::Integer(x.checked_add(y).ok_or_else(overflow)?),
        BinaryOp::Sub => V::Integer(x.checked_sub(y).ok_or_else(overflow)?),
        BinaryOp::Mul => V::Integer(x.checked_mul(y).ok_or_else(overflow)?),
        BinaryOp::Div => unreachable!("handled above"),
        BinaryOp::IDiv => {
            if y == 0 {
                return Err(XdmError::new(ErrorCode::FOAR0001, "idiv by zero"));
            }
            V::Integer(x.checked_div(y).ok_or_else(overflow)?)
        }
        BinaryOp::Mod => {
            if y == 0 {
                return Err(XdmError::new(ErrorCode::FOAR0001, "mod by zero"));
            }
            V::Integer(x % y)
        }
    })
}

trait NormalizeNum {
    fn normalize_decimal_to_int(self, keep_decimal: bool) -> AtomicValue;
}

impl NormalizeNum for AtomicValue {
    /// `integer op integer` that routed through decimals (div) keeps
    /// decimal type; otherwise collapse integral decimals back to
    /// integers when both inputs were integers.
    fn normalize_decimal_to_int(self, keep_decimal: bool) -> AtomicValue {
        if keep_decimal {
            return self;
        }
        match self {
            AtomicValue::Decimal(d) if d.scale() == 0 => match d.trunc_i64() {
                Ok(i) => AtomicValue::Integer(i),
                Err(_) => AtomicValue::Decimal(d),
            },
            other => other,
        }
    }
}

fn general_pair_matches(
    op: GeneralComp,
    a: &AtomicValue,
    b: &AtomicValue,
) -> XdmResult<bool> {
    let ord = a.value_compare(b)?;
    Ok(match ord {
        None => false,
        Some(o) => match op {
            GeneralComp::Eq => o == Ordering::Equal,
            GeneralComp::Ne => o != Ordering::Equal,
            GeneralComp::Lt => o == Ordering::Less,
            GeneralComp::Le => o != Ordering::Greater,
            GeneralComp::Gt => o == Ordering::Greater,
            GeneralComp::Ge => o != Ordering::Less,
        },
    })
}

/// Stable-sort rows by their precomputed `order by` keys. Comparator
/// errors (incomparable key pairs) cannot unwind out of `sort_by`, so
/// the first one is captured and re-raised after the sort finishes —
/// this is the single shared implementation of the clause's
/// error-capture contract for every order-by evaluation site.
pub(crate) fn order_by_sort<T>(
    mut keyed: Vec<(Vec<Option<AtomicValue>>, T)>,
    specs: &[OrderSpec],
) -> XdmResult<Vec<T>> {
    let mut sort_err: Option<XdmError> = None;
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, spec) in specs.iter().enumerate() {
            match order_keys(&ka[i], &kb[i], spec) {
                Ok(Ordering::Equal) => continue,
                Ok(o) => return o,
                Err(e) => {
                    if sort_err.is_none() {
                        sort_err = Some(e);
                    }
                    return Ordering::Equal;
                }
            }
        }
        Ordering::Equal
    });
    match sort_err {
        Some(e) => Err(e),
        None => Ok(keyed.into_iter().map(|(_, t)| t).collect()),
    }
}

fn order_keys(
    a: &Option<AtomicValue>,
    b: &Option<AtomicValue>,
    spec: &OrderSpec,
) -> XdmResult<Ordering> {
    let o = match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => {
            if spec.empty_least {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        }
        (Some(_), None) => {
            if spec.empty_least {
                Ordering::Greater
            } else {
                Ordering::Less
            }
        }
        (Some(x), Some(y)) => {
            // Untyped sorts as string against strings, numeric vs
            // numerics — value_compare handles the coercion.
            x.value_compare(y)?.unwrap_or(Ordering::Equal)
        }
    };
    Ok(if spec.descending { o.reverse() } else { o })
}

/// Which comparison family a `count(...) <op> N` interception came
/// from — the two families agree on singleton numerics, but each is
/// decided through its own machinery to keep promotions identical.
enum CountCmp {
    General(GeneralComp),
    Value(ValueComp),
}

/// The window a positional first predicate selects.
enum PosWindow {
    /// `[k]` or `[position() eq k]` — a single slot.
    Exact(f64),
    /// `[position() lt N]` / `[position() le N]` — a prefix.
    UpTo { bound: f64, inclusive: bool },
}

fn numeric_literal(e: &Expr) -> Option<AtomicValue> {
    if let Expr::Literal(a) = e {
        if a.type_of().is_numeric() {
            return Some(a.clone());
        }
    }
    None
}

fn value_comp_holds(op: ValueComp, o: Ordering) -> bool {
    match op {
        ValueComp::Eq => o == Ordering::Equal,
        ValueComp::Ne => o != Ordering::Equal,
        ValueComp::Lt => o == Ordering::Less,
        ValueComp::Le => o != Ordering::Greater,
        ValueComp::Gt => o == Ordering::Greater,
        ValueComp::Ge => o != Ordering::Less,
    }
}

fn general_comp_holds(op: GeneralComp, o: Ordering) -> bool {
    match op {
        GeneralComp::Eq => o == Ordering::Equal,
        GeneralComp::Ne => o != Ordering::Equal,
        GeneralComp::Lt => o == Ordering::Less,
        GeneralComp::Le => o != Ordering::Greater,
        GeneralComp::Gt => o == Ordering::Greater,
        GeneralComp::Ge => o != Ordering::Less,
    }
}

/// Recognize a first predicate that selects by position alone:
/// a numeric literal, or `position()` compared against a numeric
/// literal with an operator that bounds a prefix. `ge`/`gt`/`ne`
/// shapes keep the whole tail and gain nothing from streaming, so
/// they are not recognized.
fn positional_window(pred: &Expr) -> Option<PosWindow> {
    if let Some(a) = numeric_literal(pred) {
        return to_f64(&a).ok().map(PosWindow::Exact);
    }
    #[derive(Clone, Copy)]
    enum Rel {
        Eq,
        Lt,
        Le,
        Gt,
        Ge,
    }
    let (rel, l, r) = match pred {
        Expr::General(op, l, r) => {
            let rel = match op {
                GeneralComp::Eq => Rel::Eq,
                GeneralComp::Lt => Rel::Lt,
                GeneralComp::Le => Rel::Le,
                GeneralComp::Gt => Rel::Gt,
                GeneralComp::Ge => Rel::Ge,
                GeneralComp::Ne => return None,
            };
            (rel, &**l, &**r)
        }
        Expr::Value(op, l, r) => {
            let rel = match op {
                ValueComp::Eq => Rel::Eq,
                ValueComp::Lt => Rel::Lt,
                ValueComp::Le => Rel::Le,
                ValueComp::Gt => Rel::Gt,
                ValueComp::Ge => Rel::Ge,
                ValueComp::Ne => return None,
            };
            (rel, &**l, &**r)
        }
        _ => return None,
    };
    let is_position = |e: &Expr| -> bool {
        matches!(e, Expr::FunctionCall { name, args }
            if args.is_empty()
                && name.ns.as_deref() == Some(FN_NS)
                && name.local == "position")
    };
    let bound_of = |e: &Expr| numeric_literal(e).and_then(|a| to_f64(&a).ok());
    if is_position(l) {
        let bound = bound_of(r)?;
        return match rel {
            Rel::Eq => Some(PosWindow::Exact(bound)),
            Rel::Lt => Some(PosWindow::UpTo { bound, inclusive: false }),
            Rel::Le => Some(PosWindow::UpTo { bound, inclusive: true }),
            Rel::Gt | Rel::Ge => None,
        };
    }
    if is_position(r) {
        let bound = bound_of(l)?;
        // Flipped operand order: `N gt position()` keeps a prefix.
        return match rel {
            Rel::Eq => Some(PosWindow::Exact(bound)),
            Rel::Gt => Some(PosWindow::UpTo { bound, inclusive: false }),
            Rel::Ge => Some(PosWindow::UpTo { bound, inclusive: true }),
            Rel::Lt | Rel::Le => None,
        };
    }
    None
}

fn predicate_truth(v: &Sequence, position: usize) -> XdmResult<bool> {
    // A singleton numeric predicate is a position test.
    if let [Item::Atomic(a)] = v.items() {
        if a.type_of().is_numeric() {
            let p = to_f64(a)?;
            return Ok(p == position as f64);
        }
    }
    v.effective_boolean()
}

fn axis_nodes(node: &NodeHandle, axis: Axis) -> Vec<NodeHandle> {
    match axis {
        Axis::Child => node.children(),
        Axis::Attribute => node.attributes(),
        Axis::Descendant => node.descendants(),
        Axis::DescendantOrSelf => {
            let mut v = vec![node.clone()];
            v.extend(node.descendants());
            v
        }
        Axis::SelfAxis => vec![node.clone()],
        Axis::Parent => node.parent().into_iter().collect(),
        Axis::Ancestor => node.ancestors(),
        Axis::AncestorOrSelf => {
            let mut v = vec![node.clone()];
            v.extend(node.ancestors());
            v
        }
        Axis::FollowingSibling => node.following_siblings(),
        Axis::PrecedingSibling => node.preceding_siblings(),
    }
}

/// The principal node kind of an axis (name tests match it).
fn principal_kind(axis: Axis) -> NodeKind {
    if axis == Axis::Attribute {
        NodeKind::Attribute
    } else {
        NodeKind::Element
    }
}

/// A step's node test against a node's kind and name (a PI's target
/// is its name).
fn node_test_matches(test: &NodeTest, kind: NodeKind, name: Option<&QName>, axis: Axis) -> bool {
    let named = |q: &Option<QName>| q.as_ref().is_none_or(|q| name == Some(q));
    match test {
        NodeTest::Kind(k) => match k {
            KindTest::AnyKind => true,
            KindTest::Document => kind == NodeKind::Document,
            KindTest::Element(q) => kind == NodeKind::Element && named(q),
            KindTest::Attribute(q) => kind == NodeKind::Attribute && named(q),
            KindTest::Text => kind == NodeKind::Text,
            KindTest::Comment => kind == NodeKind::Comment,
            KindTest::Pi(target) => {
                kind == NodeKind::Pi
                    && target.as_ref().is_none_or(|t| name.is_some_and(|q| q.local == *t))
            }
        },
        name_test => kind == principal_kind(axis) && name_test.matches_name(name),
    }
}

fn resolve_atomic_type(q: &QName) -> XdmResult<AtomicType> {
    let is_xs = q.ns.as_deref() == Some(XS_NS) || q.ns.is_none();
    if is_xs {
        if let Some(t) = AtomicType::from_local(&q.local) {
            return Ok(t);
        }
    }
    Err(XdmError::new(
        ErrorCode::XPST0003,
        format!("unknown atomic type {q}"),
    ))
}

fn require_pul(env: &mut Env) -> XdmResult<&mut Pul> {
    env.pul.as_mut().ok_or_else(|| {
        XdmError::new(
            ErrorCode::XUST0001,
            "updating expression evaluated outside an update statement",
        )
    })
}

/// Node records a direct constructor builds by itself, counting one
/// per enclosed expression (its usual text or element result): the
/// size its arena is given up front.
fn direct_size(de: &DirectElement) -> usize {
    let content: usize = de
        .content
        .iter()
        .map(|c| match c {
            DirectContent::Element(e) => direct_size(e),
            _ => 1,
        })
        .sum();
    1 + de.attributes.len() + content
}

/// Space-joined string of an atomized sequence (attribute/text
/// content rules).
fn space_joined(seq: &Sequence) -> Rc<str> {
    let mut run = TextRun::default();
    for item in seq.iter() {
        match item {
            Item::Atomic(a) => run.push_atomic(a),
            Item::Node(n) => run.push_atomic(&n.typed_value()),
        }
    }
    run.take().unwrap_or_else(|| Rc::from(""))
}

/// One run of adjacent text in constructor content, built once:
/// atomics are joined by single spaces, text nodes are concatenated
/// as they are, and a run of one untyped value or text node keeps its
/// shared buffer.
#[derive(Default)]
enum TextRun {
    #[default]
    Idle,
    Shared { text: Rc<str>, atomic: bool },
    Joined { text: String, atomic: bool },
}

impl TextRun {
    fn is_started(&self) -> bool {
        !matches!(self, TextRun::Idle)
    }

    /// Add an atomic value, a space apart from a preceding atomic.
    fn push_atomic(&mut self, a: &AtomicValue) {
        *self = match (std::mem::take(self), a) {
            (TextRun::Idle, AtomicValue::Untyped(s)) => {
                TextRun::Shared { text: s.clone(), atomic: true }
            }
            (run, a) => {
                let (mut text, space) = run.into_buffer();
                if space {
                    text.push(' ');
                }
                a.push_lexical(&mut text);
                TextRun::Joined { text, atomic: true }
            }
        };
    }

    /// Add a text node's content: adjacent text merges without a
    /// separator.
    fn push_text(&mut self, t: &Rc<str>) {
        *self = match std::mem::take(self) {
            TextRun::Idle => TextRun::Shared { text: t.clone(), atomic: false },
            run => {
                let (mut text, _) = run.into_buffer();
                text.push_str(t);
                TextRun::Joined { text, atomic: false }
            }
        };
    }

    /// The run as an owned buffer, and whether it ends in an atomic.
    fn into_buffer(self) -> (String, bool) {
        match self {
            TextRun::Idle => (String::new(), false),
            TextRun::Shared { text, atomic } => (String::from(&*text), atomic),
            TextRun::Joined { text, atomic } => (text, atomic),
        }
    }

    /// End the run, returning its text if it was started.
    fn take(&mut self) -> Option<Rc<str>> {
        match std::mem::take(self) {
            TextRun::Idle => None,
            TextRun::Shared { text, .. } => Some(text),
            TextRun::Joined { text, .. } => Some(text.into()),
        }
    }

    /// End the run into `parent`, a constructor's own fresh node, as
    /// one text node.
    fn flush(&mut self, parent: &NodeHandle) {
        if let Some(t) = self.take() {
            parent.push_text(t);
        }
    }
}

/// Element-content assembly: adjacent atomics become one text node
/// (space-separated); nodes are copied; attribute nodes attach to the
/// element (only before other content); document nodes contribute
/// their children.
///
/// With `graft` on, already-materialized element subtrees from other
/// arenas are adopted **by reference** (zero-copy) when immutability
/// can be guaranteed — the source is sealed on first share and any
/// later mutation through the host copies on write. Observable
/// semantics (serialization, axes, node identity of the constructed
/// tree) are identical to the deep-copy path.
fn assemble_content(parent: &NodeHandle, seq: &Sequence, graft: bool) -> XdmResult<()> {
    let arena = parent.arena().clone();
    // Adjacent atomics and text nodes gather into one run that becomes
    // a single text node when other content (or the end) is reached.
    let mut run = TextRun::default();
    let mut seen_non_attr = parent.has_children();
    let adopt = |n: &NodeHandle, run: &mut TextRun| -> XdmResult<()> {
        run.flush(parent);
        if graft && n.graftable_into(&arena) {
            parent.graft_child(n)?;
        } else {
            parent.append_child(&copy_for_content(n, &arena))?;
        }
        Ok(())
    };
    for item in seq.iter() {
        let n = match item {
            Item::Atomic(a) => {
                run.push_atomic(a);
                continue;
            }
            Item::Node(n) => n,
        };
        match n.kind() {
            NodeKind::Text => run.push_text(&n.string_value_shared()),
            NodeKind::Attribute => {
                if seen_non_attr || run.is_started() {
                    return Err(XdmError::new(
                        ErrorCode::XPTY0004,
                        "attribute node after non-attribute content",
                    ));
                }
                parent.set_attribute(&copy_for_content(n, &arena))?;
            }
            NodeKind::Document => {
                for c in n.children() {
                    if c.kind() == NodeKind::Text {
                        run.push_text(&c.string_value_shared());
                    } else {
                        adopt(&c, &mut run)?;
                    }
                }
                seen_non_attr = true;
            }
            _ => {
                adopt(n, &mut run)?;
                seen_non_attr = true;
            }
        }
    }
    run.flush(parent);
    Ok(())
}

/// Constructor content is copied — except freshly constructed,
/// parentless nodes already in the target arena, which can be moved
/// (they are unobservable elsewhere).
fn copy_for_content(n: &NodeHandle, arena: &SharedArena) -> NodeHandle {
    if n.parent().is_none() && Rc::ptr_eq(n.arena(), arena) {
        n.clone()
    } else {
        n.deep_copy_into(arena)
    }
}

/// Split a sequence into (content nodes, attribute nodes) copied into
/// the target arena — the XUF insert/replace source normalization.
fn content_nodes(
    seq: &Sequence,
    arena: &SharedArena,
) -> XdmResult<(Vec<NodeHandle>, Vec<NodeHandle>)> {
    let mut content = Vec::new();
    let mut attrs = Vec::new();
    let mut run = TextRun::default();
    for item in seq.iter() {
        match item {
            Item::Atomic(a) => run.push_atomic(a),
            Item::Node(n) => {
                if let Some(t) = run.take() {
                    content.push(NodeHandle::new_text(arena, t));
                }
                match n.kind() {
                    NodeKind::Attribute => attrs.push(n.deep_copy_into(arena)),
                    NodeKind::Document => {
                        for c in n.children() {
                            content.push(c.deep_copy_into(arena));
                        }
                    }
                    _ => content.push(n.deep_copy_into(arena)),
                }
            }
        }
    }
    if let Some(t) = run.take() {
        content.push(NodeHandle::new_text(arena, t));
    }
    Ok((content, attrs))
}

// ------------------------------------------------- join-cache plumbing

fn steps_fingerprint(steps: &[Step]) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    for s in steps {
        format!("{:?}|{:?}", s.axis, s.test).hash(&mut h);
    }
    h.finish()
}

/// Does the expression reference any variable at all?
pub(crate) fn expr_refs_any_var(e: &Expr) -> bool {
    let mut found = false;
    walk_expr(e, &mut |x| {
        if matches!(x, Expr::VarRef(_)) {
            found = true;
        }
    });
    found
}

/// Does the expression reference the given variable?
fn expr_refs_var(e: &Expr, var: &QName) -> bool {
    let mut found = false;
    walk_expr(e, &mut |x| {
        if matches!(x, Expr::VarRef(v) if v == var) {
            found = true;
        }
    });
    found
}

fn walk_expr(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    match e {
        Expr::Literal(_) | Expr::VarRef(_) | Expr::ContextItem => {}
        Expr::Comma(v) => v.iter().for_each(|x| walk_expr(x, f)),
        Expr::Range(a, b)
        | Expr::Binary(_, a, b)
        | Expr::And(a, b)
        | Expr::Or(a, b)
        | Expr::General(_, a, b)
        | Expr::Value(_, a, b)
        | Expr::Node(_, a, b)
        | Expr::Set(_, a, b) => {
            walk_expr(a, f);
            walk_expr(b, f);
        }
        Expr::Unary(_, a)
        | Expr::ComputedText(a)
        | Expr::ComputedComment(a)
        | Expr::ComputedDocument(a)
        | Expr::Delete(a) => walk_expr(a, f),
        Expr::If(c, t, e2) => {
            walk_expr(c, f);
            walk_expr(t, f);
            walk_expr(e2, f);
        }
        Expr::Flwor { clauses, ret } => {
            for c in clauses {
                match c {
                    FlworClause::For { source, .. } => walk_expr(source, f),
                    FlworClause::Let { value, .. } => walk_expr(value, f),
                    FlworClause::Where(w) => walk_expr(w, f),
                    FlworClause::OrderBy(specs) => {
                        specs.iter().for_each(|s| walk_expr(&s.key, f))
                    }
                }
            }
            walk_expr(ret, f);
        }
        Expr::Quantified { bindings, satisfies, .. } => {
            bindings.iter().for_each(|(_, s)| walk_expr(s, f));
            walk_expr(satisfies, f);
        }
        Expr::Typeswitch { operand, cases } => {
            walk_expr(operand, f);
            cases.iter().for_each(|c| walk_expr(&c.body, f));
        }
        Expr::Path { start, steps } => {
            if let PathStart::Expr(b) = start {
                walk_expr(b, f);
            }
            for s in steps {
                s.predicates.iter().for_each(|p| walk_expr(p, f));
            }
        }
        Expr::Filter { base, predicates } => {
            walk_expr(base, f);
            predicates.iter().for_each(|p| walk_expr(p, f));
        }
        Expr::FunctionCall { args, .. } => args.iter().for_each(|a| walk_expr(a, f)),
        Expr::DirectElement(de) => walk_direct(de, f),
        Expr::ComputedElement(n, c) | Expr::ComputedAttribute(n, c) | Expr::ComputedPi(n, c) => {
            if let NameExpr::Computed(e2) = n {
                walk_expr(e2, f);
            }
            if let Some(c) = c {
                walk_expr(c, f);
            }
        }
        Expr::InstanceOf(a, _)
        | Expr::TreatAs(a, _)
        | Expr::CastAs(a, _, _)
        | Expr::CastableAs(a, _, _) => walk_expr(a, f),
        Expr::Insert { source, target, .. } => {
            walk_expr(source, f);
            walk_expr(target, f);
        }
        Expr::Replace { target, with, .. } => {
            walk_expr(target, f);
            walk_expr(with, f);
        }
        Expr::Rename { target, new_name } => {
            walk_expr(target, f);
            walk_expr(new_name, f);
        }
        Expr::Transform { copies, modify, ret } => {
            copies.iter().for_each(|(_, e2)| walk_expr(e2, f));
            walk_expr(modify, f);
            walk_expr(ret, f);
        }
    }
}

fn walk_direct(de: &DirectElement, f: &mut impl FnMut(&Expr)) {
    for (_, parts) in &de.attributes {
        for p in parts {
            if let AttrContent::Expr(e) = p {
                walk_expr(e, f);
            }
        }
    }
    for c in &de.content {
        match c {
            DirectContent::Expr(e) => walk_expr(e, f),
            DirectContent::Element(child) => walk_direct(child, f),
            _ => {}
        }
    }
}
