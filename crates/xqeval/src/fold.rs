//! Prepare-time query analysis: constant folding and static binding
//! resolution.
//!
//! [`fold_expr`] rewrites literal-only subtrees (arithmetic,
//! comparisons, ranges, and boolean connectives over literals) to
//! their computed literal, so a prepared plan's tree-walk does less
//! work on every execution. Folding is strictly *value-preserving*:
//! a subtree is replaced only when it evaluates without error to a
//! single atomic item. Anything that errors (e.g. `1 div 0` in a
//! branch that may never run) or yields a non-singleton is left
//! untouched, so dynamic-error timing is unchanged.
//!
//! [`resolve_bindings`] walks the statically known function-call
//! sites and resolves each against the engine registries, so a
//! prepared plan records which user/external functions and readonly
//! procedures it will dispatch to — the cheap analysis half of the
//! paper-era "compile once" plan shape.

#![deny(clippy::unwrap_used)]

use std::collections::HashMap;

use xdm::qname::QName;
use xdm::sequence::Item;

use xqparser::ast::*;

use crate::context::Env;
use crate::engine::{Engine, FunctionKind, ProcKind};
use crate::eval::Evaluator;

/// What a statically known call site resolved to at prepare time.
#[derive(Clone)]
pub enum ResolvedBinding {
    /// A registered function (user-declared or external).
    Function(FunctionKind),
    /// A registered procedure (the evaluator only accepts readonly
    /// ones from expression context; resolution records it anyway).
    Procedure(ProcKind),
}

/// Is the expression composed purely of literals and foldable
/// operators? (No variables, no paths, no function calls, no
/// constructors — nothing that can observe dynamic context.)
fn literal_only(e: &Expr) -> bool {
    match e {
        Expr::Literal(_) => true,
        Expr::Comma(items) => items.iter().all(literal_only),
        Expr::Range(a, b)
        | Expr::Binary(_, a, b)
        | Expr::And(a, b)
        | Expr::Or(a, b)
        | Expr::General(_, a, b)
        | Expr::Value(_, a, b) => literal_only(a) && literal_only(b),
        Expr::Unary(_, a) => literal_only(a),
        _ => false,
    }
}

/// Evaluate a literal-only subtree; `Some` only for clean singleton
/// atomic results.
fn eval_to_literal(engine: &Engine, e: &Expr) -> Option<Expr> {
    let mut env = Env::new();
    let seq = Evaluator::new(engine).eval(e, &mut env).ok()?;
    let items = seq.items();
    match items {
        [Item::Atomic(a)] => Some(Expr::Literal(a.clone())),
        _ => None,
    }
}

fn fold_box(engine: &Engine, e: &Expr) -> Box<Expr> {
    Box::new(fold_expr(engine, e))
}

fn fold_opt_box(engine: &Engine, e: &Option<Box<Expr>>) -> Option<Box<Expr>> {
    e.as_ref().map(|x| fold_box(engine, x))
}

fn fold_name(engine: &Engine, n: &NameExpr) -> NameExpr {
    match n {
        NameExpr::Fixed(q) => NameExpr::Fixed(*q),
        NameExpr::Computed(e) => NameExpr::Computed(fold_box(engine, e)),
    }
}

fn fold_steps(engine: &Engine, steps: &[Step]) -> Vec<Step> {
    steps
        .iter()
        .map(|s| Step {
            axis: s.axis,
            test: s.test.clone(),
            predicates: s.predicates.iter().map(|p| fold_expr(engine, p)).collect(),
        })
        .collect()
}

fn fold_direct(engine: &Engine, d: &DirectElement) -> DirectElement {
    DirectElement {
        name: d.name,
        attributes: d
            .attributes
            .iter()
            .map(|(n, parts)| {
                (
                    *n,
                    parts
                        .iter()
                        .map(|p| match p {
                            AttrContent::Text(t) => AttrContent::Text(t.clone()),
                            AttrContent::Expr(e) => AttrContent::Expr(fold_expr(engine, e)),
                        })
                        .collect(),
                )
            })
            .collect(),
        ns_decls: d.ns_decls.clone(),
        content: d
            .content
            .iter()
            .map(|c| match c {
                DirectContent::Expr(e) => DirectContent::Expr(fold_expr(engine, e)),
                DirectContent::Element(el) => {
                    DirectContent::Element(Box::new(fold_direct(engine, el)))
                }
                other => other.clone(),
            })
            .collect(),
    }
}

/// Constant-fold an expression tree (see module docs). Returns a new
/// tree; the input is never mutated.
pub fn fold_expr(engine: &Engine, e: &Expr) -> Expr {
    if !matches!(e, Expr::Literal(_)) && literal_only(e) {
        if let Some(lit) = eval_to_literal(engine, e) {
            return lit;
        }
    }
    match e {
        Expr::Literal(_) | Expr::VarRef(_) | Expr::ContextItem => e.clone(),
        Expr::Comma(items) => {
            Expr::Comma(items.iter().map(|x| fold_expr(engine, x)).collect())
        }
        Expr::Range(a, b) => Expr::Range(fold_box(engine, a), fold_box(engine, b)),
        Expr::Binary(op, a, b) => {
            Expr::Binary(*op, fold_box(engine, a), fold_box(engine, b))
        }
        Expr::Unary(neg, a) => Expr::Unary(*neg, fold_box(engine, a)),
        Expr::And(a, b) => Expr::And(fold_box(engine, a), fold_box(engine, b)),
        Expr::Or(a, b) => Expr::Or(fold_box(engine, a), fold_box(engine, b)),
        Expr::General(op, a, b) => {
            Expr::General(*op, fold_box(engine, a), fold_box(engine, b))
        }
        Expr::Value(op, a, b) => {
            Expr::Value(*op, fold_box(engine, a), fold_box(engine, b))
        }
        Expr::Node(op, a, b) => {
            Expr::Node(*op, fold_box(engine, a), fold_box(engine, b))
        }
        Expr::Set(op, a, b) => {
            Expr::Set(*op, fold_box(engine, a), fold_box(engine, b))
        }
        Expr::If(c, t, f) => Expr::If(
            fold_box(engine, c),
            fold_box(engine, t),
            fold_box(engine, f),
        ),
        Expr::Flwor { clauses, ret } => Expr::Flwor {
            clauses: clauses
                .iter()
                .map(|c| match c {
                    FlworClause::For { var, pos, source } => FlworClause::For {
                        var: *var,
                        pos: *pos,
                        source: fold_expr(engine, source),
                    },
                    FlworClause::Let { var, ty, value } => FlworClause::Let {
                        var: *var,
                        ty: ty.clone(),
                        value: fold_expr(engine, value),
                    },
                    FlworClause::Where(w) => FlworClause::Where(fold_expr(engine, w)),
                    FlworClause::OrderBy(specs) => FlworClause::OrderBy(
                        specs
                            .iter()
                            .map(|s| OrderSpec {
                                key: fold_expr(engine, &s.key),
                                ..s.clone()
                            })
                            .collect(),
                    ),
                })
                .collect(),
            ret: fold_box(engine, ret),
        },
        Expr::Quantified { quantifier, bindings, satisfies } => Expr::Quantified {
            quantifier: *quantifier,
            bindings: bindings
                .iter()
                .map(|(v, s)| (*v, fold_expr(engine, s)))
                .collect(),
            satisfies: fold_box(engine, satisfies),
        },
        Expr::Typeswitch { operand, cases } => Expr::Typeswitch {
            operand: fold_box(engine, operand),
            cases: cases
                .iter()
                .map(|c| TypeswitchCase {
                    body: fold_expr(engine, &c.body),
                    ..c.clone()
                })
                .collect(),
        },
        Expr::Path { start, steps } => Expr::Path {
            start: match start {
                PathStart::Expr(b) => PathStart::Expr(fold_box(engine, b)),
                other => other.clone(),
            },
            steps: fold_steps(engine, steps),
        },
        Expr::Filter { base, predicates } => Expr::Filter {
            base: fold_box(engine, base),
            predicates: predicates.iter().map(|p| fold_expr(engine, p)).collect(),
        },
        Expr::FunctionCall { name, args } => Expr::FunctionCall {
            name: *name,
            args: args.iter().map(|a| fold_expr(engine, a)).collect(),
        },
        Expr::DirectElement(d) => {
            Expr::DirectElement(Box::new(fold_direct(engine, d)))
        }
        Expr::ComputedElement(n, content) => {
            Expr::ComputedElement(fold_name(engine, n), fold_opt_box(engine, content))
        }
        Expr::ComputedAttribute(n, content) => {
            Expr::ComputedAttribute(fold_name(engine, n), fold_opt_box(engine, content))
        }
        Expr::ComputedPi(n, content) => {
            Expr::ComputedPi(fold_name(engine, n), fold_opt_box(engine, content))
        }
        Expr::ComputedText(x) => Expr::ComputedText(fold_box(engine, x)),
        Expr::ComputedComment(x) => Expr::ComputedComment(fold_box(engine, x)),
        Expr::ComputedDocument(x) => Expr::ComputedDocument(fold_box(engine, x)),
        Expr::InstanceOf(x, ty) => Expr::InstanceOf(fold_box(engine, x), ty.clone()),
        Expr::TreatAs(x, ty) => Expr::TreatAs(fold_box(engine, x), ty.clone()),
        Expr::CastableAs(x, ty, opt) => {
            Expr::CastableAs(fold_box(engine, x), *ty, *opt)
        }
        Expr::CastAs(x, ty, opt) => Expr::CastAs(fold_box(engine, x), *ty, *opt),
        // Updating expressions: fold operands, keep structure.
        Expr::Insert { source, pos, target } => Expr::Insert {
            source: fold_box(engine, source),
            pos: *pos,
            target: fold_box(engine, target),
        },
        Expr::Delete(t) => Expr::Delete(fold_box(engine, t)),
        Expr::Replace { value_of, target, with } => Expr::Replace {
            value_of: *value_of,
            target: fold_box(engine, target),
            with: fold_box(engine, with),
        },
        Expr::Rename { target, new_name } => Expr::Rename {
            target: fold_box(engine, target),
            new_name: fold_box(engine, new_name),
        },
        Expr::Transform { copies, modify, ret } => Expr::Transform {
            copies: copies
                .iter()
                .map(|(v, x)| (*v, fold_expr(engine, x)))
                .collect(),
            modify: fold_box(engine, modify),
            ret: fold_box(engine, ret),
        },
    }
}

/// Collect every statically known call site in an expression and
/// resolve it against the engine's registries. Builtins and unknown
/// names are skipped — dispatch for those stays dynamic (a later
/// `load` may still register them, and the evaluator reports
/// `XPST0017` at call time exactly as before).
pub fn resolve_bindings(
    engine: &Engine,
    e: &Expr,
) -> HashMap<(QName, usize), ResolvedBinding> {
    let mut out = HashMap::new();
    collect_calls(e, &mut |name, arity| {
        let key = (*name, arity);
        if out.contains_key(&key) {
            return;
        }
        if let Some(f) = engine.function(name, arity) {
            out.insert(key, ResolvedBinding::Function(f));
        } else if let Some(p) = engine.procedure(name, arity) {
            out.insert(key, ResolvedBinding::Procedure(p));
        }
    });
    out
}

fn collect_calls(e: &Expr, f: &mut impl FnMut(&QName, usize)) {
    if let Expr::FunctionCall { name, args } = e {
        f(name, args.len());
    }
    each_child(e, &mut |child| collect_calls(child, f));
}

/// Visit each direct child expression of a node (structural walk used
/// by the binding collector).
fn each_child(e: &Expr, f: &mut impl FnMut(&Expr)) {
    match e {
        Expr::Literal(_) | Expr::VarRef(_) | Expr::ContextItem => {}
        Expr::Comma(v) => v.iter().for_each(&mut *f),
        Expr::Range(a, b)
        | Expr::Binary(_, a, b)
        | Expr::And(a, b)
        | Expr::Or(a, b)
        | Expr::General(_, a, b)
        | Expr::Value(_, a, b)
        | Expr::Node(_, a, b)
        | Expr::Set(_, a, b) => {
            f(a);
            f(b);
        }
        Expr::Unary(_, a)
        | Expr::ComputedText(a)
        | Expr::ComputedComment(a)
        | Expr::ComputedDocument(a)
        | Expr::Delete(a)
        | Expr::InstanceOf(a, _)
        | Expr::TreatAs(a, _)
        | Expr::CastableAs(a, _, _)
        | Expr::CastAs(a, _, _) => f(a),
        Expr::If(c, t, e2) => {
            f(c);
            f(t);
            f(e2);
        }
        Expr::Flwor { clauses, ret } => {
            for c in clauses {
                match c {
                    FlworClause::For { source, .. } => f(source),
                    FlworClause::Let { value, .. } => f(value),
                    FlworClause::Where(w) => f(w),
                    FlworClause::OrderBy(specs) => specs.iter().for_each(|s| f(&s.key)),
                }
            }
            f(ret);
        }
        Expr::Quantified { bindings, satisfies, .. } => {
            bindings.iter().for_each(|(_, s)| f(s));
            f(satisfies);
        }
        Expr::Typeswitch { operand, cases } => {
            f(operand);
            cases.iter().for_each(|c| f(&c.body));
        }
        Expr::Path { start, steps } => {
            if let PathStart::Expr(b) = start {
                f(b);
            }
            steps.iter().for_each(|s| s.predicates.iter().for_each(&mut *f));
        }
        Expr::Filter { base, predicates } => {
            f(base);
            predicates.iter().for_each(&mut *f);
        }
        Expr::FunctionCall { args, .. } => args.iter().for_each(&mut *f),
        Expr::DirectElement(d) => each_direct_child(d, f),
        Expr::ComputedElement(n, content)
        | Expr::ComputedAttribute(n, content)
        | Expr::ComputedPi(n, content) => {
            if let NameExpr::Computed(x) = n {
                f(x);
            }
            if let Some(x) = content {
                f(x);
            }
        }
        Expr::Insert { source, target, .. } => {
            f(source);
            f(target);
        }
        Expr::Replace { target, with, .. } => {
            f(target);
            f(with);
        }
        Expr::Rename { target, new_name } => {
            f(target);
            f(new_name);
        }
        Expr::Transform { copies, modify, ret } => {
            copies.iter().for_each(|(_, x)| f(x));
            f(modify);
            f(ret);
        }
    }
}

fn each_direct_child(d: &DirectElement, f: &mut impl FnMut(&Expr)) {
    for (_, parts) in &d.attributes {
        for p in parts {
            if let AttrContent::Expr(e) = p {
                f(e);
            }
        }
    }
    for c in &d.content {
        match c {
            DirectContent::Expr(e) => f(e),
            DirectContent::Element(el) => each_direct_child(el, f),
            _ => {}
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use xdm::atomic::AtomicValue;
    use xqparser::parser::parse_expr;

    fn fold_src(src: &str) -> Expr {
        let engine = Engine::new();
        let e = parse_expr(src, &[]).unwrap();
        fold_expr(&engine, &e)
    }

    #[test]
    fn arithmetic_over_literals_folds() {
        assert_eq!(fold_src("1 + 2 * 3"), Expr::Literal(AtomicValue::Integer(7)));
    }

    #[test]
    fn comparisons_and_connectives_fold() {
        assert_eq!(
            fold_src("1 lt 2 and 3 eq 3"),
            Expr::Literal(AtomicValue::Boolean(true))
        );
    }

    #[test]
    fn folding_reaches_inside_composites() {
        // The branch arms fold even though the condition is dynamic.
        let folded = fold_src("if ($x) then 1 + 1 else 2 + 3");
        let Expr::If(_, t, f) = folded else { panic!("expected if") };
        assert_eq!(*t, Expr::Literal(AtomicValue::Integer(2)));
        assert_eq!(*f, Expr::Literal(AtomicValue::Integer(5)));
    }

    #[test]
    fn dynamic_errors_are_not_folded_away() {
        // 1 div 0 raises FOAR0001 at *run* time; folding must leave it.
        let folded = fold_src("if ($x) then 1 div 0 else 0");
        let Expr::If(_, t, _) = folded else { panic!("expected if") };
        assert!(matches!(*t, Expr::Binary(..)), "error expr left unfolded");
    }

    #[test]
    fn variables_block_folding() {
        let folded = fold_src("$x + 1");
        assert!(matches!(folded, Expr::Binary(..)));
    }

    #[test]
    fn sequences_fold_elementwise() {
        let folded = fold_src("(1 + 1, 2 + 2)");
        let Expr::Comma(items) = folded else { panic!("expected comma") };
        assert_eq!(items[0], Expr::Literal(AtomicValue::Integer(2)));
        assert_eq!(items[1], Expr::Literal(AtomicValue::Integer(4)));
    }

    #[test]
    fn bindings_resolve_against_registries() {
        use xdm::sequence::Sequence;
        let engine = Engine::new();
        engine.register_external_function(
            QName::with_ns("urn:s", "src"),
            0,
            std::rc::Rc::new(|_, _| Ok(Sequence::empty())),
        );
        let e = parse_expr("s:src() , unknown:fn(1)", &[("s", "urn:s"), ("unknown", "urn:u")])
            .unwrap();
        let resolved = resolve_bindings(&engine, &e);
        assert_eq!(resolved.len(), 1, "only the registered call resolves");
        assert!(resolved.contains_key(&(QName::with_ns("urn:s", "src"), 0)));
    }
}
