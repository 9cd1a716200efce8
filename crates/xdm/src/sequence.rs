//! Items and sequences.
//!
//! Every XQuery/XQSE value is a [`Sequence`] — a flat, ordered list of
//! [`Item`]s. Sequences never nest: concatenation flattens. This module
//! also implements the two ubiquitous coercions of the language:
//! **atomization** (`fn:data` semantics) and the **effective boolean
//! value** used by `where`, `if`, `while`, and friends.

use std::cell::{OnceCell, RefCell};
use std::fmt;
use std::rc::Rc;

use crate::atomic::AtomicValue;
use crate::error::{ErrorCode, XdmError, XdmResult};
use crate::node::NodeHandle;

/// A single XDM item: an atomic value or a node.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// An atomic value.
    Atomic(AtomicValue),
    /// A node reference.
    Node(NodeHandle),
}

impl Item {
    /// Convenience: an `xs:integer` item.
    pub fn integer(i: i64) -> Item {
        Item::Atomic(AtomicValue::Integer(i))
    }

    /// Convenience: an `xs:string` item.
    pub fn string(s: impl Into<String>) -> Item {
        Item::Atomic(AtomicValue::String(s.into()))
    }

    /// Convenience: an `xs:boolean` item.
    pub fn boolean(b: bool) -> Item {
        Item::Atomic(AtomicValue::Boolean(b))
    }

    /// Convenience: an `xs:double` item.
    pub fn double(d: f64) -> Item {
        Item::Atomic(AtomicValue::Double(d))
    }

    /// Atomize this item: nodes yield their typed value, atomics pass
    /// through.
    pub fn atomize(&self) -> AtomicValue {
        match self {
            Item::Atomic(a) => a.clone(),
            Item::Node(n) => n.typed_value(),
        }
    }

    /// The string value (`fn:string` on one item).
    pub fn string_value(&self) -> String {
        match self {
            Item::Atomic(a) => a.string_value(),
            Item::Node(n) => n.string_value(),
        }
    }

    /// True if the item is a node.
    pub fn is_node(&self) -> bool {
        matches!(self, Item::Node(_))
    }

    /// Borrow the node, if the item is one.
    pub fn as_node(&self) -> Option<&NodeHandle> {
        match self {
            Item::Node(n) => Some(n),
            _ => None,
        }
    }

    /// Borrow the atomic value, if the item is one.
    pub fn as_atomic(&self) -> Option<&AtomicValue> {
        match self {
            Item::Atomic(a) => Some(a),
            _ => None,
        }
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.string_value())
    }
}

/// A pull source backing a lazy [`Sequence`]: yields the next item,
/// `Ok(None)` once exhausted, or a (terminal) error. Implemented by
/// the evaluator's streaming FLWOR pipeline; the data model only
/// defines the contract.
///
/// A source is pulled at most once per position: the owning
/// [`Sequence`] memoizes every pulled item, so `Rc`-shared clones all
/// observe one consistent prefix regardless of who pulled it.
pub trait ItemSource {
    /// Produce the next item, `None` at end of stream.
    fn next_item(&mut self) -> XdmResult<Option<Item>>;
}

/// Mutable pull state of a lazy sequence.
struct LazyState {
    /// Everything pulled so far (the memoized prefix).
    pulled: Vec<Item>,
    /// The live producer; `None` once fused (exhausted or errored).
    source: Option<Box<dyn ItemSource>>,
    /// Sticky terminal error: once a pull fails, every later pull past
    /// the valid prefix reports the same error.
    error: Option<XdmError>,
}

/// Shared interior of a lazy [`Sequence`].
struct LazySeq {
    state: RefCell<LazyState>,
    /// Set exactly once, when the stream has been fully drained (or
    /// quietly forced): the complete item buffer. Lets the infallible
    /// slice accessors hand out `&[Item]` without re-entering the
    /// `RefCell`.
    forced: OnceCell<Rc<Vec<Item>>>,
}

impl LazySeq {
    fn new(source: Box<dyn ItemSource>) -> LazySeq {
        LazySeq {
            state: RefCell::new(LazyState {
                pulled: Vec::new(),
                source: Some(source),
                error: None,
            }),
            forced: OnceCell::new(),
        }
    }

    /// Pull until at least `n` items are buffered, the stream ends, or
    /// it errors. Returns how many items are actually available.
    fn pull_to(&self, n: usize) -> XdmResult<usize> {
        let mut st = self.state.borrow_mut();
        while st.pulled.len() < n {
            let Some(src) = st.source.as_mut() else {
                // Fused. Asking past the valid prefix re-raises the
                // sticky error, if any.
                return match &st.error {
                    Some(e) => Err(e.clone()),
                    None => Ok(st.pulled.len()),
                };
            };
            match src.next_item() {
                Ok(Some(item)) => st.pulled.push(item),
                Ok(None) => {
                    st.source = None; // fuse: drop the producer
                    return Ok(st.pulled.len());
                }
                Err(e) => {
                    st.source = None;
                    st.error = Some(e.clone());
                    return Err(e);
                }
            }
        }
        Ok(st.pulled.len())
    }

    /// Drain completely, then return the full buffer (errors
    /// propagate; the valid prefix stays memoized either way).
    fn force(&self) -> XdmResult<Rc<Vec<Item>>> {
        if let Some(v) = self.forced.get() {
            return Ok(v.clone());
        }
        self.pull_to(usize::MAX)?;
        Ok(self.forced_quiet().clone())
    }

    /// The full buffer, swallowing a terminal error (the valid prefix
    /// is returned instead). Only the legacy infallible accessors use
    /// this; the evaluator's choke points guarantee they never see an
    /// un-forced lazy sequence, so the truncation is unobservable in
    /// practice — but it must not panic.
    fn forced_quiet(&self) -> &Rc<Vec<Item>> {
        if self.forced.get().is_none() {
            let _ = self.pull_to(usize::MAX);
            let snapshot = Rc::new(self.state.borrow().pulled.clone());
            let _ = self.forced.set(snapshot);
        }
        self.forced
            .get()
            .unwrap_or_else(|| unreachable!("forced cell was just populated"))
    }

    /// True once the producer is gone (exhausted or errored).
    fn is_fused(&self) -> bool {
        self.state.borrow().source.is_none()
    }
}

impl fmt::Debug for LazySeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.borrow();
        f.debug_struct("LazySeq")
            .field("pulled", &st.pulled.len())
            .field("fused", &st.source.is_none())
            .field("error", &st.error)
            .finish()
    }
}

/// Internal representation. Zero and one items live inline, so the
/// scalar values that dominate evaluation (literals, comparison and
/// arithmetic results, loop variables, singleton path steps) cost no
/// heap allocation; a built vector (from [`Sequence::from_items`], or
/// the buffer an inline sequence is promoted to on its second item) is
/// shared through an `Rc`; a lazy sequence shares its pull stream.
#[derive(Debug, Clone)]
enum Repr {
    Empty,
    One(Item),
    Eager(Rc<Vec<Item>>),
    Lazy(Rc<LazySeq>),
}

/// A flat, ordered sequence of items — the universal value type.
///
/// The empty and singleton sequences are stored inline. Longer
/// sequences are reference-counted with copy-on-write mutation:
/// `clone` is O(1) (an `Rc` bump), and the binding-heavy FLWOR/variable
/// paths of the evaluator — which clone sequences on every tuple —
/// share one buffer until somebody actually mutates. [`Sequence::push`]
/// / [`Sequence::extend`] promote an inline sequence to a buffer on its
/// second item and use [`Rc::make_mut`] after that, so a uniquely-owned
/// sequence grows in place.
///
/// ## Lazy sequences
///
/// A sequence may also be **lazy** ([`Sequence::lazy`]): backed by a
/// pull-based [`ItemSource`] instead of a buffer. Pulled items are
/// memoized, so `Rc`-shared clones observe one consistent stream; the
/// source is *fused* (dropped) once it ends or errors, and a terminal
/// error is sticky. Consumers that understand laziness use the
/// fallible API ([`Sequence::try_item`], [`Sequence::try_is_empty`],
/// [`Sequence::into_forced`]) and can stop pulling early; the legacy
/// infallible accessors quietly force the whole stream (the
/// evaluator's choke points guarantee they never observe an un-forced
/// lazy value, see `xqeval::eval`).
#[derive(Debug, Clone)]
pub struct Sequence {
    repr: Repr,
}

impl Default for Sequence {
    fn default() -> Sequence {
        Sequence::empty()
    }
}

impl PartialEq for Sequence {
    fn eq(&self, other: &Sequence) -> bool {
        self.items() == other.items()
    }
}

impl Sequence {
    /// The empty sequence.
    pub fn empty() -> Sequence {
        Sequence { repr: Repr::Empty }
    }

    /// A singleton sequence.
    pub fn one(item: Item) -> Sequence {
        Sequence { repr: Repr::One(item) }
    }

    /// Build from a vector of items.
    pub fn from_items(items: Vec<Item>) -> Sequence {
        if items.is_empty() {
            return Sequence::empty();
        }
        Sequence { repr: Repr::Eager(Rc::new(items)) }
    }

    /// A lazy sequence over a pull source. Items are produced on
    /// demand, memoized, and shared by every clone of the handle.
    pub fn lazy(source: Box<dyn ItemSource>) -> Sequence {
        Sequence { repr: Repr::Lazy(Rc::new(LazySeq::new(source))) }
    }

    /// True if this sequence is backed by a pull stream whose producer
    /// has not yet been fused (i.e. pulling may still run user code).
    pub fn is_lazy(&self) -> bool {
        match &self.repr {
            Repr::Lazy(l) => !l.is_fused(),
            _ => false,
        }
    }

    /// The number of items known to exist *without* pulling: the
    /// length of an eager or fused sequence, `None` while a live
    /// producer could still yield more. Lets instrumentation (e.g. the
    /// evaluator's `items_never_built` counter) report what an early
    /// exit skipped without defeating the point by forcing.
    pub fn known_len(&self) -> Option<usize> {
        match &self.repr {
            Repr::Lazy(l) => {
                let st = l.state.borrow();
                if st.source.is_none() {
                    Some(st.pulled.len())
                } else {
                    None
                }
            }
            _ => Some(self.items().len()),
        }
    }

    /// Fallible positional access: pulls the stream forward until item
    /// `i` is available. `Ok(None)` when the sequence has fewer than
    /// `i + 1` items. Works on eager sequences too (no pull), so
    /// early-exit consumers can be written uniformly.
    pub fn try_item(&self, i: usize) -> XdmResult<Option<Item>> {
        match &self.repr {
            Repr::Lazy(l) => {
                let have = l.pull_to(i + 1)?;
                if have > i {
                    Ok(l.state.borrow().pulled.get(i).cloned())
                } else {
                    Ok(None)
                }
            }
            _ => Ok(self.items().get(i).cloned()),
        }
    }

    /// Fallible emptiness probe: pulls at most one item.
    pub fn try_is_empty(&self) -> XdmResult<bool> {
        Ok(self.try_item(0)?.is_none())
    }

    /// Force the whole stream, propagating any deferred error, and
    /// return the fully materialized (eager) sequence. On an eager
    /// sequence this is free.
    pub fn into_forced(self) -> XdmResult<Sequence> {
        match self.repr {
            Repr::Lazy(l) => Ok(Sequence { repr: Repr::Eager(l.force()?) }),
            _ => Ok(self),
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items().len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.items().is_empty()
    }

    /// Slice of the items (quietly forcing a lazy sequence).
    pub fn items(&self) -> &[Item] {
        match &self.repr {
            Repr::Empty => &[],
            Repr::One(item) => std::slice::from_ref(item),
            Repr::Eager(v) => v,
            Repr::Lazy(l) => l.forced_quiet(),
        }
    }

    /// Consume into a vector (no copy when this handle is the sole
    /// owner of a buffer).
    pub fn into_items(self) -> Vec<Item> {
        let rc = match self.repr {
            Repr::Empty => return Vec::new(),
            Repr::One(item) => return vec![item],
            Repr::Eager(v) => v,
            // The lazy handle drops at the end of this arm; if it was
            // the only one, the forced buffer ends up uniquely owned.
            Repr::Lazy(l) => l.forced_quiet().clone(),
        };
        Rc::try_unwrap(rc).unwrap_or_else(|rc| (*rc).clone())
    }

    /// Iterate over items.
    pub fn iter(&self) -> std::slice::Iter<'_, Item> {
        self.items().iter()
    }

    /// Append another sequence (flattening concatenation). Copies
    /// only what is shared: a uniquely owned accumulator grows in
    /// place, and a uniquely owned operand buffer is moved.
    pub fn extend(&mut self, other: Sequence) {
        if self.is_empty() {
            // Adopt the other sequence wholesale — the common "start
            // from empty, append one result" accumulation pattern
            // stays allocation-free.
            *self = other;
            self.make_eager();
            return;
        }
        match other.repr {
            Repr::Empty => {}
            Repr::One(item) => self.buffer().push(item),
            Repr::Eager(v) => match Rc::try_unwrap(v) {
                Ok(v) => self.buffer().extend(v),
                Err(v) => self.buffer().extend_from_slice(&v),
            },
            Repr::Lazy(l) => self.buffer().extend_from_slice(l.forced_quiet()),
        }
    }

    /// Push a single item.
    pub fn push(&mut self, item: Item) {
        if self.is_empty() {
            self.repr = Repr::One(item);
        } else {
            self.buffer().push(item);
        }
    }

    /// The uniquely owned item buffer, promoting an inline sequence
    /// and copying a shared buffer.
    fn buffer(&mut self) -> &mut Vec<Item> {
        let rc = match std::mem::replace(&mut self.repr, Repr::Empty) {
            Repr::Empty => Rc::new(Vec::new()),
            Repr::One(first) => {
                let mut v = Vec::with_capacity(4);
                v.push(first);
                Rc::new(v)
            }
            Repr::Eager(v) => v,
            // The lazy handle drops at the end of this arm; if it was
            // the only one, the forced buffer ends up uniquely owned.
            Repr::Lazy(l) => l.forced_quiet().clone(),
        };
        self.repr = Repr::Eager(rc);
        match &mut self.repr {
            Repr::Eager(v) => Rc::make_mut(v),
            _ => unreachable!("just set to Eager"),
        }
    }

    /// Replace a lazy repr by its forced buffer. Dropping a sole lazy
    /// handle releases the buffer's other reference, so it is then
    /// uniquely owned.
    fn make_eager(&mut self) {
        if let Repr::Lazy(l) = &self.repr {
            self.repr = Repr::Eager(l.forced_quiet().clone());
        }
    }

    /// Concatenate two sequences.
    pub fn concat(mut self, other: Sequence) -> Sequence {
        self.extend(other);
        self
    }

    /// Atomize the whole sequence (`fn:data`).
    pub fn atomized(&self) -> Vec<AtomicValue> {
        self.iter().map(Item::atomize).collect()
    }

    /// The effective boolean value per XQuery 1.0 §2.4.3:
    /// - empty → false
    /// - first item a node → true
    /// - singleton atomic → type-specific truth
    /// - otherwise → error FORG0006
    ///
    /// On a lazy sequence this pulls at most two items (an early
    /// exit: a node in first position decides after one pull).
    pub fn effective_boolean(&self) -> XdmResult<bool> {
        match self.try_item(0)? {
            None => Ok(false),
            Some(Item::Node(_)) => Ok(true),
            Some(Item::Atomic(a)) => match self.try_item(1)? {
                None => a.effective_boolean(),
                Some(_) => Err(XdmError::new(
                    ErrorCode::FORG0006,
                    "effective boolean value of multi-item atomic sequence",
                )),
            },
        }
    }

    /// `fn:string` applied to the sequence: empty → "", singleton →
    /// its string value, otherwise a type error. Pulls at most two
    /// items of a lazy sequence.
    pub fn string_value(&self) -> XdmResult<String> {
        match self.try_item(0)? {
            None => Ok(String::new()),
            Some(it) => match self.try_item(1)? {
                None => Ok(it.string_value()),
                Some(_) => Err(XdmError::new(
                    ErrorCode::XPTY0004,
                    "fn:string on a sequence of more than one item",
                )),
            },
        }
    }

    /// Require zero-or-one items, returning the optional item.
    pub fn zero_or_one(&self) -> XdmResult<Option<&Item>> {
        match self.items() {
            [] => Ok(None),
            [it] => Ok(Some(it)),
            _ => Err(XdmError::new(
                ErrorCode::FORG0003,
                "expected at most one item",
            )),
        }
    }

    /// Require exactly one item.
    pub fn exactly_one(&self) -> XdmResult<&Item> {
        match self.items() {
            [it] => Ok(it),
            other => Err(XdmError::new(
                ErrorCode::FORG0005,
                format!("expected exactly one item, got {}", other.len()),
            )),
        }
    }

    /// Sort into document order and remove duplicate node identities
    /// (required after `/` steps and `|` unions). Errors if the
    /// sequence contains non-node items.
    pub fn document_order_dedup(self) -> XdmResult<Sequence> {
        if let Some(Item::Atomic(a)) = self.iter().find(|it| !it.is_node()) {
            return Err(XdmError::new(
                ErrorCode::XPTY0004,
                format!("path/union result must be nodes, found {}", a.type_of()),
            ));
        }
        if self.len() < 2 {
            return Ok(self);
        }
        let mut items = self.into_items();
        items.sort_by(|a, b| match (a, b) {
            (Item::Node(a), Item::Node(b)) => a.document_order(b),
            _ => std::cmp::Ordering::Equal,
        });
        items.dedup();
        Ok(Sequence::from_items(items))
    }
}

impl From<Item> for Sequence {
    fn from(item: Item) -> Sequence {
        Sequence::one(item)
    }
}

impl From<Vec<Item>> for Sequence {
    fn from(items: Vec<Item>) -> Sequence {
        Sequence::from_items(items)
    }
}

impl FromIterator<Item> for Sequence {
    /// Zero or one item is stored inline, without building a vector.
    fn from_iter<T: IntoIterator<Item = Item>>(iter: T) -> Sequence {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else { return Sequence::empty() };
        let Some(second) = iter.next() else { return Sequence::one(first) };
        let mut items = Vec::with_capacity(iter.size_hint().0 + 2);
        items.push(first);
        items.push(second);
        items.extend(iter);
        Sequence::from_items(items)
    }
}

impl IntoIterator for Sequence {
    type Item = Item;
    type IntoIter = std::iter::Chain<std::option::IntoIter<Item>, std::vec::IntoIter<Item>>;
    /// A singleton iterates without building a vector.
    fn into_iter(self) -> Self::IntoIter {
        match self.repr {
            Repr::One(item) => Some(item).into_iter().chain(Vec::new()),
            repr => None.into_iter().chain(Sequence { repr }.into_items()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qname::QName;

    #[test]
    fn constructors_and_flattening() {
        let mut s = Sequence::one(Item::integer(1));
        s.extend(Sequence::from_items(vec![Item::integer(2), Item::integer(3)]));
        assert_eq!(s.len(), 3);
        let t = Sequence::one(Item::integer(0)).concat(s.clone());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn effective_boolean_rules() {
        assert!(!Sequence::empty().effective_boolean().unwrap());
        assert!(Sequence::one(Item::boolean(true)).effective_boolean().unwrap());
        assert!(!Sequence::one(Item::boolean(false)).effective_boolean().unwrap());
        assert!(Sequence::one(Item::string("x")).effective_boolean().unwrap());
        assert!(!Sequence::one(Item::integer(0)).effective_boolean().unwrap());
        // A node in first position → true regardless of the rest.
        let n = NodeHandle::root_element(QName::new("e"));
        let s = Sequence::from_items(vec![Item::Node(n), Item::integer(0)]);
        assert!(s.effective_boolean().unwrap());
        // Two atomics → error.
        let s = Sequence::from_items(vec![Item::integer(1), Item::integer(2)]);
        assert!(s.effective_boolean().is_err());
    }

    #[test]
    fn cardinality_helpers() {
        let empty = Sequence::empty();
        assert!(empty.zero_or_one().unwrap().is_none());
        assert!(empty.exactly_one().is_err());
        let one = Sequence::one(Item::integer(1));
        assert!(one.zero_or_one().unwrap().is_some());
        assert!(one.exactly_one().is_ok());
        let two = Sequence::from_items(vec![Item::integer(1), Item::integer(2)]);
        assert!(two.zero_or_one().is_err());
        assert!(two.exactly_one().is_err());
    }

    #[test]
    fn atomization_of_nodes() {
        let e = NodeHandle::root_element(QName::new("e"));
        e.append_child(&NodeHandle::new_text(e.arena(), "42")).unwrap();
        let s = Sequence::one(Item::Node(e));
        let atoms = s.atomized();
        assert_eq!(atoms, vec![AtomicValue::Untyped("42".into())]);
    }

    #[test]
    fn document_order_dedup_sorts_and_dedups() {
        let root = NodeHandle::root_element(QName::new("r"));
        let arena = root.arena().clone();
        let a = NodeHandle::new_element(&arena, QName::new("a"));
        let b = NodeHandle::new_element(&arena, QName::new("b"));
        root.append_child(&a).unwrap();
        root.append_child(&b).unwrap();
        let s = Sequence::from_items(vec![
            Item::Node(b.clone()),
            Item::Node(a.clone()),
            Item::Node(b.clone()),
        ]);
        let sorted = s.document_order_dedup().unwrap();
        assert_eq!(sorted.len(), 2);
        assert_eq!(sorted.items()[0], Item::Node(a));
        assert_eq!(sorted.items()[1], Item::Node(b));
    }

    #[test]
    fn document_order_dedup_rejects_atomics() {
        let s = Sequence::one(Item::integer(1));
        assert!(s.document_order_dedup().is_err());
    }

    #[test]
    fn string_value_rules() {
        assert_eq!(Sequence::empty().string_value().unwrap(), "");
        assert_eq!(Sequence::one(Item::integer(5)).string_value().unwrap(), "5");
        let two = Sequence::from_items(vec![Item::integer(1), Item::integer(2)]);
        assert!(two.string_value().is_err());
    }

    /// A counting pull source: integers 1..=n, optionally erroring
    /// after `fail_after` successful pulls.
    struct Counter {
        next: i64,
        n: i64,
        fail_after: Option<i64>,
        pulls: Rc<std::cell::Cell<usize>>,
    }

    impl ItemSource for Counter {
        fn next_item(&mut self) -> XdmResult<Option<Item>> {
            if let Some(k) = self.fail_after {
                if self.next > k {
                    return Err(XdmError::new(ErrorCode::FORG0001, "injected"));
                }
            }
            if self.next > self.n {
                return Ok(None);
            }
            self.pulls.set(self.pulls.get() + 1);
            let v = self.next;
            self.next += 1;
            Ok(Some(Item::integer(v)))
        }
    }

    fn counting(n: i64, fail_after: Option<i64>) -> (Sequence, Rc<std::cell::Cell<usize>>) {
        let pulls = Rc::new(std::cell::Cell::new(0));
        let seq = Sequence::lazy(Box::new(Counter {
            next: 1,
            n,
            fail_after,
            pulls: pulls.clone(),
        }));
        (seq, pulls)
    }

    #[test]
    fn lazy_pulls_on_demand_and_memoizes_across_clones() {
        let (s, pulls) = counting(10, None);
        assert!(s.is_lazy());
        let t = s.clone(); // Rc-shared: same stream
        assert_eq!(s.try_item(2).unwrap(), Some(Item::integer(3)));
        assert_eq!(pulls.get(), 3);
        // The clone sees the memoized prefix without re-pulling.
        assert_eq!(t.try_item(0).unwrap(), Some(Item::integer(1)));
        assert_eq!(pulls.get(), 3);
        // Probing emptiness costs nothing more.
        assert!(!t.try_is_empty().unwrap());
        assert_eq!(pulls.get(), 3);
    }

    #[test]
    fn lazy_fuses_once_exhausted() {
        let (s, pulls) = counting(2, None);
        assert_eq!(s.try_item(5).unwrap(), None);
        assert_eq!(pulls.get(), 2);
        assert!(!s.is_lazy(), "exhausted stream is fused");
        // Infallible accessors now read the memoized buffer.
        assert_eq!(s.len(), 2);
        assert_eq!(s.items()[1], Item::integer(2));
    }

    #[test]
    fn lazy_error_is_sticky_and_prefix_survives() {
        let (s, _) = counting(10, Some(2));
        assert_eq!(s.try_item(1).unwrap(), Some(Item::integer(2)));
        assert!(s.try_item(2).is_err());
        // Sticky: asking again re-raises without re-pulling.
        assert!(s.try_item(2).is_err());
        assert!(s.clone().into_forced().is_err());
        // The valid prefix is still readable.
        assert_eq!(s.try_item(0).unwrap(), Some(Item::integer(1)));
    }

    #[test]
    fn lazy_effective_boolean_pulls_at_most_two() {
        let (s, pulls) = counting(100, None);
        // Two atomics → FORG0006, decided after two pulls.
        assert!(s.effective_boolean().is_err());
        assert_eq!(pulls.get(), 2);
    }

    #[test]
    fn extend_grows_a_uniquely_owned_accumulator_in_place() {
        let mut buf = Vec::with_capacity(64);
        buf.push(Item::integer(0));
        let mut acc = Sequence::from_items(buf);
        let ptr = acc.items().as_ptr();
        for i in 1..32 {
            acc.extend(Sequence::from_items(vec![Item::integer(i), Item::integer(-i)]));
        }
        assert_eq!(acc.len(), 63);
        assert_eq!(acc.items().as_ptr(), ptr, "extend copied the accumulator");
        acc.push(Item::integer(99));
        assert_eq!(acc.items().as_ptr(), ptr, "push copied the accumulator");

        // A shared buffer is copied once, never written through.
        let shared = acc.clone();
        acc.extend(Sequence::one(Item::integer(7)));
        assert_eq!(shared.len(), 64);
        assert_eq!(acc.len(), 65);
    }

    #[test]
    fn inline_sequences_promote_on_the_second_item() {
        let mut s = Sequence::empty();
        assert_eq!((s.len(), s.known_len()), (0, Some(0)));
        s.push(Item::integer(1));
        assert_eq!(s.items(), &[Item::integer(1)]);
        assert_eq!(s.try_item(0).unwrap(), Some(Item::integer(1)));
        assert_eq!(s.try_item(1).unwrap(), None);
        let shared = s.clone();
        s.extend(Sequence::one(Item::integer(2)));
        s.extend(Sequence::empty());
        s.push(Item::integer(3));
        assert_eq!(s.items(), &[Item::integer(1), Item::integer(2), Item::integer(3)]);
        assert_eq!(shared.len(), 1, "a clone never sees later growth");
        assert_eq!(Sequence::from_items(Vec::new()), Sequence::empty());
        assert_eq!(Sequence::one(Item::integer(4)).into_iter().collect::<Vec<_>>(), vec![
            Item::integer(4)
        ]);
        assert_eq!(s.into_iter().count(), 3);
        // Appending onto the empty sequence adopts the operand.
        let mut acc = Sequence::empty();
        acc.extend(Sequence::one(Item::integer(5)));
        assert_eq!(acc, Sequence::one(Item::integer(5)));
    }

    #[test]
    fn document_order_dedup_passes_a_single_node_through() {
        let n = NodeHandle::root_element(QName::new("e"));
        let one = Sequence::one(Item::Node(n.clone()));
        assert_eq!(one.document_order_dedup().unwrap(), Sequence::one(Item::Node(n)));
        assert!(Sequence::empty().document_order_dedup().unwrap().is_empty());
    }

    #[test]
    fn into_items_and_push_take_a_sole_lazy_buffer_without_copying() {
        let (s, _) = counting(3, None);
        let forced = s.clone().into_forced().unwrap();
        drop(forced);
        let ptr = s.items().as_ptr();
        assert_eq!(s.clone().into_items().len(), 3, "shared: copied");
        let items = s.into_items();
        assert_eq!(items.as_ptr(), ptr, "sole handle: moved");

        let (mut s, _) = counting(2, None);
        s.push(Item::integer(9));
        assert!(!s.is_lazy());
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn into_forced_materializes_everything() {
        let (s, pulls) = counting(4, None);
        let forced = s.into_forced().unwrap();
        assert!(!forced.is_lazy());
        assert_eq!(forced.len(), 4);
        assert_eq!(pulls.get(), 4);
    }
}
