//! XQuery Update Facility pending update lists.
//!
//! Evaluating an updating expression does not change anything; it
//! produces **update primitives** collected on a pending update list
//! (PUL). The list is checked for incompatible updates (`XUDY0017`)
//! and then applied in the order prescribed by the XUF specification.
//! In XQSE, "execution of the update statement … constitutes a
//! snapshot, and all applied changes are visible to subsequent
//! statements and expressions" (§III.C.14) — the statement engine
//! opens a PUL, evaluates the updating expression into it, and applies
//! it at statement end.

use std::collections::HashSet;

use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::node::{NodeHandle, NodeKind};
use xdm::qname::QName;

/// One update primitive.
#[derive(Debug, Clone)]
pub enum Update {
    /// `insert … into` (append).
    InsertInto {
        /// Target element/document.
        target: NodeHandle,
        /// Content nodes (already copied).
        content: Vec<NodeHandle>,
    },
    /// `insert … as first into`.
    InsertFirst {
        /// Target element/document.
        target: NodeHandle,
        /// Content nodes.
        content: Vec<NodeHandle>,
    },
    /// `insert … before`.
    InsertBefore {
        /// Sibling target.
        target: NodeHandle,
        /// Content nodes.
        content: Vec<NodeHandle>,
    },
    /// `insert … after`.
    InsertAfter {
        /// Sibling target.
        target: NodeHandle,
        /// Content nodes.
        content: Vec<NodeHandle>,
    },
    /// Attributes inserted into an element.
    InsertAttributes {
        /// Target element.
        target: NodeHandle,
        /// Attribute nodes.
        attrs: Vec<NodeHandle>,
    },
    /// `delete`.
    Delete {
        /// The node to detach.
        target: NodeHandle,
    },
    /// `replace node`.
    ReplaceNode {
        /// The node being replaced.
        target: NodeHandle,
        /// Replacement nodes.
        with: Vec<NodeHandle>,
    },
    /// `replace value of node`.
    ReplaceValue {
        /// The node whose value changes.
        target: NodeHandle,
        /// The new string value.
        value: String,
    },
    /// `rename node`.
    Rename {
        /// The element/attribute being renamed.
        target: NodeHandle,
        /// The new name.
        name: QName,
    },
}

impl Update {
    fn target(&self) -> &NodeHandle {
        match self {
            Update::InsertInto { target, .. }
            | Update::InsertFirst { target, .. }
            | Update::InsertBefore { target, .. }
            | Update::InsertAfter { target, .. }
            | Update::InsertAttributes { target, .. }
            | Update::Delete { target }
            | Update::ReplaceNode { target, .. }
            | Update::ReplaceValue { target, .. }
            | Update::Rename { target, .. } => target,
        }
    }
}

/// The primitives at most one of which may name a given target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Exclusive {
    ReplaceValue,
    ReplaceNode,
    Rename,
}

/// A pending update list.
#[derive(Debug, Clone, Default)]
pub struct Pul {
    updates: Vec<Update>,
    /// `(primitive, target)` of every exclusive primitive on the list,
    /// so the XUDY0017 check is one lookup instead of a scan. Nodes do
    /// not change identity while a list is being collected (nothing is
    /// applied until [`Pul::apply`]), so their hashes stay valid.
    exclusive: HashSet<(Exclusive, NodeHandle)>,
}

impl Pul {
    /// An empty list.
    pub fn new() -> Pul {
        Pul::default()
    }

    /// Number of primitives.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// True if no updates are pending.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// The collected primitives.
    pub fn updates(&self) -> &[Update] {
        &self.updates
    }

    /// Add a primitive, enforcing the XUDY0017-family compatibility
    /// rules: at most one `replace value of`, `replace node`, or
    /// `rename` per target node.
    pub fn add(&mut self, update: Update) -> XdmResult<()> {
        let kind = match &update {
            Update::ReplaceValue { .. } => Some(Exclusive::ReplaceValue),
            Update::ReplaceNode { .. } => Some(Exclusive::ReplaceNode),
            Update::Rename { .. } => Some(Exclusive::Rename),
            _ => None,
        };
        if let Some(kind) = kind {
            if !self.exclusive.insert((kind, update.target().clone())) {
                return Err(XdmError::new(
                    ErrorCode::XUDY0017,
                    "incompatible updates: duplicate replace/rename on the same target",
                ));
            }
        }
        self.updates.push(update);
        Ok(())
    }

    /// Merge another PUL into this one (used when an updating FLWOR
    /// accumulates updates from several iterations).
    pub fn merge(&mut self, other: Pul) -> XdmResult<()> {
        for u in other.updates {
            self.add(u)?;
        }
        Ok(())
    }

    /// Apply the list. Primitives are grouped and ordered as in XUF
    /// §3.2.2: inserts/renames/replace-values first, then replaces,
    /// then deletes — so that a delete of a target does not invalidate
    /// a sibling insert recorded earlier in the same snapshot.
    pub fn apply(self) -> XdmResult<()> {
        let mut replaces = Vec::new();
        let mut deletes = Vec::new();
        for u in &self.updates {
            match u {
                Update::InsertInto { target, content } => {
                    for c in content {
                        target.append_child(c)?;
                    }
                }
                Update::InsertFirst { target, content } => {
                    for c in content.iter().rev() {
                        target.insert_first_child(c)?;
                    }
                }
                Update::InsertBefore { target, content } => {
                    for c in content {
                        target.insert_before(c)?;
                    }
                }
                Update::InsertAfter { target, content } => {
                    for c in content.iter().rev() {
                        target.insert_after(c)?;
                    }
                }
                Update::InsertAttributes { target, attrs } => {
                    for a in attrs {
                        target.set_attribute(a)?;
                    }
                }
                Update::ReplaceValue { target, value } => {
                    target.replace_value(value)?;
                }
                Update::Rename { target, name } => {
                    target.rename(*name)?;
                }
                Update::ReplaceNode { .. } => replaces.push(u.clone()),
                Update::Delete { target } => deletes.push(target.clone()),
            }
        }
        for u in replaces {
            if let Update::ReplaceNode { target, with } = u {
                target.replace_with(&with)?;
            }
        }
        // One pass per parent, however many of its children go.
        NodeHandle::detach_all(&deletes);
        Ok(())
    }

    /// Validate target node kinds eagerly (XUTY0008-family): inserts
    /// need element/document targets, renames need named nodes, etc.
    pub fn validate_target(update: &Update) -> XdmResult<()> {
        let kind = update.target().kind();
        let ok = match update {
            Update::InsertInto { .. } | Update::InsertFirst { .. } => {
                matches!(kind, NodeKind::Element | NodeKind::Document)
            }
            Update::InsertAttributes { .. } => kind == NodeKind::Element,
            Update::InsertBefore { .. } | Update::InsertAfter { .. } => {
                update.target().parent().is_some()
            }
            Update::Delete { .. } => true,
            Update::ReplaceNode { .. } => update.target().parent().is_some(),
            Update::ReplaceValue { .. } => kind != NodeKind::Document,
            Update::Rename { .. } => {
                matches!(kind, NodeKind::Element | NodeKind::Attribute)
            }
        };
        if ok {
            Ok(())
        } else {
            Err(XdmError::new(
                ErrorCode::XUTY0008,
                format!("invalid target (kind {kind:?}) for update primitive"),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdm::qname::QName;

    fn tree() -> NodeHandle {
        let root = NodeHandle::root_element(QName::new("r"));
        let arena = root.arena().clone();
        for name in ["a", "b", "c"] {
            let e = NodeHandle::new_element(&arena, QName::new(name));
            e.append_child(&NodeHandle::new_text(&arena, name)).unwrap();
            root.append_child(&e).unwrap();
        }
        root
    }

    fn names(root: &NodeHandle) -> Vec<String> {
        root.children().iter().map(|c| c.name().unwrap().local.to_string()).collect()
    }

    #[test]
    fn insert_variants_apply_in_order() {
        let root = tree();
        let arena = root.arena().clone();
        let mut pul = Pul::new();
        let x = NodeHandle::new_element(&arena, QName::new("x"));
        let y = NodeHandle::new_element(&arena, QName::new("y"));
        let z1 = NodeHandle::new_element(&arena, QName::new("z1"));
        let z2 = NodeHandle::new_element(&arena, QName::new("z2"));
        pul.add(Update::InsertInto { target: root.clone(), content: vec![x] }).unwrap();
        pul.add(Update::InsertFirst { target: root.clone(), content: vec![y] }).unwrap();
        let b = root.children()[1].clone();
        pul.add(Update::InsertBefore { target: b.clone(), content: vec![z1] }).unwrap();
        pul.add(Update::InsertAfter { target: b, content: vec![z2] }).unwrap();
        pul.apply().unwrap();
        assert_eq!(names(&root), vec!["y", "a", "z1", "b", "z2", "c", "x"]);
    }

    #[test]
    fn delete_applies_last() {
        // Insert-before a node that is also deleted in the same
        // snapshot: the insert must land (deletes run last).
        let root = tree();
        let arena = root.arena().clone();
        let b = root.children()[1].clone();
        let mut pul = Pul::new();
        let n = NodeHandle::new_element(&arena, QName::new("n"));
        pul.add(Update::Delete { target: b.clone() }).unwrap();
        pul.add(Update::InsertBefore { target: b, content: vec![n] }).unwrap();
        pul.apply().unwrap();
        assert_eq!(names(&root), vec!["a", "n", "c"]);
    }

    #[test]
    fn replace_value_and_rename() {
        let root = tree();
        let a = root.children()[0].clone();
        let mut pul = Pul::new();
        pul.add(Update::ReplaceValue { target: a.clone(), value: "new".into() })
            .unwrap();
        pul.add(Update::Rename { target: a.clone(), name: QName::new("renamed") })
            .unwrap();
        pul.apply().unwrap();
        assert_eq!(a.string_value(), "new");
        assert_eq!(a.name().unwrap().local, "renamed");
    }

    #[test]
    fn duplicate_replace_value_is_xudy0017() {
        let root = tree();
        let a = root.children()[0].clone();
        let mut pul = Pul::new();
        pul.add(Update::ReplaceValue { target: a.clone(), value: "1".into() }).unwrap();
        let err = pul
            .add(Update::ReplaceValue { target: a, value: "2".into() })
            .unwrap_err();
        assert!(err.is(ErrorCode::XUDY0017));
    }

    #[test]
    fn duplicate_rename_is_xudy0017() {
        let root = tree();
        let a = root.children()[0].clone();
        let mut pul = Pul::new();
        pul.add(Update::Rename { target: a.clone(), name: QName::new("x") }).unwrap();
        assert!(pul
            .add(Update::Rename { target: a, name: QName::new("y") })
            .is_err());
    }

    #[test]
    fn duplicate_delete_is_fine() {
        let root = tree();
        let a = root.children()[0].clone();
        let mut pul = Pul::new();
        pul.add(Update::Delete { target: a.clone() }).unwrap();
        pul.add(Update::Delete { target: a }).unwrap();
        pul.apply().unwrap();
        assert_eq!(names(&root), vec!["b", "c"]);
    }

    #[test]
    fn replace_node_applies() {
        let root = tree();
        let arena = root.arena().clone();
        let b = root.children()[1].clone();
        let r1 = NodeHandle::new_element(&arena, QName::new("r1"));
        let r2 = NodeHandle::new_element(&arena, QName::new("r2"));
        let mut pul = Pul::new();
        pul.add(Update::ReplaceNode { target: b, with: vec![r1, r2] }).unwrap();
        pul.apply().unwrap();
        assert_eq!(names(&root), vec!["a", "r1", "r2", "c"]);
    }

    #[test]
    fn validate_targets() {
        let root = tree();
        let arena = root.arena().clone();
        let t = NodeHandle::new_text(&arena, "t");
        root.append_child(&t).unwrap();
        // Insert into a text node is invalid.
        let bad = Update::InsertInto { target: t.clone(), content: vec![] };
        assert!(Pul::validate_target(&bad).is_err());
        // Rename a text node is invalid.
        let bad = Update::Rename { target: t, name: QName::new("x") };
        assert!(Pul::validate_target(&bad).is_err());
        // Replace a parentless node is invalid.
        let detached = NodeHandle::root_element(QName::new("d"));
        let bad = Update::ReplaceNode { target: detached, with: vec![] };
        assert!(Pul::validate_target(&bad).is_err());
    }

    #[test]
    fn exclusive_checks_stay_linear_in_list_length() {
        // One replace-value per distinct target. A scan per `add` makes
        // this quadratic (about 1.8e9 target comparisons at this size,
        // tens of seconds unoptimized); the keyed check is one lookup.
        const N: usize = 60_000;
        let root = NodeHandle::root_element(QName::new("r"));
        let arena = root.arena().clone();
        let targets: Vec<NodeHandle> = (0..N)
            .map(|_| {
                let e = NodeHandle::new_element(&arena, QName::new("a"));
                root.append_child(&e).unwrap();
                e
            })
            .collect();
        let started = std::time::Instant::now();
        let mut pul = Pul::new();
        for t in &targets {
            pul.add(Update::ReplaceValue { target: t.clone(), value: "y".into() }).unwrap();
        }
        let mut other = Pul::new();
        for t in &targets {
            other.add(Update::Rename { target: t.clone(), name: QName::new("b") }).unwrap();
        }
        pul.merge(other).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(pul.len(), 2 * N);
        assert!(elapsed.as_secs() < 5, "{N} exclusive primitives took {elapsed:?}");

        // A duplicate is still XUDY0017, through `add` and `merge`.
        let last = targets[N - 1].clone();
        let err = pul
            .add(Update::ReplaceValue { target: last.clone(), value: "z".into() })
            .unwrap_err();
        assert!(err.is(ErrorCode::XUDY0017));
        let mut dup = Pul::new();
        dup.add(Update::Rename { target: last, name: QName::new("c") }).unwrap();
        assert!(pul.merge(dup).unwrap_err().is(ErrorCode::XUDY0017));
    }

    #[test]
    fn deleting_every_child_stays_linear_in_child_count() {
        // Detaching one child at a time filters the parent's whole
        // child list per delete (about 1.8e9 entry tests at this size);
        // the list's deletes filter each parent once.
        const N: usize = 60_000;
        let root = NodeHandle::root_element(QName::new("r"));
        let arena = root.arena().clone();
        let mut pul = Pul::new();
        for i in 0..N {
            let e = NodeHandle::new_element(&arena, QName::new("a"));
            root.append_child(&e).unwrap();
            if i % 2 == 0 {
                e.set_attribute(&NodeHandle::new_attribute(&arena, QName::new("k"), "v"))
                    .unwrap();
            }
            pul.add(Update::Delete { target: e }).unwrap();
        }
        let keep = NodeHandle::new_element(&arena, QName::new("keep"));
        root.append_child(&keep).unwrap();
        let attr = root.children()[0].attributes()[0].clone();
        pul.add(Update::Delete { target: attr.clone() }).unwrap();
        let started = std::time::Instant::now();
        pul.apply().unwrap();
        let elapsed = started.elapsed();
        assert_eq!(names(&root), vec!["keep"]);
        assert!(attr.parent().is_none());
        assert!(elapsed.as_secs() < 5, "deleting {N} children took {elapsed:?}");
    }

    #[test]
    fn replacing_every_grafted_child_stays_linear_in_child_count() {
        // Copy-on-write of a grafted child finds its entry through the
        // slot it was grafted at; a scan of the host's child list per
        // graft is quadratic (about 1.8e9 entry tests at this size).
        const N: usize = 60_000;
        let host = NodeHandle::root_element(QName::new("r"));
        for _ in 0..N {
            let src = NodeHandle::root_element(QName::new("a"));
            src.append_child(&NodeHandle::new_text(src.arena(), "x")).unwrap();
            host.graft_child(&src).unwrap();
        }
        let mut pul = Pul::new();
        for c in host.children() {
            assert!(c.is_graft_view());
            pul.add(Update::ReplaceValue { target: c, value: "y".into() }).unwrap();
        }
        let started = std::time::Instant::now();
        pul.apply().unwrap();
        let elapsed = started.elapsed();
        assert_eq!(host.string_value(), "y".repeat(N));
        assert!(host.children().iter().all(|c| !c.is_graft_view()));
        assert!(elapsed.as_secs() < 5, "replacing {N} grafted values took {elapsed:?}");
    }

    #[test]
    fn merge_propagates_conflicts() {
        let root = tree();
        let a = root.children()[0].clone();
        let mut p1 = Pul::new();
        p1.add(Update::ReplaceValue { target: a.clone(), value: "1".into() }).unwrap();
        let mut p2 = Pul::new();
        p2.add(Update::ReplaceValue { target: a, value: "2".into() }).unwrap();
        assert!(p1.merge(p2).is_err());
    }
}
