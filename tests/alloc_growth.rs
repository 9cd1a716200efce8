//! Deterministic growth guard for the evaluator's per-step cost.
//!
//! Wall-clock assertions are noisy on shared hardware; heap
//! allocations are not. This binary installs a counting global
//! allocator that counts only on threads that armed it, runs each
//! program at two sizes, and asserts on the *difference* per extra
//! iteration — parse, prepare and result serialization cost the same
//! at both sizes (the program texts have the same length), so they
//! cancel and only the loop body is left.
//!
//! Allocations per iteration before inline 0/1-item sequences,
//! Vec-free singleton atomization and the flat variable stack:
//! `while` 28, `iterate` 19, FLWOR `let`/`where` 22.5, `fn:sum(for …)`
//! 15. Each is now at most 1.
//!
//! The allocator also sums the bytes requested, which catches
//! accumulate-by-copy: a buffer re-copied on every append costs a
//! handful of allocations per item but a number of bytes per item
//! that grows with n.
//!
//! Run with `--nocapture` to see the measured counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xqse_repro::aldsp::demo;
use xqse_repro::xdm::qname::QName;
use xqse_repro::xdm::sequence::{Item, Sequence};
use xqse_repro::xdm::Symbol;
use xqse_repro::xqse::Xqse;

// Names are `Copy` handles on interned strings. A refcounted name
// would make every copy and drop of one update a counter that all
// pool workers share; this stops compiling if one comes back.
const _: () = {
    const fn assert_copy<T: Copy>() {}
    assert_copy::<Symbol>();
    assert_copy::<QName>();
};

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    // `try_with`: the allocator may run while thread-locals are torn
    // down; those allocations are not ours to count.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = COUNT.try_with(|c| c.set(c.get() + 1));
            let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (including reallocations) `f` makes on this
/// thread, and the bytes they request.
fn measured<R>(f: impl FnOnce() -> R) -> ((u64, u64), R) {
    COUNT.with(|c| c.set(0));
    BYTES.with(|b| b.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    ((COUNT.with(Cell::get), BYTES.with(Cell::get)), out)
}

/// Heap allocations (including reallocations) `f` makes on this
/// thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let ((count, _), out) = measured(f);
    (count, out)
}

/// Allocations and bytes of one run of `program` with its `N`
/// replaced by `n`, on a fresh engine so the plan cache does not
/// favour either size.
fn run_at(program: &str, n: u32) -> (u64, u64) {
    let xq = Xqse::new();
    let src = program.replace('N', &n.to_string());
    let (counts, out) = measured(|| xq.run(&src));
    out.unwrap_or_else(|e| panic!("{src}: {e}"));
    counts
}

/// Allocations per extra iteration of `program` (its `N` replaced by
/// the loop bound) between n = 1 000 and n = 2 000.
fn per_iteration(program: &str) -> f64 {
    // A first run pays the process-wide one-time costs (interned
    // names, lazily built tables) that would otherwise bias n = 1 000.
    run_at(program, 1000);
    let (small, large) = (run_at(program, 1000).0, run_at(program, 2000).0);
    let per = (large as f64 - small as f64) / 1000.0;
    println!("{program}\n  n=1000: {small}  n=2000: {large}  per iteration: {per}");
    per
}

/// Bytes requested per item at n = 2 000 over bytes per item at
/// n = 1 000: about 1 (or below, as fixed costs spread) when the
/// program's memory traffic is linear, about 2 when it is quadratic.
fn bytes_per_item_growth(program: &str) -> f64 {
    run_at(program, 1000);
    let (small, large) = (run_at(program, 1000).1, run_at(program, 2000).1);
    let growth = (large as f64 / 2000.0) / (small as f64 / 1000.0);
    println!("{program}\n  bytes n=1000: {small}  n=2000: {large}  per-item growth: {growth:.3}");
    growth
}

#[test]
fn while_loop_does_not_allocate_per_iteration() {
    let per = per_iteration(
        "{ declare $i := 0; declare $s := 0; \
         while ($i lt N) { set $i := $i + 1; set $s := $s + ($i * 7) mod 13; } \
         return value $s; }",
    );
    assert!(per <= 1.0, "while: {per} allocations per iteration");
}

#[test]
fn iterate_loop_does_not_allocate_per_iteration() {
    let per = per_iteration(
        "{ declare $s := 0; \
         iterate $v over (1 to N) { set $s := $s + ($v * 7) mod 13; } \
         return value $s; }",
    );
    assert!(per <= 1.0, "iterate: {per} allocations per iteration");
}

#[test]
fn flwor_let_where_does_not_allocate_per_tuple() {
    let per =
        per_iteration("fn:sum(for $i in 1 to N let $k := ($i * 7) mod 13 where $k lt 6 return $k)");
    assert!(per <= 1.0, "FLWOR let/where: {per} allocations per tuple");
}

#[test]
fn sum_over_for_does_not_allocate_per_tuple() {
    let per = per_iteration("fn:sum(for $i in 1 to N return ($i * 7) mod 13)");
    assert!(per <= 1.0, "fn:sum(for …): {per} allocations per tuple");
}

/// A child step from one node walks the child list once and needs no
/// document-order sort. Before, the sort compared root paths (each
/// listing every sibling), about 6 000 allocations per child at these
/// sizes: quadratic growth.
#[test]
fn child_step_from_one_node_grows_linearly() {
    let per = per_iteration(
        "fn:count(<sorted>{for $i in 1 to N let $k := ($i * 7) mod 1201 \
         order by $k descending return <v>{$k}</v>}</sorted>/v)",
    );
    assert!(per <= 16.0, "child step: {per} allocations per child");
}

/// A child step without predicates pushes its match straight into the
/// result (it built a one-element vector first: 1 per tuple).
///
/// The per-tuple cases below test their expression in a `where`
/// clause, so the FLWOR collects no result whose amortized growth
/// would blur an exact count.
#[test]
fn child_step_does_not_allocate_per_tuple() {
    let per = per_iteration(
        "let $r := <ORDER><OID>7</OID><CID>3</CID></ORDER> \
         return fn:count(for $i in 1 to N where $r/OID return ())",
    );
    assert!(per <= 0.0, "$r/OID: {per} allocations per tuple");
}

/// `fn:data` of one text-only element shares the element's text and
/// builds no vector; what is left is the call's argument vector (6 per
/// tuple before).
#[test]
fn data_of_a_field_allocates_once_per_tuple() {
    let per = per_iteration(
        "let $r := <ORDER><OID>7</OID><CID>3</CID></ORDER> \
         return fn:count(for $i in 1 to N where fn:data($r/OID) return ())",
    );
    assert!(per <= 1.0, "fn:data($r/OID): {per} allocations per tuple");
}

/// Tagging one field, as Figure 3 does for every column: the arena
/// and its node records are sized from the constructor, the one child
/// sits inline in its element, and the text node shares the field's
/// buffer. What is left is the arena, its record vector and the call's
/// argument vector (11 per tuple before, then 4 with a child vector).
#[test]
fn tagging_a_field_stays_under_four_allocations_per_tuple() {
    let per = per_iteration(
        "let $r := <ORDER><OID>7</OID><CID>3</CID></ORDER> \
         return fn:count(for $i in 1 to N where <OID>{fn:data($r/OID)}</OID> return ())",
    );
    assert!(per <= 3.0, "<OID>{{fn:data($r/OID)}}</OID>: {per} allocations per tuple");
}

/// Adjacent atomics in element content become one text node built in
/// one buffer (each join used to re-copy the text so far).
#[test]
fn atomic_text_join_is_linear_in_bytes() {
    let growth = bytes_per_item_growth("fn:string-length(fn:string(<a>{1 to N}</a>))");
    assert!(growth <= 1.25, "<a>{{1 to N}}</a>: bytes per item grew {growth:.3}x");
}

/// Adjacent text nodes in element content merge into one text node
/// built in one buffer (each merge used to re-copy the text so far).
#[test]
fn text_node_merge_is_linear_in_bytes() {
    let growth = bytes_per_item_growth(
        "fn:string-length(fn:string(<a>{for $i in 1 to N return text{\"x\"}}</a>))",
    );
    assert!(growth <= 1.25, "merged text nodes: bytes per item grew {growth:.3}x");
}

/// Text after an element child: appending it looks at the last child
/// entry only (it cloned the whole child list each time).
#[test]
fn text_after_element_append_is_linear_in_bytes() {
    let growth = bytes_per_item_growth(
        "fn:count(<a>{for $i in 1 to N return (text{\"x\"}, <b/>)}</a>/b)",
    );
    assert!(growth <= 1.25, "mixed text/element: bytes per item grew {growth:.3}x");
}

/// One warm Figure-3 `getProfileById` over the 200-customer fixture
/// the serving benchmark uses. It made 179 670 allocations before the
/// scalar-path changes above, 108 456 before navigation shared the
/// keyed select cache and untyped values shared their text, and
/// 34 869 before one-child elements kept their child inline, the
/// constructor attached its own children without checks and each
/// credit-rating call built its request key once; it now makes about
/// 23 700.
#[test]
fn warm_get_profile_by_id_stays_under_its_ceiling() {
    const CEILING: u64 = 26_000;
    let d = demo::build(200, 3, 2).unwrap();
    let get = || {
        let g = d
            .space
            .get(
                "CustomerProfile",
                "getProfileById",
                vec![Sequence::one(Item::string("17"))],
            )
            .unwrap();
        assert_eq!(g.len(), 1);
    };
    get();
    let (count, ()) = allocations(get);
    println!("warm getProfileById: {count} allocations");
    assert!(
        count <= CEILING,
        "warm getProfileById made {count} allocations (ceiling {CEILING})"
    );
}
