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
//! Run with `--nocapture` to see the measured counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xqse_repro::aldsp::demo;
use xqse_repro::xdm::sequence::{Item, Sequence};
use xqse_repro::xqse::Xqse;

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator may run while thread-locals are torn
    // down; those allocations are not ours to count.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (including reallocations) `f` makes on this
/// thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    COUNT.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (COUNT.with(Cell::get), out)
}

/// Allocations per extra iteration of `program` (its `N` replaced by
/// the loop bound) between n = 1 000 and n = 2 000, each run on a
/// fresh engine so the plan cache does not favour either size.
fn per_iteration(program: &str) -> f64 {
    let run = |n: u32| {
        let xq = Xqse::new();
        let src = program.replace('N', &n.to_string());
        let (count, out) = allocations(|| xq.run(&src));
        out.unwrap_or_else(|e| panic!("{src}: {e}"));
        count
    };
    // A first run pays the process-wide one-time costs (interned
    // names, lazily built tables) that would otherwise bias n = 1 000.
    run(1000);
    let (small, large) = (run(1000), run(2000));
    let per = (large as f64 - small as f64) / 1000.0;
    println!("{program}\n  n=1000: {small}  n=2000: {large}  per iteration: {per}");
    per
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

/// One warm Figure-3 `getProfileById` over the 200-customer fixture
/// the serving benchmark uses. Before the changes above the same call
/// made 179 670 allocations; it now makes about 108 500.
#[test]
fn warm_get_profile_by_id_stays_under_its_ceiling() {
    const CEILING: u64 = 120_000;
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
