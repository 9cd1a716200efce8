//! The engine: registries for functions, procedures, global variables,
//! and documents; the entry points for loading modules and evaluating
//! queries.
//!
//! ALDSP binds physical sources by registering *external* functions
//! (reads, pure) and *external procedures* (create/update/delete,
//! side-effecting) here — exactly the "set of external XQSE procedures
//! … automatically provided … as a callable means to modify relational
//! source data" of §III.A.

// The optimizer surface (capabilities, counters, cache handles) must
// degrade via Results, never panic: enforced at lint level.
#![deny(clippy::unwrap_used)]

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use xdm::datetime::DateTime;
use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::node::NodeHandle;
use xdm::qname::QName;
use xdm::sequence::Sequence;

use xqparser::ast::{Expr, FunctionDecl, Module, ProcedureDecl, QueryBody};
use xqparser::parser::parse_module;

use crate::cache::Lru;
use crate::context::Env;
use crate::eval::Evaluator;
use crate::features::Features;
use crate::fold;

/// A native (Rust) implementation bound to a QName/arity: the bridge
/// to ALDSP physical sources and other host functionality.
pub type ExternalFn = Rc<dyn Fn(&mut Env, Vec<Sequence>) -> XdmResult<Sequence>>;

/// A native batch implementation for a batchable source function: one
/// argument sequence per pending request, one response sequence per
/// request, positionally. The FLWOR evaluator flushes accumulated
/// loop iterations through this in one coalesced source round trip.
pub type BatchFn = Rc<dyn Fn(&mut Env, &[Sequence]) -> XdmResult<Vec<Sequence>>>;

/// Hook installed by the XQSE statement engine so that the expression
/// evaluator can call *user-defined readonly procedures* (which
/// require statement execution).
pub type ProcRunner =
    Rc<dyn Fn(&Engine, &ProcedureDecl, Vec<Sequence>, &mut Env) -> XdmResult<Sequence>>;

/// A registered function implementation.
#[derive(Clone)]
pub enum FunctionKind {
    /// A user-declared XQuery function.
    User(Rc<FunctionDecl>),
    /// A native implementation (assumed pure unless `updating`).
    External {
        /// The implementation.
        f: ExternalFn,
        /// True if the function produces updates (XUF updating
        /// function).
        updating: bool,
    },
}

/// Value classes a pushdown-capable source column accepts, mirroring
/// the indexable column types of the relational simulator. The FLWOR
/// rewrite uses this to decide whether a comparison key can be pushed
/// without changing XQuery comparison semantics (false negatives are
/// forbidden; candidates are always re-verified).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColClass {
    /// Integral numeric column: numeric and untyped keys with an
    /// integral value are pushable.
    Integer,
    /// String column: string/untyped keys are pushable.
    String,
    /// Boolean column: boolean keys are pushable.
    Boolean,
}

/// Indexed point-select implementation: `(env, column, canonical key
/// lexical)` → matching rows as XDM elements.
pub type SourceSelectFn = Rc<dyn Fn(&mut Env, &str, &str) -> XdmResult<Sequence>>;

/// A filterable-source capability advertised for a registered arity-0
/// read function (§II.B "pushing computation to the sources"): the
/// mediator may replace `for $r in src() where $r/COL eq K return …`
/// with a call to `select`, which answers from the source's own
/// access paths (secondary indexes) instead of materializing the
/// whole table and filtering in the middle tier.
#[derive(Clone)]
pub struct SourceCapability {
    /// Columns the source can filter on, with their value class.
    pub columns: Vec<(String, ColClass)>,
    /// Indexed point-select: `(column, canonical key lexical)` →
    /// matching rows as XDM elements (same shape as the read function
    /// returns).
    pub select: SourceSelectFn,
    /// *Live* monotonic version of the underlying table (catalog
    /// metadata, never fault-injected) — caches validate against it.
    pub version: Rc<dyn Fn() -> u64>,
    /// Version of the snapshot the read function most recently
    /// *served*. Normally equals `version`; under breaker-open stale
    /// degradation it is the older snapshot version, so cache entries
    /// built from stale data are stamped stale and never revalidate.
    pub served_version: Rc<dyn Fn() -> u64>,
}

/// Optimizer observability: hit/miss/invalidation counters for the
/// join cache, the XDM materialization cache, and pushdown rewrites.
/// Cheap interior-mutability counters, snapshot via
/// [`Engine::opt_stats`], printed by `xqsh --explain`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct OptStats {
    /// Join-cache hits (memoized index reused).
    pub join_hits: u64,
    /// Join-cache misses (index built).
    pub join_misses: u64,
    /// Join-cache entries discarded as stale (version/epoch moved).
    pub join_invalidations: u64,
    /// Materialization-cache hits (XDM tree reused).
    pub mat_hits: u64,
    /// Materialization-cache misses (tree rebuilt).
    pub mat_misses: u64,
    /// Materialization-cache flushes forced by update statements.
    pub mat_invalidations: u64,
    /// FLWOR where-clauses rewritten to source point-selects.
    pub pushdown_rewrites: u64,
    /// Optimize-gated reads answered via a secondary index.
    pub indexed_selects: u64,
    /// Prepared-plan cache hits (parse + prolog load skipped).
    pub plan_hits: u64,
    /// Prepared-plan cache misses (module parsed and analyzed).
    pub plan_misses: u64,
    /// Web-service requests observed at the mediator.
    pub ws_requests: u64,
    /// Web-service requests actually issued to the source access
    /// layer (handler attempts; the rest were coalesced).
    pub ws_issued: u64,
    /// Web-service requests answered without touching the source
    /// (per-evaluation memo, response cache, or in-batch dedup).
    pub ws_coalesced: u64,
    /// Batched web-service flushes (`call_many` round trips).
    pub ws_batches: u64,
    /// Crash-recovery passes run (`DataSpace::recover`).
    pub xa_recovery_runs: u64,
    /// In-doubt transactions found across recovery passes (begun, no
    /// commit decision journaled → presumed abort).
    pub xa_in_doubt: u64,
    /// Branch commits replayed for decided-but-incomplete transactions.
    pub xa_rolled_forward: u64,
    /// Branch rollbacks performed for in-doubt transactions.
    pub xa_rolled_back: u64,
    /// Branch replays skipped because the branch had already reached
    /// the target state (idempotent replay).
    pub xa_replays_skipped: u64,
    /// Requests shed by serving-pool admission control (queue full, or
    /// queue wait consumed the deadline) — they never reached a worker.
    pub budget_shed: u64,
    /// Requests that failed with `aldsp:CANCELLED` (external
    /// cancellation observed at a cooperative check point).
    pub budget_cancelled: u64,
    /// Requests that failed with `aldsp:DEADLINE_EXCEEDED`.
    pub budget_deadline: u64,
    /// Requests that failed with `aldsp:FUEL_EXHAUSTED`.
    pub budget_fuel: u64,
    /// Requests that failed with `aldsp:MEMORY_LIMIT`.
    pub budget_memory: u64,
    /// XDM node records allocated (construction + materializing
    /// copies) since the engine was created (or the counters reset).
    pub nodes_built: u64,
    /// Immutable subtrees adopted by reference ("grafted") into a
    /// constructed element/document instead of being deep-copied.
    pub subtrees_grafted: u64,
    /// Node records the grafts above saved us from allocating (the
    /// summed deep size of every grafted subtree).
    pub deep_copy_nodes_avoided: u64,
    /// Intern-table lookups that found an existing symbol (QName
    /// parts and repeated text/attribute values share one allocation).
    pub interned_hits: u64,
    /// FLWOR tuples the clause pipeline produced, drained or streamed
    /// (each one reached the `return` clause).
    pub tuples_pulled: u64,
    /// Streams abandoned before exhaustion — an early-exit consumer
    /// (`exists`, `subsequence`, a positional predicate, a quantifier)
    /// decided its answer without draining the source.
    pub early_exits: u64,
    /// Source items an abandoned stream never materialized into
    /// tuples: work a full drain would have done and the early exit
    /// skipped.
    pub items_never_built: u64,
}

impl OptStats {
    /// Fold another counter block into this one, field by field. The
    /// serving pool uses this to aggregate each worker's per-engine
    /// counters into the single totals line `xqsh --explain` prints.
    pub fn accumulate(&mut self, other: &OptStats) {
        self.join_hits += other.join_hits;
        self.join_misses += other.join_misses;
        self.join_invalidations += other.join_invalidations;
        self.mat_hits += other.mat_hits;
        self.mat_misses += other.mat_misses;
        self.mat_invalidations += other.mat_invalidations;
        self.pushdown_rewrites += other.pushdown_rewrites;
        self.indexed_selects += other.indexed_selects;
        self.plan_hits += other.plan_hits;
        self.plan_misses += other.plan_misses;
        self.ws_requests += other.ws_requests;
        self.ws_issued += other.ws_issued;
        self.ws_coalesced += other.ws_coalesced;
        self.ws_batches += other.ws_batches;
        self.xa_recovery_runs += other.xa_recovery_runs;
        self.xa_in_doubt += other.xa_in_doubt;
        self.xa_rolled_forward += other.xa_rolled_forward;
        self.xa_rolled_back += other.xa_rolled_back;
        self.xa_replays_skipped += other.xa_replays_skipped;
        self.budget_shed += other.budget_shed;
        self.budget_cancelled += other.budget_cancelled;
        self.budget_deadline += other.budget_deadline;
        self.budget_fuel += other.budget_fuel;
        self.budget_memory += other.budget_memory;
        self.nodes_built += other.nodes_built;
        self.subtrees_grafted += other.subtrees_grafted;
        self.deep_copy_nodes_avoided += other.deep_copy_nodes_avoided;
        self.interned_hits += other.interned_hits;
        self.tuples_pulled += other.tuples_pulled;
        self.early_exits += other.early_exits;
        self.items_never_built += other.items_never_built;
    }
}

/// Live (interior-mutability) counter block behind [`OptStats`].
/// Shared with the evaluator and with host source closures (the
/// introspected read functions count materialization hits/misses and
/// indexed selects through it).
#[derive(Default)]
pub struct OptCounters {
    /// See [`OptStats::join_hits`].
    pub join_hits: Cell<u64>,
    /// See [`OptStats::join_misses`].
    pub join_misses: Cell<u64>,
    /// See [`OptStats::join_invalidations`].
    pub join_invalidations: Cell<u64>,
    /// See [`OptStats::mat_hits`].
    pub mat_hits: Cell<u64>,
    /// See [`OptStats::mat_misses`].
    pub mat_misses: Cell<u64>,
    /// See [`OptStats::mat_invalidations`].
    pub mat_invalidations: Cell<u64>,
    /// See [`OptStats::pushdown_rewrites`].
    pub pushdown_rewrites: Cell<u64>,
    /// See [`OptStats::indexed_selects`].
    pub indexed_selects: Cell<u64>,
    /// See [`OptStats::plan_hits`].
    pub plan_hits: Cell<u64>,
    /// See [`OptStats::plan_misses`].
    pub plan_misses: Cell<u64>,
    /// See [`OptStats::ws_requests`].
    pub ws_requests: Cell<u64>,
    /// See [`OptStats::ws_issued`].
    pub ws_issued: Cell<u64>,
    /// See [`OptStats::ws_coalesced`].
    pub ws_coalesced: Cell<u64>,
    /// See [`OptStats::ws_batches`].
    pub ws_batches: Cell<u64>,
    /// See [`OptStats::xa_recovery_runs`].
    pub xa_recovery_runs: Cell<u64>,
    /// See [`OptStats::xa_in_doubt`].
    pub xa_in_doubt: Cell<u64>,
    /// See [`OptStats::xa_rolled_forward`].
    pub xa_rolled_forward: Cell<u64>,
    /// See [`OptStats::xa_rolled_back`].
    pub xa_rolled_back: Cell<u64>,
    /// See [`OptStats::xa_replays_skipped`].
    pub xa_replays_skipped: Cell<u64>,
    /// See [`OptStats::budget_shed`].
    pub budget_shed: Cell<u64>,
    /// See [`OptStats::budget_cancelled`].
    pub budget_cancelled: Cell<u64>,
    /// See [`OptStats::budget_deadline`].
    pub budget_deadline: Cell<u64>,
    /// See [`OptStats::budget_fuel`].
    pub budget_fuel: Cell<u64>,
    /// See [`OptStats::budget_memory`].
    pub budget_memory: Cell<u64>,
    /// See [`OptStats::tuples_pulled`].
    pub tuples_pulled: Cell<u64>,
    /// See [`OptStats::early_exits`].
    pub early_exits: Cell<u64>,
    /// See [`OptStats::items_never_built`].
    pub items_never_built: Cell<u64>,
}

impl OptCounters {
    /// Add one to a counter cell (convenience for closure call sites).
    pub fn bump(cell: &Cell<u64>) {
        cell.set(cell.get() + 1);
    }

    /// Add `n` to a counter cell.
    pub fn add(cell: &Cell<u64>, n: u64) {
        cell.set(cell.get() + n);
    }
}

/// A query compiled once and executable many times: the parsed module,
/// its prolog already loaded into the engine, a constant-folded body,
/// and the statically resolved function/procedure bindings.
///
/// Obtained from [`Engine::prepare`]; executed with
/// [`Engine::execute_prepared`]. This is the paper-era mediation-tier
/// shape — data-service functions are compiled once at deployment and
/// served many times — applied to our `eval_query` path.
pub struct PreparedQuery {
    module: Rc<Module>,
    /// Constant-folded expression body (None for block/empty bodies,
    /// or when the plan was prepared without analysis).
    folded_body: Option<Expr>,
    /// Call sites resolved against the registries at prepare time.
    resolved: HashMap<(QName, usize), fold::ResolvedBinding>,
    /// *Initialized* global variable values computed by the prolog
    /// load, re-installed verbatim on every plan-cache hit
    /// (prolog-load-once semantics). External variables are
    /// deliberately absent: they are the ALDSP parameter mechanism
    /// and must read through to the engine's live globals map so
    /// [`Engine::set_global`] re-binds are observed by cached plans.
    globals: Vec<(QName, Sequence)>,
    /// Registry generation this plan was prepared against (the
    /// "prolog fingerprint" half of the cache key): a later external
    /// registration invalidates the plan.
    gen: u64,
}

impl PreparedQuery {
    /// The parsed module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The body this plan will evaluate: the constant-folded tree if
    /// analysis ran, otherwise the module's original expression body.
    pub fn body(&self) -> Option<&Expr> {
        self.folded_body.as_ref().or(match &self.module.body {
            QueryBody::Expr(e) => Some(e),
            _ => None,
        })
    }

    /// How many statically known call sites resolved at prepare time.
    pub fn resolved_binding_count(&self) -> usize {
        self.resolved.len()
    }
}

/// A registered procedure implementation.
#[derive(Clone)]
pub enum ProcKind {
    /// A user-declared XQSE procedure.
    User(Rc<ProcedureDecl>),
    /// A native implementation.
    External {
        /// The implementation.
        f: ExternalFn,
        /// Readonly procedures may be called from expressions.
        readonly: bool,
    },
}

/// The evaluation engine.
///
/// `Engine` is a cheap handle: cloning bumps one `Rc`, and every clone
/// shares the same registries, caches, counters, and knobs. The
/// streaming FLWOR pipeline relies on this — a lazy
/// [`Sequence`](xdm::sequence::Sequence) may outlive the evaluator
/// call that created it, so its pull source owns an `Engine` clone
/// instead of a borrow. All interior state already used
/// `Cell`/`RefCell`/`Rc` (the engine is single-threaded by design:
/// `!Send`/`!Sync`), so sharing the one `EngineInner` is behaviorally
/// identical to the previous by-value struct.
#[derive(Clone)]
pub struct Engine {
    inner: Rc<EngineInner>,
}

/// The engine state proper; see [`Engine`] for the field-by-field
/// story. Private: all access goes through the handle's methods.
struct EngineInner {
    functions: RefCell<HashMap<(QName, usize), FunctionKind>>,
    procedures: RefCell<HashMap<(QName, usize), ProcKind>>,
    globals: RefCell<HashMap<QName, Sequence>>,
    documents: RefCell<HashMap<String, NodeHandle>>,
    proc_runner: RefCell<Option<ProcRunner>>,
    /// Fixed "current" instant for fn:current-date/dateTime —
    /// deterministic by design (tests and reproducible benchmarks).
    now: Cell<DateTime>,
    /// Which optional layers are on; `Rc` so source closures see
    /// [`Engine::set_features`] live.
    features: Rc<Cell<Features>>,
    /// User calls in progress, bounded by [`MAX_CALL_DEPTH`].
    call_depth: Cell<usize>,
    /// Pushdown capabilities by arity-0 read-function name.
    capabilities: RefCell<HashMap<QName, Rc<SourceCapability>>>,
    /// Flush hooks for per-source materialization caches; invoked by
    /// [`Engine::invalidate_materialization`] when an update statement
    /// may have mutated cached trees in place.
    mat_flushers: RefCell<Vec<Rc<dyn Fn()>>>,
    /// Hooks notified by [`Engine::note_source_write`] whenever a
    /// statement may have written *some* source (procedure calls,
    /// update statements, datagraph submissions) — the cross-call
    /// companion of [`crate::Env::note_write`]. Web-service sources
    /// register an epoch bump here so their persistent read-through
    /// response caches stop serving pre-write responses on the fresh
    /// path (stale-read degradation still may).
    write_listeners: RefCell<Vec<Rc<dyn Fn()>>>,
    /// Bumped on every external function/procedure registration — the
    /// "prolog fingerprint" that invalidates cached plans prepared
    /// against an older registry.
    registry_gen: Cell<u64>,
    /// LRU cache of prepared plans, keyed by query source text.
    plan_cache: RefCell<Lru<String, Rc<PreparedQuery>>>,
    /// Batch entry points for batchable source functions (web-service
    /// operations), keyed like [`Engine::functions`].
    batchables: RefCell<HashMap<(QName, usize), BatchFn>>,
    /// Optimizer counters.
    opt: Rc<OptCounters>,
    /// Fast-path flag mirroring `budget.is_some()`: the evaluator hot
    /// loop reads this one `Cell<bool>` per step and skips all budget
    /// bookkeeping when no budget is installed, keeping the no-budget
    /// path within its 5% overhead guard.
    budget_active: Cell<bool>,
    /// Raw mirror of the `Arc` in `budget`, for the per-step hot
    /// path: reading `Option<Arc<_>>` out of a `RefCell` costs a
    /// borrow-flag round-trip per evaluation step, which the armed
    /// overhead guard can see. Null when no budget is installed;
    /// otherwise valid exactly as long as `budget` holds the owning
    /// `Arc` (both are updated together in [`Engine::set_budget`],
    /// and `Engine` is `!Sync`, so no other thread can swap them
    /// mid-read).
    budget_raw: Cell<*const crate::budget::Budget>,
    /// The budget of the request this engine is currently serving
    /// (installed per request by the serving pool or `xqsh` flags).
    budget: RefCell<Option<Arc<crate::budget::Budget>>>,
    /// Baseline snapshot of this thread's XDM construction counters,
    /// taken at engine creation (and on [`Engine::reset_opt_stats`]).
    /// [`Engine::opt_stats`] reports the delta since this baseline —
    /// valid because each engine evaluates on exactly one thread (the
    /// serving pool gives every worker a private engine).
    xdm_base: Cell<xdm::XdmStats>,
}

/// Default prepared-plan cache capacity: enough for every distinct
/// data-service function a realistic space serves, small enough that
/// eviction scans stay trivial.
const PLAN_CACHE_CAPACITY: usize = 64;

/// Deepest nesting of user function and procedure calls. Deeper
/// recursion raises the catchable `err:XQSE0007` instead of
/// overflowing the stack, which would abort the whole process.
pub const MAX_CALL_DEPTH: usize = 1000;

/// Stack size for threads that evaluate XQSE (pool workers, `xqsh`):
/// room for [`MAX_CALL_DEPTH`] levels at up to ~10 KB each optimized
/// and ~150 KB unoptimized (docs/LIMITS.md §7). Only touched pages
/// are committed.
pub const EVAL_STACK_BYTES: usize = if cfg!(debug_assertions) { 256 << 20 } else { 64 << 20 };

/// A call level entered with [`Engine::enter_call`], left on drop.
pub struct CallGuard<'a> {
    engine: &'a Engine,
}

impl Drop for CallGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        let depth = &self.engine.inner.call_depth;
        depth.set(depth.get() - 1);
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// A fresh engine with builtins only.
    pub fn new() -> Engine {
        Engine {
            inner: Rc::new(EngineInner {
                functions: RefCell::new(HashMap::new()),
                procedures: RefCell::new(HashMap::new()),
                globals: RefCell::new(HashMap::new()),
                documents: RefCell::new(HashMap::new()),
                proc_runner: RefCell::new(None),
                now: Cell::new(
                    DateTime::parse("2007-12-07T10:30:00").expect("valid literal"),
                ),
                features: Rc::new(Cell::new(Features::from_env())),
                call_depth: Cell::new(0),
                capabilities: RefCell::new(HashMap::new()),
                mat_flushers: RefCell::new(Vec::new()),
                write_listeners: RefCell::new(Vec::new()),
                registry_gen: Cell::new(0),
                plan_cache: RefCell::new(Lru::new(PLAN_CACHE_CAPACITY)),
                batchables: RefCell::new(HashMap::new()),
                opt: Rc::new(OptCounters::default()),
                budget_active: Cell::new(false),
                budget_raw: Cell::new(std::ptr::null()),
                budget: RefCell::new(None),
                xdm_base: Cell::new(xdm::xdm_stats()),
            }),
        }
    }

    /// Install (or clear) the per-request budget this engine enforces.
    /// Also mirrors the budget into the thread-local slot the
    /// source-access layers read ([`crate::budget::current_budget`]).
    /// `None` runs unbudgeted; an unlimited budget still carries
    /// cancellation.
    pub fn set_budget(&self, budget: Option<Arc<crate::budget::Budget>>) {
        crate::budget::set_current_budget(budget.clone());
        self.inner.budget_active.set(budget.is_some());
        self.inner.budget_raw.set(
            budget.as_ref().map_or(std::ptr::null(), Arc::as_ptr),
        );
        *self.inner.budget.borrow_mut() = budget;
    }

    /// The installed budget as a plain borrow — the hot-path read
    /// behind [`Engine::budget_step`] and friends.
    ///
    /// SAFETY contract for callers: use the returned borrow
    /// immediately and do not call [`Engine::set_budget`] (which
    /// drops the owning `Arc`) while holding it.
    #[inline]
    fn budget_ref(&self) -> Option<&crate::budget::Budget> {
        let p = self.inner.budget_raw.get();
        if p.is_null() {
            None
        } else {
            // SAFETY: `budget_raw` is non-null only while the Arc in
            // `self.inner.budget` (set in the same set_budget call) keeps
            // the pointee alive, and `Engine` is `!Sync`, so nothing
            // can swap the budget concurrently with this read.
            unsafe { Some(&*p) }
        }
    }

    /// The budget currently installed on this engine, if any.
    pub fn budget(&self) -> Option<Arc<crate::budget::Budget>> {
        self.inner.budget.borrow().clone()
    }

    /// Is a budget installed? One `Cell` read — the evaluator's
    /// per-step fast path.
    #[inline]
    pub fn budget_active(&self) -> bool {
        self.inner.budget_active.get()
    }

    /// Hot-loop charge: one fuel unit (plus strided deadline /
    /// cancellation checks). No-op without an installed budget.
    #[inline]
    pub fn budget_step(&self) -> XdmResult<()> {
        match self.budget_ref() {
            Some(b) => b.step(),
            None => Ok(()),
        }
    }

    /// Coarse cooperative check (cancellation + deadline, unstrided).
    /// No-op without an installed budget.
    #[inline]
    pub fn budget_check(&self) -> XdmResult<()> {
        match self.budget_ref() {
            Some(b) => b.check(),
            None => Ok(()),
        }
    }

    /// Loop-head cooperative check: cancellation every call, the
    /// deadline strided (see [`crate::budget::Budget::loop_check`]).
    /// The statement interpreters call this at `while`/`iterate`
    /// heads. No-op without an installed budget.
    #[inline]
    pub fn budget_loop_check(&self) -> XdmResult<()> {
        match self.budget_ref() {
            Some(b) => b.loop_check(),
            None => Ok(()),
        }
    }

    /// Charge `units` of XDM allocation against the installed budget
    /// (node constructors). No-op without an installed budget.
    #[inline]
    pub fn budget_charge_memory(&self, units: u64) -> XdmResult<()> {
        match self.budget_ref() {
            Some(b) => b.charge_memory(units),
            None => Ok(()),
        }
    }

    /// Register an external (native) function. Bumps the registry
    /// generation: prepared plans from before this registration stop
    /// revalidating in the plan cache.
    pub fn register_external_function(
        &self,
        name: QName,
        arity: usize,
        f: ExternalFn,
    ) {
        self.inner.functions
            .borrow_mut()
            .insert((name, arity), FunctionKind::External { f, updating: false });
        self.inner.registry_gen.set(self.inner.registry_gen.get() + 1);
    }

    /// Register an external procedure (side-effecting unless
    /// `readonly`). Bumps the registry generation like
    /// [`Engine::register_external_function`].
    pub fn register_external_procedure(
        &self,
        name: QName,
        arity: usize,
        readonly: bool,
        f: ExternalFn,
    ) {
        self.inner.procedures
            .borrow_mut()
            .insert((name, arity), ProcKind::External { f, readonly });
        self.inner.registry_gen.set(self.inner.registry_gen.get() + 1);
    }

    /// Register a batch entry point for an already-registered external
    /// function: the FLWOR evaluator flushes accumulated iterations
    /// through it in one coalesced round trip (web-service sources).
    pub fn register_batchable_function(&self, name: QName, arity: usize, f: BatchFn) {
        self.inner.batchables.borrow_mut().insert((name, arity), f);
    }

    /// The batch entry point of a function, if it is batchable.
    pub fn batchable(&self, name: &QName, arity: usize) -> Option<BatchFn> {
        self.inner.batchables.borrow().get(&(*name, arity)).cloned()
    }

    /// Bind a global variable (external variables, ALDSP parameters).
    pub fn set_global(&self, name: QName, value: Sequence) {
        self.inner.globals.borrow_mut().insert(name, value);
    }

    /// Look up a global variable.
    pub fn global(&self, name: &QName) -> Option<Sequence> {
        self.inner.globals.borrow().get(name).cloned()
    }

    /// Register a document for `fn:doc`.
    pub fn register_document(&self, uri: impl Into<String>, doc: NodeHandle) {
        self.inner.documents.borrow_mut().insert(uri.into(), doc);
    }

    /// Resolve a document registered for `fn:doc`.
    pub fn document(&self, uri: &str) -> Option<NodeHandle> {
        self.inner.documents.borrow().get(uri).cloned()
    }

    /// Install the statement-engine hook that runs user procedures.
    pub fn install_proc_runner(&self, runner: ProcRunner) {
        *self.inner.proc_runner.borrow_mut() = Some(runner);
    }

    /// The installed procedure runner, if any.
    pub fn proc_runner(&self) -> Option<ProcRunner> {
        self.inner.proc_runner.borrow().clone()
    }

    /// Fixed current dateTime.
    pub fn now(&self) -> DateTime {
        self.inner.now.get()
    }

    /// Override the engine clock (deterministic tests/benches).
    pub fn set_now(&self, now: DateTime) {
        self.inner.now.set(now);
    }

    /// The layers this engine evaluates with.
    #[inline]
    pub fn features(&self) -> Features {
        self.inner.features.get()
    }

    /// Switch layers on or off, live (source closures included).
    pub fn set_features(&self, features: Features) {
        self.inner.features.set(features);
    }

    /// The shared cell behind [`Engine::features`], for source
    /// closures (an `Engine` clone would be a reference cycle).
    pub fn features_cell(&self) -> Rc<Cell<Features>> {
        self.inner.features.clone()
    }

    /// Resize the prepared-plan cache (shrinking evicts LRU entries).
    pub fn set_plan_cache_capacity(&self, cap: usize) {
        self.inner.plan_cache.borrow_mut().set_capacity(cap);
    }

    /// Enter one user function or procedure call; `err:XQSE0007`
    /// past [`MAX_CALL_DEPTH`].
    #[inline]
    pub fn enter_call(&self) -> XdmResult<CallGuard<'_>> {
        let depth = self.inner.call_depth.get();
        if depth >= MAX_CALL_DEPTH {
            return Err(XdmError::new(
                ErrorCode::XQSE0007,
                format!("call depth limit of {MAX_CALL_DEPTH} nested calls exceeded"),
            ));
        }
        self.inner.call_depth.set(depth + 1);
        Ok(CallGuard { engine: self })
    }

    /// Advertise a pushdown capability for a registered arity-0 read
    /// function.
    pub fn register_source_capability(&self, name: QName, cap: SourceCapability) {
        self.inner.capabilities.borrow_mut().insert(name, Rc::new(cap));
    }

    /// The pushdown capability of a read function, if advertised.
    pub fn source_capability(&self, name: &QName) -> Option<Rc<SourceCapability>> {
        self.inner.capabilities.borrow().get(name).cloned()
    }

    /// Register a hook that flushes a per-source materialization
    /// cache.
    pub fn register_mat_flusher(&self, f: Rc<dyn Fn()>) {
        self.inner.mat_flushers.borrow_mut().push(f);
    }

    /// Flush every registered materialization cache and count one
    /// invalidation per flusher. Called by the statement engine after
    /// update statements, whose pending-update lists may mutate nodes
    /// that cached trees share.
    pub fn invalidate_materialization(&self) {
        for f in self.inner.mat_flushers.borrow().iter() {
            f();
        }
        let n = self.inner.mat_flushers.borrow().len() as u64;
        self.inner.opt.mat_invalidations.set(self.inner.opt.mat_invalidations.get() + n);
    }

    /// Register a hook to be notified on [`Engine::note_source_write`]
    /// (web-service read-through caches invalidate themselves here).
    pub fn register_write_listener(&self, f: Rc<dyn Fn()>) {
        self.inner.write_listeners.borrow_mut().push(f);
    }

    /// Notify every write listener that a statement may have written a
    /// source. Called by the statement engine alongside
    /// [`crate::Env::note_write`] (non-readonly procedure calls,
    /// update statements) and by the ALDSP tier after datagraph
    /// submissions.
    pub fn note_source_write(&self) {
        for f in self.inner.write_listeners.borrow().iter() {
            f();
        }
    }

    /// Record the outcome of one crash-recovery pass over the 2PC
    /// coordinator journal. The engine knows nothing of XA — these are
    /// plain totals the host (ALDSP tier) reports so `xqsh --explain`
    /// can surface recovery alongside the optimizer counters.
    pub fn note_recovery(
        &self,
        in_doubt: u64,
        rolled_forward: u64,
        rolled_back: u64,
        replays_skipped: u64,
    ) {
        let o = &self.inner.opt;
        OptCounters::bump(&o.xa_recovery_runs);
        OptCounters::add(&o.xa_in_doubt, in_doubt);
        OptCounters::add(&o.xa_rolled_forward, rolled_forward);
        OptCounters::add(&o.xa_rolled_back, rolled_back);
        OptCounters::add(&o.xa_replays_skipped, replays_skipped);
    }

    /// Snapshot of the optimizer counters.
    pub fn opt_stats(&self) -> OptStats {
        let xdm = xdm::xdm_stats().since(&self.inner.xdm_base.get());
        OptStats {
            join_hits: self.inner.opt.join_hits.get(),
            join_misses: self.inner.opt.join_misses.get(),
            join_invalidations: self.inner.opt.join_invalidations.get(),
            mat_hits: self.inner.opt.mat_hits.get(),
            mat_misses: self.inner.opt.mat_misses.get(),
            mat_invalidations: self.inner.opt.mat_invalidations.get(),
            pushdown_rewrites: self.inner.opt.pushdown_rewrites.get(),
            indexed_selects: self.inner.opt.indexed_selects.get(),
            plan_hits: self.inner.opt.plan_hits.get(),
            plan_misses: self.inner.opt.plan_misses.get(),
            ws_requests: self.inner.opt.ws_requests.get(),
            ws_issued: self.inner.opt.ws_issued.get(),
            ws_coalesced: self.inner.opt.ws_coalesced.get(),
            ws_batches: self.inner.opt.ws_batches.get(),
            xa_recovery_runs: self.inner.opt.xa_recovery_runs.get(),
            xa_in_doubt: self.inner.opt.xa_in_doubt.get(),
            xa_rolled_forward: self.inner.opt.xa_rolled_forward.get(),
            xa_rolled_back: self.inner.opt.xa_rolled_back.get(),
            xa_replays_skipped: self.inner.opt.xa_replays_skipped.get(),
            budget_shed: self.inner.opt.budget_shed.get(),
            budget_cancelled: self.inner.opt.budget_cancelled.get(),
            budget_deadline: self.inner.opt.budget_deadline.get(),
            budget_fuel: self.inner.opt.budget_fuel.get(),
            budget_memory: self.inner.opt.budget_memory.get(),
            nodes_built: xdm.nodes_built,
            subtrees_grafted: xdm.subtrees_grafted,
            deep_copy_nodes_avoided: xdm.deep_copy_nodes_avoided,
            interned_hits: xdm.interned_hits,
            tuples_pulled: self.inner.opt.tuples_pulled.get(),
            early_exits: self.inner.opt.early_exits.get(),
            items_never_built: self.inner.opt.items_never_built.get(),
        }
    }

    /// Reset the optimizer counters (benchmarks isolate phases).
    pub fn reset_opt_stats(&self) {
        let o = &self.inner.opt;
        o.join_hits.set(0);
        o.join_misses.set(0);
        o.join_invalidations.set(0);
        o.mat_hits.set(0);
        o.mat_misses.set(0);
        o.mat_invalidations.set(0);
        o.pushdown_rewrites.set(0);
        o.indexed_selects.set(0);
        o.plan_hits.set(0);
        o.plan_misses.set(0);
        o.ws_requests.set(0);
        o.ws_issued.set(0);
        o.ws_coalesced.set(0);
        o.ws_batches.set(0);
        o.xa_recovery_runs.set(0);
        o.xa_in_doubt.set(0);
        o.xa_rolled_forward.set(0);
        o.xa_rolled_back.set(0);
        o.xa_replays_skipped.set(0);
        o.budget_shed.set(0);
        o.budget_cancelled.set(0);
        o.budget_deadline.set(0);
        o.budget_fuel.set(0);
        o.budget_memory.set(0);
        o.tuples_pulled.set(0);
        o.early_exits.set(0);
        o.items_never_built.set(0);
        self.inner.xdm_base.set(xdm::xdm_stats());
    }

    /// Shared counter block for the evaluator and source closures.
    pub fn opt_counters(&self) -> Rc<OptCounters> {
        self.inner.opt.clone()
    }

    /// Look up a function by expanded name and arity.
    pub fn function(&self, name: &QName, arity: usize) -> Option<FunctionKind> {
        self.inner.functions.borrow().get(&(*name, arity)).cloned()
    }

    /// Look up a procedure by expanded name and arity.
    pub fn procedure(&self, name: &QName, arity: usize) -> Option<ProcKind> {
        self.inner.procedures.borrow().get(&(*name, arity)).cloned()
    }

    /// Parse a module and register its prolog declarations. Global
    /// variable initializers are evaluated immediately, in order.
    /// Returns the parsed module (the body is *not* executed here).
    pub fn load(&self, src: &str) -> XdmResult<Module> {
        let module = parse_module(src)?;
        self.load_prolog(&module)?;
        Ok(module)
    }

    /// Register a pre-parsed module's prolog.
    pub fn load_prolog(&self, module: &Module) -> XdmResult<()> {
        for f in &module.prolog.functions {
            let key = (f.name, f.params.len());
            if f.body.is_none() {
                // `external`: the host must have registered it
                // already; keep an existing registration.
                if self.inner.functions.borrow().contains_key(&key) {
                    continue;
                }
                return Err(XdmError::new(
                    ErrorCode::XPST0017,
                    format!(
                        "external function {}#{} has no host binding",
                        f.name,
                        f.params.len()
                    ),
                ));
            }
            self.inner.functions
                .borrow_mut()
                .insert(key, FunctionKind::User(Rc::new(f.clone())));
        }
        for p in &module.prolog.procedures {
            let key = (p.name, p.params.len());
            if p.body.is_none() {
                if self.inner.procedures.borrow().contains_key(&key) {
                    continue;
                }
                return Err(XdmError::new(
                    ErrorCode::XPST0017,
                    format!(
                        "external procedure {}#{} has no host binding",
                        p.name,
                        p.params.len()
                    ),
                ));
            }
            self.inner.procedures
                .borrow_mut()
                .insert(key, ProcKind::User(Rc::new(p.clone())));
        }
        // Global variables, in declaration order.
        for v in &module.prolog.variables {
            match &v.value {
                Some(init) => {
                    let mut env = Env::new();
                    let value = Evaluator::new(self).eval(init, &mut env)?;
                    if let Some(ty) = &v.ty {
                        ty.check(&value, &format!("declare variable ${}", v.name))?;
                    }
                    self.inner.globals.borrow_mut().insert(v.name, value);
                }
                None => {
                    if !self.inner.globals.borrow().contains_key(&v.name) {
                        return Err(XdmError::new(
                            ErrorCode::XPST0008,
                            format!("external variable ${} is unbound", v.name),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Prepare a query: parse, load the prolog, constant-fold the body
    /// and resolve its static call sites — once — and return a plan
    /// executable many times via [`Engine::execute_prepared`].
    ///
    /// With the plan cache enabled ([`Features::batch_layer`]),
    /// plans are memoized by source text and revalidated against the
    /// registry generation ("prolog fingerprint"); a hit skips the
    /// parse and the prolog load entirely, re-installing the plan's
    /// own prolog declarations and captured *initialized* global
    /// values so the plan always executes against the prolog it was
    /// compiled with. External variables (ALDSP parameters) are not
    /// captured: they read through to the live globals map, so
    /// [`Engine::set_global`] re-binds between executions are
    /// honored without invalidating the plan. With
    /// the cache disabled this degenerates to parse-per-call (the
    /// PR 2 behavior) and skips the analysis pass.
    pub fn prepare(&self, src: &str) -> XdmResult<Rc<PreparedQuery>> {
        if !self.features().batch_layer() {
            return self.prepare_uncached(src, false);
        }
        let gen = self.inner.registry_gen.get();
        let hit = self.inner.plan_cache.borrow_mut().get(src).cloned();
        if let Some(pq) = hit {
            if pq.gen == gen {
                OptCounters::bump(&self.inner.opt.plan_hits);
                self.reinstall_prolog(&pq);
                return Ok(pq);
            }
        }
        OptCounters::bump(&self.inner.opt.plan_misses);
        let pq = self.prepare_uncached(src, true)?;
        self.inner.plan_cache.borrow_mut().insert(src.to_string(), pq.clone());
        Ok(pq)
    }

    fn prepare_uncached(&self, src: &str, analyze: bool) -> XdmResult<Rc<PreparedQuery>> {
        let module = parse_module(src)?;
        self.load_prolog(&module)?;
        let mut globals = Vec::new();
        for v in &module.prolog.variables {
            // Capture only *initialized* declarations. External
            // variables are the ALDSP parameter mechanism
            // ([`Engine::set_global`]); freezing their current value
            // into the plan would clobber a re-bind between
            // executions, so they read through to the live globals
            // map instead.
            if v.value.is_none() {
                continue;
            }
            if let Some(val) = self.inner.globals.borrow().get(&v.name) {
                globals.push((v.name, val.clone()));
            }
        }
        let (folded_body, resolved) = if analyze {
            match &module.body {
                QueryBody::Expr(e) => {
                    let folded = fold::fold_expr(self, e);
                    let resolved = fold::resolve_bindings(self, &folded);
                    (Some(folded), resolved)
                }
                _ => (None, HashMap::new()),
            }
        } else {
            (None, HashMap::new())
        };
        Ok(Rc::new(PreparedQuery {
            module: Rc::new(module),
            folded_body,
            resolved,
            globals,
            gen: self.inner.registry_gen.get(),
        }))
    }

    /// Re-install a cached plan's own prolog declarations and global
    /// values (cheap map inserts, no parsing, no initializer
    /// re-evaluation) so a plan-cache hit executes against the prolog
    /// it was compiled with even if another module shadowed it since.
    fn reinstall_prolog(&self, pq: &PreparedQuery) {
        for f in &pq.module.prolog.functions {
            if f.body.is_some() {
                self.inner.functions.borrow_mut().insert(
                    (f.name, f.params.len()),
                    FunctionKind::User(Rc::new(f.clone())),
                );
            }
        }
        for p in &pq.module.prolog.procedures {
            if p.body.is_some() {
                self.inner.procedures.borrow_mut().insert(
                    (p.name, p.params.len()),
                    ProcKind::User(Rc::new(p.clone())),
                );
            }
        }
        for (name, val) in &pq.globals {
            self.inner.globals.borrow_mut().insert(*name, val.clone());
        }
    }

    /// Execute a prepared plan in a fresh dynamic context.
    pub fn execute_prepared(&self, pq: &PreparedQuery) -> XdmResult<Sequence> {
        let mut env = Env::new();
        self.execute_prepared_in(pq, &mut env)
    }

    /// Execute a prepared plan in a caller-provided context.
    pub fn execute_prepared_in(
        &self,
        pq: &PreparedQuery,
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        match (&pq.folded_body, &pq.module.body) {
            (Some(e), _) => Evaluator::new(self).eval(e, env),
            (None, QueryBody::Expr(e)) => Evaluator::new(self).eval(e, env),
            (None, QueryBody::None) => Ok(Sequence::empty()),
            (None, QueryBody::Block(_)) => Err(XdmError::new(
                ErrorCode::XPST0003,
                "query body is an XQSE block; use the xqse statement engine",
            )),
        }
    }

    /// Load a module and evaluate its query body, which must be an
    /// expression (use the `xqse` crate for block bodies). With the
    /// plan cache enabled this routes through [`Engine::prepare`], so
    /// repeated evaluation of the same source text parses once.
    pub fn eval_query(&self, src: &str) -> XdmResult<Sequence> {
        if self.features().batch_layer() {
            let pq = self.prepare(src)?;
            return self.execute_prepared(&pq);
        }
        let module = self.load(src)?;
        match &module.body {
            QueryBody::Expr(e) => {
                let mut env = Env::new();
                Evaluator::new(self).eval(e, &mut env)
            }
            QueryBody::None => Ok(Sequence::empty()),
            QueryBody::Block(_) => Err(XdmError::new(
                ErrorCode::XPST0003,
                "query body is an XQSE block; use the xqse statement engine",
            )),
        }
    }

    /// Evaluate a standalone expression string with extra namespace
    /// bindings, in a fresh context.
    pub fn eval_expr_str(
        &self,
        src: &str,
        extra_ns: &[(&str, &str)],
    ) -> XdmResult<Sequence> {
        let expr = xqparser::parser::parse_expr(src, extra_ns)?;
        let mut env = Env::new();
        Evaluator::new(self).eval(&expr, &mut env)
    }

    /// Evaluate a parsed expression in a given context.
    pub fn eval_in(&self, expr: &xqparser::ast::Expr, env: &mut Env) -> XdmResult<Sequence> {
        Evaluator::new(self).eval(expr, env)
    }

    /// Call a registered function or readonly procedure by name.
    pub fn call(
        &self,
        name: &QName,
        args: Vec<Sequence>,
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        Evaluator::new(self).call_function(name, args, env)
    }

    /// Like [`Engine::eval_query`], but the top-level result may be
    /// **lazy**: when the body is a FLWOR, the
    /// returned sequence is a live pull stream, and the caller drains
    /// it through the fallible API (`Sequence::try_item`) — the
    /// streaming serializers in `xqsh` and the serving pool do exactly
    /// that, emitting output while tuples are still being produced.
    /// Mid-stream errors (including budget expiry charged per pulled
    /// tuple) surface from the drain, so callers of this entry MUST
    /// consume the result fallibly. Every other body degrades to the
    /// eager [`Engine::eval_query`] result.
    pub fn eval_query_lazy(&self, src: &str) -> XdmResult<Sequence> {
        if self.features().batch_layer() {
            let pq = self.prepare(src)?;
            let mut env = Env::new();
            return self.execute_prepared_lazy_in(&pq, &mut env);
        }
        let module = self.load(src)?;
        match &module.body {
            QueryBody::Expr(e) => {
                let mut env = Env::new();
                Evaluator::new(self).eval_lazy(e, &mut env)
            }
            QueryBody::None => Ok(Sequence::empty()),
            QueryBody::Block(_) => Err(XdmError::new(
                ErrorCode::XPST0003,
                "query body is an XQSE block; use the xqse statement engine",
            )),
        }
    }

    /// [`Engine::execute_prepared_in`] with a possibly-lazy result —
    /// see [`Engine::eval_query_lazy`] for the caller contract.
    pub fn execute_prepared_lazy_in(
        &self,
        pq: &PreparedQuery,
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        match (&pq.folded_body, &pq.module.body) {
            (Some(e), _) => Evaluator::new(self).eval_lazy(e, env),
            (None, QueryBody::Expr(e)) => Evaluator::new(self).eval_lazy(e, env),
            (None, QueryBody::None) => Ok(Sequence::empty()),
            (None, QueryBody::Block(_)) => Err(XdmError::new(
                ErrorCode::XPST0003,
                "query body is an XQSE block; use the xqse statement engine",
            )),
        }
    }
}
