//! The FLWOR clause pipeline — the engine's one FLWOR evaluator.
//!
//! [`Pipeline`] walks a clause chain like an odometer: each `for`
//! clause holds its items and a cursor, and the next tuple comes from
//! advancing the innermost cursor that still has items and refilling
//! the clauses below it. A tuple is the set of bindings in scope on the
//! [`Env`] the pipeline runs on; its consumer evaluates `return`.
//!
//! `Evaluator::eval` *drains* the pipeline over the caller's own `Env`
//! ([`drain`]): no fork, so join/web-service caches and an open
//! pending-update list are shared with the caller. Only a stream that
//! leaves `Evaluator::eval_lazy` ([`FlworStream`]) owns an
//! [`Env::fork_for_stream`] snapshot, an [`Engine`] handle and a clone
//! of the AST, and is pulled item by item after its creator returned.
//!
//! The declarative rewrites are per-clause operators ([`Op`]), lowered
//! once per evaluation: indexed point-select (pushdown), hash-join
//! probe, batched web-service call, and `order by`. The last two are
//! *barriers*: on first entry they drain the clauses above them,
//! buffer each upstream tuple's bindings once, then replay them.
//!
//! Every tuple produced charges one fuel/deadline step
//! ([`Engine::budget_step`]) and bumps `tuples_pulled`, on top of the
//! steps its clause and return expressions charge.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use xdm::atomic::AtomicValue;
use xdm::error::XdmResult;
use xdm::qname::QName;
use xdm::sequence::{Item, ItemSource, Sequence};
use xqparser::ast::{Expr, FlworClause, OrderSpec};

use crate::context::Env;
use crate::engine::{BatchFn, Engine, OptCounters};
use crate::eval::{
    expr_refs_any_var, opt_one_atomic, order_by_sort, Evaluator, JoinProbe, Pushdown,
};

/// The bindings of one upstream tuple, buffered by a barrier.
type Tuple = Vec<(QName, Sequence)>;

/// How a clause runs. Only `for` clauses are ever rewritten; `let`,
/// `where` and `order by` run as [`Op::Plain`], and `order by` is a
/// barrier by its kind alone.
enum Op {
    Plain,
    /// `for $v in src() where $v/COL eq K` over a capability-bearing
    /// source: one indexed point-select per tuple whose key is a
    /// pushable singleton. Other tuples fall back to the hash-join
    /// probe when the shape also qualifies for it, else to a scan
    /// filtered by the `where`. `fired` makes the rewrite count once
    /// per evaluation.
    PointSelect { pd: Box<Pushdown>, join: Option<JoinProbe>, fired: bool },
    /// `for $v in E where P($v) eq K` with `E` closed: probe a hash
    /// index over `E`, fetched once per evaluation.
    HashProbe(JoinProbe),
    /// `for $v in ws(R)` over a batchable source (barrier): every
    /// upstream tuple's request goes out in one coalesced flight, and a
    /// closed request is issued once for all tuples.
    Batch(BatchFn),
}

/// Per-clause iteration state.
enum Slot {
    Idle,
    /// A `for` cursor. `covers_where` is set when a rewrite already
    /// applied the following `where` to these items.
    For { seq: Sequence, idx: usize, covers_where: bool },
    /// A barrier replaying its buffered tuples.
    Replay { tuples: Vec<Tuple>, idx: usize },
}

/// The pull state of one FLWOR evaluation. It never holds the AST:
/// each step borrows the clauses and the `Env` it runs on.
struct Pipeline {
    ops: Vec<Op>,
    slots: Vec<Slot>,
    /// Number of clauses currently entered.
    depth: usize,
    /// Clauses below the most recent barrier are spent and own no
    /// scope; each entered clause at or above it owns exactly one,
    /// pushed on entry and popped on backtrack.
    floor: usize,
    started: bool,
    /// Evaluate `for` sources and `where` conditions through
    /// `eval_lazy` (an escaping stream) rather than `eval` (a drain).
    lazy: bool,
}

impl Pipeline {
    fn new(ev: &Evaluator<'_>, clauses: &[FlworClause], lazy: bool) -> Pipeline {
        Pipeline {
            ops: lower(ev, clauses),
            slots: clauses.iter().map(|_| Slot::Idle).collect(),
            depth: 0,
            floor: 0,
            started: false,
            lazy,
        }
    }

    /// Advance to the next tuple. On `Ok(true)` its bindings are in
    /// scope on `env`; `Ok(false)` means the pipeline is exhausted.
    fn next_tuple(
        &mut self,
        ev: &Evaluator<'_>,
        clauses: &[FlworClause],
        env: &mut Env,
    ) -> XdmResult<bool> {
        let have = if self.started {
            match self.backtrack(clauses, env)? {
                Some(j) => self.fill(ev, clauses, env, j, clauses.len())?,
                None => false,
            }
        } else {
            self.started = true;
            self.fill(ev, clauses, env, 0, clauses.len())?
        };
        if have {
            // One fuel/deadline step per tuple, so early-exit consumers
            // are charged for exactly the work they caused.
            ev.engine().budget_step()?;
            OptCounters::bump(&ev.engine().opt_counters().tuples_pulled);
        }
        Ok(have)
    }

    /// Enter clauses `from..to`. Returns false when the pipeline is
    /// exhausted (some outer cursor ran dry while refilling).
    fn fill(
        &mut self,
        ev: &Evaluator<'_>,
        clauses: &[FlworClause],
        env: &mut Env,
        from: usize,
        to: usize,
    ) -> XdmResult<bool> {
        let mut i = from;
        while i < to {
            if self.enter(ev, clauses, env, i)? {
                i += 1;
            } else {
                match self.backtrack(clauses, env)? {
                    Some(j) => i = j,
                    None => return Ok(false),
                }
            }
        }
        Ok(true)
    }

    /// Enter clause `i` against the current bindings. Returns false on
    /// a dead end: no items for a `for`, or a false `where`.
    fn enter(
        &mut self,
        ev: &Evaluator<'_>,
        clauses: &[FlworClause],
        env: &mut Env,
        i: usize,
    ) -> XdmResult<bool> {
        let lazy = self.lazy;
        match &clauses[i] {
            FlworClause::For { var, source, .. } => {
                if let (Op::Batch(f), Expr::FunctionCall { args, .. }) = (&self.ops[i], source)
                {
                    if let [request] = args.as_slice() {
                        let f = f.clone();
                        return self.enter_batch(ev, clauses, env, i, &f, var, request);
                    }
                }
                let (seq, covers_where) = match &mut self.ops[i] {
                    Op::Plain | Op::Batch(_) => (sub_eval(ev, source, env, lazy)?, false),
                    Op::HashProbe(join) => (ev.join_probe(join, source, env)?, true),
                    Op::PointSelect { pd, join, fired } => {
                        match ev.point_select(pd, fired, env)? {
                            Some(rows) => (rows, true),
                            None => match join {
                                Some(join) => (ev.join_probe(join, source, env)?, true),
                                None => (sub_eval(ev, source, env, lazy)?, false),
                            },
                        }
                    }
                };
                let Some(item) = seq.try_item(0)? else { return Ok(false) };
                env.push_scope();
                bind_for(env, &clauses[i], item, 1);
                self.slots[i] = Slot::For { seq, idx: 0, covers_where };
                self.depth = i + 1;
                Ok(true)
            }
            FlworClause::Let { var, ty, value } => {
                // Let values are forced: a bound variable can flow into
                // arbitrary downstream expressions, and only the
                // pipeline's own choke points may hold un-forced lazy
                // sequences (see DESIGN §11).
                let v = ev.eval(value, env)?;
                if let Some(ty) = ty {
                    ty.check(&v, &format!("let ${var}"))?;
                }
                env.push_scope();
                env.bind(*var, v);
                self.depth = i + 1;
                Ok(true)
            }
            FlworClause::Where(cond) => {
                let covered = i > 0
                    && matches!(self.slots[i - 1], Slot::For { covers_where: true, .. });
                // `effective_boolean` on a lazy condition pulls at most
                // two items — a nested stream short-circuits.
                let keep = covered || sub_eval(ev, cond, env, lazy)?.effective_boolean()?;
                env.push_scope();
                self.depth = i + 1;
                Ok(keep)
            }
            FlworClause::OrderBy(specs) => self.enter_sort(ev, clauses, env, i, specs),
        }
    }

    /// Pop entered clauses innermost-first until some cursor can
    /// advance; rebind it and return the clause index to resume
    /// filling from. `None` when everything above the floor is spent.
    fn backtrack(
        &mut self,
        clauses: &[FlworClause],
        env: &mut Env,
    ) -> XdmResult<Option<usize>> {
        while self.depth > self.floor {
            let j = self.depth - 1;
            env.pop_scope();
            self.depth = j;
            match &mut self.slots[j] {
                Slot::For { seq, idx, .. } => {
                    if let Some(item) = seq.try_item(*idx + 1)? {
                        *idx += 1;
                        let position = *idx + 1;
                        env.push_scope();
                        bind_for(env, &clauses[j], item, position);
                        self.depth = j + 1;
                        return Ok(Some(j + 1));
                    }
                }
                Slot::Replay { tuples, idx } => {
                    *idx += 1;
                    if let Some(tuple) = tuples.get(*idx) {
                        env.push_scope();
                        bind_tuple(env, tuple);
                        self.depth = j + 1;
                        return Ok(Some(j + 1));
                    }
                }
                Slot::Idle => continue,
            }
            self.slots[j] = Slot::Idle;
        }
        Ok(None)
    }

    /// The barrier helper: with clauses `floor..b` entered for the
    /// first upstream tuple, run `per_tuple` on each upstream tuple in
    /// turn while its bindings are live, and buffer the bindings
    /// alongside. Leaves every upstream clause spent.
    fn buffer_upstream<T>(
        &mut self,
        ev: &Evaluator<'_>,
        clauses: &[FlworClause],
        env: &mut Env,
        b: usize,
        mut per_tuple: impl FnMut(&mut Env) -> XdmResult<T>,
    ) -> XdmResult<Vec<(Tuple, T)>> {
        let names = bound_names(&clauses[..b]);
        let mut rows = Vec::new();
        loop {
            let tuple = names
                .iter()
                .map(|n| Ok((*n, env.lookup(n)?)))
                .collect::<XdmResult<Tuple>>()?;
            rows.push((tuple, per_tuple(env)?));
            let more = match self.backtrack(clauses, env)? {
                Some(j) => self.fill(ev, clauses, env, j, b)?,
                None => false,
            };
            if !more {
                break;
            }
        }
        self.floor = b;
        self.depth = b;
        Ok(rows)
    }

    /// Start replaying a barrier's tuples at clause `b`.
    fn replay(&mut self, env: &mut Env, b: usize, tuples: Vec<Tuple>) -> bool {
        let Some(first) = tuples.first() else { return false };
        env.push_scope();
        bind_tuple(env, first);
        self.slots[b] = Slot::Replay { tuples, idx: 0 };
        self.depth = b + 1;
        true
    }

    /// `order by`: buffer every upstream tuple with its sort keys,
    /// stable-sort, replay.
    fn enter_sort(
        &mut self,
        ev: &Evaluator<'_>,
        clauses: &[FlworClause],
        env: &mut Env,
        b: usize,
        specs: &[OrderSpec],
    ) -> XdmResult<bool> {
        let keyed = self.buffer_upstream(ev, clauses, env, b, |env| {
            specs
                .iter()
                .map(|spec| opt_one_atomic(&ev.eval(&spec.key, env)?, "order by"))
                .collect::<XdmResult<Vec<Option<AtomicValue>>>>()
        })?;
        let sorted = order_by_sort(keyed.into_iter().map(|(t, k)| (k, t)).collect(), specs)?;
        Ok(self.replay(env, b, sorted))
    }

    /// Batched source access: each upstream tuple's request is
    /// evaluated while its bindings are live, all of them go out in
    /// tuple order in one flight, and each tuple replays once per item
    /// of its response. A closed request is issued once for all tuples.
    /// Since every request expression runs before the first call, one
    /// that raises skips the earlier tuples' calls: same value and
    /// error as a call per tuple, fewer handler side effects and ws_*
    /// counts (DESIGN §11).
    #[allow(clippy::too_many_arguments)]
    fn enter_batch(
        &mut self,
        ev: &Evaluator<'_>,
        clauses: &[FlworClause],
        env: &mut Env,
        b: usize,
        batch: &BatchFn,
        var: &QName,
        request: &Expr,
    ) -> XdmResult<bool> {
        let closed = !expr_refs_any_var(request);
        let mut rows = self.buffer_upstream(ev, clauses, env, b, |env| {
            if closed {
                Ok(None)
            } else {
                ev.eval(request, env).map(Some)
            }
        })?;
        if rows.is_empty() {
            return Ok(false);
        }
        let requests: Vec<Sequence> = if closed {
            vec![ev.eval(request, env)?]
        } else {
            rows.iter_mut().filter_map(|(_, r)| r.take()).collect()
        };
        let responses = batch(env, &requests)?;
        let mut tuples = Vec::new();
        for (k, (tuple, _)) in rows.iter().enumerate() {
            let Some(resp) = responses.get(if closed { 0 } else { k }) else { break };
            for item in resp.iter() {
                let mut t = tuple.clone();
                t.push((*var, Sequence::one(item.clone())));
                tuples.push(t);
            }
        }
        Ok(self.replay(env, b, tuples))
    }
}

/// Pick each `for` clause's operator from the engine's rewrite
/// switches. Detection order matches the rewrites' precedence:
/// pushdown, then hash join, then batching.
fn lower(ev: &Evaluator<'_>, clauses: &[FlworClause]) -> Vec<Op> {
    let engine = ev.engine();
    let features = engine.features();
    clauses
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let FlworClause::For { var, pos: None, source } = c else { return Op::Plain };
            let next = clauses.get(i + 1);
            let join = if features.join {
                ev.detect_join(var, source, next)
            } else {
                None
            };
            if features.opt {
                if let Some(pd) = ev.detect_pushdown(var, source, next) {
                    return Op::PointSelect { pd: Box::new(pd), join, fired: false };
                }
            }
            if let Some(join) = join {
                return Op::HashProbe(join);
            }
            if features.batch_layer() {
                if let Expr::FunctionCall { name, args } = source {
                    if args.len() == 1 {
                        if let Some(f) = engine.batchable(name, 1) {
                            return Op::Batch(f);
                        }
                    }
                }
            }
            Op::Plain
        })
        .collect()
}

fn sub_eval(ev: &Evaluator<'_>, e: &Expr, env: &mut Env, lazy: bool) -> XdmResult<Sequence> {
    if lazy {
        ev.eval_lazy(e, env)
    } else {
        ev.eval(e, env)
    }
}

/// Bind a `for` clause's variable (and positional variable) to one
/// item.
fn bind_for(env: &mut Env, clause: &FlworClause, item: Item, position: usize) {
    if let FlworClause::For { var, pos, .. } = clause {
        env.bind(*var, Sequence::one(item));
        if let Some(p) = pos {
            env.bind(*p, Sequence::one(Item::integer(position as i64)));
        }
    }
}

fn bind_tuple(env: &mut Env, tuple: &Tuple) {
    for (name, value) in tuple {
        env.bind(*name, value.clone());
    }
}

/// The distinct variables a clause prefix binds.
fn bound_names(clauses: &[FlworClause]) -> Vec<QName> {
    let mut names: Vec<QName> = Vec::new();
    for c in clauses {
        let vars = match c {
            FlworClause::For { var, pos, .. } => [Some(var), pos.as_ref()],
            FlworClause::Let { var, .. } => [Some(var), None],
            FlworClause::Where(_) | FlworClause::OrderBy(_) => [None, None],
        };
        for v in vars.into_iter().flatten() {
            if !names.contains(v) {
                names.push(*v);
            }
        }
    }
    names
}

/// Evaluate a FLWOR by draining its pipeline over the caller's own
/// `Env` — the strict evaluation of `Expr::Flwor`.
pub(crate) fn drain(
    ev: &Evaluator<'_>,
    clauses: &[FlworClause],
    ret: &Expr,
    env: &mut Env,
) -> XdmResult<Sequence> {
    let mut pipe = Pipeline::new(ev, clauses, false);
    let mut out = Sequence::empty();
    let mut run = || -> XdmResult<()> {
        while pipe.next_tuple(ev, clauses, env)? {
            out.extend(ev.eval(ret, env)?);
        }
        Ok(())
    };
    match run() {
        Ok(()) => Ok(out),
        Err(e) => {
            // Pop the scopes of the partly entered tuple.
            while pipe.depth > pipe.floor {
                env.pop_scope();
                pipe.depth -= 1;
            }
            Err(e)
        }
    }
}

/// A FLWOR that leaves `eval_lazy`: the pipeline plus everything it
/// needs to run after the creating call returns. See the module docs.
pub(crate) struct FlworStream {
    engine: Engine,
    env: Env,
    clauses: Vec<FlworClause>,
    ret: Expr,
    pipe: Pipeline,
    /// True once the consumer has seen the end of the stream (or a
    /// terminal error): a fully drained stream is not an early exit.
    done: bool,
    /// Return-value items of the current tuple not yet handed out.
    pending: Option<Sequence>,
    pending_idx: usize,
}

impl FlworStream {
    fn advance(&mut self) -> XdmResult<Option<Item>> {
        loop {
            if let Some(p) = &self.pending {
                if let Some(item) = p.try_item(self.pending_idx)? {
                    self.pending_idx += 1;
                    return Ok(Some(item));
                }
                self.pending = None;
            }
            let ev = Evaluator::new(&self.engine);
            if !self.pipe.next_tuple(&ev, &self.clauses, &mut self.env)? {
                return Ok(None);
            }
            self.pending = Some(ev.eval_lazy(&self.ret, &mut self.env)?);
            self.pending_idx = 0;
        }
    }
}

impl ItemSource for FlworStream {
    fn next_item(&mut self) -> XdmResult<Option<Item>> {
        if self.done {
            return Ok(None);
        }
        let r = self.advance();
        if !matches!(r, Ok(Some(_))) {
            // Exhausted or errored: either way the consumer saw this
            // stream to its end, so dropping it is not an early exit.
            self.done = true;
        }
        r
    }
}

impl Drop for FlworStream {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        let opt = self.engine.opt_counters();
        OptCounters::bump(&opt.early_exits);
        // Count what the early exit verifiably skipped: items whose
        // existence is already known (eager or fused sources) but that
        // were never consumed. Live lazy sources of unknown length are
        // not guessed at, so this is a lower bound.
        let mut skipped: u64 = 0;
        for slot in &self.pipe.slots {
            if let Slot::For { seq, idx, .. } = slot {
                if let Some(n) = seq.known_len() {
                    skipped += n.saturating_sub(*idx + 1) as u64;
                }
            }
        }
        if let Some(p) = &self.pending {
            if let Some(n) = p.known_len() {
                skipped += n.saturating_sub(self.pending_idx) as u64;
            }
        }
        OptCounters::add(&opt.items_never_built, skipped);
    }
}

/// Wrap a FLWOR as a lazy [`Sequence`] over a forked snapshot of `env`.
pub(crate) fn flwor_stream(
    engine: &Engine,
    clauses: &[FlworClause],
    ret: &Expr,
    env: &Env,
) -> Sequence {
    let pipe = Pipeline::new(&Evaluator::new(engine), clauses, true);
    Sequence::lazy(Box::new(FlworStream {
        engine: engine.clone(),
        env: env.fork_for_stream(),
        clauses: clauses.to_vec(),
        ret: ret.clone(),
        pipe,
        done: false,
        pending: None,
        pending_idx: 0,
    }))
}
