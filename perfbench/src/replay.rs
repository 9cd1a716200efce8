//! The direct traced replay: the same seeded request stream, one
//! thread, one `DataSpace`, no pool. Every call into a layer's public
//! function is wrapped in a span, and the public counters are read
//! before and after each request, so per-request counts are exact
//! deltas that repeat run after run.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use aldsp::demo::Demo;
use aldsp::pool::ServeRequest;
use aldsp::rel::Database;
use aldsp::service::DataSpace;
use xdm::error::XdmError;
use xqeval::{Env, OptStats};

use crate::check::{args_to_sequences, check_reply, serve_direct};
use crate::serve::{self, request_id};
use crate::trace::{Recorder, Span};
use crate::workload::{ClientStream, Family, Op, OpKind, Shape, Workload};

/// Warm-up requests per client before the measured replay.
pub const WARMUP_PER_CLIENT: usize = 4;

/// Counter deltas of one request (or summed over many).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Requests counted.
    pub requests: u64,
    /// Join-cache hits.
    pub join_hits: u64,
    /// Join-cache misses (an index was built).
    pub join_builds: u64,
    /// Materialization-cache hits.
    pub mat_hits: u64,
    /// Materialization-cache misses.
    pub mat_misses: u64,
    /// `where` clauses rewritten into source point selects.
    pub pushdown_rewrites: u64,
    /// Reads answered via a secondary index.
    pub indexed_selects: u64,
    /// Plan-cache hits of the replay's own `Engine::prepare` call.
    pub plan_hits: u64,
    /// Plan-cache misses of that call.
    pub plan_misses: u64,
    /// Web-service requests seen by the mediator.
    pub ws_requests: u64,
    /// Web-service requests answered without the source.
    pub ws_coalesced: u64,
    /// Batched web-service round trips.
    pub ws_batches: u64,
    /// Calls into the benchmark's web-service handler.
    pub ws_handler_calls: u64,
    /// XDM nodes allocated.
    pub nodes_built: u64,
    /// Subtrees adopted by reference.
    pub grafted: u64,
    /// FLWOR tuples pulled through the streaming pipeline.
    pub tuples_pulled: u64,
    /// Streams abandoned early.
    pub early_exits: u64,
    /// Committed branches (db1 + db2).
    pub commits: u64,
    /// Aborted branches (db1 + db2).
    pub aborts: u64,
    /// Table-version increments over all fixture tables.
    pub version_bumps: u64,
    /// Coordinator-journal records appended.
    pub journal_records: u64,
    /// SQL statements of the submit's decomposition.
    pub statements: u64,
    /// Reply bytes.
    pub reply_bytes: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        let pairs: [(&mut u64, u64); 23] = [
            (&mut self.requests, o.requests),
            (&mut self.join_hits, o.join_hits),
            (&mut self.join_builds, o.join_builds),
            (&mut self.mat_hits, o.mat_hits),
            (&mut self.mat_misses, o.mat_misses),
            (&mut self.pushdown_rewrites, o.pushdown_rewrites),
            (&mut self.indexed_selects, o.indexed_selects),
            (&mut self.plan_hits, o.plan_hits),
            (&mut self.plan_misses, o.plan_misses),
            (&mut self.ws_requests, o.ws_requests),
            (&mut self.ws_coalesced, o.ws_coalesced),
            (&mut self.ws_batches, o.ws_batches),
            (&mut self.ws_handler_calls, o.ws_handler_calls),
            (&mut self.nodes_built, o.nodes_built),
            (&mut self.grafted, o.grafted),
            (&mut self.tuples_pulled, o.tuples_pulled),
            (&mut self.early_exits, o.early_exits),
            (&mut self.commits, o.commits),
            (&mut self.aborts, o.aborts),
            (&mut self.version_bumps, o.version_bumps),
            (&mut self.journal_records, o.journal_records),
            (&mut self.statements, o.statements),
            (&mut self.reply_bytes, o.reply_bytes),
        ];
        for (mine, theirs) in pairs {
            *mine += theirs;
        }
    }
}

/// The public counters, read at one instant.
struct Snapshot {
    opt: OptStats,
    commits: u64,
    aborts: u64,
    versions: u64,
    journal: u64,
}

const TABLES: [(usize, &str); 3] = [(0, "CUSTOMER"), (0, "ORDER"), (1, "CREDIT_CARD")];

fn snapshot(space: &DataSpace, dbs: [&Database; 2]) -> Snapshot {
    let (c0, a0) = dbs[0].stats();
    let (c1, a1) = dbs[1].stats();
    let versions = TABLES
        .iter()
        .map(|(db, t)| dbs[*db].table_version(t).unwrap_or(0))
        .sum();
    Snapshot {
        opt: space.engine().opt_stats(),
        commits: c0 + c1,
        aborts: a0 + a1,
        versions,
        journal: space.journal().stats().appended,
    }
}

fn delta(a: &Snapshot, b: &Snapshot) -> Counts {
    let (x, y) = (&a.opt, &b.opt);
    Counts {
        requests: 1,
        join_hits: y.join_hits - x.join_hits,
        join_builds: y.join_misses - x.join_misses,
        mat_hits: y.mat_hits - x.mat_hits,
        mat_misses: y.mat_misses - x.mat_misses,
        pushdown_rewrites: y.pushdown_rewrites - x.pushdown_rewrites,
        indexed_selects: y.indexed_selects - x.indexed_selects,
        plan_hits: y.plan_hits - x.plan_hits,
        plan_misses: y.plan_misses - x.plan_misses,
        ws_requests: y.ws_requests - x.ws_requests,
        ws_coalesced: y.ws_coalesced - x.ws_coalesced,
        ws_batches: y.ws_batches - x.ws_batches,
        nodes_built: y.nodes_built - x.nodes_built,
        grafted: y.subtrees_grafted - x.subtrees_grafted,
        tuples_pulled: y.tuples_pulled - x.tuples_pulled,
        early_exits: y.early_exits - x.early_exits,
        commits: b.commits - a.commits,
        aborts: b.aborts - a.aborts,
        version_bumps: b.versions - a.versions,
        journal_records: b.journal - a.journal,
        ..Counts::default()
    }
}

/// One replayed request.
#[derive(Debug, Clone)]
pub struct Record {
    /// Client whose stream it came from.
    pub client: usize,
    /// Position in that stream.
    pub idx: usize,
    /// Request kind.
    pub kind: OpKind,
    /// Program family of a `Run`.
    pub family: Option<Family>,
    /// Latency of the `request` span, ms.
    pub ms: f64,
    /// Counter deltas.
    pub counts: Counts,
    /// The reply.
    pub reply: Result<String, XdmError>,
    /// Outcome of the reply check.
    pub check: Result<(), String>,
}

/// A finished replay.
pub struct Replay {
    /// Replayed requests, in replay order.
    pub records: Vec<Record>,
    /// Spans of the measured requests.
    pub spans: Vec<Span>,
}

impl Replay {
    /// Counts summed over the records matching `keep`.
    pub fn totals(&self, keep: impl Fn(&Record) -> bool) -> Counts {
        let mut t = Counts::default();
        for r in self.records.iter().filter(|r| keep(r)) {
            t.add(&r.counts);
        }
        t
    }

    /// Durations (ms) of spans named `name`, grouped by the family of
    /// the request they belong to (`None` for non-`Run` requests).
    pub fn span_ms_by_family(&self, name: &str) -> BTreeMap<Option<Family>, Vec<f64>> {
        let family: BTreeMap<u64, Option<Family>> = self
            .records
            .iter()
            .map(|r| (request_id(r.client, r.idx), r.family))
            .collect();
        let mut out: BTreeMap<Option<Family>, Vec<f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.entry(family.get(&s.req).copied().flatten())
                .or_default()
                .push(s.ms());
        }
        out
    }
}

/// Serve `op` on `space` with a span around every layer call.
fn traced_request(rec: &Recorder, space: &DataSpace, op: &Op) -> Result<String, XdmError> {
    match op.to_serve() {
        ServeRequest::Get {
            service,
            method,
            args,
        } => {
            let args = args_to_sequences(&args);
            let graph = rec.span("service.get", None, || space.get(&service, &method, args))?;
            Ok(rec.span("xmlparse.serialize", None, || {
                xmlparse::serialize_sequence(graph.instances())
            }))
        }
        ServeRequest::Submit {
            service,
            method,
            args,
            sets,
        } => {
            let args = args_to_sequences(&args);
            let graph = rec.span("service.get", None, || space.get(&service, &method, args))?;
            for (instance, path, value) in &sets {
                let steps: Vec<&str> = path.iter().map(String::as_str).collect();
                rec.span("sdo.set_value", None, || {
                    graph.set_value(*instance, &steps, value)
                })?;
            }
            rec.span("service.submit", None, || space.submit(&graph))?;
            Ok("ok".to_string())
        }
        ServeRequest::Run { program } => {
            rec.span("xqeval.prepare", None, || space.engine().prepare(&program))?;
            let out = rec.span("xqse.exec", None, || {
                space
                    .xqse()
                    .run_lazy_with_env(&program, &mut Env::new())?
                    .into_forced()
            })?;
            rec.span("xmlparse.serialize", None, || {
                xmlparse::serialize_sequence_stream(&out)
            })
        }
    }
}

/// Replay the first `requests` requests of the workload's seeded
/// client streams (dealt round-robin: client 0's first, client 1's
/// first, client 0's second, …) after the same warm-up the pool gets.
pub fn direct_replay(
    workload: Workload,
    shape: &Shape,
    seed: u64,
    requests: usize,
) -> Result<Replay, String> {
    let demo: Demo = serve::fixture(shape)?;
    let rec = Arc::new(Recorder::new(Instant::now()));
    let space = serve::dataspace(
        &demo.db1,
        &demo.db2,
        serve::credit_rating(Some(rec.clone()), None),
    )?;
    for client in 0..shape.clients {
        let mut warm = ClientStream::warmup(workload, shape, seed, client);
        for _ in 0..WARMUP_PER_CLIENT {
            let op = warm.next_op();
            serve_direct(&space, &op.to_serve()).map_err(|e| format!("direct warm-up: {e}"))?;
        }
    }
    rec.take();
    let mut streams: Vec<ClientStream> = (0..shape.clients)
        .map(|c| ClientStream::timed(workload, shape, seed, c))
        .collect();
    let mut next_idx = vec![0usize; shape.clients];
    let mut records = Vec::with_capacity(requests);
    for i in 0..requests {
        let client = i % shape.clients;
        let idx = next_idx[client];
        next_idx[client] += 1;
        let op = streams[client].next_op();
        let req = request_id(client, idx);
        Recorder::set_request(req);
        if let Op::Run(p) = &op {
            // Parsed on its own, outside the request span: the pooled
            // path parses inside `Engine::prepare` on a plan miss.
            let _ = rec.span("xqparser.parse", None, || xqparser::parse_module(&p.text));
        }
        let handler_calls_before = rec.count("ws.handler");
        let before = snapshot(&space, [&demo.db1, &demo.db2]);
        let start = Instant::now();
        let reply = rec.span("request", None, || traced_request(&rec, &space, &op));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let after = snapshot(&space, [&demo.db1, &demo.db2]);
        Recorder::set_request(0);
        let mut counts = delta(&before, &after);
        counts.ws_handler_calls = rec.count("ws.handler") - handler_calls_before;
        if let Op::Run(_) = &op {
            // Only the explicit `prepare` can miss: the preparations
            // inside `run_lazy_with_env` (two for a block body) always
            // hit the plan it just cached.
            counts.plan_hits = 1u64.saturating_sub(counts.plan_misses);
        }
        if let Op::Submit { .. } = &op {
            counts.statements = space.last_decomposition.borrow().len() as u64;
        }
        counts.reply_bytes = reply.as_ref().map_or(0, |r| r.len() as u64);
        let check = check_reply(&op, &reply, shape);
        let family = match &op {
            Op::Run(p) => Some(p.family),
            _ => None,
        };
        records.push(Record {
            client,
            idx,
            kind: op.kind(),
            family,
            ms,
            counts,
            reply,
            check,
        });
    }
    Ok(Replay {
        records,
        spans: rec.take(),
    })
}
