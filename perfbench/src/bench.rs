//! One benchmark run: the end-to-end run (tracing off) or the traced
//! run (per-layer metrics), with every reply checked.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crate::calib;
use crate::check::{check_against_direct, check_final_state};
use crate::replay::{direct_replay, Replay};
use crate::serve::{self, Phase};
use crate::stats::{median, quantile, ratio};
use crate::trace::{attribute_to_calls, layer_times, write_spans, Recorder};
use crate::workload::{Family, OpKind, Shape, Workload};

/// End-to-end metrics, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "throughput_rps",
    "latency_p50_ms",
    "latency_p90_ms",
    "peak_rss_mb",
];

/// Per-layer metrics reported in the traced run's result line, in the
/// order `BENCHMARK.json` lists them. Every one is defined on every
/// workload; layer timings that only some workloads exercise are
/// printed above the result line instead.
pub const PER_LAYER: [&str; 25] = [
    "pool.overhead_ms_p50",
    "pool.served_skew",
    "pool.shed",
    "pool.cancelled",
    "decompose.statements_per_submit",
    "journal.records_per_submit",
    "rel.commits",
    "rel.aborts",
    "rel.version_bumps_per_submit",
    "rel.indexed_selects_per_req",
    "mat.hit_ratio",
    "join.hit_ratio",
    "join.builds_per_req",
    "pushdown.rewrites_per_req",
    "plan.hit_ratio",
    "ws.handler_calls_per_req",
    "ws.coalesced_ratio",
    "ws.batches_per_req",
    "stream.tuples_pulled_per_req",
    "stream.early_exits_per_req",
    "xdm.nodes_built_per_req",
    "xdm.grafted_per_req",
    "xmlparse.serialize_ms_p50",
    "xmlparse.reply_bytes_per_req",
    "trace.overhead_share",
];

/// Run settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of each timed pooled phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Fixture and load shape.
    pub shape: Shape,
    /// Set-ups measured for `setup_s` (the last one is timed).
    pub setups: usize,
    /// Cap on timed requests per client (tests use a small one).
    pub max_per_client: usize,
    /// Requests in the direct traced replay.
    pub replay: usize,
    /// Where the traced run writes its spans.
    pub out_dir: Option<PathBuf>,
}

impl Options {
    /// The measured defaults for `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace,
            shape: Shape::DEFAULT,
            setups: 7,
            max_per_client: usize::MAX,
            replay: match workload {
                Workload::ScriptRun => 256,
                _ => 120,
            },
            out_dir: None,
        }
    }
}

/// One named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Timed requests sent.
    pub attempted: u64,
    /// Timed requests failed, shed or answered wrongly.
    pub failed: u64,
    /// The result line's metrics.
    pub metrics: Vec<Metric>,
    /// Why checks failed.
    pub failures: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Refuse to time a non-default configuration: the kill switches and
/// the worker-count override change what is measured.
pub fn config_guard() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("XQSE_DISABLE_") || k == "XQSE_SERVE_WORKERS")
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to time a non-default configuration; unset {}",
            set.join(", ")
        ))
    }
}

/// The build profile the benchmark was compiled with.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Checks shared by both modes, over one pooled phase.
#[derive(Default)]
struct Verdict {
    /// Timed requests (client, idx) that failed a check.
    failed: BTreeSet<(usize, usize)>,
    /// Every failure, described.
    failures: Vec<String>,
}

fn verify_phase(
    phase: &Phase,
    workload: Workload,
    shape: &Shape,
    label: &str,
) -> Result<Verdict, String> {
    let mut v = Verdict::default();
    for s in &phase.warmup {
        if let Err(e) = &s.check {
            v.failures.push(format!("{label} warm-up: {e}"));
        }
    }
    for s in &phase.samples {
        if let Err(e) = &s.check {
            v.failed.insert((s.client, s.idx));
            v.failures.push(format!("{label}: {e}"));
        }
    }
    let all: Vec<&serve::Sample> = phase.warmup.iter().chain(&phase.samples).collect();
    for (i, why) in check_against_direct(&all, shape)? {
        if i >= phase.warmup.len() {
            v.failed.insert((all[i].client, all[i].idx));
        }
        v.failures.push(format!("{label}: {why}"));
    }
    if workload == Workload::ProfileMixed {
        v.failures
            .extend(check_final_state(&phase.demo, &phase.streams, shape));
    }
    let r = &phase.report;
    if r.offered != r.completed + r.shed + r.cancelled {
        v.failures.push(format!(
            "{label}: pool books do not balance: offered {} != completed {} + shed {} + cancelled {}",
            r.offered, r.completed, r.shed, r.cancelled
        ));
    }
    for (w, e) in r.init_errors.iter().enumerate() {
        if let Some(e) = e {
            v.failures
                .push(format!("{label}: worker {w} failed to start: {e}"));
        }
    }
    Ok(v)
}

fn sorted_ms(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Run one benchmark invocation, writing the human-readable report to
/// `out`. The caller prints [`Outcome::json`] as the last line.
pub fn run(opts: &Options, out: &mut dyn Write) -> Result<Outcome, String> {
    let shape = opts.shape;
    let _ = writeln!(
        out,
        "perfbench workload={} seed={} seconds={} trace={} profile={} fixture=demo::build({}, {}, {}) \
         clients={} (closed loop) workers={} cpus={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        build_profile(),
        shape.customers,
        shape.orders,
        shape.cards,
        shape.clients,
        shape.workers,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    if opts.trace {
        traced(opts, out)
    } else {
        end_to_end(opts, out)
    }
}

/// One pooled phase of the traced run. The traced run makes two (with
/// and without spans), each of half the run's seconds.
fn pooled_phase(opts: &Options, recorder: Option<Arc<Recorder>>) -> Result<Phase, String> {
    let served = serve::start(opts.workload, &opts.shape, opts.seed, recorder.clone())?;
    if let Some(rec) = &recorder {
        // Handler spans of the warm-up are not part of the timed phase.
        rec.take();
    }
    Ok(serve::timed_phase(
        served,
        opts.workload,
        &opts.shape,
        opts.seed,
        opts.seconds / 2.0,
        opts.max_per_client,
        recorder.as_deref(),
    ))
}

fn end_to_end(opts: &Options, out: &mut dyn Write) -> Result<Outcome, String> {
    // Set up several times and report the median; the last set-up is
    // the one the timed phase runs on. Each set-up is bracketed by
    // host calibrations and normalized like the timed phase.
    let workers = opts.shape.workers;
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let mut phase = None;
    for i in 0..opts.setups.max(1) {
        let before = calib::measure(workers);
        let served = serve::start(opts.workload, &opts.shape, opts.seed, None)?;
        let after = calib::measure(workers);
        raw_setups.push(served.setup.as_secs_f64());
        setups.push(served.setup.as_secs_f64() * calib::factor(before, after));
        if i + 1 < opts.setups.max(1) {
            served.pool.shutdown();
        } else {
            phase = Some(serve::timed_phase(
                served,
                opts.workload,
                &opts.shape,
                opts.seed,
                opts.seconds,
                opts.max_per_client,
                None,
            ));
        }
    }
    let phase = phase.ok_or("no timed phase ran")?;
    let verdict = verify_phase(&phase, opts.workload, &opts.shape, "pooled")?;

    let attempted = phase.samples.len() as u64;
    let failed = verdict.failed.len() as u64;
    let raw = sorted_ms(phase.samples.iter().map(|s| s.ms()));
    let norm = sorted_ms(phase.samples.iter().map(|s| s.norm_ms()));
    let setup_s = median(&setups);
    let (raw_rps, rps) = phase.throughput();
    let factors: Vec<f64> = phase.slices.iter().map(|s| s.factor).collect();
    let load_s: f64 = phase.slices.iter().map(|s| s.active.as_secs_f64()).sum();
    let _ = writeln!(
        out,
        "host calibration: {} slices, factor median {:.3} (min {:.3}, max {:.3}); times below are \
         normalized to a {} ms reference kernel, raw in brackets",
        factors.len(),
        median(&factors),
        factors.iter().copied().fold(f64::INFINITY, f64::min),
        factors.iter().copied().fold(0.0, f64::max),
        calib::NOMINAL_MS
    );
    let _ = writeln!(
        out,
        "setup_s          {setup_s:.4} s     [{:.4}] (median of {} set-ups: fixture, pool start, warm-up)",
        median(&raw_setups),
        setups.len()
    );
    let ok: usize = phase.slices.iter().map(|s| s.ok).sum();
    let _ = writeln!(
        out,
        "throughput_rps   {rps:.2} 1/s  [{raw_rps:.2}] ({ok} answered in {load_s:.2} s of load)"
    );
    for (name, q) in [("latency_p50_ms", 0.5), ("latency_p90_ms", 0.9)] {
        let _ = writeln!(
            out,
            "{name}   {:.3} ms  [{:.3}] (all requests, n={})",
            quantile(&norm, q),
            quantile(&raw, q),
            norm.len()
        );
    }
    for kind in OpKind::ALL {
        let v = sorted_ms(
            phase
                .samples
                .iter()
                .filter(|s| s.op.kind() == kind)
                .map(|s| s.norm_ms()),
        );
        let name = kind.name();
        if v.is_empty() {
            let _ = writeln!(
                out,
                "{name}_p50_ms / {name}_p90_ms   absent (workload sends no {name} requests)"
            );
        } else {
            let _ = writeln!(
                out,
                "{name}_p50_ms {:.3} ms   {name}_p90_ms {:.3} ms   (n={})",
                quantile(&v, 0.5),
                quantile(&v, 0.9),
                v.len()
            );
        }
    }
    let _ = writeln!(
        out,
        "failed_share     {} ({failed}/{attempted} failed, shed or wrong)",
        ratio(failed as f64, attempted as f64)
    );
    let _ = writeln!(out, "peak_rss_mb      {:.2} MB", phase.peak_rss_mb);
    for f in verdict.failures.iter().take(20) {
        let _ = writeln!(out, "CHECK FAILED: {f}");
    }
    let metric = |name: &str, value: f64, unit| Metric {
        name: name.into(),
        value,
        unit,
    };
    let metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("throughput_rps", rps, "1/s"),
        metric("latency_p50_ms", quantile(&norm, 0.5), "ms"),
        metric("latency_p90_ms", quantile(&norm, 0.9), "ms"),
        metric("peak_rss_mb", phase.peak_rss_mb, "MB"),
    ];
    Ok(Outcome {
        correct: verdict.failures.is_empty() && attempted > 0,
        attempted,
        failed,
        metrics,
        failures: verdict.failures,
    })
}

/// A per-layer line: value (None = the workload never exercises it),
/// unit and the base it was computed over.
struct Line {
    value: Option<f64>,
    unit: &'static str,
    base: String,
}

fn per(num: u64, den: u64, unit: &'static str, what: &str) -> Line {
    Line {
        value: (den > 0).then(|| num as f64 / den as f64),
        unit,
        base: format!("{num} over {den} {what}"),
    }
}

fn traced(opts: &Options, out: &mut dyn Write) -> Result<Outcome, String> {
    let (workload, shape) = (opts.workload, &opts.shape);
    let untraced = pooled_phase(opts, None)?;
    let mut verdict = verify_phase(&untraced, workload, shape, "untraced")?;

    let recorder = Arc::new(Recorder::new(Instant::now()));
    let traced = pooled_phase(opts, Some(recorder.clone()))?;
    let pooled_spans = recorder.take();
    let traced_verdict = verify_phase(&traced, workload, shape, "traced")?;
    // Both phases number their requests from 0: count each phase's.
    let failed = (verdict.failed.len() + traced_verdict.failed.len()) as u64;
    verdict.failures.extend(traced_verdict.failures);

    let replay = direct_replay(workload, shape, opts.seed, opts.replay)?;
    for r in &replay.records {
        if let Err(e) = &r.check {
            verdict.failures.push(format!("direct replay: {e}"));
        }
    }

    let mut lines: BTreeMap<String, Line> = BTreeMap::new();
    pool_lines(
        &mut lines,
        &untraced,
        &traced,
        &pooled_spans,
        &replay,
        &mut verdict.failures,
    );
    replay_lines(&mut lines, &replay);

    if let Some(dir) = &opts.out_dir {
        let path = dir.join(format!("trace-{}-seed{}.jsonl", workload.name(), opts.seed));
        let _ = std::fs::remove_file(&path);
        write_spans(&path, "pooled", &pooled_spans)
            .and_then(|_| write_spans(&path, "direct", &replay.spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let _ = writeln!(out, "spans written to {}", path.display());
    }

    let _ = writeln!(
        out,
        "layer self time, direct replay of {} requests:",
        replay.records.len()
    );
    for (name, lt) in layer_times(&replay.spans) {
        let _ = writeln!(
            out,
            "  {name:<20} n={:<6} total {:>10.3} ms  self {:>10.3} ms  p50 {:>8.4} ms",
            lt.count, lt.total_ms, lt.self_ms, lt.p50_ms
        );
    }
    for (name, line) in &lines {
        let value = line
            .value
            .map_or("absent".to_string(), |v| format!("{v:.6}"));
        let _ = writeln!(
            out,
            "{name:<34} {value:>14} {:<6} ({})",
            line.unit, line.base
        );
    }
    for f in verdict.failures.iter().take(20) {
        let _ = writeln!(out, "CHECK FAILED: {f}");
    }

    let metrics = PER_LAYER
        .iter()
        .map(|name| {
            let line = lines.get(*name);
            Metric {
                name: name.to_string(),
                value: line.and_then(|l| l.value).unwrap_or(0.0),
                unit: line.map_or("count", |l| l.unit),
            }
        })
        .collect();
    let attempted = (untraced.samples.len() + traced.samples.len()) as u64;
    Ok(Outcome {
        correct: verdict.failures.is_empty() && attempted > 0,
        attempted,
        failed,
        metrics,
        failures: verdict.failures,
    })
}

/// Metrics of the pooled phases: pool overhead, skew, sheds, the
/// web-service handler spans, and the tracing overhead.
fn pool_lines(
    lines: &mut BTreeMap<String, Line>,
    untraced: &Phase,
    traced: &Phase,
    spans: &[crate::trace::Span],
    replay: &Replay,
    failures: &mut Vec<String>,
) {
    let direct: BTreeMap<(usize, usize), &crate::replay::Record> = replay
        .records
        .iter()
        .map(|r| ((r.client, r.idx), r))
        .collect();
    let mut overhead = Vec::new();
    for s in &traced.samples {
        if let Some(r) = direct.get(&(s.client, s.idx)) {
            overhead.push(s.ms() - r.ms);
            if let (Ok(a), Ok(b)) = (&s.reply, &r.reply) {
                if *a != serve::digest(b) {
                    failures.push(format!(
                        "client {} request {}: pooled reply differs from the traced direct replay",
                        s.client, s.idx
                    ));
                }
            }
        }
    }
    overhead.sort_by(f64::total_cmp);
    lines.insert(
        "pool.overhead_ms_p50".into(),
        Line {
            value: (!overhead.is_empty()).then(|| quantile(&overhead, 0.5)),
            unit: "ms",
            base: format!(
                "pooled minus direct latency, {} matched requests",
                overhead.len()
            ),
        },
    );
    let mut served = vec![0u64; traced.report.workers];
    for s in &traced.samples {
        if let Some(n) = served.get_mut(s.worker) {
            *n += 1;
        }
    }
    let mean = served.iter().sum::<u64>() as f64 / served.len().max(1) as f64;
    let max = served.iter().copied().max().unwrap_or(0) as f64;
    lines.insert(
        "pool.served_skew".into(),
        Line {
            value: Some(ratio(max, mean) - 1.0),
            unit: "ratio",
            base: format!("max/mean - 1 of timed requests per worker {served:?}"),
        },
    );
    let r = &traced.report;
    lines.insert("pool.shed".into(), per(r.shed, 1, "count", "(pool total)"));
    lines.insert(
        "pool.cancelled".into(),
        per(r.cancelled, 1, "count", "(pool total)"),
    );

    let timed = traced.samples.len() as u64;
    let attributed = attribute_to_calls(spans, "ws.handler");
    let handler_ms: f64 = attributed
        .iter()
        .fold(0.0, |acc, (i, _)| acc + spans[*i].ms());
    lines.insert(
        "ws.handler_calls_per_req".into(),
        per(attributed.len() as u64, timed, "count", "pooled requests"),
    );
    lines.insert(
        "ws.handler_ms_total".into(),
        Line {
            value: Some(handler_ms),
            unit: "ms",
            base: format!(
                "{} handler spans attributed to {timed} pooled requests",
                attributed.len()
            ),
        },
    );
    let (t, u) = (traced.throughput().1, untraced.throughput().1);
    lines.insert(
        "trace.overhead_share".into(),
        Line {
            value: Some(ratio(t, u)),
            unit: "ratio",
            base: format!("traced {t:.2} 1/s over untraced {u:.2} 1/s"),
        },
    );
}

/// Metrics of the direct replay: layer timings and counter deltas.
fn replay_lines(lines: &mut BTreeMap<String, Line>, replay: &Replay) {
    let all = replay.totals(|_| true);
    let n = all.requests;
    let count = |k: OpKind| replay.records.iter().filter(|r| r.kind == k).count() as u64;
    let submits = count(OpKind::Submit);
    let sub = replay.totals(|r| r.kind == OpKind::Submit);
    let page = replay.totals(|r| r.family == Some(Family::Page));
    let pages = replay
        .records
        .iter()
        .filter(|r| r.family == Some(Family::Page))
        .count() as u64;
    let rows = [
        (
            "decompose.statements_per_submit",
            sub.statements,
            submits,
            "count",
            "submits",
        ),
        (
            "journal.records_per_submit",
            sub.journal_records,
            submits,
            "count",
            "submits",
        ),
        (
            "rel.version_bumps_per_submit",
            sub.version_bumps,
            submits,
            "count",
            "submits",
        ),
        ("rel.commits", all.commits, 1, "count", "replay"),
        ("rel.aborts", all.aborts, 1, "count", "replay"),
        (
            "rel.indexed_selects_per_req",
            all.indexed_selects,
            n,
            "count",
            "requests",
        ),
        (
            "mat.hit_ratio",
            all.mat_hits,
            all.mat_hits + all.mat_misses,
            "ratio",
            "lookups",
        ),
        (
            "join.hit_ratio",
            all.join_hits,
            all.join_hits + all.join_builds,
            "ratio",
            "lookups",
        ),
        (
            "join.builds_per_req",
            all.join_builds,
            n,
            "count",
            "requests",
        ),
        (
            "pushdown.rewrites_per_req",
            all.pushdown_rewrites,
            n,
            "count",
            "requests",
        ),
        (
            "plan.hit_ratio",
            all.plan_hits,
            all.plan_hits + all.plan_misses,
            "ratio",
            "prepares",
        ),
        (
            "ws.coalesced_ratio",
            all.ws_coalesced,
            all.ws_requests,
            "ratio",
            "ws requests",
        ),
        ("ws.batches_per_req", all.ws_batches, n, "count", "requests"),
        (
            "ws.direct_handler_calls_per_req",
            all.ws_handler_calls,
            n,
            "count",
            "requests",
        ),
        (
            "stream.tuples_pulled_per_req",
            all.tuples_pulled,
            n,
            "count",
            "requests",
        ),
        (
            "stream.early_exits_per_req",
            all.early_exits,
            n,
            "count",
            "requests",
        ),
        (
            "stream.tuples_pulled_per_req.page",
            page.tuples_pulled,
            pages,
            "count",
            "page runs",
        ),
        (
            "stream.early_exits_per_req.page",
            page.early_exits,
            pages,
            "count",
            "page runs",
        ),
        (
            "xdm.nodes_built_per_req",
            all.nodes_built,
            n,
            "count",
            "requests",
        ),
        ("xdm.grafted_per_req", all.grafted, n, "count", "requests"),
        (
            "xmlparse.reply_bytes_per_req",
            all.reply_bytes,
            n,
            "B",
            "requests",
        ),
    ];
    for (name, num, den, unit, what) in rows {
        lines.insert(name.to_string(), per(num, den, unit, what));
    }

    let p50 = |v: &mut Vec<f64>, what: &str| -> Line {
        v.sort_by(f64::total_cmp);
        Line {
            value: (!v.is_empty()).then(|| quantile(v, 0.5)),
            unit: "ms",
            base: format!("median of {} {what} spans", v.len()),
        }
    };
    for (metric, span) in [
        ("service.get_ms_p50", "service.get"),
        ("service.submit_ms_p50", "service.submit"),
        ("sdo.set_value_ms_p50", "sdo.set_value"),
        ("xqeval.prepare_ms_p50", "xqeval.prepare"),
        ("xqparser.parse_ms_p50", "xqparser.parse"),
        ("xqse.exec_ms_p50", "xqse.exec"),
        ("xmlparse.serialize_ms_p50", "xmlparse.serialize"),
    ] {
        let mut v: Vec<f64> = replay
            .spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.ms())
            .collect();
        let line = p50(&mut v, span);
        lines.insert(metric.to_string(), line);
    }
    let by_family = replay.span_ms_by_family("xqse.exec");
    for family in Family::ALL {
        let mut v = by_family.get(&Some(family)).cloned().unwrap_or_default();
        let name = format!("xqse.exec_ms_p50.{}", family.name());
        let line = p50(&mut v, &format!("{} xqse.exec", family.name()));
        lines.insert(name, line);
    }
}
