//! Set-up and the closed-loop pooled phase: fixture, pool, warm-up and
//! timed client threads calling `ServePool::call`.

use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use aldsp::demo::{self, Demo, CREDIT_TYPES_NS};
use aldsp::pool::{PoolReport, ServePool, ServeSpec};
use aldsp::rel::Database;
use aldsp::service::DataSpace;
use aldsp::ws::WebService;
use xdm::sequence::Sequence;

use crate::calib;
use crate::check::check_reply;
use crate::trace::Recorder;
use crate::workload::{ClientStream, Op, Shape, Workload};

/// Warm-up ends once every worker has served this many requests …
const WARM_PER_WORKER: u64 = 2;
/// … and each client has sent at least this many …
const WARM_MIN_PER_CLIENT: usize = 4;
/// … or a client has sent this many (a cap, so a worker that never
/// gets work cannot stall set-up).
const WARM_MAX_PER_CLIENT: usize = 64;

/// The credit-rating web service of the fixture. With a recorder, its
/// handler is wrapped in a `ws.handler` span tagged with `worker`.
pub fn credit_rating(recorder: Option<Arc<Recorder>>, worker: Option<usize>) -> WebService {
    let plain = WebService::credit_rating(CREDIT_TYPES_NS);
    let Some(rec) = recorder else { return plain };
    let mut svc = WebService::new(&plain.name, &plain.namespace);
    for name in plain.operation_names() {
        if let Some(op) = plain.operation(&name) {
            let inner = op.handler.clone();
            let rec = rec.clone();
            svc.add_operation(
                &op.name,
                &op.input_element,
                &op.output_element,
                Rc::new(move |req: &Sequence| rec.span("ws.handler", worker, || inner(req))),
            );
        }
    }
    svc
}

/// Build the fixture's databases (`demo::build`).
pub fn fixture(shape: &Shape) -> Result<Demo, String> {
    demo::build(shape.customers, shape.orders, shape.cards).map_err(|e| format!("fixture: {e}"))
}

/// A fresh data space over the fixture's databases.
pub fn dataspace(db1: &Database, db2: &Database, ws: WebService) -> Result<DataSpace, String> {
    demo::assemble(db1, db2, ws).map_err(|e| format!("assemble: {e}"))
}

/// One completed request as a client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Client thread index.
    pub client: usize,
    /// Position in that client's stream.
    pub idx: usize,
    /// What was sent.
    pub op: Op,
    /// Send time, ns since the phase epoch.
    pub start_ns: u64,
    /// Reply time, ns since the phase epoch.
    pub end_ns: u64,
    /// Load slice of the timed phase the request ran in.
    pub slice: usize,
    /// Host-speed factor of that slice.
    pub factor: f64,
    /// Worker that served it (`usize::MAX` if refused).
    pub worker: usize,
    /// Digest of the reply text, or the error it raised. Only the
    /// digest is kept, so memory use does not grow with the number of
    /// requests a run completes.
    pub reply: Result<u64, String>,
    /// Outcome of [`check_reply`], run as the reply arrived.
    pub check: Result<(), String>,
}

/// A stable 64-bit digest of a reply (SipHash with fixed keys).
pub fn digest(text: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

impl Sample {
    /// Latency in ms.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    /// Latency in ms, normalized to the nominal host speed.
    pub fn norm_ms(&self) -> f64 {
        self.ms() * self.factor
    }
}

/// Span request id of a client's `idx`-th request.
pub fn request_id(client: usize, idx: usize) -> u64 {
    ((client as u64 + 1) << 40) | idx as u64
}

/// A started pool over a built fixture, warmed up.
pub struct Served {
    /// The fixture (its databases are shared with every worker).
    pub demo: Demo,
    /// The pool.
    pub pool: ServePool,
    /// Warm-up requests and replies (checked like timed ones).
    pub warmup: Vec<Sample>,
    /// Fixture build + pool start + warm-up.
    pub setup: Duration,
}

/// Build the fixture, start the pool and warm it up. With a recorder,
/// every worker's web-service handler records `ws.handler` spans.
pub fn start(
    workload: Workload,
    shape: &Shape,
    seed: u64,
    recorder: Option<Arc<Recorder>>,
) -> Result<Served, String> {
    let t0 = Instant::now();
    let demo = fixture(shape)?;
    let (db1, db2) = (demo.db1.clone(), demo.db2.clone());
    let pool = ServePool::start(ServeSpec::new(shape.workers), move |worker| {
        demo::assemble(&db1, &db2, credit_rating(recorder.clone(), Some(worker)))
    });
    if pool.workers() != shape.workers {
        return Err(format!(
            "pool started {} workers, expected {}",
            pool.workers(),
            shape.workers
        ));
    }
    let mut streams: Vec<ClientStream> = (0..shape.clients)
        .map(|c| ClientStream::warmup(workload, shape, seed, c))
        .collect();
    let served: Vec<AtomicU64> = (0..shape.workers).map(|_| AtomicU64::new(0)).collect();
    let warmup = run_clients(
        &pool,
        shape,
        &mut streams,
        |n| {
            n >= WARM_MAX_PER_CLIENT
                || (n >= WARM_MIN_PER_CLIENT
                    && served
                        .iter()
                        .all(|s| s.load(Ordering::Relaxed) >= WARM_PER_WORKER))
        },
        &served,
    );
    Ok(Served {
        demo,
        pool,
        warmup,
        setup: t0.elapsed(),
    })
}

/// Length of one load slice of a timed phase; the host is calibrated
/// between slices.
const SLICE_SECONDS: f64 = 1.0;

/// Send `stream`'s next request through `pool` and wait for the reply.
fn call_one(
    pool: &ServePool,
    shape: &Shape,
    stream: &mut ClientStream,
    client: usize,
    epoch: Instant,
    recorder: Option<&Recorder>,
) -> Sample {
    let op = stream.next_op();
    let idx = stream.issued - 1;
    let request = op.to_serve();
    let span_start = recorder.map(Recorder::now_ns);
    let start_ns = epoch.elapsed().as_nanos() as u64;
    let reply = pool.call(request);
    let end_ns = epoch.elapsed().as_nanos() as u64;
    if let (Some(rec), Some(s)) = (recorder, span_start) {
        rec.record(
            "pool.call",
            request_id(client, idx),
            Some(reply.worker),
            s,
            rec.now_ns(),
        );
    }
    let check = check_reply(&op, &reply.result, shape);
    Sample {
        client,
        idx,
        op,
        start_ns,
        end_ns,
        slice: 0,
        factor: 1.0,
        worker: reply.worker,
        reply: reply
            .result
            .as_deref()
            .map(digest)
            .map_err(|e| e.to_string()),
        check,
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("client state poisoned by a panicking client")
}

/// Drive `streams` through `pool`, one closed-loop thread per stream,
/// until `done(requests this stream has issued)` holds, counting
/// replies per worker in `served`. Returns every sample, ordered by
/// (client, idx).
fn run_clients(
    pool: &ServePool,
    shape: &Shape,
    streams: &mut [ClientStream],
    done: impl Fn(usize) -> bool + Sync,
    served: &[AtomicU64],
) -> Vec<Sample> {
    let epoch = Instant::now();
    let out: Mutex<Vec<Sample>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (client, stream) in streams.iter_mut().enumerate() {
            let (out, done) = (&out, &done);
            scope.spawn(move || {
                let mut mine = Vec::new();
                while !done(stream.issued) {
                    let sample = call_one(pool, shape, stream, client, epoch, None);
                    if let Some(n) = served.get(sample.worker) {
                        n.fetch_add(1, Ordering::Relaxed);
                    }
                    mine.push(sample);
                }
                lock(out).extend(mine);
            });
        }
    });
    let mut samples = out
        .into_inner()
        .expect("client state poisoned by a panicking client");
    samples.sort_by_key(|s| (s.client, s.idx));
    samples
}

/// One load slice of a timed phase.
#[derive(Debug, Clone)]
pub struct Slice {
    /// First send to last reply of the slice.
    pub active: Duration,
    /// Requests answered without error.
    pub ok: usize,
    /// Host-speed factor of the slice (see [`crate::calib`]).
    pub factor: f64,
}

/// The result of one timed pooled phase.
pub struct Phase {
    /// Timed samples.
    pub samples: Vec<Sample>,
    /// The load slices, in order.
    pub slices: Vec<Slice>,
    /// Set-up time of the pool this phase ran on.
    pub setup: Duration,
    /// Warm-up samples.
    pub warmup: Vec<Sample>,
    /// The pool's totals at shutdown.
    pub report: PoolReport,
    /// Peak RSS when the timed phase ended, MiB.
    pub peak_rss_mb: f64,
    /// The client streams after the phase (what they wrote).
    pub streams: Vec<ClientStream>,
    /// The fixture, for the final-state check.
    pub demo: Demo,
}

impl Phase {
    /// Answered requests per second of load time, raw and normalized
    /// to the nominal host speed: the median over the load slices, so
    /// a slice the calibration misjudges moves it little.
    pub fn throughput(&self) -> (f64, f64) {
        let per_slice = |norm: bool| -> Vec<f64> {
            self.slices
                .iter()
                .map(|s| {
                    let secs = s.active.as_secs_f64() * if norm { s.factor } else { 1.0 };
                    crate::stats::ratio(s.ok as f64, secs)
                })
                .collect()
        };
        (
            crate::stats::median(&per_slice(false)),
            crate::stats::median(&per_slice(true)),
        )
    }
}

/// Slice bookkeeping the client threads of a timed phase share.
struct Slicing {
    /// Kernel times at each calibration point (one before the first
    /// slice, one after each slice).
    calibrations: Vec<Vec<f64>>,
    /// (start, last reply) of each slice, ns since the phase epoch.
    bounds: Vec<(u64, u64)>,
    /// Clients still under their request cap at this point.
    open: usize,
    /// Load time so far, s.
    loaded: f64,
    /// Whether another slice runs, and until when.
    next: Option<Instant>,
}

/// Run a timed phase of `seconds` of load (or `max_per_client`
/// requests per client, whichever comes first) on an already started
/// pool, in one-second slices. Before the first slice and after each
/// one, every client finishes its in-flight request, so the pool
/// idles, and times the calibration kernel on its own thread. The
/// client threads live for the whole phase.
pub fn timed_phase(
    served: Served,
    workload: Workload,
    shape: &Shape,
    seed: u64,
    seconds: f64,
    max_per_client: usize,
    recorder: Option<&Recorder>,
) -> Phase {
    let Served {
        demo,
        pool,
        warmup,
        setup,
    } = served;
    let mut streams: Vec<ClientStream> = (0..shape.clients)
        .map(|c| ClientStream::timed(workload, shape, seed, c))
        .collect();
    let epoch = Instant::now();
    let barrier = Barrier::new(shape.clients);
    let slicing = Mutex::new(Slicing {
        calibrations: Vec::new(),
        bounds: Vec::new(),
        open: 0,
        loaded: 0.0,
        next: None,
    });
    let out: Mutex<Vec<Sample>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (client, stream) in streams.iter_mut().enumerate() {
            let (pool, barrier, slicing, out) = (&pool, &barrier, &slicing, &out);
            scope.spawn(move || {
                let mut mine: Vec<Sample> = Vec::new();
                for slice in 0.. {
                    {
                        let mut sl = lock(slicing);
                        if sl.calibrations.len() == slice {
                            sl.calibrations.push(Vec::new());
                            sl.open = 0;
                        }
                        sl.open += usize::from(stream.issued < max_per_client);
                        let last = mine
                            .last()
                            .filter(|s| s.slice + 1 == slice)
                            .map(|s| s.end_ns);
                        if let (Some(end), Some(b)) = (last, sl.bounds.last_mut()) {
                            b.1 = b.1.max(end);
                        }
                    }
                    barrier.wait();
                    let times = calib::kernel_times();
                    lock(slicing).calibrations[slice].extend(times);
                    if barrier.wait().is_leader() {
                        let mut sl = lock(slicing);
                        if let Some(&(start, end)) = sl.bounds.last() {
                            sl.loaded += end.saturating_sub(start) as f64 / 1e9;
                        }
                        sl.next = None;
                        if sl.loaded < seconds && sl.open > 0 {
                            let now = Instant::now();
                            let len = SLICE_SECONDS.min(seconds - sl.loaded);
                            sl.next = Some(now + Duration::from_secs_f64(len));
                            sl.bounds
                                .push((now.duration_since(epoch).as_nanos() as u64, 0));
                        }
                    }
                    barrier.wait();
                    let Some(deadline) = lock(slicing).next else {
                        break;
                    };
                    while stream.issued < max_per_client && Instant::now() < deadline {
                        let mut sample = call_one(pool, shape, stream, client, epoch, recorder);
                        sample.slice = slice;
                        mine.push(sample);
                    }
                }
                lock(out).extend(mine);
            });
        }
    });
    let Slicing {
        calibrations,
        bounds,
        ..
    } = slicing
        .into_inner()
        .expect("client state poisoned by a panicking client");
    let mut samples = out
        .into_inner()
        .expect("client state poisoned by a panicking client");
    samples.sort_by_key(|s| (s.client, s.idx));
    let point = |i: usize| {
        calibrations
            .get(i)
            .map_or(calib::NOMINAL_MS, |t| crate::stats::median(t))
    };
    let slices: Vec<Slice> = bounds
        .iter()
        .enumerate()
        .map(|(i, &(start, end))| Slice {
            active: Duration::from_nanos(end.saturating_sub(start)),
            ok: samples
                .iter()
                .filter(|s| s.slice == i && s.reply.is_ok())
                .count(),
            factor: calib::factor(point(i), point(i + 1)),
        })
        .collect();
    for s in &mut samples {
        s.factor = slices[s.slice].factor;
    }
    let peak_rss_mb = crate::stats::peak_rss_mb();
    let report = pool.shutdown();
    Phase {
        samples,
        slices,
        setup,
        warmup,
        report,
        peak_rss_mb,
        streams,
        demo,
    }
}
