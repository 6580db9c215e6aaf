//! The traced run: one fixed request list replayed at each layer's public
//! entry point, every layer on an engine of its own built from the same
//! seed, so state evolves identically and no layer warms another's
//! caches. Layers take turns in blocks of about 500 ms of requests, so a
//! slow drift of the host's speed shows in every layer alike instead of
//! in their differences.
//!
//! Layers, outermost first: `client` (`Client::request` over the socket),
//! `codec` (the four `protocol` codec calls), `handler`
//! (`handler::handle` on `serve(..).state()`), `durable`
//! (`DurableBstSystem`, `churn` only), `shard` (`ShardedBstSystem` /
//! `ShardQuery`), `core` (per-shard `Query` calls), plus the kernels
//! `bloom` (codec decode, `for_each_member`) and `wal` (`Wal::append`).
//! Every layer's answers must equal the client's, bit for bit.
//!
//! Spans (request, layer, operation, start, end) are kept in memory and
//! written to `out/<workload>.trace.jsonl` at exit. A layer's time for a
//! request is the sum of its spans; its self time is its mean minus the
//! mean of the layer inside it, so the self times add up to the client's
//! round trip by construction, and the check is that none is negative
//! beyond noise. The first fifth of the requests warm the caches and are
//! left out of every mean, as the warm-up is in a run.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bst_bloom::BloomFilter;
use bst_core::error::BstError;
use bst_core::query::Query;
use bst_core::store::FilterId;
use bst_core::wal::{FsyncPolicy, Wal, WalRecord};
use bst_server::client::Client;
use bst_server::handler;
use bst_server::protocol::{self, Request, Response, StatsReply, Target, WireError};
use bst_server::server::ServerHandle;
use bst_server::session::Session;
use bst_shard::{BatchObs, DurableBstSystem, ShardQuery, ShardedBstSystem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::data::Data;
use crate::json::Json;
use crate::place;
use crate::report::{Metric, Outcome};
use crate::setup::{durable_config, out_dir, peak_rss_mib, serve_engine, SetupTimes, Stack};
use crate::stats::median;
use crate::workload::{is_write, Op, Workload};

/// Requests replayed per second of `--seconds`, per workload: sized so a
/// traced run takes about as long as an untraced one.
fn requests(workload: Workload, seconds: f64) -> usize {
    let per_second = match workload {
        Workload::HotSample => 2000.0,
        Workload::ColdBatch => 2.0,
        Workload::ColdReconstruct => 15.0,
        Workload::Churn => 125.0,
    };
    ((per_second * seconds).round() as usize).max(5)
}

/// A block ends once the client layer has spent this long on it: long
/// enough that refilling the caches after a switch costs little (with
/// 100 ms blocks, `hot-sample`'s traced round trip came out about 40%
/// slower than with 500 ms ones), short enough that most bursts on the
/// host land on every layer of a request.
const BLOCK: Duration = Duration::from_millis(500);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Layer {
    Client,
    Codec,
    Handler,
    Durable,
    Shard,
    Core,
    Bloom,
    Wal,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Client => "client",
            Layer::Codec => "codec",
            Layer::Handler => "handler",
            Layer::Durable => "durable",
            Layer::Shard => "shard",
            Layer::Core => "core",
            Layer::Bloom => "bloom",
            Layer::Wal => "wal",
        }
    }

    /// The layer whose span encloses this one's for the same request.
    fn parent(self, durable: bool) -> Option<Layer> {
        match self {
            Layer::Client => None,
            Layer::Codec | Layer::Handler => Some(Layer::Client),
            Layer::Durable | Layer::Bloom => Some(Layer::Handler),
            Layer::Shard if durable => Some(Layer::Durable),
            Layer::Shard => Some(Layer::Handler),
            Layer::Core => Some(Layer::Shard),
            Layer::Wal => Some(Layer::Durable),
        }
    }
}

struct Span {
    req: usize,
    layer: Layer,
    op: &'static str,
    start: Instant,
    end: Instant,
}

impl Span {
    fn us(&self) -> f64 {
        micros(self.start, self.end)
    }
}

/// The in-memory span log.
struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// Runs `f` as one span; returns its result and its microseconds.
    fn time<T>(
        &mut self,
        req: usize,
        layer: Layer,
        op: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            req,
            layer,
            op,
            start,
            end,
        });
        (out, micros(start, end))
    }

    /// Mean over requests `from..n` of each request's summed `layer` time.
    fn layer_mean(&self, layer: Layer, from: usize, n: usize) -> f64 {
        let total: f64 = self
            .spans
            .iter()
            .filter(|s| s.layer == layer && (from..n).contains(&s.req))
            .map(Span::us)
            .sum();
        total / (n - from) as f64
    }

    /// The durations of `layer`'s `op` spans for requests from `from` on.
    fn op_times(&self, layer: Layer, op: &str, from: usize) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.op == op && s.req >= from)
            .map(Span::us)
            .collect()
    }

    fn write(&self, path: &std::path::Path, durable: bool) -> std::io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as f64;
        for s in &self.spans {
            let parent = s.layer.parent(durable);
            let line = Json::obj([
                ("req", Json::Num(s.req as f64)),
                ("layer", Json::Str(s.layer.name().into())),
                ("op", Json::Str(s.op.into())),
                ("start_ns", Json::Num(ns(s.start))),
                ("end_ns", Json::Num(ns(s.end))),
                (
                    "parent",
                    parent.map_or(Json::Null, |p| Json::Str(p.name().into())),
                ),
            ]);
            writeln!(file, "{}", line.render())?;
        }
        file.flush()
    }
}

fn micros(start: Instant, end: Instant) -> f64 {
    end.duration_since(start).as_secs_f64() * 1e6
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Counts checks; keeps the first few failures' descriptions.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(what());
            }
        }
    }
}

pub fn trace(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let data = Arc::new(Data::generate(seed));
    let mut spans = Spans {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let mut tally = Tally::default();
    let (metrics, extra) = match replay(workload, &data, seed, seconds, &mut spans, &mut tally) {
        Ok(found) => found,
        Err(e) => {
            tally.errors.push(e);
            (Vec::new(), Vec::new())
        }
    };
    let path = out_dir().join(format!("{}.trace.jsonl", workload.name()));
    let written =
        std::fs::create_dir_all(out_dir()).and_then(|()| spans.write(&path, workload.durable()));
    if let Err(e) = written {
        eprintln!("bst-benchmark: cannot write {}: {e}", path.display());
    }
    Outcome {
        workload,
        seed,
        seconds,
        traced: true,
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        metrics,
        extra,
    }
}

/// A layer below the codec, replaying one request at a time.
trait Replay {
    fn layer(&self) -> Layer;
    fn step(
        &mut self,
        i: usize,
        conn: usize,
        req: &Request,
        spans: &mut Spans,
    ) -> Result<Response, String>;
    /// Numbers the layer's own counters hold, over the measured requests.
    fn extra(&self) -> Vec<Metric> {
        Vec::new()
    }
}

fn replay(
    workload: Workload,
    data: &Arc<Data>,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let n = requests(workload, seconds);
    let warm = n / 5;
    let durable = workload.durable();
    // One thread replays every connection, so the run's placement becomes:
    // this thread and every server connection thread on one CPU.
    let cpu = workload.cpus(1)[0];
    if let Some(cpu) = cpu {
        place::pin(0, &[cpu]);
    }
    let (mut traced, setup) = Wire::start(workload, data, "client", cpu)?;
    let (mut untraced, _) = Wire::start(workload, data, "untraced", cpu)?;
    let mut below: Vec<Box<dyn Replay>> = vec![Box::new(HandlerLayer::start(workload, data)?)];
    if durable {
        below.push(Box::new(FacadeLayer::start(workload, data, true, warm)?));
    }
    below.push(Box::new(FacadeLayer::start(workload, data, false, warm)?));
    below.push(Box::new(CoreLayer::start(workload, data)?));

    let mut streams = workload.streams(data, seed);
    let mut reqs: Vec<(usize, Request)> = Vec::with_capacity(n);
    let mut answers: Vec<Option<Response>> = Vec::with_capacity(n);
    let mut untraced_rtt = Vec::with_capacity(n);
    let mut at_warm = None;
    let mut codec_bytes = (0usize, 0usize);
    let mut i = 0;
    while i < n {
        let first = i;
        let block_start = Instant::now();
        while i < n && (i == first || block_start.elapsed() < BLOCK) {
            if i == warm {
                at_warm = Some(stats(&mut traced.clients[0])?);
            }
            let conn = i % streams.len();
            let Op { req, check } = streams[conn].next_op();
            let client = &mut traced.clients[conn];
            let (reply, _) = spans.time(i, Layer::Client, "request", || client.request(&req));
            let answer = reply.ok();
            if let Some(resp) = &answer {
                streams[conn].observe(resp);
            }
            tally.check(
                answer.as_ref().is_some_and(|r| check.verify(data, r)),
                || format!("client: request {i} failed its check"),
            );
            reqs.push((conn, req));
            answers.push(answer);
            i += 1;
        }
        for j in first..i {
            let (conn, req) = &reqs[j];
            let start = Instant::now();
            let _ = untraced.clients[*conn].request(req);
            untraced_rtt.push(micros(start, Instant::now()));
            if let Some(answer) = &answers[j] {
                let (req_len, resp_len) = codec_step(j, req, answer, spans, tally);
                if j >= warm {
                    codec_bytes.0 += req_len;
                    codec_bytes.1 += resp_len;
                }
            }
        }
        for layer in &mut below {
            for j in first..i {
                let (conn, req) = &reqs[j];
                let got = layer.step(j, *conn, req, spans);
                tally.check(got.as_ref().ok() == answers[j].as_ref(), || {
                    format!("{}: request {j} answered {got:?}", layer.layer().name())
                });
            }
        }
    }
    let at_end = stats(&mut traced.clients[0])?;
    let at_warm = at_warm.unwrap_or_else(|| at_end.clone());
    let mut extra: Vec<Metric> = below.iter().flat_map(|l| l.extra()).collect();
    drop(below);
    traced.stop();
    untraced.stop();

    let m = n - warm;
    let lm = |layer| spans.layer_mean(layer, warm, n);
    let (rtt, codec, handle) = (lm(Layer::Client), lm(Layer::Codec), lm(Layer::Handler));
    let (durable_us, shard, core) = (lm(Layer::Durable), lm(Layer::Shard), lm(Layer::Core));
    let engine = if durable { durable_us } else { shard };
    let traced_rtt = spans.op_times(Layer::Client, "request", warm);
    let bloom = bloom_layer(data, &reqs, spans);
    let metric = |name: &str, value: f64, unit: &'static str| Metric::new(name, value, unit, m);
    // Engine counters the server keeps, per measured request.
    let count = |name: &str, counter: fn(&StatsReply) -> u64| {
        let delta = counter(&at_end) - counter(&at_warm);
        metric(name, delta as f64 / m as f64, "count")
    };
    let metrics = vec![
        metric("client.rtt_us", rtt, "us"),
        metric("client.socket_us", rtt - handle - codec, "us"),
        metric("server.codec_us", codec, "us"),
        metric("server.handle_us", handle, "us"),
        metric("server.dispatch_us", handle - engine, "us"),
        metric("server.request_bytes", codec_bytes.0 as f64 / m as f64, "B"),
        metric(
            "server.response_bytes",
            codec_bytes.1 as f64 / m as f64,
            "B",
        ),
        metric("shard.op_us", shard, "us"),
        metric("shard.self_us", shard - core, "us"),
        count("shard.cache_hits", |s| s.weight_cache_hits),
        count("shard.cache_misses", |s| s.weight_cache_misses),
        count("shard.cache_repairs", |s| s.weight_cache_repairs),
        metric("core.op_us", core, "us"),
        count("core.intersections", |s| s.engine_intersections),
        count("core.memberships", |s| s.engine_memberships),
        count("core.nodes", |s| s.engine_nodes_visited),
        count("core.backtracks", |s| s.engine_backtracks),
        Metric::new("bloom.decode_us", bloom.decode_us, "us", bloom.filters),
        Metric::new(
            "bloom.scan_ns_per_key",
            bloom.scan_ns_per_key,
            "ns",
            bloom.filters,
        ),
        Metric::new("setup.build_s", setup.build_s, "s", 1),
        Metric::new("setup.load_s", setup.load_s, "s", 1),
        metric(
            "trace.overhead_frac",
            median(&traced_rtt) / median(&untraced_rtt[warm..]) - 1.0,
            "frac",
        ),
    ];

    for (name, layer, op) in [
        ("shard.write_us", Layer::Shard, "write"),
        ("durable.write_us", Layer::Durable, "write"),
        ("core.live_weight_us", Layer::Core, "live_weight"),
        ("core.sample_us", Layer::Core, "sample"),
        ("core.reconstruct_us", Layer::Core, "reconstruct"),
        ("core.weigh_phase_us", Layer::Core, "weigh_phase"),
        ("core.sample_phase_us", Layer::Core, "sample_phase"),
    ] {
        let v = spans.op_times(layer, op, warm);
        if !v.is_empty() {
            extra.push(Metric::new(name, mean(&v), "us", v.len()));
        }
    }
    let mut breakdown = vec![
        ("socket", rtt - handle - codec),
        ("codec", codec),
        ("dispatch", handle - engine),
    ];
    if durable {
        breakdown.push(("durable", durable_us - shard));
        let durable_writes = spans.op_times(Layer::Durable, "write", warm);
        let shard_writes = spans.op_times(Layer::Shard, "write", warm);
        extra.push(Metric::new(
            "durable.log_us",
            mean(&durable_writes) - mean(&shard_writes),
            "us",
            durable_writes.len(),
        ));
        let wal = wal_layer(&reqs, &answers, warm, spans)?;
        extra.push(Metric::new(
            "wal.append_us",
            wal.append_us,
            "us",
            wal.writes,
        ));
        extra.push(Metric::new(
            "wal.bytes_per_write",
            wal.bytes_per_write,
            "B",
            wal.writes,
        ));
    }
    breakdown.push(("shard.self", shard - core));
    breakdown.push(("core", core));
    extra.push(Metric::new("trace.peak_rss_mib", peak_rss_mib(), "MiB", 1));
    let sum: f64 = breakdown.iter().map(|(_, v)| v).sum();
    println!(
        "{} breakdown_us {} sum={sum:.3} rtt={rtt:.3}",
        workload.name(),
        breakdown
            .iter()
            .map(|(k, v)| format!("{k}={v:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    Ok((metrics, extra))
}

fn stats(client: &mut Client) -> Result<StatsReply, String> {
    client.stats().map_err(|e| format!("STATS: {e}"))
}

/// A served stack and one client per connection.
struct Wire {
    stack: Stack,
    clients: Vec<Client>,
}

impl Wire {
    fn stop(self) {
        drop(self.clients);
        self.stack.stop();
    }

    fn start(
        workload: Workload,
        data: &Data,
        tag: &str,
        cpu: Option<usize>,
    ) -> Result<(Wire, SetupTimes), String> {
        let wal_dir = workload.durable().then(|| scratch_dir(tag));
        let (stack, times) = Stack::start(data, wal_dir.as_deref())?;
        let clients = (0..workload.connections())
            .map(|_| stack.client_on(cpu))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((Wire { stack, clients }, times))
    }
}

/// Layer 2: the four codec calls of one round trip; each must round-trip
/// exactly. Returns the request and response payload sizes.
fn codec_step(
    i: usize,
    req: &Request,
    answer: &Response,
    spans: &mut Spans,
    tally: &mut Tally,
) -> (usize, usize) {
    let (bytes, _) = spans.time(i, Layer::Codec, "encode_request", || {
        protocol::encode_request(req)
    });
    let (decoded, _) = spans.time(i, Layer::Codec, "decode_request", || {
        protocol::decode_request(&bytes)
    });
    let (reply, _) = spans.time(i, Layer::Codec, "encode_response", || {
        protocol::encode_response(answer)
    });
    let (back, _) = spans.time(i, Layer::Codec, "decode_response", || {
        protocol::decode_response(&reply)
    });
    tally.check(
        decoded.as_ref() == Ok(req) && matches!(&back, Ok(Ok(r)) if r == answer),
        || format!("codec: request {i} does not round-trip"),
    );
    (bytes.len(), reply.len())
}

/// Layer 3: `handler::handle` on a served state, one session per
/// connection, no socket traffic.
struct HandlerLayer {
    handle: ServerHandle,
    sessions: Vec<Session>,
    wal_dir: Option<PathBuf>,
}

impl HandlerLayer {
    fn start(workload: Workload, data: &Data) -> Result<HandlerLayer, String> {
        let wal_dir = workload.durable().then(|| scratch_dir("handler"));
        let handle = serve_engine(data, wal_dir.as_deref())?;
        let epoch = handle.state().engine.read().epoch;
        let mut loader = Session::new(epoch);
        for (i, keys) in data.sets.iter().enumerate() {
            let req = Request::Create { keys: keys.clone() };
            let out = handler::handle(handle.state(), &mut loader, req);
            if out.reply != Ok(Response::Created { id: i as u64 }) {
                return Err(format!(
                    "handler: CREATE of set {i} answered {:?}",
                    out.reply
                ));
            }
        }
        Ok(HandlerLayer {
            handle,
            sessions: (0..workload.connections())
                .map(|_| Session::new(epoch))
                .collect(),
            wal_dir,
        })
    }
}

impl Replay for HandlerLayer {
    fn layer(&self) -> Layer {
        Layer::Handler
    }

    fn step(
        &mut self,
        i: usize,
        conn: usize,
        req: &Request,
        spans: &mut Spans,
    ) -> Result<Response, String> {
        let state = self.handle.state();
        let session = &mut self.sessions[conn];
        let req = req.clone();
        let (out, _) = spans.time(i, Layer::Handler, "handle", || {
            handler::handle(state, session, req)
        });
        out.reply.map_err(|e| e.to_string())
    }
}

impl Drop for HandlerLayer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(dir) = &self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Layers 4 and 5: the durable facade (writes logged before they
/// return) or the bare sharded engine, called directly. Reads keep one
/// `ShardQuery` per stored id and connection open, as sessions do.
struct FacadeLayer {
    durable: Option<DurableBstSystem>,
    sys: ShardedBstSystem,
    handles: Vec<HashMap<u64, ShardQuery>>,
    wal_dir: Option<PathBuf>,
    /// The batch-phase timings the engine records, and their (batches,
    /// weigh µs, sample µs) totals when the measured requests began.
    obs: Arc<BatchObs>,
    warm: usize,
    at_warm: (u64, f64, f64),
}

impl FacadeLayer {
    fn start(
        workload: Workload,
        data: &Data,
        durable: bool,
        warm: usize,
    ) -> Result<FacadeLayer, String> {
        let wal_dir = durable.then(|| scratch_dir("durable"));
        let durable = match &wal_dir {
            Some(dir) => Some(
                DurableBstSystem::open(dir, durable_config(), || data.build_engine())
                    .map_err(|e| format!("durable open: {e}"))?,
            ),
            None => None,
        };
        let sys = durable
            .as_ref()
            .map_or_else(|| data.build_engine(), DurableBstSystem::system);
        let obs = Arc::new(BatchObs::unregistered());
        sys.set_batch_obs(Some(Arc::clone(&obs)));
        let layer = FacadeLayer {
            durable,
            sys,
            handles: (0..workload.connections())
                .map(|_| HashMap::new())
                .collect(),
            wal_dir,
            obs,
            warm,
            at_warm: (0, 0.0, 0.0),
        };
        for (i, keys) in data.sets.iter().enumerate() {
            let got = layer.write(&Request::Create { keys: keys.clone() })?;
            if got != (Response::Created { id: i as u64 }) {
                return Err(format!("facade: CREATE of set {i} answered {got:?}"));
            }
        }
        Ok(layer)
    }

    fn write(&self, req: &Request) -> Result<Response, String> {
        match &self.durable {
            Some(d) => durable_write(d, req),
            None => shard_write(&self.sys, req),
        }
    }

    fn batch_totals(&self) -> (u64, f64, f64) {
        let o = &self.obs;
        (o.weigh_us.count(), o.weigh_us.sum(), o.sample_us.sum())
    }
}

impl Replay for FacadeLayer {
    fn layer(&self) -> Layer {
        if self.durable.is_some() {
            Layer::Durable
        } else {
            Layer::Shard
        }
    }

    fn step(
        &mut self,
        i: usize,
        conn: usize,
        req: &Request,
        spans: &mut Spans,
    ) -> Result<Response, String> {
        if i == self.warm {
            self.at_warm = self.batch_totals();
        }
        let layer = self.layer();
        if is_write(req) {
            if let Request::DropSet { id } = req {
                self.handles[conn].remove(id);
            }
            return spans.time(i, layer, "write", || self.write(req)).0;
        }
        let filters = adhoc_filters(req)?;
        let (sys, handles) = (&self.sys, &mut self.handles[conn]);
        spans
            .time(i, layer, "read", || shard_read(sys, handles, req, &filters))
            .0
    }

    /// Phase-1 (weighing) and phase-2 (sampling) time per batch, as the
    /// engine's `BatchObs` recorded them.
    fn extra(&self) -> Vec<Metric> {
        let (batches, weigh, sample) = self.batch_totals();
        let (b0, w0, s0) = self.at_warm;
        let n = batches - b0;
        if self.durable.is_some() || n == 0 {
            return Vec::new();
        }
        vec![
            Metric::new("shard.weigh_us", (weigh - w0) / n as f64, "us", n as usize),
            Metric::new(
                "shard.sample_us",
                (sample - s0) / n as f64,
                "us",
                n as usize,
            ),
        ]
    }
}

impl Drop for FacadeLayer {
    fn drop(&mut self) {
        self.durable.take();
        if let Some(dir) = &self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The filters a read addresses.
fn targets(req: &Request) -> &[Target] {
    match req {
        Request::Sample { target, .. } | Request::Reconstruct { target } => {
            std::slice::from_ref(target)
        }
        Request::Batch { targets, .. } => targets,
        _ => &[],
    }
}

/// The decoded ad-hoc filters a request carries. Decoding happens
/// outside every span below the handler; `bloom.decode_us` times it.
fn adhoc_filters(req: &Request) -> Result<Vec<BloomFilter>, String> {
    targets(req)
        .iter()
        .filter_map(|t| match t {
            Target::Adhoc(bytes) => {
                Some(bst_bloom::codec::decode(bytes).map_err(|e| e.to_string()))
            }
            Target::Stored(_) => None,
        })
        .collect()
}

fn shard_write(sys: &ShardedBstSystem, req: &Request) -> Result<Response, String> {
    let e = |e: BstError| e.to_string();
    match req {
        Request::Create { keys } => sys
            .create(keys.iter().copied())
            .map(|id| Response::Created { id: id.raw() })
            .map_err(e),
        Request::InsertKeys { id, keys } => sys
            .insert_keys(FilterId::from_raw(*id), keys.iter().copied())
            .map(|()| Response::Ok)
            .map_err(e),
        Request::RemoveKeys { id, keys } => sys
            .remove_keys(FilterId::from_raw(*id), keys.iter().copied())
            .map(|()| Response::Ok)
            .map_err(e),
        Request::DropSet { id } => sys
            .drop_set(FilterId::from_raw(*id))
            .map(|()| Response::Ok)
            .map_err(e),
        Request::OccInsert { key } => sys
            .insert_occupied(*key)
            .map(|generation| Response::Generation { generation })
            .map_err(e),
        Request::OccRemove { key } => sys
            .remove_occupied(*key)
            .map(|generation| Response::Generation { generation })
            .map_err(e),
        other => Err(format!("not a write: {other:?}")),
    }
}

fn durable_write(d: &DurableBstSystem, req: &Request) -> Result<Response, String> {
    let e = |e: bst_shard::DurableError| e.to_string();
    match req {
        Request::Create { keys } => d
            .create(keys.iter().copied())
            .map(|id| Response::Created { id: id.raw() })
            .map_err(e),
        Request::InsertKeys { id, keys } => d
            .insert_keys(FilterId::from_raw(*id), keys.iter().copied())
            .map(|()| Response::Ok)
            .map_err(e),
        Request::RemoveKeys { id, keys } => d
            .remove_keys(FilterId::from_raw(*id), keys.iter().copied())
            .map(|()| Response::Ok)
            .map_err(e),
        Request::DropSet { id } => d
            .drop_set(FilterId::from_raw(*id))
            .map(|()| Response::Ok)
            .map_err(e),
        Request::OccInsert { key } => d
            .insert_occupied(*key)
            .map(|generation| Response::Generation { generation })
            .map_err(e),
        Request::OccRemove { key } => d
            .remove_occupied(*key)
            .map(|generation| Response::Generation { generation })
            .map_err(e),
        other => Err(format!("not a write: {other:?}")),
    }
}

/// A read through the sharded facade: what the handler does, minus the
/// session lookup, the ad-hoc decode and the stats drain.
fn shard_read(
    sys: &ShardedBstSystem,
    handles: &mut HashMap<u64, ShardQuery>,
    req: &Request,
    filters: &[BloomFilter],
) -> Result<Response, String> {
    let e = |e: BstError| e.to_string();
    match req {
        Request::Sample {
            target: Target::Stored(id),
            seed,
        } => {
            let q = match handles.entry(*id) {
                std::collections::hash_map::Entry::Occupied(q) => q.into_mut(),
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(sys.query_id(FilterId::from_raw(*id)).map_err(e)?)
                }
            };
            q.sample(&mut StdRng::seed_from_u64(*seed))
                .map(|key| Response::Sampled { key })
                .map_err(e)
        }
        Request::Reconstruct {
            target: Target::Adhoc(_),
        } => sys
            .query(&filters[0])
            .reconstruct()
            .map(|keys| Response::Keys { keys })
            .map_err(e),
        Request::Batch { seed, targets } if filters.len() == targets.len() => {
            let (answers, _) = sys.query_batch(filters, *seed, 0);
            Ok(Response::Batch {
                results: answers
                    .into_iter()
                    .map(|r| r.map_err(WireError::from))
                    .collect(),
            })
        }
        other => Err(format!("no shard-layer replay for {other:?}")),
    }
}

/// The per-shard weights `ShardQuery` memoizes, mirrored so the core
/// layer calls `live_weight` exactly when the shard layer does:
/// (weight, set generation, tree generation) per shard.
struct Mirror {
    query: ShardQuery,
    weights: Vec<Option<(u64, u64, u64)>>,
}

/// Layer 6: only the per-shard `Query` calls, each its own span; the
/// shard layer's choices (which shard, which seed) are made in plain code
/// around them. Writes have no per-shard entry point: they go through the
/// facade, untimed.
struct CoreLayer {
    sys: ShardedBstSystem,
    mirrors: Vec<HashMap<u64, Mirror>>,
}

impl CoreLayer {
    fn start(workload: Workload, data: &Data) -> Result<CoreLayer, String> {
        let sys = data.build_engine();
        for keys in &data.sets {
            sys.create(keys.iter().copied())
                .map_err(|e| e.to_string())?;
        }
        Ok(CoreLayer {
            sys,
            mirrors: (0..workload.connections())
                .map(|_| HashMap::new())
                .collect(),
        })
    }
}

impl Replay for CoreLayer {
    fn layer(&self) -> Layer {
        Layer::Core
    }

    fn step(
        &mut self,
        i: usize,
        conn: usize,
        req: &Request,
        spans: &mut Spans,
    ) -> Result<Response, String> {
        if is_write(req) {
            if let Request::DropSet { id } = req {
                self.mirrors[conn].remove(id);
            }
            return shard_write(&self.sys, req);
        }
        let filters = adhoc_filters(req)?;
        match req {
            Request::Sample {
                target: Target::Stored(id),
                seed,
            } => core_sample(&self.sys, &mut self.mirrors[conn], *id, *seed, i, spans),
            Request::Reconstruct { .. } => core_reconstruct(&self.sys, &filters[0], i, spans),
            Request::Batch { seed, .. } => core_batch(&self.sys, &filters, *seed, i, spans),
            other => Err(format!("no core-layer replay for {other:?}")),
        }
    }
}

/// `ShardQuery::sample`: each shard's `live_weight` recomputed only when
/// its stamps moved, then one draw on the chosen shard.
fn core_sample(
    sys: &ShardedBstSystem,
    mirrors: &mut HashMap<u64, Mirror>,
    id: u64,
    seed: u64,
    req: usize,
    spans: &mut Spans,
) -> Result<Response, String> {
    let m = match mirrors.entry(id) {
        std::collections::hash_map::Entry::Occupied(m) => m.into_mut(),
        std::collections::hash_map::Entry::Vacant(slot) => {
            let query = sys
                .query_id(FilterId::from_raw(id))
                .map_err(|e| e.to_string())?;
            let weights = vec![None; query.shard_handles().len()];
            slot.insert(Mirror { query, weights })
        }
    };
    let mut weights = Vec::with_capacity(m.weights.len());
    for (cached, h) in m.weights.iter_mut().zip(m.query.shard_handles()) {
        let (set_gen, tree_gen, stale) = h.staleness().map_err(|e| e.to_string())?;
        let w = match *cached {
            Some((w, s, t)) if (s, t, stale) == (set_gen, tree_gen, false) => w,
            _ => {
                let ((outcome, s, t), _) =
                    spans.time(req, Layer::Core, "live_weight", || h.live_weight_stamped());
                let w = soft_weight(outcome)?;
                *cached = Some((w, s, t));
                w
            }
        };
        weights.push(w);
    }
    let total: u64 = weights.iter().sum();
    if total == 0 {
        return Err("no live weight".into());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pick = rng.gen_range(0..total);
    for (h, w) in m.query.shard_handles().iter().zip(weights) {
        if pick < w {
            let (key, _) = spans.time(req, Layer::Core, "sample", || h.sample(&mut rng));
            return key
                .map(|key| Response::Sampled { key })
                .map_err(|e| e.to_string());
        }
        pick -= w;
    }
    Err("shard pick fell through".into())
}

/// A weight outcome as the shard layer counts it: empty projections and
/// empty trees weigh 0; anything else is an error.
fn soft_weight(outcome: Result<u64, BstError>) -> Result<u64, String> {
    match outcome {
        Ok(w) => Ok(w),
        Err(BstError::EmptyFilter | BstError::EmptyTree) => Ok(0),
        Err(e) => Err(e.to_string()),
    }
}

/// `ShardQuery::reconstruct`: one reconstruction per shard, concatenated.
fn core_reconstruct(
    sys: &ShardedBstSystem,
    filter: &BloomFilter,
    req: usize,
    spans: &mut Spans,
) -> Result<Response, String> {
    let mut keys = Vec::new();
    for shard in sys.shard_systems() {
        let q = shard.query(filter);
        match spans
            .time(req, Layer::Core, "reconstruct", || q.reconstruct())
            .0
        {
            Ok(part) => keys.extend(part),
            Err(BstError::EmptyFilter | BstError::EmptyTree) => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(Response::Keys { keys })
}

/// The engine's per-cell RNG seed (`ShardedBstSystem::query_batch`), so
/// the core layer draws what the batch path draws.
fn cell_seed(seed: u64, shard: u64, slot: u64) -> u64 {
    seed ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ slot.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Runs `work` on each item, spread over `workers` scoped threads in
/// contiguous chunks as the engine's batch pool does; results keep the
/// items' order.
fn pooled<T: Sync, R: Send>(items: &[T], workers: usize, work: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let chunk = items
        .len()
        .div_ceil(workers.clamp(1, items.len().max(1)))
        .max(1);
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(move || part.iter().map(work).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("batch worker panicked"))
            .collect()
    })
}

/// `ShardedBstSystem::query_batch` without the weight cache: phase 1
/// weighs every (shard, slot) cell, phase 2 samples one chosen cell per
/// slot, each phase one span, spread over as many threads as the engine
/// uses.
fn core_batch(
    sys: &ShardedBstSystem,
    filters: &[BloomFilter],
    seed: u64,
    req: usize,
    spans: &mut Spans,
) -> Result<Response, String> {
    let shards = sys.shard_systems();
    let slots = filters.len();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Slot-major, the order the engine lists the cells it weighs in.
    let cells: Vec<(usize, usize)> = (0..slots)
        .flat_map(|slot| (0..shards.len()).map(move |shard| (shard, slot)))
        .collect();
    let (weighed, _) = spans.time(req, Layer::Core, "weigh_phase", || {
        pooled(&cells, workers, |&(shard, slot)| {
            let q = shards[shard].query(&filters[slot]);
            let (w, _, _) = q.live_weight_stamped();
            (q, w)
        })
    });
    let mut grid: Vec<Option<(Query, u64)>> = Vec::with_capacity(cells.len());
    for (q, w) in weighed {
        grid.push(Some((q, soft_weight(w)?)));
    }
    // grid[slot * S + shard], from the slot-major cell order above.
    let s = shards.len();
    let mut chosen = Vec::with_capacity(slots);
    for slot in 0..slots {
        let row = &grid[slot * s..(slot + 1) * s];
        let total: u64 = row.iter().flatten().map(|c| c.1).sum();
        if total == 0 {
            return Err(format!("slot {slot} has no live weight"));
        }
        let mut rng = StdRng::seed_from_u64(cell_seed(seed, u64::MAX, slot as u64));
        let mut pick = rng.gen_range(0..total);
        let mut hit = None;
        for (shard, cell) in row.iter().enumerate() {
            let w = cell.as_ref().map_or(0, |c| c.1);
            if pick < w {
                hit = Some(shard);
                break;
            }
            pick -= w;
        }
        let shard = hit.ok_or("shard pick fell through")?;
        let (q, _) = grid[slot * s + shard].take().ok_or("cell chosen twice")?;
        chosen.push((slot, shard, q));
    }
    let (sampled, _) = spans.time(req, Layer::Core, "sample_phase", || {
        pooled(&chosen, workers, |(slot, shard, q)| {
            q.sample(&mut StdRng::seed_from_u64(cell_seed(
                seed,
                *shard as u64,
                *slot as u64,
            )))
        })
    });
    Ok(Response::Batch {
        results: sampled
            .into_iter()
            .map(|r| r.map_err(WireError::from))
            .collect(),
    })
}

struct BloomTimes {
    decode_us: f64,
    scan_ns_per_key: f64,
    filters: usize,
}

/// Filters decoded and scanned per traced run at most.
const BLOOM_FILTERS: usize = 64;

/// The filter kernels on this workload's filters: codec decode of each
/// target's encoding (an ad-hoc target's wire bytes; a stored target's
/// `GET` encoding) and a `for_each_member` scan over the occupancy.
fn bloom_layer(data: &Data, reqs: &[(usize, Request)], spans: &mut Spans) -> BloomTimes {
    let mut encoded: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (i, (_, req)) in reqs.iter().enumerate() {
        for target in targets(req) {
            match target {
                _ if encoded.len() == BLOOM_FILTERS => break,
                Target::Adhoc(bytes) => encoded.push((i, bytes.clone())),
                Target::Stored(id) if seen.insert(*id) => encoded.push((
                    i,
                    bst_bloom::codec::encode(&data.filter(&data.sets[*id as usize])).to_vec(),
                )),
                Target::Stored(_) => {}
            }
        }
    }
    let (mut decode, mut scan) = (0.0, 0.0);
    for (i, bytes) in &encoded {
        let (filter, us) = spans.time(*i, Layer::Bloom, "decode", || {
            bst_bloom::codec::decode(bytes)
        });
        decode += us;
        if let Ok(filter) = filter {
            let (_, us) = spans.time(*i, Layer::Bloom, "scan", || {
                let mut members = 0u64;
                filter.for_each_member(data.occupied.iter().copied(), |_| members += 1);
                std::hint::black_box(members)
            });
            scan += us;
        }
    }
    let n = encoded.len();
    BloomTimes {
        decode_us: decode / n as f64,
        scan_ns_per_key: scan * 1e3 / (n * data.occupied.len()) as f64,
        filters: n,
    }
}

struct WalTimes {
    append_us: f64,
    bytes_per_write: f64,
    writes: usize,
}

/// `Wal::append` of the replayed writes, as the durable facade logs them,
/// on a scratch segment with the run's fsync policy.
fn wal_layer(
    reqs: &[(usize, Request)],
    answers: &[Option<Response>],
    warm: usize,
    spans: &mut Spans,
) -> Result<WalTimes, String> {
    let dir = scratch_dir("wal");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut wal = Wal::open(&dir.join("scratch.log"), FsyncPolicy::Never, 0)
        .map_err(|e| format!("wal open: {e}"))?;
    let mut times = Vec::new();
    let mut bytes_before = 0;
    for (i, ((_, req), answer)) in reqs.iter().zip(answers).enumerate() {
        let record = match (req, answer) {
            (Request::Create { keys }, Some(Response::Created { id })) => WalRecord::Create {
                id: *id,
                keys: keys.clone(),
            },
            (Request::InsertKeys { id, keys }, _) => WalRecord::InsertKeys {
                id: *id,
                keys: keys.clone(),
            },
            (Request::RemoveKeys { id, keys }, _) => WalRecord::RemoveKeys {
                id: *id,
                keys: keys.clone(),
            },
            (Request::DropSet { id }, _) => WalRecord::DropSet { id: *id },
            (Request::OccInsert { key }, _) => WalRecord::OccInsert { id: *key },
            (Request::OccRemove { key }, _) => WalRecord::OccRemove { id: *key },
            _ => continue,
        };
        if i >= warm && times.is_empty() {
            bytes_before = wal.len();
        }
        let (appended, us) = spans.time(i, Layer::Wal, "append", || wal.append(&record));
        appended.map_err(|e| format!("wal append: {e}"))?;
        if i >= warm {
            times.push(us);
        }
    }
    let bytes = wal.len() - bytes_before;
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(WalTimes {
        append_us: mean(&times),
        bytes_per_write: bytes as f64 / times.len() as f64,
        writes: times.len(),
    })
}

/// A per-process scratch directory under `out/` for one layer's WAL.
fn scratch_dir(layer: &str) -> PathBuf {
    let dir = out_dir().join(format!("wal-{}-{layer}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
