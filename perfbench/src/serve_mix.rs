//! `serve_mix`: a `sqlpp_server::Server` with the default `ServerConfig`
//! on loopback, in-process, and two client threads that each hold one
//! persistent `Client` and wait for every reply (a closed loop). The
//! table is small; the work is the wire codec, frame I/O, dispatch, the
//! plan cache and — on misses — parsing and planning:
//!
//! * ~80% parameterized reads from 16 hot shapes, which fit the cache;
//! * ~15% reads with inline literals, skew-drawn from 4000 distinct
//!   texts, which exceed the cache, so requests miss and evict;
//! * ~5% reads returning ~100 rows, so response encoding matters.
//!
//! Every request carries its client's own echo value as the first
//! parameter, and every reply row must return it: the canary for one
//! session's answer reaching another.

use std::time::{Duration, Instant};

use sqlpp::Engine;
use sqlpp_formats::wire::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use sqlpp_plan::{lower_query, optimize, PlanConfig};
use sqlpp_server::{Client, PlanCache, Server, ServerConfig};
use sqlpp_testkit::rng::{mix, Rng};
use sqlpp_value::{Tuple, Value};

use crate::check::{Checksum, Digest};
use crate::report::{eval_counters, report_layers, samples_of, write_trace};
use crate::stats::{OpLog, Samples};
use crate::trace::Recorder;
use crate::{fatal, mismatch, Ctx, Outcome};

const ITEMS: i64 = 500;
const CATEGORIES: [&str; 5] = ["books", "games", "tools", "garden", "music"];
const CLIENTS: usize = 2;
const SETUPS: usize = 51;
/// Distinct inline-literal texts: 500 ids × 8 stock floors.
const COLD_TEXTS: u64 = 4_000;
/// `read_tail_us` percentile: every one-second window holds over ten
/// thousand requests, so p99 leaves far more than ten beyond it.
const TAIL: f64 = 0.99;
/// Every `SAMPLE`-th traced request is replayed layer by layer.
const SAMPLE: u64 = 16;
/// `throughput_ops` and `read_tail_us` are medians over windows of this
/// length (each holds thousands of requests).
const WINDOW: Duration = Duration::from_secs(1);

const PROJECTIONS: [&str; 4] = [
    "i.name AS name",
    "i.name AS name, i.price AS price",
    "i.id AS id, i.stock AS stock",
    "i.category AS category, i.price AS price",
];
const PREDICATES: [&str; 4] = [
    "i.id = ?",
    "i.id = ? AND i.stock >= ?",
    "i.category = ? AND i.price < ?",
    "i.id BETWEEN ? AND ?",
];
const WIDE: &str = "SELECT ? AS echo, i.id AS id, i.name AS name, i.price AS price, \
                    i.stock AS stock FROM shop.items AS i WHERE i.category = ?";

#[derive(Debug, Clone)]
struct Item {
    id: i64,
    name: String,
    category: &'static str,
    price: i64,
    stock: i64,
}

fn generate(seed: u64) -> Vec<Item> {
    let mut rng = Rng::new(mix(seed, 0x5E2E));
    (0..ITEMS)
        .map(|id| Item {
            id,
            name: format!("item{id:04}"),
            category: CATEGORIES[rng.gen_range(0..CATEGORIES.len())],
            price: rng.gen_range(1..1_000i64),
            stock: rng.gen_range(0..100i64),
        })
        .collect()
}

fn load(items: &[Item]) -> Engine {
    let engine = Engine::new();
    let rows = items
        .iter()
        .map(|it| {
            let mut t = Tuple::with_capacity(5);
            t.insert("id", Value::Int(it.id));
            t.insert("name", Value::Str(it.name.clone()));
            t.insert("category", Value::Str(it.category.to_string()));
            t.insert("price", Value::Int(it.price));
            t.insert("stock", Value::Int(it.stock));
            Value::Tuple(t)
        })
        .collect();
    engine.register("shop.items", Value::Bag(rows));
    engine
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Hot,
    Cold,
    Wide,
}

const CLASSES: [Class; 3] = [Class::Hot, Class::Cold, Class::Wide];

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Hot => "hot",
            Class::Cold => "cold",
            Class::Wide => "wide",
        }
    }
}

/// One request. `proj`/`pred` index the shape tables; `args` are the
/// predicate's values (inline for cold requests, parameters otherwise).
#[derive(Debug, Clone)]
struct Op {
    class: Class,
    proj: usize,
    pred: usize,
    args: Vec<Value>,
    text: String,
    params: Vec<Value>,
}

fn hot_text(proj: usize, pred: usize) -> String {
    format!(
        "SELECT ? AS echo, {} FROM shop.items AS i WHERE {}",
        PROJECTIONS[proj], PREDICATES[pred]
    )
}

fn cold_text(id: i64, floor: i64) -> String {
    format!(
        "SELECT ? AS echo, {} FROM shop.items AS i WHERE i.id = {id} AND i.stock >= {floor}",
        PROJECTIONS[1]
    )
}

fn category(rng: &mut Rng) -> Value {
    Value::Str(CATEGORIES[rng.gen_range(0..CATEGORIES.len())].to_string())
}

/// One client's seeded request stream.
struct OpStream {
    rng: Rng,
    client: u64,
    seq: u64,
}

impl OpStream {
    fn new(seed: u64, client: u64) -> Self {
        OpStream {
            rng: Rng::new(mix(seed, 0x5E00 + client)),
            client,
            seq: 0,
        }
    }

    /// A value no other client's stream produces.
    fn echo(&mut self) -> Value {
        self.seq += 1;
        Value::Int((((self.client + 1) << 40) | self.seq) as i64)
    }

    /// Builds a request; the echo is always the first parameter, the
    /// predicate values follow unless they are inline (cold requests).
    fn op(&mut self, class: Class, proj: usize, pred: usize, args: Vec<Value>) -> Op {
        let text = match class {
            Class::Hot => hot_text(proj, pred),
            Class::Cold => cold_text(
                args[0].as_int().expect("id"),
                args[1].as_int().expect("floor"),
            ),
            Class::Wide => WIDE.to_string(),
        };
        let mut params = vec![self.echo()];
        if class != Class::Cold {
            params.extend(args.iter().cloned());
        }
        Op {
            class,
            proj,
            pred,
            args,
            text,
            params,
        }
    }

    /// Every hot shape and every wide category once, fixed arguments.
    fn warm_ops(&mut self) -> Vec<Op> {
        let mut ops = Vec::new();
        for proj in 0..PROJECTIONS.len() {
            for pred in 0..PREDICATES.len() {
                let args = match pred {
                    0 => vec![Value::Int(7)],
                    2 => vec![Value::Str(CATEGORIES[0].into()), Value::Int(500)],
                    _ => vec![Value::Int(7), Value::Int(9)],
                };
                ops.push(self.op(Class::Hot, proj, pred, args));
            }
        }
        for cat in CATEGORIES {
            ops.push(self.op(Class::Wide, 0, 0, vec![Value::Str(cat.into())]));
        }
        ops
    }

    fn next_op(&mut self) -> Op {
        let u = self.rng.next_f64();
        let rng = &mut self.rng;
        let (class, proj, pred, args) = if u < 0.80 {
            let (proj, pred) = (rng.gen_range(0..4usize), rng.gen_range(0..4usize));
            let id = rng.gen_range(0..ITEMS);
            let args = match pred {
                0 => vec![Value::Int(id)],
                1 => vec![Value::Int(id), Value::Int(rng.gen_range(0..60i64))],
                2 => vec![category(rng), Value::Int(rng.gen_range(1..30i64))],
                _ => vec![Value::Int(id), Value::Int(id + 2)],
            };
            (Class::Hot, proj, pred, args)
        } else if u < 0.95 {
            // Quadratic skew: the ~256 most popular texts draw a quarter
            // of the cold requests.
            let r = rng.next_f64();
            let k = ((r * r) * COLD_TEXTS as f64) as i64;
            let (id, floor) = (k % ITEMS, k / ITEMS);
            (Class::Cold, 1, 1, vec![Value::Int(id), Value::Int(floor)])
        } else {
            (Class::Wide, 0, 0, vec![category(rng)])
        };
        self.op(class, proj, pred, args)
    }
}

/// The expected reply, computed from the generated rows.
fn oracle(items: &[Item], op: &Op) -> Checksum {
    let int = |v: &Value| v.as_int().expect("int arg");
    let keep = |it: &Item| match (op.class, op.pred) {
        (Class::Wide, _) => Some(it.category) == op.args[0].as_str(),
        (_, 0) => it.id == int(&op.args[0]),
        (_, 1) => it.id == int(&op.args[0]) && it.stock >= int(&op.args[1]),
        (_, 2) => Some(it.category) == op.args[0].as_str() && it.price < int(&op.args[1]),
        _ => it.id >= int(&op.args[0]) && it.id <= int(&op.args[1]),
    };
    let mut c = Checksum::default();
    for it in items.iter().filter(|it| keep(it)) {
        let mut t = Tuple::with_capacity(6);
        t.insert("echo", op.params[0].clone());
        let name = || Value::Str(it.name.clone());
        match (op.class, op.proj) {
            (Class::Wide, _) => {
                t.insert("id", Value::Int(it.id));
                t.insert("name", name());
                t.insert("price", Value::Int(it.price));
                t.insert("stock", Value::Int(it.stock));
            }
            (_, 0) => t.insert("name", name()),
            (_, 1) => {
                t.insert("name", name());
                t.insert("price", Value::Int(it.price));
            }
            (_, 2) => {
                t.insert("id", Value::Int(it.id));
                t.insert("stock", Value::Int(it.stock));
            }
            _ => {
                t.insert("category", Value::Str(it.category.to_string()));
                t.insert("price", Value::Int(it.price));
            }
        }
        c.add_row(&Value::Tuple(t));
    }
    c
}

fn check(items: &[Item], op: &Op, resp: &Response) -> bool {
    match resp {
        Response::Rows(v) => {
            if let Err(e) = oracle(items, op).expect(&Checksum::of_result(v)) {
                mismatch("serve_mix", &format!("{} {:?}: {e}", op.text, op.params));
            }
            true
        }
        Response::Error { .. } | Response::Overloaded { .. } => false,
    }
}

pub fn digest(seed: u64) -> String {
    let mut d = Digest::default();
    for it in generate(seed) {
        d.add(&format!(
            "{}|{}|{}|{}",
            it.name, it.category, it.price, it.stock
        ));
    }
    for c in 0..CLIENTS as u64 {
        let mut ops = OpStream::new(seed, c);
        for _ in 0..1000 {
            let op = ops.next_op();
            d.add(&format!("{} {:?}", op.text, op.params));
        }
    }
    d.hex()
}

/// What one client's loop leaves behind.
struct ClientRun {
    log: OpLog,
    /// Traced requests kept for the layer replay, with their replies.
    sampled: Vec<(u64, Op, Value)>,
    rec: Option<Recorder>,
}

/// One client's closed loop. With a recorder, each request runs under a
/// `server.request` span and every `SAMPLE`-th is kept for replay.
fn client_loop(
    client: &mut Client,
    ops: &mut OpStream,
    items: &[Item],
    start: Instant,
    secs: f64,
    mut rec: Option<Recorder>,
) -> ClientRun {
    // Room for 50k requests per second, several times today's rate.
    let mut log = OpLog::new(start, (secs * 50_000.0) as usize);
    let mut sampled = Vec::new();
    while !log.done(secs) {
        let op = ops.next_op();
        let id = (ops.client << 40) | ops.seq;
        let t = log.start_op();
        if let Some(r) = rec.as_mut() {
            r.enter("bench.op", id);
            r.enter("server.request", id);
        }
        let resp = client.query_with_params(&op.text, op.params.clone());
        if let Some(r) = rec.as_mut() {
            r.exit();
            r.exit();
        }
        let d = log.stop_op(t);
        let resp = resp.unwrap_or_else(|e| fatal("serve_mix request", &e.to_string()));
        let ok = check(items, &op, &resp);
        log.record(op.class as u8, ok.then_some(d));
        if let (Some(_), Response::Rows(v)) = (&rec, resp) {
            if ops.seq.is_multiple_of(SAMPLE) {
                sampled.push((id, op, v));
            }
        }
    }
    log.finish();
    ClientRun { log, sampled, rec }
}

/// Runs both clients for `secs`; traced when `origin` is given.
fn run_clients(
    clients: &mut [Client],
    streams: &mut [OpStream],
    items: &[Item],
    secs: f64,
    origin: Option<Instant>,
) -> ClientRun {
    let start = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams.iter_mut())
            .map(|(c, ops)| {
                s.spawn(move || client_loop(c, ops, items, start, secs, origin.map(Recorder::new)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = ClientRun {
        log: OpLog::new(start, 0),
        sampled: Vec::new(),
        rec: origin.map(Recorder::new),
    };
    for run in runs {
        total.log.merge(run.log);
        total.sampled.extend(run.sampled);
        if let (Some(all), Some(one)) = (total.rec.as_mut(), run.rec) {
            all.absorb(one);
        }
    }
    total
}

struct Setup {
    items: Vec<Item>,
    engine: Engine,
    server: Server,
    clients: Vec<Client>,
}

fn setup_once(seed: u64) -> Setup {
    let items = generate(seed);
    let engine = load(&items);
    let server =
        Server::start(engine.clone(), ServerConfig::default()).expect("server binds loopback");
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()).expect("client connects"))
        .collect();
    Setup {
        items,
        engine,
        server,
        clients,
    }
}

fn shutdown(s: Setup) {
    drop(s.clients);
    s.server.shutdown();
}

/// Replays each kept request through the layers' public functions:
/// the request codec, a plan-cache lookup, parse/lower/optimize when
/// the lookup misses, `Prepared::execute`, and the response codec.
fn replay(engine: &Engine, sampled: &[(u64, Op, Value)], rec: &mut Recorder, cache: &PlanCache) {
    let compat = engine.config().compat;
    for (id, op, reply) in sampled {
        let id = *id;
        let req = Request {
            query: op.text.clone(),
            params: op.params.clone(),
        };
        rec.enter("bench.replay", id);
        let bytes = rec.span("formats.encode_request", id, || encode_request(&req));
        let req = rec.span("formats.decode_request", id, || decode_request(&bytes));
        let req = req.expect("request round-trips");
        let key = PlanCache::normalize(&req.query);
        let epoch = engine.catalog().schema_epoch();
        let cached = rec.span("server.cache_lookup", id, || cache.get(&key, compat, epoch));
        let prepared = match cached {
            Some(p) => p,
            None => {
                rec.enter("core.prepare", id);
                let ast = rec.span("syntax.parse", id, || sqlpp_syntax::parse_query(&key));
                let plan = rec.span("plan.lower", id, || {
                    let (_, schemas) = engine.catalog().schema_state();
                    lower_query(&ast.expect("parses"), &PlanConfig { compat, schemas })
                });
                rec.span("plan.optimize", id, || optimize(plan.expect("lowers")));
                rec.exit();
                cache
                    .prepare_and_insert(engine, &key, compat)
                    .expect("prepares")
            }
        };
        rec.enter("core.execute", id);
        let value = rec.span("eval.run", id, || {
            prepared.execute_with_params(engine, req.params.clone())
        });
        rec.exit();
        let value = value.expect("replay executes").into_value();
        if let Err(e) = Checksum::of_result(reply).expect(&Checksum::of_result(&value)) {
            mismatch("serve_mix replay", &format!("{}: {e}", op.text));
        }
        let resp = Response::Rows(value);
        let bytes = rec.span("formats.encode_response", id, || encode_response(&resp));
        let back = rec.span("formats.decode_response", id, || decode_response(&bytes));
        rec.exit();
        if back.ok() != Some(resp) {
            mismatch(
                "serve_mix replay",
                &format!("{}: response codec round trip", op.text),
            );
        }
    }
}

/// The traced half: every request under a span, then a replay of every
/// `SAMPLE`-th one layer by layer; server counters are read at the end.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    out: &mut Outcome,
    ctx: &Ctx,
    setup: &mut Setup,
    streams: &mut [OpStream],
    secs: f64,
    untraced: &OpLog,
    cache: &PlanCache,
) {
    let origin = Instant::now();
    let traced = run_clients(
        &mut setup.clients,
        streams,
        &setup.items,
        secs,
        Some(origin),
    );
    out.traced(untraced, &traced.log);
    let mut rec = traced.rec.expect("traced phase records");
    let mut request = samples_of(rec.durations("server.request"));
    out.timing(
        "server.request_us",
        request.median_us(),
        "us",
        request.len(),
    );
    let mut sampled = traced.sampled;
    sampled.sort_by_key(|(id, _, _)| *id & 0xFF_FFFF_FFFF);
    let mut replayed = Recorder::new(origin);
    replay(&setup.engine, &sampled, &mut replayed, cache);

    for (metric, span) in [
        ("syntax.parse_us", "syntax.parse"),
        ("plan.lower_us", "plan.lower"),
        ("plan.optimize_us", "plan.optimize"),
        ("formats.wire.encode_request_us", "formats.encode_request"),
        ("formats.wire.decode_request_us", "formats.decode_request"),
        ("formats.wire.encode_response_us", "formats.encode_response"),
        ("formats.wire.decode_response_us", "formats.decode_response"),
    ] {
        let mut s = samples_of(replayed.durations(span));
        out.timing(metric, s.median_us(), "us", s.len());
    }
    let point_reads: Vec<u64> = sampled
        .iter()
        .filter(|(_, op, _)| op.class == Class::Hot && op.pred == 0)
        .map(|(id, _, _)| *id)
        .collect();
    let mut point = samples_of(
        replayed
            .spans()
            .iter()
            .filter(|s| s.name == "eval.run" && point_reads.contains(&s.op))
            .map(|s| s.dur_ns()),
    );
    out.timing(
        "eval.run_us.point_read",
        point.median_us(),
        "us",
        point.len(),
    );
    let n = sampled.len().max(1) as f64;
    let (mut req_bytes, mut resp_bytes) = (0, 0);
    for (_, op, reply) in &sampled {
        let req = Request {
            query: op.text.clone(),
            params: op.params.clone(),
        };
        req_bytes += encode_request(&req).len();
        resp_bytes += encode_response(&Response::Rows(reply.clone())).len();
    }
    out.metric("formats.wire.request_bytes", req_bytes as f64 / n, "bytes");
    out.metric(
        "formats.wire.response_bytes",
        resp_bytes as f64 / n,
        "bytes",
    );

    // What the replayed stages do not explain: socket and frame I/O,
    // queueing and dispatch. Means, since only means add up; the
    // prepare cost counts at the server's measured miss share.
    let st = setup.server.stats();
    let cs = setup.server.cache_stats();
    let miss_ratio = cs.misses as f64 / (cs.hits + cs.misses).max(1) as f64;
    let mean = |name: &str| samples_of(replayed.durations(name)).mean_us();
    let explained = mean("formats.encode_request")
        + mean("formats.decode_request")
        + mean("server.cache_lookup")
        + miss_ratio * mean("core.prepare")
        + mean("core.execute")
        + mean("formats.encode_response")
        + mean("formats.decode_response");
    out.metric("server.unaccounted_us", request.mean_us() - explained, "us");
    out.metric("server.cache.hits", cs.hits as f64, "count");
    out.metric("server.cache.misses", cs.misses as f64, "count");
    out.metric("server.cache.hit_ratio", 1.0 - miss_ratio, "ratio");
    let evictions = cs.misses.saturating_sub(cs.size as u64 + cs.invalidations);
    out.metric("server.cache.evictions", evictions as f64, "count");
    out.metric("server.served", st.served as f64, "count");
    out.metric("server.errors", st.errors as f64, "count");
    out.metric("server.shed_requests", st.shed_requests as f64, "count");
    out.metric("server.panics", st.panics as f64, "count");

    rec.absorb(replayed);
    report_layers(out, &rec);
    let texts = [
        hot_text(0, 0).replacen('?', "1", 1).replacen('?', "7", 1),
        cold_text(7, 3).replacen('?', "1", 1),
        WIDE.replacen('?', "1", 1).replacen('?', "'books'", 1),
    ];
    eval_counters(out, &setup.engine, texts.into_iter());
    write_trace(ctx, "serve_mix", &rec);
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_times = Samples::default();
    let mut live: Option<Setup> = None;
    for _ in 0..SETUPS {
        if let Some(s) = live.take() {
            shutdown(s);
        }
        let t = Instant::now();
        live = Some(setup_once(ctx.seed));
        setup_times.push(t.elapsed());
    }
    let mut setup = live.expect("SETUPS > 0");
    let config = ServerConfig::default();
    out.condition("items", ITEMS);
    out.condition("clients", CLIENTS);
    out.condition("server_workers", config.workers);
    out.condition("cache_capacity", config.cache_capacity);
    out.condition("hot_shapes", PROJECTIONS.len() * PREDICATES.len());
    out.condition("cold_texts", COLD_TEXTS);
    out.condition(
        "mix",
        "80% hot parameterized, 15% inline literals, 5% ~100-row",
    );
    out.condition("op_digest", digest(ctx.seed));

    // Warm-up, untimed and checked: each client sends every hot shape and
    // every wide category once, so the hot plans are cached before timing.
    // The replay's own plan cache gets the same plans.
    let compat = setup.engine.config().compat;
    let cache = PlanCache::new(config.cache_capacity);
    for (c, client) in setup.clients.iter_mut().enumerate() {
        let mut warm = OpStream::new(ctx.seed, (CLIENTS + c) as u64);
        for op in warm.warm_ops() {
            let resp = client
                .query_with_params(&op.text, op.params.clone())
                .unwrap_or_else(|e| fatal("serve_mix warm-up", &e.to_string()));
            if !check(&setup.items, &op, &resp) {
                mismatch("serve_mix warm-up", &format!("{}: {resp:?}", op.text));
            }
            let key = PlanCache::normalize(&op.text);
            cache
                .prepare_and_insert(&setup.engine, &key, compat)
                .expect("warm-up prepares");
        }
    }

    let mut streams: Vec<OpStream> = (0..CLIENTS as u64)
        .map(|c| OpStream::new(ctx.seed, c))
        .collect();
    let secs = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let run = run_clients(&mut setup.clients, &mut streams, &setup.items, secs, None);
    out.end_to_end(
        &mut setup_times,
        &run.log,
        |_| true,
        TAIL,
        Some(WINDOW),
        Some(WINDOW),
    );
    for (class, mut s) in run.log.per_kind() {
        let name = CLASSES[usize::from(class)].name();
        out.timing(format!("read_p50_us.{name}"), s.median_us(), "us", s.len());
    }
    if ctx.trace {
        trace_layers(
            &mut out,
            ctx,
            &mut setup,
            &mut streams,
            secs,
            &run.log,
            &cache,
        );
    }
    shutdown(setup);
    out.condition("server_shutdown", "clean");
    out
}
