//! `durable_writes`: one caller on an engine opened with
//! `SyncMode::Always` (the `Engine::open_durable` default: a commit is
//! fsynced before it is acknowledged) in a fresh directory, over a
//! 10k-row collection registered with a schema, so every write is
//! validated. Half the statements are prepared point reads by id, half
//! single-row INSERT, UPDATE and DELETE (inserts and deletes alternate,
//! so the collection stays at ~10k rows), with `Engine::checkpoint`
//! after every `CHECKPOINT_EVERY` commits. The run ends with a
//! crash-style drop, without a final checkpoint, over a WAL tail of
//! `TAIL_COMMITS` records, and a timed reopen that must recover exactly
//! the acknowledged state.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sqlpp::{DurabilityConfig, Engine, ExecOutcome, Name, SessionConfig, SyncMode};
use sqlpp_schema::infer_collection;
use sqlpp_testkit::rng::{mix, Rng};
use sqlpp_value::{Tuple, Value};

use crate::check::{Checksum, Digest};
use crate::report::{eval_counters, report_layers, samples_of, write_trace};
use crate::stats::{OpLog, Samples};
use crate::trace::Recorder;
use crate::{fatal, mismatch, Ctx, Outcome};

const ROWS: i64 = 10_000;
const COLLECTION: &str = "app.accounts";
const TIERS: [&str; 3] = ["basic", "silver", "gold"];
const CHECKPOINT_EVERY: u64 = 50;
const TAIL_COMMITS: usize = 32;
const SETUPS: usize = 15;
const RECOVERIES: usize = 3;
/// Tail percentile for reads and writes: the untraced half of a traced
/// 30 s run makes ~600 of each, so p95 is the highest of p99, p95 and
/// p90 that leaves ten samples beyond it in every run.
const TAIL: f64 = 0.95;
/// `throughput_ops` is the median over windows of this length (each
/// holds about a hundred statements and two checkpoints).
const WINDOW: Duration = Duration::from_secs(2);
/// Each round of ops, in a seeded order: four reads, two updates, and an
/// insert and a delete (alternating, so inserts and deletes pair up).
const ROUND: [Kind; 8] = [
    Kind::Read,
    Kind::Read,
    Kind::Read,
    Kind::Read,
    Kind::Update,
    Kind::Update,
    Kind::Insert,
    Kind::Delete,
];
const READ: &str = "SELECT VALUE a FROM app.accounts AS a WHERE a.id = ?";

#[derive(Debug, Clone, PartialEq)]
struct Account {
    id: i64,
    owner: String,
    balance: i64,
    tier: &'static str,
}

impl Account {
    fn value(&self) -> Value {
        let mut t = Tuple::with_capacity(4);
        t.insert("id", Value::Int(self.id));
        t.insert("owner", Value::Str(self.owner.clone()));
        t.insert("balance", Value::Int(self.balance));
        t.insert("tier", Value::Str(self.tier.to_string()));
        Value::Tuple(t)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Kind {
    Read,
    Insert,
    Update,
    Delete,
}

const KINDS: [Kind; 4] = [Kind::Read, Kind::Insert, Kind::Update, Kind::Delete];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::Insert => "insert",
            Kind::Update => "update",
            Kind::Delete => "delete",
        }
    }
}

#[derive(Debug, Clone)]
struct Op {
    kind: Kind,
    id: i64,
    /// DML text; empty for reads (which run the prepared `READ`).
    text: String,
    /// The row `id` holds once the statement commits (`None`: deleted);
    /// unused for reads.
    after: Option<Account>,
}

/// The plain-Rust model of the collection: the oracle for every answer
/// and for the recovered state. It also draws the op stream, which
/// depends on which ids are live.
struct Model {
    rng: Rng,
    rows: HashMap<i64, Account>,
    live: Vec<i64>,
    next_id: i64,
    round: Vec<Kind>,
}

impl Model {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(mix(seed, 0xD0AB));
        let mut rows = HashMap::new();
        for id in 0..ROWS {
            rows.insert(id, account(&mut rng, id));
        }
        Model {
            rng: Rng::new(mix(seed, 0xD0AC)),
            rows,
            live: (0..ROWS).collect(),
            next_id: ROWS,
            round: Vec::new(),
        }
    }

    fn collection(&self) -> Value {
        let mut ids: Vec<&i64> = self.rows.keys().collect();
        ids.sort();
        Value::Bag(ids.into_iter().map(|id| self.rows[id].value()).collect())
    }

    fn checksum(&self) -> Checksum {
        let mut c = Checksum::default();
        self.rows.values().for_each(|a| c.add_row(&a.value()));
        c
    }

    /// Draws the next op against the current state; [`Model::apply`]
    /// records it once the engine acknowledges it.
    fn next_op(&mut self) -> Op {
        if self.round.is_empty() {
            self.round = ROUND.to_vec();
            self.rng.shuffle(&mut self.round);
        }
        let kind = self.round.pop().expect("refilled above");
        let rng = &mut self.rng;
        let (id, text, after) = match kind {
            Kind::Read => (rng.gen_range(0..self.next_id), String::new(), None),
            Kind::Update => {
                let id = self.live[rng.gen_range(0..self.live.len())];
                let delta = rng.gen_range(-50..=50i64);
                let mut row = self.rows[&id].clone();
                row.balance += delta;
                let text = format!(
                    "UPDATE {COLLECTION} AS a SET a.balance = a.balance + {delta} WHERE a.id = {id}"
                );
                (id, text, Some(row))
            }
            Kind::Insert => {
                let id = self.next_id;
                self.next_id += 1;
                let row = account(rng, id);
                let text = format!(
                    "INSERT INTO {COLLECTION} VALUE {{'id': {id}, 'owner': '{}', 'balance': {}, 'tier': '{}'}}",
                    row.owner, row.balance, row.tier
                );
                (id, text, Some(row))
            }
            Kind::Delete => {
                let id = self.live[rng.gen_range(0..self.live.len())];
                let text = format!("DELETE FROM {COLLECTION} AS a WHERE a.id = {id}");
                (id, text, None)
            }
        };
        Op {
            kind,
            id,
            text,
            after,
        }
    }

    /// Records an acknowledged write.
    fn apply(&mut self, op: &Op) {
        match (&op.after, op.kind) {
            (_, Kind::Read) => {}
            (Some(row), _) => {
                if self.rows.insert(op.id, row.clone()).is_none() {
                    self.live.push(op.id);
                }
            }
            (None, _) => {
                self.rows.remove(&op.id);
                let pos = self.live.iter().position(|&x| x == op.id);
                self.live.swap_remove(pos.expect("deleted id was live"));
            }
        }
    }
}

fn account(rng: &mut Rng, id: i64) -> Account {
    Account {
        id,
        owner: format!("owner{:05}", rng.gen_range(0..50_000u32)),
        balance: rng.gen_range(0..100_000i64),
        tier: TIERS[rng.gen_range(0..TIERS.len())],
    }
}

pub fn digest(seed: u64) -> String {
    let mut model = Model::new(seed);
    let mut d = Digest::default();
    d.add(&format!("{:?}", model.checksum()));
    for _ in 0..1000 {
        let op = model.next_op();
        model.apply(&op);
        d.add(&format!("{:?} {} {}", op.kind, op.id, op.text));
    }
    d.hex()
}

fn config(dir: &Path) -> SessionConfig {
    SessionConfig {
        durability: Some(DurabilityConfig::new(dir).with_sync(SyncMode::Always)),
        ..SessionConfig::default()
    }
}

/// A fresh, empty directory; refuses one that already holds files.
fn fresh_dir(path: PathBuf) -> PathBuf {
    if let Ok(mut entries) = std::fs::read_dir(&path) {
        if entries.next().is_some() {
            eprintln!(
                "durable_writes: refusing non-empty directory {}",
                path.display()
            );
            std::process::exit(2);
        }
    }
    std::fs::create_dir_all(&path).expect("create the data directory");
    path
}

/// Median cost of a 4 KiB write plus `sync_all` in `dir`, in µs.
fn fsync_cost_us(dir: &Path) -> f64 {
    let path = dir.join("fsync-probe");
    let mut f = std::fs::File::create(&path).expect("create fsync probe");
    let mut s = Samples::default();
    for _ in 0..20 {
        let t = Instant::now();
        f.write_all(&[7u8; 4096]).expect("write probe");
        f.sync_all().expect("fsync probe");
        s.push(t.elapsed());
    }
    drop(f);
    let _ = std::fs::remove_file(&path);
    s.median_us()
}

/// Opens a durable engine in a fresh directory, registers the schema-
/// attached collection and checkpoints it.
fn setup_once(dir: &Path, model: &Model) -> Engine {
    let engine = Engine::open(config(dir)).expect("fresh durable engine opens");
    let data = model.collection();
    let schema = infer_collection(&data).expect("collection has an element type");
    engine
        .register_with_schema(COLLECTION, data, &schema)
        .expect("generated rows satisfy their schema");
    engine.checkpoint().expect("checkpoint");
    engine
}

fn snapshot_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Disk accounting: WAL bytes appended plus snapshot bytes written.
#[derive(Default)]
struct Disk {
    wal_bytes: u64,
    snapshot_bytes: u64,
    commits: u64,
    since_checkpoint: u64,
}

struct Durable<'a> {
    engine: Engine,
    dir: &'a Path,
    read: sqlpp::Prepared,
    model: Model,
    disk: Disk,
    /// Every DML statement acknowledged so far, for the twin replay.
    log: Vec<Op>,
}

impl Durable<'_> {
    /// Runs one op (and a checkpoint when due); returns its latency, or
    /// `None` when the engine refused it (a refused write changes neither
    /// the model nor, by the engine's contract, the collection).
    fn step(
        &mut self,
        log: &mut OpLog,
        rec: &mut Option<&mut Recorder>,
        id: u64,
    ) -> (Kind, Option<Duration>) {
        let op = self.model.next_op();
        let kind = op.kind;
        if let Some(r) = rec.as_deref_mut() {
            r.enter("bench.op", id);
        }
        let t = log.start_op();
        let ok = if op.kind == Kind::Read {
            if let Some(r) = rec.as_deref_mut() {
                r.enter("core.execute", id);
                r.enter("eval.run", id);
            }
            let res = self
                .read
                .execute_with_params(&self.engine, vec![Value::Int(op.id)]);
            let d = log.stop_op(t);
            if let Some(r) = rec.as_deref_mut() {
                r.exit();
                r.exit();
                r.exit();
            }
            let Ok(res) = res else {
                return (op.kind, None);
            };
            let mut expected = Checksum::default();
            if let Some(a) = self.model.rows.get(&op.id) {
                expected.add_row(&a.value());
            }
            if let Err(e) = expected.expect(&Checksum::of_result(res.value())) {
                mismatch("durable_writes read", &format!("id {}: {e}", op.id));
            }
            return (op.kind, Some(d));
        } else {
            let span = match op.kind {
                Kind::Insert => "core.dml.insert",
                Kind::Update => "core.dml.update",
                _ => "core.dml.delete",
            };
            if let Some(r) = rec.as_deref_mut() {
                r.enter(span, id);
            }
            let res = self.engine.execute(&op.text);
            let d = log.stop_op(t);
            if let Some(r) = rec.as_deref_mut() {
                r.exit();
            }
            match res {
                Ok(ExecOutcome::Inserted { count: 1 })
                | Ok(ExecOutcome::Updated { count: 1 })
                | Ok(ExecOutcome::Deleted { count: 1 }) => Some(d),
                Ok(other) => mismatch("durable_writes", &format!("{}: {other:?}", op.text)),
                Err(_) => None,
            }
        };
        if ok.is_some() {
            self.model.apply(&op);
            self.log.push(op);
            self.disk.commits += 1;
            self.disk.since_checkpoint += 1;
            if self.disk.since_checkpoint == CHECKPOINT_EVERY {
                if let Some(r) = rec.as_deref_mut() {
                    r.enter("durability.checkpoint", id);
                }
                // The checkpoint is the engine's work too, but no op's.
                let t = log.start_op();
                self.checkpoint();
                log.stop_op(t);
                if let Some(r) = rec.as_deref_mut() {
                    r.exit();
                }
            }
        }
        if let Some(r) = rec.as_deref_mut() {
            r.exit();
        }
        (kind, ok)
    }

    fn checkpoint(&mut self) {
        let before = self.engine.wal_status().expect("durable").wal_bytes;
        self.engine.checkpoint().expect("checkpoint");
        self.disk.wal_bytes += before;
        self.disk.snapshot_bytes += snapshot_bytes(self.dir);
        self.disk.since_checkpoint = 0;
    }

    fn run_phase(&mut self, secs: f64, mut rec: Option<&mut Recorder>, next_id: &mut u64) -> OpLog {
        // Room for far more statements than a phase completes.
        let mut log = OpLog::new(Instant::now(), (secs * 2_000.0) as usize);
        while !log.done(secs) {
            *next_id += 1;
            let (kind, d) = self.step(&mut log, &mut rec, *next_id);
            log.record(kind as u8, d);
        }
        log.finish();
        log
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let base = ctx
        .out_dir
        .join(format!("durable-{}-{}", std::process::id(), ctx.seed));
    crate::remove_on_abort(base.clone());
    let mut setup_times = Samples::default();
    let mut kept = None;
    for k in 0..SETUPS {
        let dir = fresh_dir(base.join(format!("setup-{k}")));
        let model = Model::new(ctx.seed);
        let t = Instant::now();
        let engine = setup_once(&dir, &model);
        setup_times.push(t.elapsed());
        if let Some((old_engine, old_dir, _)) = kept.replace((engine, dir, model)) {
            drop(old_engine);
            std::fs::remove_dir_all::<PathBuf>(old_dir).expect("remove set-up directory");
        }
    }
    let (engine, dir, model) = kept.expect("SETUPS > 0");
    out.condition("rows", ROWS);
    out.condition("callers", 1);
    out.condition("sync_mode", "always (the open_durable default)");
    out.condition("fsync_4k_us", format!("{:.1}", fsync_cost_us(&dir)));
    out.condition("checkpoint_every_commits", CHECKPOINT_EVERY);
    out.condition("wal_tail_commits", TAIL_COMMITS);
    out.condition(
        "mix",
        "rounds of 4 prepared point reads, 2 updates, 1 insert, 1 delete",
    );
    out.condition("op_digest", digest(ctx.seed));

    let read = engine.prepare(READ).expect("read prepares");
    let mut db = Durable {
        engine,
        dir: &dir,
        read,
        model,
        disk: Disk::default(),
        log: Vec::new(),
    };
    let initial = Model::new(ctx.seed).collection();
    let mut next_id = 0u64;
    let secs = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let log = db.run_phase(secs, None, &mut next_id);
    let is_read = |k: u8| k == Kind::Read as u8;
    out.end_to_end(&mut setup_times, &log, is_read, TAIL, Some(WINDOW), None);
    let st = db.engine.wal_status().expect("durable");
    let disk_bytes = db.disk.wal_bytes + st.wal_bytes + db.disk.snapshot_bytes;
    out.metric(
        "disk_bytes_per_commit",
        disk_bytes as f64 / db.disk.commits.max(1) as f64,
        "bytes",
    );
    let mut writes = log.samples(|k| !is_read(k));
    out.timing("write_p50_us", writes.median_us(), "us", writes.len());
    out.timing(
        "write_tail_us",
        writes.quantile_us(TAIL),
        "us",
        writes.len(),
    );
    for (k, mut s) in log.per_kind() {
        let name = KINDS[usize::from(k)].name();
        out.timing(format!("op_p50_us.{name}"), s.median_us(), "us", s.len());
    }

    let mut rec = Recorder::new(Instant::now());
    if ctx.trace {
        let traced = db.run_phase(secs, Some(&mut rec), &mut next_id);
        out.traced(&log, &traced);
        let mut point = samples_of(rec.durations("eval.run"));
        out.timing(
            "eval.run_us.point_read",
            point.median_us(),
            "us",
            point.len(),
        );
        let mut durable_writes = Samples::default();
        for kind in ["insert", "update", "delete"] {
            let span = format!("core.dml.{kind}");
            let s = samples_of(rec.durations(&span));
            durable_writes.extend(&s);
            let mut s = s;
            out.timing(format!("core.dml_us.{kind}"), s.median_us(), "us", s.len());
        }
        let mut ckpt = samples_of(rec.durations("durability.checkpoint"));
        out.timing(
            "durability.checkpoint_us",
            ckpt.median_us(),
            "us",
            ckpt.len(),
        );

        // The in-memory twin: the same statements, in order, on an
        // engine without a log; it must end in the durable state.
        let twin = Engine::new();
        let schema = infer_collection(&initial).expect("element type");
        twin.register_with_schema(COLLECTION, initial.clone(), &schema)
            .expect("twin loads");
        let mut twin_times: HashMap<Kind, Samples> = HashMap::new();
        for op in &db.log {
            let t = Instant::now();
            twin.execute(&op.text)
                .expect("twin replays an acknowledged statement");
            twin_times.entry(op.kind).or_default().push(t.elapsed());
        }
        let mut twin_all = Samples::default();
        for kind in [Kind::Insert, Kind::Update, Kind::Delete] {
            let mut s = twin_times.remove(&kind).unwrap_or_default();
            twin_all.extend(&s);
            out.timing(
                format!("core.dml_in_memory_us.{}", kind.name()),
                s.median_us(),
                "us",
                s.len(),
            );
        }
        out.timing(
            "durability.commit_overhead_us",
            durable_writes.median_us() - twin_all.median_us(),
            "us",
            durable_writes.len(),
        );
        let twin_state = twin
            .catalog()
            .get(&Name::from(COLLECTION))
            .expect("twin collection");
        if let Err(e) = db
            .model
            .checksum()
            .expect(&Checksum::of_result(&twin_state))
        {
            mismatch("durable_writes twin", &e);
        }
        report_layers(&mut out, &rec);
        eval_counters(
            &mut out,
            &db.engine,
            std::iter::once(READ.replace('?', "7")),
        );
    }

    // Crash-style end: checkpoint, then exactly TAIL_COMMITS commits,
    // then drop without a final checkpoint.
    db.checkpoint();
    let mut tail = 0;
    let mut untimed = OpLog::new(Instant::now(), 0);
    while tail < TAIL_COMMITS {
        next_id += 1;
        if let (k, Some(_)) = db.step(&mut untimed, &mut None, next_id) {
            if k != Kind::Read {
                tail += 1;
            }
        }
    }
    if db.disk.since_checkpoint != TAIL_COMMITS as u64 {
        fatal("durable_writes", "checkpoint inside the WAL tail");
    }
    let st = db.engine.wal_status().expect("durable");
    let (wal_appended, commits) = (db.disk.wal_bytes + st.wal_bytes, db.disk.commits);
    let Durable { engine, model, .. } = db;
    drop(engine);

    let mut recoveries = Samples::default();
    let mut replayed = 0;
    for _ in 0..RECOVERIES {
        let t = Instant::now();
        let (engine, recovered) = Engine::open_with_recovery(config(&dir)).expect("recovery");
        recoveries.push(t.elapsed());
        replayed = recovered.replayed;
        if recovered.replayed != TAIL_COMMITS as u64 || recovered.torn_tail.is_some() {
            mismatch(
                "durable_writes recovery",
                &format!(
                    "replayed {} records (torn tail: {:?}), expected {TAIL_COMMITS}",
                    recovered.replayed, recovered.torn_tail
                ),
            );
        }
        let state = engine
            .catalog()
            .get(&Name::from(COLLECTION))
            .expect("recovered collection");
        if let Err(e) = model.checksum().expect(&Checksum::of_result(&state)) {
            mismatch("durable_writes recovery", &format!("recovered state: {e}"));
        }
        if engine.catalog().schema(&Name::from(COLLECTION)).is_none() {
            mismatch("durable_writes recovery", "schema not recovered");
        }
    }
    out.timing(
        "recovery_s",
        recoveries.median_us() / 1e6,
        "s",
        recoveries.len(),
    );
    if ctx.trace {
        out.timing(
            "durability.recover_us",
            recoveries.median_us(),
            "us",
            recoveries.len(),
        );
        out.metric("durability.appends", st.appends as f64, "count");
        out.metric("durability.fsyncs", st.syncs as f64, "count");
        out.metric("durability.checkpoints", st.checkpoints as f64, "count");
        out.metric("durability.replayed_records", replayed as f64, "count");
        out.metric(
            "durability.wal_bytes_per_append",
            wal_appended as f64 / commits.max(1) as f64,
            "bytes",
        );
        out.metric(
            "durability.snapshot_bytes",
            snapshot_bytes(&dir) as f64,
            "bytes",
        );
        write_trace(ctx, "durable_writes", &rec);
    }
    std::fs::remove_dir_all(&base).expect("remove the data directory");
    out.condition("data_directory", "removed");
    out
}
