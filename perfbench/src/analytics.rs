//! `analytics`: one caller runs `Engine::query` in a closed loop on the
//! default session over ~20k Listing-1-shaped nested employees (four
//! projects each) and their flat twins — tens of MB, far beyond the CPU
//! caches — drawing each query from paper-shaped templates with a
//! seeded literal. Evaluation does nearly all of the work; planning is
//! well under 1% of it.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use sqlpp::{Engine, Prepared};
use sqlpp_plan::{lower_query, optimize, PlanConfig};
use sqlpp_testkit::rng::{mix, Rng};
use sqlpp_value::{Tuple, Value};

use crate::check::{Checksum, Digest};
use crate::report::{eval_counters, report_layers, samples_of, write_trace};
use crate::stats::{OpLog, Samples};
use crate::trace::Recorder;
use crate::{fatal, mismatch, Ctx, Outcome};

pub const EMPLOYEES: usize = 20_000;
const FANOUT: usize = 4;
const DEPTS: i64 = 50;
/// Widths of the literal windows: half the salaries (30k..200k), a
/// quarter of the hours (1..=40), half the departments.
const SALARY_WINDOW: i64 = 85_000;
const HOURS_WINDOW: i64 = 10;
const DEPT_WINDOW: i64 = 25;
const SETUPS: usize = 15;
/// `read_tail_us` percentile: a 30 s run makes ~450 queries (half of
/// that when traced), so p95 is the highest of p99, p95 and p90 that
/// leaves ten samples beyond it.
const TAIL: f64 = 0.95;

const TITLES: [&str; 5] = ["Engineer", "Manager", "Analyst", "Designer", "Director"];
const TOPICS: [&str; 8] = [
    "Serverless",
    "OLAP",
    "OLTP",
    "Streaming",
    "Graph",
    "Vector",
    "Cloud",
    "Edge",
];
const AREAS: [&str; 6] = [
    "Query",
    "Security",
    "Storage",
    "Analytics",
    "Indexing",
    "Recovery",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Template {
    Unnest,
    GroupBy,
    GroupAs,
    Join,
    Topk,
    Scan,
    Project,
}

pub const TEMPLATES: [Template; 7] = [
    Template::Unnest,
    Template::GroupBy,
    Template::GroupAs,
    Template::Join,
    Template::Topk,
    Template::Scan,
    Template::Project,
];

impl Template {
    pub fn name(self) -> &'static str {
        match self {
            Template::Unnest => "unnest",
            Template::GroupBy => "group_by",
            Template::GroupAs => "group_as",
            Template::Join => "join",
            Template::Topk => "topk",
            Template::Scan => "scan",
            Template::Project => "project",
        }
    }

    /// Draws this template's seeded literal. Every literal of a template
    /// selects the same share of the rows (a window of fixed width, or
    /// one of several equally likely values), so a query's cost does not
    /// depend on which literal the seed drew.
    fn literal(self, rng: &mut Rng) -> i64 {
        match self {
            Template::Unnest => rng.gen_range(0..AREAS.len() as i64),
            Template::GroupBy => 30_000 + 1_000 * rng.gen_range(0..=85i64),
            Template::GroupAs => rng.gen_range(0..TITLES.len() as i64),
            Template::Join => rng.gen_range(0..=30i64),
            Template::Topk => rng.gen_range(0..DEPTS),
            Template::Scan => 30_000 + 5_000 * rng.gen_range(0..30i64),
            Template::Project => rng.gen_range(0..=25i64),
        }
    }

    fn text(self, lit: i64) -> String {
        match self {
            Template::Unnest => format!(
                "SELECT e.name AS emp_name, p.name AS proj_name \
                 FROM hr.employees AS e, e.projects AS p WHERE p.name LIKE '%{}%'",
                AREAS[lit as usize]
            ),
            Template::GroupBy => format!(
                "SELECT e.deptno AS deptno, COUNT(*) AS n, AVG(e.salary) AS avg_salary \
                 FROM hr.emp_flat AS e WHERE e.salary > {lit} AND e.salary <= {} \
                 GROUP BY e.deptno",
                lit + SALARY_WINDOW
            ),
            Template::GroupAs => format!(
                "SELECT d AS deptno, COLL_COUNT(g) AS n, \
                 COLL_MAX(SELECT VALUE x.e.salary FROM g AS x) AS top \
                 FROM hr.emp_flat AS e WHERE e.title = '{}' \
                 GROUP BY e.deptno AS d GROUP AS g",
                TITLES[lit as usize]
            ),
            Template::Join => format!(
                "SELECT e.name AS name, a.proj AS proj, a.hours AS hours \
                 FROM hr.emp_flat AS e JOIN hr.assignments AS a ON e.id = a.emp_id \
                 WHERE a.hours > {lit} AND a.hours <= {}",
                lit + HOURS_WINDOW
            ),
            Template::Topk => format!(
                "SELECT e.id AS id, e.name AS name, e.salary AS salary FROM hr.emp_flat AS e \
                 WHERE e.deptno <> {lit} ORDER BY e.salary DESC, e.id LIMIT 10"
            ),
            Template::Scan => format!(
                "SELECT VALUE e.name FROM hr.employees AS e \
                 WHERE e.salary >= {lit} AND e.salary < {}",
                lit + 20_000
            ),
            Template::Project => format!(
                "SELECT e.id AS id, e.name AS name, e.deptno AS deptno, e.salary + 1000 AS pay \
                 FROM hr.emp_flat AS e WHERE e.deptno >= {lit} AND e.deptno < {}",
                lit + DEPT_WINDOW
            ),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Op {
    pub template: Template,
    pub lit: i64,
    pub text: String,
}

/// The seeded, unbounded op stream: rounds of every template once, in
/// a seeded order, so any run-length prefix has a near-even mix.
pub struct OpStream {
    rng: Rng,
    round: Vec<Template>,
}

impl OpStream {
    pub fn new(seed: u64) -> Self {
        OpStream {
            rng: Rng::new(mix(seed, 0xA1)),
            round: Vec::new(),
        }
    }

    pub fn next_op(&mut self) -> Op {
        if self.round.is_empty() {
            self.round = TEMPLATES.to_vec();
            self.rng.shuffle(&mut self.round);
        }
        let template = self.round.pop().expect("refilled above");
        let lit = template.literal(&mut self.rng);
        Op {
            template,
            lit,
            text: template.text(lit),
        }
    }
}

/// One generated employee; the flat twin and the assignments are
/// projections of it.
#[derive(Debug, Clone)]
pub struct Emp {
    id: i64,
    name: String,
    title: Option<&'static str>,
    deptno: i64,
    salary: i64,
    projects: Vec<(String, i64)>, // (project name, hours)
}

pub fn generate(seed: u64) -> Vec<Emp> {
    let mut rng = Rng::new(mix(seed, 0xDA7A));
    (0..EMPLOYEES as i64)
        .map(|id| {
            let title = if rng.gen_bool(0.05) {
                None
            } else {
                Some(TITLES[rng.gen_range(0..TITLES.len())])
            };
            let projects = (0..FANOUT)
                .map(|_| {
                    let topic = TOPICS[rng.gen_range(0..TOPICS.len())];
                    let area = AREAS[rng.gen_range(0..AREAS.len())];
                    (format!("{topic} {area}"), rng.gen_range(1..=40i64))
                })
                .collect();
            Emp {
                id,
                name: format!("emp{id:05}"),
                title,
                deptno: rng.gen_range(0..DEPTS),
                salary: rng.gen_range(30_000..200_000i64),
                projects,
            }
        })
        .collect()
}

fn tuple(pairs: Vec<(&str, Value)>) -> Value {
    let mut t = Tuple::with_capacity(pairs.len());
    for (k, v) in pairs {
        t.insert(k, v);
    }
    Value::Tuple(t)
}

fn flat_fields(e: &Emp) -> Vec<(&'static str, Value)> {
    vec![
        ("id", Value::Int(e.id)),
        ("name", Value::Str(e.name.clone())),
        (
            "title",
            e.title.map_or(Value::Null, |t| Value::Str(t.to_string())),
        ),
        ("deptno", Value::Int(e.deptno)),
        ("salary", Value::Int(e.salary)),
    ]
}

/// Registers the nested employees, their flat twins and the
/// assignments on a fresh default-configured engine.
fn load(emps: &[Emp]) -> Engine {
    let engine = Engine::new();
    let nested = emps
        .iter()
        .map(|e| {
            let mut fields = flat_fields(e);
            let projects = e
                .projects
                .iter()
                .map(|(p, _)| tuple(vec![("name", Value::Str(p.clone()))]))
                .collect();
            fields.push(("projects", Value::Array(projects)));
            tuple(fields)
        })
        .collect();
    let flat = emps.iter().map(|e| tuple(flat_fields(e))).collect();
    let assignments = emps
        .iter()
        .flat_map(|e| {
            e.projects.iter().map(move |(p, h)| {
                tuple(vec![
                    ("emp_id", Value::Int(e.id)),
                    ("proj", Value::Str(p.clone())),
                    ("hours", Value::Int(*h)),
                ])
            })
        })
        .collect();
    engine.register("hr.employees", Value::Bag(nested));
    engine.register("hr.emp_flat", Value::Bag(flat));
    engine.register("hr.assignments", Value::Bag(assignments));
    engine
}

/// The expected answer of `op`, computed from the generated rows.
fn oracle(emps: &[Emp], op: &Op) -> Checksum {
    let mut c = Checksum::default();
    let s = |x: &str| Value::Str(x.to_string());
    match op.template {
        Template::Unnest => {
            let area = AREAS[op.lit as usize];
            for e in emps {
                for (p, _) in e.projects.iter().filter(|(p, _)| p.contains(area)) {
                    c.add_row(&tuple(vec![("emp_name", s(&e.name)), ("proj_name", s(p))]));
                }
            }
        }
        Template::GroupBy => {
            let mut groups: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
            for e in emps
                .iter()
                .filter(|e| e.salary > op.lit && e.salary <= op.lit + SALARY_WINDOW)
            {
                let g = groups.entry(e.deptno).or_default();
                g.0 += 1;
                g.1 += e.salary;
            }
            for (d, (n, sum)) in groups {
                c.add_row(&tuple(vec![
                    ("deptno", Value::Int(d)),
                    ("n", Value::Int(n)),
                    ("avg_salary", Value::Float(sum as f64 / n as f64)),
                ]));
            }
        }
        Template::GroupAs => {
            let title = TITLES[op.lit as usize];
            let mut groups: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
            for e in emps.iter().filter(|e| e.title == Some(title)) {
                let g = groups.entry(e.deptno).or_insert((0, i64::MIN));
                g.0 += 1;
                g.1 = g.1.max(e.salary);
            }
            for (d, (n, top)) in groups {
                c.add_row(&tuple(vec![
                    ("deptno", Value::Int(d)),
                    ("n", Value::Int(n)),
                    ("top", Value::Int(top)),
                ]));
            }
        }
        Template::Join => {
            for e in emps {
                let hours = op.lit + 1..=op.lit + HOURS_WINDOW;
                for (p, h) in e.projects.iter().filter(|(_, h)| hours.contains(h)) {
                    c.add_row(&tuple(vec![
                        ("name", s(&e.name)),
                        ("proj", s(p)),
                        ("hours", Value::Int(*h)),
                    ]));
                }
            }
        }
        Template::Topk => {
            let mut rows: Vec<&Emp> = emps.iter().filter(|e| e.deptno != op.lit).collect();
            rows.sort_by(|a, b| b.salary.cmp(&a.salary).then(a.id.cmp(&b.id)));
            for e in rows.into_iter().take(10) {
                c.add_row(&tuple(vec![
                    ("id", Value::Int(e.id)),
                    ("name", s(&e.name)),
                    ("salary", Value::Int(e.salary)),
                ]));
            }
        }
        Template::Scan => {
            for e in emps
                .iter()
                .filter(|e| e.salary >= op.lit && e.salary < op.lit + 20_000)
            {
                c.add_row(&s(&e.name));
            }
        }
        Template::Project => {
            let depts = op.lit..op.lit + DEPT_WINDOW;
            for e in emps.iter().filter(|e| depts.contains(&e.deptno)) {
                c.add_row(&tuple(vec![
                    ("id", Value::Int(e.id)),
                    ("name", s(&e.name)),
                    ("deptno", Value::Int(e.deptno)),
                    ("pay", Value::Int(e.salary + 1000)),
                ]));
            }
        }
    }
    c
}

/// Expected answers, memoized by query text (literal spaces are small).
struct Oracle<'a> {
    emps: &'a [Emp],
    memo: HashMap<String, Checksum>,
}

impl Oracle<'_> {
    fn check(&mut self, op: &Op, result: &Value) {
        let emps = self.emps;
        let expected = self
            .memo
            .entry(op.text.clone())
            .or_insert_with(|| oracle(emps, op));
        if let Err(e) = expected.expect(&Checksum::of_result(result)) {
            mismatch("analytics", &format!("{}: {e}", op.text));
        }
    }
}

/// Digest of the generated data and the first 1000 ops of the stream.
pub fn digest(seed: u64) -> String {
    let mut d = Digest::default();
    for e in generate(seed) {
        d.add(&format!(
            "{}|{}|{:?}|{}|{:?}",
            e.name, e.salary, e.title, e.deptno, e.projects
        ));
    }
    let mut ops = OpStream::new(seed);
    for _ in 0..1000 {
        d.add(&ops.next_op().text);
    }
    d.hex()
}

/// The untraced closed loop: `Engine::query`, timed per call.
fn run_untraced(engine: &Engine, ops: &mut OpStream, oracle: &mut Oracle, secs: f64) -> OpLog {
    let mut log = OpLog::new(Instant::now(), capacity(secs));
    while !log.done(secs) {
        let op = ops.next_op();
        let t = log.start_op();
        let res = engine.query(&op.text);
        let d = log.stop_op(t);
        if let Ok(r) = &res {
            oracle.check(&op, r.value());
        }
        log.record(op.template as u8, res.is_ok().then_some(d));
    }
    log.finish();
    log
}

/// Room for every op a phase can complete (queries take milliseconds).
fn capacity(secs: f64) -> usize {
    (secs * 1_000.0) as usize
}

/// The traced closed loop: `Engine::query` decomposed into
/// `core.prepare` (parse, lower, optimize) and `core.execute`
/// (`Prepared::execute`), each call under its own span.
fn run_traced(
    engine: &Engine,
    ops: &mut OpStream,
    oracle: &mut Oracle,
    secs: f64,
    rec: &mut Recorder,
) -> (OpLog, HashMap<u64, Template>) {
    let mut log = OpLog::new(Instant::now(), capacity(secs));
    let mut template_of = HashMap::new();
    let mut compared = Vec::new();
    let compat = engine.config().compat;
    let mut id = 0u64;
    while !log.done(secs) {
        let op = ops.next_op();
        id += 1;
        template_of.insert(id, op.template);
        // The engine's own prepared statement, made outside the op's
        // spans: the traced calls below redo its work step by step, and
        // the plans are asserted equal.
        let prepared: Prepared = match engine.prepare(&op.text) {
            Ok(p) => p,
            Err(_) => {
                log.record(op.template as u8, None);
                continue;
            }
        };
        let t = Instant::now();
        rec.enter("bench.op", id);
        rec.enter("core.prepare", id);
        let ast = rec.span("syntax.parse", id, || sqlpp_syntax::parse_query(&op.text));
        let plan = rec.span("plan.lower", id, || {
            let (_, schemas) = engine.catalog().schema_state();
            lower_query(
                &ast.expect("engine parsed it"),
                &PlanConfig { compat, schemas },
            )
        });
        let plan = rec.span("plan.optimize", id, || {
            optimize(plan.expect("engine lowered it"))
        });
        rec.exit();
        rec.enter("core.execute", id);
        let res = rec.span("eval.run", id, || prepared.execute(engine));
        rec.exit();
        rec.exit();
        let d = t.elapsed();
        if &plan != prepared.plan() {
            mismatch(
                "analytics trace",
                &format!("traced plan differs for {}", op.text),
            );
        }
        if let Ok(r) = &res {
            oracle.check(&op, r.value());
            if !compared.contains(&op.template) {
                compared.push(op.template);
                let direct = engine.query(&op.text).expect("query ran traced");
                if let Err(e) =
                    Checksum::of_result(direct.value()).expect(&Checksum::of_result(r.value()))
                {
                    mismatch("analytics trace", &format!("prepare→execute vs query: {e}"));
                }
            }
        }
        log.record(op.template as u8, res.is_ok().then_some(d));
    }
    log.finish();
    (log, template_of)
}

/// Generates the data and loads a fresh engine, `SETUPS` times; keeps
/// the last and reports the median set-up time.
fn setup(ctx: &Ctx) -> (Vec<Emp>, Engine, Samples) {
    let mut times = Samples::default();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        let emps = generate(ctx.seed);
        let engine = load(&emps);
        times.push(t.elapsed());
        last = Some((emps, engine));
    }
    let (emps, engine) = last.expect("SETUPS > 0");
    (emps, engine, times)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (emps, engine, mut setup_times) = setup(ctx);
    out.condition("employees", EMPLOYEES);
    out.condition("projects_per_employee", FANOUT);
    out.condition("assignments", EMPLOYEES * FANOUT);
    out.condition("callers", 1);
    out.condition("session", "default (SqlCompat, Permissive)");
    out.condition("op_digest", digest(ctx.seed));

    let mut oracle = Oracle {
        emps: &emps,
        memo: HashMap::new(),
    };
    // Warm-up, untimed: every template once, answers checked.
    for t in TEMPLATES {
        let op = Op {
            template: t,
            lit: 0,
            text: t.text(0),
        };
        let r = engine
            .query(&op.text)
            .unwrap_or_else(|e| fatal("analytics warm-up", &format!("{}: {e}", op.text)));
        oracle.check(&op, r.value());
    }

    let mut ops = OpStream::new(ctx.seed);
    let secs = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let log = run_untraced(&engine, &mut ops, &mut oracle, secs);
    out.end_to_end(&mut setup_times, &log, |_| true, TAIL, None, None);
    for (t, mut s) in log.per_kind() {
        let name = TEMPLATES[usize::from(t)].name();
        out.timing(
            format!("query_ms.{name}"),
            s.median_us() / 1e3,
            "ms",
            s.len(),
        );
    }

    if ctx.trace {
        let mut rec = Recorder::new(Instant::now());
        let (traced, template_of) = run_traced(&engine, &mut ops, &mut oracle, secs, &mut rec);
        out.traced(&log, &traced);
        for (name, span) in [
            ("syntax.parse_us", "syntax.parse"),
            ("plan.lower_us", "plan.lower"),
            ("plan.optimize_us", "plan.optimize"),
        ] {
            let mut s = samples_of(rec.durations(span));
            out.timing(name, s.median_us(), "us", s.len());
        }
        let mut per_template: BTreeMap<Template, Samples> = BTreeMap::new();
        for sp in rec.spans().iter().filter(|s| s.name == "eval.run") {
            per_template
                .entry(template_of[&sp.op])
                .or_default()
                .push(Duration::from_nanos(sp.dur_ns()));
        }
        for (t, s) in &mut per_template {
            out.timing(
                format!("eval.run_us.{}", t.name()),
                s.median_us(),
                "us",
                s.len(),
            );
        }
        report_layers(&mut out, &rec);
        eval_counters(&mut out, &engine, TEMPLATES.iter().map(|t| t.text(0)));
        write_trace(ctx, "analytics", &rec);
    }
    out
}
