//! **B18** — durability: what crash safety costs. Four questions, all
//! measured on the real engine / store, none asserted as tight perf
//! multiples (fsync latency is the storage stack's, not ours):
//!
//! * `commit_*` — the per-commit overhead of write-ahead logging at each
//!   [`SyncMode`] against the in-memory baseline: one single-row UPDATE
//!   of a 1k-row collection.
//! * `dml_insert/{n}`, `dml_update/{n}`, `dml_delete_reinsert/{n}` —
//!   single-row DML at 1k, 10k and 100k rows under `SyncMode::Never`.
//!   A DML statement logs a patch of the rows it changed, so the WAL
//!   bytes of a single-row statement must not depend on the collection:
//!   the suite measures them per statement kind before timing, attaches
//!   them as `wal_bytes_per_commit_{n}` (plus per-kind counters), and
//!   asserts they are flat across sizes (max/min ≤ 1.1). That assertion
//!   is deterministic, so it is a real gate; the timings are reported
//!   only. Each `dml_delete_reinsert` iteration deletes one row and
//!   inserts it back, so the collection keeps its size.
//! * `checkpoint/{n}` — writing a full catalog snapshot (temp file +
//!   fsync + atomic rename + log truncation) at 10k and 100k rows.
//! * `recover_snapshot/{n}` / `recover_wal/{n}` — cold-start recovery
//!   from a snapshot vs. replaying a 64-record WAL holding the same
//!   rows. Both paths are asserted to reproduce every row before being
//!   timed.

use std::path::PathBuf;
use std::sync::Arc;

use sqlpp::{DurabilityConfig, Engine, SessionConfig, SyncMode};
use sqlpp_durability::{CatalogImage, DurableStore};
use sqlpp_testkit::bench::Harness;
use sqlpp_value::{Tuple, Value};

use super::scaled;

fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqlpp-bench-durability-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn row(i: i64) -> Value {
    let mut t = Tuple::with_capacity(3);
    t.insert("id", Value::Int(i));
    t.insert("v", Value::Int((i * 31) % 1_000));
    t.insert("pad", Value::Str(format!("payload-{}", i % 97)));
    Value::Tuple(t)
}

fn rows(n: usize) -> Value {
    Value::Bag((0..n as i64).map(row).collect())
}

fn insert(id: i64) -> String {
    format!("INSERT INTO bench.d VALUE {}", row(id))
}

fn delete(id: i64) -> String {
    format!("DELETE FROM bench.d AS e WHERE e.id = {id}")
}

const UPDATE: &str = "UPDATE bench.d AS e SET e.v = e.v + 1 WHERE e.id = 0";

fn durable_engine(dir: &PathBuf, sync: SyncMode) -> Engine {
    Engine::open(SessionConfig {
        durability: Some(DurabilityConfig::new(dir).with_sync(sync)),
        ..SessionConfig::default()
    })
    .expect("fresh durability dir opens")
}

/// WAL bytes one statement appends.
fn wal_bytes_of(engine: &Engine, stmt: &str) -> u64 {
    let before = engine.wal_status().expect("durable").wal_bytes;
    engine.execute(stmt).unwrap();
    engine.wal_status().expect("durable").wal_bytes - before
}

/// Runs the suite.
pub fn run(h: &mut Harness) {
    // --- per-commit overhead: one UPDATE of one row, at each sync mode.
    const COMMIT_ROWS: usize = 1_000;

    let baseline = Engine::new();
    baseline.register("bench.d", rows(COMMIT_ROWS));
    h.bench("durability/commit_in_memory", || {
        baseline.execute(UPDATE).unwrap()
    });

    for sync in [SyncMode::Never, SyncMode::OnCheckpoint, SyncMode::Always] {
        let dir = work_dir(&format!("commit-{}", sync.name()));
        let engine = durable_engine(&dir, sync);
        engine.register("bench.d", rows(COMMIT_ROWS));
        // `register` does not log; the checkpoint makes the rows durable
        // so every timed commit appends exactly one patch record.
        engine.checkpoint().unwrap();
        h.bench(format!("durability/commit_wal_{}", sync.name()), || {
            engine.execute(UPDATE).unwrap()
        });
        let st = engine.wal_status().expect("durable engine has a WAL");
        h.attach_counters([
            (format!("appends_{}", sync.name()), st.appends),
            (format!("fsyncs_{}", sync.name()), st.syncs),
            (
                format!("wal_bytes_per_commit_{}", sync.name()),
                if st.appends == 0 {
                    0
                } else {
                    st.wal_bytes / st.appends
                },
            ),
        ]);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // --- single-row DML across collection sizes: WAL bytes per commit
    // (gated flat) and latency (reported).
    let mut per_commit: Vec<(usize, u64)> = Vec::new();
    for full in [1_000usize, 10_000, 100_000] {
        let n = scaled(h, full);
        let dir = work_dir(&format!("dml-{full}"));
        let engine = durable_engine(&dir, SyncMode::Never);
        engine.register("bench.d", rows(n));
        // Durable rows and an empty log, so every size starts from the
        // same LSN.
        engine.checkpoint().unwrap();
        let last = n as i64;
        let bytes = [
            ("insert", wal_bytes_of(&engine, &insert(last))),
            ("update", wal_bytes_of(&engine, UPDATE)),
            ("delete", wal_bytes_of(&engine, &delete(last))),
        ];
        h.bench(format!("durability/dml_update/{full}"), || {
            engine.execute(UPDATE).unwrap()
        });
        h.bench(format!("durability/dml_delete_reinsert/{full}"), || {
            engine.execute(&delete(0)).unwrap();
            engine.execute(&insert(0)).unwrap()
        });
        // Last: every iteration grows the collection.
        let mut next = last;
        h.bench(format!("durability/dml_insert/{full}"), || {
            next += 1;
            engine.execute(&insert(next)).unwrap()
        });
        let total: u64 = bytes.iter().map(|(_, b)| b).sum();
        let commit = total / bytes.len() as u64;
        per_commit.push((full, commit));
        h.attach_counters(
            bytes
                .iter()
                .map(|(kind, b)| (format!("wal_bytes_{kind}_{full}"), *b))
                .chain([
                    (format!("wal_bytes_per_commit_{full}"), commit),
                    (format!("rows_{full}"), n as u64),
                ]),
        );
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let max = per_commit
        .iter()
        .map(|(_, b)| *b)
        .max()
        .expect("three sizes");
    let min = per_commit
        .iter()
        .map(|(_, b)| *b)
        .min()
        .expect("three sizes");
    assert!(
        min > 0 && max * 10 <= min * 11,
        "single-row DML WAL bytes must not grow with the collection: {per_commit:?}"
    );

    // --- checkpoint write and cold-start recovery at 10k / 100k rows.
    for full in [10_000usize, 100_000] {
        let n = scaled(h, full).max(1_000);

        // Checkpoint: the engine-level path (image capture under the DML
        // guard + temp file + fsync + rename + WAL truncation).
        let dir = work_dir(&format!("checkpoint-{full}"));
        let engine = durable_engine(&dir, SyncMode::Always);
        engine.register("bench.d", rows(n));
        h.bench(format!("durability/checkpoint/{full}"), || {
            engine.checkpoint().unwrap().expect("durable engine")
        });
        let snap_bytes: u64 = std::fs::read_dir(&dir)
            .expect("dir lists")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
            .map(|e| e.metadata().map(|m| m.len()).unwrap_or(0))
            .sum();
        h.attach_counters([
            (format!("rows_{full}"), n as u64),
            (format!("snapshot_bytes_{full}"), snap_bytes),
        ]);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);

        // Recovery from a snapshot: one checksummed image read.
        let dir = work_dir(&format!("recover-snap-{full}"));
        {
            let (store, _) = DurableStore::open(DurabilityConfig::new(&dir)).expect("open");
            let mut image = CatalogImage::default();
            image
                .values
                .push(("bench.d".to_string(), Arc::new(rows(n))));
            store.checkpoint(image).expect("checkpoint");
        }
        h.bench(format!("durability/recover_snapshot/{full}"), || {
            let (_store, recovered) =
                DurableStore::open(DurabilityConfig::new(&dir)).expect("recover");
            assert_eq!(recovered.replayed, 0, "snapshot recovery replays nothing");
            recovered
        });
        let _ = std::fs::remove_dir_all(&dir);

        // Recovery by WAL replay: the same rows arriving as 64 full-value
        // commit records (sharded collections, as `register` logs them),
        // no snapshot to shortcut.
        let dir = work_dir(&format!("recover-wal-{full}"));
        const SHARDS: usize = 64;
        {
            let (store, _) =
                DurableStore::open(DurabilityConfig::new(&dir).with_sync(SyncMode::Never))
                    .expect("open");
            let per = n / SHARDS;
            for s in 0..SHARDS {
                store
                    .append_commit(&format!("bench.d{s}"), &rows(per))
                    .expect("append");
            }
        }
        let per = n / SHARDS;
        h.bench(format!("durability/recover_wal/{full}"), || {
            let (_store, recovered) =
                DurableStore::open(DurabilityConfig::new(&dir)).expect("recover");
            assert_eq!(recovered.replayed, SHARDS as u64, "all shards replay");
            let total: usize = recovered
                .image
                .values
                .iter()
                .filter_map(|(_, v)| v.as_elements().map(<[Value]>::len))
                .sum();
            assert_eq!(total, per * SHARDS, "replay reproduced every row");
            recovered
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
