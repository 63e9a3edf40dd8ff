//! Checkpoint snapshots: the full catalog image in one checksummed
//! frame.
//!
//! A snapshot file is a single frame (same `[len][crc][payload]` layout
//! as a WAL record) whose payload is one ion_lite tuple:
//!
//! ```text
//! { 'format': 'sqlpp-snapshot', 'version': 1, 'lsn': <int>,
//!   'epoch': <int>,
//!   'values':  [ {'name': <str>, 'value': <any>} … ],
//!   'schemas': [ {'name': <str>, 'ty': <type value>} … ] }
//! ```
//!
//! `lsn` is the last log sequence number the image covers: recovery
//! loads the image and replays only WAL records with a larger LSN.
//! Snapshots are written to a `.tmp` sibling, fsynced, and atomically
//! renamed into place — a crash mid-write leaves only a `.tmp` orphan
//! (deleted on the next open), never a half-valid snapshot under the
//! real name.

use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use sqlpp_formats::ion_lite::{to_ion_lite_borrowed, Borrowed};
use sqlpp_schema::SqlppType;
use sqlpp_value::{Tuple, Value};

use crate::crc32::crc32;
use crate::record::{type_from_value, type_to_value};
use crate::wal::FRAME_HEADER;
use crate::DurabilityError;

/// The catalog contents a snapshot carries (and recovery restores):
/// every named value, every schema attachment, and the schema epoch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CatalogImage {
    /// `(dotted name, value)` bindings, in name order. Values are shared
    /// with the catalog they were captured from, not copied.
    pub values: Vec<(String, Arc<Value>)>,
    /// `(dotted name, element type)` schema attachments, in name order.
    pub schemas: Vec<(String, SqlppType)>,
    /// The schema epoch at capture time; restored monotonically so
    /// epochs never move backwards across a restart.
    pub schema_epoch: u64,
}

/// A catalog image stamped with the LSN it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Last LSN whose effects are inside the image (0 = empty log).
    pub lsn: u64,
    /// The catalog contents.
    pub image: CatalogImage,
}

/// Encodes a snapshot into its single-frame file contents, writing every
/// value straight from the image.
pub fn encode_snapshot(snap: &Snapshot) -> Vec<u8> {
    use Borrowed as B;
    let schemas: Vec<(&str, Value)> = snap
        .image
        .schemas
        .iter()
        .map(|(name, ty)| (name.as_str(), type_to_value(ty)))
        .collect();
    fn entry<'a>(name: &'a str, key: &'a str, value: &'a Value) -> Borrowed<'a> {
        Borrowed::Tuple(vec![
            ("name", Borrowed::Str(name)),
            (key, Borrowed::Value(value)),
        ])
    }
    let payload = to_ion_lite_borrowed(&B::Tuple(vec![
        ("format", B::Str("sqlpp-snapshot")),
        ("version", B::Int(1)),
        ("lsn", B::Int(snap.lsn as i64)),
        ("epoch", B::Int(snap.image.schema_epoch as i64)),
        (
            "values",
            B::Array(
                snap.image
                    .values
                    .iter()
                    .map(|(name, value)| entry(name, "value", value))
                    .collect(),
            ),
        ),
        (
            "schemas",
            B::Array(
                schemas
                    .iter()
                    .map(|(name, ty)| entry(name, "ty", ty))
                    .collect(),
            ),
        ),
    ]));
    crate::wal::frame(&payload)
}

/// Decodes snapshot file contents, moving each decoded value into the
/// image. Any defect — bad frame, bad checksum, wrong format marker,
/// undecodable image — is a `String` reason the caller wraps into a
/// structured error (or uses to fall back to an older snapshot).
pub fn decode_snapshot(data: &[u8]) -> Result<Snapshot, String> {
    if data.len() < FRAME_HEADER {
        return Err("snapshot shorter than a frame header".to_string());
    }
    let len = u32::from_le_bytes(data[..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes"));
    if FRAME_HEADER + len != data.len() {
        return Err(format!(
            "snapshot frame declares {len} payload bytes, file holds {}",
            data.len() - FRAME_HEADER
        ));
    }
    let payload = &data[FRAME_HEADER..];
    if crc32(payload) != crc {
        return Err("snapshot checksum mismatch".to_string());
    }
    let value = sqlpp_formats::ion_lite::from_ion_lite(payload)
        .map_err(|e| format!("undecodable snapshot payload: {e}"))?;
    let Value::Tuple(mut t) = value else {
        return Err("snapshot payload is not a tuple".to_string());
    };
    match t.get("format") {
        Some(Value::Str(s)) if s == "sqlpp-snapshot" => {}
        _ => return Err("missing sqlpp-snapshot format marker".to_string()),
    }
    match t.get("version") {
        Some(Value::Int(1)) => {}
        Some(Value::Int(v)) => return Err(format!("unsupported snapshot version {v}")),
        _ => return Err("missing snapshot version".to_string()),
    }
    let lsn = get_u64(&t, "lsn")?;
    let schema_epoch = get_u64(&t, "epoch")?;
    let mut values = Vec::new();
    for mut e in take_entries(&mut t, "values")? {
        values.push((get_str(&e, "name")?, Arc::new(take_val(&mut e, "value")?)));
    }
    let mut schemas = Vec::new();
    for mut e in take_entries(&mut t, "schemas")? {
        schemas.push((
            get_str(&e, "name")?,
            type_from_value(&take_val(&mut e, "ty")?)?,
        ));
    }
    Ok(Snapshot {
        lsn,
        image: CatalogImage {
            values,
            schemas,
            schema_epoch,
        },
    })
}

fn get_u64(t: &Tuple, name: &str) -> Result<u64, String> {
    match t.get(name) {
        Some(Value::Int(i)) if *i >= 0 => Ok(*i as u64),
        _ => Err(format!("snapshot field {name:?} missing or malformed")),
    }
}

fn get_str(t: &Tuple, name: &str) -> Result<String, String> {
    match t.get(name) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("snapshot field {name:?} missing or malformed")),
    }
}

fn take_val(t: &mut Tuple, name: &str) -> Result<Value, String> {
    t.remove(name)
        .ok_or_else(|| format!("snapshot field {name:?} missing"))
}

/// Moves the `{name, …}` entry tuples of the `values` / `schemas` list
/// out of the snapshot tuple.
fn take_entries(t: &mut Tuple, list: &str) -> Result<Vec<Tuple>, String> {
    let Ok(Value::Array(items)) = take_val(t, list) else {
        return Err(format!("snapshot missing '{list}'"));
    };
    items
        .into_iter()
        .map(|item| match item {
            Value::Tuple(e) => Ok(e),
            _ => Err(format!("snapshot {list} entry is not a tuple")),
        })
        .collect()
}

/// Writes a snapshot to `path` directly (no tmp/rename dance — the
/// checkpoint path layers that on top; the REPL's `.save` uses this
/// for one-shot exports). `sync` forces the bytes to disk before
/// returning.
pub fn write_snapshot(path: &Path, snap: &Snapshot, sync: bool) -> Result<(), DurabilityError> {
    let bytes = encode_snapshot(snap);
    let mut f = File::create(path).map_err(|e| DurabilityError::io("create", path, &e))?;
    f.write_all(&bytes)
        .map_err(|e| DurabilityError::io("write", path, &e))?;
    if sync {
        f.sync_all()
            .map_err(|e| DurabilityError::io("fsync", path, &e))?;
    }
    Ok(())
}

/// Reads and validates a snapshot file.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, DurabilityError> {
    let data = std::fs::read(path).map_err(|e| DurabilityError::io("read", path, &e))?;
    decode_snapshot(&data).map_err(|message| DurabilityError::Corrupt {
        path: path.to_path_buf(),
        offset: 0,
        message,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::{hex, pinned_row};
    use sqlpp_value::bag;

    fn sample() -> Snapshot {
        Snapshot {
            lsn: 17,
            image: CatalogImage {
                values: vec![
                    ("hr.emp".into(), Arc::new(bag![pinned_row(), 2i64])),
                    ("t".into(), Arc::new(Value::empty_bag())),
                ],
                schemas: vec![("t".into(), SqlppType::Bag(Box::new(SqlppType::Int)))],
                schema_epoch: 3,
            },
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = sample();
        assert_eq!(decode_snapshot(&encode_snapshot(&snap)).unwrap(), snap);
    }

    /// Snapshots are a stored format that existing directories hold: the
    /// encoder must reproduce these bytes exactly.
    #[test]
    fn snapshot_bytes_are_pinned() {
        assert_eq!(
            hex(&encode_snapshot(&sample())),
            "b60000007efd48860b0606666f726d6174070e73716c70702d736e617073686f740776657273696f6e\
             0402036c736e04220565706f636804060676616c75657309020b02046e616d65070668722e656d7005\
             76616c75650a020b040269640402046e616d650703416e6e027873090205000000000000f83f010174\
             0304040b02046e616d650701740576616c75650a0007736368656d617309010b02046e616d65070174\
             0274790b02016b070362616704656c656d0b01016b0703696e74"
        );
    }

    #[test]
    fn truncation_and_flips_are_rejected() {
        let bytes = encode_snapshot(&sample());
        for cut in 0..bytes.len() {
            assert!(decode_snapshot(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 1;
        assert!(decode_snapshot(&flipped).is_err());
        // Trailing garbage after the frame is rejected too.
        let mut extended = bytes;
        extended.push(0);
        assert!(decode_snapshot(&extended).is_err());
    }
}
