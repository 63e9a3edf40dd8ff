//! The WAL record model and its ion_lite payload encoding.
//!
//! One record is one committed catalog mutation, stamped with the
//! monotonic log sequence number (LSN) assigned at append time. The
//! payload is an ordinary SQL++ tuple value run through the first-party
//! `ion_lite` binary codec — the catalog's own data model carries its
//! own log, no second serialization layer needed (the format-
//! independence tenet applied to the engine's internals):
//!
//! ```text
//! { 'lsn': <int>, 'op': <string>, 'name': <string>
//! , 'value': <any>            -- present for commit / commit-schema
//! , 'schema': <type value>    -- present for schema / commit-schema
//! , 'replace': [[<pos>, <any>] …], 'delete': [<pos> …],
//!   'append': [<any> …]       -- present for patch
//! }
//! ```
//!
//! Ops: `patch` (one DML statement: the elements it replaced, deleted
//! and appended, by position in the collection before the statement —
//! see [`Patch`]; its size follows the rows the statement changed, not
//! the collection), `commit` (full value for a binding: loading,
//! snapshot import, and the base of a binding published without
//! logging, the first time a patch names it), `commit-schema` (CREATE
//! TABLE / schema-validated registration: value and schema land in
//! *one* record so a statement is one atomic log entry), `schema`
//! (attach/replace a schema only), and `remove` (unbind a name).
//! Schemas ride as values through [`type_to_value`]/[`type_from_value`].
//!
//! A patch is only meaningful on top of exactly the state it was built
//! from, so nothing is appended after a record whose fate is unknown: an
//! append whose fsync fails poisons the store (see `DurableStore`).
//! Encoding borrows every value ([`Borrowed`]); decoding moves each
//! decoded value into the record.

use sqlpp_formats::ion_lite::{from_ion_lite, to_ion_lite_borrowed, Borrowed};
use sqlpp_schema::{Field, SqlppType, TupleType};
use sqlpp_value::{Tuple, Value};

use crate::patch::Patch;

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The log sequence number (monotonic, starts at 1).
    pub lsn: u64,
    /// The operation.
    pub op: WalOp,
}

/// The catalog mutation a WAL record carries.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Replace (or create) `name`'s binding with `value`.
    Commit {
        /// The bound name.
        name: String,
        /// The full replacement value.
        value: Value,
    },
    /// Replace `name`'s binding *and* attach `schema` — one record, so
    /// a CREATE TABLE is a single atomic log entry.
    CommitWithSchema {
        /// The bound name.
        name: String,
        /// The full replacement value.
        value: Value,
        /// The attached element schema.
        schema: SqlppType,
    },
    /// Apply one DML statement's [`Patch`] to `name`'s collection (an
    /// unbound name patches as the empty bag).
    Patch {
        /// The patched name.
        name: String,
        /// The elements the statement changed.
        patch: Patch,
    },
    /// Attach (or replace) `name`'s element schema.
    SetSchema {
        /// The bound name.
        name: String,
        /// The attached element schema.
        schema: SqlppType,
    },
    /// Unbind `name` (and any attached schema).
    Remove {
        /// The unbound name.
        name: String,
    },
}

impl WalOp {
    /// The name this mutation targets.
    pub fn name(&self) -> &str {
        match self {
            WalOp::Commit { name, .. }
            | WalOp::CommitWithSchema { name, .. }
            | WalOp::Patch { name, .. }
            | WalOp::SetSchema { name, .. }
            | WalOp::Remove { name } => name,
        }
    }

    /// Whether replaying this record moves the catalog's schema epoch.
    pub fn touches_schema(&self) -> bool {
        matches!(
            self,
            WalOp::CommitWithSchema { .. } | WalOp::SetSchema { .. } | WalOp::Remove { .. }
        )
    }

    /// The op as its borrowed view.
    pub fn borrowed(&self) -> OpRef<'_> {
        match self {
            WalOp::Commit { name, value } => OpRef::Commit { name, value },
            WalOp::CommitWithSchema {
                name,
                value,
                schema,
            } => OpRef::CommitWithSchema {
                name,
                value,
                schema,
            },
            WalOp::Patch { name, patch } => OpRef::Patch { name, patch },
            WalOp::SetSchema { name, schema } => OpRef::SetSchema { name, schema },
            WalOp::Remove { name } => OpRef::Remove { name },
        }
    }
}

/// A [`WalOp`] whose parts are borrowed: what an append encodes, so
/// logging a value never copies it.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)] // the fields mirror `WalOp`'s
pub enum OpRef<'a> {
    Commit {
        name: &'a str,
        value: &'a Value,
    },
    CommitWithSchema {
        name: &'a str,
        value: &'a Value,
        schema: &'a SqlppType,
    },
    Patch {
        name: &'a str,
        patch: &'a Patch,
    },
    SetSchema {
        name: &'a str,
        schema: &'a SqlppType,
    },
    Remove {
        name: &'a str,
    },
}

/// Encodes the record `lsn: op` to its ion_lite payload bytes.
pub fn encode_record(lsn: u64, op: OpRef<'_>) -> Vec<u8> {
    use Borrowed as B;
    let schema = match op {
        OpRef::CommitWithSchema { schema, .. } | OpRef::SetSchema { schema, .. } => {
            Some(type_to_value(schema))
        }
        _ => None,
    };
    let mut fields = vec![("lsn", B::Int(lsn as i64))];
    match op {
        OpRef::Commit { name, value } => {
            fields.push(("op", B::Str("commit")));
            fields.push(("name", B::Str(name)));
            fields.push(("value", B::Value(value)));
        }
        OpRef::CommitWithSchema { name, value, .. } => {
            fields.push(("op", B::Str("commit-schema")));
            fields.push(("name", B::Str(name)));
            fields.push(("value", B::Value(value)));
        }
        OpRef::Patch { name, patch } => {
            let position = |pos: usize| B::Int(pos as i64);
            fields.push(("op", B::Str("patch")));
            fields.push(("name", B::Str(name)));
            fields.push((
                "replace",
                B::Array(
                    patch
                        .replace
                        .iter()
                        .map(|(pos, element)| B::Array(vec![position(*pos), B::Value(element)]))
                        .collect(),
                ),
            ));
            fields.push((
                "delete",
                B::Array(patch.delete.iter().map(|&pos| position(pos)).collect()),
            ));
            fields.push((
                "append",
                B::Array(patch.append.iter().map(B::Value).collect()),
            ));
        }
        OpRef::SetSchema { name, .. } => {
            fields.push(("op", B::Str("schema")));
            fields.push(("name", B::Str(name)));
        }
        OpRef::Remove { name } => {
            fields.push(("op", B::Str("remove")));
            fields.push(("name", B::Str(name)));
        }
    }
    if let Some(schema) = &schema {
        fields.push(("schema", B::Value(schema)));
    }
    to_ion_lite_borrowed(&B::Tuple(fields))
}

/// Decodes a checksum-valid payload back into a record. Any shape
/// mismatch here is *corruption*, not a torn write — the checksum
/// already vouched for the bytes.
pub fn decode_record(payload: &[u8]) -> Result<WalRecord, String> {
    let value = from_ion_lite(payload).map_err(|e| format!("undecodable record payload: {e}"))?;
    let Value::Tuple(mut t) = value else {
        return Err("record payload is not a tuple".to_string());
    };
    let lsn = field_int(&t, "lsn")?;
    let op = field_str(&t, "op")?.to_string();
    let name = field_str(&t, "name")?.to_string();
    let op = match op.as_str() {
        "commit" => WalOp::Commit {
            name,
            value: take_field(&mut t, "value")?,
        },
        "commit-schema" => WalOp::CommitWithSchema {
            name,
            value: take_field(&mut t, "value")?,
            schema: type_from_value(&take_field(&mut t, "schema")?)?,
        },
        "patch" => WalOp::Patch {
            name,
            patch: Patch {
                replace: take_array(&mut t, "replace")?
                    .into_iter()
                    .map(|pair| {
                        let Value::Array(pair) = pair else {
                            return Err("patch replacement is not an array".to_string());
                        };
                        let [pos, element] = <[Value; 2]>::try_from(pair).map_err(|_| {
                            "patch replacement is not a [position, element] pair".to_string()
                        })?;
                        Ok((position(&pos)?, element))
                    })
                    .collect::<Result<_, String>>()?,
                delete: take_array(&mut t, "delete")?
                    .iter()
                    .map(position)
                    .collect::<Result<_, String>>()?,
                append: take_array(&mut t, "append")?,
            },
        },
        "schema" => WalOp::SetSchema {
            name,
            schema: type_from_value(&take_field(&mut t, "schema")?)?,
        },
        "remove" => WalOp::Remove { name },
        other => return Err(format!("unknown record op {other:?}")),
    };
    Ok(WalRecord { lsn, op })
}

/// Moves a field's value out of a decoded tuple.
fn take_field(t: &mut Tuple, name: &str) -> Result<Value, String> {
    t.remove(name)
        .ok_or_else(|| format!("missing field {name:?}"))
}

fn take_array(t: &mut Tuple, name: &str) -> Result<Vec<Value>, String> {
    match take_field(t, name)? {
        Value::Array(items) => Ok(items),
        other => Err(format!("field {name:?} is {}", other.kind().name())),
    }
}

fn position(v: &Value) -> Result<usize, String> {
    match v {
        Value::Int(i) if *i >= 0 => Ok(*i as usize),
        other => Err(format!("patch position is {other}")),
    }
}

fn field_int(t: &Tuple, name: &str) -> Result<u64, String> {
    match t.get(name) {
        Some(Value::Int(i)) if *i >= 0 => Ok(*i as u64),
        Some(other) => Err(format!("field {name:?} is {}", other.kind().name())),
        None => Err(format!("missing field {name:?}")),
    }
}

fn field_str<'a>(t: &'a Tuple, name: &str) -> Result<&'a str, String> {
    match t.get(name) {
        Some(Value::Str(s)) => Ok(s),
        Some(other) => Err(format!("field {name:?} is {}", other.kind().name())),
        None => Err(format!("missing field {name:?}")),
    }
}

fn field_value(t: &Tuple, name: &str) -> Result<Value, String> {
    t.get(name)
        .cloned()
        .ok_or_else(|| format!("missing field {name:?}"))
}

// ---------------- SqlppType ⇄ Value ----------------
//
// Schemas must survive the WAL and snapshots; the structural type enum
// has no serialization of its own, so it rides as a SQL++ value:
// `{'k': 'int'}`, `{'k': 'array', 'elem': …}`,
// `{'k': 'tuple', 'open': bool, 'fields': [{'name','ty','optional'}…]}`,
// `{'k': 'union', 'alts': […]}`.

/// Encodes a structural type as a SQL++ value.
pub fn type_to_value(ty: &SqlppType) -> Value {
    let mut t = Tuple::with_capacity(2);
    let kind = |k: &str| Value::Str(k.to_string());
    match ty {
        SqlppType::Any => t.insert("k", kind("any")),
        SqlppType::Null => t.insert("k", kind("null")),
        SqlppType::Missing => t.insert("k", kind("missing")),
        SqlppType::Bool => t.insert("k", kind("bool")),
        SqlppType::Int => t.insert("k", kind("int")),
        SqlppType::Float => t.insert("k", kind("float")),
        SqlppType::Decimal => t.insert("k", kind("decimal")),
        SqlppType::Str => t.insert("k", kind("str")),
        SqlppType::Bytes => t.insert("k", kind("bytes")),
        SqlppType::Array(elem) => {
            t.insert("k", kind("array"));
            t.insert("elem", type_to_value(elem));
        }
        SqlppType::Bag(elem) => {
            t.insert("k", kind("bag"));
            t.insert("elem", type_to_value(elem));
        }
        SqlppType::Tuple(tt) => {
            t.insert("k", kind("tuple"));
            t.insert("open", Value::Bool(tt.open));
            let fields = tt
                .fields
                .iter()
                .map(|f| {
                    let mut ft = Tuple::with_capacity(3);
                    ft.insert("name", Value::Str(f.name.clone()));
                    ft.insert("ty", type_to_value(&f.ty));
                    ft.insert("optional", Value::Bool(f.optional));
                    Value::Tuple(ft)
                })
                .collect();
            t.insert("fields", Value::Array(fields));
        }
        SqlppType::Union(alts) => {
            t.insert("k", kind("union"));
            t.insert(
                "alts",
                Value::Array(alts.iter().map(type_to_value).collect()),
            );
        }
    }
    Value::Tuple(t)
}

/// Decodes a structural type from its value encoding.
pub fn type_from_value(v: &Value) -> Result<SqlppType, String> {
    let t = v
        .as_tuple()
        .ok_or_else(|| "type encoding is not a tuple".to_string())?;
    let kind = field_str(t, "k")?;
    Ok(match kind {
        "any" => SqlppType::Any,
        "null" => SqlppType::Null,
        "missing" => SqlppType::Missing,
        "bool" => SqlppType::Bool,
        "int" => SqlppType::Int,
        "float" => SqlppType::Float,
        "decimal" => SqlppType::Decimal,
        "str" => SqlppType::Str,
        "bytes" => SqlppType::Bytes,
        "array" => SqlppType::Array(Box::new(type_from_value(&field_value(t, "elem")?)?)),
        "bag" => SqlppType::Bag(Box::new(type_from_value(&field_value(t, "elem")?)?)),
        "tuple" => {
            let open = match t.get("open") {
                Some(Value::Bool(b)) => *b,
                _ => return Err("tuple type missing 'open'".to_string()),
            };
            let fields = match t.get("fields") {
                Some(Value::Array(items)) => items
                    .iter()
                    .map(|item| {
                        let ft = item
                            .as_tuple()
                            .ok_or_else(|| "tuple field is not a tuple".to_string())?;
                        Ok(Field {
                            name: field_str(ft, "name")?.to_string(),
                            ty: type_from_value(&field_value(ft, "ty")?)?,
                            optional: match ft.get("optional") {
                                Some(Value::Bool(b)) => *b,
                                _ => return Err("field missing 'optional'".to_string()),
                            },
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
                _ => return Err("tuple type missing 'fields'".to_string()),
            };
            SqlppType::Tuple(TupleType { fields, open })
        }
        "union" => {
            let alts = match t.get("alts") {
                Some(Value::Array(items)) => items.iter().map(type_from_value).collect::<Result<
                    Vec<_>,
                    String,
                >>(
                )?,
                _ => return Err("union type missing 'alts'".to_string()),
            };
            if alts.is_empty() {
                return Err("union type with no alternatives".to_string());
            }
            SqlppType::Union(alts)
        }
        other => return Err(format!("unknown type kind {other:?}")),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sqlpp_value::{array, bag, tuple};

    fn rt(op: WalOp) {
        let rec = WalRecord { lsn: 42, op };
        let payload = encode_record(rec.lsn, rec.op.borrowed());
        assert_eq!(decode_record(&payload).unwrap(), rec);
    }

    #[test]
    fn records_round_trip() {
        rt(WalOp::Commit {
            name: "hr.emp".into(),
            value: bag![1i64, 2i64],
        });
        rt(WalOp::CommitWithSchema {
            name: "t".into(),
            value: Value::empty_bag(),
            schema: SqlppType::Tuple(TupleType::closed([
                ("id", SqlppType::Int),
                ("name", SqlppType::Str),
            ])),
        });
        rt(WalOp::Patch {
            name: "t".into(),
            patch: Patch {
                replace: vec![(3, bag![Value::Null]), (0, Value::Missing)],
                delete: vec![1, 4],
                append: vec![Value::Int(9), Value::Missing],
            },
        });
        rt(WalOp::Patch {
            name: "t".into(),
            patch: Patch::default(),
        });
        rt(WalOp::SetSchema {
            name: "t".into(),
            schema: SqlppType::Bag(Box::new(SqlppType::Any)),
        });
        rt(WalOp::Remove {
            name: "gone".into(),
        });
    }

    pub(crate) fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    pub(crate) fn pinned_row() -> Value {
        Value::Tuple(tuple! {
            "id" => 1i64,
            "name" => "Ann",
            "xs" => array![1.5f64, Value::Null],
            "t" => true,
        })
    }

    /// Full-value records are a stored format that existing logs hold:
    /// the encoder must reproduce these bytes exactly.
    #[test]
    fn full_value_record_bytes_are_pinned() {
        let commit = WalRecord {
            lsn: 300,
            op: WalOp::Commit {
                name: "hr.emp".into(),
                value: bag![pinned_row(), 2i64],
            },
        };
        assert_eq!(
            hex(&encode_record(commit.lsn, commit.op.borrowed())),
            "0b04036c736e04d804026f700706636f6d6d6974046e616d65070668722e656d700576616c7565\
             0a020b040269640402046e616d650703416e6e027873090205000000000000f83f010174030404"
        );
        let with_schema = WalRecord {
            lsn: 5,
            op: WalOp::CommitWithSchema {
                name: "t".into(),
                value: bag![pinned_row()],
                schema: SqlppType::Tuple(TupleType::closed([
                    ("id", SqlppType::Int),
                    ("name", SqlppType::Str),
                ])),
            },
        };
        assert_eq!(
            hex(&encode_record(with_schema.lsn, with_schema.op.borrowed())),
            "0b05036c736e040a026f70070d636f6d6d69742d736368656d61046e616d650701740576616c7565\
             0a010b040269640402046e616d650703416e6e027873090205000000000000f83f0101740306736368\
             656d610b03016b07057475706c65046f70656e02066669656c647309020b03046e616d6507026964\
             0274790b01016b0703696e74086f7074696f6e616c020b03046e616d6507046e616d650274790b0101\
             6b0703737472086f7074696f6e616c02"
        );
    }

    #[test]
    fn every_type_shape_round_trips() {
        let shapes = [
            SqlppType::Any,
            SqlppType::Null,
            SqlppType::Missing,
            SqlppType::Bool,
            SqlppType::Int,
            SqlppType::Float,
            SqlppType::Decimal,
            SqlppType::Str,
            SqlppType::Bytes,
            SqlppType::Array(Box::new(SqlppType::Union(vec![
                SqlppType::Int,
                SqlppType::Str,
            ]))),
            SqlppType::Bag(Box::new(SqlppType::Tuple(
                TupleType::closed([("x", SqlppType::Float)]).into_open(),
            ))),
        ];
        for ty in shapes {
            let back = type_from_value(&type_to_value(&ty)).unwrap();
            assert_eq!(back, ty);
        }
    }

    #[test]
    fn optional_fields_survive() {
        let ty = SqlppType::Tuple(TupleType {
            fields: vec![Field {
                name: "title".into(),
                ty: SqlppType::Str,
                optional: true,
            }],
            open: true,
        });
        assert_eq!(type_from_value(&type_to_value(&ty)).unwrap(), ty);
    }

    #[test]
    fn garbage_payloads_are_structured_errors() {
        assert!(decode_record(b"not ion").is_err());
        // A valid value of the wrong shape.
        let wrong = sqlpp_formats::ion_lite::to_ion_lite(&Value::Int(7));
        assert!(decode_record(&wrong).is_err());
        // A tuple missing required fields.
        let mut t = Tuple::new();
        t.insert("lsn", Value::Int(1));
        let partial = sqlpp_formats::ion_lite::to_ion_lite(&Value::Tuple(t));
        assert!(decode_record(&partial).is_err());
    }
}
