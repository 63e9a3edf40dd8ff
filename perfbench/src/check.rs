//! Order-insensitive result checksums and op-stream digests.
//!
//! Expected results are built in plain Rust from the generated rows and
//! compared with the engine's answers through [`Checksum`]: the row
//! count, a hash of every exact value, and the sum of the non-integral
//! numbers (compared with a relative tolerance, since the engine's
//! exact decimals and the oracle's floats round differently). Bags and
//! tuples hash commutatively, arrays in order.

use sqlpp_value::Value;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over bytes, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A bijective 64-bit finalizer, so commutative sums of hashes do not
/// cancel structurally.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Digest of an op stream: fold each op's text in order.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    pub fn add(&mut self, text: &str) {
        self.0 = fnv(self.0, text.as_bytes());
        self.0 = fnv(self.0, &[0xff]);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Checksum {
    pub rows: u64,
    pub hash: u64,
    pub approx: f64,
}

impl Checksum {
    /// Checksum of a query result: a bag/array of rows, or one value.
    pub fn of_result(v: &Value) -> Checksum {
        let mut c = Checksum::default();
        match v.as_elements() {
            Some(rows) => rows.iter().for_each(|r| c.add_row(r)),
            None => c.add_row(v),
        }
        c
    }

    pub fn add_row(&mut self, row: &Value) {
        self.rows += 1;
        self.hash = self
            .hash
            .wrapping_add(mix(value_hash(row, &mut self.approx)));
    }

    /// `Ok` when `actual` matches this expected checksum.
    pub fn expect(&self, actual: &Checksum) -> Result<(), String> {
        let tol = 1e-9 * self.approx.abs().max(1.0);
        if self.rows != actual.rows
            || self.hash != actual.hash
            || (self.approx - actual.approx).abs() > tol
        {
            return Err(format!("expected {self:?}, got {actual:?}"));
        }
        Ok(())
    }
}

fn value_hash(v: &Value, approx: &mut f64) -> u64 {
    let tag = |t: u8, x: u64| mix(x ^ (u64::from(t) << 56));
    match v {
        Value::Missing => tag(1, 0),
        Value::Null => tag(2, 0),
        Value::Bool(b) => tag(3, u64::from(*b)),
        Value::Int(_) | Value::Float(_) | Value::Decimal(_) => {
            let x = v.as_f64_lossy().expect("numeric");
            if x.fract() == 0.0 && x.abs() < 9.0e15 {
                tag(4, x as i64 as u64)
            } else {
                *approx += x;
                tag(5, 0)
            }
        }
        Value::Str(s) => tag(6, fnv(FNV_OFFSET, s.as_bytes())),
        Value::Bytes(b) => tag(7, fnv(FNV_OFFSET, b)),
        Value::Array(items) => items.iter().fold(tag(8, 0), |h, x| {
            mix(h.rotate_left(5) ^ value_hash(x, approx))
        }),
        Value::Bag(items) => items
            .iter()
            .fold(tag(9, 0), |h, x| h.wrapping_add(mix(value_hash(x, approx)))),
        Value::Tuple(t) => t.iter().fold(tag(10, 0), |h, (k, x)| {
            h.wrapping_add(mix(fnv(FNV_OFFSET, k.as_bytes()) ^ value_hash(x, approx)))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlpp_value::{Decimal, Tuple};

    fn row(pairs: &[(&str, Value)]) -> Value {
        let mut t = Tuple::new();
        for (k, v) in pairs {
            t.insert(*k, v.clone());
        }
        Value::Tuple(t)
    }

    #[test]
    fn checksum_ignores_row_and_attribute_order_but_not_pairing() {
        let a = row(&[("x", Value::Int(1)), ("y", Value::Str("a".into()))]);
        let b = row(&[("y", Value::Str("b".into())), ("x", Value::Int(2))]);
        let one = Checksum::of_result(&Value::Bag(vec![a.clone(), b.clone()]));
        let two = Checksum::of_result(&Value::Bag(vec![b, a]));
        one.expect(&two).unwrap();
        let swapped = Checksum::of_result(&Value::Bag(vec![
            row(&[("x", Value::Int(1)), ("y", Value::Str("b".into()))]),
            row(&[("x", Value::Int(2)), ("y", Value::Str("a".into()))]),
        ]));
        assert!(one.expect(&swapped).is_err());
    }

    #[test]
    fn decimals_match_floats_within_tolerance() {
        let d = Value::Decimal(Decimal::new(15, 1));
        let i = Value::Decimal(Decimal::new(50, 1));
        let exact = Checksum::of_result(&Value::Bag(vec![d, i]));
        let oracle = Checksum::of_result(&Value::Bag(vec![Value::Float(1.5), Value::Int(5)]));
        oracle.expect(&exact).unwrap();
    }

    #[test]
    fn digests_depend_on_every_op() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.add("SELECT 1");
        b.add("SELECT 2");
        assert_ne!(a.hex(), b.hex());
    }
}
