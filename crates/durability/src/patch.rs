//! Single-statement changes to one collection.
//!
//! A DML statement touches a few elements of a collection. A [`Patch`]
//! records exactly those: elements replaced in place (UPDATE), elements
//! removed (DELETE) and elements added at the end (INSERT). The same
//! [`Patch::apply`] runs when a statement commits and when recovery
//! replays its WAL record, so the live catalog and the recovered one
//! cannot diverge.

use sqlpp_value::Value;

/// The elements one statement changes in one collection. Positions index
/// the collection as it was before the statement. Applied in a fixed
/// order: replace, then delete (order-preserving, so an Array keeps its
/// order), then append.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Patch {
    /// `(position, new element)` pairs.
    pub replace: Vec<(usize, Value)>,
    /// Positions to remove, strictly ascending.
    pub delete: Vec<usize>,
    /// Elements added after the last one.
    pub append: Vec<Value>,
}

impl Patch {
    /// Checks that the patch fits `target`: a collection (or MISSING, an
    /// unbound name, which patches as the empty bag) with every position
    /// in range and deletions strictly ascending. Recovery runs this
    /// before applying a replayed patch, so a log that does not match
    /// its own history is reported instead of silently misapplied.
    pub fn check(&self, target: &Value) -> Result<(), String> {
        let len = match target {
            Value::Missing => 0,
            Value::Bag(items) | Value::Array(items) => items.len(),
            other => {
                return Err(format!(
                    "patch targets a {}, not a collection",
                    other.kind().name()
                ));
            }
        };
        if let Some((pos, _)) = self.replace.iter().find(|(pos, _)| *pos >= len) {
            return Err(format!(
                "patch replaces position {pos} of a {len}-element collection"
            ));
        }
        if self.delete.windows(2).any(|w| w[0] >= w[1]) {
            return Err("patch deletions are not strictly ascending".to_string());
        }
        if let Some(pos) = self.delete.last().filter(|&&pos| pos >= len) {
            return Err(format!(
                "patch deletes position {pos} of a {len}-element collection"
            ));
        }
        Ok(())
    }

    /// Applies the patch to `target` in place. MISSING (an unbound name)
    /// becomes a bag first. Never fails: a patch built from the snapshot
    /// it is applied to always fits, and anything that does not fit (see
    /// [`Patch::check`]) is skipped rather than indexed out of range.
    pub fn apply(self, target: &mut Value) {
        if target.is_missing() {
            *target = Value::Bag(Vec::new());
        }
        let (Value::Bag(items) | Value::Array(items)) = target else {
            return;
        };
        for (pos, element) in self.replace {
            if let Some(slot) = items.get_mut(pos) {
                *slot = element;
            }
        }
        if !self.delete.is_empty() {
            let mut doomed = self.delete.iter().peekable();
            let mut pos = 0usize;
            items.retain(|_| {
                let hit = doomed.next_if_eq(&&pos).is_some();
                pos += 1;
                !hit
            });
        }
        items.extend(self.append);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlpp_value::{array, bag};

    #[test]
    fn replace_then_delete_then_append_in_old_positions() {
        let mut v = array![0i64, 1i64, 2i64, 3i64, 4i64];
        let patch = Patch {
            replace: vec![(1, Value::Int(10)), (4, Value::Int(40))],
            delete: vec![0, 2],
            append: vec![Value::Int(5)],
        };
        patch.check(&v).unwrap();
        patch.apply(&mut v);
        assert_eq!(v, array![10i64, 3i64, 40i64, 5i64]);
    }

    #[test]
    fn an_unbound_name_patches_as_the_empty_bag() {
        let mut v = Value::Missing;
        let patch = Patch {
            append: vec![Value::Int(1)],
            ..Patch::default()
        };
        patch.check(&v).unwrap();
        patch.apply(&mut v);
        assert_eq!(v, bag![1i64]);
    }

    #[test]
    fn patches_that_do_not_fit_are_reported() {
        let v = bag![1i64, 2i64];
        let out_of_range = Patch {
            replace: vec![(2, Value::Null)],
            ..Patch::default()
        };
        assert!(out_of_range.check(&v).is_err());
        let unsorted = Patch {
            delete: vec![1, 0],
            ..Patch::default()
        };
        assert!(unsorted.check(&v).is_err());
        let past_end = Patch {
            delete: vec![0, 2],
            ..Patch::default()
        };
        assert!(past_end.check(&v).is_err());
        assert!(Patch::default().check(&Value::Int(1)).is_err());
        // Applying one anyway changes nothing it cannot index.
        let mut w = v.clone();
        out_of_range.apply(&mut w);
        assert_eq!(w, v);
    }
}
