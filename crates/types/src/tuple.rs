//! Tuples — immutable rows exchanged between OFMs over the network.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::value::Value;

/// An immutable row.
///
/// Tuples are reference-counted so that fragment-parallel operators can
/// share rows between the build and probe sides of a join, and between an
/// OFM's storage and in-flight messages, without copying. A `Tuple` clone
/// is a refcount bump.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple {
            values: values.into(),
        }
    }

    /// The empty (0-ary) tuple.
    pub fn unit() -> Self {
        Tuple::new(Vec::new())
    }

    /// Number of attributes.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// All values in order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at ordinal `i`; panics on out-of-range (callers type-check
    /// plans before execution, so an out-of-range ordinal is a planner bug).
    #[inline]
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// New tuple holding the attributes at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        indices.iter().map(|&i| self.values[i].clone()).collect()
    }

    /// Concatenation `self ++ other` — the join of two matching rows.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        self.values.iter().chain(other.values.iter()).cloned().collect()
    }

    /// Key extracted for hash/sort operations: the values at `indices`.
    pub fn key(&self, indices: &[usize]) -> Vec<Value> {
        indices.iter().map(|&i| self.values[i].clone()).collect()
    }

    /// Approximate in-memory footprint, for per-PE memory accounting.
    pub fn byte_size(&self) -> usize {
        std::mem::size_of::<Tuple>()
            + self.values.iter().map(Value::byte_size).sum::<usize>()
    }

    /// Wire size in bits when shipped through the interconnect: the paper's
    /// network moves 256-bit packets, so message costs are derived from this.
    pub fn wire_bits(&self) -> u64 {
        let bytes: usize = self
            .values
            .iter()
            .map(|v| match v {
                Value::Null => 1,
                Value::Bool(_) => 1,
                Value::Int(_) => 8,
                Value::Double(_) => 8,
                Value::Str(s) => 4 + s.len(),
            })
            .sum();
        (bytes as u64) * 8
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.values.iter()).finish()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

/// Collect a row straight into its shared slice. An iterator whose length
/// the standard library trusts — slices, ranges, and `map`/`chain`/
/// `cloned`/`zip` over them — costs **one allocation**: the `Arc<[Value]>`
/// itself. ([`Tuple::new`] costs two: the caller's `Vec`, then the copy
/// into the `Arc`.) Any other iterator is buffered first and costs what
/// `Tuple::new` does.
impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple {
            values: iter.into_iter().collect(),
        }
    }
}

/// Convenience macro for building tuples in tests and examples:
/// `tuple![1, "bob", 3.5]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_is_shallow() {
        let t = tuple![1, "shared"];
        let u = t.clone();
        assert!(Arc::ptr_eq(&t.values, &u.values));
    }

    #[test]
    fn project_concat_key() {
        let t = tuple![1, "a", 2.5];
        let p = t.project(&[2, 0]);
        assert_eq!(p, tuple![2.5, 1]);
        let c = t.concat(&tuple![true]);
        assert_eq!(c.arity(), 4);
        assert_eq!(t.key(&[1]), vec![Value::from("a")]);
    }

    #[test]
    fn collect_equals_new() {
        let vals = vec![Value::Int(1), Value::Null, Value::from("s")];
        let collected: Tuple = vals.iter().cloned().collect();
        assert_eq!(collected, Tuple::new(vals));
        assert_eq!((0..0).map(Value::Int).collect::<Tuple>(), Tuple::unit());
    }

    #[test]
    fn wire_bits_reflect_payload() {
        assert_eq!(tuple![1i64].wire_bits(), 64);
        assert_eq!(tuple!["ab"].wire_bits(), (4 + 2) * 8);
        assert_eq!(Tuple::unit().wire_bits(), 0);
    }

    #[test]
    fn display_format() {
        assert_eq!(tuple![1, "x"].to_string(), "(1, 'x')");
    }
}
