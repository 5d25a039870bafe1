//! Dictionary encoding of constants.
//!
//! A [`ValueInterner`] maps every distinct [`Value`] appearing in a database
//! to a dense `u32` *code* and back. Relations store their rows only as
//! columnar code arrays (see [`crate::relation::Relation`]), so the query
//! evaluator compares and hashes join keys as plain integers: two codes are
//! equal exactly when the underlying values are equal, because the
//! interner is shared database-wide. It is also the one place a row's
//! values live: a relation decodes a row through it on request.
//!
//! Codes are assigned in first-appearance order and never change — the
//! interner is append-only — so code arrays, column hash indexes and
//! compiled query plans built against a frozen database stay valid for its
//! lifetime.

use fxhash::FxHashMap;

use crate::value::Value;

/// An append-only bidirectional map between [`Value`]s and dense `u32` codes.
#[derive(Debug, Clone, Default)]
pub struct ValueInterner {
    values: Vec<Value>,
    codes: FxHashMap<Value, u32>,
}

impl ValueInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        ValueInterner::default()
    }

    /// The code of `value`, interning it first if it was never seen.
    pub fn intern(&mut self, value: &Value) -> u32 {
        if let Some(&code) = self.codes.get(value) {
            return code;
        }
        let code = u32::try_from(self.values.len()).expect("interner overflow: 2^32 values");
        self.values.push(value.clone());
        self.codes.insert(value.clone(), code);
        code
    }

    /// The code of `value`, or `None` when the value appears nowhere in the
    /// database. Compiled plans use this to fold constants that cannot match
    /// any row into an always-empty access path.
    pub fn code_of(&self, value: &Value) -> Option<u32> {
        self.codes.get(value).copied()
    }

    /// The value behind a code (an array probe; no hashing), or `None` when
    /// the code is out of range for this interner.
    ///
    /// Codes are only meaningful relative to the interner that produced
    /// them; a code obtained from a *foreign* interner (another database's
    /// dictionary) is at best a different value and at worst out of range.
    /// This is the total decoding API: callers that cannot prove provenance
    /// of a code — anything that crosses a database boundary — must use it
    /// instead of [`ValueInterner::value`] and handle `None`.
    pub fn decode(&self, code: u32) -> Option<&Value> {
        self.values.get(code as usize)
    }

    /// The value behind a code (an array probe; no hashing).
    ///
    /// Panics when the code was not produced by this interner; reserved for
    /// hot paths where provenance is guaranteed by construction (e.g. a
    /// compiled plan decoding registers filled from its own database).
    pub fn value(&self, code: u32) -> &Value {
        self.decode(code).unwrap_or_else(|| {
            panic!(
                "code {code} was not produced by this interner ({} values interned); \
                 decoding a foreign interner's code requires `decode`",
                self.values.len()
            )
        })
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Approximate heap bytes: the value array, each string payload once
    /// (with its reference counts), and the code map's slots plus one
    /// control byte per slot.
    pub fn heap_bytes(&self) -> usize {
        let strings: usize = self
            .values
            .iter()
            .map(|value| match value {
                Value::Int(_) => 0,
                Value::Str(s) => s.len() + 2 * std::mem::size_of::<usize>(),
            })
            .sum();
        let slot = std::mem::size_of::<(Value, u32)>() + 1;
        crate::relation::vec_bytes(&self.values) + strings + self.codes.capacity() * slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_dense_and_stable() {
        let mut interner = ValueInterner::new();
        let a = interner.intern(&Value::int(7));
        let b = interner.intern(&Value::str("x"));
        let a_again = interner.intern(&Value::int(7));
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(a_again, a);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.value(a), &Value::int(7));
        assert_eq!(interner.value(b), &Value::str("x"));
    }

    #[test]
    fn decode_is_total_over_arbitrary_codes() {
        let mut interner = ValueInterner::new();
        let a = interner.intern(&Value::str("a"));
        assert_eq!(interner.decode(a), Some(&Value::str("a")));
        assert_eq!(interner.decode(1), None);
        assert_eq!(interner.decode(u32::MAX), None);
        // An empty interner decodes nothing.
        assert_eq!(ValueInterner::new().decode(0), None);
    }

    #[test]
    #[should_panic(expected = "foreign interner")]
    fn value_panics_with_provenance_message_on_foreign_codes() {
        let mut interner = ValueInterner::new();
        interner.intern(&Value::int(1));
        let _ = interner.value(7);
    }

    #[test]
    fn lookup_distinguishes_known_from_unknown() {
        let mut interner = ValueInterner::new();
        interner.intern(&Value::str("a"));
        assert_eq!(interner.code_of(&Value::str("a")), Some(0));
        assert_eq!(interner.code_of(&Value::str("b")), None);
        // Int and Str payloads never collide.
        assert_eq!(interner.code_of(&Value::int(0)), None);
    }

    #[test]
    fn equal_codes_iff_equal_values() {
        let mut interner = ValueInterner::new();
        let vals = [
            Value::int(1),
            Value::str("1"),
            Value::int(-1),
            Value::str(""),
        ];
        let codes: Vec<u32> = vals.iter().map(|v| interner.intern(v)).collect();
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                assert_eq!(codes[i] == codes[j], a == b);
            }
        }
    }
}
