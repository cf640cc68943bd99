//! A JSON-like dynamic value with an order-preserving map.
//!
//! [`Value`] is the in-memory representation shared by the JSON and PML
//! parsers and by every configuration file in a Popper repository. Maps
//! preserve insertion order (like modern JSON implementations and YAML),
//! which keeps serialized artifacts stable and diff-friendly — an explicit
//! goal of the Popper convention.

use std::fmt::{self, Write as _};

/// A dynamically typed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` / PML `~`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A number. All numbers are stored as `f64`, which is lossless for
    /// integers up to 2^53 — far beyond anything a Popper config holds.
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered list.
    List(Vec<Value>),
    /// An order-preserving map from string keys to values.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// An empty map value.
    pub fn empty_map() -> Value {
        Value::Map(Vec::new())
    }

    /// True if this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Borrow as a bool, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrow as a number, if this is a `Num`.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Borrow as a string slice, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as a list, if this is a `List`.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as map entries, if this is a `Map`.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Look up a key in a map value. Returns `None` for non-maps and for
    /// missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Look up a dotted path (`"a.b.c"`) through nested maps.
    pub fn get_path(&self, path: &str) -> Option<&Value> {
        let mut cur = self;
        for seg in path.split('.') {
            cur = cur.get(seg)?;
        }
        Some(cur)
    }

    /// Convenience: `get(key)` then `as_str`.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Value::as_str)
    }

    /// Convenience: `get(key)` then `as_num`.
    pub fn get_num(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Value::as_num)
    }

    /// Convenience: `get(key)` then `as_bool`.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(Value::as_bool)
    }

    /// Convenience: `get(key)` then `as_list`.
    pub fn get_list(&self, key: &str) -> Option<&[Value]> {
        self.get(key).and_then(Value::as_list)
    }

    /// Insert or replace a key in a map value. Panics if `self` is not a map.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) {
        let key = key.into();
        match self {
            Value::Map(m) => {
                if let Some(slot) = m.iter_mut().find(|(k, _)| *k == key) {
                    slot.1 = value;
                } else {
                    m.push((key, value));
                }
            }
            _ => panic!("Value::insert on non-map value"),
        }
    }

    /// Remove a key from a map value, returning it if present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        match self {
            Value::Map(m) => {
                let idx = m.iter().position(|(k, _)| k == key)?;
                Some(m.remove(idx).1)
            }
            _ => None,
        }
    }

    /// The name of this value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::List(_) => "list",
            Value::Map(_) => "map",
        }
    }

    /// Render a scalar as the string PML/CSV would show; lists and maps
    /// render as compact JSON.
    pub fn to_display_string(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Bool(b) => b.to_string(),
            Value::Num(n) => fmt_num(*n),
            Value::Str(s) => s.clone(),
            other => crate::json::to_string(other),
        }
    }
}

/// Format a float the way JSON output should: integers without a trailing
/// `.0`, everything else via the shortest round-trippable representation.
pub(crate) fn fmt_num(n: f64) -> String {
    let mut out = String::new();
    push_num(&mut out, n);
    out
}

/// Append `n` to `out` as [`fmt_num`] formats it.
pub(crate) fn push_num(out: &mut String, n: f64) {
    let written = if n.fract() == 0.0 && n.abs() < 1e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    };
    written.expect("writing to a String cannot fail");
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_display_string())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}
impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Num(n as f64)
    }
}
impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Num(n as f64)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::List(v.into_iter().map(Into::into).collect())
    }
}

/// Build a map value from key/value pairs: `map![("a", 1i64), ("b", "x")]`.
#[macro_export]
macro_rules! map_value {
    ($(($k:expr, $v:expr)),* $(,)?) => {{
        let mut m = $crate::Value::empty_map();
        $( m.insert($k, $crate::Value::from($v)); )*
        m
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_insert_replaces_and_preserves_order() {
        let mut m = Value::empty_map();
        m.insert("b", Value::from(1i64));
        m.insert("a", Value::from(2i64));
        m.insert("b", Value::from(3i64));
        let entries = m.as_map().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, "b");
        assert_eq!(entries[0].1, Value::Num(3.0));
        assert_eq!(entries[1].0, "a");
    }

    #[test]
    fn get_path_traverses_nested_maps() {
        let mut inner = Value::empty_map();
        inner.insert("c", Value::from("deep"));
        let mut mid = Value::empty_map();
        mid.insert("b", inner);
        let mut outer = Value::empty_map();
        outer.insert("a", mid);
        assert_eq!(outer.get_path("a.b.c").and_then(|v| v.as_str()), Some("deep"));
        assert_eq!(outer.get_path("a.x.c"), None);
    }

    #[test]
    fn remove_returns_value() {
        let mut m = Value::empty_map();
        m.insert("k", Value::from(true));
        assert_eq!(m.remove("k"), Some(Value::Bool(true)));
        assert_eq!(m.remove("k"), None);
    }

    #[test]
    fn display_scalars() {
        assert_eq!(Value::Num(42.0).to_string(), "42");
        assert_eq!(Value::Num(1.5).to_string(), "1.5");
        assert_eq!(Value::Bool(false).to_string(), "false");
        assert_eq!(Value::Null.to_string(), "");
    }

    #[test]
    fn macro_builds_map() {
        let m = map_value![("a", 1i64), ("b", "x")];
        assert_eq!(m.get_num("a"), Some(1.0));
        assert_eq!(m.get_str("b"), Some("x"));
    }
}
