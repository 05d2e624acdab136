//! The workspace's one JSON writer.
//!
//! Two layers share a single string escaper ([`push_string`]) and a single
//! number rule ([`push_f64`]: shortest round-trip digits, non-finite as
//! `null`, since JSON has no NaN/Inf):
//!
//! * the compact primitives themselves, which the JSONL trace writer and
//!   [`MetricsSnapshot::to_json`](crate::MetricsSnapshot::to_json) call
//!   directly (integral floats print as `64`);
//! * a [`Json`] value tree with a deterministic pretty printer (2-space
//!   indent, object keys in insertion order) for experiment artifacts.
//!   There, every finite integral number keeps a `.0` suffix so readers
//!   type the column as float. Determinism matters: the sweep-harness
//!   tests compare sequential and parallel runs by these bytes.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An array of numbers.
    pub fn nums(values: impl IntoIterator<Item = f64>) -> Json {
        Json::Arr(values.into_iter().map(Json::Num).collect())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serializes with 2-space indentation and no trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(v) => {
                push_f64(out, *v);
                if v.is_finite() && *v == v.trunc() {
                    out.push_str(".0");
                }
            }
            Json::Str(s) => push_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    push_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

/// Appends `v` in Rust's shortest round-trip form (never exponent
/// notation), or `null` when it is NaN or infinite.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a quoted JSON string literal.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_rendering() {
        assert_eq!(Json::Null.to_string_pretty(), "null");
        assert_eq!(Json::Bool(true).to_string_pretty(), "true");
        assert_eq!(Json::Num(1.0).to_string_pretty(), "1.0");
        assert_eq!(Json::Num(1.5).to_string_pretty(), "1.5");
        assert_eq!(Json::Num(-0.0).to_string_pretty(), "-0.0");
        assert_eq!(Json::Num(1e15).to_string_pretty(), "1000000000000000.0");
        assert_eq!(Json::Num(-1e15).to_string_pretty(), "-1000000000000000.0");
        assert_eq!(
            Json::Num(1e20).to_string_pretty(),
            "100000000000000000000.0"
        );
        assert_eq!(Json::Num(f64::NAN).to_string_pretty(), "null");
        assert_eq!(Json::str("a\"b\n").to_string_pretty(), r#""a\"b\n""#);
    }

    #[test]
    fn nested_pretty_layout() {
        let v = Json::obj([
            ("name", Json::str("fig")),
            ("xs", Json::nums([0.0, 0.5])),
            ("empty", Json::Arr(vec![])),
        ]);
        let expect =
            "{\n  \"name\": \"fig\",\n  \"xs\": [\n    0.0,\n    0.5\n  ],\n  \"empty\": []\n}";
        assert_eq!(v.to_string_pretty(), expect);
    }

    #[test]
    fn deterministic_output() {
        let build = || Json::obj([("a", Json::Num(0.1)), ("b", Json::str("x"))]).to_string_pretty();
        assert_eq!(build(), build());
    }
}
