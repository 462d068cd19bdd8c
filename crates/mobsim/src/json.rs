//! A minimal JSON document model and pretty-printer.
//!
//! The build environment has no network access, so `serde_json` is not
//! available; experiment reports and the benchmark's result lines are
//! emitted through this module instead. Only
//! what the reports need is implemented: construction and serialisation —
//! parsing is out of scope.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer number (serialised without a decimal point).
    Int(i64),
    /// Unsigned integer number.
    UInt(u64),
    /// Floating-point number; non-finite values serialise as `null`.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// String value helper.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Object builder helper.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Render with two-space indentation (the `serde_json::to_string_pretty`
    /// style the reports used before).
    pub fn pretty(&self) -> String {
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
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    // `{}` prints integral f64s without a fraction, which is
                    // still valid JSON.
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
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
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
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

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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
    fn renders_nested_documents() {
        let doc = Json::obj(vec![
            ("name", Json::str("figure5")),
            ("n", Json::UInt(3)),
            ("x", Json::Num(1.5)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("empty", Json::Obj(vec![])),
        ]);
        let text = doc.pretty();
        assert!(text.contains("\"name\": \"figure5\""));
        assert!(text.contains("\"n\": 3"));
        assert!(text.contains("\"x\": 1.5"));
        assert!(text.contains("true"));
        assert!(text.contains("\"empty\": {}"));
        assert!(text.starts_with('{') && text.ends_with('}'));
    }

    #[test]
    fn escapes_strings() {
        let s = Json::str("a\"b\\c\nd\u{1}").pretty();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).pretty(), "null");
        assert_eq!(Json::Num(f64::INFINITY).pretty(), "null");
    }

    #[test]
    fn integral_floats_are_valid_json() {
        assert_eq!(Json::Num(300.0).pretty(), "300");
        assert_eq!(Json::UInt(u64::MAX).pretty(), u64::MAX.to_string());
    }
}
