//! A JSON writer just large enough for the benchmark's output (the sandbox
//! has no serde).

use std::fmt::Write as _;

/// A JSON value; objects keep insertion order so output is reproducible.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
    /// Already-serialized JSON, spliced in verbatim (a child process's line).
    Raw(String),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Serialize on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            // `{}` prints the shortest digits that round-trip, i.e. the value
            // as measured. JSON has no NaN/inf.
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
            Json::Raw(s) => out.push_str(s),
        }
    }
}

fn write_str(s: &str, out: &mut String) {
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
    fn escapes_quotes_backslashes_and_control_characters() {
        let j = Json::str("a\"b\\c\nd\te\u{1}f µ");
        assert_eq!(j.render(), r#""a\"b\\c\nd\te\u0001f µ""#);
    }

    #[test]
    fn renders_nested_values_in_insertion_order() {
        let j = Json::obj([
            ("z", Json::Int(3)),
            ("a", Json::Arr(vec![Json::Bool(true), Json::Null, Json::Num(1.5)])),
            ("k\"", Json::obj([("raw", Json::Raw("{\"x\": 1}".into()))])),
        ]);
        assert_eq!(j.render(), r#"{"z": 3, "a": [true, null, 1.5], "k\"": {"raw": {"x": 1}}}"#);
    }

    #[test]
    fn numbers_keep_their_digits_and_never_emit_nan() {
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::Num(25.0).render(), "25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }
}
