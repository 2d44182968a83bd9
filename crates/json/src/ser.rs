//! Serialization of [`Json`] trees to text.

use std::fmt::Write as _;

use crate::Json;

/// Appends the compact form of `value` to `out`.
pub(crate) fn write_compact(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Number(n) => write_number(*n, out),
        Json::String(s) => write_string(s, out),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Json::Object(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_compact(item, out);
            }
            out.push('}');
        }
    }
}

/// Appends the pretty (two-space indented) form of `value` to `out`.
pub(crate) fn write_pretty(value: &Json, indent: usize, out: &mut String) {
    match value {
        Json::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push(']');
        }
        Json::Object(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                write_string(key, out);
                out.push_str(": ");
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push('}');
        }
        leaf => write_compact(leaf, out),
    }
}

fn push_indent(indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Writes a number. Rust's shortest-round-trip `Display` already prints
/// integer-valued doubles without a fractional part (`2`, not `2.0`) and
/// never produces locale-dependent output. Non-finite values (which
/// [`crate::ToJson`] for `f64` should have mapped to null already)
/// degrade to `null` rather than emitting invalid JSON.
pub(crate) fn write_number(n: f64, out: &mut String) {
    if n.is_finite() {
        // JSON has no negative zero distinct from zero worth preserving,
        // and `-0` would parse back as `0` anyway; normalize for
        // byte-stable output across arithmetic that flips the sign bit.
        let n = if n == 0.0 { 0.0 } else { n };
        write!(out, "{n}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

/// Writes a quoted, escaped string. Every byte that needs escaping is
/// ASCII, so the runs between them are copied whole and every cut lands
/// on a char boundary.
pub(crate) fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            _ => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compact(v: &Json) -> String {
        v.to_text()
    }

    #[test]
    fn scalars() {
        assert_eq!(compact(&Json::Null), "null");
        assert_eq!(compact(&Json::Bool(true)), "true");
        assert_eq!(compact(&Json::Number(-1.5)), "-1.5");
        assert_eq!(compact(&Json::Number(-0.0)), "0");
        assert_eq!(compact(&Json::String("hi".into())), "\"hi\"");
    }

    #[test]
    fn control_characters_escape_as_unicode() {
        assert_eq!(compact(&Json::String("\u{1}".into())), "\"\\u0001\"");
    }

    #[test]
    fn every_ascii_byte_escapes_exactly_as_pinned() {
        let all: String = (0u8..0x80).map(char::from).collect();
        let expected = concat!(
            r#""\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\b\t\n\u000b\f\r\u000e\u000f"#,
            r#"\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017"#,
            r#"\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f"#,
            r##" !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`"##,
            "abcdefghijklmnopqrstuvwxyz{|}~\u{7f}\"",
        );
        assert_eq!(compact(&Json::String(all)), expected);
    }

    #[test]
    fn multi_byte_characters_pass_through_between_escapes() {
        assert_eq!(compact(&Json::String("é🦀".into())), "\"é🦀\"");
        assert_eq!(
            compact(&Json::String("a\"é\n🦀\u{1}b".into())),
            r#""a\"é\n🦀\u0001b""#
        );
    }

    #[test]
    fn pretty_matches_expected_layout() {
        let v = Json::object([
            ("a", Json::Number(1.0)),
            ("b", Json::Array(vec![Json::Number(1.0), Json::Null])),
            ("c", Json::Array(vec![])),
            ("d", Json::Object(vec![])),
        ]);
        assert_eq!(
            v.to_text_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    1,\n    null\n  ],\n  \"c\": [],\n  \"d\": {}\n}\n"
        );
    }
}
