//! The workspace's one JSON writer.
//!
//! Every report the reproduction publishes renders through this module:
//! serving summaries, span traces, the planner frontier, the bench
//! summary and the verification certificate. It owns layout and string
//! escaping only; callers format numbers themselves (`{:.1}`, `{:.4}`,
//! …), so each number keeps the exact text its call site chose. Four
//! shapes cover every report: a block object ([`Members::block`]), an
//! inline object ([`Members::inline`]), a rows array ([`rows`]) and an
//! inline list ([`list`]).

use std::fmt::{Display, Write};

/// `s` as a JSON string literal: `"` and `\` are backslash-escaped,
/// newline and tab become `\n` and `\t`, and every other control
/// character becomes a `\u00XX` escape. Everything else, non-ASCII
/// included, is copied as is.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

/// Appends [`quote`]`(s)` to `out`.
fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
    } else {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if u32::from(c) < 0x20 => push(out, format_args!("\\u{:04x}", u32::from(c))),
                c => out.push(c),
            }
        }
    }
    out.push('"');
}

/// A 64-bit digest as a JSON string of 16 lower-case hex digits.
pub fn hex(digest: u64) -> String {
    format!("\"{digest:016x}\"")
}

/// Builds a [`Members`](crate::json::Members) list from `"key" => value`
/// pairs, each value JSON text rendered through `Display`:
/// `members!["n" => 1, "name" => json::quote("x")]`.
#[macro_export]
macro_rules! members {
    ($($key:literal => $value:expr),* $(,)?) => {{
        let mut members = $crate::json::Members::new();
        $(members.push($key, $value);)*
        members
    }};
}

/// An ordered list of object members.
///
/// Each value is JSON text the caller has already rendered: a number in
/// the caller's own format, `true`, `null`, a [`quote`]d string, a
/// [`hex`] digest, or another shape of this module.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Members(Vec<(&'static str, String)>);

impl Members {
    /// An empty member list.
    pub fn new() -> Self {
        Members::default()
    }

    /// Appends the member `"key": value`.
    pub fn push(&mut self, key: &'static str, value: impl Display) -> &mut Self {
        self.0.push((key, value.to_string()));
        self
    }

    /// Appends every member of `other`, in order.
    pub fn append(&mut self, mut other: Members) -> &mut Self {
        self.0.append(&mut other.0);
        self
    }

    /// The members as a multi-line object: each member on its own line,
    /// two spaces deeper than `indent`, and the closing brace at
    /// `indent`. The opening brace is not indented, so the object can
    /// follow a key. A value that begins with a newline (a block laid
    /// out on the lines below its key) follows the colon directly.
    pub fn block(&self, indent: &str) -> String {
        let close = format!("\n{indent}}}");
        join("{", &self.0, ",", &close, |out, (key, value)| {
            push(out, format_args!("\n{indent}  "));
            push_quoted(out, key);
            out.push_str(if value.starts_with('\n') { ":" } else { ": " });
            out.push_str(value);
        })
    }

    /// The members as a one-line object: `{"a": 1, "b": 2}`.
    pub fn inline(&self) -> String {
        join("{", &self.0, ", ", "}", |out, (key, value)| {
            push_quoted(out, key);
            out.push_str(": ");
            out.push_str(value);
        })
    }
}

impl<V: Display> FromIterator<(&'static str, V)> for Members {
    fn from_iter<I: IntoIterator<Item = (&'static str, V)>>(members: I) -> Self {
        let member = |(key, value): (&'static str, V)| (key, value.to_string());
        Members(members.into_iter().map(member).collect())
    }
}

/// `items` (each JSON text) as a multi-line array: each item on its own
/// line, two spaces deeper than `indent`, and the closing bracket on a
/// line of its own at `indent`, even when the array is empty.
pub fn rows(items: impl IntoIterator<Item = impl Display>, indent: &str) -> String {
    let close = format!("\n{indent}]");
    join("[", items, ",", &close, |out, item| {
        push(out, format_args!("\n{indent}  {item}"));
    })
}

/// `items` (each JSON text) as a one-line array: `[a, b]`.
pub fn list(items: impl IntoIterator<Item = impl Display>) -> String {
    join("[", items, ", ", "]", |out, item| {
        push(out, format_args!("{item}"))
    })
}

/// `open`, then each of `items` written by `write` and separated by
/// `separator`, then `close`.
fn join<T>(
    open: &str,
    items: impl IntoIterator<Item = T>,
    separator: &str,
    close: &str,
    mut write: impl FnMut(&mut String, T),
) -> String {
    let mut out = String::from(open);
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(separator);
        }
        write(&mut out, item);
    }
    out.push_str(close);
    out
}

/// Appends formatted text to `out`.
fn push(out: &mut String, text: std::fmt::Arguments<'_>) {
    out.write_fmt(text).expect("a String write cannot fail");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(quote(""), "\"\"");
        assert_eq!(quote("plain/label m=4"), "\"plain/label m=4\"");
        assert_eq!(
            quote("a\"b\\c\nd\te\u{1}f\r\u{1f}"),
            "\"a\\\"b\\\\c\\nd\\te\\u0001f\\u000d\\u001f\""
        );
        // Non-ASCII and DEL are not control characters below 0x20.
        assert_eq!(quote("é\u{7f}→"), "\"é\u{7f}→\"");
    }

    #[test]
    fn hex_is_sixteen_quoted_lower_case_digits() {
        assert_eq!(hex(0), "\"0000000000000000\"");
        assert_eq!(hex(0xdead_beef), "\"00000000deadbeef\"");
        assert_eq!(hex(u64::MAX), "\"ffffffffffffffff\"");
    }

    fn sample() -> Members {
        members!["name" => quote("x\"y"), "ns" => format!("{:.1}", 2.0), "ok" => true]
    }

    #[test]
    fn block_puts_one_member_per_line() {
        assert_eq!(
            sample().block(""),
            "{\n  \"name\": \"x\\\"y\",\n  \"ns\": 2.0,\n  \"ok\": true\n}"
        );
        assert_eq!(
            sample().block("    "),
            sample().block("").replace('\n', "\n    ")
        );
        assert_eq!(Members::new().block("  "), "{\n  }");
    }

    #[test]
    fn block_attaches_a_value_laid_out_below_its_key() {
        let mut members = members!["spans" => "\n  [\n  ]"];
        members.append(members!["n" => 1]);
        assert_eq!(
            members.block(""),
            "{\n  \"spans\":\n  [\n  ],\n  \"n\": 1\n}"
        );
    }

    #[test]
    fn inline_is_one_line() {
        assert_eq!(
            sample().inline(),
            "{\"name\": \"x\\\"y\", \"ns\": 2.0, \"ok\": true}"
        );
        assert_eq!(Members::new().inline(), "{}");
        let collected: Members = [("a", 1), ("b", 2)].into_iter().collect();
        assert_eq!(collected.inline(), "{\"a\": 1, \"b\": 2}");
    }

    #[test]
    fn rows_put_one_item_per_line() {
        let items = [sample().inline(), Members::new().inline()];
        assert_eq!(
            rows(&items, "  "),
            format!("[\n    {},\n    {{}}\n  ]", sample().inline())
        );
        assert_eq!(rows(["1"], ""), "[\n  1\n]");
        assert_eq!(rows(Vec::<String>::new(), "  "), "[\n  ]");
    }

    #[test]
    fn list_is_one_line() {
        assert_eq!(list([quote("a"), quote("b")]), "[\"a\", \"b\"]");
        assert_eq!(list([1]), "[1]");
        assert_eq!(list(Vec::<u8>::new()), "[]");
    }
}
