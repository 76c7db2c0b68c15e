//! One JSON value and its one writer.
//!
//! Every JSON document the workspace emits (run reports, Chrome traces,
//! the `BENCH_*.json` files) is built as a [`Json`] and written by its
//! `Display` impl, so the encoding (string escaping, separators, key
//! quoting) is decided here and nowhere else. The output is compact:
//! no whitespace between tokens.

use std::fmt::{self, Write as _};

/// A JSON value.
///
/// Numbers keep their literal text: a `u64` converts exactly, and a
/// float is formatted by its caller with the decimal places its file
/// has always carried (`Json::Num(format!("{secs:.4}"))`). Objects keep
/// their insertion order, which is the order the keys are written in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `true` or `false`.
    Bool(bool),
    /// A number, written verbatim.
    Num(String),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(text) => f.write_str(text),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    write!(f, "{}{item}", if i > 0 { "," } else { "" })?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    f.write_str(if i > 0 { "," } else { "" })?;
                    write_str(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Writes `s` as a JSON string literal: `"` and `\` are
/// backslash-escaped, `\n`, `\r` and `\t` take their short forms and
/// every other control character is `\u00XX`.
fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n.to_string())
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n.to_string())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// An array, in iteration order.
impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }
}

/// Builds a [`Json`] object from JSON-like syntax, keys in the order
/// written. A value is a nested `{ ... }` object or any expression with
/// a `From` conversion into [`Json`]:
///
/// ```
/// use simkit::{json, Json};
/// let cells: Json = [1u64, 2].into_iter().map(Json::from).collect();
/// let doc = json!({ "bench": "demo", "quick": true, "grid": { "cells": cells } });
/// assert_eq!(doc.to_string(), r#"{"bench":"demo","quick":true,"grid":{"cells":[1,2]}}"#);
/// ```
#[macro_export]
macro_rules! json {
    (@fields [$($done:tt)*]) => { ::std::vec![$($done)*] };
    (@fields [$($done:tt)*] $key:literal : { $($obj:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json!(@fields
            [$($done)* ($key.to_string(), $crate::json!({ $($obj)* })),]
            $($($rest)*)?)
    };
    (@fields [$($done:tt)*] $key:literal : $value:expr $(, $($rest:tt)*)?) => {
        $crate::json!(@fields
            [$($done)* ($key.to_string(), $crate::Json::from($value)),]
            $($($rest)*)?)
    };
    ({ $($fields:tt)* }) => { $crate::Json::Obj($crate::json!(@fields [] $($fields)*)) };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(text: &str) -> String {
        Json::from(text).to_string()
    }

    #[test]
    fn escaping_handles_special_characters() {
        assert_eq!(s("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(s("\u{1}"), "\"\\u0001\"");
        assert_eq!(s("\r\t\u{1f}é"), "\"\\r\\t\\u001fé\"");
        assert_eq!(s(""), "\"\"");
    }

    #[test]
    fn values_write_compactly_in_insertion_order() {
        let pair: Json = [Json::from(true), Json::from("x")].into_iter().collect();
        let doc = json!({
            "z": u64::MAX,
            "a": Json::Num(format!("{:.2}", 0.5)),
            "k\"ey": pair,
            "empty": {},
            "none": Json::Arr(Vec::new()),
        });
        assert_eq!(
            doc.to_string(),
            r#"{"z":18446744073709551615,"a":0.50,"k\"ey":[true,"x"],"empty":{},"none":[]}"#
        );
    }
}
