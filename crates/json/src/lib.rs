//! Dependency-free JSON for the Sharing Architecture workspace.
//!
//! The workspace must build offline with no registry access, so instead of
//! `serde`/`serde_json` every crate that speaks JSON uses this small
//! hand-rolled implementation:
//!
//! * [`Json`] — an owned JSON value (objects preserve insertion order, so
//!   output is deterministic);
//! * [`Json::parse`] — a recursive-descent parser with a nesting-depth
//!   limit (safe to point at untrusted network input);
//! * [`Json::to_string`] / [`Json::pretty`] — compact and indented
//!   writers whose float formatting round-trips `f64`;
//! * [`ToJson`] / [`FromJson`] — conversion traits, implemented for the
//!   primitives plus `Option`, `Vec`, and pair tuples;
//! * [`json_struct!`] — a declarative macro generating both trait impls
//!   for plain structs, one field list instead of a derive.
//!
//! # Example
//!
//! ```
//! use sharing_json::{Json, ToJson, FromJson};
//!
//! let v = Json::parse(r#"{"name":"gcc","len":60000,"ipc":1.25}"#).unwrap();
//! assert_eq!(v.get("name").unwrap().as_str(), Some("gcc"));
//! let len = u64::from_json(v.get("len").unwrap()).unwrap();
//! assert_eq!(len, 60_000);
//! assert_eq!(v.to_string(), r#"{"name":"gcc","len":60000,"ipc":1.25}"#);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashSet;
use std::fmt;
use std::hash::BuildHasher;

/// Maximum nesting depth the parser accepts (arrays + objects combined).
pub const MAX_DEPTH: usize = 128;

/// An owned JSON value.
///
/// Integers and floats are kept distinct so 64-bit counters and seeds
/// survive a round trip without precision loss.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no fraction or exponent). `i128` covers the
    /// full `u64` and `i64` ranges.
    Int(i128),
    /// A fractional or exponent-form number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved and duplicate keys are
    /// rejected by the parser.
    Obj(Vec<(String, Json)>),
}

/// Error produced by parsing or by schema conversion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    /// Convenience constructor.
    #[must_use]
    pub fn msg(m: impl Into<String>) -> Self {
        JsonError(m.into())
    }
}

impl Json {
    /// Looks up a key in an object. Returns `None` for non-objects and
    /// missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64` (accepts both number forms).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as an `i128`, if it is an integer literal.
    #[must_use]
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as object pairs, if it is one.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Builds an object from key/value pairs (a tidy literal syntax for
    /// hand-assembled messages).
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Parses a JSON document. The whole input must be consumed (trailing
    /// whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    /// Writes the value as indented JSON (two-space indent).
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => write_f64(out, *f),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, b'[', items.len(), |out, i, ind| {
                items[i].write(out, ind);
            }),
            Json::Obj(pairs) => write_seq(out, indent, b'{', pairs.len(), |out, i, ind| {
                write_escaped(out, &pairs[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                pairs[i].1.write(out, ind);
            }),
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: u8,
    n: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    let close = if open == b'[' { ']' } else { '}' };
    out.push(open as char);
    if n == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|d| d + 1);
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(d));
        }
        item(out, i, inner);
    }
    if let Some(d) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push(close);
}

fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        // JSON has no NaN/Inf; follow serde_json and emit null.
        out.push_str("null");
        return;
    }
    let s = format!("{f}");
    out.push_str(&s);
    // Keep the float/integer distinction on the wire so a round trip
    // reproduces the same `Json` variant.
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    /// Compact form: no whitespace, deterministic field order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s, None);
        f.write_str(&s)
    }
}

/// One pass over the input: every byte is looked at a bounded number of
/// times, whatever the shape of the document.
struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes, for the byte-wise scanning.
    bytes: &'a [u8],
    pos: usize,
}

/// Objects up to this many keys are checked for a duplicate by a scan.
const SCAN_KEYS: usize = 16;

/// Whether `key` is already among `pairs`, in O(1) expected time. Small
/// objects (every one the protocol sends) are scanned. From [`SCAN_KEYS`]
/// keys on, `seen` holds the hash of every key so far, and only a repeated
/// hash (a duplicate, or a 64-bit collision) pays for the scan. The set's
/// hasher is randomly keyed, so input cannot be built to collide.
fn is_duplicate(pairs: &[(String, Json)], seen: &mut HashSet<u64>, key: &str) -> bool {
    if pairs.len() < SCAN_KEYS {
        return pairs.iter().any(|(k, _)| k == key);
    }
    let hasher = seen.hasher().clone();
    if seen.is_empty() {
        seen.extend(pairs.iter().map(|(k, _)| hasher.hash_one(k)));
    }
    !seen.insert(hasher.hash_one(key)) && pairs.iter().any(|(k, _)| k == key)
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs: Vec<(String, Json)> = Vec::new();
                let mut seen = HashSet::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    if is_duplicate(&pairs, &mut seen, &key) {
                        return Err(self.err("duplicate object key"));
                    }
                    self.skip_ws();
                    self.eat(b':', "expected `:`")?;
                    self.skip_ws();
                    let v = self.value(depth + 1)?;
                    pairs.push((key, v));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digit_start = self.pos;
        self.digits()?;
        if self.pos - digit_start > 1 && self.bytes[digit_start] == b'0' {
            return Err(self.err("leading zero"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ascii");
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("bad number"))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| self.err("integer out of range"))
        }
    }

    fn digits(&mut self) -> Result<usize, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected digits"));
        }
        Ok(self.pos - start)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected `\"`")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid codepoint"))?);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the whole run up to the next quote, backslash
                    // or control byte at once. Both ends sit on an ASCII
                    // byte (or the end of input) of a `&str`, so the run
                    // is a whole UTF-8 slice of `text`.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += run;
                    let s = self
                        .text
                        .get(start..self.pos)
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Converts `self` to JSON.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Converts from JSON.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first schema mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

macro_rules! int_impls {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Int(i128::from(*self))
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let i = v
                    .as_int()
                    .ok_or_else(|| JsonError::msg(format!(
                        "expected integer, got {v}"
                    )))?;
                <$ty>::try_from(i).map_err(|_| {
                    JsonError::msg(format!(
                        "{i} out of range for {}", stringify!($ty)
                    ))
                })
            }
        }
    )*};
}

int_impls!(u8, u16, u32, u64, i8, i16, i32, i64);

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Int(*self as i128)
    }
}

impl FromJson for usize {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let i = v
            .as_int()
            .ok_or_else(|| JsonError::msg(format!("expected integer, got {v}")))?;
        usize::try_from(i).map_err(|_| JsonError::msg(format!("{i} out of range for usize")))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64()
            .ok_or_else(|| JsonError::msg(format!("expected number, got {v}")))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool()
            .ok_or_else(|| JsonError::msg(format!("expected bool, got {v}")))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::msg(format!("expected string, got {v}")))
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError::msg(format!("expected array, got {v}")))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_arr() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::msg(format!("expected a pair, got {v}"))),
        }
    }
}

/// Generates [`ToJson`] and [`FromJson`] for a plain struct from its field
/// list. Fields named after `defaults` fall back to `Default::default()`
/// when absent in the input (the replacement for `#[serde(default)]`);
/// all other fields are required.
///
/// ```
/// use sharing_json::{json_struct, FromJson, Json, ToJson};
///
/// #[derive(Debug, PartialEq, Default)]
/// struct Point { x: u32, y: u32, label: String }
/// json_struct!(Point { x, y } defaults { label });
///
/// let p = Point { x: 1, y: 2, label: String::new() };
/// let back = Point::from_json(&Json::parse(r#"{"x":1,"y":2}"#).unwrap()).unwrap();
/// assert_eq!(p, back);
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        $crate::json_struct!($ty { $($field),* } defaults {});
    };
    ($ty:ident { $($field:ident),* $(,)? } defaults { $($dfield:ident),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Obj(vec![
                    $( (stringify!($field).to_string(), $crate::ToJson::to_json(&self.$field)), )*
                    $( (stringify!($dfield).to_string(), $crate::ToJson::to_json(&self.$dfield)), )*
                ])
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> Result<Self, $crate::JsonError> {
                if v.as_obj().is_none() {
                    return Err($crate::JsonError::msg(format!(
                        "expected {} object, got {v}", stringify!($ty)
                    )));
                }
                Ok($ty {
                    $( $field: match v.get(stringify!($field)) {
                        Some(f) => $crate::FromJson::from_json(f).map_err(|e| {
                            $crate::JsonError::msg(format!(
                                "{}.{}: {}", stringify!($ty), stringify!($field), e.0
                            ))
                        })?,
                        None => return Err($crate::JsonError::msg(format!(
                            "{} missing field `{}`", stringify!($ty), stringify!($field)
                        ))),
                    }, )*
                    $( $dfield: match v.get(stringify!($dfield)) {
                        Some(f) => $crate::FromJson::from_json(f).map_err(|e| {
                            $crate::JsonError::msg(format!(
                                "{}.{}: {}", stringify!($ty), stringify!($dfield), e.0
                            ))
                        })?,
                        None => Default::default(),
                    }, )*
                })
            }
        }
    };
}

/// Serializes any [`ToJson`] value to its compact string form.
pub fn to_string<T: ToJson>(v: &T) -> String {
    v.to_json().to_string()
}

/// Serializes any [`ToJson`] value with two-space indentation.
pub fn to_string_pretty<T: ToJson>(v: &T) -> String {
    v.to_json().pretty()
}

/// Parses a string into any [`FromJson`] type.
///
/// # Errors
///
/// Returns a [`JsonError`] from either the parse or the conversion.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(
            Json::parse("\"hi\\nthere\"").unwrap(),
            Json::Str("hi\nthere".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a":[1,2,{"b":null}],"c":{"d":true}}"#).unwrap();
        assert_eq!(v.get("c").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":1,}",
            "nul",
            "01",
            "1.",
            "\"unterminated",
            "{\"a\":1}x",
            "+1",
            "--1",
            "{\"a\":1,\"a\":2}",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_excessive_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn nesting_exactly_at_the_limit_is_accepted() {
        // The top-level value sits at depth 0, so MAX_DEPTH + 1 brackets
        // put the innermost value exactly at the limit.
        let at_limit = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let v = Json::parse(&at_limit).unwrap();
        assert_eq!(v.to_string(), at_limit, "deep round trip");
        let too_deep = format!("[{at_limit}]");
        assert!(Json::parse(&too_deep).is_err(), "one more must fail");
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        // JSON has no NaN/Inf; the writer follows serde_json and emits
        // null, so a round trip degrades them to Json::Null — not a parse
        // error and not a bare token the parser would choke on.
        for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let s = Json::Float(f).to_string();
            assert_eq!(s, "null", "{f}");
            assert_eq!(Json::parse(&s).unwrap(), Json::Null);
        }
        let v = Json::obj(vec![("ipc", Json::Float(f64::NAN))]);
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back.get("ipc"), Some(&Json::Null));
        assert_eq!(Option::<f64>::from_json(back.get("ipc").unwrap()), Ok(None));
        // The raw tokens themselves are invalid JSON.
        for bad in ["NaN", "Infinity", "-Infinity", "nan", "inf"] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn large_integers_round_trip_or_fail_loudly() {
        // The full i128 range survives a round trip as Json::Int...
        for i in [i128::MAX, i128::MIN, i128::from(u64::MAX) + 1] {
            let s = Json::Int(i).to_string();
            assert_eq!(Json::parse(&s).unwrap(), Json::Int(i), "{i}");
        }
        // ...one past it is a parse error, not a silent precision loss.
        let over = format!("{}0", i128::MAX);
        let e = Json::parse(&over).unwrap_err();
        assert!(e.0.contains("out of range"), "{e}");
        let under = format!("{}0", i128::MIN);
        assert!(Json::parse(&under).is_err());
        // Narrowing conversions fail loudly too: u64::MAX + 1 parses as an
        // integer but does not convert to u64.
        let v = Json::parse("18446744073709551616").unwrap();
        assert!(u64::from_json(&v).unwrap_err().0.contains("out of range"));
    }

    #[test]
    fn control_characters_escape_and_round_trip() {
        // Every control character must be written in escaped form and
        // parse back to itself.
        let all_controls: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let s = Json::Str(all_controls.clone()).to_string();
        assert!(
            !s.chars().any(|c| (c as u32) < 0x20),
            "no raw control bytes on the wire: {s:?}"
        );
        assert_eq!(Json::parse(&s).unwrap(), Json::Str(all_controls));
        // Named escapes are preferred where JSON has them.
        assert_eq!(Json::Str("\u{08}\u{0C}".into()).to_string(), r#""\b\f""#);
        assert_eq!(Json::Str("\u{01}".into()).to_string(), r#""\u0001""#);
        // Raw (unescaped) control characters in input are rejected.
        assert!(Json::parse("\"a\u{01}b\"").is_err());
        assert!(Json::parse("\"a\nb\"").is_err(), "raw newline in string");
    }

    #[test]
    fn unicode_escape_edge_cases() {
        // Surrogate pairs decode; escaped and literal forms are equal.
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".to_string()));
        // Escaped solidus is legal and decodes to a plain slash.
        assert_eq!(Json::parse(r#""\/""#).unwrap(), Json::Str("/".to_string()));
        // `\u0000` is a valid escape for NUL.
        assert_eq!(
            Json::parse(r#""\u0000""#).unwrap(),
            Json::Str("\0".to_string())
        );
        for bad in [
            r#""\ud83dx""#,      // high surrogate not followed by \u
            r#""\ud83d\u0041""#, // high surrogate followed by a non-surrogate
            r#""\udc00""#,       // lone low surrogate
            r#""\uZZZZ""#,       // non-hex digits
            r#""\u12""#,         // truncated escape
            r#""\q""#,           // unknown escape
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(Json::parse(r#""é""#).unwrap(), Json::Str("é".to_string()));
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".to_string()));
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn compact_output_round_trips() {
        let text = r#"{"name":"gcc \"x\"","vals":[1,2.5,null,true],"nest":{"k":-3}}"#;
        let v = Json::parse(text).unwrap();
        let out = v.to_string();
        assert_eq!(Json::parse(&out).unwrap(), v);
        assert_eq!(out, text);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = Json::parse(r#"{"a":[1,2],"b":{"c":"d"},"e":[]}"#).unwrap();
        let pretty = v.pretty();
        assert!(pretty.contains('\n'));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.1, 1.0 / 3.0, 1e-300, 12345.6789, f64::MAX, 5e-324] {
            let s = Json::Float(f).to_string();
            let back = Json::parse(&s).unwrap();
            assert_eq!(back.as_f64(), Some(f), "{f} via {s}");
        }
        // Whole floats keep their float-ness on the wire.
        assert_eq!(Json::Float(2.0).to_string(), "2.0");
        assert_eq!(Json::parse("2.0").unwrap(), Json::Float(2.0));
    }

    #[test]
    fn u64_counters_survive() {
        let big = u64::MAX;
        let s = big.to_json().to_string();
        assert_eq!(u64::from_json(&Json::parse(&s).unwrap()).unwrap(), big);
    }

    #[test]
    fn conversion_errors_name_the_problem() {
        let e = u32::from_json(&Json::Str("x".into())).unwrap_err();
        assert!(e.0.contains("expected integer"), "{e}");
        let e = u8::from_json(&Json::Int(300)).unwrap_err();
        assert!(e.0.contains("out of range"), "{e}");
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        n: u32,
        name: String,
        xs: Vec<f64>,
        opt: Option<u32>,
    }
    json_struct!(Demo { n, name, xs } defaults { opt });

    #[test]
    fn json_struct_round_trips() {
        let d = Demo {
            n: 7,
            name: "slice".into(),
            xs: vec![1.5, 2.0],
            opt: Some(3),
        };
        let s = to_string(&d);
        assert_eq!(from_str::<Demo>(&s).unwrap(), d);
    }

    #[test]
    fn json_struct_defaults_and_errors() {
        let d: Demo = from_str(r#"{"n":1,"name":"a","xs":[]}"#).unwrap();
        assert_eq!(d.opt, None);
        let e = from_str::<Demo>(r#"{"name":"a","xs":[]}"#).unwrap_err();
        assert!(e.0.contains("missing field `n`"), "{e}");
        let e = from_str::<Demo>(r#"{"n":"x","name":"a","xs":[]}"#).unwrap_err();
        assert!(e.0.contains("Demo.n"), "{e}");
    }
}
