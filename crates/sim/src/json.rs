//! The one JSON codec of the workspace: a value type, a parser, an emitter,
//! and the [`ToJson`]/[`FromJson`] trait pair every report type implements.
//!
//! The build is offline and has no serde, so everything is hand-rolled, but
//! only once: sweep reports, the persistent cell cache, `--merge` and
//! `prodigy-diff` all read and write through this module.
//!
//! * Numbers keep their exact source text ([`Json::Num`]), so 64-bit
//!   counters and checksums survive a parse → emit round trip where `f64`
//!   would round. `u64` fields decode from that text, never from the `f64`.
//! * Objects keep their keys in written order, so re-emitting a parsed
//!   report reproduces its bytes.
//! * [`json_object!`](crate::json_object) implements both traits for a
//!   plain named-field struct; irregular wire shapes (sparse histograms,
//!   labelled attribution rows) hand-write short impls.
//! * Decoding is strict: an object must carry exactly the expected keys in
//!   the expected order, stored floats must be in their canonical shortest
//!   form, and non-finite floats are rejected. A value that decodes
//!   therefore re-encodes to the same JSON.
//! * The parser runs in linear time and refuses nesting deeper than
//!   [`MAX_DEPTH`], so garbage input yields `Err`, never a stack overflow.

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse_json`] accepts. Every document this
/// workspace writes stays far below it.
pub const MAX_DEPTH: usize = 128;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number: its value plus the exact text it is written as.
    Num(f64, String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in written order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (the last occurrence wins, as in most parsers).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v, _) => Some(*v),
            _ => None,
        }
    }

    /// Exact unsigned value of a number's text, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(_, raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object entries in written order, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// An object from `(key, value)` pairs, in the given order.
    pub fn obj<const N: usize>(entries: [(&str, Json); N]) -> Json {
        Json::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A number written with exactly `decimals` fractional digits — the
    /// fixed-point form reports use for derived rates. Non-finite values
    /// have no JSON spelling and become `null`.
    pub fn fixed(v: f64, decimals: usize) -> Json {
        if v.is_finite() {
            Json::Num(v, format!("{v:.decimals$}"))
        } else {
            Json::Null
        }
    }
}

/// Compact emission: no whitespace, numbers as their stored text, keys in
/// order. `to_string()` of a parsed document reproduces it byte for byte
/// whenever the source was itself compact.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(_, raw) => f.write_str(raw),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    item.fmt(f)?;
                }
                f.write_char(']')
            }
            Json::Obj(entries) => {
                f.write_char('{')?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_escaped(f, k)?;
                    f.write_char(':')?;
                    v.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Writes `s` as a quoted JSON string literal.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
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

// ---------------------------------------------------------------- parser

/// Parses one JSON document (RFC 8259 grammar). Returns a message with a
/// byte offset on any error, including nesting deeper than [`MAX_DEPTH`].
pub fn parse_json(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        src,
        b: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    b: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.pos += hit as usize;
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn nested(&mut self, body: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut m = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            m.push((k, self.value()?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(m));
            }
            if !self.eat(b',') {
                return Err(format!("expected ',' or '}}' at byte {}", self.pos));
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(v));
        }
        loop {
            v.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(v));
            }
            if !self.eat(b',') {
                return Err(format!("expected ',' or ']' at byte {}", self.pos));
            }
        }
    }

    /// A string literal. Plain runs are scanned bytewise up to the next
    /// quote, escape or control byte and copied as one slice: all three
    /// stop bytes are ASCII, so every run ends on a char boundary of the
    /// (already valid UTF-8) source.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            s.push_str(&self.src[start..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    s.push(self.escape()?);
                }
                Some(_) => return Err(format!("unescaped control character at byte {}", self.pos)),
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let c = self.peek().ok_or("unterminated escape")?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let hi = self.hex4()?;
                let code = match hi {
                    0xD800..=0xDBFF => {
                        if !self.b[self.pos..].starts_with(b"\\u") {
                            return Err(format!("lone surrogate escape at byte {at}"));
                        }
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..=0xDFFF).contains(&lo) {
                            return Err(format!("lone surrogate escape at byte {at}"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    }
                    0xDC00..=0xDFFF => {
                        return Err(format!("lone surrogate escape at byte {at}"));
                    }
                    _ => hi,
                };
                char::from_u32(code).ok_or_else(|| format!("bad \\u escape at byte {at}"))?
            }
            _ => return Err(format!("bad escape at byte {at}")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .b
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let mut v = 0;
        for &d in digits {
            v = v * 16
                + (d as char)
                    .to_digit(16)
                    .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        }
        self.pos += 4;
        Ok(v)
    }

    /// Skips one or more ASCII digits; false when there are none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?` — no leading zeros,
    /// no bare `.5`, no trailing `1.`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        let ok = (self.eat(b'0') || (matches!(self.peek(), Some(b'1'..=b'9')) && self.digits()))
            && (!self.eat(b'.') || self.digits())
            && (!matches!(self.peek(), Some(b'e' | b'E')) || {
                self.pos += 1;
                let _ = self.eat(b'+') || self.eat(b'-');
                self.digits()
            });
        let raw = &self.src[start..self.pos];
        let v = raw
            .parse::<f64>()
            .ok()
            .filter(|_| ok)
            .ok_or_else(|| format!("bad number {raw:?} at byte {start}"))?;
        Ok(Json::Num(v, raw.to_string()))
    }
}

// ----------------------------------------------------------------- codec

/// Encodes a value as JSON.
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Json;
}

/// Decodes a value from JSON, strictly: anything [`ToJson`] would not have
/// written is an `Err`.
pub trait FromJson: Sized {
    /// Reconstructs a value from its JSON form.
    fn from_json(v: &Json) -> Result<Self, String>;
}

macro_rules! json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64, self.to_string())
            }
        }
        /// Reads the number's exact text; the JSON grammar already rules
        /// out leading zeros and signs, so this accepts canonical text only.
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, String> {
                match v {
                    Json::Num(_, raw) => raw
                        .parse()
                        .map_err(|e| format!("bad {} {raw}: {e}", stringify!($t))),
                    other => Err(format!("expected a number, got {other}")),
                }
            }
        }
    )*};
}
json_uint!(u16, u32, u64, u128, usize);

/// Stored floats use Rust's shortest round-trip decimal (`{:?}`), so the
/// text reads back to the identical bits. Non-finite values have no JSON
/// spelling and encode as `null`, which [`FromJson`] then rejects.
impl ToJson for f64 {
    fn to_json(&self) -> Json {
        if self.is_finite() {
            Json::Num(*self, format!("{self:?}"))
        } else {
            Json::Null
        }
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Num(x, raw) if x.is_finite() && format!("{x:?}") == *raw => Ok(*x),
            other => Err(format!(
                "expected a finite shortest-form float, got {other}"
            )),
        }
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("expected a string, got {v}"))
    }
}

/// `None` is `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
}

/// A pair is a two-element array (`[lo,hi]` intervals).
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v.as_arr() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(format!("expected a two-element array, got {v}")),
        }
    }
}

/// A derived rate or share, written with six decimals (`0.250000`): the
/// fixed-point text reports have always used for values computed from
/// counters rather than stored. `None` is `null` (no data, not zero).
pub trait Ratio: Sized {
    /// The six-decimal JSON form.
    fn ratio_json(&self) -> Json;
    /// Reads a rate back (any finite number).
    fn from_ratio_json(v: &Json) -> Result<Self, String>;
}

impl Ratio for f64 {
    fn ratio_json(&self) -> Json {
        Json::fixed(*self, 6)
    }
    fn from_ratio_json(v: &Json) -> Result<Self, String> {
        v.as_f64()
            .filter(|x| x.is_finite())
            .ok_or_else(|| format!("expected a finite rate, got {v}"))
    }
}

impl Ratio for Option<f64> {
    fn ratio_json(&self) -> Json {
        self.map_or(Json::Null, |x| x.ratio_json())
    }
    fn from_ratio_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => f64::from_ratio_json(v).map(Some),
        }
    }
}

/// Strict in-order reader over an object's entries: the decoding half of
/// [`json_object!`](crate::json_object), also used by hand-written impls.
/// Each `take` must name the next entry; [`Fields::finish`] rejects
/// leftovers, so reordered, renamed, duplicate or unknown keys all fail.
#[derive(Debug)]
pub struct Fields<'a> {
    ty: &'static str,
    entries: &'a [(String, Json)],
    pos: usize,
}

impl<'a> Fields<'a> {
    /// Starts reading `v`, which must be an object; `ty` names the type in
    /// error messages.
    pub fn new(v: &'a Json, ty: &'static str) -> Result<Self, String> {
        let entries = v
            .as_obj()
            .ok_or_else(|| format!("{ty}: expected an object"))?;
        Ok(Fields {
            ty,
            entries,
            pos: 0,
        })
    }

    /// The next entry's value if its key is `key`.
    fn next_if(&mut self, key: &str) -> Option<&'a Json> {
        let (k, v) = self.entries.get(self.pos)?;
        (k == key).then(|| {
            self.pos += 1;
            v
        })
    }

    /// Decodes required field `key` with `dec`.
    pub fn take_with<T>(
        &mut self,
        key: &str,
        dec: impl FnOnce(&'a Json) -> Result<T, String>,
    ) -> Result<T, String> {
        let v = self
            .next_if(key)
            .ok_or_else(|| format!("{}: expected field {key:?}", self.ty))?;
        dec(v).map_err(|e| format!("{}.{key}: {e}", self.ty))
    }

    /// Decodes required field `key`.
    pub fn take<T: FromJson>(&mut self, key: &str) -> Result<T, String> {
        self.take_with(key, T::from_json)
    }

    /// Decodes field `key` that is written only when present.
    pub fn take_opt<T: FromJson>(&mut self, key: &str) -> Result<Option<T>, String> {
        match self.next_if(key) {
            None => Ok(None),
            Some(v) => T::from_json(v)
                .map(Some)
                .map_err(|e| format!("{}.{key}: {e}", self.ty)),
        }
    }

    /// The entries not yet consumed, as an object (for rows that prefix a
    /// struct's own fields with a few of their own).
    pub(crate) fn rest(self) -> Json {
        Json::Obj(self.entries[self.pos..].to_vec())
    }

    /// Fails if any entry was not consumed.
    pub fn finish(self) -> Result<(), String> {
        match self.entries.get(self.pos) {
            None => Ok(()),
            Some((k, _)) => Err(format!("{}: unexpected field {k:?}", self.ty)),
        }
    }
}

/// Implements [`ToJson`] and [`FromJson`] for a named-field struct. Fields
/// are written in the listed order (which may differ from the declaration
/// order) under their Rust names. Each field may carry a codec marker:
///
/// * none — the field's own [`ToJson`]/[`FromJson`];
/// * `ratio` — an `f64`/`Option<f64>` rate written with six decimals
///   ([`Ratio`]);
/// * `omit_none` — an `Option` written only when `Some` (so reports that
///   never had the field keep their exact shape);
/// * `skip` — not serialized; decodes as `Default::default()`.
///
/// ```
/// use prodigy_sim::json::{parse_json, FromJson, ToJson};
///
/// #[derive(Debug, Default, PartialEq)]
/// struct Row {
///     hits: u64,
///     share: f64,
///     note: Option<u64>,
///     scratch: u64,
/// }
/// prodigy_sim::json_object!(Row { hits, share: ratio, note: omit_none, scratch: skip });
///
/// let row = Row { hits: 3, share: 0.25, note: None, scratch: 9 };
/// assert_eq!(row.to_json().to_string(), r#"{"hits":3,"share":0.250000}"#);
/// let back = Row::from_json(&parse_json(r#"{"hits":3,"share":0.25}"#).unwrap()).unwrap();
/// assert_eq!(back, Row { scratch: 0, ..row });
/// assert!(Row::from_json(&parse_json(r#"{"share":0.25,"hits":3}"#).unwrap()).is_err());
/// ```
#[macro_export]
macro_rules! json_object {
    ($ty:ident { $($field:ident $(: $codec:ident)?),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let fields = [$($crate::json_object!(@enc self.$field, $field $(, $codec)?)),+];
                $crate::json::Json::Obj(
                    fields.into_iter().flatten().map(|(k, v)| (k.to_string(), v)).collect(),
                )
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, String> {
                #[allow(unused_mut)]
                let mut r = $crate::json::Fields::new(v, stringify!($ty))?;
                let out = $ty { $($field: $crate::json_object!(@dec r, $field $(, $codec)?),)+ };
                r.finish()?;
                Ok(out)
            }
        }
    };
    (@enc $v:expr, $f:ident) => {
        Some((stringify!($f), $crate::json::ToJson::to_json(&$v)))
    };
    (@enc $v:expr, $f:ident, ratio) => {
        Some((stringify!($f), $crate::json::Ratio::ratio_json(&$v)))
    };
    (@enc $v:expr, $f:ident, omit_none) => {
        $v.as_ref().map(|x| (stringify!($f), $crate::json::ToJson::to_json(x)))
    };
    (@enc $v:expr, $f:ident, skip) => {
        None
    };
    (@dec $r:ident, $f:ident) => { $r.take(stringify!($f))? };
    (@dec $r:ident, $f:ident, ratio) => {
        $r.take_with(stringify!($f), $crate::json::Ratio::from_ratio_json)?
    };
    (@dec $r:ident, $f:ident, omit_none) => { $r.take_opt(stringify!($f))? };
    (@dec $r:ident, $f:ident, skip) => { Default::default() };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_the_repo_shapes() {
        let v = parse_json(r#" {"a" : [1, 2.5e-3, -0, null, true], "b":{"c":"x\"y"}} "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\"y"));
        // Raw text preserved for 64-bit-exact comparison and re-emission.
        let big = parse_json("18446744073709551615").unwrap();
        assert_eq!(big.as_u64(), Some(u64::MAX));
        assert_eq!(big.to_string(), "18446744073709551615");
        assert_eq!(
            parse_json("\"a\\u0041b\"").unwrap(),
            Json::Str("aAb".into())
        );
        assert_eq!(
            parse_json("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1f600}".into())
        );
        // Keys keep their written order; emission is compact.
        let src = r#"{"z":1,"a":{"y":[],"b":{}},"m":"\n"}"#;
        assert_eq!(parse_json(src).unwrap().to_string(), src);
        // A repeated key: lookup sees the last one.
        assert_eq!(
            parse_json(r#"{"k":1,"k":2}"#)
                .unwrap()
                .get("k")
                .unwrap()
                .as_u64(),
            Some(2)
        );
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{\"a\":[1,2,",
            "nope",
            "01",
            "1.",
            ".5",
            "+1",
            "1e",
            "-",
            "[1,]",
            "{\"a\" 1}",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
            "\"tab\there\"",
            "\"unterminated",
            "1 2",
            "\u{c}1",
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse_json(&deep).unwrap_err().contains("nesting deeper"));
        assert!(parse_json(&"[".repeat(100_000)).is_err());
        assert!(parse_json(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // One 4 MiB string: quadratic scanning would take minutes.
        let s = format!("\"{}\"", "é".repeat(2 << 20));
        let t = std::time::Instant::now();
        assert_eq!(parse_json(&s).unwrap().as_str().unwrap().len(), 4 << 20);
        assert!(t.elapsed().as_secs() < 10, "{:?}", t.elapsed());
    }

    #[test]
    fn emitter_escapes_specials() {
        let v = Json::Str("a\"b\\c\nd\u{1}é".into());
        assert_eq!(v.to_string(), "\"a\\\"b\\\\c\\nd\\u0001é\"");
        assert_eq!(parse_json(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn scalar_codecs_are_strict() {
        assert_eq!(u64::MAX.to_json().to_string(), "18446744073709551615");
        assert!(u64::from_json(&parse_json("18446744073709551616").unwrap()).is_err());
        assert!(u64::from_json(&parse_json("1e3").unwrap()).is_err());
        assert!(u64::from_json(&parse_json("-0").unwrap()).is_err());
        assert!(u16::from_json(&parse_json("65536").unwrap()).is_err());
        // Floats: shortest round-trip text, exact bits back.
        for x in [0.1, 1.0, -0.0, 5e-324, 1e300, 98765.4321, 1.0 / 3.0] {
            let j = x.to_json();
            let back = f64::from_json(&parse_json(&j.to_string()).unwrap()).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{j}");
        }
        assert_eq!(f64::NAN.to_json(), Json::Null);
        assert!(f64::from_json(&Json::Null).is_err());
        assert!(f64::from_json(&parse_json("1e999").unwrap()).is_err());
        assert!(f64::from_json(&parse_json("0.50").unwrap()).is_err());
        assert!(f64::from_json(&parse_json("1E-7").unwrap()).is_err());
        assert_eq!(Json::fixed(0.25, 6).to_string(), "0.250000");
        assert_eq!(Json::fixed(f64::INFINITY, 6), Json::Null);
        assert_eq!((3u64, 7u64).to_json().to_string(), "[3,7]");
    }

    #[derive(Debug, Default, PartialEq)]
    struct Inner {
        a: u64,
        b: Option<f64>,
    }
    crate::json_object!(Inner { a, b });

    #[derive(Debug, Default, PartialEq)]
    struct Outer {
        first: Inner,
        rate: Option<f64>,
        extra: Option<Inner>,
        host: u64,
        name: String,
    }
    crate::json_object!(Outer {
        name,
        first,
        rate: ratio,
        extra: omit_none,
        host: skip
    });

    #[test]
    fn macro_structs_round_trip_and_decode_strictly() {
        let o = Outer {
            first: Inner { a: 7, b: Some(0.5) },
            rate: None,
            extra: None,
            host: 99,
            name: "x".into(),
        };
        let text = o.to_json().to_string();
        assert_eq!(text, r#"{"name":"x","first":{"a":7,"b":0.5},"rate":null}"#);
        let back = Outer::from_json(&parse_json(&text).unwrap()).unwrap();
        assert_eq!(back, Outer { host: 0, ..o });
        let with_extra =
            r#"{"name":"x","first":{"a":7,"b":null},"rate":0.125000,"extra":{"a":1,"b":2.0}}"#;
        let back = Outer::from_json(&parse_json(with_extra).unwrap()).unwrap();
        assert_eq!(back.extra, Some(Inner { a: 1, b: Some(2.0) }));
        assert_eq!(back.rate, Some(0.125));
        for bad in [
            r#"{"first":{"a":7,"b":0.5},"name":"x","rate":null}"#,
            r#"{"name":"x","first":{"a":7,"b":0.5}}"#,
            r#"{"name":"x","first":{"a":7,"b":0.5},"rate":null,"bogus":1}"#,
            r#"{"name":"x","name":"x","first":{"a":7,"b":0.5},"rate":null}"#,
            r#"{"name":"x","first":{"a":7,"b":0.5,"b":0.5},"rate":null}"#,
            r#"{"name":1,"first":{"a":7,"b":0.5},"rate":null}"#,
            r#"[]"#,
        ] {
            assert!(
                Outer::from_json(&parse_json(bad).unwrap()).is_err(),
                "{bad}"
            );
        }
    }
}
