//! A minimal JSON backend for the trace format.
//!
//! The vendored `serde` shim carries no `serde_json`, so this module
//! provides what the trace format and the checkpoints need: a [`Serializer`]
//! that renders any `Serialize` type to a compact JSON string, a small
//! recursive-descent [`parse`] function producing a [`Json`] value tree, and
//! the field accessors ([`get_f64`], [`get_u64`], ...) that the event parser
//! and both checkpoint codecs read documents with. Numbers are emitted with
//! Rust's shortest round-trip formatting, so `f64 → JSON → f64` is exact;
//! non-finite floats become `null`.

use serde::ser::{
    Error as SerError, Serialize, SerializeMap, SerializeSeq, SerializeStruct,
    SerializeStructVariant, Serializer,
};
use std::fmt::{self, Display, Write as _};

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value
        .serialize(JsonSerializer { out: &mut out })
        .expect("writing JSON to a String cannot fail");
    out
}

/// Serialization error. Writing to a `String` cannot actually fail, so this
/// only materializes if a `Serialize` impl reports a custom error.
#[derive(Debug)]
pub struct JsonError(String);

impl Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl SerError for JsonError {
    fn custom<T: Display>(msg: T) -> Self {
        JsonError(msg.to_string())
    }
}

struct JsonSerializer<'a> {
    out: &'a mut String,
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` is Rust's shortest representation that parses back to the
        // same bits, e.g. `0.1`, `1.0`, `1.75e-3` stays exact.
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Writes comma-separated items between `open`/`close` delimiters.
struct DelimitedWriter<'a> {
    out: &'a mut String,
    first: bool,
    close: char,
}

impl<'a> DelimitedWriter<'a> {
    fn begin(out: &'a mut String, open: char, close: char) -> Self {
        out.push(open);
        DelimitedWriter {
            out,
            first: true,
            close,
        }
    }

    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.out.push(',');
        }
    }

    fn finish(self) {
        self.out.push(self.close);
    }
}

impl<'a> Serializer for JsonSerializer<'a> {
    type Ok = ();
    type Error = JsonError;
    type SerializeSeq = DelimitedWriter<'a>;
    type SerializeMap = DelimitedWriter<'a>;
    type SerializeStruct = DelimitedWriter<'a>;
    type SerializeStructVariant = VariantWriter<'a>;

    fn serialize_bool(self, v: bool) -> Result<(), JsonError> {
        self.out.push_str(if v { "true" } else { "false" });
        Ok(())
    }

    fn serialize_i64(self, v: i64) -> Result<(), JsonError> {
        let _ = write!(self.out, "{v}");
        Ok(())
    }

    fn serialize_u64(self, v: u64) -> Result<(), JsonError> {
        let _ = write!(self.out, "{v}");
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<(), JsonError> {
        write_f64(self.out, v);
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<(), JsonError> {
        write_escaped(self.out, v);
        Ok(())
    }

    fn serialize_unit(self) -> Result<(), JsonError> {
        self.out.push_str("null");
        Ok(())
    }

    fn serialize_none(self) -> Result<(), JsonError> {
        self.out.push_str("null");
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), JsonError> {
        value.serialize(self)
    }

    fn serialize_seq(self, _len: Option<usize>) -> Result<DelimitedWriter<'a>, JsonError> {
        Ok(DelimitedWriter::begin(self.out, '[', ']'))
    }

    fn serialize_map(self, _len: Option<usize>) -> Result<DelimitedWriter<'a>, JsonError> {
        Ok(DelimitedWriter::begin(self.out, '{', '}'))
    }

    fn serialize_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<DelimitedWriter<'a>, JsonError> {
        Ok(DelimitedWriter::begin(self.out, '{', '}'))
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
    ) -> Result<(), JsonError> {
        write_escaped(self.out, variant);
        Ok(())
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<VariantWriter<'a>, JsonError> {
        self.out.push('{');
        write_escaped(self.out, variant);
        self.out.push(':');
        Ok(VariantWriter {
            inner: DelimitedWriter::begin(self.out, '{', '}'),
        })
    }
}

impl SerializeSeq for DelimitedWriter<'_> {
    type Ok = ();
    type Error = JsonError;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), JsonError> {
        self.sep();
        value.serialize(JsonSerializer { out: self.out })
    }

    fn end(self) -> Result<(), JsonError> {
        self.finish();
        Ok(())
    }
}

impl SerializeMap for DelimitedWriter<'_> {
    type Ok = ();
    type Error = JsonError;

    fn serialize_entry<K: Serialize + ?Sized, V: Serialize + ?Sized>(
        &mut self,
        key: &K,
        value: &V,
    ) -> Result<(), JsonError> {
        self.sep();
        // JSON object keys must be strings: serialize the key, then require
        // that it rendered as one.
        let start = self.out.len();
        key.serialize(JsonSerializer { out: self.out })?;
        if !self.out[start..].starts_with('"') {
            return Err(JsonError::custom("JSON map keys must serialize as strings"));
        }
        self.out.push(':');
        value.serialize(JsonSerializer { out: self.out })
    }

    fn end(self) -> Result<(), JsonError> {
        self.finish();
        Ok(())
    }
}

impl SerializeStruct for DelimitedWriter<'_> {
    type Ok = ();
    type Error = JsonError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), JsonError> {
        self.sep();
        write_escaped(self.out, key);
        self.out.push(':');
        value.serialize(JsonSerializer { out: self.out })
    }

    fn end(self) -> Result<(), JsonError> {
        self.finish();
        Ok(())
    }
}

/// Struct-variant writer: the inner `{fields}` object plus the wrapping
/// `{"Variant": ... }` object that still needs closing.
pub struct VariantWriter<'a> {
    inner: DelimitedWriter<'a>,
}

impl SerializeStructVariant for VariantWriter<'_> {
    type Ok = ();
    type Error = JsonError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), JsonError> {
        self.inner.sep();
        write_escaped(self.inner.out, key);
        self.inner.out.push(':');
        value.serialize(JsonSerializer {
            out: self.inner.out,
        })
    }

    fn end(self) -> Result<(), JsonError> {
        let out = {
            self.inner.out.push(self.inner.close);
            // Close the outer `{"Variant": ...}` wrapper too.
            let DelimitedWriter { out, .. } = self.inner;
            out
        };
        out.push('}');
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// A parsed JSON value.
///
/// Objects preserve insertion order (they are association lists, not maps),
/// which keeps parsing allocation-light and makes tests deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; JSON does not distinguish integer from float.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, as ordered key–value pairs.
    Object(Vec<(String, Json)>),
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a message naming the byte offset of the first syntax error, or
/// trailing non-whitespace after the document.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint {code:#x}"))?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of plain characters up to the next quote
                    // or backslash. Both are ASCII, which never occurs
                    // inside a multi-byte UTF-8 character, so the run starts
                    // and ends on character boundaries of the input `str`.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

// Accessors over a parsed document. Each error starts with the field (or
// `what` the value is) it tripped over; [`parse_object`] and
// [`parse_objects`] put the path of the enclosing object before it.

/// Integers read from a document lie below this bound. Each is exact in an
/// `f64`, and a counter restored from one cannot count up to overflow.
pub const INTEGER_BOUND: u64 = 9_000_000_000_000_000;

/// The value of field `key`; `Err` when the object has none.
pub fn get<'a>(fields: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("{key}: missing"))
}

/// `read(fields, key)`, or `default` when the object has no field `key`:
/// how a parser reads a field its format added after version 1.
pub(crate) fn get_or<T>(
    fields: &[(String, Json)],
    key: &str,
    default: T,
    read: impl FnOnce(&[(String, Json)], &str) -> Result<T, String>,
) -> Result<T, String> {
    if fields.iter().any(|(k, _)| k == key) {
        read(fields, key)
    } else {
        Ok(default)
    }
}

/// The fields of an object; `Err` for any other value.
pub fn as_object<'a>(value: &'a Json, what: &str) -> Result<&'a [(String, Json)], String> {
    match value {
        Json::Object(fields) => Ok(fields),
        other => Err(format!("{what}: expected an object, got {other:?}")),
    }
}

/// The items of an array; `Err` for any other value.
fn as_array<'a>(value: &'a Json, what: &str) -> Result<&'a [Json], String> {
    match value {
        Json::Array(items) => Ok(items),
        other => Err(format!("{what}: expected an array, got {other:?}")),
    }
}

/// The items of an array of exactly `N` items.
pub fn as_tuple<'a, const N: usize>(value: &'a Json, what: &str) -> Result<&'a [Json; N], String> {
    as_array(value, what)?
        .try_into()
        .map_err(|_| format!("{what}: expected {N} items"))
}

/// A number; `Err` for any other value.
pub fn as_f64(value: &Json, what: &str) -> Result<f64, String> {
    match value {
        Json::Number(n) => Ok(*n),
        other => Err(format!("{what}: expected a number, got {other:?}")),
    }
}

/// A number, where `null` stands for NaN: non-finite floats serialize as
/// `null`.
pub(crate) fn as_f64_or_nan(value: &Json, what: &str) -> Result<f64, String> {
    match value {
        Json::Null => Ok(f64::NAN),
        value => as_f64(value, what),
    }
}

/// An integer in [0, 9.0e15); `Err` for any other value.
pub fn as_u64(value: &Json, what: &str) -> Result<u64, String> {
    let n = as_f64(value, what)?;
    if n.fract() == 0.0 && (0.0..INTEGER_BOUND as f64).contains(&n) {
        Ok(n as u64)
    } else {
        Err(format!(
            "{what}: {} is not an integer in [0, {INTEGER_BOUND:e})",
            Short(n)
        ))
    }
}

/// A number as an error message prints it: plainly while that is short,
/// in exponent form where the plain form would spell out hundreds of
/// digits (`1e300`, `1e-300`).
struct Short(f64);

impl Display for Short {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0;
        if n == 0.0 || (1e-4..1e16).contains(&n.abs()) {
            write!(f, "{n}")
        } else {
            write!(f, "{n:e}")
        }
    }
}

/// An index: an integer in [0, 9.0e15) that fits a `usize`.
pub fn as_usize(value: &Json, what: &str) -> Result<usize, String> {
    let n = as_u64(value, what)?;
    usize::try_from(n).map_err(|_| format!("{what}: {n} does not fit a usize"))
}

/// A boolean; `Err` for any other value.
pub fn as_bool(value: &Json, what: &str) -> Result<bool, String> {
    match value {
        Json::Bool(b) => Ok(*b),
        other => Err(format!("{what}: expected a bool, got {other:?}")),
    }
}

/// A string; `Err` for any other value.
pub fn as_str<'a>(value: &'a Json, what: &str) -> Result<&'a str, String> {
    match value {
        Json::String(s) => Ok(s),
        other => Err(format!("{what}: expected a string, got {other:?}")),
    }
}

/// Number field `key`.
pub fn get_f64(fields: &[(String, Json)], key: &str) -> Result<f64, String> {
    as_f64(get(fields, key)?, key)
}

/// Number field `key`, where `null` stands for NaN.
pub fn get_f64_or_nan(fields: &[(String, Json)], key: &str) -> Result<f64, String> {
    as_f64_or_nan(get(fields, key)?, key)
}

/// Number field `key`, where `null` stands for `-inf` (HYBRID's initial
/// best-reward sum).
pub fn get_f64_or_neg_inf(fields: &[(String, Json)], key: &str) -> Result<f64, String> {
    match get(fields, key)? {
        Json::Null => Ok(f64::NEG_INFINITY),
        value => as_f64(value, key),
    }
}

/// Integer field `key`, in [0, 9.0e15).
pub fn get_u64(fields: &[(String, Json)], key: &str) -> Result<u64, String> {
    as_u64(get(fields, key)?, key)
}

/// Index field `key`, in [0, 9.0e15).
pub fn get_usize(fields: &[(String, Json)], key: &str) -> Result<usize, String> {
    as_usize(get(fields, key)?, key)
}

/// Integer field `key` that fits a `u32`, as a format's `version`.
pub fn get_u32(fields: &[(String, Json)], key: &str) -> Result<u32, String> {
    let n = get_u64(fields, key)?;
    u32::try_from(n).map_err(|_| format!("{key}: {n} does not fit a u32"))
}

/// Boolean field `key`.
pub fn get_bool(fields: &[(String, Json)], key: &str) -> Result<bool, String> {
    as_bool(get(fields, key)?, key)
}

/// String field `key`.
pub fn get_str(fields: &[(String, Json)], key: &str) -> Result<String, String> {
    as_str(get(fields, key)?, key).map(str::to_string)
}

/// The items of an array, each read by `read`.
pub fn parse_array<T>(
    value: &Json,
    what: &str,
    read: impl Fn(&Json, &str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    as_array(value, what)?
        .iter()
        .map(|v| read(v, what))
        .collect()
}

/// An object, read by `read`; an error inside it names the path, as
/// `picker.patience`.
pub fn parse_object<T>(
    value: &Json,
    what: &str,
    read: impl FnOnce(&[(String, Json)]) -> Result<T, String>,
) -> Result<T, String> {
    read(as_object(value, what)?).map_err(|e| format!("{what}.{e}"))
}

/// An array of objects, each read by `read`; an error inside one names the
/// path, as `devices[1].slots`.
pub fn parse_objects<T>(
    value: &Json,
    what: &str,
    mut read: impl FnMut(&[(String, Json)]) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    as_array(value, what)?
        .iter()
        .enumerate()
        .map(|(i, item)| match item {
            Json::Object(fields) => read(fields).map_err(|e| format!("{what}[{i}].{e}")),
            other => Err(format!("{what}[{i}]: expected an object, got {other:?}")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_are_bounded_and_errors_name_their_path() {
        let doc = parse(
            r#"{"ok":[0,8999999999999999],"bad":[-1,1.5,9e15,1e300,null],
                "runs":[{"user":2},{"user":-1}],"version":4294967299}"#,
        )
        .unwrap();
        let fields = as_object(&doc, "doc").unwrap();
        let ok = parse_array(get(fields, "ok").unwrap(), "ok", as_usize).unwrap();
        assert_eq!(ok, [0, 8_999_999_999_999_999]);
        for bad in as_array(get(fields, "bad").unwrap(), "bad").unwrap() {
            assert!(as_u64(bad, "n").is_err(), "{bad:?}");
        }
        let runs = get(fields, "runs").unwrap();
        let err = parse_objects(runs, "runs", |f| get_usize(f, "user")).unwrap_err();
        assert!(
            err.starts_with("runs[1].user: -1 is not an integer"),
            "{err}"
        );
        // A refused number too large or too small to print plainly prints
        // in exponent form.
        let short = parse(r#"{"users":1e300,"budget":-1e-300,"sim_seed":2.5}"#).unwrap();
        let short = as_object(&short, "scenario").unwrap();
        assert_eq!(
            get_u64(short, "users").unwrap_err(),
            "users: 1e300 is not an integer in [0, 9e15)"
        );
        assert_eq!(
            get_u64(short, "budget").unwrap_err(),
            "budget: -1e-300 is not an integer in [0, 9e15)"
        );
        assert_eq!(
            get_u64(short, "sim_seed").unwrap_err(),
            "sim_seed: 2.5 is not an integer in [0, 9e15)"
        );
        let err = get_u32(fields, "version").unwrap_err();
        assert_eq!(err, "version: 4294967299 does not fit a u32");
        let err = parse_object(&doc, "doc", |f| get_u64(f, "absent")).unwrap_err();
        assert_eq!(err, "doc.absent: missing");
    }

    #[test]
    fn primitives_render() {
        assert_eq!(to_string(&true), "true");
        assert_eq!(to_string(&42u64), "42");
        assert_eq!(to_string(&-7i32), "-7");
        assert_eq!(to_string(&0.1f64), "0.1");
        assert_eq!(to_string(&f64::NAN), "null");
        assert_eq!(to_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(to_string(&Option::<u32>::None), "null");
        assert_eq!(to_string(&vec![1u32, 2, 3]), "[1,2,3]");
    }

    #[test]
    fn parse_round_trips_floats_exactly() {
        for &v in &[0.1f64, 1.0 / 3.0, 1.75e-3, 1e300, -0.0, 123456789.123456] {
            let s = to_string(&v);
            match parse(&s).unwrap() {
                Json::Number(back) => assert_eq!(back.to_bits(), v.to_bits(), "{s}"),
                other => panic!("parsed {s} to {other:?}"),
            }
        }
    }

    #[test]
    fn parse_handles_nesting_and_whitespace() {
        let doc = r#" { "a" : [ 1 , { "b" : null } , "x" ] , "c" : true } "#;
        let parsed = parse(doc).unwrap();
        assert_eq!(
            parsed,
            Json::Object(vec![
                (
                    "a".into(),
                    Json::Array(vec![
                        Json::Number(1.0),
                        Json::Object(vec![("b".into(), Json::Null)]),
                        Json::String("x".into()),
                    ])
                ),
                ("c".into(), Json::Bool(true)),
            ])
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"\\q\""] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn unicode_strings_survive() {
        let s = "héllo ∑ \u{1}";
        let rendered = to_string(s);
        assert_eq!(parse(&rendered).unwrap(), Json::String(s.into()));
    }

    #[test]
    fn multibyte_characters_next_to_escapes_round_trip() {
        // 2-, 3- and 4-byte characters before, between and after escapes,
        // and as the last character of the string.
        for s in [
            "é",
            "€",
            "𝄞",
            "é\n",
            "\"€",
            "𝄞\\",
            "\t𝄞",
            "a\u{1}é",
            "é\"€\\𝄞",
            "x€",
        ] {
            let rendered = to_string(s);
            assert_eq!(
                parse(&rendered).unwrap(),
                Json::String(s.into()),
                "{rendered}"
            );
        }
        assert_eq!(
            parse(r#""\u00e9é\/€\u20ac𝄞""#).unwrap(),
            Json::String("éé/€€𝄞".into())
        );
    }

    #[test]
    fn string_heavy_documents_parse_in_linear_time() {
        // ~1 MB of strings; each plain character used to re-validate the
        // whole rest of the document, which took minutes here.
        let item = "tenant \"é\" → 𝄞 model zoo entry with a fairly long name";
        let doc = to_string(&vec![item; 16_000]);
        assert!(doc.len() > 1_000_000, "{} bytes", doc.len());
        let start = std::time::Instant::now();
        let parsed = parse(&doc).unwrap();
        let elapsed = start.elapsed();
        match parsed {
            Json::Array(items) => {
                assert_eq!(items.len(), 16_000);
                assert_eq!(items[15_999], Json::String(item.into()));
            }
            other => panic!("parsed to {other:?}"),
        }
        assert!(elapsed.as_secs_f64() < 2.0, "parse took {elapsed:?}");
    }
}
