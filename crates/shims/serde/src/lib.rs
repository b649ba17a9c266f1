//! Offline stand-in for `serde` (see `crates/shims/README.md`).
//!
//! The real serde abstracts over serializers with a visitor architecture;
//! this shim has two paths, which is all the workspace needs (JSON + TOML
//! round-trips of plain data types):
//!
//! - [`Serialize::write_json`] appends compact JSON straight to a
//!   `String`. It is the JSON output path: no intermediate tree, no
//!   per-field allocation.
//! - [`Serialize::to_value`] / [`Deserialize::from_value`] go through one
//!   self-describing [`Value`] tree, which serves pretty printing, TOML
//!   and every deserializer.
//!
//! Both are implemented for the primitive types, `String`, `Cow<str>`,
//! `Option`, `Vec`, tuples, and references; derived impls for structs and
//! enums come from the sibling `serde_derive` shim and use the same
//! externally-tagged enum representation as real serde, on both paths.

#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::fmt::Write as _;

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing value: the common currency between `Serialize`,
/// `Deserialize`, and the JSON / TOML front-ends.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent / null.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer too large for `i64`.
    UInt(u64),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Value>),
    /// Ordered map (insertion order is preserved — serialization is
    /// deterministic by construction).
    Map(Vec<(String, Value)>),
}

/// The one null value, borrowable with `'static` lifetime.
pub static NULL: Value = Value::Null;

impl Value {
    /// Short type name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }

    /// Looks up a key in a map value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Deserialization error: a message plus a breadcrumb path.
#[derive(Debug, Clone)]
pub struct DeError {
    msg: String,
    path: Vec<String>,
}

impl DeError {
    /// Creates an error from a message.
    pub fn custom(msg: impl Into<String>) -> Self {
        DeError {
            msg: msg.into(),
            path: Vec::new(),
        }
    }

    /// Type mismatch helper.
    pub fn expected(what: &str, got: &Value) -> Self {
        DeError::custom(format!("expected {what}, got {}", got.kind()))
    }

    /// Unknown enum variant helper.
    pub fn unknown_variant(ty: &str, tag: &str) -> Self {
        DeError::custom(format!("unknown variant `{tag}` for {ty}"))
    }

    /// Prepends a breadcrumb (`Struct.field`) to the error path.
    pub fn at(mut self, crumb: &str) -> Self {
        self.path.insert(0, crumb.to_string());
        self
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.path.is_empty() {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "{}: {}", self.path.join("."), self.msg)
        }
    }
}

impl std::error::Error for DeError {}

/// Serialization into a [`Value`] or straight to compact JSON.
pub trait Serialize {
    /// Converts `self` into the self-describing value tree.
    fn to_value(&self) -> Value;

    /// Appends `self` as compact JSON: the bytes `to_value` followed by
    /// the compact writer would give, without building the tree.
    fn write_json(&self, out: &mut String) {
        self.to_value().write_json(out);
    }
}

/// Appends `items` as a JSON array.
fn write_json_seq<T: Serialize>(out: &mut String, items: &[T]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

/// Deserialization from a [`Value`].
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from the value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// --- helpers used by the derive macro ---------------------------------------

/// Views a value as a struct's field map.
pub fn struct_map<'a>(v: &'a Value, ty: &str) -> Result<&'a [(String, Value)], DeError> {
    match v {
        Value::Map(m) => Ok(m),
        other => Err(DeError::expected("map", other).at(ty)),
    }
}

/// Fetches a field by name, yielding `Null` when absent (so `Option`
/// fields default to `None` and everything else reports a type error).
pub fn field<'a>(m: &'a [(String, Value)], name: &str) -> &'a Value {
    m.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .unwrap_or(&NULL)
}

/// Views a value as a sequence.
pub fn seq<'a>(v: &'a Value, ty: &str) -> Result<&'a [Value], DeError> {
    match v {
        Value::Seq(s) => Ok(s),
        other => Err(DeError::expected("sequence", other).at(ty)),
    }
}

/// Splits an externally-tagged enum value into `(variant_tag, payload)`.
/// A bare string is a unit variant (payload `Null`); a single-entry map is
/// a data-carrying variant.
pub fn enum_tag<'a>(v: &'a Value, ty: &str) -> Result<(&'a str, &'a Value), DeError> {
    match v {
        Value::Str(s) => Ok((s.as_str(), &NULL)),
        Value::Map(m) if m.len() == 1 => Ok((m[0].0.as_str(), &m[0].1)),
        other => Err(DeError::expected("variant string or single-key map", other).at(ty)),
    }
}

// --- primitive impls --------------------------------------------------------

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    /// The compact JSON writer for a tree: written in place, no clone.
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out),
            Value::Int(i) => i.write_json(out),
            Value::UInt(u) => u.write_json(out),
            Value::Float(f) => f.write_json(out),
            Value::Str(s) => s.write_json(out),
            Value::Seq(items) => write_json_seq(out, items),
            Value::Map(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    k.write_json(out);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", other)),
        }
    }
}

fn as_i128(v: &Value) -> Option<i128> {
    match v {
        Value::Int(i) => Some(*i as i128),
        Value::UInt(u) => Some(*u as i128),
        Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e18 => Some(*f as i128),
        _ => None,
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let wide = *self as i128;
                if wide >= 0 && wide > i64::MAX as i128 {
                    Value::UInt(*self as u64)
                } else {
                    Value::Int(wide as i64)
                }
            }

            fn write_json(&self, out: &mut String) {
                write!(out, "{self}").expect("writing to a String cannot fail");
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let wide = as_i128(v).ok_or_else(|| DeError::expected("integer", v))?;
                <$t>::try_from(wide)
                    .map_err(|_| DeError::custom(format!("integer {wide} out of range")))
            }
        }
    )*};
}

impl_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }

    /// Rust's shortest-roundtrip `Display`, with `.0` appended when that
    /// text has no `.`, `e` or `E`, so the number re-parses as a float
    /// (real serde_json does the same via ryu: 3 -> "3.0"). Non-finite
    /// floats become `null`, as in real serde_json.
    fn write_json(&self, out: &mut String) {
        if !self.is_finite() {
            out.push_str("null");
            return;
        }
        let start = out.len();
        write!(out, "{self}").expect("writing to a String cannot fail");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            Value::UInt(u) => Ok(*u as f64),
            other => Err(DeError::expected("number", other)),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }

    fn write_json(&self, out: &mut String) {
        (*self as f64).write_json(out);
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }

    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", other)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }

    /// A quoted JSON string. Quote, backslash, newline, tab and carriage
    /// return get two-character escapes, other control characters
    /// `\u00XX`; everything else, non-ASCII included, is copied as is.
    fn write_json(&self, out: &mut String) {
        out.push('"');
        let mut clean = 0;
        // Every escaped byte is ASCII, so each `i` is a char boundary.
        for (i, b) in self.bytes().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            out.push_str(&self[clean..i]);
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\t' => out.push_str("\\t"),
                b'\r' => out.push_str("\\r"),
                _ => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
            }
            clean = i + 1;
        }
        out.push_str(&self[clean..]);
        out.push('"');
    }
}

impl Deserialize for &'static str {
    /// Static-string fields (e.g. mode names) deserialize by leaking the
    /// owned string — acceptable for the handful of interned names this
    /// workspace reads back from disk.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        String::from_value(v).map(|s| &*Box::leak(s.into_boxed_str()))
    }
}

impl Serialize for Cow<'_, str> {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }

    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl Deserialize for Cow<'static, str> {
    /// Always `Owned`: a name read back from disk owns its string, so
    /// nothing leaks.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        String::from_value(v).map(Cow::Owned)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Some(t) => t.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, out: &mut String) {
        write_json_seq(out, self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        seq(v, "Vec")?.iter().map(T::from_value).collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, out: &mut String) {
        write_json_seq(out, self);
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

macro_rules! impl_tuple {
    ($len:expr; $($t:ident => $idx:tt),*) => {
        impl<$($t: Serialize),*> Serialize for ($($t,)*) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),*])
            }

            fn write_json(&self, out: &mut String) {
                out.push('[');
                $(
                    if $idx > 0 {
                        out.push(',');
                    }
                    self.$idx.write_json(out);
                )*
                out.push(']');
            }
        }
        impl<$($t: Deserialize),*> Deserialize for ($($t,)*) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let s = seq(v, "tuple")?;
                if s.len() != $len {
                    return Err(DeError::custom(format!(
                        "expected tuple of {}, got {} elements", $len, s.len()
                    )));
                }
                Ok(($($t::from_value(&s[$idx])?,)*))
            }
        }
    };
}

impl_tuple!(1; A => 0);
impl_tuple!(2; A => 0, B => 1);
impl_tuple!(3; A => 0, B => 1, C => 2);
impl_tuple!(4; A => 0, B => 1, C => 2, D => 3);
impl_tuple!(5; A => 0, B => 1, C => 2, D => 3, E => 4);
impl_tuple!(6; A => 0, B => 1, C => 2, D => 3, E => 4, F => 5);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(f64::from_value(&Value::Int(3)).unwrap(), 3.0);
        assert!(bool::from_value(&Value::Bool(true)).unwrap());
        assert_eq!(String::from_value(&"hi".to_value()).unwrap(), "hi");
    }

    #[test]
    fn option_null_behaviour() {
        assert_eq!(Option::<f64>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(
            Option::<f64>::from_value(&Value::Float(2.0)).unwrap(),
            Some(2.0)
        );
        assert_eq!(None::<f64>.to_value(), Value::Null);
    }

    #[test]
    fn vec_and_tuple_roundtrip() {
        let v = vec![(1u64, "a".to_string()), (2, "b".to_string())];
        let back: Vec<(u64, String)> = Deserialize::from_value(&v.to_value()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn missing_field_is_null() {
        let m = vec![("a".to_string(), Value::Int(1))];
        assert_eq!(field(&m, "b"), &Value::Null);
        assert_eq!(field(&m, "a"), &Value::Int(1));
    }

    #[test]
    fn out_of_range_integer_errors() {
        assert!(u8::from_value(&Value::Int(300)).is_err());
        assert!(u64::from_value(&Value::Int(-1)).is_err());
    }

    #[test]
    fn cow_str_writes_like_string_and_reads_back_owned() {
        let text = "say \"hi\"\\\n\tx\u{1}\u{e9}";
        let mut want = String::new();
        text.to_string().write_json(&mut want);
        assert_eq!(want, "\"say \\\"hi\\\"\\\\\\n\\tx\\u0001\u{e9}\"");
        for cow in [Cow::Borrowed(text), Cow::Owned(text.to_string())] {
            let mut got = String::new();
            cow.write_json(&mut got);
            assert_eq!(got, want);
            assert_eq!(cow.to_value(), text.to_string().to_value());
        }
        let back = Cow::<'static, str>::from_value(&Value::Str(text.into())).unwrap();
        assert!(matches!(back, Cow::Owned(ref s) if s == text));
    }

    #[test]
    fn cow_str_rejects_non_strings() {
        for v in [
            Value::Null,
            Value::Int(3),
            Value::Bool(true),
            Value::Seq(vec![]),
        ] {
            let err = Cow::<'static, str>::from_value(&v).unwrap_err();
            assert!(err.to_string().starts_with("expected string"), "{err}");
        }
    }

    #[test]
    fn enum_tag_shapes() {
        let unit = Value::Str("None".into());
        let (tag, inner) = enum_tag(&unit, "T").unwrap();
        assert_eq!(tag, "None");
        assert_eq!(inner, &Value::Null);
        let m = Value::Map(vec![("Flat".into(), Value::Map(vec![]))]);
        let (tag, _) = enum_tag(&m, "T").unwrap();
        assert_eq!(tag, "Flat");
    }
}
