//! Offline stand-in for `serde_json` (see `crates/shims/README.md`).
//!
//! Compact output comes straight from [`Serialize::write_json`], with no
//! intermediate tree; pretty output walks the serde shim's `Value` tree
//! and shares its scalar formatter and string escaper. Output is
//! deterministic: map order is insertion order and floats use Rust's
//! shortest-roundtrip `Display` (non-finite floats become `null`, as in
//! real serde_json). JSON is parsed back through the `Value` tree.

#![forbid(unsafe_code)]

use serde::{DeError, Deserialize, Serialize, Value};

/// Serialization / deserialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.to_string())
    }
}

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

/// Appends a value's compact JSON to `out`, so many rows can be rendered
/// into one buffer.
pub fn append<T: Serialize + ?Sized>(out: &mut String, value: &T) {
    value.write_json(out);
}

/// Serializes a value to 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&mut out, &value.to_value(), 0);
    Ok(out)
}

/// Parses JSON into any `Deserialize` type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    T::from_value(&value).map_err(Error::from)
}

// --- pretty writer ----------------------------------------------------------

const INDENT: usize = 2;

fn write_pretty(out: &mut String, v: &Value, level: usize) {
    match v {
        Value::Seq(items) if !items.is_empty() => {
            write_delimited(out, level, '[', ']', items, |out, item, lvl| {
                write_pretty(out, item, lvl);
            });
        }
        Value::Map(entries) if !entries.is_empty() => {
            write_delimited(out, level, '{', '}', entries, |out, (k, v), lvl| {
                k.write_json(out);
                out.push_str(": ");
                write_pretty(out, v, lvl);
            });
        }
        // Scalars and empty containers read the same compact or pretty.
        other => other.write_json(out),
    }
}

fn write_delimited<T>(
    out: &mut String,
    level: usize,
    open: char,
    close: char,
    items: &[T],
    mut item: impl FnMut(&mut String, &T, usize),
) {
    out.push(open);
    for (i, it) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&" ".repeat(INDENT * (level + 1)));
        item(out, it, level + 1);
    }
    out.push('\n');
    out.push_str(&" ".repeat(INDENT * level));
    out.push(close);
}

// --- parser -----------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parses a JSON document into a `Value`.
pub fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("JSON parse error at byte {}: {msg}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.seq(),
            Some(b'{') => self.map(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn seq(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn map(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode UTF-8 starting at the byte we consumed.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for text in ["null", "true", "false", "42", "-7", "1.5", "\"hi\\n\""] {
            let v = parse_value(text).unwrap();
            assert_eq!(to_string(&v).unwrap(), text);
        }
    }

    #[test]
    fn nested_roundtrip() {
        let text = r#"{"a":[1,2.5,null],"b":{"c":"x y","d":[]}}"#;
        let v = parse_value(text).unwrap();
        assert_eq!(to_string(&v).unwrap(), text);
    }

    #[test]
    fn pretty_output_shape() {
        let v = parse_value(r#"{"a":[1]}"#).unwrap();
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"a\": [\n    1\n  ]\n}"
        );
    }

    #[test]
    fn typed_roundtrip() {
        let v: Vec<(String, f64)> = from_str(r#"[["x",1.25],["y",3]]"#).unwrap();
        assert_eq!(v, vec![("x".to_string(), 1.25), ("y".to_string(), 3.0)]);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_value("{not json").is_err());
        assert!(parse_value("[1,]").is_err());
        assert!(parse_value("1 2").is_err());
        assert!(from_str::<bool>("3").is_err());
    }

    #[test]
    fn float_formatting_is_shortest_roundtrip() {
        let v = Value::Float(0.1 + 0.2);
        let s = to_string(&v).unwrap();
        assert_eq!(s, "0.30000000000000004");
        assert_eq!(parse_value(&s).unwrap(), v);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
    }

    #[test]
    fn unicode_passthrough() {
        let v = parse_value("\"héllo ☃\"").unwrap();
        assert_eq!(v, Value::Str("héllo ☃".to_string()));
    }

    // --- derived writer vs the tree writer ----------------------------------

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Unit,
        Named { label: String, weight: f64 },
        One(Option<u64>),
        Many(i64, String, Vec<f32>),
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Fixture {
        text: String,
        flag: bool,
        big: u64,
        small: i64,
        byte: u8,
        floats: Vec<f64>,
        some: Option<f64>,
        none: Option<String>,
        shapes: Vec<Shape>,
        grid: Vec<Vec<u16>>,
        pair: (u32, String),
        boxed: Box<Shape>,
        tree: Vec<(String, Value)>,
    }

    const AWKWARD: &str = "q\" b\\ n\n t\t r\r c\u{1}\u{1f} d\u{7f} héllo ☃ 𝄞";
    const AWKWARD_JSON: &str = "\"q\\\" b\\\\ n\\n t\\t r\\r c\\u0001\\u001f d\u{7f} héllo ☃ 𝄞\"";

    fn fixture(floats: Vec<f64>) -> Fixture {
        Fixture {
            text: AWKWARD.to_string(),
            flag: true,
            big: u64::MAX,
            small: i64::MIN,
            byte: 255,
            floats,
            some: Some(-2.5),
            none: None,
            shapes: vec![
                Shape::Unit,
                Shape::Named {
                    label: AWKWARD.to_string(),
                    weight: 3.0,
                },
                Shape::One(None),
                Shape::One(Some(7)),
                Shape::Many(-1, String::new(), vec![0.1, 2.0]),
                Shape::Many(0, "x".to_string(), vec![]),
            ],
            grid: vec![vec![], vec![1], vec![2, 3]],
            pair: (9, "p".to_string()),
            boxed: Box::new(Shape::One(Some(0))),
            tree: vec![
                ("f".to_string(), Value::Float(3.0)),
                ("u".to_string(), Value::UInt(u64::MAX)),
                (
                    "m".to_string(),
                    Value::Map(vec![
                        (
                            "s".to_string(),
                            Value::Seq(vec![Value::Null, Value::Bool(false)]),
                        ),
                        ("k\"ey".to_string(), Value::Str(AWKWARD.to_string())),
                    ]),
                ),
            ],
        }
    }

    /// Compact JSON of `x` by the derived writer, checked against the
    /// tree writer.
    fn written(x: &Fixture) -> String {
        let text = to_string(x).unwrap();
        assert_eq!(text, to_string(&x.to_value()).unwrap());
        text
    }

    #[test]
    fn derived_writer_matches_the_tree_writer_and_round_trips() {
        let x = fixture(vec![3.0, -0.0, 1e300, 1e-7, 0.1 + 0.2]);
        let text = written(&x);
        assert_eq!(parse_value(&text).unwrap(), x.to_value());
        assert_eq!(from_str::<Fixture>(&text).unwrap(), x);
        let pretty = to_string_pretty(&x).unwrap();
        assert_eq!(parse_value(&pretty).unwrap(), x.to_value());
    }

    #[test]
    fn non_finite_floats_are_null_on_both_writers() {
        let x = fixture(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        assert!(written(&x).contains("\"floats\":[null,null,null]"));
    }

    #[test]
    fn written_text_is_pinned() {
        assert_eq!(
            to_string(&vec![3.0, -0.0, 1e-7, 0.5]).unwrap(),
            "[3.0,-0.0,0.0000001,0.5]"
        );
        assert_eq!(
            to_string(&1e300).unwrap(),
            format!("1{}.0", "0".repeat(300))
        );
        assert_eq!(
            to_string(&(u64::MAX, i64::MIN)).unwrap(),
            "[18446744073709551615,-9223372036854775808]"
        );
        assert_eq!(to_string(AWKWARD).unwrap(), AWKWARD_JSON);
        let shapes = &fixture(vec![]).shapes;
        assert_eq!(
            to_string(shapes).unwrap(),
            format!(
                "[\"Unit\",{{\"Named\":{{\"label\":{AWKWARD_JSON},\"weight\":3.0}}}},\
                 {{\"One\":null}},{{\"One\":7}},{{\"Many\":[-1,\"\",[0.10000000149011612,2.0]]}},\
                 {{\"Many\":[0,\"x\",[]]}}]"
            )
        );
        let mut out = String::new();
        append(&mut out, &Some(1.5f32));
        out.push('\n');
        append(&mut out, "x");
        assert_eq!(out, "1.5\n\"x\"");
    }
}
