//! The one JSON layer (DESIGN.md "Serialisation"): a push-style
//! [`Emitter`] every artifact is written with, and the recursive-descent
//! [`parse`] everything is read back with. Std-only, like the compat
//! shims.

use std::collections::BTreeMap;

/// Escapes a string for embedding between JSON quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Push-style JSON writer. [`Emitter::pretty`] puts one member per line
/// with two-space indents (artifacts people read); a container opened
/// after [`Emitter::inline`] stays on its line, `{"a": 1, "b": [2, 3]}`.
/// [`Emitter::compact`] writes no whitespace at all (JSONL).
pub struct Emitter {
    out: String,
    pretty: bool,
    depth: usize,
    /// Depth of the outermost open inline container, if any.
    inline_from: Option<usize>,
    inline_next: bool,
    /// The open container has no member yet (no comma due).
    first: bool,
    after_key: bool,
}

impl Emitter {
    pub fn pretty() -> Self {
        Emitter {
            out: String::new(),
            pretty: true,
            depth: 0,
            inline_from: None,
            inline_next: false,
            first: true,
            after_key: false,
        }
    }
    pub fn compact() -> Self {
        Emitter {
            pretty: false,
            ..Emitter::pretty()
        }
    }

    /// Separator before a key or an array element.
    fn sep(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let first = std::mem::replace(&mut self.first, false);
        if !first {
            self.out.push(',');
        }
        if !self.pretty || self.depth == 0 {
            return;
        }
        if self.inline_from.is_none() {
            self.out.push('\n');
            self.out.push_str(&"  ".repeat(self.depth));
        } else if !first {
            self.out.push(' ');
        }
    }
    fn open(&mut self, c: char) -> &mut Self {
        self.sep();
        self.out.push(c);
        self.depth += 1;
        self.first = true;
        if std::mem::take(&mut self.inline_next) && self.inline_from.is_none() {
            self.inline_from = Some(self.depth);
        }
        self
    }
    fn close(&mut self, c: char) -> &mut Self {
        let inline = self.inline_from.is_some();
        if self.inline_from == Some(self.depth) {
            self.inline_from = None;
        }
        self.depth -= 1;
        if self.pretty && !inline && !self.first {
            self.out.push('\n');
            self.out.push_str(&"  ".repeat(self.depth));
        }
        self.out.push(c);
        self.first = false;
        self
    }
    fn scalar(&mut self, text: &str) -> &mut Self {
        self.sep();
        self.out.push_str(text);
        self
    }

    /// The next container opened is written on one line.
    pub fn inline(&mut self) -> &mut Self {
        self.inline_next = true;
        self
    }
    pub fn begin_obj(&mut self) -> &mut Self {
        self.open('{')
    }
    pub fn end_obj(&mut self) -> &mut Self {
        self.close('}')
    }
    pub fn begin_arr(&mut self) -> &mut Self {
        self.open('[')
    }
    pub fn end_arr(&mut self) -> &mut Self {
        self.close(']')
    }
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.sep();
        self.out.push_str(&format!("\"{}\":", escape(k)));
        if self.pretty {
            self.out.push(' ');
        }
        self.after_key = true;
        self
    }
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.scalar(&format!("\"{}\"", escape(v)))
    }
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.scalar(&v.to_string())
    }
    /// Fixed `decimals`; non-finite values have no JSON spelling and
    /// become `null`.
    pub fn f64(&mut self, v: f64, decimals: usize) -> &mut Self {
        if v.is_finite() {
            self.scalar(&format!("{v:.decimals$}"))
        } else {
            self.null()
        }
    }
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.scalar(if v { "true" } else { "false" })
    }
    pub fn null(&mut self) -> &mut Self {
        self.scalar("null")
    }
    /// The document, newline-terminated.
    pub fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

/// A parsed JSON value. Integer tokens are kept exact: trace events
/// carry `u64::MAX`, which an `f64` would round.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i128),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::Int(n) => Some(*n as f64),
            _ => None,
        }
    }
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }
}

pub fn parse(src: &str) -> Result<Value, String> {
    let mut p = Parser {
        b: src.as_bytes(),
        i: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> u8 {
        *self.b.get(self.i).unwrap_or(&0)
    }
    fn ws(&mut self) {
        while self.peek().is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}, found '{}'",
                c as char,
                self.i,
                self.peek() as char
            ))
        }
    }
    fn lit(&mut self, s: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(s.as_bytes()) {
            self.i += s.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.lit("true", Value::Bool(true)),
            b'f' => self.lit("false", Value::Bool(false)),
            b'n' => self.lit("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(format!("unexpected '{}' at offset {}", c as char, self.i)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.ws();
        if self.peek() == b'}' {
            self.i += 1;
            return Ok(Value::Obj(m));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let v = self.value()?;
            m.insert(k, v);
            self.ws();
            match self.peek() {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Ok(Value::Obj(m));
                }
                c => return Err(format!("expected ',' or '}}', found '{}'", c as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.ws();
        if self.peek() == b']' {
            self.i += 1;
            return Ok(Value::Arr(v));
        }
        loop {
            self.ws();
            v.push(self.value()?);
            self.ws();
            match self.peek() {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Ok(Value::Arr(v));
                }
                c => return Err(format!("expected ',' or ']', found '{}'", c as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                0 => return Err("unterminated string".into()),
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.i += 1;
                    let e = self.peek();
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.i += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        c => return Err(format!("bad escape '\\{}'", c as char)),
                    }
                }
                _ => {
                    // Copy one UTF-8 code point verbatim.
                    let start = self.i;
                    self.i += 1;
                    while self.i < self.b.len() && (self.b[self.i] & 0xc0) == 0x80 {
                        self.i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.peek() == b'-' {
            self.i += 1;
        }
        while matches!(self.peek(), b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
            self.i += 1;
        }
        let tok = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        if let Ok(n) = tok.parse::<i128>() {
            return Ok(Value::Int(n));
        }
        tok.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number at offset {}: {}", start, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_baseline_shapes() {
        let v = parse(
            r#"{"schema":"fractal-perf-baseline/1","tolerances":{"count":0.0,"x":0.02},
                "fault_free_counters":["a","b"],"nested":[1,-2,3.5,true,false,null]}"#,
        )
        .unwrap();
        assert_eq!(
            v.get("schema").unwrap().as_str(),
            Some("fractal-perf-baseline/1")
        );
        assert_eq!(
            v.get("tolerances").unwrap().get("x").unwrap().as_num(),
            Some(0.02)
        );
        let nested = v.get("nested").unwrap().as_arr().unwrap();
        assert_eq!(nested[1], Value::Int(-2));
        assert_eq!(nested[1].as_num(), Some(-2.0));
        assert_eq!(nested[2], Value::Num(3.5));
        assert_eq!(
            v.get("fault_free_counters")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#""a\nb\"cA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\nb\"cA"));
        assert_eq!(escape("a\"b\\c\nd\re\tf"), "a\\\"b\\\\c\\nd\\re\\tf");
        assert_eq!(escape("bell\u{7}"), "bell\\u0007");
        assert_eq!(escape("plain \u{e9}"), "plain \u{e9}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}extra").is_err());
    }

    /// Builds the same document in both layouts.
    fn sample(mut e: Emitter) -> String {
        e.begin_obj();
        e.key("schema").str("x/1");
        e.key("max").u64(u64::MAX);
        e.key("ratio").f64(0.5, 3);
        e.key("nan").f64(f64::NAN, 3);
        e.key("ok").bool(true);
        e.key("nasty").str("q\"b\\n\nc\u{1}");
        e.key("rows").begin_arr();
        for i in 0..2 {
            e.inline().begin_obj();
            e.key("i").u64(i);
            e.key("pair").begin_arr().u64(1).u64(2).end_arr();
            e.end_obj();
        }
        e.end_arr();
        e.key("empty").begin_arr().end_arr();
        e.key("nested").begin_obj().key("k").null().end_obj();
        e.end_obj();
        e.finish()
    }

    #[test]
    fn pretty_layout_is_one_member_per_line_with_inline_rows() {
        assert_eq!(
            sample(Emitter::pretty()),
            "{\n  \"schema\": \"x/1\",\n  \"max\": 18446744073709551615,\n  \"ratio\": 0.500,\n  \
             \"nan\": null,\n  \"ok\": true,\n  \"nasty\": \"q\\\"b\\\\n\\nc\\u0001\",\n  \
             \"rows\": [\n    {\"i\": 0, \"pair\": [1, 2]},\n    {\"i\": 1, \"pair\": [1, 2]}\n  ],\n  \
             \"empty\": [],\n  \"nested\": {\n    \"k\": null\n  }\n}\n"
        );
    }

    #[test]
    fn emitter_output_parses_back_exactly() {
        let pretty = parse(&sample(Emitter::pretty())).unwrap();
        // The JSONL form: one line, no whitespace outside strings.
        let compact = sample(Emitter::compact());
        assert!(compact.starts_with("{\"schema\":\"x/1\",\"max\":18446744073709551615,"));
        assert_eq!(compact.matches('\n').count(), 1);
        assert_eq!(parse(&compact).unwrap(), pretty);
        // u64::MAX survives: an f64 would have rounded it to 2^64.
        assert_eq!(pretty.get("max").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(pretty.get("ratio"), Some(&Value::Num(0.5)));
        assert_eq!(pretty.get("nan"), Some(&Value::Null));
        assert_eq!(
            pretty.get("nasty").unwrap().as_str(),
            Some("q\"b\\n\nc\u{1}")
        );
        let rows = pretty.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows[1].get("i").unwrap().as_u64(), Some(1));
    }
}
