//! A minimal Rust tokenizer — just enough lexical structure for the lint
//! passes to reason about *code* separately from comments and string
//! literals, which is exactly where the regex linter this crate replaced
//! was blind: a `std::sync::atomic` spelled inside a doc string, or an `// ordering:` tag inside a
//! string literal, fooled it in both directions.
//!
//! The lexer is std-only and deliberately incomplete: it does not
//! classify keywords, attach suffixes to numeric literals, or parse
//! float exponents precisely. It *is* exact about the things the passes
//! depend on: comment boundaries (including nested block comments), all
//! string-literal flavors (`"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`),
//! char-vs-lifetime disambiguation, raw identifiers (`r#match`), and
//! per-token line numbers.

/// Token classes. `text` on [`Tok`] carries the identifier spelling,
/// comment body, or raw literal text where a pass needs to look inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers, with the `r#`
    /// prefix stripped so `r#unsafe` still reads as `unsafe` — the
    /// conservative direction for an audit).
    Ident,
    /// `'a` in `&'a T` — distinguished from char literals.
    Lifetime,
    /// Numeric literal (integers, floats, hex/oct/bin; suffixes glued).
    Num,
    /// Any string literal flavor; `text` keeps the raw source slice
    /// including quotes so artifact passes can search serialized keys.
    Str,
    /// Char or byte-char literal.
    Char,
    /// `// …` comment; `text` is the body after `//`.
    LineComment,
    /// `/* … */` comment (nested OK); `text` is the body.
    BlockComment,
    /// Any other single character (`:`, `.`, `{`, `(`, `!`, …).
    Punct,
}

/// One token with its source span in lines (1-based, inclusive).
/// `line_end` differs from `line` only for multi-line strings and block
/// comments.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub punct: char,
    pub line: u32,
    pub line_end: u32,
}

impl Tok {
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.punct == c
    }
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

struct Lexer<'a> {
    src: &'a [u8],
    i: usize,
    line: u32,
    toks: Vec<Tok>,
}

impl<'a> Lexer<'a> {
    fn peek(&self, off: usize) -> u8 {
        *self.src.get(self.i + off).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.src[self.i];
        self.i += 1;
        if b == b'\n' {
            self.line += 1;
        }
        b
    }

    fn push(&mut self, kind: TokKind, text: String, punct: char, line: u32) {
        self.toks.push(Tok {
            kind,
            text,
            punct,
            line,
            line_end: self.line,
        });
    }

    /// Consume a quoted literal starting at the opening `"`, honoring
    /// backslash escapes. Returns the raw text including quotes.
    fn cooked_string(&mut self, start: usize) -> String {
        debug_assert!(self.peek(0) == b'"');
        self.bump();
        while self.i < self.src.len() {
            match self.bump() {
                b'\\' if self.i < self.src.len() => {
                    self.bump();
                }
                b'"' => break,
                _ => {}
            }
        }
        String::from_utf8_lossy(&self.src[start..self.i]).into_owned()
    }

    /// Consume `r"…"` / `r#"…"#` with `hashes` `#`s; `self.i` is at the
    /// opening `"`. Returns raw text from `start`.
    fn raw_string(&mut self, start: usize, hashes: usize) -> String {
        debug_assert!(self.peek(0) == b'"');
        self.bump();
        'scan: while self.i < self.src.len() {
            if self.bump() == b'"' {
                for k in 0..hashes {
                    if self.peek(k) != b'#' {
                        continue 'scan;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        String::from_utf8_lossy(&self.src[start..self.i]).into_owned()
    }

    fn ident(&mut self, start: usize) -> String {
        while self.i < self.src.len() && is_ident_continue(self.peek(0)) {
            self.bump();
        }
        String::from_utf8_lossy(&self.src[start..self.i]).into_owned()
    }

    /// At a `'`: decide char literal vs lifetime. A lifetime is `'` +
    /// ident with no closing quote; everything else (escapes, `'x'`,
    /// `'\u{..}'`) is a char literal.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        self.bump(); // the quote
        if self.peek(0) == b'\\' {
            // Escaped char literal: consume escape then scan to closing quote.
            self.bump();
            self.bump();
            while self.i < self.src.len() && self.peek(0) != b'\'' {
                self.bump();
            }
            if self.i < self.src.len() {
                self.bump();
            }
            self.push(TokKind::Char, String::new(), '\0', line);
            return;
        }
        if is_ident_start(self.peek(0)) {
            let start = self.i;
            let name = self.ident(start);
            if self.peek(0) == b'\'' {
                self.bump();
                self.push(TokKind::Char, String::new(), '\0', line);
            } else {
                self.push(TokKind::Lifetime, name, '\0', line);
            }
            return;
        }
        // `'('`-style single-punct char literal, or stray quote.
        if self.peek(1) == b'\'' {
            self.bump();
            self.bump();
        }
        self.push(TokKind::Char, String::new(), '\0', line);
    }

    /// Try the literal prefixes that start with `r` or `b`:
    /// `r"`, `r#…"`, `r#ident`, `b"`, `b'`, `br"`, `br#…"`.
    /// Returns true if a token was consumed.
    fn try_prefixed(&mut self) -> bool {
        let line = self.line;
        let start = self.i;
        let c0 = self.peek(0);
        if c0 == b'r' || c0 == b'b' {
            let mut j = 1;
            let raw = if c0 == b'r' {
                true
            } else if self.peek(1) == b'r' {
                j = 2;
                true
            } else {
                false
            };
            if raw {
                let mut hashes = 0;
                while self.peek(j + hashes) == b'#' {
                    hashes += 1;
                }
                if self.peek(j + hashes) == b'"' {
                    for _ in 0..j + hashes {
                        self.bump();
                    }
                    let text = self.raw_string(start, hashes);
                    self.push(TokKind::Str, text, '\0', line);
                    return true;
                }
                if c0 == b'r' && hashes == 1 && is_ident_start(self.peek(2)) {
                    // Raw identifier r#ident: strip the prefix.
                    self.bump();
                    self.bump();
                    let s = self.i;
                    let name = self.ident(s);
                    self.push(TokKind::Ident, name, '\0', line);
                    return true;
                }
                return false;
            }
            // c0 == 'b', not raw.
            if self.peek(1) == b'"' {
                self.bump();
                let text = self.cooked_string(start);
                self.push(TokKind::Str, text, '\0', line);
                return true;
            }
            if self.peek(1) == b'\'' {
                self.bump();
                self.char_or_lifetime();
                return true;
            }
        }
        false
    }

    fn number(&mut self, start: usize) {
        let line = self.line;
        while self.i < self.src.len() {
            let b = self.peek(0);
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.bump();
            } else if b == b'.' && self.peek(1).is_ascii_digit() {
                // `1.5` but not `1..n` or `1.max(2)`.
                self.bump();
            } else {
                break;
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.i]).into_owned();
        self.push(TokKind::Num, text, '\0', line);
    }

    fn run(mut self) -> Vec<Tok> {
        while self.i < self.src.len() {
            let b = self.peek(0);
            let line = self.line;
            if b == b'\n' || b.is_ascii_whitespace() {
                self.bump();
                continue;
            }
            if b == b'/' && self.peek(1) == b'/' {
                let start = self.i + 2;
                while self.i < self.src.len() && self.peek(0) != b'\n' {
                    self.bump();
                }
                let text = String::from_utf8_lossy(&self.src[start..self.i]).into_owned();
                self.push(TokKind::LineComment, text, '\0', line);
                continue;
            }
            if b == b'/' && self.peek(1) == b'*' {
                self.bump();
                self.bump();
                let start = self.i;
                let mut depth = 1usize;
                let mut end = self.i;
                while self.i < self.src.len() && depth > 0 {
                    if self.peek(0) == b'/' && self.peek(1) == b'*' {
                        self.bump();
                        self.bump();
                        depth += 1;
                    } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                        depth -= 1;
                        end = self.i;
                        self.bump();
                        self.bump();
                    } else {
                        self.bump();
                    }
                }
                if depth > 0 {
                    end = self.i;
                }
                let text = String::from_utf8_lossy(&self.src[start..end]).into_owned();
                self.push(TokKind::BlockComment, text, '\0', line);
                continue;
            }
            if (b == b'r' || b == b'b') && self.try_prefixed() {
                continue;
            }
            if is_ident_start(b) {
                let start = self.i;
                let name = self.ident(start);
                self.push(TokKind::Ident, name, '\0', line);
                continue;
            }
            if b.is_ascii_digit() {
                let start = self.i;
                self.number(start);
                continue;
            }
            if b == b'"' {
                let start = self.i;
                let text = self.cooked_string(start);
                self.push(TokKind::Str, text, '\0', line);
                continue;
            }
            if b == b'\'' {
                self.char_or_lifetime();
                continue;
            }
            self.bump();
            self.push(TokKind::Punct, String::new(), b as char, line);
        }
        self.toks
    }
}

/// Tokenize `src`, preserving comments (the passes need them for
/// `// ordering:` / `// SAFETY:` / `// panic-ok:` tag discovery).
pub fn tokenize(src: &str) -> Vec<Tok> {
    Lexer {
        src: src.as_bytes(),
        i: 0,
        line: 1,
        toks: Vec::new(),
    }
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        tokenize(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let t = tokenize("std::sync::atomic");
        assert_eq!(t.len(), 7);
        assert!(t[0].is_ident("std"));
        assert!(t[1].is_punct(':') && t[2].is_punct(':'));
        assert!(t[6].is_ident("atomic"));
    }

    #[test]
    fn comments_capture_bodies() {
        let t = tokenize("x // ordering: Relaxed — counter\ny");
        assert_eq!(t[1].kind, TokKind::LineComment);
        assert!(t[1].text.contains("ordering:"));
        assert_eq!(t[2].line, 2);
    }

    #[test]
    fn nested_block_comment() {
        let t = tokenize("a /* outer /* inner */ still */ b");
        assert_eq!(
            kinds("a /* outer /* inner */ still */ b"),
            vec![TokKind::Ident, TokKind::BlockComment, TokKind::Ident]
        );
        assert!(t[1].text.contains("inner"));
    }

    #[test]
    fn strings_hide_code() {
        // A facade escape spelled inside a string is not an Ident token.
        let t = tokenize(r#"let s = "std::sync::atomic";"#);
        assert!(!t.iter().any(|t| t.is_ident("atomic")));
        assert!(t
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text.contains("atomic")));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let t = tokenize(r###"r#"has "quotes" inside"# x"###);
        assert_eq!(t[0].kind, TokKind::Str);
        assert!(t[0].text.contains("quotes"));
        assert!(t[1].is_ident("x"));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        assert_eq!(
            kinds(r#"b"bytes" b'x' br"raw""#),
            vec![TokKind::Str, TokKind::Char, TokKind::Str]
        );
    }

    #[test]
    fn lifetime_vs_char() {
        let t = tokenize(r"fn f<'a>(x: &'a u8) { let c = 'c'; let e = '\n'; }");
        let lifetimes: Vec<_> = t.iter().filter(|t| t.kind == TokKind::Lifetime).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(t.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
    }

    #[test]
    fn raw_identifier() {
        let t = tokenize("r#unsafe");
        assert_eq!(t.len(), 1);
        assert!(t[0].is_ident("unsafe"));
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let t = tokenize("0..n 1.max(2) 1.5e3 0xFF_u64");
        assert!(t.iter().any(|t| t.is_ident("max")));
        assert!(t.iter().any(|t| t.is_ident("n")));
        assert!(t
            .iter()
            .any(|t| t.kind == TokKind::Num && t.text == "1.5e3"));
        assert!(t
            .iter()
            .any(|t| t.kind == TokKind::Num && t.text == "0xFF_u64"));
    }

    #[test]
    fn multiline_string_line_spans() {
        let t = tokenize("let s = \"a\nb\nc\";\nx");
        let s = t.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!((s.line, s.line_end), (1, 3));
        let x = t.iter().find(|t| t.is_ident("x")).unwrap();
        assert_eq!(x.line, 4);
    }
}
