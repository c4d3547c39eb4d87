//! SQL tokenizer.
//!
//! Produces a flat token stream with byte offsets for error reporting.
//! Tokens borrow their text from the source: an identifier is the slice
//! as written, and case folds where names are compared (keywords match
//! case-insensitively, and the parser lower-cases the identifiers it
//! keeps), so lexing allocates only the token list and the string literals
//! that contain a `''` escape. String literals use single quotes with
//! `''` escaping (the SQL standard).

use monetlite_types::{MlError, Result};
use std::borrow::Cow;

/// One lexical token plus its starting byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    /// Token kind and payload.
    pub kind: TokenKind<'a>,
    /// Byte offset in the source (for error messages).
    pub offset: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'a> {
    /// Identifier or keyword, as written: compare it case-insensitively,
    /// or fold it with `to_ascii_lowercase`.
    Ident(&'a str),
    /// Double-quoted identifier (case preserved).
    QuotedIdent(&'a str),
    /// String literal, escapes resolved.
    Str(Cow<'a, str>),
    /// Integer literal (may exceed i32; binder decides width).
    Int(i64),
    /// Decimal literal kept textually exact (e.g. `0.05`).
    Number(&'a str),
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `;`
    Semicolon,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// End of input.
    Eof,
}

impl TokenKind<'_> {
    /// Is this the unquoted identifier or keyword `word` (given in lower
    /// case), in any case?
    pub(crate) fn is_word(&self, word: &str) -> bool {
        matches!(self, TokenKind::Ident(s) if s.eq_ignore_ascii_case(word))
    }
}

/// Tokenize a SQL string.
pub fn tokenize(src: &str) -> Result<Vec<Token<'_>>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                // line comment
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(MlError::parse("unterminated block comment", start));
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            b'\'' => {
                // The literal is the source slice between the quotes; only
                // a `''` escape makes it an owned copy. `'` is ASCII, so
                // every cut falls on a char boundary of the `&str` source.
                let start = i;
                i += 1;
                let mut s: Cow<'_, str> = Cow::Borrowed("");
                let mut from = i;
                loop {
                    let Some(q) = bytes[i..].iter().position(|&b| b == b'\'') else {
                        return Err(MlError::parse("unterminated string literal", start));
                    };
                    i += q;
                    let piece = &src[from..i];
                    if bytes.get(i + 1) == Some(&b'\'') {
                        let owned = s.to_mut();
                        owned.push_str(piece);
                        owned.push('\'');
                        i += 2;
                        from = i;
                    } else {
                        if s.is_empty() {
                            s = Cow::Borrowed(piece);
                        } else {
                            s.to_mut().push_str(piece);
                        }
                        i += 1;
                        break;
                    }
                }
                out.push(Token { kind: TokenKind::Str(s), offset: start });
            }
            b'"' => {
                let start = i;
                let Some(len) = bytes[i + 1..].iter().position(|&b| b == b'"') else {
                    return Err(MlError::parse("unterminated quoted identifier", start));
                };
                i += len + 2;
                out.push(Token {
                    kind: TokenKind::QuotedIdent(&src[start + 1..i - 1]),
                    offset: start,
                });
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let is_decimal = i < bytes.len()
                    && bytes[i] == b'.'
                    && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit());
                if is_decimal {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    out.push(Token { kind: TokenKind::Number(&src[start..i]), offset: start });
                } else {
                    let text = &src[start..i];
                    let v: i64 = text.parse().map_err(|_| {
                        MlError::parse(format!("integer '{text}' too large"), start)
                    })?;
                    out.push(Token { kind: TokenKind::Int(v), offset: start });
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'$')
                {
                    i += 1;
                }
                out.push(Token { kind: TokenKind::Ident(&src[start..i]), offset: start });
            }
            _ => {
                let start = i;
                let (kind, advance) = match c {
                    b',' => (TokenKind::Comma, 1),
                    b'(' => (TokenKind::LParen, 1),
                    b')' => (TokenKind::RParen, 1),
                    b';' => (TokenKind::Semicolon, 1),
                    b'.' => (TokenKind::Dot, 1),
                    b'*' => (TokenKind::Star, 1),
                    b'+' => (TokenKind::Plus, 1),
                    b'-' => (TokenKind::Minus, 1),
                    b'/' => (TokenKind::Slash, 1),
                    b'%' => (TokenKind::Percent, 1),
                    b'=' => (TokenKind::Eq, 1),
                    b'!' if bytes.get(i + 1) == Some(&b'=') => (TokenKind::NotEq, 2),
                    b'<' if bytes.get(i + 1) == Some(&b'>') => (TokenKind::NotEq, 2),
                    b'<' if bytes.get(i + 1) == Some(&b'=') => (TokenKind::LtEq, 2),
                    b'<' => (TokenKind::Lt, 1),
                    b'>' if bytes.get(i + 1) == Some(&b'=') => (TokenKind::GtEq, 2),
                    b'>' => (TokenKind::Gt, 1),
                    other => {
                        return Err(MlError::parse(
                            format!("unexpected character '{}'", other as char),
                            start,
                        ))
                    }
                };
                out.push(Token { kind, offset: start });
                i += advance;
            }
        }
    }
    out.push(Token { kind: TokenKind::Eof, offset: src.len() });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_fold_to_lowercase() {
        // Tokens borrow the text as written; a keyword matches its
        // lower-case spelling in any case.
        let toks = kinds("SELECT a FROM T");
        assert_eq!(toks, vec![Ident("SELECT"), Ident("a"), Ident("FROM"), Ident("T"), Eof]);
        assert!(toks[0].is_word("select") && toks[2].is_word("from"));
        assert!(!toks[1].is_word("select") && !QuotedIdent("select").is_word("select"));
    }

    #[test]
    fn only_an_escaped_literal_is_copied() {
        let toks = kinds("'plain' 'it''s' '' ''''");
        assert!(matches!(&toks[0], Str(Cow::Borrowed("plain"))));
        assert!(matches!(&toks[1], Str(Cow::Owned(s)) if s == "it's"));
        assert!(matches!(&toks[2], Str(Cow::Borrowed(""))));
        assert!(matches!(&toks[3], Str(Cow::Owned(s)) if s == "'"));
    }

    #[test]
    fn numbers_int_and_decimal() {
        assert_eq!(kinds("42 0.05 1.1"), vec![Int(42), Number("0.05"), Number("1.1"), Eof]);
        // `1.` followed by non-digit is Int + Dot (qualified names like t.c).
        assert_eq!(kinds("t.c"), vec![Ident("t"), Dot, Ident("c"), Eof]);
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(kinds("'it''s'"), vec![Str("it's".into()), Eof]);
        assert_eq!(kinds("'ASIA'"), vec![Str("ASIA".into()), Eof]);
        assert!(tokenize("'unterminated").is_err());
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("a <= b <> c >= d != e"),
            vec![
                Ident("a"),
                LtEq,
                Ident("b"),
                NotEq,
                Ident("c"),
                GtEq,
                Ident("d"),
                NotEq,
                Ident("e"),
                Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("select -- hi\n 1 /* block\nmore */ 2"),
            vec![Ident("select"), Int(1), Int(2), Eof]
        );
        assert!(tokenize("/* unterminated").is_err());
    }

    #[test]
    fn quoted_identifiers_preserve_case() {
        assert_eq!(kinds("\"MyCol\""), vec![QuotedIdent("MyCol"), Eof]);
    }

    #[test]
    fn offsets_reported() {
        let toks = tokenize("select x").unwrap();
        assert_eq!(toks[1].offset, 7);
    }

    #[test]
    fn unexpected_char_is_error() {
        assert!(tokenize("select ^").is_err());
    }

    #[test]
    fn unicode_in_strings() {
        assert_eq!(kinds("'héllo — ok'"), vec![Str("héllo — ok".into()), Eof]);
    }
}
