//! Lexer for the `.jir` textual format.
//!
//! Tokens borrow the source: an identifier is a slice of it, and a string
//! literal is one too unless it has escapes to undo. The parser pulls
//! tokens one at a time, so lexing allocates only for escaped strings.

use std::borrow::Cow;
use std::fmt;

/// A lexical token kind, borrowing the source it was lexed from.
#[derive(Clone, PartialEq, Debug)]
pub enum Tok<'src> {
    /// Identifier or keyword (keywords are recognized by the parser).
    Ident(&'src str),
    /// Integer literal.
    Int(i64),
    /// String literal (unescaped; owned only when it had escapes).
    Str(Cow<'src, str>),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Assign,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `!`
    Bang,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(i) => write!(f, "`{i}`"),
            Tok::Str(s) => write!(f, "\"{s}\""),
            Tok::LBrace => f.write_str("`{`"),
            Tok::RBrace => f.write_str("`}`"),
            Tok::LParen => f.write_str("`(`"),
            Tok::RParen => f.write_str("`)`"),
            Tok::LBracket => f.write_str("`[`"),
            Tok::RBracket => f.write_str("`]`"),
            Tok::Semi => f.write_str("`;`"),
            Tok::Colon => f.write_str("`:`"),
            Tok::Comma => f.write_str("`,`"),
            Tok::Dot => f.write_str("`.`"),
            Tok::Assign => f.write_str("`=`"),
            Tok::EqEq => f.write_str("`==`"),
            Tok::NotEq => f.write_str("`!=`"),
            Tok::Lt => f.write_str("`<`"),
            Tok::Le => f.write_str("`<=`"),
            Tok::Gt => f.write_str("`>`"),
            Tok::Ge => f.write_str("`>=`"),
            Tok::Plus => f.write_str("`+`"),
            Tok::Minus => f.write_str("`-`"),
            Tok::Star => f.write_str("`*`"),
            Tok::Slash => f.write_str("`/`"),
            Tok::Percent => f.write_str("`%`"),
            Tok::Amp => f.write_str("`&`"),
            Tok::Pipe => f.write_str("`|`"),
            Tok::Caret => f.write_str("`^`"),
            Tok::Bang => f.write_str("`!`"),
            Tok::Eof => f.write_str("end of input"),
        }
    }
}

/// A token plus its source position.
#[derive(Clone, Debug)]
pub struct Spanned<'src> {
    /// The token.
    pub tok: Tok<'src>,
    /// 1-based line.
    pub line: u32,
    /// 1-based column, counted in characters.
    pub col: u32,
}

/// A lexical error with position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LexError {
    /// Description of the problem.
    pub message: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for LexError {}

/// Bytes that may continue an identifier: `[A-Za-z0-9_$]`.
const IDENT_CONTINUE: [bool; 256] = {
    let mut t = [false; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        t[b] = c.is_ascii_alphanumeric() || c == b'_' || c == b'$';
        b += 1;
    }
    t
};

/// Tokenizes a `.jir` source string.
///
/// Supports `//` line comments and `/* ... */` block comments. The output
/// always ends with a [`Tok::Eof`] token.
///
/// # Errors
///
/// Returns [`LexError`] on unterminated strings/comments, malformed escape
/// sequences, integer overflow, or unexpected characters.
pub fn lex(src: &str) -> Result<Vec<Spanned<'_>>, LexError> {
    let mut lexer = Lexer::new(src);
    let mut out = Vec::new();
    loop {
        let mut tok = Spanned {
            tok: Tok::Eof,
            line: 0,
            col: 0,
        };
        lexer.next_token(&mut tok)?;
        let eof = tok.tok == Tok::Eof;
        out.push(tok);
        if eof {
            return Ok(out);
        }
    }
}

/// A cursor over `.jir` source that yields one token at a time. It is
/// cheap to copy, which is how the parser saves and restores a position.
#[derive(Clone, Copy)]
pub(super) struct Lexer<'src> {
    src: &'src str,
    bytes: &'src [u8],
    /// Byte offset of the next unread byte; always on a character boundary
    /// between tokens.
    i: usize,
    line: u32,
    /// Byte offset where the current line starts.
    line_start: usize,
    /// UTF-8 continuation bytes between `line_start` and `i`, so columns
    /// count characters rather than bytes.
    wide: usize,
}

impl<'src> Lexer<'src> {
    pub(super) fn new(src: &'src str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            i: 0,
            line: 1,
            line_start: 0,
            wide: 0,
        }
    }

    /// Moves the cursor to the end of input, so every later token is
    /// [`Tok::Eof`].
    pub(super) fn stop(&mut self) {
        self.skip_to(self.bytes.len());
    }

    fn col(&self) -> u32 {
        (self.i - self.line_start - self.wide + 1) as u32
    }

    fn error(line: u32, col: u32, message: String) -> LexError {
        LexError { message, line, col }
    }

    /// The character starting at byte `at`, for messages that quote it.
    fn char_at(&self, at: usize) -> char {
        self.src
            .get(at..)
            .and_then(|s| s.chars().next())
            .unwrap_or(char::REPLACEMENT_CHARACTER)
    }

    /// Advances to byte `end`, keeping the line and column current across
    /// the newlines and multi-byte characters in between.
    fn skip_to(&mut self, end: usize) {
        for (k, &b) in self.bytes[self.i..end].iter().enumerate() {
            if b == b'\n' {
                self.line += 1;
                self.line_start = self.i + k + 1;
                self.wide = 0;
            } else if b & 0xc0 == 0x80 {
                self.wide += 1;
            }
        }
        self.i = end;
    }

    /// Lexes the next token into `out`, skipping whitespace and comments.
    /// At the end of input it yields [`Tok::Eof`], as often as it is asked.
    ///
    /// Writing in place keeps the parser's token slots from being copied
    /// whole on every token, which costs more than lexing one.
    #[inline(always)]
    pub(super) fn next_token(&mut self, out: &mut Spanned<'src>) -> Result<(), LexError> {
        let bytes = self.bytes;
        loop {
            let b = loop {
                match bytes.get(self.i) {
                    None => {
                        *out = Spanned {
                            tok: Tok::Eof,
                            line: self.line,
                            col: self.col(),
                        };
                        return Ok(());
                    }
                    Some(b' ' | b'\t' | b'\r') => self.i += 1,
                    Some(b'\n') => {
                        self.i += 1;
                        self.line += 1;
                        self.line_start = self.i;
                        self.wide = 0;
                    }
                    Some(&b) => break b,
                }
            };
            let (line, col) = (self.line, self.col());
            let next = || bytes.get(self.i + 1).copied();
            let tok = match b {
                b'/' if next() == Some(b'/') => {
                    let end = bytes[self.i..]
                        .iter()
                        .position(|&c| c == b'\n')
                        .map_or(bytes.len(), |k| self.i + k);
                    self.skip_to(end);
                    continue;
                }
                b'/' if next() == Some(b'*') => {
                    let body = self.i + 2;
                    let Some(k) = bytes[body..].windows(2).position(|w| w == b"*/") else {
                        return Err(Self::error(line, col, "unterminated block comment".into()));
                    };
                    self.skip_to(body + k + 2);
                    continue;
                }
                b'"' => self.string(line, col)?,
                b'0'..=b'9' => {
                    let start = self.i;
                    while bytes.get(self.i).is_some_and(u8::is_ascii_digit) {
                        self.i += 1;
                    }
                    let text = &self.src[start..self.i];
                    let v: i64 = text.parse().map_err(|_| {
                        Self::error(line, col, format!("integer `{text}` out of range"))
                    })?;
                    Tok::Int(v)
                }
                b'A'..=b'Z' | b'a'..=b'z' | b'_' | b'$' => {
                    let start = self.i;
                    self.i += 1;
                    while bytes
                        .get(self.i)
                        .is_some_and(|&c| IDENT_CONTINUE[c as usize])
                    {
                        self.i += 1;
                    }
                    Tok::Ident(&self.src[start..self.i])
                }
                _ => {
                    let (tok, len) = match (b, next()) {
                        (b'=', Some(b'=')) => (Tok::EqEq, 2),
                        (b'!', Some(b'=')) => (Tok::NotEq, 2),
                        (b'<', Some(b'=')) => (Tok::Le, 2),
                        (b'>', Some(b'=')) => (Tok::Ge, 2),
                        (b'{', _) => (Tok::LBrace, 1),
                        (b'}', _) => (Tok::RBrace, 1),
                        (b'(', _) => (Tok::LParen, 1),
                        (b')', _) => (Tok::RParen, 1),
                        (b'[', _) => (Tok::LBracket, 1),
                        (b']', _) => (Tok::RBracket, 1),
                        (b';', _) => (Tok::Semi, 1),
                        (b':', _) => (Tok::Colon, 1),
                        (b',', _) => (Tok::Comma, 1),
                        (b'.', _) => (Tok::Dot, 1),
                        (b'=', _) => (Tok::Assign, 1),
                        (b'<', _) => (Tok::Lt, 1),
                        (b'>', _) => (Tok::Gt, 1),
                        (b'+', _) => (Tok::Plus, 1),
                        (b'-', _) => (Tok::Minus, 1),
                        (b'*', _) => (Tok::Star, 1),
                        (b'/', _) => (Tok::Slash, 1),
                        (b'%', _) => (Tok::Percent, 1),
                        (b'&', _) => (Tok::Amp, 1),
                        (b'|', _) => (Tok::Pipe, 1),
                        (b'^', _) => (Tok::Caret, 1),
                        (b'!', _) => (Tok::Bang, 1),
                        _ => {
                            let c = self.char_at(self.i);
                            return Err(Self::error(
                                line,
                                col,
                                format!("unexpected character `{c}`"),
                            ));
                        }
                    };
                    self.i += len;
                    tok
                }
            };
            *out = Spanned { tok, line, col };
            return Ok(());
        }
    }

    /// Lexes a string literal whose opening quote is at `self.i` and at
    /// `(line, col)`. Borrows the text when it has no escapes.
    fn string(&mut self, line: u32, col: u32) -> Result<Tok<'src>, LexError> {
        let bytes = self.bytes;
        let unterminated = || Self::error(line, col, "unterminated string literal".into());
        let start = self.i + 1;
        // The end of the run of plain characters from `from`.
        let plain_end = |from: usize| {
            bytes[from..]
                .iter()
                .position(|&c| matches!(c, b'"' | b'\\' | b'\n'))
                .map_or(bytes.len(), |k| from + k)
        };
        let end = plain_end(start);
        if bytes.get(end) == Some(&b'"') {
            self.skip_to(end + 1);
            return Ok(Tok::Str(Cow::Borrowed(&self.src[start..end])));
        }
        let mut s = String::from(&self.src[start..end]);
        self.skip_to(end);
        loop {
            match bytes.get(self.i) {
                None | Some(b'\n') => return Err(unterminated()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(Tok::Str(Cow::Owned(s)));
                }
                Some(b'\\') => {
                    self.i += 1;
                    let Some(&e) = bytes.get(self.i) else {
                        return Err(unterminated());
                    };
                    s.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        b'\\' => '\\',
                        b'"' => '"',
                        _ => {
                            let c = self.char_at(self.i);
                            return Err(Self::error(
                                self.line,
                                self.col(),
                                format!("bad escape `\\{c}`"),
                            ));
                        }
                    });
                    self.i += 1;
                }
                Some(_) => {
                    let end = plain_end(self.i);
                    s.push_str(&self.src[self.i..end]);
                    self.skip_to(end);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("class Foo { }"),
            vec![
                Tok::Ident("class"),
                Tok::Ident("Foo"),
                Tok::LBrace,
                Tok::RBrace,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("== != <= >= < > = ! + - * / % & | ^"),
            vec![
                Tok::EqEq,
                Tok::NotEq,
                Tok::Le,
                Tok::Ge,
                Tok::Lt,
                Tok::Gt,
                Tok::Assign,
                Tok::Bang,
                Tok::Plus,
                Tok::Minus,
                Tok::Star,
                Tok::Slash,
                Tok::Percent,
                Tok::Amp,
                Tok::Pipe,
                Tok::Caret,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("a // line\n b /* block\n spanning */ c"),
            vec![Tok::Ident("a"), Tok::Ident("b"), Tok::Ident("c"), Tok::Eof]
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            toks(r#""a\nb\"c\\""#),
            vec![Tok::Str("a\nb\"c\\".into()), Tok::Eof]
        );
    }

    #[test]
    fn numbers_and_idents_with_dollar() {
        assert_eq!(
            toks("x1 $tmp 42"),
            vec![Tok::Ident("x1"), Tok::Ident("$tmp"), Tok::Int(42), Tok::Eof]
        );
    }

    #[test]
    fn positions_tracked() {
        let ts = lex("a\n  b").unwrap();
        assert_eq!((ts[0].line, ts[0].col), (1, 1));
        assert_eq!((ts[1].line, ts[1].col), (2, 3));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"abc").is_err());
        assert!(lex("\"abc\ndef\"").is_err());
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(lex("/* abc").is_err());
    }

    #[test]
    fn bad_escape_errors() {
        assert!(lex(r#""\q""#).is_err());
    }

    #[test]
    fn unexpected_char_errors() {
        assert!(lex("#").is_err());
    }

    #[test]
    fn huge_integer_errors() {
        assert!(lex("999999999999999999999999999").is_err());
    }

    #[test]
    fn plain_strings_borrow_the_source() {
        let ts = toks(r#""plain" "é\t""#);
        assert!(matches!(&ts[0], Tok::Str(Cow::Borrowed("plain"))));
        assert!(matches!(&ts[1], Tok::Str(Cow::Owned(s)) if s == "é\t"));
    }

    #[test]
    fn columns_count_characters() {
        let ts = lex("\"é\" a /* ü\n ö */ b // ß").unwrap();
        assert_eq!((ts[1].line, ts[1].col), (1, 5));
        assert_eq!((ts[2].line, ts[2].col), (2, 7));
        assert_eq!((ts[3].line, ts[3].col), (2, 13), "end of input");
    }

    #[test]
    fn unterminated_escapes_and_comments_error() {
        assert!(lex("\"a\\").is_err());
        assert!(lex("\"a\\n").is_err());
        assert!(lex("/*/").is_err());
        assert!(lex("/**/").is_ok());
    }

    #[test]
    fn bad_escape_quotes_the_whole_character() {
        let e = lex("\"\\é\"").unwrap_err();
        assert_eq!((e.message.as_str(), e.col), ("bad escape `\\é`", 3));
    }
}
