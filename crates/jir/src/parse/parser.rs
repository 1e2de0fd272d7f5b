//! Recursive-descent parser for the `.jir` textual format.
//!
//! The grammar mirrors Jimple where practical. See the crate-level docs for
//! a walkthrough and `printer.rs` for the exact concrete syntax (the printer
//! and parser round-trip).

use super::lexer::{lex, LexError, Lexer, Spanned, Tok};
use crate::body::{Body, LocalDecl};
use crate::flags::{ClassFlags, FieldFlags, MethodFlags};
use crate::intern::FxBuildHasher;
use crate::program::{Class, Field, Method, Program, ProgramError};
use crate::stmt::{
    Call, CmpOp, Cond, Const, Expr, FieldRef, FieldTarget, InvokeKind, LocalId, MethodRef, Operand,
    Stmt,
};
use crate::types::Type;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

/// A parse error with source position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Description of the problem.
    pub message: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
            col: e.col,
        }
    }
}

/// Parses `.jir` source text into a fresh [`Program`].
///
/// # Errors
///
/// Returns [`ParseError`] on lexical or syntactic problems and on semantic
/// ones caught at assembly time (duplicate classes/members, malformed
/// bodies), with the position of the offending construct where available.
///
/// # Examples
///
/// ```
/// let src = r#"
/// class demo.C {
///   method public static int answer() {
///     local int x;
///     x = 42;
///     return x;
///   }
/// }
/// "#;
/// let program = spo_jir::parse_program(src)?;
/// assert_eq!(program.class_count(), 1);
/// # Ok::<(), spo_jir::ParseError>(())
/// ```
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut program = Program::new();
    parse_into(src, &mut program)?;
    Ok(program)
}

/// Parses `.jir` source text, adding its classes to an existing program.
///
/// Used to layer a library implementation on top of a shared runtime
/// prelude.
///
/// # Errors
///
/// See [`parse_program`].
pub fn parse_into(src: &str, program: &mut Program) -> Result<(), ParseError> {
    let before = program.len_mark();
    let mut p = Parser::new(src, program);
    let parsed = p.parse_classes();
    // A lexical error anywhere drops the whole file, as if the file had
    // been tokenized before parsing began.
    if let Some(e) = p.take_lex_error() {
        p.program.truncate_to(before);
        return Err(e.into());
    }
    parsed.map_err(|e| *e)
}

/// Like [`parse_into`], recording parse metrics into `rec`: a `jir.parse`
/// span plus `jir.parse.bytes`/`.classes`/`.methods`/`.stmts` counters
/// covering what this call added to `program`. Parsing is deterministic
/// and serial, so these land in the deterministic `counters` section.
///
/// # Errors
///
/// See [`parse_program`].
pub fn parse_into_traced(
    src: &str,
    program: &mut Program,
    rec: &spo_obs::Recorder,
) -> Result<(), ParseError> {
    let size = |p: &Program| (p.class_count(), p.all_methods().count(), p.stmt_count());
    let _span = rec.span("jir.parse");
    let (classes0, methods0, stmts0) = size(program);
    parse_into(src, program)?;
    let (classes1, methods1, stmts1) = size(program);
    rec.counter("jir.parse.bytes").add(src.len() as u64);
    rec.counter("jir.parse.classes")
        .add((classes1 - classes0) as u64);
    rec.counter("jir.parse.methods")
        .add((methods1 - methods0) as u64);
    rec.counter("jir.parse.stmts").add((stmts1 - stmts0) as u64);
    Ok(())
}

/// One recovered-from parse problem: what went wrong, where, and which
/// syntactic unit was dropped to move past it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseDiagnostic {
    /// Description of the problem.
    pub message: String,
    /// 1-based line of the offending construct.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The unit dropped to recover: `field`, `method`, `class`,
    /// `` class `N` ``, or `file`.
    pub dropped: String,
}

impl fmt::Display for ParseDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} (dropped {})",
            self.line, self.col, self.message, self.dropped
        )
    }
}

/// The outcome of a recovering parse: every problem encountered, in source
/// order. Empty means the input parsed cleanly.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Recovery {
    /// Recovered-from problems, in source order.
    pub diagnostics: Vec<ParseDiagnostic>,
}

impl Recovery {
    /// Returns `true` if the input parsed without dropping anything.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Parses `.jir` source with error recovery, adding what parses to
/// `program` and collecting a [`ParseDiagnostic`] per problem instead of
/// bailing on the first error.
///
/// Recovery granularity: a malformed field or method body drops only that
/// member (resynchronizing on `;` / balanced braces); a malformed class
/// header, duplicate class, or unclosed class body drops that class
/// (resynchronizing on the next top-level `class`/`interface`); a lexical
/// error drops the whole file. Everything that does parse is added, so one
/// corrupt file in a library-scale corpus degrades — never aborts — the
/// load.
pub fn parse_into_recovering(src: &str, program: &mut Program) -> Recovery {
    let before = program.len_mark();
    let mut recovery = Recovery::default();
    let mut p = Parser::new(src, program);
    while !p.at_eof() {
        let start = p.mark();
        match p.parse_class_with(Some(&mut recovery)) {
            Ok(class) => {
                let name = class.name;
                let (line, col) = p.here();
                if let Err(e) = p.program.add_class(class) {
                    recovery.diagnostics.push(ParseDiagnostic {
                        message: e.to_string(),
                        line,
                        col,
                        dropped: format!("class `{}`", p.program.str(name)),
                    });
                }
            }
            Err(e) => {
                recovery.diagnostics.push(ParseDiagnostic {
                    message: e.message,
                    line: e.line,
                    col: e.col,
                    dropped: "class".to_owned(),
                });
                p.recover_to_class(start);
            }
        }
    }
    // A lexical error drops the whole file, and with it every diagnostic
    // about the parse of what came before it.
    if let Some(e) = p.take_lex_error() {
        p.program.truncate_to(before);
        recovery.diagnostics = vec![ParseDiagnostic {
            message: e.message,
            line: e.line,
            col: e.col,
            dropped: "file".to_owned(),
        }];
    }
    recovery
}

/// Like [`parse_into_recovering`], recording the same parse metrics as
/// [`parse_into_traced`] plus a `jir.parse.recovered` counter and one
/// `diagnostics` record per dropped unit. Parsing is deterministic and
/// serial, so the counters land in the deterministic section.
pub fn parse_into_recovering_traced(
    src: &str,
    program: &mut Program,
    rec: &spo_obs::Recorder,
) -> Recovery {
    let size = |p: &Program| (p.class_count(), p.all_methods().count(), p.stmt_count());
    let _span = rec.span("jir.parse");
    let (classes0, methods0, stmts0) = size(program);
    let recovery = parse_into_recovering(src, program);
    let (classes1, methods1, stmts1) = size(program);
    rec.counter("jir.parse.bytes").add(src.len() as u64);
    rec.counter("jir.parse.classes")
        .add((classes1 - classes0) as u64);
    rec.counter("jir.parse.methods")
        .add((methods1 - methods0) as u64);
    rec.counter("jir.parse.stmts").add((stmts1 - stmts0) as u64);
    rec.counter("jir.parse.recovered")
        .add(recovery.diagnostics.len() as u64);
    for d in &recovery.diagnostics {
        rec.diagnostic(
            "error",
            "parse",
            &format!("{}:{}", d.line, d.col),
            "parse",
            &format!("{} (dropped {})", d.message, d.dropped),
        );
    }
    recovery
}

/// The parser's internal result. Boxing the error keeps `Err` one word
/// wide, so the `?` after every token stays cheap.
type PResult<T> = Result<T, Box<ParseError>>;

/// A recursive-descent parser pulling tokens from a [`Lexer`] one at a
/// time, with one token of lookahead.
struct Parser<'src, 'p> {
    src: &'src str,
    /// Positioned just past the lookahead token.
    lexer: Lexer<'src>,
    /// The current token and the one after it: `toks[at]` and
    /// `toks[at ^ 1]`. Moving on refills the current one's slot in place.
    toks: [Spanned<'src>; 2],
    at: usize,
    /// The first lexical error met. The token stream ends there, and the
    /// caller drops whatever the file added (see
    /// [`Parser::take_lex_error`]).
    lex_error: Option<LexError>,
    program: &'p mut Program,
    /// The method being parsed's tables, cleared and kept between methods
    /// so their allocations are reused.
    scope: LocalScope<'src>,
    body: StmtParser<'src>,
    /// The class being parsed's members, likewise reused.
    fields: Vec<Field>,
    methods: Vec<Method>,
    /// Reused to join a dotted name whose tokens are not adjacent in the
    /// source (whitespace or a comment around a dot).
    joined: String,
}

/// A saved parser position to rewind to when recovering from an error.
struct Mark<'src> {
    lexer: Lexer<'src>,
    toks: [Spanned<'src>; 2],
    at: usize,
}

/// A dotted name `ident (. ident)*` already consumed.
#[derive(Clone, Copy)]
struct Dotted<'src> {
    /// The source from the start of the first segment to the end of the
    /// last.
    text: &'src str,
    first: &'src str,
    last: &'src str,
    segments: usize,
    /// Length of `text` up to the end of the second-to-last segment.
    init_len: usize,
    /// Whether the segments and dots sit back to back, so that `text` is
    /// the name itself.
    adjacent: bool,
}

impl<'src> Dotted<'src> {
    /// The whole name.
    fn name(self) -> (&'src str, bool) {
        (self.text, self.adjacent)
    }

    /// The name without its last segment; only for two or more segments.
    fn init(self) -> (&'src str, bool) {
        (&self.text[..self.init_len], self.adjacent)
    }
}

#[derive(Default)]
struct LocalScope<'src> {
    by_name: HashMap<&'src str, (LocalId, Type), FxBuildHasher>,
    decls: Vec<LocalDecl>,
}

impl<'src> LocalScope<'src> {
    fn add(&mut self, name: &'src str, sym: crate::Symbol, ty: Type) -> Option<LocalId> {
        let id = LocalId(self.decls.len() as u32);
        match self.by_name.entry(name) {
            Entry::Occupied(_) => None,
            Entry::Vacant(slot) => {
                slot.insert((id, ty.clone()));
                self.decls.push(LocalDecl { name: sym, ty });
                Some(id)
            }
        }
    }

    fn get(&self, name: &str) -> Option<&(LocalId, Type)> {
        self.by_name.get(name)
    }
}

impl<'src, 'p> Parser<'src, 'p> {
    fn new(src: &'src str, program: &'p mut Program) -> Self {
        let eof = Spanned {
            tok: Tok::Eof,
            line: 1,
            col: 1,
        };
        let mut p = Parser {
            src,
            lexer: Lexer::new(src),
            toks: [eof.clone(), eof],
            at: 0,
            lex_error: None,
            program,
            scope: LocalScope::default(),
            body: StmtParser::default(),
            fields: Vec::new(),
            methods: Vec::new(),
            joined: String::new(),
        };
        p.bump();
        p.bump();
        p
    }

    /// Lexes the next token into `toks[slot]`. A lexical error is recorded
    /// and ends the stream: from there on every token is end of input.
    fn pull(&mut self, slot: usize) {
        if let Err(e) = self.lexer.next_token(&mut self.toks[slot]) {
            self.toks[slot] = Spanned {
                tok: Tok::Eof,
                line: e.line,
                col: e.col,
            };
            self.lex_error.get_or_insert(e);
            self.lexer.stop();
        }
    }

    /// The file's first lexical error, if it has one. Lexes whatever the
    /// parse left unread, so that, as when a file was tokenized whole
    /// before parsing, a lexical error anywhere beats a syntax error.
    fn take_lex_error(&mut self) -> Option<LexError> {
        while self.lex_error.is_none() && !self.at_eof() {
            self.bump();
        }
        self.lex_error.take()
    }

    fn mark(&self) -> Mark<'src> {
        Mark {
            lexer: self.lexer,
            toks: [self.toks[0].clone(), self.toks[1].clone()],
            at: self.at,
        }
    }

    fn reset(&mut self, mark: Mark<'src>) {
        self.lexer = mark.lexer;
        self.toks = mark.toks;
        self.at = mark.at;
    }

    fn here(&self) -> (u32, u32) {
        let cur = &self.toks[self.at];
        (cur.line, cur.col)
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        let (line, col) = self.here();
        Err(Box::new(ParseError {
            message: msg.into(),
            line,
            col,
        }))
    }

    fn peek(&self) -> &Tok<'src> {
        &self.toks[self.at].tok
    }

    fn peek2(&self) -> &Tok<'src> {
        &self.toks[self.at ^ 1].tok
    }

    /// The identifier (or keyword) at the cursor, if that is one.
    fn peek_ident(&self) -> Option<&'src str> {
        match *self.peek() {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Moves to the next token; at end of input, stays there.
    fn bump(&mut self) {
        let done = self.at;
        self.at ^= 1;
        self.pull(done);
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    /// Consumes `tok`, a punctuation token, or fails naming it.
    fn expect_tok(&mut self, tok: &Tok<'_>) -> PResult<()> {
        if std::mem::discriminant(self.peek()) == std::mem::discriminant(tok) {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {tok}, found {}", self.peek()))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> PResult<()> {
        if self.at_kw(kw) {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected `{kw}`, found {}", self.peek()))
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        self.peek_ident() == Some(kw)
    }

    fn ident(&mut self) -> PResult<&'src str> {
        match self.peek_ident() {
            Some(s) => {
                self.bump();
                Ok(s)
            }
            None => self.err(format!("expected identifier, found {}", self.peek())),
        }
    }

    /// Dotted qualified name: `ident (. ident)*`.
    fn qname(&mut self) -> PResult<Dotted<'src>> {
        let first = self.ident()?;
        self.qname_after(first)
    }

    /// The rest of a dotted name whose first segment, `first`, was just
    /// consumed.
    fn qname_after(&mut self, first: &'src str) -> PResult<Dotted<'src>> {
        let start = self.offset(first);
        let (mut last, mut segments, mut init_end) = (first, 1, start);
        let mut adjacent = true;
        while matches!(self.peek(), Tok::Dot) {
            self.bump();
            let seg = self.ident()?;
            let end = self.offset(last) + last.len();
            // One byte between two segments can only be the dot.
            adjacent &= self.offset(seg) == end + 1;
            (init_end, last, segments) = (end, seg, segments + 1);
        }
        Ok(Dotted {
            text: &self.src[start..self.offset(last) + last.len()],
            first,
            last,
            segments,
            init_len: init_end - start,
            adjacent,
        })
    }

    /// Byte offset of `s`, a slice of the source, within it.
    fn offset(&self, s: &str) -> usize {
        s.as_ptr() as usize - self.src.as_ptr() as usize
    }

    /// Joins the segments of a dotted name's source `text` into `out`,
    /// dropping the whitespace and comments around its dots.
    fn join_segments(text: &'src str, out: &mut String) {
        out.clear();
        for seg in lex(text).iter().flatten().filter_map(|t| match t.tok {
            Tok::Ident(seg) => Some(seg),
            _ => None,
        }) {
            if !out.is_empty() {
                out.push('.');
            }
            out.push_str(seg);
        }
    }

    /// Interns a dotted name from [`Dotted::name`] or [`Dotted::init`].
    /// When its tokens sit next to each other in the source, the source
    /// slice *is* the name; otherwise the segments are joined in a reused
    /// buffer.
    fn intern_dotted(&mut self, (text, adjacent): (&'src str, bool)) -> crate::Symbol {
        if adjacent {
            return self.program.intern(text);
        }
        Self::join_segments(text, &mut self.joined);
        self.program.intern(&self.joined)
    }

    /// A dotted name as text, for messages.
    fn dotted_text(&self, name: Dotted<'src>) -> String {
        let mut out = String::new();
        Self::join_segments(name.text, &mut out);
        out
    }

    fn parse_type(&mut self) -> PResult<Type> {
        let Some(word) = self.peek_ident() else {
            return self.err(format!("expected type, found {}", self.peek()));
        };
        let primitive = match word {
            "void" => Some(Type::Void),
            "bool" | "boolean" => Some(Type::Bool),
            "int" | "byte" | "short" | "char" => Some(Type::Int),
            "long" => Some(Type::Long),
            "float" => Some(Type::Float),
            "double" => Some(Type::Double),
            _ => None,
        };
        let mut ty = match primitive {
            Some(ty) => {
                self.bump();
                ty
            }
            None => {
                let name = self.qname()?;
                Type::Ref(self.intern_dotted(name.name()))
            }
        };
        while matches!(self.peek(), Tok::LBracket) && matches!(self.peek2(), Tok::RBracket) {
            self.bump();
            self.bump();
            ty = Type::Array(Box::new(ty));
        }
        Ok(ty)
    }

    /// Parses classes to the end of input, adding each to the program and
    /// stopping at the first error.
    fn parse_classes(&mut self) -> PResult<()> {
        while !self.at_eof() {
            let class = self.parse_class_with(None)?;
            let (line, col) = self.here();
            self.program.add_class(class).map_err(|e: ProgramError| {
                Box::new(ParseError {
                    message: e.to_string(),
                    line,
                    col,
                })
            })?;
        }
        Ok(())
    }

    /// Skips past a malformed class member, leaving the class's own closing
    /// `}` unconsumed. The member ends at a `;` at brace depth 0 (field or
    /// abstract method), or at the `}` that closes the member's first brace
    /// block (method body). Always consumes at least one token unless at
    /// end of input, so recovery makes progress on arbitrary garbage.
    fn skip_member(&mut self) {
        let mut depth = 0usize;
        let mut consumed = 0usize;
        loop {
            match self.peek() {
                Tok::Eof => return,
                Tok::Semi if depth == 0 => {
                    self.bump();
                    return;
                }
                Tok::LBrace => {
                    depth += 1;
                    self.bump();
                    consumed += 1;
                }
                Tok::RBrace => {
                    if depth == 0 {
                        // The class's closing brace; leave it for the
                        // member loop. `consumed` is always >= 1 here
                        // because the loop guard excludes `}` as a
                        // member's first token.
                        debug_assert!(consumed >= 1);
                        return;
                    }
                    depth -= 1;
                    self.bump();
                    consumed += 1;
                    if depth == 0 {
                        return;
                    }
                }
                _ => {
                    self.bump();
                    consumed += 1;
                }
            }
        }
    }

    /// Resynchronizes after a failed class parse: rewinds to `start` and
    /// skips forward to the next top-level `class`/`interface` keyword
    /// (brace depth 0) or end of input, consuming at least one token.
    fn recover_to_class(&mut self, start: Mark<'src>) {
        self.reset(start);
        let mut depth = 0usize;
        let mut first = true;
        loop {
            if self.at_eof() {
                return;
            }
            if !first && depth == 0 && (self.at_kw("class") || self.at_kw("interface")) {
                return;
            }
            match self.peek() {
                Tok::LBrace => depth += 1,
                Tok::RBrace => depth = depth.saturating_sub(1),
                _ => {}
            }
            self.bump();
            first = false;
        }
    }

    /// Parses a comma-separated list of dotted names, interning each.
    fn parse_names(&mut self, into: &mut Vec<crate::Symbol>) -> PResult<()> {
        loop {
            let name = self.qname()?;
            into.push(self.intern_dotted(name.name()));
            if matches!(self.peek(), Tok::Comma) {
                self.bump();
            } else {
                return Ok(());
            }
        }
    }

    /// Parses one class. With `recovery` set, a malformed member records a
    /// diagnostic and drops only that member (resynchronizing on `;` /
    /// balanced braces); header and class-assembly errors still propagate
    /// so the caller can drop the whole class.
    fn parse_class_with(&mut self, mut recovery: Option<&mut Recovery>) -> PResult<Class> {
        let is_interface = match self.peek_ident() {
            Some("class") => false,
            Some("interface") => true,
            _ => {
                return self.err(format!(
                    "expected `class` or `interface`, found {}",
                    self.peek()
                ))
            }
        };
        self.bump();
        let mut flags = ClassFlags::PUBLIC;
        if is_interface {
            flags |= ClassFlags::INTERFACE | ClassFlags::ABSTRACT;
        }
        // Optional modifiers between keyword and name.
        loop {
            match self.peek_ident() {
                Some("final") => flags |= ClassFlags::FINAL,
                Some("abstract") => flags |= ClassFlags::ABSTRACT,
                _ => break,
            }
            self.bump();
        }
        let qname = self.qname()?;
        let name = self.intern_dotted(qname.name());
        let mut superclass = if is_interface || self.program.str(name) == "java.lang.Object" {
            None
        } else {
            Some(self.program.intern("java.lang.Object"))
        };
        let mut interfaces = Vec::new();
        if self.at_kw("extends") {
            self.bump();
            if is_interface {
                self.parse_names(&mut interfaces)?;
            } else {
                let n = self.qname()?;
                superclass = Some(self.intern_dotted(n.name()));
            }
        }
        if self.at_kw("implements") {
            self.bump();
            self.parse_names(&mut interfaces)?;
        }
        self.expect_tok(&Tok::LBrace)?;
        // A class dropped part way leaves members behind.
        self.fields.clear();
        self.methods.clear();
        while !matches!(self.peek(), Tok::RBrace | Tok::Eof) {
            let member_start = self.mark();
            let kind = self.peek_ident();
            let outcome = match kind {
                Some("field") => self.parse_field().map(|f| self.fields.push(f)),
                Some("method") => self.parse_method(name).map(|m| self.methods.push(m)),
                _ => self.err(format!(
                    "expected `field` or `method`, found {}",
                    self.peek()
                )),
            };
            if let Err(e) = outcome {
                match recovery.as_deref_mut() {
                    Some(rec) => {
                        let dropped = match kind {
                            Some("field") => "field",
                            Some("method") => "method",
                            _ => "member",
                        };
                        rec.diagnostics.push(ParseDiagnostic {
                            message: e.message,
                            line: e.line,
                            col: e.col,
                            dropped: dropped.to_owned(),
                        });
                        self.reset(member_start);
                        self.skip_member();
                    }
                    None => return Err(e),
                }
            }
        }
        self.expect_tok(&Tok::RBrace)?;
        // Draining sizes the class's vectors exactly and keeps the
        // scratch allocations for the next class.
        Ok(Class {
            name,
            superclass,
            interfaces,
            flags,
            fields: self.fields.drain(..).collect(),
            methods: self.methods.drain(..).collect(),
        })
    }

    fn parse_field(&mut self) -> PResult<Field> {
        self.expect_kw("field")?;
        let mut flags = FieldFlags::empty();
        loop {
            match self.peek_ident() {
                Some("public") => flags |= FieldFlags::PUBLIC,
                Some("protected") => flags |= FieldFlags::PROTECTED,
                Some("private") => flags |= FieldFlags::PRIVATE,
                Some("static") => flags |= FieldFlags::STATIC,
                Some("final") => flags |= FieldFlags::FINAL,
                _ => break,
            }
            self.bump();
        }
        let ty = self.parse_type()?;
        let name = self.ident()?;
        let name = self.program.intern(name);
        self.expect_tok(&Tok::Semi)?;
        Ok(Field { name, ty, flags })
    }

    fn parse_method(&mut self, class_name: crate::Symbol) -> PResult<Method> {
        let mut scope = std::mem::take(&mut self.scope);
        let mut body = std::mem::take(&mut self.body);
        let method = self.parse_method_in(class_name, &mut scope, &mut body);
        scope.by_name.clear();
        scope.decls.clear();
        body.stmts.clear();
        body.labels.clear();
        body.fixups.clear();
        (self.scope, self.body) = (scope, body);
        method
    }

    /// [`Parser::parse_method`] with its tables, empty on entry.
    fn parse_method_in(
        &mut self,
        class_name: crate::Symbol,
        scope: &mut LocalScope<'src>,
        st: &mut StmtParser<'src>,
    ) -> PResult<Method> {
        self.expect_kw("method")?;
        let mut flags = MethodFlags::empty();
        loop {
            match self.peek_ident() {
                Some("public") => flags |= MethodFlags::PUBLIC,
                Some("protected") => flags |= MethodFlags::PROTECTED,
                Some("private") => flags |= MethodFlags::PRIVATE,
                Some("static") => flags |= MethodFlags::STATIC,
                Some("final") => flags |= MethodFlags::FINAL,
                Some("native") => flags |= MethodFlags::NATIVE,
                Some("abstract") => flags |= MethodFlags::ABSTRACT,
                Some("synchronized") => flags |= MethodFlags::SYNCHRONIZED,
                _ => break,
            }
            self.bump();
        }
        let ret = self.parse_type()?;
        let name = self.ident()?;
        let name = self.program.intern(name);
        self.expect_tok(&Tok::LParen)?;
        if !flags.contains(MethodFlags::STATIC) {
            let this = self.program.intern("this");
            scope.add("this", this, Type::Ref(class_name));
        }
        let first_param = scope.decls.len();
        if !matches!(self.peek(), Tok::RParen) {
            loop {
                let ty = self.parse_type()?;
                let pname = self.ident()?;
                let sym = self.program.intern(pname);
                if scope.add(pname, sym, ty).is_none() {
                    return self.err(format!("duplicate parameter `{pname}`"));
                }
                if matches!(self.peek(), Tok::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect_tok(&Tok::RParen)?;
        let n_params = scope.decls.len();
        let params: Vec<Type> = scope.decls[first_param..]
            .iter()
            .map(|d| d.ty.clone())
            .collect();
        if matches!(self.peek(), Tok::Semi) {
            self.bump();
            if !flags.contains(MethodFlags::NATIVE) && !flags.contains(MethodFlags::ABSTRACT) {
                return self.err("body-less method must be `native` or `abstract`");
            }
            return Ok(Method {
                name,
                params,
                ret,
                flags,
                body: None,
            });
        }
        let body = self.parse_body(scope, st, n_params)?;
        Ok(Method {
            name,
            params,
            ret,
            flags,
            body: Some(body),
        })
    }

    fn parse_body(
        &mut self,
        scope: &mut LocalScope<'src>,
        st: &mut StmtParser<'src>,
        n_params: usize,
    ) -> PResult<Body> {
        self.expect_tok(&Tok::LBrace)?;
        // Local declarations first.
        while self.at_kw("local") {
            self.bump();
            let ty = self.parse_type()?;
            loop {
                let lname = self.ident()?;
                let sym = self.program.intern(lname);
                if scope.add(lname, sym, ty.clone()).is_none() {
                    return self.err(format!("duplicate local `{lname}`"));
                }
                if matches!(self.peek(), Tok::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
            self.expect_tok(&Tok::Semi)?;
        }
        while !matches!(self.peek(), Tok::RBrace) {
            self.parse_stmt(scope, st)?;
        }
        self.expect_tok(&Tok::RBrace)?;
        // Resolve label fixups.
        for &(idx, lname, line, col) in &st.fixups {
            let Some(&target) = st.labels.get(lname) else {
                return Err(Box::new(ParseError {
                    message: format!("undefined label `{lname}`"),
                    line,
                    col,
                }));
            };
            match &mut st.stmts[idx] {
                Stmt::If { target: t, .. } | Stmt::Goto { target: t } => *t = target,
                other => unreachable!("fixup on {other:?}"),
            }
        }
        // Pad for labels bound at end-of-body and for implicit void return.
        let end = st.stmts.len();
        let needs_pad = st.stmts.iter().any(
            |s| matches!(s, Stmt::If { target, .. } | Stmt::Goto { target } if *target == end),
        ) || st.stmts.last().is_none_or(|s| !s.is_terminator());
        if needs_pad {
            st.stmts.push(Stmt::Return { value: None });
        }
        // Draining into fresh vectors sizes them exactly and keeps the
        // tables' allocations for the next method.
        Ok(Body {
            locals: scope.decls.drain(..).collect(),
            n_params,
            stmts: st.stmts.drain(..).collect(),
        })
    }

    /// Parses `goto LABEL`'s label and records the fixup for `stmt`, the
    /// branch being pushed, whose target is patched once labels are known.
    fn branch(&mut self, st: &mut StmtParser<'src>, stmt: Stmt) -> PResult<()> {
        let lname = self.ident()?;
        let (line, col) = self.here();
        st.fixups.push((st.stmts.len(), lname, line, col));
        st.stmts.push(stmt);
        self.expect_tok(&Tok::Semi)
    }

    fn parse_stmt(&mut self, scope: &LocalScope<'src>, st: &mut StmtParser<'src>) -> PResult<()> {
        let word = self.peek_ident();
        // Label binding: IDENT ':'
        if let (Some(lname), Tok::Colon) = (word, self.peek2()) {
            self.bump();
            self.bump(); // colon
            if st.labels.insert(lname, st.stmts.len()).is_some() {
                return self.err(format!("label `{lname}` bound twice"));
            }
            return Ok(());
        }
        let simple = match word {
            Some("nop") => Some(Stmt::Nop),
            Some("enterpriv") => Some(Stmt::EnterPriv),
            Some("exitpriv") => Some(Stmt::ExitPriv),
            _ => None,
        };
        if let Some(stmt) = simple {
            self.bump();
            self.expect_tok(&Tok::Semi)?;
            st.stmts.push(stmt);
            return Ok(());
        }
        match word {
            Some("privileged") => {
                self.bump();
                self.expect_tok(&Tok::LBrace)?;
                st.stmts.push(Stmt::EnterPriv);
                while !matches!(self.peek(), Tok::RBrace) {
                    self.parse_stmt(scope, st)?;
                }
                self.expect_tok(&Tok::RBrace)?;
                st.stmts.push(Stmt::ExitPriv);
                return Ok(());
            }
            Some("goto") => {
                self.bump();
                return self.branch(st, Stmt::Goto { target: usize::MAX });
            }
            Some("return") => {
                self.bump();
                let value = if matches!(self.peek(), Tok::Semi) {
                    None
                } else {
                    Some(self.parse_operand(scope)?)
                };
                self.expect_tok(&Tok::Semi)?;
                st.stmts.push(Stmt::Return { value });
                return Ok(());
            }
            Some("throw") => {
                self.bump();
                let value = self.parse_operand(scope)?;
                self.expect_tok(&Tok::Semi)?;
                st.stmts.push(Stmt::Throw { value });
                return Ok(());
            }
            Some("if") => {
                self.bump();
                let cond = self.parse_cond(scope)?;
                self.expect_kw("goto")?;
                let stmt = Stmt::If {
                    cond,
                    target: usize::MAX,
                };
                return self.branch(st, stmt);
            }
            Some(w) if invoke_kind(w).is_some() => {
                let call = self.parse_invoke(scope)?;
                self.expect_tok(&Tok::Semi)?;
                st.stmts.push(Stmt::Invoke { dst: None, call });
                return Ok(());
            }
            _ => {}
        }
        // Remaining forms start with an identifier chain:
        //   x = expr;              (x local)
        //   recv.f = op;           (recv local)
        //   pkg.Class.f = op;      (static store)
        //   x[i] = op;             (array store)
        let first = self.ident()?;
        match self.peek() {
            Tok::LBracket => {
                // array store
                let Some(&(array, _)) = scope.get(first) else {
                    return self.err(format!("unknown local `{first}`"));
                };
                self.bump();
                let index = self.parse_operand(scope)?;
                self.expect_tok(&Tok::RBracket)?;
                self.expect_tok(&Tok::Assign)?;
                let value = self.parse_operand(scope)?;
                self.expect_tok(&Tok::Semi)?;
                st.stmts.push(Stmt::ArrayStore {
                    array,
                    index,
                    value,
                });
                Ok(())
            }
            Tok::Assign => {
                // simple assignment to local
                let Some(&(dst, _)) = scope.get(first) else {
                    return self.err(format!("unknown local `{first}`"));
                };
                self.bump();
                let value = self.parse_expr(scope)?;
                self.expect_tok(&Tok::Semi)?;
                st.stmts.push(match value {
                    ParsedExpr::Plain(e) => Stmt::Assign { dst, value: e },
                    ParsedExpr::Invoke(call) => Stmt::Invoke {
                        dst: Some(dst),
                        call,
                    },
                });
                Ok(())
            }
            Tok::Dot => {
                // field store (instance or static)
                let path = self.qname_after(first)?;
                self.expect_tok(&Tok::Assign)?;
                let value = self.parse_operand(scope)?;
                self.expect_tok(&Tok::Semi)?;
                let target = self.field_target(scope, path)?;
                st.stmts.push(Stmt::FieldStore { target, value });
                Ok(())
            }
            _ => self.err(format!("unexpected token {} in statement", self.peek())),
        }
    }

    /// Builds a [`FieldTarget`] from a dotted segment chain.
    fn field_target(
        &mut self,
        scope: &LocalScope<'src>,
        path: Dotted<'src>,
    ) -> PResult<FieldTarget> {
        let head = path.first;
        let local = scope.get(head);
        if path.segments == 2 {
            if let Some((recv, ty)) = local {
                let Some(class) = ty.class_name() else {
                    return self.err(format!("field access on local `{head}` of non-class type"));
                };
                let name = self.program.intern(path.last);
                return Ok(FieldTarget::Instance(*recv, FieldRef { class, name }));
            }
        }
        if path.segments >= 2 && local.is_none() {
            let class = self.intern_dotted(path.init());
            let name = self.program.intern(path.last);
            return Ok(FieldTarget::Static(FieldRef { class, name }));
        }
        self.err(format!(
            "cannot resolve field access `{}`",
            self.dotted_text(path)
        ))
    }

    fn parse_invoke(&mut self, scope: &LocalScope<'src>) -> PResult<Call> {
        let word = self.ident()?;
        let Some(kind) = invoke_kind(word) else {
            return self.err(format!("unknown invoke kind `{word}`"));
        };
        if kind == InvokeKind::Static {
            // staticinvoke pkg.Class.name(args)
            let path = self.qname()?;
            if path.segments < 2 {
                return self.err("static invoke needs `Class.method`");
            }
            let class = self.intern_dotted(path.init());
            let name = self.program.intern(path.last);
            let args = self.parse_args(scope)?;
            return Ok(Call {
                kind,
                receiver: None,
                callee: MethodRef {
                    class,
                    name,
                    argc: args.len() as u32,
                },
                args,
            });
        }
        // recv.name(args); callee class = receiver's declared type.
        let recv_name = self.ident()?;
        let Some(&(recv, ref ty)) = scope.get(recv_name) else {
            return self.err(format!("unknown receiver local `{recv_name}`"));
        };
        let Some(class) = ty.class_name() else {
            return self.err(format!("receiver `{recv_name}` has non-class type"));
        };
        self.expect_tok(&Tok::Dot)?;
        let mname = self.ident()?;
        let name = self.program.intern(mname);
        let args = self.parse_args(scope)?;
        Ok(Call {
            kind,
            receiver: Some(recv),
            callee: MethodRef {
                class,
                name,
                argc: args.len() as u32,
            },
            args,
        })
    }

    fn parse_args(&mut self, scope: &LocalScope<'src>) -> PResult<Vec<Operand>> {
        self.expect_tok(&Tok::LParen)?;
        let mut args = Vec::new();
        if !matches!(self.peek(), Tok::RParen) {
            // Most calls pass one argument.
            args.reserve_exact(1);
            loop {
                args.push(self.parse_operand(scope)?);
                if matches!(self.peek(), Tok::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect_tok(&Tok::RParen)?;
        Ok(args)
    }

    fn parse_operand(&mut self, scope: &LocalScope<'src>) -> PResult<Operand> {
        let constant = match &self.toks[self.at].tok {
            Tok::Int(v) => Const::Int(*v),
            Tok::Minus => {
                self.bump();
                return match *self.peek() {
                    Tok::Int(v) => {
                        self.bump();
                        Ok(Operand::Const(Const::Int(-v)))
                    }
                    ref other => self.err(format!("expected integer after `-`, found {other}")),
                };
            }
            Tok::Str(s) => Const::Str(self.program.intern(s)),
            Tok::Ident("null") => Const::Null,
            Tok::Ident("true") => Const::Bool(true),
            Tok::Ident("false") => Const::Bool(false),
            &Tok::Ident(s) => {
                // Could be a local or a class literal `pkg.Class.class`.
                // A local followed by a dot is still consumed as the
                // local; the caller errors on the stray dot.
                if let Some(&(id, _)) = scope.get(s) {
                    self.bump();
                    return Ok(Operand::Local(id));
                }
                let path = self.qname()?;
                if path.segments < 2 || path.last != "class" {
                    return self.err(format!("unknown operand `{}`", self.dotted_text(path)));
                }
                let class = self.intern_dotted(path.init());
                return Ok(Operand::Const(Const::Class(class)));
            }
            other => return self.err(format!("expected operand, found {other}")),
        };
        self.bump();
        Ok(Operand::Const(constant))
    }

    fn parse_cond(&mut self, scope: &LocalScope<'src>) -> PResult<Cond> {
        if matches!(self.peek(), Tok::Bang) {
            self.bump();
            let op = self.parse_operand(scope)?;
            return Ok(Cond::Falsy(op));
        }
        let lhs = self.parse_operand(scope)?;
        let cmp = match self.peek() {
            Tok::EqEq => Some(CmpOp::Eq),
            Tok::NotEq => Some(CmpOp::Ne),
            Tok::Lt => Some(CmpOp::Lt),
            Tok::Le => Some(CmpOp::Le),
            Tok::Gt => Some(CmpOp::Gt),
            Tok::Ge => Some(CmpOp::Ge),
            _ => None,
        };
        match cmp {
            Some(op) => {
                self.bump();
                let rhs = self.parse_operand(scope)?;
                Ok(Cond::Cmp { op, lhs, rhs })
            }
            None => Ok(Cond::Truthy(lhs)),
        }
    }

    fn parse_expr(&mut self, scope: &LocalScope<'src>) -> PResult<ParsedExpr> {
        match self.peek_ident() {
            Some(w) if invoke_kind(w).is_some() => {
                return Ok(ParsedExpr::Invoke(self.parse_invoke(scope)?));
            }
            Some("new") => {
                self.bump();
                let path = self.qname()?;
                let sym = self.intern_dotted(path.name());
                return Ok(ParsedExpr::Plain(Expr::New(sym)));
            }
            Some("newarray") => {
                self.bump();
                let elem = self.parse_type()?;
                self.expect_tok(&Tok::LBracket)?;
                let len = self.parse_operand(scope)?;
                self.expect_tok(&Tok::RBracket)?;
                return Ok(ParsedExpr::Plain(Expr::NewArray { elem, len }));
            }
            _ => {}
        }
        match (self.peek(), self.peek2()) {
            (Tok::LParen, _) => {
                // cast: (type) operand
                self.bump();
                let ty = self.parse_type()?;
                self.expect_tok(&Tok::RParen)?;
                let operand = self.parse_operand(scope)?;
                return Ok(ParsedExpr::Plain(Expr::Cast { ty, operand }));
            }
            (Tok::Bang, _) => {
                self.bump();
                let operand = self.parse_operand(scope)?;
                return Ok(ParsedExpr::Plain(Expr::Unary {
                    op: crate::UnOp::Not,
                    operand,
                }));
            }
            (Tok::Minus, Tok::Ident(_)) => {
                self.bump();
                let operand = self.parse_operand(scope)?;
                return Ok(ParsedExpr::Plain(Expr::Unary {
                    op: crate::UnOp::Neg,
                    operand,
                }));
            }
            // Identifier chains: field load / array load / plain operand ± binop.
            (&Tok::Ident(first), Tok::Dot) if !matches!(first, "null" | "true" | "false") => {
                // Dotted chain: instance or static field load, or class literal.
                let path = self.qname()?;
                if path.last == "class" {
                    let sym = self.intern_dotted(path.init());
                    return self
                        .finish_binary(scope, Expr::Operand(Operand::Const(Const::Class(sym))));
                }
                let target = self.field_target(scope, path)?;
                return Ok(ParsedExpr::Plain(Expr::FieldLoad(target)));
            }
            (&Tok::Ident(first), Tok::LBracket) => {
                if let Some(&(array, _)) = scope.get(first) {
                    self.bump(); // ident
                    self.bump(); // [
                    let index = self.parse_operand(scope)?;
                    self.expect_tok(&Tok::RBracket)?;
                    return Ok(ParsedExpr::Plain(Expr::ArrayLoad { array, index }));
                }
            }
            _ => {}
        }
        let lhs = self.parse_operand(scope)?;
        if self.at_kw("instanceof") {
            self.bump();
            let ty = self.parse_type()?;
            return Ok(ParsedExpr::Plain(Expr::InstanceOf { ty, operand: lhs }));
        }
        self.finish_binary(scope, Expr::Operand(lhs))
    }

    /// After a leading operand expression, parse an optional binary operator
    /// and right operand.
    fn finish_binary(&mut self, scope: &LocalScope<'src>, lhs_expr: Expr) -> PResult<ParsedExpr> {
        let op = match self.peek() {
            Tok::Plus => Some(crate::BinOp::Add),
            Tok::Minus => Some(crate::BinOp::Sub),
            Tok::Star => Some(crate::BinOp::Mul),
            Tok::Slash => Some(crate::BinOp::Div),
            Tok::Percent => Some(crate::BinOp::Rem),
            Tok::Amp => Some(crate::BinOp::And),
            Tok::Pipe => Some(crate::BinOp::Or),
            Tok::Caret => Some(crate::BinOp::Xor),
            _ => None,
        };
        let Some(op) = op else {
            return Ok(ParsedExpr::Plain(lhs_expr));
        };
        let Expr::Operand(lhs) = lhs_expr else {
            return self.err("binary operators require simple operands (three-address form)");
        };
        self.bump();
        let rhs = self.parse_operand(scope)?;
        Ok(ParsedExpr::Plain(Expr::Binary { op, lhs, rhs }))
    }
}

/// The invoke kind an `*invoke` keyword names.
fn invoke_kind(word: &str) -> Option<InvokeKind> {
    match word {
        "virtualinvoke" => Some(InvokeKind::Virtual),
        "specialinvoke" => Some(InvokeKind::Special),
        "staticinvoke" => Some(InvokeKind::Static),
        "interfaceinvoke" => Some(InvokeKind::Interface),
        _ => None,
    }
}

enum ParsedExpr {
    Plain(Expr),
    Invoke(Call),
}

#[derive(Default)]
struct StmtParser<'src> {
    stmts: Vec<Stmt>,
    labels: HashMap<&'src str, usize, FxBuildHasher>,
    fixups: Vec<(usize, &'src str, u32, u32)>,
}
