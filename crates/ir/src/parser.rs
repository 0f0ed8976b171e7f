//! Parser for the textual form produced by [`crate::printer`].
//!
//! # Grammar
//!
//! A line ends at `\n`. A `;` starts a comment that runs to the end of
//! its line. Blanks (space, tab, `\r`) separate tokens and mean nothing
//! else; lines without content are skipped. Outside comments the text
//! is ASCII. A *word* runs up to a blank or one of `, : = ( ) [ ] { +`.
//!
//! ```text
//! module      := "module" <rest of the line, the module's name>
//!                function*
//! function    := "func @" fname "(" [param ("," param)*] ")" "->" (type | "void")
//!                ["pure" | "readonly"] "{"
//!                (label | constant | instruction)*
//!                "}"
//! param       := word ":" type
//! label       := "bb" <anything> ":"
//! constant    := name [":" type] "=" "const" number ":" type
//! instruction := [value ":" type "="] operation
//! operation   := binop value "," value          | castop value "to" type
//!              | "icmp" pred value "," value    | "select" value "," value "," value
//!              | "alloc" value "x" uint         | "gep" value "," value "x" uint ["+" uint]
//!              | "load" type "," value          | "store" value "," value
//!              | "prefetch" value               | "phi" incoming ("," incoming)*
//!              | "call @" fname "(" [value ("," value)*] ")"
//!              | "br" block | "br" value "," block "," block | "ret" [value]
//! incoming    := "[" block ":" value "]"
//! block       := "bb" uint
//! value       := name that starts with "%"      name := word
//! ```
//!
//! `fname` is every byte between `@` and `(`. Parameters are `%0`, `%1`,
//! … in order and labels number the blocks in order, whatever the text
//! calls them; the printer's own text agrees with both. `number` is
//! what `i64` (or, before `: f64`, `f64`) parses from a string. A
//! constant's name may be bare (`one = const 1: i64`) and any operand
//! may name it; equal constants of a function share one value.
//!
//! # Names, in one pass
//!
//! Each line is read once, left to right, and an operand is looked up as
//! it is read: `%<decimal>` in a table indexed by the number, anything
//! else in a map. A line that names a value no line above it defines —
//! a loop phi's back edge, a block printed ahead of its dominator —
//! keeps its slot and is read again when the function's `}` has been
//! seen and every name is known. Block references are checked against
//! the block count then, too. A name may be bound twice; the **last
//! binding wins for every use**, those above it included, so a function
//! that rebinds a name has all of its lines read again.
//!
//! # Diagnostics
//!
//! Every error carries the 1-based line it is about. A malformed line
//! is reported in text order: the first one wins, a header like any
//! other line. An unknown value or block name is reported at the line
//! that uses it, once the body is complete and all of its lines are
//! well formed; a function the input ends inside of is reported at its
//! header.

use crate::block::BlockId;
use crate::function::{FuncId, Function, Purity};
use crate::inst::{BinOp, CastOp, InstKind, Pred};
use crate::module::Module;
use crate::types::Type;
use crate::value::{Constant, ValueId};
use std::collections::HashMap;
use std::fmt;

/// A parse failure with a line number (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

#[cold]
fn err(line: usize, message: impl Into<String>) -> ParseError {
    let message = message.into();
    ParseError { line, message }
}

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// The bytes of `w` equal to `b`, marked by their high bits. The lowest
/// mark is exact; a higher one may be a borrow out of the match below it.
#[inline]
fn marks(w: u64, b: u8) -> u64 {
    let x = w ^ (LO * u64::from(b));
    x.wrapping_sub(LO) & !x & HI
}

/// Where the line that holds `t[i]` ends — at its `\n`, at the end of
/// `t`, or with `comments` at a `;` before those — and the line's bytes
/// from `i` up to there ORed together, eight at a time.
fn scan(t: &[u8], mut i: usize, comments: bool) -> (usize, u64) {
    let mut seen = 0;
    while let Some(w) = t.get(i..i + 8) {
        let w = u64::from_le_bytes(w.try_into().expect("8 bytes"));
        let m = marks(w, b'\n') | if comments { marks(w, b';') } else { 0 };
        if m != 0 {
            let k = m.trailing_zeros() / 8;
            return (i + k as usize, seen | w & !(u64::MAX << (8 * k)));
        }
        (i, seen) = (i + 8, seen | w);
    }
    while i < t.len() && t[i] != b'\n' && !(comments && t[i] == b';') {
        (i, seen) = (i + 1, seen | u64::from(t[i]));
    }
    (i, seen)
}

fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r')
}

/// The bytes that end a word: blanks and punctuation.
static ENDS_WORD: [bool; 256] = {
    let mut table = [false; 256];
    let ends = b" \t\r,:=()[]{+";
    let mut i = 0;
    while i < ends.len() {
        table[ends[i] as usize] = true;
        i += 1;
    }
    table
};

/// The number a run of decimal digits spells, unless it overflows.
fn decimal(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |n, d| {
        let d = d.is_ascii_digit().then(|| u64::from(d - b'0'))?;
        n.checked_mul(10)?.checked_add(d)
    })
}

/// `word` as text. Content is checked to be ASCII as it is scanned, so
/// the fallback is never taken.
fn ascii(word: &[u8]) -> &str {
    std::str::from_utf8(word).unwrap_or("")
}

/// The scan over the input's lines.
struct Lines<'a> {
    text: &'a [u8],
    /// Start of the next line.
    pos: usize,
    /// Number of the line before `pos`.
    no: usize,
}

impl<'a> Lines<'a> {
    /// A cursor at the start of the next line that has content: what is
    /// left of a line without its comment and surrounding blanks.
    fn next(&mut self) -> PResult<Option<Cur<'a>>> {
        let t = self.text;
        while self.pos < t.len() {
            self.no += 1;
            let (end, seen) = scan(t, self.pos, true);
            let s = &t[self.pos..end];
            self.pos = 1 + if t.get(end) == Some(&b';') {
                scan(t, end, false).0
            } else {
                end
            };
            let indent = s.iter().take_while(|&&b| is_blank(b)).count();
            let s = &s[indent..];
            let trail = s.iter().rev().take_while(|&&b| is_blank(b)).count();
            let s = &s[..s.len() - trail];
            if s.is_empty() {
                continue;
            }
            if seen & HI != 0 {
                return Err(err(self.no, "non-ASCII byte outside a comment"));
            }
            let (pos, line) = (0, self.no);
            return Ok(Some(Cur { s, pos, line }));
        }
        Ok(None)
    }
}

/// The cursor over one line's content. Past the end it reads 0, which
/// no token contains.
#[derive(Clone, Copy)]
struct Cur<'a> {
    s: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Cur<'a> {
    #[inline]
    fn peek(&self) -> u8 {
        self.s.get(self.pos).copied().unwrap_or(0)
    }

    /// Skip blanks; the byte after them.
    #[inline]
    fn blanks(&mut self) -> u8 {
        while is_blank(self.peek()) {
            self.pos += 1;
        }
        self.peek()
    }

    /// Skip blanks, then `b` if it is next.
    #[inline]
    fn eat(&mut self, b: u8) -> bool {
        if self.blanks() == b {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    #[cold]
    fn err(&self, message: impl Into<String>) -> ParseError {
        err(self.line, message)
    }

    fn expect(&mut self, b: u8) -> PResult<()> {
        if self.eat(b) {
            return Ok(());
        }
        Err(self.err(format!("expected `{}`", char::from(b))))
    }

    /// The word `w`, as in `%1 x 8` and `%1 to i64`.
    fn keyword(&mut self, w: &str) -> PResult<()> {
        if self.word() == w.as_bytes() {
            return Ok(());
        }
        Err(self.err(format!("expected `{w}`")))
    }

    /// The next word: the bytes up to one of [`ENDS_WORD`]. May be
    /// empty.
    #[inline]
    fn word(&mut self) -> &'a [u8] {
        self.blanks();
        let rest = &self.s[self.pos..];
        let ends = rest.iter().position(|&b| ENDS_WORD[usize::from(b)]);
        let word = &rest[..ends.unwrap_or(rest.len())];
        self.pos += word.len();
        word
    }

    /// The bytes up to `stop` (or the end of the line), as they are.
    fn until(&mut self, stop: u8) -> &'a [u8] {
        let rest = &self.s[self.pos..];
        let len = rest.iter().position(|&b| b == stop).unwrap_or(rest.len());
        self.pos += len;
        &rest[..len]
    }

    /// A type name; `what` says whose, for the error.
    fn ty(&mut self, what: &str) -> PResult<Type> {
        Type::from_name(self.word()).ok_or_else(|| self.err(format!("bad {what} type")))
    }

    /// An unsigned decimal; `what` names it for the error.
    fn uint(&mut self, what: &str) -> PResult<u64> {
        decimal(self.word()).ok_or_else(|| self.err(format!("bad {what}")))
    }

    /// Skip blanks; whether that was the rest of the line.
    fn at_end(&mut self) -> bool {
        self.blanks();
        self.pos == self.s.len()
    }

    /// Nothing but blanks may be left.
    fn end(&mut self) -> PResult<()> {
        if self.at_end() {
            return Ok(());
        }
        Err(self.err(format!("unexpected `{}`", ascii(&self.s[self.pos..]))))
    }
}

/// Parse a module from its textual form.
///
/// # Errors
/// Returns a [`ParseError`] for the first malformed line, or for the
/// first use of an unknown name in a function whose lines are all well
/// formed (see the module docs).
pub fn parse_module(text: &str) -> PResult<Module> {
    let mut reader = ModuleReader::new(text)?;
    while reader.next_body()?.is_some() {}
    Ok(reader.into_module())
}

/// A module read one function body at a time.
///
/// [`ModuleReader::new`] reads the `module` line and declares every
/// function from its header, so that a call resolves whichever body it
/// is in; each [`ModuleReader::next_body`] then parses the next body
/// into its declaration. A function whose body has not been read yet
/// has only its signature, as after [`Function::clear_body`]. Between
/// two bodies the caller may work on the module — transform the
/// function just read, print it, and drop its body — so that only one
/// body need be held at a time. Errors come in the order
/// [`parse_module`] reports them, which is that loop.
pub struct ModuleReader<'a> {
    module: Module,
    lines: Lines<'a>,
    parser: Parser<'a>,
    /// The malformed header the pre-scan stopped at, if any.
    bad_header: Option<ParseError>,
    /// Bodies read so far.
    parsed: usize,
}

impl<'a> ModuleReader<'a> {
    /// Read the `module` line and declare every function.
    ///
    /// # Errors
    /// If the text has no `module <name>` line first. A malformed header
    /// is reported by the [`ModuleReader::next_body`] that reaches it.
    pub fn new(text: &'a str) -> PResult<Self> {
        let (text, pos, no) = (text.as_bytes(), 0, 0);
        let mut lines = Lines { text, pos, no };
        let first = lines.next()?.ok_or_else(|| err(1, "empty input"))?;
        let name = first
            .s
            .strip_prefix(b"module")
            .filter(|rest| rest.first().is_some_and(|&b| is_blank(b)))
            .ok_or_else(|| first.err("expected `module <name>`"))?;
        let mut module = Module::new(ascii(name.trim_ascii_start()));
        let mut parser = Parser::default();
        let bad_header = parser.declare_functions(&mut module, &lines);
        Ok(ModuleReader {
            module,
            lines,
            parser,
            bad_header,
            parsed: 0,
        })
    }

    /// Parse the next body into its function and return the function's
    /// id, or `None` at the end of the input.
    ///
    /// # Errors
    /// The first malformed line of the body, or of the text between it
    /// and the previous one; an unknown name in the body.
    pub fn next_body(&mut self) -> PResult<Option<FuncId>> {
        let Some(line) = self.lines.next()? else {
            return Ok(None);
        };
        if !line.s.starts_with(b"func @") {
            return Err(line.err("expected `func`"));
        }
        // The pre-scan declared every header up to the first malformed
        // one; past those, this is it.
        if self.parsed == self.module.num_functions() {
            return Err(self
                .bad_header
                .take()
                .unwrap_or_else(|| line.err("bad header")));
        }
        let fid = FuncId(self.parsed as u32);
        let f = self.module.function_mut(fid);
        self.parser.parse_body(f, fid, &mut self.lines, line.line)?;
        self.parsed += 1;
        Ok(Some(fid))
    }

    /// The module: every function declared, the bodies read so far.
    #[must_use]
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The module, to work on the function just read.
    pub fn module_mut(&mut self) -> &mut Module {
        &mut self.module
    }

    /// The module as read so far.
    #[must_use]
    pub fn into_module(self) -> Module {
        self.module
    }
}

struct Header<'a> {
    name: &'a [u8],
    ret: Option<Type>,
    purity: Purity,
}

/// Parse `func @name(%0: ty, ...) -> ret [pure|readonly] {` from `cur`,
/// a line that starts with `func @`, leaving the parameter types in
/// `params`.
fn parse_header<'a>(mut cur: Cur<'a>, params: &mut Vec<Type>) -> PResult<Header<'a>> {
    let rest = &cur.s[b"func @".len()..];
    let find = |b: u8, missing: &str| {
        let at = rest.iter().position(|&c| c == b);
        at.ok_or_else(|| cur.err(format!("missing `{missing}`")))
    };
    let (open, close) = (find(b'(', "(")?, find(b')', ")")?);
    if close < open {
        return Err(cur.err("`)` before `(`"));
    }
    params.clear();
    (cur.s, cur.pos) = (&rest[..close], open + 1);
    while !cur.at_end() {
        if !params.is_empty() {
            cur.expect(b',')?;
        }
        cur.word();
        if !cur.eat(b':') {
            return Err(cur.err("param missing type"));
        }
        params.push(cur.ty("param")?);
    }
    (cur.s, cur.pos) = (rest, close + 1);
    if !(cur.eat(b'-') && cur.peek() == b'>') {
        return Err(cur.err("missing return type"));
    }
    cur.pos += 1;
    let ret = match cur.word() {
        b"void" => None,
        ty => Some(Type::from_name(ty).ok_or_else(|| cur.err("bad return type"))?),
    };
    let purity = match cur.word() {
        b"" => Purity::Impure,
        b"pure" => Purity::Pure,
        b"readonly" => Purity::ReadOnly,
        _ => return Err(cur.err("bad purity")),
    };
    if !cur.eat(b'{') {
        return Err(cur.err("missing `{`"));
    }
    cur.end()?;
    let name = &rest[..open];
    Ok(Header { name, ret, purity })
}

/// `n` of a canonical `%n` (no sign, no leading zeros, fits `u32`).
fn decimal_name(name: &[u8]) -> Option<usize> {
    let digits = name.strip_prefix(b"%")?;
    if digits.len() > 1 && digits[0] == b'0' {
        return None;
    }
    u32::try_from(decimal(digits)?).ok().map(|n| n as usize)
}

/// A `dense` slot no definition has reached.
const UNBOUND: u32 = u32::MAX;

/// The value names of the function being parsed, as borrowed keys.
///
/// The `%<decimal>` names the printer emits index `dense` directly: in
/// printed text a value's number never exceeds its arena slot, so a
/// number below the arena size at definition time goes there and the
/// table stays bounded by the input. Every other name — symbolic, or a
/// number ahead of the arena — lives in `other`, which keeps the
/// standard hasher because its keys come from outside the program.
#[derive(Default)]
struct Names<'a> {
    dense: Vec<u32>,
    other: HashMap<&'a [u8], ValueId>,
    /// Whether some name was bound twice, so that a use read before the
    /// second binding may hold the first.
    rebound: bool,
}

impl<'a> Names<'a> {
    /// Forget everything but the parameters `%0..%params`.
    fn reset(&mut self, params: usize) {
        self.dense.clear();
        self.dense.extend(0..params as u32);
        self.other.clear();
        self.rebound = false;
    }

    /// Bind `name` to `id`; a later binding of the same name wins.
    /// `num_values` is the arena size, the bound on dense slots.
    fn define(&mut self, name: &'a [u8], id: ValueId, num_values: usize) {
        self.rebound |= match decimal_name(name) {
            Some(n) if n < num_values => {
                if self.dense.len() <= n {
                    self.dense.resize(n + 1, UNBOUND);
                }
                std::mem::replace(&mut self.dense[n], id.0) != UNBOUND
                    || self.other.contains_key(name)
            }
            _ => self.other.insert(name, id).is_some(),
        };
    }

    fn lookup(&self, name: &[u8]) -> Option<ValueId> {
        let dense = decimal_name(name).and_then(|n| self.dense.get(n));
        match dense {
            Some(&id) if id != UNBOUND => Some(ValueId(id)),
            _ => self.other.get(name).copied(),
        }
    }
}

/// Parsing state: the module's function names, and per-function tables
/// that are reused across the functions of a module.
#[derive(Default)]
struct Parser<'a> {
    /// Every function by name, the first of a name winning, as
    /// [`Module::find_function`] would find it.
    funcs: HashMap<&'a [u8], FuncId>,
    /// Per declared function, the lines with content (neither blank nor
    /// only a comment) between its header and the next one.
    content_lines: Vec<u32>,
    names: Names<'a>,
    /// The function's constants by bit pattern and type.
    consts: HashMap<(u64, Type), ValueId>,
    /// The function's instruction lines so far: a cursor at the
    /// operation, the slot the line filled, and whether it named a value
    /// no line above it defines.
    insts: Vec<(Cur<'a>, ValueId, bool)>,
    /// The instructions of the block being read.
    block: Vec<ValueId>,
    /// The function's block count once its body is complete. Until
    /// then an unknown value name sets `deferred` instead of failing,
    /// and block numbers are only gathered into `blocks_used`.
    nblocks: Option<usize>,
    deferred: bool,
    /// One more than the largest block number referred to.
    blocks_used: usize,
}

impl<'a> Parser<'a> {
    /// Declare every function from the lines after `from`, so that calls
    /// resolve by name; lines that are not headers are only skipped
    /// over (a comment cannot hide a `func @`). Stops at a malformed
    /// header and returns its error.
    fn declare_functions(&mut self, m: &mut Module, from: &Lines<'a>) -> Option<ParseError> {
        let Lines {
            text,
            mut pos,
            mut no,
        } = *from;
        let mut params = Vec::new();
        while pos < text.len() {
            let newline = scan(text, pos, false).0;
            let line = &text[pos..newline];
            let indent = line.iter().take_while(|&&b| is_blank(b)).count();
            if line[indent..].starts_with(b"func @") {
                let header = Lines { text, pos, no }.next().and_then(|cur| {
                    let cur = cur.ok_or_else(|| err(no + 1, "expected `func`"))?;
                    parse_header(cur, &mut params)
                });
                let h = match header {
                    Ok(h) => h,
                    Err(e) => return Some(e),
                };
                let mut f = Function::declaration(ascii(h.name).to_string(), &params, h.ret);
                f.purity = h.purity;
                let fid = m.add_function(f);
                self.funcs.entry(h.name).or_insert(fid);
                self.content_lines.push(0);
            } else if let (Some(n), Some(&b)) = (self.content_lines.last_mut(), line.get(indent)) {
                *n += u32::from(b != b';');
            }
            (pos, no) = (newline + 1, no + 1);
        }
        None
    }

    /// Parse one function body into `f`, from the line after its header
    /// (on line `header_line`) through the closing `}`.
    fn parse_body(
        &mut self,
        f: &mut Function,
        fid: FuncId,
        lines: &mut Lines<'a>,
        header_line: usize,
    ) -> PResult<()> {
        // A value takes a line with content, so those up to the next
        // header bound the arena; a fifth on top leaves the prefetch pass
        // room to insert without moving it first.
        let values = f.params.len() + self.content_lines[fid.index()] as usize * 6 / 5;
        f.reserve_values(values);
        f.open_body();
        self.names.reset(f.params.len());
        self.consts.clear();
        self.insts.clear();
        self.block.clear();
        (self.nblocks, self.blocks_used) = (None, 0);
        let mut cur_block: Option<BlockId> = None;
        loop {
            let Some(mut cur) = lines.next()? else {
                return Err(err(header_line, "unterminated function"));
            };
            let s = cur.s;
            if s == b"}" {
                break;
            }
            if let Some(label) = s.strip_suffix(b":") {
                if !label.starts_with(b"bb") {
                    return Err(cur.err(format!("bad block label `{}`", ascii(label))));
                }
                // Labels number the blocks in order, whatever they say.
                cur_block = Some(match cur_block {
                    None => f.entry(),
                    Some(b) => {
                        f.block_mut(b).insts = self.block.to_vec();
                        self.block.clear();
                        f.add_unnamed_block()
                    }
                });
                continue;
            }
            // `name[: ty] =` first, when the line defines a value.
            let (mut op, mut result) = (cur.word(), None);
            let mut from_op = Cur { pos: 0, ..cur };
            if matches!(cur.blanks(), b':' | b'=') {
                if op.is_empty() {
                    return Err(cur.err("expected a name"));
                }
                let ty = if cur.eat(b':') {
                    Some(cur.ty("result")?)
                } else {
                    None
                };
                cur.expect(b'=')?;
                result = Some((op, ty));
                from_op = cur;
                op = cur.word();
            }
            if let (b"const", Some((name, _))) = (op, result) {
                cur.blanks();
                let value = ascii(cur.until(b':').trim_ascii_end());
                if !cur.eat(b':') {
                    return Err(cur.err("const missing type"));
                }
                let ty = cur.ty("const")?;
                cur.end()?;
                let (c, bits) = if ty == Type::F64 {
                    let v: f64 = value.parse().map_err(|_| cur.err("bad float constant"))?;
                    (Constant::Float(v), v.to_bits())
                } else {
                    let v: i64 = value.parse().map_err(|_| cur.err("bad int constant"))?;
                    (Constant::Int(v, ty), v as u64)
                };
                let id = *self
                    .consts
                    .entry((bits, ty))
                    .or_insert_with(|| f.push_const(c));
                self.names.define(name, id, f.num_values());
                continue;
            }
            let b = cur_block.ok_or_else(|| cur.err("instruction before first block label"))?;
            let ty = match result {
                Some((name, _)) if name[0] != b'%' => {
                    return Err(cur.err(format!("unknown instruction `{}`", ascii(name))))
                }
                Some((_, None)) => return Err(cur.err("result missing type annotation")),
                Some((_, ty)) => ty,
                None => None,
            };
            let id = f.create_inst(InstKind::Ret { value: None }, ty, b);
            self.deferred = false;
            self.inst(op, &mut cur, slot(f, id))?;
            self.block.push(id);
            self.insts.push((from_op, id, self.deferred));
            if let Some((name, _)) = result {
                self.names.define(name, id, f.num_values());
            }
        }
        if let Some(b) = cur_block {
            f.block_mut(b).insts = self.block.to_vec();
        }

        // The body is complete: read again, against every name and the
        // block count, the lines that were ahead of a definition — every
        // line if a name was bound twice or a block is missing, so that
        // the first line in text order reports it.
        let nblocks = f.num_blocks();
        self.nblocks = Some(nblocks);
        let all = self.names.rebound || self.blocks_used > nblocks;
        for i in 0..self.insts.len() {
            let (mut cur, id, deferred) = self.insts[i];
            if deferred || all {
                let op = cur.word();
                self.inst(op, &mut cur, slot(f, id))?;
            }
        }
        Ok(())
    }

    fn value(&mut self, cur: &mut Cur<'_>) -> PResult<ValueId> {
        let name = cur.word();
        match self.names.lookup(name) {
            Some(v) => Ok(v),
            None if name.is_empty() => Err(cur.err("expected a value")),
            None if self.nblocks.is_none() => {
                self.deferred = true;
                Ok(ValueId(0))
            }
            None => Err(cur.err(format!("unknown value `{}`", ascii(name)))),
        }
    }

    /// `a, b`.
    fn pair(&mut self, cur: &mut Cur<'_>) -> PResult<(ValueId, ValueId)> {
        let a = self.value(cur)?;
        cur.expect(b',')?;
        Ok((a, self.value(cur)?))
    }

    fn block(&mut self, cur: &mut Cur<'_>) -> PResult<BlockId> {
        let word = cur.word();
        let n = word.strip_prefix(b"bb").and_then(decimal);
        let n = n
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| cur.err(format!("bad block ref `{}`", ascii(word))))?;
        match self.nblocks {
            Some(nblocks) if n as usize >= nblocks => {
                return Err(cur.err(format!("unknown block `bb{n}`")))
            }
            Some(_) => {}
            None => self.blocks_used = self.blocks_used.max(n as usize + 1),
        }
        Ok(BlockId(n))
    }

    /// Read the instruction whose mnemonic `op` was just read, through
    /// the end of its line, into its slot `out` — built there, because a
    /// kind returned by value is copied twice on its way into the arena,
    /// and so that a phi read again refills its list.
    fn inst(&mut self, op: &[u8], cur: &mut Cur<'_>, out: &mut InstKind) -> PResult<()> {
        *out = match op {
            b"gep" => {
                let (base, index) = self.pair(cur)?;
                cur.keyword("x")?;
                let elem_size = cur.uint("elem size")?;
                let offset = if cur.eat(b'+') {
                    cur.uint("gep offset")?
                } else {
                    0
                };
                InstKind::Gep {
                    base,
                    index,
                    elem_size,
                    offset,
                }
            }
            b"load" => {
                let ty = cur.ty("load")?;
                cur.expect(b',')?;
                let addr = self.value(cur)?;
                InstKind::Load { ty, addr }
            }
            b"store" => {
                let (value, addr) = self.pair(cur)?;
                InstKind::Store { addr, value }
            }
            b"prefetch" => {
                let addr = self.value(cur)?;
                InstKind::Prefetch { addr }
            }
            b"icmp" => {
                let pred = Pred::from_mnemonic(cur.word());
                let pred = pred.ok_or_else(|| cur.err("bad predicate"))?;
                let (lhs, rhs) = self.pair(cur)?;
                InstKind::ICmp { pred, lhs, rhs }
            }
            b"select" => {
                let (cond, then_val) = self.pair(cur)?;
                cur.expect(b',')?;
                let else_val = self.value(cur)?;
                InstKind::Select {
                    cond,
                    then_val,
                    else_val,
                }
            }
            b"alloc" => {
                let count = self.value(cur)?;
                cur.keyword("x")?;
                let elem_size = cur.uint("elem size")?;
                InstKind::Alloc { count, elem_size }
            }
            b"phi" => {
                // A line read again refills the list it made the first time.
                let mut incomings = match std::mem::replace(out, InstKind::Ret { value: None }) {
                    InstKind::Phi { mut incomings } => {
                        incomings.clear();
                        incomings
                    }
                    _ => {
                        let rest = &cur.s[cur.pos..];
                        Vec::with_capacity(rest.iter().filter(|&&b| b == b'[').count())
                    }
                };
                loop {
                    cur.expect(b'[')?;
                    let b = self.block(cur)?;
                    cur.expect(b':')?;
                    incomings.push((b, self.value(cur)?));
                    cur.expect(b']')?;
                    if !cur.eat(b',') {
                        break;
                    }
                }
                InstKind::Phi { incomings }
            }
            b"call" => {
                cur.expect(b'@')?;
                let name = cur.until(b'(');
                let callee = self.funcs.get(name).copied();
                let callee =
                    callee.ok_or_else(|| cur.err(format!("unknown function `{}`", ascii(name))))?;
                cur.expect(b'(')?;
                let mut args = Vec::new();
                while !cur.eat(b')') {
                    if !args.is_empty() {
                        cur.expect(b',')?;
                    }
                    args.push(self.value(cur)?);
                }
                InstKind::Call { callee, args }
            }
            b"br" => {
                // `br %c, bb1, bb2` or `br bb1`: a comma tells.
                let mut ahead = *cur;
                ahead.word();
                if ahead.blanks() == b',' {
                    let cond = self.value(cur)?;
                    cur.expect(b',')?;
                    let then_bb = self.block(cur)?;
                    cur.expect(b',')?;
                    let else_bb = self.block(cur)?;
                    InstKind::CondBr {
                        cond,
                        then_bb,
                        else_bb,
                    }
                } else {
                    let target = self.block(cur)?;
                    InstKind::Br { target }
                }
            }
            b"ret" => {
                let value = if cur.at_end() {
                    None
                } else {
                    Some(self.value(cur)?)
                };
                InstKind::Ret { value }
            }
            _ => {
                if let Some(op) = BinOp::from_mnemonic(op) {
                    let (lhs, rhs) = self.pair(cur)?;
                    InstKind::Binary { op, lhs, rhs }
                } else if let Some(op) = CastOp::from_mnemonic(op) {
                    let val = self.value(cur)?;
                    cur.keyword("to")?;
                    let to = cur.ty("cast")?;
                    InstKind::Cast { op, val, to }
                } else {
                    return Err(cur.err(format!("unknown instruction `{}`", ascii(op))));
                }
            }
        };
        cur.end()
    }
}

/// The kind of the instruction `id`, which a line of this body made.
fn slot(f: &mut Function, id: ValueId) -> &mut InstKind {
    &mut f.inst_mut(id).expect("an instruction's slot").kind
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_module;
    use crate::verifier::verify_module;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::time::Instant;

    const LOOP: &str = r"module t

func @k(%0: ptr, %1: ptr, %2: i64) -> i64 {
  %3 = const 0: i64
  %4 = const 1: i64
bb0:
  br bb1
bb1:
  %5: i64 = phi [bb0: %3], [bb2: %11]
  %6: i64 = phi [bb0: %3], [bb2: %10]
  %7: i1 = icmp slt %5, %2
  br %7, bb2, bb3
bb2:
  %8: ptr = gep %1, %5 x 8
  %9: i64 = load i64, %8
  %sum_addr: ptr = gep %0, %9 x 8
  %sv: i64 = load i64, %sum_addr
  %10: i64 = add %6, %sv
  %11: i64 = add %5, %4
  br bb1
bb3:
  ret %6
}
";

    #[test]
    fn parses_and_verifies() {
        let m = parse_module(LOOP).expect("parse");
        verify_module(&m).expect("verify");
        assert_eq!(m.num_functions(), 1);
        let f = m.function(FuncId(0));
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.num_blocks(), 4);
    }

    #[test]
    fn print_parse_print_fixpoint() {
        let m = parse_module(LOOP).expect("parse");
        let p1 = print_module(&m);
        let m2 = parse_module(&p1).expect("reparse");
        let p2 = print_module(&m2);
        assert_eq!(p1, p2);
        verify_module(&m2).unwrap();
    }

    #[test]
    fn reports_unknown_value() {
        let bad = "module t\n\nfunc @f() -> void {\nbb0:\n  prefetch %99\n}\n";
        let err = parse_module(bad).unwrap_err();
        assert!(err.message.contains("unknown value"), "{err}");
    }

    #[test]
    fn reports_unknown_instruction() {
        let bad = "module t\n\nfunc @f() -> void {\nbb0:\n  frobnicate %0\n}\n";
        let err = parse_module(bad).unwrap_err();
        assert!(err.message.contains("unknown instruction"), "{err}");
    }

    #[test]
    fn hostile_headers_are_errors_not_panics() {
        for (header, want) in [
            ("func @f)( -> void {", "`)` before `("),
            ("func @f( -> void {", "missing `)`"),
            ("func @f) -> void {", "missing `("),
            ("func @f() void {", "missing return type"),
            ("func @f() -> void", "missing `{`"),
            ("func @f(%0) -> void {", "param missing type"),
            ("func @f(%0: i7) -> void {", "bad param type"),
            ("func @f() -> i7 {", "bad return type"),
        ] {
            let err = parse_module(&format!("module t\n{header}\nbb0:\n  ret\n}}\n")).unwrap_err();
            assert_eq!(err.line, 2, "{header}");
            assert!(err.message.contains(want), "{header}: {err}");
        }
    }

    #[test]
    fn an_unterminated_function_is_reported_at_its_header() {
        let cut = "module t\n\nfunc @f() -> void {\nbb0:\n  ret\n";
        let err = parse_module(cut).unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (3, "unterminated function")
        );
    }

    #[test]
    fn decimal_names_are_canonical_or_symbolic() {
        assert_eq!(decimal_name(b"%0"), Some(0));
        assert_eq!(decimal_name(b"%42"), Some(42));
        assert_eq!(decimal_name(b"%4294967295"), Some(u32::MAX as usize));
        for symbolic in [
            "%",
            "%05",
            "%00",
            "%+5",
            "%4294967296",
            "%99999999999",
            "%5a",
            "5",
            "%s",
        ] {
            assert_eq!(decimal_name(symbolic.as_bytes()), None, "{symbolic}");
        }
    }

    #[test]
    fn a_number_ahead_of_the_arena_cannot_size_the_name_table() {
        let src = "module t\n\nfunc @f() -> i64 {\n  %4000000000 = const 7: i64\nbb0:\n  ret %4000000000\n}\n";
        let m = parse_module(src).expect("parses");
        verify_module(&m).expect("verifies");
        assert!(print_module(&m).contains("%0 = const 7: i64"));
    }

    #[test]
    fn parses_purity_annotations() {
        let src = "module t\n\nfunc @h(%0: i64) -> i64 pure {\nbb0:\n  %1: i64 = mul %0, %0\n  ret %1\n}\n";
        let m = parse_module(src).unwrap();
        assert_eq!(m.function(FuncId(0)).purity, Purity::Pure);
        verify_module(&m).unwrap();
    }

    #[test]
    fn parses_calls_across_functions() {
        let src = "module t\n\nfunc @h(%0: i64) -> i64 pure {\nbb0:\n  %1: i64 = mul %0, %0\n  ret %1\n}\n\nfunc @g(%0: i64) -> i64 {\nbb0:\n  %1: i64 = call @h(%0)\n  ret %1\n}\n";
        let m = parse_module(src).unwrap();
        verify_module(&m).unwrap();
        let p1 = print_module(&m);
        let m2 = parse_module(&p1).unwrap();
        assert_eq!(p1, print_module(&m2));
    }

    #[test]
    fn text_cut_at_any_byte_is_ok_or_an_error_within_it() {
        let text = print_module(&parse_module(LOOP).expect("parse"));
        for cut in 0..=text.len() {
            let lines = text[..cut].lines().count().max(1);
            if let Err(e) = parse_module(&text[..cut]) {
                assert!((1..=lines).contains(&e.line), "cut {cut}: {e}");
            }
        }
    }

    #[test]
    fn blanks_line_ends_and_comments_do_not_change_the_module() {
        let canonical = print_module(&parse_module(LOOP).expect("parse"));
        let commented = canonical
            .replace(
                "module t\n",
                "; leading comment\nmodule t ; the name ends here\n",
            )
            .replace(
                "  br bb1\n",
                "  br bb1 ; after an instruction\n; in column 0\n",
            )
            .replace("}\n", "} ; after the brace\n");
        let variants = [
            canonical.replace('\n', "\r\n"),
            canonical.replace("  ", "\t"),
            canonical.replace("  ", " \t ").replace(", ", " ,\t"),
            commented.clone(),
            commented.replace("in column 0", "in column 0: caf\u{e9} \u{2192} \u{1f980}"),
        ];
        for text in &variants {
            let m = parse_module(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(print_module(&m), canonical, "{text}");
        }
        // Outside a comment a non-ASCII byte is an error on its line.
        for (needle, line) in [("module t", 1), ("%6: i64", 9), ("ret", 22)] {
            let text = canonical.replacen(needle, &format!("{needle}\u{e9}"), 1);
            let e = parse_module(&text).unwrap_err();
            assert_eq!(
                (e.line, e.message.as_str()),
                (line, "non-ASCII byte outside a comment")
            );
        }
    }

    #[test]
    fn forward_references_resolve_once_the_body_is_complete() {
        // A block branched to before its label, a value used in a block
        // printed ahead of the one that defines it, a phi of itself.
        let src = "module t\n\nfunc @f(%0: i64) -> i64 {\nbb0:\n  br bb2\nbb1:\n  \
                   %s: i64 = add %m, %0\n  %p: i64 = phi [bb2: %s], [bb1: %p]\n  \
                   %c: i1 = icmp slt %p, %0\n  br %c, bb1, bb3\nbb2:\n  \
                   %m: i64 = mul %0, %0\n  br bb1\nbb3:\n  ret %m\n}\n";
        let m = parse_module(src).expect("parses");
        let text = print_module(&m);
        assert!(text.contains("%2: i64 = add %6, %0"), "{text}");
        assert!(
            text.contains("%3: i64 = phi [bb2: %2], [bb1: %3]"),
            "{text}"
        );
        assert_eq!(print_module(&parse_module(&text).expect("reparses")), text);

        // An unknown name is reported where it is used, and a malformed
        // line below it is reported first.
        let unknown = src.replace("[bb2: %s]", "[bb2: %nope]");
        let e = parse_module(&unknown).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (8, "unknown value `%nope`"));
        let e = parse_module(&unknown.replace("ret %m", "ret %m, %m")).unwrap_err();
        assert_eq!(e.line, 15, "{e}");
        let e = parse_module(&src.replace("br %c, bb1, bb3", "br %c, bb1, bb4")).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (10, "unknown block `bb4`"));
        let e = parse_module(&src.replace("[bb1: %p]", "[bb9: %p]")).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (8, "unknown block `bb9`"));
    }

    #[test]
    fn the_last_binding_of_a_name_wins_for_every_use() {
        let mut rng = StdRng::seed_from_u64(0x5eed_b14d);
        for _ in 0..50 {
            // Lines `first` and `second` bind %x; every other line uses it.
            let n = rng.random_range(2..12usize);
            let first = rng.random_range(0..n - 1);
            let second = rng.random_range(first + 1..n);
            let mut src = String::from("module t\n\nfunc @f(%0: i64) -> i64 {\nbb0:\n");
            for k in 0..n {
                if k == first || k == second {
                    src.push_str("  %x: i64 = add %0, %0\n");
                } else {
                    src.push_str(&format!("  %t{k}: i64 = mul %x, %0\n"));
                }
            }
            src.push_str("  ret %x\n}\n");
            let m = parse_module(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
            let f = m.function(FuncId(0));
            // One parameter, then a value per line.
            let winner = ValueId(1 + second as u32);
            for k in (0..n).filter(|&k| k != first && k != second) {
                let inst = f.inst(ValueId(1 + k as u32)).expect("an instruction");
                assert!(
                    matches!(inst.kind, InstKind::Binary { lhs, .. } if lhs == winner),
                    "line {k} of\n{src}"
                );
            }
        }
    }

    /// Best-of-three seconds to parse `text`.
    fn parse_seconds(text: &str) -> f64 {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                parse_module(text).expect("parses");
                start.elapsed().as_secs_f64()
            })
            .fold(f64::MAX, f64::min)
    }

    #[test]
    fn many_constants_and_many_callers_parse_in_linear_time() {
        // Sizes at which an arena scan per constant, or a scan of the
        // function list per call, takes seconds in a debug build; four
        // times the input may cost four times as much, not sixteen.
        let constants = |n: usize| {
            let mut s = String::from("module t\n\nfunc @f() -> void {\n");
            for k in 0..n {
                s.push_str(&format!("  %{k} = const {k}: i64\n"));
            }
            s + "bb0:\n  ret\n}\n"
        };
        let callers = |n: usize| {
            let mut s = String::from("module t\n");
            for k in 0..n {
                s.push_str(&format!(
                    "\nfunc @f{k}() -> void {{\nbb0:\n  call @f{}()\n  ret\n}}\n",
                    n - 1
                ));
            }
            s
        };
        for (shape, small, large) in [
            ("constants", constants(15_000), constants(60_000)),
            ("callers", callers(5_000), callers(20_000)),
        ] {
            let (t1, t4) = (parse_seconds(&small), parse_seconds(&large));
            assert!(
                t4 < 8.0 * t1,
                "{shape}: {t1:.4} s, then {t4:.4} s for 4x the input"
            );
        }
    }
}
