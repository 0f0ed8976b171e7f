//! Parser for the textual form produced by [`crate::printer`].
//!
//! The grammar is exactly what the printer emits; see the printer docs.
//! Comments start with `;` and run to end of line.

use crate::block::BlockId;
use crate::function::{FuncId, Purity};
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

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// A line without its `;` comment and surrounding whitespace.
fn content(line: &str) -> &str {
    line.find(';').map_or(line, |p| &line[..p]).trim()
}

/// The cursor over the input: yields `(1-based line number, content)`
/// for every line that is non-empty once its comment and surrounding
/// whitespace are stripped. Borrows from the text; cloning it forks the
/// position.
#[derive(Clone)]
struct Lines<'a> {
    inner: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> Iterator for Lines<'a> {
    type Item = (usize, &'a str);

    fn next(&mut self) -> Option<(usize, &'a str)> {
        for (i, l) in self.inner.by_ref() {
            let l = content(l);
            if !l.is_empty() {
                return Some((i + 1, l));
            }
        }
        None
    }
}

/// Parse a module from its textual form.
///
/// # Errors
/// Returns a [`ParseError`] describing the first malformed line.
pub fn parse_module(text: &str) -> PResult<Module> {
    let mut lines = Lines {
        inner: text.lines().enumerate(),
    };
    let (first_line, first) = lines.next().ok_or_else(|| err(1, "empty input"))?;
    let name = first
        .strip_prefix("module ")
        .ok_or_else(|| err(first_line, "expected `module <name>`"))?
        .trim();
    let mut m = Module::new(name);

    // First pass: declare every function header so calls can resolve by
    // name. A comment cannot hide a `func @` prefix, so only header
    // lines pay for comment stripping here.
    let mut params = Vec::new();
    for (i, raw) in lines.clone().inner {
        if !raw.trim_start().starts_with("func @") {
            continue;
        }
        let h = parse_header(i + 1, content(raw), &mut params)?;
        let fid = m.declare_function(h.name, &params, h.ret);
        m.function_mut(fid).purity = h.purity;
    }

    // Second pass: bodies.
    let mut scratch = BodyScratch::default();
    let mut fcount = 0u32;
    while let Some((ln, l)) = lines.next() {
        if !l.starts_with("func @") {
            return Err(err(ln, "expected `func`"));
        }
        parse_body(&mut m, FuncId(fcount), ln, &mut lines, &mut scratch)?;
        fcount += 1;
    }
    Ok(m)
}

struct Header<'a> {
    name: &'a str,
    ret: Option<Type>,
    purity: Purity,
}

/// Parse `func @name(%0: ty, ...) -> ret [pure|readonly] {`, leaving the
/// parameter types in `params`.
fn parse_header<'a>(line: usize, l: &'a str, params: &mut Vec<Type>) -> PResult<Header<'a>> {
    let perr = |msg: &str| err(line, msg);
    let rest = l.strip_prefix("func @").ok_or_else(|| perr("not a func"))?;
    let open = rest.find('(').ok_or_else(|| perr("missing `(`"))?;
    let close = rest.find(')').ok_or_else(|| perr("missing `)`"))?;
    if close < open {
        return Err(perr("`)` before `(`"));
    }
    params.clear();
    for p in rest[open + 1..close]
        .split(',')
        .filter(|s| !s.trim().is_empty())
    {
        let (_n, t) = p
            .split_once(':')
            .ok_or_else(|| perr("param missing type"))?;
        params.push(Type::from_name(t.trim()).ok_or_else(|| perr("bad param type"))?);
    }
    let tail = rest[close + 1..].trim();
    let tail = tail
        .strip_prefix("->")
        .ok_or_else(|| perr("missing return type"))?
        .trim();
    let tail = tail
        .strip_suffix('{')
        .ok_or_else(|| perr("missing `{`"))?
        .trim();
    let (ret_txt, purity) = if let Some(t) = tail.strip_suffix("pure") {
        (t.trim(), Purity::Pure)
    } else if let Some(t) = tail.strip_suffix("readonly") {
        (t.trim(), Purity::ReadOnly)
    } else {
        (tail, Purity::Impure)
    };
    let ret = if ret_txt == "void" {
        None
    } else {
        Some(Type::from_name(ret_txt).ok_or_else(|| perr("bad return type"))?)
    };
    Ok(Header {
        name: &rest[..open],
        ret,
        purity,
    })
}

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
    dense: Vec<Option<ValueId>>,
    other: HashMap<&'a str, ValueId>,
}

/// `n` of a canonical `%n` (no sign, no leading zeros, fits `u32`).
fn decimal_name(name: &str) -> Option<usize> {
    let digits = name.strip_prefix('%')?.as_bytes();
    let canonical = match digits {
        [] => false,
        [b'0'] => true,
        [first, ..] => *first != b'0' && digits.len() <= 10,
    };
    if !canonical || !digits.iter().all(u8::is_ascii_digit) {
        return None;
    }
    let n = digits
        .iter()
        .fold(0u64, |n, d| n * 10 + u64::from(d - b'0'));
    u32::try_from(n).ok().map(|n| n as usize)
}

impl<'a> Names<'a> {
    fn clear(&mut self) {
        self.dense.clear();
        self.other.clear();
    }

    /// Bind `name` to `id`; a later binding of the same name wins.
    /// `num_values` is the arena size, the bound on dense slots.
    fn define(&mut self, name: &'a str, id: ValueId, num_values: usize) {
        match decimal_name(name) {
            Some(n) if n < num_values => {
                if self.dense.len() <= n {
                    self.dense.resize(n + 1, None);
                }
                self.dense[n] = Some(id);
            }
            _ => {
                self.other.insert(name, id);
            }
        }
    }

    fn resolve(&self, name: &str, line: usize) -> PResult<ValueId> {
        let name = name.trim();
        decimal_name(name)
            .and_then(|n| self.dense.get(n).copied().flatten())
            .or_else(|| self.other.get(name).copied())
            .ok_or_else(|| err(line, format!("unknown value `{name}`")))
    }
}

/// An instruction line whose value slot exists but whose operands are
/// not resolved yet (forward references: phis).
struct Pending<'a> {
    line: usize,
    id: ValueId,
    text: &'a str,
}

/// Per-function parsing state, reused across the functions of a module.
#[derive(Default)]
struct BodyScratch<'a> {
    names: Names<'a>,
    pending: Vec<Pending<'a>>,
}

/// Parse one function body, from the line after its header (on line
/// `header_line`) through the closing `}`.
fn parse_body<'a>(
    m: &mut Module,
    fid: FuncId,
    header_line: usize,
    lines: &mut Lines<'a>,
    scratch: &mut BodyScratch<'a>,
) -> PResult<()> {
    let BodyScratch { names, pending } = scratch;
    names.clear();
    pending.clear();
    let f = m.function_mut(fid);
    for i in 0..f.params.len() {
        names.dense.push(Some(ValueId(i as u32)));
    }

    let mut blocks_seen = 0usize;
    let mut cur_block: Option<BlockId> = None;

    // Create a value slot per line until `}`, so that forward
    // references resolve.
    loop {
        let Some((ln, l)) = lines.next() else {
            return Err(err(header_line, "unterminated function"));
        };
        if l == "}" {
            break;
        }
        if let Some(label) = l.strip_suffix(':') {
            if !label.starts_with("bb") {
                return Err(err(ln, format!("bad block label `{label}`")));
            }
            cur_block = Some(if blocks_seen == 0 {
                f.entry()
            } else {
                f.add_block(label)
            });
            blocks_seen += 1;
            continue;
        }
        let assignment = l.split_once('=');
        // `%n = const 42: i64` lines.
        if let Some((lhs, rhs)) = assignment {
            if let Some(cexpr) = rhs.trim().strip_prefix("const ") {
                let (v, t) = cexpr
                    .split_once(':')
                    .ok_or_else(|| err(ln, "const missing type"))?;
                let ty = Type::from_name(t.trim()).ok_or_else(|| err(ln, "bad const type"))?;
                let c = if ty == Type::F64 {
                    Constant::Float(
                        v.trim()
                            .parse()
                            .map_err(|_| err(ln, "bad float constant"))?,
                    )
                } else {
                    Constant::Int(
                        v.trim().parse().map_err(|_| err(ln, "bad int constant"))?,
                        ty,
                    )
                };
                let id = f.add_const(c);
                let name = lhs.split_once(':').map_or(lhs, |(name, _)| name).trim();
                names.define(name, id, f.num_values());
                continue;
            }
        }
        let block = cur_block.ok_or_else(|| err(ln, "instruction before first block label"))?;
        // `%n: ty = <inst>` or bare `<inst>`.
        let (result, text) = match assignment {
            Some((lhs, rhs)) if lhs.trim_start().starts_with('%') => {
                let (nm, ty) = lhs
                    .split_once(':')
                    .ok_or_else(|| err(ln, "result missing type annotation"))?;
                let ty = Type::from_name(ty.trim()).ok_or_else(|| err(ln, "bad result type"))?;
                (Some((nm.trim(), ty)), rhs.trim())
            }
            _ => (None, l),
        };
        // The kind is a placeholder, patched once every name is known.
        let id = f.create_inst(InstKind::Ret { value: None }, result.map(|(_, t)| t), block);
        f.push_inst(id);
        if let Some((nm, _)) = result {
            names.define(nm, id, f.num_values());
        }
        pending.push(Pending { line: ln, id, text });
    }

    // Resolve operands and patch instruction kinds.
    let nblocks = f.num_blocks();
    for p in pending.iter() {
        let kind = parse_inst_text(m, p.text, p.line, names, nblocks)?;
        m.function_mut(fid)
            .inst_mut(p.id)
            .expect("pending ids are the instruction slots created above")
            .kind = kind;
    }
    Ok(())
}

/// Resolve a `bb<n>` reference against a function of `nblocks` blocks.
fn lookup_block(s: &str, line: usize, nblocks: usize) -> PResult<BlockId> {
    let n: u32 = s
        .strip_prefix("bb")
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| err(line, format!("bad block ref `{s}`")))?;
    if (n as usize) < nblocks {
        Ok(BlockId(n))
    } else {
        Err(err(line, format!("unknown block `{s}`")))
    }
}

/// Exactly three comma-separated parts, or `None`.
fn three_parts(s: &str) -> Option<[&str; 3]> {
    let mut parts = s.split(',');
    let three = [parts.next()?, parts.next()?, parts.next()?];
    parts.next().is_none().then_some(three)
}

fn parse_inst_text(
    m: &Module,
    text: &str,
    line: usize,
    names: &Names<'_>,
    nblocks: usize,
) -> PResult<InstKind> {
    let perr = |msg: String| err(line, msg);
    let resolve = |s: &str| names.resolve(s, line);
    let (op, rest) = match text.split_once(' ') {
        Some((a, b)) => (a, b.trim()),
        None => (text, ""),
    };
    let two_ops = |rest: &str| -> PResult<(ValueId, ValueId)> {
        let (a, b) = rest
            .split_once(',')
            .ok_or_else(|| perr(format!("expected two operands in `{text}`")))?;
        Ok((resolve(a)?, resolve(b)?))
    };

    if let Some(binop) = BinOp::from_mnemonic(op) {
        let (a, b) = two_ops(rest)?;
        return Ok(InstKind::Binary {
            op: binop,
            lhs: a,
            rhs: b,
        });
    }
    if let Some(castop) = CastOp::from_mnemonic(op) {
        let (v, t) = rest
            .split_once(" to ")
            .ok_or_else(|| perr("cast missing `to`".into()))?;
        return Ok(InstKind::Cast {
            op: castop,
            val: resolve(v)?,
            to: Type::from_name(t.trim()).ok_or_else(|| perr("bad cast type".into()))?,
        });
    }
    match op {
        "icmp" => {
            let (pred, ops) = rest
                .split_once(' ')
                .ok_or_else(|| perr("icmp missing predicate".into()))?;
            let pred = Pred::from_mnemonic(pred).ok_or_else(|| perr("bad predicate".into()))?;
            let (a, b) = two_ops(ops)?;
            Ok(InstKind::ICmp {
                pred,
                lhs: a,
                rhs: b,
            })
        }
        "select" => {
            let [c, t, e] =
                three_parts(rest).ok_or_else(|| perr("select needs three operands".into()))?;
            Ok(InstKind::Select {
                cond: resolve(c)?,
                then_val: resolve(t)?,
                else_val: resolve(e)?,
            })
        }
        "alloc" => {
            let (c, sz) = rest
                .split_once(" x ")
                .ok_or_else(|| perr("alloc missing `x`".into()))?;
            Ok(InstKind::Alloc {
                count: resolve(c)?,
                elem_size: sz
                    .trim()
                    .parse()
                    .map_err(|_| perr("bad elem size".into()))?,
            })
        }
        "gep" => {
            let (base, rest2) = rest
                .split_once(',')
                .ok_or_else(|| perr("gep missing index".into()))?;
            let (idx_part, off) = match rest2.split_once('+') {
                Some((a, o)) => (
                    a,
                    o.trim()
                        .parse::<u64>()
                        .map_err(|_| perr("bad gep offset".into()))?,
                ),
                None => (rest2, 0),
            };
            let (i, sz) = idx_part
                .split_once(" x ")
                .ok_or_else(|| perr("gep missing `x`".into()))?;
            Ok(InstKind::Gep {
                base: resolve(base)?,
                index: resolve(i)?,
                elem_size: sz
                    .trim()
                    .parse()
                    .map_err(|_| perr("bad elem size".into()))?,
                offset: off,
            })
        }
        "load" => {
            let (t, a) = rest
                .split_once(',')
                .ok_or_else(|| perr("load missing address".into()))?;
            Ok(InstKind::Load {
                ty: Type::from_name(t.trim()).ok_or_else(|| perr("bad load type".into()))?,
                addr: resolve(a)?,
            })
        }
        "store" => {
            let (v, a) = two_ops(rest)?;
            Ok(InstKind::Store { addr: a, value: v })
        }
        "prefetch" => Ok(InstKind::Prefetch {
            addr: resolve(rest)?,
        }),
        "phi" => {
            let mut incomings = Vec::with_capacity(rest.matches("],").count() + 1);
            for part in rest.split("],") {
                let part = part.trim().trim_start_matches('[').trim_end_matches(']');
                let (b, v) = part
                    .split_once(':')
                    .ok_or_else(|| perr("phi incoming missing `:`".into()))?;
                incomings.push((lookup_block(b.trim(), line, nblocks)?, resolve(v)?));
            }
            Ok(InstKind::Phi { incomings })
        }
        "call" => {
            let rest = rest
                .strip_prefix('@')
                .ok_or_else(|| perr("call missing `@`".into()))?;
            let (fname, args_text) = rest
                .split_once('(')
                .ok_or_else(|| perr("call missing `(`".into()))?;
            let args_text = args_text
                .strip_suffix(')')
                .ok_or_else(|| perr("call missing `)`".into()))?;
            let callee = m
                .find_function(fname)
                .ok_or_else(|| perr(format!("unknown function `{fname}`")))?;
            let mut args = Vec::new();
            for a in args_text.split(',').filter(|s| !s.trim().is_empty()) {
                args.push(resolve(a)?);
            }
            Ok(InstKind::Call { callee, args })
        }
        "br" => {
            if rest.contains(',') {
                let [c, t, e] = three_parts(rest)
                    .ok_or_else(|| perr("conditional br needs cond and two targets".into()))?;
                Ok(InstKind::CondBr {
                    cond: resolve(c)?,
                    then_bb: lookup_block(t.trim(), line, nblocks)?,
                    else_bb: lookup_block(e.trim(), line, nblocks)?,
                })
            } else {
                Ok(InstKind::Br {
                    target: lookup_block(rest.trim(), line, nblocks)?,
                })
            }
        }
        "ret" => {
            if rest.is_empty() {
                Ok(InstKind::Ret { value: None })
            } else {
                Ok(InstKind::Ret {
                    value: Some(resolve(rest)?),
                })
            }
        }
        other => Err(perr(format!("unknown instruction `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_module;
    use crate::verifier::verify_module;

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
        assert_eq!(decimal_name("%0"), Some(0));
        assert_eq!(decimal_name("%42"), Some(42));
        assert_eq!(decimal_name("%4294967295"), Some(u32::MAX as usize));
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
            assert_eq!(decimal_name(symbolic), None, "{symbolic}");
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
}
