//! Canonical textual form of modules and functions.
//!
//! The printer renumbers values canonically (arguments, then constants in
//! id order, then instructions in block order), so `print ∘ parse ∘ print`
//! is the identity on printed text. Detached values (created but never
//! placed in a block) are not printed.

use crate::block::BlockId;
use crate::function::{Function, Purity};
use crate::inst::InstKind;
use crate::module::Module;
use crate::value::{Constant, ValueId};
use std::fmt::Write as _;

/// The output buffer and the current function's display numbering,
/// with chainable appenders — everything is written straight into the
/// one buffer, integers without `fmt`'s padding and dispatch machinery.
struct Text<'a> {
    out: &'a mut String,
    /// Canonical display number of every value (`u32::MAX`: not shown).
    display: &'a [u32],
}

impl Text<'_> {
    fn s(&mut self, s: &str) -> &mut Self {
        self.out.push_str(s);
        self
    }

    /// `v` in decimal.
    fn n(&mut self, mut v: u64) -> &mut Self {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.s(std::str::from_utf8(&buf[at..]).expect("ASCII digits"))
    }

    /// The signed `v` in decimal.
    fn i(&mut self, v: i64) -> &mut Self {
        self.s(if v < 0 { "-" } else { "" }).n(v.unsigned_abs())
    }

    fn v(&mut self, v: ValueId) -> &mut Self {
        let number = self.display[v.index()];
        self.s("%").n(u64::from(number))
    }

    /// `vs`, comma-separated.
    fn vs(&mut self, vs: &[ValueId]) -> &mut Self {
        for (i, v) in vs.iter().enumerate() {
            self.s(if i > 0 { ", " } else { "" }).v(*v);
        }
        self
    }

    fn bb(&mut self, b: BlockId) -> &mut Self {
        self.s("bb").n(u64::from(b.0))
    }
}

/// Per-function numbering scratch, reused across the functions of a
/// module.
#[derive(Default)]
struct Numbering {
    display: Vec<u32>,
    const_ids: Vec<ValueId>,
}

/// Room for `f`'s text: about 22 bytes a line in practice, a line per
/// value, block and function frame. Over-reserving is free, regrowing
/// copies.
fn size_hint(f: &Function) -> usize {
    32 * (f.num_values() + f.num_blocks() + 4)
}

/// Print a whole module.
#[must_use]
pub fn print_module(m: &Module) -> String {
    let functions: usize = m.func_ids().map(|f| size_hint(m.function(f))).sum();
    let mut printer = ModulePrinter::with_capacity(&m.name, functions);
    for f in m.func_ids() {
        printer.function(m, m.function(f));
    }
    printer.finish()
}

/// A module printed one function at a time, into the text
/// [`print_module`] makes of the whole.
///
/// Past what [`ModulePrinter::with_capacity`] reserved, the buffer grows
/// by a quarter at a time, not by doubling, so that its spare room stays
/// within a quarter of the text.
pub struct ModulePrinter {
    out: String,
    numbering: Numbering,
}

impl ModulePrinter {
    /// Start the text of module `name`, with room for `functions` bytes
    /// of functions.
    #[must_use]
    pub fn with_capacity(name: &str, functions: usize) -> Self {
        let mut out = String::with_capacity(functions + name.len() + 16);
        out.push_str("module ");
        out.push_str(name);
        out.push('\n');
        let numbering = Numbering::default();
        ModulePrinter { out, numbering }
    }

    /// Append `f`, a function of `m`.
    pub fn function(&mut self, m: &Module, f: &Function) {
        let (room, hint) = (self.out.capacity() - self.out.len(), size_hint(f));
        if room < hint {
            self.out.reserve_exact(hint.max(self.out.len() / 4));
        }
        self.out.push('\n');
        print_function_into(&mut self.out, m, f, &mut self.numbering, None);
    }

    /// The text.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

/// Print a single function in canonical form.
#[must_use]
pub fn print_function(m: &Module, f: &Function) -> String {
    let mut out = String::with_capacity(size_hint(f));
    print_function_into(&mut out, m, f, &mut Numbering::default(), None);
    out
}

/// Like [`print_function`], additionally reporting which placed
/// instruction each printed line renders (`None` for the header,
/// constants, block labels, and the closing brace).
///
/// The [`ValueId`]s are the function's own ids — the same ids execution
/// images and simulators encode into event PCs (`pc = fid << 32 | id`) —
/// so a per-PC profile can be joined line-by-line against the printed
/// text. This is the `perf annotate` join key.
#[must_use]
pub fn print_function_lines(m: &Module, f: &Function) -> (String, Vec<Option<ValueId>>) {
    let mut lines = Vec::new();
    let mut text = String::with_capacity(size_hint(f));
    print_function_into(&mut text, m, f, &mut Numbering::default(), Some(&mut lines));
    (text, lines)
}

fn print_function_into(
    out: &mut String,
    m: &Module,
    f: &Function,
    numbering: &mut Numbering,
    mut lines: Option<&mut Vec<Option<ValueId>>>,
) {
    let mut mark = |v: Option<ValueId>| {
        if let Some(lines) = lines.as_deref_mut() {
            lines.push(v);
        }
    };
    // Canonical numbering: args, then referenced constants, then placed insts.
    let Numbering { display, const_ids } = numbering;
    display.clear();
    display.resize(f.num_values(), u32::MAX);
    let mut next = 0u32;
    for slot in display.iter_mut().take(f.params.len()) {
        *slot = next;
        next += 1;
    }
    const_ids.clear();
    for idx in 0..f.num_values() {
        if f.value(ValueId(idx as u32)).is_const() {
            const_ids.push(ValueId(idx as u32));
        }
    }
    for &c in const_ids.iter() {
        display[c.index()] = next;
        next += 1;
    }
    for v in f.all_insts() {
        display[v.index()] = next;
        next += 1;
    }
    let mut t = Text { out, display };

    t.s("func @").s(&f.name).s("(");
    for (i, p) in f.params.iter().enumerate() {
        t.s(if i > 0 { ", %" } else { "%" }).n(i as u64);
        t.s(": ").s(p.name());
    }
    t.s(") -> ").s(f.ret.map_or("void", |ty| ty.name()));
    t.s(match f.purity {
        Purity::Pure => " pure {\n",
        Purity::ReadOnly => " readonly {\n",
        Purity::Impure => " {\n",
    });
    mark(None);

    for &c in const_ids.iter() {
        t.s("  ").v(c).s(" = const ");
        match f.constant(c) {
            Some(Constant::Int(v, ty)) => {
                t.i(v).s(": ").s(ty.name()).s("\n");
            }
            Some(Constant::Float(v)) => {
                let _ = writeln!(t.out, "{v:?}: f64");
            }
            None => unreachable!("const_ids holds constants only"),
        }
        mark(None);
    }

    for b in f.block_ids() {
        t.bb(b).s(":\n");
        mark(None);
        for &v in &f.block(b).insts {
            let inst = f.inst(v).expect("placed value is an instruction");
            t.s("  ");
            if let Some(ty) = f.value(v).ty {
                t.v(v).s(": ").s(ty.name()).s(" = ");
            }
            render_kind(&mut t, m, &inst.kind);
            if let Some(name) = &f.value(v).name {
                t.s(" ; ").s(name);
            }
            t.s("\n");
            mark(Some(v));
        }
    }
    t.s("}\n");
    mark(None);
}

/// Render one instruction with display numbering.
fn render_kind(t: &mut Text<'_>, m: &Module, kind: &InstKind) {
    match kind {
        InstKind::Binary { op, lhs, rhs } => t.s(op.mnemonic()).s(" ").vs(&[*lhs, *rhs]),
        InstKind::ICmp { pred, lhs, rhs } => {
            t.s("icmp ").s(pred.mnemonic()).s(" ").vs(&[*lhs, *rhs])
        }
        InstKind::Select {
            cond,
            then_val,
            else_val,
        } => t.s("select ").vs(&[*cond, *then_val, *else_val]),
        InstKind::Cast { op, val, to } => t.s(op.mnemonic()).s(" ").v(*val).s(" to ").s(to.name()),
        InstKind::Alloc { count, elem_size } => t.s("alloc ").v(*count).s(" x ").n(*elem_size),
        InstKind::Gep {
            base,
            index,
            elem_size,
            offset,
        } => {
            t.s("gep ").vs(&[*base, *index]).s(" x ").n(*elem_size);
            match offset {
                0 => t,
                _ => t.s(" + ").n(*offset),
            }
        }
        InstKind::Load { addr, ty } => t.s("load ").s(ty.name()).s(", ").v(*addr),
        InstKind::Store { addr, value } => t.s("store ").vs(&[*value, *addr]),
        InstKind::Prefetch { addr } => t.s("prefetch ").v(*addr),
        InstKind::Phi { incomings } => {
            t.s("phi ");
            for (i, (b, v)) in incomings.iter().enumerate() {
                t.s(if i > 0 { ", [" } else { "[" }).bb(*b);
                t.s(": ").v(*v).s("]");
            }
            t
        }
        InstKind::Call { callee, args } => {
            let name = &m.function(*callee).name;
            t.s("call @").s(name).s("(").vs(args).s(")")
        }
        InstKind::Br { target } => t.s("br ").bb(*target),
        InstKind::CondBr {
            cond,
            then_bb,
            else_bb,
        } => {
            t.s("br ").v(*cond).s(", ").bb(*then_bb);
            t.s(", ").bb(*else_bb)
        }
        InstKind::Ret { value: Some(v) } => t.s("ret ").v(*v),
        InstKind::Ret { value: None } => t.s("ret"),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::Pred;
    use crate::types::Type;

    #[test]
    fn prints_loop_shape() {
        let mut m = Module::new("p");
        let fid = m.declare_function("k", &[Type::Ptr, Type::I64], None);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let entry = b.entry_block();
            let header = b.create_block("h");
            let body = b.create_block("b");
            let exit = b.create_block("x");
            let zero = b.const_i64(0);
            b.br(header);
            b.switch_to(header);
            let i = b.phi(Type::I64, &[(entry, zero)]);
            let c = b.icmp(Pred::Slt, i, b.arg(1));
            b.cond_br(c, body, exit);
            b.switch_to(body);
            let addr = b.gep(b.arg(0), i, 4);
            let v = b.load(Type::I32, addr);
            b.store(v, addr);
            let one = b.const_i64(1);
            let i2 = b.add(i, one);
            b.add_phi_incoming(i, body, i2);
            b.br(header);
            b.switch_to(exit);
            b.ret(None);
        }
        let text = print_module(&m);
        assert!(
            text.contains("func @k(%0: ptr, %1: i64) -> void {"),
            "{text}"
        );
        assert!(text.contains("phi [bb0:"), "{text}");
        assert!(text.contains("load i32"), "{text}");
        assert!(text.contains("icmp slt"), "{text}");
    }

    #[test]
    fn integers_print_as_display_does() {
        let mut out = String::new();
        let mut t = Text {
            out: &mut out,
            display: &[],
        };
        let values = [0, 1, 9, 10, 12345, i64::MAX, -1, -10, i64::MIN];
        for v in values {
            t.i(v).s(" ");
        }
        t.n(u64::MAX);
        let want: Vec<String> = values.iter().map(i64::to_string).collect();
        assert_eq!(out, format!("{} {}", want.join(" "), u64::MAX));
    }

    #[test]
    fn line_map_marks_exactly_the_placed_instructions() {
        let mut m = Module::new("p");
        let fid = m.declare_function("k", &[Type::Ptr, Type::I64], None);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let i = b.const_i64(3);
            let addr = b.gep(b.arg(0), i, 4);
            let v = b.load(Type::I32, addr);
            b.store(v, addr);
            b.ret(None);
        }
        let f = m.function(fid);
        let (text, lines) = print_function_lines(&m, f);
        let printed: Vec<&str> = text.lines().collect();
        assert_eq!(printed.len(), lines.len(), "one map entry per line");
        // Plain printing is unchanged by the instrumented path.
        assert_eq!(text, print_function(&m, f));
        // Each marked line is an instruction; the ids are the
        // function's own (pc-encodable) ids, in block order.
        let marked: Vec<ValueId> = lines.iter().flatten().copied().collect();
        assert_eq!(marked.len(), f.all_insts().count());
        for (line, v) in lines.iter().enumerate() {
            let Some(v) = v else { continue };
            assert!(f.inst(*v).is_some(), "marked line holds a placed inst");
            // The rendered line mentions the display number the printer
            // assigned — sanity that text and map stay in step.
            assert!(
                printed[line].starts_with("  "),
                "inst lines are indented: {:?}",
                printed[line]
            );
        }
    }
}
