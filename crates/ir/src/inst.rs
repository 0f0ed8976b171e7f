//! Instructions: the operations of the IR.

use crate::block::BlockId;
use crate::function::FuncId;
use crate::types::Type;
use crate::value::ValueId;
use std::fmt;

/// Binary integer/float arithmetic and bitwise operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division (traps on division by zero in the interpreter).
    Sdiv,
    /// Unsigned division.
    Udiv,
    /// Signed remainder.
    Srem,
    /// Unsigned remainder.
    Urem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left.
    Shl,
    /// Logical (unsigned) shift right.
    Lshr,
    /// Arithmetic (signed) shift right.
    Ashr,
    /// Float addition (operands must be `f64`).
    Fadd,
    /// Float subtraction.
    Fsub,
    /// Float multiplication.
    Fmul,
    /// Float division.
    Fdiv,
}

impl BinOp {
    /// Whether the operator works on floats rather than integers.
    #[must_use]
    pub fn is_float(self) -> bool {
        matches!(self, BinOp::Fadd | BinOp::Fsub | BinOp::Fmul | BinOp::Fdiv)
    }

    /// Mnemonic as used by the printer/parser.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Sdiv => "sdiv",
            BinOp::Udiv => "udiv",
            BinOp::Srem => "srem",
            BinOp::Urem => "urem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Lshr => "lshr",
            BinOp::Ashr => "ashr",
            BinOp::Fadd => "fadd",
            BinOp::Fsub => "fsub",
            BinOp::Fmul => "fmul",
            BinOp::Fdiv => "fdiv",
        }
    }

    /// Inverse of [`BinOp::mnemonic`], from text or bytes.
    #[must_use]
    pub fn from_mnemonic(s: impl AsRef<[u8]>) -> Option<BinOp> {
        Some(match s.as_ref() {
            b"add" => BinOp::Add,
            b"sub" => BinOp::Sub,
            b"mul" => BinOp::Mul,
            b"sdiv" => BinOp::Sdiv,
            b"udiv" => BinOp::Udiv,
            b"srem" => BinOp::Srem,
            b"urem" => BinOp::Urem,
            b"and" => BinOp::And,
            b"or" => BinOp::Or,
            b"xor" => BinOp::Xor,
            b"shl" => BinOp::Shl,
            b"lshr" => BinOp::Lshr,
            b"ashr" => BinOp::Ashr,
            b"fadd" => BinOp::Fadd,
            b"fsub" => BinOp::Fsub,
            b"fmul" => BinOp::Fmul,
            b"fdiv" => BinOp::Fdiv,
            _ => return None,
        })
    }
}

/// Integer comparison predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
    /// Signed greater-than.
    Sgt,
    /// Signed greater-or-equal.
    Sge,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
    /// Unsigned greater-than.
    Ugt,
    /// Unsigned greater-or-equal.
    Uge,
}

impl Pred {
    /// Mnemonic as used by the printer/parser.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Pred::Eq => "eq",
            Pred::Ne => "ne",
            Pred::Slt => "slt",
            Pred::Sle => "sle",
            Pred::Sgt => "sgt",
            Pred::Sge => "sge",
            Pred::Ult => "ult",
            Pred::Ule => "ule",
            Pred::Ugt => "ugt",
            Pred::Uge => "uge",
        }
    }

    /// Inverse of [`Pred::mnemonic`], from text or bytes.
    #[must_use]
    pub fn from_mnemonic(s: impl AsRef<[u8]>) -> Option<Pred> {
        Some(match s.as_ref() {
            b"eq" => Pred::Eq,
            b"ne" => Pred::Ne,
            b"slt" => Pred::Slt,
            b"sle" => Pred::Sle,
            b"sgt" => Pred::Sgt,
            b"sge" => Pred::Sge,
            b"ult" => Pred::Ult,
            b"ule" => Pred::Ule,
            b"ugt" => Pred::Ugt,
            b"uge" => Pred::Uge,
            _ => return None,
        })
    }

    /// The predicate with operands swapped (`a < b` ⇔ `b > a`).
    #[must_use]
    pub fn swapped(self) -> Pred {
        match self {
            Pred::Eq => Pred::Eq,
            Pred::Ne => Pred::Ne,
            Pred::Slt => Pred::Sgt,
            Pred::Sle => Pred::Sge,
            Pred::Sgt => Pred::Slt,
            Pred::Sge => Pred::Sle,
            Pred::Ult => Pred::Ugt,
            Pred::Ule => Pred::Uge,
            Pred::Ugt => Pred::Ult,
            Pred::Uge => Pred::Ule,
        }
    }

    /// The logically negated predicate (`a < b` ⇔ `!(a >= b)`).
    #[must_use]
    pub fn negated(self) -> Pred {
        match self {
            Pred::Eq => Pred::Ne,
            Pred::Ne => Pred::Eq,
            Pred::Slt => Pred::Sge,
            Pred::Sle => Pred::Sgt,
            Pred::Sgt => Pred::Sle,
            Pred::Sge => Pred::Slt,
            Pred::Ult => Pred::Uge,
            Pred::Ule => Pred::Ugt,
            Pred::Ugt => Pred::Ule,
            Pred::Uge => Pred::Ult,
        }
    }
}

/// Scalar conversion operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastOp {
    /// Truncate an integer to a narrower type.
    Trunc,
    /// Zero-extend an integer to a wider type.
    Zext,
    /// Sign-extend an integer to a wider type.
    Sext,
    /// Reinterpret an integer as a pointer.
    IntToPtr,
    /// Reinterpret a pointer as an integer.
    PtrToInt,
}

impl CastOp {
    /// Mnemonic as used by the printer/parser.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastOp::Trunc => "trunc",
            CastOp::Zext => "zext",
            CastOp::Sext => "sext",
            CastOp::IntToPtr => "inttoptr",
            CastOp::PtrToInt => "ptrtoint",
        }
    }

    /// Inverse of [`CastOp::mnemonic`], from text or bytes.
    #[must_use]
    pub fn from_mnemonic(s: impl AsRef<[u8]>) -> Option<CastOp> {
        Some(match s.as_ref() {
            b"trunc" => CastOp::Trunc,
            b"zext" => CastOp::Zext,
            b"sext" => CastOp::Sext,
            b"inttoptr" => CastOp::IntToPtr,
            b"ptrtoint" => CastOp::PtrToInt,
            _ => return None,
        })
    }
}

/// The operation an instruction performs.
#[derive(Debug, Clone)]
pub enum InstKind {
    /// Binary arithmetic: `result = op lhs, rhs`.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: ValueId,
        /// Right operand.
        rhs: ValueId,
    },
    /// Integer comparison producing an `i1`.
    ICmp {
        /// The comparison predicate.
        pred: Pred,
        /// Left operand.
        lhs: ValueId,
        /// Right operand.
        rhs: ValueId,
    },
    /// Branchless conditional: `result = cond ? then_val : else_val`.
    Select {
        /// An `i1` selector.
        cond: ValueId,
        /// Value when `cond` is true.
        then_val: ValueId,
        /// Value when `cond` is false.
        else_val: ValueId,
    },
    /// Scalar conversion.
    Cast {
        /// The conversion operator.
        op: CastOp,
        /// Input value.
        val: ValueId,
        /// Destination type.
        to: Type,
    },
    /// Heap allocation of `count` elements of `elem_size` bytes each;
    /// yields a pointer. The element count is an operand so the pass can
    /// recover array bounds by walking the data-dependence graph (§4.2).
    Alloc {
        /// Number of elements (any integer value).
        count: ValueId,
        /// Static size of one element in bytes.
        elem_size: u64,
    },
    /// Address computation: `result = base + index * elem_size + offset`.
    ///
    /// `offset` is a static byte displacement, used for field accesses
    /// (e.g. `node->next` is `gep node, 0, node_size` with offset 8).
    Gep {
        /// Base pointer.
        base: ValueId,
        /// Scaled index (any integer value, sign-extended).
        index: ValueId,
        /// Static element size in bytes.
        elem_size: u64,
        /// Static byte offset added after scaling.
        offset: u64,
    },
    /// Memory read of a `ty`-sized scalar.
    Load {
        /// Address operand (must be `ptr`).
        addr: ValueId,
        /// Loaded type.
        ty: Type,
    },
    /// Memory write of a scalar.
    Store {
        /// Address operand (must be `ptr`).
        addr: ValueId,
        /// Value to store.
        value: ValueId,
    },
    /// Non-binding, non-faulting cache-fill hint — the software prefetch
    /// instruction of the paper. Never traps, never changes program state.
    Prefetch {
        /// Address to prefetch (may be invalid; the hint is dropped).
        addr: ValueId,
    },
    /// SSA phi node: selects an incoming value by predecessor block.
    Phi {
        /// `(predecessor, value)` pairs.
        incomings: Vec<(BlockId, ValueId)>,
    },
    /// Direct call to another function in the module.
    Call {
        /// Callee.
        callee: FuncId,
        /// Actual arguments.
        args: Vec<ValueId>,
    },
    /// Unconditional branch.
    Br {
        /// Successor block.
        target: BlockId,
    },
    /// Two-way conditional branch on an `i1`.
    CondBr {
        /// Condition.
        cond: ValueId,
        /// Successor when true.
        then_bb: BlockId,
        /// Successor when false.
        else_bb: BlockId,
    },
    /// Function return.
    Ret {
        /// Returned value, if the function is non-void.
        value: Option<ValueId>,
    },
}

/// An instruction: its operation plus the block that contains it.
#[derive(Debug, Clone)]
pub struct Inst {
    /// The operation.
    pub kind: InstKind,
    /// Owning basic block.
    pub block: BlockId,
}

/// The (at most two) successor blocks of a terminator, held inline so
/// CFG walks never touch the allocator. Dereferences to a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Successors {
    len: u8,
    blocks: [BlockId; 2],
}

impl Successors {
    /// No successors: a `ret`, a non-terminator, an unterminated block.
    pub const NONE: Successors = Successors {
        len: 0,
        blocks: [BlockId(0); 2],
    };
}

impl std::ops::Deref for Successors {
    type Target = [BlockId];

    fn deref(&self) -> &[BlockId] {
        &self.blocks[..usize::from(self.len)]
    }
}

impl IntoIterator for Successors {
    type Item = BlockId;
    type IntoIter = std::iter::Take<std::array::IntoIter<BlockId, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.blocks.into_iter().take(usize::from(self.len))
    }
}

impl Inst {
    /// Whether this instruction ends a basic block.
    #[must_use]
    pub fn is_terminator(&self) -> bool {
        matches!(
            self.kind,
            InstKind::Br { .. } | InstKind::CondBr { .. } | InstKind::Ret { .. }
        )
    }

    /// Append all value operands to `out`.
    ///
    /// For phis this includes every incoming value; callers doing
    /// dependence analysis may instead want
    /// [`InstKind::Phi`]'s `incomings` directly.
    pub fn operands_into(&self, out: &mut Vec<ValueId>) {
        match &self.kind {
            InstKind::Binary { lhs, rhs, .. } | InstKind::ICmp { lhs, rhs, .. } => {
                out.push(*lhs);
                out.push(*rhs);
            }
            InstKind::Select {
                cond,
                then_val,
                else_val,
            } => {
                out.push(*cond);
                out.push(*then_val);
                out.push(*else_val);
            }
            InstKind::Cast { val, .. } => out.push(*val),
            InstKind::Alloc { count, .. } => out.push(*count),
            InstKind::Gep { base, index, .. } => {
                out.push(*base);
                out.push(*index);
            }
            InstKind::Load { addr, .. } | InstKind::Prefetch { addr } => out.push(*addr),
            InstKind::Store { addr, value } => {
                out.push(*addr);
                out.push(*value);
            }
            InstKind::Phi { incomings } => out.extend(incomings.iter().map(|(_, v)| *v)),
            InstKind::Call { args, .. } => out.extend(args.iter().copied()),
            InstKind::Br { .. } => {}
            InstKind::CondBr { cond, .. } => out.push(*cond),
            InstKind::Ret { value } => out.extend(value.iter().copied()),
        }
    }

    /// Visit every value operand in place, in [`Inst::operands_into`]
    /// order — the one place that knows where each instruction kind
    /// keeps its operands, for rewrites through a side table.
    pub fn for_each_operand_mut(&mut self, mut visit: impl FnMut(&mut ValueId)) {
        match &mut self.kind {
            InstKind::Binary { lhs, rhs, .. } | InstKind::ICmp { lhs, rhs, .. } => {
                visit(lhs);
                visit(rhs);
            }
            InstKind::Select {
                cond,
                then_val,
                else_val,
            } => {
                visit(cond);
                visit(then_val);
                visit(else_val);
            }
            InstKind::Cast { val, .. } => visit(val),
            InstKind::Alloc { count, .. } => visit(count),
            InstKind::Gep { base, index, .. } => {
                visit(base);
                visit(index);
            }
            InstKind::Load { addr, .. } | InstKind::Prefetch { addr } => visit(addr),
            InstKind::Store { addr, value } => {
                visit(addr);
                visit(value);
            }
            InstKind::Phi { incomings } => {
                for (_, v) in incomings.iter_mut() {
                    visit(v);
                }
            }
            InstKind::Call { args, .. } => {
                for a in args.iter_mut() {
                    visit(a);
                }
            }
            InstKind::Br { .. } => {}
            InstKind::CondBr { cond, .. } => visit(cond),
            InstKind::Ret { value } => {
                if let Some(v) = value {
                    visit(v);
                }
            }
        }
    }

    /// Replace every operand equal to `from` with `to`. Returns the number
    /// of replacements performed.
    pub fn replace_uses(&mut self, from: ValueId, to: ValueId) -> usize {
        let mut n = 0;
        self.for_each_operand_mut(|v| {
            if *v == from {
                *v = to;
                n += 1;
            }
        });
        n
    }

    /// The block successors of a terminator (empty for non-terminators).
    #[must_use]
    pub fn successors(&self) -> Successors {
        match &self.kind {
            InstKind::Br { target } => Successors {
                len: 1,
                blocks: [*target, BlockId(0)],
            },
            InstKind::CondBr {
                then_bb, else_bb, ..
            } => Successors {
                len: 2,
                blocks: [*then_bb, *else_bb],
            },
            _ => Successors::NONE,
        }
    }
}

impl fmt::Display for InstKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstKind::Binary { op, lhs, rhs } => write!(f, "{} {lhs}, {rhs}", op.mnemonic()),
            InstKind::ICmp { pred, lhs, rhs } => {
                write!(f, "icmp {} {lhs}, {rhs}", pred.mnemonic())
            }
            InstKind::Select {
                cond,
                then_val,
                else_val,
            } => write!(f, "select {cond}, {then_val}, {else_val}"),
            InstKind::Cast { op, val, to } => write!(f, "{} {val} to {to}", op.mnemonic()),
            InstKind::Alloc { count, elem_size } => write!(f, "alloc {count} x {elem_size}"),
            InstKind::Gep {
                base,
                index,
                elem_size,
                offset,
            } => {
                if *offset == 0 {
                    write!(f, "gep {base}, {index} x {elem_size}")
                } else {
                    write!(f, "gep {base}, {index} x {elem_size} + {offset}")
                }
            }
            InstKind::Load { addr, ty } => write!(f, "load {ty}, {addr}"),
            InstKind::Store { addr, value } => write!(f, "store {value}, {addr}"),
            InstKind::Prefetch { addr } => write!(f, "prefetch {addr}"),
            InstKind::Phi { incomings } => {
                write!(f, "phi ")?;
                for (i, (b, v)) in incomings.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "[{b}: {v}]")?;
                }
                Ok(())
            }
            InstKind::Call { callee, args } => {
                write!(f, "call @{}(", callee.0)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            InstKind::Br { target } => write!(f, "br {target}"),
            InstKind::CondBr {
                cond,
                then_bb,
                else_bb,
            } => write!(f, "br {cond}, {then_bb}, {else_bb}"),
            InstKind::Ret { value } => match value {
                Some(v) => write!(f, "ret {v}"),
                None => write!(f, "ret"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(kind: InstKind) -> Inst {
        Inst {
            kind,
            block: BlockId(0),
        }
    }

    fn operands(i: &Inst) -> Vec<ValueId> {
        let mut ops = Vec::new();
        i.operands_into(&mut ops);
        ops
    }

    #[test]
    fn operand_collection() {
        let i = inst(InstKind::Store {
            addr: ValueId(1),
            value: ValueId(2),
        });
        assert_eq!(operands(&i), vec![ValueId(1), ValueId(2)]);
        let b = inst(InstKind::Br { target: BlockId(3) });
        assert!(operands(&b).is_empty());
        assert!(b.is_terminator());
    }

    #[test]
    fn replace_uses_counts() {
        let mut i = inst(InstKind::Binary {
            op: BinOp::Add,
            lhs: ValueId(5),
            rhs: ValueId(5),
        });
        assert_eq!(i.replace_uses(ValueId(5), ValueId(9)), 2);
        assert_eq!(operands(&i), vec![ValueId(9), ValueId(9)]);
        assert_eq!(i.replace_uses(ValueId(5), ValueId(1)), 0);
    }

    #[test]
    fn successors_of_terminators() {
        let c = inst(InstKind::CondBr {
            cond: ValueId(0),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        });
        assert_eq!(*c.successors(), [BlockId(1), BlockId(2)]);
        let r = inst(InstKind::Ret { value: None });
        assert!(r.successors().is_empty());
    }

    #[test]
    fn pred_negation_and_swap() {
        assert_eq!(Pred::Slt.negated(), Pred::Sge);
        assert_eq!(Pred::Slt.swapped(), Pred::Sgt);
        assert_eq!(Pred::Eq.swapped(), Pred::Eq);
        for p in [
            Pred::Eq,
            Pred::Ne,
            Pred::Slt,
            Pred::Sle,
            Pred::Sgt,
            Pred::Sge,
            Pred::Ult,
            Pred::Ule,
            Pred::Ugt,
            Pred::Uge,
        ] {
            assert_eq!(p.negated().negated(), p);
            assert_eq!(p.swapped().swapped(), p);
            assert_eq!(Pred::from_mnemonic(p.mnemonic()), Some(p));
        }
    }

    #[test]
    fn mnemonic_roundtrips() {
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Sdiv,
            BinOp::Udiv,
            BinOp::Srem,
            BinOp::Urem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Lshr,
            BinOp::Ashr,
            BinOp::Fadd,
            BinOp::Fsub,
            BinOp::Fmul,
            BinOp::Fdiv,
        ] {
            assert_eq!(BinOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        for op in [
            CastOp::Trunc,
            CastOp::Zext,
            CastOp::Sext,
            CastOp::IntToPtr,
            CastOp::PtrToInt,
        ] {
            assert_eq!(CastOp::from_mnemonic(op.mnemonic()), Some(op));
        }
    }
}
