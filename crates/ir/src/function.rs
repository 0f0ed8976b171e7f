//! Functions: value arenas plus a CFG of basic blocks.

use crate::block::{Block, BlockId};
use crate::inst::{Inst, InstKind, Successors};
use crate::types::Type;
use crate::value::{Constant, ValueData, ValueId, ValueKind};
use std::collections::HashMap;
use std::fmt;

/// Index of a function within its [`Module`](crate::module::Module).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

impl FuncId {
    /// The arena slot index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Side-effect contract of a function, used by the prefetching pass when
/// deciding whether a call may appear in prefetch address-generation code
/// (§4.1 of the paper: calls are rejected unless provably side-effect
/// free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Purity {
    /// May write memory or otherwise have observable effects.
    Impure,
    /// Reads memory at most; multiple executions are unobservable.
    ReadOnly,
    /// No memory access at all (a pure computation such as a hash mix).
    Pure,
}

/// A function: formal parameters, a value arena and basic blocks.
#[derive(Debug, Clone)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Parameter types, in order.
    pub params: Vec<Type>,
    /// Return type; `None` for void functions.
    pub ret: Option<Type>,
    /// Declared side-effect contract (checked against the body by
    /// [`crate::verifier::verify_module`]).
    pub purity: Purity,
    /// All values: arguments first, then constants/instructions in
    /// creation order. Only ever appended to (or dropped whole), and a
    /// constant never changes once pushed.
    values: Vec<ValueData>,
    /// Basic blocks; index 0 is the entry block.
    blocks: Vec<Block>,
    consts: ConstIndex,
}

/// Where each distinct constant of a function's value arena first
/// appears, for [`Function::add_const`]. It covers the arena's first
/// `indexed` values and catches up on the rest when asked, so appending
/// a value costs nothing here; a clone starts empty and catches up on
/// its first lookup, so cloning a function costs no more than its arena.
#[derive(Debug, Default)]
struct ConstIndex {
    first: HashMap<(bool, u64, Type), ValueId>,
    indexed: usize,
}

impl Clone for ConstIndex {
    fn clone(&self) -> Self {
        ConstIndex::default()
    }
}

/// What makes two constants one for interning: the kind, the bit
/// pattern (floats compare by bits) and the type.
fn const_key(c: Constant) -> (bool, u64, Type) {
    match c {
        Constant::Int(v, ty) => (false, v as u64, ty),
        Constant::Float(v) => (true, v.to_bits(), Type::F64),
    }
}

impl Function {
    /// Create a function with the given signature and an empty entry block.
    #[must_use]
    pub fn new(name: impl Into<String>, params: &[Type], ret: impl Into<Option<Type>>) -> Self {
        let mut f = Function::declaration(name.into(), params, ret.into());
        f.open_body();
        f
    }

    /// A function as its header declares it, without a body: no blocks,
    /// and no values, not even its arguments.
    pub(crate) fn declaration(name: String, params: &[Type], ret: Option<Type>) -> Self {
        Function {
            name,
            params: params.to_vec(),
            ret,
            purity: Purity::Impure,
            values: Vec::new(),
            blocks: Vec::new(),
            consts: ConstIndex::default(),
        }
    }

    /// Give a function without a body its arguments and an empty entry
    /// block.
    pub(crate) fn open_body(&mut self) {
        self.blocks.push(Block::default());
        for (i, &ty) in self.params.iter().enumerate() {
            self.values.push(ValueData {
                ty: Some(ty),
                kind: ValueKind::Arg { index: i as u32 },
                name: None,
            });
        }
    }

    /// Drop the body, arguments and entry block included, and keep the
    /// signature: the name, parameter and return types and purity that
    /// a caller's verification and printing read, which is all that may
    /// be read of the function afterwards.
    pub fn clear_body(&mut self) {
        self.values = Vec::new();
        self.blocks = Vec::new();
        self.consts = ConstIndex::default();
    }

    /// The entry block id (always block 0).
    #[must_use]
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// The value id of the `index`-th formal parameter.
    ///
    /// # Panics
    /// If `index` is out of range.
    #[must_use]
    pub fn arg(&self, index: usize) -> ValueId {
        assert!(index < self.params.len(), "argument index out of range");
        ValueId(index as u32)
    }

    /// Number of values in the arena (arguments + constants + instructions).
    #[must_use]
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Number of basic blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Iterate over all block ids in creation order (entry first).
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Immutable access to a block.
    #[must_use]
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, b: BlockId) -> &mut Block {
        &mut self.blocks[b.index()]
    }

    /// Append a new empty block and return its id.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = self.add_unnamed_block();
        self.blocks[id.index()].name = Some(name.into());
        id
    }

    /// Append a new empty block that has no label.
    pub(crate) fn add_unnamed_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::default());
        id
    }

    /// Immutable access to a value table entry.
    #[must_use]
    pub fn value(&self, v: ValueId) -> &ValueData {
        &self.values[v.index()]
    }

    /// The instruction payload of `v`, or `None` if `v` is an argument or
    /// constant.
    #[must_use]
    pub fn inst(&self, v: ValueId) -> Option<&Inst> {
        self.values[v.index()].as_inst()
    }

    /// Mutable instruction payload of `v`.
    pub fn inst_mut(&mut self, v: ValueId) -> Option<&mut Inst> {
        self.values[v.index()].as_inst_mut()
    }

    /// The constant payload of `v`, if it is a constant.
    #[must_use]
    pub fn constant(&self, v: ValueId) -> Option<Constant> {
        match self.values[v.index()].kind {
            ValueKind::Const(c) => Some(c),
            _ => None,
        }
    }

    /// Whether `v` is a constant integer equal to `n`.
    #[must_use]
    pub fn is_const_int(&self, v: ValueId, n: i64) -> bool {
        matches!(self.constant(v), Some(Constant::Int(x, _)) if x == n)
    }

    /// Intern a constant: the first value of the arena equal to `c`,
    /// or a new one.
    pub fn add_const(&mut self, c: Constant) -> ValueId {
        let index = &mut self.consts;
        for (i, vd) in self.values.iter().enumerate().skip(index.indexed) {
            if let ValueKind::Const(k) = vd.kind {
                index.first.entry(const_key(k)).or_insert(ValueId(i as u32));
            }
        }
        index.indexed = self.values.len();
        if let Some(&id) = index.first.get(&const_key(c)) {
            return id;
        }
        self.push_const(c)
    }

    /// Append `c` without looking for an equal constant: for a caller
    /// that interns through a table of its own (the parser, whose
    /// functions may hold any number of constants).
    pub(crate) fn push_const(&mut self, c: Constant) -> ValueId {
        let id = ValueId(self.values.len() as u32);
        self.values.push(ValueData {
            ty: Some(c.ty()),
            kind: ValueKind::Const(c),
            name: None,
        });
        id
    }

    /// Make room for `additional` more values. Only a hint: it gives up
    /// quietly where the allocator refuses.
    pub(crate) fn reserve_values(&mut self, additional: usize) {
        let _ = self.values.try_reserve_exact(additional);
    }

    /// Shorthand for interning an `i64` constant.
    pub fn const_i64(&mut self, v: i64) -> ValueId {
        self.add_const(Constant::Int(v, Type::I64))
    }

    /// Create an instruction value *without* placing it in any block.
    ///
    /// Used by the prefetch code generator, which clones address
    /// computations and then splices them in with
    /// [`Function::insert_before`].
    pub fn create_inst(&mut self, kind: InstKind, ty: Option<Type>, block: BlockId) -> ValueId {
        let id = ValueId(self.values.len() as u32);
        self.values.push(ValueData {
            ty,
            kind: ValueKind::Inst(Inst { kind, block }),
            name: None,
        });
        id
    }

    /// Append an already-created instruction to the end of its block.
    pub fn push_inst(&mut self, inst: ValueId) {
        let b = self.values[inst.index()]
            .as_inst()
            .expect("push_inst on non-instruction")
            .block;
        self.blocks[b.index()].insts.push(inst);
    }

    /// Insert instruction `inst` immediately before `before` in `before`'s
    /// block, updating `inst`'s block field.
    ///
    /// # Panics
    /// If `before` is not placed in a block.
    pub fn insert_before(&mut self, before: ValueId, inst: ValueId) {
        self.insert_before_each(&mut [(before, inst)]);
    }

    /// For each `(before, inst)` pair, insert `inst` immediately before
    /// `before` in `before`'s block, updating `inst`'s block field: what
    /// [`Function::insert_before`] on each pair in turn does, with one
    /// pass over each block the pairs touch. Sorts `pairs`.
    ///
    /// # Panics
    /// If some `before` is not placed in a block.
    pub fn insert_before_each(&mut self, pairs: &mut [(ValueId, ValueId)]) {
        let block_of = |values: &[ValueData], v: ValueId| {
            values[v.index()]
                .as_inst()
                .expect("insert_before target is not an instruction")
                .block
        };
        // By block, then by target; stable, so the instructions for one
        // target keep their order.
        pairs.sort_by_key(|&(before, _)| (block_of(&self.values, before), before));
        let mut start = 0;
        while start < pairs.len() {
            let b = block_of(&self.values, pairs[start].0);
            let len = pairs[start..]
                .iter()
                .take_while(|&&(before, _)| block_of(&self.values, before) == b)
                .count();
            let group = &pairs[start..start + len];
            start += len;
            let old = std::mem::take(&mut self.blocks[b.index()].insts);
            let want = old.len() + group.len();
            let mut insts = Vec::with_capacity(want);
            for v in old {
                let at = group.partition_point(|&(before, _)| before < v);
                for &(_, inst) in group[at..].iter().take_while(|&&(before, _)| before == v) {
                    if let Some(i) = self.values[inst.index()].as_inst_mut() {
                        i.block = b;
                    }
                    insts.push(inst);
                }
                insts.push(v);
            }
            assert_eq!(
                insts.len(),
                want,
                "insert_before target not found in its block"
            );
            self.blocks[b.index()].insts = insts;
        }
    }

    /// Insert instruction `inst` at the front of block `b`, after any phis.
    pub fn insert_at_block_start(&mut self, b: BlockId, inst: ValueId) {
        let pos = self.blocks[b.index()]
            .insts
            .iter()
            .position(|&v| !matches!(self.inst(v).map(|i| &i.kind), Some(InstKind::Phi { .. })))
            .unwrap_or(self.blocks[b.index()].insts.len());
        if let Some(i) = self.values[inst.index()].as_inst_mut() {
            i.block = b;
        }
        self.blocks[b.index()].insts.insert(pos, inst);
    }

    /// Successor blocks of `b` (empty if the block lacks a terminator).
    #[must_use]
    pub fn successors(&self, b: BlockId) -> Successors {
        self.block(b)
            .last()
            .and_then(|t| self.inst(t))
            .map_or(Successors::NONE, Inst::successors)
    }

    /// Iterate over the instruction ids of every block, in block order.
    pub fn all_insts(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.blocks.iter().flat_map(|b| b.insts.iter().copied())
    }

    /// Count instructions placed in blocks (excludes detached values).
    #[must_use]
    pub fn num_placed_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// All placed users of value `v`, as instruction ids.
    #[must_use]
    pub fn users_of(&self, v: ValueId) -> Vec<ValueId> {
        let mut users = Vec::new();
        let mut ops = Vec::new();
        for i in self.all_insts() {
            if let Some(inst) = self.inst(i) {
                ops.clear();
                inst.operands_into(&mut ops);
                if ops.contains(&v) {
                    users.push(i);
                }
            }
        }
        users
    }

    /// Give `v` a debug name, shown by the printer.
    pub fn set_name(&mut self, v: ValueId, name: impl Into<String>) {
        self.values[v.index()].name = Some(name.into());
    }
}

/// `n` lists of `T` in one flat table (offsets + items), refillable in
/// place: the dense-id form of a `Vec<Vec<T>>` or a map to vectors, for
/// a driver that rebuilds it per function and wants to allocate it once.
#[derive(Debug, Clone)]
pub struct FlatLists<T> {
    /// `items[start[i]..start[i + 1]]` is list `i`.
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T> Default for FlatLists<T> {
    fn default() -> Self {
        FlatLists {
            start: Vec::new(),
            items: Vec::new(),
        }
    }
}

impl<T: Copy> FlatLists<T> {
    /// Rebuild as `n` lists from `pairs`, which is run twice (count,
    /// then place) and must emit the same `(list, item)` sequence both
    /// times. Each list keeps its items in emission order. `blank` only
    /// pads the table between the two runs.
    pub fn refill(&mut self, n: usize, blank: T, mut pairs: impl FnMut(&mut dyn FnMut(usize, T))) {
        self.start.clear();
        self.start.resize(n + 1, 0);
        pairs(&mut |list, _| self.start[list + 1] += 1);
        for i in 0..n {
            self.start[i + 1] += self.start[i];
        }
        self.items.clear();
        self.items.resize(self.start[n] as usize, blank);
        // Place through a cursor per list (its start offset, advanced as
        // items land), then shift the cursors back one slot.
        pairs(&mut |list, item| {
            self.items[self.start[list] as usize] = item;
            self.start[list] += 1;
        });
        self.start.copy_within(0..n, 1);
        self.start[0] = 0;
    }

    /// List `i`.
    #[must_use]
    pub fn get(&self, i: usize) -> &[T] {
        &self.items[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

/// Predecessor lists of every block, refillable in place.
///
/// Block `b`'s predecessors are listed in block order of the
/// predecessor; a conditional branch with both arms on `b` lists its
/// block twice.
#[derive(Debug, Clone, Default)]
pub struct Preds(FlatLists<BlockId>);

impl Preds {
    /// The predecessor table of `f`.
    #[must_use]
    pub fn of(f: &Function) -> Self {
        let mut preds = Preds::default();
        preds.refill(f);
        preds
    }

    /// Recompute for `f`, reusing the table's storage.
    pub fn refill(&mut self, f: &Function) {
        self.0.refill(f.num_blocks(), BlockId(0), |edge| {
            for b in f.block_ids() {
                for s in f.successors(b) {
                    edge(s.index(), b);
                }
            }
        });
    }

    /// The predecessors of `b`.
    #[must_use]
    pub fn get(&self, b: BlockId) -> &[BlockId] {
        self.0.get(b.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::BinOp;

    fn sample() -> Function {
        Function::new("f", &[Type::I64, Type::I64], Type::I64)
    }

    #[test]
    fn args_are_first_values() {
        let f = sample();
        assert_eq!(f.arg(0), ValueId(0));
        assert_eq!(f.arg(1), ValueId(1));
        assert_eq!(f.value(f.arg(0)).ty, Some(Type::I64));
    }

    #[test]
    #[should_panic(expected = "argument index out of range")]
    fn arg_out_of_range_panics() {
        let f = sample();
        let _ = f.arg(2);
    }

    #[test]
    fn constants_are_interned() {
        let mut f = sample();
        let a = f.const_i64(42);
        let b = f.const_i64(42);
        let c = f.const_i64(43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Same bits, different type: distinct slots.
        let d = f.add_const(Constant::Int(42, Type::I32));
        assert_ne!(a, d);
    }

    /// The id is the first equal constant of the arena, whoever pushed
    /// it and whatever was appended since, in clones too.
    #[test]
    fn interning_returns_the_first_equal_constant_of_the_arena() {
        let mut f = sample();
        let first = f.push_const(Constant::Int(7, Type::I64));
        let _second = f.push_const(Constant::Int(7, Type::I64));
        let float = f.add_const(Constant::Float(f64::from_bits(7)));
        assert_ne!(float, first, "a float is never an int of the same bits");
        let bb = f.entry();
        let sum = f.create_inst(
            InstKind::Binary {
                op: BinOp::Add,
                lhs: first,
                rhs: first,
            },
            Some(Type::I64),
            bb,
        );
        let late = f.push_const(Constant::Int(9, Type::I64));
        assert_eq!(f.const_i64(7), first);
        assert_eq!(f.const_i64(9), late);
        let mut copy = f.clone();
        assert_eq!(copy.const_i64(7), first);
        assert_eq!(copy.const_i64(9), late);
        let fresh = copy.const_i64(10);
        assert!(fresh.index() > sum.index());
        assert_eq!(copy.const_i64(10), fresh);
        copy.clear_body();
        copy.open_body();
        assert_eq!(copy.const_i64(7).index(), copy.params.len());
    }

    #[test]
    fn float_constants_interned_by_bits() {
        let mut f = sample();
        let a = f.add_const(Constant::Float(1.5));
        let b = f.add_const(Constant::Float(1.5));
        assert_eq!(a, b);
        let nz = f.add_const(Constant::Float(-0.0));
        let pz = f.add_const(Constant::Float(0.0));
        assert_ne!(nz, pz, "signed zeros are distinct constants");
    }

    #[test]
    fn insert_before_places_in_same_block() {
        let mut f = sample();
        let entry = f.entry();
        let c = f.const_i64(1);
        let add = f.create_inst(
            InstKind::Binary {
                op: BinOp::Add,
                lhs: f.arg(0),
                rhs: c,
            },
            Some(Type::I64),
            entry,
        );
        f.push_inst(add);
        let ret = f.create_inst(InstKind::Ret { value: Some(add) }, None, entry);
        f.push_inst(ret);

        let mul = f.create_inst(
            InstKind::Binary {
                op: BinOp::Mul,
                lhs: f.arg(0),
                rhs: c,
            },
            Some(Type::I64),
            entry,
        );
        f.insert_before(ret, mul);
        assert_eq!(f.block(entry).insts, vec![add, mul, ret]);
    }

    /// One batch places what `insert_before` on each pair in turn
    /// places, across blocks and with several pairs per target.
    #[test]
    fn insert_before_each_matches_insert_before_in_turn() {
        let mut f = sample();
        let (entry, next) = (f.entry(), f.add_block("next"));
        let c = f.const_i64(1);
        let new = |f: &mut Function, b: BlockId| {
            let lhs = f.arg(0);
            f.create_inst(
                InstKind::Binary {
                    op: BinOp::Add,
                    lhs,
                    rhs: c,
                },
                Some(Type::I64),
                b,
            )
        };
        let mut targets = Vec::new();
        for b in [entry, entry, next, entry, next] {
            let v = new(&mut f, b);
            f.push_inst(v);
            targets.push(v);
        }
        let mut pairs = Vec::new();
        for t in [4, 0, 2, 0, 3, 4, 0] {
            let b = f.inst(targets[t]).unwrap().block;
            pairs.push((targets[t], new(&mut f, b)));
        }
        let mut in_turn = f.clone();
        for &(before, inst) in &pairs {
            in_turn.insert_before(before, inst);
        }
        f.insert_before_each(&mut pairs);
        for b in [entry, next] {
            assert_eq!(f.block(b).insts, in_turn.block(b).insts);
        }
        assert_eq!(f.block(entry).insts.len(), 3 + 4);
    }

    #[test]
    fn users_and_predecessors() {
        let mut f = sample();
        let entry = f.entry();
        let b2 = f.add_block("next");
        let br = f.create_inst(InstKind::Br { target: b2 }, None, entry);
        f.push_inst(br);
        let ret = f.create_inst(
            InstKind::Ret {
                value: Some(f.arg(0)),
            },
            None,
            b2,
        );
        f.push_inst(ret);
        let preds = Preds::of(&f);
        assert_eq!(preds.get(b2), [entry]);
        assert!(preds.get(entry).is_empty());
        assert_eq!(*f.successors(entry), [b2]);
        assert_eq!(f.users_of(f.arg(0)), vec![ret]);
    }
}
