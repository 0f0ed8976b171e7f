//! Modules: named collections of functions.

use crate::function::{FuncId, Function, Purity};
use crate::types::Type;

/// A compilation unit: a set of functions that may call each other.
#[derive(Debug, Clone)]
pub struct Module {
    /// Module name, used in printed output.
    pub name: String,
    functions: Vec<Function>,
}

impl Module {
    /// Create an empty module.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            functions: Vec::new(),
        }
    }

    /// Add a new function with the given signature; returns its id.
    pub fn declare_function(
        &mut self,
        name: impl Into<String>,
        params: &[Type],
        ret: impl Into<Option<Type>>,
    ) -> FuncId {
        self.add_function(Function::new(name, params, ret))
    }

    /// Add `f`; returns its id.
    pub(crate) fn add_function(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.functions.len() as u32);
        self.functions.push(f);
        id
    }

    /// Add a function and mark its purity in one step.
    pub fn declare_function_with_purity(
        &mut self,
        name: impl Into<String>,
        params: &[Type],
        ret: impl Into<Option<Type>>,
        purity: Purity,
    ) -> FuncId {
        let id = self.declare_function(name, params, ret);
        self.functions[id.index()].purity = purity;
        id
    }

    /// Number of functions.
    #[must_use]
    pub fn num_functions(&self) -> usize {
        self.functions.len()
    }

    /// Iterate over function ids.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> {
        (0..self.functions.len() as u32).map(FuncId)
    }

    /// Immutable function access.
    #[must_use]
    pub fn function(&self, f: FuncId) -> &Function {
        &self.functions[f.index()]
    }

    /// Mutable function access.
    pub fn function_mut(&mut self, f: FuncId) -> &mut Function {
        &mut self.functions[f.index()]
    }

    /// Find a function by symbol name.
    #[must_use]
    pub fn find_function(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_find() {
        let mut m = Module::new("m");
        let a = m.declare_function("alpha", &[Type::I64], Type::I64);
        let b = m.declare_function("beta", &[], None);
        assert_eq!(m.find_function("alpha"), Some(a));
        assert_eq!(m.find_function("beta"), Some(b));
        assert_eq!(m.find_function("gamma"), None);
        assert_eq!(m.num_functions(), 2);
        assert_eq!(m.function(b).ret, None);
    }

    #[test]
    fn purity_is_recorded() {
        let mut m = Module::new("m");
        let h = m.declare_function_with_purity("hash", &[Type::I64], Type::I64, Purity::Pure);
        assert_eq!(m.function(h).purity, Purity::Pure);
    }
}
