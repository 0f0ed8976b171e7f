//! Scalar types for IR values.

use std::fmt;

/// The type of an IR value.
///
/// The IR is scalar-only: aggregates live in memory and are accessed through
/// [`gep`](crate::inst::InstKind::Gep)/[`load`](crate::inst::InstKind::Load)
/// with explicit element sizes, exactly the view the prefetching pass needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// Single-bit boolean (comparison results, branch conditions).
    I1,
    /// 8-bit integer.
    I8,
    /// 16-bit integer.
    I16,
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// 64-bit IEEE-754 float.
    F64,
    /// Untyped pointer into the flat simulated address space.
    Ptr,
}

impl Type {
    /// Size of a value of this type in bytes when stored to memory.
    ///
    /// `I1` occupies a full byte in memory, as on every real ISA.
    #[must_use]
    pub fn size_bytes(self) -> u64 {
        match self {
            Type::I1 | Type::I8 => 1,
            Type::I16 => 2,
            Type::I32 => 4,
            Type::I64 | Type::F64 | Type::Ptr => 8,
        }
    }

    /// Whether this is an integer type (including `I1` and `Ptr`).
    #[must_use]
    pub fn is_int(self) -> bool {
        !matches!(self, Type::F64)
    }

    /// Whether this type may hold a memory address.
    #[must_use]
    pub fn is_ptr(self) -> bool {
        matches!(self, Type::Ptr)
    }

    /// Bit width of integer types; 64 for `Ptr`, panics for `F64`.
    #[must_use]
    pub fn bits(self) -> u32 {
        match self {
            Type::I1 => 1,
            Type::I8 => 8,
            Type::I16 => 16,
            Type::I32 => 32,
            Type::I64 | Type::Ptr => 64,
            Type::F64 => panic!("bits() on F64"),
        }
    }

    /// The type's name in the textual format.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Type::I1 => "i1",
            Type::I8 => "i8",
            Type::I16 => "i16",
            Type::I32 => "i32",
            Type::I64 => "i64",
            Type::F64 => "f64",
            Type::Ptr => "ptr",
        }
    }

    /// Parse a type name as produced by [`fmt::Display`], from text or bytes.
    #[must_use]
    pub fn from_name(s: impl AsRef<[u8]>) -> Option<Type> {
        Some(match s.as_ref() {
            b"i1" => Type::I1,
            b"i8" => Type::I8,
            b"i16" => Type::I16,
            b"i32" => Type::I32,
            b"i64" => Type::I64,
            b"f64" => Type::F64,
            b"ptr" => Type::Ptr,
            _ => return None,
        })
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_hardware_expectations() {
        assert_eq!(Type::I8.size_bytes(), 1);
        assert_eq!(Type::I16.size_bytes(), 2);
        assert_eq!(Type::I32.size_bytes(), 4);
        assert_eq!(Type::I64.size_bytes(), 8);
        assert_eq!(Type::F64.size_bytes(), 8);
        assert_eq!(Type::Ptr.size_bytes(), 8);
    }

    #[test]
    fn display_parse_roundtrip() {
        for t in [
            Type::I1,
            Type::I8,
            Type::I16,
            Type::I32,
            Type::I64,
            Type::F64,
            Type::Ptr,
        ] {
            assert_eq!(Type::from_name(t.to_string()), Some(t));
        }
        assert_eq!(Type::from_name("i128"), None);
    }

    #[test]
    fn int_and_ptr_predicates() {
        assert!(Type::I64.is_int());
        assert!(Type::Ptr.is_int());
        assert!(!Type::F64.is_int());
        assert!(Type::Ptr.is_ptr());
        assert!(!Type::I64.is_ptr());
    }
}
