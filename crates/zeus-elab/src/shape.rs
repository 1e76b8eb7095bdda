//! Resolved signal shapes.
//!
//! A [`Shape`] is a fully elaborated Zeus type: all numeric parameters have
//! been evaluated, and only the structure over the two basic types (plus
//! `virtual` placeholders, §6.4) remains. Flattening a shape yields the
//! "natural order" sequence of basic signals the paper uses everywhere for
//! assignment compatibility ("we require that the type of e has the same
//! number of substructures of basic type as the type of s").

use std::fmt::Write as _;
use std::sync::Arc;
use zeus_sema::rules::BasicKind;
use zeus_syntax::ast::Mode;

/// A fully resolved signal type.
#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    /// A basic signal: boolean or multiplex.
    Basic(BasicKind),
    /// A `virtual` placeholder (replaced in the layout language, §6.4).
    /// Contributes zero basic bits until replaced.
    Virtual,
    /// `ARRAY [lo..hi] OF elem`; empty when `lo > hi`.
    Array {
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
        /// Element shape.
        elem: Arc<Shape>,
    },
    /// A component interface: record of named, moded fields.
    Record(Arc<RecordShape>),
}

/// Predefined component types with built-in elaboration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinComponent {
    /// The storage element `REG` (§5.1).
    Reg,
}

/// The interface of a component type (or record type).
#[derive(Debug, Clone, PartialEq)]
pub struct RecordShape {
    /// The declared type name, if any (anonymous component types have
    /// none).
    pub type_name: Option<String>,
    /// Fields in declaration order.
    pub fields: Vec<FieldShape>,
    /// True when the component type has a body (instances must be
    /// elaborated) — false for pure record types.
    pub has_body: bool,
    /// Set for predefined components like `REG`.
    pub builtin: Option<BuiltinComponent>,
}

/// One field of a record shape.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldShape {
    /// Field (formal parameter) name.
    pub name: String,
    /// Declared mode (IN/OUT/INOUT).
    pub mode: Mode,
    /// Field shape.
    pub shape: Shape,
}

impl Shape {
    /// Creates a boolean shape.
    pub fn boolean() -> Shape {
        Shape::Basic(BasicKind::Boolean)
    }

    /// Creates a multiplex shape.
    pub fn multiplex() -> Shape {
        Shape::Basic(BasicKind::Multiplex)
    }

    /// Number of array elements (0 for empty arrays).
    pub fn array_len(lo: i64, hi: i64) -> usize {
        if hi >= lo {
            (hi - lo + 1) as usize
        } else {
            0
        }
    }

    /// Number of basic bits in natural order.
    pub fn bit_len(&self) -> usize {
        match self {
            Shape::Basic(_) => 1,
            Shape::Virtual => 0,
            Shape::Array { lo, hi, elem } => Shape::array_len(*lo, *hi) * elem.bit_len(),
            Shape::Record(r) => r.fields.iter().map(|f| f.shape.bit_len()).sum(),
        }
    }

    /// True if the shape contains a `virtual` placeholder.
    pub fn contains_virtual(&self) -> bool {
        match self {
            Shape::Basic(_) => false,
            Shape::Virtual => true,
            Shape::Array { elem, .. } => elem.contains_virtual(),
            Shape::Record(r) => r.fields.iter().any(|f| f.shape.contains_virtual()),
        }
    }

    /// The basic kinds of all bits in natural order, with the effective
    /// mode each bit inherits from `outer` ("The IN or OUT property is
    /// inherited by substructures", §3.2).
    pub fn bit_kinds(&self, outer: Mode, out: &mut Vec<(BasicKind, Mode)>) {
        match self {
            Shape::Basic(k) => out.push((*k, outer)),
            Shape::Virtual => {}
            Shape::Array { lo, hi, elem } => {
                for _ in 0..Shape::array_len(*lo, *hi) {
                    elem.bit_kinds(outer, out);
                }
            }
            Shape::Record(r) => {
                for f in &r.fields {
                    f.shape.bit_kinds(compose_mode(outer, f.mode), out);
                }
            }
        }
    }

    /// Convenience wrapper over [`Shape::bit_kinds`] starting from INOUT
    /// (no inherited restriction).
    pub fn bits_with_modes(&self) -> Vec<(BasicKind, Mode)> {
        let mut v = Vec::with_capacity(self.bit_len());
        self.bit_kinds(Mode::InOut, &mut v);
        v
    }

    /// Calls `f` with the hierarchical name (e.g. `top.add[1].cout`) and
    /// the basic kind of every bit, in natural order. `name` holds the
    /// prefix on entry and again on return: each level appends its
    /// selector to it and truncates it back, so no level formats a
    /// string of its own.
    pub fn for_each_bit<F: FnMut(&str, BasicKind)>(&self, name: &mut String, f: &mut F) {
        let len = name.len();
        match self {
            Shape::Basic(k) => f(name, *k),
            Shape::Virtual => {}
            Shape::Array { lo, hi, elem } => {
                for i in 0..Shape::array_len(*lo, *hi) {
                    let _ = write!(name, "[{}]", lo + i as i64);
                    elem.for_each_bit(name, f);
                    name.truncate(len);
                }
            }
            Shape::Record(r) => {
                for field in &r.fields {
                    name.push('.');
                    name.push_str(&field.name);
                    field.shape.for_each_bit(name, f);
                    name.truncate(len);
                }
            }
        }
    }
}

/// Composes an inherited mode with a field's own mode: an outer IN/OUT
/// overrides; an outer INOUT lets the field's mode through.
pub fn compose_mode(outer: Mode, inner: Mode) -> Mode {
    match outer {
        Mode::InOut => inner,
        m => m,
    }
}

impl RecordShape {
    /// Bit offset of each field in the flattened interface, in
    /// declaration order, plus the total width as the last element.
    pub fn field_offsets(&self) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(self.fields.len() + 1);
        let mut acc = 0usize;
        for f in &self.fields {
            offsets.push(acc);
            acc += f.shape.bit_len();
        }
        offsets.push(acc);
        offsets
    }

    /// Finds a field by name, returning `(index, bit offset, field)`.
    pub fn field(&self, name: &str) -> Option<(usize, usize, &FieldShape)> {
        let mut off = 0usize;
        for (i, f) in self.fields.iter().enumerate() {
            if f.name == name {
                return Some((i, off, f));
            }
            off += f.shape.bit_len();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(fields: Vec<(&str, Mode, Shape)>, has_body: bool) -> Shape {
        Shape::Record(Arc::new(RecordShape {
            type_name: None,
            fields: fields
                .into_iter()
                .map(|(n, m, s)| FieldShape {
                    name: n.into(),
                    mode: m,
                    shape: s,
                })
                .collect(),
            has_body,
            builtin: None,
        }))
    }

    #[test]
    fn bit_len_composition() {
        let bo4 = Shape::Array {
            lo: 1,
            hi: 4,
            elem: Arc::new(Shape::boolean()),
        };
        assert_eq!(bo4.bit_len(), 4);
        let empty = Shape::Array {
            lo: 1,
            hi: 0,
            elem: Arc::new(Shape::boolean()),
        };
        assert_eq!(empty.bit_len(), 0);
        let r = rec(
            vec![
                ("a", Mode::In, bo4.clone()),
                ("b", Mode::Out, Shape::boolean()),
            ],
            true,
        );
        assert_eq!(r.bit_len(), 5);
    }

    #[test]
    fn virtual_has_no_bits() {
        assert_eq!(Shape::Virtual.bit_len(), 0);
        let arr = Shape::Array {
            lo: 1,
            hi: 9,
            elem: Arc::new(Shape::Virtual),
        };
        assert_eq!(arr.bit_len(), 0);
        assert!(arr.contains_virtual());
    }

    #[test]
    fn mode_inheritance() {
        // An IN record field forces all substructure bits to IN.
        let inner = rec(
            vec![
                ("x", Mode::In, Shape::boolean()),
                ("y", Mode::Out, Shape::boolean()),
            ],
            false,
        );
        let outer = rec(vec![("p", Mode::In, inner.clone())], false);
        let kinds = outer.bits_with_modes();
        assert_eq!(kinds.len(), 2);
        assert!(kinds.iter().all(|(_, m)| *m == Mode::In));
        // An INOUT outer leaves inner modes intact.
        let outer2 = rec(vec![("p", Mode::InOut, inner)], false);
        let kinds2 = outer2.bits_with_modes();
        assert_eq!(kinds2[0].1, Mode::In);
        assert_eq!(kinds2[1].1, Mode::Out);
    }

    #[test]
    fn field_lookup_and_offsets() {
        let bo3 = Shape::Array {
            lo: 1,
            hi: 3,
            elem: Arc::new(Shape::boolean()),
        };
        let Shape::Record(r) = rec(
            vec![
                ("a", Mode::In, bo3),
                ("b", Mode::Out, Shape::boolean()),
                ("c", Mode::InOut, Shape::multiplex()),
            ],
            true,
        ) else {
            unreachable!()
        };
        assert_eq!(r.field_offsets(), vec![0, 3, 4, 5]);
        let (i, off, f) = r.field("b").unwrap();
        assert_eq!((i, off), (1, 3));
        assert_eq!(f.mode, Mode::Out);
        assert!(r.field("zz").is_none());
    }

    #[test]
    fn bits_are_named_and_kinded_in_natural_order() {
        let pair = Shape::Array {
            lo: -1,
            hi: 0,
            elem: Arc::new(Shape::boolean()),
        };
        let shape = rec(
            vec![
                ("a", Mode::In, pair),
                ("v", Mode::In, Shape::Virtual),
                ("m", Mode::Out, Shape::multiplex()),
            ],
            true,
        );
        let mut name = String::from("top");
        let mut bits = Vec::new();
        shape.for_each_bit(&mut name, &mut |n, k| bits.push((n.to_string(), k)));
        assert_eq!(name, "top", "the prefix is restored");
        let b = BasicKind::Boolean;
        let want = [
            ("top.a[-1]", b),
            ("top.a[0]", b),
            ("top.m", BasicKind::Multiplex),
        ];
        let want: Vec<(String, BasicKind)> = want.iter().map(|&(n, k)| (n.into(), k)).collect();
        assert_eq!(bits, want);
    }

    #[test]
    fn compose_mode_table() {
        assert_eq!(compose_mode(Mode::InOut, Mode::Out), Mode::Out);
        assert_eq!(compose_mode(Mode::In, Mode::Out), Mode::In);
        assert_eq!(compose_mode(Mode::Out, Mode::In), Mode::Out);
        assert_eq!(compose_mode(Mode::InOut, Mode::InOut), Mode::InOut);
    }
}
