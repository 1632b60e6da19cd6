//! MiniPy values and the explicit object heap.
//!
//! Every value lives in the [`Heap`] and is named by an [`ObjRef`] — the
//! MiniPy equivalent of a CPython object pointer. This gives the tracker
//! the paper's conceptual model for free: variables are references into
//! the heap, `id()` returns a stable address, and aliasing is observable
//! (two variables naming the same list really share one object).

use state::{Location, Prim, Value};
use std::collections::HashSet;
use std::fmt::Write as _;

/// Reference to a heap object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjRef(pub u32);

/// Conceptual base address of the MiniPy heap (used to fabricate CPython
/// `id()`-style addresses).
pub const PY_HEAP_BASE: u64 = 0x55_0000;

impl ObjRef {
    /// The fabricated memory address of this object.
    pub fn address(self) -> u64 {
        PY_HEAP_BASE + (self.0 as u64) * 0x20
    }
}

/// A MiniPy value.
#[derive(Debug, Clone, PartialEq)]
pub enum PyVal {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// `None`.
    None,
    /// List (mutable).
    List(Vec<ObjRef>),
    /// Tuple (immutable).
    Tuple(Vec<ObjRef>),
    /// Dict with insertion-ordered entries.
    Dict(Vec<(ObjRef, ObjRef)>),
    /// A class instance with ordered attributes.
    Instance {
        /// Class name.
        class: String,
        /// Attributes in assignment order.
        fields: Vec<(String, ObjRef)>,
    },
    /// A user function (index into the interpreter's function table).
    Function {
        /// Function name.
        name: String,
        /// Index into the function table.
        index: usize,
    },
    /// A class object (callable constructor; index into the class table).
    Class {
        /// Class name.
        name: String,
        /// Index into the class table.
        index: usize,
    },
    /// A `range` object.
    Range {
        /// Inclusive start.
        start: i64,
        /// Exclusive stop.
        stop: i64,
        /// Step (nonzero).
        step: i64,
    },
    /// A bound method (receiver + function index).
    BoundMethod {
        /// The receiver object.
        receiver: ObjRef,
        /// Method name.
        name: String,
        /// Index into the function table.
        index: usize,
    },
}

impl PyVal {
    /// The Python type name (`type(x).__name__`).
    pub fn type_name(&self) -> &str {
        match self {
            PyVal::Int(_) => "int",
            PyVal::Float(_) => "float",
            PyVal::Bool(_) => "bool",
            PyVal::Str(_) => "str",
            PyVal::None => "NoneType",
            PyVal::List(_) => "list",
            PyVal::Tuple(_) => "tuple",
            PyVal::Dict(_) => "dict",
            PyVal::Instance { class, .. } => class,
            PyVal::Function { .. } | PyVal::BoundMethod { .. } => "function",
            PyVal::Class { .. } => "type",
            PyVal::Range { .. } => "range",
        }
    }

    /// Python truthiness.
    pub fn is_truthy(&self) -> bool {
        match self {
            PyVal::Int(v) => *v != 0,
            PyVal::Float(v) => *v != 0.0,
            PyVal::Bool(b) => *b,
            PyVal::Str(s) => !s.is_empty(),
            PyVal::None => false,
            PyVal::List(v) | PyVal::Tuple(v) => !v.is_empty(),
            PyVal::Dict(v) => !v.is_empty(),
            PyVal::Range { start, stop, step } => {
                (*step > 0 && start < stop) || (*step < 0 && start > stop)
            }
            _ => true,
        }
    }
}

/// The object heap. Objects are never collected (teaching-scale programs);
/// this keeps `id()` values stable, which the tools rely on for arrows.
#[derive(Debug, Clone, Default)]
pub struct Heap {
    objects: Vec<PyVal>,
    /// Bumped by every [`Heap::get_mut`], the only way an object changes
    /// in place.
    epoch: u64,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Heap::default()
    }

    /// Allocates a value, returning its reference.
    pub fn alloc(&mut self, v: PyVal) -> ObjRef {
        self.objects.push(v);
        ObjRef((self.objects.len() - 1) as u32)
    }

    /// Reads an object.
    pub fn get(&self, r: ObjRef) -> &PyVal {
        &self.objects[r.0 as usize]
    }

    /// Mutates an object in place.
    pub fn get_mut(&mut self, r: ObjRef) -> &mut PyVal {
        self.epoch += 1;
        &mut self.objects[r.0 as usize]
    }

    /// The mutation epoch: unchanged since an earlier reading means no
    /// object has changed in place since then.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether nothing reachable from `r` can ever change: a number,
    /// bool, string, `None` or range, or a tuple of those.
    pub fn is_immutable(&self, r: ObjRef) -> bool {
        match self.get(r) {
            PyVal::Int(_)
            | PyVal::Float(_)
            | PyVal::Bool(_)
            | PyVal::Str(_)
            | PyVal::None
            | PyVal::Range { .. } => true,
            PyVal::Tuple(items) => items.iter().all(|&it| self.is_immutable(it)),
            _ => false,
        }
    }

    /// Number of live objects (bench metric).
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Structural equality (`==` in MiniPy): deep for containers, identity
    /// for instances/functions.
    pub fn py_eq(&self, a: ObjRef, b: ObjRef) -> bool {
        if a == b {
            return true;
        }
        match (self.get(a), self.get(b)) {
            (PyVal::Int(x), PyVal::Int(y)) => x == y,
            (PyVal::Float(x), PyVal::Float(y)) => x == y,
            (PyVal::Int(x), PyVal::Float(y)) | (PyVal::Float(y), PyVal::Int(x)) => *x as f64 == *y,
            (PyVal::Bool(x), PyVal::Bool(y)) => x == y,
            (PyVal::Bool(x), PyVal::Int(y)) | (PyVal::Int(y), PyVal::Bool(x)) => (*x as i64) == *y,
            (PyVal::Str(x), PyVal::Str(y)) => x == y,
            (PyVal::None, PyVal::None) => true,
            (PyVal::List(x), PyVal::List(y)) | (PyVal::Tuple(x), PyVal::Tuple(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(p, q)| self.py_eq(*p, *q))
            }
            (PyVal::Dict(x), PyVal::Dict(y)) => {
                x.len() == y.len()
                    && x.iter().all(|(k, v)| {
                        y.iter()
                            .any(|(k2, v2)| self.py_eq(*k, *k2) && self.py_eq(*v, *v2))
                    })
            }
            _ => false,
        }
    }

    /// `repr()`-style rendering (strings quoted).
    pub fn repr(&self, r: ObjRef) -> String {
        let mut out = String::new();
        self.repr_into(r, &mut out, &mut HashSet::new());
        out
    }

    /// `str()`-style rendering (top-level strings unquoted).
    pub fn str_of(&self, r: ObjRef) -> String {
        match self.get(r) {
            PyVal::Str(s) => s.clone(),
            _ => self.repr(r),
        }
    }

    fn repr_into(&self, r: ObjRef, out: &mut String, seen: &mut HashSet<ObjRef>) {
        if !seen.insert(r) {
            out.push_str("...");
            return;
        }
        match self.get(r) {
            PyVal::Int(v) => {
                let _ = write!(out, "{v}");
            }
            PyVal::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() {
                    let _ = write!(out, "{v:.1}");
                } else {
                    let _ = write!(out, "{v}");
                }
            }
            PyVal::Bool(true) => out.push_str("True"),
            PyVal::Bool(false) => out.push_str("False"),
            PyVal::Str(s) => {
                let _ = write!(out, "'{}'", s.replace('\\', "\\\\").replace('\'', "\\'"));
            }
            PyVal::None => out.push_str("None"),
            PyVal::List(items) => {
                out.push('[');
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    self.repr_into(*it, out, seen);
                }
                out.push(']');
            }
            PyVal::Tuple(items) => {
                out.push('(');
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    self.repr_into(*it, out, seen);
                }
                if items.len() == 1 {
                    out.push(',');
                }
                out.push(')');
            }
            PyVal::Dict(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    self.repr_into(*k, out, seen);
                    out.push_str(": ");
                    self.repr_into(*v, out, seen);
                }
                out.push('}');
            }
            PyVal::Instance { class, fields } => {
                let _ = write!(out, "{class}(");
                for (i, (name, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{name}=");
                    self.repr_into(*v, out, seen);
                }
                out.push(')');
            }
            PyVal::Function { name, .. } => {
                let _ = write!(out, "<function {name}>");
            }
            PyVal::BoundMethod { name, .. } => {
                let _ = write!(out, "<bound method {name}>");
            }
            PyVal::Class { name, .. } => {
                let _ = write!(out, "<class '{name}'>");
            }
            PyVal::Range { start, stop, step } => {
                if *step == 1 {
                    let _ = write!(out, "range({start}, {stop})");
                } else {
                    let _ = write!(out, "range({start}, {stop}, {step})");
                }
            }
        }
        seen.remove(&r);
    }

    /// Converts an object to the language-agnostic representation.
    ///
    /// Matching the paper's model: the returned value is the *object*; the
    /// caller wraps it in a `REF` when representing a variable binding.
    /// Containers hold `REF` children so aliasing stays visible.
    pub fn to_abstract(&self, r: ObjRef) -> Value {
        self.to_abstract_bounded(r, 24, &mut HashSet::new())
    }

    fn to_abstract_bounded(&self, r: ObjRef, depth: usize, seen: &mut HashSet<ObjRef>) -> Value {
        let addr = r.address();
        if depth == 0 || !seen.insert(r) {
            return Value::none(self.get(r).type_name().to_owned())
                .with_location(Location::Heap)
                .with_address(addr);
        }
        let v = match self.get(r) {
            PyVal::Int(v) => Value::primitive(Prim::Int(*v), "int"),
            PyVal::Float(v) => Value::primitive(Prim::Float(*v), "float"),
            PyVal::Bool(b) => Value::primitive(Prim::Bool(*b), "bool"),
            PyVal::Str(s) => Value::primitive(Prim::Str(s.clone()), "str"),
            PyVal::None => Value::none("NoneType"),
            PyVal::List(items) => {
                let children = items
                    .iter()
                    .map(|it| self.ref_value(*it, depth - 1, seen))
                    .collect();
                Value::list(children, "list")
            }
            PyVal::Tuple(items) => {
                let children = items
                    .iter()
                    .map(|it| self.ref_value(*it, depth - 1, seen))
                    .collect();
                Value::list(children, "tuple")
            }
            PyVal::Dict(entries) => {
                let children = entries
                    .iter()
                    .map(|(k, v)| {
                        (
                            self.ref_value(*k, depth - 1, seen),
                            self.ref_value(*v, depth - 1, seen),
                        )
                    })
                    .collect();
                Value::dict(children, "dict")
            }
            PyVal::Instance { class, fields } => {
                let children = fields
                    .iter()
                    .map(|(name, v)| (name.clone(), self.ref_value(*v, depth - 1, seen)))
                    .collect();
                Value::structure(children, class.clone())
            }
            PyVal::Function { name, .. } => Value::function(name.clone(), "function"),
            PyVal::BoundMethod { name, .. } => Value::function(name.clone(), "method"),
            PyVal::Class { name, .. } => Value::function(name.clone(), "type"),
            PyVal::Range { start, stop, step } => Value::structure(
                vec![
                    (
                        "start".to_owned(),
                        Value::primitive(Prim::Int(*start), "int"),
                    ),
                    ("stop".to_owned(), Value::primitive(Prim::Int(*stop), "int")),
                    ("step".to_owned(), Value::primitive(Prim::Int(*step), "int")),
                ],
                "range",
            ),
        };
        seen.remove(&r);
        v.with_location(Location::Heap).with_address(addr)
    }

    /// A `REF` value pointing at object `r` — how variables and container
    /// slots are represented (paper §II-B2: every Python variable is a REF
    /// on the stack pointing to the heap).
    pub fn ref_value(&self, r: ObjRef, depth: usize, seen: &mut HashSet<ObjRef>) -> Value {
        let target = self.to_abstract_bounded(r, depth, seen);
        let lt = format!("ref[{}]", self.get(r).type_name());
        Value::reference(target, lt).with_location(Location::Stack)
    }

    /// Public wrapper of [`Heap::ref_value`] with default limits.
    pub fn binding_value(&self, r: ObjRef) -> Value {
        self.ref_value(r, 24, &mut HashSet::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use state::AbstractType;

    fn heap() -> Heap {
        Heap::new()
    }

    #[test]
    fn repr_forms() {
        let mut h = heap();
        let i = h.alloc(PyVal::Int(3));
        let f = h.alloc(PyVal::Float(2.0));
        let s = h.alloc(PyVal::Str("a'b".into()));
        let t = h.alloc(PyVal::Bool(true));
        let n = h.alloc(PyVal::None);
        let l = h.alloc(PyVal::List(vec![i, s]));
        let tup1 = h.alloc(PyVal::Tuple(vec![i]));
        let d = h.alloc(PyVal::Dict(vec![(s, i)]));
        assert_eq!(h.repr(i), "3");
        assert_eq!(h.repr(f), "2.0");
        assert_eq!(h.repr(s), "'a\\'b'");
        assert_eq!(h.repr(t), "True");
        assert_eq!(h.repr(n), "None");
        assert_eq!(h.repr(l), "[3, 'a\\'b']");
        assert_eq!(h.repr(tup1), "(3,)");
        assert_eq!(h.repr(d), "{'a\\'b': 3}");
        assert_eq!(h.str_of(s), "a'b");
    }

    #[test]
    fn cyclic_repr_terminates() {
        let mut h = heap();
        let l = h.alloc(PyVal::List(vec![]));
        if let PyVal::List(items) = h.get_mut(l) {
            items.push(l);
        }
        assert_eq!(h.repr(l), "[...]");
    }

    #[test]
    fn py_eq_structural_and_numeric() {
        let mut h = heap();
        let a = h.alloc(PyVal::Int(3));
        let b = h.alloc(PyVal::Int(3));
        let c = h.alloc(PyVal::Float(3.0));
        assert!(h.py_eq(a, b));
        assert!(h.py_eq(a, c));
        let l1 = h.alloc(PyVal::List(vec![a]));
        let l2 = h.alloc(PyVal::List(vec![b]));
        assert!(h.py_eq(l1, l2));
        let t = h.alloc(PyVal::Bool(true));
        let one = h.alloc(PyVal::Int(1));
        assert!(h.py_eq(t, one)); // True == 1 in Python
    }

    #[test]
    fn truthiness() {
        let mut h = heap();
        assert!(!PyVal::Int(0).is_truthy());
        assert!(PyVal::Str("x".into()).is_truthy());
        assert!(!PyVal::Str(String::new()).is_truthy());
        assert!(!PyVal::None.is_truthy());
        let empty = h.alloc(PyVal::List(vec![]));
        assert!(!h.get(empty).is_truthy());
        assert!(!PyVal::Range {
            start: 3,
            stop: 3,
            step: 1
        }
        .is_truthy());
        assert!(PyVal::Range {
            start: 0,
            stop: 3,
            step: 1
        }
        .is_truthy());
    }

    #[test]
    fn abstract_conversion_wraps_children_in_refs() {
        let mut h = heap();
        let i = h.alloc(PyVal::Int(1));
        let l = h.alloc(PyVal::List(vec![i, i]));
        let v = h.to_abstract(l);
        assert_eq!(v.abstract_type(), AbstractType::List);
        let kids: Vec<_> = v.children().collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(kids[0].abstract_type(), AbstractType::Ref);
        // Aliasing: both children point at the same address.
        assert_eq!(
            kids[0].deref_fully().address(),
            kids[1].deref_fully().address()
        );
        assert_eq!(v.location(), Location::Heap);
        assert_eq!(v.address(), Some(l.address()));
    }

    #[test]
    fn abstract_conversion_handles_cycles() {
        let mut h = heap();
        let l = h.alloc(PyVal::List(vec![]));
        if let PyVal::List(items) = h.get_mut(l) {
            items.push(l);
        }
        let v = h.to_abstract(l);
        assert!(v.depth() < 10);
    }

    #[test]
    fn addresses_are_stable_and_distinct() {
        let mut h = heap();
        let a = h.alloc(PyVal::Int(1));
        let b = h.alloc(PyVal::Int(2));
        assert_ne!(a.address(), b.address());
        assert_eq!(a.address(), ObjRef(0).address());
    }
}
