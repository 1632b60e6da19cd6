//! MiniPy values and the explicit object heap.
//!
//! Every value lives in the [`Heap`] and is named by an [`ObjRef`] — the
//! MiniPy equivalent of a CPython object pointer. This gives the tracker
//! the paper's conceptual model for free: variables are references into
//! the heap, `id()` returns a stable address, and aliasing is observable
//! (two variables naming the same list really share one object). The
//! heap frees what nothing can reach without moving a live object or
//! reusing an index, so those addresses hold for the whole run.

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

/// A MiniPy value. Every variant holds at most three words, so a heap
/// slot is four: the larger parts of instances are boxed.
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
        class: Box<str>,
        /// Attributes in assignment order.
        fields: Box<Vec<(String, ObjRef)>>,
    },
    /// A user function (index into the interpreter's function table).
    Function {
        /// Function name.
        name: Box<str>,
        /// Index into the function table.
        index: usize,
    },
    /// A class object (callable constructor; index into the class table).
    Class {
        /// Class name.
        name: Box<str>,
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
        name: Box<str>,
        /// Index into the function table.
        index: u32,
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

/// Slots per heap chunk: the unit in which object storage is allocated
/// and freed.
const CHUNK: usize = 1024;
const WORDS: usize = CHUNK / 64;

/// Allocations after which the next statement collects, at the least.
const COLLECT_AFTER: u64 = 4096;

/// `CHUNK` consecutive object slots, filled in index order.
#[derive(Debug, Clone)]
struct Chunk {
    /// The slots issued so far; `None` once the collector freed the object.
    slots: Vec<Option<PyVal>>,
    /// One bit per occupied slot.
    occupied: [u64; WORDS],
    /// One bit per slot reached by the collection in progress.
    marked: [u64; WORDS],
}

impl Chunk {
    fn new() -> Box<Chunk> {
        Box::new(Chunk {
            slots: Vec::with_capacity(CHUNK),
            occupied: [0; WORDS],
            marked: [0; WORDS],
        })
    }

    /// Frees every occupied slot the marking did not reach and clears the
    /// marks; returns how many it freed.
    fn sweep(&mut self) -> usize {
        let mut freed = 0;
        for w in 0..WORDS {
            let mut dead = self.occupied[w] & !self.marked[w];
            freed += dead.count_ones() as usize;
            while dead != 0 {
                self.slots[w * 64 + dead.trailing_zeros() as usize] = None;
                dead &= dead - 1;
            }
            self.occupied[w] &= self.marked[w];
            self.marked[w] = 0;
        }
        freed
    }

    /// Occupied slots.
    fn live(&self) -> usize {
        self.occupied.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// The object heap, with an id-stable mark-sweep collector.
///
/// Object indices are issued in increasing order and never reused, so an
/// [`ObjRef`]'s `id()` and address stay the object's for the whole run,
/// and two refs are equal exactly when they name the same object, even
/// across collections. Objects live in chunks of 1024 slots. A collection
/// ([`Heap::collect`]) empties every slot its roots cannot reach, which
/// drops the object's own strings and vectors, and frees every chunk left
/// with no object (except the one being filled). Its cost follows the live
/// objects and the allocated chunks, not the indices ever issued. Reading
/// a collected object panics with its number: a live object only ever
/// refers to live ones, so that is a missing root.
#[derive(Debug, Clone, Default)]
pub struct Heap {
    /// Chunk `first_chunk + i` at `chunks[i]`; `None` once freed.
    chunks: Vec<Option<Box<Chunk>>>,
    /// The chunk number of `chunks[0]`: 0, except in a test heap started
    /// near the end of the index space.
    first_chunk: usize,
    /// Numbers of the chunks still allocated, which the sweep visits.
    allocated: Vec<usize>,
    /// The next index to issue.
    next: u64,
    /// `next` when the last collection ran.
    next_at_collect: u64,
    /// Objects the last collection left alive.
    survivors: u64,
    collections: u64,
    /// The mark phase's work list, kept between collections.
    pending: Vec<ObjRef>,
    /// Bumped by every [`Heap::get_mut`], the only way an object changes
    /// in place.
    epoch: u64,
}

/// Reports a read of a freed object.
#[cold]
#[inline(never)]
fn collected(r: ObjRef) -> ! {
    panic!(
        "MiniPy object {} was read after the collector freed it",
        r.0
    )
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Heap::default()
    }

    /// A heap whose next index is `next`, for testing the end of the
    /// index space without allocating up to it.
    #[cfg(test)]
    pub(crate) fn issuing_from(next: u64) -> Self {
        let (chunk_no, slot) = (next as usize / CHUNK, next as usize % CHUNK);
        let mut heap = Heap {
            first_chunk: chunk_no,
            next,
            next_at_collect: next,
            ..Heap::default()
        };
        if slot != 0 {
            let mut chunk = Chunk::new();
            chunk.slots.resize(slot, None);
            heap.chunks.push(Some(chunk));
            heap.allocated.push(chunk_no);
        }
        heap
    }

    /// Allocates a value, returning its reference.
    ///
    /// # Panics
    ///
    /// When the 2³² object indices are used up (the interpreter reports
    /// a `MemoryError` instead).
    pub fn alloc(&mut self, v: PyVal) -> ObjRef {
        self.try_alloc(v)
            .expect("MiniPy object index space exhausted")
    }

    /// Allocates a value, or returns `None` when every object index has
    /// been issued (indices are never reused).
    pub(crate) fn try_alloc(&mut self, v: PyVal) -> Option<ObjRef> {
        let index = u32::try_from(self.next).ok()?;
        let (chunk_no, slot) = (index as usize / CHUNK, index as usize % CHUNK);
        if slot == 0 {
            self.chunks.push(Some(Chunk::new()));
            self.allocated.push(chunk_no);
        }
        let chunk = self.chunks[chunk_no - self.first_chunk]
            .as_mut()
            .expect("the chunk being filled is never freed");
        chunk.slots.push(Some(v));
        chunk.occupied[slot / 64] |= 1 << (slot % 64);
        self.next += 1;
        Some(ObjRef(index))
    }

    fn chunk(&self, r: ObjRef) -> Option<&Chunk> {
        let i = (r.0 as usize / CHUNK).checked_sub(self.first_chunk)?;
        self.chunks.get(i)?.as_deref()
    }

    fn chunk_mut(&mut self, r: ObjRef) -> Option<&mut Chunk> {
        let i = (r.0 as usize / CHUNK).checked_sub(self.first_chunk)?;
        self.chunks.get_mut(i)?.as_deref_mut()
    }

    /// Reads an object.
    ///
    /// # Panics
    ///
    /// When the collector has freed `r`, naming the object.
    pub fn get(&self, r: ObjRef) -> &PyVal {
        match self
            .chunk(r)
            .and_then(|c| c.slots.get(r.0 as usize % CHUNK))
        {
            Some(Some(v)) => v,
            _ => collected(r),
        }
    }

    /// Mutates an object in place.
    ///
    /// # Panics
    ///
    /// When the collector has freed `r`, naming the object.
    pub fn get_mut(&mut self, r: ObjRef) -> &mut PyVal {
        self.epoch += 1;
        match self
            .chunk_mut(r)
            .and_then(|c| c.slots.get_mut(r.0 as usize % CHUNK))
        {
            Some(Some(v)) => v,
            _ => collected(r),
        }
    }

    /// The mutation epoch: unchanged since an earlier reading means no
    /// object has changed in place since then.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether enough has been allocated since the last collection for
    /// the interpreter to run the next one: 4096 objects, or
    /// as many as the last collection left alive if that is more, so
    /// marking costs about one object per allocation however large the
    /// live heap. Debug builds collect after any allocation, so every
    /// test that runs MiniPy code also checks the interpreter's roots.
    pub(crate) fn wants_collection(&self) -> bool {
        let due = if cfg!(debug_assertions) {
            1
        } else {
            COLLECT_AFTER.max(self.survivors)
        };
        self.next - self.next_at_collect >= due
    }

    /// Frees every object that `roots` cannot reach. Indices are not
    /// reused, and no live object moves.
    ///
    /// # Panics
    ///
    /// When a root, or an object reachable from one, was already freed.
    pub fn collect(&mut self, roots: impl IntoIterator<Item = ObjRef>) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.extend(roots);
        while let Some(r) = pending.pop() {
            let chunk = self.chunk_mut(r).unwrap_or_else(|| collected(r));
            let index = r.0 as usize % CHUNK;
            let (word, bit) = (index / 64, 1u64 << (index % 64));
            if chunk.marked[word] & bit != 0 {
                continue;
            }
            chunk.marked[word] |= bit;
            match chunk.slots.get(index) {
                Some(Some(v)) => match v {
                    PyVal::List(items) | PyVal::Tuple(items) => pending.extend(items),
                    PyVal::Dict(entries) => {
                        pending.extend(entries.iter().flat_map(|&(k, v)| [k, v]));
                    }
                    PyVal::Instance { fields, .. } => {
                        pending.extend(fields.iter().map(|&(_, v)| v));
                    }
                    PyVal::BoundMethod { receiver, .. } => pending.push(*receiver),
                    _ => {}
                },
                _ => collected(r),
            }
        }
        self.pending = pending;
        // The chunk being filled stays, even when empty: the next index
        // is issued into it.
        let filling = (self.next / CHUNK as u64) as usize;
        let (chunks, first) = (&mut self.chunks, self.first_chunk);
        let mut freed = 0;
        self.allocated.retain(|&chunk_no| {
            let entry = &mut chunks[chunk_no - first];
            let chunk = entry.as_mut().expect("allocated chunk");
            let keep = chunk_no == filling || chunk.marked.iter().any(|&w| w != 0);
            if keep {
                freed += chunk.sweep();
                return true;
            }
            // Nothing in it survived: its objects go all at once.
            freed += entry.take().expect("allocated chunk").live();
            false
        });
        self.survivors = self.live() as u64 - freed as u64;
        self.next_at_collect = self.next;
        self.collections += 1;
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

    /// Object indices issued so far: every allocation, collected or not.
    pub fn issued(&self) -> u64 {
        self.next
    }

    /// Objects not yet collected.
    pub fn live(&self) -> usize {
        (self.survivors + self.next - self.next_at_collect) as usize
    }

    /// Collections run so far.
    pub fn collections(&self) -> u64 {
        self.collections
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
        let obj = self.get(r);
        // An object without children cannot be part of a cycle.
        if let Some(v) = (depth > 0).then(|| scalar_value(obj)).flatten() {
            return v.with_location(Location::Heap).with_address(addr);
        }
        if depth == 0 || !seen.insert(r) {
            return Value::none(obj.type_name().to_owned())
                .with_location(Location::Heap)
                .with_address(addr);
        }
        let v = match obj {
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
            scalar => unreachable!("{} has no children", scalar.type_name()),
        };
        seen.remove(&r);
        v.with_location(Location::Heap).with_address(addr)
    }

    /// A `REF` value pointing at object `r` — how variables and container
    /// slots are represented (paper §II-B2: every Python variable is a REF
    /// on the stack pointing to the heap).
    pub fn ref_value(&self, r: ObjRef, depth: usize, seen: &mut HashSet<ObjRef>) -> Value {
        let target = self.to_abstract_bounded(r, depth, seen);
        let type_name = self.get(r).type_name();
        let lt = match builtin_ref_type(type_name) {
            Some(lt) => lt.to_owned(),
            None => format!("ref[{type_name}]"),
        };
        Value::reference(target, lt).with_location(Location::Stack)
    }

    /// Public wrapper of [`Heap::ref_value`] with default limits.
    pub fn binding_value(&self, r: ObjRef) -> Value {
        self.ref_value(r, 24, &mut HashSet::new())
    }
}

/// The abstract value of an object whose value shows no other object, or
/// `None` for a container or instance.
fn scalar_value(obj: &PyVal) -> Option<Value> {
    Some(match obj {
        PyVal::Int(v) => Value::primitive(Prim::Int(*v), "int"),
        PyVal::Float(v) => Value::primitive(Prim::Float(*v), "float"),
        PyVal::Bool(b) => Value::primitive(Prim::Bool(*b), "bool"),
        PyVal::Str(s) => Value::primitive(Prim::Str(s.clone()), "str"),
        PyVal::None => Value::none("NoneType"),
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
        PyVal::List(_) | PyVal::Tuple(_) | PyVal::Dict(_) | PyVal::Instance { .. } => return None,
    })
}

/// `ref[T]` for the builtin type `T`, spelled once.
fn builtin_ref_type(type_name: &str) -> Option<&'static str> {
    Some(match type_name {
        "int" => "ref[int]",
        "float" => "ref[float]",
        "bool" => "ref[bool]",
        "str" => "ref[str]",
        "NoneType" => "ref[NoneType]",
        "list" => "ref[list]",
        "tuple" => "ref[tuple]",
        "dict" => "ref[dict]",
        "function" => "ref[function]",
        "type" => "ref[type]",
        "range" => "ref[range]",
        _ => return None,
    })
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

    #[test]
    fn collection_frees_the_unreachable_and_keeps_ids() {
        let mut h = heap();
        let a = h.alloc(PyVal::Int(1));
        let l = h.alloc(PyVal::List(vec![a]));
        let lone = h.alloc(PyVal::Str("gone".into()));
        let c1 = h.alloc(PyVal::List(vec![]));
        let c2 = h.alloc(PyVal::List(vec![c1]));
        if let PyVal::List(items) = h.get_mut(c1) {
            items.push(c2);
        }
        h.collect([l]);
        assert_eq!((h.live(), h.issued(), h.collections()), (2, 5, 1));
        assert_eq!(h.repr(l), "[1]");
        for dead in [lone, c1, c2] {
            let chunk = h.chunk(dead).unwrap();
            assert!(chunk.slots[dead.0 as usize].is_none());
        }
        // A new object takes a new index, never a freed one.
        assert_eq!(h.alloc(PyVal::None), ObjRef(5));
    }

    #[test]
    fn chunks_left_empty_are_freed_except_the_one_being_filled() {
        let mut h = heap();
        let first = h.alloc(PyVal::Int(0));
        for i in 1..(2 * CHUNK + 10) {
            h.alloc(PyVal::Int(i as i64));
        }
        h.collect([first]);
        assert_eq!(h.allocated, vec![0, 2]);
        assert!(h.chunks[1].is_none());
        assert_eq!(h.live(), 1);
        let next = h.alloc(PyVal::Int(-1));
        assert_eq!(next.0 as usize, 2 * CHUNK + 10);
        assert_eq!(h.repr(next), "-1");
    }

    #[test]
    fn a_heap_slot_is_four_words() {
        assert_eq!(std::mem::size_of::<Option<PyVal>>(), 32);
    }

    #[test]
    fn the_last_index_is_issued_once() {
        let mut h = Heap::issuing_from(u32::MAX as u64);
        assert_eq!(h.try_alloc(PyVal::None), Some(ObjRef(u32::MAX)));
        assert_eq!(h.try_alloc(PyVal::None), None);
        assert_eq!(h.issued(), 1 << 32);
    }
}
