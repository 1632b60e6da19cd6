//! The [`Value`] model: abstract type, content, conceptual location,
//! address and language-level type name (paper §II-B2).

use serde::de::Reader;
use serde::{DeError, Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// The nature of a [`Value`], determining what its [`Content`] holds.
///
/// This is the paper's `abstract_type` attribute. The mapping from concrete
/// language types is:
///
/// | Abstract    | C subset                      | Python subset            |
/// |-------------|-------------------------------|--------------------------|
/// | `Primitive` | `int long double float char char*` | `int float str bool` |
/// | `Ref`       | pointers                      | every variable binding   |
/// | `List`      | arrays                        | `list`, `tuple`          |
/// | `Dict`      | —                             | `dict`                   |
/// | `Struct`    | `struct`                      | class instances          |
/// | `None`      | —                             | `None`                   |
/// | `Invalid`   | dangling/wild pointers        | —                        |
/// | `Function`  | function pointers             | functions                |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AbstractType {
    /// A primitive scalar or string.
    Primitive,
    /// A reference to another value.
    Ref,
    /// An ordered, indexable sequence.
    List,
    /// A key-value mapping.
    Dict,
    /// A record of named fields.
    Struct,
    /// The distinguished "no value" instance.
    None,
    /// A reference that does not target valid memory.
    Invalid,
    /// A function value; content is the function's name.
    Function,
}

impl fmt::Display for AbstractType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AbstractType::Primitive => "PRIMITIVE",
            AbstractType::Ref => "REF",
            AbstractType::List => "LIST",
            AbstractType::Dict => "DICT",
            AbstractType::Struct => "STRUCT",
            AbstractType::None => "NONE",
            AbstractType::Invalid => "INVALID",
            AbstractType::Function => "FUNCTION",
        };
        f.write_str(s)
    }
}

/// Primitive payloads carried by [`Content::Primitive`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Prim {
    /// Signed integers of any width up to 64 bits.
    Int(i64),
    /// IEEE-754 floating point numbers.
    Float(f64),
    /// Strings (`str` in the Python subset, `char*` in the C subset).
    Str(String),
    /// Booleans.
    Bool(bool),
    /// A single character (`char` in the C subset).
    Char(char),
}

impl fmt::Display for Prim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Prim::Int(v) => write!(f, "{v}"),
            Prim::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Prim::Str(v) => write!(f, "{v:?}"),
            Prim::Bool(v) => write!(f, "{v}"),
            Prim::Char(v) => write!(f, "{v:?}"),
        }
    }
}

/// The payload of a [`Value`], discriminated by its [`AbstractType`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Content {
    /// Payload of [`AbstractType::Primitive`].
    Primitive(Prim),
    /// Payload of [`AbstractType::Ref`]: the referenced value.
    Ref(Box<Value>),
    /// Payload of [`AbstractType::List`]: the elements in order.
    List(Vec<Value>),
    /// Payload of [`AbstractType::Dict`]: key/value pairs in insertion order.
    Dict(Vec<(Value, Value)>),
    /// Payload of [`AbstractType::Struct`]: named fields in declaration order.
    Struct(Vec<(String, Value)>),
    /// Payload of [`AbstractType::None`] and [`AbstractType::Invalid`].
    Nothing,
    /// Payload of [`AbstractType::Function`]: the function's name.
    Function(String),
}

/// Where a value conceptually lives in the inferior's memory.
///
/// "Conceptual" matches the paper: e.g. every Python variable is a `Ref` on
/// the stack pointing into the heap, even though CPython implements this
/// differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Location {
    /// In some stack frame.
    Stack,
    /// In dynamically allocated memory.
    Heap,
    /// In the global/static data region.
    Global,
    /// In a machine register.
    Register,
    /// A constant with no storage (e.g. an rvalue shown by a tool).
    Constant,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Location::Stack => "stack",
            Location::Heap => "heap",
            Location::Global => "global",
            Location::Register => "register",
            Location::Constant => "constant",
        };
        f.write_str(s)
    }
}

/// A value of the inferior, in the language-agnostic representation.
///
/// A `Value` bundles its [`AbstractType`], its [`Content`], a conceptual
/// [`Location`], an optional machine `address`, and the `language_type`: the
/// type's name in the inferior language's own terminology (`"char*"`,
/// `"tuple"`, ...).
///
/// # Examples
///
/// ```
/// use state::{Value, Prim, AbstractType};
/// let list = Value::list(
///     vec![Value::primitive(Prim::Int(1), "int"), Value::primitive(Prim::Int(2), "int")],
///     "int[2]",
/// );
/// assert_eq!(list.abstract_type(), AbstractType::List);
/// assert_eq!(list.children().count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Value {
    abstract_type: AbstractType,
    content: Content,
    location: Location,
    address: Option<u64>,
    language_type: TypeName,
}

/// A value's `language_type`. A decoded value shares one static copy of
/// each of the commonest names instead of allocating its own.
#[derive(Clone, PartialEq)]
struct TypeName(Cow<'static, str>);

/// The static copy of `name` when it is one of the type names the engines
/// give most values: MiniC's scalars and their pointers, the RISC-V
/// registers, MiniPy's built-in types.
fn common_type(name: &str) -> Option<&'static str> {
    Some(match name {
        "int" => "int",
        "long" => "long",
        "char" => "char",
        "double" => "double",
        "float" => "float",
        "int*" => "int*",
        "long*" => "long*",
        "char*" => "char*",
        "double*" => "double*",
        "u32" => "u32",
        "word" => "word",
        "label" => "label",
        "function" => "function",
        "str" => "str",
        "bool" => "bool",
        "list" => "list",
        "tuple" => "tuple",
        "dict" => "dict",
        "NoneType" => "NoneType",
        _ => return None,
    })
}

impl fmt::Debug for TypeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl Serialize for TypeName {
    fn write_json(&self, out: &mut String) {
        (*self.0).write_json(out);
    }
}

impl Deserialize for TypeName {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let name = r.str()?.ok_or_else(|| DeError::custom("expected string"))?;
        Ok(TypeName(match common_type(&name) {
            Some(name) => Cow::Borrowed(name),
            None => Cow::Owned(name.into_owned()),
        }))
    }
}

impl Value {
    fn build(
        abstract_type: AbstractType,
        content: Content,
        language_type: impl Into<String>,
    ) -> Self {
        Value {
            abstract_type,
            content,
            location: Location::Constant,
            address: None,
            language_type: TypeName(Cow::Owned(language_type.into())),
        }
    }

    /// Creates a primitive value.
    pub fn primitive(p: Prim, language_type: impl Into<String>) -> Self {
        Value::build(
            AbstractType::Primitive,
            Content::Primitive(p),
            language_type,
        )
    }

    /// Creates a reference to `target`.
    pub fn reference(target: Value, language_type: impl Into<String>) -> Self {
        Value::build(
            AbstractType::Ref,
            Content::Ref(Box::new(target)),
            language_type,
        )
    }

    /// Creates a list/array/tuple value from its elements.
    pub fn list(items: Vec<Value>, language_type: impl Into<String>) -> Self {
        Value::build(AbstractType::List, Content::List(items), language_type)
    }

    /// Creates a dictionary value from its entries.
    pub fn dict(entries: Vec<(Value, Value)>, language_type: impl Into<String>) -> Self {
        Value::build(AbstractType::Dict, Content::Dict(entries), language_type)
    }

    /// Creates a struct/instance value from its named fields.
    pub fn structure(fields: Vec<(String, Value)>, language_type: impl Into<String>) -> Self {
        Value::build(AbstractType::Struct, Content::Struct(fields), language_type)
    }

    /// Creates the distinguished "none" value.
    pub fn none(language_type: impl Into<String>) -> Self {
        Value::build(AbstractType::None, Content::Nothing, language_type)
    }

    /// Creates an invalid-reference value (e.g. a dangling C pointer).
    pub fn invalid(language_type: impl Into<String>) -> Self {
        Value::build(AbstractType::Invalid, Content::Nothing, language_type)
    }

    /// Creates a function value from the function's name.
    pub fn function(name: impl Into<String>, language_type: impl Into<String>) -> Self {
        Value::build(
            AbstractType::Function,
            Content::Function(name.into()),
            language_type,
        )
    }

    /// Sets the conceptual memory location (builder style).
    #[must_use]
    pub fn with_location(mut self, location: Location) -> Self {
        self.location = location;
        self
    }

    /// Sets the machine address (builder style).
    #[must_use]
    pub fn with_address(mut self, address: u64) -> Self {
        self.address = Some(address);
        self
    }

    /// The value's abstract type tag.
    pub fn abstract_type(&self) -> AbstractType {
        self.abstract_type
    }

    /// The value's content payload.
    pub fn content(&self) -> &Content {
        &self.content
    }

    /// The value's conceptual memory location.
    pub fn location(&self) -> Location {
        self.location
    }

    /// The value's machine address, when the tracker knows one. References
    /// have no address of their own (paper §II-B2).
    pub fn address(&self) -> Option<u64> {
        self.address
    }

    /// The type name in the inferior language's terminology.
    pub fn language_type(&self) -> &str {
        &self.language_type.0
    }

    /// Follows `Ref` links until a non-reference value is reached.
    ///
    /// Returns `self` when the value is not a reference.
    pub fn deref_fully(&self) -> &Value {
        let mut cur = self;
        while let Content::Ref(inner) = &cur.content {
            cur = inner;
        }
        cur
    }

    /// Iterates over the immediate child values (list elements, dict keys and
    /// values, struct fields, reference target). Primitives and leaves yield
    /// nothing.
    pub fn children(&self) -> Children<'_> {
        Children {
            inner: match &self.content {
                Content::Ref(v) => ChildrenInner::Single(Some(v)),
                Content::List(items) => ChildrenInner::Slice(items.iter()),
                Content::Dict(entries) => ChildrenInner::Pairs(entries.iter(), None),
                Content::Struct(fields) => ChildrenInner::Fields(fields.iter()),
                _ => ChildrenInner::Empty,
            },
        }
    }

    /// Total number of `Value` nodes in this tree, including `self`.
    pub fn node_count(&self) -> usize {
        1 + self.children().map(Value::node_count).sum::<usize>()
    }

    /// Maximum reference/containment depth of the value tree.
    pub fn depth(&self) -> usize {
        1 + self.children().map(Value::depth).max().unwrap_or(0)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::render::render_value(self))
    }
}

/// Iterator over a value's immediate children, created by [`Value::children`].
#[derive(Debug, Clone)]
pub struct Children<'a> {
    inner: ChildrenInner<'a>,
}

#[derive(Debug, Clone)]
enum ChildrenInner<'a> {
    Empty,
    Single(Option<&'a Value>),
    Slice(std::slice::Iter<'a, Value>),
    Pairs(std::slice::Iter<'a, (Value, Value)>, Option<&'a Value>),
    Fields(std::slice::Iter<'a, (String, Value)>),
}

impl<'a> Iterator for Children<'a> {
    type Item = &'a Value;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            ChildrenInner::Empty => None,
            ChildrenInner::Single(v) => v.take(),
            ChildrenInner::Slice(it) => it.next(),
            ChildrenInner::Pairs(it, pending) => {
                if let Some(v) = pending.take() {
                    return Some(v);
                }
                let (k, v) = it.next()?;
                *pending = Some(v);
                Some(k)
            }
            ChildrenInner::Fields(it) => it.next().map(|(_, v)| v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abstract_type_matches_constructor() {
        assert_eq!(
            Value::primitive(Prim::Int(1), "int").abstract_type(),
            AbstractType::Primitive
        );
        assert_eq!(Value::none("NoneType").abstract_type(), AbstractType::None);
        assert_eq!(
            Value::invalid("int*").abstract_type(),
            AbstractType::Invalid
        );
        assert_eq!(
            Value::function("main", "function").abstract_type(),
            AbstractType::Function
        );
    }

    #[test]
    fn deref_fully_chases_chains() {
        let target = Value::primitive(Prim::Int(5), "int");
        let r1 = Value::reference(target.clone(), "int*");
        let r2 = Value::reference(r1, "int**");
        assert_eq!(r2.deref_fully(), &target);
        assert_eq!(target.deref_fully(), &target);
    }

    #[test]
    fn children_cover_all_shapes() {
        let leaf = Value::primitive(Prim::Int(0), "int");
        assert_eq!(leaf.children().count(), 0);

        let l = Value::list(vec![leaf.clone(), leaf.clone()], "int[2]");
        assert_eq!(l.children().count(), 2);

        let d = Value::dict(vec![(leaf.clone(), leaf.clone())], "dict");
        assert_eq!(d.children().count(), 2); // key and value

        let s = Value::structure(vec![("a".into(), leaf.clone())], "struct s");
        assert_eq!(s.children().count(), 1);

        let r = Value::reference(leaf.clone(), "int*");
        assert_eq!(r.children().count(), 1);
    }

    #[test]
    fn node_count_and_depth() {
        let leaf = Value::primitive(Prim::Int(0), "int");
        let list = Value::list(vec![leaf.clone(), leaf.clone()], "int[2]");
        let root = Value::reference(list, "int(*)[2]");
        assert_eq!(root.node_count(), 4);
        assert_eq!(root.depth(), 3);
    }

    #[test]
    fn builder_sets_location_and_address() {
        let v = Value::primitive(Prim::Bool(true), "bool")
            .with_location(Location::Global)
            .with_address(0xdead);
        assert_eq!(v.location(), Location::Global);
        assert_eq!(v.address(), Some(0xdead));
    }

    #[test]
    fn prim_display_is_compact() {
        assert_eq!(Prim::Int(-3).to_string(), "-3");
        assert_eq!(Prim::Float(2.0).to_string(), "2.0");
        assert_eq!(Prim::Float(2.5).to_string(), "2.5");
        assert_eq!(Prim::Str("a\"b".into()).to_string(), "\"a\\\"b\"");
        assert_eq!(Prim::Char('x').to_string(), "'x'");
        assert_eq!(Prim::Bool(false).to_string(), "false");
    }

    #[test]
    fn json_roundtrip_nested() {
        let v = Value::structure(
            vec![
                (
                    "items".into(),
                    Value::list(vec![Value::primitive(Prim::Int(1), "int")], "list"),
                ),
                ("next".into(), Value::none("NoneType")),
            ],
            "Node",
        )
        .with_location(Location::Heap)
        .with_address(140_000);
        let json = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v, back);
    }
}
