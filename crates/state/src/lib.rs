//! Language-agnostic, serializable representation of the state of a paused
//! program.
//!
//! This crate implements the class diagram of Fig. 3 of the EasyTracker paper:
//! a paused *inferior* is described by a stack of [`Frame`]s, each holding
//! named [`Variable`]s, whose values are [`Value`]s tagged with an
//! [`AbstractType`], a conceptual memory [`Location`], an optional machine
//! address, and the type name in the inferior language's own terminology.
//!
//! The representation is deliberately identical for every supported inferior
//! language (a C subset, a Python subset, and RISC-V assembly in this
//! repository), so that a visualization tool written once works on all of
//! them. All types serialize with [serde], which is what lets the GDB-style
//! tracker ship state across its machine-interface pipe, and what lets tools
//! dump state as JSON for web front ends.
//!
//! # Examples
//!
//! ```
//! use state::{Value, Prim, Location};
//!
//! // The integer 42 stored on the stack at address 0x7ff0, as a C `int`.
//! let v = Value::primitive(Prim::Int(42), "int")
//!     .with_location(Location::Stack)
//!     .with_address(0x7ff0);
//! assert_eq!(v.language_type(), "int");
//! let json = serde_json::to_string(&v).unwrap();
//! let back: Value = serde_json::from_str(&json).unwrap();
//! assert_eq!(v, back);
//! ```

mod diag;
mod pause;
mod render;
mod value;

pub use diag::{Diagnostic, DiagnosticKind, Severity};
pub use pause::{ExitStatus, PauseReason, SourceLocation};
pub use render::render_value;
pub use value::{AbstractType, Content, Location, Prim, Value};

use serde::de::{Reader, Slot};
use serde::{DeError, Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;

/// A named variable in some scope of the paused inferior.
///
/// # Examples
///
/// ```
/// use state::{Variable, Value, Prim, Scope};
/// let var = Variable::new("x", Scope::Local, Value::primitive(Prim::Int(3), "int"));
/// assert_eq!(var.name(), "x");
/// assert_eq!(var.scope(), Scope::Local);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Variable {
    name: String,
    scope: Scope,
    value: Value,
}

impl Variable {
    /// Creates a variable from its name, scope and value.
    pub fn new(name: impl Into<String>, scope: Scope, value: Value) -> Self {
        Variable {
            name: name.into(),
            scope,
            value,
        }
    }

    /// The variable's name as spelled in the inferior source.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The scope the variable was found in.
    pub fn scope(&self) -> Scope {
        self.scope
    }

    /// The variable's current value.
    pub fn value(&self) -> &Value {
        &self.value
    }

    /// Consumes the variable and returns its value.
    pub fn into_value(self) -> Value {
        self.value
    }
}

/// Scope classification of a [`Variable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Scope {
    /// A local variable (or parameter) of the frame it appears in.
    Local,
    /// A function parameter. Parameters are also locals; trackers that can
    /// distinguish them report `Parameter`, others report `Local`.
    Parameter,
    /// A global (module-level / file-scope) variable.
    Global,
    /// A machine register (assembly-level inferiors).
    Register,
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Scope::Local => "local",
            Scope::Parameter => "parameter",
            Scope::Global => "global",
            Scope::Register => "register",
        };
        f.write_str(s)
    }
}

/// One stack frame of the paused inferior.
///
/// Frames form a singly linked list from the innermost (currently executing)
/// frame to `main`'s frame through [`Frame::parent`]. `depth` is `0` for the
/// outermost frame and grows inward, matching the paper's `maxdepth`
/// convention.
///
/// # Examples
///
/// ```
/// use state::{Frame, Variable, Value, Prim, Scope, SourceLocation};
/// let mut f = Frame::new("main", 0, SourceLocation::new("prog.c", 3));
/// f.insert_variable(Variable::new("x", Scope::Local, Value::primitive(Prim::Int(1), "int")));
/// assert_eq!(f.variables().count(), 1);
/// assert!(f.variable("x").is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    name: String,
    depth: u32,
    location: SourceLocation,
    /// One entry per name, in declaration order, so that diagrams list
    /// variables as the paper's tools do.
    variables: Vec<Variable>,
    /// Every position in `variables`, sorted by name: the order the
    /// writer keys them in, kept up to date as variables are inserted so
    /// that no encode sorts.
    by_name: ByName,
    parent: Option<Box<Frame>>,
}

/// The most variables a frame finds by scanning rather than by bisecting
/// `Frame::by_name`, and keeps `Frame::by_name` inline for.
const SCAN_LIMIT: usize = 32;

/// A frame's variable positions sorted by name.
#[derive(Debug, Clone, PartialEq)]
enum ByName {
    /// The first `variables.len()` entries, while that is at most
    /// [`SCAN_LIMIT`].
    Inline([u8; SCAN_LIMIT]),
    /// Past [`SCAN_LIMIT`] variables.
    Spilled(Vec<usize>),
}

impl ByName {
    /// The position of the `k`th variable by name.
    fn get(&self, k: usize) -> usize {
        match self {
            ByName::Inline(order) => usize::from(order[k]),
            ByName::Spilled(order) => order[k],
        }
    }

    /// Inserts position `i` (the frame's `len`th variable, `len` before
    /// it) at `k`.
    fn insert(&mut self, k: usize, i: usize, len: usize) {
        match self {
            ByName::Inline(order) if len < SCAN_LIMIT => {
                order.copy_within(k..len, k + 1);
                order[k] = i as u8;
            }
            ByName::Inline(order) => {
                let mut spilled: Vec<usize> = order.iter().map(|&i| usize::from(i)).collect();
                spilled.insert(k, i);
                *self = ByName::Spilled(spilled);
            }
            ByName::Spilled(order) => order.insert(k, i),
        }
    }
}

impl Frame {
    /// Creates an empty frame for function `name` at call `depth`.
    pub fn new(name: impl Into<String>, depth: u32, location: SourceLocation) -> Self {
        Frame {
            name: name.into(),
            depth,
            location,
            variables: Vec::new(),
            by_name: ByName::Inline([0; SCAN_LIMIT]),
            parent: None,
        }
    }

    /// The name of the function this frame executes.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Call depth of this frame: `0` for the program entry point.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Where in the source this frame is currently paused.
    pub fn location(&self) -> &SourceLocation {
        &self.location
    }

    /// Adds a variable at the end of the frame, or replaces the one of
    /// the same name in its place.
    pub fn insert_variable(&mut self, var: Variable) {
        match self.find(&var.name) {
            Ok(i) => self.variables[i] = var,
            Err(k) => {
                let len = self.variables.len();
                self.by_name.insert(k, len, len);
                self.variables.push(var);
            }
        }
    }

    /// The position of the variable called `name`, or where its position
    /// would go in `by_name`.
    fn find(&self, name: &str) -> Result<usize, usize> {
        match &self.by_name {
            ByName::Inline(_) => {
                let mut k = 0;
                for (i, v) in self.variables.iter().enumerate() {
                    match v.name.as_str().cmp(name) {
                        Ordering::Equal => return Ok(i),
                        Ordering::Less => k += 1,
                        Ordering::Greater => {}
                    }
                }
                Err(k)
            }
            ByName::Spilled(order) => order
                .binary_search_by(|&i| self.variables[i].name.as_str().cmp(name))
                .map(|k| order[k]),
        }
    }

    /// Looks a variable up by name.
    pub fn variable(&self, name: &str) -> Option<&Variable> {
        self.find(name).ok().map(|i| &self.variables[i])
    }

    /// Iterates over variables in their declaration order.
    pub fn variables(&self) -> impl Iterator<Item = &Variable> {
        self.variables.iter()
    }

    /// Number of variables visible in the frame.
    pub fn len(&self) -> usize {
        self.variables.len()
    }

    /// Whether the frame has no visible variables.
    pub fn is_empty(&self) -> bool {
        self.variables.is_empty()
    }

    /// The caller's frame, if this frame is not the outermost one.
    pub fn parent(&self) -> Option<&Frame> {
        self.parent.as_deref()
    }

    /// Attaches the caller's frame.
    pub fn set_parent(&mut self, parent: Frame) {
        self.parent = Some(Box::new(parent));
    }

    /// Walks the frame chain from this frame outward (inclusive).
    pub fn chain(&self) -> FrameChain<'_> {
        FrameChain { next: Some(self) }
    }

    /// Writes `"order":[..],"variables":{..}`: the names in declaration
    /// order, then the variables keyed and sorted by name.
    fn write_variables(&self, out: &mut String) {
        out.push_str("\"order\":[");
        for (i, var) in self.variables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            var.name.write_json(out);
        }
        out.push_str("],\"variables\":{");
        let mut write = |k: usize, var: &Variable| {
            if k > 0 {
                out.push(',');
            }
            var.name.write_json(out);
            out.push(':');
            var.write_json(out);
        };
        for k in 0..self.variables.len() {
            write(k, &self.variables[self.by_name.get(k)]);
        }
        out.push('}');
    }
}

// Frames nest through `parent`, one JSON object per call. Writing and
// reading walk that chain in a loop, so a deep stack costs neither native
// stack nor JSON nesting depth (`serde::de::MAX_DEPTH`). The text is what
// a derive over `order: Vec<String>` and `variables: BTreeMap<String,
// Variable>` would produce, with `parent` as the last key; the reader
// takes the keys in any order, like a derived one.
impl Serialize for Frame {
    fn write_json(&self, out: &mut String) {
        let mut open = 0;
        for frame in self.chain() {
            out.push_str("{\"name\":");
            frame.name.write_json(out);
            out.push_str(",\"depth\":");
            frame.depth.write_json(out);
            out.push_str(",\"location\":");
            frame.location.write_json(out);
            out.push(',');
            frame.write_variables(out);
            out.push_str(",\"parent\":");
            open += 1;
        }
        out.push_str("null");
        for _ in 0..open {
            out.push('}');
        }
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        // Unlink the chain first, so a deep stack drops in a loop rather
        // than one nested drop call per frame.
        let mut next = self.parent.take();
        while let Some(mut frame) = next {
            next = frame.parent.take();
        }
    }
}

/// A frame's keys as the writer spells them, in its order.
const FRAME_KEYS: [&[u8]; 6] = [
    b"\"name\":",
    b"\"depth\":",
    b"\"location\":",
    b"\"order\":",
    b"\"variables\":",
    b"\"parent\":",
];

/// The fields of a frame whose object is still open.
#[derive(Default)]
struct OpenFrame {
    first: bool,
    /// Index into [`FRAME_KEYS`] of the key the writer puts next.
    next: usize,
    name: Slot<String>,
    depth: Slot<u32>,
    location: Slot<SourceLocation>,
    /// Where the `order` names are in the reader's shared list of them.
    order: Slot<Range<usize>>,
    variables: Slot<Vec<Variable>>,
    parent: Slot<Option<Box<Frame>>>,
}

impl OpenFrame {
    fn new() -> Self {
        OpenFrame {
            first: true,
            ..OpenFrame::default()
        }
    }

    /// The index into [`FRAME_KEYS`] of the next key, or `None` once the
    /// object has closed. An unknown key is skipped.
    fn next_key(&mut self, r: &mut Reader<'_>) -> Result<Option<usize>, DeError> {
        loop {
            if let Some(key) = FRAME_KEYS.get(self.next) {
                if r.next_key_is(&mut self.first, key) {
                    return Ok(Some(self.next));
                }
            }
            let Some(key) = r.next_key(&mut self.first)? else {
                return Ok(None);
            };
            let field = FRAME_KEYS
                .iter()
                .position(|k| k[1..k.len() - 2] == *key.as_bytes());
            match field {
                Some(field) => return Ok(Some(field)),
                None => r.skip_value()?,
            }
        }
    }

    /// The frame, with its `order` looked up in `names`.
    fn finish(self, names: &[Cow<'_, str>]) -> Result<Frame, DeError> {
        let name = self.name.finish("Frame.name")?;
        let depth = self.depth.finish("Frame.depth")?;
        let location = self.location.finish("Frame.location")?;
        let order = match self.order {
            Slot::Full(order) => order,
            Slot::Failed(e) => return Err(e.in_field("Frame.order")),
            Slot::Empty => return Err(DeError::custom("expected array").in_field("Frame.order")),
        };
        let (variables, by_name) =
            arrange(&names[order], self.variables.finish("Frame.variables")?);
        Ok(Frame {
            name,
            depth,
            location,
            variables,
            by_name,
            parent: self.parent.finish("Frame.parent")?,
        })
    }
}

/// Reads `order`, a frame's variable names in declaration order, onto the
/// end of `names`, borrowed from the input; returns where they went.
fn read_order<'a>(
    r: &mut Reader<'a>,
    names: &mut Vec<Cow<'a, str>>,
) -> Result<Range<usize>, DeError> {
    if !r.begin_array()? {
        return Err(DeError::custom("expected array"));
    }
    let start = names.len();
    let mut failed = None;
    let mut first = true;
    while r.next_element(&mut first)? {
        match r.str()? {
            Some(name) => names.push(name),
            None => {
                failed.get_or_insert_with(|| DeError::custom("expected string"));
                r.skip_value()?;
            }
        }
    }
    failed.map_or(Ok(start..names.len()), Err)
}

/// Reads `variables`: an object of variables keyed by their names, in any
/// order. `expected` (the length of `order`) sizes the result, up to
/// [`SCAN_LIMIT`]: a hostile `order` of a few bytes per name must not
/// reserve a whole variable for each.
fn read_variables(r: &mut Reader<'_>, expected: usize) -> Result<Vec<Variable>, DeError> {
    let mut vars = Vec::with_capacity(expected.min(SCAN_LIMIT));
    let mut misnamed = None;
    r.entries(|key, var: Variable| {
        if key == var.name {
            vars.push(var);
        } else {
            misnamed.get_or_insert_with(|| {
                DeError::custom(format!("variable `{}` is keyed as `{key}`", var.name))
            });
        }
    })?;
    misnamed.map_or(Ok(vars), Err)
}

/// Puts decoded variables in declaration order: first those `order`
/// names, in its order, then the rest by name. A name `order` repeats or
/// no variable has is passed over, and of two variables with one name
/// the later wins, so that writing the frame again reproduces it. Also
/// returns the frame's `by_name`.
///
/// Sorting and bisection keep this `O(n log n)` however the two disagree;
/// text the writer produced is already sorted by name.
fn arrange(order: &[Cow<'_, str>], mut vars: Vec<Variable>) -> (Vec<Variable>, ByName) {
    if !vars.windows(2).all(|w| w[0].name < w[1].name) {
        vars.sort_by(|a, b| a.name.cmp(&b.name));
        vars.dedup_by(|later, kept| {
            let same = later.name == kept.name;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
    }
    let n = vars.len();
    // `rank[j]`: the declaration position of the `j`th variable by name.
    let mut small = [usize::MAX; SCAN_LIMIT];
    let mut large = Vec::new();
    let rank = if n <= SCAN_LIMIT {
        &mut small[..n]
    } else {
        large.resize(n, usize::MAX);
        &mut large[..]
    };
    let mut next = 0;
    for name in order {
        if let Ok(j) = vars.binary_search_by(|v| v.name.as_str().cmp(name)) {
            if rank[j] == usize::MAX {
                rank[j] = next;
                next += 1;
            }
        }
    }
    for r in rank.iter_mut().filter(|r| **r == usize::MAX) {
        *r = next;
        next += 1;
    }
    let by_name = if n > SCAN_LIMIT {
        ByName::Spilled(rank.to_vec())
    } else {
        let mut order = [0; SCAN_LIMIT];
        for (o, &r) in order.iter_mut().zip(&*rank) {
            *o = r as u8;
        }
        ByName::Inline(order)
    };
    // Move each variable to its rank, one swap per misplaced variable.
    for j in 0..n {
        while rank[j] != j {
            let r = rank[j];
            vars.swap(j, r);
            rank.swap(j, r);
        }
    }
    (vars, by_name)
}

impl Deserialize for Frame {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        if !r.begin_object()? {
            return Err(DeError::custom("expected object for struct Frame"));
        }
        // Callees whose `parent` object is being read, innermost first.
        let mut callees: Vec<OpenFrame> = Vec::new();
        // Every frame's `order` names, so that the chain shares one list.
        let mut names = Vec::new();
        let mut cur = OpenFrame::new();
        loop {
            let Some(field) = cur.next_key(r)? else {
                let done = cur.finish(&names);
                let Some(callee) = callees.pop() else {
                    return done;
                };
                r.leave_loop();
                cur = callee;
                cur.parent = match done {
                    Ok(frame) => Slot::Full(Some(Box::new(frame))),
                    Err(e) => Slot::Failed(e),
                };
                continue;
            };
            cur.next = field + 1;
            match field {
                0 => r.field(&mut cur.name)?,
                1 => r.field(&mut cur.depth)?,
                2 => r.field(&mut cur.location)?,
                3 => r.field_with(&mut cur.order, |r| read_order(r, &mut names))?,
                4 => {
                    let expected = match &cur.order {
                        Slot::Full(order) => order.len(),
                        _ => 0,
                    };
                    r.field_with(&mut cur.variables, |r| read_variables(r, expected))?;
                }
                _ => {
                    if r.begin_object()? {
                        r.enter_loop();
                        callees.push(std::mem::replace(&mut cur, OpenFrame::new()));
                    } else {
                        r.field(&mut cur.parent)?;
                    }
                }
            }
        }
    }
}

/// Iterator over a frame and its ancestors, innermost first.
///
/// Produced by [`Frame::chain`].
#[derive(Debug, Clone)]
pub struct FrameChain<'a> {
    next: Option<&'a Frame>,
}

impl<'a> Iterator for FrameChain<'a> {
    type Item = &'a Frame;

    fn next(&mut self) -> Option<Self::Item> {
        let cur = self.next?;
        self.next = cur.parent();
        Some(cur)
    }
}

/// A full snapshot of a paused program: stack, globals and the source
/// position, ready for serialization.
///
/// This is the unit that crosses the machine-interface boundary in the
/// GDB-style tracker and the unit the Python-Tutor exporter records per step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgramState {
    /// Innermost frame; ancestors hang off [`Frame::parent`].
    pub frame: Frame,
    /// Global variables visible at the pause point.
    pub globals: Vec<Variable>,
    /// Why the program paused.
    pub reason: PauseReason,
}

impl ProgramState {
    /// Creates a snapshot from its parts.
    pub fn new(frame: Frame, globals: Vec<Variable>, reason: PauseReason) -> Self {
        ProgramState {
            frame,
            globals,
            reason,
        }
    }

    /// Total number of frames on the stack.
    pub fn stack_depth(&self) -> usize {
        self.frame.chain().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc() -> SourceLocation {
        SourceLocation::new("t.c", 1)
    }

    #[test]
    fn frame_preserves_declaration_order() {
        let mut f = Frame::new("f", 0, loc());
        for name in ["zeta", "alpha", "mid"] {
            f.insert_variable(Variable::new(
                name,
                Scope::Local,
                Value::primitive(Prim::Int(0), "int"),
            ));
        }
        let names: Vec<_> = f.variables().map(|v| v.name().to_owned()).collect();
        assert_eq!(names, ["zeta", "alpha", "mid"]);
    }

    #[test]
    fn frame_replacement_keeps_single_entry() {
        let mut f = Frame::new("f", 0, loc());
        f.insert_variable(Variable::new(
            "x",
            Scope::Local,
            Value::primitive(Prim::Int(1), "int"),
        ));
        f.insert_variable(Variable::new(
            "x",
            Scope::Local,
            Value::primitive(Prim::Int(2), "int"),
        ));
        assert_eq!(f.len(), 1);
        match f.variable("x").unwrap().value().content() {
            Content::Primitive(Prim::Int(n)) => assert_eq!(*n, 2),
            other => panic!("unexpected content {other:?}"),
        }
    }

    #[test]
    fn the_wire_lists_names_in_order_and_variables_by_name() {
        let mut f = Frame::new("f", 0, loc());
        for name in ["zeta", "alpha", "mid"] {
            f.insert_variable(Variable::new(
                name,
                Scope::Local,
                Value::primitive(Prim::Int(0), "int"),
            ));
        }
        let json = serde_json::to_string(&f).unwrap();
        let keys: Vec<&str> = [
            "\"order\":[\"zeta\",\"alpha\",\"mid\"]",
            "\"alpha\":{",
            "\"mid\":{",
            "\"zeta\":{",
        ]
        .into_iter()
        .collect();
        let at: Vec<usize> = keys.iter().map(|k| json.find(k).expect(k)).collect();
        assert!(at.windows(2).all(|w| w[0] < w[1]), "{json}");
        assert_eq!(serde_json::from_str::<Frame>(&json).unwrap(), f);
    }

    #[test]
    fn every_frame_size_writes_its_variables_by_name() {
        // Sizes on both sides of the inline name order's limit, names
        // inserted out of order, and some replaced.
        for len in 0..=SCAN_LIMIT + 2 {
            let mut f = Frame::new("f", 0, loc());
            let names: Vec<String> = (0..len)
                .map(|i| format!("v{}", (i * 13 + 5) % 97))
                .collect();
            for (i, name) in names.iter().enumerate() {
                let value = Value::primitive(Prim::Int(i as i64), "int");
                f.insert_variable(Variable::new(name.as_str(), Scope::Local, value));
            }
            for name in names.iter().step_by(3) {
                let value = Value::primitive(Prim::Int(-1), "int");
                f.insert_variable(Variable::new(name.as_str(), Scope::Local, value));
            }
            let json = serde_json::to_string(&f).unwrap();
            let mut sorted = names.clone();
            sorted.sort();
            let at: Vec<usize> = sorted
                .iter()
                .map(|n| json.find(&format!("\"{n}\":{{")).expect(n))
                .collect();
            assert!(at.windows(2).all(|w| w[0] < w[1]), "{json}");
            assert_eq!(serde_json::from_str::<Frame>(&json).unwrap(), f);
        }
    }

    #[test]
    fn a_wide_frame_keeps_declaration_order_and_finds_by_name() {
        let int = |v| Value::primitive(Prim::Int(v), "int");
        let mut f = Frame::new("f", 0, loc());
        let names: Vec<String> = (0..3 * SCAN_LIMIT)
            .map(|i| format!("x{}", i * 37 % 96))
            .collect();
        for name in &names {
            f.insert_variable(Variable::new(name.as_str(), Scope::Local, int(0)));
        }
        // Replacing keeps each variable in its place, before and after
        // the frame grows its name index.
        for (i, name) in names.iter().enumerate().step_by(5) {
            f.insert_variable(Variable::new(name.as_str(), Scope::Local, int(i as i64)));
        }
        assert_eq!(f.len(), names.len());
        let order: Vec<&str> = f.variables().map(Variable::name).collect();
        assert_eq!(order, names);
        for (i, name) in names.iter().enumerate().step_by(5) {
            assert_eq!(f.variable(name).unwrap().value(), &int(i as i64));
        }
        assert!(f.variable("x96").is_none() && f.variable("").is_none());
        let json = serde_json::to_string(&f).unwrap();
        assert_eq!(serde_json::from_str::<Frame>(&json).unwrap(), f);
    }

    #[test]
    fn frame_chain_walks_to_main() {
        let mut main = Frame::new("main", 0, loc());
        main.insert_variable(Variable::new(
            "g",
            Scope::Local,
            Value::primitive(Prim::Int(7), "int"),
        ));
        let mut inner = Frame::new("helper", 1, loc());
        inner.set_parent(main);
        let names: Vec<_> = inner.chain().map(|f| f.name().to_owned()).collect();
        assert_eq!(names, ["helper", "main"]);
        assert_eq!(inner.chain().count(), 2);
    }

    #[test]
    fn program_state_roundtrips_through_json() {
        let mut f = Frame::new("main", 0, loc());
        f.insert_variable(Variable::new(
            "p",
            Scope::Local,
            Value::reference(
                Value::primitive(Prim::Int(9), "int").with_location(Location::Heap),
                "int*",
            ),
        ));
        let st = ProgramState::new(
            f,
            vec![Variable::new(
                "G",
                Scope::Global,
                Value::primitive(Prim::Str("hi".into()), "char*"),
            )],
            PauseReason::Step,
        );
        let json = serde_json::to_string_pretty(&st).unwrap();
        let back: ProgramState = serde_json::from_str(&json).unwrap();
        assert_eq!(st, back);
        assert_eq!(back.stack_depth(), 1);
    }

    #[test]
    fn an_ill_typed_field_deep_in_a_long_stack_reports_that_field() {
        // The chain is read in a loop, far past the nesting limit; a shape
        // error inside it must not turn into a nesting error on the way out.
        let mut frame = Frame::new("f", 0, loc());
        for depth in 1..4 * serde::de::MAX_DEPTH as u32 {
            let mut callee = Frame::new("f", depth, loc());
            callee.set_parent(frame);
            frame = callee;
        }
        let st = ProgramState::new(frame, vec![], PauseReason::Step);
        let json = serde_json::to_string(&st).unwrap();
        // Only the outermost frame has depth 0.
        let bad = json.replacen("\"depth\":0,", "\"depth\":\"x\",", 1);
        let err = serde_json::from_str::<ProgramState>(&bad).unwrap_err();
        assert!(
            err.to_string().ends_with("Frame.depth: expected u32"),
            "{err}"
        );
        // A later duplicate key still replaces the ill-typed occurrence.
        let fixed = json.replacen("\"depth\":0,", "\"depth\":\"x\",\"depth\":0,", 1);
        assert!(serde_json::from_str::<ProgramState>(&fixed).unwrap() == st);
    }

    #[test]
    fn scope_displays_lowercase() {
        assert_eq!(Scope::Local.to_string(), "local");
        assert_eq!(Scope::Register.to_string(), "register");
    }
}
