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
use std::collections::BTreeMap;
use std::fmt;

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
    /// Insertion order is preserved via an explicit ordering vector so that
    /// diagrams list variables in declaration order, like the paper's tools.
    order: Vec<String>,
    variables: BTreeMap<String, Variable>,
    parent: Option<Box<Frame>>,
}

impl Frame {
    /// Creates an empty frame for function `name` at call `depth`.
    pub fn new(name: impl Into<String>, depth: u32, location: SourceLocation) -> Self {
        Frame {
            name: name.into(),
            depth,
            location,
            order: Vec::new(),
            variables: BTreeMap::new(),
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

    /// Adds (or replaces) a variable in the frame.
    pub fn insert_variable(&mut self, var: Variable) {
        if !self.variables.contains_key(var.name()) {
            self.order.push(var.name().to_owned());
        }
        self.variables.insert(var.name().to_owned(), var);
    }

    /// Looks a variable up by name.
    pub fn variable(&self, name: &str) -> Option<&Variable> {
        self.variables.get(name)
    }

    /// Iterates over variables in their declaration order.
    pub fn variables(&self) -> impl Iterator<Item = &Variable> {
        self.order.iter().filter_map(|n| self.variables.get(n))
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
}

// Frames nest through `parent`, one JSON object per call. Writing and
// reading walk that chain in a loop, so a deep stack costs neither native
// stack nor JSON nesting depth (`serde::de::MAX_DEPTH`). The text is what
// a derive would produce, with `parent` as the last key; the reader takes
// the keys in any order, like a derived one.
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
            out.push_str(",\"order\":");
            frame.order.write_json(out);
            out.push_str(",\"variables\":");
            frame.variables.write_json(out);
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

/// The fields of a frame whose object is still open.
#[derive(Default)]
struct OpenFrame {
    first: bool,
    name: Slot<String>,
    depth: Slot<u32>,
    location: Slot<SourceLocation>,
    order: Slot<Vec<String>>,
    variables: Slot<BTreeMap<String, Variable>>,
    parent: Slot<Option<Box<Frame>>>,
}

impl OpenFrame {
    fn new() -> Self {
        OpenFrame {
            first: true,
            ..OpenFrame::default()
        }
    }

    fn finish(self) -> Result<Frame, DeError> {
        Ok(Frame {
            name: self.name.finish("Frame.name")?,
            depth: self.depth.finish("Frame.depth")?,
            location: self.location.finish("Frame.location")?,
            order: self.order.finish("Frame.order")?,
            variables: self.variables.finish("Frame.variables")?,
            parent: self.parent.finish("Frame.parent")?,
        })
    }
}

impl Deserialize for Frame {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        if !r.begin_object()? {
            return Err(DeError::custom("expected object for struct Frame"));
        }
        // Callees whose `parent` object is being read, innermost first.
        let mut callees: Vec<OpenFrame> = Vec::new();
        let mut cur = OpenFrame::new();
        loop {
            let Some(key) = r.next_key(&mut cur.first)? else {
                let done = cur.finish();
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
            match &*key {
                "name" => r.field(&mut cur.name)?,
                "depth" => r.field(&mut cur.depth)?,
                "location" => r.field(&mut cur.location)?,
                "order" => r.field(&mut cur.order)?,
                "variables" => r.field(&mut cur.variables)?,
                "parent" => {
                    if r.begin_object()? {
                        r.enter_loop();
                        callees.push(std::mem::replace(&mut cur, OpenFrame::new()));
                    } else {
                        r.field(&mut cur.parent)?;
                    }
                }
                _ => r.skip_value()?,
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
