//! Converts a paused MiniPy interpreter into the language-agnostic
//! [`state`] representation.
//!
//! Per the paper's model, every variable binding becomes a `REF` value on
//! the stack pointing to a heap object; aliasing is visible because two
//! bindings to the same object yield references with the same target
//! address.

use crate::interp::{PyFrame, TraceCtx};
use state::{Frame, Scope, SourceLocation, Variable};

/// Builds the innermost [`Frame`] with the full parent chain from a trace
/// context.
///
/// The module frame is reported as function `<module>` at depth 0, like
/// CPython's. Variables appear in assignment order.
pub fn current_frame(ctx: &TraceCtx<'_>, file: &str) -> Frame {
    chain(ctx, file, global_variables(ctx))
}

/// Builds the global (module-level) variables list.
pub fn global_variables(ctx: &TraceCtx<'_>) -> Vec<Variable> {
    let module = ctx.frames.first().expect("module frame");
    variables(ctx, module, Scope::Global).collect()
}

/// [`current_frame`] and [`global_variables`] at once, converting the
/// module frame's bindings once for both.
pub fn snapshot(ctx: &TraceCtx<'_>, file: &str) -> (Frame, Vec<Variable>) {
    let globals = global_variables(ctx);
    (chain(ctx, file, globals.clone()), globals)
}

fn variables<'a>(
    ctx: &'a TraceCtx<'_>,
    frame: &'a PyFrame,
    scope: Scope,
) -> impl Iterator<Item = Variable> + 'a {
    frame
        .vars()
        .map(move |(name, obj)| Variable::new(name, scope, ctx.heap.binding_value(obj)))
}

/// The frame chain, with `globals` as the module frame's variables.
fn chain(ctx: &TraceCtx<'_>, file: &str, globals: Vec<Variable>) -> Frame {
    let mut result: Option<Frame> = None;
    let mut globals = Some(globals);
    for (depth, pf) in ctx.frames.iter().enumerate() {
        let mut frame = Frame::new(
            pf.name(),
            depth as u32,
            SourceLocation::new(file, pf.line()),
        );
        match globals.take() {
            Some(module) => module.into_iter().for_each(|v| frame.insert_variable(v)),
            None => variables(ctx, pf, Scope::Local).for_each(|v| frame.insert_variable(v)),
        }
        if let Some(parent) = result.take() {
            frame.set_parent(parent);
        }
        result = Some(frame);
    }
    result.expect("interpreter always has a module frame")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{TraceAction, TraceEvent, Tracer};
    use crate::run_source;
    use state::{AbstractType, Content, Prim};

    /// Captures the frame at a given line.
    struct Capture {
        at_line: u32,
        frame: Option<Frame>,
        globals: Vec<Variable>,
    }

    impl Tracer for Capture {
        fn trace(&mut self, event: &TraceEvent, ctx: &TraceCtx<'_>) -> TraceAction {
            if let TraceEvent::Line { line } = event {
                if *line == self.at_line && self.frame.is_none() {
                    self.frame = Some(current_frame(ctx, "prog.py"));
                    self.globals = global_variables(ctx);
                }
            }
            TraceAction::Continue
        }
    }

    fn capture(src: &str, line: u32) -> (Frame, Vec<Variable>) {
        let mut c = Capture {
            at_line: line,
            frame: None,
            globals: Vec::new(),
        };
        run_source(src, &mut c).unwrap();
        (c.frame.expect("line reached"), c.globals)
    }

    #[test]
    fn module_frame_bindings_are_refs() {
        let (frame, globals) = capture("x = 41\ny = x + 1\nz = 0", 3);
        assert_eq!(frame.name(), "<module>");
        assert_eq!(frame.depth(), 0);
        let x = frame.variable("x").unwrap();
        assert_eq!(x.value().abstract_type(), AbstractType::Ref);
        match x.value().deref_fully().content() {
            Content::Primitive(Prim::Int(41)) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(globals.len(), 2); // x, y assigned; z not yet
    }

    #[test]
    fn aliased_lists_share_target_address() {
        let (frame, _) = capture("a = [1, 2]\nb = a\nc = [1, 2]\nx = 0", 4);
        let addr = |name: &str| {
            frame
                .variable(name)
                .unwrap()
                .value()
                .deref_fully()
                .address()
                .unwrap()
        };
        assert_eq!(addr("a"), addr("b"));
        assert_ne!(addr("a"), addr("c"));
    }

    #[test]
    fn function_frame_chain() {
        let src = "def g(n):\n    return n\ndef f(x):\n    return g(x * 2)\nf(3)";
        let (frame, _) = capture(src, 2);
        let names: Vec<_> = frame.chain().map(|f| f.name().to_owned()).collect();
        assert_eq!(names, ["g", "f", "<module>"]);
        match frame.variable("n").unwrap().value().deref_fully().content() {
            Content::Primitive(Prim::Int(6)) => {}
            other => panic!("unexpected {other:?}"),
        }
        // Location reported correctly.
        assert_eq!(frame.location().file(), "prog.py");
        assert_eq!(frame.location().line(), 2);
    }

    #[test]
    fn nested_structures() {
        let (frame, _) = capture("d = {'k': [1, (2, 3)]}\nx = 0", 2);
        let d = frame.variable("d").unwrap().value().deref_fully();
        assert_eq!(d.abstract_type(), AbstractType::Dict);
        assert_eq!(d.language_type(), "dict");
    }

    #[test]
    fn instances_are_structs() {
        let src = "class P:\n    def __init__(self):\n        self.v = 7\np = P()\nx = 0";
        let (frame, _) = capture(src, 5);
        let p = frame.variable("p").unwrap().value().deref_fully();
        assert_eq!(p.abstract_type(), AbstractType::Struct);
        assert_eq!(p.language_type(), "P");
    }

    #[test]
    fn none_maps_to_abstract_none() {
        let (frame, _) = capture("n = None\nx = 0", 2);
        let n = frame.variable("n").unwrap().value().deref_fully();
        assert_eq!(n.abstract_type(), AbstractType::None);
    }
}
