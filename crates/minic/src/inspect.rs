//! Builds the language-agnostic [`state`] representation from a paused VM.
//!
//! This is the MiniC analogue of the paper's GDB extension that walks the
//! backtrace and the memory reachable from local variables to create
//! `Frame`/`Variable`/`Value` instances (§II-C1). Pointer classification
//! uses the tracking allocator: a pointer into a live heap block becomes a
//! `REF` (and the *whole block* is rendered, so `malloc`'d arrays get their
//! true length — the paper's interposition trick); a pointer to a freed
//! block or unmapped memory becomes `INVALID`, drawn as a cross by the
//! stack-and-heap diagrams.

use crate::mem::{Memory, Segment, STACK_TOP};
use crate::types::Type;
use crate::vm::Vm;
use state::{Frame, Location, Prim, Scope, SourceLocation, Value, Variable};
use std::collections::HashSet;

/// Limits applied while walking pointers.
#[derive(Debug, Clone, Copy)]
pub struct InspectOptions {
    /// Maximum pointer-following depth.
    pub max_depth: usize,
    /// Maximum C-string length read through a `char*`.
    pub max_string: u64,
    /// Maximum array elements rendered.
    pub max_elems: usize,
}

impl Default for InspectOptions {
    fn default() -> Self {
        InspectOptions {
            max_depth: 12,
            max_string: 256,
            max_elems: 256,
        }
    }
}

/// Builds the innermost frame, with the whole parent chain attached.
///
/// Locals appear once their declaration line has been reached, in
/// declaration order, parameters first — matching what a source-level
/// debugger shows.
///
/// # Panics
///
/// Panics if the program has already exited (no frames exist).
pub fn current_frame(vm: &Vm) -> Frame {
    current_frame_with(vm, InspectOptions::default())
}

/// [`current_frame`] with explicit limits.
///
/// # Panics
///
/// Panics if the program has already exited (no frames exist).
pub fn current_frame_with(vm: &Vm, opts: InspectOptions) -> Frame {
    let program = vm.program();
    let mut result: Option<Frame> = None;
    for (depth, fi) in vm.frames().iter().enumerate() {
        let meta = &program.functions[fi.function];
        let mut frame = Frame::new(
            meta.name.clone(),
            depth as u32,
            SourceLocation::new(program.file.clone(), fi.line),
        );
        for local in &meta.locals {
            // A local is visible from its declaration line to the end of
            // its block; for the frames below the innermost, the pause
            // line is where the call happened, which still bounds
            // visibility correctly.
            if !local.visible_at(fi.line) {
                continue;
            }
            let addr = fi.base + local.offset;
            let value = place_value(read_value(vm, addr, &local.ty, opts), Location::Stack, addr);
            let scope = if local.is_param {
                Scope::Parameter
            } else {
                Scope::Local
            };
            frame.insert_variable(Variable::new(local.name.clone(), scope, value));
        }
        if let Some(parent) = result.take() {
            frame.set_parent(parent);
        }
        result = Some(frame);
    }
    result.expect("program has at least the main frame")
}

/// Builds the global variables list.
pub fn global_variables(vm: &Vm) -> Vec<Variable> {
    global_variables_with(vm, InspectOptions::default())
}

/// [`global_variables`] with explicit limits.
pub fn global_variables_with(vm: &Vm, opts: InspectOptions) -> Vec<Variable> {
    vm.program()
        .globals
        .iter()
        .map(|g| {
            let value = place_value(
                read_value(vm, g.addr, &g.ty, opts),
                Location::Global,
                g.addr,
            );
            Variable::new(g.name.clone(), Scope::Global, value)
        })
        .collect()
}

/// Stamps a variable's value with the location/address of its storage —
/// except for dangling heap pointers, whose `Heap` location and freed
/// target address are the signal renderers use to print `<dangling>`.
fn place_value(v: Value, location: Location, addr: u64) -> Value {
    if v.abstract_type() == state::AbstractType::Invalid && v.location() == Location::Heap {
        return v;
    }
    v.with_location(location).with_address(addr)
}

/// Reads a typed value from memory into the abstract representation.
///
/// This is the engine behind the paper's `get_value_at_gdb`.
pub fn read_value(vm: &Vm, addr: u64, ty: &Type, opts: InspectOptions) -> Value {
    let mut visiting = HashSet::new();
    value_at(vm, addr, ty, opts, opts.max_depth, &mut visiting)
}

/// Whether `addr` currently points at live, readable storage.
pub fn classify_target(vm: &Vm, addr: u64) -> PointerClass {
    if addr == 0 {
        return PointerClass::Null;
    }
    match Memory::segment_of(addr) {
        Some(Segment::Global) => {
            if vm.memory().read_bytes(addr, 1).is_ok() {
                PointerClass::Valid(Location::Global)
            } else {
                PointerClass::Invalid
            }
        }
        Some(Segment::Stack) => {
            if addr >= vm.stack_pointer() && addr < STACK_TOP {
                PointerClass::Valid(Location::Stack)
            } else {
                // Below the stack pointer: popped frame, i.e. dangling.
                PointerClass::Invalid
            }
        }
        Some(Segment::Heap) => match vm.allocator().block_containing(addr) {
            Some(b) if b.live => PointerClass::Valid(Location::Heap),
            _ => PointerClass::Invalid,
        },
        None => PointerClass::Invalid,
    }
}

/// Result of [`classify_target`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointerClass {
    /// The null pointer.
    Null,
    /// Live storage in the given conceptual location.
    Valid(Location),
    /// Dangling, freed or out-of-range.
    Invalid,
}

/// A stable reference to one heap block, pinned to its allocation epoch.
///
/// The allocator recycles freed ranges, so a bare address can silently come
/// to denote a *different* block than the one a tool captured earlier. A
/// handle remembers the allocation epoch alongside the address and
/// [`read_block`] refuses to read once the block was freed or its range
/// recycled — the stale read becomes an explicit error instead of bytes
/// from an unrelated allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHandle {
    addr: u64,
    size: u64,
    epoch: u64,
}

impl BlockHandle {
    /// The block's base address at capture time.
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// The block's requested size at capture time.
    pub fn size(&self) -> u64 {
        self.size
    }
}

/// Why [`read_block`] refused to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaleHandle {
    /// The block was freed (and possibly quarantined) since capture.
    Freed,
    /// The range was recycled: a different block now occupies the address.
    Recycled,
    /// No block record exists at the address any more.
    Gone,
}

impl std::fmt::Display for StaleHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StaleHandle::Freed => write!(f, "block was freed after the handle was taken"),
            StaleHandle::Recycled => {
                write!(f, "block range was recycled by a later allocation")
            }
            StaleHandle::Gone => write!(f, "no heap block exists at the handle's address"),
        }
    }
}

impl std::error::Error for StaleHandle {}

/// Captures a handle to the live heap block containing `addr`.
pub fn block_handle(vm: &Vm, addr: u64) -> Option<BlockHandle> {
    vm.allocator()
        .block_containing(addr)
        .filter(|b| b.live)
        .map(|b| BlockHandle {
            addr: b.addr,
            size: b.size,
            epoch: b.epoch,
        })
}

/// Reads the full contents of the block behind `handle`.
///
/// # Errors
///
/// Returns [`StaleHandle`] when the block was freed, its range recycled by
/// a later allocation (epoch mismatch), or no record remains.
pub fn read_block(vm: &Vm, handle: &BlockHandle) -> Result<Vec<u8>, StaleHandle> {
    let block = vm
        .allocator()
        .block_containing(handle.addr)
        .ok_or(StaleHandle::Gone)?;
    if block.addr != handle.addr || block.epoch != handle.epoch {
        return Err(StaleHandle::Recycled);
    }
    if !block.live {
        return Err(StaleHandle::Freed);
    }
    vm.memory()
        .read_bytes(handle.addr, handle.size.max(1))
        .map(<[u8]>::to_vec)
        .map_err(|_| StaleHandle::Gone)
}

fn value_at(
    vm: &Vm,
    addr: u64,
    ty: &Type,
    opts: InspectOptions,
    depth: usize,
    visiting: &mut HashSet<u64>,
) -> Value {
    let program = vm.program();
    let lt = ty.to_string();
    let mem = vm.memory();
    match ty {
        Type::Char => match mem.read_int(addr, 1) {
            Ok(v) => {
                let c = char::from_u32((v as u8) as u32).unwrap_or('\u{fffd}');
                Value::primitive(Prim::Char(c), lt)
            }
            Err(_) => Value::invalid(lt),
        },
        Type::Int => match mem.read_int(addr, 4) {
            Ok(v) => Value::primitive(Prim::Int(v), lt),
            Err(_) => Value::invalid(lt),
        },
        Type::Long => match mem.read_int(addr, 8) {
            Ok(v) => Value::primitive(Prim::Int(v), lt),
            Err(_) => Value::invalid(lt),
        },
        Type::Float => match mem.read_float(addr, 4) {
            Ok(v) => Value::primitive(Prim::Float(v), lt),
            Err(_) => Value::invalid(lt),
        },
        Type::Double => match mem.read_float(addr, 8) {
            Ok(v) => Value::primitive(Prim::Float(v), lt),
            Err(_) => Value::invalid(lt),
        },
        Type::Array(elem, n) => {
            let esize = program.structs.size_of(elem);
            let count = (*n).min(opts.max_elems);
            let items = (0..count)
                .map(|i| {
                    let ea = addr + i as u64 * esize;
                    value_at(vm, ea, elem, opts, depth, visiting).with_address(ea)
                })
                .collect();
            Value::list(items, lt)
        }
        Type::Struct(name) => {
            let Some(layout) = program.structs.get(name) else {
                return Value::invalid(lt);
            };
            let fields = layout
                .fields
                .iter()
                .map(|f| {
                    let fa = addr + f.offset;
                    let v = value_at(vm, fa, &f.ty, opts, depth, visiting).with_address(fa);
                    (f.name.clone(), v)
                })
                .collect();
            Value::structure(fields, lt)
        }
        Type::Ptr(pointee) => {
            let Ok(target) = mem.read_ptr(addr) else {
                return Value::invalid(lt);
            };
            pointer_value(vm, target, pointee, &lt, opts, depth, visiting)
        }
        Type::Void | Type::Func { .. } => Value::invalid(lt),
    }
}

/// Renders a pointer *value* (already loaded) of type `{pointee}*`.
fn pointer_value(
    vm: &Vm,
    target: u64,
    pointee: &Type,
    lt: &str,
    opts: InspectOptions,
    depth: usize,
    visiting: &mut HashSet<u64>,
) -> Value {
    let class = classify_target(vm, target);
    let location = match class {
        PointerClass::Valid(loc) => loc,
        // A dangling pointer into the heap (freed block) keeps its heap
        // location and address so renderers can say "<dangling>" rather
        // than a generic "<invalid>".
        PointerClass::Invalid if Memory::segment_of(target) == Some(Segment::Heap) => {
            return Value::invalid(lt)
                .with_location(Location::Heap)
                .with_address(target);
        }
        PointerClass::Null | PointerClass::Invalid => return Value::invalid(lt),
    };
    // The paper treats `char*` as a PRIMITIVE whose content is the string.
    if *pointee == Type::Char {
        let s = vm
            .memory()
            .read_cstring(target, opts.max_string)
            .unwrap_or_default();
        return Value::primitive(Prim::Str(s), lt)
            .with_location(location)
            .with_address(target);
    }
    if depth == 0 || !visiting.insert(target) {
        // Depth/cycle cut: keep the arrow (address) but do not expand.
        let placeholder = Value::none(pointee.to_string())
            .with_location(location)
            .with_address(target);
        if visiting.contains(&target) && depth != 0 {
            // insert returned false: revisit — nothing to undo.
        }
        return Value::reference(placeholder, lt).with_location(Location::Constant);
    }
    let program = vm.program();
    let esize = program.structs.size_of(pointee).max(1);
    // Whole-block rendering: a pointer to the base of a live heap block
    // bigger than one element is a heap array of block_size/esize elements.
    let inner = if location == Location::Heap {
        let block = vm
            .allocator()
            .block_containing(target)
            .expect("classified as live heap");
        let n = (block.size / esize) as usize;
        if block.addr == target && n > 1 {
            let count = n.min(opts.max_elems);
            let items = (0..count)
                .map(|i| {
                    let ea = target + i as u64 * esize;
                    value_at(vm, ea, pointee, opts, depth - 1, visiting)
                        .with_address(ea)
                        .with_location(Location::Heap)
                })
                .collect();
            Value::list(items, format!("{pointee}[{n}]"))
        } else {
            value_at(vm, target, pointee, opts, depth - 1, visiting)
        }
    } else {
        value_at(vm, target, pointee, opts, depth - 1, visiting)
    };
    visiting.remove(&target);
    let inner = inner.with_location(location).with_address(target);
    Value::reference(inner, lt).with_location(Location::Constant)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use crate::vm::Event;
    use state::{AbstractType, Content};

    /// Runs until the given line is reached.
    fn run_to_line(src: &str, line: u32) -> Vm {
        let p = compile("t.c", src).unwrap();
        let mut vm = Vm::new(&p);
        loop {
            match vm.step().unwrap() {
                Event::Line(n) if n == line => return vm,
                Event::Exited(_) => panic!("program exited before line {line}"),
                _ => {}
            }
        }
    }

    #[test]
    fn scalars_and_visibility() {
        let src = "int main() {\nint a = 3;\ndouble d = 2.5;\nreturn 0;\nint late = 1;\n}";
        // Paused at line 4: `late` (declared on a later line) is hidden,
        // like a source-level debugger hides not-yet-declared block locals.
        let vm = run_to_line(src, 4);
        let f = current_frame(&vm);
        assert_eq!(f.name(), "main");
        let names: Vec<_> = f.variables().map(|v| v.name().to_owned()).collect();
        assert_eq!(names, ["a", "d"]);
        match f.variable("a").unwrap().value().content() {
            Content::Primitive(Prim::Int(3)) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(f.variable("a").unwrap().value().location(), Location::Stack);
        assert!(f.variable("a").unwrap().value().address().is_some());
        assert_eq!(f.variable("d").unwrap().value().language_type(), "double");
    }

    #[test]
    fn arrays_render_as_lists() {
        let src = "int main() {\nint a[3] = {7, 8, 9};\nreturn a[0];\n}";
        let vm = run_to_line(src, 3);
        let f = current_frame(&vm);
        let v = f.variable("a").unwrap().value();
        assert_eq!(v.abstract_type(), AbstractType::List);
        assert_eq!(state::render_value(v), "[7, 8, 9]");
        assert_eq!(v.language_type(), "int[3]");
    }

    #[test]
    fn stack_pointer_reference() {
        let src = "int main() {\nint x = 5;\nint* p = &x;\nreturn *p;\n}";
        let vm = run_to_line(src, 4);
        let f = current_frame(&vm);
        let p = f.variable("p").unwrap().value();
        assert_eq!(p.abstract_type(), AbstractType::Ref);
        let target = match p.content() {
            Content::Ref(t) => t,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(target.location(), Location::Stack);
        assert_eq!(target.address(), f.variable("x").unwrap().value().address());
    }

    #[test]
    fn heap_block_renders_whole_array() {
        let src = "int main() {\nint* p = malloc(4 * sizeof(int));\n\
                   for (int i = 0; i < 4; i++) p[i] = i;\nreturn p[0];\n}";
        let vm = run_to_line(src, 4);
        let f = current_frame(&vm);
        let p = f.variable("p").unwrap().value();
        assert_eq!(p.abstract_type(), AbstractType::Ref);
        let target = p.deref_fully();
        assert_eq!(target.abstract_type(), AbstractType::List);
        assert_eq!(target.location(), Location::Heap);
        assert_eq!(state::render_value(target), "[0, 1, 2, 3]");
        assert_eq!(target.language_type(), "int[4]");
    }

    #[test]
    fn dangling_pointer_is_invalid() {
        let src = "int main() {\nint* p = malloc(8);\nfree(p);\nreturn 0;\n}";
        let vm = run_to_line(src, 4);
        let f = current_frame(&vm);
        let p = f.variable("p").unwrap().value();
        assert_eq!(p.abstract_type(), AbstractType::Invalid);
        // Heap danglers keep their location + address so renderers can
        // print "<dangling>" and diagrams can cross out the arrow.
        assert_eq!(p.location(), Location::Heap);
        assert!(p.address().is_some());
        assert_eq!(state::render_value(p), "<dangling>");
    }

    #[test]
    fn stale_block_handles_are_rejected() {
        // free() then a same-size malloc() recycles the address; a handle
        // captured before the free must refuse to read the impostor block.
        let src = "int main() {\nlong* p = malloc(8);\np[0] = 42;\nfree(p);\n\
                   long* q = malloc(8);\nq[0] = 99;\nreturn 0;\n}";
        let p = compile("t.c", src).unwrap();
        let mut vm = Vm::new(&p);
        let mut handle = None;
        loop {
            match vm.step().unwrap() {
                Event::Line(4) => {
                    // p[0] written, not yet freed: capture the handle.
                    let f = current_frame(&vm);
                    let addr = f.variable("p").unwrap().value().address().unwrap();
                    let target = vm.memory().read_ptr(addr).unwrap();
                    let h = block_handle(&vm, target).expect("block is live");
                    assert_eq!(read_block(&vm, &h).unwrap()[0], 42);
                    handle = Some(h);
                }
                Event::Line(6) => {
                    // q now occupies p's old range (first-fit reuse).
                    let h = handle.expect("handle captured at line 4");
                    assert_eq!(read_block(&vm, &h), Err(StaleHandle::Recycled));
                    return;
                }
                Event::Exited(_) => panic!("missed the capture lines"),
                _ => {}
            }
        }
    }

    #[test]
    fn freed_block_handle_reports_freed() {
        let src = "int main() {\nlong* p = malloc(8);\np[0] = 7;\nfree(p);\nreturn 0;\n}";
        let p = compile("t.c", src).unwrap();
        let mut vm = Vm::new(&p);
        let mut handle = None;
        loop {
            match vm.step().unwrap() {
                Event::Line(4) => {
                    let f = current_frame(&vm);
                    let addr = f.variable("p").unwrap().value().address().unwrap();
                    let target = vm.memory().read_ptr(addr).unwrap();
                    handle = Some(block_handle(&vm, target).unwrap());
                }
                Event::Line(5) => {
                    let h = handle.expect("handle captured at line 4");
                    // Freed, range not yet recycled: record survives.
                    assert_eq!(read_block(&vm, &h), Err(StaleHandle::Freed));
                    return;
                }
                Event::Exited(_) => panic!("missed the capture lines"),
                _ => {}
            }
        }
    }

    #[test]
    fn null_pointer_is_invalid() {
        let src = "int main() {\nint* p = NULL;\nreturn 0;\n}";
        let vm = run_to_line(src, 3);
        let f = current_frame(&vm);
        assert_eq!(
            f.variable("p").unwrap().value().abstract_type(),
            AbstractType::Invalid
        );
    }

    #[test]
    fn char_star_is_primitive_string() {
        let src = "int main() {\nchar* s = \"hello\";\nreturn 0;\n}";
        let vm = run_to_line(src, 3);
        let f = current_frame(&vm);
        let s = f.variable("s").unwrap().value();
        assert_eq!(s.abstract_type(), AbstractType::Primitive);
        match s.content() {
            Content::Primitive(Prim::Str(text)) => assert_eq!(text, "hello"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.language_type(), "char*");
        // The variable's own slot is on the stack (its string content lives
        // in the global literal pool, reachable through the address).
        assert_eq!(s.location(), Location::Stack);
    }

    #[test]
    fn structs_render_with_fields() {
        let src = "struct point { int x; int y; };\n\
                   int main() {\nstruct point p;\np.x = 1;\np.y = 2;\nreturn 0;\n}";
        let vm = run_to_line(src, 6);
        let f = current_frame(&vm);
        let v = f.variable("p").unwrap().value();
        assert_eq!(v.abstract_type(), AbstractType::Struct);
        assert_eq!(state::render_value(v), "struct point{x: 1, y: 2}");
    }

    #[test]
    fn linked_list_cycles_terminate() {
        let src = "struct node { int v; struct node* next; };\n\
                   int main() {\nstruct node a;\nstruct node b;\n\
                   a.v = 1; a.next = &b;\nb.v = 2; b.next = &a;\nreturn 0;\n}";
        let vm = run_to_line(src, 7);
        let f = current_frame(&vm);
        let a = f.variable("a").unwrap().value();
        // Must not hang or overflow; depth is bounded.
        assert!(a.depth() <= InspectOptions::default().max_depth * 3 + 4);
    }

    #[test]
    fn globals_inspected() {
        let src = "int g = 11;\nchar* name = \"ada\";\n\
                   int main() {\nreturn g;\n}";
        let vm = run_to_line(src, 4);
        let globals = global_variables(&vm);
        assert_eq!(globals.len(), 2);
        assert_eq!(globals[0].name(), "g");
        assert_eq!(globals[0].scope(), Scope::Global);
        assert_eq!(globals[0].value().location(), Location::Global);
        match globals[1].value().content() {
            Content::Primitive(Prim::Str(s)) => assert_eq!(s, "ada"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parent_chain_matches_call_stack() {
        let src = "int inner(int x) {\nreturn x + 1;\n}\n\
                   int outer(int x) {\nreturn inner(x * 2);\n}\n\
                   int main() {\nreturn outer(5);\n}";
        let vm = run_to_line(src, 2);
        let f = current_frame(&vm);
        let chain: Vec<_> = f.chain().map(|fr| fr.name().to_owned()).collect();
        assert_eq!(chain, ["inner", "outer", "main"]);
        assert_eq!(f.depth(), 2);
        // Parameter of inner is visible and bound.
        match f.variable("x").unwrap().value().content() {
            Content::Primitive(Prim::Int(10)) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(f.variable("x").unwrap().scope(), Scope::Parameter);
    }

    #[test]
    fn pointer_into_middle_of_heap_block() {
        let src = "int main() {\nint* p = malloc(4 * sizeof(int));\n\
                   p[2] = 99;\nint* q = p + 2;\nreturn *q;\n}";
        let vm = run_to_line(src, 5);
        let f = current_frame(&vm);
        let q = f.variable("q").unwrap().value();
        assert_eq!(q.abstract_type(), AbstractType::Ref);
        let target = q.deref_fully();
        // Interior pointer: single element, not the whole block.
        match target.content() {
            Content::Primitive(Prim::Int(99)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
