//! A Python-subset interpreter, built as the "interpreted language"
//! substrate for the EasyTracker reproduction.
//!
//! The paper's Python tracker sits on CPython's `sys.settrace`: the
//! interpreter calls a registered trace function before every source line,
//! after every function entry, and before every function return. This crate
//! provides the same contract natively:
//!
//! * [`lexer`]/[`parser`] handle an indentation-sensitive Python subset;
//! * [`value`] implements an explicit object heap — every MiniPy value is a
//!   heap object named by an [`value::ObjRef`], so the paper's "every
//!   Python variable is a reference into the heap" model (and `id()`
//!   addresses) falls out naturally;
//! * [`interp`] is a tree-walking interpreter that invokes a [`Tracer`]
//!   callback with the same three event kinds as `sys.settrace` (plus
//!   output), giving the callback full frame/heap inspection access;
//! * [`inspect`] converts a paused interpreter's state into the
//!   language-agnostic [`state`] representation.
//!
//! # Language
//!
//! Integers, floats, booleans, strings, `None`, lists, tuples, dicts,
//! functions (with recursion and default-less positional parameters),
//! simple classes (`__init__`, methods, attributes), `if`/`elif`/`else`,
//! `while`, `for ... in`, `break`/`continue`/`pass`, `global`, tuple
//! assignment (`a, b = b, a`), augmented assignment, comparison/boolean
//! operators, indexing and slicing-free subscripts, attribute access, and
//! the builtins `print len range str int float abs min max sum sorted list
//! id type`. No closures over mutated locals, no generators, no
//! exceptions-as-control-flow (runtime errors stop the program, which is
//! what the teaching tools want).
//!
//! # Examples
//!
//! ```
//! use minipy::{run_source, NullTracer};
//!
//! let outcome = minipy::run_source("print(1 + 2)", &mut NullTracer).unwrap();
//! assert_eq!(outcome.output, "3\n");
//! assert_eq!(outcome.exit_code, 0);
//! ```

pub mod ast;
pub mod inspect;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod value;

pub use interp::{Interp, RunOutcome, TraceAction, TraceCtx, TraceEvent, Tracer};

use std::fmt;

/// Any error produced while parsing or running MiniPy code.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Lexical error (bad indentation, unterminated string, ...).
    Lex {
        /// 1-based line.
        line: u32,
        /// Description.
        message: String,
    },
    /// Syntax error.
    Parse {
        /// 1-based line.
        line: u32,
        /// Description.
        message: String,
    },
    /// The program nests deeper than [`parser::MAX_NESTING`] levels.
    TooDeep {
        /// 1-based line where the bound was crossed.
        line: u32,
    },
    /// Runtime error (`NameError`, `TypeError`, `IndexError`, ...).
    Runtime {
        /// 1-based line of the executing statement.
        line: u32,
        /// Description, prefixed with the Python exception name.
        message: String,
    },
    /// The tracer asked the interpreter to stop (tracker `terminate`).
    Stopped,
}

impl Error {
    /// The source line of the error (0 for [`Error::Stopped`]).
    pub fn line(&self) -> u32 {
        match self {
            Error::Lex { line, .. }
            | Error::Parse { line, .. }
            | Error::TooDeep { line }
            | Error::Runtime { line, .. } => *line,
            Error::Stopped => 0,
        }
    }

    /// The message without the location prefix.
    pub fn message(&self) -> &str {
        match self {
            Error::Lex { message, .. }
            | Error::Parse { message, .. }
            | Error::Runtime { message, .. } => message,
            Error::TooDeep { .. } => TOO_DEEP,
            Error::Stopped => "stopped by tracer",
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Lex { line, message } => write!(f, "lexical error at line {line}: {message}"),
            Error::Parse { line, message } => write!(f, "syntax error at line {line}: {message}"),
            Error::TooDeep { line } => {
                let limit = parser::MAX_NESTING;
                write!(f, "syntax error at line {line}: {TOO_DEEP} (limit {limit})")
            }
            Error::Runtime { line, message } => write!(f, "line {line}: {message}"),
            Error::Stopped => write!(f, "stopped by tracer"),
        }
    }
}

impl std::error::Error for Error {}

/// The message of [`Error::TooDeep`].
const TOO_DEEP: &str = "nesting too deep for the parser";

/// A [`Tracer`] that ignores every event (plain, uncontrolled execution).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn trace(&mut self, _event: &TraceEvent, _ctx: &TraceCtx<'_>) -> TraceAction {
        TraceAction::Continue
    }
}

/// Parses and runs MiniPy source under the given tracer.
///
/// # Errors
///
/// Returns parse errors immediately; runtime errors after partial
/// execution (the [`RunOutcome`] is lost in that case — use [`Interp`]
/// directly if you need the partial output).
///
/// # Examples
///
/// ```
/// let out = minipy::run_source("x = [1, 2]\nx.append(3)\nprint(len(x))", &mut minipy::NullTracer)?;
/// assert_eq!(out.output, "3\n");
/// # Ok::<(), minipy::Error>(())
/// ```
pub fn run_source(source: &str, tracer: &mut dyn Tracer) -> Result<RunOutcome, Error> {
    let module = parser::parse(source)?;
    let mut interp = Interp::new(module);
    interp.run(tracer)
}
