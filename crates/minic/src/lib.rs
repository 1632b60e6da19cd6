//! A C-subset front end and virtual machine, built as the "compiled
//! language" substrate for the EasyTracker reproduction.
//!
//! The paper's GDB tracker controls real C binaries through GDB. This crate
//! replaces the `gcc + GDB` pair with a self-contained pipeline:
//!
//! 1. [`lexer`] and [`parser`] turn MiniC source into an AST ([`ast`]);
//! 2. [`typecheck`] resolves types, struct layouts and frame layouts;
//! 3. [`codegen`] lowers the program to a flat bytecode ([`bytecode`]);
//! 4. [`vm`] executes the bytecode against a simulated byte-addressable
//!    memory ([`mem`]) with a tracking heap allocator ([`alloc`]), yielding a
//!    stream of debug [`Event`]s (line reached, call, return, store, output,
//!    exit) that a debugger engine can pause on;
//! 5. [`inspect`] converts the paused VM's stack and memory into the
//!    language-agnostic [`state`] representation, following pointers,
//!    classifying heap blocks and flagging invalid pointers.
//!
//! # Language
//!
//! MiniC covers the teaching subset of C the paper's figures use:
//! `int`, `long`, `float`, `double`, `char`, pointers, fixed-size arrays,
//! `struct`s, string literals, globals with constant initializers, full
//! expression and statement grammars (including `for`/`while`/`if`/ternary,
//! compound assignment, pre/post increment), `sizeof`, casts, and the
//! standard allocation functions `malloc`/`calloc`/`realloc`/`free` plus
//! `printf`/`puts`/`putchar`. Deliberate restrictions (diagnosed by the
//! typechecker): no struct-by-value parameters or returns, no variable
//! shadowing, no `goto`, no varargs other than `printf`.
//!
//! # Examples
//!
//! ```
//! use minic::{compile, vm::{Vm, Event}};
//!
//! let program = compile("t.c", "int main() { int x = 21; return x * 2; }")?;
//! let mut vm = Vm::new(&program);
//! let exit = loop {
//!     match vm.step()? {
//!         Event::Exited(code) => break code,
//!         _ => continue,
//!     }
//! };
//! assert_eq!(exit, 42);
//! # Ok::<(), minic::Error>(())
//! ```

pub mod alloc;
pub mod ast;
pub mod bytecode;
pub mod codegen;
pub mod inspect;
pub mod lexer;
pub mod mem;
pub mod parser;
mod sanitizer;
pub mod typecheck;
pub mod types;
pub mod vm;

pub use bytecode::Program;
pub use vm::{Event, Vm};

use std::fmt;

/// Any error produced while compiling or running MiniC code.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Lexical error: unexpected character, unterminated literal, ...
    Lex {
        /// 1-based source line.
        line: u32,
        /// Human-readable description.
        message: String,
    },
    /// Syntax error.
    Parse {
        /// 1-based source line.
        line: u32,
        /// Human-readable description.
        message: String,
    },
    /// Type or semantic error.
    Type {
        /// 1-based source line.
        line: u32,
        /// Human-readable description.
        message: String,
    },
    /// The program nests deeper than [`parser::MAX_NESTING`] levels.
    TooDeep {
        /// 1-based source line where the bound was crossed.
        line: u32,
    },
    /// Runtime error raised by the VM (invalid memory access, ...).
    Runtime {
        /// 1-based source line of the statement being executed.
        line: u32,
        /// Human-readable description.
        message: String,
    },
}

impl Error {
    /// The 1-based source line the error points at.
    pub fn line(&self) -> u32 {
        match self {
            Error::Lex { line, .. }
            | Error::Parse { line, .. }
            | Error::Type { line, .. }
            | Error::TooDeep { line }
            | Error::Runtime { line, .. } => *line,
        }
    }

    /// The error message without the location prefix.
    pub fn message(&self) -> &str {
        match self {
            Error::Lex { message, .. }
            | Error::Parse { message, .. }
            | Error::Type { message, .. }
            | Error::Runtime { message, .. } => message,
            Error::TooDeep { .. } => TOO_DEEP,
        }
    }
}

/// The message of [`Error::TooDeep`].
const TOO_DEEP: &str = "nesting too deep for the parser";

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (kind, line, msg) = match self {
            Error::Lex { line, message } => ("lexical error", line, message),
            Error::Parse { line, message } => ("syntax error", line, message),
            Error::Type { line, message } => ("type error", line, message),
            Error::Runtime { line, message } => ("runtime error", line, message),
            Error::TooDeep { line } => {
                let limit = parser::MAX_NESTING;
                return write!(f, "syntax error at line {line}: {TOO_DEEP} (limit {limit})");
            }
        };
        write!(f, "{kind} at line {line}: {msg}")
    }
}

impl std::error::Error for Error {}

/// Compiles MiniC source text to an executable [`Program`].
///
/// `file` is the name recorded in debug info (it appears in every
/// [`state::SourceLocation`] the trackers report).
///
/// # Errors
///
/// Returns the first lexical, syntax or type error encountered.
///
/// # Examples
///
/// ```
/// let program = minic::compile("ok.c", "int main() { return 0; }")?;
/// assert!(program.function("main").is_some());
/// # Ok::<(), minic::Error>(())
/// ```
pub fn compile(file: &str, source: &str) -> Result<Program, Error> {
    let tokens = lexer::lex(source)?;
    let ast = parser::parse(tokens)?;
    let checked = typecheck::check(&ast)?;
    Ok(codegen::lower(file, source, &checked))
}
