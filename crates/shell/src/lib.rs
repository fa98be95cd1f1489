//! Cowrie-class emulated Unix shell for the honeyfarm honeypot.
//!
//! After a successful login, Cowrie hands the client a fake Unix shell that
//! emulates common commands, records unknown ones verbatim, captures every
//! URI a command references, and hashes every file a command creates or
//! modifies (paper, Section 4). This crate is that shell, from scratch:
//!
//! - [`lexer`]: a POSIX-flavoured tokenizer — quotes, escapes, statement
//!   separators (`;`, `&&`, `||`, newline), pipes, and redirections,
//! - [`vfs`]: an in-memory filesystem seeded with a busybox-style layout,
//! - [`profile`]: the fake machine identity (hostname, CPU, kernel, RAM),
//! - [`builtins`]: ~30 emulated commands (sysinfo, file ops, transfer tools,
//!   account tools) with byte-for-byte plausible output,
//! - [`interp`]: the interpreter tying it together — executes input lines,
//!   applies redirections and pipes, fetches "remote" bodies through a
//!   pluggable [`RemoteFetcher`], and emits [`FileEvent`]s and URIs,
//! - [`uri`]: URI extraction matching the paper's definition ("anything
//!   retrieved from a remote target, including FTP, HTTP, SCP, …").
//!
//! # Quick example
//! ```
//! use hf_shell::{ShellSession, SystemProfile, NullFetcher};
//!
//! let mut sh = ShellSession::new(SystemProfile::default(), Box::new(NullFetcher));
//! let out = sh.execute("uname -a; echo pwned > /tmp/x");
//! assert!(out.rendered.contains("Linux"));
//! let events = sh.take_events();
//! assert_eq!(events.file_events.len(), 1); // /tmp/x was created and hashed
//! ```

pub mod builtins;
pub mod interp;
pub mod lexer;
pub mod profile;
pub mod uri;
pub mod vfs;

pub use interp::{
    CommandRecord, EventsView, ExecResult, FileEvent, FileOp, NullFetcher, QuietExec,
    RemoteFetcher, SessionEvents, ShellSession, SyntheticFetcher,
};
pub use lexer::{
    for_each_command_head, split_statements, LineBuf, Redirection, SimpleCommand, Statement,
};
pub use profile::SystemProfile;
pub use uri::extract_uris;
pub use vfs::{NodeKind, Vfs, VfsError};
