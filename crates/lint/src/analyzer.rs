//! Function-scope concurrency analysis: guard liveness, yield points,
//! crash points, and lock-order edges (rules L007–L010).
//!
//! This is a hand-rolled tokenizer + brace/scope tracker, not a parser.
//! It recognizes `let g = x.lock()…` guard bindings (`RwLock`
//! `.read()` / `.write()` alike, including `if let`
//! / `match` scrutinees and temporary-guard expressions), approximates
//! each guard's live range inside its function body, and checks the
//! registered yield-point vocabulary ([`crate::registry`]) against the
//! set of live guards at every yield and crash point.
//!
//! Liveness model (documented over/under-approximations in DESIGN.md
//! §13):
//!
//! * `let g = x.lock();` — live to the end of the enclosing block, or
//!   to an explicit `drop(g)`.
//! * `x.lock().method(…)` in a plain statement — a temporary, live to
//!   the end of the statement (`;`, or `,` at match-arm level).
//! * `if let P = x.lock().take() { … }` / `match x.lock().get(k) { … }`
//!   / `for v in x.lock().iter() { … }` — the scrutinee temporary lives
//!   through the whole construct body (Rust scrutinee lifetime rules),
//!   carrying across `else` branches.
//! * `if *x.lock() { … }` — a plain-condition temporary dies at the
//!   opening `{`.
//! * `x.read()` / `x.write()` with no argument acquire an `RwLock` and
//!   follow the same rules as `.lock()`.
//! * `x.read().clone().get(…)` — the call chained onto a value cloned
//!   out of a guard temporary runs under that guard; its body is opaque
//!   here, so it counts as a yield point for that guard.
//! * `move |…| …` closures are deferred execution on another fiber:
//!   they form a fresh guard region — outer guards are not considered
//!   live inside them, and locks taken inside do not edge to outer
//!   guards — but their bodies are still analyzed.

use crate::registry::{
    self, LockSpec, CRASH_SAFE_MARKER, FREE_YIELDS, LOCK_REGISTRY, METHOD_YIELDS,
};
use crate::{scrub, Violation};

/// One "acquire `to` while holding `from`" observation — an edge in the
/// global L009 lock-order graph, with its witness location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Class already held.
    pub from: String,
    /// Class being acquired.
    pub to: String,
    /// Witness file.
    pub file: String,
    /// Witness line (1-based) of the inner acquisition.
    pub line: usize,
}

/// Per-file analysis result.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// L007/L008/L010 violations found in this file.
    pub violations: Vec<Violation>,
    /// Lock-order edges contributed to the global graph.
    pub edges: Vec<LockEdge>,
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Tok<'a> {
    text: &'a str,
    /// 1-based source line.
    line: usize,
}

/// Multi-character operators lexed as single tokens, so `=>`/`==` are
/// never mistaken for a `let` initializer's `=`. Longest first.
const COMPOUND_OPS: &[&str] = &[
    "<<=", ">>=", "..=", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=",
    "/=", "%=", "^=", "&=", "|=", "..",
];

fn tokenize(scrubbed: &str) -> Vec<Tok<'_>> {
    let bytes = scrubbed.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            toks.push(Tok {
                text: &scrubbed[start..i],
                line,
            });
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            toks.push(Tok {
                text: &scrubbed[start..i],
                line,
            });
            continue;
        }
        if let Some(op) = COMPOUND_OPS
            .iter()
            .find(|op| scrubbed[i..].starts_with(*op))
        {
            toks.push(Tok {
                text: &scrubbed[i..i + op.len()],
                line,
            });
            i += op.len();
            continue;
        }
        toks.push(Tok {
            text: &scrubbed[i..i + c.len_utf8()],
            line,
        });
        i += c.len_utf8();
    }
    toks
}

// ---------------------------------------------------------------------------
// Guard and scope model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Guard {
    /// Lock class name.
    class: String,
    /// Fiber-aware lock (L007 exempt).
    fiber: bool,
    /// Named binding, if `let`-bound.
    var: Option<String>,
    /// Acquisition line.
    line: usize,
    /// Guard region: 0 for the function body, bumped inside `move`
    /// closures (deferred execution — a different fiber's stack).
    region: usize,
}

#[derive(Debug, Default)]
struct Scope {
    /// `let`-bound guards: die at the scope's `}` or at `drop(var)`.
    guards: Vec<Guard>,
    /// Scrutinee temporaries attached at the construct's `{`; carried
    /// across `else` on close.
    construct_guards: Vec<Guard>,
    /// Statement temporaries: die at `;` / arm `,`.
    stmt_temps: Vec<Guard>,
    /// True if this scope opened a `move` closure body (pops a region).
    closes_region: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConstructKind {
    /// Plain `if`/`while` condition: temporaries die at the `{`.
    Cond,
    /// `if let` / `while let` / `match` / `for`: scrutinee temporaries
    /// live through the body.
    Scrutinee,
}

#[derive(Debug)]
struct PendingConstruct {
    kind: ConstructKind,
    temps: Vec<Guard>,
}

struct Analysis<'a> {
    file: &'a str,
    raw_lines: Vec<&'a str>,
    toks: Vec<Tok<'a>>,
    registry: &'a [LockSpec],
    rules: &'a [&'a str],
    violations: Vec<Violation>,
    edges: Vec<LockEdge>,
}

impl<'a> Analysis<'a> {
    fn rule_on(&self, rule: &str) -> bool {
        self.rules.contains(&rule)
    }

    fn snippet(&self, line: usize) -> String {
        let mut s = self
            .raw_lines
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or("")
            .trim()
            .to_string();
        if s.len() > 120 {
            s.truncate(117);
            s.push_str("...");
        }
        s
    }

    /// The raw-line window searched for a `LINT-CRASH-SAFE:` marker: the
    /// crash-point line and the three lines above.
    fn crash_safe_marked(&self, line: usize) -> bool {
        let hi = line.min(self.raw_lines.len());
        let lo = hi.saturating_sub(4);
        self.raw_lines[lo..hi]
            .iter()
            .any(|l| l.contains(CRASH_SAFE_MARKER))
    }

    /// Walks a function body starting at `open` (index of its `{`).
    /// Returns the index just past the matching `}`.
    fn analyze_body(&mut self, open: usize) -> usize {
        let mut scopes: Vec<Scope> = vec![Scope::default()];
        let mut paren_depth: usize = 0;
        let mut pending_let: Option<String> = None;
        let mut stmt_paren_base: usize = 0;
        let mut pending_construct: Option<PendingConstruct> = None;
        let mut carryover: Vec<Guard> = Vec::new();
        // (region id, paren depth at entry, brace-bodied?) for move closures.
        let mut region: usize = 0;
        let mut next_region: usize = 1;
        let mut region_stack: Vec<(usize, usize)> = Vec::new(); // expr-closures: (region, depth)
        let mut pending_region_brace: Option<usize> = None;

        let mut i = open + 1;
        while i < self.toks.len() {
            let t = self.toks[i].text;
            match t {
                "{" => {
                    let mut scope = Scope::default();
                    if let Some(pc) = pending_construct.take() {
                        if pc.kind == ConstructKind::Scrutinee {
                            scope.construct_guards.extend(pc.temps);
                        }
                        // Cond temporaries die here.
                    }
                    if !carryover.is_empty() {
                        scope.construct_guards.append(&mut carryover);
                    }
                    if let Some(r) = pending_region_brace.take() {
                        region_stack.push((region, paren_depth));
                        region = r;
                        scope.closes_region = true;
                    }
                    scopes.push(scope);
                    i += 1;
                }
                "}" => {
                    match scopes.pop() {
                        Some(closed) => {
                            if closed.closes_region {
                                if let Some((prev, _)) = region_stack.pop() {
                                    region = prev;
                                }
                            }
                            if scopes.is_empty() {
                                return i + 1;
                            }
                            // `} else` keeps the scrutinee temporaries alive.
                            if !closed.construct_guards.is_empty()
                                && self.toks.get(i + 1).map(|t| t.text) == Some("else")
                            {
                                carryover = closed.construct_guards;
                            }
                        }
                        None => return i + 1,
                    }
                    i += 1;
                }
                "(" | "[" => {
                    paren_depth += 1;
                    i += 1;
                }
                ")" | "]" => {
                    paren_depth = paren_depth.saturating_sub(1);
                    // An expression-bodied move closure ends when its
                    // argument position closes.
                    while let Some(&(prev, depth)) = region_stack.last() {
                        if !scopes.last().map(|s| s.closes_region).unwrap_or(false)
                            && paren_depth < depth
                        {
                            region = prev;
                            region_stack.pop();
                        } else {
                            break;
                        }
                    }
                    i += 1;
                }
                ";" | "," => {
                    if paren_depth == 0 {
                        if let Some(s) = scopes.last_mut() {
                            s.stmt_temps.clear();
                        }
                        pending_let = None;
                        if t == ";" {
                            pending_construct = None;
                        }
                        stmt_paren_base = 0;
                    }
                    if t == "," {
                        // Expression-bodied move closure in argument
                        // position ends at its `,`.
                        while let Some(&(prev, depth)) = region_stack.last() {
                            if paren_depth <= depth {
                                region = prev;
                                region_stack.pop();
                            } else {
                                break;
                            }
                        }
                    }
                    i += 1;
                }
                "=>" => {
                    if paren_depth == 0 {
                        pending_construct = None;
                    }
                    i += 1;
                }
                "let" => {
                    // `if let` / `while let`: the binding is a pattern;
                    // the scrutinee temporary model covers the guard.
                    if pending_construct.is_some() {
                        if let Some(pc) = pending_construct.as_mut() {
                            pc.kind = ConstructKind::Scrutinee;
                        }
                        i += 1;
                        continue;
                    }
                    stmt_paren_base = paren_depth;
                    let mut j = i + 1;
                    if self.toks.get(j).map(|t| t.text) == Some("mut") {
                        j += 1;
                    }
                    pending_let = match self.toks.get(j) {
                        Some(id) if is_ident(id.text) => {
                            match self.toks.get(j + 1).map(|t| t.text) {
                                Some(":") | Some("=") => Some(id.text.to_string()),
                                _ => None, // tuple/struct pattern or partial
                            }
                        }
                        _ => None,
                    };
                    i += 1;
                }
                "if" | "while" | "match" | "for" | "loop" => {
                    if paren_depth == 0 {
                        let kind = match t {
                            "match" | "for" => ConstructKind::Scrutinee,
                            _ => ConstructKind::Cond,
                        };
                        pending_construct = Some(PendingConstruct {
                            kind,
                            temps: Vec::new(),
                        });
                    }
                    i += 1;
                }
                "fn" => {
                    // Nested item: skip its body; the top-level scan
                    // analyzes it as its own function.
                    i = skip_fn_item(&self.toks, i);
                }
                "move" => {
                    i += 1;
                    match self.toks.get(i).map(|t| t.text) {
                        Some("|") => {
                            i += 1;
                            while i < self.toks.len() && self.toks[i].text != "|" {
                                i += 1;
                            }
                            i += 1;
                        }
                        Some("||") => i += 1,
                        _ => continue, // `move` in another position
                    }
                    // Deferred execution: fresh guard region.
                    if self.toks.get(i).map(|t| t.text) == Some("{") {
                        pending_region_brace = Some(next_region);
                    } else {
                        region_stack.push((region, paren_depth));
                        region = next_region;
                    }
                    next_region += 1;
                }
                "drop" => {
                    let is_method = i > 0 && self.toks[i - 1].text == ".";
                    if !is_method
                        && self.toks.get(i + 1).map(|t| t.text) == Some("(")
                        && self.toks.get(i + 3).map(|t| t.text) == Some(")")
                    {
                        if let Some(var) = self.toks.get(i + 2).map(|t| t.text) {
                            if is_ident(var) {
                                for s in scopes.iter_mut().rev() {
                                    s.guards.retain(|g| g.var.as_deref() != Some(var));
                                    s.construct_guards.retain(|g| g.var.as_deref() != Some(var));
                                }
                                i += 4;
                                continue;
                            }
                        }
                    }
                    i += 1;
                }
                "." => {
                    let name = self.toks.get(i + 1).map(|t| t.text).unwrap_or("");
                    let is_call = self.toks.get(i + 2).map(|t| t.text) == Some("(");
                    // `.read()` / `.write()` with no argument are RwLock
                    // acquisitions (I/O reads and writes take a buffer).
                    if matches!(name, "lock" | "try_lock" | "read" | "write")
                        && is_call
                        && self.toks.get(i + 3).map(|t| t.text) == Some(")")
                    {
                        let line = self.toks[i + 1].line;
                        let receiver = resolve_receiver(&self.toks, i);
                        let spec =
                            receiver.and_then(|r| registry::resolve(self.registry, self.file, r));
                        match spec {
                            None => {
                                if self.rule_on("L010") {
                                    let what = receiver.unwrap_or("<unresolvable expression>");
                                    self.violations.push(Violation {
                                        rule: "L010",
                                        file: self.file.to_string(),
                                        line,
                                        snippet: self.snippet(line),
                                        lock: None,
                                        detail: format!(
                                            "`.{name}()` receiver `{what}` is not in LOCK_REGISTRY \
                                             — register it so the L009 lock-order graph sees it"
                                        ),
                                    });
                                }
                            }
                            Some(spec) => {
                                // Synthetic test registries may name
                                // classes outside LOCK_CLASSES; treat
                                // those as plain (non-fiber) locks.
                                let (cname, fiber) = match registry::class_by_name(spec.class) {
                                    Some(c) => (c.name, c.fiber),
                                    None => (spec.class, false),
                                };
                                let live = live_guards(&scopes, &pending_construct, region);
                                // Acquiring a fiber lock parks when
                                // contended: a yield point in itself.
                                if fiber && name == "lock" {
                                    self.check_yield(
                                        &live,
                                        &format!("{}.lock()", spec.receiver),
                                        line,
                                    );
                                }
                                for g in &live {
                                    self.edges.push(LockEdge {
                                        from: g.class.clone(),
                                        to: cname.to_string(),
                                        file: self.file.to_string(),
                                        line,
                                    });
                                }
                                // std-mutex style chains `.unwrap()` /
                                // `.expect("...")` onto the lock call and
                                // still binds the guard — skip adapters
                                // before deciding where the expression ends.
                                let mut end = i + 4;
                                while self.toks.get(end).map(|t| t.text) == Some(".")
                                    && matches!(
                                        self.toks.get(end + 1).map(|t| t.text),
                                        Some("unwrap") | Some("expect")
                                    )
                                    && self.toks.get(end + 2).map(|t| t.text) == Some("(")
                                {
                                    let mut depth = 1usize;
                                    let mut j = end + 3;
                                    while j < self.toks.len() && depth > 0 {
                                        match self.toks[j].text {
                                            "(" => depth += 1,
                                            ")" => depth -= 1,
                                            _ => {}
                                        }
                                        j += 1;
                                    }
                                    end = j;
                                }
                                let terminal = !matches!(
                                    self.toks.get(end).map(|t| t.text),
                                    Some(".") | Some("?")
                                );
                                let guard = Guard {
                                    class: cname.to_string(),
                                    fiber,
                                    var: None,
                                    line,
                                    region,
                                };
                                // `x.read().clone().get(..)`: the guard
                                // temporary outlives the chained call (to
                                // the end of the statement, or of the whole
                                // construct in a scrutinee), so the call
                                // runs under it. The callee is opaque to a
                                // lexer, and a shared object just cloned
                                // out of a lock is exactly what charges and
                                // parks: count the call as a yield point.
                                if let Some(callee) = cloned_out_call(&self.toks, end) {
                                    let what = format!(".clone().{}()", callee.text);
                                    self.check_yield(
                                        std::slice::from_ref(&guard),
                                        &what,
                                        callee.line,
                                    );
                                }
                                if let Some(pc) = pending_construct.as_mut() {
                                    pc.temps.push(guard);
                                } else if terminal
                                    && paren_depth == stmt_paren_base
                                    && pending_let.is_some()
                                    && self.toks.get(end).map(|t| t.text) == Some(";")
                                {
                                    let mut g = guard;
                                    g.var = pending_let.take();
                                    if let Some(s) = scopes.last_mut() {
                                        s.guards.push(g);
                                    }
                                } else if let Some(s) = scopes.last_mut() {
                                    s.stmt_temps.push(guard);
                                }
                                i = end;
                                continue;
                            }
                        }
                        i += 4;
                        continue;
                    }
                    if is_call && METHOD_YIELDS.contains(&name) {
                        let line = self.toks[i + 1].line;
                        let live = live_guards(&scopes, &pending_construct, region);
                        self.check_yield(&live, &format!(".{name}()"), line);
                        i += 3;
                        continue;
                    }
                    i += 2.min(self.toks.len() - i);
                }
                "crashpoint" => {
                    if self.toks.get(i + 1).map(|t| t.text) == Some("::")
                        && self.toks.get(i + 2).map(|t| t.text) == Some("hit")
                        && self.toks.get(i + 3).map(|t| t.text) == Some("(")
                    {
                        let line = self.toks[i + 2].line;
                        if self.rule_on("L008") && !self.crash_safe_marked(line) {
                            let live = live_guards(&scopes, &pending_construct, region);
                            for g in &live {
                                self.violations.push(Violation {
                                    rule: "L008",
                                    file: self.file.to_string(),
                                    line,
                                    snippet: self.snippet(line),
                                    lock: Some(g.class.clone()),
                                    detail: format!(
                                        "guard {} (taken line {}) is live across \
                                         `crashpoint::hit` — CrashUnwind would unwind \
                                         mid-critical-section; narrow the guard or add \
                                         `// {CRASH_SAFE_MARKER} <reason>`",
                                        describe(g),
                                        g.line
                                    ),
                                });
                            }
                        }
                        i += 4;
                        continue;
                    }
                    i += 1;
                }
                _ => {
                    if FREE_YIELDS.contains(&t)
                        && self.toks.get(i + 1).map(|t| t.text) == Some("(")
                        && !matches!(
                            i.checked_sub(1).map(|p| self.toks[p].text),
                            Some(".") | Some("fn")
                        )
                    {
                        let line = self.toks[i].line;
                        let live = live_guards(&scopes, &pending_construct, region);
                        self.check_yield(&live, &format!("{t}()"), line);
                    }
                    i += 1;
                }
            }
        }
        i
    }

    /// L007: every live non-fiber guard in the current region is flagged
    /// against the yield point `what` at `line`.
    fn check_yield(&mut self, live: &[Guard], what: &str, line: usize) {
        if !self.rule_on("L007") {
            return;
        }
        for g in live.iter().filter(|g| !g.fiber) {
            self.violations.push(Violation {
                rule: "L007",
                file: self.file.to_string(),
                line,
                snippet: self.snippet(line),
                lock: Some(g.class.clone()),
                detail: format!(
                    "guard {} (taken line {}) is live across yield point `{what}` — \
                     parking a fiber while holding it can deadlock the cooperative \
                     runtime; narrow the guard or use a FiberMutex",
                    describe(g),
                    g.line
                ),
            });
        }
    }
}

/// If the tokens at `at` read `.clone().name(` — a method called on a
/// value cloned out of the expression before it — returns the `name`
/// token. `unwrap*` / `expect` adapters only unpack the clone and are
/// not calls into it.
fn cloned_out_call<'t, 'a>(toks: &'t [Tok<'a>], at: usize) -> Option<&'t Tok<'a>> {
    let text = |k: usize| toks.get(at + k).map(|t| t.text);
    let chain = [text(0), text(1), text(2), text(3), text(4)];
    if chain != [Some("."), Some("clone"), Some("("), Some(")"), Some(".")] {
        return None;
    }
    let callee = toks.get(at + 5)?;
    let adapter = callee.text.starts_with("unwrap") || callee.text == "expect";
    (is_ident(callee.text) && text(6) == Some("(") && !adapter).then_some(callee)
}

fn describe(g: &Guard) -> String {
    match &g.var {
        Some(v) => format!("`{v}` [{}]", g.class),
        None => format!("<temporary> [{}]", g.class),
    }
}

fn live_guards(scopes: &[Scope], pending: &Option<PendingConstruct>, region: usize) -> Vec<Guard> {
    let mut out = Vec::new();
    for s in scopes {
        out.extend(s.guards.iter().cloned());
        out.extend(s.construct_guards.iter().cloned());
        out.extend(s.stmt_temps.iter().cloned());
    }
    if let Some(pc) = pending {
        out.extend(pc.temps.iter().cloned());
    }
    out.retain(|g| g.region == region);
    out
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Resolves the receiver of `.lock()` at token index `dot`: the
/// identifier immediately before the dot, or — when the dot follows a
/// call `recv(…)` or an index `recv[…]` — the identifier before that
/// balanced group.
fn resolve_receiver<'a>(toks: &[Tok<'a>], dot: usize) -> Option<&'a str> {
    if dot == 0 {
        return None;
    }
    let prev = toks[dot - 1].text;
    if is_ident(prev) {
        return Some(prev);
    }
    if prev == ")" || prev == "]" {
        // Balance back to the matching opener.
        let mut depth = 1usize;
        let mut j = dot - 1;
        while depth > 0 {
            if j == 0 {
                return None;
            }
            j -= 1;
            match toks[j].text {
                ")" | "]" => depth += 1,
                "(" | "[" => depth -= 1,
                _ => {}
            }
        }
        if j > 0 && is_ident(toks[j - 1].text) {
            return Some(toks[j - 1].text);
        }
    }
    None
}

/// Skips a `fn` item starting at the `fn` token: past its signature and
/// (if present) its body. Returns the index after the item.
fn skip_fn_item(toks: &[Tok<'_>], fn_idx: usize) -> usize {
    let mut i = fn_idx + 1;
    // `fn(` is a function-pointer type, not an item.
    if toks.get(i).map(|t| t.text) == Some("(") {
        return i;
    }
    let mut paren = 0usize;
    while i < toks.len() {
        match toks[i].text {
            "(" | "[" => paren += 1,
            ")" | "]" => paren = paren.saturating_sub(1),
            ";" if paren == 0 => return i + 1, // trait method declaration
            "{" if paren == 0 => {
                let mut depth = 1usize;
                i += 1;
                while i < toks.len() && depth > 0 {
                    match toks[i].text {
                        "{" => depth += 1,
                        "}" => depth -= 1,
                        _ => {}
                    }
                    i += 1;
                }
                return i;
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Finds the body `{` of the `fn` item at `fn_idx`, or `None` for a
/// bodyless declaration or a `fn(` pointer type.
fn fn_body_open(toks: &[Tok<'_>], fn_idx: usize) -> Option<usize> {
    let mut i = fn_idx + 1;
    if toks.get(i).map(|t| t.text) == Some("(") {
        return None;
    }
    let mut paren = 0usize;
    while i < toks.len() {
        match toks[i].text {
            "(" | "[" => paren += 1,
            ")" | "]" => paren = paren.saturating_sub(1),
            ";" if paren == 0 => return None,
            "{" if paren == 0 => return Some(i),
            _ => {}
        }
        i += 1;
    }
    None
}

/// Token index ranges covered by `#[cfg(test)]` items (and `#[test]`
/// functions): the analyzer skips them — test-local mutexes are not
/// production locks.
fn test_ranges(toks: &[Tok<'_>]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 2 < toks.len() {
        let is_cfg_test = toks[i].text == "#"
            && toks[i + 1].text == "["
            && toks[i + 2].text == "cfg"
            && toks.get(i + 3).map(|t| t.text) == Some("(")
            && toks.get(i + 4).map(|t| t.text) == Some("test")
            && toks.get(i + 5).map(|t| t.text) == Some(")")
            && toks.get(i + 6).map(|t| t.text) == Some("]");
        let is_test_attr = toks[i].text == "#"
            && toks[i + 1].text == "["
            && toks[i + 2].text == "test"
            && toks.get(i + 3).map(|t| t.text) == Some("]");
        if is_cfg_test || is_test_attr {
            let start = i;
            i += if is_cfg_test { 7 } else { 4 };
            // Skip any further attributes, then the item itself.
            while toks.get(i).map(|t| t.text) == Some("#") {
                let mut depth = 0usize;
                i += 1;
                while i < toks.len() {
                    match toks[i].text {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            let mut paren = 0usize;
            while i < toks.len() {
                match toks[i].text {
                    "(" | "[" => paren += 1,
                    ")" | "]" => paren = paren.saturating_sub(1),
                    ";" if paren == 0 => {
                        i += 1;
                        break;
                    }
                    "{" if paren == 0 => {
                        let mut depth = 1usize;
                        i += 1;
                        while i < toks.len() && depth > 0 {
                            match toks[i].text {
                                "{" => depth += 1,
                                "}" => depth -= 1,
                                _ => {}
                            }
                            i += 1;
                        }
                        break;
                    }
                    _ => {}
                }
                i += 1;
            }
            out.push((start, i));
        } else {
            i += 1;
        }
    }
    out
}

/// Analyzes one file with an explicit registry and rule set. Production
/// code uses [`analyze_file`]; tests inject synthetic registries.
pub fn analyze_file_with(
    file: &str,
    source: &str,
    registry: &[LockSpec],
    rules: &[&str],
) -> FileAnalysis {
    let scrubbed = scrub(source);
    let toks = tokenize(&scrubbed);
    let skip = test_ranges(&toks);
    let mut a = Analysis {
        file,
        raw_lines: source.lines().collect(),
        toks,
        registry,
        rules,
        violations: Vec::new(),
        edges: Vec::new(),
    };
    let mut i = 0;
    while i < a.toks.len() {
        if let Some(&(_, end)) = skip.iter().find(|(s, e)| *s <= i && i < *e) {
            i = end;
            continue;
        }
        if a.toks[i].text == "fn" {
            match fn_body_open(&a.toks, i) {
                Some(open) => {
                    a.analyze_body(open);
                    // Continue just inside the body so nested `fn`
                    // items are found and analyzed exactly once.
                    i = open + 1;
                }
                None => i += 1,
            }
        } else {
            i += 1;
        }
    }
    FileAnalysis {
        violations: a.violations,
        edges: a.edges,
    }
}

/// Analyzes one file with the production [`LOCK_REGISTRY`] and all
/// concurrency rules enabled.
pub fn analyze_file(file: &str, source: &str) -> FileAnalysis {
    analyze_file_with(file, source, LOCK_REGISTRY, &["L007", "L008", "L010"])
}

// ---------------------------------------------------------------------------
// L009 — lock-order graph
// ---------------------------------------------------------------------------

/// Builds the global lock-order graph from per-file edges and reports
/// every cycle (L009). Self-edges within an `ordered` class are the
/// declared intra-family order and are allowed; any other cycle is
/// printed in full with a file:line witness per edge.
pub fn lock_graph_violations(edges: &[LockEdge]) -> Vec<Violation> {
    let mut out = Vec::new();
    // Dedup edges, keeping the first witness per (from, to).
    let mut uniq: Vec<&LockEdge> = Vec::new();
    for e in edges {
        if !uniq.iter().any(|u| u.from == e.from && u.to == e.to) {
            uniq.push(e);
        }
    }

    for e in &uniq {
        if e.from == e.to {
            let ordered = registry::class_by_name(&e.from)
                .map(|c| c.ordered)
                .unwrap_or(false);
            if !ordered {
                out.push(Violation {
                    rule: "L009",
                    file: e.file.clone(),
                    line: e.line,
                    snippet: String::new(),
                    lock: Some(e.from.clone()),
                    detail: format!(
                        "lock-order self-cycle: `{}` acquired while already held \
                         ({}:{}) and the class is not declared `ordered`",
                        e.from, e.file, e.line
                    ),
                });
            }
        }
    }

    // Nodes and adjacency (self-edges excluded — handled above).
    let mut nodes: Vec<&str> = Vec::new();
    for e in &uniq {
        for n in [e.from.as_str(), e.to.as_str()] {
            if !nodes.contains(&n) {
                nodes.push(n);
            }
        }
    }
    let idx = |n: &str| nodes.iter().position(|x| *x == n).unwrap();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for e in &uniq {
        if e.from != e.to {
            adj[idx(&e.from)].push(idx(&e.to));
        }
    }

    // DFS cycle detection with path reconstruction. Each cycle is
    // reported once, keyed by its node set.
    let mut reported: Vec<Vec<usize>> = Vec::new();
    for start in 0..nodes.len() {
        let mut path: Vec<usize> = Vec::new();
        let mut visited = vec![false; nodes.len()];
        // DFS tracking the current path; graphs here are tiny (a few
        // dozen classes), so recursion depth is bounded.
        fn dfs(
            v: usize,
            adj: &[Vec<usize>],
            visited: &mut [bool],
            path: &mut Vec<usize>,
            found: &mut Option<Vec<usize>>,
        ) {
            if found.is_some() {
                return;
            }
            if let Some(pos) = path.iter().position(|&p| p == v) {
                *found = Some(path[pos..].to_vec());
                return;
            }
            if visited[v] {
                return;
            }
            visited[v] = true;
            path.push(v);
            for &w in &adj[v] {
                dfs(w, adj, visited, path, found);
            }
            path.pop();
        }
        let mut found = None;
        dfs(start, &adj, &mut visited, &mut path, &mut found);
        if let Some(cycle) = found {
            let mut key = cycle.clone();
            key.sort_unstable();
            if reported.contains(&key) {
                continue;
            }
            reported.push(key);
            // Render: A -> B (file:line) -> ... -> A (file:line).
            let witness = |from: usize, to: usize| -> String {
                uniq.iter()
                    .find(|e| e.from == nodes[from] && e.to == nodes[to])
                    .map(|e| format!("{}:{}", e.file, e.line))
                    .unwrap_or_else(|| "?".to_string())
            };
            let mut desc = format!("lock-order cycle: `{}`", nodes[cycle[0]]);
            for w in 1..=cycle.len() {
                let (a, b) = (cycle[w - 1], cycle[w % cycle.len()]);
                desc.push_str(&format!(" -> `{}` ({})", nodes[b], witness(a, b)));
            }
            let first = uniq
                .iter()
                .find(|e| e.from == nodes[cycle[0]] && e.to == nodes[cycle[1 % cycle.len()]])
                .expect("cycle edge exists");
            out.push(Violation {
                rule: "L009",
                file: first.file.clone(),
                line: first.line,
                snippet: String::new(),
                lock: Some(nodes[cycle[0]].to_string()),
                detail: desc,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_concurrency_with;

    const NODE: &str = "crates/core/src/node.rs";
    const ENGINE: &str = "crates/store/src/engine.rs";
    const ALL: &[&str] = &["L007", "L008", "L010"];

    fn check(file: &str, src: &str) -> FileAnalysis {
        analyze_file_with(file, src, LOCK_REGISTRY, ALL)
    }

    fn check_rules(file: &str, src: &str, rules: &[&str]) -> FileAnalysis {
        analyze_file_with(file, src, LOCK_REGISTRY, rules)
    }

    // ---- L007 canary -----------------------------------------------------

    #[test]
    fn l007_canary_guard_across_sleep() {
        let src = "fn f(&self) {\n    let mut s = self.stats.lock();\n    runtime::sleep(5);\n    s.aborted += 1;\n}\n";
        let fa = check(NODE, src);
        assert_eq!(fa.violations.len(), 1, "{:?}", fa.violations);
        let v = &fa.violations[0];
        assert_eq!(v.rule, "L007");
        assert_eq!(v.file, NODE);
        assert_eq!(v.line, 3);
        assert_eq!(v.lock.as_deref(), Some("core.node.stats"));
        assert!(v.detail.contains("yield point `sleep()`"), "{}", v.detail);
        assert!(v.detail.contains("`s`"), "{}", v.detail);

        // The canary goes dark when its rule is disabled.
        let off = check_rules(NODE, src, &["L008", "L010"]);
        assert!(off.violations.is_empty(), "{:?}", off.violations);
    }

    #[test]
    fn std_style_unwrap_chain_still_binds_the_guard() {
        // `let g = x.lock().unwrap();` (std::sync::Mutex idiom) must
        // bind a named guard, not a statement temporary that dies at
        // the semicolon — otherwise L007/L008 go blind for std locks.
        let src = "fn f(&self) {\n    let s = self.stats.lock().unwrap();\n    runtime::sleep(5);\n    drop(s);\n}\n";
        let fa = check(NODE, src);
        assert_eq!(fa.violations.len(), 1, "{:?}", fa.violations);
        assert_eq!(fa.violations[0].rule, "L007");
        assert_eq!(fa.violations[0].line, 3);

        // `.expect("...")` chains the same way; a trailing method call
        // after the adapter still demotes it to a temporary.
        let src = "fn f(&self) {\n    let n = self.stats.lock().expect(\"poisoned\").len();\n    runtime::sleep(5);\n    drop(n);\n}\n";
        let fa = check(NODE, src);
        assert!(fa.violations.is_empty(), "{:?}", fa.violations);
    }

    #[test]
    fn l007_method_yields_and_fiber_acquire_are_yield_points() {
        // A registered method yield (.wait) under a live guard fires.
        let src = "fn f(&self) {\n    let s = self.stats.lock();\n    self.waiters.wait(1);\n}\n";
        let fa = check(NODE, src);
        assert_eq!(fa.violations.len(), 1);
        assert!(fa.violations[0].detail.contains("`.wait()`"));

        // Acquiring a fiber-class lock parks: a yield point for any
        // plain guard already held.
        let src = "fn f(&self) {\n    let q = self.pending_gc.lock();\n    let g = self.commits.lock();\n    drop(g);\n}\n";
        let fa = check(ENGINE, src);
        assert_eq!(fa.violations.len(), 1, "{:?}", fa.violations);
        assert_eq!(fa.violations[0].rule, "L007");
        assert_eq!(fa.violations[0].lock.as_deref(), Some("store.pending_gc"));
        assert!(fa.violations[0].detail.contains("commits.lock()"));
    }

    #[test]
    fn l007_fiber_guard_may_cross_yields() {
        // FiberMutex guards are exempt: held across charges by design.
        let src = "fn f(&self) {\n    let g = self.commits.lock();\n    self.env.charge_crypto(64);\n    runtime::sleep(5);\n}\n";
        let fa = check(ENGINE, src);
        assert!(fa.violations.is_empty(), "{:?}", fa.violations);
    }

    // ---- RwLock guards: the two baseline stalls ----------------------------

    const MEMTABLE: &str = "crates/store/src/memtable.rs";
    const INDEX_GUARD_ACROSS_CHARGE: &str = include_str!("../fixtures/guard_across_charge.rs");
    const SCRUTINEE_CLONE_CALL: &str = include_str!("../fixtures/scrutinee_clone_call.rs");

    #[test]
    fn l007_flags_index_guard_across_charge() {
        let fa = check(MEMTABLE, INDEX_GUARD_ACROSS_CHARGE);
        assert_eq!(fa.violations.len(), 1, "{:?}", fa.violations);
        let v = &fa.violations[0];
        assert_eq!(v.rule, "L007");
        assert_eq!(v.lock.as_deref(), Some("store.memtable_index"));
        assert!(v.detail.contains("`.charge_enclave_op()`"), "{}", v.detail);
        assert!(v.detail.contains("`guard`"), "{}", v.detail);

        // Collect under the guard, charge after its block closes: clean.
        let fixed = "fn f(&self) {\n    let list = {\n        let guard = self.index.read();\n        guard.iter().collect()\n    };\n    self.env.charge_enclave_op(list.len(), 5);\n}\n";
        assert!(check(MEMTABLE, fixed).violations.is_empty());

        // `.write()` guards count the same way.
        let write = "fn f(&self) {\n    let mut g = self.index.write();\n    self.env.charge_enclave_op(1, 5);\n    g.clear();\n}\n";
        let fa = check(MEMTABLE, write);
        assert_eq!(fa.violations.len(), 1, "{:?}", fa.violations);
        assert_eq!(
            fa.violations[0].lock.as_deref(),
            Some("store.memtable_index")
        );
    }

    #[test]
    fn l007_flags_call_on_value_cloned_out_of_guard_temporary() {
        let fa = check(ENGINE, SCRUTINEE_CLONE_CALL);
        assert_eq!(fa.violations.len(), 1, "{:?}", fa.violations);
        let v = &fa.violations[0];
        assert_eq!(v.rule, "L007");
        assert_eq!(v.lock.as_deref(), Some("store.mem"));
        assert!(v.detail.contains("`.clone().get()`"), "{}", v.detail);

        // Binding the clone first ends the guard at the `;`.
        let fixed = "fn f(&self, k: &[u8]) {\n    let mem = self.inner.mem.read().clone();\n    if let Some(v) = mem.get(k, 1) {\n        return v;\n    }\n}\n";
        assert!(check(ENGINE, fixed).violations.is_empty());

        // Unpacking the clone is not a call into it.
        let adapter =
            "fn f(&self) -> Vec<u8> {\n    self.pending_gc.lock().clone().unwrap_or_default()\n}\n";
        assert!(check(ENGINE, adapter).violations.is_empty());
    }

    #[test]
    fn l010_covers_rwlock_receivers() {
        let src = "fn f(&self) {\n    let g = self.mystery.read();\n}\n";
        let fa = check(ENGINE, src);
        assert_eq!(fa.violations.len(), 1, "{:?}", fa.violations);
        assert_eq!(fa.violations[0].rule, "L010");
        assert!(
            fa.violations[0].detail.contains("`.read()`"),
            "{}",
            fa.violations[0].detail
        );
        // I/O reads and writes take a buffer: not lock acquisitions.
        let io = "fn f(&self, buf: &mut [u8]) {\n    self.file.read(buf);\n    self.file.write(buf);\n}\n";
        assert!(check(ENGINE, io).violations.is_empty());
    }

    // ---- guard liveness --------------------------------------------------

    #[test]
    fn guard_dies_at_block_end_drop_and_statement_end() {
        // Inner block scopes the guard; the later sleep is clean.
        let block = "fn f(&self) {\n    {\n        let s = self.stats.lock();\n        s.n += 1;\n    }\n    runtime::sleep(5);\n}\n";
        assert!(check(NODE, block).violations.is_empty());

        // Explicit drop() ends the live range.
        let dropped = "fn f(&self) {\n    let s = self.stats.lock();\n    drop(s);\n    runtime::sleep(5);\n}\n";
        assert!(check(NODE, dropped).violations.is_empty());

        // A temporary guard dies at the end of its statement.
        let temp = "fn f(&self) {\n    self.stats.lock().n += 1;\n    runtime::sleep(5);\n}\n";
        assert!(check(NODE, temp).violations.is_empty());
    }

    #[test]
    fn scrutinee_temporary_lives_through_construct_body() {
        // Rust keeps the `if let` scrutinee temporary alive for the whole
        // construct, so the yield inside the body is a real hazard.
        let src = "fn f(&self, k: u64) {\n    if let Some(t) = self.active_part.lock().remove(&k) {\n        runtime::sleep(5);\n    }\n}\n";
        let fa = check(NODE, src);
        assert_eq!(fa.violations.len(), 1, "{:?}", fa.violations);
        assert_eq!(
            fa.violations[0].lock.as_deref(),
            Some("core.node.active_part")
        );
        assert_eq!(fa.violations[0].line, 3);

        // ... and it carries across `else`.
        let src = "fn f(&self, k: u64) {\n    if let Some(t) = self.active_part.lock().remove(&k) {\n        t\n    } else {\n        runtime::sleep(5);\n    }\n}\n";
        let fa = check(NODE, src);
        assert_eq!(fa.violations.len(), 1, "{:?}", fa.violations);
        assert_eq!(fa.violations[0].line, 5);

        // A plain condition temporary dies at the `{`.
        let src = "fn f(&self) {\n    if self.stats.lock().n > 0 {\n        runtime::sleep(5);\n    }\n}\n";
        assert!(check(NODE, src).violations.is_empty());
    }

    #[test]
    fn move_closures_form_a_fresh_guard_region() {
        // The closure runs later on another fiber: the outer guard is not
        // live across its body, and spawn itself does not yield.
        let src = "fn f(&self) {\n    let s = self.stats.lock();\n    runtime::spawn_daemon(\"w\", move || {\n        runtime::sleep(5);\n    });\n}\n";
        let fa = check(NODE, src);
        assert!(fa.violations.is_empty(), "{:?}", fa.violations);

        // But a guard taken *inside* the closure is checked there.
        let src = "fn f(&self) {\n    runtime::spawn_daemon(\"w\", move || {\n        let s = self.stats.lock();\n        runtime::sleep(5);\n    });\n}\n";
        let fa = check(NODE, src);
        assert_eq!(fa.violations.len(), 1, "{:?}", fa.violations);
        assert_eq!(fa.violations[0].rule, "L007");
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(&self) {\n        let s = self.stats.lock();\n        runtime::sleep(5);\n    }\n}\n";
        let fa = check(NODE, src);
        assert!(fa.violations.is_empty(), "{:?}", fa.violations);
    }

    // ---- L008 canary -----------------------------------------------------

    #[test]
    fn l008_canary_guard_across_crashpoint() {
        let src = "fn f(&self) {\n    let g = self.stats.lock();\n    treaty_sim::crashpoint::hit(\"coord.x\");\n}\n";
        let fa = check(NODE, src);
        assert_eq!(fa.violations.len(), 1, "{:?}", fa.violations);
        let v = &fa.violations[0];
        assert_eq!(v.rule, "L008");
        assert_eq!(v.line, 3);
        assert_eq!(v.lock.as_deref(), Some("core.node.stats"));
        assert!(v.detail.contains("crashpoint::hit"), "{}", v.detail);

        let off = check_rules(NODE, src, &["L007", "L010"]);
        assert!(off.violations.is_empty(), "{:?}", off.violations);
    }

    #[test]
    fn l008_marker_documents_audited_exception() {
        // LINT-CRASH-SAFE within three lines above silences L008.
        let src = "fn f(&self) {\n    let g = self.stats.lock();\n    // LINT-CRASH-SAFE: guard is re-created from the WAL on restart\n    treaty_sim::crashpoint::hit(\"coord.x\");\n}\n";
        assert!(check(NODE, src).violations.is_empty());

        // Four lines away is too far: the window is three lines.
        let src = "fn f(&self) {\n    let g = self.stats.lock();\n    // LINT-CRASH-SAFE: too far\n    //\n    //\n    //\n    treaty_sim::crashpoint::hit(\"coord.x\");\n}\n";
        assert_eq!(check(NODE, src).violations.len(), 1);

        // Even a fiber guard is a crash hazard: unwinding poisons it too.
        let src = "fn f(&self) {\n    let g = self.commits.lock();\n    treaty_sim::crashpoint::hit(\"store.x\");\n}\n";
        let fa = check(ENGINE, src);
        assert_eq!(fa.violations.len(), 1, "{:?}", fa.violations);
        assert_eq!(fa.violations[0].rule, "L008");
    }

    // ---- L009 ------------------------------------------------------------

    /// Synthetic registry for the cycle fixture: classes outside
    /// LOCK_CLASSES resolve as plain, unordered locks.
    const CYCLE_REGISTRY: &[LockSpec] = &[
        LockSpec {
            file: "fixture/cycle_a.rs",
            receiver: "alpha",
            class: "t.alpha",
        },
        LockSpec {
            file: "fixture/cycle_a.rs",
            receiver: "beta",
            class: "t.beta",
        },
        LockSpec {
            file: "fixture/cycle_b.rs",
            receiver: "alpha",
            class: "t.alpha",
        },
        LockSpec {
            file: "fixture/cycle_b.rs",
            receiver: "beta",
            class: "t.beta",
        },
    ];

    /// The two on-disk fixture files: A takes alpha→beta, B takes
    /// beta→alpha.
    const CYCLE_A: &str = include_str!("../fixtures/cycle_a.rs");
    const CYCLE_B: &str = include_str!("../fixtures/cycle_b.rs");

    #[test]
    fn l009_two_file_lock_order_cycle() {
        let files = vec![
            ("fixture/cycle_a.rs".to_string(), CYCLE_A.to_string()),
            ("fixture/cycle_b.rs".to_string(), CYCLE_B.to_string()),
        ];
        let v = lint_concurrency_with(&files, CYCLE_REGISTRY, &["L009"]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "L009");
        assert!(v[0].detail.contains("`t.alpha`"), "{}", v[0].detail);
        assert!(v[0].detail.contains("`t.beta`"), "{}", v[0].detail);
        // Each edge of the cycle is printed with its file:line witness:
        // the inner acquisition in each fixture file.
        assert!(
            v[0].detail.contains("fixture/cycle_a.rs:12"),
            "{}",
            v[0].detail
        );
        assert!(
            v[0].detail.contains("fixture/cycle_b.rs:7"),
            "{}",
            v[0].detail
        );

        // Disabled: the canary goes dark.
        assert!(lint_concurrency_with(&files, CYCLE_REGISTRY, &["L007"]).is_empty());

        // Consistent order in both files: no cycle.
        let files = vec![
            ("fixture/cycle_a.rs".to_string(), CYCLE_A.to_string()),
            (
                "fixture/cycle_b.rs".to_string(),
                CYCLE_A.replace("take_alpha_then_beta", "consistent_order"),
            ),
        ];
        assert!(lint_concurrency_with(&files, CYCLE_REGISTRY, &["L009"]).is_empty());
    }

    #[test]
    fn l009_self_edges_respect_the_ordered_flag() {
        let edge = |class: &str| LockEdge {
            from: class.to_string(),
            to: class.to_string(),
            file: "x.rs".to_string(),
            line: 7,
        };
        // Sharded families declare an intra-class order: allowed.
        assert!(lock_graph_violations(&[edge("store.lock_table_shard")]).is_empty());
        // An unordered class nested inside itself is a one-node cycle.
        let v = lock_graph_violations(&[edge("core.node.stats")]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "L009");
        assert!(v[0].detail.contains("self-cycle"), "{}", v[0].detail);
    }

    // ---- L010 canary -----------------------------------------------------

    #[test]
    fn l010_canary_unregistered_receiver() {
        let src = "fn f(&self) {\n    let g = self.mystery.lock();\n}\n";
        let fa = check(NODE, src);
        assert_eq!(fa.violations.len(), 1, "{:?}", fa.violations);
        let v = &fa.violations[0];
        assert_eq!(v.rule, "L010");
        assert_eq!(v.line, 2);
        assert!(v.detail.contains("`mystery`"), "{}", v.detail);
        assert!(v.detail.contains("LOCK_REGISTRY"), "{}", v.detail);

        let off = check_rules(NODE, src, &["L007", "L008"]);
        assert!(off.violations.is_empty(), "{:?}", off.violations);
    }

    #[test]
    fn l010_resolves_method_call_receivers() {
        // `self.stripe(&gtx).lock()` resolves through the method name.
        let src = "fn f(&self, gtx: u64) {\n    let s = self.stripe(&gtx).lock();\n}\n";
        let by_method = [LockSpec {
            file: ENGINE,
            receiver: "stripe",
            class: "store.lock_table_shard",
        }];
        let fa = analyze_file_with(ENGINE, src, &by_method, ALL);
        assert!(fa.violations.is_empty(), "{:?}", fa.violations);

        // try_lock() resolves through the same table and is not a yield.
        let src = "fn f(&self) {\n    let q = self.pending_gc.lock();\n    if let Some(g) = self.maintenance_lock.try_lock() {\n        drop(g);\n    }\n}\n";
        let fa = check(ENGINE, src);
        assert!(fa.violations.is_empty(), "{:?}", fa.violations);
    }

    // ---- plumbing --------------------------------------------------------

    #[test]
    fn edges_are_extracted_with_witnesses() {
        let src = "fn f(&self) {\n    let q = self.pending_gc.lock();\n    let d = self.live_wal_gens.lock();\n}\n";
        let fa = check(ENGINE, src);
        assert_eq!(fa.edges.len(), 1, "{:?}", fa.edges);
        assert_eq!(fa.edges[0].from, "store.pending_gc");
        assert_eq!(fa.edges[0].to, "store.live_wal_gens");
        assert_eq!(fa.edges[0].line, 3);
    }

    #[test]
    fn tokenizer_tracks_lines_and_compound_ops() {
        let toks = tokenize("a::b -> c\nx <= y;\n");
        let texts: Vec<&str> = toks.iter().map(|t| t.text).collect();
        assert_eq!(texts, ["a", "::", "b", "->", "c", "x", "<=", "y", ";"]);
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[5].line, 2);
    }
}
