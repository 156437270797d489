//! treaty-lint: static enforcement of Treaty's enclave-boundary rules.
//!
//! The `HostBytes` newtype (crates/tee) makes "plaintext into host memory" a
//! compile error, but three classes of boundary bugs survive the type
//! system, so this crate scans the workspace source directly:
//!
//! * **L001 — enclave-only crypto.** Raw AEAD/HMAC primitives
//!   (`aead_open`, `aead_seal`, `hmac_sign`, `hmac_verify`) may only be
//!   named inside the trusted modules (crypto, tee, and the three store
//!   files that run inside the enclave). Everything else must go through
//!   the typed wrappers, otherwise key material leaks into code that the
//!   §III adversary can interpose on.
//! * **L002 — no panics on the 2PC commit/recovery path.** A coordinator
//!   or participant that unwinds mid-commit leaves the protocol state
//!   machine wedged; `unwrap()`, `expect()` and `panic!` are banned in
//!   `core::{node,clog}` and `store::{log,sstable}`, and in
//!   `crypto::codec`, which decodes every byte recovery reads.
//!   (`unwrap_err`/`expect_err` are fine — they assert on the *error* arm
//!   in tests.)
//! * **L003 — deterministic time and randomness.** Simulated components
//!   must take time from the virtual clock; `std::time::{Instant,
//!   SystemTime}` and `thread_rng` are allowed only in the measurement
//!   module `crates/sim/src/stats.rs`.
//! * **L004 — auditable declassification.** Every
//!   `HostBytes::declassified(...)` call must carry a
//!   `// LINT-DECLASSIFY: <reason>` comment within the three lines above
//!   it, so `git grep LINT-DECLASSIFY` is a complete audit of deliberate
//!   plaintext-to-host flows.
//! * **L005 — no secrets in observability payloads.** Inside the trusted
//!   regions (core, store, tee, crypto), no `format!`-family macro and no
//!   trace-event payload (`span_with`, `instant`, …) may name a secret-ish
//!   identifier (`plaintext`, `user_key`, `key_material`, …): traces and
//!   log strings leave the enclave, so interpolation would be an
//!   unaudited declassification side channel. The raw line is searched,
//!   not the scrubbed one, because interpolations live *inside* string
//!   literals (`"{plaintext}"`).
//! * **L006 — crash points unique and registered.** Every
//!   `crashpoint::hit("...")` call site must name a string literal that
//!   appears in `ALL_POINTS` (crates/sim/src/crashpoint.rs), and the
//!   registry itself must have no duplicate names. A typo'd or
//!   unregistered point would silently never fire, so a fault-matrix cell
//!   that claims to cover it would test nothing.
//!
//! On top of the line rules sits a **function-scope concurrency
//! analyzer** ([`analyzer`], [`registry`]) with four more rules:
//!
//! * **L007 — no guard live across a yield point.** The cooperative
//!   fiber runtime runs one fiber at a time; a `Mutex` or `RwLock` guard
//!   held across `sleep`/`park`/`yield_now`/a charge/an RPC round trip
//!   deadlocks the node if the next fiber touches the same lock.
//!   Fiber-aware locks (`FiberMutex`) are exempt — being held across
//!   yields is their job.
//! * **L008 — no guard live across `crashpoint::hit`.** `CrashUnwind`
//!   unwinds the fiber at the crash site, poisoning any std `Mutex` held
//!   there and silently breaking crash → heal → restart. Audited
//!   exceptions carry `// LINT-CRASH-SAFE: <reason>` (the L004 pattern).
//! * **L009 — no lock-order cycles.** Intra-function "acquire A while
//!   holding B" edges, keyed by [`registry::LOCK_REGISTRY`] classes, are
//!   merged into a global graph; any cycle is reported in full with a
//!   file:line witness per edge.
//! * **L010 — every `.lock()` / `.read()` / `.write()` site resolves
//!   through the registry** in
//!   crates/{core,store,sim,net}, so L009's graph can never silently
//!   miss an edge (the L006 pattern).
//!
//! Violations are diffed against a committed `lint-baseline.json` ratchet:
//! new violations fail the build; fixed violations must be removed from
//! the baseline (`--update-baseline`), so the count only goes down.
//! Baseline entries for L007–L010 must carry a `justification` string —
//! the ratchet rejects justification-free debt for the new rules.
//!
//! The crate has no dependencies by design — it is a hand-rolled lexer,
//! not a parser, which is exactly enough for token-level rules and keeps
//! the CI gate buildable with a bare toolchain.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod analyzer;
pub mod registry;

pub use analyzer::{
    analyze_file, analyze_file_with, lock_graph_violations, FileAnalysis, LockEdge,
};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id, e.g. `"L002"`.
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Trimmed source line (raw, pre-scrub) for the report.
    pub snippet: String,
    /// Lock class involved (L007–L009), if any.
    pub lock: Option<String>,
    /// Human-readable explanation; empty for the line rules.
    pub detail: String,
}

impl Violation {
    /// Constructor for the line rules (no lock class, no detail).
    fn basic(rule: &'static str, file: &str, line: usize, snippet: String) -> Self {
        Violation {
            rule,
            file: file.to_string(),
            line,
            snippet,
            lock: None,
            detail: String::new(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{}: {}",
            self.rule, self.file, self.line, self.snippet
        )?;
        if !self.detail.is_empty() {
            write!(f, " [{}]", self.detail)?;
        }
        Ok(())
    }
}

/// All rule ids, in report order.
pub const RULES: [(&str, &str); 10] = [
    ("L001", "enclave-only crypto primitives"),
    ("L002", "no panics on 2PC commit/recovery path"),
    ("L003", "deterministic time/randomness"),
    ("L004", "auditable HostBytes declassification"),
    ("L005", "no secrets in format/trace payloads"),
    ("L006", "crash points unique and registered"),
    ("L007", "no guard live across a yield point"),
    ("L008", "no guard live across crashpoint::hit"),
    ("L009", "no lock-order cycles"),
    ("L010", "every .lock() resolves through LOCK_REGISTRY"),
];

/// Rules whose baseline entries must carry a `justification` string.
pub const JUSTIFICATION_REQUIRED: [&str; 4] = ["L007", "L008", "L009", "L010"];

// ---------------------------------------------------------------------------
// Source scrubbing
// ---------------------------------------------------------------------------

/// Blanks comments and string/char-literal contents while preserving the
/// line structure, so token matching never fires inside a comment or a
/// string. Handles line comments, nested block comments, escapes, raw
/// strings (`r#"..."#`, any hash depth, `b`/`br` prefixes) and the
/// char-literal/lifetime ambiguity (`'a'` vs `<'a>`).
pub fn scrub(source: &str) -> String {
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut i = 0;
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < chars.len() {
        let c = chars[i];
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < chars.len() && chars[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 1usize;
            out.push_str("  ");
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(blank(chars[i]));
                    i += 1;
                }
            }
        } else if c == '"' {
            let (raw, hashes) = raw_string_prefix(&chars, i);
            out.push('"');
            i += 1;
            if raw {
                while i < chars.len() {
                    if chars[i] == '"' && (1..=hashes).all(|k| chars.get(i + k) == Some(&'#')) {
                        out.push('"');
                        i += 1;
                        for _ in 0..hashes {
                            out.push('#');
                            i += 1;
                        }
                        break;
                    }
                    out.push(blank(chars[i]));
                    i += 1;
                }
            } else {
                while i < chars.len() {
                    if chars[i] == '\\' {
                        out.push(' ');
                        i += 1;
                        if i < chars.len() {
                            out.push(blank(chars[i]));
                            i += 1;
                        }
                    } else if chars[i] == '"' {
                        out.push('"');
                        i += 1;
                        break;
                    } else {
                        out.push(blank(chars[i]));
                        i += 1;
                    }
                }
            }
        } else if c == '\'' {
            if chars.get(i + 1) == Some(&'\\') {
                // Escaped char literal: '\n', '\'', '\u{1F600}', ...
                out.push('\'');
                i += 1;
                while i < chars.len() && chars[i] != '\'' {
                    if chars[i] == '\\' {
                        // Consume the escape pair as a unit so '\'' does
                        // not terminate on the escaped quote.
                        out.push(' ');
                        i += 1;
                        if i < chars.len() {
                            out.push(blank(chars[i]));
                            i += 1;
                        }
                    } else {
                        out.push(blank(chars[i]));
                        i += 1;
                    }
                }
                if i < chars.len() {
                    out.push('\'');
                    i += 1;
                }
            } else if chars.get(i + 2) == Some(&'\'') && i + 1 < chars.len() {
                // Plain char literal: 'x'
                out.push_str("' '");
                i += 3;
            } else {
                // Lifetime or loop label: leave as-is.
                out.push('\'');
                i += 1;
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

/// For a `"` at `quote_idx`, determines whether it opens a raw string and
/// how many `#`s close it, by looking at the immediately preceding
/// `r`/`br` + hash prefix.
fn raw_string_prefix(chars: &[char], quote_idx: usize) -> (bool, usize) {
    let mut j = quote_idx;
    let mut hashes = 0usize;
    while j > 0 && chars[j - 1] == '#' {
        j -= 1;
        hashes += 1;
    }
    if j == 0 {
        return (false, 0);
    }
    let mut k = j - 1;
    if chars[k] != 'r' {
        return (false, 0);
    }
    if k > 0 && chars[k - 1] == 'b' {
        k -= 1;
    }
    // The r/br must not be the tail of a longer identifier (`var"` is not
    // valid Rust anyway, but be safe).
    let standalone = k == 0 || !is_ident_char(chars[k - 1]);
    if standalone {
        (true, hashes)
    } else {
        (false, 0)
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

// ---------------------------------------------------------------------------
// Token matching
// ---------------------------------------------------------------------------

/// Byte offsets of ident-boundary occurrences of `tok` in `line`.
fn ident_occurrences(line: &str, tok: &str) -> Vec<usize> {
    let mut found = Vec::new();
    let mut start = 0;
    while let Some(pos) = line[start..].find(tok) {
        let idx = start + pos;
        let before_ok = idx == 0
            || !line[..idx]
                .chars()
                .next_back()
                .map(is_ident_char)
                .unwrap_or(false);
        let after = idx + tok.len();
        let after_ok = !line[after..]
            .chars()
            .next()
            .map(is_ident_char)
            .unwrap_or(false);
        if before_ok && after_ok {
            found.push(idx);
        }
        start = idx + tok.len();
    }
    found
}

/// True if `line` contains `tok` as an ident followed (after optional
/// whitespace) by `next` — e.g. `unwrap` + `(` or `panic` + `!`.
fn has_ident_then(line: &str, tok: &str, next: char) -> bool {
    ident_occurrences(line, tok).iter().any(|&idx| {
        line[idx + tok.len()..]
            .chars()
            .find(|c| !c.is_whitespace())
            .map(|c| c == next)
            .unwrap_or(false)
    })
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// L001: crypto primitives that must stay inside the trusted modules.
const L001_TOKENS: [&str; 4] = ["aead_open", "aead_seal", "hmac_sign", "hmac_verify"];
/// L001 allowlist: path prefixes that *are* the trusted modules.
const L001_ALLOW_PREFIXES: [&str; 2] = ["crates/crypto/", "crates/tee/"];
/// L001 allowlist: exact enclave-resident store files.
const L001_ALLOW_FILES: [&str; 3] = [
    "crates/store/src/memtable.rs",
    "crates/store/src/log.rs",
    "crates/store/src/sstable.rs",
];

/// L002 scope: the 2PC commit/recovery path, and the decoder under it.
const L002_SCOPE: [&str; 5] = [
    "crates/core/src/node.rs",
    "crates/core/src/clog.rs",
    "crates/store/src/log.rs",
    "crates/store/src/sstable.rs",
    "crates/crypto/src/codec.rs",
];

/// L003: nondeterminism sources banned outside the allowlist.
const L003_SUBSTRINGS: [&str; 4] = [
    "std::time::Instant",
    "std::time::SystemTime",
    "Instant::now",
    "SystemTime::now",
];
const L003_IDENTS: [&str; 1] = ["thread_rng"];
/// L003 allowlist: the one module allowed to read the wall clock.
const L003_ALLOW_FILES: [&str; 1] = ["crates/sim/src/stats.rs"];

/// L004: files exempt from the marker requirement (the constructor's own
/// definition site).
const L004_EXEMPT_FILES: [&str; 1] = ["crates/tee/src/hostbytes.rs"];
/// The audit marker L004 requires near each declassification.
pub const DECLASSIFY_MARKER: &str = "LINT-DECLASSIFY:";

/// L005 scope: the trusted regions whose observability payloads are
/// checked.
const L005_SCOPE_PREFIXES: [&str; 4] = [
    "crates/core/",
    "crates/store/",
    "crates/tee/",
    "crates/crypto/",
];
/// L005: format-family macros whose strings could interpolate a secret.
const L005_MACROS: [&str; 8] = [
    "format", "println", "eprintln", "print", "eprint", "write", "writeln", "panic",
];
/// L005: trace/metric payload constructors (treaty-sim obs glue).
const L005_TRACE_FNS: [&str; 4] = ["span_with", "instant", "counter_add", "hist_record"];
/// L005: identifiers that name secret material in the trusted regions.
const L005_SECRET_IDENTS: [&str; 7] = [
    "plaintext",
    "plain",
    "decrypted",
    "user_key",
    "key_material",
    "key_bytes",
    "secret",
];

fn in_list(file: &str, list: &[&str]) -> bool {
    list.contains(&file)
}

fn has_prefix(file: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| file.starts_with(p))
}

/// Lints one file's source. `file` is the repo-relative path with forward
/// slashes; it selects which rules apply.
pub fn lint_source(file: &str, source: &str) -> Vec<Violation> {
    let scrubbed = scrub(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    let lines: Vec<&str> = scrubbed.lines().collect();
    let mut out = Vec::new();
    let snippet = |n: usize| -> String {
        let s = raw_lines.get(n).copied().unwrap_or("").trim();
        let mut s = s.to_string();
        if s.len() > 120 {
            s.truncate(117);
            s.push_str("...");
        }
        s
    };

    // L001 — enclave-only crypto.
    if !has_prefix(file, &L001_ALLOW_PREFIXES) && !in_list(file, &L001_ALLOW_FILES) {
        for (n, line) in lines.iter().enumerate() {
            for tok in L001_TOKENS {
                for _ in ident_occurrences(line, tok) {
                    out.push(Violation::basic("L001", file, n + 1, snippet(n)));
                }
            }
        }
    }

    // L002 — no panics on the commit/recovery path.
    if in_list(file, &L002_SCOPE) {
        for (n, line) in lines.iter().enumerate() {
            let mut hits = 0;
            if has_ident_then(line, "unwrap", '(') {
                hits += 1;
            }
            if has_ident_then(line, "expect", '(') {
                hits += 1;
            }
            if has_ident_then(line, "panic", '!') {
                hits += 1;
            }
            for _ in 0..hits {
                out.push(Violation::basic("L002", file, n + 1, snippet(n)));
            }
        }
    }

    // L003 — deterministic time/randomness. At most one violation per
    // line: "std::time::Instant::now()" matches two patterns but is one
    // offence.
    if !in_list(file, &L003_ALLOW_FILES) {
        for (n, line) in lines.iter().enumerate() {
            let hit = L003_SUBSTRINGS.iter().any(|pat| line.contains(pat))
                || L003_IDENTS
                    .iter()
                    .any(|tok| !ident_occurrences(line, tok).is_empty());
            if hit {
                out.push(Violation::basic("L003", file, n + 1, snippet(n)));
            }
        }
    }

    // L005 — no secret-ish identifier may ride a format string or trace
    // payload in the trusted regions. The sink is matched on the scrubbed
    // line (macros live outside strings); the identifiers are matched on
    // the raw line, because interpolations live inside string literals.
    if has_prefix(file, &L005_SCOPE_PREFIXES) {
        for (n, line) in lines.iter().enumerate() {
            let sink = L005_MACROS.iter().any(|m| has_ident_then(line, m, '!'))
                || L005_TRACE_FNS.iter().any(|f| has_ident_then(line, f, '('));
            if !sink {
                continue;
            }
            let raw = raw_lines.get(n).copied().unwrap_or("");
            if L005_SECRET_IDENTS
                .iter()
                .any(|t| !ident_occurrences(raw, t).is_empty())
            {
                out.push(Violation::basic("L005", file, n + 1, snippet(n)));
            }
        }
    }

    // L004 — every declassification carries an audit marker within the
    // three raw lines above the call (markers live in comments, so they
    // are searched on the raw source).
    if !in_list(file, &L004_EXEMPT_FILES) {
        for (n, line) in lines.iter().enumerate() {
            if has_ident_then(line, "declassified", '(') {
                let lo = n.saturating_sub(3);
                let marked = raw_lines[lo..=n.min(raw_lines.len().saturating_sub(1))]
                    .iter()
                    .any(|l| l.contains(DECLASSIFY_MARKER));
                if !marked {
                    out.push(Violation::basic("L004", file, n + 1, snippet(n)));
                }
            }
        }
    }

    out
}

// ---------------------------------------------------------------------------
// L006 — crash-point registry (cross-file)
// ---------------------------------------------------------------------------

/// The file that defines the crash-point registry. Its own internals and
/// unit tests are exempt from the call-site check.
pub const CRASHPOINT_REGISTRY: &str = "crates/sim/src/crashpoint.rs";

/// The call-site token L006 looks for (qualified, so the registry's own
/// bare `hit(...)` helpers don't count).
const L006_CALL: &str = "crashpoint::hit(";

/// Extracts the `ALL_POINTS` names, with their 1-based line numbers, from
/// the registry source. Empty if the registry marker is missing.
pub fn crash_point_names(source: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut in_registry = false;
    for (n, raw) in source.lines().enumerate() {
        if !in_registry {
            if raw.contains("pub const ALL_POINTS") {
                in_registry = true;
            }
            continue;
        }
        if raw.trim_start().starts_with("];") {
            break;
        }
        let mut rest = raw;
        while let Some(open) = rest.find('"') {
            let tail = &rest[open + 1..];
            match tail.find('"') {
                Some(close) => {
                    out.push((tail[..close].to_string(), n + 1));
                    rest = &tail[close + 1..];
                }
                None => break,
            }
        }
    }
    out
}

/// L006 — the registry has no duplicate names, and every
/// `crashpoint::hit("...")` call site outside the registry names a
/// registered point with a string literal on the same line. Cross-file by
/// nature: takes the whole workspace as `(repo-relative path, source)`
/// pairs.
pub fn lint_crash_points(sources: &[(String, String)]) -> Vec<Violation> {
    let mut out = Vec::new();
    let registry: Vec<(String, usize)> = sources
        .iter()
        .find(|(f, _)| f == CRASHPOINT_REGISTRY)
        .map(|(_, s)| crash_point_names(s))
        .unwrap_or_default();

    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for (name, line) in &registry {
        if seen.insert(name.as_str(), *line).is_some() {
            out.push(Violation::basic(
                "L006",
                CRASHPOINT_REGISTRY,
                *line,
                format!("duplicate crash point {name:?} in ALL_POINTS"),
            ));
        }
    }
    let names: std::collections::BTreeSet<&str> =
        registry.iter().map(|(n, _)| n.as_str()).collect();

    for (file, source) in sources {
        if file == CRASHPOINT_REGISTRY {
            continue;
        }
        let scrubbed = scrub(source);
        for (n, (line, raw)) in scrubbed.lines().zip(source.lines()).enumerate() {
            // The sink is detected on the scrubbed line (never inside a
            // comment or string); the argument is read from the raw line,
            // where the literal's contents survive.
            if !line.contains(L006_CALL) {
                continue;
            }
            let mut rest = raw;
            while let Some(pos) = rest.find(L006_CALL) {
                let arg = rest[pos + L006_CALL.len()..].trim_start();
                let registered = arg
                    .strip_prefix('"')
                    .and_then(|a| a.find('"').map(|close| &a[..close]))
                    .is_some_and(|name| names.contains(name));
                if !registered {
                    out.push(Violation::basic("L006", file, n + 1, {
                        let mut s = raw.trim().to_string();
                        if s.len() > 120 {
                            s.truncate(117);
                            s.push_str("...");
                        }
                        s
                    }));
                }
                rest = &rest[pos + L006_CALL.len()..];
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L007–L010 — function-scope concurrency analysis (cross-file for L009)
// ---------------------------------------------------------------------------

/// Runs the concurrency analyzer (L007/L008/L010 per file, L009 over the
/// merged lock-order graph) with an explicit registry and rule set.
/// Only files inside the analyzer scope passed in `files` are examined;
/// callers filter scope (production: [`registry::in_scope`]).
pub fn lint_concurrency_with(
    files: &[(String, String)],
    specs: &[registry::LockSpec],
    rules: &[&str],
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut edges = Vec::new();
    for (file, source) in files {
        let fa = analyzer::analyze_file_with(file, source, specs, rules);
        out.extend(fa.violations);
        edges.extend(fa.edges);
    }
    if rules.contains(&"L009") {
        out.extend(analyzer::lock_graph_violations(&edges));
    }
    out
}

/// Production entry point: all four concurrency rules over the files in
/// [`registry::ANALYZER_SCOPE_PREFIXES`], using [`registry::LOCK_REGISTRY`].
pub fn lint_concurrency(files: &[(String, String)]) -> Vec<Violation> {
    let scoped: Vec<(String, String)> = files
        .iter()
        .filter(|(f, _)| registry::in_scope(f))
        .cloned()
        .collect();
    lint_concurrency_with(
        &scoped,
        registry::LOCK_REGISTRY,
        &["L007", "L008", "L009", "L010"],
    )
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// Collects the `.rs` files the lint covers: everything under `crates/`
/// and `tests/`, minus build output and this crate itself (its test
/// fixtures deliberately contain violations).
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["crates", "tests", "benches"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name == "lint" {
                continue;
            }
            walk(&path, files)?;
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Runs every rule over the workspace at `root`. Returns violations plus
/// the number of files scanned.
pub fn run(root: &Path) -> std::io::Result<(Vec<Violation>, usize)> {
    let files = collect_files(root)?;
    let scanned = files.len();
    let mut sources = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let source = std::fs::read_to_string(&path)?;
        sources.push((rel, source));
    }
    let mut all = Vec::new();
    for (rel, source) in &sources {
        all.extend(lint_source(rel, source));
    }
    all.extend(lint_crash_points(&sources));
    all.extend(lint_concurrency(&sources));
    Ok((all, scanned))
}

// ---------------------------------------------------------------------------
// Baseline ratchet
// ---------------------------------------------------------------------------

/// Violation counts per rule per file, as observed on the working tree.
pub type Counts = BTreeMap<String, BTreeMap<String, usize>>;

/// One committed baseline entry: an accepted violation count, plus — for
/// L007–L010 — the mandatory justification for carrying the debt.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Accepted violation count.
    pub count: usize,
    /// Why this debt is acceptable (required for L007–L010).
    pub justification: Option<String>,
}

/// The committed ratchet state: rule → file → entry.
pub type Baseline = BTreeMap<String, BTreeMap<String, BaselineEntry>>;

/// Aggregates violations into ratchet counts.
pub fn to_counts(violations: &[Violation]) -> Counts {
    let mut b: Counts = BTreeMap::new();
    for v in violations {
        *b.entry(v.rule.to_string())
            .or_default()
            .entry(v.file.clone())
            .or_insert(0) += 1;
    }
    b
}

/// Builds a baseline from current counts, carrying forward justifications
/// from `old` where the (rule, file) key persists.
pub fn counts_to_baseline(counts: &Counts, old: &Baseline) -> Baseline {
    let mut out: Baseline = BTreeMap::new();
    for (rule, files) in counts {
        for (file, &count) in files {
            let justification = old
                .get(rule)
                .and_then(|m| m.get(file))
                .and_then(|e| e.justification.clone());
            out.entry(rule.clone()).or_default().insert(
                file.clone(),
                BaselineEntry {
                    count,
                    justification,
                },
            );
        }
    }
    out
}

/// One ratchet discrepancy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RatchetEntry {
    /// Rule id.
    pub rule: String,
    /// Repo-relative file.
    pub file: String,
    /// Count in the working tree.
    pub current: usize,
    /// Count recorded in the baseline.
    pub baseline: usize,
}

/// Result of diffing current counts against the committed baseline.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Ratchet {
    /// current > baseline: new violations; the build fails.
    pub regressions: Vec<RatchetEntry>,
    /// current < baseline: the baseline is stale and must be shrunk.
    pub stale: Vec<RatchetEntry>,
    /// (rule, file) baseline entries for L007–L010 that lack the
    /// mandatory justification string; the build fails.
    pub unjustified: Vec<(String, String)>,
}

impl Ratchet {
    /// True when the working tree matches the baseline exactly and all
    /// new-rule debt is justified.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty() && self.stale.is_empty() && self.unjustified.is_empty()
    }
}

/// Diffs `current` against `baseline` over the union of (rule, file) keys,
/// and flags L007–L010 baseline entries that carry no justification.
pub fn ratchet(current: &Counts, baseline: &Baseline) -> Ratchet {
    let mut keys: Vec<(String, String)> = Vec::new();
    for (rule, files) in current {
        for file in files.keys() {
            let k = (rule.clone(), file.clone());
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
    }
    for (rule, files) in baseline {
        for file in files.keys() {
            let k = (rule.clone(), file.clone());
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
    }
    keys.sort();
    let mut out = Ratchet::default();
    for (rule, file) in keys {
        let cur = current
            .get(&rule)
            .and_then(|m| m.get(&file))
            .copied()
            .unwrap_or(0);
        let base_entry = baseline.get(&rule).and_then(|m| m.get(&file));
        let base = base_entry.map(|e| e.count).unwrap_or(0);
        let entry = RatchetEntry {
            rule: rule.clone(),
            file: file.clone(),
            current: cur,
            baseline: base,
        };
        if cur > base {
            out.regressions.push(entry);
        } else if cur < base {
            out.stale.push(entry);
        }
        if JUSTIFICATION_REQUIRED.contains(&rule.as_str()) {
            if let Some(e) = base_entry {
                if e.justification
                    .as_deref()
                    .map(str::trim)
                    .unwrap_or("")
                    .is_empty()
                {
                    out.unjustified.push((rule.clone(), file.clone()));
                }
            }
        }
    }
    out
}

/// Escapes a string for embedding in the baseline JSON.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// Renders the baseline as stable, pretty-printed JSON (sorted keys,
/// trailing newline), so updates produce minimal diffs. Entries without a
/// justification render as a bare count; justified entries render as
/// `{"count": N, "justification": "..."}`.
pub fn render_baseline(b: &Baseline) -> String {
    let mut s = String::from("{\n");
    let mut first_rule = true;
    for (rule, files) in b {
        if files.is_empty() {
            continue;
        }
        if !first_rule {
            s.push_str(",\n");
        }
        first_rule = false;
        s.push_str(&format!("  \"{rule}\": {{\n"));
        let mut first_file = true;
        for (file, entry) in files {
            if !first_file {
                s.push_str(",\n");
            }
            first_file = false;
            match &entry.justification {
                Some(j) => s.push_str(&format!(
                    "    \"{file}\": {{\"count\": {}, \"justification\": \"{}\"}}",
                    entry.count,
                    json_escape(j)
                )),
                None => s.push_str(&format!("    \"{file}\": {}", entry.count)),
            }
        }
        s.push_str("\n  }");
    }
    s.push_str("\n}\n");
    s
}

/// Renders violations plus ratchet status as machine-readable JSON for
/// the CLI's `--format json` (consumed by the CI annotation artifact).
pub fn render_diagnostics_json(violations: &[Violation], scanned: usize, r: &Ratchet) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"scanned\": {scanned},\n"));
    s.push_str(&format!("  \"clean\": {},\n", r.is_clean()));
    s.push_str("  \"diagnostics\": [");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {");
        s.push_str(&format!("\"rule\": \"{}\", ", v.rule));
        s.push_str(&format!("\"file\": \"{}\", ", json_escape(&v.file)));
        s.push_str(&format!("\"line\": {}, ", v.line));
        match &v.lock {
            Some(l) => s.push_str(&format!("\"lock\": \"{}\", ", json_escape(l))),
            None => s.push_str("\"lock\": null, "),
        }
        s.push_str(&format!("\"detail\": \"{}\"}}", json_escape(&v.detail)));
    }
    if !violations.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n");
    let entries = |list: &[RatchetEntry]| -> String {
        let mut out = String::from("[");
        for (i, e) in list.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"current\": {}, \"baseline\": {}}}",
                e.rule,
                json_escape(&e.file),
                e.current,
                e.baseline
            ));
        }
        if !list.is_empty() {
            out.push_str("\n  ");
        }
        out.push(']');
        out
    };
    s.push_str(&format!(
        "  \"regressions\": {},\n",
        entries(&r.regressions)
    ));
    s.push_str(&format!("  \"stale\": {},\n", entries(&r.stale)));
    s.push_str("  \"unjustified\": [");
    for (i, (rule, file)) in r.unjustified.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\"}}",
            rule,
            json_escape(file)
        ));
    }
    if !r.unjustified.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

/// Parses the baseline JSON: an object of objects whose values are either
/// a bare count (`3`) or an entry object
/// (`{"count": 3, "justification": "..."}`). Hand-rolled so the crate
/// stays dependency-free; rejects anything outside that shape.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let mut p = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let mut out: Baseline = BTreeMap::new();
    p.expect(b'{')?;
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let rule = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            p.expect(b'{')?;
            let mut files = BTreeMap::new();
            p.skip_ws();
            if p.peek() == Some(b'}') {
                p.pos += 1;
            } else {
                loop {
                    p.skip_ws();
                    let file = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    p.skip_ws();
                    let entry = if p.peek() == Some(b'{') {
                        p.entry_object()?
                    } else {
                        BaselineEntry {
                            count: p.number()?,
                            justification: None,
                        }
                    };
                    files.insert(file, entry);
                    p.skip_ws();
                    match p.next() {
                        Some(b',') => continue,
                        Some(b'}') => break,
                        other => return Err(format!("expected ',' or '}}', got {other:?}")),
                    }
                }
            }
            out.insert(rule, files);
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing garbage after baseline object".to_string());
    }
    Ok(out)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self
            .peek()
            .map(|b| b == b' ' || b == b'\n' || b == b'\r' || b == b'\t')
            .unwrap_or(false)
        {
            self.pos += 1;
        }
    }
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }
    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }
    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected {:?}, got {other:?}", want as char)),
        }
    }
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.next() {
                Some(b'"') => break,
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    other => return Err(format!("unsupported escape {other:?}")),
                },
                Some(b) => out.push(b),
                None => return Err("unterminated string".to_string()),
            }
        }
        String::from_utf8(out).map_err(|e| e.to_string())
    }
    /// Parses `{"count": N, "justification": "..."}` (either key
    /// optional order; `count` mandatory).
    fn entry_object(&mut self) -> Result<BaselineEntry, String> {
        self.expect(b'{')?;
        let mut count: Option<usize> = None;
        let mut justification: Option<String> = None;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                match key.as_str() {
                    "count" => count = Some(self.number()?),
                    "justification" => justification = Some(self.string()?),
                    other => return Err(format!("unknown baseline entry key {other:?}")),
                }
                self.skip_ws();
                match self.next() {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    other => return Err(format!("expected ',' or '}}', got {other:?}")),
                }
            }
        }
        Ok(BaselineEntry {
            count: count.ok_or("baseline entry object missing \"count\"")?,
            justification,
        })
    }

    fn number(&mut self) -> Result<usize, String> {
        let start = self.pos;
        while self.peek().map(|b| b.is_ascii_digit()).unwrap_or(false) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err("expected a number".to_string());
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse()
            .map_err(|e: std::num::ParseIntError| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_blanks_comments_and_strings() {
        let src = "let x = \"aead_open\"; // aead_open here\nlet y = 1; /* unwrap() */\n";
        let s = scrub(src);
        assert!(!s.contains("aead_open"));
        assert!(!s.contains("unwrap"));
        assert_eq!(s.lines().count(), src.lines().count());
    }

    #[test]
    fn scrub_handles_nested_block_comments_and_raw_strings() {
        let src =
            "/* a /* nested unwrap() */ still comment */ code();\nlet r = r#\"panic!(\"x\")\"#;\n";
        let s = scrub(src);
        assert!(!s.contains("unwrap"));
        assert!(!s.contains("panic"));
        assert!(s.contains("code()"));
    }

    #[test]
    fn scrub_distinguishes_char_literal_from_lifetime() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }\nlet q = '\\'';\nlet b = '\"'; let s = \"unwrap()\";\n";
        let s = scrub(src);
        assert!(s.contains("<'a>"), "lifetime must survive: {s}");
        assert!(
            !s.contains("unwrap"),
            "string after char literal must be scrubbed: {s}"
        );
    }

    #[test]
    fn l001_flags_crypto_outside_trusted_modules() {
        let v = lint_source(
            "crates/core/src/node.rs",
            "let x = aead_open(&k, &n, b\"\", ct);\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "L001");
        // Same token inside the crypto crate is fine.
        assert!(
            lint_source("crates/crypto/src/lib.rs", "aead_open(&k, &n, aad, ct);\n").is_empty()
        );
        // And inside the enclave-resident store files.
        assert!(lint_source(
            "crates/store/src/memtable.rs",
            "aead_seal(&k, &n, aad, plain);\n"
        )
        .is_empty());
    }

    #[test]
    fn l002_catches_deliberate_unwrap_in_node() {
        // The acceptance check from the issue: a deliberate unwrap() in
        // core::node must be caught.
        let v = lint_source(
            "crates/core/src/node.rs",
            "fn commit() { let d = decision.unwrap(); }\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "L002");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn l002_catches_expect_and_panic_but_not_err_variants() {
        let src = "a.expect(\"boom\");\npanic!(\"no\");\nb.unwrap_err();\nc.expect_err(\"ok\");\nd.unwrap ();\n";
        let v = lint_source("crates/core/src/clog.rs", src);
        let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![1, 2, 5], "violations: {v:?}");
        // Outside the 2PC scope the same code is allowed.
        assert!(lint_source("crates/workload/src/lib.rs", src).is_empty());
    }

    #[test]
    fn l003_flags_wall_clock_outside_stats() {
        let src = "let t = std::time::Instant::now();\nlet r = rand::thread_rng();\n";
        let v = lint_source("crates/sim/src/runtime.rs", src);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule == "L003"));
        assert!(lint_source("crates/sim/src/stats.rs", src).is_empty());
    }

    #[test]
    fn l004_requires_audit_marker_within_three_lines() {
        let bad = "let h = HostBytes::declassified(v, \"reason\");\n";
        let v = lint_source("crates/net/src/fabric.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "L004");

        let good = "// LINT-DECLASSIFY: test fixture\n//\n//\nlet h = HostBytes::declassified(v, \"reason\");\n";
        assert!(lint_source("crates/net/src/fabric.rs", good).is_empty());

        let too_far = "// LINT-DECLASSIFY: too far away\n//\n//\n//\nlet h = HostBytes::declassified(v, \"r\");\n";
        assert_eq!(lint_source("crates/net/src/fabric.rs", too_far).len(), 1);

        // The constructor's definition site is exempt.
        assert!(lint_source("crates/tee/src/hostbytes.rs", bad).is_empty());
    }

    #[test]
    fn l005_flags_secret_interpolation_in_trusted_regions() {
        // Canary: a format string interpolating secret material inside a
        // trusted region is a declassification side channel.
        let bad = "let msg = format!(\"v={plaintext:?}\");\n";
        let v = lint_source("crates/store/src/log.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "L005");

        // Argument-position interpolation is caught too.
        let arg = "println!(\"k = {}\", user_key);\n";
        assert_eq!(lint_source("crates/core/src/node.rs", arg).len(), 1);

        // Trace payload constructors are sinks as well.
        let tr = "treaty_sim::obs::span_with(\"g\", &[(\"k\", user_key)]);\n";
        assert_eq!(lint_source("crates/core/src/node.rs", tr).len(), 1);

        // Benign interpolation in a trusted region is fine…
        let good = "let msg = format!(\"gen {gen} at {off}\");\n";
        assert!(lint_source("crates/store/src/log.rs", good).is_empty());
        // …naming a secret without a sink is fine…
        let no_sink = "let n = plaintext.len();\n";
        assert!(lint_source("crates/store/src/log.rs", no_sink).is_empty());
        // …and untrusted regions are out of scope.
        assert!(lint_source("crates/bench/src/lib.rs", bad).is_empty());
        // Ident boundaries: `explain` must not match `plain`.
        let boundary = "let msg = format!(\"see {explain}\");\n";
        assert!(lint_source("crates/store/src/log.rs", boundary).is_empty());
    }

    #[test]
    fn l006_crash_points_unique_and_registered() {
        let registry = concat!(
            "pub const ALL_POINTS: &[&str] = &[\n",
            "    \"coord.a\",\n",
            "    \"part.b\",\n",
            "];\n",
        );
        let reg = |src: &str| (CRASHPOINT_REGISTRY.to_string(), src.to_string());
        let site = |src: &str| ("crates/core/src/node.rs".to_string(), src.to_string());

        // Registered literal call sites are clean.
        let ok = vec![
            reg(registry),
            site("treaty_sim::crashpoint::hit(\"coord.a\");\n"),
        ];
        assert!(lint_crash_points(&ok).is_empty());

        // A typo'd point name is a violation.
        let typo = vec![
            reg(registry),
            site("treaty_sim::crashpoint::hit(\"coord.typo\");\n"),
        ];
        let v = lint_crash_points(&typo);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "L006");
        assert_eq!(v[0].file, "crates/core/src/node.rs");

        // A non-literal argument can't be checked, so it is a violation.
        let dynamic = vec![
            reg(registry),
            site("treaty_sim::crashpoint::hit(point_name);\n"),
        ];
        assert_eq!(lint_crash_points(&dynamic).len(), 1);

        // A duplicate registry entry is a violation on its own.
        let dup_registry = concat!(
            "pub const ALL_POINTS: &[&str] = &[\n",
            "    \"coord.a\",\n",
            "    \"coord.a\",\n",
            "];\n",
        );
        let v = lint_crash_points(&[reg(dup_registry)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].file, CRASHPOINT_REGISTRY);
        assert_eq!(v[0].line, 3);

        // Mentions inside comments or strings are not call sites.
        let commented = vec![
            reg(registry),
            site("// treaty_sim::crashpoint::hit(\"coord.typo\")\nlet s = \"crashpoint::hit(\\\"nope\\\")\";\n"),
        ];
        assert!(lint_crash_points(&commented).is_empty());
    }

    #[test]
    fn baseline_roundtrip_and_ratchet() {
        let violations = vec![
            Violation::basic("L002", "crates/store/src/log.rs", 1, "x".into()),
            Violation::basic("L002", "crates/store/src/log.rs", 2, "y".into()),
        ];
        let counts = to_counts(&violations);
        let baseline = counts_to_baseline(&counts, &Baseline::new());
        let text = render_baseline(&baseline);
        let parsed = parse_baseline(&text).unwrap();
        assert_eq!(parsed, baseline);

        // Identical counts: clean.
        assert!(ratchet(&counts, &parsed).is_clean());

        // One more violation: a regression.
        let mut more = violations.clone();
        more.push(Violation::basic(
            "L002",
            "crates/store/src/log.rs",
            3,
            "z".into(),
        ));
        let r = ratchet(&to_counts(&more), &parsed);
        assert_eq!(r.regressions.len(), 1);
        assert_eq!(r.regressions[0].current, 3);
        assert_eq!(r.regressions[0].baseline, 2);

        // One fewer: stale baseline (the ratchet must be tightened).
        let r = ratchet(&to_counts(&violations[..1]), &parsed);
        assert_eq!(r.stale.len(), 1);
        assert!(r.regressions.is_empty());
    }

    #[test]
    fn baseline_justifications_roundtrip_and_ratchet_rejects_missing() {
        // A justified L007 entry survives render → parse and is clean.
        let text = concat!(
            "{\n",
            "  \"L007\": {\n",
            "    \"crates/core/src/node.rs\": {\"count\": 1, ",
            "\"justification\": \"stats guard audited: drained before park\"}\n",
            "  }\n",
            "}\n",
        );
        let parsed = parse_baseline(text).unwrap();
        assert_eq!(parsed["L007"]["crates/core/src/node.rs"].count, 1);
        assert_eq!(render_baseline(&parsed), text);

        let mut counts = Counts::new();
        counts
            .entry("L007".into())
            .or_default()
            .insert("crates/core/src/node.rs".into(), 1);
        assert!(ratchet(&counts, &parsed).is_clean());

        // The same entry as a bare count is rejected: L007–L010 debt
        // must carry a justification.
        let bare = "{\n  \"L007\": {\n    \"crates/core/src/node.rs\": 1\n  }\n}\n";
        let parsed = parse_baseline(bare).unwrap();
        let r = ratchet(&counts, &parsed);
        assert!(!r.is_clean());
        assert_eq!(
            r.unjustified,
            vec![("L007".to_string(), "crates/core/src/node.rs".to_string())]
        );

        // Old rules never require a justification.
        let old = "{\n  \"L002\": {\n    \"crates/store/src/log.rs\": 2\n  }\n}\n";
        let parsed = parse_baseline(old).unwrap();
        let mut counts = Counts::new();
        counts
            .entry("L002".into())
            .or_default()
            .insert("crates/store/src/log.rs".into(), 2);
        assert!(ratchet(&counts, &parsed).is_clean());

        // counts_to_baseline carries justifications forward.
        let mut old_b = Baseline::new();
        old_b.entry("L008".into()).or_default().insert(
            "crates/store/src/engine.rs".into(),
            BaselineEntry {
                count: 3,
                justification: Some("audited".into()),
            },
        );
        let mut counts = Counts::new();
        counts
            .entry("L008".into())
            .or_default()
            .insert("crates/store/src/engine.rs".into(), 2);
        let b = counts_to_baseline(&counts, &old_b);
        let e = &b["L008"]["crates/store/src/engine.rs"];
        assert_eq!(e.count, 2);
        assert_eq!(e.justification.as_deref(), Some("audited"));
    }

    #[test]
    fn diagnostics_json_carries_rule_file_line_lock_detail() {
        let v = vec![Violation {
            rule: "L007",
            file: "crates/core/src/node.rs".into(),
            line: 42,
            snippet: "runtime::sleep(5);".into(),
            lock: Some("core.node.stats".into()),
            detail: "guard `s` crosses \"sleep\"".into(),
        }];
        let mut r = Ratchet::default();
        r.unjustified
            .push(("L008".to_string(), "crates/store/src/engine.rs".to_string()));
        let out = render_diagnostics_json(&v, 37, &r);
        assert!(out.contains("\"scanned\": 37"), "{out}");
        assert!(out.contains("\"clean\": false"), "{out}");
        assert!(out.contains("\"rule\": \"L007\""), "{out}");
        assert!(
            out.contains("\"file\": \"crates/core/src/node.rs\""),
            "{out}"
        );
        assert!(out.contains("\"line\": 42"), "{out}");
        assert!(out.contains("\"lock\": \"core.node.stats\""), "{out}");
        assert!(out.contains("crosses \\\"sleep\\\""), "{out}");
        assert!(out.contains("\"unjustified\""), "{out}");

        // No lock class renders as JSON null; an empty report is clean.
        let v = vec![Violation::basic("L002", "a.rs", 1, "x".into())];
        assert!(render_diagnostics_json(&v, 1, &Ratchet::default()).contains("\"lock\": null"));
        assert!(render_diagnostics_json(&[], 0, &Ratchet::default()).contains("\"clean\": true"));
    }

    #[test]
    fn empty_baseline_parses() {
        assert!(parse_baseline("{}\n").unwrap().is_empty());
        assert!(parse_baseline("{ }").unwrap().is_empty());
    }

    #[test]
    fn workspace_matches_committed_baseline() {
        // The CI gate, as a test: lint the real workspace and diff against
        // the committed ratchet. Fails on new violations AND on a stale
        // baseline, so the recorded counts can only shrink.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .expect("crates/lint lives two levels below the workspace root")
            .to_path_buf();
        let (violations, scanned) = run(&root).expect("workspace scan");
        assert!(scanned > 0, "no files scanned — wrong root?");
        let text = std::fs::read_to_string(root.join("lint-baseline.json"))
            .expect("committed lint-baseline.json");
        let baseline = parse_baseline(&text).expect("baseline parses");
        let r = ratchet(&to_counts(&violations), &baseline);
        assert!(
            r.is_clean(),
            "lint ratchet violated.\nregressions (fix them): {:#?}\nstale (run treaty-lint --update-baseline): {:#?}\nunjustified L007-L010 baseline entries (add a justification string): {:#?}",
            r.regressions,
            r.stale,
            r.unjustified
        );
    }
}
