//! treaty-lint: the enclave-boundary and fiber-concurrency rules that
//! neither rustc nor clippy can check.
//!
//! The `HostBytes` newtype (crates/tee) makes "plaintext into host memory" a
//! compile error, and the compiler checks the rest of what it can: panics
//! in node crates are clippy denies at each crate root, wall-clock reads
//! are `disallowed-methods` in `clippy.toml`, and crash points are an enum.
//! Two boundary rules survive the type system, so this crate scans the
//! workspace source directly:
//!
//! * **L001 — enclave-only crypto.** Raw AEAD/HMAC primitives
//!   (`aead_open`, `aead_seal`, `hmac_sign`, `hmac_verify`) may only be
//!   named inside the trusted modules (crypto, tee, and the three store
//!   files that run inside the enclave). Everything else must go through
//!   the typed wrappers, otherwise key material leaks into code that the
//!   §III adversary can interpose on.
//! * **L005 — no secrets in observability payloads.** Inside the trusted
//!   regions (core, store, tee, crypto), no `format!`-family macro and no
//!   trace-event payload (`span_with`, `instant`, …) may name a secret-ish
//!   identifier (`plaintext`, `user_key`, `key_material`, …): traces and
//!   log strings leave the enclave, so interpolation would be an
//!   unaudited declassification side channel. The raw line is searched,
//!   not the scrubbed one, because interpolations live *inside* string
//!   literals (`"{plaintext}"`).
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
//!   exceptions carry `// LINT-CRASH-SAFE: <reason>`.
//! * **L009 — no lock-order cycles.** Intra-function "acquire A while
//!   holding B" edges, keyed by [`registry::LOCK_REGISTRY`] classes, are
//!   merged into a global graph; any cycle is reported in full with a
//!   file:line witness per edge.
//! * **L010 — every `.lock()` / `.read()` / `.write()` site resolves
//!   through the registry** in
//!   crates/{core,store,sim,net}, so L009's graph can never silently
//!   miss an edge.
//!
//! Any violation fails the run; there is no stored allowance.
//!
//! The crate has no dependencies by design — it is a hand-rolled lexer,
//! not a parser, which is exactly enough for token-level rules and keeps
//! the CI gate buildable with a bare toolchain.

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
    /// Rule id, e.g. `"L001"`.
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
pub const RULES: [(&str, &str); 6] = [
    ("L001", "enclave-only crypto primitives"),
    ("L005", "no secrets in format/trace payloads"),
    ("L007", "no guard live across a yield point"),
    ("L008", "no guard live across crashpoint::hit"),
    ("L009", "no lock-order cycles"),
    ("L010", "every .lock() resolves through LOCK_REGISTRY"),
];

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
    all.extend(lint_concurrency(&sources));
    Ok((all, scanned))
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
    fn workspace_is_clean() {
        // The CI gate, as a test: lint the real workspace; any violation
        // fails.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .expect("crates/lint lives two levels below the workspace root")
            .to_path_buf();
        let (violations, scanned) = run(&root).expect("workspace scan");
        assert!(scanned > 0, "no files scanned — wrong root?");
        assert!(
            violations.is_empty(),
            "treaty-lint violations:\n{}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
