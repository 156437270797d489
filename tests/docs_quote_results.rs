//! The documents state the tree as it is. Every block of EXPERIMENTS.md
//! fenced as `results <file>` is a verbatim quote of `results/<file>`, and
//! every results file is quoted at least once, so a change that moves a
//! result and leaves the document stale fails here. Every `crates/…`,
//! `tests/…`, `examples/…` and `results/….txt` path that DESIGN.md,
//! EXPERIMENTS.md, README.md or results/README.md names exists. A path written with a glob or
//! a brace list is checked up to the first `*` or `{`; an output a command
//! writes where its caller says (`--trace-out TRACE`) is written as a
//! placeholder, not as a path.

use std::collections::BTreeSet;
use std::path::PathBuf;

const DOCS: [&str; 4] = [
    "DESIGN.md",
    "EXPERIMENTS.md",
    "README.md",
    "results/README.md",
];
const ROOTS: [&str; 4] = ["crates/", "tests/", "examples/", "results/"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// One `results <file>` block: the quoted file, the line its fence opens
/// on, and its text (each line followed by a newline).
struct Quote {
    file: String,
    line: usize,
    text: String,
}

fn quotes(doc: &str) -> Vec<Quote> {
    let mut out = Vec::new();
    let mut open: Option<Quote> = None;
    for (i, line) in doc.lines().enumerate() {
        match &mut open {
            Some(_) if line.trim_end() == "```" => out.extend(open.take()),
            Some(q) => {
                q.text.push_str(line);
                q.text.push('\n');
            }
            None => {
                if let Some(file) = line.strip_prefix("```results ") {
                    open = Some(Quote {
                        file: file.trim().to_string(),
                        line: i + 1,
                        text: String::new(),
                    });
                }
            }
        }
    }
    assert!(
        open.is_none(),
        "EXPERIMENTS.md: a results block is never closed"
    );
    out
}

/// The first line of `quote` that `file` does not hold, for the message.
fn first_stray_line<'a>(quote: &'a str, file: &str) -> &'a str {
    quote
        .lines()
        .find(|l| !file.lines().any(|f| f == *l))
        .unwrap_or("(every line is there, in another order)")
}

#[test]
fn every_results_block_is_a_verbatim_quote_and_every_results_file_is_quoted() {
    let doc = read("EXPERIMENTS.md");
    let mut stale = Vec::new();
    let mut quoted = BTreeSet::new();
    for q in quotes(&doc) {
        let Ok(file) = std::fs::read_to_string(root().join("results").join(&q.file)) else {
            stale.push(format!(
                "EXPERIMENTS.md:{}: quotes results/{}, which does not exist",
                q.line, q.file
            ));
            continue;
        };
        if q.text.is_empty() || !file.contains(&q.text) {
            stale.push(format!(
                "EXPERIMENTS.md:{}: the block is not a verbatim quote of results/{}; \
                 first line it does not hold:\n    {}",
                q.line,
                q.file,
                first_stray_line(&q.text, &file)
            ));
        }
        quoted.insert(q.file);
    }
    let mut files: Vec<String> = std::fs::read_dir(root().join("results"))
        .expect("results/ lists")
        .map(|e| {
            e.expect("a results entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.ends_with(".txt"))
        .collect();
    files.sort();
    for name in files.iter().filter(|name| !quoted.contains(*name)) {
        stale.push(format!("EXPERIMENTS.md quotes no line of results/{name}"));
    }
    assert!(!files.is_empty(), "results/ holds no .txt file");
    assert!(
        stale.is_empty(),
        "the documents are stale:\n{}",
        stale.join("\n")
    );
}

fn is_path_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | '/')
}

/// Every path `text` names under one of [`ROOTS`], with its line. A path
/// starts where no path character precedes it, so `benchmark/tests/x.rs`
/// names no `tests/` path; trailing sentence punctuation is dropped.
fn named_paths(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let chars: Vec<(usize, char)> = line.char_indices().collect();
        for (k, &(at, _)) in chars.iter().enumerate() {
            if k > 0 && is_path_char(chars[k - 1].1) {
                continue;
            }
            let rest = &line[at..];
            if !ROOTS.iter().any(|r| rest.starts_with(r)) {
                continue;
            }
            let end = rest.find(|c| !is_path_char(c)).unwrap_or(rest.len());
            let path = rest[..end].trim_end_matches('.');
            if path.starts_with("results/") && !path.ends_with(".txt") {
                continue;
            }
            out.push((i + 1, path.to_string()));
        }
    }
    out
}

#[test]
fn every_path_the_docs_name_exists() {
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        for (line, path) in named_paths(&read(doc)) {
            checked += 1;
            if !root().join(&path).exists() {
                missing.push(format!("{doc}:{line}: {path} does not exist"));
            }
        }
    }
    assert!(checked > 0, "the documents name no path");
    assert!(
        missing.is_empty(),
        "the documents name paths the tree does not have:\n{}",
        missing.join("\n")
    );
}

#[test]
fn a_path_is_read_up_to_its_glob_and_not_inside_another_path() {
    let text = "see `crates/core/src/node.rs:42`, benchmark/tests/shims.rs and\n\
                crates/{core,store}/src, then results/fig4_2pc.txt. Not results/trace.json.";
    let paths: Vec<String> = named_paths(text).into_iter().map(|(_, p)| p).collect();
    assert_eq!(
        paths,
        ["crates/core/src/node.rs", "crates/", "results/fig4_2pc.txt"]
    );
}
