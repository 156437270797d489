//! Every `compile_fail` doctest in the workspace names the error code it
//! expects, and fails with that code. Stable rustdoc only checks that such
//! a snippet does not compile, whatever the reason, so a snippet that
//! broke for an unrelated reason (a renamed path, a typo in the snippet
//! itself) would still pass there. This test compiles each snippet with
//! `rustc` against the rlibs it was itself built with and reads the code.

use std::path::{Path, PathBuf};
use std::process::Command;

/// One fenced `compile_fail` block of a doc comment.
struct Snippet {
    /// `path:line` of the opening fence.
    at: String,
    /// The crate the doc comment belongs to, as a Rust identifier.
    krate: String,
    /// The `Exxxx` after `compile_fail,`, if any.
    code: Option<String>,
    /// The snippet's lines, hidden (`# `) lines included.
    body: String,
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `compile_fail` block under `crates/*/src`.
fn snippets() -> Vec<Snippet> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    crates.sort();
    let mut found = Vec::new();
    for dir in crates {
        let krate = format!("treaty_{}", dir.file_name().unwrap().to_string_lossy());
        let mut files = Vec::new();
        rust_files(&dir.join("src"), &mut files);
        for file in files {
            let text = std::fs::read_to_string(&file).unwrap();
            let mut open: Option<Snippet> = None;
            for (i, line) in text.lines().enumerate() {
                let trimmed = line.trim_start();
                let Some(doc) = trimmed
                    .strip_prefix("///")
                    .or_else(|| trimmed.strip_prefix("//!"))
                else {
                    continue;
                };
                let doc = doc.strip_prefix(' ').unwrap_or(doc);
                match open.as_mut() {
                    None => {
                        if let Some(attrs) = doc.trim().strip_prefix("```compile_fail") {
                            open = Some(Snippet {
                                at: format!(
                                    "{}:{}",
                                    file.strip_prefix(root).unwrap().display(),
                                    i + 1
                                ),
                                krate: krate.clone(),
                                code: attrs.strip_prefix(',').map(str::to_string),
                                body: String::new(),
                            });
                        }
                    }
                    Some(_) if doc.trim() == "```" => found.extend(open.take()),
                    Some(s) => {
                        let shown = match doc {
                            "#" => "",
                            d => d.strip_prefix("# ").unwrap_or(d),
                        };
                        s.body.push_str(shown);
                        s.body.push('\n');
                    }
                }
            }
        }
    }
    found
}

/// The directory the test binary and the rlibs it links sit in.
fn deps_dir() -> PathBuf {
    std::env::current_exe()
        .unwrap()
        .parent()
        .unwrap()
        .to_path_buf()
}

/// The most recently built rlib of `krate` there.
fn rlib(deps: &Path, krate: &str) -> PathBuf {
    let prefix = format!("lib{krate}-");
    std::fs::read_dir(deps)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with(&prefix) && name.ends_with(".rlib")
        })
        .max_by_key(|p| std::fs::metadata(p).unwrap().modified().unwrap())
        .unwrap_or_else(|| panic!("no {prefix}*.rlib in {}", deps.display()))
}

/// Compiles `s` the way rustdoc does (wrapped in `fn main`, its crate
/// linked) and returns whether it compiled and what rustc printed.
fn compile(s: &Snippet, scratch: &Path) -> (bool, String) {
    let deps = deps_dir();
    let src = scratch.join("snippet.rs");
    std::fs::write(
        &src,
        format!("#![allow(unused)]\nfn main() {{\n{}}}\n", s.body),
    )
    .unwrap();
    let rustc = std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    let out = Command::new(rustc)
        .args([
            "--edition",
            "2021",
            "--crate-type",
            "bin",
            "--emit",
            "metadata",
        ])
        .arg("-L")
        .arg(format!("dependency={}", deps.display()))
        .arg("--extern")
        .arg(format!("{}={}", s.krate, rlib(&deps, &s.krate).display()))
        .arg("-o")
        .arg(scratch.join("snippet.rmeta"))
        .arg(&src)
        .output()
        .unwrap();
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn every_compile_fail_doctest_names_its_code() {
    let all = snippets();
    assert!(!all.is_empty(), "no compile_fail doctest found");
    let bare: Vec<&str> = all
        .iter()
        .filter(|s| s.code.is_none())
        .map(|s| s.at.as_str())
        .collect();
    assert!(
        bare.is_empty(),
        "compile_fail without an error code: {bare:?}"
    );
}

#[test]
fn every_compile_fail_doctest_fails_with_its_code() {
    let scratch = tempfile::tempdir().unwrap();
    let mut wrong = Vec::new();
    for s in snippets() {
        let Some(code) = &s.code else { continue };
        let (compiled, stderr) = compile(&s, scratch.path());
        if compiled || !stderr.contains(&format!("error[{code}]")) {
            wrong.push(format!("{} expects {code}:\n{stderr}", s.at));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
