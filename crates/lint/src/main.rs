//! CLI driver for treaty-lint.
//!
//! ```text
//! treaty-lint [--root PATH]
//! ```
//!
//! Scans the workspace and prints every violation. Exit status:
//!
//! * `0` — no violations,
//! * `1` — one or more violations,
//! * `2` — usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use treaty_lint::{run, RULES};

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage("--root needs a path"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument: {other}")),
        }
    }

    let (violations, scanned) = match run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("treaty-lint: scanning {} failed: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    println!(
        "treaty-lint: scanned {scanned} files under {}",
        root.display()
    );
    for (rule, desc) in RULES {
        let total = violations.iter().filter(|v| v.rule == rule).count();
        println!("  {rule} ({desc}): {total} violation(s)");
    }
    if violations.is_empty() {
        println!("OK: no violations.");
        return ExitCode::SUCCESS;
    }
    eprintln!();
    for v in &violations {
        eprintln!("{v}");
    }
    ExitCode::from(1)
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("treaty-lint: {err}");
    }
    eprintln!("usage: treaty-lint [--root PATH]");
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
