#![forbid(unsafe_code)]
//! CLI for the workspace invariant analyzer.
//!
//! ```text
//! cargo run --release -p bst-analysis -- check [--root <dir>]
//! cargo run --release -p bst-analysis -- list
//! ```
//!
//! `check` exits 0 on a clean tree and 1 with one `CODE file:line
//! message` diagnostic per finding otherwise; `list` prints the lint
//! table. Without `--root`, the workspace root is found by walking up
//! from the current directory to the first `Cargo.toml` declaring
//! `[workspace]`.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use bst_analysis::{analyze, Config};

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("list") => {
            print!("{}", lint_table());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: bst-analysis check [--root <dir>] | bst-analysis list");
            ExitCode::from(2)
        }
    }
}

fn check(args: &[String]) -> ExitCode {
    let root = match parse_root(args) {
        Ok(Some(root)) => root,
        Ok(None) => match find_workspace_root() {
            Some(root) => root,
            None => {
                eprintln!("bst-analysis: no workspace root found above the current directory (pass --root)");
                return ExitCode::from(2);
            }
        },
        Err(msg) => {
            eprintln!("bst-analysis: {msg}");
            return ExitCode::from(2);
        }
    };

    let cfg = Config::workspace(root.clone());
    match analyze(&cfg) {
        Ok(findings) if findings.is_empty() => {
            println!("bst-analysis: clean ({})", root.display());
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for d in &findings {
                println!("{d}");
            }
            println!("bst-analysis: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bst-analysis: analysis failed: {e}");
            ExitCode::from(2)
        }
    }
}

fn parse_root(args: &[String]) -> Result<Option<PathBuf>, String> {
    match args {
        [] => Ok(None),
        [flag, root] if flag == "--root" => Ok(Some(PathBuf::from(root))),
        _ => Err(format!("unrecognized arguments: {args:?}")),
    }
}

/// Walks up from the current directory to the first `Cargo.toml` that
/// declares a `[workspace]` section.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn lint_table() -> String {
    [
        "L001  panic-freedom: no unwrap/expect/panic!/unreachable!/todo!/unimplemented!",
        "      in non-test code of the serving-path crates (bloom/core/shard/server)",
        "L002  codec discipline: little-endian only; decode-path allocations bounded",
        "      (crates/core/src/persistence.rs, crates/bloom/src/codec.rs,",
        "       crates/server/src/{frame,protocol}.rs)",
        "L003  lock discipline: parking_lot only in library crates; acquisitions follow",
        "      the manifest: store set-lock -> tree lock -> query state -> handle pool",
        "L004  protocol drift: every opcode decoded + handled + documented in DESIGN.md,",
        "      every BstError variant mapped to WireError, PROTO_VERSION agrees",
        "L005  unsafe hygiene: #![forbid(unsafe_code)] on every first-party crate root,",
        "      no `unsafe` tokens in first-party code",
        "W001  malformed waiver (missing justification or unknown code)",
        "",
        "waiver syntax:  // bst-lint: allow(L001) — <justification>",
        "  (covers its own line and the next; the justification is mandatory)",
    ]
    .join("\n")
        + "\n"
}
