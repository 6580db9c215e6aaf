//! The per-file lints: L001 panic-freedom, L002 codec discipline,
//! L003 lock discipline, L005 unsafe hygiene.
//!
//! All of them run over [`crate::scan::SourceFile`]s, so comments,
//! string literals and `#[cfg(test)]` items are already out of the
//! picture; each lint is a token/shape check with a precise `file:line`
//! anchor.

use crate::diag::{Code, Diagnostic};
use crate::scan::{fn_spans, SourceFile};

// ---------------------------------------------------------------------
// L001 — panic-freedom on the serving path
// ---------------------------------------------------------------------

/// Method-call tokens that panic. Matched exactly so `unwrap_or_else` /
/// `expect_err` never trip the lint.
const PANIC_METHODS: &[&str] = &[".unwrap()", ".expect("];
/// Panicking macros; matched with an identifier-boundary check so a
/// local `my_panic!` is not a finding.
const PANIC_MACROS: &[&str] = &["panic!", "unreachable!", "todo!", "unimplemented!"];

/// L001: serving-path crates must not contain panic paths outside test
/// code. Every hit is either rewritten infallibly, routed into a typed
/// `BstError`, or carries a justified waiver.
pub fn l001_panic_freedom(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for line in &file.lines {
        if line.in_test {
            continue;
        }
        for tok in PANIC_METHODS {
            if line.code.contains(tok) {
                out.push(finding(
                    Code::L001,
                    file,
                    line.number,
                    format!("panic path `{}` in serving-path crate (rewrite infallibly, return a typed BstError, or waive with justification)", tok.trim_end_matches('(')),
                ));
            }
        }
        for mac in PANIC_MACROS {
            if contains_macro(&line.code, mac) {
                out.push(finding(
                    Code::L001,
                    file,
                    line.number,
                    format!("panicking macro `{mac}` in serving-path crate"),
                ));
            }
        }
    }
    out
}

/// Is `mac` present as a standalone macro invocation (not a suffix of a
/// longer identifier)?
fn contains_macro(code: &str, mac: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(mac) {
        let at = from + pos;
        let prev_ok = at == 0 || {
            let p = bytes[at - 1];
            !(p.is_ascii_alphanumeric() || p == b'_')
        };
        if prev_ok {
            return true;
        }
        from = at + mac.len();
    }
    false
}

// ---------------------------------------------------------------------
// L002 — codec discipline
// ---------------------------------------------------------------------

/// Byte-order tokens that break LE determinism of snapshots and frames.
const BYTE_ORDER_BANNED: &[&str] = &[
    "to_be_bytes",
    "from_be_bytes",
    "to_ne_bytes",
    "from_ne_bytes",
];

/// Function-name prefixes that mark a *decode* path in a codec file
/// (the direction where a length field is attacker/corruption
/// controlled, so allocations must be bounded).
const DECODE_PREFIXES: &[&str] = &["get_", "read_", "decode", "from_"];

/// Guard shapes that bound an allocation: a `remaining()` comparison, a
/// declared-length cap, or an explicit length check earlier in the same
/// function; or an inline `.min(` right in the capacity expression.
fn is_guard_line(code: &str) -> bool {
    (code.contains("remaining()") && (code.contains('<') || code.contains('>')))
        || code.contains("> max")
        || code.contains(">= max")
        || (code.contains(".len()") && (code.contains('<') || code.contains('>')))
}

/// L002: in codec files, (a) big/native-endian conversions are banned
/// outright — every on-disk and on-wire integer is little-endian; and
/// (b) `Vec::with_capacity` / `vec![` in a decode-path function must be
/// bounded: either the capacity expression carries an inline `.min(`
/// cap, or an earlier line of the same function checked the available
/// input (`remaining() < …`-style) before the allocation.
pub fn l002_codec_discipline(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for line in &file.lines {
        if line.in_test {
            continue;
        }
        for tok in BYTE_ORDER_BANNED {
            if line.code.contains(tok) {
                out.push(finding(
                    Code::L002,
                    file,
                    line.number,
                    format!("`{tok}` in a codec file: snapshots and frames are little-endian by contract (use the `_le` form)"),
                ));
            }
        }
    }

    let spans = fn_spans(file);
    for span in &spans {
        if !DECODE_PREFIXES.iter().any(|p| span.name.starts_with(p)) {
            continue;
        }
        let body = || {
            file.lines[span.start - 1..span.end]
                .iter()
                .filter(|l| !l.in_test)
        };
        for line in body() {
            let alloc = line.code.contains("with_capacity(") || line.code.contains("vec![");
            if !alloc {
                continue;
            }
            if line.code.contains(".min(") {
                continue; // inline bound
            }
            let guarded = body()
                .take_while(|l| l.number < line.number)
                .any(|l| is_guard_line(&l.code));
            if !guarded {
                out.push(finding(
                    Code::L002,
                    file,
                    line.number,
                    format!(
                        "unguarded allocation on decode path `{}`: bound the capacity (inline `.min(..)` or a prior `remaining()` length check) before allocating from decoded input",
                        span.name
                    ),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// L003 — lock discipline
// ---------------------------------------------------------------------

/// One class in the lock-order manifest: a name and the textual
/// acquisition patterns that identify it.
#[derive(Debug)]
pub struct LockClass {
    pub name: &'static str,
    pub patterns: &'static [&'static str],
}

/// The workspace lock-order manifest, outermost first:
/// store set-lock → tree RwLock → query state → handle pool (a leaf).
///
/// A function body may acquire locks of ascending class only; seeing a
/// lower class after a higher one is a potential deadlock with any
/// other thread following the declared order, and is flagged. The
/// check is per-function and textual — acquisitions hidden behind
/// callees are out of scope (the manifest governs what a single
/// function visibly nests).
pub const LOCK_ORDER: &[LockClass] = &[
    LockClass {
        name: "store set-lock",
        patterns: &[
            "inner.read(",
            "inner.write(",
            "registry.read(",
            "registry.write(",
        ],
    },
    LockClass {
        name: "tree lock",
        patterns: &["tree.read(", "tree.write(", "tree().read(", "tree().write("],
    },
    LockClass {
        name: "query state",
        patterns: &["state.lock(", "stats.lock(", "cache.lock("],
    },
    LockClass {
        name: "handle pool",
        patterns: &["entries.lock("],
    },
];

/// `std::sync` primitives that block without parking_lot's fairness and
/// poisoning-free guarantees; library crates use parking_lot only.
const STD_SYNC_BANNED: &[&str] = &["Mutex", "RwLock", "Condvar"];

/// L003: (a) `std::sync::{Mutex, RwLock, Condvar}` are banned in
/// library crates — parking_lot is the workspace's one lock vocabulary
/// (no poisoning to unwrap, fair unlocks on contended paths); (b)
/// within one function body, recognizable lock acquisitions must follow
/// the [`LOCK_ORDER`] manifest.
pub fn l003_lock_discipline(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for line in &file.lines {
        if line.in_test {
            continue;
        }
        if line.code.contains("std::sync::") {
            for prim in STD_SYNC_BANNED {
                // The primitive must be part of the `std::sync` path
                // itself — directly (`std::sync::Mutex`) or via a
                // brace import (`use std::sync::{mpsc, Mutex}`). A
                // line that pairs `parking_lot::Mutex` with a benign
                // `std::sync::mpsc` path is clean.
                let direct = line.code.contains(&format!("std::sync::{prim}"));
                let braced = line.code.contains("use std::sync::{")
                    && line.code.contains(prim)
                    && !line.code.contains(&format!("mpsc::{prim}"));
                if direct || braced {
                    out.push(finding(
                        Code::L003,
                        file,
                        line.number,
                        format!("`std::sync::{prim}` in a library crate: use `parking_lot::{prim}` (workspace lock vocabulary)"),
                    ));
                }
            }
        }
    }

    for span in fn_spans(file) {
        let mut deepest: Option<(usize, usize)> = None; // (class idx, line)
        for line in file.lines[span.start - 1..span.end]
            .iter()
            .filter(|l| !l.in_test)
        {
            let Some(class) = LOCK_ORDER
                .iter()
                .position(|c| c.patterns.iter().any(|p| line.code.contains(p)))
            else {
                continue;
            };
            match deepest {
                Some((held, held_line)) if class < held => {
                    out.push(finding(
                        Code::L003,
                        file,
                        line.number,
                        format!(
                            "lock-order violation in `{}`: acquires {} after {} (line {held_line}); manifest order is {}",
                            span.name,
                            LOCK_ORDER[class].name,
                            LOCK_ORDER[held].name,
                            manifest_order(),
                        ),
                    ));
                }
                Some((held, _)) if class > held => deepest = Some((class, line.number)),
                None => deepest = Some((class, line.number)),
                _ => {}
            }
        }
    }
    out
}

fn manifest_order() -> String {
    LOCK_ORDER
        .iter()
        .map(|c| c.name)
        .collect::<Vec<_>>()
        .join(" → ")
}

// ---------------------------------------------------------------------
// L005 — unsafe hygiene
// ---------------------------------------------------------------------

/// L005 (token half): the workspace is `unsafe`-free; any `unsafe`
/// keyword in first-party code is a finding (the compiler backs this up
/// via `#![forbid(unsafe_code)]`, which [`l005_crate_root`] enforces).
pub fn l005_no_unsafe(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for line in &file.lines {
        if line.in_test {
            continue;
        }
        if contains_word(&line.code, "unsafe") {
            out.push(finding(
                Code::L005,
                file,
                line.number,
                "`unsafe` in first-party code: the workspace is unsafe-free by contract"
                    .to_string(),
            ));
        }
    }
    out
}

/// L005 (attribute half): a crate root must carry
/// `#![forbid(unsafe_code)]` so the compiler enforces what
/// [`l005_no_unsafe`] scans for.
pub fn l005_crate_root(file: &SourceFile) -> Vec<Diagnostic> {
    let has = file.lines.iter().any(|l| {
        let compact: String = l.code.chars().filter(|c| !c.is_whitespace()).collect();
        compact.contains("#![forbid(unsafe_code)]")
    });
    if has {
        Vec::new()
    } else {
        vec![Diagnostic {
            code: Code::L005,
            file: file.path.clone(),
            line: 1,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        }]
    }
}

/// Whole-word search (identifier boundaries on both sides).
fn contains_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let at = from + pos;
        let prev_ok = at == 0 || {
            let p = bytes[at - 1];
            !(p.is_ascii_alphanumeric() || p == b'_')
        };
        let next = at + word.len();
        let next_ok = next >= bytes.len() || {
            let n = bytes[next];
            !(n.is_ascii_alphanumeric() || n == b'_')
        };
        if prev_ok && next_ok {
            return true;
        }
        from = at + word.len();
    }
    false
}

fn finding(code: Code, file: &SourceFile, line: usize, message: String) -> Diagnostic {
    Diagnostic {
        code,
        file: file.path.clone(),
        line,
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_source;
    use std::path::PathBuf;

    fn scan(text: &str) -> SourceFile {
        scan_source(PathBuf::from("t.rs"), text)
    }

    #[test]
    fn l001_flags_panic_tokens_and_lines() {
        let f = scan("fn a(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\nfn b() {\n    panic!(\"boom\");\n}\n");
        let d = l001_panic_freedom(&f);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].line, 2);
        assert_eq!(d[1].line, 5);
    }

    #[test]
    fn l001_ignores_tests_comments_strings_and_lookalikes() {
        let text = "fn ok() {\n    let s = \"panic!\"; // .unwrap() here is fine\n    let v = x.unwrap_or_else(|| 3);\n    let e = r.expect_err(\"no\");\n    my_panic!();\n}\n#[cfg(test)]\nmod tests {\n    fn t() { None::<u32>.unwrap(); }\n}\n";
        let d = l001_panic_freedom(&scan(text));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn l002_flags_byte_order() {
        let f = scan("fn encode(x: u32) {\n    buf.extend(x.to_be_bytes());\n}\n");
        let d = l002_codec_discipline(&f);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn l002_flags_unguarded_decode_alloc() {
        let f = scan("fn get_list(input: &mut &[u8]) -> Vec<u64> {\n    let n = input.get_u32_le() as usize;\n    let mut v = Vec::with_capacity(n);\n    v\n}\n");
        let d = l002_codec_discipline(&f);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn l002_accepts_guarded_and_inline_min() {
        let guarded = "fn get_list(input: &mut &[u8]) -> Vec<u64> {\n    let n = input.get_u32_le() as usize;\n    if input.remaining() < n * 8 { return Vec::new(); }\n    let mut v = Vec::with_capacity(n);\n    v\n}\n";
        assert!(l002_codec_discipline(&scan(guarded)).is_empty());
        let inline = "fn get_list(input: &mut &[u8]) -> Vec<u64> {\n    let n = input.get_u32_le() as usize;\n    let mut v = Vec::with_capacity(n.min(input.remaining() / 8));\n    v\n}\n";
        assert!(l002_codec_discipline(&scan(inline)).is_empty());
    }

    #[test]
    fn l002_ignores_encode_side_alloc() {
        let f = scan("fn encode(xs: &[u64]) -> Vec<u8> {\n    let mut buf = Vec::with_capacity(xs.len() * 8);\n    buf\n}\n");
        assert!(l002_codec_discipline(&f).is_empty());
    }

    #[test]
    fn l003_flags_std_sync() {
        let f = scan("use std::sync::Mutex;\n");
        let d = l003_lock_discipline(&f);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn l003_allows_std_sync_atomics_and_arc() {
        let f = scan("use std::sync::Arc;\nuse std::sync::atomic::AtomicBool;\n");
        assert!(l003_lock_discipline(&f).is_empty());
    }

    #[test]
    fn l003_flags_braced_std_sync_import() {
        let f = scan("use std::sync::{mpsc, Mutex};\n");
        let d = l003_lock_discipline(&f);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn l003_allows_parking_lot_lock_beside_std_mpsc() {
        // A parking_lot Mutex whose payload names a std::sync::mpsc
        // type is not a std::sync lock.
        let f = scan("signal: Mutex<Option<std::sync::mpsc::Sender<Signal>>>,\n");
        assert!(l003_lock_discipline(&f).is_empty());
    }

    #[test]
    fn l003_flags_out_of_order_acquisition() {
        let text = "fn bad(&self) {\n    let guard = self.state.lock();\n    let view = self.tree.read();\n}\n";
        let d = l003_lock_discipline(&scan(text));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
        assert!(d[0].message.contains("tree lock"));
    }

    #[test]
    fn l003_accepts_manifest_order() {
        let text = "fn good(&self) {\n    let inner = self.inner.read();\n    let view = self.tree.read();\n    let st = self.state.lock();\n}\n";
        assert!(l003_lock_discipline(&scan(text)).is_empty());
    }

    #[test]
    fn l005_flags_unsafe_and_missing_forbid() {
        let f = scan("fn f() {\n    unsafe { core::hint::unreachable_unchecked() }\n}\n");
        let d = l005_no_unsafe(&f);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
        assert_eq!(l005_crate_root(&f).len(), 1);
        let ok = scan("#![forbid(unsafe_code)]\nfn f() {}\n");
        assert!(l005_crate_root(&ok).is_empty());
    }
}
