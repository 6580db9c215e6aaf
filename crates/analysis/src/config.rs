//! What to analyze: scopes per lint, resolved against an analysis root.
//!
//! The scopes are data, not code, so the integration tests point the
//! same engine at fixture trees and the CLI points it at the real
//! workspace ([`Config::workspace`]).

use std::path::PathBuf;

use crate::drift::ProtocolConfig;

/// Scopes for one analysis run. All paths are relative to `root`; dirs
/// are walked recursively for `.rs` files.
#[derive(Debug, Clone)]
pub struct Config {
    /// The directory all relative paths resolve against.
    pub root: PathBuf,
    /// Directories whose non-test code must be panic-free (L001): the
    /// serving-path crates.
    pub panic_free_dirs: Vec<PathBuf>,
    /// Directories scanned for lock discipline (L003), unsafe tokens
    /// (L005), and waiver well-formedness (W001): all first-party code.
    pub lint_dirs: Vec<PathBuf>,
    /// Codec files under L002: LE-only, bounded decode allocations.
    pub codec_files: Vec<PathBuf>,
    /// Crate-root files that must carry `#![forbid(unsafe_code)]`.
    pub crate_roots: Vec<PathBuf>,
    /// The protocol-drift surface (L004), if this tree has one.
    pub protocol: Option<ProtocolConfig>,
}

impl Config {
    /// The real workspace layout. `root` is the repository root (the
    /// directory holding the workspace `Cargo.toml`).
    pub fn workspace(root: PathBuf) -> Config {
        let p = PathBuf::from;
        Config {
            root,
            // Serving path: a panic here kills a worker thread or a
            // whole request; bloom/core/shard/server are the crates a
            // live sample travels through.
            panic_free_dirs: vec![
                p("crates/bloom/src"),
                p("crates/core/src"),
                p("crates/obs/src"),
                p("crates/shard/src"),
                p("crates/server/src"),
            ],
            lint_dirs: vec![
                p("crates/bloom/src"),
                p("crates/core/src"),
                p("crates/obs/src"),
                p("crates/shard/src"),
                p("crates/server/src"),
                p("crates/stats/src"),
                p("crates/workloads/src"),
                p("crates/bench/src"),
                p("crates/analysis/src"),
                p("src"),
            ],
            codec_files: vec![
                p("crates/core/src/persistence.rs"),
                p("crates/core/src/tree.rs"),
                p("crates/core/src/pruned.rs"),
                p("crates/core/src/store.rs"),
                p("crates/core/src/wal.rs"),
                p("crates/shard/src/system.rs"),
                p("crates/shard/src/durable.rs"),
                p("crates/bloom/src/codec.rs"),
                p("crates/server/src/frame.rs"),
                p("crates/server/src/protocol.rs"),
            ],
            crate_roots: vec![
                p("crates/bloom/src/lib.rs"),
                p("crates/core/src/lib.rs"),
                p("crates/obs/src/lib.rs"),
                p("crates/shard/src/lib.rs"),
                p("crates/server/src/lib.rs"),
                p("crates/server/src/main.rs"),
                p("crates/stats/src/lib.rs"),
                p("crates/workloads/src/lib.rs"),
                p("crates/bench/src/lib.rs"),
                p("crates/bench/src/bin/repro.rs"),
                p("crates/analysis/src/lib.rs"),
                p("crates/analysis/src/main.rs"),
                p("src/lib.rs"),
            ],
            protocol: Some(ProtocolConfig {
                protocol_rs: p("crates/server/src/protocol.rs"),
                handler_rs: p("crates/server/src/handler.rs"),
                error_rs: p("crates/core/src/error.rs"),
                design_md: p("DESIGN.md"),
            }),
        }
    }
}
