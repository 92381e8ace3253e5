//! # pgs-lint — workspace-native static analysis
//!
//! Enforces the determinism & safety contract the engine's correctness rests
//! on (DESIGN.md §8/§12/§14/§15): byte-identical answers across thread
//! counts and database insertion order.  That contract is what
//! makes a server-side query-result cache *exact* rather than approximate —
//! and it is exactly the kind of property a test matrix can miss one
//! violation of.  `pgs-lint` turns the conventions into machine-checkable
//! diagnostics:
//!
//! | rule id | invariant |
//! |---|---|
//! | `nondeterministic-iteration` | no hash-order iteration in query/index/probgraph code |
//! | `unseeded-rng` | all randomness flows through `derive_seed` |
//! | `unsafe-confinement` | `unsafe` only in the audited whitelist, each with `// SAFETY:` |
//! | `wall-clock-in-query-path` | no `Instant::now`/`SystemTime` outside `timers.rs` modules |
//! | `panic-in-library` | no `unwrap()`/`expect()` in non-test library code |
//! | `invalid-pragma` | every suppression carries a mandatory reason |
//!
//! Suppressions are per-line pragmas — `// pgs-lint: allow(rule-id, reason)`
//! — and the reason is not optional.  Run it as:
//!
//! ```text
//! cargo run -p pgs-lint -- --workspace [--json]
//! ```
//!
//! The crate is std-only (no dependencies, not even the vendored shims) so it
//! can never be contaminated by the code it checks, and it lints itself as
//! part of `--workspace`.

pub mod lexer;
pub mod pragma;
pub mod rules;
pub mod workspace;

pub use rules::Diagnostic;
pub use workspace::{FileKind, SourceFile};

use std::path::{Path, PathBuf};

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    /// Non-fatal resolution problems (unresolvable `mod`, unreadable files).
    pub warnings: Vec<String>,
    /// Number of files actually read and checked.
    pub files_checked: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Lints every file reachable from the workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> Report {
    let ws = workspace::resolve(root);
    let mut report = Report {
        warnings: ws
            .warnings
            .iter()
            .map(|w| format!("{}: {}", w.path.display(), w.message))
            .collect(),
        ..Report::default()
    };
    for file in &ws.files {
        match std::fs::read_to_string(&file.abs_path) {
            Ok(src) => {
                report.files_checked += 1;
                report.diagnostics.extend(lint_source(file, &src));
            }
            Err(e) => report
                .warnings
                .push(format!("{}: cannot read: {e}", file.abs_path.display())),
        }
    }
    sort_diagnostics(&mut report.diagnostics);
    report
}

/// Lints explicitly-listed files under an assumed identity — the strictest
/// context by default (library code of a determinism-critical crate), which
/// is what fixture tests want.
pub fn lint_paths(paths: &[PathBuf], crate_name: &str, kind: FileKind) -> Report {
    let mut report = Report::default();
    for path in paths {
        let file = SourceFile {
            rel_path: path.clone(),
            abs_path: path.clone(),
            crate_name: crate_name.to_string(),
            kind,
        };
        match std::fs::read_to_string(path) {
            Ok(src) => {
                report.files_checked += 1;
                report.diagnostics.extend(lint_source(&file, &src));
            }
            Err(e) => report
                .warnings
                .push(format!("{}: cannot read: {e}", path.display())),
        }
    }
    sort_diagnostics(&mut report.diagnostics);
    report
}

/// Lints one file's source text under the identity described by `file`.
pub fn lint_source(file: &SourceFile, src: &str) -> Vec<Diagnostic> {
    let lexed = lexer::lex(src);
    let pragmas = pragma::index(&lexed.comments, &lexed.tokens, rules::ALL_RULES);
    let test_regions = workspace::cfg_test_regions(src);
    rules::check_file(&rules::FileInput {
        file,
        lexed: &lexed,
        test_regions: &test_regions,
        pragmas: &pragmas,
    })
}

fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
}

/// Renders diagnostics in the canonical `file:line:col [rule-id] message`
/// form, one per line.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{}:{}:{} [{}] {}\n",
            d.file, d.line, d.col, d.rule, d.message
        ));
    }
    out
}

/// Renders diagnostics as a JSON array (std-only, hence hand-rolled).
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\":{},\"line\":{},\"col\":{},\"rule\":{},\"message\":{}}}",
            json_str(&d.file),
            d.line,
            d.col,
            json_str(d.rule),
            json_str(&d.message)
        ));
    }
    out.push_str(if diags.is_empty() { "]\n" } else { "\n]\n" });
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes_and_newlines() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn render_text_matches_canonical_format() {
        let d = Diagnostic {
            file: "crates/query/src/x.rs".into(),
            line: 3,
            col: 9,
            rule: rules::PANIC_IN_LIBRARY,
            message: "msg".into(),
        };
        assert_eq!(
            render_text(&[d]),
            "crates/query/src/x.rs:3:9 [panic-in-library] msg\n"
        );
    }

    #[test]
    fn empty_json_is_an_empty_array() {
        assert_eq!(render_json(&[]), "[]\n");
    }
}
