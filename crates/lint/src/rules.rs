//! The rule engine: every project invariant enforced as a machine-checkable
//! diagnostic.
//!
//! Rules work on the lexed token stream ([`crate::lexer`]), so string
//! literals and comments can never produce false positives, and each rule
//! scopes itself by crate and [`FileKind`] — the same invariant has different
//! blast radii in library code, tests, and benches (DESIGN.md §15 documents
//! the rationale per rule).
//!
//! All rules are heuristic token-pattern checks, deliberately tuned to *over*
//! report inside their scope: a false positive costs one pragma with a
//! written reason; a false negative silently breaks the byte-identical answer
//! contract the server-side result cache depends on.

use crate::lexer::{Comment, Lexed, Tok, TokKind};
use crate::pragma::PragmaIndex;
use crate::workspace::{FileKind, SourceFile};
use std::collections::BTreeSet;

/// One finding, printed as `file:line:col [rule-id] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub rule: &'static str,
    pub message: String,
}

pub const NONDETERMINISTIC_ITERATION: &str = "nondeterministic-iteration";
pub const UNSEEDED_RNG: &str = "unseeded-rng";
pub const UNSAFE_CONFINEMENT: &str = "unsafe-confinement";
pub const WALL_CLOCK: &str = "wall-clock-in-query-path";
pub const PANIC_IN_LIBRARY: &str = "panic-in-library";
pub const INVALID_PRAGMA: &str = "invalid-pragma";

/// Every rule id the pragma parser accepts.
pub const ALL_RULES: &[&str] = &[
    NONDETERMINISTIC_ITERATION,
    UNSEEDED_RNG,
    UNSAFE_CONFINEMENT,
    WALL_CLOCK,
    PANIC_IN_LIBRARY,
    INVALID_PRAGMA,
];

/// Crates whose query-path code must never observe hash-map iteration order:
/// they compute candidate sets, bounds, and SSP estimates that the engine
/// promises are byte-identical across runs (DESIGN.md §8/§12/§14).
const DETERMINISM_CRATES: &[&str] = &["pgs-query", "pgs-index", "pgs-prob"];

/// The only files allowed to contain `unsafe`, all individually audited: the
/// worker pool's task-lifetime erasure and the counting-allocator test
/// guard.  Every entry must hold `unsafe` today; the list keeps no slot in
/// reserve for a file that might need it later.
const UNSAFE_WHITELIST: &[&str] = &[
    "crates/graph/src/pool.rs",
    "crates/bench/tests/alloc_guard.rs",
];

/// Crates exempt from the panic rule: panicking on a malformed experiment
/// setup is the figure harness's error model.  It reads no clock (the
/// benchmark in `perfbench/` owns time), so the wall-clock rule covers it.
const BENCH_CRATES: &[&str] = &["pgs-bench"];

/// Methods that observe the internal ordering of a hash container.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// RNG constructors that pull entropy from the environment.
const ENTROPY_CTORS: &[&str] = &["thread_rng", "from_entropy", "from_os_rng", "OsRng"];

/// RNG constructors that take a raw seed; legal only when the seed expression
/// routes through `derive_seed`.
const SEED_CTORS: &[&str] = &["seed_from_u64", "from_seed"];

/// Everything the engine knows about one file while linting it.
pub struct FileInput<'a> {
    pub file: &'a SourceFile,
    pub lexed: &'a Lexed,
    /// Inclusive line ranges of `#[cfg(test)] mod … { … }` regions.
    pub test_regions: &'a [(u32, u32)],
    pub pragmas: &'a PragmaIndex,
}

impl<'a> FileInput<'a> {
    fn in_test_region(&self, line: u32) -> bool {
        self.file.kind == FileKind::Test
            || self
                .test_regions
                .iter()
                .any(|&(s, e)| s <= line && line <= e)
    }

    fn path_str(&self) -> String {
        // Diagnostics always print forward slashes so output is stable across
        // platforms and directly comparable in golden tests.
        self.file.rel_path.to_string_lossy().replace('\\', "/")
    }

    fn diag(&self, tok: &Tok, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            file: self.path_str(),
            line: tok.line,
            col: tok.col,
            rule,
            message,
        }
    }
}

/// Runs every rule over one file and applies pragma suppression.
pub fn check_file(input: &FileInput) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    nondeterministic_iteration(input, &mut diags);
    unseeded_rng(input, &mut diags);
    unsafe_confinement(input, &mut diags);
    wall_clock(input, &mut diags);
    panic_in_library(input, &mut diags);

    // Pragmas suppress rule findings on their target line…
    diags.retain(|d| !input.pragmas.allows(d.rule, d.line));

    // …but a malformed pragma is itself a finding, and is not suppressible:
    // an allow without a reason must never silently allow anything.
    for bad in &input.pragmas.bad {
        diags.push(Diagnostic {
            file: input.path_str(),
            line: bad.line,
            col: bad.col,
            rule: INVALID_PRAGMA,
            message: bad.message.clone(),
        });
    }

    diags.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    diags
}

// ---------------------------------------------------------------------------
// Rule 1: nondeterministic-iteration
// ---------------------------------------------------------------------------

/// Flags iteration over `HashMap`/`HashSet` values in the determinism-critical
/// crates.  Hash iteration order varies across processes (SipHash keys) and
/// across insertions, so any answer, bound, or sample that observes it breaks
/// the byte-identical contract.  Membership-only uses are fine — and must say
/// so with a pragma.
fn nondeterministic_iteration(input: &FileInput, out: &mut Vec<Diagnostic>) {
    if input.file.kind != FileKind::Library
        || !DETERMINISM_CRATES.contains(&input.file.crate_name.as_str())
    {
        return;
    }
    let toks = &input.lexed.tokens;
    let tracked = hash_container_bindings(toks);
    if tracked.is_empty() {
        return;
    }

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && tracked.contains(t.text.as_str())
            && !input.in_test_region(t.line)
        {
            // `x.keys()` / `x.values()` / … anywhere in an expression.
            if i + 2 < toks.len()
                && toks[i + 1].is_punct('.')
                && toks[i + 2].kind == TokKind::Ident
                && HASH_ITER_METHODS.contains(&toks[i + 2].text.as_str())
                && toks.get(i + 3).map(|t| t.is_punct('(')).unwrap_or(false)
            {
                out.push(input.diag(
                    &toks[i + 2],
                    NONDETERMINISTIC_ITERATION,
                    format!(
                        "`{}.{}()` observes hash iteration order in a determinism-critical \
                         crate; iterate a sorted copy (or a BTree container), or allow with \
                         a reason if order provably cannot reach an answer",
                        t.text,
                        toks[i + 2].text
                    ),
                ));
                i += 3;
                continue;
            }
            // `for x in map` / `for x in &map` / `for x in &mut map`.
            if is_for_in_target(toks, i) {
                out.push(input.diag(
                    t,
                    NONDETERMINISTIC_ITERATION,
                    format!(
                        "`for … in {}` iterates a hash container in a determinism-critical \
                         crate; iterate a sorted copy (or a BTree container), or allow with \
                         a reason if order provably cannot reach an answer",
                        t.text
                    ),
                ));
            }
        }
        i += 1;
    }
}

/// Collects identifiers bound (by `let` or by function parameters) to a type
/// mentioning `HashMap`/`HashSet` anywhere in this file.
///
/// Tracking is name-based and file-local — a deliberate over-approximation:
/// shadowing a tracked name with a vector still flags its iteration, and the
/// fix is a pragma or a rename.  What it cannot do is miss a straightforward
/// `let m: HashMap… ; for x in &m`.
fn hash_container_bindings(toks: &[Tok]) -> BTreeSet<&str> {
    let mut tracked: BTreeSet<&str> = BTreeSet::new();
    let mentions_hash = |ts: &[Tok]| {
        ts.iter()
            .any(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
    };
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("let") {
            // `let [mut] name [: ty] = init ;` — if either the type or the
            // initializer mentions a hash container, track the name.
            let mut j = i + 1;
            if toks.get(j).map(|t| t.is_ident("mut")).unwrap_or(false) {
                j += 1;
            }
            if let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) {
                let stmt_end = statement_end(toks, j);
                if mentions_hash(&toks[j + 1..stmt_end]) {
                    tracked.insert(name.text.as_str());
                }
                i = stmt_end;
                continue;
            }
        } else if toks[i].is_ident("fn") {
            // Parameters: `name: …HashMap…` inside the signature parens.
            if let Some(open) = toks[i..].iter().position(|t| t.is_punct('(')) {
                let open = i + open;
                let close = matching_close(toks, open, '(', ')');
                let mut seg_start = open + 1;
                let mut depth = 0usize;
                for k in open + 1..close {
                    if toks[k].is_punct('(') || toks[k].is_punct('<') || toks[k].is_punct('[') {
                        depth += 1;
                    } else if toks[k].is_punct(')')
                        || toks[k].is_punct('>')
                        || toks[k].is_punct(']')
                    {
                        depth = depth.saturating_sub(1);
                    } else if toks[k].is_punct(',') && depth == 0 {
                        track_param(&toks[seg_start..k], &mentions_hash, &mut tracked);
                        seg_start = k + 1;
                    }
                }
                track_param(&toks[seg_start..close], &mentions_hash, &mut tracked);
                i = close;
                continue;
            }
        }
        i += 1;
    }
    tracked
}

fn track_param<'a>(
    seg: &'a [Tok],
    mentions_hash: &impl Fn(&[Tok]) -> bool,
    tracked: &mut BTreeSet<&'a str>,
) {
    let Some(colon) = seg.iter().position(|t| t.is_punct(':')) else {
        return;
    };
    if mentions_hash(&seg[colon + 1..]) {
        if let Some(name) = seg[..colon]
            .iter()
            .rev()
            .find(|t| t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref")
        {
            tracked.insert(name.text.as_str());
        }
    }
}

/// Index just past the `;` ending the statement whose body starts at `i`
/// (depth-aware across `()`, `[]`, `{}`).
fn statement_end(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth = depth.saturating_sub(1);
        } else if t.is_punct(';') && depth == 0 {
            return j + 1;
        }
        j += 1;
    }
    toks.len()
}

/// Index of the close delimiter matching the open one at `open`.
fn matching_close(toks: &[Tok], open: usize, o: char, c: char) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// True when the identifier at `i` is the full target of a `for … in` loop
/// (allowing `&` / `&mut` prefixes), i.e. the loop walks the container.
fn is_for_in_target(toks: &[Tok], i: usize) -> bool {
    // Look backwards over `&`, `mut` to the `in` keyword…
    let mut j = i;
    while j > 0 && (toks[j - 1].is_punct('&') || toks[j - 1].is_ident("mut")) {
        j -= 1;
    }
    if j == 0 || !toks[j - 1].is_ident("in") {
        return false;
    }
    // …and forwards: the loop body must start right after the identifier
    // (method calls are handled by the `.iter()`-style check instead).
    toks.get(i + 1).map(|t| t.is_punct('{')).unwrap_or(false)
}

// ---------------------------------------------------------------------------
// Rule 2: unseeded-rng
// ---------------------------------------------------------------------------

/// Flags RNG construction that does not flow from `derive_seed`.  Entropy
/// constructors are forbidden everywhere (tests included — the suite's own
/// determinism is part of the contract); raw-seed constructors are flagged in
/// library code unless `derive_seed` appears in the seed expression.
fn unseeded_rng(input: &FileInput, out: &mut Vec<Diagnostic>) {
    let toks = &input.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if ENTROPY_CTORS.contains(&t.text.as_str()) {
            out.push(input.diag(
                t,
                UNSEEDED_RNG,
                format!(
                    "`{}` draws entropy from the environment; every RNG must be seeded \
                     through `derive_seed` so answers are byte-identical across runs",
                    t.text
                ),
            ));
            continue;
        }
        if SEED_CTORS.contains(&t.text.as_str())
            && input.file.kind == FileKind::Library
            && !input.in_test_region(t.line)
        {
            // Inspect the argument list for a `derive_seed` call.
            let arg_ok = toks
                .get(i + 1)
                .map(|n| n.is_punct('('))
                .map(|has_parens| {
                    has_parens && {
                        let close = matching_close(toks, i + 1, '(', ')');
                        toks[i + 1..close].iter().any(|a| a.is_ident("derive_seed"))
                    }
                })
                .unwrap_or(false);
            if !arg_ok {
                out.push(input.diag(
                    t,
                    UNSEEDED_RNG,
                    format!(
                        "`{}` with a seed that does not route through `derive_seed`; raw \
                         seeds fork the reproducibility story — derive them, or allow \
                         with a reason",
                        t.text
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: unsafe-confinement
// ---------------------------------------------------------------------------

/// Confines `unsafe` to the audited whitelist, and requires every whitelisted
/// block to carry a `// SAFETY:` comment above its enclosing statement.
fn unsafe_confinement(input: &FileInput, out: &mut Vec<Diagnostic>) {
    let toks = &input.lexed.tokens;
    let path = input.path_str();
    let whitelisted = UNSAFE_WHITELIST.iter().any(|w| path.ends_with(w));
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        if !whitelisted {
            out.push(input.diag(
                t,
                UNSAFE_CONFINEMENT,
                format!(
                    "`unsafe` outside the audited whitelist ({}); move the unsafety \
                     behind one of those modules or extend the whitelist in a reviewed \
                     change",
                    UNSAFE_WHITELIST.join(", ")
                ),
            ));
        } else if !has_safety_comment(input, toks, i) {
            out.push(
                input.diag(
                    t,
                    UNSAFE_CONFINEMENT,
                    "`unsafe` without a `// SAFETY:` comment; state the invariant that \
                 makes this sound directly above the enclosing statement"
                        .to_string(),
                ),
            );
        }
    }
}

/// Looks for a `SAFETY:` comment attached to the statement containing token
/// `i`: either trailing on a line of the statement, or in the contiguous
/// comment block immediately above the statement's first line.
fn has_safety_comment(input: &FileInput, toks: &[Tok], i: usize) -> bool {
    let unsafe_line = toks[i].line;
    // Statement start: the token after the previous `;`, `{` or `}`.
    let mut j = i;
    while j > 0 {
        let p = &toks[j - 1];
        if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') {
            break;
        }
        j -= 1;
    }
    let stmt_line = toks[j].line;

    let is_safety = |c: &Comment| c.text.contains("SAFETY:");
    // Trailing comment on any line of the statement so far.
    if input
        .lexed
        .comments
        .iter()
        .any(|c| !c.own_line && c.line >= stmt_line && c.line <= unsafe_line && is_safety(c))
    {
        return true;
    }
    // Contiguous own-line comment block ending directly above the statement.
    let mut expect = stmt_line.saturating_sub(1);
    for c in input.lexed.comments.iter().rev() {
        if !c.own_line || c.line > expect {
            continue;
        }
        if c.line != expect && c.line + newline_count(&c.text) != expect {
            break;
        }
        if is_safety(c) {
            return true;
        }
        expect = c.line.saturating_sub(1);
    }
    false
}

fn newline_count(s: &str) -> u32 {
    s.bytes().filter(|&b| b == b'\n').count() as u32
}

// ---------------------------------------------------------------------------
// Rule 4: wall-clock-in-query-path
// ---------------------------------------------------------------------------

/// Flags `Instant::now` / `SystemTime` outside timer modules.  Wall-clock
/// reads in the query path invite time-dependent control flow (adaptive
/// cutoffs, time-boxed sampling) that would make answers depend on machine
/// load.
fn wall_clock(input: &FileInput, out: &mut Vec<Diagnostic>) {
    if input
        .file
        .rel_path
        .file_name()
        .map(|f| f == "timers.rs")
        .unwrap_or(false)
    {
        return;
    }
    let toks = &input.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("SystemTime") {
            out.push(
                input.diag(
                    t,
                    WALL_CLOCK,
                    "`SystemTime` outside a timers module; query-path code must not \
                 observe wall-clock time"
                        .to_string(),
                ),
            );
        } else if t.is_ident("Instant")
            && toks.get(i + 1).map(|t| t.is_punct(':')).unwrap_or(false)
            && toks.get(i + 2).map(|t| t.is_punct(':')).unwrap_or(false)
            && toks.get(i + 3).map(|t| t.is_ident("now")).unwrap_or(false)
        {
            out.push(
                input.diag(
                    t,
                    WALL_CLOCK,
                    "`Instant::now()` outside a timers module; if this only feeds \
                 reporting (never control flow), allow with a reason saying so"
                        .to_string(),
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 5: panic-in-library
// ---------------------------------------------------------------------------

/// Flags `.unwrap()` / `.expect(…)` in non-test library code.  A panic in the
/// engine tears down whole server worker threads; fallible paths must return
/// typed errors, and genuinely infallible ones must say why via pragma.
fn panic_in_library(input: &FileInput, out: &mut Vec<Diagnostic>) {
    if input.file.kind != FileKind::Library
        || BENCH_CRATES.contains(&input.file.crate_name.as_str())
    {
        return;
    }
    let toks = &input.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
            && !input.in_test_region(t.line)
        {
            out.push(input.diag(
                t,
                PANIC_IN_LIBRARY,
                format!(
                    "`.{}(…)` can panic in library code; return a typed error, or allow \
                     with a reason stating why this is infallible or why panicking is \
                     the designed behavior",
                    t.text
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::{pragma, workspace};
    use std::path::PathBuf;

    fn run(src: &str, crate_name: &str, kind: FileKind, rel: &str) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let pragmas = pragma::index(&lexed.comments, &lexed.tokens, ALL_RULES);
        let regions = workspace::cfg_test_regions(src);
        let file = SourceFile {
            rel_path: PathBuf::from(rel),
            abs_path: PathBuf::from(rel),
            crate_name: crate_name.to_string(),
            kind,
        };
        check_file(&FileInput {
            file: &file,
            lexed: &lexed,
            test_regions: &regions,
            pragmas: &pragmas,
        })
    }

    fn lib(src: &str) -> Vec<Diagnostic> {
        run(src, "pgs-query", FileKind::Library, "crates/query/src/x.rs")
    }

    #[test]
    fn hash_iteration_is_flagged_in_determinism_crates() {
        let src = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); for (k, v) in &m {} }";
        let d = lib(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, NONDETERMINISTIC_ITERATION);
    }

    #[test]
    fn hash_method_iteration_is_flagged() {
        for m in ["iter", "keys", "values", "drain", "into_iter"] {
            let src = format!("fn f(m: &HashSet<u64>) {{ let v: Vec<_> = m.{m}().collect(); }}");
            let d = lib(&src);
            assert_eq!(d.len(), 1, "method {m}");
            assert_eq!(d[0].rule, NONDETERMINISTIC_ITERATION);
        }
    }

    #[test]
    fn membership_only_use_is_clean() {
        let src =
            "fn f() { let mut s: HashSet<u64> = HashSet::new(); s.insert(3); s.contains(&3); }";
        assert!(lib(src).is_empty());
    }

    #[test]
    fn scoped_crate_lists_name_workspace_members() {
        // A misspelt package name silently exempts its crate from a rule.
        let root = workspace::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let ws = workspace::resolve(&root);
        for name in DETERMINISM_CRATES.iter().chain(BENCH_CRATES) {
            assert!(
                ws.files.iter().any(|f| f.crate_name == *name),
                "`{name}` is not a workspace member"
            );
        }
    }

    #[test]
    fn every_whitelisted_unsafe_file_exists_and_uses_unsafe() {
        // A stale entry silently licenses `unsafe` in a file nobody audited.
        let root = workspace::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        for path in UNSAFE_WHITELIST {
            let src = std::fs::read_to_string(root.join(path))
                .unwrap_or_else(|e| panic!("`{path}` is not in the workspace: {e}"));
            assert!(
                lex(&src).tokens.iter().any(|t| t.is_ident("unsafe")),
                "`{path}` holds no `unsafe`; drop it from the whitelist"
            );
        }
    }

    #[test]
    fn hash_iteration_outside_determinism_crates_is_clean() {
        let src = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); for (k, v) in &m {} }";
        let d = run(
            src,
            "pgs-datagen",
            FileKind::Library,
            "crates/datagen/src/x.rs",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn pragma_suppresses_with_reason() {
        let src = "fn f(m: &HashMap<u32, u32>) {\n\
                   // pgs-lint: allow(nondeterministic-iteration, drained into a sort below)\n\
                   for (k, v) in m {} }";
        assert!(lib(src).is_empty());
    }

    #[test]
    fn entropy_rng_is_flagged_even_in_tests() {
        let src = "fn f() { let r = thread_rng(); }";
        let d = run(src, "pgs-graph", FileKind::Test, "tests/x.rs");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, UNSEEDED_RNG);
    }

    #[test]
    fn derived_seed_is_clean_raw_seed_is_not() {
        let good = "fn f(s: u64) { let r = StdRng::seed_from_u64(derive_seed(&[s, 1])); }";
        assert!(lib(good).is_empty());
        let bad = "fn f() { let r = StdRng::seed_from_u64(42); }";
        let d = lib(bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, UNSEEDED_RNG);
    }

    #[test]
    fn raw_seed_in_unit_tests_is_clean() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { let r = StdRng::seed_from_u64(7); }\n}";
        assert!(lib(src).is_empty());
    }

    #[test]
    fn unsafe_outside_whitelist_is_flagged() {
        let src = "fn f() { unsafe { core::hint::unreachable_unchecked() } }";
        let d = lib(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, UNSAFE_CONFINEMENT);
    }

    #[test]
    fn whitelisted_unsafe_needs_safety_comment() {
        let no_comment = "fn f() { let x = unsafe { g() }; }";
        let d = run(
            no_comment,
            "pgs-graph",
            FileKind::Library,
            "crates/graph/src/pool.rs",
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("SAFETY"));

        let with_comment =
            "fn f() {\n// SAFETY: g has no preconditions here\nlet x = unsafe { g() }; }";
        let d = run(
            with_comment,
            "pgs-graph",
            FileKind::Library,
            "crates/graph/src/pool.rs",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn safety_comment_above_multiline_statement_counts() {
        // The unsafe sits on a continuation line; the SAFETY block is above
        // the statement, not above the unsafe line itself.
        let src = "fn f() {\n// SAFETY: lifetime erased, job completes before return\nlet t: E =\n    unsafe { transmute(x) };\n}";
        let d = run(
            src,
            "pgs-graph",
            FileKind::Library,
            "crates/graph/src/pool.rs",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn wall_clock_is_flagged_outside_bench() {
        let src = "fn f() { let t = Instant::now(); }";
        let d = lib(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, WALL_CLOCK);
        // …and in the figure harness too: perfbench owns time.
        let d = run(
            src,
            "pgs-bench",
            FileKind::Library,
            "crates/bench/src/lib.rs",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, WALL_CLOCK);
    }

    #[test]
    fn panics_flagged_in_library_not_tests() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let d = lib(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, PANIC_IN_LIBRARY);
        assert!(run(src, "pgs", FileKind::Test, "tests/x.rs").is_empty());
        let expect = "fn f(x: Option<u32>) -> u32 { x.expect(\"set by caller\") }";
        assert_eq!(lib(expect).len(), 1);
    }

    #[test]
    fn unwrap_or_variants_are_not_panics() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0).max(x.unwrap_or_default()) }";
        assert!(lib(src).is_empty());
    }

    #[test]
    fn invalid_pragma_is_reported_and_not_suppressible() {
        let src =
            "// pgs-lint: allow(panic-in-library)\nfn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let d = lib(src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|d| d.rule == INVALID_PRAGMA));
        assert!(d.iter().any(|d| d.rule == PANIC_IN_LIBRARY));
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "fn f() { let s = \"unsafe thread_rng Instant::now\"; // unsafe unwrap()\n }";
        assert!(lib(src).is_empty());
    }
}
