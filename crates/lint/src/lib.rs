//! # ffd2d-lint — workspace determinism-invariant checker
//!
//! Every layer of this workspace leans on one contract: **same seed ⇒
//! bit-identical [`RunOutcome`]s and byte-identical JSONL**, regardless
//! of engine mode, worker count, or instrumentation. The runtime
//! equivalence suites (`engine_equivalence`, `medium_equivalence`,
//! `telemetry`, `chaos`, `gain_cache`) verify that contract after the
//! fact, on the configurations they happen to exercise. This crate
//! closes the gap from the other side: a std-only, hand-rolled source
//! scanner that flags the *code patterns* which historically break the
//! guarantee, before any simulation runs.
//!
//! [`RunOutcome`]: ../ffd2d_core/struct.RunOutcome.html
//!
//! ## Rules
//!
//! | rule | invariant | guarded at runtime by |
//! |------|-----------|----------------------|
//! | `ordered-iteration` | no `HashMap`/`HashSet` whose iteration order can escape in deterministic crates | `engine_equivalence`, `medium_equivalence` |
//! | `wall-clock` | `Instant::now`/`SystemTime` only in telemetry/experiments/lint | `telemetry` (outcome-neutrality) |
//! | `rng-discipline` | seed arithmetic and RNG construction live in `ffd2d_sim::rng`; draws route through a `StreamId` | `determinism`, `chaos` |
//! | `counter-discipline` | `Counters` fields bump through the saturating helpers, never raw `+=` | `trace` (tally↔counter reconciliation) |
//! | `panic-discipline` | no `unwrap()`/`expect(` in engine/medium hot paths | all suites (a panic is the loudest nondeterminism) |
//! | `crate-hygiene` | every crate carries `#![forbid(unsafe_code)]` + `#![warn(missing_docs)]` | — |
//!
//! Two meta rules keep suppressions honest: `bare-allow` (an allow
//! without a reason string) and `unused-allow` (an allow that suppressed
//! nothing this run).
//!
//! ## Suppression
//!
//! Findings are suppressed by an explicit, auditable inline comment on
//! the same line or the line directly above:
//!
//! ```text
//! // ffd2d-lint: allow(ordered-iteration) — lookup-only; order never escapes
//! index: HashMap<u64, u32>,
//! ```
//!
//! The reason (after `—` or `--`) is mandatory.
//!
//! ## Scope and limitations
//!
//! The scanner walks `crates/*/src/**/*.rs` plus the facade's `src/`.
//! Test code (`#[cfg(test)]` modules, `#[test]` functions, `tests/`
//! directories) is exempt from all rules except `crate-hygiene`:
//! tests may clock, seed ad-hoc RNGs, and unwrap freely. `vendor/` is
//! never scanned — the stubs there mirror external crate APIs verbatim.
//!
//! This is a lightweight tokenizer, not a type checker (`syn` is not
//! available offline — the vendored deps are stubs). It tracks hash
//! containers by binding-name heuristics and pattern-matches token
//! sequences, so renaming a `HashMap` binding through an opaque alias
//! can evade it. The point is not adversarial soundness but catching
//! the accidental `for … in map` or `Instant::now()` that review
//! misses — cheaply, on every push, over the whole workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod rules;
pub mod tokenizer;

use tokenizer::{tokenize, AllowDirective, Tok};

/// All enforced rule names, in report order.
pub const RULES: &[&str] = &[
    "ordered-iteration",
    "wall-clock",
    "rng-discipline",
    "counter-discipline",
    "panic-discipline",
    "crate-hygiene",
    "bare-allow",
    "unused-allow",
];

/// One diagnostic: a named rule violated at a file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (one of [`RULES`]).
    pub rule: &'static str,
    /// Path relative to the scanned root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Result of a scan: findings plus bookkeeping for the report footer.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of allow directives that suppressed at least one finding.
    pub allows_used: usize,
}

impl Report {
    /// True when the tree lints clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Hand-rolled JSON rendering (the workspace convention — vendored
    /// serde is a stub without a JSON backend).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                json_escape(f.rule),
                json_escape(&f.file),
                f.line,
                json_escape(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"files_scanned\": {},\n  \"allows_used\": {},\n  \"clean\": {}\n}}\n",
            self.files_scanned,
            self.allows_used,
            self.is_clean()
        ));
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Which crate a source file belongs to, for rule scoping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileScope {
    /// Crate directory name (`core`, `sim`, …) or `ffd2d` for the
    /// facade's `src/`.
    pub crate_name: String,
    /// Path relative to the scan root, `/`-separated.
    pub rel_path: String,
    /// True for the crate's `src/lib.rs` (hygiene-rule target).
    pub is_lib_root: bool,
}

impl FileScope {
    /// Derive the scope of `rel_path` (already `/`-separated).
    pub fn from_rel_path(rel_path: &str) -> FileScope {
        let parts: Vec<&str> = rel_path.split('/').collect();
        let (crate_name, is_lib_root) = if parts.len() >= 4 && parts[0] == "crates" {
            (
                parts[1].to_string(),
                rel_path == format!("crates/{}/src/lib.rs", parts[1]),
            )
        } else {
            ("ffd2d".to_string(), rel_path == "src/lib.rs")
        };
        FileScope {
            crate_name,
            rel_path: rel_path.to_string(),
            is_lib_root,
        }
    }
}

/// A tokenized source file ready for rule passes.
pub struct SourceFile {
    /// Scoping info (crate, relative path).
    pub scope: FileScope,
    /// Raw text (hygiene rule and directive checks read it directly).
    pub text: String,
    /// Code tokens (comments and string contents stripped).
    pub toks: Vec<Tok>,
    /// Per-token flag: inside a `#[cfg(test)]` / `#[test]` region.
    pub in_test: Vec<bool>,
    /// Allow directives keyed by the line they sit on.
    pub allows: BTreeMap<u32, AllowDirective>,
}

impl SourceFile {
    /// Tokenize `text` under `scope`.
    pub fn parse(scope: FileScope, text: String) -> SourceFile {
        let (toks, allows) = tokenize(&text);
        let in_test = mark_test_regions(&toks);
        SourceFile {
            scope,
            text,
            toks,
            in_test,
            allows,
        }
    }
}

/// Mark token spans covered by `#[cfg(test)]` / `#[test]` attributes:
/// the attribute itself plus the item that follows (brace-matched block,
/// or up to `;` for block-less items).
fn mark_test_regions(toks: &[Tok]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" && i + 1 < toks.len() && toks[i + 1].text == "[" {
            // Collect the attribute token span.
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut attr_end = None;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            attr_end = Some(j);
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            let Some(attr_end) = attr_end else { break };
            let is_test_attr = toks[i + 2..attr_end].iter().any(|t| t.text == "test");
            if is_test_attr {
                // Swallow any further attributes, then the item: to the
                // matching `}` of its first brace, or to a `;` if one
                // comes first (block-less item).
                let mut k = attr_end + 1;
                let mut end = toks.len();
                let mut brace_depth = 0usize;
                let mut entered = false;
                while k < toks.len() {
                    match toks[k].text.as_str() {
                        "{" => {
                            brace_depth += 1;
                            entered = true;
                        }
                        "}" => {
                            brace_depth = brace_depth.saturating_sub(1);
                            if entered && brace_depth == 0 {
                                end = k + 1;
                                break;
                            }
                        }
                        ";" if !entered => {
                            end = k + 1;
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                for flag in in_test.iter_mut().take(end.min(toks.len())).skip(i) {
                    *flag = true;
                }
                i = end;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    in_test
}

/// Scan the whole workspace rooted at `root`: `crates/*/src/**/*.rs`
/// plus the facade's `src/**/*.rs`. `vendor/`, `tests/`, `target/` are
/// never visited.
pub fn scan_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let facade_src = root.join("src");
    if facade_src.is_dir() {
        collect_rs(&facade_src, &mut files)?;
    }
    files.sort();
    scan_files(root, &files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            collect_rs(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Scan an explicit file list. Paths must live under `root`; rule
/// scoping is derived from each file's path relative to it.
pub fn scan_files(root: &Path, files: &[PathBuf]) -> io::Result<Report> {
    let mut report = Report::default();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(path)?;
        let source = SourceFile::parse(FileScope::from_rel_path(&rel), text);
        report.files_scanned += 1;
        let (mut findings, used) = rules::check_file(&source);
        report.allows_used += used;
        report.findings.append(&mut findings);
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(rel: &str, text: &str) -> SourceFile {
        SourceFile::parse(FileScope::from_rel_path(rel), text.to_string())
    }

    #[test]
    fn scope_derivation() {
        let s = FileScope::from_rel_path("crates/core/src/world.rs");
        assert_eq!(s.crate_name, "core");
        assert!(!s.is_lib_root);
        let s = FileScope::from_rel_path("crates/sim/src/lib.rs");
        assert!(s.is_lib_root);
        let s = FileScope::from_rel_path("src/lib.rs");
        assert_eq!(s.crate_name, "ffd2d");
        assert!(s.is_lib_root);
    }

    #[test]
    fn test_regions_cover_cfg_test_mod() {
        let src = parse(
            "crates/core/src/x.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn live2() {}\n",
        );
        let texts: Vec<(&str, bool)> = src
            .toks
            .iter()
            .zip(&src.in_test)
            .map(|(t, &b)| (t.text.as_str(), b))
            .collect();
        assert!(texts.contains(&("live", false)));
        assert!(texts.contains(&("tests", true)));
        assert!(texts.contains(&("t", true)));
        assert!(texts.contains(&("live2", false)));
    }

    #[test]
    fn json_report_shape() {
        let mut r = Report::default();
        r.findings.push(Finding {
            rule: "wall-clock",
            file: "crates/core/src/x.rs".into(),
            line: 3,
            message: "say \"no\"".into(),
        });
        r.files_scanned = 1;
        let json = r.to_json();
        assert!(json.contains("\"rule\": \"wall-clock\""));
        assert!(json.contains("\\\"no\\\""));
        assert!(json.contains("\"clean\": false"));
    }
}
