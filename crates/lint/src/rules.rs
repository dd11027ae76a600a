//! The determinism-invariant rule passes.
//!
//! Each pass walks the token stream of one [`SourceFile`] and emits
//! candidate findings; suppression via `ffd2d-lint: allow(...)`
//! directives (same line or the line directly above) is resolved here,
//! and the two meta rules (`bare-allow`, `unused-allow`) keep the
//! suppressions themselves auditable.

use crate::tokenizer::AllowDirective;
use crate::{Finding, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose non-test code must not let hash-iteration order escape:
/// everything that executes between seed and `RunOutcome`.
const DETERMINISTIC_CRATES: &[&str] = &["core", "sim", "phy", "osc", "graph", "radio", "chaos"];

/// Crates allowed to read the wall clock: the telemetry layer itself
/// (recorder-gated, provably outcome-neutral) and the offline harnesses.
const WALL_CLOCK_EXEMPT: &[&str] = &["telemetry", "experiments", "lint"];

/// Crates exempt from RNG-stream discipline: offline harnesses that
/// never run inside a simulated trial.
const RNG_EXEMPT: &[&str] = &["experiments", "lint"];

/// The one sanctioned home of seed arithmetic and RNG construction.
const RNG_HOME: &str = "crates/sim/src/rng.rs";

/// Fields of `ffd2d_sim::counters::Counters`: only the saturating
/// helpers may mutate them.
const COUNTER_FIELDS: &[&str] = &[
    "rach1_tx",
    "rach2_tx",
    "unicast_tx",
    "rx_ok",
    "rx_collision",
    "rx_below_threshold",
    "fault_dropped_frames",
    "fault_dup_frames",
];

/// The saturating tally helpers themselves — the only files where raw
/// arithmetic on counter fields is the implementation, not a bypass.
const COUNTER_HOMES: &[&str] = &["crates/sim/src/counters.rs"];

/// Engine/medium hot paths where a panic is never an acceptable way to
/// surface a bug mid-run.
const PANIC_HOT_PATHS: &[&str] = &[
    "crates/core/src/runtime.rs",
    "crates/core/src/st_protocol.rs",
    "crates/core/src/world.rs",
    "crates/baseline/src/fst.rs",
    "crates/phy/src/medium.rs",
];

/// Methods whose call on a hash container lets iteration order escape.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Run every rule over `source`; returns the unsuppressed findings and
/// the number of allow directives that suppressed something.
pub fn check_file(source: &SourceFile) -> (Vec<Finding>, usize) {
    let mut allows: BTreeMap<u32, AllowDirective> = source.allows.clone();
    let mut raw: Vec<(&'static str, u32, String)> = Vec::new();

    ordered_iteration(source, &mut raw);
    wall_clock(source, &mut raw);
    rng_discipline(source, &mut raw);
    counter_discipline(source, &mut raw);
    panic_discipline(source, &mut raw);
    crate_hygiene(source, &mut raw);

    let mut findings = Vec::new();
    for (rule, line, message) in raw {
        let suppressed = [line, line.saturating_sub(1)].iter().any(|l| {
            allows
                .get_mut(l)
                .filter(|d| d.rules.iter().any(|r| r == rule))
                .map(|d| {
                    d.used = true;
                    true
                })
                .unwrap_or(false)
        });
        if !suppressed {
            findings.push(Finding {
                rule,
                file: source.scope.rel_path.clone(),
                line,
                message,
            });
        }
    }

    // Meta rules: suppressions must carry a reason and must suppress
    // something — a stale allow is a hole in the audit trail.
    let mut allows_used = 0usize;
    for (line, d) in &allows {
        if d.used {
            allows_used += 1;
            if !d.has_reason {
                findings.push(Finding {
                    rule: "bare-allow",
                    file: source.scope.rel_path.clone(),
                    line: *line,
                    message: format!(
                        "allow({}) has no reason string; write `ffd2d-lint: allow(rule) — why`",
                        d.rules.join(", ")
                    ),
                });
            }
        } else {
            findings.push(Finding {
                rule: "unused-allow",
                file: source.scope.rel_path.clone(),
                line: *line,
                message: format!(
                    "allow({}) suppressed nothing; remove it or fix the rule list",
                    d.rules.join(", ")
                ),
            });
        }
    }
    (findings, allows_used)
}

/// Walk back over a `foo::bar::` path prefix: returns the index of the
/// first segment of the path containing the token at `k`.
fn path_start(source: &SourceFile, k: usize) -> usize {
    let mut j = k;
    while j >= 2 && source.toks[j - 1].text == "::" {
        j -= 2;
    }
    j
}

fn tok(source: &SourceFile, k: usize) -> &str {
    source.toks.get(k).map(|t| t.text.as_str()).unwrap_or("")
}

/// Rule `ordered-iteration`: in deterministic crates, flag (a) any
/// hash-container type in a binding position or constructor — the
/// container itself must be justified, since a later `for … in` over it
/// is one edit away — and (b) iteration-order-escaping calls on
/// bindings known to be hash-typed.
fn ordered_iteration(source: &SourceFile, out: &mut Vec<(&'static str, u32, String)>) {
    if !DETERMINISTIC_CRATES.contains(&source.scope.crate_name.as_str()) {
        return;
    }
    let toks = &source.toks;

    // Names bound to HashMap/HashSet (fields, params, lets).
    let mut hash_idents: BTreeSet<&str> = BTreeSet::new();
    for k in 0..toks.len() {
        let t = &toks[k].text;
        if t != "HashMap" && t != "HashSet" {
            continue;
        }
        let j = path_start(source, k);
        if j >= 2 && tok(source, j - 1) == ":" {
            hash_idents.insert(&toks[j - 2].text);
        }
        // `let [mut] name = [path::]Hash{Map,Set}::…`
        if tok(source, k + 1) == "::" {
            let mut b = j;
            let floor = j.saturating_sub(6);
            while b > floor {
                b -= 1;
                if toks[b].text == "let" {
                    let name = if tok(source, b + 1) == "mut" {
                        b + 2
                    } else {
                        b + 1
                    };
                    hash_idents.insert(&toks[name].text);
                    break;
                }
                if toks[b].text == ";" || toks[b].text == "{" {
                    break;
                }
            }
        }
    }

    for k in 0..toks.len() {
        if source.in_test[k] {
            continue;
        }
        let t = toks[k].text.as_str();
        // (a) hash container in a type/constructor position.
        if t == "HashMap" || t == "HashSet" {
            let j = path_start(source, k);
            let prev = if j == 0 { "" } else { tok(source, j - 1) };
            let decl = matches!(prev, ":" | "->" | "<");
            let construct = tok(source, k + 1) == "::"
                && matches!(
                    tok(source, k + 2),
                    "new" | "with_capacity" | "default" | "from"
                );
            if decl || construct {
                out.push((
                    "ordered-iteration",
                    toks[k].line,
                    format!(
                        "{t} in deterministic crate `{}`: iteration order could escape into \
                         outcomes — use BTreeMap/BTreeSet or justify with an allow proving \
                         order never escapes",
                        source.scope.crate_name
                    ),
                ));
            }
        }
        // (b) order-escaping method call on a known hash binding.
        if hash_idents.contains(t)
            && tok(source, k + 1) == "."
            && ITER_METHODS.contains(&tok(source, k + 2))
            && tok(source, k + 3) == "("
        {
            out.push((
                "ordered-iteration",
                toks[k].line,
                format!(
                    "`{}.{}()` iterates a hash container: order escapes into downstream state",
                    t,
                    tok(source, k + 2)
                ),
            ));
        }
        // (b') `for … in <expr containing a hash binding>`.
        if t == "for" && tok(source, k + 1) != "<" {
            let mut j = k + 1;
            let mut saw_in = false;
            while j < toks.len() && j < k + 40 {
                match toks[j].text.as_str() {
                    "in" => saw_in = true,
                    "{" | ";" => break,
                    name if saw_in && hash_idents.contains(name) => {
                        out.push((
                            "ordered-iteration",
                            toks[k].line,
                            format!(
                                "`for … in` over hash container `{name}`: iteration order escapes"
                            ),
                        ));
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
    }
}

/// Rule `wall-clock`: `Instant::now()` / any `SystemTime` use outside
/// the telemetry/experiments/lint crates. Timing a deterministic path
/// is fine only when recorder-gated and provably outcome-neutral —
/// which an allow must assert.
fn wall_clock(source: &SourceFile, out: &mut Vec<(&'static str, u32, String)>) {
    if WALL_CLOCK_EXEMPT.contains(&source.scope.crate_name.as_str()) {
        return;
    }
    for (k, token) in source.toks.iter().enumerate() {
        if source.in_test[k] {
            continue;
        }
        let t = token.text.as_str();
        if t == "Instant" && tok(source, k + 1) == "::" && tok(source, k + 2) == "now" {
            out.push((
                "wall-clock",
                token.line,
                "Instant::now() in a deterministic crate: wall-clock must never reach RNG \
                 streams or outcomes"
                    .to_string(),
            ));
        }
        if t == "SystemTime" {
            out.push((
                "wall-clock",
                token.line,
                "SystemTime in a deterministic crate: wall-clock must never reach RNG streams \
                 or outcomes"
                    .to_string(),
            ));
        }
    }
}

/// Rule `rng-discipline`: seed arithmetic and generator construction
/// belong in `ffd2d_sim::rng`; everywhere else draws must route through
/// a named `StreamId`.
fn rng_discipline(source: &SourceFile, out: &mut Vec<(&'static str, u32, String)>) {
    if RNG_EXEMPT.contains(&source.scope.crate_name.as_str()) || source.scope.rel_path == RNG_HOME {
        return;
    }
    let toks = &source.toks;
    for k in 0..toks.len() {
        if source.in_test[k] {
            continue;
        }
        let t = toks[k].text.as_str();
        match t {
            "thread_rng" | "from_entropy" => out.push((
                "rng-discipline",
                toks[k].line,
                format!("`{t}` is nondeterministic by construction"),
            )),
            "seed_from_u64" | "from_seed" | "from_state" | "with_raw_stream"
                if tok(source, k + 1) == "(" =>
            {
                out.push((
                    "rng-discipline",
                    toks[k].line,
                    format!(
                        "`{t}(` constructs an RNG outside ffd2d_sim::rng — use \
                         StreamRng::new with a named StreamId"
                    ),
                ))
            }
            "SplitMix64"
                if tok(source, k + 1) == "::" && matches!(tok(source, k + 2), "mix" | "new") =>
            {
                out.push((
                    "rng-discipline",
                    toks[k].line,
                    "seed mixing outside ffd2d_sim::rng — add a named derivation helper there \
                     instead"
                        .to_string(),
                ))
            }
            _ => {}
        }
        // Seed arithmetic heuristic: an identifier containing "seed"
        // fed through xor / wrapping arithmetic.
        if t.to_ascii_lowercase().contains("seed")
            && t.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        {
            let next = tok(source, k + 1);
            let arith = next == "^"
                || (k > 0 && toks[k - 1].text == "^")
                || (next == "." && tok(source, k + 2).starts_with("wrapping_"));
            if arith {
                out.push((
                    "rng-discipline",
                    toks[k].line,
                    format!(
                        "seed arithmetic on `{t}` outside ffd2d_sim::rng — derivation must \
                         live with the stream discipline"
                    ),
                ));
            }
        }
    }
}

/// Rule `counter-discipline`: raw `+=`/`-=` on `Counters` fields (and
/// their trace-timeline mirrors) wraps at the u64 ceiling; the
/// saturating helpers are the only sanctioned mutation.
fn counter_discipline(source: &SourceFile, out: &mut Vec<(&'static str, u32, String)>) {
    if COUNTER_HOMES.contains(&source.scope.rel_path.as_str()) || source.scope.crate_name == "lint"
    {
        return;
    }
    for (k, token) in source.toks.iter().enumerate() {
        if source.in_test[k] {
            continue;
        }
        let t = token.text.as_str();
        if COUNTER_FIELDS.contains(&t) && matches!(tok(source, k + 1), "+=" | "-=") {
            out.push((
                "counter-discipline",
                token.line,
                format!(
                    "raw `{t} {}` — use the saturating Counters helpers (note_*/add_*) so \
                     fleet-scale tallies clamp instead of wrapping",
                    tok(source, k + 1)
                ),
            ));
        }
    }
}

/// Rule `panic-discipline`: `unwrap()`/`expect(` in engine/medium hot
/// paths. A mid-run panic tears down the trial, and recovery paths
/// differ across engines — surface errors as values instead.
fn panic_discipline(source: &SourceFile, out: &mut Vec<(&'static str, u32, String)>) {
    if !PANIC_HOT_PATHS.contains(&source.scope.rel_path.as_str()) {
        return;
    }
    let toks = &source.toks;
    for k in 0..toks.len() {
        if source.in_test[k] {
            continue;
        }
        let t = toks[k].text.as_str();
        if (t == "unwrap" || t == "expect")
            && k > 0
            && toks[k - 1].text == "."
            && tok(source, k + 1) == "("
        {
            out.push((
                "panic-discipline",
                toks[k].line,
                format!("`.{t}(` in an engine/medium hot path — handle the None/Err or justify with an allow"),
            ));
        }
    }
}

/// Rule `crate-hygiene`: every workspace crate root carries
/// `#![forbid(unsafe_code)]` and `#![warn(missing_docs)]`.
fn crate_hygiene(source: &SourceFile, out: &mut Vec<(&'static str, u32, String)>) {
    if !source.scope.is_lib_root {
        return;
    }
    if !source.text.contains("#![forbid(unsafe_code)]") {
        out.push((
            "crate-hygiene",
            1,
            format!(
                "crate `{}` is missing `#![forbid(unsafe_code)]`",
                source.scope.crate_name
            ),
        ));
    }
    if !source.text.contains("#![warn(missing_docs)]")
        && !source.text.contains("#![deny(missing_docs)]")
    {
        out.push((
            "crate-hygiene",
            1,
            format!(
                "crate `{}` is missing `#![warn(missing_docs)]`",
                source.scope.crate_name
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileScope;

    fn check(rel: &str, src: &str) -> Vec<Finding> {
        let source = SourceFile::parse(FileScope::from_rel_path(rel), src.to_string());
        check_file(&source).0
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn scope_tables_name_only_live_crates_and_files() {
        // A deleted crate or file must not leave a silent exemption or
        // an unguarded hot path behind.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root");
        for name in DETERMINISTIC_CRATES
            .iter()
            .chain(WALL_CLOCK_EXEMPT)
            .chain(RNG_EXEMPT)
        {
            assert!(
                root.join("crates").join(name).is_dir(),
                "no crate directory crates/{name}"
            );
        }
        for path in PANIC_HOT_PATHS
            .iter()
            .chain([&RNG_HOME])
            .chain(COUNTER_HOMES)
        {
            assert!(root.join(path).is_file(), "no file {path}");
        }
    }

    #[test]
    fn hash_container_flagged_in_deterministic_crate_only() {
        let src = "use std::collections::HashMap;\nstruct S { m: HashMap<u64, u32> }\n";
        assert_eq!(
            rules_of(&check("crates/core/src/x.rs", src)),
            ["ordered-iteration"]
        );
        assert!(check("crates/metrics/src/x.rs", src).is_empty());
    }

    #[test]
    fn iteration_over_hash_binding_flagged() {
        let src = "struct S { m: HashMap<u64, u32> }\nfn f(s: &S) { for k in s.m.keys() {} }\n";
        let f = check("crates/core/src/x.rs", src);
        assert!(f.iter().any(|f| f.message.contains("keys")), "{f:?}");
    }

    #[test]
    fn allow_with_reason_suppresses_and_counts() {
        let src = "struct S {\n    // ffd2d-lint: allow(ordered-iteration) — lookup-only\n    m: HashMap<u64, u32>,\n}\n";
        let source = SourceFile::parse(
            FileScope::from_rel_path("crates/core/src/x.rs"),
            src.to_string(),
        );
        let (findings, used) = check_file(&source);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(used, 1);
    }

    #[test]
    fn bare_allow_is_flagged() {
        let src = "// ffd2d-lint: allow(ordered-iteration)\nstruct S { m: HashMap<u64, u32> }\n";
        let f = check("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&f), ["bare-allow"]);
    }

    #[test]
    fn unused_allow_is_flagged() {
        let src = "// ffd2d-lint: allow(wall-clock) — stale\nfn f() {}\n";
        let f = check("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&f), ["unused-allow"]);
    }

    #[test]
    fn wall_clock_scoping() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(rules_of(&check("crates/phy/src/x.rs", src)), ["wall-clock"]);
        assert!(check("crates/telemetry/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn f() { let t = Instant::now(); x.unwrap(); }\n}\n";
        assert!(check("crates/phy/src/medium.rs", src).is_empty());
    }

    #[test]
    fn rng_discipline_patterns() {
        let src = "fn f(seed: u64) { let r = Xoshiro256StarStar::seed_from_u64(seed ^ 1); }\n";
        let f = check("crates/core/src/x.rs", src);
        assert!(f.iter().all(|f| f.rule == "rng-discipline"));
        assert_eq!(f.len(), 2, "{f:?}"); // construction + seed xor
        assert!(check("crates/sim/src/rng.rs", src).is_empty());
    }

    #[test]
    fn counter_discipline_flags_raw_bumps() {
        let src = "fn f(c: &mut Counters) { c.rx_ok += 1; }\n";
        assert_eq!(
            rules_of(&check("crates/phy/src/x.rs", src)),
            ["counter-discipline"]
        );
        // The helpers' own home is exempt.
        assert!(check("crates/sim/src/counters.rs", src).is_empty());
    }

    #[test]
    fn panic_discipline_only_in_hot_paths() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        for hot in ["crates/core/src/world.rs", "crates/core/src/runtime.rs"] {
            assert_eq!(rules_of(&check(hot, src)), ["panic-discipline"], "{hot}");
        }
        assert!(check("crates/core/src/outcome.rs", src).is_empty());
        // unwrap_or is fine.
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        assert!(check("crates/core/src/world.rs", src).is_empty());
    }

    #[test]
    fn crate_hygiene_requires_headers() {
        let f = check("crates/core/src/lib.rs", "//! docs\n");
        assert_eq!(rules_of(&f), ["crate-hygiene", "crate-hygiene"]);
        let clean = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n";
        assert!(check("crates/core/src/lib.rs", clean).is_empty());
    }
}
