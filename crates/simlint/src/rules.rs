//! The rule set: what each rule matches and how severe it is by default.
//!
//! Rules operate on *cleaned* code lines (comments and literal contents
//! already stripped by [`crate::scan::Cleaner`]), so a `.unwrap()` inside a
//! doc example or an error-message string never fires.

use std::fmt;

/// Identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// No wall-clock reads (`Instant::now`, `SystemTime::now`) in result
    /// paths: simulated time must come from the event queue.
    D1,
    /// No `HashMap`/`HashSet` in result paths: iteration order is
    /// nondeterministic; use `BTreeMap`/`BTreeSet` or an explicit sort.
    D2,
    /// No ambient/unseeded RNG (`thread_rng`, `from_entropy`, `OsRng`):
    /// all randomness must flow from the vendored seeded PRNG.
    D3,
    /// No `f64` `==`/`!=` comparisons against float operands and no lossy
    /// `as f32` casts in thermal/power math.
    D4,
    /// No `.unwrap()`/`.expect()`/`panic!` in library code outside
    /// `#[cfg(test)]`.
    R1,
    /// No silently discarded call results: `let _ = f(...)` swallows a
    /// `Result`/`PointOutcome`; bind and handle it or justify with a
    /// suppression.
    R2,
    /// Snapshot coverage: every named field of a type in the crate's
    /// snapshot/fork protocol must be explicitly copied in each copying
    /// method (`snapshot`/`fork`/`restore`/`clone`) or carry a
    /// `simlint::shared` marker for Arc-shared immutable state.
    S1,
    /// Checkpoint version-bump guard: the hash of every S1-governed
    /// snapshot field set across the workspace must match the
    /// `// simlint::ckpt_pin(version = N, fields = 0x…)` pin in the ckpt
    /// crate. A changed field set at an unchanged `CKPT_FORMAT_VERSION`
    /// means old checkpoint files would decode into differently-shaped
    /// state — bump the version and re-pin.
    S2,
    /// Every `unsafe` block/fn/impl needs an adjacent `// SAFETY:` comment
    /// (or a `# Safety` doc section on the item).
    U1,
    /// `unsafe` is only permitted in files allowlisted by per-crate policy
    /// (today: no file in any crate).
    U2,
    /// Feature consistency: every `cfg(feature = "...")` must name a
    /// feature declared in that crate's `Cargo.toml`, and a crate whose
    /// dependency declares a forwarded feature must re-export it.
    F1,
    /// Dead suppression: a `simlint::allow(...)` whose rule no longer
    /// fires on its line is itself a finding.
    A1,
    /// Public items must carry doc comments.
    Doc1,
}

/// How a finding is treated by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported, but does not fail the run unless `--deny-warnings`.
    Warn,
    /// Always fails the run.
    Deny,
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 13] = [
        Rule::D1,
        Rule::D2,
        Rule::D3,
        Rule::D4,
        Rule::R1,
        Rule::R2,
        Rule::S1,
        Rule::S2,
        Rule::U1,
        Rule::U2,
        Rule::F1,
        Rule::A1,
        Rule::Doc1,
    ];

    /// The stable string ID used in diagnostics and `simlint::allow(...)`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D4 => "D4",
            Rule::R1 => "R1",
            Rule::R2 => "R2",
            Rule::S1 => "S1",
            Rule::S2 => "S2",
            Rule::U1 => "U1",
            Rule::U2 => "U2",
            Rule::F1 => "F1",
            Rule::A1 => "A1",
            Rule::Doc1 => "Doc1",
        }
    }

    /// Parses a rule ID as written in a suppression comment.
    pub fn parse(s: &str) -> Option<Rule> {
        match s.trim() {
            "D1" => Some(Rule::D1),
            "D2" => Some(Rule::D2),
            "D3" => Some(Rule::D3),
            "D4" => Some(Rule::D4),
            "R1" => Some(Rule::R1),
            "R2" => Some(Rule::R2),
            "S1" => Some(Rule::S1),
            "S2" => Some(Rule::S2),
            "U1" => Some(Rule::U1),
            "U2" => Some(Rule::U2),
            "F1" => Some(Rule::F1),
            "A1" => Some(Rule::A1),
            "Doc1" => Some(Rule::Doc1),
            _ => None,
        }
    }

    /// Default severity before any `--deny-warnings` promotion.
    ///
    /// The deny tier holds the rules whose violation can silently corrupt
    /// replay identity (`D1`–`D3`), break it outright (`S1` — a field
    /// missing from a snapshot copy resumes with stale state), let a stale
    /// checkpoint format restore wrong state (`S2`), widen the unsafe
    /// surface (`U2`), or let a feature chain go stale (`F1`).
    pub fn default_severity(self) -> Severity {
        match self {
            Rule::D1 | Rule::D2 | Rule::D3 | Rule::S1 | Rule::S2 | Rule::U2 | Rule::F1 => {
                Severity::Deny
            }
            Rule::D4 | Rule::R1 | Rule::R2 | Rule::U1 | Rule::A1 | Rule::Doc1 => Severity::Warn,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warn => f.write_str("warning"),
            Severity::Deny => f.write_str("error"),
        }
    }
}

/// True if `needle` occurs in `haystack` on identifier boundaries.
fn contains_word(haystack: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(needle) {
        let at = start + pos;
        let before_ok = haystack[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        let after_ok = haystack[at + needle.len()..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// The trailing token of `text` (identifier/path/number characters).
fn last_token(text: &str) -> &str {
    let t = text.trim_end();
    let bytes = t.as_bytes();
    let mut i = bytes.len();
    while i > 0 {
        let c = bytes[i - 1] as char;
        if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | ':') {
            i -= 1;
        } else {
            break;
        }
    }
    &t[i..]
}

/// The leading token of `text`, with an optional unary minus.
fn first_token(text: &str) -> &str {
    let t = text.trim_start();
    let mut end = 0;
    for (i, c) in t.char_indices() {
        if i == 0 && c == '-' {
            end = 1;
            continue;
        }
        if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | ':') {
            end = i + c.len_utf8();
        } else {
            break;
        }
    }
    &t[..end]
}

/// Whether a token is (or names) a floating-point operand: a float literal
/// (`0.5`, `1e-9`, `3f64`) or an `f64::`/`f32::` associated constant.
fn is_float_operand(tok: &str) -> bool {
    let t = tok.strip_prefix('-').unwrap_or(tok);
    if t.is_empty() {
        return false;
    }
    if t.starts_with("f64::") || t.starts_with("f32::") {
        return true;
    }
    let (t, suffixed) = match t
        .strip_suffix("f64")
        .or_else(|| t.strip_suffix("f32"))
        .map(|r| r.strip_suffix('_').unwrap_or(r))
    {
        Some(rest) => (rest, true),
        None => (t, false),
    };
    if !t.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    let numeric = t
        .chars()
        .all(|c| c.is_ascii_digit() || matches!(c, '.' | '_' | 'e' | 'E' | '+' | '-'));
    if !numeric {
        return false;
    }
    suffixed || t.contains('.') || t.contains('e') || t.contains('E')
}

/// Scans for `==`/`!=` with a float operand on either side.
fn has_float_equality(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let two = &code[i..i + 2];
        let is_eq = two == "==";
        let is_ne = two == "!=";
        if is_eq || is_ne {
            // Skip `<=`, `>=`, `=>`, pattern `..=`, and longer runs of '='.
            let prev = if i > 0 { bytes[i - 1] as char } else { ' ' };
            let next = bytes.get(i + 2).map(|&b| b as char).unwrap_or(' ');
            let standalone = !matches!(prev, '<' | '>' | '=' | '.') && next != '=';
            // `!=` is fine as written; `=!` inside `==!cond` is not an op.
            if standalone && (is_ne || prev != '!') {
                let left = last_token(&code[..i]);
                let right = first_token(&code[i + 2..]);
                if is_float_operand(left) || is_float_operand(right) {
                    return true;
                }
            }
        }
        i += 1;
    }
    false
}

/// Scans for a lossy `as f32` cast.
fn has_as_f32(code: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find("as f32") {
        let at = start + pos;
        let before_ok = code[..at]
            .chars()
            .next_back()
            .is_some_and(|c| !c.is_alphanumeric() && c != '_');
        let after_ok = code[at + 6..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + 6;
    }
    false
}

/// True if a cleaned line starts a public item that needs a doc comment.
pub fn starts_pub_item(code_trimmed: &str) -> bool {
    let Some(rest) = code_trimmed.strip_prefix("pub ") else {
        // `pub(crate)`/`pub(super)` items are not public API.
        return false;
    };
    let rest = rest.trim_start();
    for kw in [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union", "unsafe",
        "async",
    ] {
        if rest.strip_prefix(kw).is_some_and(|after| {
            after
                .chars()
                .next()
                .is_none_or(|c| !c.is_alphanumeric() && c != '_')
        }) {
            return true;
        }
    }
    false
}

/// Runs every enabled rule against one cleaned code line.
///
/// `has_doc` reports whether a doc comment (possibly through attributes)
/// immediately precedes this line; it only matters for [`Rule::Doc1`].
pub fn check_line(code: &str, enabled: &[Rule], has_doc: bool) -> Vec<(Rule, String)> {
    let mut found = Vec::new();
    let trimmed = code.trim();
    for &rule in enabled {
        match rule {
            Rule::D1 => {
                if code.contains("Instant::now")
                    || code.contains("SystemTime::now")
                    || code.contains("std::time::Instant")
                    || code.contains("std::time::SystemTime")
                {
                    found.push((
                        rule,
                        "wall-clock read in a result path; simulated time must come from the \
                         event queue"
                            .to_string(),
                    ));
                }
            }
            Rule::D2 => {
                for ty in ["HashMap", "HashSet"] {
                    if contains_word(code, ty) {
                        found.push((
                            rule,
                            format!(
                                "{ty} has nondeterministic iteration order; use BTreeMap/BTreeSet \
                                 or sort explicitly before results"
                            ),
                        ));
                        break;
                    }
                }
            }
            Rule::D3 => {
                // Lines that visibly route through the workspace's seeded
                // machinery (`SimRng`, `derive_seed`) are deterministic by
                // construction — e.g. the faults crate forking per-layer RNGs
                // from the run seed — and are not unseeded-RNG findings even
                // when they mention entropy sources in passing.
                if contains_word(code, "SimRng") || contains_word(code, "derive_seed") {
                    continue;
                }
                for src in ["thread_rng", "from_entropy", "OsRng", "getrandom"] {
                    if contains_word(code, src) {
                        found.push((
                            rule,
                            format!("{src} is unseeded; all randomness must flow from SimRng"),
                        ));
                        break;
                    }
                }
                if code.contains("rand::random") {
                    found.push((
                        rule,
                        "rand::random is unseeded; all randomness must flow from SimRng"
                            .to_string(),
                    ));
                }
            }
            Rule::D4 => {
                if has_float_equality(code) {
                    found.push((
                        rule,
                        "exact float ==/!= comparison; use an epsilon, total_cmp, or integer \
                         representation"
                            .to_string(),
                    ));
                }
                if has_as_f32(code) {
                    found.push((
                        rule,
                        "lossy `as f32` cast in f64 math; keep full precision".to_string(),
                    ));
                }
            }
            Rule::R1 => {
                if code.contains(".unwrap()")
                    || code.contains(".expect(")
                    || contains_word(code, "panic!")
                {
                    found.push((
                        rule,
                        "unwrap/expect/panic in library code; return an error or justify with a \
                         suppression"
                            .to_string(),
                    ));
                }
            }
            Rule::R2 => {
                // `let _ = call(...)` discards a value the callee computed —
                // in supervised code that is typically a `Result` or a
                // `PointOutcome` whose failure then vanishes. A bare
                // `let _ = name;` (no call) is just silencing an unused
                // binding and stays legal.
                if let Some(pos) = code.find("let _ =") {
                    if code[pos + "let _ =".len()..].contains('(') {
                        found.push((
                            rule,
                            "silently discarded call result; bind and handle the value (or drop() \
                             it) or justify with a suppression"
                                .to_string(),
                        ));
                    }
                }
            }
            Rule::Doc1 => {
                if starts_pub_item(trimmed) && !has_doc {
                    found.push((rule, "public item without a doc comment".to_string()));
                }
            }
            // Item-level rules: evaluated over the parsed syntax of a whole
            // file (or crate/workspace) in `lib.rs`, not per line.
            Rule::S1 | Rule::S2 | Rule::U1 | Rule::U2 | Rule::F1 | Rule::A1 => {}
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_equality_detected() {
        assert!(has_float_equality("if p == 0.0 {"));
        assert!(has_float_equality("x != 1e-9"));
        assert!(has_float_equality("a == 1f64"));
        assert!(has_float_equality("t == f64::INFINITY"));
        assert!(has_float_equality("0.5 == x"));
    }

    #[test]
    fn non_float_equality_ignored() {
        assert!(!has_float_equality("if n == 0 {"));
        assert!(!has_float_equality("a.to_bits() == b.to_bits()"));
        assert!(!has_float_equality("x <= 0.0"));
        assert!(!has_float_equality("x >= 1.0"));
        assert!(!has_float_equality("0..=10"));
        assert!(!has_float_equality("|x| x == name"));
    }

    #[test]
    fn as_f32_detected() {
        assert!(has_as_f32("let y = x as f32;"));
        assert!(!has_as_f32("let y = x as f32_alike;"));
        assert!(!has_as_f32("bias f32x4"));
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("use std::collections::HashMap;", "HashMap"));
        assert!(!contains_word("MyHashMapLike", "HashMap"));
        assert!(!contains_word("thread_rng_shim", "thread_rng"));
    }

    #[test]
    fn pub_item_detection() {
        assert!(starts_pub_item("pub fn run() {"));
        assert!(starts_pub_item("pub struct Foo {"));
        assert!(starts_pub_item("pub unsafe fn f()"));
        assert!(!starts_pub_item("pub use crate::queue::EventQueue;"));
        assert!(!starts_pub_item("pub(crate) fn helper() {"));
        assert!(!starts_pub_item("fn private() {"));
    }

    #[test]
    fn d3_flags_unseeded_sources() {
        let hits = check_line("let mut rng = rand::thread_rng();", &[Rule::D3], false);
        assert_eq!(hits.len(), 1);
        let hits = check_line("let v = rand::random::<u64>();", &[Rule::D3], false);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn d3_skips_lines_routed_through_seeded_machinery() {
        // A seeded fork from the run seed is the sanctioned pattern; even a
        // line that also names an entropy source is not a finding.
        let clean = check_line(
            "let rng = SimRng::new(derive_seed(seed, index));",
            &[Rule::D3],
            false,
        );
        assert!(clean.is_empty());
        let clean = check_line(
            "let rng = SimRng::new(0); // not thread_rng",
            &[Rule::D3],
            false,
        );
        assert!(clean.is_empty());
        let clean = check_line("replace(thread_rng, SimRng::new(1))", &[Rule::D3], false);
        assert!(clean.is_empty());
        // The guard is D3-specific: other rules still fire on such lines.
        let hits = check_line("let x = SimRng::new(s).next().unwrap();", &[Rule::R1], false);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn r2_flags_discarded_call_results_only() {
        let hits = check_line("let _ = tx.send(result);", &[Rule::R2], false);
        assert_eq!(hits.len(), 1);
        let hits = check_line("    let _ = std::fs::remove_file(path);", &[Rule::R2], false);
        assert_eq!(hits.len(), 1);
        // Discarding a plain binding (no call) is an unused-variable
        // silencer, not a swallowed failure.
        let clean = check_line("let _ = cool_id;", &[Rule::R2], false);
        assert!(clean.is_empty());
        // Bound results are the handled path.
        let clean = check_line("let outcome = run_point(i);", &[Rule::R2], false);
        assert!(clean.is_empty());
    }

    #[test]
    fn r1_matches() {
        let hits = check_line("let x = map.get(&k).expect(\"present\");", &[Rule::R1], false);
        assert_eq!(hits.len(), 1);
        let clean = check_line("let x = map.get(&k).copied().unwrap_or(0);", &[Rule::R1], false);
        assert!(clean.is_empty());
    }
}
