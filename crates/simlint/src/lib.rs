//! simlint — workspace-native determinism and invariant lints.
//!
//! The reproduction's headline guarantee is bit-identical results at every
//! worker count; one stray `HashMap` iteration, wall-clock read, or unseeded
//! RNG in a hot path silently breaks that. `simlint` is a dependency-free
//! analysis engine over a hand-rolled Rust lexer ([`lexer`]) and item-level
//! parser ([`parse`]): comments/strings/char literals are handled exactly,
//! and on top of the per-line D/R/Doc rules the engine enforces item rules —
//! snapshot coverage (`S1`), unsafe audit (`U1`/`U2`), feature consistency
//! (`F1`), and dead-suppression detection (`A1`) — with `file:line`
//! diagnostics, rule IDs, severity levels, and `// simlint::allow(rule-id)`
//! suppressions.
//!
//! The rule set lives in [`rules::Rule`]; which rules apply to which crate —
//! plus where `unsafe` may live and which types the snapshot-coverage
//! contract governs — is resolved once per crate by
//! [`policy::policy_for_crate`]. Vendored shims (`proptest`, `criterion`)
//! and simlint itself are exempt.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod lexer;
pub mod manifest;
pub mod parse;
pub mod policy;
pub mod rules;
pub mod scan;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

pub use parse::CfgView;
pub use rules::{Rule, Severity};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

/// The outcome of linting one source file.
#[derive(Debug, Default)]
pub struct FileLint {
    /// Findings that were not suppressed.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of findings silenced by `simlint::allow` comments.
    pub suppressed: usize,
}

/// The outcome of linting the whole workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All unsuppressed findings, ordered by file then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Total suppressions honored across all files.
    pub suppressed: usize,
    /// The computed hash of the workspace's S1-governed snapshot field
    /// sets, when the S2 checkpoint guard ran (`--ckpt-hash` prints it).
    pub ckpt_fields_hash: Option<u64>,
}

impl Report {
    /// Counts findings at the given effective severity.
    pub fn count_at(&self, severity: Severity, deny_warnings: bool) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| effective_severity(d.rule, deny_warnings) == severity)
            .count()
    }

    /// Finding counts per rule, in [`Rule::ALL`] order, zero counts
    /// omitted.
    pub fn per_rule_counts(&self) -> Vec<(Rule, usize)> {
        Rule::ALL
            .iter()
            .filter_map(|&rule| {
                let n = self.diagnostics.iter().filter(|d| d.rule == rule).count();
                (n > 0).then_some((rule, n))
            })
            .collect()
    }
}

/// A rule's severity after any `--deny-warnings` promotion.
pub fn effective_severity(rule: Rule, deny_warnings: bool) -> Severity {
    if deny_warnings {
        Severity::Deny
    } else {
        rule.default_severity()
    }
}

/// Which rules apply to a crate directory under `crates/` (the rule-set
/// slice of [`policy::policy_for_crate`], kept as a convenience).
pub fn rules_for_crate(dir_name: &str) -> &'static [Rule] {
    policy::policy_for_crate(dir_name).rules
}

/// Per-file exemptions that are part of the policy rather than inline
/// suppressions.
///
/// The vendored PRNG is the one place allowed to talk about RNG seeding
/// machinery — it *is* the seeded PRNG the rest of the workspace must use.
pub fn file_exempt(crate_name: &str, rel_path: &str, rule: Rule) -> bool {
    crate_name == "sim-core" && rel_path.ends_with("rng.rs") && rule == Rule::D3
}

/// Options controlling a single-source lint (what [`lint_workspace`]
/// derives from crate policy and manifests, spelled out for fixtures).
#[derive(Debug, Default)]
pub struct LintOptions {
    /// The cfg view (enabled features) to analyze under.
    pub view: CfgView,
    /// Types held to the S1 snapshot-coverage contract.
    pub snapshot_types: Vec<String>,
    /// Whether `unsafe` is allowlisted for this file. Defaults to `true`
    /// so `U2` stays quiet unless a caller states a policy.
    pub unsafe_allowed: bool,
    /// Declared Cargo features, enabling the `F1` undeclared-cfg check
    /// when `Some`.
    pub declared_features: Option<BTreeSet<String>>,
}

impl LintOptions {
    /// Options with `unsafe` allowed and no item-rule context.
    pub fn permissive() -> Self {
        LintOptions {
            unsafe_allowed: true,
            ..LintOptions::default()
        }
    }
}

/// Extracts every rule named by `simlint::allow(...)` in a comment.
fn parse_allows(comment: &str) -> Vec<Rule> {
    let mut allows = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("simlint::allow(") {
        let args = &rest[pos + "simlint::allow(".len()..];
        if let Some(close) = args.find(')') {
            for id in args[..close].split(',') {
                if let Some(rule) = Rule::parse(id) {
                    allows.push(rule);
                }
            }
            rest = &args[close + 1..];
        } else {
            break;
        }
    }
    allows
}

/// A raw finding before suppression is applied.
#[derive(Debug)]
struct RawFinding {
    line: usize,
    rule: Rule,
    message: String,
}

/// One `simlint::allow(rule)` occurrence, bound to the line it governs.
#[derive(Debug)]
struct AllowSite {
    /// Line the comment itself is on.
    decl_line: usize,
    /// Code line the suppression governs (`None` if the comment trails
    /// the file and never binds).
    bound_line: Option<usize>,
    rule: Rule,
    used: bool,
}

/// Everything extracted from one file; crate-level rules (`S1`, `A1`) and
/// suppression resolution run over these in [`finish_files`].
#[derive(Debug)]
struct FileAnalysis {
    path: PathBuf,
    label: String,
    enabled: Vec<Rule>,
    findings: Vec<RawFinding>,
    allows: Vec<AllowSite>,
    masked: Vec<bool>,
    syntax: parse::FileSyntax,
}

/// Runs the per-file passes: line rules, unsafe audit, cfg-feature refs.
fn analyze_file(
    path: PathBuf,
    label: String,
    source: &str,
    enabled: &[Rule],
    view: &CfgView,
    unsafe_allowed: bool,
    declared_features: Option<&BTreeSet<String>>,
) -> FileAnalysis {
    let lines = scan::clean_source(source);
    let syntax = parse::parse(source, view);
    let masked = syntax.masked_lines(lines.len());
    let mut findings = Vec::new();

    // Line rules (D1–D4, R1, R2, Doc1) over cleaned code, skipping lines
    // masked out by the cfg view (test modules, disabled features).
    let mut has_doc = false;
    let mut attr_depth: i64 = 0;
    for (idx, cl) in lines.iter().enumerate() {
        let line_no = idx + 1;
        let code_t = cl.code.trim();
        if code_t.is_empty() {
            if cl.doc {
                has_doc = true;
            }
            continue;
        }
        let is_attr = attr_depth > 0 || code_t.starts_with("#[") || code_t.starts_with("#![");
        if is_attr {
            for c in cl.code.chars() {
                match c {
                    '[' => attr_depth += 1,
                    ']' => attr_depth = (attr_depth - 1).max(0),
                    _ => {}
                }
            }
        }
        if !is_attr && !masked.get(idx).copied().unwrap_or(false) {
            for (rule, message) in rules::check_line(&cl.code, enabled, has_doc) {
                findings.push(RawFinding {
                    line: line_no,
                    rule,
                    message,
                });
            }
        }
        // Doc adjacency: attributes between the doc comment and the item
        // keep it attached; any other code line consumes it.
        if !is_attr {
            has_doc = false;
        }
    }

    // Suppression sites: same-line allows bind to their own line;
    // comment-only allows bind to the next code line.
    let mut allows: Vec<AllowSite> = Vec::new();
    let mut pending: Vec<(usize, Rule)> = Vec::new();
    for (idx, cl) in lines.iter().enumerate() {
        let line_no = idx + 1;
        let here = parse_allows(&cl.comment);
        if cl.code.trim().is_empty() {
            pending.extend(here.into_iter().map(|r| (line_no, r)));
        } else {
            for rule in here {
                allows.push(AllowSite {
                    decl_line: line_no,
                    bound_line: Some(line_no),
                    rule,
                    used: false,
                });
            }
            for (decl_line, rule) in pending.drain(..) {
                allows.push(AllowSite {
                    decl_line,
                    bound_line: Some(line_no),
                    rule,
                    used: false,
                });
            }
        }
    }
    for (decl_line, rule) in pending {
        allows.push(AllowSite {
            decl_line,
            bound_line: None,
            rule,
            used: false,
        });
    }

    // U1/U2: unsafe audit. The parser never descends into cfg-disabled
    // items, so every recorded site is live under this view.
    if enabled.contains(&Rule::U1) {
        for site in &syntax.unsafe_sites {
            if !site.has_safety {
                findings.push(RawFinding {
                    line: site.line,
                    rule: Rule::U1,
                    message: "unsafe without an adjacent `// SAFETY:` comment (or a `# Safety` \
                              doc section)"
                        .to_string(),
                });
            }
        }
    }
    if enabled.contains(&Rule::U2) && !unsafe_allowed {
        for site in &syntax.unsafe_sites {
            findings.push(RawFinding {
                line: site.line,
                rule: Rule::U2,
                message: "unsafe outside the per-crate allowlist (every governed crate's \
                          allowlist is empty)"
                    .to_string(),
            });
        }
    }

    // F1 (per-file half): every cfg(feature = "...") must name a declared
    // feature. Masking is irrelevant here — the compiler evaluates the
    // attribute text under every view.
    if enabled.contains(&Rule::F1) {
        if let Some(declared) = declared_features {
            let mut seen = BTreeSet::new();
            for r in &syntax.cfg_refs {
                if !declared.contains(&r.feature) && seen.insert((r.line, r.feature.clone())) {
                    findings.push(RawFinding {
                        line: r.line,
                        rule: Rule::F1,
                        message: format!(
                            "cfg(feature = \"{}\") but `{}` is not declared in this crate's \
                             Cargo.toml [features]",
                            r.feature, r.feature
                        ),
                    });
                }
            }
        }
    }

    FileAnalysis {
        path,
        label,
        enabled: enabled.to_vec(),
        findings,
        allows,
        masked,
        syntax,
    }
}

/// The fn names that count as snapshot/fork-protocol copying surface.
const PROTOCOL_FNS: &[&str] = &["snapshot", "fork", "restore", "clone"];

/// Crate-level S1 pass over a set of analyses (struct and impls may live
/// in different files of the same crate).
fn snapshot_coverage(analyses: &[FileAnalysis], snapshot_types: &[&str]) -> Vec<(usize, RawFinding)> {
    let mut out = Vec::new();
    let fallback = analyses
        .iter()
        .position(|a| a.label.ends_with("lib.rs"))
        .unwrap_or(0);
    for &ty in snapshot_types {
        let Some((si, sdef)) = analyses
            .iter()
            .enumerate()
            .find_map(|(i, a)| a.syntax.structs.iter().find(|s| s.name == ty).map(|s| (i, s)))
        else {
            out.push((
                fallback,
                RawFinding {
                    line: 1,
                    rule: Rule::S1,
                    message: format!(
                        "snapshot-protocol type `{ty}` is named in policy but not defined in \
                         this crate"
                    ),
                },
            ));
            continue;
        };
        let field_names: BTreeSet<&str> = sdef.fields.iter().map(|f| f.name.as_str()).collect();
        // Protocol methods: snapshot/fork/restore/clone in `impl Ty` or
        // `impl Clone for Ty`. A method *copies* iff its body mentions at
        // least one field of Ty; delegating bodies (`self.clone()`) are
        // exempt — the copy they delegate to is checked instead.
        let mut copying: Vec<(usize, &parse::FnDef)> = Vec::new();
        let mut protocol_seen = false;
        for (i, a) in analyses.iter().enumerate() {
            for imp in &a.syntax.impls {
                if imp.is_trait_def || imp.type_name != ty {
                    continue;
                }
                if !matches!(imp.trait_name.as_deref(), None | Some("Clone")) {
                    continue;
                }
                for f in &imp.fns {
                    if !PROTOCOL_FNS.contains(&f.name.as_str()) {
                        continue;
                    }
                    protocol_seen = true;
                    if f.body_idents.iter().any(|id| field_names.contains(id.as_str())) {
                        copying.push((i, f));
                    }
                }
            }
        }
        if copying.is_empty() {
            // Derived Clone is a complete field-wise copy by construction;
            // anything else means the type cannot actually be snapshotted.
            if !sdef.derives.iter().any(|d| d == "Clone") {
                let detail = if protocol_seen {
                    "its protocol methods only delegate and it does not #[derive(Clone)]"
                } else {
                    "it has neither a snapshot/fork/clone method nor #[derive(Clone)]"
                };
                out.push((
                    si,
                    RawFinding {
                        line: sdef.line,
                        rule: Rule::S1,
                        message: format!("`{ty}` participates in the snapshot protocol but {detail}"),
                    },
                ));
            }
            continue;
        }
        for (i, f) in copying {
            for field in &sdef.fields {
                if field.shared || f.body_idents.contains(&field.name) {
                    continue;
                }
                out.push((
                    i,
                    RawFinding {
                        line: f.line,
                        rule: Rule::S1,
                        message: format!(
                            "field `{}` of `{ty}` is not copied in `{}()`; copy it explicitly \
                             or mark the field `// simlint::shared`",
                            field.name, f.name
                        ),
                    },
                ));
            }
        }
    }
    out
}

/// Applies crate-level rules and suppression to a crate's analyses.
fn finish_files(
    analyses: &mut [FileAnalysis],
    crate_rules: &[Rule],
    snapshot_types: &[&str],
) -> (Vec<Diagnostic>, usize) {
    if crate_rules.contains(&Rule::S1) && !snapshot_types.is_empty() {
        for (i, finding) in snapshot_coverage(analyses, snapshot_types) {
            analyses[i].findings.push(finding);
        }
    }

    let mut diagnostics = Vec::new();
    let mut suppressed = 0usize;
    for a in analyses.iter_mut() {
        for finding in &a.findings {
            let site = a
                .allows
                .iter_mut()
                .find(|s| s.bound_line == Some(finding.line) && s.rule == finding.rule);
            if let Some(site) = site {
                site.used = true;
                suppressed += 1;
            } else {
                diagnostics.push(Diagnostic {
                    file: a.label.clone(),
                    line: finding.line,
                    rule: finding.rule,
                    message: finding.message.clone(),
                });
            }
        }
        // A1: a suppression whose rule no longer fires on its line is
        // itself a finding (not suppressible — fix it by deleting it).
        if a.enabled.contains(&Rule::A1) {
            for site in &a.allows {
                if site.used {
                    continue;
                }
                // A suppression bound inside a masked region cannot be
                // judged under this view; leave it alone.
                if let Some(b) = site.bound_line {
                    if a.masked.get(b - 1).copied().unwrap_or(false) {
                        continue;
                    }
                }
                diagnostics.push(Diagnostic {
                    file: a.label.clone(),
                    line: site.decl_line,
                    rule: Rule::A1,
                    message: format!(
                        "dead suppression: simlint::allow({}) but {} does not fire on the \
                         governed line; delete the comment",
                        site.rule, site.rule
                    ),
                });
            }
        }
    }
    (diagnostics, suppressed)
}

/// Lints one file's source text under the given rule set with default
/// options (permissive unsafe policy, no snapshot types, no manifest).
///
/// `file` is the path recorded in diagnostics; it does not need to exist on
/// disk, which is what lets the self-tests lint fixture strings.
pub fn lint_source(file: &str, source: &str, enabled: &[Rule]) -> FileLint {
    lint_source_with(file, source, enabled, &LintOptions::permissive())
}

/// Lints one file's source text with explicit item-rule context.
pub fn lint_source_with(
    file: &str,
    source: &str,
    enabled: &[Rule],
    opts: &LintOptions,
) -> FileLint {
    let mut analyses = vec![analyze_file(
        PathBuf::from(file),
        file.to_string(),
        source,
        enabled,
        &opts.view,
        opts.unsafe_allowed,
        opts.declared_features.as_ref(),
    )];
    let types: Vec<&str> = opts.snapshot_types.iter().map(String::as_str).collect();
    let (mut diagnostics, suppressed) = finish_files(&mut analyses, enabled, &types);
    diagnostics.sort_by_key(|d| (d.line, d.rule));
    FileLint {
        diagnostics,
        suppressed,
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("simlint: cannot read dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Relative display path (`/`-separated) of `path` under `root`.
fn rel_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Files excluded from this view because a cfg-disabled `mod x;` gates
/// them (e.g. a `#[cfg(feature = "invariants")] mod checks;` without
/// `--features invariants`).
fn excluded_mod_files(analyses: &[FileAnalysis]) -> (Vec<PathBuf>, Vec<PathBuf>) {
    let mut exact = Vec::new();
    let mut prefixes = Vec::new();
    for a in analyses {
        let is_root_file = a
            .path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| matches!(n, "lib.rs" | "main.rs" | "mod.rs"));
        let base = if is_root_file {
            a.path.parent().map(Path::to_path_buf)
        } else {
            a.path.parent().map(|p| {
                p.join(a.path.file_stem().map(|s| s.to_os_string()).unwrap_or_default())
            })
        };
        let Some(base) = base else { continue };
        for m in &a.syntax.mods {
            if m.enabled {
                continue;
            }
            exact.push(base.join(format!("{}.rs", m.name)));
            prefixes.push(base.join(&m.name));
        }
    }
    (exact, prefixes)
}

/// Analyzes one crate's `src/` tree: reads, parses, applies per-file and
/// crate-level rules, and drops files gated out by the cfg view.
///
/// `field_sets` accumulates this crate's S1-governed snapshot field sets
/// for the workspace-level S2 checkpoint guard.
#[allow(clippy::too_many_arguments)]
fn lint_crate_sources(
    root: &Path,
    src: &Path,
    crate_label_prefix: &str,
    pol: &policy::CratePolicy,
    declared: &BTreeSet<String>,
    view: &CfgView,
    report: &mut Report,
    field_sets: &mut Vec<SnapshotFieldSet>,
) -> Result<(), String> {
    let mut files = Vec::new();
    collect_rs_files(src, &mut files)?;
    let mut analyses = Vec::new();
    for path in files {
        let label = rel_label(root, &path);
        let crate_rel = label
            .strip_prefix(crate_label_prefix)
            .unwrap_or(&label)
            .to_string();
        let per_file: Vec<Rule> = pol
            .rules
            .iter()
            .copied()
            .filter(|&r| !file_exempt(pol.name, &label, r))
            .collect();
        let source = fs::read_to_string(&path)
            .map_err(|e| format!("simlint: cannot read {label}: {e}"))?;
        let unsafe_ok = pol.unsafe_files.contains(&crate_rel.as_str());
        analyses.push(analyze_file(
            path,
            label,
            &source,
            &per_file,
            view,
            unsafe_ok,
            Some(declared),
        ));
    }
    let (exact, prefixes) = excluded_mod_files(&analyses);
    analyses.retain(|a| {
        !exact.contains(&a.path) && !prefixes.iter().any(|p| a.path.starts_with(p))
    });
    report.files_scanned += analyses.len();
    for &ty in pol.snapshot_types {
        let Some(sdef) = analyses
            .iter()
            .find_map(|a| a.syntax.structs.iter().find(|s| s.name == ty))
        else {
            continue; // S1 reports the missing definition.
        };
        let mut fields: Vec<String> = sdef
            .fields
            .iter()
            .filter(|f| !f.shared)
            .map(|f| f.name.clone())
            .collect();
        fields.sort();
        field_sets.push(SnapshotFieldSet {
            crate_name: pol.name.to_string(),
            type_name: ty.to_string(),
            fields,
        });
    }
    let (diags, suppressed) = finish_files(&mut analyses, pol.rules, pol.snapshot_types);
    report.suppressed += suppressed;
    report.diagnostics.extend(diags);
    Ok(())
}

/// Workspace-level F1: a crate whose (non-dev) workspace dependency
/// declares a forwarded feature must declare that feature and forward it
/// as `"dep/feature"`.
///
/// Each entry is `(diagnostic label, parsed manifest, F1 enabled for that
/// crate)`. Public so the self-tests can exercise the forwarding check on
/// fixture manifests without a workspace on disk.
pub fn check_feature_forwarding(
    manifests: &[(String, manifest::Manifest, bool)],
    report: &mut Report,
) {
    let by_package: BTreeMap<&str, &manifest::Manifest> = manifests
        .iter()
        .map(|(_, m, _)| (m.package_name.as_str(), m))
        .collect();
    for (label, m, f1_enabled) in manifests {
        if !f1_enabled {
            continue;
        }
        for (dep, &dep_line) in &m.dependencies {
            let Some(dep_manifest) = by_package.get(dep.as_str()) else {
                continue;
            };
            for &feature in policy::FORWARDED_FEATURES {
                if !dep_manifest.features.contains_key(feature) {
                    continue;
                }
                let forward = format!("{dep}/{feature}");
                match m.features.get(feature) {
                    None => report.diagnostics.push(Diagnostic {
                        file: label.clone(),
                        line: m.features_header_line.unwrap_or(dep_line),
                        rule: Rule::F1,
                        message: format!(
                            "dependency `{dep}` declares forwarded feature `{feature}` but this \
                             crate does not re-export it (add `{feature} = [\"{forward}\"]`)"
                        ),
                    }),
                    Some(decl) if !decl.enables.iter().any(|e| e == &forward) => {
                        report.diagnostics.push(Diagnostic {
                            file: label.clone(),
                            line: decl.line,
                            rule: Rule::F1,
                            message: format!(
                                "feature `{feature}` does not forward to `{forward}`; the \
                                 hand-maintained chain is stale"
                            ),
                        });
                    }
                    Some(_) => {}
                }
            }
        }
    }
}

/// One S1-governed snapshot type's copied field set, collected during the
/// workspace scan for the S2 checkpoint version-bump guard.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SnapshotFieldSet {
    /// Crate directory name under `crates/`.
    pub crate_name: String,
    /// The snapshot-protocol type the fields belong to.
    pub type_name: String,
    /// Its copied (non-`simlint::shared`) field names, sorted.
    pub fields: Vec<String>,
}

/// FNV-1a 64-bit. simlint keeps its own copy so the guard stays
/// dependency-free; the constants match the ckpt crate's checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The canonical hash of the workspace's S1-governed snapshot field sets:
/// FNV-1a64 over sorted `crate/type.field` lines. Shared (`simlint::shared`)
/// fields are excluded — they never reach an encoder.
pub fn snapshot_fields_hash(sets: &[SnapshotFieldSet]) -> u64 {
    let mut sorted: Vec<&SnapshotFieldSet> = sets.iter().collect();
    sorted.sort();
    let mut text = String::new();
    for set in sorted {
        for field in &set.fields {
            text.push_str(&set.crate_name);
            text.push('/');
            text.push_str(&set.type_name);
            text.push('.');
            text.push_str(field);
            text.push('\n');
        }
    }
    fnv1a64(text.as_bytes())
}

/// A parsed `// simlint::ckpt_pin(version = N, fields = 0x…)` comment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkptPin {
    /// 1-based line the pin comment is on.
    pub line: usize,
    /// The `CKPT_FORMAT_VERSION` the pin was written for.
    pub version: u64,
    /// The snapshot-field-set hash recorded at that version.
    pub fields: u64,
}

/// Extracts the `simlint::ckpt_pin(...)` comment from a source file.
pub fn parse_ckpt_pin(source: &str) -> Option<CkptPin> {
    for (idx, cl) in scan::clean_source(source).iter().enumerate() {
        let Some(pos) = cl.comment.find("simlint::ckpt_pin(") else {
            continue;
        };
        let args = &cl.comment[pos + "simlint::ckpt_pin(".len()..];
        let Some(close) = args.find(')') else { continue };
        let mut version = None;
        let mut fields = None;
        for part in args[..close].split(',') {
            let Some((key, value)) = part.split_once('=') else {
                continue;
            };
            match key.trim() {
                "version" => version = value.trim().parse::<u64>().ok(),
                "fields" => {
                    fields = value
                        .trim()
                        .strip_prefix("0x")
                        .and_then(|h| u64::from_str_radix(&h.replace('_', ""), 16).ok());
                }
                _ => {}
            }
        }
        if let (Some(version), Some(fields)) = (version, fields) {
            return Some(CkptPin {
                line: idx + 1,
                version,
                fields,
            });
        }
    }
    None
}

/// Finds the `const CKPT_FORMAT_VERSION` declaration and its value,
/// returning `(line, value)`.
fn parse_ckpt_version(source: &str) -> Option<(usize, u64)> {
    for (idx, cl) in scan::clean_source(source).iter().enumerate() {
        let Some(pos) = cl.code.find("const CKPT_FORMAT_VERSION") else {
            continue;
        };
        let rest = &cl.code[pos..];
        let Some(eq) = rest.find('=') else { continue };
        let digits: String = rest[eq + 1..]
            .chars()
            .skip_while(|c| c.is_whitespace())
            .take_while(|c| c.is_ascii_digit() || *c == '_')
            .collect();
        if let Ok(value) = digits.replace('_', "").parse::<u64>() {
            return Some((idx + 1, value));
        }
    }
    None
}

/// S2: the checkpoint version-bump guard over the ckpt crate's source.
///
/// `computed` is [`snapshot_fields_hash`] over the live workspace. Three
/// ways to fire: no parsable pin/version at all, a pin recording a version
/// other than the current `CKPT_FORMAT_VERSION` (stale pin), or — the case
/// the rule exists for — the field-set hash changing while the format
/// version did not (someone altered replay state without bumping).
///
/// Public so the self-tests can exercise the guard on fixture sources.
pub fn check_ckpt_pin(label: &str, source: &str, computed: u64) -> Vec<Diagnostic> {
    let pin = parse_ckpt_pin(source);
    let version = parse_ckpt_version(source);
    let (Some(pin), Some((version_line, version))) = (pin, version) else {
        let missing = match (pin, version) {
            (None, None) => "neither a `simlint::ckpt_pin(...)` comment nor a `const \
                             CKPT_FORMAT_VERSION` declaration",
            (None, _) => "a `simlint::ckpt_pin(version = N, fields = 0x...)` comment",
            _ => "a `const CKPT_FORMAT_VERSION` declaration",
        };
        return vec![Diagnostic {
            file: label.to_string(),
            line: 1,
            rule: Rule::S2,
            message: format!(
                "checkpoint guard cannot run: this crate is missing {missing}; pin the \
                 current snapshot field sets as `simlint::ckpt_pin(version = <N>, fields = \
                 0x{computed:016x})`"
            ),
        }];
    };
    if pin.version != version {
        return vec![Diagnostic {
            file: label.to_string(),
            line: pin.line,
            rule: Rule::S2,
            message: format!(
                "stale ckpt_pin: CKPT_FORMAT_VERSION is {version} but the pin records \
                 version {}; re-pin as `simlint::ckpt_pin(version = {version}, fields = \
                 0x{computed:016x})`",
                pin.version
            ),
        }];
    }
    if pin.fields != computed {
        return vec![Diagnostic {
            file: label.to_string(),
            line: version_line,
            rule: Rule::S2,
            message: format!(
                "snapshot field sets changed without a format-version bump: the workspace's \
                 S1-governed fields hash to 0x{computed:016x} but the pin records \
                 0x{:016x} at the same version {version}; bump CKPT_FORMAT_VERSION and \
                 re-pin with the new hash",
                pin.fields
            ),
        }];
    }
    Vec::new()
}

/// Lints every governed source file in the workspace rooted at `root`,
/// under the default cfg view (no features enabled).
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    lint_workspace_with(root, &CfgView::default())
}

/// Lints the workspace under an explicit cfg view (`--features ...`).
///
/// Scope: `crates/*/src/**/*.rs` (per-crate policy), the facade package's
/// own `src/`, and every governed crate's `Cargo.toml` (feature
/// forwarding). Integration tests, benches, and examples are test code by
/// construction and are not scanned. Files gated out by the view (a
/// cfg-disabled `mod x;`) are excluded; lint under `--features <name>` to
/// cover them.
pub fn lint_workspace_with(root: &Path, view: &CfgView) -> Result<Report, String> {
    let mut report = Report::default();
    // (workspace-relative Cargo.toml label, parsed manifest, F1 enabled)
    let mut manifests: Vec<(String, manifest::Manifest, bool)> = Vec::new();
    let mut field_sets: Vec<SnapshotFieldSet> = Vec::new();
    let mut ckpt_lib: Option<PathBuf> = None;

    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("simlint: cannot read {}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    for crate_dir in crate_dirs {
        let name = crate_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let pol = policy::policy_for_crate(&name);
        if pol.rules.is_empty() {
            continue;
        }
        let manifest_path = crate_dir.join("Cargo.toml");
        let parsed = fs::read_to_string(&manifest_path)
            .ok()
            .map(|s| manifest::parse(&s));
        let declared: BTreeSet<String> = parsed
            .as_ref()
            .map(|m| m.features.keys().cloned().collect())
            .unwrap_or_default();
        if let Some(m) = parsed {
            manifests.push((
                rel_label(root, &manifest_path),
                m,
                pol.rules.contains(&Rule::F1),
            ));
        }
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        if pol.rules.contains(&Rule::S2) {
            ckpt_lib = Some(src.join("lib.rs"));
        }
        lint_crate_sources(
            root,
            &src,
            &format!("crates/{name}/"),
            &pol,
            &declared,
            view,
            &mut report,
            &mut field_sets,
        )?;
    }

    // The facade package's own sources and manifest, if any.
    let facade_src = root.join("src");
    let facade_manifest = root.join("Cargo.toml");
    let facade_pol = policy::facade_policy();
    let parsed = fs::read_to_string(&facade_manifest)
        .ok()
        .map(|s| manifest::parse(&s));
    let declared: BTreeSet<String> = parsed
        .as_ref()
        .map(|m| m.features.keys().cloned().collect())
        .unwrap_or_default();
    if let Some(m) = parsed {
        manifests.push((
            rel_label(root, &facade_manifest),
            m,
            facade_pol.rules.contains(&Rule::F1),
        ));
    }
    if facade_src.is_dir() {
        lint_crate_sources(
            root,
            &facade_src,
            "src/",
            &facade_pol,
            &declared,
            view,
            &mut report,
            &mut field_sets,
        )?;
    }

    check_feature_forwarding(&manifests, &mut report);

    // S2: the checkpoint version-bump guard, once the whole workspace's
    // snapshot field sets are in hand. Like feature forwarding, this is a
    // workspace-level pass — its findings are not line-suppressible.
    if let Some(ckpt_lib) = ckpt_lib {
        if ckpt_lib.is_file() {
            let label = rel_label(root, &ckpt_lib);
            let source = fs::read_to_string(&ckpt_lib)
                .map_err(|e| format!("simlint: cannot read {label}: {e}"))?;
            let computed = snapshot_fields_hash(&field_sets);
            report.diagnostics.extend(check_ckpt_pin(&label, &source, computed));
            report.ckpt_fields_hash = Some(computed);
        }
    }

    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_module_is_skipped() {
        let src = "fn lib() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { x.unwrap(); }\n\
                   }\n";
        let lint = lint_source("x.rs", src, &[Rule::R1]);
        assert!(lint.diagnostics.is_empty());
    }

    #[test]
    fn violation_after_test_module_still_fires() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                       fn t() {}\n\
                   }\n\
                   fn lib() { x.unwrap(); }\n";
        let lint = lint_source("x.rs", src, &[Rule::R1]);
        assert_eq!(lint.diagnostics.len(), 1);
        assert_eq!(lint.diagnostics[0].line, 5);
    }

    #[test]
    fn same_line_suppression() {
        let src = "fn f() { x.unwrap(); } // simlint::allow(R1): infallible here\n";
        let lint = lint_source("x.rs", src, &[Rule::R1]);
        assert!(lint.diagnostics.is_empty());
        assert_eq!(lint.suppressed, 1);
    }

    #[test]
    fn preceding_line_suppression() {
        let src = "// simlint::allow(D2): ordering handled by explicit sort below\n\
                   use std::collections::HashMap;\n";
        let lint = lint_source("x.rs", src, &[Rule::D2]);
        assert!(lint.diagnostics.is_empty());
        assert_eq!(lint.suppressed, 1);
    }

    #[test]
    fn suppression_does_not_leak_to_later_lines() {
        let src = "// simlint::allow(R1): first only\n\
                   fn a() { x.unwrap(); }\n\
                   fn b() { y.unwrap(); }\n";
        let lint = lint_source("x.rs", src, &[Rule::R1]);
        assert_eq!(lint.diagnostics.len(), 1);
        assert_eq!(lint.diagnostics[0].line, 3);
    }

    #[test]
    fn doc1_respects_doc_comments_and_attributes() {
        let src = "/// Documented.\n\
                   #[derive(Debug)]\n\
                   pub struct Ok1;\n\
                   pub struct Missing;\n";
        let lint = lint_source("x.rs", src, &[Rule::Doc1]);
        assert_eq!(lint.diagnostics.len(), 1);
        assert_eq!(lint.diagnostics[0].line, 4);
    }

    #[test]
    fn tokens_inside_strings_do_not_fire() {
        let src = "fn f() { let s = \"call .unwrap() on a HashMap\"; }\n";
        let lint = lint_source("x.rs", src, &[Rule::R1, Rule::D2]);
        assert!(lint.diagnostics.is_empty());
    }

    #[test]
    fn policy_exempts_shims() {
        assert!(rules_for_crate("proptest").is_empty());
        assert!(rules_for_crate("criterion").is_empty());
        assert!(rules_for_crate("simlint").is_empty());
        assert!(rules_for_crate("sim-core").contains(&Rule::Doc1));
        assert!(!rules_for_crate("thermal").contains(&Rule::Doc1));
    }

    #[test]
    fn r2_governs_the_supervised_crates() {
        for name in ["harness", "cli", "bench"] {
            assert!(rules_for_crate(name).contains(&Rule::R2), "{name}");
        }
        for name in ["thermal", "sim-core", "simlint"] {
            assert!(!rules_for_crate(name).contains(&Rule::R2), "{name}");
        }
    }

    #[test]
    fn rng_file_exempt_from_d3_only() {
        assert!(file_exempt("sim-core", "crates/sim-core/src/rng.rs", Rule::D3));
        assert!(!file_exempt("sim-core", "crates/sim-core/src/rng.rs", Rule::R1));
        assert!(!file_exempt("sched", "crates/sched/src/rng.rs", Rule::D3));
    }

    #[test]
    fn dead_suppression_fires_only_with_a1_enabled() {
        let src = "// simlint::allow(R1): stale justification\n\
                   fn a() { tidy(); }\n";
        let without = lint_source("x.rs", src, &[Rule::R1]);
        assert!(without.diagnostics.is_empty());
        let with = lint_source("x.rs", src, &[Rule::R1, Rule::A1]);
        assert_eq!(with.diagnostics.len(), 1);
        assert_eq!(with.diagnostics[0].rule, Rule::A1);
        assert_eq!(with.diagnostics[0].line, 1);
    }

    #[test]
    fn live_suppression_is_not_dead() {
        let src = "fn a() { x.unwrap(); } // simlint::allow(R1): infallible\n";
        let lint = lint_source("x.rs", src, &[Rule::R1, Rule::A1]);
        assert!(lint.diagnostics.is_empty());
        assert_eq!(lint.suppressed, 1);
    }

    #[test]
    fn suppression_in_masked_region_is_not_judged() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                       // simlint::allow(R1): test-only\n\
                       fn t() { x.unwrap(); }\n\
                   }\n";
        let lint = lint_source("x.rs", src, &[Rule::R1, Rule::A1]);
        assert!(lint.diagnostics.is_empty());
    }

    #[test]
    fn s1_fires_on_missing_field_copy() {
        let src = "pub struct Net {\n\
                       temps: Vec<f64>,\n\
                       powers: Vec<f64>,\n\
                   }\n\
                   impl Net {\n\
                       pub fn snapshot(&self) -> Snap {\n\
                           Snap { temps: self.temps.clone() }\n\
                       }\n\
                   }\n";
        let opts = LintOptions {
            snapshot_types: vec!["Net".to_string()],
            ..LintOptions::permissive()
        };
        let lint = lint_source_with("x.rs", src, &[Rule::S1], &opts);
        assert_eq!(lint.diagnostics.len(), 1);
        assert_eq!(lint.diagnostics[0].rule, Rule::S1);
        assert_eq!(lint.diagnostics[0].line, 6);
        assert!(lint.diagnostics[0].message.contains("powers"));
    }

    #[test]
    fn s1_shared_marker_and_full_copy_are_clean() {
        let src = "pub struct Net {\n\
                       // simlint::shared: Arc topology\n\
                       topo: Arc<Topology>,\n\
                       temps: Vec<f64>,\n\
                   }\n\
                   impl Net {\n\
                       pub fn snapshot(&self) -> Snap {\n\
                           Snap { temps: self.temps.clone() }\n\
                       }\n\
                   }\n";
        let opts = LintOptions {
            snapshot_types: vec!["Net".to_string()],
            ..LintOptions::permissive()
        };
        let lint = lint_source_with("x.rs", src, &[Rule::S1], &opts);
        assert!(lint.diagnostics.is_empty(), "{:?}", lint.diagnostics);
    }

    #[test]
    fn u2_fires_when_unsafe_not_allowlisted() {
        let src = "fn f() {\n\
                       // SAFETY: fine\n\
                       unsafe { g() };\n\
                   }\n";
        let allowed = lint_source_with(
            "x.rs",
            src,
            &[Rule::U1, Rule::U2],
            &LintOptions::permissive(),
        );
        assert!(allowed.diagnostics.is_empty());
        let opts = LintOptions {
            unsafe_allowed: false,
            ..LintOptions::permissive()
        };
        let denied = lint_source_with("x.rs", src, &[Rule::U1, Rule::U2], &opts);
        assert_eq!(denied.diagnostics.len(), 1);
        assert_eq!(denied.diagnostics[0].rule, Rule::U2);
    }

    fn demo_sets() -> Vec<SnapshotFieldSet> {
        vec![
            SnapshotFieldSet {
                crate_name: "sched".to_string(),
                type_name: "System".to_string(),
                fields: vec!["clock".to_string(), "queue".to_string()],
            },
            SnapshotFieldSet {
                crate_name: "machine".to_string(),
                type_name: "Machine".to_string(),
                fields: vec!["temp".to_string()],
            },
        ]
    }

    #[test]
    fn snapshot_fields_hash_is_order_independent() {
        let forward = demo_sets();
        let mut reversed = demo_sets();
        reversed.reverse();
        assert_eq!(snapshot_fields_hash(&forward), snapshot_fields_hash(&reversed));
        let mut grown = demo_sets();
        grown[0].fields.push("rng".to_string());
        assert_ne!(snapshot_fields_hash(&forward), snapshot_fields_hash(&grown));
    }

    #[test]
    fn ckpt_pin_parses_version_and_hash() {
        let src = "pub const CKPT_FORMAT_VERSION: u32 = 3;\n\
                   // simlint::ckpt_pin(version = 3, fields = 0x00ab_cdef_0123_4567)\n";
        let pin = parse_ckpt_pin(src).expect("pin");
        assert_eq!(pin, CkptPin { line: 2, version: 3, fields: 0x00ab_cdef_0123_4567 });
        assert_eq!(parse_ckpt_version(src), Some((1, 3)));
        assert!(parse_ckpt_pin("// simlint::ckpt_pin(version = x)\n").is_none());
    }

    #[test]
    fn s2_clean_when_pin_matches() {
        let computed = snapshot_fields_hash(&demo_sets());
        let src = format!(
            "pub const CKPT_FORMAT_VERSION: u32 = 1;\n\
             // simlint::ckpt_pin(version = 1, fields = 0x{computed:016x})\n"
        );
        assert!(check_ckpt_pin("ckpt.rs", &src, computed).is_empty());
    }

    #[test]
    fn s2_fires_on_field_change_without_version_bump() {
        let computed = snapshot_fields_hash(&demo_sets());
        let src = "pub const CKPT_FORMAT_VERSION: u32 = 1;\n\
                   // simlint::ckpt_pin(version = 1, fields = 0xdeadbeefdeadbeef)\n";
        let diags = check_ckpt_pin("ckpt.rs", src, computed);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::S2);
        assert_eq!(diags[0].line, 1);
        assert!(diags[0].message.contains("bump CKPT_FORMAT_VERSION"));
    }

    #[test]
    fn s2_fires_on_stale_pin_after_version_bump() {
        let computed = snapshot_fields_hash(&demo_sets());
        let src = format!(
            "pub const CKPT_FORMAT_VERSION: u32 = 2;\n\
             // simlint::ckpt_pin(version = 1, fields = 0x{computed:016x})\n"
        );
        let diags = check_ckpt_pin("ckpt.rs", &src, computed);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::S2);
        assert_eq!(diags[0].line, 2);
        assert!(diags[0].message.contains("stale ckpt_pin"));
        assert!(diags[0].message.contains("version = 2"));
    }

    #[test]
    fn s2_fires_on_missing_pin() {
        let diags = check_ckpt_pin("ckpt.rs", "pub fn noop() {}\n", 7);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::S2);
        assert!(diags[0].message.contains("missing"));
    }

    #[test]
    fn f1_fires_on_undeclared_feature() {
        let src = "#[cfg(feature = \"simd\")]\nfn gated() {}\n";
        let opts = LintOptions {
            declared_features: Some(["invariants".to_string()].into_iter().collect()),
            ..LintOptions::permissive()
        };
        let lint = lint_source_with("x.rs", src, &[Rule::F1], &opts);
        assert_eq!(lint.diagnostics.len(), 1);
        assert_eq!(lint.diagnostics[0].rule, Rule::F1);
        assert_eq!(lint.diagnostics[0].line, 1);
    }
}
