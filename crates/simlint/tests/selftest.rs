//! Self-tests: fixture files with seeded violations pin the exact rule IDs
//! and line numbers simlint reports, and the live workspace must be clean.
//!
//! The mutation tests are the teeth of the S1 snapshot-coverage contract:
//! deleting any single field copy from a protocol method — in the fixture
//! or in the real `System`/`Machine`/`ThermalNetwork` sources — must turn
//! the lint red.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use simlint::parse::{self, CfgView};
use simlint::{
    check_ckpt_pin, check_feature_forwarding, lint_source, lint_source_with,
    lint_workspace, lint_workspace_with, manifest, policy, LintOptions, Report, Rule,
    Severity,
};

const FULL: &[Rule] = &[
    Rule::D1,
    Rule::D2,
    Rule::D3,
    Rule::D4,
    Rule::R1,
    Rule::R2,
    Rule::Doc1,
];
const LIB: &[Rule] = &[Rule::D1, Rule::D2, Rule::D3, Rule::D4, Rule::R1, Rule::R2];

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!("cannot read fixture {}: {e}", path.display()),
    }
}

/// `(line, rule)` pairs of a lint result, in report order.
fn findings(source: &str, enabled: &[Rule]) -> Vec<(usize, Rule)> {
    lint_source("fixture.rs", source, enabled)
        .diagnostics
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

/// Same, with explicit item-rule options.
fn findings_with(source: &str, enabled: &[Rule], opts: &LintOptions) -> Vec<(usize, Rule)> {
    lint_source_with("fixture.rs", source, enabled, opts)
        .diagnostics
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

/// Options holding the fixture's `Meter`/`Orphan` to the S1 contract.
fn snapshot_opts() -> LintOptions {
    LintOptions {
        snapshot_types: vec!["Meter".to_string(), "Orphan".to_string()],
        ..LintOptions::permissive()
    }
}

#[test]
fn violations_fixture_fires_every_line_rule_at_exact_lines() {
    let src = fixture("violations.rs");
    assert_eq!(
        findings(&src, FULL),
        vec![
            (4, Rule::D2),   // use std::collections::HashMap;
            (5, Rule::D1),   // use std::time::Instant;
            (7, Rule::Doc1), // pub struct Undocumented;
            (10, Rule::D2),  // HashMap in the signature
            (11, Rule::D1),  // Instant::now()
            (12, Rule::D3),  // rand::thread_rng()
            (13, Rule::R1),  // .unwrap()
            (14, Rule::D4),  // *x == 0.5
            (15, Rule::R1),  // panic!
            (17, Rule::D4),  // as f32
            (18, Rule::R2),  // let _ = (...) discards a computed value
        ]
    );
}

#[test]
fn every_rule_is_exercised_by_some_fixture() {
    let mut fired: BTreeSet<Rule> = BTreeSet::new();
    fired.extend(findings(&fixture("violations.rs"), FULL).into_iter().map(|(_, r)| r));
    fired.extend(
        findings_with(&fixture("snapshot.rs"), &[Rule::S1], &snapshot_opts())
            .into_iter()
            .map(|(_, r)| r),
    );
    let audit = LintOptions::default(); // unsafe_allowed = false
    fired.extend(
        findings_with(&fixture("unsafe_audit.rs"), &[Rule::U1, Rule::U2], &audit)
            .into_iter()
            .map(|(_, r)| r),
    );
    let feats = LintOptions {
        declared_features: Some(["simd".to_string()].into_iter().collect()),
        ..LintOptions::permissive()
    };
    fired.extend(
        findings_with(&fixture("feature_cfg.rs"), &[Rule::F1], &feats)
            .into_iter()
            .map(|(_, r)| r),
    );
    fired.extend(
        findings(&fixture("dead_allow.rs"), &[Rule::D1, Rule::D3, Rule::A1])
            .into_iter()
            .map(|(_, r)| r),
    );
    fired.extend(
        check_ckpt_pin("fixture.rs", &fixture("ckpt_pin.rs"), 0)
            .into_iter()
            .map(|d| d.rule),
    );
    for rule in Rule::ALL {
        assert!(fired.contains(&rule), "rule {rule} never fired");
    }
}

#[test]
fn snapshot_fixture_pins_s1_lines() {
    let src = fixture("snapshot.rs");
    assert_eq!(
        findings_with(&src, &[Rule::S1], &snapshot_opts()),
        vec![
            (23, Rule::S1), // fork() forgets `samples`
            (32, Rule::S1), // Orphan has no copy surface at all
        ]
    );
}

/// The acceptance teeth: deleting a single field copy from an otherwise
/// clean protocol method turns the lint red — whether the deletion
/// preserves line numbering (blanked) or shifts it (removed).
#[test]
fn snapshot_mutation_deleting_one_field_copy_turns_red() {
    let src = fixture("snapshot.rs");
    let opts = snapshot_opts();
    let baseline = findings_with(&src, &[Rule::S1], &opts);
    assert!(
        !baseline.iter().any(|&(line, _)| line == 14),
        "snapshot() must start clean for the mutation to be observable"
    );

    // Blank line 17 (`samples: self.samples,` in snapshot()).
    let blanked: String = src
        .lines()
        .enumerate()
        .map(|(i, l)| if i + 1 == 17 { "" } else { l })
        .collect::<Vec<_>>()
        .join("\n");
    let mutated = findings_with(&blanked, &[Rule::S1], &opts);
    assert!(
        mutated.contains(&(14, Rule::S1)),
        "blanking the `samples` copy must fire S1 at snapshot(): {mutated:?}"
    );

    // Remove the line outright; the finding follows the shifted fn line.
    let removed: String = src
        .lines()
        .enumerate()
        .filter(|&(i, _)| i + 1 != 17)
        .map(|(_, l)| l)
        .collect::<Vec<_>>()
        .join("\n");
    let lint = lint_source_with("fixture.rs", &removed, &[Rule::S1], &opts);
    assert!(
        lint.diagnostics
            .iter()
            .any(|d| d.rule == Rule::S1
                && d.message.contains("`samples`")
                && d.message.contains("snapshot()")),
        "removing the `samples` copy must fire S1: {:?}",
        lint.diagnostics
    );
}

#[test]
fn ckpt_pin_fixture_pins_s2_behaviors() {
    let src = fixture("ckpt_pin.rs");
    // Stale pin: the fixture's version is 2 but the pin records 1.
    let stale = check_ckpt_pin("fixture.rs", &src, 0x1111_1111_1111_1111);
    assert_eq!(stale.len(), 1, "{stale:?}");
    assert_eq!(stale[0].rule, Rule::S2);
    assert_eq!(stale[0].line, 7);
    assert!(stale[0].message.contains("stale ckpt_pin"));
    assert!(stale[0].message.contains("version = 2"));

    // Re-pinning as the message instructs makes it clean.
    let repinned = src.replace(
        "ckpt_pin(version = 1, fields = 0x1111111111111111)",
        "ckpt_pin(version = 2, fields = 0x1111111111111111)",
    );
    assert_ne!(repinned, src);
    assert!(check_ckpt_pin("fixture.rs", &repinned, 0x1111_1111_1111_1111).is_empty());

    // Field drift at the matching version demands a format bump.
    let drift = check_ckpt_pin("fixture.rs", &repinned, 0x2222_2222_2222_2222);
    assert_eq!(drift.len(), 1, "{drift:?}");
    assert_eq!(drift[0].rule, Rule::S2);
    assert_eq!(drift[0].line, 5);
    assert!(drift[0].message.contains("bump CKPT_FORMAT_VERSION"));

    // A source with no pin at all cannot be guarded.
    let missing = check_ckpt_pin("fixture.rs", "pub fn noop() {}\n", 7);
    assert_eq!(missing.len(), 1, "{missing:?}");
    assert!(missing[0].message.contains("missing"));
}

/// Live half of the S2 contract, mirroring the S1 mutation sweep: the
/// real workspace is in sync today, and either perturbing the snapshot
/// field-set hash (what adding/removing/renaming any governed field
/// does) or bumping `CKPT_FORMAT_VERSION` without re-pinning turns the
/// guard red against the real `crates/ckpt/src/lib.rs`.
#[test]
fn live_ckpt_pin_guards_the_real_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root).unwrap_or_else(|e| panic!("{e}"));
    let computed = report
        .ckpt_fields_hash
        .expect("the S2 guard must run on the live workspace");
    let lib = root.join("crates/ckpt/src/lib.rs");
    let src = std::fs::read_to_string(&lib).unwrap_or_else(|e| panic!("{e}"));
    assert!(
        check_ckpt_pin("crates/ckpt/src/lib.rs", &src, computed).is_empty(),
        "live pin out of sync: run `simlint --ckpt-hash` and update the pin"
    );

    let drift = check_ckpt_pin("crates/ckpt/src/lib.rs", &src, computed ^ 1);
    assert_eq!(drift.len(), 1, "{drift:?}");
    assert_eq!(drift[0].rule, Rule::S2);
    assert!(drift[0].message.contains("bump CKPT_FORMAT_VERSION"));

    let bumped = src.replace(
        "pub const CKPT_FORMAT_VERSION: u32 = 2;",
        "pub const CKPT_FORMAT_VERSION: u32 = 3;",
    );
    assert_ne!(bumped, src, "expected the live format version to be 2");
    let stale = check_ckpt_pin("crates/ckpt/src/lib.rs", &bumped, computed);
    assert_eq!(stale.len(), 1, "{stale:?}");
    assert!(stale[0].message.contains("stale ckpt_pin"));

    // Both cfg views must agree on the hash — snapshot structs are never
    // feature-gated, so the pin is view-independent.
    let invariants = lint_workspace_with(&root, &CfgView::with_features(["invariants"]))
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(invariants.ckpt_fields_hash, Some(computed));
}

#[test]
fn unsafe_fixture_pins_u1_and_u2_lines() {
    let src = fixture("unsafe_audit.rs");
    // Outside the allowlist: U2 judges both sites, U1 only the bare one.
    let audit = LintOptions::default();
    assert_eq!(
        findings_with(&src, &[Rule::U1, Rule::U2], &audit),
        vec![
            (7, Rule::U2),  // documented, but unsafe is not allowed here
            (12, Rule::U1), // no SAFETY comment
            (12, Rule::U2),
        ]
    );
    // Allowlisted file: only the missing SAFETY comment remains.
    assert_eq!(
        findings_with(&src, &[Rule::U1, Rule::U2], &LintOptions::permissive()),
        vec![(12, Rule::U1)]
    );
}

#[test]
fn feature_fixture_pins_f1_lines() {
    let src = fixture("feature_cfg.rs");
    let feats = LintOptions {
        declared_features: Some(["simd".to_string()].into_iter().collect()),
        ..LintOptions::permissive()
    };
    assert_eq!(
        findings_with(&src, &[Rule::F1], &feats),
        vec![
            (10, Rule::F1), // cfg(feature = "turbo"), undeclared
            (15, Rule::F1), // cfg!(feature = "trubo"), undeclared
        ]
    );
}

#[test]
fn dead_allow_fixture_reports_the_stale_suppression() {
    let src = fixture("dead_allow.rs");
    let lint = lint_source("fixture.rs", &src, &[Rule::D1, Rule::D3, Rule::A1]);
    assert_eq!(lint.suppressed, 1, "the live D1 allow must be honored");
    let remaining: Vec<(usize, Rule)> =
        lint.diagnostics.iter().map(|d| (d.line, d.rule)).collect();
    assert_eq!(remaining, vec![(11, Rule::A1)]);
}

#[test]
fn forwarding_check_flags_missing_and_stale_reexports() {
    let dep = manifest::parse(
        "[package]\nname = \"core\"\n\n[features]\ninvariants = []\n",
    );
    // No [features] at all: F1 points at the dependency line.
    let missing = manifest::parse(
        "[package]\nname = \"power\"\n\n[dependencies]\ncore = { path = \"../core\" }\n",
    );
    // Declared but not forwarding "core/invariants": F1 points at the decl.
    let stale = manifest::parse(
        "[package]\nname = \"sched\"\n\n[dependencies]\ncore = { path = \"../core\" }\n\n\
         [features]\ninvariants = []\n",
    );
    // Correct forwarding chain: clean.
    let good = manifest::parse(
        "[package]\nname = \"bench\"\n\n[dependencies]\ncore = { path = \"../core\" }\n\n\
         [features]\ninvariants = [\"core/invariants\"]\n",
    );
    // Dev-dependencies are exempt by design (test code is not shipped).
    let dev_only = manifest::parse(
        "[package]\nname = \"lint\"\n\n[dev-dependencies]\ncore = { path = \"../core\" }\n",
    );
    let manifests = vec![
        ("core/Cargo.toml".to_string(), dep, true),
        ("power/Cargo.toml".to_string(), missing, true),
        ("sched/Cargo.toml".to_string(), stale, true),
        ("bench/Cargo.toml".to_string(), good, true),
        ("lint/Cargo.toml".to_string(), dev_only, true),
    ];
    let mut report = Report::default();
    check_feature_forwarding(&manifests, &mut report);
    let got: Vec<(&str, usize, Rule)> = report
        .diagnostics
        .iter()
        .map(|d| (d.file.as_str(), d.line, d.rule))
        .collect();
    assert_eq!(
        got,
        vec![
            ("power/Cargo.toml", 5, Rule::F1), // the `core = ...` line
            ("sched/Cargo.toml", 8, Rule::F1), // the stale `invariants = []` decl
        ]
    );
}

#[test]
fn suppressions_fixture_honors_allows_and_reports_the_rest() {
    let src = fixture("suppressions.rs");
    let lint = lint_source("fixture.rs", &src, LIB);
    // D2@3 (same line), R1@6 (preceding line), D1+D3@9 (comma list),
    // R2@14 (preceding line).
    assert_eq!(lint.suppressed, 5);
    let remaining: Vec<(usize, Rule)> =
        lint.diagnostics.iter().map(|d| (d.line, d.rule)).collect();
    assert_eq!(remaining, vec![(11, Rule::R1)]);
}

#[test]
fn test_gated_fixture_skips_cfg_test_regions() {
    let src = fixture("test_gated.rs");
    assert_eq!(findings(&src, &[Rule::R1]), vec![(16, Rule::R1)]);
}

#[test]
fn clean_fixture_is_clean() {
    let src = fixture("clean.rs");
    let lint = lint_source("fixture.rs", &src, FULL);
    assert!(lint.diagnostics.is_empty(), "{:?}", lint.diagnostics);
    assert_eq!(lint.suppressed, 0);
}

#[test]
fn severity_defaults_and_promotion() {
    assert_eq!(Rule::D1.default_severity(), Severity::Deny);
    assert_eq!(Rule::D2.default_severity(), Severity::Deny);
    assert_eq!(Rule::D3.default_severity(), Severity::Deny);
    assert_eq!(Rule::S1.default_severity(), Severity::Deny);
    assert_eq!(Rule::U2.default_severity(), Severity::Deny);
    assert_eq!(Rule::F1.default_severity(), Severity::Deny);
    assert_eq!(Rule::D4.default_severity(), Severity::Warn);
    assert_eq!(Rule::R1.default_severity(), Severity::Warn);
    assert_eq!(Rule::R2.default_severity(), Severity::Warn);
    assert_eq!(Rule::U1.default_severity(), Severity::Warn);
    assert_eq!(Rule::A1.default_severity(), Severity::Warn);
    assert_eq!(Rule::Doc1.default_severity(), Severity::Warn);
    for rule in Rule::ALL {
        assert_eq!(simlint::effective_severity(rule, true), Severity::Deny);
    }
}

/// The workspace itself must lint clean — this is the same gate CI runs.
#[test]
fn live_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    };
    assert!(
        report.diagnostics.is_empty(),
        "workspace has simlint findings:\n{:#?}",
        report.diagnostics
    );
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    assert!(report.suppressed > 0, "expected justified suppressions");
}

/// True when `line` mentions `name` as a whole identifier.
fn mentions_ident(line: &str, name: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(name) {
        let start = from + pos;
        let end = start + name.len();
        let before_ok = start == 0
            || !(bytes[start - 1] == b'_' || bytes[start - 1].is_ascii_alphanumeric());
        let after_ok = end == bytes.len()
            || !(bytes[end] == b'_' || bytes[end].is_ascii_alphanumeric());
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Mutation sweep over the real snapshot-protocol sources: for every
/// field a copying method copies, blanking that copy must make S1 fire.
/// This is the live half of the acceptance criterion the fixture test
/// pins — it holds for `System`, `Machine`, and `ThermalNetwork` alike.
#[test]
fn live_snapshot_sources_fail_s1_when_any_field_copy_is_deleted() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let targets = [
        ("crates/sched/src/system.rs", policy::policy_for_crate("sched")),
        ("crates/machine/src/machine.rs", policy::policy_for_crate("machine")),
        ("crates/thermal/src/network.rs", policy::policy_for_crate("thermal")),
    ];
    let view = CfgView::default();
    let mut mutations = 0usize;
    for (rel, pol) in targets {
        let src = std::fs::read_to_string(root.join(rel))
            .unwrap_or_else(|e| panic!("cannot read {rel}: {e}"));
        let syntax = parse::parse(&src, &view);
        // Hold the file to exactly the policy types it defines (companion
        // snapshot structs may live elsewhere in the crate).
        let local_types: Vec<String> = pol
            .snapshot_types
            .iter()
            .filter(|ty| syntax.structs.iter().any(|s| &s.name == *ty))
            .map(|ty| ty.to_string())
            .collect();
        assert!(
            !local_types.is_empty(),
            "{rel} defines none of its crate's snapshot types"
        );
        let opts = LintOptions {
            snapshot_types: local_types.clone(),
            ..LintOptions::permissive()
        };
        let baseline = lint_source_with(rel, &src, &[Rule::S1], &opts);
        assert!(
            baseline.diagnostics.is_empty(),
            "{rel} must start S1-clean: {:?}",
            baseline.diagnostics
        );
        let lines: Vec<&str> = src.lines().collect();
        let mut file_mutations = 0usize;
        for ty in &local_types {
            let sdef = syntax.structs.iter().find(|s| &s.name == ty).unwrap();
            for imp in &syntax.impls {
                if imp.is_trait_def || &imp.type_name != ty {
                    continue;
                }
                for f in &imp.fns {
                    // Only protocol methods are held to the contract.
                    if !matches!(f.name.as_str(), "snapshot" | "fork" | "restore" | "clone") {
                        continue;
                    }
                    for field in &sdef.fields {
                        if field.shared || !f.body_idents.contains(&field.name) {
                            continue;
                        }
                        // Blank every body line mentioning the field,
                        // skipping brace lines so the parse stays balanced.
                        let mutated: String = lines
                            .iter()
                            .enumerate()
                            .map(|(i, l)| {
                                let line_no = i + 1;
                                let in_body = line_no > f.line && line_no <= f.end_line;
                                if in_body
                                    && mentions_ident(l, &field.name)
                                    && !l.contains('{')
                                    && !l.contains('}')
                                {
                                    ""
                                } else {
                                    l
                                }
                            })
                            .collect::<Vec<_>>()
                            .join("\n");
                        // Only count mutations that actually removed the
                        // field from the body (multi-line copies sharing a
                        // brace line survive blanking and stay green).
                        let reparsed = parse::parse(&mutated, &view);
                        let mutated_fn = reparsed
                            .impls
                            .iter()
                            .filter(|i2| !i2.is_trait_def && &i2.type_name == ty)
                            .flat_map(|i2| &i2.fns)
                            .find(|f2| f2.name == f.name && f2.line == f.line)
                            .unwrap_or_else(|| panic!("{rel}: lost {}() in mutation", f.name));
                        if mutated_fn.body_idents.contains(&field.name) {
                            continue;
                        }
                        let still_copies = sdef
                            .fields
                            .iter()
                            .any(|fd| mutated_fn.body_idents.contains(&fd.name));
                        if !still_copies && sdef.derives.iter().any(|d| d == "Clone") {
                            // The method degenerated to non-copying and the
                            // derive is a complete field-wise copy: S1's
                            // delegation exemption applies by design.
                            continue;
                        }
                        let lint = lint_source_with(rel, &mutated, &[Rule::S1], &opts);
                        assert!(
                            lint.diagnostics.iter().any(|d| d.rule == Rule::S1
                                && (d.message.contains(&format!("`{}`", field.name))
                                    || d.message.contains(&format!("`{ty}`")))),
                            "{rel}: deleting the `{}` copy in {}() did not fire S1",
                            field.name,
                            f.name
                        );
                        file_mutations += 1;
                        mutations += 1;
                    }
                }
            }
        }
        assert!(
            file_mutations >= 2,
            "{rel}: expected at least two field-copy mutations, got {file_mutations}"
        );
    }
    assert!(
        mutations >= 10,
        "mutation sweep looks vacuous: only {mutations} mutations ran"
    );
}

/// End-to-end: the binary exits 0 on the clean workspace even with
/// `--deny-warnings`, under both cfg views, and prints the summary.
#[test]
fn binary_exits_zero_on_clean_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for extra in [&[][..], &["--features", "invariants"][..]] {
        let output = Command::new(env!("CARGO_BIN_EXE_simlint"))
            .args(["--deny-warnings", "--root"])
            .arg(&root)
            .args(extra)
            .output()
            .expect("run simlint binary");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(output.status.success(), "simlint {extra:?} failed:\n{stdout}");
        assert!(
            stdout.contains("files scanned") && stdout.contains("0 violations"),
            "missing summary line:\n{stdout}"
        );
    }
}
