//! Per-crate lint policy: which rules apply, where `unsafe` may live, and
//! which types participate in the snapshot/fork protocol.
//!
//! Policy is resolved once per crate directory (not per file) by
//! [`policy_for_crate`]; `lib.rs` threads the resulting [`CratePolicy`]
//! through every file of that crate.

use crate::rules::Rule;

/// The features whose hand-forwarded chains F1 keeps consistent: any crate
/// depending on a crate that declares one of these must re-export it.
pub const FORWARDED_FEATURES: &[&str] = &["invariants"];

/// Everything the linter needs to know about one crate, resolved once.
#[derive(Debug, Clone)]
pub struct CratePolicy {
    /// The crate's directory name under `crates/`.
    pub name: &'static str,
    /// Rules enabled for this crate.
    pub rules: &'static [Rule],
    /// Crate-relative paths (always `/`-separated) of the only files
    /// allowed to contain `unsafe` (U2). Empty = no unsafe anywhere.
    pub unsafe_files: &'static [&'static str],
    /// Types whose fields S1 holds to the snapshot-coverage contract.
    pub snapshot_types: &'static [&'static str],
}

const FULL: &[Rule] = &[
    Rule::D1,
    Rule::D2,
    Rule::D3,
    Rule::D4,
    Rule::R1,
    Rule::S1,
    Rule::U1,
    Rule::U2,
    Rule::F1,
    Rule::A1,
    Rule::Doc1,
];
const LIB: &[Rule] = &[
    Rule::D1,
    Rule::D2,
    Rule::D3,
    Rule::D4,
    Rule::R1,
    Rule::S1,
    Rule::U1,
    Rule::U2,
    Rule::F1,
    Rule::A1,
];
const CKPT: &[Rule] = &[
    Rule::D1,
    Rule::D2,
    Rule::D3,
    Rule::D4,
    Rule::R1,
    Rule::S1,
    Rule::S2,
    Rule::U1,
    Rule::U2,
    Rule::F1,
    Rule::A1,
];
const HARNESS: &[Rule] = &[
    Rule::D1,
    Rule::D2,
    Rule::D3,
    Rule::D4,
    Rule::R1,
    Rule::R2,
    Rule::S1,
    Rule::U1,
    Rule::U2,
    Rule::F1,
    Rule::A1,
];
const APP: &[Rule] = &[
    Rule::D2,
    Rule::D3,
    Rule::R2,
    Rule::U1,
    Rule::U2,
    Rule::F1,
    Rule::A1,
];
const BENCH: &[Rule] = &[
    Rule::D3,
    Rule::R2,
    Rule::U1,
    Rule::U2,
    Rule::F1,
    Rule::A1,
];

/// Resolves the policy for a crate directory under `crates/`.
///
/// Rule-set policy (unchanged from v1, plus the item rules everywhere):
/// - `sim-core`, `dimetrodon`: the full set including `Doc1`.
/// - other result-path library crates: everything but `Doc1`.
/// - `ckpt`: library set plus `S2` (the checkpoint version-bump guard —
///   the pin it checks lives in this crate next to `CKPT_FORMAT_VERSION`).
/// - `harness`: library set plus `R2` (supervision must not swallow
///   failures).
/// - `cli`: determinism + `R2` + the item rules.
/// - `bench`: `D3` + `R2` + the item rules.
/// - vendored shims (`proptest`, `criterion`) and `simlint` itself: exempt.
///
/// Unsafe policy: no governed crate allowlists `unsafe`, so U2 denies it
/// everywhere.
///
/// Snapshot policy: the types whose hand-maintained deep copies carry
/// replay state. Fields may opt out with a `// simlint::shared` marker
/// (Arc-shared immutable topology, scratch buffers rebuilt on use).
pub fn policy_for_crate(dir_name: &str) -> CratePolicy {
    let (name, rules): (&'static str, &'static [Rule]) = match dir_name {
        "sim-core" => ("sim-core", FULL),
        "dimetrodon" => ("dimetrodon", FULL),
        "thermal" => ("thermal", LIB),
        "power" => ("power", LIB),
        "machine" => ("machine", LIB),
        "sched" => ("sched", LIB),
        "workload" => ("workload", LIB),
        "analysis" => ("analysis", LIB),
        "faults" => ("faults", LIB),
        "fleet" => ("fleet", LIB),
        // The checkpoint-format crate additionally carries S2: the
        // version-bump guard that pins the workspace's S1-governed
        // snapshot field sets against CKPT_FORMAT_VERSION.
        "ckpt" => ("ckpt", CKPT),
        "harness" => ("harness", HARNESS),
        "cli" => ("cli", APP),
        "bench" => ("bench", BENCH),
        _ => ("", &[]),
    };
    let snapshot_types: &'static [&'static str] = match dir_name {
        "sim-core" => &["EventQueue", "SimRng", "TimeSeries"],
        "thermal" => &["ThermalNetwork", "ThermalSnapshot"],
        "power" => &["EnergyMeter", "PowerMeter"],
        "machine" => &["Machine", "MachineSnapshot"],
        "sched" => &["System", "SystemSnapshot"],
        // The fleet's fork is its `Clone`: every mutable field must be
        // deep-copied (or derive-covered) for a forked fleet to replay.
        "fleet" => &["Fleet", "HealthModel", "ChaosStats"],
        _ => &[],
    };
    CratePolicy {
        name,
        rules,
        unsafe_files: &[],
        snapshot_types,
    }
}

/// Policy for the facade package's own `src/` at the workspace root: the
/// library rule set, no unsafe, no snapshot types of its own.
pub fn facade_policy() -> CratePolicy {
    CratePolicy {
        name: "facade",
        rules: LIB,
        unsafe_files: &[],
        snapshot_types: &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shims_and_simlint_are_exempt() {
        for name in ["proptest", "criterion", "simlint", "unknown"] {
            assert!(policy_for_crate(name).rules.is_empty(), "{name}");
        }
    }

    #[test]
    fn unsafe_allowlist_is_empty_for_every_crate() {
        for name in [
            "sim-core", "dimetrodon", "thermal", "power", "machine", "sched", "workload",
            "analysis", "faults", "fleet", "ckpt", "harness", "cli", "bench",
        ] {
            assert!(!policy_for_crate(name).rules.is_empty(), "{name} is governed");
            assert!(policy_for_crate(name).unsafe_files.is_empty(), "{name}");
        }
        assert!(facade_policy().unsafe_files.is_empty());
    }

    #[test]
    fn snapshot_types_cover_the_fork_protocol() {
        assert!(policy_for_crate("sched").snapshot_types.contains(&"System"));
        assert!(policy_for_crate("machine")
            .snapshot_types
            .contains(&"Machine"));
        assert!(policy_for_crate("thermal")
            .snapshot_types
            .contains(&"ThermalNetwork"));
        assert!(policy_for_crate("sim-core")
            .snapshot_types
            .contains(&"EventQueue"));
        assert!(policy_for_crate("fleet").snapshot_types.contains(&"Fleet"));
        assert!(policy_for_crate("fleet")
            .snapshot_types
            .contains(&"HealthModel"));
        assert!(policy_for_crate("fleet")
            .snapshot_types
            .contains(&"ChaosStats"));
        assert!(policy_for_crate("analysis").snapshot_types.is_empty());
    }

    #[test]
    fn s2_governs_the_ckpt_crate_only() {
        assert!(policy_for_crate("ckpt").rules.contains(&Rule::S2));
        assert!(policy_for_crate("ckpt").snapshot_types.is_empty());
        for name in ["sim-core", "machine", "sched", "fleet", "harness"] {
            assert!(!policy_for_crate(name).rules.contains(&Rule::S2), "{name}");
        }
    }

    #[test]
    fn item_rules_are_on_everywhere_governed() {
        for name in [
            "sim-core",
            "thermal",
            "machine",
            "sched",
            "fleet",
            "harness",
            "cli",
            "bench",
        ] {
            let p = policy_for_crate(name);
            for rule in [Rule::U1, Rule::U2, Rule::F1, Rule::A1] {
                assert!(p.rules.contains(&rule), "{name} missing {rule}");
            }
        }
    }
}
