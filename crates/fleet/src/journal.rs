//! The fleet comparison's and the chaos sweep's crash-resumable journals.
//!
//! Both are [`LineJournal`]s, the same text layer the sweep supervisor
//! journals through (`results/.journal/`, one line per completed unit,
//! floats as 16-hex-digit IEEE-754 bit patterns, a torn final line
//! dropped and healed away on resume). This module holds only their line
//! formats and replay filters. The fleet's unit is a whole policy
//! variant: one line carries every rack report of one
//! [`PolicyKind`](crate::PolicyKind) run. The chaos sweep's unit is one
//! (intensity, policy) grid point. Lines are keyed by index, so worker
//! threads may append in completion order and a resumed run still
//! reassembles results in order.
//!
//! The file names embed [`FleetConfig::fingerprint`](crate::FleetConfig::fingerprint)
//! or [`ChaosGrid::fingerprint`] — explicit byte-serialized identities,
//! not `Debug` renderings — so a journal can never be replayed against a
//! run it does not describe.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use dimetrodon_ckpt::journal::{encode_opt_f64, parse_hex_f64, parse_opt_f64, LineJournal};

use crate::chaos::ChaosGrid;
use crate::policy::PolicyKind;
use crate::sim::{ChaosMetrics, RackReport};

/// The journal file path for a fleet comparison inside `dir`.
pub fn journal_path(dir: &Path, config_fingerprint: u64) -> PathBuf {
    dir.join(format!("fleet-{config_fingerprint:016x}.journal"))
}

/// Serializes one completed variant as a single journal line (no trailing
/// newline). Exposed for the journal property tests.
///
/// Format, whitespace-separated:
///
/// ```text
/// variant <index> <policy-name> <n-racks> <rack> <rack> ...
/// ```
///
/// where each `<rack>` is
/// `machines:peak:rms:trips:requests:good:p99`, floats as full-width hex
/// bit patterns and an absent p99 as `-`. The up-front rack count is what
/// makes SIGKILL truncation detectable: a line with fewer rack tokens
/// than it declares never decodes.
pub fn encode_entry(variant: usize, policy: &str, reports: &[RackReport]) -> String {
    let mut line = format!("variant {variant} {policy} {}", reports.len());
    for report in reports {
        line.push_str(&format!(
            " {}:{:016x}:{:016x}:{}:{}:{:016x}:{}",
            report.machines,
            report.peak_celsius.to_bits(),
            report.rms_celsius.to_bits(),
            report.trips,
            report.requests,
            report.good_fraction.to_bits(),
            encode_opt_f64(report.p99_latency_s),
        ));
    }
    line
}

/// Parses one journal line back into `(variant, policy name, reports)`.
/// Returns `None` for comments, blanks, and malformed or truncated lines.
/// Exposed for the journal property tests.
pub fn decode_entry(line: &str) -> Option<(usize, String, Vec<RackReport>)> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let tokens: Vec<&str> = line.split_whitespace().collect();
    if tokens.len() < 4 || tokens[0] != "variant" {
        return None;
    }
    let variant: usize = tokens[1].parse().ok()?;
    let policy = tokens[2].to_string();
    let racks: usize = tokens[3].parse().ok()?;
    if tokens.len() != 4 + racks {
        return None;
    }
    let mut reports = Vec::with_capacity(racks);
    for (rack, token) in tokens[4..].iter().enumerate() {
        let fields: Vec<&str> = token.split(':').collect();
        if fields.len() != 7 {
            return None;
        }
        reports.push(RackReport {
            rack,
            machines: fields[0].parse().ok()?,
            peak_celsius: parse_hex_f64(fields[1])?,
            rms_celsius: parse_hex_f64(fields[2])?,
            trips: fields[3].parse().ok()?,
            requests: fields[4].parse().ok()?,
            good_fraction: parse_hex_f64(fields[5])?,
            p99_latency_s: parse_opt_f64(fields[6])?,
        });
    }
    Some((variant, policy, reports))
}

/// A fleet comparison's journal: replayed entries loaded at open, live
/// appends flushed line-at-a-time so a SIGKILL costs at most the line
/// being written.
#[derive(Debug)]
pub struct FleetJournal {
    journal: LineJournal,
    entries: BTreeMap<usize, Vec<RackReport>>,
}

impl FleetJournal {
    /// Opens the journal for `config_fingerprint` inside `dir`.
    ///
    /// With `resume` set, every decodable entry whose variant index names
    /// a known [`PolicyKind`] with a matching name is loaded for replay
    /// and the file is healed to those entries ([`LineJournal::open`]).
    /// Without `resume`, any stale journal is truncated and the
    /// comparison starts fresh. I/O failures disable journaling with a
    /// warning instead of failing the run.
    pub fn open(dir: &Path, config_fingerprint: u64, resume: bool) -> FleetJournal {
        let (journal, entries) = LineJournal::open(
            journal_path(dir, config_fingerprint),
            &format!("# dimetrodon fleet journal v1 config {config_fingerprint:016x}"),
            resume,
            |line| {
                let (variant, policy, reports) = decode_entry(line)?;
                let known = PolicyKind::ALL
                    .get(variant)
                    .is_some_and(|kind| kind.name() == policy);
                known.then_some((variant, reports))
            },
        );
        FleetJournal { journal, entries }
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        self.journal.path()
    }

    /// Variants loaded for replay at open.
    pub fn replayed_count(&self) -> usize {
        self.entries.len()
    }

    /// The replayed reports for a variant, if its line survived.
    pub fn replayed(&self, variant: usize) -> Option<Vec<RackReport>> {
        self.entries.get(&variant).cloned()
    }

    /// Appends one completed variant and flushes, so a SIGKILL immediately
    /// after still finds the line on resume. Thread-safe; workers append
    /// in completion order.
    pub fn append(&self, variant: usize, policy: &str, reports: &[RackReport]) {
        self.journal.append(&encode_entry(variant, policy, reports));
    }
}

/// The journal file path for a chaos sweep inside `dir`.
pub fn chaos_journal_path(dir: &Path, grid_fingerprint: u64) -> PathBuf {
    dir.join(format!("fleet-chaos-{grid_fingerprint:016x}.journal"))
}

/// Tokens one chaos entry carries after `chaos <index> <label>`; the
/// fixed count is what rejects SIGKILL-torn prefixes.
const CHAOS_METRIC_TOKENS: usize = 17;

/// Serializes one completed chaos point as a single journal line (no
/// trailing newline). Exposed for the journal property tests.
///
/// Format, whitespace-separated (labels never contain whitespace):
///
/// ```text
/// chaos <index> <label> <17 metric tokens>
/// ```
///
/// with counters as decimal, floats as full-width hex bit patterns, and
/// absent measurements as `-`. The final token is a full-width float, so
/// a line cut anywhere short of its true end never decodes.
pub fn encode_chaos_entry(index: usize, label: &str, metrics: &ChaosMetrics) -> String {
    let m = metrics;
    format!(
        "chaos {index} {label} {} {} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {} {} {} {} {} {} {} {} {:016x}",
        m.arrived_requests,
        m.shed_requests,
        m.shed_fraction.to_bits(),
        m.arrived_cpu_s.to_bits(),
        m.served_cpu_s.to_bits(),
        m.shed_cpu_s.to_bits(),
        m.capacity_mean.to_bits(),
        m.capacity_min.to_bits(),
        m.healthy_epochs,
        m.degraded_epochs,
        encode_opt_f64(m.p99_healthy_s),
        encode_opt_f64(m.p99_degraded_s),
        m.recoveries,
        encode_opt_f64(m.recovery_mean_s),
        encode_opt_f64(m.recovery_max_s),
        m.trips,
        m.peak_celsius.to_bits(),
    )
}

/// Parses one chaos journal line back into `(index, label, metrics)`.
/// Returns `None` for comments, blanks, and malformed or truncated
/// lines. Exposed for the journal property tests.
pub fn decode_chaos_entry(line: &str) -> Option<(usize, String, ChaosMetrics)> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let tokens: Vec<&str> = line.split_whitespace().collect();
    if tokens.len() != 3 + CHAOS_METRIC_TOKENS || tokens[0] != "chaos" {
        return None;
    }
    let index: usize = tokens[1].parse().ok()?;
    let label = tokens[2].to_string();
    let m = &tokens[3..];
    let metrics = ChaosMetrics {
        arrived_requests: m[0].parse().ok()?,
        shed_requests: m[1].parse().ok()?,
        shed_fraction: parse_hex_f64(m[2])?,
        arrived_cpu_s: parse_hex_f64(m[3])?,
        served_cpu_s: parse_hex_f64(m[4])?,
        shed_cpu_s: parse_hex_f64(m[5])?,
        capacity_mean: parse_hex_f64(m[6])?,
        capacity_min: parse_hex_f64(m[7])?,
        healthy_epochs: m[8].parse().ok()?,
        degraded_epochs: m[9].parse().ok()?,
        p99_healthy_s: parse_opt_f64(m[10])?,
        p99_degraded_s: parse_opt_f64(m[11])?,
        recoveries: m[12].parse().ok()?,
        recovery_mean_s: parse_opt_f64(m[13])?,
        recovery_max_s: parse_opt_f64(m[14])?,
        trips: m[15].parse().ok()?,
        peak_celsius: parse_hex_f64(m[16])?,
    };
    Some((index, label, metrics))
}

/// A chaos sweep's journal: same healing, replay, and append discipline
/// as [`FleetJournal`], but the unit is one (intensity, policy) grid
/// point and the identity is the grid fingerprint (base config, every
/// synthetic plan's bytes, the recovery hysteresis).
#[derive(Debug)]
pub struct ChaosJournal {
    journal: LineJournal,
    /// Expected label per point index, from the grid; entries whose
    /// label disagrees are from an incompatible grid and never replay.
    labels: Vec<String>,
    entries: BTreeMap<usize, ChaosMetrics>,
}

impl ChaosJournal {
    /// Opens the journal for `grid` inside `dir`; same resume/heal
    /// contract as [`FleetJournal::open`].
    pub fn open(dir: &Path, grid: &ChaosGrid, resume: bool) -> ChaosJournal {
        let fingerprint = grid.fingerprint();
        let labels: Vec<String> = grid
            .points()
            .into_iter()
            .map(|(intensity, kind)| ChaosGrid::label(intensity, kind))
            .collect();
        let (journal, entries) = LineJournal::open(
            chaos_journal_path(dir, fingerprint),
            &format!("# dimetrodon fleet chaos journal v1 grid {fingerprint:016x}"),
            resume,
            |line| {
                let (index, label, metrics) = decode_chaos_entry(line)?;
                let known = labels.get(index).is_some_and(|expected| *expected == label);
                known.then_some((index, metrics))
            },
        );
        ChaosJournal {
            journal,
            labels,
            entries,
        }
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        self.journal.path()
    }

    /// Points loaded for replay at open.
    pub fn replayed_count(&self) -> usize {
        self.entries.len()
    }

    /// The replayed metrics for a point, if its line survived.
    pub fn replayed(&self, index: usize) -> Option<ChaosMetrics> {
        self.entries.get(&index).cloned()
    }

    /// Appends one completed point and flushes. Thread-safe; workers
    /// append in completion order.
    ///
    /// # Panics
    ///
    /// Panics if `label` is not the grid's label for `index` — an entry
    /// written under the wrong identity would silently poison resumes.
    pub fn append(&self, index: usize, label: &str, metrics: &ChaosMetrics) {
        assert_eq!(
            self.labels.get(index).map(String::as_str),
            Some(label),
            "chaos journal append under a label the grid does not own"
        );
        self.journal.append(&encode_chaos_entry(index, label, metrics));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_reports() -> Vec<RackReport> {
        vec![
            RackReport {
                rack: 0,
                machines: 16,
                peak_celsius: 51.25,
                rms_celsius: 47.031,
                trips: 3,
                requests: 12_000,
                good_fraction: 0.9925,
                p99_latency_s: Some(2.75),
            },
            RackReport {
                rack: 1,
                machines: 2,
                peak_celsius: 40.0,
                rms_celsius: 38.5,
                trips: 0,
                requests: 0,
                good_fraction: 0.0,
                p99_latency_s: None,
            },
        ]
    }

    #[test]
    fn entries_round_trip_bit_for_bit() {
        let reports = sample_reports();
        let line = encode_entry(2, "coolest-first", &reports);
        let (variant, policy, decoded) = decode_entry(&line).expect("round trip");
        assert_eq!(variant, 2);
        assert_eq!(policy, "coolest-first");
        assert_eq!(decoded, reports);
    }

    #[test]
    fn every_truncation_of_a_line_is_rejected_or_decodes_a_prefix_free_value() {
        // A SIGKILL can cut the final line anywhere; no prefix of a
        // valid line may decode (the declared rack count guards it).
        let line = encode_entry(1, "least-loaded", &sample_reports());
        for cut in 0..line.len() {
            assert!(
                decode_entry(&line[..cut]).is_none(),
                "truncation at byte {cut} must not decode"
            );
        }
    }

    #[test]
    fn comments_blanks_and_garbage_are_skipped() {
        assert!(decode_entry("").is_none());
        assert!(decode_entry("# header").is_none());
        assert!(decode_entry("point 0123 garbage").is_none());
        assert!(decode_entry("variant x round-robin 0").is_none());
    }

    fn sample_metrics() -> ChaosMetrics {
        ChaosMetrics {
            arrived_requests: 3600,
            shed_requests: 42,
            shed_fraction: 42.0 / 3600.0,
            arrived_cpu_s: 512.25,
            served_cpu_s: 430.5,
            shed_cpu_s: 11.75,
            capacity_mean: 0.96875,
            capacity_min: 0.75,
            healthy_epochs: 20,
            degraded_epochs: 10,
            p99_healthy_s: Some(1.5),
            p99_degraded_s: Some(4.25),
            recoveries: 2,
            recovery_mean_s: Some(6.0),
            recovery_max_s: Some(9.0),
            trips: 5,
            peak_celsius: 51.375,
        }
    }

    #[test]
    fn chaos_entries_round_trip_bit_for_bit() {
        let metrics = sample_metrics();
        let line = encode_chaos_entry(3, "i0.50:least-loaded", &metrics);
        let (index, label, decoded) = decode_chaos_entry(&line).expect("round trip");
        assert_eq!(index, 3);
        assert_eq!(label, "i0.50:least-loaded");
        assert_eq!(decoded, metrics);

        let mut sparse = metrics;
        sparse.p99_degraded_s = None;
        sparse.recovery_mean_s = None;
        sparse.recovery_max_s = None;
        let line = encode_chaos_entry(0, "i0.00:round-robin", &sparse);
        let (_, _, decoded) = decode_chaos_entry(&line).expect("sparse round trip");
        assert_eq!(decoded, sparse);
    }

    #[test]
    fn every_truncation_of_a_chaos_line_is_rejected() {
        let line = encode_chaos_entry(7, "i1.00:pinned-migrate", &sample_metrics());
        for cut in 0..line.len() {
            assert!(
                decode_chaos_entry(&line[..cut]).is_none(),
                "truncation at byte {cut} must not decode"
            );
        }
        assert!(decode_chaos_entry("# header").is_none());
        assert!(decode_chaos_entry("variant 0 round-robin 0").is_none());
    }

    #[test]
    fn open_resume_replays_only_known_variants() {
        let dir = std::env::temp_dir().join(format!(
            "fleet-journal-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let fingerprint = 0xabcd_ef01_2345_6789;
        {
            let journal = FleetJournal::open(&dir, fingerprint, false);
            journal.append(0, "round-robin", &sample_reports());
            // An entry whose name does not match its variant index is
            // from an incompatible policy set and must not replay.
            journal.append(1, "not-a-policy", &sample_reports());
        }
        let resumed = FleetJournal::open(&dir, fingerprint, true);
        assert_eq!(resumed.replayed_count(), 1);
        assert_eq!(
            resumed.replayed(0).expect("variant 0 replays"),
            sample_reports()
        );
        assert!(resumed.replayed(1).is_none());

        // Fresh open truncates.
        let fresh = FleetJournal::open(&dir, fingerprint, false);
        assert_eq!(fresh.replayed_count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_journals_hold_exactly_their_pinned_headers() {
        // perfbench and CI read these files; the file names and header
        // lines are format, not implementation detail.
        let dir = std::env::temp_dir().join(format!(
            "fleet-journal-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let fleet = FleetJournal::open(&dir, 0xabcd_ef01_2345_6789, false);
        assert_eq!(fleet.path(), dir.join("fleet-abcdef0123456789.journal"));
        assert_eq!(
            std::fs::read_to_string(fleet.path()).expect("fleet journal"),
            "# dimetrodon fleet journal v1 config abcdef0123456789\n"
        );

        let mut base = crate::FleetConfig::rack_scale(6, 41);
        base.machines_per_rack = 3;
        let grid = ChaosGrid::new(base, vec![0.0]);
        let fp = grid.fingerprint();
        let chaos = ChaosJournal::open(&dir, &grid, false);
        assert_eq!(chaos.path(), dir.join(format!("fleet-chaos-{fp:016x}.journal")));
        assert_eq!(
            std::fs::read_to_string(chaos.path()).expect("chaos journal"),
            format!("# dimetrodon fleet chaos journal v1 grid {fp:016x}\n")
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
