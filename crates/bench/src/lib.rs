//! Shared scaffolding for the figure/table regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper: it runs the corresponding `dimetrodon-harness` experiment,
//! prints the rows/series the paper reports, and writes a CSV under
//! `results/` for plotting. Pass `--quick` to any binary to run the
//! shortened configuration (used in smoke tests); the default matches the
//! paper's 300 s methodology.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use dimetrodon_analysis::Table;
use dimetrodon_harness::supervise::{self, PanicPolicy, SupervisorConfig};
use dimetrodon_harness::RunConfig;

/// Parses the common CLI convention: `--quick` selects the shortened run
/// configuration, `--seed N` overrides the seed, `--jobs N` sets the
/// sweep worker count (default: one per available core; results are
/// identical at every worker count), and `--no-snapshot` disables
/// warm-prefix snapshot reuse (identical results, cold-path timing).
/// Also installs the sweep supervisor from the supervision flags (see
/// [`supervisor_from_args`]).
///
/// # Panics
///
/// Panics if `--seed` or `--jobs` is present without a valid integer
/// after it.
pub fn run_config_from_args(default_seed: u64) -> RunConfig {
    let args: Vec<String> = std::env::args().collect();
    let mut seed = default_seed;
    if let Some(pos) = args.iter().position(|a| a == "--seed") {
        seed = args
            .get(pos + 1)
            .and_then(|s| s.parse().ok())
            .expect("--seed requires an integer");
    }
    apply_jobs_from_args(&args);
    apply_snapshot_from_args(&args);
    supervise::install(supervisor_from_args(&args));
    if args.iter().any(|a| a == "--quick") {
        RunConfig::quick(seed)
    } else {
        RunConfig::paper(seed)
    }
}

/// Parses the supervision flags shared by every bench binary:
///
/// * `--strict` — abort the whole sweep on a panicking point (the
///   pre-supervisor behaviour) instead of quarantining it;
/// * `--retries N` — extra attempts for a failed point (default 0), with
///   seeds re-derived from the grid so output stays deterministic;
/// * `--point-deadline SECS` — wall-clock watchdog per point attempt;
/// * `--sweep-budget SECS` — wall-clock budget per sweep, points past it
///   are skipped;
/// * `--resume` — replay completed points from the on-disk journal of a
///   previous (possibly killed) run;
/// * `--no-journal` — disable the journal entirely (it defaults to
///   `results/.journal/`).
///
/// # Panics
///
/// Panics if a flag's value is missing or unparsable.
pub fn supervisor_from_args(args: &[String]) -> SupervisorConfig {
    let seconds_after = |flag: &str| -> Option<Duration> {
        args.iter().position(|a| a == flag).map(|pos| {
            let secs: f64 = args
                .get(pos + 1)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("{flag} requires a number of seconds"));
            assert!(
                secs.is_finite() && secs > 0.0,
                "{flag} requires a positive number of seconds"
            );
            Duration::from_secs_f64(secs)
        })
    };
    let retries = match args.iter().position(|a| a == "--retries") {
        Some(pos) => args
            .get(pos + 1)
            .and_then(|s| s.parse().ok())
            .expect("--retries requires a non-negative integer"),
        None => 0,
    };
    let journal_dir = if args.iter().any(|a| a == "--no-journal") {
        None
    } else {
        Some(results_dir().join(".journal"))
    };
    SupervisorConfig {
        policy: if args.iter().any(|a| a == "--strict") {
            PanicPolicy::Strict
        } else {
            PanicPolicy::Quarantine
        },
        point_deadline: seconds_after("--point-deadline"),
        sweep_budget: seconds_after("--sweep-budget"),
        retries,
        journal_dir,
        resume: args.iter().any(|a| a == "--resume"),
        backoff: true,
    }
}

/// End-of-run supervision report: prints how many points were replayed
/// from journals and every quarantine/timeout/skip incident, and turns
/// incidents into a nonzero exit code so CI catches degraded runs even
/// though the rest of the grid completed.
pub fn supervision_epilogue() -> ExitCode {
    let replayed = supervise::take_replayed();
    if replayed > 0 {
        println!("[resume: {replayed} point(s) replayed from journal]");
    }
    let incidents = supervise::take_incidents();
    if incidents.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("{} point(s) failed under supervision:", incidents.len());
    for incident in &incidents {
        eprintln!("  {incident}");
    }
    ExitCode::FAILURE
}

/// Applies a `--jobs N` argument (if present) to the sweep engine.
///
/// # Panics
///
/// Panics if `--jobs` is present without a positive integer after it.
pub fn apply_jobs_from_args(args: &[String]) {
    if let Some(pos) = args.iter().position(|a| a == "--jobs") {
        let jobs: usize = args
            .get(pos + 1)
            .and_then(|s| s.parse().ok())
            .expect("--jobs requires a positive integer");
        assert!(jobs > 0, "--jobs requires a positive integer");
        dimetrodon_harness::sweep::set_jobs(jobs);
    }
}

/// Applies a `--no-snapshot` argument (if present): disables warm-prefix
/// snapshot reuse in the harness, so every run recomputes its warmup.
/// Results are identical either way; the flag exists for timing
/// comparisons and as an escape hatch.
pub fn apply_snapshot_from_args(args: &[String]) {
    if args.iter().any(|a| a == "--no-snapshot") {
        dimetrodon_harness::snapshot::set_enabled(false);
    }
}

/// Installs the worker-count override, the snapshot toggle, and the sweep
/// supervisor from the process arguments, for binaries that do not take a
/// [`RunConfig`] (the validation bins); [`run_config_from_args`] does
/// this implicitly.
pub fn apply_common_args() {
    let args: Vec<String> = std::env::args().collect();
    apply_jobs_from_args(&args);
    apply_snapshot_from_args(&args);
    supervise::install(supervisor_from_args(&args));
}

/// Whether `--quick` was passed (for binaries that scale sweep grids as
/// well as durations).
pub fn quick_requested() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Parsed durable-checkpoint flags, shared by checkpoint-aware binaries:
///
/// * `--checkpoint-every N` — control epochs (fleet) or events (single
///   machine) between checkpoint saves, overriding the default cadence;
/// * `--no-checkpoint` — disable checkpoint saving entirely;
/// * `--restore` — resume from the newest verifiable checkpoint (falls
///   back past corrupt files; exits nonzero when none verifies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointArgs {
    /// Explicit `--checkpoint-every` cadence, when given.
    pub every: Option<u64>,
    /// Whether `--no-checkpoint` was passed.
    pub disabled: bool,
    /// Whether `--restore` was passed.
    pub restore: bool,
}

/// Parses the checkpoint flags from an argument list.
///
/// # Panics
///
/// Panics if `--checkpoint-every` is present without a positive integer
/// after it, or combined with `--no-checkpoint`.
pub fn checkpoint_args(args: &[String]) -> CheckpointArgs {
    let every = args.iter().position(|a| a == "--checkpoint-every").map(|pos| {
        let n: u64 = args
            .get(pos + 1)
            .and_then(|s| s.parse().ok())
            .expect("--checkpoint-every requires a positive integer");
        assert!(n > 0, "--checkpoint-every requires a positive integer");
        n
    });
    let disabled = args.iter().any(|a| a == "--no-checkpoint");
    assert!(
        !(disabled && every.is_some()),
        "--checkpoint-every and --no-checkpoint are mutually exclusive"
    );
    CheckpointArgs {
        every,
        disabled,
        restore: args.iter().any(|a| a == "--restore"),
    }
}

/// The directory durable checkpoints live in (`results/.ckpt/`).
pub fn ckpt_dir() -> PathBuf {
    results_dir().join(".ckpt")
}

/// Applies a `--journal-gc K` argument (if present): keep-last-K
/// retention over `results/.journal/`, sparing any file named by one of
/// `active_fingerprints` (the runs this process is using) regardless of
/// age. Off by default — journals are cheap and resumability is worth
/// more than the disk.
///
/// # Panics
///
/// Panics if `--journal-gc` is present without a non-negative integer
/// after it.
pub fn apply_journal_gc_from_args(args: &[String], active_fingerprints: &[u64]) {
    if let Some(pos) = args.iter().position(|a| a == "--journal-gc") {
        let keep: usize = args
            .get(pos + 1)
            .and_then(|s| s.parse().ok())
            .expect("--journal-gc requires a non-negative keep count");
        let dir = results_dir().join(".journal");
        let removed = dimetrodon_ckpt::journal::gc_journals(&dir, keep, active_fingerprints);
        if removed > 0 {
            println!("[journal-gc: removed {removed} old journal file(s), kept last {keep}]");
        }
    }
}

/// Prints a banner naming the experiment being regenerated.
pub fn banner(id: &str, caption: &str) {
    println!("================================================================");
    println!("{id}: {caption}");
    println!("================================================================");
}

/// The output directory for CSVs (`results/`, created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Writes a table as CSV under `results/` and reports the path.
pub fn write_csv(name: &str, table: &Table) {
    let path = results_dir().join(format!("{name}.csv"));
    fs::write(&path, table.render_csv()).expect("write csv");
    println!("[wrote {}]", path.display());
}

/// The Figure 3 efficiency table, shared by the `fig3` binary and
/// `run_all` so both emit the identical `fig3_efficiency.csv` (which the
/// CI kill-and-resume check diffs byte-for-byte).
pub fn fig3_table(data: &dimetrodon_harness::experiments::fig3::Fig3Data) -> Table {
    let mut table = Table::new(vec![
        "p",
        "L_ms",
        "temp_reduction",
        "throughput_reduction",
        "efficiency",
    ]);
    for point in &data.points {
        table.row(vec![
            format!("{:.2}", point.p),
            format!("{}", point.l_ms),
            format!("{:.4}", point.temp_reduction),
            format!("{:.4}", point.throughput_reduction),
            format!("{:.2}", point.efficiency()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_paper_scale() {
        let config = run_config_from_args(5);
        assert_eq!(config.seed, 5);
        assert_eq!(
            config.duration,
            dimetrodon_sim_core::SimDuration::from_secs(300)
        );
    }

    #[test]
    fn write_csv_roundtrip() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into()]);
        write_csv("bench_selftest", &t);
        let read = std::fs::read_to_string(results_dir().join("bench_selftest.csv")).unwrap();
        assert_eq!(read, "a\n1\n");
        let _ = std::fs::remove_file(results_dir().join("bench_selftest.csv"));
    }
}
