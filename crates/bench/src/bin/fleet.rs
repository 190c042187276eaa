//! Regenerates the fleet comparison: every cluster routing policy over
//! the same rack-coupled fleet and the same offered load, reporting
//! per-rack peak/RMS temperature, trip counts, and tail latency.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin fleet            # 256 machines
//! cargo run --release -p dimetrodon-bench --bin fleet -- --quick # 32 machines
//! cargo run --release -p dimetrodon-bench --bin fleet -- --machines 1024 --jobs 4
//! cargo run --release -p dimetrodon-bench --bin fleet -- --chaos-plan plan.txt
//! cargo run --release -p dimetrodon-bench --bin fleet -- --chaos # failure sweep
//! ```
//!
//! `--chaos-plan FILE` injects a fleet fault plan (machine crashes, rack
//! CRAC failures, controller wedges) into the standard comparison;
//! `--chaos` instead sweeps synthetic failure intensity × routing policy
//! and writes the availability table to `results/fleet_chaos.csv`. Like
//! every sweep-shaped binary, output is bit-identical at every `--jobs`
//! count, and a killed run resumes from its journal with `--resume`
//! (disable journaling with `--no-journal`; prune old journals with
//! `--journal-gc K`).
//!
//! The standard comparison also writes durable mid-run checkpoints
//! under `results/.ckpt/` every 50 control epochs (`--checkpoint-every
//! N` to change, `--no-checkpoint` to disable). After a kill,
//! `--restore` resumes each unfinished policy variant from its newest
//! verifiable checkpoint — corrupt files are skipped, and the restored
//! run's remaining epochs produce byte-identical CSV to an
//! uninterrupted run.

use dimetrodon_bench::{
    apply_common_args, apply_journal_gc_from_args, banner, checkpoint_args, ckpt_dir,
    quick_requested, results_dir, write_csv,
};
use dimetrodon_fleet::{
    chaos_comparison, chaos_table, fleet_comparison_checkpointed, fleet_table, ChaosGrid,
    ChaosJournal, CheckpointSpec, FleetConfig, FleetJournal, DEFAULT_INTENSITIES,
    QUICK_INTENSITIES, RECOVERY_HYSTERESIS_EPOCHS,
};

fn main() -> std::process::ExitCode {
    banner(
        "fleet",
        "cluster routing policies over a rack-coupled fleet; placement as a thermal knob",
    );
    apply_common_args();
    let args: Vec<String> = std::env::args().collect();
    let seed = match args.iter().position(|a| a == "--seed") {
        Some(pos) => args
            .get(pos + 1)
            .and_then(|s| s.parse().ok())
            .expect("--seed requires an integer"),
        None => 211,
    };
    let quick = quick_requested();
    let machines = match args.iter().position(|a| a == "--machines") {
        Some(pos) => {
            let n: usize = args
                .get(pos + 1)
                .and_then(|s| s.parse().ok())
                .expect("--machines requires a positive integer");
            assert!(n > 0, "--machines requires a positive integer");
            n
        }
        None if quick => 32,
        None => 256,
    };
    let mut config = FleetConfig::rack_scale(machines, seed);
    if quick {
        config.duration = FleetConfig::quick(seed).duration;
    }
    let chaos_sweep = args.iter().any(|a| a == "--chaos");
    if let Some(pos) = args.iter().position(|a| a == "--chaos-plan") {
        assert!(
            !chaos_sweep,
            "--chaos-plan and --chaos are mutually exclusive"
        );
        let path = args.get(pos + 1).expect("--chaos-plan requires a file path");
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("--chaos-plan: read {path}: {e}"));
        config.chaos = text
            .parse()
            .unwrap_or_else(|e| panic!("--chaos-plan: {path}: {e}"));
        println!(
            "chaos plan: {} event(s) from {path}, on-crash {}",
            config.chaos.events().len(),
            config.chaos.on_crash().name()
        );
    }
    println!(
        "{} machines in {} racks, {} tenants, {} epochs per policy",
        config.machines,
        config.racks(),
        config.tenants,
        config.epochs()
    );

    let no_journal = args.iter().any(|a| a == "--no-journal");
    let resume = args.iter().any(|a| a == "--resume");
    if chaos_sweep {
        let intensities = if quick {
            QUICK_INTENSITIES.to_vec()
        } else {
            DEFAULT_INTENSITIES.to_vec()
        };
        println!(
            "chaos sweep: {} failure intensities x {} routing policies (failover hysteresis {} epochs)",
            intensities.len(),
            dimetrodon_fleet::PolicyKind::ALL.len(),
            RECOVERY_HYSTERESIS_EPOCHS
        );
        let grid = ChaosGrid::new(config, intensities);
        let journal = if no_journal {
            None
        } else {
            Some(ChaosJournal::open(
                &results_dir().join(".journal"),
                &grid,
                resume,
            ))
        };
        let outcomes = chaos_comparison(&grid, journal.as_ref());
        let replayed = outcomes.iter().filter(|o| o.replayed).count();
        if replayed > 0 {
            println!("[resume: {replayed} chaos point(s) replayed from journal]");
        }
        apply_journal_gc_from_args(&args, &[grid.fingerprint()]);
        let table = chaos_table(&outcomes);
        println!("{}", table.render());
        write_csv("fleet_chaos", &table);
        let worst_shed = outcomes
            .iter()
            .map(|o| o.metrics.shed_fraction)
            .fold(0.0f64, f64::max);
        println!(
            "\nWorst shed fraction {:.2}% across the grid; intensity 0 rows are the \
             no-failure control.",
            100.0 * worst_shed
        );
        return dimetrodon_bench::supervision_epilogue();
    }

    let journal = if no_journal {
        None
    } else {
        Some(FleetJournal::open(
            &results_dir().join(".journal"),
            config.fingerprint(),
            resume,
        ))
    };
    let ckpt = checkpoint_args(&args);
    let spec = if ckpt.disabled {
        None
    } else {
        let mut spec = CheckpointSpec::new(&ckpt_dir());
        if let Some(every) = ckpt.every {
            spec.every_epochs = every;
        }
        spec.restore = ckpt.restore;
        Some(spec)
    };
    let outcomes = match fleet_comparison_checkpointed(
        dimetrodon_harness::sweep::jobs(),
        &config,
        journal.as_ref(),
        spec.as_ref(),
    ) {
        Ok(outcomes) => outcomes,
        Err(err) => {
            eprintln!("checkpoint restore failed: {err}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let replayed = outcomes.iter().filter(|o| o.replayed).count();
    if replayed > 0 {
        println!("[resume: {replayed} policy variant(s) replayed from journal]");
    }
    apply_journal_gc_from_args(&args, &[config.fingerprint()]);

    let table = fleet_table(&outcomes);
    println!("{}", table.render());
    write_csv("fleet", &table);

    let fleet_peak = |outcome: &dimetrodon_fleet::FleetOutcome| {
        outcome
            .reports
            .iter()
            .map(|r| r.peak_celsius)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    if let Some(coolest) = outcomes
        .iter()
        .min_by(|a, b| fleet_peak(a).total_cmp(&fleet_peak(b)))
    {
        println!(
            "\nCoolest peak: {} at {:.2} C; total trips per policy: {}.",
            coolest.policy.name(),
            fleet_peak(coolest),
            outcomes
                .iter()
                .map(|o| format!(
                    "{} {}",
                    o.policy.name(),
                    o.reports.iter().map(|r| r.trips).sum::<u64>()
                ))
                .collect::<Vec<_>>()
                .join(", "),
        );
    }
    println!(
        "Thermal-aware placement flattens rack temperature at some queueing \
         cost; the per-rack p99 column prices that trade."
    );

    dimetrodon_bench::supervision_epilogue()
}
