//! Whole-run and per-layer benchmark of the Dimetrodon reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|fleet|chaos --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the workload repeats through the crates' public entry
//! points for `--seconds` and the end-to-end metrics are reported. With
//! `--trace 1` untraced and traced repetitions alternate and the
//! per-layer metrics are reported. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. A record of the run is written under `perfbench/out/`.

mod check;
mod probes;
mod stamp;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use check::{Ledger, Op};
use dimetrodon_harness::{snapshot, sweep};
use trace::{median, tail};
use workloads::{Ctx, Layers, Rep, Workload};

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Untraced repetitions a run makes at least, so the digest check
/// always has a repetition to compare.
const MIN_REPS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let pos = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(pos + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let parse_u64 = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: parse_u64("--seed")?,
        seconds: parse_u64("--seconds")? as f64,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Runs `rep`, turning a panic into a lost repetition.
fn guarded(
    ledger: &mut Ledger,
    ops: u64,
    rep: impl FnOnce() -> Result<Rep, String>,
) -> Option<Rep> {
    match catch_unwind(AssertUnwindSafe(rep)) {
        Ok(Ok(rep)) => {
            ledger.record_rep(&rep.ops);
            Some(rep)
        }
        Ok(Err(why)) => {
            ledger.record_lost_rep(ops, why);
            None
        }
        Err(payload) => {
            let why = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string());
            ledger.record_lost_rep(ops, format!("repetition panicked: {why}"));
            None
        }
    }
}

/// The untraced run: set-up timing, repetitions for `seconds`, the
/// accuracy probes.
fn end_to_end(args: &Args, ctx: &Ctx, ledger: &mut Ledger, notes: &mut Vec<String>) -> Vec<Metric> {
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| workloads::setup(args.workload, ctx))
        .collect();
    let start = Instant::now();
    let (mut rates, mut peaks) = (Vec::new(), Vec::new());
    while rates.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let per_rep_peak = stamp::reset_peak_rss();
        let rep_start = Instant::now();
        let rep = guarded(ledger, args.workload.ops(), || {
            workloads::run(args.workload, ctx, None)
        });
        let wall = rep_start.elapsed().as_secs_f64();
        match rep {
            Some(rep) => {
                rates.push(rep.sim_machine_s / wall);
                if per_rep_peak {
                    peaks.push(stamp::peak_rss_mb());
                }
                if notes.is_empty() {
                    notes.extend(rep.notes);
                }
            }
            None if start.elapsed().as_secs_f64() >= args.seconds => break,
            None => {}
        }
    }
    notes.push(format!(
        "repetitions: {} ({} failed)",
        rates.len(),
        ledger.failed
    ));
    notes.push(format!("per-rep rate: {}", join(&rates, 1)));
    notes.push(format!("set-ups (s): {}", join(&setups, 5)));
    notes.push(format!("per-rep peak RSS (MB): {}", join(&peaks, 2)));
    // The peak of one repetition depends on how the workers' allocations
    // happen to overlap, so the median over repetitions is reported; the
    // whole-process peak only where the kernel refuses the reset.
    let peak_rss_mb = if peaks.is_empty() {
        stamp::peak_rss_mb()
    } else {
        median(&peaks)
    };
    let accuracy = probes::accuracy();
    ledger.record_once(&accuracy.ops);
    vec![
        metric("sim_machine_s_per_s", median(&rates), "machine-s/s"),
        metric("setup_s", median(&setups), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
        metric("model_err_pct", accuracy.model_err_pct, "%"),
        metric("energy_err_pct", accuracy.energy_err_pct, "%"),
    ]
}

fn join(values: &[f64], decimals: usize) -> String {
    values
        .iter()
        .map(|v| format!("{v:.decimals$}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The traced run: untraced and traced repetitions alternate for
/// `seconds`; the traced ones must reproduce the untraced digests.
fn per_layer(args: &Args, ctx: &Ctx, ledger: &mut Ledger, notes: &mut Vec<String>) -> Vec<Metric> {
    let mut layers = Layers::default();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    snapshot::reset();
    let start = Instant::now();
    loop {
        for traced in [false, true] {
            let rep_start = Instant::now();
            let rep = guarded(ledger, args.workload.ops(), || match traced {
                false => workloads::run(args.workload, ctx, None),
                true => workloads::run(args.workload, ctx, Some(&mut layers)),
            });
            let wall = rep_start.elapsed().as_secs_f64();
            if let Some(rep) = rep {
                if traced {
                    traced_walls.push(wall);
                } else {
                    plain_walls.push(wall);
                    if notes.is_empty() {
                        notes.extend(rep.notes);
                    }
                }
            }
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let snapshots = snapshot::stats();

    // Layers this workload does not load are measured by fixed probes.
    let mut probe_ops: Vec<Op> = Vec::new();
    if args.workload == Workload::Sweep || args.workload == Workload::Chaos {
        let mut probe = Layers::default();
        match workloads::fleet_probe(ctx, &mut probe) {
            Ok(ops) => probe_ops.extend(ops),
            Err(why) => ledger.record_lost_rep(
                dimetrodon_fleet::PolicyKind::ALL.len() as u64,
                format!("fleet probe: {why}"),
            ),
        }
        if args.workload == Workload::Sweep {
            layers.fleet = probe.fleet;
        } else {
            let fleet = &mut layers.fleet;
            fleet.encode_ns = probe.fleet.encode_ns;
            fleet.ckpt_bytes = probe.fleet.ckpt_bytes;
            fleet.save_ms = probe.fleet.save_ms;
            fleet.ckpt_count = probe.fleet.ckpt_count;
            fleet.ckpt_reps = probe.fleet.ckpt_reps;
        }
    }
    if args.workload != Workload::Sweep {
        let mut probe = Layers::default();
        probe_ops.extend(workloads::sweep_probe(ctx, &mut probe));
        layers.sweep = probe.sweep;
    }
    ledger.record_once(&probe_ops);
    notes.push(format!("untraced walls (s): {}", join(&plain_walls, 3)));
    notes.push(format!("traced walls (s): {}", join(&traced_walls, 3)));

    let mut metrics = fleet_metrics(&layers.fleet, notes);
    let sweep = &layers.sweep;
    let reps = sweep.reps.max(1) as f64;
    let point_tail = tail(&sweep.point_ms);
    notes.push(format!(
        "harness.point.ms_tail is p{} of {} points",
        point_tail.percentile, point_tail.samples
    ));
    metrics.extend([
        metric("sched.events", sweep.events as f64 / reps, "count"),
        metric(
            "sched.event.ns",
            sweep.events_ns as f64 / sweep.events.max(1) as f64,
            "ns",
        ),
        metric(
            "dimetrodon.on_schedule.calls",
            sweep.hook_calls as f64 / reps,
            "count",
        ),
        metric(
            "dimetrodon.on_schedule.ns",
            sweep.hook_ns as f64 / sweep.hook_calls.max(1) as f64,
            "ns",
        ),
        metric(
            "dimetrodon.inject_ratio",
            sweep.injects as f64 / sweep.hook_calls.max(1) as f64,
            "ratio",
        ),
        metric("harness.point.ms_p50", median(&sweep.point_ms), "ms"),
        metric("harness.point.ms_tail", point_tail.value, "ms"),
        metric(
            "harness.pool.util",
            layers.pool.busy_ns as f64 / layers.pool.capacity_ns.max(1) as f64,
            "share",
        ),
        metric(
            "harness.snapshot.warmups_paid",
            snapshots.warmups_paid as f64,
            "count",
        ),
        metric(
            "harness.snapshot.forks_served",
            snapshots.forks_served as f64,
            "count",
        ),
    ]);
    for (name, value, unit) in probes::layer_probes() {
        metrics.push(metric(name, value, unit));
    }
    metrics.push(metric(
        "trace.overhead_frac",
        median(&traced_walls) / median(&plain_walls) - 1.0,
        "share",
    ));
    metrics
}

fn fleet_metrics(fleet: &workloads::FleetTrace, notes: &mut Vec<String>) -> Vec<Metric> {
    let reps = fleet.reps.max(1) as f64;
    let step_tail = tail(&fleet.step_ns);
    notes.push(format!(
        "fleet.step.ns_tail is p{} of {} steps",
        step_tail.percentile, step_tail.samples
    ));
    let calls: u64 = fleet.per_policy.iter().map(|p| p.1).sum();
    let mut metrics = vec![
        metric("fleet.step.ns_p50", median(&fleet.step_ns), "ns"),
        metric("fleet.step.ns_tail", step_tail.value, "ns"),
        metric(
            "fleet.step.self_share",
            1.0 - fleet.route_total_ns as f64 / fleet.step_total_ns.max(1) as f64,
            "share",
        ),
        metric("fleet.new.ms", median(&fleet.new_ms), "ms"),
        metric("fleet.restarts", fleet.restarts as f64 / reps, "count"),
        metric("fleet.route.calls", calls as f64 / reps, "count"),
        metric(
            "fleet.route.attempts_per_request",
            calls as f64 / fleet.routed.max(1) as f64,
            "ratio",
        ),
    ];
    for kind in dimetrodon_fleet::PolicyKind::ALL {
        let (calls, route_ns, step_ns) = fleet
            .per_policy
            .iter()
            .find(|p| p.0 == kind.name())
            .map_or((0, 0, 0), |p| (p.1, p.2, p.3));
        metrics.push(metric(
            format!("fleet.route.{}.ns_per_call", kind.name()),
            route_ns as f64 / calls.max(1) as f64,
            "ns",
        ));
        metrics.push(metric(
            format!("fleet.route.{}.share", kind.name()),
            route_ns as f64 / step_ns.max(1) as f64,
            "share",
        ));
    }
    metrics.extend([
        metric("ckpt.encode.ns", median(&fleet.encode_ns), "ns"),
        metric("ckpt.bytes", median(&fleet.ckpt_bytes), "bytes"),
        metric("ckpt.save.ms", median(&fleet.save_ms), "ms"),
        metric(
            "ckpt.count",
            fleet.ckpt_count as f64 / fleet.ckpt_reps.max(1) as f64,
            "count",
        ),
        metric("journal.append.ms", median(&fleet.journal_ms), "ms"),
    ]);
    metrics
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("error: {why}");
            eprintln!(
                "usage: perfbench --workload sweep|fleet|chaos --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let ctx = Ctx {
        seed: args.seed,
        workers: stamp::workers(),
        dir: out.join(format!("work-{}", std::process::id())),
    };
    sweep::set_jobs(ctx.workers);
    let stamp = stamp::Stamp::take(&ctx, args.seed);
    let mut ledger = Ledger::default();
    let mut notes = Vec::new();
    let metrics = match args.trace {
        false => end_to_end(&args, &ctx, &mut ledger, &mut notes),
        true => per_layer(&args, &ctx, &mut ledger, &mut notes),
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|m| match m.value.is_finite() {
            true => m,
            false => {
                ledger.record_lost_rep(0, format!("metric {} is not finite", m.name));
                metric(m.name, 0.0, m.unit)
            }
        })
        .collect();
    let correct = ledger.failed == 0 && ledger.reasons.is_empty();
    let digest = ledger
        .workload_digest()
        .map_or("none".to_string(), |d| format!("{d:016x}"));

    println!(
        "# perfbench {} seed={} trace={} seconds={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    println!("# host: {}", stamp.line());
    println!("# input: {}", args.workload.shape());
    println!("# output digest {digest} (identical across every repetition of this seed)");
    for note in &notes {
        println!("# {note}");
    }
    for reason in &ledger.reasons {
        println!("# FAILED {reason}");
    }
    println!(
        "failed_frac = {} share ({} of {} operations)",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
        ledger.failed,
        ledger.attempted
    );
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ledger.attempted.max(1),
        ledger.failed,
        json_metrics(&metrics)
    );
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"stamp\": {}, \"digest\": {}, \"notes\": [{}], \"result\": {result}}}\n",
        json_string(args.workload.name()),
        args.seed,
        args.trace,
        stamp.json(),
        json_string(&digest),
        notes.iter().map(|n| json_string(n)).collect::<Vec<_>>().join(", "),
    );
    let records = out.join("records");
    let path = records.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(err) = std::fs::create_dir_all(&records).and_then(|()| std::fs::write(&path, record))
    {
        eprintln!(
            "warning: cannot write the run record {}: {err}",
            path.display()
        );
    }
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_or_failing_repetition_counts_all_its_operations() {
        let mut ledger = Ledger::default();
        assert!(guarded(&mut ledger, 3, || panic!("forced")).is_none());
        assert!(guarded(&mut ledger, 2, || Err("journal write failed".to_string())).is_none());
        assert_eq!((ledger.attempted, ledger.failed), (5, 5));
        assert!(ledger.reasons[0].contains("forced"), "{:?}", ledger.reasons);
    }
}
