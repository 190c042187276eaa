//! The three workloads, each as a set-up, an untraced repetition through
//! the crates' public entry points, and a traced repetition that does the
//! same simulated work with timers on the public call boundaries.

use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use dimetrodon::{InjectionModel, InjectionParams};
use dimetrodon_ckpt::Enc;
use dimetrodon_fleet::{
    chaos_comparison_with, fleet_comparison_checkpointed, ChaosGrid, ChaosJournal, ChaosOutcome,
    CheckpointSpec, FailoverPolicy, Fleet, FleetConfig, FleetJournal, FleetOutcome, PolicyKind,
    RoutePolicy, DEFAULT_INTENSITIES,
};
use dimetrodon_harness::experiments::fig3::{self, EfficiencyPoint, PROPORTIONS, QUANTA_MS};
use dimetrodon_harness::experiments::validation;
use dimetrodon_harness::sweep::{parallel_map_with, SweepPoint};
use dimetrodon_harness::{
    build_system, build_system_on, Actuation, RunConfig, RunOutcome, SaturatingWorkload,
};
use dimetrodon_sched::ThreadKind;
use dimetrodon_sim_core::{SimDuration, SimTime};
use dimetrodon_workload::CpuBurn;

use crate::check::{all_finite, Op};
use crate::trace::{ns_since, HookCounters, TimedHook, TimedRoute};

/// Trials per configuration of the throughput-validation grid inside a
/// `sweep` repetition (the `validate_model` binary's default).
pub const SWEEP_TRIALS: usize = 30;
/// Machines in the `fleet` workload (the ROADMAP's comparison).
pub const FLEET_MACHINES: usize = 256;
/// Simulated seconds (one epoch each) of the `fleet` workload: past the
/// default checkpoint cadence of 50 epochs, so every variant saves once.
pub const FLEET_SECS: u64 = 60;
/// Machines in the `chaos` workload's fleet.
pub const CHAOS_MACHINES: usize = 32;
/// Simulated seconds of each `chaos` grid point.
pub const CHAOS_SECS: u64 = 60;
/// Events dispatched per timed `System::run_events` call.
const EVENT_CHUNK: u64 = 4096;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sweep,
    Fleet,
    Chaos,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "sweep" => Some(Workload::Sweep),
            "fleet" => Some(Workload::Fleet),
            "chaos" => Some(Workload::Chaos),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Fleet => "fleet",
            Workload::Chaos => "chaos",
        }
    }

    /// One line describing the input size.
    pub fn shape(self) -> String {
        match self {
            Workload::Sweep => format!(
                "fig3 {}p x {}L + baseline at 300 s, throughput validation {} configs x {SWEEP_TRIALS} trials",
                PROPORTIONS.len(),
                QUANTA_MS.len(),
                validation::THROUGHPUT_P.len() * validation::THROUGHPUT_L_MS.len()
            ),
            Workload::Fleet => format!(
                "{FLEET_MACHINES} machines x {} policies x {FLEET_SECS} epochs, journal + checkpoints on",
                PolicyKind::ALL.len()
            ),
            Workload::Chaos => format!(
                "{CHAOS_MACHINES} machines x {} intensities x {} failover policies x {CHAOS_SECS} epochs, journal on",
                DEFAULT_INTENSITIES.len(),
                PolicyKind::ALL.len()
            ),
        }
    }

    /// Operations per repetition.
    pub fn ops(self) -> u64 {
        match self {
            Workload::Sweep => {
                (PROPORTIONS.len() * QUANTA_MS.len()
                    + validation::THROUGHPUT_P.len() * validation::THROUGHPUT_L_MS.len())
                    as u64
            }
            Workload::Fleet => PolicyKind::ALL.len() as u64,
            Workload::Chaos => (DEFAULT_INTENSITIES.len() * PolicyKind::ALL.len()) as u64,
        }
    }
}

/// What every repetition shares.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub workers: usize,
    /// Scratch directory for journals and checkpoints, private to this
    /// process.
    pub dir: PathBuf,
}

impl Ctx {
    fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// One finished repetition.
#[derive(Debug)]
pub struct Rep {
    pub ops: Vec<Op>,
    /// Simulated machine-seconds the repetition completed.
    pub sim_machine_s: f64,
    /// Human-readable lines about the simulated outputs (QoS columns).
    pub notes: Vec<String>,
}

/// Host-time accumulators of the fleet layers.
#[derive(Debug, Default)]
pub struct FleetTrace {
    pub step_ns: Vec<f64>,
    pub step_total_ns: u64,
    pub route_total_ns: u64,
    /// Per policy name: (route calls, route ns, step ns).
    pub per_policy: Vec<(&'static str, u64, u64, u64)>,
    pub new_ms: Vec<f64>,
    pub restarts: u64,
    pub routed: u64,
    pub encode_ns: Vec<f64>,
    pub ckpt_bytes: Vec<f64>,
    pub save_ms: Vec<f64>,
    pub ckpt_count: u64,
    pub journal_ms: Vec<f64>,
    pub reps: u64,
    /// Repetitions that checkpointed, the divisor of `ckpt_count`.
    pub ckpt_reps: u64,
}

impl FleetTrace {
    fn add_policy(&mut self, name: &'static str, calls: u64, route_ns: u64, step_ns: u64) {
        match self.per_policy.iter_mut().find(|entry| entry.0 == name) {
            Some(entry) => {
                entry.1 += calls;
                entry.2 += route_ns;
                entry.3 += step_ns;
            }
            None => self.per_policy.push((name, calls, route_ns, step_ns)),
        }
    }
}

/// Host-time accumulators of the single-machine layers.
#[derive(Debug, Default)]
pub struct SweepTrace {
    pub events: u64,
    pub events_ns: u64,
    pub hook_calls: u64,
    pub hook_ns: u64,
    pub injects: u64,
    pub point_ms: Vec<f64>,
    pub reps: u64,
}

/// Busy time of a pool's work items against its capacity.
#[derive(Debug, Default)]
pub struct PoolTrace {
    pub busy_ns: u64,
    pub capacity_ns: u64,
}

impl PoolTrace {
    fn add(&mut self, busy_ns: u64, workers: usize, items: usize, wall_ns: u64) {
        self.busy_ns += busy_ns;
        self.capacity_ns += workers.min(items).max(1) as u64 * wall_ns;
    }
}

/// Everything a traced repetition measures.
#[derive(Debug, Default)]
pub struct Layers {
    pub fleet: FleetTrace,
    pub sweep: SweepTrace,
    pub pool: PoolTrace,
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/// Times one set-up of `workload`: building its configs, every machine
/// or fleet a repetition builds before its first simulated step, the
/// journal and checkpoint store, and the worker pool.
pub fn setup(workload: Workload, ctx: &Ctx) -> f64 {
    let start = Instant::now();
    match workload {
        Workload::Sweep => {
            for point in fig3_points(RunConfig::paper(ctx.seed), &PROPORTIONS, &QUANTA_MS) {
                std::hint::black_box(build_system_on(
                    &point.machine,
                    point.actuation,
                    point.config.seed,
                ));
            }
            for &p in &validation::THROUGHPUT_P {
                for &l_ms in &validation::THROUGHPUT_L_MS {
                    for trial in 0..SWEEP_TRIALS {
                        std::hint::black_box(build_system(
                            injection(p, l_ms),
                            ctx.seed ^ trial as u64,
                        ));
                    }
                }
            }
        }
        Workload::Fleet => {
            let config = fleet_config(FLEET_MACHINES, ctx.seed);
            let journal =
                FleetJournal::open(&ctx.fresh_dir("setup-journal"), config.fingerprint(), false);
            let spec = CheckpointSpec::new(&ctx.dir.join("setup-ckpt"));
            for kind in PolicyKind::ALL {
                std::hint::black_box(spec.store(&config, kind.name()));
                std::hint::black_box(Fleet::new(config.clone()));
            }
            std::hint::black_box(journal);
        }
        Workload::Chaos => {
            let grid = chaos_grid(ctx.seed);
            let journal = ChaosJournal::open(&ctx.fresh_dir("setup-journal"), &grid, false);
            for (intensity, _) in grid.points() {
                let mut fleet = Fleet::new(grid.point_config(intensity));
                fleet.set_collect_chaos(true);
                std::hint::black_box(fleet);
            }
            std::hint::black_box(journal);
        }
    }
    parallel_map_with(ctx.workers, ctx.workers, |i| std::hint::black_box(i));
    start.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------
// sweep
// ---------------------------------------------------------------------

fn injection(p: f64, l_ms: u64) -> Actuation {
    Actuation::Injection {
        params: InjectionParams::new(p, SimDuration::from_millis(l_ms)),
        model: InjectionModel::Probabilistic,
    }
}

/// Figure 3's sweep points exactly as `fig3::run_subset` builds them:
/// the shared unconstrained baseline first, then the grid.
fn fig3_points(config: RunConfig, proportions: &[f64], quanta_ms: &[u64]) -> Vec<SweepPoint> {
    let mut points = vec![SweepPoint::new(
        SaturatingWorkload::CpuBurn,
        Actuation::None,
        config,
    )];
    for (i, &p) in proportions.iter().enumerate() {
        for (j, &l_ms) in quanta_ms.iter().enumerate() {
            points.push(SweepPoint::new(
                SaturatingWorkload::CpuBurn,
                injection(p, l_ms),
                RunConfig {
                    seed: config.seed.wrapping_add((i * 97 + j * 13 + 1) as u64),
                    ..config
                },
            ));
        }
    }
    points
}

fn fig3_ops(points: &[EfficiencyPoint]) -> Vec<Op> {
    points
        .iter()
        .map(|pt| {
            Op::checked(
                format!("fig3 p={} L={}ms", pt.p, pt.l_ms),
                pt,
                all_finite(&[pt.temp_reduction, pt.throughput_reduction]),
                "non-finite temperature or throughput reduction",
            )
        })
        .collect()
}

fn throughput_ops(rows: &[validation::ThroughputRow]) -> (Vec<Op>, f64) {
    let mut simulated = 0.0;
    let ops = rows
        .iter()
        .map(|row| {
            simulated += row.measured_s * row.deviations.len() as f64;
            let finite =
                all_finite(&[row.measured_s, row.predicted_s]) && all_finite(&row.deviations);
            Op::checked(
                format!("throughput p={} L={}ms", row.p, row.l_ms),
                row,
                finite,
                "non-finite runtime",
            )
        })
        .collect();
    (ops, simulated)
}

fn fig3_simulated(points: usize, config: RunConfig) -> f64 {
    points as f64 * config.duration.as_secs_f64()
}

/// One `sweep` repetition; traced when `layers` is given.
fn sweep_rep(ctx: &Ctx, layers: Option<&mut Layers>) -> Rep {
    let config = RunConfig::paper(ctx.seed);
    let points = match layers {
        None => fig3::run(config).points,
        Some(layers) => traced_fig3(ctx, config, &PROPORTIONS, &QUANTA_MS, layers),
    };
    let throughput = validation::throughput(SWEEP_TRIALS, ctx.seed);
    let mut ops = fig3_ops(&points);
    let (tput_ops, tput_simulated) = throughput_ops(&throughput.rows);
    ops.extend(tput_ops);
    Rep {
        ops,
        sim_machine_s: fig3_simulated(points.len() + 1, config) + tput_simulated,
        notes: Vec::new(),
    }
}

/// One characterisation run, as `harness::characterize_on` performs it
/// with no warm-up and no checkpoint spec, with the scheduler event loop
/// and the Dimetrodon hook timed.
fn traced_characterize(point: &SweepPoint) -> (RunOutcome, SweepTrace) {
    let mut trace = SweepTrace::default();
    let (mut system, _policy) = build_system_on(&point.machine, point.actuation, point.config.seed);
    let counters = Rc::new(HookCounters::default());
    if matches!(point.actuation, Actuation::Injection { .. }) {
        let inner = system.hook().clone_box();
        system.set_hook(Box::new(TimedHook {
            inner,
            counters: Rc::clone(&counters),
        }));
    }
    let cores = system.machine().num_cores();
    let ids: Vec<_> = (0..cores)
        .map(|_| system.spawn(ThreadKind::User, Box::new(CpuBurn::infinite())))
        .collect();
    let idle_temp = system.machine().idle_temperature();
    let config = point.config;
    let deadline = SimTime::ZERO + config.duration;
    loop {
        let start = Instant::now();
        let ran = system.run_events(EVENT_CHUNK, deadline);
        trace.events_ns += ns_since(start);
        trace.events += ran;
        if ran < EVENT_CHUNK {
            break;
        }
    }
    system.run_until(deadline);
    let tail_temp = system
        .observed_temp_over(SimTime::ZERO + (config.duration - config.measure_window))
        .unwrap_or(f64::NAN);
    let executed: f64 = ids
        .iter()
        .map(|&id| system.thread_stats(id).cpu_executed.as_secs_f64())
        .sum();
    trace.hook_calls = counters.calls.get();
    trace.hook_ns = counters.ns.get();
    trace.injects = counters.injects.get();
    let outcome = RunOutcome {
        idle_temp,
        tail_temp,
        throughput: executed / (cores as f64 * config.duration.as_secs_f64()),
        temp_series: system.mean_temp_series().clone(),
        observed_curve: Vec::new(),
        injected_idles: system.total_injected_idles(),
    };
    (outcome, trace)
}

/// Figure 3's sweep over `proportions` x `quanta_ms`, traced.
fn traced_fig3(
    ctx: &Ctx,
    config: RunConfig,
    proportions: &[f64],
    quanta_ms: &[u64],
    layers: &mut Layers,
) -> Vec<EfficiencyPoint> {
    let points = fig3_points(config, proportions, quanta_ms);
    let start = Instant::now();
    let results = parallel_map_with(ctx.workers, points.len(), |i| {
        let begin = Instant::now();
        let (outcome, trace) = traced_characterize(&points[i]);
        (outcome, trace, ns_since(begin))
    });
    let wall = ns_since(start);
    let sweep = &mut layers.sweep;
    let mut busy = 0;
    for (_, trace, ns) in &results {
        busy += ns;
        sweep.point_ms.push(*ns as f64 / 1e6);
        sweep.events += trace.events;
        sweep.events_ns += trace.events_ns;
        sweep.hook_calls += trace.hook_calls;
        sweep.hook_ns += trace.hook_ns;
        sweep.injects += trace.injects;
    }
    sweep.reps += 1;
    layers.pool.add(busy, ctx.workers, points.len(), wall);
    let base = &results[0].0;
    let mut efficiency = Vec::new();
    for (k, (outcome, _, _)) in results.iter().enumerate().skip(1) {
        let (i, j) = ((k - 1) / quanta_ms.len(), (k - 1) % quanta_ms.len());
        efficiency.push(EfficiencyPoint {
            p: proportions[i],
            l_ms: quanta_ms[j],
            temp_reduction: outcome.temp_reduction_vs(base),
            throughput_reduction: outcome.throughput_reduction_vs(base),
        });
    }
    efficiency
}

/// The single-machine layers measured on Figure 3's grid at the
/// shortened 150 s length, for workloads that do not load them.
pub fn sweep_probe(ctx: &Ctx, layers: &mut Layers) -> Vec<Op> {
    let points = traced_fig3(
        ctx,
        RunConfig::quick(ctx.seed),
        &PROPORTIONS,
        &QUANTA_MS,
        layers,
    );
    relabel_probe(fig3_ops(&points))
}

fn relabel_probe(ops: Vec<Op>) -> Vec<Op> {
    ops.into_iter()
        .map(|mut op| {
            op.label = format!("probe {}", op.label);
            op
        })
        .collect()
}

// ---------------------------------------------------------------------
// fleet
// ---------------------------------------------------------------------

fn fleet_config(machines: usize, seed: u64) -> FleetConfig {
    let mut config = FleetConfig::rack_scale(machines, seed);
    config.duration = SimDuration::from_secs(FLEET_SECS);
    config
}

fn fleet_ops(config: &FleetConfig, outcomes: &[FleetOutcome]) -> Vec<Op> {
    outcomes
        .iter()
        .map(|o| {
            let reports = &o.reports;
            let finite = reports.iter().all(|r| {
                all_finite(&[r.peak_celsius, r.rms_celsius, r.good_fraction])
                    && r.p99_latency_s.is_none_or(f64::is_finite)
            });
            let routed: u64 = reports.iter().map(|r| r.requests).sum();
            let offered = config.epochs() * config.requests_per_epoch as u64;
            let mut op = Op::checked(
                format!("fleet {}", o.policy.name()),
                reports,
                finite,
                "non-finite rack report",
            );
            if o.replayed {
                op.fail("replayed from a stale journal instead of simulated".to_string());
            }
            if routed != offered {
                op.fail(format!("routed {routed} of {offered} offered requests"));
            }
            op
        })
        .collect()
}

/// Fails the operations whose journal line or checkpoint file is
/// missing: both layers report I/O errors only as warnings.
fn check_fleet_io(ops: &mut [Op], journal: &Path, ckpt_dir: &Path) {
    let text = std::fs::read_to_string(journal).unwrap_or_default();
    let lines: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    let files: Vec<String> = std::fs::read_dir(ckpt_dir)
        .map(|dir| {
            dir.filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();
    for (variant, (op, kind)) in ops.iter_mut().zip(PolicyKind::ALL).enumerate() {
        let entry = format!("variant {variant} {} ", kind.name());
        if lines.len() != PolicyKind::ALL.len() || !lines.iter().any(|l| l.starts_with(&entry)) {
            op.fail(format!(
                "journal holds {} entries, none or wrong for this variant",
                lines.len()
            ));
        }
        let prefix = format!("fleet-{}-", kind.name());
        if !files
            .iter()
            .any(|f| f.starts_with(&prefix) && f.ends_with(".ckpt"))
        {
            op.fail("no checkpoint file written".to_string());
        }
    }
}

fn fleet_notes(outcomes: &[FleetOutcome]) -> Vec<String> {
    outcomes
        .iter()
        .map(|o| {
            let p99 = o
                .reports
                .iter()
                .filter_map(|r| r.p99_latency_s)
                .fold(0.0, f64::max);
            let requests: u64 = o.reports.iter().map(|r| r.requests).sum();
            let good: f64 = o
                .reports
                .iter()
                .map(|r| r.good_fraction * r.requests as f64)
                .sum();
            format!(
                "{:<14} worst-rack p99 {:.4} s, good_frac {:.4}",
                o.policy.name(),
                p99,
                good / requests.max(1) as f64
            )
        })
        .collect()
}

fn fleet_simulated(config: &FleetConfig) -> f64 {
    config.machines as f64 * config.epochs() as f64 * config.epoch.as_secs_f64()
}

/// The fleet comparison over `config` with the journal on and the
/// default checkpoint cadence; traced when `layers` is given.
fn fleet_rep(ctx: &Ctx, config: &FleetConfig, layers: Option<&mut Layers>) -> Result<Rep, String> {
    let (journal_dir, ckpt_dir) = (ctx.fresh_dir("journal"), ctx.fresh_dir("ckpt"));
    let journal = FleetJournal::open(&journal_dir, config.fingerprint(), false);
    let spec = CheckpointSpec::new(&ckpt_dir);
    let outcomes = match layers {
        None => fleet_comparison_checkpointed(ctx.workers, config, Some(&journal), Some(&spec))
            .map_err(|err| format!("fleet comparison failed: {err}"))?,
        Some(layers) => traced_fleet(ctx, config, &journal, &spec, layers)?,
    };
    let mut ops = fleet_ops(config, &outcomes);
    check_fleet_io(&mut ops, journal.path(), &ckpt_dir);
    Ok(Rep {
        ops,
        sim_machine_s: fleet_simulated(config) * outcomes.len() as f64,
        notes: fleet_notes(&outcomes),
    })
}

/// Steps `fleet` to the end of its run under `policy`, timing each step
/// and the routing inside it; saves checkpoints like
/// `run_fleet_checkpointed` when `spec` is given.
fn traced_steps<P: RoutePolicy>(
    fleet: &mut Fleet,
    policy: &mut TimedRoute<P>,
    spec: Option<&CheckpointSpec>,
    trace: &mut FleetTrace,
) -> Result<(), String> {
    let epochs = fleet.config().epochs();
    let store = spec.map(|spec| spec.store(fleet.config(), policy.name()));
    let (mut step_total, route_before) = (0, policy.ns);
    while fleet.epochs_run() < epochs {
        let start = Instant::now();
        fleet.step(policy);
        let ns = ns_since(start);
        step_total += ns;
        trace.step_ns.push(ns as f64);
        let epoch = fleet.epochs_run();
        if let (Some(spec), Some(store)) = (spec, &store) {
            if spec.every_epochs > 0 && epoch % spec.every_epochs == 0 && epoch < epochs {
                let start = Instant::now();
                let fleet_frame = fleet.checkpoint_encode();
                trace.encode_ns.push(ns_since(start) as f64);
                let mut policy_frame = Enc::new();
                policy.save_state(&mut policy_frame);
                let frames = vec![fleet_frame, policy_frame.into_bytes()];
                trace
                    .ckpt_bytes
                    .push(frames.iter().map(Vec::len).sum::<usize>() as f64);
                let start = Instant::now();
                store
                    .save(epoch, &frames)
                    .map_err(|err| format!("checkpoint save failed: {err}"))?;
                trace.save_ms.push(ns_since(start) as f64 / 1e6);
                trace.ckpt_count += 1;
            }
        }
    }
    let route_ns = policy.ns - route_before;
    trace.step_total_ns += step_total;
    trace.route_total_ns += route_ns;
    trace.add_policy(policy.name(), policy.calls, route_ns, step_total);
    trace.routed += fleet.reports().iter().map(|r| r.requests).sum::<u64>();
    Ok(())
}

/// The fleet comparison as `fleet_comparison_checkpointed` runs it,
/// traced.
fn traced_fleet(
    ctx: &Ctx,
    config: &FleetConfig,
    journal: &FleetJournal,
    spec: &CheckpointSpec,
    layers: &mut Layers,
) -> Result<Vec<FleetOutcome>, String> {
    let start = Instant::now();
    let results = parallel_map_with(ctx.workers, PolicyKind::ALL.len(), |variant| {
        let begin = Instant::now();
        let kind = PolicyKind::ALL[variant];
        let mut trace = FleetTrace::default();
        let t = Instant::now();
        let mut fleet = Fleet::new(config.clone());
        trace.new_ms.push(ns_since(t) as f64 / 1e6);
        let mut policy = TimedRoute::new(kind.build(config));
        traced_steps(&mut fleet, &mut policy, Some(spec), &mut trace)?;
        let reports = fleet.reports();
        let t = Instant::now();
        journal.append(variant, kind.name(), &reports);
        trace.journal_ms.push(ns_since(t) as f64 / 1e6);
        let outcome = FleetOutcome {
            policy: kind,
            reports,
            replayed: false,
        };
        Ok::<_, String>((outcome, trace, ns_since(begin)))
    });
    let wall = ns_since(start);
    let mut outcomes = Vec::new();
    let mut busy = 0;
    for result in results {
        let (outcome, trace, ns) = result?;
        merge_fleet(&mut layers.fleet, trace);
        busy += ns;
        outcomes.push(outcome);
    }
    layers.fleet.reps += 1;
    layers.fleet.ckpt_reps += 1;
    layers
        .pool
        .add(busy, ctx.workers, PolicyKind::ALL.len(), wall);
    Ok(outcomes)
}

fn merge_fleet(into: &mut FleetTrace, from: FleetTrace) {
    into.step_ns.extend(from.step_ns);
    into.step_total_ns += from.step_total_ns;
    into.route_total_ns += from.route_total_ns;
    for (name, calls, route_ns, step_ns) in from.per_policy {
        into.add_policy(name, calls, route_ns, step_ns);
    }
    into.new_ms.extend(from.new_ms);
    into.restarts += from.restarts;
    into.routed += from.routed;
    into.encode_ns.extend(from.encode_ns);
    into.ckpt_bytes.extend(from.ckpt_bytes);
    into.save_ms.extend(from.save_ms);
    into.ckpt_count += from.ckpt_count;
    into.journal_ms.extend(from.journal_ms);
}

/// The fleet, routing and checkpoint layers measured on a 32-machine
/// comparison, for workloads that do not load them.
pub fn fleet_probe(ctx: &Ctx, layers: &mut Layers) -> Result<Vec<Op>, String> {
    let rep = fleet_rep(ctx, &fleet_config(32, ctx.seed), Some(layers))?;
    Ok(relabel_probe(rep.ops))
}

// ---------------------------------------------------------------------
// chaos
// ---------------------------------------------------------------------

fn chaos_grid(seed: u64) -> ChaosGrid {
    let mut base = FleetConfig::rack_scale(CHAOS_MACHINES, seed);
    base.duration = SimDuration::from_secs(CHAOS_SECS);
    ChaosGrid::new(base, DEFAULT_INTENSITIES.to_vec())
}

/// Checks one chaos point's metrics; `routed` is known only when traced.
fn chaos_op(grid: &ChaosGrid, outcome: &ChaosOutcome, routed: Option<u64>) -> Op {
    let m = &outcome.metrics;
    let finite = all_finite(&[
        m.shed_fraction,
        m.arrived_cpu_s,
        m.served_cpu_s,
        m.shed_cpu_s,
        m.capacity_mean,
        m.capacity_min,
        m.peak_celsius,
    ]) && [
        m.p99_healthy_s,
        m.p99_degraded_s,
        m.recovery_mean_s,
        m.recovery_max_s,
    ]
    .iter()
    .all(|v| v.is_none_or(f64::is_finite));
    let label = ChaosGrid::label(outcome.intensity, outcome.policy);
    let mut op = Op::checked(label, m, finite, "non-finite chaos metric");
    if outcome.replayed {
        op.fail("replayed from a stale journal instead of simulated".to_string());
    }
    let offered = grid.base.epochs() * grid.base.requests_per_epoch as u64;
    if m.arrived_requests != offered {
        op.fail(format!(
            "{} requests arrived, {offered} offered",
            m.arrived_requests
        ));
    }
    if m.shed_requests > m.arrived_requests
        || m.served_cpu_s + m.shed_cpu_s > m.arrived_cpu_s * (1.0 + 1e-9) + 1e-9
    {
        op.fail("shed or served demand exceeds the arrivals".to_string());
    }
    if let Some(routed) = routed {
        if m.arrived_requests != routed + m.shed_requests {
            op.fail(format!(
                "arrived {} != routed {routed} + shed {}",
                m.arrived_requests, m.shed_requests
            ));
        }
    }
    op
}

fn check_chaos_journal(ops: &mut [Op], journal: &Path) {
    let text = std::fs::read_to_string(journal).unwrap_or_default();
    let lines: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    for op in ops.iter_mut() {
        let entry = format!(" {} ", op.label);
        if lines.len() != DEFAULT_INTENSITIES.len() * PolicyKind::ALL.len()
            || !lines.iter().any(|l| l.contains(&entry))
        {
            op.fail(format!(
                "journal holds {} entries, none or wrong for this point",
                lines.len()
            ));
        }
    }
}

/// One `chaos` repetition; traced when `layers` is given.
fn chaos_rep(ctx: &Ctx, layers: Option<&mut Layers>) -> Result<Rep, String> {
    let grid = chaos_grid(ctx.seed);
    let journal = ChaosJournal::open(&ctx.fresh_dir("journal"), &grid, false);
    let (outcomes, routed) = match layers {
        None => {
            let outcomes = chaos_comparison_with(ctx.workers, &grid, Some(&journal));
            let routed = vec![None; outcomes.len()];
            (outcomes, routed)
        }
        Some(layers) => traced_chaos(ctx, &grid, &journal, layers)?,
    };
    let mut ops: Vec<Op> = outcomes
        .iter()
        .zip(routed)
        .map(|(o, routed)| chaos_op(&grid, o, routed))
        .collect();
    check_chaos_journal(&mut ops, journal.path());
    let notes = outcomes
        .iter()
        .map(|o| {
            format!(
                "{:<22} shed_frac {:.4}",
                ChaosGrid::label(o.intensity, o.policy),
                o.metrics.shed_fraction
            )
        })
        .collect();
    Ok(Rep {
        ops,
        sim_machine_s: fleet_simulated(&grid.base) * outcomes.len() as f64,
        notes,
    })
}

/// Machine restarts the plan causes: a machine down at one epoch start
/// and up at the next is re-cloned from the prototype.
fn planned_restarts(config: &FleetConfig) -> u64 {
    let mut down = vec![false; config.machines];
    let mut restarts = 0;
    for epoch in 0..config.epochs() {
        let now = SimTime::ZERO + config.epoch * epoch;
        for (m, was_down) in down.iter_mut().enumerate() {
            let is_down = config
                .chaos
                .machine_down(m, m / config.machines_per_rack, now);
            restarts += u64::from(*was_down && !is_down);
            *was_down = is_down;
        }
    }
    restarts
}

/// The chaos grid as `chaos_comparison_with` runs it, traced; returns
/// each point's outcome and its routed (landed) request count.
fn traced_chaos(
    ctx: &Ctx,
    grid: &ChaosGrid,
    journal: &ChaosJournal,
    layers: &mut Layers,
) -> Result<(Vec<ChaosOutcome>, Vec<Option<u64>>), String> {
    let points = grid.points();
    let start = Instant::now();
    let results = parallel_map_with(ctx.workers, points.len(), |index| {
        let begin = Instant::now();
        let (intensity, kind) = points[index];
        let config = grid.point_config(intensity);
        config.validate();
        let mut trace = FleetTrace {
            restarts: planned_restarts(&config),
            ..FleetTrace::default()
        };
        let mut policy = TimedRoute::new(FailoverPolicy::new(
            kind.build(&config),
            grid.recovery_epochs,
        ));
        let t = Instant::now();
        let mut fleet = Fleet::new(config);
        trace.new_ms.push(ns_since(t) as f64 / 1e6);
        fleet.set_collect_chaos(true);
        traced_steps(&mut fleet, &mut policy, None, &mut trace)?;
        let metrics = fleet.chaos_metrics().ok_or("chaos accounting was off")?;
        let t = Instant::now();
        journal.append(index, &ChaosGrid::label(intensity, kind), &metrics);
        trace.journal_ms.push(ns_since(t) as f64 / 1e6);
        let outcome = ChaosOutcome {
            intensity,
            policy: kind,
            metrics,
            replayed: false,
        };
        Ok::<_, String>((outcome, trace, ns_since(begin)))
    });
    let wall = ns_since(start);
    let (mut outcomes, mut routed, mut busy) = (Vec::new(), Vec::new(), 0);
    for result in results {
        let (outcome, trace, ns) = result?;
        routed.push(Some(trace.routed));
        merge_fleet(&mut layers.fleet, trace);
        busy += ns;
        outcomes.push(outcome);
    }
    layers.fleet.reps += 1;
    layers.pool.add(busy, ctx.workers, points.len(), wall);
    Ok((outcomes, routed))
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

/// One repetition of `workload`: through the public entry points, or
/// traced into `layers` when given.
pub fn run(workload: Workload, ctx: &Ctx, layers: Option<&mut Layers>) -> Result<Rep, String> {
    match workload {
        Workload::Sweep => Ok(sweep_rep(ctx, layers)),
        Workload::Fleet => fleet_rep(ctx, &fleet_config(FLEET_MACHINES, ctx.seed), layers),
        Workload::Chaos => chaos_rep(ctx, layers),
    }
}
