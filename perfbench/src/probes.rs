//! Fixed-shape probes of the machine and thermal layers, the thermal
//! accuracy oracle, and the §3.3 accuracy probes.

use std::time::Instant;

use dimetrodon_harness::experiments::validation;
use dimetrodon_machine::{CoreId, Machine, MachineConfig};
use dimetrodon_power::CoreState;
use dimetrodon_sim_core::SimDuration;
use dimetrodon_thermal::{ThermalNetwork, ThermalNetworkBuilder};

use crate::check::{all_finite, Op};
use crate::trace::{median, ns_since};

/// Trials per configuration of the throughput-validation probe (the
/// paper's count).
pub const MODEL_TRIALS: usize = 100;
/// Trials per configuration of the energy-validation probe (the paper's
/// count).
pub const ENERGY_TRIALS: usize = 5;
/// Seeds of the accuracy probes: the ones the `validate_model` and
/// `validate_energy` binaries use, so the figures match theirs.
pub const MODEL_SEED: u64 = 108;
pub const ENERGY_SEED: u64 = 109;
/// The paper's energy band: Dimetrodon used 97.6 %–103.7 % of
/// race-to-idle energy.
pub const ENERGY_BAND: (f64, f64) = (0.976, 1.037);

/// Per-call host time of `call` at one call shape: the median over
/// `batches` timed batches of `per_batch` calls, in nanoseconds.
fn per_call_ns(batches: usize, per_batch: usize, mut call: impl FnMut()) -> f64 {
    call();
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                call();
            }
            ns_since(start) as f64 / per_batch as f64
        })
        .collect();
    median(&samples)
}

/// A busy e5520 machine, as a fleet epoch or a cpuburn run drives it.
fn busy_machine() -> Machine {
    let mut machine = Machine::new(MachineConfig::xeon_e5520()).expect("the e5520 preset is valid");
    machine.settle_idle();
    for core in 0..machine.num_cores() {
        machine.set_core_state(CoreId(core), CoreState::active(0.8));
    }
    machine
}

/// The e5520's thermal network, built from its `ThermalSpec` through the
/// public builder with the machine's topology, with cpuburn-like power
/// on every core.
pub fn e5520_network() -> ThermalNetwork {
    let config = MachineConfig::xeon_e5520();
    let spec = config.thermal;
    let mut builder = ThermalNetworkBuilder::new(spec.ambient_celsius);
    let dies: Vec<_> = (0..config.num_cores)
        .map(|i| builder.add_node(format!("die{i}"), spec.die_capacitance))
        .collect();
    let hotspots: Vec<_> = (0..config.num_cores)
        .map(|i| builder.add_node(format!("hotspot{i}"), spec.hotspot_capacitance))
        .collect();
    let package = builder.add_node("package", spec.package_capacitance);
    let heatsink = builder.add_node("heatsink", spec.heatsink_capacitance);
    for (&die, &hotspot) in dies.iter().zip(&hotspots) {
        builder.connect(die, package, spec.die_to_package);
        builder.connect(hotspot, die, spec.hotspot_to_die);
    }
    if spec.die_to_die > 0.0 {
        for pair in dies.windows(2) {
            builder.connect(pair[0], pair[1], spec.die_to_die);
        }
    }
    builder.connect(package, heatsink, spec.package_to_heatsink);
    builder.connect_ambient(heatsink, spec.heatsink_to_ambient);
    let mut network = builder.build().expect("the e5520 thermal spec is valid");
    let core_watts = 15.0;
    for (&die, &hotspot) in dies.iter().zip(&hotspots) {
        network.set_power(hotspot, core_watts * spec.hotspot_power_fraction);
        network.set_power(die, core_watts * (1.0 - spec.hotspot_power_fraction));
    }
    network
}

/// Machine- and thermal-layer probes at the two call shapes: one fleet
/// epoch (1 s) and one short scheduler interval (2 ms).
pub fn layer_probes() -> Vec<(&'static str, f64, &'static str)> {
    let one_s = SimDuration::from_secs(1);
    let two_ms = SimDuration::from_millis(2);
    let mut machine = busy_machine();
    let machine_1s = per_call_ns(15, 8, || {
        std::hint::black_box(machine.advance(one_s));
    });
    let mut machine = busy_machine();
    let machine_2ms = per_call_ns(15, 2000, || {
        std::hint::black_box(machine.advance(two_ms));
    });
    let mut network = e5520_network();
    let thermal_1s = per_call_ns(15, 8, || network.advance(one_s));
    let mut network = e5520_network();
    let thermal_2ms = per_call_ns(15, 2000, || network.advance(two_ms));
    vec![
        ("machine.advance_1s.ns", machine_1s, "ns"),
        ("machine.advance_2ms.ns", machine_2ms, "ns"),
        ("thermal.advance_1s.ns", thermal_1s, "ns"),
        ("thermal.advance_2ms.ns", thermal_2ms, "ns"),
        ("thermal.advance_1s.err_mk", thermal_err_mk(), "mK"),
    ]
}

/// The thermal accuracy oracle: the largest |ΔT| (mK) between one
/// `advance(1 s)` and the same second advanced in `max_substep()` chunks,
/// from a network heating from ambient. The direct kernel takes exactly
/// those substeps, so any faster propagator is judged against it.
pub fn thermal_err_mk() -> f64 {
    let mut direct = e5520_network();
    let mut chunked = direct.clone();
    let one_s = SimDuration::from_secs(1);
    direct.advance(one_s);
    let chunk = chunked.max_substep();
    let mut remaining = one_s;
    while !remaining.is_zero() {
        let step = remaining.min(chunk);
        chunked.advance(step);
        remaining = remaining.saturating_sub(step);
    }
    direct
        .temperatures()
        .iter()
        .zip(chunked.temperatures())
        .map(|(a, b)| (a - b).abs() * 1000.0)
        .fold(0.0, f64::max)
}

/// The §3.3 accuracy figures of the simulator against the paper's
/// analytic models, with one checked operation per configuration.
#[derive(Debug)]
pub struct Accuracy {
    /// Mean over the throughput-validation configs of
    /// |measured − D(t)| / D(t), percent.
    pub model_err_pct: f64,
    /// Mean over the energy-validation configs of
    /// |E_dimetrodon / E_race-to-idle − 1|, percent.
    pub energy_err_pct: f64,
    pub ops: Vec<Op>,
}

pub fn accuracy() -> Accuracy {
    let mut ops = Vec::new();
    let throughput = validation::throughput(MODEL_TRIALS, MODEL_SEED);
    let mut model_err = 0.0;
    for row in &throughput.rows {
        let err = (row.measured_s - row.predicted_s).abs() / row.predicted_s;
        model_err += err / throughput.rows.len() as f64;
        ops.push(Op::checked(
            format!("model p={} L={}ms", row.p, row.l_ms),
            row,
            all_finite(&[err]),
            "non-finite runtime",
        ));
    }
    let energy = validation::energy(ENERGY_TRIALS, ENERGY_SEED);
    let mut energy_err = 0.0;
    for row in &energy.rows {
        let ratio = row.ratios.iter().sum::<f64>() / row.ratios.len() as f64;
        energy_err += (ratio - 1.0).abs() / energy.rows.len() as f64;
        ops.push(Op::checked(
            format!("energy p={} L={}ms", row.p, row.l_ms),
            row,
            (ENERGY_BAND.0..=ENERGY_BAND.1).contains(&ratio),
            "mean energy ratio outside the paper's 97.6-103.7% band",
        ));
    }
    Accuracy {
        model_err_pct: model_err * 100.0,
        energy_err_pct: energy_err * 100.0,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_oracle_reads_zero_on_the_direct_kernel() {
        assert_eq!(thermal_err_mk(), 0.0);
    }

    #[test]
    fn the_probe_network_matches_the_machine_topology() {
        let network = e5520_network();
        let machine = Machine::new(MachineConfig::xeon_e5520()).unwrap();
        assert_eq!(network.node_count(), 2 * machine.num_physical_cores() + 2);
    }
}
