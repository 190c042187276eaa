//! Micro-benchmark of the thermal substep kernel itself, isolated from
//! sweep orchestration: a small network shaped like the calibrated
//! platform (10 nodes) and a large synthetic one (128 nodes), each
//! advanced through many substeps. With `--features simd` the scalar and
//! AVX2 kernels are measured side by side (via the runtime-dispatch
//! override), so a kernel regression is visible independently of the
//! sweep engine's pool and snapshot machinery.
//!
//! The `advance_1s` groups time one 1 s `advance` (the fleet's epoch,
//! taken through the cached propagator) against the same second advanced
//! in `max_substep()` calls (the direct kernel): about 2,600 substeps on
//! the e5520-shaped 10-node network. The `crossover` groups time
//! `advance` against `substep_reference` at a few substep counts, so the
//! point where the propagator starts to pay is visible too.

use criterion::{criterion_group, criterion_main, Criterion};
use dimetrodon_sim_core::SimDuration;
use dimetrodon_thermal::{substep_reference, ThermalNetwork, ThermalNetworkBuilder};

/// A chain-of-blocks network with `n` nodes: node 0 touches ambient,
/// each node connects to its predecessor, and every fourth node gets a
/// skip link two back — enough edge variety to exercise the packed
/// neighbour walk without leaving the sparse regime the kernel targets.
fn network(n: usize) -> ThermalNetwork {
    let mut builder = ThermalNetworkBuilder::new(25.0);
    let nodes: Vec<_> = (0..n)
        .map(|i| builder.add_node(format!("n{i}"), 0.05 + 0.01 * (i % 7) as f64))
        .collect();
    builder.connect_ambient(nodes[0], 4.0);
    for i in 1..n {
        builder.connect(nodes[i], nodes[i - 1], 0.8 + 0.1 * (i % 3) as f64);
        if i % 4 == 0 && i >= 2 {
            builder.connect(nodes[i], nodes[i - 2], 0.3);
        }
    }
    let mut network = builder.build().expect("valid network");
    for (i, &node) in nodes.iter().enumerate() {
        network.set_power(node, (i % 5) as f64 * 3.0);
    }
    network
}

/// Advances through 512 full-length substeps (the steady-state fast
/// path: precomputed decay factors, no `exp` calls).
fn advance_substeps(network: &mut ThermalNetwork) {
    let step = network.max_substep();
    for _ in 0..512 {
        network.advance(step);
    }
}

fn bench_substep(c: &mut Criterion) {
    for (label, n) in [("small_n10", 10), ("large_n128", 128)] {
        let mut group = c.benchmark_group(format!("thermal_substep_{label}"));

        group.bench_function("scalar", |b| {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            dimetrodon_thermal::simd::force_scalar(true);
            let mut network = network(n);
            b.iter(|| advance_substeps(&mut network));
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            dimetrodon_thermal::simd::force_scalar(false);
        });

        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if dimetrodon_thermal::simd::avx2_active() {
            group.bench_function("simd", |b| {
                let mut network = network(n);
                b.iter(|| advance_substeps(&mut network));
            });
        }

        group.finish();
    }
}

/// The calibrated e5520's shape: four die/hotspot pairs on a package and
/// heatsink (10 nodes), with cpuburn-like power on every core.
fn e5520_shaped() -> ThermalNetwork {
    let mut builder = ThermalNetworkBuilder::new(25.2);
    let package = builder.add_node("package", 100.0);
    let heatsink = builder.add_node("heatsink", 200.0);
    builder.connect(package, heatsink, 8.0);
    builder.connect_ambient(heatsink, 5.0);
    let mut cores = Vec::new();
    for i in 0..4 {
        let die = builder.add_node(format!("die{i}"), 0.15);
        let hotspot = builder.add_node(format!("hotspot{i}"), 0.002);
        builder.connect(die, package, 5.0);
        builder.connect(hotspot, die, 1.3);
        if let Some(&(previous, _)) = cores.last() {
            builder.connect(previous, die, 1.0);
        }
        cores.push((die, hotspot));
    }
    let mut network = builder.build().expect("valid network");
    for &(die, hotspot) in &cores {
        network.set_power(die, 7.5);
        network.set_power(hotspot, 7.5);
    }
    network
}

/// Advances 16 seconds, one second per call (one fleet epoch each).
fn advance_seconds(network: &mut ThermalNetwork) {
    for _ in 0..16 {
        network.advance(SimDuration::from_secs(1));
    }
}

/// Advances the same 16 seconds in `max_substep()` calls, each a single
/// direct-kernel substep.
fn advance_seconds_in_substeps(network: &mut ThermalNetwork) {
    let step = network.max_substep();
    for _ in 0..16 {
        let mut remaining = SimDuration::from_secs(1);
        while !remaining.is_zero() {
            let chunk = remaining.min(step);
            network.advance(chunk);
            remaining = remaining.saturating_sub(chunk);
        }
    }
}

fn bench_advance_1s(c: &mut Criterion) {
    let shapes = [("n10", e5520_shaped()), ("n128", network(128))];
    for (label, mut network) in shapes {
        // The propagator is built on first use and then shared; build it
        // here so the timings measure the per-call cost only.
        network.clone().advance(SimDuration::from_secs(1));

        let mut group = c.benchmark_group(format!("advance_1s_{label}"));
        group.bench_function("propagator", |b| b.iter(|| advance_seconds(&mut network)));
        group.bench_function("substeps", |b| {
            b.iter(|| advance_seconds_in_substeps(&mut network))
        });
        group.finish();

        let mut group = c.benchmark_group(format!("crossover_{label}"));
        for k in [2u64, 4, 8, 16, 64] {
            let dt = network.max_substep() * k;
            group.bench_function(&format!("advance_k{k}"), |b| {
                b.iter(|| {
                    for _ in 0..256 {
                        network.advance(dt);
                    }
                })
            });
            group.bench_function(&format!("substeps_k{k}"), |b| {
                b.iter(|| {
                    for _ in 0..256 {
                        substep_reference(&mut network, dt);
                    }
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_substep, bench_advance_1s);
criterion_main!(benches);
