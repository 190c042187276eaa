//! Oracle tests for the cached propagator: `ThermalNetwork::advance`, which
//! takes long runs of full substeps in closed form, against
//! `substep_reference`, the plain substep loop it replaces. The two are
//! equal in exact arithmetic; every schedule here must keep them within
//! `BOUND_K` of each other on every node after every call.

use dimetrodon_sim_core::{SimDuration, SimRng};
use dimetrodon_thermal::{substep_reference, NodeId, ThermalNetwork, ThermalNetworkBuilder};
use proptest::prelude::*;

/// The largest |ΔT| allowed between the propagator and the substep loop.
const BOUND_K: f64 = 1e-6;

/// die(0.5 J/K) -- 2 W/K -- package(100 J/K) -- 1 W/K -- ambient.
fn two_node() -> ThermalNetwork {
    let mut b = ThermalNetworkBuilder::new(25.0);
    let die = b.add_node("die", 0.5);
    let pkg = b.add_node("pkg", 100.0);
    b.connect(die, pkg, 2.0);
    b.connect_ambient(pkg, 1.0);
    b.build().unwrap()
}

/// The calibrated Xeon E5520's network, in the machine model's node order:
/// four dies, four hotspots, the package and the heatsink.
fn e5520_shaped() -> ThermalNetwork {
    let mut b = ThermalNetworkBuilder::new(25.2);
    let dies: Vec<_> = (0..4).map(|i| b.add_node(format!("die{i}"), 0.15)).collect();
    let hotspots: Vec<_> = (0..4).map(|i| b.add_node(format!("hotspot{i}"), 0.002)).collect();
    let package = b.add_node("package", 100.0);
    let heatsink = b.add_node("heatsink", 200.0);
    for (&die, &hotspot) in dies.iter().zip(&hotspots) {
        b.connect(die, package, 5.0);
        b.connect(hotspot, die, 1.3);
    }
    for pair in dies.windows(2) {
        b.connect(pair[0], pair[1], 1.0);
    }
    b.connect(package, heatsink, 8.0);
    b.connect_ambient(heatsink, 5.0);
    b.build().unwrap()
}

/// A 128-node chain grounded at node 0, with a skip link two back on
/// every fourth node: the large synthetic network of the kernel bench.
fn chain_128() -> ThermalNetwork {
    let mut b = ThermalNetworkBuilder::new(25.0);
    let nodes: Vec<_> = (0..128)
        .map(|i| b.add_node(format!("n{i}"), 0.05 + 0.01 * (i % 7) as f64))
        .collect();
    b.connect_ambient(nodes[0], 4.0);
    for i in 1..nodes.len() {
        b.connect(nodes[i], nodes[i - 1], 0.8 + 0.1 * (i % 3) as f64);
        if i % 4 == 0 {
            b.connect(nodes[i], nodes[i - 2], 0.3);
        }
    }
    b.build().unwrap()
}

fn max_gap(a: &ThermalNetwork, b: &ThermalNetwork) -> f64 {
    a.temperatures()
        .iter()
        .zip(b.temperatures())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Advances `fast` with `advance` and `oracle` with the substep loop, and
/// returns the gap between them afterwards. The two trajectories are never
/// re-synchronised, so any drift accumulates over a schedule.
fn step_both(fast: &mut ThermalNetwork, oracle: &mut ThermalNetwork, dt: SimDuration) -> f64 {
    fast.advance(dt);
    substep_reference(oracle, dt);
    max_gap(fast, oracle)
}

/// Node powers for the e5520 shape: each core's watts split evenly
/// between its die and its hotspot.
fn core_powers(watts: [f64; 4]) -> Vec<f64> {
    let mut powers = vec![0.0; 10];
    for (core, w) in watts.iter().enumerate() {
        powers[core] = w / 2.0;
        powers[4 + core] = w / 2.0;
    }
    powers
}

fn set_powers(nets: [&mut ThermalNetwork; 2], powers: &[f64], boundary: f64) {
    for net in nets {
        let nodes: Vec<NodeId> = net.nodes().collect();
        for (node, &p) in nodes.into_iter().zip(powers) {
            net.set_power(node, p);
        }
        net.set_boundary_celsius(boundary);
    }
}

#[test]
fn fleet_schedule_matches_the_substep_loop() {
    // 240 one-second epochs; each one redraws the core powers (idle to
    // cpuburn) and the rack inlet, as the fleet's epoch loop does.
    let mut fast = e5520_shaped();
    let mut oracle = fast.clone();
    let mut rng = SimRng::new(7);
    let mut worst: f64 = 0.0;
    for _ in 0..240 {
        let powers = core_powers([(); 4].map(|_| rng.uniform_range(3.0, 18.0)));
        set_powers([&mut fast, &mut oracle], &powers, rng.uniform_range(22.0, 40.0));
        worst = worst.max(step_both(&mut fast, &mut oracle, SimDuration::from_secs(1)));
    }
    assert!(worst <= BOUND_K, "max |ΔT| {worst} K over 240 epochs");
    let hotspot = fast.nodes().nth(4).unwrap();
    assert!(fast.temperature(hotspot) > 30.0, "the schedule heats the hotspots");
}

#[test]
fn fig3_schedule_matches_the_substep_loop() {
    // A saturated machine under injection: busy quanta alternate with idle
    // quanta, every interval an irregular 0.1-100 ms, for two minutes.
    let mut fast = e5520_shaped();
    let mut oracle = fast.clone();
    let mut rng = SimRng::new(3);
    let mut worst: f64 = 0.0;
    let mut elapsed = SimDuration::ZERO;
    let mut busy = true;
    while elapsed < SimDuration::from_secs(120) {
        let powers = core_powers([if busy { 17.5 } else { 3.0 }; 4]);
        set_powers([&mut fast, &mut oracle], &powers, 25.2);
        let dt = SimDuration::from_secs_f64(rng.log_uniform(1e-4, 0.1));
        worst = worst.max(step_both(&mut fast, &mut oracle, dt));
        elapsed += dt;
        busy = !busy;
    }
    assert!(worst <= BOUND_K, "max |ΔT| {worst} K over the Figure 3 schedule");
}

#[test]
fn very_long_advances_land_on_the_steady_state() {
    // Far past the slowest pole the propagated part underflows and the
    // network sits at its steady state, whatever bits of k are set.
    for hours in [1u64, 24, 24 * 365] {
        let mut net = e5520_shaped();
        let nodes: Vec<NodeId> = net.nodes().collect();
        net.set_power(nodes[0], 20.0);
        net.set_temperature(nodes[9], 90.0);
        let ss = net.steady_state();
        net.advance(SimDuration::from_secs(3600 * hours));
        for (t, s) in net.temperatures().iter().zip(&ss) {
            assert!((t - s).abs() <= BOUND_K, "{hours} h: {t} vs {s}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random powers, starting temperatures, boundaries and durations on
    /// every network shape: three consecutive advances, each within the
    /// bound of the substep loop.
    #[test]
    fn prop_advance_matches_the_substep_loop(shape in 0usize..3, seed in any::<u64>()) {
        let mut fast = match shape {
            0 => two_node(),
            1 => e5520_shaped(),
            _ => chain_128(),
        };
        let mut oracle = fast.clone();
        let mut rng = SimRng::new(seed);
        for node in fast.nodes() {
            let t = rng.uniform_range(10.0, 110.0);
            fast.set_temperature(node, t);
            oracle.set_temperature(node, t);
        }
        for _ in 0..3 {
            let powers: Vec<f64> =
                (0..fast.node_count()).map(|_| rng.uniform_range(0.0, 20.0)).collect();
            set_powers([&mut fast, &mut oracle], &powers, rng.uniform_range(15.0, 45.0));
            // Durations from well below one substep to five minutes.
            let dt = SimDuration::from_secs_f64(rng.log_uniform(1e-5, 300.0));
            let gap = step_both(&mut fast, &mut oracle, dt);
            prop_assert!(gap <= BOUND_K, "shape {} dt {:?}: max |ΔT| {} K", shape, dt, gap);
        }
    }
}
