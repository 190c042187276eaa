//! Reference integrators for verifying [`ThermalNetwork::advance`].
//!
//! The production path integrates with exponential Euler (unconditionally
//! stable, exact per node), taking long runs of full-length substeps in
//! closed form through a cached propagator. Two references check it:
//!
//! - [`substep_reference`] is the plain substep loop the propagator
//!   replaces. It is the oracle for the closed form: the two must agree to
//!   rounding on any schedule.
//! - [`rk4_reference`] is an *independent* high-order scheme: the
//!   cross-validation tests integrate the same network both ways and
//!   require agreement, which guards against bugs in either scheme's
//!   assembly of the conductance terms — the classic way a thermal
//!   simulator silently goes wrong.

use dimetrodon_sim_core::SimDuration;

use crate::network::ThermalNetwork;

/// Advances `network` by `dt` through every exponential-Euler substep,
/// never taking the cached propagator.
///
/// [`ThermalNetwork::advance`] is equal to this in exact arithmetic; the
/// oracle tests bound the floating-point gap at 1e-6 K.
pub fn substep_reference(network: &mut ThermalNetwork, dt: SimDuration) {
    network.advance_substeps(dt);
}

/// Integrates a copy of `network` for `dt` using classical RK4 with the
/// given fixed step, returning the final temperatures.
///
/// This is a verification tool, not the production integrator: explicit
/// RK4 is only stable for steps well below the fastest time constant, so
/// `step` must be chosen accordingly (the tests use τ/20).
///
/// # Panics
///
/// Panics if `step` is zero.
pub fn rk4_reference(network: &ThermalNetwork, dt: SimDuration, step: SimDuration) -> Vec<f64> {
    assert!(!step.is_zero(), "RK4 step must be positive");
    let n = network.node_count();
    let mut temps: Vec<f64> = network.temperatures().to_vec();
    let h = step.as_secs_f64();
    let total = dt.as_secs_f64();

    // dT/dt = C⁻¹ (P − G·ΔT), evaluated from the network's topology.
    let derivative = |temps: &[f64]| -> Vec<f64> { network.heat_flow_derivative(temps) };

    let mut t = 0.0;
    while t < total {
        let h_eff = h.min(total - t);
        let k1 = derivative(&temps);
        let k2 = derivative(&add_scaled(&temps, &k1, h_eff / 2.0));
        let k3 = derivative(&add_scaled(&temps, &k2, h_eff / 2.0));
        let k4 = derivative(&add_scaled(&temps, &k3, h_eff));
        for i in 0..n {
            temps[i] += h_eff / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        t += h_eff;
    }
    temps
}

fn add_scaled(base: &[f64], delta: &[f64], factor: f64) -> Vec<f64> {
    base.iter()
        .zip(delta)
        .map(|(&b, &d)| b + d * factor)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ThermalNetworkBuilder;

    fn network() -> ThermalNetwork {
        let mut b = ThermalNetworkBuilder::new(25.0);
        let hotspot = b.add_node("hotspot", 0.002);
        let die = b.add_node("die", 0.15);
        let pkg = b.add_node("pkg", 100.0);
        b.connect(hotspot, die, 1.3);
        b.connect(die, pkg, 5.0);
        b.connect_ambient(pkg, 5.0);
        let mut net = b.build().unwrap();
        net.set_power(hotspot, 7.0);
        net.set_power(die, 8.0);
        net
    }

    #[test]
    fn exponential_euler_matches_rk4() {
        // Integrate one second both ways; the schemes are independent, so
        // agreement validates the conductance assembly.
        let net = network();
        // RK4 with a step well under the hotspot tau (~1.5 ms).
        let reference = rk4_reference(
            &net,
            SimDuration::from_secs(1),
            SimDuration::from_micros(75),
        );
        let mut euler = net.clone();
        euler.advance(SimDuration::from_secs(1));
        for (i, (&r, &e)) in reference.iter().zip(euler.temperatures()).enumerate() {
            assert!(
                (r - e).abs() < 0.05,
                "node {i}: RK4 {r} vs exponential Euler {e}"
            );
        }
    }

    #[test]
    fn rk4_reaches_the_same_steady_state() {
        let net = network();
        let ss = net.steady_state();
        let reference = rk4_reference(
            &net,
            SimDuration::from_secs(400),
            SimDuration::from_micros(150),
        );
        for (i, (&r, &s)) in reference.iter().zip(&ss).enumerate() {
            assert!((r - s).abs() < 0.05, "node {i}: RK4 {r} vs steady state {s}");
        }
    }

    #[test]
    #[should_panic(expected = "RK4 step must be positive")]
    fn zero_step_panics() {
        rk4_reference(&network(), SimDuration::from_secs(1), SimDuration::ZERO);
    }
}
