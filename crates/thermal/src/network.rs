//! The lumped RC thermal network and its integrator.
//!
//! A network is a set of thermal nodes — each with a heat capacity in J/K —
//! joined by thermal conductances in W/K, plus conductances to a shared
//! boundary (ambient) node. The boundary temperature defaults to the
//! builder's ambient and can be moved between steps with
//! [`ThermalNetwork::set_boundary_celsius`] — the hook a rack model uses to
//! couple machines through their common inlet air. Power (heat) in watts is
//! injected at nodes; temperatures evolve by
//!
//! ```text
//! C_i dT_i/dt = P_i − Σ_j G_ij (T_i − T_j) − G_i,amb (T_i − T_amb)
//! ```
//!
//! The integrator is an *exponential Euler* scheme: within a step, each
//! node relaxes exactly toward the equilibrium implied by its neighbours'
//! frozen temperatures. This is unconditionally stable, exact for a single
//! node, and second-order accurate for networks at the sub-time-constant
//! steps used here — which matters because the scheduler calls the model
//! with irregular, event-driven step sizes.
//!
//! # Layout
//!
//! The immutable description of the network — node names, capacitances,
//! the conductance structure, and everything derived from it — lives in a
//! [`Topology`] behind an `Arc`. The [`ThermalNetwork`] itself carries only
//! the mutable state (temperatures, powers, integrator workspace), so
//! cloning a network for a forked simulation copies a few small `Vec<f64>`s
//! and bumps a reference count instead of duplicating the matrix.
//!
//! The conductance matrix is stored packed (compressed sparse rows, columns
//! ascending) because realistic die/hotspot/package topologies are sparse:
//! the substep cost scales with the number of edges, not `n²`. One scalar
//! kernel walks those rows.
//!
//! # The cached propagator
//!
//! Within one `advance(dt)` the powers and the boundary are constant, so
//! every full-length substep is the same affine map `T ← A·T + c` with
//!
//! ```text
//! A = diag(d) + diag((1 − d) / G_tot) · G_offdiag,   d = exp(−G_tot·h / C)
//! ```
//!
//! for the substep length `h = max_substep`. Its fixed point solves
//! `(I − A)·T = c`, which (dividing out `diag((1 − d) / G_tot)`) is exactly
//! the steady-state system `G·T = P + G_amb·T_boundary`. Hence `k` substeps
//! equal `T_ss + Aᵏ·(T − T_ss)` in exact arithmetic. `advance` splits `dt`
//! into `k` full substeps and a shorter remainder, as the substep loop does,
//! and for the full substeps applies one dense mat-vec per set bit of `k`
//! with a table of `A^(2^j)` built by repeated squaring, plus one mat-vec
//! with `G⁻¹` for `T_ss`. The remainder substep then runs through the
//! direct kernel. Results agree with the substep loop to rounding (the
//! oracle tests bound the gap at 1e-6 K), not bit for bit.
//!
//! The table and `G⁻¹` depend only on the topology, so they are cached in
//! it (a `OnceLock` behind the shared `Arc`): forks and fleet clones share
//! one copy, it is filled on the first advance that needs it, and it takes
//! no part in equality. Short calls stay on the direct kernel: the path is
//! chosen per call by a fixed cost rule computed from the topology at build
//! time, comparing `(1 + popcount(k))·n²` dense multiply-adds against
//! `k·(nnz + 3n)` for `k` substeps over `nnz` stored conductances.

use std::fmt;
use std::sync::{Arc, OnceLock};

use dimetrodon_sim_core::SimDuration;

use crate::linalg::Matrix;

/// Identifies a node in a [`ThermalNetwork`].
///
/// Node ids are dense indices assigned by
/// [`ThermalNetworkBuilder::add_node`] in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The dense index of this node.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Errors from building or using a thermal network.
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalError {
    /// A node parameter was not positive and finite.
    BadNodeParameter {
        /// The offending node's name.
        name: String,
        /// Explanation of the violation.
        reason: &'static str,
    },
    /// A conductance was not positive and finite.
    BadConductance {
        /// Explanation of the violation.
        reason: &'static str,
    },
    /// Some node has no conduction path to ambient, so its temperature
    /// would diverge under sustained power.
    NotGroundedToAmbient {
        /// Names of the unreachable nodes.
        nodes: Vec<String>,
    },
    /// The network has no nodes.
    Empty,
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThermalError::BadNodeParameter { name, reason } => {
                write!(f, "bad parameter for thermal node `{name}`: {reason}")
            }
            ThermalError::BadConductance { reason } => {
                write!(f, "bad thermal conductance: {reason}")
            }
            ThermalError::NotGroundedToAmbient { nodes } => {
                write!(f, "thermal nodes not connected to ambient: {}", nodes.join(", "))
            }
            ThermalError::Empty => write!(f, "thermal network has no nodes"),
        }
    }
}

impl std::error::Error for ThermalError {}

/// The immutable part of a thermal network, shared between forks via `Arc`.
///
/// Everything in here is a pure function of the builder's inputs: the
/// packed conductance structure, the per-node totals, the substep bound and
/// its precomputed decay factors, the assembled steady-state matrix, and
/// the lazily built propagator.
#[derive(Debug, PartialEq)]
pub(crate) struct Topology {
    pub(crate) names: Vec<String>,
    pub(crate) capacitances: Vec<f64>,
    /// Packed symmetric conductance matrix (CSR). Row `i`'s entries live at
    /// `row_offsets[i]..row_offsets[i + 1]`, columns strictly ascending.
    pub(crate) row_offsets: Vec<u32>,
    pub(crate) cols: Vec<u32>,
    pub(crate) vals: Vec<f64>,
    pub(crate) ambient_conductance: Vec<f64>,
    /// Cached per-node sum of incident conductances.
    pub(crate) total_conductance: Vec<f64>,
    pub(crate) ambient_celsius: f64,
    pub(crate) max_substep: SimDuration,
    /// `max_substep` in seconds, exactly as `advance` will pass it down.
    pub(crate) max_substep_s: f64,
    /// Per-node decay factors for a full-length substep, precomputed once;
    /// nearly every substep is `max_substep` long.
    pub(crate) decay_max: Vec<f64>,
    /// The assembled steady-state conductance matrix `G` of `G·T = rhs`.
    /// Assembly order matches the historical per-call construction, so
    /// solves produce bit-identical results.
    pub(crate) steady_matrix: Matrix,
    /// The shortest advance the cost rule can send to the propagator,
    /// fixed at build time; shorter calls skip the rule (and its division)
    /// altogether.
    propagate_from: SimDuration,
    /// Boxed so that `Topology` itself holds no interior mutability: the
    /// substep kernel reads it through `&Topology`, and an inline
    /// `OnceLock` would cost the compiler its no-alias facts there (about
    /// 15% slower per substep on the 10-node network, measured on x86-64).
    propagator: Box<PropagatorCache>,
}

/// The full-substep propagator of a topology (see the module docs): every
/// matrix is `n × n`, column-major, so a mat-vec is `n` independent axpys.
#[derive(Debug)]
struct Propagator {
    /// `G⁻¹`, the inverse of the steady-state matrix.
    steady_inverse: Vec<f64>,
    /// `levels[j] = A^(2^j)`. The table stops before the first square
    /// whose entries would all fall below the smallest normal `f64`; any
    /// power of `A` with a higher bit set is taken as zero.
    levels: Vec<Vec<f64>>,
}

/// The lazily built propagator. A pure function of the rest of the
/// topology, so it never takes part in equality: a network restored into
/// a fresh topology with a cold cache equals the live one.
#[derive(Debug, Default)]
struct PropagatorCache(OnceLock<Propagator>);

impl PartialEq for PropagatorCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Topology {
    /// Whether `k` full substeps are cheaper through the propagator than
    /// through the direct kernel, in multiply-adds: `(1 + popcount(k))`
    /// dense mat-vecs of `n²` against `k` substeps of `nnz + 3n`.
    fn propagates(&self, k: u64) -> bool {
        let n = self.names.len() as u128;
        let nnz = self.vals.len() as u128;
        (1 + u128::from(k.count_ones())) * n * n < u128::from(k) * (nnz + 3 * n)
    }

    /// The propagator, built on first use and shared by every network on
    /// this topology.
    fn propagator(&self) -> &Propagator {
        self.propagator.0.get_or_init(|| self.build_propagator())
    }

    fn build_propagator(&self) -> Propagator {
        let n = self.names.len();
        // Column k of G⁻¹ is the solution of G·x = e_k.
        let mut steady_inverse = Vec::with_capacity(n * n);
        let mut unit = vec![0.0; n];
        for k in 0..n {
            unit[k] = 1.0;
            let column = self
                .steady_matrix
                .solve(&unit)
                // simlint::allow(R1): documented panic — the builder
                // grounds every node to ambient, making the matrix
                // diagonally dominant and therefore non-singular.
                .expect("grounded thermal network has a non-singular conductance matrix");
            steady_inverse.extend(column);
            unit[k] = 0.0;
        }

        // A = diag(d) + diag((1 − d) / G_tot)·G_offdiag, column by column.
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = self.decay_max[i];
            let gain = (1.0 - self.decay_max[i]) / self.total_conductance[i];
            for k in self.row_offsets[i] as usize..self.row_offsets[i + 1] as usize {
                a[self.cols[k] as usize * n + i] = gain * self.vals[k];
            }
        }
        // Square until the next square would lie entirely below the
        // smallest normal double (every entry of `M²` is at most
        // `n·max|M|²`), or until every bit of a `u64` count is covered.
        let floor = (f64::MIN_POSITIVE / n as f64).sqrt();
        let mut levels = vec![a];
        while levels.len() < 64 {
            let last = &levels[levels.len() - 1];
            if last.iter().all(|x| x.abs() < floor) {
                break;
            }
            let mut square = vec![0.0; n * n];
            for (out_col, col) in square.chunks_exact_mut(n).zip(last.chunks_exact(n)) {
                mat_vec(last, col, out_col);
            }
            levels.push(square);
        }
        Propagator {
            steady_inverse,
            levels,
        }
    }
}

/// `y = M·x` for a column-major `n × n` matrix: one axpy per column, so
/// every output accumulates its terms in column order.
fn mat_vec(m: &[f64], x: &[f64], y: &mut [f64]) {
    y.fill(0.0);
    for (col, &xj) in m.chunks_exact(y.len()).zip(x) {
        for (yi, &mij) in y.iter_mut().zip(col) {
            *yi += mij * xj;
        }
    }
}

/// Builder for a [`ThermalNetwork`].
///
/// # Examples
///
/// A die–package–ambient chain:
///
/// ```
/// use dimetrodon_thermal::ThermalNetworkBuilder;
/// use dimetrodon_sim_core::SimDuration;
///
/// # fn main() -> Result<(), dimetrodon_thermal::ThermalError> {
/// let mut builder = ThermalNetworkBuilder::new(25.0);
/// let die = builder.add_node("die", 1.0);
/// let pkg = builder.add_node("package", 50.0);
/// builder.connect(die, pkg, 0.5);
/// builder.connect_ambient(pkg, 0.4);
/// let mut network = builder.build()?;
///
/// network.set_power(die, 10.0);
/// network.advance(SimDuration::from_secs(600));
/// // After a long time the die sits well above ambient.
/// assert!(network.temperature(die) > 40.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ThermalNetworkBuilder {
    ambient_celsius: f64,
    names: Vec<String>,
    capacitances: Vec<f64>,
    edges: Vec<(usize, usize, f64)>,
    ambient_edges: Vec<(usize, f64)>,
}

impl ThermalNetworkBuilder {
    /// Starts a network with the given fixed ambient temperature in °C.
    pub fn new(ambient_celsius: f64) -> Self {
        ThermalNetworkBuilder {
            ambient_celsius,
            names: Vec::new(),
            capacitances: Vec::new(),
            edges: Vec::new(),
            ambient_edges: Vec::new(),
        }
    }

    /// Adds a node with heat capacity in J/K and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>, capacitance_j_per_k: f64) -> NodeId {
        self.names.push(name.into());
        self.capacitances.push(capacitance_j_per_k);
        NodeId(self.names.len() - 1)
    }

    /// Connects two nodes with a thermal conductance in W/K. Multiple
    /// connections between the same pair sum.
    pub fn connect(&mut self, a: NodeId, b: NodeId, conductance_w_per_k: f64) -> &mut Self {
        self.edges.push((a.0, b.0, conductance_w_per_k));
        self
    }

    /// Connects a node to the fixed ambient with a conductance in W/K.
    pub fn connect_ambient(&mut self, node: NodeId, conductance_w_per_k: f64) -> &mut Self {
        self.ambient_edges.push((node.0, conductance_w_per_k));
        self
    }

    /// Validates and builds the network, with all node temperatures
    /// initialised to ambient.
    ///
    /// # Errors
    ///
    /// Returns an error if the network is empty, any capacitance or
    /// conductance is non-positive or non-finite, or any node lacks a
    /// conduction path to ambient.
    pub fn build(&self) -> Result<ThermalNetwork, ThermalError> {
        let n = self.names.len();
        if n == 0 {
            return Err(ThermalError::Empty);
        }
        for (name, &c) in self.names.iter().zip(&self.capacitances) {
            if !(c > 0.0 && c.is_finite()) {
                return Err(ThermalError::BadNodeParameter {
                    name: name.clone(),
                    reason: "heat capacity must be positive and finite",
                });
            }
        }
        for &(a, b, g) in &self.edges {
            if !(g > 0.0 && g.is_finite()) {
                return Err(ThermalError::BadConductance {
                    reason: "node-to-node conductance must be positive and finite",
                });
            }
            if a == b {
                return Err(ThermalError::BadConductance {
                    reason: "self-loops are meaningless",
                });
            }
        }
        for &(_, g) in &self.ambient_edges {
            if !(g > 0.0 && g.is_finite()) {
                return Err(ThermalError::BadConductance {
                    reason: "ambient conductance must be positive and finite",
                });
            }
        }

        // Dense adjacency with summed conductances, used only at build time
        // to validate and to derive the packed structure.
        let mut conductance = vec![0.0f64; n * n];
        for &(a, b, g) in &self.edges {
            conductance[a * n + b] += g;
            conductance[b * n + a] += g;
        }
        let mut ambient_conductance = vec![0.0f64; n];
        for &(node, g) in &self.ambient_edges {
            ambient_conductance[node] += g;
        }

        // Reachability from ambient: every node must be able to shed heat.
        let mut reachable = vec![false; n];
        let mut stack: Vec<usize> = (0..n).filter(|&i| ambient_conductance[i] > 0.0).collect();
        for &s in &stack {
            reachable[s] = true;
        }
        while let Some(i) = stack.pop() {
            for j in 0..n {
                if conductance[i * n + j] > 0.0 && !reachable[j] {
                    reachable[j] = true;
                    stack.push(j);
                }
            }
        }
        let unreachable: Vec<String> = (0..n)
            .filter(|&i| !reachable[i])
            .map(|i| self.names[i].clone())
            .collect();
        if !unreachable.is_empty() {
            return Err(ThermalError::NotGroundedToAmbient { nodes: unreachable });
        }

        let total_conductance: Vec<f64> = (0..n)
            .map(|i| conductance[i * n..(i + 1) * n].iter().sum::<f64>() + ambient_conductance[i])
            .collect();

        // Pack the dense adjacency into CSR with ascending columns. The
        // substep accumulates a row's products in the same left-to-right
        // order as the old dense walk; the skipped entries were exact zeros
        // whose products contribute `±0.0`, so the packed sum is
        // bit-identical for any physical temperature vector.
        let mut row_offsets = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        row_offsets.push(0u32);
        for i in 0..n {
            for j in 0..n {
                let g = conductance[i * n + j];
                // simlint::allow(D4): exact zero-skip on purpose — only
                // entries whose product is exactly ±0.0 are dropped, which
                // keeps the packed sum bit-identical to the dense walk.
                if g != 0.0 {
                    cols.push(j as u32);
                    vals.push(g);
                }
            }
            row_offsets.push(cols.len() as u32);
        }

        // The shortest local time constant bounds the internal substep.
        // Exponential Euler is unconditionally stable and exact per node;
        // a quarter of the fastest time constant keeps the coupling error
        // negligible at the temperatures we care about.
        let min_tau = (0..n)
            .map(|i| self.capacitances[i] / total_conductance[i])
            .fold(f64::INFINITY, f64::min);
        let max_substep = SimDuration::from_secs_f64(min_tau / 4.0);
        let max_substep_s = max_substep.as_secs_f64();
        let decay_max: Vec<f64> = (0..n)
            .map(|i| (-total_conductance[i] * max_substep_s / self.capacitances[i]).exp())
            .collect();

        // Assemble the steady-state matrix once; only the right-hand side
        // depends on the powers. Same element order as the historical
        // per-call assembly, so solves stay bit-identical.
        let mut steady_matrix = Matrix::zeros(n);
        for i in 0..n {
            steady_matrix.set(i, i, total_conductance[i]);
            for k in row_offsets[i] as usize..row_offsets[i + 1] as usize {
                steady_matrix.add_to(i, cols[k] as usize, -vals[k]);
            }
        }

        let mut topology = Topology {
            names: self.names.clone(),
            capacitances: self.capacitances.clone(),
            row_offsets,
            cols,
            vals,
            ambient_conductance,
            total_conductance,
            ambient_celsius: self.ambient_celsius,
            max_substep,
            max_substep_s,
            decay_max,
            steady_matrix,
            propagate_from: SimDuration::ZERO,
            propagator: Box::default(),
        };
        // Terminates: at powers of two the rule compares 2·n² against
        // k·(nnz + 3n), which k eventually wins.
        let first = (1u64..).find(|&k| topology.propagates(k)).unwrap_or(u64::MAX);
        topology.propagate_from =
            SimDuration::from_nanos(max_substep.as_nanos().saturating_mul(first));
        Ok(ThermalNetwork {
            topo: Arc::new(topology),
            temperatures: vec![self.ambient_celsius; n],
            powers: vec![0.0; n],
            boundary_celsius: self.ambient_celsius,
            scratch: vec![self.ambient_celsius; n],
            work: Vec::new(),
            decay: vec![0.0; n],
            decay_dt_s: f64::NAN,
        })
    }
}

/// A lumped RC thermal network with a fixed-temperature ambient.
///
/// Construct with [`ThermalNetworkBuilder`]. Inject power with
/// [`set_power`](ThermalNetwork::set_power), then
/// [`advance`](ThermalNetwork::advance) the network through time; power is treated as
/// constant for the duration of each `advance` call, matching the
/// piecewise-constant power profile of a discrete-event machine model.
///
/// Cloning is cheap: the topology (names, conductance structure, derived
/// caches) is shared via `Arc`, and only the mutable state — temperatures,
/// powers, integrator workspace — is deep-copied. For an even lighter
/// checkpoint of just the observable state, see
/// [`snapshot`](ThermalNetwork::snapshot) / [`restore`](ThermalNetwork::restore).
#[derive(Debug, Clone)]
pub struct ThermalNetwork {
    // simlint::shared: Arc-shared immutable topology.
    pub(crate) topo: Arc<Topology>,
    temperatures: Vec<f64>,
    powers: Vec<f64>,
    /// The boundary (ambient/inlet) node's temperature in °C. Starts at the
    /// builder's ambient and may be moved between steps — the rack model's
    /// coupling knob. Observable state: snapshotted, restored, compared.
    boundary_celsius: f64,
    /// Integrator workspace: the previous substep's temperatures.
    // simlint::shared: scratch, fully overwritten before every use.
    scratch: Vec<f64>,
    /// Propagator workspace: the steady-state right-hand side, then the
    /// output of each mat-vec. Sized on first use, so networks that never
    /// take the propagator (and clones of them) never allocate it.
    // simlint::shared: scratch, fully overwritten before every use.
    work: Vec<f64>,
    /// Per-node decay factors for an *irregular* substep of `decay_dt_s`
    /// seconds (a remainder shorter than `max_substep`); the common
    /// full-length factors live precomputed in the topology.
    // simlint::shared: pure cache keyed by `decay_dt_s`, rebuilt on use.
    decay: Vec<f64>,
    // simlint::shared: cache key for `decay`; not observable state.
    decay_dt_s: f64,
}

impl PartialEq for ThermalNetwork {
    fn eq(&self, other: &Self) -> bool {
        // The integrator workspace (`scratch`, `work`, `decay`,
        // `decay_dt_s`) is not part of the network's observable state.
        // Topologies compare by value (their propagator caches excluded),
        // so independently built identical networks are equal.
        (Arc::ptr_eq(&self.topo, &other.topo) || self.topo == other.topo)
            && self.temperatures == other.temperatures
            && self.powers == other.powers
            && self.boundary_celsius.to_bits() == other.boundary_celsius.to_bits()
    }
}

/// A checkpoint of a [`ThermalNetwork`]'s observable state: temperatures,
/// powers, and the boundary temperature. Pair with
/// [`ThermalNetwork::restore`] to rewind a network to a recorded instant
/// without rebuilding its topology.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalSnapshot {
    temperatures: Vec<f64>,
    powers: Vec<f64>,
    boundary_celsius: f64,
}

impl ThermalSnapshot {
    /// Serializes the snapshot for a durable checkpoint: every float as
    /// its IEEE-754 bit pattern, so decode is bit-exact.
    pub fn encode_state(&self, enc: &mut dimetrodon_ckpt::Enc) {
        enc.f64_slice(&self.temperatures);
        enc.f64_slice(&self.powers);
        enc.f64(self.boundary_celsius);
    }

    /// Rebuilds a snapshot from [`encode_state`](Self::encode_state)
    /// bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`dimetrodon_ckpt::CkptError`] on a short or malformed
    /// payload, and when the two node vectors disagree in length (a
    /// snapshot that could never have been encoded).
    pub fn decode_state(
        dec: &mut dimetrodon_ckpt::Dec<'_>,
    ) -> Result<Self, dimetrodon_ckpt::CkptError> {
        let temperatures = dec.f64_vec()?;
        let powers = dec.f64_vec()?;
        let boundary_celsius = dec.f64()?;
        if temperatures.len() != powers.len() {
            return Err(dimetrodon_ckpt::CkptError::Malformed(format!(
                "thermal snapshot with {} temperatures but {} powers",
                temperatures.len(),
                powers.len()
            )));
        }
        Ok(ThermalSnapshot {
            temperatures,
            powers,
            boundary_celsius,
        })
    }

    /// Number of nodes the snapshot covers (restore requires it to match
    /// the target network).
    pub fn node_count(&self) -> usize {
        self.temperatures.len()
    }
}

impl ThermalNetwork {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.topo.names.len()
    }

    /// The name a node was registered with.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not from this network.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.topo.names[node.0]
    }

    /// Node ids in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.topo.names.len()).map(NodeId)
    }

    /// The ambient temperature the network was built with, in °C — the
    /// boundary temperature's initial value.
    pub fn ambient_celsius(&self) -> f64 {
        self.topo.ambient_celsius
    }

    /// The current boundary (ambient/inlet) temperature in °C.
    ///
    /// Equals [`ambient_celsius`](ThermalNetwork::ambient_celsius) unless
    /// moved with [`set_boundary_celsius`](ThermalNetwork::set_boundary_celsius).
    pub fn boundary_celsius(&self) -> f64 {
        self.boundary_celsius
    }

    /// Moves the boundary (ambient/inlet) node to a new temperature in °C.
    ///
    /// Takes effect from the next `advance`; ambient conductances are
    /// unchanged, only the temperature they pull toward moves. Setting the
    /// built ambient back is bit-identical to never having called this.
    ///
    /// # Panics
    ///
    /// Panics if `celsius` is not finite.
    pub fn set_boundary_celsius(&mut self, celsius: f64) {
        assert!(celsius.is_finite(), "boundary temperature must be finite, got {celsius}");
        self.boundary_celsius = celsius;
    }

    /// Current temperature of a node in °C.
    pub fn temperature(&self, node: NodeId) -> f64 {
        self.temperatures[node.0]
    }

    /// All node temperatures, indexed by [`NodeId::index`].
    pub fn temperatures(&self) -> &[f64] {
        &self.temperatures
    }

    /// Sets the heat injected at a node, in watts, until changed again.
    ///
    /// # Panics
    ///
    /// Panics if `watts` is negative or not finite.
    pub fn set_power(&mut self, node: NodeId, watts: f64) {
        assert!(
            watts >= 0.0 && watts.is_finite(),
            "power must be non-negative and finite, got {watts}"
        );
        self.powers[node.0] = watts;
    }

    /// Current power injection at a node, in watts.
    pub fn power(&self, node: NodeId) -> f64 {
        self.powers[node.0]
    }

    /// The integrator's internal substep bound: a quarter of the fastest
    /// local time constant.
    pub fn max_substep(&self) -> SimDuration {
        self.topo.max_substep
    }

    /// Whether two networks share one topology allocation (i.e. one was
    /// cloned or forked from the other). Value-equal but independently
    /// built networks return `false`.
    pub fn shares_topology(&self, other: &ThermalNetwork) -> bool {
        Arc::ptr_eq(&self.topo, &other.topo)
    }

    /// Captures the observable state (temperatures, powers, boundary).
    pub fn snapshot(&self) -> ThermalSnapshot {
        ThermalSnapshot {
            temperatures: self.temperatures.clone(),
            powers: self.powers.clone(),
            boundary_celsius: self.boundary_celsius,
        }
    }

    /// Rewinds the network to a previously captured snapshot.
    ///
    /// The integrator's decay cache is keyed only by substep length, never
    /// by temperatures or powers, so restoring state mid-flight cannot
    /// stale it — advancing after a restore is bit-identical to advancing
    /// a fresh network from the same state.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's node count differs from this network's.
    pub fn restore(&mut self, snapshot: &ThermalSnapshot) {
        assert_eq!(
            snapshot.temperatures.len(),
            self.temperatures.len(),
            "snapshot node count mismatch"
        );
        self.temperatures.copy_from_slice(&snapshot.temperatures);
        self.powers.copy_from_slice(&snapshot.powers);
        self.boundary_celsius = snapshot.boundary_celsius;
    }

    /// Advances the network by `dt` under the currently set powers.
    ///
    /// Integrates in substeps of at most a quarter of the fastest local
    /// time constant, so accuracy does not depend on the caller's event
    /// granularity. Long calls take the full-length substeps in closed
    /// form through the cached propagator (see the module docs); the
    /// result matches [`substep_reference`](crate::substep_reference) to
    /// rounding.
    pub fn advance(&mut self, dt: SimDuration) {
        self.advance_with(dt, true);
    }

    /// The substep loop behind [`advance`](Self::advance), never taking
    /// the propagator: the reference integrator.
    pub(crate) fn advance_substeps(&mut self, dt: SimDuration) {
        self.advance_with(dt, false);
    }

    fn advance_with(&mut self, dt: SimDuration, allow_propagator: bool) {
        if dt.is_zero() {
            return;
        }
        // Each substep moves every node toward an equilibrium that is at
        // least the coldest of (ambient, its neighbours), so the network
        // minimum can never drop below min(pre-step minimum, ambient) —
        // modulo float rounding, hence the tolerance. The pre-step minimum
        // matters because set_temperature may legitimately start a node
        // below ambient.
        let floor = if cfg!(feature = "invariants") {
            self.temperatures
                .iter()
                .copied()
                .fold(self.boundary_celsius, f64::min)
                - 1e-6
        } else {
            f64::NEG_INFINITY
        };
        let mut remaining = dt;
        if allow_propagator && dt >= self.topo.propagate_from {
            let full = dt.as_nanos() / self.topo.max_substep.as_nanos();
            if self.topo.propagates(full) {
                self.propagate(full);
                remaining = dt.saturating_sub(self.topo.max_substep * full);
            }
        }
        while !remaining.is_zero() {
            let step = remaining.min(self.topo.max_substep);
            self.substep(step.as_secs_f64());
            remaining = remaining.saturating_sub(step);
        }
        if cfg!(feature = "invariants") {
            for (i, &t) in self.temperatures.iter().enumerate() {
                assert!(
                    t.is_finite() && t >= floor,
                    "thermal invariant violated: node {i} at {t} °C \
                     (finite, >= {floor} °C expected)"
                );
            }
        }
    }

    /// Takes `k` full-length substeps at once:
    /// `T ← T_ss + Aᵏ·(T − T_ss)`, one mat-vec per set bit of `k`.
    fn propagate(&mut self, k: u64) {
        let topo = &*self.topo;
        let prop = topo.propagator();
        self.work.resize(self.temperatures.len(), 0.0);
        // scratch ← T_ss = G⁻¹·(P + G_amb·T_boundary).
        let rhs = self.work.iter_mut().zip(&self.powers).zip(&topo.ambient_conductance);
        for ((rhs, &p), &g) in rhs {
            *rhs = p + g * self.boundary_celsius;
        }
        mat_vec(&prop.steady_inverse, &self.work, &mut self.scratch);
        for (t, &ss) in self.temperatures.iter_mut().zip(&self.scratch) {
            *t -= ss;
        }
        for (j, level) in prop.levels.iter().enumerate() {
            if k >> j & 1 == 1 {
                mat_vec(level, &self.temperatures, &mut self.work);
                std::mem::swap(&mut self.temperatures, &mut self.work);
            }
        }
        if k.checked_shr(prop.levels.len() as u32).unwrap_or(0) != 0 {
            // Aᵏ has underflowed to zero: the network sits at T_ss.
            self.temperatures.fill(0.0);
        }
        for (t, &ss) in self.temperatures.iter_mut().zip(&self.scratch) {
            *t += ss;
        }
    }

    /// One exponential-Euler substep of `dt_s` seconds.
    ///
    /// Allocation-free: the previous temperatures live in a swapped
    /// scratch buffer. Full-length substeps use the decay factors
    /// precomputed in the topology; irregular remainders fall back to a
    /// per-network cache keyed by the substep length.
    fn substep(&mut self, dt_s: f64) {
        let n = self.temperatures.len();
        let full_step = dt_s == self.topo.max_substep_s;
        if !full_step && dt_s != self.decay_dt_s {
            for i in 0..n {
                self.decay[i] =
                    (-self.topo.total_conductance[i] * dt_s / self.topo.capacitances[i]).exp();
            }
            self.decay_dt_s = dt_s;
        }
        std::mem::swap(&mut self.temperatures, &mut self.scratch);
        let topo = &*self.topo;
        let decay: &[f64] = if full_step { &topo.decay_max } else { &self.decay };
        let old: &[f64] = &self.scratch;
        let new: &mut [f64] = &mut self.temperatures;

        scalar_substep(topo, self.boundary_celsius, old, &self.powers, decay, new);
    }

    /// Total power currently injected across all nodes, in watts.
    ///
    /// Lets callers audit energy conservation: whatever a machine model
    /// splits across hotspot/die/package nodes must sum back to the power
    /// it drew.
    pub fn total_power(&self) -> f64 {
        self.powers.iter().sum()
    }

    /// The steady-state temperatures under the currently set powers,
    /// computed directly from the conductance matrix (no time stepping).
    ///
    /// The matrix itself depends only on the topology and is assembled once
    /// at build time; each call builds the power-dependent right-hand side
    /// and solves.
    ///
    /// # Panics
    ///
    /// Panics if the conductance matrix is singular, which
    /// [`ThermalNetworkBuilder::build`] makes impossible (every node is
    /// grounded to ambient).
    pub fn steady_state(&self) -> Vec<f64> {
        let topo = &*self.topo;
        let rhs: Vec<f64> = self
            .powers
            .iter()
            .zip(&topo.ambient_conductance)
            .map(|(&p, &g)| p + g * self.boundary_celsius)
            .collect();
        topo.steady_matrix
            .solve(&rhs)
            // simlint::allow(R1): documented panic — the builder grounds
            // every node to ambient, making the matrix diagonally dominant
            // and therefore non-singular.
            .expect("grounded thermal network has a non-singular conductance matrix")
    }

    /// Jumps the network directly to the steady state of the current
    /// powers. Used to start experiments from a settled condition (e.g.
    /// the idle temperature).
    pub fn settle(&mut self) {
        self.temperatures = self.steady_state();
    }

    /// Resets every node to the built ambient temperature, clears all
    /// powers, and returns the boundary to the built ambient.
    pub fn reset(&mut self) {
        for t in &mut self.temperatures {
            *t = self.topo.ambient_celsius;
        }
        for p in &mut self.powers {
            *p = 0.0;
        }
        self.boundary_celsius = self.topo.ambient_celsius;
    }

    /// Overrides a node's temperature (for tests and checkpoint restore).
    ///
    /// # Panics
    ///
    /// Panics if `celsius` is not finite.
    pub fn set_temperature(&mut self, node: NodeId, celsius: f64) {
        assert!(celsius.is_finite(), "temperature must be finite");
        self.temperatures[node.0] = celsius;
    }

    /// The local time constant `C_i / G_i,total` of a node in seconds: how
    /// fast the node relaxes toward its neighbours. The die nodes' short
    /// time constant is what makes short idle quanta disproportionately
    /// effective (paper §3.4, Figure 3).
    pub fn local_time_constant(&self, node: NodeId) -> f64 {
        self.topo.capacitances[node.0] / self.topo.total_conductance[node.0]
    }

    /// The temperature derivative `dT/dt = C⁻¹(P − G·ΔT)` evaluated at an
    /// arbitrary temperature vector (K/s per node). Exposed for reference
    /// integrators and verification tooling.
    ///
    /// # Panics
    ///
    /// Panics if `temps` does not have one entry per node.
    pub fn heat_flow_derivative(&self, temps: &[f64]) -> Vec<f64> {
        let topo = &*self.topo;
        let n = self.temperatures.len();
        assert_eq!(temps.len(), n, "temperature vector length mismatch");
        (0..n)
            .map(|i| {
                let neighbour: f64 = (topo.row_offsets[i] as usize
                    ..topo.row_offsets[i + 1] as usize)
                    .map(|k| topo.vals[k] * (temps[topo.cols[k] as usize] - temps[i]))
                    .sum();
                let ambient = topo.ambient_conductance[i] * (self.boundary_celsius - temps[i]);
                (self.powers[i] + neighbour + ambient) / topo.capacitances[i]
            })
            .collect()
    }

    /// Net heat flow out of the network into the boundary right now, in
    /// watts.
    pub fn heat_to_ambient(&self) -> f64 {
        self.temperatures
            .iter()
            .zip(&self.topo.ambient_conductance)
            .map(|(&t, &g)| g * (t - self.boundary_celsius))
            .sum()
    }

    /// Total stored thermal energy relative to the boundary, in joules.
    pub fn stored_energy(&self) -> f64 {
        self.temperatures
            .iter()
            .zip(&self.topo.capacitances)
            .map(|(&t, &c)| c * (t - self.boundary_celsius))
            .sum()
    }
}

/// The packed-row scalar kernel: one exponential-Euler substep over CSR.
///
/// Accumulates each row's neighbour products left to right, exactly as the
/// historical dense walk did minus its `±0.0` products, so results are
/// bit-identical for physical temperatures.
fn scalar_substep(
    topo: &Topology,
    boundary: f64,
    old: &[f64],
    powers: &[f64],
    decay: &[f64],
    new: &mut [f64],
) {
    for (i, out) in new.iter_mut().enumerate() {
        let g_tot = topo.total_conductance[i];
        let mut neighbour_heat = 0.0;
        for k in topo.row_offsets[i] as usize..topo.row_offsets[i + 1] as usize {
            neighbour_heat += topo.vals[k] * old[topo.cols[k] as usize];
        }
        let neighbour_heat = neighbour_heat + topo.ambient_conductance[i] * boundary;
        let t_eq = (powers[i] + neighbour_heat) / g_tot;
        *out = t_eq + (old[i] - t_eq) * decay[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Under the `invariants` feature, advance() checks its physical
    /// envelope (finite temperatures, no dips below the pre-step floor)
    /// on every call; heat-up and cool-down paths both cross it.
    #[cfg(feature = "invariants")]
    #[test]
    fn envelope_check_passes_through_transients() {
        let (mut net, die) = single_node();
        net.set_power(die, 40.0);
        for _ in 0..200 {
            net.advance(SimDuration::from_millis(500));
        }
        net.set_power(die, 0.0);
        for _ in 0..200 {
            net.advance(SimDuration::from_millis(500));
        }
        assert!((net.temperature(die) - 25.0).abs() < 0.5);
    }

    /// die(1 J/K) --0.5 W/K-- ambient, a pure single-pole system.
    fn single_node() -> (ThermalNetwork, NodeId) {
        let mut b = ThermalNetworkBuilder::new(25.0);
        let die = b.add_node("die", 1.0);
        b.connect_ambient(die, 0.5);
        (b.build().unwrap(), die)
    }

    fn two_pole() -> (ThermalNetwork, NodeId, NodeId) {
        let mut b = ThermalNetworkBuilder::new(25.0);
        let die = b.add_node("die", 0.5);
        let pkg = b.add_node("pkg", 100.0);
        b.connect(die, pkg, 2.0);
        b.connect_ambient(pkg, 1.0);
        (b.build().unwrap(), die, pkg)
    }

    #[test]
    fn single_node_matches_analytic_solution() {
        let (mut net, die) = single_node();
        net.set_power(die, 10.0);
        // T(t) = T_amb + P/G * (1 - e^{-tG/C}); tau = C/G = 2 s.
        for &t_s in &[0.1, 0.5, 1.0, 2.0, 5.0, 20.0] {
            let mut n = net.clone();
            n.advance(SimDuration::from_secs_f64(t_s));
            let expected = 25.0 + 20.0 * (1.0 - (-t_s / 2.0).exp());
            let got = n.temperature(die);
            assert!(
                (got - expected).abs() < 0.02,
                "t={t_s}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn single_node_steady_state() {
        let (mut net, die) = single_node();
        net.set_power(die, 10.0);
        let ss = net.steady_state();
        assert!((ss[0] - 45.0).abs() < 1e-9); // 25 + 10/0.5
    }

    #[test]
    fn advance_converges_to_steady_state() {
        let (mut net, die, pkg) = two_pole();
        net.set_power(die, 40.0);
        let ss = net.steady_state();
        net.advance(SimDuration::from_secs(2000));
        assert!((net.temperature(die) - ss[0]).abs() < 0.05);
        assert!((net.temperature(pkg) - ss[1]).abs() < 0.05);
    }

    #[test]
    fn settle_equals_steady_state() {
        let (mut net, die, _) = two_pole();
        net.set_power(die, 40.0);
        let ss = net.steady_state();
        net.settle();
        assert_eq!(net.temperatures(), ss.as_slice());
    }

    #[test]
    fn die_cools_fast_package_cools_slow() {
        // The two-time-constant structure behind Figure 3: after a short
        // idle window the die has shed most of its excess over the package,
        // while the package has barely moved.
        let (mut net, die, pkg) = two_pole();
        net.set_power(die, 40.0);
        net.settle();
        let die_hot = net.temperature(die);
        let pkg_hot = net.temperature(pkg);
        net.set_power(die, 0.0);
        net.advance(SimDuration::from_millis(800)); // several die taus (0.2 s)
        let die_drop = die_hot - net.temperature(die);
        let pkg_drop = pkg_hot - net.temperature(pkg);
        assert!(die_drop > 15.0, "die should cool fast, dropped {die_drop}");
        assert!(pkg_drop < 1.0, "package should cool slowly, dropped {pkg_drop}");
    }

    #[test]
    fn cooling_has_diminishing_returns_in_window_length() {
        // Temperature drop per unit idle time decreases with window length:
        // the physical basis of the paper's diminishing marginal benefit.
        let (mut net, die, _) = two_pole();
        net.set_power(die, 40.0);
        net.settle();
        let hot = net.temperature(die);
        let drop_for = |ms: u64| {
            let mut n = net.clone();
            n.set_power(die, 0.0);
            n.advance(SimDuration::from_millis(ms));
            (hot - n.temperature(die)) / ms as f64
        };
        let per_ms_short = drop_for(50);
        let per_ms_long = drop_for(1000);
        assert!(
            per_ms_short > 2.0 * per_ms_long,
            "short windows should cool more per ms: {per_ms_short} vs {per_ms_long}"
        );
    }

    #[test]
    fn local_time_constants() {
        let (net, die, pkg) = two_pole();
        assert!((net.local_time_constant(die) - 0.25).abs() < 1e-12); // 0.5/2.0
        assert!((net.local_time_constant(pkg) - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn heat_balance_at_steady_state() {
        let (mut net, die, _) = two_pole();
        net.set_power(die, 40.0);
        net.settle();
        // At steady state all injected heat leaves to ambient.
        assert!((net.heat_to_ambient() - 40.0).abs() < 1e-6);
    }

    #[test]
    fn energy_conservation_during_transient() {
        // Injected energy = stored energy change + energy shed to ambient.
        let (mut net, die, _) = two_pole();
        net.set_power(die, 40.0);
        let dt = SimDuration::from_millis(10);
        let mut shed = 0.0;
        let e0 = net.stored_energy();
        for _ in 0..1000 {
            // Trapezoid on the ambient flow across the step.
            let flow_before = net.heat_to_ambient();
            net.advance(dt);
            let flow_after = net.heat_to_ambient();
            shed += 0.5 * (flow_before + flow_after) * dt.as_secs_f64();
        }
        let injected = 40.0 * 10.0; // 40 W for 10 s
        let delta_stored = net.stored_energy() - e0;
        let balance = injected - delta_stored - shed;
        assert!(
            balance.abs() < injected * 0.01,
            "energy imbalance {balance} of {injected}"
        );
    }

    #[test]
    fn reset_returns_to_ambient() {
        let (mut net, die, _) = two_pole();
        net.set_power(die, 40.0);
        net.advance(SimDuration::from_secs(10));
        net.reset();
        assert!(net.temperatures().iter().all(|&t| t == 25.0));
        assert_eq!(net.power(die), 0.0);
    }

    #[test]
    fn boundary_moves_the_equilibrium() {
        // Raising the boundary shifts every equilibrium up by the same
        // amount in a linear network: T_ss = boundary + P/G.
        let (mut net, die) = single_node();
        net.set_power(die, 10.0);
        net.set_boundary_celsius(35.0);
        assert_eq!(net.boundary_celsius(), 35.0);
        assert_eq!(net.ambient_celsius(), 25.0);
        assert!((net.steady_state()[0] - 55.0).abs() < 1e-9); // 35 + 10/0.5
        net.advance(SimDuration::from_secs(60));
        assert!((net.temperature(die) - 55.0).abs() < 0.01);
    }

    #[test]
    fn boundary_at_built_ambient_is_bit_identical() {
        // Setting the boundary to the value it already has must not change
        // a single bit of the trajectory — the whole-repo determinism
        // baseline depends on this.
        let (reference, die) = single_node();
        let mut touched = reference.clone();
        let mut reference = reference;
        reference.set_power(die, 10.0);
        touched.set_power(die, 10.0);
        touched.set_boundary_celsius(25.0);
        for _ in 0..50 {
            reference.advance(SimDuration::from_millis(73));
            touched.advance(SimDuration::from_millis(73));
        }
        assert_eq!(
            reference.temperature(die).to_bits(),
            touched.temperature(die).to_bits()
        );
    }

    #[test]
    fn snapshot_round_trips_the_boundary() {
        let (mut net, die) = single_node();
        net.set_power(die, 10.0);
        net.set_boundary_celsius(31.5);
        net.advance(SimDuration::from_secs(2));
        let checkpoint = net.snapshot();
        let at_checkpoint = net.clone();
        net.set_boundary_celsius(18.0);
        net.advance(SimDuration::from_secs(2));
        assert_ne!(net, at_checkpoint);
        net.restore(&checkpoint);
        assert_eq!(net, at_checkpoint);
        assert_eq!(net.boundary_celsius(), 31.5);
        // Advancing after the restore follows the checkpointed boundary.
        let mut replay = at_checkpoint;
        replay.advance(SimDuration::from_secs(2));
        net.advance(SimDuration::from_secs(2));
        assert_eq!(net.temperature(die).to_bits(), replay.temperature(die).to_bits());
    }

    #[test]
    fn reset_returns_the_boundary_to_built_ambient() {
        let (mut net, die) = single_node();
        net.set_power(die, 10.0);
        net.set_boundary_celsius(40.0);
        net.reset();
        assert_eq!(net.boundary_celsius(), 25.0);
        assert_eq!(net.temperature(die), 25.0);
    }

    #[test]
    #[should_panic(expected = "boundary temperature must be finite")]
    fn boundary_rejects_non_finite() {
        let (mut net, _) = single_node();
        net.set_boundary_celsius(f64::NAN);
    }

    #[test]
    fn build_rejects_empty() {
        assert_eq!(ThermalNetworkBuilder::new(25.0).build(), Err(ThermalError::Empty));
    }

    #[test]
    fn build_rejects_bad_capacitance() {
        let mut b = ThermalNetworkBuilder::new(25.0);
        b.add_node("die", 0.0);
        assert!(matches!(
            b.build(),
            Err(ThermalError::BadNodeParameter { .. })
        ));
    }

    #[test]
    fn build_rejects_ungrounded_node() {
        let mut b = ThermalNetworkBuilder::new(25.0);
        let a = b.add_node("a", 1.0);
        let c = b.add_node("floating", 1.0);
        b.connect_ambient(a, 1.0);
        let _ = c;
        match b.build() {
            Err(ThermalError::NotGroundedToAmbient { nodes }) => {
                assert_eq!(nodes, vec!["floating".to_string()]);
            }
            other => panic!("expected NotGroundedToAmbient, got {other:?}"),
        }
    }

    #[test]
    fn build_rejects_self_loop() {
        let mut b = ThermalNetworkBuilder::new(25.0);
        let a = b.add_node("a", 1.0);
        b.connect(a, a, 1.0);
        b.connect_ambient(a, 1.0);
        assert!(matches!(b.build(), Err(ThermalError::BadConductance { .. })));
    }

    #[test]
    fn build_rejects_nonpositive_conductance() {
        let mut b = ThermalNetworkBuilder::new(25.0);
        let a = b.add_node("a", 1.0);
        b.connect_ambient(a, -1.0);
        assert!(matches!(b.build(), Err(ThermalError::BadConductance { .. })));
    }

    #[test]
    fn error_display_is_informative() {
        let err = ThermalError::NotGroundedToAmbient {
            nodes: vec!["die0".into()],
        };
        assert!(err.to_string().contains("die0"));
    }

    #[test]
    fn advance_zero_is_noop() {
        let (mut net, die, _) = two_pole();
        net.set_power(die, 40.0);
        let before = net.temperatures().to_vec();
        net.advance(SimDuration::ZERO);
        assert_eq!(net.temperatures(), before.as_slice());
    }

    #[test]
    fn step_size_independence() {
        // Advancing 10 s in one call or in 1000 calls must agree (the
        // scheduler produces irregular event-driven step sizes).
        let (mut a, die, _) = two_pole();
        a.set_power(die, 40.0);
        let mut b = a.clone();
        a.advance(SimDuration::from_secs(10));
        for _ in 0..1000 {
            b.advance(SimDuration::from_millis(10));
        }
        // The exponential-Euler coupling error differs slightly between
        // step patterns; a few hundredths of a degree on a ~25 degree rise
        // is far below anything the experiments resolve.
        for (x, y) in a.temperatures().iter().zip(b.temperatures()) {
            assert!((x - y).abs() < 0.05, "{x} vs {y}");
        }
    }

    #[test]
    fn clone_shares_topology() {
        let (net, _, _) = two_pole();
        let fork = net.clone();
        assert!(net.shares_topology(&fork));
        assert_eq!(net, fork);
        // Independently built twins are value-equal but not shared.
        let (twin, _, _) = two_pole();
        assert!(!net.shares_topology(&twin));
        assert_eq!(net, twin);
    }

    #[test]
    fn packed_rows_mirror_dense_structure() {
        // two_pole: die--pkg edge only => each row has exactly one entry.
        let (net, _, _) = two_pole();
        let topo = &*net.topo;
        assert_eq!(topo.row_offsets, vec![0, 1, 2]);
        assert_eq!(topo.cols, vec![1, 0]);
        assert_eq!(topo.vals, vec![2.0, 2.0]);
    }

    #[test]
    fn snapshot_restore_roundtrip_is_bit_exact() {
        let (mut net, die, _) = two_pole();
        net.set_power(die, 40.0);
        net.advance(SimDuration::from_secs(3));
        let snap = net.snapshot();

        // Run forward from the snapshot and record the trajectory.
        let mut first = net.clone();
        first.advance(SimDuration::from_secs(5));

        // Diverge (different power, different substep remainders, which
        // also pollutes the decay cache), then rewind and replay.
        net.set_power(die, 5.0);
        net.advance(SimDuration::from_secs_f64(1.2345));
        net.restore(&snap);
        net.advance(SimDuration::from_secs(5));

        for (a, b) in net.temperatures().iter().zip(first.temperatures()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn decay_cache_invalidated_across_substep_lengths() {
        // Interleave advances whose remainders require different decay
        // factors; a stale cache would reuse the wrong exp(). Compare
        // against fresh clones that compute each length cold.
        let (mut warm, die, _) = two_pole();
        warm.set_power(die, 40.0);
        let base = warm.clone();
        let durations = [0.017, 0.003, 0.017, 0.0501, 0.003];
        let mut elapsed = Vec::new();
        for &secs in &durations {
            elapsed.push(secs);
            warm.advance(SimDuration::from_secs_f64(secs));
            // A cold network replaying the same sequence from scratch must
            // land on identical bits even though its cache history differs.
            let mut cold = base.clone();
            for &s in &elapsed {
                cold.advance(SimDuration::from_secs_f64(s));
            }
            for (a, b) in warm.temperatures().iter().zip(cold.temperatures()) {
                assert_eq!(a.to_bits(), b.to_bits(), "after {elapsed:?}: {a} vs {b}");
            }
        }
    }

    fn cache_is_warm(net: &ThermalNetwork) -> bool {
        net.topo.propagator.0.get().is_some()
    }

    #[test]
    fn cost_rule_keeps_short_calls_on_the_direct_kernel() {
        let (net, _, _) = two_pole();
        let topo = &*net.topo;
        // n = 2, nnz = 2: 4 multiply-adds per mat-vec, 8 per substep.
        assert!(!topo.propagates(0));
        assert!(!topo.propagates(1));
        assert!(topo.propagates(2));
        assert!(topo.propagates(u64::MAX));
        assert_eq!(topo.propagate_from, topo.max_substep * 2);
        // A zero-length call or a single substep never builds the cache.
        let mut short = net.clone();
        short.set_power(NodeId(0), 40.0);
        short.advance(SimDuration::ZERO);
        short.advance(short.max_substep());
        assert!(!cache_is_warm(&short));
        short.advance(SimDuration::from_secs(1));
        assert!(cache_is_warm(&short));
        // Forks share the one cache through the topology.
        assert!(cache_is_warm(&net));
    }

    #[test]
    fn restored_network_with_a_cold_cache_advances_bit_identically() {
        let (mut live, die, _) = two_pole();
        live.set_power(die, 40.0);
        live.set_boundary_celsius(31.0);
        live.advance(SimDuration::from_secs_f64(2.5));
        assert!(cache_is_warm(&live));

        // A durable checkpoint restored into a freshly built network: same
        // topology by value, but its propagator has never been built.
        let mut enc = dimetrodon_ckpt::Enc::new();
        live.snapshot().encode_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = dimetrodon_ckpt::Dec::new(&bytes);
        let snapshot = ThermalSnapshot::decode_state(&mut dec).unwrap();
        let (mut restored, _, _) = two_pole();
        restored.restore(&snapshot);
        assert!(!cache_is_warm(&restored));
        assert!(!restored.shares_topology(&live));
        assert_eq!(restored, live, "equality ignores the propagator cache");

        for &secs in &[1.0, 0.0007, 17.3, 0.25] {
            live.advance(SimDuration::from_secs_f64(secs));
            restored.advance(SimDuration::from_secs_f64(secs));
            for (a, b) in live.temperatures().iter().zip(restored.temperatures()) {
                assert_eq!(a.to_bits(), b.to_bits(), "after {secs} s: {a} vs {b}");
            }
        }
        assert!(cache_is_warm(&restored));
        assert_eq!(restored, live);
    }

    #[test]
    fn settle_and_steady_state_do_not_build_the_cache() {
        let (mut net, die, _) = two_pole();
        net.set_power(die, 40.0);
        let ss = net.steady_state();
        net.settle();
        assert_eq!(net.temperatures(), ss.as_slice());
        assert!(!cache_is_warm(&net));
    }

    proptest! {
        // The integration proptests advance hundreds of simulated seconds
        // per case; a few dozen cases give the coverage without minutes of
        // wall clock.
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Temperatures never escape the [ambient, max steady state]
        /// envelope when heating from ambient.
        #[test]
        fn prop_temperatures_bounded(power in 0.0f64..200.0, secs in 0u64..500) {
            let (mut net, die, _) = two_pole();
            net.set_power(die, power);
            let ss_max = net.steady_state().iter().copied().fold(f64::MIN, f64::max);
            net.advance(SimDuration::from_secs(secs));
            for &t in net.temperatures() {
                prop_assert!(t >= 25.0 - 1e-9);
                prop_assert!(t <= ss_max + 1e-6);
            }
        }

        /// More power never produces lower temperatures (monotonicity).
        #[test]
        fn prop_monotone_in_power(p1 in 0.0f64..100.0, extra in 0.1f64..100.0, secs in 1u64..200) {
            let (mut low, die, _) = two_pole();
            let mut high = low.clone();
            low.set_power(die, p1);
            high.set_power(die, p1 + extra);
            low.advance(SimDuration::from_secs(secs));
            high.advance(SimDuration::from_secs(secs));
            for (&l, &h) in low.temperatures().iter().zip(high.temperatures()) {
                prop_assert!(h >= l - 1e-9, "power monotonicity violated: {} vs {}", l, h);
            }
        }

        /// Steady state is invariant to how you reach it.
        #[test]
        fn prop_steady_state_is_attractor(power in 1.0f64..100.0, init in -20.0f64..150.0) {
            let (mut net, die, pkg) = two_pole();
            net.set_power(die, power);
            net.set_temperature(die, init);
            net.set_temperature(pkg, init);
            let ss = net.steady_state();
            net.advance(SimDuration::from_secs(3000));
            prop_assert!((net.temperature(die) - ss[0]).abs() < 0.1);
            prop_assert!((net.temperature(pkg) - ss[1]).abs() < 0.1);
        }

        /// Snapshot → restore → advance matches an uninterrupted run
        /// bit-for-bit for arbitrary power/duration splits.
        #[test]
        fn prop_restore_then_advance_is_bit_identical(
            power in 0.0f64..150.0,
            pre_ms in 1u64..5_000,
            post_ms in 1u64..5_000,
            detour_ms in 1u64..5_000,
        ) {
            let (mut net, die, _) = two_pole();
            net.set_power(die, power);
            net.advance(SimDuration::from_millis(pre_ms));
            let snap = net.snapshot();

            let mut straight = net.clone();
            straight.advance(SimDuration::from_millis(post_ms));

            net.set_power(die, power * 0.5);
            net.advance(SimDuration::from_millis(detour_ms));
            net.restore(&snap);
            net.advance(SimDuration::from_millis(post_ms));

            for (a, b) in net.temperatures().iter().zip(straight.temperatures()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
