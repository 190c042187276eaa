//! Cluster routing policies: where each arriving request runs.

use crate::config::FleetConfig;
use crate::health::HealthState;

/// The per-epoch cluster state a policy may consult. All slices are
/// indexed by machine (except `tenant_demand_cpu_s`, by tenant) and
/// reflect the fleet *as of the routing decision* — backlog already
/// includes earlier arrivals of the same epoch, so load-aware policies
/// spread a burst instead of dog-piling one machine.
#[derive(Debug)]
pub struct FleetView<'a> {
    /// Queued CPU-seconds per machine, this epoch's earlier arrivals
    /// included.
    pub backlog_cpu_s: &'a [f64],
    /// Mean sensor temperature per machine at the end of the previous
    /// epoch, °C.
    pub temps_celsius: &'a [f64],
    /// Cumulative routed CPU demand per tenant, CPU-seconds.
    pub tenant_demand_cpu_s: &'a [f64],
    /// What each machine advertises to the router this epoch. Without a
    /// chaos plan every machine is [`HealthState::Up`] forever; policies
    /// must never route to a machine advertised
    /// [`Down`](HealthState::Down).
    pub health: &'a [HealthState],
    /// The fleet's argmin index over exactly these slices, present only
    /// in the routing-phase view [`Fleet::step`](crate::Fleet::step)
    /// hands its policy: there temperatures and health are frozen and
    /// only the landed machine's backlog moves, which the index tracks.
    /// The end-of-epoch view and hand-built views carry `None`, and a
    /// wrapper that rewrites `health` must drop it.
    pub(crate) index: Option<&'a RouteIndex>,
}

impl FleetView<'_> {
    /// Number of machines in the fleet.
    pub fn machines(&self) -> usize {
        self.backlog_cpu_s.len()
    }

    /// Whether machine `m` is advertised routable (not down).
    pub fn routable(&self, m: usize) -> bool {
        self.health[m] != HealthState::Down
    }

    /// The routable machine with the least backlog, lowest index on ties
    /// (machine 0 when every machine is down). O(1) through the fleet's
    /// index when the view carries one, otherwise a scan.
    pub(crate) fn least_loaded(&self) -> usize {
        match self.index {
            Some(index) => index.least_loaded(),
            None => argmin_routable(self.backlog_cpu_s, self.health),
        }
    }

    /// The routable machine with the lowest temperature, lowest index on
    /// ties (machine 0 when every machine is down). Cached once per
    /// routing phase in the fleet's index when the view carries one,
    /// otherwise a scan.
    pub(crate) fn coolest(&self) -> usize {
        match self.index {
            Some(index) => index.coolest,
            None => argmin_routable(self.temps_celsius, self.health),
        }
    }
}

/// A cluster-level request router. `route` is called once per request
/// (in arrival order); `end_epoch` once per control epoch, after the
/// machines advanced — the hook where slow placement decisions like
/// migration live.
pub trait RoutePolicy {
    /// Stable policy name, used in CSV rows and journal lines.
    fn name(&self) -> &'static str;
    /// Picks the machine index (`< view.machines()`) the request runs on.
    fn route(&mut self, tenant: usize, view: &FleetView<'_>) -> usize;
    /// End-of-epoch hook; default does nothing.
    fn end_epoch(&mut self, _view: &FleetView<'_>) {}
    /// Appends the policy's mutable routing state to a checkpoint frame.
    /// Stateless policies keep the default no-op; stateful ones must
    /// write everything a restored run needs to continue bit-identically
    /// (cursors, pinning tables, hysteresis latches).
    fn save_state(&self, _enc: &mut dimetrodon_ckpt::Enc) {}
    /// Restores the state written by [`save_state`](RoutePolicy::save_state)
    /// into a freshly built policy of the same kind.
    ///
    /// # Errors
    ///
    /// Returns a [`dimetrodon_ckpt::CkptError`] when the payload is short
    /// or shaped for a different fleet; implementations never panic on
    /// corrupt input.
    fn restore_state(
        &mut self,
        _dec: &mut dimetrodon_ckpt::Dec<'_>,
    ) -> Result<(), dimetrodon_ckpt::CkptError> {
        Ok(())
    }
}

/// Index of the smallest value over routable machines, lowest index on
/// ties (strict `<` keeps the scan deterministic without any float
/// equality). When every machine is up this reduces exactly to a plain
/// argmin. Falls back to machine 0 if the whole fleet is down — the
/// epoch loop sheds the request after its bounded retries anyway.
fn argmin_routable(values: &[f64], health: &[HealthState]) -> usize {
    let mut best: Option<usize> = None;
    for (i, &value) in values.iter().enumerate() {
        if health[i] == HealthState::Down {
            continue;
        }
        let better = match best {
            Some(b) => value < values[b],
            None => true,
        };
        if better {
            best = Some(i);
        }
    }
    best.unwrap_or(0)
}

/// A tournament node whose range holds no routable machine.
const NO_MACHINE: usize = usize::MAX;

/// [`argmin_routable`] of the backlog and of the temperatures, kept
/// current through one routing phase. Temperatures and health are frozen
/// for the phase, so the coolest machine is computed once; backlog moves
/// one landing at a time, so least-loaded is a tournament tree whose
/// leaf-to-root path is replayed after each landing.
#[derive(Debug, Clone, Default)]
pub(crate) struct RouteIndex {
    /// Tournament tree in heap order: node 1 is the root, node `i` has
    /// children `2i` and `2i + 1`, machine `m` is leaf `leaves + m`.
    /// Each node holds its range's least-backlog routable machine, or
    /// [`NO_MACHINE`]; down machines and padding leaves never win.
    winner: Vec<usize>,
    /// Leaf count: the machine count rounded up to a power of two.
    leaves: usize,
    /// The coolest routable machine of the phase.
    coolest: usize,
}

impl RouteIndex {
    /// Rebuilds the index over a routing phase's state in O(n), reusing
    /// the tree's buffer.
    pub(crate) fn rebuild(&mut self, backlog: &[f64], temps: &[f64], health: &[HealthState]) {
        self.leaves = backlog.len().next_power_of_two();
        self.winner.clear();
        self.winner.resize(2 * self.leaves, NO_MACHINE);
        for (m, &state) in health.iter().enumerate() {
            if state != HealthState::Down {
                self.winner[self.leaves + m] = m;
            }
        }
        for node in (1..self.leaves).rev() {
            self.winner[node] = self.play(node, backlog);
        }
        self.coolest = argmin_routable(temps, health);
    }

    /// Replays the path from `machine`'s leaf to the root after its
    /// backlog changed: O(log n).
    pub(crate) fn update(&mut self, machine: usize, backlog: &[f64]) {
        let mut node = (self.leaves + machine) / 2;
        while node >= 1 {
            self.winner[node] = self.play(node, backlog);
            node /= 2;
        }
    }

    /// The winner of `node`'s two children. The right child, whose
    /// machines all have higher indices, wins only on a strictly smaller
    /// backlog: the scan's lowest-index-on-ties rule.
    fn play(&self, node: usize, backlog: &[f64]) -> usize {
        let (left, right) = (self.winner[2 * node], self.winner[2 * node + 1]);
        if right != NO_MACHINE && (left == NO_MACHINE || backlog[right] < backlog[left]) {
            right
        } else {
            left
        }
    }

    /// The least-loaded routable machine, or machine 0 when every
    /// machine is down.
    fn least_loaded(&self) -> usize {
        match self.winner[1] {
            NO_MACHINE => 0,
            machine => machine,
        }
    }
}

/// Index of the largest value, lowest index on ties.
fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    for i in 1..values.len() {
        if values[i] > values[best] {
            best = i;
        }
    }
    best
}

/// Cycles through machines in index order, ignoring load and
/// temperature. The baseline every load balancer is measured against.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoutePolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn route(&mut self, _tenant: usize, view: &FleetView<'_>) -> usize {
        let n = view.machines();
        // Scan at most one full cycle for a routable machine; with every
        // machine up the first candidate wins, which is exactly the
        // pre-health behavior. A fully-down fleet yields the cursor
        // unchanged and the epoch loop sheds the request.
        let mut chosen = self.next % n;
        for offset in 0..n {
            let candidate = (self.next + offset) % n;
            if view.routable(candidate) {
                chosen = candidate;
                break;
            }
        }
        self.next = (chosen + 1) % n;
        chosen
    }

    fn save_state(&self, enc: &mut dimetrodon_ckpt::Enc) {
        enc.u64(self.next as u64);
    }

    fn restore_state(
        &mut self,
        dec: &mut dimetrodon_ckpt::Dec<'_>,
    ) -> Result<(), dimetrodon_ckpt::CkptError> {
        let next = dec.u64()?;
        self.next = usize::try_from(next).map_err(|_| {
            dimetrodon_ckpt::CkptError::Malformed(format!("round-robin cursor {next} overflows"))
        })?;
        Ok(())
    }
}

/// Sends each request to the machine with the least queued work.
#[derive(Debug, Clone, Default)]
pub struct LeastLoaded;

impl RoutePolicy for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn route(&mut self, _tenant: usize, view: &FleetView<'_>) -> usize {
        view.least_loaded()
    }
}

/// Sends each request to the coolest machine: thermal-aware placement,
/// trading some queueing efficiency for flatter rack temperatures.
#[derive(Debug, Clone, Default)]
pub struct CoolestFirst;

impl RoutePolicy for CoolestFirst {
    fn name(&self) -> &'static str {
        "coolest-first"
    }

    fn route(&mut self, _tenant: usize, view: &FleetView<'_>) -> usize {
        view.coolest()
    }
}

/// Pins every tenant to a home machine (tenant affinity: caches, local
/// state) and migrates at epoch granularity: when the hottest machine
/// runs more than the hysteresis above the coolest, its
/// heaviest-demand tenant moves to the coolest machine.
#[derive(Debug, Clone)]
pub struct PinnedMigrate {
    home: Vec<usize>,
    hysteresis_celsius: f64,
    migrations: u64,
}

impl PinnedMigrate {
    /// Pins tenant `t` to machine `t % machines` initially.
    pub fn new(tenants: usize, machines: usize, hysteresis_celsius: f64) -> PinnedMigrate {
        assert!(machines > 0, "need at least one machine");
        PinnedMigrate {
            home: (0..tenants).map(|t| t % machines).collect(),
            hysteresis_celsius,
            migrations: 0,
        }
    }

    /// Tenants moved so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// The current home of a tenant.
    pub fn home_of(&self, tenant: usize) -> usize {
        self.home[tenant]
    }
}

impl RoutePolicy for PinnedMigrate {
    fn name(&self) -> &'static str {
        "pinned-migrate"
    }

    fn route(&mut self, tenant: usize, view: &FleetView<'_>) -> usize {
        let home = self.home[tenant];
        if view.routable(home) {
            return home;
        }
        // Transient failover while the home is down: the next routable
        // machine scanning upward from the home, wrapping. Affinity is
        // only re-pinned by the epoch-granularity migration below.
        let n = view.machines();
        for offset in 1..n {
            let candidate = (home + offset) % n;
            if view.routable(candidate) {
                return candidate;
            }
        }
        home
    }

    fn end_epoch(&mut self, view: &FleetView<'_>) {
        if view.machines() < 2 {
            return;
        }
        let hottest = argmax(view.temps_celsius);
        let coolest = view.coolest();
        if view.temps_celsius[hottest] - view.temps_celsius[coolest] <= self.hysteresis_celsius {
            return;
        }
        // Move the hottest machine's heaviest tenant (lowest id on ties).
        let mut heaviest: Option<usize> = None;
        for (tenant, &home) in self.home.iter().enumerate() {
            if home != hottest {
                continue;
            }
            let heavier = match heaviest {
                Some(best) => view.tenant_demand_cpu_s[tenant] > view.tenant_demand_cpu_s[best],
                None => true,
            };
            if heavier {
                heaviest = Some(tenant);
            }
        }
        if let Some(tenant) = heaviest {
            self.home[tenant] = coolest;
            self.migrations += 1;
        }
    }

    fn save_state(&self, enc: &mut dimetrodon_ckpt::Enc) {
        enc.seq_len(self.home.len());
        for &home in &self.home {
            enc.u64(home as u64);
        }
        enc.u64(self.migrations);
    }

    fn restore_state(
        &mut self,
        dec: &mut dimetrodon_ckpt::Dec<'_>,
    ) -> Result<(), dimetrodon_ckpt::CkptError> {
        let tenants = dec.seq_len()?;
        if tenants != self.home.len() {
            return Err(dimetrodon_ckpt::CkptError::Malformed(format!(
                "pinned-migrate table for {tenants} tenants restored into a {}-tenant fleet",
                self.home.len()
            )));
        }
        let mut home = Vec::with_capacity(tenants);
        for _ in 0..tenants {
            let machine = dec.u64()?;
            home.push(usize::try_from(machine).map_err(|_| {
                dimetrodon_ckpt::CkptError::Malformed(format!(
                    "pinned-migrate home machine {machine} overflows"
                ))
            })?);
        }
        self.home = home;
        self.migrations = dec.u64()?;
        Ok(())
    }
}

impl<P: RoutePolicy + ?Sized> RoutePolicy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn route(&mut self, tenant: usize, view: &FleetView<'_>) -> usize {
        (**self).route(tenant, view)
    }

    fn end_epoch(&mut self, view: &FleetView<'_>) {
        (**self).end_epoch(view);
    }

    fn save_state(&self, enc: &mut dimetrodon_ckpt::Enc) {
        (**self).save_state(enc);
    }

    fn restore_state(
        &mut self,
        dec: &mut dimetrodon_ckpt::Dec<'_>,
    ) -> Result<(), dimetrodon_ckpt::CkptError> {
        (**self).restore_state(dec)
    }
}

/// Health hysteresis around any inner [`RoutePolicy`]: a machine that
/// recovers is held out of rotation until it has advertised up for a
/// configurable streak of epochs, so a flapping machine (crash-looping,
/// marginal PSU) does not thrash the router with re-route/re-return
/// cycles. The wrapper rewrites only the health slice the inner policy
/// sees; with no failures it is an exact pass-through.
pub struct FailoverPolicy<P: RoutePolicy> {
    inner: P,
    recovery_epochs: u64,
    /// The health the inner policy is shown: real health, except that
    /// recovering machines stay down until their streak completes.
    effective: Vec<HealthState>,
    /// Consecutive epochs each machine has advertised up while the
    /// wrapper still holds it down.
    up_streak: Vec<u64>,
    /// Whether this epoch's health has been folded in already; health is
    /// constant within an epoch, so the fold must run exactly once.
    tracked_this_epoch: bool,
    /// Whether this epoch's effective health equals the advertised
    /// health, so the fleet's route index (built over the advertised
    /// health) still answers for the inner policy. Transient: a restored
    /// wrapper starts at `false` and its inner policy scans until the
    /// next fold.
    index_valid: bool,
    holds: u64,
}

impl<P: RoutePolicy> std::fmt::Debug for FailoverPolicy<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailoverPolicy")
            .field("inner", &self.inner.name())
            .field("recovery_epochs", &self.recovery_epochs)
            .field("holds", &self.holds)
            .finish_non_exhaustive()
    }
}

impl<P: RoutePolicy> FailoverPolicy<P> {
    /// Wraps `inner`, requiring `recovery_epochs` consecutive up
    /// heartbeats before a recovered machine re-enters rotation.
    pub fn new(inner: P, recovery_epochs: u64) -> FailoverPolicy<P> {
        FailoverPolicy {
            inner,
            recovery_epochs,
            effective: Vec::new(),
            up_streak: Vec::new(),
            tracked_this_epoch: false,
            index_valid: false,
            holds: 0,
        }
    }

    /// Times a recovered machine was held out of rotation for at least
    /// one epoch by the hysteresis.
    pub fn holds(&self) -> u64 {
        self.holds
    }

    /// Folds the advertised health into the effective health the inner
    /// policy will see, applying the recovery hysteresis. Runs at most
    /// once per epoch: the first `route` (or a route-less `end_epoch`)
    /// triggers it, `end_epoch` re-arms it.
    fn track(&mut self, health: &[HealthState]) {
        if self.tracked_this_epoch {
            return;
        }
        self.tracked_this_epoch = true;
        if self.effective.len() != health.len() {
            self.effective = health.to_vec();
            self.up_streak = vec![0; health.len()];
        }
        for (m, &observed) in health.iter().enumerate() {
            match observed {
                HealthState::Down => {
                    self.effective[m] = HealthState::Down;
                    self.up_streak[m] = 0;
                }
                state => {
                    if self.effective[m] == HealthState::Down {
                        // Recovering: count the streak before re-entry.
                        self.up_streak[m] += 1;
                        if self.up_streak[m] > self.recovery_epochs {
                            self.effective[m] = state;
                        } else if self.up_streak[m] == 1 {
                            self.holds += 1;
                        }
                    } else {
                        self.effective[m] = state;
                    }
                }
            }
        }
        self.index_valid = self.effective == health;
    }
}

impl<P: RoutePolicy> RoutePolicy for FailoverPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, tenant: usize, view: &FleetView<'_>) -> usize {
        self.track(view.health);
        let masked = FleetView {
            health: &self.effective,
            index: view.index.filter(|_| self.index_valid),
            ..*view
        };
        self.inner.route(tenant, &masked)
    }

    fn end_epoch(&mut self, view: &FleetView<'_>) {
        self.track(view.health);
        let masked = FleetView {
            health: &self.effective,
            index: view.index.filter(|_| self.index_valid),
            ..*view
        };
        self.inner.end_epoch(&masked);
        self.tracked_this_epoch = false;
    }

    fn save_state(&self, enc: &mut dimetrodon_ckpt::Enc) {
        enc.seq_len(self.effective.len());
        for &state in &self.effective {
            enc.u8(state.encode_tag());
        }
        enc.u64_slice(&self.up_streak);
        enc.bool(self.tracked_this_epoch);
        enc.u64(self.holds);
        self.inner.save_state(enc);
    }

    fn restore_state(
        &mut self,
        dec: &mut dimetrodon_ckpt::Dec<'_>,
    ) -> Result<(), dimetrodon_ckpt::CkptError> {
        let machines = dec.seq_len()?;
        let mut effective = Vec::with_capacity(machines.min(1 << 20));
        for _ in 0..machines {
            effective.push(HealthState::from_tag(dec.u8()?)?);
        }
        let up_streak = dec.u64_vec()?;
        if up_streak.len() != effective.len() {
            return Err(dimetrodon_ckpt::CkptError::Malformed(format!(
                "failover wrapper with {} effective states but {} up-streaks",
                effective.len(),
                up_streak.len()
            )));
        }
        self.effective = effective;
        self.up_streak = up_streak;
        self.tracked_this_epoch = dec.bool()?;
        self.holds = dec.u64()?;
        self.inner.restore_state(dec)
    }
}

/// The policy variants the fleet experiment compares. A plain enum so
/// CSV rows, journal lines, and CLI flags all name the same set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`LeastLoaded`].
    LeastLoaded,
    /// [`CoolestFirst`].
    CoolestFirst,
    /// [`PinnedMigrate`].
    PinnedMigrate,
}

impl PolicyKind {
    /// Every variant, in the order the comparison runs them.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::RoundRobin,
        PolicyKind::LeastLoaded,
        PolicyKind::CoolestFirst,
        PolicyKind::PinnedMigrate,
    ];

    /// Stable name, identical to the built policy's
    /// [`RoutePolicy::name`].
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::RoundRobin => "round-robin",
            PolicyKind::LeastLoaded => "least-loaded",
            PolicyKind::CoolestFirst => "coolest-first",
            PolicyKind::PinnedMigrate => "pinned-migrate",
        }
    }

    /// Parses a stable name back into the variant.
    pub fn parse(name: &str) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Builds a fresh policy instance for a run over `config`.
    pub fn build(self, config: &FleetConfig) -> Box<dyn RoutePolicy> {
        match self {
            PolicyKind::RoundRobin => Box::new(RoundRobin::default()),
            PolicyKind::LeastLoaded => Box::new(LeastLoaded),
            PolicyKind::CoolestFirst => Box::new(CoolestFirst),
            PolicyKind::PinnedMigrate => Box::new(PinnedMigrate::new(
                config.tenants,
                config.machines,
                config.migration_hysteresis_celsius,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ALL_UP: [HealthState; 3] = [HealthState::Up; 3];

    fn view<'a>(
        backlog: &'a [f64],
        temps: &'a [f64],
        tenant_demand: &'a [f64],
    ) -> FleetView<'a> {
        FleetView {
            backlog_cpu_s: backlog,
            temps_celsius: temps,
            tenant_demand_cpu_s: tenant_demand,
            health: &ALL_UP[..backlog.len().min(ALL_UP.len())],
            index: None,
        }
    }

    fn view_with_health<'a>(
        backlog: &'a [f64],
        temps: &'a [f64],
        tenant_demand: &'a [f64],
        health: &'a [HealthState],
    ) -> FleetView<'a> {
        FleetView {
            backlog_cpu_s: backlog,
            temps_celsius: temps,
            tenant_demand_cpu_s: tenant_demand,
            health,
            index: None,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut policy = RoundRobin::default();
        let v = view(&[0.0; 3], &[0.0; 3], &[]);
        let picks: Vec<usize> = (0..7).map(|_| policy.route(0, &v)).collect();
        assert_eq!(picks, [0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn least_loaded_picks_min_backlog_lowest_index_on_ties() {
        let mut policy = LeastLoaded;
        assert_eq!(policy.route(0, &view(&[2.0, 0.5, 0.5], &[0.0; 3], &[])), 1);
        assert_eq!(policy.route(0, &view(&[1.0, 1.0, 1.0], &[0.0; 3], &[])), 0);
    }

    #[test]
    fn coolest_first_picks_min_temperature() {
        let mut policy = CoolestFirst;
        assert_eq!(policy.route(0, &view(&[0.0; 3], &[44.0, 39.5, 41.0], &[])), 1);
    }

    #[test]
    fn pinned_migrate_moves_the_heaviest_tenant_off_the_hot_machine() {
        // 4 tenants over 2 machines: tenants 0,2 home on machine 0;
        // 1,3 on machine 1. Machine 0 runs hot; tenant 2 is heavier.
        let mut policy = PinnedMigrate::new(4, 2, 1.0);
        assert_eq!(policy.home_of(0), 0);
        assert_eq!(policy.home_of(2), 0);
        let demand = [1.0, 0.2, 5.0, 0.1];
        policy.end_epoch(&view(&[0.0; 2], &[50.0, 40.0], &demand));
        assert_eq!(policy.migrations(), 1);
        assert_eq!(policy.home_of(2), 1, "heaviest hot tenant moved to the coolest");
        assert_eq!(policy.home_of(0), 0, "lighter tenant stays");

        // Inside hysteresis: nothing moves.
        policy.end_epoch(&view(&[0.0; 2], &[40.4, 40.0], &demand));
        assert_eq!(policy.migrations(), 1);
    }

    #[test]
    fn every_policy_skips_machines_advertised_down() {
        let health = [HealthState::Up, HealthState::Down, HealthState::Up];
        let backlog = [5.0, 0.0, 9.0];
        let temps = [45.0, 20.0, 50.0];
        let v = view_with_health(&backlog, &temps, &[], &health);

        // The dead machine has both the least backlog and the coolest
        // (stale) temperature — exactly the trap argmin must not fall in.
        assert_eq!(LeastLoaded.route(0, &v), 0);
        assert_eq!(CoolestFirst.route(0, &v), 0);

        let mut rr = RoundRobin::default();
        let picks: Vec<usize> = (0..4).map(|_| rr.route(0, &v)).collect();
        assert_eq!(picks, [0, 2, 0, 2], "round robin cycles over survivors");
    }

    #[test]
    fn degraded_machines_stay_routable() {
        let health = [HealthState::Degraded, HealthState::Up, HealthState::Up];
        let backlog = [0.0, 3.0, 3.0];
        let v = view_with_health(&backlog, &[0.0; 3], &[], &health);
        assert_eq!(
            LeastLoaded.route(0, &v),
            0,
            "degraded is a trust signal, not an exclusion"
        );
    }

    #[test]
    fn pinned_migrate_fails_over_while_the_home_is_down_without_rehoming() {
        let mut policy = PinnedMigrate::new(2, 3, 10.0);
        assert_eq!(policy.home_of(1), 1);
        let health = [HealthState::Up, HealthState::Down, HealthState::Up];
        let v = view_with_health(&[0.0; 3], &[40.0; 3], &[0.0, 0.0], &health);
        assert_eq!(policy.route(1, &v), 2, "next routable machine after the home");
        assert_eq!(policy.home_of(1), 1, "affinity survives the outage");
        let recovered = view(&[0.0; 3], &[40.0; 3], &[0.0, 0.0]);
        assert_eq!(policy.route(1, &recovered), 1, "home resumes when back up");
    }

    #[test]
    fn failover_wrapper_holds_recovered_machines_for_the_hysteresis() {
        let mut policy = FailoverPolicy::new(LeastLoaded, 2);
        let backlog = [0.0, 5.0, 5.0];
        let down = [HealthState::Down, HealthState::Up, HealthState::Up];
        let up = ALL_UP;

        // Epoch 1: machine 0 down; wrapper must exclude it.
        let v = view_with_health(&backlog, &[0.0; 3], &[], &down);
        assert_eq!(policy.route(0, &v), 1);
        policy.end_epoch(&v);

        // Epochs 2–3: machine 0 advertises up again, but the wrapper
        // holds it down until the streak exceeds 2 epochs.
        for _ in 0..2 {
            let v = view_with_health(&backlog, &[0.0; 3], &[], &up);
            assert_eq!(policy.route(0, &v), 1, "held during the recovery streak");
            policy.end_epoch(&v);
        }
        assert_eq!(policy.holds(), 1, "one recovery event was held");

        // Epoch 4: streak complete, the machine re-enters rotation.
        let v = view_with_health(&backlog, &[0.0; 3], &[], &up);
        assert_eq!(policy.route(0, &v), 0);
    }

    #[test]
    fn failover_wrapper_withholds_the_index_during_a_recovery_hold() {
        // Machine 0 returns from down with the least backlog and the
        // lowest temperature, so the index built over the advertised
        // health names it at once; the wrapper must not pass that answer
        // through while it still holds machine 0 out of rotation.
        let backlog = [0.0, 5.0, 5.0];
        let temps = [30.0, 40.0, 40.0];
        let down = [HealthState::Down, HealthState::Up, HealthState::Up];
        let mut up_index = RouteIndex::default();
        up_index.rebuild(&backlog, &temps, &ALL_UP);
        assert_eq!((up_index.least_loaded(), up_index.coolest), (0, 0));

        let inners: [Box<dyn RoutePolicy>; 2] = [Box::new(LeastLoaded), Box::new(CoolestFirst)];
        for inner in inners {
            let name = inner.name();
            let mut policy = FailoverPolicy::new(inner, 2);
            let mut picks = Vec::new();
            for health in [&down, &ALL_UP, &ALL_UP, &ALL_UP] {
                let mut index = RouteIndex::default();
                index.rebuild(&backlog, &temps, health);
                let v = FleetView {
                    index: Some(&index),
                    ..view_with_health(&backlog, &temps, &[], health)
                };
                picks.push(policy.route(0, &v));
                policy.end_epoch(&view_with_health(&backlog, &temps, &[], health));
            }
            assert_eq!(
                picks,
                [1, 1, 1, 0],
                "{name}: held for two epochs, then back"
            );
        }
    }

    /// Backlog and temperature values with exact ties, signed zeros
    /// included, so the tie rule is exercised on most draws.
    const KEYS: [f64; 4] = [0.0, -0.0, 1.0, 2.5];
    const DEMANDS: [f64; 3] = [0.5, 1.0, 2.5];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Through 50 landings, each adding demand to the index's own
        /// least-loaded pick, the index answers exactly as the scan over
        /// the same slices: any fleet size, any health mix, all-down
        /// included.
        #[test]
        fn route_index_agrees_with_the_scan_after_every_landing(
            n in prop_oneof![1usize..=300, Just(1usize), Just(2usize), Just(256usize)],
            health_mode in 0u8..4,
            health_codes in prop::collection::vec(0u8..3, 300),
            backlog_keys in prop::collection::vec(0usize..4, 300),
            temp_keys in prop::collection::vec(0usize..4, 300),
            demand_keys in prop::collection::vec(0usize..3, 50),
        ) {
            let health: Vec<HealthState> = health_codes[..n]
                .iter()
                .map(|&code| match (health_mode, code) {
                    (0, _) => HealthState::Down,
                    (1, _) => HealthState::Up,
                    (_, 0) => HealthState::Up,
                    (_, 1) => HealthState::Degraded,
                    _ => HealthState::Down,
                })
                .collect();
            let mut backlog: Vec<f64> = backlog_keys[..n].iter().map(|&k| KEYS[k]).collect();
            let temps: Vec<f64> = temp_keys[..n].iter().map(|&k| KEYS[k]).collect();
            let mut index = RouteIndex::default();
            index.rebuild(&backlog, &temps, &health);
            for landings in 0..=demand_keys.len() {
                let v = FleetView {
                    index: Some(&index),
                    ..view_with_health(&backlog, &temps, &[], &health)
                };
                let machine = v.least_loaded();
                prop_assert_eq!(
                    machine,
                    argmin_routable(&backlog, &health),
                    "least-loaded after {} landings", landings
                );
                prop_assert_eq!(
                    v.coolest(),
                    argmin_routable(&temps, &health),
                    "coolest after {} landings", landings
                );
                if let Some(&key) = demand_keys.get(landings) {
                    backlog[machine] += DEMANDS[key];
                    index.update(machine, &backlog);
                }
            }
        }
    }

    #[test]
    fn failover_wrapper_is_a_pass_through_without_failures() {
        let mut wrapped = FailoverPolicy::new(RoundRobin::default(), 3);
        let mut bare = RoundRobin::default();
        let v = view(&[0.0; 3], &[0.0; 3], &[]);
        for _ in 0..7 {
            assert_eq!(wrapped.route(0, &v), bare.route(0, &v));
        }
        assert_eq!(wrapped.name(), "round-robin", "naming is transparent");
        assert_eq!(wrapped.holds(), 0);
    }

    #[test]
    fn kind_names_round_trip_and_match_built_policies() {
        let config = FleetConfig::rack_scale(4, 9);
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.build(&config).name(), kind.name());
        }
        assert_eq!(PolicyKind::parse("nope"), None);
    }
}
