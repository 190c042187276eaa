//! Timing wrappers around the layers' public traits, and the summary
//! statistics the traced run reports. Nothing here reaches inside a
//! crate: every timer sits on a public call boundary.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use dimetrodon_ckpt::{CkptError, Dec, Enc};
use dimetrodon_fleet::{FleetView, RoutePolicy};
use dimetrodon_machine::Machine;
use dimetrodon_sched::{Decision, SchedHook, ScheduleContext};
use dimetrodon_sim_core::SimTime;

/// Nanoseconds elapsed since `start`.
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// A [`RoutePolicy`] that times every `route` call of the policy it
/// wraps and passes everything else through untouched.
pub struct TimedRoute<P: RoutePolicy> {
    /// The policy under measurement.
    pub inner: P,
    /// `route` calls made (attempts, retries included).
    pub calls: u64,
    /// Host time spent inside `route`.
    pub ns: u64,
}

impl<P: RoutePolicy> TimedRoute<P> {
    pub fn new(inner: P) -> Self {
        TimedRoute {
            inner,
            calls: 0,
            ns: 0,
        }
    }
}

impl<P: RoutePolicy> RoutePolicy for TimedRoute<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, tenant: usize, view: &FleetView<'_>) -> usize {
        let start = Instant::now();
        let machine = self.inner.route(tenant, view);
        self.ns += ns_since(start);
        self.calls += 1;
        machine
    }

    fn end_epoch(&mut self, view: &FleetView<'_>) {
        self.inner.end_epoch(view);
    }

    fn save_state(&self, enc: &mut Enc) {
        self.inner.save_state(enc);
    }

    fn restore_state(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError> {
        self.inner.restore_state(dec)
    }
}

/// Counters a [`TimedHook`] shares with the code that installed it.
#[derive(Debug, Default)]
pub struct HookCounters {
    pub calls: Cell<u64>,
    pub ns: Cell<u64>,
    pub injects: Cell<u64>,
}

/// A [`SchedHook`] that times `on_schedule` of the hook it wraps.
#[derive(Debug, Clone)]
pub struct TimedHook {
    pub inner: Box<dyn SchedHook>,
    pub counters: Rc<HookCounters>,
}

impl SchedHook for TimedHook {
    fn on_schedule(&mut self, ctx: &ScheduleContext<'_>) -> Decision {
        let start = Instant::now();
        let decision = self.inner.on_schedule(ctx);
        let c = &self.counters;
        c.ns.set(c.ns.get() + ns_since(start));
        c.calls.set(c.calls.get() + 1);
        if matches!(decision, Decision::InjectIdle(_)) {
            c.injects.set(c.injects.get() + 1);
        }
        decision
    }

    fn on_tick(&mut self, now: SimTime, machine: &Machine) {
        self.inner.on_tick(now, machine);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// A tail summary: the highest whole percentile that still has at least
/// ten samples beyond it (nearest rank), so the tail is never one
/// outlier.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub percentile: u32,
    pub value: f64,
    pub samples: usize,
}

/// The [`Tail`] of `samples`; with fewer than 20 samples no percentile
/// of 50 or more has ten beyond it, and the median is reported.
pub fn tail(samples: &[f64]) -> Tail {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    for percentile in (50..=99).rev() {
        let rank = (percentile as usize * n).div_ceil(100).max(1);
        if n >= rank + 10 {
            return Tail {
                percentile,
                value: sorted[rank - 1],
                samples: n,
            };
        }
    }
    Tail {
        percentile: 50,
        value: median(samples),
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=240).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!((t.percentile, t.value), (95, 228.0));
        let samples: Vec<f64> = (1..=29).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!((t.percentile, t.value), (65, 19.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
