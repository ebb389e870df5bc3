//! Phase vocabulary for engine self-profiling.
//!
//! The simulation driver attributes wall-time to coarse phases (event
//! dispatch by kind, queue pushes, victim selection, probe overhead) by
//! calling [`PhaseTimer::switch`] at phase boundaries. The kernel defines
//! only the vocabulary and the zero-cost default; recording
//! implementations live upstream (the telemetry crate's batched
//! `PhaseProfiler`). With [`NoopPhaseTimer`] every switch monomorphizes
//! to nothing, so un-profiled runs pay no cost at all.

/// Number of distinct [`Phase`] values (array-index bound).
pub const PHASE_COUNT: usize = 8;

/// A coarse wall-time attribution bucket inside the simulation driver.
///
/// `EngineLoop` is the residual: future-event-set pop/peek, scheduling
/// bookkeeping, and everything between the end of one handler region and
/// the start of the next. The remaining phases bracket the driver's
/// per-event work so the engine's own hot loop needs no instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Event-queue pop/peek and inter-handler residual time.
    EngineLoop,
    /// Handling packet-creation events (source arrivals).
    Create,
    /// Handling packet arrival at a node (buffering, mixing, forwarding).
    Arrive,
    /// Handling delay-timer release events (departures).
    Release,
    /// Scheduling future events into the event queue.
    QueuePush,
    /// Selecting a preemption victim in a full RCAD buffer.
    VictimSelect,
    /// Invoking observation probes (telemetry/trace/privacy hooks).
    Probe,
    /// Sharded-runner synchronization: waiting at the conservative
    /// time-window barrier and merging cross-shard handoffs. Serial runs
    /// never enter this phase.
    BarrierWait,
}

impl Phase {
    /// All phases, in index order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::EngineLoop,
        Phase::Create,
        Phase::Arrive,
        Phase::Release,
        Phase::QueuePush,
        Phase::VictimSelect,
        Phase::Probe,
        Phase::BarrierWait,
    ];

    /// Dense index of this phase (`0..PHASE_COUNT`).
    #[must_use]
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable display name (used in tables, JSON, and Chrome traces).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Phase::EngineLoop => "engine_loop",
            Phase::Create => "create",
            Phase::Arrive => "arrive",
            Phase::Release => "release",
            Phase::QueuePush => "queue_push",
            Phase::VictimSelect => "victim_select",
            Phase::Probe => "probe",
            Phase::BarrierWait => "barrier_wait",
        }
    }
}

/// Receiver for phase-boundary notifications from the driver.
///
/// `switch(phase)` declares "from now on, wall-time belongs to `phase`"
/// and returns the phase that was current before the call, so call sites
/// can bracket a region and restore the outer attribution:
///
/// ```
/// use tempriv_sim::profile::{NoopPhaseTimer, Phase, PhaseTimer};
///
/// let mut timer = NoopPhaseTimer;
/// let prev = timer.switch(Phase::VictimSelect);
/// // ... victim scan ...
/// timer.switch(prev);
/// ```
///
/// **Phase-restore rule.** The engine restores every bracketed region
/// with `timer.switch(prev)`, so a recording timer must return the phase
/// it was actually in before the call. A composite must report a
/// previous phase it tracked itself: the pair below reports its first
/// member's, so a pair whose first member is absent or non-recording
/// (reporting [`Phase::EngineLoop`] for everything) would send each
/// nested restore back to `EngineLoop` in the second member.
///
/// Implementations must be pure observers: no RNG, no scheduling, no
/// effect on simulation state. Timing is wall-clock and therefore
/// nondeterministic; it must never leak into outcomes or digests.
pub trait PhaseTimer {
    /// Attributes subsequent wall-time to `phase`; returns the previous
    /// phase. The default does nothing and reports `EngineLoop`.
    #[inline]
    fn switch(&mut self, phase: Phase) -> Phase {
        let _ = phase;
        Phase::EngineLoop
    }
}

/// The zero-cost default timer: every switch compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopPhaseTimer;

impl PhaseTimer for NoopPhaseTimer {}

impl<T: PhaseTimer + ?Sized> PhaseTimer for &mut T {
    #[inline]
    fn switch(&mut self, phase: Phase) -> Phase {
        (**self).switch(phase)
    }
}

/// Fans one phase switch out to two timers (e.g. a wall-clock profiler
/// paired with an allocation-scope timer). The pair reports the first
/// timer's notion of the previous phase; both receive every switch, so
/// their attributions stay aligned as long as the first member records
/// (see the phase-restore rule on [`PhaseTimer`]).
impl<A: PhaseTimer, B: PhaseTimer> PhaseTimer for (A, B) {
    #[inline]
    fn switch(&mut self, phase: Phase) -> Phase {
        let prev = self.0.switch(phase);
        let _ = self.1.switch(phase);
        prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_are_dense_and_named() {
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), i);
            assert!(!phase.name().is_empty());
        }
        let mut names: Vec<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PHASE_COUNT, "phase names are unique");
    }

    #[test]
    fn noop_timer_reports_engine_loop() {
        let mut timer = NoopPhaseTimer;
        assert_eq!(timer.switch(Phase::Probe), Phase::EngineLoop);
        let by_ref: &mut NoopPhaseTimer = &mut timer;
        assert_eq!(by_ref.switch(Phase::Create), Phase::EngineLoop);
    }
}
