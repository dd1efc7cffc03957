//! The clocked-stage abstraction and the cycle loop that drives it.
//!
//! Besides plain per-cycle ticking, the loop supports **event-horizon
//! fast-forward**: stages that can prove they are quiescent report the
//! earliest future cycle at which they might change state
//! ([`Clocked::next_event`]), and the loop jumps the clock straight to
//! the earliest such horizon, letting each stage bulk-charge the skipped
//! cycles ([`Clocked::skip`]) so that every counter a run reports is
//! bitwise identical to the naive cycle-by-cycle loop. A loop built with
//! [`CycleLoop::with_skip`]`(false)` ticks every cycle, keeping the naive
//! loop alive as a differential oracle.

/// One pipeline stage of a cycle-level simulator.
///
/// A stage is ticked exactly once per simulated cycle, in the order it was
/// registered with the [`CycleLoop`]. `B` is the shared bus — typically the
/// whole system struct — through which stages exchange state. `now` is the
/// cycle number being simulated (the value *before* the loop advances its
/// clock for this cycle).
pub trait Clocked<B: ?Sized> {
    /// Advances this stage by one cycle.
    fn tick(&mut self, now: u64, bus: &mut B);

    /// The earliest future cycle at which this stage might change state.
    ///
    /// Returning `Some(t)` with `t > now` is a promise: every tick in
    /// `[now, t)` is a *null tick* — its entire effect on the bus (including
    /// idle/stall counters that advance every waiting cycle) is exactly
    /// reproduced by one [`Clocked::skip`] call over the same range.
    /// `Some(u64::MAX)` means the stage generates no event of its own and
    /// only reacts to other stages. Returning `None` means "tick me every
    /// cycle": the stage is (or might be) actively changing state and the
    /// loop must not fast-forward past it. The default is `None`, so stages
    /// that never opt in are always ticked naively — safe by construction.
    fn next_event(&self, now: u64, bus: &B) -> Option<u64> {
        let _ = (now, bus);
        None
    }

    /// Bulk-charges the effect of the null ticks in `[from, to)`.
    ///
    /// Called only for ranges this stage itself declared quiescent via
    /// [`Clocked::next_event`] (the loop never skips past a stage's
    /// horizon). Implementations must mutate the bus exactly as `to - from`
    /// consecutive ticks would have. The default does nothing, matching the
    /// default `next_event` of `None` (which never lets a skip happen).
    fn skip(&mut self, from: u64, to: u64, bus: &mut B) {
        let _ = (from, to, bus);
    }

    /// Short name used in progress and diagnostic output.
    fn name(&self) -> &'static str {
        "stage"
    }
}

/// Deadlock watchdog configuration for a [`CycleLoop`].
///
/// Completion and progress are sampled at check boundaries, the multiples
/// of `check_interval` (sampling them is allowed to be expensive). A
/// horizon jump crosses boundaries without stopping when completion does
/// not hold before it — completion reads only state that null ticks leave
/// alone, so it stays false at every boundary crossed — and the next
/// sample is the first boundary at or after the landing. If the progress
/// measure stays flat for `idle_budget` consecutive *ticked* cycles while
/// the run is not complete, the loop panics with the diagnostic text
/// supplied by the caller — a stall is always a bug in either the model
/// or the program being simulated, never a condition to limp through.
/// Cycles crossed by a horizon jump count as progress (the jump proves an
/// event is scheduled), subject to the [`EVENT_LOOP_LEASH`] backstop.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Watchdog {
    /// Cycles between completion/progress samples.
    pub check_interval: u64,
    /// Consecutive no-progress cycles tolerated before panicking.
    pub idle_budget: u64,
}

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog {
            check_interval: 64,
            idle_budget: 2_000_000,
        }
    }
}

/// Backstop multiplier for event-looping runs: even when every no-progress
/// window is crossed by horizon jumps (which normally do not charge the
/// idle budget), a run whose progress measure stays flat for
/// `idle_budget × EVENT_LOOP_LEASH` cycles is declared stalled. This
/// catches pathological self-sustaining event loops (e.g. a DRAM refresh
/// timer firing forever over a wedged queue) that the naive loop would
/// also have flagged, just sooner.
pub(crate) const EVENT_LOOP_LEASH: u64 = 64;

/// One fast-forward decision taken by the loop, for telemetry/diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct JumpRecord {
    /// Cycle the jump started from.
    pub from: u64,
    /// Cycle the jump landed on (exclusive end of the skipped range).
    pub to: u64,
    /// Name of the stage (or `"check boundary"`, `"watchdog leash"`,
    /// `"drive bound"`) that bounded the horizon.
    pub stage: &'static str,
}

/// Drives a set of [`Clocked`] stages until a completion predicate holds.
///
/// The loop owns the three pieces of bookkeeping every hand-rolled cycle
/// loop otherwise reimplements: stage ordering, the periodic completion
/// check, and the stalled-simulation watchdog. Stages run in registration
/// order within a cycle; the bus's notion of "current cycle" is whatever
/// the caller passes as `start` plus the number of completed cycles.
///
/// When fast-forward is enabled (the default), the loop asks every stage
/// for its [`Clocked::next_event`] before ticking a cycle. If all stages
/// report a future horizon, the clock jumps to the earliest one. A jump
/// past the next watchdog check boundary first evaluates completion once:
/// while the run is not complete it goes event to event (completion
/// provably stays false at every boundary it crosses), and once it is,
/// the jump stops at the boundary, so the run ends on the same cycle, with
/// identical bus state, as the naive loop — the two modes are bitwise
/// identical in everything they report.
pub struct CycleLoop<B: ?Sized> {
    stages: Vec<Box<dyn Clocked<B>>>,
    watchdog: Watchdog,
    skip: bool,
    /// Index the next horizon probe starts from. Move-to-front heuristic:
    /// the stage that vetoed the last jump is probed first, so an actively
    /// busy stage (usually the NoC) rejects fast-forward in O(1) per cycle.
    probe_from: usize,
    jumps: u64,
    skipped_cycles: u64,
    last_jump: Option<JumpRecord>,
}

/// Consecutive vetoed probes before the loop starts spacing probes out.
/// On saturated workloads a busy stage vetoes every cycle for thousands of
/// cycles straight; probing each one buys nothing and costs a `next_event`
/// sweep. After this many consecutive vetoes the loop probes once every
/// `streak / VETO_BACKOFF_AFTER` cycles (capped at [`MAX_PROBE_HOLDOFF`]),
/// ticking in between — always safe, since ticking is the oracle the skip
/// path is measured against; the only cost is jumping a few cycles later
/// into a quiescent stretch.
const VETO_BACKOFF_AFTER: u32 = 8;

/// Upper bound on the probe hold-off, so a long-saturated run still
/// notices a quiescent stretch within 16 cycles of it starting.
const MAX_PROBE_HOLDOFF: u64 = 15;

impl<B: ?Sized> Default for CycleLoop<B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<B: ?Sized> CycleLoop<B> {
    /// Creates an empty loop with the default `Watchdog` and fast-forward on.
    pub fn new() -> Self {
        CycleLoop {
            stages: Vec::new(),
            watchdog: Watchdog::default(),
            skip: true,
            probe_from: 0,
            jumps: 0,
            skipped_cycles: 0,
            last_jump: None,
        }
    }

    /// Sets fast-forward for this loop; `false` is the naive per-cycle
    /// oracle. Tests and differential harnesses use this to run both
    /// modes inside one process.
    pub fn with_skip(mut self, enabled: bool) -> Self {
        self.skip = enabled;
        self
    }

    /// Registers a stage; stages tick in registration order each cycle.
    pub fn stage(mut self, stage: impl Clocked<B> + 'static) -> Self {
        self.stages.push(Box::new(stage));
        self
    }

    /// Number of horizon jumps taken so far, over every drive of this loop.
    pub fn jumps(&self) -> u64 {
        self.jumps
    }

    /// Total cycles crossed by horizon jumps instead of ticking.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Probes every stage for its event horizon. Returns the earliest
    /// horizon and the name of the stage that reported it, or `None` if
    /// any stage demands a tick or any horizon is non-future (a contract
    /// violation, tolerated as "tick").
    fn horizon(&mut self, now: u64, bus: &B) -> Option<(u64, &'static str)> {
        let n = self.stages.len();
        let mut best = u64::MAX;
        let mut who = usize::MAX;
        for k in 0..n {
            let i = (self.probe_from + k) % n;
            match self.stages[i].next_event(now, bus) {
                None => {
                    self.probe_from = i;
                    return None;
                }
                Some(t) => {
                    debug_assert!(
                        t > now,
                        "stage '{}' promised non-future event {t} at cycle {now}",
                        self.stages[i].name()
                    );
                    if t <= now {
                        return None;
                    }
                    if t < best {
                        best = t;
                        who = i;
                    }
                }
            }
        }
        Some((best, self.stages.get(who).map_or("", |s| s.name())))
    }

    /// Diagnostic suffix describing the last fast-forward decision.
    fn horizon_note(&self) -> String {
        match self.last_jump {
            Some(j) => format!(
                "\nlast horizon decision: jumped cycle {} -> {} (bounded by '{}'); \
                 {} jumps, {} cycles skipped this run",
                j.from, j.to, j.stage, self.jumps, self.skipped_cycles
            ),
            None => "\nlast horizon decision: none (no fast-forward jump this run)".to_string(),
        }
    }

    /// Runs the loop starting at cycle `start` and returns the first cycle
    /// at which `done` held (the bus clock should then equal that value).
    ///
    /// * `done` — sampled once at entry (an already-complete bus returns
    ///   `start` without ticking any stage) and then at every check
    ///   boundary the loop stops at; once it returns true the loop exits.
    ///   It is also evaluated once before each horizon jump that would
    ///   cross a boundary, so, like `run_until`'s `stop`, it must depend
    ///   only on state that null ticks leave alone: then a jump only
    ///   crosses boundaries where `done` is false, and the run ends on the
    ///   same cycle as the naive loop.
    /// * `progress` — a monotonic measure of useful work (e.g. total MAC
    ///   operations). Sampled at the same boundaries as `done`; if it is
    ///   unchanged for longer than `idle_budget` ticked cycles (or
    ///   `idle_budget × EVENT_LOOP_LEASH` total cycles, counting horizon
    ///   jumps) the loop panics.
    /// * `diagnose` — builds the panic message for a stalled run; it should
    ///   dump enough component state to localise the deadlock. The loop
    ///   appends its last horizon decision to the message.
    ///
    /// # Panics
    ///
    /// Panics with the `diagnose` text when the watchdog trips.
    pub fn run(
        &mut self,
        bus: &mut B,
        start: u64,
        mut done: impl FnMut(&B) -> bool,
        progress: impl FnMut(&B) -> u64,
        diagnose: impl FnOnce(&B, u64) -> String,
    ) -> u64 {
        if done(bus) {
            return start;
        }
        self.drive(bus, start, |_| false, done, progress, diagnose)
    }

    /// [`CycleLoop::run`] with an exact stop: `stop` is evaluated after
    /// every ticked cycle, not at the next check boundary, and the loop
    /// returns the cycle after the one whose tick made it hold (the bus
    /// clock should then equal that value) — no null tick is simulated
    /// past the event. For a driver that must hand the bus to someone
    /// else at a precise cycle. `stop` must be cheap and must depend only
    /// on state that null ticks leave alone, so a jump can never cross
    /// it; the horizon probe keeps its veto back-off, and `progress` and
    /// `diagnose` feed the same watchdog as in `run`.
    ///
    /// # Panics
    ///
    /// Panics with the `diagnose` text when the watchdog trips.
    pub fn run_until(
        &mut self,
        bus: &mut B,
        start: u64,
        stop: impl FnMut(&B) -> bool,
        progress: impl FnMut(&B) -> u64,
        diagnose: impl FnOnce(&B, u64) -> String,
    ) -> u64 {
        self.drive(bus, start, stop, |_| false, progress, diagnose)
    }

    /// Advances the bus from cycle `start` to exactly cycle `to`: jumps
    /// are capped at `to` instead of at check boundaries, and a machine
    /// with no scheduled event crosses the whole stretch in one jump.
    /// Nothing is sampled — a bounded drive cannot hang — so an idle bus
    /// costs its events, not its cycles. With fast-forward off every
    /// cycle of `[start, to)` is ticked.
    pub fn advance(&mut self, bus: &mut B, start: u64, to: u64) {
        let mut pace = Pace::default();
        let mut now = start;
        while now < to {
            now = self
                .step(bus, now, JumpCap::Bound(to), &mut |_| false, &mut pace)
                .0;
        }
    }

    /// One iteration of a drive at cycle `now`: a horizon jump capped by
    /// `cap` (which may evaluate `done`) when fast-forward is on, the probe
    /// is not held off and every stage allows it; otherwise one tick of
    /// every stage. Returns the new cycle and whether the stages were
    /// ticked.
    #[inline]
    fn step(
        &mut self,
        bus: &mut B,
        now: u64,
        cap: JumpCap,
        done: &mut impl FnMut(&B) -> bool,
        pace: &mut Pace,
    ) -> (u64, bool) {
        if self.skip && pace.probe_holdoff == 0 {
            let jump = self
                .horizon(now, bus)
                .and_then(|(best, who)| cap.limit(best, who, || done(bus)));
            if let Some((target, stage)) = jump {
                pace.veto_streak = 0;
                for s in &mut self.stages {
                    s.skip(now, target, bus);
                }
                self.jumps += 1;
                self.skipped_cycles += target - now;
                self.last_jump = Some(JumpRecord {
                    from: now,
                    to: target,
                    stage,
                });
                return (target, false);
            }
            pace.veto_streak = pace.veto_streak.saturating_add(1);
            if pace.veto_streak >= VETO_BACKOFF_AFTER {
                pace.probe_holdoff =
                    u64::from(pace.veto_streak / VETO_BACKOFF_AFTER).min(MAX_PROBE_HOLDOFF);
            }
        } else {
            pace.probe_holdoff = pace.probe_holdoff.saturating_sub(1);
        }
        for stage in &mut self.stages {
            stage.tick(now, bus);
        }
        (now + 1, true)
    }

    /// The watchdog-supervised drive behind [`CycleLoop::run`] (`done`
    /// sampled at check boundaries) and [`CycleLoop::run_until`] (`stop`
    /// evaluated after every tick).
    ///
    /// Checks land on absolute multiples of the interval, so the first
    /// window after an unaligned `start` is shorter than the rest;
    /// idleness is charged by ticked cycles, not per check, so that short
    /// window cannot eat a full interval of the budget. Windows crossed
    /// purely by horizon jumps charge nothing (the jump proves an event is
    /// scheduled), with `flat_since` as the leashed backstop against
    /// no-progress event loops. A jump that crosses boundaries (`done` was
    /// false before it) moves the next check to the first boundary at or
    /// after its landing; it never reaches past the boundary at which the
    /// backstop trips, so the backstop trips on the cycle it would if
    /// every boundary were sampled.
    fn drive(
        &mut self,
        bus: &mut B,
        start: u64,
        mut stop: impl FnMut(&B) -> bool,
        mut done: impl FnMut(&B) -> bool,
        mut progress: impl FnMut(&B) -> u64,
        diagnose: impl FnOnce(&B, u64) -> String,
    ) -> u64 {
        let mut now = start;
        let mut last_progress = progress(bus);
        let interval = self.watchdog.check_interval;
        let leash = self.watchdog.idle_budget.saturating_mul(EVENT_LOOP_LEASH);
        // The first boundary at least `leash` cycles after `since`: where
        // the backstop trips if progress stays flat from `since` on.
        let trips_at = |since: u64| {
            since
                .saturating_add(leash)
                .div_ceil(interval)
                .saturating_mul(interval)
        };
        let mut next_check = (start / interval + 1) * interval;
        let mut idle_cycles: u64 = 0;
        let mut ticked_since_check: u64 = 0;
        let mut flat_since = start;
        let mut trip_check = trips_at(start);
        let mut pace = Pace::default();
        loop {
            let cap = JumpCap::Watched {
                check: next_check,
                leash: trip_check.max(next_check),
            };
            let (next, ticked) = self.step(bus, now, cap, &mut done, &mut pace);
            now = next;
            if ticked {
                ticked_since_check += 1;
                if stop(bus) {
                    break now;
                }
            }
            if now > next_check {
                debug_assert!(
                    !done(bus),
                    "a jump to cycle {now} crossed the completion of a `done` \
                     that null ticks changed"
                );
                next_check = now.div_ceil(interval) * interval;
            }
            if now == next_check {
                next_check += interval;
                if done(bus) {
                    break now;
                }
                let p = progress(bus);
                if p != last_progress {
                    last_progress = p;
                    idle_cycles = 0;
                    flat_since = now;
                    trip_check = trips_at(now);
                } else {
                    idle_cycles += ticked_since_check;
                    if idle_cycles >= self.watchdog.idle_budget || now - flat_since >= leash {
                        panic!(
                            "{}{}",
                            diagnose(bus, idle_cycles.max(now - flat_since)),
                            self.horizon_note()
                        );
                    }
                }
                ticked_since_check = 0;
            }
        }
    }
}

/// How far one horizon jump of a drive may reach.
#[derive(Clone, Copy)]
enum JumpCap {
    /// A watchdog-supervised drive of [`CycleLoop::run`] /
    /// [`CycleLoop::run_until`]: a jump reaches past the next check
    /// boundary `check` only while `done` is false, and then no further
    /// than `leash`, the check at which the event-loop backstop trips.
    Watched { check: u64, leash: u64 },
    /// The end of a bounded [`CycleLoop::advance`].
    Bound(u64),
}

impl JumpCap {
    /// The landing cycle for a probe whose earliest horizon is `best`
    /// (reported by stage `who`), and the name of whatever bounded it.
    /// When every stage reports `u64::MAX`, a watched drive gets `None` (a
    /// dead machine must fall back to naive ticking so the watchdog sees
    /// it exactly like the oracle), and a bounded drive jumps to its bound.
    /// `done` is evaluated at most once, and only for a jump that would
    /// cross `check`.
    fn limit(
        self,
        best: u64,
        who: &'static str,
        done: impl FnOnce() -> bool,
    ) -> Option<(u64, &'static str)> {
        let (limit, limit_name) = match self {
            JumpCap::Watched { .. } if best == u64::MAX => return None,
            JumpCap::Watched { check, .. } if best <= check || done() => (check, "check boundary"),
            JumpCap::Watched { leash, .. } => (leash, "watchdog leash"),
            JumpCap::Bound(at) => (at, "drive bound"),
        };
        Some(if best <= limit {
            (best, who)
        } else {
            (limit, limit_name)
        })
    }
}

/// Per-drive state of [`CycleLoop::step`]: the veto-streak probe back-off
/// (see [`VETO_BACKOFF_AFTER`] — on long saturated stretches the probe is
/// spaced out and the loop just ticks, bitwise identical by the tick/skip
/// contract, minus the per-cycle probe sweep).
#[derive(Default)]
struct Pace {
    veto_streak: u32,
    probe_holdoff: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A closure works as a stage, so a test needs no unit struct per
    /// pipeline step.
    impl<B: ?Sized, F: FnMut(u64, &mut B)> Clocked<B> for F {
        fn tick(&mut self, now: u64, bus: &mut B) {
            self(now, bus)
        }
    }

    impl<B: ?Sized> CycleLoop<B> {
        /// Overrides the watchdog configuration.
        fn with_watchdog(mut self, watchdog: Watchdog) -> Self {
            assert!(watchdog.check_interval > 0, "check_interval must be > 0");
            self.watchdog = watchdog;
            self
        }
    }

    /// Toy bus: a countdown that stage A decrements and stage B observes.
    struct Countdown {
        remaining: u64,
        observed: u64,
        work: u64,
    }

    struct Decrement;
    impl Clocked<Countdown> for Decrement {
        fn tick(&mut self, _now: u64, bus: &mut Countdown) {
            if bus.remaining > 0 {
                bus.remaining -= 1;
                bus.work += 1;
            }
        }
        fn name(&self) -> &'static str {
            "decrement"
        }
    }

    #[test]
    fn runs_stages_in_order_until_done() {
        let mut bus = Countdown {
            remaining: 100,
            observed: 0,
            work: 0,
        };
        let mut cl = CycleLoop::new()
            .stage(Decrement)
            .stage(|_now: u64, bus: &mut Countdown| bus.observed = bus.remaining);
        let end = cl.run(
            &mut bus,
            0,
            |b| b.remaining == 0,
            |b| b.work,
            |_, idle| format!("stalled for {idle}"),
        );
        // Completion is only sampled at multiples of the check interval.
        assert_eq!(end, 128);
        assert_eq!(bus.remaining, 0);
        assert_eq!(bus.observed, 0);
        assert_eq!(bus.work, 100);
    }

    #[test]
    fn resumes_from_nonzero_start() {
        let mut bus = Countdown {
            remaining: 10,
            observed: 0,
            work: 0,
        };
        let mut cl = CycleLoop::new().stage(Decrement);
        let end = cl.run(
            &mut bus,
            1000,
            |b| b.remaining == 0,
            |b| b.work,
            |_, idle| format!("stalled for {idle}"),
        );
        assert_eq!(end, 1024);
    }

    #[test]
    #[should_panic(expected = "no progress")]
    fn watchdog_trips_on_flat_progress() {
        let mut bus = Countdown {
            remaining: 0,
            observed: 0,
            work: 0,
        };
        let mut cl = CycleLoop::new()
            .with_watchdog(Watchdog {
                check_interval: 4,
                idle_budget: 1024,
            })
            .stage(Decrement);
        cl.run(
            &mut bus,
            0,
            |_| false,
            |b| b.work,
            |_, idle| format!("no progress for {idle} cycles"),
        );
    }

    #[test]
    fn done_at_entry_returns_start_without_ticking() {
        let mut bus = Countdown {
            remaining: 0,
            observed: 7,
            work: 0,
        };
        let mut cl = CycleLoop::new()
            .stage(Decrement)
            .stage(|_now: u64, bus: &mut Countdown| bus.observed = bus.remaining);
        let end = cl.run(
            &mut bus,
            1000,
            |b| b.remaining == 0,
            |b| b.work,
            |_, idle| format!("stalled for {idle}"),
        );
        assert_eq!(end, 1000);
        // No stage ran on the already-complete bus.
        assert_eq!(bus.observed, 7);
        assert_eq!(bus.work, 0);
    }

    #[test]
    fn unaligned_start_does_not_overcharge_idle() {
        // Starting at 1000 with a 64-cycle interval, the first check lands
        // at 1024 — a 24-cycle window. The bus makes its first progress only
        // at cycle 1024, so that window is genuinely idle; with a 64-cycle
        // budget, charging the window a full interval (the old off-by-one)
        // would trip the watchdog even though only 24 idle cycles elapsed.
        struct LateStart {
            work: u64,
        }
        let mut bus = LateStart { work: 0 };
        let mut cl = CycleLoop::new().with_watchdog(Watchdog {
            check_interval: 64,
            idle_budget: 64,
        });
        cl = cl.stage(|now: u64, bus: &mut LateStart| {
            if now >= 1024 {
                bus.work += 1;
            }
        });
        let end = cl.run(
            &mut bus,
            1000,
            |b| b.work >= 1,
            |b| b.work,
            |_, idle| format!("stalled for {idle}"),
        );
        assert_eq!(end, 1088);
    }

    #[test]
    #[should_panic(expected = "stalled for 88")]
    fn unaligned_start_still_charges_true_idle_time() {
        // Same unaligned geometry, but the bus never progresses: the short
        // first window (24 cycles) plus one full interval (64) exceeds the
        // 64-cycle budget at the second check — and the diagnostic reports
        // the true 88 elapsed idle cycles, not a multiple of the interval.
        struct Stuck;
        let mut bus = Stuck;
        let mut cl = CycleLoop::new().with_watchdog(Watchdog {
            check_interval: 64,
            idle_budget: 64,
        });
        cl = cl.stage(|_now: u64, _bus: &mut Stuck| {});
        cl.run(
            &mut bus,
            1000,
            |_| false,
            |_| 0,
            |_, idle| format!("stalled for {idle}"),
        );
    }

    #[test]
    fn watchdog_tolerates_slow_but_steady_progress() {
        // One unit of work every 96 cycles: flat across single checks but
        // never flat for long enough to exhaust the budget.
        struct Slow {
            work: u64,
        }
        let mut bus = Slow { work: 0 };
        let mut cl = CycleLoop::new().with_watchdog(Watchdog {
            check_interval: 16,
            idle_budget: 128,
        });
        cl = cl.stage(|now: u64, bus: &mut Slow| {
            if (now + 1).is_multiple_of(96) {
                bus.work += 1;
            }
        });
        let end = cl.run(
            &mut bus,
            0,
            |b| b.work >= 20,
            |b| b.work,
            |_, idle| format!("stalled for {idle}"),
        );
        assert!(end >= 20 * 96);
    }

    /// Event-driven toy bus for the fast-forward tests: a periodic stage
    /// fires every `period` cycles and counts every other cycle as idle;
    /// a clock stage mirrors the loop's cycle count onto the bus.
    #[derive(Default, Debug, PartialEq, Eq)]
    struct EventBus {
        clock: u64,
        events: u64,
        idle_ticks: u64,
    }

    struct Periodic {
        period: u64,
    }
    impl Clocked<EventBus> for Periodic {
        fn tick(&mut self, now: u64, bus: &mut EventBus) {
            if now > 0 && now.is_multiple_of(self.period) {
                bus.events += 1;
            } else {
                bus.idle_ticks += 1;
            }
        }
        fn next_event(&self, now: u64, _bus: &EventBus) -> Option<u64> {
            if now > 0 && now.is_multiple_of(self.period) {
                None // fires this very cycle: must be ticked
            } else {
                Some((now / self.period + 1) * self.period)
            }
        }
        fn skip(&mut self, from: u64, to: u64, bus: &mut EventBus) {
            bus.idle_ticks += to - from;
        }
        fn name(&self) -> &'static str {
            "periodic"
        }
    }

    struct BusClock;
    impl Clocked<EventBus> for BusClock {
        fn tick(&mut self, _now: u64, bus: &mut EventBus) {
            bus.clock += 1;
        }
        fn next_event(&self, _now: u64, _bus: &EventBus) -> Option<u64> {
            Some(u64::MAX) // purely reactive: never a reason to wake up
        }
        fn skip(&mut self, from: u64, to: u64, bus: &mut EventBus) {
            bus.clock += to - from;
        }
        fn name(&self) -> &'static str {
            "bus clock"
        }
    }

    fn run_periodic(skip: bool, period: u64, want_events: u64) -> (u64, EventBus, u64, u64) {
        let mut bus = EventBus::default();
        let mut cl = CycleLoop::new()
            .with_skip(skip)
            .stage(Periodic { period })
            .stage(BusClock);
        let end = cl.run(
            &mut bus,
            0,
            |b| b.events >= want_events,
            |b| b.events,
            |_, idle| format!("stalled for {idle}"),
        );
        (end, bus, cl.jumps(), cl.skipped_cycles())
    }

    #[test]
    fn fast_forward_is_bitwise_identical_to_naive_ticking() {
        // Period 97 is coprime with the 64-cycle check interval, so jumps
        // exercise both the event bound and the check-boundary cap.
        let (naive_end, naive_bus, naive_jumps, _) = run_periodic(false, 97, 5);
        let (skip_end, skip_bus, skip_jumps, skipped) = run_periodic(true, 97, 5);
        assert_eq!(naive_end, skip_end);
        assert_eq!(naive_bus, skip_bus);
        assert_eq!(naive_jumps, 0);
        assert!(skip_jumps > 0, "fast-forward must actually engage");
        assert!(skipped > 0);
        // The skipping loop only ever ticks the five event cycles; the
        // rest of the run is crossed by jumps.
        assert_eq!(skipped, skip_end - 5);
    }

    #[test]
    fn horizon_jumps_are_capped_at_check_boundaries() {
        // Events every 100 cycles; `done` reads the event count, which
        // null ticks leave alone. While it is false, each jump goes
        // straight to the next event across the check boundaries between;
        // once the sixth event (cycle 600) makes it true, the jump toward
        // the seventh stops at the next boundary, 640, where the naive
        // loop first samples completion too.
        let run = |skip: bool| {
            let mut bus = EventBus::default();
            let mut cl = CycleLoop::new()
                .with_skip(skip)
                .stage(Periodic { period: 100 })
                .stage(BusClock);
            let end = cl.run(
                &mut bus,
                0,
                |b| b.events >= 6,
                |b| b.events,
                |_, idle| format!("stalled for {idle}"),
            );
            (end, bus, cl.jumps())
        };
        let (naive_end, naive_bus, _) = run(false);
        let (skip_end, skip_bus, jumps) = run(true);
        assert_eq!(naive_end, 640);
        assert_eq!(skip_end, 640);
        assert_eq!(naive_bus, skip_bus);
        // One jump per event, plus the one onto the completing boundary —
        // not one per 64-cycle window.
        assert_eq!(jumps, 6 + 1);
    }

    #[test]
    fn sparse_events_cost_jumps_not_check_boundaries() {
        // Ten events 100 003 cycles apart, about 15 600 check boundaries
        // in between: both drives stay bitwise equal to the naive loop and
        // take O(events) jumps.
        const PERIOD: u64 = 100_003;
        const EVENTS: u64 = 10;
        let run = |skip: bool, exact: bool| {
            let mut bus = EventBus::default();
            let mut cl = CycleLoop::new()
                .with_skip(skip)
                .stage(Periodic { period: PERIOD })
                .stage(BusClock);
            let done = |b: &EventBus| b.events >= EVENTS;
            let diagnose = |_: &EventBus, idle| format!("stalled for {idle}");
            let end = if exact {
                cl.run_until(&mut bus, 0, done, |b| b.events, diagnose)
            } else {
                cl.run(&mut bus, 0, done, |b| b.events, diagnose)
            };
            (end, bus, cl.jumps())
        };
        for exact in [false, true] {
            let (naive_end, naive_bus, _) = run(false, exact);
            let (skip_end, skip_bus, jumps) = run(true, exact);
            assert_eq!((skip_end, &skip_bus), (naive_end, &naive_bus));
            assert_eq!(naive_bus.clock, naive_end);
            if exact {
                // `run_until` returns on the tick of the last event.
                assert_eq!(naive_end, EVENTS * PERIOD + 1);
                assert_eq!(jumps, EVENTS);
            } else {
                // `run` ends on the first boundary after it.
                assert_eq!(naive_end, (EVENTS * PERIOD).div_ceil(64) * 64);
                assert_eq!(jumps, EVENTS + 1);
            }
        }
    }

    #[test]
    fn horizon_jump_does_not_trip_the_idle_budget() {
        // The first event lands far past the idle budget. The naive loop
        // must declare a stall; the fast-forward loop knows an event is
        // scheduled and crosses the gap without charging the budget.
        let run = |skip: bool| {
            let mut bus = EventBus::default();
            let mut cl = CycleLoop::new()
                .with_skip(skip)
                .with_watchdog(Watchdog {
                    check_interval: 4,
                    idle_budget: 100,
                })
                .stage(Periodic { period: 1000 })
                .stage(BusClock);
            cl.run(
                &mut bus,
                0,
                |b| b.events >= 1,
                |b| b.events,
                |_, idle| format!("stalled for {idle}"),
            )
        };
        assert_eq!(run(true), 1004);
        let naive = std::panic::catch_unwind(|| run(false));
        assert!(naive.is_err(), "naive loop must trip the watchdog");
    }

    #[test]
    fn run_until_stops_on_the_tick_the_event_happens() {
        // Period 97 against the 64-cycle check interval: `run` would report
        // the third event at cycle 320, the next boundary; `run_until`
        // must return 3 × 97 + 1 with not one idle tick charged past it.
        let run = |skip: bool| {
            let mut bus = EventBus::default();
            let mut cl = CycleLoop::new()
                .with_skip(skip)
                .stage(Periodic { period: 97 })
                .stage(BusClock);
            let end = cl.run_until(
                &mut bus,
                0,
                |b| b.events >= 3,
                |b| b.events,
                |_, idle| format!("stalled for {idle}"),
            );
            (end, bus, cl.jumps())
        };
        let (naive_end, naive_bus, naive_jumps) = run(false);
        let (skip_end, skip_bus, skip_jumps) = run(true);
        assert_eq!(naive_end, 3 * 97 + 1);
        assert_eq!(naive_bus.clock, naive_end);
        assert_eq!(naive_bus.idle_ticks, naive_end - 3);
        assert_eq!((skip_end, &skip_bus), (naive_end, &naive_bus));
        assert_eq!(naive_jumps, 0);
        assert!(skip_jumps > 0, "fast-forward must actually engage");
    }

    #[test]
    #[should_panic(expected = "stalled for 128")]
    fn run_until_enforces_the_watchdog() {
        let mut bus = EventBus::default();
        let mut cl = CycleLoop::new()
            .with_skip(false)
            .with_watchdog(Watchdog {
                check_interval: 64,
                idle_budget: 128,
            })
            .stage(BusClock);
        cl.run_until(
            &mut bus,
            0,
            |_| false,
            |b| b.events,
            |_, idle| format!("stalled for {idle}"),
        );
    }

    #[test]
    fn advance_stops_at_its_bound_and_costs_events_not_cycles() {
        let run = |skip: bool| {
            let mut bus = EventBus::default();
            let mut cl = CycleLoop::new()
                .with_skip(skip)
                .stage(Periodic { period: 1000 })
                .stage(BusClock);
            cl.advance(&mut bus, 0, 2500);
            cl.advance(&mut bus, 2500, 2500); // already there: nothing runs
            (bus, cl.jumps(), cl.skipped_cycles())
        };
        let (naive_bus, naive_jumps, _) = run(false);
        let (skip_bus, skip_jumps, skipped) = run(true);
        assert_eq!(naive_bus.clock, 2500);
        assert_eq!(naive_bus.events, 2);
        assert_eq!(skip_bus, naive_bus);
        assert_eq!(naive_jumps, 0);
        // 0 → 1000, tick, → 2000, tick, → 2500: jumps are capped by the
        // bound, never by a check boundary.
        assert_eq!((skip_jumps, skipped), (3, 2498));

        // A machine with no event of its own crosses the stretch in one
        // jump — the case `run` must tick through for its watchdog's sake.
        let mut bus = EventBus::default();
        let mut cl = CycleLoop::new().with_skip(true).stage(BusClock);
        cl.advance(&mut bus, 0, 1_000_000);
        assert_eq!(bus.clock, 1_000_000);
        assert_eq!((cl.jumps(), cl.skipped_cycles()), (1, 1_000_000));
    }

    #[test]
    fn a_loop_with_skip_off_never_probes_or_skips() {
        struct TickOnly;
        impl Clocked<EventBus> for TickOnly {
            fn tick(&mut self, _now: u64, bus: &mut EventBus) {
                bus.clock += 1;
            }
            fn next_event(&self, _now: u64, _bus: &EventBus) -> Option<u64> {
                panic!("the naive loop probed a horizon");
            }
            fn skip(&mut self, _from: u64, _to: u64, _bus: &mut EventBus) {
                panic!("the naive loop skipped");
            }
        }
        let mut bus = EventBus::default();
        let mut cl = CycleLoop::new().with_skip(false).stage(TickOnly);
        cl.advance(&mut bus, 0, 300);
        let end = cl.run_until(
            &mut bus,
            300,
            |b| b.clock >= 500,
            |b| b.clock,
            |_, _| String::new(),
        );
        assert_eq!((end, bus.clock), (500, 500));
    }

    /// The probe back-off bounds what a saturated stretch pays for
    /// horizon probes: a stage that vetoes every probe is asked about once
    /// per [`MAX_PROBE_HOLDOFF`] cycles, plus the ramp-up, not once per
    /// cycle. Without the back-off the skip path pays a full `next_event`
    /// sweep on every tick of a busy layer.
    #[test]
    fn saturated_stretch_probes_once_per_holdoff() {
        use std::{cell::Cell, rc::Rc};
        /// Vetoes every probe and counts the probes it was asked.
        struct Busy(Rc<Cell<u64>>);
        impl Clocked<EventBus> for Busy {
            fn tick(&mut self, _now: u64, bus: &mut EventBus) {
                bus.clock += 1;
            }
            fn next_event(&self, _now: u64, _bus: &EventBus) -> Option<u64> {
                self.0.set(self.0.get() + 1);
                None
            }
        }
        const CYCLES: u64 = 16_000;
        let counted = Rc::new(Cell::new(0));
        let mut bus = EventBus::default();
        let mut cl = CycleLoop::new()
            .with_skip(true)
            .stage(Busy(Rc::clone(&counted)));
        cl.advance(&mut bus, 0, CYCLES);
        assert_eq!((bus.clock, cl.jumps()), (CYCLES, 0));
        let probes = counted.get();
        assert!(
            probes <= CYCLES / MAX_PROBE_HOLDOFF + 64,
            "{probes} probes over {CYCLES} saturated cycles"
        );
    }

    #[test]
    fn event_loop_backstop_trips_and_reports_horizon() {
        // A stage that always promises an event just over the boundary but
        // never makes progress: every window is crossed by jumps, so the
        // normal idle budget never charges — the leashed backstop must
        // trip instead, and the diagnostic must carry the jump telemetry.
        struct Mirage;
        impl Clocked<EventBus> for Mirage {
            fn tick(&mut self, _now: u64, bus: &mut EventBus) {
                bus.idle_ticks += 1;
            }
            fn next_event(&self, now: u64, _bus: &EventBus) -> Option<u64> {
                Some(now + 1_000_000)
            }
            fn skip(&mut self, from: u64, to: u64, bus: &mut EventBus) {
                bus.idle_ticks += to - from;
            }
            fn name(&self) -> &'static str {
                "mirage"
            }
        }
        let trip = std::panic::catch_unwind(|| {
            let mut bus = EventBus::default();
            let mut cl = CycleLoop::new()
                .with_skip(true)
                .with_watchdog(Watchdog {
                    check_interval: 16,
                    idle_budget: 16,
                })
                .stage(Mirage);
            cl.run(
                &mut bus,
                0,
                |_| false,
                |_| 0,
                |_, idle| format!("stalled for {idle}"),
            )
        });
        let msg = *trip
            .expect_err("backstop must trip")
            .downcast::<String>()
            .expect("panic carries the diagnostic string");
        // idle_budget × EVENT_LOOP_LEASH = 16 × 64 flat cycles.
        assert!(msg.contains("stalled for 1024"), "got: {msg}");
        assert!(msg.contains("last horizon decision"), "got: {msg}");
        assert!(msg.contains("watchdog leash"), "got: {msg}");
    }
}
