//! The virtual-time serving scheduler: admission, dynamic batching,
//! affinity placement and load shedding over a pool of cube timelines.
//!
//! The scheduler is a discrete-event loop layered on
//! [`neurocube_sim::CycleLoop`]: an arrival stage admits trace requests
//! at their arrival cycles and a dispatch stage forms batches whenever a
//! free cube meets a ripe queue. Both stages declare exact event
//! horizons, so the loop fast-forwards across quiescent stretches and —
//! by the kernel's null-tick contract — produces bitwise-identical
//! results with skipping on or off (asserted in the test suites).
//!
//! ## Policy (normative — the oracle in [`crate::oracle`] re-implements
//! exactly this)
//!
//! **Admission** (at the request's arrival cycle, in trace order):
//! unknown model, empty payload, wrong payload length, and a deadline
//! not in the future are counted rejections; a full per-model queue
//! rejects with `queue_full`. Admitted requests enter their model's
//! queue ordered by (priority descending, arrival order) — never a
//! panic, load is shed gracefully.
//!
//! **Ripeness**: a queue may dispatch when it holds `max_batch` requests
//! or its head has waited `max_delay` cycles.
//!
//! **Placement**: cubes are scanned in index order; a free cube prefers
//! the ripe queue of the model it already holds (affinity — no
//! reprogramming charge), otherwise the ripe queue with the oldest head.
//! Switching models charges the catalog's reprogram cycles (the
//! `golden::timing` host programming term) before the batch runs.
//!
//! **Batching**: from the chosen queue, first shed every head that can
//! no longer meet its deadline even dispatched alone on this cube, then
//! take requests in queue order while the *whole batch's* completion —
//! `now + reprogram + B × service` — stays at or before every member's
//! deadline, up to `max_batch`. A dispatched batch therefore never
//! violates any member's deadline; infeasibility is resolved by
//! shedding, never by a late completion.

use crate::catalog::ModelCatalog;
use crate::request::{Outcome, RejectReason, Request};
use neurocube_sim::{Clocked, CycleLoop, Histogram, StatsRegistry};
use std::collections::VecDeque;

/// Scheduler knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of cubes in the pool.
    pub pool: usize,
    /// Dynamic-batching size cap.
    pub max_batch: usize,
    /// Max cycles a queue head waits for batch-mates before the queue
    /// ripens regardless of size.
    pub max_delay: u64,
    /// Per-model queue capacity; arrivals beyond it are rejected
    /// (`queue_full`), bounding memory under overload.
    pub queue_cap: usize,
}

impl ServeConfig {
    /// Defaults: the given pool, batches of up to 8, a 4096-cycle
    /// batching window, 64-deep queues.
    #[must_use]
    pub fn new(pool: usize) -> ServeConfig {
        ServeConfig {
            pool,
            max_batch: 8,
            max_delay: 4096,
            queue_cap: 64,
        }
    }
}

/// One batch placed on one cube.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DispatchRecord {
    /// Pool index of the cube the batch ran on.
    pub cube: usize,
    /// Model tag of every request in the batch.
    pub model: u64,
    /// Virtual cycle the batch left its queue.
    pub dispatched_at: u64,
    /// Virtual cycle the batch completes (`dispatched_at + reprogram +
    /// B × service`).
    pub completes_at: u64,
    /// Whether the cube already held the model (no reprogram charge).
    pub affinity_hit: bool,
    /// Trace ids of the batch members, in dispatch order.
    pub requests: Vec<u64>,
}

/// Everything one serving run produced.
pub struct ServeReport {
    /// Batches in dispatch order (the executor replays these).
    pub records: Vec<DispatchRecord>,
    /// Terminal outcome of each trace request, by trace index.
    pub outcomes: Vec<Outcome>,
    /// The run's `serve.*` statistics.
    pub stats: StatsRegistry,
    /// Last completion cycle across the pool (0 when nothing ran).
    pub makespan: u64,
}

impl ServeReport {
    /// Completed-request count.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.stats.counter("serve.requests.completed")
    }

    /// Shed-request count.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.stats.counter("serve.requests.shed")
    }

    /// Total rejected at admission, over all reasons.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.stats
            .counters()
            .filter(|(k, _)| k.starts_with("serve.rejected."))
            .map(|(_, v)| v)
            .sum()
    }

    /// The latency distribution of completed requests.
    #[must_use]
    pub fn latency(&self) -> &Histogram {
        self.stats
            .histogram("serve.latency_cycles")
            .expect("serve runs always export latency")
    }
}

/// Minimal per-model timing copied out of the catalog so the bus owns
/// its state.
struct ModelTiming {
    name: String,
    service: u64,
    reprogram: u64,
    input_len: usize,
}

struct Queued {
    id: u64,
    arrival: u64,
    deadline: u64,
    priority: u8,
}

struct CubeState {
    free_at: u64,
    loaded: Option<u64>,
    busy_cycles: u64,
}

/// The scheduler's shared bus: queues, cube timelines and tallies.
struct ServeBus<'t> {
    trace: &'t [Request],
    cfg: ServeConfig,
    models: Vec<ModelTiming>,
    next_arrival: usize,
    queues: Vec<VecDeque<Queued>>,
    queued_total: u64,
    cubes: Vec<CubeState>,
    records: Vec<DispatchRecord>,
    outcomes: Vec<Option<Outcome>>,
    offered: u64,
    admitted: u64,
    completed: u64,
    shed: u64,
    rejected: [u64; 5],
    reprogram_cycles: u64,
    batch_size: Histogram,
    queue_depth: Histogram,
    /// Monotonic event count driving the loop's watchdog.
    progress: u64,
}

impl<'t> ServeBus<'t> {
    fn new(catalog: &ModelCatalog, cfg: &ServeConfig, trace: &'t [Request]) -> ServeBus<'t> {
        assert!(cfg.pool > 0, "a serving pool needs at least one cube");
        assert!(cfg.max_batch > 0, "batches hold at least one request");
        assert!(cfg.queue_cap > 0, "queues hold at least one request");
        let models: Vec<ModelTiming> = catalog
            .entries()
            .map(|e| ModelTiming {
                name: e.name.clone(),
                service: e.service_cycles,
                reprogram: e.reprogram_cycles,
                input_len: e.input_len(),
            })
            .collect();
        for w in trace.windows(2) {
            assert!(w[0].arrival <= w[1].arrival, "trace sorted by arrival");
        }
        for (i, r) in trace.iter().enumerate() {
            assert_eq!(r.id, i as u64, "request ids equal trace indices");
        }
        ServeBus {
            trace,
            cfg: *cfg,
            queues: (0..models.len()).map(|_| VecDeque::new()).collect(),
            models,
            next_arrival: 0,
            queued_total: 0,
            cubes: (0..cfg.pool)
                .map(|_| CubeState {
                    free_at: 0,
                    loaded: None,
                    busy_cycles: 0,
                })
                .collect(),
            records: Vec::new(),
            outcomes: vec![None; trace.len()],
            offered: 0,
            admitted: 0,
            completed: 0,
            shed: 0,
            rejected: [0; 5],
            reprogram_cycles: 0,
            batch_size: Histogram::new(),
            queue_depth: Histogram::new(),
            progress: 0,
        }
    }

    fn drained(&self) -> bool {
        self.next_arrival >= self.trace.len() && self.queued_total == 0
    }

    fn reject(&mut self, id: u64, reason: RejectReason) {
        self.rejected[reason as usize] += 1;
        self.outcomes[id as usize] = Some(Outcome::Rejected(reason));
        self.progress += 1;
    }

    fn admit(&mut self, ix: usize) {
        let r = &self.trace[ix];
        self.offered += 1;
        self.progress += 1;
        let Some(tag) = self.models.iter().position(|m| m.name == r.model) else {
            self.reject(r.id, RejectReason::UnknownModel);
            return;
        };
        if r.input.is_empty() {
            self.reject(r.id, RejectReason::EmptyInput);
            return;
        }
        if r.input.len() != self.models[tag].input_len {
            self.reject(r.id, RejectReason::ShapeMismatch);
            return;
        }
        if r.deadline <= r.arrival {
            self.reject(r.id, RejectReason::PastDeadline);
            return;
        }
        if self.queues[tag].len() >= self.cfg.queue_cap {
            self.reject(r.id, RejectReason::QueueFull);
            return;
        }
        // Insert after every entry of equal-or-higher priority: priority
        // classes are served in order, arrival order within a class.
        let q = &mut self.queues[tag];
        let pos = q
            .iter()
            .position(|e| e.priority < r.priority)
            .unwrap_or(q.len());
        q.insert(
            pos,
            Queued {
                id: r.id,
                arrival: r.arrival,
                deadline: r.deadline,
                priority: r.priority,
            },
        );
        self.admitted += 1;
        self.queued_total += 1;
        self.queue_depth.record(self.queued_total);
    }

    fn ripe(&self, now: u64, tag: usize) -> bool {
        let q = &self.queues[tag];
        match q.front() {
            None => false,
            Some(h) => q.len() >= self.cfg.max_batch || h.arrival + self.cfg.max_delay <= now,
        }
    }

    /// The queue a free cube serves at `now`: the loaded model's queue
    /// when ripe (affinity), else the ripe queue with the oldest head.
    fn select_queue(&self, now: u64, cube: usize) -> Option<usize> {
        if let Some(tag) = self.cubes[cube].loaded {
            let tag = tag as usize;
            if self.ripe(now, tag) {
                return Some(tag);
            }
        }
        (0..self.queues.len())
            .filter(|&t| self.ripe(now, t))
            .min_by_key(|&t| self.queues[t].front().map(|h| h.id))
    }

    /// Sheds infeasible heads and dispatches at most one batch from
    /// `tag` onto `cube`. Returns whether anything changed.
    fn serve_queue(&mut self, now: u64, cube: usize, tag: usize) -> bool {
        let service = self.models[tag].service;
        let cost = if self.cubes[cube].loaded == Some(tag as u64) {
            0
        } else {
            self.models[tag].reprogram
        };
        let mut changed = false;
        // Graceful shedding: a head that cannot meet its deadline even
        // dispatched alone right now will never meet it later.
        while let Some(h) = self.queues[tag].front() {
            if now + cost + service > h.deadline {
                let h = self.queues[tag].pop_front().expect("front exists");
                self.queued_total -= 1;
                self.shed += 1;
                self.progress += 1;
                self.outcomes[h.id as usize] = Some(Outcome::Shed);
                changed = true;
            } else {
                break;
            }
        }
        // Shedding may have changed the head; dispatch only a still-ripe
        // queue (a fresher head may deserve its batching window).
        if !self.ripe(now, tag) {
            return changed;
        }
        let mut members: Vec<Queued> = Vec::new();
        let mut min_deadline = u64::MAX;
        while members.len() < self.cfg.max_batch {
            let Some(h) = self.queues[tag].front() else {
                break;
            };
            let completes = now + cost + (members.len() as u64 + 1) * service;
            if completes > h.deadline || completes > min_deadline {
                break;
            }
            min_deadline = min_deadline.min(h.deadline);
            members.push(self.queues[tag].pop_front().expect("front exists"));
            self.queued_total -= 1;
        }
        if members.is_empty() {
            return changed;
        }
        let b = members.len() as u64;
        let completes = now + cost + b * service;
        for m in &members {
            self.outcomes[m.id as usize] = Some(Outcome::Completed {
                latency: completes - m.arrival,
                batch_size: b,
            });
            self.completed += 1;
        }
        self.batch_size.record(b);
        self.reprogram_cycles += cost;
        let cube_state = &mut self.cubes[cube];
        cube_state.busy_cycles += completes - now;
        cube_state.free_at = completes;
        cube_state.loaded = Some(tag as u64);
        self.records.push(DispatchRecord {
            cube,
            model: tag as u64,
            dispatched_at: now,
            completes_at: completes,
            affinity_hit: cost == 0,
            requests: members.iter().map(|m| m.id).collect(),
        });
        self.progress += 1;
        changed | true
    }

    fn dispatch(&mut self, now: u64) {
        loop {
            let mut changed = false;
            for cube in 0..self.cubes.len() {
                if self.cubes[cube].free_at > now {
                    continue;
                }
                let Some(tag) = self.select_queue(now, cube) else {
                    continue;
                };
                changed |= self.serve_queue(now, cube, tag);
            }
            if !changed {
                break;
            }
        }
    }

    /// Whether the dispatch stage could change state at `now`.
    fn can_act(&self, now: u64) -> bool {
        self.cubes.iter().any(|c| c.free_at <= now)
            && (0..self.queues.len()).any(|t| self.ripe(now, t))
    }
}

struct ArrivalStage;

impl Clocked<ServeBus<'_>> for ArrivalStage {
    fn tick(&mut self, now: u64, bus: &mut ServeBus<'_>) {
        while bus.next_arrival < bus.trace.len() && bus.trace[bus.next_arrival].arrival <= now {
            let ix = bus.next_arrival;
            bus.next_arrival += 1;
            bus.admit(ix);
        }
    }

    fn next_event(&self, now: u64, bus: &ServeBus<'_>) -> Option<u64> {
        match bus.trace.get(bus.next_arrival) {
            None => Some(u64::MAX),
            Some(r) if r.arrival <= now => None,
            Some(r) => Some(r.arrival),
        }
    }

    fn name(&self) -> &'static str {
        "serve arrivals"
    }
}

struct DispatchStage;

impl Clocked<ServeBus<'_>> for DispatchStage {
    fn tick(&mut self, now: u64, bus: &mut ServeBus<'_>) {
        bus.dispatch(now);
    }

    fn next_event(&self, now: u64, bus: &ServeBus<'_>) -> Option<u64> {
        if bus.queued_total == 0 {
            // Purely reactive: only an arrival can create work, and the
            // arrival stage owns that horizon.
            return Some(u64::MAX);
        }
        if bus.can_act(now) {
            return None;
        }
        let mut t = u64::MAX;
        for c in &bus.cubes {
            if c.free_at > now {
                t = t.min(c.free_at);
            }
        }
        for q in &bus.queues {
            if let Some(h) = q.front() {
                // A future ripening is an event; an already-ripe queue is
                // waiting on a cube, covered by the free_at horizons.
                if q.len() < bus.cfg.max_batch && h.arrival + bus.cfg.max_delay > now {
                    t = t.min(h.arrival + bus.cfg.max_delay);
                }
            }
        }
        Some(t.max(now + 1))
    }

    fn name(&self) -> &'static str {
        "serve dispatch"
    }
}

/// Runs the scheduler over `trace` and returns the full report.
/// Deterministic: equal `(catalog timings, config, trace)` give equal
/// reports, bit for bit, regardless of fast-forward mode.
#[must_use]
pub fn serve(catalog: &ModelCatalog, cfg: &ServeConfig, trace: &[Request]) -> ServeReport {
    serve_mode(catalog, cfg, trace, None)
}

/// Like [`serve`], with explicit control over event-horizon
/// fast-forwarding: `Some(false)` ticks every virtual cycle (the naive
/// oracle), `Some(true)` and `None` skip — the differential suites run
/// both modes in one process.
#[must_use]
pub fn serve_mode(
    catalog: &ModelCatalog,
    cfg: &ServeConfig,
    trace: &[Request],
    skip: Option<bool>,
) -> ServeReport {
    let mut bus = ServeBus::new(catalog, cfg, trace);
    let mut cl = CycleLoop::new()
        .with_skip(skip.unwrap_or(true))
        .stage(ArrivalStage)
        .stage(DispatchStage);
    cl.run(
        &mut bus,
        0,
        ServeBus::drained,
        |b| b.progress,
        |b, idle| {
            format!(
                "serving loop stalled for {idle} cycles: \
                 {} of {} arrivals admitted, {} queued, cube free_at {:?}",
                b.next_arrival,
                b.trace.len(),
                b.queued_total,
                b.cubes.iter().map(|c| c.free_at).collect::<Vec<_>>()
            )
        },
    );

    let makespan = bus
        .records
        .iter()
        .map(|r| r.completes_at)
        .max()
        .unwrap_or(0);
    let outcomes: Vec<Outcome> = std::mem::take(&mut bus.outcomes)
        .into_iter()
        .enumerate()
        .map(|(i, o)| o.unwrap_or_else(|| panic!("request {i} has no outcome after drain")))
        .collect();
    // The latency histogram, folded once from the outcomes as sorted runs
    // of equal samples rather than one map insert per completion.
    let mut latencies = Vec::with_capacity(bus.completed as usize);
    latencies.extend(outcomes.iter().filter_map(|o| match o {
        Outcome::Completed { latency, .. } => Some(*latency),
        _ => None,
    }));
    latencies.sort_unstable();
    let mut latency = Histogram::new();
    for run in latencies.chunk_by(|a, b| a == b) {
        latency.record_n(run[0], run.len() as u64);
    }

    let mut stats = StatsRegistry::new();
    let mut s = stats.scoped("serve");
    s.counter("requests.offered", bus.offered);
    s.counter("requests.admitted", bus.admitted);
    s.counter("requests.completed", bus.completed);
    s.counter("requests.shed", bus.shed);
    for reason in [
        RejectReason::UnknownModel,
        RejectReason::EmptyInput,
        RejectReason::ShapeMismatch,
        RejectReason::PastDeadline,
        RejectReason::QueueFull,
    ] {
        s.counter(
            &format!("rejected.{}", reason.key()),
            bus.rejected[reason as usize],
        );
    }
    s.counter("batches", bus.records.len() as u64);
    let hits = bus.records.iter().filter(|r| r.affinity_hit).count() as u64;
    s.counter("affinity.hits", hits);
    s.counter("affinity.misses", bus.records.len() as u64 - hits);
    s.counter("cycles.makespan", makespan);
    s.counter(
        "cycles.busy",
        bus.cubes.iter().map(|c| c.busy_cycles).sum::<u64>(),
    );
    s.counter("cycles.reprogram", bus.reprogram_cycles);
    s.histogram("latency_cycles", &latency);
    s.histogram("batch_size", &bus.batch_size);
    s.histogram("queue_depth", &bus.queue_depth);
    if bus.offered > 0 {
        s.gauge("rate.shed", bus.shed as f64 / bus.offered as f64);
    }
    if !bus.records.is_empty() {
        s.gauge("rate.affinity_hit", hits as f64 / bus.records.len() as f64);
    }
    if makespan > 0 {
        s.gauge(
            "throughput.completed_per_mcycle",
            bus.completed as f64 * 1e6 / makespan as f64,
        );
    }

    ServeReport {
        records: bus.records,
        outcomes,
        stats,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurocube::SystemConfig;
    use neurocube_fixed::Q88;

    fn catalog() -> ModelCatalog {
        let mut cat = ModelCatalog::new(SystemConfig::paper(true));
        cat.register_synthetic("a", 100, 50);
        cat.register_synthetic("b", 300, 80);
        cat
    }

    fn req(id: u64, model: &str, arrival: u64, deadline: u64, priority: u8) -> Request {
        Request {
            id,
            model: model.to_string(),
            input: vec![Q88::ZERO],
            arrival,
            deadline,
            priority,
        }
    }

    #[test]
    fn batches_fill_and_affinity_skips_reprogramming() {
        let cat = catalog();
        let cfg = ServeConfig {
            pool: 1,
            max_batch: 4,
            max_delay: 10,
            queue_cap: 8,
        };
        let mut trace: Vec<Request> = (0..4).map(|i| req(i, "a", 0, 10_000, 0)).collect();
        trace.push(req(4, "a", 5, 10_000, 0));
        let r = serve(&cat, &cfg, &trace);
        // Four arrivals at cycle 0 fill a batch instantly: reprogram (50)
        // plus 4 x 100 service completes at 450. The straggler waits for
        // the cube, then rides alone on a warm cube: no reprogram.
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.records[0].requests, vec![0, 1, 2, 3]);
        assert!(!r.records[0].affinity_hit);
        assert_eq!(r.records[0].completes_at, 450);
        assert_eq!(r.records[1].requests, vec![4]);
        assert!(r.records[1].affinity_hit);
        assert_eq!(r.records[1].dispatched_at, 450);
        assert_eq!(r.records[1].completes_at, 550);
        assert_eq!(r.completed(), 5);
        assert_eq!(r.makespan, 550);
        assert_eq!(r.stats.counter("serve.affinity.hits"), 1);
        assert_eq!(r.stats.counter("serve.affinity.misses"), 1);
        assert_eq!(r.stats.counter("serve.cycles.reprogram"), 50);
        assert_eq!(r.latency().count(), 5);
    }

    #[test]
    fn infeasible_heads_are_shed_not_paniced() {
        let cat = catalog();
        let cfg = ServeConfig {
            pool: 1,
            max_batch: 4,
            max_delay: 0,
            queue_cap: 8,
        };
        // Deadline 60 < reprogram + service = 150: never feasible.
        let trace = vec![req(0, "a", 0, 60, 0), req(1, "a", 0, 10_000, 0)];
        let r = serve(&cat, &cfg, &trace);
        assert_eq!(r.outcomes[0], Outcome::Shed);
        assert!(matches!(r.outcomes[1], Outcome::Completed { .. }));
        assert_eq!(r.shed(), 1);
        assert_eq!(r.stats.counter("serve.requests.shed"), 1);
    }

    #[test]
    fn a_batch_never_grows_past_a_members_deadline() {
        let cat = catalog();
        let cfg = ServeConfig {
            pool: 1,
            max_batch: 4,
            max_delay: 0,
            queue_cap: 8,
        };
        // Head's deadline fits one service (50 + 100 <= 160) but not two
        // (50 + 200 > 160): the batch must stay at size 1 even though a
        // second request is queued and would fit its own deadline.
        let trace = vec![req(0, "a", 0, 160, 0), req(1, "a", 0, 10_000, 0)];
        let r = serve(&cat, &cfg, &trace);
        assert_eq!(r.records[0].requests, vec![0]);
        assert_eq!(r.records[0].completes_at, 150);
        // The second request follows on the warm cube.
        assert_eq!(r.records[1].requests, vec![1]);
        assert!(r.records[1].affinity_hit);
    }

    #[test]
    fn admission_counts_every_rejection_class() {
        let cat = catalog();
        let cfg = ServeConfig {
            pool: 1,
            max_batch: 8,
            max_delay: 1_000,
            queue_cap: 2,
        };
        let mut trace = vec![
            req(0, "ghost", 0, 100, 0),
            req(1, "a", 0, 100, 0),
            req(2, "a", 0, 0, 0),
            req(3, "a", 0, 10_000, 0),
            req(4, "a", 0, 10_000, 0),
            req(5, "a", 0, 10_000, 0),
            req(6, "a", 0, 10_000, 0),
        ];
        trace[1].input.clear();
        trace[3].input.push(Q88::ZERO);
        // trace[2] is dead on arrival; ids 4 and 5 fill the 2-deep queue,
        // so trace[6] overflows it.
        let r = serve(&cat, &cfg, &trace);
        assert_eq!(r.outcomes[0], Outcome::Rejected(RejectReason::UnknownModel));
        assert_eq!(r.outcomes[1], Outcome::Rejected(RejectReason::EmptyInput));
        assert_eq!(r.outcomes[2], Outcome::Rejected(RejectReason::PastDeadline));
        assert_eq!(
            r.outcomes[3],
            Outcome::Rejected(RejectReason::ShapeMismatch)
        );
        assert_eq!(r.outcomes[6], Outcome::Rejected(RejectReason::QueueFull));
        assert_eq!(r.rejected(), 5);
        assert_eq!(r.stats.counter("serve.rejected.unknown_model"), 1);
        assert_eq!(r.stats.counter("serve.rejected.queue_full"), 1);
        assert_eq!(r.completed(), 2);
    }

    #[test]
    fn higher_priority_jumps_the_queue() {
        let cat = catalog();
        let cfg = ServeConfig {
            pool: 1,
            max_batch: 1,
            max_delay: 0,
            queue_cap: 8,
        };
        let trace = vec![req(0, "b", 0, 100_000, 0), req(1, "b", 0, 100_000, 3)];
        let r = serve(&cat, &cfg, &trace);
        assert_eq!(r.records[0].requests, vec![1], "priority 3 serves first");
        assert_eq!(r.records[1].requests, vec![0]);
    }

    #[test]
    fn skip_and_naive_modes_agree_bitwise() {
        let cat = catalog();
        let cfg = ServeConfig {
            pool: 3,
            max_batch: 4,
            max_delay: 500,
            queue_cap: 16,
        };
        let spec = crate::traffic::TrafficSpec {
            malformed_permille: 150,
            ..crate::traffic::TrafficSpec::poisson(
                19,
                90.0,
                300,
                vec![("a".to_string(), 2), ("b".to_string(), 1)],
            )
        };
        let trace = crate::traffic::generate(&cat, &spec);
        let naive = serve_mode(&cat, &cfg, &trace, Some(false));
        let fast = serve_mode(&cat, &cfg, &trace, Some(true));
        assert_eq!(naive.records, fast.records);
        assert_eq!(naive.outcomes, fast.outcomes);
        assert_eq!(naive.stats.first_difference(&fast.stats), None);
        assert!(naive.completed() > 0);
    }

    #[test]
    fn empty_traces_serve_trivially() {
        let cat = catalog();
        let r = serve(&cat, &ServeConfig::new(2), &[]);
        assert!(r.records.is_empty());
        assert!(r.outcomes.is_empty());
        assert_eq!(r.makespan, 0);
    }
}
