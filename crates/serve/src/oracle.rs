//! An independent serial oracle for the scheduler.
//!
//! Re-implements the normative policy in `crate::scheduler` with none
//! of its machinery: no `CycleLoop`, no stages, no horizons — just an
//! event list stepped to the next interesting cycle (arrival, cube
//! release, or queue ripening) and the same admission/selection/batching
//! rules applied longhand. The property suites run both over random
//! traces and require record-for-record equality; any divergence means
//! one of the two got the policy wrong, and the fast-forward machinery
//! can never paper over a scheduling bug.

use crate::catalog::ModelCatalog;
use crate::request::{Outcome, RejectReason, Request};
use crate::scheduler::{DispatchRecord, ServeConfig};

struct Queued {
    id: u64,
    arrival: u64,
    deadline: u64,
    priority: u8,
}

/// What the oracle produced: the same record/outcome shape the scheduler
/// reports, for field-by-field comparison.
pub struct OracleResult {
    /// Batches in dispatch order.
    pub records: Vec<DispatchRecord>,
    /// Terminal outcome per trace index.
    pub outcomes: Vec<Outcome>,
}

/// Runs the reference policy over `trace` serially.
///
/// # Panics
///
/// Panics if the trace is unsorted, ids are not trace indices, or any
/// request ends the run without an outcome.
#[must_use]
pub fn schedule(catalog: &ModelCatalog, cfg: &ServeConfig, trace: &[Request]) -> OracleResult {
    assert!(cfg.pool > 0 && cfg.max_batch > 0 && cfg.queue_cap > 0);
    let models: Vec<(String, u64, u64, usize)> = catalog
        .entries()
        .map(|e| {
            (
                e.name.clone(),
                e.service_cycles,
                e.reprogram_cycles,
                e.input_len(),
            )
        })
        .collect();

    let mut queues: Vec<Vec<Queued>> = (0..models.len()).map(|_| Vec::new()).collect();
    let mut free_at = vec![0u64; cfg.pool];
    let mut loaded: Vec<Option<u64>> = vec![None; cfg.pool];
    let mut outcomes: Vec<Option<Outcome>> = vec![None; trace.len()];
    let mut records: Vec<DispatchRecord> = Vec::new();
    let mut next_arrival = 0usize;
    let mut now = 0u64;

    let ripe = |queues: &[Vec<Queued>], tag: usize, now: u64| -> bool {
        let q = &queues[tag];
        match q.first() {
            None => false,
            Some(h) => q.len() >= cfg.max_batch || h.arrival + cfg.max_delay <= now,
        }
    };

    loop {
        // Admit everything arriving at `now`, in trace order.
        while next_arrival < trace.len() && trace[next_arrival].arrival <= now {
            let r = &trace[next_arrival];
            assert_eq!(r.id, next_arrival as u64, "ids equal trace indices");
            next_arrival += 1;
            let outcome = match models.iter().position(|(n, ..)| *n == r.model) {
                None => Some(Outcome::Rejected(RejectReason::UnknownModel)),
                Some(_) if r.input.is_empty() => Some(Outcome::Rejected(RejectReason::EmptyInput)),
                Some(t) if r.input.len() != models[t].3 => {
                    Some(Outcome::Rejected(RejectReason::ShapeMismatch))
                }
                Some(_) if r.deadline <= r.arrival => {
                    Some(Outcome::Rejected(RejectReason::PastDeadline))
                }
                Some(t) if queues[t].len() >= cfg.queue_cap => {
                    Some(Outcome::Rejected(RejectReason::QueueFull))
                }
                Some(t) => {
                    let q = &mut queues[t];
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
                    None
                }
            };
            if let Some(o) = outcome {
                outcomes[r.id as usize] = Some(o);
            }
        }

        // Dispatch to a fixed point at `now`.
        loop {
            let mut changed = false;
            for cube in 0..cfg.pool {
                if free_at[cube] > now {
                    continue;
                }
                // Selection: loaded model's queue when ripe, else the
                // ripe queue with the oldest head.
                let tag = loaded[cube]
                    .map(|t| t as usize)
                    .filter(|&t| ripe(&queues, t, now))
                    .or_else(|| {
                        (0..queues.len())
                            .filter(|&t| ripe(&queues, t, now))
                            .min_by_key(|&t| queues[t].first().map(|h| h.id))
                    });
                let Some(tag) = tag else { continue };
                let (_, service, reprogram, _) = models[tag];
                let cost = if loaded[cube] == Some(tag as u64) {
                    0
                } else {
                    reprogram
                };
                // Shed heads that cannot make their deadline even alone.
                while let Some(h) = queues[tag].first() {
                    if now + cost + service > h.deadline {
                        let h = queues[tag].remove(0);
                        outcomes[h.id as usize] = Some(Outcome::Shed);
                        changed = true;
                    } else {
                        break;
                    }
                }
                if !ripe(&queues, tag, now) {
                    continue;
                }
                // Greedy batch growth under every member's deadline.
                let mut members: Vec<Queued> = Vec::new();
                let mut min_deadline = u64::MAX;
                while members.len() < cfg.max_batch {
                    let Some(h) = queues[tag].first() else { break };
                    let completes = now + cost + (members.len() as u64 + 1) * service;
                    if completes > h.deadline || completes > min_deadline {
                        break;
                    }
                    min_deadline = min_deadline.min(h.deadline);
                    members.push(queues[tag].remove(0));
                }
                if members.is_empty() {
                    continue;
                }
                let b = members.len() as u64;
                let completes = now + cost + b * service;
                for m in &members {
                    outcomes[m.id as usize] = Some(Outcome::Completed {
                        latency: completes - m.arrival,
                        batch_size: b,
                    });
                }
                free_at[cube] = completes;
                loaded[cube] = Some(tag as u64);
                records.push(DispatchRecord {
                    cube,
                    model: tag as u64,
                    dispatched_at: now,
                    completes_at: completes,
                    affinity_hit: cost == 0,
                    requests: members.iter().map(|m| m.id).collect(),
                });
                changed = true;
            }
            if !changed {
                break;
            }
        }

        if next_arrival >= trace.len() && queues.iter().all(Vec::is_empty) {
            break;
        }

        // Step to the next interesting cycle: an arrival, a cube
        // release, or a queue head's batching window expiring.
        let mut next = u64::MAX;
        if let Some(r) = trace.get(next_arrival) {
            next = next.min(r.arrival);
        }
        for &f in &free_at {
            if f > now {
                next = next.min(f);
            }
        }
        for q in &queues {
            if let Some(h) = q.first() {
                // Only a *future* ripening is an event; an already-ripe
                // queue is waiting on a cube, whose release is the event.
                if q.len() < cfg.max_batch && h.arrival + cfg.max_delay > now {
                    next = next.min(h.arrival + cfg.max_delay);
                }
            }
        }
        assert!(next > now && next != u64::MAX, "oracle stalled at {now}");
        now = next;
    }

    let outcomes = outcomes
        .into_iter()
        .enumerate()
        .map(|(i, o)| o.unwrap_or_else(|| panic!("request {i} has no outcome")))
        .collect();
    OracleResult { records, outcomes }
}
