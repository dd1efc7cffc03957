//! Per-channel (per-vault) DRAM timing model.
//!
//! §VI of the paper fixes the streaming behaviour we reproduce: *"For all 16
//! vaults in the HMC, 32-bit word (2 data items) is pushed at 5 GHz in burst
//! mode and burst length is assumed as 8. Therefore, after pushing 8 words,
//! the HMC needs to wait `t_CCD` before sending the next 8 words."*
//!
//! The inter-burst gap is not given numerically, and the paper is in
//! tension with itself: its Table I lists 10 GB/s *average* per vault, but
//! its simulator description (words at 5 GHz = 20 GB/s raw) and its
//! reported throughput (132.4 of a 160 GOPs/s MAC peak) imply near-peak
//! streaming, which a 16-bank vault achieves by overlapping `t_CCD` across
//! banks. We use a 2-cycle inter-burst gap (16 GB/s sustained), the value
//! that reproduces the paper's utilization; the Table I average remains
//! available through [`MemorySpec`](crate::MemorySpec). Row activations
//! (`t_CL + t_RCD`) stall the channel when a request leaves the currently
//! open row of its bank.

use crate::storage::Storage;
use neurocube_fault::DramFaults;
use std::collections::VecDeque;

/// FR-FCFS scheduling window: the controller may serve the oldest
/// row-buffer *hit* among the first `SCHED_WINDOW` queued requests instead
/// of strictly the head, avoiding pathological row thrash when two streams
/// alternate.
const SCHED_WINDOW: usize = 16;

/// What a memory request does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// Read one channel word; its value is returned in the [`Completion`].
    Read,
    /// Write one channel word (little-endian low `word_bits` of the payload).
    Write(u64),
    /// Write a single 16-bit item (a masked write). Occupies a full word
    /// slot of channel time — the cost of an unpaired state write-back.
    Write16(u16),
}

/// A request submitted to a channel's vault controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Global byte address (must belong to this channel's region).
    pub addr: u64,
    /// Caller-defined correlation tag, returned in the [`Completion`].
    pub tag: u64,
    /// Read or write.
    pub kind: RequestKind,
}

/// A serviced request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The address of the original request.
    pub addr: u64,
    /// The tag of the original request.
    pub tag: u64,
    /// For reads, the word read from storage; for writes, the value written.
    pub data: u64,
    /// Cycle at which the word crossed the channel.
    pub cycle: u64,
}

/// Timing and energy parameters of one channel. [`Channel::new`] accepts
/// only the validated geometry the field docs state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelConfig {
    /// Channel word size in bits: 32 (HMC vaults) or 64 (DDR3).
    pub word_bits: u32,
    /// Word service time numerator: a word takes `cpw_num / cpw_den`
    /// reference cycles within a burst.
    pub cpw_num: u32,
    /// Word service time denominator (see [`cpw_num`](Self::cpw_num)), a
    /// power of two (1 for HMC, 8 for DDR3).
    pub cpw_den: u32,
    /// Words per burst.
    pub burst_len: u32,
    /// Idle reference cycles inserted after each burst (`t_CCD`).
    pub inter_burst_gap: u32,
    /// Row activation penalty in reference cycles (`t_CL + t_RCD`).
    pub row_miss_penalty: u32,
    /// Banks per channel (open-row tracking granularity), a power of two
    /// from 1 to 64.
    pub banks: u32,
    /// Bytes per DRAM row, a power of two.
    pub row_bytes: u32,
    /// Request queue depth; [`Channel::try_enqueue`] fails beyond this.
    pub queue_capacity: usize,
    /// Access energy in pJ/bit (Table I), used for the power model.
    pub energy_pj_per_bit: f64,
    /// Periodic refresh, or `None` to ignore it (the paper's simulator
    /// does not mention refresh; enabling it costs a few percent of
    /// bandwidth and is provided for sensitivity studies).
    pub refresh: Option<RefreshModel>,
}

/// DRAM refresh timing: every `interval` reference cycles the whole
/// channel pauses for `duration` cycles (an all-bank refresh, the
/// conservative model).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RefreshModel {
    /// Cycles between refresh commands (`t_REFI`; 7.8 µs → 39,000 cycles
    /// at the 5 GHz reference clock).
    pub interval: u64,
    /// Cycles a refresh blocks the channel (`t_RFC`; ~350 ns → 1,750).
    pub duration: u64,
}

impl RefreshModel {
    /// The bandwidth fraction refresh steals.
    pub fn overhead(&self) -> f64 {
        self.duration as f64 / self.interval as f64
    }
}

impl ChannelConfig {
    /// The HMC internal vault interface at the 5 GHz reference clock:
    /// one 32-bit word per cycle, bursts of 8, 2-cycle `t_CCD` gap
    /// (16 GB/s sustained — see the module docs for the calibration
    /// rationale), 27.5 ns row penalty.
    pub fn hmc_int() -> ChannelConfig {
        ChannelConfig {
            word_bits: 32,
            cpw_num: 1,
            cpw_den: 1,
            burst_len: 8,
            inter_burst_gap: 2,
            row_miss_penalty: crate::ns_to_cycles(27.5) as u32,
            // 16 banks per vault (2 per DRAM die x 8 partitions' worth in
            // the 4-die stack).
            banks: 16,
            row_bytes: 256,
            queue_capacity: 64,
            energy_pj_per_bit: 3.7,
            refresh: None,
        }
    }

    /// A DDR3-1600 channel seen from the 5 GHz reference clock: one 64-bit
    /// word every 25/8 cycles (12.8 GB/s), 25 ns row penalty.
    pub fn ddr3() -> ChannelConfig {
        ChannelConfig {
            word_bits: 64,
            cpw_num: 25,
            cpw_den: 8,
            burst_len: 8,
            inter_burst_gap: 0,
            row_miss_penalty: crate::ns_to_cycles(25.0) as u32,
            banks: 8,
            row_bytes: 8192,
            queue_capacity: 64,
            energy_pj_per_bit: 70.0,
            refresh: None,
        }
    }

    /// The first validated-geometry rule this channel breaks, or `None`:
    /// the rules make the address split and pacing shifts, fit the banks a
    /// window still needs in one `u64`, and keep the refresh schedule's
    /// division defined.
    pub(crate) fn geometry_error(&self) -> Option<&'static str> {
        if !matches!(self.word_bits, 32 | 64) {
            Some("word_bits must be 32 or 64")
        } else if !self.row_bytes.is_power_of_two() {
            Some("row_bytes must be a power of two")
        } else if !self.banks.is_power_of_two() || self.banks > 64 {
            Some("banks must be a power of two from 1 to 64")
        } else if !self.cpw_den.is_power_of_two() {
            Some("cpw_den must be a power of two")
        } else if self.refresh.is_some_and(|r| r.interval == 0) {
            Some("refresh interval must be nonzero")
        } else {
            None
        }
    }

    /// Average bytes per reference cycle this configuration can sustain,
    /// ignoring row misses.
    pub(crate) fn avg_bytes_per_cycle(&self) -> f64 {
        let burst_cycles =
            f64::from(self.burst_len) * f64::from(self.cpw_num) / f64::from(self.cpw_den);
        let total = burst_cycles + f64::from(self.inter_burst_gap);
        f64::from(self.burst_len) * (f64::from(self.word_bits) / 8.0) / total
    }

    /// Average bandwidth in GB/s at the 5 GHz reference clock.
    pub(crate) fn avg_bandwidth_gbps(&self) -> f64 {
        self.avg_bytes_per_cycle() * crate::REF_CLOCK_HZ / 1e9
    }
}

/// Cycle-level model of one memory channel (HMC vault or DDR3 channel).
///
/// Drive it with [`tick`](Channel::tick) once per reference cycle; it serves
/// at most one *data* word per cycle, respecting the burst/gap duty cycle.
/// Row activations run **per bank, in parallel with data service** (bank-
/// level parallelism: the activation command occupies the command path, not
/// the data bus), and the controller *activates ahead* along sequential
/// address streams — rows interleave across banks, so while row `R`
/// streams, rows `R+1` and `R+2` open in their banks. A sequential stream
/// therefore pays `t_CL + t_RCD` once, not per row; random access patterns
/// still pay it per switch.
#[derive(Clone, Debug)]
pub struct Channel {
    cfg: ChannelConfig,
    queue: VecDeque<Request>,
    /// Absolute cycle at which the next word may cross the channel,
    /// in units of `1/cpw_den` cycles for exact rational pacing.
    ready_units: u64,
    words_in_burst: u32,
    open_rows: Vec<Option<u64>>,
    /// Cycle at which each bank's activation completes.
    bank_ready: Vec<u64>,
    /// End of the current refresh pause, if one is in progress.
    refresh_until: u64,
    refreshes: u64,
    /// Memoized null-tick horizon: ticks strictly before this cycle are
    /// known to be null (busy-cycle accounting only), so [`tick`] takes a
    /// constant-time shortcut instead of rescanning the window. Set when a
    /// tick turns out null, cleared by [`try_enqueue`]; purely an
    /// optimization — behaviour is bitwise identical with it disabled.
    quiet_until: u64,
    /// Known-ready prefix of the FR-FCFS window: the first `ready_prefix`
    /// queued requests are row-ready. Readiness is monotonic within the
    /// window — [`may_activate`](Self::may_activate)'s still-needed guard
    /// refuses to close a row a window entry waits on, and a bank past its
    /// activation time stays past it — so the prefix only resets when a
    /// refresh closes every row. While it is non-zero the data-path pick
    /// is index 0 with no scan, and the command path starts its
    /// candidate search past the prefix. Purely an optimization:
    /// behaviour is bitwise identical with it pinned to zero.
    ready_prefix: usize,
    /// `log2(row_bytes)`, `log2(banks)` and `log2(cpw_den)`: the address
    /// split and the pacing division, run on every scan and probe, are
    /// shifts and masks.
    row_shift: u32,
    bank_shift: u32,
    den_shift: u32,
    /// Fault-injection lens, when the run has one attached. Read faults
    /// ride the data path; the lens's background-upset schedule clamps
    /// [`next_event`](Channel::next_event) so the fast-forward loop can
    /// never skip over a scheduled fault.
    faults: Option<DramFaults>,
    /// Address region `[fault_base, fault_base + fault_span)` background
    /// upsets land in (the channel's slice of the address map).
    fault_base: u64,
    fault_span: u64,
    // statistics
    words_read: u64,
    words_written: u64,
    row_misses: u64,
    busy_cycles: u64,
    // sparsity classification (see DESIGN.md §13): how many channel words
    // carried an all-zero payload, and how those zero reads cluster into
    // runs. Classification only — zero words still occupy their full slot
    // of channel time and are charged full transfer energy.
    zero_words_read: u64,
    zero_words_written: u64,
    zero_read_runs: u64,
    prev_read_zero: bool,
}

/// One cycle of a [`Channel`], decided without side effects by
/// [`Channel::verdict`]. [`tick`](Channel::tick) executes it and
/// [`next_event`](Channel::next_event) maps it to a horizon, so the two
/// cannot disagree.
enum Verdict {
    /// A refresh command fires this cycle.
    Refresh(RefreshModel),
    /// Nothing moves and nothing is charged before the given cycle: a
    /// refresh pause, or an empty queue until the next refresh trigger.
    Rest(u64),
    /// The queue holds work: this cycle's FR-FCFS decisions.
    Work {
        /// The ready prefix, extended over newly ready leading entries.
        prefix: usize,
        /// Window index of the oldest request whose demand activation
        /// issues this cycle (at most one per cycle, on the command path).
        activate: Option<usize>,
        /// What the data path does.
        serve: Serve,
    },
}

/// The data path of one [`Verdict::Work`].
enum Serve {
    /// Window index of the word that crosses this cycle.
    Now(usize),
    /// No word crosses before this cycle: a row-ready request's pacing
    /// slot, or `u64::MAX` when no request in the window is row-ready.
    Wait(u64),
}

impl Channel {
    /// Creates an idle channel.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` breaks the validated geometry [`ChannelConfig`]
    /// states.
    pub fn new(cfg: ChannelConfig) -> Channel {
        if let Some(rule) = cfg.geometry_error() {
            panic!("invalid channel geometry: {rule}");
        }
        Channel {
            queue: VecDeque::with_capacity(cfg.queue_capacity),
            ready_units: 0,
            words_in_burst: 0,
            open_rows: vec![None; cfg.banks as usize],
            bank_ready: vec![0; cfg.banks as usize],
            refresh_until: 0,
            refreshes: 0,
            quiet_until: 0,
            ready_prefix: 0,
            row_shift: cfg.row_bytes.trailing_zeros(),
            bank_shift: cfg.banks.trailing_zeros(),
            den_shift: cfg.cpw_den.trailing_zeros(),
            faults: None,
            fault_base: 0,
            fault_span: 0,
            words_read: 0,
            words_written: 0,
            row_misses: 0,
            busy_cycles: 0,
            zero_words_read: 0,
            zero_words_written: 0,
            zero_read_runs: 0,
            prev_read_zero: false,
            cfg,
        }
    }

    /// Attaches (or detaches) a fault lens, with the address region
    /// `[base, base + span)` that this channel's background upsets land
    /// in. Clears the null-tick memo: it was proven without the lens's
    /// horizon clamp.
    pub fn set_faults(&mut self, faults: Option<DramFaults>, base: u64, span: u64) {
        self.faults = faults;
        self.fault_base = base;
        self.fault_span = span;
        self.quiet_until = 0;
    }

    /// The attached fault lens, if any (counter access for reporting).
    pub fn faults(&self) -> Option<&DramFaults> {
        self.faults.as_ref()
    }

    /// Remaining request-queue slots.
    pub fn free_slots(&self) -> usize {
        self.cfg.queue_capacity - self.queue.len()
    }

    /// Queued requests not yet serviced.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Submits a request. Returns `false` (and drops nothing — the caller
    /// keeps ownership semantics trivial because `Request: Copy`) when the
    /// queue is full; the caller should retry on a later cycle.
    pub fn try_enqueue(&mut self, req: Request) -> bool {
        if self.queue.len() >= self.cfg.queue_capacity {
            return false;
        }
        self.queue.push_back(req);
        // A fresh request may be serviceable immediately.
        self.quiet_until = 0;
        true
    }

    /// `ready_units.div_ceil(cpw_den)`: the cycle at which the next word
    /// may cross.
    #[inline]
    fn ready_cycle(&self) -> u64 {
        (self.ready_units + ((1u64 << self.den_shift) - 1)) >> self.den_shift
    }

    /// The global row number of queued request `i`.
    #[inline]
    fn row_of(&self, i: usize) -> u64 {
        self.queue[i].addr >> self.row_shift
    }

    /// Splits a global row number into `(bank, row-within-bank)`.
    #[inline]
    fn bank_row(&self, row_global: u64) -> (usize, u64) {
        (
            (row_global & ((1u64 << self.bank_shift) - 1)) as usize,
            row_global >> self.bank_shift,
        )
    }

    /// The FR-FCFS scheduling window: the first [`SCHED_WINDOW`] queued
    /// requests.
    fn window(&self) -> usize {
        SCHED_WINDOW.min(self.queue.len())
    }

    /// Opens `row_global`'s row (callers have checked
    /// [`may_activate`](Self::may_activate)).
    fn activate(&mut self, row_global: u64, now: u64) {
        let (bank, row) = self.bank_row(row_global);
        self.open_rows[bank] = Some(row);
        self.bank_ready[bank] = now + u64::from(self.cfg.row_miss_penalty);
        self.row_misses += 1;
    }

    /// Bit `b` set ⇔ bank `b`'s currently open row is still needed by a
    /// request in the first `window` queue entries (closing it would
    /// livelock — see [`may_activate`](Self::may_activate)). One pass over
    /// the window, so each activation candidate is checked in O(1).
    fn window_needed(&self, window: usize) -> u64 {
        let mut needed = 0u64;
        for i in 0..window {
            let (b, r) = self.bank_row(self.row_of(i));
            if self.open_rows[b] == Some(r) {
                needed |= 1u64 << b;
            }
        }
        needed
    }

    /// Would an activation for `row_global` issue at `now`? Its bank must
    /// be past its last activation, not already holding (or opening) that
    /// row, and — crucially — not holding a row that a request in the
    /// scheduling window still waits on (closing such a row would let two
    /// streams sharing a bank livelock by ping-ponging activations).
    /// `needed` caches [`window_needed`](Self::window_needed) for the
    /// first `window` entries: computed on first use, and reset by the
    /// caller after an activation changes an open row.
    fn may_activate(
        &self,
        row_global: u64,
        now: u64,
        window: usize,
        needed: &mut Option<u64>,
    ) -> bool {
        let (bank, row) = self.bank_row(row_global);
        if self.open_rows[bank] == Some(row) || self.bank_ready[bank] > now {
            return false;
        }
        // A set bit implies the bank's row is open *and* needed; a bank
        // with no open row never has its bit set.
        let mask = *needed.get_or_insert_with(|| self.window_needed(window));
        mask & (1u64 << bank) == 0
    }

    /// The earliest in-flight activation completing strictly after `now`,
    /// or `u64::MAX` if none is pending: a scan of at most 64 banks, each
    /// holding its latest activation's completion.
    fn next_bank_ready(&self, now: u64) -> u64 {
        self.bank_ready
            .iter()
            .copied()
            .filter(|&t| t > now)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// The next refresh-trigger cycle strictly after `now`, or `u64::MAX`
    /// when refresh is disabled. Assumes a trigger is not due at `now`
    /// itself (the caller checks that first).
    fn next_refresh_trigger(&self) -> u64 {
        match self.cfg.refresh {
            Some(r) => ((self.refreshes + 1) * r.interval).max(self.refresh_until),
            None => u64::MAX,
        }
    }

    /// Everything the tick at `now` decides, without side effects (the
    /// null-tick memo aside, which its callers check first).
    fn verdict(&self, now: u64) -> Verdict {
        // Refresh: all-bank pause every t_REFI, closing every row.
        if now < self.refresh_until {
            return Verdict::Rest(self.refresh_until);
        }
        if let Some(r) = self
            .cfg
            .refresh
            .filter(|r| now / r.interval > self.refreshes)
        {
            return Verdict::Refresh(r);
        }
        if self.queue.is_empty() {
            return Verdict::Rest(self.next_refresh_trigger());
        }
        // Extend the known-ready prefix over newly ready leading entries.
        // Each serve shrinks it by at most one, so the extension work is
        // amortized O(1) per served word.
        let window = self.window();
        let mut prefix = self.ready_prefix.min(window);
        while prefix < window && self.row_ready_idx(prefix, now) {
            prefix += 1;
        }
        // Command path: (at most) one demand activation per cycle, for the
        // oldest request in the window whose row is not open and whose
        // bank permits it. Prefix entries are row-ready and never
        // candidates.
        let mut needed = None;
        let activate = (prefix..window).find(|&i| {
            !self.row_ready_idx(i, now)
                && self.may_activate(self.row_of(i), now, window, &mut needed)
        });
        // Data path (FR-FCFS): the oldest request whose row is open and
        // activated, after this cycle's activation; the queue head when the
        // prefix is non-empty. Only a zero-penalty activation readies a
        // request, its own first: no ready request shares its bank (the
        // needed guard), and an earlier one on its row would have been the
        // candidate.
        let pick = if prefix > 0 {
            Some(0)
        } else {
            let opened = activate.filter(|_| self.cfg.row_miss_penalty == 0);
            (0..window).find(|&i| Some(i) == opened || self.row_ready_idx(i, now))
        };
        // Rational rate pacing: next transfer at ceil(ready_units / cpw_den).
        let serve = match pick {
            Some(i) if now >= self.ready_cycle() => Serve::Now(i),
            Some(_) => Serve::Wait(self.ready_cycle()),
            None => Serve::Wait(u64::MAX),
        };
        Verdict::Work {
            prefix,
            activate,
            serve,
        }
    }

    /// The earliest future cycle at which [`tick`](Channel::tick) could do
    /// anything other than a *null tick* (a tick whose only effect is the
    /// per-cycle busy accounting [`skip`](Channel::skip) reproduces).
    ///
    /// `None` means "tick me this cycle": the channel would issue a refresh
    /// or an activation, or serve a word, at `now`. `Some(u64::MAX)` means
    /// the channel is idle and only external enqueues can wake it.
    ///
    /// With a fault lens attached, **every** return path is additionally
    /// clamped to the lens's next scheduled background upset: a fault due
    /// inside a promised quiet window would otherwise be jumped over by
    /// the fast-forward loop and the skipping/naive runs would diverge.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        // The null-tick memo doubles as a horizon cache: a previous tick
        // proved (with fault clamping) that every cycle before
        // `quiet_until` is null, and `try_enqueue`/`set_faults` invalidate
        // the proof, so probing inside the window needs no rescan.
        if now < self.quiet_until {
            return Some(self.quiet_until);
        }
        // Otherwise a waiting channel can only change state at its pacing
        // slot, the next refresh trigger, or when an in-flight activation
        // completes (making a request row-ready, or a blocked bank free
        // for a demand activation).
        let base = match self.verdict(now) {
            Verdict::Rest(t) => Some(t),
            Verdict::Work {
                activate: None,
                serve: Serve::Wait(t),
                ..
            } => Some(
                t.min(self.next_refresh_trigger())
                    .min(self.next_bank_ready(now)),
            ),
            Verdict::Refresh(_) | Verdict::Work { .. } => None,
        };
        match &self.faults {
            Some(f) => f.clamp(now, base),
            None => base,
        }
    }

    /// Bulk-charges the per-cycle accounting of the null ticks in
    /// `[from, to)`, a range this channel declared quiescent via
    /// [`next_event`](Channel::next_event): ticks inside a refresh pause
    /// touch nothing; ticks over a non-empty queue charge one busy cycle
    /// each, exactly as the naive loop would.
    pub fn skip(&mut self, from: u64, to: u64) {
        if from < self.refresh_until {
            return;
        }
        if !self.queue.is_empty() {
            self.busy_cycles += to - from;
        }
    }

    /// Records that the tick at `now` turned out null: if (given the
    /// channel's *post-tick* state) nothing can happen before some future
    /// cycle, memoize that horizon so the ticks in between shortcut. When
    /// this tick did issue an activation that unblocks further command-path
    /// work next cycle, [`next_event`](Channel::next_event) returns `None`
    /// and no memo is set.
    fn note_quiet(&mut self, now: u64) {
        if let Some(h) = self.next_event(now) {
            self.quiet_until = h;
        }
    }

    /// Queued request `i`'s bank is open on its row and past its activation
    /// time.
    fn row_ready_idx(&self, i: usize, now: u64) -> bool {
        let (bank, row) = self.bank_row(self.row_of(i));
        self.open_rows[bank] == Some(row) && self.bank_ready[bank] <= now
    }

    /// Advances one reference cycle. Returns the completion if a word
    /// crossed the channel this cycle.
    pub fn tick(&mut self, now: u64, storage: &mut Storage) -> Option<Completion> {
        // Background upsets fire first: they are scheduled at absolute
        // cycles independent of channel activity (next_event clamps to
        // them, so this tick happens in both loop modes). An upset flips
        // one stored bit in the channel's region; upsets aimed at pages
        // the host never wrote hit cells no request will ever read, and
        // are counted without materializing the page.
        if let Some(f) = &mut self.faults {
            while f.upset_due(now) {
                let (sel, bit) = f.pop_upset();
                let words = (self.fault_span / 4).max(1);
                let addr = self.fault_base + (sel % words) * 4;
                if storage.page_resident(addr) {
                    let flipped = storage.read_u32(addr) ^ (1 << bit);
                    storage.write_u32(addr, flipped);
                    f.counts.upsets += 1;
                } else {
                    f.counts.upsets_absorbed += 1;
                }
            }
        }
        if now < self.quiet_until {
            // A previous tick proved every cycle before `quiet_until` is a
            // null tick over a non-empty queue, with no refresh trigger or
            // pause inside (and `try_enqueue` invalidates the proof), so
            // only the busy-cycle charge remains.
            self.busy_cycles += 1;
            return None;
        }
        let mut verdict = self.verdict(now);
        if let Verdict::Refresh(r) = verdict {
            self.refreshes = now / r.interval;
            self.refresh_until = now + r.duration;
            self.open_rows.iter_mut().for_each(|b| *b = None);
            // Every row just closed: the ready-prefix proof is void.
            self.ready_prefix = 0;
            verdict = self.verdict(now);
        }
        let Verdict::Work {
            prefix,
            activate,
            serve,
        } = verdict
        else {
            return None;
        };
        self.busy_cycles += 1;
        self.ready_prefix = prefix;
        if let Some(i) = activate {
            self.activate(self.row_of(i), now);
        }
        let Serve::Now(pick) = serve else {
            self.note_quiet(now);
            return None;
        };
        let req = self.queue[pick];

        // If the channel has been idle past its scheduled slot (no work, or
        // a row stall), re-anchor pacing at `now`; within a paced stream
        // `now == ready_cycle` and the fractional remainder is preserved.
        let den = u64::from(self.cfg.cpw_den);
        if now > self.ready_cycle() {
            self.ready_units = now * den;
        }

        // Serve the word.
        self.queue.remove(pick);
        let row_global = req.addr >> self.row_shift;
        if pick < self.ready_prefix {
            self.ready_prefix -= 1;
        }
        self.busy_cycles += 1;
        let data = match req.kind {
            RequestKind::Read => {
                self.words_read += 1;
                // A 64-bit word crosses as two 32-bit halves, low first,
                // each through the fault lens on its own.
                let mut word = 0;
                for half in 0..u64::from(self.cfg.word_bits / 32) {
                    let addr = req.addr + 4 * half;
                    let mut v = storage.read_u32(addr);
                    if let Some(f) = &mut self.faults {
                        v = f.filter_read(now, addr, v);
                    }
                    word |= u64::from(v) << (32 * half);
                }
                word
            }
            RequestKind::Write(v) => {
                self.words_written += 1;
                let bytes = (self.cfg.word_bits / 8) as usize;
                storage.write_bytes(req.addr, &v.to_le_bytes()[..bytes]);
                v
            }
            RequestKind::Write16(v) => {
                self.words_written += 1;
                storage.write_u16(req.addr, v);
                u64::from(v)
            }
        };

        // Sparsity classification on the value that actually crossed the
        // channel (post-fault for reads): a zero-run-aware compressor or a
        // transfer-gated link could elide these words. Timing and energy
        // above are untouched — see DESIGN.md §13.
        match req.kind {
            RequestKind::Read => {
                let zero = data == 0;
                if zero {
                    self.zero_words_read += 1;
                    if !self.prev_read_zero {
                        self.zero_read_runs += 1;
                    }
                }
                self.prev_read_zero = zero;
            }
            RequestKind::Write(_) | RequestKind::Write16(_) => {
                if data == 0 {
                    self.zero_words_written += 1;
                }
            }
        }

        // Schedule the next word: one word time, plus the burst gap when a
        // burst completes.
        self.ready_units += u64::from(self.cfg.cpw_num);
        self.words_in_burst += 1;
        if self.words_in_burst == self.cfg.burst_len {
            self.words_in_burst = 0;
            self.ready_units += u64::from(self.cfg.inter_burst_gap) * den;
        }

        // Activate-ahead for sequential streams: while row R streams, make
        // sure rows R+1 and R+2 are opening in their (interleaved) banks so
        // the stream never waits on tCL+tRCD in steady state.
        let window = self.window();
        let mut needed = None;
        for ahead in [row_global + 1, row_global + 2] {
            if self.may_activate(ahead, now, window, &mut needed) {
                self.activate(ahead, now);
                needed = None;
            }
        }

        Some(Completion {
            addr: req.addr,
            tag: req.tag,
            data,
            cycle: now,
        })
    }

    /// Row-buffer misses (activations) since construction.
    pub fn row_misses(&self) -> u64 {
        self.row_misses
    }

    /// Cycles during which the channel was processing or stalled on work.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Refresh commands issued.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Read words whose (post-fault) payload was all zero.
    pub fn zero_words_read(&self) -> u64 {
        self.zero_words_read
    }

    /// Written words whose payload was all zero.
    pub fn zero_words_written(&self) -> u64 {
        self.zero_words_written
    }

    /// Maximal runs of consecutive zero read words on this channel — the
    /// unit a zero-run compressor would replace with a single run header.
    pub fn zero_read_runs(&self) -> u64 {
        self.zero_read_runs
    }

    /// Total bits moved across the channel.
    pub fn bits_transferred(&self) -> u64 {
        (self.words_read + self.words_written) * u64::from(self.cfg.word_bits)
    }

    /// DRAM access energy consumed so far, in joules (pJ/bit × bits).
    /// When the SECDED model is on, every decoded word moves 7 check bits
    /// alongside its 32 data bits and those bits are charged at the same
    /// pJ/bit (decode-logic energy is accounted separately — see
    /// `neurocube_power::hmc::secded_overhead_j`).
    pub(crate) fn energy_joules(&self) -> f64 {
        let mut bits = self.bits_transferred();
        if let Some(f) = &self.faults {
            if f.ecc_enabled() {
                bits += f.counts.ecc_words * u64::from(neurocube_fault::SECDED_CHECK_BITS);
            }
        }
        bits as f64 * self.cfg.energy_pj_per_bit * 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// JEDEC-typical refresh at the 5 GHz reference clock.
    const JEDEC_REFRESH: RefreshModel = RefreshModel {
        interval: 39_000,
        duration: 1_750,
    };

    fn run_reads(cfg: ChannelConfig, n: usize) -> (u64, Vec<u64>) {
        let mut ch = Channel::new(cfg);
        let mut storage = Storage::new();
        for i in 0..n {
            // sequential words
            let addr = (i as u64) * u64::from(cfg.word_bits / 8);
            storage.write_u32(addr, i as u32);
            assert!(ch.try_enqueue(Request {
                addr,
                tag: i as u64,
                kind: RequestKind::Read,
            }));
        }
        let mut cycles = Vec::new();
        let mut now = 0u64;
        while cycles.len() < n {
            if let Some(c) = ch.tick(now, &mut storage) {
                cycles.push(c.cycle);
            }
            now += 1;
            assert!(now < 1_000_000, "channel deadlocked");
        }
        (now, cycles)
    }

    #[test]
    fn hmc_sustained_bandwidth_is_16gbps() {
        // 8 words x 4 B per 10 cycles at 5 GHz (see module docs on the
        // calibration against the paper's reported utilization).
        let cfg = ChannelConfig::hmc_int();
        assert!((cfg.avg_bandwidth_gbps() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn ddr3_config_matches_table1_bandwidth() {
        let cfg = ChannelConfig::ddr3();
        assert!((cfg.avg_bandwidth_gbps() - 12.8).abs() < 1e-9);
    }

    #[test]
    fn hmc_burst_pattern_8_on_2_off() {
        let mut cfg = ChannelConfig::hmc_int();
        cfg.row_miss_penalty = 0; // isolate burst pacing
        let (_, cycles) = run_reads(cfg, 24);
        // First burst back-to-back.
        assert_eq!(&cycles[0..8], &[0, 1, 2, 3, 4, 5, 6, 7]);
        // Next burst starts after the 2-cycle t_CCD gap.
        assert_eq!(cycles[8], 10);
        assert_eq!(cycles[16], 20);
    }

    #[test]
    fn row_miss_stalls_then_streams() {
        let cfg = ChannelConfig::hmc_int();
        let (_, cycles) = run_reads(cfg, 8);
        let penalty = u64::from(cfg.row_miss_penalty);
        assert_eq!(cycles[0], penalty); // first access activates the row
        assert_eq!(cycles[7], penalty + 7);
    }

    #[test]
    fn sequential_stream_crosses_rows_with_interleaved_banks() {
        // 256-byte rows = 64 words; bank interleave means each new row costs
        // one activation, but only 8 activations total for 8 banks' worth.
        let mut cfg = ChannelConfig::hmc_int();
        cfg.queue_capacity = 1024;
        let mut ch = Channel::new(cfg);
        let mut storage = Storage::new();
        for i in 0..512u64 {
            assert!(ch.try_enqueue(Request {
                addr: i * 4,
                tag: i,
                kind: RequestKind::Read
            }));
        }
        let mut now = 0;
        let mut done = 0;
        while done < 512 {
            if ch.tick(now, &mut storage).is_some() {
                done += 1;
            }
            now += 1;
            assert!(now < 1_000_000);
        }
        // 512 words x 4B = 2 KiB = 8 rows; with activate-ahead the
        // controller also opens up to two rows past the stream's end.
        assert!((8..=10).contains(&ch.row_misses()), "{}", ch.row_misses());
    }

    #[test]
    fn ddr3_rate_is_8_words_per_25_cycles() {
        let mut cfg = ChannelConfig::ddr3();
        cfg.row_miss_penalty = 0;
        let (_, cycles) = run_reads(cfg, 16);
        // Ideal times: k * 25/8 -> ceil: 0,4,7,10,13,16,19,22,25,...
        assert_eq!(cycles[0], 0);
        assert_eq!(cycles[8], 25);
        // Average rate preserved exactly over the window.
        assert_eq!(cycles[15], (15u64 * 25).div_ceil(8));
    }

    #[test]
    fn reads_return_stored_data() {
        let cfg = ChannelConfig::hmc_int();
        let mut ch = Channel::new(cfg);
        let mut storage = Storage::new();
        storage.write_u32(0x40, 0xDEAD_BEEF);
        ch.try_enqueue(Request {
            addr: 0x40,
            tag: 7,
            kind: RequestKind::Read,
        });
        let mut now = 0;
        loop {
            if let Some(c) = ch.tick(now, &mut storage) {
                assert_eq!(c.data, 0xDEAD_BEEF);
                assert_eq!(c.tag, 7);
                break;
            }
            now += 1;
        }
    }

    #[test]
    fn writes_land_in_storage_and_count_energy() {
        let cfg = ChannelConfig::hmc_int();
        let mut ch = Channel::new(cfg);
        let mut storage = Storage::new();
        ch.try_enqueue(Request {
            addr: 0x10,
            tag: 0,
            kind: RequestKind::Write(0x1234_5678),
        });
        let mut now = 0;
        while ch.tick(now, &mut storage).is_none() {
            now += 1;
        }
        assert_eq!(storage.read_u32(0x10), 0x1234_5678);
        assert_eq!(ch.words_written, 1);
        assert_eq!(ch.bits_transferred(), 32);
        assert!((ch.energy_joules() - 32.0 * 3.7e-12).abs() < 1e-18);
    }

    #[test]
    fn zero_words_classify_without_touching_timing_or_energy() {
        // Pattern: Z Z N Z N N Z Z Z — 3 zero runs, 6 zero reads.
        let values: [u32; 9] = [0, 0, 7, 0, 9, 9, 0, 0, 0];
        let run = |vals: &[u32]| {
            let mut ch = Channel::new(ChannelConfig::hmc_int());
            let mut storage = Storage::new();
            for (i, &v) in vals.iter().enumerate() {
                let addr = i as u64 * 4;
                storage.write_u32(addr, v);
                assert!(ch.try_enqueue(Request {
                    addr,
                    tag: i as u64,
                    kind: RequestKind::Read,
                }));
            }
            let mut cycles = Vec::new();
            let mut now = 0u64;
            while cycles.len() < vals.len() {
                if let Some(c) = ch.tick(now, &mut storage) {
                    cycles.push(c.cycle);
                }
                now += 1;
                assert!(now < 1_000_000);
            }
            (ch, cycles)
        };
        let (ch, cycles) = run(&values);
        assert_eq!(ch.zero_words_read(), 6);
        assert_eq!(ch.zero_read_runs(), 3);
        assert_eq!(ch.zero_words_written(), 0);
        // Classification only: a dense stream of the same length has
        // identical timing and energy.
        let (dense, dense_cycles) = run(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(cycles, dense_cycles);
        assert_eq!(
            ch.energy_joules().to_bits(),
            dense.energy_joules().to_bits()
        );
        assert_eq!(dense.zero_words_read(), 0);
        assert_eq!(dense.zero_read_runs(), 0);
    }

    #[test]
    fn zero_writes_classify_for_both_write_kinds() {
        let mut ch = Channel::new(ChannelConfig::hmc_int());
        let mut storage = Storage::new();
        for (i, kind) in [
            RequestKind::Write(0),
            RequestKind::Write(3),
            RequestKind::Write16(0),
            RequestKind::Write16(5),
        ]
        .into_iter()
        .enumerate()
        {
            assert!(ch.try_enqueue(Request {
                addr: i as u64 * 4,
                tag: i as u64,
                kind,
            }));
        }
        let mut done = 0;
        let mut now = 0u64;
        while done < 4 {
            done += usize::from(ch.tick(now, &mut storage).is_some());
            now += 1;
            assert!(now < 1_000_000);
        }
        assert_eq!(ch.zero_words_written(), 2);
        assert_eq!(ch.zero_words_read(), 0);
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let mut cfg = ChannelConfig::hmc_int();
        cfg.queue_capacity = 2;
        let mut ch = Channel::new(cfg);
        let req = Request {
            addr: 0,
            tag: 0,
            kind: RequestKind::Read,
        };
        assert!(ch.try_enqueue(req));
        assert!(ch.try_enqueue(req));
        assert!(!ch.try_enqueue(req));
        assert_eq!(ch.free_slots(), 0);
    }

    #[test]
    fn refresh_steals_the_expected_bandwidth() {
        let mut cfg = ChannelConfig::hmc_int();
        cfg.queue_capacity = 4096;
        let mut with = cfg;
        with.refresh = Some(JEDEC_REFRESH);
        assert!((JEDEC_REFRESH.overhead() - 0.0449).abs() < 0.01);
        let mut results = Vec::new();
        for c in [cfg, with] {
            let mut ch = Channel::new(c);
            let mut storage = Storage::new();
            let n = 40_000u64; // spans a full refresh interval
            let mut issued = 0u64;
            let mut done = 0u64;
            let mut now = 0u64;
            let mut last = 0u64;
            while done < n {
                while issued < n
                    && ch.try_enqueue(Request {
                        addr: issued * 4,
                        tag: issued,
                        kind: RequestKind::Read,
                    })
                {
                    issued += 1;
                }
                if let Some(r) = ch.tick(now, &mut storage) {
                    done += 1;
                    last = r.cycle;
                }
                now += 1;
                assert!(now < 10_000_000);
            }
            results.push(last);
        }
        let slowdown = results[1] as f64 / results[0] as f64;
        assert!(
            (1.02..1.10).contains(&slowdown),
            "refresh slowdown {slowdown}"
        );
    }

    /// Drives a channel to completion twice — once ticking every cycle,
    /// once honoring the `next_event`/`skip` fast-forward protocol — and
    /// asserts the two runs are bitwise identical in completions and in
    /// every counter the channel reports.
    fn assert_skip_equivalent(cfg: ChannelConfig, addrs: &[u64]) {
        let mut seed = Channel::new(cfg);
        for (i, &addr) in addrs.iter().enumerate() {
            assert!(seed.try_enqueue(Request {
                addr,
                tag: i as u64,
                kind: RequestKind::Read,
            }));
        }
        let run = |mut ch: Channel, fast: bool| {
            let mut storage = Storage::new();
            let mut completions = Vec::new();
            let mut now = 0u64;
            while completions.len() < addrs.len() {
                if fast {
                    if let Some(t) = ch.next_event(now) {
                        assert!(t > now, "horizon must be in the future");
                        assert_ne!(t, u64::MAX, "channel with work cannot sleep forever");
                        ch.skip(now, t);
                        now = t;
                        continue;
                    }
                }
                if let Some(c) = ch.tick(now, &mut storage) {
                    completions.push(c);
                }
                now += 1;
                assert!(now < 10_000_000, "channel deadlocked");
            }
            (
                completions,
                ch.busy_cycles(),
                ch.words_read,
                ch.row_misses(),
                ch.refreshes(),
            )
        };
        let naive = run(seed.clone(), false);
        let fast = run(seed, true);
        assert_eq!(naive, fast);
    }

    #[test]
    fn next_event_skip_is_bitwise_identical_to_naive_ticking() {
        // A bank-thrashing pattern (same bank, alternating rows) maximizes
        // row-activation waits — the regime fast-forward exists for.
        let thrash: Vec<u64> = (0..32u64)
            .map(|i| (i % 2) * 16 * 256 + (i / 2) * 4)
            .collect();
        assert_skip_equivalent(ChannelConfig::hmc_int(), &thrash);
        // A sequential stream exercises burst gaps and activate-ahead.
        let seq: Vec<u64> = (0..64u64).map(|i| i * 4).collect();
        assert_skip_equivalent(ChannelConfig::hmc_int(), &seq);
        // DDR3's rational pacing (25/8 cycles per word).
        assert_skip_equivalent(ChannelConfig::ddr3(), &seq);
        // Refresh pauses and triggers crossed by jumps. The interval must
        // comfortably exceed the row-activation penalty or the all-bank
        // refresh forever closes rows before they finish opening.
        let mut refreshing = ChannelConfig::hmc_int();
        refreshing.refresh = Some(RefreshModel {
            interval: 500,
            duration: 60,
        });
        assert_skip_equivalent(refreshing, &thrash);
    }

    #[test]
    fn fault_mode_skip_is_bitwise_identical_and_horizons_clamp_to_upsets() {
        use neurocube_fault::{DramFaults, FaultConfig};
        let mut fcfg = FaultConfig::uniform(0x5EED, 1e-4);
        fcfg.dram_upset_rate = 1e-2; // several scheduled upsets per run
        fcfg.ecc = true;
        let cfg = ChannelConfig::hmc_int();
        let mut seed = Channel::new(cfg);
        seed.set_faults(Some(DramFaults::new(&fcfg, 0)), 0, 1 << 16);
        // A thrashing pattern with long activation waits: quiet windows
        // that scheduled upsets must cut short.
        let addrs: Vec<u64> = (0..32u64)
            .map(|i| (i % 2) * 16 * 256 + (i / 2) * 4)
            .collect();
        for (i, &addr) in addrs.iter().enumerate() {
            assert!(seed.try_enqueue(Request {
                addr,
                tag: i as u64,
                kind: RequestKind::Read,
            }));
        }
        let run = |mut ch: Channel, fast: bool| {
            let mut storage = Storage::new();
            // Materialize the upset window so background flips land on
            // resident pages and are observable through later reads.
            for a in (0u64..(1 << 16)).step_by(4) {
                storage.write_u32(a, (a as u32).wrapping_mul(0x9E37_79B9));
            }
            let mut completions = Vec::new();
            let mut now = 0u64;
            while completions.len() < addrs.len() {
                if fast {
                    if let Some(t) = ch.next_event(now) {
                        assert!(t > now, "horizon must be in the future");
                        assert!(
                            t <= ch.faults().unwrap().next_upset(),
                            "a quiet window may never cross a scheduled upset"
                        );
                        ch.skip(now, t);
                        now = t;
                        continue;
                    }
                }
                if let Some(c) = ch.tick(now, &mut storage) {
                    completions.push(c);
                }
                now += 1;
                assert!(now < 10_000_000, "channel deadlocked");
            }
            let counts = ch.faults().unwrap().counts;
            (completions, ch.busy_cycles(), ch.row_misses(), counts)
        };
        let naive = run(seed.clone(), false);
        let fast = run(seed, true);
        assert_eq!(naive, fast, "fault-mode skip diverged from naive");
        assert!(
            naive.3.upsets > 0,
            "the schedule must actually fire inside the run"
        );
        assert_eq!(naive.3.ecc_words, 32, "every read word is ECC-decoded");
    }

    #[test]
    fn zero_rate_lens_leaves_the_channel_bitwise_unchanged() {
        use neurocube_fault::{DramFaults, FaultConfig};
        let addrs: Vec<u64> = (0..48u64).map(|i| i * 4).collect();
        let build = |lens: bool| {
            let mut ch = Channel::new(ChannelConfig::hmc_int());
            if lens {
                let fcfg = FaultConfig::uniform(7, 0.0);
                ch.set_faults(Some(DramFaults::new(&fcfg, 0)), 0, 1 << 16);
            }
            for (i, &addr) in addrs.iter().enumerate() {
                assert!(ch.try_enqueue(Request {
                    addr,
                    tag: i as u64,
                    kind: RequestKind::Read,
                }));
            }
            let mut storage = Storage::new();
            for (i, &addr) in addrs.iter().enumerate() {
                storage.write_u32(addr, i as u32 * 3);
            }
            let mut completions = Vec::new();
            let mut now = 0u64;
            while completions.len() < addrs.len() {
                if let Some(c) = ch.tick(now, &mut storage) {
                    completions.push(c);
                }
                now += 1;
                assert!(now < 1_000_000);
            }
            (completions, ch.busy_cycles(), ch.energy_joules().to_bits())
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn next_event_horizon_promises_only_null_ticks() {
        // At every cycle of a run, a reported horizon must mean the naive
        // tick is a null tick (no completion, busy-only accounting) for
        // the whole skipped range.
        let cfg = ChannelConfig::hmc_int();
        let mut ch = Channel::new(cfg);
        let mut storage = Storage::new();
        for i in 0..24u64 {
            ch.try_enqueue(Request {
                addr: i * 997 * 4, // scattered: plenty of row misses
                tag: i,
                kind: RequestKind::Read,
            });
        }
        let mut done = 0;
        let mut now = 0u64;
        while done < 24 {
            let horizon = ch.next_event(now);
            let busy_before = ch.busy_cycles();
            let misses_before = ch.row_misses();
            let served = ch.tick(now, &mut storage);
            if let Some(t) = horizon {
                assert!(t > now);
                assert!(served.is_none(), "promised null tick served at {now}");
                assert_eq!(ch.row_misses(), misses_before);
                assert!(ch.busy_cycles() <= busy_before + 1);
            }
            done += u64::from(served.is_some());
            now += 1;
            assert!(now < 1_000_000);
        }
    }

    #[test]
    fn idle_channel_reanchors_pacing() {
        let mut cfg = ChannelConfig::hmc_int();
        cfg.row_miss_penalty = 0;
        let mut ch = Channel::new(cfg);
        let mut storage = Storage::new();
        let req = Request {
            addr: 0,
            tag: 0,
            kind: RequestKind::Read,
        };
        ch.try_enqueue(req);
        assert!(ch.tick(0, &mut storage).is_some());
        // Long idle period, then a new request must be served immediately,
        // not delayed by phantom accumulated burst position.
        ch.try_enqueue(req);
        assert!(ch.tick(1000, &mut storage).is_some());
    }
}
