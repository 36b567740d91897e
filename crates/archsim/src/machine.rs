//! The many-core machine: cores, threads, scheduler and memory system.
//!
//! Execution is window-driven: the caller advances the machine in small
//! time windows (e.g. the 1000-cycle energy-sampling interval of Section
//! 8.1) and receives the energy dissipated per window, which the sprint
//! runtime feeds into the thermal model. Within a window each powered core
//! runs its assigned threads in order; cross-core interactions (coherence,
//! barrier releases, memory-channel queueing) are resolved at operation
//! granularity with at most one window of ordering skew.
//!
//! Timing follows the paper's model: in-order cores with a CPI of one plus
//! cache miss penalties, a shared LLC with directory coherence, and a
//! dual-channel bandwidth-limited memory interface.

use crate::cache::{L1Cache, LineState};
use crate::config::MachineConfig;
use crate::energy::EnergyModel;
use crate::isa::{Op, OpClass};
use crate::llc::{DirEntry, Llc};
use crate::memctl::MemoryController;
use crate::program::{Inbox, Kernel, KernelStatus, TaskFetch, ThreadId};
use crate::stats::Stats;
use crate::sync::{BarrierState, LockPool, TaskQueues};

/// Result of running one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowReport {
    /// Dynamic energy dissipated during the window, joules.
    pub energy_j: f64,
    /// Instructions retired during the window.
    pub instructions: u64,
    /// True once every thread has finished.
    pub all_done: bool,
    /// Machine time at the end of the window, picoseconds.
    pub time_ps: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    AtBarrier,
    Done,
}

struct Thread {
    kernel: Box<dyn Kernel>,
    buf: Vec<Op>,
    cursor: usize,
    inbox: Inbox,
    state: ThreadState,
    /// Kernel returned `Done`; thread finishes when the buffer drains.
    done_pending: bool,
}

impl Thread {
    /// Marks the thread done and drops its kernel (with everything the
    /// kernel holds, such as its task's input data) and its op buffer.
    /// The slot itself stays, so thread ids and run-queue order never
    /// shift.
    fn retire(&mut self) {
        self.state = ThreadState::Done;
        self.kernel = Box::new(Retired);
        self.buf = Vec::new();
        self.cursor = 0;
        self.done_pending = false;
    }
}

/// The kernel a retired thread's slot keeps: zero-sized, so boxing it
/// allocates nothing.
struct Retired;

impl Kernel for Retired {
    fn step(&mut self, _: ThreadId, _: &mut Inbox, _: &mut Vec<Op>) -> KernelStatus {
        KernelStatus::Done
    }
}

impl std::fmt::Debug for Thread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Thread")
            .field("state", &self.state)
            .field("pending_ops", &(self.buf.len() - self.cursor))
            .finish_non_exhaustive()
    }
}

#[derive(Debug, Clone)]
struct CoreState {
    time_ps: u64,
    run_q: Vec<usize>,
    rr: usize,
    powered: bool,
}

/// The memory hierarchy shared by all cores.
#[derive(Debug)]
struct MemSystem {
    l1s: Vec<L1Cache>,
    llc: Llc,
    memctl: MemoryController,
    energy: EnergyModel,
    llc_hit_ps: u64,
    /// Extra latency for directory interventions (remote L1 access).
    remote_penalty_ps: u64,
    /// `log2` of the line size: an address's line number is
    /// `addr >> line_shift`.
    line_shift: u32,
}

struct AccessOutcome {
    extra_latency_ps: u64,
    energy_j: f64,
}

impl MemSystem {
    /// Performs a coherent load/store for `core`, returning extra latency
    /// beyond the single issue cycle plus the energy consumed.
    fn access(
        &mut self,
        core: usize,
        addr: u64,
        is_store: bool,
        now_ps: u64,
        stats: &mut Stats,
    ) -> AccessOutcome {
        let line = addr >> self.line_shift;
        let bit = 1u64 << core;
        let mut latency = 0u64;
        let mut energy = self.energy.l1_access_j;
        match self.l1s[core].lookup(line) {
            Some(LineState::Modified) => {
                stats.l1_hits += 1;
            }
            Some(LineState::Exclusive) => {
                stats.l1_hits += 1;
                if is_store {
                    // Silent E -> M upgrade.
                    self.l1s[core].set_state(line, LineState::Modified);
                }
            }
            Some(LineState::Shared) => {
                stats.l1_hits += 1;
                if is_store {
                    // Upgrade: invalidate other sharers through the directory.
                    stats.upgrades += 1;
                    latency += self.llc_hit_ps;
                    energy += self.energy.llc_access_j;
                    let dir = self
                        .llc
                        .lookup_mut(line)
                        .expect("inclusive LLC must hold L1-resident line");
                    let sharers = dir.sharers & !bit;
                    dir.sharers = bit;
                    dir.owner = Some(core as u8);
                    if sharers != 0 {
                        latency += self.remote_penalty_ps;
                    }
                    for other in BitIter(sharers) {
                        self.l1s[other].invalidate(line);
                        stats.invalidations += 1;
                    }
                    self.l1s[core].set_state(line, LineState::Modified);
                }
            }
            Some(LineState::Invalid) => unreachable!("lookup never returns Invalid"),
            None => {
                stats.l1_misses += 1;
                latency += self.llc_hit_ps;
                energy += self.energy.llc_access_j;
                let insert_state;
                if let Some(dir) = self.llc.lookup_mut(line) {
                    stats.llc_hits += 1;
                    let owner = dir.owner.map(|o| o as usize);
                    if is_store {
                        let sharers = dir.sharers & !bit;
                        dir.sharers = bit;
                        dir.owner = Some(core as u8);
                        if sharers != 0 || owner.is_some_and(|o| o != core) {
                            latency += self.remote_penalty_ps;
                        }
                        if let Some(o) = owner.filter(|&o| o != core) {
                            if self.l1s[o].probe(line) == Some(LineState::Modified) {
                                stats.owner_interventions += 1;
                            }
                            self.l1s[o].invalidate(line);
                            stats.invalidations += 1;
                        }
                        for other in BitIter(sharers & !(owner.map_or(0, |o| 1 << o))) {
                            self.l1s[other].invalidate(line);
                            stats.invalidations += 1;
                        }
                        insert_state = LineState::Modified;
                    } else {
                        // Load: downgrade a remote owner, join the sharers.
                        if let Some(o) = owner.filter(|&o| o != core) {
                            latency += self.remote_penalty_ps;
                            if self.l1s[o].downgrade_to_shared(line) {
                                dir.dirty = true;
                                stats.owner_interventions += 1;
                            }
                            dir.owner = None;
                            dir.sharers |= bit;
                            insert_state = LineState::Shared;
                        } else if dir.sharers == 0 {
                            dir.sharers = bit;
                            dir.owner = Some(core as u8);
                            insert_state = LineState::Exclusive;
                        } else {
                            dir.sharers |= bit;
                            insert_state = LineState::Shared;
                        }
                    }
                } else {
                    // LLC miss: fetch from memory.
                    stats.llc_misses += 1;
                    energy += self.energy.dram_access_j;
                    let done = self.memctl.read(line, now_ps + self.llc_hit_ps);
                    latency = done.saturating_sub(now_ps);
                    insert_state = if is_store {
                        LineState::Modified
                    } else {
                        LineState::Exclusive
                    };
                    let victim = self.llc.insert(DirEntry {
                        line,
                        sharers: bit,
                        owner: Some(core as u8),
                        dirty: false,
                    });
                    if let Some(v) = victim {
                        // Inclusive eviction: back-invalidate L1 copies.
                        let mut dirty = v.entry.dirty;
                        for holder in BitIter(v.entry.sharers) {
                            if self.l1s[holder].invalidate(v.entry.line)
                                == Some(LineState::Modified)
                            {
                                dirty = true;
                            }
                            stats.invalidations += 1;
                        }
                        if dirty {
                            self.memctl.writeback(v.entry.line, now_ps);
                        }
                    }
                }
                // Install in L1; handle the displaced victim.
                if let Some(ev) = self.l1s[core].insert(line, insert_state) {
                    if let Some(dir) = self.llc.lookup_mut(ev.line) {
                        dir.sharers &= !bit;
                        if dir.owner == Some(core as u8) {
                            dir.owner = None;
                        }
                        if ev.state == LineState::Modified {
                            dir.dirty = true;
                        }
                    } else if ev.state == LineState::Modified {
                        // Victim no longer in LLC (race with inclusive
                        // eviction); write it back to memory directly.
                        self.memctl.writeback(ev.line, now_ps);
                    }
                }
            }
        }
        AccessOutcome {
            extra_latency_ps: latency,
            energy_j: energy,
        }
    }

    /// Flushes a core's L1 (used when powering a core down), writing back
    /// dirty lines and updating the directory. A core that never touched
    /// memory has no L1 slots, so its flush lists nothing and returns.
    fn flush_l1(&mut self, core: usize, now_ps: u64) {
        let bit = 1u64 << core;
        // Collect resident lines first (cannot iterate and mutate).
        for (line, state) in self.l1s[core].resident_line_list() {
            self.l1s[core].invalidate(line);
            if let Some(dir) = self.llc.lookup_mut(line) {
                dir.sharers &= !bit;
                if dir.owner == Some(core as u8) {
                    dir.owner = None;
                }
                if state == LineState::Modified {
                    dir.dirty = true;
                }
            } else if state == LineState::Modified {
                self.memctl.writeback(line, now_ps);
            }
        }
    }
}

/// Iterator over set bits of a u64 (sharer masks).
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let i = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(i)
        }
    }
}

/// The simulated many-core machine.
///
/// # Examples
///
/// ```
/// use sprint_archsim::config::MachineConfig;
/// use sprint_archsim::machine::Machine;
/// use sprint_archsim::program::SyntheticKernel;
///
/// let mut m = Machine::new(MachineConfig::hpca().with_cores(4));
/// for t in 0..4 {
///     m.spawn(Box::new(SyntheticKernel::new(8, 1000, t * 1 << 20, 64)));
/// }
/// let report = m.run_to_completion(1_000_000, 1_000_000);
/// assert!(report.all_done);
/// assert!(m.stats().instructions > 4 * 1000);
/// ```
pub struct Machine {
    cfg: MachineConfig,
    freq_multiplier: f64,
    energy_multiplier: f64,
    cycle_ps: u64,
    sleep_cycle_j: f64,
    time_ps: u64,
    active_cores: usize,
    cores: Vec<CoreState>,
    threads: Vec<Thread>,
    live_threads: usize,
    mem: MemSystem,
    barrier: BarrierState,
    locks: LockPool,
    queues: TaskQueues,
    stats: Stats,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("time_ps", &self.time_ps)
            .field("active_cores", &self.active_cores)
            .field("threads", &self.threads.len())
            .field("live_threads", &self.live_threads)
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Builds an idle machine (all cores powered, no threads).
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate();
        let cycle_ps = cfg.cycle_ps();
        let nominal_cycle_j = cfg.energy.nominal_core_power_w(cfg.freq_ghz) / (cfg.freq_ghz * 1e9);
        let mem = MemSystem {
            l1s: (0..cfg.cores).map(|_| L1Cache::new(&cfg.l1)).collect(),
            llc: Llc::new(&cfg.llc),
            memctl: MemoryController::new(&cfg.memory, cfg.llc.line_bytes),
            energy: cfg.energy,
            llc_hit_ps: cfg.llc.hit_latency_cycles * cycle_ps,
            remote_penalty_ps: 15 * cycle_ps,
            line_shift: cfg.llc.line_bytes.trailing_zeros(),
        };
        let cores = (0..cfg.cores)
            .map(|_| CoreState {
                time_ps: 0,
                run_q: Vec::new(),
                rr: 0,
                powered: true,
            })
            .collect();
        Self {
            active_cores: cfg.cores,
            sleep_cycle_j: cfg.sleep_power_fraction * nominal_cycle_j,
            freq_multiplier: 1.0,
            energy_multiplier: 1.0,
            cycle_ps,
            time_ps: 0,
            cores,
            threads: Vec::new(),
            live_threads: 0,
            mem,
            barrier: BarrierState::default(),
            locks: LockPool::default(),
            queues: TaskQueues::default(),
            stats: Stats::default(),
            cfg,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Spawns a thread running `kernel`, assigning it to the least-loaded
    /// active core. Returns its id.
    pub fn spawn(&mut self, kernel: Box<dyn Kernel>) -> ThreadId {
        let tid = self.threads.len();
        self.threads.push(Thread {
            kernel,
            buf: Vec::with_capacity(256),
            cursor: 0,
            inbox: Inbox::default(),
            state: ThreadState::Runnable,
            done_pending: false,
        });
        self.live_threads += 1;
        let core = (0..self.active_cores)
            .min_by_key(|&c| self.cores[c].run_q.len())
            .expect("at least one active core");
        self.cores[core].run_q.push(tid);
        ThreadId(tid)
    }

    /// Creates a shared task queue of `tasks` items; kernels pop from it
    /// with [`Op::FetchTask`].
    pub fn create_task_queue(&mut self, tasks: u32) -> u32 {
        self.queues.create(tasks)
    }

    /// Resets an existing task queue (multi-phase kernels).
    pub fn reset_task_queue(&mut self, queue: u32, tasks: u32) {
        self.queues.reset(queue, tasks);
    }

    /// Current machine time, picoseconds.
    pub fn time_ps(&self) -> u64 {
        self.time_ps
    }

    /// Current machine time, seconds.
    pub fn time_s(&self) -> f64 {
        self.time_ps as f64 * 1e-12
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Number of currently powered cores.
    pub fn active_cores(&self) -> usize {
        self.active_cores
    }

    /// True when all threads have finished.
    pub fn all_done(&self) -> bool {
        self.live_threads == 0 && !self.threads.is_empty()
    }

    /// Live (unfinished) thread count.
    pub fn live_threads(&self) -> usize {
        self.live_threads
    }

    /// Sets the operating point: `freq_multiplier` scales the clock (1.0 =
    /// nominal), `energy_multiplier` scales per-operation energy (V², for
    /// DVFS). Takes effect immediately.
    ///
    /// # Panics
    ///
    /// Panics unless both multipliers are positive and finite.
    pub fn set_operating_point(&mut self, freq_multiplier: f64, energy_multiplier: f64) {
        assert!(
            freq_multiplier.is_finite() && freq_multiplier > 0.0,
            "frequency multiplier must be positive"
        );
        assert!(
            energy_multiplier.is_finite() && energy_multiplier > 0.0,
            "energy multiplier must be positive"
        );
        self.freq_multiplier = freq_multiplier;
        self.energy_multiplier = energy_multiplier;
        self.cycle_ps = ((self.cfg.cycle_ps() as f64) / freq_multiplier)
            .round()
            .max(1.0) as u64;
        self.mem.llc_hit_ps = self.cfg.llc.hit_latency_cycles * self.cycle_ps;
        self.mem.remote_penalty_ps = 15 * self.cycle_ps;
        if self.cfg.idealized_dvfs_memory {
            self.mem.memctl.set_speed_multiplier(freq_multiplier);
        }
    }

    /// Current frequency multiplier.
    pub fn frequency_multiplier(&self) -> f64 {
        self.freq_multiplier
    }

    /// Powers `n` cores (clamped to the physical core count) and migrates
    /// all live threads onto them round-robin. Migration costs
    /// `migration_cost_cycles` on every receiving core and flushes the L1s
    /// of powered-down cores (write-backs included).
    pub fn set_active_cores(&mut self, n: usize) {
        let n = n.clamp(1, self.cfg.cores);
        if n == self.active_cores && self.cores[..n].iter().all(|c| c.powered) {
            return;
        }
        // Flush L1s of cores being powered down.
        for c in n..self.cfg.cores {
            if self.cores[c].powered {
                self.mem.flush_l1(c, self.time_ps);
            }
        }
        let live: Vec<usize> = (0..self.threads.len())
            .filter(|&t| self.threads[t].state != ThreadState::Done)
            .collect();
        for core in &mut self.cores {
            core.run_q.clear();
            core.rr = 0;
        }
        for (i, &t) in live.iter().enumerate() {
            self.cores[i % n].run_q.push(t);
        }
        self.stats.migrations += live.len() as u64;
        let penalty = self.cfg.migration_cost_cycles * self.cycle_ps;
        for (i, core) in self.cores.iter_mut().enumerate() {
            core.powered = i < n;
            if core.powered {
                core.time_ps = core.time_ps.max(self.time_ps) + penalty;
            }
        }
        self.active_cores = n;
    }

    /// Runs one window of `window_ps` picoseconds, returning the energy
    /// dissipated and instructions retired within it.
    pub fn run_window(&mut self, window_ps: u64) -> WindowReport {
        assert!(window_ps > 0, "window must be non-empty");
        let end = self.time_ps + window_ps;
        let e0 = self.stats.dynamic_energy_j;
        let i0 = self.stats.instructions;
        self.mem.memctl.advance_window(self.time_ps);
        for c in 0..self.cores.len() {
            if self.cores[c].powered {
                self.run_core(c, end);
            }
        }
        self.time_ps = end;
        WindowReport {
            energy_j: self.stats.dynamic_energy_j - e0,
            instructions: self.stats.instructions - i0,
            all_done: self.all_done(),
            time_ps: end,
        }
    }

    /// Convenience driver: run windows until completion or `max_windows`.
    pub fn run_to_completion(&mut self, window_ps: u64, max_windows: usize) -> WindowReport {
        let mut last = WindowReport {
            energy_j: 0.0,
            instructions: 0,
            all_done: self.all_done(),
            time_ps: self.time_ps,
        };
        for _ in 0..max_windows {
            if self.all_done() {
                break;
            }
            last = self.run_window(window_ps);
        }
        last
    }

    fn pick_thread(&mut self, c: usize) -> Option<usize> {
        let core = &mut self.cores[c];
        let n = core.run_q.len();
        for k in 0..n {
            let idx = (core.rr + k) % n;
            let t = core.run_q[idx];
            if self.threads[t].state == ThreadState::Runnable {
                core.rr = idx;
                return Some(t);
            }
        }
        None
    }

    fn run_core(&mut self, c: usize, end_ps: u64) {
        if self.cores[c].time_ps < self.time_ps {
            self.cores[c].time_ps = self.time_ps;
        }
        while self.cores[c].time_ps < end_ps {
            match self.pick_thread(c) {
                Some(t) => self.run_thread(c, t, end_ps),
                None => {
                    // No runnable thread: nap at sleep power, then recheck.
                    let nap = (self.cfg.pause_cycles * self.cycle_ps)
                        .min(end_ps - self.cores[c].time_ps)
                        .max(self.cycle_ps);
                    let cycles = nap / self.cycle_ps;
                    self.stats.sleep_cycles += cycles;
                    self.stats.dynamic_energy_j +=
                        cycles as f64 * self.sleep_cycle_j * self.energy_multiplier;
                    self.cores[c].time_ps += nap;
                }
            }
        }
    }

    /// Runs thread `t` on core `c` until it blocks, exhausts its timeslice,
    /// or the window ends.
    fn run_thread(&mut self, c: usize, t: usize, end_ps: u64) {
        let slice_end = self.cores[c].time_ps + self.cfg.timeslice_cycles * self.cycle_ps;
        let emul = self.energy_multiplier;
        loop {
            let now = self.cores[c].time_ps;
            if now >= end_ps || now >= slice_end {
                self.rotate(c);
                return;
            }
            // Refill the operation buffer if drained.
            if self.threads[t].cursor >= self.threads[t].buf.len() {
                if self.threads[t].done_pending {
                    self.finish_thread(t);
                    self.rotate(c);
                    return;
                }
                let th = &mut self.threads[t];
                th.buf.clear();
                th.cursor = 0;
                let status = th.kernel.step(ThreadId(t), &mut th.inbox, &mut th.buf);
                th.inbox = Inbox::default();
                if status == KernelStatus::Done {
                    th.done_pending = true;
                    if th.buf.is_empty() {
                        self.finish_thread(t);
                        self.rotate(c);
                        return;
                    }
                } else if th.buf.is_empty() {
                    // A running kernel that emits nothing is waiting on
                    // something external; nap to avoid a livelock.
                    th.buf.push(Op::Pause);
                }
            }
            let op = self.threads[t].buf[self.threads[t].cursor];
            match op {
                Op::Compute { class, count } => {
                    let count = u64::from(count);
                    self.cores[c].time_ps += count * self.cycle_ps;
                    let e = (self.mem.energy.compute_j(class) + self.mem.energy.active_cycle_j)
                        * count as f64
                        * emul;
                    self.stats.dynamic_energy_j += e;
                    self.stats.instructions += count;
                    self.stats.active_cycles += count;
                    match class {
                        OpClass::IntAlu => self.stats.int_alu += count,
                        OpClass::IntMul => self.stats.int_mul += count,
                        OpClass::FpAlu => self.stats.fp_alu += count,
                        OpClass::Branch => self.stats.branches += count,
                    }
                    self.threads[t].cursor += 1;
                }
                Op::Load { addr } | Op::Store { addr } => {
                    let is_store = matches!(op, Op::Store { .. });
                    let now = self.cores[c].time_ps;
                    let out = self.mem.access(c, addr, is_store, now, &mut self.stats);
                    let stall_cycles = out.extra_latency_ps / self.cycle_ps;
                    self.cores[c].time_ps += self.cycle_ps + out.extra_latency_ps;
                    // Stall cycles clock-gate most of the pipeline.
                    let stall_j = self.mem.energy.active_cycle_j
                        * self.cfg.stall_power_fraction
                        * stall_cycles as f64;
                    self.stats.dynamic_energy_j +=
                        (out.energy_j + self.mem.energy.active_cycle_j + stall_j) * emul;
                    self.stats.instructions += 1;
                    self.stats.active_cycles += 1 + stall_cycles;
                    if is_store {
                        self.stats.stores += 1;
                    } else {
                        self.stats.loads += 1;
                    }
                    self.threads[t].cursor += 1;
                }
                Op::Pause => {
                    let cycles = self.cfg.pause_cycles;
                    self.cores[c].time_ps += cycles * self.cycle_ps;
                    self.stats.dynamic_energy_j += cycles as f64 * self.sleep_cycle_j * emul;
                    self.stats.pauses += 1;
                    self.stats.sleep_cycles += cycles;
                    self.stats.instructions += 1;
                    self.threads[t].cursor += 1;
                }
                Op::Barrier => {
                    self.threads[t].cursor += 1;
                    self.cores[c].time_ps += 20 * self.cycle_ps;
                    self.stats.instructions += 1;
                    match self.barrier.arrive(t, self.live_threads) {
                        Some(released) => {
                            self.stats.barrier_episodes += 1;
                            for r in released {
                                self.threads[r].state = ThreadState::Runnable;
                            }
                            // This thread (the last arrival) continues.
                        }
                        None => {
                            self.threads[t].state = ThreadState::AtBarrier;
                            self.rotate(c);
                            return;
                        }
                    }
                }
                Op::LockAcquire { lock } => {
                    if self.locks.try_acquire(lock, t) {
                        self.cores[c].time_ps += 20 * self.cycle_ps;
                        self.stats.instructions += 1;
                        self.threads[t].cursor += 1;
                    } else {
                        // Spin with PAUSE (the paper's runtime inserts
                        // PAUSE when spinning on locks), then yield so a
                        // co-scheduled holder can make progress.
                        let cycles = self.cfg.pause_cycles;
                        self.cores[c].time_ps += cycles * self.cycle_ps;
                        self.stats.dynamic_energy_j += cycles as f64 * self.sleep_cycle_j * emul;
                        self.stats.pauses += 1;
                        self.stats.sleep_cycles += cycles;
                        self.rotate(c);
                        return;
                    }
                }
                Op::LockRelease { lock } => {
                    self.locks.release(lock, t);
                    self.cores[c].time_ps += 8 * self.cycle_ps;
                    self.stats.instructions += 1;
                    self.threads[t].cursor += 1;
                }
                Op::FetchTask { queue } => {
                    let task = self.queues.pop(queue);
                    self.threads[t].inbox.task = Some(TaskFetch { queue, task });
                    self.cores[c].time_ps += 30 * self.cycle_ps;
                    self.stats.instructions += 1;
                    self.threads[t].cursor += 1;
                }
            }
        }
    }

    fn rotate(&mut self, c: usize) {
        let core = &mut self.cores[c];
        if !core.run_q.is_empty() {
            core.rr = (core.rr + 1) % core.run_q.len();
        }
    }

    /// Verifies the coherence invariants between the L1s and the
    /// directory; returns a description of the first violation found.
    ///
    /// Invariants checked:
    /// 1. Inclusion: every L1-resident line is LLC-resident.
    /// 2. Single writer: at most one L1 holds a line in M/E, and the
    ///    directory's owner field names it.
    /// 3. Sharer precision: the directory's sharer mask covers every L1
    ///    holding the line.
    /// 4. No S+M mixing: if any L1 holds M, no other holds S.
    ///
    /// Intended for tests and debugging; cost is proportional to total L1
    /// capacity.
    pub fn check_coherence(&self) -> Result<(), String> {
        use crate::cache::LineState;
        let mut holders: std::collections::HashMap<u64, Vec<(usize, LineState)>> =
            std::collections::HashMap::new();
        for (core, l1) in self.mem.l1s.iter().enumerate() {
            for (line, state) in l1.resident_line_list() {
                holders.entry(line).or_default().push((core, state));
            }
        }
        for (line, list) in &holders {
            let dir = self
                .mem
                .llc
                .probe(*line)
                .ok_or_else(|| format!("line {line:#x} in L1s but not LLC (inclusion)"))?;
            let exclusive: Vec<_> = list
                .iter()
                .filter(|(_, s)| matches!(s, LineState::Modified | LineState::Exclusive))
                .collect();
            if exclusive.len() > 1 {
                return Err(format!(
                    "line {line:#x} exclusively held by multiple cores: {list:?}"
                ));
            }
            if let Some(&&(owner, _)) = exclusive.first() {
                if list.len() > 1 {
                    return Err(format!(
                        "line {line:#x} mixes M/E with other copies: {list:?}"
                    ));
                }
                if dir.owner != Some(owner as u8) {
                    return Err(format!(
                        "line {line:#x}: owner {owner} not recorded in directory ({:?})",
                        dir.owner
                    ));
                }
            }
            for (core, _) in list {
                if dir.sharers & (1 << core) == 0 {
                    return Err(format!(
                        "line {line:#x}: core {core} holds it but is missing from sharers {:#b}",
                        dir.sharers
                    ));
                }
            }
        }
        Ok(())
    }

    /// Kills every unfinished thread immediately, returning how many were
    /// killed. The machine-level cancel primitive behind competitive-
    /// duplicate reclamation: when another replica of the same task wins,
    /// the losing machine's threads are discarded mid-kernel rather than
    /// run to completion.
    ///
    /// Killed threads stop retiring instructions the moment this returns:
    /// their kernels and op buffers are dropped, every core's run queue
    /// is cleared,
    /// and the barrier and lock state is reset (a killed holder cannot
    /// release, and no live thread remains to wait). Caches, memory-system
    /// state, accumulated stats and machine time are left untouched — the
    /// work already executed stays on the books, exactly as a crashed
    /// node's does. After cancellation [`all_done`](Self::all_done) is
    /// true and the machine accepts fresh [`spawn`](Self::spawn)s.
    pub fn cancel_all(&mut self) -> usize {
        let mut killed = 0;
        for th in &mut self.threads {
            if th.state != ThreadState::Done {
                th.retire();
                killed += 1;
            }
        }
        self.live_threads = 0;
        for core in &mut self.cores {
            core.run_q.clear();
            core.rr = 0;
        }
        self.barrier = BarrierState::default();
        self.locks = LockPool::default();
        killed
    }

    fn finish_thread(&mut self, t: usize) {
        debug_assert_ne!(self.threads[t].state, ThreadState::Done);
        self.threads[t].retire();
        self.live_threads -= 1;
        if let Some(released) = self.barrier.recheck(self.live_threads) {
            self.stats.barrier_episodes += 1;
            for r in released {
                self.threads[r].state = ThreadState::Runnable;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{FnKernel, SyntheticKernel};

    fn small_machine(cores: usize) -> Machine {
        Machine::new(MachineConfig::hpca().with_cores(cores))
    }

    #[test]
    fn single_thread_runs_to_completion() {
        let mut m = small_machine(1);
        m.spawn(Box::new(SyntheticKernel::new(4, 500, 1 << 20, 64)));
        let r = m.run_to_completion(1_000_000, 100_000);
        assert!(r.all_done);
        assert_eq!(m.stats().loads + m.stats().stores, 500);
        assert_eq!(m.stats().int_alu, 2000);
    }

    #[test]
    fn compute_timing_is_cpi_one() {
        let mut m = small_machine(1);
        m.spawn(Box::new(FnKernel(
            move |_t, _i: &mut Inbox, out: &mut Vec<Op>| {
                out.push(Op::Compute {
                    class: OpClass::IntAlu,
                    count: 10_000,
                });
                KernelStatus::Done
            },
        )));
        // 10k cycles at 1 GHz = 10 µs (plus scheduling slack < 1 window).
        let mut windows = 0;
        while !m.all_done() {
            m.run_window(1_000_000);
            windows += 1;
            assert!(windows < 1000);
        }
        assert_eq!(m.stats().active_cycles, 10_000);
    }

    #[test]
    fn parallel_speedup_on_independent_work() {
        // Same total work on 1 vs 4 cores: the 4-core run should finish
        // close to 4x faster (compute-bound, private data).
        let run = |cores: usize| -> u64 {
            let mut m = small_machine(cores);
            for t in 0..4u64 {
                m.spawn(Box::new(SyntheticKernel::new(
                    16,
                    20_000,
                    (t + 1) << 24,
                    64,
                )));
            }
            while !m.all_done() {
                m.run_window(1_000_000);
            }
            m.time_ps()
        };
        let t1 = run(1);
        let t4 = run(4);
        let speedup = t1 as f64 / t4 as f64;
        assert!(
            (3.2..4.6).contains(&speedup),
            "expected ~4x speedup, got {speedup:.2} ({t1} vs {t4})"
        );
    }

    #[test]
    fn barrier_synchronizes_threads() {
        // Thread 0 does much more pre-barrier work; both must pass the
        // barrier before post-barrier work begins.
        let mut m = small_machine(2);
        for t in 0..2u32 {
            let mut phase = 0;
            m.spawn(Box::new(FnKernel(
                move |_tid, _i: &mut Inbox, out: &mut Vec<Op>| {
                    phase += 1;
                    match phase {
                        1 => {
                            out.push(Op::Compute {
                                class: OpClass::IntAlu,
                                count: if t == 0 { 50_000 } else { 100 },
                            });
                            out.push(Op::Barrier);
                            KernelStatus::Running
                        }
                        _ => {
                            out.push(Op::Compute {
                                class: OpClass::IntAlu,
                                count: 100,
                            });
                            KernelStatus::Done
                        }
                    }
                },
            )));
        }
        while !m.all_done() {
            m.run_window(1_000_000);
        }
        assert_eq!(m.stats().barrier_episodes, 1);
        // The fast thread must have slept (PAUSEd) while waiting.
        assert!(m.stats().sleep_cycles > 10_000);
    }

    #[test]
    fn locks_serialize_critical_sections() {
        let mut m = small_machine(4);
        for _ in 0..4 {
            let mut iters = 0;
            m.spawn(Box::new(FnKernel(
                move |_tid, _i: &mut Inbox, out: &mut Vec<Op>| {
                    iters += 1;
                    out.push(Op::LockAcquire { lock: 0 });
                    out.push(Op::Compute {
                        class: OpClass::IntAlu,
                        count: 200,
                    });
                    out.push(Op::LockRelease { lock: 0 });
                    if iters >= 5 {
                        KernelStatus::Done
                    } else {
                        KernelStatus::Running
                    }
                },
            )));
        }
        while !m.all_done() {
            m.run_window(1_000_000);
        }
        // 4 threads x 5 acquisitions each.
        assert!(m.stats().instructions > 0);
    }

    #[test]
    fn task_queue_distributes_work() {
        let mut m = small_machine(2);
        let q = m.create_task_queue(10);
        for _ in 0..2 {
            let mut fetched: Vec<u32> = Vec::new();
            let mut waiting = false;
            m.spawn(Box::new(FnKernel(
                move |_tid, inbox: &mut Inbox, out: &mut Vec<Op>| {
                    if waiting {
                        let reply = inbox.task.expect("fetch reply expected");
                        waiting = false;
                        match reply.task {
                            Some(task) => {
                                fetched.push(task);
                                out.push(Op::Compute {
                                    class: OpClass::FpAlu,
                                    count: 50,
                                });
                            }
                            None => return KernelStatus::Done,
                        }
                    }
                    out.push(Op::FetchTask { queue: q });
                    waiting = true;
                    KernelStatus::Running
                },
            )));
        }
        while !m.all_done() {
            m.run_window(1_000_000);
        }
        // All 10 tasks executed exactly once: 10 x 50 FP ops.
        assert_eq!(m.stats().fp_alu, 500);
    }

    #[test]
    fn shared_data_generates_coherence_traffic() {
        // Two threads ping-pong stores to the same line.
        let mut m = small_machine(2);
        for _ in 0..2 {
            let mut iters = 0;
            m.spawn(Box::new(FnKernel(
                move |_tid, _i: &mut Inbox, out: &mut Vec<Op>| {
                    iters += 1;
                    out.push(Op::Store { addr: 0x100000 });
                    out.push(Op::Compute {
                        class: OpClass::IntAlu,
                        count: 10,
                    });
                    if iters >= 100 {
                        KernelStatus::Done
                    } else {
                        KernelStatus::Running
                    }
                },
            )));
        }
        // A small window bounds cross-core interleaving skew, so the two
        // threads genuinely alternate ownership of the contended line.
        while !m.all_done() {
            m.run_window(10_000);
        }
        assert!(
            m.stats().invalidations > 50,
            "ping-pong stores must invalidate: {}",
            m.stats().invalidations
        );
    }

    #[test]
    fn migration_to_single_core_multiplexes() {
        let mut m = small_machine(4);
        for t in 0..4u64 {
            m.spawn(Box::new(SyntheticKernel::new(16, 5_000, (t + 1) << 24, 64)));
        }
        m.run_window(1_000_000);
        m.set_active_cores(1);
        assert_eq!(m.active_cores(), 1);
        while !m.all_done() {
            m.run_window(1_000_000);
        }
        assert!(m.stats().migrations >= 4);
        assert_eq!(m.stats().loads + m.stats().stores, 4 * 5_000);
    }

    #[test]
    fn cancel_all_kills_in_flight_threads_and_allows_respawn() {
        let mut m = small_machine(4);
        for t in 0..4u64 {
            m.spawn(Box::new(SyntheticKernel::new(
                16,
                1_000_000,
                (t + 1) << 24,
                64,
            )));
        }
        m.run_window(1_000_000);
        assert!(!m.all_done());
        let before = m.stats().instructions;
        assert_eq!(m.cancel_all(), 4);
        assert!(m.all_done());
        // Cancelled threads retire nothing further; executed work stays.
        m.run_window(1_000_000);
        assert_eq!(m.stats().instructions, before);
        // Cancelling an already-done machine is a no-op.
        assert_eq!(m.cancel_all(), 0);
        // A fresh burst runs normally on the same machine.
        let accesses_before = m.stats().loads + m.stats().stores;
        m.spawn(Box::new(SyntheticKernel::new(4, 500, 1 << 20, 64)));
        let r = m.run_to_completion(1_000_000, 100_000);
        assert!(r.all_done);
        assert_eq!(m.stats().loads + m.stats().stores, accesses_before + 500);
    }

    #[test]
    fn done_threads_release_their_kernels() {
        // A kernel's captures (a task's input data) must not outlive
        // its thread, whether it finishes or is cancelled.
        let data = std::sync::Arc::new(vec![0u8; 4096]);
        let kernel = |steps: u32| {
            let held = std::sync::Arc::clone(&data);
            let mut left = steps;
            FnKernel(move |_: ThreadId, _: &mut Inbox, out: &mut Vec<Op>| {
                out.push(Op::Compute {
                    class: OpClass::IntAlu,
                    count: held.len() as u32,
                });
                left = left.saturating_sub(1);
                if left == 0 {
                    KernelStatus::Done
                } else {
                    KernelStatus::Running
                }
            })
        };
        let mut m = small_machine(2);
        m.spawn(Box::new(kernel(3)));
        assert_eq!(std::sync::Arc::strong_count(&data), 2);
        assert!(m.run_to_completion(1_000_000, 100_000).all_done);
        assert_eq!(std::sync::Arc::strong_count(&data), 1);
        m.spawn(Box::new(kernel(u32::MAX)));
        m.run_window(100_000);
        assert_eq!(m.cancel_all(), 1);
        assert_eq!(std::sync::Arc::strong_count(&data), 1);
    }

    #[test]
    fn retired_slots_keep_thread_ids_stable() {
        // A finished thread's slot stays (only its kernel and buffer go),
        // so later spawns never reuse its id.
        let mut m = small_machine(2);
        let short = || {
            FnKernel(|_: ThreadId, _: &mut Inbox, out: &mut Vec<Op>| {
                out.push(Op::Compute {
                    class: OpClass::IntAlu,
                    count: 100,
                });
                KernelStatus::Done
            })
        };
        assert_eq!(m.spawn(Box::new(short())), ThreadId(0));
        assert!(m.run_to_completion(1_000_000, 1_000).all_done);
        assert_eq!(m.spawn(Box::new(short())), ThreadId(1));
        assert_eq!(m.live_threads(), 1);
        assert!(m.run_to_completion(1_000_000, 1_000).all_done);
        assert_eq!(m.stats().int_alu, 200);
    }

    #[test]
    fn cancel_all_releases_barrier_and_lock_state() {
        // One thread parks at the barrier, the other holds a lock; after
        // cancellation a fresh pair must synchronize cleanly.
        let mut m = small_machine(2);
        m.spawn(Box::new(FnKernel(
            |_t, _i: &mut Inbox, out: &mut Vec<Op>| {
                out.push(Op::Barrier);
                KernelStatus::Running
            },
        )));
        let mut acquired = false;
        m.spawn(Box::new(FnKernel(
            move |_t, _i: &mut Inbox, out: &mut Vec<Op>| {
                if !acquired {
                    acquired = true;
                    out.push(Op::LockAcquire { lock: 0 });
                }
                out.push(Op::Pause);
                KernelStatus::Running
            },
        )));
        for _ in 0..4 {
            m.run_window(1_000_000);
        }
        assert_eq!(m.cancel_all(), 2);
        let episodes = m.stats().barrier_episodes;
        for _ in 0..2 {
            let mut phase = 0;
            m.spawn(Box::new(FnKernel(
                move |_t, _i: &mut Inbox, out: &mut Vec<Op>| {
                    phase += 1;
                    if phase == 1 {
                        out.push(Op::LockAcquire { lock: 0 });
                        out.push(Op::LockRelease { lock: 0 });
                        out.push(Op::Barrier);
                        KernelStatus::Running
                    } else {
                        KernelStatus::Done
                    }
                },
            )));
        }
        while !m.all_done() {
            m.run_window(1_000_000);
        }
        assert_eq!(m.stats().barrier_episodes, episodes + 1);
    }

    #[test]
    fn dvfs_boost_speeds_up_and_costs_energy() {
        // Compute-bound work (footprint fits in L1) so the clock boost
        // translates into speedup; memory-bound work would not scale,
        // which is exactly the paper's point about DVFS sprinting.
        let run = |fmul: f64, emul: f64| -> (u64, f64) {
            let mut m = small_machine(1);
            m.set_operating_point(fmul, emul);
            m.spawn(Box::new(SyntheticKernel::new(32, 5_000, 1 << 24, 0)));
            while !m.all_done() {
                m.run_window(1_000_000);
            }
            (m.time_ps(), m.stats().dynamic_energy_j)
        };
        let (t_base, e_base) = run(1.0, 1.0);
        let boost = 2.5;
        let (t_boost, e_boost) = run(boost, boost * boost);
        let speedup = t_base as f64 / t_boost as f64;
        assert!(
            speedup > 2.0,
            "2.5x clock should speed compute-bound work: {speedup:.2}"
        );
        let eratio = e_boost / e_base;
        assert!(
            (4.0..8.0).contains(&eratio),
            "V^2 scaling should cost ~6.25x energy: {eratio:.2}"
        );
    }

    #[test]
    fn energy_of_active_core_is_about_one_watt() {
        let mut m = small_machine(1);
        // A realistic mix: mostly L1 hits over a small footprint.
        m.spawn(Box::new(FnKernel({
            let mut i = 0u64;
            move |_t, _in: &mut Inbox, out: &mut Vec<Op>| {
                for _ in 0..16 {
                    out.push(Op::Compute {
                        class: OpClass::IntAlu,
                        count: 2,
                    });
                    out.push(Op::Load {
                        addr: 0x100000 + (i * 64) % 16384,
                    });
                    i += 1;
                }
                if i >= 50_000 {
                    KernelStatus::Done
                } else {
                    KernelStatus::Running
                }
            }
        })));
        while !m.all_done() {
            m.run_window(1_000_000);
        }
        let seconds = m.time_s();
        let watts = m.stats().dynamic_energy_j / seconds;
        assert!(
            (0.6..1.4).contains(&watts),
            "active core power {watts:.2} W should be ≈ 1 W"
        );
    }

    #[test]
    fn llc_misses_hit_memory_bandwidth_wall() {
        // Streaming far beyond LLC capacity: 16 cores should saturate the
        // two channels and scale poorly vs 4 cores.
        let run = |cores: usize| -> u64 {
            let mut m = small_machine(cores);
            for t in 0..cores as u64 {
                // 8 MB stream per thread, no compute: pure bandwidth.
                m.spawn(Box::new(SyntheticKernel::new(1, 40_000, (t + 1) << 28, 64)));
            }
            while !m.all_done() {
                m.run_window(1_000_000);
            }
            m.time_ps()
        };
        let t1 = run(1);
        let t4 = run(4);
        let t16 = run(16);
        // Each thread performs the same work, so perfect scaling keeps the
        // wall-clock flat as cores grow. Two channels comfortably feed 4
        // streaming cores but saturate well before 16, so the 16-core run
        // must take substantially longer than the 4-core run.
        assert!(
            t16 as f64 > 1.5 * t4 as f64,
            "16 cores must hit the bandwidth wall: t4={t4}, t16={t16}"
        );
        assert!(
            (t4 as f64) < 2.0 * t1 as f64,
            "4 streaming cores should not saturate two channels: t1={t1}, t4={t4}"
        );
    }

    #[test]
    fn an_idle_machine_powers_down_without_allocating() {
        // Idle servers build a machine they never run: powering its cores
        // down must flush fifteen L1s that have no slots to flush.
        let mut m = small_machine(16);
        m.set_active_cores(1);
        assert_eq!(m.active_cores(), 1);
        for (core, l1) in m.mem.l1s.iter().enumerate() {
            assert_eq!(l1.slot_bytes(), 0, "core {core}");
        }
        assert_eq!(m.mem.llc.resident_lines(), 0);
    }

    #[test]
    fn a_one_thread_run_allocates_only_core_zeros_l1() {
        let mut m = small_machine(16);
        m.spawn(Box::new(SyntheticKernel::new(4, 500, 1 << 20, 64)));
        assert!(m.run_to_completion(1_000_000, 100_000).all_done);
        assert!(m.mem.l1s[0].slot_bytes() > 0);
        for (core, l1) in m.mem.l1s.iter().enumerate().skip(1) {
            assert_eq!(l1.slot_bytes(), 0, "core {core}");
        }
        m.check_coherence().unwrap();
    }

    #[test]
    fn the_configured_line_size_splits_addresses() {
        // A 64 B-stride stream touches each 128 B line twice: the second
        // access hits. With 64 B lines every access is a new line.
        let l1_hits = |line_bytes: usize| {
            let mut cfg = MachineConfig::hpca().with_cores(1);
            cfg.l1.line_bytes = line_bytes;
            cfg.llc.line_bytes = line_bytes;
            let mut m = Machine::new(cfg);
            m.spawn(Box::new(SyntheticKernel::new(1, 4096, 1 << 20, 64)));
            assert!(m.run_to_completion(1_000_000, 100_000).all_done);
            (m.stats().l1_hits, m.stats().l1_misses)
        };
        assert_eq!(l1_hits(64), (0, 4096));
        assert_eq!(l1_hits(128), (2048, 2048));
    }
}
