//! The SSim timing engine: one hardware thread on one Virtual Core.
//!
//! The engine is a trace-driven, dependence-timing model of the paper's
//! multi-Slice pipeline. Instructions are processed in committed program
//! order; for each one the engine computes its fetch, dispatch, issue,
//! execute and commit cycles subject to:
//!
//! * PC-interleaved fetch across Slices with group breaks at taken control
//!   flow (§3.1), per-Slice bimodal predictors and replicated BTBs;
//! * two-stage renaming whose master-Slice round trip deepens the front
//!   end as Slices are added (§3.2.1), and a bounded global-logical-register
//!   free list (Table 2: 128 global registers);
//! * per-Slice ALU/LS issue windows with remote-operand wakeup one cycle
//!   before the reply arrives (§3.3);
//! * operand request/reply messages on the (optionally queued) Scalar
//!   Operand Network, with LRF copy caching so repeated reads of a remote
//!   register do not re-request (§3.2.2, §3.4);
//! * address-interleaved load/store sorting to the home Slice's unordered,
//!   age-tagged LSQ bank, with speculative loads, store forwarding and
//!   violation replay (§3.6);
//! * Slice-interleaved L1 D-caches, the banked distance-latency L2, MSHRs,
//!   and store buffers drained at commit (§3.5);
//! * a partitioned ROB whose pre-commit broadcast adds commit latency to
//!   multi-Slice VCores (§3.7).
//!
//! Branch mispredictions and LSQ violations charge the committed path with
//! redirect/replay bubbles rather than simulating wrong-path execution —
//! the same fidelity class as the paper's trace-driven SSim.

use crate::config::{PredictorKind, SimConfig};
use crate::event::WakeHeap;
use crate::predictor::BranchPredictor;
use crate::stats::{SimResult, StallBreakdown};
use sharing_cache::mshr::MshrOutcome;
use sharing_cache::{
    CacheGeometry, Directory, Interleave, L2Array, LineHashBuilder, MshrFile, SetAssocCache,
};
use sharing_isa::{ArchReg, DynInst, InstKind, NUM_ARCH_REGS};
use sharing_noc::{Coord, Mesh, QueuedNetwork, Transport};
use std::collections::{HashMap, VecDeque};

/// One engine-visible access to the shared memory system: everything
/// `beyond_l1` needs to reproduce its state transition. Forked memory
/// systems record these so the barrier can replay them into the
/// authoritative system in a fixed order (see [`MemorySystem::fork`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemAccess {
    /// Requesting VCore.
    pub vcore: usize,
    /// 64-byte line number.
    pub line: u64,
    /// Write (store drain) vs read (load miss).
    pub write: bool,
    /// Request cycle on the requester's clock.
    pub now: u64,
}

/// The memory system beyond the L1s: the VCore's (or VM's shared) L2 bank
/// set, the main-memory delay, and — when several VCores share it — the
/// coherence directory.
#[derive(Debug)]
pub struct MemorySystem {
    /// The banked L2.
    pub l2: L2Array,
    /// The per-VM directory (only consulted when `coherent`).
    pub directory: Directory,
    /// Whether multiple VCores share this system (enables the directory).
    pub coherent: bool,
    /// Main-memory latency in cycles.
    pub memory_delay: u32,
    /// Latency charged per coherence hop between VCores (forward or
    /// invalidate round trip).
    pub coherence_hop: u32,
    /// Invalidations queued for other VCores' L1s: `(vcore, line)`.
    pub pending_invals: Vec<(usize, u64)>,
    /// Accesses that fell through the L2 to main memory.
    pub memory_accesses: u64,
    /// Memory-controller service calendar: each line fill occupies the
    /// DRAM channel for [`Self::dram_fill_cycles`], so cache-starved
    /// configurations queue behind their own fill traffic.
    dram: FuCalendar,
    /// Channel occupancy per 64-byte line fill.
    pub dram_fill_cycles: u64,
    /// When `Some`, every `beyond_l1` call is also appended here — set on
    /// forked systems so the barrier can replay the access stream.
    log: Option<Vec<MemAccess>>,
}

impl MemorySystem {
    /// Builds a private (single-VCore) memory system.
    #[must_use]
    pub fn private(l2_banks: usize, memory_delay: u32) -> Self {
        MemorySystem {
            l2: L2Array::new(l2_banks),
            directory: Directory::new(),
            coherent: false,
            memory_delay,
            coherence_hop: 5,
            pending_invals: Vec::new(),
            memory_accesses: 0,
            dram: FuCalendar::default(),
            dram_fill_cycles: 4,
            log: None,
        }
    }

    /// Builds a shared (multi-VCore VM) memory system with coherence.
    #[must_use]
    pub fn shared(l2_banks: usize, memory_delay: u32) -> Self {
        MemorySystem {
            coherent: true,
            ..MemorySystem::shared_base(l2_banks, memory_delay)
        }
    }

    fn shared_base(l2_banks: usize, memory_delay: u32) -> Self {
        MemorySystem::private(l2_banks, memory_delay)
    }

    /// Forks a speculative copy for one engine's barrier-to-barrier
    /// chunk: same L2/directory/DRAM state, an empty invalidation queue,
    /// and access logging armed. The fork absorbs the engine's
    /// `beyond_l1` traffic in isolation; [`MemorySystem::replay`] then
    /// applies the recorded stream to the authoritative system, so the
    /// canonical state evolution depends only on the replay order —
    /// never on how many worker threads ran the forks.
    #[must_use]
    pub fn fork(&self) -> MemorySystem {
        MemorySystem {
            l2: self.l2.clone(),
            directory: self.directory.clone(),
            coherent: self.coherent,
            memory_delay: self.memory_delay,
            coherence_hop: self.coherence_hop,
            pending_invals: Vec::new(),
            memory_accesses: 0,
            dram: self.dram.clone(),
            dram_fill_cycles: self.dram_fill_cycles,
            log: Some(Vec::new()),
        }
    }

    /// Takes the access log a forked system recorded (empty on the
    /// authoritative system).
    #[must_use]
    pub fn take_log(&mut self) -> Vec<MemAccess> {
        self.log.take().unwrap_or_default()
    }

    /// Replays a forked chunk's access stream into this (authoritative)
    /// system: L2/LRU state, directory ownership, DRAM channel claims,
    /// miss counters, and cross-VCore invalidations all evolve exactly
    /// as if the accesses had been issued here directly. Latencies are
    /// discarded — the requesting engine already charged itself the
    /// latencies its fork computed.
    pub fn replay(&mut self, log: &[MemAccess]) {
        for a in log {
            let _ = self.beyond_l1(a.vcore, a.line, a.write, a.now);
        }
    }

    /// Latency beyond the L1 for a (miss) access to `line` requested at
    /// cycle `now`, including coherence work when shared and DRAM channel
    /// queueing. Also records directory/L2 state changes.
    fn beyond_l1(&mut self, vcore: usize, line: u64, write: bool, now: u64) -> (u32, u64, u64) {
        if let Some(log) = &mut self.log {
            log.push(MemAccess {
                vcore,
                line,
                write,
                now,
            });
        }
        let mut latency = 0u32;
        let mut coh_invals = 0u64;
        let mut coh_forwards = 0u64;
        if self.coherent {
            let action = if write {
                self.directory.write(line, vcore)
            } else {
                self.directory.read(line, vcore)
            };
            if let Some(_owner) = action.fetch_from {
                latency += 2 * self.coherence_hop;
                coh_forwards += 1;
            }
            if !action.invalidate.is_empty() {
                latency += self.coherence_hop;
                coh_invals += action.invalidate.len() as u64;
                for v in action.invalidate {
                    self.pending_invals.push((v, line));
                }
            }
        }
        let out = self.l2.access(line, write);
        latency += out.latency;
        if !out.hit {
            // Fill queues on the memory channel, then pays the access
            // latency.
            let request_at = now + u64::from(latency);
            let service_start = self.dram.issue_at(request_at, self.dram_fill_cycles);
            latency += (service_start - request_at) as u32 + self.memory_delay;
            self.memory_accesses += 1;
        }
        (latency, coh_invals, coh_forwards)
    }
}

/// A bounded structural pool specialised for resources released **at
/// commit** (ROB entries, the global register free list, LRF entries).
///
/// Commit times are monotonically nondecreasing in program order
/// (`commit = commit_ready.max(prev_commit)`), so the release times form
/// a sorted circular buffer: the earliest-free slot is always the oldest
/// occupied one. That turns both the `available_at` min-scan and the
/// `occupy` argmin-scan of a general pool — O(entries) per instruction —
/// into O(1) ring operations with the identical observable multiset.
#[derive(Clone, Debug)]
struct FifoSlots {
    free_at: Vec<u64>,
    head: usize,
}

impl FifoSlots {
    fn new(n: usize) -> Self {
        FifoSlots {
            free_at: vec![0; n],
            head: 0,
        }
    }

    /// Earliest cycle at/after `t` a slot is available.
    fn available_at(&self, t: u64) -> u64 {
        t.max(self.free_at[self.head])
    }

    /// Occupies the earliest-free slot until `until` (a commit time, so
    /// `until` is never below the head's current release).
    fn occupy(&mut self, until: u64) {
        let head = self.head;
        self.free_at[head] = self.free_at[head].max(until);
        let next = head + 1;
        self.head = if next == self.free_at.len() { 0 } else { next };
    }
}

/// A unit-throughput functional unit as a cycle calendar.
///
/// Out-of-order issue means a younger instruction whose operands are ready
/// early must be able to claim an earlier FU cycle than an older, stalled
/// instruction. A monotonic "next free" cursor cannot express that, so the
/// FU tracks the exact set of occupied cycles and each instruction takes
/// the first free run at or after its ready time.
///
/// The set is a windowed bitmap over `[base, base + 64 * words.len())`:
/// cycle keys are dense around the issue frontier, so one word covers 64
/// cycles and claiming a slot is bit arithmetic instead of a tree probe
/// per cycle. Cycles outside the window are free, exactly like absent keys
/// in a set — pruned history stays pruned, the untouched future is open.
#[derive(Clone, Debug, Default)]
struct FuCalendar {
    words: Vec<u64>,
    /// First cycle the bitmap covers (always word-aligned).
    base: u64,
    /// Number of occupied cycles in the window.
    count: usize,
}

impl FuCalendar {
    fn contains(&self, c: u64) -> bool {
        if c < self.base {
            return false;
        }
        let off = (c - self.base) as usize;
        self.words
            .get(off / 64)
            .is_some_and(|w| w >> (off % 64) & 1 == 1)
    }

    fn insert(&mut self, c: u64) {
        if c < self.base {
            // Re-opening pruned history (possible only right after a
            // prune); grow the window backwards, keeping word alignment.
            let grow = ((self.base - c) as usize).div_ceil(64);
            self.base -= grow as u64 * 64;
            self.words.splice(0..0, std::iter::repeat_n(0u64, grow));
        }
        let off = (c - self.base) as usize;
        let w = off / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let bit = 1u64 << (off % 64);
        if self.words[w] & bit == 0 {
            self.words[w] |= bit;
            self.count += 1;
        }
    }

    /// The word scan for the first free cycle at or after `ready`:
    /// `Ok((word, bit))` when it lies inside the window, `Err(cycle)`
    /// when it lies outside (where every cycle is free).
    fn scan_free(&self, ready: u64) -> Result<(usize, u32), u64> {
        if ready < self.base {
            return Err(ready);
        }
        let off = (ready - self.base) as usize;
        let mut w = off / 64;
        if w >= self.words.len() {
            return Err(ready);
        }
        let mut mask = !0u64 << (off % 64);
        while w < self.words.len() {
            let free = !self.words[w] & mask;
            if free != 0 {
                return Ok((w, free.trailing_zeros()));
            }
            w += 1;
            mask = !0;
        }
        Err(self.base + self.words.len() as u64 * 64)
    }

    /// First free cycle at or after `ready`.
    fn first_free_at(&self, ready: u64) -> u64 {
        match self.scan_free(ready) {
            Ok((w, bit)) => self.base + w as u64 * 64 + u64::from(bit),
            Err(c) => c,
        }
    }

    /// Claims the first free cycle at or after `ready` (single-cycle
    /// fast path): sets the bit the scan found.
    fn claim_first_free(&mut self, ready: u64) -> u64 {
        match self.scan_free(ready) {
            Ok((w, bit)) => {
                self.words[w] |= 1 << bit;
                self.count += 1;
                self.base + w as u64 * 64 + u64::from(bit)
            }
            Err(c) => {
                self.insert(c);
                c
            }
        }
    }

    /// Claims the first `occupancy` consecutive free cycles at or after
    /// `ready`; returns the start cycle.
    fn issue_at(&mut self, ready: u64, occupancy: u64) -> u64 {
        let c = if occupancy == 1 {
            self.claim_first_free(ready)
        } else {
            // Jump each busy run with the word scan, then check the rest
            // of the run cycle by cycle; a busy cycle at `c + k` rules
            // out every start up to it.
            let mut c = ready;
            loop {
                c = self.first_free_at(c);
                match (1..occupancy).find(|&k| self.contains(c + k)) {
                    Some(k) => c += k + 1,
                    None => break,
                }
            }
            for k in 0..occupancy {
                self.insert(c + k);
            }
            c
        };
        // Bound memory: drop cycles far behind the issue frontier.
        if self.count > 8192 {
            self.prune_below(c.saturating_sub(4096));
        }
        c
    }

    /// Frees every cycle below `cutoff` and drops it from the window.
    fn prune_below(&mut self, cutoff: u64) {
        if cutoff <= self.base {
            return;
        }
        let full = (((cutoff - self.base) / 64) as usize).min(self.words.len());
        for w in &self.words[..full] {
            self.count -= w.count_ones() as usize;
        }
        self.words.drain(..full);
        self.base += full as u64 * 64;
        if cutoff > self.base {
            if let Some(w0) = self.words.first_mut() {
                let low = (1u64 << (cutoff - self.base)) - 1;
                self.count -= (*w0 & low).count_ones() as usize;
                *w0 &= !low;
            }
        }
    }
}

/// Fixed network latencies of one VCore shape, computed once: they
/// depend only on the Slice count and the operand-network knobs.
#[derive(Clone, Debug)]
struct Latencies {
    /// Rename pipeline depth per Slice: local rename plus, for
    /// multi-Slice VCores, the master round trip (§3.2.1).
    rename: Vec<u64>,
    /// Pre-commit broadcast latency (§3.7).
    precommit: u64,
    /// Ideal-transport latency between two Slices, by Slice distance.
    by_distance: Vec<u64>,
}

impl Latencies {
    fn new(cfg: &SimConfig) -> Self {
        let n = cfg.slices();
        let spacing = if cfg.knobs.contiguous_slices { 1 } else { 2 };
        let lat = cfg.knobs.operand_latency;
        let by_distance: Vec<u64> = (0..n as u32)
            .map(|d| u64::from(lat.latency(d * spacing)))
            .collect();
        // The master Slice sits in the middle of the VCore. Local rename,
        // one network leg to/from the master (the send and the broadcast
        // overlap in the pipelined implementation), and the correction
        // stage (§3.2.1, Figure 6b).
        let rename = (0..n)
            .map(|s| {
                if n == 1 {
                    1
                } else {
                    2 + by_distance[s.abs_diff(n / 2)]
                }
            })
            .collect();
        // The distributed ROBs must agree before true commit; the cost is
        // the farthest-Slice operand latency.
        let precommit = if n == 1 { 0 } else { by_distance[n - 1] };
        Latencies {
            rename,
            precommit,
            by_distance,
        }
    }
}

/// Per-Slice microarchitectural state.
#[derive(Debug)]
struct SliceState {
    predictor: BranchPredictor,
    l1i: SetAssocCache,
    /// Next sequential pair-line this Slice expects (next-line prefetch).
    l1i_expected: u64,
    l1d: SetAssocCache,
    mshr: MshrFile,
    alu: FuCalendar,
    lsu: FuCalendar,
    alu_window: WakeHeap,
    ls_window: WakeHeap,
    rob: FifoSlots,
    lrf: FifoSlots,
    lsq_bank: WakeHeap,
    store_buffer: WakeHeap,
    /// For the ordered-LSQ baseline: latest address-resolve time of any
    /// older store sorted to this bank.
    store_barrier: u64,
    /// Per-architectural-register remote-copy cache: which producer
    /// version this Slice already holds in its LRF, and when it arrived.
    local_copy: [(u64, u64); NUM_ARCH_REGS],
}

/// The most recent producer of each architectural register.
#[derive(Clone, Copy, Debug, Default)]
struct RegVersion {
    /// Producer sequence number (`u64::MAX` plus one semantics avoided by
    /// starting versions at 1; 0 = initial state, ready at cycle 0).
    seq: u64,
    slice: usize,
    exec_done: u64,
    /// The architectural value, tracked when dataflow verification is on.
    value: u64,
}

/// An in-flight (or recently completed) store, for forwarding/violations.
#[derive(Clone, Copy, Debug)]
struct StoreRec {
    seq: u64,
    /// When the store's address resolved (end of AGU).
    addr_known: u64,
    /// When the store's data is present at the home LSQ bank.
    data_at_home: u64,
    /// When the store's value lands in the home L1D (post-commit drain).
    cache_written: u64,
    /// The stored value (dataflow verification).
    value: u64,
}

/// Per-instruction timing record (for tests and debugging).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstTiming {
    /// Program-order sequence number.
    pub seq: u64,
    /// Slice that fetched/executed the instruction.
    pub slice: usize,
    /// Fetch-group cycle.
    pub fetch: u64,
    /// Dispatch (post-rename) cycle.
    pub dispatch: u64,
    /// Issue cycle.
    pub issue: u64,
    /// Execution-complete cycle.
    pub exec_done: u64,
    /// Commit cycle.
    pub commit: u64,
}

/// One hardware thread executing on one VCore.
///
/// Use [`crate::Simulator`] for the single-threaded convenience wrapper; the
/// engine form exists so several VCores can share a [`MemorySystem`] (the
/// paper's multi-VCore VMs, §3.5/§5.3).
#[derive(Debug)]
pub struct VCoreEngine {
    cfg: SimConfig,
    vcore_id: usize,
    /// Interleaving over `cfg.slices()`.
    interleave: Interleave,
    latencies: Latencies,
    slices: Vec<SliceState>,
    coords: Vec<Coord>,
    operand_net: QueuedNetwork,
    reg: [RegVersion; NUM_ARCH_REGS],
    freelist: FifoSlots,
    store_map: HashMap<u64, StoreRec, LineHashBuilder>,
    /// Earliest cycle the next fetch group may issue.
    fetch_ready: u64,
    prev_group_time: u64,
    prev_commit: u64,
    /// Commits already performed in `prev_commit`'s cycle.
    commits_in_cycle: u32,
    seq: u64,
    result: SimResult,
    /// Timing log (only populated when detail recording is on).
    record: Option<Vec<InstTiming>>,
    /// Cycle-attribution state (only with [`Self::enable_profiling`]).
    profile: Option<ProfileState>,
    /// Dataflow verification state (only with [`Self::enable_verification`]).
    verify: Option<VerifyState>,
    /// Global History Register (gshare mode): the up-to-date history…
    ghr: u64,
    /// …and the histories still in flight across the interconnect — on an
    /// `n`-Slice VCore a Slice predicts with a history `n-1` branches
    /// stale (§3.1: the GHR is "composed across Slices … with appropriate
    /// delay").
    ghr_in_flight: VecDeque<u64>,
}

/// Cycle-attribution accounting (see [`crate::profile`]): the buckets
/// charged so far plus, per Slice, the commit frontier below which every
/// cycle has already been attributed.
#[derive(Debug, Default)]
struct ProfileState {
    per_slice: Vec<crate::profile::SliceCycles>,
    frontier: Vec<u64>,
}

/// State for dataflow verification: the engine computes the architectural
/// value of every instruction through its *own* rename and
/// store-forwarding bookkeeping, and the committed destination-value
/// stream is compared against the reference [`sharing_isa::Interpreter`].
/// A divergence means the pipeline model broke program semantics — a wrong
/// forwarding source, a stale register version, a lost store.
#[derive(Debug, Default)]
struct VerifyState {
    /// Memory values as of the youngest processed store per address.
    mem_values: HashMap<u64, u64>,
    /// Destination values in commit order.
    committed: Vec<u64>,
}

impl VerifyState {
    fn mem(&self, addr: u64) -> u64 {
        self.mem_values
            .get(&addr)
            .copied()
            .unwrap_or_else(|| sharing_isa::interp::mix(0xDEAD_BEEF, addr, 0))
    }
}

impl VCoreEngine {
    /// Creates an engine for `vcore_id` with the given configuration.
    #[must_use]
    pub fn new(cfg: SimConfig, vcore_id: usize) -> Self {
        let n = cfg.slices();
        // Capacities are nominal; the modeled hierarchy is co-scaled down
        // with the workloads (see `sharing_isa::CAPACITY_SCALE`) so the
        // L1 : L2 : working-set ratios match the paper's.
        let scale = sharing_isa::CAPACITY_SCALE;
        let l1d_geom = CacheGeometry::new(cfg.mem.l1d_bytes / scale, 64, cfg.mem.l1d_ways)
            .expect("L1D geometry valid");
        // The paper reduces the I-cache line to two instructions (8 bytes).
        let l1i_geom = CacheGeometry::new(cfg.mem.l1i_bytes / scale, 8, cfg.mem.l1i_ways)
            .expect("L1I geometry valid");
        let spacing: u16 = if cfg.knobs.contiguous_slices { 1 } else { 2 };
        let mesh = Mesh::new(16, 2);
        let coords: Vec<Coord> = (0..n).map(|k| Coord::new(k as u16 * spacing, 0)).collect();
        let slices = (0..n)
            .map(|_| SliceState {
                predictor: BranchPredictor::new(cfg.slice.predictor_entries, cfg.slice.btb_entries),
                l1i: SetAssocCache::new(l1i_geom),
                l1i_expected: u64::MAX,
                l1d: SetAssocCache::new(l1d_geom),
                mshr: MshrFile::new(cfg.slice.max_inflight_loads),
                alu: FuCalendar::default(),
                lsu: FuCalendar::default(),
                alu_window: WakeHeap::new(cfg.slice.issue_window),
                ls_window: WakeHeap::new(cfg.slice.ls_window),
                rob: FifoSlots::new(cfg.slice.rob_entries),
                lrf: FifoSlots::new(cfg.slice.local_regs),
                lsq_bank: WakeHeap::new(cfg.slice.lsq_entries),
                store_buffer: WakeHeap::new(cfg.slice.store_buffer),
                store_barrier: 0,
                local_copy: [(u64::MAX, 0); NUM_ARCH_REGS],
            })
            .collect();
        // "The free-list of global logical registers is distributed across
        // Slices in a VCore" (§3.2.1): capacity scales with Slice count
        // while the namespace is sized for the largest configuration.
        let freelist = FifoSlots::new((cfg.slice.global_regs - NUM_ARCH_REGS) * n);
        VCoreEngine {
            operand_net: QueuedNetwork::new(
                mesh,
                cfg.knobs.operand_latency,
                cfg.knobs.operand_planes,
            ),
            cfg,
            vcore_id,
            interleave: Interleave::new(n),
            latencies: Latencies::new(&cfg),
            slices,
            coords,
            reg: [RegVersion::default(); NUM_ARCH_REGS],
            freelist,
            store_map: HashMap::default(),
            fetch_ready: 0,
            prev_group_time: 0,
            prev_commit: 0,
            commits_in_cycle: 0,
            seq: 0,
            result: SimResult::default(),
            record: None,
            profile: None,
            verify: None,
            ghr: 0,
            ghr_in_flight: VecDeque::new(),
        }
    }

    /// Enables per-instruction timing recording (tests/debugging).
    pub fn enable_recording(&mut self) {
        self.record = Some(Vec::new());
    }

    /// Enables dataflow verification: the engine computes architectural
    /// values through its own rename/forwarding bookkeeping; read the
    /// committed stream with [`Self::committed_values`].
    pub fn enable_verification(&mut self) {
        self.verify = Some(VerifyState::default());
    }

    /// Arms the cycle-attribution profiler (see [`crate::profile`]).
    /// Pure observation: arming it cannot change any timing result.
    pub fn enable_profiling(&mut self) {
        let n = self.cfg.slices();
        self.profile = Some(ProfileState {
            per_slice: vec![crate::profile::SliceCycles::default(); n],
            frontier: vec![0; n],
        });
    }

    /// The cycle attribution so far, if profiling is enabled. Each
    /// Slice's idle bucket is topped up to the current cycle count, so
    /// the conservation law (buckets sum to [`Self::cycles`]) holds at
    /// any point, not just at the end of the run.
    #[must_use]
    pub fn cycle_profile(&self) -> Option<crate::profile::CycleProfile> {
        let p = self.profile.as_ref()?;
        let total = self.prev_commit;
        let mut per_slice = p.per_slice.clone();
        for (sc, &frontier) in per_slice.iter_mut().zip(&p.frontier) {
            sc.idle += total - frontier;
        }
        Some(crate::profile::CycleProfile {
            cycles: total,
            per_slice,
        })
    }

    /// The committed destination-value stream (one entry per
    /// register-writing instruction), if verification is enabled. Compare
    /// against [`sharing_isa::Interpreter::run`] on the same trace.
    #[must_use]
    pub fn committed_values(&self) -> Option<&[u64]> {
        self.verify.as_ref().map(|v| v.committed.as_slice())
    }

    /// The recorded timings so far, if recording is enabled.
    #[must_use]
    pub fn timings(&self) -> Option<&[InstTiming]> {
        self.record.as_deref()
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Cycles elapsed so far (the last commit).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.prev_commit
    }

    /// Which Slice fetches the pair containing `pc` (PC interleaving,
    /// §3.1).
    #[must_use]
    pub fn slice_of_pc(&self, pc: u64) -> usize {
        self.interleave.unit_of(pc >> 3) as usize
    }

    /// Which Slice's LSQ bank / L1D homes `line` (address interleaving,
    /// §3.5/§3.6).
    #[must_use]
    pub fn home_of_line(&self, line: u64) -> usize {
        self.interleave.unit_of(line) as usize
    }

    /// The home Slice's bank-local line number (interleave bits stripped so
    /// the L1D's sets are fully used).
    fn local_line(&self, line: u64) -> u64 {
        self.interleave.local(line)
    }

    /// Invalidates a line in this VCore's (home Slice's) L1D — coherence
    /// traffic from another VCore.
    pub fn invalidate_line(&mut self, line: u64) {
        let home = self.home_of_line(line);
        let local = self.local_line(line);
        if self.slices[home].l1d.invalidate(local) {
            // Dirty data returns to the L2; latency is charged to the
            // requester by the directory model.
        }
        self.result.mem.coherence_invalidations += 1;
    }

    fn operand_hops_latency(&mut self, from: usize, to: usize, at: u64) -> u64 {
        self.operand_net
            .send(self.coords[from], self.coords[to], at)
    }

    /// Rename pipeline depth for an instruction on `slice` (§3.2.1).
    fn rename_latency(&self, slice: usize) -> u64 {
        self.latencies.rename[slice]
    }

    /// Pre-commit broadcast latency (§3.7).
    fn precommit_latency(&self) -> u64 {
        self.latencies.precommit
    }

    /// Simple network latency formula for the LS-sort and data-return
    /// trips (ideal transport; messages counted).
    fn ls_latency(&self, from: usize, to: usize) -> u64 {
        self.latencies.by_distance[from.abs_diff(to)]
    }

    /// Runs a batch of committed-path instructions against the given
    /// memory system. Can be called repeatedly with successive chunks of
    /// the same trace.
    pub fn run_chunk(&mut self, mem: &mut MemorySystem, insts: &[DynInst]) {
        let mut idx = 0usize;
        while idx < insts.len() {
            let group_end = self.find_group_end(insts, idx);
            let group_time = self.fetch_group(insts, idx, group_end);
            for inst in &insts[idx..group_end] {
                self.process_inst(mem, inst, group_time);
            }
            idx = group_end;
        }
    }

    /// Where the current fetch group ends: at most `2n` contiguous
    /// instructions, broken early by taken control flow (fetch redirects).
    fn find_group_end(&self, insts: &[DynInst], start: usize) -> usize {
        let cap = 2 * self.cfg.slices();
        let mut end = start;
        while end < insts.len() && end - start < cap {
            let inst = &insts[end];
            end += 1;
            let taken = match inst.kind {
                InstKind::Branch { taken, .. } => taken,
                InstKind::Jump { .. } | InstKind::JumpIndirect { .. } => true,
                _ => false,
            };
            if taken {
                break;
            }
        }
        end
    }

    /// Computes the group's fetch cycle, charging I-cache misses.
    fn fetch_group(&mut self, insts: &[DynInst], start: usize, end: usize) -> u64 {
        let mut t = (self.prev_group_time + 1).max(self.fetch_ready);
        let mut icache_stall = 0u64;
        let mut seen_pairs: [u64; 2 * crate::config::MAX_SLICES] = [u64::MAX; 16];
        let mut seen = 0usize;
        for inst in &insts[start..end] {
            let pair = inst.pc >> 3;
            if seen_pairs[..seen].contains(&pair) {
                continue;
            }
            if seen < seen_pairs.len() {
                seen_pairs[seen] = pair;
                seen += 1;
            }
            let s = self.slice_of_pc(inst.pc);
            // This Slice sees every n-th pair; strip the interleave bits.
            let local_pair = self.interleave.local(pair);
            let slice = &mut self.slices[s];
            let out = slice.l1i.access(local_pair, false);
            if !out.hit {
                // Next-line prefetch: a sequential miss (this Slice's next
                // expected pair) is covered by the prefetcher.
                if local_pair != slice.l1i_expected {
                    icache_stall = icache_stall.max(u64::from(self.cfg.mem.l1i_miss));
                }
            }
            slice.l1i_expected = local_pair + 1;
        }
        if icache_stall > 0 {
            self.result.stalls.icache += icache_stall;
            t += icache_stall;
        }
        self.prev_group_time = t;
        t
    }

    /// When the value of `reg` (as visible in program order) is usable by
    /// an instruction dispatching at `dispatch` on `slice`.
    fn source_ready(&mut self, reg: ArchReg, slice: usize, dispatch: u64) -> u64 {
        let v = self.reg[reg.index()];
        if v.seq == 0 {
            return 0; // initial architectural state, everywhere
        }
        if v.slice == slice {
            return v.exec_done;
        }
        // Remote operand. Already copied into this Slice's LRF?
        let (copy_seq, copy_ready) = self.slices[slice].local_copy[reg.index()];
        if copy_seq == v.seq {
            self.result.lrf_copy_hits += 1;
            return copy_ready;
        }
        // Remote operand over the Scalar Operand Network (§3.2.2). If the
        // producer is still pending, the request is enqueued on its wait
        // list (the rename broadcast already carried the mapping) and the
        // reply is *pushed* the moment the value is generated — one SON
        // message. If the value already sits in the remote LRF, an explicit
        // request message must travel there first — two SON messages.
        self.result.remote_operand_requests += 1;
        let reply_arrive = if v.exec_done > dispatch {
            self.operand_hops_latency(v.slice, slice, v.exec_done)
        } else {
            let req_arrive = self.operand_hops_latency(slice, v.slice, dispatch);
            let serve = req_arrive.max(v.exec_done);
            self.operand_hops_latency(v.slice, slice, serve)
        };
        let ready = if self.cfg.knobs.remote_wakeup_headstart {
            reply_arrive
        } else {
            reply_arrive + 1
        };
        self.slices[slice].local_copy[reg.index()] = (v.seq, ready);
        ready
    }

    /// Acquires a dispatch-side structural resource, charging the stall and
    /// back-pressuring fetch when it is not immediately available.
    fn acquire_with_backpressure(
        &mut self,
        want: u64,
        avail: u64,
        counter: fn(&mut StallBreakdown) -> &mut u64,
    ) -> u64 {
        if avail > want {
            *counter(&mut self.result.stalls) += avail - want;
            self.fetch_ready = self.fetch_ready.max(avail);
        }
        avail
    }

    #[allow(clippy::too_many_lines)]
    fn process_inst(&mut self, mem: &mut MemorySystem, inst: &DynInst, group_time: u64) {
        self.seq += 1;
        let seq = self.seq;
        let n = self.cfg.slices();
        let s = self.slice_of_pc(inst.pc);
        let fetch = group_time;
        // Architectural source values, read before the destination updates
        // (an instruction may read and write the same register).
        let sv0 = inst.srcs[0].map_or(0, |r| self.reg[r.index()].value);
        let sv1 = inst.srcs[1].map_or(0, |r| self.reg[r.index()].value);
        // Dispatch-stall watermark for the profiler's backpressure bucket
        // (three adds; kept unconditional so `profile_commit` below can be
        // the only profiling branch on the path).
        let stall_mark = {
            let st = &self.result.stalls;
            st.rob_full + st.freelist_empty + st.window_full
        };

        // ---- Dispatch (decode + two-stage rename) ----
        let mut dispatch =
            fetch + u64::from(self.cfg.knobs.frontend_depth) + self.rename_latency(s);
        if n > 1 {
            self.result.rename_broadcasts += 1;
        }
        // ROB entry (partitioned, per Slice).
        let avail = self.slices[s].rob.available_at(dispatch);
        dispatch = self.acquire_with_backpressure(dispatch, avail, |st| &mut st.rob_full);
        // Global logical register free list (only dst-writing instructions).
        if inst.dst.is_some() {
            let avail = self.freelist.available_at(dispatch);
            dispatch = self.acquire_with_backpressure(dispatch, avail, |st| &mut st.freelist_empty);
            // LRF entry on the executing Slice.
            let avail = self.slices[s].lrf.available_at(dispatch);
            dispatch = self.acquire_with_backpressure(dispatch, avail, |st| &mut st.rob_full);
        }
        // Issue-window entry (ALU vs LS).
        let is_mem = inst.is_mem();
        let avail = if is_mem {
            self.slices[s].ls_window.available_at(dispatch)
        } else {
            self.slices[s].alu_window.available_at(dispatch)
        };
        dispatch = self.acquire_with_backpressure(dispatch, avail, |st| &mut st.window_full);
        let dispatch_stall = {
            let st = &self.result.stalls;
            st.rob_full + st.freelist_empty + st.window_full - stall_mark
        };

        // ---- Operand readiness ----
        let mut ready = dispatch + 1;
        for src in inst.src_iter() {
            ready = ready.max(self.source_ready(src, s, dispatch));
        }

        // ---- Issue & execute ----
        let mut dst_value = sharing_isa::interp::mix(inst.pc, sv0, sv1);
        // Beyond-L2 memory cycles on this instruction's own miss path
        // (loads only) — the profiler's DRAM bucket.
        let mut mem_stall = 0u64;
        let mut store = None;
        let (issue, exec_done) = match inst.kind {
            InstKind::Load { addr, .. } => {
                let (issue, exec_done, forwarded, load_mem_stall) =
                    self.do_load(mem, inst, seq, s, dispatch, ready, addr);
                mem_stall = load_mem_stall;
                if let Some(v) = &self.verify {
                    // The load observes either the forwarded store's value
                    // or the memory image — which must agree with program
                    // order, or the pipeline broke semantics.
                    let mem_content = forwarded.unwrap_or_else(|| v.mem(addr));
                    dst_value = sharing_isa::interp::mix(inst.pc, mem_content, sv0);
                }
                (issue, exec_done)
            }
            InstKind::Store { addr, .. } => {
                // Stores issue when address+data operands are ready; they
                // execute (AGU + LSQ insert) and wait for commit.
                let issue = self.slices[s].lsu.issue_at(ready, 1);
                let addr_known = issue + 1;
                let home = self.home_of_line(addr >> 6);
                let data_at_home = addr_known + self.ls_latency(s, home);
                self.result.ls_sort_messages += 1;
                // LSQ entry at home bank from arrival until commit-drain
                // (release time set below, once commit is known).
                let lsq_at = self.slices[home].lsq_bank.available_at(data_at_home);
                if lsq_at > data_at_home {
                    self.result.stalls.lsq_full += lsq_at - data_at_home;
                }
                self.slices[home].store_barrier = self.slices[home].store_barrier.max(addr_known);
                let store_value = sharing_isa::interp::mix(inst.pc, sv0, sv1);
                // Recorded for younger loads once commit sets its drain.
                store = Some((
                    addr,
                    StoreRec {
                        seq,
                        addr_known,
                        data_at_home: lsq_at,
                        cache_written: 0,
                        value: store_value,
                    },
                ));
                if let Some(v) = &mut self.verify {
                    v.mem_values.insert(addr, store_value);
                }
                (issue, addr_known)
            }
            InstKind::Branch { taken, target: _ } => {
                let issue = self.slices[s].alu.issue_at(ready, 1);
                let exec_done = issue + 1;
                let correct = match self.cfg.knobs.predictor {
                    PredictorKind::Bimodal => {
                        self.slices[s].predictor.predict_and_train(inst.pc, taken)
                    }
                    PredictorKind::Gshare { history_bits } => {
                        let mask = (1u64 << history_bits.min(63)) - 1;
                        let compose_delay = n - 1;
                        // The history visible to this Slice lags by the
                        // branches still in flight on the compose network
                        // (none on a single-Slice VCore).
                        let visible = self.ghr_in_flight.front().copied().unwrap_or(self.ghr);
                        let c = self.slices[s].predictor.predict_and_train_gshare(
                            inst.pc,
                            visible & mask,
                            taken,
                        );
                        self.ghr = ((self.ghr << 1) | u64::from(taken)) & mask;
                        self.ghr_in_flight.push_back(self.ghr);
                        while self.ghr_in_flight.len() > compose_delay {
                            self.ghr_in_flight.pop_front();
                        }
                        c
                    }
                };
                let btb_ok = if taken {
                    self.slices[s].predictor.btb_lookup_install(inst.pc)
                } else {
                    true
                };
                if !correct {
                    let redirect = exec_done + u64::from(self.cfg.knobs.mispredict_penalty);
                    if redirect > self.fetch_ready {
                        self.result.stalls.mispredict += redirect - self.fetch_ready;
                        self.fetch_ready = redirect;
                    }
                } else if !btb_ok {
                    // Direction right but target unknown at fetch: short
                    // bubble until decode produces the target.
                    self.fetch_ready = self.fetch_ready.max(group_time + 2);
                }
                (issue, exec_done)
            }
            InstKind::Jump { .. } | InstKind::JumpIndirect { .. } => {
                let issue = self.slices[s].alu.issue_at(ready, 1);
                let exec_done = issue + 1;
                if !self.slices[s].predictor.btb_lookup_install(inst.pc) {
                    let bubble = if matches!(inst.kind, InstKind::JumpIndirect { .. }) {
                        // Indirect targets resolve at execute.
                        exec_done + u64::from(self.cfg.knobs.mispredict_penalty)
                    } else {
                        group_time + 2
                    };
                    self.fetch_ready = self.fetch_ready.max(bubble);
                }
                (issue, exec_done)
            }
            _ => {
                // ALU-class.
                let occupancy = match inst.kind {
                    InstKind::IntDiv => 4, // unpipelined-ish divider
                    _ => 1,
                };
                let issue = self.slices[s].alu.issue_at(ready, occupancy);
                (issue, issue + u64::from(inst.kind.exec_latency()))
            }
        };

        // Window entry held from dispatch to issue.
        if is_mem {
            self.slices[s].ls_window.occupy(issue);
        } else {
            self.slices[s].alu_window.occupy(issue);
        }

        // ---- Commit (in order, pre-commit broadcast, bounded width) ----
        let commit_ready = exec_done + self.precommit_latency();
        let mut commit = commit_ready.max(self.prev_commit);
        let width = 2 * n as u32;
        if commit == self.prev_commit {
            if self.commits_in_cycle >= width {
                commit += 1;
                self.commits_in_cycle = 1;
            } else {
                self.commits_in_cycle += 1;
            }
        } else {
            self.commits_in_cycle = 1;
        }
        self.prev_commit = commit;

        // Release dispatch-side resources at commit.
        self.slices[s].rob.occupy(commit);
        if inst.dst.is_some() {
            self.freelist.occupy(commit);
            self.slices[s].lrf.occupy(commit);
        }

        // Store commit: drain through the home store buffer into the L1D.
        if let Some((addr, rec)) = store {
            let line = addr >> 6;
            let home = self.home_of_line(line);
            let sb_at = self.slices[home].store_buffer.available_at(commit);
            if sb_at > commit {
                self.result.stalls.store_buffer_full += sb_at - commit;
            }
            let local = self.local_line(line);
            let out = self.slices[home].l1d.access(local, true);
            let mut lat = u64::from(self.cfg.mem.l1_hit);
            if !out.hit {
                // The fill proceeds in the background via the MSHRs; the
                // store-buffer slot only pays a short miss hand-off, not
                // the full memory latency.
                let (_, ci, cf) = mem.beyond_l1(self.vcore_id, line, true, sb_at);
                lat += 2;
                self.result.mem.coherence_invalidations += ci;
                self.result.mem.coherence_forwards += cf;
            }
            let done = sb_at + lat;
            self.slices[home].store_buffer.occupy(done);
            self.slices[home].lsq_bank.occupy(done);
            self.store_map.insert(
                addr,
                StoreRec {
                    cache_written: done,
                    ..rec
                },
            );
        }

        // Update register version map.
        if let Some(dst) = inst.dst {
            self.reg[dst.index()] = RegVersion {
                seq,
                slice: s,
                exec_done,
                value: dst_value,
            };
            if let Some(v) = &mut self.verify {
                v.committed.push(dst_value);
            }
        }

        self.result.instructions += 1;
        if let Some(rec) = &mut self.record {
            rec.push(InstTiming {
                seq,
                slice: s,
                fetch,
                dispatch,
                issue,
                exec_done,
                commit,
            });
        }
        self.profile_commit(
            s,
            fetch,
            dispatch,
            issue,
            exec_done,
            commit,
            mem_stall,
            dispatch_stall,
        );

        // Keep the store map bounded: drop entries long since drained.
        if self.store_map.len() > 8192 {
            let horizon = self.prev_commit;
            self.store_map
                .retain(|_, r| r.cache_written + 1024 > horizon);
        }
    }

    /// Attributes the commit-to-commit gap this instruction owns on its
    /// Slice to the profiler's buckets (see [`crate::profile`]): commit
    /// times are globally monotone, so `commit − frontier[s]` is exactly
    /// the not-yet-accounted stretch of Slice `s`'s timeline. It is
    /// charged backward through the instruction's own intervals, each
    /// charge capped by what is still unattributed, so overlapped
    /// latencies can never over-count and the buckets always partition
    /// the timeline. Reads timestamps only — never feeds back into
    /// timing.
    #[allow(clippy::too_many_arguments)]
    fn profile_commit(
        &mut self,
        s: usize,
        fetch: u64,
        dispatch: u64,
        issue: u64,
        exec_done: u64,
        commit: u64,
        mem_stall: u64,
        dispatch_stall: u64,
    ) {
        let Some(p) = &mut self.profile else { return };
        let gap = commit - p.frontier[s];
        p.frontier[s] = commit;
        let sc = &mut p.per_slice[s];
        let mut remaining = gap;
        let mut charge = |slot: &mut u64, amount: u64| {
            let take = amount.min(remaining);
            *slot += take;
            remaining -= take;
        };
        charge(&mut sc.dram_stall, mem_stall);
        charge(
            &mut sc.fu_busy,
            (exec_done - issue).saturating_sub(mem_stall),
        );
        charge(&mut sc.issue, issue - dispatch);
        charge(&mut sc.rob_full, dispatch_stall);
        charge(&mut sc.fetch, dispatch - fetch);
        sc.idle += remaining;
    }

    /// Load timing: AGU → sort to home bank → speculative access with
    /// forwarding/violation → data return (§3.5/§3.6). The final element
    /// of the return is the beyond-L2 memory time on this load's own
    /// miss path (zero on hits and forwards), for the profiler.
    #[allow(clippy::too_many_arguments)]
    fn do_load(
        &mut self,
        mem: &mut MemorySystem,
        _inst: &DynInst,
        seq: u64,
        s: usize,
        _dispatch: u64,
        ready: u64,
        addr: u64,
    ) -> (u64, u64, Option<u64>, u64) {
        let mut mem_stall = 0u64;
        let issue = self.slices[s].lsu.issue_at(ready, 1);
        let addr_ready = issue + 1;
        let line = addr >> 6;
        let home = self.home_of_line(line);
        let mut t = addr_ready + self.ls_latency(s, home);
        self.result.ls_sort_messages += 1;

        // LSQ bank entry.
        let lsq_at = self.slices[home].lsq_bank.available_at(t);
        if lsq_at > t {
            self.result.stalls.lsq_full += lsq_at - t;
        }
        t = lsq_at;

        if !self.cfg.knobs.unordered_lsq {
            // Ordered baseline: wait for all older stores in this bank to
            // resolve their addresses.
            t = t.max(self.slices[home].store_barrier);
        }

        // Forwarding / violation against the youngest older store to the
        // same address.
        let mut data_at_home: Option<u64> = None;
        let mut forwarded: Option<u64> = None;
        if let Some(st) = self.store_map.get(&addr).copied() {
            if st.seq < seq && st.cache_written > t {
                if st.addr_known <= t {
                    // Store-to-load forwarding inside the LSQ/store buffer.
                    data_at_home = Some(t.max(st.data_at_home) + 1);
                    forwarded = Some(st.value);
                    self.result.mem.store_forwards += 1;
                } else if self.cfg.knobs.unordered_lsq {
                    // The load would have executed speculatively before the
                    // store's address was known: ordering violation, replay
                    // (§3.6). Younger work is flushed.
                    self.result.mem.lsq_violations += 1;
                    let replay = st.addr_known.max(st.data_at_home)
                        + u64::from(self.cfg.knobs.violation_penalty);
                    data_at_home = Some(replay + 1);
                    forwarded = Some(st.value);
                    let refetch = replay + u64::from(self.cfg.knobs.mispredict_penalty);
                    self.fetch_ready = self.fetch_ready.max(refetch);
                } else {
                    // Ordered mode already waited for addr_known via the
                    // barrier, so this arm is unreachable in practice.
                    data_at_home = Some(st.addr_known.max(st.data_at_home) + 1);
                    forwarded = Some(st.value);
                }
            }
        }

        let data_at_home = match data_at_home {
            Some(d) => d,
            None => {
                // Cache path at the home Slice.
                let local = self.local_line(line);
                let out = self.slices[home].l1d.access(local, false);
                if out.hit {
                    t + u64::from(self.cfg.mem.l1_hit)
                } else {
                    // Non-blocking miss through the MSHRs.
                    let (extra, ci, cf) = mem.beyond_l1(self.vcore_id, line, false, t);
                    mem_stall = u64::from(extra);
                    self.result.mem.coherence_invalidations += ci;
                    self.result.mem.coherence_forwards += cf;
                    let fill = t + u64::from(self.cfg.mem.l1_hit) + u64::from(extra);
                    match self.slices[home].mshr.request(line, t, fill) {
                        MshrOutcome::Allocated(done) | MshrOutcome::Merged(done) => done,
                        MshrOutcome::Full => {
                            let retry = self.slices[home].mshr.earliest_free().unwrap_or(t).max(t);
                            self.result.stalls.mshr_full += retry - t;
                            let fill = retry + u64::from(self.cfg.mem.l1_hit) + u64::from(extra);
                            match self.slices[home].mshr.request(line, retry, fill) {
                                MshrOutcome::Allocated(done) | MshrOutcome::Merged(done) => done,
                                MshrOutcome::Full => fill,
                            }
                        }
                    }
                }
            }
        };

        // Data returns to the issuing Slice over the network.
        let exec_done = data_at_home + self.ls_latency(home, s);
        self.slices[home].lsq_bank.occupy(exec_done);
        (issue, exec_done, forwarded, mem_stall)
    }

    /// Finalizes and returns the result, aggregating per-Slice counters.
    #[must_use]
    pub fn finish(mut self, workload: &str) -> SimResult {
        self.result.workload = workload.to_string();
        self.result.shape = Some(self.cfg.shape());
        self.result.cycles = self.prev_commit;
        for s in &self.slices {
            self.result.per_slice.push(crate::stats::SliceStats {
                predictor: s.predictor.stats(),
                l1d: s.l1d.stats(),
                l1i: s.l1i.stats(),
            });
            let p = s.predictor.stats();
            self.result.predictor.predictions += p.predictions;
            self.result.predictor.mispredictions += p.mispredictions;
            self.result.predictor.btb_misses += p.btb_misses;
            let d = s.l1d.stats();
            self.result.mem.l1d.accesses += d.accesses;
            self.result.mem.l1d.hits += d.hits;
            self.result.mem.l1d.writebacks += d.writebacks;
            self.result.mem.l1d.invalidations += d.invalidations;
            let i = s.l1i.stats();
            self.result.mem.l1i.accesses += i.accesses;
            self.result.mem.l1i.hits += i.hits;
        }
        self.result.operand_net = self.operand_net.stats();
        self.result
    }

    /// Copies L2/memory counters from a memory system into a result (the
    /// caller decides attribution for shared systems).
    pub fn absorb_mem_stats(result: &mut SimResult, mem: &MemorySystem) {
        result.mem.l2 = mem.l2.stats();
        result.mem.memory_accesses = mem.memory_accesses;
    }

    /// Advances the engine's notion of time (reconfiguration stalls).
    pub fn add_stall_cycles(&mut self, cycles: u64) {
        self.fetch_ready = self.fetch_ready.max(self.prev_commit) + cycles;
        self.prev_commit += cycles;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sharing_isa::MemSize;

    /// The original scanned structural pool — a multiset of busy-until
    /// times searched linearly — kept as the reference for [`WakeHeap`]
    /// and [`FifoSlots`].
    #[derive(Clone, Debug)]
    pub(crate) struct Slots {
        pub(crate) free_at: Vec<u64>,
    }

    impl Slots {
        pub(crate) fn new(n: usize) -> Self {
            Slots {
                free_at: vec![0; n],
            }
        }

        /// Earliest cycle at/after `t` a slot is available.
        pub(crate) fn available_at(&self, t: u64) -> u64 {
            t.max(self.free_at.iter().copied().min().unwrap_or(0))
        }

        /// Occupies the earliest-free slot until `until`.
        pub(crate) fn occupy(&mut self, until: u64) {
            let idx = (0..self.free_at.len())
                .min_by_key(|&i| self.free_at[i])
                .expect("Slots is never empty");
            self.free_at[idx] = self.free_at[idx].max(until);
        }
    }

    #[test]
    fn fu_calendar_allows_out_of_order_claims() {
        let mut fu = FuCalendar::default();
        // An older instruction claims a late cycle…
        assert_eq!(fu.issue_at(100, 1), 100);
        // …and a younger, early-ready one still gets an earlier cycle.
        assert_eq!(fu.issue_at(5, 1), 5);
        // Conflicts walk forward.
        assert_eq!(fu.issue_at(5, 1), 6);
        assert_eq!(fu.issue_at(99, 1), 99);
        assert_eq!(fu.issue_at(99, 1), 101, "100 is taken");
    }

    #[test]
    fn fu_calendar_multi_cycle_occupancy_is_contiguous() {
        let mut fu = FuCalendar::default();
        assert_eq!(fu.issue_at(10, 4), 10); // 10..14 busy
        assert_eq!(fu.issue_at(11, 4), 14); // next free run of 4
        assert_eq!(fu.issue_at(0, 4), 0);
    }

    #[test]
    fn slots_capacity_and_availability() {
        let mut s = Slots::new(2);
        assert_eq!(s.available_at(5), 5);
        s.occupy(50);
        s.occupy(60);
        // Both busy: next availability is the earliest release.
        assert_eq!(s.available_at(5), 50);
        s.occupy(70); // replaces the slot that freed at 50
        assert_eq!(s.available_at(0), 60);
    }

    /// The exact set-of-busy-cycles calendar [`FuCalendar`] replaced,
    /// prune rule included (the model `fu_calendar_matches_btreeset_reference`
    /// keeps inline): the reference it must match claim for claim.
    struct BusySet {
        busy: std::collections::BTreeSet<u64>,
    }

    impl BusySet {
        fn issue_at(&mut self, ready: u64, occupancy: u64) -> u64 {
            let mut c = ready;
            'search: loop {
                for k in 0..occupancy {
                    if self.busy.contains(&(c + k)) {
                        c = c + k + 1;
                        continue 'search;
                    }
                }
                for k in 0..occupancy {
                    self.busy.insert(c + k);
                }
                break;
            }
            if self.busy.len() > 8192 {
                let cutoff = c.saturating_sub(4096);
                self.busy = self.busy.split_off(&cutoff);
            }
            c
        }
    }

    #[test]
    fn fu_calendar_matches_btreeset_reference() {
        // The bitmap calendar must be observably identical to the exact
        // set-of-busy-cycles model it replaced, prune rule included.
        use std::collections::BTreeSet;
        struct Reference {
            busy: BTreeSet<u64>,
        }
        impl Reference {
            fn issue_at(&mut self, ready: u64, occupancy: u64) -> u64 {
                let mut c = ready;
                'search: loop {
                    for k in 0..occupancy {
                        if self.busy.contains(&(c + k)) {
                            c = c + k + 1;
                            continue 'search;
                        }
                    }
                    for k in 0..occupancy {
                        self.busy.insert(c + k);
                    }
                    break;
                }
                if self.busy.len() > 8192 {
                    let cutoff = c.saturating_sub(4096);
                    self.busy = self.busy.split_off(&cutoff);
                }
                c
            }
        }
        let mut fu = FuCalendar::default();
        let mut reference = Reference {
            busy: BTreeSet::new(),
        };
        // A deterministic pseudo-random stream of (ready, occupancy)
        // claims, wide enough to drive both through several prunes.
        let mut x = 0x2014_u64;
        let mut frontier = 0u64;
        for i in 0..30_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            frontier += x >> 61; // advance 0..=7 cycles
            let ready = frontier.saturating_sub(x >> 56 & 0x3F); // jitter back
            let occupancy = if x & 0xF == 0 { 4 } else { 1 };
            assert_eq!(
                fu.issue_at(ready, occupancy),
                reference.issue_at(ready, occupancy),
                "claim {i} diverged"
            );
            assert_eq!(fu.count, reference.busy.len(), "claim {i} count diverged");
        }
        assert!(frontier > 100_000, "stream should outrun the prune window");
    }

    #[test]
    fn fu_calendar_matches_reference_on_a_dram_fill_stream() {
        // The DRAM channel's pattern: occupancy-4 fills requested far
        // behind the booked frontier, so each search crosses a long busy
        // run, with single-cycle claims leaving holes a fill cannot use.
        let mut fu = FuCalendar::default();
        let mut reference = BusySet {
            busy: std::collections::BTreeSet::new(),
        };
        let mut x = 0xD1A7_u64;
        let mut now = 0u64;
        let (mut longest, mut total) = (0u64, 0u64);
        for i in 0..10_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            now += 2 + (x >> 62) + (x >> 60 & 1); // advance 2..=6 cycles
            let ready = now.saturating_sub(x >> 55 & 0x1FF); // up to 511 back
            let occupancy = if x >> 40 & 0x7 == 0 { 1 } else { 4 };
            let c = fu.issue_at(ready, occupancy);
            assert_eq!(
                c,
                reference.issue_at(ready, occupancy),
                "claim {i} diverged"
            );
            assert_eq!(fu.count, reference.busy.len(), "claim {i} count diverged");
            longest = longest.max(c - ready);
            total += c - ready;
        }
        // A `vm` (2,8) job's fills average about 50 cycles of search.
        assert!(total / 10_000 > 50, "searches should cross long busy runs");
        assert!(longest > 256, "some searches should span several words");
    }

    #[test]
    fn fifo_slots_match_slots_for_monotonic_releases() {
        // FifoSlots is only used for commit-released resources, where the
        // release times are nondecreasing; under that contract it must be
        // observably identical to the min-scan Slots.
        let mut ring = FifoSlots::new(7);
        let mut reference = Slots::new(7);
        let mut x = 0xA5_u64;
        let mut commit = 0u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let t = commit.saturating_sub(x >> 60);
            assert_eq!(ring.available_at(t), reference.available_at(t));
            commit += x >> 62; // nondecreasing, advances 0..=3
            ring.occupy(commit);
            reference.occupy(commit);
        }
    }

    #[test]
    fn memory_system_dram_channel_queues_fills() {
        let mut m = MemorySystem::private(0, 100); // no L2: every access fills
        let (a, _, _) = m.beyond_l1(0, 1, false, 0);
        let (b, _, _) = m.beyond_l1(0, 2, false, 0);
        let (c, _, _) = m.beyond_l1(0, 3, false, 0);
        assert_eq!(a, 100, "first fill sees raw memory latency");
        assert_eq!(b, 104, "second queues one service slot");
        assert_eq!(c, 108);
        assert_eq!(m.memory_accesses, 3);
    }

    #[test]
    fn memory_system_l2_hits_skip_dram() {
        let mut m = MemorySystem::private(2, 100);
        let (miss, _, _) = m.beyond_l1(0, 7, false, 0);
        let (hit, _, _) = m.beyond_l1(0, 7, false, 1000);
        assert!(miss > 100);
        assert!(hit < 20, "an L2 hit costs only the bank trip: {hit}");
        assert_eq!(m.memory_accesses, 1);
    }

    #[test]
    fn shared_memory_system_tracks_coherence() {
        let mut m = MemorySystem::shared(2, 100);
        let _ = m.beyond_l1(0, 7, true, 0); // VCore 0 owns the line
        let (_, invals, forwards) = m.beyond_l1(1, 7, true, 10);
        assert_eq!(invals, 1, "owner invalidated");
        assert_eq!(forwards, 1, "dirty line forwarded");
        assert_eq!(m.pending_invals, vec![(0, 7)]);
    }

    fn engine(slices: usize) -> VCoreEngine {
        VCoreEngine::new(SimConfig::with_shape(slices, 2).unwrap(), 0)
    }

    #[test]
    fn pc_interleaving_is_pairwise_round_robin() {
        let e = engine(4);
        // Pairs of 8 bytes rotate across slices.
        assert_eq!(e.slice_of_pc(0x00), 0);
        assert_eq!(e.slice_of_pc(0x04), 0);
        assert_eq!(e.slice_of_pc(0x08), 1);
        assert_eq!(e.slice_of_pc(0x10), 2);
        assert_eq!(e.slice_of_pc(0x18), 3);
        assert_eq!(e.slice_of_pc(0x20), 0);
    }

    #[test]
    fn line_interleaving_spreads_homes() {
        let e = engine(4);
        for line in 0..16u64 {
            assert_eq!(e.home_of_line(line), (line % 4) as usize);
        }
        assert_eq!(e.local_line(12), 3);
    }

    #[test]
    fn rename_depth_grows_with_distance_to_master() {
        let e = engine(8); // master at slice 4
        let at = |k: usize| e.rename_latency(k);
        assert_eq!(at(4), 1 + 1 + 1, "master-local rename");
        assert!(at(0) > at(3), "farther slices rename later");
        let single = engine(1);
        assert_eq!(single.rename_latency(0), 1);
    }

    #[test]
    fn precommit_broadcast_scales_with_vcore_width() {
        assert_eq!(engine(1).precommit_latency(), 0);
        let two = engine(2).precommit_latency();
        let eight = engine(8).precommit_latency();
        assert!(eight > two);
    }

    #[test]
    fn fetch_groups_break_at_taken_control_flow() {
        let e = engine(4);
        let r = sharing_isa::ArchReg::new(1);
        let insts = vec![
            DynInst::alu(0x00, r, &[]),
            DynInst::branch(0x04, r, false, 0x40), // not taken: no break
            DynInst::alu(0x08, r, &[]),
            DynInst::branch(0x0C, r, true, 0x40), // taken: group ends here
            DynInst::alu(0x40, r, &[]),
        ];
        assert_eq!(e.find_group_end(&insts, 0), 4);
        assert_eq!(e.find_group_end(&insts, 4), 5);
    }

    #[test]
    fn fetch_groups_cap_at_twice_the_slice_count() {
        let e = engine(2);
        let r = sharing_isa::ArchReg::new(1);
        let insts: Vec<DynInst> = (0..10).map(|i| DynInst::alu(4 * i, r, &[])).collect();
        assert_eq!(e.find_group_end(&insts, 0), 4, "2 slices fetch 4/cycle");
    }

    #[test]
    fn invalidate_line_counts_and_clears() {
        let mut e = engine(2);
        let mut mem = MemorySystem::private(2, 100);
        // Touch a line so some L1D holds it.
        let r = sharing_isa::ArchReg::new(1);
        let insts = vec![DynInst::load(0x0, r, None, 0x40, MemSize::B8)];
        e.run_chunk(&mut mem, &insts);
        e.invalidate_line(0x40 >> 6);
        let result = e.finish("t");
        assert_eq!(result.mem.coherence_invalidations, 1);
    }

    #[test]
    fn add_stall_cycles_advances_time() {
        let mut e = engine(1);
        let mut mem = MemorySystem::private(2, 100);
        e.run_chunk(&mut mem, &[DynInst::nop(0)]);
        let before = e.cycles();
        e.add_stall_cycles(500);
        assert_eq!(e.cycles(), before + 500);
    }

    #[test]
    fn store_load_forwarding_is_observed() {
        // A store immediately followed by a load of the same address must
        // forward (the store cannot have drained yet).
        let mut e = engine(1);
        let mut mem = MemorySystem::private(2, 100);
        let r = sharing_isa::ArchReg::new(1);
        let d = sharing_isa::ArchReg::new(2);
        let insts = vec![
            DynInst::alu(0x0, r, &[]),
            DynInst::store(0x4, r, None, 0x1000, MemSize::B8),
            DynInst::load(0x8, d, None, 0x1000, MemSize::B8),
        ];
        e.run_chunk(&mut mem, &insts);
        let result = e.finish("t");
        assert_eq!(result.mem.store_forwards, 1);
        assert_eq!(result.mem.lsq_violations, 0, "load is younger and later");
    }
}
