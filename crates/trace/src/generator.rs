//! Deterministic synthetic program generator.
//!
//! The generator builds a *static program* — a set of loops whose bodies are
//! instruction templates — from a [`WorkloadProfile`] and a seed, then walks
//! that program to emit a committed-path dynamic trace. Because the static
//! program has stable PCs, branch biases, and loop structure, the simulator's
//! bimodal predictor, BTB, and caches see realistic, trainable behaviour
//! rather than white noise:
//!
//! * loop-end branches are taken for every iteration but the last → highly
//!   predictable, one mispredict per loop exit;
//! * "hard" branches flip with a per-execution coin → mispredict at
//!   ≈ `2·p·(1-p)` under a bimodal predictor;
//! * streaming memory slots advance a cursor through their region →
//!   spatial locality proportional to the stride;
//! * random memory slots sample their region uniformly → hit rate tracks
//!   the cache-size : region-size ratio, producing the paper's Figure 13
//!   sensitivity shapes;
//! * pointer-chase loads form a serial dependence chain through a dedicated
//!   register, capping memory-level parallelism like mcf/omnetpp.

use crate::profile::{AccessPattern, WorkloadProfile};
use crate::rng::Rng64;
use crate::trace::{ThreadedTrace, Trace, TraceSpec};
use sharing_isa::{ArchReg, DynInst, InstKind, MemSize};

/// Register assignment conventions used by generated programs.
mod regs {
    /// Chains occupy r0..r23 (cap on `WorkloadProfile::chains`).
    pub const MAX_CHAINS: usize = 24;
    /// The pointer-chase serial register.
    pub const PTR: u8 = 30;
    /// Scratch base register for address operands of non-chasing accesses.
    pub const BASE: u8 = 29;
    /// The induction register: updated once per loop iteration by a pure
    /// ALU op, and read by loop-exit tests and most forward branches, so
    /// control mostly resolves fast — like real loop-counter code.
    pub const IND: u8 = 26;
}

/// Arithmetic flavour of an ALU slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AluOp {
    Alu,
    Mul,
    Div,
}

/// Address behaviour of a memory slot.
#[derive(Clone, Copy, Debug)]
enum SlotMode {
    Stream { stride: u64, cursor: u64 },
    Random,
}

/// One instruction template in a loop body.
#[derive(Clone, Debug)]
enum Slot {
    Alu {
        op: AluOp,
        chain: u8,
        extra_src: Option<u8>,
    },
    Load {
        region: usize,
        mode: SlotMode,
        chain: u8,
        chase: bool,
    },
    Store {
        region: usize,
        mode: SlotMode,
        data_chain: u8,
    },
    /// Pure-ALU induction update (`r26 <- f(r26)`), once per loop body.
    InductionUpdate,
    /// Conditional forward branch skipping `skip` following slots when
    /// taken. `cond` is the register tested. Outcomes come from one of
    /// three processes: a Bernoulli coin (`taken_p`, `pattern: None`), or a
    /// repeating history pattern of the given period (`pattern: Some(k)`,
    /// taken on the last execution of each period) — the kind of
    /// correlated behaviour only history-based predictors capture.
    Branch {
        cond: u8,
        skip: usize,
        taken_p: f64,
        pattern: Option<u8>,
    },
    /// The backward loop-closing branch (always the last slot); tests the
    /// induction register.
    LoopEnd,
}

#[derive(Clone, Debug)]
struct Loop {
    base_pc: u64,
    slots: Vec<Slot>,
    iters: usize,
}

impl Loop {
    fn slot_pc(&self, idx: usize) -> u64 {
        self.base_pc + 4 * idx as u64
    }
}

/// Where each memory region lives in the flat address space.
#[derive(Clone, Debug)]
struct RegionLayout {
    base: u64,
    bytes: u64,
    access: AccessPattern,
    /// Cumulative, normalized selection weight.
    cum_weight: f64,
}

/// A static program: its loops and its memory regions' layout.
type Program = (Vec<Loop>, Vec<RegionLayout>);

const SHARED_REGION_BASE: u64 = 0x7000_0000_0000;
const SHARED_REGION_BYTES: u64 = (1 << 20) / sharing_isa::CAPACITY_SCALE;
/// Per-thread offset keeps private working sets disjoint between threads.
const THREAD_STRIDE: u64 = 1 << 40;
const FIRST_LOOP_PC: u64 = 0x1_0000;

/// Deterministic generator producing [`Trace`]s from a [`WorkloadProfile`].
///
/// # Example
///
/// ```
/// use sharing_trace::{ProgramGenerator, TraceSpec, WorkloadProfile};
///
/// let profile = WorkloadProfile::builder("toy").chains(2).build();
/// let gen = ProgramGenerator::new(&profile, TraceSpec::new(1_000, 7)).unwrap();
/// let t = gen.generate_single();
/// assert_eq!(t.len(), 1_000);
/// // Same inputs, same trace:
/// let t2 = ProgramGenerator::new(&profile, TraceSpec::new(1_000, 7)).unwrap().generate_single();
/// assert_eq!(t, t2);
/// ```
#[derive(Clone, Debug)]
pub struct ProgramGenerator {
    profile: WorkloadProfile,
    spec: TraceSpec,
}

impl ProgramGenerator {
    /// Creates a generator after validating the profile.
    ///
    /// # Errors
    ///
    /// Returns the profile's validation error, or a complaint if `chains`
    /// exceeds the register budget, or if the spec length is zero.
    pub fn new(profile: &WorkloadProfile, spec: TraceSpec) -> Result<Self, String> {
        profile.validate()?;
        if profile.chains > regs::MAX_CHAINS {
            return Err(format!(
                "at most {} chains supported (got {})",
                regs::MAX_CHAINS,
                profile.chains
            ));
        }
        if spec.len == 0 {
            return Err("trace length must be positive".to_string());
        }
        Ok(ProgramGenerator {
            profile: profile.clone(),
            spec,
        })
    }

    /// The profile this generator was built from.
    #[must_use]
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Generates the full (possibly multi-threaded) workload.
    #[must_use]
    pub fn generate(&self) -> ThreadedTrace {
        let program = self.build_program();
        let threads: Vec<Trace> = (0..self.profile.threads)
            .map(|tid| self.generate_thread(&program, tid))
            .collect();
        ThreadedTrace::new(self.profile.name.clone(), threads)
    }

    /// Generates thread 0 only (convenience for single-threaded workloads).
    #[must_use]
    pub fn generate_single(&self) -> Trace {
        self.generate_thread(&self.build_program(), 0)
    }

    fn generate_thread(&self, (loops, regions): &Program, tid: usize) -> Trace {
        let p = &self.profile;
        // Only the dynamic randomness (hard-branch outcomes, random
        // addresses) and the private address offset differ per thread.
        let mut dyn_rng =
            Rng64::seed_from_u64(self.spec.seed.wrapping_add(0x1357 * (tid as u64 + 1)));
        let mut walker = Walker {
            profile: p,
            loops,
            regions,
            rng: &mut dyn_rng,
            tid: tid as u64,
            stream_cursors: Vec::new(),
            burst_state: Vec::new(),
            out: Vec::with_capacity(self.spec.len),
        };
        walker.run(self.spec.len);
        Trace::from_insts(p.name.clone(), walker.out)
    }

    /// Builds the static program: loops, slots, and the region layout,
    /// identical across threads (same binary).
    fn build_program(&self) -> Program {
        let rng = &mut Rng64::seed_from_u64(self.spec.seed ^ 0xA5A5_0000);
        let p = &self.profile;
        let regions = layout_regions(p);
        let mut loops = Vec::with_capacity(p.n_loops);
        let mut base_pc = FIRST_LOOP_PC;
        for _ in 0..p.n_loops {
            let body = p.loop_body;
            let mut slots = Vec::with_capacity(body);
            for idx in 0..body {
                if idx == 0 {
                    slots.push(Slot::InductionUpdate);
                    continue;
                }
                if idx == body - 1 {
                    slots.push(Slot::LoopEnd);
                    continue;
                }
                slots.push(self.sample_slot(rng, &regions, idx, body));
            }
            // Jitter iteration counts ±25% so loops don't beat in lockstep.
            let jitter = (p.loop_iters / 4).max(1);
            let iters =
                (p.loop_iters - jitter.min(p.loop_iters - 1)) + rng.usize_inclusive(0, 2 * jitter);
            loops.push(Loop {
                base_pc,
                slots,
                iters: iters.max(1),
            });
            // Body plus the inter-loop jump slot.
            base_pc += 4 * (p.loop_body as u64 + 1);
        }
        (loops, regions)
    }

    fn sample_slot(
        &self,
        rng: &mut Rng64,
        regions: &[RegionLayout],
        idx: usize,
        body: usize,
    ) -> Slot {
        let p = &self.profile;
        let roll: f64 = rng.f64();
        if roll < p.branch_frac && idx + 2 < body {
            // Forward conditional branch. Skip must stay inside the body
            // (never skipping the loop-end slot).
            let max_skip = (body - 2 - idx).min(3);
            let skip = rng.usize_inclusive(1, max_skip.max(1));
            let hard = rng.bool(p.hard_branch_frac);
            let taken_p = if hard {
                p.hard_taken
            } else if rng.bool(0.5) {
                0.04
            } else {
                0.96
            };
            // Hard (data-dependent) branches test the chain being computed
            // right here (a just-produced value); easy branches mostly test
            // the fast induction value.
            let cond = if hard || rng.bool(0.35) {
                ((idx / 3) % p.chains) as u8
            } else {
                regs::IND
            };
            // A share of the hard branches follow a short repeating
            // pattern instead of a coin: correlated, history-predictable.
            let pattern =
                (hard && rng.bool(p.pattern_branch_frac)).then(|| rng.range_inclusive(3, 6) as u8);
            return Slot::Branch {
                cond,
                skip,
                taken_p,
                pattern,
            };
        }
        // Dependent operations cluster in program order, the way compiled
        // expression code does: a short run of slots extends one chain
        // before the body moves on to the next. Under PC-interleaved fetch
        // this keeps most dataflow edges on the same or an adjacent Slice,
        // matching the locality real schedules exhibit.
        let run_chain = ((idx / 3) % p.chains) as u8;
        if roll < p.branch_frac + p.mem_frac {
            let region = pick_region(regions, rng.f64());
            let mode = match regions[region].access {
                AccessPattern::Streaming { stride } => SlotMode::Stream {
                    stride,
                    cursor: rng.below(regions[region].bytes) & !7,
                },
                AccessPattern::Random => SlotMode::Random,
            };
            if rng.bool(p.store_frac) {
                return Slot::Store {
                    region,
                    mode,
                    data_chain: run_chain,
                };
            }
            let chase = rng.bool(p.pointer_chase_frac);
            return Slot::Load {
                region,
                mode,
                chain: run_chain,
                chase,
            };
        }
        let op_roll: f64 = rng.f64();
        let op = if op_roll < p.div_frac {
            AluOp::Div
        } else if op_roll < p.div_frac + p.mul_frac {
            AluOp::Mul
        } else {
            AluOp::Alu
        };
        let chain = run_chain;
        // Occasionally read a second register: usually the cheap induction
        // value, rarely another chain — heavy cross-chain coupling would
        // tie every chain to the globally slowest value, which real
        // dataflow graphs do not do.
        let extra_src = rng
            .bool(0.12)
            .then(|| {
                if rng.bool(0.3) {
                    rng.below(p.chains as u64) as u8
                } else {
                    regs::IND
                }
            })
            .filter(|&c| c != chain);
        Slot::Alu {
            op,
            chain,
            extra_src,
        }
    }
}

fn layout_regions(p: &WorkloadProfile) -> Vec<RegionLayout> {
    let total: f64 = p.regions.iter().map(|r| r.weight).sum();
    let mut cum = 0.0;
    let mut base = 0x1000_0000u64;
    let mut out = Vec::with_capacity(p.regions.len());
    for r in &p.regions {
        cum += r.weight / total;
        // Region sizes are nominal; the modeled footprint is co-scaled
        // with the cache hierarchy (see `sharing_isa::CAPACITY_SCALE`).
        let effective = (r.bytes / sharing_isa::CAPACITY_SCALE).max(64);
        out.push(RegionLayout {
            base,
            bytes: effective,
            access: r.access,
            cum_weight: cum,
        });
        // Pad generously so regions never alias.
        base += r.bytes.next_power_of_two().max(1 << 20) * 2;
    }
    // Guard against float drift: the last region must cover roll = 1.0.
    if let Some(last) = out.last_mut() {
        last.cum_weight = 1.0;
    }
    out
}

fn pick_region(regions: &[RegionLayout], roll: f64) -> usize {
    regions
        .iter()
        .position(|r| roll <= r.cum_weight)
        .unwrap_or(regions.len() - 1)
}

/// Dynamic-trace walker over the static program.
struct Walker<'a> {
    profile: &'a WorkloadProfile,
    loops: &'a [Loop],
    regions: &'a [RegionLayout],
    rng: &'a mut Rng64,
    tid: u64,
    /// Streaming cursor per (loop, slot), lazily initialized from the
    /// template cursor. Indexed `loop * body + slot`.
    stream_cursors: Vec<Option<u64>>,
    /// Spatial-burst state per (loop, slot) for random regions:
    /// `(current line offset, accesses left in this line)`.
    burst_state: Vec<(u64, u32)>,
    out: Vec<DynInst>,
}

impl Walker<'_> {
    fn run(&mut self, len: usize) {
        let body = self.profile.loop_body;
        self.stream_cursors = vec![None; self.loops.len() * body];
        self.burst_state = vec![(0, 0); self.loops.len() * body];
        let mut cur_loop = 0usize;
        let mut iter = 0usize;
        let mut slot = 0usize;
        while self.out.len() < len {
            let l = &self.loops[cur_loop];
            let pc = l.slot_pc(slot);
            match &l.slots[slot] {
                Slot::Alu {
                    op,
                    chain,
                    extra_src,
                } => {
                    let dst = ArchReg::new(*chain);
                    let pair = [dst, ArchReg::new(extra_src.unwrap_or(*chain))];
                    let srcs = &pair[..1 + usize::from(extra_src.is_some())];
                    let inst = match op {
                        AluOp::Alu => DynInst::alu(pc, dst, srcs),
                        AluOp::Mul => DynInst::mul(pc, dst, srcs),
                        AluOp::Div => DynInst {
                            kind: InstKind::IntDiv,
                            ..DynInst::mul(pc, dst, srcs)
                        },
                    };
                    self.out.push(inst);
                    slot += 1;
                }
                Slot::Load {
                    region,
                    mode,
                    chain,
                    chase,
                } => {
                    let addr = self.next_addr(cur_loop, slot, *region, mode);
                    let (dst, base) = if *chase {
                        (ArchReg::new(regs::PTR), Some(ArchReg::new(regs::PTR)))
                    } else {
                        (ArchReg::new(*chain), Some(ArchReg::new(regs::BASE)))
                    };
                    self.out
                        .push(DynInst::load(pc, dst, base, addr, MemSize::B8));
                    slot += 1;
                }
                Slot::Store {
                    region,
                    mode,
                    data_chain,
                } => {
                    let addr = self.next_addr(cur_loop, slot, *region, mode);
                    self.out.push(DynInst::store(
                        pc,
                        ArchReg::new(*data_chain),
                        Some(ArchReg::new(regs::BASE)),
                        addr,
                        MemSize::B8,
                    ));
                    slot += 1;
                }
                Slot::InductionUpdate => {
                    let ind = ArchReg::new(regs::IND);
                    self.out.push(DynInst::alu(pc, ind, &[ind]));
                    slot += 1;
                }
                Slot::Branch {
                    cond,
                    skip,
                    taken_p,
                    pattern,
                } => {
                    let taken = match pattern {
                        // Iteration-correlated: taken on the last iteration
                        // of each period (e.g. a condition true every 4th
                        // element), so outcomes are periodic in the loop
                        // index — learnable from branch history.
                        Some(period) => iter as u64 % u64::from(*period) == u64::from(*period) - 1,
                        None => self.rng.bool(*taken_p),
                    };
                    let target = l.slot_pc(slot + skip + 1);
                    self.out
                        .push(DynInst::branch(pc, ArchReg::new(*cond), taken, target));
                    slot += if taken { skip + 1 } else { 1 };
                }
                Slot::LoopEnd => {
                    iter += 1;
                    let taken = iter < l.iters;
                    self.out.push(DynInst::branch(
                        pc,
                        ArchReg::new(regs::IND),
                        taken,
                        l.base_pc,
                    ));
                    if taken {
                        slot = 0;
                    } else {
                        // Fall through to the inter-loop jump slot.
                        iter = 0;
                        let next = (cur_loop + 1) % self.loops.len();
                        self.out
                            .push(DynInst::jump(pc + 4, self.loops[next].base_pc));
                        cur_loop = next;
                        slot = 0;
                    }
                }
            }
        }
        self.out.truncate(len);
    }

    fn next_addr(&mut self, loop_idx: usize, slot: usize, region: usize, mode: &SlotMode) -> u64 {
        let p = self.profile;
        // Shared accesses (multi-threaded workloads) hit a common region so
        // VCores contend and cohere over the same lines.
        if p.threads > 1 && self.rng.bool(p.shared_frac) {
            let off = self.rng.below(SHARED_REGION_BYTES) & !7;
            return SHARED_REGION_BASE + off;
        }
        let r = &self.regions[region];
        let off = match *mode {
            SlotMode::Stream { stride, cursor } => {
                let key = loop_idx * p.loop_body + slot;
                let cur = self.stream_cursors[key].get_or_insert(cursor);
                let off = *cur;
                *cur = (*cur + stride) % r.bytes;
                off & !7
            }
            SlotMode::Random => {
                // Spatial burst: revisit the current line a few times before
                // jumping, like field accesses within one structure.
                let key = loop_idx * p.loop_body + slot;
                let (line_off, left) = self.burst_state[key];
                if left > 0 {
                    self.burst_state[key] = (line_off, left - 1);
                    line_off + (self.rng.below(64) & !7)
                } else {
                    let new_line = (self.rng.below(r.bytes) >> 6) << 6;
                    self.burst_state[key] = (new_line, p.spatial_burst as u32 - 1);
                    new_line + (self.rng.below(64) & !7)
                }
            }
        };
        r.base + off + self.tid * THREAD_STRIDE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::MemRegion;

    fn toy(chains: usize) -> WorkloadProfile {
        WorkloadProfile::builder("toy")
            .chains(chains)
            .mem_frac(0.3)
            .branch_frac(0.15)
            .region(MemRegion::random(256 << 10, 1.0))
            .build()
    }

    #[test]
    fn generation_is_deterministic() {
        let p = toy(4);
        let spec = TraceSpec::new(5_000, 99);
        let a = ProgramGenerator::new(&p, spec).unwrap().generate_single();
        let b = ProgramGenerator::new(&p, spec).unwrap().generate_single();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let p = toy(4);
        let a = ProgramGenerator::new(&p, TraceSpec::new(5_000, 1))
            .unwrap()
            .generate_single();
        let b = ProgramGenerator::new(&p, TraceSpec::new(5_000, 2))
            .unwrap()
            .generate_single();
        assert_ne!(a, b);
    }

    #[test]
    fn exact_requested_length() {
        let p = toy(2);
        for len in [1, 17, 1000] {
            let t = ProgramGenerator::new(&p, TraceSpec::new(len, 3))
                .unwrap()
                .generate_single();
            assert_eq!(t.len(), len);
        }
    }

    #[test]
    fn control_flow_is_consistent() {
        // Every instruction's next_pc must equal the following
        // instruction's pc: the committed path is a real path.
        let p = toy(4);
        let t = ProgramGenerator::new(&p, TraceSpec::new(20_000, 5))
            .unwrap()
            .generate_single();
        for w in t.insts().windows(2) {
            assert_eq!(w[0].next_pc(), w[1].pc, "control-flow break after {}", w[0]);
        }
    }

    #[test]
    fn instruction_mix_tracks_profile() {
        let p = WorkloadProfile::builder("mix")
            .chains(4)
            .mem_frac(0.4)
            .branch_frac(0.1)
            .build();
        let t = ProgramGenerator::new(&p, TraceSpec::new(50_000, 11))
            .unwrap()
            .generate_single();
        let s = t.stats();
        assert!((s.mem_frac - 0.4).abs() < 0.08, "mem_frac {}", s.mem_frac);
        assert!(
            (s.branch_frac - 0.1).abs() < 0.08,
            "branch_frac {}",
            s.branch_frac
        );
    }

    #[test]
    fn threads_generate_disjoint_private_spaces() {
        let p = WorkloadProfile::builder("mt")
            .chains(2)
            .threads(4, 0.0)
            .build();
        let tt = ProgramGenerator::new(&p, TraceSpec::new(2_000, 7))
            .unwrap()
            .generate();
        assert_eq!(tt.thread_count(), 4);
        let spaces: Vec<std::collections::HashSet<u64>> = tt
            .threads()
            .iter()
            .map(|t| {
                t.iter()
                    .filter_map(|i| i.kind.mem_addr())
                    .map(|a| a >> 40)
                    .collect()
            })
            .collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(spaces[i].is_disjoint(&spaces[j]));
            }
        }
    }

    #[test]
    fn shared_fraction_produces_shared_addresses() {
        let p = WorkloadProfile::builder("mt")
            .chains(2)
            .threads(2, 0.5)
            .build();
        let tt = ProgramGenerator::new(&p, TraceSpec::new(5_000, 7))
            .unwrap()
            .generate();
        for t in tt.threads() {
            let shared = t
                .iter()
                .filter_map(|i| i.kind.mem_addr())
                .filter(|a| {
                    (SHARED_REGION_BASE..SHARED_REGION_BASE + SHARED_REGION_BYTES).contains(a)
                })
                .count();
            assert!(shared > 0, "expected shared-region traffic");
        }
    }

    #[test]
    fn rejects_too_many_chains() {
        let p = toy(4);
        let mut bad = p.clone();
        bad.chains = 64;
        assert!(ProgramGenerator::new(&bad, TraceSpec::default()).is_err());
    }

    #[test]
    fn rejects_zero_length() {
        let p = toy(2);
        assert!(ProgramGenerator::new(&p, TraceSpec::new(0, 1)).is_err());
    }

    #[test]
    fn pointer_chase_loads_serialize_through_ptr_reg() {
        let p = WorkloadProfile::builder("chase")
            .chains(2)
            .mem_frac(0.5)
            .pointer_chase(1.0)
            .region(MemRegion::random(8 << 20, 1.0))
            .build();
        let t = ProgramGenerator::new(&p, TraceSpec::new(10_000, 13))
            .unwrap()
            .generate_single();
        let ptr = ArchReg::new(super::regs::PTR);
        let chasing = t
            .iter()
            .filter(|i| i.kind.is_load() && i.dst == Some(ptr) && i.srcs[0] == Some(ptr))
            .count();
        assert!(chasing > 1_000, "chasing loads: {chasing}");
    }
}

#[cfg(test)]
mod pattern_tests {
    use super::*;
    use crate::profile::WorkloadProfile;
    use sharing_isa::InstKind;
    use std::collections::HashMap;

    #[test]
    fn pattern_branches_repeat_their_period() {
        let p = WorkloadProfile::builder("pat")
            .chains(2)
            .branch_frac(0.25)
            .hard_branches(1.0, 0.5)
            .pattern_branches(1.0)
            .build();
        let t = ProgramGenerator::new(&p, TraceSpec::new(30_000, 3))
            .unwrap()
            .generate_single();
        // Group outcomes by branch PC; patterned branches must be exactly
        // periodic (ignore loop-end branches, whose period is the
        // iteration count).
        let mut outcomes: HashMap<u64, Vec<bool>> = HashMap::new();
        for i in t.iter() {
            if let InstKind::Branch { taken, .. } = i.kind {
                outcomes.entry(i.pc).or_default().push(taken);
            }
        }
        let mut periodic = 0;
        for seq in outcomes.values().filter(|v| v.len() >= 12) {
            for period in 3..=6usize {
                let ok = seq
                    .iter()
                    .enumerate()
                    .all(|(i, &t)| t == ((i % period) == period - 1));
                if ok {
                    periodic += 1;
                    break;
                }
            }
        }
        assert!(
            periodic >= 3,
            "expected several periodic branches, got {periodic}"
        );
    }

    #[test]
    fn pattern_share_zero_means_no_patterns_needed_for_validity() {
        let p = WorkloadProfile::builder("nopat")
            .chains(2)
            .pattern_branches(0.0)
            .build();
        assert!(p.validate().is_ok());
        let t = ProgramGenerator::new(&p, TraceSpec::new(2_000, 3))
            .unwrap()
            .generate_single();
        assert_eq!(t.len(), 2_000);
    }
}
