//! Workload profiles: the parameter space of the synthetic generator.

use sharing_json::{json_struct, FromJson, Json, JsonError, ToJson};

/// The most threads a profile may ask for. Each thread runs on its own
/// VCore of one VM, and the VM's coherence directory tracks at most
/// `sharing_cache::directory::MAX_VCORES` (64) of them.
pub const MAX_PROFILE_THREADS: usize = 64;

/// The most loops a profile's static program may hold. The generator
/// builds every loop's slots before the first instruction, `n_loops ×
/// loop_body` of them, and each thread's walk keeps two words per slot;
/// with [`MAX_LOOP_BODY`] that is at most 256 Ki slots.
pub const MAX_PROFILE_LOOPS: usize = 256;

/// The most instructions a profile's loop body may hold.
pub const MAX_LOOP_BODY: usize = 1_024;

/// The most iterations a profile's loop may run before the next loop
/// starts: one loop as long as the longest trace,
/// [`MAX_TRACE_LEN`](crate::MAX_TRACE_LEN).
pub const MAX_LOOP_ITERS: usize = crate::MAX_TRACE_LEN;

/// The most memory regions a profile may list.
pub const MAX_PROFILE_REGIONS: usize = 64;

/// The largest memory region, 4 GiB. The generator lays the regions out
/// one after another, each padded to twice its size rounded up to a
/// power of two, so [`MAX_PROFILE_REGIONS`] regions at this cap span
/// 2^39 bytes: inside the 2^40-byte stride that keeps each thread's
/// private addresses apart.
pub const MAX_REGION_BYTES: u64 = 1 << 32;

/// How a memory region is accessed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AccessPattern {
    /// Sequential streaming with the given stride in bytes (e.g. libquantum's
    /// vector sweeps). Streams wrap around the region.
    Streaming {
        /// Stride between consecutive accesses, in bytes.
        stride: u64,
    },
    /// Uniform random accesses within the region (hash tables, graph data).
    Random,
}

/// One region of a workload's working set.
///
/// The region model is what gives each benchmark its cache-size sensitivity
/// curve (paper Figure 13): a benchmark whose hot regions fit in a small L2
/// is insensitive, one with a multi-megabyte warm region keeps improving to
/// 8 MB, and one whose only big region exceeds 8 MB is flat because it misses
/// at every size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemRegion {
    /// Region size in bytes.
    pub bytes: u64,
    /// Relative probability that a memory access falls in this region.
    pub weight: f64,
    /// Access pattern within the region.
    pub access: AccessPattern,
}

impl ToJson for AccessPattern {
    fn to_json(&self) -> Json {
        match self {
            AccessPattern::Streaming { stride } => Json::obj(vec![(
                "Streaming",
                Json::obj(vec![("stride", stride.to_json())]),
            )]),
            AccessPattern::Random => Json::Str("Random".to_string()),
        }
    }
}

impl FromJson for AccessPattern {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) if s == "Random" => Ok(AccessPattern::Random),
            Json::Obj(_) => {
                let body = v
                    .get("Streaming")
                    .ok_or_else(|| JsonError::msg(format!("unknown access pattern {v}")))?;
                let stride = body
                    .get("stride")
                    .ok_or_else(|| JsonError::msg("Streaming missing stride".to_string()))?;
                Ok(AccessPattern::Streaming {
                    stride: u64::from_json(stride)?,
                })
            }
            other => Err(JsonError::msg(format!("unknown access pattern {other}"))),
        }
    }
}

json_struct!(MemRegion {
    bytes,
    weight,
    access
});

json_struct!(WorkloadProfile {
    name,
    chains,
    mem_frac,
    store_frac,
    branch_frac,
    hard_branch_frac,
    hard_taken,
    mul_frac,
    div_frac,
    pointer_chase_frac,
    regions,
    threads,
    shared_frac,
    loop_body,
    loop_iters,
    n_loops,
    spatial_burst,
    pattern_branch_frac,
});

impl MemRegion {
    /// A streaming region.
    #[must_use]
    pub fn streaming(bytes: u64, weight: f64, stride: u64) -> Self {
        MemRegion {
            bytes,
            weight,
            access: AccessPattern::Streaming { stride },
        }
    }

    /// A randomly accessed region.
    #[must_use]
    pub fn random(bytes: u64, weight: f64) -> Self {
        MemRegion {
            bytes,
            weight,
            access: AccessPattern::Random,
        }
    }
}

/// The microarchitectural profile of a synthetic workload.
///
/// Each field maps to a behaviour the Sharing Architecture paper's results
/// depend on; see the crate docs and `DESIGN.md` §3 for the calibration
/// rationale.
///
/// # Example
///
/// ```
/// use sharing_trace::{WorkloadProfile, MemRegion};
///
/// let p = WorkloadProfile::builder("toy")
///     .chains(4)
///     .mem_frac(0.3)
///     .branch_frac(0.15)
///     .region(MemRegion::random(64 << 10, 1.0))
///     .build();
/// assert_eq!(p.name, "toy");
/// assert!(p.validate().is_ok());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadProfile {
    /// Workload name (used in reports).
    pub name: String,
    /// Number of independent dependency chains threaded through the ALU
    /// instructions. This is the workload's intrinsic ILP: with `k` chains,
    /// ALU-bound code can sustain at most ≈`k` instructions per cycle no
    /// matter how many Slices a VCore has.
    pub chains: usize,
    /// Fraction of dynamic instructions that are memory operations.
    pub mem_frac: f64,
    /// Of memory operations, the fraction that are stores.
    pub store_frac: f64,
    /// Fraction of dynamic instructions that are conditional branches.
    pub branch_frac: f64,
    /// Of branches, the fraction that are data-dependent ("hard") rather
    /// than loop-like. Hard branches take with probability
    /// [`hard_taken`](Self::hard_taken) independently each execution, so the
    /// bimodal predictor mispredicts them at ≈`2·p·(1-p)`.
    pub hard_branch_frac: f64,
    /// Taken probability of hard branches.
    pub hard_taken: f64,
    /// Of ALU operations, the fraction that are multiplies.
    pub mul_frac: f64,
    /// Of ALU operations, the fraction that are divides.
    pub div_frac: f64,
    /// Of loads, the fraction that are pointer-chasing: each such load's
    /// address operand depends on the previous pointer-chase load's result,
    /// serializing them (mcf, omnetpp, astar).
    pub pointer_chase_frac: f64,
    /// The working-set model. Weights are normalized internally.
    pub regions: Vec<MemRegion>,
    /// Number of threads (1 for the SPEC-class workloads, 4 for PARSEC).
    pub threads: usize,
    /// For multi-threaded workloads, the fraction of memory accesses that go
    /// to a region shared by all threads (drives inter-VCore coherence
    /// traffic).
    pub shared_frac: f64,
    /// Dynamic instructions in one loop body of the generated program.
    pub loop_body: usize,
    /// Iterations per loop before moving to the next loop in the program.
    pub loop_iters: usize,
    /// Number of distinct loops in the static program (controls I-side
    /// footprint and predictor table pressure).
    pub n_loops: usize,
    /// Spatial locality of randomly-accessed regions: consecutive accesses
    /// from one memory slot stay within the same 64-byte line for this many
    /// accesses before jumping to a new random line. Real programs touch
    /// several fields of a structure at a time; `1` disables the effect.
    pub spatial_burst: usize,
    /// Of the hard branches, the fraction whose outcomes follow a short
    /// repeating pattern (period 3–6) rather than a coin — correlated
    /// behaviour a history-based predictor (gshare) can learn but a
    /// bimodal predictor cannot.
    pub pattern_branch_frac: f64,
}

impl WorkloadProfile {
    /// Starts a builder with defaults representing a generic integer
    /// workload.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> WorkloadProfileBuilder {
        WorkloadProfileBuilder::new(name)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: fractions
    /// must lie in `[0, 1]`, instruction-class fractions must not exceed 1
    /// combined, at least one region and one chain are required, and the
    /// thread, loop and region counts and sizes must lie within their caps
    /// ([`MAX_PROFILE_THREADS`], [`MAX_PROFILE_LOOPS`], [`MAX_LOOP_BODY`],
    /// [`MAX_LOOP_ITERS`], [`MAX_PROFILE_REGIONS`], [`MAX_REGION_BYTES`]).
    pub fn validate(&self) -> Result<(), String> {
        let frac_fields = [
            ("mem_frac", self.mem_frac),
            ("store_frac", self.store_frac),
            ("branch_frac", self.branch_frac),
            ("hard_branch_frac", self.hard_branch_frac),
            ("hard_taken", self.hard_taken),
            ("mul_frac", self.mul_frac),
            ("div_frac", self.div_frac),
            ("pointer_chase_frac", self.pointer_chase_frac),
            ("shared_frac", self.shared_frac),
        ];
        for (name, v) in frac_fields {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} = {v} outside [0, 1]"));
            }
        }
        if self.mem_frac + self.branch_frac > 1.0 {
            return Err("mem_frac + branch_frac exceed 1".to_string());
        }
        if self.chains == 0 {
            return Err("at least one dependency chain required".to_string());
        }
        if self.regions.is_empty() {
            return Err("at least one memory region required".to_string());
        }
        let caps = [
            ("threads", self.threads, MAX_PROFILE_THREADS),
            ("n_loops", self.n_loops, MAX_PROFILE_LOOPS),
            ("loop_body", self.loop_body, MAX_LOOP_BODY),
            ("loop_iters", self.loop_iters, MAX_LOOP_ITERS),
            ("regions", self.regions.len(), MAX_PROFILE_REGIONS),
        ];
        for (name, value, cap) in caps {
            if value > cap {
                return Err(format!("`{name}` = {value} exceeds the cap of {cap}"));
            }
        }
        if let Some(r) = self.regions.iter().find(|r| r.bytes > MAX_REGION_BYTES) {
            return Err(format!(
                "a region's `bytes` = {} exceeds the cap of {MAX_REGION_BYTES}",
                r.bytes
            ));
        }
        if self
            .regions
            .iter()
            .any(|r| r.bytes == 0 || !r.weight.is_finite() || r.weight < 0.0)
        {
            return Err(
                "regions must have positive size and finite non-negative weight".to_string(),
            );
        }
        if self.regions.iter().map(|r| r.weight).sum::<f64>() <= 0.0 {
            return Err("total region weight must be positive".to_string());
        }
        if self.threads == 0 {
            return Err("at least one thread required".to_string());
        }
        if self.loop_body == 0 || self.loop_iters == 0 || self.n_loops == 0 {
            return Err("loop shape parameters must be positive".to_string());
        }
        if self.spatial_burst == 0 {
            return Err("spatial_burst must be at least 1".to_string());
        }
        if !(0.0..=1.0).contains(&self.pattern_branch_frac) {
            return Err(format!(
                "pattern_branch_frac = {} outside [0, 1]",
                self.pattern_branch_frac
            ));
        }
        Ok(())
    }
}

/// Builder for [`WorkloadProfile`].
#[derive(Clone, Debug)]
pub struct WorkloadProfileBuilder {
    profile: WorkloadProfile,
}

impl WorkloadProfileBuilder {
    fn new(name: impl Into<String>) -> Self {
        WorkloadProfileBuilder {
            profile: WorkloadProfile {
                name: name.into(),
                chains: 4,
                mem_frac: 0.30,
                store_frac: 0.30,
                branch_frac: 0.15,
                hard_branch_frac: 0.20,
                hard_taken: 0.5,
                mul_frac: 0.05,
                div_frac: 0.0,
                pointer_chase_frac: 0.0,
                regions: vec![MemRegion::random(64 << 10, 1.0)],
                threads: 1,
                shared_frac: 0.0,
                loop_body: 64,
                loop_iters: 50,
                n_loops: 12,
                spatial_burst: 6,
                pattern_branch_frac: 0.25,
            },
        }
    }

    /// Sets the number of independent dependency chains (intrinsic ILP).
    #[must_use]
    pub fn chains(mut self, chains: usize) -> Self {
        self.profile.chains = chains;
        self
    }

    /// Sets the memory-operation fraction.
    #[must_use]
    pub fn mem_frac(mut self, f: f64) -> Self {
        self.profile.mem_frac = f;
        self
    }

    /// Sets the store share of memory operations.
    #[must_use]
    pub fn store_frac(mut self, f: f64) -> Self {
        self.profile.store_frac = f;
        self
    }

    /// Sets the branch fraction.
    #[must_use]
    pub fn branch_frac(mut self, f: f64) -> Self {
        self.profile.branch_frac = f;
        self
    }

    /// Sets the hard (data-dependent) share of branches and their taken
    /// probability.
    #[must_use]
    pub fn hard_branches(mut self, frac: f64, taken: f64) -> Self {
        self.profile.hard_branch_frac = frac;
        self.profile.hard_taken = taken;
        self
    }

    /// Sets multiply/divide shares of ALU operations.
    #[must_use]
    pub fn muldiv(mut self, mul: f64, div: f64) -> Self {
        self.profile.mul_frac = mul;
        self.profile.div_frac = div;
        self
    }

    /// Sets the pointer-chasing share of loads.
    #[must_use]
    pub fn pointer_chase(mut self, f: f64) -> Self {
        self.profile.pointer_chase_frac = f;
        self
    }

    /// Replaces the working-set model with the given regions.
    #[must_use]
    pub fn regions(mut self, regions: Vec<MemRegion>) -> Self {
        self.profile.regions = regions;
        self
    }

    /// Adds one region to the working-set model (keeps the default region if
    /// never called; the first call replaces the default).
    #[must_use]
    pub fn region(mut self, region: MemRegion) -> Self {
        const DEFAULT: u64 = 64 << 10;
        if self.profile.regions.len() == 1
            && self.profile.regions[0].bytes == DEFAULT
            && self.profile.regions[0].weight == 1.0
        {
            self.profile.regions.clear();
        }
        self.profile.regions.push(region);
        self
    }

    /// Sets the thread count and shared-access fraction.
    #[must_use]
    pub fn threads(mut self, threads: usize, shared_frac: f64) -> Self {
        self.profile.threads = threads;
        self.profile.shared_frac = shared_frac;
        self
    }

    /// Sets the spatial-burst length of random regions.
    #[must_use]
    pub fn spatial_burst(mut self, burst: usize) -> Self {
        self.profile.spatial_burst = burst;
        self
    }

    /// Sets the patterned share of hard branches.
    #[must_use]
    pub fn pattern_branches(mut self, frac: f64) -> Self {
        self.profile.pattern_branch_frac = frac;
        self
    }

    /// Sets the static program shape.
    #[must_use]
    pub fn loops(mut self, n_loops: usize, body: usize, iters: usize) -> Self {
        self.profile.n_loops = n_loops;
        self.profile.loop_body = body;
        self.profile.loop_iters = iters;
        self
    }

    /// Finalizes the profile.
    ///
    /// # Panics
    ///
    /// Panics if the accumulated parameters are inconsistent (see
    /// [`WorkloadProfile::validate`]).
    #[must_use]
    pub fn build(self) -> WorkloadProfile {
        if let Err(e) = self.profile.validate() {
            panic!("invalid workload profile `{}`: {e}", self.profile.name);
        }
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_valid() {
        let p = WorkloadProfile::builder("x").build();
        assert!(p.validate().is_ok());
        assert_eq!(p.threads, 1);
    }

    #[test]
    fn validate_rejects_bad_fractions() {
        let mut p = WorkloadProfile::builder("x").build();
        p.mem_frac = 1.5;
        assert!(p.validate().is_err());
        p.mem_frac = 0.6;
        p.branch_frac = 0.6;
        assert!(p.validate().unwrap_err().contains("exceed 1"));
    }

    #[test]
    fn validate_rejects_empty_regions_and_chains() {
        let mut p = WorkloadProfile::builder("x").build();
        p.regions.clear();
        assert!(p.validate().is_err());
        let mut p = WorkloadProfile::builder("x").build();
        p.chains = 0;
        assert!(p.validate().is_err());
        // A NaN weight would make the profile unequal to itself, and so
        // unfindable as a trace-cache key.
        for weight in [f64::NAN, f64::INFINITY] {
            let mut p = WorkloadProfile::builder("x").build();
            p.regions[0].weight = weight;
            assert!(p.validate().is_err(), "{weight}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid workload profile")]
    fn build_panics_on_invalid() {
        let _ = WorkloadProfile::builder("x").mem_frac(2.0).build();
    }

    #[test]
    fn region_replaces_default_then_appends() {
        let p = WorkloadProfile::builder("x")
            .region(MemRegion::random(1 << 20, 0.5))
            .region(MemRegion::streaming(8 << 20, 0.5, 64))
            .build();
        assert_eq!(p.regions.len(), 2);
        assert_eq!(p.regions[0].bytes, 1 << 20);
    }
}
