//! Trace containers.

use crate::stats::TraceStats;
use sharing_isa::DynInst;

/// How long a trace to generate and with which seed.
///
/// All generation is deterministic: the same spec always yields the same
/// trace, so every experiment in the repository is exactly reproducible.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceSpec {
    /// Number of dynamic instructions per thread.
    pub len: usize,
    /// Generator seed.
    pub seed: u64,
}

sharing_json::json_struct!(TraceSpec { len, seed });

/// The longest trace, in dynamic instructions per thread, a job may ask
/// for. Generation allocates the whole trace up front, about 32 bytes
/// an instruction, so an unchecked length can abort the process; a
/// four-thread job at the cap holds about 128 MiB. The longest in-tree
/// run uses 600 000.
pub const MAX_TRACE_LEN: usize = 1_000_000;

/// The most instructions one job may ask the generator for, `threads ×
/// len` over all its threads: the largest built-in job, a four-thread
/// PARSEC VM at [`MAX_TRACE_LEN`]. A profile at
/// [`MAX_PROFILE_THREADS`](crate::MAX_PROFILE_THREADS) threads and that
/// length would build about 2 GB of instructions before the run starts.
pub const MAX_JOB_INSTRUCTIONS: usize = 4 * MAX_TRACE_LEN;

impl TraceSpec {
    /// Creates a spec.
    #[must_use]
    pub fn new(len: usize, seed: u64) -> Self {
        TraceSpec { len, seed }
    }

    /// Checks a requested trace length, for every front end that takes
    /// one from outside: at least 1 (the generator refuses an empty
    /// trace) and at most [`MAX_TRACE_LEN`].
    ///
    /// # Errors
    ///
    /// A message stating the bounds, for the caller to prefix with the
    /// name of its field.
    pub fn check_len(len: usize) -> Result<usize, String> {
        if (1..=MAX_TRACE_LEN).contains(&len) {
            Ok(len)
        } else {
            Err(format!("must be between 1 and {MAX_TRACE_LEN}, got {len}"))
        }
    }

    /// Checks a job of `threads` threads of `len` instructions each
    /// against [`MAX_JOB_INSTRUCTIONS`].
    ///
    /// # Errors
    ///
    /// A message naming the product and the cap.
    pub fn check_job(threads: usize, len: usize) -> Result<(), String> {
        let total = threads.saturating_mul(len);
        if total <= MAX_JOB_INSTRUCTIONS {
            Ok(())
        } else {
            Err(format!(
                "`threads` × `len` = {threads} × {len} = {total} instructions exceeds \
                 MAX_JOB_INSTRUCTIONS = {MAX_JOB_INSTRUCTIONS}"
            ))
        }
    }
}

impl Default for TraceSpec {
    /// The default experiment length used throughout the reproduction.
    fn default() -> Self {
        TraceSpec::new(60_000, 0x5EED)
    }
}

/// A committed-path dynamic instruction stream for one hardware thread.
///
/// # Example
///
/// ```
/// use sharing_trace::Trace;
/// use sharing_isa::{ArchReg, DynInst};
///
/// let t = Trace::from_insts("demo", vec![DynInst::nop(0x0), DynInst::nop(0x4)]);
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.name(), "demo");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    name: String,
    insts: Vec<DynInst>,
}

impl Trace {
    /// Wraps a pre-built instruction vector.
    #[must_use]
    pub fn from_insts(name: impl Into<String>, insts: Vec<DynInst>) -> Self {
        Trace {
            name: name.into(),
            insts,
        }
    }

    /// The workload name this trace was generated from.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of dynamic instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The instructions, in program order.
    #[must_use]
    pub fn insts(&self) -> &[DynInst] {
        &self.insts
    }

    /// Iterates over instructions in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, DynInst> {
        self.insts.iter()
    }

    /// Computes summary statistics over the trace.
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_insts(&self.insts)
    }

    /// Splits the trace into `n` equal contiguous segments (the paper's
    /// §5.10 splits gcc into 10 segments to study program phases). The last
    /// segment absorbs any remainder.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > self.len()`.
    #[must_use]
    pub fn split_phases(&self, n: usize) -> Vec<Trace> {
        assert!(n > 0, "phase count must be positive");
        assert!(n <= self.len(), "more phases than instructions");
        let base = self.len() / n;
        (0..n)
            .map(|i| {
                let start = i * base;
                let end = if i == n - 1 { self.len() } else { start + base };
                Trace {
                    name: format!("{}.phase{}", self.name, i + 1),
                    insts: self.insts[start..end].to_vec(),
                }
            })
            .collect()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a DynInst;
    type IntoIter = std::slice::Iter<'a, DynInst>;

    fn into_iter(self) -> Self::IntoIter {
        self.insts.iter()
    }
}

/// A multi-threaded workload: one [`Trace`] per thread.
///
/// The paper runs PARSEC benchmarks with four threads on four equally
/// configured VCores which share an L2 cache (§5.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadedTrace {
    name: String,
    threads: Vec<Trace>,
}

impl ThreadedTrace {
    /// Builds a threaded trace from per-thread traces.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is empty.
    #[must_use]
    pub fn new(name: impl Into<String>, threads: Vec<Trace>) -> Self {
        assert!(!threads.is_empty(), "a workload needs at least one thread");
        ThreadedTrace {
            name: name.into(),
            threads,
        }
    }

    /// Wraps a single-threaded trace.
    #[must_use]
    pub fn single(trace: Trace) -> Self {
        ThreadedTrace {
            name: trace.name().to_string(),
            threads: vec![trace],
        }
    }

    /// The workload name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of threads.
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Per-thread traces.
    #[must_use]
    pub fn threads(&self) -> &[Trace] {
        &self.threads
    }

    /// Total dynamic instructions across all threads.
    #[must_use]
    pub fn total_len(&self) -> usize {
        self.threads.iter().map(Trace::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharing_isa::DynInst;

    fn trace_of(n: usize) -> Trace {
        Trace::from_insts(
            "t",
            (0..n)
                .map(|i| DynInst::nop(4 * i as u64))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn split_phases_partitions_exactly() {
        let t = trace_of(105);
        let phases = t.split_phases(10);
        assert_eq!(phases.len(), 10);
        let total: usize = phases.iter().map(Trace::len).sum();
        assert_eq!(total, 105);
        assert_eq!(phases[0].len(), 10);
        assert_eq!(phases[9].len(), 15); // remainder absorbed by last phase
        assert_eq!(phases[3].name(), "t.phase4");
        // Contiguity: first pc of phase k follows last pc of phase k-1.
        assert_eq!(phases[1].insts()[0].pc, 4 * 10);
    }

    #[test]
    #[should_panic(expected = "phase count")]
    fn split_phases_rejects_zero() {
        let _ = trace_of(10).split_phases(0);
    }

    #[test]
    fn threaded_trace_accounting() {
        let tt = ThreadedTrace::new("w", vec![trace_of(5), trace_of(7)]);
        assert_eq!(tt.thread_count(), 2);
        assert_eq!(tt.total_len(), 12);
        let single = ThreadedTrace::single(trace_of(3));
        assert_eq!(single.thread_count(), 1);
        assert_eq!(single.name(), "t");
    }

    #[test]
    fn iteration_is_program_order() {
        let t = trace_of(4);
        let pcs: Vec<u64> = t.iter().map(|i| i.pc).collect();
        assert_eq!(pcs, vec![0, 4, 8, 12]);
    }
}
