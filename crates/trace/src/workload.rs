//! What a run simulates: a calibrated paper benchmark or a workload
//! profile.

use crate::benchmarks::{extra_profile, Benchmark};
use crate::generator::ProgramGenerator;
use crate::profile::WorkloadProfile;
use crate::trace::TraceSpec;

/// A simulatable workload. Benchmarks are named by their enum value, so
/// lookups keyed by a benchmark never touch its profile; profiles carry
/// their full calibration.
#[derive(Clone, Debug, PartialEq)]
pub enum Workload {
    /// One of the calibrated paper benchmarks.
    Benchmark(Benchmark),
    /// A workload profile (a user file, an inline job, or one of the
    /// extra seeded profiles).
    Profile(Box<WorkloadProfile>),
}

impl Workload {
    /// Resolves a name against the paper suite first, then the extra
    /// seeded profiles (`bursty`, `phaseshift`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Benchmark::from_name(name)
            .map(Workload::Benchmark)
            .or_else(|| extra_profile(name).map(|p| Workload::Profile(Box::new(p))))
    }

    /// The workload's report name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            Workload::Benchmark(b) => b.name(),
            Workload::Profile(p) => &p.name,
        }
    }

    /// Whether the workload runs as a multi-VCore VM (the PARSEC
    /// benchmarks, or a profile with more than one thread) rather than on
    /// one VCore.
    #[must_use]
    pub fn is_threaded(&self) -> bool {
        match self {
            Workload::Benchmark(b) => b.is_parsec(),
            Workload::Profile(p) => p.threads > 1,
        }
    }

    /// A generator for this workload at `spec`.
    ///
    /// # Errors
    ///
    /// Propagates profile validation errors from [`ProgramGenerator::new`].
    pub fn generator(&self, spec: &TraceSpec) -> Result<ProgramGenerator, String> {
        match self {
            Workload::Benchmark(b) => ProgramGenerator::new(&b.profile(), *spec),
            Workload::Profile(p) => ProgramGenerator::new(p, *spec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::{ALL_BENCHMARKS, EXTRA_PROFILES};

    #[test]
    fn benchmarks_are_threaded_exactly_when_parsec() {
        for &b in &ALL_BENCHMARKS {
            let w = Workload::Benchmark(b);
            assert_eq!(w.is_threaded(), b.is_parsec(), "{b}");
            assert_eq!(w.is_threaded(), b.profile().threads > 1, "{b}");
        }
    }

    #[test]
    fn extra_profiles_are_single_thread_profiles() {
        for &name in &EXTRA_PROFILES {
            let w = Workload::from_name(name).expect("extra profile resolves");
            assert!(matches!(w, Workload::Profile(_)), "{name}");
            assert!(!w.is_threaded(), "{name}");
            assert_eq!(w.name(), name);
        }
    }
}
