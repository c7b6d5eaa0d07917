//! Memoized trace generation.
//!
//! A trace depends only on the workload and its [`TraceSpec`] — never on
//! the VCore shape it will be simulated at — so a 72-shape sweep needs
//! **one** generation, not 72. The [`TraceCache`] memoizes generated
//! traces behind [`Arc`]s keyed by `(workload, len, seed)`: every sweep
//! consumer (the CLI grid, `SuiteSurfaces`, ssimd's executor) shares one
//! copy per key, across threads.
//!
//! Concurrency contract: when N threads request the same missing key at
//! once, exactly one runs the generator (unless the trace is too large to
//! memoize at all, see [`MAX_CACHED_INSTRUCTIONS`]); the rest block on the
//! same slot and receive clones of the same `Arc`. Hits and misses are
//! counted both on the cache instance (for tests) and in the global
//! `sharing-obs` registry as `trace_cache_hits_total` /
//! `trace_cache_misses_total` / `trace_cache_generations_total` (for
//! ssimd's metrics endpoint).
//!
//! The cache is bounded twice, both in insertion order: by entries
//! ([`DEFAULT_CAPACITY`]) and by instructions held
//! ([`MAX_CACHED_INSTRUCTIONS`]), so a run of long traces cannot pin
//! gigabytes the way 64 traces at [`MAX_TRACE_LEN`] would.
//!
//! # Example
//!
//! ```
//! use sharing_trace::{Benchmark, TraceCache, TraceSpec, Workload};
//!
//! let cache = TraceCache::new();
//! let spec = TraceSpec::new(2_000, 7);
//! let gcc = Workload::Benchmark(Benchmark::Gcc);
//! let a = cache.single(&gcc, &spec)?;
//! let b = cache.single(&gcc, &spec)?;
//! assert!(std::sync::Arc::ptr_eq(&a, &b));
//! assert_eq!(cache.generations(), 1);
//! # Ok::<(), String>(())
//! ```

use crate::trace::{ThreadedTrace, Trace, TraceSpec, MAX_TRACE_LEN};
use crate::workload::Workload;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default number of memoized traces. A standard-length trace is a few
/// megabytes, so the default bounds a long-lived daemon to tens of
/// megabytes while still covering a full suite sweep (15 benchmarks)
/// with room for mixed lengths and seeds.
pub const DEFAULT_CAPACITY: usize = 64;

/// Most instructions the cache holds at once, summed over its traces
/// (a threaded trace counts every thread). At 32 bytes per instruction
/// that is 256 MiB: eight traces at [`MAX_TRACE_LEN`], or a full suite
/// sweep at 60 000 instructions many times over. Older entries are
/// evicted until a new one fits; a trace larger than the whole cap is
/// returned to its caller but not memoized.
pub const MAX_CACHED_INSTRUCTIONS: usize = 8 * MAX_TRACE_LEN;

/// What a workload generated: sweeps mix single-threaded SPEC-style
/// traces and threaded PARSEC-style traces, and keys encode which kind
/// they want, so a slot never holds the wrong one.
#[derive(Clone)]
enum Generated {
    Single(Arc<Trace>),
    Threaded(Arc<ThreadedTrace>),
}

/// Cache key. A benchmark is keyed by its enum value, a profile by its
/// content, so user profiles never alias a built-in benchmark and no
/// lookup serializes anything.
#[derive(Clone, Debug, PartialEq)]
struct Key {
    workload: Workload,
    threaded: bool,
    spec: TraceSpec,
}

// Only validated profiles become keys, and validation rejects NaN, so
// equality is reflexive.
impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Profiles hold floats, so only the name is hashed; equal keys
        // share it, and `PartialEq` compares everything else.
        self.workload.name().hash(state);
        self.threaded.hash(state);
        self.spec.hash(state);
    }
}

/// A memoized trace and the instructions it holds.
struct Slot {
    trace: Arc<OnceLock<Generated>>,
    insts: usize,
}

struct Inner {
    slots: HashMap<Key, Slot>,
    /// Insertion order, for bounded-capacity eviction.
    order: VecDeque<Key>,
    /// Instructions held, summed over `slots`.
    insts: usize,
}

/// A bounded, thread-safe memo table for generated traces.
pub struct TraceCache {
    capacity: usize,
    /// [`MAX_CACHED_INSTRUCTIONS`] outside tests.
    max_insts: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    generations: AtomicU64,
}

impl Default for TraceCache {
    fn default() -> Self {
        TraceCache::new()
    }
}

fn observe(hit: bool) {
    static HITS: OnceLock<&'static sharing_obs::Counter> = OnceLock::new();
    static MISSES: OnceLock<&'static sharing_obs::Counter> = OnceLock::new();
    if hit {
        HITS.get_or_init(|| sharing_obs::counter("trace_cache_hits_total"))
            .add(1);
    } else {
        MISSES
            .get_or_init(|| sharing_obs::counter("trace_cache_misses_total"))
            .add(1);
    }
}

fn observe_generation() {
    static GENS: OnceLock<&'static sharing_obs::Counter> = OnceLock::new();
    GENS.get_or_init(|| sharing_obs::counter("trace_cache_generations_total"))
        .add(1);
}

impl TraceCache {
    /// Creates a cache with [`DEFAULT_CAPACITY`] slots.
    #[must_use]
    pub fn new() -> Self {
        TraceCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a cache bounded to `capacity` memoized traces; the oldest
    /// entry is dropped when a new key would exceed it (outstanding
    /// `Arc`s keep evicted traces alive until their holders finish).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        TraceCache::with_limits(capacity, MAX_CACHED_INSTRUCTIONS)
    }

    fn with_limits(capacity: usize, max_insts: usize) -> Self {
        assert!(capacity > 0, "trace cache capacity must be positive");
        TraceCache {
            capacity,
            max_insts,
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                order: VecDeque::new(),
                insts: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            generations: AtomicU64::new(0),
        }
    }

    /// The process-wide shared cache. The CLI, `SuiteSurfaces`, and ssimd
    /// all route through this instance so a daemon serving repeated jobs
    /// for the same workload generates its trace once.
    #[must_use]
    pub fn global() -> &'static TraceCache {
        static GLOBAL: OnceLock<TraceCache> = OnceLock::new();
        GLOBAL.get_or_init(TraceCache::new)
    }

    /// Looks up (or creates) the slot for `workload` and resolves it.
    /// Exactly one caller generates; concurrent requesters block on the
    /// slot's `OnceLock` and clone the same value.
    fn resolve(
        &self,
        workload: &Workload,
        threaded: bool,
        spec: &TraceSpec,
    ) -> Result<Generated, String> {
        // Profiles validate outside the slot, so an invalid one reaches
        // its caller and never occupies a shared entry. Calibrated
        // benchmarks are valid: they build their generator on a miss only.
        let validated = match workload {
            Workload::Profile(_) => Some(workload.generator(spec)?),
            Workload::Benchmark(_) => None,
        };
        let key = Key {
            workload: workload.clone(),
            threaded,
            spec: *spec,
        };
        let slot = {
            let mut inner = self.inner.lock().expect("trace cache lock");
            if let Some(slot) = inner.slots.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                observe(true);
                Arc::clone(&slot.trace)
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                observe(false);
                let threads = match (threaded, workload) {
                    (false, _) => 1,
                    (true, Workload::Benchmark(b)) => b.profile().threads,
                    (true, Workload::Profile(p)) => p.threads,
                };
                let insts = spec.len.saturating_mul(threads);
                let trace = Arc::new(OnceLock::new());
                if insts <= self.max_insts {
                    while inner.slots.len() >= self.capacity || inner.insts + insts > self.max_insts
                    {
                        let Some(old) = inner.order.pop_front() else {
                            break;
                        };
                        if let Some(gone) = inner.slots.remove(&old) {
                            inner.insts -= gone.insts;
                        }
                    }
                    let slot = Slot {
                        trace: Arc::clone(&trace),
                        insts,
                    };
                    inner.slots.insert(key.clone(), slot);
                    inner.order.push_back(key);
                    inner.insts += insts;
                }
                trace
            }
        };
        Ok(slot
            .get_or_init(|| {
                self.generations.fetch_add(1, Ordering::Relaxed);
                observe_generation();
                let generator = validated.unwrap_or_else(|| {
                    workload
                        .generator(spec)
                        .expect("calibrated profiles are valid")
                });
                if threaded {
                    Generated::Threaded(Arc::new(generator.generate()))
                } else {
                    Generated::Single(Arc::new(generator.generate_single()))
                }
            })
            .clone())
    }

    /// A single-threaded trace (thread 0 of a threaded workload),
    /// generated at most once per `(workload, len, seed)`.
    ///
    /// # Errors
    ///
    /// Propagates profile validation errors; benchmarks never fail.
    pub fn single(&self, workload: &Workload, spec: &TraceSpec) -> Result<Arc<Trace>, String> {
        match self.resolve(workload, false, spec)? {
            Generated::Single(t) => Ok(t),
            Generated::Threaded(_) => unreachable!("single key resolved to threaded trace"),
        }
    }

    /// A threaded trace with every thread of the workload, generated at
    /// most once per `(workload, len, seed)`.
    ///
    /// # Errors
    ///
    /// Propagates profile validation errors; benchmarks never fail.
    pub fn threaded(
        &self,
        workload: &Workload,
        spec: &TraceSpec,
    ) -> Result<Arc<ThreadedTrace>, String> {
        match self.resolve(workload, true, spec)? {
            Generated::Threaded(t) => Ok(t),
            Generated::Single(_) => unreachable!("threaded key resolved to single trace"),
        }
    }

    /// Lookups that found an existing slot.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that created a new slot.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Generator runs — under concurrency this can be smaller than
    /// [`TraceCache::misses`] would suggest only if a slot was evicted
    /// mid-flight; otherwise one generation per miss.
    #[must_use]
    pub fn generations(&self) -> u64 {
        self.generations.load(Ordering::Relaxed)
    }

    /// Memoized traces currently held.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace cache lock").slots.len()
    }

    /// Instructions held, summed over the memoized traces.
    #[cfg(test)]
    fn instructions(&self) -> usize {
        self.inner.lock().expect("trace cache lock").insts
    }

    /// Whether the cache holds no traces.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::{Benchmark, ALL_BENCHMARKS};

    fn single(cache: &TraceCache, b: Benchmark, spec: &TraceSpec) -> Arc<Trace> {
        cache.single(&Workload::Benchmark(b), spec).unwrap()
    }

    #[test]
    fn repeated_lookups_share_one_generation() {
        let cache = TraceCache::new();
        let spec = TraceSpec::new(1_000, 42);
        let a = single(&cache, Benchmark::Gcc, &spec);
        let b = single(&cache, Benchmark::Gcc, &spec);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.generations(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let cache = TraceCache::new();
        let spec = TraceSpec::new(1_000, 42);
        let a = single(&cache, Benchmark::Gcc, &spec);
        let b = single(&cache, Benchmark::Mcf, &spec);
        let c = single(&cache, Benchmark::Gcc, &TraceSpec::new(1_000, 43));
        let d = single(&cache, Benchmark::Gcc, &TraceSpec::new(1_001, 42));
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(cache.generations(), 4);
    }

    #[test]
    fn benchmark_traces_match_fresh_generation() {
        let cache = TraceCache::new();
        let spec = TraceSpec::new(300, 7);
        for &b in &ALL_BENCHMARKS {
            let w = Workload::Benchmark(b);
            let cached = cache.single(&w, &spec).unwrap();
            assert_eq!(cached.insts(), b.generate(&spec).insts(), "{b}");
            let cached = cache.threaded(&w, &spec).unwrap();
            let fresh = b.generate_threaded(&spec);
            assert_eq!(cached.thread_count(), fresh.thread_count(), "{b}");
            for (c, f) in cached.threads().iter().zip(fresh.threads()) {
                assert_eq!(c.insts(), f.insts(), "{b}");
            }
        }
    }

    #[test]
    fn threaded_and_single_keys_are_disjoint() {
        let cache = TraceCache::new();
        let spec = TraceSpec::new(1_000, 1);
        let swaptions = Workload::Benchmark(Benchmark::Swaptions);
        let _ = cache.single(&swaptions, &spec).unwrap();
        let t = cache.threaded(&swaptions, &spec).unwrap();
        assert!(t.thread_count() > 1);
        assert_eq!(cache.generations(), 2);
    }

    #[test]
    fn hammer_many_threads_one_generation() {
        let cache = TraceCache::new();
        let spec = TraceSpec::new(5_000, 0xBEEF);
        let ptrs: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| Arc::as_ptr(&single(&cache, Benchmark::Sjeng, &spec)) as usize))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            ptrs.windows(2).all(|w| w[0] == w[1]),
            "all threads must share one Arc"
        );
        assert_eq!(cache.generations(), 1, "generator must run exactly once");
        assert_eq!(cache.hits() + cache.misses(), 8);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let cache = TraceCache::with_capacity(2);
        let spec = TraceSpec::new(500, 1);
        let first = single(&cache, Benchmark::Gcc, &spec);
        let _ = single(&cache, Benchmark::Mcf, &spec);
        let _ = single(&cache, Benchmark::Astar, &spec); // evicts gcc
        assert_eq!(cache.len(), 2);
        let again = single(&cache, Benchmark::Gcc, &spec);
        assert!(
            !Arc::ptr_eq(&first, &again),
            "evicted entry must be regenerated"
        );
        assert_eq!(cache.generations(), 4);
    }

    #[test]
    fn instruction_cap_evicts_oldest_and_counts() {
        // Room for four 500-instruction traces, or one 4-thread trace of
        // 500 per thread and nothing else.
        let cache = TraceCache::with_limits(DEFAULT_CAPACITY, 2_000);
        let spec = TraceSpec::new(500, 1);
        let gcc = single(&cache, Benchmark::Gcc, &spec);
        for b in [Benchmark::Mcf, Benchmark::Astar, Benchmark::Sjeng] {
            let _ = single(&cache, b, &spec);
        }
        assert_eq!((cache.len(), cache.instructions()), (4, 2_000));
        let _ = single(&cache, Benchmark::Bzip, &spec); // evicts gcc
        assert_eq!((cache.len(), cache.instructions()), (4, 2_000));
        let sjeng = single(&cache, Benchmark::Sjeng, &spec);
        assert!(Arc::ptr_eq(
            &sjeng,
            &single(&cache, Benchmark::Sjeng, &spec)
        ));
        assert!(!Arc::ptr_eq(&gcc, &single(&cache, Benchmark::Gcc, &spec)));
        assert_eq!((cache.len(), cache.instructions()), (4, 2_000));
        assert_eq!((cache.hits(), cache.misses()), (2, 6));
        assert_eq!(cache.generations(), 6);

        // A 4-thread trace fills the cap on its own.
        let dedup = Workload::Benchmark(Benchmark::Dedup);
        let t = cache.threaded(&dedup, &spec).unwrap();
        assert_eq!(t.total_len(), 2_000);
        assert_eq!((cache.len(), cache.instructions()), (1, 2_000));
        assert!(Arc::ptr_eq(&t, &cache.threaded(&dedup, &spec).unwrap()));
        assert_eq!((cache.hits(), cache.misses()), (3, 7));

        // A trace over the whole cap is served but not memoized, and
        // leaves what the cache holds alone.
        let long = TraceSpec::new(2_001, 1);
        let a = single(&cache, Benchmark::Gcc, &long);
        let b = single(&cache, Benchmark::Gcc, &long);
        assert_eq!(a.insts(), b.insts());
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!((cache.len(), cache.instructions()), (1, 2_000));
        assert_eq!((cache.hits(), cache.misses()), (3, 9));
        assert_eq!(cache.generations(), 9);
    }

    #[test]
    fn profile_lookups_memoize_and_validate() {
        let cache = TraceCache::new();
        let spec = TraceSpec::new(1_000, 3);
        let profile = Workload::Profile(Box::new(Benchmark::Gcc.profile()));
        let a = cache.single(&profile, &spec).unwrap();
        let b = cache.single(&profile, &spec).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.generations(), 1);
        // Same name and content as the benchmark, but a separate key.
        let bench = single(&cache, Benchmark::Gcc, &spec);
        assert!(!Arc::ptr_eq(&a, &bench));
        assert_eq!(a.insts(), bench.insts());
        let Workload::Profile(mut bad) = profile else {
            unreachable!()
        };
        bad.threads = 0;
        assert!(cache.single(&Workload::Profile(bad), &spec).is_err());
        assert_eq!(cache.len(), 2, "an invalid profile takes no slot");
    }
}
