//! Performance surfaces over the configuration grid.
//!
//! Every economic experiment consumes `P(c, s)`: the measured performance
//! of each benchmark at each VCore shape. This module builds those
//! surfaces by running the simulator over the paper's sweep grid
//! (Equation 3: 1–8 Slices × 0 KB–8 MB), in parallel, with optional JSON
//! caching so the bench harness only ever pays for a sweep once.

use sharing_core::{par, run_workload, SimConfig, VCoreShape};
use sharing_json::{json_struct, FromJson, Json, JsonError, ToJson};
use sharing_trace::{Benchmark, TraceCache, TraceSpec, Workload, ALL_BENCHMARKS};
use std::collections::BTreeMap;
use std::path::Path;

/// How a sweep's traces are generated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExperimentSpec {
    /// Dynamic instructions per thread.
    pub trace_len: usize,
    /// Generation seed.
    pub seed: u64,
    /// Workload calibration version the sweep was built against (see
    /// [`sharing_trace::CALIBRATION_VERSION`]); result caches keyed on a
    /// spec invalidate when calibration changes.
    pub calibration: u32,
}

impl ExperimentSpec {
    /// The default experiment size used by the bench harness: long enough
    /// for the scaled working sets to exhibit reuse, short enough that a
    /// full 72-configuration × 15-benchmark sweep is minutes, not hours.
    #[must_use]
    pub fn standard() -> Self {
        ExperimentSpec {
            trace_len: 60_000,
            seed: 0xA5_2014,
            calibration: sharing_trace::CALIBRATION_VERSION,
        }
    }

    /// A reduced size for unit tests.
    #[must_use]
    pub fn quick() -> Self {
        ExperimentSpec {
            trace_len: 6_000,
            seed: 0xA5_2014,
            calibration: sharing_trace::CALIBRATION_VERSION,
        }
    }

    fn trace_spec(&self) -> TraceSpec {
        TraceSpec::new(self.trace_len, self.seed)
    }
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        ExperimentSpec::standard()
    }
}

json_struct!(ExperimentSpec {
    trace_len,
    seed,
    calibration
});

/// One benchmark's measured performance at every swept shape.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfSurface {
    name: String,
    /// Serialized as `(shape, perf)` pairs because JSON map keys must be
    /// strings.
    points: BTreeMap<VCoreShape, f64>,
}

impl ToJson for PerfSurface {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            (
                "points",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|(s, p)| Json::Arr(vec![s.to_json(), p.to_json()]))
                        .collect(),
                ),
            ),
        ])
    }
}

impl FromJson for PerfSurface {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let name = String::from_json(
            v.get("name")
                .ok_or_else(|| JsonError("PerfSurface missing field `name`".into()))?,
        )?;
        let pairs = Vec::<(VCoreShape, f64)>::from_json(
            v.get("points")
                .ok_or_else(|| JsonError("PerfSurface missing field `points`".into()))?,
        )?;
        if pairs.is_empty() {
            return Err(JsonError("PerfSurface needs at least one point".into()));
        }
        Ok(PerfSurface {
            name,
            points: pairs.into_iter().collect(),
        })
    }
}

impl PerfSurface {
    /// Builds a surface from an explicit point set.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    #[must_use]
    pub fn new(name: impl Into<String>, points: BTreeMap<VCoreShape, f64>) -> Self {
        assert!(!points.is_empty(), "a surface needs at least one point");
        PerfSurface {
            name: name.into(),
            points,
        }
    }

    /// Builds a surface by evaluating `f` over the paper's sweep grid
    /// (handy for tests and examples).
    #[must_use]
    pub fn from_fn(name: impl Into<String>, f: impl Fn(VCoreShape) -> f64) -> Self {
        let points = VCoreShape::sweep_grid().map(|s| (s, f(s))).collect();
        PerfSurface::new(name, points)
    }

    /// The benchmark name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Performance at a shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape was not swept.
    #[must_use]
    pub fn perf(&self, shape: VCoreShape) -> f64 {
        *self
            .points
            .get(&shape)
            .unwrap_or_else(|| panic!("shape {shape} not in surface {}", self.name))
    }

    /// Performance at a shape, if swept.
    #[must_use]
    pub fn get(&self, shape: VCoreShape) -> Option<f64> {
        self.points.get(&shape).copied()
    }

    /// All swept `(shape, perf)` points.
    pub fn iter(&self) -> impl Iterator<Item = (VCoreShape, f64)> + '_ {
        self.points.iter().map(|(&s, &p)| (s, p))
    }
}

/// Performance surfaces for the whole benchmark suite.
#[derive(Clone, Debug, PartialEq)]
pub struct SuiteSurfaces {
    spec: ExperimentSpec,
    surfaces: BTreeMap<Benchmark, PerfSurface>,
}

impl ToJson for SuiteSurfaces {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("spec", self.spec.to_json()),
            (
                "surfaces",
                Json::Obj(
                    self.surfaces
                        .iter()
                        .map(|(b, s)| (b.name().to_string(), s.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl FromJson for SuiteSurfaces {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let spec = ExperimentSpec::from_json(
            v.get("spec")
                .ok_or_else(|| JsonError("SuiteSurfaces missing field `spec`".into()))?,
        )?;
        let obj = v
            .get("surfaces")
            .and_then(Json::as_obj)
            .ok_or_else(|| JsonError("SuiteSurfaces missing object `surfaces`".into()))?;
        let mut surfaces = BTreeMap::new();
        for (name, sv) in obj {
            let bench = Benchmark::from_name(name)
                .ok_or_else(|| JsonError(format!("unknown benchmark `{name}`")))?;
            surfaces.insert(bench, PerfSurface::from_json(sv)?);
        }
        Ok(SuiteSurfaces { spec, surfaces })
    }
}

impl SuiteSurfaces {
    /// Assembles suite surfaces from already-measured parts (tests and
    /// external tooling; normal callers use [`SuiteSurfaces::build`]).
    ///
    /// # Panics
    ///
    /// Panics if `surfaces` is empty.
    #[must_use]
    pub fn from_parts(spec: ExperimentSpec, surfaces: BTreeMap<Benchmark, PerfSurface>) -> Self {
        assert!(!surfaces.is_empty(), "a suite needs at least one surface");
        SuiteSurfaces { spec, surfaces }
    }

    /// Measures one benchmark at one shape through
    /// [`sharing_core::run_workload`] (single-threaded benchmarks on one
    /// VCore, PARSEC as a four-VCore VM over a shared L2, per §5.3),
    /// sharing the process-wide [`TraceCache`] so all 72 shapes of a
    /// sweep reuse one generated trace.
    #[must_use]
    pub fn measure(bench: Benchmark, shape: VCoreShape, spec: &ExperimentSpec) -> f64 {
        Self::measure_with(bench, shape, spec, TraceCache::global())
    }

    /// [`SuiteSurfaces::measure`] against an explicit trace cache (tests
    /// use a private cache to assert generation counts without racing
    /// other users of the global one).
    #[must_use]
    pub fn measure_with(
        bench: Benchmark,
        shape: VCoreShape,
        spec: &ExperimentSpec,
        cache: &TraceCache,
    ) -> f64 {
        let cfg = SimConfig::with_shape(shape.slices, shape.l2_banks)
            .expect("sweep grid shapes are valid");
        let workload = Workload::Benchmark(bench);
        let r = run_workload(&workload, cfg, &spec.trace_spec(), cache, 1, None)
            .expect("calibrated benchmarks generate");
        if workload.is_threaded() {
            // Per-VCore performance: VM IPC divided by thread count, so
            // PARSEC points are comparable to single-core P(c, s).
            r.ipc() / bench.profile().threads as f64
        } else {
            r.ipc()
        }
    }

    /// Builds surfaces for every benchmark over the full sweep grid,
    /// fanning the (benchmark × shape) space across all CPUs.
    #[must_use]
    pub fn build(spec: ExperimentSpec) -> Self {
        Self::build_subset(spec, &ALL_BENCHMARKS)
    }

    /// Builds surfaces for a subset of the suite, machine-wide parallel.
    #[must_use]
    pub fn build_subset(spec: ExperimentSpec, benches: &[Benchmark]) -> Self {
        Self::build_subset_with(spec, benches, TraceCache::global(), par::resolve_jobs(None))
    }

    /// [`SuiteSurfaces::build_subset`] with an explicit trace cache and
    /// worker count. Results are collected by task index, so the built
    /// surfaces (and anything serialized from them) are identical for any
    /// `jobs`.
    #[must_use]
    pub fn build_subset_with(
        spec: ExperimentSpec,
        benches: &[Benchmark],
        cache: &TraceCache,
        jobs: usize,
    ) -> Self {
        let shapes: Vec<VCoreShape> = VCoreShape::sweep_grid().collect();
        let mut tasks: Vec<(Benchmark, VCoreShape)> = Vec::new();
        for &b in benches {
            for &s in &shapes {
                tasks.push((b, s));
            }
        }
        let perfs = par::map_indexed(jobs, &tasks, |_, &(b, s)| {
            Self::measure_with(b, s, &spec, cache)
        });
        let mut surfaces: BTreeMap<Benchmark, BTreeMap<VCoreShape, f64>> = BTreeMap::new();
        for (&(b, s), &p) in tasks.iter().zip(&perfs) {
            surfaces.entry(b).or_default().insert(s, p);
        }
        SuiteSurfaces {
            spec,
            surfaces: surfaces
                .into_iter()
                .map(|(b, pts)| (b, PerfSurface::new(b.name(), pts)))
                .collect(),
        }
    }

    /// Loads surfaces from a JSON cache if it matches `spec`, otherwise
    /// builds them and writes the cache. I/O failures fall back to a fresh
    /// build (the cache is an optimization, not a requirement).
    #[must_use]
    pub fn build_or_load(spec: ExperimentSpec, cache: &Path) -> Self {
        if let Ok(text) = std::fs::read_to_string(cache) {
            if let Ok(loaded) = sharing_json::from_str::<SuiteSurfaces>(&text) {
                if loaded.spec == spec && loaded.surfaces.len() == ALL_BENCHMARKS.len() {
                    return loaded;
                }
            }
        }
        let built = Self::build(spec);
        let _ = std::fs::write(cache, sharing_json::to_string(&built));
        built
    }

    /// The spec these surfaces were built with.
    #[must_use]
    pub fn spec(&self) -> ExperimentSpec {
        self.spec
    }

    /// The surface for one benchmark.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark was not part of the build.
    #[must_use]
    pub fn surface(&self, bench: Benchmark) -> &PerfSurface {
        self.surfaces
            .get(&bench)
            .unwrap_or_else(|| panic!("{bench} not in suite surfaces"))
    }

    /// Iterates `(benchmark, surface)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Benchmark, &PerfSurface)> {
        self.surfaces.iter().map(|(&b, s)| (b, s))
    }

    /// The benchmarks present.
    #[must_use]
    pub fn benchmarks(&self) -> Vec<Benchmark> {
        self.surfaces.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_covers_the_grid() {
        let s = PerfSurface::from_fn("t", |sh| sh.slices as f64);
        assert_eq!(s.iter().count(), 72);
        assert_eq!(s.perf(VCoreShape::new(3, 4).unwrap()), 3.0);
        assert_eq!(s.get(VCoreShape::new(8, 128).unwrap()), Some(8.0));
    }

    #[test]
    #[should_panic(expected = "not in surface")]
    fn missing_shape_panics() {
        let mut pts = BTreeMap::new();
        pts.insert(VCoreShape::new(1, 0).unwrap(), 1.0);
        let s = PerfSurface::new("t", pts);
        let _ = s.perf(VCoreShape::new(2, 0).unwrap());
    }

    #[test]
    fn build_subset_produces_full_surfaces() {
        let suite = SuiteSurfaces::build_subset(ExperimentSpec::quick(), &[Benchmark::Hmmer]);
        let surf = suite.surface(Benchmark::Hmmer);
        assert_eq!(surf.iter().count(), 72);
        assert!(surf.iter().all(|(_, p)| p > 0.0));
    }

    #[test]
    fn build_generates_each_trace_exactly_once() {
        // The regression PR 5 fixes: measure() used to regenerate the
        // identical trace for every one of the 72 shapes. With the cache,
        // a cold build does one generation per (benchmark, len, seed).
        let cache = TraceCache::with_capacity(8);
        let spec = ExperimentSpec::quick();
        let benches = [Benchmark::Hmmer, Benchmark::Swaptions];
        let suite = SuiteSurfaces::build_subset_with(spec, &benches, &cache, 4);
        assert_eq!(
            cache.generations(),
            benches.len() as u64,
            "one trace generation per benchmark"
        );
        assert_eq!(cache.misses(), benches.len() as u64);
        assert_eq!(
            cache.hits() + cache.misses(),
            (benches.len() * 72) as u64,
            "every sweep point consults the cache"
        );
        assert_eq!(suite.surface(Benchmark::Hmmer).iter().count(), 72);

        // A warm rebuild on the same cache generates nothing, hits on
        // every lookup and reproduces the cold build byte for byte.
        let hits = cache.hits();
        let warm = SuiteSurfaces::build_subset_with(spec, &benches, &cache, 4);
        assert_eq!(
            sharing_json::to_string(&warm),
            sharing_json::to_string(&suite),
            "warm rebuild must reproduce the cold build"
        );
        assert_eq!(cache.generations(), benches.len() as u64);
        assert_eq!(cache.misses(), benches.len() as u64);
        assert_eq!(
            cache.hits() - hits,
            (benches.len() * 72) as u64,
            "every warm lookup hits"
        );
    }

    #[test]
    fn parallel_build_is_identical_to_sequential() {
        let spec = ExperimentSpec::quick();
        let benches = [Benchmark::Mcf, Benchmark::Dedup];
        let seq =
            SuiteSurfaces::build_subset_with(spec, &benches, &TraceCache::with_capacity(8), 1);
        let par =
            SuiteSurfaces::build_subset_with(spec, &benches, &TraceCache::with_capacity(8), 4);
        assert_eq!(
            sharing_json::to_string(&seq),
            sharing_json::to_string(&par),
            "worker count must not change a single byte of the surfaces"
        );
    }

    #[test]
    fn parsec_measure_is_per_vcore() {
        let spec = ExperimentSpec::quick();
        let p = SuiteSurfaces::measure(Benchmark::Swaptions, VCoreShape::new(1, 2).unwrap(), &spec);
        assert!(p > 0.0 && p < 2.0, "per-VCore IPC expected, got {p}");
    }

    #[test]
    fn json_roundtrip() {
        let suite = SuiteSurfaces::build_subset(ExperimentSpec::quick(), &[Benchmark::Hmmer]);
        let json = sharing_json::to_string(&suite);
        let back: SuiteSurfaces = sharing_json::from_str(&json).unwrap();
        assert_eq!(suite.spec(), back.spec());
        assert_eq!(suite.benchmarks(), back.benchmarks());
        // Floats survive JSON up to printing precision.
        for (b, surf) in suite.iter() {
            for (shape, perf) in surf.iter() {
                let other = back.surface(b).perf(shape);
                assert!(
                    (perf - other).abs() < 1e-9,
                    "{b} {shape}: {perf} vs {other}"
                );
            }
        }
    }
}
