//! The cold leg: speedup curves of a fixed program set on a
//! single-threaded sweep engine whose profile cache starts empty, so the
//! tracer and the cache simulator do nearly all of the work.

use std::sync::Arc;

use prophet_core::Prophet;
use sweep::{GridSpec, PredictorSpec, SweepEngine};

use crate::stats::Digest;
use crate::{cpu, programs};

/// `lu` is annotation-heavy; `ft`, `cg`, `mg` and `jacobi` stream memory.
pub const PROGRAMS: [&str; 8] = ["lu", "ft", "cg", "mg", "fft", "qsort", "md", "jacobi"];

/// FF with the memory model, threads 2..=12, static schedule.
pub fn grid() -> GridSpec {
    let mut g = GridSpec::new(PROGRAMS.iter().map(|n| programs::spec(n)).collect());
    g.threads = (2..=12).collect();
    g.predictors = vec![PredictorSpec::ff(true)];
    g
}

/// One timed pass. The engine is returned so later legs can reuse its
/// profiles and read its stage timings.
pub struct Pass {
    /// Sum over the programs of each one's on-CPU seconds (the engine runs
    /// the pass on one thread), as the caller's `scale` maps them.
    pub secs: f64,
    pub digest: Digest,
    pub points: u64,
    pub engine: SweepEngine,
}

/// The pass runs program by program, in the grid's own job order, so the
/// caller can read the host's speed between programs: `scale` gets each
/// program's on-CPU seconds right after it ends.
pub fn pass(prophet: &Arc<Prophet>, mut scale: impl FnMut(f64) -> f64) -> Pass {
    let engine = SweepEngine::from_arc(Arc::clone(prophet)).with_jobs(1);
    let grid = grid();
    let jobs = grid.expand();
    let (mut secs, mut points) = (0.0, 0u64);
    let mut digest = Digest::default();
    for w in 0..grid.workloads.len() {
        let mine: Vec<_> = jobs.iter().filter(|j| j.workload == w).copied().collect();
        let c0 = cpu::process();
        let result = engine.run_jobs(&grid.workloads, &mine);
        secs += scale(cpu::process() - c0);
        for p in &result.points {
            digest.add(p.speedup, p.predicted_cycles);
        }
        points += result.points.len() as u64;
    }
    Pass {
        secs,
        digest,
        points,
        engine,
    }
}
