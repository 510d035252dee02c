//! The emulate-grid leg: every registry program is already profiled, and
//! each pass runs `Prophet::predict` over a fixed FF grid plus SYN and
//! ground-truth accuracy points, so flattening, the emulators and the
//! memory model do all the work and the tracer none.

use std::sync::Arc;

use prophet_core::machsim::{Paradigm, Schedule};
use prophet_core::{ffemu, omp_rt, synthemu, Emulator, PredictOptions, Profiled, Prophet};
use sweep::SweepEngine;
use workloads::{run_real, RealOptions};

use crate::cpu;
use crate::programs::{self, PROGRAMS};
use crate::stats::Digest;

pub const THREADS: [u32; 6] = [2, 4, 6, 8, 10, 12];
pub const SCHEDULES: [&str; 4] = ["static", "static-1", "dynamic-1", "guided-1"];

/// Programs left out of the SYN and ground-truth points: one SYN point on
/// `lu` costs about a second and its ground truth far more, so it would
/// dominate every pass.
pub const NO_ACCURACY: [&str; 1] = ["lu"];

/// One estimate of a pass. `accuracy` indexes the ground-truth table
/// when the estimate counts toward `pred_error_pct`.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub program: usize,
    pub opts: PredictOptions,
    pub accuracy: Option<usize>,
}

/// A ground-truth point: program, threads, and the program's own
/// paradigm and schedule.
#[derive(Debug, Clone, Copy)]
pub struct RealPoint {
    pub program: usize,
    pub threads: u32,
    pub paradigm: Paradigm,
    pub schedule: Schedule,
}

/// The pass, program-major so a layer-by-layer replay can flatten each
/// tree once: per program the FF grid (memory model on and off, four
/// schedules, six thread counts), then FF+mm and SYN+mm at the program's
/// own schedule for every accuracy point.
pub fn plan() -> (Vec<Step>, Vec<RealPoint>) {
    let schedules: Vec<Schedule> = SCHEDULES
        .iter()
        .map(|s| Schedule::parse(s).expect("grid schedule"))
        .collect();
    let mut steps = Vec::new();
    let mut reals = Vec::new();
    for (p, name) in PROGRAMS.iter().enumerate() {
        for mm in [true, false] {
            for &schedule in &schedules {
                for threads in THREADS {
                    steps.push(Step {
                        program: p,
                        opts: PredictOptions {
                            threads,
                            paradigm: Paradigm::OpenMp,
                            schedule,
                            emulator: Emulator::FastForward,
                            memory_model: mm,
                        },
                        accuracy: None,
                    });
                }
            }
        }
        if NO_ACCURACY.contains(name) {
            continue;
        }
        let spec = programs::program(name).expect("registry name").spec();
        for threads in THREADS {
            let k = reals.len();
            reals.push(RealPoint {
                program: p,
                threads,
                paradigm: spec.paradigm,
                schedule: spec.schedule,
            });
            for emulator in [Emulator::FastForward, Emulator::Synthesizer] {
                steps.push(Step {
                    program: p,
                    opts: PredictOptions {
                        threads,
                        paradigm: spec.paradigm,
                        schedule: spec.schedule,
                        emulator,
                        memory_model: true,
                    },
                    accuracy: Some(k),
                });
            }
        }
    }
    (steps, reals)
}

/// Profiles of every registry program, in registry order. Programs the
/// cold leg already profiled are taken from its engine's cache.
pub fn profiles(prophet: &Prophet, cold: &SweepEngine) -> Vec<Arc<Profiled>> {
    PROGRAMS
        .iter()
        .map(|name| {
            if crate::cold::PROGRAMS.contains(name) {
                cold.profiled(&programs::spec(name))
            } else {
                Arc::new(prophet.profile(&*programs::program(name).expect("registry name")))
            }
        })
        .collect()
}

/// Ground-truth speedups, plus a digest of them.
pub fn real_speedups(profiles: &[Arc<Profiled>], reals: &[RealPoint]) -> (Vec<f64>, Digest) {
    let mut digest = Digest::default();
    let speedups = reals
        .iter()
        .map(|r| {
            let opts = RealOptions::new(r.threads, r.paradigm, r.schedule);
            let out = run_real(&profiles[r.program].tree, &opts).expect("ground-truth run");
            digest.add(out.speedup, out.elapsed_cycles);
            out.speedup
        })
        .collect();
    (speedups, digest)
}

/// The FF options `Prophet::predict` derives from `opts`.
pub fn ff_options(prophet: &Prophet, opts: &PredictOptions) -> ffemu::FfOptions {
    ffemu::FfOptions {
        cpus: opts.threads,
        schedule: opts.schedule,
        overheads: omp_rt::OmpOverheads::westmere_scaled(),
        use_burden: opts.memory_model,
        contended_lock_penalty: prophet.machine().context_switch_cycles,
        model_pipelines: true,
        expand_runs: false,
    }
}

/// The synthesizer options `Prophet::predict` derives from `opts`.
pub fn synth_options(prophet: &Prophet, opts: &PredictOptions) -> synthemu::SynthOptions {
    let mut so = synthemu::SynthOptions::new(opts.threads, opts.paradigm);
    so.machine = *prophet.machine();
    so.schedule = opts.schedule;
    so.use_burden = opts.memory_model;
    so
}

/// One pass's estimate timings, prediction digest and accuracy.
#[derive(Debug, Default)]
pub struct PassOut {
    pub ff_us: Vec<f64>,
    pub syn_ms: Vec<f64>,
    pub digest: Digest,
    pub abs_rel_error_sum: f64,
    pub accuracy_points: usize,
}

impl PassOut {
    pub fn record(&mut self, step: &Step, secs: f64, speedup: f64, cycles: u64, real: &[f64]) {
        match step.opts.emulator {
            Emulator::FastForward => self.ff_us.push(secs * 1e6),
            Emulator::Synthesizer => self.syn_ms.push(secs * 1e3),
        }
        self.digest.add(speedup, cycles);
        if let Some(k) = step.accuracy {
            self.abs_rel_error_sum += (speedup - real[k]).abs() / real[k];
            self.accuracy_points += 1;
        }
    }

    /// Mean |pred − Real| / Real over the accuracy points, in percent.
    pub fn error_pct(&self) -> f64 {
        100.0 * self.abs_rel_error_sum / self.accuracy_points.max(1) as f64
    }
}

/// One pass through `Prophet::predict`, each estimate timed on the
/// calling thread's CPU clock.
pub fn pass(
    prophet: &Prophet,
    profiles: &[Arc<Profiled>],
    steps: &[Step],
    real: &[f64],
) -> PassOut {
    let mut out = PassOut::default();
    for step in steps {
        let t0 = cpu::thread();
        let pred = prophet
            .predict(&profiles[step.program], &step.opts)
            .expect("grid estimate");
        let secs = cpu::thread() - t0;
        out.record(step, secs, pred.speedup, pred.predicted_cycles, real);
    }
    out
}
