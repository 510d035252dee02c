//! Run-aware emulation equivalence: the closed-form fast paths must be
//! *bit-identical* to per-iteration expansion, for every workload the
//! repo ships, across the full thread × schedule matrix.
//!
//! Two comparisons per point:
//!
//! * **FF**: `ffemu::predict_flat` with `expand_runs: false` (run-aware, the
//!   default) against `expand_runs: true` (forced per-iteration heap
//!   emulation). Cycles, speedup bits, and per-section breakdowns must
//!   match exactly — the fast path is an optimisation, never a model
//!   change.
//! * **Synthesizer IR**: `synthemu::section_program` emits run-batched
//!   `(body, count)` task lists; forced expansion emits one entry per
//!   logical iteration. The generated programs must compare equal
//!   (`TaskList` equality is logical-sequence equality) and the emitted
//!   overhead totals must match, for every section of every profiled
//!   tree.
//!
//! Both oracles run on the `FlatTree` arena, the one tree the emulators
//! walk. A third check pins the arena itself against the pointer tree
//! as data: for every profiled tree, `FlatTree::diff` finds that
//! `to_tree` rebuilds it and that no node's kind, length, child runs or
//! expanded children differ from the pointer tree's own.

use prophet_core::machsim::{Paradigm, Schedule};
use prophet_core::omp_rt::OmpOverheads;
use prophet_core::proftree::{FlatTree, NodeId, ViewKind};
use prophet_core::{ffemu, synthemu, Prophet};

/// The paper-size workloads of the matrix, by registry name.
const WORKLOADS: [&str; 15] = [
    "md",
    "lu",
    "fft",
    "qsort",
    "pi",
    "mandelbrot",
    "jacobi",
    "ep",
    "ft",
    "mg",
    "cg",
    "is",
    "pipeline",
    "test1:3",
    "test2:3",
];

const THREADS: [u32; 5] = [1, 2, 4, 8, 12];

fn schedules() -> Vec<Schedule> {
    vec![
        Schedule::static_block(),
        Schedule::static1(),
        Schedule::Static { chunk: Some(4) },
        Schedule::dynamic1(),
        Schedule::Dynamic { chunk: 4 },
        Schedule::Guided { min_chunk: 1 },
    ]
}

fn ff_opts(cpus: u32, schedule: Schedule, expand_runs: bool) -> ffemu::FfOptions {
    ffemu::FfOptions {
        cpus,
        schedule,
        overheads: OmpOverheads::westmere_scaled(),
        use_burden: true,
        contended_lock_penalty: 2_000,
        model_pipelines: true,
        expand_runs,
    }
}

/// Assert run-aware FF equals forced-expansion FF on `flat`, exactly.
fn assert_ff_equivalent(name: &str, flat: &FlatTree, cpus: u32, schedule: Schedule) {
    let fast = ffemu::predict_flat(flat, ff_opts(cpus, schedule, false));
    let slow = ffemu::predict_flat(flat, ff_opts(cpus, schedule, true));
    let ctx = format!("{name} cpus={cpus} sched={schedule:?}");
    assert_eq!(fast.predicted_cycles, slow.predicted_cycles, "{ctx}");
    assert_eq!(fast.serial_cycles, slow.serial_cycles, "{ctx}");
    assert_eq!(
        fast.speedup.to_bits(),
        slow.speedup.to_bits(),
        "{ctx}: speedup bits differ"
    );
    assert_eq!(fast.sections, slow.sections, "{ctx}: section breakdowns");
}

/// Assert run-batched synthesizer IR equals per-iteration emission for
/// every Sec/Pipe node in `flat`.
fn assert_syn_equivalent(name: &str, flat: &FlatTree, threads: u32, schedule: Schedule) {
    let mut batched = synthemu::SynthOptions::new(threads, Paradigm::OpenMp);
    batched.schedule = schedule;
    batched.use_burden = true;
    let mut expanded = batched;
    expanded.expand_runs = true;
    for id in 0..flat.len() as NodeId {
        if matches!(flat.kind(id), ViewKind::Sec { .. } | ViewKind::Pipe { .. }) {
            let (pb, ob) = synthemu::section_program(flat, id, &batched);
            let (pe, oe) = synthemu::section_program(flat, id, &expanded);
            let ctx = format!("{name} sec={id} threads={threads} sched={schedule:?}");
            assert_eq!(pb, pe, "{ctx}: programs differ");
            assert_eq!(ob, oe, "{ctx}: overhead totals differ");
        }
    }
}

#[test]
fn runaware_matches_expanded_across_workload_matrix() {
    let prophet = Prophet::new();
    for name in WORKLOADS {
        let w = workloads::by_name(name).expect("registry name");
        let profiled = prophet.profile(w.as_ref());
        let flat = FlatTree::from_tree(&profiled.tree);
        assert_eq!(flat.diff(&profiled.tree), None, "{name}: arena view");
        for &cpus in &THREADS {
            for sched in schedules() {
                assert_ff_equivalent(name, &flat, cpus, sched);
            }
        }
        // The synthesizer IR depends on threads only through the burden
        // factor and on the schedule not at all (it is carried opaquely
        // into the program), but sweep the same axes to pin that down.
        for &threads in &THREADS {
            for sched in schedules() {
                assert_syn_equivalent(name, &flat, threads, sched);
            }
        }
    }
}
