//! Golden profile bytes: the PSR2 encoding of the `small()` instance of
//! every shipped workload, and of fixed `test1`/`test2` seeds, is pinned
//! by digest in `tests/golden/profiles.psr2.digest`. The encoding holds
//! the counters, the profile tree and the burden factors, so any drift in
//! what profiling measures fails here by workload name.
//!
//! Each program is profiled twice: on the scaled Westmere hierarchy the
//! predictions use, and on the tiny test hierarchy. The small instances
//! mostly fit the former, while their working sets overflow every level
//! of the latter, so the second pass pins eviction and write-back order.
//!
//! Regenerate (only for an intended change of profiles) with
//! `PROFILE_GOLDEN_REGEN=1 cargo test -q --test profile_golden`.

use prophet_core::cachesim::HierarchyConfig;
use prophet_core::machsim::MachineConfig;
use prophet_core::{codec, Prophet};
use workloads::npb::{Cg, Ep, Ft, Is, Mg};
use workloads::ompscr::{Fft, Jacobi, Lu, Mandelbrot, Md, Pi, QSort};
use workloads::{
    Benchmark, NumaSkew, PipelineParams, PipelineWl, TaskDag, Test1, Test1Params, Test2,
    Test2Params,
};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/profiles.psr2.digest"
);

/// A fixed, cheap calibration: the digests pin profiling, not the
/// calibration sweep, and the burden factors only need to be stable.
fn prophet(hierarchy: HierarchyConfig) -> Prophet {
    let cal = prophet_core::memmodel::calibrate(
        MachineConfig::westmere_scaled(),
        &prophet_core::memmodel::CalibrationOptions {
            thread_counts: vec![2, 8],
            intensity_steps: 4,
            packet_cycles: 100_000,
        },
    );
    Prophet::builder()
        .machine(MachineConfig::westmere_scaled(), hierarchy)
        .calibration(cal)
        .build()
}

fn workloads() -> Vec<(&'static str, Box<dyn Benchmark>)> {
    vec![
        ("md", Box::new(Md::small()) as Box<dyn Benchmark>),
        ("lu", Box::new(Lu::small())),
        ("fft", Box::new(Fft::small())),
        ("qsort", Box::new(QSort::small())),
        ("pi", Box::new(Pi::small())),
        ("mandelbrot", Box::new(Mandelbrot::small())),
        ("jacobi", Box::new(Jacobi::small())),
        ("ep", Box::new(Ep::small())),
        ("ft", Box::new(Ft::small())),
        ("mg", Box::new(Mg::small())),
        ("cg", Box::new(Cg::small())),
        ("is", Box::new(Is::small())),
        (
            "pipeline",
            Box::new(PipelineWl::new(PipelineParams::transcoder(120))),
        ),
        ("dag", Box::new(TaskDag::small())),
        ("numaskew", Box::new(NumaSkew::small())),
        ("test1:3", Box::new(Test1::new(Test1Params::random(3)))),
        ("test1:7", Box::new(Test1::new(Test1Params::random(7)))),
        ("test2:3", Box::new(Test2::new(Test2Params::random(3)))),
        ("test2:7", Box::new(Test2::new(Test2Params::random(7)))),
    ]
}

/// 64-bit FNV-1a: tiny, dependency-free and stable across platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn profiles_match_golden_digests() {
    let mut got = String::new();
    for (level, hierarchy) in [
        ("westmere", HierarchyConfig::westmere_scaled()),
        ("tiny", HierarchyConfig::tiny()),
    ] {
        let prophet = prophet(hierarchy);
        for (name, w) in workloads() {
            let mut bytes = Vec::new();
            codec::encode_profiled(&prophet.profile(w.as_ref()), &mut bytes);
            got.push_str(&format!(
                "{level} {name} {} {:016x}\n",
                bytes.len(),
                fnv1a(&bytes)
            ));
        }
    }
    if std::env::var_os("PROFILE_GOLDEN_REGEN").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden file");
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden file present");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(
            g, w,
            "profile bytes drifted from tests/golden/profiles.psr2.digest \
             (line: hierarchy, name, PSR2 length, FNV-1a 64)"
        );
    }
    assert_eq!(got, want, "golden digest file lists other workloads");
}
