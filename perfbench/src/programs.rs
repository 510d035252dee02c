//! The named-program registry and the workload resolver the benchmark's
//! daemon and its in-process reference share. Mirrors the `prophet` CLI's
//! table, which lives inside the binary and cannot be linked.

use prophet_core::tracer::AnnotatedProgram;
use sweep::WorkloadSpec;
use workloads::npb::{Cg, Ep, Ft, Is, Mg};
use workloads::ompscr::{Fft, Jacobi, Lu, Mandelbrot, Md, Pi, QSort};
use workloads::spec::Benchmark;
use workloads::{
    NumaSkew, PipelineParams, PipelineWl, TaskDag, Test1, Test1Params, Test2, Test2Params,
};

/// The 15 named programs, in the CLI's listing order.
pub const PROGRAMS: [&str; 15] = [
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
    "dag",
    "numaskew",
];

/// A named program, or a `test1:<seed>` / `test2:<seed>` validation program.
pub fn program(name: &str) -> Option<Box<dyn Benchmark>> {
    Some(match name {
        "md" => Box::new(Md::paper()),
        "lu" => Box::new(Lu::paper()),
        "fft" => Box::new(Fft::paper()),
        "qsort" => Box::new(QSort::paper()),
        "pi" => Box::new(Pi::paper()),
        "mandelbrot" => Box::new(Mandelbrot::paper()),
        "jacobi" => Box::new(Jacobi::paper()),
        "ep" => Box::new(Ep::paper()),
        "ft" => Box::new(Ft::paper()),
        "mg" => Box::new(Mg::paper()),
        "cg" => Box::new(Cg::paper()),
        "is" => Box::new(Is::paper()),
        "pipeline" => Box::new(PipelineWl::new(PipelineParams::transcoder(120))),
        "dag" => Box::new(TaskDag::paper()),
        "numaskew" => Box::new(NumaSkew::paper()),
        s if s.starts_with("test1:") => {
            Box::new(Test1::new(Test1Params::random(s[6..].parse().ok()?)))
        }
        s if s.starts_with("test2:") => {
            Box::new(Test2::new(Test2Params::random(s[6..].parse().ok()?)))
        }
        _ => return None,
    })
}

/// A sweep workload for a registry name.
pub fn spec(name: &str) -> WorkloadSpec {
    let owned = name.to_string();
    WorkloadSpec::program(name, move || -> Box<dyn AnnotatedProgram> {
        program(&owned).expect("registry name")
    })
}

/// Resolve a `prophet sweep`-style workload list (`lu,test1:3..5`).
pub fn resolve(list: &str) -> Result<Vec<WorkloadSpec>, String> {
    let mut out = Vec::new();
    for tok in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        if let Some((fam, range)) = tok.split_once(':') {
            if let Some((a, b)) = range.split_once("..") {
                let a: u64 = a.parse().map_err(|_| format!("bad range in '{tok}'"))?;
                let b: u64 = b.parse().map_err(|_| format!("bad range in '{tok}'"))?;
                for seed in a..b {
                    out.push(match fam {
                        "test1" => WorkloadSpec::test1(seed),
                        "test2" => WorkloadSpec::test2(seed),
                        _ => return Err(format!("seed ranges only apply to test1/test2: {tok}")),
                    });
                }
                continue;
            }
        }
        if program(tok).is_none() {
            return Err(format!("unknown workload '{tok}'"));
        }
        out.push(spec(tok));
    }
    if out.is_empty() {
        return Err("need at least one workload".to_string());
    }
    Ok(out)
}

/// [`resolve`] in the shape the serve crate takes.
pub fn resolver() -> serve::Resolver {
    std::sync::Arc::new(resolve)
}
