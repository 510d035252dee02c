//! The named workload suite: every built-in benchmark at paper size,
//! looked up by the names the CLI, the benches and the tests share.

use crate::npb::{Cg, Ep, Ft, Is, Mg};
use crate::ompscr::{Fft, Jacobi, Lu, Mandelbrot, Md, Pi, QSort};
use crate::{
    Benchmark, NumaSkew, PipelineParams, PipelineWl, TaskDag, Test1, Test1Params, Test2,
    Test2Params,
};

/// Names and one-line descriptions of the suite, in listing order.
/// `test1:<seed>`/`test2:<seed>` stand for the seeded generators.
pub const NAMED: &[(&str, &str)] = &[
    ("md", "OmpSCR molecular dynamics (compute-bound O(n²))"),
    (
        "lu",
        "OmpSCR LU reduction (inner-loop parallelism, triangular)",
    ),
    ("fft", "OmpSCR recursive FFT (Cilk, bandwidth-hungry)"),
    ("qsort", "OmpSCR quicksort (Cilk, partition-bound)"),
    ("pi", "OmpSCR Pi integration (reduction lock)"),
    ("mandelbrot", "OmpSCR Mandelbrot (fractal imbalance)"),
    ("jacobi", "OmpSCR Jacobi stencil (bandwidth-bound)"),
    ("ep", "NPB EP (embarrassingly parallel)"),
    ("ft", "NPB FT 3-D FFT (bandwidth saturation)"),
    ("mg", "NPB MG multigrid (bandwidth-bound)"),
    ("cg", "NPB CG conjugate gradient (irregular gather)"),
    ("is", "NPB IS integer sort (serial prefix phases)"),
    ("pipeline", "4-stage transcoder pipeline (§VII-E extension)"),
    (
        "dag",
        "fork-join reduction DAG with stragglers + pipelined tail",
    ),
    (
        "numaskew",
        "NUMA-skewed scan (remote-socket penalty, lock reduce)",
    ),
    ("test1:<seed>", "random Fig. 9 validation program"),
    ("test2:<seed>", "random Fig. 10 validation program (nested)"),
];

/// The paper-size benchmark called `name` (a name of [`NAMED`], with
/// `test1:<seed>`/`test2:<seed>` taking a decimal seed), or `None`.
pub fn by_name(name: &str) -> Option<Box<dyn Benchmark + Send + Sync>> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_resolves() {
        for (name, _) in NAMED {
            let name = name.replace("<seed>", "3");
            assert!(by_name(&name).is_some(), "{name}");
        }
        assert!(by_name("test1:x").is_none());
        assert!(by_name("nosuch").is_none());
    }
}
