//! Criterion bench: serial emulation throughput, expanded vs run-aware,
//! plus the PSR2-vs-JSON decode leg.
//!
//! The run-aware fast paths make FF prediction cost scale with the
//! *compressed* tree (one closed-form advance per RLE run) instead of
//! the trip count. This bench measures both modes on a large-trip-count
//! loop and records logical-nodes-per-second into `BENCH_emu.json` at
//! the workspace root, alongside the throughput ratios the acceptance
//! criteria gate on:
//!
//! * run-aware over expanded (`throughput_ratio`),
//! * PSR2 binary decode over serde-JSON decode on the largest shipped
//!   workload profile (`decode.speedup`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ffemu::{predict, FfOptions};
use machsim::Schedule;
use omp_rt::OmpOverheads;
use proftree::visit::logical_node_count;
use proftree::{compress_tree, CompressOptions, ProgramTree, TreeBuilder};
use prophet_core::{codec, Profiled, Prophet};

/// A parallel loop with `iters` near-uniform iterations: exactly the
/// shape RLE compression collapses to a handful of runs, so the
/// run-aware path does O(runs) work where the expanded path does
/// O(iters).
fn big_loop(iters: u64) -> ProgramTree {
    let mut b = TreeBuilder::new();
    b.begin_sec("hot").unwrap();
    for _ in 0..iters {
        b.begin_task("iter").unwrap();
        b.add_compute(750).unwrap();
        b.end_task().unwrap();
    }
    b.end_sec(false).unwrap();
    b.finish().unwrap()
}

fn opts(expand_runs: bool) -> FfOptions {
    FfOptions {
        cpus: 8,
        schedule: Schedule::static1(),
        overheads: OmpOverheads::westmere_scaled(),
        use_burden: false,
        contended_lock_penalty: 2_000,
        model_pipelines: true,
        expand_runs,
    }
}

/// Seconds per prediction, min over `reps` runs.
fn time_predict(tree: &ProgramTree, expand_runs: bool, reps: u32) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        let p = predict(tree, opts(expand_runs));
        let dt = t0.elapsed().as_secs_f64();
        assert!(p.predicted_cycles > 0);
        best = best.min(dt);
    }
    best
}

#[derive(serde::Serialize)]
struct DecodeBench {
    workload: String,
    json_bytes: u64,
    psr2_bytes: u64,
    json_seconds: f64,
    psr2_seconds: f64,
    /// JSON decode time over PSR2 decode time.
    speedup: f64,
}

#[derive(serde::Serialize)]
struct EmuBench {
    trip_count: u64,
    logical_nodes: u64,
    compressed_nodes: u64,
    expanded_seconds: f64,
    runaware_seconds: f64,
    expanded_nodes_per_sec: f64,
    runaware_nodes_per_sec: f64,
    throughput_ratio: f64,
    decode: DecodeBench,
}

/// The paper-size workloads the decode leg picks from, by registry
/// name.
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

/// PSR2 vs serde-JSON decode on the largest shipped workload profile
/// (largest by JSON size — the profile a busy store is most likely to
/// spend its decode budget on).
fn time_decode(reps: u32) -> DecodeBench {
    let prophet = Prophet::builder()
        .calibration(memmodel::calibrate(
            machsim::MachineConfig::westmere_scaled(),
            &memmodel::CalibrationOptions {
                thread_counts: vec![2, 8],
                intensity_steps: 4,
                packet_cycles: 100_000,
            },
        ))
        .build();
    let (name, json, bin) = WORKLOADS
        .into_iter()
        .map(|name| {
            let w = workloads::by_name(name).expect("registry name");
            let p = prophet.profile(w.as_ref());
            let json = serde_json::to_string(&p).expect("profile serialises");
            let mut bin = Vec::new();
            codec::encode_profiled(&p, &mut bin);
            (name, json, bin)
        })
        .max_by_key(|(_, json, _)| json.len())
        .expect("at least one workload");
    let (mut json_s, mut psr2_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        let j: Profiled = serde_json::from_str(&json).expect("JSON decodes");
        json_s = json_s.min(t0.elapsed().as_secs_f64());
        let t0 = std::time::Instant::now();
        let b = codec::decode_profiled(&bin).expect("PSR2 decodes");
        psr2_s = psr2_s.min(t0.elapsed().as_secs_f64());
        assert_eq!(j.name, b.name);
    }
    DecodeBench {
        workload: name.to_string(),
        json_bytes: json.len() as u64,
        psr2_bytes: bin.len() as u64,
        json_seconds: json_s,
        psr2_seconds: psr2_s,
        speedup: json_s / psr2_s,
    }
}

fn record_throughput() {
    let trip_count = 200_000;
    let tree = big_loop(trip_count);
    let (ctree, _) = compress_tree(&tree, CompressOptions::default());
    let logical = logical_node_count(&ctree);
    // Both modes run on the same compressed tree, so the only difference
    // is run-aware traversal vs forced per-iteration expansion.
    let expanded = time_predict(&ctree, true, 5);
    let runaware = time_predict(&ctree, false, 50);
    let record = EmuBench {
        trip_count,
        logical_nodes: logical,
        compressed_nodes: ctree.len() as u64,
        expanded_seconds: expanded,
        runaware_seconds: runaware,
        expanded_nodes_per_sec: logical as f64 / expanded,
        runaware_nodes_per_sec: logical as f64 / runaware,
        throughput_ratio: expanded / runaware,
        decode: time_decode(30),
    };
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_emu.json");
    let body = serde_json::to_string_pretty(&record).expect("serialise bench record");
    std::fs::write(&path, body)
        .unwrap_or_else(|e| eprintln!("warn: cannot write {}: {e}", path.display()));
    eprintln!(
        "emu: {logical} logical nodes — expanded {:.1} Mnodes/s, run-aware {:.1} Mnodes/s \
         ({:.0}x) -> {}",
        record.expanded_nodes_per_sec / 1e6,
        record.runaware_nodes_per_sec / 1e6,
        record.throughput_ratio,
        path.display()
    );
    eprintln!(
        "emu: decode[{}] PSR2 {:.0} µs vs JSON {:.0} µs ({:.1}x, {} vs {} bytes)",
        record.decode.workload,
        record.decode.psr2_seconds * 1e6,
        record.decode.json_seconds * 1e6,
        record.decode.speedup,
        record.decode.psr2_bytes,
        record.decode.json_bytes,
    );
}

fn bench_emu(c: &mut Criterion) {
    let mut g = c.benchmark_group("ff_serial_emulation");
    g.sample_size(10);
    for iters in [10_000u64, 100_000] {
        let tree = big_loop(iters);
        let (ctree, _) = compress_tree(&tree, CompressOptions::default());
        g.bench_with_input(
            BenchmarkId::new("expanded", iters),
            &ctree,
            |b, t: &ProgramTree| b.iter(|| predict(t, opts(true))),
        );
        g.bench_with_input(
            BenchmarkId::new("runaware", iters),
            &ctree,
            |b, t: &ProgramTree| b.iter(|| predict(t, opts(false))),
        );
    }
    g.finish();
    record_throughput();
}

criterion_group!(benches, bench_emu);
criterion_main!(benches);
