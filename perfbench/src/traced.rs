//! The traced run: the pipeline assembled layer by layer from each
//! crate's public functions, one wall-clock span per call, plus the
//! cache-simulator and tracer micro-legs. Gives the per-layer metrics.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use prophet_core::cachesim::{HierarchyConfig, MemSim};
use prophet_core::codec::{decode_profiled, encode_profiled};
use prophet_core::machsim::{Paradigm, Schedule};
use prophet_core::proftree::{compress_tree, FlatTree};
use prophet_core::tracer::{self, ProfileOptions, ProfileResult, Tracer};
use prophet_core::{ffemu, memmodel, synthemu, Emulator, PredictOptions, Profiled, Prophet};
use prophet_obs::wallspan::{spans_chrome_trace, IdGen, SpanId, SpanSink, TraceId, WallSpan};
use store::ProfileStore;
use sweep::{GridSpec, PredictorSpec, SweepEngine, WorkloadSpec};

use crate::serve_mix::{self, Class, Keys, Plan, Rng};
use crate::stats::{median, Digest, Report};
use crate::{cold, cpu, emulate, programs};

/// Thread counts `Prophet` attaches burden factors for by default.
const BURDEN_THREADS: [u32; 6] = [2, 4, 6, 8, 10, 12];
/// Length of the traced run's serve window, seconds.
const SERVE_SECS: f64 = serve_mix::WINDOW_S;
/// Keys in the store leg: the 15 programs plus this many test profiles,
/// twice the store's 32-entry decoded-profile cache in all.
const STORE_TEST_KEYS: u64 = 49;
const STORE_GETS: usize = 256;

/// Records spans into a [`SpanSink`]; ids come from a seeded stream.
pub struct Spans {
    sink: SpanSink,
    ids: IdGen,
    epoch: Instant,
    epoch_unix_nanos: u64,
}

impl Spans {
    pub fn new(seed: u64) -> Spans {
        Spans {
            sink: SpanSink::new(),
            ids: IdGen::new(seed),
            epoch: Instant::now(),
            epoch_unix_nanos: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos() as u64),
        }
    }

    pub fn trace(&self) -> TraceId {
        self.ids.next_trace()
    }

    fn unix(&self, at: Instant) -> u64 {
        self.epoch_unix_nanos + at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; `f` gets the span's id to
    /// parent its own calls.
    pub fn span<R>(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &str,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.ids.next_span();
        let t0 = Instant::now();
        let out = f(id);
        self.record(trace, id, parent, name, t0, t0.elapsed().as_nanos() as u64);
        out
    }

    fn record(
        &self,
        trace: TraceId,
        id: SpanId,
        parent: Option<SpanId>,
        name: &str,
        start: Instant,
        dur_nanos: u64,
    ) {
        self.sink.push(WallSpan {
            trace,
            id,
            parent,
            name: name.to_string(),
            process: "perfbench".to_string(),
            start_unix_nanos: self.unix(start),
            dur_nanos,
            tags: Vec::new(),
        });
    }
}

/// Calls and summed self time per span name. A span's self time is its
/// duration minus the time its child spans cover.
struct SelfTimes {
    by_name: HashMap<String, (u64, u64)>,
    by_id: HashMap<SpanId, u64>,
}

impl SelfTimes {
    fn of(spans: &[WallSpan]) -> SelfTimes {
        let mut child: HashMap<SpanId, u64> = HashMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                *child.entry(p).or_default() += s.dur_nanos;
            }
        }
        let mut by_name: HashMap<String, (u64, u64)> = HashMap::new();
        let mut by_id = HashMap::new();
        for s in spans {
            let own = s
                .dur_nanos
                .saturating_sub(child.get(&s.id).copied().unwrap_or(0));
            let e = by_name.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += own;
            by_id.insert(s.id, own);
        }
        SelfTimes { by_name, by_id }
    }

    /// Mean self time per call, nanoseconds.
    fn mean_ns(&self, name: &str) -> (f64, u64) {
        let (n, total) = self.by_name.get(name).copied().unwrap_or((0, 0));
        (total as f64 / n.max(1) as f64, n)
    }

    fn total_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.1)
    }
}

/// Span names, one per public call the benchmark times.
mod name {
    pub const COLD_PASS: &str = "pass.cold";
    pub const PROGRAM: &str = "program";
    pub const PROFILE: &str = "tracer::profile";
    pub const COMPRESS: &str = "proftree::compress_tree";
    pub const BURDEN: &str = "memmodel::apply_burden";
    pub const FLATTEN: &str = "proftree::FlatTree::from_tree";
    pub const FF: &str = "ffemu::predict_counting_flat";
    pub const SYN: &str = "synthemu::predict_flat";
    pub const ENCODE: &str = "codec::encode_profiled";
    pub const DECODE: &str = "codec::decode_profiled";
    pub const PUT: &str = "store::ProfileStore::put";
    pub const GET: &str = "store::ProfileStore::get";
    pub const RUN_JOBS: &str = "sweep::SweepEngine::run_jobs";
    pub const SERIALIZE: &str = "serde_json::to_string_pretty(SweepResult)";
    pub const PREDICT: &str = "http POST /v1/predict";
    pub const METRICS: &str = "http GET /v1/metrics";
}

/// Profile one program through the layers `Prophet::profile` composes:
/// trace without compression, compress, then attach burden factors.
fn profile_layered(
    spans: &Spans,
    trace: TraceId,
    parent: SpanId,
    prophet: &Prophet,
    program: &str,
) -> Profiled {
    let opts = ProfileOptions {
        compress: false,
        ..ProfileOptions::default()
    };
    let prog = programs::program(program).expect("registry name");
    let raw = spans.span(trace, Some(parent), name::PROFILE, |_| {
        tracer::profile(&*prog, opts)
    });
    let (tree, stats) = spans.span(trace, Some(parent), name::COMPRESS, |_| {
        compress_tree(&raw.tree, opts.compress_options)
    });
    let profile = ProfileResult {
        tree,
        compress_stats: Some(stats),
        ..raw
    };
    let mut burdened = profile.tree.clone();
    let cal = prophet.calibration();
    spans.span(trace, Some(parent), name::BURDEN, |_| {
        memmodel::apply_burden(&mut burdened, cal, &BURDEN_THREADS)
    });
    Profiled {
        name: prog.name().to_string(),
        tree: burdened,
        profile,
    }
}

/// A cold pass assembled from the layers, spans parented
/// `pass.cold` → `program` → layer call.
struct Layered {
    trace: TraceId,
    root: SpanId,
    wall_ns: u64,
    /// On-CPU seconds of the pass, as `cold::Pass::secs`.
    cpu_secs: f64,
    digest: Digest,
    profiles: Vec<Arc<Profiled>>,
}

fn layered_cold_pass(spans: &Spans, prophet: &Prophet) -> Layered {
    let trace = spans.trace();
    let (t_pass, c_pass) = (Instant::now(), cpu::process());
    let root = spans.ids.next_span();
    let mut digest = Digest::default();
    let mut profiles = Vec::new();
    for program in cold::PROGRAMS {
        spans.span(trace, Some(root), name::PROGRAM, |pid| {
            let profiled = profile_layered(spans, trace, pid, prophet, program);
            let flat = spans.span(trace, Some(pid), name::FLATTEN, |_| {
                FlatTree::from_tree(&profiled.tree)
            });
            for threads in 2..=12 {
                let opts = PredictOptions {
                    threads,
                    paradigm: Paradigm::OpenMp,
                    schedule: Schedule::static_block(),
                    emulator: Emulator::FastForward,
                    memory_model: true,
                };
                let (p, _) = spans.span(trace, Some(pid), name::FF, |_| {
                    ffemu::predict_counting_flat(&flat, emulate::ff_options(prophet, &opts))
                });
                digest.add(p.speedup, p.predicted_cycles);
            }
            profiles.push(Arc::new(profiled));
        });
    }
    let cpu_secs = cpu::process() - c_pass;
    let wall_ns = t_pass.elapsed().as_nanos() as u64;
    spans.record(trace, root, None, name::COLD_PASS, t_pass, wall_ns);
    Layered {
        trace,
        root,
        wall_ns,
        cpu_secs,
        digest,
        profiles,
    }
}

/// Cache simulator driven directly, one access pattern at a time.
/// Returns nanoseconds per access.
fn cachesim_leg(pattern: &str, seed: u64) -> f64 {
    const ACCESSES: u64 = 4_000_000;
    const HOT_BYTES: u64 = 16 << 10; // half the modelled 32 KiB L1
    const BIG_BYTES: u64 = 8 << 20; // over 4x the modelled 1.5 MiB LLC
    let mut sim = MemSim::new(HierarchyConfig::westmere_scaled());
    let mut rng = Rng::new(seed);
    let t0 = Instant::now();
    for i in 0..ACCESSES {
        let addr = match pattern {
            "hot" => (i * 8) % HOT_BYTES,
            "stream" => (i * 8) % BIG_BYTES,
            _ => (rng.next() % (BIG_BYTES / 8)) * 8,
        };
        sim.read(std::hint::black_box(addr));
    }
    std::hint::black_box(sim.snapshot());
    t0.elapsed().as_nanos() as f64 / ACCESSES as f64
}

/// A tracer fed annotations only (no memory references): sections of
/// eight empty tasks. Returns nanoseconds per annotation event,
/// `finish` included.
fn tracer_leg() -> (f64, u64) {
    const SECTIONS: usize = 20_000;
    let mut t = Tracer::new(ProfileOptions {
        compress: false,
        ..ProfileOptions::default()
    });
    let t0 = Instant::now();
    for _ in 0..SECTIONS {
        t.par_sec_begin("sec");
        for _ in 0..8 {
            t.par_task_begin("task");
            t.par_task_end();
        }
        t.par_sec_end(false);
    }
    let result = t.finish().expect("well-nested annotations");
    let ns = t0.elapsed().as_nanos() as f64;
    (
        ns / result.annotation_events as f64,
        result.annotation_events,
    )
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// The traced run. Fills `report` with every per-layer metric and
/// writes the spans to `out_dir` as Chrome-trace JSON.
pub fn run(
    seed: u64,
    out_dir: &Path,
    run_dir: &Path,
    workers: usize,
    conns: usize,
    report: &mut Report,
    digests: &crate::Digests,
) -> Result<(), String> {
    let spans = Spans::new(seed);

    // Micro-legs.
    for pattern in ["hot", "stream", "gather"] {
        let ns = cachesim_leg(pattern, seed);
        report.put(
            format!("cachesim.ns_per_access.{pattern}"),
            ns,
            "ns",
            "per simulated read; 4M reads; hot 16 KiB, stream/gather 8 MiB".to_string(),
        );
    }
    let (ns_event, events) = tracer_leg();
    report.put(
        "tracer.ns_per_event",
        ns_event,
        "ns",
        format!("per annotation event; {events} events, annotation-only program"),
    );

    let prophet = Arc::new(Prophet::new());
    prophet.calibration();

    // Untraced passes on the sweep engine alternate with the same pass
    // assembled layer by layer, so host speed drifts hit both sides.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..2 {
        let trace = spans.trace();
        untraced.push(spans.span(trace, None, name::RUN_JOBS, |_| cold::pass(&prophet, |s| s)));
        traced.push(layered_cold_pass(&spans, &prophet));
    }
    let (mut profile_ns, mut predict_ns) = (0u64, 0u64);
    for u in &untraced {
        let st = u.engine.stage_timings();
        profile_ns += st.profile_nanos;
        predict_ns += st.predict_nanos;
        if u.digest != digests.cold {
            report.problem(format!(
                "untraced cold pass digest {} != stored {}",
                u.digest.hex(),
                digests.cold.hex()
            ));
        }
    }
    report.put(
        "sweep.profile_share",
        profile_ns as f64 / (profile_ns + predict_ns).max(1) as f64,
        "ratio",
        "stage_timings(): profile / (profile + predict), two cold passes".to_string(),
    );
    for t in &traced {
        if t.digest != digests.cold {
            report.problem(format!(
                "layered cold pass digest {} != sweep engine {}",
                t.digest.hex(),
                digests.cold.hex()
            ));
        }
        report.tally(untraced[0].points, 0, "layered cold-pass predictions");
    }
    let traced_s = traced.iter().map(|t| t.cpu_secs).sum::<f64>() / 2.0;
    let untraced_s = untraced.iter().map(|u| u.secs).sum::<f64>() / 2.0;
    report.put(
        "trace.overhead_s",
        traced_s - untraced_s,
        "s",
        format!(
            "mean traced {traced_s:.4} s minus mean untraced {untraced_s:.4} s cold pass, \
             CPU clock, two of each alternating"
        ),
    );
    let layered = &traced[0].profiles;
    let (mut events, mut accesses, mut l2_misses, mut llc_misses) = (0u64, 0u64, 0u64, 0u64);
    let (mut bytes_before, mut bytes_after) = (0usize, 0usize);
    for p in layered {
        let r = &p.profile;
        events += r.annotation_events;
        accesses += r.counters.loads + r.counters.stores;
        l2_misses += r.counters.l2_misses;
        llc_misses += r.counters.llc_misses;
        if let Some(s) = r.compress_stats {
            bytes_before += s.bytes_before;
            bytes_after += s.bytes_after;
        }
    }

    // Emulate-grid pass, layer by layer, over every registry program.
    let extra_trace = spans.trace();
    let profiles: Vec<Arc<Profiled>> = programs::PROGRAMS
        .iter()
        .map(|p| match cold::PROGRAMS.iter().position(|c| c == p) {
            Some(i) => Arc::clone(&layered[i]),
            None => spans.span(extra_trace, None, name::PROGRAM, |pid| {
                Arc::new(profile_layered(&spans, extra_trace, pid, &prophet, p))
            }),
        })
        .collect();
    let (steps, _) = emulate::plan();
    let emu_trace = spans.trace();
    let trace = emu_trace;
    let mut emu_digest = Digest::default();
    let (mut fastpathed, mut skipped, mut flat_nodes) = (0u64, 0u64, 0u64);
    let mut current: Option<(usize, FlatTree)> = None;
    for step in &steps {
        if current.as_ref().is_none_or(|(p, _)| *p != step.program) {
            let flat = spans.span(trace, None, name::FLATTEN, |_| {
                FlatTree::from_tree(&profiles[step.program].tree)
            });
            flat_nodes += flat.len() as u64;
            current = Some((step.program, flat));
        }
        let flat = &current.as_ref().expect("flattened above").1;
        let (speedup, cycles) = match step.opts.emulator {
            Emulator::FastForward => {
                let (p, c) = spans.span(trace, None, name::FF, |_| {
                    ffemu::predict_counting_flat(flat, emulate::ff_options(&prophet, &step.opts))
                });
                fastpathed += c.runs_fastpathed;
                skipped += c.iters_skipped;
                (p.speedup, p.predicted_cycles)
            }
            Emulator::Synthesizer => {
                let p = spans
                    .span(trace, None, name::SYN, |_| {
                        synthemu::predict_flat(flat, &emulate::synth_options(&prophet, &step.opts))
                    })
                    .map_err(|e| format!("synthesizer: {e:?}"))?;
                (p.speedup, p.predicted_cycles)
            }
        };
        emu_digest.add(speedup, cycles);
    }
    if emu_digest != digests.emulate {
        report.problem(format!(
            "layered emulate pass digest {} != stored {}",
            emu_digest.hex(),
            digests.emulate.hex()
        ));
    }
    report.tally(steps.len() as u64, 0, "layered emulate estimates");

    // Codec: encode and decode every profile; the layered profiles must
    // encode to the same bytes as the sweep engine's.
    let trace = spans.trace();
    let mut record_bytes = Vec::new();
    for (i, p) in profiles.iter().enumerate() {
        let mut buf = Vec::new();
        spans.span(trace, None, name::ENCODE, |_| encode_profiled(p, &mut buf));
        let back = spans
            .span(trace, None, name::DECODE, |_| decode_profiled(&buf))
            .map_err(|e| format!("decode {}: {e}", p.name))?;
        let mut again = Vec::new();
        encode_profiled(&back, &mut again);
        if again != buf {
            report.problem(format!("codec round trip of {} changed bytes", p.name));
        }
        if let Some(c) = cold::PROGRAMS
            .iter()
            .position(|c| *c == programs::PROGRAMS[i])
        {
            let engine_profile = untraced[0]
                .engine
                .profiled(&programs::spec(cold::PROGRAMS[c]));
            let mut reference = Vec::new();
            encode_profiled(&engine_profile, &mut reference);
            if reference != buf {
                report.problem(format!(
                    "layered profile of {} differs from Prophet::profile",
                    p.name
                ));
            }
        }
        record_bytes.push(buf.len() as f64);
    }

    // Store: put every profile, then read a seed-drawn skewed sequence.
    let store_dir = run_dir.join("traced-store");
    let store = ProfileStore::builder(&store_dir)
        .open()
        .map_err(|e| format!("open store: {e}"))?;
    let mut keyed: Vec<(String, Arc<Profiled>)> = programs::PROGRAMS
        .iter()
        .zip(&profiles)
        .map(|(n, p)| (n.to_string(), Arc::clone(p)))
        .collect();
    for i in 0..STORE_TEST_KEYS {
        let key = format!("test1:{}", 7_000_000 + seed % 1_000_000 * 64 + i);
        let spec = WorkloadSpec::test1(7_000_000 + seed % 1_000_000 * 64 + i);
        let engine = SweepEngine::from_arc(Arc::clone(&prophet)).with_jobs(1);
        keyed.push((key, engine.profiled(&spec)));
    }
    for (k, p) in &keyed {
        spans
            .span(trace, None, name::PUT, |_| store.put(k, p))
            .map_err(|e| format!("store put: {e}"))?;
    }
    let mut rng = Rng::new(seed ^ 0x5707e);
    let mut get_failures = 0;
    for _ in 0..STORE_GETS {
        let i = if rng.below(2) == 0 {
            rng.below(16)
        } else {
            rng.below(keyed.len() as u64)
        } as usize;
        let got = spans
            .span(trace, None, name::GET, |_| store.get(&keyed[i].0))
            .map_err(|e| format!("store get: {e}"))?;
        match got {
            Some(p) if p.profile.net_cycles == keyed[i].1.profile.net_cycles => {}
            _ => get_failures += 1,
        }
    }
    report.tally(STORE_GETS as u64, get_failures, "store reads");
    let stats = store.stats();
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);

    // Serialization of warm-class responses.
    let mut rng = Rng::new(seed ^ 0x5e41);
    let engine = SweepEngine::from_arc(Arc::clone(&prophet)).with_jobs(1);
    for (k, _) in keyed.iter().skip(programs::PROGRAMS.len()).take(32) {
        let mut grid = GridSpec::new(vec![WorkloadSpec::test1(
            k[6..].parse().expect("test1 key"),
        )]);
        grid.threads = vec![2 + rng.below(4) as u32, 6 + rng.below(3) as u32, 12];
        grid.predictors = vec![PredictorSpec::ff(true)];
        let result = engine.run(&grid);
        let body = spans.span(trace, None, name::SERIALIZE, |_| {
            serde_json::to_string_pretty(&result).expect("serialise sweep result")
        });
        std::hint::black_box(body);
    }

    // Serve: a short window against a store-warm daemon.
    let keys = Keys::new(seed);
    let (daemon, _) = serve_mix::setup_daemon(&run_dir.join("traced-serve"), workers, &keys)?;
    let mut rng = Rng::new(seed);
    let plan = Plan::new(&keys, &mut rng, SERVE_SECS, 0);
    let trace = spans.trace();
    let window_start = Instant::now() + std::time::Duration::from_millis(20);
    let outcomes = serve_mix::run_window(&daemon.addr, &plan, conns, window_start);
    for o in &outcomes {
        let sent = window_start + std::time::Duration::from_secs_f64((o.due_ms + o.late_ms) / 1e3);
        let dur = ((o.latency_ms - o.late_ms).max(0.0) * 1e6) as u64;
        spans.record(trace, spans.ids.next_span(), None, name::PREDICT, sent, dur);
    }
    let m = spans.span(trace, None, name::METRICS, |_| {
        serve_mix::daemon_metrics(&daemon.addr)
    })?;
    daemon.stop().map_err(|e| format!("stop daemon: {e}"))?;
    let used: Vec<usize> = outcomes.iter().map(|o| o.body).collect();
    let verify = SweepEngine::from_arc(Arc::clone(&prophet)).with_jobs(0);
    let expected = serve_mix::reference(&verify, &plan, &used);
    let bad = outcomes
        .iter()
        .filter(|o| o.status != 200 || expected.get(&o.body) != Some(&o.fingerprint))
        .count() as u64;
    report.tally(outcomes.len() as u64, bad, "traced serve requests");
    for class in [Class::Hot, Class::Warm, Class::Cold] {
        let lat: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.class == class)
            .map(|o| o.latency_ms)
            .collect();
        report.put(
            format!("serve.{}_p50_ms", class.name()),
            if lat.is_empty() { 0.0 } else { median(&lat) },
            "ms",
            format!("client-side, from due time; n={}", lat.len()),
        );
    }
    let all_lat: Vec<f64> = outcomes.iter().map(|o| o.latency_ms).collect();
    report.put(
        "serve.p99_ms",
        crate::stats::Timing::at(&all_lat, 990),
        "ms",
        format!(
            "client-side, from due time, one window; n={}",
            all_lat.len()
        ),
    );
    let num = |section: &str, key: &str| serve_mix::metric(&m, section, key).unwrap_or(0.0);
    report.put(
        "serve.queue_wait_p50_ms",
        ms(queue_wait_p50(&m)),
        "ms",
        "/v1/metrics serve.queue_wait_nanos p50 (log2 buckets)".to_string(),
    );
    report.put(
        "serve.batch_size_mean",
        m.get("histograms")
            .and_then(|h| h.get("serve.batch_size"))
            .and_then(|h| h.get("mean"))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0),
        "count",
        "/v1/metrics serve.batch_size mean".to_string(),
    );
    let (hits, misses) = (
        num("counters", "serve.result_cache_hits"),
        num("counters", "serve.result_cache_misses"),
    );
    report.put(
        "serve.result_cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
        format!("{hits} hits, {misses} misses"),
    );
    report.put(
        "serve.shed_total",
        num("counters", "serve.shed_total"),
        "count",
        "/v1/metrics".to_string(),
    );

    // Per-layer figures from the spans.
    let all = spans.sink.drain();
    let selfs = SelfTimes::of(&all);
    for (i, program) in cold::PROGRAMS.iter().enumerate() {
        // A layered pass profiles in program order: the i-th
        // tracer::profile span of its trace belongs to program i.
        let durs: Vec<f64> = traced
            .iter()
            .filter_map(|t| {
                all.iter()
                    .filter(|s| s.trace == t.trace && s.name == name::PROFILE)
                    .nth(i)
                    .map(|s| s.dur_nanos as f64)
            })
            .collect();
        report.put(
            format!("tracer.profile_ms.{program}"),
            ms(durs.iter().sum::<f64>() / durs.len().max(1) as f64),
            "ms",
            format!(
                "tracer::profile, compression off; mean of {} passes",
                durs.len()
            ),
        );
    }
    report.put(
        "tracer.events",
        events as f64,
        "count",
        "annotation events, cold pass".to_string(),
    );
    report.put(
        "cachesim.accesses",
        accesses as f64,
        "count",
        "loads + stores, cold pass".to_string(),
    );
    report.put(
        "cachesim.llc_miss_ratio",
        llc_misses as f64 / l2_misses.max(1) as f64,
        "ratio",
        format!(
            "LLC misses / LLC accesses (L2 misses) over the cold pass; {llc_misses}/{l2_misses}"
        ),
    );
    let mean = |n: &str| selfs.mean_ns(n);
    let (v, n) = mean(name::COMPRESS);
    report.put(
        "proftree.compress_ms",
        ms(v),
        "ms",
        format!("mean self time per call; {n} calls"),
    );
    report.put(
        "proftree.compress_ratio",
        bytes_after as f64 / bytes_before.max(1) as f64,
        "ratio",
        format!("bytes kept by compression, cold pass; {bytes_after}/{bytes_before}"),
    );
    let (v, n) = mean(name::BURDEN);
    report.put(
        "memmodel.burden_us",
        us(v),
        "us",
        format!("mean self time per call; {n} calls"),
    );
    let (v, n) = mean(name::FLATTEN);
    report.put(
        "proftree.flatten_us",
        us(v),
        "us",
        format!("mean self time per call; {n} calls"),
    );
    report.put(
        "proftree.flat_nodes",
        flat_nodes as f64,
        "count",
        "arena nodes over the 15 programs".to_string(),
    );
    // The emulate pass's calls only: the layered cold passes call the
    // same function on another mix of programs and options.
    let ff: Vec<f64> = all
        .iter()
        .filter(|s| s.trace == emu_trace && s.name == name::FF)
        .map(|s| s.dur_nanos as f64)
        .collect();
    report.put(
        "ffemu.predict_us",
        us(ff.iter().sum::<f64>() / ff.len().max(1) as f64),
        "us",
        format!("mean per call, emulate pass; {} calls", ff.len()),
    );
    report.put(
        "ffemu.runs_fastpathed",
        fastpathed as f64,
        "count",
        "summed over the emulate pass".to_string(),
    );
    report.put(
        "ffemu.iters_skipped",
        skipped as f64,
        "count",
        "summed over the emulate pass".to_string(),
    );
    let (v, n) = mean(name::SYN);
    report.put(
        "synthemu.predict_ms",
        ms(v),
        "ms",
        format!("mean self time per call; {n} calls"),
    );
    let (v, n) = mean(name::DECODE);
    report.put(
        "codec.decode_us",
        us(v),
        "us",
        format!("mean per call; {n} calls"),
    );
    let (v, n) = mean(name::ENCODE);
    report.put(
        "codec.encode_us",
        us(v),
        "us",
        format!("mean per call; {n} calls"),
    );
    report.put(
        "codec.record_bytes",
        record_bytes.iter().sum::<f64>() / record_bytes.len() as f64,
        "bytes",
        format!("mean PSR2 record over {} programs", record_bytes.len()),
    );
    let (v, n) = mean(name::GET);
    report.put(
        "store.get_us",
        us(v),
        "us",
        format!("mean per call; {n} calls"),
    );
    let (v, n) = mean(name::PUT);
    report.put(
        "store.put_us",
        us(v),
        "us",
        format!("mean per call; {n} calls"),
    );
    report.put(
        "store.decode_hit_ratio",
        stats.decode_hits as f64 / (stats.decode_hits + stats.decode_misses).max(1) as f64,
        "ratio",
        format!(
            "{} decode hits, {} misses",
            stats.decode_hits, stats.decode_misses
        ),
    );
    let (v, n) = mean(name::SERIALIZE);
    report.put(
        "sweep.serialize_us",
        us(v),
        "us",
        format!("mean per call; {n} calls"),
    );
    let roots: Vec<SpanId> = traced.iter().map(|t| t.root).collect();
    let pass_dur: u64 = traced.iter().map(|t| t.wall_ns).sum();
    // The pass and program spans only hold the layer calls; their own
    // self time is what no layer span accounts for.
    let unattributed: u64 = all
        .iter()
        .filter(|s| {
            roots.contains(&s.id)
                || (s.name == name::PROGRAM && s.parent.is_some_and(|p| roots.contains(&p)))
        })
        .map(|s| selfs.by_id.get(&s.id).copied().unwrap_or(0))
        .sum();
    report.put(
        "trace.unattributed_share",
        unattributed as f64 / pass_dur.max(1) as f64,
        "ratio",
        format!(
            "traced cold pass wall minus layer self times, over wall; run_jobs self {:.1} ms",
            ms(selfs.total_ns(name::RUN_JOBS) as f64)
        ),
    );

    let path = out_dir.join(format!("spans-seed{seed}.json"));
    std::fs::write(&path, spans_chrome_trace(&all))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("spans: {} written to {}", all.len(), path.display());
    Ok(())
}

fn queue_wait_p50(m: &serde::Value) -> f64 {
    m.get("histograms")
        .and_then(|h| h.get("serve.queue_wait_nanos"))
        .and_then(|h| h.get("p50"))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0)
}
