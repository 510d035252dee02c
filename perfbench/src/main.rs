//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <emulate-grid|serve-mix> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Every run sets up (engine, calibration, a store-warm daemon) three
//! times, then repeats rounds of three legs — a cold pass, the warm
//! emulation grid, a serve-mix window — each round followed by two more
//! timed set-ups, so every end-to-end metric is reported on every
//! workload. The workload sets each round's emulate passes and serve
//! windows, and `--seconds` the number of rounds. `--trace 1` runs the
//! traced pipeline instead and reports the per-layer metrics. README.md documents the
//! metrics and their mapping.
//!
//! Other modes: `digests` prints the prediction digests stored in
//! `digests.json`; `capacity` measures the serve mix's closed-loop
//! throughput with `serve::loadgen` (how the open-loop rate was sized).

mod cold;
mod cpu;
mod emulate;
mod gauge;
mod programs;
mod serve_mix;
mod stats;
mod traced;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use prophet_core::Prophet;
use serde::Value;
use sweep::SweepEngine;

use serve_mix::{Class, Keys, Plan, Rng};
use stats::{median, Digest, Report, Timing};

/// Set-ups before the first round; the last one's engine and daemon are
/// used. `setup_s` is the median of these and of the extra set-ups
/// after each round, which sample the host's state over the whole run.
const SETUP_FIRST: usize = 3;
const SETUP_PER_ROUND: usize = 2;

const WORKLOADS: [&str; 2] = ["emulate-grid", "serve-mix"];

/// Stored digests of the deterministic legs (`digests.json`).
pub struct Digests {
    pub cold: Digest,
    pub emulate: Digest,
    pub real: Digest,
}

impl Digests {
    fn stored() -> Result<Digests, String> {
        let v: Value = serde_json::from_str(include_str!("../digests.json"))
            .map_err(|e| format!("digests.json: {e:?}"))?;
        let get = |k: &str| -> Result<Digest, String> {
            match v.get(k) {
                Some(Value::Str(s)) => Digest::parse(s).ok_or_else(|| format!("bad digest {k}")),
                _ => Err(format!("digests.json lacks {k}")),
            }
        };
        Ok(Digests {
            cold: get("cold")?,
            emulate: get("emulate")?,
            real: get("real")?,
        })
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Peak resident set (`VmHWM`) of this process, KiB.
pub fn vmhwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// The checkout root (parent of this package).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("package sits inside the repository")
        .to_path_buf()
}

/// Where runs write stores, spans and result files: under the cargo
/// target directory, which the repository ignores.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    target.join("perfbench-runs")
}

fn command_line(cmd: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(cmd)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over every source file of the workspace crates, sorted by path:
/// names the code under test when the checkout carries no git metadata.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("vendor"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", prophet_core::fingerprint64(&bytes))
}

fn provenance(args: &Args, nproc: usize) -> Vec<(String, Value)> {
    let root = repo_root();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let s = |v: String| Value::Str(v);
    vec![
        (
            "commit".to_string(),
            // Only the checkout's own repository, never an enclosing one.
            s(root
                .join(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"], &root))
                .flatten()
                .unwrap_or_else(|| "none (not a git checkout)".to_string())),
        ),
        ("source_digest".to_string(), s(source_digest(&root))),
        ("nproc".to_string(), Value::U64(nproc as u64)),
        ("cpu".to_string(), s(cpu)),
        (
            "rustc".to_string(),
            s(command_line(&rustc, &["-V"], &root).unwrap_or_else(|| "unknown".to_string())),
        ),
        ("workload".to_string(), s(args.workload.clone())),
        ("seed".to_string(), Value::U64(args.seed)),
        ("seconds".to_string(), Value::F64(args.seconds)),
        ("trace".to_string(), Value::Bool(args.trace)),
    ]
}

/// One set-up: build the engine and its calibration, then fill a
/// daemon's store and restart it store-warm. It is timed on CPU clocks:
/// this process's, plus what both daemons used up to the restarted one
/// being ready, so host steal and the waits between the processes do not
/// count (the caller scales it by the gauge). Wall seconds come second.
struct SetUp {
    cpu: f64,
    wall: f64,
    prophet: Arc<Prophet>,
    daemon: serve_mix::Daemon,
}

fn set_up(store_dir: &Path, workers: usize, keys: &Keys) -> Result<SetUp, String> {
    let (t0, c0) = (Instant::now(), cpu::process());
    let prophet = Arc::new(Prophet::new());
    prophet.calibration();
    let (daemon, daemon_cpu) = serve_mix::setup_daemon(store_dir, workers, keys)?;
    Ok(SetUp {
        cpu: cpu::process() - c0 + daemon_cpu,
        wall: t0.elapsed().as_secs_f64(),
        prophet,
        daemon,
    })
}

/// What one round of a workload holds. A round is one cold pass, the
/// emulate passes, the serve windows, then more set-ups; repeating rounds
/// spreads every leg over the whole run. The workload's own legs get the
/// most of each round.
struct Round {
    emulate_passes: usize,
    serve_windows: usize,
    window_s: f64,
    /// Seconds a round takes on a 2-core host running at its usual speed.
    /// A run holds `--seconds` over this many rounds, however fast the
    /// host runs, so every run of a workload takes the same samples: a
    /// stop on elapsed time would flip runs between one and two rounds as
    /// the host's speed changed.
    secs: f64,
}

fn round_of(workload: &str) -> Round {
    let (emulate_passes, serve_windows, window_s, secs) = match workload {
        "emulate-grid" => (5, 1, 2.5, 14.0),
        _ => (2, 1, serve_mix::WINDOW_S, 14.0),
    };
    Round {
        emulate_passes,
        serve_windows,
        window_s,
        secs,
    }
}

fn run_workload(
    args: &Args,
    run_dir: &Path,
    workers: usize,
    conns: usize,
    digests: &Digests,
    report: &mut Report,
) -> Result<(), String> {
    let keys = Keys::new(args.seed);
    // Compute legs in gauge-scaled seconds (gauge.rs), raw on-CPU seconds
    // beside them for the notes, and every gauge reading of the run.
    let (mut setup_secs, mut setup_raw, mut setup_wall) = (Vec::new(), Vec::new(), Vec::new());
    let mut slowness = Vec::new();
    let mut store_dir = {
        let mut n = 0;
        move || {
            n += 1;
            run_dir.join(format!("store-{n}"))
        }
    };
    let mut kept: Option<SetUp> = None;
    let mut g = gauge::Series::start();
    for _ in 0..SETUP_FIRST {
        if let Some(k) = kept.take() {
            k.daemon
                .stop()
                .map_err(|e| format!("stop set-up daemon: {e}"))?;
        }
        let s = set_up(&store_dir(), workers, &keys)?;
        setup_secs.push(g.scale(s.cpu));
        setup_raw.push(s.cpu);
        setup_wall.push(s.wall);
        kept = Some(s);
    }
    slowness.extend(g.readings);
    let SetUp {
        prophet, daemon, ..
    } = kept.expect("at least one set-up");
    let shares = round_of(&args.workload);
    let rounds = ((args.seconds / shares.secs).round() as usize).max(1);
    let (steps, reals) = emulate::plan();
    let mut rng = Rng::new(args.seed);

    let (mut cold_secs, mut ff_us, mut syn_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cold_raw, mut ff_raw, mut syn_raw) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lat, mut late, mut per_class) = (Vec::new(), Vec::new(), Vec::new());
    let mut window_p99 = Vec::new();
    let (mut error_pct, mut cold_keys) = (0.0, 0u64);
    // (byte-correct 200, latency) of every timed request.
    let mut answered: Vec<(bool, f64)> = Vec::new();
    let mut prepared: Option<(Vec<Arc<prophet_core::Profiled>>, Vec<f64>)> = None;
    let (mut cold_t, mut emu_t, mut serve_t) = (0.0, 0.0, 0.0);
    for round in 0..rounds {
        let round_t0 = Instant::now();
        let mut g = gauge::Series::start();
        let mut raw = 0.0;
        let pass = cold::pass(&prophet, |secs| {
            raw += secs;
            g.scale(secs)
        });
        slowness.extend(g.readings);
        cold_raw.push(raw);
        let bad = if pass.digest == digests.cold {
            0
        } else {
            pass.points
        };
        report.tally(pass.points, bad, "cold-pass predictions (digest)");
        cold_secs.push(pass.secs);
        cold_t += round_t0.elapsed().as_secs_f64();

        // Profiles and ground truth for the grid, once (not timed).
        let (profiles, real) = prepared.get_or_insert_with(|| {
            let profiles = emulate::profiles(&prophet, &pass.engine);
            let (real, real_digest) = emulate::real_speedups(&profiles, &reals);
            if real_digest != digests.real {
                report.problem(format!(
                    "ground-truth digest {} != stored {}",
                    real_digest.hex(),
                    digests.real.hex()
                ));
            }
            (profiles, real)
        });
        let t0 = Instant::now();
        let mut g = gauge::Series::start();
        for _ in 0..shares.emulate_passes {
            let out = emulate::pass(&prophet, profiles, &steps, real);
            let slow = g.mark();
            let bad = if out.digest == digests.emulate {
                0
            } else {
                steps.len() as u64
            };
            report.tally(steps.len() as u64, bad, "emulate-grid estimates (digest)");
            ff_us.extend(out.ff_us.iter().map(|us| us / slow));
            syn_ms.extend(out.syn_ms.iter().map(|ms| ms / slow));
            ff_raw.extend_from_slice(&out.ff_us);
            syn_raw.extend_from_slice(&out.syn_ms);
            error_pct = out.error_pct();
        }
        slowness.extend(g.readings);
        emu_t += t0.elapsed().as_secs_f64();

        for window in 0..shares.serve_windows {
            // The restarted daemon's caches fill during the first window's
            // first half second, which is checked but not timed.
            let warmup_ms = if round + window == 0 {
                serve_mix::WARMUP_MS
            } else {
                0.0
            };
            let window_s = shares.window_s + warmup_ms / 1e3;
            let plan = Plan::new(&keys, &mut rng, window_s, cold_keys);
            cold_keys += plan.cold_count();
            let start = Instant::now() + std::time::Duration::from_millis(20);
            let outcomes = serve_mix::run_window(&daemon.addr, &plan, conns, start);
            serve_t += window_s;
            let used: Vec<usize> = outcomes.iter().map(|o| o.body).collect();
            // A fresh reference engine per window keeps the benchmark's own
            // memory independent of how many windows the run holds.
            let verify = SweepEngine::from_arc(Arc::clone(&prophet)).with_jobs(0);
            let expected = serve_mix::reference(&verify, &plan, &used);
            drop(verify);
            let mut bad = 0u64;
            let mut window_lat = Vec::new();
            for o in &outcomes {
                let correct = o.status == 200 && expected.get(&o.body) == Some(&o.fingerprint);
                bad += u64::from(!correct);
                if o.due_ms < warmup_ms {
                    continue;
                }
                answered.push((correct, o.latency_ms));
                lat.push(o.latency_ms);
                window_lat.push(o.latency_ms);
                late.push(o.late_ms);
                per_class.push((o.class, o.latency_ms));
            }
            report.tally(
                outcomes.len() as u64,
                bad,
                "serve requests (status and bytes)",
            );
            window_p99.push(Timing::at(&window_lat, 990));
        }
        let mut g = gauge::Series::start();
        for _ in 0..SETUP_PER_ROUND {
            let dir = store_dir();
            let s = set_up(&dir, workers, &keys)?;
            setup_secs.push(g.scale(s.cpu));
            s.daemon
                .stop()
                .map_err(|e| format!("stop set-up daemon: {e}"))?;
            setup_raw.push(s.cpu);
            setup_wall.push(s.wall);
            let _ = std::fs::remove_dir_all(&dir);
        }
        slowness.extend(g.readings);
    }
    let (daemon_kb, _) = daemon.stop().map_err(|e| format!("stop daemon: {e}"))?;

    let self_kb = vmhwm_kb().unwrap_or(0);
    let t = Timing::of(&setup_secs);
    report.put(
        "setup_s",
        t.p50,
        "s",
        format!(
            "gauge-scaled CPU s, median of {} set-ups ({SETUP_FIRST} first, {SETUP_PER_ROUND} per \
             round); on-CPU median {:.4} s, wall median {:.3} s",
            t.n,
            median(&setup_raw),
            median(&setup_wall)
        ),
    );
    report.put(
        "peak_rss_mb",
        (self_kb + daemon_kb) as f64 / 1024.0,
        "MB",
        format!("benchmark {self_kb} KiB + daemon {daemon_kb} KiB peak"),
    );
    report.timing("cold_pass_s", "s", &cold_secs, &cold_raw);
    report.timing("ff_estimate_us", "us", &ff_us, &ff_raw);
    report.timing("syn_estimate_ms", "ms", &syn_ms, &syn_raw);
    report.put(
        "pred_error_pct",
        error_pct,
        "%",
        format!(
            "mean |pred-Real|/Real over {} FF+mm and SYN+mm points",
            2 * reals.len()
        ),
    );
    // The class shares are an assumption of the benchmark (README.md):
    // the note shows where the all-class median would sit at other hot
    // shares, and each class's own median is reported beside it.
    let at_hot = |pct: f64| {
        let rest = 100.0 - pct;
        let warm_of_rest = serve_mix::WARM_PCT as f64 / (100 - serve_mix::HOT_PCT) as f64;
        serve_mix::mix_median(
            &per_class,
            [pct, rest * warm_of_rest, rest * (1.0 - warm_of_rest)],
        )
    };
    report.put(
        "serve_p50_ms",
        median(&lat),
        "ms",
        format!(
            "from due time; {}; at hot share 30% {:.3}, 50% {:.3}",
            Timing::of(&lat).describe(),
            at_hot(30.0),
            at_hot(50.0)
        ),
    );
    for class in [Class::Hot, Class::Warm, Class::Cold] {
        let c: Vec<f64> = per_class
            .iter()
            .filter(|(k, _)| *k == class)
            .map(|(_, l)| *l)
            .collect();
        if c.is_empty() {
            report.problem(format!("no timed {} requests", class.name()));
            continue;
        }
        let name = format!("serve_{}_p50_ms", class.name());
        let note = format!(
            "{} class, from due time; {}",
            class.name(),
            Timing::of(&c).describe()
        );
        // Only the warm class is steady enough to bound (README.md): a hot
        // answer takes about a tenth of a millisecond, where thread
        // wake-ups on a shared host set the figure, and a cold request
        // profiles a fresh program, which follows the host's speed.
        if class != Class::Warm {
            report.put_ungated(&name, median(&c), "ms", note);
        } else {
            report.put(name, median(&c), "ms", note);
        }
    }
    // Host stalls of ~100 ms hit single windows; the median window's p99
    // tracks the daemon rather than the host. Even so it swings with the
    // host's state (README.md), so no bound is set on it.
    report.put_ungated(
        "serve_p99_ms",
        median(&window_p99),
        "ms",
        format!(
            "p99 per window, median of {} windows {:.3?}; whole-run p99 {:.3} over n={}",
            window_p99.len(),
            window_p99,
            Timing::at(&lat, 990),
            lat.len()
        ),
    );
    let mut sorted = slowness.clone();
    sorted.sort_by(f64::total_cmp);
    report.put_ungated(
        "host_slowness",
        median(&slowness),
        "ratio",
        format!(
            "gauge readings: n={} min={:.3} max={:.3}",
            sorted.len(),
            sorted[0],
            sorted[sorted.len() - 1]
        ),
    );
    let slo_at = |limit_ms: f64| {
        let good = answered
            .iter()
            .filter(|(ok, l)| *ok && *l <= limit_ms)
            .count();
        good as f64 / answered.len().max(1) as f64
    };
    report.put(
        "serve_slo_ratio",
        slo_at(serve_mix::SLO_LIMIT_MS),
        "ratio",
        format!(
            "200, byte-correct and within {} ms; at 5/10/20 ms {:.4}/{:.4}/{:.4}; \
             generator lateness p99 {:.3} ms; {cold_keys} cold",
            serve_mix::SLO_LIMIT_MS,
            slo_at(5.0),
            slo_at(10.0),
            slo_at(20.0),
            Timing::at(&late, 990),
        ),
    );
    println!(
        "  {rounds} rounds; measured cold {cold_t:.2} s, emulate {emu_t:.2} s, serve {serve_t:.2} s; cold passes {cold_secs:.3?} gauge-scaled s, {cold_raw:.3?} on-CPU s"
    );
    Ok(())
}

/// `digests`: recompute the stored digests from the code as it is.
fn print_digests() {
    let prophet = Arc::new(Prophet::new());
    let pass = cold::pass(&prophet, |secs| secs);
    let profiles = emulate::profiles(&prophet, &pass.engine);
    let (steps, reals) = emulate::plan();
    let (real, real_digest) = emulate::real_speedups(&profiles, &reals);
    let out = emulate::pass(&prophet, &profiles, &steps, &real);
    println!(
        "{{\n  \"cold\": \"{}\",\n  \"emulate\": \"{}\",\n  \"real\": \"{}\",\n  \"pred_error_pct\": {}\n}}",
        pass.digest.hex(),
        out.digest.hex(),
        real_digest.hex(),
        out.error_pct()
    );
}

/// `capacity`: closed-loop requests per second of the serve mix, through
/// `serve::loadgen` with the mix's request sequence as its bodies. How
/// [`serve_mix::RATE_RPS`] was sized.
fn print_capacity(run_dir: &Path, workers: usize, conns: usize) -> Result<(), String> {
    let keys = Keys::new(0);
    let (daemon, _) = serve_mix::setup_daemon(&run_dir.join("capacity"), workers, &keys)?;
    let plan = Plan::new(&keys, &mut Rng::new(0), 20.0, 0);
    let report = serve::loadgen::run(&serve::loadgen::LoadgenOptions {
        addr: daemon.addr.clone(),
        requests: plan.requests.len(),
        concurrency: conns,
        bodies: plan
            .requests
            .iter()
            .map(|r| plan.bodies[r.body].clone())
            .collect(),
        keep_alive: true,
        ..serve::loadgen::LoadgenOptions::default()
    });
    daemon.stop().map_err(|e| format!("stop daemon: {e}"))?;
    println!(
        "closed-loop capacity: {:.0} requests/s over {conns} connections ({} ok of {})",
        report.rps, report.ok, report.requests
    );
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("__daemon") && argv.len() == 3 {
        let workers = argv[2].parse().unwrap_or(1);
        serve_mix::daemon_main(&argv[1], workers);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc.min(2);
    let conns = nproc.min(2);
    let base = out_dir();
    let run_dir = base.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("error: cannot create {}: {e}", run_dir.display());
        std::process::exit(2);
    }
    let code = match argv.first().map(String::as_str) {
        Some("digests") => {
            print_digests();
            0
        }
        Some("capacity") => match print_capacity(&run_dir, workers, conns) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        },
        _ => bench(&argv, &base, &run_dir, nproc, workers, conns),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    std::process::exit(code);
}

fn bench(
    argv: &[String],
    base: &Path,
    run_dir: &Path,
    nproc: usize,
    workers: usize,
    conns: usize,
) -> i32 {
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>",
                WORKLOADS.join("|")
            );
            return 2;
        }
    };
    let digests = match Digests::stored() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let prov = provenance(&args, nproc);
    for (k, v) in &prov {
        println!(
            "provenance {k} = {}",
            serde_json::to_string(v).unwrap_or_default()
        );
    }
    let mut report = Report::default();
    let outcome = if args.trace {
        traced::run(
            args.seed,
            base,
            run_dir,
            workers,
            conns,
            &mut report,
            &digests,
        )
    } else {
        run_workload(&args, run_dir, workers, conns, &digests, &mut report)
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        return 1;
    }
    report.put_ungated(
        "fail_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        format!("{} failed of {} attempted", report.failed, report.attempted),
    );
    for m in report.metrics.iter().chain(&report.ungated) {
        println!("metric {} = {} {} ({})", m.name, m.value, m.unit, m.note);
    }
    for p in &report.problems {
        println!("FAILED: {p}");
    }
    // The result file keeps provenance and every metric with its notes;
    // the last stdout line carries what the comparison reads.
    let mut record = prov;
    record.push((
        "metrics".to_string(),
        Value::Object(
            report
                .metrics
                .iter()
                .chain(&report.ungated)
                .map(|m| {
                    (
                        m.name.clone(),
                        Value::Object(vec![
                            ("value".to_string(), Value::F64(m.value)),
                            ("unit".to_string(), Value::Str(m.unit.to_string())),
                            ("note".to_string(), Value::Str(m.note.clone())),
                        ]),
                    )
                })
                .collect(),
        ),
    ));
    let path = base.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    if let Err(e) = std::fs::write(
        &path,
        serde_json::to_string_pretty(&Value::Object(record)).unwrap_or_default(),
    ) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    println!("{}", report.result_line());
    if report.correct() {
        0
    } else {
        1
    }
}
