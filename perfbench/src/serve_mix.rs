//! The serve-mix leg: a `prophet-serve` daemon in a child process, its
//! store filled in set-up and the daemon restarted store-warm, driven by
//! an open-loop client with hot, warm and cold request classes.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use prophet_core::fingerprint64;
use prophet_obs::wallspan::splitmix64;
use serde::Value;
use serve::api::PredictRequest;
use serve::http::ClientConn;
use serve::NormalizedRequest;
use sweep::SweepEngine;

use crate::{cpu, programs};

/// Arrival rate of the open loop, requests per second. `perfbench
/// capacity` measured about 1200-1650 requests/s closed-loop for this mix
/// on a 2-core VM shared with other tenants. At half that rate, and even at a
/// quarter, stretches where the host slowed the VM pushed the daemon
/// into a backlog and p99 latencies up to a hundredfold, so the open loop
/// runs at a sixth to an eighth.
pub const RATE_RPS: f64 = 200.0;
/// Length of one serve window on `serve-mix` and in the traced run: 1000
/// requests, ten of them beyond its p99. The other workloads run
/// half-length windows, which leaves their own legs more of each round.
pub const WINDOW_S: f64 = 5.0;
/// A request meets the latency limit when it is answered 200,
/// byte-correct, within this many milliseconds of when it was due.
pub const SLO_LIMIT_MS: f64 = 50.0;
/// Requests due in the first half second of a run's first window are
/// checked but not timed: the restarted daemon's caches are still filling.
pub const WARMUP_MS: f64 = 500.0;
/// Stored test1 and test2 keys each. Together they outnumber the
/// daemon's 256-entry profile cache, and warm requests walk them in a
/// fixed cycle, so every warm request reads its profile from the store.
pub const WARM_KEYS_PER_FAMILY: u64 = 160;
/// Percent of requests per class: hot, then warm; the rest are cold.
pub const HOT_PCT: u64 = 40;
pub const WARM_PCT: u64 = 50;
const PREFILL_CHUNK: u64 = 40;

/// Deterministic generator for everything the seed drives.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(splitmix64(seed ^ 0x5eed_5eed))
    }
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Hot,
    Warm,
    Cold,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Hot => "hot",
            Class::Warm => "warm",
            Class::Cold => "cold",
        }
    }
}

/// The request keys of one seed. The stored (warm) keys are the same
/// for every seed, so the daemon's and the reference's memory does not
/// depend on which programs a seed draws; the seed picks the fresh cold
/// keys, which never collide with the stored ones or across seeds.
#[derive(Debug, Clone)]
pub struct Keys {
    cold_base: u64,
}

const WARM_BASE: u64 = 1_000_000;

impl Keys {
    pub fn new(seed: u64) -> Keys {
        Keys {
            cold_base: 2_000_000 + (seed % 100_000) * 10_000,
        }
    }

    /// Prefill request bodies covering every warm key.
    fn prefill_bodies(&self) -> Vec<String> {
        let mut out = Vec::new();
        for fam in ["test1", "test2"] {
            let mut a = WARM_BASE;
            while a < WARM_BASE + WARM_KEYS_PER_FAMILY {
                let b = (a + PREFILL_CHUNK).min(WARM_BASE + WARM_KEYS_PER_FAMILY);
                out.push(body(&format!("{fam}:{a}..{b}"), vec![2]));
                a = b;
            }
        }
        out
    }

    fn warm_key(&self, i: u64) -> String {
        let fam = if i.is_multiple_of(2) {
            "test1"
        } else {
            "test2"
        };
        format!("{fam}:{}", WARM_BASE + (i / 2) % WARM_KEYS_PER_FAMILY)
    }

    fn cold_key(&self, i: u64) -> String {
        let fam = if i.is_multiple_of(2) {
            "test1"
        } else {
            "test2"
        };
        format!("{fam}:{}", self.cold_base + i)
    }
}

fn body(workload: &str, threads: Vec<u32>) -> String {
    PredictRequest {
        workload: Some(workload.to_string()),
        threads: Some(threads),
        predictors: Some(vec!["ff+mm".to_string()]),
        ..PredictRequest::default()
    }
    .to_json()
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub class: Class,
    pub body: usize,
    pub due: Duration,
}

/// Bodies plus the open-loop schedule of one window.
pub struct Plan {
    pub bodies: Vec<String>,
    pub requests: Vec<Planned>,
}

impl Plan {
    /// `secs` of arrivals at [`RATE_RPS`], with seed-drawn classes,
    /// warm thread lists, cold keys and arrival jitter. `cold_from`
    /// offsets cold keys so successive windows of one run never repeat.
    pub fn new(keys: &Keys, rng: &mut Rng, secs: f64, cold_from: u64) -> Plan {
        let n = (RATE_RPS * secs).round().max(1.0) as usize;
        let hot: Vec<String> = (0..4)
            .map(|i| body(&keys.warm_key(i), vec![2, 4, 8]))
            .collect();
        let mut bodies = hot;
        // A seed-shuffled cycle over every warm key.
        let total = 2 * WARM_KEYS_PER_FAMILY;
        let mut order: Vec<u64> = (0..total).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let (mut warm_i, mut cold_i) = (0usize, cold_from);
        let mut requests = Vec::with_capacity(n);
        for i in 0..n {
            let due = Duration::from_secs_f64((i as f64 + 0.5 * rng.unit()) / RATE_RPS);
            let roll = rng.below(100);
            let (class, b) = if roll < HOT_PCT {
                (Class::Hot, rng.below(4) as usize)
            } else if roll < HOT_PCT + WARM_PCT {
                let key = keys.warm_key(order[warm_i % order.len()]);
                warm_i += 1;
                let mut threads: Vec<u32> = Vec::new();
                while threads.len() < 3 {
                    let t = 2 + rng.below(11) as u32;
                    if !threads.contains(&t) {
                        threads.push(t);
                    }
                }
                threads.sort_unstable();
                bodies.push(body(&key, threads));
                (Class::Warm, bodies.len() - 1)
            } else {
                bodies.push(body(&keys.cold_key(cold_i), vec![2, 4, 8]));
                cold_i += 1;
                (Class::Cold, bodies.len() - 1)
            };
            requests.push(Planned {
                class,
                body: b,
                due,
            });
        }
        Plan { bodies, requests }
    }

    pub fn cold_count(&self) -> u64 {
        self.requests
            .iter()
            .filter(|r| r.class == Class::Cold)
            .count() as u64
    }
}

/// A daemon child process. It runs the benchmark binary's `__daemon`
/// mode, which starts `serve::Server` with the CLI's defaults and stops
/// when told to on stdin (or when stdin closes).
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    pub fn spawn(store_dir: &Path, workers: usize) -> std::io::Result<Daemon> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("__daemon")
            .arg(store_dir)
            .arg(workers.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("ADDR ").map(str::to_string) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other(format!(
                "daemon did not start: {line:?}"
            )));
        };
        Ok(Daemon {
            child,
            stdin,
            stdout,
            addr,
        })
    }

    /// On-CPU seconds the daemon has used so far, all threads.
    pub fn cpu_secs(&mut self) -> std::io::Result<f64> {
        if let Some(stdin) = self.stdin.as_mut() {
            stdin.write_all(b"cpu\n")?;
        }
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        line.trim()
            .strip_prefix("CPU_S ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("daemon cpu reply {line:?}")))
    }

    /// Drain and stop the daemon; returns its peak resident set in KiB
    /// and the on-CPU seconds it used in all.
    pub fn stop(mut self) -> std::io::Result<(u64, f64)> {
        if let Some(mut stdin) = self.stdin.take() {
            stdin.write_all(b"stop\n")?;
        }
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        let status = self.child.wait()?;
        if !status.success() {
            return Err(std::io::Error::other(format!("daemon exited {status}")));
        }
        let mut fields = line.split_whitespace();
        match (fields.next(), fields.next(), fields.next(), fields.next()) {
            (Some("VMHWM_KB"), Some(kb), Some("CPU_S"), Some(cpu)) => {
                match (kb.parse(), cpu.parse()) {
                    (Ok(kb), Ok(cpu)) => Ok((kb, cpu)),
                    _ => Err(std::io::Error::other(format!("daemon stop reply {line:?}"))),
                }
            }
            _ => Err(std::io::Error::other(format!("daemon stop reply {line:?}"))),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached only on an error path: `stop` consumes the handle after
        // waiting. Never leave the child behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The `__daemon` mode: serve until stdin says stop, then report peak RSS
/// and CPU time. A `cpu` line on stdin is answered with the CPU time so far.
pub fn daemon_main(store_dir: &str, workers: usize) -> ! {
    let cfg = serve::ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        store_dir: Some(store_dir.to_string()),
        ..serve::ServeConfig::default()
    };
    let handle = match serve::Server::start(cfg, programs::resolver()) {
        Ok(h) => h,
        Err(e) => {
            println!("ERROR {e}");
            std::process::exit(1);
        }
    };
    println!("ADDR {}", handle.local_addr());
    let _ = std::io::stdout().flush();
    let mut line = String::new();
    while std::io::stdin().read_line(&mut line).unwrap_or(0) > 0 && line.trim() != "stop" {
        if line.trim() == "cpu" {
            println!("CPU_S {}", cpu::process());
            let _ = std::io::stdout().flush();
        }
        line.clear();
    }
    handle.shutdown();
    println!(
        "VMHWM_KB {} CPU_S {}",
        crate::vmhwm_kb().unwrap_or(0),
        cpu::process()
    );
    let _ = std::io::stdout().flush();
    std::process::exit(0);
}

fn post(conn: &mut ClientConn, body: &str) -> std::io::Result<(u16, String)> {
    let (status, _, resp) = conn.request("POST", "/v1/predict", Some(body), &[])?;
    Ok((status, resp))
}

/// Start a daemon on an empty store, profile every warm key through it,
/// and restart it so it serves store-warm. Also returns the on-CPU
/// seconds both daemons spent: the first one's whole life, and the
/// restarted one's up to ready.
pub fn setup_daemon(
    store_dir: &Path,
    workers: usize,
    keys: &Keys,
) -> Result<(Daemon, f64), String> {
    let first = Daemon::spawn(store_dir, workers).map_err(|e| format!("spawn daemon: {e}"))?;
    let mut conn = ClientConn::connect(&first.addr).map_err(|e| format!("connect: {e}"))?;
    for b in keys.prefill_bodies() {
        match post(&mut conn, &b) {
            Ok((200, _)) => {}
            Ok((s, resp)) => return Err(format!("prefill answered {s}: {resp}")),
            Err(e) => return Err(format!("prefill: {e}")),
        }
    }
    drop(conn);
    let (_, first_cpu) = first
        .stop()
        .map_err(|e| format!("stop prefill daemon: {e}"))?;
    let mut daemon =
        Daemon::spawn(store_dir, workers).map_err(|e| format!("restart daemon: {e}"))?;
    let cpu = daemon
        .cpu_secs()
        .map_err(|e| format!("restarted daemon cpu: {e}"))?;
    Ok((daemon, first_cpu + cpu))
}

/// Median latency of a mix with the given percent share per class (hot,
/// warm, cold), from per-class samples: each sample weighs its class's
/// share over the class's sample count.
pub fn mix_median(samples: &[(Class, f64)], shares: [f64; 3]) -> f64 {
    let idx = |c: Class| match c {
        Class::Hot => 0,
        Class::Warm => 1,
        Class::Cold => 2,
    };
    let mut n = [0usize; 3];
    for (c, _) in samples {
        n[idx(*c)] += 1;
    }
    let mut weighted: Vec<(f64, f64)> = samples
        .iter()
        .filter(|(c, _)| n[idx(*c)] > 0)
        .map(|&(c, l)| (l, shares[idx(c)] / n[idx(c)] as f64))
        .collect();
    weighted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let half = weighted.iter().map(|w| w.1).sum::<f64>() / 2.0;
    let mut acc = 0.0;
    for (l, w) in &weighted {
        acc += w;
        if acc >= half {
            return *l;
        }
    }
    weighted.last().map_or(0.0, |w| w.0)
}

/// One answered (or failed) request.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub class: Class,
    pub body: usize,
    /// When it was due, from the window's start.
    pub due_ms: f64,
    /// From when the request was due to when its response was read.
    pub latency_ms: f64,
    /// How late the generator sent it.
    pub late_ms: f64,
    /// 0 when the connection failed.
    pub status: u16,
    pub fingerprint: u64,
}

/// Send the plan open-loop over `conns` keep-alive connections:
/// request `i` goes on connection `i mod conns` at its due time, or as
/// soon as that connection is free. Due times count from `start`.
pub fn run_window(addr: &str, plan: &Plan, conns: usize, start: Instant) -> Vec<Outcome> {
    let mut per_conn: Vec<Vec<Outcome>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut conn = ClientConn::connect(addr).ok();
                    for r in plan.requests.iter().skip(c).step_by(conns) {
                        let due = start + r.due;
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        if conn.as_ref().is_none_or(|k| !k.is_reusable()) {
                            conn = ClientConn::connect(addr).ok();
                        }
                        let reply = match conn.as_mut() {
                            Some(k) => post(k, &plan.bodies[r.body]).ok(),
                            None => None,
                        };
                        let done = Instant::now();
                        let (status, fingerprint) = match reply {
                            Some((s, b)) => (s, fingerprint64(b.as_bytes())),
                            None => (0, 0),
                        };
                        out.push(Outcome {
                            class: r.class,
                            body: r.body,
                            due_ms: r.due.as_secs_f64() * 1e3,
                            latency_ms: done.duration_since(due).as_secs_f64() * 1e3,
                            late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                            status,
                            fingerprint,
                        });
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            per_conn.push(h.join().expect("client thread panicked"));
        }
    });
    per_conn.into_iter().flatten().collect()
}

/// Reference responses: every distinct body evaluated in-process by the
/// daemon's own batch path, keyed by body index, as fingerprints.
pub fn reference(engine: &SweepEngine, plan: &Plan, used: &[usize]) -> HashMap<usize, u64> {
    let resolver = programs::resolver();
    let mut idx: Vec<usize> = used.to_vec();
    idx.sort_unstable();
    idx.dedup();
    let reqs: Vec<NormalizedRequest> = idx
        .iter()
        .map(|&i| {
            NormalizedRequest::parse(&plan.bodies[i], &resolver)
                .expect("generated body parses")
                .0
        })
        .collect();
    let bodies = serve::evaluate_requests(engine, &reqs);
    idx.into_iter()
        .zip(bodies)
        .map(|(i, b)| (i, fingerprint64(b.as_bytes())))
        .collect()
}

/// `GET /v1/metrics` as parsed JSON.
pub fn daemon_metrics(addr: &str) -> Result<Value, String> {
    let (status, _, body) = serve::http::client_request(addr, "GET", "/v1/metrics", None)
        .map_err(|e| format!("metrics: {e}"))?;
    if status != 200 {
        return Err(format!("metrics answered {status}"));
    }
    serde_json::from_str(&body).map_err(|e| format!("metrics JSON: {e:?}"))
}

/// A numeric field of a section (`counters`, `gauges`, `histograms`).
pub fn metric(v: &Value, section: &str, name: &str) -> Option<f64> {
    v.get(section)?.get(name)?.as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_median_weighs_classes_by_share() {
        let s = [
            (Class::Hot, 1.0),
            (Class::Hot, 1.0),
            (Class::Warm, 5.0),
            (Class::Cold, 9.0),
        ];
        // Hot carries 40%, under half, so the median falls in warm.
        assert_eq!(mix_median(&s, [40.0, 50.0, 10.0]), 5.0);
        // At 60% it is a hot sample.
        assert_eq!(mix_median(&s, [60.0, 30.0, 10.0]), 1.0);
    }
}
