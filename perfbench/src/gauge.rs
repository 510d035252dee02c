//! Host speed gauge. On a shared host the cores a VM runs on change speed
//! by up to 2× over seconds to minutes, as other tenants load the caches
//! and cores they share with it, and on-CPU time does not take that out.
//! The gauge times a fixed piece of the benchmark's own code doing the
//! kinds of work the program does — allocation, building and walking
//! trees, ordered and hashed maps, formatting, sorting — but none of the
//! program's code, and reads that time as a multiple of [`NOMINAL_S`]. The
//! compute legs divide each on-CPU time by the mean of the readings taken
//! just before and just after it, which gives gauge-scaled seconds: the
//! time the work would take at the speed where a reading takes
//! `NOMINAL_S`.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;

use crate::cpu;

/// Median on-CPU seconds of one reading on the 2-vCPU Intel Xeon VM the
/// benchmark was developed on (rustc 1.95, release build), where single
/// readings ranged from 0.75 to 1.3 times this.
const NOMINAL_S: f64 = 0.044;

/// The host's slowness now: the gauge work's on-CPU time over
/// [`NOMINAL_S`]; 2 when the host runs at half that speed.
fn read() -> f64 {
    let t0 = cpu::thread();
    std::hint::black_box((trees(100), maps(50_000), churn(100_000)));
    (cpu::thread() - t0) / NOMINAL_S
}

/// Readings taken between consecutive timed pieces of work.
pub struct Series {
    pub readings: Vec<f64>,
}

impl Series {
    /// Takes the reading before the first piece.
    pub fn start() -> Series {
        Series {
            readings: vec![read()],
        }
    }

    /// Takes the reading after a piece that just ended and returns the
    /// slowness it ran at: the mean of the readings on either side.
    pub fn mark(&mut self) -> f64 {
        let before = *self.readings.last().expect("started with a reading");
        let after = read();
        self.readings.push(after);
        (before + after) / 2.0
    }

    /// `secs` of on-CPU time of the piece that just ended, in gauge-scaled
    /// seconds.
    pub fn scale(&mut self, secs: f64) -> f64 {
        secs / self.mark()
    }
}

/// A xorshift generator of the gauge's own, so no code of the program
/// runs inside a reading.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(0x9e37_79b9_7f4a_7c15 ^ seed.wrapping_mul(0x2545_f491_4f6c_dd1d))
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

enum Node {
    Leaf(f64, u32),
    Seq(Vec<Node>),
    Par(Vec<Node>, u32),
}

fn build(rng: &mut Rng, depth: u32) -> Node {
    if depth == 0 || rng.below(5) == 0 {
        return Node::Leaf(rng.unit() * 100.0, rng.below(8) as u32 + 1);
    }
    let kids = (0..1 + rng.below(5)).map(|_| build(rng, depth - 1)).collect();
    if rng.below(2) == 0 {
        Node::Seq(kids)
    } else {
        Node::Par(kids, 1 + rng.below(12) as u32)
    }
}

/// Greedy list scheduling of a fork-join tree on `cpus` lanes.
fn walk(node: &Node, cpus: u32) -> f64 {
    match node {
        Node::Leaf(w, reps) => w * f64::from(*reps),
        Node::Seq(kids) => kids.iter().map(|k| walk(k, cpus)).sum(),
        Node::Par(kids, width) => {
            let mut lanes = vec![0.0f64; cpus.min(*width) as usize];
            for k in kids {
                let w = walk(k, cpus);
                let lane = lanes
                    .iter_mut()
                    .min_by(|a, b| a.total_cmp(b))
                    .expect("at least one lane");
                *lane += w;
            }
            lanes.into_iter().fold(0.0, f64::max)
        }
    }
}

fn trees(n: u64) -> f64 {
    let mut rng = Rng::new(15);
    let mut acc = 0.0;
    for _ in 0..n {
        let tree = build(&mut rng, 7);
        for cpus in [2, 4, 8, 12] {
            acc += walk(&tree, cpus);
        }
    }
    acc
}

fn maps(n: u64) -> u64 {
    let mut rng = Rng::new(11);
    let mut ordered: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    // A fixed hasher, so every reading does the same work.
    let mut hashed: HashMap<String, f64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut acc = 0u64;
    for i in 0..n {
        ordered.entry(rng.below(4096)).or_default().push(i as u32);
        if let Some(v) = ordered.get_mut(&rng.below(4096)) {
            if v.len() > 8 {
                v.sort_unstable_by(|a, b| b.cmp(a));
                v.truncate(4);
            }
            acc += v.len() as u64;
        }
        if i % 4 == 0 {
            let key = format!("k{}-{:.3}", rng.below(2048), rng.unit());
            *hashed.entry(key).or_insert(0.0) += 1.5;
        }
        if i % 1024 == 0 && hashed.len() > 1500 {
            hashed.retain(|k, v| *v > 1.6 || k.len() % 3 == 0);
        }
    }
    acc + hashed.len() as u64
}

fn churn(n: u64) -> u64 {
    let mut rng = Rng::new(5);
    let mut live: Vec<Vec<u64>> = Vec::new();
    let mut acc = 0u64;
    for i in 0..n {
        let v = vec![i; 1 + rng.below(200) as usize];
        acc = acc.wrapping_add(v[v.len() / 2]);
        live.push(v);
        if live.len() > 64 {
            live.swap_remove(rng.below(64) as usize);
        }
    }
    acc
}
