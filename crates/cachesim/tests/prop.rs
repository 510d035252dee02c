//! Property tests: the set-associative simulator against a brute-force
//! reference model, the whole hierarchy against three reference levels
//! wired the way `MemSim` wires its caches, and conservation laws of the
//! counter layer.

use proptest::prelude::*;

use cachesim::{Cache, CacheConfig, Counters, HierarchyConfig, MemSim};

/// A naive fully-explicit LRU model of a single cache level.
struct RefCache {
    sets: Vec<Vec<u64>>, // per set: line tags, most-recent last
    ways: usize,
    set_mask: u64,
    line_shift: u32,
    dirty: std::collections::HashSet<u64>,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        RefCache {
            sets: vec![Vec::new(); cfg.sets() as usize],
            ways: cfg.ways as usize,
            set_mask: cfg.sets() - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            dirty: Default::default(),
        }
    }

    /// Returns (hit, writeback_line_addr).
    fn access(&mut self, addr: u64, is_write: bool) -> (bool, Option<u64>) {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let slot = self.sets[set].iter().position(|&t| t == line);
        match slot {
            Some(i) => {
                let t = self.sets[set].remove(i);
                self.sets[set].push(t);
                if is_write {
                    self.dirty.insert(line);
                }
                (true, None)
            }
            None => {
                let mut wb = None;
                if self.sets[set].len() == self.ways {
                    let victim = self.sets[set].remove(0);
                    if self.dirty.remove(&victim) {
                        wb = Some(victim << self.line_shift);
                    }
                }
                self.sets[set].push(line);
                if is_write {
                    self.dirty.insert(line);
                }
                (false, wb)
            }
        }
    }

    fn flush(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
        self.dirty.clear();
    }
}

/// Three reference levels composed exactly as `MemSim` composes its
/// caches: a dirty L1 victim is installed dirty in L2, whose own dirty
/// victim goes to the LLC; demand fills below L1 are clean; a dirty LLC
/// victim is one DRAM write-back.
struct RefHierarchy {
    cfg: HierarchyConfig,
    l1: RefCache,
    l2: RefCache,
    llc: RefCache,
    counters: Counters,
}

impl RefHierarchy {
    fn new(cfg: HierarchyConfig) -> Self {
        RefHierarchy {
            cfg,
            l1: RefCache::new(cfg.l1),
            l2: RefCache::new(cfg.l2),
            llc: RefCache::new(cfg.llc),
            counters: Counters::default(),
        }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Read(addr) => {
                self.counters.loads += 1;
                self.access(addr, false);
            }
            Op::Write(addr) => {
                self.counters.stores += 1;
                self.access(addr, true);
            }
            Op::Work(n) => self.counters.instructions += n,
            Op::Reset => {
                self.counters = Counters::default();
                self.l1.flush();
                self.l2.flush();
                self.llc.flush();
            }
        }
    }

    fn access(&mut self, addr: u64, is_write: bool) {
        self.counters.instructions += 1;
        let (hit, wb) = self.l1.access(addr, is_write);
        if hit {
            return;
        }
        self.counters.l1_misses += 1;
        if let Some(wb) = wb {
            if let (_, Some(wb2)) = self.l2.access(wb, true) {
                self.llc_writeback(wb2);
            }
        }
        let (hit, wb) = self.l2.access(addr, false);
        if hit {
            return;
        }
        self.counters.l2_misses += 1;
        if let Some(wb) = wb {
            self.llc_writeback(wb);
        }
        let (hit, wb) = self.llc.access(addr, false);
        if hit {
            return;
        }
        self.counters.llc_misses += 1;
        self.counters.dram_bytes += self.cfg.llc.line_bytes;
        if wb.is_some() {
            self.counters.llc_writebacks += 1;
            self.counters.dram_bytes += self.cfg.llc.line_bytes;
        }
    }

    fn llc_writeback(&mut self, addr: u64) {
        if let (_, Some(_)) = self.llc.access(addr, true) {
            self.counters.llc_writebacks += 1;
            self.counters.dram_bytes += self.cfg.llc.line_bytes;
        }
    }

    fn snapshot(&self) -> Counters {
        let mut c = self.counters;
        let cost = &self.cfg.cost;
        c.cycles = (c.instructions as f64 * cost.cpi_base
            + c.l1_misses as f64 * cost.l2_latency
            + c.l2_misses as f64 * cost.llc_latency
            + c.llc_misses as f64 * cost.dram_stall)
            .round() as u64;
        c
    }
}

/// An 8/8/12-way hierarchy shaped like `westmere_scaled` (same
/// associativities and line size) but 16× smaller, so short streams
/// reach every level's eviction path.
fn westmere_shaped() -> HierarchyConfig {
    let mut cfg = HierarchyConfig::westmere_scaled();
    cfg.l1.capacity_bytes = 2 << 10;
    cfg.l2.capacity_bytes = 16 << 10;
    cfg.llc.capacity_bytes = 96 << 10;
    cfg
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Read(u64),
    Write(u64),
    Work(u64),
    Reset,
}

/// One stream segment as drawn: `(kind, addr, len, bits)`. `expand`
/// turns it into operations.
type Segment = (u64, u64, u64, u64);

fn segments() -> impl Strategy<Value = Vec<Segment>> {
    proptest::collection::vec((0u64..32, 0u64..1 << 20, 0u64..64, 0u64..u64::MAX), 1..40)
}

/// Expand drawn segments into a stream aimed at the simulator's fast
/// paths: runs on one line, alternation between lines that alias into
/// one set of some level (the 4 KiB row-stride pattern of lu and
/// jacobi), writes right after reads, scattered accesses, pure work and
/// the occasional reset. `strides` are the set strides in bytes of the
/// levels (`sets × line`); `span` bounds the addresses so lines recur.
fn expand(segs: &[Segment], strides: &[u64], span: u64, resets: bool) -> Vec<Op> {
    let mut ops = Vec::new();
    for &(kind, addr, len, bits) in segs {
        let addr = addr % span;
        let rw = |a: u64, i: u64| {
            if (bits >> (i % 64)) & 1 == 1 {
                Op::Write(a)
            } else {
                Op::Read(a)
            }
        };
        match kind {
            // A run of accesses to one line, at varying offsets.
            0..=7 => {
                let base = addr & !63;
                for i in 0..=len % 24 {
                    ops.push(rw(base + (i * 8) % 64, i));
                }
            }
            // Round-robin over 2..=13 lines that share a set, so the
            // alternation both hits and overflows 8- and 12-way sets.
            8..=17 => {
                let stride = strides[(bits % strides.len() as u64) as usize];
                let lines = 2 + len % 12;
                let rounds = 1 + (bits >> 8) % 5;
                for r in 0..rounds {
                    for j in 0..lines {
                        ops.push(rw((addr + j * stride) % span, r * lines + j));
                    }
                }
            }
            // Reads followed by writes to the same line.
            18..=23 => {
                for i in 0..=len % 4 {
                    ops.push(Op::Read(addr + i * 8));
                    ops.push(Op::Write(addr + i * 8));
                }
            }
            // Scattered accesses.
            24..=29 => {
                let mut x = bits | 1;
                for i in 0..=len % 16 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    ops.push(rw(x % span, i));
                }
            }
            30 => ops.push(Op::Work(len)),
            _ if resets => ops.push(Op::Reset),
            _ => ops.push(Op::Work(1)),
        }
    }
    ops
}

fn strides(cfg: &HierarchyConfig) -> Vec<u64> {
    [cfg.l1, cfg.l2, cfg.llc]
        .iter()
        .map(|c| c.sets() * c.line_bytes)
        .collect()
}

/// Run `ops` through `MemSim` and the reference hierarchy side by side,
/// comparing the full counter set after every operation.
fn hierarchy_matches_reference(cfg: HierarchyConfig, segs: &[Segment]) -> Result<(), String> {
    let span = 4 * cfg.llc.capacity_bytes;
    let ops = expand(segs, &strides(&cfg), span, true);
    let mut sim = MemSim::new(cfg);
    let mut reference = RefHierarchy::new(cfg);
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Read(a) => sim.read(a),
            Op::Write(a) => sim.write(a),
            Op::Work(n) => sim.work(n),
            Op::Reset => sim.reset(),
        }
        reference.apply(op);
        let (got, want) = (sim.snapshot(), reference.snapshot());
        if got != want {
            return Err(format!(
                "op {i} ({op:?}): MemSim {got:?} != reference {want:?}"
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The production cache agrees with the reference model on every
    /// access outcome (hit/miss and writeback), for arbitrary streams
    /// and for fast-path-shaped ones, at 2, 8 and 12 ways.
    #[test]
    fn cache_matches_reference_model(
        ways in prop_oneof![Just(2u32), Just(8u32), Just(12u32)],
        accesses in proptest::collection::vec((0u64..1 << 20, proptest::bool::ANY), 1..400),
        segs in segments(),
    ) {
        let cfg = CacheConfig { capacity_bytes: ways as u64 * 4 * 64, ways, line_bytes: 64 };
        let span = 4 * cfg.capacity_bytes;
        let mut real = Cache::new(cfg);
        let mut reference = RefCache::new(cfg);
        let stream = accesses
            .iter()
            .map(|&(addr, w)| (addr % span, w))
            .chain(expand(&segs, &[cfg.sets() * 64], span, false).into_iter().filter_map(|op| match op {
                Op::Read(a) => Some((a, false)),
                Op::Write(a) => Some((a, true)),
                _ => None,
            }));
        for (i, (addr, is_write)) in stream.enumerate() {
            let r = real.access(addr, is_write);
            let (hit, wb) = reference.access(addr, is_write);
            prop_assert_eq!(r.hit, hit, "{} ways, access {}: addr {:#x} write {}", ways, i, addr, is_write);
            prop_assert_eq!(r.writeback, wb, "{} ways, access {}: writeback mismatch", ways, i);
        }
    }

    /// The whole hierarchy matches three reference levels composed like
    /// `MemSim::access`, counter for counter, on the tiny geometry.
    #[test]
    fn tiny_hierarchy_matches_reference(segs in segments()) {
        if let Err(e) = hierarchy_matches_reference(HierarchyConfig::tiny(), &segs) {
            prop_assert!(false, "{}", e);
        }
    }

    /// The same on an 8/8/12-way geometry shaped like the profiling one.
    #[test]
    fn westmere_shaped_hierarchy_matches_reference(segs in segments()) {
        if let Err(e) = hierarchy_matches_reference(westmere_shaped(), &segs) {
            prop_assert!(false, "{}", e);
        }
    }

    /// Counter conservation: loads + stores == memory instructions; the
    /// miss hierarchy is monotone (LLC ≤ L2 ≤ L1 misses); DRAM bytes are
    /// line-quantised.
    #[test]
    fn hierarchy_counter_conservation(
        accesses in proptest::collection::vec((0u64..100_000, proptest::bool::ANY), 1..500),
        work in 0u64..10_000,
    ) {
        let mut m = MemSim::new(HierarchyConfig::tiny());
        m.work(work);
        for &(addr, is_write) in &accesses {
            if is_write {
                m.write(addr);
            } else {
                m.read(addr);
            }
        }
        let c = m.snapshot();
        prop_assert_eq!(c.loads + c.stores, accesses.len() as u64);
        prop_assert_eq!(c.instructions, work + accesses.len() as u64);
        prop_assert!(c.llc_misses <= c.l2_misses);
        prop_assert!(c.l2_misses <= c.l1_misses);
        prop_assert!(c.l1_misses <= accesses.len() as u64);
        prop_assert_eq!(c.dram_bytes % 64, 0);
        prop_assert_eq!(c.dram_bytes, (c.llc_misses + c.llc_writebacks) * 64);
    }

    /// Re-running the identical stream after reset yields identical
    /// counters (determinism), and a second pass over a cache-resident
    /// stream has no LLC misses.
    #[test]
    fn determinism_and_warm_cache(
        lines in proptest::collection::vec(0u64..64, 1..64),
    ) {
        let run = || {
            let mut m = MemSim::new(HierarchyConfig::tiny());
            for &l in &lines {
                m.read(l * 64);
            }
            m.snapshot()
        };
        prop_assert_eq!(run(), run());

        // ≤ 64 distinct lines fit the 8 KiB tiny LLC (128 lines): a warm
        // second pass misses nothing at the LLC.
        let mut m = MemSim::new(HierarchyConfig::tiny());
        for &l in &lines {
            m.read(l * 64);
        }
        let cold = m.snapshot();
        for &l in &lines {
            m.read(l * 64);
        }
        let warm = m.snapshot();
        prop_assert_eq!(warm.llc_misses, cold.llc_misses, "warm pass must not miss LLC");
    }
}
