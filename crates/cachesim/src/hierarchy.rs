//! The three-level hierarchy and its virtual-cycle cost model.

use serde::{Deserialize, Serialize};

use crate::cache::{Cache, CacheConfig};
use crate::counters::Counters;

/// Latency/cost parameters converting counters to virtual cycles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Base cycles per instruction when everything hits L1 (`CPI_$`-ish).
    pub cpi_base: f64,
    /// Extra cycles for an L1 miss served by L2.
    pub l2_latency: f64,
    /// Extra cycles for an L2 miss served by LLC.
    pub llc_latency: f64,
    /// Extra cycles for an LLC miss served by DRAM; must equal the machine
    /// simulator's uncontended stall ω₀ so serial profiles and parallel
    /// runs agree.
    pub dram_stall: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cpi_base: 0.75,
            l2_latency: 8.0,
            llc_latency: 26.0,
            dram_stall: 60.0,
        }
    }
}

/// Geometry of the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Last-level cache.
    pub llc: CacheConfig,
    /// Cost parameters.
    pub cost: CostModel,
}

impl HierarchyConfig {
    /// The scaled Westmere hierarchy: 32 KiB L1, 256 KiB L2, 1.5 MiB LLC
    /// (the real machine's 12 MiB scaled 8× down along with the benchmark
    /// footprints — DESIGN.md §6).
    pub fn westmere_scaled() -> Self {
        HierarchyConfig {
            l1: CacheConfig {
                capacity_bytes: 32 << 10,
                ways: 8,
                line_bytes: 64,
            },
            l2: CacheConfig {
                capacity_bytes: 256 << 10,
                ways: 8,
                line_bytes: 64,
            },
            llc: CacheConfig {
                capacity_bytes: 1536 << 10,
                ways: 12,
                line_bytes: 64,
            },
            cost: CostModel::default(),
        }
    }

    /// A tiny hierarchy for unit tests.
    pub fn tiny() -> Self {
        HierarchyConfig {
            l1: CacheConfig {
                capacity_bytes: 512,
                ways: 2,
                line_bytes: 64,
            },
            l2: CacheConfig {
                capacity_bytes: 2048,
                ways: 4,
                line_bytes: 64,
            },
            llc: CacheConfig {
                capacity_bytes: 8192,
                ways: 4,
                line_bytes: 64,
            },
            cost: CostModel::default(),
        }
    }
}

/// The memory simulator the benchmark kernels run against: a virtual data
/// path (addresses in, counters out) plus a pure-compute accumulator.
#[derive(Debug, Clone)]
pub struct MemSim {
    cfg: HierarchyConfig,
    l1: Cache,
    l2: Cache,
    llc: Cache,
    counters: Counters,
}

impl MemSim {
    /// Fresh, empty hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Self {
        MemSim {
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            llc: Cache::new(cfg.llc),
            counters: Counters::default(),
            cfg,
        }
    }

    /// The hierarchy configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Account `n` pure-compute instructions (no memory reference).
    #[inline]
    pub fn work(&mut self, n: u64) {
        self.counters.instructions += n;
    }

    /// Simulate a load of the byte at `addr`.
    #[inline]
    pub fn read(&mut self, addr: u64) {
        self.counters.loads += 1;
        self.access(addr, false);
    }

    /// Simulate a store to the byte at `addr`.
    #[inline]
    pub fn write(&mut self, addr: u64) {
        self.counters.stores += 1;
        self.access(addr, true);
    }

    /// Inlined into every `read`/`write` call site, down to L1's
    /// last-line check; the rest of the lookup and the L1 miss path stay
    /// out of line.
    #[inline]
    fn access(&mut self, addr: u64, is_write: bool) {
        self.counters.instructions += 1;
        let r1 = self.l1.access(addr, is_write);
        if !r1.hit {
            self.l1_miss(addr, r1.writeback);
        }
    }

    #[inline(never)]
    fn l1_miss(&mut self, addr: u64, l1_writeback: Option<u64>) {
        self.counters.l1_misses += 1;
        // L1 write-back goes to L2.
        if let Some(wb) = l1_writeback {
            if let Some(wb2) = self.l2.install_dirty(wb) {
                self.absorb_llc_writeback(wb2);
            }
        }
        let r2 = self.l2.access(addr, false);
        if r2.hit {
            return;
        }
        self.counters.l2_misses += 1;
        if let Some(wb) = r2.writeback {
            self.absorb_llc_writeback(wb);
        }
        let r3 = self.llc.access(addr, false);
        if r3.hit {
            return;
        }
        self.counters.llc_misses += 1;
        self.counters.dram_bytes += self.cfg.llc.line_bytes;
        if let Some(_evicted) = r3.writeback {
            self.counters.llc_writebacks += 1;
            self.counters.dram_bytes += self.cfg.llc.line_bytes;
        }
    }

    fn absorb_llc_writeback(&mut self, addr: u64) {
        if let Some(_evicted) = self.llc.install_dirty(addr) {
            self.counters.llc_writebacks += 1;
            self.counters.dram_bytes += self.cfg.llc.line_bytes;
        }
    }

    /// Current counters with `cycles` filled in from the cost model.
    pub fn snapshot(&self) -> Counters {
        let mut c = self.counters;
        let cost = &self.cfg.cost;
        c.cycles = (c.instructions as f64 * cost.cpi_base
            + c.l1_misses as f64 * cost.l2_latency
            + c.l2_misses as f64 * cost.llc_latency
            + c.llc_misses as f64 * cost.dram_stall)
            .round() as u64;
        c
    }

    /// Virtual cycles elapsed so far.
    pub fn cycles(&self) -> u64 {
        self.snapshot().cycles
    }

    /// Reset counters and contents (a fresh profiling run).
    pub fn reset(&mut self) {
        self.counters = Counters::default();
        self.l1.flush();
        self.l2.flush();
        self.llc.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_resident_data_stops_missing() {
        let mut m = MemSim::new(HierarchyConfig::tiny());
        // 4 KiB working set fits in the 8 KiB LLC.
        for _ in 0..4 {
            for addr in (0..4096u64).step_by(64) {
                m.read(addr);
            }
        }
        let c = m.snapshot();
        // Only the first pass misses LLC (cold misses).
        assert_eq!(c.llc_misses, 64);
        assert_eq!(c.loads, 256);
    }

    #[test]
    fn streaming_misses_every_line() {
        let mut m = MemSim::new(HierarchyConfig::tiny());
        // 1 MiB stream >> 8 KiB LLC.
        for addr in (0..(1u64 << 20)).step_by(64) {
            m.read(addr);
        }
        let c = m.snapshot();
        assert_eq!(c.llc_misses, 1 << 14);
        assert_eq!(c.dram_bytes, (1 << 14) * 64);
    }

    #[test]
    fn dirty_lines_produce_writeback_traffic() {
        let mut m = MemSim::new(HierarchyConfig::tiny());
        // Write a 64 KiB stream: every evicted LLC line is dirty.
        for addr in (0..(64u64 << 10)).step_by(64) {
            m.write(addr);
        }
        let c = m.snapshot();
        assert!(c.llc_writebacks > 0);
        assert!(c.dram_bytes > c.llc_misses * 64);
    }

    #[test]
    fn work_only_advances_instructions_and_cycles() {
        let mut m = MemSim::new(HierarchyConfig::tiny());
        m.work(1000);
        let c = m.snapshot();
        assert_eq!(c.instructions, 1000);
        assert_eq!(c.cycles, 750); // 1000 × 0.75
        assert_eq!(c.llc_misses, 0);
    }

    #[test]
    fn cycles_include_miss_penalties() {
        let mut m = MemSim::new(HierarchyConfig::tiny());
        m.read(0); // cold miss through all levels
        let c = m.snapshot();
        let expected = (1.0f64 * 0.75 + 8.0 + 26.0 + 60.0).round() as u64;
        assert_eq!(c.cycles, expected);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = MemSim::new(HierarchyConfig::tiny());
        m.read(0);
        m.reset();
        let c = m.snapshot();
        assert_eq!(c, Counters::default());
        // And the line is cold again.
        m.read(0);
        assert_eq!(m.snapshot().llc_misses, 1);
    }

    #[test]
    fn mpi_in_expected_regimes() {
        // Resident: MPI ~ 0. Streaming: MPI ~ 1 per (line/stride) loads.
        let mut resident = MemSim::new(HierarchyConfig::tiny());
        for _ in 0..100 {
            for addr in (0..2048u64).step_by(8) {
                resident.read(addr);
            }
        }
        assert!(resident.snapshot().mpi() < 0.005);

        let mut streaming = MemSim::new(HierarchyConfig::tiny());
        for addr in (0..(1u64 << 20)).step_by(8) {
            streaming.read(addr);
        }
        let mpi = streaming.snapshot().mpi();
        assert!((mpi - 1.0 / 8.0).abs() < 0.01, "mpi {mpi}");
    }
}
