//! A single set-associative, write-back/write-allocate, true-LRU cache.
//!
//! All ways live in one flat array indexed `set * ways + way`. A way is
//! 16 bytes: its tag, and a word holding its LRU stamp shifted left by
//! one with the dirty bit in bit 0. An empty way has the `EMPTY` tag and
//! a zero word. Two exact short-circuits skip the set search and the
//! clock tick when an access hits the line this level or its set used
//! last, and a hint to the set's second most recent way skips the search
//! for two-line alternation (DESIGN.md §3.4 gives the exactness argument).

use serde::{Deserialize, Serialize};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Number of sets (capacity / (ways × line)).
    pub fn sets(&self) -> u64 {
        (self.capacity_bytes / (self.ways as u64 * self.line_bytes)).max(1)
    }
}

/// Tag of an empty way. `Cache::new` requires lines of at least two
/// bytes, so a real tag is at most `u64::MAX >> 1` and never equals it;
/// the same holds for line addresses, which makes `EMPTY` a safe "no
/// line" marker for the last-access short-circuit too.
const EMPTY: u64 = u64::MAX;

/// Most ways a set may have: the per-set MRU way index is a `u8`.
const MAX_WAYS: u32 = 256;

#[derive(Debug, Clone, Copy)]
struct Way {
    /// `EMPTY` when the way holds no line.
    tag: u64,
    /// `stamp << 1 | dirty`; zero when the way holds no line.
    meta: u64,
}

const EMPTY_WAY: Way = Way {
    tag: EMPTY,
    meta: 0,
};

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// The line was present.
    pub hit: bool,
    /// A dirty line was evicted (write-back traffic to the next level).
    pub writeback: Option<u64>,
}

const HIT: AccessResult = AccessResult {
    hit: true,
    writeback: None,
};

/// One cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Every way of every set, `set * ways + way`.
    slots: Vec<Way>,
    /// Per set: the ways holding its most and second most recently
    /// used lines.
    mru: Vec<[u8; 2]>,
    ways: usize,
    set_mask: u64,
    set_bits: u32,
    line_shift: u32,
    clock: u64,
    /// Line address of the last access, or `EMPTY`.
    last_line: u64,
    /// Flat index of the way holding `last_line`.
    last_slot: usize,
}

impl Cache {
    /// Build an empty cache. Needs at least one and at most 256 ways, a
    /// power-of-two line size of at least two bytes, and a power-of-two
    /// number of sets.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.ways >= 1, "a cache needs at least one way (ways = 0)");
        assert!(
            cfg.ways <= MAX_WAYS,
            "{} ways exceed the limit of {MAX_WAYS} (the per-set MRU index is a u8)",
            cfg.ways
        );
        assert!(
            cfg.line_bytes.is_power_of_two() && cfg.line_bytes >= 2,
            "line size {} must be a power of two of at least 2 bytes",
            cfg.line_bytes
        );
        let sets = cfg.sets();
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        let slots = (sets * cfg.ways as u64) as usize;
        Cache {
            slots: vec![EMPTY_WAY; slots],
            mru: vec![[0; 2]; sets as usize],
            ways: cfg.ways as usize,
            set_mask: sets - 1,
            set_bits: sets.trailing_zeros(),
            line_shift: cfg.line_bytes.trailing_zeros(),
            clock: 0,
            last_line: EMPTY,
            last_slot: 0,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Access the line containing `addr`. `is_write` marks the line dirty
    /// on hit or fill. Returns hit/miss and any dirty eviction (by line
    /// address) that the next level must absorb.
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessResult {
        let line = addr >> self.line_shift;
        if line == self.last_line {
            // The last line is its set's MRU: re-stamping it cannot
            // change the set's LRU order.
            self.slots[self.last_slot].meta |= is_write as u64;
            return HIT;
        }
        self.access_line(line, is_write)
    }

    /// Everything past the last-line check; kept out of line so the
    /// inlined `access` stays small at every call site.
    #[inline(never)]
    fn access_line(&mut self, line: u64, is_write: bool) -> AccessResult {
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_bits;
        let base = set * self.ways;
        self.last_line = line;

        let [mru, second] = self.mru[set];
        let set_ways = &mut self.slots[base..base + self.ways];
        if set_ways[mru as usize].tag == tag {
            set_ways[mru as usize].meta |= is_write as u64;
            self.last_slot = base + mru as usize;
            return HIT;
        }

        self.clock += 1;
        let stamp = self.clock << 1 | is_write as u64;
        let hit = if set_ways[second as usize].tag == tag {
            Some(second as usize)
        } else {
            set_ways.iter().position(|w| w.tag == tag)
        };
        if let Some(way) = hit {
            set_ways[way].meta = stamp | (set_ways[way].meta & 1);
            self.mru[set] = [way as u8, mru];
            self.last_slot = base + way;
            return HIT;
        }

        // Miss: fill over the first way with the smallest word. Empty
        // ways are zero, so the lowest-index empty way goes first;
        // otherwise the stamps (distinct within a set) pick the LRU way.
        let (way, victim) = set_ways
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.meta)
            .expect("a set has at least one way");
        let writeback = (victim.meta & 1 == 1)
            .then(|| ((victim.tag << self.set_bits) | set as u64) << self.line_shift);
        set_ways[way] = Way { tag, meta: stamp };
        self.mru[set] = [way as u8, mru];
        self.last_slot = base + way;
        AccessResult {
            hit: false,
            writeback,
        }
    }

    /// Install a line without an explicit demand access (used to absorb a
    /// write-back from an upper level). Returns any dirty eviction.
    pub fn install_dirty(&mut self, addr: u64) -> Option<u64> {
        self.access(addr, true).writeback
    }

    /// Drop all contents (between profiling phases).
    pub fn flush(&mut self) {
        self.slots.fill(EMPTY_WAY);
        self.mru.fill([0; 2]);
        self.clock = 0;
        self.last_line = EMPTY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(CacheConfig {
            capacity_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    fn geometry(capacity_bytes: u64, ways: u32, line_bytes: u64) -> Cache {
        Cache::new(CacheConfig {
            capacity_bytes,
            ways,
            line_bytes,
        })
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = tiny();
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        assert!(c.access(0x1010, false).hit, "same line, different offset");
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Three lines mapping to the same set (set stride = 4 lines = 256B).
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // refresh a; b is now LRU
        c.access(d, false); // evicts b
        assert!(c.access(a, false).hit);
        assert!(!c.access(b, false).hit, "b should have been evicted");
    }

    #[test]
    fn mru_hits_keep_the_lru_order() {
        let mut c = tiny();
        c.access(0x0000, false);
        c.access(0x0100, false);
        c.access(0x0040, false); // another set: 0x0100 stays its set's MRU
        c.access(0x0100, true); // set-MRU hit, no re-stamp
        c.access(0x0200, false); // evicts 0x0000, the set's LRU
        assert!(c.access(0x0100, false).hit);
        assert!(!c.access(0x0000, false).hit);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0x0000, true); // dirty
        c.access(0x0100, false);
        let r = c.access(0x0200, false); // evicts dirty 0x0000
        assert_eq!(r.writeback, Some(0x0000));
    }

    #[test]
    fn write_on_a_short_circuit_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0x0000, false);
        c.access(0x0008, true); // last-line hit
        c.access(0x0100, false);
        let r = c.access(0x0200, false);
        assert_eq!(r.writeback, Some(0x0000));
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = tiny();
        c.access(0x0000, false);
        c.access(0x0100, false);
        let r = c.access(0x0200, false);
        assert_eq!(r.writeback, None);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        c.access(0x40, true);
        c.flush();
        assert!(!c.access(0x40, false).hit);
    }

    #[test]
    fn capacity_streaming_misses() {
        // Stream 4 KiB through a 512 B cache: every new line misses.
        let mut c = tiny();
        let mut misses = 0;
        for addr in (0..4096u64).step_by(64) {
            if !c.access(addr, false).hit {
                misses += 1;
            }
        }
        assert_eq!(misses, 64);
    }

    #[test]
    fn sets_must_be_power_of_two() {
        let cfg = CacheConfig {
            capacity_bytes: 512,
            ways: 2,
            line_bytes: 64,
        };
        assert_eq!(cfg.sets(), 4);
        assert!(cfg.sets().is_power_of_two());
        let mut c = Cache::new(cfg);
        assert!(!c.access(0x0000, false).hit);
    }

    #[test]
    #[should_panic(expected = "set count 3 must be a power of two")]
    fn non_power_of_two_sets_rejected() {
        geometry(3 * 2 * 64, 2, 64);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        geometry(512, 0, 64);
    }

    #[test]
    #[should_panic(expected = "257 ways exceed the limit of 256")]
    fn too_many_ways_rejected() {
        geometry(257 * 64, 257, 64);
    }

    #[test]
    #[should_panic(expected = "line size 0 must be a power of two")]
    fn zero_line_rejected() {
        geometry(512, 2, 0);
    }

    #[test]
    #[should_panic(expected = "line size 48 must be a power of two")]
    fn non_power_of_two_line_rejected() {
        geometry(512, 2, 48);
    }

    #[test]
    #[should_panic(expected = "line size 1 must be a power of two of at least 2 bytes")]
    fn one_byte_line_rejected() {
        geometry(512, 2, 1);
    }

    #[test]
    fn widest_geometry_accepted() {
        let mut c = geometry(256 * 64, 256, 64);
        for addr in (0..256 * 64u64).step_by(64) {
            assert!(!c.access(addr, false).hit);
        }
        assert!(c.access(0, false).hit, "256 lines fit one 256-way set");
    }
}
