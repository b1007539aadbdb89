//! Set-associative LRU cache simulator.
//!
//! Used by the execution model to count misses on the irregular `x` access
//! stream of SpMV — the quantity behind the paper's ML class. The simulator
//! also classifies each miss as *sequential* (next line after the previously
//! missed line, catchable by hardware stream prefetchers) or *irregular*
//! (everything else), because only irregular misses stall in-order cores.

/// A single set-associative LRU cache level.
#[derive(Clone, Debug)]
pub struct CacheSim {
    /// Per-set tag stacks, most recently used last.
    sets: Vec<Vec<u64>>,
    assoc: usize,
    line_bits: u32,
    set_mask: u64,
    hits: u64,
    misses: u64,
    irregular_misses: u64,
    /// Stream table emulating a hardware prefetcher: the last miss line of
    /// up to [`STREAM_SLOTS`] concurrent sequential streams.
    streams: [u64; STREAM_SLOTS],
    /// Round-robin replacement cursor for the stream table.
    stream_cursor: usize,
}

/// Concurrent sequential streams a hardware prefetcher tracks (typical
/// L2 stream prefetchers follow on the order of 16 streams).
const STREAM_SLOTS: usize = 16;

impl CacheSim {
    /// Builds a cache of `capacity_bytes` with `assoc` ways and `line_bytes`
    /// lines. Capacity is rounded down to a power-of-two set count (min 1).
    ///
    /// # Panics
    /// Panics if any parameter is zero or the line size is not a power of
    /// two.
    pub fn new(capacity_bytes: usize, assoc: usize, line_bytes: usize) -> Self {
        assert!(
            capacity_bytes > 0 && assoc > 0 && line_bytes > 0,
            "cache parameters must be positive"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = (capacity_bytes / line_bytes).max(assoc);
        // Round the set count down to a power of two for cheap masking.
        let ratio = (lines / assoc).max(1);
        let nsets = 1usize << (usize::BITS - 1 - ratio.leading_zeros());
        Self {
            sets: vec![Vec::with_capacity(assoc); nsets],
            assoc,
            line_bits: line_bytes.trailing_zeros(),
            set_mask: nsets as u64 - 1,
            hits: 0,
            misses: 0,
            irregular_misses: 0,
            streams: [u64::MAX - 1; STREAM_SLOTS],
            stream_cursor: 0,
        }
    }

    /// Touches `addr` (byte address); returns `true` on a miss.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_bits;
        let set = &mut self.sets[(line & self.set_mask) as usize];
        if let Some(pos) = set.iter().position(|&t| t == line) {
            // LRU bump: move to the back (most recently used).
            let tag = set.remove(pos);
            set.push(tag);
            self.hits += 1;
            false
        } else {
            if set.len() == self.assoc {
                set.remove(0);
            }
            set.push(line);
            self.misses += 1;
            // A multi-stream hardware prefetcher catches the miss when the
            // line extends one of its tracked sequential streams (forward or
            // unit-stride backward). Otherwise the miss is irregular and the
            // new location claims a stream slot round-robin.
            let followed = self
                .streams
                .iter_mut()
                .find(|s| line == s.wrapping_add(1) || line == s.wrapping_sub(1));
            match followed {
                Some(s) => *s = line,
                None => {
                    self.irregular_misses += 1;
                    self.streams[self.stream_cursor] = line;
                    self.stream_cursor = (self.stream_cursor + 1) % STREAM_SLOTS;
                }
            }
            true
        }
    }

    /// Convenience: touch the line containing element `index` of an array of
    /// `elem_bytes`-sized elements starting at byte offset `base`.
    #[inline]
    pub fn access_element(&mut self, base: u64, index: usize, elem_bytes: usize) -> bool {
        self.access(base + (index * elem_bytes) as u64)
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Misses a stream prefetcher would not have hidden.
    pub fn irregular_misses(&self) -> u64 {
        self.irregular_misses
    }

    /// Miss ratio in [0, 1]; 0 for no accesses.
    pub fn miss_ratio(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses as f64 / a as f64
        }
    }

    /// Resets statistics but keeps cache contents (for warm-cache phases).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.irregular_misses = 0;
    }

    /// Number of sets (for tests).
    pub fn nsets(&self) -> usize {
        self.sets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_stream_misses_once_per_line() {
        let mut c = CacheSim::new(4096, 4, 64);
        for i in 0..1024u64 {
            c.access(i * 8);
        }
        assert_eq!(c.misses(), 1024 / 8); // 8 doubles per 64B line
        assert_eq!(c.accesses(), 1024);
        // All but the first miss are sequential (prefetchable).
        assert_eq!(c.irregular_misses(), 1);
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = CacheSim::new(4096, 4, 64);
        assert!(c.access(0));
        assert!(!c.access(0));
        assert!(!c.access(8));
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn capacity_eviction_under_lru() {
        // Fully associative 4-line cache.
        let mut c = CacheSim::new(256, 4, 64);
        assert_eq!(c.nsets(), 1);
        for line in 0..4u64 {
            c.access(line * 64);
        }
        c.access(0); // bump line 0 to MRU
        c.access(4 * 64); // evicts line 1 (LRU)
        assert!(!c.access(0), "line 0 must still be resident");
        assert!(c.access(64), "line 1 must have been evicted");
    }

    #[test]
    fn lru_stack_property() {
        // A smaller cache's hits are a subset of a larger one's on the same
        // trace (inclusion property of LRU).
        let trace: Vec<u64> = (0..2000u64).map(|i| (i * 37) % 4096 * 8).collect();
        let mut small = CacheSim::new(1024, 4, 64);
        let mut large = CacheSim::new(8192, 4, 64);
        for &a in &trace {
            small.access(a);
            large.access(a);
        }
        assert!(large.misses() <= small.misses());
    }

    #[test]
    fn irregular_misses_on_random_stream() {
        let mut c = CacheSim::new(1024, 4, 64);
        let mut addr = 1u64;
        for _ in 0..1000 {
            addr = addr.wrapping_mul(6364136223846793005).wrapping_add(1);
            c.access(addr % (1 << 26));
        }
        // A random stream's misses are almost all irregular.
        assert!(c.irregular_misses() as f64 > 0.9 * c.misses() as f64);
    }

    #[test]
    fn miss_ratio_bounds() {
        let mut c = CacheSim::new(4096, 8, 64);
        assert_eq!(c.miss_ratio(), 0.0);
        c.access(0);
        assert_eq!(c.miss_ratio(), 1.0);
        c.access(0);
        assert_eq!(c.miss_ratio(), 0.5);
    }
}
