use miopt_engine::stats::Counter;
use miopt_telemetry::StatSnapshot;

/// The single authoritative counter-field list, shared by `stat_pairs`,
/// `from_pairs` and `merge` so neither the serialized schema nor the sum
/// can drift from the struct.
macro_rules! cache_stat_fields {
    ($op:ident $($arg:ident)+) => {
        cache_stat_fields!(@ $op $($arg)+; accesses, load_hits, load_merges, load_misses,
            load_bypasses, store_hits, store_allocs, store_bypasses, stall_mshr,
            stall_set_busy, stall_merge, stall_out_queue, stall_port, fills,
            writebacks, rinse_writebacks, evictions_clean, self_invalidations,
            flush_writebacks, alloc_bypasses, predictor_bypasses)
    };
    (@ stat_pairs_from $s:ident; $($f:ident),+) => {
        vec![$((stringify!($f), $s.$f.get())),+]
    };
    (@ merge_from $s:ident $o:ident; $($f:ident),+) => {
        $($s.$f.add($o.$f.get());)+
    };
    (@ from_pairs_with $get:ident; $($f:ident),+) => {
        Ok(CacheStats {
            $($f: Counter::from_value($get(stringify!($f)).ok_or_else(
                || format!("missing cache stat `{}`", stringify!($f)),
            )?)),+
        })
    };
}

/// Per-cache statistics.
///
/// The `stall_*` counters implement the paper's Figure 8 metric: a stall is
/// any cycle in which a ready request at the cache's input could not query
/// the cache, broken down by cause.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests accepted (queried the tags or took the disabled-bypass
    /// path).
    pub accesses: Counter,
    /// Load hits on valid lines.
    pub load_hits: Counter,
    /// Loads merged into an outstanding miss (hit-under-miss coalescing).
    pub load_merges: Counter,
    /// Load misses that allocated and were forwarded.
    pub load_misses: Counter,
    /// Loads forwarded without allocation (policy, predictor, or
    /// allocation bypass).
    pub load_bypasses: Counter,
    /// Stores absorbed by a valid line (write hit).
    pub store_hits: Counter,
    /// Stores that write-allocated a line.
    pub store_allocs: Counter,
    /// Stores forwarded downstream (write-through or bypass).
    pub store_bypasses: Counter,
    /// Stall cycles: MSHR table full.
    pub stall_mshr: Counter,
    /// Stall cycles: every way of the target set busy (allocation
    /// blocking — the condition allocation bypass removes).
    pub stall_set_busy: Counter,
    /// Stall cycles: merge list full for a pending line.
    pub stall_merge: Counter,
    /// Stall cycles: no room in the downstream/response queue for the
    /// requests this access must emit (victim buffer full).
    pub stall_out_queue: Counter,
    /// Stall cycles: tag port budget exhausted this cycle.
    pub stall_port: Counter,
    /// Fills received and installed or forwarded.
    pub fills: Counter,
    /// Dirty lines written back on eviction.
    pub writebacks: Counter,
    /// Extra writebacks generated by rinsing (dirty-block index).
    pub rinse_writebacks: Counter,
    /// Clean evictions.
    pub evictions_clean: Counter,
    /// Lines invalidated by kernel-boundary self-invalidation.
    pub self_invalidations: Counter,
    /// Dirty lines written back by bulk flush at release.
    pub flush_writebacks: Counter,
    /// Requests converted from cached to bypass by allocation bypass.
    pub alloc_bypasses: Counter,
    /// Requests bypassed by the PC predictor.
    pub predictor_bypasses: Counter,
}

impl CacheStats {
    /// Accumulates another cache's statistics into this one (summing
    /// across the CUs' L1s or the L2 slices).
    pub fn merge(&mut self, other: &CacheStats) {
        cache_stat_fields!(merge_from self other);
    }

    /// Total stall cycles across all causes (the Figure 8 numerator
    /// contribution of this cache).
    #[must_use]
    pub fn stall_cycles(&self) -> u64 {
        self.stall_mshr.get()
            + self.stall_set_busy.get()
            + self.stall_merge.get()
            + self.stall_out_queue.get()
            + self.stall_port.get()
    }

    /// The counters a `CacheUnit::service` call can move without
    /// consuming a request: the five stall causes, then `alloc_bypasses`
    /// (a would-block access is converted before it meets the full
    /// downstream queue). Read before and after a call that consumed
    /// nothing, the difference is what one blocked retry books.
    #[must_use]
    pub fn retry_counters(&self) -> [u64; 6] {
        [
            self.stall_mshr.get(),
            self.stall_set_busy.get(),
            self.stall_merge.get(),
            self.stall_out_queue.get(),
            self.stall_port.get(),
            self.alloc_bypasses.get(),
        ]
    }

    /// Books `times` blocked retries of `delta` each (the order of
    /// [`CacheStats::retry_counters`]).
    pub(crate) fn book_retries(&mut self, delta: &[u64; 6], times: u64) {
        let [mshr, set_busy, merge, out_queue, port, alloc] = *delta;
        self.stall_mshr.add(mshr * times);
        self.stall_set_busy.add(set_busy * times);
        self.stall_merge.add(merge * times);
        self.stall_out_queue.add(out_queue * times);
        self.stall_port.add(port * times);
        self.alloc_bypasses.add(alloc * times);
    }

    /// Load hit rate over all load queries (hits + merges count as hits).
    #[must_use]
    pub fn load_hit_rate(&self) -> f64 {
        let hits = self.load_hits.get() + self.load_merges.get();
        let total = hits + self.load_misses.get() + self.load_bypasses.get();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Reconstructs statistics from persisted counters. `get` is queried
    /// once per field name (results deserialization hook).
    ///
    /// # Errors
    ///
    /// Returns the name of the first field `get` cannot supply.
    pub fn from_pairs(mut get: impl FnMut(&str) -> Option<u64>) -> Result<CacheStats, String> {
        cache_stat_fields!(from_pairs_with get)
    }
}

/// Every counter, in declaration order.
impl StatSnapshot for CacheStats {
    fn stat_pairs(&self) -> Vec<(&'static str, u64)> {
        cache_stat_fields!(stat_pairs_from self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_cycles_sums_causes() {
        let mut s = CacheStats::default();
        s.stall_mshr.add(2);
        s.stall_set_busy.add(3);
        s.stall_merge.inc();
        s.stall_out_queue.inc();
        s.stall_port.inc();
        assert_eq!(s.stall_cycles(), 8);
    }

    #[test]
    fn hit_rate_counts_merges_as_hits() {
        let mut s = CacheStats::default();
        s.load_hits.add(3);
        s.load_merges.add(1);
        s.load_misses.add(4);
        assert_eq!(s.load_hit_rate(), 0.5);
    }

    #[test]
    fn hit_rate_empty_is_zero() {
        assert_eq!(CacheStats::default().load_hit_rate(), 0.0);
    }

    #[test]
    fn pairs_round_trip_every_counter() {
        // Give every field a distinct value so a swapped pair would fail.
        let names: Vec<&str> = CacheStats::default()
            .stat_pairs()
            .iter()
            .map(|&(n, _)| n)
            .collect();
        let s =
            CacheStats::from_pairs(|n| names.iter().position(|&k| k == n).map(|i| 10 + i as u64))
                .unwrap();
        let pairs = s.stat_pairs();
        assert_eq!(pairs.len(), 21);
        let back = CacheStats::from_pairs(|n| pairs.iter().find(|(k, _)| *k == n).map(|&(_, v)| v))
            .unwrap();
        assert_eq!(back, s);
        // A missing field is an error naming the field.
        let err = CacheStats::from_pairs(|n| (n != "fills").then_some(0)).unwrap_err();
        assert!(err.contains("fills"), "{err}");
        // Merge is the pairwise sum of every counter.
        let mut merged = s.clone();
        merged.merge(&back);
        let summed: Vec<_> = pairs.iter().map(|&(n, v)| (n, 2 * v)).collect();
        assert_eq!(merged.stat_pairs(), summed);
    }
}
