use crate::predictor::PredictorConfig;
use miopt_engine::util::is_pow2;
use miopt_engine::LineAddr;

/// Identifies the DRAM row of a line for the dirty-block index, without
/// depending on the DRAM crate.
///
/// The DRAM address map lays a line address out as
/// `| column | channel | bank | row |`, LSB first, so the line address
/// with its column bits removed names the (channel, bank, row) triple:
/// that is the row key.
///
/// # Examples
///
/// ```
/// use miopt_cache::RowMap;
/// use miopt_engine::LineAddr;
///
/// let map = RowMap::new(5); // 32-line rows
/// // Lines 0 and 31 are the first and last columns of one row:
/// assert_eq!(map.key(LineAddr(0)), map.key(LineAddr(31)));
/// // Line 32 starts the next channel's row:
/// assert_ne!(map.key(LineAddr(0)), map.key(LineAddr(32)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowMap {
    column_bits: u32,
}

impl RowMap {
    /// Builds a row map for rows of `1 << column_bits` lines.
    #[must_use]
    pub fn new(column_bits: u32) -> RowMap {
        RowMap { column_bits }
    }

    /// Lines per DRAM row — the largest rinse set one row can produce.
    #[must_use]
    pub fn lines_per_row(&self) -> usize {
        1 << self.column_bits
    }

    /// The (channel, bank, row) key of a line.
    #[must_use]
    pub fn key(&self, line: LineAddr) -> u64 {
        line.0 >> self.column_bits
    }
}

/// Geometry and resource configuration of one physical cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// MSHR entries (distinct outstanding miss lines).
    pub mshr_entries: usize,
    /// Maximum requests merged into one MSHR entry (including the primary).
    pub mshr_merge_cap: usize,
    /// Tag-array accesses accepted per cycle.
    pub port_width: u32,
    /// Maximum dirty rows tracked by the dirty-block index (rinsing only).
    pub dbi_rows: usize,
    /// Writebacks emitted per cycle during a bulk dirty flush.
    pub flush_width: u32,
    /// Low line-address bits kept verbatim by the set index;
    /// `>= log2(sets)` means plain low-bit indexing (gem5-faithful, used
    /// at the L1 -- the paper's allocation-blocking stalls depend on it).
    pub index_low_bits: u32,
    /// Line-address bits skipped above `index_low_bits` (the slice
    /// selector for an L2 slice; 0 for an unsliced cache).
    pub index_skip_bits: u32,
}

impl CacheConfig {
    /// Table 1 GPU L1 data cache: 16 KB, 64 B lines, 16-way (16 sets).
    #[must_use]
    pub fn l1_paper() -> CacheConfig {
        CacheConfig {
            sets: 16,
            ways: 16,
            // Effectively uncapped: the GCN vector L1 is a streaming
            // write-through cache whose outstanding misses are bounded by
            // busy *lines*, not a miss-entry table — allocation blocking
            // (all ways of a set busy) is the paper's stall source.
            mshr_entries: 256,
            mshr_merge_cap: 8,
            port_width: 1,
            dbi_rows: 0,
            flush_width: 2,
            index_low_bits: 31,
            index_skip_bits: 0,
        }
    }

    /// One slice of the Table 1 GPU L2: 4 MB / 16 slices = 256 KB,
    /// 64 B lines, 16-way (256 sets).
    #[must_use]
    pub fn l2_slice_paper() -> CacheConfig {
        CacheConfig {
            sets: 256,
            ways: 16,
            mshr_entries: 64,
            mshr_merge_cap: 16,
            port_width: 2,
            dbi_rows: 64,
            flush_width: 8,
            // Keep the 5 column bits, skip the 4 slice-selector bits.
            index_low_bits: 5,
            index_skip_bits: 4,
        }
    }

    /// A small geometry for unit tests (4 sets, 2 ways).
    #[must_use]
    pub fn tiny_test() -> CacheConfig {
        CacheConfig {
            sets: 4,
            ways: 2,
            mshr_entries: 4,
            mshr_merge_cap: 2,
            port_width: 1,
            dbi_rows: 4,
            flush_width: 1,
            index_low_bits: 31,
            index_skip_bits: 0,
        }
    }

    /// Total lines (sets × ways).
    #[must_use]
    pub fn lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Capacity in bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.lines() as u64 * miopt_engine::LINE_BYTES
    }

    /// Validates geometry constraints.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !is_pow2(self.sets as u64) {
            return Err(format!("sets must be a power of two, got {}", self.sets));
        }
        if self.ways == 0 {
            return Err("ways must be nonzero".to_string());
        }
        if self.mshr_entries == 0 {
            return Err("mshr_entries must be nonzero".to_string());
        }
        if self.mshr_merge_cap == 0 {
            return Err("mshr_merge_cap must be nonzero".to_string());
        }
        if self.port_width == 0 {
            return Err("port_width must be nonzero".to_string());
        }
        Ok(())
    }
}

/// A contiguous range of ways that allocations are confined to — QoS
/// way-partitioning for multi-tenant serving.
///
/// Only *allocation* (victim selection) is restricted; probes still
/// search every way, so a line legitimately installed elsewhere (for
/// example before the partition changed at a kernel boundary) still
/// hits. This is the standard way-partitioning semantics (Intel CAT,
/// gem5's `WayPartitioningPolicy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WayRange {
    /// First way of the partition.
    pub first: usize,
    /// Number of ways in the partition.
    pub count: usize,
}

impl WayRange {
    /// A partition spanning ways `first .. first + count`.
    #[must_use]
    pub fn new(first: usize, count: usize) -> WayRange {
        WayRange { first, count }
    }

    /// One past the last way of the partition.
    #[must_use]
    pub fn end(&self) -> usize {
        self.first + self.count
    }

    /// Checks the partition is non-empty and fits a `ways`-way cache.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self, ways: usize) -> Result<(), String> {
        if self.count == 0 {
            return Err("way partition must contain at least one way".to_string());
        }
        if self.end() > ways {
            return Err(format!(
                "way partition {}..{} exceeds {} ways",
                self.first,
                self.end(),
                ways
            ));
        }
        Ok(())
    }
}

/// How one cache level treats loads and stores, including the paper's
/// Section VII optimizations.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelPolicy {
    /// Whether this level is active at all. A disabled cache forwards
    /// everything as bypass without touching tags (the `Uncached` policy).
    pub enabled: bool,
    /// Cache load data at this level.
    pub cache_loads: bool,
    /// Absorb stores at this level (write-allocate, written back on flush
    /// or eviction). When `false` stores pass through (write-through,
    /// no-allocate), invalidating any stale copy.
    pub cache_stores: bool,
    /// Allocation bypass (AB): convert to bypass instead of stalling when
    /// every way of the set is busy.
    pub allocation_bypass: bool,
    /// Row-locality-aware rinsing (CR): requires `row_map`.
    pub rinse: bool,
    /// PC-based bypass prediction (PCby) for loads and stores.
    pub pc_bypass: Option<PredictorConfig>,
    /// Row map for the dirty-block index; required when `rinse` is on.
    pub row_map: Option<RowMap>,
    /// Confine allocations to a contiguous range of ways (QoS
    /// way-partitioning); `None` uses every way.
    pub partition: Option<WayRange>,
}

impl LevelPolicy {
    /// Fully disabled level (the `Uncached` static policy).
    #[must_use]
    pub fn disabled() -> LevelPolicy {
        LevelPolicy {
            enabled: false,
            cache_loads: false,
            cache_stores: false,
            allocation_bypass: false,
            rinse: false,
            pc_bypass: None,
            row_map: None,
            partition: None,
        }
    }

    /// Cache loads only; stores pass through (the `CacheR` policy, and the
    /// L1 level of every caching policy — stores always bypass the L1).
    #[must_use]
    pub fn cache_loads_only() -> LevelPolicy {
        LevelPolicy {
            enabled: true,
            cache_loads: true,
            cache_stores: false,
            allocation_bypass: false,
            rinse: false,
            pc_bypass: None,
            row_map: None,
            partition: None,
        }
    }

    /// Cache loads and absorb stores (the `CacheRW` policy at the L2).
    #[must_use]
    pub fn cache_loads_and_stores() -> LevelPolicy {
        LevelPolicy {
            cache_stores: true,
            ..LevelPolicy::cache_loads_only()
        }
    }

    /// Validates optimization prerequisites.
    ///
    /// # Errors
    ///
    /// Returns a message if `rinse` is enabled without a `row_map`, or
    /// if a way partition is empty. (Whether a partition *fits* is
    /// checked against the cache geometry by `CacheUnit::new`.)
    pub fn validate(&self) -> Result<(), String> {
        if self.rinse && self.row_map.is_none() {
            return Err("rinse requires a row_map".to_string());
        }
        if let Some(p) = self.partition {
            if p.count == 0 {
                return Err("way partition must contain at least one way".to_string());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l1_is_16kb() {
        let cfg = CacheConfig::l1_paper();
        cfg.validate().unwrap();
        assert_eq!(cfg.bytes(), 16 * 1024);
        assert_eq!(cfg.ways, 16);
    }

    #[test]
    fn paper_l2_slices_total_4mb() {
        let cfg = CacheConfig::l2_slice_paper();
        cfg.validate().unwrap();
        assert_eq!(cfg.bytes() * 16, 4 * 1024 * 1024);
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        let mut cfg = CacheConfig::tiny_test();
        cfg.sets = 3;
        assert!(cfg.validate().is_err());
        let mut cfg = CacheConfig::tiny_test();
        cfg.ways = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = CacheConfig::tiny_test();
        cfg.mshr_entries = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rinse_requires_row_map() {
        let mut p = LevelPolicy::cache_loads_and_stores();
        p.rinse = true;
        assert!(p.validate().is_err());
        p.row_map = Some(RowMap::new(5));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn row_map_strips_columns() {
        // 8-line rows: all 8 columns of the first row share a key.
        let m = RowMap::new(3);
        let base = m.key(LineAddr(0));
        for col in 0..8u64 {
            assert_eq!(m.key(LineAddr(col)), base);
        }
        // The next row-sized block (the next channel) differs.
        assert_ne!(m.key(LineAddr(8)), base);
    }

    #[test]
    fn way_range_validation() {
        assert!(WayRange::new(0, 16).validate(16).is_ok());
        assert!(WayRange::new(8, 8).validate(16).is_ok());
        assert!(WayRange::new(8, 9).validate(16).is_err());
        assert!(WayRange::new(0, 0).validate(16).is_err());
        assert_eq!(WayRange::new(4, 4).end(), 8);
    }

    #[test]
    fn empty_partition_is_rejected() {
        let mut p = LevelPolicy::cache_loads_only();
        p.partition = Some(WayRange::new(0, 0));
        assert!(p.validate().is_err());
        p.partition = Some(WayRange::new(0, 4));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn policy_presets_are_consistent() {
        assert!(!LevelPolicy::disabled().enabled);
        let r = LevelPolicy::cache_loads_only();
        assert!(r.enabled && r.cache_loads && !r.cache_stores);
        let rw = LevelPolicy::cache_loads_and_stores();
        assert!(rw.cache_loads && rw.cache_stores);
    }
}
