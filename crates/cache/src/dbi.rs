use crate::RowMap;
use miopt_engine::sentinel::{InvariantViolation, Sentinel};
use miopt_engine::LineAddr;
use std::collections::{HashMap, VecDeque};

/// The dirty-block index of Seshadri et al. (ISCA 2014), applied to the GPU
/// L2 as in paper Section VII.B: tracks which blocks of each DRAM row are
/// dirty so that evicting one dirty block can *rinse* (write back) all of
/// them together, preserving DRAM row locality.
///
/// The index has finite capacity; inserting a block of an untracked row
/// when full evicts the least-recently-inserted row, and the caller must
/// rinse that row's blocks (exactly the DBI eviction behaviour of the
/// original proposal).
///
/// # Examples
///
/// ```
/// use miopt_cache::{DirtyBlockIndex, RowMap};
/// use miopt_engine::LineAddr;
///
/// let map = RowMap::new(4, 5);
/// let mut dbi = DirtyBlockIndex::new(8, map);
/// dbi.insert(LineAddr(0));
/// dbi.insert(LineAddr(16)); // same row
/// let rinse = dbi.take_row_of(LineAddr(0));
/// assert_eq!(rinse.len(), 2);
/// ```
#[derive(Debug)]
pub struct DirtyBlockIndex {
    rows: HashMap<u64, Vec<LineAddr>>,
    order: VecDeque<u64>,
    /// Emptied block vectors reclaimed from evicted/rinsed rows, reused by
    /// later inserts so steady-state row churn never touches the heap.
    spare: Vec<Vec<LineAddr>>,
    capacity: usize,
    map: RowMap,
}

impl DirtyBlockIndex {
    /// Builds an index tracking at most `capacity` rows.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, map: RowMap) -> DirtyBlockIndex {
        assert!(capacity > 0, "DBI capacity must be nonzero");
        DirtyBlockIndex {
            // The row map is bounded at `capacity` entries (eviction runs
            // before insertion at the limit), so pre-sizing both it and the
            // block-vector pool makes row turnover allocation-free.
            rows: HashMap::with_capacity(capacity),
            order: VecDeque::with_capacity(capacity),
            // A row's block vector can grow to the full rinse set; sizing
            // the pool for that up front means tracking never reallocates,
            // even in the first rinse cycles.
            spare: (0..capacity)
                .map(|_| Vec::with_capacity(map.lines_per_row().min(64)))
                .collect(),
            capacity,
            map,
        }
    }

    /// Takes a reclaimed block vector from the pool, or a fresh one if the
    /// pool ran dry (rows handed out via [`DirtyBlockIndex::take_row_of`]
    /// leave with their vector).
    fn fresh_blocks(&mut self) -> Vec<LineAddr> {
        self.spare.pop().unwrap_or_default()
    }

    /// Returns an emptied block vector to the pool.
    fn reclaim(&mut self, mut blocks: Vec<LineAddr>) {
        if self.spare.len() < self.capacity {
            blocks.clear();
            self.spare.push(blocks);
        }
    }

    /// Records that `line` became dirty. If the index is full and the
    /// line's row is untracked, returns the blocks of an evicted row, which
    /// the caller must write back (DBI-eviction rinse).
    pub fn insert(&mut self, line: LineAddr) -> Option<Vec<LineAddr>> {
        let key = self.map.key(line);
        if let Some(blocks) = self.rows.get_mut(&key) {
            if !blocks.contains(&line) {
                blocks.push(line);
            }
            return None;
        }
        let evicted = if self.rows.len() >= self.capacity {
            let old_key = self.order.pop_front().expect("order tracks rows");
            self.rows.remove(&old_key)
        } else {
            None
        };
        let mut blocks = self.fresh_blocks();
        blocks.push(line);
        self.rows.insert(key, blocks);
        self.order.push_back(key);
        evicted
    }

    /// Allocation-free [`DirtyBlockIndex::insert`]: appends any evicted
    /// row's blocks to `rinse_out` (without clearing it) and reclaims the
    /// row's vector internally. Returns whether a row was evicted.
    pub fn insert_into(&mut self, line: LineAddr, rinse_out: &mut Vec<LineAddr>) -> bool {
        match self.insert(line) {
            Some(evicted) => {
                rinse_out.extend_from_slice(&evicted);
                self.reclaim(evicted);
                true
            }
            None => false,
        }
    }

    /// Records that `line` is no longer dirty (written back or evicted
    /// individually).
    pub fn remove(&mut self, line: LineAddr) {
        let key = self.map.key(line);
        if let Some(blocks) = self.rows.get_mut(&key) {
            blocks.retain(|l| *l != line);
            if blocks.is_empty() {
                let emptied = self.rows.remove(&key).expect("row just observed");
                self.reclaim(emptied);
                self.order.retain(|k| *k != key);
            }
        }
    }

    /// Removes and returns every tracked dirty block in `line`'s row
    /// (including `line` itself if tracked) — the rinse set.
    ///
    /// The returned vector leaves the internal pool for good; hot paths
    /// should prefer [`DirtyBlockIndex::take_row_of_into`].
    pub fn take_row_of(&mut self, line: LineAddr) -> Vec<LineAddr> {
        let key = self.map.key(line);
        match self.rows.remove(&key) {
            Some(blocks) => {
                self.order.retain(|k| *k != key);
                blocks
            }
            None => Vec::new(),
        }
    }

    /// Allocation-free [`DirtyBlockIndex::take_row_of`]: appends the rinse
    /// set to `out` (without clearing it) and reclaims the row's vector
    /// internally.
    pub fn take_row_of_into(&mut self, line: LineAddr, out: &mut Vec<LineAddr>) {
        let key = self.map.key(line);
        if let Some(blocks) = self.rows.remove(&key) {
            self.order.retain(|k| *k != key);
            out.extend_from_slice(&blocks);
            self.reclaim(blocks);
        }
    }

    /// Number of rows currently tracked.
    #[must_use]
    pub fn tracked_rows(&self) -> usize {
        self.rows.len()
    }

    /// Total dirty blocks currently tracked.
    #[must_use]
    pub fn tracked_blocks(&self) -> usize {
        self.rows.values().map(Vec::len).sum()
    }

    /// Forgets everything (used after a bulk flush).
    pub fn clear(&mut self) {
        // Drained in place: the map keeps its allocation.
        let mut rows = std::mem::take(&mut self.rows);
        for (_, blocks) in rows.drain() {
            self.reclaim(blocks);
        }
        self.rows = rows;
        self.order.clear();
    }

    /// Every tracked dirty block, in unspecified order; callers needing
    /// determinism must sort.
    pub fn iter_blocks(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.rows.values().flatten().copied()
    }
}

impl Sentinel for DirtyBlockIndex {
    fn check_invariants(&self, component: &str, out: &mut Vec<InvariantViolation>) {
        if self.rows.len() > self.capacity {
            out.push(InvariantViolation {
                component: component.to_string(),
                invariant: "dbi_row_capacity",
                detail: format!(
                    "{} tracked rows > capacity {}",
                    self.rows.len(),
                    self.capacity
                ),
            });
        }
        // The FIFO eviction order must index exactly the tracked rows.
        if self.order.len() != self.rows.len()
            || self.order.iter().any(|k| !self.rows.contains_key(k))
        {
            out.push(InvariantViolation {
                component: component.to_string(),
                invariant: "dbi_order_index",
                detail: format!(
                    "eviction order tracks {} rows but the index holds {}",
                    self.order.len(),
                    self.rows.len()
                ),
            });
        }
        if self.rows.values().any(Vec::is_empty) {
            out.push(InvariantViolation {
                component: component.to_string(),
                invariant: "dbi_empty_row",
                detail: "a tracked row has no dirty blocks".to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> RowMap {
        RowMap::new(1, 2) // 2 channels, 4-line rows
    }

    #[test]
    fn groups_lines_by_row() {
        let mut dbi = DirtyBlockIndex::new(4, map());
        // Channel 0: lines 0, 2, 4, 6 are columns of row 0.
        dbi.insert(LineAddr(0));
        dbi.insert(LineAddr(2));
        dbi.insert(LineAddr(4));
        assert_eq!(dbi.tracked_rows(), 1);
        let mut rinse = dbi.take_row_of(LineAddr(6));
        rinse.sort();
        assert_eq!(rinse, vec![LineAddr(0), LineAddr(2), LineAddr(4)]);
        assert_eq!(dbi.tracked_rows(), 0);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut dbi = DirtyBlockIndex::new(4, map());
        dbi.insert(LineAddr(0));
        dbi.insert(LineAddr(0));
        assert_eq!(dbi.tracked_blocks(), 1);
    }

    #[test]
    fn remove_clears_empty_rows() {
        let mut dbi = DirtyBlockIndex::new(4, map());
        dbi.insert(LineAddr(0));
        dbi.remove(LineAddr(0));
        assert_eq!(dbi.tracked_rows(), 0);
        assert!(dbi.take_row_of(LineAddr(0)).is_empty());
    }

    #[test]
    fn emptied_and_cleared_rows_return_their_vector_to_the_pool() {
        // Every way a row leaves the index hands its block vector back,
        // so row turnover never runs the pool dry (a dry pool makes the
        // next insert allocate).
        let mut dbi = DirtyBlockIndex::new(4, map());
        let pool = |dbi: &DirtyBlockIndex| dbi.spare.len() + dbi.tracked_rows();
        assert_eq!(pool(&dbi), 4);
        for round in 0..16u64 {
            dbi.insert(LineAddr(round * 8));
            dbi.insert(LineAddr(round * 8 + 2));
            dbi.remove(LineAddr(round * 8));
            dbi.remove(LineAddr(round * 8 + 2));
            assert_eq!(dbi.tracked_rows(), 0);
            assert_eq!(pool(&dbi), 4, "round {round}: remove");
        }
        for row in 0..4u64 {
            dbi.insert(LineAddr(row * 8));
        }
        dbi.clear();
        assert_eq!(pool(&dbi), 4, "clear");
        assert!(dbi.spare.iter().all(Vec::is_empty));
    }

    #[test]
    fn capacity_eviction_returns_victim_row() {
        let mut dbi = DirtyBlockIndex::new(2, map());
        // Three distinct rows in channel 0: rows differ every 8 lines
        // (2 channels x 4 columns).
        assert!(dbi.insert(LineAddr(0)).is_none());
        assert!(dbi.insert(LineAddr(8)).is_none());
        let evicted = dbi.insert(LineAddr(16)).expect("row evicted");
        assert_eq!(evicted, vec![LineAddr(0)]);
        assert_eq!(dbi.tracked_rows(), 2);
    }

    #[test]
    fn different_channels_are_different_rows() {
        let mut dbi = DirtyBlockIndex::new(4, map());
        dbi.insert(LineAddr(0)); // channel 0
        dbi.insert(LineAddr(1)); // channel 1
        assert_eq!(dbi.tracked_rows(), 2);
    }

    #[test]
    fn clear_forgets_everything() {
        let mut dbi = DirtyBlockIndex::new(4, map());
        dbi.insert(LineAddr(0));
        dbi.insert(LineAddr(1));
        dbi.clear();
        assert_eq!(dbi.tracked_rows(), 0);
        assert_eq!(dbi.tracked_blocks(), 0);
    }
}
