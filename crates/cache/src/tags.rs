use miopt_engine::{LineAddr, Pc};

/// State of one tag-array entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineState {
    /// No data.
    Invalid,
    /// Allocated for a pending fill; cannot be evicted (the paper's source
    /// of allocation blocking).
    Busy,
    /// Holds data.
    Valid,
}

/// One tag-array entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Line {
    pub(crate) line: LineAddr,
    pub(crate) state: LineState,
    /// Epoch stamp implementing zero-cost flash self-invalidation: a Valid
    /// line whose epoch is stale is treated as Invalid.
    pub(crate) epoch: u32,
    pub(crate) dirty: bool,
    /// Whether the line was re-accessed after insertion (trains the PC
    /// predictor on eviction).
    pub(crate) referenced: bool,
    /// PC of the instruction that inserted the line.
    pub(crate) pc: Pc,
    /// LRU stamp.
    pub(crate) last_use: u64,
}

impl Line {
    fn empty() -> Line {
        Line {
            line: LineAddr(0),
            state: LineState::Invalid,
            epoch: 0,
            dirty: false,
            referenced: false,
            pc: Pc(0),
            last_use: 0,
        }
    }
}

/// What `allocate` found to evict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Victim {
    /// An invalid (or epoch-stale) way; no eviction needed.
    Free(usize),
    /// A valid clean line to replace.
    Clean(usize),
    /// A valid dirty line to replace; caller must write it back.
    Dirty(usize),
    /// Every way is busy: allocation would block.
    AllBusy,
}

/// Set index for `line`: keeps the low `low_bits` of the line address,
/// skips the next `skip_bits`, and continues with the bits above.
///
/// With `low_bits >= log2(sets)` this is plain low-bit indexing — what
/// gem5's Ruby caches use, and deliberately kept for the L1: the paper's
/// cache-stall phenomenology (aligned wavefront chunks camping on a few
/// sets, Section VI.C.1) depends on it. For an L2 slice the `skip_bits`
/// excise the slice-selector bits, which are constant within a slice and
/// would otherwise collapse the usable index space.
pub(crate) fn set_index_for(line: LineAddr, sets: usize, low_bits: u32, skip_bits: u32) -> usize {
    let l = line.0 as usize;
    let low = l & ((1usize << low_bits) - 1);
    let high = (l >> (low_bits + skip_bits)) << low_bits;
    (low | high) & (sets - 1)
}

/// A set-associative tag array with epoch-based flash invalidation and LRU
/// replacement.
#[derive(Debug)]
pub(crate) struct TagArray {
    sets: usize,
    ways: usize,
    low_bits: u32,
    skip_bits: u32,
    lines: Vec<Line>,
    /// One bit per slot, set by [`TagArray::install`] and cleared by
    /// [`TagArray::flash_invalidate`]. Every live line sits on a set bit:
    /// a valid line is live only in the epoch `install` stamped it with,
    /// and a flash leaves no busy line behind. So the kernel-boundary
    /// walks visit what was installed since the last one, not the array.
    touched: Vec<u64>,
    epoch: u32,
    use_stamp: u64,
}

impl TagArray {
    pub(crate) fn new(sets: usize, ways: usize, low_bits: u32, skip_bits: u32) -> TagArray {
        TagArray {
            sets,
            ways,
            low_bits,
            skip_bits,
            lines: vec![Line::empty(); sets * ways],
            touched: vec![0; (sets * ways).div_ceil(64)],
            epoch: 1,
            use_stamp: 0,
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        set_index_for(line, self.sets, self.low_bits, self.skip_bits)
    }

    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    fn is_live(&self, l: &Line) -> bool {
        match l.state {
            LineState::Invalid => false,
            LineState::Busy => true,
            LineState::Valid => l.epoch == self.epoch,
        }
    }

    /// Finds the way holding `line`, if live.
    pub(crate) fn probe(&self, line: LineAddr) -> Option<(usize, usize)> {
        let set = self.set_of(line);
        (0..self.ways).find_map(|w| {
            let l = &self.lines[self.slot(set, w)];
            (self.is_live(l) && l.line == line).then_some((set, w))
        })
    }

    pub(crate) fn line(&self, set: usize, way: usize) -> &Line {
        &self.lines[self.slot(set, way)]
    }

    pub(crate) fn line_mut(&mut self, set: usize, way: usize) -> &mut Line {
        let i = self.slot(set, way);
        &mut self.lines[i]
    }

    /// Records a use of a live line (hit): bumps LRU and the referenced bit.
    pub(crate) fn touch(&mut self, set: usize, way: usize) {
        self.use_stamp += 1;
        let stamp = self.use_stamp;
        let l = self.line_mut(set, way);
        l.last_use = stamp;
        l.referenced = true;
    }

    /// Chooses a victim way for `line`'s set: a dead way if any, else the
    /// LRU clean way, else the LRU dirty way, else reports all-busy.
    pub(crate) fn find_victim(&self, line: LineAddr) -> Victim {
        self.find_victim_in(line, 0, self.ways)
    }

    /// [`TagArray::find_victim`] restricted to ways
    /// `first .. first + count` — the allocation side of QoS
    /// way-partitioning. All-busy means every way *of the partition* is
    /// busy; ways outside it are never candidates.
    pub(crate) fn find_victim_in(&self, line: LineAddr, first: usize, count: usize) -> Victim {
        debug_assert!(count > 0 && first + count <= self.ways);
        let set = self.set_of(line);
        let mut best_clean: Option<(u64, usize)> = None;
        let mut best_dirty: Option<(u64, usize)> = None;
        for w in first..first + count {
            let l = self.line(set, w);
            if !self.is_live(l) {
                return Victim::Free(w);
            }
            match l.state {
                LineState::Busy => {}
                LineState::Valid if l.dirty => {
                    if best_dirty.is_none_or(|(s, _)| l.last_use < s) {
                        best_dirty = Some((l.last_use, w));
                    }
                }
                LineState::Valid => {
                    if best_clean.is_none_or(|(s, _)| l.last_use < s) {
                        best_clean = Some((l.last_use, w));
                    }
                }
                LineState::Invalid => unreachable!("dead lines handled above"),
            }
        }
        if let Some((_, w)) = best_clean {
            Victim::Clean(w)
        } else if let Some((_, w)) = best_dirty {
            Victim::Dirty(w)
        } else {
            Victim::AllBusy
        }
    }

    /// Set index that `line` maps to.
    pub(crate) fn set_index(&self, line: LineAddr) -> usize {
        self.set_of(line)
    }

    /// (address, referenced, inserting pc) of the line at `way` in the set
    /// `incoming` maps to — the victim a caller is about to evict.
    pub(crate) fn victim_info(&self, incoming: LineAddr, way: usize) -> (LineAddr, bool, Pc) {
        let set = self.set_of(incoming);
        let l = self.line(set, way);
        (l.line, l.referenced, l.pc)
    }

    /// Installs `line` in `way` of its set with the given state.
    pub(crate) fn install(
        &mut self,
        line: LineAddr,
        way: usize,
        state: LineState,
        pc: Pc,
        dirty: bool,
    ) {
        let i = self.slot(self.set_of(line), way);
        self.touched[i / 64] |= 1 << (i % 64);
        self.use_stamp += 1;
        let stamp = self.use_stamp;
        let epoch = self.epoch;
        let l = &mut self.lines[i];
        *l = Line {
            line,
            state,
            epoch,
            dirty,
            referenced: false,
            pc,
            last_use: stamp,
        };
    }

    /// Invalidates the entry at (set, way).
    pub(crate) fn invalidate(&mut self, set: usize, way: usize) {
        self.line_mut(set, way).state = LineState::Invalid;
    }

    /// Calls `f` on every slot installed since the last flash
    /// invalidation, in ascending slot (set, then way) order — the order
    /// of a walk over the whole array, which visits nothing else live.
    fn for_each_touched(&self, mut f: impl FnMut(&Line)) {
        for (w, &word) in self.touched.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                f(&self.lines[w * 64 + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
    }

    /// Flash-invalidates every valid line by bumping the epoch, visiting
    /// each live valid line first (for predictor training).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any line is busy or dirty — callers must
    /// drain fills and flush dirty data before self-invalidating (the
    /// system inserts a full barrier at kernel boundaries).
    pub(crate) fn flash_invalidate(&mut self, mut visit: impl FnMut(&Line)) {
        let epoch = self.epoch;
        self.for_each_touched(|l| {
            if l.state == LineState::Valid && l.epoch == epoch {
                debug_assert!(!l.dirty, "flash_invalidate with dirty line");
                visit(l);
            }
            debug_assert!(
                l.state != LineState::Busy,
                "flash_invalidate with busy line"
            );
        });
        self.touched.fill(0);
        self.epoch += 1;
    }

    /// Replaces the contents of `out` with every live dirty line, in slot
    /// order (for bulk flush).
    pub(crate) fn dirty_lines_into(&self, out: &mut Vec<LineAddr>) {
        out.clear();
        self.for_each_touched(|l| {
            if self.is_live(l) && l.state == LineState::Valid && l.dirty {
                out.push(l.line);
            }
        });
    }

    /// Number of live valid lines (testing/occupancy).
    pub(crate) fn live_count(&self) -> usize {
        self.lines
            .iter()
            .filter(|l| self.is_live(l) && l.state == LineState::Valid)
            .count()
    }

    /// Number of busy lines.
    pub(crate) fn busy_count(&self) -> usize {
        self.lines
            .iter()
            .filter(|l| l.state == LineState::Busy)
            .count()
    }

    /// Iterates over `(set, way, line)` for every live entry, in set/way
    /// order (sentinel cross-checks against the MSHR table and DBI).
    pub(crate) fn iter_live(&self) -> impl Iterator<Item = (usize, usize, &Line)> {
        self.lines
            .iter()
            .enumerate()
            .filter(|(_, l)| self.is_live(l))
            .map(|(i, l)| (i / self.ways, i % self.ways, l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags() -> TagArray {
        TagArray::new(4, 2, 31, 0)
    }

    /// First `n` line addresses that map to the same set as `base` in a
    /// `sets`-set array (the hashed-index equivalent of "stride by set
    /// count").
    fn colliding(base: u64, n: usize, sets: usize) -> Vec<u64> {
        let target = set_index_for(LineAddr(base), sets, 31, 0);
        (base..)
            .filter(|l| set_index_for(LineAddr(*l), sets, 31, 0) == target)
            .take(n)
            .collect()
    }

    #[test]
    fn probe_miss_then_hit() {
        let mut t = tags();
        assert!(t.probe(LineAddr(8)).is_none());
        t.install(LineAddr(8), 0, LineState::Valid, Pc(3), false);
        let (set, way) = t.probe(LineAddr(8)).unwrap();
        assert_eq!(set, set_index_for(LineAddr(8), 4, 31, 0));
        assert_eq!(way, 0);
        assert_eq!(t.line(set, way).pc, Pc(3));
    }

    #[test]
    fn same_set_different_tag_misses() {
        let mut t = tags();
        let c = colliding(8, 2, 4);
        t.install(LineAddr(c[0]), 0, LineState::Valid, Pc(0), false);
        assert!(t.probe(LineAddr(c[1])).is_none());
    }

    #[test]
    fn slice_local_index_uses_full_set_space() {
        // An L2 slice only sees lines whose slice-selector bits (5..9 for
        // the Table 1 system) are constant. Skipping them must still cover
        // every set as the slice's line space is swept.
        let mut seen = std::collections::BTreeSet::new();
        for k in 0..4096u64 {
            let line = (k / 32) * 512 + 5 * 32 + (k % 32); // slice 5 lines
            seen.insert(set_index_for(LineAddr(line), 256, 5, 4));
        }
        assert_eq!(seen.len(), 256, "slice-local indexing must cover all sets");
    }

    #[test]
    fn plain_low_bit_indexing_is_gem5_faithful() {
        for l in [0u64, 1, 5, 17, 255] {
            assert_eq!(set_index_for(LineAddr(l), 16, 31, 0), (l % 16) as usize);
        }
    }

    #[test]
    fn victim_prefers_free_then_clean_lru_then_dirty() {
        let mut t = tags();
        let c = colliding(1, 3, 4);
        let set = set_index_for(LineAddr(c[0]), 4, 31, 0);
        // Install one valid line, one way free.
        t.install(LineAddr(c[0]), 0, LineState::Valid, Pc(0), false);
        assert_eq!(t.find_victim(LineAddr(c[1])), Victim::Free(1));
        // Fill both ways: older clean at way 0, newer clean at way 1.
        t.install(LineAddr(c[1]), 1, LineState::Valid, Pc(0), false);
        t.touch(set, 1);
        assert_eq!(t.find_victim(LineAddr(c[2])), Victim::Clean(0));
        // Make way 0 dirty: clean way 1 becomes the victim.
        t.line_mut(set, 0).dirty = true;
        assert_eq!(t.find_victim(LineAddr(c[2])), Victim::Clean(1));
        // Both dirty: LRU dirty.
        t.line_mut(set, 1).dirty = true;
        assert_eq!(t.find_victim(LineAddr(c[2])), Victim::Dirty(0));
        // Both busy: all-busy.
        t.line_mut(set, 0).state = LineState::Busy;
        t.line_mut(set, 1).state = LineState::Busy;
        assert_eq!(t.find_victim(LineAddr(c[2])), Victim::AllBusy);
    }

    #[test]
    fn partitioned_victim_search_ignores_outside_ways() {
        // 4 ways so a 2-way partition leaves real outsiders.
        let mut t = TagArray::new(4, 4, 31, 0);
        let c = colliding(1, 5, 4);
        let set = set_index_for(LineAddr(c[0]), 4, 31, 0);
        // Ways 0 and 1 hold stale-LRU clean lines *outside* the
        // partition; the partition (ways 2..4) is empty.
        t.install(LineAddr(c[0]), 0, LineState::Valid, Pc(0), false);
        t.install(LineAddr(c[1]), 1, LineState::Valid, Pc(0), false);
        assert_eq!(t.find_victim_in(LineAddr(c[2]), 2, 2), Victim::Free(2));
        // Fill the partition with clean lines: the LRU *within* the
        // partition is evicted, never the globally-LRU way 0.
        t.install(LineAddr(c[2]), 2, LineState::Valid, Pc(0), false);
        t.install(LineAddr(c[3]), 3, LineState::Valid, Pc(0), false);
        assert_eq!(t.find_victim_in(LineAddr(c[4]), 2, 2), Victim::Clean(2));
        // Partition all busy => AllBusy even though ways 0/1 are clean.
        t.line_mut(set, 2).state = LineState::Busy;
        t.line_mut(set, 3).state = LineState::Busy;
        assert_eq!(t.find_victim_in(LineAddr(c[4]), 2, 2), Victim::AllBusy);
        // The unrestricted search still sees the clean outsiders.
        assert_eq!(t.find_victim(LineAddr(c[4])), Victim::Clean(0));
    }

    #[test]
    fn flash_invalidate_kills_valid_lines() {
        let mut t = tags();
        t.install(LineAddr(1), 0, LineState::Valid, Pc(0), false);
        t.install(LineAddr(2), 0, LineState::Valid, Pc(0), false);
        let mut visited = 0;
        t.flash_invalidate(|_| visited += 1);
        assert_eq!(visited, 2);
        assert!(t.probe(LineAddr(1)).is_none());
        assert!(t.probe(LineAddr(2)).is_none());
        assert_eq!(t.live_count(), 0);
    }

    #[test]
    fn install_after_flash_is_live() {
        let mut t = tags();
        t.install(LineAddr(1), 0, LineState::Valid, Pc(0), false);
        t.flash_invalidate(|_| {});
        t.install(LineAddr(1), 0, LineState::Valid, Pc(0), false);
        assert!(t.probe(LineAddr(1)).is_some());
    }

    #[test]
    fn dirty_lines_lists_only_dirty() {
        let mut t = tags();
        t.install(LineAddr(1), 0, LineState::Valid, Pc(0), true);
        t.install(LineAddr(2), 0, LineState::Valid, Pc(0), false);
        t.install(LineAddr(3), 0, LineState::Valid, Pc(0), true);
        let mut d = vec![LineAddr(99)];
        t.dirty_lines_into(&mut d);
        d.sort();
        assert_eq!(d, vec![LineAddr(1), LineAddr(3)]);
    }

    /// The whole-array walks the touched-slot bitmap replaces.
    fn full_walk_dirty(t: &TagArray) -> Vec<LineAddr> {
        t.lines
            .iter()
            .filter(|l| t.is_live(l) && l.state == LineState::Valid && l.dirty)
            .map(|l| l.line)
            .collect()
    }

    fn full_walk_flash(t: &TagArray) -> Vec<(LineAddr, bool, Pc)> {
        t.lines
            .iter()
            .filter(|l| l.state == LineState::Valid && l.epoch == t.epoch)
            .map(|l| (l.line, l.referenced, l.pc))
            .collect()
    }

    /// Random install / fill / hit / dirty / clean / evict sequences
    /// between kernel boundaries, as the cache unit drives them: at each
    /// boundary the flush list and the flash-invalidation visits must be
    /// the full walk's, order included.
    #[test]
    fn touched_slot_walks_match_the_full_walk() {
        miopt_engine::prop::check("touched_slot_walks_match_the_full_walk", 16, |c| {
            // 16 sets x 4 ways = 64 slots, or 8 x 12 = 96 (a partial
            // bitmap word).
            let (sets, ways) = c.pick(&[(16, 4), (8, 12)]);
            let mut t = TagArray::new(sets, ways, 31, 0);
            let mut out = Vec::new();
            for _boundary in 0..c.steps(1..24) {
                for _ in 0..c.below(200) {
                    let line = LineAddr(c.below(4 * (sets * ways) as u64));
                    let set = t.set_index(line);
                    match c.below(6) {
                        // Allocate for a miss (busy) or write-allocate a
                        // store (valid dirty), as `service` does.
                        0 | 1 => {
                            if t.probe(line).is_some() {
                                continue;
                            }
                            let way = match t.find_victim(line) {
                                Victim::Free(w) | Victim::Clean(w) | Victim::Dirty(w) => w,
                                Victim::AllBusy => continue,
                            };
                            let pc = Pc(c.below(8) as u32);
                            if c.below(2) == 0 {
                                t.install(line, way, LineState::Busy, pc, false);
                            } else {
                                t.install(line, way, LineState::Valid, pc, true);
                            }
                        }
                        // A fill turns a busy way valid.
                        2 => {
                            let way = c.below(ways as u64) as usize;
                            if t.line(set, way).state == LineState::Busy {
                                t.line_mut(set, way).state = LineState::Valid;
                            }
                        }
                        // A hit, maybe a store absorbed.
                        3 => {
                            if let Some((s, w)) = t.probe(line) {
                                if t.line(s, w).state == LineState::Valid {
                                    t.touch(s, w);
                                    t.line_mut(s, w).dirty |= c.below(2) == 0;
                                }
                            }
                        }
                        // A writeback cleans a line.
                        4 => {
                            let way = c.below(ways as u64) as usize;
                            t.line_mut(set, way).dirty = false;
                        }
                        // An eviction or bypass invalidation.
                        _ => {
                            let way = c.below(ways as u64) as usize;
                            if t.line(set, way).state == LineState::Valid {
                                t.invalidate(set, way);
                            }
                        }
                    }
                }
                // The barrier: every fill lands, then the release flush
                // writes back and cleans, then the acquire invalidates.
                for s in 0..sets {
                    for w in 0..ways {
                        if t.line(s, w).state == LineState::Busy {
                            t.line_mut(s, w).state = LineState::Valid;
                        }
                    }
                }
                t.dirty_lines_into(&mut out);
                assert_eq!(out, full_walk_dirty(&t));
                for &line in &out {
                    let (s, w) = t.probe(line).expect("dirty lines are live");
                    t.line_mut(s, w).dirty = false;
                }
                let want = full_walk_flash(&t);
                let mut got = Vec::new();
                t.flash_invalidate(|l| got.push((l.line, l.referenced, l.pc)));
                assert_eq!(got, want);
                assert_eq!(t.live_count(), 0);
                assert!(t.touched.iter().all(|&w| w == 0));
            }
        });
    }

    #[test]
    fn busy_lines_survive_probe_as_live() {
        let mut t = tags();
        t.install(LineAddr(1), 0, LineState::Busy, Pc(0), false);
        assert!(t.probe(LineAddr(1)).is_some());
        assert_eq!(t.busy_count(), 1);
    }

    #[test]
    fn touch_sets_referenced() {
        let mut t = tags();
        t.install(LineAddr(1), 0, LineState::Valid, Pc(0), false);
        assert!(!t.line(1, 0).referenced);
        t.touch(1, 0);
        assert!(t.line(1, 0).referenced);
    }
}
