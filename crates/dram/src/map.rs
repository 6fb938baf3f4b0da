use crate::DramConfig;
use miopt_engine::util::log2;
use miopt_engine::LineAddr;

/// The DRAM coordinates of a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramLoc {
    /// Channel index.
    pub channel: u16,
    /// Bank index within the channel.
    pub bank: u16,
    /// Row index within the bank.
    pub row: u64,
    /// Column (line slot) within the row.
    pub column: u64,
}

/// Row-interleaved address mapping: consecutive cache lines fill a DRAM
/// row's columns, then rotate across channels, then banks, then advance
/// rows.
///
/// Layout of the line address, LSB first:
/// `| column | channel | bank | row |`
///
/// The row-sized (2 KB) channel interleave is what GPU HBM stacks use in
/// practice: it lets each of the thousands of concurrent wavefront streams
/// deliver whole-row bursts to one bank, which is the regime in which the
/// paper's streaming MI workloads enjoy high row-buffer locality when
/// uncached (Figure 9) — a 64 B interleave would shred every stream across
/// all banks and no schedule could recover the locality.
///
/// # Examples
///
/// ```
/// use miopt_dram::{AddressMap, DramConfig};
/// use miopt_engine::LineAddr;
///
/// let map = AddressMap::new(&DramConfig::hbm2_paper());
/// let a = map.locate(LineAddr(0));
/// let b = map.locate(LineAddr(1));
/// // Adjacent lines share a row (consecutive columns):
/// assert_eq!(a.channel, b.channel);
/// assert_eq!(a.row, b.row);
/// assert_eq!(b.column, a.column + 1);
/// ```
#[derive(Debug, Clone)]
pub struct AddressMap {
    channel_bits: u32,
    column_bits: u32,
    bank_bits: u32,
}

impl AddressMap {
    /// Builds the mapping for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's geometry is not power-of-two sized
    /// (call [`DramConfig::validate`] first).
    #[must_use]
    pub fn new(cfg: &DramConfig) -> AddressMap {
        AddressMap {
            channel_bits: log2(u64::from(cfg.channels)),
            column_bits: log2(cfg.lines_per_row),
            bank_bits: log2(u64::from(cfg.banks)),
        }
    }

    /// Maps a line address to its DRAM coordinates.
    #[must_use]
    pub fn locate(&self, line: LineAddr) -> DramLoc {
        let mut v = line.0;
        let column = v & ((1 << self.column_bits) - 1);
        v >>= self.column_bits;
        let channel = (v & ((1 << self.channel_bits) - 1)) as u16;
        v >>= self.channel_bits;
        let bank = (v & ((1 << self.bank_bits) - 1)) as u16;
        v >>= self.bank_bits;
        DramLoc {
            channel,
            bank,
            row: v,
            column,
        }
    }

    /// Inverse of [`locate`](AddressMap::locate): reconstructs the line
    /// address of a coordinate.
    #[must_use]
    pub fn line_of(&self, loc: DramLoc) -> LineAddr {
        let mut v = loc.row;
        v = (v << self.bank_bits) | u64::from(loc.bank);
        v = (v << self.channel_bits) | u64::from(loc.channel);
        v = (v << self.column_bits) | loc.column;
        LineAddr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_round_trips() {
        let map = AddressMap::new(&DramConfig::hbm2_paper());
        for line in [0u64, 1, 15, 16, 12345, 1 << 24, (1 << 28) - 1] {
            let loc = map.locate(LineAddr(line));
            assert_eq!(map.line_of(loc), LineAddr(line), "line {line}");
        }
    }

    #[test]
    fn a_row_of_lines_shares_channel_bank_row() {
        let cfg = DramConfig::hbm2_paper();
        let map = AddressMap::new(&cfg);
        let first = map.locate(LineAddr(0));
        for i in 0..cfg.lines_per_row {
            let loc = map.locate(LineAddr(i));
            assert_eq!(loc.channel, first.channel);
            assert_eq!(loc.bank, first.bank);
            assert_eq!(loc.row, first.row);
            assert_eq!(loc.column, i);
        }
        // The next line starts the next channel.
        let next = map.locate(LineAddr(cfg.lines_per_row));
        assert_eq!(next.channel, first.channel + 1);
        assert_eq!(next.column, 0);
    }

    #[test]
    fn channels_rotate_before_banks() {
        let cfg = DramConfig::hbm2_paper();
        let map = AddressMap::new(&cfg);
        let lines_per_channel_sweep = cfg.lines_per_row * u64::from(cfg.channels);
        let loc = map.locate(LineAddr(lines_per_channel_sweep));
        assert_eq!(loc.channel, 0);
        assert_eq!(loc.bank, 1);
        assert_eq!(loc.row, 0);
    }

    #[test]
    fn row_advances_after_all_banks() {
        let cfg = DramConfig::hbm2_paper();
        let map = AddressMap::new(&cfg);
        let sweep = cfg.lines_per_row * u64::from(cfg.banks) * u64::from(cfg.channels);
        let loc = map.locate(LineAddr(sweep));
        assert_eq!(loc.row, 1);
        assert_eq!(loc.bank, 0);
        assert_eq!(loc.channel, 0);
        assert_eq!(loc.column, 0);
    }
}
