use miopt_engine::util::is_pow2;

/// DRAM geometry and timing configuration.
///
/// All timings are in GPU cycles (1.6 GHz). The HBM2 interface of Table 1
/// runs at 1000 MHz, so one memory cycle is 1.6 GPU cycles; the defaults
/// below are the usual HBM2 timings converted and rounded.
///
/// # Examples
///
/// ```
/// use miopt_dram::DramConfig;
///
/// let cfg = DramConfig::hbm2_paper();
/// assert_eq!(cfg.channels, 16);
/// assert_eq!(cfg.banks, 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of independent channels (Table 1: 16).
    pub channels: u16,
    /// Banks per channel (Table 1: 16).
    pub banks: u16,
    /// Cache lines per DRAM row (2 KB row / 64 B line = 32).
    pub lines_per_row: u64,
    /// Per-channel scheduler queue capacity.
    pub queue_capacity: usize,
    /// Row activate time (tRCD), GPU cycles.
    pub t_activate: u64,
    /// Precharge time (tRP), GPU cycles.
    pub t_precharge: u64,
    /// Column access latency (tCL), GPU cycles.
    pub t_cas: u64,
    /// Data-bus occupancy of one 64 B burst, GPU cycles.
    ///
    /// 16 channels x 64 B / 3 cycles at 1.6 GHz = 546 GB/s, matching the
    /// paper's 512 GB/s within 7%.
    pub t_burst: u64,
    /// Bus turnaround penalty when switching between reads and writes.
    pub t_switch: u64,
    /// How many queued requests the FR-FCFS scheduler inspects for a
    /// row hit before falling back to the oldest request.
    pub frfcfs_window: usize,
    /// Maximum cycles a request may be bypassed by younger row hits before
    /// it is forced (starvation cap).
    pub starvation_cap: u64,
}

impl DramConfig {
    /// The paper's Table 1 memory system: HBM2, 16 channels, 16
    /// banks/channel, 1000 MHz, 512 GB/s.
    #[must_use]
    pub fn hbm2_paper() -> DramConfig {
        DramConfig {
            channels: 16,
            banks: 16,
            lines_per_row: 32,
            queue_capacity: 48,
            t_activate: 22,
            t_precharge: 22,
            t_cas: 22,
            t_burst: 3,
            t_switch: 8,
            frfcfs_window: 16,
            starvation_cap: 2000,
        }
    }

    /// A tiny geometry for fast unit tests (2 channels, 4 banks, 8-line
    /// rows).
    #[must_use]
    pub fn tiny_test() -> DramConfig {
        DramConfig {
            channels: 2,
            banks: 4,
            lines_per_row: 8,
            queue_capacity: 8,
            t_activate: 10,
            t_precharge: 10,
            t_cas: 10,
            t_burst: 2,
            t_switch: 4,
            frfcfs_window: 8,
            starvation_cap: 500,
        }
    }

    /// Validates that the geometry is usable (powers of two where the
    /// address mapping requires them, nonzero timings).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !is_pow2(u64::from(self.channels)) {
            return Err(format!(
                "channels must be a power of two, got {}",
                self.channels
            ));
        }
        if !is_pow2(u64::from(self.banks)) {
            return Err(format!("banks must be a power of two, got {}", self.banks));
        }
        if !is_pow2(self.lines_per_row) {
            return Err(format!(
                "lines_per_row must be a power of two, got {}",
                self.lines_per_row
            ));
        }
        if self.t_burst == 0 {
            return Err("t_burst must be nonzero".to_string());
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be nonzero".to_string());
        }
        if self.frfcfs_window == 0 {
            return Err("frfcfs_window must be nonzero".to_string());
        }
        // The channel scheduler keeps banks and window positions as bits
        // of one word.
        if self.banks > 64 || self.frfcfs_window > 64 {
            return Err(format!(
                "banks and frfcfs_window must be at most 64, got {} and {}",
                self.banks, self.frfcfs_window
            ));
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> DramConfig {
        DramConfig::hbm2_paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        DramConfig::hbm2_paper().validate().unwrap();
        DramConfig::tiny_test().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_geometry() {
        let mut cfg = DramConfig::hbm2_paper();
        cfg.channels = 3;
        assert!(cfg.validate().is_err());

        let mut cfg = DramConfig::hbm2_paper();
        cfg.banks = 5;
        assert!(cfg.validate().is_err());

        let mut cfg = DramConfig::hbm2_paper();
        cfg.lines_per_row = 33;
        assert!(cfg.validate().is_err());

        let mut cfg = DramConfig::hbm2_paper();
        cfg.t_burst = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = DramConfig::hbm2_paper();
        cfg.frfcfs_window = 65;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn paper_bandwidth_is_close_to_512_gbs() {
        let cfg = DramConfig::hbm2_paper();
        // bytes per second = channels * 64 / (t_burst / 1.6e9)
        let bw = f64::from(cfg.channels) * 64.0 * 1.6e9 / cfg.t_burst as f64;
        let gbs = bw / 1e9;
        assert!((450.0..600.0).contains(&gbs), "bandwidth {gbs} GB/s");
    }
}
