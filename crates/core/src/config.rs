use miopt_cache::{CacheConfig, RowMap};
use miopt_dram::DramConfig;
use miopt_engine::util::log2;
use miopt_gpu::CuConfig;
use std::error::Error;
use std::fmt;

/// A typed validation error naming the configuration layer that rejected
/// its parameters.
///
/// Produced by [`SystemConfig::validate`], [`SystemConfigBuilder::build`],
/// [`crate::PolicyConfig::new`] and
/// [`crate::runner::RunOptions::validate`], and carried into
/// [`crate::runner::SimError::Config`] by the runner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A system-level parameter (CU count, queue sizing, clock…) is
    /// invalid.
    System(String),
    /// The L1 cache geometry is invalid (e.g. zero ways).
    L1(String),
    /// The L2 cache geometry is invalid.
    L2(String),
    /// The DRAM geometry is invalid.
    Dram(String),
    /// The cache-policy combination is inconsistent.
    Policy(String),
    /// The run options are invalid (e.g. a telemetry interval of 0).
    Run(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::System(msg) => write!(f, "system config: {msg}"),
            ConfigError::L1(msg) => write!(f, "l1 config: {msg}"),
            ConfigError::L2(msg) => write!(f, "l2 config: {msg}"),
            ConfigError::Dram(msg) => write!(f, "dram config: {msg}"),
            ConfigError::Policy(msg) => write!(f, "policy config: {msg}"),
            ConfigError::Run(msg) => write!(f, "run options: {msg}"),
        }
    }
}

impl Error for ConfigError {}

/// Full-system configuration (the paper's Table 1).
///
/// # Examples
///
/// ```
/// use miopt::SystemConfig;
///
/// let cfg = SystemConfig::paper_table1();
/// assert_eq!(cfg.n_cus, 64);
/// assert_eq!(cfg.l2_slices, 16);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Compute units (Table 1: 64).
    pub n_cus: usize,
    /// Per-CU geometry.
    pub cu: CuConfig,
    /// Per-CU L1 data cache.
    pub l1: CacheConfig,
    /// L2 slices (address-interleaved; Table 1's 4 MB L2 is 16 x 256 KB).
    pub l2_slices: usize,
    /// Per-slice L2 geometry.
    pub l2: CacheConfig,
    /// The HBM2 memory system.
    pub dram: DramConfig,
    /// GPU clock in Hz (Table 1: 1.6 GHz); converts cycles to seconds for
    /// the GVOPS / GMR/s figures.
    pub gpu_clock_hz: f64,
    /// CU → L1 request latency (cycles).
    pub lat_cu_l1: u64,
    /// L1 → CU response latency.
    pub lat_l1_resp: u64,
    /// L1 → crossbar → L2 request latency.
    pub lat_l1_l2: u64,
    /// L2 → crossbar → L1 response latency.
    pub lat_l2_resp: u64,
    /// L2 → DRAM request latency.
    pub lat_l2_dram: u64,
    /// DRAM → L2 response latency.
    pub lat_dram_resp: u64,
    /// Queue capacities between stages.
    pub queue_capacity: usize,
    /// Messages per output port per cycle through the crossbars.
    pub xbar_per_output: u32,
    /// Cycles of host work between kernel launches (driver + dispatch).
    pub launch_overhead: u64,
}

impl SystemConfig {
    /// The paper's Table 1 system: 64 CUs at 1.6 GHz, 16 KB 16-way L1 per
    /// CU, 4 MB 16-way shared L2, HBM2 at 512 GB/s, with uncontested
    /// L1/L2/memory latencies of roughly 50/125/225 cycles.
    #[must_use]
    pub fn paper_table1() -> SystemConfig {
        SystemConfig {
            n_cus: 64,
            cu: CuConfig::paper(),
            l1: CacheConfig::l1_paper(),
            l2_slices: 16,
            l2: CacheConfig::l2_slice_paper(),
            dram: DramConfig::hbm2_paper(),
            gpu_clock_hz: 1.6e9,
            lat_cu_l1: 24,
            lat_l1_resp: 24,
            lat_l1_l2: 36,
            lat_l2_resp: 36,
            lat_l2_dram: 25,
            lat_dram_resp: 25,
            queue_capacity: 32,
            xbar_per_output: 4,
            launch_overhead: 3000,
        }
    }

    /// A small system for fast unit and integration tests: 4 CUs, 2 L2
    /// slices, tiny DRAM, short latencies.
    #[must_use]
    pub fn small_test() -> SystemConfig {
        SystemConfig {
            n_cus: 4,
            cu: CuConfig {
                simds: 2,
                wf_slots_per_simd: 4,
                mem_issue_per_cycle: 1,
            },
            l1: CacheConfig {
                sets: 8,
                ways: 4,
                mshr_entries: 8,
                mshr_merge_cap: 4,
                port_width: 1,
                dbi_rows: 0,
                flush_width: 2,
                index_low_bits: 31,
                index_skip_bits: 0,
            },
            l2_slices: 2,
            l2: CacheConfig {
                sets: 256,
                ways: 8,
                mshr_entries: 16,
                mshr_merge_cap: 8,
                port_width: 1,
                dbi_rows: 16,
                flush_width: 2,
                // tiny DRAM: 8-line rows (3 column bits), 2 slices (1 bit).
                index_low_bits: 3,
                index_skip_bits: 1,
            },
            dram: DramConfig::tiny_test(),
            gpu_clock_hz: 1.6e9,
            lat_cu_l1: 4,
            lat_l1_resp: 4,
            lat_l1_l2: 4,
            lat_l2_resp: 4,
            lat_l2_dram: 2,
            lat_dram_resp: 2,
            queue_capacity: 16,
            xbar_per_output: 2,
            launch_overhead: 100,
        }
    }

    /// The [`RowMap`] matching this configuration's DRAM address mapping
    /// (used by the L2 dirty-block index).
    ///
    /// # Panics
    ///
    /// Panics if the DRAM geometry is not power-of-two sized.
    #[must_use]
    pub fn row_map(&self) -> RowMap {
        // The DRAM layout is | column | channel | bank | row |, so
        // stripping the column bits identifies the row uniquely.
        RowMap::new(0, log2(self.dram.lines_per_row))
    }

    /// Which L2 slice a line belongs to: row-aligned so that a DRAM row's
    /// lines live in one slice (the dirty-block index tracks whole rows)
    /// and each slice fronts one DRAM channel.
    #[must_use]
    pub fn l2_slice_of(&self, line: miopt_engine::LineAddr) -> usize {
        ((line.0 >> log2(self.dram.lines_per_row)) as usize) % self.l2_slices
    }

    /// A builder seeded from [`SystemConfig::paper_table1`] whose
    /// [`SystemConfigBuilder::build`] validates the result, turning
    /// inconsistent configurations into typed errors instead of panics
    /// deep inside [`crate::ApuSystem::new`].
    #[must_use]
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder::from_base(SystemConfig::paper_table1())
    }

    /// Validates all component configurations.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint, tagged with the layer that
    /// rejected it.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_cus == 0 {
            return Err(ConfigError::System("n_cus must be nonzero".to_string()));
        }
        if self.l2_slices == 0 {
            return Err(ConfigError::System("l2_slices must be nonzero".to_string()));
        }
        self.l1.validate().map_err(ConfigError::L1)?;
        self.l2.validate().map_err(ConfigError::L2)?;
        self.dram.validate().map_err(ConfigError::Dram)?;
        if self.queue_capacity == 0 {
            return Err(ConfigError::System(
                "queue_capacity must be nonzero".to_string(),
            ));
        }
        // Undersized queues could deadlock fills behind merged misses.
        if self.queue_capacity <= self.l1.mshr_merge_cap
            || self.queue_capacity <= self.l2.mshr_merge_cap
        {
            return Err(ConfigError::System(format!(
                "queue_capacity ({}) must exceed the L1/L2 MSHR merge caps ({}/{})",
                self.queue_capacity, self.l1.mshr_merge_cap, self.l2.mshr_merge_cap
            )));
        }
        if self.gpu_clock_hz <= 0.0 {
            return Err(ConfigError::System(
                "gpu_clock_hz must be positive".to_string(),
            ));
        }
        Ok(())
    }

    /// Seconds represented by `cycles` at this configuration's clock.
    #[must_use]
    pub fn seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.gpu_clock_hz
    }
}

impl Default for SystemConfig {
    fn default() -> SystemConfig {
        SystemConfig::paper_table1()
    }
}

/// A validating builder for [`SystemConfig`].
///
/// Starts from a known-good base (Table 1 via [`SystemConfig::builder`],
/// or any config via [`SystemConfigBuilder::from_base`]), applies
/// overrides, and checks every cross-field constraint in
/// [`SystemConfigBuilder::build`] so misconfigurations surface as
/// [`ConfigError`]s at construction time instead of panics at run time.
///
/// # Examples
///
/// ```
/// use miopt::SystemConfig;
///
/// let cfg = SystemConfig::builder()
///     .map(|c| {
///         c.n_cus = 32;
///         c.launch_overhead = 1500;
///     })
///     .build()
///     .unwrap();
/// assert_eq!(cfg.n_cus, 32);
///
/// // Inconsistent parameters are rejected with a typed error.
/// assert!(SystemConfig::builder()
///     .map(|c| c.queue_capacity = 0)
///     .build()
///     .is_err());
/// ```
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    cfg: SystemConfig,
}

impl SystemConfigBuilder {
    /// Starts a builder from an existing configuration.
    #[must_use]
    pub fn from_base(cfg: SystemConfig) -> SystemConfigBuilder {
        SystemConfigBuilder { cfg }
    }

    /// Applies an in-place edit to the configuration: any fields, in
    /// any order, and as many calls as needed.
    /// [`SystemConfigBuilder::build`] checks the result.
    #[must_use]
    pub fn map(mut self, edit: impl FnOnce(&mut SystemConfig)) -> SystemConfigBuilder {
        edit(&mut self.cfg);
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint (see
    /// [`SystemConfig::validate`]).
    pub fn build(self) -> Result<SystemConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miopt_engine::LineAddr;

    #[test]
    fn paper_config_matches_table_1() {
        let c = SystemConfig::paper_table1();
        c.validate().unwrap();
        assert_eq!(c.n_cus, 64);
        assert_eq!(c.cu.simds, 4);
        assert_eq!(c.cu.wf_slots_per_simd, 10);
        assert_eq!(c.l1.bytes(), 16 * 1024);
        assert_eq!(c.l2.bytes() * c.l2_slices as u64, 4 * 1024 * 1024);
        assert_eq!(c.dram.channels, 16);
        assert!((c.gpu_clock_hz - 1.6e9).abs() < 1.0);
    }

    #[test]
    fn small_test_config_is_valid() {
        SystemConfig::small_test().validate().unwrap();
    }

    #[test]
    fn builder_round_trips_the_base_and_applies_overrides() {
        assert_eq!(
            SystemConfig::builder().build().unwrap(),
            SystemConfig::paper_table1()
        );
        let cfg = SystemConfigBuilder::from_base(SystemConfig::small_test())
            .map(|c| c.launch_overhead = 7)
            .map(|c| c.l1.mshr_entries = 2)
            .build()
            .unwrap();
        assert_eq!(cfg.launch_overhead, 7);
        assert_eq!(cfg.l1.mshr_entries, 2);
    }

    #[test]
    fn builder_rejects_inconsistent_configs_with_typed_errors() {
        assert!(matches!(
            SystemConfig::builder().map(|c| c.n_cus = 0).build(),
            Err(ConfigError::System(_))
        ));
        assert!(matches!(
            SystemConfig::builder().map(|c| c.l1.ways = 0).build(),
            Err(ConfigError::L1(_))
        ));
        assert!(matches!(
            SystemConfig::builder().map(|c| c.l2.sets = 0).build(),
            Err(ConfigError::L2(_))
        ));
        // A queue sized at or below the MSHR merge cap could deadlock.
        let err = SystemConfig::builder()
            .map(|c| c.queue_capacity = 4)
            .build();
        assert!(matches!(err, Err(ConfigError::System(ref m)) if m.contains("merge caps")));
    }

    #[test]
    fn slice_routing_covers_all_slices() {
        let c = SystemConfig::paper_table1();
        let mut seen = vec![false; c.l2_slices];
        for l in 0..(c.dram.lines_per_row * 16) {
            seen[c.l2_slice_of(LineAddr(l))] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn seconds_uses_the_clock() {
        let c = SystemConfig::paper_table1();
        assert!((c.seconds(1_600_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn row_map_is_consistent_with_dram() {
        let c = SystemConfig::paper_table1();
        let map = c.row_map();
        let dmap = miopt_dram::AddressMap::new(&c.dram);
        // Two lines in the same DRAM row must share a row key, and
        // different rows must differ.
        for (a, b, same) in [
            (0u64, 1, true), // next column, same row
            (0, 31, true),   // last column of the same row
            (0, 32, false),  // next channel
            (0, 512, false), // next bank
        ] {
            let la = dmap.locate(LineAddr(a));
            let lb = dmap.locate(LineAddr(b));
            let keys_same = map.key(LineAddr(a)) == map.key(LineAddr(b));
            let locs_same = (la.channel, la.bank, la.row) == (lb.channel, lb.bank, lb.row);
            assert_eq!(keys_same, same, "{a} vs {b}");
            assert_eq!(locs_same, same, "{a} vs {b} (dram)");
        }
    }
}
