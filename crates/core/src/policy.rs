use crate::config::ConfigError;
use miopt_cache::{LevelPolicy, PredictorConfig, RowMap};
use std::fmt;

/// The three static GPU caching policies of paper Section III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CachePolicy {
    /// Loads and stores bypass all GPU caches.
    Uncached,
    /// Loads are cached in L1 and L2; stores bypass all GPU caches.
    CacheR,
    /// Loads are cached in L1 and L2; stores bypass the L1 and are
    /// combined in the L2 until the release flush.
    CacheRW,
}

impl CachePolicy {
    /// All three static policies, in the paper's presentation order.
    pub const ALL: [CachePolicy; 3] = [
        CachePolicy::Uncached,
        CachePolicy::CacheR,
        CachePolicy::CacheRW,
    ];
}

impl fmt::Display for CachePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CachePolicy::Uncached => "Uncached",
            CachePolicy::CacheR => "CacheR",
            CachePolicy::CacheRW => "CacheRW",
        })
    }
}

/// The Section VII optimizations, applied cumulatively on `CacheRW` in the
/// paper's evaluation (AB, then AB+CR, then AB+CR+PCby).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct OptimizationSet {
    /// Allocation bypass (Section VII.1): convert to bypass instead of
    /// blocking when every way of a set is busy. Applied at L1 and L2.
    pub allocation_bypass: bool,
    /// Row-locality-aware cache rinsing via a dirty-block index
    /// (Section VII.B). Applied at the L2.
    pub cache_rinsing: bool,
    /// PC-based L2 bypass prediction for loads and stores
    /// (Section VII.C).
    pub pc_bypass: bool,
}

impl OptimizationSet {
    /// No optimizations (the plain static policies).
    #[must_use]
    pub fn none() -> OptimizationSet {
        OptimizationSet::default()
    }

    /// `CacheRW-AB`.
    #[must_use]
    pub fn ab() -> OptimizationSet {
        OptimizationSet {
            allocation_bypass: true,
            ..OptimizationSet::default()
        }
    }

    /// `CacheRW-CR` (AB + rinsing, as in the paper's cumulative ladder).
    #[must_use]
    pub fn ab_cr() -> OptimizationSet {
        OptimizationSet {
            allocation_bypass: true,
            cache_rinsing: true,
            ..OptimizationSet::default()
        }
    }

    /// `CacheRW-PCby` (AB + CR + PC-based bypass).
    #[must_use]
    pub fn ab_cr_pcby() -> OptimizationSet {
        OptimizationSet {
            allocation_bypass: true,
            cache_rinsing: true,
            pc_bypass: true,
        }
    }
}

/// A complete cache configuration: a static policy plus optimizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PolicyConfig {
    /// The static policy.
    pub policy: CachePolicy,
    /// Optimizations layered on top.
    pub opts: OptimizationSet,
}

impl PolicyConfig {
    /// A plain static policy.
    #[must_use]
    pub fn of(policy: CachePolicy) -> PolicyConfig {
        PolicyConfig {
            policy,
            opts: OptimizationSet::none(),
        }
    }

    /// A validated policy-plus-optimizations configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Policy`] for combinations the paper's
    /// mechanisms cannot express: any optimization on `Uncached` (there is
    /// no cache to optimize), an optimization set off the paper's
    /// cumulative ladder AB, AB+CR, AB+CR+PCby (its label would name a
    /// set of the ladder) and cache rinsing outside `CacheRW` (only
    /// write-caching produces the dirty L2 lines rinsing writes back).
    ///
    /// # Examples
    ///
    /// ```
    /// use miopt::{CachePolicy, OptimizationSet, PolicyConfig};
    ///
    /// let p = PolicyConfig::new(CachePolicy::CacheRW, OptimizationSet::ab_cr()).unwrap();
    /// assert_eq!(p.label(), "CacheRW-CR");
    /// assert!(PolicyConfig::new(CachePolicy::Uncached, OptimizationSet::ab()).is_err());
    /// ```
    pub fn new(policy: CachePolicy, opts: OptimizationSet) -> Result<PolicyConfig, ConfigError> {
        let config = PolicyConfig { policy, opts };
        config.validate()?;
        Ok(config)
    }

    /// Checks this configuration against the constraints of
    /// [`PolicyConfig::new`] (which literal-constructed configs skip).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Policy`] for inconsistent combinations.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let any_opt = self.opts.allocation_bypass || self.opts.cache_rinsing || self.opts.pc_bypass;
        if self.policy == CachePolicy::Uncached && any_opt {
            return Err(ConfigError::Policy(
                "Uncached admits no optimizations (all caches are disabled)".to_string(),
            ));
        }
        let o = &self.opts;
        if o.cache_rinsing && !o.allocation_bypass || o.pc_bypass && !o.cache_rinsing {
            return Err(ConfigError::Policy(format!(
                "cache rinsing needs allocation bypass and PC bypass needs cache rinsing \
                 (the paper's cumulative ladder); this set would share the label {}",
                self.label()
            )));
        }
        if self.opts.cache_rinsing && self.policy != CachePolicy::CacheRW {
            return Err(ConfigError::Policy(format!(
                "cache rinsing requires CacheRW (no dirty L2 lines to rinse under {})",
                self.policy
            )));
        }
        Ok(())
    }

    /// The paper's Figure 10 label for this configuration.
    #[must_use]
    pub fn label(&self) -> String {
        let base = self.policy.to_string();
        if self.opts.pc_bypass {
            format!("{base}-PCby")
        } else if self.opts.cache_rinsing {
            format!("{base}-CR")
        } else if self.opts.allocation_bypass {
            format!("{base}-AB")
        } else {
            base
        }
    }

    /// The L1 level policy this configuration implies. Stores always
    /// bypass the L1 (paper Section III).
    #[must_use]
    pub fn l1_policy(&self) -> LevelPolicy {
        match self.policy {
            CachePolicy::Uncached => LevelPolicy::disabled(),
            CachePolicy::CacheR | CachePolicy::CacheRW => LevelPolicy {
                allocation_bypass: self.opts.allocation_bypass,
                ..LevelPolicy::cache_loads_only()
            },
        }
    }

    /// The L2 level policy this configuration implies, given the DRAM row
    /// map used by the dirty-block index.
    #[must_use]
    pub fn l2_policy(&self, row_map: RowMap) -> LevelPolicy {
        let mut p = match self.policy {
            CachePolicy::Uncached => return LevelPolicy::disabled(),
            CachePolicy::CacheR => LevelPolicy::cache_loads_only(),
            CachePolicy::CacheRW => LevelPolicy::cache_loads_and_stores(),
        };
        p.allocation_bypass = self.opts.allocation_bypass;
        if self.opts.cache_rinsing {
            p.rinse = true;
            p.row_map = Some(row_map);
        }
        if self.opts.pc_bypass {
            p.pc_bypass = Some(PredictorConfig::paper());
        }
        p
    }
}

impl fmt::Display for PolicyConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// The five Figure 10 ladder configurations compared against the static
/// best/worst: `CacheRW-AB`, `CacheRW-CR`, `CacheRW-PCby`.
#[must_use]
pub fn optimization_ladder() -> Vec<PolicyConfig> {
    [
        OptimizationSet::ab(),
        OptimizationSet::ab_cr(),
        OptimizationSet::ab_cr_pcby(),
    ]
    .into_iter()
    .map(|opts| {
        PolicyConfig::new(CachePolicy::CacheRW, opts).expect("ladder combinations are valid")
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_paper() {
        assert_eq!(PolicyConfig::of(CachePolicy::Uncached).label(), "Uncached");
        assert_eq!(PolicyConfig::of(CachePolicy::CacheR).label(), "CacheR");
        let l = optimization_ladder();
        assert_eq!(l[0].label(), "CacheRW-AB");
        assert_eq!(l[1].label(), "CacheRW-CR");
        assert_eq!(l[2].label(), "CacheRW-PCby");
    }

    #[test]
    fn uncached_disables_both_levels() {
        let p = PolicyConfig::of(CachePolicy::Uncached);
        assert!(!p.l1_policy().enabled);
        assert!(!p.l2_policy(RowMap::new(4, 5)).enabled);
    }

    #[test]
    fn stores_never_cache_at_l1() {
        for policy in CachePolicy::ALL {
            let p = PolicyConfig::of(policy);
            assert!(!p.l1_policy().cache_stores, "{policy}");
        }
    }

    #[test]
    fn cache_rw_absorbs_stores_at_l2_only() {
        let p = PolicyConfig::of(CachePolicy::CacheRW);
        assert!(p.l2_policy(RowMap::new(4, 5)).cache_stores);
        let r = PolicyConfig::of(CachePolicy::CacheR);
        assert!(!r.l2_policy(RowMap::new(4, 5)).cache_stores);
    }

    #[test]
    fn ladder_is_cumulative() {
        let l = optimization_ladder();
        assert!(l[0].opts.allocation_bypass && !l[0].opts.cache_rinsing);
        assert!(l[1].opts.allocation_bypass && l[1].opts.cache_rinsing && !l[1].opts.pc_bypass);
        assert!(l[2].opts.allocation_bypass && l[2].opts.cache_rinsing && l[2].opts.pc_bypass);
    }

    #[test]
    fn rinse_policy_carries_row_map() {
        let p = PolicyConfig::new(CachePolicy::CacheRW, OptimizationSet::ab_cr()).unwrap();
        let lp = p.l2_policy(RowMap::new(4, 5));
        assert!(lp.rinse);
        assert!(lp.row_map.is_some());
        lp.validate().unwrap();
    }

    #[test]
    fn new_rejects_inconsistent_combinations() {
        // Every optimization set is fine on CacheRW.
        for opts in [
            OptimizationSet::none(),
            OptimizationSet::ab(),
            OptimizationSet::ab_cr(),
            OptimizationSet::ab_cr_pcby(),
        ] {
            assert!(PolicyConfig::new(CachePolicy::CacheRW, opts).is_ok());
        }
        // Uncached admits none of them.
        for opts in [
            OptimizationSet::ab(),
            OptimizationSet::ab_cr(),
            OptimizationSet::ab_cr_pcby(),
        ] {
            assert!(matches!(
                PolicyConfig::new(CachePolicy::Uncached, opts),
                Err(ConfigError::Policy(_))
            ));
        }
        // Rinsing needs write-caching; plain AB does not.
        assert!(PolicyConfig::new(CachePolicy::CacheR, OptimizationSet::ab()).is_ok());
        assert!(matches!(
            PolicyConfig::new(CachePolicy::CacheR, OptimizationSet::ab_cr()),
            Err(ConfigError::Policy(_))
        ));
        // Off the cumulative ladder a set would share a label with one on
        // it (CR alone reads `CacheRW-CR`, like AB+CR).
        let set = |allocation_bypass, cache_rinsing, pc_bypass| OptimizationSet {
            allocation_bypass,
            cache_rinsing,
            pc_bypass,
        };
        for opts in [
            set(false, true, false),
            set(false, false, true),
            set(true, false, true),
            set(false, true, true),
        ] {
            let err = PolicyConfig::new(CachePolicy::CacheRW, opts);
            assert!(matches!(err, Err(ConfigError::Policy(_))), "{opts:?}");
        }
    }
}
