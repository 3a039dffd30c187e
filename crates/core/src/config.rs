//! MAC configuration.

use rmac_wire::consts::{CW_MAX, CW_MIN, MAX_MRTS_RECEIVERS, RETRY_LIMIT};

/// Tunable MAC parameters. Defaults follow the paper (§3.3–§3.4) and the
/// 802.11b values it defers to; the extra switches drive the ablation
/// experiments in `rmac-experiments`.
#[derive(Clone, Copy, Debug)]
pub struct MacConfig {
    /// Minimum contention window, in slots (802.11b: 31).
    pub cw_min: u64,
    /// Maximum contention window, in slots (802.11b: 1023).
    pub cw_max: u64,
    /// Re-attempts allowed per Reliable Send chunk before it is dropped.
    pub retry_limit: u32,
    /// §3.4 refinement: receivers per Reliable Send invocation; larger
    /// groups are split across invocations.
    pub max_receivers: usize,
    /// Transmit queue capacity (frames).
    pub queue_capacity: usize,
    /// Ablation X2: when false, receivers do *not* raise the RBT during
    /// data reception (the tone still answers the MRTS), so data frames
    /// lose their hidden-terminal protection.
    pub rbt_data_protection: bool,
    /// Deliberate conformance mutant: when true the sender skips the
    /// WF_RBT λ-detection and transmits reliable data even when no RBT was
    /// sensed. Exists so the checker's C1 invariant has a known-broken MAC
    /// to catch; never enabled in experiments.
    pub skip_rbt_sense: bool,
    /// Arm a backoff wake-up on every 20 µs slot boundary instead of only
    /// where the countdown can end or suspend. Results are bit-identical
    /// apart from the event count; the per-slot countdown is the oracle
    /// the lazy one is tested against (DESIGN.md §12).
    pub per_slot_backoff: bool,
}

impl Default for MacConfig {
    fn default() -> Self {
        MacConfig {
            cw_min: CW_MIN,
            cw_max: CW_MAX,
            retry_limit: RETRY_LIMIT,
            max_receivers: MAX_MRTS_RECEIVERS,
            queue_capacity: 512,
            rbt_data_protection: true,
            skip_rbt_sense: false,
            per_slot_backoff: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MacConfig::default();
        assert_eq!(c.cw_min, 31);
        assert_eq!(c.cw_max, 1023);
        assert_eq!(c.retry_limit, 7);
        assert_eq!(c.max_receivers, 20);
        assert!(c.rbt_data_protection);
        assert!(!c.skip_rbt_sense);
        assert!(!c.per_slot_backoff);
    }
}
