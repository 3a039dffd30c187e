//! The per-layer catalogue and the obs-profile readers behind it.
//!
//! Every per-layer metric is measured from outside the crates: wall
//! readings come from the benchmark's own timers around public entry
//! points, and the kernel split comes from the existing `rmac-obs` kernel
//! profiler, switched on through `ObsConfig { kernel_wall: true }`.
//! `layers.json` records which crate each metric belongs to and which
//! end-to-end metric and workload it should move; a metric a workload
//! does not exercise reads 0 there.

use std::collections::BTreeMap;

use rmac_engine::obs::{EVENT_CLASS_LABELS, TIMER_LABELS};
use rmac_engine::ObsReport;
use rmac_obs::LogHistogram;

/// Every per-layer metric, `(name, unit)`, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.events", "count"),
    ("engine.dispatch_per_s", "1/s"),
    ("engine.loop_self_s", "s"),
    ("sim.heap_over_calendar", "ratio"),
    ("phy.frame_start.count", "count"),
    ("phy.frame_start.self_s", "s"),
    ("phy.frame_start.p50_ns", "ns"),
    ("phy.frame_end.count", "count"),
    ("phy.frame_end.self_s", "s"),
    ("phy.frame_end.p50_ns", "ns"),
    ("phy.tx_complete.count", "count"),
    ("phy.tx_complete.self_s", "s"),
    ("phy.tx_complete.p50_ns", "ns"),
    ("phy.tone_edge.count", "count"),
    ("phy.tone_edge.self_s", "s"),
    ("phy.tone_edge.p50_ns", "ns"),
    ("phy.brute_over_grid", "ratio"),
    ("core.mac_timer.count", "count"),
    ("core.mac_timer.self_s", "s"),
    ("core.backoff_slot.fired", "count"),
    ("core.timer_stale_ratio", "ratio"),
    ("core.rmac.mac_timer.count", "count"),
    ("core.rmac.mac_timer.self_s", "s"),
    ("core.rmac.backoff_slot.fired", "count"),
    ("core.rmac.timer_stale_ratio", "ratio"),
    ("core.bmmm.mac_timer.count", "count"),
    ("core.bmmm.mac_timer.self_s", "s"),
    ("core.bmmm.backoff_slot.fired", "count"),
    ("core.bmmm.timer_stale_ratio", "ratio"),
    ("net.beacon.self_s", "s"),
    ("net.source.self_s", "s"),
    ("net.forwarders", "count"),
    ("check.overhead_ratio", "ratio"),
    ("campaign.pool_eff", "ratio"),
    ("campaign.straggler_s", "s"),
    ("shard.groups", "count"),
    ("shard.balance", "ratio"),
    ("shard.parallel_eff", "ratio"),
    ("shard.cross_pushes", "count"),
    ("shard.over_flat", "ratio"),
    ("live.steps_per_packet", "ratio"),
    ("live.hub_datagrams_per_packet", "ratio"),
    ("live.dup_ratio", "ratio"),
    ("live.mac_retx_per_packet", "ratio"),
    ("wire.codec_ns", "ns"),
    ("wire.codec_share", "ratio"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// Per-layer values of one traced run, by metric name.
pub type Layers = BTreeMap<String, f64>;

/// The deterministic counts of one traced round, by name: the values the
/// count-determinism self-check requires to repeat exactly.
pub type Counts = BTreeMap<String, u64>;

fn class(label: &str) -> usize {
    EVENT_CLASS_LABELS
        .iter()
        .position(|l| *l == label)
        .unwrap_or_else(|| panic!("the engine no longer profiles event class {label}"))
}

fn timer(label: &str) -> usize {
    TIMER_LABELS
        .iter()
        .position(|l| *l == label)
        .unwrap_or_else(|| panic!("the engine no longer profiles timer kind {label}"))
}

/// The kernel profile of one or more traced replications, summed.
#[derive(Clone, Default)]
pub struct Kernel {
    counts: Vec<u64>,
    wall: Vec<LogHistogram>,
    timer_fired: u64,
    timer_stale: u64,
    backoff_fired: u64,
}

impl Kernel {
    pub fn add(&mut self, obs: &ObsReport) {
        let n = EVENT_CLASS_LABELS.len();
        self.counts.resize(n, 0);
        self.wall.resize(n, LogHistogram::new());
        for c in 0..n {
            self.counts[c] += obs.kernel.class_count(c);
            self.wall[c].merge(obs.kernel.class_wall(c));
        }
        let backoff = timer("backoff_slot");
        for node in &obs.nodes {
            self.timer_fired += node.timer_fire_total();
            self.timer_stale += node.timer_stale_total();
            self.backoff_fired += node.timer_fire[backoff];
        }
    }

    /// Summed dispatch wall of every class, in seconds.
    pub fn dispatch_s(&self) -> f64 {
        self.wall.iter().map(|h| h.sum() as f64 / 1e9).sum()
    }

    fn self_s(&self, label: &str) -> f64 {
        self.wall
            .get(class(label))
            .map_or(0.0, |h| h.sum() as f64 / 1e9)
    }

    /// The kernel-split metrics: `phy.*`, `net.*` and the unsplit
    /// `core.*` self times and counts into `layers`, and the dispatch
    /// counts into `counts`.
    pub fn report(&self, layers: &mut Layers, counts: &mut Counts) {
        if self.counts.is_empty() {
            return;
        }
        for phy in ["frame_start", "frame_end", "tx_complete", "tone_edge"] {
            let c = class(&format!("phy.{phy}"));
            layers.insert(format!("phy.{phy}.count"), self.counts[c] as f64);
            layers.insert(format!("phy.{phy}.self_s"), self.wall[c].sum() as f64 / 1e9);
            layers.insert(format!("phy.{phy}.p50_ns"), p50_ns(&self.wall[c]));
            counts.insert(format!("phy.{phy}.count"), self.counts[c]);
        }
        layers.insert("net.beacon.self_s".into(), self.self_s("beacon"));
        layers.insert("net.source.self_s".into(), self.self_s("source"));
        self.report_core("", layers, counts);
    }

    /// The `core.<prefix>*` MAC timer metrics (`prefix` is empty for the
    /// unsplit totals, `rmac.`/`bmmm.` for the per-protocol split).
    pub fn report_core(&self, prefix: &str, layers: &mut Layers, counts: &mut Counts) {
        if self.counts.is_empty() {
            return;
        }
        let timers = self.counts[class("mac_timer")];
        let fires = self.timer_fired + self.timer_stale;
        let stale_ratio = if fires == 0 {
            0.0
        } else {
            self.timer_stale as f64 / fires as f64
        };
        layers.insert(format!("core.{prefix}mac_timer.count"), timers as f64);
        layers.insert(
            format!("core.{prefix}mac_timer.self_s"),
            self.self_s("mac_timer"),
        );
        layers.insert(
            format!("core.{prefix}backoff_slot.fired"),
            self.backoff_fired as f64,
        );
        layers.insert(format!("core.{prefix}timer_stale_ratio"), stale_ratio);
        counts.insert(format!("core.{prefix}mac_timer.count"), timers);
        counts.insert(
            format!("core.{prefix}backoff_slot.fired"),
            self.backoff_fired,
        );
        counts.insert(format!("core.{prefix}timer_stale"), self.timer_stale);
    }
}

/// Median of a dispatch-wall histogram, interpolated linearly inside the
/// power-of-two bucket that holds it. The histogram keeps only bucket
/// counts, and its own `quantile` returns the bucket's upper bound, which
/// reads the same on every run until the median crosses a bucket edge.
fn p50_ns(h: &LogHistogram) -> f64 {
    let rank = h.count() as f64 / 2.0;
    let mut seen = 0.0;
    for (upper, count) in h.buckets() {
        let count = count as f64;
        if seen + count >= rank && upper > 0 {
            let lower = (upper / 2 + 1) as f64;
            let at = lower + (rank - seen) / count * (upper as f64 + 1.0 - lower);
            return at.clamp(h.min() as f64, h.max() as f64);
        }
        seen += count;
    }
    0.0
}

/// Median of each named value across traced rounds.
pub fn median_rounds(rounds: &[Layers]) -> Layers {
    let mut names: Vec<&String> = rounds.iter().flat_map(|r| r.keys()).collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let values: Vec<f64> = rounds.iter().filter_map(|r| r.get(name).copied()).collect();
            (name.clone(), crate::host::median(&values))
        })
        .collect()
}
