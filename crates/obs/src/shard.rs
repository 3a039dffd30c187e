//! Shard-balance reporting: per-group scheduling rows from the sharded
//! conservative-sync engine.
//!
//! The engine's `ShardStats` exports one [`ShardGroupRow`] per shard group
//! (a bin of radio components); this module renders the set as an aligned
//! balance table (for `obs_report`) and as JSON (for `results/obs/`). The
//! node, component and event counts and the estimated cost share are
//! deterministic; the wall reading is scheduling telemetry and lives
//! outside the determinism domain, like the kernel profiler's clocks.

use std::fmt::Write as _;

/// One shard group's scheduling row.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardGroupRow {
    /// Protocol nodes the group owns.
    pub nodes: usize,
    /// Radio components packed into the group.
    pub components: usize,
    /// The group's share of the engine's estimated run cost (0..=1).
    pub est_share: f64,
    /// Events the group dispatched.
    pub events: u64,
    /// Wall-clock nanoseconds the group's worker spent on it.
    pub wall_ns: u64,
}

/// Aligned plain-text shard-balance table: one row per group with its
/// estimated cost share next to its actual event share, plus a totals
/// line. Balance (max/mean events per group) quantifies how evenly the
/// packing split the work.
pub fn render_shard_balance(rows: &[ShardGroupRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>8} {:>6} {:>12} {:>8} {:>8} {:>10}",
        "group", "nodes", "comps", "events", "est%", "actual%", "wall_ms"
    );
    let tot_events: u64 = rows.iter().map(|r| r.events).sum();
    let max_events = rows.iter().map(|r| r.events).max().unwrap_or(0);
    for (i, r) in rows.iter().enumerate() {
        let actual = if tot_events == 0 {
            0.0
        } else {
            100.0 * r.events as f64 / tot_events as f64
        };
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>6} {:>12} {:>8.1} {:>8.1} {:>10.3}",
            i,
            r.nodes,
            r.components,
            r.events,
            100.0 * r.est_share,
            actual,
            r.wall_ns as f64 / 1e6,
        );
    }
    let balance = if tot_events == 0 {
        1.0
    } else {
        max_events as f64 * rows.len() as f64 / tot_events as f64
    };
    let _ = writeln!(
        out,
        "total: {} groups, {} events, balance (max/mean events) {:.2}",
        rows.len(),
        tot_events,
        balance
    );
    out
}

/// The balance rows as a JSON array (hand-rolled, like every serializer in
/// this workspace).
pub fn shard_balance_json(rows: &[ShardGroupRow]) -> String {
    let body = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"nodes\":{},\"components\":{},\"est_share\":{:.6},\
                 \"events\":{},\"wall_ns\":{}}}",
                r.nodes, r.components, r.est_share, r.events, r.wall_ns
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!("[{body}]")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<ShardGroupRow> {
        vec![
            ShardGroupRow {
                nodes: 250,
                components: 1,
                est_share: 0.55,
                events: 300,
                wall_ns: 2_500_000,
            },
            ShardGroupRow {
                nodes: 1750,
                components: 12,
                est_share: 0.45,
                events: 100,
                wall_ns: 900_000,
            },
        ]
    }

    #[test]
    fn render_lists_groups_and_totals() {
        let s = render_shard_balance(&rows());
        // Estimated share next to the actual event share (300/400).
        assert!(s.contains("55.0"));
        assert!(s.contains("75.0"));
        assert!(s.contains("1750"));
        assert!(s.contains("400 events"));
        assert!(s.contains("2 groups"));
        // max/mean = 300/200.
        assert!(s.contains("1.50"));
    }

    #[test]
    fn json_round_trips_through_the_jsonl_parser() {
        let j = shard_balance_json(&rows());
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"nodes\":250"));
        assert!(j.contains("\"components\":12"));
        assert!(j.contains("\"est_share\":0.550000"));
    }

    #[test]
    fn empty_rows_render_cleanly() {
        let s = render_shard_balance(&[]);
        assert!(s.contains("0 groups"));
        assert_eq!(shard_balance_json(&[]), "[]");
    }
}
