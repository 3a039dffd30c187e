//! Scenario configuration and protocol selection.

use rmac_baselines::{Bmmm, Bmw, Lbp, Mx};
use rmac_core::api::MacService;
use rmac_core::{MacConfig, Rmac};
use rmac_mobility::{Bounds, MobilityKind, Pos};
use rmac_sim::{SimRng, SimTime};
use rmac_wire::consts::PAPER_PAYLOAD;
use rmac_wire::NodeId;

/// Cells in the [`ScenarioConfig::multicell`] topology.
const MULTICELL_CELLS: usize = 8;
/// Gap between adjacent multicell cells (m); wider than the 75 m radio
/// range, so cells never couple.
const MULTICELL_GAP_M: f64 = 120.0;

/// Which MAC protocol a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// RMAC (the paper's contribution).
    Rmac,
    /// Ablation X2: RMAC with the RBT lowered at the first data bit, so
    /// data receptions lose hidden-terminal protection.
    RmacNoRbt,
    /// Deliberately broken mutant: the sender skips the WF_RBT λ-detection
    /// and transmits reliable data even when no receiver answered. Exists
    /// to prove the conformance checker catches the breach (invariant C1);
    /// never used in experiments.
    RmacSkipRbtSense,
    /// BMMM (the paper's comparison baseline).
    Bmmm,
    /// BMW (extension baseline).
    Bmw,
    /// LBP (extension baseline).
    Lbp,
    /// 802.11MX (extension baseline): receiver-initiated NAK busy tone.
    Mx80211,
}

impl Protocol {
    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Rmac => "RMAC",
            Protocol::RmacNoRbt => "RMAC-noRBT",
            Protocol::RmacSkipRbtSense => "RMAC-skipRbtSense",
            Protocol::Bmmm => "BMMM",
            Protocol::Bmw => "BMW",
            Protocol::Lbp => "LBP",
            Protocol::Mx80211 => "802.11MX",
        }
    }

    /// Which conformance invariant family ([`rmac_check::ProtocolClass`])
    /// this protocol is checked against. The RMAC mutants stay in the RMAC
    /// class on purpose: the checker is what exposes their breach.
    pub fn conformance_class(self) -> rmac_check::ProtocolClass {
        match self {
            Protocol::Rmac | Protocol::RmacNoRbt | Protocol::RmacSkipRbtSense => {
                rmac_check::ProtocolClass::Rmac
            }
            Protocol::Bmmm => rmac_check::ProtocolClass::Bmmm,
            Protocol::Bmw | Protocol::Lbp | Protocol::Mx80211 => rmac_check::ProtocolClass::Other,
        }
    }

    /// Rough data-channel frames one forwarding hop sends per packet
    /// (RMAC: MRTS + DATA; the RTS/CTS baselines add their handshakes).
    /// Only the sharded engine's load balancer reads it, to weigh the
    /// source's radio component; results never depend on it.
    pub(crate) fn frames_per_packet(self) -> u64 {
        match self {
            Protocol::Rmac | Protocol::RmacNoRbt | Protocol::RmacSkipRbtSense => 2,
            Protocol::Mx80211 => 3,
            Protocol::Bmw | Protocol::Lbp => 4,
            Protocol::Bmmm => 5,
        }
    }

    /// Instantiate the MAC entity for one node.
    pub fn make_mac(self, id: NodeId, cfg: MacConfig) -> Box<dyn MacService> {
        match self {
            Protocol::Rmac => Box::new(Rmac::new(id, cfg)),
            Protocol::RmacNoRbt => Box::new(Rmac::new(
                id,
                MacConfig {
                    rbt_data_protection: false,
                    ..cfg
                },
            )),
            Protocol::RmacSkipRbtSense => Box::new(Rmac::new(
                id,
                MacConfig {
                    skip_rbt_sense: true,
                    ..cfg
                },
            )),
            Protocol::Bmmm => Box::new(Bmmm::new(id, cfg)),
            Protocol::Bmw => Box::new(Bmw::new(id, cfg)),
            Protocol::Lbp => Box::new(Lbp::new(id, cfg)),
            Protocol::Mx80211 => Box::new(Mx::new(id, cfg)),
        }
    }
}

/// Which event-queue implementation drives a replication's event loop.
///
/// Both implementations pop in the identical global `(time, seq)` order, so
/// every report is bit-identical either way (enforced by
/// `tests/queue_equivalence.rs`); the choice is purely a performance and
/// differential-testing axis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueKind {
    /// The calendar/ladder queue ([`rmac_sim::CalendarQueue`]): O(1)
    /// amortized push/pop tuned to the 15 µs tone-window cadence. The
    /// default.
    #[default]
    Calendar,
    /// The binary-heap oracle ([`rmac_sim::EventQueue`]), retained for
    /// differential testing and A/B benchmarking.
    Heap,
}

impl QueueKind {
    /// Human-readable label used in bench output and fuzz reproducers.
    pub fn label(self) -> &'static str {
        match self {
            QueueKind::Calendar => "calendar",
            QueueKind::Heap => "heap",
        }
    }
}

/// One experiment's parameters. Defaults are the paper's §4.1 environment.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Scenario label used in reports.
    pub name: String,
    /// Number of nodes (paper: 75).
    pub nodes: usize,
    /// Plane dimensions (paper: 500 m × 300 m).
    pub bounds: Bounds,
    /// Radio range in meters (paper: 75).
    pub range_m: f64,
    /// Per-bit error probability (0 = clean channel).
    pub ber_per_bit: f64,
    /// Mobility model.
    pub mobility: MobilityKind,
    /// Source packet rate in packets/second (paper sweeps 5–120).
    pub rate_pps: f64,
    /// Packets the source generates (paper: 10 000; default here 1 000 to
    /// keep the full grid laptop-tractable — record the value used).
    pub packets: u64,
    /// Application payload size (paper: 500 bytes).
    pub payload: usize,
    /// Tree formation time before the source starts.
    pub warmup: SimTime,
    /// Extra simulated time after the last packet for deliveries to drain.
    pub drain: SimTime,
    /// BLESS-lite beacon period.
    pub beacon_period: SimTime,
    /// BLESS-lite neighbor/parent/child freshness horizon.
    pub freshness: SimTime,
    /// MAC parameters.
    pub mac: MacConfig,
    /// Explicit node positions (overrides random placement; the node count
    /// becomes the vector's length). Used by crafted-topology examples and
    /// tests.
    pub positions: Option<Vec<Pos>>,
    /// When false, the network layer forwards application packets with the
    /// Unreliable Send service (one broadcast per hop, no recovery) — the
    /// paper's §1 motivation strawman.
    pub reliable_forwarding: bool,
    /// Answer PHY range queries through the spatial grid index (default).
    /// The grid is bit-identical to the brute-force scan (enforced by
    /// `tests/grid_equivalence.rs`); disabling it exists for A/B
    /// benchmarking and as a diagnostic escape hatch.
    pub phy_grid: bool,
    /// Attach the protocol-conformance checker ([`crate::run_replication_checked`]
    /// panics on any invariant violation). Off by default; like the obs
    /// layer, an attached checker never perturbs the simulation.
    pub check: bool,
    /// Cap on concurrent shard groups for the sharded engine
    /// ([`crate::run_replication_sharded`]): the engine packs the
    /// scenario's radio components into at most this many groups and runs
    /// each on its own thread. `1` (the default) runs the flat engine;
    /// any value produces bit-identical reports (DESIGN.md §10, enforced
    /// by `tests/shard_equivalence.rs`).
    pub shards: usize,
    /// Event-queue implementation (DESIGN.md §12). The calendar queue is
    /// the default; the heap oracle exists for differential testing and
    /// A/B benchmarking, and either choice yields bit-identical reports.
    pub queue: QueueKind,
}

impl ScenarioConfig {
    fn base(name: &str, mobility: MobilityKind, rate_pps: f64) -> ScenarioConfig {
        ScenarioConfig {
            name: name.to_string(),
            nodes: 75,
            bounds: Bounds::PAPER,
            range_m: 75.0,
            ber_per_bit: 0.0,
            mobility,
            rate_pps,
            packets: 1_000,
            payload: PAPER_PAYLOAD,
            warmup: SimTime::from_secs(5),
            drain: SimTime::from_secs(10),
            // BLESS-lite cadence: 500 ms beacons with a 1.6 s freshness
            // horizon reproduce both the paper's tree statistics (§4.1.1)
            // and its mobile-scenario delivery/retransmission bands —
            // slower beacons repair broken parent links too slowly for the
            // 4–8 m/s waypoint speeds.
            beacon_period: SimTime::from_millis(500),
            freshness: SimTime::from_millis(1600),
            mac: MacConfig::default(),
            positions: None,
            reliable_forwarding: true,
            phy_grid: true,
            check: false,
            shards: 1,
            queue: QueueKind::default(),
        }
    }

    /// The paper's "Stationary" scenario at the given source rate.
    pub fn paper_stationary(rate_pps: f64) -> ScenarioConfig {
        Self::base("stationary", MobilityKind::Stationary, rate_pps)
    }

    /// The paper's "Moving at speed 1" scenario (0–4 m/s, 10 s pauses).
    pub fn paper_speed1(rate_pps: f64) -> ScenarioConfig {
        Self::base("speed1", MobilityKind::paper_speed1(), rate_pps)
    }

    /// The paper's "Moving at speed 2" scenario (0–8 m/s, 5 s pauses).
    pub fn paper_speed2(rate_pps: f64) -> ScenarioConfig {
        Self::base("speed2", MobilityKind::paper_speed2(), rate_pps)
    }

    /// The multicell topology: `nodes` split evenly over eight cells in a
    /// row along x, each at the paper's density (75 nodes per 500 m ×
    /// 300 m) and separated by radio-silent gaps, stationary at 20 pkt/s. Node numbering is cell-major, so the
    /// source (node 0) sits in cell 0 and the other cells only beacon.
    /// The placement comes from a fixed stream, independent of the
    /// replication seed. The sharded engine's scaling workload.
    pub fn multicell(nodes: usize, packets: u64) -> ScenarioConfig {
        assert!(nodes >= MULTICELL_CELLS, "need at least one node per cell");
        let per_cell = nodes / MULTICELL_CELLS;
        let scale = (per_cell as f64 / 75.0).sqrt();
        let (cell_w, cell_h) = (500.0 * scale, 300.0 * scale);
        let pitch = cell_w + MULTICELL_GAP_M;
        let mut rng = SimRng::new(0xC0FFEE).split(7);
        let positions = (0..nodes)
            .map(|i| {
                let cell = (i * MULTICELL_CELLS / nodes).min(MULTICELL_CELLS - 1);
                let x0 = cell as f64 * pitch;
                Pos::new(
                    rng.uniform_f64(x0, x0 + cell_w),
                    rng.uniform_f64(0.0, cell_h),
                )
            })
            .collect();
        let mut cfg = ScenarioConfig::paper_stationary(20.0)
            .with_nodes(nodes)
            .with_packets(packets)
            .with_positions(positions);
        cfg.name = format!("multicell-{nodes}");
        cfg.bounds = Bounds::new(MULTICELL_CELLS as f64 * pitch - MULTICELL_GAP_M, cell_h);
        cfg
    }

    /// Override the packet count.
    pub fn with_packets(mut self, packets: u64) -> Self {
        self.packets = packets;
        self
    }

    /// Override the node count.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Override the MAC configuration.
    pub fn with_mac(mut self, mac: MacConfig) -> Self {
        self.mac = mac;
        self
    }

    /// Override the bit error rate.
    pub fn with_ber(mut self, ber: f64) -> Self {
        self.ber_per_bit = ber;
        self
    }

    /// Pin every node to an explicit position (crafted topologies).
    pub fn with_positions(mut self, positions: Vec<Pos>) -> Self {
        self.nodes = positions.len();
        self.positions = Some(positions);
        self
    }

    /// Forward application packets unreliably (the §1 strawman).
    pub fn with_unreliable_forwarding(mut self) -> Self {
        self.reliable_forwarding = false;
        self
    }

    /// Answer PHY range queries with the brute-force O(N) scan instead of
    /// the spatial grid (A/B benchmarking; results are bit-identical).
    pub fn with_brute_force_phy(mut self) -> Self {
        self.phy_grid = false;
        self
    }

    /// Run with the protocol-conformance checker attached (every invariant
    /// violation fails the run).
    pub fn with_check(mut self) -> Self {
        self.check = true;
        self
    }

    /// Let the sharded engine run up to `shards` groups of radio
    /// components concurrently. Reports stay bit-identical for every
    /// value.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Pick the event-queue implementation. Reports stay bit-identical
    /// for either kind.
    pub fn with_queue(mut self, queue: QueueKind) -> Self {
        self.queue = queue;
        self
    }

    /// Drive the event loop with the binary-heap oracle instead of the
    /// calendar queue (differential testing and A/B benchmarking; results
    /// are bit-identical).
    pub fn with_heap_queue(self) -> Self {
        self.with_queue(QueueKind::Heap)
    }

    /// The interval between source packets.
    pub fn source_interval(&self) -> SimTime {
        SimTime::from_secs_f64(1.0 / self.rate_pps)
    }

    /// Total simulated time: warmup + send window + drain.
    pub fn end_time(&self) -> SimTime {
        self.warmup + self.source_interval().mul(self.packets) + self.drain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = ScenarioConfig::paper_stationary(40.0);
        assert_eq!(c.nodes, 75);
        assert_eq!(c.bounds, Bounds::PAPER);
        assert_eq!(c.range_m, 75.0);
        assert_eq!(c.payload, 500);
        assert_eq!(c.rate_pps, 40.0);
        assert_eq!(c.source_interval(), SimTime::from_millis(25));
    }

    #[test]
    fn end_time_accounts_for_all_phases() {
        let c = ScenarioConfig::paper_stationary(10.0).with_packets(100);
        // 5 s warmup + 10 s sending + 10 s drain.
        assert_eq!(c.end_time(), SimTime::from_secs(25));
    }

    #[test]
    fn protocol_labels() {
        assert_eq!(Protocol::Rmac.label(), "RMAC");
        assert_eq!(Protocol::Bmmm.label(), "BMMM");
        assert_eq!(Protocol::RmacNoRbt.label(), "RMAC-noRBT");
    }

    #[test]
    fn mobility_constructors() {
        assert_eq!(
            ScenarioConfig::paper_stationary(5.0).mobility,
            MobilityKind::Stationary
        );
        assert!(matches!(
            ScenarioConfig::paper_speed1(5.0).mobility,
            MobilityKind::RandomWaypoint { max_speed, .. } if max_speed == 4.0
        ));
        assert!(matches!(
            ScenarioConfig::paper_speed2(5.0).mobility,
            MobilityKind::RandomWaypoint { max_speed, .. } if max_speed == 8.0
        ));
    }
}
