//! `dense-rmac`: stationary RMAC at the paper's density, scaled to 200
//! nodes, 20 pkt/s, on the flat engine (the row ROADMAP items 1 and 3
//! track). Oracle: every checked report is bit-identical to the
//! heap-queue, brute-force-PHY run at the same seed.

use rmac_engine::{run_replication, ObsConfig, Protocol, Runner, ScenarioConfig};
use rmac_mobility::{random_positions, Bounds};
use rmac_sim::SimRng;

use crate::host::{sub_seed, timed, E2e, Reference, Tally, Traced, Window};
use crate::layers::{median_rounds, Counts, Kernel, Layers};

const NODES: usize = 200;
const PACKETS: u64 = 150;
/// Timed replications whose reports the oracle re-checks.
const ORACLE_REPS: usize = 2;

/// The paper's stationary scenario with the plane grown to keep its
/// density (75 nodes per 500 m × 300 m) at `NODES`. The placement is
/// fixed — the one replication seed 1 draws, i.e. the tracked 200-node
/// row's — so run-to-run spread measures the host, not the topology;
/// the workload seed drives every other random stream.
pub fn config() -> ScenarioConfig {
    let scale = (NODES as f64 / 75.0).sqrt();
    let bounds = Bounds::new(500.0 * scale, 300.0 * scale);
    let positions = random_positions(NODES, bounds, &mut SimRng::new(1).split(1));
    let mut cfg = ScenarioConfig::paper_stationary(20.0)
        .with_nodes(NODES)
        .with_packets(PACKETS)
        .with_positions(positions);
    cfg.bounds = bounds;
    cfg
}

fn oracle(cfg: &ScenarioConfig) -> ScenarioConfig {
    cfg.clone().with_heap_queue().with_brute_force_phy()
}

pub fn run(seed: u64, window: &mut Window, tally: &mut Tally) -> E2e {
    let cfg = config();
    let mut e2e = E2e::new(&[Reference::Memory], 1);
    let mut checked = Vec::new();
    let mut k = 0;
    while window.more(k, 3) {
        let s = sub_seed(seed, k as u64);
        let (wall, report) = timed(|| {
            tally.guard("dense-rmac replication", || {
                Runner::new(&cfg, Protocol::Rmac, s).run(s)
            })
        });
        if let Some(report) = report {
            e2e.round(wall, &[wall], report.packets_sent);
            if checked.len() < ORACLE_REPS {
                checked.push((s, report));
            }
        }
        k += 1;
    }
    e2e.setup(&[Reference::Memory], |k| {
        Runner::new(&cfg, Protocol::Rmac, sub_seed(seed, k))
    });
    for (s, report) in checked {
        let same = run_replication(&oracle(&cfg), Protocol::Rmac, s) == report;
        tally.check(same, || {
            format!("dense-rmac seed {s}: report differs from heap+brute oracle")
        });
    }
    e2e
}

pub fn trace(seed: u64, window: &mut Window, tally: &mut Tally) -> Traced {
    let cfg = config();
    let s = sub_seed(seed, 0);
    let mut traced = Traced::default();
    let mut rounds: Vec<Layers> = Vec::new();
    while window.more(rounds.len(), 2) {
        let (wall, report) = timed(|| run_replication(&cfg, Protocol::Rmac, s));
        let (heap_wall, heap) =
            timed(|| run_replication(&cfg.clone().with_heap_queue(), Protocol::Rmac, s));
        let (brute_wall, brute) =
            timed(|| run_replication(&cfg.clone().with_brute_force_phy(), Protocol::Rmac, s));
        tally.check(heap == report, || {
            format!("dense-rmac seed {s}: heap-queue report differs")
        });
        tally.check(brute == report, || {
            format!("dense-rmac seed {s}: brute-PHY report differs")
        });

        let (new_wall, mut runner) = timed(|| Runner::new(&cfg, Protocol::Rmac, s));
        runner.set_obs(ObsConfig {
            snapshot_period: None,
            kernel_wall: true,
        });
        let (run_wall, (traced_report, obs)) = timed(|| runner.run_obs(s));
        tally.check(traced_report == report, || {
            format!("dense-rmac seed {s}: traced report differs")
        });
        let mut kernel = Kernel::default();
        kernel.add(obs.as_ref().expect("obs was attached"));

        let mut layers = Layers::new();
        let mut counts = Counts::new();
        kernel.report(&mut layers, &mut counts);
        kernel.report_core("rmac.", &mut layers, &mut counts);
        layers.insert("engine.events".into(), report.events as f64);
        layers.insert("engine.dispatch_per_s".into(), report.events as f64 / wall);
        layers.insert("engine.loop_self_s".into(), run_wall - kernel.dispatch_s());
        layers.insert("sim.heap_over_calendar".into(), heap_wall / wall);
        layers.insert("phy.brute_over_grid".into(), brute_wall / wall);
        layers.insert("net.forwarders".into(), report.nonleaf_nodes as f64);
        layers.insert(
            "obs.trace_overhead_ratio".into(),
            (new_wall + run_wall) / wall,
        );
        counts.insert("engine.events".into(), report.events);
        rounds.push(layers);
        traced.rounds.push(counts);
    }
    traced.layers = median_rounds(&rounds);
    traced
}
