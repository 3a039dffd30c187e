//! `multicell-sharded`: eight paper-density cells of 250 nodes along x,
//! separated by radio-silent gaps (the `bench_shard` topology), the
//! source in cell 0, run through `ShardedRunner` at 2 shards. Oracle:
//! every checked report equals the flat engine's at the same seed.

use rmac_engine::{run_replication, ObsConfig, Protocol, Runner, ScenarioConfig, ShardedRunner};
use rmac_mobility::{Bounds, Pos};
use rmac_sim::SimRng;

use crate::host::{sub_seed, timed, E2e, Reference, Tally, Traced, Window};
use crate::layers::{median_rounds, Counts, Kernel, Layers};

const NODES: usize = 2000;
const CELLS: usize = 8;
/// Gap between adjacent cells; wider than the 75 m radio range, so cells
/// never couple.
const CELL_GAP_M: f64 = 120.0;
const PACKETS: u64 = 150;
const SHARDS: usize = 2;
const ORACLE_REPS: usize = 2;

/// The multicell scenario, placed exactly as `bench_shard` places it
/// (cell-major numbering, so node 0, the source, sits in cell 0). The
/// placement is fixed so run-to-run spread measures the host, not the
/// topology; the workload seed drives every other random stream.
pub fn config() -> ScenarioConfig {
    let per_cell = NODES / CELLS;
    let scale = (per_cell as f64 / 75.0).sqrt();
    let (cell_w, cell_h) = (500.0 * scale, 300.0 * scale);
    let pitch = cell_w + CELL_GAP_M;
    let mut rng = SimRng::new(0xC0FFEE).split(7);
    let positions = (0..NODES)
        .map(|i| {
            let x0 = (i * CELLS / NODES) as f64 * pitch;
            Pos::new(
                rng.uniform_f64(x0, x0 + cell_w),
                rng.uniform_f64(0.0, cell_h),
            )
        })
        .collect();
    let mut cfg = ScenarioConfig::paper_stationary(20.0)
        .with_nodes(NODES)
        .with_packets(PACKETS)
        .with_positions(positions)
        .with_shards(SHARDS);
    cfg.name = format!("multicell-{NODES}");
    cfg.bounds = Bounds::new(CELLS as f64 * pitch - CELL_GAP_M, cell_h);
    cfg
}

pub fn run(seed: u64, window: &mut Window, tally: &mut Tally) -> E2e {
    let cfg = config();
    let mut e2e = E2e::new(&[Reference::Memory], 1);
    let mut checked = Vec::new();
    let mut k = 0;
    while window.more(k, 3) {
        let s = sub_seed(seed, k as u64);
        let (wall, report) = timed(|| {
            tally.guard("multicell-sharded replication", || {
                ShardedRunner::new(&cfg, Protocol::Rmac, s)
                    .run_with_stats()
                    .0
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
    // ShardedRunner::new only copies the scenario, whose 2000-node
    // position table stays in the private caches, so its samples follow
    // the Compute kernel: over ten runs, scaled by Memory their medians
    // fell as the host's load rose (correlation -0.90 with Memory's
    // slowdown, spread 18%); scaled by Compute they did not (0.12, 7%).
    e2e.setup(&[Reference::Compute], |k| {
        ShardedRunner::new(&cfg, Protocol::Rmac, sub_seed(seed, k))
    });
    for (s, report) in checked {
        let same = run_replication(&cfg, Protocol::Rmac, s) == report;
        tally.check(same, || {
            format!("multicell-sharded seed {s}: report differs from flat oracle")
        });
    }
    e2e
}

pub fn trace(seed: u64, window: &mut Window, tally: &mut Tally) -> Traced {
    let s = sub_seed(seed, 0);
    let cfg = config();
    let mut traced = Traced::default();
    let mut rounds: Vec<Layers> = Vec::new();
    while window.more(rounds.len(), 2) {
        let (wall, (report, stats)) =
            timed(|| ShardedRunner::new(&cfg, Protocol::Rmac, s).run_with_stats());
        let (flat_wall, flat) = timed(|| run_replication(&cfg, Protocol::Rmac, s));
        tally.check(flat == report, || {
            format!("multicell-sharded seed {s}: report differs from flat oracle")
        });

        let (new_wall, mut runner) = timed(|| Runner::new(&cfg, Protocol::Rmac, s));
        runner.set_obs(ObsConfig {
            snapshot_period: None,
            kernel_wall: true,
        });
        let (run_wall, (traced_report, obs)) = timed(|| runner.run_obs(s));
        tally.check(traced_report == flat, || {
            format!("multicell-sharded seed {s}: traced report differs")
        });
        let mut kernel = Kernel::default();
        kernel.add(obs.as_ref().expect("obs was attached"));

        let mut layers = Layers::new();
        let mut counts = Counts::new();
        kernel.report(&mut layers, &mut counts);
        kernel.report_core("rmac.", &mut layers, &mut counts);
        let group_ns: Vec<f64> = stats.group_stats.iter().map(|g| g.wall_ns as f64).collect();
        let max_ns = group_ns.iter().copied().fold(0.0, f64::max);
        let sum_ns: f64 = group_ns.iter().sum();
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(stats.groups.max(1));
        layers.insert("engine.events".into(), report.events as f64);
        layers.insert("engine.dispatch_per_s".into(), report.events as f64 / wall);
        layers.insert("engine.loop_self_s".into(), run_wall - kernel.dispatch_s());
        layers.insert("net.forwarders".into(), report.nonleaf_nodes as f64);
        layers.insert("shard.groups".into(), stats.groups as f64);
        layers.insert(
            "shard.balance".into(),
            max_ns * group_ns.len() as f64 / sum_ns,
        );
        layers.insert(
            "shard.parallel_eff".into(),
            sum_ns / 1e9 / (workers as f64 * wall),
        );
        layers.insert("shard.cross_pushes".into(), stats.cross_pushes as f64);
        layers.insert("shard.over_flat".into(), wall / flat_wall);
        layers.insert(
            "obs.trace_overhead_ratio".into(),
            (new_wall + run_wall) / flat_wall,
        );
        counts.insert("engine.events".into(), report.events);
        counts.insert("shard.groups".into(), stats.groups as u64);
        counts.insert("shard.cross_pushes".into(), stats.cross_pushes);
        rounds.push(layers);
        traced.rounds.push(counts);
    }
    traced.layers = median_rounds(&rounds);
    traced
}
