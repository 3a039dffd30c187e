//! `paper-sweep`: the paper's §4.1 grid — 75 nodes, speed-2 random
//! waypoint — for RMAC and BMMM at rates from 5 to 120 pkt/s, every case
//! through `rmac_campaign::run_case` (C1–C5 checker attached) on the
//! `try_tasks` pool. Oracle: every `CheckReport` is clean and no pool
//! entry is an `Err`.

use std::thread::{self, ThreadId};
use std::time::Instant;

use rmac_campaign::{run_case, try_tasks, CaseRecord, CaseSpec, ScenarioKind};
use rmac_engine::{run_replication, FaultPlan, ObsConfig, Protocol, Runner};

use crate::host::{sub_seed, timed, E2e, Reference, Tally, Traced, Window};
use crate::layers::{median_rounds, Counts, Kernel, Layers};

const NODES: usize = 75;
const PACKETS: u64 = 100;

/// The grid as `(protocol, rate)`, ordered so the pool's two contiguous
/// halves carry about the same work.
const GRID: [(Protocol, f64); 8] = [
    (Protocol::Rmac, 5.0),
    (Protocol::Bmmm, 20.0),
    (Protocol::Rmac, 60.0),
    (Protocol::Bmmm, 120.0),
    (Protocol::Bmmm, 5.0),
    (Protocol::Rmac, 20.0),
    (Protocol::Bmmm, 60.0),
    (Protocol::Rmac, 120.0),
];

/// Pass number `pass` over the grid. Every case draws its own
/// replication seed from the workload seed, so a run averages over as
/// many random-waypoint patterns as it runs cases. One case's work moves
/// several-fold with its pattern: with one pattern per pass, a run's
/// median event count spread 10% over six seeds; with one per case, 4%.
pub fn cases(seed: u64, pass: u64) -> Vec<CaseSpec> {
    let first = pass * GRID.len() as u64;
    (first..)
        .zip(GRID)
        .map(|(k, (protocol, rate))| CaseSpec {
            protocol,
            scenario: ScenarioKind::Speed2,
            rate,
            seed: sub_seed(seed, k),
            fault: "none".into(),
            plan: FaultPlan::none(),
            packets: PACKETS,
            nodes: NODES,
            shards: 1,
            obs: false,
        })
        .collect()
}

/// A case's wall, the thread that ran it, and when it ended.
struct CaseRun {
    record: CaseRecord,
    wall_s: f64,
    worker: ThreadId,
    end: Instant,
}

/// One grid pass through the pool: its wall and, unless a task panicked,
/// every case's run.
fn pool_pass(cases: &[CaseSpec]) -> (f64, Result<Vec<CaseRun>, String>) {
    timed(|| {
        try_tasks(
            cases,
            |case| {
                let (wall_s, record) = timed(|| run_case(case));
                CaseRun {
                    record,
                    wall_s,
                    worker: thread::current().id(),
                    end: Instant::now(),
                }
            },
            CaseSpec::key,
        )
    })
}

/// Count the pass into the tally: one operation per case, failed when the
/// pool returned an `Err` or the case's checker saw a violation.
fn check_pass(pass: &Result<Vec<CaseRun>, String>, n: usize, tally: &mut Tally) {
    match pass {
        Ok(runs) => {
            for run in runs {
                tally.check(run.record.check_clean, || {
                    format!("{}: {}", run.record.key, run.record.first_violation)
                });
            }
        }
        Err(e) => {
            tally.attempted += n as u64;
            tally.failed += 1;
            eprintln!("FAIL: pool entry: {e}");
        }
    }
}

pub fn run(seed: u64, window: &mut Window, tally: &mut Tally) -> E2e {
    let first = cases(seed, 0);
    let mut e2e = E2e::new(
        &[Reference::Memory],
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let mut k = 0;
    while window.more(k, 2) {
        let grid = cases(seed, k as u64);
        let (wall, pass) = pool_pass(&grid);
        check_pass(&pass, grid.len(), tally);
        if let Ok(runs) = pass {
            let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
            let packets = runs.iter().map(|r| r.record.packets_sent).sum();
            e2e.round(wall, &walls, packets);
        }
        k += 1;
    }
    let configs: Vec<_> = first
        .iter()
        .map(|c| (c.config(), c.protocol, c.seed))
        .collect();
    e2e.setup(&[Reference::Memory], |k| {
        let (cfg, protocol, seed) = &configs[k as usize % configs.len()];
        Runner::new(cfg, *protocol, *seed)
    });
    e2e
}

pub fn trace(seed: u64, window: &mut Window, tally: &mut Tally) -> Traced {
    let grid = cases(seed, 0);
    let mut traced = Traced::default();
    let mut rounds: Vec<Layers> = Vec::new();
    while window.more(rounds.len(), 2) {
        let mut layers = Layers::new();
        let mut counts = Counts::new();

        let (batch_s, pass) = pool_pass(&grid);
        check_pass(&pass, grid.len(), tally);
        if let Ok(runs) = &pass {
            // Idle tail: from the first worker running out of cases to
            // the last one finishing.
            let mut last_end: Vec<(ThreadId, Instant)> = Vec::new();
            for run in runs {
                match last_end.iter_mut().find(|(w, _)| *w == run.worker) {
                    Some((_, end)) => *end = (*end).max(run.end),
                    None => last_end.push((run.worker, run.end)),
                }
            }
            let first_idle = last_end.iter().map(|&(_, e)| e).min().expect("a case ran");
            let done = last_end.iter().map(|&(_, e)| e).max().expect("a case ran");
            let case_s: f64 = runs.iter().map(|r| r.wall_s).sum();
            layers.insert(
                "campaign.pool_eff".into(),
                case_s / (last_end.len() as f64 * batch_s),
            );
            layers.insert(
                "campaign.straggler_s".into(),
                done.duration_since(first_idle).as_secs_f64(),
            );
        }

        let (mut plain_s, mut checked_s, mut traced_s, mut loop_self_s) = (0.0, 0.0, 0.0, 0.0);
        let (mut events, mut forwarders) = (0u64, 0u64);
        let mut total = Kernel::default();
        let mut rmac = Kernel::default();
        let mut bmmm = Kernel::default();
        for case in &grid {
            let cfg = case.config();
            let (wall, report) = timed(|| run_replication(&cfg, case.protocol, case.seed));
            let (checked_wall, record) = timed(|| run_case(case));
            tally.check(record.check_clean && record.events == report.events, || {
                format!("{}: checked case differs or is unclean", record.key)
            });
            let (new_wall, mut runner) = timed(|| Runner::new(&cfg, case.protocol, case.seed));
            runner.set_obs(ObsConfig {
                snapshot_period: None,
                kernel_wall: true,
            });
            let (run_wall, (traced_report, obs)) = timed(|| runner.run_obs(case.seed));
            tally.check(traced_report == report, || {
                format!("{}: traced report differs", record.key)
            });
            let obs = obs.expect("obs was attached");
            let mut kernel = Kernel::default();
            kernel.add(&obs);
            loop_self_s += run_wall - kernel.dispatch_s();
            total.add(&obs);
            match case.protocol {
                Protocol::Rmac => rmac.add(&obs),
                _ => bmmm.add(&obs),
            }
            plain_s += wall;
            checked_s += checked_wall;
            traced_s += new_wall + run_wall;
            events += report.events;
            forwarders += report.nonleaf_nodes;
        }
        total.report(&mut layers, &mut counts);
        rmac.report_core("rmac.", &mut layers, &mut counts);
        bmmm.report_core("bmmm.", &mut layers, &mut counts);
        layers.insert("engine.events".into(), events as f64);
        layers.insert("engine.dispatch_per_s".into(), events as f64 / plain_s);
        layers.insert("engine.loop_self_s".into(), loop_self_s);
        layers.insert("net.forwarders".into(), forwarders as f64);
        layers.insert("check.overhead_ratio".into(), checked_s / plain_s);
        layers.insert("obs.trace_overhead_ratio".into(), traced_s / plain_s);
        counts.insert("engine.events".into(), events);
        counts.insert("net.forwarders".into(), forwarders);
        rounds.push(layers);
        traced.rounds.push(counts);
    }
    traced.layers = median_rounds(&rounds);
    traced
}
