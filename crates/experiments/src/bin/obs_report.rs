//! `obs_report`: run one fully instrumented replication and turn it into
//! human-readable observability output plus machine-readable artifacts.
//!
//! The run has *everything* on — kernel profiling with wall clocks, the
//! per-node protocol counters, the snapshot sampler, and a full-stream
//! JSONL trace — and is still checked bit-identical against an
//! uninstrumented run of the same seed before anything is rendered. The
//! bin exits nonzero if the reports diverge, if any trace line was dropped
//! on write, or if any written line fails to parse against the documented
//! schema, so CI can use it as the instrumentation smoke test (`--smoke`
//! shrinks the scenario).
//!
//! Artifacts land in `results/obs/`: `trace.jsonl` (the event trace),
//! `snapshots.jsonl` (the sampled time series), and `obs.json` (the whole
//! [`rmac_obs::ObsReport`]).

use std::process::exit;

use rmac_engine::{
    run_replication, JsonlSink, ObsConfig, Protocol, Runner, ScenarioConfig, ShardedRunner,
    TraceLevel,
};
use rmac_metrics::frame_kind_table;
use rmac_obs::{
    parse_trace_line, render_shard_balance, render_timeline, shard_balance_json, Snapshot,
    TraceRecord,
};
use rmac_sim::SimTime;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn fail(msg: &str) -> ! {
    eprintln!("obs_report: FAIL: {msg}");
    exit(1);
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed = env_u64("RMAC_SEED", 1);
    let (nodes, packets) = if smoke { (15, 8) } else { (75, 40) };
    let mut cfg = ScenarioConfig::paper_stationary(10.0)
        .with_nodes(nodes)
        .with_packets(packets);
    // Keep the paper's node density when shrinking the population, so the
    // smoke network stays connected and actually exercises reliable sends.
    let scale = (nodes as f64 / 75.0).sqrt();
    cfg.bounds = rmac_mobility::Bounds::new(500.0 * scale, 300.0 * scale);
    eprintln!(
        "obs_report: {} nodes, {} packets, seed {seed}{}",
        nodes,
        packets,
        if smoke { " (smoke)" } else { "" }
    );

    // The uninstrumented reference the instrumented run must match.
    let base = run_replication(&cfg, Protocol::Rmac, seed);

    std::fs::create_dir_all("results/obs").expect("create results/obs/");
    let sink = JsonlSink::create("results/obs/trace.jsonl").expect("create trace.jsonl");
    let mut runner = Runner::new(&cfg, Protocol::Rmac, seed);
    // Full stream: the Signal filter is the identity, but routing through
    // it exercises the level plumbing end to end.
    runner.set_tracer(rmac_engine::filter_tracer(
        TraceLevel::Signal,
        sink.tracer(),
    ));
    runner.set_obs(ObsConfig::full(SimTime::from_millis(250)));
    let (report, obs) = runner.run_obs(seed);
    let obs = obs.expect("obs was attached");

    if report != base {
        fail("instrumented RunReport differs from the uninstrumented run");
    }
    let summary = sink.finish().expect("flush trace.jsonl");
    if summary.dropped != 0 {
        fail(&format!("{} trace lines dropped on write", summary.dropped));
    }

    let snapshots = obs
        .snapshots
        .iter()
        .map(Snapshot::to_json)
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    std::fs::write("results/obs/snapshots.jsonl", snapshots).expect("write snapshots.jsonl");
    std::fs::write("results/obs/obs.json", obs.to_json()).expect("write obs.json");

    // Round-trip the trace through the documented schema.
    let text = std::fs::read_to_string("results/obs/trace.jsonl").expect("read trace.jsonl back");
    let mut records: Vec<TraceRecord> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        match parse_trace_line(line) {
            Some(r) => records.push(r),
            None => fail(&format!("trace line {} does not parse: {line}", i + 1)),
        }
    }
    if records.len() as u64 != summary.written {
        fail(&format!(
            "trace has {} lines but the sink wrote {}",
            records.len(),
            summary.written
        ));
    }

    // Shard-balance telemetry: re-run the same scenario through the
    // sharded engine and surface its per-group scheduling rows. The
    // counters are deterministic; only wall_ns is telemetry.
    let (sharded, stats) =
        ShardedRunner::new(&cfg.clone().with_shards(4), Protocol::Rmac, seed).run_with_stats();
    if sharded != base {
        fail("sharded RunReport differs from the serial oracle");
    }
    let balance = stats.balance_rows();
    std::fs::write(
        "results/obs/shard_balance.json",
        shard_balance_json(&balance) + "\n",
    )
    .expect("write shard_balance.json");

    println!("{}", obs.render());
    println!("{}", frame_kind_table(&report).render());
    println!("{}", render_timeline(&records, 5_000_000, 40));
    println!(
        "shard balance (shards = 4 -> {} group(s); est% is the estimated cost share, \
         actual% the event share):",
        stats.groups
    );
    println!("{}", render_shard_balance(&balance));
    println!(
        "ok: RunReport bit-identical, {} trace lines written, 0 dropped \
         (artifacts in results/obs/)",
        summary.written
    );
}
