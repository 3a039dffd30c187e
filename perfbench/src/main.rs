//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dense-rmac|paper-sweep|multicell-sharded|live-soak> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, at most `nproc` threads. `--trace 0` times the workload's
//! public entry points for `--seconds` and reports the end-to-end metrics,
//! each time scaled to one host speed by a reference kernel timed after
//! every round (`host::Reference`);
//! `--trace 1` repeats one seed's replication under the `rmac-obs` kernel
//! profiler and the benchmark's own timers and reports the per-layer
//! split. Either way every output is checked against an oracle, and the
//! last stdout line is the result object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! The line before it carries the host fingerprint, sample counts and
//! `error_rate`; stderr carries a readable table.

mod dense;
mod host;
mod layers;
mod multicell;
mod soak;
mod sweep;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use host::{median, Tally, Traced, Window};
use layers::{Counts, PER_LAYER};

const WORKLOADS: [&str; 4] = [
    "dense-rmac",
    "paper-sweep",
    "multicell-sharded",
    "live-soak",
];

/// Every end-to-end metric, `(name, unit)`, in report order.
const END_TO_END: [(&str, &str); 5] = [
    ("replication_s", "s"),
    ("cases_per_s", "1/s"),
    ("packets_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

const USAGE: &str =
    "usage: rmac-perfbench --workload <dense-rmac|paper-sweep|multicell-sharded|live-soak> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = value.parse::<u64>().ok();
        match (flag.as_str(), num) {
            ("--workload", _) if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            ("--seed", Some(n)) => seed = Some(n),
            ("--seconds", Some(n)) if n >= 1 => seconds = Some(n),
            ("--trace", Some(n)) if n <= 1 => trace = Some(n == 1),
            _ => return Err(format!("bad argument {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// `(name, value, unit)` rows of the result.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn untraced(args: &Args, window: &mut Window, tally: &mut Tally) -> (Metrics, String) {
    let e2e = match args.workload.as_str() {
        "dense-rmac" => dense::run(args.seed, window, tally),
        "paper-sweep" => sweep::run(args.seed, window, tally),
        "multicell-sharded" => multicell::run(args.seed, window, tally),
        _ => soak::run(args.seed, window, tally),
    };
    let values = [
        median(&e2e.replication_s),
        median(&e2e.cases_per_s),
        median(&e2e.packets_per_s),
        median(&e2e.setup_s),
        e2e.peak_rss_mb,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    let slowdown = &e2e.slowdown;
    let samples = format!(
        "\"samples\":{{\"replication_s\":{},\"rounds\":{},\"setup_s\":{}}},\
         \"wall_s_median\":{},\"slowdown\":{{\"median\":{},\"min\":{},\"max\":{}}}",
        e2e.replication_s.len(),
        slowdown.len(),
        e2e.setup_s.len(),
        median(&e2e.wall_s),
        median(slowdown),
        slowdown.iter().copied().fold(f64::INFINITY, f64::min),
        slowdown.iter().copied().fold(0.0, f64::max),
    );
    (metrics, samples)
}

fn traced(args: &Args, window: &mut Window, tally: &mut Tally) -> (Metrics, String, bool) {
    let Traced { layers, rounds } = match args.workload.as_str() {
        "dense-rmac" => dense::trace(args.seed, window, tally),
        "paper-sweep" => sweep::trace(args.seed, window, tally),
        "multicell-sharded" => multicell::trace(args.seed, window, tally),
        _ => soak::trace(args.seed, window, tally),
    };
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    let mut deterministic = !rounds.is_empty();
    for (i, round) in rounds.iter().enumerate().skip(1) {
        if *round != rounds[0] {
            eprintln!(
                "FAIL: traced round {i} counts differ from round 0: {round:?} vs {:?}",
                rounds[0]
            );
            deterministic = false;
        }
    }
    if let Some(first) = rounds.first() {
        deterministic &= matches_recorded(args, first);
    }
    let counts = rounds.first().map(counts_json).unwrap_or_default();
    let detail = format!("\"rounds\":{},\"counts\":{{{counts}}}", rounds.len());
    (metrics, detail, deterministic)
}

fn counts_json(counts: &Counts) -> String {
    counts
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// The cross-invocation half of the count-determinism self-check: the
/// first traced run of a (binary, workload, seed) records its counts next
/// to the binary, and every later one must reproduce them exactly.
fn matches_recorded(args: &Args, counts: &Counts) -> bool {
    let Some(path) = record_path(args) else {
        return true;
    };
    let text: String = counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    match std::fs::read_to_string(&path) {
        Ok(recorded) if recorded == text => true,
        Ok(recorded) => {
            eprintln!(
                "FAIL: counts differ from an earlier invocation at the same seed ({}):\n{recorded}vs\n{text}",
                path.display()
            );
            false
        }
        Err(_) => {
            // Write-then-rename, so a concurrent run never reads half a record.
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            let _ = std::fs::create_dir_all(path.parent().expect("record has a directory"));
            let _ = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, &path));
            true
        }
    }
}

/// Where this binary keeps its count records: beside the executable (in
/// the build directory), keyed by the executable's size and mtime so a
/// rebuilt program never compares against another build's counts.
fn record_path(args: &Args) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let meta = std::fs::metadata(&exe).ok()?;
    let mtime = meta
        .modified()
        .ok()?
        .duration_since(std::time::UNIX_EPOCH)
        .ok()?
        .as_nanos();
    let name = format!(
        "{}-{}-{}-{mtime}.counts",
        args.workload,
        args.seed,
        meta.len()
    );
    Some(exe.parent()?.join("perfbench-counts").join(name))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rmac-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut window = Window::open(args.seconds);
    let mut tally = Tally::default();
    let (metrics, detail, deterministic) = if args.trace {
        traced(&args, &mut window, &mut tally)
    } else {
        let (m, d) = untraced(&args, &mut window, &mut tally);
        (m, d, true)
    };
    window.close();

    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = tally.failed == 0 && tally.attempted > 0 && deterministic && finite;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "{} seed {} ({}): {} attempted, {} failed, deterministic counts: {deterministic}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        tally.attempted,
        tally.failed
    );
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<32} {value:>16.6} {unit}");
    }
    eprintln!(
        "  host: nproc {nproc}, {}, spin calibration {:.4} s",
        env!("PERFBENCH_RUSTC"),
        median(&window.calib_s)
    );

    let calib: Vec<String> = window.calib_s.iter().map(|c| c.to_string()).collect();
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"host\":{{\"nproc\":{nproc},\"rustc\":\"{}\",\
         \"calib_s\":{},\"calib_runs_s\":[{}]}},\"error_rate\":{},{detail}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC"),
        median(&window.calib_s),
        calib.join(","),
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    let mut out = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{out}}}}}",
        tally.attempted.max(1),
        tally.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmac_campaign::Json;

    fn load(rel: &str) -> Json {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
        let text = std::fs::read_to_string(&path).expect("readable");
        Json::parse(&text).expect("valid JSON")
    }

    fn names(list: &Json, field: &str) -> Vec<String> {
        list.get(field)
            .and_then(Json::as_arr)
            .expect("a list")
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect()
    }

    fn keys(obj: &Json, field: &str) -> Vec<String> {
        match obj.get(field) {
            Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
            _ => panic!("{field} is not an object"),
        }
    }

    #[test]
    fn benchmark_json_and_layer_map_name_what_the_code_reports() {
        let bench = load("../BENCHMARK.json");
        let map = load("layers.json");
        assert_eq!(names(&bench, "workloads"), WORKLOADS);
        assert_eq!(keys(&map, "workloads"), WORKLOADS);
        let per_layer: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
        assert_eq!(names(&bench, "per_layer"), per_layer);
        assert_eq!(keys(&map, "per_layer"), per_layer);
        let units: Vec<&str> = bench
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("a list")
            .iter()
            .map(|e| e.get("unit").and_then(Json::as_str).expect("a unit"))
            .collect();
        assert_eq!(units, PER_LAYER.iter().map(|&(_, u)| u).collect::<Vec<_>>());
        let e2e: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
        assert_eq!(names(&bench, "end_to_end"), e2e);
    }
}
