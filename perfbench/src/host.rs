//! Host-side measurement plumbing shared by every workload: the timed
//! window with its interleaved calibration spins, the reference kernels
//! that scale every end-to-end time to one host speed, set-up timing,
//! peak memory, statistics, and the failure tally behind `error_rate`.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rmac_sim::rng::splitmix64;

/// The `k`-th replication seed of a run: a pure function of the
/// workload seed, so the same `--seed` always replays the same inputs.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    splitmix64(seed ^ splitmix64(k.wrapping_add(1)))
}

/// Wall seconds of the campaign gate's fixed xorshift spin loop (one
/// pass of `rmac_campaign::gate`'s private `calibrate`): the host-speed
/// unit every result carries.
pub fn spin() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e3779b97f4a7c15u64;
    let mut acc = 0u64;
    for _ in 0..200_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

/// The measurement window of one run: rounds continue until `--seconds`
/// have passed (and at least a minimum count ran), with a calibration
/// spin before the first round, one between the rounds at mid-window,
/// and one after the last.
pub struct Window {
    start: Instant,
    budget_s: f64,
    next_spin_s: f64,
    pub calib_s: Vec<f64>,
}

impl Window {
    pub fn open(seconds: u64) -> Window {
        let budget_s = seconds as f64;
        let mut w = Window {
            start: Instant::now(),
            budget_s,
            next_spin_s: budget_s / 2.0,
            calib_s: Vec::new(),
        };
        w.calib_s.push(spin());
        w.start = Instant::now();
        w
    }

    /// Whether to run round number `done` (0-based).
    pub fn more(&mut self, done: usize, min: usize) -> bool {
        let go = done < min || self.start.elapsed().as_secs_f64() < self.budget_s;
        if go && self.start.elapsed().as_secs_f64() >= self.next_spin_s {
            self.calib_s.push(spin());
            self.next_spin_s = f64::INFINITY;
        }
        go
    }

    pub fn close(&mut self) {
        self.calib_s.push(spin());
    }
}

/// Host seconds of `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64(), r)
}

/// A reference kernel: a fixed piece of std-only work, never the
/// repository's code, timed right after every round. Its slowdown against
/// its time on the calibration host, unloaded, is the host's slowdown, and
/// every end-to-end time is divided by it (every rate multiplied), which
/// gives the time at the calibration host's speed. Each workload is scaled
/// by the kernels whose slowdown follows its own on a shared host.
#[derive(Clone, Copy)]
pub enum Reference {
    /// Random inserts, lookups and removals on a 2^18-entry std `HashMap`,
    /// then an unstable sort of 2^19 random words: it branches
    /// unpredictably and misses the private caches, as the simulator does.
    /// Over ten 25 s dense-rmac runs on a 2-core shared host the
    /// replication wall and this kernel both spread 45% (interquartile
    /// over median), their ratio 3%, and the wall over [`Reference::Compute`]
    /// 24%.
    Memory,
    /// Arithmetic on four xorshift chains held in registers: it touches
    /// no memory. The live soak's few nodes stay in the private caches, so
    /// cache-hungry neighbours slow it less than they slow
    /// [`Reference::Memory`], and neighbours sharing its core slow it more
    /// than they slow this kernel. Over twelve live-soak runs, with the
    /// Memory kernel slowed 1.4 to 2.4 times, the soak's median wall
    /// divided by the geometric mean of both kernels' slowdowns ranged
    /// over 10% of its median; divided by either kernel's alone, over 17%
    /// (Compute) and 26% (Memory).
    Compute,
}

impl Reference {
    /// Host seconds of one pass of the kernel.
    fn time(self) -> f64 {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let start = Instant::now();
        match self {
            Reference::Memory => {
                let n = 1u64 << 18;
                let mut map: HashMap<u64, u64> = HashMap::with_capacity(n as usize);
                for i in 0..n {
                    map.insert(next() % (4 * n), i);
                }
                let mut acc = 0u64;
                for _ in 0..300_000 {
                    let k = next() % (4 * n);
                    match map.get_mut(&k) {
                        Some(v) => {
                            *v += 1;
                            acc = acc.wrapping_add(*v);
                        }
                        None => {
                            map.insert(k, 1);
                            map.remove(&(k ^ 1));
                        }
                    }
                }
                drop(map);
                let mut words: Vec<u64> = (0..1u64 << 19).map(|_| next()).collect();
                words.sort_unstable();
                std::hint::black_box((acc, words[words.len() / 2]));
            }
            Reference::Compute => {
                let mut chains = [1u64, 2, 3, 4];
                for _ in 0..20_000_000 {
                    for c in chains.iter_mut() {
                        *c ^= *c << 13;
                        *c ^= *c >> 7;
                        *c ^= *c << 17;
                    }
                }
                std::hint::black_box(chains);
            }
        }
        start.elapsed().as_secs_f64()
    }

    /// The kernel's host seconds on the host the benchmark was calibrated
    /// on, when nothing else ran there (a 2-vCPU KVM guest on an Intel
    /// Xeon, family 6 model 143). On that host, unloaded, a scaled time is
    /// a wall time.
    fn quiet_s(self) -> f64 {
        match self {
            Reference::Memory => 0.0475,
            Reference::Compute => 0.052,
        }
    }

    /// How much slower than [`Reference::quiet_s`] the host runs the
    /// kernel right now, on `threads` threads at once (their mean), so
    /// that a round that kept both cores busy is scaled by both cores'
    /// speed. One pass runs on the calling thread, so a one-thread
    /// slowdown times the core the round ran on: a new thread tends to
    /// start on an idle core, and the neighbours of two cores differ.
    fn slowdown(self, threads: usize) -> f64 {
        let total: f64 = std::thread::scope(|scope| {
            let others: Vec<_> = (1..threads)
                .map(|_| scope.spawn(move || self.time()))
                .collect();
            let own = self.time();
            own + others
                .into_iter()
                .map(|h| h.join().expect("the reference kernel panicked"))
                .sum::<f64>()
        });
        total / threads as f64 / self.quiet_s()
    }
}

/// The geometric mean of the `kernels`' slowdowns, each timed now on
/// `threads` threads.
fn slowdown(kernels: &[Reference], threads: usize) -> f64 {
    let log_sum: f64 = kernels.iter().map(|k| k.slowdown(threads).ln()).sum();
    (log_sum / kernels.len() as f64).exp()
}

/// Set-up samples per run, and per reference-kernel timing.
const SETUP_SAMPLES: usize = 400;
const SETUP_BATCH: usize = 50;

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Operations attempted and failed: the numerator and denominator of
/// `error_rate`. Every timed replication and every oracle leg is one
/// operation.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation that passed iff `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAIL: {}", what());
        }
    }

    /// Run one operation, counting a panic as its failure.
    pub fn guard<R>(&mut self, what: &str, f: impl FnOnce() -> R) -> Option<R> {
        let out = catch_unwind(AssertUnwindSafe(f));
        self.check(out.is_ok(), || format!("{what} panicked"));
        out.ok()
    }
}

/// The raw end-to-end readings of one untraced run. Every time and rate
/// is scaled by the reference kernels' slowdown timed right after it.
pub struct E2e {
    kernels: &'static [Reference],
    /// Threads each kernel runs on after each round: as many as ran
    /// replications side by side (the pool's workers on paper-sweep). One
    /// on multicell-sharded: its wall is its largest shard group's, which
    /// runs on one thread.
    threads: usize,
    /// Scaled seconds of each replication.
    pub replication_s: Vec<f64>,
    /// Unscaled host seconds of each replication.
    pub wall_s: Vec<f64>,
    /// Replications completed per scaled second, one sample per round.
    pub cases_per_s: Vec<f64>,
    /// Multicast packets the sources offered per scaled second, one
    /// sample per round.
    pub packets_per_s: Vec<f64>,
    /// The slowdown each round was scaled by.
    pub slowdown: Vec<f64>,
    /// Scaled seconds of each set-up (scenario assembly) sample.
    pub setup_s: Vec<f64>,
    /// Peak resident memory after the first round, before the reference
    /// kernel (whose table is larger than some workloads) first runs.
    pub peak_rss_mb: f64,
}

impl E2e {
    pub fn new(kernels: &'static [Reference], threads: usize) -> E2e {
        E2e {
            kernels,
            threads,
            replication_s: Vec::new(),
            wall_s: Vec::new(),
            cases_per_s: Vec::new(),
            packets_per_s: Vec::new(),
            slowdown: Vec::new(),
            setup_s: Vec::new(),
            peak_rss_mb: f64::NAN,
        }
    }

    /// Record one timed round: its wall, the walls of the replications it
    /// completed, and the packets they offered. Times the reference kernel
    /// right after it.
    pub fn round(&mut self, wall_s: f64, replications: &[f64], packets: u64) {
        if self.slowdown.is_empty() {
            self.peak_rss_mb = peak_rss_mb();
        }
        let slowdown = slowdown(self.kernels, self.threads);
        self.slowdown.push(slowdown);
        self.wall_s.extend_from_slice(replications);
        self.replication_s
            .extend(replications.iter().map(|w| w / slowdown));
        self.cases_per_s
            .push(replications.len() as f64 * slowdown / wall_s);
        self.packets_per_s.push(packets as f64 * slowdown / wall_s);
    }

    /// Time single `build` calls on the calling thread, [`SETUP_SAMPLES`]
    /// of them, each batch of [`SETUP_BATCH`] scaled by the one-thread
    /// slowdown of `kernels` timed right after it. Each built value is dropped outside
    /// its timing and before the next call, so every call reuses warm
    /// memory: timing calls whose results stay alive measures page faults
    /// as much as assembly, and reads bimodal.
    pub fn setup<T>(&mut self, kernels: &[Reference], build: impl Fn(u64) -> T) {
        for first in (0..SETUP_SAMPLES).step_by(SETUP_BATCH) {
            let walls: Vec<f64> = (first..SETUP_SAMPLES.min(first + SETUP_BATCH))
                .map(|i| {
                    let (s, built) = timed(|| build(i as u64));
                    drop(built);
                    s
                })
                .collect();
            let slowdown = slowdown(kernels, 1);
            self.setup_s.extend(walls.iter().map(|w| w / slowdown));
        }
    }
}

/// The readings of one traced run.
#[derive(Default)]
pub struct Traced {
    /// Per-layer values, each a median over the traced rounds.
    pub layers: crate::layers::Layers,
    /// The deterministic counts of every round, for the self-check.
    pub rounds: Vec<crate::layers::Counts>,
}
