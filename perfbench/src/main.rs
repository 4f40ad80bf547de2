//! The repository benchmark: one workload per run, end-to-end metrics with
//! tracing off, a per-layer split with tracing on.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ladder|ladder_serial|fifo|table1> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. A run repeats rounds until `--seconds`
//! have passed: each round elaborates the workload's netlists a few times
//! (`setup_s` is the median elaboration) and then runs the workload once
//! (`wall_s` is the median repetition). The workload's own checks follow. Every repetition is scored for lost,
//! corrupted or reordered outputs and digested; every digest of a run must
//! be equal, since the same code at the same seed simulates the same
//! thing. The last line of standard output is the result object.
//!
//! With `--trace 1` the first half of the time runs untraced and the
//! second half records spans around every call into the program; the
//! result then carries the per-layer metrics, and the spans are written
//! to `perfbench/out/` as Chrome trace-event JSON. `perfbench/METRICS.md`
//! documents every metric.

mod check;
mod fifo;
mod ladder;
mod table1;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mtf_bench::json::Json;

use crate::check::Digest;
use crate::trace::Tracer;

/// Elaborations before each timed repetition. Spreading them over the
/// run, rather than making them all at its start, exposes `setup_s` to
/// the same host conditions as `wall_s`.
const SETUPS_PER_REP: usize = 3;
/// Where traced runs write their trace files.
const OUT_DIR: &str = "perfbench/out";

/// The end-to-end metrics, reported with tracing off.
const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// The per-layer metrics, reported with tracing on. A workload that does
/// not reach a layer reports 0 for its metrics.
const PER_LAYER: [(&str, &str); 30] = [
    ("elab.s", "s"),
    ("elab.calls", "count"),
    ("elab.nets", "count"),
    ("kernel.run_s", "s"),
    ("kernel.events", "count"),
    ("kernel.ns_per_event", "ns"),
    ("kernel.sim_ns_per_s", "ns/s"),
    ("kernel.delta_pushes", "count"),
    ("kernel.coalesced_wakes", "count"),
    ("kernel.wheel_cascades", "count"),
    ("kernel.overflow_events", "count"),
    ("kernel.peak_queue_depth", "count"),
    ("kernel.metastable_samples", "count"),
    ("shard.busy_max_s", "s"),
    ("shard.busy_total_s", "s"),
    ("shard.blocked_total_s", "s"),
    ("shard.rounds", "count"),
    ("shard.messages_sent", "count"),
    ("shard.null_messages", "count"),
    ("shard.events_sent", "count"),
    ("shard.useful_msg_frac", "frac"),
    ("shard.kernel_events_total", "count"),
    ("shard.outside_busy_s", "s"),
    ("shard.wall_speedup", "x"),
    ("shard.critical_path_speedup", "x"),
    ("measure.periods_s", "s"),
    ("measure.throughput_s", "s"),
    ("measure.latency_s", "s"),
    ("measure.latency_sims", "count"),
    ("trace.overhead_s", "s"),
];

/// What one elaboration pass of a workload cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    /// Host time inside the elaboration calls.
    pub elab: Duration,
    /// Elaboration calls made.
    pub calls: u64,
    /// Nets created.
    pub nets: u64,
}

/// One timed repetition of a workload.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Operations attempted (items, or grid values).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Digest of everything simulated.
    pub digest: u64,
    /// Per-layer values of this repetition.
    pub layer: BTreeMap<&'static str, f64>,
}

/// The outcome of a workload's own checks after its timed repetitions.
#[derive(Clone, Debug, Default)]
pub struct Check {
    /// Operations the checks ran.
    pub attempted: u64,
    /// Operations that failed in them.
    pub failed: u64,
    /// Checks that did not hold.
    pub problems: Vec<String>,
    /// Per-layer values only the checks measure.
    pub layer: BTreeMap<&'static str, f64>,
}

impl Check {
    /// Records `what` as a problem unless `ok`.
    pub fn expect(&mut self, what: &str, ok: bool) {
        if !ok {
            self.problems.push(what.to_string());
        }
    }
}

/// A benchmark workload.
pub trait Workload {
    /// Worker threads a repetition runs on.
    fn threads(&self) -> usize;
    /// Elaborates the workload's netlists once.
    fn setup(&mut self, t: &mut Tracer) -> Setup;
    /// Runs the workload once.
    fn rep(&mut self, t: &mut Tracer) -> Rep;
    /// The workload's own checks, after the timed repetitions.
    fn check(&mut self, t: &mut Tracer, median_wall: f64) -> Check;
}

/// SplitMix64: the benchmark's input generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds must be positive, not {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Host seconds the hypervisor gave to other guests (`steal` in
/// `/proc/stat`, summed over CPUs), or 0 where the kernel does not say.
/// Printed with each run so that a disturbed run can be told apart.
fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The checked-out commit, read from `.git` when the tree is a clone.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// A digest of the program's sources (`Cargo.lock`, and every file under
/// `crates/` in path order) that identifies the code where no `.git`
/// exists.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![std::path::PathBuf::from("Cargo.lock")];
    walk(std::path::Path::new("crates"), &mut files);
    files[1..].sort();
    let mut d = Digest::default();
    for f in files {
        d.bytes(f.to_string_lossy().as_bytes());
        d.bytes(&std::fs::read(&f).unwrap_or_default());
    }
    d.value()
}

/// What [`measure`] collected.
#[derive(Default)]
struct Measured {
    setups: Vec<Setup>,
    walls: Vec<f64>,
    reps: Vec<Rep>,
    /// Self time per layer, summed over the repetitions' spans.
    selfs: BTreeMap<&'static str, Duration>,
}

impl Measured {
    fn setup_s(&self) -> f64 {
        median(
            &self
                .setups
                .iter()
                .map(|s| s.elab.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    }
}

/// Elaborates and repeats the workload for `budget`: at least once, and
/// then as long as another round as long as the last one still fits.
fn measure(w: &mut dyn Workload, t: &mut Tracer, budget: Duration) -> Measured {
    let start = Instant::now();
    let mut m = Measured::default();
    loop {
        let round = Instant::now();
        t.span("bench.setup", |t| {
            for _ in 0..SETUPS_PER_REP {
                m.setups.push(w.setup(t));
            }
        });
        let mark = t.mark();
        let t0 = Instant::now();
        let rep = t.span("bench.rep", |t| w.rep(t));
        m.walls.push(t0.elapsed().as_secs_f64());
        m.reps.push(rep);
        for (layer, d) in t.self_times(mark) {
            *m.selfs.entry(layer).or_default() += d;
        }
        if start.elapsed() + round.elapsed() > budget {
            return m;
        }
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn run() -> Result<(), String> {
    let args = Args::parse()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "ladder" => Box::new(ladder::Ladder::new(args.seed, nproc.min(2))),
        "ladder_serial" => Box::new(ladder::Ladder::new(args.seed, 1)),
        "fifo" => Box::new(fifo::Fifo::new(args.seed)),
        "table1" => Box::new(table1::Table1::new()?),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let w = workload.as_mut();

    let host = Json::obj([
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("nproc", Json::Num(nproc as f64)),
        ("threads", Json::Num(w.threads() as f64)),
        ("commit", commit().map_or(Json::Null, Json::str)),
        (
            "source_digest",
            Json::str(format!("{:#018x}", source_digest())),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("ladder_domains", Json::Num(ladder::DOMAINS as f64)),
        ("ladder_shards", Json::Num(nproc.min(2) as f64)),
        ("ladder_items", Json::Num(ladder::ITEMS as f64)),
        ("fifo_items", Json::Num(fifo::ITEMS as f64)),
        ("table1_latency_steps", Json::Num(table1::STEPS as f64)),
    ]);
    println!("host {}", host.render());

    let budget = Duration::from_secs_f64(args.seconds);
    let steal_start = steal_s();
    let untraced = measure(
        w,
        &mut Tracer::new(false),
        if args.trace { budget / 2 } else { budget },
    );
    let mut tracer = Tracer::new(args.trace);
    let traced = if args.trace {
        measure(w, &mut tracer, budget / 2)
    } else {
        Measured::default()
    };
    let wall_s = median(&untraced.walls);
    let setup_s = untraced.setup_s();
    let check = tracer.span("bench.check", |t| w.check(t, wall_s));

    // Identity: every repetition simulated exactly what the first did.
    let first_digest = untraced.reps[0].digest;
    let mut attempted = check.attempted;
    let mut failed = check.failed;
    let mut problems = check.problems.clone();
    for rep in untraced.reps.iter().chain(&traced.reps) {
        attempted += rep.attempted;
        failed += if rep.digest == first_digest {
            rep.failed
        } else {
            rep.attempted
        };
    }
    if untraced
        .reps
        .iter()
        .chain(&traced.reps)
        .any(|r| r.digest != first_digest)
    {
        problems.push("repetitions at one seed simulated different things".into());
    }
    let traced_self: Duration = traced.selfs.values().sum();
    let traced_wall: f64 = traced.walls.iter().sum();
    if traced_self.as_secs_f64() > traced_wall {
        problems.push(format!(
            "span self times {:.6} s exceed traced wall {traced_wall:.6} s",
            traced_self.as_secs_f64()
        ));
    }
    let peak_rss = peak_rss_mb()?;

    println!(
        "identity {}",
        Json::obj([
            ("workload", Json::str(args.workload.clone())),
            ("seed", Json::Num(args.seed as f64)),
            ("digest", Json::str(format!("{first_digest:#018x}"))),
            (
                "repetitions",
                Json::Num((untraced.reps.len() + traced.reps.len()) as f64),
            ),
        ])
        .render()
    );
    println!(
        "summary {}: wall_s={wall_s:.4} setup_s={setup_s:.5} peak_rss_mb={peak_rss:.1} \
         failed_frac={} ({failed}/{attempted}) host_steal_s={:.2}; repetition walls {:.4?}",
        args.workload,
        failed as f64 / attempted.max(1) as f64,
        steal_s() - steal_start,
        untraced.walls,
    );
    for p in &problems {
        println!("problem {p}");
    }

    let metrics: Vec<(String, Json)> = if args.trace {
        let mut layer: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, _) in PER_LAYER {
            let vals: Vec<f64> = traced
                .reps
                .iter()
                .filter_map(|r| r.layer.get(name).copied())
                .collect();
            if !vals.is_empty() {
                layer.insert(name, median(&vals));
            }
        }
        layer.extend(check.layer.iter().map(|(k, v)| (*k, *v)));
        layer.insert("elab.s", traced.setup_s());
        layer.insert("elab.calls", traced.setups[0].calls as f64);
        layer.insert("elab.nets", traced.setups[0].nets as f64);
        layer.insert("trace.overhead_s", median(&traced.walls) - wall_s);

        for (name, d) in &traced.selfs {
            println!(
                "self_time {name} {:.6} s of {traced_wall:.6} s traced wall",
                d.as_secs_f64()
            );
        }
        let doc = tracer.chrome_json(Json::obj([
            ("host", host),
            (
                "per_layer",
                Json::Obj(
                    layer
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ]));
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/trace-{}-seed{}.json", args.workload, args.seed);
        std::fs::write(&path, doc.render()).map_err(|e| format!("{path}: {e}"))?;
        println!("trace {path}");

        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                (
                    name.to_string(),
                    metric(layer.get(name).copied().unwrap_or(0.0), unit),
                )
            })
            .collect()
    } else {
        let values = [wall_s, setup_s, peak_rss];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), metric(v, unit)))
            .collect()
    };

    let result = Json::Obj(vec![
        (
            "correct".into(),
            Json::Bool(failed == 0 && problems.is_empty()),
        ),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
