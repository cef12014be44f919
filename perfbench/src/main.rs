//! `perfbench`: the repository's benchmark. One workload per invocation:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end metrics,
//! `--trace 1` the per-layer metrics of a separate traced replay. The last
//! line of standard output is the result object; the line before it stamps
//! the host and the sample count of each metric. The exit code is 1 when
//! any output differs from its reference. `--write-reference` regenerates
//! the committed references instead (see README.md).

mod grid;
mod reference;
mod replay;
mod serve;
mod stats;
mod trace;

use ccdp_json::{Json, ToJson};
use stats::Tally;

/// End-to-end metrics, printed by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every `--trace 1` run; a layer that does
/// not run on a workload reads 0 with 0 samples.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("t3d.seq_ms", "ms"),
    ("t3d.base_ms", "ms"),
    ("t3d.ccdp_ms", "ms"),
    ("t3d.mesi_ms", "ms"),
    ("t3d.dragon_ms", "ms"),
    ("t3d.ns_per_access", "ns"),
    ("t3d.accesses", "count"),
    ("t3d.sim_cycles", "count"),
    ("t3d.shard.proven", "count"),
    ("t3d.shard.logged", "count"),
    ("t3d.shard.conflicts", "count"),
    ("t3d.shard.attempted", "count"),
    ("t3d.shard.useful_ratio", "ratio"),
    ("analysis.shard_ms", "ms"),
    ("ir.parse_ms", "ms"),
    ("ir.validate_ms", "ms"),
    ("analysis.stale_ms", "ms"),
    ("prefetch.plan_ms", "ms"),
    ("lint.verify_ms", "ms"),
    ("lint.obligations", "count"),
    ("json.encode_ms", "ms"),
    ("json.bytes", "B"),
    ("core.self_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.journal_append_ms", "ms"),
    ("serve.journal_bytes", "B"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_lookups", "count"),
    ("serve.shed", "count"),
    ("serve.restarts", "count"),
    ("serve.redispatches", "count"),
    ("serve.http_errors", "count"),
    ("bench.trace_overhead", "ratio"),
    ("bench.replayed_ops", "count"),
];

pub const WORKLOADS: [&str; 3] = ["table1", "serve-distinct", "serve-hot"];

/// Every `CCDP_*` knob the program reads is cleared, in this process and in
/// the ccdpd it spawns, so a stray variable cannot change what is measured;
/// the benchmark pins what it needs explicitly.
pub fn is_program_knob(var: &str) -> bool {
    var.starts_with("CCDP_")
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            value,
            samples,
        }
    }
}

/// What a workload run hands back: its metrics, its operation tally, and
/// free-form details for the stamp line.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub details: Vec<(&'static str, Json)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let workload = flag(args, "--workload").ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let num = |name: &str, default: &str| {
        flag(args, name)
            .unwrap_or_else(|| default.to_string())
            .parse::<u64>()
            .map_err(|_| format!("{name} needs a whole number"))
    };
    let seconds = num("--seconds", "10")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match num("--trace", "0")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    Ok(Args {
        workload,
        seed: num("--seed", "0")?,
        seconds: seconds as f64,
        trace,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The host and run details every result is stamped with.
fn stamp(a: &Args) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("workload", a.workload.to_json()),
        ("seed", a.seed.to_json()),
        ("seconds", a.seconds.to_json()),
        ("trace", a.trace.to_json()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_json(),
        ),
        ("cpu", cpu.to_json()),
        ("rustc", command_line("rustc", &["--version"]).to_json()),
        (
            "git_revision",
            command_line("git", &["rev-parse", "HEAD"]).to_json(),
        ),
    ])
}

/// VmHWM of a process from `/proc`, in megabytes.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| is_program_knob(k))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    if argv.iter().any(|a| a == "--write-reference") {
        if let Err(e) = reference::write() {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
        return;
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let run = match args.workload.as_str() {
        "table1" => grid::run(args.seconds, args.trace),
        "serve-distinct" => serve::run(serve::Mix::Distinct, args.seed, args.seconds, args.trace),
        _ => serve::run(serve::Mix::Hot, args.seed, args.seconds, args.trace),
    };
    let out = run.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    let mut samples = Vec::new();
    for &(name, unit) in names {
        let m = out.metrics.iter().find(|m| m.name == name);
        let (value, n) = m.map_or((0.0, 0), |m| (m.value, m.samples));
        eprintln!("perfbench: {name:<26} {value:>16.6} {unit:<6} ({n} samples)");
        metrics.push((
            name,
            Json::obj([("value", value.to_json()), ("unit", unit.to_json())]),
        ));
        samples.push((name, n.to_json()));
    }
    for m in &out.metrics {
        assert!(
            names.iter().any(|(n, _)| *n == m.name),
            "metric {} is not declared",
            m.name
        );
    }
    let correct = out.tally.failed == 0;
    let mut details = vec![
        ("stamp", stamp(&args)),
        ("samples", Json::obj(samples)),
        ("ops", out.tally.attempted.to_json()),
        ("failed", out.tally.failed.to_json()),
        ("error_rate", out.tally.error_rate().to_json()),
    ];
    details.extend(out.details);
    println!(
        "{}",
        Json::obj([("perfbench", Json::obj(details))]).to_string()
    );
    println!(
        "{}",
        Json::obj([
            ("correct", correct.to_json()),
            ("attempted", out.tally.attempted.to_json()),
            ("failed", out.tally.failed.to_json()),
            ("metrics", Json::obj(metrics)),
        ])
        .to_string()
    );
    if !correct {
        eprintln!(
            "perfbench: {} of {} operations failed",
            out.tally.failed, out.tally.attempted
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree, names and
    /// units, in order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = ccdp_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn args_are_checked() {
        let v = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&v("--workload table1 --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse_args(&v("--workload nope")).is_err());
        assert!(parse_args(&v("--workload table1 --trace 2")).is_err());
        assert!(parse_args(&v("--workload table1 --seconds 0")).is_err());
        assert!(parse_args(&v("--seed 1")).is_err());
    }

    #[test]
    fn knobs_are_recognised() {
        for k in [
            "CCDP_SIM_THREADS",
            "CCDP_FORCE_TREEWALK",
            "CCDP_SHARD_STATIC",
            "CCDP_SCALE",
        ] {
            assert!(is_program_knob(k));
        }
        assert!(!is_program_knob("CARGO_TARGET_DIR"));
    }
}
