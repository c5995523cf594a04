//! The repository's benchmark: three workloads measured end to end
//! (`--trace 0`) and layer by layer (`--trace 1`) from outside the
//! program. See `NOTES.md` for why each workload exists and which
//! layer metric should move which end-to-end metric.
//!
//! ```text
//! perfbench --workload <soap_call_mix|directory_churn|cloud_fleet>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats seeded episodes until `--seconds` have passed. It
//! prints a provenance line and, last, one JSON result line.

mod alloc;
mod churn;
mod episode;
mod fleet;
mod probe;
mod report;
mod soap_mix;
mod stats;

use episode::{Episode, Values};
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Episodes each mode runs at least, so set-up time has a median.
const MIN_EPISODES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    SoapCallMix,
    DirectoryChurn,
    CloudFleet,
}

impl Workload {
    fn from_name(name: &str) -> Option<Workload> {
        match name {
            "soap_call_mix" => Some(Workload::SoapCallMix),
            "directory_churn" => Some(Workload::DirectoryChurn),
            "cloud_fleet" => Some(Workload::CloudFleet),
            _ => None,
        }
    }

    fn episode(self, seed: u64, traced: bool) -> Episode {
        match self {
            Workload::SoapCallMix => soap_mix::episode(&soap_mix::PARAMS, seed, traced),
            Workload::DirectoryChurn => churn::episode(&churn::PARAMS, seed, traced),
            Workload::CloudFleet => fleet::episode(&fleet::PARAMS, seed, traced),
        }
    }

    fn threads(self) -> usize {
        match self {
            Workload::CloudFleet => fleet::threads(),
            _ => 1,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Host ns of a fixed integer loop: recorded with every report so runs
/// on different hosts can be told apart, never divided into a result.
fn calibration_ns() -> u64 {
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64);
            for i in 0..4_000_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(i);
            }
            std::hint::black_box(x);
            probe::elapsed_ns(t0) as f64
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[2] as u64
}

/// A provenance field `run.py` passes in the environment.
fn provenance_env(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| "unknown".into())
}

/// Untraced episodes, and (with tracing) traced episodes interleaved
/// with them, until `seconds` have passed and each mode has its minimum.
fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> (Vec<Episode>, Vec<Episode>) {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    loop {
        if trace && traced.len() < plain.len() {
            traced.push(workload.episode(seed, true));
        } else {
            plain.push(workload.episode(seed, false));
        }
        let enough = plain.len() >= MIN_EPISODES && (!trace || traced.len() >= MIN_EPISODES);
        if enough && Instant::now() >= deadline {
            return (plain, traced);
        }
    }
}

struct Summary {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Values,
    /// The percentile reported as `op_host_p99_ns`, and the op samples
    /// per episode it came from.
    tail: (f64, usize),
}

fn median_of(episodes: &[Episode], field: impl Fn(&Episode) -> f64) -> f64 {
    stats::median(&episodes.iter().map(field).collect::<Vec<_>>())
}

/// The slow quartile across episodes of a host-time cell: the upper
/// quartile of a time, the lower quartile of a rate. The host's other
/// tenants make bursts of episodes run up to 1.5x faster; this quartile
/// stays in the common, contended state unless most of a run was fast,
/// where a median would drift with the share of fast episodes.
fn slow_quartile(episodes: &[Episode], field: impl Fn(&Episode) -> f64, is_rate: bool) -> f64 {
    let values: Vec<f64> = episodes.iter().map(field).collect();
    let [q1, _, q3] = stats::quartiles(&values);
    if is_rate {
        q1
    } else {
        q3
    }
}

/// Nearest-rank percentile `p` of one episode's op host times; `p`
/// above what the samples support falls back to the highest percentile
/// with ten samples beyond it.
fn host_percentile(e: &Episode, p: f64) -> f64 {
    let p = stats::tail_percentile(e.op_host_ns.len(), p).unwrap_or(100.0);
    bench::percentile(&e.op_host_ns, p) as f64
}

fn summarize(plain: &[Episode], traced: &[Episode], trace: bool) -> Summary {
    let all = || plain.iter().chain(traced);
    let identity = &plain[0].identity;
    let mut correct = all().all(|e| e.correct);
    if let Some(other) = all().find(|e| e.identity != *identity) {
        eprintln!(
            "deterministic cells differ between episodes:\n  {identity}\n  {}",
            other.identity
        );
        correct = false;
    }
    let attempted = all().map(|e| e.attempted).sum();
    let failed = all().map(|e| e.failed).sum();
    let samples = plain.iter().map(|e| e.op_host_ns.len()).min().unwrap_or(0);
    let tail = stats::tail_percentile(samples, 99.0).unwrap_or(100.0);
    let mut values = Values::new();
    if trace {
        for (name, _) in report::PER_LAYER {
            // Counters come from untraced episodes where they exist
            // there; host timings exist only in traced ones.
            let source = if plain[0].layers.contains_key(name) {
                plain
            } else {
                traced
            };
            let v = if source[0].layers.contains_key(name) {
                median_of(source, |e| e.layers[name])
            } else {
                0.0
            };
            values.insert(name, v);
        }
        let p50 = |episodes| slow_quartile(episodes, |e| host_percentile(e, 50.0), false);
        values.insert("trace.overhead_ratio", p50(traced) / p50(plain));
    } else {
        let virt = &plain[0].op_virtual_us;
        values.insert("ops_per_s", slow_quartile(plain, |e| e.rate, true));
        values.insert(
            "op_host_p50_ns",
            slow_quartile(plain, |e| host_percentile(e, 50.0), false),
        );
        values.insert(
            "op_host_p99_ns",
            slow_quartile(plain, |e| host_percentile(e, 99.0), false),
        );
        values.insert("op_virtual_p50_us", bench::percentile(virt, 50.0) as f64);
        values.insert("op_virtual_p99_us", bench::percentile(virt, 99.0) as f64);
        values.insert("allocs_per_op", median_of(plain, |e| e.allocs_per_op));
        values.insert("wire_bytes_per_op", plain[0].wire_bytes_per_op);
        values.insert(
            "heap_bytes_per_home",
            median_of(plain, |e| e.heap_bytes_per_home),
        );
        let (a, f) = plain
            .iter()
            .fold((0, 0), |(a, f), e| (a + e.attempted, f + e.failed));
        values.insert("ok_ratio", (a - f) as f64 / a as f64);
        values.insert("setup_s", slow_quartile(plain, |e| e.setup_s, false));
    }
    Summary {
        correct,
        attempted,
        failed,
        values,
        tail: (tail, samples),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::from_name(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let calibration = calibration_ns();
    let (plain, traced) = run(workload, args.seed, args.seconds, args.trace);
    let summary = summarize(&plain, &traced, args.trace);
    let rates: Vec<f64> = plain.iter().map(|e| e.rate).collect();
    let rate_quartiles = stats::quartiles(&rates);
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cores\": {}, \"threads\": {}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \
         \"calibration_ns\": {calibration}, \"episodes_untraced\": {}, \"episodes_traced\": {}, \
         \"op_host_samples_per_episode\": {}, \"op_host_tail_percentile\": {}, \"episode_rate_quartiles\": {:?}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        fleet::threads(),
        workload.threads(),
        provenance_env("PERFBENCH_RUSTC"),
        provenance_env("PERFBENCH_GIT_REV"),
        plain.len(),
        traced.len(),
        summary.tail.1,
        summary.tail.0,
        rate_quartiles,
    );
    let table = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    println!(
        "{}",
        report::result_line(
            summary.correct,
            summary.attempted,
            summary.failed,
            table,
            &summary.values
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload, seed: u64, traced: bool) -> Episode {
        match workload {
            Workload::SoapCallMix => soap_mix::episode(
                &soap_mix::Params {
                    ops: 1024,
                    warm_ops: 32,
                },
                seed,
                traced,
            ),
            Workload::DirectoryChurn => churn::episode(
                &churn::Params {
                    services: 256,
                    ops: 1024,
                    warm_ops: 256,
                },
                seed,
                traced,
            ),
            Workload::CloudFleet => fleet::episode(
                &fleet::Params {
                    homes: 32,
                    day_minutes: 6,
                },
                seed,
                traced,
            ),
        }
    }

    /// Every workload, in both modes, emits exactly the metrics
    /// `BENCHMARK.json` declares, and its episodes agree on every
    /// deterministic cell whether traced or not.
    #[test]
    fn every_workload_emits_the_declared_metrics_and_is_deterministic() {
        for workload in [
            Workload::SoapCallMix,
            Workload::DirectoryChurn,
            Workload::CloudFleet,
        ] {
            let plain = vec![tiny(workload, 3, false), tiny(workload, 3, false)];
            let traced = vec![tiny(workload, 3, true), tiny(workload, 3, true)];
            for (trace, table) in [(false, report::END_TO_END), (true, report::PER_LAYER)] {
                let s = summarize(&plain, &traced, trace);
                assert!(s.correct, "{workload:?}: correct");
                assert_eq!(s.failed, 0, "{workload:?}: no op failed");
                let names: Vec<&str> = s.values.keys().copied().collect();
                let mut declared: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
                declared.sort_unstable();
                assert_eq!(names, declared, "{workload:?} trace={trace}");
                report::result_line(true, s.attempted, s.failed, table, &s.values);
            }
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| {
            s.split_whitespace()
                .map(str::to_owned)
                .collect::<Vec<_>>()
                .into_iter()
        };
        let a = parse_args(argv(
            "--workload cloud_fleet --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("cloud_fleet", 7, 10, true)
        );
        assert!(parse_args(argv("--workload x --seed 7 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(argv("--workload x --seed 7")).is_err());
        assert!(Workload::from_name("nope").is_none());
    }
}
