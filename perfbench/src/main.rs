//! The RIME benchmark: three workloads that together exercise every
//! layer from the service's session ring down to the mat kernels, with
//! end-to-end metrics from untraced runs and per-layer metrics from a
//! separate traced run. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare --parent <results>... --change <results>...
//! ```
//!
//! A run prints a human-readable summary, then one self-describing JSON
//! record (host fingerprint, seed, operation counts, every metric with
//! its unit), then as its last line the summary object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod compare;
mod device_sort;
mod host;
mod json;
mod layers;
mod service_extract;
mod service_mixed;
mod slices;
mod speed;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::Values;
use stats::LatencySummary;
use trace::SpanLog;

/// The workloads, by the names results cite.
const WORKLOADS: [&str; 3] = ["service_extract", "device_sort", "service_mixed"];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A small seeded generator (splitmix64): the benchmark makes every
/// input from `--seed` with it, so one seed always means one input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by rejection so there is no bias.
    pub fn below(&mut self, n: u64) -> u64 {
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }
}

/// Runs fixed-size rounds until the budget is spent: always one round,
/// and another only while the previous round's length still fits, so a
/// run measures whole rounds and ends close to its budget.
pub fn run_rounds(
    budget: Duration,
    mut round: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        round()?;
        if start.elapsed() + t.elapsed() > budget {
            return Ok(());
        }
    }
}

/// Builds the fixture [`SETUPS`] times, keeping the last, and returns it
/// with the median build time in seconds. Each earlier fixture is
/// dropped, and a reference unit timed, before the next build, outside
/// the timed region. A workload calls this before anything else times a
/// reference unit.
pub fn timed_setups<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut fixture = None;
    for _ in 0..SETUPS {
        drop(fixture.take());
        speed::sample();
        let t = Instant::now();
        fixture = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    Ok((fixture.expect("at least one set-up"), times[SETUPS / 2]))
}

/// The `ParallelPolicy::Auto` crossover, in mats, that runs use unless
/// `RIME_POOL_CROSSOVER` is already set. Auto otherwise derives it from
/// a one-shot per-process calibration, which on a small shared host
/// lands anywhere from 2 to 17 mats from one run to the next and flips
/// which sorts use the pool; pinning it to the crossover the repository
/// measured (16 mats, `BENCH_parallel_scaling.json`) keeps runs
/// comparable. The calibration is still taken and recorded.
const POOL_CROSSOVER: &str = "16";

/// The crossover chips use, in mats, and the pool calibration this
/// process measured, as a JSON object for the record.
pub fn pool_record() -> String {
    let crossover =
        rime_memristive::Chip::new(rime_memristive::ChipGeometry::table1()).pool_crossover_mats();
    let cal = rime_memristive::pool_calibration();
    json::object(&[
        ("crossover_mats", crossover.to_string()),
        ("calibrated_round_trip_ns", cal.round_trip_ns.to_string()),
        ("calibrated_word_picos", cal.word_picos.to_string()),
    ])
}

/// What a workload hands back to be printed.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    /// Operations refused or failed by the program.
    pub failed: u64,
    /// Output checks that failed; any makes the run incorrect.
    pub errors: Vec<String>,
    pub values: Values,
    /// Extra record fields, already rendered as JSON values.
    pub info: Vec<(String, String)>,
    pub spans: Option<SpanLog>,
}

impl Report {
    pub fn fail(mut self, error: String) -> Report {
        self.errors.push(error);
        self
    }

    pub fn info(&mut self, key: &str, value: String) {
        self.info.push((key.to_string(), value));
    }

    /// Scales the timed end-to-end metrics to the reference host
    /// ([`speed`]): durations are divided by the host factor and rates
    /// multiplied by it; `setup_s` uses the factor of the units timed
    /// before the set-ups, the rest that of the units timed while
    /// measuring. The values as measured go to the record.
    fn scale_to_reference(&mut self, setup_factor: f64, run_factor: f64) {
        let mut unscaled = Vec::new();
        for (name, factor, rate) in [
            ("throughput", run_factor, true),
            ("latency_p50_us", run_factor, false),
            ("cpu_ms_per_kop", run_factor, false),
            ("setup_s", setup_factor, false),
        ] {
            if let Some(v) = self.values.get_mut(name) {
                unscaled.push((name, json::number(*v)));
                *v = if rate { *v * factor } else { *v / factor };
            }
        }
        self.info("unscaled", json::object(&unscaled));
    }

    /// Records a latency summary (in ns samples) under `what`.
    pub fn latency(&mut self, what: &str, l: &LatencySummary) {
        let us = |ns: u64| json::number(ns as f64 / 1e3);
        self.info(
            "latency",
            json::object(&[
                ("of", json::string(what)),
                ("samples", l.count.to_string()),
                ("p50_us", us(l.p50)),
                ("p99_us", us(l.p99)),
                ("tail_percentile", json::number(l.tail_pct)),
                ("tail_us", us(l.tail)),
                ("max_us", us(l.max)),
                ("mean_us", json::number(l.mean / 1e3)),
            ]),
        );
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench compare --parent <results>... --change <results>...",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..], &repo_root().join("BENCHMARK.json"));
    }
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = WORKLOADS.iter().copied().find(|w| w == value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| cfg.seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0 && *s <= 120.0)
                .map(|v| cfg.seconds = v)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    cfg.trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    if std::env::var_os("RIME_POOL_CROSSOVER").is_none() {
        // Still single-threaded: nothing else reads the environment yet.
        std::env::set_var("RIME_POOL_CROSSOVER", POOL_CROSSOVER);
    }
    let mut report = match workload {
        "service_extract" => service_extract::run(&cfg),
        "device_sort" => device_sort::run(&cfg),
        _ => service_mixed::run(&cfg),
    };
    // A run's first reference units are those of its set-ups; all later
    // ones were timed while measuring.
    let (setups, measuring) = (0..SETUPS, SETUPS..usize::MAX);
    report.info("host_speed_setup", speed::record(setups.clone()));
    report.info("host_speed", speed::record(measuring.clone()));
    if !cfg.trace {
        report.scale_to_reference(speed::factor(setups), speed::factor(measuring));
    }
    print_report(workload, &cfg, report)
}

fn print_report(workload: &str, cfg: &RunConfig, mut report: Report) -> ExitCode {
    let catalog: &[(&str, &str)] = if cfg.trace {
        &layers::PER_LAYER
    } else {
        &layers::END_TO_END
    };
    let mut metrics = Vec::with_capacity(catalog.len());
    for &(name, unit) in catalog {
        // A layer the workload bypasses reports 0; an end-to-end metric
        // is always measured.
        let value = match report.values.get(name) {
            Some(&v) => v,
            None if cfg.trace && report.errors.is_empty() => 0.0,
            None => {
                if report.errors.is_empty() {
                    report
                        .errors
                        .push(format!("metric {name} was not measured"));
                }
                continue;
            }
        };
        if !value.is_finite() {
            report.errors.push(format!("metric {name} is {value}"));
            continue;
        }
        metrics.push((name, unit, value));
    }
    // Measured but not gated: in the record only.
    let ungated: Vec<(&str, String)> = report
        .values
        .iter()
        .filter(|(name, _)| !catalog.iter().any(|(c, _)| c == *name))
        .map(|(&name, &v)| (name, json::number(v)))
        .collect();
    if !ungated.is_empty() {
        report.info("ungated", json::object(&ungated));
    }
    if let Some(spans) = report.spans.take() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{workload}-{}.jsonl", cfg.seed));
        match spans.write_to(&path) {
            Ok(()) => report.info("spans_file", json::string(&path.display().to_string())),
            Err(e) => report.errors.push(format!("writing spans: {e}")),
        }
        report.info("spans_dropped", spans.dropped().to_string());
    }
    let correct = report.errors.is_empty();

    println!(
        "perfbench {workload} seed={} seconds={} trace={}",
        cfg.seed, cfg.seconds, cfg.trace as u8
    );
    for e in &report.errors {
        println!("  CHECK FAILED: {e}");
    }
    for (name, unit, value) in &metrics {
        println!("  {name:<32} {value:>16.4} {unit}");
    }
    for (name, value) in &ungated {
        println!("  {name:<32} {value:>16} (not gated)");
    }
    println!(
        "  attempted {} failed {} correct {correct}",
        report.attempted, report.failed
    );

    let host = host::Fingerprint::read(&repo_root());
    let metric_objects: Vec<(&str, String)> = metrics
        .iter()
        .map(|&(name, unit, value)| {
            (
                name,
                json::object(&[("value", json::number(value)), ("unit", json::string(unit))]),
            )
        })
        .collect();
    let metrics_json = json::object(&metric_objects);
    let mut record: Vec<(String, String)> = vec![
        ("workload".into(), json::string(workload)),
        ("seed".into(), cfg.seed.to_string()),
        ("seconds".into(), json::number(cfg.seconds)),
        ("trace".into(), (cfg.trace as u8).to_string()),
        (
            "host".into(),
            json::object(&[
                ("nproc", host.nproc.to_string()),
                ("cpu_model", json::string(&host.cpu_model)),
                ("rustc", json::string(&host.rustc)),
                ("git_rev", json::string(&host.git_rev)),
            ]),
        ),
        ("correct".into(), correct.to_string()),
        ("attempted".into(), report.attempted.to_string()),
        ("failed".into(), report.failed.to_string()),
        (
            "failed_frac".into(),
            json::number(layers::ratio(report.failed as f64, report.attempted as f64)),
        ),
        (
            "errors".into(),
            format!(
                "[{}]",
                report
                    .errors
                    .iter()
                    .map(|e| json::string(e))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("metrics".into(), metrics_json.clone()),
    ];
    record.extend(report.info);
    println!("{}", json::object(&record));
    println!(
        "{}",
        json::object(&[
            ("correct", correct.to_string()),
            ("attempted", report.attempted.max(1).to_string()),
            ("failed", report.failed.to_string()),
            ("metrics", metrics_json),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
