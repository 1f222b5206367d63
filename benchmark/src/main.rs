//! `mdes-benchmark`: one workload per invocation, measured for a fixed
//! time, every output checked, every metric printed with its unit.
//!
//! ```text
//! mdes-benchmark --workload build|batch|serve_small|serve_reload
//!                --seed N --seconds S --trace 0|1 [--expected-dir DIR]
//! ```
//!
//! The last line of standard output is the result object.  A failed
//! output check prints it with `"correct": false` and exits 1; an invalid
//! run (the daemon died or stopped answering) exits 1 without a result.
//! Traces and the daemon's scratch files go to `<target>/benchmark/`.

mod batch;
mod build;
mod daemon;
mod serve;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mdes_benchmark::expected::Expected;
use mdes_benchmark::report::{catalogue, Report};
use mdes_benchmark::stats::{percentile, window_percentiles, MIN_WINDOW};
use mdes_benchmark::trace::Tracer;
use mdes_core::{lmdes, CheckStats, CompiledMdes};
use mdes_sched::ListScheduler;
use mdes_workload::{generate_compiled_regions, RegionConfig};

/// Set-up repetitions; `setup_s` is their median.  They are spread over
/// the run rather than taken back to back: the speed of a shared host
/// changes over seconds, and set-ups taken in one moment measure that
/// moment.
const SETUP_REPEATS: usize = 9;

/// Spans the traced run can hold.
const TRACE_CAPACITY: usize = 1 << 20;

/// Everything a workload needs from the command line.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    mdesc: PathBuf,
    out_dir: PathBuf,
    expected: Expected,
}

impl Args {
    /// The measured time of the run.
    pub fn measured(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// A tracer for this run: recording when traced, a no-op otherwise.
    pub fn tracer(&self) -> Tracer {
        Tracer::new(self.traced, TRACE_CAPACITY)
    }

    /// Writes the spans to `<target>/benchmark/trace-<workload>.tsv`
    /// (traced runs only).
    pub fn write_trace(&self, tracer: &Tracer) -> Result<(), String> {
        if !self.traced {
            return Ok(());
        }
        let path = self.out_dir.join(format!("trace-{}.tsv", self.workload));
        let file = std::fs::File::create(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        tracer
            .write_tsv(&mut out)
            .and_then(|()| std::io::Write::flush(&mut out))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "trace: {} span(s) in {} ({} dropped)",
            tracer.spans().len(),
            path.display(),
            tracer.dropped()
        );
        Ok(())
    }
}

const USAGE: &str = "usage: mdes-benchmark --workload build|batch|serve_small|serve_reload \
                     --seed N --seconds S --trace 0|1 [--expected-dir DIR]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut expected_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/expected"));
    let mut iter = argv.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--expected-dir" => expected_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["build", "batch", "serve_small", "serve_reload"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = seed.ok_or("--seed is required")?;
    // `run.sh` builds the daemon beside this binary, in the target
    // directory that also takes the output.
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let exe_dir = exe.parent().unwrap_or(Path::new("."));
    let out_dir = exe_dir.parent().unwrap_or(exe_dir).join("benchmark");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    Ok(Args {
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        mdesc: exe_dir.join("mdesc"),
        out_dir,
        expected: Expected::load(&expected_dir, seed)?,
        workload,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = match args.workload.as_str() {
        "build" => build::run(args)?,
        "batch" => batch::run(args)?,
        "serve_small" => serve::run_small(args)?,
        _ => serve::run_reload(args)?,
    };
    if args.traced {
        // Layers this workload never calls read 0 in its traced run.
        for (name, _) in catalogue(true) {
            if report.get(name).is_none() {
                report.set(name, 0.0);
            }
        }
    }
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mdes-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("mdes-benchmark: invalid run: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = report.check_complete(args.traced) {
        eprintln!("mdes-benchmark: {e}");
        return ExitCode::FAILURE;
    }
    for (name, unit) in catalogue(args.traced) {
        println!(
            "metric {}/{name} = {} {unit}",
            args.workload,
            report.get(name).unwrap_or(0.0)
        );
    }
    println!("{}", report.json_line(args.traced));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A closed loop's measured phase of length `len`, cut into equal slices
/// with one timed, discarded set-up after each, so that with the set-up
/// made before the phase there are [`SETUP_REPEATS`] in all.  Returns the
/// slices' results; the set-up times are added to `setup_s`.
pub fn sliced<P>(
    len: Duration,
    setup_s: &mut Vec<f64>,
    mut set_up: impl FnMut() -> Result<(), String>,
    mut measure: impl FnMut(Duration) -> P,
) -> Result<Vec<P>, String> {
    let slices = SETUP_REPEATS - 1;
    let mut results = Vec::with_capacity(slices);
    for _ in 0..slices {
        results.push(measure(len / slices as u32));
        let started = Instant::now();
        set_up()?;
        setup_s.push(started.elapsed().as_secs_f64());
    }
    Ok(results)
}

/// The closed-loop timings.  Every pass repeats the same `items` (the
/// samples are pass-major), and load from outside the benchmark only ever
/// adds time, coming and going on a shared machine, so each item counts
/// at its fastest: throughput is one pass's work over the sum of the
/// items' fastest times, and the p50 is the median item's fastest time.
/// The p99 comes from the least-contended window of time-ordered samples.
pub fn closed_loop(report: &mut Report, work_per_pass: f64, items: usize, item_ns: &[u64]) {
    let mut fastest: Vec<u64> = (0..items)
        .map(|i| {
            item_ns
                .iter()
                .skip(i)
                .step_by(items)
                .copied()
                .min()
                .unwrap_or(0)
        })
        .collect();
    report.set(
        "work_per_s",
        work_per_pass / (fastest.iter().sum::<u64>() as f64 / 1e9),
    );
    fastest.sort_unstable();
    report.set(
        "p50_ms",
        percentile(&fastest, 0.5).unwrap_or(0) as f64 / 1e6,
    );
    if item_ns.len() < MIN_WINDOW {
        println!("warning: the p99 rests on {} samples", item_ns.len());
    }
    let least = window_percentiles(item_ns, 0.99)
        .into_iter()
        .min()
        .unwrap_or(0);
    report.set("p99_ms", least as f64 / 1e6);
}

/// Regions in the probe behind `checks_per_attempt`, and its seed.  The
/// probe is the same on every run, whatever `--seed`, so the count moves
/// only when the descriptions or the checker change.
const PROBE_REGIONS: usize = 256;
const PROBE_SEED: u64 = 0x6d64_6573;

/// The paper's two costs of a workload's descriptions: their total LMDES
/// bytes (`image_bytes`), and the resource checks per scheduling attempt
/// (`checks_per_attempt`) when the serial list scheduler schedules the
/// fixed probe of [`PROBE_REGIONS`] regions × 16 mean ops on each.
pub fn paper_counts<'a>(images: impl IntoIterator<Item = &'a CompiledMdes>, report: &mut Report) {
    let mut bytes = 0;
    let mut stats = CheckStats::new();
    let config = RegionConfig::new(PROBE_REGIONS)
        .with_mean_ops(16)
        .with_seed(PROBE_SEED);
    for mdes in images {
        bytes += lmdes::write(mdes).len();
        let scheduler = ListScheduler::new(mdes);
        for block in &generate_compiled_regions(mdes, &config).blocks {
            scheduler.schedule(block, &mut stats);
        }
    }
    report.set("image_bytes", bytes as f64);
    report.set("checks_per_attempt", stats.checks_per_attempt());
}

/// Collects output-check failures; the run is correct when none were
/// noted.  The first few are printed to standard error.
#[derive(Default)]
pub struct Checks {
    failures: u64,
}

impl Checks {
    /// Notes the outcome of one check.
    pub fn note(&mut self, outcome: Result<(), String>) {
        if let Err(why) = outcome {
            self.failures += 1;
            if self.failures <= 8 {
                eprintln!("check failed: {why}");
            }
        }
    }

    /// Notes a failed check unless `ok`.
    pub fn expect(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.note(Err(why()));
        }
    }

    /// Prints a computed total and checks it against the expected file.
    pub fn total(&mut self, expected: &Expected, key: &str, value: impl std::fmt::Display) {
        println!("total {key} = {value}");
        self.note(expected.check(key, value));
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures == 0
    }
}
