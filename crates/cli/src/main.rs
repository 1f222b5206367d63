//! `mdesc` — the command-line MDES customizer.
//!
//! The paper's two-tier model assumes an offline step that translates the
//! high-level description into the optimized low-level file the compiler
//! loads at start-up (IMPACT's "Lmdes customizer", reference \[4\]).  This
//! binary is that step:
//!
//! ```text
//! mdesc compile <in.hmdl> [-o out.lmdes] [--no-optimize] [--expand-or]
//!               [--encoding scalar|bitvector] [--direction forward|backward]
//! mdesc optimize <in.hmdl> [--ops N] [-o out.lmdes]
//! mdesc verify  <in.hmdl> [--guard validate|oracle] [--seed N]
//!               [--inject <stage>:<fault>]
//! mdesc dump    <in.hmdl|in.lmdes> [--class NAME]
//! mdesc stats   <in.hmdl>
//! mdesc fmt     <in.hmdl>
//! mdesc check   <in.hmdl>
//! mdesc bundled <PA7100|Pentium|SuperSPARC|K5>
//! mdesc bench-serve [--machine NAME] [--jobs N] [--regions M]
//! mdesc serve   [--machine LIST|all] [--socket PATH] [--workers N] [--chaos]
//! mdesc serve-load --socket PATH [--requests N] [--pipeline D]
//!               [--machines LIST|all] [--reload-at I[@MACHINE]:PATH]
//! mdesc oracle  [--seed N] [--regions N] [--max-ops K] [--machine NAME]
//!               [--fleet N]
//! mdesc lint    [<in.hmdl>] [--machine NAME|all] [--fleet N] [--seed S]
//!               [--defects] [--json]
//! ```
//!
//! The binary is also installed as `mdes`.  The global `--metrics <path>`
//! and `--metrics-summary` flags collect pipeline/compile/scheduler
//! telemetry into a JSON file or a stderr table; see `docs/telemetry.md`.
//!
//! Diagnostics go to stderr and failures map onto distinct exit codes:
//! 1 for general errors, 2 for parse/elaboration errors, 3 for
//! structural-validation failures, and 4 for differential-oracle
//! mismatches; see `docs/robustness.md`.

mod analysis;

use std::process::ExitCode;

use mdes_core::size::measure;
use mdes_core::{lmdes, CompiledMdes, MdesSpec, UsageEncoding};
use mdes_guard::{optimize_guarded, Fault, FaultKind, GuardConfig, GuardMode, GuardedReport};
use mdes_opt::pipeline::{optimize, optimize_with_telemetry, PipelineConfig, StageId};
use mdes_opt::timeshift::Direction;
use mdes_serve::{BenchFlags, BindAddr, ImageStore, LoadOptions, ReloadEvent, ServeConfig};
use mdes_telemetry::Telemetry;

/// Exit code for usage, I/O and other general failures.
const EXIT_GENERAL: u8 = 1;
/// Exit code for parse or elaboration errors in an input description.
const EXIT_PARSE: u8 = 2;
/// Exit code for structural-validation failures (input or stage output).
const EXIT_VALIDATION: u8 = 3;
/// Exit code for differential-oracle mismatches under `--guard oracle`.
const EXIT_ORACLE: u8 = 4;
/// Exit code for perf-gate failures under `mdesc perf --baseline`.
const EXIT_PERF: u8 = 5;

/// A CLI failure: the diagnostic text plus the process exit code it maps
/// to.  Diagnostics always go to stderr (see [`main`]); stdout carries
/// only the command's requested output.
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    fn parse(message: impl Into<String>) -> CliError {
        CliError {
            code: EXIT_PARSE,
            message: message.into(),
        }
    }

    fn validation(message: impl Into<String>) -> CliError {
        CliError {
            code: EXIT_VALIDATION,
            message: message.into(),
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError {
            code: EXIT_GENERAL,
            message,
        }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> CliError {
        CliError::from(message.to_string())
    }
}

type CliResult<T = ()> = Result<T, CliError>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {}", err.message);
            ExitCode::from(err.code)
        }
    }
}

/// Where telemetry goes, per the global `--metrics` / `--metrics-summary`
/// flags.
struct MetricsOpts {
    json_path: Option<String>,
    summary: bool,
}

impl MetricsOpts {
    fn enabled(&self) -> bool {
        self.json_path.is_some() || self.summary
    }

    /// Writes the collected report to the requested sinks.
    fn emit(&self, tel: &Telemetry) -> CliResult {
        if !self.enabled() {
            return Ok(());
        }
        let report = tel.report();
        if let Some(path) = &self.json_path {
            // An empty report means the command failed before anything ran
            // (e.g. `--metrics` swallowed the subcommand as its path);
            // writing it would litter a useless file at a surprising path.
            if report.spans.is_empty() && report.counters.is_empty() && report.gauges.is_empty() {
                return Ok(());
            }
            std::fs::write(path, report.to_json())
                .map_err(|e| format!("cannot write metrics to `{path}`: {e}"))?;
        }
        if self.summary {
            eprint!("{}", report.to_table());
        }
        Ok(())
    }
}

/// Strips the global metrics flags out of the argument list (they may
/// appear anywhere, before or after the subcommand).
fn extract_metrics_flags(args: &[String]) -> CliResult<(Vec<String>, MetricsOpts)> {
    let mut rest = Vec::with_capacity(args.len());
    let mut opts = MetricsOpts {
        json_path: None,
        summary: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--metrics" => {
                opts.json_path = Some(iter.next().ok_or("--metrics requires a path")?.clone());
            }
            "--metrics-summary" => opts.summary = true,
            _ => rest.push(arg.clone()),
        }
    }
    Ok((rest, opts))
}

fn run(args: &[String]) -> CliResult {
    let (args, metrics) = extract_metrics_flags(args)?;
    let tel = if metrics.enabled() {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    let result = dispatch(&args, &tel);
    // Emit whatever was collected even when the command failed: partial
    // metrics from an aborted run are still useful for diagnosis.
    metrics.emit(&tel)?;
    result
}

fn dispatch(args: &[String], tel: &Telemetry) -> CliResult {
    let Some(command) = args.first() else {
        return Err(usage().into());
    };
    let rest = &args[1..];
    match command.as_str() {
        "compile" => compile_cmd(rest, tel),
        "optimize" => optimize_cmd(rest, tel),
        "verify" => verify_cmd(rest, tel),
        "dump" => dump_cmd(rest),
        "stats" => stats_cmd(rest),
        "fmt" => fmt_cmd(rest),
        "check" => check_cmd(rest),
        "bundled" => bundled_cmd(rest),
        "bench-serve" => bench_serve_cmd(rest, tel),
        "serve" => serve_cmd(rest, tel),
        "serve-load" => serve_load_cmd(rest, tel),
        "perf" => perf_cmd(rest, tel),
        "oracle" => oracle_cmd(rest, tel),
        "schedule" => schedule_cmd(rest, tel),
        "dot" => dot_cmd(rest),
        "lint" => lint_cmd(rest, tel),
        "diff" => diff_cmd(rest),
        "chart" => chart_cmd(rest),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage()).into()),
    }
}

fn usage() -> String {
    "usage: mdesc [--metrics <path>] [--metrics-summary] <command>\n\
     \n\
     global flags:\n\
     \x20 --metrics <path>    write collected telemetry as JSON to <path>\n\
     \x20 --metrics-summary   print a telemetry table to stderr on exit\n\
     \n\
     commands:\n\
     \x20 compile <in.hmdl> [-o out.lmdes] [--no-optimize] [--expand-or]\n\
     \x20         [--encoding scalar|bitvector] [--direction forward|backward]\n\
     \x20         [--guard off|validate|oracle]\n\
     \x20         translate a high-level description to an optimized LMDES image\n\
     \x20 optimize <in.hmdl> [--ops N] [--jobs N] [-o out.lmdes]\n\
     \x20         [--guard off|validate|oracle]\n\
     \x20         run the full pipeline, compile, and drive a synthetic scheduling\n\
     \x20         workload (in parallel with --jobs), collecting per-stage telemetry\n\
     \x20 verify  <in.hmdl> [--guard validate|oracle] [--seed N]\n\
     \x20         [--inject <stage>:<fault>]\n\
     \x20         run the stage-guarded pipeline and fail on any incident;\n\
     \x20         --inject plants a deliberate fault to exercise the guard\n\
     \x20 dump    <in.hmdl|in.lmdes> [--class NAME]   inspect a description\n\
     \x20 stats   <in.hmdl>                           per-stage size report\n\
     \x20 fmt     <in.hmdl>                           canonical formatting to stdout\n\
     \x20 check   <in.hmdl>                           validate only\n\
     \x20 bundled <machine>                           print a bundled description\n\
     \x20 bench-serve [--machine NAME] [--jobs N] [--regions M] [--mean-ops K]\n\
     \x20         [--seed S]\n\
     \x20         serve a synthetic region stream through the concurrent engine\n\
     \x20         and report per-worker load and jobs/sec\n\
     \x20 serve   [--machine A,B,..|all | <in.hmdl|in.lmdes>] [--socket PATH | --tcp ADDR]\n\
     \x20         [--workers N] [--queue N] [--read-timeout-ms MS] [--deadline-ms MS]\n\
     \x20         [--chaos] [--seed S]\n\
     \x20         run the fault-tolerant scheduling daemon (line-delimited JSON\n\
     \x20         protocol with pipelined request ids, per-machine shards routed\n\
     \x20         by the `machine` field, hot reload, and backpressure; see\n\
     \x20         docs/serve.md)\n\
     \x20 serve-load (--socket PATH | --tcp ADDR) [--machine NAME] [--requests N]\n\
     \x20         [--connections N] [--pipeline DEPTH] [--machines A,B,..|all]\n\
     \x20         [--jobs N] [--regions M] [--mean-ops K] [--seed S]\n\
     \x20         [--deadline-ms MS] [--max-retries N] [--reload-at I[@MACHINE]:PATH]\n\
     \x20         [--reload-corrupt-at I[@MACHINE]:PATH] [--no-verify] [--shutdown]\n\
     \x20         closed-loop verified client against a running daemon; fails if\n\
     \x20         any request is dropped or any answer is wrong.  --pipeline keeps\n\
     \x20         DEPTH frames in flight per connection, reloads included (1 =\n\
     \x20         serial v1 frames); --machines sprays requests across shards\n\
     \x20         round-robin; I@MACHINE targets a reload at one shard\n\
     \x20 perf    [--seed S] [--scale F] [--reps K] [--filter SUBSTR] [--json PATH]\n\
     \x20         [--baseline PATH] [--max-regression F] [--quiet]\n\
     \x20         run the deterministic hot-path benchmark suite; with\n\
     \x20         --baseline, gate against a committed report (see docs/performance.md)\n\
     \x20 oracle  [--seed S] [--regions N] [--max-ops K] [--node-limit N]\n\
     \x20         [--machine NAME] [--fleet N]\n\
     \x20         run the exact branch-and-bound scheduler as a differential oracle\n\
     \x20         against the production schedulers (bundled machines, or --fleet N\n\
     \x20         synthetic machines with a guard-oracle fuzz pass; see docs/oracle.md)\n\
     \x20 schedule <in.hmdl> [--ops N] [--no-optimize]\n\
     \x20         drive the list scheduler over a synthetic stream and report\n\
     \x20         the paper's efficiency statistics\n\
     \x20 dot     <in.hmdl> --class NAME              Graphviz export of a constraint\n\
     \x20 lint    [<in.hmdl>] [--machine NAME|all] [--fleet N] [--seed S] [--defects]\n\
     \x20         [--json]\n\
     \x20         run the static diagnostics engine over descriptions: stable MDnnn\n\
     \x20         codes, fatal/warn/info severities, exit 3 on any fatal diagnostic;\n\
     \x20         --defects plants known-bad structure and reports analyzer recall\n\
     \x20         (see docs/analysis.md)\n\
     \x20 diff    <old.hmdl> <new.hmdl>               structural diff of two revisions\n\
     \x20 chart   <in.hmdl> [--ops N]                 schedule a block and show the RU map\n\
     \n\
     exit codes:\n\
     \x20 1 usage, I/O and other general errors\n\
     \x20 2 parse or elaboration errors in an input description\n\
     \x20 3 structural-validation failures\n\
     \x20 4 differential-oracle mismatches under --guard oracle\n\
     \x20 5 perf regression against the baseline under perf --baseline"
        .to_string()
}

/// Loads and elaborates an HMDL file, rendering diagnostics with source
/// context.
fn load_hmdl(path: &str) -> CliResult<MdesSpec> {
    load_hmdl_with(path, &Telemetry::disabled())
}

/// [`load_hmdl`] with `lang/*` spans recorded into `tel`.
///
/// Parsing runs with error recovery, so one invocation renders *every*
/// syntax error in the file, not just the first.
fn load_hmdl_with(path: &str, tel: &Telemetry) -> CliResult<MdesSpec> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    mdes_lang::compile_all_with_telemetry(&source, tel).map_err(|errors| {
        let rendered: Vec<String> = errors.iter().map(|e| e.render(&source)).collect();
        CliError::parse(format!("{path}:\n{}", rendered.join("\n")))
    })
}

fn compile_cmd(args: &[String], tel: &Telemetry) -> CliResult {
    let mut input: Option<&str> = None;
    let mut output: Option<&str> = None;
    let mut do_optimize = true;
    let mut expand_or = false;
    let mut encoding = UsageEncoding::BitVector;
    let mut direction = Direction::Forward;
    let mut guard = GuardMode::Off;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-o" => output = Some(iter.next().ok_or("-o requires a path")?),
            "--no-optimize" => do_optimize = false,
            "--expand-or" => expand_or = true,
            "--guard" => {
                guard = iter
                    .next()
                    .ok_or("--guard requires off, validate or oracle")?
                    .parse()?;
            }
            "--encoding" => {
                encoding = match iter.next().map(String::as_str) {
                    Some("scalar") => UsageEncoding::Scalar,
                    Some("bitvector") => UsageEncoding::BitVector,
                    other => return Err(CliError::from(format!("bad --encoding {other:?}"))),
                };
            }
            "--direction" => {
                direction = match iter.next().map(String::as_str) {
                    Some("forward") => Direction::Forward,
                    Some("backward") => Direction::Backward,
                    other => return Err(CliError::from(format!("bad --direction {other:?}"))),
                };
            }
            other if input.is_none() && !other.starts_with('-') => input = Some(other),
            other => return Err(CliError::from(format!("unexpected argument `{other}`"))),
        }
    }
    let input = input.ok_or("compile needs an input .hmdl file")?;
    let mut spec = load_hmdl_with(input, tel)?;

    if expand_or {
        spec = mdes_opt::expand_to_or(&spec).0;
    }
    if do_optimize {
        let config = PipelineConfig {
            direction,
            ..PipelineConfig::full()
        };
        optimize_with_guard(&mut spec, &config, guard, tel)?;
    }

    let compiled = CompiledMdes::compile_with_telemetry(&spec, encoding, tel)
        .map_err(|e| CliError::validation(e.to_string()))?;
    let image = lmdes::write(&compiled);
    let report = measure(&compiled);

    let output = output.map(str::to_string).unwrap_or_else(|| {
        let stem = input.strip_suffix(".hmdl").unwrap_or(input);
        format!("{stem}.lmdes")
    });
    std::fs::write(&output, &image).map_err(|e| format!("cannot write `{output}`: {e}"))?;
    println!(
        "wrote {output}: {} bytes on disk, {} bytes in-compiler ({} options, {} OR-trees, {} classes)",
        image.len(),
        report.total(),
        report.num_options,
        report.num_or_trees,
        compiled.classes().len()
    );
    Ok(())
}

/// Loads either tier by sniffing the LMDES magic.
fn load_any(path: &str) -> CliResult<CompiledMdes> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    if bytes.starts_with(lmdes::MAGIC) {
        return Ok(lmdes::read(&bytes).map_err(|e| format!("{path}: {e}"))?);
    }
    let source = String::from_utf8(bytes).map_err(|_| format!("`{path}` is not UTF-8 HMDL"))?;
    let spec = mdes_lang::compile_all(&source).map_err(|errors| {
        let rendered: Vec<String> = errors.iter().map(|e| e.render(&source)).collect();
        CliError::parse(format!("{path}:\n{}", rendered.join("\n")))
    })?;
    CompiledMdes::compile(&spec, UsageEncoding::BitVector)
        .map_err(|e| CliError::validation(e.to_string()))
}

fn dump_cmd(args: &[String]) -> CliResult {
    let mut input: Option<&str> = None;
    let mut class: Option<&str> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--class" => class = Some(iter.next().ok_or("--class requires a name")?),
            other if input.is_none() => input = Some(other),
            other => return Err(CliError::from(format!("unexpected argument `{other}`"))),
        }
    }
    let input = input.ok_or("dump needs an input file")?;

    // Prefer the spec-level dump for HMDL (names survive); fall back to
    // the compiled dump for LMDES images.
    if let Ok(spec) = load_hmdl(input) {
        println!(
            "{input}: {} resources, {} options, {} OR-trees, {} AND/OR-trees, {} classes, {} opcodes",
            spec.resources().len(),
            spec.num_options(),
            spec.num_or_trees(),
            spec.num_and_or_trees(),
            spec.num_classes(),
            spec.opcodes().len(),
        );
        match class {
            Some(name) => match mdes_core::pretty::class_constraint(&spec, name) {
                Some(text) => println!("\n{text}"),
                None => return Err(CliError::from(format!("class `{name}` not found"))),
            },
            None => {
                println!("\nclass                 options  latency  opcodes");
                println!("---------------------+--------+--------+--------");
                for id in spec.class_ids() {
                    let c = spec.class(id);
                    println!(
                        "{:<21}| {:>6} | {:>6} | {}",
                        c.name,
                        spec.class_option_count(id),
                        c.latency.dest,
                        spec.opcodes_of_class(id).join(" ")
                    );
                }
            }
        }
        return Ok(());
    }

    let compiled = load_any(input)?;
    println!(
        "{input}: LMDES image, {:?} encoding, {} resources, {} options, {} OR-trees, {} classes",
        compiled.encoding(),
        compiled.num_resources(),
        compiled.num_options(),
        compiled.or_trees().len(),
        compiled.classes().len()
    );
    for (i, c) in compiled.classes().iter().enumerate() {
        let id = mdes_core::ClassId::from_index(i);
        println!(
            "  {:<21} {:>6} options, latency {}",
            c.name,
            compiled.class_option_count(id),
            c.latency.dest
        );
    }
    Ok(())
}

fn stats_cmd(args: &[String]) -> CliResult {
    let input = args.first().ok_or("stats needs an input .hmdl file")?;
    let spec = load_hmdl(input)?;

    println!("=== {input} ===");
    let staged = mdes_opt::staged_report(&spec, Direction::Forward)
        .map_err(|e| CliError::validation(e.to_string()))?;
    for stage in staged {
        println!(
            "{:<48} {:>5} options {:>8} bytes  ({} probes)",
            stage.stage, stage.options, stage.bytes, stage.checks
        );
    }
    let (expanded, _) = mdes_opt::expand_to_or(&spec);
    let compiled = CompiledMdes::compile(&expanded, UsageEncoding::Scalar)
        .map_err(|e| CliError::validation(e.to_string()))?;
    let memory = measure(&compiled);
    println!(
        "{:<48} {:>5} options {:>8} bytes  ({} probes)",
        "traditional OR-tree baseline (scalar)",
        memory.num_options,
        memory.total(),
        memory.num_checks
    );
    Ok(())
}

fn fmt_cmd(args: &[String]) -> CliResult {
    let input = args.first().ok_or("fmt needs an input .hmdl file")?;
    let spec = load_hmdl(input)?;
    let printed = mdes_lang::print(&spec).map_err(|e| e.to_string())?;
    print!("{printed}");
    Ok(())
}

fn check_cmd(args: &[String]) -> CliResult {
    let input = args.first().ok_or("check needs an input .hmdl file")?;
    let spec = load_hmdl(input)?;
    println!(
        "{input}: ok ({} classes, {} options, {} opcodes)",
        spec.num_classes(),
        spec.num_options(),
        spec.opcodes().len()
    );
    Ok(())
}

/// Runs the full telemetry-instrumented flow on one description: parse
/// and elaborate, optimize, compile, then drive the list scheduler over a
/// synthetic workload so scheduler query counters land in the same
/// report.  This is the `--metrics` showcase command.
fn optimize_cmd(args: &[String], tel: &Telemetry) -> CliResult {
    let mut input: Option<&str> = None;
    let mut output: Option<&str> = None;
    let mut total_ops = 2_000usize;
    let mut jobs: Option<usize> = None;
    let mut encoding = UsageEncoding::BitVector;
    let mut direction = Direction::Forward;
    let mut guard = GuardMode::Off;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-o" => output = Some(iter.next().ok_or("-o requires a path")?),
            "--guard" => {
                guard = iter
                    .next()
                    .ok_or("--guard requires off, validate or oracle")?
                    .parse()?;
            }
            "--ops" => {
                total_ops = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--ops requires a positive integer")?;
            }
            "--jobs" => {
                jobs = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .ok_or("--jobs requires a positive integer")?,
                );
            }
            "--encoding" => {
                encoding = match iter.next().map(String::as_str) {
                    Some("scalar") => UsageEncoding::Scalar,
                    Some("bitvector") => UsageEncoding::BitVector,
                    other => return Err(CliError::from(format!("bad --encoding {other:?}"))),
                };
            }
            "--direction" => {
                direction = match iter.next().map(String::as_str) {
                    Some("forward") => Direction::Forward,
                    Some("backward") => Direction::Backward,
                    other => return Err(CliError::from(format!("bad --direction {other:?}"))),
                };
            }
            other if input.is_none() && !other.starts_with('-') => input = Some(other),
            other => return Err(CliError::from(format!("unexpected argument `{other}`"))),
        }
    }
    let input = input.ok_or("optimize needs an input .hmdl file")?;

    let mut spec = load_hmdl_with(input, tel)?;
    let options_before = spec.num_options();
    let config = PipelineConfig {
        direction,
        ..PipelineConfig::full()
    };
    optimize_with_guard(&mut spec, &config, guard, tel)?;
    let compiled = std::sync::Arc::new(
        CompiledMdes::compile_with_telemetry(&spec, encoding, tel)
            .map_err(|e| CliError::validation(e.to_string()))?,
    );

    let workload =
        mdes_workload::generate_uniform(&spec, &mdes_workload::uniform_config(total_ops));
    let outcome = schedule_blocks(
        std::sync::Arc::clone(&compiled),
        &workload.blocks,
        jobs.unwrap_or(1),
        tel,
    )?;
    outcome.publish(tel, "engine");
    let (stats, total_cycles) = (&outcome.stats, outcome.total_cycles());

    if let Some(output) = output {
        let image = lmdes::write(&compiled);
        std::fs::write(output, &image).map_err(|e| format!("cannot write `{output}`: {e}"))?;
    }
    println!(
        "{input}: {} -> {} options; scheduled {} ops in {} cycles \
         ({:.2} attempts/op, {:.2} checks/attempt)",
        options_before,
        spec.num_options(),
        workload.total_ops,
        total_cycles,
        stats.attempts_per_op(),
        stats.checks_per_attempt()
    );
    Ok(())
}

/// Schedules `blocks` through the engine on `jobs` workers under one
/// `sched/list` span, then publishes the folded `sched/list/*`
/// counters.  By the engine's determinism contract every `jobs` gives
/// the same schedules and counters; one job runs inline.
fn schedule_blocks(
    compiled: std::sync::Arc<CompiledMdes>,
    blocks: &[mdes_sched::Block],
    jobs: usize,
    tel: &Telemetry,
) -> CliResult<mdes_engine::BatchOutcome> {
    let outcome = {
        let _span = tel.span("sched/list");
        mdes_engine::Engine::new(compiled).schedule_batch(blocks, jobs)
    };
    if !outcome.is_clean() {
        return Err(CliError::from(format!(
            "{} worker panic(s) while scheduling",
            outcome.worker_panics()
        )));
    }
    outcome.stats.publish(tel, "sched/list");
    Ok(outcome)
}

/// Runs the optimization pipeline under the requested guard mode.
///
/// `off` runs the plain pipeline.  Otherwise every stage is wrapped with
/// the structural validator — and, under `oracle`, the differential query
/// oracle — and a non-clean run fails with the guard exit codes.
fn optimize_with_guard(
    spec: &mut MdesSpec,
    config: &PipelineConfig,
    guard: GuardMode,
    tel: &Telemetry,
) -> CliResult {
    if guard == GuardMode::Off {
        optimize_with_telemetry(spec, config, tel);
        return Ok(());
    }
    let guard_config = GuardConfig {
        mode: guard,
        ..GuardConfig::default()
    };
    let report = optimize_guarded(spec, config, &guard_config, tel);
    guard_outcome(&report)
}

/// Prints a guarded run's incidents to stderr and maps them onto the
/// exit-code contract: 3 for structural-validation failures, 4 for
/// differential-oracle mismatches (the oracle code wins when both kinds
/// occurred, since an oracle incident is the stronger evidence).
fn guard_outcome(report: &GuardedReport) -> CliResult {
    if report.clean() {
        return Ok(());
    }
    for incident in &report.incidents {
        eprintln!("guard: {incident}");
    }
    let code = if report.has_oracle_incident() {
        EXIT_ORACLE
    } else {
        EXIT_VALIDATION
    };
    Err(CliError {
        code,
        message: format!("{} guard incident(s)", report.incidents.len()),
    })
}

/// Parses an `--inject` argument of the form `<stage>:<fault>`, e.g.
/// `redundancy:drop-usage`.
fn parse_fault(text: &str) -> CliResult<Fault> {
    let (stage_name, kind_name) = text
        .split_once(':')
        .ok_or_else(|| CliError::from(format!("--inject wants <stage>:<fault>, got `{text}`")))?;
    let stage = StageId::all()
        .into_iter()
        .find(|s| s.name() == stage_name)
        .ok_or_else(|| {
            let names: Vec<&str> = StageId::all().into_iter().map(StageId::name).collect();
            CliError::from(format!(
                "unknown stage `{stage_name}` (one of: {})",
                names.join(", ")
            ))
        })?;
    let kind = FaultKind::parse(kind_name).ok_or_else(|| {
        let names: Vec<&str> = FaultKind::all().into_iter().map(FaultKind::name).collect();
        CliError::from(format!(
            "unknown fault `{kind_name}` (one of: {})",
            names.join(", ")
        ))
    })?;
    Ok(Fault { stage, kind })
}

/// Runs the stage-guarded pipeline over a description and fails on any
/// incident.  With `--inject`, a deliberate fault is planted after the
/// named stage so the guard's detection can be demonstrated end to end.
fn verify_cmd(args: &[String], tel: &Telemetry) -> CliResult {
    let mut input: Option<&str> = None;
    let mut mode = GuardMode::Oracle;
    let mut seed: Option<u64> = None;
    let mut inject: Vec<Fault> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--guard" => {
                mode = iter
                    .next()
                    .ok_or("--guard requires validate or oracle")?
                    .parse()?;
            }
            "--seed" => {
                seed = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--seed requires an integer")?,
                );
            }
            "--inject" => {
                inject.push(parse_fault(
                    iter.next().ok_or("--inject requires <stage>:<fault>")?,
                )?);
            }
            other if input.is_none() && !other.starts_with('-') => input = Some(other),
            other => return Err(CliError::from(format!("unexpected argument `{other}`"))),
        }
    }
    let input = input.ok_or("verify needs an input .hmdl file")?;
    if mode == GuardMode::Off {
        return Err("verify needs --guard validate or --guard oracle".into());
    }

    let mut spec = load_hmdl_with(input, tel)?;
    let mut guard = GuardConfig {
        mode,
        inject,
        ..GuardConfig::default()
    };
    if let Some(seed) = seed {
        guard.seed = seed;
    }
    let report = optimize_guarded(&mut spec, &PipelineConfig::full(), &guard, tel);
    for injected in &report.injected {
        eprintln!("injected: {injected}");
    }
    guard_outcome(&report)?;
    println!(
        "{input}: guard clean ({} stages run in {mode} mode, seed {})",
        report.stages_run, guard.seed
    );
    Ok(())
}

/// Serves a synthetic region stream through the concurrent engine: one
/// shared compiled description, N workers draining the region queue.
/// Reports jobs/sec and a per-worker breakdown, and publishes the same
/// under `engine/*` in the `--metrics` report.  Exits non-zero if any
/// worker panicked (the `engine/worker_panics` counter is always
/// present, so metrics consumers can gate on it too).
fn bench_serve_cmd(args: &[String], tel: &Telemetry) -> CliResult {
    // The workload flags are shared with `serve-load`: one parser, one
    // contract (crates/serve/src/client.rs).
    let (flags, rest) = BenchFlags::parse(args)?;
    if let Some(extra) = rest.first() {
        return Err(CliError::from(format!("unexpected argument `{extra}`")));
    }
    let BenchFlags {
        machine,
        jobs,
        regions,
        mean_ops,
        seed,
    } = flags;

    let mut spec = machine.spec();
    optimize_with_telemetry(&mut spec, &PipelineConfig::full(), tel);
    let compiled = std::sync::Arc::new(
        CompiledMdes::compile_with_telemetry(&spec, UsageEncoding::BitVector, tel)
            .map_err(|e| CliError::validation(e.to_string()))?,
    );

    let config = mdes_workload::RegionConfig::new(regions)
        .with_mean_ops(mean_ops)
        .with_seed(seed);
    let workload = mdes_workload::generate_compiled_regions(&compiled, &config);

    let engine = mdes_engine::Engine::new(compiled);
    let outcome = engine.schedule_batch(&workload.blocks, jobs);
    outcome.publish(tel, "engine");

    println!(
        "{}: served {} regions ({} ops) on {} worker(s): {:.0} jobs/sec, \
         {} cycles, {:.2} checks/attempt",
        machine.name(),
        outcome.completed(),
        workload.total_ops,
        outcome.workers.len(),
        outcome.jobs_per_sec(),
        outcome.total_cycles(),
        outcome.stats.checks_per_attempt()
    );
    for worker in &outcome.workers {
        println!(
            "  worker{}: {} jobs, {} checks, busy {:.3}ms",
            worker.load.worker,
            worker.load.jobs,
            worker.stats.resource_checks,
            worker.load.busy_nanos as f64 / 1e6,
        );
    }
    if !outcome.is_clean() {
        return Err(CliError::from(format!(
            "{} worker panic(s) while serving the batch",
            outcome.worker_panics()
        )));
    }
    Ok(())
}

/// Maps a reload/boot rejection onto the CLI exit-code ladder (the wire
/// error numbers 1–4 and the exit codes agree by contract).
fn reload_error(err: mdes_serve::ReloadError) -> CliError {
    CliError {
        code: err.code().num() as u8,
        message: err.message().to_string(),
    }
}

/// Parses a `--machine`/`--machines` operand: a comma-separated list of
/// bundled machine names, or `all` for every bundled machine.
fn machine_list(spec: &str) -> CliResult<Vec<mdes_machines::Machine>> {
    if spec.eq_ignore_ascii_case("all") {
        return Ok(mdes_machines::Machine::all().into_iter().collect());
    }
    let mut machines = Vec::new();
    for name in spec.split(',').filter(|n| !n.is_empty()) {
        let machine = mdes_machines::Machine::from_name(name)?;
        if machines.contains(&machine) {
            return Err(CliError::from(format!("machine `{name}` listed twice")));
        }
        machines.push(machine);
    }
    if machines.is_empty() {
        return Err(CliError::from("--machine requires at least one name"));
    }
    Ok(machines)
}

/// Runs the scheduling daemon until a client sends the `shutdown` verb.
/// Serves one or more bundled machines (`--machine a,b,c` or
/// `--machine all` boots one shard per name) or a vetted description
/// file; see `docs/serve.md` for the protocol.
fn serve_cmd(args: &[String], tel: &Telemetry) -> CliResult {
    let mut machines: Vec<mdes_machines::Machine> = Vec::new();
    let mut input: Option<&str> = None;
    let mut addr: Option<BindAddr> = None;
    let mut config = ServeConfig::default();
    let positive = |v: Option<&String>, flag: &str| -> CliResult<usize> {
        v.and_then(|v| v.parse().ok())
            .filter(|&n| n >= 1)
            .ok_or_else(|| CliError::from(format!("{flag} requires a positive integer")))
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--machine" => {
                let spec = iter.next().ok_or("--machine requires a name")?;
                machines = machine_list(spec)?;
            }
            "--socket" => {
                addr = Some(BindAddr::Unix(
                    iter.next().ok_or("--socket requires a path")?.into(),
                ));
            }
            "--tcp" => {
                addr = Some(BindAddr::Tcp(
                    iter.next().ok_or("--tcp requires an address")?.clone(),
                ));
            }
            "--workers" => config.workers = positive(iter.next(), "--workers")?,
            "--queue" => config.queue_capacity = positive(iter.next(), "--queue")?,
            "--read-timeout-ms" => {
                config.read_timeout_ms = positive(iter.next(), "--read-timeout-ms")? as u64;
            }
            "--deadline-ms" => {
                config.default_deadline_ms = Some(positive(iter.next(), "--deadline-ms")? as u64);
            }
            "--chaos" => config.chaos = true,
            "--seed" => {
                config.seed = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed requires an integer")?;
            }
            other if input.is_none() && !other.starts_with('-') => input = Some(other),
            other => return Err(CliError::from(format!("unexpected argument `{other}`"))),
        }
    }

    let stores: Vec<(String, std::sync::Arc<ImageStore>)> = match (input, machines.is_empty()) {
        (Some(_), false) => {
            return Err("serve takes either --machine or an input file, not both".into())
        }
        (Some(path), true) => {
            // An input file is untrusted: it goes through the same
            // compile-and-vet path as a hot reload.
            let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let mdes = mdes_serve::compile_source(&bytes, config.seed).map_err(reload_error)?;
            vec![(
                path.to_string(),
                std::sync::Arc::new(ImageStore::new(mdes, path, config.seed)),
            )]
        }
        (None, _) => {
            if machines.is_empty() {
                machines.push(mdes_machines::Machine::Pa7100);
            }
            machines
                .iter()
                .map(|&m| {
                    let mdes = mdes_serve::compile_machine(m);
                    (
                        m.name().to_string(),
                        std::sync::Arc::new(ImageStore::new(mdes, m.name(), config.seed)),
                    )
                })
                .collect()
        }
    };

    let addr = addr.unwrap_or_else(|| {
        BindAddr::Unix(
            std::env::temp_dir().join(format!("mdesc-serve-{}.sock", std::process::id())),
        )
    });
    let served: Vec<&str> = stores.iter().map(|(name, _)| name.as_str()).collect();
    let served = served.join(", ");
    let handle = mdes_serve::serve_sharded(addr, stores, config)
        .map_err(|e| format!("cannot bind daemon: {e}"))?;
    match handle.addr() {
        BindAddr::Unix(path) => println!("serving `{served}` on unix socket {}", path.display()),
        BindAddr::Tcp(spec) => println!("serving `{served}` on tcp {spec}"),
    }

    // Blocks until a client sends the `shutdown` verb; the daemon drains
    // every admitted request before join returns its final statistics.
    let stats = handle.join();
    stats.publish(tel);
    let epochs: Vec<String> = stats
        .shards
        .iter()
        .map(|shard| format!("{}@{}", shard.name, shard.image.epoch))
        .collect();
    let [p50, p99] = stats.latency_us;
    let total = &stats.total;
    println!(
        "daemon stopped ({}): answered {}, shed {}, reloads {} (+{} rejected), \
         p50 {p50}us, p99 {p99}us",
        epochs.join(", "),
        total.answered,
        total.shed,
        total.reloads,
        total.reload_failures,
    );
    if total.in_flight() != 0 {
        return Err(CliError::from(format!(
            "{} admitted request(s) were never answered",
            total.in_flight()
        )));
    }
    Ok(())
}

/// Parses a `--reload-at` / `--reload-corrupt-at` operand of the form
/// `<request-index>[@<machine>]:<path>` — the optional `@<machine>`
/// targets one shard of a multi-machine daemon.
fn parse_reload_event(text: &str, expect_rejection: bool) -> CliResult<ReloadEvent> {
    let (at, path) = text.split_once(':').ok_or_else(|| {
        CliError::from(format!(
            "reload event wants <index>[@<machine>]:<path>, got `{text}`"
        ))
    })?;
    let (at, machine) = match at.split_once('@') {
        Some((index, shard)) if !shard.is_empty() => (
            index,
            Some(mdes_machines::Machine::from_name(shard)?.name().to_string()),
        ),
        Some(_) => return Err(CliError::from(format!("empty machine in `{text}`"))),
        None => (at, None),
    };
    let at = at
        .parse()
        .map_err(|_| CliError::from(format!("bad reload index in `{text}`")))?;
    Ok(ReloadEvent {
        at,
        path: path.to_string(),
        machine,
        expect_rejection,
    })
}

/// The closed-loop verified client: drives `--requests` schedule
/// requests over `--connections` connections against a running daemon,
/// optionally firing scripted hot reloads, and checks every answer
/// against a locally recomputed expectation.  Exits non-zero if any
/// request was dropped, any answer was wrong, or any scripted reload
/// misbehaved.
fn serve_load_cmd(args: &[String], tel: &Telemetry) -> CliResult {
    let (flags, rest) = BenchFlags::parse(args)?;
    let mut addr: Option<BindAddr> = None;
    let mut requests = 256usize;
    let mut connections = 2usize;
    let mut pipeline = 1usize;
    let mut spray: Vec<mdes_machines::Machine> = Vec::new();
    let mut deadline_ms: Option<u64> = None;
    let mut max_retries = 16usize;
    let mut verify = true;
    let mut shutdown = false;
    let mut reloads: Vec<ReloadEvent> = Vec::new();
    let positive = |v: Option<&String>, flag: &str| -> CliResult<usize> {
        v.and_then(|v| v.parse().ok())
            .filter(|&n| n >= 1)
            .ok_or_else(|| CliError::from(format!("{flag} requires a positive integer")))
    };
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--socket" => {
                addr = Some(BindAddr::Unix(
                    iter.next().ok_or("--socket requires a path")?.into(),
                ));
            }
            "--tcp" => {
                addr = Some(BindAddr::Tcp(
                    iter.next().ok_or("--tcp requires an address")?.clone(),
                ));
            }
            "--requests" => requests = positive(iter.next(), "--requests")?,
            "--connections" => connections = positive(iter.next(), "--connections")?,
            "--pipeline" => pipeline = positive(iter.next(), "--pipeline")?,
            "--machines" => {
                let spec = iter.next().ok_or("--machines requires a,b,c or `all`")?;
                spray = machine_list(spec)?;
            }
            "--deadline-ms" => {
                deadline_ms = Some(positive(iter.next(), "--deadline-ms")? as u64);
            }
            "--max-retries" => max_retries = positive(iter.next(), "--max-retries")?,
            "--no-verify" => verify = false,
            "--shutdown" => shutdown = true,
            "--reload-at" => reloads.push(parse_reload_event(
                iter.next().ok_or("--reload-at requires <index>:<path>")?,
                false,
            )?),
            "--reload-corrupt-at" => reloads.push(parse_reload_event(
                iter.next()
                    .ok_or("--reload-corrupt-at requires <index>:<path>")?,
                true,
            )?),
            other => return Err(CliError::from(format!("unexpected argument `{other}`"))),
        }
    }
    let addr = addr.ok_or("serve-load needs --socket <path> or --tcp <addr>")?;

    // The verifier needs the source bytes of every image the daemon may
    // legitimately serve: the boot machine (or every sprayed shard's
    // machine) plus every good reload target (corrupt targets are never
    // promoted, so never serve).
    let mut known_sources = Vec::new();
    if verify {
        known_sources.push(lmdes::write(&mdes_serve::compile_machine(flags.machine)));
        for &machine in &spray {
            known_sources.push(lmdes::write(&mdes_serve::compile_machine(machine)));
        }
        for event in reloads.iter().filter(|e| !e.expect_rejection) {
            let bytes = std::fs::read(&event.path)
                .map_err(|e| format!("cannot read reload target `{}`: {e}", event.path))?;
            known_sources.push(bytes);
        }
    }

    let report = mdes_serve::run_load(&LoadOptions {
        addr,
        connections,
        requests,
        params: flags.params(),
        pipeline,
        machines: spray.iter().map(|m| m.name().to_string()).collect(),
        deadline_ms,
        reloads,
        known_sources,
        verify_responses: verify,
        shutdown_when_done: shutdown,
        max_retries,
    })?;
    report.publish(tel);
    println!("{}", report.to_json().render());
    for error in &report.errors {
        eprintln!("serve-load: {error}");
    }
    if !report.is_clean() {
        return Err(CliError::from(format!(
            "load run not clean: {} dropped, {} mismatched, {} reload surprise(s)",
            report.dropped, report.mismatches, report.reload_surprises
        )));
    }
    Ok(())
}

fn perf_cmd(args: &[String], tel: &Telemetry) -> CliResult {
    let mut config = mdes_perf::BenchConfig::default();
    let mut json_path: Option<&str> = None;
    let mut baseline_path: Option<&str> = None;
    let mut max_regression = 0.25f64;
    let mut quiet = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => {
                config.seed = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed requires an integer")?;
            }
            "--scale" => {
                config.scale = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&s: &f64| s > 0.0)
                    .ok_or("--scale requires a positive number")?;
            }
            "--filter" => {
                config.filter = Some(iter.next().ok_or("--filter requires a substring")?.clone());
            }
            "--reps" => {
                config.reps = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&r: &usize| r >= 1)
                    .ok_or("--reps requires a positive integer")?;
            }
            "--json" => json_path = Some(iter.next().ok_or("--json requires a path")?),
            "--baseline" => {
                baseline_path = Some(iter.next().ok_or("--baseline requires a path")?);
            }
            "--max-regression" => {
                max_regression = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t: &f64| t >= 0.0)
                    .ok_or("--max-regression requires a non-negative number")?;
            }
            "--quiet" => quiet = true,
            other => return Err(CliError::from(format!("unexpected argument `{other}`"))),
        }
    }

    let report = {
        let _span = tel.span("perf/suite");
        mdes_perf::run_all(&config)
    };
    report.publish(tel);
    if !quiet {
        print!("{}", mdes_perf::report::render_table(&report));
    }
    if let Some(path) = json_path {
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("cannot write report to `{path}`: {e}"))?;
    }

    let Some(baseline_path) = baseline_path else {
        return Ok(());
    };
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline `{baseline_path}`: {e}"))?;
    let baseline = mdes_perf::Report::from_json(&text)
        .map_err(|e| format!("bad baseline `{baseline_path}`: {e}"))?;
    let floor = mdes_perf::batch_scaling_floor();
    let ceiling = mdes_perf::ORACLE_GAP_CEILING;
    let outcome = mdes_perf::compare(&report, &baseline, max_regression, floor, ceiling);
    print!("\n{}", mdes_perf::report::render_deltas(&outcome));
    println!(
        "batch_scaling floor on this host: {floor:.2}x (hardware-aware, see docs/performance.md)"
    );
    println!("oracle_gap ceiling: {ceiling:.2} (absolute bound, see docs/oracle.md)");
    if outcome.passed() {
        println!("perf gate: PASS");
        Ok(())
    } else {
        let failures: Vec<String> = outcome
            .failures()
            .map(|d| format!("{} ({:?})", d.name, d.kind))
            .collect();
        Err(CliError {
            code: EXIT_PERF,
            message: format!("perf gate: FAIL — {}", failures.join(", ")),
        })
    }
}

/// Runs the exact branch-and-bound scheduler as a differential oracle
/// against the production list and modulo schedulers.
///
/// Default mode covers every bundled machine: seeded oracle-sized
/// regions are scheduled by the oracle (provably minimal up to the node
/// budget), replay-verified, and compared against the list scheduler
/// plus the modulo scheduler's II sandwich.  Any invariant inversion
/// (`sched/oracle_violations` in `--metrics`) fails with the oracle exit
/// code.  `--fleet N` switches to N synthetic machines from
/// `mdes_workload::fleet`, adding a guard-oracle fuzz of the optimization
/// pipeline per machine; see docs/oracle.md.
fn oracle_cmd(args: &[String], tel: &Telemetry) -> CliResult {
    let mut seed = 42u64;
    let mut regions = 12usize;
    let mut max_ops = mdes_oracle::DEFAULT_MAX_OPS;
    let mut node_limit: Option<u64> = None;
    let mut machine_filter: Option<String> = None;
    let mut fleet_size: Option<usize> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => {
                seed = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed requires an integer")?;
            }
            "--regions" => {
                regions = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .ok_or("--regions requires a positive integer")?;
            }
            "--max-ops" => {
                max_ops = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .ok_or("--max-ops requires a positive integer")?;
            }
            "--node-limit" => {
                node_limit = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &u64| n >= 1)
                        .ok_or("--node-limit requires a positive integer")?,
                );
            }
            "--machine" => {
                machine_filter = Some(iter.next().ok_or("--machine requires a name")?.clone());
            }
            "--fleet" => {
                fleet_size = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &usize| n >= 1)
                        .ok_or("--fleet requires a positive integer")?,
                );
            }
            other => return Err(CliError::from(format!("unexpected argument `{other}`"))),
        }
    }

    if let Some(n) = fleet_size {
        if machine_filter.is_some() {
            return Err("oracle takes either --machine or --fleet, not both".into());
        }
        // Fleet machines are wider and more numerous than the bundled
        // six; a tighter default node budget keeps the fuzz pass fast
        // (a budget-bailed region keeps its list incumbent, which is
        // still a sound upper bound).
        return oracle_fleet_cmd(
            n,
            seed,
            regions,
            max_ops,
            node_limit.unwrap_or(1_000_000),
            tel,
        );
    }
    // A 2M-node per-region budget proves most bundled-machine regions
    // and keeps the CI smoke in seconds; `--node-limit` raises it for
    // deeper proofs (the crate default is mdes_oracle::DEFAULT_NODE_LIMIT).
    let node_limit = node_limit.unwrap_or(2_000_000);

    let mut total = mdes_oracle::GapReport::default();
    let mut stats = mdes_core::CheckStats::new();
    let mut machines_run = 0usize;
    for (name, spec) in mdes_machines::bundled() {
        if let Some(filter) = &machine_filter {
            if !name.eq_ignore_ascii_case(filter) {
                continue;
            }
        }
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector)
            .map_err(|e| CliError::validation(e.to_string()))?;
        let config = mdes_workload::RegionConfig::small(regions).with_seed(seed);
        let blocks = mdes_workload::generate_compiled_regions(&compiled, &config).blocks;
        let oracle = mdes_oracle::OracleScheduler::new(&compiled)
            .with_max_ops(max_ops)
            .with_node_limit(node_limit);
        let mut report = {
            let _span = tel.span("oracle/differential");
            mdes_oracle::differential_gap(&compiled, &blocks, &oracle, &mut stats)
        };
        let loops = mdes_oracle::loops_from_blocks(&compiled, &blocks);
        let modulo = {
            let _span = tel.span("oracle/modulo");
            mdes_oracle::modulo_differential(&compiled, &loops, &oracle, &mut stats)
        };
        report.merge(&modulo);
        println!(
            "{name}: {} regions ({} skipped), {} proved, {} improved, gap {:.3}, \
             {} loops, II gap {:.3}, {} nodes, {} violation(s)",
            report.regions,
            report.skipped,
            report.proved,
            report.improved,
            report.gap(),
            report.loops,
            report.modulo_gap(),
            report.nodes,
            report.violations
        );
        for detail in &report.violation_details {
            eprintln!("oracle: {name}: {detail}");
        }
        total.merge(&report);
        machines_run += 1;
    }
    if machines_run == 0 {
        let names: Vec<String> = mdes_machines::bundled()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        return Err(CliError::from(format!(
            "unknown machine `{}` (one of: {})",
            machine_filter.unwrap_or_default(),
            names.join(", ")
        )));
    }
    total.publish(tel);
    println!(
        "oracle: {machines_run} machine(s), {} regions, {} loops, gap {:.3} modulo {:.3}, \
         {} violation(s)",
        total.regions,
        total.loops,
        total.gap(),
        total.modulo_gap(),
        total.violations
    );
    if total.violations > 0 {
        return Err(CliError {
            code: EXIT_ORACLE,
            message: format!("{} oracle violation(s)", total.violations),
        });
    }
    Ok(())
}

/// `mdesc oracle --fleet N`: the mass differential pass over synthetic
/// machines — a guard-oracle fuzz of the full optimization pipeline on
/// each generated spec, then the exact-scheduler differential over its
/// seeded small regions.
fn oracle_fleet_cmd(
    n: usize,
    seed: u64,
    regions: usize,
    max_ops: usize,
    node_limit: u64,
    tel: &Telemetry,
) -> CliResult {
    let mut total = mdes_oracle::GapReport::default();
    let mut stats = mdes_core::CheckStats::new();
    let mut incidents = 0usize;
    for machine in mdes_workload::fleet(seed, n) {
        let mut spec = machine.spec.clone();
        let guard = GuardConfig::oracle(seed);
        let guarded = {
            let _span = tel.span("oracle/guard_fuzz");
            optimize_guarded(&mut spec, &PipelineConfig::full(), &guard, tel)
        };
        if !guarded.clean() {
            for incident in &guarded.incidents {
                eprintln!("oracle: {}: guard incident: {incident}", machine.name);
            }
            incidents += guarded.incidents.len();
        }

        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector)
            .map_err(|e| CliError::validation(format!("{}: {e}", machine.name)))?;
        let config = mdes_workload::RegionConfig::small(regions).with_seed(seed);
        let blocks = mdes_workload::generate_compiled_regions(&compiled, &config).blocks;
        let oracle = mdes_oracle::OracleScheduler::new(&compiled)
            .with_max_ops(max_ops)
            .with_node_limit(node_limit);
        let report = {
            let _span = tel.span("oracle/differential");
            mdes_oracle::differential_gap(&compiled, &blocks, &oracle, &mut stats)
        };
        for detail in &report.violation_details {
            eprintln!("oracle: {}: {detail}", machine.name);
        }
        total.merge(&report);
    }
    total.publish(tel);
    tel.counter_add("sched/oracle_guard_incidents", incidents as u64);
    println!(
        "oracle fleet: {n} machine(s), {} regions ({} skipped), gap {:.3}, \
         {} guard incident(s), {} violation(s)",
        total.regions,
        total.skipped,
        total.gap(),
        incidents,
        total.violations
    );
    if total.violations > 0 || incidents > 0 {
        return Err(CliError {
            code: EXIT_ORACLE,
            message: format!(
                "{} oracle violation(s), {} guard incident(s)",
                total.violations, incidents
            ),
        });
    }
    Ok(())
}

fn schedule_cmd(args: &[String], tel: &Telemetry) -> CliResult {
    let mut input: Option<&str> = None;
    let mut total_ops = 10_000usize;
    let mut do_optimize = true;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--ops" => {
                total_ops = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--ops requires a positive integer")?;
            }
            "--no-optimize" => do_optimize = false,
            other if input.is_none() && !other.starts_with('-') => input = Some(other),
            other => return Err(CliError::from(format!("unexpected argument `{other}`"))),
        }
    }
    let input = input.ok_or("schedule needs an input .hmdl file")?;
    let mut spec = load_hmdl_with(input, tel)?;
    if do_optimize {
        optimize_with_telemetry(&mut spec, &PipelineConfig::full(), tel);
    }
    let compiled = CompiledMdes::compile_with_telemetry(&spec, UsageEncoding::BitVector, tel)
        .map_err(|e| CliError::validation(e.to_string()))?;

    let workload =
        mdes_workload::generate_uniform(&spec, &mdes_workload::uniform_config(total_ops));
    let outcome = schedule_blocks(std::sync::Arc::new(compiled), &workload.blocks, 1, tel)?;
    let (stats, total_cycles) = (&outcome.stats, outcome.total_cycles());
    println!(
        "{input}: scheduled {} ops in {} blocks ({} cycles, {:.2} ops/cycle)",
        workload.total_ops,
        workload.blocks.len(),
        total_cycles,
        workload.total_ops as f64 / total_cycles as f64
    );
    println!(
        "  {:.2} attempts/op, {:.2} options/attempt, {:.2} checks/attempt, {:.2} checks/option",
        stats.attempts_per_op(),
        stats.options_per_attempt_avg(),
        stats.checks_per_attempt(),
        stats.checks_per_option()
    );
    Ok(())
}

fn dot_cmd(args: &[String]) -> CliResult {
    let mut input: Option<&str> = None;
    let mut class: Option<&str> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--class" => class = Some(iter.next().ok_or("--class requires a name")?),
            other if input.is_none() => input = Some(other),
            other => return Err(CliError::from(format!("unexpected argument `{other}`"))),
        }
    }
    let input = input.ok_or("dot needs an input .hmdl file")?;
    let class = class.ok_or("dot needs --class NAME")?;
    let spec = load_hmdl(input)?;
    match mdes_core::dot::class_constraint(&spec, class) {
        Some(dot) => {
            print!("{dot}");
            Ok(())
        }
        None => Err(format!("class `{class}` not found").into()),
    }
}

/// Runs the static diagnostics engine (`mdes-analyze`) over one or more
/// descriptions: an HMDL file (diagnostics anchored to source spans),
/// the bundled machines (`--machine NAME|all`), and/or a synthetic fleet
/// (`--fleet N`).  `--defects` plants known-bad structure into the fleet
/// machines and scores the analyzer's recall against the ground truth.
/// Any fatal diagnostic maps onto the structural-validation exit code
/// (3), consistent with `mdesc check`; with `--json` the report goes to
/// stdout as one JSON array and the summary lines move to stderr.
fn lint_cmd(args: &[String], tel: &Telemetry) -> CliResult {
    let mut input: Option<&str> = None;
    let mut machine: Option<&str> = None;
    let mut fleet_size: Option<usize> = None;
    let mut seed = 42u64;
    let mut defects = false;
    let mut json = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--machine" => {
                machine = Some(
                    iter.next()
                        .ok_or("--machine requires a name (or `all`)")?
                        .as_str(),
                );
            }
            "--fleet" => {
                fleet_size = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--fleet requires a positive integer")?,
                );
            }
            "--seed" => {
                seed = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed requires an integer")?;
            }
            "--defects" => defects = true,
            "--json" => json = true,
            other if input.is_none() && !other.starts_with('-') => input = Some(other),
            other => return Err(CliError::from(format!("unexpected argument `{other}`"))),
        }
    }
    if defects && fleet_size.is_none() {
        return Err("--defects needs --fleet N (defects are planted into fleet machines)".into());
    }

    let mut reports: Vec<(String, mdes_analyze::Analysis)> = Vec::new();
    // Ground truth for `--defects`: (origin, defect) pairs the report
    // must cover.
    let mut planted: Vec<(String, mdes_workload::PlantedDefect)> = Vec::new();

    if let Some(path) = input {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        let spec = load_hmdl_with(path, tel)?;
        let mut analysis = mdes_analyze::analyze_spec_with_telemetry(&spec, tel);
        mdes_analyze::anchor_spans(&mut analysis.diagnostics, &source);
        reports.push((path.to_string(), analysis));
    }
    match machine {
        Some("all") => {
            for (name, spec) in mdes_machines::bundled() {
                reports.push((name, mdes_analyze::analyze_spec_with_telemetry(&spec, tel)));
            }
        }
        Some(name) => {
            let found = mdes_machines::bundled()
                .into_iter()
                .find(|(n, _)| n == name);
            let Some((n, spec)) = found else {
                let known: Vec<String> = mdes_machines::bundled()
                    .into_iter()
                    .map(|(n, _)| n)
                    .collect();
                return Err(format!(
                    "unknown machine `{name}`; try one of {} or `all`",
                    known.join(", ")
                )
                .into());
            };
            reports.push((n, mdes_analyze::analyze_spec_with_telemetry(&spec, tel)));
        }
        None => {}
    }
    if let Some(n) = fleet_size {
        if defects {
            for seeded in mdes_workload::fleet_with_defects(seed, n, 1.0) {
                for defect in &seeded.defects {
                    planted.push((seeded.machine.name.clone(), defect.clone()));
                }
                reports.push((
                    seeded.machine.name.clone(),
                    mdes_analyze::analyze_spec_with_telemetry(&seeded.machine.spec, tel),
                ));
            }
        } else {
            for fm in mdes_workload::fleet(seed, n) {
                reports.push((
                    fm.name.clone(),
                    mdes_analyze::analyze_spec_with_telemetry(&fm.spec, tel),
                ));
            }
        }
    }
    if reports.is_empty() {
        return Err("lint needs an input .hmdl file, --machine NAME|all, or --fleet N".into());
    }

    if json {
        print!(
            "{}",
            mdes_analyze::render_json_many(reports.iter().map(|(o, a)| (o.as_str(), a)))
        );
    } else {
        for (origin, analysis) in &reports {
            print!("{}", mdes_analyze::render_text(origin, analysis));
        }
    }

    use mdes_analyze::Severity;
    let count = |severity| -> usize { reports.iter().map(|(_, a)| a.count(severity)).sum() };
    let (fatal, warn, info) = (
        count(Severity::Fatal),
        count(Severity::Warn),
        count(Severity::Info),
    );
    let mut lines = vec![format!(
        "lint: {} machine(s), {} diagnostic(s) ({fatal} fatal, {warn} warn, {info} info)",
        reports.len(),
        fatal + warn + info
    )];
    if defects {
        let hit = planted
            .iter()
            .filter(|(origin, defect)| {
                reports.iter().any(|(o, a)| {
                    o == origin
                        && a.diagnostics.iter().any(|d| {
                            d.code == defect.code && d.item.as_deref() == Some(&defect.item)
                        })
                })
            })
            .count();
        lines.push(format!(
            "lint: recall {hit}/{} planted defect(s) reported",
            planted.len()
        ));
    }
    for line in &lines {
        // Keep stdout machine-readable under --json.
        if json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }
    if fatal > 0 {
        return Err(CliError::validation(format!(
            "lint: {fatal} fatal diagnostic(s)"
        )));
    }
    Ok(())
}

fn diff_cmd(args: &[String]) -> CliResult {
    let (old_path, new_path) = match args {
        [a, b] => (a, b),
        _ => return Err("diff needs exactly two .hmdl files".into()),
    };
    let old = load_hmdl(old_path)?;
    let new = load_hmdl(new_path)?;
    print!("{}", analysis::diff(&old, &new));
    Ok(())
}

fn chart_cmd(args: &[String]) -> CliResult {
    let mut input: Option<&str> = None;
    let mut total_ops = 24usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--ops" => {
                total_ops = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--ops requires a positive integer")?;
            }
            other if input.is_none() && !other.starts_with('-') => input = Some(other),
            other => return Err(CliError::from(format!("unexpected argument `{other}`"))),
        }
    }
    let input = input.ok_or("chart needs an input .hmdl file")?;
    let mut spec = load_hmdl(input)?;
    optimize(&mut spec, &PipelineConfig::full());
    let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector)
        .map_err(|e| CliError::validation(e.to_string()))?;
    let workload =
        mdes_workload::generate_uniform(&spec, &mdes_workload::uniform_config(total_ops));
    let scheduler = mdes_sched::ListScheduler::new(&compiled);
    let mut stats = mdes_core::CheckStats::new();
    let block = &workload.blocks[0];
    let schedule = scheduler.schedule(block, &mut stats);
    println!(
        "{input}: first synthetic block, {} ops in {} cycles\n",
        block.len(),
        schedule.length
    );
    print!(
        "{}",
        mdes_sched::occupancy_chart(&spec, &compiled, block, &schedule)
    );
    println!();
    for (id, name) in spec.resources().iter() {
        let util = mdes_sched::resource_utilization(&compiled, &schedule)[id.index()];
        if util > 0.0 {
            println!("{name:>12}: {:>5.1}% busy", util * 100.0);
        }
    }
    Ok(())
}

fn bundled_cmd(args: &[String]) -> CliResult {
    let name = args.first().ok_or("bundled needs a machine name")?;
    let machine = mdes_machines::Machine::from_name(name)?;
    print!("{}", machine.source());
    Ok(())
}
