//! `build`: the front end and the Section 5–8 passes, closed loop.
//!
//! Each pass builds every description of a 64-source corpus (the six
//! bundled HMDL sources plus 58 seeded fleet machines printed back to
//! HMDL): `lang::compile` → `optimize(full)` → `CompiledMdes::compile`
//! (bit-vector) → `lmdes::write` → `lmdes::scan` + `materialize`.  No
//! scheduling happens here, so a scheduler change must read "no change".

use std::hint::black_box;
use std::time::{Duration, Instant};

use mdes_benchmark::report::Report;
use mdes_benchmark::stats::median;
use mdes_benchmark::trace::{mean_self_us, self_by_name, Tracer};
use mdes_core::spec::MdesSpec;
use mdes_core::{lmdes, CompiledMdes, UsageEncoding};
use mdes_machines::Machine;
use mdes_opt::pipeline::{
    optimize, run_stage, stage_plan, PipelineConfig, PipelineReport, StageId,
};
use mdes_telemetry::Telemetry;

use crate::{closed_loop, daemon, paper_counts, sliced, Args, Checks};

/// Seeded fleet machines in the corpus, after the six bundled sources.
const FLEET: usize = 58;

/// The six bundled HMDL sources: the paper's four machines plus the
/// Pentium Pro and approximate SuperSPARC reconstructions.
pub fn bundled() -> Vec<&'static str> {
    let mut sources: Vec<&'static str> = Machine::all().iter().map(Machine::source).collect();
    sources.push(mdes_machines::pentium_pro_source());
    sources.push(mdes_machines::approximate_superspark_source());
    sources
}

/// The corpus for `seed`: bundled sources first, then the fleet.
fn corpus(seed: u64) -> Result<Vec<String>, String> {
    let mut sources: Vec<String> = bundled().into_iter().map(str::to_string).collect();
    for machine in mdes_workload::fleet(seed, FLEET) {
        let text = mdes_lang::print(&machine.spec)
            .map_err(|e| format!("{} does not print as HMDL: {e}", machine.name))?;
        sources.push(text);
    }
    Ok(sources)
}

/// The front end and optimizer through their public entry points, or
/// stage by stage under spans when traced.
pub fn front_end(source: &str, tracer: &mut Tracer, item: u32) -> Result<MdesSpec, String> {
    let config = PipelineConfig::full();
    if !tracer.enabled() {
        let mut spec = mdes_lang::compile(source).map_err(|e| e.to_string())?;
        optimize(&mut spec, &config);
        return Ok(spec);
    }
    let program = tracer
        .time("lang.parse", item, || mdes_lang::parse(source))
        .map_err(|e| e.to_string())?;
    let mut spec = tracer
        .time("lang.elaborate", item, || mdes_lang::elaborate(&program))
        .map_err(|e| e.to_string())?;
    let mut report = PipelineReport::default();
    let tel = Telemetry::disabled();
    for stage in stage_plan(&config) {
        tracer.time(stage_span(stage), item, || {
            run_stage(&mut spec, stage, &config, &mut report, &tel)
        });
    }
    Ok(spec)
}

fn stage_span(stage: StageId) -> &'static str {
    match stage {
        StageId::Redundancy => "opt.redundancy",
        StageId::Dominance => "opt.dominance",
        StageId::TimeShift => "opt.shifting",
        StageId::SortZero => "opt.sortzero",
        StageId::TreeSort => "opt.treesort",
        StageId::Factor => "opt.factor",
    }
}

/// Builds one description to a loaded image; returns the image bytes.
fn build_one(source: &str, tracer: &mut Tracer, item: u32) -> Result<Vec<u8>, String> {
    let root = tracer.enter("build.describe", item);
    let spec = front_end(source, tracer, item)?;
    let mdes = tracer
        .time("core.compile", item, || {
            CompiledMdes::compile(&spec, UsageEncoding::BitVector)
        })
        .map_err(|e| e.to_string())?;
    let bytes = tracer.time("core.lmdes_write", item, || lmdes::write(&mdes));
    let loaded = tracer
        .time("core.lmdes_load", item, || {
            lmdes::scan(&bytes).and_then(|scan| scan.materialize())
        })
        .map_err(|e| e.to_string())?;
    black_box(loaded);
    tracer.exit(root);
    Ok(bytes)
}

/// Timings of a closed-loop phase.
#[derive(Default)]
struct Phase {
    pass_ns: Vec<f64>,
    desc_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
}

impl Phase {
    /// One phase from consecutive slices.
    fn join(slices: Vec<Phase>) -> Phase {
        let mut phase = Phase::default();
        for slice in slices {
            phase.pass_ns.extend(slice.pass_ns);
            phase.desc_ns.extend(slice.desc_ns);
            phase.attempted += slice.attempted;
            phase.failed += slice.failed;
        }
        phase
    }
}

/// Builds the corpus pass after pass for `len`, checking each image's
/// size against the warm-up pass.  Stops early when the tracer has no
/// room for another pass.
fn passes(corpus: &[String], sizes: &[usize], tracer: &mut Tracer, len: Duration) -> Phase {
    let mut phase = Phase::default();
    let spans_per_pass = corpus.len() * 12;
    let deadline = Instant::now() + len;
    while Instant::now() < deadline && (!tracer.enabled() || tracer.has_room(spans_per_pass)) {
        let pass = Instant::now();
        for (item, source) in corpus.iter().enumerate() {
            let started = Instant::now();
            let built = build_one(source, tracer, item as u32);
            phase.desc_ns.push(started.elapsed().as_nanos() as u64);
            phase.attempted += 1;
            if built.map_or(true, |bytes| bytes.len() != sizes[item]) {
                phase.failed += 1;
            }
        }
        phase.pass_ns.push(pass.elapsed().as_nanos() as f64);
    }
    phase
}

/// Set-up: the corpus, and a warm-up pass whose image sizes every timed
/// pass must match.
fn set_up(seed: u64) -> Result<(Vec<String>, Vec<Vec<u8>>), String> {
    let sources = corpus(seed)?;
    let mut untraced = Tracer::new(false, 0);
    let warm = sources
        .iter()
        .map(|s| build_one(s, &mut untraced, 0))
        .collect::<Result<_, _>>()?;
    Ok((sources, warm))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let started = Instant::now();
    let (sources, warm) = set_up(args.seed)?;
    let mut setup = vec![started.elapsed().as_secs_f64()];
    let mut untraced = Tracer::new(false, 0);
    let sizes: Vec<usize> = warm.iter().map(Vec::len).collect();
    // Peak memory with the inputs resident and one pass done, before the
    // timed loop's own sample buffers grow.
    let memory = daemon::memory("self")?;

    let mut report = Report::default();
    let phase = if args.traced {
        let mut tracer = args.tracer();
        let base = passes(&sources, &sizes, &mut untraced, args.measured() / 3);
        let traced = passes(&sources, &sizes, &mut tracer, args.measured() * 2 / 3);
        let totals = self_by_name(tracer.spans());
        for name in [
            "lang.parse",
            "lang.elaborate",
            "opt.redundancy",
            "opt.dominance",
            "opt.shifting",
            "opt.sortzero",
            "opt.treesort",
            "opt.factor",
            "core.compile",
            "core.lmdes_write",
            "core.lmdes_load",
        ] {
            report.set(&format!("{name}_us"), mean_self_us(&totals, name));
        }
        let overhead =
            median(&traced.pass_ns).unwrap_or(0.0) / median(&base.pass_ns).unwrap_or(1.0);
        report.set("trace.overhead_share", overhead - 1.0);
        args.write_trace(&tracer)?;
        // The timings come from the untraced third.
        closed_loop(
            &mut report,
            sources.len() as f64,
            sources.len(),
            &base.desc_ns,
        );
        traced
    } else {
        let slices = sliced(
            args.measured(),
            &mut setup,
            || set_up(args.seed).map(black_box).map(drop),
            |len| passes(&sources, &sizes, &mut untraced, len),
        )?;
        let phase = Phase::join(slices);
        closed_loop(
            &mut report,
            sources.len() as f64,
            sources.len(),
            &phase.desc_ns,
        );
        phase
    };

    let mut checks = Checks::default();
    checks.expect(phase.failed == 0, || {
        format!("{} build(s) failed or changed size", phase.failed)
    });
    let (corpus_bytes, usages) = verify(&sources, &warm, &mut checks);
    let bundled: Vec<CompiledMdes> = warm[..bundled().len()]
        .iter()
        .map(|bytes| lmdes::read(bytes).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    paper_counts(&bundled, &mut report);

    report.set("opt.usages_after", usages as f64);
    report.set("core.corpus_image_bytes", corpus_bytes as f64);
    report.set("setup_s", median(&setup).unwrap_or(f64::NAN));
    report.set("peak_rss_mb", memory.hwm_kb as f64 / 1024.0);
    report.correct = checks.passed();
    report.attempted = phase.attempted;
    report.failed = phase.failed;
    Ok(report)
}

/// Rebuilds every description outside the timed phase and checks that
/// the image is the warm-up image byte for byte and survives a load and
/// re-write unchanged.  Returns the corpus image bytes and the corpus's
/// resource usages after optimization.
fn verify(sources: &[String], warm: &[Vec<u8>], checks: &mut Checks) -> (usize, usize) {
    let mut untraced = Tracer::new(false, 0);
    let mut usages = 0;
    for (i, source) in sources.iter().enumerate() {
        let spec = match front_end(source, &mut untraced, 0) {
            Ok(spec) => spec,
            Err(e) => {
                checks.note(Err(format!("description {i}: {e}")));
                continue;
            }
        };
        checks.note(spec.validate().map_err(|e| format!("description {i}: {e}")));
        usages += spec
            .option_ids()
            .map(|id| spec.option(id).usages.len())
            .sum::<usize>();
        let reloaded = CompiledMdes::compile(&spec, UsageEncoding::BitVector)
            .map_err(|e| e.to_string())
            .map(|mdes| lmdes::write(&mdes))
            .and_then(|bytes| {
                let loaded = lmdes::read(&bytes).map_err(|e| e.to_string())?;
                Ok((bytes, lmdes::write(&loaded)))
            });
        match reloaded {
            Ok((bytes, again)) => {
                checks.expect(bytes == warm[i], || {
                    format!("description {i}: image differs between builds")
                });
                checks.expect(again == bytes, || {
                    format!("description {i}: image changes across load and write")
                });
            }
            Err(e) => checks.note(Err(format!("description {i}: {e}"))),
        }
    }
    (warm.iter().map(Vec::len).sum(), usages)
}
