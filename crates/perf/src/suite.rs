//! The bench suite: what gets measured and how much work each bench
//! does per iteration.
//!
//! Per-iteration work is a pure function of the config seed, so the
//! `ops` column of every sample is byte-stable run to run — that is
//! what the CI gate compares exactly, while timings get a noise
//! tolerance.

use std::hint::black_box;
use std::sync::Arc;

use mdes_core::{
    CheckStats, Checker, ClassId, CompiledMdes, Constraint, Latency, MdesSpec, OpFlags, OrTree,
    ResourceId, ResourceUsage, RuMap, TableOption, UsageEncoding,
};
use mdes_engine::Engine;
use mdes_machines::Machine;
use mdes_oracle::{differential_gap, GapReport, OracleScheduler};
use mdes_sched::ListScheduler;
use mdes_workload::{generate_compiled_regions, Pcg32, RegionConfig};

use crate::reference::PointerChasedChecker;
use crate::{measure, BenchConfig, Sample};

/// The baseline side of the derived `checker_speedup` figure.
pub(crate) const POINTER_CHASED_BENCH: &str = "checker/pointer_chased/wide";
/// The optimized side (the flat check arena).
pub(crate) const ARENA_BENCH: &str = "checker/arena/wide";
/// The serial side of the derived `batch_scaling` figure.
pub(crate) const BATCH_W1_BENCH: &str = "engine/batch/w1";
/// The parallel side of the derived `batch_scaling` figure.
pub(crate) const BATCH_W4_BENCH: &str = "engine/batch/w4";

pub(crate) fn run(config: &BenchConfig, out: &mut Vec<Sample>) {
    lang_compile(config, out);
    rumap_word_ops(config, out);
    checker_replay(config, out);
    wide_tree_checkers(config, out);
    automaton_pack(config, out);
    analyze_lint(config, out);
    list_scheduling(config, out);
    engine_batches(config, out);
    serve_boot(config, out);
    serve_roundtrip(config, out);
}

/// The `lang/compile/<machine>` family: the HMDL front end (lexing,
/// parsing, elaboration and validation through `mdes_lang::compile`)
/// over every bundled source.  Work unit: one compiled description, so
/// the count is exact and the timing is the front end's cost per
/// description — what `build` pays per corpus entry and a hot reload
/// per HMDL image.
fn lang_compile(config: &BenchConfig, out: &mut Vec<Sample>) {
    for (machine_name, source) in mdes_machines::bundled_sources() {
        let name = format!("lang/compile/{machine_name}");
        if !config.matches(&name) {
            continue;
        }
        out.push(measure(&name, config.iters(100), config.reps, || {
            black_box(mdes_lang::compile(source).unwrap());
            1
        }));
    }
}

/// The `analyze/lint/<machine>` family: the full static diagnostics
/// engine (`mdes_analyze::analyze_spec` — dominance difference sets,
/// unsatisfiability search, dead-item sweep, missed-transformation
/// lints) over every bundled description.  Work unit: one analyzed item
/// plus one emitted diagnostic — both pure functions of the spec, so
/// the count is byte-stable and any change to an analysis's coverage
/// shows up as count drift.  This is the cost a `guard` pipeline run or
/// a `serve` hot reload pays before any scheduling happens.
fn analyze_lint(config: &BenchConfig, out: &mut Vec<Sample>) {
    for (machine_name, spec) in mdes_machines::bundled() {
        let name = format!("analyze/lint/{machine_name}");
        if !config.matches(&name) {
            continue;
        }
        out.push(measure(&name, config.iters(20), config.reps, || {
            let analysis = mdes_analyze::analyze_spec(&spec);
            assert!(
                !analysis.has_fatal(),
                "bundled {machine_name} must stay fatal-free"
            );
            (analysis.items_analyzed + analysis.diagnostics.len()) as u64
        }));
    }
}

/// The `oracle/bnb/<machine>` family: the exact branch-and-bound
/// scheduler running the full differential (oracle vs. list scheduling,
/// with replay verification of both) over oracle-sized seeded regions on
/// every bundled machine.  Work unit: one oracle schedule cycle plus one
/// search node — both pure functions of the seed, so the count is
/// byte-stable and any change to the search's pruning or to the list
/// schedule that seeds its incumbent shows up as count drift.  Returns
/// the aggregate list-scheduler optimality gap across the measured
/// machines (the figure the gate's ceiling applies to), or 0 when the
/// family was filtered out of the run.
///
/// # Panics
///
/// Panics on any differential violation — an invalid oracle schedule or
/// a production schedule beating the oracle is a correctness bug, not a
/// performance result.
pub(crate) fn oracle_differential(config: &BenchConfig, out: &mut Vec<Sample>) -> f64 {
    // Per-region node budget for the bench oracle.  The conformance
    // tests search with the full default budget; a *bench* must stay in
    // the tens of milliseconds, and a budget-bailed region simply keeps
    // its list-scheduler incumbent (still a sound upper bound), which
    // can only pull the measured gap toward 1.
    const ORACLE_BENCH_NODE_LIMIT: u64 = 200_000;
    let mut total = GapReport::default();
    let mut measured = false;
    for (machine_name, spec) in mdes_machines::bundled() {
        let name = format!("oracle/bnb/{machine_name}");
        if !config.matches(&name) {
            continue;
        }
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let blocks =
            generate_compiled_regions(&compiled, &RegionConfig::small(10).with_seed(config.seed))
                .blocks;
        let oracle = OracleScheduler::new(&compiled).with_node_limit(ORACLE_BENCH_NODE_LIMIT);
        out.push(measure(&name, config.iters(2), config.reps, || {
            let mut stats = CheckStats::new();
            let report = differential_gap(&compiled, &blocks, &oracle, &mut stats);
            assert_eq!(
                report.violations, 0,
                "oracle differential violations on {machine_name}: {:?}",
                report.violation_details
            );
            report.oracle_cycles + report.nodes
        }));
        let mut stats = CheckStats::new();
        total.merge(&differential_gap(&compiled, &blocks, &oracle, &mut stats));
        measured = true;
    }
    if measured {
        total.gap()
    } else {
        0.0
    }
}

/// `RuMap::is_free` / `reserve` / `release`: the word operations every
/// other bench bottoms out in.
fn rumap_word_ops(config: &BenchConfig, out: &mut Vec<Sample>) {
    let name = "rumap/word_ops";
    if !config.matches(name) {
        return;
    }
    let mut rng = Pcg32::new(config.seed, 0x10);
    let probes: Vec<(i32, u64)> = (0..4096)
        .map(|_| {
            let cycle = rng.gen_range(256) as i32;
            let mask = (u64::from(rng.next_u32()) << 32 | u64::from(rng.next_u32())) | 1;
            (cycle, mask)
        })
        .collect();
    out.push(measure(name, config.iters(200), config.reps, || {
        let mut ru = RuMap::new();
        let mut ops = 0u64;
        for &(cycle, mask) in &probes {
            ops += 1;
            if ru.is_free(cycle, mask) {
                ru.reserve(cycle, mask);
                ops += 1;
            }
        }
        for &(cycle, mask) in &probes {
            if !ru.is_free(cycle, mask) {
                ru.release(cycle, mask);
                ops += 1;
            }
        }
        ops
    }));
}

/// The per-option check loop of the production checker under both
/// usage encodings, replaying a seeded probe stream against bundled
/// machines.  Work unit: one resource check.
fn checker_replay(config: &BenchConfig, out: &mut Vec<Sample>) {
    for (machine_name, spec) in mdes_machines::bundled() {
        for (label, encoding) in [
            ("scalar", UsageEncoding::Scalar),
            ("bitvector", UsageEncoding::BitVector),
        ] {
            let name = format!("checker/{label}/{machine_name}");
            if !config.matches(&name) {
                continue;
            }
            let compiled = CompiledMdes::compile(&spec, encoding).unwrap();
            let checker = Checker::new(&compiled);
            let probes = probe_stream(config.seed, compiled.classes().len(), 2048);
            out.push(measure(&name, config.iters(50), config.reps, || {
                let mut ru = RuMap::new();
                let mut stats = CheckStats::new();
                for &(class, time) in &probes {
                    checker.try_reserve(&mut ru, class, time, &mut stats);
                }
                stats.resource_checks
            }));
        }
    }
}

/// A seeded `(class, issue-time)` stream shared by the checker benches.
fn probe_stream(seed: u64, classes: usize, len: usize) -> Vec<(ClassId, i32)> {
    let mut rng = Pcg32::new(seed, 0x20);
    (0..len)
        .map(|_| {
            let class = ClassId::from_index(rng.gen_range(classes as u32) as usize);
            let time = rng.gen_range(32) as i32;
            (class, time)
        })
        .collect()
}

/// Sixteen interchangeable issue slots behind one OR-tree, with the
/// fifteen highest-priority slots kept busy: every attempt walks the
/// whole tree, the access pattern where the check layout shows up.  Two
/// checkers run the identical attempt stream; the derived
/// `checker_speedup` divides the pointer-chased sample's time by the
/// arena's.
fn wide_tree_checkers(config: &BenchConfig, out: &mut Vec<Sample>) {
    const SLOTS: usize = 16;
    const ATTEMPTS: i32 = 1024;
    if !config.matches(POINTER_CHASED_BENCH) && !config.matches(ARENA_BENCH) {
        return;
    }

    let mut spec = MdesSpec::new();
    spec.resources_mut().add_indexed("Slot", SLOTS).unwrap();
    let opts: Vec<_> = (0..SLOTS)
        .map(|r| {
            spec.add_option(TableOption::new(vec![ResourceUsage::new(
                ResourceId::from_index(r),
                0,
            )]))
        })
        .collect();
    let tree = spec.add_or_tree(OrTree::new(opts));
    spec.add_class("op", Constraint::Or(tree), Latency::new(1), OpFlags::none())
        .unwrap();
    let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
    let class = compiled.class_by_name("op").unwrap();
    // All slots but the last busy at every cycle: the priority scan
    // re-fails SLOTS-1 options per attempt before it finds the free slot.
    let busy: u64 = (1 << (SLOTS - 1)) - 1;

    if config.matches(POINTER_CHASED_BENCH) {
        let checker = PointerChasedChecker::new(&compiled);
        out.push(measure(
            POINTER_CHASED_BENCH,
            config.iters(100),
            config.reps,
            || {
                let mut ru = RuMap::new();
                let mut stats = CheckStats::new();
                for t in 0..ATTEMPTS {
                    ru.reserve(t, busy);
                    checker.try_reserve(&mut ru, class, t, &mut stats);
                }
                stats.resource_checks
            },
        ));
    }
    if config.matches(ARENA_BENCH) {
        let checker = Checker::new(&compiled);
        out.push(measure(ARENA_BENCH, config.iters(100), config.reps, || {
            let mut ru = RuMap::new();
            let mut stats = CheckStats::new();
            for t in 0..ATTEMPTS {
                ru.reserve(t, busy);
                checker.try_reserve(&mut ru, class, t, &mut stats);
            }
            stats.resource_checks
        }));
    }
}

/// The automaton checker walking a seeded class stream (greedy in-order
/// packing).  Work unit: one issued operation.
fn automaton_pack(config: &BenchConfig, out: &mut Vec<Sample>) {
    let name = "automaton/pack/pa7100";
    if !config.matches(name) {
        return;
    }
    let spec = Machine::Pa7100.spec();
    let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
    let mut automaton = mdes_automata::Automaton::new(&compiled);
    let mut rng = Pcg32::new(config.seed, 0x30);
    let classes: Vec<ClassId> = (0..512)
        .map(|_| ClassId::from_index(rng.gen_range(compiled.classes().len() as u32) as usize))
        .collect();
    out.push(measure(name, config.iters(50), config.reps, || {
        automaton.pack_in_order(&classes);
        classes.len() as u64
    }));
}

/// Full list scheduling of `mdes-workload` region streams.  Work unit:
/// one resource check.
fn list_scheduling(config: &BenchConfig, out: &mut Vec<Sample>) {
    for (machine_name, spec) in mdes_machines::bundled() {
        let name = format!("sched/list/{machine_name}");
        if !config.matches(&name) {
            continue;
        }
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let blocks =
            generate_compiled_regions(&compiled, &RegionConfig::new(32).with_seed(config.seed))
                .blocks;
        let scheduler = ListScheduler::new(&compiled);
        out.push(measure(&name, config.iters(10), config.reps, || {
            let mut stats = CheckStats::new();
            for block in &blocks {
                scheduler.schedule(block, &mut stats);
            }
            stats.resource_checks
        }));
    }
}

/// `Engine::schedule_batch` throughput at 1/2/4/8/16 workers over one
/// shared compiled description.  Work unit: one resource check
/// (worker-count invariant by the engine's determinism contract;
/// wall-clock is where worker scaling shows, on machines that have the
/// cores for it).  The derived `batch_scaling` figure divides the w1
/// sample's fastest repetition by the w4 sample's.
fn engine_batches(config: &BenchConfig, out: &mut Vec<Sample>) {
    const WORKER_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];
    let names: Vec<String> = WORKER_COUNTS
        .iter()
        .map(|jobs| format!("engine/batch/w{jobs}"))
        .collect();
    if !names.iter().any(|n| config.matches(n)) {
        return;
    }
    let spec = Machine::Pa7100.spec();
    let compiled = Arc::new(CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap());
    let blocks =
        generate_compiled_regions(&compiled, &RegionConfig::new(128).with_seed(config.seed)).blocks;
    let engine = Engine::new(compiled);
    for (name, jobs) in names.iter().zip(WORKER_COUNTS) {
        if !config.matches(name) {
            continue;
        }
        out.push(measure(name, config.iters(3), config.reps, || {
            engine.schedule_batch(&blocks, jobs).stats.resource_checks
        }));
    }
}

/// The `serve/load/<machine>` family plus the report's serve-latency
/// figures: the full closed-loop v2 client (pipelined connections,
/// every reply re-verified against a locally recomputed expectation)
/// against a live daemon, one bench per bundled machine.  Work unit:
/// one verified answer — deterministic (the run is clean or the bench
/// panics), so count drift catches a request silently going missing.
///
/// Returns `(serve_p50_us, serve_p99_us)` — the fastest-repetition
/// percentiles of the K5 run, the figures the CI gate compares against
/// the committed baseline — or `(0, 0)` when the K5 bench was filtered
/// out of the run.
pub(crate) fn serve_load(config: &BenchConfig, out: &mut Vec<Sample>) -> (f64, f64) {
    use std::cell::Cell;

    const REQUESTS: usize = 96;
    let mut p50 = 0.0;
    let mut p99 = 0.0;
    for machine in Machine::all() {
        let name = format!("serve/load/{}", machine.name().to_lowercase());
        if !config.matches(&name) {
            continue;
        }
        let path = std::env::temp_dir().join(format!(
            "mdes-perf-load-{}-{}.sock",
            machine.name().to_lowercase(),
            std::process::id()
        ));
        let store = Arc::new(mdes_serve::ImageStore::new(
            mdes_serve::compile_machine(machine),
            machine.name(),
            config.seed,
        ));
        let handle = mdes_serve::serve(
            mdes_serve::BindAddr::Unix(path.clone()),
            store,
            mdes_serve::ServeConfig {
                workers: 2,
                ..mdes_serve::ServeConfig::default()
            },
        )
        .expect("daemon binds");
        let options = mdes_serve::LoadOptions {
            addr: mdes_serve::BindAddr::Unix(path),
            connections: 2,
            requests: REQUESTS,
            params: mdes_serve::WorkParams {
                regions: 4,
                mean_ops: 8,
                seed: config.seed,
                jobs: 1,
            },
            pipeline: 4,
            machines: Vec::new(),
            deadline_ms: None,
            reloads: Vec::new(),
            known_sources: vec![mdes_core::lmdes::write(&mdes_serve::compile_machine(
                machine,
            ))],
            verify_responses: true,
            shutdown_when_done: false,
            max_retries: 16,
        };
        // Fastest repetition's percentiles, for the same noise-robustness
        // reason the gate compares min-of-K timings.
        let best = Cell::new((u64::MAX, u64::MAX));
        out.push(measure(&name, config.iters(1), config.reps, || {
            let report = mdes_serve::run_load(&options).expect("load run");
            assert!(
                report.is_clean() && report.unverified == 0,
                "serve/load/{} run not clean: {:?}",
                machine.name(),
                report.errors
            );
            let (p50, p99) = best.get();
            best.set((p50.min(report.p50_us), p99.min(report.p99_us)));
            report.answered
        }));
        handle.shutdown();
        handle.join();
        if machine == Machine::K5 {
            let (best_p50, best_p99) = best.get();
            p50 = best_p50 as f64;
            p99 = best_p99 as f64;
        }
    }
    (p50, p99)
}

/// The `serve/boot/<machine>` family: what `mdesc serve` does for each
/// shard before it binds — load the build-time LMDES image
/// (`mdes_serve::compile_machine`) and open an image store over it,
/// which hashes the canonical image.  Work unit: one booted shard.
fn serve_boot(config: &BenchConfig, out: &mut Vec<Sample>) {
    for machine in Machine::all() {
        let name = format!("serve/boot/{}", machine.name().to_lowercase());
        if !config.matches(&name) {
            continue;
        }
        out.push(measure(&name, config.iters(100), config.reps, || {
            black_box(mdes_serve::ImageStore::new(
                mdes_serve::compile_machine(machine),
                machine.name(),
                config.seed,
            ));
            1
        }));
    }
}

/// One client connection round-tripping `schedule` requests through a
/// live daemon over a Unix socket: frame parse + admission queue +
/// engine + reply render per request.  Work unit: one answered request,
/// so the timing is the full serve path, not just the engine.
fn serve_roundtrip(config: &BenchConfig, out: &mut Vec<Sample>) {
    use std::io::{BufRead, BufReader, Write};

    const REQUESTS: u64 = 64;
    let name = "serve/roundtrip";
    if !config.matches(name) {
        return;
    }
    let path = std::env::temp_dir().join(format!("mdes-perf-serve-{}.sock", std::process::id()));
    let store = Arc::new(mdes_serve::ImageStore::new(
        mdes_serve::compile_machine(Machine::K5),
        Machine::K5.name(),
        config.seed,
    ));
    let handle = mdes_serve::serve(
        mdes_serve::BindAddr::Unix(path.clone()),
        store,
        mdes_serve::ServeConfig::default(),
    )
    .expect("daemon binds");
    let stream = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    let mut reader = BufReader::new(stream);
    out.push(measure(name, config.iters(5), config.reps, || {
        let mut line = String::new();
        for i in 0..REQUESTS {
            let request = format!(
                "{{\"id\": {i}, \"verb\": \"schedule\", \"regions\": 4, \"mean_ops\": 8, \
                 \"seed\": {}}}\n",
                config.seed.wrapping_add(i)
            );
            reader
                .get_mut()
                .write_all(request.as_bytes())
                .expect("write");
            line.clear();
            reader.read_line(&mut line).expect("read");
            let reply = mdes_serve::proto::parse_reply(line.trim_end()).expect("reply");
            assert!(reply.ok, "daemon error: {line}");
        }
        REQUESTS
    }));
    drop(reader);
    handle.shutdown();
    handle.join();
}
