//! The bench suite: what gets measured, how much work each bench does
//! per iteration, and the figures derived from it.  Every bench is one
//! value of [`registry`] and every derived figure one value of
//! [`figures`].
//!
//! Per-iteration work is a pure function of the config seed, so the
//! `ops` column of every sample is byte-stable run to run — that is
//! what the CI gate compares exactly, while timings get a noise
//! tolerance.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;

use mdes_automata::Automaton;
use mdes_core::{
    CheckStats, Checker, ClassId, CompiledMdes, Constraint, Latency, MdesSpec, OpFlags, OrTree,
    ResourceId, ResourceUsage, RuMap, TableOption, UsageEncoding,
};
use mdes_engine::Engine;
use mdes_machines::Machine;
use mdes_oracle::{differential_gap, GapReport, OracleScheduler};
use mdes_sched::{Block, DepGraph, ListScheduler};
use mdes_workload::{generate_compiled_regions, Pcg32, RegionConfig, RegionGenerator};

use crate::{batch_scaling_floor, Bound, Figure, Sample, ORACLE_GAP_CEILING};

/// One timed iteration of a bench: it runs the measured work once,
/// returns its work units, and notes in [`Seen`] what a derived figure
/// reads off it.
pub(crate) type Iteration = Box<dyn FnMut(&mut Seen) -> u64>;

/// One bench of the suite.
pub(crate) struct Bench {
    /// Slash-namespaced name (`checker/arena/wide`).
    pub(crate) name: String,
    /// Timed iterations per repetition at `--scale 1`.
    pub(crate) iters: u64,
    /// Builds the bench's inputs from the seed and returns its
    /// iteration; run only when the filter selects the bench.
    pub(crate) setup: Box<dyn FnOnce(u64) -> Iteration>,
}

fn bench(
    name: impl Into<String>,
    iters: u64,
    setup: impl FnOnce(u64) -> Iteration + 'static,
) -> Bench {
    Bench {
        name: name.into(),
        iters,
        setup: Box::new(setup),
    }
}

/// What a bench's iterations saw besides their work units: the inputs
/// of the derived figures that are not read off a sample.
#[derive(Default)]
pub(crate) struct Seen {
    /// The last iteration's differential (`oracle/bnb/*`); every
    /// iteration's is the same.
    gap: Option<GapReport>,
    /// The lowest p50 and, separately, the lowest p99 of every iteration,
    /// in microseconds (`serve/load/*`).
    latency_us: Option<(u64, u64)>,
}

/// Every bench, in report order.  Building the list sets nothing up.
pub(crate) fn registry() -> Vec<Bench> {
    let mut benches = Vec::new();
    per_machine(&mut benches, "lang/compile", 100, lang_compile);
    benches.push(bench("rumap/word_ops", 200, rumap_word_ops));
    for (machine, source) in mdes_machines::bundled_sources() {
        for (label, encoding) in [
            ("scalar", UsageEncoding::Scalar),
            ("bitvector", UsageEncoding::BitVector),
        ] {
            let name = format!("checker/{label}/{machine}");
            benches.push(bench(name, 50, move |seed| {
                checker_replay(source, encoding, seed)
            }));
        }
    }
    benches.push(bench("checker/arena/wide", 100, |_| wide_tree_checker()));
    benches.push(bench("automaton/pack/pa7100", 50, automaton_pack));
    per_machine(&mut benches, "analyze/lint", 20, analyze_lint);
    per_machine(&mut benches, "sched/list", 10, list_scheduling);
    per_machine(&mut benches, "sched/graph", 10, graph_rebuilds);
    per_machine(&mut benches, "workload/regions", 200, region_generation);
    for jobs in [1, 2, 4, 8, 16] {
        let name = format!("engine/batch/w{jobs}");
        benches.push(bench(name, 3, move |seed| engine_batch(jobs, seed)));
    }
    for machine in Machine::all() {
        let name = format!("serve/boot/{}", machine.name().to_lowercase());
        benches.push(bench(name, 100, move |seed| serve_boot(machine, seed)));
    }
    benches.push(bench("serve/roundtrip", 5, serve_roundtrip));
    per_machine(&mut benches, "oracle/bnb", 2, oracle_differential);
    for machine in Machine::all() {
        let name = format!("serve/load/{}", machine.name().to_lowercase());
        benches.push(bench(name, 1, move |seed| serve_load(machine, seed)));
    }
    benches
}

/// Appends a `<family>/<machine>` bench for every bundled description,
/// set up from the machine's name, its HMDL source and the seed.
fn per_machine(
    benches: &mut Vec<Bench>,
    family: &str,
    iters: u64,
    setup: fn(&str, &'static str, u64) -> Iteration,
) {
    for (machine, source) in mdes_machines::bundled_sources() {
        let name = format!("{family}/{machine}");
        benches.push(bench(name, iters, move |seed| {
            setup(&machine, source, seed)
        }));
    }
}

/// The derived figures, in report order, read off the run's samples and
/// what their iterations saw.  A figure reads 0 when the filter left out
/// the benches it is read off, and the gate then skips it.
///
/// * `batch_scaling`: `engine/batch/w1` ÷ `engine/batch/w4`, the fastest
///   repetition of each — the parallel speedup of
///   `Engine::schedule_batch` at 4 workers on the same seeded batch.  At
///   least [`batch_scaling_floor`] on the host that runs it.
/// * `oracle_gap`: total list-scheduler cycles ÷ total proven-minimum
///   oracle cycles over the differentials the `oracle/bnb/*` benches
///   time.  A quality figure, deterministic for a seed, so at most the
///   absolute [`ORACLE_GAP_CEILING`].
/// * `serve_p50_us`, `serve_p99_us`: the lowest p50 and, separately, the
///   lowest p99 request latency over every timed `serve/load/k5` run, in
///   microseconds; the two may come from different runs.  Wall-clock,
///   so gated against the baseline's under the timing tolerance.
pub(crate) fn figures(runs: &[(Sample, Seen)]) -> Vec<Figure> {
    let run = |name: &str| runs.iter().find(|(sample, _)| sample.name == name);
    let fastest = |name: &str| run(name).map(|(sample, _)| sample.min_ns);
    let batch_scaling = match (fastest("engine/batch/w1"), fastest("engine/batch/w4")) {
        (Some(serial), Some(wide)) if wide > 0 => serial as f64 / wide as f64,
        _ => 0.0,
    };
    let mut gap: Option<GapReport> = None;
    for report in runs.iter().filter_map(|(_, seen)| seen.gap.as_ref()) {
        gap.get_or_insert_with(GapReport::default).merge(report);
    }
    let (p50, p99) = run("serve/load/k5")
        .and_then(|(_, seen)| seen.latency_us)
        .unwrap_or((0, 0));
    let figure = |name, value, bound| Figure { name, value, bound };
    vec![
        figure(
            "batch_scaling",
            batch_scaling,
            Bound::Floor(batch_scaling_floor()),
        ),
        figure(
            "oracle_gap",
            gap.map_or(0.0, |gap| gap.gap()),
            Bound::Ceiling(ORACLE_GAP_CEILING),
        ),
        figure("serve_p50_us", p50 as f64, Bound::Latency),
        figure("serve_p99_us", p99 as f64, Bound::Latency),
    ]
}

/// A bundled description, compiled under `encoding`.
fn compile(source: &str, encoding: UsageEncoding) -> CompiledMdes {
    let spec = mdes_lang::compile(source).expect("bundled descriptions compile");
    CompiledMdes::compile(&spec, encoding).expect("bundled descriptions validate")
}

/// The `lang/compile/<machine>` family: the HMDL front end (lexing,
/// parsing, elaboration and validation through `mdes_lang::compile`)
/// over every bundled source.  Work unit: one compiled description, so
/// the count is exact and the timing is the front end's cost per
/// description — what `build` pays per corpus entry and a hot reload
/// per HMDL image.
fn lang_compile(_machine: &str, source: &'static str, _seed: u64) -> Iteration {
    Box::new(move |_| {
        black_box(mdes_lang::compile(source).unwrap());
        1
    })
}

/// The `analyze/lint/<machine>` family: the full static diagnostics
/// engine (`mdes_analyze::analyze_spec` — dominance difference sets,
/// unsatisfiability search, dead-item sweep, missed-transformation
/// lints) over every bundled description.  Work unit: one analyzed item
/// plus one emitted diagnostic — both pure functions of the spec, so
/// the count is byte-stable and any change to an analysis's coverage
/// shows up as count drift.  This is the cost a `guard` pipeline run or
/// a `serve` hot reload pays before any scheduling happens.
fn analyze_lint(machine: &str, source: &str, _seed: u64) -> Iteration {
    let machine = machine.to_string();
    let spec = mdes_lang::compile(source).expect("bundled descriptions compile");
    Box::new(move |_| {
        let analysis = mdes_analyze::analyze_spec(&spec);
        assert!(
            !analysis.has_fatal(),
            "bundled {machine} must stay fatal-free"
        );
        (analysis.items_analyzed + analysis.diagnostics.len()) as u64
    })
}

/// The `oracle/bnb/<machine>` family: the exact branch-and-bound
/// scheduler running the full differential (oracle vs. list scheduling,
/// with replay verification of both) over oracle-sized seeded regions on
/// every bundled machine.  Work unit: one oracle schedule cycle plus one
/// search node — both pure functions of the seed, so the count is
/// byte-stable and any change to the search's pruning or to the list
/// schedule that seeds its incumbent shows up as count drift.  Each
/// iteration's differential is what `oracle_gap` is read off.
///
/// # Panics
///
/// Panics on any differential violation — an invalid oracle schedule or
/// a production schedule beating the oracle is a correctness bug, not a
/// performance result.
fn oracle_differential(machine: &str, source: &str, seed: u64) -> Iteration {
    // Per-region node budget for the bench oracle.  The conformance
    // tests search with the full default budget; a *bench* must stay in
    // the tens of milliseconds, and a budget-bailed region simply keeps
    // its list-scheduler incumbent (still a sound upper bound), which
    // can only pull the measured gap toward 1.
    const ORACLE_BENCH_NODE_LIMIT: u64 = 200_000;
    let machine = machine.to_string();
    let compiled = compile(source, UsageEncoding::BitVector);
    let blocks =
        generate_compiled_regions(&compiled, &RegionConfig::small(10).with_seed(seed)).blocks;
    Box::new(move |seen| {
        let oracle = OracleScheduler::new(&compiled).with_node_limit(ORACLE_BENCH_NODE_LIMIT);
        let mut stats = CheckStats::new();
        let report = differential_gap(&compiled, &blocks, &oracle, &mut stats);
        assert_eq!(
            report.violations, 0,
            "oracle differential violations on {machine}: {:?}",
            report.violation_details
        );
        let ops = report.oracle_cycles + report.nodes;
        seen.gap = Some(report);
        ops
    })
}

/// `RuMap::is_free` / `reserve` / `release`: the word operations every
/// other bench bottoms out in.
fn rumap_word_ops(seed: u64) -> Iteration {
    let mut rng = Pcg32::new(seed, 0x10);
    let probes: Vec<(i32, u64)> = (0..4096)
        .map(|_| {
            let cycle = rng.gen_range(256) as i32;
            let mask = (u64::from(rng.next_u32()) << 32 | u64::from(rng.next_u32())) | 1;
            (cycle, mask)
        })
        .collect();
    Box::new(move |_| {
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
    })
}

/// The per-option check loop of the production checker under both
/// usage encodings, replaying a seeded probe stream against bundled
/// machines.  Work unit: one resource check.
fn checker_replay(source: &str, encoding: UsageEncoding, seed: u64) -> Iteration {
    let compiled = compile(source, encoding);
    let probes = probe_stream(seed, compiled.classes().len(), 2048);
    // Nothing is released, so one selection buffer serves every probe.
    let mut selected = Vec::new();
    Box::new(move |_| {
        let checker = Checker::new(&compiled);
        let mut ru = RuMap::new();
        let mut stats = CheckStats::new();
        for &(class, time) in &probes {
            selected.clear();
            checker.try_reserve_into(&mut ru, class, time, &mut stats, &mut selected);
        }
        stats.resource_checks
    })
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
/// whole tree, the checker's worst case for option probes.  Work unit:
/// one resource check.
fn wide_tree_checker() -> Iteration {
    const SLOTS: usize = 16;
    const ATTEMPTS: i32 = 1024;

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

    let mut selected = Vec::new();
    Box::new(move |_| {
        let checker = Checker::new(&compiled);
        let mut ru = RuMap::new();
        let mut stats = CheckStats::new();
        for t in 0..ATTEMPTS {
            ru.reserve(t, busy);
            selected.clear();
            checker.try_reserve_into(&mut ru, class, t, &mut stats, &mut selected);
        }
        stats.resource_checks
    })
}

/// The automaton checker walking a seeded class stream (greedy in-order
/// packing).  The automaton is built once, so every iteration after the
/// first walks cached transitions.  Work unit: one issued operation.
fn automaton_pack(seed: u64) -> Iteration {
    let compiled = compile(Machine::Pa7100.source(), UsageEncoding::BitVector);
    let mut rng = Pcg32::new(seed, 0x30);
    let classes: Vec<ClassId> = (0..512)
        .map(|_| ClassId::from_index(rng.gen_range(compiled.classes().len() as u32) as usize))
        .collect();
    let mut automaton = Automaton::new(Arc::new(compiled));
    Box::new(move |_| {
        automaton.pack_in_order(&classes);
        classes.len() as u64
    })
}

/// Full list scheduling of `mdes-workload` region streams.  Work unit:
/// one resource check.
fn list_scheduling(_machine: &str, source: &str, seed: u64) -> Iteration {
    let compiled = compile(source, UsageEncoding::BitVector);
    let blocks =
        generate_compiled_regions(&compiled, &RegionConfig::new(32).with_seed(seed)).blocks;
    Box::new(move |_| {
        let scheduler = ListScheduler::new(&compiled);
        let mut stats = CheckStats::new();
        for block in &blocks {
            scheduler.schedule(block, &mut stats);
        }
        stats.resource_checks
    })
}

/// Dependence-graph rebuilds over the `sched/list` region stream, each
/// region rebuilt in place in one reused graph, as the scheduler's
/// scratch does.  Work unit: one edge.
fn graph_rebuilds(_machine: &str, source: &str, seed: u64) -> Iteration {
    let compiled = compile(source, UsageEncoding::BitVector);
    let blocks =
        generate_compiled_regions(&compiled, &RegionConfig::new(32).with_seed(seed)).blocks;
    let mut graph = DepGraph::default();
    Box::new(move |_| {
        let mut edges = 0;
        for block in &blocks {
            graph.rebuild(block, &compiled);
            edges += graph.num_edges() as u64;
        }
        edges
    })
}

/// Region generation alone: `RegionGenerator::fill` of the `sched/list`
/// region stream, each region into one reused block, as a daemon worker
/// generates a request's regions.  Work unit: one generated operation.
fn region_generation(_machine: &str, source: &str, seed: u64) -> Iteration {
    let compiled = compile(source, UsageEncoding::BitVector);
    let stream = RegionConfig::new(32).with_seed(seed);
    let generator = RegionGenerator::new(&compiled, &stream);
    let mut block = Block::with_capacity(generator.max_ops());
    Box::new(move |_| {
        let mut ops = 0;
        for index in 0..stream.regions {
            generator.fill(index, black_box(&mut block));
            ops += block.len() as u64;
        }
        ops
    })
}

/// `Engine::schedule_batch` throughput at `jobs` workers over one shared
/// compiled description (the `engine/batch/w{1,2,4,8,16}` family).  Work
/// unit: one resource check (worker-count invariant by the engine's
/// determinism contract; wall-clock is where worker scaling shows, on
/// machines that have the cores for it).  `batch_scaling` divides the w1
/// sample's fastest repetition by the w4 sample's.
fn engine_batch(jobs: usize, seed: u64) -> Iteration {
    let compiled = Arc::new(compile(Machine::Pa7100.source(), UsageEncoding::BitVector));
    let blocks =
        generate_compiled_regions(&compiled, &RegionConfig::new(128).with_seed(seed)).blocks;
    let engine = Engine::new(compiled);
    Box::new(move |_| engine.schedule_batch(&blocks, jobs).stats.resource_checks)
}

/// A daemon serving one machine's build-time image on a Unix socket in
/// the temp directory; shut down and joined when dropped.
struct Daemon {
    path: PathBuf,
    handle: Option<mdes_serve::ServerHandle>,
}

impl Daemon {
    fn start(label: &str, machine: Machine, seed: u64, config: mdes_serve::ServeConfig) -> Daemon {
        let path =
            std::env::temp_dir().join(format!("mdes-perf-{label}-{}.sock", std::process::id()));
        let store = Arc::new(mdes_serve::ImageStore::new(
            mdes_serve::compile_machine(machine),
            machine.name(),
            seed,
        ));
        let handle = mdes_serve::serve(mdes_serve::BindAddr::Unix(path.clone()), store, config)
            .expect("daemon binds");
        Daemon {
            path,
            handle: Some(handle),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
            handle.join();
        }
    }
}

/// The `serve/load/<machine>` family: the full closed-loop v2 client
/// (pipelined connections, every reply re-verified against a locally
/// recomputed expectation) against a live daemon, one bench per served
/// machine.  Work unit: one verified answer — deterministic (the run is
/// clean or the bench panics), so count drift catches a request
/// silently going missing.  Each iteration folds its p50 and p99 into
/// the lowest seen so far, which `serve_p50_us` and `serve_p99_us` read
/// off the K5 bench.
fn serve_load(machine: Machine, seed: u64) -> Iteration {
    const REQUESTS: usize = 96;
    let label = format!("load-{}", machine.name().to_lowercase());
    let daemon = Daemon::start(
        &label,
        machine,
        seed,
        mdes_serve::ServeConfig {
            workers: 2,
            ..mdes_serve::ServeConfig::default()
        },
    );
    let options = mdes_serve::LoadOptions {
        addr: mdes_serve::BindAddr::Unix(daemon.path.clone()),
        connections: 2,
        requests: REQUESTS,
        params: mdes_serve::WorkParams {
            regions: 4,
            mean_ops: 8,
            seed,
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
    // The closure owns the daemon, which shuts down when it drops.
    let load = (options, daemon);
    Box::new(move |seen| {
        let (options, _) = &load;
        let report = mdes_serve::run_load(options).expect("load run");
        assert!(
            report.is_clean() && report.unverified == 0,
            "serve/load/{} run not clean: {:?}",
            machine.name(),
            report.errors
        );
        let (p50, p99) = seen.latency_us.unwrap_or((u64::MAX, u64::MAX));
        seen.latency_us = Some((p50.min(report.p50_us), p99.min(report.p99_us)));
        report.answered
    })
}

/// The `serve/boot/<machine>` family: what `mdesc serve` does for each
/// shard before it binds — load the build-time LMDES image
/// (`mdes_serve::compile_machine`) and open an image store over it,
/// which hashes the canonical image.  Work unit: one booted shard.
fn serve_boot(machine: Machine, seed: u64) -> Iteration {
    Box::new(move |_| {
        black_box(mdes_serve::ImageStore::new(
            mdes_serve::compile_machine(machine),
            machine.name(),
            seed,
        ));
        1
    })
}

/// One client connection round-tripping `schedule` requests through a
/// live daemon over a Unix socket: frame parse + admission queue +
/// engine + reply render per request.  Work unit: one answered request,
/// so the timing is the full serve path, not just the engine.
fn serve_roundtrip(seed: u64) -> Iteration {
    use std::io::{BufRead, BufReader, Write};

    const REQUESTS: u64 = 64;
    let daemon = Daemon::start(
        "serve",
        Machine::K5,
        seed,
        mdes_serve::ServeConfig::default(),
    );
    let stream = std::os::unix::net::UnixStream::connect(&daemon.path).expect("connect");
    // The closure owns the connection and the daemon; a tuple drops in
    // field order, so the connection closes before the daemon shuts down.
    let mut client = (BufReader::new(stream), daemon);
    Box::new(move |_| {
        let (reader, _) = &mut client;
        let mut line = String::new();
        for i in 0..REQUESTS {
            let request = format!(
                "{{\"id\": {i}, \"verb\": \"schedule\", \"regions\": 4, \"mean_ops\": 8, \
                 \"seed\": {}}}\n",
                seed.wrapping_add(i)
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
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Report;

    #[test]
    fn registry_names_hold_the_committed_baseline_in_order() {
        let baseline = Report::from_json(include_str!("../../../BENCH_8.json")).unwrap();
        assert_eq!(baseline.benches.len(), 43);
        let names: Vec<String> = registry().into_iter().map(|bench| bench.name).collect();
        let mut rest = names.iter();
        for sample in &baseline.benches {
            assert!(
                rest.any(|name| *name == sample.name),
                "`{}` is missing from the registry or out of BENCH_8.json's order",
                sample.name
            );
        }
    }
}
