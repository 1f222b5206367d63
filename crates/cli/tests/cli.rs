//! End-to-end tests of the `mdesc` binary: every command is exercised
//! against real files in a temporary directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn mdesc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mdesc"))
        .args(args)
        .output()
        .expect("mdesc runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// A test's own directory under the system temp dir, removed with
/// everything in it when the test ends, passed or failed.
struct TempDir(PathBuf);

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A unique temp dir per test.
fn temp_dir(tag: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("mdesc-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    TempDir(dir)
}

const DEMO: &str = "
    resource Dec[2];
    resource M;
    or_tree AnyDec = first_of(for d in 0..2: { Dec[d] @ -1 });
    or_tree UseM = first_of({ M @ 0 });
    and_or_tree Load = all_of(UseM, AnyDec);
    class load { constraint = Load; latency = 2; flags = load; }
    op LD, LDB = load;
";

#[test]
fn compile_produces_a_loadable_lmdes_image() {
    let dir = temp_dir("compile");
    let hmdl = dir.join("demo.hmdl");
    let lmdes = dir.join("demo.lmdes");
    std::fs::write(&hmdl, DEMO).unwrap();

    let out = mdesc(&[
        "compile",
        hmdl.to_str().unwrap(),
        "-o",
        lmdes.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("wrote"));

    let bytes = std::fs::read(&lmdes).unwrap();
    let loaded = mdes_core::lmdes::read(&bytes).unwrap();
    assert!(loaded.class_by_name("load").is_some());
}

#[test]
fn compile_default_output_path_replaces_extension() {
    let dir = temp_dir("defaultout");
    let hmdl = dir.join("machine.hmdl");
    std::fs::write(&hmdl, DEMO).unwrap();
    let out = mdesc(&["compile", hmdl.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(dir.join("machine.lmdes").exists());
}

#[test]
fn compile_reports_source_errors_with_context() {
    let dir = temp_dir("badsrc");
    let hmdl = dir.join("bad.hmdl");
    std::fs::write(&hmdl, "resource M;\nclass c { constraint = Ghost; }").unwrap();
    let out = mdesc(&["compile", hmdl.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown constraint tree"), "{err}");
    assert!(err.contains("line 2"), "{err}");
}

#[test]
fn dump_lists_classes_and_honours_class_filter() {
    let dir = temp_dir("dump");
    let hmdl = dir.join("demo.hmdl");
    std::fs::write(&hmdl, DEMO).unwrap();

    let out = mdesc(&["dump", hmdl.to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("load"));
    assert!(text.contains("LD LDB"));

    let out = mdesc(&["dump", hmdl.to_str().unwrap(), "--class", "load"]);
    assert!(stdout(&out).contains("AND/OR-tree Load"));

    let out = mdesc(&["dump", hmdl.to_str().unwrap(), "--class", "ghost"]);
    assert!(!out.status.success());
}

#[test]
fn dump_reads_lmdes_images_too() {
    let dir = temp_dir("dumplmdes");
    let hmdl = dir.join("demo.hmdl");
    let lmdes = dir.join("demo.lmdes");
    std::fs::write(&hmdl, DEMO).unwrap();
    assert!(mdesc(&[
        "compile",
        hmdl.to_str().unwrap(),
        "-o",
        lmdes.to_str().unwrap()
    ])
    .status
    .success());

    let out = mdesc(&["dump", lmdes.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("LMDES image"), "{text}");
    assert!(text.contains("load"));
}

#[test]
fn fmt_output_reparses_to_the_same_structure() {
    let dir = temp_dir("fmt");
    let hmdl = dir.join("demo.hmdl");
    std::fs::write(&hmdl, DEMO).unwrap();
    let out = mdesc(&["fmt", hmdl.to_str().unwrap()]);
    assert!(out.status.success());
    let formatted = stdout(&out);
    let original = mdes_lang::compile(DEMO).unwrap();
    let reparsed = mdes_lang::compile(&formatted).unwrap();
    assert!(mdes_lang::structurally_equal(&original, &reparsed));
}

#[test]
fn check_accepts_valid_and_rejects_invalid() {
    let dir = temp_dir("check");
    let good = dir.join("good.hmdl");
    std::fs::write(&good, DEMO).unwrap();
    assert!(mdesc(&["check", good.to_str().unwrap()]).status.success());

    let bad = dir.join("bad.hmdl");
    std::fs::write(&bad, "option x = { M @ 0 };").unwrap();
    assert!(!mdesc(&["check", bad.to_str().unwrap()]).status.success());
}

#[test]
fn stats_reports_every_stage() {
    let dir = temp_dir("stats");
    let hmdl = dir.join("demo.hmdl");
    std::fs::write(&hmdl, DEMO).unwrap();
    let out = mdesc(&["stats", hmdl.to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    for needle in [
        "as authored",
        "redundancy",
        "bit-vector",
        "usage-time shift",
        "factoring",
        "OR-tree baseline",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
}

#[test]
fn bundled_prints_machine_sources() {
    let out = mdesc(&["bundled", "supersparc"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("resource Decoder[3];"));

    // Every bundled description, by its name in any case.
    for (name, source) in mdes_machines::bundled_sources() {
        let out = mdesc(&["bundled", &name.to_uppercase()]);
        assert!(out.status.success(), "{name}: {}", stderr(&out));
        assert_eq!(stdout(&out), source, "{name}");
    }

    // The commands that take a bundled name refuse an unknown one alike.
    let refusal =
        "unknown machine `nonesuch` (pa7100, pentium, supersparc, k5, pentiumpro, superspark_approx)";
    for args in [
        &["bundled", "nonesuch"][..],
        &["lint", "--machine", "nonesuch"],
        &["oracle", "--machine", "nonesuch"],
    ] {
        let out = mdesc(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(stderr(&out).contains(refusal), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn bundled_sources_compile_through_the_cli() {
    let dir = temp_dir("bundledcompile");
    for name in ["PA7100", "Pentium", "SuperSPARC", "K5"] {
        let out = mdesc(&["bundled", name]);
        assert!(out.status.success());
        let path = dir.join(format!("{name}.hmdl"));
        std::fs::write(&path, stdout(&out)).unwrap();
        let out = mdesc(&["compile", path.to_str().unwrap()]);
        assert!(out.status.success(), "{name}: {}", stderr(&out));
    }
}

#[test]
fn schedule_reports_efficiency_statistics() {
    let dir = temp_dir("schedule");
    let hmdl = dir.join("demo.hmdl");
    std::fs::write(&hmdl, DEMO).unwrap();
    let out = mdesc(&["schedule", hmdl.to_str().unwrap(), "--ops", "400"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("attempts/op"), "{text}");
    assert!(text.contains("checks/attempt"));
}

#[test]
fn dot_exports_graphviz() {
    let dir = temp_dir("dot");
    let hmdl = dir.join("demo.hmdl");
    std::fs::write(&hmdl, DEMO).unwrap();
    let out = mdesc(&["dot", hmdl.to_str().unwrap(), "--class", "load"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.starts_with("digraph"));
    assert!(text.contains("M@0"));
    assert!(!mdesc(&["dot", hmdl.to_str().unwrap()]).status.success());
}

#[test]
fn lint_reports_diagnostics_with_spans_and_keeps_warns_nonfatal() {
    let dir = temp_dir("lint");
    let messy = dir.join("messy.hmdl");
    std::fs::write(
        &messy,
        "resource D[2];
         or_tree T = first_of({ D[0] @ 0 }, { D[0] @ 0 });
         class alu { constraint = T; }",
    )
    .unwrap();
    // Dominated/duplicate options are warnings: reported, exit 0.
    let out = mdesc(&["lint", messy.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("MD002"), "{text}");
    assert!(text.contains("warn"), "{text}");
    assert!(text.contains("lint: 1 machine(s)"), "{text}");

    let clean = dir.join("clean.hmdl");
    std::fs::write(
        &clean,
        "resource M;
         or_tree T = first_of({ M @ 0 });
         class mem { constraint = T; }
         op LD = mem;",
    )
    .unwrap();
    let out = mdesc(&["lint", clean.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("0 diagnostic(s) (0 fatal, 0 warn, 0 info)"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn lint_exits_with_the_validation_code_on_fatal_diagnostics() {
    let dir = temp_dir("lintfatal");
    let unsat = dir.join("unsat.hmdl");
    std::fs::write(
        &unsat,
        "resource ALU;
         or_tree A = first_of({ ALU @ 0 });
         or_tree B = first_of({ ALU @ 0 });
         and_or_tree Both = all_of(A, B);
         class stuck { constraint = Both; }",
    )
    .unwrap();
    let out = mdesc(&["lint", unsat.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("MD001"), "{text}");
    assert!(text.contains("fatal"), "{text}");
    // Span-anchored to the class declaration in the source.
    assert!(text.contains("unsat.hmdl:5:"), "{text}");
}

#[test]
fn lint_covers_bundled_machines_and_emits_json() {
    let out = mdesc(&["lint", "--machine", "all"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("lint: 6 machine(s)"), "{text}");
    assert!(text.contains("0 fatal"), "{text}");

    let json = mdesc(&["lint", "--machine", "all", "--json"]);
    assert!(json.status.success(), "{}", stderr(&json));
    let body = stdout(&json);
    assert!(body.starts_with("[\n"), "{body}");
    assert!(body.trim_end().ends_with(']'), "{body}");
    // Under --json the summary moves to stderr, keeping stdout parseable.
    assert!(
        stderr(&json).contains("lint: 6 machine(s)"),
        "{}",
        stderr(&json)
    );

    assert!(!mdesc(&["lint", "--machine", "nosuch"]).status.success());

    // A bundled name resolves in any case.
    let lower = mdesc(&["lint", "--machine", "pa7100"]);
    let upper = mdesc(&["lint", "--machine", "PA7100"]);
    assert!(upper.status.success(), "{}", stderr(&upper));
    assert!(
        stdout(&upper).contains("lint: 1 machine(s)"),
        "{}",
        stdout(&upper)
    );
    assert_eq!(stdout(&upper), stdout(&lower));
}

#[test]
fn lint_defect_fleets_report_full_recall_and_gate() {
    let out = mdesc(&["lint", "--fleet", "4", "--seed", "42", "--defects"]);
    // Planted unsatisfiable classes are fatal, so the run gates.
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("lint: recall 8/8 planted defect(s) reported"),
        "{text}"
    );

    // Identical invocations are byte-identical.
    let again = mdesc(&["lint", "--fleet", "4", "--seed", "42", "--defects"]);
    assert_eq!(stdout(&out), stdout(&again));

    // --defects without a fleet is a usage error.
    assert!(!mdesc(&["lint", "--defects"]).status.success());
}

#[test]
fn diff_shows_revision_changes() {
    let dir = temp_dir("diff");
    let old = dir.join("old.hmdl");
    let new = dir.join("new.hmdl");
    std::fs::write(&old, DEMO).unwrap();
    std::fs::write(
        &new,
        format!("{DEMO}\nclass alu {{ constraint = AnyDec; }}\nop ADD = alu;"),
    )
    .unwrap();
    let out = mdesc(&["diff", old.to_str().unwrap(), new.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("+ class alu"), "{text}");
    assert!(text.contains("+ op ADD"), "{text}");

    let out = mdesc(&["diff", old.to_str().unwrap(), old.to_str().unwrap()]);
    assert!(stdout(&out).contains("no structural differences"));
}

#[test]
fn chart_renders_occupancy_for_a_block() {
    let dir = temp_dir("chart");
    let hmdl = dir.join("demo.hmdl");
    std::fs::write(&hmdl, DEMO).unwrap();
    let out = mdesc(&["chart", hmdl.to_str().unwrap(), "--ops", "12"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("cycle |"), "{text}");
    assert!(text.contains("% busy"), "{text}");
}

/// Path to a bundled HMDL source in the repo checkout.
fn machine_hmdl(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../machines/hmdl")
        .join(name)
}

#[test]
fn metrics_json_contains_one_span_per_pipeline_stage_for_pa7100() {
    let dir = temp_dir("metrics");
    let json_path = dir.join("pa7100-metrics.json");
    let hmdl = machine_hmdl("pa7100.hmdl");

    // The acceptance-criteria invocation, via the `mdes` bin alias.
    let out = Command::new(env!("CARGO_BIN_EXE_mdes"))
        .args([
            "--metrics",
            json_path.to_str().unwrap(),
            "optimize",
            hmdl.to_str().unwrap(),
            "--ops",
            "400",
        ])
        .output()
        .expect("mdes runs");
    assert!(out.status.success(), "{}", stderr(&out));

    let text = std::fs::read_to_string(&json_path).unwrap();
    let report = mdes_telemetry::Report::from_json(&text).expect("valid metrics JSON");

    // One span per pipeline stage, each entered exactly once, plus the
    // front-end, compiler, and scheduler phases.
    for path in [
        "lang/parse",
        "lang/elaborate",
        "pipeline/redundancy",
        "pipeline/dominance",
        "pipeline/shifting",
        "pipeline/sortzero",
        "pipeline/treesort",
        "pipeline/factor",
        "compile/validate",
        "compile/packing",
        "compile/classes",
        "sched/list",
    ] {
        let span = report
            .span(path)
            .unwrap_or_else(|| panic!("missing span `{path}`"));
        assert_eq!(span.count, 1, "span `{path}` entered more than once");
    }
    assert!(report.wall_nanos > 0, "wall clock missing");

    // Scheduler query counters are present and self-consistent with the
    // CheckStats accounting (every attempt checks at least one option,
    // every option at least one probe).
    let attempts = report.counter("sched/list/attempts").unwrap();
    let options = report.counter("sched/list/options_checked").unwrap();
    let checks = report.counter("sched/list/resource_checks").unwrap();
    let operations = report.counter("sched/list/operations").unwrap();
    assert_eq!(operations, 400);
    assert!(attempts >= operations);
    assert!(options >= attempts);
    assert!(checks >= options);

    // Before/after gauges record the pipeline's net effect.
    let before = report.gauge("pipeline/options/before").unwrap();
    let after = report.gauge("pipeline/options/after").unwrap();
    assert!(after <= before);
}

#[test]
fn metrics_summary_prints_a_table_to_stderr() {
    let dir = temp_dir("metricssum");
    let hmdl = dir.join("demo.hmdl");
    std::fs::write(&hmdl, DEMO).unwrap();
    let out = mdesc(&[
        "--metrics-summary",
        "optimize",
        hmdl.to_str().unwrap(),
        "--ops",
        "100",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("telemetry report"), "{err}");
    assert!(err.contains("redundancy"), "{err}");
    assert!(err.contains("sched/list/attempts"), "{err}");
}

#[test]
fn metrics_flags_are_global_and_off_by_default() {
    let dir = temp_dir("metricsoff");
    let hmdl = dir.join("demo.hmdl");
    std::fs::write(&hmdl, DEMO).unwrap();
    // No flags: no telemetry output on stderr.
    let out = mdesc(&["optimize", hmdl.to_str().unwrap(), "--ops", "50"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(!stderr(&out).contains("telemetry report"));
    // Flag after the subcommand works too.
    let json_path = dir.join("late-flag.json");
    let out = mdesc(&[
        "compile",
        hmdl.to_str().unwrap(),
        "--metrics",
        json_path.to_str().unwrap(),
        "-o",
        dir.join("demo.lmdes").to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let report =
        mdes_telemetry::Report::from_json(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
    assert!(report.span("pipeline/redundancy").is_some());
}

/// A command that records nothing writes neither a metrics file nor a
/// summary table.
#[test]
fn an_empty_report_reaches_neither_sink() {
    let dir = temp_dir("metricsempty");
    let hmdl = dir.join("demo.hmdl");
    std::fs::write(&hmdl, DEMO).unwrap();
    let json_path = dir.join("fmt.json");
    for args in [
        vec!["--metrics-summary", "fmt", hmdl.to_str().unwrap()],
        vec!["--metrics-summary", "figures", "fig1"],
        vec![
            "--metrics",
            json_path.to_str().unwrap(),
            "fmt",
            hmdl.to_str().unwrap(),
        ],
    ] {
        let out = mdesc(&args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        assert!(!stdout(&out).is_empty(), "{args:?}");
        assert_eq!(stderr(&out), "", "{args:?}");
    }
    assert!(!json_path.exists());
}

/// The committed paper result `name` under `results/`.
fn committed_result(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    std::fs::read_to_string(&path).unwrap()
}

/// The static tables and figures print exactly their slice of the
/// committed results, and `--metrics` on `tables` records the full
/// pipeline on every machine.
#[test]
fn tables_and_figures_print_slices_of_the_committed_results() {
    for (args, committed) in [
        (["tables", "t6", "t7"], "tables.txt"),
        (["figures", "fig3", "fig4"], "figures.txt"),
    ] {
        let out = mdesc(&args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.len() > 100, "{args:?}: {text}");
        assert!(
            committed_result(committed).contains(&text),
            "{args:?} is not a slice of results/{committed}:\n{text}"
        );
    }

    let dir = temp_dir("tablesmetrics");
    let json_path = dir.join("m.json");
    let out = mdesc(&[
        "--metrics",
        json_path.to_str().unwrap(),
        "tables",
        "t6",
        "--ops",
        "500",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let report =
        mdes_telemetry::Report::from_json(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
    assert!(report.span("PA7100/pipeline/redundancy").is_some());
    assert!(report
        .counter("K5/sched/list/attempts")
        .is_some_and(|n| n > 0));
}

#[test]
fn unknown_command_and_missing_args_fail_cleanly() {
    assert!(!mdesc(&["frobnicate"]).status.success());
    assert!(!mdesc(&[]).status.success());
    assert!(!mdesc(&["compile"]).status.success());
    let help = mdesc(&["--help"]);
    assert!(help.status.success());
    assert!(stdout(&help).contains("usage: mdesc"));
}

/// A description with enough structure for every fault-injection class
/// to find an observable site (mirrors the guard crate's test fixture).
const GUARDABLE: &str = "
    resource Dec[2];
    resource Bus;
    resource Port;
    or_tree AnyDec = first_of(
        { Dec[0] @ 0, Port @ 1 },
        { Dec[1] @ 0, Bus @ 1 });
    or_tree BusT  = first_of({ Bus @ 0 });
    or_tree PortT = first_of({ Port @ 0 });
    class alu     { constraint = AnyDec; latency = 1; }
    class bus_op  { constraint = BusT;   latency = 1; }
    class port_op { constraint = PortT;  latency = 2; }
";

#[test]
fn parse_errors_exit_2_with_every_diagnostic_on_stderr() {
    let dir = temp_dir("exit2");
    let hmdl = dir.join("bad.hmdl");
    // Two independent syntax errors: recovery must surface both in one
    // run, on stderr, with nothing on stdout.
    std::fs::write(&hmdl, "resource M\nclass c { constraint = ; }\nop = mem;").unwrap();
    let out = mdesc(&["check", hmdl.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
    let err = stderr(&out);
    assert!(err.contains("expected"), "{err}");
    // More than one diagnostic rendered from the single invocation.
    assert!(err.matches("line ").count() >= 2, "{err}");
}

#[test]
fn elaboration_errors_exit_2() {
    let dir = temp_dir("exit2sem");
    let hmdl = dir.join("bad.hmdl");
    std::fs::write(&hmdl, "resource M;\nclass c { constraint = Ghost; }").unwrap();
    let out = mdesc(&["compile", hmdl.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
}

#[test]
fn usage_errors_exit_1() {
    assert_eq!(mdesc(&["frobnicate"]).status.code(), Some(1));
    assert_eq!(mdesc(&[]).status.code(), Some(1));
    let dir = temp_dir("exit1");
    let hmdl = dir.join("demo.hmdl");
    std::fs::write(&hmdl, DEMO).unwrap();
    let out = mdesc(&["verify", hmdl.to_str().unwrap(), "--inject", "nonsense"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let out = mdesc(&[
        "verify",
        hmdl.to_str().unwrap(),
        "--inject",
        "redundancy:nonsense",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("drop-usage"), "{}", stderr(&out));
}

#[test]
fn verify_clean_run_exits_0_and_reports_on_stdout() {
    let dir = temp_dir("verifyclean");
    let hmdl = dir.join("demo.hmdl");
    std::fs::write(&hmdl, GUARDABLE).unwrap();
    let out = mdesc(&["verify", hmdl.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("guard clean"), "{text}");
    assert!(text.contains("oracle mode"), "{text}");
}

#[test]
fn verify_runs_a_branch_only_description_clean() {
    // No non-branch class means no region sample: the guard checks the
    // description with its probes alone, and must not panic.
    let dir = temp_dir("verifybranch");
    let hmdl = dir.join("branch.hmdl");
    std::fs::write(
        &hmdl,
        "resource BR;
         or_tree B = first_of({ BR @ 0 });
         class br { constraint = B; latency = 1; flags = branch; }",
    )
    .unwrap();
    let out = mdesc(&["verify", hmdl.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("guard clean"), "{}", stdout(&out));
}

#[test]
fn injected_oracle_fault_exits_4_with_the_incident_on_stderr() {
    let dir = temp_dir("exit4");
    let hmdl = dir.join("demo.hmdl");
    std::fs::write(&hmdl, GUARDABLE).unwrap();
    let out = mdesc(&[
        "verify",
        hmdl.to_str().unwrap(),
        "--seed",
        "1234",
        "--inject",
        "redundancy:drop-usage",
    ]);
    assert_eq!(out.status.code(), Some(4), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("injected: redundancy"), "{err}");
    assert!(err.contains("guard:"), "{err}");
    assert!(err.contains("seed 1234"), "{err}");
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
}

#[test]
fn injected_structural_fault_exits_3_under_validate_mode() {
    let dir = temp_dir("exit3");
    let hmdl = dir.join("demo.hmdl");
    std::fs::write(&hmdl, GUARDABLE).unwrap();
    let out = mdesc(&[
        "verify",
        hmdl.to_str().unwrap(),
        "--guard",
        "validate",
        "--inject",
        "dominance:clear-usages",
    ]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(stderr(&out).contains("validation"), "{}", stderr(&out));
}

#[test]
fn guarded_compile_is_byte_identical_to_unguarded() {
    // The acceptance criterion: `--guard oracle` on a bundled machine
    // reports zero incidents and the output image is byte-for-byte the
    // same as a guard-off run.
    let dir = temp_dir("guardid");
    let hmdl = machine_hmdl("pa7100.hmdl");
    let plain = dir.join("plain.lmdes");
    let guarded = dir.join("guarded.lmdes");
    let out = mdesc(&[
        "compile",
        hmdl.to_str().unwrap(),
        "-o",
        plain.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = mdesc(&[
        "compile",
        hmdl.to_str().unwrap(),
        "--guard",
        "oracle",
        "-o",
        guarded.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(
        std::fs::read(&plain).unwrap(),
        std::fs::read(&guarded).unwrap(),
        "guarded output differs from unguarded"
    );
}

#[test]
fn expand_or_flag_produces_the_traditional_baseline() {
    let dir = temp_dir("expandor");
    let hmdl = dir.join("demo.hmdl");
    std::fs::write(&hmdl, DEMO).unwrap();
    let expanded = dir.join("expanded.lmdes");
    let normal = dir.join("normal.lmdes");
    assert!(mdesc(&[
        "compile",
        hmdl.to_str().unwrap(),
        "--expand-or",
        "--no-optimize",
        "-o",
        expanded.to_str().unwrap()
    ])
    .status
    .success());
    assert!(mdesc(&[
        "compile",
        hmdl.to_str().unwrap(),
        "--no-optimize",
        "-o",
        normal.to_str().unwrap()
    ])
    .status
    .success());
    let expanded = mdes_core::lmdes::read(&std::fs::read(expanded).unwrap()).unwrap();
    let normal = mdes_core::lmdes::read(&std::fs::read(normal).unwrap()).unwrap();
    // Expanded: one 2-option tree of full tables; AND/OR: two trees.
    let load_exp = expanded.class_by_name("load").unwrap();
    let load_nrm = normal.class_by_name("load").unwrap();
    assert_eq!(expanded.class_trees(load_exp).len(), 1);
    assert_eq!(normal.class_trees(load_nrm).len(), 2);
}

#[test]
fn bench_serve_reports_workers_and_publishes_engine_metrics() {
    let dir = temp_dir("benchserve");
    let json_path = dir.join("serve-metrics.json");
    let out = mdesc(&[
        "--metrics",
        json_path.to_str().unwrap(),
        "bench-serve",
        "--jobs",
        "2",
        "--regions",
        "64",
        "--seed",
        "7",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("PA7100: served 64 regions"), "{text}");
    assert!(text.contains("worker0:"), "{text}");
    assert!(text.contains("worker1:"), "{text}");

    let json = std::fs::read_to_string(&json_path).unwrap();
    // The panic counter is always published — zero when clean — so CI can
    // grep for it without parsing.
    assert!(json.contains("\"engine/worker_panics\":0"), "{json}");
    let report = mdes_telemetry::Report::from_json(&json).unwrap();
    assert_eq!(report.counter("engine/jobs_completed"), Some(64));
    assert_eq!(report.gauge("engine/workers"), Some(2.0));
    assert!(report.gauge("engine/jobs_per_sec").unwrap() > 0.0);
    for worker in 0..2 {
        assert!(
            report
                .span(&format!("engine/worker{worker}/busy"))
                .is_some(),
            "missing busy span for worker{worker}:\n{json}"
        );
        assert!(report
            .counter(&format!("engine/worker{worker}/jobs"))
            .is_some());
    }
    // The folded scheduler counters mirror the per-worker split exactly.
    let folded = report.counter("engine/sched/resource_checks").unwrap();
    let split: u64 = (0..2)
        .map(|w| {
            report
                .counter(&format!("engine/worker{w}/resource_checks"))
                .unwrap()
        })
        .sum();
    assert_eq!(folded, split);
}

#[test]
fn bench_serve_rejects_bad_flags() {
    assert!(!mdesc(&["bench-serve", "--jobs", "0"]).status.success());
    assert!(!mdesc(&["bench-serve", "--machine", "PDP11"])
        .status
        .success());
    assert!(!mdesc(&["bench-serve", "--frobnicate"]).status.success());
}

#[test]
fn optimize_jobs_flag_is_deterministic_at_the_cli_level() {
    let hmdl = machine_hmdl("superspark.hmdl");
    let one = mdesc(&[
        "optimize",
        hmdl.to_str().unwrap(),
        "--ops",
        "400",
        "--jobs",
        "1",
    ]);
    let eight = mdesc(&[
        "optimize",
        hmdl.to_str().unwrap(),
        "--ops",
        "400",
        "--jobs",
        "8",
    ]);
    let serial = mdesc(&["optimize", hmdl.to_str().unwrap(), "--ops", "400"]);
    assert!(one.status.success(), "{}", stderr(&one));
    assert!(eight.status.success(), "{}", stderr(&eight));
    assert!(serial.status.success(), "{}", stderr(&serial));
    // Same seed, any worker count, and the serial path: identical stdout
    // (op counts, cycles, attempts/op, checks/attempt all match).
    assert_eq!(stdout(&one), stdout(&eight));
    assert_eq!(stdout(&one), stdout(&serial));
}

/// The flag contract of every command, pinned: each row is an argument
/// list (split on spaces) and the exact `error:` line it prints on
/// stderr; every row exits 1, the usage code, with nothing on stdout.
/// Every row fails while its arguments are read, before any input is
/// opened, so no row starts a daemon, connects to one or runs the perf
/// suite.  `bench-serve` and `serve-load` read the shared bench flags
/// before anything else, so a bad shared flag wins over an earlier
/// unknown or bad flag of the command's own.
#[test]
fn flag_errors_keep_their_exit_codes_and_messages() {
    const STRICT: &str = "unknown guard mode `strict` (expected off, validate or oracle)";
    const VAX: &str = "unknown machine `vax` (PA7100, Pentium, SuperSPARC, K5)";
    const TABLES: &str = "unknown table `t99` (one of: all, t1, t2, t3, t4, t5, t6, t7, \
        t8, t9, t10, t11, t12, t13, t14, t15, ablation-fsa, ablation-ed, ablation-accuracy, \
        ablation-backward, ablation-opsched, ablation-ilp, ablation-nextgen)";
    const FIGURES: &str =
        "unknown figure `fig9` (one of: all, fig1, fig2, fig3, fig4, fig5, fig6, fig2-csv)";
    let rows: &[(&str, &str)] = &[
        // Global flags, stripped from anywhere in the argument list.
        ("--metrics", "--metrics requires a path"),
        ("check in.hmdl --metrics", "--metrics requires a path"),
        // compile
        ("compile", "compile needs an input .hmdl file"),
        ("compile in.hmdl -o", "-o requires a path"),
        (
            "compile --guard",
            "--guard requires off, validate or oracle",
        ),
        ("compile --guard strict", STRICT),
        ("compile --encoding", "bad --encoding None"),
        ("compile --encoding dense", "bad --encoding Some(\"dense\")"),
        ("compile --direction", "bad --direction None"),
        ("compile --direction up", "bad --direction Some(\"up\")"),
        ("compile in.hmdl --bogus", "unexpected argument `--bogus`"),
        (
            "compile in.hmdl other.hmdl",
            "unexpected argument `other.hmdl`",
        ),
        // optimize
        ("optimize", "optimize needs an input .hmdl file"),
        ("optimize in.hmdl -o", "-o requires a path"),
        (
            "optimize --guard",
            "--guard requires off, validate or oracle",
        ),
        ("optimize --ops", "--ops requires a positive integer"),
        ("optimize --ops many", "--ops requires a positive integer"),
        ("optimize --jobs", "--jobs requires a positive integer"),
        ("optimize --jobs x", "--jobs requires a positive integer"),
        ("optimize --jobs 0", "--jobs requires a positive integer"),
        ("optimize --encoding", "bad --encoding None"),
        ("optimize --direction up", "bad --direction Some(\"up\")"),
        ("optimize in.hmdl --bogus", "unexpected argument `--bogus`"),
        // verify
        ("verify", "verify needs an input .hmdl file"),
        ("verify --guard", "--guard requires validate or oracle"),
        ("verify --guard strict", STRICT),
        (
            "verify in.hmdl --guard off",
            "verify needs --guard validate or --guard oracle",
        ),
        ("verify --seed", "--seed requires an integer"),
        ("verify --seed x", "--seed requires an integer"),
        ("verify --inject", "--inject requires <stage>:<fault>"),
        (
            "verify --inject nonsense",
            "--inject wants <stage>:<fault>, got `nonsense`",
        ),
        ("verify in.hmdl --bogus", "unexpected argument `--bogus`"),
        // dump
        ("dump", "dump needs an input file"),
        ("dump in.hmdl --class", "--class requires a name"),
        ("dump in.hmdl --bogus", "unexpected argument `--bogus`"),
        // stats, fmt, check, bundled, diff
        ("stats", "stats needs an input .hmdl file"),
        ("fmt", "fmt needs an input .hmdl file"),
        ("check", "check needs an input .hmdl file"),
        ("bundled", "bundled needs a machine name"),
        ("diff old.hmdl", "diff needs exactly two .hmdl files"),
        // bench-serve: the shared bench flags, and none of its own.
        ("bench-serve --machine", "--machine requires a name"),
        ("bench-serve --machine vax", VAX),
        ("bench-serve --jobs", "--jobs requires a positive integer"),
        ("bench-serve --jobs 0", "--jobs requires a positive integer"),
        (
            "bench-serve --regions 0",
            "--regions requires a positive integer",
        ),
        (
            "bench-serve --regions x",
            "--regions requires a positive integer",
        ),
        (
            "bench-serve --mean-ops",
            "--mean-ops requires a positive integer",
        ),
        (
            "bench-serve --mean-ops 0",
            "--mean-ops requires a positive integer",
        ),
        ("bench-serve --seed", "--seed requires an integer"),
        ("bench-serve --seed x", "--seed requires an integer"),
        ("bench-serve --bogus", "unexpected argument `--bogus`"),
        (
            "bench-serve --bogus --jobs 0",
            "--jobs requires a positive integer",
        ),
        // serve
        ("serve --machine", "--machine requires a name"),
        ("serve --machine vax", VAX),
        ("serve --machine ,", "--machine requires at least one name"),
        ("serve --machine k5,k5", "machine `k5` listed twice"),
        ("serve --socket", "--socket requires a path"),
        ("serve --tcp", "--tcp requires an address"),
        ("serve --workers", "--workers requires a positive integer"),
        ("serve --workers 0", "--workers requires a positive integer"),
        ("serve --workers x", "--workers requires a positive integer"),
        ("serve --queue 0", "--queue requires a positive integer"),
        (
            "serve --read-timeout-ms 0",
            "--read-timeout-ms requires a positive integer",
        ),
        (
            "serve --read-timeout-ms x",
            "--read-timeout-ms requires a positive integer",
        ),
        (
            "serve --deadline-ms",
            "--deadline-ms requires a positive integer",
        ),
        (
            "serve --deadline-ms 0",
            "--deadline-ms requires a positive integer",
        ),
        ("serve --seed x", "--seed requires an integer"),
        ("serve --bogus", "unexpected argument `--bogus`"),
        ("serve a.hmdl b.hmdl", "unexpected argument `b.hmdl`"),
        (
            "serve --machine k5 in.hmdl",
            "serve takes either --machine or an input file, not both",
        ),
        // serve-load: the shared bench flags first, then its own.
        ("serve-load --machine vax", VAX),
        (
            "serve-load --regions 0",
            "--regions requires a positive integer",
        ),
        ("serve-load --jobs", "--jobs requires a positive integer"),
        (
            "serve-load --jobs 2 --requests 3",
            "serve-load needs --socket <path> or --tcp <addr>",
        ),
        (
            "serve-load --requests 0 --jobs 0",
            "--jobs requires a positive integer",
        ),
        ("serve-load --socket", "--socket requires a path"),
        (
            "serve-load --socket --machine k5",
            "--socket requires a path",
        ),
        ("serve-load --tcp", "--tcp requires an address"),
        (
            "serve-load --requests",
            "--requests requires a positive integer",
        ),
        (
            "serve-load --requests 0",
            "--requests requires a positive integer",
        ),
        (
            "serve-load --connections 0",
            "--connections requires a positive integer",
        ),
        (
            "serve-load --pipeline 0",
            "--pipeline requires a positive integer",
        ),
        (
            "serve-load --pipeline x",
            "--pipeline requires a positive integer",
        ),
        (
            "serve-load --machines",
            "--machines requires a,b,c or `all`",
        ),
        ("serve-load --machines vax", VAX),
        (
            "serve-load --machines ,",
            "--machines requires at least one name",
        ),
        (
            "serve-load --deadline-ms 0",
            "--deadline-ms requires a positive integer",
        ),
        (
            "serve-load --max-retries 0",
            "--max-retries requires a positive integer",
        ),
        (
            "serve-load --reload-at",
            "--reload-at requires <index>:<path>",
        ),
        (
            "serve-load --reload-at x",
            "reload event wants <index>[@<machine>]:<path>, got `x`",
        ),
        ("serve-load --reload-at a:x", "bad reload index in `a:x`"),
        ("serve-load --reload-at 0@vax:x", VAX),
        (
            "serve-load --reload-corrupt-at",
            "--reload-corrupt-at requires <index>:<path>",
        ),
        ("serve-load --bogus", "unexpected argument `--bogus`"),
        // perf
        ("perf --seed", "--seed requires an integer"),
        ("perf --scale", "--scale requires a positive number"),
        ("perf --scale 0", "--scale requires a positive number"),
        ("perf --scale x", "--scale requires a positive number"),
        ("perf --filter", "--filter requires a substring"),
        ("perf --reps", "--reps requires a positive integer"),
        ("perf --reps 0", "--reps requires a positive integer"),
        ("perf --json", "--json requires a path"),
        ("perf --baseline", "--baseline requires a path"),
        (
            "perf --max-regression",
            "--max-regression requires a non-negative number",
        ),
        (
            "perf --max-regression -1",
            "--max-regression requires a non-negative number",
        ),
        (
            "perf --max-regression x",
            "--max-regression requires a non-negative number",
        ),
        ("perf --bogus", "unexpected argument `--bogus`"),
        // oracle
        ("oracle --seed x", "--seed requires an integer"),
        ("oracle --regions", "--regions requires a positive integer"),
        (
            "oracle --regions 0",
            "--regions requires a positive integer",
        ),
        (
            "oracle --max-ops 0",
            "--max-ops requires a positive integer",
        ),
        (
            "oracle --max-ops x",
            "--max-ops requires a positive integer",
        ),
        (
            "oracle --node-limit",
            "--node-limit requires a positive integer",
        ),
        (
            "oracle --node-limit 0",
            "--node-limit requires a positive integer",
        ),
        ("oracle --machine", "--machine requires a name"),
        ("oracle --fleet", "--fleet requires a positive integer"),
        ("oracle --fleet 0", "--fleet requires a positive integer"),
        ("oracle --fleet x", "--fleet requires a positive integer"),
        (
            "oracle --machine k5 --fleet 2",
            "oracle takes either --machine or --fleet, not both",
        ),
        ("oracle --bogus", "unexpected argument `--bogus`"),
        // schedule
        ("schedule", "schedule needs an input .hmdl file"),
        ("schedule --ops", "--ops requires a positive integer"),
        ("schedule --ops x", "--ops requires a positive integer"),
        ("schedule in.hmdl --bogus", "unexpected argument `--bogus`"),
        // dot
        ("dot", "dot needs an input .hmdl file"),
        ("dot in.hmdl", "dot needs --class NAME"),
        ("dot in.hmdl --class", "--class requires a name"),
        ("dot in.hmdl --bogus", "unexpected argument `--bogus`"),
        // lint
        (
            "lint",
            "lint needs an input .hmdl file, --machine NAME|all, or --fleet N",
        ),
        ("lint --machine", "--machine requires a name (or `all`)"),
        ("lint --fleet", "--fleet requires a positive integer"),
        ("lint --fleet x", "--fleet requires a positive integer"),
        ("lint --seed", "--seed requires an integer"),
        (
            "lint --defects",
            "--defects needs --fleet N (defects are planted into fleet machines)",
        ),
        ("lint --bogus", "unexpected argument `--bogus`"),
        // chart
        ("chart", "chart needs an input .hmdl file"),
        ("chart --ops", "--ops requires a positive integer"),
        ("chart --ops x", "--ops requires a positive integer"),
        ("chart in.hmdl --bogus", "unexpected argument `--bogus`"),
        // tables, figures
        ("tables --ops", "--ops requires a positive integer"),
        ("tables --ops 0", "--ops requires a positive integer"),
        ("tables --ops x", "--ops requires a positive integer"),
        ("tables t99", TABLES),
        ("tables t5 t99", TABLES),
        ("tables --bogus", "unexpected argument `--bogus`"),
        ("figures --ops 0", "--ops requires a positive integer"),
        ("figures fig9", FIGURES),
    ];
    for &(args, message) in rows {
        let out = mdesc(&args.split(' ').collect::<Vec<_>>());
        assert_eq!(out.status.code(), Some(1), "{args}: {}", stderr(&out));
        assert_eq!(stderr(&out), format!("error: {message}\n"), "{args}");
        assert!(stdout(&out).is_empty(), "{args}: {}", stdout(&out));
    }
}

/// Runs each `(args, error)` row against a real description written to
/// `IN`: every row must exit 1 with exactly that `error:` line.
fn assert_rows_fail(tag: &str, rows: &[(&str, &str)]) {
    let dir = temp_dir(tag);
    let hmdl = dir.join("demo.hmdl");
    std::fs::write(&hmdl, DEMO).unwrap();
    let input = hmdl.to_str().unwrap();
    for &(args, message) in rows {
        let args: Vec<&str> = args
            .split(' ')
            .map(|a| if a == "IN" { input } else { a })
            .collect();
        let out = mdesc(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        assert_eq!(stderr(&out), format!("error: {message}\n"), "{args:?}");
        assert!(stdout(&out).is_empty(), "{args:?}: {}", stdout(&out));
    }
}

#[test]
fn count_flags_that_promise_a_positive_integer_reject_zero() {
    assert_rows_fail(
        "zerocounts",
        &[
            ("optimize IN --ops 0", "--ops requires a positive integer"),
            ("schedule IN --ops 0", "--ops requires a positive integer"),
            ("chart IN --ops 0", "--ops requires a positive integer"),
            ("lint --fleet 0", "--fleet requires a positive integer"),
        ],
    );
}

/// A token starting with `-` is never a command's input, and a token
/// no flag or input claims is an unexpected argument.
#[test]
fn stray_arguments_are_unexpected_on_every_command() {
    assert_rows_fail(
        "stray",
        &[
            ("check IN --bogus", "unexpected argument `--bogus`"),
            ("check --bogus IN", "unexpected argument `--bogus`"),
            ("fmt IN extra", "unexpected argument `extra`"),
            ("stats IN --bogus", "unexpected argument `--bogus`"),
            ("bundled k5 extra", "unexpected argument `extra`"),
            ("bundled --bogus", "unexpected argument `--bogus`"),
            ("dump --oops", "unexpected argument `--oops`"),
            (
                "dot --bogus IN --class load",
                "unexpected argument `--bogus`",
            ),
        ],
    );
}
