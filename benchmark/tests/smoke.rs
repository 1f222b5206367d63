//! Short runs of every workload through the real binary: each prints
//! exactly the metrics `BENCHMARK.json` declares, with their units, and
//! a doctored expected file fails the run.
//!
//! The runs use release builds of the benchmark and of the daemon
//! (`mdesc`), whatever profile the tests themselves were built with: the
//! open-loop workloads need an optimized daemon.  The first test builds
//! them into this target directory.  The tests take turns: the open-loop
//! generator must not share the CPUs with another run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::{Mutex, MutexGuard, OnceLock};

use mdes_telemetry::json::Json;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The release benchmark binary, built on first use together with
/// `mdesc` beside it.
fn benchmark() -> &'static Path {
    static BINARY: OnceLock<PathBuf> = OnceLock::new();
    BINARY.get_or_init(|| {
        let target = Path::new(env!("CARGO_BIN_EXE_mdes-benchmark"))
            .ancestors()
            .nth(2)
            .expect("binary sits in <target>/<profile>/");
        for (manifest, package) in [
            ("../Cargo.toml", "mdes-tools"),
            ("Cargo.toml", "mdes-benchmark"),
        ] {
            let status = Command::new(env!("CARGO"))
                .args(["build", "--release", "--offline", "--quiet", "-p", package])
                .arg("--manifest-path")
                .arg(manifest_dir().join(manifest))
                .arg("--target-dir")
                .arg(target)
                .status()
                .expect("cargo runs");
            assert!(status.success(), "building {package} failed");
        }
        target.join("release/mdes-benchmark")
    })
}

fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn run(workload: &str, traced: bool, extra: &[&str]) -> Output {
    Command::new(benchmark())
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
        ])
        .arg(if traced { "1" } else { "0" })
        .args(extra)
        .output()
        .expect("the benchmark runs")
}

fn result_line(output: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

/// `(name, unit)` of every metric of one kind in `BENCHMARK.json`.
fn declared(kind: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    spec.get(kind)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |key| {
                m.get(key)
                    .and_then(Json::as_str)
                    .expect("field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn check_workload(workload: &str) {
    let _turn = one_at_a_time();
    for traced in [false, true] {
        let output = run(workload, traced, &[]);
        assert!(
            output.status.success(),
            "{workload} (traced {traced}) failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let result = result_line(&output);
        let keys: Vec<&String> = result.as_obj().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);

        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics");
        let want = declared(if traced { "per_layer" } else { "end_to_end" });
        assert_eq!(
            metrics.len(),
            want.len(),
            "{workload}: {:?}",
            metrics.keys()
        );
        for (name, unit) in want {
            let metric = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("{workload} did not print `{name}`"));
            assert_eq!(
                metric.get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{workload}: unit of `{name}`"
            );
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .expect("a number");
            assert!(value.is_finite(), "{workload}: `{name}` = {value}");
            if !traced {
                assert!(value > 0.0, "{workload}: `{name}` = {value}");
            }
        }
    }
}

#[test]
fn build_prints_every_declared_metric() {
    check_workload("build");
}

#[test]
fn batch_prints_every_declared_metric() {
    check_workload("batch");
}

#[test]
fn serve_small_prints_every_declared_metric() {
    check_workload("serve_small");
}

#[test]
fn serve_reload_prints_every_declared_metric() {
    check_workload("serve_reload");
}

#[test]
fn a_doctored_expected_file_fails_the_run() {
    let _turn = one_at_a_time();
    let good = std::fs::read_to_string(manifest_dir().join("expected/1.txt"))
        .expect("the committed seed has an expected file");
    let line = good
        .lines()
        .find(|l| l.starts_with("batch.cycles"))
        .expect("the file holds batch.cycles");
    let (key, value) = line.split_once('=').expect("key = value");
    let value: u64 = value.trim().parse().expect("a count");
    let doctored = good.replace(line, &format!("{}= {}", key, value + 1));

    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("doctored");
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("1.txt"), doctored).expect("write");
    let output = run(
        "batch",
        false,
        &["--expected-dir", dir.to_str().expect("utf-8 path")],
    );
    assert!(!output.status.success(), "a doctored expected file passed");
    assert_eq!(
        result_line(&output).get("correct"),
        Some(&Json::Bool(false))
    );

    std::fs::write(dir.join("1.txt"), good).expect("write");
    let output = run(
        "batch",
        false,
        &["--expected-dir", dir.to_str().expect("utf-8 path")],
    );
    assert!(
        output.status.success(),
        "the committed expected file failed"
    );
}
