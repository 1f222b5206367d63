#!/bin/sh
# CI gate. Run from the repo root.
#
#   ./ci.sh          fast tier-1 gate: release build, dev-profile tests
#                    (debug assertions on), the HMDL front end's own
#                    suites (its allocation gate included), the
#                    checker's and scheduler's own suites (the scheduler
#                    allocation gate included), the workload
#                    generators' suites (unit tests, allocation gate,
#                    pinned streams), the shared counting allocator's
#                    own suite
#                    (mdes-telemetry), the perf baseline's byte-for-byte
#                    round trip and the perf registry's tests (it names
#                    every baseline bench in the baseline's order, and a
#                    filtered run measures only its bench), the
#                    exact-scheduler oracle's suites,
#                    the guard's suites (the image-vetting policy tests
#                    and the LMDES fault codes), the automaton's suite,
#                    the engine pool's suites, the daemon's unit
#                    tests (the build-time boot images checked byte for
#                    byte against the runtime pipeline), allocation
#                    and memory gates (worker path, and the connection
#                    path of an id-less round trip), pinned replies
#                    (`run_work` answers byte-identical to recorded
#                    digests), the hot-reload suite (about 1.5 s warm:
#                    admission-time image capture, rejected reloads
#                    leave the old image serving, the content cache),
#                    the CLI's end-to-end suite (every
#                    `mdesc` command, the bundled-name lookup and
#                    the static paper tables and figures included),
#                    a type-check of the end-to-end benchmark
#                    crate against the current public API, formatting
#   ./ci.sh --full   everything above plus the release-profile workspace
#                    suites, the bench-serve concurrency smokes, the
#                    daemon serving smokes (a v1 serial client and a
#                    pipelined multi-shard client, each verified
#                    closed-loop with a hot reload and an
#                    injected-corrupt reload: non-LMDES text for the
#                    v1 client, a truncated LMDES image for the
#                    multi-shard one, whose daemon-wide reload counters
#                    must equal the sum of its shards'), the exact-scheduler
#                    oracle smoke (its production gap pinned exactly)
#                    and fleet fuzz (docs/oracle.md), the
#                    static-analysis lint smoke and defect-recall gate
#                    (docs/analysis.md), the paper-results gate
#                    (`mdesc tables` and `mdesc figures` regenerate
#                    results/ byte-identically), the
#                    workspace clippy gate (which holds the CLI's
#                    non-test code unwrap/expect-free) plus
#                    the panic-free lang/opt gate, and the perf
#                    regression gate against the committed BENCH_8.json
#                    baseline (which now includes the serve/load/*
#                    latency family), and the end-to-end benchmark
#                    crate's own build and tests
set -eux

FULL=0
case "${1:-}" in
--full) FULL=1 ;;
"") ;;
*)
    echo "usage: ./ci.sh [--full]" >&2
    exit 1
    ;;
esac

# Every intermediate file (metrics dumps, images, lint reports, sockets)
# lives in one artifact directory: removed on success, kept on failure
# so CI can upload it for the post-mortem.  The trap also reaps a
# still-running daemon, so an assertion failing mid-smoke can't leak the
# serve process into the next CI step.
ART="${MDESC_CI_ARTIFACTS:-$(mktemp -d "${TMPDIR:-/tmp}/mdesc-ci.XXXXXX")}"
mkdir -p "$ART"
SERVE_PID=""
cleanup() {
    status=$?
    if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
        kill "$SERVE_PID" 2>/dev/null || true
        wait "$SERVE_PID" 2>/dev/null || true
    fi
    if [ "$status" -eq 0 ]; then
        rm -rf "$ART"
    else
        echo "ci: FAILED (status $status); artifacts kept in $ART" >&2
    fi
}
trap cleanup EXIT
trap 'exit 129' INT TERM

# expect <pattern> <file>: the smoke assertions, with a message naming
# the missing pattern instead of a bare grep exit under set -e.
expect() {
    grep -q "$1" "$2" || {
        echo "ci: expected $1 in $2" >&2
        exit 1
    }
}

# wait_for_socket <path>: daemons bind asynchronously after fork.
wait_for_socket() {
    for _ in $(seq 1 100); do
        test -S "$1" && return 0
        sleep 0.1
    done
    echo "ci: daemon socket $1 never appeared" >&2
    exit 1
}

cargo build --release

# Functional tests run under the dev profile, with debug assertions
# enabled, so internal invariants are checked rather than compiled out.
cargo test -q

# The root package's tests leave out member crates' own test targets.
# The HMDL front end's suites take under a second warm: its unit tests,
# and its allocation gate (lexing allocates only the token buffer;
# parsing and elaborating each bundled source make a pinned count).
# The checker's and scheduler's own suites take about 2 s warm: the
# checker's unit tests, a dependence graph rebuilt in place checked
# edge for edge against a fresh build and the hashed reference builder,
# and the scheduler's allocation gate (a heap-free `Op`,
# allocation-free reservation attempts, a fixed allocation count per
# block for placement and for the whole graph-to-schedule path, and a
# recurrence bound whose allocations do not grow with its II).  The
# workload generators' suites take about 0.6 s warm: their unit tests,
# the allocation gate (one allocation per generated region), the pinned
# streams (every operation each generator emits, held to digests) and
# the doc example.  Together they guard the layouts the benchmark's
# memory figures depend on, and the streams its totals do.
cargo test -q -p mdes-lang
cargo test -q -p mdes-core -p mdes-sched
cargo test -q -p mdes-workload

# The four allocation gates above and the daemon's below install one
# counting global allocator, `mdes_telemetry::alloc`; its own tests run
# with the crate's (under half a second warm).  The committed perf
# baseline must parse and re-emit byte for byte, so an edit to
# BENCH_8.json the report format cannot carry fails here, not only in
# the --full perf gate; and the perf suite's one bench registry must
# name every BENCH_8.json bench in BENCH_8.json's order (listing it sets
# no bench up), so a dropped or renamed bench fails here, not only as
# MISSING in the gate, while a run filtered to `rumap/word_ops` must
# measure exactly that bench with every derived figure at 0 (a few
# hundredths of a second together).  The exact-scheduler oracle's
# suites take about 0.3 s warm: branch and bound against hand-built
# traps, the differential harness, and the modulo II sandwich.
cargo test -q -p mdes-telemetry
cargo test -q -p mdes-perf --lib -- json registry
cargo test -q -p mdes-oracle

# The guard's suites take about 0.6 s warm, its integration tests
# included: the vetting policy tests decode hand-written LMDES images
# through `lmdes::read`, the path a reload takes, the fault-code tests
# pin each corruption class to its MD10x code, and the 24-fault matrix
# (four behavioural fault kinds planted after factoring on the six
# bundled descriptions) pins which plantings the oracle rejects.  The
# automaton's suite (about 0.3 s) builds its transitions through the
# checker's one reservation call and must agree with it.
cargo test -q -p mdes-guard
cargo test -q -p mdes-automata

# The engine's suites take a few seconds: every job runs exactly once,
# a panicked job leaves `None` at its own index, a blocked job never
# strands a later one, a skewed batch schedules byte-identically at
# 1, 4 and 16 workers, and every list schedule of a seeded stream on the
# six bundled descriptions (forward, backward, batched at one and two
# workers, block by block) matches recorded per-operation digests.
cargo test -q -p mdes-engine

# The daemon's unit tests, its allocation gates and its pinned replies
# take about 3.5 s warm.  Among the unit tests, the boot images
# `crates/serve/build.rs` compiled under the build-script profile must
# equal, byte for byte, what the runtime pipeline builds under this one
# (`--full` repeats the check in release), and every counter `stats`
# renders must be published to `--metrics`.  The allocation gates hold
# a warm worker's request, `schedule` or `verify`, to a fixed
# allocation count and a peak of live bytes that do not grow with its
# region count, and a live
# daemon's id-less round trip to no allocation on the connection path
# beyond parsing the frame.  The pinned replies (about 1 s) hold
# `run_work`'s answers for the four served machines, both work verbs,
# four request shapes and two seeds to digests recorded on the request
# path that held a request's whole workload.  The hot-reload suite
# (about 1.5 s warm) runs reloads against live daemons: requests keep
# the image they were admitted under, corrupt images and a branch-only
# source are refused while the old image keeps serving, identical bytes
# are a no-op, and a verified client sees no surprise across reloads.
cargo test -q -p mdes-serve --lib --test allocations --test pinned_replies --test reload

# The CLI suite runs the `mdesc` binary, one command per test, the
# case-insensitive bundled-name lookup that `bundled`, `lint --machine`
# and `oracle --machine` share included, `verify` and a live daemon's
# reload held to the same verdict on four sources, and the static paper
# tables and figures held to their slices of results/; about 0.7 s warm.
cargo test -q -p mdes-tools --test cli

# The end-to-end benchmark is its own Cargo workspace with its own lock
# file, so nothing above compiles it.  Type-checking it takes seconds
# warm, so a public API change in a member crate that would break
# `bash benchmark/run.sh` fails here rather than only under --full.
cargo check --offline --locked --manifest-path benchmark/Cargo.toml --target-dir target

cargo fmt --check

test "$FULL" -eq 1 || exit 0

# The concurrency suites (engine pool, conformance, determinism) also run
# under the release profile: optimized codegen reorders more aggressively,
# which is where a data race or fold bug would actually surface.
# --workspace pulls in the member crates' own test targets (the engine
# suites live in crates/engine/tests/, outside the root package).
cargo test --release --workspace -q

# The end-to-end benchmark is its own Cargo workspace, so --workspace
# above never compiles it; build and test it here so a public API change
# in a member crate cannot break `bash benchmark/run.sh` unnoticed.
cargo test --release --offline --manifest-path benchmark/Cargo.toml --target-dir target

# Concurrent-serving smoke: a short bench-serve batch on two workers with
# a pinned seed must finish clean — every job accounted for, no worker
# panics, and no poisoned locks surfaced in the published metrics.  The
# jobs_completed count is exact because the region stream is
# seed-deterministic and the engine's fold is worker-count invariant.
METRICS="$ART/bench-serve-w2.json"
./target/release/mdesc bench-serve --jobs 2 --regions 2000 --seed 42 \
    --metrics "$METRICS"
expect '"engine/jobs_completed":2000' "$METRICS"
expect '"engine/worker_panics":0' "$METRICS"
if grep -qi 'poison' "$METRICS"; then
    echo 'ci: poisoned lock surfaced in bench-serve metrics' >&2
    exit 1
fi

# The same smoke at eight workers: oversubscribed relative to most CI
# boxes, so the shared job cursor and per-worker state reuse get
# exercised under real contention — and must still lose zero jobs.
METRICS8="$ART/bench-serve-w8.json"
./target/release/mdesc bench-serve --jobs 8 --regions 2000 --seed 42 \
    --metrics "$METRICS8"
expect '"engine/jobs_completed":2000' "$METRICS8"
expect '"engine/worker_panics":0' "$METRICS8"

# Shared images for both serving smokes: good reload targets (compiled
# from bundled descriptions) and two corrupt ones the daemon must
# reject.  BAD_IMG is neither LMDES nor valid HMDL, so it fails in the
# HMDL front end; TRUNC_IMG is a real image cut after 40 bytes, so it
# fails in the LMDES decoder (MD103).
GOOD_HMDL="$ART/pentium.hmdl"
GOOD_IMG="$ART/pentium.lmdes"
SPARC_HMDL="$ART/supersparc.hmdl"
SPARC_IMG="$ART/supersparc.lmdes"
BAD_IMG="$ART/corrupt.lmdes"
TRUNC_IMG="$ART/truncated.lmdes"
./target/release/mdesc bundled pentium >"$GOOD_HMDL"
./target/release/mdesc compile "$GOOD_HMDL" -o "$GOOD_IMG"
./target/release/mdesc bundled supersparc >"$SPARC_HMDL"
./target/release/mdesc compile "$SPARC_HMDL" -o "$SPARC_IMG"
printf 'not an lmdes image and not hmdl either {' >"$BAD_IMG"
head -c 40 "$GOOD_IMG" >"$TRUNC_IMG"

# Serving smoke, v1 serial client: boot a single-shard daemon, then
# drive a verified closed-loop client through 2000 requests with one
# good hot reload and one injected-corrupt reload fired mid-run.  The
# client pipelines nothing and sends no request ids — this is the
# protocol-v1 byte stream, so the daemon's one-slot window for id-less
# frames stays covered.  serve-load exits nonzero if a single request
# is dropped, an answer fails client-side re-scheduling verification,
# or a reload outcome surprises it (good rejected / corrupt accepted);
# the daemon's own metrics must then show the serve counters present,
# nothing left in flight, both scripted reloads received (one promoted,
# one refused), and zero engine panics.
SERVE_SOCK="$ART/serve-v1.sock"
SERVE_METRICS="$ART/serve-v1-metrics.json"
./target/release/mdesc --metrics "$SERVE_METRICS" serve --machine k5 \
    --socket "$SERVE_SOCK" --workers 4 &
SERVE_PID=$!
wait_for_socket "$SERVE_SOCK"
./target/release/mdesc serve-load --socket "$SERVE_SOCK" --machine k5 \
    --requests 2000 --connections 4 \
    --reload-at "700:$GOOD_IMG" --reload-corrupt-at "1400:$BAD_IMG" \
    --shutdown
wait "$SERVE_PID"
SERVE_PID=""
expect '"serve/shed"' "$SERVE_METRICS"
expect '"serve/dropped":0' "$SERVE_METRICS"
expect '"serve/reloads":1' "$SERVE_METRICS"
expect '"serve/reload_failures":1' "$SERVE_METRICS"
expect '"engine/worker_panics":0' "$SERVE_METRICS"

# Serving smoke, pipelined multi-shard: one daemon serving K5 and
# Pentium as independent shards, driven by a pipelined client (8
# requests in flight per connection) spraying requests across both
# shards, with a good hot reload targeted at the Pentium shard and a
# truncated-image reload targeted at K5 fired mid-run, so the daemon's
# LMDES rejection runs end to end.  The per-shard counters
# then prove reload isolation: Pentium swapped images exactly once, K5
# rejected its corrupt image and swapped nothing, and neither shard
# dropped a request.  The daemon-wide counters are the shards' sum.
SHARD_SOCK="$ART/serve-sharded.sock"
SHARD_METRICS="$ART/serve-sharded-metrics.json"
./target/release/mdesc --metrics "$SHARD_METRICS" serve \
    --machine k5,pentium --socket "$SHARD_SOCK" --workers 4 &
SERVE_PID=$!
wait_for_socket "$SHARD_SOCK"
./target/release/mdesc serve-load --socket "$SHARD_SOCK" \
    --machines k5,pentium --pipeline 8 --requests 2000 --connections 4 \
    --reload-at "700@pentium:$SPARC_IMG" \
    --reload-corrupt-at "1400@k5:$TRUNC_IMG" \
    --shutdown
wait "$SERVE_PID"
SERVE_PID=""
expect '"serve/dropped":0' "$SHARD_METRICS"
expect '"serve/shard/K5/dropped":0' "$SHARD_METRICS"
expect '"serve/shard/Pentium/dropped":0' "$SHARD_METRICS"
expect '"serve/shard/Pentium/reloads":1' "$SHARD_METRICS"
expect '"serve/shard/K5/reloads":0' "$SHARD_METRICS"
expect '"serve/shard/K5/reload_failures":1' "$SHARD_METRICS"
expect '"serve/shard/Pentium/reload_failures":0' "$SHARD_METRICS"
expect '"serve/reloads":1' "$SHARD_METRICS"
expect '"serve/reload_failures":1' "$SHARD_METRICS"
expect '"engine/worker_panics":0' "$SHARD_METRICS"

# Oracle smoke: the exact branch-and-bound scheduler differentials the
# production schedulers over the seed-42 region stream on all six
# bundled machines.  Region counts and gaps are seed-deterministic, so
# the grep demands the exact aggregate line, production gap included —
# any drift means the workload, the oracle's op cap or a production
# schedule changed (update this line deliberately when schedules change
# on purpose, like the lint count below) — and the published metrics
# must record zero invariant inversions (an oracle or list schedule
# failing replay, a list schedule beating the proven minimum, an II
# escaping its sandwich).
ORACLE_METRICS="$ART/oracle-metrics.json"
ORACLE_OUT="$ART/oracle-out.txt"
./target/release/mdesc --metrics "$ORACLE_METRICS" oracle --seed 42 \
    | tee "$ORACLE_OUT"
expect '^oracle: 6 machine(s), 72 regions, 72 loops, gap 1.042 modulo 1.005, 0 violation(s)$' "$ORACLE_OUT"
expect '"sched/oracle_violations":0' "$ORACLE_METRICS"

# Fleet fuzz: 64 structurally diverse synthetic machines, each run
# through the guarded optimization pipeline (guard incidents must be
# zero) and then the same oracle differential on the optimized spec.
FLEET_METRICS="$ART/fleet-metrics.json"
./target/release/mdesc --metrics "$FLEET_METRICS" oracle --fleet 64 --seed 42
expect '"sched/oracle_violations":0' "$FLEET_METRICS"
expect '"sched/oracle_guard_incidents":0' "$FLEET_METRICS"

# Static-analysis smoke: the bundled machines must stay free of fatal
# diagnostics, with an exact diagnostic count — the analyzer's findings
# on these descriptions are deterministic, so any drift means an
# analysis changed its coverage (update this line and docs/analysis.md
# deliberately, not accidentally).  The full report must also be
# byte-identical run to run: tooling diffs it.
LINT_A="$ART/lint-a.txt"
LINT_B="$ART/lint-b.txt"
./target/release/mdesc lint --machine all | tee "$LINT_A"
expect '^lint: 6 machine(s), 79 diagnostic(s) (0 fatal, 66 warn, 13 info)$' "$LINT_A"
./target/release/mdesc lint --machine all >"$LINT_B"
cmp "$LINT_A" "$LINT_B"

# Analyzer recall gate: a 16-machine fleet with known-bad structure
# planted into every machine (one dominated option + one unsatisfiable
# class each) must be reported at 100% recall, and the planted
# unsatisfiable classes must gate the run with the validation exit
# code (3) — the same code a fatally diagnosed `mdesc check` input gets.
LINT_DEFECTS="$ART/lint-defects.txt"
set +e
./target/release/mdesc lint --fleet 16 --seed 42 --defects >"$LINT_DEFECTS"
LINT_STATUS=$?
set -e
test "$LINT_STATUS" -eq 3
expect '^lint: recall 32/32 planted defect(s) reported$' "$LINT_DEFECTS"

# Paper-results gate: the committed tables and figures are the paper
# reproduction, and every scheduler, checker and workload change must
# leave them byte-identical.  `mdesc tables` and `mdesc figures` print
# them; the runs are seed-deterministic and take about 5 s; they cover
# every table and ablation, the automaton (A), backward (D) and modulo
# (E) ones included.
./target/release/mdesc tables all --ops 40000 >"$ART/tables.txt"
cmp "$ART/tables.txt" results/tables.txt
./target/release/mdesc figures all >"$ART/figures.txt"
cmp "$ART/figures.txt" results/figures.txt
./target/release/mdesc figures fig2-csv >"$ART/fig2.csv"
cmp "$ART/fig2.csv" results/fig2.csv

# The whole workspace (every target, tests included) must be clean
# under clippy at -D warnings.
cargo clippy --workspace --all-targets -- -D warnings

# Input-reachable front-end and optimizer code must additionally stay
# panic-free: no unwrap/expect outside #[cfg(test)] modules (test code
# is exempt because only the lib targets are linted here).  The `mdesc`
# binary, which reads raw user arguments, holds itself to the same rule
# with a crate-level `deny` in crates/cli/src/main.rs, so the workspace
# gate above enforces it; adding `-p mdes-tools` here instead would lint
# its dependencies too.  See docs/robustness.md.
cargo clippy -p mdes-lang -p mdes-opt -- \
    -D warnings -D clippy::unwrap_used -D clippy::expect_used

# Perf regression gate: rerun the deterministic suite and compare against
# the committed baseline.  Op counts must match exactly (the workloads are
# seed-deterministic); timings compare the fastest of K repetitions with a
# 25% per-work-unit tolerance — shared-runner interference (CPU-quota
# throttling after the suites above) only ever adds time, so min-of-K with
# generous K finds an unthrottled window.  The gate also enforces the
# hardware-aware batch_scaling floor (engine w1 ÷ w4 parallel speedup:
# >= 3.0 on hosts with 4+ CPUs, a 0.85 no-harm bound on smaller boxes),
# the absolute oracle_gap ceiling (list schedules at most 15% over the
# proven minimum — see docs/performance.md and docs/oracle.md), and the
# daemon's closed-loop serve latency: serve_p50_us/serve_p99_us from the
# serve/load/* family may not drift past the baseline by more than the
# same tolerance.  Exit code 5 on regression.
PERF_JSON="$ART/perf-report.json"
./target/release/mdesc perf --reps 15 --json "$PERF_JSON" \
    --baseline BENCH_8.json --max-regression 0.25
