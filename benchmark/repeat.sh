#!/usr/bin/env bash
# Runs every workload N times untraced, seed after seed, and prints for
# each end-to-end metric its median, quartiles, and two spreads:
#
#   iqr/med   (Q3 - Q1) / median, quartiles as `statistics.quantiles(n=4)`
#   max/min   max / min - 1, the spread the bounds are set from
#
# and the bound that rule gives, max(0.05, 1.5 x max/min), beside the one
# BENCHMARK.json declares.
#
#   bash benchmark/repeat.sh N [FIRST_SEED]
#
# Run from the repository root.  Run length and workloads come from
# BENCHMARK.json; the result lines are kept in <target>/benchmark/repeat/.
set -euo pipefail

n="${1:?usage: repeat.sh N [FIRST_SEED]}"
first="${2:-1}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-$root/target}/benchmark/repeat"
rm -rf "$out"
mkdir -p "$out"

field() {
    python3 -c 'import json, sys
spec = json.load(open(sys.argv[1]))
print(spec["run_seconds"] if sys.argv[2] == "seconds" else " ".join(w["name"] for w in spec["workloads"]))' \
        "$root/BENCHMARK.json" "$1"
}
seconds="$(field seconds)"
workloads="$(field workloads)"

for ((i = 0; i < n; i++)); do
    seed=$((first + i))
    for w in $workloads; do
        bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
            | tail -n 1 >"$out/$w.$seed.json"
    done
done

python3 - "$out" "$root/BENCHMARK.json" $workloads <<'EOF'
import json, pathlib, statistics, sys

out, spec, workloads = pathlib.Path(sys.argv[1]), json.load(open(sys.argv[2])), sys.argv[3:]
declared = {m["name"]: m["bound"] for m in spec["end_to_end"]}
print(f"{'workload':13} {'metric':18} {'median':>13} {'q1':>13} {'q3':>13} "
      f"{'iqr/med':>8} {'max/min':>8} {'rule':>6} {'bound':>7}")
for w in workloads:
    runs = [json.loads(p.read_text()) for p in sorted(out.glob(f"{w}.*.json"))]
    bad = [r for r in runs if not r["correct"] or r["failed"]]
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        iqr = (q3 - q1) / med
        span = max(values) / min(values) - 1
        rule = max(0.05, 1.5 * span)
        bound = declared.get(name, float("nan"))
        print(f"{w:13} {name:18} {med:13.6g} {q1:13.6g} {q3:13.6g} "
              f"{iqr:8.2%} {span:8.2%} {rule:6.3f} {bound:7.3g}")
    if bad:
        print(f"{w}: {len(bad)} run(s) incorrect or with failed operations")
EOF
