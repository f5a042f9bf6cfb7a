#!/usr/bin/env bash
# Self-test of the benchmark: a smoke run and a smoke traced run of every
# workload, then three checks --
#   * every workload prints exactly the metrics BENCHMARK.json declares,
#     each with its unit and a finite value (end-to-end metrics in the
#     untraced run, per-layer metrics in the traced one), and passes its
#     correctness gates;
#   * each traced run's Chrome trace parses as JSON;
#   * each trace has spans of all seven layers.
#
#   bash benchmark/selftest.sh
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$here/build/selftest"
mkdir -p "$out"

bash "$here/run.sh" --smoke --seed 1 --json "$out/untraced.json" > "$out/untraced.txt"
bash "$here/run.sh" --smoke --seed 1 --trace 1 --trace-dir "$out" \
  --json "$out/traced.json" > "$out/traced.txt"

python3 - "$root/BENCHMARK.json" "$out" <<'EOF'
import json, math, os, sys

spec = json.load(open(sys.argv[1]))
out = sys.argv[2]
layers = {"registers", "core", "harness", "histories", "linearizability",
          "net", "modelcheck"}
problems = []
for mode, key in (("untraced", "end_to_end"), ("traced", "per_layer")):
    report = json.load(open(os.path.join(out, mode + ".json")))
    for w in (x["name"] for x in spec["workloads"]):
        r = report["results"].get(w)
        if r is None:
            problems.append(f"{mode}: workload {w} missing")
            continue
        if not r["correct"]:
            problems.append(f"{mode}: {w} failed gates {r['gate_failures']}")
        extra = set(r["metrics"]) - {m["name"] for m in spec[key]}
        if extra:
            problems.append(f"{mode}: {w} prints undeclared {sorted(extra)}")
        for m in spec[key]:
            got = r["metrics"].get(m["name"])
            if got is None:
                problems.append(f"{mode}: {w} does not print {m['name']}")
            elif got["unit"] != m["unit"] or not math.isfinite(got["median"]):
                problems.append(f"{mode}: {w} {m['name']} = {got}")
        if mode == "traced":
            trace = json.load(open(os.path.join(out, f"trace_{w}.json")))
            seen = {e["cat"] for e in trace["traceEvents"]}
            if seen != layers:
                problems.append(f"trace_{w}.json: layers {sorted(seen)}")
for p in problems:
    print("selftest:", p)
print("selftest:", "FAIL" if problems else "ok")
sys.exit(1 if problems else 0)
EOF
