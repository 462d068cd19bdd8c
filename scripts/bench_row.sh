#!/usr/bin/env bash
# Append one row to BENCH_history.jsonl: the benchmark's seven end-to-end
# medians for each of the five workloads, as the acceptance harness takes
# them (`--workload W --seed S --seconds 20 --trace 0`, one workload after
# the other, about two minutes in all).
#
# Usage: scripts/bench_row.sh [seed] [label]
#
# A row records the commit it ran on (suffixed `+` when the tree had
# uncommitted changes), `host_workers`, the seed and the optional label.
# Host times are in reference seconds (see mhh-benchmark/README.md), so rows
# taken on different days compare; rows of different seeds run different
# instances and compare only roughly.
set -euo pipefail

seed="${1:-7}"
label="${2:-}"
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

commit="$(git rev-parse --short HEAD)"
git diff --quiet HEAD -- . ':!BENCH_history.jsonl' || commit="$commit+"

runs="$(mktemp -d)"
trap 'rm -rf "$runs"' EXIT
for w in city-handoff paper-churn fanout-wire fanin-audit lossy-recovery; do
    echo "bench_row: $w" >&2
    cargo run --release --quiet --offline --manifest-path mhh-benchmark/Cargo.toml -- \
        --workload "$w" --seed "$seed" --seconds 20 --trace 0 >"$runs/$w.txt"
done

python3 - "$runs" "$commit" "$seed" "$label" >>BENCH_history.jsonl <<'PY'
import json, os, re, sys

runs, commit, seed, label = sys.argv[1:5]
row = {"commit": commit, "label": label, "seed": int(seed), "host_workers": None, "workloads": {}}
for name in sorted(os.listdir(runs)):
    lines = open(os.path.join(runs, name)).read().splitlines()
    row["host_workers"] = int(re.search(r"host_workers (\d+)", lines[0]).group(1))
    result = json.loads(lines[-1])
    assert result["correct"], f"{name}: benchmark reported a failed point"
    row["workloads"][name[: -len(".txt")]] = {
        metric: round(m["value"], 6) for metric, m in result["metrics"].items()
    }
print(json.dumps(row))
PY
tail -n 1 BENCH_history.jsonl
