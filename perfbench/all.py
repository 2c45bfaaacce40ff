"""Run every workload of BENCHMARK.json, untraced, and print its metrics.

    python3 perfbench/all.py [--seeds 1,2,...] [--baseline FILE]

Each run is its own process through perfbench/run.py, one after the other,
for the run_seconds of BENCHMARK.json, and prints every metric by name and
unit. With several seeds, each end-to-end metric also gets its median and
its spread: the distance between the first and third quartile as a share of
the median, next to the bound BENCHMARK.json gives it. With `--baseline`, one traced run per workload
(first seed) follows, and the medians, quartiles, per-layer metrics and
environment records are written to FILE. The exit code is 0 only if every
run passed its correctness checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, list[str], dict]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    env = [json.loads(line[4:]) for line in lines if line.startswith("env ")]
    result["env"] = env[0] if env else None
    result["run_s"] = time.perf_counter() - t0
    table = [line for line in lines[:-1] if not line.startswith("env ")]
    table.append(f"  (process took {result['run_s']:.1f} s, exit code {proc.returncode})")
    return proc.returncode, table, result


def summary(values: list[float], bound: float) -> dict:
    q1, q2, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "bound": bound, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1",
                        type=lambda s: [int(x) for x in s.split(",")])
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    status, baseline = 0, {"seeds": args.seeds, "seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        envs, run_s = [], []
        for seed in args.seeds:
            code, table, result = run(workload, seed, spec["run_seconds"], 0)
            print("\n".join(table), flush=True)
            status = status or code
            for name, metric in result.get("metrics", {}).items():
                values[name].append(metric["value"])
            envs.append(result["env"])
            run_s.append(result["run_s"])
        entry = {"untraced": {name: summary(v, bounds[name]) for name, v in values.items() if v},
                 "run_s": run_s, "env": envs[0]}
        if len(args.seeds) > 1:
            for name, s in entry["untraced"].items():
                print(f"{workload} {name}: median {s['median']:.6g}  quartiles "
                      f"{s['q1']:.6g}..{s['q3']:.6g}  spread {s['spread']:.4f}  "
                      f"bound {s['bound']}", flush=True)
        if args.baseline:
            code, table, result = run(workload, args.seeds[0], spec["run_seconds"], 1)
            print("\n".join(table), flush=True)
            status = status or code
            entry["traced"] = {name: m["value"] for name, m in result.get("metrics", {}).items()}
            entry["traced_run_s"] = result["run_s"]
        baseline["workloads"][workload] = entry
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
