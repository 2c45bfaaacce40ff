"""Benchmark of kgadapters: one workload, one process, one client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports kgadapters from `src/` there.
BLAS is pinned to one thread before numpy loads. With `--trace 0` the
workload repeats its fixed work (a set-up, then the timed work) while the
next repetition ends within S seconds, and reports medians over the
repetitions. With `--trace 1` untraced and traced repetitions alternate
after a first, cold, traced one; it reports the per-layer metrics, the
tracing overhead and whether every traced repetition counted the same.

The last line of standard output is the JSON result. The lines above it list
every metric by name and unit, and the environment record; the same record
is written to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:          # must precede the first numpy import
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_REPS = 3             # repetitions per untraced run, at least: the first is cold
SETUP_REPS = 5           # set-ups measured per run, at least
IMPORT_REPS = 5          # fresh interpreters timed from start to imports done
OVERHEAD_PAIRS = 3       # untraced/traced pairs in a traced run, at least

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]
# printed with the result but not bounded: they do not apply to every
# workload, and error_rate is carried by "attempted" and "failed"
DETAIL = [("train_examples_per_s", "1/s"), ("eval_queries_per_s", "1/s"),
          ("eval_mrr", "ratio"), ("eval_hit1", "ratio"), ("final_loss", "nats"),
          ("error_rate", "ratio")]


@dataclass
class Rep:
    setup_s: float
    wall_s: float
    outcome: object
    check: object | None
    tracer: object | None


def run_rep(wl, tracer=None, check: bool = False) -> Rep:
    """Set up and run the workload once; read its results after the clock stops."""
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        state = wl.setup()
        t1 = time.perf_counter()
        result = wl.work(state)
        t2 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        outcome = wl.outcome(state, result, t2 - t1)
        verdict = wl.check(state, result) if check else None
    finally:
        wl.cleanup(state)
    return Rep(t1 - t0, t2 - t1, outcome, verdict, tracer)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kgadapters").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_version,
            "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(), "platform": platform.platform(),
            "git_commit": _git_commit(), "source_sha256": _source_sha256()}


def spec_mismatch(workload_names, per_layer) -> str | None:
    """Compare what this program reports with BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pairs = {"workloads": ([w["name"] for w in spec["workloads"]], list(workload_names)),
             "end_to_end": ([(m["name"], m["unit"]) for m in spec["end_to_end"]], END_TO_END),
             "per_layer": ([(m["name"], m["unit"]) for m in spec["per_layer"]],
                           [(n, u) for n, u, _ in per_layer])}
    for key, (declared, reported) in pairs.items():
        if declared != reported:
            return f"BENCHMARK.json {key} do not match what perfbench reports"
    return None


def import_seconds() -> list[float]:
    """Wall times of fresh interpreters importing kgadapters."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import kgadapters.pipeline"
    times = []
    for _ in range(IMPORT_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return times


def untraced_run(wl, seconds: float):
    """Repetitions while the next one, and the set-ups still to time, end
    within `seconds` of the start; the import timings and the oracle count."""
    start = time.perf_counter()
    reps = []
    try:
        imports = import_seconds()
        while True:
            reps.append(run_rep(wl, check=not reps))
            typical = median(r.setup_s + r.wall_s for r in reps)
            setups_left = max(SETUP_REPS - len(reps) - 1, 0) * median(r.setup_s for r in reps)
            ends = time.perf_counter() - start + typical + setups_left
            if len(reps) >= MIN_REPS and ends > seconds:
                break
        setups = [r.setup_s for r in reps]
        while len(setups) < SETUP_REPS:
            t0 = time.perf_counter()
            state = wl.setup()
            setups.append(time.perf_counter() - t0)
            wl.cleanup(state)
            del state       # else it stays alive through the next set-up and inflates peak_rss_mb
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return reps, {}, [], 1, {}
    metrics = {"setup_s": median(imports) + median(setups),
               "wall_s": median(r.wall_s for r in reps),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return reps, metrics, [], 0, {"setup_s": setups, "import_s": imports}


def traced_run(wl, seconds: float):
    """A traced repetition takes the process's cold start. Untraced and traced
    repetitions then alternate, OVERHEAD_PAIRS pairs at least and more while
    the next pair ends within `seconds` of the start. The per-layer times are
    medians over the warm traced repetitions, the tracing overhead is the
    median difference within the pairs, and every traced repetition must
    count exactly the same."""
    from tracer import Tracer
    start = time.perf_counter()
    reps, raised = [], 0
    try:
        reps.append(run_rep(wl, tracer=Tracer()))
        while True:
            reps.append(run_rep(wl, check=len(reps) == 1))
            reps.append(run_rep(wl, tracer=Tracer()))
            pairs = (len(reps) - 1) // 2
            pair_s = median(r.setup_s + r.wall_s for r in reps[1:]) * 2
            if pairs >= OVERHEAD_PAIRS and time.perf_counter() - start + pair_s > seconds:
                break
    except Exception:
        traceback.print_exc(file=sys.stderr)
        raised = 1
    if len(reps) < 1 + 2 * OVERHEAD_PAIRS:
        return reps, {}, [], raised, {}
    untraced, traced = reps[1::2], reps[0::2]
    counts = [r.tracer.counters() for r in traced]
    mismatched = sorted({k for c in counts[1:] for k in c.keys() | counts[0].keys()
                         if c.get(k) != counts[0].get(k)})
    problems = [f"counter {k} differs between traced runs: {[c.get(k) for c in counts]}"
                for k in mismatched]
    problems += [f"layer counter {k} is zero on {wl.name}: a traced function moved or is no longer called"
                 for k in wl.expects if counts[0].get(k, 0) == 0]
    per_rep = [r.tracer.metrics() for r in traced[1:]]
    metrics = {name: median(m[name] for m in per_rep) for name in per_rep[0]}
    untraced_s = median(r.setup_s + r.wall_s for r in untraced)
    traced_s = median(r.setup_s + r.wall_s for r in traced[1:])
    overhead_s = median((t.setup_s + t.wall_s) - (u.setup_s + u.wall_s)
                        for u, t in zip(untraced, traced[1:]))
    metrics.update({"bench.untraced_rep_s": untraced_s, "bench.traced_rep_s": traced_s,
                    "bench.trace_overhead_s": overhead_s,
                    "bench.trace_overhead_share": overhead_s / untraced_s,
                    "bench.counter_mismatches": float(len(mismatched))})
    return reps, metrics, problems, raised, {"overhead_pairs_s": [
        [u.setup_s + u.wall_s, t.setup_s + t.wall_s] for u, t in zip(untraced, traced[1:])]}


def detail_metrics(reps, attempted: int, failed: int) -> dict:
    outs = [(r.outcome, r.wall_s) for r in reps]
    first = outs[0][0] if outs else None

    def rate(count, seconds):
        values = [count(o) / seconds(o) for o, _ in outs if count(o)]
        return median(values) if values else None
    return {"train_examples_per_s": rate(lambda o: o.train_examples, lambda o: o.train_s),
            "eval_queries_per_s": rate(lambda o: o.queries, lambda o: o.eval_s),
            "eval_mrr": first and first.eval_mrr, "eval_hit1": first and first.eval_hit1,
            "final_loss": first and first.final_loss,
            "error_rate": failed / attempted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kgadapters" / "__init__.py").is_file():
        print(f"perfbench: no kgadapters sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import PER_LAYER
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (have {sorted(WORKLOADS)})",
              file=sys.stderr)
        return 2
    mismatch = spec_mismatch(WORKLOADS, PER_LAYER)
    if mismatch:
        print(f"perfbench: {mismatch}", file=sys.stderr)
        return 2

    scratch = OUT / "work" / f"{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, scratch)
    try:
        if args.trace:
            reps, metrics, problems, raised, samples = traced_run(wl, args.seconds)
        else:
            reps, metrics, problems, raised, samples = untraced_run(wl, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    checks = [r.check for r in reps if r.check is not None]
    problems += [p for c in checks for p in c.problems]
    repeats = sum(1 for r in reps[1:] if r.outcome.fingerprint != reps[0].outcome.fingerprint)
    if repeats:
        problems.append(f"{repeats} repetitions gave other checkpoints, parameters or reports "
                        f"than the first from the same seed")
    nonfinite = sum(r.outcome.nonfinite_losses for r in reps)
    if nonfinite:
        problems.append(f"{nonfinite} training steps gave a non-finite loss")
    attempted = sum(r.outcome.operations for r in reps) + raised
    failed = raised + nonfinite + repeats + sum(c.failed for c in checks)

    units = dict([(n, u) for n, u, _ in PER_LAYER] if args.trace else END_TO_END)
    names = [n for n, _, _ in PER_LAYER] if args.trace else [n for n, _ in END_TO_END]
    detail = detail_metrics(reps, max(attempted, 1), failed) if reps else {}
    correct = bool(reps) and failed == 0 and not problems and len(metrics) == len(names)

    print(f"{wl.name}  seed={args.seed}  trace={args.trace}  repetitions={len(reps)}")
    for name in names:
        print(f"  {name:<44} {metrics.get(name, float('nan')):>16.6f} {units[name]}")
    if not args.trace:
        for name, unit in DETAIL:
            value = detail.get(name)
            shown = "n/a" if value is None else f"{value:16.6f}"
            print(f"  {name:<44} {shown:>16} {unit}")
    for p in problems[:20]:
        print(f"  problem: {p}")
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    record = {"env": env, "metrics": metrics, "detail": detail, "problems": problems,
              "attempted": attempted, "failed": failed,
              "repetitions": [{"setup_s": r.setup_s, "wall_s": r.wall_s} for r in reps],
              "samples": samples}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": {n: {"value": metrics.get(n, 0.0), "unit": units[n]}
                                  for n in names}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
