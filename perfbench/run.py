"""orbitforge benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload ternary-classify --seed 1 --seconds 32 --trace 0

Each run
  1. times set-up in five fresh child processes (import + inputs) and
     reports the median as `setup_s` (untraced runs only);
  2. sets the workload up in this process and repeats whole rounds of its
     fixed work until the timed calls add up to `--seconds`;
  3. checks every distinct output with the independent checks in checks.py;
  4. prints {"correct", "attempted", "failed", "metrics"} as the last line
     and writes the same figures, plus workload detail, under perfbench/out/.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json;
with `--trace 1` rounds alternate untraced and traced, and the metrics are
the per-layer ones (per traced round) with the tracing overhead.  The run
exits 1 if any operation failed or any check did not hold.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

os.environ.pop("ORBITFORGE_THREADS", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "call_p50_ms": "ms"}


def layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and build inputs (used to time set-up)")
    return p.parse_args(argv)


def time_setup(args, env) -> list:
    """Spawn-to-exit seconds of fresh processes that only set the workload up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        out.append(perf_counter() - start)
    return out


def measure(workload, seconds: float, trace: bool) -> list:
    """Whole rounds until the timed calls reach `seconds`.

    With tracing, rounds alternate untraced and traced and the loop goes on
    until both kinds have run.
    """
    rounds, spent, r = [], 0.0, 0
    while spent < seconds or (trace and len(rounds) < 2):
        traced = trace and r % 2 == 1
        rnd = workload.round(r, traced)
        rnd.traced = traced
        rounds.append(rnd)
        spent += rnd.seconds
        r += 1
        # Kept outputs must not make later rounds' garbage collections slower.
        gc.collect()
        gc.freeze()
    return rounds


def peak_rss_mb(workload_name: str) -> float:
    # ru_maxrss is in KiB on Linux.  cli-cold's work runs in its children.
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def check_outputs(workload, rounds):
    """Check each distinct output once; returns (attempted, failed, problems)."""
    attempted = failed = 0
    problems = []
    verdicts = {}
    for rnd in rounds:
        for output in rnd.outputs:
            counted = workload.counted(output)
            attempted += counted
            if output is None:
                failed += 1
                continue
            key = repr(output)
            if key not in verdicts:
                try:
                    workload.check(output)
                    verdicts[key] = None
                except AssertionError as exc:
                    verdicts[key] = str(exc) or type(exc).__name__
            if verdicts[key] is not None:
                failed += counted
                problems.append(verdicts[key])
    return attempted, failed, problems


def detail(rounds) -> dict:
    """Per-workload figures beyond the gated metrics, for the detail file."""
    out = {"rounds": len(rounds)}
    named = {}
    for rnd in rounds:
        for name, value in rnd.extra.items():
            if name == "errors":
                out.setdefault("errors", []).extend(value)
            else:
                named.setdefault(name, []).extend(value if isinstance(value, list) else [value])
    for name, values in sorted(named.items()):
        out[name + "_p50"] = statistics.median(values)
        out[name + "_samples"] = len(values)
        if len(values) >= 40:
            out[name + "_p95"] = statistics.quantiles(values, n=20)[18]
    calls = [c for rnd in rounds for c in rnd.calls]
    out["call_samples"] = len(calls)
    if len(calls) >= 40:
        out["call_p95_ms"] = statistics.quantiles(calls, n=20)[18] * 1e3
    return out


def layer_metrics(workload, rounds, env) -> dict:
    import tracer
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    total = {}
    for rnd in traced:
        tracer.merge(total, rnd.layers)
    metrics = {}
    for name in tracer.metric_names():
        if name.startswith(("import.", "trace.")):
            continue
        value = total.get(name, 0) / len(traced)
        metrics[name] = int(value) if value == int(value) and not name.endswith("_s") \
            else value
    metrics.update(tracer.import_times(env, ROOT))
    t_wall = statistics.mean(r.seconds for r in traced)
    u_wall = statistics.mean(r.seconds for r in plain)
    metrics.update({"trace.wall_s": t_wall, "trace.untraced_wall_s": u_wall,
                    "trace.overhead_s": t_wall - u_wall})
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "orbitforge")):
        print("perfbench: no orbitforge sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    if args.setup_probe:
        workload.setup(args.seed)
        workload.close()
        return 0

    env = workloads.child_env()
    setup_times = [] if args.trace else time_setup(args, env)
    workload.setup(args.seed)
    try:
        workload.warm_up()
        rounds = measure(workload, args.seconds, bool(args.trace))
        rss = peak_rss_mb(args.workload)
        check_start = perf_counter()
        attempted, failed, problems = check_outputs(workload, rounds)
        check_s = perf_counter() - check_start
        if args.trace:
            metrics = layer_metrics(workload, rounds, env)
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": statistics.mean(r.seconds for r in rounds),
                "peak_rss_mb": rss,
                "call_p50_ms": statistics.median(c for r in rounds for c in r.calls) * 1e3,
            }
            units = END_TO_END
    finally:
        workload.close()

    correct = not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    stem = "%s%s-seed%d" % ("trace-" if args.trace else "", args.workload, args.seed)
    with open(os.path.join(workloads.OUT_DIR, stem + ".json"), "w") as fh:
        json.dump(dict(result, setup_samples_s=setup_times, check_s=check_s,
                       round_s=[r.seconds for r in rounds], detail=detail(rounds),
                       problems=sorted(set(problems))), fh, indent=1, default=str)
    for p in sorted(set(problems))[:20]:
        print("CHECK FAILED: %s" % p, file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
