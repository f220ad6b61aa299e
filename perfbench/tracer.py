"""Per-layer tracing of orbitforge from outside the package.

``Tracer.install()`` replaces each public function named in ``WRAPPED`` by a
timing wrapper in every orbitforge module namespace that binds it (``from
.ratgeom import mcc`` makes separate bindings in nicecrit, ternary and
nilgeom, and functions that import lazily read the defining module's
binding).  Each call records a span (function, start, end, parent span);
spans stay in memory, and ``summary()`` turns them into call counts, self
times (span time minus the time covered by wrapped child spans) and a few
counts read from arguments and results.  ``uninstall()`` restores the
original bindings.

Run as a script, it traces one CLI invocation in a child process:

    python perfbench/tracer.py SUMMARY.json -- strata --d 4

``import_times()`` parses ``python -X importtime`` for the CLI's imports.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from time import perf_counter

WRAPPED = {
    "_exact": ("simplex_max", "rref"),
    "ratgeom": ("mcc", "interior_certificate", "barycentric"),
    "nicecrit": ("is_nice", "is_distinguished", "critical_coefficients"),
    "ternary": ("stratifying_set", "omega_weights", "maximal_nice_subsets"),
    "reps": ("moment_map", "moment_map_restricted", "project_sym_sp"),
    "nilgeom": ("validate", "verify_minimal", "sym_derivation_dim",
                "find_minimal_metric"),
    "flow": ("solve_moment_equation",),
}

VERDICTS = ("distinguished", "not_distinguished", "not_nice")
IMPORTED = ("orbitforge", "sympy", "networkx", "numpy", "click")


def function_key(module: str, name: str) -> str:
    """Metric prefix of a wrapped function; metric names start with a letter."""
    return "%s.%s" % (module.lstrip("_"), name)


def _simplex_cells(args, kwargs, result):
    # Tableau of simplex_max(objective, a_eq, b_eq): (m + 1) x (n + m + 1).
    n, m = len(args[0]), len(args[1])
    return {"exact.simplex_max.cells": (m + 1) * (n + m + 1)}


def _subsets(args, kwargs, result):
    return {"ternary.maximal_nice_subsets.subsets": len(result)}


def _verdict(args, kwargs, result):
    return {"nicecrit.verdict." + result.outcome: 1}


def _iterations(args, kwargs, result):
    return {"flow.solve_moment_equation.iterations": result.iterations}


# Counts read from a wrapped call's arguments and result: the metrics each
# reports, and the function computing them.
EXTRAS = {
    "exact.simplex_max": (["exact.simplex_max.cells"], _simplex_cells),
    "ternary.maximal_nice_subsets": (["ternary.maximal_nice_subsets.subsets"], _subsets),
    "nicecrit.is_distinguished": (["nicecrit.verdict." + v for v in VERDICTS], _verdict),
    "flow.solve_moment_equation": (["flow.solve_moment_equation.iterations"], _iterations),
}


def metric_names() -> list:
    """Every per-layer metric a traced run reports, in a fixed order."""
    out = []
    for module, names in WRAPPED.items():
        for name in names:
            key = function_key(module, name)
            out += [key + ".calls", key + ".self_s"] + EXTRAS.get(key, ([], None))[0]
    out += ["import.%s_s" % p for p in IMPORTED]
    out += ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"]
    return out


class Tracer:
    def __init__(self):
        self.spans = []      # [key, start, end, parent index]
        self.counts = {}     # extra counts read from arguments and results
        self._stack = []
        self._patched = []   # (module, attribute, original)

    def install(self) -> None:
        for module in WRAPPED:
            importlib.import_module("orbitforge." + module)
        modules = [m for name, m in list(sys.modules.items())
                   if name == "orbitforge" or name.startswith("orbitforge.")]
        for module, names in WRAPPED.items():
            home = sys.modules["orbitforge." + module]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(function_key(module, name), original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def _wrap(self, key, fn):
        extra = EXTRAS.get(key, (None, None))[1]
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [key, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = start
                stack.pop()
            if extra is not None:
                merge(counts, extra(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict:
        """Aggregate the spans: `<key>.calls`, `<key>.self_s` and the counts."""
        covered = [0.0] * len(self.spans)
        for key, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = dict(self.counts)
        for (key, start, end, _), child in zip(self.spans, covered):
            out[key + ".calls"] = out.get(key + ".calls", 0) + 1
            out[key + ".self_s"] = out.get(key + ".self_s", 0.0) + (end - start - child)
        return out


def merge(total: dict, part: dict) -> None:
    for name, value in part.items():
        total[name] = total.get(name, 0) + value


def import_times(env: dict, cwd: str) -> dict:
    """Cumulative import seconds of the CLI's heavy imports, from -X importtime.

    `import.orbitforge_s` is the whole of `orbitforge.cli` plus
    `orbitforge.flow` (which the CLI imports lazily and which brings numpy).
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import orbitforge.cli, orbitforge.flow"],
        env=env, cwd=cwd, capture_output=True, text=True, check=True)
    out = {"import.%s_s" % p: 0.0 for p in IMPORTED}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        top = not name[1:].startswith(" ")
        name = name.strip()
        seconds = int(cumulative) * 1e-6
        if name.startswith("orbitforge") and top:
            out["import.orbitforge_s"] += seconds
        elif name in IMPORTED and name != "orbitforge":
            out["import.%s_s" % name] = seconds
    return out


def _child(summary_path: str, cli_args: list) -> int:
    import orbitforge.cli
    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        orbitforge.cli.main(cli_args, standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(summary_path, "w") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    split = sys.argv.index("--")
    sys.exit(_child(sys.argv[1], sys.argv[split + 1:]))
