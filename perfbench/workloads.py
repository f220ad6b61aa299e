"""The workloads: set-up, one round of timed work, and output checks.

A workload has
    setup(seed)          -- import what it drives and build its inputs
    round(r, traced)     -- one round of fixed work; returns a Round
    check(output)        -- independent check of one operation's output
and may override warm_up(), close() and counted(output).
Rounds call orbitforge only through its public functions or its CLI, and
time only those calls.  Outputs are converted to plain data right after each
call (untimed) and checked after the timed phase, so that the checker's own
imports (numpy, scipy) never sit in the measured process's timings.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import checks
import gen
import tracer as tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


def child_env() -> dict:
    """Environment of every child process: one BLAS thread, fixed hashing."""
    env = dict(os.environ)
    env.pop("ORBITFORGE_THREADS", None)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Round:
    seconds: float = 0.0                          # summed time of the timed calls
    calls: list = field(default_factory=list)     # the workload's unit-call times
    extra: dict = field(default_factory=dict)     # named timings for the detail file
    outputs: list = field(default_factory=list)   # one per operation; None if it raised
    layers: dict = field(default_factory=dict)    # per-layer counts of a traced round
    traced: bool = False

    def time(self, fn, *args):
        start = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - start
        self.seconds += elapsed
        return result, elapsed


def _traced(fn) -> dict:
    """Run fn under an installed Tracer; return its per-layer summary."""
    t = tracing.Tracer()
    t.install()
    try:
        fn()
    finally:
        t.uninstall()
    return t.summary()


def _fracs(v) -> tuple:
    return tuple(Fraction(x) for x in v)


class Workload:
    """Defaults for the optional hooks."""

    def warm_up(self):
        pass

    def close(self):
        pass

    def counted(self, output) -> bool:
        """Whether an output stands for one operation."""
        return True


class TernaryClassify(Workload):
    """classify(4) and classify(5); an operation is one stratum."""

    name = "ternary-classify"
    degrees = (4, 5)

    def setup(self, seed):
        from orbitforge import ternary
        self.ternary = ternary

    def _classify_round(self, rnd):
        for d in self.degrees:
            try:
                strata, elapsed = rnd.time(self.ternary.classify, d)
            except Exception as exc:  # counted as one failed operation
                rnd.outputs.append(None)
                rnd.extra.setdefault("errors", []).append(repr(exc))
                continue
            rnd.extra["classify_d%d_s" % d] = elapsed
            if d == self.degrees[0]:
                rnd.calls.append(elapsed)
            data = [self._stratum(s) for s in strata]
            rnd.outputs += [("stratum", d, s) for s in data]
            rnd.outputs.append(("labels", d, data))

    @staticmethod
    def _stratum(s) -> dict:
        return {
            "beta": _fracs(s.beta),
            "omega": [_fracs(w) for w in s.omega],
            "families": [{
                "weights": [_fracs(w) for w in f.weights],
                "particular": _fracs(f.family.particular),
                "kernel": [_fracs(k) for k in f.family.kernel],
                "coefficient_squares": _fracs(f.family.coefficient_squares()),
            } for f in s.families],
        }

    def round(self, r, traced):
        rnd = Round()
        if traced:
            rnd.layers = _traced(lambda: self._classify_round(rnd))
        else:
            self._classify_round(rnd)
        return rnd

    def check(self, output):
        kind, d, data = output
        if kind == "stratum":
            checks.check_stratum(d, data)
        else:
            checks.check_labels(d, data)

    def counted(self, output) -> bool:
        # The label-set check of a classify call is not an operation.
        return output is None or output[0] == "stratum"


class OrbitStream(Workload):
    """A seeded stream of single orbit questions; an operation is one question.

    Each round draws fresh questions, so nothing repeats within a run.
    Distinguished Sp(6) brackets go on to find_minimal_metric.  Distinguished
    forms do not go on to solve_moment_equation: its Newton iteration stalls
    near residual 1e-8 on a few random coefficient choices (see CHANGES.md),
    which would fail runs on some seeds and not on others.
    """

    name = "orbit-stream"

    def setup(self, seed):
        import orbitforge.flow  # noqa: F401  find_minimal_metric imports it lazily
        from orbitforge import coeffs, lattice, nicecrit, nilgeom, reps
        self.of = dict(coeffs=coeffs, lattice=lattice, nicecrit=nicecrit,
                       nilgeom=nilgeom, reps=reps)
        self.seed = seed
        self.next_questions = gen.stream_round(seed, 0)

    def _answer(self, kind, payload):
        """One question, all orbitforge calls; returns plain data for the check."""
        of = self.of
        reps, lattice = of["reps"], of["lattice"]
        if kind == "form":
            d = sum(payload[0][0])
            v = reps.RepVector.poly(3, d, payload)
            weights = reps.support(v)
            roots = lattice.gl_roots(3)
        else:
            v = reps.RepVector.bracket(6, [((i, j, k), of["coeffs"].Coeff.from_square(*c))
                                           for i, j, k, c in payload])
            if kind == "sp6":
                weights = reps.support_projected(v, 3)
                roots = lattice.sp_diag_roots(3)
            else:
                weights = reps.support(v)
                roots = lattice.gl_roots(6)
        verdict = of["nicecrit"].is_distinguished(weights, v.backend, roots)
        out = {"kind": kind, "weights": [_fracs(w) for w in weights],
               "verdict": {
                   "outcome": verdict.outcome,
                   "beta": _fracs(verdict.beta) if verdict.beta is not None else None,
                   "certificate": verdict.certificate,
                   "witness": None if verdict.witness is None else {
                       "alpha_i": verdict.witness.alpha_i,
                       "alpha_j": verdict.witness.alpha_j,
                       "root": verdict.witness.root}}}
        if verdict.outcome == "distinguished" and kind == "sp6":
            start = perf_counter()
            res = of["nilgeom"].find_minimal_metric(of["nilgeom"].LieBracket(v))
            out["minimize_s"] = perf_counter() - start
            out["minimal"] = ([(i, j, k, float(c)) for (i, j, k), c in
                               res.critical_bracket.terms.items()],
                              _fracs(res.beta), res.residual)
        return out

    def _questions(self, rnd, questions):
        for kind, payload in questions:
            try:
                out, elapsed = rnd.time(self._answer, kind, payload)
            except Exception as exc:
                rnd.outputs.append(None)
                rnd.extra.setdefault("errors", []).append(repr(exc))
                continue
            rnd.calls.append(elapsed)
            name = "outcome.%s.%s" % (kind, out["verdict"]["outcome"])
            rnd.extra[name] = rnd.extra.get(name, 0) + 1
            if "minimize_s" in out:
                rnd.extra.setdefault("minimize_s", []).append(out["minimize_s"])
            rnd.outputs.append((kind, payload, out))

    def round(self, r, traced):
        questions = self.next_questions if r == 0 else gen.stream_round(self.seed, r)
        rnd = Round()
        if traced:
            rnd.layers = _traced(lambda: self._questions(rnd, questions))
        else:
            self._questions(rnd, questions)
        return rnd

    def check(self, output):
        kind, payload, out = output
        if kind == "form":
            terms = [e for e, _ in payload]
            group = "gl"
        else:
            terms = [(i, j, k) for i, j, k, _ in payload]
            group = "sp" if kind == "sp6" else "gl"
        checks.check_verdict(out["weights"], group, out["verdict"],
                             support=checks.support_weights(kind, terms),
                             exponents=terms if kind == "form" else None)
        if "minimal" in out:
            terms, beta, residual = out["minimal"]
            checks.require(beta == out["verdict"]["beta"], "minimal metric: beta moved")
            checks.check_critical_bracket(terms, beta, residual)


class CliCold(Workload):
    """Fresh `python -m orbitforge.cli` processes, one at a time."""

    name = "cli-cold"

    def setup(self, seed):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="cli-cold-", dir=OUT_DIR)
        form = gen.cli_form(seed)
        form_path = os.path.join(self.tmp, "form.json")
        with open(form_path, "w") as fh:
            json.dump([{"exponents": list(e), "coeff": str(c)} for e, c in form], fh)
        bracket_path = os.path.join(self.tmp, "bracket.json")
        with open(bracket_path, "w") as fh:
            json.dump([{"i": i + 1, "j": j + 1, "k": k + 1,
                        "coeff": {"sq": str(sq), "sign": sign}}
                       for i, j, k, (sq, sign) in gen.WORKED_BRACKET], fh)
        with open(os.path.join(ROOT, "src", "orbitforge", "data", "table2.json")) as fh:
            row = next(r for r in json.load(fh)["rows"] if r["name"] == "16.(a)")
        exps = sorted(e for e, _ in form)
        worked = sorted((i, j, k) for i, j, k, _ in gen.WORKED_BRACKET)
        sp_weights = list(dict.fromkeys(checks.support_weights("sp6", [t]).pop()
                                        for t in worked))
        # (name, arguments, check context); weights in the CLI's certificate
        # order, which follows the sorted input terms.
        self.calls = [
            ("strata", ["strata", "--d", "4"], {}),
            ("check-form", ["check", "--input", form_path],
             {"exponents": exps, "weights": [tuple(Fraction(-x) for x in e) for e in exps]}),
            ("check-sp", ["check", "--input", bracket_path, "--group", "sp"],
             {"weights": sp_weights}),
            ("minimize", ["minimize", "--input", bracket_path], {}),
            ("table2-row", ["table2", "--row", "16a"],
             {"row": row, "inst": row["instances"][0]}),
        ]
        self.env = child_env()

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def warm_up(self):
        """Untimed call that fills the bytecode cache."""
        self._spawn(self.calls[0][1])

    def _spawn(self, args, summary=None):
        if summary is None:
            cmd = [sys.executable, "-m", "orbitforge.cli", *args]
        else:
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "tracer.py"),
                   summary, "--", *args]
        return subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)

    def round(self, r, traced):
        rnd = Round()
        for name, args, context in self.calls:
            summary = os.path.join(self.tmp, "trace.json") if traced else None
            proc, elapsed = rnd.time(self._spawn, args, summary)
            rnd.calls.append(elapsed)
            rnd.extra.setdefault(name + "_s", []).append(elapsed)
            if proc.returncode != 0:
                rnd.outputs.append(None)
                rnd.extra.setdefault("errors", []).append(proc.stderr[-2000:])
                continue
            rnd.outputs.append((name, proc.stdout, context))
            if traced:
                with open(summary) as fh:
                    tracing.merge(rnd.layers, json.load(fh))
        return rnd

    def check(self, output):
        name, stdout, context = output
        lines = stdout.strip().splitlines()
        checks.require(len(lines) == 1, "%s: expected one JSON line", name)
        checks.check_cli(name, json.loads(lines[0]), context)

WORKLOADS = {w.name: w for w in (TernaryClassify, OrbitStream, CliCold)}
