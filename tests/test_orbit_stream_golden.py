"""Golden answers for one round of the benchmark's orbit-stream questions.

The 176 questions of ``gen.stream_round(1, 0)`` (``perfbench/gen.py``, plain
seeded data that imports no orbitforge) are answered the way the orbit-stream
workload answers them.  The digests pin every verdict (outcome, beta,
certificate, witness) and the exact part (terms and beta) of each minimal
metric found on a distinguished Sp(6) bracket, so that a change to the
weights, roots or LP kernels cannot move an answer unseen.
"""

import hashlib
import os
import sys

from orbitforge.coeffs import Coeff
from orbitforge.lattice import gl_roots, sp_diag_roots
from orbitforge.nicecrit import is_distinguished
from orbitforge.nilgeom import LieBracket, find_minimal_metric
from orbitforge.reps import RepVector, support, support_projected

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

VERDICTS_SHA256 = "e01eb6285b71a6fbaf0c1a070e815444526c040bf6ca265c6c6cee4b637e3a2c"
MINIMAL_SHA256 = "2a386ff79b34ab4cb18287c612bd4eb5f78dad76411010a5d2a1520bc84ff516"


def _stream_round(seed, round_no):
    sys.path.insert(0, PERFBENCH)
    try:
        import gen
    finally:
        sys.path.remove(PERFBENCH)
    return gen.stream_round(seed, round_no)


def _question(kind, payload):
    """(vector, weights, roots) as the orbit-stream workload builds them."""
    if kind == "form":
        v = RepVector.poly(3, sum(payload[0][0]), payload)
        return v, support(v), gl_roots(3)
    v = RepVector.bracket(6, [((i, j, k), Coeff.from_square(*c)) for i, j, k, c in payload])
    if kind == "sp6":
        return v, support_projected(v, 3), sp_diag_roots(3)
    return v, support(v), gl_roots(6)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_stream_round_verdicts_and_minimal_metrics_are_unchanged():
    questions = _stream_round(1, 0)
    assert len(questions) == 176
    verdicts, minimal = [], []
    for kind, payload in questions:
        v, weights, roots = _question(kind, payload)
        verdict = is_distinguished(weights, v.backend, roots)
        verdicts.append(repr((verdict.outcome, verdict.beta, verdict.certificate,
                              verdict.witness)))
        if verdict.outcome == "distinguished" and kind == "sp6":
            res = find_minimal_metric(LieBracket(v))
            minimal.append(repr((res.critical_bracket.sorted_terms(), res.beta)))
    assert minimal
    assert _digest(verdicts) == VERDICTS_SHA256
    assert _digest(minimal) == MINIMAL_SHA256
