"""The README's quick-taste snippet runs, and its commented values hold."""

import re
from fractions import Fraction
from pathlib import Path

from orbitforge.ratgeom import Vec
from orbitforge.reps import RepVector

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_taste() -> str:
    text = README.read_text()
    start = text.index("```python\n", text.index("A quick taste:")) + len("```python\n")
    return text[start:text.index("```", start)]


def test_quick_taste_runs_and_its_comments_hold():
    code = _quick_taste()
    namespace = {}
    exec(code, namespace)
    # A bare expression commented with a repr, `res.beta  # Vec(...)`, must
    # evaluate to that repr; prose comments are not checked.
    checked = 0
    for line in code.splitlines():
        expr, _, comment = line.partition("#")
        if "=" not in expr and re.fullmatch(r"\w+\(.*\)", comment.strip()):
            assert repr(eval(expr, namespace)) == comment.strip(), line
            checked += 1
    assert checked >= 1
    res = namespace["res"]
    h = Fraction(1, 2)
    assert res.beta == Vec([-h, -h, 0, 0, h, h])
    assert isinstance(res.critical_bracket, RepVector)
    assert res.critical_bracket.backend.kind == "bracket"
