"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracer.py`` names orbitforge functions in ``WRAPPED``; a traced
benchmark run fails if one of them is renamed or deleted.  Installing the
tracer here makes that a test failure instead.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_tracer_installs_on_every_wrapped_function():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer
    finally:
        sys.path.remove(PERFBENCH)
    t = tracer.Tracer()
    try:
        t.install()
    except AttributeError as exc:
        pytest.fail("the benchmark traces a missing function: %s" % exc)
    finally:
        t.uninstall()
