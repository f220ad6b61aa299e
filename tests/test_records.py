"""Result records: immutable named tuples, and no dataclasses machinery on import."""

import os
import subprocess
import sys

import pytest

import orbitforge
from orbitforge.flow import NewtonResult
from orbitforge.lattice import gl_roots
from orbitforge.nicecrit import CriticalFamily, NiceWitness, Verdict
from orbitforge.nilgeom import MinimalMetricResult, MinimalReport, TableRowReport
from orbitforge.reps import BracketBackend, PolyBackend
from orbitforge.ternary import Stratum, StratumFamily, Table1RowReport

RECORDS = [PolyBackend, BracketBackend, NiceWitness, Verdict, CriticalFamily,
           StratumFamily, Stratum, Table1RowReport, MinimalReport,
           MinimalMetricResult, TableRowReport, NewtonResult]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_records_refuse_field_assignment(record):
    rec = record(*range(len(record._fields)))
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    with pytest.raises(AttributeError):
        rec.extra = None


def test_root_system_is_immutable_and_compares_by_value():
    rs = gl_roots(3)
    for name in ("n", "roots", "subgroup", "extra"):
        with pytest.raises(AttributeError):
            setattr(rs, name, None)
    assert rs == gl_roots(3) and hash(rs) == hash(gl_roots(3))
    assert rs != gl_roots(2)


def test_record_reprs_name_their_fields():
    assert repr(BracketBackend(6)) == "BracketBackend(n=6, kind='bracket')"
    assert repr(Verdict("not_nice")) == (
        "Verdict(outcome='not_nice', beta=None, certificate=None, witness=None)")


def _loaded_without_site(modules: str, names: set) -> str:
    """Those of ``names`` in sys.modules after importing ``modules`` under -S."""
    # -S: without site, every module loaded comes from these imports.
    probe = "import sys, %s; print(sorted(%r & set(sys.modules)))" % (modules, names)
    src = os.path.dirname(os.path.dirname(orbitforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                         text=True, check=True, env=env)
    return out.stdout.strip()


def test_package_imports_no_dataclasses_or_inspect():
    modules = "orbitforge.cli, orbitforge.ternary, orbitforge.nilgeom, orbitforge.flow"
    assert _loaded_without_site(modules, {"dataclasses", "inspect"}) == "[]"


def test_cli_imports_importlib_resources_only_for_the_table():
    # load_table2_fixture imports it; nothing else of the package needs it.
    modules = "orbitforge.cli, orbitforge.nilgeom"
    assert _loaded_without_site(modules, {"importlib.resources"}) == "[]"
