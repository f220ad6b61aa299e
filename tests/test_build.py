"""A built (non-editable) package carries its data and runs from outside the checkout."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_built_package_ships_table2_and_runs_it(tmp_path):
    pytest.importorskip("setuptools")
    # A copy, so that building writes no egg-info into the checkout.
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    lib = tmp_path / "lib"
    built = subprocess.run([sys.executable, "-c", "from setuptools import setup; setup()",
                            "build_py", "--build-lib", str(lib)],
                           cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert built.returncode == 0, built.stderr
    assert (lib / "orbitforge" / "data" / "table2.json").is_file()
    # -S keeps any installed orbitforge (an editable one too) off the path.
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    env = dict(os.environ, PYTHONPATH=str(lib))
    out = subprocess.run([sys.executable, "-S", "-m", "orbitforge.cli", "table2", "--row", "16a"],
                         cwd=elsewhere, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0 and out.stderr == "", out.stderr
    payload = json.loads(out.stdout)
    assert payload["passed"] is True and [r["row"] for r in payload["rows"]] == ["16.(a)"]
