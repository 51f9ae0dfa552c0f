"""Every example script must run cleanly (small arguments where possible).

Each runs in a subprocess with ``src`` on ``PYTHONPATH``, as the README
runs them, so a script that calls a removed public name fails here.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES_DIR = ROOT / "examples"

CASES = [
    ("quickstart.py", []),
    ("grid_pathology.py", ["144", "0.15"]),
    ("fault_recovery.py", []),
    ("protocol_trace.py", []),
    ("mobility_stability.py", ["80", "16"]),
    ("hierarchical_routing.py", ["150", "0.15"]),
    ("energy_lifetime.py", ["80", "40"]),
]


def test_every_example_is_listed():
    assert sorted(path.name for path in EXAMPLES_DIR.glob("*.py")) == \
        sorted(script for script, _args in CASES)


@pytest.mark.parametrize("script,args", CASES,
                         ids=[case[0] for case in CASES])
def test_example_runs(script, args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script), *args],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"
