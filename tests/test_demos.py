"""Each demo, run as a script, prints exactly its golden output.

The goldens live in ``tests/golden/<demo>.txt``.  After a deliberate
change to a demo, re-record one with
``PYTHONPATH=src python3 demos/<demo>.py > tests/golden/<demo>.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden():
    goldens = sorted(p.stem for p in (ROOT / "tests" / "golden").glob("*.txt"))
    assert goldens == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                            capture_output=True, check=True)
    assert result.stdout == (ROOT / "tests" / "golden" / f"{demo.stem}.txt").read_bytes()
