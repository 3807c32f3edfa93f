"""Smoke runs of the fast demos: water fine structure, the layered
arrangement, the leaf stream API and custom tables."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_fast_demos_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    for demo in (
        "01_water_fine_structure.py",
        "04_layered_arrangement.py",
        "06_element_peak_stream.py",
        "07_custom_isotope_table.py",
    ):
        proc = subprocess.run(
            [sys.executable, str(REPO / "demos" / demo)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, f"{demo}: {proc.stderr}"
