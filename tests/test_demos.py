"""Every demo runs to completion against the current package.

Each script runs in its own interpreter with ``src`` on ``PYTHONPATH``, in
the test's ``tmp_path``, which is also its temporary directory; a demo must
leave nothing behind there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))

# Per demo, the lines that check its results; each must end in True.
CHECKS = {
    "01_cluster_in_memory.py": (
        "reassignment counts identical at every iteration:",
        "wcss identical at every iteration:",
        "final assignments identical:",
        "final centroids identical bit for bit:",
    ),
    "04_out_of_core_io.py": (
        "same assignments in every variant, and the cache reads fewer bytes:",
    ),
}


def test_demos_found():
    assert DEMOS, "no demos found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.iterdir()), "the demo left files behind"
    lines = proc.stdout.splitlines()
    for prefix in CHECKS.get(demo.name, ()):
        found = [line for line in lines if line.startswith(prefix)]
        assert len(found) == 1, prefix
        assert found[0].endswith(": True"), found[0]
