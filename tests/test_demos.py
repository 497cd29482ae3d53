"""Every demo script runs to completion without writing to stderr, and
prints the same under two string-hash seeds."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed)
        r = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=120)
        assert r.returncode == 0, r.stderr
        assert r.stderr == ""
        outputs.append(r.stdout)
    assert outputs[0] == outputs[1]
