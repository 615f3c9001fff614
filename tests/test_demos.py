"""Every walkthrough in demos/ runs to completion against the package, with
warnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # warnings are errors here too: the test settings' filterwarnings does
    # not reach a subprocess
    done = subprocess.run([sys.executable, "-W", "error", "-X", "dev", str(demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
