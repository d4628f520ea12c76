"""The benchmark's tracer (``perfbench/tracer.py``) replaces names in
``rlflab`` modules by timed wrappers.  A name it wraps that goes missing
breaks traced runs only when one runs, so this installs the tracer in a
fresh interpreter, where an ``AttributeError`` fails the test.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import tracer
t = tracer.Tracer()
tracer.install(t)
import rlflab.cli as cli, rlflab.fields as fields
assert cli.mollify.__name__ == "traced"
assert fields.SeriesEvaluator.__name__ == "traced"
"""


def test_tracer_installs_on_every_wrapped_name():
    path = [str(ROOT / "perfbench"), str(ROOT / "src")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", INSTALL],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
