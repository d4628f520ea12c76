"""The benchmark's tracer (``perfbench/tracer.py``) replaces names in
``rlflab`` modules by timed wrappers.  A name it wraps that goes missing
breaks traced runs only when one runs, so this installs the tracer in a
fresh interpreter, where an ``AttributeError`` fails the test.  A table
that holds a wrapped function itself, instead of looking the name up when
it runs, keeps the tracer out silently; one traced run shows that as a
span that never recorded.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

INSTALL = """
import tracer
t = tracer.Tracer()
tracer.install(t)
import rlflab.cli as cli, rlflab.fields as fields
assert cli.mollify.__name__ == "traced"
assert fields.SeriesEvaluator.__name__ == "traced"
"""

# a small config: a cold table build takes about a second, and the combined
# field's sobolev part calibrates a witness
TINY_CONFIG = (
    "field = combined\nterms = 64\nh = 0.05\ntau = 0.01\nlevels = 4,8,16\n"
)


def _env(**extra):
    path = [str(PERFBENCH), str(ROOT / "src")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path), **extra}


def test_tracer_installs_on_every_wrapped_name():
    done = subprocess.run(
        [sys.executable, "-c", INSTALL],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_traced_run_records_every_timed_span(tmp_path):
    spec = importlib.util.spec_from_file_location("tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    sidecar = tmp_path / "sidecar.json"
    done = subprocess.run(
        [
            sys.executable,
            str(PERFBENCH / "child.py"),
            "trace",
            str(sidecar),
            "run",
            "--config",
            str(config),
            "--suite",
            "all",
            "--out",
            str(tmp_path / "out"),
        ],
        env=_env(RLFLAB_CACHE=str(tmp_path / "cache")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(sidecar.read_text())
    recorded = {span[0] for span in record["spans"]}
    assert set(tracer.TIMED_SPANS) <= recorded, set(tracer.TIMED_SPANS) - recorded
    assert record["counts"]["fields.series_table.cold"] == 1
