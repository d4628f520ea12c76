"""Run two source trees of rlflab on the same configs and diff their outputs.

    python tools/diff_outputs.py PARENT CHANGE [--work DIR]

PARENT and CHANGE are source trees, each holding ``src/rlflab`` (a
``git archive`` or ``git clone`` of each commit will do).  Every config in
``tools/configs`` runs once per tree as ``python -m rlflab.cli run --suite
all``; the ``default`` config runs a second time under ``taskset -c 0``
when ``taskset`` exists, where ``split_rows`` starts no worker.
``rlf-lab run --help`` and ``rlf-lab catalog`` run once per tree too.

Every run writes into its own directory under WORK, with one
``RLFLAB_CACHE`` per tree, emptied before the first run so that both trees
start cold (a cached tail table written by another tree is never read).
Each run is compared on ``reports/``,
``summary.csv``, ``plots/``, stdout, stderr and its exit code.  In stdout
and stderr the tree's and the output directory's paths read ``<tree>`` and
``<out>``.  Differences are printed on stdout, so no output there means no
difference, and the exit status is 1 when there is one.  Progress, with
each run's exit code and wall time, goes to stderr.  A differing exit code
is a difference like any other: the comparison goes on.

Byte identity is promised on one machine and numpy version only, so this is
a tool to run by hand, not a test.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shutil
import subprocess
import sys
import time

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")


def _run(tree: str, argv: list, work: str, cpu0: bool = False) -> dict:
    """Outputs of ``python -m rlflab.cli *argv`` on ``tree``: stdout, stderr,
    the exit code and every file written under ``--out``, by name."""
    tree = os.path.abspath(tree)
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(work, exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(tree, "src"),
        RLFLAB_CACHE=os.path.join(os.path.dirname(work), "cache"),
    )
    cmd = [sys.executable, "-m", "rlflab.cli", *argv]
    if "--config" in argv:
        cmd += ["--out", out]
    if cpu0:
        cmd = ["taskset", "-c", "0", *cmd]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=work, capture_output=True)
    took = time.perf_counter() - start

    def placeholders(text: bytes) -> bytes:
        return text.replace(out.encode(), b"<out>").replace(
            tree.encode(), b"<tree>"
        )

    got = {
        "exit code": str(proc.returncode).encode(),
        "stdout": placeholders(proc.stdout),
        "stderr": placeholders(proc.stderr),
    }
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                got[os.path.relpath(path, out)] = fh.read()
    print(f"  {tree}: exit {proc.returncode}, {took:.1f} s", file=sys.stderr)
    return got


def _differences(label: str, a: dict, b: dict) -> list:
    """One line per side naming the outputs it lacks, then one line per
    output that differs, followed by its first differing lines."""
    lines = []
    for side, have, other in (("parent", a, b), ("change", b, a)):
        missing = sorted(set(other) - set(have))
        if missing:
            more = f" and {len(missing) - 3} more" if len(missing) > 3 else ""
            shown = ", ".join(missing[:3])
            lines.append(f"{label}: missing in {side}: {shown}{more}")
    for key in sorted(set(a) & set(b)):
        if a[key] != b[key]:
            diff = difflib.unified_diff(
                a[key].decode(errors="replace").splitlines(),
                b[key].decode(errors="replace").splitlines(),
                lineterm="",
                n=0,
            )
            shown = [d for d in diff if not d.startswith(("---", "+++", "@@"))]
            lines.append(f"{label}: {key} differs")
            lines += [f"    {d[:160]}" for d in shown[:6]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree of the parent commit")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument(
        "--work", default="diff-outputs-work", help="directory for run outputs"
    )
    args = parser.parse_args(argv)
    names = sorted(
        f[: -len(".cfg")] for f in os.listdir(CONFIG_DIR) if f.endswith(".cfg")
    )
    jobs = [("run-help", ["run", "--help"], False), ("catalog", ["catalog"], False)]
    for name in names:
        path = os.path.join(CONFIG_DIR, name + ".cfg")
        jobs.append((name, ["run", "--config", path, "--suite", "all"], False))
        if name == "default" and shutil.which("taskset"):
            jobs.append((name + "-cpu0", jobs[-1][1], True))

    found = []
    work = os.path.abspath(args.work)
    for side in ("parent", "change"):
        shutil.rmtree(os.path.join(work, side, "cache"), ignore_errors=True)
    for label, cli_args, cpu0 in jobs:
        print(label, file=sys.stderr)
        sides = [
            _run(tree, cli_args, os.path.join(work, side, label), cpu0)
            for side, tree in (("parent", args.parent), ("change", args.change))
        ]
        lines = _differences(label, *sides)
        for line in lines:
            print(line, flush=True)
        found += lines
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
