"""rlflab benchmark: ``rlf-lab run --suite all`` end to end, and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory and
the program is imported from its ``src``.  Each ``rlf-lab run`` is a fresh
single-threaded subprocess (``child.py``), one at a time.  With
``--trace 0`` whole runs repeat while the next would still end within
``--seconds`` (at least one runs), and the last stdout line carries the
end-to-end metrics; with
``--trace 1`` one traced run gives the per-layer metrics.  Every run's
reports are checked against ``reference/<workload>.json``.  State (tail
caches, scratch output, results and traces) lives in ``.perfbench/`` under
the root.  See ``NOTES.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

# config deltas from the rlflab defaults; ``warm`` workloads keep one tail
# cache per workload, cold ones start every run from an empty cache.  The
# short horizons ``T`` keep one run to a few seconds, so an invocation
# holds several runs and reports their median.
WORKLOADS = {
    "osgood-cold": {"config": {"terms": "100", "T": "0.05"}, "warm": False},
    "sobolev-all": {
        "config": {"field": "sobolev-singular", "T": "0.1"},
        "warm": True,
    },
}
REFERENCE_SEED = 20260809  # the config default of ``seed``
SETUP_SAMPLES = 5  # set-up timings per warm invocation (run plus probes)
# a child still running this long after the invocation started is killed;
# the first invocation in a checkout may also have to build the tail cache
DEADLINE_S = 170.0
FIRST_DEADLINE_S = 870.0
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "disk_write_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# --------------------------------------------------------------------------
# one subprocess
# --------------------------------------------------------------------------


def bytes_written(path: Path, before: dict) -> int:
    """Size of the files under ``path`` that are new or changed since
    ``before`` (a ``tracer.snapshot``)."""
    return sum(
        meta[0]
        for p, meta in tracing.snapshot(path).items()
        if before.get(p) != meta
    )


def spawn(mode, config, out_dir, cache_dir, sidecar, deadline) -> dict:
    """Run ``child.py`` once; times, exit code, peak RSS and the sidecar."""
    env = dict(os.environ, **SINGLE_THREAD)
    env["RLFLAB_CACHE"] = str(cache_dir)
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        mode,
        str(sidecar),
        "run",
        "--config",
        str(config),
        "--suite",
        "all",
        "--out",
        str(out_dir),
    ]
    log = out_dir.parent / (out_dir.name + ".log")
    cache_before = tracing.snapshot(cache_dir)
    with open(log, "w") as fh:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=fh, stderr=fh)
        killer = threading.Timer(max(0.0, deadline - spawned_at), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            exited_at = time.monotonic()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.monotonic() >= deadline:
        raise BenchError(f"{mode} run passed the invocation's deadline")
    try:
        record = json.loads(sidecar.read_text())
    except (OSError, ValueError):
        tail = log.read_text()[-2000:]
        raise BenchError(f"{mode} run wrote no sidecar:\n{tail}") from None
    if record["setup_at"] is None:
        raise BenchError(f"{mode} run never built a field")
    return {
        "exit_code": proc.returncode,
        "spawned_at": spawned_at,
        "exited_at": exited_at,
        "run_s": exited_at - spawned_at,
        "setup_s": record["setup_at"] - spawned_at,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cache_write_mb": bytes_written(cache_dir, cache_before) / 1e6,
        "out_write_mb": bytes_written(out_dir, {}) / 1e6,
        "record": record,
    }


# --------------------------------------------------------------------------
# reports against the reference
# --------------------------------------------------------------------------


def report_key(filename: str, report: dict) -> str:
    """Emission index plus estimate id: stable while report values drift."""
    return f"{filename[-8:-5]}:{report['estimate_id']}"


def read_reports(out_dir: Path) -> dict:
    reports = {}
    report_dir = out_dir / "reports"
    if not report_dir.is_dir():
        return reports
    for path in sorted(report_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        reports[report_key(path.name, doc)] = {
            "file": path.name,
            "verdict": doc["verdict"],
            "lhs": doc["lhs"],
            "rhs": doc["rhs"],
        }
    return reports


def check_reports(out_dir, exit_code, reference, seed) -> tuple:
    """(expected, failed, problems) for one run.

    A report fails when it is missing, its verdict differs, or, where the
    reference says its values do not depend on the seed or the seed is the
    reference seed, its lhs or rhs is off by more than ``rel_tol``.  A
    wrong exit code fails every report; unexpected extra reports are
    problems too.
    """
    expected = reference["reports"]
    if exit_code != reference["exit_code"]:
        return (
            len(expected),
            len(expected),
            [f"exit code {exit_code}, reference {reference['exit_code']}"],
        )
    got = read_reports(out_dir)
    tol = reference["rel_tol"]
    exact = seed == reference["seed"]
    failed, problems = 0, []
    for key, ref in expected.items():
        rep = got.get(key)
        if rep is None:
            why = "missing"
        elif rep["verdict"] != ref["verdict"]:
            why = f"verdict {rep['verdict']}, reference {ref['verdict']}"
        elif (exact or not ref["seed_dependent"]) and not all(
            math.isclose(rep[v], ref[v], rel_tol=tol, abs_tol=0.0)
            for v in ("lhs", "rhs")
        ):
            why = (
                f"lhs {rep['lhs']!r} rhs {rep['rhs']!r}, reference "
                f"{ref['lhs']!r} {ref['rhs']!r}"
            )
        else:
            continue
        failed += 1
        problems.append(f"{ref['file']}: {why}")
    for key in sorted(set(got) - set(expected)):
        problems.append(f"{got[key]['file']}: not in the reference")
    return len(expected), failed, problems


# --------------------------------------------------------------------------
# one invocation
# --------------------------------------------------------------------------


class Invocation:
    """Config, scratch paths and deadline of one benchmark invocation.

    ``spec`` is a ``WORKLOADS`` entry; ``state`` holds the tail caches,
    scratch output, untraced history and traces.
    """

    def __init__(
        self, workload, spec, seed, state=STATE, deadline_s=DEADLINE_S
    ):
        self.workload = workload
        self.seed = seed
        self.warm = spec["warm"]
        self.state = Path(state)
        self.tmp = self.state / "tmp" / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.tmp, ignore_errors=True)  # left by a killed run
        self.tmp.mkdir(parents=True)
        self.config = self.tmp / "run.cfg"
        lines = [f"{k} = {v}" for k, v in spec["config"].items()]
        self.config.write_text("\n".join(lines + [f"seed = {seed}"]) + "\n")
        self.deadline = time.monotonic() + deadline_s
        self._count = 0

    def cache_dir(self) -> Path:
        if self.warm:
            return self.state / "cache" / self.workload
        return self.tmp / f"cache-{self._count}"

    def run(self, mode: str) -> tuple:
        """One child run; returns (sample, output directory)."""
        self._count += 1
        out = self.tmp / f"out-{self._count}"
        cache = self.cache_dir()
        cache.mkdir(parents=True, exist_ok=True)
        sample = spawn(
            mode,
            self.config,
            out,
            cache,
            self.tmp / f"sidecar-{self._count}.json",
            self.deadline,
        )
        if not self.warm:
            shutil.rmtree(cache)
        return sample, out

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def supported_percentile(values) -> tuple:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None, None
    q = math.floor(100.0 * (n - 10) / n)
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "threads": SINGLE_THREAD,
    }


def untraced_history(inv: Invocation) -> list:
    """Untraced ``run_s`` values recorded for this workload so far."""
    path = inv.state / "history" / f"{inv.workload}.json"
    return json.loads(path.read_text()) if path.exists() else []


def record_untraced(inv: Invocation, run_times) -> None:
    path = inv.state / "history" / f"{inv.workload}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(untraced_history(inv) + list(run_times)))


def measure(inv: Invocation, seconds: float, reference: dict) -> dict:
    """Untraced runs plus set-up probes.

    Whole runs repeat while the next, as long as the last, would still end
    within ``seconds``; at least one runs.
    """
    runs, setups = [], []
    attempted = failed = 0
    problems = []
    started = time.monotonic()
    while not runs or (
        time.monotonic() - started + runs[-1]["run_s"] <= seconds
    ):
        sample, out = inv.run("plain")
        expected, bad, why = check_reports(
            out, sample["exit_code"], reference, inv.seed
        )
        attempted += expected
        failed += bad
        problems += why
        runs.append(sample)
        setups.append(sample["setup_s"])
    if inv.warm:
        while len(setups) < SETUP_SAMPLES:
            setups.append(inv.run("setup")[0]["setup_s"])
    samples = {
        "run_s": [r["run_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "disk_write_mb": [r["cache_write_mb"] + r["out_write_mb"] for r in runs],
        "cache_write_mb": [r["cache_write_mb"] for r in runs],
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": samples,
        "versions": runs[-1]["record"]["versions"],
    }


def measure_traced(inv: Invocation, reference: dict) -> dict:
    """One traced run; per-layer metrics and the trace's own checks."""
    history = untraced_history(inv)
    if not history:
        sample, _ = inv.run("plain")
        history = [sample["run_s"]]
    sample, out = inv.run("trace")
    attempted, failed, problems = check_reports(
        out, sample["exit_code"], reference, inv.seed
    )
    rec = sample["record"]
    spans = rec["spans"]
    metrics = tracing.summarize(
        spans,
        rec["counts"],
        rec["setup_at"],
        sample["spawned_at"],
        sample["exited_at"],
    )
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.median(
        history
    )
    metrics["cache_write_mb"] = sample["cache_write_mb"]
    metrics["report_fail_frac"] = failed / attempted
    bad_nesting = tracing.nesting_violations(spans)
    if bad_nesting:
        problems.append(f"{bad_nesting} spans lie outside their parent")
    if metrics["trace.unattributed_s"] < -1e-3:
        problems.append(
            "top-level spans and set-up exceed run_s by "
            f"{-metrics['trace.unattributed_s']:.4f} s"
        )
    trace_dir = inv.state / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{inv.workload}-seed{inv.seed}.json"
    trace_path.write_text(json.dumps(rec))
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "versions": rec["versions"],
        "spans": len(spans),
        "trace_file": str(trace_path),
    }


def load_reference(workload: str) -> dict:
    return json.loads((HERE / "reference" / f"{workload}.json").read_text())


def per_layer_units() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "rlflab" / "cli.py").is_file():
        print(f"error: no rlflab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an interrupt, so a running child is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    reference = load_reference(args.workload)
    deadline_s = DEADLINE_S if STATE.exists() else FIRST_DEADLINE_S
    inv = Invocation(
        args.workload, WORKLOADS[args.workload], args.seed, deadline_s=deadline_s
    )
    try:
        if inv.warm:
            inv.run("setup")  # fills the tail cache; not timed
        if args.trace:
            result = measure_traced(inv, reference)
        else:
            result = measure(inv, args.seconds, reference)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        inv.close()
    env = {**environment(), **result.pop("versions")}

    if args.trace:
        units = per_layer_units()
        metrics = {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        }
        for name, m in metrics.items():
            print(f"{args.workload:20s} {name:30s} {m['value']:14.6g} {m['unit']}")
    else:
        samples = result["samples"]
        record_untraced(inv, samples["run_s"])
        metrics = {}
        for name, vals in samples.items():
            q, pq = supported_percentile(vals)
            high = f"p{q} {pq:.6g}" if q else "p-: under 11 samples"
            print(
                f"{args.workload:20s} {name:15s} median "
                f"{statistics.median(vals):12.6g} max {max(vals):12.6g} "
                f"{high}  n={len(vals)}"
            )
        for name, unit in END_TO_END.items():
            metrics[name] = {
                "value": statistics.median(samples[name]),
                "unit": unit,
            }
        frac = result["failed"] / result["attempted"]
        print(f"{args.workload:20s} report_fail_frac {frac:.6g}")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print("environment: " + json.dumps(env, sort_keys=True))

    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (results / f"{stem}.json").write_text(
        json.dumps({"args": vars(args), "environment": env, **result}, indent=1)
    )
    print(
        json.dumps(
            {
                "correct": not result["problems"] and result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
