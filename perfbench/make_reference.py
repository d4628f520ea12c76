"""Write ``reference/<workload>.json`` from the current code.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload (all by default) at the reference seed and at one other
seed.  Exit code and verdicts must agree between the two; a report whose
lhs or rhs differs is marked ``seed_dependent``, and its values are then
checked only at the reference seed.  Regenerate only when a change is meant
to alter report values, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import run as bench

OTHER_SEED = 1
REL_TOL = 1e-9  # a reordered float sum moves a value by far less


def run_once(workload: str, seed: int) -> tuple:
    inv = bench.Invocation(workload, bench.WORKLOADS[workload], seed)
    try:
        if inv.warm:
            inv.run("setup")
        sample, out = inv.run("plain")
        return sample["exit_code"], bench.read_reports(out)
    finally:
        inv.close()


def make(workload: str) -> dict:
    code, reports = run_once(workload, bench.REFERENCE_SEED)
    other_code, other = run_once(workload, OTHER_SEED)
    if other_code != code or other.keys() != reports.keys():
        raise SystemExit(f"{workload}: exit code or report set depends on the seed")
    for key, rep in reports.items():
        if other[key]["verdict"] != rep["verdict"]:
            raise SystemExit(f"{workload}: verdict of {rep['file']} depends on the seed")
        rep["seed_dependent"] = any(other[key][v] != rep[v] for v in ("lhs", "rhs"))
    return {
        "workload": workload,
        "config": bench.WORKLOADS[workload]["config"],
        "seed": bench.REFERENCE_SEED,
        "rel_tol": REL_TOL,
        "exit_code": code,
        "reports": reports,
    }


def main(argv) -> int:
    for workload in argv or sorted(bench.WORKLOADS):
        ref = make(workload)
        path = bench.HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        dependent = sum(r["seed_dependent"] for r in ref["reports"].values())
        print(f"{workload}: {len(ref['reports'])} reports, {dependent} seed-dependent")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
