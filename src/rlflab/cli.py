"""Experiment orchestration: config files, the run plan and the suites.

Config files are a flat ``key = value`` text format ('#' starts a comment);
the keys, their types and their defaults are the fields of
``ExperimentConfig``, and ``rlf-lab run --help`` prints the defaults.  Exit
codes: 0 all verdicts pass, 1 at least one estimate failed, 2 usage or config
error, or an estimate, flow, modulus or numerics error that stopped the run.
A run writes per-estimate JSON reports, a summary CSV and SVG plots under
the chosen directory.  ``reporting`` renders and names them, byte-
deterministic for identical configs; this module only opens and writes them.
"""

from __future__ import annotations

import argparse
import inspect
import math
import os
import sys
from dataclasses import dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .estimates import (
    EstimateError,
    cauchy_diagnostic,
    compactness_a,
    regularity_set,
    stability_report,
    translation_constants,
    translation_functional,
    weak_type_check,
)
from .fields import (
    CATALOG,
    SOBOLEV_ALPHA,
    FieldError,
    MollifierKernel,
    catalog_field,
    mollify,
    sobolev_profile,
)
from .flow import FlowError, integrate_ensemble
from .modulus import NAMED_KINDS, ModulusError, ModulusOfContinuity, PsiFunctional
from .numerics import NumericsError, ball_measure, make_grid
from .reporting import emit_plots, report_file_name, reports_to_csv

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "run_experiment",
    "main",
]

SUITES = ("stability", "cauchy", "regularity", "compactness", "weak-type", "all")
# radii, in units of R, of the balls each suite starts trajectories on:
# (every other level, the top level), indexed by ``level == top``; 0 reads
# none
SUITE_REACH = {
    "stability": (1.0, 1.0),
    "cauchy": (1.0, 1.0),
    "regularity": (0.0, 3.0),
    "compactness": (1.5, 1.5),
    "weak-type": (0.0, 0.0),
}


class ConfigError(Exception):
    """Schema violation; carries a line-anchored message."""


@dataclass
class ExperimentConfig:
    """The config schema: a config file sets any of these keys, parsed by
    the field's type (a tuple is written comma-separated).  ``cap = 0``
    keeps the field's default cap, and ``epsilon = 0`` reads 0.1 times the
    measure of B(R)."""

    field: str = "osgood-sum"
    d: int = 1
    terms: int = 1000
    alpha: float = SOBOLEV_ALPHA
    cap: float = 0.0
    value: float = 1.0
    slope: float = -1.0
    R: float = 1.0
    T: float = 1.0
    h: float = 0.01
    tau: float = 1e-3
    levels: tuple[int, ...] = (4, 8, 16, 32)
    eta: float = 0.05
    epsilon: float = 0.0
    radii_depth: int = 6
    deltas: tuple[float, ...] = ()
    slack: float = 0.05
    seed: int = 20260809
    out: str = "rlf-lab-out"

    def effective_epsilon(self) -> float:
        if self.epsilon > 0.0:
            return self.epsilon
        return 0.1 * ball_measure(self.d, self.R)


def _parse_value(kind, text: str):
    """``text`` as a value of the type ``kind``; raises ValueError."""
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        return tuple(item(v) for v in text.split(",")) if text else ()
    return kind(text)


def parse_config(path) -> ExperimentConfig:
    """Parse and validate the flat key = value schema."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config ({exc})") from exc
    schema = get_type_hints(ExperimentConfig)
    values: dict = {}
    line_of: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in schema:
            known = ", ".join(sorted(schema))
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r} (known: {known})"
            )
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _parse_value(schema[key], val)
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: cannot parse {key} value {val!r}"
            ) from None
        items = values[key] if isinstance(values[key], tuple) else (values[key],)
        if any(isinstance(v, float) and not math.isfinite(v) for v in items):
            raise ConfigError(f"{path}:{lineno}: {key} must be finite, got {val!r}")
        line_of[key] = lineno
    cfg = ExperimentConfig(**values)

    def anchored(key, message, other=None):
        """The error at the line of ``key``, else of ``other``, else 0."""
        line = line_of.get(key, line_of.get(other, 0))
        return ConfigError(f"{path}:{line}: {message}")

    if cfg.field not in CATALOG:
        raise anchored(
            "field",
            f"unknown field id {cfg.field!r}; catalog: " + ", ".join(CATALOG),
        )
    if cfg.d not in (1, 2, 3):
        raise anchored("d", "d must be 1, 2 or 3")
    for key in ("R", "T", "h", "tau", "eta"):
        if getattr(cfg, key) <= 0.0:
            raise anchored(key, f"{key} must be positive")
    if cfg.h >= cfg.R:
        raise anchored("h", "grid spacing must be smaller than R", "R")
    steps = cfg.T / cfg.tau
    if not math.isfinite(steps):
        raise anchored("tau", f"T/tau = {steps} is past the float range", "T")
    if abs(steps - round(steps)) > 1e-9:
        raise anchored("tau", f"T/tau = {steps} is not an integer", "T")
    if len(cfg.levels) < 1 or any(
        b <= a for a, b in zip(cfg.levels, cfg.levels[1:])
    ):
        raise anchored("levels", "levels must be ascending positive integers")
    if any(n < 1 for n in cfg.levels):
        raise anchored("levels", "levels must be positive")
    for key in ("slack", "cap", "epsilon", "seed"):
        if getattr(cfg, key) < 0:
            raise anchored(key, f"{key} must be nonnegative")
    return cfg


# --------------------------------------------------------------------------
# pipeline context with lazy, cached stages
# --------------------------------------------------------------------------


class _Pipeline:
    """Lazily built stages shared by the chosen suites.

    The cauchy, thm41, prop43 and thm44 bounds are stated with the rough
    field's constants, so those suites pass the base field itself (built
    once; its modulus is its catalog entry's).  Each level is mollified and
    integrated once per run, on the largest ball any chosen suite reads at
    that level (``SUITE_REACH``), and its ensemble carries the mollified
    field.  A suite asks for a level's ensemble by its own name and gets its
    ball as a row restriction of that ensemble, which equals a direct
    integration bit for bit and keeps the same field object, so values
    measured once on a level's field serve every suite.  A level whose
    integration flags non-finite trajectories stops the run with a
    ``FlowError``.
    """

    def __init__(self, cfg: ExperimentConfig, suites):
        self.cfg = cfg
        self._base = None
        self._wide: dict = {}
        top = cfg.levels[-1]
        # (suite, level) -> radius of the ball the suite reads at the level
        self._radius = {
            (name, n): SUITE_REACH[name][n == top] * cfg.R
            for name in suites
            for n in cfg.levels
        }
        self._reach = {
            n: max(self._radius[name, n] for name in suites) for n in cfg.levels
        }

    def base_field(self):
        if self._base is None:
            cfg = self.cfg
            params = inspect.signature(CATALOG[cfg.field]).parameters
            kwargs = {k: getattr(cfg, k) for k in params if k != "dimension"}
            if kwargs.get("cap") == 0.0:  # the field's default cap
                del kwargs["cap"]
            self._base = catalog_field(cfg.field, cfg.d, **kwargs)
        return self._base

    def ensemble(self, level: int, suite: str):
        """Trajectories of level ``level`` started on the ball ``suite``
        reads at that level."""
        if level not in self._wide:
            self._wide[level] = self._integrate(level, self._reach[level])
        return self._wide[level].restrict(self._radius[suite, level])

    def _integrate(self, level: int, radius: float):
        cfg = self.cfg
        grid = make_grid(cfg.d, radius, cfg.h)
        field = mollify(self.base_field(), MollifierKernel(level))
        ens = integrate_ensemble(field, grid, cfg.T, cfg.tau)
        flagged = int(ens.flags.sum())
        if flagged:
            raise FlowError(
                f"level {level}: {flagged} of {grid.n_points} trajectories "
                f"from B({radius:g}) went non-finite"
            )
        return ens


def _stability_suite(pipe: _Pipeline):
    cfg = pipe.cfg
    reports = []
    for i, n in enumerate(cfg.levels):
        for m in cfg.levels[i + 1 :]:
            ea = pipe.ensemble(n, "stability")
            eb = pipe.ensemble(m, "stability")
            for delta in cfg.deltas or (None,):
                reports.append(
                    stability_report(ea, eb, cfg.R, delta=delta, slack=cfg.slack)
                )
    return reports


def _cauchy_suite(pipe: _Pipeline):
    cfg = pipe.cfg
    ensembles = [pipe.ensemble(n, "cauchy") for n in cfg.levels]
    return cauchy_diagnostic(
        pipe.base_field(), ensembles, cfg.eta, cfg.R, slack=cfg.slack
    )


def _regularity_suite(pipe: _Pipeline):
    cfg = pipe.cfg
    ens = pipe.ensemble(cfg.levels[-1], "regularity")
    _, report = regularity_set(
        ens,
        pipe.base_field(),
        cfg.R,
        pipe.cfg.effective_epsilon(),
        depth=cfg.radii_depth,
        seed=cfg.seed,
        slack=cfg.slack,
    )
    return [report]


def _compactness_suite(pipe: _Pipeline):
    cfg = pipe.cfg
    base = pipe.base_field()
    ensembles = [pipe.ensemble(n, "compactness") for n in cfg.levels]
    reports = [
        compactness_a(ensembles[-1], base, r, cfg.R, slack=cfg.slack)
        for r in (cfg.R / 4.0, cfg.R / 8.0, cfg.R / 16.0)
    ]
    consts = translation_constants(base, ensembles, cfg.R)
    radii = [cfg.R / 4.0 / 2**j for j in range(5)]
    radii = [r for r in radii if r >= cfg.h]
    for ens in ensembles:
        for r in radii:
            reports.append(
                translation_functional(ens, r, cfg.R, consts, slack=cfg.slack)
            )
    return reports


def _weak_type_suite(pipe: _Pipeline):
    """lemma23 on B(R + lambda) in the run's dimension, over functions of
    r = |x|; ``singular_speed`` is the default ``sobolev-singular`` speed
    min(r^-alpha, cap), ``fields.sobolev_profile``."""
    cfg = pipe.cfg
    region, lam = cfg.R, cfg.R
    grid = make_grid(cfg.d, region + lam, cfg.h)
    singular_speed, r = sobolev_profile(grid.points)
    battery = [
        ("indicator_wide", (r <= 1.0).astype(float)),
        ("indicator_narrow", (r <= 0.5).astype(float)),
        ("constant_1.01", np.full_like(r, 1.01)),
        ("constant_0.505", np.full_like(r, 0.505)),
        ("singular_speed", singular_speed),
    ]
    alphas = [2.0**-k for k in range(7)]
    reports = []
    for name, samples in battery:
        rep = weak_type_check(
            grid, samples, region, lam, alphas, metadata={"field": name}
        )
        reports.append(rep)
    return reports


def run_experiment(cfg: ExperimentConfig, suite: str):
    """Run one suite (or all), write artifacts, return the exit code."""
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; options: {', '.join(SUITES)}")
    if suite in ("cauchy", "all") and len(cfg.levels) < 3:
        raise ConfigError("the cauchy suite needs at least 3 levels")
    if suite == "stability" and len(cfg.levels) < 2:
        raise ConfigError("the stability suite needs at least 2 levels")
    chosen = SUITES[:-1] if suite == "all" else (suite,)
    out = cfg.out
    try:
        os.makedirs(os.path.join(out, "reports"), exist_ok=True)
        os.makedirs(os.path.join(out, "plots"), exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}")
    if not os.access(out, os.W_OK):
        raise ConfigError(f"output directory {out} is not writable")

    pipe = _Pipeline(cfg, chosen)
    runners = {
        "stability": _stability_suite,
        "cauchy": _cauchy_suite,
        "regularity": _regularity_suite,
        "compactness": _compactness_suite,
        "weak-type": _weak_type_suite,
    }
    rows = []
    for name in chosen:
        for report in runners[name](pipe):
            rows.append((name, report))
            _write_report(out, name, report, len(rows))
    with open(os.path.join(out, "summary.csv"), "w") as fh:
        fh.write(reports_to_csv(rows))
    emit_plots([r for _, r in rows], os.path.join(out, "plots"))
    return 0 if all(r.passed for _, r in rows) else 1


def _write_report(out, suite, report, index):
    path = os.path.join(out, "reports", report_file_name(suite, report, index))
    with open(path, "w") as fh:
        fh.write(report.to_json() + "\n")


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rlf-lab",
        description="flow-estimate laboratory: run verification suites, "
        "inspect the field catalog, evaluate the separation functional",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="run a verification suite from a config file",
        epilog="config keys and defaults: "
        + "; ".join(
            f"{k} = {(','.join(map(str, d)) if isinstance(d, tuple) else d)!r}"
            for k, d in vars(ExperimentConfig()).items()
        ),
    )
    run.add_argument("--config", required=True, help="path to key=value config")
    run.add_argument("--suite", required=True, choices=SUITES)
    run.add_argument("--out", help="override the output directory")

    sub.add_parser("catalog", help="list catalog fields and modulus kinds")

    psi = sub.add_parser("psi", help="evaluate the separation functional")
    psi.add_argument("--modulus", required=True, choices=NAMED_KINDS)
    psi.add_argument("--delta", type=float, required=True)
    psi.add_argument("--xi", type=float, required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "catalog":
        print("fields:")
        for cid in CATALOG:
            print(f"  {cid}")
        print("moduli:")
        for kind in NAMED_KINDS:
            print(f"  {kind}")
        return 0
    if args.command == "psi" and not (
        0.0 < args.delta < math.inf and 0.0 <= args.xi < math.inf
    ):
        print("psi needs finite delta > 0 and xi >= 0", file=sys.stderr)
        return 2
    try:
        if args.command == "psi":
            fam = PsiFunctional(ModulusOfContinuity(args.modulus), args.delta)
            print(repr(fam.psi(args.xi)))
            return 0
        cfg = parse_config(args.config)
        if args.out:
            cfg.out = args.out
        return run_experiment(cfg, args.suite)
    except (ConfigError, FieldError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (EstimateError, FlowError, ModulusError, NumericsError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
