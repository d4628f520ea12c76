"""Experiment orchestration: config files, suites, reports, plots.

Config files are a flat ``key = value`` text format ('#' starts a comment);
the keys, their types and their defaults are the fields of
``ExperimentConfig``, and ``rlf-lab run --help`` prints the defaults.  Exit
codes: 0 all verdicts pass, 1 at least one estimate failed, 2 usage or config
error, or an estimate, flow, modulus or numerics error that stopped the run.
Outputs under the chosen directory are byte-deterministic for identical
configs: per-estimate JSON reports, a summary CSV, and fixed-canvas SVG plots
with no timestamps.
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
    SOBOLEV_CAP,
    FieldError,
    MollifierKernel,
    catalog_field,
    mollify,
)
from .flow import FlowError, integrate_ensemble
from .modulus import NAMED_KINDS, ModulusError, ModulusOfContinuity, PsiFunctional
from .numerics import NumericsError, ball_measure, make_grid, row_norms
from .reporting import reports_to_csv

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "run_experiment",
    "emit_plots",
    "main",
]

SUITES = ("stability", "cauchy", "regularity", "compactness", "weak-type", "all")
# radii, in units of R, of the balls each suite starts trajectories on:
# (every level, the top level); 0 reads none
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
    once; its modulus is its catalog entry's).  Each mollified level is
    integrated once per run, on the largest ball any chosen suite reads at
    that level (``SUITE_REACH``); every smaller ball is served as a row
    restriction of that ensemble, which equals a direct integration bit for
    bit.  A level whose integration flags non-finite
    trajectories stops the run with a ``FlowError``.
    """

    def __init__(self, cfg: ExperimentConfig, suites):
        self.cfg = cfg
        self._base = None
        self._moll: dict = {}
        self._wide: dict = {}
        self._reach = {
            n: max(_reach(cfg, name, n) for name in suites) for n in cfg.levels
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

    def mollified(self, level: int):
        if level not in self._moll:
            self._moll[level] = mollify(self.base_field(), MollifierKernel(level))
        return self._moll[level]

    def ensemble(self, level: int, radius: float):
        """Trajectories of level ``level`` started on B(radius)."""
        if level not in self._wide:
            self._wide[level] = self._integrate(level, self._reach[level])
        return self._wide[level].restrict(radius)

    def _integrate(self, level: int, radius: float):
        cfg = self.cfg
        grid = make_grid(cfg.d, radius, cfg.h)
        ens = integrate_ensemble(self.mollified(level), grid, cfg.T, cfg.tau)
        flagged = int(ens.flags.sum())
        if flagged:
            raise FlowError(
                f"level {level}: {flagged} of {grid.n_points} trajectories "
                f"from B({radius:g}) went non-finite"
            )
        return ens


def _reach(cfg: ExperimentConfig, suite: str, level: int) -> float:
    """Radius of the ball ``suite`` starts trajectories on at ``level``."""
    every, top = SUITE_REACH[suite]
    return (top if level == cfg.levels[-1] else every) * cfg.R


def _stability_suite(pipe: _Pipeline):
    cfg = pipe.cfg
    reports = []
    for i, n in enumerate(cfg.levels):
        for m in cfg.levels[i + 1 :]:
            fa, fb = pipe.mollified(n), pipe.mollified(m)
            ea = pipe.ensemble(n, _reach(cfg, "stability", n))
            eb = pipe.ensemble(m, _reach(cfg, "stability", m))
            for delta in cfg.deltas or (None,):
                reports.append(
                    stability_report(
                        fa, fb, ea, eb, cfg.R, delta=delta, slack=cfg.slack
                    )
                )
    return reports


def _cauchy_suite(pipe: _Pipeline):
    cfg = pipe.cfg
    fields = [pipe.mollified(n) for n in cfg.levels]
    ensembles = [pipe.ensemble(n, _reach(cfg, "cauchy", n)) for n in cfg.levels]
    return cauchy_diagnostic(
        pipe.base_field(), fields, ensembles, cfg.eta, cfg.R, slack=cfg.slack
    )


def _regularity_suite(pipe: _Pipeline):
    cfg = pipe.cfg
    top = cfg.levels[-1]
    ens = pipe.ensemble(top, _reach(cfg, "regularity", top))
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
    top = cfg.levels[-1]
    reports = []
    ens = pipe.ensemble(top, _reach(cfg, "compactness", top))
    for r in (cfg.R / 4.0, cfg.R / 8.0, cfg.R / 16.0):
        reports.append(compactness_a(ens, base, r, cfg.R, slack=cfg.slack))

    moll = [pipe.mollified(n) for n in cfg.levels]
    consts = translation_constants(
        base, moll, cfg.R, cfg.T, cfg.h, ens.times
    )
    radii = [cfg.R / 4.0 / 2**j for j in range(5)]
    radii = [r for r in radii if r >= cfg.h]
    for n in cfg.levels:
        e = pipe.ensemble(n, _reach(cfg, "compactness", n))
        for r in radii:
            reports.append(
                translation_functional(
                    e, r, cfg.R, consts, base.modulus, slack=cfg.slack
                )
            )
    return reports


def _weak_type_suite(pipe: _Pipeline):
    """lemma23 on B(R + lambda) in the run's dimension, over functions of
    r = |x|; ``singular_speed`` is the default ``sobolev-singular`` speed
    min(r^-alpha, cap)."""
    cfg = pipe.cfg
    region, lam = cfg.R, cfg.R
    grid = make_grid(cfg.d, region + lam, cfg.h)
    r = row_norms(grid.points)
    with np.errstate(divide="ignore"):  # r = 0 gives inf, capped below
        singular_speed = np.minimum(np.power(r, -SOBOLEV_ALPHA), SOBOLEV_CAP)
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
            _write_report(out, name, report, rows)
    with open(os.path.join(out, "summary.csv"), "w") as fh:
        fh.write(reports_to_csv(rows))
    emit_plots([r for _, r in rows], os.path.join(out, "plots"))
    return 0 if all(r.passed for _, r in rows) else 1


def _write_report(out, suite, report, rows):
    meta = report.metadata
    parts = [suite, report.estimate_id, str(meta.get("field", ""))]
    for key in ("n", "m"):
        v = meta.get(key, "")
        if v != "" and v is not None:
            parts.append(f"{key}{v}")
    r = report.constants.get("r")
    if r is not None:
        parts.append(f"r{r:.6g}")
    delta = report.constants.get("delta")
    if delta is not None:
        parts.append(f"d{delta:.3g}")
    slug = "_".join(parts).replace("/", "-")
    # keep names unique when a suite emits repeated shapes
    slug = f"{slug}_{sum(1 for _ in rows):03d}"
    with open(os.path.join(out, "reports", slug + ".json"), "w") as fh:
        fh.write(report.to_json() + "\n")


# --------------------------------------------------------------------------
# deterministic SVG plots
# --------------------------------------------------------------------------

_CANVAS = (640, 480)
_MARGIN = (70, 30, 40, 60)  # left, right, top, bottom
_PALETTE = ("#1b6ca8", "#c23b22", "#2e8540", "#8e6bbf", "#b8860b")


def _svg_line_plot(series, title, xlabel, ylabel) -> str:
    """Fixed-canvas line plot; floats rendered with %.6g, no timestamps."""
    width, height = _CANVAS
    ml, mr, mt, mb = _MARGIN
    inner_w, inner_h = width - ml - mr, height - mt - mb
    xs_all = np.concatenate([np.asarray(s[1], float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], float) for s in series])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(min(ys_all.min(), 0.0)), float(ys_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * inner_w

    def py(y):
        return mt + inner_h - (y - y_lo) / (y_hi - y_lo) * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
        f'font-size="14">{title}</text>',
    ]
    # axes
    parts.append(
        f'<line x1="{ml}" y1="{mt + inner_h}" x2="{ml + inner_w}" '
        f'y2="{mt + inner_h}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + inner_h}" '
        f'stroke="black"/>'
    )
    for i in range(5):
        xv = x_lo + (x_hi - x_lo) * i / 4.0
        yv = y_lo + (y_hi - y_lo) * i / 4.0
        parts.append(
            f'<text x="{px(xv):.1f}" y="{mt + inner_h + 16}" '
            f'text-anchor="middle" font-size="10">{xv:.6g}</text>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{py(yv) + 3:.1f}" text-anchor="end" '
            f'font-size="10">{yv:.6g}</text>'
        )
    parts.append(
        f'<text x="{ml + inner_w / 2:.1f}" y="{height - 8}" '
        f'text-anchor="middle" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + inner_h / 2:.1f}" text-anchor="middle" '
        f'font-size="12" transform="rotate(-90 16 {mt + inner_h / 2:.1f})">'
        f"{ylabel}</text>"
    )
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(
            f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(xs, ys)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        for x, y in zip(xs, ys):
            parts.append(
                f'<circle cx="{px(float(x)):.2f}" cy="{py(float(y)):.2f}" '
                f'r="2.5" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{ml + inner_w - 4}" y="{mt + 14 + 14 * idx}" '
            f'text-anchor="end" font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plots(reports, out_dir) -> list:
    """Write the suite plots; returns the written paths (empty = warning)."""
    if not reports:
        print("warning: no reports, no plots emitted", file=sys.stderr)
        return []
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def write(name, *plot):
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(_svg_line_plot(*plot))
        written.append(path)

    stab = [r for r in reports if r.estimate_id == "thm31"]
    if stab:
        stab = sorted(
            stab, key=lambda r: (r.metadata.get("n") or 0, r.metadata.get("m") or 0)
        )
        xs = list(range(1, len(stab) + 1))
        write(
            "stability_lhs_rhs.svg",
            [
                ("lhs", xs, [r.lhs for r in stab]),
                ("rhs", xs, [r.rhs for r in stab]),
            ],
            "stability functional vs bound (pairs ordered by level)",
            "pair index",
            "value",
        )

    cauchy = [r for r in reports if r.estimate_id == "cauchy"]
    doubling = [
        r
        for r in cauchy
        if r.metadata.get("m") == 2 * (r.metadata.get("n") or 0)
    ]
    if doubling:
        doubling = sorted(doubling, key=lambda r: r.metadata["n"])
        write(
            "cauchy_decay.svg",
            [
                (
                    "D(n,2n)",
                    [r.metadata["n"] for r in doubling],
                    [r.lhs for r in doubling],
                )
            ],
            "mollification flow gap",
            "level n",
            "D",
        )

    trans = [r for r in reports if r.estimate_id == "thm44"]
    if trans:
        by_level: dict = {}
        for r in trans:
            by_level.setdefault(r.metadata.get("n"), []).append(r)
        series = []
        for n in sorted(k for k in by_level if k is not None):
            group = sorted(by_level[n], key=lambda r: r.constants["r"])
            series.append(
                (
                    f"n={n}",
                    [g.constants["r"] for g in group],
                    [g.constants["g_of_r"] for g in group],
                )
            )
        if series:
            write("translation_g.svg", series, "translation bound g(r)", "r", "g(r)")
    return written


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
