import dataclasses
import inspect
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from rlflab.cli import (
    SUITES,
    ConfigError,
    ExperimentConfig,
    emit_plots,
    main,
    parse_config,
    run_experiment,
)
from rlflab.estimates import EstimateError
from rlflab.fields import CATALOG
from rlflab.numerics import NumericsError
from rlflab.reporting import CSV_COLUMNS, EstimateReport


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        path = write_config(tmp_path, "field = osgood-sum\nR = 1.0\nT = 1.0\n")
        cfg = parse_config(path)
        assert cfg.h == 0.01
        assert cfg.tau == 1e-3
        assert cfg.levels == (4, 8, 16, 32)
        assert cfg.effective_epsilon() == pytest.approx(0.2)

    def test_non_integer_step_count(self, tmp_path):
        path = write_config(tmp_path, "T = 1.0\ntau = 0.3\n")
        with pytest.raises(ConfigError, match="not an integer"):
            parse_config(path)

    @pytest.mark.parametrize(
        "text, line", [("tau = 1e-320\n", 1), ("T = 1e300\ntau = 1e-10\n", 2)]
    )
    def test_step_count_past_float_range_exits_two(
        self, tmp_path, capsys, text, line
    ):
        path = write_config(tmp_path, text)
        argv = ["run", "--config", path, "--suite", "all", "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f":{line}: T/tau = inf is past the float range" in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_field_lists_catalog(self, tmp_path):
        path = write_config(tmp_path, "field = whirlpool\n")
        with pytest.raises(ConfigError, match="osgood-sum"):
            parse_config(path)

    def test_unknown_key_line_anchored(self, tmp_path):
        path = write_config(tmp_path, "R = 1.0\nbogus = 3\n")
        with pytest.raises(ConfigError, match=r":2:"):
            parse_config(path)

    def test_comments_and_blank_lines(self, tmp_path):
        path = write_config(
            tmp_path, "# experiment\n\nfield = constant  # id\nvalue = 2.0\n"
        )
        cfg = parse_config(path)
        assert cfg.field == "constant" and cfg.value == 2.0

    def test_duplicate_key(self, tmp_path):
        path = write_config(tmp_path, "R = 1.0\nR = 2.0\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_levels_must_ascend(self, tmp_path):
        path = write_config(tmp_path, "levels = 8,4\n")
        with pytest.raises(ConfigError, match="ascending"):
            parse_config(path)

    def test_custom_table_modulus_rejected(self, tmp_path):
        # a run's modulus is its field's: the config has no modulus key
        path = write_config(tmp_path, "R = 1.0\nmodulus = custom-table\n")
        with pytest.raises(ConfigError, match=r":2: unknown key 'modulus'"):
            parse_config(path)

    @pytest.mark.parametrize("key", ["seed", "slack", "cap"])
    def test_negative_value_line_anchored(self, tmp_path, capsys, key):
        path = write_config(tmp_path, f"field = sobolev-singular\n{key} = -3\n")
        with pytest.raises(ConfigError, match=f":2: {key} must be nonnegative"):
            parse_config(path)
        out = tmp_path / "out"
        code = main(["run", "--config", path, "--suite", "regularity",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-1", "4"])
    def test_dimension_line_anchored(self, tmp_path, capsys, value):
        path = write_config(tmp_path, f"field = constant\nd = {value}\n")
        with pytest.raises(ConfigError, match=":2: d must be 1, 2 or 3"):
            parse_config(path)
        code = main(["run", "--config", path, "--suite", "stability",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert ":2: d must be 1, 2 or 3" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            # the pair's other key is the one the file sets
            ("# R only\nfield = constant\nR = 0.001\n", ":3: grid spacing"),
            ("field = constant\nT = 0.0015\n", ":2: T/tau = 1.5"),
            # both set: the key named first anchors
            ("h = 0.5\nR = 0.2\n", ":1: grid spacing"),
            ("tau = 0.3\nT = 1.0\n", ":1: T/tau"),
        ],
    )
    def test_cross_key_errors_line_anchored(self, tmp_path, text, message):
        path = write_config(tmp_path, text, name="q.cfg")
        with pytest.raises(ConfigError, match=f"q.cfg{message}"):
            parse_config(path)

    def test_catalog_parameters_are_config_keys(self):
        keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
        for cid, make in CATALOG.items():
            dimension, *params = inspect.signature(make).parameters
            assert dimension == "dimension", cid
            assert set(params) <= keys, cid


FAST_CONSTANT = (
    "field = constant\nvalue = 1.0\nlevels = 4,8\n"
    "h = 0.05\ntau = 0.01\nseed = 7\n"
)


class TestRunExperiment:
    def test_stability_constant_pair(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, FAST_CONSTANT))
        cfg.out = str(tmp_path / "out")
        code = run_experiment(cfg, "stability")
        assert code == 0
        reports = sorted(os.listdir(os.path.join(cfg.out, "reports")))
        assert len(reports) == 1
        doc = json.loads(
            (tmp_path / "out" / "reports" / reports[0]).read_text()
        )
        assert doc["lhs"] == 0.0
        assert doc["verdict"] == "pass"

    def test_exit_code_two_on_corrupt_config(self, tmp_path):
        bad = write_config(tmp_path, "field osgood-sum\n")
        code = main(["run", "--config", bad, "--suite", "stability"])
        assert code == 2
        assert not os.path.exists("rlf-lab-out")

    def test_missing_config_file(self, tmp_path):
        code = main(
            ["run", "--config", str(tmp_path / "nope.cfg"), "--suite", "all"]
        )
        assert code == 2

    def test_cauchy_needs_three_levels(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, FAST_CONSTANT))
        cfg.out = str(tmp_path / "out")
        with pytest.raises(ConfigError):
            run_experiment(cfg, "cauchy")

    @pytest.mark.parametrize(
        "suite", ["regularity", "compactness", "weak-type", "all"]
    )
    def test_one_d_suite_rejects_d2(self, tmp_path, capsys, suite):
        path = write_config(tmp_path, "field = constant\nd = 2\n")
        out = tmp_path / "out"
        code = main(
            ["run", "--config", path, "--suite", suite, "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert f"the {suite} suite" in err and "d = 2" in err
        assert "Traceback" not in err
        assert not out.exists()  # rejected before any work

    @pytest.mark.parametrize("error", [EstimateError, NumericsError])
    def test_escaped_error_exits_two(self, tmp_path, monkeypatch, capsys, error):
        import rlflab.cli as cli

        def broken(pipe):
            raise error("grid does not cover the region")

        monkeypatch.setitem(cli.__dict__, "_weak_type_suite", broken)
        path = write_config(tmp_path, "field = constant\n")
        out = str(tmp_path / "out")
        code = main(["run", "--config", path, "--suite", "weak-type",
                     "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {error.__name__}: grid does not cover the region\n"

    def test_delta_below_bulk_floor_exits_two(self, tmp_path, capsys):
        # compactness radius R/16 = 6.25e-4 is below the bulk psi floor
        path = write_config(
            tmp_path,
            "field = constant\nR = 0.01\nh = 0.0005\nT = 0.1\ntau = 0.01\n",
        )
        code = main(["run", "--config", path, "--suite", "compactness",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ModulusError: bulk psi needs delta")
        assert len(err.strip().splitlines()) == 1

    def test_delta_below_psi_floor_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, FAST_CONSTANT + "deltas = 1e-20\n")
        code = main(["run", "--config", path, "--suite", "stability",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: ModulusError: psi needs delta >= ")

    def test_failed_allocation_exits_two(self, tmp_path, monkeypatch, capsys):
        empty = np.empty

        def no_memory(shape, *args, **kwargs):
            if isinstance(shape, tuple) and len(shape) == 3:
                raise MemoryError
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", no_memory)
        path = write_config(
            tmp_path, "field = constant\nd = 3\nh = 0.25\ntau = 0.01\n"
        )
        code = main(["run", "--config", path, "--suite", "stability",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: FlowError: cannot allocate")
        assert "(257, 101, 3) positions" in err and "GiB" in err
        assert len(err.strip().splitlines()) == 1

    def test_step_count_past_numpy_range_exits_two(self, tmp_path, capsys):
        # 5e298 steps parse, but no array of that length can be indexed
        path = write_config(
            tmp_path,
            "field = constant\nh = 0.05\nT = 0.05\ntau = 1e-300\n"
            "levels = 4,8,16\n",
        )
        code = main(["run", "--config", path, "--suite", "stability",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: FlowError: cannot allocate (41, 5e+298, 1) positions"
        )
        assert err.rstrip().endswith("GiB") and "e+" in err.split(":")[-1]
        assert len(err.strip().splitlines()) == 1

    def test_failed_lattice_allocation_exits_two(
        self, tmp_path, monkeypatch, capsys
    ):
        # the d = 3 calibration grid B(2) at h = 0.01 is cut from a 401^3
        # cube; fail any cube past 10^6 cells before it is allocated
        meshgrid = np.meshgrid

        def no_memory(*axes, **kwargs):
            if np.prod([len(a) for a in axes]) > 10**6:
                raise MemoryError
            return meshgrid(*axes, **kwargs)

        monkeypatch.setattr(np, "meshgrid", no_memory)
        path = write_config(
            tmp_path, "field = sobolev-singular\nd = 3\nh = 0.25\ntau = 0.01\n"
        )
        code = main(["run", "--config", path, "--suite", "stability",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            "error: GridError: cannot allocate the (401, 401, 401, 3) lattice "
            "cube of B(2) at spacing 0.01: 1.4 GiB\n"
        )

    def test_stability_one_distance_per_pair(self, tmp_path, monkeypatch):
        import rlflab.cli as cli
        import rlflab.estimates as estimates

        calls = []
        distance = estimates.field_l1_distance

        def counted(fa, fb, times, grid):
            calls.append((fa.mollification_level, fb.mollification_level))
            return distance(fa, fb, times, grid)

        # the CLI must not measure the distance itself
        for module in (cli, estimates):
            monkeypatch.setattr(
                module, "field_l1_distance", counted, raising=False
            )
        cfg = parse_config(
            write_config(tmp_path, FAST_CONSTANT.replace("4,8", "4,8,16"))
        )
        cfg.out = str(tmp_path / "out")
        assert run_experiment(cfg, "stability") == 0
        assert calls == [(4, 8), (4, 16), (8, 16)]

    @pytest.mark.parametrize(
        "suite, calls",
        [
            ("stability", [4, 8, 16, 32]),  # each level once, not 12 times
            ("compactness", [None]),  # the base field once, not 4 times
        ],
    )
    def test_divergence_measured_once_per_field_and_grid(
        self, tmp_path, monkeypatch, suite, calls
    ):
        import rlflab.fields as fields

        seen = []
        measure = fields.divergence_negative_part

        def counted(field, grid):
            seen.append(field.mollification_level)
            return measure(field, grid)

        monkeypatch.setattr(fields, "divergence_negative_part", counted)
        cfg = parse_config(
            write_config(tmp_path, FAST_CONSTANT.replace("4,8", "4,8,16,32"))
        )
        cfg.out = str(tmp_path / "out")
        assert run_experiment(cfg, suite) == 0
        assert sorted(seen, key=lambda n: n or 0) == calls

    def test_field_distance_measured_once_per_pair(self, tmp_path, monkeypatch):
        import rlflab.estimates as estimates

        calls = []
        distance = estimates.field_l1_distance

        def counted(fa, fb, times, grid):
            calls.append((fa.mollification_level, fb.mollification_level))
            return distance(fa, fb, times, grid)

        # thm31 and the Cauchy table read the same 6 distances: 6 calls, not 12
        monkeypatch.setattr(estimates, "field_l1_distance", counted)
        cfg = parse_config(
            write_config(tmp_path, FAST_CONSTANT.replace("4,8", "4,8,16,32"))
        )
        cfg.out = str(tmp_path / "out")
        assert run_experiment(cfg, "all") == 0
        assert sorted(calls) == [
            (4, 8), (4, 16), (4, 32), (8, 16), (8, 32), (16, 32)
        ]

    def test_base_witness_norm_measured_once(self, tmp_path, monkeypatch):
        import rlflab.estimates as estimates

        radii = []
        norm = estimates.witness_l1_norm

        def counted(field, times, grid):
            if field.mollification_level is None:
                radii.append(grid.radius)
            return norm(field, times, grid)

        # prop43 reads the base witness norm at 3 radii r: 1 call, not 3
        monkeypatch.setattr(estimates, "witness_l1_norm", counted)
        cfg = parse_config(
            write_config(tmp_path, FAST_CONSTANT.replace("4,8", "4,8,16,32"))
        )
        cfg.out = str(tmp_path / "out")
        assert run_experiment(cfg, "compactness") == 0
        assert radii == [pytest.approx(1.5 * cfg.R + 2.0 * cfg.T * cfg.value)]

    def test_determinism_byte_identical(self, tmp_path):
        cfg1 = parse_config(write_config(tmp_path, FAST_CONSTANT))
        cfg1.out = str(tmp_path / "a")
        cfg2 = parse_config(write_config(tmp_path, FAST_CONSTANT))
        cfg2.out = str(tmp_path / "b")
        run_experiment(cfg1, "stability")
        run_experiment(cfg2, "stability")

        def snapshot(root):
            out = {}
            for dirpath, _, files in os.walk(root):
                for name in files:
                    p = os.path.join(dirpath, name)
                    out[os.path.relpath(p, root)] = open(p, "rb").read()
            return out

        assert snapshot(cfg1.out) == snapshot(cfg2.out)

    def test_weak_type_suite(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, "field = constant\nh = 0.02\n"))
        cfg.out = str(tmp_path / "out")
        assert run_experiment(cfg, "weak-type") == 0
        csv_text = (tmp_path / "out" / "summary.csv").read_text()
        lines = csv_text.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 6  # five battery functions

    def test_csv_matches_json(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, FAST_CONSTANT))
        cfg.out = str(tmp_path / "out")
        run_experiment(cfg, "stability")
        csv_lines = (
            (tmp_path / "out" / "summary.csv").read_text().strip().splitlines()
        )
        row = csv_lines[1].split(",")
        report_files = os.listdir(os.path.join(cfg.out, "reports"))
        doc = json.loads(
            (tmp_path / "out" / "reports" / report_files[0]).read_text()
        )
        assert float(row[5]) == doc["lhs"]
        assert float(row[6]) == doc["rhs"]
        assert row[8] == doc["verdict"]

    def test_failure_gives_exit_one(self, tmp_path, monkeypatch):
        import rlflab.cli as cli

        bad_report = EstimateReport(
            "lemma23", 2.0, 1.0, {}, {"field": "synthetic"}, 0.0, 0.0
        )
        assert bad_report.verdict == "fail"
        monkeypatch.setitem(
            cli.__dict__, "_weak_type_suite", lambda pipe: [bad_report]
        )
        cfg = parse_config(write_config(tmp_path, "field = constant\n"))
        cfg.out = str(tmp_path / "out")
        assert run_experiment(cfg, "weak-type") == 1
        # partial artifacts are retained for debugging
        assert os.listdir(os.path.join(cfg.out, "reports"))


class TestPlots:
    def test_empty_reports_warn_no_files(self, tmp_path, capsys):
        written = emit_plots([], str(tmp_path / "plots"))
        assert written == []
        assert "no reports" in capsys.readouterr().err

    def test_single_stability_plot(self, tmp_path):
        rep = EstimateReport(
            "thm31", 1.0, 2.0, {}, {"field": "f", "n": 4, "m": 8}, 0.05, 0.0
        )
        written = emit_plots([rep], str(tmp_path))
        assert len(written) == 1
        text = open(written[0]).read()
        assert text.startswith("<svg")
        assert "lhs" in text and "rhs" in text

    def test_plot_determinism(self, tmp_path):
        rep = EstimateReport(
            "thm31", 1.0, 2.0, {}, {"field": "f", "n": 4, "m": 8}, 0.05, 0.0
        )
        a = emit_plots([rep], str(tmp_path / "a"))
        b = emit_plots([rep], str(tmp_path / "b"))
        assert open(a[0], "rb").read() == open(b[0], "rb").read()


# the epilog of ``rlf-lab run --help`` at 80 columns
RUN_HELP_EPILOG = """\
config keys and defaults: field = 'osgood-sum'; d = 1; terms = 1000; alpha =
0.3; cap = 0.0; value = 1.0; slope = -1.0; R = 1.0; T = 1.0; h = 0.01; tau =
0.001; levels = '4,8,16,32'; eta = 0.05; epsilon = 0.0; radii_depth = 6;
deltas = ''; slack = 0.05; seed = 20260809; out = 'rlf-lab-out'
"""


class TestSubcommands:
    def test_run_help_epilog(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert main(["run", "--help"]) == 0
        out = capsys.readouterr().out
        assert out[out.index("config keys"):] == RUN_HELP_EPILOG

    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "osgood-sum" in out and "loglog" in out

    def test_catalog_lists_what_commands_accept(self, capsys):
        # every listed modulus is one that ``psi`` accepts
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "fields:\n"
            "  constant\n  linear\n  osgood-sum\n  sobolev-singular\n"
            "  combined\n"
            "moduli:\n"
            "  linear\n  log\n  loglog\n"
        )
        moduli = out.split("moduli:\n")[1].split()
        for kind in moduli:
            argv = ["psi", "--modulus", kind, "--delta", "1.0", "--xi", "0.5"]
            assert main(argv) == 0
        capsys.readouterr()
        argv = ["psi", "--modulus", "custom-table", "--delta", "1.0", "--xi", "1"]
        assert main(argv) == 2

    def test_psi_linear_closed_form(self, capsys):
        assert main(["psi", "--modulus", "linear", "--delta", "1.0",
                     "--xi", str(np.e - 1.0)]) == 0
        val = float(capsys.readouterr().out.strip())
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_psi_rejects_bad_delta(self, capsys):
        assert main(["psi", "--modulus", "log", "--delta", "0",
                     "--xi", "1.0"]) == 2

    def test_psi_below_floor_exits_two(self, capsys):
        argv = ["psi", "--modulus", "linear", "--delta", "1e-300", "--xi", "0.05"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "ModulusError" in captured.err

    def test_psi_beyond_ratio_ceiling_exits_two(self, capsys):
        argv = ["psi", "--modulus", "loglog", "--delta", "1e-3", "--xi", "1e15"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ModulusError: psi needs xi <=")
        assert len(captured.err.strip().splitlines()) == 1

    def test_bad_usage_exit_two(self, capsys):
        assert main(["frobnicate"]) == 2


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "text, line",
        [
            ("R = nan\n", 1),
            ("h = 0.05\nT = nan\n", 2),
            ("h = nan\n", 1),
            ("field = constant\nvalue = nan\n", 2),
            ("field = linear\nslope = nan\n", 2),
            ("slack = nan\n", 1),
            ("R = inf\n", 1),
            ("deltas = 0.1,nan\n", 1),
        ],
    )
    def test_config_value_exits_two(self, tmp_path, capsys, text, line):
        out = tmp_path / "out"
        code = main(["run", "--config", write_config(tmp_path, text),
                     "--suite", "stability", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert f"exp.cfg:{line}: " in err and "finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["psi", "--modulus", "log", "--delta", "nan", "--xi", "1"],
            ["psi", "--modulus", "log", "--delta", "0.1", "--xi", "inf"],
            ["psi", "--modulus", "log", "--delta", "inf", "--xi", "1"],
            ["psi", "--modulus", "log", "--delta", "0.1", "--xi", "nan"],
        ],
    )
    def test_psi_argument_exits_two(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "finite" in captured.err

    def test_slack_override_exits_two(self, tmp_path, capsys):
        # the slack is the config key alone; an option for it is unknown
        out = tmp_path / "out"
        code = main(["run", "--config", write_config(tmp_path, FAST_CONSTANT),
                     "--suite", "stability", "--out", str(out),
                     "--slack", "5"])
        assert code == 2
        assert "unrecognized arguments: --slack 5" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_bytes(b"\xff\xfeh = 0.05\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--suite", "stability",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: cannot read config (")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "field = sobolev-singular\ncap = 1e-300\n",
            "field = sobolev-singular\ncap = 1e-40\nalpha = 0.1\n",
            "field = combined\ncap = 1e-200\n",
        ],
    )
    def test_cap_radius_past_float_range_runs(self, tmp_path, capsys, text):
        # cap^(-1/alpha) overflows: the field is the plateau cap e1 everywhere
        path = write_config(
            tmp_path, "h = 0.05\ntau = 0.01\nT = 0.05\nlevels = 4,8,16\n" + text
        )
        code = main(["run", "--config", path, "--suite", "all",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err


    @pytest.mark.parametrize(
        "text, start",
        [
            ("field = constant\nvalue = 1e300\n", "error: GridError: cannot"),
            ("field = constant\nvalue = 1e150\n", "error: GridError: cannot"),
            (
                "field = sobolev-singular\ncap = 1e300\n",
                "error: GridError: cannot",
            ),
        ],
    )
    def test_grid_too_large_to_index_exits_two(
        self, tmp_path, capsys, text, start
    ):
        # the thm31 norm ball B(R + T sup|b|) has no lattice numpy can index
        path = write_config(
            tmp_path, "h = 0.05\ntau = 0.01\nT = 0.1\nlevels = 4,8,16\n" + text
        )
        code = main(["run", "--config", path, "--suite", "all",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(start)
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_overflowing_compressibility_exits_two(self, tmp_path, capsys):
        # L = exp(T * 1000) overflows, so the thm31 right side is inf
        path = write_config(
            tmp_path, "field = linear\nslope = -1000\nh = 0.1\nT = 1\n"
        )
        code = main(["run", "--config", path, "--suite", "stability",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            "error: EstimateError: thm31 rhs is inf (non-finite: L, L_tilde)\n"
        )


class TestEnsemblePlan:
    """One RK4 integration per level, on the widest ball the suites read."""

    CONFIG = (
        "field = sobolev-singular\nlevels = 4,8,16\n"
        "h = 0.05\nT = 0.1\ntau = 0.01\n"
    )

    @pytest.mark.parametrize("suite", SUITES)
    def test_one_integration_per_level(self, tmp_path, monkeypatch, suite):
        import rlflab.cli as cli

        calls = []
        integrate = cli.integrate_ensemble

        def counted(field, grid, horizon, tau):
            calls.append((field.mollification_level, grid.radius))
            return integrate(field, grid, horizon, tau)

        monkeypatch.setattr(cli, "integrate_ensemble", counted)
        cfg = parse_config(write_config(tmp_path, self.CONFIG))
        cfg.out = str(tmp_path / "out")
        assert run_experiment(cfg, suite) in (0, 1)
        levels = [n for n, _ in calls]
        assert len(levels) == len(set(levels))
        if suite == "all":
            assert sorted(calls) == [(4, 1.5), (8, 1.5), (16, 3.0)]

    def test_compactness_alone_matches_all(self, tmp_path):
        def contents(root, prefix):
            names = sorted(os.listdir(os.path.join(root, "reports")))
            return [
                open(os.path.join(root, "reports", name), "rb").read()
                for name in names
                if name.startswith(prefix)
            ]

        cfg = parse_config(write_config(tmp_path, self.CONFIG))
        runs = {}
        for suite in ("compactness", "all"):
            cfg.out = str(tmp_path / suite)
            run_experiment(cfg, suite)
            runs[suite] = contents(cfg.out, "compactness_")
        assert len(runs["compactness"]) > 0
        assert runs["compactness"] == runs["all"]

    def test_non_finite_trajectory_exits_two(self, tmp_path, monkeypatch, capsys):
        import rlflab.cli as cli

        mollify = cli.mollify

        def poisoned(field, kernel):
            moll = mollify(field, kernel)
            ev = moll.evaluator

            def bad_ev(t, pts):
                out = ev(t, pts)
                if t == 0.0:  # poisons the two trajectories from x > 0.9
                    out[pts[:, 0] > 0.9] = np.nan
                return out

            return replace(moll, evaluator=bad_ev)

        monkeypatch.setattr(cli, "mollify", poisoned)
        out = tmp_path / "out"
        code = main(["run", "--config", write_config(tmp_path, FAST_CONSTANT),
                     "--suite", "stability", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            "error: FlowError: level 4: 2 of 41 trajectories from B(1) "
            "went non-finite\n"
        )


class TestFullPipeline:
    def test_all_suites_constant_field(self, tmp_path):
        text = (
            "field = constant\nvalue = 1.0\nlevels = 4,8,16\n"
            "h = 0.05\ntau = 0.01\n"
        )
        cfg = parse_config(write_config(tmp_path, text))
        cfg.out = str(tmp_path / "out")
        assert run_experiment(cfg, "all") == 0
        lines = (tmp_path / "out" / "summary.csv").read_text().strip().splitlines()
        assert len(lines) - 1 >= 10
        plots = os.listdir(tmp_path / "out" / "plots")
        assert "stability_lhs_rhs.svg" in plots
        assert "cauchy_decay.svg" in plots
        assert "translation_g.svg" in plots
