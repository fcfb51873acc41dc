"""End-to-end tests for the command-line front end."""
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from burgerslab import cli, noise, ratefn
from burgerslab.cli import (
    DEFAULTS,
    EXIT_CHECK,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    GIRSANOV_P_MIN,
    _chi2_sf,
    _density_tests,
    _field_to_csv,
    _unit_profile_control,
    main,
    read_field_csv,
)
from burgerslab.grids import Control, Grid, SpaceField, SpaceTimeField, ht_norm
from burgerslab.grids import write_lattice_csv
from burgerslab.noise import SeedSpec, girsanov_log_density, sample_sheet
from burgerslab.ratefn import SkeletonContext, apply_forward
from burgerslab.solvers import HEAT_BACKEND, SigmaSpec, heat_solve


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


SMALL_GRID = {"grid": {"nx": 24, "nt": 48, "T": 0.5}}


# ---------------------------------------------------------- configuration


class TestConfig:
    def test_dump_config_prints_defaults(self, capsys):
        assert main(["mc", "--dump-config"]) == EXIT_OK
        dumped = json.loads(capsys.readouterr().out)
        assert set(dumped) == set(DEFAULTS)
        assert dumped["grid"] == DEFAULTS["grid"]

    def test_precedence_file_env_flag(self, tmp_path, monkeypatch, capsys):
        # file over defaults, flag over file; a BURGERSLAB_* variable is no input
        cfg = write_config(tmp_path, "c.json", {"mc": {"seed": 1}})
        monkeypatch.setenv("BURGERSLAB_MC__SEED", "2")
        assert main(["mc", "--config", cfg, "--dump-config"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["mc"]["seed"] == 1
        assert main(["mc", "--config", cfg, "--seed", "3", "--dump-config"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["mc"]["seed"] == 3

    def test_environment_is_not_read(self, monkeypatch, capsys):
        monkeypatch.setenv("BURGERSLAB_MC__SEED", "2")
        assert main(["mc", "--dump-config"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == DEFAULTS

    def test_environment_leaves_mc_output_unchanged(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, "c.json", {
            "grid": {"nx": 16, "nt": 32, "T": 0.5}, "mc": {"eps_grid": [1e-2], "n_paths": 16},
        })
        reports = []
        for run in ("plain", "with_variable"):
            if run == "with_variable":
                monkeypatch.setenv("BURGERSLAB_MC__SEED", "2")
            out = tmp_path / run
            assert main(["mc", "--config", cfg, "--out", str(out), "--no-timestamp"]) == EXIT_OK
            reports.append((out / "stats.json").read_bytes())
        assert reports[0] == reports[1]

    def test_output_format_key_rejected(self, tmp_path, capsys):
        # fields have one format, the lattice CSV
        cfg = write_config(tmp_path, "c.json", {"output": {"format": "json"}})
        assert main(["deterministic", "--config", cfg, "--dump-config"]) == EXIT_USAGE
        assert "output.format" in capsys.readouterr().err

    def test_format_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["deterministic", "--format", "json", "--dump-config"])
        assert exc.value.code == EXIT_USAGE
        assert "--format" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"grid": {"nx": 8, "typo": 1}})
        assert main(["mc", "--config", cfg, "--dump-config"]) == EXIT_USAGE
        assert "unknown config key: grid.typo" in capsys.readouterr().err
        # the heat kernel takes no configuration
        cfg = write_config(tmp_path, "k.json", {"kernel": {"method": "auto"}})
        assert main(["kernel-check", "--config", cfg, "--dump-config"]) == EXIT_USAGE
        assert "unknown config key: kernel" in capsys.readouterr().err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "grid": {\n')
        assert main(["mc", "--config", str(path), "--dump-config"]) == EXIT_USAGE
        assert "line" in capsys.readouterr().err

    def test_module_invariants_revalidated(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"mc": {"n_paths": 0}})
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == EXIT_USAGE
        assert "n_paths" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("rate", "RATE__TOL", "inf"),
            ("girsanov-check", "GIRSANOV__ROUTE_TOL", "NaN"),
            ("girsanov-check", "GIRSANOV__EPS", "inf"),
        ],
    )
    def test_non_finite_tolerance_rejected(self, tmp_path, capsys, command, key, value):
        # key names the file's SECTION__KEY
        g = Grid(nx=16, nt=32, T=0.25)
        section, name = key.lower().split("__")
        data = {"grid": {"nx": 16, "nt": 32, "T": 0.25}, "girsanov": {"n_sheets": 50}}
        data.setdefault(section, {})[name] = float(value)
        cfg = write_config(tmp_path, "c.json", data)
        argv = [command, "--config", cfg, "--out", str(tmp_path / "run"), "--no-timestamp"]
        if command == "rate":
            target = tmp_path / "zero.csv"
            write_lattice_csv(target, SpaceTimeField.zero(g).frames, g)
            argv += ["--target", str(target)]
        assert main(argv) == EXIT_USAGE
        assert key.split("__")[1].lower() in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, env, flags, key",
        [
            ("mc", {"mc": {"r": math.nan}}, [], "mc.r"),
            ("mc", {"mc": {"r": math.inf}}, [], "mc.r"),
            ("mc", {"mc": {"eps_grid": [math.nan]}}, [], "mc.eps_grid"),
            ("mc", {"sigma": {"params": [math.nan]}}, [], "sigma.params"),
            ("mc", {"grid": {"T": math.inf}}, [], "grid.T"),
            ("mc", {"mc": {"use_importance": True, "importance_scale": -1}}, [],
             "importance_scale"),
            ("simulate", {}, ["--eps", "nan"], "eps"),
            ("simulate", {}, ["--eps", "inf"], "eps"),
            ("mc", {}, ["--seed", "-1"], "master_seed"),
            ("girsanov-check", {}, ["--seed", "-1"], "master_seed"),
            ("simulate", {}, ["--seed", "18446744073709551616"], "master_seed"),
            ("deterministic", {"grid": {"nx": 16.7}}, [], "grid.nx"),
            ("mc", {"mc": {"n_paths": 20.9}}, [], "mc.n_paths"),
            ("mc", {"mc": {"q_list": [2, 2.5]}}, [], "mc.q_list"),
            ("mc", {"mc": {"seed": 0.5}}, [], "mc.seed"),
            ("girsanov-check", {"girsanov": {"n_sheets": 100.5}}, [], "girsanov.n_sheets"),
            # wrong JSON types, each once read by a cast as something else
            ("mc", {"mc": {"use_importance": "False"}}, [], "mc.use_importance"),
            ("mc", {"mc": {"n_paths": True}}, [], "mc.n_paths"),
            ("deterministic", {"grid": {"nx": "16"}}, [], "grid.nx"),
            ("mc", {"sigma": {"kind": "constant", "params": [0.5, 7]}}, [],
             "sigma.params"),
            # well-typed values a library constructor rejects, named by config key
            ("mc", {"schedule": {"theta": None}}, [], "schedule.theta"),
            ("mc", {}, ["--seed", "-1"], "mc.seed"),
            ("mc", {"sigma": {"kind": "tabulated", "params": [[0, 0.5, 1], [1, 1]]}}, [],
             "sigma.params"),
            ("mc", {"mc": {"r": -1}}, [], "mc.r"),
            ("mc", {"mc": {"q_list": [1]}}, [], "mc.q_list"),
        ],
    )
    def test_non_finite_or_out_of_range_number_rejected(
        self, tmp_path, capsys, command, env, flags, key
    ):
        # env: the config file's values on top of the grid (the name keeps the test ids)
        data = {"grid": {"nx": 16, "nt": 32, "T": 0.25}}
        for section, values in env.items():
            data.setdefault(section, {}).update(values)
        cfg = write_config(tmp_path, "c.json", data)
        out = tmp_path / "run"
        argv = [command, "--config", cfg, "--out", str(out), "--no-timestamp", *flags]
        assert main(argv) == EXIT_USAGE
        assert key in capsys.readouterr().err
        assert not any(out.glob("*"))

    def test_integral_float_accepted_for_integer_key(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"grid": {**SMALL_GRID["grid"], "nx": 16.0}})
        out = tmp_path / "run"
        assert main(
            ["deterministic", "--config", cfg, "--out", str(out), "--no-timestamp"]
        ) == EXIT_OK
        assert read_field_csv(str(out / "solution.csv"))[1] == Grid(nx=16, nt=48, T=0.5)

    @pytest.mark.parametrize("key", [f"{s}.{k}" for s, keys in DEFAULTS.items() for k in keys])
    def test_wrong_type_names_key(self, tmp_path, monkeypatch, capsys, key):
        section, name = key.split(".")
        cfg = write_config(tmp_path, "c.json", {section: {name: {}}})
        out = tmp_path / "run"
        out.mkdir()
        monkeypatch.chdir(out)  # output.dir is "." unless it is the key under test
        assert main(["mc", "--config", cfg, "--no-timestamp"]) == EXIT_USAGE
        assert key in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_null_theta_accepted_without_moderate(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            **TestMc.CFG, "schedule": {"kind": "clt", "theta": None},
        })
        out = tmp_path / "run"
        assert main(["mc", "--config", cfg, "--out", str(out), "--no-timestamp"]) == EXIT_OK
        assert json.loads((out / "stats.json").read_text())["schedule"]["kind"] == "clt"

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = write_config(tmp_path, "c.json", SMALL_GRID)
        argv = ["deterministic", "--config", cfg, "--out", str(blocker / "run")]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "cannot write output" in err and err.count("\n") == 1


# -------------------------------------------------------------- commands


class TestDeterministic:
    def test_zero_initial_writes_zero_field(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", {**SMALL_GRID, "initial": {"kind": "zero"}}
        )
        out = tmp_path / "run"
        assert main(
            ["deterministic", "--config", cfg, "--out", str(out), "--no-timestamp"]
        ) == EXIT_OK
        frames, g = read_field_csv(str(out / "solution.csv"))
        assert g == Grid(nx=24, nt=48, T=0.5)
        assert np.all(frames == 0.0)

    def test_sine_energy_monotone(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", SMALL_GRID)
        out = tmp_path / "run"
        assert main(
            ["deterministic", "--config", cfg, "--out", str(out), "--no-timestamp"]
        ) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        e = summary["energy"]
        assert all(b <= a for a, b in zip(e, e[1:]))

    def test_metadata_names_heat_solve_backend(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", SMALL_GRID)
        texts = []
        for run in ("a", "b"):
            out = tmp_path / run
            argv = ["deterministic", "--config", cfg, "--out", str(out), "--no-timestamp"]
            assert main(argv) == EXIT_OK
            texts.append((out / "summary.json").read_text())
        assert texts[0] == texts[1]
        meta = json.loads(texts[0])["metadata"]
        assert meta["heat_solve"] == HEAT_BACKEND
        assert HEAT_BACKEND in ("lapack ?pttrs", "python recurrence")

    def test_instability_exits_3(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "grid": {"nx": 64, "nt": 16, "T": 1.0},
                "initial": {"kind": "sine", "amplitude": 5e5, "mode": 1},
            },
        )
        assert main(
            ["deterministic", "--config", cfg, "--out", str(tmp_path / "x")]
        ) == EXIT_NUMERICAL


class TestSimulate:
    def test_sigma_zero_reproduces_deterministic(self, tmp_path):
        base = {**SMALL_GRID, "sigma": {"kind": "constant", "params": [0.0]}}
        cfg = write_config(tmp_path, "c.json", base)
        det, sim = tmp_path / "det", tmp_path / "sim"
        common = ["--config", cfg, "--no-timestamp"]
        assert main(["deterministic", *common, "--out", str(det)]) == EXIT_OK
        assert main(["simulate", *common, "--out", str(sim)]) == EXIT_OK
        assert (det / "solution.csv").read_bytes() == (sim / "solution.csv").read_bytes()

    def test_same_seed_identical_files(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", SMALL_GRID)
        a, b = tmp_path / "a", tmp_path / "b"
        common = ["simulate", "--config", cfg, "--no-timestamp"]
        assert main([*common, "--out", str(a)]) == EXIT_OK
        assert main([*common, "--out", str(b)]) == EXIT_OK
        for name in ("solution.csv", "deviation.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_eps_zero_zero_deviation(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", SMALL_GRID)
        out = tmp_path / "run"
        assert main(
            ["simulate", "--config", cfg, "--eps", "0", "--out", str(out),
             "--no-timestamp"]
        ) == EXIT_OK
        frames, _ = read_field_csv(str(out / "deviation.csv"))
        assert np.all(frames == 0.0)


class TestMc:
    CFG = {
        "grid": {"nx": 24, "nt": 96, "T": 0.5},
        "mc": {"eps_grid": [1e-2, 2.5e-3], "n_paths": 64, "r": 0.12, "seed": 7},
    }

    def test_row_count_matches_eps_grid(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.CFG)
        out = tmp_path / "run"
        assert main(
            ["mc", "--config", cfg, "--out", str(out), "--no-timestamp"]
        ) == EXIT_OK
        lines = (out / "stats.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2
        report = json.loads((out / "stats.json").read_text())
        assert len(report["records"]) == 2

    def test_thread_count_invisible_in_output(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.CFG)
        dirs = []
        for threads in ("1", "4", "8"):
            out = tmp_path / f"t{threads}"
            assert main(
                ["mc", "--config", cfg, "--out", str(out), "--threads", threads,
                 "--no-timestamp"]
            ) == EXIT_OK
            dirs.append(out)
        ref_json = (dirs[0] / "stats.json").read_bytes()
        ref_csv = (dirs[0] / "stats.csv").read_bytes()
        for d in dirs[1:]:
            assert (d / "stats.json").read_bytes() == ref_json
            assert (d / "stats.csv").read_bytes() == ref_csv


    def test_invalid_records_exit_check_and_stay_strict_json(self, tmp_path):
        # sigma = 200 blows every path up: no record is valid, moments are NaN
        cfg = write_config(tmp_path, "c.json", {
            "grid": {"nx": 16, "nt": 16},
            "sigma": {"kind": "constant", "params": [200.0]},
            "mc": {"eps_grid": [1.0, 0.5], "n_paths": 32},
        })
        out = tmp_path / "run"
        assert main(
            ["mc", "--config", cfg, "--out", str(out), "--no-timestamp"]
        ) == EXIT_CHECK

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        report = json.loads((out / "stats.json").read_text(), parse_constant=reject)
        assert [r["valid"] for r in report["records"]] == [False, False]
        assert report["records"][0]["moments_u"] == {"2": None}

class TestKernelCheck:
    def test_default_bands_pass(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"grid": {"nx": 16, "nt": 32, "T": 0.5}})
        out = tmp_path / "run"
        assert main(
            ["kernel-check", "--config", cfg, "--out", str(out), "--no-timestamp"]
        ) == EXIT_OK
        report = json.loads((out / "kernel_report.json").read_text())
        assert report["all_pass"] is True
        items = {it["item"]: it for it in report["items"]}
        # the wall-flux defect is reported but never fatal
        assert "i" in items
        assert items["i-limit"]["pass"] is True
        mild = report["mild"]
        assert mild["pass"] is True
        assert mild["gap"] <= mild["budget"] == max(5.0 / 16**2, 10.0 * 1e-4)
        assert mild["iterations"] == len(mild["ratios"]) + 1
        assert all(0.0 < r < 1.0 for r in mild["ratios"])

    def test_mild_contraction_failure_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "grid": {"nx": 32, "nt": 64, "T": 0.25},
            "initial": {"kind": "sine", "amplitude": 25.0, "mode": 1},
            "solver": {"fp_max_iter": 12},
        })
        assert main(
            ["kernel-check", "--config", cfg, "--out", str(tmp_path / "run"), "--no-timestamp"]
        ) == EXIT_NUMERICAL

    def test_single_t_range_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"grid": {"nx": 16, "nt": 1, "T": 0.5}})
        assert main(
            ["kernel-check", "--config", cfg, "--out", str(tmp_path / "x")]
        ) == EXIT_USAGE


class TestRate:
    CFG = {"grid": {"nx": 16, "nt": 48, "T": 0.25}, "rate": {"tol": 1e-6, "max_iter": 600}}

    def _target(self, tmp_path, scale=0.5, sigma=SigmaSpec.cosine(1.0)):
        g = Grid(nx=16, nt=48, T=0.25)
        u0 = SpaceField.sample(g, lambda x: np.sin(np.pi * x))
        ctx = SkeletonContext.build(u0, g, sigma)
        vals = np.tile(np.sin(np.pi * g.x_interior()), (g.nt, 1))
        vals *= scale / ht_norm(vals, g)
        f = apply_forward(Control(vals, g), ctx)
        path = tmp_path / "target.csv"
        _field_to_csv(f.frames, g, str(path), "field")
        return str(path), 0.5 * scale**2

    def test_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.CFG)
        target, bound = self._target(tmp_path)
        out = tmp_path / "run"
        assert main(
            ["rate", "--config", cfg, "--target", target, "--out", str(out),
             "--no-timestamp"]
        ) == EXIT_OK
        result = json.loads((out / "rate_result.json").read_text())
        assert result["attained"] is True
        assert result["value"] <= bound + 1e-4
        assert result["residual"] <= 1e-6
        assert result["v_star_csv_path"] == "v_star.csv"
        v_vals, _ = read_field_csv(str(out / "v_star.csv"))
        assert v_vals.shape == (48, 15)

    def test_exact_route_runs_one_sweep(self, tmp_path, monkeypatch):
        # one forward sweep verifies the back-substituted control; no adjoint
        calls = []

        def counting_solve(factor, rhs):
            calls.append(1)
            return heat_solve(factor, rhs)

        cfg = write_config(tmp_path, "c.json", self.CFG)
        target, _ = self._target(tmp_path)
        monkeypatch.setattr(ratefn, "heat_solve", counting_solve)
        out = tmp_path / "run"
        assert main(
            ["rate", "--config", cfg, "--target", target, "--out", str(out),
             "--no-timestamp"]
        ) == EXIT_OK
        result = json.loads((out / "rate_result.json").read_text())
        assert len(calls) == 48
        assert result["method"] == "exact"
        assert result["iterations"] == 1
        assert len(result["residual_history"]) == 2

    def test_simulated_deviation_is_exact(self, tmp_path):
        # a sampled deviation is rough, and the lattice still inverts it in one sweep
        cfg = write_config(tmp_path, "c.json", self.CFG)
        sim, out = tmp_path / "sim", tmp_path / "run"
        assert main(
            ["simulate", "--config", cfg, "--out", str(sim), "--no-timestamp"]
        ) == EXIT_OK
        assert main(
            ["rate", "--config", cfg, "--target", str(sim / "deviation.csv"),
             "--out", str(out), "--no-timestamp"]
        ) == EXIT_OK
        result = json.loads((out / "rate_result.json").read_text())
        assert result["method"] == "exact"
        assert result["attained"] is True
        assert result["roughness"] > 1.0

    def test_vanishing_sigma_is_exact(self, tmp_path):
        # sigma = 0 on part of u_det's range: the masked preimage attains it
        tab = SigmaSpec.tabulated((-2.0, 0.5, 2.0), (0.0, 0.0, 1.0))
        cfg = write_config(tmp_path, "c.json", {
            **self.CFG, "sigma": {"kind": "tabulated", "params": [[-2, 0.5, 2], [0, 0, 1]]},
        })
        target, _ = self._target(tmp_path, sigma=tab)
        out = tmp_path / "run"
        assert main(
            ["rate", "--config", cfg, "--target", target, "--out", str(out),
             "--no-timestamp"]
        ) == EXIT_OK
        result = json.loads((out / "rate_result.json").read_text())
        assert result["attained"] is True
        assert result["method"] == "exact"

    def test_zero_target(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.CFG)
        g = Grid(nx=16, nt=48, T=0.25)
        path = tmp_path / "zero.csv"
        _field_to_csv(np.zeros((g.nt + 1, g.nx + 1)), g, str(path), "field")
        out = tmp_path / "run"
        assert main(
            ["rate", "--config", cfg, "--target", str(path), "--out", str(out),
             "--no-timestamp"]
        ) == EXIT_OK
        result = json.loads((out / "rate_result.json").read_text())
        assert result["value"] == 0.0
        assert result["attained"] is True

    def test_missing_target_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.CFG)
        assert main(
            ["rate", "--config", cfg, "--out", str(tmp_path / "x")]
        ) == EXIT_USAGE

    def test_grid_mismatch_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.CFG)
        g = Grid(nx=8, nt=48, T=0.25)
        path = tmp_path / "wrong.csv"
        _field_to_csv(np.zeros((g.nt + 1, g.nx + 1)), g, str(path), "field")
        assert main(
            ["rate", "--config", cfg, "--target", str(path),
             "--out", str(tmp_path / "x")]
        ) == EXIT_USAGE

    def test_library_field_is_a_target(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.CFG)
        target, bound = self._target(tmp_path)
        frames, g = read_field_csv(target)
        path = tmp_path / "library.csv"
        write_lattice_csv(path, frames, g)
        out = tmp_path / "run"
        assert main(
            ["rate", "--config", cfg, "--target", str(path), "--out", str(out),
             "--no-timestamp"]
        ) == EXIT_OK
        result = json.loads((out / "rate_result.json").read_text())
        assert result["attained"] is True
        assert result["value"] <= bound + 1e-4

    @pytest.mark.parametrize("defect", ["empty", "ragged_row", "uneven_x_header"])
    def test_malformed_target_is_usage_error(self, tmp_path, capsys, defect):
        cfg = write_config(tmp_path, "c.json", self.CFG)
        path = tmp_path / "bad.csv"
        g = Grid(nx=16, nt=48, T=0.25)
        write_lattice_csv(path, SpaceTimeField.zero(g).frames, g)
        rows = path.read_text().splitlines()
        if defect == "empty":
            rows = []
        elif defect == "ragged_row":
            rows[5] = rows[5].rsplit(",", 1)[0]
        else:
            header = rows[0].split(",")
            header[3] = "0.3"
            rows[0] = ",".join(header)
        path.write_text("".join(row + "\n" for row in rows))
        assert main(
            ["rate", "--config", cfg, "--target", str(path),
             "--out", str(tmp_path / "x")]
        ) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("burgerslab: cannot read field file")
        assert "Traceback" not in err


def test_control_csv_round_trip(tmp_path):
    g = Grid(nx=8, nt=11, T=0.1)
    vals = np.random.default_rng(17).standard_normal((g.nt, g.nx - 1))
    path = tmp_path / "control.csv"
    _field_to_csv(vals, g, str(path), "control")
    back, bg = read_field_csv(str(path))
    assert bg == g
    assert np.array_equal(back, vals)


class TestGirsanovCheck:
    def test_small_run_passes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "grid": {"nx": 16, "nt": 32, "T": 0.5},
                "girsanov": {"n_sheets": 500, "eps": 1e-3, "route_tol": 5e-2},
            },
        )
        out = tmp_path / "run"
        assert main(
            ["girsanov-check", "--config", cfg, "--out", str(out), "--no-timestamp"]
        ) == EXIT_OK
        report = json.loads((out / "girsanov_report.json").read_text())
        assert report["zero_control_mean"] == 1.0
        assert report["mean_within_3se"] is True
        assert report["route_gap"] <= report["route_tol"]

    def test_impossible_route_tol_fails_check(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "grid": {"nx": 16, "nt": 32, "T": 0.5},
                "girsanov": {"n_sheets": 200, "eps": 1e-3, "route_tol": 1e-18},
            },
        )
        assert main(
            ["girsanov-check", "--config", cfg, "--out", str(tmp_path / "x"),
             "--no-timestamp"]
        ) == EXIT_CHECK

    @pytest.mark.parametrize("mutated", [False, True], ids=["dtdx", "wall_weights"])
    def test_variance_test_catches_wall_weighted_density(self, tmp_path, monkeypatch, mutated):
        # the sheet's variance is dt*dx in every cell; a quadratic term that
        # weighs the wall-adjacent columns by 1.5*dx reads the unit sine
        # control's norm^2 as 1.25 at 4x8, so it overstates the variance of
        # S by a quarter
        if mutated:
            def wall_weighted(dW, v, h, g):
                w = np.full(g.nx - 1, g.dx)
                w[0] = w[-1] = 1.5 * g.dx
                quad = g.dt * np.sum((v * v) @ w)
                return -h * np.sum(v * dW, axis=(-2, -1)) - 0.5 * h * h * quad

            monkeypatch.setattr(noise, "_log_density", wall_weighted)
        cfg = write_config(tmp_path, "c.json", {"grid": {"nx": 4, "nt": 8}})
        out = tmp_path / "run"
        code = main(["girsanov-check", "--config", cfg, "--out", str(out), "--no-timestamp"])
        report = json.loads((out / "girsanov_report.json").read_text())
        assert report["n_sheets"] == DEFAULTS["girsanov"]["n_sheets"]
        assert report["variance_pass"] is not mutated
        assert code == (EXIT_CHECK if mutated else EXIT_OK)

    def test_variance_failure_alone_fails_check(self, tmp_path, monkeypatch):
        from burgerslab import cli

        # a chi-squared tail of 0 gives p = 0 whatever the sheets
        monkeypatch.setattr(cli, "_chi2_sf", lambda x, k: 0.0)
        cfg = write_config(tmp_path, "c.json", {"grid": {"nx": 16, "nt": 32, "T": 0.5},
                                                "girsanov": {"n_sheets": 200}})
        out = tmp_path / "run"
        code = main(["girsanov-check", "--config", cfg, "--out", str(out), "--no-timestamp"])
        report = json.loads((out / "girsanov_report.json").read_text())
        assert report["mean_within_3se"] and report["route_pass"]
        assert report["variance_p_value"] == 0.0 and not report["variance_pass"]
        assert code == EXIT_CHECK

    def test_variance_test_false_alarm_rate(self):
        # the chi-squared test at n = 200 over 300 seeds; each seed's sheets
        # are drawn as one batch, the law sample_sheet draws from
        g = Grid(nx=4, nt=4, T=1.0)
        v = _unit_profile_control(g).values
        s2 = -2.0 * float(noise._log_density(np.zeros_like(v), v, 1.0, g))
        n, seeds = 200, range(300)
        rejected = 0
        for seed in seeds:
            rng = np.random.default_rng(seed)
            dW = math.sqrt(g.dt * g.dx) * rng.standard_normal((n, g.nt, g.nx - 1))
            tests = _density_tests(noise._log_density(dW, v, 1.0, g), s2)
            rejected += not tests["variance_pass"]
        # the central 99.9% of Binomial(300, 0.137%)
        pmf = [math.comb(len(seeds), k) * GIRSANOV_P_MIN**k
               * (1 - GIRSANOV_P_MIN) ** (len(seeds) - k) for k in range(len(seeds) + 1)]
        cdf = np.cumsum(pmf)
        lo, hi = int(np.searchsorted(cdf, 0.0005, "right")), int(np.searchsorted(cdf, 0.9995))
        assert lo <= rejected <= hi, (rejected, lo, hi)


class TestChi2Tail:
    @pytest.mark.parametrize("x", [1e-8, 0.01, 0.5, 1.0, 2.9, 3.0, 3.1, 10.0, 40.0, 200.0])
    def test_closed_forms(self, x):
        # k = 1: P(Z^2 > x) = erfc(sqrt(x/2)); k = 2: an exponential with mean 2
        assert _chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-13)
        assert _chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-13)

    def test_edges(self):
        assert _chi2_sf(0.0, 5) == 1.0
        assert _chi2_sf(-1.0, 5) == 1.0
        assert _chi2_sf(math.inf, 5) == 0.0
        assert math.isnan(_chi2_sf(math.nan, 5))
        with pytest.raises(ValueError):
            _chi2_sf(1.0, 0)

    @pytest.mark.parametrize("k", [10, 200, 6000, DEFAULTS["girsanov"]["n_sheets"]])
    @pytest.mark.parametrize("q", [0.001, 0.5, 0.999])
    def test_matches_scipy(self, k, q):
        # scipy.stats.chi2 computes sf and ppf with these two; scipy.special
        # imports in a third of the time scipy.stats takes
        special = pytest.importorskip("scipy.special")
        x = 2.0 * special.gammaincinv(k / 2, q)
        assert _chi2_sf(x, k) == pytest.approx(special.chdtrc(k, x), rel=1e-9)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "burgerslab", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "burgerslab" in proc.stdout

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "burgerslab", "bogus"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_USAGE


class TestThreads:
    CFG = {
        "grid": {"nx": 16, "nt": 32, "T": 0.5},
        "mc": {"n_paths": 16},
        "girsanov": {"n_sheets": 150},
    }

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_usage_error(self, tmp_path, threads):
        cfg = write_config(tmp_path, "c.json", self.CFG)
        assert main(
            ["mc", "--config", cfg, "--out", str(tmp_path / "x"), "--threads", threads]
        ) == EXIT_USAGE

    @pytest.mark.parametrize("affinity", [True, False])
    def test_default_threads_are_the_available_cores(self, tmp_path, monkeypatch, affinity):
        # one CPU in the affinity set of a 64-core machine gives one worker; where
        # the OS has no affinity call, cpu_count decides
        seen = []
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        if affinity:
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli, "cmd_mc", lambda rc: seen.append(rc.mc.threads) or EXIT_OK)
        cfg = write_config(tmp_path, "c.json", self.CFG)
        assert main(["mc", "--config", cfg, "--out", str(tmp_path / "x")]) == EXIT_OK
        assert seen == [1 if affinity else 64]

    def test_girsanov_report_independent_of_threads(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.CFG)
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            assert main(
                ["girsanov-check", "--config", cfg, "--out", str(out),
                 "--threads", threads, "--no-timestamp"]
            ) == EXIT_OK
            reports.append((out / "girsanov_report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_girsanov_mean_is_the_direct_mean_bitwise(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.CFG)
        out = tmp_path / "x"
        assert main(
            ["girsanov-check", "--config", cfg, "--out", str(out), "--no-timestamp"]
        ) == EXIT_OK
        report = json.loads((out / "girsanov_report.json").read_text())
        g = Grid(**self.CFG["grid"])
        v = _unit_profile_control(g)
        weights = [
            math.exp(girsanov_log_density(sample_sheet(g, SeedSpec(0, i)), v, 1.0))
            for i in range(self.CFG["girsanov"]["n_sheets"])
        ]
        assert report["mean"] == float(np.mean(weights))
        assert report["seed"] == 0

    def test_girsanov_check_draws_sheet_zero_once_more(self, tmp_path, monkeypatch):
        keys = []
        real = noise._fill_sheets

        def counted(g, master_seed, indices, out):
            keys.extend(indices)
            return real(g, master_seed, indices, out)

        # every draw, kept sheet or streamed, goes through noise._fill_sheets
        monkeypatch.setattr(noise, "_fill_sheets", counted)
        cfg = write_config(tmp_path, "c.json", self.CFG)
        assert main(
            ["girsanov-check", "--config", cfg, "--out", str(tmp_path / "x"),
             "--threads", "2", "--no-timestamp"]
        ) == EXIT_OK
        # the martingale mean reads sheets 0..n-1; sheet 0 is drawn once
        # more and serves both the zero-control probe and the route check
        assert sorted(keys) == [0] + list(range(150))

    def test_girsanov_check_non_finite_sheet_fails_the_check(self, tmp_path, monkeypatch):
        # the streamed sheets are not scanned; a NaN must reach the tests
        # and surface as a failed check, not a crash or a pass
        real = noise._fill_sheets

        def poisoned(g, master_seed, indices, out):
            for i, key in zip(indices, real(g, master_seed, indices, out)):
                if i == 7:
                    out[3, 2] = np.nan
                yield key

        monkeypatch.setattr(noise, "_fill_sheets", poisoned)
        cfg = write_config(tmp_path, "c.json", self.CFG)
        out = tmp_path / "x"
        assert main(
            ["girsanov-check", "--config", cfg, "--out", str(out),
             "--threads", "2", "--no-timestamp"]
        ) == EXIT_CHECK
        report = json.loads((out / "girsanov_report.json").read_text())
        assert math.isnan(report["mean"])
        assert report["mean_within_3se"] is False
        assert report["variance_pass"] is False
