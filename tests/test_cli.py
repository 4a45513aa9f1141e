"""Tests for the command-line front end: flag parsing and exit codes."""

import json

import pytest

from cyclab import experiments
from cyclab.cli import main, parse_eps_spec
from test_experiments import (POSITIVE_SUPPORT_AT_BUDGET_0, UNBOUNDED_SOLVER_DEGREES,
                              UNREACHABLE_COEFFS)


class TestEpsSpec:
    def test_decade_schedule(self):
        got = parse_eps_spec("1e-1:1e-6:x10")
        assert len(got) == 6
        for value, want in zip(got, [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]):
            assert abs(value - want) < 1e-12 * want

    def test_comma_list(self):
        assert parse_eps_spec("0.5,0.1,0.02") == [0.5, 0.1, 0.02]

    def test_rejects_unreachable_stop(self):
        with pytest.raises(ValueError, match="not reached"):
            parse_eps_spec("1e-1:3e-6:x10")

    def test_rejects_bad_syntax(self):
        with pytest.raises(ValueError):
            parse_eps_spec("1e-1:1e-6")
        with pytest.raises(ValueError):
            parse_eps_spec("1e-6:1e-1:x10")
        with pytest.raises(ValueError):
            parse_eps_spec("1e-1:1e-6:x0.5")


class TestExitCodes:
    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("middle_thirds", "non_carleson_n2", "h_k",
                     "smooth_vanishing", "z_minus_1"):
            assert name in out

    def test_flag_form_runs(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--experiment", "decay",
                "--preset", "middle_thirds",
                "--depth", "8",
                "--gamma", "1",
                "--p", "1.5",
                "--beta", "0",
                "--eps", "1e-1:1e-3:x10",
                "--grid", "2048",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "decay.csv").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_config_file_runs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "experiment": "classify",
                    "parameters": {"dim": 0.3, "p": 1.5, "beta": 0.0,
                                   "log_nonintegrable": True},
                    "output_dir": str(tmp_path / "out"),
                }
            )
        )
        assert main(["run", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["verdict"] == "cyclic_sufficient"

    def test_config_error_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(
            json.dumps(
                {
                    "experiment": "decay",
                    "parameters": {"set": "middle_thirds", "gamma": -1.0},
                    "output_dir": str(tmp_path / "never"),
                }
            )
        )
        assert main(["run", str(cfg)]) == 2
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("experiment, parameters, message", [
        ("norms", '{"coeffs": [[0, NaN, 0], [1, 1, 0]]}', "amplitudes"),
        ("certify", '{"preset": "z_minus_1", "degree_budget": 8, "epsilon_target": Infinity}',
         "epsilon_target"),
        ("decay", '{"set": "middle_thirds", "depth": 8, "grid": 4096, "beta": Infinity}',
         "beta"),
        ("decay", '{"set": "middle_thirds", "depth": 8, "grid": 4096, "gamma": 1%s}' % ("0" * 400),
         "gamma"),
    ], ids=["nan_amplitude", "infinite_epsilon_target", "infinite_beta", "int_past_float_gamma"])
    def test_non_finite_numbers_are_exit_2(self, tmp_path, capsys, experiment, parameters,
                                           message):
        # json.load reads NaN and Infinity; such configs used to run and report ok
        cfg = tmp_path / "nonfinite.json"
        cfg.write_text('{"experiment": "%s", "parameters": %s, "output_dir": %s}'
                       % (experiment, parameters, json.dumps(str(tmp_path / "never"))))
        assert main(["run", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_frequency_outside_int64_is_exit_2(self, tmp_path, capsys):
        # used to write a numerical_failure manifest and exit 3
        cfg = tmp_path / "huge_frequency.json"
        cfg.write_text(json.dumps({
            "experiment": "norms",
            "parameters": {"coeffs": [[10**30, 1.0, 0.0]], "p": 1.5},
            "output_dir": str(tmp_path / "never"),
        }))
        assert main(["run", str(cfg)]) == 2
        assert "int64" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("experiment, parameters", UNREACHABLE_COEFFS)
    def test_coeffs_the_solvers_cannot_reach_are_exit_2(self, tmp_path, capsys,
                                                        experiment, parameters):
        # each used to write a numerical_failure manifest and exit 3
        cfg = tmp_path / "unreachable.json"
        cfg.write_text(json.dumps({"experiment": experiment, "parameters": parameters,
                                   "output_dir": str(tmp_path / "never")}))
        assert main(["run", str(cfg)]) == 2
        assert "coeffs frequencies must" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_h_k_past_the_span_bound_is_exit_2(self, tmp_path, capsys):
        # k/(k+1) rounds to 1, so the tail rule has no degree; this used to
        # write a numerical_failure manifest ("float division by zero") and exit 3
        out = tmp_path / "d"
        assert main(["run", "--experiment", "norms", "--preset", "h_k",
                     "--k", "100000000000000000", "--out", str(out)]) == 2
        assert "h_k at k = 100000000000000000 cannot be built" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, parameters", UNBOUNDED_SOLVER_DEGREES)
    def test_solver_degree_past_the_span_bound_is_exit_2(self, tmp_path, capsys,
                                                          experiment, parameters):
        # certify ran without end, and szego exited 3 ("Unable to allocate 16.0 TiB")
        cfg = tmp_path / "unbounded.json"
        cfg.write_text(json.dumps({"experiment": experiment, "parameters": parameters,
                                   "output_dir": str(tmp_path / "never")}))
        assert main(["run", str(cfg)]) == 2
        assert "in [0, 2**20]" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_positive_support_at_budget_0_is_exit_2(self, tmp_path, capsys):
        # used to write a numerical_failure manifest and exit 3
        experiment, parameters = POSITIVE_SUPPORT_AT_BUDGET_0
        cfg = tmp_path / "positive.json"
        cfg.write_text(json.dumps({"experiment": experiment, "parameters": parameters,
                                   "output_dir": str(tmp_path / "never")}))
        assert main(["run", str(cfg)]) == 2
        assert "positive support needs degree_budget >= 1" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_numerical_failure_is_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "numfail.json"
        cfg.write_text(
            json.dumps(
                {
                    "experiment": "kel_ratio",
                    "parameters": {"set": "middle_thirds", "depth": 8,
                                   "gamma": 1.0, "delta_prime": 1.2,
                                   "grid": 1024, "eps": [20.0, 10.0]},
                    "output_dir": str(tmp_path / "partial"),
                }
            )
        )
        assert main(["run", str(cfg)]) == 3
        manifest = json.loads(
            (tmp_path / "partial" / "manifest.json").read_text()
        )
        assert manifest["status"] == "numerical_failure"

    def test_one_eps_decay_is_exit_2(self, tmp_path, capsys):
        # p_epsilon_decay compares two or more eps; one used to exit 3
        cfg = tmp_path / "one_eps.json"
        cfg.write_text(json.dumps({
            "experiment": "decay",
            "parameters": {"set": "middle_thirds", "depth": 6, "grid": 2048, "eps": [0.1]},
            "output_dir": str(tmp_path / "never"),
        }))
        assert main(["run", str(cfg)]) == 2
        assert "at least two eps" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_memory_error_is_exit_3(self, tmp_path, capsys, monkeypatch):
        # a grid too large to allocate used to escape as a traceback, exit 1
        def out_of_memory(params):
            raise MemoryError("cannot allocate the grid")

        monkeypatch.setitem(experiments.EXPERIMENTS, "carleson",
                            experiments.EXPERIMENTS["carleson"]._replace(handler=out_of_memory))
        cfg = tmp_path / "oom.json"
        cfg.write_text(json.dumps({
            "experiment": "carleson",
            "parameters": {"set": "middle_thirds", "depth": 6},
            "output_dir": str(tmp_path / "partial"),
        }))
        assert main(["run", str(cfg)]) == 3
        manifest = json.loads((tmp_path / "partial" / "manifest.json").read_text())
        assert manifest["status"] == "numerical_failure"
        assert manifest["error"] == "cannot allocate the grid"
        assert manifest["outputs"] == []

    def test_missing_config_file_is_exit_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    def test_invalid_json_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["run", str(cfg)]) == 2

    def test_config_and_flags_conflict(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        assert main(["run", str(cfg), "--experiment", "norms"]) == 2

    def test_no_config_no_flags(self, capsys):
        assert main(["run"]) == 2

    def test_unknown_flag_parameter_rejected(self, tmp_path, capsys):
        # --dim is a valid flag but not a decay parameter; strict validation
        # must reject the assembled config
        code = main(
            [
                "run",
                "--experiment", "decay",
                "--preset", "middle_thirds",
                "--dim", "0.5",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2


class TestThreadCap:
    def test_env_cap_applied(self, monkeypatch):
        from cyclab.cli import _apply_thread_cap

        monkeypatch.setenv("LAB_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        _apply_thread_cap()
        import os

        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"

    def test_existing_setting_wins(self, monkeypatch):
        from cyclab.cli import _apply_thread_cap

        monkeypatch.setenv("LAB_THREADS", "2")
        monkeypatch.setenv("OMP_NUM_THREADS", "8")
        _apply_thread_cap()
        import os

        assert os.environ["OMP_NUM_THREADS"] == "8"
