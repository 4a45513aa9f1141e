"""Each benchmark check passes on a sound result and fails on a broken one.

    python3 -m pytest perfbench/test_checks.py -q
"""

import json
import signal
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from cyclab import engine, experiments, fourier, presets  # noqa: E402

P15 = fourier.SpaceIndex(1.5, 0.0)
P2 = fourier.SpaceIndex(2.0, 0.0)
DEGREE = 16


def _z_minus_1_infimum():
    f = presets.z_minus_1()
    res = engine.bicyclicity_infimum(f, P15, "all_integers", DEGREE)
    return checks.dense(f.coeffs), res


def test_bracket_rejects_a_scaled_two_sided_norm():
    f, res = _z_minus_1_infimum()
    bracket = checks.two_sided_bracket(f, DEGREE, P15.p)
    assert checks.in_bracket("norm", res.value, bracket) == []
    assert checks.in_bracket("norm", 1.2 * res.value, bracket) != []


def test_bracket_rejects_a_shift_norm_below_the_l2_infimum():
    f = presets.build_function(
        "smooth_vanishing",
        {"set": "middle_thirds", "depth": 6, "grid": 2048, "truncate": 256},
    )
    res = engine.forward_shift_infimum(f, P2, DEGREE)
    lb, ub = checks.shift_bracket(checks.dense(f.coeffs), DEGREE, P2.p)
    assert 0.0 < lb < ub
    assert checks.in_bracket("shift", res.value, (lb, ub)) == []
    assert checks.in_bracket("shift", 0.9 * res.value, (lb, ub)) != []


def test_reevaluation_rejects_a_polynomial_that_disagrees():
    f, res = _z_minus_1_infimum()
    poly = dict(res.polynomial.coeffs)
    assert checks.reevaluate("P", res.value, f, poly, P15.p) == []
    # P is a minimizer, so the norm moves only to second order: 1e-3 -> ~1e-6
    poly[0] += 1e-3
    assert checks.reevaluate("P", res.value, f, poly, P15.p) != []


def test_identity_check_rejects_a_changed_byte(tmp_path):
    config = {"experiment": "norms",
              "parameters": {"preset": "h_k", "k": 5, "p": 2.0, "beta": 0.0}}
    names = ["report.json", "norms.csv"]
    for name in ("first", "second"):
        experiments.run(dict(config, output_dir=str(tmp_path / name)))
    assert checks.identical_files("norms", tmp_path / "first", tmp_path / "second",
                                  names) == []
    report = tmp_path / "second" / "report.json"
    data = bytearray(report.read_bytes())
    data[data.index(b"9")] = ord("8")
    report.write_bytes(bytes(data))
    assert checks.identical_files("norms", tmp_path / "first", tmp_path / "second",
                                  names) != []


def test_closed_forms():
    assert checks.close("h_5", 1.0 / 11.0, checks.moebius_gap_identity(5, 2.0),
                        1e-12) == []
    measure, rounding = checks.cantor_measure("middle_thirds", 8)
    assert abs(measure - 2.0 * np.pi * (2.0 / 3.0) ** 8) < 1e-15
    assert checks.close("measure", measure * (1.0 + 1e-9), measure, rounding) != []
    assert checks.strictly_decreasing("norms", [3.0, 2.0, 2.0]) != []


def test_benchmark_json_lists_every_reported_metric():
    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert sorted((m["name"], m["unit"]) for m in bench["end_to_end"]) == sorted(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == (
        tracing.per_layer_metrics()
    )
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)


def test_clock_subtracts_its_probe_and_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with run.Clock() as clock:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(clock.samples) >= 4
    assert 0.29 < clock.wall_s < 0.5
    assert clock.seconds > 0.0
