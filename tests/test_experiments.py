"""Tests for the batch runner: config validation, dispatch, persistence.

The norms fixture value 1/11 is the closed form 1/((k+1)^2 - k^2) at k = 5;
everything else checks plumbing invariants (strict field validation, output
files existing and parsing, byte-identical reruns, failure flagging) rather
than numerics, which the module-level suites already pin.
"""

import contextlib
import json
import math
import resource
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclab import engine, geometry, presets
from cyclab.analytic import h_k, smooth_vanishing_function
from cyclab.cli import _FLAG_PARAMS, _build_parser, _config_from_flags
from cyclab.experiments import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    NumericalFailure,
    RunManifest,
    run,
    validate,
)
from cyclab.presets import (
    CATALOGUE,
    EPS_DECADE,
    build_function,
    build_set,
    moebius_gap_series,
)
from cyclab.fourier import FourierSeries, SpaceIndex, circle_grid, norm_ap_beta


# configs that validated, then failed inside the solvers or the grid
# transform: certify and szego on int64 frequencies the solver slabs cannot
# index, and douglas on a series its default grid of 2048 aliases, given as
# coeffs or built by h_k (degree 27644 at k = 1000)
UNREACHABLE_COEFFS = [
    *((experiment, {"coeffs": [[n, 1.0, 0.0], [n + 1, 1.0, 0.0]], **extra})
      for experiment, extra in (("certify", {"degree_budget": 8}), ("szego", {}))
      for n in (2**62, 2**63 - 2, -2**63)),
    ("douglas", {"coeffs": [[5000, 1.0, 0.0]]}),
    ("douglas", {"preset": "h_k", "k": 1000}),
]

# h_k configs that validated, then failed in the run: at k = 10**17, k/(k+1)
# rounds to 1 and the tail rule divided by log 1 = 0; at k = 10**400 no float
# holds k; at k = 10**6 the drop rule keeps degree 20723276, past 2**20, and
# max_degree 2**28 there asked numpy for gigabytes; k = 50000 keeps 1186224,
# past the solvers' |n| <= 2**20
OVERSIZED_H_K = [
    *((experiment, {"preset": "h_k", **knobs})
      for experiment in ("norms", "szego", "certify")
      for knobs in ({"k": 10**17}, {"k": 10**400, "max_degree": 8},
                    {"k": 10**6, "max_degree": 2**28})),
    ("norms", {"preset": "h_k", "k_values": [10**17]}),
    ("certify", {"preset": "h_k", "k": 50000, "max_degree": 2**21}),
]

# a positive support at degree budget 0 validated, then failed in the first
# search as a numerical failure
POSITIVE_SUPPORT_AT_BUDGET_0 = ("certify", {"preset": "z_minus_1", "p": 1.5,
                                            "support": "positive", "degree_budget": 0})

# solver degrees that validated, then ran without end (a degree_budget of
# 2**40) or asked numpy for 16 TiB (szego at degree 2**40)
UNBOUNDED_SOLVER_DEGREES = [
    ("certify", {"preset": "z_minus_1", "degree_budget": 2**40}),
    ("szego", {"preset": "z_minus_1", "degrees": [2**40]}),
]


@contextlib.contextmanager
def address_space_capped(headroom=2**28):
    """Cap this process's address space `headroom` bytes above its present
    size, so that code allocating in proportion to an oversized degree fails
    with MemoryError instead of exhausting the host's memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    try:
        with open("/proc/self/statm") as fh:
            cap = int(fh.read().split()[0]) * resource.getpagesize() + headroom
    except OSError:  # no procfs to read the present size from: run uncapped
        yield
        return
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def read_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfigValidation:
    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            ExperimentConfig.from_json_obj(
                {"experiment": "norms", "parameters": {}, "extra": 1}
            )

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            ExperimentConfig.from_json_obj({"experiment": "mystery"})

    def test_unknown_parameter(self):
        config = ExperimentConfig.from_json_obj(
            {"experiment": "classify", "parameters": {"dim": 0.5, "seed": 7}}
        )
        with pytest.raises(ConfigError, match="unknown parameters: seed"):
            validate(config)

    def test_missing_required_parameter(self):
        config = ExperimentConfig.from_json_obj(
            {"experiment": "classify", "parameters": {}}
        )
        with pytest.raises(ConfigError, match="missing parameters: dim"):
            validate(config)

    @pytest.mark.parametrize(
        "experiment,params,message",
        [
            ("decay", {"set": "middle_thirds", "gamma": -1.0}, "gamma"),
            ("decay", {"set": "middle_thirds", "grid": 1000}, "power of two"),
            ("decay", {"set": "middle_thirds", "eps": [1e-2, 1e-1]}, "decreasing"),
            ("decay", {"set": "middle_thirds", "p": 3.0}, "p must"),
            ("decay", {"set": "nowhere"}, "unknown set preset"),
            ("norms", {}, "exactly one of"),
            ("norms", {"preset": "h_k", "coeffs": [[0, 1.0, 0.0]]}, "exactly one of"),
            ("norms", {"coeffs": [[0, 1.0]]}, "triples"),
            ("certify", {"preset": "z_minus_1", "p": 1.5, "beta": 0.5}, "no cyclic"),
            ("certify", {"preset": "z_minus_1", "support": "diag"}, "support"),
            ("certify", {"preset": "z_minus_1", "degree_budget": -2}, "degree_budget"),
            ("kel_ratio", {"set": "middle_thirds", "delta_prime": 0.5}, "delta_prime"),
            ("classify", {"dim": 1.5}, "dim must"),
            ("classify", {"dim": 0.5, "smoothness": "wobbly"}, "smoothness"),
            ("norms", {"coeffs": [[0.5, 1.0, 0.0]]}, "integers"),
            ("norms", {"coeffs": [[True, 1.0, 0.0]]}, "integers"),
            ("norms", {"coeffs": [[0, 1.0, 0.0], [10**9, 1.0, 0.0]]}, "span"),
            ("norms", {"coeffs": [[-1, 1.0, 0.0], [2**20, 1.0, 0.0]]}, "span"),
            ("norms", {"preset": "enigma"}, "unknown function preset"),
            ("norms", {"preset": "smooth_vanishing", "set": "nowhere"},
             "unknown set preset"),
            ("norms", {"preset": "h_k", "k": 0}, "k must"),
            ("norms", {"preset": "smooth_vanishing", "depth": 0}, "depth must"),
            ("norms", {"preset": "smooth_vanishing", "gamma": -1}, "gamma must"),
            ("norms", {"preset": "smooth_vanishing", "truncate": -3}, "truncate must"),
            ("norms", {"preset": "smooth_vanishing", "grid": 1000}, "power of two"),
            ("norms", {"preset": "h_k", "k": "5"}, "k must"),
            ("norms", {"coeffs": [[0, "a", 0]]}, "amplitudes"),
            ("cantor", {"t_min": 0.5, "t_max": 0.1}, "t_min < t_max"),
            # the schedule has no set there: its deepest gap leaves its interval
            ("carleson", {"set": "non_carleson_n2", "depth": 60},
             "non_carleson_n2 has no set at depth 60: level 60 gap"),
            ("norms", {"preset": "smooth_vanishing", "set": "middle_thirds", "depth": 700},
             "middle_thirds has no set at depth 700"),
            ("decay", {"set": "non_carleson_n2", "depth": 54}, "no set at depth 54"),
            ("cantor", {"set": "middle_thirds", "depth": 31}, "depth must be at most 30"),
            ("classify", {"dim": True}, "dim must"),
            ("norms", {"preset": "z_minus_1", "k_values": [1, 2]}, "k_values"),
            ("classify", {"dim": 0.5, "log_nonintegrable": "false"}, "true or false"),
            ("norms", {"preset": "z_minus_1", "k": 3, "gamma": 7.0},
             "z_minus_1 does not read: gamma, k"),
            ("norms", {"coeffs": [[0, 1.0, 0.0]], "set": "middle_thirds", "grid": 1024},
             "coeffs does not read: grid, set"),
            ("norms", {"preset": "h_k", "depth": 3, "truncate": 8},
             "h_k does not read: depth, truncate"),
            ("szego", {"preset": "h_k", "gamma": 2.0}, "h_k does not read: gamma"),
            ("certify", {"coeffs": [[0, 1.0, 0.0]], "truncate": 4},
             "coeffs does not read: truncate"),
            ("douglas", {"preset": "smooth_vanishing", "k": 3, "max_degree": 9,
                         "tail_tol": 1e-9}, "does not read: k, max_degree, tail_tol"),
            ("norms", {"preset": "h_k", "k": 3, "k_values": [1, 2]}, "no k"),
            ("decay", {"set": "middle_thirds", "depth": 6, "grid": 2048, "eps": [0.1]},
             "at least two eps"),
            ("decay", {"set": "middle_thirds", "depth": 6, "grid": 2048, "truncate": 5000},
             "truncate must be at most"),
            ("norms", {"coeffs": [[10**30, 1.0, 0.0]], "p": 1.5}, "int64"),
            ("norms", {"coeffs": [[2**63, 1.0, 0.0]]}, "int64"),
            ("norms", {"coeffs": [[-2**63 - 1, 1.0, 0.0]]}, "int64"),
            ("certify", {"coeffs": [[-2**20 - 1, 1.0, 0.0]]}, r"\[-2\*\*20, 2\*\*20\]"),
            ("szego", {"coeffs": [[2**20 + 1, 1.0, 0.0]]}, r"\[-2\*\*20, 2\*\*20\]"),
            ("douglas", {"coeffs": [[0, 1.0, 0.0], [1024, 1.0, 0.0]], "grid": 2048},
             r"2\*\|n\| \+ 1 <= grid"),
            ("douglas", {"coeffs": [[-1024, 1.0, 0.0]], "grid": 2048},
             r"2\*\|n\| \+ 1 <= grid"),
            ("douglas", {"preset": "h_k", "k": 1000, "max_degree": 1024},
             r"2\*\|n\| \+ 1 <= grid; f has degree 1024"),
            ("douglas", {"preset": "h_k", "k": 10**17}, "h_k at k = .* cannot be built"),
            ("douglas", {"preset": "h_k", "k": 10**6, "max_degree": 10**30},
             r"h_k at k = 1000000 cannot be built: it keeps a degree above 2\*\*20"),
            # k/(k+1) rounds to 1 at any max_degree: 1 - h_k is the zero series
            ("norms", {"preset": "h_k", "k": 10**17, "max_degree": 10},
             r"h_k at k = 100000000000000000 cannot be built: k/\(k\+1\) rounds to 1"),
            ("certify", {"preset": "z_minus_1", "degree_budget": 2**20 + 1},
             r"degree_budget must be an integer in \[0, 2\*\*20\]"),
            ("szego", {"preset": "z_minus_1", "degrees": [16, 2**20 + 1]},
             r"degrees must be a list of integers in \[0, 2\*\*20\]"),
            (*POSITIVE_SUPPORT_AT_BUDGET_0, r"positive support needs degree_budget >= 1"),
            *((experiment, params, r"in \[0, 2\*\*20\]")
              for experiment, params in UNBOUNDED_SOLVER_DEGREES),
            *((experiment, params, r"h_k at k = \d+ cannot be built")
              for experiment, params in OVERSIZED_H_K),
        ],
    )
    def test_rejected_parameters(self, experiment, params, message):
        config = ExperimentConfig.from_json_obj(
            {"experiment": experiment, "parameters": params}
        )
        with pytest.raises(ConfigError, match=message), address_space_capped():
            validate(config)

    @pytest.mark.parametrize(
        "experiment,params",
        [
            ("norms", {"preset": "h_k", "k": 3, "max_degree": 40, "tail_tol": 1e-9}),
            ("certify", {"preset": "smooth_vanishing", "set": "middle_thirds", "depth": 4,
                         "gamma": 1.0, "grid": 1024, "truncate": 64}),
            ("douglas", {"coeffs": [[0, 1.0, 0.0]], "grid": 1024}),
            ("douglas", {"preset": "h_k", "k": 1000, "max_degree": 1023}),
            ("norms", {"preset": "h_k", "max_degree": 2**20}),
            # the drop rule keeps degree 180 at k = 5 and 49 at k = 1, and
            # 957697 at k = 40000, whose tail-rule degree is 1197019
            ("norms", {"preset": "h_k", "max_degree": 2**28}),
            ("certify", {"preset": "h_k", "max_degree": 2**21}),
            ("douglas", {"preset": "h_k", "max_degree": 10**30}),
            ("norms", {"preset": "h_k", "k": 1, "max_degree": 2**21}),
            ("norms", {"preset": "h_k", "k": 40000}),
            ("norms", {"preset": "h_k", "k_values": []}),
            ("certify", {"preset": "z_minus_1", "degree_budget": 2**20}),
            ("certify", {"preset": "z_minus_1", "support": "positive", "degree_budget": 1}),
            ("certify", {"preset": "z_minus_1", "support": "nonneg", "degree_budget": 0}),
            ("szego", {"preset": "z_minus_1", "degrees": [0, 2**20]}),
        ],
    )
    def test_fields_the_preset_reads_are_accepted(self, experiment, params):
        validate(ExperimentConfig.from_json_obj(
            {"experiment": experiment, "parameters": params}
        ))

    @pytest.mark.parametrize("experiment, params", [
        ("carleson", {"set": "non_carleson_n2", "depth": 53}),
        ("carleson", {"set": "middle_thirds", "depth": 646}),
        ("cantor", {"set": "non_carleson_n2", "depth": 30}),
        ("outer", {"set": "non_carleson_n2", "depth": 53}),
        ("certify", {"preset": "smooth_vanishing", "set": "middle_thirds", "depth": 646}),
    ])
    def test_set_depths_at_the_bounds_are_accepted(self, experiment, params):
        record = validate(ExperimentConfig.from_json_obj(
            {"experiment": experiment, "parameters": params}))
        assert record["depth"] == params["depth"]

    def test_decay_truncate_must_fit_the_grid(self):
        # series_from_samples needs 2*truncate + 1 <= grid
        def decay(truncate):
            return ExperimentConfig.from_json_obj({"experiment": "decay", "parameters": {
                "set": "middle_thirds", "depth": 6, "grid": 2048, "truncate": truncate}})

        assert validate(decay(1023))["truncate"] == 1023
        with pytest.raises(ConfigError, match="truncate must be at most"):
            validate(decay(1024))

    def test_coeffs_span_at_the_bound_is_accepted(self):
        config = ExperimentConfig.from_json_obj(
            {"experiment": "norms",
             "parameters": {"coeffs": [[0, 1.0, 0.0], [2**20, 1.0, 0.0]]}}
        )
        validate(config)

    def test_coeffs_frequencies_at_the_int64_bounds_are_accepted(self):
        for n in (2**63 - 1, -2**63):
            validate(ExperimentConfig.from_json_obj(
                {"experiment": "norms", "parameters": {"coeffs": [[n, 1.0, 0.0]]}}
            ))

    @pytest.mark.parametrize("experiment, n, extra", [
        ("certify", 2**20, {}), ("certify", -2**20, {}),
        ("szego", 2**20, {}), ("szego", -2**20, {}),
        # eval_on_grid needs 2*|n| + 1 <= grid
        ("douglas", 1023, {"grid": 2048}), ("douglas", -1023, {"grid": 2048}),
    ])
    def test_coeffs_frequencies_at_the_run_bounds_are_accepted(self, experiment, n, extra):
        validate(ExperimentConfig.from_json_obj({"experiment": experiment, "parameters": {
            "coeffs": [[0, 1.0, 0.0], [n, 1.0, 0.0]], **extra}}))

    def test_validation_happens_before_any_write(self, tmp_path):
        # the two norms configs used to escape run() as TypeError after the
        # mkdir, and the unreachable coeffs and oversized h_k to fail inside
        # the run; the cap makes an allocation in proportion to the degree fail
        for i, (experiment, params) in enumerate([
            ("decay", {"set": "middle_thirds", "gamma": -1.0}),
            ("norms", {"preset": "h_k", "k": "5"}),
            ("norms", {"coeffs": [[0, "a", 0]]}),
            *UNREACHABLE_COEFFS,
            *OVERSIZED_H_K,
            *UNBOUNDED_SOLVER_DEGREES,
            POSITIVE_SUPPORT_AT_BUDGET_0,
            # validated, these ran: carleson raised inside the run, after
            # the manifest, and cantor's sweep would read 2^40 arcs
            ("carleson", {"set": "non_carleson_n2", "depth": 60}),
            ("cantor", {"set": "non_carleson_n2", "depth": 40}),
        ]):
            out = tmp_path / ("never%d" % i)
            with pytest.raises(ConfigError), address_space_capped():
                run(
                    {
                        "experiment": experiment,
                        "parameters": params,
                        "output_dir": str(out),
                    }
                )
            assert not out.exists()

    # at the default tail_tol, k = 43969 keeps degree 1048564, within 2**20,
    # and k = 43970 keeps 1048587
    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 10**20), max_degree=st.none() | st.integers(0, 2**40),
           tail_tol=st.floats(1e-15, 1e-3))
    @example(k=43969, max_degree=None, tail_tol=1e-13)
    @example(k=43970, max_degree=None, tail_tol=1e-13)
    @example(k=10**17, max_degree=None, tail_tol=1e-13)
    @example(k=1, max_degree=2**20 + 1, tail_tol=1e-13)
    def test_an_accepted_h_k_spans_at_most_the_bound(self, k, max_degree, tail_tol):
        params = {"preset": "h_k", "k": k, "tail_tol": tail_tol}
        if max_degree is not None:
            params["max_degree"] = max_degree
        config = ExperimentConfig.from_json_obj({"experiment": "norms", "parameters": params})
        with address_space_capped():
            try:
                record = validate(config)
            except ConfigError:
                return
            f = build_function("h_k", record)
        assert f.arr.size - 1 <= presets.MAX_SPAN
        assert f.lo == 0 and len(f) > 0

    def test_validate_returns_the_resolved_record(self):
        params = {"coeffs": [[0, 1.0, 0.0]], "grid": 4096}
        config = ExperimentConfig.from_json_obj(
            {"experiment": "douglas", "parameters": params}
        )
        record = validate(config)
        assert set(record) == set(EXPERIMENTS["douglas"].fields)
        assert record["coeffs"] == params["coeffs"]
        assert record["preset"] is None
        assert record["grid"] == 4096
        assert record["exclusion"] == 10.0 / 4096
        assert list(record["alpha"]) == [0.2, 0.4]
        assert config.parameters == {"coeffs": [[0, 1.0, 0.0]], "grid": 4096}

    def test_every_flag_parameter_is_a_schema_field(self):
        fields = set().union(*(e.fields for e in EXPERIMENTS.values()))
        flags = ["--%s=1" % name.replace("_", "-") for name, _ in _FLAG_PARAMS]
        flags += ["--preset=x", "--eps=0.1", "--degrees=1", "--alpha=0.5"]
        for name, experiment in EXPERIMENTS.items():
            args = _build_parser().parse_args(["run", "--experiment", name] + flags)
            params = _config_from_flags(args)["parameters"]
            assert len(params) == len(flags)
            assert set(params) <= fields
            if {"set", "preset"} & set(experiment.fields):
                assert {"set", "preset"} & set(params) & set(experiment.fields)

    def test_recorded_benchmark_configs_validate(self):
        bench = json.loads((Path(__file__).parents[1] / "BENCH_5.json").read_text())
        configs = bench["report_identity"]["configs"]
        assert len(configs) == 20
        for config in configs.values():
            validate(ExperimentConfig.from_json_obj(config))


class TestPresets:
    def test_catalogue_names(self):
        names = {entry["name"] for entry in CATALOGUE}
        assert {"middle_thirds", "non_carleson_n2", "h_k",
                "smooth_vanishing", "z_minus_1"} <= names

    def test_every_example_config_validates(self):
        for entry in CATALOGUE:
            config = ExperimentConfig.from_json_obj(dict(entry["example_config"]))
            validate(config)

    def test_every_example_config_runs(self, tmp_path):
        for entry in CATALOGUE:
            obj = dict(entry["example_config"])
            obj["output_dir"] = str(tmp_path / entry["name"])
            manifest = run(obj)
            assert manifest.status == "ok"

    def test_moebius_gap_series_norm_identity(self):
        # adaptive truncation keeps the closed form exact at large k
        for k, p in [(1, 2.0), (5, 2.0), (50, 1.25), (50, 2.0)]:
            f = moebius_gap_series(k)
            norm = norm_ap_beta(f, SpaceIndex(p=p, beta=0.0))
            want = 1.0 / ((k + 1) ** p - k**p)
            assert abs(norm**p - want) < 1e-11

    def test_build_set_rejects_unknown(self):
        with pytest.raises(ValueError):
            build_set("enigma")

    @pytest.mark.parametrize("name", sorted(presets.FUNCTION_PRESETS))
    def test_table_defaults_build_what_the_schema_resolves(self, name):
        record = validate(ExperimentConfig.from_json_obj(
            {"experiment": "norms", "parameters": {"preset": name}}))
        assert build_function(name, {}) == build_function(name, record)

    @pytest.mark.parametrize("name", ["middle_thirds", "non_carleson_n2"])
    def test_schema_resolves_the_generator_depth(self, name):
        record = validate(ExperimentConfig.from_json_obj(
            {"experiment": "cantor", "parameters": {"set": name}}))
        assert record["depth"] == geometry.cantor_spec_by_name(name).depth

    @pytest.mark.parametrize("support", engine.SUPPORTS)
    def test_schema_takes_every_engine_support(self, support):
        record = validate(ExperimentConfig.from_json_obj(
            {"experiment": "certify",
             "parameters": {"preset": "z_minus_1", "support": support}}))
        assert record["support"] == support

    def test_build_function_rejects_unknown(self):
        with pytest.raises(ValueError):
            build_function("enigma", {})

    @pytest.mark.parametrize("params, message", [
        ({"k": 10**17}, r"k/\(k\+1\) rounds to 1"),
        ({"k": 10**400, "max_degree": 8}, "float range"),
        ({"k": 10**6}, r"keeps a degree above 2\*\*20"),
        ({"k": 43970, "max_degree": 10**30}, r"keeps a degree above 2\*\*20")])
    def test_h_k_past_the_span_bound_is_a_value_error(self, params, message):
        # k = 10**17 divided by zero in the tail rule, k = 10**400 overflowed,
        # and k = 10**6 asked numpy for 30 million coefficients
        with pytest.raises(ValueError, match=message), address_space_capped():
            build_function("h_k", params)

    @pytest.mark.parametrize("k, max_degree, enough", [
        (5, 10**30, 400), (5, 2**28, 400), (1, 2**21, 100),
        (40000, None, 1_400_000), (43969, None, 1_400_000),
        (999999999997262, 5000, 5000), (999999999997400, 5000, 5000),
        (999999999998600, 5000, 5000), (999999999999900, 5000, 5000)])
    def test_h_k_computes_only_the_coefficients_the_drop_rule_keeps(self, k, max_degree,
                                                                    enough):
        # h_k's expansion to any degree past the kept one drops to one series;
        # near k = 10**15 pow moves r^n by a few ulps per step, and the kept
        # degree is one below the cut log(1e-15*k)/log r at these four k
        with address_space_capped():
            f = moebius_gap_series(k, max_degree)
        assert f.degree <= presets.MAX_SPAN
        assert f == FourierSeries({0: 1.0}) - h_k(k, enough).series

    def test_eps_decade_is_decreasing(self):
        assert all(a > b for a, b in zip(EPS_DECADE, EPS_DECADE[1:]))
        assert len(EPS_DECADE) == 6


def _raised(build):
    try:
        build()
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)
    return None


class TestSharedSets:
    """`build_set` returns one shared, read-only set per resolved CantorSpec."""

    @pytest.mark.parametrize("name", ["middle_thirds", "non_carleson_n2"])
    def test_default_and_explicit_depth_share_one_set(self, name):
        default_depth = geometry.cantor_spec_by_name(name).depth
        E = build_set(name)
        assert build_set(name, default_depth) is E
        assert build_set(name) is E
        assert E == geometry.cantor_build(geometry.cantor_spec_by_name(name))

    def test_other_depth_other_set(self):
        E5, E6 = build_set("middle_thirds", 5), build_set("middle_thirds", 6)
        assert E5 is not E6 and E5 != E6
        assert (E5.n_arcs, E6.n_arcs) == (32, 64)

    def test_arrays_are_read_only(self):
        E = build_set("middle_thirds", 4)
        for arr in (E.starts, E.ends):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        with pytest.raises(AttributeError):
            E._starts = np.zeros(1)

    def test_unknown_name_raises(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown set preset"):
                build_set("enigma", 3)

    @pytest.mark.parametrize("name, depth", [
        ("middle_thirds", -1), ("non_carleson_n2", 0), ("middle_thirds", 2.5),
        ("middle_thirds", 0),
    ])
    def test_bad_depth_raises_as_an_uncached_build(self, name, depth):
        want = _raised(lambda: geometry.cantor_build(
            geometry.cantor_spec_by_name(name, depth)))
        assert want is not None and want[0] is ValueError
        for _ in range(2):  # a failed build is not kept
            assert _raised(lambda: build_set(name, depth)) == want

    def test_smooth_vanishing_same_before_and_after_a_hit(self):
        # the function samples its distance from the spec: the shared sets
        # are neither read nor filled
        params = {"set": "middle_thirds", "depth": 6, "gamma": 1.0, "grid": 2048}
        presets._shared_set.cache_clear()
        build_set("middle_thirds", 6)
        info = presets._shared_set.cache_info()
        before = build_function("smooth_vanishing", params)
        after = build_function("smooth_vanishing", params)
        assert presets._shared_set.cache_info() == info
        E = geometry.cantor_build(geometry.middle_thirds_spec(6))
        fresh = smooth_vanishing_function(
            geometry.distance_to_set(circle_grid(2048), E), 1.0
        ).series
        assert before == after == fresh


def refuse_builds(monkeypatch):
    """Make every cyclab binding of `cantor_build` raise, with the shared sets
    emptied, so that any set build fails."""
    def refuse(spec):
        raise AssertionError("cantor_build called")

    presets._shared_set.cache_clear()
    original = geometry.cantor_build
    for mod_name, mod in list(sys.modules.items()):
        in_package = mod_name == "cyclab" or mod_name.startswith("cyclab.")
        if in_package and getattr(mod, "cantor_build", None) is original:
            monkeypatch.setattr(mod, "cantor_build", refuse)


class TestNoSetBuilt:
    """The sampled distance profiles come from the presets' specs: no set of
    2^depth arcs is built for them."""

    @pytest.mark.parametrize("name", presets.SET_PRESETS)
    def test_smooth_vanishing_builds_no_set(self, monkeypatch, name):
        params = {"set": name, "grid": 2**12}
        E = geometry.cantor_build(geometry.cantor_spec_by_name(name))
        want = smooth_vanishing_function(
            geometry.distance_to_set(circle_grid(2**12), E), 1.0).series
        refuse_builds(monkeypatch)
        assert build_function("smooth_vanishing", params) == want

    @pytest.mark.parametrize("experiment, extra", [
        ("decay", {"p": 1.5, "eps": [0.1, 0.01]}),
        ("kel_ratio", {"eps": [0.1, 0.01]}),
        ("outer", {"eps": [0.1, 0.01]}),
    ])
    def test_sweeps_build_no_set(self, tmp_path, monkeypatch, experiment, extra):
        refuse_builds(monkeypatch)
        params = {"set": "non_carleson_n2", "grid": 2**12, **extra}
        manifest = run({"experiment": experiment, "parameters": params,
                        "output_dir": str(tmp_path)})
        assert manifest.status == "ok"

    def test_set_statistics_build_no_set(self, tmp_path, monkeypatch):
        # cantor, carleson and certify read the depth-20 set from its spec:
        # each report holds the spec's statistics, which the built set's
        # match within its rounding, 2 ulp(2pi) per arc, with the same
        # covering counts, gap count and verdict
        spec = geometry.non_carleson_n2_spec(20)
        E = geometry.cantor_build(spec)
        t = geometry.log_t_grid(1e-4, 0.25, 9)
        built_profile = geometry.covering_profile(E, t)
        built_carleson = geometry.carleson_test(E, 2**12)
        measure = geometry.total_measure(spec)
        profile = [list(row) for row in geometry.covering_profile(spec, t).samples]
        carleson = geometry.carleson_test(spec, 2**12)
        refuse_builds(monkeypatch)
        configs = {
            "cantor": {"set": "non_carleson_n2"},
            "carleson": {"set": "non_carleson_n2"},
            "certify": {"preset": "smooth_vanishing", "set": "non_carleson_n2",
                        "grid": 2**12, "truncate": 64, "p": 2.0, "degree_budget": 16},
        }
        reports = {}
        for experiment, params in configs.items():
            out = tmp_path / experiment
            manifest = run({"experiment": experiment, "parameters": params,
                            "output_dir": str(out)})
            assert manifest.status == "ok"
            reports[experiment] = json.loads((out / "report.json").read_text())
        rounding = 2**20 * 2 * math.ulp(geometry.TWO_PI)
        assert reports["cantor"]["n_arcs"] == E.n_arcs == 2**20
        assert reports["cantor"]["total_measure"].hex() == measure.hex()
        assert abs(measure - E.total_measure) <= rounding
        assert reports["cantor"]["profile"] == profile
        assert [row[1] for row in profile] == [row[1] for row in built_profile.samples]
        assert all(reports["carleson"][key] == value for key, value in carleson.items())
        for key in ("verdict", "n_gaps", "resolved", "log_integral"):
            assert carleson[key] == built_carleson[key], key
        assert reports["certify"]["zero_set_measure"].hex() == measure.hex()

    def test_unknown_set_still_raises(self):
        with pytest.raises(ValueError, match="unknown set preset"):
            build_function("smooth_vanishing", {"set": "enigma"})

    def test_smooth_vanishing_allocates_little(self):
        # the depth-20 set is 2^20 arcs of two floats, 16 MiB, and building
        # it peaks at 34 MiB; the profile needs a few arrays of the grid
        presets._shared_set.cache_clear()
        tracemalloc.start()
        try:
            build_function("smooth_vanishing", {"set": "non_carleson_n2", "grid": 2**14})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestRunOutputs:
    def test_norms_h5_closed_form(self, tmp_path):
        manifest = run(
            {
                "experiment": "norms",
                "parameters": {"preset": "h_k", "k": 5, "p": 2.0},
                "output_dir": str(tmp_path),
            }
        )
        assert manifest.status == "ok"
        header, rows = read_csv(tmp_path / "norms.csv")
        assert header == ["label", "p", "beta", "norm", "norm_pow_p"]
        assert rows[0][0] == "h_5"
        assert abs(float(rows[0][4]) - 1.0 / 11.0) < 1e-9

    def test_norms_on_no_k_values_writes_no_rows(self, tmp_path):
        manifest = run({"experiment": "norms",
                        "parameters": {"preset": "h_k", "k_values": []},
                        "output_dir": str(tmp_path)})
        assert manifest.status == "ok"
        assert json.loads((tmp_path / "report.json").read_text())["rows"] == []

    def test_decay_csv_columns(self, tmp_path):
        run(
            {
                "experiment": "decay",
                "parameters": {
                    "set": "middle_thirds",
                    "depth": 8,
                    "gamma": 1.0,
                    "grid": 2048,
                    "p": 1.5,
                    "eps": [1e-1, 1e-2, 1e-3],
                },
                "output_dir": str(tmp_path),
            }
        )
        header, rows = read_csv(tmp_path / "decay.csv")
        assert header == ["eps", "M_eps", "norm", "ratio"]
        assert len(rows) == 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdict"] in ("decays", "stalls")

    def test_manifest_lists_existing_parsable_outputs(self, tmp_path):
        manifest = run(
            {
                "experiment": "cantor",
                "parameters": {"set": "middle_thirds", "depth": 6},
                "output_dir": str(tmp_path),
            }
        )
        assert manifest.outputs
        for name in manifest.outputs:
            path = tmp_path / name
            assert path.exists()
            if name.endswith(".json"):
                json.loads(path.read_text())
            else:
                header, rows = read_csv(path)
                assert header and rows
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk["status"] == "ok"
        assert on_disk["version"]
        assert on_disk["wall_clock_s"] >= 0.0
        assert on_disk["outputs"] == manifest.outputs

    def test_reruns_are_byte_identical(self, tmp_path):
        params = {
            "set": "middle_thirds",
            "depth": 8,
            "gamma": 1.0,
            "delta_prime": 1.2,
            "grid": 1024,
            "eps": [1e-1, 1e-2],
        }
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            run(
                {
                    "experiment": "kel_ratio",
                    "parameters": dict(params),
                    "output_dir": str(out),
                }
            )
        assert (a / "kel_ratio.csv").read_bytes() == (b / "kel_ratio.csv").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_certify_reports_truncation_tail(self, tmp_path):
        run(
            {
                "experiment": "certify",
                "parameters": {
                    "preset": "smooth_vanishing",
                    "set": "middle_thirds",
                    "depth": 6,
                    "gamma": 1.0,
                    "grid": 2048,
                    "truncate": 256,
                    "p": 1.5,
                    "degree_budget": 64,
                    "epsilon_target": 0.25,
                },
                "output_dir": str(tmp_path),
            }
        )
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["truncation_tail"] > 0.0
        assert report["verdict"] in ("certified", "bicyclic_only", "failed")
        # the per-level convergence flags reach report.json, not the CSV
        level = report["solver_trace"][0]
        assert level["bicyclic_converged"] is True
        assert level["shift_converged"] is True
        header, rows = read_csv(tmp_path / "certify.csv")
        assert header == ["degree", "bicyclic_norm", "shift_norm"]

    def test_certify_on_a_positive_measure_zero_set_certifies_the_truncation_only(
        self, tmp_path
    ):
        # both norms fall under the target on the truncated series, which
        # used to read `certified`; the function vanishes on middle thirds
        # at depth 6, an arc union of measure 2 pi (2/3)^6, so it is neither
        # cyclic nor bicyclic
        run(
            {
                "experiment": "certify",
                "parameters": {
                    "preset": "smooth_vanishing", "set": "middle_thirds", "depth": 6,
                    "gamma": 1.0, "grid": 2048, "truncate": 256, "p": 1.5,
                    "beta": 0.0, "degree_budget": 4096, "epsilon_target": 0.5,
                },
                "output_dir": str(tmp_path),
            }
        )
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["achieved_bicyclic_norm"] < 0.5
        assert report["achieved_shift_norm"] < 0.5
        assert report["verdict"] == "truncation_only"
        assert report["obstruction"] == "zero_set_positive_measure"
        assert abs(report["zero_set_measure"] - 2 * math.pi * (2 / 3) ** 6) < 1e-12

    def test_certify_on_the_untruncated_function_converges_at_every_level(self, tmp_path):
        # untruncated, f is exactly 0 in float64 on a tube around the set, so
        # the Levinson-Durbin recursion on its normal matrix breaks down at
        # degree 1024; the shifted preconditioner still converges there
        run(
            {
                "experiment": "certify",
                "parameters": {
                    "preset": "smooth_vanishing", "set": "middle_thirds", "depth": 6,
                    "gamma": 1.0, "grid": 2048, "p": 1.5, "degree_budget": 1024,
                },
                "output_dir": str(tmp_path),
            }
        )
        trace = json.loads((tmp_path / "report.json").read_text())["solver_trace"]
        assert [row["degree"] for row in trace] == [64, 128, 256, 512, 1024]
        for row in trace:
            assert row["bicyclic_converged"] in (True, None)
            assert row["shift_converged"] in (True, None)

    def test_certify_without_a_set_reports_no_obstruction(self, tmp_path):
        run(
            {
                "experiment": "certify",
                "parameters": {"preset": "z_minus_1", "p": 1.5, "degree_budget": 8,
                               "epsilon_target": 0.5},
                "output_dir": str(tmp_path),
            }
        )
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdict"] == "bicyclic_only"
        assert report["zero_set_measure"] is None and report["obstruction"] is None

    @pytest.mark.parametrize("params", [
        {"preset": "z_minus_1", "degree_budget": 8},
        {"preset": "smooth_vanishing", "set": "middle_thirds", "depth": 6, "gamma": 1.0,
         "grid": 2048, "truncate": 64, "degree_budget": 8},
    ], ids=["z_minus_1", "smooth_vanishing"])
    def test_certify_report_is_the_engine_record(self, tmp_path, params):
        # the handler writes CertificateReport as it is, with no key of its own
        run({"experiment": "certify", "parameters": params, "output_dir": str(tmp_path)})
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report) == {f.name for f in fields(engine.CertificateReport)}

    def test_douglas_builds_f_on_its_own_default_grid(self, tmp_path):
        manifest = run(
            {
                "experiment": "douglas",
                "parameters": {"preset": "smooth_vanishing",
                               "set": "middle_thirds", "depth": 6},
                "output_dir": str(tmp_path),
            }
        )
        assert manifest.status == "ok"
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["grid"] == 2048

    def test_szego_rows_track_bound(self, tmp_path):
        run(
            {
                "experiment": "szego",
                "parameters": {"preset": "h_k", "k": 3, "p": 2.0,
                               "degrees": [25, 50, 100, 200]},
                "output_dir": str(tmp_path),
            }
        )
        header, rows = read_csv(tmp_path / "szego.csv")
        assert header == ["degree", "shift_norm", "szego_bound"]
        norms = [float(r[1]) for r in rows]
        bound = float(rows[0][2])
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
        assert abs(norms[-1] - 0.25) < 1e-3
        assert abs(bound - 0.25) < 1e-6

    def test_each_szego_row_is_a_standalone_cold_search(self):
        # certify_small's f at p = 1.5, beta = 0.25: every row is its degree's
        # own forward_shift_infimum, bit for bit.  Warm-started from the row
        # before, degree 128 read 0.0020913695, where its own search reads
        # 0.0020913625; degrees 16, 32 and 64 read the same bits either way
        record = validate(ExperimentConfig.from_json_obj({"experiment": "szego", "parameters": {
            "preset": "smooth_vanishing", "set": "middle_thirds", "depth": 6, "gamma": 1.0,
            "grid": 2048, "truncate": 256, "p": 1.5, "beta": 0.25,
            "degrees": [16, 32, 64, 128]}}))
        report, _, rows, _ = EXPERIMENTS["szego"].handler(record)
        f = build_function("smooth_vanishing", record)
        space = SpaceIndex(p=1.5, beta=0.25)
        assert [row[0] for row in rows] == [16, 32, 64, 128]
        for degree, norm, _ in rows:
            assert norm == engine.forward_shift_infimum(f, space, degree).value
        assert report["rows"] == [list(row) for row in rows]

    def test_classify_row(self, tmp_path):
        run(
            {
                "experiment": "classify",
                "parameters": {"dim": 0.5, "p": 1.5, "beta": 0.5},
                "output_dir": str(tmp_path),
            }
        )
        header, rows = read_csv(tmp_path / "classify.csv")
        assert rows[0][-1] == "no_cyclic_vectors"

    def test_outer_center_values_normalized(self, tmp_path):
        run(
            {
                "experiment": "outer",
                "parameters": {
                    "set": "middle_thirds",
                    "depth": 6,
                    "gamma": 1.0,
                    "grid": 2048,
                    # eps below 1e-2 is not resolved by this grid, so the
                    # leakage figures there would be meaningless
                    "eps": [1e-1, 1e-2],
                },
                "output_dir": str(tmp_path),
            }
        )
        header, rows = read_csv(tmp_path / "outer.csv")
        assert header == ["eps", "m_eps", "value_at_zero", "leakage"]
        for row in rows:
            assert abs(float(row[2]) - 1.0) < 1e-6
            # the modulus sharpens as eps shrinks, so leakage grows toward
            # the grid limit; the bound here only guards against gross
            # one-sidedness failures
            assert float(row[3]) < 1e-4


def count_calls(monkeypatch, module, name):
    """Wrap `module.name` under every cyclab module that binds it; return the call list."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        in_package = mod_name == "cyclab" or mod_name.startswith("cyclab.")
        if in_package and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


class TestSharedWork:
    """An eps sweep samples the distance to E once, `cantor` counts each scale
    once, and a run builds each h_k once."""

    # validation builds each h_k for the size rule, and the handler reads
    # that series; a repeated k is built once
    @pytest.mark.parametrize("experiment, extra, builds", [
        ("norms", {"k": 5}, 1),
        ("norms", {"k_values": [3, 5, 3]}, 2),
        ("douglas", {"k": 5}, 1),
        ("szego", {"k": 5, "degrees": [4, 8]}, 1),
        ("certify", {"k": 5, "degree_budget": 4}, 1),
    ])
    def test_each_h_k_is_built_once_per_run(self, tmp_path, monkeypatch,
                                            experiment, extra, builds):
        calls = count_calls(monkeypatch, presets, "moebius_gap_series")
        manifest = run({"experiment": experiment,
                        "parameters": {"preset": "h_k", **extra},
                        "output_dir": str(tmp_path)})
        assert manifest.status == "ok"
        assert len(calls) == builds

    # default eps schedules: 6 for outer and decay, 4 for kel_ratio
    @pytest.mark.parametrize("experiment, extra, most", [
        ("outer", {}, 1),
        ("decay", {"p": 1.5}, 1),  # f and p_eps share one profile
        ("kel_ratio", {}, 1),
    ])
    def test_one_distance_profile_per_sweep(self, tmp_path, monkeypatch,
                                            experiment, extra, most):
        calls = count_calls(monkeypatch, geometry, "distance_to_set")
        params = {"set": "middle_thirds", "depth": 8, "grid": 2**14, **extra}
        manifest = run({"experiment": experiment, "parameters": params,
                        "output_dir": str(tmp_path)})
        assert manifest.status == "ok"
        assert len(calls) <= most

    @pytest.mark.parametrize("experiment, kernel, extra", [
        ("decay", "p_epsilon_decay", {"p": 1.5}),
        ("kel_ratio", "lemma_kel_ratio", {}),
    ])
    def test_one_kernel_call_on_one_distance_profile(self, tmp_path, monkeypatch,
                                                     experiment, kernel, extra):
        kernel_calls = count_calls(monkeypatch, engine, kernel)
        d_calls = count_calls(monkeypatch, geometry, "distance_to_set")
        params = {"set": "middle_thirds", "depth": 8, "grid": 2**14, **extra}
        manifest = run({"experiment": experiment, "parameters": params,
                        "output_dir": str(tmp_path)})
        assert manifest.status == "ok"
        assert len(kernel_calls) == len(d_calls) == 1

    def test_cantor_counts_each_scale_once(self, tmp_path, monkeypatch):
        # one greedy sweep per scale, all of them in one pass over the arcs
        calls = count_calls(monkeypatch, geometry, "_Sweep")
        passes = count_calls(monkeypatch, geometry, "_covers")
        manifest = run({"experiment": "cantor",
                        "parameters": {"set": "middle_thirds", "depth": 8},
                        "output_dir": str(tmp_path)})
        assert manifest.status == "ok"
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["box_dimension"] is not None
        assert len(calls) == len(report["profile"]) == 9
        assert len(passes) == 1


class TestManifest:
    def test_keys_with_and_without_an_error(self):
        keys = {"config", "version", "wall_clock_s", "tolerances", "outputs", "status"}
        manifest = RunManifest(config={"experiment": "cantor"}, version="0",
                               wall_clock_s=0.5, tolerances={}, outputs=["report.json"])
        assert set(manifest.to_json_obj()) == keys
        failed = RunManifest(config={}, version="0", wall_clock_s=0.5, tolerances={},
                             outputs=[], status="numerical_failure", error="boom")
        obj = failed.to_json_obj()
        assert set(obj) == keys | {"error"}
        assert (obj["status"], obj["error"]) == ("numerical_failure", "boom")


class TestNumericalFailure:
    def test_flagged_manifest_and_exception(self, tmp_path):
        with pytest.raises(NumericalFailure, match="eps too large"):
            run(
                {
                    "experiment": "kel_ratio",
                    "parameters": {
                        "set": "middle_thirds",
                        "depth": 8,
                        "gamma": 1.0,
                        "delta_prime": 1.2,
                        "grid": 1024,
                        "eps": [20.0, 10.0],
                    },
                    "output_dir": str(tmp_path),
                }
            )
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "numerical_failure"
        assert "eps too large" in manifest["error"]
        for name in manifest["outputs"]:
            assert (tmp_path / name).exists()
