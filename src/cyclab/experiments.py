"""Batch experiment runner: validated configs in, JSON + CSV + manifest out.

A config names one experiment, a parameter record and an output directory.
`EXPERIMENTS` is the single list of what each experiment accepts: it maps
every field to one check and one default, and attaches the few rules that
span fields.  The function-preset fields and the space fields `p`, `beta`
are declared once and shared.  `validate` walks that table and raises
ConfigError on the first problem: an unknown or missing field, a value its
check refuses (numeric checks refuse booleans), or a broken rule, such as
a function field that the chosen preset does not read.  It runs
before anything touches the disk, so a bad config writes nothing, not even
the output directory.  Otherwise it returns the resolved record, every
accepted field with the config's value or its default, and the handlers
read only that record.  Failures inside the numerics are a separate class:
whatever was written stays on disk and the manifest flags the failure.

Every experiment writes `report.json` (full structured results),
`<experiment>.csv` (one flat plot-ready table; columns are fixed per
experiment and documented in each handler) and `manifest.json` (config echo,
package version, wall clock, tolerance knobs, output list).  The manifest
echoes the parameters as given, not the resolved record.  All numeric
formatting goes through `repr`, so reruns of one config are byte-identical
in the CSV and the report.
"""

import json
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .analytic import (
    KEL_EXCLUSION_CELLS,
    M_EPSILON_SELF_CHECK_TOL,
    VANISH_GATE_REL,
    douglas_seminorm,
    lemma_kel_ratio,
    m_epsilon,
    outer_power_modulus,
    p_epsilon_decay,
    smooth_vanishing_function,
)
from .engine import (
    SUPPORTS,
    CertificateProblem,
    certify_cyclic,
    classify_regime,
    forward_shift_infimum,
    szego_lower_bound,
)
from .fourier import SpaceIndex, circle_grid, eval_on_grid, norm_ap_beta
from .geometry import (
    carleson_test,
    cantor_spec_by_name,
    covering_profile,
    distance_to_set,
    log_t_grid,
)
from .presets import (
    EPS_DECADE,
    FUNCTION_PRESETS,
    SET_PRESETS,
    build_set,
    series_from_config,
)

class ConfigError(ValueError):
    """The config failed validation; nothing was run or written."""


class NumericalFailure(RuntimeError):
    """An operation failed during the run; partial outputs may exist."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    parameters: dict
    output_dir: str

    @classmethod
    def from_json_obj(cls, obj):
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(obj) - {"experiment", "parameters", "output_dir"}
        if unknown:
            raise ConfigError("unknown config fields: %s" % ", ".join(sorted(unknown)))
        if "experiment" not in obj:
            raise ConfigError("config needs an 'experiment' field")
        experiment = obj["experiment"]
        if experiment not in EXPERIMENTS:
            raise ConfigError(
                "unknown experiment %r; expected one of %s"
                % (experiment, ", ".join(EXPERIMENTS))
            )
        parameters = obj.get("parameters", {})
        if not isinstance(parameters, dict):
            raise ConfigError("'parameters' must be an object")
        output_dir = obj.get("output_dir", ".")
        if not isinstance(output_dir, str):
            raise ConfigError("'output_dir' must be a path string")
        return cls(experiment=experiment, parameters=dict(parameters), output_dir=output_dir)

    def to_json_obj(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class RunManifest:
    config: dict
    version: str
    wall_clock_s: float
    tolerances: dict
    outputs: list
    status: str = "ok"
    error: str = None

    def to_json_obj(self):
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.error is None:
            del obj["error"]
        return obj


# -- parameter schema --------------------------------------------------------
# A field is (check, default).  A check takes the field's key and the given
# value and raises ConfigError.  A default is a value, _REQUIRED, or a
# function of the fields declared before it.

_REQUIRED = object()


def _is_number(value):
    """An int or float with a finite float value; json.load also yields NaN,
    +-Infinity and ints past the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _check(test, message):
    """Field check: ConfigError(message) unless `test(value)`.

    `message` may name the field as {key} and the value as {value}.
    """

    def check(key, value):
        if not test(value):
            raise ConfigError(message.format(key=key, value=value))

    return check


def _int_at_least(low):
    return _check(lambda v: _is_int(v) and v >= low, "{key} must be an integer >= %d" % low)


def _list_of(test, message):
    return _check(lambda v: isinstance(v, list) and all(map(test, v)), message)


def _one_of(choices, message):
    return _check(lambda v: isinstance(v, str) and v in choices, message)


def _is_smoothness(value):
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return value[0] == "lip_delta" and _is_number(value[1])
    return value == "c_infty"


def _coeffs(key, rows):
    if not (isinstance(rows, list)
            and all(isinstance(row, list) and len(row) == 3 for row in rows)):
        raise ConfigError("coeffs must be a list of [n, re, im] triples")
    freqs = [row[0] for row in rows]
    if not all(map(_is_int, freqs)):
        raise ConfigError("coeffs frequencies must be integers")
    if not all(_is_number(x) for row in rows for x in row[1:]):
        raise ConfigError("coeffs amplitudes must be finite numbers")
    # a series is stored densely over its frequency span
    if freqs and max(freqs) - min(freqs) > 2**20:
        raise ConfigError("coeffs frequencies must span at most 2**20")


_POSITIVE = _check(lambda v: _is_number(v) and v > 0, "{key} must be a positive finite number")
_GRID = _check(lambda v: _is_int(v) and v >= 16 and v & (v - 1) == 0,
               "grid must be a power of two >= 16")
_EPS = _check(
    lambda v: isinstance(v, (list, tuple)) and len(v) > 0
    and all(_is_number(e) and e > 0 for e in v)
    and all(b < a for a, b in zip(v, v[1:])),
    "eps must be a nonempty, strictly decreasing list of positive numbers",
)
_FLAG = _check(lambda v: isinstance(v, bool), "{key} must be true or false")

_SPACE_FIELDS = {
    "p": (_check(lambda v: _is_number(v) and 1.0 < v <= 2.0, "p must lie in (1, 2]"), 2.0),
    "beta": (_check(lambda v: _is_number(v) and v >= 0.0,
                    "beta must be a finite number >= 0"), 0.0),
}
# the function-preset fields take their defaults from FUNCTION_PRESETS
_PRESET = {**FUNCTION_PRESETS["h_k"], **FUNCTION_PRESETS["smooth_vanishing"]}
_SET_FIELDS = {
    "set": (_one_of(SET_PRESETS, "unknown set preset {value!r}; available: "
                    + ", ".join(SET_PRESETS)), _PRESET["set"]),
    "depth": (_int_at_least(1), lambda params: cantor_spec_by_name(params["set"]).depth),
}
# exp(-d(., E)^-gamma) on the named set, sampled at `grid` points
_VANISHING_FIELDS = {**_SET_FIELDS, "gamma": (_POSITIVE, _PRESET["gamma"]),
                     "grid": (_GRID, _PRESET["grid"])}
# f as a named preset with its knobs, or as explicit coefficients
_FUNCTION_FIELDS = {
    "preset": (_one_of(FUNCTION_PRESETS, "unknown function preset {value!r}; available: "
                       + ", ".join(FUNCTION_PRESETS)), None),
    "coeffs": (_coeffs, None),
    "k": (_int_at_least(1), _PRESET["k"]),
    "max_degree": (_int_at_least(0), _PRESET["max_degree"]),
    "tail_tol": (_POSITIVE, _PRESET["tail_tol"]),
    **_VANISHING_FIELDS,
    "truncate": (_int_at_least(1), _PRESET["truncate"]),
}


def _function_source(own=()):
    """Rule: f from exactly one of `preset` or `coeffs`, and no function field
    given that neither that preset (`FUNCTION_PRESETS`) nor the experiment
    (`own`) reads.
    """

    def rule(params, given):
        if (params["preset"] is None) == (params["coeffs"] is None):
            raise ConfigError("give exactly one of 'preset' or 'coeffs'")
        source = params["preset"] or "coeffs"
        knobs = set(_FUNCTION_FIELDS) - {"preset", "coeffs", *own}
        unused = sorted(knobs & given - set(FUNCTION_PRESETS.get(source, ())))
        if unused:
            raise ConfigError("%s does not read: %s" % (source, ", ".join(unused)))

    return rule


def _k_values_need_h_k(params, given):
    if params["k_values"] is not None and (params["preset"] != "h_k" or "k" in given):
        raise ConfigError("k_values needs preset 'h_k' and no k")


def _has_cyclic_vectors(params, _given):
    space = SpaceIndex(p=float(params["p"]), beta=float(params["beta"]))
    if space.beta * space.q > 1.0:
        raise ConfigError("beta*q > 1: the space has no cyclic vectors")


def _kel_exponent(params, _given):
    if 2.0 * params["delta_prime"] - params["gamma"] - 1.0 < 0.0:
        raise ConfigError("need 2*delta_prime - gamma - 1 >= 0")


def _decay_sweep_fits(params, _given):
    # what p_epsilon_decay needs, refused here before anything is written
    if len(params["eps"]) < 2:
        raise ConfigError("decay needs at least two eps")
    if params["truncate"] is not None and 2 * params["truncate"] + 1 > params["grid"]:
        raise ConfigError("truncate must be at most (grid - 1) // 2")


def _t_range(params, _given):
    if not params["t_min"] < params["t_max"]:
        raise ConfigError("need t_min < t_max")



# -- serialization helpers ---------------------------------------------------


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# -- experiment handlers -----------------------------------------------------
# each returns (report_obj, csv_header, csv_rows, tolerances)


def _run_norms(params):
    """CSV columns: label, p, beta, norm, norm_pow_p."""
    space = SpaceIndex(p=float(params["p"]), beta=float(params["beta"]))
    rows = []
    if params["k_values"] is not None:
        for k in params["k_values"]:
            f = series_from_config(dict(params, k=k))
            norm = norm_ap_beta(f, space)
            rows.append(("h_%d" % k, space.p, space.beta, norm, norm**space.p))
    else:
        f = series_from_config(params)
        label = params["preset"] or "coeffs"
        if label == "h_k":
            label = "h_%d" % params["k"]
        norm = norm_ap_beta(f, space)
        rows.append((label, space.p, space.beta, norm, norm**space.p))
    header = ("label", "p", "beta", "norm", "norm_pow_p")
    return {"rows": [dict(zip(header, r)) for r in rows]}, header, rows, {}


def _run_cantor(params):
    """CSV columns: t, covering_count, tube_measure."""
    name, depth = params["set"], params["depth"]
    E = build_set(name, depth)
    profile = covering_profile(
        E, log_t_grid(params["t_min"], params["t_max"], params["t_count"])
    )
    rows = [(t, int(N), tube) for t, N, tube in profile.samples]
    report = {
        "set": name,
        "depth": depth,
        "n_arcs": E.n_arcs,
        "total_measure": E.total_measure,
        "profile": [list(r) for r in rows],
    }
    try:
        report["box_dimension"] = profile.box_dimension()
    except ValueError:
        report["box_dimension"] = None
    return report, ("t", "covering_count", "tube_measure"), rows, {}


def _run_carleson(params):
    """CSV columns: set, depth, interval_sum, interval_sum_radian, log_integral, verdict."""
    name, depth = params["set"], params["depth"]
    E = build_set(name, depth)
    result = carleson_test(
        E, params["grid"], divergence_threshold=params["threshold"]
    )
    rows = [
        (
            name,
            depth,
            result["interval_sum"],
            result["interval_sum_radian"],
            result["log_integral"],
            result["verdict"],
        )
    ]
    report = dict(result)
    report["set"] = name
    report["depth"] = depth
    header = ("set", "depth", "interval_sum", "interval_sum_radian",
              "log_integral", "verdict")
    return report, header, rows, {"divergence_threshold": params["threshold"]}


def _run_outer(params):
    """CSV columns: eps, m_eps, value_at_zero, leakage."""
    name = params["set"]
    E = build_set(name, params["depth"])
    gamma = float(params["gamma"])
    G = params["grid"]
    mode = params["mode"]
    eps_schedule = [float(e) for e in params["eps"]]
    d = distance_to_set(circle_grid(G), E)
    rows = []
    for eps in eps_schedule:
        outer = outer_power_modulus(d, gamma, eps, mode)
        m_value = m_epsilon(d, gamma, eps)
        rows.append((eps, m_value, outer.value_at_zero, outer.leakage))
    report = {
        "set": name,
        "gamma": gamma,
        "grid": G,
        "mode": mode,
        "rows": [list(r) for r in rows],
    }
    tolerances = {"m_epsilon_self_check": M_EPSILON_SELF_CHECK_TOL}
    return report, ("eps", "m_eps", "value_at_zero", "leakage"), rows, tolerances


def _run_douglas(params):
    """CSV columns: alpha, coefficient_value, quadrature_value, band_matched_value."""
    f = series_from_config(params)
    G = params["grid"]
    samples = eval_on_grid(f, G)
    exclusion = params["exclusion"]
    rows = []
    for alpha in params["alpha"]:
        res = douglas_seminorm(samples, float(alpha), exclusion)
        rows.append((alpha, res.value, res.quadrature_value, res.band_matched_value))
    report = {
        "grid": G,
        "exclusion": exclusion,
        "rows": [list(r) for r in rows],
    }
    header = ("alpha", "coefficient_value", "quadrature_value", "band_matched_value")
    return report, header, rows, {"exclusion": exclusion}


def _run_szego(params):
    """CSV columns: degree, shift_norm, szego_bound."""
    f = series_from_config(params)
    space = SpaceIndex(p=float(params["p"]), beta=float(params["beta"]))
    bound = szego_lower_bound(f)
    rows = []
    warm = None
    for degree in params["degrees"]:
        res = forward_shift_infimum(f, space, int(degree), warm=warm)
        warm = res.polynomial
        rows.append((int(degree), res.value, bound))
    report = {
        "szego_bound": bound,
        "rows": [list(r) for r in rows],
        "p": space.p,
        "beta": space.beta,
    }
    return report, ("degree", "shift_norm", "szego_bound"), rows, {}


def _run_certify(params):
    """CSV columns: degree, bicyclic_norm, shift_norm."""
    space = SpaceIndex(p=float(params["p"]), beta=float(params["beta"]))
    tail = 0.0
    # only smooth_vanishing reads `truncate`; _function_source refuses it elsewhere
    if params["truncate"] is not None:
        full = series_from_config(dict(params, truncate=None))
        f = full.truncate(int(params["truncate"]))
        full_norm = norm_ap_beta(full, space)
        if full_norm > 0.0:
            tail = norm_ap_beta(full - f, space) / full_norm
    else:
        f = series_from_config(params)
    problem = CertificateProblem(
        f=f,
        space=space,
        support=params["support"],
        degree_budget=params["degree_budget"],
        epsilon_target=params["epsilon_target"],
        truncation_tail=tail,
    )
    report_obj = certify_cyclic(problem)
    rows = [
        (row["degree"], row["bicyclic_norm"], row["shift_norm"])
        for row in report_obj.solver_trace
    ]
    return (
        report_obj.to_json_obj(),
        ("degree", "bicyclic_norm", "shift_norm"),
        rows,
        {"epsilon_target": problem.epsilon_target},
    )


def _run_decay(params):
    """CSV columns: eps, M_eps, norm, ratio."""
    E = build_set(params["set"], params["depth"])
    gamma = float(params["gamma"])
    G = params["grid"]
    space = SpaceIndex(p=float(params["p"]), beta=float(params["beta"]))
    eps_schedule = [float(e) for e in params["eps"]]
    # f = exp(-d^-gamma) and p_eps are both built from one distance profile
    d = distance_to_set(circle_grid(G), E)
    f = smooth_vanishing_function(d, gamma).series
    report_obj = p_epsilon_decay(f, d, gamma, space, eps_schedule, params["truncate"])
    rows = [
        (eps, m, norm, ratio)
        for (eps, m, norm), ratio in zip(
            report_obj.schedule, report_obj.normalized_ratios
        )
    ]
    return (
        report_obj.to_json_obj(),
        ("eps", "M_eps", "norm", "ratio"),
        rows,
        {"vanish_gate_rel": VANISH_GATE_REL},
    )


def _run_kel_ratio(params):
    """CSV columns: eps, m_eps, ratio."""
    name = params["set"]
    E = build_set(name, params["depth"])
    gamma = float(params["gamma"])
    delta_prime = float(params["delta_prime"])
    G = params["grid"]
    eps_schedule = [float(e) for e in params["eps"]]
    d = distance_to_set(circle_grid(G), E)
    ratios, m_values = lemma_kel_ratio(d, gamma, delta_prime, eps_schedule)
    rows = list(zip(eps_schedule, m_values, ratios))
    report = {
        "set": name,
        "gamma": gamma,
        "delta_prime": delta_prime,
        "grid": G,
        "ratios": list(ratios),
        "max_over_min": max(ratios) / min(ratios),
    }
    return report, ("eps", "m_eps", "ratio"), rows, {"exclusion": KEL_EXCLUSION_CELLS / G}


def _run_classify(params):
    """CSV columns: dim, p, beta, smoothness, verdict."""
    space = SpaceIndex(p=float(params["p"]), beta=float(params["beta"]))
    smoothness = params["smoothness"]
    verdict = classify_regime(
        float(params["dim"]),
        space,
        smoothness,
        params["log_nonintegrable"],
        params["log_dist_nonintegrable"],
    )
    label = smoothness if isinstance(smoothness, str) else (
        "lip_%s" % _fmt(float(smoothness[1]))
    )
    rows = [(params["dim"], space.p, space.beta, label, verdict)]
    report = {
        "dim": params["dim"],
        "p": space.p,
        "beta": space.beta,
        "smoothness": smoothness,
        "log_nonintegrable": params["log_nonintegrable"],
        "log_dist_nonintegrable": params["log_dist_nonintegrable"],
        "verdict": verdict,
    }
    return report, ("dim", "p", "beta", "smoothness", "verdict"), rows, {}


class Experiment(NamedTuple):
    """One experiment: its fields, its cross-field rules and its handler."""

    fields: dict  # name -> (check, default)
    rules: tuple  # (resolved record, given field names) -> None; raise ConfigError
    handler: object  # resolved record -> (report, header, rows, tolerances)


EXPERIMENTS = {
    "norms": Experiment(
        {**_FUNCTION_FIELDS, **_SPACE_FIELDS,
         "k_values": (_list_of(lambda k: _is_int(k) and k >= 1,
                               "k_values must be a list of positive integers"), None)},
        (_function_source(), _k_values_need_h_k), _run_norms),
    "cantor": Experiment(
        {**_SET_FIELDS, "t_min": (_POSITIVE, 1e-4), "t_max": (_POSITIVE, 0.25),
         "t_count": (_int_at_least(2), 9)},
        (_t_range,), _run_cantor),
    "carleson": Experiment(
        {**_SET_FIELDS, "grid": (_GRID, 2**12),
         "threshold": (_check(_is_number, "threshold must be a finite number"), -10.0)},
        (), _run_carleson),
    "outer": Experiment(
        {**_VANISHING_FIELDS, "eps": (_EPS, EPS_DECADE),
         "mode": (_one_of(("p_eps", "F_eps"), "mode must be 'p_eps' or 'F_eps'"), "p_eps")},
        (), _run_outer),
    "douglas": Experiment(
        {**_FUNCTION_FIELDS, "grid": (_GRID, 2**11),
         "alpha": (_list_of(lambda a: _is_number(a) and 0.0 < a < 1.0,
                            "alpha must be a list of numbers in (0, 1)"), (0.2, 0.4)),
         "exclusion": (_POSITIVE, lambda params: 10.0 / params["grid"])},
        (_function_source(own=("grid",)),), _run_douglas),
    "szego": Experiment(
        {**_FUNCTION_FIELDS, **_SPACE_FIELDS,
         "degrees": (_list_of(lambda d: _is_int(d) and d >= 0,
                              "degrees must be a list of nonnegative integers"),
                     (25, 50, 100, 200))},
        (_function_source(),), _run_szego),
    "certify": Experiment(
        {**_FUNCTION_FIELDS, **_SPACE_FIELDS,
         "support": (_one_of(SUPPORTS, "unknown support {value!r}"), "all_integers"),
         "degree_budget": (_int_at_least(0), 1024),
         "epsilon_target": (_POSITIVE, 0.25)},
        (_function_source(), _has_cyclic_vectors), _run_certify),
    "decay": Experiment(
        {**_VANISHING_FIELDS, "eps": (_EPS, EPS_DECADE), **_SPACE_FIELDS,
         "truncate": (_int_at_least(1), None)},
        (_decay_sweep_fits,), _run_decay),
    "kel_ratio": Experiment(
        {**_VANISHING_FIELDS,
         "delta_prime": (_check(_is_number, "delta_prime must be a finite number"), 1.2),
         "eps": (_EPS, (1e-1, 1e-2, 1e-3, 1e-4))},
        (_kel_exponent,), _run_kel_ratio),
    "classify": Experiment(
        {"dim": (_check(lambda v: _is_number(v) and 0.0 <= v <= 1.0,
                        "dim must lie in [0, 1]"), _REQUIRED),
         **_SPACE_FIELDS,
         "smoothness": (_check(_is_smoothness, "smoothness must be 'c_infty' or "
                               "['lip_delta', delta]"), "c_infty"),
         "log_nonintegrable": (_FLAG, False), "log_dist_nonintegrable": (_FLAG, False)},
        (), _run_classify),
}


def validate(config):
    """Check a config against its experiment's schema; return the record.

    The resolved record maps every field the experiment accepts to the
    config's value, or to the field's default where the config leaves the
    field out.  Raises ConfigError on the first problem found.
    """
    experiment = EXPERIMENTS[config.experiment]
    params = config.parameters
    unknown = set(params) - set(experiment.fields)
    if unknown:
        raise ConfigError("unknown parameters: %s" % ", ".join(sorted(unknown)))
    missing = [
        key
        for key, (_, default) in experiment.fields.items()
        if default is _REQUIRED and key not in params
    ]
    if missing:
        raise ConfigError("missing parameters: %s" % ", ".join(missing))
    record = {}
    for key, (check, default) in experiment.fields.items():
        if key in params:
            check(key, params[key])
            record[key] = params[key]
        else:
            record[key] = default(record) if callable(default) else default
    for rule in experiment.rules:
        rule(record, set(params))
    return record


def run(config):
    """Validate, dispatch, and persist one experiment.

    Returns the RunManifest.  ConfigError propagates before any file is
    written; numerical failures inside the dispatched operation, running
    out of memory included, write a manifest with status `numerical_failure`
    listing whatever partial outputs exist, then raise NumericalFailure.
    """
    if isinstance(config, dict):
        config = ExperimentConfig.from_json_obj(config)
    params = validate(config)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    outputs, tolerances, failure = [], {}, None
    try:
        report, header, rows, tolerances = EXPERIMENTS[config.experiment].handler(params)
    except (ValueError, ArithmeticError, RuntimeError, MemoryError) as exc:
        failure = exc
    else:
        csv_name = "%s.csv" % config.experiment
        _write_json(out_dir / "report.json", report)
        _write_csv(out_dir / csv_name, header, rows)
        outputs = ["report.json", csv_name]
    manifest = RunManifest(
        config=config.to_json_obj(),
        version=__version__,
        wall_clock_s=time.perf_counter() - t0,
        tolerances=tolerances,
        outputs=outputs,
        status="ok" if failure is None else "numerical_failure",
        error=None if failure is None else str(failure),
    )
    _write_json(out_dir / "manifest.json", manifest.to_json_obj())
    if failure is not None:
        raise NumericalFailure(str(failure)) from failure
    return manifest
