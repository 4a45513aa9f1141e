"""Batch experiment runner: validated configs in, JSON + CSV + manifest out.

A config names one experiment, a parameter record and an output directory.
Validation is strict (unknown fields are rejected, ranges checked) and runs
before anything touches the disk, so a bad config produces no outputs.
Failures inside the numerics are a separate class: whatever was written
stays on disk and the manifest flags the failure.

Every experiment writes `report.json` (full structured results),
`<experiment>.csv` (one flat plot-ready table; columns are fixed per
experiment and documented in each handler) and `manifest.json` (config echo,
package version, wall clock, tolerance knobs, output list).  All numeric
formatting goes through `repr`, so reruns of one config are byte-identical
in the CSV and the report.
"""

import json
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .analytic import (
    douglas_seminorm,
    m_epsilon,
    outer_power_modulus,
    smooth_vanishing_function,
)
from .engine import (
    CertificateProblem,
    certify_cyclic,
    classify_regime,
    forward_shift_infimum,
    lemma_kel_ratio,
    p_epsilon_decay,
    szego_lower_bound,
)
from .fourier import FourierSeries, SpaceIndex, eval_on_grid, norm_ap_beta
from .geometry import (
    box_dimension_estimate,
    carleson_test,
    cantor_spec_by_name,
    covering_profile,
    log_t_grid,
)
from .presets import EPS_DECADE, SET_PRESETS, build_set, series_from_config

EXPERIMENTS = (
    "norms",
    "cantor",
    "carleson",
    "outer",
    "douglas",
    "szego",
    "certify",
    "decay",
    "kel_ratio",
    "classify",
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
        return {
            "experiment": self.experiment,
            "parameters": self.parameters,
            "output_dir": self.output_dir,
        }


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
        obj = {
            "config": self.config,
            "version": self.version,
            "wall_clock_s": self.wall_clock_s,
            "tolerances": self.tolerances,
            "outputs": self.outputs,
            "status": self.status,
        }
        if self.error is not None:
            obj["error"] = self.error
        return obj


# -- validation helpers ------------------------------------------------------


def _check_keys(params, required, optional):
    unknown = set(params) - set(required) - set(optional)
    if unknown:
        raise ConfigError("unknown parameters: %s" % ", ".join(sorted(unknown)))
    missing = set(required) - set(params)
    if missing:
        raise ConfigError("missing parameters: %s" % ", ".join(sorted(missing)))


def _positive(params, key):
    value = params.get(key)
    if value is not None and not (isinstance(value, (int, float)) and value > 0):
        raise ConfigError("%s must be a positive number" % key)


def _space(params):
    p = params.get("p", 2.0)
    beta = params.get("beta", 0.0)
    if not isinstance(p, (int, float)) or not (1.0 < p <= 2.0):
        raise ConfigError("p must lie in (1, 2]")
    if not isinstance(beta, (int, float)) or beta < 0.0:
        raise ConfigError("beta must be >= 0")
    return SpaceIndex(p=float(p), beta=float(beta))


def _eps_schedule(params, default=EPS_DECADE):
    eps = params.get("eps", list(default))
    if not isinstance(eps, (list, tuple)) or not eps:
        raise ConfigError("eps must be a nonempty list")
    vals = []
    for e in eps:
        if not isinstance(e, (int, float)) or e <= 0.0:
            raise ConfigError("eps entries must be positive numbers")
        vals.append(float(e))
    if any(b >= a for a, b in zip(vals, vals[1:])):
        raise ConfigError("eps schedule must be strictly decreasing")
    return vals


def _grid(params, default=2**14):
    G = params.get("grid", default)
    if not isinstance(G, int) or G < 16 or (G & (G - 1)) != 0:
        raise ConfigError("grid must be a power of two >= 16")
    return G


def _set_name(params):
    name = params.get("set", "non_carleson_n2")
    if name not in SET_PRESETS:
        raise ConfigError(
            "unknown set preset %r; available: %s" % (name, ", ".join(SET_PRESETS))
        )
    depth = params.get("depth")
    if depth is not None and (not isinstance(depth, int) or depth < 1):
        raise ConfigError("depth must be a positive integer")
    return name, depth


def _function_params(params):
    if ("preset" in params) == ("coeffs" in params):
        raise ConfigError("give exactly one of 'preset' or 'coeffs'")
    if "coeffs" in params:
        coeffs = params["coeffs"]
        ok = isinstance(coeffs, list) and all(
            isinstance(row, list) and len(row) == 3 for row in coeffs
        )
        if not ok:
            raise ConfigError("coeffs must be a list of [n, re, im] triples")
        freqs = [row[0] for row in coeffs]
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in freqs):
            raise ConfigError("coeffs frequencies must be integers")
        # a series is stored densely over its frequency span
        if freqs and max(freqs) - min(freqs) > 2**20:
            raise ConfigError("coeffs frequencies must span at most 2**20")


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
    space = _space(params)
    rows = []
    if params.get("preset") == "h_k" and "k_values" in params:
        ks = params["k_values"]
        for k in ks:
            sub = dict(params)
            sub.pop("k_values")
            sub["k"] = k
            f = series_from_config(sub)
            norm = norm_ap_beta(f, space)
            rows.append(("h_%d" % k, space.p, space.beta, norm, norm**space.p))
    else:
        f = series_from_config(params)
        label = params.get("preset", "coeffs")
        if label == "h_k":
            label = "h_%d" % params.get("k", 5)
        norm = norm_ap_beta(f, space)
        rows.append((label, space.p, space.beta, norm, norm**space.p))
    report = {
        "rows": [
            {
                "label": r[0],
                "p": r[1],
                "beta": r[2],
                "norm": r[3],
                "norm_pow_p": r[4],
            }
            for r in rows
        ]
    }
    return report, ("label", "p", "beta", "norm", "norm_pow_p"), rows, {}


def _validate_norms(params):
    _check_keys(
        params,
        (),
        ("preset", "coeffs", "k", "k_values", "max_degree", "tail_tol", "set",
         "gamma", "grid", "depth", "truncate", "p", "beta"),
    )
    _function_params(params)
    _space(params)
    if "k_values" in params:
        ks = params["k_values"]
        if not isinstance(ks, list) or not all(isinstance(k, int) and k >= 1 for k in ks):
            raise ConfigError("k_values must be a list of positive integers")


def _run_cantor(params):
    """CSV columns: t, covering_count, tube_measure."""
    name, depth = _set_name(params)
    spec = cantor_spec_by_name(name, depth)
    E = build_set(name, depth)
    t_min = params.get("t_min", 1e-4)
    t_max = params.get("t_max", 0.25)
    t_count = params.get("t_count", 9)
    profile = covering_profile(E, log_t_grid(t_min, t_max, t_count))
    rows = [(t, int(N), tube) for t, N, tube in profile.samples]
    report = {
        "set": name,
        "depth": spec.depth,
        "n_arcs": E.n_arcs,
        "total_measure": E.total_measure,
        "profile": [list(r) for r in rows],
    }
    try:
        report["box_dimension"] = box_dimension_estimate(
            E, [t for t, _, _ in rows]
        )
    except ValueError:
        report["box_dimension"] = None
    return report, ("t", "covering_count", "tube_measure"), rows, {}


def _validate_cantor(params):
    _check_keys(params, (), ("set", "depth", "t_min", "t_max", "t_count"))
    _set_name(params)
    for key in ("t_min", "t_max"):
        _positive(params, key)
    t_count = params.get("t_count")
    if t_count is not None and (not isinstance(t_count, int) or t_count < 2):
        raise ConfigError("t_count must be an integer >= 2")


def _run_carleson(params):
    """CSV columns: set, depth, interval_sum, interval_sum_radian, log_integral, verdict."""
    name, depth = _set_name(params)
    spec = cantor_spec_by_name(name, depth)
    E = build_set(name, depth)
    G = _grid(params, default=2**12)
    result = carleson_test(
        E, G, divergence_threshold=params.get("threshold", -10.0)
    )
    rows = [
        (
            name,
            spec.depth,
            result["interval_sum"],
            result["interval_sum_radian"],
            result["log_integral"],
            result["verdict"],
        )
    ]
    report = dict(result)
    report["set"] = name
    report["depth"] = spec.depth
    header = ("set", "depth", "interval_sum", "interval_sum_radian",
              "log_integral", "verdict")
    return report, header, rows, {"divergence_threshold": params.get("threshold", -10.0)}


def _validate_carleson(params):
    _check_keys(params, (), ("set", "depth", "grid", "threshold"))
    _set_name(params)
    _grid(params, default=2**12)
    threshold = params.get("threshold")
    if threshold is not None and not isinstance(threshold, (int, float)):
        raise ConfigError("threshold must be a number")


def _run_outer(params):
    """CSV columns: eps, m_eps, value_at_zero, leakage."""
    name, depth = _set_name(params)
    E = build_set(name, depth)
    gamma = float(params.get("gamma", 1.0))
    G = _grid(params)
    mode = params.get("mode", "p_eps")
    eps_schedule = _eps_schedule(params)
    rows = []
    for eps in eps_schedule:
        outer = outer_power_modulus(E, gamma, eps, mode, G)
        m_value = m_epsilon(E, gamma, eps, G)
        rows.append((eps, m_value, outer.value_at_zero, outer.leakage))
    report = {
        "set": name,
        "gamma": gamma,
        "grid": G,
        "mode": mode,
        "rows": [list(r) for r in rows],
    }
    return report, ("eps", "m_eps", "value_at_zero", "leakage"), rows, {
        "m_epsilon_self_check": 3e-3,
    }


def _validate_outer(params):
    _check_keys(params, (), ("set", "depth", "gamma", "grid", "eps", "mode"))
    _set_name(params)
    _positive(params, "gamma")
    _grid(params)
    _eps_schedule(params)
    mode = params.get("mode", "p_eps")
    if mode not in ("p_eps", "F_eps"):
        raise ConfigError("mode must be 'p_eps' or 'F_eps'")


def _run_douglas(params):
    """CSV columns: alpha, coefficient_value, quadrature_value, band_matched_value."""
    f = series_from_config(params)
    G = _grid(params, default=2**11)
    samples = eval_on_grid(f, G)
    exclusion = params.get("exclusion", 10.0 / G)
    alphas = params.get("alpha", [0.2, 0.4])
    rows = []
    for alpha in alphas:
        res = douglas_seminorm(samples, float(alpha), exclusion)
        rows.append((alpha, res.value, res.quadrature_value, res.band_matched_value))
    report = {
        "grid": G,
        "exclusion": exclusion,
        "rows": [list(r) for r in rows],
    }
    header = ("alpha", "coefficient_value", "quadrature_value", "band_matched_value")
    return report, header, rows, {"exclusion": exclusion}


def _validate_douglas(params):
    _check_keys(
        params,
        (),
        ("preset", "coeffs", "k", "max_degree", "tail_tol", "set", "gamma",
         "grid", "depth", "truncate", "alpha", "exclusion"),
    )
    _function_params(params)
    _grid(params, default=2**11)
    alphas = params.get("alpha", [0.2, 0.4])
    if not isinstance(alphas, list) or not all(
        isinstance(a, (int, float)) and 0.0 < a < 1.0 for a in alphas
    ):
        raise ConfigError("alpha must be a list of numbers in (0, 1)")
    _positive(params, "exclusion")


def _run_szego(params):
    """CSV columns: degree, shift_norm, szego_bound."""
    f = series_from_config(params)
    space = _space(params)
    degrees = params.get("degrees", [25, 50, 100, 200])
    bound = szego_lower_bound(f)
    rows = []
    warm = None
    for degree in degrees:
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


def _validate_szego(params):
    _check_keys(
        params,
        (),
        ("preset", "coeffs", "k", "max_degree", "tail_tol", "set", "gamma",
         "grid", "depth", "truncate", "p", "beta", "degrees"),
    )
    _function_params(params)
    _space(params)
    degrees = params.get("degrees")
    if degrees is not None and (
        not isinstance(degrees, list)
        or not all(isinstance(d, int) and d >= 0 for d in degrees)
    ):
        raise ConfigError("degrees must be a list of nonnegative integers")


def _run_certify(params):
    """CSV columns: degree, bicyclic_norm, shift_norm."""
    space = _space(params)
    tail = 0.0
    if params.get("preset") == "smooth_vanishing" and params.get("truncate") is not None:
        full_params = dict(params)
        full_params.pop("truncate")
        full = series_from_config(full_params)
        f = full.truncate(int(params["truncate"]))
        full_norm = norm_ap_beta(full, space)
        if full_norm > 0.0:
            tail = norm_ap_beta(full - f, space) / full_norm
    else:
        f = series_from_config(params)
    problem = CertificateProblem(
        f=f,
        space=space,
        support=params.get("support", "all_integers"),
        degree_budget=params.get("degree_budget", 1024),
        epsilon_target=params.get("epsilon_target", 0.25),
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


def _validate_certify(params):
    _check_keys(
        params,
        (),
        ("preset", "coeffs", "k", "max_degree", "tail_tol", "set", "gamma",
         "grid", "depth", "truncate", "p", "beta", "support", "degree_budget",
         "epsilon_target"),
    )
    _function_params(params)
    space = _space(params)
    if space.beta * space.q > 1.0:
        raise ConfigError("beta*q > 1: the space has no cyclic vectors")
    support = params.get("support", "all_integers")
    if support not in ("all_integers", "nonneg", "positive"):
        raise ConfigError("unknown support %r" % support)
    budget = params.get("degree_budget")
    if budget is not None and (not isinstance(budget, int) or budget < 0):
        raise ConfigError("degree_budget must be a nonnegative integer")
    _positive(params, "epsilon_target")
    if "gamma" in params:
        _positive(params, "gamma")


def _run_decay(params):
    """CSV columns: eps, M_eps, norm, ratio."""
    name, depth = _set_name(params)
    E = build_set(name, depth)
    gamma = float(params.get("gamma", 1.0))
    G = _grid(params)
    space = _space(params)
    eps_schedule = _eps_schedule(params)
    f = smooth_vanishing_function(E, gamma, G).series
    report_obj = p_epsilon_decay(
        f, E, gamma, space, eps_schedule, G=G, truncation=params.get("truncate")
    )
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
        {"vanish_gate_rel": 1e-6},
    )


def _validate_decay(params):
    _check_keys(
        params,
        (),
        ("set", "depth", "gamma", "grid", "eps", "p", "beta", "truncate"),
    )
    _set_name(params)
    _positive(params, "gamma")
    _grid(params)
    _space(params)
    _eps_schedule(params)
    truncate = params.get("truncate")
    if truncate is not None and (not isinstance(truncate, int) or truncate < 1):
        raise ConfigError("truncate must be a positive integer")


def _run_kel_ratio(params):
    """CSV columns: eps, m_eps, ratio."""
    name, depth = _set_name(params)
    E = build_set(name, depth)
    gamma = float(params.get("gamma", 1.0))
    delta_prime = float(params.get("delta_prime", 1.2))
    G = _grid(params)
    eps_schedule = _eps_schedule(params, default=(1e-1, 1e-2, 1e-3, 1e-4))
    ratios = lemma_kel_ratio(E, gamma, delta_prime, eps_schedule, G)
    rows = [
        (eps, m_epsilon(E, gamma, eps, G), ratio)
        for eps, ratio in zip(eps_schedule, ratios)
    ]
    report = {
        "set": name,
        "gamma": gamma,
        "delta_prime": delta_prime,
        "grid": G,
        "ratios": list(ratios),
        "max_over_min": max(ratios) / min(ratios),
    }
    return report, ("eps", "m_eps", "ratio"), rows, {"exclusion": 10.0 / G}


def _validate_kel_ratio(params):
    _check_keys(
        params, (), ("set", "depth", "gamma", "delta_prime", "grid", "eps")
    )
    _set_name(params)
    _positive(params, "gamma")
    _grid(params)
    _eps_schedule(params, default=(1e-1, 1e-2, 1e-3, 1e-4))
    gamma = params.get("gamma", 1.0)
    delta_prime = params.get("delta_prime", 1.2)
    if not isinstance(delta_prime, (int, float)):
        raise ConfigError("delta_prime must be a number")
    if 2.0 * delta_prime - gamma - 1.0 < 0.0:
        raise ConfigError("need 2*delta_prime - gamma - 1 >= 0")


def _run_classify(params):
    """CSV columns: dim, p, beta, smoothness, verdict."""
    space = _space(params)
    smoothness = params.get("smoothness", "c_infty")
    verdict = classify_regime(
        float(params["dim"]),
        space,
        smoothness,
        bool(params.get("log_nonintegrable", False)),
        bool(params.get("log_dist_nonintegrable", False)),
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
        "log_nonintegrable": bool(params.get("log_nonintegrable", False)),
        "log_dist_nonintegrable": bool(params.get("log_dist_nonintegrable", False)),
        "verdict": verdict,
    }
    return report, ("dim", "p", "beta", "smoothness", "verdict"), rows, {}


def _validate_classify(params):
    _check_keys(
        params,
        ("dim",),
        ("p", "beta", "smoothness", "log_nonintegrable", "log_dist_nonintegrable"),
    )
    dim = params["dim"]
    if not isinstance(dim, (int, float)) or not (0.0 <= dim <= 1.0):
        raise ConfigError("dim must lie in [0, 1]")
    _space(params)
    smoothness = params.get("smoothness", "c_infty")
    if smoothness != "c_infty":
        ok = (
            isinstance(smoothness, (list, tuple))
            and len(smoothness) == 2
            and smoothness[0] == "lip_delta"
            and isinstance(smoothness[1], (int, float))
        )
        if not ok:
            raise ConfigError(
                "smoothness must be 'c_infty' or ['lip_delta', delta]"
            )


_HANDLERS = {
    "norms": (_validate_norms, _run_norms),
    "cantor": (_validate_cantor, _run_cantor),
    "carleson": (_validate_carleson, _run_carleson),
    "outer": (_validate_outer, _run_outer),
    "douglas": (_validate_douglas, _run_douglas),
    "szego": (_validate_szego, _run_szego),
    "certify": (_validate_certify, _run_certify),
    "decay": (_validate_decay, _run_decay),
    "kel_ratio": (_validate_kel_ratio, _run_kel_ratio),
    "classify": (_validate_classify, _run_classify),
}


def validate(config):
    """Run all pre-dispatch checks; raises ConfigError on any problem."""
    validator, _ = _HANDLERS[config.experiment]
    validator(config.parameters)


def run(config):
    """Validate, dispatch, and persist one experiment.

    Returns the RunManifest.  ConfigError propagates before any file is
    written; numerical failures inside the dispatched operation write a
    manifest with status `numerical_failure` listing whatever partial
    outputs exist, then raise NumericalFailure.
    """
    if isinstance(config, dict):
        config = ExperimentConfig.from_json_obj(config)
    validate(config)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    outputs = []
    _, handler = _HANDLERS[config.experiment]
    try:
        report, header, rows, tolerances = handler(config.parameters)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        manifest = RunManifest(
            config=config.to_json_obj(),
            version=__version__,
            wall_clock_s=time.perf_counter() - t0,
            tolerances={},
            outputs=outputs,
            status="numerical_failure",
            error=str(exc),
        )
        _write_json(out_dir / "manifest.json", manifest.to_json_obj())
        raise NumericalFailure(str(exc)) from exc

    report_path = out_dir / "report.json"
    _write_json(report_path, report)
    outputs.append(report_path.name)
    csv_path = out_dir / ("%s.csv" % config.experiment)
    _write_csv(csv_path, header, rows)
    outputs.append(csv_path.name)
    manifest = RunManifest(
        config=config.to_json_obj(),
        version=__version__,
        wall_clock_s=time.perf_counter() - t0,
        tolerances=tolerances,
        outputs=outputs,
        status="ok",
    )
    _write_json(out_dir / "manifest.json", manifest.to_json_obj())
    return manifest
