"""The three benchmark workloads: seeded inputs, timed operations, checks.

A workload builds its inputs from the seed in `setup`, lists one round of
operations in `operations`, checks each operation's output in `check`
(against checks.py, never against a stored copy of an earlier output) and
names the achieved certificate norms in `norms`.  Functions of cyclab are
looked up on their modules at call time, so a traced run sees them through
the tracer's wrappers.
"""

import cmath
import copy
import json
import math
import random
from pathlib import Path

import numpy as np

import checks
from cyclab import engine, experiments, fourier, presets

P15 = fourier.SpaceIndex(1.5, 0.0)
P2 = fourier.SpaceIndex(2.0, 0.0)


def rotate(f, seed):
    """c_n -> c * e^(i n phi) * c_n with |c| = 1, drawn from the seed.

    A unimodular constant and a rotation of the circle leave every infimum
    unchanged in exact arithmetic; seed 0 is the identity.
    """
    if seed == 0:
        return f
    rng = np.random.default_rng(seed)
    c = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return fourier.FourierSeries(
        {n: c * cmath.exp(1j * n * phi) * v for n, v in f.coeffs.items()}
    )


class CertifySmall:
    """certify_cyclic at degree budget 64: both infima under the size threshold."""

    name = "certify_small"
    DEGREE = 64
    FUNCTION = {"set": "middle_thirds", "depth": 6, "gamma": 1.0, "grid": 2048,
                "truncate": 256}

    def setup(self, seed):
        f = rotate(presets.build_function("smooth_vanishing", self.FUNCTION), seed)
        problem = engine.CertificateProblem(
            f=f, space=P15, degree_budget=self.DEGREE, epsilon_target=0.25
        )
        return {"problem": problem, "f": checks.dense(f.coeffs)}

    def operations(self, inputs, round_dir):
        return [("certify_cyclic", lambda: engine.certify_cyclic(inputs["problem"]))]

    def check(self, inputs, label, rep):
        f, p = inputs["f"], P15.p
        if "brackets" not in inputs:
            inputs["brackets"] = (
                checks.two_sided_bracket(f, self.DEGREE, p),
                checks.shift_bracket(f, self.DEGREE, p),
            )
        two_sided, shift = inputs["brackets"]
        b, s = rep.achieved_bicyclic_norm, rep.achieved_shift_norm
        return (
            checks.in_bracket("bicyclic_norm", b, two_sided)
            + checks.in_bracket("shift_norm", s, shift)
            + checks.reevaluate("best_p", b, f, rep.best_p.coeffs, p)
            + checks.reevaluate("best_q", s, f, rep.best_q.coeffs, p, shift=True)
        )

    def norms(self, outputs):
        rep = outputs["certify_cyclic"]
        return rep.achieved_bicyclic_norm, rep.achieved_shift_norm


class InfimumLarge:
    """A cold two-sided infimum at degree 4096, far above the size threshold.

    The l2 shift infimum at the same degree is one exact Toeplitz solve; it
    gives the workload a shift norm without a second long search.
    """

    name = "infimum_large"
    DEGREE = 4096
    FUNCTION = {"set": "non_carleson_n2", "gamma": 1.0, "grid": 2**14,
                "truncate": 1024}

    def setup(self, seed):
        f = rotate(presets.build_function("smooth_vanishing", self.FUNCTION), seed)
        return {"f_series": f, "f": checks.dense(f.coeffs)}

    def operations(self, inputs, round_dir):
        f = inputs["f_series"]
        return [
            ("bicyclicity_infimum",
             lambda: engine.bicyclicity_infimum(f, P15, "all_integers", self.DEGREE)),
            ("forward_shift_infimum",
             lambda: engine.forward_shift_infimum(f, P2, self.DEGREE)),
        ]

    def check(self, inputs, label, res):
        f = inputs["f"]
        if label == "bicyclicity_infimum":
            if "two_sided" not in inputs:
                inputs["two_sided"] = checks.two_sided_bracket(f, self.DEGREE, P15.p)
            return (
                checks.in_bracket("bicyclic_norm", res.value, inputs["two_sided"])
                + checks.reevaluate("P", res.value, f, res.polynomial.coeffs, P15.p)
            )
        if "shift" not in inputs:
            inputs["shift"] = checks.shift_bracket(f, self.DEGREE, P2.p)
        return (
            checks.in_bracket("shift_norm", res.value, inputs["shift"])
            + checks.reevaluate("Q", res.value, f, res.polynomial.coeffs, P2.p,
                                shift=True)
        )

    def norms(self, outputs):
        return outputs["bicyclicity_infimum"].value, outputs["forward_shift_infimum"].value


def _catalogue_configs(grid):
    """Every CATALOGUE example, the sweeps, and one classifier row."""
    configs = [copy.deepcopy(entry["example_config"]) for entry in presets.CATALOGUE]
    nc = "non_carleson_n2"
    configs += [
        {"experiment": "decay", "parameters": {"set": nc, "grid": grid, "p": 1.5}},
        {"experiment": "decay",
         "parameters": {"set": "middle_thirds", "grid": grid, "p": 1.5}},
        {"experiment": "kel_ratio", "parameters": {"set": nc, "grid": grid}},
        {"experiment": "outer", "parameters": {"set": nc, "grid": grid}},
        {"experiment": "cantor", "parameters": {"set": nc}},
        # dim 1/2 < 2/q = 2/3 at p = 1.5 for a C^infty function whose log is
        # not integrable: the paper's sufficient condition for cyclicity
        {"experiment": "classify",
         "parameters": {"dim": 0.5, "p": 1.5, "log_nonintegrable": True}},
    ]
    return configs


# default depths of the set presets, as documented in presets.CATALOGUE
_DEPTHS = {"middle_thirds": 12, "non_carleson_n2": 20}


def _set_and_depth(params):
    name = params.get("set", "non_carleson_n2")
    return name, params.get("depth", _DEPTHS[name])


def _check_cantor(label, params, report):
    name, depth = _set_and_depth(params)
    counts = [row[1] for row in report["profile"]]
    measure, rounding = checks.cantor_measure(name, depth)
    failures = checks.close(label + " total_measure", report["total_measure"],
                            measure, rounding)
    if report["n_arcs"] != 2**depth:
        failures.append("%s: %d arcs, expected 2^%d" % (label, report["n_arcs"], depth))
    if any(a < b for a, b in zip(counts, counts[1:])):
        failures.append("%s: covering numbers grow with t: %s" % (label, counts))
    return failures


def _check_carleson(label, params, report):
    # the family's complementary-interval sum diverges, so a deep level lands
    # past any fixed threshold (geometry.non_carleson_n2_spec)
    _, depth = _set_and_depth(params)
    failures = []
    if report["n_gaps"] != 2**depth - 1:
        failures.append("%s: %d gaps, expected 2^%d - 1" % (label, report["n_gaps"], depth))
    if report["verdict"] != "non_carleson_evidence":
        failures.append("%s: verdict %s" % (label, report["verdict"]))
    return failures


def _check_norms(label, params, report):
    ks = params.get("k_values", [params.get("k", 5)])
    failures = []
    for k, row in zip(ks, report["rows"]):
        failures += checks.close("%s h_%d" % (label, k), row["norm_pow_p"],
                                 checks.moebius_gap_identity(k, params["p"]), 1e-9)
    return failures


def _check_szego(label, params, report):
    # p = 2: each degree is an exact least-squares solve over a larger set
    norms = [row[1] for row in report["rows"]]
    if all(b <= a * (1.0 + 1e-9) for a, b in zip(norms, norms[1:])):
        return []
    return ["%s: shift norms grow with the degree: %s" % (label, norms)]


def _check_certify(label, params, report):
    # z - 1: the frequency-0 coefficient of f - z*Q*f is f_0 = -1 for every
    # analytic Q, so the shift norm is at least 1
    f = (0, np.array([-1.0, 1.0], dtype=complex))
    p = params["p"]
    degree = params["degree_budget"]  # at most 64, so the only degree searched
    b, s = report["achieved_bicyclic_norm"], report["achieved_shift_norm"]
    best_p = {n: complex(re, im) for n, re, im in report["best_p"]["coeffs"]}
    best_q = {n: complex(re, im) for n, re, im in report["best_q"]["coeffs"]}
    return (
        checks.in_bracket(label + " bicyclic_norm", b,
                          checks.two_sided_bracket(f, degree, p))
        + checks.in_bracket(label + " shift_norm", s, (1.0, checks.lp_norm(f[1], p)))
        + checks.reevaluate(label + " best_p", b, f, best_p, p)
        + checks.reevaluate(label + " best_q", s, f, best_q, p, shift=True)
    )


def _check_decay(label, params, report):
    return checks.strictly_decreasing(label + " norms",
                                      [row[2] for row in report["schedule"]])


def _check_kel_ratio(label, params, report):
    if all(math.isfinite(r) and r > 0.0 for r in report["ratios"]):
        return []
    return ["%s: ratios not finite and positive: %s" % (label, report["ratios"])]


def _check_outer(label, params, report):
    # p_eps is normalized to p_eps(0) = 1, and m_eps grows as eps falls
    failures = []
    for eps, _, at_zero, _ in report["rows"]:
        failures += checks.close("%s value_at_zero(eps=%g)" % (label, eps),
                                 at_zero, 1.0, 1e-9)
    failures += checks.strictly_decreasing(label + " -m_eps",
                                           [-row[1] for row in report["rows"]])
    return failures


def _check_classify(label, params, report):
    if report["verdict"] == "cyclic_sufficient":
        return []
    return ["%s: verdict %s, expected cyclic_sufficient" % (label, report["verdict"])]


_PROPERTIES = {
    "cantor": _check_cantor,
    "carleson": _check_carleson,
    "norms": _check_norms,
    "szego": _check_szego,
    "certify": _check_certify,
    "decay": _check_decay,
    "kel_ratio": _check_kel_ratio,
    "outer": _check_outer,
    "classify": _check_classify,
}


class LabCatalogue:
    """experiments.run on the catalogue examples and the sweeps, as `lab run` does."""

    name = "lab_catalogue"
    GRID = 2**17

    def setup(self, seed):
        configs = _catalogue_configs(self.GRID)
        order = list(range(len(configs)))
        if seed != 0:
            random.Random(seed).shuffle(order)
        # the byte-identity rerun covers the first config of each experiment
        first = {}
        for i, cfg in enumerate(configs):
            first.setdefault(cfg["experiment"], i)
        return {"configs": configs, "order": order, "rerun": set(first.values())}

    def operations(self, inputs, round_dir):
        ops = []
        for i in inputs["order"]:
            cfg = copy.deepcopy(inputs["configs"][i])
            cfg["output_dir"] = str(round_dir / ("%02d_%s" % (i, cfg["experiment"])))
            ops.append((i, lambda cfg=cfg: (cfg, experiments.run(cfg))))
        return ops

    def check(self, inputs, index, output):
        cfg, manifest = output
        exp = cfg["experiment"]
        label = "%s %s" % (exp, json.dumps(cfg["parameters"], sort_keys=True))
        if manifest.status != "ok":
            return ["%s: status %s" % (label, manifest.status)]
        out_dir = Path(cfg["output_dir"])
        report = json.loads((out_dir / "report.json").read_text())
        failures = _PROPERTIES[exp](label, cfg["parameters"], report)
        if index in inputs["rerun"]:
            again = out_dir.with_name(out_dir.name + "_rerun")
            experiments.run(dict(cfg, output_dir=str(again)))
            failures += checks.identical_files(
                label, out_dir, again, ["report.json", "%s.csv" % exp]
            )
        return failures

    def norms(self, outputs):
        for cfg, _ in outputs.values():
            if cfg["experiment"] == "certify":
                report = json.loads((Path(cfg["output_dir"]) / "report.json").read_text())
                return report["achieved_bicyclic_norm"], report["achieved_shift_norm"]
        raise LookupError("the catalogue has no certify config")


WORKLOADS = {w.name: w for w in (CertifySmall(), InfimumLarge(), LabCatalogue())}
