"""Named sets, functions and schedules shared by the batch experiments.

Each preset is something a config file can reference by name: a Cantor-type
set generator, a test function with a known closed form, or the standard
epsilon schedule.  The catalogue doubles as the `lab presets` listing, and
every entry carries an example config so the round-trip through validation
can be checked mechanically.
"""

import functools
import math

from .analytic import h_k, smooth_vanishing_function
from .fourier import FourierSeries, circle_grid
from .geometry import cantor_build, cantor_spec_by_name, distance_to_set

SET_PRESETS = ("middle_thirds", "non_carleson_n2")
# each function preset with the config fields it reads and their defaults,
# the one statement of them; depth None is the set generator's own depth
FUNCTION_PRESETS = {"h_k": {"k": 5, "max_degree": None, "tail_tol": 1e-13},
                    "smooth_vanishing": {"set": "non_carleson_n2", "depth": None,
                                         "gamma": 1.0, "grid": 2**14, "truncate": None},
                    "z_minus_1": {}}

# the standard geometric schedule: one decade per step
EPS_DECADE = tuple(10.0**-j for j in range(1, 7))


def build_set(name, depth=None):
    """ArcUnion for a named set preset (depth defaults per generator).

    One shared set per resolved CantorSpec: `build_set(name)` and
    `build_set(name, default_depth)` return the same object, built once per
    process while it stays among the four most recently used.  Sharing is
    safe because an ArcUnion and its arrays are read-only.
    """
    if name not in SET_PRESETS:
        raise ValueError(
            "unknown set preset %r; available: %s" % (name, ", ".join(SET_PRESETS))
        )
    return _shared_set(cantor_spec_by_name(name, depth))


# four: the distinct sets of the catalogue examples and the eps sweeps on both
# presets (middle thirds at depths 6, 8 and 12, non_carleson_n2 at 20);
# `cantor_build` is looked up per call, so a tracer wrapping it counts builds
@functools.lru_cache(maxsize=4)
def _shared_set(spec):
    return cantor_build(spec)


def moebius_gap_series(k, max_degree=None, tail_tol=FUNCTION_PRESETS["h_k"]["tail_tol"]):
    """The series 1 - h_k, whose p-norm has the closed form 1/((k+1)^p - k^p).

    The geometric coefficient tail is cut adaptively: `max_degree` defaults
    to the smallest N with l1 tail (k/(k+1))^(N+1) below `tail_tol`, so the
    closed-form identity survives truncation at full precision.
    """
    k = int(k)
    if k < 1:
        raise ValueError("k must be a positive integer")
    if max_degree is None:
        ratio = k / (k + 1.0)
        max_degree = max(8, int(math.ceil(math.log(tail_tol) / math.log(ratio))))
    expansion = h_k(k, int(max_degree))
    return FourierSeries({0: 1.0}) - expansion.series


def z_minus_1():
    """The linear test function z - 1: one simple zero, bicyclic, not cyclic."""
    return FourierSeries({0: -1.0, 1: 1.0})


def build_function(name, params):
    """FourierSeries for a named function preset; `params` supplies knobs,
    and FUNCTION_PRESETS fills the ones it leaves out."""
    if name not in FUNCTION_PRESETS:
        raise ValueError("unknown function preset %r; available: %s"
                         % (name, ", ".join(FUNCTION_PRESETS)))
    knobs = {**FUNCTION_PRESETS[name], **params}
    if name == "h_k":
        return moebius_gap_series(knobs["k"], knobs["max_degree"], knobs["tail_tol"])
    if name == "z_minus_1":
        return z_minus_1()
    E = build_set(knobs["set"], knobs["depth"])
    d = distance_to_set(circle_grid(int(knobs["grid"])), E)
    series = smooth_vanishing_function(d, float(knobs["gamma"])).series
    if knobs["truncate"] is not None:
        series = series.truncate(int(knobs["truncate"]))
    return series


def series_from_config(params):
    """Resolve the `preset`/`coeffs` part of an experiment parameter record."""
    if params.get("coeffs") is not None:
        return FourierSeries(
            {int(n): complex(re, im) for n, re, im in params["coeffs"]}
        )
    return build_function(params["preset"], params)


CATALOGUE = [
    {
        "name": "middle_thirds",
        "kind": "set",
        "doc": "Classical Cantor generator, level-n gaps 2*pi/3^n; Carleson.",
        "parameters": "depth (default %d)" % cantor_spec_by_name("middle_thirds").depth,
        "example_config": {
            "experiment": "cantor",
            "parameters": {"set": "middle_thirds", "depth": 8},
        },
    },
    {
        "name": "non_carleson_n2",
        "kind": "set",
        "doc": "Gaps c*2^-n/n^2 tuned to leave measure 2*pi*2^-depth; the "
        "complementary-interval sum diverges, so deep levels are "
        "non-Carleson evidence.",
        "parameters": "depth (default %d)" % cantor_spec_by_name("non_carleson_n2").depth,
        "example_config": {
            "experiment": "carleson",
            "parameters": {"set": "non_carleson_n2", "depth": 20},
        },
    },
    {
        "name": "h_k",
        "kind": "function",
        "doc": "1 - h_k with h_k the Moebius factor (z-1)/(z-1-1/k); the "
        "p-norm obeys norm^p = 1/((k+1)^p - k^p) exactly.",
        "parameters": "k (default %(k)d), max_degree (default: l1 tail < %(tail_tol)g)"
        % FUNCTION_PRESETS["h_k"],
        "example_config": {
            "experiment": "norms",
            "parameters": {"preset": "h_k", "k": 5, "p": 2.0, "beta": 0.0},
        },
    },
    {
        "name": "smooth_vanishing",
        "kind": "function",
        "doc": "exp(-d(., E)^-gamma) on a named set: flat zero on E, smooth "
        "off it; the central object of the decay and certificate runs.",
        "parameters": "set (default %(set)s), gamma (default %(gamma)g), grid (default "
        "%(grid)d; 2048 in douglas), depth, truncate" % FUNCTION_PRESETS["smooth_vanishing"],
        "example_config": {
            "experiment": "szego",
            "parameters": {
                "preset": "smooth_vanishing",
                "set": "middle_thirds",
                "depth": 6,
                "gamma": 1.0,
                "grid": 2048,
                "truncate": 256,
                "degrees": [16, 32],
            },
        },
    },
    {
        "name": "z_minus_1",
        "kind": "function",
        "doc": "z - 1: a single simple zero; bicyclic with closed-form "
        "certificate norms, shift side floored at the Szego value 1.",
        "parameters": "none",
        "example_config": {
            "experiment": "certify",
            "parameters": {
                "preset": "z_minus_1",
                "p": 1.5,
                "beta": 0.0,
                "degree_budget": 64,
                "epsilon_target": 0.5,
            },
        },
    },
]


def catalogue_text():
    """Human-readable preset listing for the command line."""
    lines = ["Available presets (name [kind]: description; parameters):", ""]
    for entry in CATALOGUE:
        lines.append("  %s [%s]" % (entry["name"], entry["kind"]))
        lines.append("      %s" % entry["doc"])
        lines.append("      parameters: %s" % entry["parameters"])
    lines.append("")
    lines.append(
        "Epsilon schedules: pass explicit lists in configs, or the flag "
        "syntax START:STOP:xRATIO (for example 1e-1:1e-6:x10 for the "
        "standard decade schedule)."
    )
    return "\n".join(lines)
