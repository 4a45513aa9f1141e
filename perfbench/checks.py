"""Correctness checks for the benchmark, computed apart from the engine.

Every function here works on plain coefficient arrays with numpy and
scipy.linalg only, so a fault in the program cannot hide itself by also
breaking the check.  Each check returns a list of failure messages; an empty
list means the output passed.

Conventions: a sequence is a pair (lo, arr) with arr[i] the coefficient of
frequency lo + i.  Norms are unweighted (beta = 0), as in every benchmark
workload.
"""

import math

import numpy as np
from scipy.linalg import solve_toeplitz

# |re-evaluated norm - reported norm| allowed for a stored polynomial
REEVAL_TOL = 1e-10
# slack on bracket ends for rounding in the two independent solves
BRACKET_RTOL = 1e-9


def dense(coeffs):
    """(lo, complex array) from a frequency -> amplitude mapping."""
    keys = sorted(coeffs)
    lo = keys[0]
    arr = np.zeros(keys[-1] - lo + 1, dtype=complex)
    for n in keys:
        arr[n - lo] = coeffs[n]
    return lo, arr


def lp_norm(arr, p):
    return float(np.sum(np.abs(arr) ** p)) ** (1.0 / p)


def _residual(f, target, x_lo, x):
    """target - f*x as (lo, arr) over the union of both index ranges."""
    f_lo, fa = f
    t_lo, ta = target
    conv = np.convolve(fa, x)
    c_lo = f_lo + x_lo
    lo = min(t_lo, c_lo)
    hi = max(t_lo + len(ta), c_lo + len(conv)) - 1
    r = np.zeros(hi - lo + 1, dtype=complex)
    r[t_lo - lo : t_lo - lo + len(ta)] += ta
    r[c_lo - lo : c_lo - lo + len(conv)] -= conv
    return lo, r


def l2_projection_bracket(f, target, x_lo, x_hi, q):
    """Residual of the exact l2 minimizer and a Hoelder lower bound.

    Minimizes ||target - f*x||_2 over x supported on [x_lo, x_hi] through
    the Toeplitz normal equations.  The residual y is then projected onto
    ker A^H (A: x -> f*x) by two more solves, so that <y, target - f*x> =
    <y, target> for every x, and Hoelder gives
    ||target - f*x||_p >= |<y, target>| / ||y||_q for the conjugate q.
    Returns (residual of the l2 minimizer as (lo, arr), that lower bound).
    """
    f_lo, fa = f
    nf = len(fa)
    n = x_hi - x_lo + 1

    def adjoint(r_lo, r):
        # (A^H r)_i = sum_m conj(f_m) r_{m + x_lo + i}
        full = np.convolve(np.conj(fa[::-1]), r)
        start = (nf - 1) + (f_lo + x_lo - r_lo)
        return full[start : start + n]

    auto = np.convolve(np.conj(fa[::-1]), fa)[nf - 1 :]
    col = np.zeros(n, dtype=complex)
    col[: min(n, nf)] = auto[: min(n, nf)]
    toeplitz = (col, np.conj(col))

    zero_lo, zero = _residual(f, target, x_lo, np.zeros(n, dtype=complex))
    x = solve_toeplitz(toeplitz, adjoint(zero_lo, zero))
    y_lo, y = _residual(f, target, x_lo, x)
    proj = y
    for _ in range(2):
        step = solve_toeplitz(toeplitz, adjoint(y_lo, proj))
        _, proj = _residual(f, (y_lo, proj), x_lo, step)
    t_lo, ta = target
    pairing = np.vdot(proj[t_lo - y_lo : t_lo - y_lo + len(ta)], ta)
    return (y_lo, y), abs(pairing) / lp_norm(proj, q)


def two_sided_bracket(f, degree, p):
    """[lb, ub] for the l^p infimum of 1 - P*f over P on [-degree, degree].

    ub is the l^p norm of the exact l2 minimizer's residual, the iterate the
    engine's reweighting starts from and never ends above; lb is the
    Hoelder bound with q = p/(p-1).
    """
    one = (0, np.ones(1, dtype=complex))
    (_, y), lb = l2_projection_bracket(f, one, -degree, degree, p / (p - 1.0))
    return lb, lp_norm(y, p)


def shift_bracket(f, degree, p):
    """[lb, ub] for the l^p infimum of f - z*Q*f over Q on [0, degree], p <= 2.

    lb is the exact l2 infimum (l2 <= l^p for p <= 2), ub is ||f||_p (Q = 0).
    """
    _, lb = l2_projection_bracket(f, f, 1, degree + 1, 2.0)
    return lb, lp_norm(f[1], p)


def in_bracket(label, value, bracket):
    lb, ub = bracket
    slack = BRACKET_RTOL * max(abs(ub), 1e-300)
    if lb - slack <= value <= ub + slack:
        return []
    return ["%s: %.10g outside [%.10g, %.10g]" % (label, value, lb, ub)]


def reevaluate(label, value, f, poly, p, shift=False):
    """Recompute ||1 - P*f||_p (or ||f - z*Q*f||_p) with np.convolve.

    `poly` is the stored polynomial as a frequency -> amplitude mapping.
    """
    if not poly:
        return ["%s: no stored polynomial" % label]
    x_lo, x = dense(poly)
    if shift:
        target, x_lo = f, x_lo + 1
    else:
        target = (0, np.ones(1, dtype=complex))
    _, r = _residual(f, target, x_lo, x)
    got = lp_norm(r, p)
    if abs(got - value) <= REEVAL_TOL:
        return []
    return ["%s: stored polynomial re-evaluates to %.15g, reported %.15g"
            % (label, got, value)]


def identical_files(label, first_dir, second_dir, names):
    """Byte-for-byte equality of the named files in two run directories."""
    failures = []
    for name in names:
        a = (first_dir / name).read_bytes()
        b = (second_dir / name).read_bytes()
        if a != b:
            failures.append("%s: %s differs between two runs of one config" % (label, name))
    return failures


def close(label, got, want, atol):
    if abs(got - want) <= atol:
        return []
    return ["%s: %.15g, expected %.15g (atol %g)" % (label, got, want, atol)]


def moebius_gap_identity(k, p):
    """Closed form of ||1 - h_k||_p^p."""
    return 1.0 / ((k + 1.0) ** p - k**p)


def cantor_measure(name, depth):
    """Total measure left at `depth`, and the rounding it may carry.

    The measure is (2/3)^depth or 2^-depth of 2*pi.  A summed arc length
    end - start is off by up to two roundings of endpoints in [0, 2*pi].
    """
    ratio = 2.0 / 3.0 if name == "middle_thirds" else 0.5
    return 2.0 * math.pi * ratio**depth, 2**depth * 2.0 * math.ulp(2.0 * math.pi)


def strictly_decreasing(label, values):
    if all(a > b for a, b in zip(values, values[1:])):
        return []
    return ["%s: not strictly decreasing: %s" % (label, values)]
