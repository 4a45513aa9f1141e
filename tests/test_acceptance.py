"""Acceptance suite: the eleven end-to-end checks the package ships with.

One test per criterion.  Each test evaluates every clause of its criterion,
prints a single PASS/FAIL summary line followed by one detail line per
clause (visible under ``pytest -s``, or in the failure report), and then
asserts that all clauses hold.  Tolerances and runtime budgets are stated
inline next to the measured numbers, so the output reads as a self-contained
scorecard.

Two criteria check what the method promises for the non-Carleson preset,
not a number no correct program can reach.  For p = 1.5 the sufficient
condition needs dim Z(f) < 2/q = 2/3, while the box-dimension estimate of
the preset is 0.74-0.76 and the classifier answers ``indeterminate``, so no
certificate is promised:

* criterion 8: the decay factor of ``||p_eps f||`` over the six-decade
  schedule is 0.55.  No exact evaluation can go below
  ``||p_eps f||_2 / ||p_eps f||_1`` (final eps over first eps), which is
  0.234, so a factor under 0.1 is out of reach.  The clause checks the decay
  the envelope predicts instead: the l^2 norm falls like e^(-m_eps), so the
  factor stays below exp(m_first - m_last) * sqrt((1 + m_last) / (1 + m_first)),
  which is 0.638 here;
* criterion 10: the two-sided l^1.5 infimum at degree budget 4096 lies in
  the bracket [0.457, 0.566] computed in the test, apart from the engine.
  The lower end is a Hoelder bound from the residual of the p = 2
  minimizer, found by one Levinson solve, and the upper end the l^1.5 norm
  of that residual.  The target 0.25 is below the bracket, so the clause
  checks that the achieved norm lies in it and that the verdict does not
  claim the two-sided certificate.

Everything else passes with the margins printed by the suite.
"""

import math
import time

import numpy as np
import scipy.linalg
from scipy.signal import fftconvolve

from cyclab.analytic import (
    douglas_seminorm,
    douglas_weights,
    lemma_kel_ratio,
    outer_from_modulus,
    outer_power_modulus,
    p_epsilon_decay,
    smooth_vanishing_function,
)
from cyclab.engine import (
    CertificateProblem,
    bicyclicity_infimum,
    certify_cyclic,
    classify_regime,
    forward_shift_infimum,
)
from cyclab.fourier import (
    FourierSeries,
    PowerLogSequence,
    SpaceIndex,
    circle_grid,
    eval_on_grid,
    inclusion_holds,
    norm_ap_beta,
    powerlog_member,
    product,
    series_from_samples,
)
from cyclab.geometry import (
    box_dimension_estimate,
    cantor_build,
    carleson_test,
    covering_profile,
    distance_to_set,
    log_t_grid,
    middle_thirds_spec,
)
from cyclab.presets import EPS_DECADE, build_set, moebius_gap_series, z_minus_1
from test_geometry import sandwich_upper_bound

P15 = SpaceIndex(1.5, 0.0)
P2 = SpaceIndex(2.0, 0.0)


def _criterion(num, name, clauses):
    """Print the scorecard block for one criterion, then assert it."""
    ok = all(flag for flag, _ in clauses)
    print()
    print("criterion %2d %s %s" % (num, "PASS" if ok else "FAIL", name))
    for flag, text in clauses:
        print("    %-4s %s" % ("ok" if flag else "FAIL", text))
    assert ok, "criterion %d: %s" % (
        num,
        "; ".join(text for flag, text in clauses if not flag),
    )


def _random_poly(rng, max_degree, two_sided=True):
    """Random trig polynomial with coefficients in the unit disc."""
    deg = int(rng.integers(0, max_degree + 1))
    lo = -deg if two_sided else 0
    coeffs = {}
    for n in range(lo, deg + 1):
        coeffs[n] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / math.sqrt(2)
    return FourierSeries(coeffs)


def _two_sided_bracket(f, degree, p):
    """Bracket [lb, ub] for the l^p infimum of 1 - P*f over two-sided P.

    P ranges over degree <= `degree` and beta = 0.  One Levinson solve with
    the Toeplitz normal matrix A^H A, A: P -> P*f, gives the l2 minimizer
    P2, with no call into the engine; y = 1 - P2*f is its residual and
    ub = ||y||_p.  For lb, y is projected onto the kernel of A^H by two more
    solves with the same matrix.  Once A^H y = 0, <y, 1 - P*f> = conj(y_0)
    for every P, and Hoelder gives ||1 - P*f||_p >= |y_0| / ||y||_q.
    Returns (lb, ub, ||A^H y||_2 after the projection).
    """
    sup = f.support()
    fa = f.dense(sup[0], sup[-1])
    nf, n = len(fa), 2 * degree + 1
    zero = degree - sup[0]  # position of frequency 0 on the output range

    def adjoint(y):
        return fftconvolve(np.conj(fa[::-1]), y)[nf - 1 : nf - 1 + n]

    col = adjoint(np.pad(fa, (0, n - 1)))  # first column of A^H A
    toeplitz = (col, np.conj(col))
    y = np.zeros(nf + n - 1, dtype=complex)
    y[zero] = 1.0
    y = y - fftconvolve(fa, scipy.linalg.solve_toeplitz(toeplitz, adjoint(y)))
    ub = float(np.sum(np.abs(y) ** p)) ** (1.0 / p)
    for _ in range(2):  # takes ||A^H y||_2 from ~1e-9 to ~1e-15
        step = scipy.linalg.solve_toeplitz(toeplitz, adjoint(y))
        y = y - fftconvolve(fa, step)
    q = p / (p - 1.0)
    lb = abs(y[zero]) / float(np.sum(np.abs(y) ** q)) ** (1.0 / q)
    return lb, ub, float(np.linalg.norm(adjoint(y)))


def test_criterion_01_moebius_gap_norm_identity():
    start = time.time()
    exponents = (1.25, 1.5, 2.0)
    worst = 0.0
    for k in range(1, 51):
        f = moebius_gap_series(k)
        for p in exponents:
            got = norm_ap_beta(f, p) ** p
            want = 1.0 / ((k + 1.0) ** p - k ** p)
            worst = max(worst, abs(got - want))
    asym = []
    f50 = moebius_gap_series(50)
    for p in exponents:
        asym.append(norm_ap_beta(f50, p) ** p * p * 50.0 ** (p - 1.0))
    elapsed = time.time() - start
    _criterion(1, "closed-form norm of the gap series 1 - h_k", [
        (worst <= 1e-9,
         "max |norm^p - 1/((k+1)^p - k^p)| = %.3e over k = 1..50, p in %s "
         "(<= 1e-9)" % (worst, exponents)),
        (all(0.95 <= a <= 1.05 for a in asym),
         "norm^p * p * k^(p-1) at k = 50: %s (each in [0.95, 1.05])"
         % ", ".join("%.4f" % a for a in asym)),
        (elapsed < 5.0, "runtime %.1fs (< 5s)" % elapsed),
    ])


def test_criterion_02_parseval_product_submultiplicative():
    start = time.time()
    rng = np.random.default_rng(20260819)
    pairs = [(p, b) for p in (1.25, 1.5, 2.0) for b in (0.0, 0.25)]
    worst_parseval = 0.0
    worst_conv = 0.0
    worst_slack = math.inf
    for _ in range(500):
        f = _random_poly(rng, 32)
        s = _random_poly(rng, 32)
        vals = eval_on_grid(f, 128)
        quad = math.sqrt(float(np.mean(np.abs(vals) ** 2)))
        worst_parseval = max(worst_parseval, abs(quad - norm_ap_beta(f, 2.0)))
        got = product(f, s)
        oracle = {}
        for n1, c1 in f.coeffs.items():
            for n2, c2 in s.coeffs.items():
                oracle[n1 + n2] = oracle.get(n1 + n2, 0j) + c1 * c2
        for n in set(oracle) | set(got.coeffs):
            worst_conv = max(worst_conv, abs(got.coeff(n) - oracle.get(n, 0j)))
        for p, b in pairs:
            slack = (
                norm_ap_beta(f, 1.0, b) * norm_ap_beta(s, p, b)
                - norm_ap_beta(got, p, b)
            )
            worst_slack = min(worst_slack, slack)
    elapsed = time.time() - start
    _criterion(2, "Parseval, convolution oracle, submultiplicativity", [
        (worst_parseval < 1e-10,
         "max |quadrature L2 - coefficient l2| = %.3e over 500 polynomials "
         "(< 1e-10)" % worst_parseval),
        (worst_conv < 1e-12,
         "max convolution error vs direct double sum = %.3e (< 1e-12)"
         % worst_conv),
        (worst_slack >= -1e-10,
         "min submultiplicative slack = %.3e over (p, beta) in %s "
         "(>= -1e-10)" % (worst_slack, pairs)),
        (elapsed < 30.0, "runtime %.1fs (< 30s)" % elapsed),
    ])


def test_criterion_03_powerlog_inclusion_consistency():
    start = time.time()
    rng = np.random.default_rng(3)
    checked = 0
    violations = 0
    draws = 0
    while checked < 200 and draws < 100000:
        draws += 1
        r = float(rng.uniform(1.0, 3.0))
        s = float(rng.uniform(1.0, 3.0))
        beta = float(rng.uniform(0.0, 1.2))
        gamma = float(rng.uniform(0.0, 1.2))
        if not inclusion_holds(r, beta, s, gamma):
            continue
        u = PowerLogSequence(a=float(rng.uniform(0.0, 2.5)), b=float(rng.uniform(0.0, 3.0)))
        checked += 1
        if powerlog_member(u, r, beta) and not powerlog_member(u, s, gamma):
            violations += 1
    elapsed = time.time() - start
    _criterion(3, "power-log membership respects space inclusions", [
        (checked == 200, "collected %d embedding-true cases (need 200)" % checked),
        (violations == 0,
         "%d violations of member(source) => member(target)" % violations),
        (elapsed < 1.0, "runtime %.2fs (< 1s)" % elapsed),
    ])


def test_criterion_04_outer_construction():
    start = time.time()
    rng = np.random.default_rng(4)
    G = 2048
    th = circle_grid(G)
    worst_mod = 0.0
    worst_leak = 0.0
    worst_center = 0.0
    for _ in range(50):
        deg = int(rng.integers(1, 9))
        vals = np.zeros(G)
        for n in range(1, deg + 1):
            c = (rng.normal() + 1j * rng.normal()) / math.sqrt(2)
            vals += 2.0 * np.real(c * np.exp(1j * n * th))
        vals /= max(1.0, float(np.max(np.abs(vals))))
        phi = 1.0 + 0.6 * vals
        out = outer_from_modulus(phi)
        worst_mod = max(
            worst_mod, float(np.max(np.abs(np.abs(out.boundary) - phi) / phi))
        )
        worst_leak = max(worst_leak, out.leakage)
        ref = float(np.exp(np.mean(np.log(phi))))
        worst_center = max(
            worst_center,
            abs(out.value_at_zero - ref),
            abs(out.analytic_coeffs.coeff(0) - ref),
        )
    worst_unit = 0.0
    for name in ("middle_thirds", "non_carleson_n2"):
        d = distance_to_set(circle_grid(2**12), build_set(name))
        for eps in (1e-1, 1e-2):
            o = outer_power_modulus(d, 1.0, eps, "p_eps")
            worst_unit = max(worst_unit, abs(o.value_at_zero - 1.0))
    elapsed = time.time() - start
    _criterion(4, "outer functions from boundary moduli", [
        (worst_mod < 1e-8,
         "max relative |boundary modulus - phi| = %.3e over 50 band-limited "
         "moduli (< 1e-8)" % worst_mod),
        (worst_leak < 1e-10,
         "max negative-frequency energy ratio = %.3e (< 1e-10)" % worst_leak),
        (worst_center < 1e-8,
         "max |center value - exp(mean log phi)| = %.3e, matched by the "
         "recovered constant coefficient (< 1e-8)" % worst_center),
        (worst_unit < 1e-6,
         "max |p_eps(0) - 1| = %.3e over both set presets at eps = 1e-1, "
         "1e-2 (< 1e-6)" % worst_unit),
        (elapsed < 60.0, "runtime %.1fs (< 60s)" % elapsed),
    ])


def test_criterion_05_szego_consistency():
    start = time.time()
    f = z_minus_1()
    shift = forward_shift_infimum(f, P2, degree=200)
    shift_sq = shift.value ** 2
    bic = bicyclicity_infimum(f, P2, "all_integers", 100)
    elapsed = time.time() - start
    _criterion(5, "shift and two-sided infima for z - 1 at p = 2", [
        (1.0 <= shift_sq <= 1.01,
         "squared shift infimum at degree 200 = %.6f (in [1.0, 1.01])"
         % shift_sq),
        (bic.value < 0.15,
         "two-sided infimum at degree 100 = %.6f (< 0.15)" % bic.value),
        (elapsed < 60.0, "runtime %.1fs (< 60s)" % elapsed),
    ])


def test_criterion_06_douglas_identity():
    start = time.time()
    rng = np.random.default_rng(6)
    G = 8192
    th = circle_grid(G)
    worst_rel = 0.0
    for _ in range(20):
        deg = int(rng.integers(4, 33))
        f = np.zeros(G, dtype=complex)
        for n in range(-deg, deg + 1):
            f += ((rng.normal() + 1j * rng.normal()) / math.sqrt(2)) * np.exp(
                1j * n * th
            )
        for alpha in (0.2, 0.4):
            res = douglas_seminorm(f, alpha, 10.0 / G)
            worst_rel = max(
                worst_rel, abs(res.value - res.quadrature_value) / res.value
            )
    ratios = []
    for alpha in (0.2, 0.4):
        w = douglas_weights(alpha, 256)
        n = np.arange(1, 257)
        r = w[1:] / (1.0 + n) ** (2.0 * alpha)
        ratios.append(float(r.max() / r.min()))
    elapsed = time.time() - start
    _criterion(6, "double-integral smoothness energy vs coefficient form", [
        (worst_rel < 0.01,
         "max relative |coefficient sum - 2-D quadrature| = %.3e over 20 "
         "polynomials x alpha in (0.2, 0.4) (< 1%%)" % worst_rel),
        (all(r < 50.0 for r in ratios),
         "weight ratio spread C/c over n <= 256: %s (each < 50)"
         % ", ".join("%.3f" % r for r in ratios)),
        (elapsed < 120.0, "runtime %.1fs (< 120s)" % elapsed),
    ])


def test_criterion_07_geometry():
    start = time.time()
    dim = box_dimension_estimate(
        cantor_build(middle_thirds_spec(12)), log_t_grid(3.0**-11, 3.0**-3, 16)
    )
    target = math.log(2.0) / math.log(3.0)
    E8 = cantor_build(middle_thirds_spec(8))
    violations = 0
    for t, N, tube in covering_profile(E8, log_t_grid(1e-3, 1e-1, 20)).samples:
        if not (t * N <= tube <= sandwich_upper_bound(t, N)):
            violations += 1
    mt_verdict = carleson_test(E8, 2**15)["verdict"]
    n2 = carleson_test(build_set("non_carleson_n2", depth=20), 2**15)
    elapsed = time.time() - start
    _criterion(7, "Cantor geometry: dimension, sandwich, gap sums", [
        (abs(dim - target) < 0.05,
         "middle-thirds box dimension = %.4f vs log2/log3 = %.4f "
         "(|diff| < 0.05)" % (dim, target)),
        (violations == 0,
         "%d violations of t*N <= tube <= 2*(t + 2*asin(t/2))*N at 20 "
         "sampled scales" % violations),
        (mt_verdict == "carleson",
         "middle-thirds verdict = %s (want carleson)" % mt_verdict),
        (n2["interval_sum"] < -10.0 and n2["verdict"] == "non_carleson_evidence",
         "depth-20 gap-sum = %.3f (< -10), verdict = %s"
         % (n2["interval_sum"], n2["verdict"])),
        (elapsed < 60.0, "runtime %.1fs (< 60s)" % elapsed),
    ])


def test_criterion_08_decay_experiment():
    start = time.time()
    G = 2**14
    E = build_set("non_carleson_n2")
    d = distance_to_set(circle_grid(G), E)
    f = smooth_vanishing_function(d, 1.0).series
    rep = p_epsilon_decay(f, d, 1.0, P15, list(EPS_DECADE))
    norms = [row[2] for row in rep.schedule]
    decreasing = all(a > b for a, b in zip(norms, norms[1:]))
    factor = norms[-1] / norms[0]
    # ||p_eps f||_2^2 = e^(-2m) mean(|f|^2 / (d + eps)) with a bounded mean,
    # since e^(-2/d)/d is integrable; so the norm falls like e^(-m), faster
    # than the recorded envelope sqrt(1 + m) e^(-m).  This bound is the same
    # as normalized_ratios[-1] <= normalized_ratios[0].
    m_first, m_last = rep.schedule[0][1], rep.schedule[-1][1]
    bound = math.exp(m_first - m_last) * math.sqrt((1.0 + m_last) / (1.0 + m_first))
    # l2 <= l^1.5 <= l1 bounds any exact evaluation of the factor from below
    f_grid = eval_on_grid(f, G)
    ends = [
        series_from_samples(
            outer_power_modulus(d, 1.0, eps, "p_eps").boundary * f_grid,
            rep.truncation,
        )
        for eps in (EPS_DECADE[0], EPS_DECADE[-1])
    ]
    floor = norm_ap_beta(ends[1], 2.0) / norm_ap_beta(ends[0], 1.0)
    spread = max(rep.normalized_ratios) / min(rep.normalized_ratios)
    E_mt = build_set("middle_thirds")
    d_mt = distance_to_set(circle_grid(G), E_mt)
    f_mt = smooth_vanishing_function(d_mt, 1.0).series
    rep_mt = p_epsilon_decay(f_mt, d_mt, 1.0, P15, list(EPS_DECADE))
    elapsed = time.time() - start
    _criterion(8, "norm decay of p_eps * f on the non-Carleson preset", [
        (decreasing,
         "norms strictly decreasing over six decades: %s"
         % ", ".join("%.4f" % v for v in norms)),
        (floor <= factor <= bound,
         "final/initial = %.4f <= exp(m_first - m_last) sqrt((1 + m_last) / "
         "(1 + m_first)) = %.4f with m_eps %.4f -> %.4f; every exact "
         "evaluation has final/initial >= ||final||_2 / ||initial||_1 = %.4f"
         % (factor, bound, m_first, m_last, floor)),
        (spread < 10.0,
         "envelope ratios norm^2 / ((1+M) e^(-2M)) spread max/min = %.3f "
         "(< 10)" % spread),
        (rep_mt.verdict == "stalls",
         "middle-thirds pipeline verdict = %s (want stalls)" % rep_mt.verdict),
        (elapsed < 300.0, "runtime %.1fs (< 300s)" % elapsed),
    ])


def test_criterion_09_kernel_ratio_sweep():
    start = time.time()
    E = build_set("non_carleson_n2")
    eps = [1e-1, 1e-2, 1e-3, 1e-4]
    base, _ = lemma_kel_ratio(distance_to_set(circle_grid(2**14), E), 1.0, 1.2, eps)
    spread = max(base) / min(base)
    fine, _ = lemma_kel_ratio(distance_to_set(circle_grid(2**15), E), 1.0, 1.2, eps)
    drift = max(abs(a - b) / a for a, b in zip(base, fine))
    elapsed = time.time() - start
    _criterion(9, "weighted smoothness integral over M_eps stays bounded", [
        (spread < 20.0,
         "ratios %s, max/min = %.3f (< 20)"
         % (", ".join("%.3f" % r for r in base), spread)),
        (drift < 0.05,
         "grid doubling 2^14 -> 2^15 moves ratios by %.2e relative (< 5%%)"
         % drift),
        (elapsed < 300.0, "runtime %.1fs (< 300s)" % elapsed),
    ])


def test_criterion_10_end_to_end_certificate():
    start = time.time()
    E = build_set("non_carleson_n2")
    full = smooth_vanishing_function(distance_to_set(circle_grid(2**14), E), 1.0).series
    f = full.truncate(1024)
    tail = norm_ap_beta(full - f, P15) / norm_ap_beta(full, P15)
    rep = certify_cyclic(
        CertificateProblem(
            f=f,
            space=P15,
            degree_budget=4096,
            epsilon_target=0.25,
            truncation_tail=tail,
        )
    )
    one = FourierSeries({0: 1.0})
    re_b = norm_ap_beta(one - product(rep.best_p, f), P15)
    zq = FourierSeries({n + 1: c for n, c in rep.best_q.coeffs.items()})
    re_s = norm_ap_beta(f - product(zq, f), P15)
    err_b = abs(re_b - rep.achieved_bicyclic_norm)
    err_s = abs(re_s - rep.achieved_shift_norm)
    lb, ub, kernel_residual = _two_sided_bracket(f, 4096, P15.p)
    bic = rep.achieved_bicyclic_norm
    claims_bicyclic = rep.verdict in ("certified", "bicyclic_only")

    rep_one = certify_cyclic(
        CertificateProblem(f=one, space=P15, degree_budget=64, epsilon_target=0.25)
    )
    rep_lin = certify_cyclic(
        CertificateProblem(
            f=z_minus_1(), space=P15, degree_budget=256, epsilon_target=0.25
        )
    )
    elapsed = time.time() - start
    _criterion(10, "certificate search on the smooth vanishing function", [
        (rep.achieved_shift_norm < rep.epsilon_target,
         "shift norm = %.4f at budget 4096 (< target 0.25)"
         % rep.achieved_shift_norm),
        (lb <= bic <= ub + 1e-10,
         "two-sided norm = %.4f in the l^1.5 bracket [%.4f, %.4f] at degree "
         "4096: Hoelder bound from the residual y of the p = 2 minimizer "
         "(||A^H y||_2 = %.1e after projection), and ||y||_1.5, both from "
         "Levinson solves apart from the engine"
         % (bic, lb, ub, kernel_residual)),
        (lb < rep.epsilon_target or not claims_bicyclic,
         "verdict = %s; no two-sided certificate may be claimed while the "
         "lower bound %.4f >= target 0.25" % (rep.verdict, lb)),
        (err_b <= 1e-10 and err_s <= 1e-10,
         "stored P, Q re-evaluate to the recorded norms within (%.1e, %.1e) "
         "(<= 1e-10)" % (err_b, err_s)),
        (rep_one.verdict != "certified" and abs(rep_one.szego_bound - 1.0) < 1e-9,
         "f = 1: verdict %s, geometric-mean floor %.6f documents the shift "
         "obstruction" % (rep_one.verdict, rep_one.szego_bound)),
        (rep_lin.verdict != "certified"
         and rep_lin.szego_bound > rep_lin.epsilon_target,
         "f = z - 1: verdict %s, geometric-mean floor %.6f > target 0.25"
         % (rep_lin.verdict, rep_lin.szego_bound)),
        (elapsed < 600.0, "runtime %.1fs (< 600s)" % elapsed),
    ])


def test_criterion_11_classifier_truth_table():
    start = time.time()
    cinf = "c_infty"
    table = [
        # dim, p, beta, smoothness, log_f, log_dist, expected
        (0.50, 1.5, 0.0, cinf, True, False, "cyclic_sufficient"),
        (0.50, 1.5, 0.0, cinf, False, False, "indeterminate"),
        (0.70, 1.5, 0.0, cinf, True, False, "indeterminate"),
        (0.90, 1.5, 0.0, cinf, True, False, "indeterminate"),
        (1.00, 1.5, 0.0, cinf, True, False, "indeterminate"),
        (0.50, 1.5, 0.2, cinf, True, False, "not_cyclic"),
        (0.30, 1.5, 0.2, cinf, True, False, "indeterminate"),
        (0.20, 1.5, 0.2, cinf, True, False, "cyclic_sufficient"),
        (0.20, 1.5, 0.2, cinf, False, False, "indeterminate"),
        (0.20, 1.5, 0.4, cinf, True, False, "no_cyclic_vectors"),
        (0.00, 1.5, 0.4, cinf, True, False, "no_cyclic_vectors"),
        (0.50, 2.0, 0.6, cinf, True, False, "no_cyclic_vectors"),
        (0.50, 2.0, 0.0, cinf, True, False, "cyclic_sufficient"),
        (0.99, 2.0, 0.0, cinf, True, False, "cyclic_sufficient"),
        (0.50, 2.0, 0.0, cinf, False, False, "indeterminate"),
        (0.60, 2.0, 0.25, cinf, True, False, "not_cyclic"),
        (0.50, 2.0, 0.25, cinf, True, False, "indeterminate"),
        (0.40, 2.0, 0.25, cinf, True, False, "cyclic_sufficient"),
        (0.50, 2.0, 0.0, ("lip_delta", 0.3), False, True, "cyclic_sufficient"),
        (0.50, 2.0, 0.0, ("lip_delta", 0.3), False, False, "indeterminate"),
        (0.50, 1.5, 0.0, ("lip_delta", 0.2), False, True, "cyclic_sufficient"),
        (0.50, 1.5, 0.0, ("lip_delta", 0.1), False, True, "indeterminate"),
        (0.70, 1.5, 0.0, ("lip_delta", 0.5), False, True, "indeterminate"),
        (0.20, 1.5, 0.2, ("lip_delta", 0.4), False, True, "cyclic_sufficient"),
        (0.20, 1.5, 0.2, ("lip_delta", 0.35), False, True, "indeterminate"),
        (0.50, 1.5, 0.2, ("lip_delta", 0.9), False, True, "not_cyclic"),
        (0.45, 2.0, 0.25, ("lip_delta", 0.5), False, True, "cyclic_sufficient"),
        (0.45, 2.0, 0.25, ("lip_delta", 0.2), False, True, "indeterminate"),
        (0.00, 1.25, 0.0, cinf, True, False, "cyclic_sufficient"),
        (0.45, 1.25, 0.0, cinf, True, False, "indeterminate"),
    ]
    failures = []
    for dim, p, beta, smooth, log_f, log_d, want in table:
        got = classify_regime(dim, SpaceIndex(p, beta), smooth, log_f, log_d)
        if got != want:
            failures.append(
                "dim=%.2f p=%.2f beta=%.2f %r -> %s (want %s)"
                % (dim, p, beta, smooth, got, want)
            )
    elapsed = time.time() - start
    _criterion(11, "regime classifier truth table", [
        (len(table) == 30, "%d table rows (need 30)" % len(table)),
        (not failures,
         "0 mismatches over all branches"
         if not failures
         else "; ".join(failures)),
        (elapsed < 1.0, "runtime %.2fs (< 1s)" % elapsed),
    ])
