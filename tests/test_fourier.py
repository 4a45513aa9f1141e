"""Tests for the coefficient-sequence core.

Oracles used here are deliberately naive: direct summation for the discrete
transform, quadratic-time dictionary convolution for products, and a plain
sum for the dual pairing.  The expected values in the frozen-value tests were
computed from these oracles (or by hand from closed forms) before the
implementations existed.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cyclab.fourier import (
    DROP_REL_TOL,
    FourierSeries,
    PowerLogSequence,
    SpaceIndex,
    circle_grid,
    dual_pairing,
    eval_on_grid,
    inclusion_holds,
    norm_ap_beta,
    powerlog_member,
    product,
    series_from_samples,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def dft_coeff_oracle(samples, n):
    """Mean of samples * zeta^-n over the grid, by direct summation."""
    G = samples.size
    theta = 2.0 * np.pi * np.arange(G) / G
    return np.mean(samples * np.exp(-1j * n * theta))


def conv_oracle(f_dict, g_dict):
    """Quadratic-time dictionary convolution."""
    out = {}
    for n1, c1 in f_dict.items():
        for n2, c2 in g_dict.items():
            out[n1 + n2] = out.get(n1 + n2, 0j) + c1 * c2
    return out


def pairing_oracle(s_dict, t_dict):
    return sum(c * t_dict.get(-n, 0j) for n, c in s_dict.items())


def random_series(rng, degree, scale=1.0):
    ns = range(-degree, degree + 1)
    return FourierSeries(
        {
            n: scale * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            for n in ns
        }
    )


def one_minus_hk_coeffs(k, tail_bound=1e-12):
    """Coefficients of 1 - h_k with geometric tail below tail_bound.

    1 - h_k has amplitude (1/(k+1)) * (k/(k+1))^n at frequency n >= 0.
    """
    base = 1.0 / (k + 1)
    ratio = k / (k + 1.0)
    coeffs = {}
    n = 0
    term = base
    while term > tail_bound * base:
        coeffs[n] = term
        n += 1
        term = base * ratio ** n
        if n > 10_000_000:  # pragma: no cover - guard against bad k
            raise RuntimeError("tail did not close")
    return coeffs


# ---------------------------------------------------------------------------
# FourierSeries structure
# ---------------------------------------------------------------------------

class TestFourierSeries:
    def test_zero_series(self):
        z = FourierSeries()
        assert z.degree == 0
        assert len(z) == 0
        assert norm_ap_beta(z, 2, 0.0) == 0.0

    def test_drop_tolerance_removes_noise(self):
        f = FourierSeries({0: 1.0, 5: 1e-17, 7: 0.0})
        assert f.support() == [0]

    def test_drop_tolerance_is_relative(self):
        f = FourierSeries({0: 1e-18, 3: 2e-18})
        # both survive: cleaning is relative to the peak, not absolute
        assert f.support() == [0, 3]

    def test_degree(self):
        f = FourierSeries({-7: 1.0, 2: 1.0})
        assert f.degree == 7

    def test_immutable(self):
        f = FourierSeries({0: 1.0})
        with pytest.raises(AttributeError):
            f.degree = 3
        with pytest.raises(TypeError):
            f.coeffs[1] = 2.0

    def test_arithmetic(self):
        f = FourierSeries({0: 1.0, 1: 2.0})
        g = FourierSeries({1: -2.0, 3: 1j})
        h = f + g
        assert h.support() == [0, 3]
        assert h.coeff(0) == 1.0
        assert (1 - FourierSeries({1: 1.0})).coeff(0) == 1.0
        assert (2.0 * f).coeff(1) == 4.0
        assert (f - f).support() == []

    def test_truncate(self):
        f = FourierSeries({-5: 1.0, 0: 1.0, 9: 1.0})
        t = f.truncate(5)
        assert t.support() == [-5, 0]

    def test_dense_roundtrip(self):
        f = FourierSeries({-2: 1j, 1: 3.0})
        slab = f.dense(-2, 2)
        assert slab.shape == (5,)
        assert slab[0] == 1j and slab[3] == 3.0
        back = FourierSeries.from_dense(slab, -2)
        assert back == f

    def test_json_roundtrip_exact(self):
        f = FourierSeries({-3: 0.25 + 1j / 3, 0: -1.0, 8: 2e-5})
        back = FourierSeries.from_json(f.to_json())
        assert back == f
        obj = json.loads(f.to_json())
        assert obj["coeffs"][0][0] == -3  # sorted by frequency

    def test_product_with_scalar_series(self):
        f = FourierSeries({2: 1.5})
        assert (f * FourierSeries({0: 2.0})).coeff(2) == 3.0


# ---------------------------------------------------------------------------
# series_from_samples / eval_on_grid
# ---------------------------------------------------------------------------

class TestSampling:
    def test_monomial(self):
        theta = circle_grid(8)
        f = series_from_samples(np.exp(1j * theta), max_degree=3)
        assert f.support() == [1]
        assert abs(f.coeff(1) - 1.0) < 1e-14

    def test_h1_constant_coefficient(self):
        # h_k(z) = (z-1)/(z-1-1/k); its mean over the circle is k/(k+1).
        theta = circle_grid(4096)
        z = np.exp(1j * theta)
        samples = (z - 1.0) / (z - 2.0)
        f = series_from_samples(samples, max_degree=64)
        assert abs(f.coeff(0) - 0.5) < 1e-10

    def test_recovers_random_polynomial(self):
        rng = np.random.default_rng(60601)
        f = random_series(rng, 16)
        values = eval_on_grid(f, 64)
        back = series_from_samples(values, max_degree=16)
        for n in range(-16, 17):
            assert abs(back.coeff(n) - f.coeff(n)) < 1e-12

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(7)
        f = random_series(rng, 5)
        values = eval_on_grid(f, 16)
        g = series_from_samples(values, max_degree=5)
        for n in (-5, -1, 0, 2, 5):
            assert abs(g.coeff(n) - dft_coeff_oracle(values, n)) < 1e-13

    def test_grid_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            series_from_samples(np.zeros(12, dtype=complex), 3)

    def test_degree_window_must_fit(self):
        with pytest.raises(ValueError):
            series_from_samples(np.zeros(8, dtype=complex), 4)

    def test_eval_zero_series(self):
        assert np.all(eval_on_grid(FourierSeries(), 8) == 0)

    def test_eval_constant(self):
        vals = eval_on_grid(FourierSeries({0: 3.0}), 16)
        assert np.allclose(vals, 3.0, atol=1e-14)

    def test_eval_rejects_aliasing(self):
        f = FourierSeries({4: 1.0})
        with pytest.raises(ValueError):
            eval_on_grid(f, 8)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

class TestNorm:
    def test_constant_one(self):
        one = FourierSeries({0: 1.0})
        for p in (1.0, 1.25, 1.5, 2.0, 3.0):
            for beta in (0.0, 0.25, 1.0):
                assert norm_ap_beta(one, p, beta) == pytest.approx(1.0, abs=1e-15)

    def test_single_term_weight(self):
        f = FourierSeries({2: 1.0})
        # ((1+2)^(1.5*1))^(1/1.5) = 3
        assert norm_ap_beta(f, 1.5, 1.0) == pytest.approx(3.0, abs=1e-12)

    def test_one_minus_hk_closed_form(self):
        k, p = 3, 1.5
        f = FourierSeries(one_minus_hk_coeffs(k))
        expected = 1.0 / ((k + 1) ** p - k ** p)
        assert norm_ap_beta(f, p, 0.0) ** p == pytest.approx(expected, abs=1e-9)

    def test_accepts_space_index(self):
        f = FourierSeries({1: 2.0})
        X = SpaceIndex(p=2.0, beta=0.5)
        direct = norm_ap_beta(f, 2.0, 0.5)
        assert norm_ap_beta(f, X) == pytest.approx(direct, rel=1e-15)

    def test_negative_beta_for_dual_side(self):
        f = FourierSeries({3: 1.0})
        assert norm_ap_beta(f, 2.0, -1.0) == pytest.approx(0.25, abs=1e-15)


# ---------------------------------------------------------------------------
# product / pairing
# ---------------------------------------------------------------------------

class TestProductPairing:
    def test_multiplicative_identity(self):
        rng = np.random.default_rng(11)
        f = random_series(rng, 6)
        one = FourierSeries({0: 1.0})
        assert product(f, one) == f

    def test_monomial_square(self):
        z = FourierSeries({1: 1.0})
        assert product(z, z).support() == [2]

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(23)
        f = random_series(rng, 8)
        g = random_series(rng, 8)
        oracle = conv_oracle(dict(f.coeffs), dict(g.coeffs))
        got = product(f, g)
        for n, c in oracle.items():
            assert abs(got.coeff(n) - c) < 1e-12

    def test_degree_bound(self):
        rng = np.random.default_rng(5)
        f = random_series(rng, 4)
        g = random_series(rng, 7)
        assert product(f, g).degree <= 11

    def test_pairing_monomials(self):
        z = FourierSeries({1: 1.0})
        zbar = FourierSeries({-1: 1.0})
        assert dual_pairing(z, z) == 0
        assert dual_pairing(z, zbar) == 1

    def test_pairing_matches_oracle(self):
        rng = np.random.default_rng(37)
        S = random_series(rng, 12)
        T = random_series(rng, 9)
        expected = pairing_oracle(dict(S.coeffs), dict(T.coeffs))
        assert abs(dual_pairing(S, T) - expected) < 1e-14


# ---------------------------------------------------------------------------
# SpaceIndex / inclusion / power-log membership
# ---------------------------------------------------------------------------

class TestSpaces:
    def test_space_index_validation(self):
        with pytest.raises(ValueError):
            SpaceIndex(p=0.5)
        with pytest.raises(ValueError):
            SpaceIndex(p=2.0, beta=-0.1)

    def test_conjugate_exponent(self):
        assert SpaceIndex(p=1.0).q == math.inf
        for p in (1.25, 1.5, 2.0, 3.0):
            q = SpaceIndex(p=p).q
            assert abs(q * (p - 1.0) - p) < 1e-12

    def test_inclusion_examples(self):
        assert inclusion_holds(1, 0, 2, 0) is True
        assert inclusion_holds(2, 0, 1, 0) is False
        assert inclusion_holds(2, 0.6, 1, 0) is True

    def test_powerlog_examples(self):
        X = SpaceIndex(p=2.0, beta=0.0)
        assert powerlog_member(PowerLogSequence(a=1.0, b=0.0), X) is True
        assert powerlog_member(PowerLogSequence(a=0.5, b=0.0), X) is False
        # critical line: p*(a-beta) = 1 needs p*b > 1
        assert powerlog_member(PowerLogSequence(a=0.5, b=1.0), X) is True
        assert powerlog_member(PowerLogSequence(a=0.5, b=0.4), X) is False

    def test_powerlog_numeric_cross_check(self):
        # Compare the analytic rule against brute partial sums where the
        # answer is far from the critical line.
        X = SpaceIndex(p=2.0, beta=0.0)
        ns = np.arange(0, 200_000, dtype=float)
        member = PowerLogSequence(a=1.0, b=0.0)
        terms = (1.0 + ns) ** (-2.0)
        # convergent: tail of partial sums settles
        s1 = terms[:100_000].sum()
        s2 = terms.sum()
        assert s2 - s1 < 1e-4
        assert powerlog_member(member, X)


# ---------------------------------------------------------------------------
# property-based suites
# ---------------------------------------------------------------------------

coeff_values = st.complex_numbers(
    max_magnitude=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def coeff_dicts(draw, max_degree=16):
    degree = draw(st.integers(min_value=0, max_value=max_degree))
    ns = draw(
        st.lists(
            st.integers(min_value=-degree, max_value=degree),
            min_size=1,
            max_size=2 * degree + 1,
            unique=True,
        )
    )
    cs = draw(
        st.lists(coeff_values, min_size=len(ns), max_size=len(ns))
    )
    return dict(zip(ns, cs))


def small_series(max_degree=16):
    return coeff_dicts(max_degree).map(FourierSeries)


def drop_rule_oracle(d, drop_tol=DROP_REL_TOL):
    """The drop rule on a plain dict: keep amplitudes above drop_tol * peak."""
    if not d:
        return {}
    cutoff = drop_tol * max(abs(c) for c in d.values())
    return {int(n): complex(c) for n, c in d.items() if abs(complex(c)) > cutoff}


def flip_zero_signs(c):
    """c with the sign of each zero part flipped: equal to c, other bytes."""
    re = -c.real if c.real == 0.0 else c.real
    im = -c.imag if c.imag == 0.0 else c.imag
    return complex(re, im)


@given(coeff_dicts())
@example({0: complex(-0.0, 1.0)})
@example({0: 1.0, 3: 1e-17, 5: 1.0})
@settings(max_examples=100, deadline=None)
def test_representation_matches_dict_oracle(d):
    f = FourierSeries(d)
    kept = drop_rule_oracle(d)
    assert dict(f.coeffs) == kept
    assert list(f.coeffs) == sorted(kept)
    assert f.support() == sorted(kept)
    assert len(f) == len(kept)
    assert f.degree == max((abs(n) for n in kept), default=0)
    # equal series hash alike, however they were built
    twins = [
        FourierSeries({n: flip_zero_signs(complex(c)) for n, c in d.items()}),
        FourierSeries(dict(reversed(list(d.items())))),
        FourierSeries.from_dense(f.arr, f.lo),
    ]
    for twin in twins:
        assert twin == f
        assert hash(twin) == hash(f)


@given(small_series())
@settings(max_examples=60, deadline=None)
def test_parseval_property(f):
    d = max(f.degree, 1)
    G = 1
    while G < 4 * d:
        G *= 2
    values = eval_on_grid(f, G)
    quad = math.sqrt(float(np.mean(np.abs(values) ** 2)))
    assert abs(norm_ap_beta(f, 2, 0.0) - quad) < 1e-10


@given(small_series(max_degree=12), small_series(max_degree=12))
@settings(max_examples=40, deadline=None)
def test_submultiplicativity_property(f, S):
    for p in (1.25, 1.5, 2.0):
        for beta in (0.0, 0.25):
            lhs = norm_ap_beta(product(f, S), p, beta)
            rhs = norm_ap_beta(f, 1.0, beta) * norm_ap_beta(S, p, beta)
            assert lhs <= rhs + 1e-10


@given(small_series(max_degree=12), small_series(max_degree=12))
@settings(max_examples=40, deadline=None)
def test_holder_duality_property(S, T):
    for p in (1.25, 1.5, 2.0):
        q = p / (p - 1.0)
        for beta in (0.0, 0.3):
            bound = norm_ap_beta(S, p, beta) * norm_ap_beta(T, q, -beta)
            assert abs(dual_pairing(S, T)) <= bound + 1e-10


@given(small_series(), st.integers(min_value=0, max_value=20))
@settings(max_examples=60, deadline=None)
def test_truncation_never_increases_norm(f, d):
    t = f.truncate(d)
    for p in (1.0, 1.5, 2.0):
        for beta in (0.0, 0.5):
            assert norm_ap_beta(t, p, beta) <= norm_ap_beta(f, p, beta) + 1e-15


@given(small_series())
@settings(max_examples=60, deadline=None)
def test_json_roundtrip_property(f):
    assert FourierSeries.from_json(f.to_json()) == f


@given(
    st.floats(min_value=-2.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=1.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=1.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=1.5),
)
@settings(max_examples=200, deadline=None)
def test_inclusion_implies_membership_transfer(a, b, r, beta, s, gamma):
    assume(inclusion_holds(r, beta, s, gamma))
    u = PowerLogSequence(a=a, b=b)
    # keep clear of the critical lines and of razor-thin inclusion margins,
    # where float roundoff (not the mathematics) decides
    assume(abs(r * (a - beta) - 1.0) > 1e-6)
    assume(abs(s * (a - gamma) - 1.0) > 1e-6)
    assume(abs(r * u.b - 1.0) > 1e-6 and abs(s * u.b - 1.0) > 1e-6)
    if r > s:
        assume(beta - gamma - (1.0 / s - 1.0 / r) > 1e-6)
    if powerlog_member(u, r, beta):
        assert powerlog_member(u, s, gamma)
