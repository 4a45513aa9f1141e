"""Tests for outer functions, distance-based moduli and the Douglas energy.

Frozen values below come from independent oracles computed before
analytic.py existed:

- w_alpha(n) by scipy.integrate.quad at epsrel 1e-11, plus the closed form
  w_alpha(1) = 2*pi * 2^(s+1) sqrt(pi) Gamma((s+1)/2)/Gamma(s/2+1), s = 1-2a
- ratio extrema of w_alpha(n)/(1+n)^(2 alpha) over n <= 256
- half log-integrals for the one-point set, d(theta) = 2|sin(theta/2)|,
  by adaptive quadrature (quaderr < 1e-12)
- banded 2-D quadrature of the f = z energy on a 512 grid by direct
  double summation
- the boundary deviation of the spectrally built outer function of |1-z|
  from 1-z itself, away from the singular point
- coefficient decay table of exp(-1/d) on the depth-8 middle-thirds set
"""

import functools
import math
import operator
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from cyclab.analytic import (
    LOG_FLOOR,
    TWO_PI,
    BoundaryModulus,
    MoebiusExpansion,
    OuterFunction,
    _energy,
    _leakage,
    _outer_power_sweep,
    _over_eps,
    conjugate_function,
    douglas_seminorm,
    douglas_weights,
    h_k,
    lemma_kel_ratio,
    m_epsilon,
    outer_from_modulus,
    outer_power_modulus,
    p_epsilon_decay,
    smooth_vanishing_function,
)
from cyclab.experiments import run
from cyclab.fourier import (
    FourierSeries,
    SpaceIndex,
    circle_grid,
    eval_on_grid,
    norm_ap_beta,
    series_from_samples,
)
from cyclab.geometry import (
    ArcUnion,
    cantor_build,
    distance_to_set,
    middle_thirds_spec,
    non_carleson_n2_spec,
)

# quad oracle for the rotation-reduced weights, epsrel 1e-11
W_ORACLE = {
    (0.2, 1): 4.379466411652e01,
    (0.2, 2): 6.737640633312e01,
    (0.2, 3): 8.480638971060e01,
    (0.2, 5): 1.113382882979e02,
    (0.2, 8): 1.411018404801e02,
    (0.2, 16): 1.966420163854e02,
    (0.3, 1): 4.154966250533e01,
    (0.3, 2): 6.924943750888e01,
    (0.3, 3): 9.191288978451e01,
    (0.3, 5): 1.296853102439e02,
    (0.3, 8): 1.763728342418e02,
    (0.3, 16): 2.744199425170e02,
    (0.4, 1): 4.004984988570e01,
    (0.4, 2): 7.281790888309e01,
    (0.4, 3): 1.024652003569e02,
    (0.4, 5): 1.565814208284e02,
    (0.4, 8): 2.302699726600e02,
    (0.4, 16): 4.045759726497e02,
    (0.7, 7): 6.044184803925e02,
    (0.7, 300): 1.154022006938e05,
}

# extrema of w(n)/(1+n)^(2 alpha) over 1 <= n <= 256
RATIO_BOUNDS = {
    0.2: (33.190148963, 72.012041550),
    0.4: (23.002598341, 44.370287766),
}

# half log-integrals for E = {angle 0}
M_EPS_POINT = {
    (1.0, 1e-6): -1.620180491892e-05,
    (1.0, 1e-2): -6.991488817362e-02,
    (0.5, 1e-2): -3.650137941097e-02,
    (1.0, 1.0): -2.442574917806e00,
}

# direct double summation with chordal exclusion 10/512, f = z, alpha = 0.3
BANDED_2D_F_EQ_Z = 4.1516579349e01


def w_exact_n1(alpha):
    """Closed form for the n = 1 weight via the sine-power moment."""
    s = 1.0 - 2.0 * alpha
    return TWO_PI * 2.0 ** (s + 1) * math.sqrt(math.pi) * special.gamma(
        (s + 1) / 2.0
    ) / special.gamma(s / 2.0 + 1.0)


def full_spectrum_conjugate(g):
    """The -i*sign(n) multiplier on the full complex spectrum of g, with the
    mean and Nyquist bins zeroed: the conjugate before it took half-length
    real transforms, kept as an oracle."""
    G = g.shape[0]
    spec = np.fft.fft(g)
    mult = -1j * np.sign(np.fft.fftfreq(G, d=1.0 / G))
    mult[0] = 0.0
    mult[G // 2] = 0.0
    return np.real(np.fft.ifft(mult * spec))


class TestConjugateFunction:
    def test_cosine_to_sine(self):
        th = circle_grid(128)
        got = conjugate_function(np.cos(th))
        assert np.max(np.abs(got - np.sin(th))) < 1e-10

    def test_sine_to_minus_cosine(self):
        th = circle_grid(128)
        got = conjugate_function(np.sin(3 * th))
        assert np.max(np.abs(got + np.cos(3 * th))) < 1e-10

    def test_constant_to_zero(self):
        got = conjugate_function(np.full(64, 2.5))
        assert np.max(np.abs(got)) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
            min_size=1,
            max_size=8,
        )
    )
    def test_double_conjugation(self, modes):
        th = circle_grid(64)
        g = np.zeros_like(th)
        for m, (a, b) in enumerate(modes, start=1):
            g += a * np.cos(m * th) + b * np.sin(m * th)
        g += 0.7
        twice = conjugate_function(conjugate_function(g))
        assert np.max(np.abs(twice + (g - np.mean(g)))) < 1e-10

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(("normal", "spiky", "wide_range")),
    )
    @example(log2_size=2, seed=0, kind="nyquist")
    @example(log2_size=12, seed=0, kind="nyquist")
    @example(log2_size=2, seed=0, kind="constant")
    @example(log2_size=12, seed=0, kind="constant")
    def test_half_spectrum_matches_full_spectrum_multiplier(self, log2_size, seed, kind):
        G = 2**log2_size
        rng = np.random.default_rng(seed)
        if kind == "nyquist":
            g = 1.5 * (-1.0) ** np.arange(G)
        elif kind == "constant":
            g = np.full(G, -2.5)
        elif kind == "spiky":
            g = np.zeros(G)
            idx = rng.integers(0, G, size=min(G, 3))
            g[idx] = rng.normal(size=idx.size) * 10.0 ** rng.uniform(-3, 3, idx.size)
        elif kind == "wide_range":
            g = rng.normal(size=G) * 10.0 ** rng.uniform(-8, 8, G)
        else:  # normal
            g = rng.normal(size=G)
        got = conjugate_function(g)
        want = full_spectrum_conjugate(g)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(g))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            conjugate_function(np.zeros(60))
        with pytest.raises(ValueError):
            conjugate_function(np.zeros((8, 8)))


class TestBoundaryModulus:
    def test_floor_enforced(self):
        phi = BoundaryModulus(np.zeros(16), floor=1e-6)
        assert np.all(phi.values == 1e-6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BoundaryModulus(np.linspace(-1, 1, 16))

    def test_nonfinite_rejected(self):
        vals = np.ones(16)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            BoundaryModulus(vals)

    def test_bad_floor_rejected(self):
        with pytest.raises(ValueError):
            BoundaryModulus(np.ones(16), floor=0.0)

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            BoundaryModulus(np.ones(48))


class TestOuterFromModulus:
    def test_constant_modulus(self):
        f = outer_from_modulus(np.full(32, 3.0))
        assert np.max(np.abs(f.boundary - 3.0)) < 1e-12
        assert f.value_at_zero == pytest.approx(3.0, rel=1e-12)
        assert abs(f.analytic_coeffs.coeff(0) - 3.0) < 1e-12

    def test_recovers_exponential(self):
        # modulus of exp(a z) on the boundary is exp(Re(a e^{i theta}));
        # the outer function with that modulus is exp(a z) itself
        a = 0.7 + 0.2j
        G = 4096
        z = np.exp(1j * circle_grid(G))
        target = np.exp(a * z)
        f = outer_from_modulus(np.abs(target))
        assert np.max(np.abs(f.boundary - target)) < 1e-12
        assert f.leakage < 1e-13
        assert f.value_at_zero == pytest.approx(1.0, rel=1e-12)
        for n in range(6):
            want = a**n / math.factorial(n)
            assert abs(f.analytic_coeffs.coeff(n) - want) < 1e-12

    def test_zero_mean_log_gives_unit_center(self):
        th = circle_grid(256)
        f = outer_from_modulus(np.exp(np.cos(th) - 0.5 * np.sin(2 * th)))
        assert f.value_at_zero == pytest.approx(1.0, rel=1e-10)

    def test_singular_modulus_one_minus_z(self):
        # |1-z| floored at 1e-8; the recovered boundary should follow 1-z
        # away from the singular point, up to one unimodular constant
        G = 2**16
        z = np.exp(1j * circle_grid(G))
        target = 1.0 - z
        f = outer_from_modulus(BoundaryModulus(np.abs(target), floor=1e-8))
        keep = np.abs(np.angle(z)) > 0.5
        lam = np.sum(target[keep] * np.conj(f.boundary[keep]))
        lam /= abs(lam)
        assert np.max(np.abs(lam * f.boundary[keep] - target[keep])) < 1e-3
        assert f.value_at_zero == pytest.approx(0.9998881544, rel=1e-6)

    def test_leakage_gate(self):
        # a modulus oscillating right at the grid limit aliases badly
        th = circle_grid(64)
        phi = np.exp(5.0 * np.cos(31 * th))
        f = outer_from_modulus(phi)
        assert f.leakage > 1e-3
        with pytest.raises(ValueError):
            outer_from_modulus(phi, leakage_tol=1e-10)

    def test_json_roundtrip(self):
        th = circle_grid(512)
        f = outer_from_modulus(np.exp(0.3 * np.cos(th) + 0.1 * np.sin(4 * th)))
        back = OuterFunction.from_json(f.to_json())
        assert back.analytic_coeffs == f.analytic_coeffs
        assert back.grid_size == f.grid_size
        assert back.value_at_zero == pytest.approx(f.value_at_zero, rel=1e-12)
        assert back.modulus_spec == f.modulus_spec
        assert np.max(np.abs(back.boundary - f.boundary)) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
            min_size=1,
            max_size=6,
        )
    )
    def test_reconstruction_invariants(self, modes):
        th = circle_grid(512)
        u = np.zeros_like(th)
        for m, (a, b) in enumerate(modes, start=1):
            u += a * np.cos(m * th) + b * np.sin(m * th)
        phi = np.exp(u)
        f = outer_from_modulus(phi)
        assert np.max(np.abs(np.abs(f.boundary) - phi) / phi) < 1e-12
        recon = eval_on_grid(f.analytic_coeffs, 512)
        assert np.max(np.abs(np.abs(recon) - phi) / phi) < 1e-8
        assert f.leakage < 1e-10
        assert f.value_at_zero == pytest.approx(np.exp(np.mean(u)), rel=1e-10)


def loop_energy(arr):
    """The definition: Python's abs(c) ** 2, one coefficient at a time."""
    return [abs(c) ** 2 for c in arr.tolist()]


def left_fold(xs):
    """Plain left-to-right addition (builtin sum is compensated from 3.12 on)."""
    return functools.reduce(operator.add, xs, 0.0)


def loop_leakage(series):
    energy = loop_energy(series.arr)
    total = left_fold(energy)
    return left_fold(energy[: max(-series.lo, 0)]) / total if total > 0.0 else 0.0


def _random_slab(rng, size, log10_lo, log10_hi):
    mod = 10.0 ** rng.uniform(log10_lo, log10_hi, size)
    return mod * np.exp(1j * rng.uniform(0.0, TWO_PI, size))


def _energy_cases():
    rng = np.random.default_rng(20261018)
    cases = {
        # 2^15 terms: 28 of them round differently as hypot(c) * hypot(c)
        "random_wide": (-(2**14), _random_slab(rng, 2**15, -1.0, 1.0)),
        "lo_positive": (7, rng.standard_normal(3000) + 1j * rng.standard_normal(3000)),
        "all_negative": (-5000, rng.standard_normal(2000) + 1j * rng.standard_normal(2000)),
        "empty": (0, np.zeros(0, dtype=complex)),
        # energies from 1e-300 to 1e300
        "dynamic_range": (-2048, _random_slab(rng, 4096, -150.0, 150.0)),
        # subnormal energies, and subnormal coefficients whose energy is 0
        "subnormal": (-600, np.concatenate([
            _random_slab(rng, 1000, -161.0, -154.0),
            _random_slab(rng, 200, -323.0, -308.0),
        ])),
    }
    for k in range(4):
        size = int(rng.integers(1, 5000))
        lo = int(rng.integers(-size - 10, 10))
        scale = 10.0 ** rng.uniform(-20.0, 20.0)
        cases["random_%d" % k] = (lo, scale * _random_slab(rng, size, -3.0, 3.0))
    return cases


ENERGY_CASES = _energy_cases()


class TestCoefficientEnergy:
    """`_energy` and `_leakage` against the loop definition, bit for bit."""

    @pytest.mark.parametrize("name", sorted(ENERGY_CASES))
    def test_energy_matches_loop(self, name):
        _, values = ENERGY_CASES[name]
        got = [float(x).hex() for x in _energy(values)]
        assert got == [x.hex() for x in loop_energy(values)]

    @pytest.mark.parametrize("name", sorted(ENERGY_CASES))
    def test_leakage_matches_loop(self, name):
        lo, values = ENERGY_CASES[name]
        series = FourierSeries.from_dense(values, lo, drop_tol=0.0)
        assert _leakage(series).hex() == loop_leakage(series).hex()

    def test_douglas_value_uses_loop_energies(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        coeffs = series_from_samples(f, 255)
        nz = np.flatnonzero(coeffs.arr)
        n_abs = np.abs(coeffs.lo + nz)
        w = douglas_weights(0.3, int(n_abs.max()))
        want = float(np.sum(np.array(loop_energy(coeffs.arr[nz])) * w[n_abs]))
        assert douglas_seminorm(f, 0.3, 10.0 / 512).value.hex() == want.hex()


class TestMoebiusFactor:
    def test_exact_coefficients(self):
        for k in (1, 3, 7):
            r = h_k(k, 16)
            ratio = k / (k + 1.0)
            assert r.series.coeff(0) == pytest.approx(ratio, abs=1e-15)
            for n in (1, 2, 3):
                want = -(ratio**n) / (k + 1.0)
                assert r.series.coeff(n) == pytest.approx(want, abs=1e-15)

    def test_value_at_one_bounded_by_tail(self):
        for k, deg in ((1, 40), (5, 120), (12, 300)):
            r = h_k(k, deg)
            at_one = sum(r.series.coeffs.values())
            assert abs(at_one) <= r.tail_l1 + 1e-15

    def test_norm_identity(self):
        # ||1 - h_k||^p == 1/((k+1)^p - k^p), degree picked so the dropped
        # norm mass stays under 1e-12
        for k in (1, 5, 20):
            for p in (1.25, 1.5, 2.0):
                ratio = k / (k + 1.0)
                need = math.log(1e-12 * (1 - ratio**p) * (k + 1.0) ** p) / (
                    p * math.log(ratio)
                )
                deg = int(need) + 10
                r = h_k(k, deg)
                got = norm_ap_beta(1.0 - r.series, p) ** p
                want = 1.0 / ((k + 1.0) ** p - float(k) ** p)
                assert abs(got - want) < 1e-9

    def test_asymptotic_scale(self):
        k = 50
        for p in (1.25, 1.5, 2.0):
            r = h_k(k, 2500)
            scaled = norm_ap_beta(1.0 - r.series, p) ** p * p * k ** (p - 1.0)
            assert 0.95 <= scaled <= 1.05

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            h_k(0, 10)
        with pytest.raises(ValueError):
            h_k(3, -1)


def grid_distance(E, G):
    """The distance profile that m_epsilon and outer_power_modulus take."""
    return distance_to_set(circle_grid(G), E)


class TestMEpsilon:
    def test_full_circle_exact(self):
        E = ArcUnion.full_circle()
        for eps in (1e-1, 1e-3):
            got = m_epsilon(grid_distance(E, 2**10), 1.0, eps)
            assert got == pytest.approx(math.pi * math.log(1.0 / eps), rel=1e-12)

    def test_eps_one_nonpositive(self):
        for E in (ArcUnion.from_points([0.0]), cantor_build(middle_thirds_spec(4))):
            assert m_epsilon(grid_distance(E, 2**12), 1.0, 1.0) <= 0.0

    def test_point_set_against_refined_oracle(self):
        d = grid_distance(ArcUnion.from_points([0.0]), 2**15)
        for (gamma, eps), want in M_EPS_POINT.items():
            got = m_epsilon(d, gamma, eps)
            assert abs(got - want) <= 1e-3 * max(1.0, abs(want))

    def test_monotone_in_eps(self):
        d = grid_distance(cantor_build(middle_thirds_spec(4)), 2**13)
        vals = [m_epsilon(d, 1.0, eps) for eps in (1e-4, 1e-3, 1e-2, 1e-1, 1.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_under_resolved_raises(self):
        # one log spike of width ~1e-9 on a 32-point grid cannot converge
        d = grid_distance(ArcUnion.from_points([0.0]), 32)
        with pytest.raises(ValueError):
            m_epsilon(d, 1.0, 1e-9)

    def test_rejects_bad_inputs(self):
        E = ArcUnion.from_points([0.0])
        d = grid_distance(E, 64)
        with pytest.raises(ValueError):
            m_epsilon(d, 0.0, 0.1)
        with pytest.raises(ValueError):
            m_epsilon(d, 1.0, -0.1)
        # odd length, length below 16, and a 2-D array
        for bad in (grid_distance(E, 63), grid_distance(E, 14), d.reshape(2, 32)):
            with pytest.raises(ValueError):
                m_epsilon(bad, 1.0, 0.1)


class TestOuterPowerModulus:
    def test_center_normalization(self):
        d = grid_distance(cantor_build(middle_thirds_spec(4)), 2**12)
        for eps in (0.5, 0.1, 1e-3):
            f = outer_power_modulus(d, 1.0, eps, "p_eps")
            assert f.value_at_zero == pytest.approx(1.0, abs=1e-9)

    def test_moduli_multiply_to_constant(self):
        E = cantor_build(middle_thirds_spec(4))
        G = 2**12
        gamma, eps = 1.0, 0.1
        d = grid_distance(E, G)
        pe = outer_power_modulus(d, gamma, eps, "p_eps")
        Fe = outer_power_modulus(d, gamma, eps, "F_eps")
        prod = np.abs(pe.boundary) * np.abs(Fe.boundary)
        m = np.mean(0.5 * np.log(1.0 / (d**gamma + eps)))
        assert np.ptp(prod) / np.mean(prod) < 1e-12
        assert np.mean(prod) == pytest.approx(np.exp(-m), rel=1e-12)

    def test_f_eps_max_modulus(self):
        d = grid_distance(cantor_build(middle_thirds_spec(4)), 2**12)
        gamma, eps = 0.7, 0.2
        f = outer_power_modulus(d, gamma, eps, "F_eps")
        assert np.max(np.abs(f.boundary)) <= math.sqrt(2.0**gamma + eps) + 1e-12

    def test_boundary_matches_requested_modulus(self):
        E = cantor_build(middle_thirds_spec(4))
        G = 2**12
        d = grid_distance(E, G)
        f = outer_power_modulus(d, 1.0, 0.25, "F_eps")
        want = np.sqrt(d + 0.25)
        assert np.max(np.abs(np.abs(f.boundary) - want) / want) < 1e-13

    @pytest.mark.parametrize("mode", ["p_eps", "F_eps"])
    def test_workspace_path_is_bit_for_bit_the_array_expressions(self, mode):
        # the in-place path against the same operations on fresh arrays
        d = grid_distance(cantor_build(middle_thirds_spec(4)), 2**12)
        for gamma, eps in ((1.0, 0.5), (0.7, 1e-3), (2.0, 1e-6), (1.0, 1e-30)):
            base = d**gamma + eps
            if mode == "F_eps":
                phi = BoundaryModulus(np.sqrt(base))
            else:
                m = float(np.mean(0.5 * np.log(1.0 / base)))
                phi = BoundaryModulus(np.exp(-m) / np.sqrt(base))
            u = np.log(phi.values)
            want = np.exp(u + 1j * conjugate_function(u))
            got = outer_power_modulus(d, gamma, eps, mode)
            assert np.array_equal(got.boundary, want)
            assert got.value_at_zero == float(np.exp(np.mean(u)))
            assert got.analytic_coeffs == FourierSeries.from_dense(
                (np.fft.fft(want) / len(d))[np.arange(-2047, 2048) % len(d)], -2047)
        if mode == "F_eps":
            # the last case is floored: sqrt(0 + 1e-30) = 1e-15 on the set
            assert phi.values.min() == LOG_FLOOR

    def test_spec_recorded(self):
        d = grid_distance(cantor_build(middle_thirds_spec(2)), 2**10)
        f = outer_power_modulus(d, 1.0, 0.5, "p_eps")
        assert f.modulus_spec["kind"] == "p_eps"
        assert f.modulus_spec["gamma"] == 1.0
        assert f.modulus_spec["eps"] == 0.5

    def test_rejects_bad_mode(self):
        E = cantor_build(middle_thirds_spec(2))
        d = grid_distance(E, 2**10)
        with pytest.raises(ValueError):
            outer_power_modulus(d, 1.0, 0.5, "q_eps")
        # a length that is not a power of two, and a 2-D array
        for bad in (grid_distance(E, 96), d.reshape(32, 32)):
            with pytest.raises(ValueError):
                outer_power_modulus(bad, 1.0, 0.5, "p_eps")


class TestSweepWorkspaces:
    """The sweeps write each eps into grid-sized buffers that each thread
    keeps across its eps values; no result may share memory with them."""

    def test_results_do_not_share_memory_with_later_calls(self):
        d = grid_distance(cantor_build(middle_thirds_spec(6)), 2**12)
        first = outer_power_modulus(d, 1.0, 0.1, "p_eps")
        kept = first.boundary.copy()
        second = outer_power_modulus(d, 1.0, 0.1, "F_eps")
        assert not np.shares_memory(first.boundary, second.boundary)
        assert first.boundary.tobytes() == kept.tobytes()
        th = circle_grid(64)
        h = conjugate_function(np.cos(th))
        kept = h.copy()
        assert not np.shares_memory(h, conjugate_function(np.sin(3 * th)))
        assert h.tobytes() == kept.tobytes()
        f = smooth_vanishing_function(d, 1.0).series
        space = SpaceIndex(p=1.5)
        report = p_epsilon_decay(f, d, 1.0, space, [1e-1, 1e-2, 1e-3])
        rows = [tuple(row) for row in report.schedule]
        p_epsilon_decay(f, d, 1.0, space, [1e-2, 1e-4, 1e-6])
        assert [tuple(row) for row in report.schedule] == rows

    @pytest.mark.parametrize("mode", ["p_eps", "F_eps"])
    def test_outer_sweep_rows_are_the_public_calls(self, mode, monkeypatch):
        # M_eps read off the modulus's integrand is m_epsilon's float, and
        # the value at 0 and the leakage are outer_power_modulus's, at full
        # precision, whatever the thread count
        d = grid_distance(cantor_build(middle_thirds_spec(6)), 2**12)
        schedule = [0.3, 1e-1, 1e-2, 1e-3, 1e-5]
        want = []
        for eps in schedule:
            outer = outer_power_modulus(d, 0.8, eps, mode)
            want.append((m_epsilon(d, 0.8, eps), outer.value_at_zero, outer.leakage))
        for cpus in (1, 4):
            with_cpus(monkeypatch, cpus)
            got = _outer_power_sweep(d, 0.8, mode, schedule)
            assert [[x.hex() for x in row] for row in got] == \
                [[x.hex() for x in row] for row in want]

    def test_a_decay_sweep_at_2_17_peaks_under_13_mib(self, monkeypatch):
        # f's grid values, d**gamma and one workspace (two float buffers,
        # a half spectrum and a complex buffer: 5 MiB) are 8 MiB of it; the
        # rest is one eps's coefficients and norm.  It measures 12.6 MiB;
        # fresh grid-sized arrays per eps took 13.7 MiB
        with_cpus(monkeypatch, 1)
        G = 2**17
        d = distance_to_set(circle_grid(G), middle_thirds_spec(12))
        f = smooth_vanishing_function(d, 1.0).series
        schedule = [10.0**-k for k in range(1, 7)]
        tracemalloc.start()
        try:
            p_epsilon_decay(f, d, 1.0, SpaceIndex(p=1.5), schedule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13 * 2**20


def with_cpus(monkeypatch, n):
    """Make the process's affinity mask read n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class TestEpsSweepThreads:
    """`_over_eps`, which spreads the eps-sweeps over the affinity mask."""

    SWEEPS = [
        {"experiment": "decay",
         "parameters": {"set": "middle_thirds", "depth": 8, "grid": 4096, "p": 1.5}},
        {"experiment": "kel_ratio",
         "parameters": {"set": "middle_thirds", "depth": 8, "grid": 4096}},
        {"experiment": "outer",
         "parameters": {"set": "middle_thirds", "depth": 8, "grid": 4096}},
    ]

    @pytest.mark.parametrize("config", SWEEPS, ids=lambda c: c["experiment"])
    def test_reports_do_not_depend_on_the_thread_count(self, config, tmp_path, monkeypatch):
        outputs = []
        start = threading.active_count()
        for cpus in (1, 4):
            with_cpus(monkeypatch, cpus)
            out_dir = tmp_path / str(cpus)
            manifest = run(dict(config, output_dir=str(out_dir)))
            assert manifest.status == "ok"
            assert threading.active_count() == start  # no worker outlives the sweep
            outputs.append([(out_dir / name).read_bytes() for name in manifest.outputs])
        assert outputs[0] == outputs[1]

    def test_results_come_back_in_schedule_order(self, monkeypatch):
        with_cpus(monkeypatch, 4)
        schedule = [10.0**-j for j in range(1, 10)]

        def late_early(eps):
            # the first items finish last
            time.sleep(0.002 * math.log10(eps) + 0.02)
            return eps, threading.get_ident()

        out = _over_eps(lambda eps, ws: late_early(eps), schedule, 16)
        assert [eps for eps, _ in out] == schedule
        assert len({ident for _, ident in out}) > 1

    def test_one_cpu_runs_on_the_calling_thread(self, monkeypatch):
        with_cpus(monkeypatch, 1)
        start = threading.active_count()
        out = _over_eps(lambda eps, ws: threading.get_ident(), [1e-1, 1e-2, 1e-3], 16)
        assert out == [threading.get_ident()] * 3
        assert threading.active_count() == start

    def test_the_first_failing_eps_raises_as_in_the_serial_loop(self, monkeypatch):
        # at 4 CPUs the calling thread computes items 0 and 4, so 10.0 fails
        # on it after 5.0 failed on a worker; the serial loop meets 5.0 first
        d = grid_distance(cantor_build(middle_thirds_spec(8)), 4096)
        schedule = [1e-2, 1e-3, 5.0, 1e-4, 10.0]
        messages = []
        for cpus in (1, 4):
            with_cpus(monkeypatch, cpus)
            start = threading.active_count()
            with pytest.raises(ValueError, match="M_eps = .* <= 0 at eps = 5.0;") as err:
                lemma_kel_ratio(d, 1.0, 1.2, schedule)
            messages.append(str(err.value))
            assert threading.active_count() == start
        assert messages[0] == messages[1]
        # a failure on the calling thread's first item wins over later ones
        with_cpus(monkeypatch, 4)
        with pytest.raises(ValueError, match="at eps = 20.0;"):
            lemma_kel_ratio(d, 1.0, 1.2, [20.0, 10.0, 1e-3])

    def test_the_callers_errstate_reaches_the_workers(self, monkeypatch):
        with_cpus(monkeypatch, 4)
        schedule = [1e-1, 1e-2, 1e-3, 1e-4]
        caller = threading.get_ident()

        def divide(eps, ws):
            seen = np.geterr()["divide"], threading.get_ident()
            if eps == 1e-3:  # item 2, which a worker computes
                np.float64(1.0) / np.float64(0.0)
            return seen

        with np.errstate(divide="ignore"):
            out = _over_eps(divide, schedule, 16)
        assert [setting for setting, _ in out] == ["ignore"] * 4
        assert out[0][1] == caller and {ident for _, ident in out[1:]} - {caller}
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            _over_eps(divide, schedule, 16)


class TestDouglasWeights:
    def test_against_quad_oracle(self):
        for (alpha, n), want in W_ORACLE.items():
            got = douglas_weights(alpha, n)[n]
            assert got == pytest.approx(want, rel=1e-8)

    def test_exact_closed_form_n1(self):
        for alpha in (0.2, 0.3, 0.4, 0.5, 0.7):
            got = douglas_weights(alpha, 1)[1]
            assert got == pytest.approx(w_exact_n1(alpha), rel=1e-9)

    def test_zero_frequency(self):
        assert douglas_weights(0.3, 4)[0] == 0.0

    def test_fejer_weights_at_alpha_one_half(self):
        # |zeta^n - 1|^2 / |zeta - 1|^2 is n times the Fejer kernel, whose
        # normalized mean is 1, so w_(1/2)(n) = 4 pi^2 n
        n = np.arange(4097)
        w = douglas_weights(0.5, 4096)
        assert w[0] == 0.0
        np.testing.assert_allclose(w[1:], 4.0 * math.pi**2 * n[1:], rtol=1e-12, atol=0.0)

    def test_ratio_bounds(self):
        n = np.arange(1, 257)
        for alpha, (lo, hi) in RATIO_BOUNDS.items():
            w = douglas_weights(alpha, 256)
            ratio = w[1:] / (1.0 + n) ** (2 * alpha)
            assert ratio.min() == pytest.approx(lo, rel=1e-6)
            assert ratio.max() == pytest.approx(hi, rel=1e-6)
            assert ratio.max() / ratio.min() < 50.0

    def test_shorter_range_is_a_bit_identical_prefix(self):
        a = douglas_weights(0.35, 32)
        b = douglas_weights(0.35, 16)
        assert np.array_equal(a[:17], b)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            douglas_weights(0.0, 8)
        with pytest.raises(ValueError):
            douglas_weights(1.0, 8)


class TestDouglasSeminorm:
    def test_monomial_energy(self):
        G = 512
        z = np.exp(1j * circle_grid(G))
        res = douglas_seminorm(z, 0.3, 10.0 / G)
        assert res.value == pytest.approx(w_exact_n1(0.3), rel=1e-8)
        assert res.quadrature_value == pytest.approx(BANDED_2D_F_EQ_Z, rel=1e-9)
        assert abs(res.value - res.quadrature_value) / res.value < 1e-3

    def test_lag_reduction_matches_direct_double_sum(self):
        rng = np.random.default_rng(7)
        G = 128
        th = circle_grid(G)
        f = np.zeros(G, dtype=complex)
        for n in range(-10, 11):
            f += (rng.normal() + 1j * rng.normal()) * np.exp(1j * n * th)
        alpha, excl = 0.2, 10.0 / G
        z = np.exp(1j * th)
        diff2 = np.abs(f[:, None] - f[None, :]) ** 2
        chord = np.abs(z[:, None] - z[None, :])
        mask = chord >= excl
        want = np.sum(diff2[mask] / chord[mask] ** (1 + 2 * alpha)) * (TWO_PI / G) ** 2
        res = douglas_seminorm(f, alpha, excl)
        assert res.quadrature_value == pytest.approx(want, rel=1e-10)

    def test_band_matched_identity(self):
        # for band-limited samples the lag quadrature and the coefficient sum
        # over the same kept pairs are the same number
        rng = np.random.default_rng(11)
        G = 256
        th = circle_grid(G)
        f = np.zeros(G, dtype=complex)
        for n in range(-20, 21):
            f += (rng.normal() + 1j * rng.normal()) * np.exp(1j * n * th)
        for alpha in (0.2, 0.4):
            res = douglas_seminorm(f, alpha, 12.0 / G)
            assert res.band_matched_value == pytest.approx(
                res.quadrature_value, rel=1e-10
            )

    def test_constant_is_zero(self):
        res = douglas_seminorm(np.full(64, 1.0 + 2.0j), 0.3, 0.05)
        assert res.value == 0.0
        assert abs(res.quadrature_value) < 1e-25

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        G = 256
        th = circle_grid(G)
        f = np.zeros(G, dtype=complex)
        for n in range(-8, 9):
            f += (rng.normal() + 1j * rng.normal()) * np.exp(1j * n * th)
        a = douglas_seminorm(f, 0.25, 10.0 / G).value
        b = douglas_seminorm(np.roll(f, 17), 0.25, 10.0 / G).value
        assert a == pytest.approx(b, rel=1e-12)

    def test_rejects_bad_inputs(self):
        z = np.exp(1j * circle_grid(64))
        with pytest.raises(ValueError):
            douglas_seminorm(z, 1.2, 0.1)
        with pytest.raises(ValueError):
            douglas_seminorm(z, 0.3, 0.0)
        for exclusion in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                douglas_seminorm(z, 0.3, exclusion)


class TestSmoothVanishing:
    def test_zero_on_set_and_max_off_it(self):
        E = cantor_build(middle_thirds_spec(6))
        G = 2**13
        d = distance_to_set(circle_grid(G), E)
        prof = smooth_vanishing_function(d, 1.0)
        on = d == 0.0
        assert on.any()
        assert np.all(prof.values[on] == 0.0)
        assert prof.values.max() == pytest.approx(np.exp(-1.0 / d.max()), rel=1e-12)

    def test_decay_table_middle_thirds(self):
        E = cantor_build(middle_thirds_spec(8))
        prof = smooth_vanishing_function(distance_to_set(circle_grid(2**14), E), 1.0)
        assert prof.decay_sup[0] == pytest.approx(5.3982823921e-02, rel=1e-9)
        assert prof.decay_sup[1] == pytest.approx(1.2838017514e-01, rel=1e-9)
        assert prof.decay_sup[2] == pytest.approx(5.7139313754e-01, rel=1e-9)
        # the high-order suprema sit close to the rounding floor of the FFT,
        # so hold them only to 1e-3
        assert prof.decay_sup[3] == pytest.approx(1.6854226398e03, rel=1e-3)
        assert prof.decay_sup[4] == pytest.approx(6.9034911328e06, rel=1e-3)
        sup = max(
            abs(c) * (1.0 + abs(n)) ** 4
            for n, c in prof.series.coeffs.items()
            if abs(n) <= 2048
        )
        assert sup == pytest.approx(1.7188477782e06, rel=1e-3)

    def test_fine_preset_resolves_on_coarse_grid(self):
        # sub-grid arcs carry values far below double precision, so the
        # profile stays clean even though the set has 2^20 components
        E = cantor_build(non_carleson_n2_spec(20))
        prof = smooth_vanishing_function(distance_to_set(circle_grid(2**14), E), 1.0)
        assert prof.tail_share < 2e-4
        assert prof.values.max() == pytest.approx(0.5486, abs=1e-4)

    def test_under_resolved_raises(self):
        E = cantor_build(middle_thirds_spec(8))
        with pytest.raises(ValueError):
            smooth_vanishing_function(distance_to_set(circle_grid(512), E), 1.0)

    def test_rejects_bad_gamma(self):
        E = cantor_build(middle_thirds_spec(2))
        with pytest.raises(ValueError):
            smooth_vanishing_function(distance_to_set(circle_grid(1024), E), 0.0)
