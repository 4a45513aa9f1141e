"""Tests for circle-subset construction and measurement.

Frozen values below were computed from the analytic gap schedules and from
independent brute-force/Monte-Carlo oracles before geometry.py existed:

- non_carleson_n2 normalization c(depth 20) = 7.8728530293
- interval sums (|I| log(|I|/2pi)): n2 depth 20 -> -14.236746,
  middle-thirds depth 12 -> -19.910321, depth 6 -> -15.254302
- smallest arc of the depth-20 n2 approximation: 5.714524e-12 rad
- Monte-Carlo tube check (middle-thirds depth 6, t = 3^-6, 1e6 samples,
  seed 123456): 0.728749 +- 0.002012 (1 sigma); analytic no-merge value
  64*(arc + 2*rho) = 0.727193
- point-set log-distance integral on a G-grid equals 2*pi*log(G)/G exactly
  (the product of |1 - omega^j| over nontrivial G-th roots omega^j is G)
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclab.geometry import (
    TWO_PI,
    ArcUnion,
    CantorSpec,
    box_dimension_estimate,
    cantor_build,
    cantor_spec_by_name,
    carleson_test,
    covering_number,
    covering_profile,
    distance_to_set,
    lambda_divergence_test,
    log_t_grid,
    middle_thirds_spec,
    non_carleson_n2_spec,
    tube_measure,
)


def sandwich_upper_bound(t, N):
    """Upper end of the tube/covering sandwich: tube(E, t) <= 2 (t + rho(t)) N.

    A covering arc of angular length 2t dilates by the chordal radius
    rho(t) = 2 asin(t/2) > t on each side, so 4tN is not a bound.
    """
    return 2.0 * (t + 2.0 * math.asin(t / 2.0)) * N


def brute_force_distance(theta, E, samples_per_arc=4001):
    """Chordal distance by dense sampling of every arc."""
    z = np.exp(1j * theta)
    best = np.inf
    for s, e in zip(E.starts, E.ends):
        phi = np.linspace(s, e, samples_per_arc)
        best = min(best, np.min(np.abs(z - np.exp(1j * phi))))
    return best


def analytic_interval_sum(spec):
    """Sum over the schedule of 2^(n-1) * g_n * log(g_n / 2pi)."""
    total = 0.0
    for n, g in enumerate(spec.gap_lengths, start=1):
        total += 2.0 ** (n - 1) * g * math.log(g / TWO_PI)
    return total


# ---------------------------------------------------------------------------
# ArcUnion
# ---------------------------------------------------------------------------

class TestArcUnion:
    def test_merges_overlaps(self):
        E = ArcUnion([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)])
        assert E.n_arcs == 2
        assert E.total_measure == pytest.approx(3.0, abs=1e-12)

    def test_wrapping_arc_is_split(self):
        E = ArcUnion([(6.0, 7.0)])
        assert E.n_arcs == 2
        assert E.starts[0] == pytest.approx(0.0)
        assert E.total_measure == pytest.approx(1.0, abs=1e-12)

    def test_full_circle(self):
        E = ArcUnion.full_circle()
        assert E.n_arcs == 1
        assert E.total_measure == pytest.approx(TWO_PI)

    def test_points(self):
        E = ArcUnion.from_points([0.0, 1.0, 1.0, 2.0])
        assert E.n_arcs == 3
        assert E.total_measure == 0.0

    def test_rejects_reversed_arc(self):
        with pytest.raises(ValueError):
            ArcUnion([(1.0, 0.5)])

    def test_json_roundtrip(self):
        E = ArcUnion([(0.25, 0.75), (3.0, 3.0)])
        back = ArcUnion.from_json(E.to_json())
        assert back == E

    def test_gaps_of_depth_one_cantor(self):
        E = cantor_build(middle_thirds_spec(1))
        starts, lengths = E.gaps()
        # seam gap between [.., 2pi] and [0, ..] has zero length and is dropped
        assert len(lengths) == 1
        assert lengths[0] == pytest.approx(TWO_PI / 3.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Cantor generators
# ---------------------------------------------------------------------------

class TestCantor:
    def test_middle_thirds_depth_one(self):
        E = cantor_build(middle_thirds_spec(1))
        assert E.n_arcs == 2
        lengths = E.ends - E.starts
        assert np.allclose(lengths, TWO_PI / 3.0, rtol=1e-12)

    def test_middle_thirds_measure_recursion(self):
        for depth in (2, 4, 6):
            E = cantor_build(middle_thirds_spec(depth))
            assert E.n_arcs == 2**depth
            assert E.total_measure == pytest.approx(
                TWO_PI * (2.0 / 3.0) ** depth, rel=1e-10
            )

    def test_non_carleson_preset_depth20(self):
        spec = non_carleson_n2_spec(20)
        # frozen normalization constant: gap_n = c * 2^-n / n^2
        c = spec.gap_lengths[0] * 2.0
        assert c == pytest.approx(7.8728530293, rel=1e-9)
        E = cantor_build(spec)
        assert E.n_arcs == 2**20
        lengths = E.ends - E.starts
        assert np.all(lengths > 0.0)
        # arc positions are exact to ~1e-15 absolute; at the 5.7e-12 arc scale
        # that leaves a few parts in 1e4 on individual lengths and their sum
        assert lengths.min() == pytest.approx(5.714524e-12, rel=1e-3)
        assert E.total_measure == pytest.approx(TWO_PI * 2.0**-20, rel=1e-4)

    def test_oversized_gap_rejected(self):
        with pytest.raises(ValueError):
            cantor_build(CantorSpec(gap_lengths=(4.0, 2.0), depth=2))

    def test_schedule_total_validation(self):
        with pytest.raises(ValueError):
            CantorSpec(gap_lengths=(TWO_PI, 1.0), depth=2)

    def test_spec_by_name(self):
        assert cantor_spec_by_name("middle_thirds", 5).depth == 5
        assert cantor_spec_by_name("non_carleson_n2").depth == 20
        custom = cantor_spec_by_name("custom", custom=[1.0, 0.5])
        assert custom.gap_lengths == (1.0, 0.5)
        with pytest.raises(ValueError):
            cantor_spec_by_name("nonsense")


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

class TestDistance:
    def test_inside_arc_is_zero(self):
        E = ArcUnion([(1.0, 2.0)])
        assert distance_to_set(1.5, E) == 0.0
        assert distance_to_set(1.0, E) == 0.0
        assert distance_to_set(2.0, E) == 0.0

    def test_antipodal_point(self):
        E = ArcUnion.from_points([0.0])
        assert distance_to_set(math.pi, E) == pytest.approx(2.0, abs=1e-14)

    def test_chordal_formula(self):
        E = ArcUnion.from_points([0.0])
        for theta in (0.1, 0.7, 2.0):
            assert distance_to_set(theta, E) == pytest.approx(
                abs(np.exp(1j * theta) - 1.0), abs=1e-13
            )

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            distance_to_set(0.0, ArcUnion([]))

    def test_matches_brute_force(self):
        E = ArcUnion([(0.5, 1.25), (4.0, 4.1)])
        rng = np.random.default_rng(2024)
        thetas = rng.uniform(0.0, TWO_PI, 1000)
        got = distance_to_set(thetas, E)
        # the sampled oracle overestimates by up to half its angular step for
        # points inside an arc (it never lands exactly on theta), so only hold
        # it to that resolution there; outside, arc endpoints are sampled
        # exactly and the oracle is tight
        half_step = 0.5 * 0.75 / 4000
        for theta, g in zip(thetas, got):
            ref = brute_force_distance(theta, E)
            if g == 0.0:
                assert ref <= half_step + 1e-9
            else:
                assert abs(g - ref) < 1e-6

    def test_wrap_neighbors(self):
        # nearest point of E sits across the seam
        E = ArcUnion([(6.0, 6.2)])
        d = distance_to_set(0.05, E)
        expected = abs(np.exp(0.05j) - np.exp(6.2j))
        assert d == pytest.approx(expected, abs=1e-13)

    def test_vectorized_matches_scalar(self):
        E = cantor_build(middle_thirds_spec(4))
        thetas = np.linspace(0.0, TWO_PI, 97)
        vec = distance_to_set(thetas, E)
        for theta, v in zip(thetas, vec):
            assert v == distance_to_set(theta, E)


# ---------------------------------------------------------------------------
# tube measure / covering
# ---------------------------------------------------------------------------

class TestTube:
    def test_point_dilation_closed_form(self):
        E = ArcUnion.from_points([0.0])
        assert tube_measure(E, 1.0) == pytest.approx(TWO_PI / 3.0, rel=1e-12)

    def test_saturates_at_diameter(self):
        E = ArcUnion.from_points([2.0])
        assert tube_measure(E, 2.0) == TWO_PI
        assert tube_measure(E, 5.0) == TWO_PI

    def test_merging_of_dilations(self):
        E = ArcUnion.from_points([0.0, 0.1])
        t = 0.2  # dilations overlap
        rho = 2.0 * math.asin(t / 2.0)
        assert tube_measure(E, t) == pytest.approx(0.1 + 2.0 * rho, rel=1e-12)

    def test_wrap_merging(self):
        E = ArcUnion.from_points([0.02, TWO_PI - 0.02])
        t = 0.1
        rho = 2.0 * math.asin(t / 2.0)
        # the two dilations overlap across the seam
        assert tube_measure(E, t) == pytest.approx(0.04 + 2.0 * rho, rel=1e-10)

    def test_monte_carlo_oracle_middle_thirds(self):
        E = cantor_build(middle_thirds_spec(6))
        t = 3.0**-6
        got = tube_measure(E, t)
        # analytic value: interior gaps exceed the dilation so those arcs stay
        # separate, but the first and last arcs touch across the 0 == 2*pi seam
        # and their dilations always merge there, absorbing exactly 2*rho
        rho = 2.0 * math.asin(t / 2.0)
        arc_len = TWO_PI * (2.0 / 3.0) ** 6 / 2**6
        assert got == pytest.approx(64 * (arc_len + 2 * rho) - 2 * rho, rel=1e-10)
        # independent Monte-Carlo oracle, 3 sigma band
        rng = np.random.default_rng(123456)
        M = 10**6
        th = rng.uniform(0.0, TWO_PI, M)
        z = np.exp(1j * th)
        d = np.full(M, np.inf)
        for s, e in zip(E.starts, E.ends):
            phi = np.linspace(s, e, 33)
            d = np.minimum(d, np.min(np.abs(z[:, None] - np.exp(1j * phi)[None, :]), axis=1))
        # dense arc sampling overestimates distance by at most the sample step;
        # the step is tiny next to t so the indicator is unaffected
        p_hat = np.mean(d <= t)
        sigma = math.sqrt(p_hat * (1 - p_hat) / M) * TWO_PI
        assert abs(got - p_hat * TWO_PI) < 3 * sigma


class TestCovering:
    def test_single_point(self):
        E = ArcUnion.from_points([1.0])
        assert covering_number(E, 0.3) == 1

    def test_full_circle_greedy_count(self):
        E = ArcUnion.full_circle()
        for t in (0.3, 0.11, 0.047):
            assert covering_number(E, t) == math.ceil(math.pi / t)

    def test_two_antipodal_points(self):
        E = ArcUnion.from_points([0.0, math.pi])
        assert covering_number(E, 0.1) == 2
        assert covering_number(E, math.pi) == 1

    def test_profile_monotonicity(self):
        E = cantor_build(middle_thirds_spec(6))
        prof = covering_profile(E, log_t_grid(3.0**-6, 0.5, 12))
        t, N, tube = prof.as_arrays()
        assert np.all(np.diff(N) <= 0)
        assert np.all(np.diff(tube) >= 0)

    def test_sandwich_middle_thirds(self):
        E = cantor_build(middle_thirds_spec(8))
        for t in log_t_grid(3.0**-7, 0.4, 20):
            N = covering_number(E, t)
            tube = tube_measure(E, t)
            assert t * N <= tube + 1e-12
            assert tube <= sandwich_upper_bound(t, N) + 1e-12


class TestBoxDimension:
    def test_single_point(self):
        E = ArcUnion.from_points([2.0])
        assert abs(box_dimension_estimate(E, log_t_grid(1e-4, 1e-1, 12))) < 0.02

    def test_full_circle(self):
        E = ArcUnion.full_circle()
        slope = box_dimension_estimate(E, log_t_grid(1e-4, 1e-1, 12))
        assert abs(slope - 1.0) < 0.02

    def test_finite_point_set(self):
        E = ArcUnion.from_points([0.0, 1.0, 2.5, 4.0])
        slope = box_dimension_estimate(E, log_t_grid(1e-5, 1e-3, 10))
        assert abs(slope) < 0.05

    def test_middle_thirds(self):
        E = cantor_build(middle_thirds_spec(12))
        slope = box_dimension_estimate(E, log_t_grid(3.0**-11, 3.0**-3, 16))
        assert abs(slope - math.log(2) / math.log(3)) < 0.05

    def test_degenerate_range_rejected(self):
        E = ArcUnion.full_circle()
        with pytest.raises(ValueError):
            box_dimension_estimate(E, [1e-3, 2e-3, 4e-3])


# ---------------------------------------------------------------------------
# Carleson test
# ---------------------------------------------------------------------------

class TestCarleson:
    def test_point_set(self):
        E = ArcUnion.from_points([0.0])
        rec = carleson_test(E, 2**16)
        # exact integral of log|1 - zeta| over the circle is 0; the grid
        # quadrature gives 2*pi*log(G)/G
        assert abs(rec["log_integral"]) < 0.01
        assert rec["log_integral"] == pytest.approx(
            TWO_PI * math.log(2**16) / 2**16, rel=1e-9
        )
        assert rec["interval_sum"] == pytest.approx(0.0, abs=1e-12)
        assert rec["verdict"] == "carleson"
        assert rec["positive_measure"] is False

    def test_middle_thirds_converges(self):
        E = cantor_build(middle_thirds_spec(12))
        rec = carleson_test(E, 2**14)
        assert rec["verdict"] == "carleson"
        assert rec["interval_sum"] == pytest.approx(-19.910321, abs=1e-4)
        assert rec["positive_measure"] is True

    def test_middle_thirds_shallow(self):
        E = cantor_build(middle_thirds_spec(6))
        rec = carleson_test(E, 2**13)
        assert rec["verdict"] == "carleson"
        assert rec["resolved"] is True
        assert rec["interval_sum"] == pytest.approx(-15.254302, abs=1e-4)

    def test_non_carleson_preset_diverges(self):
        spec = non_carleson_n2_spec(20)
        E = cantor_build(spec)
        rec = carleson_test(E, 2**14)
        assert rec["interval_sum"] == pytest.approx(analytic_interval_sum(spec), rel=1e-6)
        assert rec["interval_sum"] == pytest.approx(-14.236746, abs=1e-3)
        assert rec["interval_sum"] < -10.0
        assert rec["verdict"] == "non_carleson_evidence"
        assert rec["resolved"] is False  # gaps at 1.9e-8 vs grid step 3.8e-4

    def test_interval_sum_growth_along_depth(self):
        sums = [
            carleson_test(cantor_build(non_carleson_n2_spec(d)), 2**10)["interval_sum"]
            for d in (4, 8, 12)
        ]
        assert sums[0] > sums[1] > sums[2]
        assert sums[1] < -10.0  # crosses the threshold by depth 8

    def test_strict_mode_raises_when_unresolved(self):
        E = cantor_build(middle_thirds_spec(12))
        with pytest.raises(ValueError):
            carleson_test(E, 2**12, strict=True)

    def test_positive_measure_arc_flagged(self):
        E = ArcUnion([(0.0, 0.5)])
        rec = carleson_test(E, 2**12)
        assert rec["positive_measure"] is True
        assert math.isfinite(rec["log_integral"])


# ---------------------------------------------------------------------------
# divergence criterion
# ---------------------------------------------------------------------------

class TestLambdaDivergence:
    def test_point_weak_exponent_converges(self):
        E = ArcUnion.from_points([0.0])
        rec = lambda_divergence_test(E, gamma=0.5, t_floor=1e-6)
        assert rec["divergent"] is False
        # frozen quadrature oracle value (scipy.integrate.quad): 2.971416
        assert rec["integral_estimate"] == pytest.approx(2.971416, abs=0.05)

    def test_gamma_one_always_diverges(self):
        for E in (
            ArcUnion.from_points([0.0]),
            cantor_build(middle_thirds_spec(4)),
            ArcUnion([(1.0, 1.5)]),
        ):
            rec = lambda_divergence_test(E, gamma=1.0, t_floor=1e-6)
            assert rec["divergent"] is True

    def test_full_circle_diverges(self):
        rec = lambda_divergence_test(ArcUnion.full_circle(), gamma=0.5, t_floor=1e-4)
        assert rec["divergent"] is True

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            lambda_divergence_test(ArcUnion.from_points([0.0]), gamma=-1.0, t_floor=1e-3)


# ---------------------------------------------------------------------------
# property-based checks
# ---------------------------------------------------------------------------

@st.composite
def arc_unions(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    pairs = []
    for _ in range(n):
        s = draw(st.floats(min_value=0.0, max_value=6.2))
        length = draw(st.floats(min_value=0.0, max_value=0.8))
        pairs.append((s, s + length))
    return ArcUnion(pairs)


@given(arc_unions(), st.floats(min_value=1e-3, max_value=1.5))
@settings(max_examples=60, deadline=None)
def test_distance_zero_iff_inside(E, t):
    # arc midpoints are inside; gap midpoints are strictly outside
    for s, e in zip(E.starts, E.ends):
        assert distance_to_set(0.5 * (s + e), E) == 0.0
    starts, lengths = E.gaps()
    for s, length in zip(starts, lengths):
        assert distance_to_set(s + 0.5 * length, E) > 0.0


@given(arc_unions(), st.floats(min_value=1e-3, max_value=0.5))
@settings(max_examples=60, deadline=None)
def test_tube_monotone_in_t(E, t):
    assert tube_measure(E, t) <= tube_measure(E, t * 1.5) + 1e-12


@given(arc_unions(), st.floats(min_value=5e-3, max_value=0.5))
@settings(max_examples=60, deadline=None)
def test_tube_at_least_measure_plus_dilation(E, t):
    rho = 2.0 * math.asin(t / 2.0)
    lower = min(E.total_measure + 2.0 * rho, TWO_PI)
    assert tube_measure(E, t) >= lower - 1e-12


@given(arc_unions(), st.floats(min_value=5e-3, max_value=0.4))
@example(E=ArcUnion([(0.0, 0.125), (0.375, 0.5)]), t=0.25)
@settings(max_examples=60, deadline=None)
def test_sandwich_generic(E, t):
    # the pinned example is covered by the single arc [0, 0.5] and meets the
    # upper bound with equality (tube = 1.001311 > 4tN = 1)
    N = covering_number(E, t)
    tube = tube_measure(E, t)
    assert t * N <= tube + 1e-12
    assert tube <= sandwich_upper_bound(t, N) + 1e-9
