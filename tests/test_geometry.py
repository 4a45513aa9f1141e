"""Tests for circle-subset construction and measurement.

Frozen values below were computed from the analytic gap schedules and from
independent brute-force/Monte-Carlo oracles before geometry.py existed:

- non_carleson_n2 normalization c(depth 20) = 7.8728530293
- interval sums (|I| log(|I|/2pi)): n2 depth 20 -> -14.236746,
  middle-thirds depth 12 -> -19.910321, depth 6 -> -15.254302
- smallest arc of the depth-20 n2 approximation: 5.714524e-12 rad
- Monte-Carlo tube check (middle-thirds depth 6, t = 3^-6, 1e6 samples,
  seed 123456, exact chordal distance per arc): 0.728749 +- 0.002012
  (1 sigma), 2.14 sigma above the seam-merged value 0.724450; analytic
  no-merge value 64*(arc + 2*rho) = 0.727193
- point-set log-distance integral on a G-grid equals 2*pi*log(G)/G exactly
  (the product of |1 - omega^j| over nontrivial G-th roots omega^j is G)
"""

import math
import re
from fractions import Fraction

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
from cyclab.presets import SET_PRESETS


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


def loop_merge_oracle(arcs):
    """ArcUnion's arc merge as a loop over tuples: (starts, ends) arrays.

    The reference for the array merge; inputs must be finite, non-reversed
    arcs.
    """
    pairs = []
    for s, e in arcs:
        s, e = float(s), float(e)
        length = e - s
        if length >= TWO_PI:
            pairs = [(0.0, TWO_PI)]
            break
        s = s % TWO_PI
        e = s + length
        if e > TWO_PI:
            pairs.append((s, TWO_PI))
            pairs.append((0.0, e - TWO_PI))
        else:
            pairs.append((s, e))
    pairs.sort()
    merged = []
    for s, e in pairs:
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    return (np.array([p[0] for p in merged], dtype=float),
            np.array([p[1] for p in merged], dtype=float))


def fraction_tube_oracle(E, t):
    """|E_t| as the exact union of E's float arcs, each dilated by the float
    rho(t), merged in rational arithmetic on the circle [0, TWO_PI); the
    result is rounded to a float once, at the end."""
    if t >= 2.0:
        return TWO_PI
    circle = Fraction(TWO_PI)
    rho = Fraction(2.0 * math.asin(t / 2.0))
    pieces = []
    for s, e in zip(E.starts, E.ends):
        a, b = Fraction(float(s)) - rho, Fraction(float(e)) + rho
        if b - a >= circle:
            return TWO_PI
        start = a % circle
        end = start + (b - a)
        if end > circle:
            pieces += [(start, circle), (Fraction(0), end - circle)]
        else:
            pieces.append((start, end))
    pieces.sort()
    total = Fraction(0)
    lo, hi = pieces[0]
    for s, e in pieces[1:]:
        if s > hi:
            total += hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    total += hi - lo
    return float(min(total, circle))


def greedy_cover_oracle(E, t):
    """covering_number as a sweep that steps through every arc, covered or
    not, in exact rational arithmetic on the float inputs.  Each arc not yet
    covered takes the least k >= 1 covers from its first uncovered point y
    with y + 2tk >= end, so the cost does not grow as t shrinks."""
    two_t = 2 * Fraction(t)
    if two_t >= TWO_PI:
        return 1
    base = float(E.starts[0])
    # the turn ends at the float base + 2*pi, where covering_number ends it
    limit = Fraction(base + TWO_PI)
    base = Fraction(base)
    count = 0
    covered = base
    covered_f = float(covered)  # the float nearest `covered`
    first = True
    for s, e in zip(E.starts.tolist(), E.ends.tolist()):
        # e <= covered: a float below (above) covered_f is below (above)
        # covered, so only e == covered_f is compared exactly
        if not first and (e < covered_f or (e == covered_f and e <= covered)):
            continue
        y = max(Fraction(s), covered)
        if y <= e and y < limit:
            k = max(1, math.ceil((e - y) / two_t))
            count += k
            covered = y + k * two_t
            covered_f = float(covered)
            first = False
    return max(count, 1)


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

    @pytest.mark.parametrize("arcs", [[(0.0, 7.0), (3.0, 1.0)], [(3.0, 1.0), (0.0, 7.0)]])
    def test_reversed_arc_rejected_beside_a_full_circle_arc(self, arcs):
        with pytest.raises(ValueError, match=r"arc \[3.0, 1.0\] is reversed"):
            ArcUnion(arcs)

    @pytest.mark.parametrize("arc", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)])
    def test_rejects_non_finite_endpoint(self, arc):
        with pytest.raises(ValueError, match="not finite"):
            ArcUnion([(0.0, 1.0), arc])
        with pytest.raises(ValueError, match="not finite"):
            ArcUnion([(0.0, 7.0), arc])

    def test_array_input(self):
        arcs = [(0.0, 1.0), (0.5, 2.0), (6.0, 7.0)]
        assert ArcUnion(np.array(arcs)) == ArcUnion(arcs)
        assert ArcUnion(np.empty((0, 2))).n_arcs == 0
        with pytest.raises(ValueError, match="pairs"):
            ArcUnion(np.zeros((2, 3)))

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

    @pytest.mark.parametrize("spec", [middle_thirds_spec, non_carleson_n2_spec])
    @pytest.mark.parametrize("depth", [0, -1, 2.5, 1.0, True, "3", None])
    def test_bad_depth_raises_naming_it(self, spec, depth):
        with pytest.raises(ValueError, match=r"depth must be an integer >= 1, got %s$"
                           % re.escape(repr(depth))):
            spec(depth)

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
        for name in ("nonsense", "custom"):
            with pytest.raises(ValueError):
                cantor_spec_by_name(name)


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
        # independent Monte-Carlo oracle, 3 sigma band; the chordal distance
        # to an arc is 0 inside it and the chord to the nearer endpoint outside
        rng = np.random.default_rng(123456)
        M = 10**6
        th = rng.uniform(0.0, TWO_PI, M)
        z = np.exp(1j * th)
        d = np.full(M, np.inf)
        for s, e in zip(E.starts, E.ends):
            inside = (th - s) % TWO_PI <= e - s
            chord = np.minimum(np.abs(z - np.exp(1j * s)), np.abs(z - np.exp(1j * e)))
            d = np.minimum(d, np.where(inside, 0.0, chord))
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

    def test_near_touching_arcs_are_counted_per_arc(self):
        # two unit arcs 1e-9 apart at t = 4e-10: some 2.5e9 covers, which a
        # sweep that steps one cover at a time does not finish
        E = ArcUnion([(0.0, 1.0), (1.0 + 1e-9, 2.0)])
        t = 4e-10
        (s0, s1), (e0, e1) = map(Fraction, E.starts), map(Fraction, E.ends)
        two_t = 2 * Fraction(t)
        first = math.ceil((e0 - s0) / two_t)
        covered = s0 + first * two_t
        assert covered < s1  # the second arc starts past the first's covers
        second = math.ceil((e1 - s1) / two_t)
        assert (first, second) == (1250000000, 1249999999)
        assert covering_number(E, t) == first + second


    @pytest.mark.parametrize("name", SET_PRESETS)
    def test_default_cantor_grid_matches_greedy_oracle(self, name):
        # the `cantor` experiment's default scales on the preset at its
        # default depth (2^20 arcs for non_carleson_n2)
        E = cantor_build(cantor_spec_by_name(name))
        for t in log_t_grid(1e-4, 0.25, 9):
            assert covering_number(E, t) == greedy_cover_oracle(E, t)


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

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma_raises(self, gamma):
        # a NaN gamma makes every increment NaN, which reads as convergent
        E = cantor_build(middle_thirds_spec(4))
        with pytest.raises(ValueError, match="positive and finite"):
            lambda_divergence_test(E, gamma, 1e-2)


def assert_profile_tubes_are_per_call(E, t_values):
    """`covering_profile`'s tube column is, float for float, a `tube_measure`
    call per scale."""
    _, _, tube = covering_profile(E, t_values).as_arrays()
    want = [tube_measure(E, t) for t in sorted(float(t) for t in t_values)]
    assert [float.hex(x) for x in tube] == [float.hex(x) for x in want]


def assert_lambda_tubes_are_per_call(E, gamma, t_floor, n_quad):
    """`lambda_divergence_test` integrates, at every floor of its schedule,
    the same tube array as a `tube_measure` call per quadrature node gives."""
    rec = lambda_divergence_test(E, gamma, t_floor, n_quad=n_quad)
    for s_lo, got in rec["schedule"]:
        t = np.geomspace(s_lo, 2.0, n_quad)
        tube = np.array([tube_measure(E, x) for x in t])
        integrand = tube * gamma * t ** (-gamma - 1.0)
        want = float(np.trapezoid(integrand * t, np.log(t)))
        assert float.hex(got) == float.hex(want)


@pytest.fixture(scope="module", params=SET_PRESETS)
def default_preset_set(request):
    return cantor_build(cantor_spec_by_name(request.param))


class TestOneGapPass:
    """Multi-scale profiles take the gaps once and match per-scale calls."""

    def test_covering_profile_at_default_depth(self, default_preset_set):
        # the `cantor` experiment's default scales
        assert_profile_tubes_are_per_call(default_preset_set, log_t_grid(1e-4, 0.25, 9))

    def test_lambda_test_at_default_depth(self, default_preset_set):
        assert_lambda_tubes_are_per_call(default_preset_set, 0.369, 1e-4, 25)

    def test_empty_set(self):
        E = ArcUnion([])
        assert_lambda_tubes_are_per_call(E, 0.5, 1e-3, 8)
        assert lambda_divergence_test(E, 0.5, 1e-3)["integral_estimate"] == 0.0

    @pytest.mark.parametrize("E", [
        ArcUnion([]),
        ArcUnion.from_points([0.0, 0.1]),
        ArcUnion([(0.0, 1.0), (TWO_PI - 0.5, TWO_PI)]),
        cantor_build(middle_thirds_spec(6)),
    ], ids=["empty", "two_points", "across_the_seam", "middle_thirds_6"])
    def test_array_of_scales_is_a_call_per_scale(self, E):
        t = np.array([[1e-4, 3.0**-6, 0.05, 0.2], [1.0, 1.999, 2.0, 5.0]])
        got = tube_measure(E, t)
        assert got.shape == t.shape
        want = [tube_measure(E, float(x)) for x in t.ravel()]
        assert all(type(x) is float for x in want)
        assert [float.hex(x) for x in got.ravel()] == [float.hex(x) for x in want]

    def test_zero_d_scale_returns_a_float(self):
        E = cantor_build(middle_thirds_spec(6))
        want = tube_measure(E, 0.2)
        for t in (np.float64(0.2), np.array(0.2), 0.2):
            got = tube_measure(E, t)
            assert type(got) is float
            assert float.hex(got) == float.hex(want)

    @pytest.mark.parametrize("t", [
        math.nan, 0.0, -1.0, np.array([0.1, math.nan]), np.array([0.1, 0.0]),
    ])
    def test_refuses_nan_and_nonpositive_scales(self, t):
        # a NaN scale passed the old `t <= 0` guard: the tube read NaN
        with pytest.raises(ValueError, match="t must be positive"):
            tube_measure(ArcUnion.from_points([0.0]), t)
        with pytest.raises(ValueError, match="t must be positive"):
            tube_measure(ArcUnion([]), t)

    def test_covering_refuses_a_nan_scale(self):
        # the old guard let NaN through to math.ceil
        with pytest.raises(ValueError, match="t must be positive"):
            covering_number(ArcUnion.from_points([0.0, 1.0]), math.nan)


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


# Arc lists for the oracle comparisons.  Starts come from anchors at and
# beyond the seam, or anywhere in [-10, 16]; an arc may start where an
# earlier one ends (touching) or inside it (nested); lengths include points
# and the full circle.
_ANCHORS = (-TWO_PI, -1.0, 0.0, 0.5, 3.0, TWO_PI - 0.5, TWO_PI, TWO_PI + 0.5, 9.0)


@st.composite
def raw_arcs(draw, min_size=0):
    arcs = []
    for _ in range(draw(st.integers(min_value=min_size, max_value=8))):
        if arcs and draw(st.booleans()):
            s0, e0 = draw(st.sampled_from(arcs))
            s = draw(st.sampled_from((e0, s0 + 0.25 * (e0 - s0))))
        else:
            s = draw(st.sampled_from(_ANCHORS) | st.floats(min_value=-10.0, max_value=16.0))
        length = draw(st.sampled_from((0.0, 0.5, TWO_PI))
                      | st.floats(min_value=0.0, max_value=7.0))
        arcs.append((s, s + length))
    return arcs


@given(raw_arcs())
@example(arcs=[(6.0, 7.0), (0.5, 0.7), (0.7, 1.0), (0.75, 0.8), (2.0, 2.0)])
@example(arcs=[(-1.0, -0.5), (9.0, 9.0), (1.0, 1.0 + TWO_PI)])
@settings(max_examples=200, deadline=None)
def test_arc_union_matches_loop_oracle(arcs):
    starts, ends = loop_merge_oracle(arcs)
    E = ArcUnion(arcs)
    assert np.array_equal(E.starts, starts)
    assert np.array_equal(E.ends, ends)
    assert ArcUnion(np.array(arcs, dtype=float).reshape(-1, 2)) == E


@given(raw_arcs(min_size=1), st.floats(min_value=1e-4, max_value=4.0))
@example(arcs=[(0.0, 0.1), (0.3, 0.4), (3.0, 3.0)], t=0.05)
@settings(max_examples=200, deadline=None)
def test_covering_matches_greedy_oracle(arcs, t):
    E = ArcUnion(arcs)
    scales = [t]
    _, gaps = E.gaps()
    longest = float(np.max(E.ends - E.starts))
    if len(gaps) and gaps.min() > 0.0:
        scales.append(0.4 * float(gaps.min()))  # below the smallest gap
        if longest > gaps.min():
            scales.append(math.sqrt(float(gaps.min()) * longest))  # in between
    if longest > 0.0:
        scales.append(1.5 * longest)  # above the largest arc
    for x in scales:
        assert covering_number(E, x) == greedy_cover_oracle(E, x)


@st.composite
def tube_arc_unions(draw):
    """Up to 40 arcs: points, arcs touching the seam from either side, arcs
    across the origin with others nested inside them, and the full circle."""
    arcs = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        kind = draw(st.sampled_from(("point", "seam", "origin", "nested", "free")))
        if kind == "point":
            s = draw(st.sampled_from((0.0, TWO_PI)) | st.floats(0.0, TWO_PI))
            arcs.append((s, s))
        elif kind == "seam":
            length = draw(st.floats(min_value=0.0, max_value=1.0))
            arcs.append(draw(st.sampled_from(((0.0, length), (TWO_PI - length, TWO_PI)))))
        elif kind == "origin":
            s = -draw(st.floats(min_value=0.0, max_value=2.0))
            arcs.append((s, s + draw(st.floats(min_value=-s, max_value=3.0))))
        elif kind == "nested" and arcs:
            s0, e0 = draw(st.sampled_from(arcs))
            s = draw(st.floats(min_value=s0, max_value=e0))
            arcs.append((s, draw(st.floats(min_value=s, max_value=e0))))
        else:
            s = draw(st.floats(min_value=0.0, max_value=TWO_PI))
            length = draw(st.sampled_from((0.0, TWO_PI)) | st.floats(0.0, 0.5))
            arcs.append((s, s + length))
    return ArcUnion(arcs)


@given(tube_arc_unions(),
       st.sampled_from((2.0, 3.0)) | st.floats(min_value=1e-9, max_value=1.99))
@example(E=ArcUnion([(0.0, 0.1), (TWO_PI - 0.2, TWO_PI)]), t=1e-3)
@example(E=ArcUnion.from_points([0.0, 1.0, 2.5]), t=1e-6)
@example(E=ArcUnion.full_circle(), t=0.1)
@settings(max_examples=300, deadline=None)
def test_tube_matches_exact_fraction_oracle(E, t):
    # the closed form sums exact gaps and lengths, so it agrees with the
    # exact union of the dilated float arcs to a few ulps even when the tube
    # is many orders below 2*pi
    want = fraction_tube_oracle(E, t)
    assert abs(tube_measure(E, t) - want) <= 1e-13 * want


@given(tube_arc_unions(),
       st.lists(st.sampled_from((2.0, 3.0)) | st.floats(min_value=1e-3, max_value=1.99),
                min_size=1, max_size=8))
@example(E=ArcUnion([(0.0, 0.1), (TWO_PI - 0.2, TWO_PI)]), t_values=[1e-3, 0.05, 2.0])
@example(E=ArcUnion.full_circle(), t_values=[0.1, 3.0])
@settings(max_examples=100, deadline=None)
def test_covering_profile_tubes_match_per_call(E, t_values):
    # t >= 1e-3 keeps the covering sweep short; the tube column is what is checked
    assert_profile_tubes_are_per_call(E, t_values)


@given(tube_arc_unions(),
       st.floats(min_value=0.1, max_value=2.0),
       st.floats(min_value=1e-9, max_value=1.99))
@example(E=ArcUnion.from_points([0.0, 1.0, 2.5]), gamma=0.5, t_floor=1e-6)
@settings(max_examples=100, deadline=None)
def test_lambda_test_tubes_match_per_call(E, gamma, t_floor):
    assert_lambda_tubes_are_per_call(E, gamma, t_floor, 12)
