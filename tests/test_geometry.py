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
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cyclab import geometry
from cyclab.fourier import circle_grid
from cyclab.geometry import (
    TWO_PI,
    ArcUnion,
    CantorSpec,
    _gap_integral,
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
from cyclab.presets import SET_PRESETS, build_set


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


def exact_union_measure(arcs):
    """The measure of the union of the arcs [a, b], given in exact
    rationals, merged on the circle [0, TWO_PI)."""
    circle = Fraction(TWO_PI)
    pieces = []
    for a, b in arcs:
        if b - a >= circle:
            return circle
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
    return min(total + hi - lo, circle)


def fraction_tube_oracle(E, t):
    """|E_t| as the exact union of E's float arcs, each dilated by the float
    rho(t), merged in rational arithmetic on the circle [0, TWO_PI); the
    result is rounded to a float once, at the end."""
    if t >= 2.0:
        return TWO_PI
    rho = Fraction(2.0 * math.asin(t / 2.0))
    return float(exact_union_measure(
        [(Fraction(float(s)) - rho, Fraction(float(e)) + rho) for s, e in zip(E.starts, E.ends)]))


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
            k = max(1, math.ceil((Fraction(e) - y) / two_t))
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
            cantor_build(CantorSpec(gap_lengths=(4.0, 2.0)))

    def test_schedule_total_validation(self):
        with pytest.raises(ValueError):
            CantorSpec(gap_lengths=(TWO_PI, 1.0))

    @pytest.mark.parametrize("gap_lengths", [(math.nan,), (1.0, math.nan), (1.0, -0.5)])
    def test_a_gap_outside_its_interval_is_refused_at_construction(self, gap_lengths):
        # a NaN gap once passed the spec and failed inside ArcUnion, as a
        # reversed arc
        with pytest.raises(ValueError, match="the interval it is cut from"):
            CantorSpec(gap_lengths=gap_lengths)

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


def spec_from_fractions(fractions):
    """The CantorSpec whose level-n gap is fractions[n-1] of the interval it
    is cut from."""
    length, gaps = TWO_PI, []
    for frac in fractions:
        gaps.append(frac * length)
        length = (length - gaps[-1]) / 2.0
    return CantorSpec(tuple(gaps))


def assert_spec_distance_is_the_built_sets(spec, theta):
    E = cantor_build(spec)
    got, want = distance_to_set(theta, spec), distance_to_set(theta, E)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# every angle a set's arcs end or start at, and the floats beside them
def endpoint_angles(E):
    ends = np.concatenate([E.starts, E.ends])
    return np.concatenate([ends, np.nextafter(ends, -1.0), np.nextafter(ends, 8.0)])


class TestSpecDistance:
    """`distance_to_set` on a CantorSpec is, bit for bit, the distance to the
    set `cantor_build` makes of it."""

    @pytest.mark.parametrize("name, depth", [
        *(("middle_thirds", depth) for depth in range(1, 13)),
        *(("non_carleson_n2", depth) for depth in range(1, 21)),
    ])
    def test_presets_match_the_built_set(self, name, depth):
        spec = cantor_spec_by_name(name, depth)
        E = cantor_build(spec)
        angles = np.random.default_rng(depth).uniform(-10.0, 10.0, 5000)
        for theta in [*(circle_grid(2**k) for k in range(4, 18)), angles]:
            got, want = distance_to_set(theta, spec), distance_to_set(theta, E)
            assert got.tobytes() == want.tobytes()
        for theta in (0.0, 2.5, -1e-20, TWO_PI, angles[0]):
            got = distance_to_set(theta, spec)
            assert isinstance(got, float)
            assert got.hex() == distance_to_set(theta, E).hex()

    @given(st.lists(st.floats(1e-6, 0.99), min_size=1, max_size=12),
           st.integers(4, 12), st.integers(0, 2**32 - 1))
    # gaps near 0.99 shrink the leaves below the rounding of their starts,
    # so the built arcs touch and merge, and the last one wraps the seam
    @example(fractions=[0.78125, 0.84375, 0.5, 0.98828125, 0.98828125, 0.98828125,
                        0.6875, 0.5, 0.96875, 0.75, 0.984375], k=4, seed=0)
    @settings(max_examples=150, deadline=None)
    def test_random_specs_match_the_built_set(self, fractions, k, seed):
        spec = spec_from_fractions(fractions)
        angles = np.random.default_rng(seed).uniform(-10.0, 10.0, 500)
        theta = np.concatenate([circle_grid(2**k), angles,
                                endpoint_angles(cantor_build(spec))])
        assert_spec_distance_is_the_built_sets(spec, theta)

    @given(st.lists(st.tuples(st.booleans(), st.floats(1e-6, 0.99),
                              st.floats(1.0, 64.0, exclude_min=True)),
                    min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_specs_at_the_margin_descend_without_a_build(self, levels):
        # gaps down to just past the margin of `_descent`
        margin = (len(levels) + 2) * 2.0**-49
        length, gaps = TWO_PI, []
        for tiny, frac, times in levels:
            gap = min(times * margin, length / 2.0) if tiny else frac * length
            gaps.append(gap)
            length = (length - gap) / 2.0
        spec = CantorSpec(tuple(gaps))
        if min(*gaps, length) <= margin:
            return
        E = cantor_build(spec)
        assert E.n_arcs == 2 ** spec.depth
        theta = np.concatenate([circle_grid(2**10), endpoint_angles(E)])
        want = distance_to_set(theta, E)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "cantor_build", refuse_build)
            assert distance_to_set(theta, spec).tobytes() == want.tobytes()

    def test_merging_spec_is_built(self, monkeypatch):
        built = []

        def counted(spec):
            built.append(spec)
            return cantor_build(spec)

        monkeypatch.setattr(geometry, "cantor_build", counted)
        spec = spec_from_fractions([0.99] * 12)
        assert geometry._descent(spec) is None
        assert cantor_build(spec).n_arcs < 2**12
        distance_to_set(1.0, spec)
        assert built == [spec]

    @pytest.mark.parametrize("name", SET_PRESETS)
    def test_presets_descend_without_a_build(self, monkeypatch, name):
        spec = cantor_spec_by_name(name)
        want = distance_to_set(circle_grid(2**10), cantor_build(spec))
        monkeypatch.setattr(geometry, "cantor_build", refuse_build)
        assert distance_to_set(circle_grid(2**10), spec).tobytes() == want.tobytes()


def refuse_build(spec):
    raise AssertionError("cantor_build called")


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

    def test_a_cover_end_rounding_onto_a_point_does_not_cover_it(self):
        # 500 covers of the float 2e-4 end at 0.1000000000000000048, short of
        # the float 0.1 (0.1000000000000000056); in floats that end rounds to
        # 0.1, and the point used to count as covered
        E = ArcUnion([(0.0, 0.0999), (0.1, 0.1)])
        t = 1e-4
        assert 500 * 2 * Fraction(t) < Fraction(0.1)
        assert covering_number(E, t) == greedy_cover_oracle(E, t) == 501


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
    """The closed-form gap sum of `lambda_divergence_test` against
    quadrature and the built set."""

    @pytest.mark.parametrize("g", [5.7e-12, 1e-8, 1e-4, 0.05, 1.0, 3.0, TWO_PI])
    @pytest.mark.parametrize("gamma", [0.05, 0.369, 0.5, 0.95])
    def test_gap_integral_matches_quadrature(self, g, gamma):
        # 2 * int_0^(g/2) (2 sin(x/2))^(-gamma) dx, with the x^(-gamma)
        # singularity taken by the algebraic weight; sinc is 2 sin(x/2) / x
        smooth = lambda x: np.sinc(x / TWO_PI) ** -gamma  # noqa: E731
        half, _ = quad(smooth, 0.0, g / 2.0, weight="alg", wvar=(-gamma, 0.0),
                       epsabs=0.0, epsrel=1e-13)
        assert _gap_integral(g, gamma) == pytest.approx(2.0 * half, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.9])
    def test_integral_is_the_sum_over_the_built_gaps(self, gamma):
        spec = middle_thirds_spec(12)
        _, lengths = cantor_build(spec).gaps()
        want = math.fsum(_gap_integral(g, gamma) for g in lengths)
        assert lambda_divergence_test(spec, gamma)["integral"] == pytest.approx(
            want, rel=1e-12, abs=0.0)

    def test_tube_identity(self):
        # int_(T \ E) d^-gamma = int_0^2 (|E_t| - |E|) gamma t^(-gamma-1) dt
        #                         + (2 pi - |E|) 2^-gamma,
        # by quadrature over tube_measure, split at the chords 2 sin(g/4)
        # where a gap fills up
        spec, gamma = middle_thirds_spec(4), 0.5
        E = cantor_build(spec)
        measure = E.total_measure
        edges = [0.0, *sorted(2.0 * math.sin(g / 4.0) for g in spec.gap_lengths), 2.0]
        tube_part = math.fsum(
            quad(lambda t: (tube_measure(E, t) - measure) * gamma * t ** (-gamma - 1.0),
                 a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            for a, b in zip(edges[:-1], edges[1:])
        )
        want = tube_part + (TWO_PI - measure) * 2.0**-gamma
        assert lambda_divergence_test(spec, gamma)["integral"] == pytest.approx(
            want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("gamma, divergent", [(0.2, False), (0.3, False), (0.45, True)])
    def test_middle_thirds_switch_at_one_minus_dim(self, gamma, divergent):
        # the switch sits at gamma = 1 - log 2 / log 3 ~ 0.369; a fixed
        # per-decade quadrature rule once called 0.2 and 0.3 divergent
        rec = lambda_divergence_test(middle_thirds_spec(12), gamma)
        assert rec["last_ratio"] == pytest.approx(2.0 * 3.0 ** -(1.0 - gamma), rel=0.0, abs=1e-9)
        assert rec["level_sums"][-1] / rec["level_sums"][-2] == rec["last_ratio"]
        assert len(rec["level_sums"]) == 12
        assert rec["divergent"] is divergent

    @pytest.mark.parametrize("gamma", [1.0, 1.5])
    def test_gamma_at_least_one_diverges(self, gamma):
        rec = lambda_divergence_test(middle_thirds_spec(12), gamma)
        assert rec["integral"] == math.inf
        assert rec["divergent"] is True

    def test_no_set_is_built(self, monkeypatch):
        def refuse(spec):
            raise AssertionError("cantor_build called")

        monkeypatch.setattr(geometry, "cantor_build", refuse)
        rec = lambda_divergence_test(non_carleson_n2_spec(20), 0.5)
        assert len(rec["level_sums"]) == 20
        assert math.isfinite(rec["integral"])

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_non_positive_or_non_finite_gamma_raises(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            lambda_divergence_test(middle_thirds_spec(4), gamma)

    def test_a_single_level_has_no_ratio(self):
        with pytest.raises(ValueError, match="depth >= 2"):
            lambda_divergence_test(middle_thirds_spec(1), 0.5)


def assert_profile_tubes_are_per_call(E, t_values):
    """`covering_profile`'s tube column is, float for float, a `tube_measure`
    call per scale."""
    _, _, tube = covering_profile(E, t_values).as_arrays()
    want = [tube_measure(E, t) for t in sorted(float(t) for t in t_values)]
    assert [float.hex(x) for x in tube] == [float.hex(x) for x in want]


@pytest.fixture(scope="module", params=SET_PRESETS)
def default_preset_set(request):
    return cantor_build(cantor_spec_by_name(request.param))


class TestOneGapPass:
    """Multi-scale profiles take the gaps once and match per-scale calls."""

    def test_covering_profile_at_default_depth(self, default_preset_set):
        # the `cantor` experiment's default scales
        assert_profile_tubes_are_per_call(default_preset_set, log_t_grid(1e-4, 0.25, 9))

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
@example(arcs=[(-1.1754943508222875e-38, -1.1754943508222875e-38),
               (-1.1754943508222875e-38, 0.1), (0.1, 0.1)], t=0.0001)
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


# ---------------------------------------------------------------------------
# sorted input: the earlier sort-and-merge build as the oracle
# ---------------------------------------------------------------------------

def merge_arcs_oracle(s, e):
    """The general merge, as `_merge_arcs` was before it checked for sorted
    input: every arc list goes through the seam split, the lexsort and the
    running-maximum merge."""
    wraps = e > TWO_PI
    seg_s = np.concatenate([s, np.zeros(int(wraps.sum()))])
    seg_e = np.concatenate([np.minimum(e, TWO_PI), e[wraps] - TWO_PI])
    order = np.lexsort((seg_e, seg_s))
    seg_s, seg_e = seg_s[order], seg_e[order]
    reach = np.maximum.accumulate(seg_e)
    idx = np.flatnonzero(seg_s > np.append(-np.inf, reach[:-1]))
    return seg_s[idx], np.maximum.reduceat(seg_e, idx)


def arc_union_oracle(arcs):
    """(starts, ends) of ArcUnion(arcs) for finite, non-reversed arcs, by
    the constructor's arithmetic and `merge_arcs_oracle`."""
    arr = np.asarray(arcs, dtype=float).reshape(-1, 2)
    s, e = arr[:, 0], arr[:, 1]
    length = e - s
    if (length >= TWO_PI).any():
        return np.array([0.0]), np.array([TWO_PI])
    s = s % TWO_PI
    return merge_arcs_oracle(s, s + length)


def cantor_build_oracle(spec):
    """(starts, ends) of the depth-level set by the recursion as it was: a
    concatenation per level, a sort, and the general merge."""
    starts = np.array([0.0])
    length = TWO_PI
    for gap in spec.gap_lengths:
        starts = np.concatenate([starts, starts + (length + gap) / 2.0])
        length = (length - gap) / 2.0
    starts = np.sort(starts)
    return arc_union_oracle(np.column_stack([starts, starts + length]))


def carleson_test_oracle(E, quadrature_size, divergence_threshold=-10.0):
    """`carleson_test` of an arc union as it was before its buffers were
    reused (strict off), with each interval sum the exact sum of its
    per-gap float terms, rounded once."""
    G = int(quadrature_size)
    _, gap_lengths = E.gaps()
    n_gaps = len(gap_lengths)
    contrib = gap_lengths * np.log(gap_lengths / TWO_PI)
    interval_sum = math.fsum(contrib)
    interval_sum_radian = math.fsum(gap_lengths * np.log(gap_lengths))
    min_gap = float(gap_lengths.min()) if n_gaps else 0.0
    resolved = n_gaps > 0 and (TWO_PI / G) <= min_gap / 4.0
    theta = TWO_PI * np.arange(G) / G
    d = distance_to_set(theta, E) if E.n_arcs else np.full(G, np.nan)
    off = d > 0.0
    log_integral = float(np.sum(np.log(d[off])) * TWO_PI / G)
    verdict = "carleson"
    proper = gap_lengths < TWO_PI
    levels = np.floor(np.log2(TWO_PI / gap_lengths[proper])).astype(int)
    weights = np.abs(contrib[proper])
    bins = []
    if len(levels):
        sums = np.bincount(levels - levels.min(), weights=weights)
        bins = [float(v) for v in sums if v > 0.0]
    geometric_tail = False
    if len(bins) >= 4:
        start = (len(bins) + 1) // 2 - 1
        span = len(bins) - 1 - start
        if span >= 1 and bins[start] > 0:
            fitted_ratio = (bins[-1] / bins[start]) ** (1.0 / span)
            geometric_tail = fitted_ratio <= 0.9
    if not geometric_tail and interval_sum < divergence_threshold:
        verdict = "non_carleson_evidence"
    measure = float(np.sum(E.ends - E.starts))
    return {
        "interval_sum": float(interval_sum),
        "interval_sum_radian": float(interval_sum_radian),
        "log_integral": log_integral,
        "verdict": verdict,
        "resolved": resolved,
        "positive_measure": measure > 1e-14,
        "n_gaps": n_gaps,
        "min_gap": min_gap,
        "total_measure": measure,
        "divergence_threshold": float(divergence_threshold),
    }


def assert_same_bytes(E, want):
    starts, ends = want
    assert E.starts.dtype == starts.dtype and E.ends.dtype == ends.dtype
    assert E.starts.tobytes() == starts.tobytes()
    assert E.ends.tobytes() == ends.tobytes()


def assert_same_report(got, want):
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            assert isinstance(got[key], float) and got[key].hex() == value.hex(), key
        else:
            assert type(got[key]) is type(value) and got[key] == value, key


def traced_peak_mib(fn):
    """fn's result and the peak of memory traced while it ran, in MiB;
    numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / 2**20


class TestSortedBuild:
    @pytest.mark.parametrize("name", SET_PRESETS)
    def test_presets_match_the_sort_and_merge_build(self, name):
        for depth in range(1, 21):
            spec = cantor_spec_by_name(name, depth)
            assert_same_bytes(cantor_build(spec), cantor_build_oracle(spec))

    def test_depth_20_build_stays_under_48_mib(self):
        spec = cantor_spec_by_name("non_carleson_n2", 20)
        E, peak = traced_peak_mib(lambda: cantor_build(spec))
        # 16 MiB of arcs, 8 each of starts and ends, 1-2 of masks; the
        # sort-and-merge build peaked at 106 MiB
        assert E.n_arcs == 2**20 and peak <= 48.0

    def test_carleson_test_on_the_default_preset_stays_under_36_mib(self):
        E = build_set("non_carleson_n2")
        _, peak = traced_peak_mib(lambda: carleson_test(E, 2**12))
        assert peak <= 36.0  # 49.1 MiB with a temporary per expression

    @pytest.mark.parametrize("name", SET_PRESETS)
    def test_carleson_report_keeps_its_bits(self, name):
        E = build_set(name)
        for G in (2**12, 2**14):
            assert_same_report(carleson_test(E, G), carleson_test_oracle(E, G))

    def test_carleson_report_keeps_its_bits_on_small_sets(self):
        for E in (ArcUnion([]), ArcUnion.full_circle(), ArcUnion.from_points([0.0]),
                  ArcUnion.from_points([0.0, 1.0]), ArcUnion([(0.0, 0.5)]),
                  cantor_build(middle_thirds_spec(3))):
            assert_same_report(carleson_test(E, 2**10), carleson_test_oracle(E, 2**10))

    def test_total_measure_is_the_sum_of_the_lengths(self):
        for E in (build_set("non_carleson_n2"), ArcUnion([(6.0, 7.0), (1.0, 1.5)]),
                  ArcUnion([])):
            want = float(np.sum(E.ends - E.starts))
            assert E.total_measure.hex() == want.hex()
            assert E.total_measure.hex() == want.hex()  # the kept value


def ulps_above(x, k):
    """The k-th float above x."""
    for _ in range(k):
        x = float(np.nextafter(x, math.inf))
    return x


@st.composite
def sorted_arc_lists(draw):
    """Arc lists as the sorted-input check sees them: sorted and disjoint,
    with touching, nested and point arcs mixed in, sometimes shuffled; the
    last arc may end 1-4 ulp past 2*pi, its seam piece inside or outside a
    first arc."""
    n = draw(st.integers(min_value=1, max_value=10))
    cuts = sorted(draw(st.lists(st.floats(min_value=0.0, max_value=TWO_PI,
                                          exclude_max=True),
                                min_size=2 * n, max_size=2 * n, unique=True)))
    arcs = []
    for i in range(n):
        s, e = cuts[2 * i], cuts[2 * i + 1]
        kind = draw(st.sampled_from(("disjoint", "disjoint", "point", "touching", "nested")))
        if kind == "point":
            e = s
        elif kind == "touching" and arcs:
            s = arcs[-1][1]
        elif kind == "nested" and arcs and arcs[-1][1] > arcs[-1][0]:
            s0, e0 = arcs[-1]
            s = e = s0 + 0.5 * (e0 - s0)
        arcs.append((s, max(s, e)))
    seam = draw(st.sampled_from(("none", "inside", "outside")))
    if seam != "none":
        # a start of at least pi keeps last - start exact, so the constructor's
        # start + (end - start) gives back the end exactly
        s_last = max(arcs[-1][0], math.pi)
        arcs[-1] = (s_last, ulps_above(TWO_PI, draw(st.integers(min_value=1, max_value=4))))
        overshoot = arcs[-1][1] - TWO_PI
        s0, e0 = arcs[0]
        if seam == "inside":
            arcs[0] = (0.0, min(max(e0, overshoot), s_last))
        elif draw(st.booleans()):
            arcs[0] = (0.0, overshoot / 2.0)
    if draw(st.sampled_from((False, False, True))):
        arcs = draw(st.permutations(arcs))
    return arcs


@given(sorted_arc_lists())
@example(arcs=[(0.0, 1.0), (2.0, 3.0), (5.0, ulps_above(TWO_PI, 1))])
@example(arcs=[(0.0, 0.0), (5.0, ulps_above(TWO_PI, 3))])
@example(arcs=[(0.5, 1.0), (5.0, ulps_above(TWO_PI, 4))])
@example(arcs=[(0.0, ulps_above(TWO_PI, 2) - TWO_PI), (5.0, ulps_above(TWO_PI, 2))])
@example(arcs=[(0.0, 1.0), (1.0, 2.0), (2.0, 2.0)])
@example(arcs=[(2.0, 3.0), (0.0, 1.0)])
@settings(max_examples=300, deadline=None)
def test_sorted_input_matches_the_general_merge(arcs):
    want = arc_union_oracle(arcs)
    assert_same_bytes(ArcUnion(arcs), want)
    assert_same_bytes(ArcUnion(np.array(arcs, dtype=float).reshape(-1, 2)), want)


# ---------------------------------------------------------------------------
# set statistics of a spec: exact oracles, and the built set against them
# ---------------------------------------------------------------------------

PRESET_DEPTHS = [*(("middle_thirds", depth) for depth in range(1, 13)),
                 *(("non_carleson_n2", depth) for depth in range(1, 21))]
CANTOR_GRID = log_t_grid(1e-4, 0.25, 9)  # the `cantor` experiment's default scales
TUBE_SCALES = np.array([*CANTOR_GRID, 1e-9, 1e-7, 1e-5, 1e-3, 0.01, 0.1, 0.5, 1.0,
                        1.5, 1.9, 2.0, 3.0])
UNIT_ROUNDOFF = 2.0**-53


def spec_measure_oracle(spec):
    """The measure of the spec's depth-level set as an exact rational:
    2^d l_d, with l_n = (l_(n-1) - g_n) / 2 from l_0 = TWO_PI."""
    length = Fraction(TWO_PI)
    for gap in spec.gap_lengths:
        length = (length - Fraction(gap)) / 2
    return length * 2**spec.depth


def spec_tube_oracle(spec, t):
    """|E_t| of the spec's depth-level set as an exact rational: its measure
    plus, for each of the 2^(n-1) gaps g_n of level n, the part
    min(g_n, 2 rho) of it that the dilations by the float
    rho = 2 asin(t/2) cover; at most TWO_PI."""
    if t >= 2.0:
        return Fraction(TWO_PI)
    width = 2 * Fraction(2.0 * math.asin(t / 2.0))
    covered = sum(2**n * min(Fraction(g), width) for n, g in enumerate(spec.gap_lengths))
    return min(spec_measure_oracle(spec) + covered, Fraction(TWO_PI))


def exact_spec_arcs(spec):
    """The 2^depth arcs of the spec's depth-level set in exact rationals, by
    the gap-removal recursion on the spec's floats."""
    arcs = [(Fraction(0), Fraction(TWO_PI))]
    for gap in map(Fraction, spec.gap_lengths):
        arcs = [piece for s, e in arcs
                for piece in ((s, (s + e - gap) / 2), ((s + e + gap) / 2, e))]
    return arcs


def interval_sum_oracle(spec, radian=False):
    """sum_n 2^(n-1) g_n log(g_n / TWO_PI), or with log g_n when `radian`,
    over the levels with g_n > 1e-14, at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        total = Decimal(0)
        for n, g in enumerate(spec.gap_lengths):
            if g > 1e-14:
                x = Decimal(g) if radian else Decimal(g) / Decimal(TWO_PI)
                total += 2**n * Decimal(g) * x.ln()
        return total


def interval_sum_bound(spec, radian=False):
    """How far `carleson_test`'s interval sum may lie from the oracle.

    Each term m g log(x), x = g / 2pi or g, is rounded three times: in x
    (exact for radians), in its log, which numpy gives within 1 ulp, and in
    the product; m is a power of 2.  So it lies within
    m g (4u |log x| + 2u) of its exact value, u = 2^-53.  `math.fsum`
    rounds the exact sum of the terms once, within 2u of the sum.
    """
    u, total, slack = UNIT_ROUNDOFF, 0.0, 0.0
    for n, g in enumerate(spec.gap_lengths):
        if g > 1e-14:
            log_x = math.log(g if radian else g / TWO_PI)
            total += 2.0**n * g * abs(log_x)
            slack += 2.0**n * g * (4.0 * u * abs(log_x) + 2.0 * u)
    return slack + 2.0 * u * total


def assert_statistics_are_the_oracles(spec):
    """Measure and tubes are the exact values rounded once, the interval sums
    within `interval_sum_bound`, and the gap count and least gap are the
    levels'."""
    assert geometry.total_measure(spec) == float(spec_measure_oracle(spec))
    tubes = tube_measure(spec, TUBE_SCALES)
    assert tubes.tolist() == [float(spec_tube_oracle(spec, t)) for t in TUBE_SCALES]
    rec = carleson_test(spec, 2**10)
    for key, radian in (("interval_sum", False), ("interval_sum_radian", True)):
        error = abs(Decimal(rec[key]) - interval_sum_oracle(spec, radian))
        assert error <= Decimal(interval_sum_bound(spec, radian)), key
    proper = [(n, g) for n, g in enumerate(spec.gap_lengths) if g > 1e-14]
    assert rec["n_gaps"] == sum(2**n for n, _ in proper)
    assert rec["min_gap"] == min((g for _, g in proper), default=0.0)
    assert rec["total_measure"] == geometry.total_measure(spec)
    assert geometry.arc_count(spec) == 2**spec.depth


class TestSpecOracles:
    """A spec's measure, tubes and interval sums against exact arithmetic on
    its floats, with no set built."""

    @pytest.mark.parametrize("name, depth", PRESET_DEPTHS)
    def test_presets(self, monkeypatch, name, depth):
        monkeypatch.setattr(geometry, "cantor_build", refuse_build)
        assert_statistics_are_the_oracles(cantor_spec_by_name(name, depth))

    @given(st.lists(st.floats(1e-6, 0.99), min_size=1, max_size=14))
    @example(fractions=[0.99] * 12)  # past the `_descent` margin
    @settings(max_examples=100, deadline=None)
    def test_random_specs(self, fractions):
        assert_statistics_are_the_oracles(spec_from_fractions(fractions))

    @given(st.lists(st.floats(1e-3, 0.9), min_size=1, max_size=7),
           st.floats(min_value=1e-6, max_value=1.99))
    @settings(max_examples=60, deadline=None)
    def test_tube_oracle_is_the_union_of_the_dilated_arcs(self, fractions, t):
        # the level form of the tube against the exact union of the exact
        # arcs, each dilated by the float rho
        spec = spec_from_fractions(fractions)
        rho = Fraction(2.0 * math.asin(t / 2.0))
        dilated = [(s - rho, e + rho) for s, e in exact_spec_arcs(spec)]
        assert spec_tube_oracle(spec, t) == exact_union_measure(dilated)


def assert_built_set_is_the_spec(spec, E):
    """The built set's statistics are the spec's within the built set's
    rounding, and its counts and verdicts are the spec's.

    Each built end is start + length rounded, so the 2^d arc lengths are
    each within 2 ulp(2pi) (perfbench's `cantor_measure`).  Each built
    endpoint is within (d + 1) 2^-51 of its exact sum (`_descent`), so
    each gap is within (d + 1) 2^-50, and so are min(g, 2 rho) and, times
    |log(g / 2pi)| + 1 to first order, the gap's interval term.
    """
    d = spec.depth
    gap_shift = (d + 1) * 2.0**-50
    assert abs(E.total_measure - geometry.total_measure(spec)) <= 2**d * 2 * math.ulp(TWO_PI)
    tube_bound = 2**d * 2 * math.ulp(TWO_PI) + (2**d - 1) * gap_shift
    tubes = tube_measure(spec, CANTOR_GRID)
    assert np.all(np.abs(tube_measure(E, CANTOR_GRID) - tubes) <= tube_bound)
    counts = [covering_number(E, t) for t in CANTOR_GRID]
    assert [covering_number(spec, t) for t in CANTOR_GRID] == counts
    profile = covering_profile(spec, CANTOR_GRID)
    assert profile.samples == tuple(zip(CANTOR_GRID.tolist(), counts, tubes.tolist()))
    assert profile.total_measure == geometry.total_measure(spec)
    assert [row[1] for row in covering_profile(E, CANTOR_GRID).samples] == counts
    for G in (2**10, 2**12):
        got, want = carleson_test(spec, G), carleson_test(E, G)
        for key in ("verdict", "n_gaps", "resolved", "positive_measure", "log_integral"):
            assert got[key] == want[key], key
        for key, radian in (("interval_sum", False), ("interval_sum_radian", True)):
            slack = math.fsum(2.0**n * gap_shift * (abs(math.log(g if radian else g / TWO_PI)) + 1)
                              for n, g in enumerate(spec.gap_lengths))
            assert abs(got[key] - want[key]) <= slack + interval_sum_bound(spec, radian), key


class TestSpecStatistics:
    """`total_measure`, `tube_measure`, `covering_number` and `carleson_test`
    read a spec with no set built; the built set agrees within its rounding,
    and every count and verdict is the same."""

    @pytest.mark.parametrize("name, depth", PRESET_DEPTHS)
    def test_presets_match_the_built_set(self, monkeypatch, name, depth):
        spec = cantor_spec_by_name(name, depth)
        E = cantor_build(spec)
        assert E.total_measure.hex() == float(np.sum(E.ends - E.starts)).hex()
        monkeypatch.setattr(geometry, "cantor_build", refuse_build)
        assert_built_set_is_the_spec(spec, E)

    def test_built_input_matches_the_oracle_at_every_depth(self):
        for name, depth in PRESET_DEPTHS[::3]:
            E = cantor_build(cantor_spec_by_name(name, depth))
            assert_same_report(carleson_test(E, 2**12), carleson_test_oracle(E, 2**12))

    def test_blocks_are_the_built_arcs(self):
        # the two-level block path: 2^6 roots grown by 2^14-leaf blocks
        spec = non_carleson_n2_spec(20)
        E = cantor_build(spec)
        starts, ends = [], []
        for s, e in geometry._spec_blocks(*geometry._descent(spec)):
            starts.append(s.copy())
            ends.append(e.copy())
        assert len(starts) == 2 ** (20 - geometry._BLOCK_LEVELS)
        assert np.concatenate(starts).tobytes() == E.starts.tobytes()
        assert np.concatenate(ends).tobytes() == E.ends.tobytes()

    def test_a_spec_past_the_margin_reads_its_levels_and_covers_the_built_set(
            self, monkeypatch):
        built = []

        def counted(spec):
            built.append(spec)
            return cantor_build(spec)

        spec = spec_from_fractions([0.99] * 12)
        assert geometry._descent(spec) is None
        E = cantor_build(spec)
        assert E.n_arcs < 2**12  # rounding made arcs touch, and they merged
        monkeypatch.setattr(geometry, "cantor_build", counted)
        # the statistics are the levels'; only carleson_test's log_integral
        # samples the distance, of the built set
        assert_statistics_are_the_oracles(spec)
        assert built == [spec]
        built.clear()
        # the covering counts and the distance cover the built set, built
        # once per call, and once for all scales of a profile
        assert [covering_number(spec, t) for t in CANTOR_GRID] == [
            covering_number(E, t) for t in CANTOR_GRID]
        assert built == [spec] * 9
        built.clear()
        profile = covering_profile(spec, CANTOR_GRID)
        assert [row[1] for row in profile.samples] == [
            row[1] for row in covering_profile(E, CANTOR_GRID).samples]
        assert built == [spec]
        built.clear()
        assert carleson_test(spec, 2**10)["log_integral"] == carleson_test(
            E, 2**10)["log_integral"]
        assert built == [spec]

    def test_a_depth_zero_spec_is_the_full_circle(self):
        spec = CantorSpec(())
        assert_built_set_is_the_spec(spec, cantor_build(spec))
        assert geometry.total_measure(spec) == TWO_PI
        assert distance_to_set(1.0, spec) == 0.0

    def test_carleson_on_the_default_preset_allocates_at_most_4_mib(self):
        spec = cantor_spec_by_name("non_carleson_n2")
        # 33 MiB on the built set, plus 34 MiB to build it
        _, peak = traced_peak_mib(lambda: carleson_test(spec, 2**12))
        assert peak <= 4.0

    def test_the_depth_20_cantor_profile_allocates_at_most_4_mib(self):
        spec = cantor_spec_by_name("non_carleson_n2", 20)
        _, peak = traced_peak_mib(lambda: (covering_profile(spec, CANTOR_GRID),
                                           geometry.total_measure(spec)))
        assert peak <= 4.0


def chord_off_oracle(th, inside, left_end, right_start):
    """`_chord_off` as it was, with two float remainders."""
    gap_left = (th - left_end) % TWO_PI
    gap_right = (right_start - th) % TWO_PI
    delta = np.minimum(gap_left, gap_right)
    chord = 2.0 * np.sin(np.minimum(delta, math.pi) / 2.0)
    return np.where(inside, 0.0, chord)


@given(st.lists(st.tuples(
    st.one_of(st.floats(0.0, TWO_PI), st.sampled_from([0.0, TWO_PI, math.pi, 5e-324])),
    st.one_of(st.floats(0.0, TWO_PI), st.sampled_from([0.0, TWO_PI])),
    st.one_of(st.floats(0.0, TWO_PI, exclude_max=True), st.just(0.0)),
    st.booleans()), min_size=1, max_size=40))
@example([(TWO_PI, 0.0, 0.0, False), (0.0, TWO_PI, 0.0, False),
          (5e-324, 1e-300, float(np.nextafter(TWO_PI, 0.0)), False),
          (1e-17, 2e-17, 0.0, False), (math.pi, math.pi, math.pi, True)])
@settings(max_examples=150, deadline=None)
def test_chord_off_matches_the_remainder_form(rows):
    # th and the ends lie in [0, 2*pi], a next start in [0, 2*pi)
    th, left_end, right_start, inside = (np.array(c) for c in zip(*rows))
    got = geometry._chord_off(th, inside, left_end, right_start)
    assert got.tobytes() == chord_off_oracle(th, inside, left_end, right_start).tobytes()
