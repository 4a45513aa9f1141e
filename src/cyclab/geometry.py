"""Closed subsets of the circle: generators, distances, coverings, verdicts.

Sets are finite unions of closed arcs stored in interval coordinates on
[0, 2*pi].  The point 0 == 2*pi may appear as the endpoint of two different
stored arcs (iterated gap removal from the full interval always leaves one
arc starting at 0 and one ending at 2*pi); every metric routine treats the
circle cyclically, so that seam is invisible to distances, tubes, coverings
and complementary gaps.

Distances are Euclidean chords |e^{i a} - e^{i b}| = 2 sin(|a - b|/2).  The
t-neighborhood therefore dilates each arc by the angular radius
rho(t) = 2*arcsin(min(t, 2)/2), and covering arcs of "length 2t" are arcs of
angular length 2t.  The two radii differ: rho(t) = t + t^3/24 + O(t^5) > t.
The t-neighborhood of one covering arc therefore measures 2(t + rho(t)),
which exceeds 4t, and the upper side of the covering/tube sandwich is
|E_t| <= 2(t + rho(t)) N_E(t), not 4t N_E(t).  A set that one covering arc
covers end to end meets it with equality.

Integrals in this module use the unnormalized arc-length measure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

# Gaps shorter than this are construction noise (touching arcs), not
# complementary intervals.
_GAP_EPS = 1e-14
# the per-decade increment above which lambda_divergence_test says divergent
LAMBDA_INCREMENT_TOL = 0.5


def _merge_arcs(s, e):
    """Union of the arcs [s, e] (0 <= s <= 2*pi, e >= s) as sorted disjoint (starts, ends).

    Arcs past 2*pi are split at the seam; after a (start, end) sort, a piece
    starting beyond the running maximum of the ends before it opens an arc.
    """
    wraps = e > TWO_PI
    seg_s = np.concatenate([s, np.zeros(int(wraps.sum()))])
    seg_e = np.concatenate([np.minimum(e, TWO_PI), e[wraps] - TWO_PI])
    order = np.lexsort((seg_e, seg_s))
    seg_s, seg_e = seg_s[order], seg_e[order]
    reach = np.maximum.accumulate(seg_e)
    idx = np.flatnonzero(seg_s > np.append(-np.inf, reach[:-1]))
    return seg_s[idx], np.maximum.reduceat(seg_e, idx)


class ArcUnion:
    """Sorted disjoint closed arcs [start, end] with 0 <= start <= end <= 2*pi.

    Built from an (n, 2) array or an iterable of (start, end) pairs; any
    arc with an end before its start or a non-finite endpoint raises
    ValueError, wherever it sits.  An arc of length >= 2*pi gives the full
    circle.  Overlapping or touching arcs are merged (except across the
    0/2*pi seam, see module docstring).  Point arcs are allowed.
    """

    __slots__ = ("_starts", "_ends")

    def __init__(self, arcs):
        arr = np.asarray(arcs if isinstance(arcs, np.ndarray) else list(arcs), dtype=float)
        arr = arr.reshape(0, 2) if arr.size == 0 else arr
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("arcs must be (start, end) pairs, got shape %r" % (arr.shape,))
        s, e = arr[:, 0], arr[:, 1]
        bad = ~np.isfinite(arr).all(axis=1) | (e < s)
        if bad.any():
            arc = arr[np.argmax(bad)].tolist()
            raise ValueError("arc %r is reversed or not finite" % (arc,))
        length = e - s
        if (length >= TWO_PI).any():
            starts, ends = np.array([0.0]), np.array([TWO_PI])
        else:
            s = s % TWO_PI
            starts, ends = _merge_arcs(s, s + length)
        starts.setflags(write=False)
        ends.setflags(write=False)
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_ends", ends)

    def __setattr__(self, name, value):
        raise AttributeError("ArcUnion is immutable")

    @property
    def starts(self):
        return self._starts

    @property
    def ends(self):
        return self._ends

    @property
    def n_arcs(self):
        return len(self._starts)

    @property
    def total_measure(self):
        return float(np.sum(self._ends - self._starts))

    def __repr__(self):
        return "ArcUnion(<%d arcs, measure %.3g>)" % (self.n_arcs, self.total_measure)

    def __eq__(self, other):
        if not isinstance(other, ArcUnion):
            return NotImplemented
        return np.array_equal(self._starts, other._starts) and np.array_equal(
            self._ends, other._ends
        )

    def __hash__(self):
        return hash((self._starts.tobytes(), self._ends.tobytes()))

    @classmethod
    def full_circle(cls):
        return cls([(0.0, TWO_PI)])

    @classmethod
    def from_points(cls, angles):
        """Finite point set as degenerate arcs."""
        return cls([(a, a) for a in angles])

    def gaps(self):
        """Cyclic complementary intervals as (starts, lengths) arrays.

        Zero-length seam artifacts are dropped.  The empty set has the full
        circle as its single gap.
        """
        if self.n_arcs == 0:
            return np.array([0.0]), np.array([TWO_PI])
        starts = np.array(self._ends)
        lengths = np.append(
            self._starts[1:] - self._ends[:-1],
            self._starts[0] + TWO_PI - self._ends[-1],
        )
        keep = lengths > _GAP_EPS
        return starts[keep], lengths[keep]

    def to_json_obj(self):
        return {"arcs": [[float(s), float(e)] for s, e in zip(self._starts, self._ends)]}

    def to_json(self):
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json(cls, data):
        if isinstance(data, (str, bytes)):
            data = json.loads(data)
        return cls(data["arcs"])


@dataclass(frozen=True)
class CantorSpec:
    """Iterated gap-removal schedule.

    ``gap_lengths[n-1]`` is the length (radians) of each of the 2^(n-1) open
    gaps removed at level n; ``depth`` is the number of levels.
    """

    gap_lengths: tuple
    depth: int
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "gap_lengths", tuple(float(g) for g in self.gap_lengths))
        if self.depth != len(self.gap_lengths):
            raise ValueError(
                "depth %d does not match %d scheduled levels"
                % (self.depth, len(self.gap_lengths))
            )
        removed = sum(2.0 ** (n - 1) * g for n, g in enumerate(self.gap_lengths, start=1))
        if removed > TWO_PI:
            raise ValueError("schedule removes %.6f > 2*pi" % removed)


def _check_depth(name, depth):
    """Raise ValueError naming the depth unless it is an integer >= 1."""
    if isinstance(depth, bool) or not isinstance(depth, (int, np.integer)) or depth < 1:
        raise ValueError("%s depth must be an integer >= 1, got %r" % (name, depth))


def middle_thirds_spec(depth):
    """Classical one-third gap removal: level-n gaps of length 2*pi/3^n."""
    _check_depth("middle_thirds", depth)
    return CantorSpec(
        gap_lengths=tuple(TWO_PI / 3.0**n for n in range(1, depth + 1)),
        depth=depth,
        name="middle_thirds",
    )


def non_carleson_n2_spec(depth):
    """Gap schedule c * 2^-n / n^2 with c tuned to the depth.

    The constant makes the total removed length 2*pi*(1 - 2^-depth), so the
    depth-level approximation keeps measure 2*pi*2^-depth and the limit set
    has measure zero.  The complementary-interval sum of this family diverges
    like -sum 1/n, so deep approximations land on the divergent side of any
    fixed threshold.
    """
    _check_depth("non_carleson_n2", depth)
    weights = sum(1.0 / n**2 for n in range(1, depth + 1))
    c = 2.0 * TWO_PI * (1.0 - 2.0 ** (-depth)) / weights
    return CantorSpec(
        gap_lengths=tuple(c * 2.0 ** (-n) / n**2 for n in range(1, depth + 1)),
        depth=depth,
        name="non_carleson_n2",
    )


def cantor_spec_by_name(name, depth=None):
    """Resolve a named schedule, at its preset depth when `depth` is None;
    other schedules are built as CantorSpec."""
    if name == "middle_thirds":
        return middle_thirds_spec(12 if depth is None else depth)
    if name == "non_carleson_n2":
        return non_carleson_n2_spec(20 if depth is None else depth)
    raise ValueError("unknown cantor schedule %r" % (name,))


def cantor_build(spec):
    """Run the gap-removal recursion and return the depth-level arc union.

    Level n removes the open middle gap of the scheduled length from each of
    the current 2^(n-1) intervals of the fundamental interval [0, 2*pi].
    """
    starts = np.array([0.0])
    length = TWO_PI
    for level, gap in enumerate(spec.gap_lengths, start=1):
        if gap <= 0.0:
            raise ValueError("level %d gap must be positive, got %r" % (level, gap))
        if gap >= length:
            raise ValueError(
                "level %d gap %.3e exceeds available interval %.3e" % (level, gap, length)
            )
        starts = np.concatenate([starts, starts + (length + gap) / 2.0])
        length = (length - gap) / 2.0
    starts = np.sort(starts)
    return ArcUnion(np.column_stack([starts, starts + length]))


def distance_to_set(theta, E):
    """Chordal distance from angle(s) theta to the arc union E.

    Accepts a scalar or an array; exact from the nearest arc endpoint (or 0
    inside an arc).  Raises on the empty set.
    """
    if E.n_arcs == 0:
        raise ValueError("distance to the empty set is undefined")
    theta_arr = np.asarray(theta, dtype=float) % TWO_PI
    scalar = theta_arr.ndim == 0
    th = np.atleast_1d(theta_arr)
    s, e = E.starts, E.ends
    n = len(s)
    idx = np.searchsorted(s, th, side="right") - 1
    left_arc = idx % n
    inside = (idx >= 0) & (th <= e[np.maximum(idx, 0)])
    # angular gap to the arc ending at or before theta (cyclically)...
    gap_left = (th - e[left_arc]) % TWO_PI
    right_arc = (idx + 1) % n
    gap_right = (s[right_arc] - th) % TWO_PI
    delta = np.minimum(gap_left, gap_right)
    chord = 2.0 * np.sin(np.minimum(delta, math.pi) / 2.0)
    out = np.where(inside, 0.0, chord)
    return float(out[0]) if scalar else out


def tube_measure(E, t):
    """Lebesgue measure (radians) of the chordal t-neighborhood of E.

    Accepts a scale, giving a float, or an array of scales, giving an array
    of its shape; every scale must be > 0 (NaN raises).  The neighborhood
    dilates each arc by rho = 2*asin(t/2) on both sides.  Since the stored
    arcs are sorted and disjoint, the dilation of arc i adds its length
    e_i - s_i plus the part min(g_i, 2*rho) of the cyclic gap g_i after it
    that the two dilations reaching into that gap cover:

        |E_t| = sum_i (e_i - s_i) + sum_i min(g_i, 2*rho),

    capped at 2*pi.  This costs O(arcs) per scale with no sort or merge; the
    gaps and the total measure are taken once per call, so an array of
    scales gives the same floats as a call per scale.  The gap across the
    seam, from an arc ending at 2*pi to one starting at 0, is 0, so those
    two arcs count as one.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr > 0.0):
        raise ValueError("t must be positive")
    out = np.zeros(t_arr.shape)
    if E.n_arcs > 0:
        s, e = E.starts, E.ends
        gaps = np.append(s[1:] - e[:-1], s[0] + TWO_PI - e[-1])
        measure = E.total_measure
        for i, x in np.ndenumerate(t_arr):
            if x >= 2.0:
                out[i] = TWO_PI
            else:
                rho = 2.0 * math.asin(x / 2.0)  # the angular radius of a chord x < 2
                out[i] = min(measure + float(np.sum(np.minimum(gaps, 2.0 * rho))), TWO_PI)
    return float(out) if out.ndim == 0 else out


def covering_number(E, t):
    """Minimal number of closed arcs of angular length 2t covering E.

    Greedy left-to-right sweep starting at the first arc start, which is
    optimal for covering on the circle once the start is fixed on a point
    of the set; ties between equal-count covers are broken by that start.
    Within an arc the sweep lays covers end to end from the first uncovered
    point y, so the arc takes max(1, ceil((end - y) / 2t)) of them, counted
    in closed form; arcs already covered are skipped by binary search on
    the ends.  The cost is O(arcs reached * log n), whatever t is.
    """
    if E.n_arcs == 0:
        raise ValueError("covering the empty set is undefined")
    t = float(t)
    if not t > 0.0:
        raise ValueError("t must be positive")
    two_t = 2.0 * t
    if two_t >= TWO_PI:
        return 1
    s, e = E.starts, E.ends
    base = float(s[0])
    limit = base + TWO_PI
    count = 0
    covered = base  # greedy invariant: every set point below this is covered
    i = 0
    while i < len(s) and s[i] < limit:
        end_i = float(e[i])
        y = max(float(s[i]), covered)
        if y <= end_i and y < limit:
            k = max(1, math.ceil((end_i - y) / two_t))
            count += k
            covered = y + k * two_t
        i += 1
        if i < len(s) and e[i] <= covered:
            # skip every arc that ends within `covered` (the ends increase strictly)
            i = int(np.searchsorted(e, covered, side="right"))
    return count


@dataclass(frozen=True)
class CoveringProfile:
    """Sampled (t, N_E(t), |E_t|) triples over a decreasing-resolution grid."""

    samples: tuple = field(default_factory=tuple)

    def as_arrays(self):
        t = np.array([row[0] for row in self.samples])
        N = np.array([row[1] for row in self.samples])
        tube = np.array([row[2] for row in self.samples])
        return t, N, tube

    def box_dimension(self):
        """`box_dimension_estimate` over the sampled scales, from the stored counts."""
        t, N, _ = self.as_arrays()
        return _box_slope(t, N)


def covering_profile(E, t_values):
    t_sorted = sorted(float(t) for t in t_values)
    tubes = tube_measure(E, np.array(t_sorted)).tolist()
    rows = [(t, covering_number(E, t), tube) for t, tube in zip(t_sorted, tubes)]
    return CoveringProfile(samples=tuple(rows))


def log_t_grid(t_min, t_max, count):
    """Logarithmically spaced scales, increasing."""
    if not (0.0 < t_min < t_max):
        raise ValueError("need 0 < t_min < t_max")
    return np.geomspace(t_min, t_max, int(count))


def box_dimension_estimate(E, t_range):
    """Least-squares slope of log N_E(t) against log(1/t).

    The range should span at least two decades that the set's construction
    depth actually resolves; shorter or single-point ranges are rejected.
    """
    t = np.asarray(sorted(float(x) for x in t_range))
    return _box_slope(t, (covering_number(E, x) for x in t))


def _box_slope(t, counts):
    """Least-squares slope of log counts against log(1/t), t increasing; `counts`
    is read only after the scale check, so it may be a generator."""
    if len(t) < 4 or t[-1] / t[0] < 100.0:
        raise ValueError("t_range is degenerate: need >= 4 scales over >= 2 decades")
    N = np.array(list(counts), dtype=float)
    return float(np.polyfit(np.log(1.0 / t), np.log(N), 1)[0])


def carleson_test(E, quadrature_size, divergence_threshold=-10.0, strict=False):
    """Interval-sum and log-distance-integral evidence for the Carleson dichotomy.

    Returns a dict with

    - ``interval_sum``: sum over complementary intervals of |I| log(|I|/2pi).
      The normalized length inside the log keeps the sum aligned with the
      integral of log d(., E), whose gap-wise exact value differs from this
      sum by a bounded multiple of the total gap length; any such affine
      shift is immaterial to the convergent/divergent dichotomy.
    - ``interval_sum_radian``: the same sum with log |I| in plain radians.
    - ``log_integral``: quadrature of the integral of log d(zeta, E) over the
      complement of E (unnormalized measure; grid points inside E are
      excluded, matching the ideal measure-zero target).
    - ``verdict``: "carleson" when dyadically binned gap contributions decay
      geometrically along the tail (fitted ratio <= 0.9), otherwise
      "non_carleson_evidence" when the interval sum lies below the
      divergence threshold, otherwise "carleson" (no divergence evidence).
      Shallow constructions may not yet reveal a divergent tail; deepen the
      generator to discriminate.
    - ``resolved``: whether the quadrature step is below a quarter of the
      smallest gap.  With ``strict=True`` an unresolved grid raises instead;
      the interval fields never depend on the grid, only ``log_integral``
      degrades.
    - ``positive_measure``: the current approximation has positive measure
      (every finite-depth generator does; the verdict refers to the ideal
      limit set).
    """
    G = int(quadrature_size)
    if G < 8:
        raise ValueError("quadrature_size too small")
    _, gap_lengths = E.gaps()
    n_gaps = len(gap_lengths)
    contrib = gap_lengths * np.log(gap_lengths / TWO_PI)
    interval_sum = float(np.sum(contrib))
    interval_sum_radian = float(np.sum(gap_lengths * np.log(gap_lengths)))
    min_gap = float(gap_lengths.min()) if n_gaps else 0.0
    resolved = n_gaps > 0 and (TWO_PI / G) <= min_gap / 4.0
    if strict and not resolved:
        raise ValueError(
            "quadrature_size %d too small relative to smallest gap %.3e" % (G, min_gap)
        )
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
    return {
        "interval_sum": float(interval_sum),
        "interval_sum_radian": float(interval_sum_radian),
        "log_integral": log_integral,
        "verdict": verdict,
        "resolved": resolved,
        "positive_measure": E.total_measure > _GAP_EPS,
        "n_gaps": n_gaps,
        "min_gap": min_gap,
        "total_measure": E.total_measure,
        "divergence_threshold": float(divergence_threshold),
    }


def lambda_divergence_test(E, gamma, t_floor, n_quad=400):
    """Evidence for divergence of the tube-measure integral against dLambda.

    Evaluates I(s) = integral over [s, 2] of |E_t| * gamma * t^(-gamma-1) dt
    by log-spaced trapezoid quadrature, for a schedule of floors shrinking to
    ``t_floor`` (factors of 10).  The verdict is divergent when the last
    per-decade increment still exceeds LAMBDA_INCREMENT_TOL: a convergent
    integral's tail increments vanish, a divergent one keeps accumulating.
    Results describe the current depth approximation, so the floor should
    stay above the finest construction scale.

    The fixed LAMBDA_INCREMENT_TOL per decade is known to miscall: on middle
    thirds at depth 12 it calls gamma = 0.2 and 0.3 divergent, yet the
    ideal integral converges for gamma < 1 - dim ~ 0.369, and the measured
    increments there fall geometrically.
    """
    gamma = float(gamma)
    if not 0.0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    t_floor = float(t_floor)
    if not (0.0 < t_floor < 2.0):
        raise ValueError("t_floor must lie in (0, 2)")

    floors = []
    s = t_floor
    for _ in range(4):
        floors.append(s)
        s *= 10.0
        if s >= 2.0:
            break
    floors = sorted(set(floors), reverse=True)  # large floors first
    t = np.array([np.geomspace(s_lo, 2.0, n_quad) for s_lo in floors])
    # log-spaced trapezoid per floor: dt = t dlog(t)
    integrand = tube_measure(E, t) * gamma * t ** (-gamma - 1.0) * t
    schedule = [
        (s_lo, float(np.trapezoid(row, np.log(t_row))))
        for s_lo, row, t_row in zip(floors, integrand, t)
    ]
    estimate = schedule[-1][1]
    if len(schedule) >= 2:
        last_increment = schedule[-1][1] - schedule[-2][1]
        decades = math.log10(schedule[-2][0] / schedule[-1][0])
        per_decade = last_increment / max(decades, 1e-12)
    else:
        per_decade = 0.0
    return {
        "integral_estimate": estimate,
        "divergent": bool(per_decade > LAMBDA_INCREMENT_TOL),
        "schedule": schedule,
        "increment_per_decade": per_decade,
        "increment_tol": LAMBDA_INCREMENT_TOL,
    }
