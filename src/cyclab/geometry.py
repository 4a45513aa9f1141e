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


def _cyclic_gaps(s, e):
    """The n cyclic gaps of n >= 1 sorted disjoint arcs [s_i, e_i] in one
    array: s_(i+1) - e_i, and last s_0 + 2*pi - e_(n-1), across the seam."""
    gaps = np.empty(len(s))
    np.subtract(s[1:], e[:-1], out=gaps[:-1])
    gaps[-1] = s[0] + TWO_PI - e[-1]
    return gaps


def _merge_arcs(s, e):
    """Union of the arcs [s, e] (0 <= s <= 2*pi, e >= s) as sorted disjoint (starts, ends).

    Arcs past 2*pi are split at the seam; after a (start, end) sort, a piece
    starting beyond the running maximum of the ends before it opens an arc.

    Arcs already sorted and strictly disjoint (each start above the end
    before it) are checked in one O(n) pass and come back as they are, with
    no sort, gathers or merge temporaries: the stable sort's permutation
    would be the identity, and the merge would keep every arc.  Only the
    last end can pass 2*pi there.  When it does and its seam piece
    [0, e - 2*pi] lies inside a first arc starting at 0, the merge swallows
    that piece and clamps the end to 2*pi, and so does this check, in
    place.  Any other input takes the merge, so s and e must be the
    caller's to give.
    """
    if len(s) and np.all(s[1:] > e[:-1]):
        last = e[-1]
        if last <= TWO_PI or (s[0] == 0.0 and last - TWO_PI <= e[0]):
            e[-1] = min(last, TWO_PI)
            return s, e
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
    0/2*pi seam, see module docstring).  Point arcs are allowed.  Arcs that
    arrive sorted and strictly disjoint, as `cantor_build` hands them over,
    cost O(n) and no sort (see `_merge_arcs`); the result is the same
    either way.  The total measure, `np.sum(ends - starts)`, is summed on
    its first read and kept.
    """

    __slots__ = ("_starts", "_ends", "_measure")

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
            # the ends s + length overwrite the lengths, which nothing reads after
            starts, ends = _merge_arcs(s, np.add(s, length, out=length))
        starts.setflags(write=False)
        ends.setflags(write=False)
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_ends", ends)
        object.__setattr__(self, "_measure", None)

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
        """Sum of the arc lengths, np.sum(ends - starts), taken once per set."""
        if self._measure is None:
            object.__setattr__(self, "_measure", float(np.sum(self._ends - self._starts)))
        return self._measure

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
        lengths = _cyclic_gaps(self._starts, self._ends)
        keep = lengths > _GAP_EPS
        return self._ends[keep], lengths[keep]

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
    gaps removed at level n.  Each gap must lie strictly inside the interval
    it is cut from (NaN fails), so a constructed spec always builds.
    """

    gap_lengths: tuple
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "gap_lengths", tuple(float(g) for g in self.gap_lengths))
        length = TWO_PI
        for level, gap in enumerate(self.gap_lengths, start=1):
            if not 0.0 < gap < length:
                raise ValueError(
                    "level %d gap %r must lie in (0, %.3e), the interval it is cut from"
                    % (level, gap, length)
                )
            length = (length - gap) / 2.0

    @property
    def depth(self):
        """The number of levels."""
        return len(self.gap_lengths)


def _check_depth(name, depth):
    """Raise ValueError naming the depth unless it is an integer >= 1."""
    if isinstance(depth, bool) or not isinstance(depth, (int, np.integer)) or depth < 1:
        raise ValueError("%s depth must be an integer >= 1, got %r" % (name, depth))


def middle_thirds_spec(depth):
    """Classical one-third gap removal: level-n gaps of length 2*pi/3^n."""
    _check_depth("middle_thirds", depth)
    return CantorSpec(
        gap_lengths=tuple(TWO_PI / 3.0**n for n in range(1, depth + 1)),
        name="middle_thirds",
    )


def non_carleson_n2_spec(depth):
    """Gap schedule c * 2^-n / n^2 with c tuned to the depth.

    The constant makes the total removed length 2*pi*(1 - 2^-depth), so the
    depth-level set keeps measure 2*pi*2^-depth.  As c moves with the depth,
    the depths are not nested (E_13's arc endpoints lie up to 7.3e-3 from
    E_12), so there is no limit set.  The complementary-interval sum diverges
    like -sum 1/n, so deep levels land on the divergent side of any threshold.
    """
    _check_depth("non_carleson_n2", depth)
    weights = sum(1.0 / n**2 for n in range(1, depth + 1))
    c = 2.0 * TWO_PI * (1.0 - 2.0 ** (-depth)) / weights
    return CantorSpec(
        gap_lengths=tuple(c * 2.0 ** (-n) / n**2 for n in range(1, depth + 1)),
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


def _steps(spec):
    """The offset of each level's right children from their parent, and the
    length of the depth-level intervals: the gap-removal recursion on the
    fundamental interval [0, 2*pi], one float operation per quantity."""
    length = TWO_PI
    steps = []
    for gap in spec.gap_lengths:
        steps.append((length + gap) / 2.0)
        length = (length - gap) / 2.0
    return steps, length


def cantor_build(spec):
    """Run the gap-removal recursion and return the depth-level arc union.

    Level n removes the open middle gap of the scheduled length from each of
    the current 2^(n-1) intervals of the fundamental interval [0, 2*pi].
    The spec has checked every level, so the build trusts it.

    The starts live in one array of 2^depth, at the index of each
    interval's leftmost leaf: an interval's two children sit side by side,
    the left one keeping the parent's start and index, so the starts come
    out sorted with no per-level concatenation and no sort.  Each start is
    the same sum, level by level, as the recursion's.  The arcs go to
    ArcUnion as that one (2^depth, 2) array, which it checks in O(n) and
    does not sort.
    """
    steps, length = _steps(spec)
    arcs = np.empty((2 ** len(steps), 2))
    arcs[0, 0] = 0.0
    _grow(arcs[:, 0], steps)
    np.add(arcs[:, 0], length, out=arcs[:, 1])
    return ArcUnion(arcs)


def _grow(starts, steps):
    """Fill `starts` from starts[0] by the gap-removal recursion over `steps`,
    each start at the index of its leftmost leaf."""
    for level, step in enumerate(steps):
        # the 2^level intervals sit every `stride` entries; each one's right
        # child goes half a stride after it
        stride = len(starts) >> level
        np.add(starts[::stride], step, out=starts[stride // 2 :: stride])
    return starts


def _chord_off(th, inside, left_end, right_start):
    """The chord from th to the nearer of left_end and right_start, the
    arc endpoints around it, measured cyclically; 0 where inside.

    With th in [0, 2*pi], th - left_end lies in [-2*pi, 2*pi] and
    right_start - th in [-2*pi, 2*pi).  There `% TWO_PI` is fmod, which is
    exact, then 2*pi added to a negative value, and +-2*pi mapped to +0.0;
    the masked adds below give those floats in place, bit for bit.
    """
    gap_left = np.subtract(th, left_end)
    np.subtract(gap_left, TWO_PI, out=gap_left, where=gap_left >= TWO_PI)
    np.add(gap_left, TWO_PI, out=gap_left, where=gap_left < 0.0)
    gap_right = np.subtract(right_start, th)
    np.add(gap_right, TWO_PI, out=gap_right, where=gap_right < 0.0)
    chord = np.minimum(gap_left, gap_right, out=gap_left)
    np.minimum(chord, math.pi, out=chord)
    np.divide(chord, 2.0, out=chord)
    np.sin(chord, out=chord)
    np.multiply(chord, 2.0, out=chord)
    np.copyto(chord, 0.0, where=inside)
    return chord


def _descent(spec):
    """`_steps(spec)` where the descent of `_spec_distance` is exact, else None.

    Every start and end `cantor_build` forms is a float sum of at most
    depth + 1 terms below 8, so rounding moves it by less than
    (depth + 1) * 2^-51, and the step/length recursion moves the exact
    sums by less than depth * 2^-50.  Where every gap and the leaf length
    exceed (depth + 2) * 2^-49, more than all of that, the built arcs stay
    sorted and strictly disjoint, and the last end passes 2*pi by less
    than the first arc's length; ArcUnion then keeps them as built, with
    that end clamped to 2*pi.  Past the margin rounding can make arcs
    touch, and ArcUnion merges them.
    """
    steps, length = _steps(spec)
    if min((*spec.gap_lengths, length)) > (spec.depth + 2) * 2.0**-49:
        return steps, length
    return None


def _spec_distance(th, steps, length):
    """`distance_to_set(th, cantor_build(spec))` for th in [0, 2*pi], bit for
    bit, from the spec's `_descent`, with no set built.

    Each angle descends the gap tree level by level: it goes to the right
    child where it lies at or past that child's start, the sum
    `cantor_build` forms there, so it lands on the leaf that the arc
    path's binary search finds.  On the way it keeps the start of the next
    leaf, the right child at its deepest left turn, or the first leaf's
    0.0 across the seam.  A leaf's end is start + length, the last one
    clamped to 2*pi as ArcUnion clamps it.  The descent runs in three float
    buffers and one mask, whatever the depth.
    """
    start = np.zeros(len(th))
    nxt = np.zeros(len(th))
    cand = np.empty(len(th))
    right = np.empty(len(th), dtype=bool)
    for step in steps:
        np.add(start, step, out=cand)
        np.greater_equal(th, cand, out=right)
        np.copyto(start, cand, where=right)
        # cand becomes the next start: the right child's where th went left
        np.copyto(cand, nxt, where=right)
        nxt, cand = cand, nxt
    end = np.add(start, length, out=cand)
    np.minimum(end, TWO_PI, out=end)
    return _chord_off(th, th <= end, end, nxt)


def distance_to_set(theta, E):
    """Chordal distance from angle(s) theta to the arc union E, or to the
    depth-level set of the CantorSpec E.

    Accepts a scalar or an array; exact from the nearest arc endpoint (or 0
    inside an arc).  Raises on the empty set.  A spec gives, bit for bit,
    its distance to `cantor_build(E)`, by a descent of its gap tree that
    forms none of the 2^depth arcs (`_spec_distance`).  Only a spec with a
    gap or leaf of at most (depth + 2) * 2^-49, where rounding can make
    built arcs touch and merge, is built (`_descent`); the presets are far
    from that.
    """
    if isinstance(E, CantorSpec):
        descent = _descent(E)
        if descent is None:
            return distance_to_set(theta, cantor_build(E))
    elif E.n_arcs == 0:
        raise ValueError("distance to the empty set is undefined")
    theta_arr = np.asarray(theta, dtype=float) % TWO_PI
    scalar = theta_arr.ndim == 0
    th = np.atleast_1d(theta_arr)
    if isinstance(E, CantorSpec):
        out = _spec_distance(th, *descent)
    else:
        s, e = E.starts, E.ends
        n = len(s)
        idx = np.searchsorted(s, th, side="right") - 1
        inside = (idx >= 0) & (th <= e[np.maximum(idx, 0)])
        # the arc ending at or before theta and the one after it, cyclically
        out = _chord_off(th, inside, e[idx % n], s[(idx + 1) % n])
    return float(out[0]) if scalar else out


def _levels(E):
    """The gaps of E, an arc union or a spec, as lengths with
    multiplicities, and floats whose exact sum is the measure of E.

    Level n of a spec removes 2^(n-1) gaps of length g_n.  Its depth-level
    set has 2^depth arcs of length l_depth, with l_n = (l_(n-1) - g_n) / 2
    from l_0 = 2*pi, so it measures 2^depth * l_depth
    = 2*pi - sum_n 2^(n-1) * g_n exactly.  Every term of that sum is a
    float, so `math.fsum` of them is the exact measure rounded once.  Its
    2^depth - 1 gaps are all proper: the one across the seam, from the
    arc ending at 2*pi to the one starting at 0, is 0.  An arc union gives
    its cyclic gaps once each (`_cyclic_gaps`), and its measure
    `E.total_measure`; the empty set has the circle as its one gap.
    """
    if isinstance(E, CantorSpec):
        gaps = np.array(E.gap_lengths)
        mult = 2.0 ** np.arange(E.depth)
        return gaps, mult, [TWO_PI, *(-mult * gaps).tolist()]
    if E.n_arcs == 0:
        return np.array([TWO_PI]), np.ones(1), [0.0]
    return _cyclic_gaps(E.starts, E.ends), np.ones(E.n_arcs), [E.total_measure]


def total_measure(E):
    """The measure of the arc union E, `E.total_measure`, or of the
    depth-level set of the spec E: 2*pi - sum_n 2^(n-1) * g_n, exact and
    rounded once (`_levels`), with no set built."""
    return math.fsum(_levels(E)[2])


def arc_count(E):
    """The number of arcs of E, 2^depth for a spec E."""
    return 2**E.depth if isinstance(E, CantorSpec) else E.n_arcs


def tube_measure(E, t):
    """Lebesgue measure (radians) of the chordal t-neighborhood of E, an arc
    union or a spec (whose depth-level set is measured, with no set built).

    Accepts a scale, giving a float, or an array of scales, giving an array
    of its shape; every scale must be > 0 (NaN raises).  The neighborhood
    dilates each arc by rho = 2*asin(t/2) on both sides.  Each gap g has an
    arc on either side, whose dilations cover min(g, 2*rho) of it, so

        |E_t| = |E| + sum_gaps m * min(g, 2*rho),

    capped at 2*pi, over the gaps of `_levels` with their multiplicities m.
    Each term is a float, and the sum is taken exactly and rounded once,
    so an array of scales gives the same floats as a call per scale.  The
    gap across the seam, from an arc ending at 2*pi to one starting at 0,
    is 0, so those two arcs count as one.
    """
    t_arr = _scales(t)
    out = _tubes(t_arr, _levels(E)) if arc_count(E) else np.zeros(t_arr.shape)
    return float(out) if out.ndim == 0 else out


def _scales(t):
    """The scales t as a float array, every one > 0."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr > 0.0):
        raise ValueError("t must be positive")
    return t_arr


def _tubes(t_arr, levels):
    """The tube measures of a nonempty set at the scales t_arr from its
    `_levels`: 2*pi from t = 2 on."""
    gaps, mult, measure = levels
    # per scale, the parts m * min(g, 2 rho) of the gaps, then the measure's
    terms = np.concatenate([gaps, measure])
    covered = terms[: len(gaps)]
    out = np.empty(t_arr.shape)
    for i, t in np.ndenumerate(t_arr):
        if t >= 2.0:
            out[i] = TWO_PI
            continue
        np.minimum(gaps, 2.0 * (2.0 * math.asin(t / 2.0)), out=covered)
        np.multiply(covered, mult, out=covered)  # exact: m is a power of 2
        out[i] = min(_fsum(terms), TWO_PI)
    return out


def _fsum(x):
    """`math.fsum` of a float array, the exact sum rounded once.  It reads
    the array through a memoryview, which hands it Python floats: numpy
    scalars took twice as long, and five times under tracemalloc."""
    return math.fsum(memoryview(x))


# leaves per block when the cover sweep reads a spec's arcs.  At 2^14 an
# array of a block is 128 KiB, and numpy's per-call cost is small beside
# its work: over the depth-20 preset's 2^20 arcs, blocks of 2^12 took 1.6
# times as long
_BLOCK_LEVELS = 14


def _spec_blocks(steps, length):
    """The arcs of `cantor_build(spec)`, made block by block as they are
    read, from the `_descent(spec)` of a spec that it accepts: (starts,
    ends) of aligned blocks of 2^_BLOCK_LEVELS leaves (one block for a
    shallower spec), in two buffers that every block reuses.

    ArcUnion keeps such a build's arcs as they are, with each end
    start + ((start + length) - start), its constructor's arithmetic, and
    the last end clamped to 2*pi; so does this.  The block roots are the
    starts of the intervals _BLOCK_LEVELS levels above the leaves, and
    each block grows from its root by `cantor_build`'s recursion, so every
    start is the same sum.
    """
    split = max(len(steps) - _BLOCK_LEVELS, 0)
    roots = _grow(np.zeros(2**split), steps[:split])
    starts = np.empty(2 ** (len(steps) - split))
    ends = np.empty_like(starts)
    for k, root in enumerate(roots):
        starts[0] = root
        _grow(starts, steps[split:])
        np.add(starts, length, out=ends)
        np.subtract(ends, starts, out=ends)
        np.add(starts, ends, out=ends)
        if k == len(roots) - 1:
            ends[-1] = min(ends[-1], TWO_PI)
        yield starts, ends


_FIXED_ONE = 1 << 1074  # 2**-1074 is the least positive float


def _fixed(x):
    """The float x as an exact integer multiple of 2**-1074."""
    num, den = float(x).as_integer_ratio()
    return num << (1075 - den.bit_length())


class _Sweep:
    """The greedy cover of `covering_number` at one scale, fed the arcs
    block by block; `count` holds the number of covers once every block is
    fed."""

    def __init__(self, t):
        t = float(t)
        if not t > 0.0:
            raise ValueError("t must be positive")
        self._two_t = 2.0 * t
        self.count = 1 if self._two_t >= TWO_PI else 0
        self._done = self.count == 1
        self._next = 0  # the index of the first arc not yet passed

    def feed(self, lo, starts, ends):
        """Sweep the arcs lo, lo + 1, ... given by `starts` and `ends`."""
        if self._done:
            return
        if lo == 0:
            base = float(starts[0])
            self._limit = base + TWO_PI
            self._turn_end, self._width = _fixed(self._limit), _fixed(self._two_t)
            # greedy invariant: every set point below this is covered
            self._covered = _fixed(base)
        covered, width = self._covered, self._width
        near = covered / _FIXED_ONE  # the float nearest `covered`
        j = self._next - lo
        while j < len(starts):
            # an end below `near` lies within `covered`, one above it past
            end = ends[j]
            if j + lo > 0 and (end < near or end == near and _fixed(end) <= covered):
                # skip every arc that ends within `covered` (the ends increase
                # strictly); only an end equal to `near` is compared exactly
                j = max(j, int(ends.searchsorted(near)))
                if j < len(starts) and ends[j] == near and _fixed(near) <= covered:
                    j += 1
                continue
            if not starts[j] < self._limit:
                self._done = True
                break
            end_j = _fixed(end)
            y = max(_fixed(starts[j]), covered)
            if y <= end_j and y < self._turn_end:
                k = max(1, -((y - end_j) // width))
                self.count += k
                covered = y + k * width
                near = covered / _FIXED_ONE
            j += 1
        self._covered = covered
        self._next = lo + j


def _covers(E, t_values):
    """The greedy cover count of E at each scale, from one pass over its
    arcs: an arc union's arrays, or a spec's arcs made block by block
    (`_spec_blocks`).  A spec that `_descent` refuses is built."""
    if arc_count(E) == 0 and len(t_values):
        raise ValueError("covering the empty set is undefined")
    if isinstance(E, CantorSpec):
        descent = _descent(E)
        if descent is None:
            return _covers(cantor_build(E), t_values)
        blocks = _spec_blocks(*descent)
    else:
        blocks = [(E.starts, E.ends)]
    sweeps = [_Sweep(t) for t in t_values]
    lo = 0
    for starts, ends in blocks:
        for sweep in sweeps:
            sweep.feed(lo, starts, ends)
        lo += len(starts)
    return [sweep.count for sweep in sweeps]


def covering_number(E, t):
    """Minimal number of closed arcs of angular length 2t covering E, an arc
    union or a spec (whose depth-level set is covered).

    Greedy left-to-right sweep starting at the first arc start, which is
    optimal for covering on the circle once the start is fixed on a point
    of the set; ties between equal-count covers are broken by that start.
    Within an arc the sweep lays covers end to end from the first uncovered
    point y, so the arc takes max(1, ceil((end - y) / 2t)) of them, counted
    in closed form; arcs already covered are skipped by binary search on
    the ends of the block of arcs at hand.  A spec's arcs come in blocks
    (`_covers`), made block by block with no set built, and the cost is
    O(arcs reached * log n) beside the pass over the blocks, whatever t is.
    The sweep is exact on the float inputs: it counts in integer multiples
    of 2**-1074, where every float is an integer, so a cover end that
    rounds onto a set point cannot cover it.
    """
    return _covers(E, [t])[0]


@dataclass(frozen=True)
class CoveringProfile:
    """Sampled (t, N_E(t), |E_t|) triples over a decreasing-resolution grid,
    and the measure |E| of the set."""

    samples: tuple = field(default_factory=tuple)
    total_measure: float = None

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
    """`covering_number` and `tube_measure` at each scale, in increasing t,
    and `total_measure`, for E an arc union or a spec: the counts from one
    pass over the arcs (`_covers`), the tubes and the measure from the
    gaps (`_levels`)."""
    t_sorted = _scales(sorted(float(t) for t in t_values))
    counts = _covers(E, t_sorted)
    levels = _levels(E)
    tubes = _tubes(t_sorted, levels).tolist()
    rows = tuple(zip(t_sorted.tolist(), counts, tubes))
    return CoveringProfile(samples=rows, total_measure=math.fsum(levels[2]))


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

    def counts():  # one pass for every scale, run after the scale check
        yield from _covers(E, t)

    return _box_slope(t, counts())


def _box_slope(t, counts):
    """Least-squares slope of log counts against log(1/t), t increasing; `counts`
    is read only after the scale check, so it may be a generator."""
    if len(t) < 4 or t[-1] / t[0] < 100.0:
        raise ValueError("t_range is degenerate: need >= 4 scales over >= 2 decades")
    N = np.array(list(counts), dtype=float)
    return float(np.polyfit(np.log(1.0 / t), np.log(N), 1)[0])


def carleson_test(E, quadrature_size, divergence_threshold=-10.0, strict=False):
    """Interval-sum and log-distance-integral evidence for the Carleson dichotomy.

    E is an arc union or a spec, whose depth-level set is tested with no
    set built.  Returns a dict with

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

    The interval fields read the gaps over 1e-14 of `_levels`, each with
    its multiplicity m: ``n_gaps`` is the sum of the m, ``min_gap`` the
    least gap, the two sums are `math.fsum` over the terms m * g log(g/2pi)
    and m * g log(g), and the dyadic bins are one bincount of the first
    terms' magnitudes.  A spec's come from its d levels, at O(d) cost, and
    only ``log_integral`` samples its distance (`distance_to_set`).
    """
    G = int(quadrature_size)
    if G < 8:
        raise ValueError("quadrature_size too small")
    gaps, mult, measure = _levels(E)
    measure = math.fsum(measure)
    keep = gaps > _GAP_EPS
    gaps, mult = gaps[keep], mult[keep]
    n_gaps = int(mult.sum())
    min_gap = float(gaps.min()) if n_gaps else 0.0
    resolved = n_gaps > 0 and (TWO_PI / G) <= min_gap / 4.0
    if strict and not resolved:
        raise ValueError(
            "quadrature_size %d too small relative to smallest gap %.3e" % (G, min_gap)
        )
    theta = TWO_PI * np.arange(G) / G
    d = distance_to_set(theta, E) if arc_count(E) else np.full(G, np.nan)
    off = d > 0.0
    log_integral = float(np.sum(np.log(d[off])) * TWO_PI / G)

    # the terms m g log(g / 2pi) in one buffer
    contrib = np.divide(gaps, TWO_PI)
    np.log(contrib, out=contrib)
    np.multiply(gaps, contrib, out=contrib)
    np.multiply(contrib, mult, out=contrib)
    interval_sum = _fsum(contrib)
    interval_sum_radian = _fsum(np.log(gaps) * gaps * mult)
    # floor(log2(2pi / g)) in the gaps' buffer; g <= 2pi makes it >= 0 (a
    # gap of 2pi, past a single point, may round above it, and adds its
    # term, 0 or a rounding, to bin 0), so the levels index the bins
    levels = np.divide(TWO_PI, gaps, out=gaps)
    np.maximum(levels, 1.0, out=levels)
    np.log2(levels, out=levels)
    levels = np.floor(levels, out=levels).astype(int)
    bins = np.bincount(levels, weights=np.abs(contrib, out=contrib))
    bins = [float(v) for v in bins if v > 0.0]
    geometric_tail = False
    if len(bins) >= 4:
        start = (len(bins) + 1) // 2 - 1
        span = len(bins) - 1 - start
        if span >= 1 and bins[start] > 0:
            fitted_ratio = (bins[-1] / bins[start]) ** (1.0 / span)
            geometric_tail = fitted_ratio <= 0.9
    verdict = "carleson"
    if not geometric_tail and interval_sum < divergence_threshold:
        verdict = "non_carleson_evidence"
    return {
        "interval_sum": interval_sum,
        "interval_sum_radian": interval_sum_radian,
        "log_integral": log_integral,
        "verdict": verdict,
        "resolved": resolved,
        "positive_measure": measure > _GAP_EPS,
        "n_gaps": n_gaps,
        "min_gap": min_gap,
        "total_measure": measure,
        "divergence_threshold": float(divergence_threshold),
    }


def _gap_integral(g, gamma):
    """The integral of d^(-gamma) over one gap of length g, for gamma < 1.

    d is the chord to the nearer endpoint, 2 sin(x/2) at angle x from it, so
    the gap gives 2 * int_0^(g/2) (2 sin(x/2))^(-gamma) dx
    = 2^(1-gamma) B(sin^2(g/4); (1-gamma)/2, 1/2), with B the incomplete
    beta function.
    """
    from scipy.special import beta, betainc

    a = (1.0 - gamma) / 2.0
    return 2.0 ** (1.0 - gamma) * float(betainc(a, 0.5, math.sin(g / 4.0) ** 2) * beta(a, 0.5))


def lambda_divergence_test(spec, gamma):
    """Divergence of the integral of d(., E)^(-gamma) for a gap-removal schedule.

    For f = exp(-d(., E)^(-gamma)) this is the integral of -log|f|.  By the
    tube identity, with Lambda(t) = t^(-gamma),

        int_(T \\ E) d^(-gamma) = int_0^2 (|E_t| - |E|) |dLambda(t)| + (2*pi - |E|) 2^(-gamma),

    so it is the Lambda-integral of the tube measure.  It is summed in closed
    form over the gaps, with no set built: level n of ``spec`` removes
    2^(n-1) gaps of length g_n, and contributes
    L_n = 2^(n-1) * 2^(1-gamma) B(sin^2(g_n/4); (1-gamma)/2, 1/2) for
    gamma < 1 (B the incomplete beta function) and infinity otherwise.

    Returns ``integral`` = sum of L_n, exact over the complement of the
    depth-level set and the partial sum for the limit set; ``level_sums``,
    the L_n; ``last_ratio`` = L_depth / L_(depth-1) (NaN when gamma >= 1,
    where every level is infinite); and ``divergent`` = gamma >= 1 or
    last_ratio >= 1: the limit set's sum diverges when the level sums stop
    shrinking.  On middle thirds the ratio is 2 * 3^(-(1-gamma)), times a
    chordal correction of order g^2, so the switch sits at
    gamma = 1 - log 2 / log 3.  At that gamma the depth-12 ratio is
    1 - 1.0e-12 and the verdict reads convergent, although the limit sum
    diverges; ``last_ratio`` shows how close the call is.
    """
    gamma = float(gamma)
    if not 0.0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    if spec.depth < 2:
        raise ValueError("the level ratio needs a schedule of depth >= 2")
    gaps, mult, _ = _levels(spec)
    level_sums = [
        m * (_gap_integral(g, gamma) if gamma < 1.0 else math.inf)
        for g, m in zip(gaps.tolist(), mult.tolist())
    ]
    last_ratio = level_sums[-1] / level_sums[-2]
    return {
        "integral": math.fsum(level_sums),
        "level_sums": level_sums,
        "last_ratio": last_ratio,
        "divergent": gamma >= 1.0 or last_ratio >= 1.0,
    }
