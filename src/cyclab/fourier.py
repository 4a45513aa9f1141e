"""Two-sided Fourier coefficient sequences on the circle and their weighted norms.

A sequence with finite support represents the trigonometric polynomial
``S(zeta) = sum_n c_n zeta^n`` on the unit circle.  The weighted norm of
exponent ``p`` and weight ``beta`` is

    ||S||^p = sum_n |c_n|^p (1 + |n|)^(p*beta)

which is an exact finite sum over the stored support.  Coefficients follow
the normalized measure convention: the n-th coefficient of a function f is
the mean of f(zeta) zeta^(-n) over the circle.  Geometric integrals elsewhere
in this package use the unnormalized arc-length measure; each routine states
which convention it follows.

A :class:`FourierSeries` is one dense slab: ``arr[i]`` is the amplitude at
frequency ``lo + i``, and other modules read coefficients only through
``lo``, ``arr`` and ``dense``.  Amplitudes at or below ``DROP_REL_TOL`` times
the peak modulus are stored as 0 and leave the support.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

# Relative drop tolerance for stored amplitudes.  Keeps supports finite after
# grid transforms without touching anything at the 1e-10 assertion level.
DROP_REL_TOL = 1e-15


@dataclass(frozen=True)
class SpaceIndex:
    """Exponent pair (p, beta) selecting a weighted coefficient space.

    ``p`` is the summability exponent, in [1, inf); ``beta >= 0`` is the
    weight exponent, finite.  The conjugate exponent ``q = p/(p-1)`` (infinite at
    p = 1) is derived.  Negative weights never enter a SpaceIndex; dual-side
    norm evaluations pass an explicit negative beta to :func:`norm_ap_beta`
    instead.
    """

    p: float
    beta: float = 0.0

    def __post_init__(self):
        if not (1.0 <= self.p < math.inf):
            raise ValueError("exponent p must be finite and >= 1, got %r" % (self.p,))
        if not (0.0 <= self.beta < math.inf):
            raise ValueError("weight beta must be finite and >= 0, got %r" % (self.beta,))

    @property
    def q(self):
        """Conjugate exponent p/(p-1); math.inf when p == 1."""
        if self.p == 1.0:
            return math.inf
        return self.p / (self.p - 1.0)


@dataclass(frozen=True)
class PowerLogSequence:
    """Witness amplitude profile u_n = (1+|n|)^(-a) * log(2+|n|)^(-b)."""

    a: float
    b: float

    def amplitude(self, n):
        n = abs(n)
        return (1.0 + n) ** (-self.a) * math.log(2.0 + n) ** (-self.b)


class FourierSeries:
    """Finitely supported map from integer frequency to complex amplitude.

    Immutable.  Stored as a dense slab ``arr`` from frequency ``lo``, trimmed
    so that both ends are nonzero (the zero series is empty, at ``lo = 0``);
    memory grows with the frequency span.  On construction, amplitudes whose
    modulus does not exceed ``drop_tol`` times the largest become 0 and leave
    the support, so grid-transform noise stays out.
    """

    __slots__ = ("_lo", "_arr")

    def __init__(self, coeffs=None, drop_tol=DROP_REL_TOL):
        items = dict(coeffs) if coeffs else {0: 0.0}
        ns = np.array([int(n) for n in items], dtype=np.int64)
        arr = np.zeros(ns.max() - ns.min() + 1, dtype=complex)
        arr[ns - ns.min()] = [complex(c) for c in items.values()]
        self._store(int(ns.min()), arr, drop_tol)

    def _store(self, lo, arr, drop_tol):
        """Set the slab from (lo, arr) after the drop rule and end trimming."""
        # hypot rounds as Python's abs(complex) does; np.abs may not
        mod = np.hypot(arr.real, arr.imag)
        top = mod.max(initial=0.0)
        if not math.isfinite(top):
            raise ValueError("amplitude moduli must be finite")
        keep = mod > drop_tol * top
        nz = np.flatnonzero(keep)
        if nz.size:
            arr = np.where(keep, arr, 0.0)[nz[0] : nz[-1] + 1]
            lo += int(nz[0])
        else:
            lo, arr = 0, np.zeros(0, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "_lo", int(lo))
        object.__setattr__(self, "_arr", arr)

    def __setattr__(self, name, value):
        raise AttributeError("FourierSeries is immutable")

    @property
    def lo(self):
        """Frequency of ``arr[0]`` (0 for the zero series)."""
        return self._lo

    @property
    def arr(self):
        """Read-only complex slab; index i holds the amplitude at ``lo + i``."""
        return self._arr

    @property
    def coeffs(self):
        """Read-only frequency -> amplitude mapping, ascending in frequency."""
        nz = np.flatnonzero(self._arr)
        ns = (nz + self._lo).tolist()
        return MappingProxyType(dict(zip(ns, self._arr[nz].tolist())))

    @property
    def degree(self):
        """Largest |n| in the support (0 for the zero series)."""
        return max(-self._lo, self._lo + self._arr.size - 1)

    def coeff(self, n):
        i = int(n) - self._lo
        return complex(self._arr[i]) if 0 <= i < self._arr.size else 0j

    def support(self):
        return (np.flatnonzero(self._arr) + self._lo).tolist()

    def __len__(self):
        return int(np.count_nonzero(self._arr))

    def __eq__(self, other):
        if not isinstance(other, FourierSeries):
            return NotImplemented
        return self._lo == other._lo and np.array_equal(self._arr, other._arr)

    def __hash__(self):
        # Python's complex hash, so that -0.0 and +0.0 parts hash alike
        return hash((self._lo, tuple(self._arr.tolist())))

    def __repr__(self):
        return "FourierSeries(<%d terms, degree %d>)" % (len(self), self.degree)

    # -- arithmetic ---------------------------------------------------------

    def _plus(self, lo, arr):
        """self + (the slab arr at lo); where arr is 0, self keeps its exact bits."""
        out_lo = min(self._lo, lo)
        size = max(self._lo + self._arr.size, lo + arr.size) - out_lo
        out = np.zeros(size, dtype=complex)
        out[self._lo - out_lo : self._lo - out_lo + self._arr.size] = self._arr
        nz = np.flatnonzero(arr)
        out[lo - out_lo + nz] += arr[nz]
        return FourierSeries.from_dense(out, out_lo)

    def __add__(self, other):
        other = _as_series(other)
        if other is None:
            return NotImplemented
        return self._plus(other._lo, other._arr)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = _as_series(other)
        if other is None:
            return NotImplemented
        return self._plus(other._lo, -other._arr)

    def __rsub__(self, other):
        other = _as_series(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self):
        return FourierSeries.from_dense(-self._arr, self._lo, drop_tol=0.0)

    def __mul__(self, scalar):
        if isinstance(scalar, FourierSeries):
            return product(self, scalar)
        return FourierSeries.from_dense(complex(scalar) * self._arr, self._lo)

    __rmul__ = __mul__

    # -- structure ----------------------------------------------------------

    def truncate(self, max_degree):
        """Restrict the support to |n| <= max_degree."""
        inside = np.abs(self._lo + np.arange(self._arr.size)) <= int(max_degree)
        return FourierSeries.from_dense(
            np.where(inside, self._arr, 0.0), self._lo, drop_tol=0.0
        )

    def dense(self, n_min, n_max):
        """Materialize the slab [n_min, n_max] as a writable complex vector.

        Index i of the result holds the amplitude at frequency n_min + i.
        """
        n_min, n_max = int(n_min), int(n_max)
        if n_max < n_min:
            raise ValueError("empty slab [%d, %d]" % (n_min, n_max))
        out = np.zeros(n_max - n_min + 1, dtype=complex)
        lo = max(n_min, self._lo)
        hi = min(n_max, self._lo + self._arr.size - 1)
        if lo <= hi:
            out[lo - n_min : hi - n_min + 1] = self._arr[lo - self._lo : hi - self._lo + 1]
        return out

    @classmethod
    def from_dense(cls, values, n_min, drop_tol=DROP_REL_TOL):
        """Inverse of :meth:`dense`: index i maps to frequency n_min + i."""
        out = cls.__new__(cls)
        out._store(int(n_min), np.asarray(values, dtype=complex), drop_tol)
        return out

    # -- serialization ------------------------------------------------------

    def to_json_obj(self):
        return {"coeffs": [[n, c.real, c.imag] for n, c in self.coeffs.items()]}

    def to_json(self):
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json(cls, data):
        if isinstance(data, (str, bytes)):
            data = json.loads(data)
        return cls({int(n): complex(re, im) for n, re, im in data["coeffs"]})


def _as_series(x):
    if isinstance(x, FourierSeries):
        return x
    if isinstance(x, (int, float, complex)):
        return FourierSeries({0: complex(x)})
    return None


def _space_params(space, beta=None):
    """Normalize (SpaceIndex | p, beta) arguments to a (p, beta) pair.

    An explicit beta always wins; it may be negative (dual-side norms).
    """
    if isinstance(space, SpaceIndex):
        p = space.p
        b = space.beta if beta is None else float(beta)
    else:
        p = float(space)
        b = 0.0 if beta is None else float(beta)
    if not (1.0 <= p < math.inf and math.isfinite(b)):
        raise ValueError("need a finite p >= 1 and a finite beta, got %r, %r" % (p, b))
    return p, b


def circle_grid(G):
    """Angles 2*pi*j/G of the G-th roots of unity, j = 0..G-1."""
    return 2.0 * np.pi * np.arange(int(G)) / int(G)


def series_from_samples(samples, max_degree):
    """Coefficients of a band-limited function from uniform circle samples.

    Computes the mean of samples * zeta^(-n) over the grid (the normalized
    measure convention) for |n| <= max_degree.  The grid size must be a power
    of two and large enough that the window does not wrap: 2*max_degree + 1
    must not exceed the grid size.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 1:
        raise ValueError("samples must be a one-dimensional grid")
    G = samples.size
    if G <= 0 or (G & (G - 1)) != 0:
        raise ValueError("grid size must be a power of two, got %d" % G)
    max_degree = int(max_degree)
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    if 2 * max_degree + 1 > G:
        raise ValueError(
            "max_degree %d needs a grid of at least %d points, got %d"
            % (max_degree, 2 * max_degree + 1, G)
        )
    spectrum = np.fft.fft(samples) / G
    window = np.arange(-max_degree, max_degree + 1) % G
    return FourierSeries.from_dense(spectrum[window], -max_degree)


def eval_on_grid(f, G):
    """Values of f at the G-th roots of unity.

    G must be at least 2*degree(f) + 1 so no pair of stored frequencies
    aliases to the same grid bin.
    """
    G = int(G)
    if G < 2 * f.degree + 1:
        raise ValueError(
            "grid of size %d aliases a degree-%d series (need >= %d)"
            % (G, f.degree, 2 * f.degree + 1)
        )
    spectrum = np.zeros(G, dtype=complex)
    spectrum[(f.lo + np.arange(f.arr.size)) % G] = f.arr
    return np.fft.ifft(spectrum) * G


def norm_ap_beta(f, space, beta=None):
    """Weighted coefficient norm (sum |c_n|^p (1+|n|)^(p*beta))^(1/p).

    ``space`` is a SpaceIndex or a bare exponent p; an explicit ``beta``
    overrides and may be negative for dual-side evaluations.  Exact finite
    sum over the support.
    """
    p, b = _space_params(space, beta)
    nz = np.flatnonzero(f.arr)
    if not nz.size:
        return 0.0
    ns = (f.lo + nz).astype(float)
    cs = f.arr[nz]
    terms = np.abs(cs) ** p * (1.0 + np.abs(ns)) ** (p * b)
    return float(np.sum(terms) ** (1.0 / p))


def product(f, g):
    """Coefficient convolution of two finitely supported sequences.

    Exact direct convolution of the two slabs; the degree of the product is
    at most the sum of the degrees.
    """
    if not len(f) or not len(g):
        return FourierSeries()
    return FourierSeries.from_dense(np.convolve(f.arr, g.arr), f.lo + g.lo)


def dual_pairing(S, T):
    """The pairing sum_n S_hat(n) * T_hat(-n) (exact finite sum)."""
    if len(S) > len(T):
        return complex(sum(c * S.coeff(-n) for n, c in T.coeffs.items()))
    return complex(sum(c * T.coeff(-n) for n, c in S.coeffs.items()))


def inclusion_holds(r, beta, s, gamma):
    """Whether the (r, beta) space embeds in the (s, gamma) space.

    For r <= s the embedding holds exactly when gamma <= beta; for r > s it
    needs the strict weight gap beta - gamma > 1/s - 1/r.  Every argument
    must be finite (NaN refused).
    """
    r, beta, s, gamma = float(r), float(beta), float(s), float(gamma)
    if not all(map(math.isfinite, (r, beta, s, gamma))):
        raise ValueError("exponents and weights must be finite")
    if r < 1.0 or s < 1.0:
        raise ValueError("exponents must be >= 1")
    if r <= s:
        return gamma <= beta
    return beta - gamma > 1.0 / s - 1.0 / r


def powerlog_member(u, space, beta=None):
    """Whether the power-log profile u lies in the (p, beta) space.

    Decides convergence of sum (1+|n|)^(p*(beta-a)) log(2+|n|)^(-p*b):
    true when p*(a-beta) > 1, and on the critical line p*(a-beta) = 1,
    to within 1e-12, exactly when p*b > 1.
    """
    p, weight = _space_params(space, beta)
    t = p * (u.a - weight)
    if abs(t - 1.0) <= 1e-12:
        return p * u.b > 1.0
    return t > 1.0
