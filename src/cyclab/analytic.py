"""Outer functions and the singular constructions built from boundary distance.

Everything works on a uniform power-of-two grid over [0, 2*pi).  An outer
function is stored through its boundary samples together with the analytic
Fourier coefficients recovered from them; the harmonic conjugate is taken
spectrally with the -i*sign(n) multiplier, so log-moduli should be resolved
by the grid (band-limited or close to it) for the negative-frequency leakage
to stay small.

Two measure conventions coexist deliberately.  Fourier-side quantities
(means, coefficients, leakage) use the normalized measure |dzeta|/2pi, while
the geometric integrals (`m_epsilon`, `douglas_seminorm`) follow the
unnormalized arc length |dzeta|.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fourier import FourierSeries, circle_grid, eval_on_grid, series_from_samples
from .geometry import ArcUnion, distance_to_set

TWO_PI = 2.0 * math.pi

# moduli handed in by the user are floored here before logs are taken;
# certificate moduli never hit the floor because epsilon keeps them positive
LOG_FLOOR = 1e-12

# relative l1 mass allowed in the top half of the frequency band before a
# sampled function counts as under-resolved
TAIL_SHARE_TOL = 1e-3


def _check_pow2(G, smallest=8):
    if G < smallest or (G & (G - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= {smallest}, got {G}")


def _leakage(coeffs):
    """Share of the l2 energy of `coeffs` at negative frequencies.

    Python's abs, pow and sum, in ascending frequency order: numpy's complex
    abs, its square and its blocked sum each round differently in the last bit.
    """
    energy = [abs(c) ** 2 for c in coeffs.arr.tolist()]
    total = sum(energy)
    return sum(energy[: max(-coeffs.lo, 0)]) / total if total > 0.0 else 0.0


def conjugate_function(g):
    """Harmonic conjugate of a real grid function via the -i*sign(n) multiplier.

    The mean (n = 0) and the Nyquist bin are zeroed, so the output has zero
    mean and double conjugation returns -(g - mean g).
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 1:
        raise ValueError("expected a 1-D real grid")
    G = g.shape[0]
    _check_pow2(G, smallest=4)
    spec = np.fft.fft(g)
    freq = np.fft.fftfreq(G, d=1.0 / G)
    mult = -1j * np.sign(freq)
    mult[0] = 0.0
    mult[G // 2] = 0.0
    return np.real(np.fft.ifft(mult * spec))


@dataclass(frozen=True)
class BoundaryModulus:
    """Positive boundary values on a uniform grid, clamped to a floor."""

    values: np.ndarray
    floor: float = LOG_FLOOR

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("modulus values must form a 1-D grid")
        _check_pow2(vals.shape[0])
        if not np.all(np.isfinite(vals)):
            raise ValueError("modulus values must be finite")
        if np.any(vals < 0.0):
            raise ValueError("a boundary modulus cannot be negative")
        if not (self.floor > 0.0):
            raise ValueError("floor must be positive")
        vals = np.maximum(vals, self.floor)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def grid_size(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class OuterFunction:
    """Boundary samples, analytic coefficients and disc-center value."""

    boundary: np.ndarray
    analytic_coeffs: FourierSeries
    value_at_zero: float
    leakage: float
    modulus_spec: dict | None = None

    @property
    def grid_size(self):
        return self.boundary.shape[0]

    def to_json_obj(self):
        return {
            "boundary_grid_size": int(self.grid_size),
            "analytic_coeffs": self.analytic_coeffs.to_json_obj(),
            "value_at_zero": [float(self.value_at_zero), 0.0],
            "modulus_spec": self.modulus_spec,
        }

    def to_json(self):
        import json

        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json(cls, data):
        if isinstance(data, str):
            import json

            data = json.loads(data)
        coeffs = FourierSeries.from_json(data["analytic_coeffs"])
        G = int(data["boundary_grid_size"])
        boundary = eval_on_grid(coeffs, G)
        re, im = data["value_at_zero"]
        return cls(
            boundary=boundary,
            analytic_coeffs=coeffs,
            value_at_zero=float(complex(re, im).real),
            leakage=_leakage(coeffs),
            modulus_spec=data.get("modulus_spec"),
        )


def outer_from_modulus(phi, leakage_tol=None, modulus_spec=None):
    """Outer function whose boundary modulus is `phi`.

    The boundary is exp(u + i*Hu) with u = log phi, so its modulus matches
    phi exactly on the grid and the center value is exp(mean u).  The
    negative-frequency energy ratio of the recovered coefficients is stored
    on the result; pass `leakage_tol` to turn excessive leakage (an
    under-resolved modulus) into an error.
    """
    if not isinstance(phi, BoundaryModulus):
        phi = BoundaryModulus(np.asarray(phi, dtype=float))
    u = np.log(phi.values)
    conj = conjugate_function(u)
    boundary = np.exp(u + 1j * conj)
    G = phi.grid_size
    coeffs = series_from_samples(boundary, G // 2 - 1)
    leakage = _leakage(coeffs)
    if leakage_tol is not None and leakage > leakage_tol:
        raise ValueError(
            f"negative-frequency leakage {leakage:.3e} exceeds {leakage_tol:.3e}; "
            "the modulus is under-resolved on this grid"
        )
    if modulus_spec is None:
        modulus_spec = {"kind": "sampled", "floor": float(phi.floor)}
    return OuterFunction(
        boundary=boundary,
        analytic_coeffs=coeffs,
        value_at_zero=float(np.exp(np.mean(u))),
        leakage=leakage,
        modulus_spec=modulus_spec,
    )


@dataclass(frozen=True)
class MoebiusExpansion:
    """Truncated coefficient expansion of (z-1)/(z-1-1/k) with its tail."""

    series: FourierSeries
    tail_l1: float
    k: int
    max_degree: int


def h_k(k, max_degree):
    """Expansion of the Moebius-type factor (z-1)/(z-1-1/k) up to `max_degree`.

    The exact coefficients are k/(k+1) at n = 0 and -(1/(k+1)) (k/(k+1))^n
    for n >= 1; the reported l1 tail of the truncation is (k/(k+1))^(N+1).
    """
    k = int(k)
    if k < 1:
        raise ValueError("k must be a positive integer")
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    ratio = k / (k + 1.0)
    coeffs = np.empty(max_degree + 1)
    coeffs[0] = ratio
    coeffs[1:] = -((ratio ** np.arange(1, max_degree + 1)) / (k + 1.0))
    series = FourierSeries.from_dense(coeffs, 0)
    tail = ratio ** (max_degree + 1)
    return MoebiusExpansion(
        series=series, tail_l1=float(tail), k=k, max_degree=int(max_degree)
    )


def m_epsilon(E, gamma, eps, quadrature_size, self_check_tol=3e-3):
    """Half the arc-length integral of log 1/(d(zeta,E)^gamma + eps).

    Plain midpoint quadrature on a uniform grid, with the integrand built
    from the exact chordal distance.  The same nodes subsampled by two give
    an internal convergence check: disagreement beyond
    self_check_tol * max(1, |M|) raises, flagging a grid too coarse for the
    distance profile at this eps.
    """
    if gamma <= 0.0 or eps <= 0.0:
        raise ValueError("gamma and eps must be positive")
    G = int(quadrature_size)
    if G < 16 or G % 2 != 0:
        raise ValueError("quadrature_size must be an even integer >= 16")
    theta = TWO_PI * np.arange(G) / G
    d = distance_to_set(theta, E)
    integrand = 0.5 * np.log(1.0 / (d**gamma + eps))
    M = float(np.mean(integrand) * TWO_PI)
    M_half = float(np.mean(integrand[::2]) * TWO_PI)
    if abs(M - M_half) > self_check_tol * max(1.0, abs(M)):
        raise ValueError(
            f"quadrature under-resolved: size {G} and {G // 2} disagree by "
            f"{abs(M - M_half):.3e} (value {M:.6f})"
        )
    return M


def outer_power_modulus(E, gamma, eps, mode, G, leakage_tol=None):
    """Outer function with modulus (d^gamma + eps)^(+-1/2), normalized for p_eps.

    mode "F_eps" uses sqrt(d(zeta,E)^gamma + eps) directly.  mode "p_eps"
    uses the reciprocal square root scaled by exp(-m), where m is the grid
    mean of (1/2) log 1/(d^gamma + eps); that makes the mean log modulus
    vanish, so the center value is 1 and the pointwise product of the two
    moduli is the constant exp(-m).
    """
    if mode not in ("p_eps", "F_eps"):
        raise ValueError(f"mode must be 'p_eps' or 'F_eps', got {mode!r}")
    if gamma <= 0.0 or eps <= 0.0:
        raise ValueError("gamma and eps must be positive")
    _check_pow2(G)
    d = distance_to_set(circle_grid(G), E)
    base = d**gamma + eps
    if mode == "F_eps":
        vals = np.sqrt(base)
    else:
        m = float(np.mean(0.5 * np.log(1.0 / base)))
        vals = np.exp(-m) / np.sqrt(base)
    spec = {
        "kind": mode,
        "gamma": float(gamma),
        "eps": float(eps),
        "set_arcs": int(E.n_arcs),
        "set_measure": float(E.total_measure),
    }
    return outer_from_modulus(
        BoundaryModulus(vals), leakage_tol=leakage_tol, modulus_spec=spec
    )


# ---------------------------------------------------------------------------
# Douglas seminorm
# ---------------------------------------------------------------------------

# write-once-per-key weight table; concurrent readers and duplicate idempotent
# writes are both fine (entries are immutable arrays, assignment is atomic)
_WEIGHT_CACHE = {}

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _weight_quadrature(n, ex):
    """Panel Gauss-Legendre quadrature of (2-2cos(n t))/(2 sin(t/2))^ex on [0, pi].

    One panel per half-oscillation, with the first panel split geometrically
    toward the t^(2-ex) endpoint kink.
    """
    width = math.pi / n
    edges = [0.0]
    # geometric refinement of [0, width]: ~48 dyadic shells reach 1e-14*width
    shells = width * 0.5 ** np.arange(47, -1, -1)
    edges.extend(shells.tolist())
    edges.extend((width * np.arange(2, n + 1)).tolist())
    edges = np.asarray(edges)
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    t = mid + half * _GL_NODES[None, :]
    vals = (2.0 - 2.0 * np.cos(n * t)) / (2.0 * np.sin(0.5 * t)) ** ex
    return 2.0 * float(np.sum((vals * _GL_WEIGHTS[None, :]) * half))


def douglas_weights(alpha, n_max):
    """Rotation-reduced Douglas weights w_alpha(0..n_max).

    w_alpha(n) is 2*pi times the arc-length integral of
    |zeta^n - 1|^2 / |zeta - 1|^(1+2*alpha); the values grow like n^(2*alpha).
    Computed once per alpha by panel quadrature (relative accuracy ~1e-10,
    checked against adaptive quadrature in the test suite) and cached.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    cached = _WEIGHT_CACHE.get(alpha)
    if cached is None or cached.shape[0] < n_max + 1:
        ex = 1.0 + 2.0 * alpha
        w = np.empty(n_max + 1)
        w[0] = 0.0
        start = 1
        if cached is not None:
            w[: cached.shape[0]] = cached
            start = cached.shape[0]
        for n in range(start, n_max + 1):
            w[n] = TWO_PI * _weight_quadrature(n, ex)
        w.setflags(write=False)
        _WEIGHT_CACHE[alpha] = w
        cached = w
    return cached[: n_max + 1]


@dataclass(frozen=True)
class DouglasResult:
    """Coefficient-side Douglas energy with its banded quadrature cross-check."""

    value: float
    quadrature_value: float
    band_matched_value: float
    alpha: float
    exclusion: float
    grid_size: int


def douglas_seminorm(f_samples, alpha, exclusion):
    """Double-integral smoothness energy of a grid function.

    The authoritative value is the coefficient-side sum over |f_hat(n)|^2
    w_alpha(|n|).  The cross-check is the lag-reduced double quadrature over
    pairs with chordal separation >= `exclusion` (computed with circular
    correlations, so it costs two FFTs); `band_matched_value` re-evaluates
    the coefficient sum with the same pairs excluded, which must agree with
    the quadrature to rounding.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if exclusion <= 0.0:
        raise ValueError("exclusion must be positive")
    f = np.asarray(f_samples, dtype=complex)
    if f.ndim != 1:
        raise ValueError("expected a 1-D grid of samples")
    G = f.shape[0]
    _check_pow2(G)

    coeffs = series_from_samples(f, G // 2 - 1)
    nz = np.flatnonzero(coeffs.arr)
    support = coeffs.lo + nz
    amps2 = np.array([abs(c) ** 2 for c in coeffs.arr[nz].tolist()])  # as _leakage
    n_abs = np.abs(support)
    n_top = int(n_abs.max()) if support.size else 0
    w = douglas_weights(alpha, n_top)
    value = float(np.sum(amps2 * w[n_abs])) if support.size else 0.0

    # lag reduction: sum_l K(l) * sum_j |f_j - f_{j+l}|^2 over kept lags
    spec = np.fft.fft(f)
    corr = np.fft.ifft(np.abs(spec) ** 2)  # corr[l] = sum_j f_{j+l} conj(f_j)
    energy = float(np.sum(np.abs(f) ** 2))
    lag_sums = 2.0 * energy - 2.0 * np.real(corr)
    lags = np.arange(G)
    chord = 2.0 * np.sin(np.pi * lags / G)
    kept = np.zeros(G, dtype=bool)
    kept[1:] = chord[1:] >= exclusion
    kernel = np.zeros(G)
    kernel[kept] = chord[kept] ** (-1.0 - 2.0 * alpha)
    cell = (TWO_PI / G) ** 2
    quadrature_value = cell * float(np.sum(kernel * lag_sums))

    # discrete weights for the same kept lags, all n at once via one FFT
    kernel_hat = np.fft.fft(kernel)
    w_disc = cell * G * (2.0 * np.sum(kernel) - 2.0 * np.real(kernel_hat))
    band_matched = (
        float(np.sum(amps2 * w_disc[support % G])) if support.size else 0.0
    )
    return DouglasResult(
        value=value,
        quadrature_value=quadrature_value,
        band_matched_value=band_matched,
        alpha=float(alpha),
        exclusion=float(exclusion),
        grid_size=G,
    )


@dataclass(frozen=True)
class VanishingProfile:
    """Grid values, coefficients and decay evidence of exp(-1/d^gamma)."""

    values: np.ndarray
    series: FourierSeries
    decay_sup: np.ndarray
    tail_share: float


def smooth_vanishing_function(E, gamma, G, tail_tol=TAIL_SHARE_TOL):
    """The function exp(-d(zeta,E)^(-gamma)), zero exactly on E.

    Returns the grid values together with the recovered coefficients and the
    suprema of |f_hat(n)| (1+|n|)^m for m = 0..4 as smoothness evidence,
    taken over the aliasing-trusted band |n| <= G/4.  A fat coefficient tail
    (more than `tail_tol` of the l1 mass in the top half of the band) means
    the grid missed genuine oscillation; that raises.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    _check_pow2(G, smallest=16)
    d = distance_to_set(circle_grid(G), E)
    vals = np.zeros(G)
    pos = d > 0.0
    vals[pos] = np.exp(-(d[pos] ** (-gamma)))
    series = series_from_samples(vals, G // 2 - 1)
    nz = np.flatnonzero(series.arr)
    support = series.lo + nz
    amps = np.abs(series.arr[nz])
    if support.size == 0:
        raise ValueError("function vanished identically on this grid")
    l1 = float(np.sum(amps))
    top = np.abs(support) >= G // 4
    tail_share = float(np.sum(amps[top])) / l1
    if tail_share > tail_tol:
        raise ValueError(
            f"under-resolved: top-band l1 share {tail_share:.3e} exceeds {tail_tol:.3e}"
        )
    trusted = np.abs(support) <= G // 4
    weights = (1.0 + np.abs(support[trusted])).astype(float)
    decay = np.array([float(np.max(amps[trusted] * weights**m)) for m in range(5)])
    vals.setflags(write=False)
    return VanishingProfile(
        values=vals, series=series, decay_sup=decay, tail_share=tail_share
    )
