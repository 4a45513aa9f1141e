"""Outer functions and the singular constructions built from boundary distance.

Everything works on a uniform power-of-two grid over [0, 2*pi).  An outer
function is stored through its boundary samples together with the analytic
Fourier coefficients recovered from them; the harmonic conjugate is taken
spectrally with the -i*sign(n) multiplier, applied to the half spectrum of a
half-length real transform (the log-modulus is real), so log-moduli should
be resolved by the grid (band-limited or close to it) for the
negative-frequency leakage to stay small.

Every kernel of the distance to a zero set E takes the sampled distance
d = distance_to_set(circle_grid(G), E), G = len(d), never the set E itself;
E is an arc union or, for the presets, the CantorSpec the set is built
from, which gives the same d bit for bit with no set built:
`smooth_vanishing_function`, `m_epsilon`, `outer_power_modulus` and the
two eps-sweeps `p_epsilon_decay` and `lemma_kel_ratio`, all of them here.  A
caller samples d once and hands it to each of them, and this module does
not import the geometry.  Each of the five checks d and its exponent gamma
on entry through one check, `_sampled_distance`: d is a finite, nonnegative
1-D grid of a power of two >= 16 points, and gamma is positive and finite.
The three eps-sweeps, `p_epsilon_decay`, `lemma_kel_ratio` and the
experiments' `outer` loop (`_outer_power_sweep`), check d once and take
d**gamma once; each M_eps they need is read, with m_epsilon's half-grid
self-check, off the integrand that the eps's modulus is made from.

The eps values of a sweep are independent.  `_over_eps` maps a sweep's
per-eps body over its schedule on one thread per CPU of the process's
affinity mask, at most one per eps, the calling thread among them.  numpy
and the transform kernel release the GIL in the transforms, exp and log
that dominate each eps.  Every eps goes through the same operations as in
a serial loop, so the outputs are bit for bit the same whatever the
thread count.  Each thread writes its eps values into one `_Workspace` of
grid-sized buffers that it keeps across them, and the workspaces die with
the sweep.  Every transform goes through the package's one kernel
(`fourier._c2c`, `_r2c`, `_c2r`), which gives numpy's bits and writes into
a buffer the sweep owns or in place, and the products and exps of an eps
are written into those buffers with `out=`, in numpy's operand order.  So
no eps maps its grid-sized arrays afresh.  No public result shares memory
with a workspace: `conjugate_function` returns a fresh array, and an
OuterFunction's boundary is its own.

Two measure conventions coexist deliberately.  Fourier-side quantities
(means, coefficients, leakage) use the normalized measure |dzeta|/2pi, while
the geometric integrals (`m_epsilon`, `douglas_seminorm`) follow the
unnormalized arc length |dzeta|.
"""

import contextvars
import json
import math
import os
import threading
from dataclasses import dataclass, fields

import numpy as np

from .fourier import (
    FourierSeries,
    _c2c,
    _c2r,
    _r2c,
    eval_on_grid,
    norm_ap_beta,
    series_from_samples,
)

TWO_PI = 2.0 * math.pi

# moduli handed in by the user are floored here before logs are taken;
# certificate moduli never hit the floor because epsilon keeps them positive
LOG_FLOOR = 1e-12

# relative l1 mass allowed in the top half of the frequency band before a
# sampled function counts as under-resolved
TAIL_SHARE_TOL = 1e-3

# m_epsilon's relative tolerance between the grid and every other node
M_EPSILON_SELF_CHECK_TOL = 3e-3

VANISH_GATE_REL = 1e-6  # p_epsilon_decay: largest max |f| on E, relative to max |f|
KEL_EXCLUSION_CELLS = 10.0  # lemma_kel_ratio drops pairs with chord < this / G


def _check_pow2(G, smallest=8):
    if G < smallest or (G & (G - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= {smallest}, got {G}")


def _sampled_distance(d, gamma):
    """`d` as a float array, after the one check every kernel of d shares."""
    if not 0.0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    d = np.asarray(d, dtype=float)
    G = d.shape[0] if d.ndim == 1 else 0
    if G < 16 or G & (G - 1) or not (np.all(np.isfinite(d)) and d.min() >= 0.0):
        raise ValueError("d must be a finite, nonnegative 1-D grid of a power "
                         "of two >= 16 points")
    return d


def _energy(arr):
    """|c|^2 of each complex coefficient, rounded as Python's abs(c) ** 2.

    hypot is what abs(complex) calls (see FourierSeries._store), and
    float_power goes through the C library's pow, as Python's float ** does.
    numpy's ** 2 squares by multiplication instead, and pow(x, 2) is not
    always correctly rounded, so that would move about one term in 1200 by
    an ulp; np.abs on complex rounds differently again.
    """
    return np.float_power(np.hypot(arr.real, arr.imag), 2.0)


def _leakage(coeffs):
    """Share of the l2 energy of `coeffs` at negative frequencies.

    Bit for bit the loop sum(abs(c) ** 2 ...) over ascending frequencies,
    with Python 3.11's sum: `_energy` rounds each term as abs(c) ** 2, and
    cumsum adds strictly left to right, as that sum does.  numpy's sum is
    pairwise and Python 3.12's sum is compensated, so neither would do.
    The negative-frequency share is then cum[k-1] / cum[-1].
    """
    cum = np.cumsum(_energy(coeffs.arr))
    total = float(cum[-1]) if cum.size else 0.0
    k = min(max(-coeffs.lo, 0), cum.size)
    return float(cum[k - 1]) / total if total > 0.0 and k else 0.0


def conjugate_function(g):
    """Harmonic conjugate of a real grid function via the -i*sign(n) multiplier.

    g is real, so its spectrum is Hermitian and the multiplier is applied to
    the half spectrum n = 0..G/2 of a half-length real transform (`rfft`),
    which `irfft` maps back to real samples.  The mean (n = 0) and the
    Nyquist bin are zeroed, so the output has zero mean and double
    conjugation returns -(g - mean g).  The result is a fresh array; the
    sweeps take the same transforms in buffers they own (`_conjugate_into`).
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 1:
        raise ValueError("expected a 1-D real grid")
    _check_pow2(g.shape[0], smallest=4)
    return _conjugate_into(g, None, None)


def _conjugate_into(g, half, out):
    """`conjugate_function(g)` with its half spectrum taken in `half` and the
    result written to `out` (new arrays where None).  The multiplier goes on
    in place, -1j the left factor as in `-1j * spec`: numpy's complex
    product is not commutative bit for bit."""
    spec = _r2c(g, half)
    spec[0] = 0.0
    spec[-1] = 0.0
    np.multiply(-1j, spec, out=spec)
    return _c2r(spec, g.shape[0], out)


def _floored(vals, floor, out=None):
    """max(vals, floor), into out or a new array, after the checks of a
    BoundaryModulus: every value finite and none negative."""
    if not np.all(np.isfinite(vals)):
        raise ValueError("modulus values must be finite")
    if np.any(vals < 0.0):
        raise ValueError("a boundary modulus cannot be negative")
    return np.maximum(vals, floor, out=out)


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
        floored = _floored(vals, self.floor)
        if not (self.floor > 0.0):
            raise ValueError("floor must be positive")
        floored.setflags(write=False)
        object.__setattr__(self, "values", floored)

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
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json(cls, data):
        if isinstance(data, str):
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


def _outer_boundary(u, ws):
    """exp(u + i*Hu) in ws.boundary: the boundary samples of the outer
    function with log-modulus u, a real grid.  Hu is taken in ws.half and
    ws.hu, and every operation keeps the operand order of
    np.exp(u + 1j * conjugate_function(u)), so the bits are its bits."""
    hu = _conjugate_into(u, ws.half, ws.hu)
    boundary = np.multiply(1j, hu, out=ws.boundary)
    np.add(u, boundary, out=boundary)
    return np.exp(boundary, out=boundary)


def _outer_function(u, boundary, leakage_tol, modulus_spec):
    """The OuterFunction with log-modulus u and these boundary samples,
    which it keeps: the caller hands over an array no one else writes."""
    coeffs = series_from_samples(boundary, len(u) // 2 - 1)
    leakage = _leakage(coeffs)
    if leakage_tol is not None and leakage > leakage_tol:
        raise ValueError(
            f"negative-frequency leakage {leakage:.3e} exceeds {leakage_tol:.3e}; "
            "the modulus is under-resolved on this grid"
        )
    return OuterFunction(
        boundary=boundary,
        analytic_coeffs=coeffs,
        value_at_zero=float(np.exp(np.mean(u))),
        leakage=leakage,
        modulus_spec=modulus_spec,
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
    if modulus_spec is None:
        modulus_spec = {"kind": "sampled", "floor": float(phi.floor)}
    u = np.log(phi.values)
    boundary = _outer_boundary(u, _Workspace(phi.grid_size))
    return _outer_function(u, boundary, leakage_tol, modulus_spec)


@dataclass(frozen=True)
class MoebiusExpansion:
    """Truncated coefficient expansion of (z-1)/(z-1-1/k) with its tail."""

    series: FourierSeries
    tail_l1: float


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
    return MoebiusExpansion(series=series, tail_l1=float(tail))


def half_log_integrand(d, gamma, eps):
    """The integrand (1/2) log 1/(d^gamma + eps) of m_epsilon and of p_eps."""
    return 0.5 * np.log(1.0 / (d**gamma + eps))


def m_epsilon(d, gamma, eps):
    """Half the arc-length integral of log 1/(d(zeta,E)^gamma + eps).

    `d` is the exact chordal distance to E sampled on a uniform grid (see
    `_sampled_distance`).  Plain midpoint quadrature on that grid; the same
    nodes subsampled by two give an internal convergence check:
    disagreement beyond M_EPSILON_SELF_CHECK_TOL * max(1, |M|) raises,
    flagging a grid too coarse for the distance profile at this eps.
    """
    d = _sampled_distance(d, gamma)
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    return _checked_m(half_log_integrand(d, gamma, eps))


def _checked_m(integrand):
    """M_eps from its integrand on the grid, after m_epsilon's self-check."""
    M = float(np.mean(integrand) * TWO_PI)
    M_half = float(np.mean(integrand[::2]) * TWO_PI)
    if abs(M - M_half) > M_EPSILON_SELF_CHECK_TOL * max(1.0, abs(M)):
        G = len(integrand)
        raise ValueError(
            f"quadrature under-resolved: size {G} and {G // 2} disagree by "
            f"{abs(M - M_half):.3e} (value {M:.6f})"
        )
    return M


def _check_mode(mode):
    if mode not in ("p_eps", "F_eps"):
        raise ValueError(f"mode must be 'p_eps' or 'F_eps', got {mode!r}")


def _half_log_into(dg, eps, ws):
    """The integrand of `half_log_integrand` in ws.hu, by its operations,
    from dg = d**gamma; d^gamma + eps is left in ws.u for `_log_modulus`."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    base = np.add(dg, eps, out=ws.u)
    integrand = np.divide(1.0, base, out=ws.hu)
    np.log(integrand, out=integrand)
    return np.multiply(0.5, integrand, out=integrand)


def _log_modulus(integrand, mode, ws):
    """u = log of the modulus of `outer_power_modulus`, in ws.u, from
    d^gamma + eps and the integrand that `_half_log_into` left; and the grid
    mean m of the integrand that normalizes p_eps (None for F_eps).  The
    modulus is floored and checked as a BoundaryModulus is."""
    base = np.sqrt(ws.u, out=ws.u)
    m = None
    if mode == "p_eps":
        m = float(np.mean(integrand))
        np.divide(np.exp(-m), base, out=base)
    _floored(base, LOG_FLOOR, out=base)
    return np.log(base, out=base), m


def outer_power_modulus(d, gamma, eps, mode):
    """Outer function with modulus (d^gamma + eps)^(+-1/2), normalized for p_eps.

    `d` is the distance to E on a uniform power-of-two grid.  mode "F_eps"
    uses sqrt(d^gamma + eps) directly.  mode "p_eps" uses the reciprocal
    square root scaled by exp(-m), where m is the grid mean of
    (1/2) log 1/(d^gamma + eps); that makes the mean log modulus vanish, so
    the center value is 1 and the pointwise product of the two moduli is the
    constant exp(-m).
    """
    d = _sampled_distance(d, gamma)
    _check_mode(mode)
    ws = _Workspace(len(d))  # this call's own: the result keeps ws.boundary
    u, _ = _log_modulus(_half_log_into(d**gamma, eps, ws), mode, ws)
    spec = {"kind": mode, "gamma": float(gamma), "eps": float(eps)}
    return _outer_function(u, _outer_boundary(u, ws), None, spec)


def _outer_power_sweep(d, gamma, mode, eps_schedule):
    """(m_epsilon(d, gamma, eps), and the value at 0 and the leakage of
    outer_power_modulus(d, gamma, eps, mode)) for each eps of the schedule,
    each bit for bit as those calls give it, with d checked once.  M_eps is
    read off the integrand that the modulus is made from.  The eps values
    run on the process's CPUs (`_over_eps`)."""
    d = _sampled_distance(d, gamma)
    _check_mode(mode)
    dg = d**gamma

    def row(eps, ws):
        integrand = _half_log_into(dg, eps, ws)
        u, _ = _log_modulus(integrand, mode, ws)
        M = _checked_m(integrand)
        value_at_zero = float(np.exp(np.mean(u)))
        boundary = _outer_boundary(u, ws)
        coeffs = series_from_samples(boundary, len(u) // 2 - 1, work=boundary)
        return M, value_at_zero, _leakage(coeffs)

    return _over_eps(row, eps_schedule, len(d))


class _Workspace:
    """The grid-sized buffers that one thread of an eps-sweep writes each of
    its eps values into (`_over_eps`), or that one call of
    `outer_power_modulus` or `outer_from_modulus` owns."""

    def __init__(self, G):
        self.u = np.empty(G)  # d^gamma + eps, the modulus, then its log u
        self.hu = np.empty(G)  # the log integrand, then Hu
        self.half = np.empty(G // 2 + 1, dtype=complex)  # a half spectrum
        self.boundary = np.empty(G, dtype=complex)  # exp(u + i*Hu)
        self._spare = None

    def spare(self):
        """A second complex buffer of the grid's size, made at first use:
        lemma_kel_ratio's g * F."""
        if self._spare is None:
            self._spare = np.empty_like(self.boundary)
        return self._spare


def _over_eps(fn, eps_schedule, G):
    """[fn(eps, ws) for eps in eps_schedule], in schedule order, on one
    thread per CPU of the process's affinity mask, at most one per eps.

    The calling thread computes every k-th eps from the first, and k - 1
    worker threads the rest; the transform kernel and numpy's exp and log
    release the GIL, so the threads overlap.  ws is the `_Workspace` of
    grid size G of the thread that computes eps: each thread makes one at
    its first eps and writes every later one into it, so no eps maps its
    grid-sized arrays afresh, and all of them are dropped when the call
    returns.  Each eps goes through the operations of the serial loop, so
    every result is bit for bit the serial one; fn returns nothing that
    shares memory with ws.  Workers run in a copy of the caller's context,
    so a caller's np.errstate holds in them too.  The first eps in schedule
    order that raises raises here, as in the serial loop; eps values not
    yet started are cancelled, and no worker outlives the call.
    """
    eps_schedule = list(eps_schedule)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    k = min(len(eps_schedule), cpus)
    ws = _Workspace(G)
    if k < 2:
        return [fn(eps, ws) for eps in eps_schedule]
    from concurrent.futures import Future, ThreadPoolExecutor

    spaces = {}  # each worker thread's workspace, by thread id

    def on_worker(eps):
        ident = threading.get_ident()
        if ident not in spaces:
            spaces[ident] = _Workspace(G)
        return fn(eps, spaces[ident])

    pool = ThreadPoolExecutor(k - 1)
    try:
        futures = {i: pool.submit(contextvars.copy_context().run, on_worker, eps)
                   for i, eps in enumerate(eps_schedule) if i % k}
        for i in range(0, len(eps_schedule), k):
            futures[i] = Future()
            try:
                futures[i].set_result(fn(eps_schedule[i], ws))
            except Exception as exc:  # raised below, in schedule order
                futures[i].set_exception(exc)
                break
        return [futures[i].result() for i in range(len(eps_schedule))]
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass
class DecayReport:
    """Norm decay of p_eps * f along an epsilon schedule."""

    schedule: list  # (eps, m_eps, norm) triples, m_eps in the normalized mean
    normalized_ratios: list
    verdict: str
    grid_size: int
    truncation: int
    gamma: float

    def to_json_obj(self):
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj["schedule"] = [list(row) for row in self.schedule]
        return obj


def p_epsilon_decay(f, d, gamma, space, eps_schedule, truncation=None):
    """Track the weighted norm of p_eps * f as eps decreases.

    `d` is the distance to E sampled on a uniform grid of G = len(d) points
    (see `_sampled_distance`).  For each eps the boundary samples
    of the normalized outer factor p_eps are built on that grid (only those:
    p_eps(0) = 1 by construction), the product is transformed back, and the
    norm is taken at the configured truncation, G // 4 by default.  Recorded
    alongside: the normalized log-mean m (the same number that makes
    p_eps(0) = 1) and the envelope ratio norm^2 / ((1+m) e^(-2m)).  Verdict
    `decays` means strictly decreasing norms with the final below a tenth of
    the first; anything else `stalls`.

    The rule is meant to detect norms that tend to zero as eps -> 0, as the
    e^(-m) envelope does when the log-integral of d diverges, against norms
    that level off at a positive floor, as they do when it converges (a
    Carleson set, where m stays bounded).  A monotone drop alone cannot tell
    the two apart, hence the factor of ten.  Neither set preset meets it on
    the default schedule eps = 1e-1 .. 1e-6: the final norm is 0.553 times
    the first on `non_carleson_n2` and 0.463 times on middle thirds, so both
    report `stalls`.  The eps values run on the process's CPUs
    (`_over_eps`); the rows are bit for bit those of a serial loop.
    """
    eps_schedule = [float(e) for e in eps_schedule]
    if len(eps_schedule) < 2:
        raise ValueError("need at least two epsilons")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("eps schedule must be strictly decreasing")
    d = _sampled_distance(d, gamma)
    G = d.shape[0]
    if truncation is None:
        truncation = G // 4
    f_grid = eval_on_grid(f, G)
    on = d == 0.0
    # band-limiting f leaves ~1e-8 relative dust on the set; the gate only
    # needs to catch inputs that genuinely fail to vanish there
    gate = VANISH_GATE_REL * max(float(np.max(np.abs(f_grid))), 1e-30)
    if on.any() and float(np.max(np.abs(f_grid[on]))) > gate:
        raise ValueError("f does not vanish on E at the grid resolution")

    dg = d**gamma

    def row(eps, ws):
        u, m = _log_modulus(_half_log_into(dg, eps, ws), "p_eps", ws)
        product = np.multiply(_outer_boundary(u, ws), f_grid, out=ws.boundary)
        series = series_from_samples(product, truncation, work=product)
        return eps, m, norm_ap_beta(series, space)

    rows = _over_eps(row, eps_schedule, G)
    ratios = [norm**2 / ((1.0 + m) * math.exp(-2.0 * m)) for _, m, norm in rows]
    norms = [r[2] for r in rows]
    decreasing = all(a > b for a, b in zip(norms, norms[1:]))
    verdict = "decays" if decreasing and norms[-1] < 0.1 * norms[0] else "stalls"
    return DecayReport(
        schedule=rows,
        normalized_ratios=ratios,
        verdict=verdict,
        grid_size=G,
        truncation=truncation,
        gamma=gamma,
    )


def lemma_kel_ratio(d, gamma, delta_prime, eps_schedule):
    """Ratios of the weighted double smoothness integral of F_eps to M_eps,
    and the M_eps values, as two lists over the eps schedule.  `d` is the
    distance to E sampled on a uniform grid of G = len(d) points (see
    `_sampled_distance`).

    The left side is the arc-length double integral of
    d(zeta',E)^(2(delta'-gamma)) |F_eps(zeta)-F_eps(zeta')|^2 / |zeta-zeta'|^2
    with a chordal diagonal exclusion KEL_EXCLUSION_CELLS / G, evaluated by lag
    reduction (three FFT-sized correlations per eps; the one of two real
    arrays, the weight and |F_eps|^2, by half-length real transforms).
    M_eps is the unnormalized half log-integral, required positive.  Grid
    nodes lying exactly on E are dropped from the weighted sum when the
    weight exponent is negative.  The eps values run on the process's CPUs
    (`_over_eps`), bit for bit as in a serial loop; where several eps have
    M_eps <= 0, the error names the first of them in the schedule.
    """
    if 2.0 * delta_prime - gamma - 1.0 < 0.0:
        raise ValueError("need 2*delta' - gamma - 1 >= 0")
    d = _sampled_distance(d, gamma)
    G = d.shape[0]
    expo = 2.0 * (delta_prime - gamma)
    g = np.zeros(G)
    pos = d > 0.0
    g[pos] = d[pos] ** expo
    if expo >= 0.0:
        g[~pos] = 0.0 if expo > 0.0 else 1.0

    kernel = lag_kernel(G, KEL_EXCLUSION_CELLS / G, -2.0)
    cell = (TWO_PI / G) ** 2
    spec_g = np.conj(_r2c(g))  # g is real: a half-length transform
    dg = d**gamma

    def ratio_and_m(eps, ws):
        integrand = _half_log_into(dg, eps, ws)
        M = _checked_m(integrand)
        if M <= 0.0:
            raise ValueError(f"M_eps = {M:.4f} <= 0 at eps = {eps}; eps too large")
        F = _outer_boundary(_log_modulus(integrand, "F_eps", ws)[0], ws)
        # each array below goes into a buffer whose contents are spent
        absF2 = np.abs(F, out=ws.u)
        absF2 **= 2
        t1 = float(np.sum(np.multiply(g, absF2, out=ws.hu)))
        spec = np.multiply(spec_g, _r2c(absF2, ws.half), out=ws.half)
        t2 = _c2r(spec, G, ws.u)
        a = np.multiply(g, F, out=ws.spare())
        fa = np.conj(_c2c(a, True, a), out=a)
        t3 = _c2c(np.multiply(fa, _c2c(F, True, F), out=fa), False, fa).real
        lag_sums = np.add(t1, t2, out=t2)
        np.subtract(lag_sums, np.multiply(2.0, t3, out=ws.hu), out=lag_sums)
        lhs = cell * float(np.sum(np.multiply(kernel, lag_sums, out=lag_sums)))
        return lhs / M, M

    pairs = _over_eps(ratio_and_m, eps_schedule, G)
    return [ratio for ratio, _ in pairs], [M for _, M in pairs]


# ---------------------------------------------------------------------------
# Douglas seminorm
# ---------------------------------------------------------------------------


def douglas_weights(alpha, n_max):
    """Rotation-reduced Douglas weights w_alpha(0..n_max).

    w_alpha(n) is 2*pi times the arc-length integral of
    |zeta^n - 1|^2 / |zeta - 1|^(1+2*alpha); the values grow like n^(2*alpha).
    In closed form,

        w_alpha(n) = 4 pi^2 (r_n - r_0) / (sin(pi alpha) Gamma(1 + 2 alpha)),
        r_n = Gamma(n + 1/2 + alpha) / Gamma(n + 1/2 - alpha).

    This is 8 pi^2 (c_0 - c_n) for the Fourier coefficients c_k of
    |1 - zeta|^(2a), a = -(1 + 2 alpha)/2: the binomial series of
    (1 - z)^a (1 - conj(z))^a and Chu-Vandermonde give c_k where the
    function is integrable, analytic continuation in a carries the
    difference over, and the reflection formula turns Gamma(2a + 1) into
    sin(pi alpha), so alpha = 1/2 (w = 4 pi^2 n) needs no limit.  The sum is
    accumulated over the positive increments
    r_(k+1) - r_k = r_(k+1) 2 alpha / (k + 1/2 + alpha), with r_(k+1) from
    r_1 by the ratio recurrence, so nothing cancels.  Against 40-digit
    arithmetic the relative error is at most 1.0e-12 for n <= 2^16 at alpha
    in {0.05, 0.2, 0.4, 0.5, 0.7, 0.95}.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    k = np.arange(n_max, dtype=float)
    r1 = math.gamma(1.5 + alpha) / math.gamma(1.5 - alpha)
    # r_(k+1) for k = 0 .. n_max - 1
    r = np.cumprod(np.concatenate(([r1], (k[1:] + 0.5 + alpha) / (k[1:] + 0.5 - alpha))))
    steps = r[:n_max] * (2.0 * alpha / (k + 0.5 + alpha))
    scale = 4.0 * math.pi**2 / (math.sin(math.pi * alpha) * math.gamma(1.0 + 2.0 * alpha))
    return np.concatenate(([0.0], scale * np.cumsum(steps)))


def lag_kernel(G, exclusion, exponent):
    """Lag kernel of a G-point double integral: entry l is chord(l)**exponent,
    chord(l) = 2 sin(pi l/G), or 0 at lag 0 and where chord(l) < exclusion.
    """
    lags = np.arange(G)
    chord = 2.0 * np.sin(np.pi * lags / G)
    kept = np.zeros(G, dtype=bool)
    kept[1:] = chord[1:] >= exclusion
    kernel = np.zeros(G)
    kernel[kept] = chord[kept] ** exponent
    return kernel


@dataclass(frozen=True)
class DouglasResult:
    """Coefficient-side Douglas energy with its banded quadrature cross-check,
    at the alpha, exclusion and grid of the call (not repeated here)."""

    value: float
    quadrature_value: float
    band_matched_value: float


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
    if not 0.0 < exclusion < math.inf:
        raise ValueError("exclusion must be positive and finite")
    f = np.asarray(f_samples, dtype=complex)
    if f.ndim != 1:
        raise ValueError("expected a 1-D grid of samples")
    G = f.shape[0]
    _check_pow2(G)

    coeffs = series_from_samples(f, G // 2 - 1)
    nz = np.flatnonzero(coeffs.arr)
    support = coeffs.lo + nz
    amps2 = _energy(coeffs.arr[nz])
    n_abs = np.abs(support)
    n_top = int(n_abs.max()) if support.size else 0
    w = douglas_weights(alpha, n_top)
    value = float(np.sum(amps2 * w[n_abs])) if support.size else 0.0

    # lag reduction: sum_l K(l) * sum_j |f_j - f_{j+l}|^2 over kept lags
    # numpy's transforms take a real input as complex, and so do these
    spec = _c2c(f)
    power = (np.abs(spec) ** 2).astype(complex)
    corr = _c2c(power, False, power)  # corr[l] = sum_j f_{j+l} conj(f_j)
    energy = float(np.sum(np.abs(f) ** 2))
    lag_sums = 2.0 * energy - 2.0 * np.real(corr)
    kernel = lag_kernel(G, exclusion, -1.0 - 2.0 * alpha)
    cell = (TWO_PI / G) ** 2
    quadrature_value = cell * float(np.sum(kernel * lag_sums))

    # discrete weights for the same kept lags, all n at once via one FFT
    kernel_hat = _c2c(kernel.astype(complex))
    w_disc = cell * G * (2.0 * np.sum(kernel) - 2.0 * np.real(kernel_hat))
    band_matched = (
        float(np.sum(amps2 * w_disc[support % G])) if support.size else 0.0
    )
    return DouglasResult(
        value=value,
        quadrature_value=quadrature_value,
        band_matched_value=band_matched,
    )


@dataclass(frozen=True)
class VanishingProfile:
    """Grid values, coefficients and decay evidence of exp(-1/d^gamma)."""

    values: np.ndarray
    series: FourierSeries
    decay_sup: np.ndarray
    tail_share: float


def smooth_vanishing_function(d, gamma):
    """The function exp(-d(zeta,E)^(-gamma)), zero exactly on E.

    `d` is the distance to E sampled on a uniform grid of G = len(d) points
    (see `_sampled_distance`).  Returns the grid values together with the
    recovered coefficients and the suprema of |f_hat(n)| (1+|n|)^m for
    m = 0..4 as smoothness evidence, taken over the aliasing-trusted band
    |n| <= G/4.  A fat coefficient tail (more than TAIL_SHARE_TOL of the l1
    mass in the top half of the band) means the grid missed genuine
    oscillation; that raises.
    """
    d = _sampled_distance(d, gamma)
    G = d.shape[0]
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
    if tail_share > TAIL_SHARE_TOL:
        raise ValueError(f"under-resolved: top-band l1 share {tail_share:.3e} "
                         f"exceeds {TAIL_SHARE_TOL:.3e}")
    trusted = np.abs(support) <= G // 4
    weights = (1.0 + np.abs(support[trusted])).astype(float)
    decay = np.array([float(np.max(amps[trusted] * weights**m)) for m in range(5)])
    vals.setflags(write=False)
    return VanishingProfile(
        values=vals, series=series, decay_sup=decay, tail_share=tail_share
    )
