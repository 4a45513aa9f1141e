"""Certificate optimizers and the cyclicity classification logic.

The two infimum solvers minimize the weighted coefficient norm of 1 - P*f
(two-sided polynomials P) and of f - z*Q*f (analytic polynomials Q).  Both
objectives are exact finite sums, since degrees add under multiplication.
At p = 2 they are weighted linear least squares; for 1 < p < 2 the smoothed
objective

    sum_n w_n (|r_n|^2 + mu^2)^(p/2),    w_n = (1 + |n|)^(p*beta)

is driven to mu -> 0 by a geometric continuation schedule, each step running
sweeps of iteratively reweighted least squares until its smoothed objective
stalls.  Every search, whatever p and beta, starts with one solve from zero
with the base weights w_n, towards the l2 minimizer; the best of its result,
zero and any warm start seeds the continuation, which at p = 2 is one step
of sweeps with fixed weights.
Every weighted least-squares solve runs conjugate gradients on the weighted
normal equations A^H W A x = A^H W b, preconditioned by the inverse of the
unweighted normal matrix T = A^H A.  T is Toeplitz, the autocorrelation of
f, and the IRLS weights are bounded, so T is spectrally equivalent to
A^H W A and each solve takes few iterations; at beta = 0 the seed solve's
preconditioner is exact, so it takes about one.  T^-1 is applied by the
Gohberg-Semencul formula from one Levinson solve per problem, the only
direct solve; where it breaks down, CG runs unpreconditioned.  All solves
of one infimum share one total iteration budget, the only cap on its work;
spending it, or a CG breakdown, ends the search unconverged.  The spectrum
of f is computed once per problem, at the transform lengths
`scipy.signal.fftconvolve` would pick, so each convolution is one forward
and one inverse transform and rounds exactly as scipy's does.  The
autocorrelation of f, the first column of T, is one more such convolution,
through the engine's own `fftconvolve`; the engine does not import
scipy.signal.  Importing the engine loads no scipy subpackage: scipy.fft
loads at the first transform and scipy.linalg at the first Levinson solve,
so a run that never solves loads neither.  `lsmr`, which no solve calls,
is bound on its first lookup.  Solver output is always an upper bound
witnessed by the returned polynomial; reported values are recomputed from
that polynomial, never read off the iteration.
"""

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy

from .analytic import (
    _outer_boundary,
    _power_modulus,
    lag_kernel,
    m_epsilon,
)
from .fourier import (
    FourierSeries,
    _space_params,
    circle_grid,
    eval_on_grid,
    norm_ap_beta,
    series_from_samples,
)
from .geometry import distance_to_set

TWO_PI = 2.0 * math.pi

SUPPORTS = ("all_integers", "nonneg", "positive")

VANISH_GATE_REL = 1e-6  # p_epsilon_decay: largest max |f| on E, relative to max |f|
KEL_EXCLUSION_CELLS = 10.0  # lemma_kel_ratio drops pairs with chord < this / G

# continuation schedule: mu_j = MU_SCALE*||r0||_inf * 2^-j over MU_STEPS steps;
# step j ends once its smoothed objective moves by at most INNER_RTOL relative
MU_STEPS = 8
MU_SCALE = 0.1
INNER_RTOL = 1e-10
# total CG iterations one infimum call may spend across all its weighted
# solves, the one cap on its work; each solve may spend what is left.
# Generous for well-conditioned problems, a hard wall for ill-conditioned
# ones, where the value is an upper bound anyway
LSMR_TOTAL_BUDGET = 40000
# a CG solve stops once its preconditioned residual norm has fallen by this
# factor from where the solve started
PCG_RTOL = 1e-3


def __getattr__(name):
    # no solve calls lsmr; perfbench/tracing.py wraps `engine.lsmr`, so the
    # name resolves here, and scipy.sparse loads only when it is looked up
    if name == "lsmr":
        import scipy.sparse.linalg

        return scipy.sparse.linalg.lsmr
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _support_range(support, degree):
    if support == "all_integers":
        return -degree, degree
    if support == "nonneg":
        return 0, degree
    if support == "positive":
        if degree < 1:
            raise ValueError("positive support needs degree >= 1")
        return 1, degree
    raise ValueError(f"unknown support {support!r}; expected one of {SUPPORTS}")


class _Convolution:
    """x -> conv(a, x) for a fixed a and inputs x of one length.

    The result is bit for bit that of `scipy.signal.fftconvolve(a, x)` for
    complex a or x: the spectrum of a is taken once, at the length
    `fftconvolve` pads to, and each call is one forward and one inverse
    transform.  Like `fftconvolve`, a length-1 operand is a plain product.
    """

    def __init__(self, a, n_x):
        self.n_out = len(a) + n_x - 1
        self.a = a
        self.size = None
        if len(a) > 1 and n_x > 1:
            import scipy.fft  # loaded at the first transform, not at import

            self.size = scipy.fft.next_fast_len(self.n_out, False)
            self.spectrum = scipy.fft.fft(a, self.size)

    def __call__(self, x):
        if self.size is None:
            return self.a * x
        # fftconvolve's factor order: numpy's complex product, fused
        # multiply-adds and all, is not commutative bit for bit
        return scipy.fft.ifft(self.spectrum * scipy.fft.fft(x, self.size))[: self.n_out]


def fftconvolve(a, x):
    """The full convolution of a and x by one :class:`_Convolution`.

    When a or x is complex it is bit for bit `scipy.signal.fftconvolve(a, x)`;
    every FourierSeries slab is complex.  Two real operands are not covered:
    scipy then takes half-spectrum transforms.  Callers go through this
    module global, so a tracer that wraps `engine.fftconvolve` sees every
    call.
    """
    return _Convolution(a, len(x))(x)


class _ToeplitzInverse:
    """y -> T^-1 y for a Hermitian positive definite Toeplitz matrix T.

    With x = T^-1 e_0 from one Levinson solve, the Gohberg-Semencul formula

        T^-1 = (1/x_0) [L(x) L(x)^H - L(v) L(v)^H],    v = Z J conj(x),

    holds, where L(u) is the lower triangular Toeplitz matrix with first
    column u, J reverses and Z shifts down by one.  The spectra of x and v
    are taken once, at a length of at least 2n that keeps the circular
    products exact; each apply is then six transforms.  Raises LinAlgError
    or ValueError when the Levinson solve breaks down: it raises, returns a
    non-finite result, or gives x_0 <= 0.
    """

    def __init__(self, col):
        import scipy.fft
        import scipy.linalg  # loaded at the first Levinson solve

        n = len(col)
        e0 = np.zeros(n, dtype=complex)
        e0[0] = 1.0
        x = scipy.linalg.solve_toeplitz((col, np.conj(col)), e0)
        if not np.all(np.isfinite(x)) or not x[0].real > 0.0:
            raise ValueError("Levinson solve broke down")
        x = x / math.sqrt(x[0].real)  # folds the 1/x_0 into both factors
        v = np.zeros(n, dtype=complex)
        v[1:] = np.conj(x[:0:-1])
        self.n = n
        self.size = scipy.fft.next_fast_len(2 * n, False)
        self.x_spec = scipy.fft.fft(x, self.size)
        self.v_spec = scipy.fft.fft(v, self.size)

    def __call__(self, y):
        n = self.n
        y_spec = scipy.fft.fft(y, self.size)
        # the adjoints L(u)^H y are correlations, cut to the first n entries
        a = scipy.fft.ifft(np.conj(self.x_spec) * y_spec)[:n]
        b = scipy.fft.ifft(np.conj(self.v_spec) * y_spec)[:n]
        a_spec = scipy.fft.fft(a, self.size)
        b_spec = scipy.fft.fft(b, self.size)
        return scipy.fft.ifft(self.x_spec * a_spec - self.v_spec * b_spec)[:n]


class _ConvObjective:
    """Residual b - conv(f, x) over a fixed output index range.

    The convolution with f and its adjoint, the correlation with f, each
    hold the spectrum of f, computed once per problem.
    """

    def __init__(self, f_lo, f_arr, s_lo, s_hi, target_lo, target_arr, p, beta):
        self.f_arr = f_arr
        self.n_cols = s_hi - s_lo + 1
        self._conv = _Convolution(f_arr, self.n_cols)
        # the adjoint correlates with f the rows that apply writes
        self._corr = _Convolution(np.conj(f_arr[::-1]), self._conv.n_out)
        conv_lo = f_lo + s_lo
        conv_hi = f_lo + len(f_arr) - 1 + s_hi
        out_lo = min(target_lo, conv_lo)
        out_hi = max(target_lo + len(target_arr) - 1, conv_hi)
        self.out_lo = out_lo
        self.n_rows = out_hi - out_lo + 1
        self.conv_off = conv_lo - out_lo
        self.b = np.zeros(self.n_rows, dtype=complex)
        self.b[target_lo - out_lo : target_lo - out_lo + len(target_arr)] = target_arr
        idx = np.arange(out_lo, out_hi + 1)
        self.base_w = (1.0 + np.abs(idx)) ** (p * beta)
        self.p = p

    def apply(self, x):
        """conv(f, x) placed on the output range."""
        y = np.zeros(self.n_rows, dtype=complex)
        y[self.conv_off : self.conv_off + self._conv.n_out] = self._conv(x)
        return y

    def adjoint(self, y):
        """The adjoint of :meth:`apply`: correlate y with f over the columns."""
        nf = len(self.f_arr)
        seg = y[self.conv_off : self.conv_off + self._conv.n_out]
        return self._corr(seg)[nf - 1 : nf - 1 + self.n_cols]

    def residual(self, x):
        return self.b - self.apply(x)

    def residual_norm(self, r):
        """The weighted l^p norm of a residual r."""
        return float(np.sum(self.base_w * np.abs(r) ** self.p)) ** (1.0 / self.p)

    @functools.cached_property
    def normal_column(self):
        """The first column of the Toeplitz normal matrix A^H A, computed once:
        the autocorrelation of f at lags 0 .. n_cols - 1."""
        nf = len(self.f_arr)
        rho = fftconvolve(np.conj(self.f_arr[::-1]), self.f_arr)
        mid = nf - 1
        col = np.zeros(self.n_cols, dtype=complex)
        L = min(self.n_cols - 1, nf - 1)
        col[: L + 1] = rho[mid : mid + L + 1]
        return col

    @functools.cached_property
    def preconditioner(self):
        """y -> (A^H A)^-1 y by a :class:`_ToeplitzInverse`, built once; the
        identity where its Levinson solve breaks down, so CG runs
        unpreconditioned."""
        try:
            return _ToeplitzInverse(self.normal_column)
        except (np.linalg.LinAlgError, ValueError):
            return lambda y: y

    def solve_weighted(self, w, x, resid, maxiter):
        """min_x sum_n w_n |b_n - conv(f, x)_n|^2 from x, given its residual
        resid = b - conv(f, x); the minimizer, the iterations spent, and
        whether the solve held.

        Runs preconditioned CG on A^H W A x = A^H W b, W = diag(w),
        for at most maxiter iterations, is charged at least one, and stops
        once the preconditioned residual norm sqrt(r^H M r) has fallen by
        PCG_RTOL from its start.  Both A^H W A and M are positive definite,
        so a curvature d^H A^H W A d or residual product r^H M r that is not
        positive (zero only at an exact solution) is a breakdown: the solve
        stops there, returns its current iterate and reports that it did not
        hold.
        """
        precond = self.preconditioner
        r = self.adjoint(w * resid)
        z = precond(r)
        rz = float(np.real(np.vdot(r, z)))
        if not rz > 0.0:
            return x, 1, not np.any(r)
        stop = PCG_RTOL**2 * rz
        d = z
        spent = 0
        while spent < maxiter and rz > stop:
            q = self.adjoint(w * self.apply(d))
            spent += 1
            dq = float(np.real(np.vdot(d, q)))
            if not dq > 0.0:
                return x, spent, False
            alpha = rz / dq
            x = x + alpha * d
            r = r - alpha * q
            z = precond(r)
            rz_next = float(np.real(np.vdot(r, z)))
            if not rz_next >= 0.0:
                return x, spent, False
            d = z + (rz_next / rz) * d
            rz = rz_next
        return x, max(spent, 1), True


@dataclass(frozen=True)
class InfimumResult:
    """Solver outcome: the achieved norm and the polynomial witnessing it.

    `sweeps` counts the weighted least-squares solves: the l2 seed solve,
    which is sweep 1, then the IRLS sweeps, or at p = 2 the sweeps with
    fixed weights.  `iterations` counts the CG iterations they were charged.

    `converged` means that every solve held (no CG breakdown) and that every
    continuation step's smoothed objective stalled within INNER_RTOL before
    LSMR_TOTAL_BUDGET was spent: the mu schedule finished.  It does not mean
    that `value` is near the infimum; only a certified lower bound could
    show that.
    """

    value: float
    polynomial: FourierSeries
    converged: bool
    degree: int
    support: str
    iterations: int = 0
    sweeps: int = 0

    def __iter__(self):
        yield self.value
        yield self.polynomial


def _minimize(f, space, beta, support, degree, target, warm=None):
    p, bval = _space_params(space, beta)
    if p <= 1.0:
        raise ValueError("the solver handles 1 < p <= 2 only")
    if p > 2.0:
        raise ValueError("p > 2 objectives are outside the solver's scope")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if len(f) == 0:
        raise ValueError("f must be nonzero")
    s_lo, s_hi = _support_range(support, degree)
    t_lo, t_arr = target
    prob = _ConvObjective(f.lo, f.arr, s_lo, s_hi, t_lo, t_arr, p, bval)
    zeros = np.zeros(prob.n_cols, dtype=complex)

    # every solve below is preconditioned CG, and all of them share
    # LSMR_TOTAL_BUDGET iterations, the one cap on the search's work; the
    # returned value is an upper bound whether or not the search converges.
    # Sweep 1 is the l2 solve with the base weights, from zero, whose
    # residual is b: at beta = 0 its preconditioner is the exact inverse, so
    # it lands on the l2 minimizer in about one iteration.  Each later sweep
    # starts from the residual the sweep before it left.  A solve that
    # breaks down ends the search, not converged, at the best iterate so far
    iters_left = LSMR_TOTAL_BUDGET
    x_ls, iterations, held = prob.solve_weighted(prob.base_w, zeros, prob.b, iters_left)
    iters_left -= iterations
    sweeps = 1
    # seed IRLS with the best available iterate and never return worse
    candidates = [zeros]
    if warm is not None:
        candidates.append(warm.dense(s_lo, s_hi))
    candidates.append(x_ls)
    residuals = [prob.residual(c) for c in candidates]
    norms = [prob.residual_norm(r) for r in residuals]
    k = norms.index(min(norms))  # ties go to the earliest candidate
    x, r = candidates[k], residuals[k]
    best_x, best_v = x, norms[k]
    mu0 = MU_SCALE * float(np.max(np.abs(r)))
    if mu0 == 0.0:
        mu0 = 1e-12
    # at p = 2 the weights depend on neither mu nor r: one step, whose
    # sweeps refine the inexact solves.  Step j, the one after j stalled
    # steps, sweeps at mu0 * 2^-j until its smoothed objective stalls within
    # INNER_RTOL, and the search has converged once every step has stalled
    mu_steps = 1 if p == 2.0 else MU_STEPS
    stalled = 0
    prev = None
    while held and stalled < mu_steps and iters_left > 0:
        mu = mu0 * 2.0**-stalled
        w = prob.base_w * (np.abs(r) ** 2 + mu**2) ** ((p - 2.0) / 2.0)
        x, spent, held = prob.solve_weighted(w, x, r, iters_left)
        iters_left -= spent
        iterations += spent
        sweeps += 1
        r = prob.residual(x)
        v = prob.residual_norm(r)
        if v < best_v:
            best_x, best_v = x, v
        obj = float(np.sum(prob.base_w * (np.abs(r) ** 2 + mu**2) ** (p / 2)))
        if prev is not None and abs(prev - obj) <= INNER_RTOL * max(obj, 1.0):
            stalled += 1
            prev = None
        else:
            prev = obj
    converged = held and stalled == mu_steps

    poly = FourierSeries.from_dense(best_x, s_lo)
    # report the norm achieved by the polynomial actually returned
    value = prob.residual_norm(prob.residual(poly.dense(s_lo, s_hi)))
    return InfimumResult(
        value=value, polynomial=poly, converged=converged, degree=degree,
        support=support, iterations=iterations, sweeps=sweeps,
    )


def bicyclicity_infimum(f, space, support="all_integers", degree=0, warm=None):
    """Minimize the weighted norm of 1 - P*f over P supported on the choice set.

    Returns the achieved norm (an upper bound on the true infimum at this
    degree, nonincreasing in `degree`) and the optimizing polynomial.
    """
    return _minimize(f, space, None, support, degree, (0, np.ones(1, dtype=complex)), warm)


def forward_shift_infimum(f, space, degree=0, warm=None):
    """Minimize the weighted norm of f - z*Q*f over Q supported on {0..degree}.

    Internally the variable is R = z*Q on {1..degree+1}; the returned
    polynomial is Q itself.
    """
    if warm is not None:
        # the internal variable is R = z*Q, so a warm Q moves up by one
        warm = FourierSeries.from_dense(warm.arr, warm.lo + 1)
    res = _minimize(f, space, None, "positive", degree + 1, (f.lo, f.arr), warm)
    shifted = FourierSeries.from_dense(res.polynomial.arr, res.polynomial.lo - 1)
    return replace(res, polynomial=shifted, degree=degree, support="nonneg")


def szego_lower_bound(f, G=4096):
    """exp of the grid mean of log |f|, exact-zero samples excluded.

    At p = 2, beta = 0 the shift infimum cannot fall below this number, and
    for nonvanishing f it is the infimum's large-degree limit.
    """
    while G < 2 * f.degree + 1:
        G *= 2
    vals = np.abs(eval_on_grid(f, G))
    pos = vals > 0.0
    if not pos.any():
        return 0.0
    return float(np.exp(np.mean(np.log(vals[pos]))))


@dataclass(frozen=True)
class CertificateProblem:
    """Inputs for a cyclicity certificate search."""

    f: FourierSeries
    space: object
    support: str = "all_integers"
    degree_budget: int = 1024
    epsilon_target: float = 0.25
    truncation_tail: float = 0.0

    def __post_init__(self):
        p, beta = _space_params(self.space)
        q = p / (p - 1.0)
        if beta * q > 1.0:
            raise ValueError(
                "beta*q > 1: the space is an algebra and has no cyclic vectors"
            )
        if self.support not in SUPPORTS:
            raise ValueError(f"unknown support {self.support!r}")
        if self.degree_budget < 0:
            raise ValueError("degree_budget must be nonnegative")
        if not (self.epsilon_target > 0.0):
            raise ValueError("epsilon_target must be positive")
        if len(self.f) == 0:
            raise ValueError("f must be nonzero")


@dataclass
class CertificateReport:
    """Outcome of a certificate search with its degree-schedule trace."""

    achieved_bicyclic_norm: float
    achieved_shift_norm: float
    degrees_used: tuple
    verdict: str
    solver_trace: list
    szego_bound: float
    epsilon_target: float
    truncation_tail: float
    best_p: FourierSeries = field(repr=False, default=None)
    best_q: FourierSeries = field(repr=False, default=None)

    def to_json_obj(self):
        return {
            "achieved_bicyclic_norm": self.achieved_bicyclic_norm,
            "achieved_shift_norm": self.achieved_shift_norm,
            "degrees_used": list(self.degrees_used),
            "verdict": self.verdict,
            "solver_trace": self.solver_trace,
            "szego_bound": self.szego_bound,
            "epsilon_target": self.epsilon_target,
            "truncation_tail": self.truncation_tail,
            "best_p": self.best_p.to_json_obj() if self.best_p is not None else None,
            "best_q": self.best_q.to_json_obj() if self.best_q is not None else None,
        }


def _degree_schedule(budget):
    if budget <= 64:
        return [budget]
    degs = [64]
    while degs[-1] * 2 < budget:
        degs.append(degs[-1] * 2)
    degs.append(budget)
    return degs


def certify_cyclic(problem):
    """Search for polynomials P, Q with both certificate norms under the target.

    Degrees double up to the budget, each level warm-started from the last;
    carried-over polynomials stay feasible, so the recorded best norms are
    monotone along the schedule.  Verdicts: `certified` needs both norms
    strictly below the target, `bicyclic_only` the two-sided one alone,
    `failed` otherwise.  The Szego bound documents the p = 2 floor under the
    shift norm; a failed verdict is evidence, not proof, unless that floor
    itself exceeds the target.
    """
    eps = problem.epsilon_target
    best_b = math.inf
    best_s = math.inf
    best_p = None
    best_q = None
    deg_b = deg_s = 0
    trace = []
    for deg in _degree_schedule(problem.degree_budget):
        # a side already under the target is not searched again: None
        conv_b = conv_s = None
        if best_b >= eps:
            rb = bicyclicity_infimum(
                problem.f, problem.space, problem.support, deg, warm=best_p
            )
            conv_b = rb.converged
            if rb.value < best_b:
                best_b, best_p, deg_b = rb.value, rb.polynomial, deg
        if best_s >= eps:
            rs = forward_shift_infimum(problem.f, problem.space, deg, warm=best_q)
            conv_s = rs.converged
            if rs.value < best_s:
                best_s, best_q, deg_s = rs.value, rs.polynomial, deg
        trace.append(
            {"degree": deg, "bicyclic_norm": best_b, "shift_norm": best_s,
             "bicyclic_converged": conv_b, "shift_converged": conv_s}
        )
        if best_b < eps and best_s < eps:
            break
    if best_b < eps and best_s < eps:
        verdict = "certified"
    elif best_b < eps:
        verdict = "bicyclic_only"
    else:
        verdict = "failed"
    return CertificateReport(
        achieved_bicyclic_norm=best_b,
        achieved_shift_norm=best_s,
        degrees_used=(deg_b, deg_s),
        verdict=verdict,
        solver_trace=trace,
        szego_bound=szego_lower_bound(problem.f),
        epsilon_target=eps,
        truncation_tail=problem.truncation_tail,
        best_p=best_p,
        best_q=best_q,
    )


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
        return {
            "schedule": [list(row) for row in self.schedule],
            "normalized_ratios": self.normalized_ratios,
            "verdict": self.verdict,
            "grid_size": self.grid_size,
            "truncation": self.truncation,
            "gamma": self.gamma,
        }


def p_epsilon_decay(f, E, gamma, space, eps_schedule, G=2**14, truncation=None):
    """Track the weighted norm of p_eps * f as eps decreases.

    For each eps the boundary samples of the normalized outer factor p_eps
    are built on the grid (only those: p_eps(0) = 1 by construction), the
    product is transformed back, and the norm is taken at the configured
    truncation.  Recorded alongside: the normalized log-mean m (the same
    number that makes p_eps(0) = 1) and the envelope ratio
    norm^2 / ((1+m) e^(-2m)).  Verdict `decays` means strictly decreasing
    norms with the final below a tenth of the first; anything else `stalls`.
    """
    return _decay_from_distance(
        f, distance_to_set(circle_grid(G), E), gamma, space, eps_schedule, truncation
    )


def _decay_from_distance(f, d, gamma, space, eps_schedule, truncation):
    """`p_epsilon_decay` from the distance d to E sampled on its grid,
    G = len(d); a caller that already holds d samples it once."""
    eps_schedule = [float(e) for e in eps_schedule]
    if len(eps_schedule) < 2:
        raise ValueError("need at least two epsilons")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("eps schedule must be strictly decreasing")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
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

    rows = []
    ratios = []
    for eps in eps_schedule:
        phi, m = _power_modulus(d, gamma, eps, "p_eps")
        _, p_eps = _outer_boundary(phi)
        prod = p_eps * f_grid
        series = series_from_samples(prod, truncation)
        norm = norm_ap_beta(series, space)
        rows.append((eps, m, norm))
        ratios.append(norm**2 / ((1.0 + m) * math.exp(-2.0 * m)))
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


def lemma_kel_ratio(E, gamma, delta_prime, eps_schedule, G):
    """Ratios of the weighted double smoothness integral of F_eps to M_eps,
    and the M_eps values, as two lists over the eps schedule.

    The left side is the arc-length double integral of
    d(zeta',E)^(2(delta'-gamma)) |F_eps(zeta)-F_eps(zeta')|^2 / |zeta-zeta'|^2
    with a chordal diagonal exclusion KEL_EXCLUSION_CELLS / G, evaluated by lag
    reduction (three FFT-sized correlations per eps; the one of two real
    arrays, the weight and |F_eps|^2, by half-length real transforms).
    M_eps is the unnormalized half log-integral, required positive.  Grid
    nodes lying exactly on E are dropped from the weighted sum when the
    weight exponent is negative.
    """
    if 2.0 * delta_prime - gamma - 1.0 < 0.0:
        raise ValueError("need 2*delta' - gamma - 1 >= 0")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    G = int(G)
    if G < 16 or (G & (G - 1)) != 0:
        raise ValueError("G must be a power of two >= 16")
    expo = 2.0 * (delta_prime - gamma)
    d = distance_to_set(circle_grid(G), E)
    g = np.zeros(G)
    pos = d > 0.0
    g[pos] = d[pos] ** expo
    if expo >= 0.0:
        g[~pos] = 0.0 if expo > 0.0 else 1.0

    kernel = lag_kernel(G, KEL_EXCLUSION_CELLS / G, -2.0)
    cell = (TWO_PI / G) ** 2
    spec_g = np.conj(np.fft.rfft(g))  # g is real: a half-length transform

    ratios = []
    m_values = []
    for eps in eps_schedule:
        M = m_epsilon(d, gamma, eps)
        if M <= 0.0:
            raise ValueError(f"M_eps = {M:.4f} <= 0 at eps = {eps}; eps too large")
        _, F = _outer_boundary(_power_modulus(d, gamma, eps, "F_eps")[0])
        absF2 = np.abs(F) ** 2
        t1 = float(np.sum(g * absF2))
        t2 = np.fft.irfft(spec_g * np.fft.rfft(absF2), G)
        a = g * F
        t3 = np.real(np.fft.ifft(np.conj(np.fft.fft(a)) * np.fft.fft(F)))
        lag_sums = t1 + t2 - 2.0 * t3
        lhs = cell * float(np.sum(kernel * lag_sums))
        ratios.append(lhs / M)
        m_values.append(M)
    return ratios, m_values


def classify_regime(dim_estimate, space, smoothness, log_nonintegrable,
                    log_dist_nonintegrable):
    """Cyclicity verdict from zero-set dimension and smoothness class.

    `smoothness` is either the string "c_infty" or a pair ("lip_delta", delta).
    Order of precedence: the algebra exclusion (beta*q > 1), then the
    dimension obstruction (dim > 1 - beta*q), then the sufficient branches
    below 2(1 - beta*q)/q, and `indeterminate` for the gap in between, where
    dimension alone cannot classify.
    """
    p, beta = _space_params(space)
    if not (1.0 < p <= 2.0):
        raise ValueError("classification needs 1 < p <= 2")
    if not (0.0 <= dim_estimate <= 1.0):
        raise ValueError("dim_estimate must lie in [0, 1]")
    q = p / (p - 1.0)
    bq = beta * q
    if bq > 1.0:
        return "no_cyclic_vectors"
    if dim_estimate > 1.0 - bq:
        return "not_cyclic"
    threshold = 2.0 * (1.0 - bq) / q
    if smoothness == "c_infty":
        if dim_estimate < threshold and log_nonintegrable:
            return "cyclic_sufficient"
        return "indeterminate"
    if isinstance(smoothness, (tuple, list)) and len(smoothness) == 2 and smoothness[0] == "lip_delta":
        delta = float(smoothness[1])
        if (
            delta > beta + 1.0 / p - 0.5
            and dim_estimate < threshold
            and log_dist_nonintegrable
        ):
            return "cyclic_sufficient"
        return "indeterminate"
    raise ValueError(f"unknown smoothness class {smoothness!r}")
