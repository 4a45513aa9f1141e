"""Certificate optimizers and the cyclicity classification logic.

The two infimum solvers minimize the weighted coefficient norm of 1 - P*f
(two-sided polynomials P) and of f - z*Q*f (analytic polynomials Q).  Both
objectives are exact finite sums, since degrees add under multiplication.
At p = 2 they are weighted linear least squares; for 1 < p < 2 the smoothed
objective

    sum_n w_n (|r_n|^2 + mu^2)^(p/2),    w_n = (1 + |n|)^(p*beta)

is driven to mu -> 0 by a geometric continuation schedule, each step taking
truncated Newton steps on its smoothed objective until one of them moves
that objective by at most INNER_RTOL (Nocedal & Wright, Numerical
Optimization, 2006, ch. 7; the smoothing is that of Daubechies, DeVore,
Fornasier & Gunturk, CPAM 63, 2010).  A Newton step solves H d = A^H W r,
W = diag(w_n s^((p-2)/2)), s = |r|^2 + mu^2, by CG, where H is the
objective's Hessian over p.  A step that stalls is taken unless it
climbs; any other goes through an Armijo line search, which tries the CG
iterate first and halves from there, and a step it refuses stalls too.
One loop serves every p: at p = 2 the curvature term of H is zero and the
weights are fixed, so the Newton step is the weighted least-squares sweep
and the schedule is one step long.  Every search, whatever p and
beta, starts with one solve from zero with the base weights w_n, towards
the l2 minimizer; the best of its result, zero and any warm start seeds
the continuation.  The search returns the best of these seeds and of the
points where a continuation step stalled, each a minimizer of its
smoothed objective to within INNER_RTOL, so the value does not depend on
how closely CG solved the Newton steps between them.  Every solve runs
conjugate gradients on x as a real vector, preconditioned by the inverse of
the unweighted normal matrix T = A^H A.  T is Toeplitz, the autocorrelation
of f, and the weights are bounded, so T is spectrally equivalent to the
Hessian and each solve takes few iterations; at beta = 0 the seed solve's
preconditioner is exact, so it takes about one.  T^-1 is applied by the
Gohberg-Semencul formula from one solve per problem, the only direct
solve: the engine's own Hermitian Levinson-Durbin recursion, one vector
whose inner products run over f's band of lags only.  Where it breaks down,
it runs on T + delta t_0 I for the least delta of a doubling sequence that
holds, so CG never runs unpreconditioned.  All solves of one infimum share
one total iteration budget, the only cap on its work; spending it, a CG
breakdown or a T that is not finite ends the search unconverged.  The
spectrum of f is computed once per problem, at the transform lengths
`scipy.signal.fftconvolve` would pick, so each convolution is one forward
and one inverse transform and rounds exactly as scipy's does.  Each
transform is one direct call of `scipy.fft._pocketfft.pypocketfft.c2c`, the
kernel that scipy.fft's default backend runs: on small problems scipy.fft's
per-call dispatch cost more than the transforms.  The autocorrelation of f,
the first column of T, is one more such convolution, through the engine's
own `fftconvolve`; the engine imports neither scipy.signal nor
scipy.linalg.  Importing the engine loads no scipy subpackage: scipy.fft
loads, and its kernel is bound, at the first transform, so a run that never
solves never loads it.  `lsmr`, which no solve calls, is bound on its first
lookup.  Solver output is always an upper bound witnessed by the returned
polynomial; reported values are recomputed from that polynomial, never read
off the iteration.
"""

import contextlib
import functools
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np
import scipy

# re-exported: perfbench/tracing.py looks both sweeps up on this module
from .analytic import lemma_kel_ratio, p_epsilon_decay
from .fourier import FourierSeries, SpaceIndex, _space_params, eval_on_grid

SUPPORTS = ("all_integers", "nonneg", "positive")

# continuation schedule: mu_j = MU_SCALE*||r0||_inf * 2^-j over MU_STEPS steps;
# step j takes Newton steps on its smoothed objective until one step moves
# that objective by at most INNER_RTOL relative
MU_STEPS = 8
MU_SCALE = 0.1
INNER_RTOL = 1e-10
# the Armijo constant: a Newton step of length t is taken once the smoothed
# objective there is at most f + ARMIJO_C1 * t * slope, where f is the
# objective at the step's start and slope < 0 its derivative along the step
ARMIJO_C1 = 1e-4
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


_c2c = None  # pocketfft's complex transform, bound once by _load_fft


def _load_fft():
    """Load scipy.fft, at the first transform rather than at import, and
    bind `_c2c` to `scipy.fft._pocketfft.pypocketfft.c2c`, the kernel that
    scipy.fft's default backend runs under its per-call dispatch."""
    global _c2c
    import scipy.fft

    if _c2c is None:
        from scipy.fft._pocketfft import pypocketfft

        _c2c = pypocketfft.c2c


def _fft(x, size):
    """Bit for bit `scipy.fft.fft(x, size)` for float64 or complex128 x with
    len(x) <= size: x is zero-padded into a fresh buffer of its own dtype,
    as scipy pads it, and the kernel transforms a complex buffer in place
    (a real one by its half-spectrum path, into a new array, as in scipy)."""
    buf = np.zeros(size, x.dtype)
    buf[: len(x)] = x
    return _c2c(buf, (0,), True, 0, buf if buf.dtype.kind == "c" else None, 1)


def _fft_into(x, buf):
    """`_fft(x, len(buf))` for complex128 x, zero-padded into the complex128
    buffer buf, which the caller owns, and transformed there in place."""
    buf[: len(x)] = x
    buf[len(x) :] = 0.0
    return _c2c(buf, (0,), True, 0, buf, 1)


def _ifft(X):
    """Bit for bit `scipy.fft.ifft(X)` for complex128 X, computed in place:
    X is overwritten, so callers pass a temporary they own."""
    return _c2c(X, (0,), False, 2, X, 1)


class _Convolution:
    """x -> conv(a, x)[keep] for a fixed a and inputs x of one length.

    The result is bit for bit that of `scipy.signal.fftconvolve(a, x)[keep]`
    for complex a or x: the spectrum of a is taken once, at the length
    `fftconvolve` pads to, and each call is one forward and one inverse
    transform, each one direct call of the pocketfft kernel that scipy.fft
    dispatches to (`_fft`, `_ifft`).  Like `fftconvolve`, a length-1
    operand is a plain product.  A complex x is transformed in one work
    buffer the object keeps, and the spectra are multiplied there by
    `np.multiply(spectrum, buf, out=buf)`, the spectrum of a first as in
    fftconvolve: numpy's complex product, fused multiply-adds and all, is
    not commutative bit for bit.  A float64 x keeps the kernel's
    half-spectrum path, into a fresh array.  The result is a fresh array,
    or the caller's `out`, never the work buffer, so it outlives later
    calls; the buffer makes an object serve one call at a time.
    """

    def __init__(self, a, n_x, keep=slice(None)):
        self.n_out = len(a) + n_x - 1
        self.a = a
        self.keep = keep
        self.size = None
        if len(a) > 1 and n_x > 1:
            _load_fft()
            self.size = scipy.fft.next_fast_len(self.n_out, False)
            self.spectrum = _fft(a, self.size)
            self._work = np.empty(self.size, dtype=complex)

    def __call__(self, x, out=None):
        """conv(a, x)[keep] in a fresh array, or written into out."""
        if self.size is None:
            y = self.a * x
        else:
            buf = _fft_into(x, self._work) if x.dtype.kind == "c" else _fft(x, self.size)
            np.multiply(self.spectrum, buf, out=buf)
            y = _ifft(buf)[: self.n_out]
        if out is None:
            return y[self.keep].copy()
        np.copyto(out, y[self.keep])
        return out


def fftconvolve(a, x):
    """The full convolution of a and x by one :class:`_Convolution`.

    When a or x is complex it is bit for bit `scipy.signal.fftconvolve(a, x)`;
    every FourierSeries slab is complex.  Two real operands are not covered:
    scipy then takes half-spectrum transforms.  Callers go through this
    module global, so a tracer that wraps `engine.fftconvolve` sees every
    call.
    """
    return _Convolution(a, len(x))(x)


def _levinson_durbin(col):
    """x = T^-1 e_0 for the Hermitian Toeplitz matrix T with first column
    col, t_m = col[m] and t_-m = conj(t_m), by Durbin's recursion (Golub &
    Van Loan, Matrix Computations, 4th ed., section 4.7).

    From a = [1] and E = t_0, step k extends the solution of T_k a = E e_0
    to order k + 1 by one reflection: Delta = sum_j t_(k-j) a_j,
    gamma = Delta / E, a_i -= gamma conj(a_(k-i)) for i = 1..k, and
    E *= 1 - |gamma|^2; then x = a / E.  One vector, and on positive
    definite T as stable as Levinson's recursion (Cybenko, SIAM J. Sci.
    Stat. Comput. 1, 1980).  Lags past the last nonzero entry of col, the
    band, are zero, so Delta sums over the band only.  Raises ValueError
    where E is not finite and > 0: then |gamma| >= 1, and T is not
    numerically positive definite.
    """
    n = len(col)
    nonzero = np.flatnonzero(col)
    band = int(nonzero[-1]) if len(nonzero) else 0
    a = np.zeros(n, dtype=complex)
    a[0] = 1.0
    buf = np.empty(n, dtype=complex)
    broke_down = "Levinson-Durbin recursion broke down: T is not numerically positive definite"
    E = float(col[0].real)
    if not 0.0 < E < math.inf:
        raise ValueError(broke_down)
    for k in range(1, n):
        lo = k - band if k > band else 0  # t_(k-j) = 0 for j < lo
        gamma = np.dot(col[k - lo : 0 : -1], a[lo:k]) / E
        # a_i -= gamma conj(a_(k-i)), i = 1..k, in one buffer and without
        # temporaries; gamma is the left factor, since numpy's complex
        # product is not commutative bit for bit
        reflected = buf[:k]
        np.conjugate(a[k - 1 :: -1], out=reflected)
        np.multiply(gamma, reflected, out=reflected)
        np.subtract(a[1 : k + 1], reflected, out=a[1 : k + 1])
        E *= 1.0 - float(abs(gamma)) ** 2
        if not 0.0 < E < math.inf:
            raise ValueError(broke_down)
    return a / E


class _ToeplitzInverse:
    """y -> T^-1 y for a Hermitian positive definite Toeplitz matrix T.

    With x = T^-1 e_0 from one Hermitian Levinson-Durbin solve
    (:func:`_levinson_durbin`), the Gohberg-Semencul formula

        T^-1 = (1/x_0) [L(x) L(x)^H - L(v) L(v)^H],    v = Z J conj(x),

    holds, where L(u) is the lower triangular Toeplitz matrix with first
    column u, J reverses and Z shifts down by one.  The spectra of x and v
    are taken once, at a length of at least 2n that keeps the circular
    products exact; each apply is then six transforms, each one direct call
    of the pocketfft kernel, as in :class:`_Convolution`, in two work
    buffers of that length that the object keeps, and the result is a
    fresh array.  Raises ValueError when the recursion breaks down; a
    larger t_0 may then hold.
    """

    def __init__(self, col):
        _load_fft()
        x = _levinson_durbin(col)
        n = len(col)
        x = x / math.sqrt(x[0].real)  # folds the 1/x_0 into both factors
        v = np.zeros(n, dtype=complex)
        v[1:] = np.conj(x[:0:-1])
        self.n = n
        self.size = scipy.fft.next_fast_len(2 * n, False)
        self.x_spec = _fft(x, self.size)
        self.v_spec = _fft(v, self.size)
        # the spectra of the adjoints, conjugated once: conjugation is exact
        self.x_spec_conj = np.conj(self.x_spec)
        self.v_spec_conj = np.conj(self.v_spec)
        self._y = np.empty(self.size, dtype=complex)
        self._a = np.empty(self.size, dtype=complex)

    def __call__(self, y):
        n = self.n
        # y's spectrum in one work buffer (a fresh one for float64 y, by the
        # half-spectrum path); the adjoints L(u)^H y are correlations, cut to
        # the first n entries, the one of v taken in y's buffer once the one
        # of x is out.  Each product keeps the factor order of
        # `spectrum * buf`, as in _Convolution
        y_spec = _fft_into(y, self._y) if y.dtype.kind == "c" else _fft(y, self.size)
        a = np.multiply(self.x_spec_conj, y_spec, out=self._a)
        b = np.multiply(self.v_spec_conj, y_spec, out=y_spec)
        for u, u_spec in ((a, self.x_spec), (b, self.v_spec)):
            _fft_into(_ifft(u)[:n], u)
            np.multiply(u_spec, u, out=u)
        return _ifft(np.subtract(a, b, out=a))[:n].copy()


class _ConvObjective:
    """Residual b - conv(f, x) over a fixed output index range.

    The convolution with f and its adjoint, the correlation with f, each
    hold the spectrum of f, computed once per problem.
    """

    def __init__(self, f_lo, f_arr, s_lo, s_hi, target_lo, target_arr, p, beta):
        self.f_arr = f_arr
        self.n_cols = s_hi - s_lo + 1
        self._conv = _Convolution(f_arr, self.n_cols)
        # the adjoint correlates with f the rows that apply writes, and keeps
        # the lags of the columns
        nf = len(f_arr)
        self._corr = _Convolution(np.conj(f_arr[::-1]), self._conv.n_out,
                                  slice(nf - 1, nf - 1 + self.n_cols))
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
        self._conv(x, out=y[self.conv_off : self.conv_off + self._conv.n_out])
        return y

    def adjoint(self, y):
        """The adjoint of :meth:`apply`: correlate y with f over the columns."""
        return self._corr(y[self.conv_off : self.conv_off + self._conv.n_out])

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
        """y -> (T + delta t_0 I)^-1 y, T = A^H A, by a _ToeplitzInverse built
        once, at the first delta of 0, n eps 2^j < 1 (j >= 0, n = len(T)) and 1
        that holds, which it keeps as `shift`.  A Gram T fails at 1 only if
        it is not finite: then None."""
        col = self.normal_column
        n_eps = len(col) * np.finfo(float).eps
        for delta in [0.0, *n_eps * 2.0 ** np.arange(-np.log2(n_eps)), 1.0]:
            with contextlib.suppress(ValueError):
                inverse = _ToeplitzInverse(np.append(col[0] * (1 + delta), col[1:]) if delta else col)
                inverse.shift = float(delta)
                return inverse
        return None

    def smoothed_objective(self, r, mu):
        """sum_n w_n (|r_n|^2 + mu^2)^(p/2), the objective of one
        continuation step at the residual r."""
        return float(np.sum(self.base_w * (np.abs(r) ** 2 + mu**2) ** (self.p / 2)))

    def hessian(self, w, resid, c=None):
        """d -> A^H [w A d + c r Re(conj(r) A d)] with r = resid.

        With w = w_n s^((p-2)/2), c = (p-2) w_n s^(p/2-2) and
        s = |r|^2 + mu^2, this is the Hessian of the smoothed objective at
        the point whose residual is r, divided by p, on x as a real vector.
        At p = 2 c is zero, and the Hessian is A^H W A, the weighted normal
        matrix; without c it is that matrix for any w, the form the seed
        solve takes.  Either is real-linear and self-adjoint under
        Re<u, v>.  For 1 < p < 2 the Hessian is positive definite: row n
        adds w |(A d)_n|^2 + c Re(conj(r_n) (A d)_n)^2 to Re<d, H d>, with
        c < 0, which is least where (A d)_n is a real multiple of r_n, and
        is then w_n s^(p/2-2) (mu^2 + (p-1)|r_n|^2) |(A d)_n|^2 > 0.
        """
        # w A d + c r Re(conj(r) A d) in A d's fresh array and one work
        # array made once per call, each product in the factor order written
        # there.  numpy casts a real factor to complex with a zero imaginary
        # part: w is cast here once, and Re(conj(r) A d) by zeroing that
        # part in place.  Every result is a fresh array from the adjoint
        w = w.astype(complex)
        if c is None:
            def apply(d):
                ad = self.apply(d)
                return self.adjoint(np.multiply(w, ad, out=ad))

            return apply
        cr, r_conj = c * resid, np.conj(resid)
        term = np.empty(self.n_rows, dtype=complex)

        def apply(d):
            ad = self.apply(d)
            np.multiply(r_conj, ad, out=term)
            term.imag = 0.0
            np.multiply(cr, term, out=term)
            np.multiply(w, ad, out=ad)
            return self.adjoint(np.add(ad, term, out=ad))

        return apply

    def solve_weighted(self, w, x, resid, maxiter, c=None):
        """One step from x, given its residual resid = b - conv(f, x): the
        new iterate, the iterations spent, and whether the solve held, that
        is, reached PCG_RTOL.

        Runs preconditioned CG on H (y - x) = A^H W resid, W = diag(w), with
        H = `hessian(w, resid, c)`.  With c it is the Newton step on the
        smoothed objective, whose gradient is -p A^H W resid.  Without c, as
        in the seed solve, or with c = 0, as at p = 2, it is the weighted
        normal equations A^H W A y = A^H W b, whose solution minimizes
        sum_n w_n |b_n - conv(f, y)_n|^2: the weighted least-squares sweep,
        the Newton step at p = 2.  CG takes the real inner product Re<u, v>,
        runs for at most maxiter iterations, is charged at least one, and
        stops once the preconditioned residual norm sqrt(r^H M r) has fallen
        by PCG_RTOL from its start.  A solve that stops at maxiter short of
        that did not hold.  Both H and M are positive definite, so a
        curvature d^H H d or residual product r^H M r that is not positive
        (zero only at an exact solution) is a breakdown: the solve stops
        there, returns its current iterate and reports that it did not hold.

        The solve owns its iterate x, its residual r and its direction d, and
        updates them in place, with the operations and operand orders of
        x + alpha d, r - alpha q and z + beta d, so every bit is as in those
        expressions.  x is copied once per solve: the caller's x and resid
        are never written, and an iterate a solve returns is not touched by
        a later one, as `_minimize`, which keeps earlier iterates, needs.
        """
        precond = self.preconditioner
        if precond is None:
            return x, 1, False
        hessian = self.hessian(w, resid, c)
        r = self.adjoint(w * resid)
        z = precond(r)
        rz = float(np.real(np.vdot(r, z)))
        if not rz > 0.0:
            return x, 1, not np.any(r)
        stop = PCG_RTOL**2 * rz
        # q and z come fresh from the operators; x is the caller's until here
        x = x.astype(complex)
        step = np.empty_like(x)
        d = z
        spent = 0
        while spent < maxiter and rz > stop:
            q = hessian(d)
            spent += 1
            dq = float(np.real(np.vdot(d, q)))
            if not dq > 0.0:
                return x, spent, False
            alpha = rz / dq
            x += np.multiply(alpha, d, out=step)
            r -= np.multiply(alpha, q, out=q)
            z = precond(r)
            rz_next = float(np.real(np.vdot(r, z)))
            if not rz_next >= 0.0:
                return x, spent, False
            d = np.add(z, np.multiply(rz_next / rz, d, out=d), out=d)
            rz = rz_next
        return x, max(spent, 1), rz <= stop


@dataclass(frozen=True)
class InfimumResult:
    """Solver outcome: the achieved norm and the polynomial witnessing it.

    The degree and support searched are the caller's, not repeated here.
    `sweeps` counts the solves: the seed solve, then the Newton steps, at
    p = 2 the weighted least-squares sweeps.  `iterations` counts the CG
    iterations they were charged.

    `converged` means that every solve held, reaching PCG_RTOL with no CG
    breakdown, and that every continuation step stalled, on a step within
    INNER_RTOL or one the line search turned down: the schedule ended.  A
    solve cut off when LSMR_TOTAL_BUDGET ran out did not hold, so a search
    that spends its budget inside a step has not converged, even in the
    last step.  It does not mean that `value` is near the infimum; only a
    certified lower bound could show that.

    `precond_shift` is the delta of the preconditioner (T + delta t_0 I)^-1
    the solves ran with: 0.0 when the Levinson-Durbin recursion held on T,
    the least shift that held after a breakdown, and None when none held
    and no solve ran.
    """

    value: float
    polynomial: FourierSeries
    converged: bool
    iterations: int = 0
    sweeps: int = 0
    precond_shift: float | None = None

    def __iter__(self):
        yield self.value
        yield self.polynomial


def _solver_space(space):
    """(p, beta) of a SpaceIndex or a bare p that the solver handles."""
    p = space.p if isinstance(space, SpaceIndex) else float(space)
    if not (1.0 < p <= 2.0):
        raise ValueError("the solver handles 1 < p <= 2 only")
    return _space_params(space)


def _armijo(prob, mu, w, f0, x, r, y, r_y, obj):
    """Backtrack the Newton step from x (residual r, smoothed objective f0)
    to y (residual r_y, smoothed objective obj) by the Armijo rule: the
    first point x + t (y - x), t = 1, 1/2, 1/4, ..., whose smoothed
    objective is at most f0 + ARMIJO_C1 * t * slope, with its residual and
    objective; slope is the objective's derivative along y - x.  Once
    x + t (y - x) rounds to x the step is not taken: x itself comes back,
    and the caller ends the mu step there.
    """
    # the objective's derivative along y - x, whose image A(y - x) is r - r_y
    slope = -prob.p * float(np.sum(w * np.real(np.conj(r) * (r - r_y))))
    step = y - x
    t = 1.0
    while not obj <= f0 + ARMIJO_C1 * t * slope:
        t /= 2.0
        y = x + t * step
        if np.array_equal(y, x):
            return x, r, f0
        r_y = prob.residual(y)
        obj = prob.smoothed_objective(r_y, mu)
    return y, r_y, obj


def _minimize(f, space, support, degree, target, warm=None):
    p, bval = _solver_space(space)
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
    # Solve 1 is the l2 solve with the base weights, from zero, whose
    # residual is b: at beta = 0 its preconditioner is the exact inverse, so
    # it lands on the l2 minimizer in about one iteration.  Each later solve
    # starts from the residual the step before it left.  A solve that
    # breaks down ends the search, not converged, at the best iterate so far
    iters_left = LSMR_TOTAL_BUDGET
    x_ls, iterations, held = prob.solve_weighted(prob.base_w, zeros, prob.b, iters_left)
    iters_left -= iterations
    sweeps = 1
    # seed the continuation with the best available iterate and never
    # return worse;
    # the residual of zero is b itself, so it costs no convolution
    candidates = [zeros]
    residuals = [prob.b.copy()]
    if warm is not None:
        candidates.append(warm.dense(s_lo, s_hi))
    candidates.append(x_ls)
    residuals += [prob.residual(c) for c in candidates[1:]]
    norms = [prob.residual_norm(r) for r in residuals]
    k = norms.index(min(norms))  # ties go to the earliest candidate
    x, r = candidates[k], residuals[k]
    best_x, best_v = x, norms[k]
    mu0 = MU_SCALE * float(np.max(np.abs(r)))
    if mu0 == 0.0:
        mu0 = 1e-12
    # step j, the one after j stalled steps, takes Newton steps at
    # mu0 * 2^-j, and the search has converged once every step has stalled;
    # the smoothing does nothing at p = 2, whose schedule is one step
    mu_steps = 1 if p == 2.0 else MU_STEPS
    stalled = 0
    while held and stalled < mu_steps and iters_left > 0:
        mu = mu0 * 2.0**-stalled
        s = np.abs(r) ** 2 + mu**2
        w = prob.base_w * s ** ((p - 2.0) / 2.0)
        # the Newton step's curvature term, identically zero at p = 2, where
        # the step is the weighted least-squares sweep
        c = (p - 2.0) * prob.base_w * s ** (p / 2.0 - 2.0)
        y, spent, held = prob.solve_weighted(w, x, r, iters_left, c)
        iters_left -= spent
        iterations += spent
        sweeps += 1
        f0 = prob.smoothed_objective(r, mu)
        r_y = prob.residual(y)
        obj = prob.smoothed_objective(r_y, mu)
        # a step that moves the objective by at most INNER_RTOL stalls, and
        # is taken unless it climbs; a step the line search turns down stalls
        # too, since from the same point it would be turned down again
        stall = abs(f0 - obj) <= INNER_RTOL * max(obj, 1.0)
        if not stall:
            y, r_y, obj = _armijo(prob, mu, w, f0, x, r, y, r_y, obj)
            stall = y is x
        if not stall or obj <= f0:
            x, r = y, r_y
        # a step whose solve did not hold (a breakdown, or a budget spent
        # short of PCG_RTOL) ends the search and counts as no stall, however
        # little it moved
        stalled += held and stall
        # a point is a candidate where its mu step stalls and where the
        # search stops unconverged; the Newton iterates in between sit
        # wherever CG's inexact solves left them
        if stall or not held or iters_left <= 0:
            v = prob.residual_norm(r)
            if v < best_v:
                best_x, best_v = x, v
    converged = stalled == mu_steps

    poly = FourierSeries.from_dense(best_x, s_lo)
    # report the norm achieved by the polynomial actually returned
    value = prob.residual_norm(prob.residual(poly.dense(s_lo, s_hi)))
    precond = prob.preconditioner
    return InfimumResult(value=value, polynomial=poly, converged=converged,
                         iterations=iterations, sweeps=sweeps,
                         precond_shift=None if precond is None else precond.shift)


def bicyclicity_infimum(f, space, support="all_integers", degree=0, warm=None):
    """Minimize the weighted norm of 1 - P*f over P supported on the choice set.

    Returns the achieved norm (an upper bound on the true infimum at this
    degree, nonincreasing in `degree`) and the optimizing polynomial.
    """
    return _minimize(f, space, support, degree, (0, np.ones(1, dtype=complex)), warm)


def forward_shift_infimum(f, space, degree=0, warm=None):
    """Minimize the weighted norm of f - z*Q*f over Q supported on {0..degree}.

    Internally the variable is R = z*Q on {1..degree+1}; the returned
    polynomial is Q itself.
    """
    if warm is not None:
        # the internal variable is R = z*Q, so a warm Q moves up by one
        warm = FourierSeries.from_dense(warm.arr, warm.lo + 1)
    res = _minimize(f, space, "positive", degree + 1, (f.lo, f.arr), warm)
    shifted = FourierSeries.from_dense(res.polynomial.arr, res.polynomial.lo - 1)
    return replace(res, polynomial=shifted)


def szego_lower_bound(f):
    """exp of the grid mean of log |f|, exact-zero samples dropped.

    The grid has 4096 points, doubled until it resolves f.  For
    nonvanishing f it is the p = 2, beta = 0 shift infimum's large-degree
    limit, but it is not a floor under that infimum: on z - 1 it returns
    1.0020333, where the infimum is 1.0019361 at degree 256 and 1.0001220
    at degree 4096, because the grid's sample at the zero is dropped.  A
    certified floor is D20.
    """
    G = 4096
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
    zero_set_measure: float = None  # see certify_cyclic; None when unknown

    def __post_init__(self):
        p, beta = _solver_space(self.space)
        q = p / (p - 1.0)
        if beta * q > 1.0:
            raise ValueError(
                "beta*q > 1: the space is an algebra and has no cyclic vectors"
            )
        if self.support not in SUPPORTS:
            raise ValueError(f"unknown support {self.support!r}")
        budget = self.degree_budget
        if isinstance(budget, bool) or not isinstance(budget, (int, np.integer)):
            raise ValueError("degree_budget must be an integer")
        if budget < 0:
            raise ValueError("degree_budget must be nonnegative")
        if not (0.0 < self.epsilon_target < math.inf):
            raise ValueError("epsilon_target must be a positive finite number")
        if not (0.0 <= self.truncation_tail < math.inf):
            raise ValueError("truncation_tail must be a finite number >= 0")
        m = self.zero_set_measure
        if m is not None and (
            isinstance(m, bool)
            or not isinstance(m, (int, float, np.integer, np.floating))
            or not (0.0 <= m <= 2.0 * math.pi)
        ):
            raise ValueError("zero_set_measure must be None or a number in [0, 2 pi]")
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
    zero_set_measure: float
    obstruction: str
    best_p: FourierSeries = field(repr=False, default=None)
    best_q: FourierSeries = field(repr=False, default=None)

    def to_json_obj(self):
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj["degrees_used"] = list(self.degrees_used)
        for key in ("best_p", "best_q"):
            obj[key] = None if obj[key] is None else obj[key].to_json_obj()
        return obj


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
    monotone along the schedule.  Each trace row holds, per side, the best
    norm so far and the level's search's `converged` and `precond_shift`,
    None for a side already under the target and not searched.  Verdicts: `certified` needs both norms
    strictly below the target, `bicyclic_only` the two-sided one alone,
    `failed` otherwise.  The Szego bound, the grid mean of log |f| with
    exact zeros dropped, is reported beside the shift norm; it is not a
    certified floor (that is D20), so a failed verdict is evidence, not
    proof.  A positive `zero_set_measure`, that of the set the function f
    approximates vanishes on, makes that function neither cyclic nor
    bicyclic: l^p_beta (beta >= 0, p <= 2) embeds densely in l^2, where
    those vectors vanish on null sets only (Wiener).  `obstruction` then
    reads `zero_set_positive_measure`, and a `certified` or
    `bicyclic_only` verdict reads `truncation_only`.
    """
    eps = problem.epsilon_target
    f, space = problem.f, problem.space
    # bound to the module's infima at each call, so a tracer that wraps them
    # sees every search; the two sides run in this order at every level
    searches = {
        "bicyclic": functools.partial(bicyclicity_infimum, f, space, problem.support),
        "shift": functools.partial(forward_shift_infimum, f, space),
    }
    best = {side: (math.inf, None, 0) for side in searches}  # (norm, poly, degree)
    trace = []
    for deg in _degree_schedule(problem.degree_budget):
        row = {"degree": deg}
        for side, search in searches.items():
            # a side already under the target is not searched again: None
            converged = shift = None
            if best[side][0] >= eps:
                res = search(deg, warm=best[side][1])
                converged, shift = res.converged, res.precond_shift
                if res.value < best[side][0]:
                    best[side] = (res.value, res.polynomial, deg)
            row[side + "_norm"] = best[side][0]
            row[side + "_converged"] = converged
            row[side + "_precond_shift"] = shift
        trace.append(row)
        if all(norm < eps for norm, _, _ in best.values()):
            break
    (best_b, best_p, deg_b), (best_s, best_q, deg_s) = best["bicyclic"], best["shift"]
    obstruction = "zero_set_positive_measure" if problem.zero_set_measure else None
    if best_b >= eps:
        verdict = "failed"
    elif obstruction:
        verdict = "truncation_only"
    else:
        verdict = "certified" if best_s < eps else "bicyclic_only"
    return CertificateReport(
        achieved_bicyclic_norm=best_b,
        achieved_shift_norm=best_s,
        degrees_used=(deg_b, deg_s),
        verdict=verdict,
        solver_trace=trace,
        szego_bound=szego_lower_bound(f),
        epsilon_target=eps,
        truncation_tail=problem.truncation_tail,
        zero_set_measure=problem.zero_set_measure,
        obstruction=obstruction,
        best_p=best_p,
        best_q=best_q,
    )


def classify_regime(dim_estimate, space, smoothness, log_nonintegrable,
                    log_dist_nonintegrable):
    """Cyclicity verdict from zero-set dimension and smoothness class.

    `smoothness` is either the string "c_infty" or a pair ("lip_delta", delta).
    Order of precedence: the algebra exclusion (beta*q > 1), then the
    dimension obstruction (dim > 1 - beta*q), then the sufficient branches
    below 2(1 - beta*q)/q, and `indeterminate` for the gap in between, where
    dimension alone cannot classify.  The Lip-delta branch reads only
    `log_dist_nonintegrable`: |f| <= C d^delta, so a non-integrable log d
    makes log|f| non-integrable too, and the flag implies
    `log_nonintegrable`.  No l^2 obstruction is checked yet: a zero set of
    positive measure, or an integrable log|f|, rules out cyclicity in every
    space handled here, but the verdict does not read either.
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
