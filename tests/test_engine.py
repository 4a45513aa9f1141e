"""Tests for the certificate optimizers, decay experiment and classifier.

Frozen values below come from independent oracles computed before
engine.py existed:

- closed forms for f = z - 1 by the resistor-chain reduction of the
  least-squares normal equations: a unit source driven through M + 2 (or
  2M + 2) unit links gives value^2 = 1/(M+2) on nonneg support,
  1/(2M+2) on all of Z, and 1 + 1/(M+2) for the shift objective
- IRLS references at p in {1.5, 1.25}, beta = 0.25, degree 8, from a
  dense scipy.optimize run (trust-constr on stacked real coordinates,
  gtol 1e-12) on the same exact finite objective
- the Szego limit exp(mean log |1 - h_3|) = 1/4, exact because 1 - h_3
  is an outer Moebius factor with modulus (1/3)/|z - 4/3|
- decay and kernel-ratio smoke numbers pinned from the first verified
  run of the grid pipeline (middle-thirds depth 8, grids 2^11 and 2^10)
"""

import functools
import inspect
import json
import math
import os
import subprocess
import sys
from decimal import Decimal, getcontext
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from cyclab import analytic, engine, fourier
from cyclab.analytic import (
    h_k,
    half_log_integrand,
    lag_kernel,
    lemma_kel_ratio,
    m_epsilon,
    outer_power_modulus,
    p_epsilon_decay,
    smooth_vanishing_function,
)
from cyclab.engine import (
    SUPPORTS,
    CertificateProblem,
    CertificateReport,
    InfimumResult,
    _ConvObjective,
    bicyclicity_infimum,
    certify_cyclic,
    classify_regime,
    forward_shift_infimum,
    szego_lower_bound,
)
from cyclab.fourier import (
    FourierSeries,
    SpaceIndex,
    circle_grid,
    eval_on_grid,
    norm_ap_beta,
    series_from_samples,
)
from cyclab.geometry import (
    cantor_build,
    cantor_spec_by_name,
    distance_to_set,
    middle_thirds_spec,
)
from cyclab.presets import build_function

Z_MINUS_1 = FourierSeries({0: -1.0, 1: 1.0})
P15 = SpaceIndex(p=1.5, beta=0.0)
P2 = SpaceIndex(p=2.0, beta=0.0)

# dense trust-constr oracle, f = z - 1, degree 8, nonneg support, beta = 0.25
IRLS_ORACLE = {
    1.5: 6.431092342593e-01,
    1.25: 8.412600353680e-01,
}

# first verified run of the grid pipeline, middle-thirds depth 8
DECAY_NORMS_MT8 = [8.541059312682e-02, 5.709270761867e-02, 4.617453636381e-02]
KEL_RATIOS_MT8 = [1.111035296551e00, 1.279133511561e00]


def random_series(rng, lo, hi, scale=1.0):
    n = np.arange(lo, hi + 1)
    vals = scale * (rng.standard_normal(n.size) + 1j * rng.standard_normal(n.size))
    return FourierSeries.from_dense(vals, lo)


def certify_small_function():
    """The smooth vanishing function of the certify_small benchmark workload."""
    return build_function(
        "smooth_vanishing",
        {"set": "middle_thirds", "depth": 6, "gamma": 1.0, "grid": 2048,
         "truncate": 256},
    )


def certify_small_function_untruncated():
    """certify_small's function with no truncation: exactly 0 in float64 on a
    tube around the set, so its normal matrix is numerically singular."""
    return build_function(
        "smooth_vanishing",
        {"set": "middle_thirds", "depth": 6, "gamma": 1.0, "grid": 2048},
    )


def infimum_large_function():
    """The smooth vanishing function of the infimum_large benchmark workload."""
    return build_function(
        "smooth_vanishing",
        {"set": "non_carleson_n2", "gamma": 1.0, "grid": 2**14, "truncate": 1024},
    )


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def rotated(f, rng):
    """c_n -> c e^(i n phi) c_n with |c| = 1: every infimum is unchanged."""
    c = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    n = np.arange(f.lo, f.lo + len(f.arr))
    return FourierSeries.from_dense(c * np.exp(1j * n * phi) * f.arr, f.lo)


def recording_solves(monkeypatch):
    """Route _ConvObjective.solve_weighted through a wrapper; returns three
    lists over its calls: the preconditioner each solve ran with, "toeplitz"
    or "plain", the iterations each was charged, and the forcing ratio each
    ran at."""
    kinds, spent, rtols = [], [], []
    real = _ConvObjective.solve_weighted
    signature = inspect.signature(real)

    def wrapper(self, *args, **kwargs):
        toeplitz = isinstance(self.preconditioner, engine._ToeplitzInverse)
        kinds.append("toeplitz" if toeplitz else "plain")
        bound = signature.bind(self, *args, **kwargs)
        bound.apply_defaults()
        rtols.append(bound.arguments["rtol"])
        out = real(self, *args, **kwargs)
        spent.append(out[1])
        return out

    monkeypatch.setattr(_ConvObjective, "solve_weighted", wrapper)
    return kinds, spent, rtols


def residual_norm(f, poly, space, target_one):
    """Recompute the certificate norm from the returned polynomial."""
    prod = poly * f
    if target_one:
        r = FourierSeries({0: 1.0}) - prod
    else:
        r = f - prod * FourierSeries({1: 1.0})
    return norm_ap_beta(r, space)


class DenseObjective(_ConvObjective):
    """The operator with one exact dense solve per step: the reference the
    CG solves must reach."""

    @functools.cached_property
    def matrix(self):
        """The convolution matrix: column j is f at row conv_off + j."""
        cols = np.arange(self.n_cols)
        rows = self.conv_off + cols + np.arange(len(self.f_arr))[:, None]
        A = np.zeros((self.n_rows, self.n_cols), dtype=complex)
        A[rows, cols] = self.f_arr[:, None]
        return A

    def solve_weighted(self, w, x, resid, maxiter, c=None, rtol=engine.PCG_RTOL):
        # the solve is exact, so every forcing ratio rtol holds
        if c is None:
            # the weighted least-squares minimizer
            sqrt_w = np.sqrt(w)
            x = scipy.linalg.lstsq(sqrt_w[:, None] * self.matrix, sqrt_w * self.b)[0]
            return x, 0, True
        # the exact Newton step on x as a real vector (Re x, Im x), as a least
        # squares problem: B is A on those coordinates, the Hessian is
        # B^T M B, and row n's 2x2 block of M is w_n I + c_n rho_n rho_n^T,
        # rho_n = (Re r_n, Im r_n), with eigenvalue w_n across rho_n and
        # lam_n = w_n + c_n |r_n|^2 along it.  With L = M^(1/2) the step
        # solves min |L B d - L^-1 (w rho)|, and L^-1 (w rho) = w rho / sqrt(lam)
        A, m, n = self.matrix, self.n_rows, self.n_cols
        B = np.block([[A.real, -A.imag], [A.imag, A.real]])
        r2 = np.abs(resid) ** 2
        lam = w + c * r2
        shift = (np.sqrt(lam) - np.sqrt(w)) / np.where(r2 > 0.0, r2, 1.0)
        # row n of rho^T B: d -> Re(conj(r_n) (A d)_n)
        proj = resid.real[:, None] * B[:m] + resid.imag[:, None] * B[m:]
        LB = (np.sqrt(np.concatenate([w, w]))[:, None] * B
              + np.concatenate([shift * resid.real, shift * resid.imag])[:, None]
              * np.concatenate([proj, proj]))
        rhs = np.concatenate([w * resid.real, w * resid.imag]) / np.sqrt(np.concatenate([lam, lam]))
        step = scipy.linalg.lstsq(LB, rhs)[0]
        return x + step[:n] + 1j * step[n:], 0, True


class TestAdjointPair:
    @staticmethod
    def check_against_columns(args, rng):
        """apply, adjoint and DenseObjective.matrix against a matrix built
        column by column with np.convolve."""
        prob = _ConvObjective(*args)
        w = prob.base_w
        cols = []
        for j in range(prob.n_cols):
            e = np.zeros(prob.n_cols, dtype=complex)
            e[j] = 1.0
            y = np.zeros(prob.n_rows, dtype=complex)
            conv = np.convolve(prob.f_arr, e)
            y[prob.conv_off : prob.conv_off + len(conv)] = conv
            cols.append(y)
        A = np.stack(cols, axis=1)
        assert np.array_equal(DenseObjective(*args).matrix, A)
        x = rng.standard_normal(prob.n_cols) + 1j * rng.standard_normal(prob.n_cols)
        y = rng.standard_normal(prob.n_rows) + 1j * rng.standard_normal(prob.n_rows)
        assert np.max(np.abs(A @ x - prob.apply(x))) < 1e-12
        assert np.max(np.abs(A.conj().T @ y - prob.adjoint(y))) < 1e-12
        # the weighted products as the solver builds them
        lhs = np.vdot(y, w * prob.apply(x))
        rhs = np.vdot(prob.adjoint(w * y), x)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
        direct = np.vdot(y, (w[:, None] * A) @ x)
        assert abs(lhs - direct) < 1e-12 * max(1.0, abs(lhs))

    def test_matches_dense_matrix(self):
        rng = np.random.default_rng(7)
        for f_lo, nf, s_lo, s_hi in [(-3, 7, -2, 4), (0, 5, 1, 6), (-1, 4, 0, 0)]:
            f_arr = rng.standard_normal(nf) + 1j * rng.standard_normal(nf)
            self.check_against_columns(
                (f_lo, f_arr, s_lo, s_hi, 0, np.ones(1), 1.5, 0.3), rng
            )

    @pytest.mark.parametrize("support", SUPPORTS)
    def test_random_targets_match_dense_matrix(self, support):
        rng = np.random.default_rng(23)
        for _ in range(6):
            f_lo, nf = int(rng.integers(-4, 5)), int(rng.integers(1, 9))
            s_lo, s_hi = engine._support_range(support, int(rng.integers(1, 7)))
            f_arr = rng.standard_normal(nf) + 1j * rng.standard_normal(nf)
            t_lo, nt = int(rng.integers(-6, 7)), int(rng.integers(1, 4))
            t_arr = rng.standard_normal(nt) + 1j * rng.standard_normal(nt)
            self.check_against_columns(
                (f_lo, f_arr, s_lo, s_hi, t_lo, t_arr, 1.5, 0.3), rng
            )


def oracle_correlation(f_arr, y, n_cols):
    """sum_i conj(f_i) y_(i+j) for j < n_cols, y of length n_out = len(f_arr)
    + n_cols - 1, without the engine: the circular correlation at the
    convolution's length `next_fast_len(n_out)`, the conjugated spectrum of
    f the left factor, or the plain product where f has one entry or the
    problem one column."""
    nf = len(f_arr)
    if nf == 1:
        return np.conj(f_arr) * y
    if n_cols == 1:
        return np.array([np.vdot(f_arr, y)])
    size = scipy.fft.next_fast_len(nf + n_cols - 1, False)
    f_spec_conj = np.conj(scipy.fft.fft(f_arr, size))
    y_spec = scipy.fft.fft(y, size)
    return scipy.fft.ifft(f_spec_conj * y_spec)[:n_cols]


class FftconvolveObjective(_ConvObjective):
    """The operator with `fftconvolve` on every call, and the adjoint with
    `oracle_correlation`: the reference the spectrum-caching operator must
    reproduce bit for bit."""

    def apply(self, x):
        y = np.zeros(self.n_rows, dtype=complex)
        conv = fftconvolve(self.f_arr, x)
        y[self.conv_off : self.conv_off + len(conv)] = conv
        return y

    def adjoint(self, y):
        seg = y[self.conv_off : self.conv_off + len(self.f_arr) + self.n_cols - 1]
        return oracle_correlation(self.f_arr, seg, self.n_cols)


def counting_transforms(monkeypatch):
    """Count the forward and inverse transforms the engine makes: the calls
    of the two kernel helpers it looks up, `_padded_c2c` (forward) and
    `_c2c` (by its `forward` flag)."""
    counts = {"fft": 0, "ifft": 0}

    def c2c(x, forward=True, out=None):
        counts["fft" if forward else "ifft"] += 1
        return fourier._c2c(x, forward, out)

    def padded_c2c(x, buf):
        counts["fft"] += 1
        return fourier._padded_c2c(x, buf)

    monkeypatch.setattr(engine, "_c2c", c2c)
    monkeypatch.setattr(engine, "_padded_c2c", padded_c2c)
    return counts


def test_import_loads_no_scipy_subpackage_the_package_does_not_use(tmp_path):
    # importing the package loads no scipy at all, and a `cantor` run none
    # either; scipy.signal alone pulls in scipy.stats, scipy.interpolate and
    # scipy.optimize; scipy.fft, whose import loads scipy.special, at the
    # first transform (a `decay` sweep's or a solve's) and scipy.special
    # alone at the first Lambda-integral, and scipy.linalg and scipy.sparse
    # never: the one direct solve is the engine's own recursion.  Module
    # presence, not wall time, so it cannot flake
    unused = ("scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.optimize")
    lazy = ("scipy", "scipy.fft", "scipy.linalg", "scipy.sparse", "scipy.special")
    src = str(Path(engine.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "\n".join([
        "import json, sys",
        "def loaded(): print(json.dumps([m for m in %r if m in sys.modules]))"
        % (unused + lazy,),
        "import cyclab",
        "loaded()",
        "from cyclab import experiments, presets",
        "cfg = next(e['example_config'] for e in presets.CATALOGUE",
        "           if e['example_config']['experiment'] == 'cantor')",
        "assert experiments.run(dict(cfg, output_dir=%r)).status == 'ok'"
        % str(tmp_path / "cantor"),
        "loaded()",
        "cyclab.lambda_divergence_test(cyclab.geometry.middle_thirds_spec(4), 0.5)",
        "loaded()",
        "decay = {'experiment': 'decay', 'parameters': {'set': 'middle_thirds',",
        "         'depth': 8, 'grid': 4096, 'p': 1.5}}",
        "assert experiments.run(dict(decay, output_dir=%r)).status == 'ok'"
        % str(tmp_path / "decay"),
        "loaded()",
        "f = cyclab.FourierSeries({0: -1.0, 1: 1.0})",
        "cyclab.bicyclicity_infimum(f, cyclab.SpaceIndex(p=1.5, beta=0.0), degree=4)",
        "loaded()",
    ])
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    at_import, after_cantor, after_lambda, after_decay, after_solve = map(
        json.loads, out.stdout.splitlines())
    assert at_import == [] and after_cantor == []
    assert after_lambda == ["scipy", "scipy.special"]
    assert set(after_decay) == {"scipy", "scipy.fft", "scipy.special"}
    assert "scipy.fft" in after_solve
    assert not set(after_solve) & {"scipy.linalg", "scipy.sparse", *unused}


def test_lsmr_is_bound_on_first_lookup():
    # perfbench/tracing.py wraps engine.lsmr by that name; no solve calls it
    import scipy.sparse.linalg

    assert engine.lsmr is scipy.sparse.linalg.lsmr
    with pytest.raises(AttributeError):
        engine.no_such_name


class TestCachedSpectrum:
    # f_lo, nf, degree, real f; a complex f also runs with a real x and y.
    # Every FourierSeries slab and every solver iterate is complex; a
    # float64 operand is read as its complex128 cast, so the reference is
    # given the cast
    CASES = [
        (-3, 7, 5, False),   # f_lo < 0
        (2, 1, 6, False),    # a 1-term f
        (-1, 5, 0, False),   # one column on every support
        (0, 6, 4, True),     # a real-dtype f_arr
        (-1024, 2049, 64, False),
    ]

    @pytest.mark.parametrize("support", SUPPORTS)
    @pytest.mark.parametrize("f_lo, nf, degree, real_f", CASES)
    def test_apply_and_adjoint_match_fftconvolve_bit_for_bit(
        self, support, f_lo, nf, degree, real_f
    ):
        rng = np.random.default_rng(nf + degree)
        # positive support needs degree >= 1; at degree 1 it has one column
        s_lo, s_hi = engine._support_range(support, max(degree, support == "positive"))
        f_arr = rng.standard_normal(nf)
        if not real_f:
            f_arr = f_arr + 1j * rng.standard_normal(nf)
        args = (f_lo, f_arr, s_lo, s_hi, -2, np.ones(3), 1.5, 0.3)
        prob = _ConvObjective(*args)
        ref = FftconvolveObjective(f_lo, f_arr.astype(complex), *args[2:])
        x = rng.standard_normal(prob.n_cols) + 1j * rng.standard_normal(prob.n_cols)
        y = rng.standard_normal(prob.n_rows) + 1j * rng.standard_normal(prob.n_rows)
        xs = [x] if real_f else [x, x.real]
        ys = [y] if real_f else [y, y.real]
        for x in xs:
            assert np.array_equal(prob.apply(x), ref.apply(x.astype(complex)))
        for y in ys:
            assert np.array_equal(prob.adjoint(y), ref.adjoint(y.astype(complex)))

    def test_whole_solve_matches_the_fftconvolve_operator(self, monkeypatch):
        f = certify_small_function()
        runs = []
        for objective in (_ConvObjective, FftconvolveObjective):
            monkeypatch.setattr(engine, "_ConvObjective", objective)
            runs.append((
                bicyclicity_infimum(f, P15, "all_integers", 4),
                forward_shift_infimum(f, P15, 3),
            ))
        for cached, reference in zip(*runs):
            assert cached.value.hex() == reference.value.hex()
            assert cached.polynomial.lo == reference.polynomial.lo
            assert np.array_equal(cached.polynomial.arr, reference.polynomial.arr)
            assert cached.converged == reference.converged
            assert cached.iterations == reference.iterations > 0

    # operand lengths; 1 on either side is a plain product, as in scipy.
    # (9000, 8000) pads to 17010: spectra of 256 KiB and more, which numpy
    # would multiply in swapped order were a transform an unnamed temporary
    @pytest.mark.parametrize("na, nx", [
        (1, 1), (1, 6), (7, 1), (6, 8), (7, 9), (8, 7), (2, 2), (9000, 8000),
    ])
    # a complex a, a complex x, or both; a float64 operand, which the
    # package never passes, is read as its complex128 cast
    @pytest.mark.parametrize("complex_a, complex_x", [
        (True, True), (True, False), (False, True),
    ])
    def test_fftconvolve_matches_scipy_by_bit_pattern(self, na, nx, complex_a, complex_x):
        rng = np.random.default_rng(100 * na + nx)
        a, x = rng.standard_normal(na), rng.standard_normal(nx)
        if complex_a:
            a = a + 1j * rng.standard_normal(na)
        if complex_x:
            x = x + 1j * rng.standard_normal(nx)
        want = fftconvolve(a.astype(complex), x.astype(complex))
        assert_same_bits(engine.fftconvolve(a, x), want)

    def test_fftconvolve_autocorrelation_of_infimum_large_function(self):
        f_arr = infimum_large_function().arr
        assert len(f_arr) == 2049
        a = np.conj(f_arr[::-1])
        assert_same_bits(engine.fftconvolve(a, f_arr), fftconvolve(a, f_arr))

    def test_spectrum_is_taken_once_per_problem(self, monkeypatch):
        counts = counting_transforms(monkeypatch)
        rng = np.random.default_rng(41)
        f_arr = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        prob = _ConvObjective(-4, f_arr, -6, 6, 0, np.ones(1), 1.5, 0.0)
        assert counts == {"fft": 1, "ifft": 0}  # f's, which the adjoint shares
        x = rng.standard_normal(prob.n_cols) + 1j * rng.standard_normal(prob.n_cols)
        for _ in range(3):
            counts.update(fft=0, ifft=0)
            y = prob.apply(x)
            assert counts == {"fft": 1, "ifft": 1}
            counts.update(fft=0, ifft=0)
            x = prob.adjoint(y)
            assert counts == {"fft": 1, "ifft": 1}

    def test_a_whole_solve_takes_the_spectrum_once(self, monkeypatch):
        # f's spectrum, which the convolution and its adjoint share, and the
        # preconditioner's two spectra are each taken once per problem, and
        # so is the autocorrelation of f, which is two forward transforms and
        # one inverse; after that every convolution or correlation is one
        # forward and one inverse transform, and every preconditioner apply
        # three of each
        counts = counting_transforms(monkeypatch)
        calls = []
        for name in ("apply", "adjoint"):
            real = getattr(_ConvObjective, name)

            def wrapper(self, v, real=real):
                calls.append(1)
                return real(self, v)

            monkeypatch.setattr(_ConvObjective, name, wrapper)
        built, applied = [], []
        real_init = engine._ToeplitzInverse.__init__
        real_call = engine._ToeplitzInverse.__call__

        def init(self, col):
            built.append(1)
            real_init(self, col)

        def call(self, y):
            applied.append(1)
            return real_call(self, y)

        monkeypatch.setattr(engine._ToeplitzInverse, "__init__", init)
        monkeypatch.setattr(engine._ToeplitzInverse, "__call__", call)
        res = bicyclicity_infimum(certify_small_function(), P15, "all_integers", 4)
        assert res.sweeps > 1
        assert len(built) == 1 and len(applied) > res.sweeps
        assert counts == {
            "fft": 1 + 2 + 2 + len(calls) + 3 * len(applied),
            "ifft": 1 + len(calls) + 3 * len(applied),
        }

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 700), st.integers(1, 80), st.integers(0, 2**32 - 1))
    @example(nf=513, n_cols=3, seed=0)  # nf >> n_cols
    @example(nf=1, n_cols=40, seed=1)
    @example(nf=40, n_cols=1, seed=2)
    @example(nf=1, n_cols=1, seed=3)
    @example(nf=600, n_cols=49, seed=4)  # n_out 648, a fast length
    @example(nf=600, n_cols=50, seed=5)  # n_out 649, which pads to 660
    def test_adjoint_is_the_dense_adjoint_at_the_forward_length(self, nf, n_cols, seed):
        # the adjoint correlates through the forward's spectrum, at the
        # forward's length: every transform inside apply and adjoint has
        # length next_fast_len(n_out), and a length-1 f or one column makes
        # none, the plain product
        rng = np.random.default_rng(seed)
        f_arr = rng.standard_normal(nf) + 1j * rng.standard_normal(nf)
        args = (-3, f_arr, -2, n_cols - 3, 0, np.ones(1), 2.0, 0.0)
        prob, A = _ConvObjective(*args), DenseObjective(*args).matrix
        x = rng.standard_normal(prob.n_cols) + 1j * rng.standard_normal(prob.n_cols)
        y = rng.standard_normal(prob.n_rows) + 1j * rng.standard_normal(prob.n_rows)
        lengths = []

        def recording(real, length):
            def kernel(*args):
                lengths.append(length(*args))
                return real(*args)

            return kernel

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_c2c", recording(fourier._c2c, lambda x, *_: len(x)))
            mp.setattr(engine, "_padded_c2c",
                       recording(fourier._padded_c2c, lambda x, buf: len(buf)))
            ax, ahy = prob.apply(x), prob.adjoint(y)
        n_out = nf + n_cols - 1
        transforms = 4 if nf > 1 and n_cols > 1 else 0
        assert lengths == [scipy.fft.next_fast_len(n_out, False)] * transforms
        want = A.conj().T @ y
        assert np.linalg.norm(ahy - want) <= 1e-13 * np.linalg.norm(want)
        lhs, rhs = np.vdot(y, ax), np.vdot(ahy, x)
        assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(ax) * np.linalg.norm(y)

    def test_autocorrelation_is_one_fftconvolve_call_per_problem(self, monkeypatch):
        # the count a tracer wrapping engine.fftconvolve reports
        operands = []
        real = engine.fftconvolve

        def counting(a, x):
            operands.append((a, x))
            return real(a, x)

        monkeypatch.setattr(engine, "fftconvolve", counting)
        f = certify_small_function()
        bicyclicity_infimum(f, P15, "all_integers", 4)
        assert len(operands) == 1
        forward_shift_infimum(f, P15, 3)
        assert len(operands) == 2
        for a, x in operands:
            assert np.array_equal(a, np.conj(f.arr[::-1]))
            assert np.array_equal(x, f.arr)


# The solver operations as they stood before the CG loop, the Hessian and the
# two FFT operators worked in place: the oracles the in-place code must
# reproduce bit for bit.  Each operator call made fresh arrays throughout.
def oracle_convolution(conv, x):
    if conv.size is None:
        return conv.a * x
    x_spec = scipy.fft.fft(x, conv.size)
    return scipy.fft.ifft(conv.spectrum * x_spec)[: conv.n_out]


def oracle_toeplitz_inverse(inverse, y):
    n, size = inverse.n, inverse.size
    y_spec = scipy.fft.fft(y, size)
    a = scipy.fft.ifft(inverse.x_spec_conj * y_spec)[:n]
    b = scipy.fft.ifft(inverse.v_spec_conj * y_spec)[:n]
    a_spec = scipy.fft.fft(a, size)
    b_spec = scipy.fft.fft(b, size)
    return scipy.fft.ifft(inverse.x_spec * a_spec - inverse.v_spec * b_spec)[:n]


def oracle_preconditioner(inverse):
    """The oracle apply of a _ToeplitzInverse, with the shift it holds."""
    apply = functools.partial(oracle_toeplitz_inverse, inverse)
    apply.shift = inverse.shift
    return apply


class OracleObjective(_ConvObjective):
    """The objective with the oracle operators, Hessian and CG solve."""

    def apply(self, x):
        y = np.zeros(self.n_rows, dtype=complex)
        y[self.conv_off : self.conv_off + self._conv.n_out] = oracle_convolution(self._conv, x)
        return y

    def adjoint(self, y):
        seg = y[self.conv_off : self.conv_off + self._conv.n_out]
        return oracle_correlation(self.f_arr, seg, self.n_cols)

    @functools.cached_property
    def preconditioner(self):
        inverse = _ConvObjective.__dict__["preconditioner"].func(self)
        return None if inverse is None else oracle_preconditioner(inverse)

    def hessian(self, w, resid, c=None):
        if c is None:
            return lambda d: self.adjoint(w * self.apply(d))
        cr, r_conj = c * resid, np.conj(resid)

        def apply(d):
            ad = self.apply(d)
            return self.adjoint(w * ad + cr * np.real(r_conj * ad))

        return apply

    def solve_weighted(self, w, x, resid, maxiter, c=None, rtol=engine.PCG_RTOL):
        precond = self.preconditioner
        if precond is None:
            return x, 1, False
        hessian = self.hessian(w, resid, c)
        r = self.adjoint(w * resid)
        z = precond(r)
        rz = float(np.real(np.vdot(r, z)))
        if not rz > 0.0:
            return x, 1, not np.any(r)
        stop = rtol**2 * rz
        d = z
        spent = 0
        while spent < maxiter and rz > stop:
            q = hessian(d)
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
        return x, max(spent, 1), rz <= stop


def newton_step_problem(f_arr, support, degree, p, beta, shift, seed):
    """Both objectives of one problem, and a point with its Newton-step
    weights w and curvature c, drawn as `_minimize` forms them."""
    s_lo, s_hi = engine._support_range(support, degree)
    target = (0, np.ones(1, dtype=complex)) if not shift else (-1, f_arr)
    args = (-1, f_arr, s_lo, s_hi, *target, p, beta)
    prob, oracle = _ConvObjective(*args), OracleObjective(*args)
    rng = np.random.default_rng(seed)
    x = 0.1 * (rng.standard_normal(prob.n_cols) + 1j * rng.standard_normal(prob.n_cols))
    r = prob.residual(x)
    s = np.abs(r) ** 2 + (0.1 * float(np.max(np.abs(r)))) ** 2
    w = prob.base_w * s ** ((p - 2.0) / 2.0)
    c = (p - 2.0) * prob.base_w * s ** (p / 2.0 - 2.0)
    return prob, oracle, x, r, w, c


def assert_same_solve(got, want):
    assert_same_bits(got[0], want[0])
    assert got[1:] == want[1:]


class TestInPlaceSolve:
    """The CG solve, the Hessian and the FFT operators work in buffers they
    own and reuse; every result keeps the oracles' bits."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 40), st.integers(1, 40), st.sampled_from(SUPPORTS),
        st.sampled_from([1.5, 2.0]), st.sampled_from([0.0, 0.25]),
        st.booleans(), st.booleans(), st.integers(0, 2**32 - 1),
    )
    def test_solve_and_hessian_match_the_oracles_bit_for_bit(
        self, nf, degree, support, p, beta, shift, curvature, seed
    ):
        rng = np.random.default_rng(seed)
        f_arr = rng.standard_normal(nf) + 1j * rng.standard_normal(nf)
        prob, oracle, x, r, w, c = newton_step_problem(
            f_arr, support, degree, p, beta, shift, seed)
        c = c if curvature else None
        d = rng.standard_normal(prob.n_cols) + 1j * rng.standard_normal(prob.n_cols)
        hessian, oracle_hessian = prob.hessian(w, r, c), oracle.hessian(w, r, c)
        for _ in range(2):  # the work arrays are reused by the second call
            assert_same_bits(hessian(d), oracle_hessian(d))
        for maxiter in (1, 3, 1000):
            for rtol in (engine.PCG_RTOL, engine.PCG_RTOL_EARLY):
                assert_same_solve(prob.solve_weighted(w, x, r, maxiter, c, rtol),
                                  oracle.solve_weighted(w, x, r, maxiter, c, rtol))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 300), st.integers(2, 300), st.integers(0, 2**32 - 1))
    def test_operators_match_the_oracles_bit_for_bit(self, na, nx, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(na) + 1j * rng.standard_normal(na)
        conv = engine._Convolution(a, nx)
        col = hermitian_dominant_column(rng, nx, min(nx - 1, 5))
        inverse = engine._ToeplitzInverse(col)
        for _ in range(2):  # the work buffers are reused by the second call
            x = rng.standard_normal(nx) + 1j * rng.standard_normal(nx)
            # a real operand is read as its complex128 cast
            y = rng.standard_normal(conv.n_out) + 1j * rng.standard_normal(conv.n_out)
            for u, v in ((x, y), (x.real, y.real)):
                z = u.astype(complex)
                assert_same_bits(conv(u), oracle_convolution(conv, z))
                assert_same_bits(conv.adjoint(v), oracle_correlation(a, v.astype(complex), nx))
                assert_same_bits(inverse(u), oracle_toeplitz_inverse(inverse, z))

    def test_large_solve_matches_the_oracle_bit_for_bit(self):
        # 18433 rows and 16385 columns: arrays of 256 KiB and more, which
        # numpy writes into when they are unnamed temporaries
        f_arr = infimum_large_function().arr
        prob, oracle, x, r, w, c = newton_step_problem(
            f_arr, "all_integers", 8192, 1.5, 0.25, False, 61)
        assert prob.n_rows * 16 >= 256 * 1024
        # one Levinson-Durbin solve of order 16385 serves both
        oracle.preconditioner = oracle_preconditioner(prob.preconditioner)
        for curvature in (None, c):
            assert_same_solve(prob.solve_weighted(w, x, r, 4, curvature),
                              oracle.solve_weighted(w, x, r, 4, curvature))

    @pytest.mark.parametrize("search", [
        lambda f: bicyclicity_infimum(f, P15, "all_integers", 12),
        lambda f: bicyclicity_infimum(f, SpaceIndex(1.5, 0.25), "nonneg", 12),
        lambda f: forward_shift_infimum(f, SpaceIndex(2.0, 0.25), 12),
    ])
    def test_whole_search_matches_the_oracle_objective(self, monkeypatch, search):
        f = certify_small_function()
        got = search(f)
        monkeypatch.setattr(engine, "_ConvObjective", OracleObjective)
        want = search(f)
        assert got.value.hex() == want.value.hex()
        assert_same_bits(got.polynomial.arr, want.polynomial.arr)
        assert (got.iterations, got.sweeps, got.converged) == (
            want.iterations, want.sweeps, want.converged)

    def test_results_survive_later_calls(self):
        # no result shares memory with a buffer a later call writes: the
        # CG loop keeps d = z across the next preconditioner apply
        rng = np.random.default_rng(53)
        f_arr = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        prob = _ConvObjective(-4, f_arr, -6, 6, 0, np.ones(1), 1.5, 0.0)
        conv = engine._Convolution(f_arr, prob.n_cols)
        inverse = engine._ToeplitzInverse(prob.normal_column)
        assert isinstance(prob.preconditioner, engine._ToeplitzInverse)
        operators = [
            (conv, prob.n_cols), (conv.adjoint, conv.n_out), (inverse, prob.n_cols),
            (prob.apply, prob.n_cols), (prob.adjoint, prob.n_rows),
            (prob.preconditioner, prob.n_cols),
        ]
        for op, n_in in operators:
            u = rng.standard_normal(n_in) + 1j * rng.standard_normal(n_in)
            u_kept = u.copy()
            first = op(u)
            first_kept = first.copy()
            op(rng.standard_normal(n_in) + 1j * rng.standard_normal(n_in))
            assert_same_bits(first, first_kept)
            assert_same_bits(u, u_kept)

    @pytest.mark.parametrize("p, shift", [(1.5, False), (2.0, True)])
    def test_a_solve_leaves_its_arguments_and_earlier_results_alone(self, p, shift):
        # _minimize keeps earlier iterates among its candidates, so no solve
        # may write into its x, its resid, or what an earlier solve returned
        rng = np.random.default_rng(67)
        f_arr = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        prob, _, x, r, w, c = newton_step_problem(f_arr, "all_integers", 8, p, 0.25, shift, 67)
        x_kept, r_kept = x.copy(), r.copy()
        y, spent, _ = prob.solve_weighted(w, x, r, 50, c)
        assert spent > 1
        assert_same_bits(x, x_kept)
        assert_same_bits(r, r_kept)
        y_kept = y.copy()
        r_y = prob.residual(y)
        z, _, _ = prob.solve_weighted(w, y, r_y, 50, c)
        prob.solve_weighted(prob.base_w, x, r, 50)
        assert_same_bits(y, y_kept)
        assert z is not y


class TestSolvePath:
    @pytest.mark.parametrize("f_lo, nf, s_lo, s_hi, shape", [
        # infimum_large: f of 2049 terms at two-sided degree 4096
        (-1024, 2049, -4096, 4096, (10241, 8193)),
        # near-square: a 20-term f at one-sided degree 1000
        (0, 20, 0, 1000, (1020, 1001)),
    ])
    def test_problem_shapes(self, f_lo, nf, s_lo, s_hi, shape):
        f_arr = np.ones(nf, dtype=complex)
        prob = _ConvObjective(f_lo, f_arr, s_lo, s_hi, 0, np.ones(1), 1.5, 0.0)
        assert (prob.n_rows, prob.n_cols) == shape

    def test_certify_small_function_converges_rotation_invariantly(self, monkeypatch):
        # the LSMR path spread 0.6% over these rotations and never converged
        calls, _, _ = recording_solves(monkeypatch)
        f = certify_small_function()
        rng = np.random.default_rng(37)
        values = []
        for _ in range(3):
            res = bicyclicity_infimum(rotated(f, rng), P15, "all_integers", 64)
            assert res.converged is True
            values.append(res.value)
        assert set(calls) == {"toeplitz"}
        assert max(values) - min(values) < 1e-8


def hermitian_dominant_column(rng, n, band):
    """A Hermitian Toeplitz first column with lags 1..band random and the
    rest zero, and t_0 = 1 + 2 sum |t_m|: T is strictly diagonally dominant,
    so positive definite."""
    col = np.zeros(n, dtype=complex)
    m = min(band, n - 1)
    col[1 : m + 1] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    col[0] = 1.0 + 2.0 * np.sum(np.abs(col[1:]))
    return col


def full_length_durbin(col):
    """Durbin's recursion with Delta summed over every j < k, zero lags and
    all, in plain Python arithmetic."""
    n = len(col)
    a = [1.0 + 0j] + [0j] * (n - 1)
    E = col[0].real
    for k in range(1, n):
        gamma = sum(complex(col[k - j]) * a[j] for j in range(k)) / E
        a[1 : k + 1] = [a[i] - gamma * a[k - i].conjugate() for i in range(1, k + 1)]
        E *= 1.0 - abs(gamma) ** 2
    return np.array(a) / E


class TestToeplitzInverse:
    @given(st.integers(1, 40), st.sampled_from(["1", "2", "3", "band", "band+1", "300"]),
           st.booleans(), st.integers(0, 2**32 - 1))
    @example(band=5, size="300", banded=True, seed=0)
    @example(band=1, size="1", banded=False, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_levinson_durbin_matches_solve_toeplitz(self, band, size, banded, seed):
        # scipy's general Levinson recursion as the oracle, on full columns
        # and on banded ones (zero past lag band < n - 1)
        n = {"band": band, "band+1": band + 1}.get(size) or int(size)
        col = hermitian_dominant_column(np.random.default_rng(seed), n,
                                        band if banded else n - 1)
        e0 = np.zeros(n, dtype=complex)
        e0[0] = 1.0
        ref = scipy.linalg.solve_toeplitz((col, np.conj(col)), e0)
        x = engine._levinson_durbin(col)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n, band", [(2, 1), (3, 1), (40, 3), (300, 7), (300, 299)])
    def test_band_limited_sums_match_the_full_length_recursion(self, n, band):
        # the kernel's Delta skips the lags past the band, which are zero
        col = hermitian_dominant_column(np.random.default_rng(n + band), n, band)
        want = full_length_durbin(col)
        x = engine._levinson_durbin(col)
        assert np.linalg.norm(x - want) <= 1e-14 * np.linalg.norm(want)

    def test_indefinite_minor_breaks_down_to_a_shifted_inverse(self):
        # t_0 > 0 and the 2x2 minor is positive, but the 3x3 is indefinite:
        # the recursion's second reflection has |gamma| = 9
        col = np.array([1.0, 0.9, -0.9], dtype=complex)
        T = scipy.linalg.toeplitz(col)
        assert np.linalg.eigvalsh(T).min() < 0.0
        with pytest.raises(ValueError, match="broke down"):
            engine._levinson_durbin(col)
        with pytest.raises(ValueError, match="broke down"):
            engine._ToeplitzInverse(col)
        prob = _ConvObjective(0, np.ones(2, dtype=complex), 0, 2, 0, np.ones(1), 1.5, 0.0)
        prob.normal_column = col  # the cached property, set before first use
        # the first delta of 0, 3 eps 2^j < 1 and 1 that makes T + delta t_0 I
        # positive definite: 3 eps 2^50 = 0.75 falls short of lambda_min = -0.8
        n_eps = 3 * np.finfo(float).eps
        deltas = [0.0, *(n_eps * 2.0**j for j in range(64) if n_eps * 2.0**j < 1.0), 1.0]
        delta = next(d for d in deltas if np.linalg.eigvalsh(T + d * np.eye(3)).min() > 0.0)
        assert delta == 1.0
        y = np.array([1.0, 2.0 - 1.0j, 3.0], dtype=complex)
        want = np.linalg.solve(T + delta * col[0].real * np.eye(3), y)
        assert isinstance(prob.preconditioner, engine._ToeplitzInverse)
        assert np.linalg.norm(prob.preconditioner(y) - want) <= 1e-12 * np.linalg.norm(want)

    def test_matches_solve_toeplitz(self):
        # a Hermitian Toeplitz matrix with a dominant, decaying first column
        # is positive definite and well conditioned
        rng = np.random.default_rng(43)
        for n in (1, 2, 7, 64, 301):
            col = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 0.5 ** np.arange(n)
            col[0] = 4.0
            inverse = engine._ToeplitzInverse(col)
            for _ in range(3):
                y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                ref = scipy.linalg.solve_toeplitz((col, np.conj(col)), y)
                assert np.linalg.norm(inverse(y) - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [7, 8200])
    def test_apply_is_the_formula_by_bit_pattern(self, n):
        # the six transforms and the factor order of the formula, spelled
        # out with scipy.fft; n = 8200 pads to 16464, past the 256 KiB
        # at which numpy reuses an unnamed temporary operand
        rng = np.random.default_rng(n)
        col = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 0.5 ** np.arange(n)
        col[0] = 4.0
        inverse = engine._ToeplitzInverse(col)
        size = inverse.size
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y_spec = scipy.fft.fft(y, size)
        a = scipy.fft.ifft(np.conj(inverse.x_spec) * y_spec)[:n]
        b = scipy.fft.ifft(np.conj(inverse.v_spec) * y_spec)[:n]
        a_spec = scipy.fft.fft(a, size)
        b_spec = scipy.fft.fft(b, size)
        want = scipy.fft.ifft(inverse.x_spec * a_spec - inverse.v_spec * b_spec)[:n]
        assert_same_bits(inverse(y), want)

    def test_breakdown_raises(self):
        # a negative definite T has (T^-1)_00 < 0
        with pytest.raises((np.linalg.LinAlgError, ValueError)):
            engine._ToeplitzInverse(np.array([-1.0, 0.5], dtype=complex))


class TestPreconditionedPath:
    @pytest.mark.parametrize("space, support, degree, n_terms", [
        (P15, "all_integers", 16, None),
        (P2, "all_integers", 16, None),
        (SpaceIndex(p=2.0, beta=0.25), "all_integers", 16, None),
        # a random 513-term f at one-sided degree 511: 1024 rows, 512 columns
        (SpaceIndex(p=2.0, beta=0.25), "nonneg", 511, 513),
    ])
    def test_matches_the_dense_path(self, monkeypatch, space, support, degree, n_terms):
        if n_terms is None:
            f = certify_small_function()
        else:
            f = random_series(np.random.default_rng(29), 0, n_terms - 1)
        calls, _, _ = recording_solves(monkeypatch)
        iterative = (
            bicyclicity_infimum(f, space, support, degree),
            forward_shift_infimum(f, space, degree),
        )
        assert set(calls) == {"toeplitz"}
        monkeypatch.setattr(engine, "_ConvObjective", DenseObjective)
        dense = (
            bicyclicity_infimum(f, space, support, degree),
            forward_shift_infimum(f, space, degree),
        )
        for d, it in zip(dense, iterative):
            assert d.converged is True and it.converged is True
            assert (d.iterations, it.iterations > 0) == (0, True)
            assert abs(it.value - d.value) <= 1e-9 * d.value

    @pytest.mark.parametrize("space", [P15, P2])
    def test_one_levinson_solve_per_infimum(self, monkeypatch, space):
        # the preconditioner's Levinson-Durbin solve is the only direct
        # solve, and at p = 2, beta = 0 it is exact: the seed sweep lands on
        # the l2 minimizer, and the sweeps after it stop at the rounding floor
        levinson = []
        real = engine._levinson_durbin

        def counting(*args, **kwargs):
            levinson.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "_levinson_durbin", counting)
        f = certify_small_function()
        for infimum in (
            lambda: bicyclicity_infimum(f, space, "all_integers", 256),
            lambda: forward_shift_infimum(f, space, 256),
        ):
            levinson.clear()
            res = infimum()
            assert res.converged is True and len(levinson) == 1
            if space.p == 2.0:
                assert res.sweeps <= 4 and res.iterations <= 8

    def test_levinson_breakdown_shifts_the_preconditioner(self, monkeypatch):
        f = certify_small_function()
        with monkeypatch.context() as m:
            m.setattr(engine, "_ConvObjective", DenseObjective)
            exact = bicyclicity_infimum(f, P15, "all_integers", 4).value
        unshifted = _ConvObjective(f.lo, f.arr, -4, 4, 0, np.ones(1), 1.5, 0.0).normal_column
        real = engine._levinson_durbin
        seen = []

        def broken_unshifted(col):
            seen.append(col[0])
            if np.array_equal(col, unshifted):
                raise ValueError("Levinson-Durbin recursion broke down")
            return real(col)

        monkeypatch.setattr(engine, "_levinson_durbin", broken_unshifted)
        calls, _, _ = recording_solves(monkeypatch)
        res = bicyclicity_infimum(f, P15, "all_integers", 4)
        # one retry, at delta = n eps with n = 9 columns, and no plain CG
        assert seen == [unshifted[0], unshifted[0] * (1.0 + 9 * np.finfo(float).eps)]
        assert calls and "plain" not in calls
        assert res.converged is True and res.iterations >= len(calls)
        recomputed = residual_norm(f, res.polynomial, P15, target_one=True)
        assert abs(res.value - recomputed) < 1e-10 * recomputed
        assert abs(res.value - exact) < 1e-6 * exact

    def test_a_breakdown_at_every_shift_ends_the_search_at_its_best_seed(self, monkeypatch):
        shifts = []

        def broken(col):
            shifts.append(col[0])
            raise ValueError("Levinson-Durbin recursion broke down")

        monkeypatch.setattr(engine, "_levinson_durbin", broken)
        f = certify_small_function()
        res = bicyclicity_infimum(f, P15, "all_integers", 4)
        assert res.converged is False
        assert (res.sweeps, res.iterations) == (1, 1)
        # no solve held, so the best seed is zero, whose residual is b = e_0
        assert len(res.polynomial) == 0 and res.value == 1.0
        # t_0 (1 + delta) for delta = 0, 9 eps 2^j, j = 0..48 (9 eps 2^48 =
        # 0.5625), then 1: 51 attempts, over 9 columns
        n_eps = 9 * np.finfo(float).eps
        deltas = [0.0, *(n_eps * 2.0**j for j in range(49)), 1.0]
        assert shifts == [shifts[0] * (1.0 + d) for d in deltas]

    def test_the_result_reports_the_shift_its_solves_ran_with(self, monkeypatch):
        # delta = 0 where the recursion holds on T, n eps = 9 eps after one
        # forced breakdown at 9 columns, and None when every shift breaks down
        f = certify_small_function()
        assert bicyclicity_infimum(f, P15, "all_integers", 4).precond_shift == 0.0
        assert forward_shift_infimum(f, P15, 4).precond_shift == 0.0
        unshifted = _ConvObjective(f.lo, f.arr, -4, 4, 0, np.ones(1), 1.5, 0.0).normal_column
        real = engine._levinson_durbin

        def broken_unshifted(col):
            if np.array_equal(col, unshifted):
                raise ValueError("Levinson-Durbin recursion broke down")
            return real(col)

        def broken(col):
            raise ValueError("Levinson-Durbin recursion broke down")

        monkeypatch.setattr(engine, "_levinson_durbin", broken_unshifted)
        res = bicyclicity_infimum(f, P15, "all_integers", 4)
        assert type(res.precond_shift) is float
        assert res.precond_shift == 9 * np.finfo(float).eps and res.converged is True
        monkeypatch.setattr(engine, "_levinson_durbin", broken)
        assert bicyclicity_infimum(f, P15, "all_integers", 4).precond_shift is None

    def test_untruncated_certify_small_function_breaks_down_and_converges(self):
        # no stub: the normal matrix of the untruncated function is singular
        # in float64, and the shifted preconditioner still takes the search
        # below its degree-512 value
        f = certify_small_function_untruncated()
        prob = _ConvObjective(f.lo, f.arr, -1024, 1024, 0, np.ones(1), 1.5, 0.0)
        with pytest.raises(ValueError, match="broke down"):
            engine._levinson_durbin(prob.normal_column)
        res = bicyclicity_infimum(f, P15, "all_integers", 1024)
        assert res.converged is True and res.iterations <= 2000
        # the first shift, n eps at n = 2049 columns, holds
        assert res.precond_shift == 2049 * np.finfo(float).eps
        assert res.value < 0.9322994
        recomputed = residual_norm(f, res.polynomial, P15, target_one=True)
        assert abs(res.value - recomputed) < 1e-10 * recomputed

    def test_a_normal_matrix_that_overflows_ends_the_search_unconverged(self):
        # t_0 = 2e320 is not finite, so no shift holds and no solve runs
        f = FourierSeries({0: 1e160, 1: -1e160})
        with np.errstate(over="ignore", invalid="ignore"):
            res = bicyclicity_infimum(f, P15, "all_integers", 4)
        assert res.converged is False
        assert len(res.polynomial) == 0 and res.value == 1.0

    @pytest.mark.parametrize("good_applies", [0, 1])
    def test_cg_breakdown_is_not_converged(self, monkeypatch, good_applies):
        # a preconditioner that turns indefinite, at once or after its first
        # apply, makes r^H M r negative: the search stops, not converged, and
        # still reports the norm of the polynomial it returns
        real = engine._ToeplitzInverse.__call__
        applies = []

        def indefinite(self, y):
            applies.append(1)
            return real(self, y) if len(applies) <= good_applies else -y

        monkeypatch.setattr(engine._ToeplitzInverse, "__call__", indefinite)
        f = certify_small_function()
        res = bicyclicity_infimum(f, P15, "all_integers", 4)
        assert res.converged is False
        assert (res.sweeps, res.iterations) == (1, 1)
        recomputed = residual_norm(f, res.polynomial, P15, target_one=True)
        assert abs(res.value - recomputed) < 1e-10 * recomputed
        applies.clear()
        rep = certify_cyclic(CertificateProblem(f=f, space=P15, degree_budget=4))
        assert rep.solver_trace[0]["bicyclic_converged"] is False


class TestClosedForms:
    @pytest.mark.parametrize("M", [0, 1, 8, 50, 200])
    def test_nonneg_support(self, M):
        value, poly = bicyclicity_infimum(Z_MINUS_1, P2, "nonneg", M)
        assert abs(value**2 - 1.0 / (M + 2)) < 1e-10
        assert set(poly.support()) <= set(range(0, M + 1))

    @pytest.mark.parametrize("M", [0, 1, 8, 50, 200])
    def test_two_sided_support(self, M):
        value, _ = bicyclicity_infimum(Z_MINUS_1, P2, "all_integers", M)
        assert abs(value**2 - 1.0 / (2 * M + 2)) < 1e-10

    @pytest.mark.parametrize("M", [0, 1, 8, 50, 200])
    def test_shift_chain(self, M):
        value, poly = forward_shift_infimum(Z_MINUS_1, P2, M)
        assert abs(value**2 - (1.0 + 1.0 / (M + 2))) < 1e-10
        assert set(poly.support()) <= set(range(0, M + 1))

    def test_bicyclic_at_degree_100(self):
        value, _ = bicyclicity_infimum(Z_MINUS_1, P2, "all_integers", 100)
        assert value < 0.15

    def test_f_equal_one(self):
        value, poly = bicyclicity_infimum(FourierSeries({0: 1.0}), P15, "nonneg", 4)
        assert value < 1e-12
        assert abs(poly.coeff(0) - 1.0) < 1e-10
        shift_value, _ = forward_shift_infimum(FourierSeries({0: 1.0}), P15, 12)
        assert abs(shift_value - 1.0) < 1e-12


class TestIrlsAgainstOracle:
    @pytest.mark.parametrize("p", [1.5, 1.25])
    def test_frozen_reference(self, p):
        space = SpaceIndex(p=p, beta=0.25)
        value, _ = bicyclicity_infimum(Z_MINUS_1, space, "nonneg", 8)
        assert abs(value - IRLS_ORACLE[p]) < 1e-6 * IRLS_ORACLE[p]

    def test_p2_continuous_in_beta(self):
        # beta = 1e-12 changes the base weights by under 1e-11: the p = 2
        # infimum must move by no more than the solver's tolerance
        rng = np.random.default_rng(3)
        f = random_series(rng, -2, 3)
        value, _ = bicyclicity_infimum(f, P2, "all_integers", 12)
        near = SpaceIndex(p=2.0, beta=1e-12)
        near_value, _ = bicyclicity_infimum(f, near, "all_integers", 12)
        assert abs(value - near_value) < 1e-8 * max(value, 1e-8)


def recording_newton_steps(monkeypatch):
    """Route the solves and the smoothed objective through wrappers; returns
    one list with a (problem, w, x, resid, c, mu) entry per Newton step,
    mu being that of the first objective evaluated after the step's solve."""
    steps = []
    solve, objective = _ConvObjective.solve_weighted, _ConvObjective.smoothed_objective

    def recording_solve(self, w, x, resid, maxiter, c=None, rtol=engine.PCG_RTOL):
        if c is not None:
            steps.append([self, w, x.copy(), resid.copy(), c, None])
        return solve(self, w, x, resid, maxiter, c, rtol)

    def recording_objective(self, r, mu):
        if steps and steps[-1][5] is None:
            steps[-1][5] = mu
        return objective(self, r, mu)

    monkeypatch.setattr(_ConvObjective, "solve_weighted", recording_solve)
    monkeypatch.setattr(_ConvObjective, "smoothed_objective", recording_objective)
    return steps


# the values the IRLS sweeps reached before Newton steps replaced them, by
# float.hex: p = 1.5, (function, side, beta, degree) -> value.  Z_MINUS_1 at
# beta = 0 is held to its exact infimum instead (TestNewtonStep)
IRLS_CEILINGS = {
    ("certify_small", "two_sided", 0.0, 64): "0x1.e3c551d855e0ap-1",
    ("certify_small", "shift", 0.0, 64): "0x1.a08640c12cf48p-11",
    ("certify_small", "two_sided", 0.0, 256): "0x1.e142796d4f153p-1",
    ("certify_small", "shift", 0.0, 256): "0x1.7ec4badb24bb7p-11",
    ("certify_small", "two_sided", 0.1, 64): "0x1.edd5cfe8f6100p-1",
    ("certify_small", "shift", 0.1, 64): "0x1.39867d0e6323dp-10",
    ("certify_small", "two_sided", 0.1, 256): "0x1.ec893c38b9c0cp-1",
    ("certify_small", "shift", 0.1, 256): "0x1.225e076aff7dep-10",
    ("certify_small", "two_sided", 0.25, 64): "0x1.f68c0e19dc489p-1",
    ("certify_small", "shift", 0.25, 64): "0x1.20d38f6586a13p-9",
    ("certify_small", "two_sided", 0.25, 256): "0x1.f62111958fc57p-1",
    ("certify_small", "shift", 0.25, 256): "0x1.0ef6de5594066p-9",
    ("z_minus_1", "two_sided", 0.1, 64): "0x1.1467fbe02b890p-2",
    ("z_minus_1", "shift", 0.1, 64): "0x1.20dd5a1ae125ep+0",
    ("z_minus_1", "two_sided", 0.1, 256): "0x1.8dbb372517056p-3",
    ("z_minus_1", "shift", 0.1, 256): "0x1.144b0098a5538p+0",
    ("z_minus_1", "two_sided", 0.25, 64): "0x1.9ff5000c2a88dp-2",
    ("z_minus_1", "shift", 0.25, 64): "0x1.3ce7bb1cad689p+0",
    ("z_minus_1", "two_sided", 0.25, 256): "0x1.621e80e079c20p-2",
    ("z_minus_1", "shift", 0.25, 256): "0x1.2fed5a9495a18p+0",
}


class TestNewtonStep:
    def test_hessian_is_the_derivative_of_the_gradient(self, monkeypatch):
        # the first Newton step of a search at p = 1.5, beta = 0.25: the
        # gradient of sum_n w_n (|r_n|^2 + mu^2)^(p/2), on x as a real
        # vector, is G = -p A^H (w s^(p/2-1) r) with A the dense matrix; the
        # step's right-hand side is -G/p, and its operator p H must match a
        # central difference of G to 1e-6 relative
        space = SpaceIndex(p=1.5, beta=0.25)
        rng = np.random.default_rng(41)
        f = random_series(rng, -2, 2)
        steps = recording_newton_steps(monkeypatch)
        bicyclicity_infimum(f, space, "all_integers", 3)
        prob, w, x, resid, c, mu = steps[0]
        A = DenseObjective(f.lo, f.arr, -3, 3, 0, np.ones(1), space.p, space.beta).matrix
        p = space.p

        def gradient(x):
            r = prob.b - A @ x
            s = np.abs(r) ** 2 + mu**2
            return -p * (A.conj().T @ (prob.base_w * s ** (p / 2 - 1) * r))

        assert np.array_equal(resid, prob.residual(x))
        g = gradient(x)
        assert np.linalg.norm(-p * prob.adjoint(w * resid) - g) <= 1e-12 * np.linalg.norm(g)
        hessian = prob.hessian(w, resid, c)
        for _ in range(3):
            d = rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x))
            h = 1e-5 * np.linalg.norm(x) / np.linalg.norm(d)
            difference = (gradient(x + h * d) - gradient(x - h * d)) / (2 * h)
            hd = p * hessian(d)
            assert np.linalg.norm(hd - difference) <= 1e-6 * np.linalg.norm(hd)

    @pytest.mark.parametrize("name, search", [
        ("certify_small", lambda f: bicyclicity_infimum(
            f, SpaceIndex(p=1.5, beta=0.25), "all_integers", 64)),
        ("certify_small", lambda f: forward_shift_infimum(f, P15, 64)),
        ("z_minus_1", lambda f: bicyclicity_infimum(
            f, SpaceIndex(p=1.5, beta=0.1), "all_integers", 256)),
    ])
    def test_no_accepted_step_raises_its_smoothed_objective(self, monkeypatch, name, search):
        # each step starts where the one before it ended: that point's
        # smoothed objective, at the earlier step's mu, is at most the one
        # the earlier step started from.  Every mu step takes at least one
        # Newton step, so a converged search takes at least MU_STEPS
        objective = _ConvObjective.smoothed_objective
        steps = recording_newton_steps(monkeypatch)
        res = search(certify_small_function() if name == "certify_small" else Z_MINUS_1)
        assert res.converged is True and len(steps) >= engine.MU_STEPS
        for (prob, _, _, start, _, mu), (_, _, _, end, _, _) in zip(steps, steps[1:]):
            assert objective(prob, end, mu) <= objective(prob, start, mu)

    @pytest.mark.parametrize("key", sorted(IRLS_CEILINGS),
                             ids=lambda key: "%s-%s-beta%g-deg%d" % key)
    def test_no_value_above_what_irls_reached(self, key):
        name, side, beta, degree = key
        f = certify_small_function() if name == "certify_small" else Z_MINUS_1
        space = SpaceIndex(p=1.5, beta=beta)
        if side == "two_sided":
            res = bicyclicity_infimum(f, space, "all_integers", degree)
        else:
            res = forward_shift_infimum(f, space, degree)
        assert res.converged is True
        assert res.value <= float.fromhex(IRLS_CEILINGS[key]), (
            res.value.hex(), IRLS_CEILINGS[key])

    @pytest.mark.parametrize("side", ["two_sided", "shift"])
    @pytest.mark.parametrize("degree", [64, 256])
    def test_z_minus_1_at_beta_0_ends_on_its_exact_infimum(self, side, degree):
        # the residuals 1 - P (z - 1) are the vectors on rows -N..N+1 whose
        # coefficients sum to 1, and the residuals (z - 1) - R (z - 1) are
        # those with -1 at row 0 and the rest, rows 1..N+2, summing to 1;
        # the l^p norm is least where the free coefficients are equal, so the
        # infima are (2N + 2)^(1/p - 1) and (1 + (N + 2)^(1 - p))^(1/p).
        # That minimizer is the l2 seed, and every value the search visits
        # differs from it by rounding alone: the IRLS sweeps' least visits
        # lay up to 2 ulp below the infimum (0x1.149941251060ap+0 against
        # 0x1.149941251060cp+0 for the shift at degree 64), so the infimum,
        # computed to 40 digits, is the ceiling here
        getcontext().prec = 40
        n = Decimal(degree)
        if side == "two_sided":
            res = bicyclicity_infimum(Z_MINUS_1, P15, "all_integers", degree)
            infimum = float(1 / (2 * n + 2) ** (Decimal(1) / 3))
        else:
            res = forward_shift_infimum(Z_MINUS_1, P15, degree)
            infimum = float((1 + 1 / (n + 2).sqrt()) ** (Decimal(2) / 3))
        assert res.converged is True
        assert infimum * (1 - 1e-15) <= res.value <= infimum, (res.value.hex(), infimum.hex())

    def test_z_minus_1_at_beta_0_stalls_every_mu_step_at_its_first_step(
        self, monkeypatch
    ):
        # the l2 seed is the minimizer, so each Newton step moves the smoothed
        # objective by rounding alone: one step per mu step, no line search,
        # and one residual per solve and for the reported value
        residuals, armijo = [], []
        real_residual, real_armijo = _ConvObjective.residual, engine._armijo

        def counting_residual(self, x):
            residuals.append(1)
            return real_residual(self, x)

        def counting_armijo(*args):
            armijo.append(1)
            return real_armijo(*args)

        monkeypatch.setattr(_ConvObjective, "residual", counting_residual)
        monkeypatch.setattr(engine, "_armijo", counting_armijo)
        res = bicyclicity_infimum(Z_MINUS_1, P15, "all_integers", 64)
        assert res.converged is True and res.sweeps == 1 + engine.MU_STEPS
        assert len(residuals) <= 12 and not armijo
        # the exact infimum of test_z_minus_1_at_beta_0_ends_on_its_exact_infimum
        getcontext().prec = 40
        infimum = float(1 / Decimal(2 * 64 + 2) ** (Decimal(1) / 3))
        assert infimum * (1 - 1e-15) <= res.value <= infimum, (res.value.hex(), infimum.hex())

    @pytest.mark.parametrize("side", ["two_sided", "shift"])
    @pytest.mark.parametrize("degree", [64, 256])
    def test_p2_at_beta_0_stalls_at_its_first_step_on_the_least_squares_value(
        self, side, degree
    ):
        # at beta = 0 the seed solve's preconditioner is exact, so the seed is
        # the least-squares minimizer and the one sweep after it stalls
        f = certify_small_function()
        if side == "two_sided":
            res = bicyclicity_infimum(f, P2, "all_integers", degree)
            prob = DenseObjective(f.lo, f.arr, -degree, degree, 0, np.ones(1), 2.0, 0.0)
        else:
            res = forward_shift_infimum(f, P2, degree)
            prob = DenseObjective(f.lo, f.arr, 1, degree + 1, f.lo, f.arr, 2.0, 0.0)
        x, _, _ = prob.solve_weighted(prob.base_w, np.zeros(prob.n_cols, complex), prob.b, 0)
        least_squares = prob.residual_norm(prob.residual(x))
        assert res.converged is True and res.sweeps == 2
        assert abs(res.value - least_squares) <= 1e-12 * least_squares

    @pytest.mark.parametrize("search", [
        lambda f, space: bicyclicity_infimum(f, space, "all_integers", 16),
        lambda f, space: forward_shift_infimum(f, space, 16),
    ], ids=["two_sided", "shift"])
    def test_the_line_search_halves_an_overshooting_step(self, monkeypatch, search):
        # the first Newton step of a p = 1.5, beta = 0.25 search on
        # certify_small's function, stretched 8-fold: on the objective's
        # quadratic model x + 8 d and x + 4 d climb and x + 2 d is level, so
        # the line search must halve t from 1 until the Armijo condition
        # holds, trying each t once, and return the first point that meets it
        steps = recording_newton_steps(monkeypatch)
        search(certify_small_function(), SpaceIndex(p=1.5, beta=0.25))
        monkeypatch.undo()
        prob, w, x, r, c, mu = steps[0]
        y, _, held = prob.solve_weighted(w, x, r, engine.LSMR_TOTAL_BUDGET, c)
        assert held
        y = x + 8.0 * (y - x)
        step = y - x  # the step as the line search forms it
        r_y = prob.residual(y)
        f0 = prob.smoothed_objective(r, mu)
        obj = prob.smoothed_objective(r_y, mu)
        # the derivative of the smoothed objective along the step, whose
        # gradient is -p A^H (w r)
        slope = -prob.p * float(np.sum(w * np.real(np.conj(r) * prob.apply(step))))
        assert slope < 0.0 and obj > f0  # a descent direction, overshot

        def meets_armijo(point, t):
            return prob.smoothed_objective(prob.residual(point), mu) <= (
                f0 + engine.ARMIJO_C1 * t * slope)

        tried = []
        real_residual = prob.residual
        prob.residual = lambda point: tried.append(point.copy()) or real_residual(point)
        got, r_got, obj_got = engine._armijo(prob, mu, w, f0, x, r, y, r_y, obj)
        del prob.residual
        # t = 1/2, 1/4, ... in turn, each point x + t step, up to the one taken
        assert len(tried) >= 2
        for k, point in enumerate(tried, start=1):
            assert np.array_equal(point, x + 2.0**-k * step)
        t = 2.0 ** -len(tried)
        assert np.array_equal(got, tried[-1])
        assert np.array_equal(r_got, prob.residual(got))
        assert obj_got == prob.smoothed_objective(r_got, mu)
        assert obj_got <= f0 + engine.ARMIJO_C1 * t * slope
        assert obj_got < f0
        # and no longer step met the condition
        assert not meets_armijo(y, 1.0)
        for k, point in enumerate(tried[:-1], start=1):
            assert not meets_armijo(point, 2.0**-k)

    def test_a_refused_step_ends_its_mu_step(self, monkeypatch):
        # with a line search that refuses every step, each mu step takes one
        # Newton step: the same step from the same point is not solved twice
        def refusing(prob, mu, w, f0, x, r, y, r_y, obj):
            return x, r, f0

        monkeypatch.setattr(engine, "_armijo", refusing)
        f = certify_small_function()
        res = bicyclicity_infimum(f, P15, "all_integers", 16)
        assert res.converged is True and res.sweeps == 1 + engine.MU_STEPS

    @pytest.mark.parametrize("search, value", [
        # moved from 0x1.6a708a6c22e0ap-12 to 0x1.6a708a6c22f17p-12 (+4.2e-14
        # relative) when the preconditioner's direct solve became the
        # Levinson-Durbin recursion, which rounds differently, and to
        # 0x1.6a708a6c22e67p-12 (-2.8e-14) when the adjoint came to correlate
        # through the forward's spectrum at the forward's length; all lie
        # about 2e-13 above the dense least-squares minimum
        # 0x1.6a708a6c229aep-12.  The two-sided value moved 1 ulp with the
        # adjoint, from 0x1.aa8bbcf0aeeefp-1
        (lambda f: forward_shift_infimum(f, P2, 256), "0x1.6a708a6c22e67p-12"),
        (lambda f: bicyclicity_infimum(f, SpaceIndex(p=2.0, beta=0.25), "all_integers",
                                       256), "0x1.aa8bbcf0aeef0p-1"),
    ])
    def test_p2_results_are_the_weighted_sweeps_bit_for_bit(self, search, value):
        # p = 2 runs the Newton loop of 1 < p < 2 with a curvature term that
        # is identically zero, so each step is a fixed-weight sweep: these
        # are the values the sweeps reached before the two paths became one,
        # and the loop must leave them bit for bit as they were
        res = search(certify_small_function())
        assert res.value.hex() == value


class TestSolverContract:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 6),
        st.sampled_from(["all_integers", "nonneg"]),
        st.sampled_from([1.5, 2.0]),
        st.integers(0, 2**31 - 1),
    )
    def test_value_is_witnessed_by_polynomial(self, degree, support, p, seed):
        rng = np.random.default_rng(seed)
        f = random_series(rng, -2, 2)
        space = SpaceIndex(p=p, beta=0.2)
        res = bicyclicity_infimum(f, space, support, degree)
        recomputed = residual_norm(f, res.polynomial, space, target_one=True)
        assert abs(res.value - recomputed) < 1e-10 * max(1.0, recomputed)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 2**31 - 1))
    def test_shift_value_is_witnessed(self, degree, seed):
        rng = np.random.default_rng(seed)
        f = random_series(rng, -1, 2)
        res = forward_shift_infimum(f, P15, degree)
        recomputed = residual_norm(f, res.polynomial, P15, target_one=False)
        assert abs(res.value - recomputed) < 1e-10 * max(1.0, recomputed)

    def test_monotone_in_degree_at_p2(self):
        rng = np.random.default_rng(11)
        f = random_series(rng, -3, 3)
        values = [
            bicyclicity_infimum(f, P2, "all_integers", d).value for d in (2, 4, 8, 16)
        ]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12

    def test_result_unpacks_as_pair(self):
        res = bicyclicity_infimum(Z_MINUS_1, P2, "nonneg", 3)
        value, poly = res
        assert value == res.value
        assert poly is res.polynomial
        assert isinstance(res, InfimumResult)

    @pytest.mark.parametrize("space", [math.nan, 2.5, SpaceIndex(p=2.5)])
    def test_p_outside_the_solver_range_raises(self, space):
        # a NaN p used to reach the solver and return value nan, not converged;
        # p > 2 had a second message
        with pytest.raises(ValueError, match="the solver handles 1 < p <= 2 only"):
            bicyclicity_infimum(Z_MINUS_1, space, "all_integers", 4)
        with pytest.raises(ValueError, match="the solver handles 1 < p <= 2 only"):
            forward_shift_infimum(Z_MINUS_1, space, 4)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bicyclicity_infimum(Z_MINUS_1, SpaceIndex(p=1.0, beta=0.0), "nonneg", 2)
        with pytest.raises(ValueError):
            bicyclicity_infimum(Z_MINUS_1, SpaceIndex(p=0.7, beta=0.0), "nonneg", 2)
        with pytest.raises(ValueError):
            bicyclicity_infimum(Z_MINUS_1, SpaceIndex(p=2.5, beta=0.0), "nonneg", 2)
        with pytest.raises(ValueError):
            bicyclicity_infimum(Z_MINUS_1, P2, "sideways", 2)
        with pytest.raises(ValueError):
            bicyclicity_infimum(Z_MINUS_1, P2, "nonneg", -1)
        with pytest.raises(ValueError):
            bicyclicity_infimum(FourierSeries({}), P2, "nonneg", 2)


class TestBudgetExhaustion:
    def test_budget_spent_before_the_last_mu_step_is_not_converged(self, monkeypatch):
        # a smooth vanishing function whose degree-4 two-sided search takes
        # one Newton step in each mu step before the last and several in the
        # last; the budgets are read off the full run, because iteration
        # counts can differ between platforms
        f = certify_small_function()
        _, spent, _ = recording_solves(monkeypatch)
        full = bicyclicity_infimum(f, P15, "all_integers", 4)
        cumulative = np.cumsum(spent).tolist()
        assert full.converged is True
        assert min(spent) >= 1  # every iterative solve is charged
        assert (full.sweeps, full.iterations) == (len(spent), cumulative[-1])
        assert cumulative[-1] < engine.LSMR_TOTAL_BUDGET
        # the seed solve and the MU_STEPS - 1 early Newton steps come before
        # the last mu step: every budget up to what they spend runs out
        # before it starts, whether inside one of their solves or right
        # after one; so does each budget that runs out right after a solve
        # of the last mu step other than its last
        assert len(spent) > engine.MU_STEPS
        early = cumulative[engine.MU_STEPS - 1]
        budgets = set(range(1, early + 1)) | {c for c in cumulative if c < cumulative[-1]}
        assert len(budgets) > early >= engine.MU_STEPS
        for budget in sorted(budgets):
            monkeypatch.setattr(engine, "LSMR_TOTAL_BUDGET", budget)
            res = bicyclicity_infimum(f, P15, "all_integers", 4)
            assert res.converged is False, "budget %d reported converged" % budget
            assert res.iterations == budget

    def test_budget_spent_inside_the_last_solve_is_not_converged(self, monkeypatch):
        # budgets that cut the last solve short of PCG_RTOL, read off the full
        # run: that solve did not hold, so its step is no stall, however
        # little it moved, and the search has not converged
        f = certify_small_function()
        _, spent, _ = recording_solves(monkeypatch)
        full = bicyclicity_infimum(f, P15, "all_integers", 4)
        total = int(np.sum(spent))
        assert full.converged is True and full.iterations == total
        assert spent[-1] > 3  # every budget below cuts inside the last solve
        for budget in (total - 1, total - 2, total - 3):
            monkeypatch.setattr(engine, "LSMR_TOTAL_BUDGET", budget)
            res = bicyclicity_infimum(f, P15, "all_integers", 4)
            assert res.converged is False, "budget %d reported converged" % budget
            assert res.iterations == budget
        monkeypatch.setattr(engine, "LSMR_TOTAL_BUDGET", total)
        res = bicyclicity_infimum(f, P15, "all_integers", 4)
        assert res.converged is True and res.iterations == total

    def test_p2_solve_reports_running_out_of_budget(self, monkeypatch):
        # beta > 0 at p = 2 sweeps with fixed weights until INNER_RTOL; a
        # budget that runs out before that is reported as not converged
        f = certify_small_function()
        space = SpaceIndex(p=2.0, beta=0.25)
        _, spent, _ = recording_solves(monkeypatch)
        full = bicyclicity_infimum(f, space, "all_integers", 256)
        assert full.converged is True and full.sweeps > 1
        assert full.iterations == sum(spent)
        for budget in np.cumsum(spent).tolist()[:-1]:
            monkeypatch.setattr(engine, "LSMR_TOTAL_BUDGET", budget)
            res = bicyclicity_infimum(f, space, "all_integers", 256)
            assert res.converged is False, "budget %d reported converged" % budget

    def test_a_step_that_never_stalls_sweeps_until_the_budget_is_spent(
        self, monkeypatch
    ):
        # with a negative tolerance the last mu step never stalls, so the
        # iteration budget is the only thing that ends the search.  With one
        # mu step, that last step runs at the first mu, mu0, where the line
        # search accepts every step; at the least mu of the full schedule it
        # refuses one once the iterate sits on the minimizer to rounding
        monkeypatch.setattr(engine, "MU_STEPS", 1)
        monkeypatch.setattr(engine, "INNER_RTOL", -1.0)
        monkeypatch.setattr(engine, "LSMR_TOTAL_BUDGET", 3000)
        res = bicyclicity_infimum(Z_MINUS_1, P15, "nonneg", 8)
        assert res.converged is False
        assert res.iterations == 3000
        recomputed = residual_norm(Z_MINUS_1, res.polynomial, P15, target_one=True)
        assert abs(res.value - recomputed) < 1e-10 * max(1.0, recomputed)


class TestForcingSplit:
    """The seed solve and the last mu step solve to PCG_RTOL; the Newton
    steps of the mu steps before the last stop at PCG_RTOL_EARLY."""

    @pytest.mark.parametrize("search", [
        lambda f: bicyclicity_infimum(f, SpaceIndex(1.5, 0.25), "all_integers", 64),
        lambda f: forward_shift_infimum(f, P15, 64),
        lambda f: bicyclicity_infimum(f, SpaceIndex(1.25, 0.1), "nonneg", 32),
    ])
    def test_the_seed_and_the_last_mu_step_run_tight_and_the_rest_loose(
        self, monkeypatch, search
    ):
        _, _, rtols = recording_solves(monkeypatch)
        steps = recording_newton_steps(monkeypatch)
        res = search(certify_small_function())
        assert res.converged is True and res.sweeps == len(rtols) == 1 + len(steps)
        assert rtols[0] == engine.PCG_RTOL  # the seed solve
        # mu halves from one mu step to the next, so the last is the least
        mus = [step[5] for step in steps]
        assert len(set(mus)) == engine.MU_STEPS
        for mu, rtol in zip(mus, rtols[1:]):
            assert rtol == (engine.PCG_RTOL if mu == min(mus) else engine.PCG_RTOL_EARLY)
        assert engine.PCG_RTOL_EARLY > engine.PCG_RTOL

    @pytest.mark.parametrize("search", [
        lambda f: bicyclicity_infimum(f, SpaceIndex(2.0, 0.25), "all_integers", 256),
        lambda f: forward_shift_infimum(f, P2, 64),
    ])
    def test_a_p2_search_never_runs_loose(self, monkeypatch, search):
        # the only mu step at p = 2 is the last one
        _, _, rtols = recording_solves(monkeypatch)
        res = search(certify_small_function())
        assert res.converged is True and len(rtols) == res.sweeps >= 2
        assert set(rtols) == {engine.PCG_RTOL}


def assert_path_following(steps):
    """The recorded Newton steps' mu halves from one step to the next over
    the first MU_STEPS - 1 steps, one step per early mu step, and only the
    last mu repeats."""
    mus = [step[5] for step in steps]
    n = engine.MU_STEPS
    assert len(mus) >= n
    assert mus[:n] == [mus[0] * 2.0**-j for j in range(n)]
    assert set(mus[n - 1 :]) == {mus[n - 1]}


class TestPathFollowing:
    """Each mu step before the last takes one Newton step; the last takes
    Newton steps until one stalls."""

    @pytest.mark.parametrize("search", [
        lambda f: bicyclicity_infimum(f, P15, "all_integers", 64),
        lambda f: bicyclicity_infimum(f, SpaceIndex(1.5, 0.25), "all_integers", 64),
        lambda f: forward_shift_infimum(f, P15, 64),
        lambda f: forward_shift_infimum(f, SpaceIndex(1.5, 0.25), 64),
    ], ids=["two_sided-beta0", "two_sided-beta0.25", "shift-beta0", "shift-beta0.25"])
    def test_mu_halves_at_each_newton_step_before_the_last_mu_step(
        self, monkeypatch, search
    ):
        steps = recording_newton_steps(monkeypatch)
        res = search(certify_small_function())
        assert res.converged is True and res.sweeps == 1 + len(steps)
        assert_path_following(steps)

    # the relative gaps (value - lb) / value of two cold p = 1.5 two-sided
    # searches at degree 1024, measured when every mu step took Newton steps
    # until one stalled: criterion 10's function (the roadmap's table A'),
    # and certify_small's untruncated one, on a shifted preconditioner
    @pytest.mark.parametrize("function, gap", [
        (infimum_large_function, 3.06e-4),
        (certify_small_function_untruncated, 1.28e-3),
    ], ids=["criterion_10", "certify_small_untruncated"])
    def test_the_gap_is_no_wider_than_with_a_stall_at_every_mu_step(
        self, monkeypatch, function, gap
    ):
        steps = recording_newton_steps(monkeypatch)
        res, bound = search_and_bound(function(), P15, "bicyclic", 1024)
        assert res.converged is True
        assert_path_following(steps)
        assert bound.lower_bound is not None and bound.kernel_residual < 1e-15
        relative = (res.value - bound.lower_bound) / res.value
        assert 0.0 <= relative <= 1.1 * gap, relative


# table B' of the roadmap, the relative gaps (value - lb) / value of the
# cold p = 1.5 searches on certify_small's function, measured with the
# bound's projection before the early mu steps' solves were loosened:
# (side, beta, degree) -> gap
CERTIFY_SMALL_GAPS = {
    ("shift", 0.0, 64): 7.5e-7,
    ("shift", 0.0, 256): 3.1e-6,
    ("bicyclic", 0.0, 64): 1.3e-4,
    ("bicyclic", 0.0, 256): 3.8e-4,
    ("shift", 0.25, 64): 1.6e-6,
    ("shift", 0.25, 256): 2.3e-5,
    ("bicyclic", 0.25, 64): 6.8e-4,
    ("bicyclic", 0.25, 256): 1.65e-3,
}


def search_and_bound(f, space, side, degree, support="all_integers"):
    """One cold search and its dual bound."""
    if side == "bicyclic":
        res = bicyclicity_infimum(f, space, support, degree)
    else:
        res = forward_shift_infimum(f, space, degree)
    return res, engine.infimum_lower_bound(f, space, side, degree, res, support)


class TestDualBound:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 8), st.integers(1, 24), st.sampled_from(SUPPORTS),
        st.sampled_from([1.25, 1.5, 2.0]), st.sampled_from([0.0, 0.1, 0.25]),
        st.booleans(), st.integers(0, 2**32 - 1),
    )
    def test_never_exceeds_the_value(self, nf, degree, support, p, beta, shift, seed):
        rng = np.random.default_rng(seed)
        f = random_series(rng, -(nf // 2), nf - 1 - nf // 2)
        space = SpaceIndex(p, beta)
        side = "shift" if shift else "bicyclic"
        res, bound = search_and_bound(f, space, side, degree, support)
        assert bound.lower_bound is not None
        assert 0.0 <= bound.lower_bound <= res.value

    def test_never_exceeds_the_value_under_a_forced_breakdown(self, monkeypatch):
        # the stub of TestPreconditionedPath: the recursion breaks down on the
        # unshifted normal matrix, and search and bound run on T + n eps t_0 I
        f = certify_small_function()
        unshifted = _ConvObjective(f.lo, f.arr, -4, 4, 0, np.ones(1), 1.5, 0.0).normal_column
        real = engine._levinson_durbin

        def broken_unshifted(col):
            if np.array_equal(col, unshifted):
                raise ValueError("Levinson-Durbin recursion broke down")
            return real(col)

        monkeypatch.setattr(engine, "_levinson_durbin", broken_unshifted)
        res, bound = search_and_bound(f, P15, "bicyclic", 4)
        assert res.precond_shift == 9 * np.finfo(float).eps
        assert bound.lower_bound is not None
        assert 0.0 < bound.lower_bound <= res.value
        assert res.value - bound.lower_bound <= 1e-3 * res.value

    def test_untruncated_certify_small_function_breaks_down_and_is_bracketed(self):
        # the roadmap's table A'': on a shifted preconditioner three applies
        # of M leave ||A^H y|| at 1e-9; the rounds of solves settle near 1e-16
        f = certify_small_function_untruncated()
        res, bound = search_and_bound(f, P15, "bicyclic", 1024)
        assert res.precond_shift > 0.0
        assert bound.lower_bound is not None and bound.kernel_residual < 1e-15
        assert 0.9308 < bound.lower_bound <= res.value
        assert res.value - bound.lower_bound <= 1.1 * 1.28e-3 * res.value

    def test_no_bound_when_every_shift_breaks_down(self, monkeypatch):
        def broken(col):
            raise ValueError("Levinson-Durbin recursion broke down")

        monkeypatch.setattr(engine, "_levinson_durbin", broken)
        _, bound = search_and_bound(certify_small_function(), P15, "bicyclic", 4)
        assert bound.lower_bound is None

    @pytest.mark.parametrize("side", ["bicyclic", "shift"])
    def test_no_bound_when_the_projection_has_no_budget_left(self, monkeypatch, side):
        # every budget short of what the projection spends cuts it before
        # the round that settles it
        f = certify_small_function()
        res, full = search_and_bound(f, P15, side, 64)
        assert full.lower_bound is not None and full.iterations >= 2
        for budget in range(full.iterations):
            monkeypatch.setattr(engine, "LSMR_TOTAL_BUDGET", budget)
            bound = engine.infimum_lower_bound(f, P15, side, 64, res)
            assert bound.lower_bound is None, "budget %d gave a bound" % budget
        monkeypatch.setattr(engine, "LSMR_TOTAL_BUDGET", full.iterations)
        assert engine.infimum_lower_bound(f, P15, side, 64, res) == full

    @pytest.mark.parametrize("side", ["bicyclic", "shift"])
    @pytest.mark.parametrize("degree", [16, 64, 256])
    def test_z_minus_1_at_beta_0_meets_its_exact_infimum(self, side, degree):
        # the closed forms of TestNewtonStep: the bound lies below the
        # infimum, within the rounding it charges itself
        getcontext().prec = 40
        n = Decimal(degree)
        if side == "bicyclic":
            infimum = float(1 / (2 * n + 2) ** (Decimal(1) / 3))
        else:
            infimum = float((1 + 1 / (n + 2).sqrt()) ** (Decimal(2) / 3))
        res, bound = search_and_bound(Z_MINUS_1, P15, side, degree)
        assert infimum * (1 - 1e-12) <= bound.lower_bound <= min(infimum, res.value)

    @pytest.mark.parametrize("key", sorted(CERTIFY_SMALL_GAPS),
                             ids=lambda key: "%s-beta%g-deg%d" % key)
    def test_certify_small_gaps_are_no_wider_than_measured(self, key):
        side, beta, degree = key
        res, bound = search_and_bound(
            certify_small_function(), SpaceIndex(1.5, beta), side, degree)
        assert bound.kernel_residual < 1e-15
        gap = (res.value - bound.lower_bound) / res.value
        assert 0.0 <= gap <= 1.1 * CERTIFY_SMALL_GAPS[key], gap

    def test_refuses_an_unknown_side(self):
        res = bicyclicity_infimum(Z_MINUS_1, P15, "all_integers", 4)
        with pytest.raises(ValueError, match="unknown side"):
            engine.infimum_lower_bound(Z_MINUS_1, P15, "two_sided", 4, res)


class TestSzegoBound:
    def test_shift_limit_of_outer_moebius_factor(self):
        # |1 - h_3| = (1/3)/|z - 4/3| has log-mean log(1/4), an exact limit
        f = FourierSeries({0: 1.0}) - h_k(3, 120).series
        value, _ = forward_shift_infimum(f, P2, 200)
        assert abs(value - 0.25) < 1e-3
        assert abs(szego_lower_bound(f) - 0.25) < 1e-6

    def test_shift_never_beats_the_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            f = random_series(rng, 0, 3) + FourierSeries({0: 4.0})
            bound = szego_lower_bound(f)
            value, _ = forward_shift_infimum(f, P2, 48)
            assert value >= bound - 1e-8 * bound

    def test_constant(self):
        assert abs(szego_lower_bound(FourierSeries({0: 2.0})) - 2.0) < 1e-12


class TestCertify:
    def test_constant_one_is_bicyclic_only(self):
        rep = certify_cyclic(
            CertificateProblem(f=FourierSeries({0: 1.0}), space=P15, degree_budget=64)
        )
        assert rep.verdict == "bicyclic_only"
        assert rep.achieved_bicyclic_norm < 1e-12
        assert abs(rep.achieved_shift_norm - 1.0) < 1e-12
        assert abs(rep.szego_bound - 1.0) < 1e-12

    def test_z_minus_1_keeps_shift_above_szego(self):
        rep = certify_cyclic(
            CertificateProblem(
                f=Z_MINUS_1, space=P15, degree_budget=256, epsilon_target=0.5
            )
        )
        assert rep.verdict == "bicyclic_only"
        assert abs(rep.achieved_bicyclic_norm - 0.19740230) < 1e-4
        assert abs(rep.achieved_shift_norm - 1.04108569) < 1e-4
        assert abs(rep.szego_bound - 1.00203326) < 1e-4
        assert rep.achieved_shift_norm >= rep.szego_bound - 1e-8

    def test_certified_branch_on_scaled_input(self):
        # the shift norm scales linearly with f, so a small multiple of a
        # bicyclic vector drives both norms under the target; this checks
        # the verdict logic, not a cyclicity claim
        rep = certify_cyclic(
            CertificateProblem(
                f=Z_MINUS_1 * 0.1, space=P15, degree_budget=256, epsilon_target=0.25
            )
        )
        assert rep.verdict == "certified"
        assert rep.achieved_bicyclic_norm < 0.25
        assert rep.achieved_shift_norm < 0.25

    @pytest.mark.parametrize("measure", [None, 0.0, 2 * math.pi * (2 / 3) ** 6])
    def test_verdict_matches_norms(self, measure):
        # certify_small's function is certified at degree 64 against 0.95
        # (norms 0.945 and 7.9e-4); z - 1 fails at degree 8 against 0.1
        plain = []
        for f, budget, eps in [
            (FourierSeries({0: 1.0}), 32, 0.5),
            (Z_MINUS_1, 64, 0.5),
            (Z_MINUS_1 * 0.1, 64, 0.25),
            (certify_small_function(), 64, 0.95),
            (Z_MINUS_1, 8, 0.1),
        ]:
            rep = certify_cyclic(
                CertificateProblem(f=f, space=P15, degree_budget=budget, epsilon_target=eps,
                                   zero_set_measure=measure)
            )
            two_sided = rep.achieved_bicyclic_norm < eps
            both = two_sided and rep.achieved_shift_norm < eps
            plain.append("certified" if both else "bicyclic_only" if two_sided else "failed")
            assert rep.zero_set_measure == measure
            if measure:
                # a positive measure zero set: neither cyclic nor bicyclic
                assert rep.obstruction == "zero_set_positive_measure"
                assert rep.verdict == ("truncation_only" if two_sided else "failed")
            else:
                assert rep.obstruction is None
                assert rep.verdict == plain[-1]
        assert plain.count("certified") == 2 and plain.count("bicyclic_only") == 2
        assert plain.count("failed") == 1

    def test_report_reevaluates_from_stored_polynomials(self):
        rep = certify_cyclic(
            CertificateProblem(
                f=Z_MINUS_1, space=P15, degree_budget=128, epsilon_target=0.5
            )
        )
        re_b = residual_norm(Z_MINUS_1, rep.best_p, P15, target_one=True)
        re_s = residual_norm(Z_MINUS_1, rep.best_q, P15, target_one=False)
        assert abs(re_b - rep.achieved_bicyclic_norm) < 1e-10
        assert abs(re_s - rep.achieved_shift_norm) < 1e-10

    def test_trace_carries_convergence_flags(self):
        rep = certify_cyclic(
            CertificateProblem(f=Z_MINUS_1, space=P15, degree_budget=64)
        )
        row = rep.solver_trace[0]
        assert row["bicyclic_converged"] is True
        assert row["shift_converged"] is True

    def test_side_not_searched_has_no_flag(self):
        # the two-sided norm of f = 1 is 0 at degree 64, so degree 128
        # searches the shift side alone
        rep = certify_cyclic(
            CertificateProblem(
                f=FourierSeries({0: 1.0}), space=P15, degree_budget=128,
                epsilon_target=0.5,
            )
        )
        assert [row["degree"] for row in rep.solver_trace] == [64, 128]
        assert rep.solver_trace[1]["bicyclic_converged"] is None
        assert rep.solver_trace[1]["bicyclic_precond_shift"] is None
        assert isinstance(rep.solver_trace[1]["shift_converged"], bool)
        assert type(rep.solver_trace[1]["shift_precond_shift"]) is float

    def test_trace_carries_the_preconditioner_shift(self, monkeypatch):
        # delta = 0 where the recursion holds on T, and n eps = 9 eps on the
        # two-sided side at degree 4 (9 columns) after a forced breakdown
        f = certify_small_function()
        unshifted = _ConvObjective(f.lo, f.arr, -4, 4, 0, np.ones(1), 1.5, 0.0).normal_column
        real = engine._levinson_durbin

        def broken_unshifted(col):
            if np.array_equal(col, unshifted):
                raise ValueError("Levinson-Durbin recursion broke down")
            return real(col)

        monkeypatch.setattr(engine, "_levinson_durbin", broken_unshifted)
        rep = certify_cyclic(CertificateProblem(f=f, space=P15, degree_budget=4))
        row = rep.to_json_obj()["solver_trace"][0]
        assert row["bicyclic_precond_shift"] == 9 * np.finfo(float).eps
        assert row["shift_precond_shift"] == 0.0

    def test_trace_rows_name_both_sides(self, monkeypatch):
        # degree 64 searches both sides of f = 1, degree 128 the shift alone;
        # the searches go through the module's infima, which a tracer wraps
        calls = []

        def recording(name, solve):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return solve(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(engine, "bicyclicity_infimum",
                            recording("bicyclic", bicyclicity_infimum))
        monkeypatch.setattr(engine, "forward_shift_infimum",
                            recording("shift", forward_shift_infimum))
        rep = certify_cyclic(
            CertificateProblem(
                f=FourierSeries({0: 1.0}), space=P15, degree_budget=128,
                epsilon_target=0.5,
            )
        )
        assert calls == ["bicyclic", "shift", "shift"]
        keys = {"degree", "bicyclic_norm", "shift_norm", "bicyclic_converged",
                "shift_converged", "bicyclic_precond_shift", "shift_precond_shift"}
        assert [set(row) for row in rep.solver_trace] == [keys, keys]
        last = rep.solver_trace[-1]
        assert last["bicyclic_norm"] == rep.achieved_bicyclic_norm
        assert last["shift_norm"] == rep.achieved_shift_norm

    def test_exhausted_budget_shows_in_the_trace(self, monkeypatch):
        monkeypatch.setattr(engine, "LSMR_TOTAL_BUDGET", 1)
        calls, _, _ = recording_solves(monkeypatch)
        rep = certify_cyclic(
            CertificateProblem(f=Z_MINUS_1, space=P15, degree_budget=64)
        )
        # one solve per side spends the budget
        assert calls == ["toeplitz", "toeplitz"]
        row = rep.solver_trace[0]
        assert row["bicyclic_converged"] is False
        assert row["shift_converged"] is False
        assert rep.to_json_obj()["solver_trace"][0] == row

    def test_each_level_reproduces_as_a_standalone_cold_search(self):
        # certify_small's f at beta 0.25 and degrees 64 .. 1024; a target no
        # norm reaches searches both sides at every level.  A level whose
        # norm falls is its degree's own cold search, bit for bit, and one
        # whose norm holds found nothing better there.  Warm-started from the
        # level before, degree 128 read 0.980824218 and degree 1024
        # 0.975789730, where their own searches read 0.980866696 and
        # 0.976142064
        f, space = certify_small_function(), SpaceIndex(p=1.5, beta=0.25)
        rep = certify_cyclic(CertificateProblem(f=f, space=space, degree_budget=1024,
                                                epsilon_target=1e-9))
        assert [row["degree"] for row in rep.solver_trace] == [64, 128, 256, 512, 1024]
        searches = {
            "bicyclic": functools.partial(bicyclicity_infimum, f, space, "all_integers"),
            "shift": functools.partial(forward_shift_infimum, f, space),
        }
        best = {side: (math.inf, None) for side in searches}
        for row in rep.solver_trace:
            for side, search in searches.items():
                assert row[side + "_converged"] is not None
                alone = search(row["degree"])
                if row[side + "_norm"] < best[side][0]:
                    assert row[side + "_norm"] == alone.value
                    best[side] = (alone.value, alone.polynomial)
                else:
                    assert row[side + "_norm"] == best[side][0] <= alone.value
        for side, poly in (("bicyclic", rep.best_p), ("shift", rep.best_q)):
            assert poly.lo == best[side][1].lo
            assert_same_bits(poly.arr, best[side][1].arr)

    def test_trace_is_monotone(self):
        rep = certify_cyclic(
            CertificateProblem(
                f=Z_MINUS_1, space=P15, degree_budget=256, epsilon_target=1e-6
            )
        )
        bs = [row["bicyclic_norm"] for row in rep.solver_trace]
        ss = [row["shift_norm"] for row in rep.solver_trace]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bs, bs[1:]))
        assert all(s2 <= s1 + 1e-12 for s1, s2 in zip(ss, ss[1:]))

    def test_report_round_trips_to_json(self):
        rep = certify_cyclic(
            CertificateProblem(f=Z_MINUS_1, space=P15, degree_budget=64)
        )
        obj = rep.to_json_obj()
        assert obj["verdict"] == rep.verdict
        assert obj["best_p"] is not None
        restored = FourierSeries.from_json(obj["best_p"])
        assert restored.support() == rep.best_p.support()

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            CertificateProblem(f=Z_MINUS_1, space=SpaceIndex(p=1.5, beta=0.5))
        with pytest.raises(ValueError):
            CertificateProblem(f=Z_MINUS_1, space=P15, degree_budget=-1)
        with pytest.raises(ValueError):
            CertificateProblem(f=Z_MINUS_1, space=P15, epsilon_target=0.0)
        with pytest.raises(ValueError):
            CertificateProblem(f=Z_MINUS_1, space=P15, support="diag")
        with pytest.raises(ValueError):
            CertificateProblem(f=FourierSeries({}), space=P15)

    @pytest.mark.parametrize("kwargs", [
        # z - 1 at degree 8 used to read `certified` against an infinite target
        {"degree_budget": 8, "epsilon_target": math.inf},
        # a NaN tail used to be written into the report
        {"truncation_tail": math.nan},
        {"truncation_tail": math.inf},
        {"truncation_tail": -0.1},
        # 8.5 used to fail in the degree schedule with a TypeError
        {"degree_budget": 8.5},
        {"degree_budget": True},
        {"zero_set_measure": -0.1},
        {"zero_set_measure": 2 * math.pi + 1e-9},
        {"zero_set_measure": math.nan},
        {"zero_set_measure": True},
        {"zero_set_measure": "0.5"},
        # a positive support at budget 0 used to fail in the first search
        {"support": "positive", "degree_budget": 0},
    ], ids=lambda kwargs: "-".join("%s=%r" % item for item in kwargs.items()))
    def test_problem_refuses_an_out_of_range_input(self, kwargs):
        with pytest.raises(ValueError, match=list(kwargs)[-1]):
            CertificateProblem(f=Z_MINUS_1, space=P15, **kwargs)

    def test_positive_support_runs_from_budget_1(self):
        rep = certify_cyclic(CertificateProblem(f=Z_MINUS_1, space=P15, support="positive",
                                                degree_budget=1))
        assert [row["degree"] for row in rep.solver_trace] == [1]
        # 1 - c z (z - 1) has l^1.5 norm^1.5 1 + 2 |c|^1.5, least at P = 0
        assert rep.achieved_bicyclic_norm == 1.0
        assert rep.best_p.support() == []

    @pytest.mark.parametrize("measure", [None, 0, 0.0, 2 * math.pi, np.float64(0.5)])
    def test_zero_set_measure_accepts_none_and_the_closed_interval(self, measure):
        problem = CertificateProblem(f=Z_MINUS_1, space=P15, zero_set_measure=measure)
        assert problem.zero_set_measure is measure

    @pytest.mark.parametrize("p", [1.0, 2.5, math.nan])
    def test_problem_refuses_p_outside_the_solver_range(self, p):
        # p = 1 used to divide by zero, and p = 2.5 to fail only in the first solve
        with pytest.raises(ValueError, match="1 < p <= 2"):
            CertificateProblem(f=Z_MINUS_1, space=p)


@pytest.fixture(scope="module")
def carleson_setup():
    E = cantor_build(middle_thirds_spec(8))
    G = 2**11
    f = smooth_vanishing_function(distance_to_set(circle_grid(G), E), 1.0).series
    return E, f, G


class TestDecayExperiment:
    def test_carleson_set_stalls(self, carleson_setup):
        E, f, G = carleson_setup
        rep = p_epsilon_decay(f, distance_to_set(circle_grid(G), E), 1.0, P15, [1e-1, 1e-2, 1e-3])
        assert rep.verdict == "stalls"
        norms = [row[2] for row in rep.schedule]
        for got, want in zip(norms, DECAY_NORMS_MT8):
            assert abs(got - want) < 1e-6 * want
        assert all(r > 0.0 and math.isfinite(r) for r in rep.normalized_ratios)

    def test_refinement_stability(self, carleson_setup):
        E, f, G = carleson_setup
        d, d2 = (distance_to_set(circle_grid(n), E) for n in (G, 2 * G))
        coarse = p_epsilon_decay(f, d, 1.0, P15, [1e-1, 1e-2], truncation=G // 4)
        f2 = smooth_vanishing_function(d2, 1.0).series
        fine = p_epsilon_decay(f2, d2, 1.0, P15, [1e-1, 1e-2], truncation=G // 4)
        for a, b in zip(coarse.schedule, fine.schedule):
            assert abs(a[2] - b[2]) < 1e-3 * a[2]

    def test_rejects_nonvanishing_f(self, carleson_setup):
        E, _, G = carleson_setup
        with pytest.raises(ValueError, match="vanish"):
            p_epsilon_decay(FourierSeries({0: 1.0}), distance_to_set(circle_grid(G), E), 1.0, P15,
                            [1e-1, 1e-2])

    def test_rejects_bad_schedules(self, carleson_setup):
        E, f, G = carleson_setup
        d = distance_to_set(circle_grid(G), E)
        with pytest.raises(ValueError):
            p_epsilon_decay(f, d, 1.0, P15, [1e-1])
        with pytest.raises(ValueError):
            p_epsilon_decay(f, d, 1.0, P15, [1e-2, 1e-1])
        with pytest.raises(ValueError):
            p_epsilon_decay(f, d, -1.0, P15, [1e-1, 1e-2])

    def test_equals_a_recomputation_through_full_outer_functions(self, carleson_setup):
        # p_epsilon_decay reads only the boundary samples of p_eps; building
        # the whole OuterFunction instead must give the same report bit for bit
        E, f, G = carleson_setup
        gamma, schedule = 1.0, [1e-1, 1e-2, 1e-3]
        d = distance_to_set(circle_grid(G), E)
        rep = p_epsilon_decay(f, d, gamma, P15, schedule)
        f_grid = eval_on_grid(f, G)
        rows, ratios = [], []
        for eps in schedule:
            prod = outer_power_modulus(d, gamma, eps, "p_eps").boundary * f_grid
            norm = norm_ap_beta(series_from_samples(prod, G // 4), P15)
            m = float(np.mean(half_log_integrand(d, gamma, eps)))
            rows.append((eps, m, norm))
            ratios.append(norm**2 / ((1.0 + m) * math.exp(-2.0 * m)))
        assert rep.schedule == rows
        assert rep.normalized_ratios == ratios

    def test_json_shape(self, carleson_setup):
        E, f, G = carleson_setup
        rep = p_epsilon_decay(f, distance_to_set(circle_grid(G), E), 1.0, P15, [1e-1, 1e-2])
        obj = rep.to_json_obj()
        assert len(obj["schedule"]) == 2
        assert obj["grid_size"] == G
        assert obj["verdict"] in ("decays", "stalls")


class TestKernelRatio:
    def test_frozen_smoke_values(self):
        E = cantor_build(middle_thirds_spec(8))
        d = distance_to_set(circle_grid(2**10), E)
        got, m_values = lemma_kel_ratio(d, 1.0, 1.2, [1e-1, 1e-2])
        for g, want in zip(got, KEL_RATIOS_MT8):
            assert abs(g - want) < 1e-6 * want
        # the M_eps values the ratios divide by, bit for bit
        assert m_values == [m_epsilon(d, 1.0, eps) for eps in (1e-1, 1e-2)]

    def test_equals_a_recomputation_through_full_outer_functions(self):
        # the ratios read only the boundary samples of F_eps, and the spectrum
        # of the weight g is taken once; the per-eps form with whole
        # OuterFunctions must give the same ratios bit for bit (t2 correlates
        # two real arrays, so both sides take it by half-length transforms)
        E = cantor_build(middle_thirds_spec(8))
        G, gamma, delta_prime, schedule = 2**10, 1.0, 1.2, [1e-1, 1e-2, 1e-3]
        d = distance_to_set(circle_grid(G), E)
        got, _ = lemma_kel_ratio(d, gamma, delta_prime, schedule)
        g = np.zeros(G)
        pos = d > 0.0
        g[pos] = d[pos] ** (2.0 * (delta_prime - gamma))
        kernel = lag_kernel(G, analytic.KEL_EXCLUSION_CELLS / G, -2.0)
        want = []
        for eps in schedule:
            F = outer_power_modulus(d, gamma, eps, "F_eps").boundary
            absF2 = np.abs(F) ** 2
            t1 = float(np.sum(g * absF2))
            t2 = np.fft.irfft(np.conj(np.fft.rfft(g)) * np.fft.rfft(absF2), G)
            t3 = np.real(np.fft.ifft(np.conj(np.fft.fft(g * F)) * np.fft.fft(F)))
            lhs = (analytic.TWO_PI / G) ** 2 * float(np.sum(kernel * (t1 + t2 - 2.0 * t3)))
            want.append(lhs / m_epsilon(d, gamma, eps))
        assert got == want

    @pytest.mark.parametrize("name, depth, G", [
        ("middle_thirds", 8, 2**10),
        ("non_carleson_n2", 10, 2**12),
    ])
    def test_half_spectrum_t2_matches_the_full_spectrum_correlation(self, name, depth, G):
        # t2[l] = sum_j g_j |F_{j+l}|^2 by half-length real transforms, against
        # the full complex transforms it replaced
        E = cantor_build(cantor_spec_by_name(name, depth))
        d = distance_to_set(circle_grid(G), E)
        g = np.zeros(G)
        pos = d > 0.0
        g[pos] = d[pos] ** (2.0 * (1.2 - 1.0))
        for eps in (1e-1, 1e-3, 1e-6):
            absF2 = np.abs(outer_power_modulus(d, 1.0, eps, "F_eps").boundary) ** 2
            half = np.fft.irfft(np.conj(np.fft.rfft(g)) * np.fft.rfft(absF2), G)
            full = np.real(np.fft.ifft(np.conj(np.fft.fft(g)) * np.fft.fft(absF2)))
            assert np.max(np.abs(half - full)) <= 1e-12 * np.max(np.abs(full))

    def test_grid_doubling_is_stable(self):
        E = cantor_build(middle_thirds_spec(8))
        a = lemma_kel_ratio(distance_to_set(circle_grid(2**10), E), 1.0, 1.2, [1e-1])[0][0]
        b = lemma_kel_ratio(distance_to_set(circle_grid(2**11), E), 1.0, 1.2, [1e-1])[0][0]
        assert abs(a - b) < 0.05 * a

    def test_hypothesis_guard(self):
        E = cantor_build(middle_thirds_spec(8))
        with pytest.raises(ValueError, match="2\\*delta"):
            lemma_kel_ratio(distance_to_set(circle_grid(2**10), E), 1.0, 0.9, [1e-1])

    def test_large_eps_rejected_when_mean_negative(self):
        E = cantor_build(middle_thirds_spec(8))
        # at eps = 10 the half log-integral is negative; the ratio is undefined
        with pytest.raises(ValueError, match="eps too large"):
            lemma_kel_ratio(distance_to_set(circle_grid(2**10), E), 1.0, 1.2, [10.0])

    def test_grid_validation(self):
        E = cantor_build(middle_thirds_spec(8))
        with pytest.raises(ValueError):
            lemma_kel_ratio(distance_to_set(circle_grid(1000), E), 1.0, 1.2, [1e-1])


# the five kernels of the sampled distance d, each with valid other arguments
DISTANCE_KERNELS = {
    "smooth_vanishing_function": lambda d, gamma: smooth_vanishing_function(d, gamma),
    "m_epsilon": lambda d, gamma: m_epsilon(d, gamma, 0.1),
    "outer_power_modulus": lambda d, gamma: outer_power_modulus(d, gamma, 0.1, "F_eps"),
    "p_epsilon_decay": lambda d, gamma: p_epsilon_decay(Z_MINUS_1, d, gamma, P15,
                                                        [1e-1, 1e-2]),
    "lemma_kel_ratio": lambda d, gamma: lemma_kel_ratio(d, gamma, 1.2, [1e-1]),
}


def _with_entry(value):
    d = distance_to_set(circle_grid(2**10), cantor_build(middle_thirds_spec(4)))
    d[100] = value
    return d


class TestSampledDistance:
    """Every kernel of d reads d and gamma through one check, with one error."""

    @pytest.mark.parametrize("d", [
        np.ones((16, 16)), np.ones(48), np.ones(8), _with_entry(math.nan),
        _with_entry(-1e-3), _with_entry(math.inf),
    ], ids=["2-D", "48 points", "8 points", "NaN entry", "negative entry", "inf entry"])
    def test_every_kernel_refuses_a_bad_distance_alike(self, d):
        for name, kernel in DISTANCE_KERNELS.items():
            with pytest.raises(ValueError) as info:
                kernel(d, 1.0)
            assert str(info.value) == ("d must be a finite, nonnegative 1-D grid of a "
                                       "power of two >= 16 points"), name

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan])
    def test_every_kernel_refuses_a_bad_gamma_alike(self, gamma):
        d = _with_entry(0.5)
        for name, kernel in DISTANCE_KERNELS.items():
            with pytest.raises(ValueError) as info:
                kernel(d, gamma)
            assert str(info.value) == "gamma must be positive and finite", name

    def test_decay_sweep_checks_d_once_over_its_schedule(self, carleson_setup, monkeypatch):
        E, f, G = carleson_setup
        d = distance_to_set(circle_grid(G), E)
        calls = []
        check = analytic._sampled_distance
        monkeypatch.setattr(analytic, "_sampled_distance",
                            lambda d, gamma: calls.append(1) or check(d, gamma))
        p_epsilon_decay(f, d, 1.0, P15, [1e-1, 1e-2, 1e-3])
        assert len(calls) == 1


def test_engine_reexports_the_sweeps_of_analytic():
    # perfbench/tracing.py looks both sweeps up on cyclab.engine
    assert engine.p_epsilon_decay is analytic.p_epsilon_decay
    assert engine.lemma_kel_ratio is analytic.lemma_kel_ratio


class TestClassifier:
    def test_algebra_exclusion(self):
        # q = 3 at p = 1.5, so beta = 0.4 gives beta*q = 1.2 > 1
        got = classify_regime(0.0, SpaceIndex(p=1.5, beta=0.4), "c_infty", True, True)
        assert got == "no_cyclic_vectors"

    def test_dimension_obstruction(self):
        got = classify_regime(0.9, SpaceIndex(p=1.5, beta=0.1), "c_infty", True, True)
        assert got == "not_cyclic"

    def test_smooth_sufficient_branch(self):
        got = classify_regime(0.3, SpaceIndex(p=1.5, beta=0.0), "c_infty", True, False)
        assert got == "cyclic_sufficient"

    def test_smooth_needs_divergence(self):
        got = classify_regime(0.3, SpaceIndex(p=1.5, beta=0.0), "c_infty", False, False)
        assert got == "indeterminate"

    def test_lipschitz_branch(self):
        space = SpaceIndex(p=2.0, beta=0.0)
        got = classify_regime(0.5, space, ("lip_delta", 0.4), False, True)
        assert got == "cyclic_sufficient"
        got = classify_regime(0.5, space, ("lip_delta", 0.4), False, False)
        assert got == "indeterminate"
        # delta at the threshold beta + 1/p - 1/2 = 0 is not enough
        got = classify_regime(0.5, space, ("lip_delta", 0.0), False, True)
        assert got == "indeterminate"

    def test_list_form_matches_tuple_form(self):
        space = SpaceIndex(p=2.0, beta=0.0)
        assert classify_regime(
            0.5, space, ["lip_delta", 0.4], False, True
        ) == classify_regime(0.5, space, ("lip_delta", 0.4), False, True)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            classify_regime(0.5, SpaceIndex(p=1.0, beta=0.0), "c_infty", True, True)
        with pytest.raises(ValueError):
            classify_regime(1.5, P2, "c_infty", True, True)
        with pytest.raises(ValueError):
            classify_regime(0.5, P2, "smoothish", True, True)

    @settings(max_examples=120, deadline=None)
    @given(
        st.floats(0.0, 1.0),
        st.floats(1.01, 2.0),
        st.floats(0.0, 0.6),
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.floats(0.0, 1.0),
    )
    def test_verdict_consistency(self, dim, p, beta, smooth, flag_a, flag_b, delta):
        space = SpaceIndex(p=p, beta=beta)
        smoothness = "c_infty" if smooth else ("lip_delta", delta)
        got = classify_regime(dim, space, smoothness, flag_a, flag_b)
        q = p / (p - 1.0)
        bq = beta * q
        if bq > 1.0:
            assert got == "no_cyclic_vectors"
        elif dim > 1.0 - bq:
            assert got == "not_cyclic"
        elif got == "cyclic_sufficient":
            assert dim < 2.0 * (1.0 - bq) / q
            if smooth:
                assert flag_a
            else:
                assert flag_b and delta > beta + 1.0 / p - 0.5
        else:
            assert got == "indeterminate"
