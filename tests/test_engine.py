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
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from cyclab import engine
from cyclab.analytic import (
    h_k,
    half_log_integrand,
    lag_kernel,
    m_epsilon,
    outer_power_modulus,
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
    lemma_kel_ratio,
    p_epsilon_decay,
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
    """Route _ConvObjective.solve_weighted through a wrapper; returns two
    lists over its calls: the preconditioner each solve ran with, "toeplitz"
    or "plain", and the iterations each was charged."""
    kinds, spent = [], []
    real = _ConvObjective.solve_weighted

    def wrapper(self, *args, **kwargs):
        toeplitz = isinstance(self.preconditioner, engine._ToeplitzInverse)
        kinds.append("toeplitz" if toeplitz else "plain")
        out = real(self, *args, **kwargs)
        spent.append(out[1])
        return out

    monkeypatch.setattr(_ConvObjective, "solve_weighted", wrapper)
    return kinds, spent


def residual_norm(f, poly, space, target_one):
    """Recompute the certificate norm from the returned polynomial."""
    prod = poly * f
    if target_one:
        r = FourierSeries({0: 1.0}) - prod
    else:
        r = f - prod * FourierSeries({1: 1.0})
    return norm_ap_beta(r, space)


class DenseObjective(_ConvObjective):
    """The operator with one exact dense least-squares solve per sweep: the
    reference the CG solves must reach."""

    @functools.cached_property
    def matrix(self):
        """The convolution matrix: column j is f at row conv_off + j."""
        cols = np.arange(self.n_cols)
        rows = self.conv_off + cols + np.arange(len(self.f_arr))[:, None]
        A = np.zeros((self.n_rows, self.n_cols), dtype=complex)
        A[rows, cols] = self.f_arr[:, None]
        return A

    def solve_weighted(self, w, x, resid, maxiter):
        sqrt_w = np.sqrt(w)
        x = scipy.linalg.lstsq(sqrt_w[:, None] * self.matrix, sqrt_w * self.b)[0]
        return x, 0, True


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


class FftconvolveObjective(_ConvObjective):
    """The operator with `fftconvolve` on every call: the reference the
    spectrum-caching operator must reproduce bit for bit."""

    def apply(self, x):
        y = np.zeros(self.n_rows, dtype=complex)
        conv = fftconvolve(self.f_arr, x)
        y[self.conv_off : self.conv_off + len(conv)] = conv
        return y

    def adjoint(self, y):
        nf = len(self.f_arr)
        seg = y[self.conv_off : self.conv_off + nf + self.n_cols - 1]
        full = fftconvolve(np.conj(self.f_arr[::-1]), seg)
        return full[nf - 1 : nf - 1 + self.n_cols]


def counting_transforms(monkeypatch):
    """Count the forward and inverse transforms the engine makes."""
    counts = {"fft": 0, "ifft": 0}
    for name in counts:
        real = getattr(engine.scipy.fft, name)

        def wrapper(*args, name=name, real=real, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(engine.scipy.fft, name, wrapper)
    return counts


def test_import_loads_no_scipy_subpackage_the_package_does_not_use(tmp_path):
    # scipy.signal alone pulls in scipy.stats, scipy.interpolate and
    # scipy.optimize; the solver's scipy.fft and scipy.linalg load at the
    # first solve, and scipy.sparse never.  Module presence, not wall time,
    # so it cannot flake
    unused = ("scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.optimize")
    lazy = ("scipy.fft", "scipy.linalg", "scipy.sparse", "scipy.special")
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
        "f = cyclab.FourierSeries({0: -1.0, 1: 1.0})",
        "cyclab.bicyclicity_infimum(f, cyclab.SpaceIndex(p=1.5, beta=0.0), degree=4)",
        "loaded()",
    ])
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    at_import, after_cantor, after_solve = map(json.loads, out.stdout.splitlines())
    assert at_import == [] and after_cantor == []
    assert {"scipy.fft", "scipy.linalg"} <= set(after_solve)
    assert not set(after_solve) & {"scipy.sparse", *unused}


def test_lsmr_is_bound_on_first_lookup():
    # perfbench/tracing.py wraps engine.lsmr by that name; no solve calls it
    import scipy.sparse.linalg

    assert engine.lsmr is scipy.sparse.linalg.lsmr
    with pytest.raises(AttributeError):
        engine.no_such_name


class TestCachedSpectrum:
    # f_lo, nf, degree, real f; a complex f also runs with a real x and y
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
        ref = FftconvolveObjective(*args)
        x = rng.standard_normal(prob.n_cols) + 1j * rng.standard_normal(prob.n_cols)
        y = rng.standard_normal(prob.n_rows) + 1j * rng.standard_normal(prob.n_rows)
        # a real f with a real x is left out: fftconvolve then takes a
        # half-spectrum transform, and the solver's iterates are complex
        xs = [x] if real_f else [x, x.real]
        ys = [y] if real_f else [y, y.real]
        for x in xs:
            assert np.array_equal(prob.apply(x), ref.apply(x))
        for y in ys:
            assert np.array_equal(prob.adjoint(y), ref.adjoint(y))

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

    # operand lengths; 1 on either side is a plain product, as in scipy
    @pytest.mark.parametrize("na, nx", [
        (1, 1), (1, 6), (7, 1), (6, 8), (7, 9), (8, 7), (2, 2),
    ])
    # a complex a, a complex x, or both; two real operands are not covered
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
        assert_same_bits(engine.fftconvolve(a, x), fftconvolve(a, x))

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
        assert counts == {"fft": 2, "ifft": 0}  # f and its reversed conjugate
        x = rng.standard_normal(prob.n_cols) + 1j * rng.standard_normal(prob.n_cols)
        for _ in range(3):
            counts.update(fft=0, ifft=0)
            y = prob.apply(x)
            assert counts == {"fft": 1, "ifft": 1}
            counts.update(fft=0, ifft=0)
            x = prob.adjoint(y)
            assert counts == {"fft": 1, "ifft": 1}

    def test_a_whole_solve_takes_the_spectrum_once(self, monkeypatch):
        # f's two spectra and the preconditioner's two spectra are each taken
        # once per problem, and so is the autocorrelation of f, which is two
        # forward transforms and one inverse; after that every convolution is
        # one forward and one inverse transform, and every preconditioner
        # apply three of each
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
            "fft": 2 + 2 + 2 + len(calls) + 3 * len(applied),
            "ifft": 1 + len(calls) + 3 * len(applied),
        }

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
        calls, _ = recording_solves(monkeypatch)
        f = certify_small_function()
        rng = np.random.default_rng(37)
        values = []
        for _ in range(3):
            res = bicyclicity_infimum(rotated(f, rng), P15, "all_integers", 64)
            assert res.converged is True
            values.append(res.value)
        assert set(calls) == {"toeplitz"}
        assert max(values) - min(values) < 1e-8


class TestToeplitzInverse:
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
        calls, _ = recording_solves(monkeypatch)
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
        # the preconditioner's Levinson solve is the only direct solve, and
        # at p = 2, beta = 0 it is exact: the seed sweep lands on the l2
        # minimizer, and the sweeps after it stop at the rounding floor
        levinson = []
        real = engine.scipy.linalg.solve_toeplitz

        def counting(*args, **kwargs):
            levinson.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine.scipy.linalg, "solve_toeplitz", counting)
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

    def test_levinson_breakdown_falls_back_to_plain_cg(self, monkeypatch):
        f = certify_small_function()
        with monkeypatch.context() as m:
            m.setattr(engine, "_ConvObjective", DenseObjective)
            exact = bicyclicity_infimum(f, P15, "all_integers", 4).value

        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("singular principal minor")

        monkeypatch.setattr(engine.scipy.linalg, "solve_toeplitz", broken)
        calls, _ = recording_solves(monkeypatch)
        res = bicyclicity_infimum(f, P15, "all_integers", 4)
        assert calls and set(calls) == {"plain"}
        assert res.converged is True and res.iterations >= len(calls)
        recomputed = residual_norm(f, res.polynomial, P15, target_one=True)
        assert abs(res.value - recomputed) < 1e-10 * recomputed
        assert abs(res.value - exact) < 1e-6 * exact

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

    def test_monotone_under_warm_start(self):
        rng = np.random.default_rng(13)
        f = random_series(rng, -2, 2)
        prev = bicyclicity_infimum(f, P15, "all_integers", 3)
        for d in (5, 8, 12):
            res = bicyclicity_infimum(f, P15, "all_integers", d, warm=prev.polynomial)
            assert res.value <= prev.value + 1e-12
            prev = res

    def test_shift_warm_start_carries_over(self):
        rng = np.random.default_rng(17)
        f = random_series(rng, 0, 3)
        prev = forward_shift_infimum(f, P15, 2)
        res = forward_shift_infimum(f, P15, 6, warm=prev.polynomial)
        assert res.value <= prev.value + 1e-12

    def test_result_unpacks_as_pair(self):
        res = bicyclicity_infimum(Z_MINUS_1, P2, "nonneg", 3)
        value, poly = res
        assert value == res.value
        assert poly is res.polynomial
        assert isinstance(res, InfimumResult)

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
        # tens of IRLS sweeps; the budgets are read off the full run, because
        # iteration counts can differ between platforms
        f = certify_small_function()
        _, spent = recording_solves(monkeypatch)
        full = bicyclicity_infimum(f, P15, "all_integers", 4)
        cumulative = np.cumsum(spent).tolist()
        assert full.converged is True
        assert min(spent) >= 1  # every iterative solve is charged
        assert (full.sweeps, full.iterations) == (len(spent), cumulative[-1])
        assert cumulative[-1] < engine.LSMR_TOTAL_BUDGET
        # each budget runs out right after one of the solves of the full run
        budgets = [c for c in cumulative if c < cumulative[-1]][:20]
        assert len(budgets) == 20
        for budget in budgets:
            monkeypatch.setattr(engine, "LSMR_TOTAL_BUDGET", budget)
            res = bicyclicity_infimum(f, P15, "all_integers", 4)
            assert res.converged is False, "budget %d reported converged" % budget
            assert res.iterations == budget

    def test_p2_solve_reports_running_out_of_budget(self, monkeypatch):
        # beta > 0 at p = 2 sweeps with fixed weights until INNER_RTOL; a
        # budget that runs out before that is reported as not converged
        f = certify_small_function()
        space = SpaceIndex(p=2.0, beta=0.25)
        _, spent = recording_solves(monkeypatch)
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
        # with a negative tolerance no continuation step ever stalls, so the
        # iteration budget is the only thing that ends the search
        monkeypatch.setattr(engine, "INNER_RTOL", -1.0)
        monkeypatch.setattr(engine, "LSMR_TOTAL_BUDGET", 3000)
        res = bicyclicity_infimum(Z_MINUS_1, P15, "nonneg", 8)
        assert res.converged is False
        assert res.iterations == 3000
        recomputed = residual_norm(Z_MINUS_1, res.polynomial, P15, target_one=True)
        assert abs(res.value - recomputed) < 1e-10 * max(1.0, recomputed)


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

    def test_verdict_matches_norms(self):
        for f, budget, eps in [
            (FourierSeries({0: 1.0}), 32, 0.5),
            (Z_MINUS_1, 64, 0.5),
            (Z_MINUS_1 * 0.1, 64, 0.25),
        ]:
            rep = certify_cyclic(
                CertificateProblem(f=f, space=P15, degree_budget=budget, epsilon_target=eps)
            )
            both = (
                rep.achieved_bicyclic_norm < eps and rep.achieved_shift_norm < eps
            )
            assert (rep.verdict == "certified") == both

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
        assert isinstance(rep.solver_trace[1]["shift_converged"], bool)

    def test_exhausted_budget_shows_in_the_trace(self, monkeypatch):
        monkeypatch.setattr(engine, "LSMR_TOTAL_BUDGET", 1)
        calls, _ = recording_solves(monkeypatch)
        rep = certify_cyclic(
            CertificateProblem(f=Z_MINUS_1, space=P15, degree_budget=64)
        )
        # one solve per side spends the budget
        assert calls == ["toeplitz", "toeplitz"]
        row = rep.solver_trace[0]
        assert row["bicyclic_converged"] is False
        assert row["shift_converged"] is False
        assert rep.to_json_obj()["solver_trace"][0] == row

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


@pytest.fixture(scope="module")
def carleson_setup():
    E = cantor_build(middle_thirds_spec(8))
    G = 2**11
    f = smooth_vanishing_function(E, 1.0, G).series
    return E, f, G


class TestDecayExperiment:
    def test_carleson_set_stalls(self, carleson_setup):
        E, f, G = carleson_setup
        rep = p_epsilon_decay(f, E, 1.0, P15, [1e-1, 1e-2, 1e-3], G=G)
        assert rep.verdict == "stalls"
        norms = [row[2] for row in rep.schedule]
        for got, want in zip(norms, DECAY_NORMS_MT8):
            assert abs(got - want) < 1e-6 * want
        assert all(r > 0.0 and math.isfinite(r) for r in rep.normalized_ratios)

    def test_refinement_stability(self, carleson_setup):
        E, f, G = carleson_setup
        coarse = p_epsilon_decay(f, E, 1.0, P15, [1e-1, 1e-2], G=G, truncation=G // 4)
        f2 = smooth_vanishing_function(E, 1.0, 2 * G).series
        fine = p_epsilon_decay(f2, E, 1.0, P15, [1e-1, 1e-2], G=2 * G, truncation=G // 4)
        for a, b in zip(coarse.schedule, fine.schedule):
            assert abs(a[2] - b[2]) < 1e-3 * a[2]

    def test_rejects_nonvanishing_f(self, carleson_setup):
        E, _, G = carleson_setup
        with pytest.raises(ValueError, match="vanish"):
            p_epsilon_decay(FourierSeries({0: 1.0}), E, 1.0, P15, [1e-1, 1e-2], G=G)

    def test_rejects_bad_schedules(self, carleson_setup):
        E, f, G = carleson_setup
        with pytest.raises(ValueError):
            p_epsilon_decay(f, E, 1.0, P15, [1e-1], G=G)
        with pytest.raises(ValueError):
            p_epsilon_decay(f, E, 1.0, P15, [1e-2, 1e-1], G=G)
        with pytest.raises(ValueError):
            p_epsilon_decay(f, E, -1.0, P15, [1e-1, 1e-2], G=G)

    def test_equals_a_recomputation_through_full_outer_functions(self, carleson_setup):
        # p_epsilon_decay reads only the boundary samples of p_eps; building
        # the whole OuterFunction instead must give the same report bit for bit
        E, f, G = carleson_setup
        gamma, schedule = 1.0, [1e-1, 1e-2, 1e-3]
        rep = p_epsilon_decay(f, E, gamma, P15, schedule, G=G)
        f_grid = eval_on_grid(f, G)
        d = distance_to_set(circle_grid(G), E)
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
        rep = p_epsilon_decay(f, E, 1.0, P15, [1e-1, 1e-2], G=G)
        obj = rep.to_json_obj()
        assert len(obj["schedule"]) == 2
        assert obj["grid_size"] == G
        assert obj["verdict"] in ("decays", "stalls")


class TestKernelRatio:
    def test_frozen_smoke_values(self):
        E = cantor_build(middle_thirds_spec(8))
        got, m_values = lemma_kel_ratio(E, 1.0, 1.2, [1e-1, 1e-2], 2**10)
        for g, want in zip(got, KEL_RATIOS_MT8):
            assert abs(g - want) < 1e-6 * want
        # the M_eps values the ratios divide by, bit for bit
        d = distance_to_set(circle_grid(2**10), E)
        assert m_values == [m_epsilon(d, 1.0, eps) for eps in (1e-1, 1e-2)]

    def test_equals_a_recomputation_through_full_outer_functions(self):
        # the ratios read only the boundary samples of F_eps, and the spectrum
        # of the weight g is taken once; the per-eps form with whole
        # OuterFunctions must give the same ratios bit for bit (t2 correlates
        # two real arrays, so both sides take it by half-length transforms)
        E = cantor_build(middle_thirds_spec(8))
        G, gamma, delta_prime, schedule = 2**10, 1.0, 1.2, [1e-1, 1e-2, 1e-3]
        got, _ = lemma_kel_ratio(E, gamma, delta_prime, schedule, G)
        d = distance_to_set(circle_grid(G), E)
        g = np.zeros(G)
        pos = d > 0.0
        g[pos] = d[pos] ** (2.0 * (delta_prime - gamma))
        kernel = lag_kernel(G, engine.KEL_EXCLUSION_CELLS / G, -2.0)
        want = []
        for eps in schedule:
            F = outer_power_modulus(d, gamma, eps, "F_eps").boundary
            absF2 = np.abs(F) ** 2
            t1 = float(np.sum(g * absF2))
            t2 = np.fft.irfft(np.conj(np.fft.rfft(g)) * np.fft.rfft(absF2), G)
            t3 = np.real(np.fft.ifft(np.conj(np.fft.fft(g * F)) * np.fft.fft(F)))
            lhs = (engine.TWO_PI / G) ** 2 * float(np.sum(kernel * (t1 + t2 - 2.0 * t3)))
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
        a = lemma_kel_ratio(E, 1.0, 1.2, [1e-1], 2**10)[0][0]
        b = lemma_kel_ratio(E, 1.0, 1.2, [1e-1], 2**11)[0][0]
        assert abs(a - b) < 0.05 * a

    def test_hypothesis_guard(self):
        E = cantor_build(middle_thirds_spec(8))
        with pytest.raises(ValueError, match="2\\*delta"):
            lemma_kel_ratio(E, 1.0, 0.9, [1e-1], 2**10)

    def test_large_eps_rejected_when_mean_negative(self):
        E = cantor_build(middle_thirds_spec(8))
        # at eps = 10 the half log-integral is negative; the ratio is undefined
        with pytest.raises(ValueError, match="eps too large"):
            lemma_kel_ratio(E, 1.0, 1.2, [10.0], 2**10)

    def test_grid_validation(self):
        E = cantor_build(middle_thirds_spec(8))
        with pytest.raises(ValueError):
            lemma_kel_ratio(E, 1.0, 1.2, [1e-1], 1000)


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
