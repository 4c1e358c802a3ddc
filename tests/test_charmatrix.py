import numpy as np
import pytest

from specflow import charmatrix
from specflow.charmatrix import (adjoint_symbol, char_eval, det_values,
                                 is_hyperbolic)
from specflow.errors import ConfigurationError
from specflow.kernels import exponential_kernel
from specflow.roots import Rectangle, count_roots
from specflow.symbols import ShiftTerm, Symbol

from conftest import random_2x2_symbol, random_scalar_symbol
from oracles import exp_kernel_char_poly


def test_affine_scalar_case():
    sym = Symbol(1, None, (ShiftTerm(0.0, [[0.7]]),), 2.0)
    ce = char_eval(sym, 0.3 + 0.2j, orders=(0, 1))
    assert ce.d == pytest.approx((0.3 + 0.2j) - 0.7)
    assert ce.d1 == pytest.approx(1.0)


def test_unit_mass_at_zero():
    K = exponential_kernel(2.0, [[1.0]])
    sym = Symbol(1, K, (ShiftTerm(0.0, [[-0.6]]),), 1.5)
    ce = char_eval(sym, 0.0)
    assert ce.d == pytest.approx(-1.0 + 0.6, abs=1e-13)


def test_schrodinger_fold():
    # first-order system with d(nu) = nu^2 - lam, lam folded into the shift
    lam = 0.01
    A = np.array([[0.0, 1.0], [lam, 0.0]])
    sym = Symbol(2, None, (ShiftTerm(0.0, A),), 1.0)
    assert det_values(sym, np.array(0.1 + 0j)) == pytest.approx(0.0, abs=1e-14)
    assert det_values(sym, np.array(0.3 + 0j)) == pytest.approx(0.09 - lam)


def test_derivative_formula_vs_finite_differences(rng):
    sym = random_2x2_symbol(rng, want_hyperbolic=False)
    h = 1e-5
    for _ in range(6):
        nu = complex(rng.uniform(-0.8, 0.8), rng.uniform(-3, 3))
        ce = char_eval(sym, nu, orders=(0, 1))
        if abs(ce.d) < 1e-6:
            continue
        fd = (det_values(sym, np.array(nu + h))
              - det_values(sym, np.array(nu - h))) / (2 * h)
        assert abs(ce.d1 - fd) <= 1e-6 * max(1.0, abs(fd))


def test_derivative_at_root_via_cauchy():
    # scalar with a root at 0: d' should still be accurate there
    K = exponential_kernel(2.0, [[1.0]])
    sym = Symbol(1, K, (ShiftTerm(0.0, [[-1.0]]),), 1.5)
    ce = char_eval(sym, 0.0, orders=(0, 1))
    assert abs(ce.d) < 1e-14
    assert ce.d1 == pytest.approx(1.0, abs=1e-10)   # 1 - K_hat'(0) = 1


def test_hyperbolicity_simple_cases():
    hyp = is_hyperbolic(Symbol(1, None, (ShiftTerm(0.0, [[1.0]]),), 2.0))
    assert hyp.hyperbolic
    assert hyp.margin == pytest.approx(1.0, rel=1e-6)
    assert abs(hyp.witnesses[0]) < 1e-6

    root = is_hyperbolic(Symbol(1, None, (ShiftTerm(0.0, [[0.0]]),), 2.0))
    assert not root.hyperbolic


def test_hyperbolicity_exponential_cubic():
    # kernel a=2 with shift -2: the cleared-denominator cubic has no
    # imaginary roots, so the symbol is hyperbolic
    K = exponential_kernel(2.0, [[1.0]])
    sym = Symbol(1, K, (ShiftTerm(0.0, [[-2.0]]),), 1.9)
    coeffs = exp_kernel_char_poly(2.0, 1.0, -2.0)
    assert all(abs(r.real) > 1e-8 for r in np.roots(coeffs))
    assert is_hyperbolic(sym).hyperbolic


def _reference_axis_margin(symbol):
    """axis_margin with its coarse minima found by a Python loop."""
    cap = charmatrix.axis_cutoff(symbol)
    m0 = max(257, int(min(8 * cap, 2049)) | 1)
    ells = np.linspace(-cap, cap, m0)
    sig = charmatrix._sigma_min_axis(symbol, ells)
    idx = [k for k in range(1, m0 - 1)
           if sig[k] <= sig[k - 1] and sig[k] <= sig[k + 1]]
    idx.sort(key=lambda k: sig[k])
    cands = [k for k in idx if sig[k] <= max(100.0 * sig.min(), 1e-3)][:8]
    best, where = np.inf, float(ells[int(np.argmin(sig))])
    for k in cands or [int(np.argmin(sig))]:
        b, w = float(sig[k]), float(ells[k])
        step = ells[1] - ells[0]
        for _ in range(charmatrix._REFINE_ROUNDS):
            step = step / 8.0
            local = w + step * np.arange(-8, 9)
            lsig = charmatrix._sigma_min_axis(symbol, local)
            if lsig.min() < b:
                b, w = float(lsig.min()), float(local[int(np.argmin(lsig))])
            if step < 1e-13 * max(1.0, cap):
                break
        if b < best:
            best, where = b, w
    return best, where


def test_axis_margin_matches_loop_reference(rng):
    # the coarse minima come from one numpy expression; the same
    # candidates in the same order give bit-identical margins
    for k in range(16):
        make = random_scalar_symbol if k % 2 else random_2x2_symbol
        sym = make(rng, want_hyperbolic=False)
        assert charmatrix.axis_margin(sym) == _reference_axis_margin(sym)
    for shift in (-1.0, -0.5, 0.3):   # an axis root at ell = 0 for -1.0
        sym = Symbol(1, exponential_kernel(2.0, [[1.0]]),
                     (ShiftTerm(0.0, [[shift]]),), 1.5)
        assert charmatrix.axis_margin(sym) == _reference_axis_margin(sym)


def test_hyperbolicity_refuses_nan_samples(monkeypatch):
    # a NaN margin never clears an interval: it must be refused before
    # the refinement, never certified
    monkeypatch.setattr(charmatrix, "_axis_values",
                        lambda sym, ells: (np.full(np.shape(ells), np.nan),) * 2)
    monkeypatch.setattr(charmatrix, "_MAX_ROUNDS", 3)
    sym = Symbol(1, None, (ShiftTerm(0.0, [[1.0]]),), 2.0)
    with pytest.raises(ConfigurationError):
        is_hyperbolic(sym)


def test_hyperbolicity_inconclusive_when_rounds_run_out(monkeypatch):
    # a small margin that never clears within the rounds is no certificate
    monkeypatch.setattr(charmatrix, "_axis_values",
                        lambda sym, ells: (np.full(np.shape(ells), 1e-6),) * 2)
    monkeypatch.setattr(charmatrix, "_MAX_ROUNDS", 3)
    res = is_hyperbolic(Symbol(1, None, (ShiftTerm(0.0, [[1.0]]),), 2.0))
    assert not res.hyperbolic and res.inconclusive


def test_axis_consistency_with_root_counts(rng):
    # a thin axis rectangle holds zero roots exactly when hyperbolic
    for make in (random_scalar_symbol, random_2x2_symbol):
        sym = make(rng, want_hyperbolic=True)
        res = is_hyperbolic(sym)
        box = Rectangle(-1e-4, 1e-4, -res.l_cap, res.l_cap)
        assert count_roots(sym, box) == 0


def test_adjoint_determinant_identity(rng):
    for make in (random_scalar_symbol, random_2x2_symbol):
        sym = make(rng, want_hyperbolic=False)
        adj = adjoint_symbol(sym)
        n = sym.n
        for _ in range(10):
            nu = complex(rng.uniform(-0.9, 0.9), rng.uniform(-4, 4))
            lhs = det_values(adj, np.array(nu))
            rhs = (-1) ** n * np.conj(det_values(sym, np.array(-np.conj(nu))))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_adjoint_real_reduction(rng):
    # real symbols at real nu: det D_adj(nu) = (-1)^n det D(-nu)
    sym = random_2x2_symbol(rng, want_hyperbolic=False)
    adj = adjoint_symbol(sym)
    for _ in range(10):
        nu = rng.uniform(-0.9, 0.9)
        lhs = det_values(adj, np.array(nu + 0j))
        rhs = det_values(sym, np.array(-nu + 0j))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_adjoint_hyperbolicity_equivalence(rng):
    for _ in range(5):
        sym = random_2x2_symbol(rng, want_hyperbolic=False)
        assert (is_hyperbolic(sym).hyperbolic
                == is_hyperbolic(adjoint_symbol(sym)).hyperbolic)
