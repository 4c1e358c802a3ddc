import json
from pathlib import Path

import numpy as np
import pytest

from specflow.charmatrix import adjoint_symbol, is_hyperbolic
from specflow.configio import pencil_from_json
from specflow.kernels import (ExpPolyKernel, SumKernel, exponential_kernel,
                              gaussian_kernel, sample_kernel)
from rational import axis_winding, root_balance
from specflow.symbols import (ShiftTerm, Symbol, combine_symbols,
                              weight_shift)

from conftest import (flow_index, random_2x2_symbol, random_scalar_symbol,
                      sampled_axis_winding)

CONFIGS = Path(__file__).resolve().parents[1] / "src" / "specflow" / "configs"


def test_root_balance_matches_numpy_roots():
    rng = np.random.default_rng(7)
    for k in range(300):
        deg = int(rng.integers(1, 9))
        coeffs = rng.normal(size=deg + 1)
        if k % 2:
            coeffs = coeffs + 1j * rng.normal(size=deg + 1)
        roots = np.roots(coeffs[::-1])
        want = int(np.sum(roots.real < 0) - np.sum(roots.real > 0))
        assert root_balance(list(coeffs)) == want


def test_root_balance_axis_roots_and_zero():
    assert root_balance([1.0, 0.0, 1.0]) is None          # nu = +-i
    assert root_balance([0.0, 1.0]) is None               # nu = 0
    assert root_balance([0.0]) is None
    assert root_balance([-2j, 1.0]) is None               # nu = 2i
    assert root_balance([1.0, 1.0]) == 1
    assert root_balance([2.0]) == 0


@pytest.mark.parametrize("a, want", [(0.7, -1), (-0.7, 0)])
def test_scalar_shift_only(a, want):
    # Delta = nu - a: one root at a; (i ell - a)/(i ell + 1) winds -1 for a > 0
    sym = Symbol(1, None, (ShiftTerm(0.0, [[a]]),), 2.0)
    assert axis_winding(sym) == want


def _variants(sym, rng):
    """The symbol and its images under the operations that keep it rational."""
    n = sym.n
    L = np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n))
    R = np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n))
    other = (random_scalar_symbol if n == 1 else random_2x2_symbol)(rng)
    yield sym
    yield weight_shift(sym, 0.3)
    yield weight_shift(sym, -0.2)
    yield adjoint_symbol(sym)
    yield Symbol(n, sym.kernel.sandwich(L, R), sym.shifts, sym.eta)
    yield Symbol(n, sym.kernel.scaled(0.7 - 0.4j), sym.shifts, sym.eta)
    yield combine_symbols(sym, other, 0.35, 0.65)
    extra = ExpPolyKernel(n, [(-1, 2.5, 2, 0.4 * L), (1, 2.0, 1, -0.3 * R)])
    yield Symbol(n, SumKernel([(1.0, sym.kernel), (1.0, extra)]), sym.shifts, sym.eta)


@pytest.mark.parametrize("make", [random_scalar_symbol, random_2x2_symbol])
def test_winding_matches_sampled_phase(rng, make):
    checked = 0
    for _ in range(6):
        for sym in _variants(make(rng, want_hyperbolic=False), rng):
            res = is_hyperbolic(sym)
            if not res.hyperbolic:
                continue
            assert axis_winding(sym) == sampled_axis_winding(sym)
            assert res.winding == axis_winding(sym)
            checked += 1
    assert checked >= 30


def test_not_rational_returns_none():
    K = exponential_kernel(2.0, [[1.0]])
    shifts = (ShiftTerm(0.0, [[1.0]]),)
    assert axis_winding(Symbol(1, K, shifts, 1.5)) == -1
    assert axis_winding(Symbol(1, gaussian_kernel(0.5, [[1.0]]), shifts, 1.5)) is None
    assert axis_winding(Symbol(1, sample_kernel(K, 0.05, 12.0), shifts, 1.5)) is None
    mixed = SumKernel([(1.0, K), (1.0, gaussian_kernel(0.5, [[1.0]]))])
    assert axis_winding(Symbol(1, mixed, shifts, 1.5)) is None
    assert axis_winding(Symbol(1, K, (ShiftTerm(0.0, [[1.0]]),
                                      ShiftTerm(0.5, [[0.2]])), 1.5)) is None


def test_axis_root_returns_none():
    # Delta(0) = -K_hat(0) - A = -1 + 1 = 0: a root at nu = 0
    sym = Symbol(1, exponential_kernel(2.0, [[1.0]]), (ShiftTerm(0.0, [[-1.0]]),), 1.9)
    assert axis_winding(sym) is None
    assert not is_hyperbolic(sym).hyperbolic
    shifted = weight_shift(sym, 0.1)
    assert axis_winding(shifted) is not None
    assert is_hyperbolic(shifted).winding == axis_winding(shifted)


@pytest.mark.parametrize("re, im", [("1.0:2.0:3", "-0.5:0.5:3"),
                                    ("1.2:1.8:2", "0.0:0.4:2")])
def test_exact_index_equals_flow_on_neuralfield_windows(re, im):
    limits = json.loads((CONFIGS / "neuralfield.json").read_text())["limits"]
    minus_at = pencil_from_json(limits["minus"], "limits.minus")
    plus_at = pencil_from_json(limits["plus"], "limits.plus")

    def axis(text):
        lo, hi, num = text.split(":")
        return np.linspace(float(lo), float(hi), int(num))

    nodes = 0
    for lam_im in axis(im):
        for lam_re in axis(re):
            sm, sp = minus_at(complex(lam_re, lam_im)), plus_at(complex(lam_re, lam_im))
            if not (is_hyperbolic(sm).hyperbolic and is_hyperbolic(sp).hyperbolic):
                continue
            exact = axis_winding(sp) - axis_winding(sm)
            assert flow_index(sm, sp, scan_points=200) == exact
            nodes += 1
    assert nodes > 0
