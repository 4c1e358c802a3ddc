import numpy as np
import pytest

from specflow.charmatrix import delta_eval
from specflow.errors import ConfigurationError, StripViolation
from specflow.kernels import (ExpPolyKernel, GaussianKernel, SampledKernel,
                              SumKernel, exponential_kernel, gaussian_kernel)
from specflow.symbols import (OperatorFamily, ShiftTerm, Symbol,
                              combine_symbols, weight_shift)

from conftest import random_scalar_symbol


def test_symbol_validation():
    K = exponential_kernel(2.0, [[1.0]])
    with pytest.raises(StripViolation):
        Symbol(1, K, (), 2.5)          # eta beyond the kernel strip
    with pytest.raises(ValueError):
        Symbol(1, K, (ShiftTerm(0.0, [[1.0]]), ShiftTerm(0.0, [[2.0]])), 1.0)


def _scalar(n=1):
    return Symbol(n, None, (ShiftTerm(0.0, np.eye(n)),), 1.0)


@pytest.mark.parametrize("build", [
    lambda: exponential_kernel(2.0, [[1.0, 0.0]]),
    lambda: ExpPolyKernel(1, [(0, 1.0, 0, [[1.0]])]),
    lambda: ExpPolyKernel(1, [(1, -1.0, 0, [[1.0]])]),
    lambda: ExpPolyKernel(1, [(1, 1.0, -1, [[1.0]])]),
    lambda: GaussianKernel(1, 0.0, [[1.0]]),
    lambda: gaussian_kernel(1.0, [[1.0]]).transform(0.0, 3),
    lambda: SampledKernel(0.1, np.ones((3, 1, 2)), 1.0),
    lambda: SampledKernel(0.1, np.ones(3), 0.0),
    lambda: SumKernel([]),
    lambda: SumKernel([(1.0, exponential_kernel(2.0, [[1.0]])),
                       (1.0, exponential_kernel(2.0, np.eye(2)))]),
    lambda: combine_symbols(_scalar(1), _scalar(2), 0.5, 0.5),
    lambda: OperatorFamily.affine_homotopy(_scalar(), _scalar(), 1.0, 0.0),
    lambda: OperatorFamily.affine_homotopy(_scalar(1), _scalar(2)),
    lambda: OperatorFamily.tabulated([(0.0, _scalar())]),
    lambda: gaussian_kernel(0.0, [[1.0]]),
    lambda: gaussian_kernel(np.nan, [[1.0]]),
    lambda: exponential_kernel(np.nan, [[1.0]]),
    lambda: exponential_kernel(2.0, [[np.nan]]),
    lambda: ExpPolyKernel(1, [(1, np.inf, 0, [[1.0]])]),
    lambda: SampledKernel(np.nan, np.ones(3), 1.0),
    lambda: SampledKernel(0.1, np.ones(3), np.nan),
    lambda: SampledKernel(0.1, np.ones(3), 1.0, tol_tail=np.nan),
], ids=["matrix_shape", "term_side", "term_rate", "term_power", "sigma",
        "gaussian_order", "samples_shape", "eta0", "empty_sum",
        "sum_dimensions", "combine_dimensions", "rho_order",
        "endpoint_dimensions", "one_point_table", "gaussian_zero_sigma",
        "gaussian_nan_sigma", "exponential_nan_rate", "exponential_nan_matrix",
        "term_infinite_rate", "sampled_nan_h", "sampled_nan_eta0",
        "sampled_nan_tol_tail"])
def test_preconditions_raise_configuration_error(build):
    with pytest.raises(ConfigurationError):
        build()


def test_weight_shift_identity_and_zero(rng):
    sym = random_scalar_symbol(rng, want_hyperbolic=False)
    assert weight_shift(sym, 0.0) is sym
    gamma = 0.2
    shifted = weight_shift(sym, gamma)
    for _ in range(20):
        nu = complex(rng.uniform(-0.5, 0.5), rng.uniform(-5, 5))
        lhs = delta_eval(shifted, np.array(nu))
        rhs = delta_eval(sym, np.array(nu - gamma))
        assert np.abs(lhs - rhs).max() < 1e-12


def test_weight_shift_pure_shift_matrix():
    sym = Symbol(1, None, (ShiftTerm(0.0, [[1.3]]),), 2.0)
    shifted = weight_shift(sym, 0.4)
    assert shifted.shifts[0].A[0, 0] == pytest.approx(1.7)


def test_weight_shift_nonzero_offsets_scale():
    A = np.array([[0.5]])
    sym = Symbol(1, None, (ShiftTerm(0.0, [[0.1]]), ShiftTerm(1.5, A)), 2.0)
    shifted = weight_shift(sym, 0.3)
    xi_map = {s.xi: s.A for s in shifted.shifts}
    assert xi_map[1.5][0, 0] == pytest.approx(0.5 * np.exp(0.3 * 1.5))


def test_affine_family_endpoint_agreement(rng):
    # Delta of the family at rho_min / rho_max matches its declared limits
    s0 = random_scalar_symbol(rng)
    s1 = random_scalar_symbol(rng)
    fam = OperatorFamily.affine_homotopy(s0, s1)
    nu = 1j * np.linspace(-2.0, 2.0, 5)
    for rho, limit in ((fam.rho_min, fam.s_minus), (fam.rho_max, fam.s_plus)):
        assert np.abs(delta_eval(fam.at(rho), nu) - delta_eval(limit, nu)).max() <= 1e-8


def test_tabulated_family_interpolates(rng):
    s0 = random_scalar_symbol(rng, want_hyperbolic=False)
    s1 = random_scalar_symbol(rng, want_hyperbolic=False)
    fam = OperatorFamily.tabulated([(0.0, s0), (1.0, s1)])
    mid = fam.at(0.5)
    nu = 0.1 + 0.4j
    ref = 0.5 * (delta_eval(s0, np.array(nu)) + delta_eval(s1, np.array(nu)))
    assert np.abs(delta_eval(mid, np.array(nu)) - ref).max() < 1e-12


def test_strip_violations_rejected_at_construction():
    # a declared strip wider than the kernel decay cannot be represented
    from specflow.kernels import sample_kernel, exponential_kernel
    K = exponential_kernel(2.0, [[1.0]])
    S = sample_kernel(K, h=0.02, R=14.0, eta0=2.0)
    with pytest.raises(StripViolation):
        Symbol(1, S, (ShiftTerm(0.0, [[1.0]]),), 2.5)


def test_symbol_strip_check_guards_points_and_rectangles():
    # one strip check serves point evaluation and winding counts
    from specflow.charmatrix import char_eval
    from specflow.roots import Rectangle, count_roots
    sym = Symbol(1, exponential_kernel(2.0, [[1.0]]), (ShiftTerm(0.0, [[0.5]]),), 1.5)
    sym.check_strip([-1.4, 1.4 + 3.0j])
    with pytest.raises(StripViolation):
        char_eval(sym, 1.5 + 0.2j)
    with pytest.raises(StripViolation):
        count_roots(sym, Rectangle(-1.0, 1.6, -1.0, 1.0))
    with pytest.raises(StripViolation):
        count_roots(sym, Rectangle(-1.5, 1.0, -1.0, 1.0))
