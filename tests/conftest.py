import numpy as np
import pytest

from specflow.charmatrix import det_values, is_hyperbolic
from specflow.flow import crossing_number
from specflow.kernels import exponential_kernel
from specflow.symbols import OperatorFamily, ShiftTerm, Symbol


def random_scalar_symbol(rng, eta=1.5, want_hyperbolic=True, max_tries=60):
    """Random scalar symbol with an exponential kernel, optionally hyperbolic."""
    for _ in range(max_tries):
        a = rng.uniform(1.8, 3.5)
        mass = rng.uniform(-1.5, 1.5)
        shift = rng.uniform(-2.0, 2.0)
        sym = Symbol(1, exponential_kernel(a, [[mass]]),
                     (ShiftTerm(0.0, [[shift]]),), min(eta, 0.9 * a))
        if not want_hyperbolic or is_hyperbolic(sym).hyperbolic:
            return sym
    raise RuntimeError("no hyperbolic sample found")


def random_2x2_symbol(rng, eta=1.5, want_hyperbolic=True, max_tries=60):
    for _ in range(max_tries):
        a = rng.uniform(1.8, 3.0)
        M = rng.uniform(-0.8, 0.8, (2, 2))
        A = rng.uniform(-1.2, 1.2, (2, 2))
        sym = Symbol(2, exponential_kernel(a, M),
                     (ShiftTerm(0.0, A),), min(eta, 0.9 * a))
        if not want_hyperbolic or is_hyperbolic(sym).hyperbolic:
            return sym
    raise RuntimeError("no hyperbolic sample found")


def sampled_axis_winding(sym, points=20001):
    """Winding of det Delta(i ell) / (i ell + 1)^n over the real ell axis.

    The ratio tends to 1 at both ends, so for hyperbolic limits the index
    is W(s_plus) - W(s_minus).  Uncertified: the tangent map of a uniform
    angle grid keeps the phase steps small.
    """
    t = np.linspace(-0.5 * np.pi, 0.5 * np.pi, points)[1:-1]
    nu = 1j * np.tan(t)
    phase = np.unwrap(np.angle(det_values(sym, nu) / (nu + 1.0) ** sym.n))
    return int(round((phase[-1] - phase[0]) / (2 * np.pi)))


def flow_index(s_minus, s_plus, scan_points=400):
    """Index of the pair by spectral flow along their affine homotopy.

    The reference engine for `fredholm_index`, which reads the index off
    the limits' certified windings.
    """
    fam = OperatorFamily.affine_homotopy(s_minus, s_plus)
    return crossing_number(fam, scan_points).index


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
