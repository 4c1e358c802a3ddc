import numpy as np
import pytest
from scipy.integrate import quad

from specflow.charmatrix import delta_eval
from specflow.errors import QuadratureTail, StripViolation
from specflow.kernels import (ExpPolyKernel, GaussianKernel, SumKernel,
                              exponential_kernel, gaussian_kernel,
                              one_sided_exponential_kernel, sample_kernel)
from specflow.symbols import ShiftTerm, Symbol, combine_symbols

from conftest import flow_index, random_2x2_symbol, random_scalar_symbol


def quad_transform(kernel, nu, order=0):
    """Reference transform by adaptive quadrature (scalar kernels)."""
    def f(z):
        return (kernel.value(np.array([z]))[0, 0, 0]
                * (-z) ** order * np.exp(-nu * z))
    re = quad(lambda z: f(z).real, -40, 40, limit=800)[0]
    im = quad(lambda z: f(z).imag, -40, 40, limit=800)[0]
    return re + 1j * im


def test_exponential_unit_mass():
    K = exponential_kernel(2.0, [[1.0]])
    assert K.transform(0.0)[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_exponential_closed_form():
    K = exponential_kernel(2.0, [[1.0]])
    nu = 0.5 + 1.0j
    assert K.transform(nu)[0, 0] == pytest.approx(4.0 / (4.0 - nu ** 2), abs=1e-14)


def test_gaussian_known_transform():
    G = gaussian_kernel(1.0, [[1.0]])
    assert G.transform(0.0)[0, 0] == pytest.approx(1.0, abs=1e-13)
    for ell in (0.0, 0.7, 2.1):
        assert G.transform(1j * ell)[0, 0] == pytest.approx(
            np.exp(-0.5 * ell ** 2), abs=1e-13)


@pytest.mark.parametrize("make", [
    lambda: exponential_kernel(2.0, [[1.0]]),
    lambda: one_sided_exponential_kernel(1.3, [[0.7]]),
    lambda: gaussian_kernel(0.8, [[1.0]]),
    lambda: ExpPolyKernel(1, [(+1, 1.5, 2, [[0.4]]), (-1, 2.0, 1, [[-0.2]])]),
])
def test_transform_matches_quadrature(make):
    K = make()
    nu = 0.3 - 0.9j
    for order in (0, 1, 2):
        ref = quad_transform(K, nu, order)
        val = K.transform(nu, order)[0, 0]
        assert val == pytest.approx(ref, rel=1e-8, abs=1e-10)


def test_derivative_orders_match_finite_differences(rng):
    K = exponential_kernel(2.0, [[1.0]])
    h = 1e-5
    for _ in range(5):
        nu = complex(rng.uniform(-1, 1), rng.uniform(-3, 3))
        fd = (K.transform(nu + h) - K.transform(nu - h))[0, 0] / (2 * h)
        assert K.transform(nu, 1)[0, 0] == pytest.approx(fd, rel=1e-6)


def test_sampled_matches_closed_form_at_spec_resolution():
    K = exponential_kernel(2.0, [[1.0]])
    S = sample_kernel(K, h=0.01, R=12.0, eta0=2.0)
    nu = 0.5 + 1.0j
    err = abs(S.transform(nu)[0, 0] - K.transform(nu)[0, 0])
    assert err <= 1e-6


def test_sampled_kernel_from_config_samples():
    from specflow.configio import kernel_from_json
    K = exponential_kernel(2.0, [[1.0]])
    samples = K.value(np.linspace(-15.0, 15.0, 601)).real   # h = 0.05
    S = kernel_from_json({"family": "sampled", "h": 0.05, "eta0": 2.0,
                          "samples": samples.tolist()}, 1)
    nus = np.array([0.0, 0.5 + 1.0j, -1.0 + 3.0j, 1.5j])
    assert np.abs(S.transform(nus) - K.transform(nus)).max() <= 1e-5


def test_sampled_tail_violation_raises():
    # declared decay not reached at truncation: wide exponential, small R
    K = exponential_kernel(0.5, [[1.0]])
    S = sample_kernel(K, h=0.05, R=3.0, eta0=0.5)
    with pytest.raises(QuadratureTail):
        S.transform(0.2)


def test_strip_violation():
    K = exponential_kernel(2.0, [[1.0]])
    with pytest.raises(StripViolation):
        K.weight_shift(2.5)
    S = sample_kernel(K, h=0.02, R=14.0, eta0=2.0)
    with pytest.raises(StripViolation):
        S.transform(2.5)


def test_weight_shift_is_transform_translation(rng):
    kernels = [exponential_kernel(2.0, [[1.0]]),
               gaussian_kernel(1.0, [[1.0]]),
               one_sided_exponential_kernel(1.5, [[1.0]])]
    for K in kernels:
        gamma = rng.uniform(-0.5, 0.5)
        Kg = K.weight_shift(gamma)
        for _ in range(6):
            nu = complex(rng.uniform(-0.6, 0.6), rng.uniform(-4, 4))
            assert Kg.transform(nu)[0, 0] == pytest.approx(
                K.transform(nu - gamma)[0, 0], abs=1e-12)


def test_weight_shift_sampled_pointwise():
    K = exponential_kernel(2.0, [[1.0]])
    S = sample_kernel(K, h=0.02, R=14.0, eta0=2.0)
    Sg = S.weight_shift(0.3)
    zs = np.linspace(-5, 5, 11)
    ref = S.value(zs) * np.exp(0.3 * zs)[:, None, None]
    assert np.abs(Sg.value(zs) - ref).max() < 1e-12


def test_adjoint_transform_identity(rng):
    Ks = [exponential_kernel(1.7, [[0.5, 0.2], [0.1, -0.4]]),
          gaussian_kernel(0.9, [[1.0, 0.3], [0.0, 0.5]])]
    for K in Ks:
        A = K.adjoint()
        for _ in range(5):
            nu = complex(rng.uniform(-0.6, 0.6), rng.uniform(-3, 3))
            lhs = A.transform(nu)
            rhs = -np.conj(K.transform(-np.conj(nu))).swapaxes(-1, -2)
            assert np.abs(lhs - rhs).max() < 1e-12


def test_derivative_kernel_transform_identity(rng):
    # transform of dK/dzeta plus the Dirac jump equals nu * K_hat(nu)
    for K in [exponential_kernel(2.0, [[1.0]]),
              one_sided_exponential_kernel(1.2, [[1.0]]),
              gaussian_kernel(1.1, [[1.0]]),
              SumKernel([(0.6, exponential_kernel(2.0, [[1.0]])),
                         (-1.3, one_sided_exponential_kernel(1.5, [[1.0]]))])]:
        dK, jump = K.derivative(), K.jump()
        for _ in range(4):
            nu = complex(rng.uniform(-0.8, 0.8), rng.uniform(-3, 3))
            lhs = dK.transform(nu)[0, 0] + jump[0, 0]
            assert lhs == pytest.approx(nu * K.transform(nu)[0, 0], abs=1e-12)


def test_tail_transform_matches_quadrature():
    nu = 0.4 + 0.8j
    for K in [exponential_kernel(2.0, [[1.0]]), gaussian_kernel(1.0, [[1.0]])]:
        for t in (-1.7, 0.0, 0.9):
            pts = [0.0] if t < 0 else None
            kwargs = dict(limit=600, points=pts, epsabs=1e-13, epsrel=1e-13)
            ref = (quad(lambda s: (K.value(np.array([s]))[0, 0, 0]
                                   * np.exp(-nu * s)).real, t, 40, **kwargs)[0]
                   + 1j * quad(lambda s: (K.value(np.array([s]))[0, 0, 0]
                                          * np.exp(-nu * s)).imag, t, 40,
                               **kwargs)[0])
            assert K.tail_transform(np.array([t]), nu)[0, 0, 0] == pytest.approx(
                ref, abs=1e-10)


@pytest.mark.parametrize("name", ["exp_poly", "gaussian", "sampled", "sum"])
def test_tail_and_head_transforms_add_up(name):
    K = _algebra_kernels()[name]
    nu = 0.4 + 0.8j
    t = np.array([-30.0, -12.0, -1.7, -0.01, 0.0, 0.9, 12.0, 30.0])
    total = K.tail_transform(t, nu) + K.head_transform(t, nu)
    want = K.transform(nu)
    assert np.abs(total - want).max() <= 1e-13 * (1.0 + np.abs(want).max())


def test_sampled_partial_transforms_vanish_beyond_the_support():
    K = _algebra_kernels()["sampled"]
    beyond = np.array([K.R, 12.5, 30.0])
    assert not np.any(K.head_transform(-beyond, 0.0))
    assert not np.any(K.head_transform(-beyond, 0.3 - 1.1j))
    assert not np.any(K.tail_transform(beyond, 0.3 - 1.1j))


@pytest.mark.parametrize("t", [-2.5, -1.7, 0.9])
def test_sampled_tail_transform_matches_closed_form(t):
    # the kink term at 0 belongs to every range that contains 0; without
    # it a range below 0 is off by (h^2/12) |K'(0+) - K'(0-)| = 8.3e-4
    K = exponential_kernel(2.0, [[1.0]])
    S = sample_kernel(K, h=0.05, R=12.0, eta0=1.9)
    nu = 0.4 + 0.8j
    err = abs(S.tail_transform(np.array([t]), nu) - K.tail_transform(np.array([t]), nu))
    assert err.max() < 1e-4


def test_jumps_exponential():
    K = exponential_kernel(2.0, [[1.0]])
    j0, j1 = K.jump(), K.derivative().jump()
    assert j0[0, 0] == pytest.approx(0.0, abs=1e-14)          # continuous
    assert j1[0, 0] == pytest.approx(-4.0, abs=1e-12)         # slope break


# -- kernel algebra: sandwich, scaling and weighted sums ------------------------

M2 = np.array([[0.6, -0.3], [0.2, 0.5]])


def _algebra_kernels():
    exp_poly = ExpPolyKernel(2, [(+1, 1.5, 2, M2), (-1, 2.0, 1, M2.T),
                                 (+1, 1.2, 0, [[0.4, 0.1], [-0.7, 0.3]])])
    gauss = GaussianKernel(2, 0.8, M2, mu=0.3, poly=(1.0, 0.5, -0.2))
    sampled = sample_kernel(exponential_kernel(2.0, M2), h=0.05, R=12.0, eta0=1.9)
    return {"exp_poly": exp_poly, "gaussian": gauss, "sampled": sampled,
            "sum": SumKernel([(0.7, exp_poly), (-1.3 + 0.2j, gauss)])}


def _evaluations(K):
    nu = np.array([0.3 - 0.9j, -0.2 + 1.7j, 0.05j])
    out = [K.transform(nu, order) for order in (0, 1, 2)]
    out.append(K.value(np.array([-1.3, -0.02, 0.0, 0.4, 2.2])))
    out.append(K.tail_transform(np.array([-1.7, 0.0, 0.9]), 0.4 + 0.8j))
    out.extend((K.jump(), K.derivative().jump()))
    return out


def _assert_close(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-13 * (1.0 + np.abs(w).max())


@pytest.mark.parametrize("name", ["exp_poly", "gaussian", "sampled", "sum"])
def test_sandwich_matches_matrix_products(name, rng):
    K = _algebra_kernels()[name]
    L = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    R = rng.normal(size=(2, 2))
    S = K.sandwich(L, R)
    assert type(S) is type(K)
    _assert_close(_evaluations(S), [L @ e @ R for e in _evaluations(K)])


@pytest.mark.parametrize("name", ["exp_poly", "gaussian", "sampled", "sum"])
def test_scaled_and_weighted_sum(name):
    kernels = _algebra_kernels()
    K, other = kernels[name], kernels["exp_poly"]
    c, d = -1.7, 0.4
    # scaling keeps the family
    assert type(K.scaled(c)) is type(K)
    _assert_close(_evaluations(K.scaled(c)), [c * e for e in _evaluations(K)])
    assert K.scaled(c).l1_bound() == pytest.approx(abs(c) * K.l1_bound(), rel=1e-15)
    assert K.scaled(c).moment_bound() == pytest.approx(abs(c) * K.moment_bound(),
                                                      rel=1e-15)
    pair = SumKernel([(c, K), (d, other)])
    _assert_close(_evaluations(pair), [c * a + d * b for a, b in
                                       zip(_evaluations(K), _evaluations(other))])
    # nested sums flatten by multiplying weights
    nested = SumKernel([(2.0, pair)])
    assert nested.terms == tuple((2.0 * w, p) for w, p in pair.terms)
    assert nested.l1_bound() == pytest.approx(
        2.0 * (abs(c) * K.l1_bound() + abs(d) * other.l1_bound()), rel=1e-14)


def test_gaussian_bounds_are_computed_at_construction(monkeypatch):
    # the flow asks for l1_bound at every margin evaluation; a Gaussian
    # answers from the bounds it took when it was built
    s_minus = Symbol(1, gaussian_kernel(0.5, [[0.5]]), (ShiftTerm(0.0, [[-2.0]]),), 1.5)
    s_plus = Symbol(1, gaussian_kernel(0.7, [[-0.4]]), (ShiftTerm(0.0, [[2.0]]),), 1.5)
    calls = []
    moment = GaussianKernel._abs_moment
    monkeypatch.setattr(GaussianKernel, "_abs_moment",
                        lambda self, p: calls.append(p) or moment(self, p))
    assert flow_index(s_minus, s_plus) == -1
    assert calls == []


def test_combine_symbols_is_affine_in_delta(rng):
    nu = np.array([0.1 + 0.4j, -0.3 - 2.5j, 1.1j, 0.0])
    for make in (random_scalar_symbol, random_2x2_symbol):
        for _ in range(4):
            s0, s1 = make(rng, want_hyperbolic=False), make(rng, want_hyperbolic=False)
            sig = rng.uniform(0.0, 1.0)
            mix = combine_symbols(s0, s1, 1.0 - sig, sig)
            want = (1.0 - sig) * delta_eval(s0, nu) + sig * delta_eval(s1, nu)
            assert np.abs(delta_eval(mix, nu) - want).max() <= 1e-13


def test_sum_family_from_json_has_unit_weights():
    from specflow.configio import kernel_from_json
    parts = [{"family": "exponential", "a": 2.0, "M": [[1.0]]},
             {"family": "gaussian", "sigma": 0.7, "M": [[-0.5]]}]
    K = kernel_from_json({"family": "sum", "parts": parts}, 1)
    nu = np.array([0.2 + 0.5j, -1.1j])
    want = sum(kernel_from_json(p, 1).transform(nu) for p in parts)
    assert np.abs(K.transform(nu) - want).max() <= 1e-15
