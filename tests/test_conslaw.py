from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from specflow import configio, conslaw, flow, griddisc
from specflow.conslaw import (ShockModel, _ShockSystem, characteristic_speeds,
                              jump_leading_order, linearization_index,
                              shock_profile, zero_speed_constant,
                              zero_speed_selection, zero_speeds)
from specflow.errors import (ConfigurationError, DegeneracyViolated,
                             SingularMatrix)
from specflow.griddisc import Annihilated, Grid, index_estimate
from specflow.kernels import (ExpPolyKernel, exponential_kernel, gaussian_kernel,
                              one_sided_exponential_kernel)

from shock_reference import (annihilated_to_dense, dense_kprime_rows,
                             dense_shock_jacobian)


def gaussian_source(vec):
    vec = np.asarray(vec, dtype=float)

    def H(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-x ** 2)[:, None] * vec[None, :]
    return H


def scalar_model(c0=1.0, quadratic=True):
    return ShockModel(
        n=1, kernel=exponential_kernel(2.0, [[1.0]]), dF=[[1.0]], dG=[[c0]],
        source=gaussian_source([1.0]),
        G2=np.array([[[1.0]]]) if quadratic else None, eta=0.9)


def two_speed_model():
    # eigenvalues of dG + c*I stay positive for all c in (0, 1], so the
    # nonzero-frequency invertibility hypothesis holds
    dG = np.array([[1.5, 0.2], [0.2, 0.8]])
    return ShockModel(
        n=2, kernel=exponential_kernel(2.0, np.eye(2)), dF=np.eye(2), dG=dG,
        source=gaussian_source([1.0, 0.5]), eta=0.6)


def zero_speed_model():
    return ShockModel(
        n=1, kernel=one_sided_exponential_kernel(1.0, [[1.0]]),
        dF=[[-1.0]], dG=[[1.0]],
        source=lambda x: (np.asarray(x) * np.exp(-np.asarray(x) ** 2))[:, None],
        eta=0.45)


def test_speeds_scalar():
    c, E = characteristic_speeds(scalar_model())
    assert c[0] == pytest.approx(-2.0)
    assert abs(E[0, 0]) == pytest.approx(1.0)


def test_speeds_decoupled():
    model = ShockModel(n=2, kernel=exponential_kernel(2.0, np.zeros((2, 2))),
                       dF=np.zeros((2, 2)), dG=np.diag([1.0, -1.0]),
                       source=gaussian_source([0.0, 0.0]), eta=0.6)
    c, E = characteristic_speeds(model)
    assert np.allclose(sorted(c), [-1.0, 1.0])


def test_speeds_match_eigen_oracle(rng):
    S = rng.uniform(-0.5, 0.5, (2, 2))
    dG = S + S.T + np.diag([1.2, -1.0])
    model = ShockModel(n=2, kernel=gaussian_kernel(1.0, np.eye(2)),
                       dF=np.eye(2), dG=dG,
                       source=gaussian_source([0.0, 0.0]), eta=0.6)
    c, E = characteristic_speeds(model)
    oracle = np.sort(-np.linalg.eigvalsh(dG + np.eye(2)))
    assert np.abs(np.sort(c) - oracle).max() < 1e-12


def test_linearization_index_runs_no_flow(monkeypatch):
    def no_flow(*args, **kwargs):
        raise AssertionError("the index ran a spectral flow")

    monkeypatch.setattr(flow, "find_crossings", no_flow)
    assert linearization_index(scalar_model(), 0.5) == -1
    assert linearization_index(two_speed_model(), 0.4) == -2


def test_linearization_index_values():
    assert linearization_index(scalar_model(), 0.5) == -1
    assert linearization_index(two_speed_model(), 0.4) == -2
    assert linearization_index(zero_speed_model(), 0.3) == -2


def test_zero_speed_two_component_index():
    # block model: one vanishing speed next to a transported component
    from specflow.kernels import ExpPolyKernel
    k0 = one_sided_exponential_kernel(1.0, [[1.0]])
    terms = [(s, b, p, np.array([[C[0, 0], 0], [0, 0]]))
             for s, b, p, C in k0.terms]
    ke = exponential_kernel(2.0, [[1.0]])
    terms += [(s, b, p, np.array([[0, 0], [0, C[0, 0]]]))
              for s, b, p, C in ke.terms]
    model = ShockModel(
        n=2, kernel=ExpPolyKernel(2, terms), dF=np.diag([-1.0, 1.0]),
        dG=np.diag([1.0, 1.0]),
        source=gaussian_source([0.0, 0.0]), eta=0.45)
    c, _ = characteristic_speeds(model)
    assert np.min(np.abs(c)) < 1e-12
    assert linearization_index(model, 0.3) == -3


def test_jump_leading_order_scalar():
    J = jump_leading_order(scalar_model(c0=1.0))
    assert J[0] == pytest.approx(-np.sqrt(np.pi) / 2.0, rel=1e-10)


def test_jump_zero_source():
    model = scalar_model()
    model.source = lambda x: np.zeros((len(np.atleast_1d(x)), 1))
    assert jump_leading_order(model)[0] == pytest.approx(0.0, abs=1e-12)


def test_jump_decoupled_components():
    model = ShockModel(n=2, kernel=exponential_kernel(2.0, np.eye(2)),
                       dF=np.eye(2), dG=np.diag([1.0, 3.0]),
                       source=gaussian_source([1.0, 2.0]), eta=0.6)
    J = jump_leading_order(model)
    assert J[0] == pytest.approx(-np.sqrt(np.pi) / 2.0, rel=1e-10)
    assert J[1] == pytest.approx(-2.0 * np.sqrt(np.pi) / 4.0, rel=1e-10)


def test_jump_singular_transport_raises():
    with pytest.raises(SingularMatrix):
        jump_leading_order(zero_speed_model())


def test_one_zero_speed_threshold():
    # a speed of 1e-9 vanishes for every caller: shock_profile refuses it,
    # jump_leading_order finds the transport matrix singular, and
    # zero_speed_constant selects it
    model = zero_speed_model()
    model.dG = np.array([[1.0 - 1e-9]])
    speeds = characteristic_speeds(model)[0]
    assert 0 < abs(speeds[0]) < 1e-8 and list(zero_speeds(speeds)) == [0]
    with pytest.raises(ConfigurationError):
        shock_profile(model, np.zeros(1), 1e-3)
    with pytest.raises(SingularMatrix):
        jump_leading_order(model)
    assert zero_speed_constant(model)[1] == 0


def test_profile_unperturbed():
    sol = shock_profile(scalar_model(), b=[0.2], eps=0.0)
    assert np.abs(sol.a - 0.2).max() < 1e-12
    assert np.abs(sol.W).max() < 1e-12


def test_profile_jump_matches_leading_order():
    model = scalar_model()
    J = jump_leading_order(model)
    eps = 1e-3
    sol = shock_profile(model, b=[0.0], eps=eps)
    assert sol.jump[0] / eps == pytest.approx(J[0], rel=5e-4)
    assert sol.residual < 1e-10


def test_profile_decay_of_correction():
    model = scalar_model()
    sol = shock_profile(model, b=[0.0], eps=1e-3)
    x = sol.x
    wnorm = np.abs(sol.W).max()
    tail = np.abs(sol.W[np.abs(x) > 15.0]).max()
    assert tail < 1e-4 * wnorm + 1e-14


def test_profile_smoothness_under_refinement():
    model = scalar_model()
    second = {}
    for h in (0.1, 0.05):
        sol = shock_profile(model, b=[0.0], eps=1e-3, grid=Grid(L=30.0, h=h))
        U = sol.U[:, 0]
        d2 = np.diff(U, 2) / h ** 2
        second[h] = np.abs(d2).max()
    assert second[0.05] < 2.0 * second[0.1] + 1e-9


def test_jump_independence_of_small_b():
    model = scalar_model()
    eps = 1e-3
    s1 = shock_profile(model, b=[eps], eps=eps)
    s2 = shock_profile(model, b=[-eps], eps=eps)
    assert abs(s1.jump[0] - s2.jump[0]) < 5e-6 * abs(s1.jump[0]) / eps


def test_index_oracle_agreement_on_linearization():
    model = scalar_model()
    eta = 0.5
    grid = Grid(L=30.0, h=0.05)
    from specflow.conslaw import linearization_symbol
    sym = linearization_symbol(model)
    idx, nf, na = index_estimate(sym, grid, -eta, eta)
    assert idx == linearization_index(model, eta) == -1


def test_zero_speed_selection_constant_and_difference():
    model = zero_speed_model()
    eps = 1e-3
    a0, b0, M, sol = zero_speed_selection(model, eps)
    assert M == pytest.approx(np.sqrt(np.pi) / 2.0, rel=1e-10)
    # the gauge-invariant statement: the zero-speed jump is M*eps
    assert (a0 - b0) / eps == pytest.approx(M, rel=1e-3)
    # symmetric gauge splits it evenly
    assert a0 == pytest.approx(-b0, abs=1e-12)


def test_zero_speed_even_source_vanishing_moment():
    from specflow.conslaw import zero_speed_constant
    model = zero_speed_model()
    model.source = gaussian_source([1.0])        # even: first moment zero
    M, j0, pairing = zero_speed_constant(model)
    assert M == pytest.approx(0.0, abs=1e-12)
    # an even source carries net mass on the vanishing characteristic,
    # so no stationary layer exists and the solver refuses
    with pytest.raises(ValueError):
        zero_speed_selection(model, 1e-3)


@pytest.mark.parametrize("eps", [float("nan"), 1.0, -0.06])
def test_both_solvers_refuse_eps_beyond_eps_max(monkeypatch, eps):
    # the check comes before any quadrature or Newton step
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature before the eps check")
    monkeypatch.setattr(conslaw, "quad_vec", no_quadrature)
    monkeypatch.setattr(conslaw, "_ShockSystem", no_quadrature)
    with pytest.raises(ConfigurationError, match="eps_max"):
        zero_speed_selection(zero_speed_model(), eps)
    with pytest.raises(ConfigurationError, match="eps_max"):
        shock_profile(scalar_model(), np.zeros(1), eps)


def test_zero_speed_degenerate_pairing_raises():
    model = ShockModel(
        n=1, kernel=exponential_kernel(2.0, [[1.0]]),   # even kernel
        dF=[[-1.0]], dG=[[1.0]],
        source=lambda x: (np.asarray(x) * np.exp(-np.asarray(x) ** 2))[:, None],
        eta=0.9)
    with pytest.raises(DegeneracyViolated):
        zero_speed_selection(model, 1e-3)


def test_two_speed_grid_oracle_agreement():
    from specflow.conslaw import linearization_symbol
    model = two_speed_model()
    sym = linearization_symbol(model)
    idx, nf, na = index_estimate(sym, Grid(L=30.0, h=0.05), -0.4, 0.4)
    assert nf.reliable and na.reliable
    assert min(nf.gap, na.gap) >= 1e3
    assert idx == linearization_index(model, 0.4) == -2


def test_zero_speed_grid_oracle_agreement_resolved_window():
    # the double root's generalized kernel mode decays like L*exp(-g*L)
    # under the weight: the window and rate must be large enough before
    # the grid oracle resolves the full two-dimensional adjoint kernel
    from specflow.conslaw import linearization_symbol
    model = zero_speed_model()
    sym = linearization_symbol(model)
    idx, nf, na = index_estimate(sym, Grid(L=50.0, h=0.05), -0.44, 0.44)
    assert (idx, nf.dim, na.dim) == (-2, 0, 2)
    assert min(nf.gap, na.gap) >= 1e3
    assert idx == linearization_index(model, 0.3) == -2


@pytest.mark.parametrize("field", ["dF", "dG", "F2", "G2"])
def test_complex_flux_data_is_refused(field):
    data = {"dF": [[1.0]], "dG": [[1.0]], "F2": [[[1.0]]], "G2": [[[1.0]]]}
    data[field] = np.array(data[field]) + 0.5j
    with pytest.raises(ConfigurationError, match=field):
        ShockModel(n=1, kernel=exponential_kernel(2.0, [[1.0]]),
                   source=gaussian_source([1.0]), **data)


@pytest.mark.parametrize("kernel", [exponential_kernel(2.0, [[1.0]]),
                                    one_sided_exponential_kernel(1.0, [[1.0]])],
                         ids=["exponential", "one_sided"])
def test_shock_convolution_matches_quadrature(kernel):
    # the layer's one K' convolution (extended-grid rows plus the exact
    # constant tails) on F = tanh, against adaptive quadrature
    model = ShockModel(n=1, kernel=kernel, dF=[[1.0]], dG=[[1.0]],
                       source=gaussian_source([1.0]), eta=0.45)
    sys = _ShockSystem(model, Grid(L=30.0, h=0.05), np.zeros(1), 0.0)
    rows = sys.conv.apply(np.tanh(sys.x_ext)[:, None])[sys.win]
    conv = rows[:, 0] + sys.tail_right[:, 0, 0] - sys.tail_left[:, 0, 0]
    dK = kernel.derivative()

    def integrand(y, x):
        return float(np.real(dK.value(np.array([x - y]))[0, 0, 0])) * np.tanh(y)

    for i in np.searchsorted(sys.x, [-20.0, -3.0, -0.5, 0.0, 0.7, 2.5, 20.0]):
        x = sys.x[i]
        ref = (quad(integrand, -np.inf, x, args=(x,), epsabs=1e-12)[0]
               + quad(integrand, x, np.inf, args=(x,), epsabs=1e-12)[0])
        assert abs(conv[i] - ref) < 1e-6


def test_shock_jacobian_matches_forward_differences_with_quadratic_fluxes(rng):
    # both quadratic flux tensors set: dF(U) and dG(U) both depend on U
    F2 = 0.4 * rng.normal(size=(2, 2, 2))
    G2 = 0.4 * rng.normal(size=(2, 2, 2))
    model = ShockModel(
        n=2, kernel=exponential_kernel(2.0, np.eye(2)), dF=np.eye(2),
        dG=np.array([[1.5, 0.2], [0.2, 0.8]]), source=gaussian_source([1.0, 0.5]),
        F2=F2 + F2.transpose(0, 2, 1), G2=G2 + G2.transpose(0, 2, 1), eta=0.6)
    sys = _ShockSystem(model, Grid(L=5.0, h=0.1), np.array([0.05, -0.03]), 0.01)
    z = 0.1 * rng.normal(size=sys.n_params + int(sys.active_flat.sum()))
    res = sys.residual(z)
    J = annihilated_to_dense(sys.jacobian(z, res))
    fd = np.empty_like(J)
    for k in range(len(z)):
        step = 1e-7 * (1.0 + abs(z[k]))
        dz = z.copy()
        dz[k] += step
        fd[:, k] = (sys.residual(dz) - res) / step
    assert np.abs(J - fd).max() <= 1e-5 * np.abs(J).max()


def _matrix_kernel_model():
    # a full 2 x 2 kernel matrix and both quadratic fluxes
    F2 = np.zeros((2, 2, 2))
    F2[0, 1, 1] = F2[1, 0, 1] = F2[1, 1, 0] = 0.3
    G2 = np.zeros((2, 2, 2))
    G2[0, 0, 0] = G2[1, 0, 1] = G2[1, 1, 0] = 0.5
    return ShockModel(
        n=2, kernel=exponential_kernel(2.0, [[1.0, 0.3], [0.2, 0.8]]),
        dF=np.eye(2), dG=np.array([[1.5, 0.2], [0.2, 0.8]]),
        source=gaussian_source([1.0, 0.5]), F2=F2, G2=G2, eta=0.6)


def _exp_poly_model():
    # power 1 and two rates: K' has powers 0 and 1 at rate 1.5 on the
    # right, and rate 2.5 on both sides
    kernel = ExpPolyKernel(1, [(+1, 1.5, 1, [[0.8]]), (+1, 2.5, 0, [[-0.3]]),
                               (-1, 2.5, 0, [[0.6]])])
    return ShockModel(n=1, kernel=kernel, dF=[[1.0]], dG=[[1.0]],
                      source=gaussian_source([1.0]), G2=np.array([[[1.0]]]), eta=0.6)


def _gaussian_model():
    return ShockModel(n=1, kernel=gaussian_kernel(0.5, [[1.0]]), dF=[[1.0]],
                      dG=[[1.0]], source=gaussian_source([1.0]),
                      G2=np.array([[[1.0]]]), eta=0.9)


STRUCTURED_CASES = {
    "exponential": (scalar_model, None),
    "one_sided_zero_speed": (zero_speed_model, 0),
    "matrix_n2": (_matrix_kernel_model, None),
    "exp_poly_power1": (_exp_poly_model, None),
    "gaussian": (_gaussian_model, None),
}


@pytest.mark.parametrize("case", list(STRUCTURED_CASES))
def test_structured_kprime_and_jacobian_match_dense_assembly(case, rng):
    make, free_b = STRUCTURED_CASES[case]
    model = make()
    sys = _ShockSystem(model, Grid(L=10.0, h=0.05), 0.01 * np.ones(model.n), 1e-3,
                       free_b_index=free_b)
    C = dense_kprime_rows(sys)
    F = rng.normal(size=(len(sys.x_ext), model.n))
    ref = (C @ F.reshape(-1)).reshape(sys.m, sys.n)
    scale = (np.abs(C) @ np.abs(F.reshape(-1))).max()
    assert np.abs(sys.conv.apply(F)[sys.win] - ref).max() <= 1e-14 * scale

    z = 1e-3 * rng.normal(size=sys.n_params + int(sys.active_flat.sum()))
    res = sys.residual(z)
    J = sys.jacobian(z, res)
    J_ref = dense_shock_jacobian(sys, z, res)
    # an exponential kernel's Jacobian is held annihilated, a Gaussian's
    # is the dense block Toeplitz of the same table
    assert isinstance(J, Annihilated) == (case != "gaussian")
    if case == "gaussian":
        assert np.abs(J - J_ref).max() <= 1e-14 * np.abs(J_ref).max()
        return
    QJ_ref = J.Q.toarray() @ J_ref
    assert np.abs(J.QJ.toarray() - QJ_ref).max() <= 1e-14 * np.abs(QJ_ref).max()
    assert np.abs(J.colnorm / np.linalg.norm(J_ref, axis=0) - 1).max() <= 1e-14


def test_exponential_shocks_run_no_dense_solve(monkeypatch):
    # the shipped configs take the O(N) path: neither the dense block
    # Toeplitz Jacobian nor the Cholesky factor of the normal equations is
    # ever formed
    def refuse(*args, **kwargs):
        raise AssertionError("dense path taken")

    monkeypatch.setattr(griddisc, "cho_factor", refuse)
    monkeypatch.setattr(griddisc, "_toeplitz_view", refuse)
    configs = Path(__file__).resolve().parents[1] / "src" / "specflow" / "configs"
    model = configio.shock_model_from_json(
        configio.load_config(configs / "shock_scalar.json"))
    sol = shock_profile(model, np.zeros(1), 1e-3)
    assert sol.jump[0] / 1e-3 == pytest.approx(jump_leading_order(model)[0], rel=0.01)
    model = configio.shock_model_from_json(
        configio.load_config(configs / "shock_zero_speed.json"))
    a0, b0, M, _ = zero_speed_selection(model, 1e-3)
    assert (a0 - b0) / 1e-3 == pytest.approx(np.sqrt(np.pi) / 2, rel=0.03)


@pytest.mark.parametrize("kernel", [
    {"family": "gaussian", "sigma": 0.5, "M": [[1.0]]},
    {"family": "sum", "parts": [{"family": "exponential", "a": 2.0, "M": [[1.0]]}]},
], ids=["gaussian", "sum"])
def test_dense_shock_path_matches_leading_order(kernel):
    # kernels without an annihilator: the block Toeplitz rows, a dense
    # Jacobian and the Cholesky step, on shock_scalar.json's model
    configs = Path(__file__).resolve().parents[1] / "src" / "specflow" / "configs"
    spec = configio.load_config(configs / "shock_scalar.json")
    spec["kernel"] = kernel
    model = configio.shock_model_from_json(spec)
    sol = shock_profile(model, np.zeros(1), 1e-3)
    assert sol.iterations == 3
    assert sol.jump[0] / 1e-3 == pytest.approx(jump_leading_order(model)[0], rel=0.01)
