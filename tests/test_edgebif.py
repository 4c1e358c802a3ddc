import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import quad

import specflow.griddisc as griddisc
from specflow.edgebif import (EdgeModel, _EdgeSystem, diffusive_check,
                              edge_constant, edge_eigenvalue, edge_scaling,
                              edge_vectors, smooth_ramp)
from specflow.errors import ConfigurationError, NewtonDiverged
from specflow.griddisc import Grid, assemble, fd_columns, nullity
from specflow.kernels import ExpPolyKernel, gaussian_kernel

from oracles import shallow_well_eigenvalue
from shock_reference import annihilated_to_dense


def schrodinger_model(pert_sign=+1.0):
    """First-order form of -u'' + lam u = eps V u with a Gaussian trap."""
    return EdgeModel(
        n=2, B=[[0.0, 0.0], [1.0, 0.0]], dirac=[[0.0, -1.0], [0.0, 0.0]],
        V=lambda x: np.exp(-np.asarray(x, dtype=float) ** 2),
        P=[[0.0, 0.0], [pert_sign, 0.0]], eta=0.5, weight_eta=0.5)


def scalar_diffusive_model():
    """Genuinely nonlocal scalar model with a diffusive dispersion."""
    # one-sided exponentials tuned so K_hat(0) = 0 and K_hat'(0) = -1
    p = 1.0 / (1.0 / 1.0 + 1.0 / 2.0)    # rates b=1 (right), c=2 (left)
    kern = ExpPolyKernel(1, [(+1, 1.0, 0, [[p * 1.0]]),
                             (-1, 2.0, 0, [[-p * 2.0]])])
    return EdgeModel(
        n=1, B=[[1.0]], kernel=kern,
        V=lambda x: np.exp(-np.asarray(x, dtype=float) ** 2),
        P=[[1.0]], eta=0.8, weight_eta=0.4)


def test_diffusive_check_schrodinger():
    rep = diffusive_check(schrodinger_model())
    assert rep.diffusive
    assert rep.d_nunu.real == pytest.approx(2.0, abs=1e-9)
    assert rep.d_lambda.real == pytest.approx(-1.0, abs=1e-12)


def test_diffusive_check_fails_without_lambda_slope():
    model = schrodinger_model()
    model.B = np.zeros((2, 2))
    rep = diffusive_check(model)
    assert not rep.diffusive


def test_diffusive_check_scalar_model_fd_oracle():
    model = scalar_diffusive_model()
    rep = diffusive_check(model)
    assert rep.diffusive
    h = 1e-5

    def disp(nu):
        # d(nu, 0) = nu + K_hat(nu) of the scalar model, paper convention
        return nu + complex(model.kernel.transform(nu)[0, 0])

    fd2 = (disp(h) - 2 * disp(0.0) + disp(-h)) / h ** 2
    assert rep.d_nunu.real == pytest.approx(fd2.real, rel=1e-5)
    fd1 = (disp(h) - disp(-h)) / (2 * h)
    assert abs(rep.d_nu) < 1e-10 and abs(fd1) < 1e-4


def test_edge_vectors_schrodinger():
    data = edge_vectors(schrodinger_model())
    assert np.allclose(np.abs(data.e0), [1.0, 0.0], atol=1e-12)
    assert np.allclose(np.abs(data.e0_star), [0.0, 1.0], atol=1e-12)
    assert data.slope == pytest.approx(1.0, abs=1e-10)


def test_edge_vectors_identities_scalar_model():
    model = scalar_diffusive_model()
    data = edge_vectors(model)
    K1 = np.real(model.kernel.transform(0.0, 1))
    I = np.eye(1)
    assert abs(float(data.e0_star @ ((I + K1) @ data.e0))) < 1e-10


def test_edge_constant_schrodinger_value():
    M = edge_constant(schrodinger_model(+1.0))
    assert M == pytest.approx(np.sqrt(np.pi) / 2.0, rel=1e-10)
    Mneg = edge_constant(schrodinger_model(-1.0))
    assert Mneg == pytest.approx(-np.sqrt(np.pi) / 2.0, rel=1e-10)


def test_edge_constant_scales_linearly():
    m1 = schrodinger_model()
    m2 = schrodinger_model()
    m2.P = 2.0 * np.asarray(m2.P)
    assert edge_constant(m2) == pytest.approx(2 * edge_constant(m1), rel=1e-12)


def test_edge_constant_zero_perturbation_flagged():
    model = schrodinger_model()
    model.P = np.zeros((2, 2))
    assert edge_constant(model) == pytest.approx(0.0, abs=1e-14)


def test_m_squared_invariant_under_sign_conventions():
    # flipping the kernel vector conventions cannot change M^2
    m = schrodinger_model()
    M = edge_constant(m)
    data = edge_vectors(m)
    data.e0 = -data.e0
    data.e1 = -data.e1            # e1 is linear in e0
    M2 = edge_constant(m, data)
    assert M2 ** 2 == pytest.approx(M ** 2, rel=1e-12)


def test_gauge_invariance_of_constant():
    # e1 is defined modulo the kernel direction; M must not see the gauge
    m = schrodinger_model()
    data = edge_vectors(m)
    M = edge_constant(m, data)
    data.e1 = data.e1 + 0.37 * data.e0
    assert edge_constant(m, data) == pytest.approx(M, rel=1e-12)


def test_eigenvalue_against_shooting_oracle():
    model = schrodinger_model()
    eps = 0.02
    r = edge_eigenvalue(model, eps)
    lam_ref = shallow_well_eigenvalue(model.V, eps)
    # default grid h = 0.1 resolves the eigenvalue to a few 1e-3 relative
    assert r.lam == pytest.approx(lam_ref, rel=5e-3)
    assert not r.resonance
    assert r.residual < 1e-10


def test_eigenfunction_decay_rate():
    model = schrodinger_model()
    eps = 0.04
    r = edge_eigenvalue(model, eps)
    x = r.x
    u = np.abs(r.U[:, 0])
    sel = (x > 15) & (x < 35) & (u > 0)
    slope = np.polyfit(x[sel], np.log(u[sel]), 1)[0]
    expected = r.diagnostics["predicted_nu_plus"]
    assert slope == pytest.approx(expected, rel=0.1)


def test_scaling_intercept(monkeypatch):
    import specflow.edgebif as edgebif
    calls = []

    def counted(model):
        calls.append(model)
        return diffusive_check(model)

    constants = []

    def counted_constant(model, data=None):
        constants.append(model)
        return edge_constant(model, data)

    monkeypatch.setattr(edgebif, "diffusive_check", counted)
    monkeypatch.setattr(edgebif, "edge_constant", counted_constant)
    sc = edge_scaling(schrodinger_model(), [0.04, 0.02, 0.01])
    # the sweep builds its edge data and its constant M once and hands
    # them to every point
    assert len(calls) == 1 and len(constants) == 1
    assert sc.intercept_rel_error < 0.02
    ratios = [q for _, _, q in sc.rows]
    assert all(abs(q - sc.M_squared) < 0.1 * sc.M_squared for q in ratios)


def test_resonance_branch_flagged():
    model = schrodinger_model()
    r = edge_eigenvalue(model, -0.02)
    assert r.resonance
    assert r.diagnostics["nu_plus"].real > 0   # grows: resonance pole


def test_resonance_branch_can_raise():
    # the resonance branch is flagged only when Newton converges there
    model = scalar_diffusive_model()
    eps = -0.25 / abs(edge_constant(model))
    with pytest.raises(NewtonDiverged):
        edge_eigenvalue(model, eps, grid=Grid(L=60.0, h=0.1))


def test_scalar_model_eigenvalue_and_nullity():
    model = scalar_diffusive_model()
    M = edge_constant(model)
    eps = 0.25 / abs(M)   # M*eps = 0.25: first-order corrections are large
    g = Grid(L=60.0, h=0.1)
    r = edge_eigenvalue(model, eps, grid=g)
    assert r.lam > 0
    assert r.lam / eps ** 2 == pytest.approx(M * M, rel=0.45)
    # grid kernel detection at the converged eigenvalue: the genuine
    # eigenfunction appears as the center-concentrated near-null mode;
    # the spectral gap at this slowly-decaying eigenfunction is a couple
    # hundred, so the relaxed ratio documents the marginal setting
    def op_at(xi):
        from specflow.symbols import ShiftTerm, Symbol
        base = model.symbol_at(r.lam)
        A = base.shifts[0].A - eps * float(model.V(np.array([xi]))[0]) * np.asarray(model.P)
        return Symbol(base.n, base.kernel, (ShiftTerm(0.0, A),), base.eta)
    nres = nullity(assemble(op_at, g), tol_ratio=100.0)
    assert nres.dim >= 1


def test_smooth_ramp_properties():
    x = np.linspace(-2, 2, 4001)
    rho, drho = smooth_ramp(x)
    assert np.all(rho[x >= 1.0] == 1.0)
    assert np.all(rho[x <= -1.0] == -1.0)
    assert np.abs(rho[np.abs(x) < 0.5] - np.tanh(2 * x[np.abs(x) < 0.5])).max() < 1e-12
    fd = np.gradient(rho, x)
    inner = np.abs(x) < 1.9
    assert np.abs(fd[inner] - drho[inner]).max() < 1e-2


def test_eigenvalue_off_essential_spectrum():
    from specflow.charmatrix import is_hyperbolic
    model = schrodinger_model()
    r = edge_eigenvalue(model, 0.02)
    hyp = is_hyperbolic(model.symbol_at(r.lam))
    assert hyp.hyperbolic
    # the dispersion is -ell^2 - lambda, so the axis margin equals lambda*
    assert hyp.margin == pytest.approx(r.lam, rel=1e-6)


def kernel_perturbation_model():
    """The Schrodinger trap with a Gaussian perturbation kernel for P."""
    pk = gaussian_kernel(0.5, [[0.0, 0.0], [1.0, 0.0]])
    return EdgeModel(n=2, B=[[0, 0], [1, 0]], dirac=[[0, -1], [0, 0]],
                     V=lambda x: np.exp(-np.asarray(x, dtype=float) ** 2),
                     pert_kernel=pk, eta=0.5, weight_eta=0.5)


def test_convolution_perturbation_kernel_path():
    model = kernel_perturbation_model()
    # unit-mass perturbation kernel pairs like the matrix Dirac factor
    assert edge_constant(model) == pytest.approx(np.sqrt(np.pi) / 2, rel=1e-10)
    r = edge_eigenvalue(model, 0.02)
    assert r.lam > 0
    assert r.lam / 0.02 ** 2 == pytest.approx(np.pi / 4, rel=0.05)


@pytest.mark.parametrize("field", ["B", "dirac", "P", "kernel"])
def test_complex_model_data_is_refused(field):
    data = {"B": [[0.0, 0.0], [1.0, 0.0]], "dirac": [[0.0, -1.0], [0.0, 0.0]],
            "P": [[0.0, 0.0], [1.0, 0.0]]}
    if field == "kernel":
        data[field] = gaussian_kernel(0.5, [[0.0, 0.0], [1.0, 0.2j]])
    else:
        data[field] = np.array(data[field]) + 0.3j
    with pytest.raises(ConfigurationError, match=field):
        EdgeModel(n=2, V=lambda x: np.exp(-np.asarray(x, dtype=float) ** 2),
                  **data)


def test_complex_perturbation_kernel_is_refused():
    pk = gaussian_kernel(0.5, [[0.0, 0.0], [1.0, 0.2j]])
    with pytest.raises(ConfigurationError, match="perturbation kernel"):
        EdgeModel(n=2, B=[[0, 0], [1, 0]], dirac=[[0, -1], [0, 0]],
                  V=lambda x: np.exp(-np.asarray(x, dtype=float) ** 2),
                  pert_kernel=pk, eta=0.5, weight_eta=0.5)


def test_trivial_branch_at_zero_perturbation():
    r = edge_eigenvalue(schrodinger_model(), 0.0)
    assert r.lam == 0.0
    assert r.iterations == 1


def test_no_kernel_at_doubled_eigenvalue():
    from specflow.symbols import ShiftTerm, Symbol
    model = scalar_diffusive_model()
    M = edge_constant(model)
    eps = 0.25 / abs(M)
    g = Grid(L=60.0, h=0.1)
    r = edge_eigenvalue(model, eps, grid=g)

    def op_at(lam):
        def at(xi):
            base = model.symbol_at(lam)
            A = (base.shifts[0].A
                 - eps * float(model.V(np.array([xi]))[0]) * np.asarray(model.P))
            return Symbol(base.n, base.kernel, (ShiftTerm(0.0, A),), base.eta)
        return at

    assert nullity(assemble(op_at(r.lam), g), tol_ratio=100.0).dim == 1
    assert nullity(assemble(op_at(2 * r.lam), g), tol_ratio=100.0).dim == 0


@pytest.mark.parametrize("make", [scalar_diffusive_model, kernel_perturbation_model],
                         ids=["kernel", "perturbation_kernel"])
def test_edge_convolution_matches_quadrature(make):
    # the edge's one convolution per kernel (extended-grid rows plus the
    # exact far-field tails) on the ansatz, against adaptive quadrature
    model = make()
    sys = _EdgeSystem(model, Grid(20.0, 0.05), 0.02, edge_vectors(model))
    conv = sys.conv or sys.pert_conv
    a_minus = 0.7
    _, nu_p, nu_m, e_p, e_m, U_ext, _ = sys.ansatz(a_minus, -0.1)
    out = sys.convolve(conv, U_ext, a_minus, nu_p, nu_m, e_p, e_m)

    def ansatz_at(y):
        # the ramp is -+1 for |y| >= 1
        rho = smooth_ramp(np.clip([y], -2.0, 2.0))[0][0]
        U = np.zeros(model.n)
        if rho > -1.0:
            U += 0.5 * (1.0 + rho) * np.exp(np.real(nu_p) * y) * e_p
        if rho < 1.0:
            U += a_minus * 0.5 * (1.0 - rho) * np.exp(np.real(nu_m) * y) * e_m
        return U

    def integrand(y, x, c):
        return float(np.real(conv.kernel.value(np.array([x - y]))[0][c]) @ ansatz_at(y))

    for i in np.searchsorted(sys.x, [-15.0, -3.0, -0.5, 0.0, 0.7, 2.5, 15.0]):
        x = sys.x[i]
        for c in range(model.n):
            ref = (quad(integrand, -np.inf, x, args=(x, c), epsabs=1e-12, limit=200)[0]
                   + quad(integrand, x, np.inf, args=(x, c), epsabs=1e-12, limit=200)[0])
            assert abs(out[i, c] - ref) < 1e-6
    # the tails alone at the window ends (the left one of the scalar model
    # is about 2e-8): exact integrals beyond the extended grid, of
    # e^{nu y} e_+ on the right and e^{nu y} e_- on the left
    right, left = sys.far_tails(conv.kernel, np.real(nu_p), np.real(nu_m))
    for tail, i, lo, hi, nu, e in ((right, -1, sys.x_ext[-1], np.inf, nu_p, e_p),
                                   (left, 0, -np.inf, sys.x_ext[0], nu_m, e_m)):
        x = sys.x[i]
        for c in range(model.n):
            def far(y):
                return float(np.real(conv.kernel.value(np.array([x - y]))[0][c] @ e)
                             * np.exp(np.real(nu) * y))
            ref = quad(far, lo, hi, epsabs=0.0, epsrel=1e-12)[0]
            # head and tail transforms are differences of O(1) integrals
            assert abs((tail[i] @ e)[c] - ref) <= 1e-14


@pytest.mark.parametrize("make, form", [(schrodinger_model, "sparse"),
                                        (kernel_perturbation_model, "dense"),
                                        (scalar_diffusive_model, "annihilated")],
                         ids=["dirac", "kernel", "rational_kernel"])
def test_edge_jacobian_matches_differences(make, form):
    model = make()
    data = edge_vectors(model)
    sys = _EdgeSystem(model, Grid(20.0, 0.2), 0.02, data)
    rng = np.random.default_rng(1)
    z = np.concatenate([[1.1, -0.02 * edge_constant(model, data)],
                        1e-3 * rng.standard_normal(int(sys.active_flat.sum()))])
    res = sys.residual(z)
    J = sys.jacobian(z, res)
    # a band without kernel matrices, annihilated for one exponential
    # kernel and a Dirac perturbation, dense for a perturbation kernel
    assert isinstance(J, griddisc.Annihilated) == (form == "annihilated")
    assert sparse.issparse(J) == (form == "sparse")
    if form == "annihilated":
        colnorm = J.colnorm
        J = annihilated_to_dense(J)
        assert np.abs(colnorm / np.linalg.norm(J, axis=0) - 1).max() <= 1e-12
    J = J.toarray() if sparse.issparse(J) else J
    J_fd = fd_columns(sys.residual, z, res, len(z))
    assert np.linalg.norm(J - J_fd) <= 1e-6 * np.linalg.norm(J_fd)


def test_rational_edge_kernel_runs_no_dense_solve(monkeypatch):
    # one exponential kernel and a Dirac perturbation take the annihilated
    # step: neither the dense block Toeplitz table nor the Cholesky factor
    # of the normal equations is ever formed
    def refuse(*args, **kwargs):
        raise AssertionError("dense path taken")

    monkeypatch.setattr(griddisc, "cho_factor", refuse)
    monkeypatch.setattr(griddisc, "_toeplitz_view", refuse)
    model = scalar_diffusive_model()
    M = edge_constant(model)
    r = edge_eigenvalue(model, 0.25 / abs(M), grid=Grid(L=60.0, h=0.1))
    assert r.iterations == 5
    assert r.lam / (0.25 / M) ** 2 == pytest.approx(M * M, rel=0.45)


def test_edge_steps_stay_out_of_sawtooth_modes(monkeypatch):
    # the edge Jacobian has two sawtooth modes of fd4_matrix with singular
    # values near 1e-11 and 5e-13 (column-equilibrated); gelsd counted the
    # larger one into the rank and put rounding noise along it, up to the
    # whole second step.  The ridge step keeps them out.
    steps = []
    ls_step = griddisc._ls_step

    def recorded(J, res):
        step = ls_step(J, res)
        steps.append((J, step))
        return step

    monkeypatch.setattr(griddisc, "_ls_step", recorded)
    edge_eigenvalue(schrodinger_model(), 0.02)
    assert len(steps) >= 2
    for J, step in steps[:2]:
        J = J.toarray()
        colnorm = np.linalg.norm(J, axis=0)
        _, s, Vh = np.linalg.svd(J / colnorm, full_matrices=False)
        null = Vh[s < 1e-8 * s[0]]
        assert len(null) == 2
        # consecutive grid values of each null vector alternate in sign
        for v in null:
            nodes = v[2::2]
            big = np.abs(nodes) > 1e-3 * np.abs(nodes).max()
            flips = np.sign(nodes[1:]) != np.sign(nodes[:-1])
            assert flips[big[1:] & big[:-1]].mean() > 0.99
        scaled = step * colnorm
        assert np.abs(null @ scaled).max() <= 1e-6 * np.linalg.norm(scaled)
