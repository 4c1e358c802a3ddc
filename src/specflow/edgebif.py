"""Eigenvalues bifurcating from the edge of the essential spectrum.

The eigenvalue problem is U' + (K + eps*Kt_xi) * U - lambda B U = 0 with
a localized perturbation Kt_xi = V(xi) * P (P a matrix Dirac factor or a
convolution kernel).  When the dispersion function

    d(nu, lambda) = det(nu I + K_hat(nu) - lambda B)

is diffusive at the origin (double root in nu, opposite-sign curvature
against the lambda slope), a small localized perturbation pushes a
simple eigenvalue out of the edge at the quadratic rate
lambda_*(eps) / eps^2 -> M^2, with M computable from the kernel data.

The eigenfunction is sought with far fields carried analytically,

    U = a_+ e_+(g) chi_+ exp(nu_+(g) x) + a_- e_-(g) chi_- exp(nu_-(g) x) + w,

g^2 = lambda, so the slowly decaying modes never meet the grid
truncation; only the fast-decaying remainder w lives on the window.  A
kernel meets them through the window rows of one `griddisc.Convolution`
on the extended grid, and beyond it exactly, through partial transforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.integrate import quad

from .charmatrix import _cauchy_derivatives, axis_cutoff, delta_eval
from .errors import (CompatibilityViolated, GenericityViolated, NewtonDiverged,
                     RankMismatch)
from .griddisc import (Convolution, Grid, WeightedWindow, block_toeplitz,
                       fd_columns, newton_solve)
from .kernels import _real
from .roots import Rectangle, newton_root
from .symbols import ShiftTerm, Symbol

__all__ = [
    "EdgeModel", "EdgeData", "EdgeEigenvalue", "diffusive_check",
    "edge_vectors", "edge_constant", "edge_eigenvalue", "edge_scaling",
    "smooth_ramp",
]

_DIFFUSIVE_TOL = 1e-10      # |d|, |d_nu| at the origin and the axis margin
_RANK_GAP = 1e6             # SVD gap that makes ker K_hat(0) one-dimensional
_GRID = Grid(L=40.0, h=0.1)  # default window of edge_eigenvalue
_TOL = 1e-11                # Newton tolerance relative to 1 + eps max|V|
_MAX_ITER = 40


@dataclass
class EdgeModel:
    """Eigenvalue-problem data in the convolution-plus-Dirac form.

    `kernel` and `dirac` describe the unperturbed part in the convention
    U' + K*U + dirac U - lambda B U = 0 (K may be None).  The
    perturbation acts as eps * V(xi) * (P U) for a matrix P, or
    eps * V(xi) * (pert_kernel * U) for a kernel.  B, dirac, P and the
    values of both kernels on the default window's nodes must be real
    (ConfigurationError otherwise).
    """

    n: int
    B: np.ndarray
    kernel: object = None              # KernelSpec, paper-sign convention
    dirac: np.ndarray | None = None    # constant Dirac matrix C
    V: object = None                   # callable xi -> scalar (vectorized)
    P: np.ndarray | None = None        # Dirac matrix factor of the perturbation
    pert_kernel: object = None
    eta: float = 0.5                   # strip used for root searches
    weight_eta: float = 0.5            # decay rate enforced on the remainder

    def __post_init__(self):
        self.B = np.atleast_2d(_real(self.B, "B"))
        if self.dirac is not None:
            self.dirac = np.atleast_2d(_real(self.dirac, "dirac"))
        if self.P is not None:
            self.P = np.atleast_2d(_real(self.P, "P"))
        for name, k in (("kernel", self.kernel),
                        ("perturbation kernel", self.pert_kernel)):
            if k is not None:
                _real(k.value(_GRID.nodes), name)
        # the kernel in the symbol's sign convention, wrapped once
        self._kernel_neg = None if self.kernel is None else self.kernel.scaled(-1.0)

    def zero_shift(self, lam):
        """lam B minus the Dirac matrix: the zero-shift term of symbol_at."""
        A1 = lam * self.B
        if self.dirac is not None:
            A1 = A1 - self.dirac
        return A1

    def symbol_at(self, lam):
        """Constant-coefficient symbol of the unperturbed operator."""
        return Symbol(self.n, self._kernel_neg,
                      (ShiftTerm(0.0, self.zero_shift(lam)),), self.eta)

    def pert_transform0(self):
        if self.P is not None:
            return self.P.astype(complex)
        return self.pert_kernel.transform(0.0)

    def V_integral(self):
        val, _ = quad(lambda x: float(self.V(np.array([x]))[0]),
                      -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12)
        return val


def _adjugate(A):
    n = A.shape[0]
    adj = np.empty_like(A)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(A, i, axis=0), j, axis=1)
            adj[j, i] = (-1) ** (i + j) * np.linalg.det(minor)
    return adj


def _jet_at_origin(model):
    """Re Delta(0), Re Delta'(0), Re Delta''(0) of the symbol at lambda = 0.

    In the paper's convention these are K_hat(0) (Dirac part included),
    I + K_hat'(0) and K_hat''(0).
    """
    sym0 = model.symbol_at(0.0)
    return [np.real(delta_eval(sym0, 0.0, order)) for order in range(3)]


@dataclass
class DiffusiveReport:
    d00: complex
    d_nu: complex
    d_nunu: complex
    d_lambda: complex
    away_margin: float
    diffusive: bool
    failures: list[str]


def diffusive_check(model):
    """Verify the three edge conditions on the dispersion function.

    The nu-derivatives at the origin come from a contour integral of the
    analytic map nu -> d(nu, 0); the lambda slope uses the adjugate, so
    it stays exact at the singular matrix.  Condition three scans the
    axis away from a 1e-3 neighborhood of zero.  Reporting only.
    """
    sym0 = model.symbol_at(0.0)
    d = _cauchy_derivatives(sym0, 0.0, min(0.25, 0.5 * model.eta), (0, 1, 2))
    d00, d_nu, d_nunu = d[0], d[1], d[2]
    d_lambda = complex(-np.trace(_adjugate(delta_eval(sym0, 0.0)) @ model.B))

    cap = axis_cutoff(sym0)
    ells = np.concatenate([np.linspace(1e-3, cap, 2001),
                           -np.linspace(1e-3, cap, 2001)])
    dvals = np.abs(np.linalg.det(delta_eval(sym0, 1j * ells)))
    away_margin = float(dvals.min())

    failures = []
    if abs(d00) > _DIFFUSIVE_TOL:
        failures.append(f"|d(0,0)| = {abs(d00):.2e}")
    if abs(d_nu) > _DIFFUSIVE_TOL:
        failures.append(f"|d_nu(0,0)| = {abs(d_nu):.2e}")
    if not (np.real(d_nunu) * np.real(d_lambda) < 0):
        failures.append("curvature-slope product is not negative")
    if away_margin <= _DIFFUSIVE_TOL:
        failures.append("axis root away from the origin")
    return DiffusiveReport(d00=complex(d00), d_nu=complex(d_nu),
                           d_nunu=complex(d_nunu), d_lambda=d_lambda,
                           away_margin=away_margin,
                           diffusive=not failures, failures=failures)


@dataclass
class EdgeData:
    e0: np.ndarray
    e0_star: np.ndarray
    e1: np.ndarray
    e1_star: np.ndarray
    d_lambda: float
    d_nunu: float
    slope: float                      # s = sqrt(-2 d_lambda / d_nunu)
    report: DiffusiveReport


def edge_vectors(model):
    """Kernel vectors of K_hat(0) and the first-order correctors.

    e0 and e0* span ker K_hat(0) and ker K_hat(0)^T (one-dimensional up
    to the declared SVD gap); e1 and e1* are the minimum-norm solutions
    of the corrector equations.  All compatibility identities are
    verified to 1e-10.
    """
    rep = diffusive_check(model)
    if not rep.diffusive:
        raise CompatibilityViolated(
            "dispersion is not diffusive: " + "; ".join(rep.failures))
    D0, D1, D2 = _jet_at_origin(model)
    n = model.n
    if n == 1:
        if abs(D0[0, 0]) > 1e-10:
            raise RankMismatch("scalar K_hat(0) does not vanish")
        e0 = np.array([1.0])
        e0s = np.array([1.0])
    else:
        U, svals, Vh = np.linalg.svd(D0)
        if svals[-2] < _RANK_GAP * max(svals[-1], 1e-300):
            raise RankMismatch(
                f"kernel of K_hat(0) is not cleanly one-dimensional "
                f"(svals {svals})")
        e0 = Vh[-1]
        e0s = U[:, -1]
        if e0[np.argmax(np.abs(e0))] < 0:
            e0 = -e0
        if e0s[np.argmax(np.abs(e0s))] < 0:
            e0s = -e0s

    c1 = float(e0s @ (D1 @ e0))
    if abs(c1) > 1e-10:
        raise CompatibilityViolated(
            f"first compatibility pairing is {c1:.2e}")
    e1 = np.linalg.lstsq(D0, -D1 @ e0, rcond=None)[0]
    e1s = np.linalg.lstsq(D0.T, D1.T @ e0s, rcond=None)[0]
    lhs = float(e0s @ (D1 @ e1))
    rhs = -float(e1s @ (D1 @ e0))
    if abs(lhs - rhs) > 1e-8 * (1 + abs(lhs)):
        raise CompatibilityViolated(
            f"corrector identity violated: {lhs:.3e} vs {rhs:.3e}")
    nondeg = lhs + 0.5 * float(e0s @ (D2 @ e0))
    if abs(nondeg) < 1e-10:
        raise CompatibilityViolated("nondegeneracy pairing vanishes")
    d_l = float(np.real(rep.d_lambda))
    d_nn = float(np.real(rep.d_nunu))
    slope = float(np.sqrt(-2.0 * d_l / d_nn))
    return EdgeData(e0=e0, e0_star=e0s, e1=e1, e1_star=e1s,
                    d_lambda=d_l, d_nunu=d_nn, slope=slope, report=rep)


def edge_constant(model, data=None):
    """Generic constant M controlling lambda_*(eps) ~ (M eps)^2.

    Numerator: the L2 pairing of the perturbation against e0, e0*, which
    for a separable perturbation is (integral of V) times a matrix
    pairing.  Denominator: the corrector pairing; its vanishing means
    the perturbation is non-generic.
    """
    data = data or edge_vectors(model)
    _, D1, D2 = _jet_at_origin(model)
    denom = float(data.e0_star @ ((2.0 * D1) @ data.e1 + D2 @ data.e0))
    if abs(denom) < 1e-10:
        raise GenericityViolated("corrector pairing vanishes")
    P0 = np.real(model.pert_transform0())
    numer = model.V_integral() * float(data.e0_star @ (P0 @ data.e0))
    M = numer / denom * np.sqrt(-data.d_nunu / (2.0 * data.d_lambda))
    return float(M)


def smooth_ramp(xi):
    """Odd C-infinity ramp equal to -+1 for |xi| >= 1, tanh-shaped inside.

    Returns (rho, rho').  The clamp blends tanh(2 xi) into the constant
    branches over |xi| in [0.8, 1], keeping both values and derivatives
    smooth; the precise shape only affects the solver through terms that
    vanish to the tested order.
    """
    xi = np.asarray(xi, dtype=float)
    t = np.tanh(2.0 * xi)
    dt = 2.0 / np.cosh(2.0 * xi) ** 2
    s = np.sign(xi)
    u = np.clip((np.abs(xi) - 0.8) / 0.2, 0.0, 1.0)

    def f(v):
        with np.errstate(divide="ignore", over="ignore"):
            out = np.where(v > 0, np.exp(-1.0 / np.maximum(v, 1e-300)), 0.0)
        return out

    fu, fv = f(u), f(1.0 - u)
    m = fu / (fu + fv)
    with np.errstate(divide="ignore", invalid="ignore"):
        dm = np.where((u > 0) & (u < 1),
                      fu * fv * (1.0 / np.maximum(u, 1e-300) ** 2
                                 + 1.0 / np.maximum(1.0 - u, 1e-300) ** 2)
                      / (fu + fv) ** 2, 0.0)
    rho = (1.0 - m) * t + m * s
    drho = (1.0 - m) * dt + dm * (s - t) * s / 0.2
    return rho, drho


def dispersion_root(model, gamma, branch, slope):
    """Root nu of d(nu, gamma^2) = 0 continued from branch * slope * gamma.

    `slope` is EdgeData.slope, sqrt(-2 d_lambda / d_nunu).  The Newton
    run of `roots.newton_root` stays in |Re nu| <= 0.95 eta, so d is never
    evaluated past the analyticity boundary; a run that does not converge
    raises NewtonDiverged.
    """
    cap = 0.95 * model.eta
    nu = newton_root(model.symbol_at(gamma * gamma), branch * slope * gamma,
                     Rectangle(-cap, cap, -np.inf, np.inf))
    if nu is None:
        raise NewtonDiverged(
            f"dispersion root nu_{'+' if branch > 0 else '-'} did not "
            f"converge at gamma = {gamma:.6g}")
    return nu


def _null_vector(mat, align):
    _, _, Vh = np.linalg.svd(mat)
    v = np.conj(Vh[-1])
    ip = align @ np.real(v)
    if abs(ip) < 1e-12:
        ip = np.real(v[np.argmax(np.abs(v))])
    return np.real(v) * np.sign(ip) if np.abs(np.imag(v)).max() < 1e-9 else v * np.sign(ip)


@dataclass
class EdgeEigenvalue:
    lam: float
    gamma: float
    a_minus: float
    x: np.ndarray
    U: np.ndarray
    w: np.ndarray
    resonance: bool
    residual: float
    iterations: int
    diagnostics: dict = field(default_factory=dict)


class _EdgeSystem(WeightedWindow):
    """Residual/Jacobian of the far-field ansatz eigenvalue equation."""

    def __init__(self, model, grid, eps, data):
        super().__init__(grid, model.n, model.weight_eta)
        self.model = model
        self.eps = float(eps)
        self.data = data

        rho, drho = smooth_ramp(self.x_ext)
        self.chi_p = 0.5 * (1.0 + rho)
        self.chi_m = 0.5 * (1.0 - rho)
        self.dchi = 0.5 * drho[self.win]

        self.Vx = np.asarray(model.V(self.x), dtype=float).reshape(self.m)

        # the derivative chain divides by the weight at the output node
        # (scale on the left), every other term at the input node (scale
        # on the right)
        n = self.n
        self.scale = sparse.diags(np.repeat(1.0 / self.Wvec, n))
        self.chain = self.scale @ (sparse.kron(self.D4, np.eye(n))
                                   - sparse.diags(np.repeat(self.dwexp, n)))

        # the kernels' convolutions and their constant part of the w block,
        # the block Toeplitz matrix of the window rows.  Their tables reach
        # past the nodes where EdgeModel refused complex kernels, and
        # Convolution refuses a complex value there as well
        self.conv = self.pert_conv = self.kernel_block = None
        block = 0.0
        if model.kernel is not None:
            self.conv = Convolution(model._kernel_neg, self.h)
            block = block - block_toeplitz(self.conv.table(self.m))
        if model.pert_kernel is not None:
            self.pert_conv = Convolution(model.pert_kernel, self.h, "perturbation kernel")
            block = block + np.repeat(self.eps * self.Vx, n)[:, None] * block_toeplitz(
                self.pert_conv.table(self.m))
        if self.conv is not None or self.pert_conv is not None:
            self.kernel_block = block * self.scale.diagonal()

    # -- far-field data ---------------------------------------------------

    def far_fields(self, gamma):
        lam = gamma * gamma
        sym = self.model.symbol_at(lam)
        nu_p = dispersion_root(self.model, gamma, +1, self.data.slope)
        nu_m = dispersion_root(self.model, gamma, -1, self.data.slope)
        e_p = _null_vector(delta_eval(sym, np.array(nu_p))[()], self.data.e0)
        e_m = _null_vector(delta_eval(sym, np.array(nu_m))[()], self.data.e0)
        return lam, nu_p, nu_m, np.real(e_p), np.real(e_m)

    def unpack(self, z):
        return z[0], z[1], self.window_field(z[2:])

    def ansatz(self, a_minus, gamma):
        """Far fields, the ansatz U on the extended grid and U' on the window."""
        lam, nu_p, nu_m, e_p, e_m = self.far_fields(gamma)
        up = np.exp(np.real(nu_p) * self.x_ext)
        um = np.exp(np.real(nu_m) * self.x_ext)
        U = (self.chi_p * up)[:, None] * e_p[None, :]
        U = U + a_minus * (self.chi_m * um)[:, None] * e_m[None, :]
        win = self.win
        up, um, chi_p, chi_m = up[win], um[win], self.chi_p[win], self.chi_m[win]
        dU = (self.dchi * up + chi_p * np.real(nu_p) * up)[:, None] * e_p[None, :]
        dU = dU + a_minus * ((-self.dchi) * um
                             + chi_m * np.real(nu_m) * um)[:, None] * e_m[None, :]
        return lam, nu_p, nu_m, e_p, e_m, U, dU

    def convolve(self, conv, U_ext, a_minus, nu_p, nu_m, e_p, e_m):
        """conv's kernel * U on the window: extended-grid rows plus far tails."""
        right, left = self.far_tails(conv.kernel, np.real(nu_p), np.real(nu_m))
        return conv.apply(U_ext)[self.win] + right @ e_p + a_minus * (left @ e_m)

    def residual(self, z):
        a_minus, gamma, w = self.unpack(z)
        lam, nu_p, nu_m, e_p, e_m, U_ext, dU = self.ansatz(a_minus, gamma)
        U_ext[self.win] += w / self.Wvec[:, None]
        Ufull = U_ext[self.win]
        Uprime = dU + self.unweighted_derivative(w)

        R = Uprime - Ufull @ self.model.zero_shift(lam).T
        far = (a_minus, nu_p, nu_m, e_p, e_m)
        if self.conv is not None:
            R = R - self.convolve(self.conv, U_ext, *far)
        if self.model.P is not None:
            pert = Ufull @ self.model.P.T
        else:
            pert = self.convolve(self.pert_conv, U_ext, *far)
        R = R + self.eps * self.Vx[:, None] * pert
        return R.reshape(-1)

    def jacobian(self, z, res):
        """Jacobian in (a_-, gamma, active w).

        The two leading columns are forward differences.  The w block is
        analytic: a scipy.sparse band without kernels, a dense array when
        `kernel_block` adds the convolutions.
        """
        gamma = z[1]
        local = -sparse.kron(sparse.identity(self.m), self.model.zero_shift(gamma * gamma))
        if self.model.P is not None:
            local = local + self.eps * sparse.kron(sparse.diags(self.Vx), self.model.P)
        JW = self.chain + local @ self.scale

        Jp = fd_columns(self.residual, z, res, 2)
        if self.kernel_block is None:
            return sparse.hstack([Jp, sparse.csc_matrix(JW)[:, self.active_flat]],
                                 format="csc")
        JW = JW.toarray() + self.kernel_block
        return np.hstack([Jp, JW[:, self.active_flat]])


def edge_eigenvalue(model, eps, grid=_GRID, data=None):
    """Bifurcating eigenvalue lambda_*(eps) = gamma^2 and its eigenfunction.

    Newton on (a_-, gamma, w) with a_+ normalized to 1, seeded on the
    branch gamma ~ -M eps.  A negative M*eps puts the continuation on
    the resonance branch (eigenfunction grows): when Newton converges
    there the result is flagged (`resonance`), and when it does not it
    raises NewtonDiverged (exit 3), as for `scalar_diffusive_model` of
    the tests on Grid(60, 0.1) at eps = -0.25/|M|.  `data` is the
    model's EdgeData when the caller already holds it.
    """
    data = data or edge_vectors(model)
    return _edge_eigenvalue(model, eps, grid, data, edge_constant(model, data))


def _edge_eigenvalue(model, eps, grid, data, M):
    """`edge_eigenvalue` given the model's EdgeData and edge constant M."""
    resonance = (M * eps) < 0
    sys = _EdgeSystem(model, grid, eps, data)
    z = np.concatenate([[1.0, -M * eps], np.zeros(int(sys.active_flat.sum()))])
    scale = 1.0 + abs(eps) * np.abs(sys.Vx).max()
    # quadrature defects against the analytic far field floor the
    # attainable residual for convolution kernels; a stalled iteration
    # already below this level counts as converged at the floor
    z, res, iterations = newton_solve(sys.residual, sys.jacobian, z,
                                      _TOL * scale, _MAX_ITER,
                                      plateau=1e-6 * scale)

    a_minus, gamma, w = sys.unpack(z)
    lam, nu_p, nu_m, e_p, e_m, U, dU = sys.ansatz(a_minus, gamma)
    Ufull = U[sys.win] + w / sys.Wvec[:, None]
    return EdgeEigenvalue(
        lam=float(gamma * gamma), gamma=float(gamma), a_minus=float(a_minus),
        x=sys.x, U=Ufull, w=w, resonance=resonance,
        residual=float(np.abs(res).max()),
        iterations=iterations,
        diagnostics={
            "nu_plus": complex(nu_p), "nu_minus": complex(nu_m),
            "M": float(M), "predicted_nu_plus": float(-data.slope * M * eps),
            "grid": (grid.L, grid.h),
        })


@dataclass
class EdgeScaling:
    rows: list                         # (eps, lambda_star, lambda/eps^2)
    intercept: float
    slope_fit: float
    M: float

    @property
    def M_squared(self):
        return self.M * self.M

    @property
    def intercept_rel_error(self):
        return abs(self.intercept - self.M_squared) / self.M_squared


def edge_scaling(model, eps_list):
    """lambda_*(eps) sweep with the quadratic-law fit of the ratio."""
    data = edge_vectors(model)
    M = edge_constant(model, data)
    rows = []
    for eps in eps_list:
        r = _edge_eigenvalue(model, eps, _GRID, data, M)
        rows.append((float(eps), r.lam, r.lam / eps ** 2))
    eps_arr = np.array([r[0] for r in rows])
    ratio = np.array([r[2] for r in rows])
    A = np.vstack([np.ones_like(eps_arr), eps_arr]).T
    coef, *_ = np.linalg.lstsq(A, ratio, rcond=None)
    return EdgeScaling(rows=rows, intercept=float(coef[0]),
                       slope_fit=float(coef[1]), M=float(M))
