"""Stationary shock profiles in nonlocal conservation laws with sources.

The model is u_t = (K * F(u) + G(u))_x + eps * H(x), with a nonlocal
flux part K * F and a local flux G.  Around the zero state, transport is
governed by dG + K_hat(0) dF: its negated eigenvalues are the
characteristic speeds.  A small localized source produces a smooth
stationary transition layer; its far-field states are resolved on the
outgoing characteristics and the jump across the layer is, to leading
order, determined by the integrated source alone.

The stationary solver works with the ansatz

    U(x) = sum_j a_j e_j chi_+(x) + sum_j b_j e_j chi_-(x) + W(x),

chi_+- = (1 +- tanh x)/2, with W sought in an exponentially weighted
space (unknowns V = W_w * W on the grid, so the correction is forced to
decay).  The residual evaluates the flux derivative analytically:
(K*F(U))' = K' * F(U) plus the Dirac part from a kernel jump, and
dG(U) U' with the slowly-varying ansatz differentiated in closed form.
K' * F(U) is the window rows of one kink-corrected trapezoid convolution
(`griddisc.Convolution`) on an extended grid that carries the ansatz
beyond the window, plus the exact tails of the constant far states (the
nu = 0 case of the edge layer's far fields).  The Jacobian's V block is
the Toeplitz table T of those rows times the flux derivative, plus a
local band.  A rational kernel (config families `exponential`,
`one_sided_exponential`, `exp_poly`) applies its rows in O(N), and its
Jacobian is held as Q J with a banded annihilator Q
(`griddisc.Annihilated`), so each Newton step is one sparse solve; any
other kernel has a dense block Toeplitz Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.integrate import quad_vec

from .errors import (ConfigurationError, DegeneracyViolated, NonrealSpectrum,
                     RepeatedSpeeds, SingularMatrix)
from .griddisc import (Annihilated, Convolution, Grid, WeightedWindow,
                       block_sparse, block_toeplitz, fd_columns, newton_solve)
from .kernels import _real
from .symbols import ShiftTerm, Symbol
from .flow import weighted_index

__all__ = [
    "ShockModel", "ShockSolution", "characteristic_speeds",
    "linearization_index", "linearization_symbol", "jump_leading_order",
    "shock_profile", "zero_speed_constant", "zero_speed_selection",
    "zero_speeds",
]

_GRID = Grid(L=30.0, h=0.05)  # default window of the layer solvers
_TOL = 1e-10                  # Newton tolerance relative to 1 + max|eps H|
_MAX_ITER = 50
_ZERO_SPEED = 1e-8            # a characteristic speed below this vanishes


def zero_speeds(speeds):
    """Indices of the characteristic speeds that vanish (|c| < _ZERO_SPEED)."""
    return np.flatnonzero(np.abs(speeds) < _ZERO_SPEED)


def _flux_jacobian(d, d2, U):
    """Jacobian d + d2[i, j, k] U_k of a linear-plus-quadratic flux per node."""
    out = np.broadcast_to(d, (U.shape[0],) + d.shape).copy()
    return out if d2 is None else out + np.einsum("ijk,mk->mij", d2, U)


@dataclass
class ShockModel:
    """Problem data for the stationary shock computation.

    Fluxes are linear by default; optional quadratic tensors F2, G2 add
    F_i += 0.5 * F2[i,j,k] u_j u_k (same for G).  The source is a
    callable x -> (len(x), n) array, exponentially localized.  The flux
    data must be real (ConfigurationError otherwise).
    """

    n: int
    kernel: object                     # KernelSpec of the physical kernel
    dF: np.ndarray
    dG: np.ndarray
    source: object
    F2: np.ndarray | None = None
    G2: np.ndarray | None = None
    eps_max: float = 0.05
    eta: float = 0.25                  # weight rate for the correction term

    def __post_init__(self):
        self.dF = np.atleast_2d(_real(self.dF, "dF"))
        self.dG = np.atleast_2d(_real(self.dG, "dG"))
        if abs(np.linalg.det(self.dG)) < 1e-12:
            raise SingularMatrix("dG must be invertible")
        if self.F2 is not None:
            self.F2 = _real(self.F2, "F2")
        if self.G2 is not None:
            self.G2 = _real(self.G2, "G2")

    # -- flux evaluations -------------------------------------------------

    def flux_F(self, U):
        out = U @ self.dF.T
        if self.F2 is not None:
            out = out + 0.5 * np.einsum("ijk,mj,mk->mi", self.F2, U, U)
        return out

    def dflux_F(self, U):
        """Jacobian dF(U) per node, shape (m, n, n)."""
        return _flux_jacobian(self.dF, self.F2, U)

    def dflux_G(self, U):
        """Jacobian dG(U) per node, shape (m, n, n)."""
        return _flux_jacobian(self.dG, self.G2, U)

    def transport_matrix(self):
        K0 = np.real(self.kernel.transform(0.0))
        return self.dG + K0 @ self.dF

    def source_at(self, x):
        return np.asarray(self.source(np.asarray(x, dtype=float)))


def characteristic_speeds(model):
    """Speeds c_j and the orthonormal transport eigenbasis.

    The transport matrix dG + K_hat(0) dF has eigenvalues -c_j; the
    speeds are returned in increasing order.  Raises NonrealSpectrum for
    complex eigenvalues (non-symmetric data) and RepeatedSpeeds when the
    strict ordering fails.
    """
    M0 = model.transport_matrix()
    if np.allclose(M0, M0.T, atol=1e-12 * max(1.0, np.abs(M0).max())):
        lam, E = np.linalg.eigh(M0)
    else:
        lam, E = np.linalg.eig(M0)
        if np.abs(lam.imag).max() > 1e-10 * max(1.0, np.abs(lam).max()):
            raise NonrealSpectrum("transport matrix has complex eigenvalues")
        lam, E = lam.real, E.real
    speeds = -lam
    order = np.argsort(speeds)
    speeds = speeds[order]
    E = E[:, order]
    scale = max(1.0, np.abs(speeds).max())
    if np.min(np.diff(speeds)) < 1e-10 * scale if len(speeds) > 1 else False:
        raise RepeatedSpeeds("characteristic speeds are not distinct")
    return speeds, E


def linearization_symbol(model):
    """Symbol of the normalized linearized operator U + dG^-1 (K_x * dF U).

    The x-derivative of the convolution kernel contributes a smooth part
    and, for kernels with a jump at 0, a Dirac term; both are folded into
    the symbol data, on 0.9 of the kernel's strip.
    """
    dGinv = np.linalg.inv(model.dG)
    kernel = model.kernel.derivative().sandwich(-dGinv, model.dF)
    shifts = [ShiftTerm(0.0, -dGinv @ model.kernel.jump() @ model.dF)]
    return Symbol(model.n, kernel, tuple(shifts), 0.9 * kernel.strip)


def linearization_index(model, eta):
    """Fredholm index of the linearization in the symmetric weight e^{eta|x|}.

    The weight corresponds to the two-sided rates (-eta, +eta); with all
    speeds nonzero the characteristic root at 0 has multiplicity n and
    the index is -n, gaining one more when exactly one speed vanishes
    with a generic kernel slope.
    """
    sym = linearization_symbol(model)
    if not 0 < eta < sym.eta:
        raise ConfigurationError(f"need 0 < eta < {sym.eta:g}")
    return weighted_index(sym, -eta, eta)


def jump_leading_order(model):
    """Leading-order jump per unit eps: -(K_hat(0) dF + dG)^{-1} integral H."""
    M0 = model.transport_matrix()
    if len(zero_speeds(np.linalg.eigvals(M0))):
        raise SingularMatrix("transport matrix is singular (zero speed)")
    integral, _ = quad_vec(lambda x: model.source_at(np.array([x]))[0],
                           -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12)
    return -np.linalg.solve(M0, integral)


@dataclass
class ShockSolution:
    a: np.ndarray                      # outgoing coefficients (eigenbasis)
    b: np.ndarray                      # ingoing coefficients (eigenbasis)
    x: np.ndarray
    U: np.ndarray                      # profile on the grid, (m, n)
    W: np.ndarray                      # localized correction, (m, n)
    residual: float
    iterations: int
    basis: np.ndarray                  # eigenbasis columns e_j
    diagnostics: dict = field(default_factory=dict)

    @property
    def jump(self):
        """State-space jump U(+inf) - U(-inf)."""
        return self.basis @ (self.a - self.b)


class _ShockSystem(WeightedWindow):
    """Discrete residual and Jacobian for the stationary layer equation.

    The correction unknowns are V = W_w * W on the active window nodes
    (see WeightedWindow), which makes the collocation system (all rows
    kept) solvable by least squares.
    """

    def __init__(self, model, grid, b, eps, free_b_index=None):
        super().__init__(grid, model.n, model.eta)
        self.model = model
        self.eps = float(eps)
        self.b = np.asarray(b, dtype=float)
        self.free_b = free_b_index

        speeds, E = characteristic_speeds(model)
        self.E = E
        self.dchi = 0.5 / np.cosh(self.x) ** 2

        self.Hx = self.eps * model.source_at(self.x)

        # K' * F(U): the window rows of one Convolution on the extended
        # grid, which carries the ansatz beyond the window, plus the exact
        # tails of the constant far states (nu = 0) beyond it.  A complex
        # kernel is refused.
        dK = model.kernel.derivative()
        self.K_jump = model.kernel.jump()
        self.conv = Convolution(dK, self.h)
        self.chi_p_ext = 0.5 * (1.0 + np.tanh(self.x_ext))
        self.chi_m_ext = 0.5 * (1.0 - np.tanh(self.x_ext))
        self.tail_right, self.tail_left = self.far_tails(dK, 0.0, 0.0)

        # the V block of the Jacobian is T D_F plus a local band: T the
        # Toeplitz table of the window rows of K' plus the jump of K on
        # the diagonal, and Dx the derivative chain D4 - diag(w')
        m = self.m
        T = self.conv.table(m)
        T[m - 1] += np.real(self.K_jump)
        self.Dx = (self.D4 - sparse.diags(self.dwexp)).tocoo()
        if self.conv.rational:
            self._init_annihilated(T)
        else:
            self.T_dense = block_toeplitz(T)

    def _init_annihilated(self, T):
        """The constant parts of the annihilated Jacobian.

        QT is the annihilated form of the table T.  The column norms of
        the V block T D_F + local split at the band w of Dx: `T_near`
        holds the offsets |i - j| <= w, and `far_gram[j]` sums
        T(d)^T T(d) over the rows of column j beyond, so the far part of
        a squared norm is D_j^T far_gram[j] D_j.
        """
        m, n = self.m, self.n
        self.QT = self.conv.annihilate(T, m)
        self.Qn = sparse.kron(self.conv.annihilator(m), np.eye(n), format="csr")
        Dx = self.Dx
        w = int(np.abs(Dx.row - Dx.col).max())
        rows = np.repeat(np.arange(m), 2 * w + 1)
        cols = rows - np.tile(np.arange(-w, w + 1), m)
        keep = (cols >= 0) & (cols < m)
        rows, cols = rows[keep], cols[keep]
        self.T_near = block_sparse(rows, cols, T[m - 1 + rows - cols], (m * n, m * n))
        gram = np.einsum("dab,dac->dbc", T, T)
        zero = np.zeros((1, n, n))
        up = np.concatenate([zero, np.cumsum(gram[m + w:], axis=0)])
        down = np.concatenate([zero, np.cumsum(gram[m - 2 - w::-1], axis=0)])
        nodes = np.arange(m)
        self.far_gram = (up[np.maximum(m - 1 - w - nodes, 0)]
                         + down[np.maximum(nodes - w, 0)])

    # -- helpers ----------------------------------------------------------

    @property
    def n_params(self):
        return self.n + (1 if self.free_b is not None else 0)

    def unpack(self, z):
        """(a, b, V) from the unknowns: a, the free b component, then V."""
        b = self.b.copy()
        if self.free_b is not None:
            b[self.free_b] = z[self.n]
        return z[:self.n], b, self.window_field(z[self.n_params:])

    def profile_ext(self, a, b, V):
        """The ansatz on the extended grid plus the correction on the window."""
        U = (self.chi_p_ext[:, None] * (self.E @ a)[None, :]
             + self.chi_m_ext[:, None] * (self.E @ b)[None, :])
        U[self.win] += V / self.Wvec[:, None]
        return U

    def profile(self, a, b, V):
        return self.profile_ext(a, b, V)[self.win]

    def profile_derivative(self, a, b, V):
        dbase = self.dchi[:, None] * (self.E @ (a - b))[None, :]
        return dbase + self.unweighted_derivative(V)

    def residual(self, z):
        a, b, V = self.unpack(z)
        U_ext = self.profile_ext(a, b, V)
        F_ext = self.model.flux_F(U_ext)
        U, FU = U_ext[self.win], F_ext[self.win]
        Up = self.profile_derivative(a, b, V)
        R = self.kprime(F_ext)
        R = R + np.einsum("mij,j->mi", self.tail_right,
                          self.model.flux_F((self.E @ a)[None, :])[0])
        R = R + np.einsum("mij,j->mi", self.tail_left,
                          self.model.flux_F((self.E @ b)[None, :])[0])
        R = R + FU @ np.real(self.K_jump).T
        dGU = self.model.dflux_G(U)
        R = R + np.einsum("mij,mj->mi", dGU, Up)
        R = R + self.Hx
        R = R.reshape(-1)
        if self.free_b is not None:
            # gauge row: shifting the zero-speed content of both far
            # fields together is (nearly) residual-free, so the split is
            # pinned symmetrically
            R = np.append(R, a[self.free_b] + b[self.free_b])
        return R

    def kprime(self, F_ext):
        """Window rows of the K' convolution of F given on the extended grid."""
        return self.conv.apply(F_ext)[self.win]

    def jacobian(self, z, res):
        """Jacobian in (a, free b, active V): dense, or `Annihilated`.

        The leading columns are forward differences.  The V block is
        analytic: d/dV of F(U) is (K' rows on the window columns plus
        I kron K_jump) times the block diagonal D_F of Fu(U) / W; d/dV of
        dG(U) U' is the local band: the quadratic-G diagonal plus the
        transport of the derivative, block (i, j) dG(U_i) Dx[i, j] / W_i.
        A rational kernel's Jacobian is held annihilated, any other one
        is the dense block Toeplitz of T times D_F plus the band.
        """
        n, m = self.n, self.m
        a, b, V = self.unpack(z)
        U = self.profile(a, b, V)
        Up = self.profile_derivative(a, b, V)
        invW = 1.0 / self.Wvec
        DF = self.model.dflux_F(U) * invW[:, None, None]
        dGU = self.model.dflux_G(U)
        Jp = fd_columns(self.residual, z, res, self.n_params)
        nodes = np.arange(m)
        shape = (m * n, m * n)
        Dx = self.Dx
        local = block_sparse(Dx.row, Dx.col,
                             dGU[Dx.row] * (Dx.data * invW[Dx.row])[:, None, None], shape)
        if self.model.G2 is not None:
            G2U = np.einsum("ijk,mk->mij", self.model.G2, Up) * invW[:, None, None]
            local = local + block_sparse(nodes, nodes, G2U, shape)
        if self.conv.rational:
            return self._annihilated_jacobian(DF, local, Jp)
        JV = np.einsum("rik,ikj->rij", self.T_dense.reshape(m * n, m, n), DF).reshape(shape)
        JV += local.toarray()
        if self.free_b is not None:
            JV = np.vstack([JV, np.zeros((1, JV.shape[1]))])
        return np.hstack([Jp, JV[:, self.active_flat]])

    def _annihilated_jacobian(self, DF, local, Jp):
        """Q J as one sparse matrix: QT D_F plus Q times the local band."""
        n, m = self.n, self.m
        nodes = np.arange(m)
        DFmat = block_sparse(nodes, nodes, DF, (m * n, m * n))
        QJV = self.QT @ DFmat + self.Qn @ local
        near = self.T_near @ DFmat + local
        colnorm = np.sqrt(np.asarray(near.multiply(near).sum(axis=0)).ravel()
                          + np.einsum("jab,jac,jcb->jb", DF, self.far_gram, DF).ravel())
        Q = self.Qn
        if self.free_b is not None:
            QJV = sparse.vstack([QJV, sparse.csr_matrix((1, m * n))])
            Q = sparse.block_diag([Q, sparse.identity(1)], format="csr")
        QJ = sparse.hstack([sparse.csc_matrix(Q @ Jp),
                            QJV.tocsc()[:, self.active_flat]], format="csc")
        return Annihilated(QJ, Q, np.concatenate([np.linalg.norm(Jp, axis=0),
                                                  colnorm[self.active_flat]]))


def _check_eps(model, eps):
    """Refuse |eps| beyond the model's eps_max, and a NaN eps."""
    if not abs(eps) <= model.eps_max:
        raise ConfigurationError(f"|eps| exceeds eps_max = {model.eps_max:g}")


def shock_profile(model, b, eps, grid=_GRID):
    """Solve the stationary layer equation for given ingoing data b.

    Newton iteration on (a, V); the b states are prescribed.  Requires
    every characteristic speed nonzero and |eps| <= the model's eps_max.
    """
    _check_eps(model, eps)
    if len(zero_speeds(characteristic_speeds(model)[0])):
        raise ConfigurationError(
            "zero characteristic speed: use zero_speed_selection")
    sys = _ShockSystem(model, grid, b, eps)
    z = np.concatenate([np.asarray(b, dtype=float),
                        np.zeros(int(sys.active_flat.sum()))])
    return _solve_layer(sys, z)


def _solve_layer(sys, z):
    scale = 1.0 + np.abs(sys.Hx).max()
    z, res, iterations = newton_solve(sys.residual, sys.jacobian, z,
                                      _TOL * scale, _MAX_ITER)
    a, bfull, V = sys.unpack(z)
    W = V / sys.Wvec[:, None]
    U = sys.profile(a, bfull, V)
    return ShockSolution(
        a=a, b=bfull, x=sys.x, U=U, W=W,
        residual=float(np.abs(res).max()), iterations=iterations, basis=sys.E,
        diagnostics={"grid": (sys.grid.L, sys.grid.h), "eps": sys.eps,
                     "scale": scale})


def zero_speed_constant(model):
    """Selection constant M for the vanishing characteristic.

    M is the first moment of the source against the zero-speed direction
    divided by the kernel-slope pairing; an even source has M = 0 by
    parity.  Returns (M, j0, pairing).
    """
    speeds, E = characteristic_speeds(model)
    zero = zero_speeds(speeds)
    if len(zero) != 1:
        raise ConfigurationError("need exactly one vanishing speed")
    j0 = int(zero[0])
    e0 = E[:, j0]
    K1 = np.real(model.kernel.transform(0.0, 1))
    pairing = float(e0 @ (K1 @ model.dF @ e0))
    if abs(pairing) < 1e-10:
        raise DegeneracyViolated("kernel-slope pairing vanishes")
    moment, _ = quad_vec(lambda x: x * float(model.source_at(np.array([x]))[0] @ e0),
                         -np.inf, np.inf, epsabs=1e-13, epsrel=1e-13)
    return float(moment) / pairing, j0, pairing


def zero_speed_selection(model, eps):
    """Selection of the layer data on a vanishing characteristic.

    Exactly one speed must vanish; the source's first moment against the
    zero-speed direction, normalized by the kernel-slope pairing, gives
    the selection constant M.  The other ingoing coefficients are zero;
    the solver treats the zero-speed one as an additional unknown and
    returns
    (a_j0, b_j0, M, solution).  |eps| must be at most the model's eps_max.
    """
    _check_eps(model, eps)
    Mconst, j0, pairing = zero_speed_constant(model)
    speeds, E = characteristic_speeds(model)
    e0 = E[:, j0]
    # a stationary layer requires zero net source mass along the
    # vanishing characteristic: nothing transports that mass away
    mass, _ = quad_vec(lambda x: float(model.source_at(np.array([x]))[0] @ e0),
                       -np.inf, np.inf, epsabs=1e-13, epsrel=1e-13)
    if abs(mass) > 1e-8 * (1.0 + abs(Mconst)):
        raise ConfigurationError(
            "source has nonzero mass on the zero-speed characteristic; "
            "no stationary layer exists")

    b = np.zeros(model.n)
    sys = _ShockSystem(model, _GRID, b, eps, free_b_index=j0)
    z = np.concatenate([b, [0.0], np.zeros(int(sys.active_flat.sum()))])
    sol = _solve_layer(sys, z)
    a_j0 = float(sol.a[j0])
    b_j0 = float(sol.b[j0])
    sol.diagnostics["M"] = Mconst
    sol.diagnostics["j0"] = j0
    return a_j0, b_j0, Mconst, sol
